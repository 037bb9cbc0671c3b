//! Error types of the wire codec and the TCP client/server.

use crate::codec::ErrorResponse;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Why a byte sequence failed to decode into a [`crate::Frame`].
///
/// Every variant is a *typed* rejection: malformed input — truncation,
/// bad magic, version skew, oversized length prefixes, corrupted
/// checksums, out-of-range enum tags — surfaces here and never as a
/// panic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum DecodeError {
    /// The first four bytes are not the protocol magic.
    BadMagic {
        /// The bytes found where the magic should be.
        got: [u8; 4],
    },
    /// The version byte names a protocol revision this build does not
    /// speak.
    UnsupportedVersion {
        /// The version found on the wire.
        got: u8,
    },
    /// The frame-type byte is not a known request or response type.
    UnknownFrameType {
        /// The type tag found on the wire.
        got: u8,
    },
    /// The reserved header bytes were not zero (a future revision may
    /// assign them meaning; this one requires them clear).
    NonZeroReserved,
    /// The payload length prefix exceeds [`crate::codec::MAX_PAYLOAD`].
    OversizedPayload {
        /// The claimed payload length.
        len: u32,
    },
    /// The frame checksum does not match the header + payload bytes.
    BadChecksum {
        /// Checksum recomputed from the received bytes.
        expected: u32,
        /// Checksum carried by the frame.
        got: u32,
    },
    /// The buffer ended before the named field (only from
    /// [`crate::codec::decode_exact`]; the streaming decoder reports
    /// incomplete input as `Ok(None)` instead).
    Truncated {
        /// The field being read when the bytes ran out.
        field: &'static str,
    },
    /// A string length prefix exceeds [`crate::wire::MAX_STRING`] or the
    /// bytes remaining in the payload.
    OversizedString {
        /// The claimed string length.
        len: u32,
    },
    /// A sequence length prefix claims more elements than its field
    /// allows or than the remaining payload bytes could possibly hold.
    OversizedSeq {
        /// The claimed element count.
        len: u32,
    },
    /// A string field is not valid UTF-8.
    BadUtf8,
    /// An enum tag byte is out of range for the named field.
    BadEnumTag {
        /// Which field carried the tag.
        what: &'static str,
        /// The tag found on the wire.
        got: u8,
    },
    /// A fixed-size field carried the wrong element count (e.g. a
    /// histogram snapshot with a foreign bucket count).
    WrongLength {
        /// Which field had the wrong count.
        what: &'static str,
        /// The count found on the wire.
        got: u32,
        /// The count this build requires.
        want: u32,
    },
    /// The payload parsed but left unread bytes behind — the frame is
    /// internally inconsistent.
    TrailingBytes {
        /// Unread bytes left in the payload.
        extra: usize,
    },
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::BadMagic { got } => write!(f, "bad magic {got:02x?}"),
            DecodeError::UnsupportedVersion { got } => write!(f, "unsupported protocol version {got}"),
            DecodeError::UnknownFrameType { got } => write!(f, "unknown frame type 0x{got:02x}"),
            DecodeError::NonZeroReserved => f.write_str("reserved header bytes are not zero"),
            DecodeError::OversizedPayload { len } => {
                write!(f, "payload length {len} exceeds the frame limit")
            }
            DecodeError::BadChecksum { expected, got } => {
                write!(f, "checksum mismatch (computed {expected:#010x}, frame carries {got:#010x})")
            }
            DecodeError::Truncated { field } => write!(f, "input ended while reading {field}"),
            DecodeError::OversizedString { len } => write!(f, "string length {len} exceeds its bounds"),
            DecodeError::OversizedSeq { len } => write!(f, "sequence length {len} exceeds the payload"),
            DecodeError::BadUtf8 => f.write_str("string field is not valid UTF-8"),
            DecodeError::BadEnumTag { what, got } => write!(f, "invalid tag {got} for {what}"),
            DecodeError::WrongLength { what, got, want } => {
                write!(f, "{what}: expected {want} element(s), found {got}")
            }
            DecodeError::TrailingBytes { extra } => write!(f, "{extra} trailing byte(s) after the payload"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// Errors raised by the TCP client and server.
#[derive(Debug)]
pub enum NetError {
    /// A socket operation failed.
    Io(std::io::Error),
    /// The peer sent bytes the codec rejected.
    Decode(DecodeError),
    /// The connection died (or was never established) after the
    /// configured reconnect attempts.
    Disconnected(String),
    /// The server answered the request with an [`ErrorResponse`] (e.g.
    /// the service is draining, or the submit carried no options).
    Server(ErrorResponse),
    /// A configuration field is out of its valid range.
    InvalidConfig(&'static str),
}

impl fmt::Display for NetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetError::Io(e) => write!(f, "socket error: {e}"),
            NetError::Decode(e) => write!(f, "protocol error: {e}"),
            NetError::Disconnected(why) => write!(f, "disconnected: {why}"),
            NetError::Server(e) => write!(f, "server error ({:?}): {}", e.code, e.message),
            NetError::InvalidConfig(what) => write!(f, "invalid net config: {what}"),
        }
    }
}

impl std::error::Error for NetError {}

impl From<std::io::Error> for NetError {
    fn from(e: std::io::Error) -> Self {
        NetError::Io(e)
    }
}

impl From<DecodeError> for NetError {
    fn from(e: DecodeError) -> Self {
        NetError::Decode(e)
    }
}
