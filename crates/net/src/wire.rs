//! Byte-level primitives of the wire format: the crate-private `Wire`
//! trait every type that crosses the wire implements once, its impls
//! for the primitive and container types, and the writer and
//! bounds-checked reader they run on.
//!
//! Everything multi-byte is little-endian. Floats travel as their IEEE-754
//! bit patterns ([`f64::to_bits`]), so a round trip is bit-exact. Strings
//! and sequences carry a `u32` length prefix; the reader validates every
//! prefix against the bytes actually remaining *before* allocating, so a
//! hostile length prefix costs nothing and fails with a typed
//! [`DecodeError`] instead of an allocation blow-up or a panic.

use crate::error::DecodeError;

/// Longest string the codec accepts (64 KiB). Task names and option
/// labels are tens of bytes; anything near this limit is garbage input.
pub const MAX_STRING: u32 = 64 * 1024;

/// A type with one wire layout: [`Wire::put`] appends it and
/// [`Wire::get`] reads it back, written side by side so the two
/// directions cannot drift apart.
pub(crate) trait Wire: Sized {
    /// The fewest bytes any value encodes to. A sequence count is checked
    /// against it before anything is allocated, so it must never
    /// overstate: a valid frame would then be refused as oversized.
    const MIN: usize;

    /// Appends the value.
    fn put(&self, w: &mut Writer);

    /// Reads one value; `field` names it in any [`DecodeError`].
    fn get(r: &mut Reader<'_>, field: &'static str) -> Result<Self, DecodeError>;
}

/// `F::MIN` for the field `_field` selects: lets a generated impl sum its
/// fields' minimums without naming their types.
pub(crate) const fn field_min<S, F: Wire>(_field: fn(&S) -> &F) -> usize {
    F::MIN
}

/// Append-only byte buffer the [`Wire`] impls write into.
#[derive(Debug, Default)]
pub(crate) struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// Creates an empty writer.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// The bytes written so far.
    pub(crate) fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Appends a length-prefixed UTF-8 string, truncated to
    /// [`MAX_STRING`] bytes at a character boundary (encode never fails;
    /// nothing in the workspace carries strings anywhere near the limit).
    /// The layout of [`String`], for a caller holding a `&str`.
    pub(crate) fn str(&mut self, s: &str) {
        let mut end = s.len().min(MAX_STRING as usize);
        while !s.is_char_boundary(end) {
            end -= 1;
        }
        (end as u32).put(self);
        self.buf.extend_from_slice(&s.as_bytes()[..end]);
    }

    /// Appends a `u32` element count, then each element. The layout of
    /// [`Vec`], for a caller holding a slice.
    pub(crate) fn seq<T: Wire>(&mut self, items: &[T]) {
        debug_assert!(items.len() <= u32::MAX as usize);
        (items.len() as u32).put(self);
        for item in items {
            item.put(self);
        }
    }
}

/// Bounds-checked reader over a byte slice: running out of bytes is a
/// typed [`DecodeError`], never a panic.
#[derive(Debug)]
pub(crate) struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Starts reading at the beginning of `buf`.
    pub(crate) fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize, field: &'static str) -> Result<&'a [u8], DecodeError> {
        if self.remaining() < n {
            return Err(DecodeError::Truncated { field });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Fails with [`DecodeError::TrailingBytes`] unless everything was
    /// consumed.
    pub(crate) fn finish(self) -> Result<(), DecodeError> {
        match self.remaining() {
            0 => Ok(()),
            extra => Err(DecodeError::TrailingBytes { extra }),
        }
    }
}

/// Little-endian bytes; an `f64` travels as its bit pattern.
macro_rules! wire_number {
    ($($ty:ty),*) => {$(
        impl Wire for $ty {
            const MIN: usize = std::mem::size_of::<$ty>();
            #[inline]
            fn put(&self, w: &mut Writer) { w.buf.extend_from_slice(&self.to_le_bytes()) }
            #[inline]
            fn get(r: &mut Reader<'_>, field: &'static str) -> Result<Self, DecodeError> {
                let bytes = r.take(<$ty as Wire>::MIN, field)?;
                Ok(<$ty>::from_le_bytes(bytes.try_into().expect("take returns exactly MIN bytes")))
            }
        }
    )*};
}

wire_number!(u8, u32, u64, f64);

/// One byte, strictly 0 or 1.
impl Wire for bool {
    const MIN: usize = 1;

    #[inline]
    fn put(&self, w: &mut Writer) {
        u8::from(*self).put(w);
    }

    #[inline]
    fn get(r: &mut Reader<'_>, field: &'static str) -> Result<Self, DecodeError> {
        match u8::get(r, field)? {
            0 => Ok(false),
            1 => Ok(true),
            got => Err(DecodeError::BadEnumTag { what: field, got }),
        }
    }
}

/// A `u32` byte length, then the UTF-8 bytes; bounded by [`MAX_STRING`]
/// and by the bytes actually remaining.
impl Wire for String {
    const MIN: usize = 4;

    #[inline]
    fn put(&self, w: &mut Writer) {
        w.str(self);
    }

    #[inline]
    fn get(r: &mut Reader<'_>, field: &'static str) -> Result<Self, DecodeError> {
        let len = u32::get(r, field)?;
        if len > MAX_STRING || len as usize > r.remaining() {
            return Err(DecodeError::OversizedString { len });
        }
        let bytes = r.take(len as usize, field)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| DecodeError::BadUtf8)
    }
}

/// A `u32` element count, checked against `T::MIN` before allocating,
/// then each element.
impl<T: Wire> Wire for Vec<T> {
    const MIN: usize = 4;

    #[inline]
    fn put(&self, w: &mut Writer) {
        w.seq(self);
    }

    #[inline]
    fn get(r: &mut Reader<'_>, field: &'static str) -> Result<Self, DecodeError> {
        capped_seq(r, field, u32::MAX)
    }
}

/// The [`Vec`] layout holding at most `cap` elements: a longer count is
/// refused ([`DecodeError::OversizedSeq`]) before anything is allocated.
pub(crate) fn capped_seq<T: Wire>(
    r: &mut Reader<'_>,
    field: &'static str,
    cap: u32,
) -> Result<Vec<T>, DecodeError> {
    let len = u32::get(r, field)?;
    if len > cap || (len as u64).saturating_mul(T::MIN.max(1) as u64) > r.remaining() as u64 {
        return Err(DecodeError::OversizedSeq { len });
    }
    let mut items = Vec::with_capacity(len as usize);
    for _ in 0..len {
        items.push(T::get(r, field)?);
    }
    Ok(items)
}

/// The [`Vec`] layout with a count that must equal `N`
/// ([`DecodeError::WrongLength`] otherwise).
impl<T: Wire + Copy + Default, const N: usize> Wire for [T; N] {
    const MIN: usize = 4 + N * T::MIN;

    #[inline]
    fn put(&self, w: &mut Writer) {
        w.seq(self);
    }

    #[inline]
    fn get(r: &mut Reader<'_>, field: &'static str) -> Result<Self, DecodeError> {
        let got = u32::get(r, field)?;
        if got as usize != N {
            return Err(DecodeError::WrongLength { what: field, got, want: N as u32 });
        }
        let mut items = [T::default(); N];
        for item in &mut items {
            *item = T::get(r, field)?;
        }
        Ok(items)
    }
}

/// 32-bit FNV-1a over `bytes` — the frame checksum. Not cryptographic;
/// it exists to catch corruption and framing bugs, not adversaries.
pub fn fnv1a32(bytes: &[u8]) -> u32 {
    let mut hash: u32 = 0x811c_9dc5;
    for &b in bytes {
        hash ^= u32::from(b);
        hash = hash.wrapping_mul(0x0100_0193);
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_round_trip() {
        let mut w = Writer::new();
        7u8.put(&mut w);
        0xDEAD_BEEFu32.put(&mut w);
        (u64::MAX - 1).put(&mut w);
        (-0.125f64).put(&mut w);
        true.put(&mut w);
        "koalas".to_owned().put(&mut w);
        vec![3u32, 4].put(&mut w);
        [5u64, 6].put(&mut w);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert_eq!(u8::get(&mut r, "a"), Ok(7));
        assert_eq!(u32::get(&mut r, "b"), Ok(0xDEAD_BEEF));
        assert_eq!(u64::get(&mut r, "c"), Ok(u64::MAX - 1));
        assert_eq!(f64::get(&mut r, "d"), Ok(-0.125));
        assert_eq!(bool::get(&mut r, "e"), Ok(true));
        assert_eq!(String::get(&mut r, "f").as_deref(), Ok("koalas"));
        assert_eq!(Vec::<u32>::get(&mut r, "g"), Ok(vec![3, 4]));
        assert_eq!(<[u64; 2]>::get(&mut r, "h"), Ok([5, 6]));
        r.finish().unwrap();
    }

    #[test]
    fn truncated_reads_are_typed_errors() {
        let mut r = Reader::new(&[1, 2, 3]);
        assert_eq!(u64::get(&mut r, "x"), Err(DecodeError::Truncated { field: "x" }));
        // Failed read consumed nothing; smaller reads still work.
        assert_eq!(u8::get(&mut r, "y"), Ok(1));
    }

    #[test]
    fn a_bool_byte_other_than_0_or_1_is_a_bad_tag() {
        let refused = bool::get(&mut Reader::new(&[2]), "flag");
        assert_eq!(refused, Err(DecodeError::BadEnumTag { what: "flag", got: 2 }));
    }

    #[test]
    fn hostile_string_prefix_is_rejected_before_allocation() {
        let refused = String::get(&mut Reader::new(&u32::MAX.to_le_bytes()), "s"); // claims 4 GiB
        assert_eq!(refused, Err(DecodeError::OversizedString { len: u32::MAX }));
    }

    #[test]
    fn hostile_seq_prefix_is_rejected_before_allocation() {
        let refused = Vec::<u64>::get(&mut Reader::new(&[0, 0, 0, 0x40, 0, 0, 0, 0]), "opts");
        assert_eq!(refused, Err(DecodeError::OversizedSeq { len: 1 << 30 }));
    }

    #[test]
    fn non_utf8_string_is_rejected() {
        let refused = String::get(&mut Reader::new(&[2, 0, 0, 0, 0xFF, 0xFE]), "s");
        assert_eq!(refused, Err(DecodeError::BadUtf8));
    }

    #[test]
    fn fnv_matches_reference_vectors() {
        // Reference values of FNV-1a/32.
        assert_eq!(fnv1a32(b""), 0x811c_9dc5);
        assert_eq!(fnv1a32(b"a"), 0xe40c_292c);
        assert_eq!(fnv1a32(b"foobar"), 0xbf9c_f968);
    }
}
