//! The client's reply table: which pending request each response frame
//! on one connection answers. It reads no clock, takes no lock, blocks
//! on nothing and touches no socket: each slot is the write half of a
//! single-use [`Mailbox`], and the socket, the lock and the reader
//! thread are the client's (`client.rs`). `ci.sh` keeps this file pure.

use crate::codec::Frame;
use crate::error::NetError;
use offloadnn_serve::{mailbox, Mailbox, Responder};
use std::collections::HashMap;

/// What [`Replies::deliver`] did with one frame.
#[derive(Debug, PartialEq)]
pub(crate) enum Delivery {
    /// The frame went to the slot its correlation id named.
    Delivered,
    /// No slot holds this correlation id (already answered, cancelled,
    /// or never sent).
    Unknown(u64),
    /// A connection-level server error (correlation id 0): the table is
    /// closed and the driver must close the connection.
    ConnectionError(Box<Frame>),
}

/// The replies owed on one connection, keyed by correlation id.
#[derive(Debug)]
pub(crate) struct Replies {
    /// `false` once the connection died: no slot can be opened again.
    open: bool,
    slots: HashMap<u64, Responder<Frame>>,
}

impl Replies {
    pub(crate) fn new() -> Self {
        Self { open: true, slots: HashMap::new() }
    }

    /// Opens the slot request `id`'s reply will arrive in.
    ///
    /// # Errors
    ///
    /// [`NetError::Disconnected`] once the table is closed.
    pub(crate) fn register(&mut self, id: u64) -> Result<Mailbox<Frame>, NetError> {
        if !self.open {
            return Err(NetError::Disconnected("the connection is closed".into()));
        }
        let (tx, rx) = mailbox();
        self.slots.insert(id, tx);
        Ok(rx)
    }

    /// Drops request `id`'s slot (its frame was never written).
    pub(crate) fn cancel(&mut self, id: u64) {
        self.slots.remove(&id);
    }

    /// Routes one response frame to its slot, which it empties: a second
    /// reply for the same id is [`Delivery::Unknown`].
    pub(crate) fn deliver(&mut self, frame: Frame) -> Delivery {
        let id = frame.request_id();
        if id == 0 {
            self.close();
            return Delivery::ConnectionError(Box::new(frame));
        }
        match self.slots.remove(&id) {
            Some(slot) => {
                // The reader may be gone (a timed-out wait); the reply
                // is then simply dropped.
                slot.send(frame);
                Delivery::Delivered
            }
            None => Delivery::Unknown(id),
        }
    }

    /// Closes the table: every pending slot resolves lost (its write
    /// half drops unsent, which rings its bell) and later registrations
    /// are refused.
    pub(crate) fn close(&mut self) {
        self.open = false;
        self.slots.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::{ErrorCode, SnapshotRequest};
    use crate::dispatch::error_frame;
    use offloadnn_serve::{Bell, VerdictError};
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;
    use std::time::Duration;

    fn answer(request_id: u64) -> Frame {
        Frame::Snapshot(SnapshotRequest { request_id })
    }

    /// What a slot holds right now, without waiting.
    fn peek(slot: &Mailbox<Frame>) -> Option<Result<Frame, VerdictError>> {
        slot.take(Some(Duration::ZERO))
    }

    #[test]
    fn a_reply_reaches_only_its_own_slot() {
        let mut table = Replies::new();
        let one = table.register(1).expect("open");
        let two = table.register(2).expect("open");
        assert_eq!(table.deliver(answer(2)), Delivery::Delivered);
        assert_eq!(peek(&two), Some(Ok(answer(2))));
        assert_eq!(peek(&one), None, "slot 1 is still pending");
    }

    #[test]
    fn a_second_reply_for_the_same_id_is_unknown() {
        let mut table = Replies::new();
        let slot = table.register(7).expect("open");
        assert_eq!(table.deliver(answer(7)), Delivery::Delivered);
        assert_eq!(table.deliver(answer(7)), Delivery::Unknown(7));
        assert_eq!(peek(&slot), Some(Ok(answer(7))));
        assert_eq!(peek(&slot), Some(Err(VerdictError::Lost)), "one reply per slot");
    }

    #[test]
    fn a_connection_level_error_fails_every_pending_slot() {
        let mut table = Replies::new();
        let slots: Vec<_> = (1..=3).map(|id| table.register(id).expect("open")).collect();
        let refusal = error_frame(0, ErrorCode::TooManyConnections, "full");
        assert_eq!(table.deliver(refusal.clone()), Delivery::ConnectionError(Box::new(refusal)));
        for slot in &slots {
            assert_eq!(peek(slot), Some(Err(VerdictError::Lost)));
        }
    }

    /// A frontend owing a gateway verdict hears of the dead connection
    /// through the bell, not by waiting on the slot.
    #[test]
    fn close_rings_every_pending_slot() {
        let rings = Arc::new(AtomicUsize::new(0));
        let counter = Arc::clone(&rings);
        let bell: Bell = Arc::new(move || {
            counter.fetch_add(1, Ordering::SeqCst);
        });
        let mut table = Replies::new();
        let slots: Vec<_> = (1..=3).map(|id| table.register(id).expect("open")).collect();
        for slot in &slots {
            slot.ring_on_resolve(&bell);
        }
        table.close();
        assert_eq!(rings.load(Ordering::SeqCst), 3);
    }

    #[test]
    fn register_after_close_is_refused() {
        let mut table = Replies::new();
        let pending = table.register(1).expect("open");
        table.close();
        assert_eq!(peek(&pending), Some(Err(VerdictError::Lost)));
        assert!(matches!(table.register(2), Err(NetError::Disconnected(_))));
        assert_eq!(table.deliver(answer(1)), Delivery::Unknown(1));
    }

    #[test]
    fn cancel_removes_only_its_own_slot() {
        let mut table = Replies::new();
        let kept = table.register(1).expect("open");
        let cancelled = table.register(2).expect("open");
        table.cancel(2);
        assert_eq!(peek(&cancelled), Some(Err(VerdictError::Lost)));
        assert_eq!(table.deliver(answer(2)), Delivery::Unknown(2));
        assert_eq!(table.deliver(answer(1)), Delivery::Delivered);
        assert_eq!(peek(&kept), Some(Ok(answer(1))));
    }
}
