//! What one connection owes its client. A reply is written the moment it
//! resolves (it carries its request id), except that a deferred job — the
//! drain acknowledgement — starts only once every reply owed before it is
//! settled, and a closing frame goes last. No clock, lock, thread or
//! socket: the event loop polls, spawns and writes. `ci.sh` keeps it so.

use crate::codec::Frame;
use std::collections::BTreeMap;

/// One connection's owed replies, keyed in the order they were owed.
pub(crate) struct Owed<T, J> {
    entries: BTreeMap<u64, Entry<T, J>>,
    next: u64,
}

pub(crate) enum Entry<T, J> {
    /// Written once polling the item yields it.
    Held(T),
    /// A job started once nothing owed before it is left.
    Deferred(J),
    /// The frame that closes the connection: nothing is owed after it.
    Closing(Box<Frame>),
}

impl<T, J> Owed<T, J> {
    pub(crate) fn new() -> Self {
        Self { entries: BTreeMap::new(), next: 0 }
    }

    /// Replies owed: what the in-flight window counts.
    pub(crate) fn len(&self) -> usize {
        self.entries.len()
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Owes the entry `entry` makes of its key.
    pub(crate) fn owe(&mut self, entry: impl FnOnce(u64) -> Entry<T, J>) -> u64 {
        self.next += 1;
        self.entries.insert(self.next, entry(self.next));
        self.next
    }

    /// Polls the held item under `key` — every held item, in the order
    /// owed, when `None` — and hands `out` the reply of each one that
    /// resolved. Then the front entry, if nothing is owed before it: a
    /// deferred job becomes the item `start` makes of it, the closing
    /// frame goes to `out`.
    pub(crate) fn settle(
        &mut self,
        key: Option<u64>,
        mut poll: impl FnMut(&T) -> Option<Frame>,
        start: impl FnOnce(u64, J) -> T,
        mut out: impl FnMut(Frame),
    ) {
        let mut settled = |entry: &Entry<T, J>| match entry {
            Entry::Held(item) => poll(item).map(&mut out).is_some(),
            _ => false,
        };
        match key {
            Some(key) => {
                if self.entries.get(&key).is_some_and(&mut settled) {
                    self.entries.remove(&key);
                }
            }
            None => self.entries.retain(|_, entry| !settled(entry)),
        }
        let Some(front) = self.entries.first_entry() else { return };
        if let Entry::Held(_) = front.get() {
            return;
        }
        let key = *front.key();
        match front.remove() {
            Entry::Deferred(job) => drop(self.entries.insert(key, Entry::Held(start(key, job)))),
            Entry::Closing(frame) => out(*frame),
            Entry::Held(_) => unreachable!("the front is not held"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::{ErrorCode, SnapshotRequest};
    use crate::dispatch::error_frame;

    fn hold(owed: &mut Owed<Item, u64>, id: u64) -> u64 {
        owed.owe(|_| Entry::Held(item(id)))
    }
    use std::cell::Cell;

    /// A held reply that resolves when the test says so.
    type Item = (u64, Cell<bool>);

    fn item(id: u64) -> Item {
        (id, Cell::new(false))
    }

    /// Settles `key` (every item when `None`), starting a due job as the
    /// item of its own id, and lists the request ids written.
    fn settle(owed: &mut Owed<Item, u64>, key: Option<u64>) -> Vec<u64> {
        let mut written = Vec::new();
        let ready =
            |(id, ready): &Item| ready.get().then_some(Frame::Snapshot(SnapshotRequest { request_id: *id }));
        owed.settle(key, ready, |_, job| item(job), |frame| written.push(frame.request_id()));
        written
    }

    fn resolve(owed: &Owed<Item, u64>, key: u64) {
        match owed.entries.get(&key) {
            Some(Entry::Held((_, ready))) => ready.set(true),
            _ => panic!("{key} is not held"),
        }
    }

    #[test]
    fn a_reply_is_written_the_moment_it_resolves_whatever_is_owed_before_it() {
        let mut owed: Owed<Item, u64> = Owed::new();
        let slow = hold(&mut owed, 1);
        let fast = hold(&mut owed, 2);
        resolve(&owed, fast);
        assert!(settle(&mut owed, Some(slow)).is_empty(), "the slow one is still in flight");
        assert_eq!(settle(&mut owed, Some(fast)), [2]);
        assert_eq!(owed.len(), 1);
        resolve(&owed, slow);
        assert_eq!(settle(&mut owed, None), [1]);
        assert!(owed.is_empty());
    }

    #[test]
    fn a_deferred_job_starts_once_everything_owed_before_it_is_settled() {
        let mut owed: Owed<Item, u64> = Owed::new();
        let before = hold(&mut owed, 1);
        let job = owed.owe(|_| Entry::Deferred(9));
        let after = hold(&mut owed, 2);
        resolve(&owed, after);
        assert_eq!(settle(&mut owed, None), [2], "a later reply does not wait for the job");
        assert!(matches!(owed.entries.get(&job), Some(Entry::Deferred(9))), "not started yet");
        resolve(&owed, before);
        assert_eq!(settle(&mut owed, Some(before)), [1]);
        assert!(
            matches!(owed.entries.get(&job), Some(Entry::Held((9, _)))),
            "started once nothing precedes it"
        );
        resolve(&owed, job);
        assert_eq!(settle(&mut owed, Some(job)), [9], "its reply is owed like any other");
        assert!(owed.is_empty());
    }

    #[test]
    fn a_job_deferred_behind_another_starts_after_its_reply() {
        let mut owed: Owed<Item, u64> = Owed::new();
        let first = owed.owe(|_| Entry::Deferred(1));
        let second = owed.owe(|_| Entry::Deferred(2));
        assert!(settle(&mut owed, None).is_empty());
        assert!(matches!(owed.entries.get(&second), Some(Entry::Deferred(2))), "waits for the first reply");
        resolve(&owed, first);
        assert_eq!(settle(&mut owed, Some(first)), [1]);
        assert!(matches!(owed.entries.get(&second), Some(Entry::Held(_))));
    }

    #[test]
    fn the_closing_frame_goes_last() {
        let mut owed: Owed<Item, u64> = Owed::new();
        let first = hold(&mut owed, 1);
        owed.owe(|_| Entry::Closing(Box::new(error_frame(0, ErrorCode::Malformed, "garbage"))));
        assert!(settle(&mut owed, None).is_empty(), "a verdict is still owed");
        assert!(!owed.is_empty());
        resolve(&owed, first);
        assert_eq!(settle(&mut owed, Some(first)), [1, 0], "the verdict, then the closing frame");
        assert!(owed.is_empty());
    }
}
