//! The single-use mailbox a shard answers a `Service` submit through, and
//! a `net::Client`'s reader each reply. Dropped unsent (a chaos-killed
//! shard, a dead connection), it reads [`VerdictError::Lost`].

use crate::admit::VerdictError;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

/// Run once when a pending verdict resolves, on the resolving thread (a
/// shard worker, a client reader) outside the mailbox's lock; it must
/// not block that thread.
pub type Bell = Arc<dyn Fn() + Send + Sync>;

enum State<T> {
    /// Unresolved, with the bell to ring on resolution.
    Waiting(Option<Bell>),
    Sent(T),
    /// Dropped unsent, or the answer was taken.
    Gone,
}

/// Both halves share this one allocation.
struct Slot<T> {
    state: Mutex<State<T>>,
    resolved: Condvar,
}

impl<T> Slot<T> {
    /// Every update is one store, so a poisoned state is whole.
    fn state(&self) -> MutexGuard<'_, State<T>> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T> std::fmt::Debug for Slot<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("Slot")
    }
}

/// Opens a mailbox: the write half and the read half.
pub fn mailbox<T>() -> (Responder<T>, Mailbox<T>) {
    let slot = Arc::new(Slot { state: Mutex::new(State::Waiting(None)), resolved: Condvar::new() });
    (Responder(Some(Arc::clone(&slot))), Mailbox(slot))
}

/// The write half; `None` once resolved.
#[derive(Debug)]
pub struct Responder<T>(Option<Arc<Slot<T>>>);

impl<T> Responder<T> {
    /// Delivers the answer (dropped with the mailbox if nobody reads it).
    pub fn send(mut self, value: T) {
        self.resolve(State::Sent(value));
    }

    fn resolve(&mut self, to: State<T>) {
        let Some(slot) = self.0.take() else { return };
        let was = std::mem::replace(&mut *slot.state(), to);
        slot.resolved.notify_all();
        if let State::Waiting(Some(bell)) = was {
            bell();
        }
    }
}

impl<T> Drop for Responder<T> {
    fn drop(&mut self) {
        self.resolve(State::Gone);
    }
}

/// The read half.
#[derive(Debug)]
pub struct Mailbox<T>(Arc<Slot<T>>);

impl<T> Mailbox<T> {
    /// Takes the answer, waiting at most `bound` (forever when `None`; a
    /// zero bound only looks). `None`: unresolved at the bound;
    /// [`VerdictError::Lost`]: dropped unsent, or already taken.
    pub fn take(&self, bound: Option<Duration>) -> Option<Result<T, VerdictError>> {
        let (slot, waiting) = (&self.0, |s: &mut State<T>| matches!(s, State::Waiting(_)));
        let mut state = match bound {
            Some(bound) if bound.is_zero() => slot.state(),
            Some(bound) => {
                slot.resolved
                    .wait_timeout_while(slot.state(), bound, waiting)
                    .unwrap_or_else(PoisonError::into_inner)
                    .0
            }
            None => slot.resolved.wait_while(slot.state(), waiting).unwrap_or_else(PoisonError::into_inner),
        };
        match std::mem::replace(&mut *state, State::Gone) {
            State::Sent(value) => Some(Ok(value)),
            State::Gone => Some(Err(VerdictError::Lost)),
            waiting => {
                *state = waiting;
                None
            }
        }
    }

    /// Rings `bell` once the mailbox resolves — at once, on this thread,
    /// if it has. A later bell replaces an earlier, unrung one.
    pub fn ring_on_resolve(&self, bell: &Bell) {
        if let State::Waiting(slot) = &mut *self.0.state() {
            *slot = Some(Arc::clone(bell));
            return;
        }
        bell();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// A bell that counts its rings.
    fn counting() -> (Bell, Arc<AtomicUsize>) {
        let rings = Arc::new(AtomicUsize::new(0));
        let counter = Arc::clone(&rings);
        (
            Arc::new(move || {
                counter.fetch_add(1, Ordering::SeqCst);
            }),
            rings,
        )
    }

    #[test]
    fn a_sent_answer_is_taken_once_and_rings_once() {
        let (tx, rx) = mailbox();
        let (bell, rings) = counting();
        rx.ring_on_resolve(&bell);
        assert_eq!(rx.take(Some(Duration::ZERO)), None, "unresolved");
        tx.send(7);
        assert_eq!(rings.load(Ordering::SeqCst), 1);
        assert_eq!(rx.take(Some(Duration::ZERO)), Some(Ok(7)));
        assert_eq!(rx.take(None), Some(Err(VerdictError::Lost)), "the answer was taken");
    }

    /// A chaos-killed shard drops its responders unsent.
    #[test]
    fn a_write_half_dropped_unresolved_reads_lost_and_rings() {
        let (tx, rx) = mailbox::<u32>();
        let (bell, rings) = counting();
        rx.ring_on_resolve(&bell);
        drop(tx);
        assert_eq!(rings.load(Ordering::SeqCst), 1);
        assert_eq!(rx.take(None), Some(Err(VerdictError::Lost)));
    }

    #[test]
    fn a_bell_registered_after_resolution_rings_at_once() {
        let (tx, rx) = mailbox();
        tx.send(1);
        let (bell, rings) = counting();
        rx.ring_on_resolve(&bell);
        assert_eq!(rings.load(Ordering::SeqCst), 1);
        assert_eq!(rx.take(Some(Duration::ZERO)), Some(Ok(1)));
    }

    /// A bell run under the mailbox's lock would deadlock polling its
    /// own mailbox; the send runs on a thread so a deadlock fails the
    /// test instead of hanging it.
    #[test]
    fn the_bell_runs_outside_the_lock() {
        let (tx, rx) = mailbox::<u32>();
        let rx = Arc::new(rx);
        let (seen_tx, seen_rx) = std::sync::mpsc::channel();
        let polled = Arc::downgrade(&rx);
        let bell: Bell = Arc::new(move || {
            let taken = polled.upgrade().and_then(|rx| rx.take(Some(Duration::ZERO)));
            let _ = seen_tx.send(taken);
        });
        rx.ring_on_resolve(&bell);
        std::thread::spawn(move || tx.send(3));
        let seen = seen_rx.recv_timeout(Duration::from_secs(5)).expect("the bell rang without deadlocking");
        assert_eq!(seen, Some(Ok(3)));
    }

    #[test]
    fn a_bounded_take_times_out_then_a_blocking_one_is_woken() {
        let (tx, rx) = mailbox();
        assert_eq!(rx.take(Some(Duration::from_millis(5))), None);
        let sender = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(10));
            tx.send(9);
        });
        assert_eq!(rx.take(None), Some(Ok(9)));
        sender.join().expect("sender");
    }
}
