//! Accept backoff: accept-error classification with capped exponential
//! pauses, for the server side. (A client dials once and never redials,
//! so it has no backoff of its own.)
//!
//! `accept()` fails in two very different ways. Per-connection errors
//! (`ECONNABORTED`: the peer reset between SYN and accept) are free to
//! retry immediately. Resource exhaustion (`EMFILE`/`ENFILE`: fd limits;
//! `ENOMEM`/`ENOBUFS`: kernel memory) is *not* — the failed connection is
//! still in the accept queue, so an immediate retry spins the acceptor at
//! 100% CPU re-hitting the same error. [`AcceptBackoff`] sleeps through
//! exhaustion with exponentially growing, capped pauses and resets as
//! soon as an accept succeeds.
//!
//! `std::io::ErrorKind` has no stable variants for the exhaustion errnos,
//! so classification reads `raw_os_error` against the Linux values.

use std::time::Duration;

/// Linux errno values with no stable `io::ErrorKind` mapping.
const ENOMEM: i32 = 12;
const ENFILE: i32 = 23;
const EMFILE: i32 = 24;
const ECONNABORTED: i32 = 103;
const ENOBUFS: i32 = 105;

/// How the acceptor should react to one `accept()` error.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum AcceptErrorClass {
    /// Transient, scoped to one connection attempt — retry immediately.
    Transient,
    /// A resource limit (fds, kernel memory) — back off before retrying.
    Exhausted,
}

/// Classifies an `accept()` error by its OS errno.
pub(crate) fn classify_accept_error(err: &std::io::Error) -> AcceptErrorClass {
    match err.raw_os_error() {
        Some(EMFILE | ENFILE | ENOMEM | ENOBUFS) => AcceptErrorClass::Exhausted,
        // The peer reset between SYN and accept: scoped to one attempt.
        Some(ECONNABORTED) => AcceptErrorClass::Transient,
        // EINTR, unknown errnos, non-OS errors: the next accept is
        // expected to behave normally.
        _ => AcceptErrorClass::Transient,
    }
}

/// Exponential accept backoff, capped, reset on success.
#[derive(Debug)]
pub(crate) struct AcceptBackoff {
    /// First pause after entering exhaustion.
    initial: Duration,
    /// Largest pause the exponential growth is clamped to.
    cap: Duration,
    /// Consecutive exhaustion errors since the last success.
    streak: u32,
}

impl AcceptBackoff {
    /// 10ms initial pause doubling to a 500ms cap — long enough to let
    /// fds free up, short enough that recovery is prompt.
    pub(crate) fn new() -> Self {
        Self::with_limits(Duration::from_millis(10), Duration::from_millis(500))
    }

    pub(crate) fn with_limits(initial: Duration, cap: Duration) -> Self {
        Self { initial, cap, streak: 0 }
    }

    /// Records one failed accept and returns how long to pause before
    /// retrying: `None` (retry now) for transient errors, a capped
    /// exponentially growing pause for exhaustion.
    pub(crate) fn on_error(&mut self, err: &std::io::Error) -> Option<Duration> {
        match classify_accept_error(err) {
            AcceptErrorClass::Transient => None,
            AcceptErrorClass::Exhausted => {
                let exp = self.streak.min(16); // 2^16 × initial is already past any sane cap
                self.streak = self.streak.saturating_add(1);
                Some(self.initial.saturating_mul(1u32 << exp).min(self.cap))
            }
        }
    }

    /// Records a successful accept, ending the failure streak.
    pub(crate) fn on_success(&mut self) {
        self.streak = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io;

    fn os_err(errno: i32) -> io::Error {
        io::Error::from_raw_os_error(errno)
    }

    #[test]
    fn connaborted_is_transient_and_does_not_pause() {
        let mut backoff = AcceptBackoff::new();
        assert_eq!(classify_accept_error(&os_err(ECONNABORTED)), AcceptErrorClass::Transient);
        assert_eq!(backoff.on_error(&os_err(ECONNABORTED)), None);
        assert_eq!(backoff.streak, 0);
    }

    #[test]
    fn fd_exhaustion_backs_off_exponentially_to_the_cap() {
        let mut backoff = AcceptBackoff::with_limits(Duration::from_millis(10), Duration::from_millis(500));
        let emfile = os_err(EMFILE);
        assert_eq!(backoff.on_error(&emfile), Some(Duration::from_millis(10)));
        assert_eq!(backoff.on_error(&emfile), Some(Duration::from_millis(20)));
        assert_eq!(backoff.on_error(&emfile), Some(Duration::from_millis(40)));
        // ENFILE joins the same streak.
        assert_eq!(backoff.on_error(&os_err(ENFILE)), Some(Duration::from_millis(80)));
        // The growth clamps at the cap and stays there.
        for _ in 0..40 {
            let pause = backoff.on_error(&emfile).expect("exhaustion pauses");
            assert!(pause <= Duration::from_millis(500));
        }
        assert_eq!(backoff.on_error(&emfile), Some(Duration::from_millis(500)));
    }

    #[test]
    fn success_resets_the_streak() {
        let mut backoff = AcceptBackoff::new();
        let emfile = os_err(EMFILE);
        for _ in 0..5 {
            backoff.on_error(&emfile);
        }
        assert!(backoff.streak > 0);
        backoff.on_success();
        assert_eq!(backoff.on_error(&emfile), Some(Duration::from_millis(10)), "streak restarted");
    }

    #[test]
    fn kernel_memory_errors_also_back_off() {
        let mut backoff = AcceptBackoff::new();
        assert!(backoff.on_error(&os_err(ENOMEM)).is_some());
        assert!(backoff.on_error(&os_err(ENOBUFS)).is_some());
    }

    #[test]
    fn non_os_errors_are_transient() {
        let mut backoff = AcceptBackoff::new();
        let err = io::Error::other("synthetic");
        assert_eq!(backoff.on_error(&err), None);
    }
}
