//! Cooperative cancellation for in-flight simulations.
//!
//! A [`CancelToken`] is a shared kill flag: the supervising side (a
//! campaign supervisor, a deadline budget) trips it, and the executor
//! observes the trip at its scheduler loop boundary and unwinds with
//! [`RunError::Cancelled`](crate::RunError). Cancellation is
//! *cooperative* — nothing is interrupted mid-phase, so machine state
//! is never torn — and *result-neutral*: a token that is never tripped
//! cannot change a single cycle of the run (the check is a pure read),
//! so supervised and unsupervised runs stay bit-identical.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// A shared, clonable kill flag checked at scheduler event boundaries.
///
/// Cloning is cheap (an `Arc` bump); all clones observe the same flag.
/// The flag is one-way — there is deliberately no `reset`, so a token
/// can never be reused across attempts and a late trip can never leak
/// into the next attempt's run.
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    tripped: Arc<AtomicBool>,
}

impl CancelToken {
    /// A fresh, untripped token.
    #[must_use]
    pub fn new() -> CancelToken {
        CancelToken::default()
    }

    /// Trip the token. Every simulation holding a clone observes the
    /// trip at its next cancellation point. Idempotent.
    pub fn cancel(&self) {
        self.tripped.store(true, Ordering::Release);
    }

    /// Whether the token has been tripped.
    #[must_use]
    pub fn is_cancelled(&self) -> bool {
        self.tripped.load(Ordering::Acquire)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_untripped_and_trips_once() {
        let t = CancelToken::new();
        assert!(!t.is_cancelled());
        t.cancel();
        assert!(t.is_cancelled());
        t.cancel();
        assert!(t.is_cancelled());
    }

    #[test]
    fn clones_share_the_flag() {
        let t = CancelToken::new();
        let u = t.clone();
        u.cancel();
        assert!(t.is_cancelled());
    }

    #[test]
    fn trip_crosses_threads() {
        let t = CancelToken::new();
        let u = t.clone();
        std::thread::spawn(move || u.cancel())
            .join()
            .expect("cancel thread");
        assert!(t.is_cancelled());
    }
}
