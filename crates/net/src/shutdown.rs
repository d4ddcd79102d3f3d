//! Cooperative shutdown signalling.
//!
//! One [`ShutdownSignal`] is shared between a serving loop and whoever owns
//! it. Requesting shutdown is idempotent and lock-free; serving loops poll
//! [`ShutdownSignal::is_requested`] between units of work. The TCP
//! daemon (crates/server) drains with it: its reactor and scrubber poll
//! the flag. The in-process [`crate::link::Duplex`] needs none: its server
//! loop ends when the client hangs up the request channel.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// A cloneable one-way "stop now" flag.
#[derive(Clone, Default, Debug)]
pub struct ShutdownSignal {
    flag: Arc<AtomicBool>,
}

impl ShutdownSignal {
    /// A signal in the "keep running" state.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Request shutdown. Idempotent; wakes nobody by itself — pair it with
    /// a wake-up message on whatever channel the serving loop blocks on.
    pub fn request(&self) {
        self.flag.store(true, Ordering::SeqCst);
    }

    /// Whether shutdown has been requested.
    #[must_use]
    pub fn is_requested(&self) -> bool {
        self.flag.load(Ordering::SeqCst)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_unrequested_and_latches() {
        let s = ShutdownSignal::new();
        assert!(!s.is_requested());
        s.request();
        s.request();
        assert!(s.is_requested());
    }

    #[test]
    fn clones_share_the_flag() {
        let s = ShutdownSignal::new();
        let s2 = s.clone();
        s2.request();
        assert!(s.is_requested());
    }

    #[test]
    fn visible_across_threads() {
        let s = ShutdownSignal::new();
        let s2 = s.clone();
        let t = std::thread::spawn(move || {
            while !s2.is_requested() {
                std::thread::yield_now();
            }
        });
        s.request();
        t.join().unwrap();
    }
}
