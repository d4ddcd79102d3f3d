//! Wall-clock measurement for the harness tables — the only timer in
//! `sse-bench`.
//!
//! Two shapes: [`median_nanos`] times each run of a call that lasts
//! microseconds or more (a search, a protocol round), and
//! [`batched_median_nanos`] times calls as short as one hash step, where a
//! single `Instant` pair would cost about as much as the call itself.

use std::time::{Duration, Instant};

/// Median wall-clock nanoseconds of `iters` runs of `f`.
///
/// # Panics
/// Panics if `iters == 0`.
pub fn median_nanos<F: FnMut()>(iters: usize, mut f: F) -> f64 {
    assert!(iters > 0);
    let mut samples: Vec<u128> = Vec::with_capacity(iters);
    for _ in 0..iters {
        let start = Instant::now();
        f();
        samples.push(start.elapsed().as_nanos());
    }
    samples.sort_unstable();
    samples[samples.len() / 2] as f64
}

/// A batch is grown until one run of it takes at least this long.
const MIN_BATCH: Duration = Duration::from_millis(1);

/// Median over `samples` batches of (batch time / `n`) nanoseconds per call
/// of `f`. The batch size `n` is calibrated first, by doubling from one
/// call until a batch takes at least 1 ms; that calibration is also the
/// warm-up. Each result goes through [`std::hint::black_box`] so the call
/// cannot be optimised away.
///
/// # Panics
/// Panics if `samples == 0`.
pub fn batched_median_nanos<R, F: FnMut() -> R>(samples: usize, mut f: F) -> f64 {
    assert!(samples > 0);
    let mut run = |n: u64| {
        let start = Instant::now();
        for _ in 0..n {
            std::hint::black_box(f());
        }
        start.elapsed()
    };
    let mut n = 1u64;
    while run(n) < MIN_BATCH {
        n *= 2;
    }
    let mut per_call: Vec<f64> = (0..samples)
        .map(|_| run(n).as_nanos() as f64 / n as f64)
        .collect();
    per_call.sort_unstable_by(f64::total_cmp);
    per_call[per_call.len() / 2]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_is_positive_and_ordered() {
        // Use sleeps: arithmetic loops get const-folded in release builds.
        let fast = median_nanos(3, || {
            std::thread::sleep(std::time::Duration::from_micros(10));
        });
        let slow = median_nanos(3, || {
            std::thread::sleep(std::time::Duration::from_micros(500));
        });
        assert!(fast >= 10_000.0);
        assert!(slow > fast, "{slow} should exceed {fast}");
    }

    #[test]
    fn batched_median_is_per_call() {
        // A 200 µs sleep already fills half a batch, so the batch holds a
        // handful of calls and the per-call figure must stay near one sleep.
        let per = batched_median_nanos(3, || std::thread::sleep(Duration::from_micros(200)));
        assert!((200_000.0..2_000_000.0).contains(&per), "{per}");
        let cheap = batched_median_nanos(3, || std::hint::black_box(7u64).wrapping_mul(3));
        assert!(cheap < per, "{cheap} should be below {per}");
    }
}
