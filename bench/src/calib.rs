//! A clock for the host's speed, read every few milliseconds between
//! requests, so that timings can be reported at one reference speed.
//!
//! The sandbox is a VM on a shared host whose CPU runs the same
//! instructions at several speeds. The median latency of 1000-request
//! stretches of one warm-search run read, in 100 ns units:
//!
//! ```text
//! 172 171 171 173 172 135 128 127 127 127 126 173 171 171 176 172 169 …
//! ```
//!
//! — two clean levels 35 % apart that trade places every few hundred
//! milliseconds, and the share of a run spent on each level differs from
//! run to run and hour to hour (levels seen: 10.2, 13.0, 13.8, 16.8 µs).
//! No statistic of the raw timings is steady under that: ten same-code
//! runs spread 9–22 % between quartiles whichever quantile of the
//! stretches is taken. But a fixed compute kernel timed within 10 ms of a
//! request runs at the request's speed, and latency *divided by the
//! kernel's time* spread 2.9 % over twelve runs whose raw medians spread
//! 11 %.
//!
//! So every timing the benchmark gates is reported *at reference speed*:
//! `raw × REF_NS / kernel time nearby`. [`REF_NS`] is the kernel's time on
//! this box's fastest level, so the numbers read as this box's good-weather
//! microseconds. `loadgen.host_slowdown` reports the factor that was
//! divided out, so the raw figure is one multiplication away.
//!
//! The kernel is the benchmark's own code (a later change to the repo's
//! hash functions must not move the yardstick): four multiply-rotate
//! lanes over an 8 KiB buffer — integer work with instruction-level
//! parallelism and L1 traffic, like the frame, index and crypto code it
//! stands in for.

use std::time::{Duration, Instant};

/// Kernel time at reference speed.
pub const REF_NS: f64 = 20_000.0;
/// How often a phase re-reads the host's speed. The levels hold for
/// 70 ms and more; three timings of the kernel cost about 1 % of this.
pub const EVERY: Duration = Duration::from_millis(10);

const WORDS: usize = 1024;
const PASSES: usize = 64;

fn kernel(buf: &[u64; WORDS]) -> u64 {
    let (mut a, mut b, mut c, mut d) = (1u64, 2u64, 3u64, 4u64);
    for _ in 0..PASSES {
        for w in buf.chunks_exact(4) {
            a = (a ^ w[0])
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .rotate_left(31);
            b = (b ^ w[1])
                .wrapping_mul(0xBF58_476D_1CE4_E5B9)
                .rotate_left(29);
            c = (c.wrapping_add(w[2])).rotate_left(17) ^ a;
            d = (d.wrapping_add(w[3])).wrapping_mul(0x94D0_49BB_1331_11EB) ^ b;
        }
    }
    a ^ b ^ c ^ d
}

/// The host-speed clock of one phase.
#[derive(Clone, Debug)]
pub struct Calibrator {
    buf: Box<[u64; WORDS]>,
    /// Phase time of the last reading.
    last_ns: u64,
    /// `REF_NS / kernel time` of the last reading: what a raw duration
    /// is multiplied by.
    scale: f64,
    /// Readings (kernel ns) since the last [`Calibrator::take_block`].
    block_sum: f64,
    block_n: u32,
    /// Readings of the whole phase.
    phase_sum: f64,
    phase_n: u32,
}

impl Default for Calibrator {
    fn default() -> Self {
        let mut buf = Box::new([0u64; WORDS]);
        for (i, w) in buf.iter_mut().enumerate() {
            *w = (i as u64).wrapping_mul(0xD6E8_FEB8_6659_FD93);
        }
        Calibrator {
            buf,
            last_ns: 0,
            scale: 1.0,
            block_sum: 0.0,
            block_n: 0,
            phase_sum: 0.0,
            phase_n: 0,
        }
    }
}

impl Calibrator {
    /// A clock that has taken its first reading.
    pub fn started() -> Calibrator {
        let mut c = Calibrator::default();
        c.read(0);
        c
    }

    /// Time the kernel (best of three: an interrupt lengthens one) and
    /// make that the speed of what follows.
    fn read(&mut self, phase_ns: u64) {
        let mut best = u64::MAX;
        for _ in 0..3 {
            let t = Instant::now();
            std::hint::black_box(kernel(std::hint::black_box(&self.buf)));
            best = best.min(t.elapsed().as_nanos() as u64);
        }
        let ns = best.max(1) as f64;
        self.last_ns = phase_ns;
        self.scale = REF_NS / ns;
        self.block_sum += ns;
        self.block_n += 1;
        self.phase_sum += ns;
        self.phase_n += 1;
    }

    /// Take a reading if [`EVERY`] has passed since the last one.
    pub fn tick(&mut self, phase_ns: u64) {
        if phase_ns.saturating_sub(self.last_ns) >= EVERY.as_nanos() as u64 {
            self.read(phase_ns);
        }
    }

    /// `ns` at reference speed, by the latest reading.
    pub fn at_ref(&self, ns: u64) -> u64 {
        (ns as f64 * self.scale) as u64
    }

    /// Mean slowdown (kernel time / [`REF_NS`]) since the last call, or
    /// the latest reading's if there was none in between.
    pub fn take_block(&mut self) -> f64 {
        let slowdown = if self.block_n == 0 {
            1.0 / self.scale
        } else {
            self.block_sum / f64::from(self.block_n) / REF_NS
        };
        self.block_sum = 0.0;
        self.block_n = 0;
        slowdown
    }

    /// Mean slowdown over the whole phase (1.0 before any reading).
    pub fn phase_slowdown(&self) -> f64 {
        if self.phase_n == 0 {
            1.0
        } else {
            self.phase_sum / f64::from(self.phase_n) / REF_NS
        }
    }

    /// Fold in the readings of a later pass of the same phase.
    pub fn absorb(&mut self, later: &Calibrator) {
        self.phase_sum += later.phase_sum;
        self.phase_n += later.phase_n;
    }
}

/// The host-speed clock of set-up, which is long calls into library code
/// with no request boundary to read the clock at: a thread that wakes
/// every [`EVERY`], takes a reading, and sleeps again (0.6 % of the one
/// CPU everything is pinned to).
pub struct Sampler {
    stop: std::sync::Arc<std::sync::atomic::AtomicBool>,
    thread: std::thread::JoinHandle<Calibrator>,
}

impl Sampler {
    pub fn start() -> Sampler {
        let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
        let seen = stop.clone();
        let thread = std::thread::spawn(move || {
            let mut c = Calibrator::started();
            while !seen.load(std::sync::atomic::Ordering::Relaxed) {
                std::thread::sleep(EVERY);
                c.read(0);
            }
            c
        });
        Sampler { stop, thread }
    }

    /// Stop sampling; the mean slowdown since [`Sampler::start`].
    pub fn finish(self) -> f64 {
        self.stop.store(true, std::sync::atomic::Ordering::Relaxed);
        self.thread.join().map_or(1.0, |c| c.phase_slowdown())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn readings_scale_durations_and_average_per_block() {
        let mut c = Calibrator::started();
        assert!(c.scale > 0.0 && c.scale.is_finite());
        // A duration as long as the kernel took reads as REF_NS.
        let kernel_ns = (REF_NS / c.scale) as u64;
        let at_ref = c.at_ref(kernel_ns) as f64;
        assert!((at_ref - REF_NS).abs() < 0.01 * REF_NS, "{at_ref}");

        // No reading before EVERY has passed, one after.
        c.tick(EVERY.as_nanos() as u64 - 1);
        assert_eq!(c.phase_n, 1);
        c.tick(EVERY.as_nanos() as u64);
        assert_eq!(c.phase_n, 2);
        let block = c.take_block();
        assert!((block - c.phase_slowdown()).abs() < 1e-9);
        // An empty block falls back to the latest reading.
        assert!((c.take_block() - 1.0 / c.scale).abs() < 1e-9);
    }

    #[test]
    fn kernel_is_a_pure_function_of_its_buffer() {
        let c = Calibrator::default();
        assert_eq!(kernel(&c.buf), kernel(&c.buf));
        let mut other = c.buf.clone();
        other[17] ^= 1;
        assert_ne!(kernel(&c.buf), kernel(&other));
    }
}
