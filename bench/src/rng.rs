//! The load generator's own randomness: a seeded SplitMix64 stream, Zipf
//! popularity and Poisson arrivals. Deliberately not `HmacDrbg` — the
//! workspace DRBG costs an HMAC per draw, and the generator must stay
//! cheap next to a 40 µs request.

/// SplitMix64 (Steele, Lea & Flood): full-period, passes BigCrush, and a
/// pure function of the seed, so the same `--seed` gives the same trace.
#[derive(Clone, Debug)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// A child stream for one purpose (`lane`) of one seed, so adding a
    /// draw in one place never shifts the numbers seen in another.
    pub fn fork(seed: u64, lane: u64) -> Self {
        let mut parent = SplitMix64::new(seed ^ lane.wrapping_mul(0xA076_1D64_78BD_642F));
        SplitMix64::new(parent.next_u64())
    }

    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)` with 53 random bits.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[0, bound)`; `bound` must be nonzero. The modulo bias
    /// is below 2^-40 for every bound the benchmark uses.
    pub fn below(&mut self, bound: u64) -> u64 {
        self.next_u64() % bound
    }

    /// One exponential inter-arrival gap, in nanoseconds, of a Poisson
    /// process with `rate_per_s` arrivals per second.
    pub fn exp_gap_ns(&mut self, rate_per_s: f64) -> u64 {
        // 1 - u is in (0, 1], so the logarithm is finite.
        let u = 1.0 - self.next_f64();
        (-u.ln() / rate_per_s * 1e9) as u64
    }
}

/// Zipf popularity over ranks `0..n`: `P(rank k) ∝ 1 / (k + 1)^s`,
/// sampled by binary search over the cumulative table.
#[derive(Clone, Debug)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n > 0, "Zipf needs at least one rank");
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for k in 0..n {
            acc += 1.0 / ((k + 1) as f64).powf(s);
            cdf.push(acc);
        }
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut SplitMix64) -> usize {
        let u = rng.next_f64();
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream_and_forks_are_independent() {
        let a: Vec<u64> = {
            let mut r = SplitMix64::new(7);
            (0..8).map(|_| r.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut r = SplitMix64::new(7);
            (0..8).map(|_| r.next_u64()).collect()
        };
        assert_eq!(a, b);
        assert_ne!(
            SplitMix64::fork(7, 1).next_u64(),
            SplitMix64::fork(7, 2).next_u64()
        );
        assert_ne!(
            SplitMix64::fork(7, 1).next_u64(),
            SplitMix64::fork(8, 1).next_u64()
        );
    }

    #[test]
    fn zipf_is_skewed_and_covers_the_tail() {
        let zipf = Zipf::new(1024, 1.1);
        let mut rng = SplitMix64::new(1);
        let mut counts = vec![0u32; 1024];
        for _ in 0..200_000 {
            counts[zipf.sample(&mut rng)] += 1;
        }
        // Rank 0 carries 1/H(1024, 1.1) ≈ 0.18 of the mass.
        let head = f64::from(counts[0]) / 200_000.0;
        assert!((0.16..0.20).contains(&head), "head share {head}");
        assert!(counts[0] > counts[1] && counts[1] > counts[7]);
        assert!(counts[512..].iter().sum::<u32>() > 0, "tail never sampled");
    }

    #[test]
    fn poisson_gaps_have_the_requested_mean() {
        let mut rng = SplitMix64::new(3);
        let n = 100_000u64;
        let total: u64 = (0..n).map(|_| rng.exp_gap_ns(8_000.0)).sum();
        let mean = total as f64 / n as f64;
        // 8 000 arrivals/s ⇒ 125 µs mean gap.
        assert!((123_000.0..127_000.0).contains(&mean), "mean gap {mean} ns");
    }
}
