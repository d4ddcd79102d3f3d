//! Exact quantiles over recorded samples.
//!
//! The daemon's own `LatencyHistogram` is 64 power-of-two buckets (one
//! bucket jump reads as 2.0x), so the benchmark never uses it for a
//! reported latency: it keeps every sample and sorts.

/// Latency samples in nanoseconds, in the order they completed.
#[derive(Clone, Debug, Default)]
pub struct Samples {
    ns: Vec<u64>,
}

impl Samples {
    pub fn with_capacity(n: usize) -> Self {
        Samples {
            ns: Vec::with_capacity(n),
        }
    }

    pub fn push(&mut self, ns: u64) {
        self.ns.push(ns);
    }

    pub fn len(&self) -> usize {
        self.ns.len()
    }

    pub fn extend(&mut self, other: &Samples) {
        self.ns.extend_from_slice(&other.ns);
    }

    /// Nearest-rank quantile of all samples: the smallest sample with at
    /// least `ceil(q * n)` samples at or below it. `None` when empty.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        let mut sorted = self.ns.clone();
        sorted.sort_unstable();
        nearest_rank(&sorted, q)
    }

    /// The quantile of each consecutive block of `block` samples (a
    /// trailing partial block shorter than half a block is folded into
    /// its predecessor). Callers report the median of these.
    ///
    /// One scheduler stall lands in one block, so it moves one of the
    /// block quantiles and not their median — which is what makes a tail
    /// percentile repeatable on a two-core sandbox.
    pub fn block_quantiles(&self, block: usize, q: f64) -> Vec<f64> {
        blocks(&self.ns, block)
            .map(|b| {
                let mut sorted = b.to_vec();
                sorted.sort_unstable();
                nearest_rank(&sorted, q).unwrap_or(0) as f64
            })
            .collect()
    }
}

fn nearest_rank(sorted: &[u64], q: f64) -> Option<u64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    Some(sorted[rank - 1])
}

/// Split `all` into blocks of `block` items; a tail shorter than half a
/// block joins the last full block instead of standing alone.
fn blocks(all: &[u64], block: usize) -> impl Iterator<Item = &[u64]> {
    let block = block.max(1);
    let full = all.len() / block;
    let tail = all.len() % block;
    let n = if full == 0 {
        usize::from(!all.is_empty())
    } else if tail * 2 >= block {
        full + 1
    } else {
        full
    };
    (0..n).map(move |i| {
        let start = i * block;
        let end = if i + 1 == n { all.len() } else { start + block };
        &all[start..end]
    })
}

/// Median of `values` (mean of the two middle values when even). Sorts
/// in place. `None` when empty.
pub fn median(values: &mut [f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    values.sort_by(f64::total_cmp);
    let mid = values.len() / 2;
    Some(if values.len() % 2 == 1 {
        values[mid]
    } else {
        (values[mid - 1] + values[mid]) / 2.0
    })
}

/// First and third quartile by the same rule as Python's
/// `statistics.quantiles(values, n=4)` (the exclusive method), which is
/// what the driver computes spreads with. `None` below two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    if values.len() < 2 {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let at = |k: usize| {
        // Python: j = k*(n+1)//4 clamped to [1, n-1]; delta = k*(n+1) - j*4.
        let m = n + 1;
        let j = (k * m / 4).clamp(1, n - 1);
        let delta = (k * m) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    Some((at(1), at(3)))
}

/// Inter-quartile distance as a share of the median — the spread the
/// driver holds against a metric's bound.
pub fn iqr_over_median(values: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(values)?;
    let med = median(&mut values.to_vec())?;
    (med != 0.0).then(|| (q3 - q1) / med.abs())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SplitMix64;

    /// Brute force: the smallest sample value `x` such that at least
    /// `ceil(q * n)` samples are `<= x`, found by counting, not sorting.
    fn oracle(samples: &[u64], q: f64) -> u64 {
        let need = ((q * samples.len() as f64).ceil() as usize).max(1);
        samples
            .iter()
            .copied()
            .filter(|&x| samples.iter().filter(|&&y| y <= x).count() >= need)
            .min()
            .unwrap()
    }

    #[test]
    fn quantiles_match_the_brute_force_oracle() {
        let mut rng = SplitMix64::new(42);
        for n in [1usize, 2, 3, 10, 99, 100, 101, 1000] {
            let mut s = Samples::default();
            for _ in 0..n {
                // Heavy ties and a long tail, like real latencies.
                let v = rng.next_u64() % 50
                    + if rng.next_u64().is_multiple_of(20) {
                        10_000
                    } else {
                        0
                    };
                s.push(v);
            }
            for q in [0.0, 0.01, 0.25, 0.5, 0.9, 0.99, 0.999, 1.0] {
                assert_eq!(s.quantile(q), Some(oracle(&s.ns, q)), "n={n} q={q}");
            }
        }
        assert_eq!(Samples::default().quantile(0.5), None);
    }

    #[test]
    fn one_stall_moves_the_whole_run_p99_but_not_the_block_median() {
        let mut s = Samples::default();
        for i in 0..10_000u64 {
            // 150 consecutive stalled ops in one block.
            let stalled = (4_000..4_150).contains(&i);
            s.push(if stalled { 5_000_000 } else { 100 + i % 7 });
        }
        assert!(s.quantile(0.99).unwrap() >= 5_000_000);
        assert!(median(&mut s.block_quantiles(1_000, 0.99)).unwrap() < 200.0);
    }

    #[test]
    fn short_tails_fold_into_the_last_block() {
        let v: Vec<u64> = (0..25).collect();
        let lens: Vec<usize> = blocks(&v, 10).map(<[u64]>::len).collect();
        assert_eq!(lens, [10, 10, 5]);
        let v: Vec<u64> = (0..24).collect();
        let lens: Vec<usize> = blocks(&v, 10).map(<[u64]>::len).collect();
        assert_eq!(lens, [10, 14]);
        let v: Vec<u64> = (0..3).collect();
        assert_eq!(blocks(&v, 10).count(), 1);
    }

    #[test]
    fn quartiles_follow_the_python_exclusive_method() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some((1.0, 3.0)));
        assert_eq!(iqr_over_median(&v), Some(1.0));
        assert_eq!(median(&mut [4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }
}
