//! Order statistics and the seeded generator the workloads draw from.

/// Percentiles a tail may be reported at, highest first.
const TAIL_LADDER: [f64; 4] = [99.9, 99.0, 90.0, 50.0];

/// Samples a reported percentile needs beyond it.
pub const MIN_BEYOND: usize = 10;

/// A tail latency: the percentile it was read at and the sample count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// Percentile, e.g. `99.0`.
    pub pct: f64,
    /// Value at that percentile.
    pub value: f64,
    /// Number of samples it was read from.
    pub n: usize,
}

/// Sorts a sample ascending (NaN-free by construction: every sample is a
/// measured duration or count).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Nearest-rank percentile of an ascending sample; 0 for an empty one.
pub fn percentile(sorted: &[f64], pct: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((pct / 100.0) * sorted.len() as f64 - 1e-9).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of an unsorted sample (mean of the middle pair for even sizes).
pub fn median(values: &[f64]) -> f64 {
    let s = sorted(values);
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// Mean of a sample; 0 for an empty one.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Samples a percentile needs so that [`MIN_BEYOND`] of them lie beyond it.
pub fn samples_for(pct: f64) -> usize {
    // The epsilon absorbs rounding in 100 − pct (e.g. 10 / 0.1 ≠ 100 exactly).
    (MIN_BEYOND as f64 * 100.0 / (100.0 - pct) - 1e-9).ceil() as usize
}

/// The highest percentile of [`TAIL_LADDER`] with at least [`MIN_BEYOND`]
/// samples beyond it, capped at `max_pct`; `None` when even the median lacks
/// them.
pub fn tail(sorted: &[f64], max_pct: f64) -> Option<Tail> {
    TAIL_LADDER
        .iter()
        .copied()
        .filter(|&pct| pct <= max_pct)
        .find(|&pct| sorted.len() >= samples_for(pct))
        .map(|pct| Tail {
            pct,
            value: percentile(sorted, pct),
            n: sorted.len(),
        })
}

/// SplitMix64: a tiny deterministic generator, so every workload input is a
/// pure function of the `--seed` argument.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
        assert_eq!(samples_for(99.0), 1000);
        assert_eq!(samples_for(90.0), 100);
        assert_eq!(samples_for(50.0), 20);
        let t = tail(&ramp(1000), 99.9).unwrap();
        assert_eq!((t.pct, t.value, t.n), (99.0, 990.0, 1000));
        assert!(ramp(1000).iter().filter(|&&v| v > t.value).count() >= MIN_BEYOND);
        let t = tail(&ramp(999), 99.9).unwrap();
        assert_eq!((t.pct, t.value), (90.0, 900.0));
        let t = tail(&ramp(99), 99.9).unwrap();
        assert_eq!((t.pct, t.value), (50.0, 50.0));
        assert_eq!(tail(&ramp(19), 99.9), None);
        assert_eq!(tail(&ramp(5000), 90.0).unwrap().pct, 90.0);
    }

    #[test]
    fn every_reported_tail_leaves_ten_samples_beyond() {
        for n in [20, 37, 100, 250, 1000, 4321, 10_000] {
            let s = ramp(n);
            let t = tail(&s, 99.9).unwrap();
            let beyond = s.iter().filter(|&&v| v > t.value).count();
            assert!(beyond >= MIN_BEYOND, "n={n} p{} has {beyond} beyond", t.pct);
        }
    }

    #[test]
    fn median_and_percentile_basics() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(percentile(&ramp(10), 50.0), 5.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }

    #[test]
    fn generator_is_deterministic_per_seed() {
        let a: Vec<u64> = (0..8)
            .scan(SplitMix64::new(7), |r, _| Some(r.next_u64()))
            .collect();
        let b: Vec<u64> = (0..8)
            .scan(SplitMix64::new(7), |r, _| Some(r.next_u64()))
            .collect();
        let c: Vec<u64> = (0..8)
            .scan(SplitMix64::new(8), |r, _| Some(r.next_u64()))
            .collect();
        assert_eq!(a, b);
        assert_ne!(a, c);
        let mut v: Vec<usize> = (0..50).collect();
        SplitMix64::new(3).shuffle(&mut v);
        let mut w = v.clone();
        w.sort_unstable();
        assert_eq!(w, (0..50).collect::<Vec<_>>());
    }
}
