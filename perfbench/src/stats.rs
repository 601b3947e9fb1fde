//! Exact-sample statistics, the seeded generator and small helpers shared by
//! the workloads.

/// Median of a sample (mean of the two middle values for even sizes).
///
/// # Panics
///
/// Panics on an empty sample.
pub fn median(samples: &[f64]) -> f64 {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    median_of_sorted(&v)
}

/// [`median`] of an already sorted sample, without copying it.
///
/// # Panics
///
/// Panics on an empty sample.
pub fn median_of_sorted(sorted: &[f64]) -> f64 {
    assert!(!sorted.is_empty(), "median of an empty sample");
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// Nearest-rank quantile of an already sorted sample, with the number of
/// samples strictly beyond the returned rank.
fn nearest_rank(sorted: &[f64], q: f64) -> (f64, usize) {
    let n = sorted.len();
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    (sorted[rank - 1], n - rank)
}

/// The tail an already sorted sample supports: the highest of p99, p90 and
/// p50 that has at least ten samples beyond it, or the maximum when the
/// sample is smaller than twenty. Returns the percentile's label and value.
pub fn tail(sorted: &[f64]) -> (&'static str, f64) {
    assert!(!sorted.is_empty(), "tail of an empty sample");
    debug_assert!(sorted.is_sorted_by(|a, b| a <= b), "tail of an unsorted sample");
    for (label, q) in [("p99", 0.99), ("p90", 0.90), ("p50", 0.50)] {
        let (value, beyond) = nearest_rank(sorted, q);
        if beyond >= 10 {
            return (label, value);
        }
    }
    ("max", sorted[sorted.len() - 1])
}

/// SplitMix64: a tiny seeded generator, so the benchmark's inputs depend on
/// `--seed` alone.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for one named input stream under a seed.
    pub fn new(seed: u64, stream: u64) -> Self {
        Rng(seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15))
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `(0, 1]`.
    pub fn unit(&mut self) -> f64 {
        ((self.next_u64() >> 11) + 1) as f64 / (1u64 << 53) as f64
    }
}

/// FNV-1a, 64 bit: a stable digest of rendered output.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_uses_the_highest_supported_percentile() {
        let small: Vec<f64> = (1..=19).map(f64::from).collect();
        assert_eq!(tail(&small), ("max", 19.0));
        let twenty: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(tail(&twenty), ("p50", 10.0));
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&hundred), ("p90", 90.0));
        let thousand: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&thousand), ("p99", 990.0));
    }

    #[test]
    fn median_of_even_and_odd_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn rng_is_seeded() {
        let draw = |seed| {
            let mut r = Rng::new(seed, 1);
            [r.next_u64(), r.next_u64()]
        };
        assert_eq!(draw(7), draw(7));
        assert_ne!(draw(7), draw(8));
        let mut r = Rng::new(3, 2);
        assert!((0..1000).map(|_| r.unit()).all(|u| u > 0.0 && u <= 1.0));
    }
}
