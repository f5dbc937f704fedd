//! Order statistics over raw samples.
//!
//! Every percentile the benchmark reports is an exact order statistic
//! of the recorded samples (nearest rank), never a histogram bucket
//! edge. Quartiles follow Python's `statistics.quantiles(values, n=4)`
//! (the default "exclusive" method), so the spread printed here is the
//! spread a reader recomputes from the same values.

/// Percentiles considered when naming the highest one the sample count
/// supports.
const LADDER: [f64; 6] = [50.0, 90.0, 95.0, 99.0, 99.9, 99.99];

/// A sorted copy of raw samples.
#[derive(Debug, Clone)]
pub struct Samples {
    sorted: Vec<f64>,
}

impl Samples {
    /// Sorts `values` (NaNs are not expected; they sort last).
    pub fn new(mut values: Vec<f64>) -> Samples {
        values.sort_by(|a, b| a.total_cmp(b));
        Samples { sorted: values }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// The nearest-rank `p`-th percentile: the smallest sample with at
    /// least `p`% of the samples at or below it. `None` when empty.
    pub fn percentile(&self, p: f64) -> Option<f64> {
        let n = self.sorted.len();
        if n == 0 {
            return None;
        }
        Some(self.sorted[rank(p, n).max(1) - 1])
    }

    /// The median as `statistics.median` defines it (mean of the two
    /// middle values for an even count).
    pub fn median(&self) -> Option<f64> {
        let n = self.sorted.len();
        match n {
            0 => None,
            _ if n % 2 == 1 => Some(self.sorted[n / 2]),
            _ => Some((self.sorted[n / 2 - 1] + self.sorted[n / 2]) / 2.0),
        }
    }

    /// The highest percentile of the ladder (p50 … p99.99) that has at
    /// least ten samples strictly above its rank; `None` when even the
    /// median lacks that support.
    pub fn highest_supported(&self) -> Option<f64> {
        let n = self.sorted.len();
        LADDER.iter().copied().rev().find(|&p| n >= rank(p, n) + 10)
    }

    /// Quartiles `[q1, q2, q3]` by the exclusive method; `None` below
    /// two samples.
    pub fn quartiles(&self) -> Option<[f64; 3]> {
        let data = &self.sorted;
        let ld = data.len();
        if ld < 2 {
            return None;
        }
        let n = 4usize;
        let m = ld + 1;
        let mut out = [0.0; 3];
        for (k, slot) in out.iter_mut().enumerate() {
            let i = k + 1;
            let j = (i * m / n).clamp(1, ld - 1);
            let delta = (i * m) as f64 - (j * n) as f64;
            *slot = (data[j - 1] * (n as f64 - delta) + data[j] * delta) / n as f64;
        }
        Some(out)
    }

    /// Interquartile distance as a share of the median.
    pub fn quartile_spread(&self) -> Option<f64> {
        let [q1, _, q3] = self.quartiles()?;
        let median = self.median()?;
        (median != 0.0).then(|| (q3 - q1) / median.abs())
    }
}

/// 1-based nearest rank of percentile `p` among `n` samples.
fn rank(p: f64, n: usize) -> usize {
    ((p / 100.0) * n as f64 - 1e-9).ceil().max(0.0) as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(v: &[f64]) -> Samples {
        Samples::new(v.to_vec())
    }

    #[test]
    fn nearest_rank_percentiles_are_samples() {
        let x = s(&(1..=100).map(f64::from).collect::<Vec<_>>());
        assert_eq!(x.percentile(50.0), Some(50.0));
        assert_eq!(x.percentile(99.0), Some(99.0));
        assert_eq!(x.percentile(100.0), Some(100.0));
        assert_eq!(x.percentile(0.0), Some(1.0));
        let y = s(&[5.0, 1.0, 3.0]);
        assert_eq!(y.percentile(50.0), Some(3.0));
        assert_eq!(y.percentile(99.0), Some(5.0));
        assert_eq!(s(&[]).percentile(50.0), None);
    }

    #[test]
    fn median_matches_python() {
        assert_eq!(s(&[3.0, 1.0, 2.0]).median(), Some(2.0));
        assert_eq!(s(&[4.0, 1.0, 3.0, 2.0]).median(), Some(2.5));
    }

    #[test]
    fn highest_supported_percentile_needs_ten_beyond() {
        let n = |k: usize| s(&(0..k).map(|i| i as f64).collect::<Vec<_>>());
        assert_eq!(n(19).highest_supported(), None);
        assert_eq!(n(20).highest_supported(), Some(50.0));
        assert_eq!(n(100).highest_supported(), Some(90.0));
        assert_eq!(n(200).highest_supported(), Some(95.0));
        assert_eq!(n(999).highest_supported(), Some(95.0));
        assert_eq!(n(1000).highest_supported(), Some(99.0));
        assert_eq!(n(10_000).highest_supported(), Some(99.9));
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let x = s(&(1..=10).map(f64::from).collect::<Vec<_>>());
        assert_eq!(x.quartiles(), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        let y = s(&[16.0, 1.0, 8.0, 2.0, 4.0]);
        assert_eq!(y.quartiles(), Some([1.5, 4.0, 12.0]));
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        assert_eq!(s(&[20.0, 10.0]).quartiles(), Some([7.5, 15.0, 22.5]));
        assert_eq!(s(&[1.0]).quartiles(), None);
    }

    #[test]
    fn quartile_spread_is_relative_to_the_median() {
        let x = s(&(1..=10).map(f64::from).collect::<Vec<_>>());
        let spread = x.quartile_spread().unwrap();
        assert!((spread - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        assert_eq!(s(&[0.0, 0.0, 0.0]).quartile_spread(), None);
        assert_eq!(s(&[7.0; 10]).quartile_spread(), Some(0.0));
    }
}
