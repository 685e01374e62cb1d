//! Summary statistics used by the experiment harness.

use std::fmt;

/// Scale of the fixed-point observation quantization: 2⁻²⁰ (about six
/// decimal digits of fraction). Integer-valued observations — most of
/// the harness's metrics — are represented exactly.
const SCALE: f64 = (1u64 << 20) as f64;

/// Running summary of a stream of observations, kept as exact
/// fixed-point integer sums.
///
/// Observations are quantized to multiples of 2⁻²⁰ at [`Summary::record`]
/// time and accumulated as 128-bit integer sums of values and squared
/// values. Integer addition is associative and commutative, so
/// [`Summary::merge`] is *exact*: however a stream is partitioned into
/// sub-summaries, merging them in any grouping or order reproduces the
/// bit-identical summary — the property the sharded runner's
/// shard-count invariance rests on (DESIGN §8a). The previous Welford
/// representation merged means and M2 terms in floating point, which
/// drifted by last-ulp amounts depending on the grouping.
///
/// # Example
/// ```
/// use bpush_types::stats::Summary;
/// let mut s = Summary::new();
/// for x in [1.0, 2.0, 3.0, 4.0] {
///     s.record(x);
/// }
/// assert_eq!(s.count(), 4);
/// assert!((s.mean() - 2.5).abs() < 1e-12);
/// assert!((s.variance() - 5.0 / 3.0).abs() < 1e-12);
/// assert_eq!(s.min(), Some(1.0));
/// assert_eq!(s.max(), Some(4.0));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Summary {
    count: u64,
    /// Σ round(x·2²⁰), exact.
    sum: i128,
    /// Σ round(x·2²⁰)², exact.
    sum_sq: i128,
    min: f64,
    max: f64,
}

impl Summary {
    /// An empty summary.
    pub fn new() -> Self {
        Summary {
            count: 0,
            sum: 0,
            sum_sq: 0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Records one observation.
    pub fn record(&mut self, x: f64) {
        self.count += 1;
        // `as` conversion saturates at the i128 range and maps NaN to 0
        let q = (x * SCALE).round() as i128;
        self.sum = self.sum.saturating_add(q);
        self.sum_sq = self.sum_sq.saturating_add(q.saturating_mul(q));
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Arithmetic mean; 0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            (self.sum as f64 / SCALE) / self.count as f64
        }
    }

    /// Unbiased sample variance; 0 with fewer than two observations.
    pub fn variance(&self) -> f64 {
        if self.count < 2 {
            return 0.0;
        }
        let n = i128::from(self.count);
        // n·Σq² − (Σq)² ≥ 0 holds exactly on the integer sums
        // (Cauchy–Schwarz); checked arithmetic guards the astronomically
        // unlikely i128 overflow, falling back to a float evaluation of
        // the same sums — still a pure function of the exact sums, so
        // merge exactness is unaffected.
        let numerator = n
            .checked_mul(self.sum_sq)
            .zip(self.sum.checked_mul(self.sum))
            .map_or_else(
                || {
                    let nf = self.count as f64;
                    (nf * self.sum_sq as f64 - self.sum as f64 * self.sum as f64).max(0.0)
                },
                |(a, b)| (a - b) as f64,
            );
        let nf = self.count as f64;
        numerator / (nf * (nf - 1.0)) / (SCALE * SCALE)
    }

    /// Sample standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Smallest observation, if any.
    pub fn min(&self) -> Option<f64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest observation, if any.
    pub fn max(&self) -> Option<f64> {
        (self.count > 0).then_some(self.max)
    }

    /// Merges another summary into this one (parallel sweeps). Exact:
    /// integer sums add, so merging commutes and associates bit for bit.
    pub fn merge(&mut self, other: &Summary) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = *other;
            return;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.sum_sq = self.sum_sq.saturating_add(other.sum_sq);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

impl fmt::Display for Summary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "n={} mean={:.4} sd={:.4}",
            self.count,
            self.mean(),
            self.std_dev()
        )
    }
}

impl Extend<f64> for Summary {
    fn extend<T: IntoIterator<Item = f64>>(&mut self, iter: T) {
        for x in iter {
            self.record(x);
        }
    }
}

impl FromIterator<f64> for Summary {
    fn from_iter<T: IntoIterator<Item = f64>>(iter: T) -> Self {
        let mut s = Summary::new();
        s.extend(iter);
        s
    }
}

/// A success/total counter reported as a rate (e.g. abort rate, hit rate).
///
/// # Example
/// ```
/// use bpush_types::stats::Ratio;
/// let mut r = Ratio::new();
/// r.record(true);
/// r.record(false);
/// r.record(false);
/// assert_eq!(r.total(), 3);
/// assert!((r.rate() - 1.0 / 3.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Hash)]
pub struct Ratio {
    hits: u64,
    total: u64,
}

impl Ratio {
    /// An empty counter.
    pub fn new() -> Self {
        Ratio::default()
    }

    /// A counter with `hits` of `total` events pre-recorded, for pooling
    /// tallies kept elsewhere as plain integers.
    ///
    /// # Panics
    /// Panics if `hits > total`.
    pub fn from_counts(hits: u64, total: u64) -> Self {
        assert!(hits <= total, "hits cannot exceed total");
        Ratio { hits, total }
    }

    /// Records one event; `hit` marks it as counting toward the numerator.
    pub fn record(&mut self, hit: bool) {
        self.total += 1;
        if hit {
            self.hits += 1;
        }
    }

    /// Events counted toward the numerator.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Total events recorded.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// `hits / total`; 0 when empty.
    pub fn rate(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.hits as f64 / self.total as f64
        }
    }

    /// Merges another counter into this one.
    pub fn merge(&mut self, other: &Ratio) {
        self.hits += other.hits;
        self.total += other.total;
    }
}

impl fmt::Display for Ratio {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}/{} ({:.2}%)",
            self.hits,
            self.total,
            self.rate() * 100.0
        )
    }
}

/// A fixed-resolution histogram over non-negative values with
/// logarithmic-ish bucketing, for latency quantiles.
///
/// Buckets are `[0,1), [1,2), ..., [15,16), [16,18), [18,20), ...` —
/// exact up to 16, then 12.5% relative resolution. Quantiles return the
/// lower edge of the containing bucket.
///
/// # Example
/// ```
/// use bpush_types::stats::Histogram;
/// let mut h = Histogram::new();
/// for x in 0..100 {
///     h.record(x as f64);
/// }
/// assert_eq!(h.count(), 100);
/// let p50 = h.quantile(0.5);
/// assert!((45.0..=55.0).contains(&p50), "{p50}");
/// assert!(h.quantile(1.0) >= 90.0);
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Histogram {
    /// bucket index -> count
    buckets: std::collections::BTreeMap<u32, u64>,
    count: u64,
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Histogram::default()
    }

    fn bucket_of(x: f64) -> u32 {
        let x = x.max(0.0);
        if x < 16.0 {
            return x as u32;
        }
        // 8 sub-buckets per power of two above 16
        let exp = x.log2().floor() as u32; // >= 4
        let base = 2f64.powi(exp as i32);
        let sub = ((x - base) / (base / 8.0)) as u32;
        16 + (exp - 4) * 8 + sub.min(7)
    }

    fn bucket_lower(idx: u32) -> f64 {
        if idx < 16 {
            return f64::from(idx);
        }
        let rel = idx - 16;
        let exp = rel / 8 + 4;
        let sub = rel % 8;
        let base = 2f64.powi(exp as i32);
        base + f64::from(sub) * base / 8.0
    }

    /// Records one observation (negative values clamp to zero).
    pub fn record(&mut self, x: f64) {
        *self.buckets.entry(Self::bucket_of(x)).or_insert(0) += 1;
        self.count += 1;
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Whether the histogram is empty.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// The `q`-quantile (lower bucket edge); 0 when empty.
    ///
    /// # Panics
    /// Panics if `q` is not within `[0, 1]`.
    pub fn quantile(&self, q: f64) -> f64 {
        assert!((0.0..=1.0).contains(&q), "quantile must be in [0, 1]");
        if self.count == 0 {
            return 0.0;
        }
        let target = ((self.count as f64 * q).ceil() as u64).max(1);
        let mut seen = 0;
        for (&idx, &n) in &self.buckets {
            seen += n;
            if seen >= target {
                return Self::bucket_lower(idx);
            }
        }
        #[expect(clippy::expect_used, reason = "count > 0, so buckets is nonempty")]
        let last = *self.buckets.keys().last().expect("nonempty");
        Self::bucket_lower(last)
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        for (&idx, &n) in &other.buckets {
            *self.buckets.entry(idx).or_insert(0) += n;
        }
        self.count += other.count;
    }
}

impl Extend<f64> for Histogram {
    fn extend<T: IntoIterator<Item = f64>>(&mut self, iter: T) {
        for x in iter {
            self.record(x);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_summary_is_neutral() {
        let s = Summary::new();
        assert_eq!(s.count(), 0);
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.variance(), 0.0);
        assert_eq!(s.min(), None);
        assert_eq!(s.max(), None);
    }

    #[test]
    fn single_observation() {
        let s: Summary = [5.0].into_iter().collect();
        assert_eq!(s.count(), 1);
        assert_eq!(s.mean(), 5.0);
        assert_eq!(s.variance(), 0.0);
        assert_eq!(s.min(), Some(5.0));
        assert_eq!(s.max(), Some(5.0));
    }

    #[test]
    fn merge_equals_sequential_exactly() {
        let xs: Vec<f64> = (0..100).map(|i| (i as f64).sin() * 10.0).collect();
        let whole: Summary = xs.iter().copied().collect();
        let mut left: Summary = xs[..37].iter().copied().collect();
        let right: Summary = xs[37..].iter().copied().collect();
        left.merge(&right);
        // integer sums: not approximately — bit-identically
        assert_eq!(left, whole);
    }

    /// The shard-count invariance contract (DESIGN §8a): every way of
    /// partitioning a stream into sub-summaries merges to the
    /// bit-identical summary, whatever the grouping.
    #[test]
    fn merge_is_partition_invariant() {
        let xs: Vec<f64> = (0..96).map(|i| (f64::from(i) * 0.7).cos() * 1e6).collect();
        let whole: Summary = xs.iter().copied().collect();
        for parts in [1usize, 2, 3, 4, 8, 96] {
            let chunk = xs.len() / parts;
            let mut merged = Summary::new();
            for piece in xs.chunks(chunk) {
                let s: Summary = piece.iter().copied().collect();
                merged.merge(&s);
            }
            assert_eq!(merged, whole, "{parts} partitions");
        }
        // and merging right-to-left gives the same bits as left-to-right
        let mut reversed = Summary::new();
        for piece in xs.chunks(24).rev() {
            let s: Summary = piece.iter().copied().collect();
            reversed.merge(&s);
        }
        assert_eq!(reversed, whole);
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut a: Summary = [1.0, 2.0].into_iter().collect();
        let before = a;
        a.merge(&Summary::new());
        assert_eq!(a, before);
        let mut e = Summary::new();
        e.merge(&before);
        assert_eq!(e, before);
    }

    #[test]
    fn ratio_counts_and_merges() {
        let mut a = Ratio::new();
        a.record(true);
        a.record(false);
        let mut b = Ratio::new();
        b.record(true);
        b.record(true);
        a.merge(&b);
        assert_eq!(a.hits(), 3);
        assert_eq!(a.total(), 4);
        assert!((a.rate() - 0.75).abs() < 1e-12);
        assert_eq!(a.to_string(), "3/4 (75.00%)");
    }

    #[test]
    fn empty_ratio_rate_is_zero() {
        assert_eq!(Ratio::new().rate(), 0.0);
    }

    #[test]
    fn histogram_buckets_are_monotone_and_invertible() {
        let mut prev = -1.0f64;
        for idx in 0..64 {
            let lo = Histogram::bucket_lower(idx);
            assert!(lo > prev, "bucket {idx} lower {lo} <= {prev}");
            prev = lo;
            // the lower edge maps back into its own bucket
            assert_eq!(Histogram::bucket_of(lo), idx, "edge of bucket {idx}");
        }
    }

    #[test]
    fn histogram_quantiles() {
        let mut h = Histogram::new();
        for i in 0..1000 {
            h.record(f64::from(i) / 10.0); // 0.0 .. 99.9
        }
        assert_eq!(h.count(), 1000);
        assert!(!h.is_empty());
        let p50 = h.quantile(0.5);
        assert!((40.0..=56.0).contains(&p50), "{p50}");
        let p99 = h.quantile(0.99);
        assert!(p99 >= 90.0, "{p99}");
        assert_eq!(h.quantile(0.0), 0.0);
    }

    #[test]
    fn histogram_merge_adds_counts() {
        let mut a = Histogram::new();
        a.extend([1.0, 2.0]);
        let mut b = Histogram::new();
        b.extend([100.0]);
        a.merge(&b);
        assert_eq!(a.count(), 3);
        assert!(a.quantile(1.0) >= 96.0);
    }

    #[test]
    fn empty_histogram_quantile_is_zero() {
        assert_eq!(Histogram::new().quantile(0.9), 0.0);
    }

    #[test]
    #[should_panic(expected = "quantile")]
    fn histogram_rejects_bad_quantile() {
        let _ = Histogram::new().quantile(1.5);
    }

    #[test]
    fn summary_display_nonempty() {
        let s: Summary = [1.0, 3.0].into_iter().collect();
        let text = s.to_string();
        assert!(text.contains("n=2"));
        assert!(text.contains("mean=2.0000"));
    }
}
