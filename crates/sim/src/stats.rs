//! Counters, accumulators and histograms for simulation statistics.
//!
//! These are the raw material of the paper's evaluation: the overhead
//! breakdowns of Tables 2–4, the network-cache hit ratios of Figures 2–13,
//! and the latency curves of Figure 14 are all folds over these types.

use serde::{Deserialize, Serialize};

/// A monotonically increasing event counter.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Counter(pub u64);

impl Counter {
    /// Increment by one.
    #[inline]
    pub fn inc(&mut self) {
        self.0 += 1;
    }

    /// Increment by `n`.
    #[inline]
    pub fn add(&mut self, n: u64) {
        self.0 += n;
    }

    /// Current count.
    #[inline]
    pub fn get(self) -> u64 {
        self.0
    }

    /// This counter as a fraction of `total` (0 when `total` is 0).
    pub fn ratio_of(self, total: Counter) -> f64 {
        if total.0 == 0 {
            0.0
        } else {
            self.0 as f64 / total.0 as f64
        }
    }
}

/// Running sum / min / max / count of an `f64`-valued observation.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct Accum {
    /// Number of observations recorded.
    pub count: u64,
    /// Sum of all observations.
    pub sum: f64,
    /// Smallest observation (`+inf` when empty).
    pub min: f64,
    /// Largest observation (`-inf` when empty).
    pub max: f64,
}

impl Default for Accum {
    fn default() -> Self {
        Accum {
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }
}

impl Accum {
    /// Record one observation.
    pub fn record(&mut self, v: f64) {
        self.count += 1;
        self.sum += v;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Arithmetic mean of recorded observations; 0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Merge another accumulator into this one.
    pub fn merge(&mut self, other: &Accum) {
        self.count += other.count;
        self.sum += other.sum;
        if other.count > 0 {
            self.min = self.min.min(other.min);
            self.max = self.max.max(other.max);
        }
    }
}

/// A power-of-two bucketed histogram of `u64` observations.
///
/// Bucket `i` covers `[2^(i-1), 2^i)` for `i ≥ 1`; bucket 0 holds zeros and
/// ones. Good enough to characterise message-size and latency distributions
/// without per-sample storage.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct Histogram {
    buckets: Vec<u64>,
    count: u64,
    sum: u64,
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Histogram::default()
    }

    /// Record one observation.
    pub fn record(&mut self, v: u64) {
        let idx = if v <= 1 {
            0
        } else {
            64 - (v - 1).leading_zeros() as usize
        };
        if self.buckets.len() <= idx {
            self.buckets.resize(idx + 1, 0);
        }
        self.buckets[idx] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean of observations; 0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Upper bound (exclusive) of the bucket containing the p-th percentile,
    /// `p` in `[0, 100]`.
    ///
    /// **Empty-histogram contract:** with no recorded observations this
    /// returns 0 for every `p` (never NaN, never a panic). Aggregation
    /// code — in particular `cni-batch`'s merging of per-kind latency
    /// histograms, where a message kind may appear in no run of a batch —
    /// relies on this: an absent distribution reads as "0 of whatever
    /// unit", matching [`Histogram::mean`].
    pub fn percentile_bound(&self, p: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = (p / 100.0 * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= target {
                return 1u64 << i;
            }
        }
        1u64 << (self.buckets.len().saturating_sub(1))
    }

    /// Estimate of the p-th percentile (`p` in `[0, 100]`) by linear
    /// interpolation within the containing power-of-two bucket. Exact
    /// whenever a bucket holds a single distinct value (buckets 0–1);
    /// elsewhere the error is bounded by the bucket width.
    ///
    /// **Empty-histogram contract:** with no recorded observations this
    /// returns 0.0 for every `p` — including `p = 0` and `p = 100` —
    /// never NaN and never a panic. See [`Histogram::percentile_bound`]
    /// for why downstream merging code depends on this.
    pub fn percentile(&self, p: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let target = (p.clamp(0.0, 100.0) / 100.0 * self.count as f64)
            .ceil()
            .max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            if n == 0 {
                continue;
            }
            if seen + n >= target {
                // Bucket 0 holds {0, 1}; bucket i ≥ 1 holds (2^(i-1), 2^i].
                let (lo, hi) = if i == 0 {
                    (0.0, 1.0)
                } else {
                    ((1u64 << (i - 1)) as f64, (1u64 << i) as f64)
                };
                let frac = (target - seen) as f64 / n as f64;
                return lo + frac * (hi - lo);
            }
            seen += n;
        }
        (1u64 << (self.buckets.len() - 1)) as f64
    }

    /// Merge another histogram into this one (bucket-wise sum). The sums
    /// saturate, as [`record`](Self::record)'s does: a histogram read back
    /// from a persisted report may carry any counts.
    pub fn merge(&mut self, other: &Histogram) {
        if self.buckets.len() < other.buckets.len() {
            self.buckets.resize(other.buckets.len(), 0);
        }
        for (b, &o) in self.buckets.iter_mut().zip(&other.buckets) {
            *b = b.saturating_add(o);
        }
        self.count = self.count.saturating_add(other.count);
        self.sum = self.sum.saturating_add(other.sum);
    }

    /// Bucket populations, lowest bucket first.
    pub fn buckets(&self) -> &[u64] {
        &self.buckets
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_basics() {
        let mut c = Counter::default();
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        assert_eq!(c.ratio_of(Counter(10)), 0.5);
        assert_eq!(c.ratio_of(Counter(0)), 0.0);
    }

    #[test]
    fn accum_tracks_min_max_mean() {
        let mut a = Accum::default();
        assert!(a.is_empty());
        for v in [3.0, 1.0, 2.0] {
            a.record(v);
        }
        assert_eq!(a.count, 3);
        assert_eq!(a.min, 1.0);
        assert_eq!(a.max, 3.0);
        assert!((a.mean() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn accum_merge() {
        let mut a = Accum::default();
        a.record(1.0);
        let mut b = Accum::default();
        b.record(5.0);
        a.merge(&b);
        assert_eq!(a.count, 2);
        assert_eq!(a.max, 5.0);
        assert_eq!(a.min, 1.0);
        // Merging an empty accumulator must not poison min/max.
        a.merge(&Accum::default());
        assert_eq!(a.count, 2);
        assert_eq!(a.min, 1.0);
    }

    #[test]
    fn histogram_bucket_boundaries() {
        let mut h = Histogram::new();
        h.record(0);
        h.record(1);
        h.record(2);
        h.record(3);
        h.record(4);
        h.record(5);
        // zeros+ones in bucket 0; 2 in bucket 1; 3..4 in bucket 2; 5..8 in 3.
        assert_eq!(h.buckets(), &[2, 1, 2, 1]);
        assert_eq!(h.count(), 6);
        assert!((h.mean() - 15.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn histogram_percentile() {
        let mut h = Histogram::new();
        for _ in 0..99 {
            h.record(1);
        }
        h.record(1024);
        assert_eq!(h.percentile_bound(50.0), 1);
        assert_eq!(h.percentile_bound(100.0), 1024);
        assert_eq!(Histogram::new().percentile_bound(50.0), 0);
    }

    #[test]
    fn histogram_percentile_interpolates() {
        let mut h = Histogram::new();
        for _ in 0..99 {
            h.record(1);
        }
        h.record(1024);
        // The 50th percentile sits inside the {0,1} bucket: exact.
        assert!(h.percentile(50.0) <= 1.0);
        // The 100th falls in the (512, 1024] bucket.
        let p100 = h.percentile(100.0);
        assert!((512.0..=1024.0).contains(&p100), "{p100}");
        assert_eq!(Histogram::new().percentile(99.0), 0.0);
        // Monotone in p.
        assert!(h.percentile(10.0) <= h.percentile(99.0));
    }

    #[test]
    fn empty_histogram_percentiles_are_zero() {
        // The documented contract: every percentile of an empty histogram
        // is 0 / 0.0 — finite, deterministic, no NaN, no panic — so batch
        // merging can treat "kind never observed" as a zero distribution.
        let h = Histogram::new();
        for p in [0.0, 50.0, 99.0, 100.0, -5.0, 250.0] {
            assert_eq!(h.percentile_bound(p), 0, "percentile_bound({p})");
            let v = h.percentile(p);
            assert_eq!(v, 0.0, "percentile({p})");
            assert!(!v.is_nan());
        }
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.count(), 0);
    }

    #[test]
    fn merging_empty_histograms_preserves_the_contract() {
        // empty ∪ empty is still empty…
        let mut e = Histogram::new();
        e.merge(&Histogram::new());
        assert_eq!(e.percentile(99.0), 0.0);
        assert_eq!(e.percentile_bound(50.0), 0);
        // …and empty ∪ populated behaves exactly like the populated side.
        let mut pop = Histogram::new();
        pop.record(8);
        e.merge(&pop);
        assert_eq!(e.percentile_bound(100.0), pop.percentile_bound(100.0));
        assert_eq!(e.percentile(100.0), pop.percentile(100.0));
    }

    #[test]
    fn histogram_merge_sums_everything() {
        let mut a = Histogram::new();
        a.record(1);
        a.record(100);
        let mut b = Histogram::new();
        b.record(5000);
        b.record(2);
        a.merge(&b);
        assert_eq!(a.count(), 4);
        assert_eq!(a.buckets().iter().sum::<u64>(), 4);
        assert!((a.mean() - (1 + 100 + 5000 + 2) as f64 / 4.0).abs() < 1e-12);
        // Merging an empty histogram is a no-op.
        let before = a.clone();
        a.merge(&Histogram::new());
        assert_eq!(a.count(), before.count());
        assert_eq!(a.buckets(), before.buckets());
    }

    #[test]
    fn merging_a_forged_histogram_saturates_instead_of_overflowing() {
        // Counts as a damaged or forged persisted report may carry them.
        let forged = Histogram {
            buckets: vec![u64::MAX, 1],
            count: u64::MAX,
            sum: u64::MAX,
        };
        let mut h = Histogram::new();
        h.record(0);
        h.record(2);
        h.merge(&forged);
        assert_eq!(h.buckets(), [u64::MAX, 2]);
        assert_eq!(h.count(), u64::MAX);
        assert_eq!(h.sum, u64::MAX);
        h.merge(&forged);
        assert_eq!((h.count(), h.sum), (u64::MAX, u64::MAX));
    }
}
