//! Lock-free metric primitives: counters, gauges, and fixed-log-bucket
//! histograms.
//!
//! Every operation is a handful of relaxed atomic read-modify-writes — no
//! locks, no allocation — so the hot paths of the engine can record without
//! perturbing what they measure. When the global layer is disabled
//! ([`crate::set_enabled`]), every recording method degenerates to a single
//! relaxed load of the enabled flag.

use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};

/// Number of histogram buckets: one per power of two of a `u64` value.
pub const N_BUCKETS: usize = 64;

/// A monotonic event counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Creates a counter at zero.
    pub const fn new() -> Self {
        Counter(AtomicU64::new(0))
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        if crate::enabled() {
            self.0.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }

    /// Resets to zero (used by A/B overhead harnesses and tests).
    pub fn reset(&self) {
        self.0.store(0, Ordering::Relaxed);
    }
}

/// A last-value-wins instantaneous gauge that also tracks its high-water
/// mark (e.g. queue depth: current *and* deepest ever observed).
#[derive(Debug, Default)]
pub struct Gauge {
    value: AtomicI64,
    max: AtomicI64,
}

impl Gauge {
    /// Creates a gauge at zero.
    pub const fn new() -> Self {
        Gauge {
            value: AtomicI64::new(0),
            max: AtomicI64::new(0),
        }
    }

    /// Sets the current value, updating the high-water mark.
    #[inline]
    pub fn set(&self, v: i64) {
        if crate::enabled() {
            self.value.store(v, Ordering::Relaxed);
            // Plain load first: the common case (no new high) then costs no
            // read-modify-write. Racing setters still converge via fetch_max.
            if v > self.max.load(Ordering::Relaxed) {
                self.max.fetch_max(v, Ordering::Relaxed);
            }
        }
    }

    /// Adds `delta` (may be negative), updating the high-water mark.
    #[inline]
    pub fn add(&self, delta: i64) {
        if crate::enabled() {
            let now = self.value.fetch_add(delta, Ordering::Relaxed) + delta;
            self.max.fetch_max(now, Ordering::Relaxed);
        }
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }

    /// Highest value ever set/reached.
    #[inline]
    pub fn high_water(&self) -> i64 {
        self.max.load(Ordering::Relaxed)
    }

    /// Resets value and high-water mark to zero.
    pub fn reset(&self) {
        self.value.store(0, Ordering::Relaxed);
        self.max.store(0, Ordering::Relaxed);
    }
}

/// A fixed-layout histogram with one bucket per power of two.
///
/// Bucket `i` counts values `v` with `2^i <= v < 2^(i+1)` (zero lands in
/// bucket 0 alongside one). The layout never reallocates or rebalances, so
/// recording is wait-free: two `fetch_add`s plus the bucket increment.
/// Values are dimensionless `u64`s; span timers record nanoseconds.
#[derive(Debug)]
pub struct Histogram {
    count: AtomicU64,
    sum: AtomicU64,
    buckets: [AtomicU64; N_BUCKETS],
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Histogram {
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }

    /// The bucket index a value falls into: `floor(log2(max(v, 1)))`.
    #[inline]
    pub fn bucket_index(v: u64) -> usize {
        (63 - v.max(1).leading_zeros()) as usize
    }

    /// Records one value.
    #[inline]
    pub fn record(&self, v: u64) {
        if crate::enabled() {
            self.count.fetch_add(1, Ordering::Relaxed);
            self.sum.fetch_add(v, Ordering::Relaxed);
            self.buckets[Self::bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of recorded values.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// A consistent-enough copy for reporting (individual loads are
    /// relaxed; concurrent recording can skew a snapshot by a few events,
    /// which is acceptable for telemetry).
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut buckets = [0u64; N_BUCKETS];
        for (out, b) in buckets.iter_mut().zip(&self.buckets) {
            *out = b.load(Ordering::Relaxed);
        }
        HistogramSnapshot {
            count: self.count(),
            sum: self.sum(),
            buckets,
        }
    }

    /// Resets every bucket and the count/sum to zero.
    pub fn reset(&self) {
        self.count.store(0, Ordering::Relaxed);
        self.sum.store(0, Ordering::Relaxed);
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
    }
}

/// An owned copy of a histogram's state, with summary accessors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Number of recorded values.
    pub count: u64,
    /// Sum of recorded values.
    pub sum: u64,
    /// Per-power-of-two bucket counts.
    pub buckets: [u64; N_BUCKETS],
}

impl HistogramSnapshot {
    /// Arithmetic mean of recorded values (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Approximate quantile `q` in `[0, 1]`: the *upper* bound of the
    /// bucket containing the q-th value, i.e. an over-estimate by at most
    /// one bucket width (2x).
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return if i == 63 {
                    u64::MAX
                } else {
                    (1u64 << (i + 1)) - 1
                };
            }
        }
        u64::MAX
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries_are_powers_of_two() {
        let _guard = crate::tests::flag_lock();
        // Zero shares bucket 0 with one.
        assert_eq!(Histogram::bucket_index(0), 0);
        assert_eq!(Histogram::bucket_index(1), 0);
        // Each power of two opens a new bucket; the value just below it
        // still belongs to the previous one.
        for i in 1..64 {
            let p = 1u64 << i;
            assert_eq!(Histogram::bucket_index(p), i, "2^{i}");
            assert_eq!(Histogram::bucket_index(p - 1), i - 1, "2^{i} - 1");
        }
        assert_eq!(Histogram::bucket_index(u64::MAX), 63);
    }

    #[test]
    fn histogram_records_into_the_right_buckets() {
        let _guard = crate::tests::flag_lock();
        let h = Histogram::new();
        for v in [0, 1, 2, 3, 4, 7, 8, 1024, u64::MAX] {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 9);
        assert_eq!(s.buckets[0], 2); // 0, 1
        assert_eq!(s.buckets[1], 2); // 2, 3
        assert_eq!(s.buckets[2], 2); // 4, 7
        assert_eq!(s.buckets[3], 1); // 8
        assert_eq!(s.buckets[10], 1); // 1024
        assert_eq!(s.buckets[63], 1); // u64::MAX
        let expected: u64 = [1u64, 2, 3, 4, 7, 8, 1024]
            .iter()
            .sum::<u64>()
            .wrapping_add(u64::MAX);
        assert_eq!(s.sum, expected);
    }

    #[test]
    fn snapshot_summaries() {
        let _guard = crate::tests::flag_lock();
        let h = Histogram::new();
        assert_eq!(h.snapshot().quantile(0.5), 0);
        for v in 1..=100u64 {
            h.record(v);
        }
        let s = h.snapshot();
        assert!((s.mean() - 50.5).abs() < 1e-9);
        // Median of 1..=100 is ~50; bucket upper bound 63 covers [32, 64).
        assert_eq!(s.quantile(0.5), 63);
        // q is clamped.
        assert_eq!(s.quantile(2.0), 127);
    }

    #[test]
    fn gauge_tracks_high_water() {
        let _guard = crate::tests::flag_lock();
        let g = Gauge::new();
        g.set(5);
        g.set(2);
        assert_eq!(g.get(), 2);
        assert_eq!(g.high_water(), 5);
        g.add(10);
        assert_eq!(g.get(), 12);
        assert_eq!(g.high_water(), 12);
        g.add(-4);
        assert_eq!(g.get(), 8);
        assert_eq!(g.high_water(), 12);
        g.reset();
        assert_eq!((g.get(), g.high_water()), (0, 0));
    }

    #[test]
    fn counter_counts() {
        let _guard = crate::tests::flag_lock();
        let c = Counter::new();
        c.inc();
        c.add(9);
        assert_eq!(c.get(), 10);
        c.reset();
        assert_eq!(c.get(), 0);
    }
}
