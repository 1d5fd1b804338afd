//! Metrics: monotonic counters and fixed-bucket latency histograms.
//!
//! Handles ([`Counter`], [`Histogram`]) are `Arc`s of atomics, so the
//! hot path is a relaxed fetch-add — no lock is held while recording.
//! The [`Registry`] map itself is only locked at handle-creation and
//! snapshot time. Per-query and per-item attribution is not kept here:
//! it rides on the events (`query` / `item` fields) that `pq-trace`
//! folds.
//!
//! A disabled handle ([`crate::Obs::disabled`]) hands out *inert*
//! instruments instead: each kind carries a `live` flag that its
//! recording methods test before any atomic, so an inert one records
//! nothing and its readers see zero.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Locks `m`, recovering the guard if a panicking thread poisoned it.
///
/// Every value guarded by a registry mutex is either an `Arc` handle map
/// or a plain accumulation — there is no invariant a mid-panic writer
/// can leave half-established — so the telemetry plane deliberately
/// keeps serving after one instrumented thread dies. Without this, a
/// single panic would cascade: every later `counter()`/`snapshot()`
/// call on any thread would unwrap a `PoisonError` and bring the whole
/// process down with it.
pub(crate) fn lock_unpoisoned<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A monotonically increasing event tally.
#[derive(Debug)]
pub struct Counter {
    value: AtomicU64,
    /// False on an inert counter, which records nothing.
    live: bool,
}

impl Default for Counter {
    fn default() -> Self {
        Counter {
            value: AtomicU64::new(0),
            live: true,
        }
    }
}

impl Counter {
    /// A counter that records nothing and reads zero.
    pub(crate) fn inert() -> Self {
        Counter {
            live: false,
            ..Counter::default()
        }
    }

    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        if self.live {
            self.value.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Current total.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// Number of power-of-two buckets: bucket `i >= 1` holds values in
/// `[2^(i-1), 2^i)`, bucket 0 holds zero. Covers the full `u64` range.
const BUCKETS: usize = 65;

/// A histogram over `u64` samples (typically durations in ns) with
/// power-of-two buckets, exact count/sum/min/max, and quantile
/// estimates accurate to within a factor of two.
pub struct Histogram {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
    /// False on an inert histogram, which records nothing.
    live: bool,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
            live: true,
        }
    }
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Histogram")
            .field("summary", &self.summary())
            .finish()
    }
}

/// Index of the bucket holding `v`.
fn bucket_index(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        64 - v.leading_zeros() as usize
    }
}

/// Inclusive upper bound of bucket `i` (used as the quantile estimate).
fn bucket_upper(i: usize) -> u64 {
    if i == 0 {
        0
    } else if i >= 64 {
        u64::MAX
    } else {
        (1u64 << i) - 1
    }
}

impl Histogram {
    /// A histogram that records nothing and stays empty.
    pub(crate) fn inert() -> Self {
        Histogram {
            live: false,
            ..Histogram::default()
        }
    }

    /// Records one sample.
    pub fn record(&self, v: u64) {
        if !self.live {
            return;
        }
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.min.fetch_min(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of recorded samples (wrapping on overflow).
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Estimate of the `q`-quantile (`q` in `[0, 1]`): the upper bound
    /// of the bucket containing the rank-`ceil(q * count)` sample,
    /// clamped to the exact observed min/max. Zero if empty.
    pub fn quantile(&self, q: f64) -> u64 {
        HistAcc::of(self).quantile(q)
    }

    /// A point-in-time summary of this histogram.
    pub fn summary(&self) -> HistogramSummary {
        HistAcc::of(self).summary()
    }
}

/// A plain-data copy of a [`Histogram`]'s contents, read once so every
/// quantile of one summary comes from the same counts.
#[derive(Debug, Clone)]
struct HistAcc {
    buckets: [u64; BUCKETS],
    count: u64,
    sum: u64,
    /// `u64::MAX` sentinel while empty, like [`Histogram::min`].
    min: u64,
    max: u64,
}

impl HistAcc {
    fn of(h: &Histogram) -> Self {
        HistAcc {
            buckets: std::array::from_fn(|i| h.buckets[i].load(Ordering::Relaxed)),
            count: h.count(),
            sum: h.sum(),
            min: h.min.load(Ordering::Relaxed),
            max: h.max.load(Ordering::Relaxed),
        }
    }

    fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        // Guard the never-recorded sentinel: a concurrent recorder may
        // have bumped `count` before publishing `min`, and `clamp`
        // requires `lo <= hi`.
        let lo = if self.min == u64::MAX { 0 } else { self.min };
        let hi = self.max.max(lo);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return bucket_upper(i).clamp(lo, hi);
            }
        }
        self.max
    }

    fn summary(&self) -> HistogramSummary {
        HistogramSummary {
            count: self.count,
            sum: self.sum,
            mean: if self.count == 0 {
                0.0
            } else {
                self.sum as f64 / self.count as f64
            },
            p50: self.quantile(0.50),
            p95: self.quantile(0.95),
            p99: self.quantile(0.99),
            // Sentinel, not `count == 0`: a registered-but-never-recorded
            // histogram (and a snapshot racing a first `record`) must
            // report 0, never the `u64::MAX` sentinel.
            min: if self.min == u64::MAX { 0 } else { self.min },
            max: self.max,
        }
    }
}

/// Point-in-time statistics for one [`Histogram`].
#[derive(Debug, Clone, PartialEq, Default)]
pub struct HistogramSummary {
    /// Number of samples.
    pub count: u64,
    /// Sum of samples.
    pub sum: u64,
    /// Mean sample (0 when empty).
    pub mean: f64,
    /// Median estimate.
    pub p50: u64,
    /// 95th-percentile estimate.
    pub p95: u64,
    /// 99th-percentile estimate.
    pub p99: u64,
    /// Exact smallest sample (0 when empty).
    pub min: u64,
    /// Exact largest sample.
    pub max: u64,
}

/// Get-or-create storage for named counters and histograms.
#[derive(Debug, Default)]
pub struct Registry {
    counters: Mutex<BTreeMap<String, Arc<Counter>>>,
    histograms: Mutex<BTreeMap<String, Arc<Histogram>>>,
}

impl Registry {
    /// The counter named `name`, created on first use.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        let mut map = lock_unpoisoned(&self.counters);
        if let Some(c) = map.get(name) {
            return c.clone();
        }
        let c = Arc::new(Counter::default());
        map.insert(name.to_string(), c.clone());
        c
    }

    /// The histogram named `name`, created on first use.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        let mut map = lock_unpoisoned(&self.histograms);
        if let Some(h) = map.get(name) {
            return h.clone();
        }
        let h = Arc::new(Histogram::default());
        map.insert(name.to_string(), h.clone());
        h
    }

    /// Values of all metrics at this moment, sorted by name.
    pub fn snapshot(&self) -> Snapshot {
        Snapshot {
            counters: lock_unpoisoned(&self.counters)
                .iter()
                .map(|(k, v)| (k.clone(), v.get()))
                .collect(),
            histograms: lock_unpoisoned(&self.histograms)
                .iter()
                .map(|(k, v)| (k.clone(), v.summary()))
                .collect(),
        }
    }
}

/// A point-in-time copy of every registered metric.
#[derive(Debug, Clone, Default)]
pub struct Snapshot {
    /// Counter totals by name.
    pub counters: BTreeMap<String, u64>,
    /// Histogram summaries by name.
    pub histograms: BTreeMap<String, HistogramSummary>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let registry = Registry::default();
        let c = registry.counter("dab.recompute");
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        // Same name returns the same underlying counter.
        assert_eq!(registry.counter("dab.recompute").get(), 5);
        assert_eq!(registry.counter("other").get(), 0);
    }

    #[test]
    fn histogram_summary_tracks_exact_count_sum_min_max() {
        let h = Histogram::default();
        for v in [10u64, 20, 30, 40] {
            h.record(v);
        }
        let s = h.summary();
        assert_eq!(s.count, 4);
        assert_eq!(s.sum, 100);
        assert_eq!(s.min, 10);
        assert_eq!(s.max, 40);
        assert!((s.mean - 25.0).abs() < 1e-12);
    }

    #[test]
    fn quantiles_are_within_their_bucket() {
        let h = Histogram::default();
        // 1..=1000: true p50 = 500, p95 = 950, p99 = 990.
        for v in 1..=1000u64 {
            h.record(v);
        }
        let s = h.summary();
        // Power-of-two buckets: the estimate is the bucket upper bound,
        // so it is >= the true quantile and < 2x the true quantile.
        assert!((500..1000).contains(&s.p50), "p50 = {}", s.p50);
        assert!((950..=1000).contains(&s.p95), "p95 = {}", s.p95);
        assert!((990..=1000).contains(&s.p99), "p99 = {}", s.p99);
        assert!(s.p50 <= s.p95 && s.p95 <= s.p99);
    }

    #[test]
    fn quantiles_clamp_to_observed_range() {
        let h = Histogram::default();
        h.record(700);
        let s = h.summary();
        // A single sample: every quantile is exactly that sample, not
        // the bucket bound 1023.
        assert_eq!((s.p50, s.p95, s.p99), (700, 700, 700));
        assert_eq!((s.min, s.max), (700, 700));

        let empty = Histogram::default();
        let s = empty.summary();
        assert_eq!((s.count, s.p50, s.min, s.max), (0, 0, 0, 0));
        assert_eq!(s.mean, 0.0);
    }

    #[test]
    fn extreme_values_do_not_panic() {
        let h = Histogram::default();
        h.record(0);
        h.record(1);
        h.record(u64::MAX);
        let s = h.summary();
        assert_eq!(s.count, 3);
        assert_eq!(s.min, 0);
        assert_eq!(s.max, u64::MAX);
    }

    #[test]
    fn snapshot_collects_all_metrics() {
        let registry = Registry::default();
        registry.counter("a").add(3);
        registry.counter("b").add(1);
        registry.histogram("h").record(42);
        let snap = registry.snapshot();
        assert_eq!(snap.counters.get("a"), Some(&3));
        assert_eq!(snap.counters.get("b"), Some(&1));
        assert_eq!(snap.histograms.get("h").unwrap().count, 1);
        assert_eq!(snap.histograms.get("h").unwrap().max, 42);
    }

    #[test]
    fn registered_but_never_recorded_histogram_reports_zero_min() {
        let registry = Registry::default();
        let _h = registry.histogram("gp.solve_ns");
        let s = registry.snapshot();
        let summary = &s.histograms["gp.solve_ns"];
        assert_eq!(summary.count, 0);
        assert_eq!(summary.min, 0, "never the u64::MAX sentinel");
        assert_eq!(summary.max, 0);
    }

    #[test]
    fn panicking_thread_does_not_poison_the_telemetry_plane() {
        let obs = crate::Obs::null();
        let clone = obs.clone();
        let worker = std::thread::spawn(move || {
            // Recording from the doomed thread must survive the panic...
            clone.counter("sim.refresh").add(3);
            // ...and this panic fires while the `counters` mutex is
            // held, poisoning it the hard way.
            let _held = clone.inner.registry.counters.lock();
            panic!("worker dies holding the registry lock");
        });
        assert!(worker.join().is_err(), "worker must have panicked");
        // Every accessor and the snapshot keep working afterwards.
        obs.counter("sim.refresh").inc();
        obs.histogram("gp.solve_ns").record(10);
        let snap = obs.snapshot();
        assert_eq!(snap.counters["sim.refresh"], 4);
        assert_eq!(snap.histograms["gp.solve_ns"].count, 1);
    }
}
