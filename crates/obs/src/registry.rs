//! Metrics: monotonic counters and fixed-bucket latency histograms.
//!
//! Handles ([`Counter`], [`Histogram`]) are `Arc`s of atomics, so the
//! hot path is a relaxed fetch-add — no lock is held while recording.
//! The [`Registry`] map itself is only locked at handle-creation and
//! snapshot time.
//!
//! Counters additionally support one cheap **label dimension** for cost
//! attribution (e.g. `dab.recompute` broken down by `query`): a labeled
//! counter is obtained once per `(name, key, value)` triple — paying the
//! registry lock at setup — and is then a plain [`Counter`] on the hot
//! path. Each family holds at most [`LABEL_CAPACITY`] distinct label
//! values; later values share a single `_other` overflow counter so a
//! high-cardinality bug cannot balloon memory.

use std::collections::{BTreeMap, HashMap};
use std::fmt::{Display, Write as _};
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
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
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
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
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
    /// Records one sample.
    pub fn record(&self, v: u64) {
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

/// A last-write-wins floating-point level (e.g. `audit.drift_max`):
/// the one metric kind that may go down. Stored as `f64` bits in an
/// atomic, so `set` is a relaxed store and never locks.
#[derive(Debug, Default)]
pub struct Gauge {
    bits: AtomicU64,
}

impl Gauge {
    /// Sets the gauge to `v`.
    pub fn set(&self, v: f64) {
        self.bits.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Current value (0.0 until first set).
    pub fn get(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }
}

/// Maximum distinct label values per labeled-counter family; further
/// values fold into the [`LABEL_OVERFLOW`] counter.
pub const LABEL_CAPACITY: usize = 1024;

/// Label value under which out-of-capacity increments accumulate.
pub const LABEL_OVERFLOW: &str = "_other";

/// One labeled-counter family: a metric name with a single label key
/// (e.g. `dab.recompute` by `query`) and a bounded set of label values.
#[derive(Debug)]
struct LabeledFamily {
    key: String,
    /// Hashed, not ordered: a run resolves thousands of labels and reads
    /// them back once, into the ordered map of a snapshot.
    values: HashMap<String, Arc<Counter>>,
}

/// Get-or-create storage for named counters, histograms, and gauges.
#[derive(Debug, Default)]
pub struct Registry {
    counters: Mutex<BTreeMap<String, Arc<Counter>>>,
    histograms: Mutex<BTreeMap<String, Arc<Histogram>>>,
    labeled: Mutex<BTreeMap<String, LabeledFamily>>,
    gauges: Mutex<BTreeMap<String, Arc<Gauge>>>,
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

    /// The counters named `<prefix><id>` for each of `ids`, in order —
    /// what [`Registry::counter`] returns for each name, under one lock
    /// and with the names written into one reused buffer (a per-query
    /// series such as `sim.qab_violation.q<id>` is resolved thousands at
    /// a time).
    pub fn counters_indexed(
        &self,
        prefix: &str,
        ids: impl IntoIterator<Item = usize>,
    ) -> Vec<Arc<Counter>> {
        let mut map = lock_unpoisoned(&self.counters);
        let mut name = String::from(prefix);
        ids.into_iter()
            .map(|id| {
                name.truncate(prefix.len());
                write!(name, "{id}").expect("writing to a String");
                if let Some(c) = map.get(name.as_str()) {
                    return c.clone();
                }
                let c = Arc::new(Counter::default());
                map.insert(name.clone(), c.clone());
                c
            })
            .collect()
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

    /// The counter for `(name, key, value)` in the labeled family
    /// `name`, created on first use. The family's label key is fixed by
    /// its first caller; a mismatched key on a later call panics (a
    /// programming error — one family, one dimension).
    ///
    /// Obtain the handle once (setup path), then `inc()` it on the hot
    /// path — recording is the same relaxed fetch-add as a plain
    /// [`Counter`]. Past [`LABEL_CAPACITY`] distinct values the
    /// [`LABEL_OVERFLOW`] counter is returned instead.
    pub fn labeled_counter(&self, name: &str, key: &str, value: &str) -> Arc<Counter> {
        self.labeled_counters(name, key, [value])
            .pop()
            .expect("one label in, one counter out")
    }

    /// [`Registry::labeled_counter`] for each of `values`, in order: the
    /// handles that many single calls would return, with the lock taken
    /// and the family looked up once and the label text written into one
    /// reused buffer. An empty `values` registers nothing, not even the
    /// family.
    pub fn labeled_counters<V: Display>(
        &self,
        name: &str,
        key: &str,
        values: impl IntoIterator<Item = V>,
    ) -> Vec<Arc<Counter>> {
        let mut values = values.into_iter().peekable();
        if values.peek().is_none() {
            return Vec::new();
        }
        let mut map = lock_unpoisoned(&self.labeled);
        if !map.contains_key(name) {
            let family = LabeledFamily {
                key: key.to_string(),
                values: HashMap::new(),
            };
            map.insert(name.to_string(), family);
        }
        let family = map.get_mut(name).expect("just inserted");
        assert_eq!(
            family.key, key,
            "labeled counter {name:?} registered with key {:?}, asked for {key:?}",
            family.key
        );
        let mut label = String::new();
        let mut overflow: Option<Arc<Counter>> = None;
        values
            .map(|value| {
                label.clear();
                write!(label, "{value}").expect("writing to a String");
                // A value registered while the family had room keeps its
                // own counter however full the family is now.
                if let Some(c) = family.values.get(label.as_str()) {
                    return c.clone();
                }
                if family.values.len() >= LABEL_CAPACITY {
                    let shared = overflow.get_or_insert_with(|| {
                        let slot = family.values.entry(LABEL_OVERFLOW.to_string());
                        slot.or_default().clone()
                    });
                    return shared.clone();
                }
                let c = Arc::new(Counter::default());
                family.values.insert(label.clone(), c.clone());
                c
            })
            .collect()
    }

    /// The gauge named `name`, created on first use.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        let mut map = lock_unpoisoned(&self.gauges);
        if let Some(g) = map.get(name) {
            return g.clone();
        }
        let g = Arc::new(Gauge::default());
        map.insert(name.to_string(), g.clone());
        g
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
            labeled: lock_unpoisoned(&self.labeled)
                .iter()
                .map(|(k, fam)| {
                    (
                        k.clone(),
                        LabeledCounterSnapshot {
                            key: fam.key.clone(),
                            values: fam
                                .values
                                .iter()
                                .map(|(v, c)| (v.clone(), c.get()))
                                .collect(),
                        },
                    )
                })
                .collect(),
            gauges: lock_unpoisoned(&self.gauges)
                .iter()
                .map(|(k, g)| (k.clone(), g.get()))
                .collect(),
        }
    }
}

/// Point-in-time totals of one labeled-counter family.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LabeledCounterSnapshot {
    /// The family's label key, e.g. `query` or `item`.
    pub key: String,
    /// Totals per label value, sorted by value.
    pub values: BTreeMap<String, u64>,
}

impl LabeledCounterSnapshot {
    /// Sum across all label values (including overflow).
    pub fn total(&self) -> u64 {
        self.values.values().sum()
    }

    /// Totals reassembled into a dense vector for label values that are
    /// decimal indices `0..n` (the per-query / per-item convention);
    /// non-numeric and out-of-range labels are ignored.
    pub fn dense(&self, n: usize) -> Vec<u64> {
        let mut out = vec![0u64; n];
        for (value, &count) in &self.values {
            if let Ok(i) = value.parse::<usize>() {
                if i < n {
                    out[i] = count;
                }
            }
        }
        out
    }
}

/// A point-in-time copy of every registered metric.
#[derive(Debug, Clone, Default)]
pub struct Snapshot {
    /// Counter totals by name.
    pub counters: BTreeMap<String, u64>,
    /// Histogram summaries by name.
    pub histograms: BTreeMap<String, HistogramSummary>,
    /// Labeled-counter families by name (see [`Registry::labeled_counter`]).
    pub labeled: BTreeMap<String, LabeledCounterSnapshot>,
    /// Gauge levels by name (see [`Registry::gauge`]).
    pub gauges: BTreeMap<String, f64>,
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
    fn labeled_counters_accumulate_per_value() {
        let registry = Registry::default();
        registry
            .labeled_counter("dab.recompute", "query", "0")
            .inc();
        registry
            .labeled_counter("dab.recompute", "query", "1")
            .add(4);
        // Same (name, value) returns the same underlying counter.
        registry
            .labeled_counter("dab.recompute", "query", "0")
            .inc();
        let snap = registry.snapshot();
        let fam = &snap.labeled["dab.recompute"];
        assert_eq!(fam.key, "query");
        assert_eq!(fam.values["0"], 2);
        assert_eq!(fam.values["1"], 4);
        assert_eq!(fam.total(), 6);
        assert_eq!(fam.dense(3), vec![2, 4, 0]);
    }

    #[test]
    fn labeled_counters_overflow_into_other() {
        let registry = Registry::default();
        for i in 0..LABEL_CAPACITY + 10 {
            registry
                .labeled_counter("hot", "item", &i.to_string())
                .inc();
        }
        let snap = registry.snapshot();
        let fam = &snap.labeled["hot"];
        // Capacity distinct values plus one shared overflow slot.
        assert_eq!(fam.values.len(), LABEL_CAPACITY + 1);
        assert_eq!(fam.values[LABEL_OVERFLOW], 10);
        assert_eq!(fam.total(), (LABEL_CAPACITY + 10) as u64);
    }

    #[test]
    fn batch_registration_returns_what_single_calls_return() {
        // Two registries fed the same labels, one call at a time and in
        // batches: past capacity, with repeats, and with a label that got
        // its own slot before the family filled up.
        let rounds: [Vec<usize>; 3] = [
            (0..LABEL_CAPACITY - 1).collect(),
            vec![5, LABEL_CAPACITY + 7, 5, LABEL_CAPACITY + 7, 1],
            (LABEL_CAPACITY - 3..LABEL_CAPACITY + 3).collect(),
        ];
        let (single, batch) = (Registry::default(), Registry::default());
        assert!(batch.labeled_counters("m", "item", [0usize; 0]).is_empty());
        assert!(batch.snapshot().labeled.is_empty(), "nothing to register");
        for (round, ids) in rounds.iter().enumerate() {
            let one_by_one: Vec<_> = ids
                .iter()
                .map(|i| single.labeled_counter("m", "item", &i.to_string()))
                .collect();
            let together = batch.labeled_counters("m", "item", ids);
            for (k, (a, b)) in one_by_one.iter().zip(&together).enumerate() {
                a.add((round * 10_000 + k) as u64);
                b.add((round * 10_000 + k) as u64);
            }
            let plain: Vec<_> = ids
                .iter()
                .map(|i| single.counter(&format!("v.q{i}")))
                .collect();
            let indexed = batch.counters_indexed("v.q", ids.iter().copied());
            for (a, b) in plain.iter().zip(&indexed) {
                a.inc();
                b.inc();
            }
        }
        let (single, batch) = (single.snapshot(), batch.snapshot());
        assert_eq!(single.labeled, batch.labeled);
        assert_eq!(single.counters, batch.counters);
        assert_eq!(single.labeled["m"].values.len(), LABEL_CAPACITY + 1);
    }

    #[test]
    #[should_panic(expected = "registered with key")]
    fn labeled_counter_key_mismatch_panics() {
        let registry = Registry::default();
        registry.labeled_counter("m", "query", "0");
        registry.labeled_counter("m", "item", "0");
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
    fn gauges_snapshot_last_written_value() {
        let registry = Registry::default();
        let g = registry.gauge("audit.drift_max");
        assert_eq!(g.get(), 0.0);
        g.set(0.25);
        g.set(0.125); // gauges may go down
        registry.gauge("audit.fidelity_loss_pct").set(1.5);
        let s = registry.snapshot();
        assert_eq!(s.gauges["audit.drift_max"], 0.125);
        assert_eq!(s.gauges["audit.fidelity_loss_pct"], 1.5);
    }

    #[test]
    fn panicking_thread_does_not_poison_the_telemetry_plane() {
        let obs = crate::Obs::null();
        obs.labeled_counter("m", "query", "0").inc();
        let clone = obs.clone();
        let worker = std::thread::spawn(move || {
            // Recording from the doomed thread must survive the panic...
            clone.counter("sim.refresh").add(3);
            // ...and this key-mismatch panic fires while the `labeled`
            // mutex is held, poisoning it the hard way.
            clone.labeled_counter("m", "item", "0");
        });
        assert!(worker.join().is_err(), "worker must have panicked");
        // Every accessor and the snapshot keep working afterwards.
        obs.labeled_counter("m", "query", "1").add(4);
        obs.counter("sim.refresh").inc();
        obs.histogram("gp.solve_ns").record(10);
        obs.gauge("audit.drift_max").set(0.5);
        let snap = obs.snapshot();
        assert_eq!(snap.counters["sim.refresh"], 4);
        assert_eq!(snap.labeled["m"].values["1"], 4);
        assert_eq!(snap.histograms["gp.solve_ns"].count, 1);
        assert_eq!(snap.gauges["audit.drift_max"], 0.5);
    }
}
