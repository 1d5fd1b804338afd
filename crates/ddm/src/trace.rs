//! Synthetic dynamic-data traces.
//!
//! The paper replays ~3 h (10,000 s) of real Yahoo! Finance stock traces
//! for 100 data items (§V-A). Real traces are unavailable offline, so this
//! module generates seeded synthetic equivalents: geometric Brownian motion
//! (stock-like), plain random walks, monotonic drifts and sinusoids. The
//! DAB machinery only consumes `(trace, estimated rate)` pairs, so these
//! preserve the behaviour under test (see DESIGN.md §2.3).
//!
//! All values are kept non-negative: the necessary-and-sufficient DAB
//! constraints assume data in the positive orthant (prices, rates, counts).
//!
//! A tape is a read-only input: every strategy replays the same one. A
//! [`Trace`] therefore holds its samples behind an [`Arc`], written once
//! when the path is built, and cloning a trace, a [`TraceSet`] or a
//! sub-universe copies handles, never samples.

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::parallel::{available_cores, chunked_map};

/// A per-tick time series for one data item.
///
/// Tick duration is abstract; the paper uses 1 s ticks over 10,000 s.
/// The samples are immutable and shared: `clone()` is a handle copy.
#[derive(Debug, Clone, PartialEq)]
pub struct Trace {
    values: Arc<[f64]>,
    /// The first tick whose sample is not finite and non-negative,
    /// noted when the trace is built.
    first_bad: Option<usize>,
}

/// Whether `v` is a sample the DAB machinery accepts.
fn is_good_sample(v: f64) -> bool {
    v.is_finite() && v >= 0.0
}

/// The first tick of `samples` that is not finite and non-negative.
fn scan_for_bad_sample(samples: &[f64]) -> Option<usize> {
    samples.iter().position(|&v| !is_good_sample(v))
}

impl Trace {
    /// Wraps raw samples (at least one; all finite and non-negative).
    ///
    /// # Panics
    /// Panics on empty input or non-finite / negative samples.
    pub fn from_values(values: Vec<f64>) -> Self {
        assert!(!values.is_empty(), "trace must have at least one sample");
        assert!(
            scan_for_bad_sample(&values).is_none(),
            "trace samples must be finite and non-negative"
        );
        Trace {
            values: values.into(),
            first_bad: None,
        }
    }

    /// Number of ticks.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True if the trace has no samples (never constructible; kept for
    /// API completeness).
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Value at `tick`, clamped to the final value beyond the end.
    pub fn at(&self, tick: usize) -> f64 {
        let i = tick.min(self.values.len() - 1);
        self.values[i]
    }

    /// The first sample.
    pub fn initial(&self) -> f64 {
        self.values[0]
    }

    /// All samples.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// The first tick whose sample is not finite and non-negative, if
    /// any: a generator whose path overflows builds such a trace
    /// (`from_values` refuses one). Read from a field, not the samples.
    pub fn first_bad_sample(&self) -> Option<usize> {
        self.first_bad
    }

    /// Geometric Brownian motion: `v_{t+1} = v_t * exp(mu + sigma * z)`,
    /// the standard stock-price model. `mu` is per-tick log drift, `sigma`
    /// per-tick log volatility.
    ///
    /// # Panics
    /// Panics unless `initial > 0` and `n_ticks > 0`.
    pub fn gbm(initial: f64, mu: f64, sigma: f64, n_ticks: usize, seed: u64) -> Self {
        assert!(
            initial > 0.0,
            "gbm: initial must be positive, got {initial}"
        );
        assert!(n_ticks > 0, "gbm: n_ticks must be at least 1");
        let mut rng = StdRng::seed_from_u64(seed);
        Trace::unfold(initial, n_ticks, |v| {
            v * (mu + sigma * standard_normal(&mut rng)).exp()
        })
    }

    /// Additive random walk with reflection at zero:
    /// `v_{t+1} = |v_t + step_std * z|`.
    ///
    /// # Panics
    /// Panics unless `initial >= 0` and `n_ticks > 0`.
    pub fn random_walk(initial: f64, step_std: f64, n_ticks: usize, seed: u64) -> Self {
        assert!(
            initial >= 0.0,
            "random_walk: initial must be non-negative, got {initial}"
        );
        assert!(n_ticks > 0, "random_walk: n_ticks must be at least 1");
        let mut rng = StdRng::seed_from_u64(seed);
        Trace::unfold(initial, n_ticks, |v| {
            (v + step_std * standard_normal(&mut rng)).abs()
        })
    }

    /// Monotonically increasing drift with non-negative jitter:
    /// `v_{t+1} = v_t + rate * (1 + jitter * u)`, `u ~ U[0,1)`.
    ///
    /// # Panics
    /// Panics unless `initial`, `rate` and `jitter` are non-negative and
    /// `n_ticks > 0`.
    pub fn monotonic(initial: f64, rate: f64, jitter: f64, n_ticks: usize, seed: u64) -> Self {
        assert!(
            initial >= 0.0,
            "monotonic: initial must be non-negative, got {initial}"
        );
        assert!(
            rate >= 0.0,
            "monotonic: rate must be non-negative, got {rate}"
        );
        assert!(
            jitter >= 0.0,
            "monotonic: jitter must be non-negative, got {jitter}"
        );
        assert!(n_ticks > 0, "monotonic: n_ticks must be at least 1");
        let mut rng = StdRng::seed_from_u64(seed);
        Trace::unfold(initial, n_ticks, |v| {
            v + rate * (1.0 + jitter * rng.gen::<f64>())
        })
    }

    /// The path `initial, step(initial), step(step(initial)), …` over
    /// `n_ticks` ticks, written straight into the buffer it is shared
    /// from: allocated once at its final size, filled in place before
    /// any second handle exists. (Collecting the samples into the `Arc`
    /// is one write a sample fewer and 3–5 % slower a sample; a `Vec`
    /// turned into an `Arc` copies the path.)
    fn unfold(initial: f64, n_ticks: usize, mut step: impl FnMut(f64) -> f64) -> Self {
        let mut values: Arc<[f64]> = (0..n_ticks).map(|_| 0.0).collect();
        let samples = Arc::get_mut(&mut values).expect("not yet shared");
        let mut v = initial;
        for sample in samples.iter_mut() {
            *sample = v;
            v = step(v);
        }
        // Every step `unfold` is given keeps a bad sample bad (a product
        // with a non-negative factor, a sum with a non-negative or an
        // absolute value: ∞ and NaN never turn finite, nothing turns
        // negative), so the last sample is good iff all are, and only a
        // bad path pays for a scan. A flag updated beside each sample
        // cost 10–13 % of a GBM path's build (2-vCPU Xeon).
        let first_bad = match samples.last() {
            Some(&last) if is_good_sample(last) => None,
            _ => scan_for_bad_sample(samples),
        };
        debug_assert_eq!(
            first_bad,
            scan_for_bad_sample(samples),
            "a step turned a bad sample good"
        );
        Trace { values, first_bad }
    }

    /// A sinusoid `center + amplitude * sin(2 pi t / period)`; useful for
    /// deterministic tests of filter escape behaviour.
    ///
    /// # Panics
    /// Panics unless `center >= amplitude >= 0` (values must stay
    /// non-negative).
    pub fn sinusoid(center: f64, amplitude: f64, period: f64, n_ticks: usize) -> Self {
        assert!(amplitude >= 0.0 && center >= amplitude && period > 0.0 && n_ticks > 0);
        let values: Arc<[f64]> = (0..n_ticks)
            .map(|t| center + amplitude * (2.0 * std::f64::consts::PI * t as f64 / period).sin())
            .collect();
        Trace {
            first_bad: scan_for_bad_sample(&values),
            values,
        }
    }

    /// A constant trace (no dynamics).
    pub fn constant(value: f64, n_ticks: usize) -> Self {
        assert!(value >= 0.0 && n_ticks > 0);
        Trace {
            values: (0..n_ticks).map(|_| value).collect(),
            first_bad: (!is_good_sample(value)).then_some(0),
        }
    }
}

/// Box–Muller standard normal; avoids pulling in `rand_distr`.
fn standard_normal(rng: &mut StdRng) -> f64 {
    loop {
        let u1: f64 = rng.gen();
        if u1 <= f64::MIN_POSITIVE {
            continue;
        }
        let u2: f64 = rng.gen();
        return (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
    }
}

/// Workers for a universe of this shape: one per available core, and
/// never more than the tape has chunks, so a one-chunk tape is built
/// inline. [`chunked_map`] lets the calling thread take the chunks a late
/// starter has not reached, so the tape waits for one chunk, or for a
/// start slower than the whole build.
fn universe_workers(n_items: usize, n_ticks: usize) -> usize {
    available_cores().min(n_items.div_ceil(chunk_items(n_ticks)))
}

/// The universes' argument check, on the calling thread and before any
/// worker starts, so a bad shape reads as what it is.
fn check_universe_shape(universe: &str, n_items: usize, n_ticks: usize) {
    assert!(n_items > 0, "{universe}: n_items must be at least 1");
    assert!(n_ticks > 0, "{universe}: n_ticks must be at least 1");
}

/// Samples in one chunk of items: about half a millisecond of path
/// building.
const CHUNK_SAMPLES: usize = 16 * 1024;

/// Items in a chunk of a tape `n_ticks` long.
fn chunk_items(n_ticks: usize) -> usize {
    (CHUNK_SAMPLES / n_ticks).max(1)
}

/// A set of traces, one per data item (item `i` uses trace `i`).
#[derive(Debug, Clone)]
pub struct TraceSet {
    traces: Vec<Trace>,
    /// Kept beside the traces: a [`TraceSet::subset`] of no item has none
    /// to read its length from.
    n_ticks: usize,
}

impl TraceSet {
    /// Wraps traces; all must have the same length.
    ///
    /// # Panics
    /// Panics on empty input or mismatched lengths.
    pub fn new(traces: Vec<Trace>) -> Self {
        assert!(!traces.is_empty(), "trace set must not be empty");
        let n_ticks = traces[0].len();
        assert!(
            traces.iter().all(|t| t.len() == n_ticks),
            "all traces must have equal length"
        );
        TraceSet { traces, n_ticks }
    }

    /// The paper's emulation setup: `n_items` stock-like GBM traces over
    /// `n_ticks` ticks with heterogeneous initial prices ($10–$200) and
    /// per-tick volatilities (0.02 %–0.2 %), seeded deterministically.
    ///
    /// A pure function of `(n_items, n_ticks, seed)`: a tape of more
    /// than one chunk (≈ 16 k samples) is built on every available core,
    /// bit for bit the tape one thread builds (DESIGN.md §2 item 3).
    ///
    /// # Panics
    /// Panics unless `n_items > 0` and `n_ticks > 0`.
    pub fn stock_universe(n_items: usize, n_ticks: usize, seed: u64) -> Self {
        check_universe_shape("stock_universe", n_items, n_ticks);
        Self::stock_universe_on(universe_workers(n_items, n_ticks), n_items, n_ticks, seed)
    }

    /// [`TraceSet::stock_universe`] on a given number of workers.
    fn stock_universe_on(workers: usize, n_items: usize, n_ticks: usize, seed: u64) -> Self {
        // The seed's own stream pays for the parameters only (three draws
        // an item, in item order); every path has its own generator.
        let mut rng = StdRng::seed_from_u64(seed);
        let params: Vec<(f64, f64, f64)> = (0..n_items)
            .map(|_| {
                let initial = 10.0 + 190.0 * rng.gen::<f64>();
                let sigma = 0.0002 + 0.0018 * rng.gen::<f64>();
                let mu = (rng.gen::<f64>() - 0.5) * 2e-5;
                (initial, mu, sigma)
            })
            .collect();
        TraceSet::new(chunked_map(workers, chunk_items(n_ticks), n_items, |i| {
            let (initial, mu, sigma) = params[i];
            let path_seed = seed ^ (i as u64).wrapping_mul(0x9e3779b9);
            Trace::gbm(initial, mu, sigma, n_ticks, path_seed)
        }))
    }

    /// A drift-dominated universe: each item rises monotonically at a
    /// heterogeneous per-tick rate (0.01 %–0.06 % of its initial price)
    /// with uniform jitter. This matches the paper's *monotonic*
    /// data-dynamics model; escape events from validity ranges
    /// synchronize across items, which is the regime where the paper's
    /// Fig. 8 heuristic comparison is run.
    ///
    /// Built like [`TraceSet::stock_universe`]: a pure function of its
    /// arguments, on every available core once it spans two chunks.
    ///
    /// # Panics
    /// Panics unless `n_items > 0` and `n_ticks > 0`.
    pub fn drifting_universe(n_items: usize, n_ticks: usize, seed: u64) -> Self {
        check_universe_shape("drifting_universe", n_items, n_ticks);
        Self::drifting_universe_on(universe_workers(n_items, n_ticks), n_items, n_ticks, seed)
    }

    /// [`TraceSet::drifting_universe`] on a given number of workers.
    fn drifting_universe_on(workers: usize, n_items: usize, n_ticks: usize, seed: u64) -> Self {
        // Two parameter draws an item, in item order, before any path.
        let mut rng = StdRng::seed_from_u64(seed);
        let params: Vec<(f64, f64)> = (0..n_items)
            .map(|_| {
                let initial = 10.0 + 190.0 * rng.gen::<f64>();
                let rate = initial * (0.0001 + 0.0005 * rng.gen::<f64>());
                (initial, rate)
            })
            .collect();
        TraceSet::new(chunked_map(workers, chunk_items(n_ticks), n_items, |i| {
            let (initial, rate) = params[i];
            let path_seed = seed ^ (i as u64).wrapping_mul(0x2545F491);
            Trace::monotonic(initial, rate, 1.0, n_ticks, path_seed)
        }))
    }

    /// Number of items.
    pub fn n_items(&self) -> usize {
        self.traces.len()
    }

    /// Number of ticks (uniform across items).
    pub fn n_ticks(&self) -> usize {
        self.n_ticks
    }

    /// The trace of item `i`.
    pub fn trace(&self, i: usize) -> &Trace {
        &self.traces[i]
    }

    /// All traces.
    pub fn traces(&self) -> &[Trace] {
        &self.traces
    }

    /// Snapshot of all values at `tick`.
    pub fn values_at(&self, tick: usize) -> Vec<f64> {
        self.traces.iter().map(|t| t.at(tick)).collect()
    }

    /// Initial values of all items.
    pub fn initial_values(&self) -> Vec<f64> {
        self.traces.iter().map(Trace::initial).collect()
    }

    /// A sub-universe over the given items, in the given order: local
    /// item `k` of the result replays the trace of global item
    /// `items[k]`. The simulator uses this to hand its engine a dense
    /// trace set for exactly the items it watches; with no item at all
    /// the result is an empty universe over the same ticks.
    ///
    /// # Panics
    /// Panics if any index is out of range.
    pub fn subset(&self, items: &[u32]) -> TraceSet {
        TraceSet {
            traces: items
                .iter()
                .map(|&i| self.traces[i as usize].clone())
                .collect(),
            n_ticks: self.n_ticks,
        }
    }
}

// Forces worker counts through the private `*_on` builders, which an
// integration target cannot reach: compiled here, kept beside the other
// test files (`autotests = false` in this crate's manifest).
#[cfg(test)]
#[path = "../tests/proptest_universe.rs"]
mod proptest_universe;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gbm_is_positive_and_seed_deterministic() {
        let a = Trace::gbm(100.0, 0.0, 0.01, 500, 7);
        let b = Trace::gbm(100.0, 0.0, 0.01, 500, 7);
        let c = Trace::gbm(100.0, 0.0, 0.01, 500, 8);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(a.values().iter().all(|&v| v > 0.0));
        assert_eq!(a.len(), 500);
        assert_eq!(a.initial(), 100.0);
    }

    #[test]
    fn random_walk_reflects_at_zero() {
        let t = Trace::random_walk(0.5, 5.0, 2000, 42);
        assert!(t.values().iter().all(|&v| v >= 0.0));
    }

    #[test]
    fn monotonic_never_decreases() {
        let t = Trace::monotonic(10.0, 0.1, 0.5, 1000, 3);
        for w in t.values().windows(2) {
            assert!(w[1] >= w[0]);
        }
    }

    #[test]
    fn sinusoid_stays_in_band() {
        let t = Trace::sinusoid(10.0, 2.0, 100.0, 1000);
        assert!(t.values().iter().all(|&v| (8.0..=12.0).contains(&v)));
    }

    /// Each generator notes the first sample a scan of its values would
    /// find not finite and non-negative.
    #[test]
    fn a_trace_knows_its_first_bad_sample() {
        let traces = [
            Trace::gbm(1.0, 700.0, 0.0, 5, 1),
            Trace::gbm(100.0, 0.0, 0.01, 50, 7),
            Trace::random_walk(1.0, 1e308, 50, 3),
            Trace::monotonic(1.0, 1e308, 1.0, 5, 2),
            Trace::sinusoid(f64::INFINITY, 1.0, 10.0, 5),
            Trace::sinusoid(f64::INFINITY, f64::INFINITY, 10.0, 5),
            Trace::sinusoid(10.0, 2.0, 100.0, 50),
            Trace::constant(f64::INFINITY, 3),
            Trace::constant(2.0, 3),
            Trace::from_values(vec![1.0, 2.0]),
        ];
        for t in &traces {
            assert_eq!(
                t.first_bad_sample(),
                scan_for_bad_sample(t.values()),
                "{:?}",
                &t.values()[..3]
            );
        }
        assert_eq!(traces[0].first_bad_sample(), Some(2));
        assert_eq!(traces[4].first_bad_sample(), Some(0));
        assert_eq!(traces[7].first_bad_sample(), Some(0));
        assert_eq!(traces[1].first_bad_sample(), None);
    }

    #[test]
    #[should_panic(expected = "center >= amplitude")]
    fn sinusoid_rejects_negative_excursions() {
        let _ = Trace::sinusoid(1.0, 2.0, 100.0, 10);
    }

    #[test]
    #[should_panic(expected = "gbm: initial must be positive")]
    fn gbm_names_a_bad_initial() {
        let _ = Trace::gbm(0.0, 0.0, 0.01, 10, 1);
    }

    #[test]
    #[should_panic(expected = "gbm: n_ticks must be at least 1")]
    fn gbm_names_an_empty_tape() {
        let _ = Trace::gbm(1.0, 0.0, 0.01, 0, 1);
    }

    #[test]
    #[should_panic(expected = "random_walk: initial must be non-negative")]
    fn random_walk_names_a_bad_initial() {
        let _ = Trace::random_walk(f64::NAN, 1.0, 10, 1);
    }

    #[test]
    #[should_panic(expected = "random_walk: n_ticks must be at least 1")]
    fn random_walk_names_an_empty_tape() {
        let _ = Trace::random_walk(1.0, 1.0, 0, 1);
    }

    #[test]
    #[should_panic(expected = "monotonic: rate must be non-negative")]
    fn monotonic_names_a_bad_rate() {
        let _ = Trace::monotonic(1.0, -0.1, 0.5, 10, 1);
    }

    #[test]
    #[should_panic(expected = "monotonic: jitter must be non-negative")]
    fn monotonic_names_a_bad_jitter() {
        let _ = Trace::monotonic(1.0, 0.1, -0.5, 10, 1);
    }

    #[test]
    #[should_panic(expected = "monotonic: n_ticks must be at least 1")]
    fn monotonic_names_an_empty_tape() {
        let _ = Trace::monotonic(1.0, 0.1, 0.5, 0, 1);
    }

    #[test]
    fn at_clamps_past_end() {
        let t = Trace::from_values(vec![1.0, 2.0, 3.0]);
        assert_eq!(t.at(0), 1.0);
        assert_eq!(t.at(2), 3.0);
        assert_eq!(t.at(99), 3.0);
    }

    #[test]
    fn stock_universe_shape_and_determinism() {
        let u = TraceSet::stock_universe(20, 100, 11);
        assert_eq!(u.n_items(), 20);
        assert_eq!(u.n_ticks(), 100);
        let v0 = u.initial_values();
        assert!(v0.iter().all(|&v| (10.0..=200.0).contains(&v)));
        let u2 = TraceSet::stock_universe(20, 100, 11);
        assert_eq!(u.values_at(50), u2.values_at(50));
    }

    #[test]
    #[should_panic(expected = "equal length")]
    fn trace_set_rejects_ragged_lengths() {
        TraceSet::new(vec![Trace::constant(1.0, 10), Trace::constant(1.0, 11)]);
    }
}
