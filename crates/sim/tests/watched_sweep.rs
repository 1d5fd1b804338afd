//! An engine holds only what its book reads: a run is projected onto
//! the read items before the engine is built, so an item nobody reads
//! costs nothing and changes nothing. Adding such items to the universe —
//! before, between or after the read ones — must not move a single
//! fixed-seed metric, and everything that leaves the engine (per-item
//! metrics, violation events, errors) must still carry global ids.
//!
//! * An item's draws are keyed by its global id, so renumbering the read
//!   items moves their delay streams. On a draw-free network (zero
//!   delays, no loss) a dense book (every item read: the configuration
//!   runs as it is, no projection) is the oracle for the same book
//!   scattered over a universe three times its size.
//! * Where draws happen, the read items keep their ids and the
//!   never-read ones go behind them.
//! * As a property: a random mixed book scattered at random over a larger
//!   universe on a delayed, lossy network equals the same universe with
//!   every never-read item frozen and read by a query of its own — which
//!   takes the unprojected path, ids and draws unchanged.
//!
//! The sweep reads rows that a read-ahead worker gathers from the traces.
//! In a debug build it asserts, for every item on every tick, that the
//! row holds the trace's sample bit for bit, so each run here checks the
//! gather; a read-only pass over the read items before tick 1 catches a
//! non-finite or negative sample.

use proptest::prelude::*;

use pq_ddm::{RateEstimator, Trace, TraceSet};
use pq_obs::{names, Obs, Value};
use pq_poly::{ItemId, PTerm, Polynomial, PolynomialQuery};
use pq_sim::{run, run_observed, DelayConfig, Pareto, SimConfig, SimError, SimMetrics};
use pq_workload::{WorkloadConfig, WorkloadGen};

const SEED: u64 = 0x1CDE_2008;
const TICKS: usize = 300;

/// A fig5-style book over a small universe: one connected component in
/// which (nearly) every item is read, on a network that draws nothing.
fn dense_config(n_items: usize, n_queries: usize) -> SimConfig {
    let traces = TraceSet::stock_universe(n_items, TICKS, SEED);
    let mut gen = WorkloadGen::with_config(
        WorkloadConfig {
            n_items,
            legs: 3..=4,
            ..WorkloadConfig::default()
        },
        SEED,
    );
    let queries = gen.portfolio_queries(n_queries, &traces.initial_values());
    let mut cfg = SimConfig::new(traces, queries);
    cfg.seed = SEED;
    cfg.delays = DelayConfig::zero();
    cfg
}

/// Independent banded portfolios on a service-free network.
fn banded_config(n_items: usize, n_queries: usize) -> SimConfig {
    let traces = TraceSet::stock_universe(n_items, TICKS, SEED);
    let mut gen = WorkloadGen::with_config(
        WorkloadConfig {
            n_items,
            ..WorkloadConfig::default()
        },
        SEED,
    );
    let queries = gen.banded_portfolio_queries(n_queries, &traces.initial_values());
    let mut cfg = SimConfig::new(traces, queries);
    cfg.seed = SEED;
    cfg.delays = DelayConfig {
        node_to_node: Pareto::with_mean(0.110),
        ..DelayConfig::zero()
    };
    cfg
}

/// `cfg` moved into a universe of `n_total` items: its item `i` becomes
/// item `place(i)` (`place` must be increasing, so the sweep order and
/// every polynomial's factor order survive), and every id no item lands
/// on is a never-read item with a live tape of its own.
fn padded(cfg: &SimConfig, n_total: usize, place: impl Fn(usize) -> usize) -> SimConfig {
    let mut tape = TraceSet::stock_universe(n_total, cfg.traces.n_ticks(), SEED ^ 0x0BAD)
        .traces()
        .to_vec();
    for i in 0..cfg.traces.n_items() {
        tape[place(i)] = cfg.traces.trace(i).clone();
    }
    let mut out = cfg.clone();
    out.traces = TraceSet::new(tape);
    out.queries = cfg
        .queries
        .iter()
        .map(|q| q.map_items(|i| ItemId(place(i.index()) as u32)))
        .collect();
    out
}

/// A padded run's metrics seen from the original `n`-item universe. The
/// never-read items' slots must be empty before they are dropped.
fn unpadded(mut m: SimMetrics, n: usize, place: impl Fn(usize) -> usize) -> SimMetrics {
    let keep = |all: &[u64]| -> Vec<u64> { (0..n).map(|i| all[place(i)]).collect() };
    let refreshes = keep(&m.per_item_refreshes);
    let triggers = keep(&m.per_item_recompute_triggers);
    assert_eq!(
        refreshes.iter().sum::<u64>(),
        m.refreshes,
        "a never-read item refreshed"
    );
    assert_eq!(
        triggers.iter().sum::<u64>(),
        m.per_item_recompute_triggers.iter().sum::<u64>(),
        "a never-read item triggered a recomputation"
    );
    m.per_item_refreshes = refreshes;
    m.per_item_recompute_triggers = triggers;
    m
}

/// Runs `cfg` and drops the wall-clock field.
fn metrics(cfg: &SimConfig) -> SimMetrics {
    let mut m = run(cfg).expect("run");
    assert!(m.refreshes > 0, "degenerate run");
    m.solver_seconds = 0.0;
    m
}

/// Never-read items before, between and after the read ones.
fn interleaved(i: usize) -> usize {
    3 * i + 1
}

#[test]
fn interleaved_never_read_items_change_no_metric_on_a_draw_free_network() {
    let n = 16;
    let dense = dense_config(n, 10);
    let scattered = padded(&dense, 3 * n + 2, interleaved);
    assert_eq!(
        metrics(&dense),
        unpadded(metrics(&scattered), n, interleaved)
    );
}

#[test]
fn trailing_never_read_items_change_no_metric_where_draws_happen() {
    let n = 96;
    for loss_probability in [0.0, 0.02] {
        let mut base = banded_config(n, 12);
        base.loss_probability = loss_probability;
        let longer = padded(&base, 2 * n, |i| i);
        assert_eq!(
            metrics(&base),
            unpadded(metrics(&longer), n, |i| i),
            "loss {loss_probability}"
        );
    }
}

/// Rates are estimated over the projection only. Both readers of a rate —
/// the per-query solve context and the joint AAO program — and both rate
/// estimators with a data-dependent value must see the numbers they see
/// when every trace is estimated: a padded universe's never-read items
/// (live tapes, real rates) still change no metric.
#[test]
fn never_read_items_change_no_metric_for_any_rate_reader() {
    use pq_ddm::DataDynamicsModel;
    use pq_sim::SimStrategy;

    let n = 16;
    let per_query = dense_config(n, 10).strategy;
    let variants = [
        (
            per_query,
            DataDynamicsModel::RandomWalk,
            RateEstimator::StepStd,
        ),
        (
            SimStrategy::AaoPeriodic {
                period_ticks: 100,
                mu: 5.0,
            },
            DataDynamicsModel::Monotonic,
            RateEstimator::SampledAverage { interval_ticks: 60 },
        ),
    ];
    for (strategy, ddm, rate_estimator) in variants {
        let mut dense = dense_config(n, 10);
        dense.strategy = strategy.clone();
        dense.ddm = ddm;
        dense.rate_estimator = rate_estimator;
        let scattered = padded(&dense, 3 * n + 2, interleaved);
        assert_eq!(
            metrics(&dense),
            unpadded(metrics(&scattered), n, interleaved),
            "{strategy:?} / {ddm} / {rate_estimator:?}"
        );
    }
}

/// `Trace::gbm` builds without `from_values`' checks, and a drift of
/// `e^700` per tick overflows at tick 2. Read by a query, such a tape is
/// refused before the first tick, naming the item by its global id; read
/// by nobody, it is never looked at.
#[test]
fn a_non_finite_sample_is_an_error_only_on_a_read_item() {
    let overflowing = Trace::gbm(1.0, 700.0, 0.0, TICKS, 1);
    assert_eq!(overflowing.at(2), f64::INFINITY);
    let n = 96;
    let base = banded_config(n, 12);
    let read = base.queries[7].items()[0].index();
    let run_with_bad = |item: usize| {
        let mut tape = base.traces.traces().to_vec();
        // One never-read item behind the book.
        tape.push(Trace::constant(1.0, TICKS));
        tape[item] = overflowing.clone();
        let mut cfg = base.clone();
        cfg.traces = TraceSet::new(tape);
        run(&cfg)
    };
    match run_with_bad(read) {
        Err(SimError::BadSample { item, tick: 2 }) => assert_eq!(item, read),
        other => panic!("{other:?}"),
    }
    assert!(run_with_bad(n).is_ok());
}

/// A book of constants reads no item: the projection is an empty
/// universe, which still keeps the run's clock. Every tick is sampled,
/// nothing refreshes and nothing can violate.
#[test]
fn a_book_that_reads_no_item_still_samples_every_tick() {
    let constant = |c: f64| {
        let poly = Polynomial::from_terms([PTerm::constant(c).unwrap()]);
        PolynomialQuery::new(poly, 1.0).unwrap()
    };
    let traces = TraceSet::stock_universe(5, TICKS, SEED);
    for queries in [
        vec![constant(3.0), constant(40.0), constant(0.5)],
        Vec::new(),
    ] {
        let cfg = SimConfig::new(traces.clone(), queries);
        let m = run(&cfg).expect("run");
        let mut want = SimMetrics::with_items(cfg.queries.len(), 5);
        want.fidelity_samples = TICKS as u64 - 1;
        assert_eq!(
            SimMetrics {
                solver_seconds: 0.0,
                ..m
            },
            want,
            "{} queries",
            cfg.queries.len()
        );
    }
}

/// Disjoint groups of 4–6 items, each read by its own one to three
/// portfolio and arbitrage queries of 2–3 legs: a mixed book of several
/// components. Some items of a group may go unread.
fn grouped_book(group_sizes: &[usize], seed: u64) -> SimConfig {
    let n_items: usize = group_sizes.iter().sum();
    let traces = TraceSet::stock_universe(n_items, PROP_TICKS, seed);
    let initial = traces.initial_values();
    let mut queries = Vec::new();
    let mut first = 0;
    for (g, &size) in group_sizes.iter().enumerate() {
        let workload = WorkloadConfig {
            n_items: size,
            legs: 2..=3,
            ..WorkloadConfig::default()
        };
        let mut gen = WorkloadGen::with_config(workload, seed ^ g as u64);
        let values = &initial[first..first + size];
        let mut group = gen.portfolio_queries(1 + g % 2, values);
        group.extend(gen.arbitrage_queries(g % 3 % 2, values, false));
        let shift = |i: ItemId| ItemId(i.0 + first as u32);
        queries.extend(group.iter().map(|q| q.map_items(shift)));
        first += size;
    }
    let mut cfg = SimConfig::new(traces, queries);
    cfg.seed = seed;
    // A tape of 120 ticks holds six 20-tick rate samples, not one.
    cfg.rate_estimator = RateEstimator::SampledAverage { interval_ticks: 20 };
    cfg.delays = DelayConfig {
        node_to_node: Pareto::with_mean(0.110),
        ..DelayConfig::zero()
    };
    cfg
}

const PROP_TICKS: usize = 120;

/// `cfg` with every item no query reads frozen at 1.0 and read, two at a
/// time, by trailing queries of one leg each: the same universe, ids and
/// draw streams, but nothing left to project away — and since a frozen
/// item never escapes a filter, nothing the trailing queries add ever
/// sends a message, draws, or shows in a metric.
fn with_every_item_read(cfg: &SimConfig) -> SimConfig {
    let mut read = vec![false; cfg.traces.n_items()];
    for item in cfg.queries.iter().flat_map(PolynomialQuery::items) {
        read[item.index()] = true;
    }
    let unread: Vec<u32> = (0..read.len() as u32)
        .filter(|&i| !read[i as usize])
        .collect();
    let mut tape = cfg.traces.traces().to_vec();
    let mut out = cfg.clone();
    for pair in unread.chunks(2) {
        let (a, b) = (pair[0], pair[pair.len() - 1]);
        tape[a as usize] = Trace::constant(1.0, PROP_TICKS);
        tape[b as usize] = Trace::constant(1.0, PROP_TICKS);
        let leg = (1.0, ItemId(a), ItemId(b));
        out.queries
            .push(PolynomialQuery::portfolio([leg], 1.0).unwrap());
    }
    out.traces = TraceSet::new(tape);
    out
}

/// Runs `cfg`: its metrics without the wall-clock field, seen from the
/// first `n_queries` queries, plus the `(query, tick)` log of violation
/// events.
fn observed(cfg: &SimConfig, n_queries: usize) -> (SimMetrics, Vec<(u64, u64)>) {
    let (obs, ring) = Obs::ring(1 << 17);
    let mut m = run_observed(cfg, &obs).expect("run");
    assert_eq!(ring.dropped(), 0, "ring too small for the event log");
    let field = |e: &pq_obs::Event, name: &str| match e.field(name) {
        Some(Value::U64(v)) => *v,
        other => panic!("violation event without {name}: {other:?}"),
    };
    let log: Vec<(u64, u64)> = ring
        .events()
        .iter()
        .filter(|e| e.target == names::SIM_QAB_VIOLATION)
        .map(|e| (field(e, "query"), field(e, "tick")))
        .collect();
    m.solver_seconds = 0.0;
    let extra = m.per_query_violations.split_off(n_queries);
    assert!(extra.iter().all(|&v| v == 0), "a frozen query violated");
    let extra = m.per_query_recomputations.split_off(n_queries);
    assert!(extra.iter().all(|&r| r == 0), "a frozen query recomputed");
    (m, log)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Projection parity: a random mixed book scattered over a larger
    /// universe — never-read items before, between and after the read
    /// ones — on a delayed, lossy network, against the same universe run
    /// unprojected ([`with_every_item_read`]). Metrics, per-item vectors
    /// at global ids and the violation log must agree; a bad sample is refused by its global id when the
    /// item is read and never looked at when it is not.
    #[test]
    fn a_scattered_book_runs_as_its_unprojected_universe(
        seed in 0u64..1 << 48,
        group_sizes in proptest::collection::vec(4usize..=6, 4..=6),
        gaps in proptest::collection::vec(0usize..=2, 36),
        lossy in 0u32..3,
        bad in 0usize..1 << 16,
    ) {
        let mut base = grouped_book(&group_sizes, seed);
        base.loss_probability = [0.0, 0.02, 0.3][lossy as usize];
        let n = base.traces.n_items();
        // Item i lands behind gaps[0..=i] never-read items; gaps[n..]
        // trail the book.
        let place = |i: usize| i + gaps[..=i].iter().sum::<usize>();
        let n_total = place(n - 1) + 1 + gaps[n..].iter().sum::<usize>();
        let scattered = padded(&base, n_total, place);
        let unprojected = with_every_item_read(&scattered);
        let n_queries = scattered.queries.len();
        let (want, want_log) = observed(&unprojected, n_queries);
        let (got, got_log) = observed(&scattered, n_queries);
        prop_assert!(got.refreshes > 0, "degenerate run");
        prop_assert_eq!(&got, &want);
        prop_assert_eq!(&got_log, &want_log);

        // One overflowing tape, under a read item and under a never-read
        // one (when the scatter left any).
        let overflowing = Trace::gbm(1.0, 700.0, 0.0, PROP_TICKS, 1);
        let read: Vec<usize> = scattered
            .queries
            .iter()
            .flat_map(|q| q.items())
            .map(|i| i.index())
            .collect();
        let with_bad_tape = |item: usize| {
            let mut tape = scattered.traces.traces().to_vec();
            tape[item] = overflowing.clone();
            let mut cfg = scattered.clone();
            cfg.traces = TraceSet::new(tape);
            run(&cfg)
        };
        let target = read[bad % read.len()];
        match with_bad_tape(target) {
            Err(SimError::BadSample { item, tick: 2 }) => prop_assert_eq!(item, target),
            other => prop_assert!(false, "{:?}", other),
        }
        if let Some(unread) = (0..n_total).find(|i| !read.contains(i)) {
            prop_assert!(with_bad_tape(unread).is_ok());
        }
    }
}
