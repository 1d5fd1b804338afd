//! The source plane is demand-driven: the engine sweeps only the items
//! some query reads. An item nobody reads holds no filter, so adding
//! such items to the universe — before, between or after the read ones
//! — must not move a single fixed-seed metric.
//!
//! * An item's draws are keyed by its id, so renumbering the read items
//!   moves their delay streams. On a draw-free network (zero delays, no
//!   loss) a dense book (every item read: the sweep visits the whole
//!   universe) is the oracle for the same book scattered over a universe
//!   three times its size.
//! * Where draws happen, the read items keep their ids and the
//!   never-read ones go behind them; the scattered book is checked
//!   against itself across shard counts instead.
//!
//! The sweep reads a tick-major copy of the watched traces made once per
//! engine. In a debug build it asserts, for every watched item on every
//! tick, that the copy holds the trace's sample bit for bit, so each run
//! here (one coordinator and two shards) checks the transposition; the
//! copy is also where a non-finite or negative sample is caught.

use pq_ddm::{Trace, TraceSet};
use pq_obs::Obs;
use pq_poly::ItemId;
use pq_sim::{run_sharded, DelayConfig, Pareto, SimConfig, SimError, SimMetrics};
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
    cfg.threads = 1;
    cfg.delays = DelayConfig::zero();
    cfg
}

/// Independent banded portfolios (clean partitions at any shard count)
/// on a service-free network — the regime cross-shard metric invariance
/// is defined over.
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
    cfg.threads = 1;
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

/// Runs `cfg` on `shards` shards and drops the wall-clock field; above
/// one shard also the per-coordinator batching count, which is not
/// invariant across shard counts.
fn metrics(cfg: &SimConfig, shards: usize) -> SimMetrics {
    let mut cfg = cfg.clone();
    cfg.shards = shards;
    let report = run_sharded(&cfg, &Obs::null()).expect("run");
    let mut m = report.metrics;
    assert!(m.refreshes > 0, "degenerate run");
    m.solver_seconds = 0.0;
    if shards > 1 {
        assert_eq!(report.cross_edges, 0, "banded books split cleanly");
        m.ingest_batches = 0;
    }
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
        metrics(&dense, 1),
        unpadded(metrics(&scattered, 1), n, interleaved)
    );
}

#[test]
fn trailing_never_read_items_change_no_metric_where_draws_happen() {
    let n = 96;
    for loss_probability in [0.0, 0.02] {
        let mut base = banded_config(n, 12);
        base.loss_probability = loss_probability;
        let longer = padded(&base, 2 * n, |i| i);
        for shards in [1, 2] {
            assert_eq!(
                metrics(&base, shards),
                unpadded(metrics(&longer, shards), n, |i| i),
                "loss {loss_probability}, {shards} shard(s)"
            );
        }
    }
}

#[test]
fn a_scattered_book_is_invariant_across_shard_counts() {
    let n = 96;
    for loss_probability in [0.0, 0.02] {
        let mut base = banded_config(n, 12);
        base.loss_probability = loss_probability;
        let scattered = padded(&base, 3 * n + 2, interleaved);
        let mut one = metrics(&scattered, 1);
        one.ingest_batches = 0;
        assert_eq!(one, metrics(&scattered, 2), "loss {loss_probability}");
    }
}

/// Rates are estimated for watched items only. Both readers of a rate —
/// the per-query solve context and the joint AAO program — and both rate
/// estimators with a data-dependent value must see the numbers they saw
/// when every trace was estimated: a padded universe's never-read items
/// (live tapes, real rates) still change no metric.
#[test]
fn never_read_items_change_no_metric_for_any_rate_reader() {
    use pq_ddm::{DataDynamicsModel, RateEstimator};
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
            metrics(&dense, 1),
            unpadded(metrics(&scattered, 1), n, interleaved),
            "{strategy:?} / {ddm} / {rate_estimator:?}"
        );
    }
}

/// `Trace::gbm` builds without `from_values`' checks, and a drift of
/// `e^700` per tick overflows at tick 2. Read by a query, such a tape is
/// refused before the first tick, naming the item by its global id at any
/// shard count; read by nobody, it is never looked at.
#[test]
fn a_non_finite_sample_is_an_error_only_on_a_watched_item() {
    let overflowing = Trace::gbm(1.0, 700.0, 0.0, TICKS, 1);
    assert_eq!(overflowing.at(2), f64::INFINITY);
    let n = 96;
    let base = banded_config(n, 12);
    let read = base.queries[7].items()[0].index();
    for shards in [1, 2] {
        let run = |item: usize| {
            let mut tape = base.traces.traces().to_vec();
            // One never-read item behind the book.
            tape.push(Trace::constant(1.0, TICKS));
            tape[item] = overflowing.clone();
            let mut cfg = base.clone();
            cfg.traces = TraceSet::new(tape);
            cfg.shards = shards;
            run_sharded(&cfg, &Obs::null()).map(|report| report.metrics)
        };
        match run(read) {
            Err(SimError::BadSample { item, tick: 2 }) => assert_eq!(item, read),
            other => panic!("{shards} shard(s): {other:?}"),
        }
        assert!(run(n).is_ok(), "{shards} shard(s)");
    }
}
