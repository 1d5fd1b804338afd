//! Fixed-seed parity between the classic single-coordinator engine and
//! the partitioned multi-coordinator engine (DESIGN.md §13):
//!
//! * `shards = 1` through the sharded entry point is **byte-identical**
//!   to the classic engine — metrics and the QAB-violation event log;
//! * with service-free delays (the banded "large book" workload, many
//!   components), fixed-seed metrics and the violation log are
//!   invariant across shard counts with nothing set but `shards` (only
//!   `ingest_batches` — a per-coordinator artifact — and
//!   `solver_seconds` — wall clock — may differ);
//! * a book of one connected component runs whole on one shard, so under
//!   the default delays (service times on) its fixed-seed metrics equal
//!   the one-shard run's at any shard count.

use pq_ddm::TraceSet;
use pq_obs::{names, Obs, Value};
use pq_sim::{run_observed, run_sharded, DelayConfig, Pareto, SimConfig, SimMetrics};
use pq_workload::{WorkloadConfig, WorkloadGen};

const SEED: u64 = 0x1CDE_2008;

/// The "large book": many independent banded portfolios over one stock
/// universe. Partitions cleanly at any shard count that divides the
/// component count.
fn banded_config(n_items: usize, n_queries: usize, n_ticks: usize) -> SimConfig {
    let traces = TraceSet::stock_universe(n_items, n_ticks, SEED);
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
    cfg
}

/// Fig. 5 regime with service-free delays: the coordinator check/solve
/// occupancy is what legitimately differs between one shared coordinator
/// and K independent ones, so cross-K metric invariance is defined over
/// the service-free delay model.
fn cross_k_config(n_items: usize, n_queries: usize, n_ticks: usize) -> SimConfig {
    let mut cfg = banded_config(n_items, n_queries, n_ticks);
    let mut delays = DelayConfig::zero();
    delays.node_to_node = Pareto::with_mean(0.110);
    cfg.delays = delays;
    cfg.loss_probability = 0.02;
    cfg
}

/// The `(query, tick)` log of QAB violation events, in emission order.
fn violation_log(ring: &pq_obs::RingBufferSubscriber) -> Vec<(u64, u64)> {
    ring.events()
        .iter()
        .filter(|e| e.target == names::SIM_QAB_VIOLATION)
        .map(|e| {
            let q = match e.field("query") {
                Some(Value::U64(q)) => *q,
                other => panic!("violation event missing query: {other:?}"),
            };
            let t = match e.field("tick") {
                Some(Value::U64(t)) => *t,
                other => panic!("violation event missing tick: {other:?}"),
            };
            (q, t)
        })
        .collect()
}

fn without_wallclock(mut m: SimMetrics) -> SimMetrics {
    m.solver_seconds = 0.0;
    m
}

/// What must be invariant across shard counts: everything except the
/// per-coordinator batching artifact and wall clock.
fn cross_k_view(mut m: SimMetrics) -> SimMetrics {
    m.solver_seconds = 0.0;
    m.ingest_batches = 0;
    m
}

#[test]
fn one_shard_is_byte_identical_to_the_classic_engine() {
    let cfg = banded_config(48, 6, 300);

    let (obs_classic, ring_classic) = Obs::ring(65_536);
    let classic = run_observed(&cfg, &obs_classic).expect("classic run");

    let (obs_sharded, ring_sharded) = Obs::ring(65_536);
    let report = run_sharded(&cfg, &obs_sharded).expect("sharded run at k = 1");

    assert_eq!(
        without_wallclock(classic),
        without_wallclock(report.metrics),
        "shards = 1 must reproduce the classic engine exactly"
    );
    assert_eq!(
        violation_log(&ring_classic),
        violation_log(&ring_sharded),
        "shards = 1 must reproduce the violation event log exactly"
    );
    assert_eq!(report.shards.len(), 1);
}

#[test]
fn metrics_are_invariant_across_shard_counts_on_clean_partitions() {
    let base = cross_k_config(96, 12, 300);
    let mut baseline = None;
    for k in [1usize, 2, 4, 8] {
        let mut cfg = base.clone();
        cfg.shards = k;
        let obs = Obs::null();
        let report = run_sharded(&cfg, &obs)
            .unwrap_or_else(|e| panic!("sharded run failed at k = {k}: {e}"));
        let view = cross_k_view(report.metrics);
        assert!(view.refreshes > 0, "degenerate run at k = {k}");
        match &baseline {
            None => baseline = Some(view),
            Some(b) => assert_eq!(b, &view, "fixed-seed metrics must be invariant at k = {k}"),
        }
    }
}

#[test]
fn fidelity_and_violations_match_fig5_across_shard_counts() {
    // Shard threads interleave their emissions, so the violation logs
    // are compared as sorted `(query, tick)` sets.
    let sorted_log = |ring: &pq_obs::RingBufferSubscriber| {
        assert_eq!(ring.dropped(), 0, "ring too small for the event log");
        let mut log = violation_log(ring);
        log.sort_unstable();
        log
    };
    let mut base = cross_k_config(64, 8, 400);
    // Lossy enough that queries do go out of bound.
    base.loss_probability = 0.3;
    let (obs, ring1) = Obs::ring(65_536);
    let r1 = run_sharded(&base, &obs).expect("k = 1");
    let log1 = sorted_log(&ring1);
    assert!(!log1.is_empty(), "no violation to compare");
    for k in [2usize, 4] {
        let mut cfg = base.clone();
        cfg.shards = k;
        let (obs, ring) = Obs::ring(65_536);
        let r = run_sharded(&cfg, &obs).expect("k > 1");
        assert_eq!(
            log1,
            sorted_log(&ring),
            "the violation log must not depend on k (k = {k})"
        );
        assert_eq!(
            r1.metrics.fidelity_samples, r.metrics.fidelity_samples,
            "fidelity sample count must not depend on k"
        );
        assert_eq!(
            r1.metrics.per_query_violations, r.metrics.per_query_violations,
            "per-query violations must not depend on k (k = {k})"
        );
    }
}

#[test]
fn shared_eval_is_invariant_across_shard_counts() {
    // Each coordinator compiles a SharedPlan over its own partition
    // (and the partitioner packs by marginal shared-eval load):
    // fixed-seed metrics must still match the classic engine at k = 1
    // and stay invariant across shard counts.
    let base = cross_k_config(96, 12, 300);
    let obs = Obs::null();
    let classic = run_observed(&base, &obs).expect("classic shared run");
    let mut baseline = None;
    for k in [1usize, 2, 4] {
        let mut cfg = base.clone();
        cfg.shards = k;
        let obs = Obs::null();
        let report = run_sharded(&cfg, &obs)
            .unwrap_or_else(|e| panic!("sharded shared run failed at k = {k}: {e}"));
        let view = cross_k_view(report.metrics);
        assert!(view.refreshes > 0, "degenerate run at k = {k}");
        if k == 1 {
            assert_eq!(
                cross_k_view(classic.clone()),
                view,
                "shards = 1 must reproduce the classic shared-eval engine"
            );
        }
        match &baseline {
            None => baseline = Some(view),
            Some(b) => assert_eq!(b, &view, "fixed-seed metrics must be invariant at k = {k}"),
        }
    }
}

#[test]
fn a_one_component_book_runs_whole_at_any_shard_count() {
    // A fig5-style book: 6–7-leg portfolios over a small universe, so
    // every query shares items with others and the book is one connected
    // component. Under `SimConfig::new`'s delays (service times on) the
    // shard holding it must do exactly what one coordinator does.
    let n_items = 30;
    let traces = TraceSet::stock_universe(n_items, 300, SEED);
    let mut gen = WorkloadGen::with_config(
        WorkloadConfig {
            n_items,
            legs: 6..=7,
            ..WorkloadConfig::default()
        },
        SEED,
    );
    let queries = gen.portfolio_queries(40, &traces.initial_values());
    let mut cfg = SimConfig::new(traces, queries);
    cfg.seed = SEED;
    let one = run_sharded(&cfg, &Obs::null()).expect("k = 1");
    assert!(one.metrics.refreshes > 0 && one.metrics.recomputations > 0);
    for k in [2usize, 4] {
        cfg.shards = k;
        let report = run_sharded(&cfg, &Obs::null()).expect("k > 1");
        assert_eq!(report.n_components, 1, "the book must be one component");
        assert_eq!(report.shards.len(), k);
        assert_eq!(
            report.shards.iter().filter(|s| s.n_queries > 0).count(),
            1,
            "the component must land whole on one shard (k = {k})"
        );
        assert_eq!(
            without_wallclock(one.metrics.clone()),
            without_wallclock(report.metrics),
            "a one-component book must not depend on k (k = {k})"
        );
    }
}
