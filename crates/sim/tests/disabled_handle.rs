//! A run nobody can observe records nothing, and that changes no result:
//! [`pq_sim::run`] and [`pq_sim::run_network`] build on
//! [`Obs::disabled`], so each must return what the same run on a live
//! [`Obs::null`] handle returns, in every field but the wall-clock
//! `solver_seconds`, on books shaped like the benchmark's (a fig5 book,
//! an overlapping one, a banded one with loss on), with the fidelity
//! audit configured, on one shard and on two. The
//! disabled handle itself ends a run with an empty snapshot.

use pq_core::AssignmentStrategy;
use pq_ddm::TraceSet;
use pq_obs::Obs;
use pq_sim::{
    run, run_network, run_network_observed, run_observed, AuditConfig, NetworkConfig, SimConfig,
    SimMetrics,
};
use pq_workload::{WorkloadConfig, WorkloadGen};

const SEED: u64 = 0x1CDE_2008;

#[derive(Debug, Clone, Copy)]
enum Book {
    Fig5,
    Overlap,
    Banded,
}

/// A small book of `shape` over a stock universe, audited; the banded
/// one loses messages.
fn config(shape: Book) -> SimConfig {
    let (n_items, n_queries, n_ticks, legs) = match shape {
        Book::Fig5 => (40, 30, 400, 6..=7),
        Book::Overlap => (40, 60, 400, 3..=4),
        Book::Banded => (400, 24, 200, 3..=4),
    };
    let traces = TraceSet::stock_universe(n_items, n_ticks, SEED ^ shape as u64);
    let initial = traces.initial_values();
    let mut gen = WorkloadGen::with_config(
        WorkloadConfig {
            n_items,
            legs,
            // Tighter than the paper's 1 %, so a short tape recomputes.
            ppq_qab_fraction: 0.002,
            ..WorkloadConfig::default()
        },
        SEED,
    );
    let queries = match shape {
        Book::Fig5 => gen.portfolio_queries(n_queries, &initial),
        Book::Overlap => gen.overlapping_book(n_queries, 0.9, &initial),
        Book::Banded => gen.banded_portfolio_queries(n_queries, &initial),
    };
    let mut cfg = SimConfig::new(traces, queries);
    cfg.seed = SEED;
    cfg.audit = Some(AuditConfig::default());
    if matches!(shape, Book::Banded) {
        cfg.loss_probability = 0.02;
    }
    cfg
}

fn without_wallclock(mut m: SimMetrics) -> SimMetrics {
    m.solver_seconds = 0.0;
    m
}

#[test]
fn run_returns_what_a_run_on_a_live_handle_returns() {
    for shape in [Book::Fig5, Book::Overlap, Book::Banded] {
        for shards in [1, 2] {
            let mut cfg = config(shape);
            cfg.shards = shards;
            let quiet = run(&cfg).unwrap();
            let live = Obs::null();
            let observed = run_observed(&cfg, &live).unwrap();
            assert!(
                quiet.refreshes > 0 && quiet.recomputations > 0,
                "{shape:?}: nothing moved"
            );
            assert_eq!(
                without_wallclock(quiet),
                without_wallclock(observed),
                "{shape:?} at {shards} shard(s)"
            );
            let audited = live.snapshot().counters[pq_obs::names::AUDIT_SAMPLE];
            assert!(audited > 0, "{shape:?}: no audit");
        }
    }
}

#[test]
fn run_network_returns_what_a_run_on_a_live_handle_returns() {
    let cfg = config(Book::Fig5);
    let net = NetworkConfig::round_robin(
        cfg.traces,
        cfg.queries,
        3,
        AssignmentStrategy::DualDab { mu: 5.0 },
    );
    let mut quiet = run_network(&net).unwrap();
    let mut observed = run_network_observed(&net, &Obs::null()).unwrap();
    assert!(quiet.refreshes() > 0);
    quiet.solver_seconds = 0.0;
    observed.solver_seconds = 0.0;
    assert_eq!(quiet, observed);
}

#[test]
fn a_disabled_handle_ends_a_run_with_an_empty_snapshot() {
    for shards in [1, 2] {
        let mut cfg = config(Book::Overlap);
        cfg.shards = shards;
        let obs = Obs::disabled();
        run_observed(&cfg, &obs).unwrap();
        let snap = obs.snapshot();
        assert_eq!(
            (snap.counters.len(), snap.histograms.len()),
            (0, 0),
            "{snap:?}"
        );
    }
}
