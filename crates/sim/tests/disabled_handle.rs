//! A run nobody can observe records nothing, and that changes no result:
//! [`pq_sim::run`] builds on [`Obs::disabled`], so it must return what
//! the same run on a live [`Obs::null`] handle returns, in every field
//! but the wall-clock `solver_seconds`, on books shaped like the
//! benchmark's (a fig5 book, an overlapping one, a banded one with loss
//! on), with the fidelity audit configured, on one coordinator or a tree
//! of them. The disabled handle itself ends a run with an empty snapshot.
//! The same fig5 book on a tree keeps Condition 1 at zero delay.
//!
//! What observing costs is clocked on a book of pqbench's `fig5_paper`
//! size: the ceilings are `#[ignore]`d (CI: `cargo test --release -p
//! pq-sim --test disabled_handle -- --ignored`).

use std::num::NonZeroUsize;
use std::sync::Arc;
use std::time::Instant;

use pq_core::{AssignmentStrategy, PqHeuristic};
use pq_ddm::{Trace, TraceSet};
use pq_obs::{names, Obs, Recorder, RecorderConfig, Value};
use pq_poly::{ItemId, PolynomialQuery};
use pq_sim::{run, run_observed, AuditConfig, DelayConfig, SimConfig, SimMetrics, SimStrategy};
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
    // QABs tighter than the paper's 1 %, so a short tape recomputes: the
    // banded book's tightest, since most of its units only re-anchor.
    // The fig5 book's tape is the longest: re-anchored down to their
    // floors, its units re-solve nothing in 400 ticks and 9 times in
    // 1 200.
    let (n_items, n_queries, n_ticks, legs, ppq_qab_fraction) = match shape {
        Book::Fig5 => (40, 30, 1200, 6..=7, 0.002),
        Book::Overlap => (40, 60, 400, 3..=4, 0.002),
        Book::Banded => (400, 24, 200, 3..=4, 0.0002),
    };
    let traces = TraceSet::stock_universe(n_items, n_ticks, SEED ^ shape as u64);
    let initial = traces.initial_values();
    let mut gen = WorkloadGen::with_config(
        WorkloadConfig {
            n_items,
            legs,
            ppq_qab_fraction,
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
        let cfg = config(shape);
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
            "{shape:?}"
        );
        let audited = live.snapshot().counters[pq_obs::names::AUDIT_SAMPLE];
        assert!(audited > 0, "{shape:?}: no audit");
    }
}

fn tree(n: usize) -> NonZeroUsize {
    NonZeroUsize::new(n).unwrap()
}

#[test]
fn a_tree_run_returns_what_a_run_on_a_live_handle_returns() {
    let mut cfg = config(Book::Fig5);
    cfg.coordinators = tree(3);
    let quiet = run(&cfg).unwrap();
    let observed = run_observed(&cfg, &Obs::null()).unwrap();
    assert!(quiet.refreshes > 0 && quiet.recomputations > 0);
    assert_eq!(without_wallclock(quiet), without_wallclock(observed));
}

/// Three items under six two-leg products of growing QAB.
fn small_tree_book() -> SimConfig {
    let traces = TraceSet::new(vec![
        Trace::sinusoid(20.0, 3.0, 400.0, 800),
        Trace::sinusoid(10.0, 2.0, 300.0, 800),
        Trace::sinusoid(15.0, 2.5, 350.0, 800),
    ]);
    let queries = (0..6)
        .map(|k| {
            let (a, b) = [(0, 1), (1, 2), (0, 2)][k % 3];
            let leg = (1.0 + k as f64, ItemId(a), ItemId(b));
            PolynomialQuery::portfolio([leg], 20.0 + k as f64).unwrap()
        })
        .collect();
    SimConfig::new(traces, queries)
}

/// `cfg` on the first `ticks` ticks of its tape.
fn first_ticks(mut cfg: SimConfig, ticks: usize) -> SimConfig {
    let prefix = |t: &Trace| Trace::from_values(t.values()[..ticks].to_vec());
    cfg.traces = TraceSet::new(cfg.traces.traces().iter().map(prefix).collect());
    cfg
}

/// Condition 1 holds on every node of a tree: with no delay and no loss,
/// every item within its filter at every node keeps every query within
/// its QAB at every sample, under every strategy and heuristic and under
/// AAO-T, and the audit finds every node's delta plane equal to naive
/// evaluation. The fig5 book plays its first 30 ticks: the per-item
/// split re-solves every refresh by bisection, at ~0.3 ms a solve.
#[test]
fn a_tree_at_zero_delay_never_violates_a_qab() {
    let heuristics = [PqHeuristic::DifferentSum, PqHeuristic::HalfAndHalf];
    let mut strategies: Vec<SimStrategy> = [
        AssignmentStrategy::OptimalRefresh,
        AssignmentStrategy::DualDab { mu: 5.0 },
        AssignmentStrategy::PerItemSplit,
        AssignmentStrategy::EqualDab,
    ]
    .into_iter()
    .flat_map(|strategy| {
        (heuristics.into_iter()).map(move |heuristic| SimStrategy::PerQuery {
            strategy,
            heuristic,
        })
    })
    .collect();
    // Every node's joint re-solve, on the short tapes' middle tick.
    strategies.push(SimStrategy::AaoPeriodic {
        period_ticks: 20,
        mu: 5.0,
    });
    for (name, book) in [
        ("small", small_tree_book()),
        ("fig5", first_ticks(config(Book::Fig5), 30)),
    ] {
        for n in 2..=4 {
            for strategy in &strategies {
                let mut cfg = book.clone();
                cfg.coordinators = tree(n);
                cfg.delays = DelayConfig::zero();
                cfg.strategy = strategy.clone();
                cfg.audit = Some(AuditConfig {
                    every: 1,
                    sample: cfg.queries.len(),
                    ..AuditConfig::default()
                });
                let obs = Obs::null();
                let m = run_observed(&cfg, &obs).unwrap();
                let case = format!("{name}, {n} nodes, {strategy:?}");
                assert!(m.refreshes > 0, "{case}: nothing moved");
                assert!(
                    m.per_query_violations.iter().all(|&v| v == 0),
                    "{case}: {:?}",
                    m.per_query_violations
                );
                let snap = obs.snapshot();
                assert!(snap.counters[names::AUDIT_SAMPLE] > 0, "{case}");
                assert_eq!(snap.counters[names::AUDIT_DIVERGENCE], 0, "{case}");
            }
        }
    }
}

/// A tree under heavy-tailed delays and 5 % loss runs to the end, the
/// same for one seed, and loses messages. A child hears only what the
/// root forwards it, a part of what the root ingests, so by the
/// `sim.refresh` counts of each `node` the root ingests at least as many
/// refreshes as each child.
#[test]
fn a_delayed_lossy_tree_is_deterministic_and_the_root_sees_the_most() {
    let mut cfg = small_tree_book();
    cfg.coordinators = tree(3);
    cfg.delays = DelayConfig::planetlab_like();
    cfg.loss_probability = 0.05;
    let (obs, ring) = Obs::ring(1 << 16);
    let m = run_observed(&cfg, &obs).unwrap();
    assert_eq!(
        without_wallclock(m.clone()),
        without_wallclock(run(&cfg).unwrap())
    );
    assert!(m.lost_messages > 0 && m.recomputations > 0, "{m:?}");
    assert_eq!(ring.dropped(), 0, "the ring holds the whole run");
    let mut per_node = [0u64; 3];
    for e in ring
        .events()
        .iter()
        .filter(|e| e.target == names::SIM_REFRESH)
    {
        let (Some(&Value::U64(node)), Some(&Value::U64(n))) =
            (e.field("node"), e.field("refreshes"))
        else {
            panic!("{e:?} names no node or count")
        };
        per_node[node as usize] += n;
    }
    assert_eq!(per_node.iter().sum::<u64>(), m.refreshes);
    assert!(
        per_node[0] >= per_node[1] && per_node[0] >= per_node[2],
        "{per_node:?}"
    );
}

#[test]
fn a_disabled_handle_ends_a_run_with_an_empty_snapshot() {
    let obs = Obs::disabled();
    run_observed(&config(Book::Overlap), &obs).unwrap();
    let snap = obs.snapshot();
    assert_eq!(
        (snap.counters.len(), snap.histograms.len()),
        (0, 0),
        "{snap:?}"
    );
}

/// Instrumented ([`Obs::null`], the registry counts) over
/// [`Obs::disabled`], in percent (readings 0.7–4.4 % on a shared 2-vCPU
/// box).
const MAX_INSTRUMENTED_OVERHEAD_PCT: f64 = 5.0;
/// Recorded (an installed flight [`Recorder`] subscribed) over
/// instrumented, in percent (readings 4.0–6.8 %; 19.6–21.8 % while the
/// engine wrote an event per message).
const MAX_RECORDED_OVERHEAD_PCT: f64 = 8.0;

/// Median instrumented-over-disabled and recorded-over-instrumented
/// ratios, in percent, over `reps` repetitions of three interleaved runs
/// (each starting one handle later) that return the same metrics.
fn overheads(cfg: &SimConfig, reps: usize) -> [f64; 2] {
    let want = without_wallclock(run(cfg).unwrap());
    let mut ratios = [Vec::new(), Vec::new()];
    for rep in 0..reps {
        let mut secs = [0.0f64; 3];
        for k in (0..3).map(|k| (rep + k) % 3) {
            let obs = match k {
                0 => Obs::disabled(),
                1 => Obs::null(),
                _ => {
                    // Written only on a dump, which fails the run.
                    let dump = format!("pq-sim-overhead-{}.jsonl", std::process::id());
                    let recorder =
                        Recorder::new(RecorderConfig::new(std::env::temp_dir().join(dump)));
                    let obs = Obs::with_subscriber(Arc::new(recorder.clone()));
                    obs.install_recorder(recorder);
                    obs
                }
            };
            let t = Instant::now();
            let m = run_observed(cfg, &obs).unwrap();
            secs[k] = t.elapsed().as_secs_f64();
            assert_eq!(without_wallclock(m), want, "handle {k} ran another run");
            assert!((obs.recorder()).is_none_or(|r| r.buffered() > 0 && r.dump_count() == 0));
        }
        ratios[0].push(secs[1] / secs[0]);
        ratios[1].push(secs[2] / secs[1]);
    }
    ratios.map(|mut ratios| {
        ratios.sort_by(f64::total_cmp);
        100.0 * (ratios[reps / 2] - 1.0)
    })
}

/// `run_observed` on pqbench's `fig5_paper` inputs (100 items, 500 PPQs
/// of 6–7 legs, 1 000 ticks, its tape and book seeds).
#[test]
#[ignore = "clock ceilings: release build only, `cargo test --release -p pq-sim --test disabled_handle -- --ignored`"]
fn observing_the_engine_stays_under_its_ceilings_on_the_release_build() {
    let seed = 484_319_240;
    let traces = TraceSet::stock_universe(100, 1000, SEED);
    let book = WorkloadConfig {
        n_items: 100,
        legs: 6..=7,
        ..WorkloadConfig::default()
    };
    let queries =
        WorkloadGen::with_config(book, seed).portfolio_queries(500, &traces.initial_values());
    let mut cfg = SimConfig::new(traces, queries);
    cfg.seed = seed;
    // A reading moves with the box's other tenants: only a breach that
    // repeats is one.
    let mut readings = Vec::new();
    for _ in 0..5 {
        let [instrumented, recorded] = overheads(&cfg, 41);
        println!("instrumented over disabled {instrumented:.2} %, recorded over instrumented {recorded:.2} %");
        if instrumented <= MAX_INSTRUMENTED_OVERHEAD_PCT && recorded <= MAX_RECORDED_OVERHEAD_PCT {
            return;
        }
        readings.push((instrumented, recorded));
    }
    panic!(
        "(instrumented over disabled, recorded over instrumented) read {readings:.2?} %, \
         ceilings {MAX_INSTRUMENTED_OVERHEAD_PCT} % and {MAX_RECORDED_OVERHEAD_PCT} %"
    );
}
