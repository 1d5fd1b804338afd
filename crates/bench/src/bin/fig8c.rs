//! Fig. 8(c): PPQs on a dissemination network of coordinators.
//!
//! A tree of coordinators (10 at paper scale) built after Shah et al.
//! (TKDE'04, \[6\]) serves growing numbers of portfolio queries. The single-
//! DAB scheme (WSDAB in the paper — here Optimal Refresh, the equivalent
//! recompute-on-every-refresh assignment) is compared against Dual-DAB
//! for mu in {1, 5, 10, 20}.
//!
//! Two tables: recomputations at zero delay, then the loss in fidelity
//! under PlanetLab-like delays.
//!
//! Expected shape (paper): the single-DAB scheme's recomputation count
//! explodes with the number of queries (604,735 at 10,000 queries in the
//! paper) — at large query counts an approach that reduces recomputations
//! is essential.

use std::num::NonZeroUsize;

use pq_bench::{emit_sim_run, fmt, obs_from_env, print_table, Scale};
use pq_core::{AssignmentStrategy, PqHeuristic};
use pq_sim::{run_observed, DelayConfig, SimConfig, SimStrategy};

fn main() {
    let scale = Scale::from_env();
    let obs = obs_from_env();
    let full = std::env::var_os("PQ_BENCH_FULL").is_some_and(|v| v != "0");
    let n_coordinators = if full { 10 } else { 4 };
    let query_counts: Vec<usize> = if full {
        vec![100, 1000, 10_000]
    } else {
        vec![50, 200, 800]
    };
    let traces = scale.universe();

    let strategies: Vec<(String, AssignmentStrategy)> = vec![
        ("single-DAB".into(), AssignmentStrategy::OptimalRefresh),
        ("dual(mu=1)".into(), AssignmentStrategy::DualDab { mu: 1.0 }),
        ("dual(mu=5)".into(), AssignmentStrategy::DualDab { mu: 5.0 }),
        (
            "dual(mu=10)".into(),
            AssignmentStrategy::DualDab { mu: 10.0 },
        ),
        (
            "dual(mu=20)".into(),
            AssignmentStrategy::DualDab { mu: 20.0 },
        ),
    ];

    let (mut rows_recomp, mut rows_fidelity) = (Vec::new(), Vec::new());
    for &n in &query_counts {
        let queries = scale
            .workload()
            .portfolio_queries(n, &traces.initial_values());
        let mut recomp = vec![n.to_string()];
        let mut fidelity = vec![n.to_string()];
        for (name, strategy) in &strategies {
            let mut cfg = SimConfig::new(traces.clone(), queries.clone());
            cfg.coordinators = NonZeroUsize::new(n_coordinators).unwrap();
            cfg.strategy = SimStrategy::PerQuery {
                strategy: *strategy,
                heuristic: PqHeuristic::DifferentSum,
            };
            let mut run = |figure, delays| {
                cfg.delays = delays;
                let started = std::time::Instant::now();
                // Observed so PQ_OBS_JSONL / PQ_OBS_RECORDER capture the
                // tree's sim/DAB/GP events, as the other figures do.
                let m = run_observed(&cfg, &obs).unwrap_or_else(|e| panic!("{name} x {n}: {e}"));
                emit_sim_run(&obs, figure, name, n, &m, started);
                m
            };
            let m = run("fig8c", DelayConfig::zero());
            recomp.push(m.recomputations.to_string());
            let m = run("fig8c-delayed", DelayConfig::planetlab_like());
            fidelity.push(fmt(m.loss_in_fidelity_percent()));
        }
        rows_recomp.push(recomp);
        rows_fidelity.push(fidelity);
    }

    let header: Vec<&str> = std::iter::once("queries")
        .chain(strategies.iter().map(|(n, _)| n.as_str()))
        .collect();
    print_table(
        &format!("Fig 8(c): recomputations on a {n_coordinators}-coordinator network"),
        &header,
        &rows_recomp,
    );
    print_table(
        &format!("Fig 8(c): loss in fidelity (%) on a {n_coordinators}-coordinator network, PlanetLab-like delays"),
        &header,
        &rows_fidelity,
    );
    obs.flush();
}
