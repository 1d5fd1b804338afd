//! Fig. 6 (a–c): effect of the data-dynamics model and rate information.
//!
//! The same stock traces are replayed while the *optimizer's assumptions*
//! change: monotonic vs random-walk refresh objectives, and `lambda = 1`
//! (no rate information, the paper's "L1" curves). Reports recomputations
//! (6a), refreshes (6b) and total cost `refreshes + mu * recomputations`
//! (6c).
//!
//! Expected shape (paper): random-walk DABs are less stringent → more
//! recomputations, fewer refreshes; L1 is worse on both; but every
//! Dual-DAB variant has a far lower total cost than Optimal Refresh —
//! reliance on the ddm is low.

use pq_bench::{emit_sim_run, fmt, obs_from_env, print_table, Scale};
use pq_core::{AssignmentStrategy, PqHeuristic};
use pq_ddm::{DataDynamicsModel, RateEstimator};
use pq_sim::{run_observed, DelayConfig, SimConfig, SimStrategy};

fn main() {
    let scale = Scale::from_env();
    let obs = obs_from_env();
    let traces = scale.universe();
    struct Variant {
        name: &'static str,
        ddm: DataDynamicsModel,
        estimator: RateEstimator,
        mu: f64,
    }
    let variants = [
        Variant {
            name: "mono,mu=1",
            ddm: DataDynamicsModel::Monotonic,
            estimator: RateEstimator::SampledAverage { interval_ticks: 60 },
            mu: 1.0,
        },
        Variant {
            name: "mono,mu=5",
            ddm: DataDynamicsModel::Monotonic,
            estimator: RateEstimator::SampledAverage { interval_ticks: 60 },
            mu: 5.0,
        },
        Variant {
            name: "random,mu=1",
            ddm: DataDynamicsModel::RandomWalk,
            estimator: RateEstimator::StepStd,
            mu: 1.0,
        },
        Variant {
            name: "random,mu=5",
            ddm: DataDynamicsModel::RandomWalk,
            estimator: RateEstimator::StepStd,
            mu: 5.0,
        },
        Variant {
            name: "L1,mu=5",
            ddm: DataDynamicsModel::Monotonic,
            estimator: RateEstimator::Unit,
            mu: 5.0,
        },
    ];

    let mut rows_recomp = Vec::new();
    let mut rows_refresh = Vec::new();
    let mut rows_cost = Vec::new();
    for &n in &scale.query_counts {
        let queries = scale
            .workload()
            .portfolio_queries(n, &traces.initial_values());
        let mut recomp = vec![n.to_string()];
        let mut refresh = vec![n.to_string()];
        let mut cost = vec![n.to_string()];
        for v in &variants {
            let mut cfg = SimConfig::new(traces.clone(), queries.clone());
            cfg.strategy = SimStrategy::PerQuery {
                strategy: AssignmentStrategy::DualDab { mu: v.mu },
                heuristic: PqHeuristic::DifferentSum,
            };
            cfg.ddm = v.ddm;
            cfg.rate_estimator = v.estimator;
            cfg.delays = DelayConfig::planetlab_like();
            let started = std::time::Instant::now();
            let m = run_observed(&cfg, &obs).unwrap_or_else(|e| panic!("{} x {n}: {e}", v.name));
            emit_sim_run(&obs, "fig6", v.name, n, &m, started);
            recomp.push(m.recomputations.to_string());
            refresh.push(m.refreshes.to_string());
            cost.push(fmt(m.total_cost(v.mu)));
        }
        rows_recomp.push(recomp);
        rows_refresh.push(refresh);
        rows_cost.push(cost);
    }

    let header: Vec<&str> = std::iter::once("queries")
        .chain(variants.iter().map(|v| v.name))
        .collect();
    print_table("Fig 6(a): total recomputations", &header, &rows_recomp);
    print_table("Fig 6(b): refreshes at coordinator", &header, &rows_refresh);
    print_table(
        "Fig 6(c): total cost = refreshes + mu * recomputations",
        &header,
        &rows_cost,
    );
    obs.flush();
}
