//! Fig. 7 (a–c): EQI vs AAO-T for a small set of PPQs.
//!
//! 10 portfolio queries (the joint AAO program is only practical for small
//! query sets); sweeps the recomputation cost mu = 1..10 and compares EQI
//! against periodic AAO with periods T in {30, 120, 600, 1500} seconds.
//! Reports refreshes (7a), recomputations (7b) and total cost (7c).
//!
//! Expected shape (paper): AAO-T's shared, less-stringent primary DABs
//! yield fewer refreshes but many more recomputations; AAO-30's total cost
//! is the worst (frequent recomputation hurts); EQI is comparable to the
//! best AAO-T, which is why EQI is the practical choice.

use pq_bench::{emit_sim_run, fmt, obs_from_env, print_table, Scale};
use pq_core::{AssignmentStrategy, PqHeuristic};
use pq_sim::{run_observed, DelayConfig, SimConfig, SimStrategy};

fn main() {
    let scale = Scale::from_env();
    let obs = obs_from_env();
    let traces = scale.universe();
    let n_queries = 10;
    let queries = scale
        .workload()
        .portfolio_queries(n_queries, &traces.initial_values());
    let mus = [1.0, 2.0, 5.0, 10.0];
    let periods = [30usize, 120, 600, 1500];

    let mut names = vec!["EQI".to_string()];
    names.extend(periods.iter().map(|t| format!("AAO-{t}")));

    let mut rows_refresh = Vec::new();
    let mut rows_recomp = Vec::new();
    let mut rows_cost = Vec::new();
    for &mu in &mus {
        let mut refresh = vec![fmt(mu)];
        let mut recomp = vec![fmt(mu)];
        let mut cost = vec![fmt(mu)];
        let strategies: Vec<(String, SimStrategy)> = std::iter::once((
            "EQI".to_string(),
            SimStrategy::PerQuery {
                strategy: AssignmentStrategy::DualDab { mu },
                heuristic: PqHeuristic::DifferentSum,
            },
        ))
        .chain(periods.iter().map(|&t| {
            (
                format!("AAO-{t}"),
                SimStrategy::AaoPeriodic {
                    period_ticks: t,
                    mu,
                },
            )
        }))
        .collect();
        for (name, strategy) in strategies {
            let mut cfg = SimConfig::new(traces.clone(), queries.clone());
            cfg.strategy = strategy;
            cfg.delays = DelayConfig::planetlab_like();
            let started = std::time::Instant::now();
            let m = run_observed(&cfg, &obs).unwrap_or_else(|e| panic!("{name} mu={mu}: {e}"));
            emit_sim_run(
                &obs,
                "fig7",
                &format!("{name},mu={mu}"),
                n_queries,
                &m,
                started,
            );
            refresh.push(m.refreshes.to_string());
            recomp.push(m.recomputations.to_string());
            cost.push(fmt(m.total_cost(mu)));
        }
        rows_refresh.push(refresh);
        rows_recomp.push(recomp);
        rows_cost.push(cost);
    }

    let header: Vec<&str> = std::iter::once("mu")
        .chain(names.iter().map(String::as_str))
        .collect();
    print_table(
        &format!("Fig 7(a): refreshes, {n_queries} PPQs"),
        &header,
        &rows_refresh,
    );
    print_table(
        &format!("Fig 7(b): recomputations, {n_queries} PPQs"),
        &header,
        &rows_recomp,
    );
    print_table(
        &format!("Fig 7(c): total cost, {n_queries} PPQs"),
        &header,
        &rows_cost,
    );
    obs.flush();
}
