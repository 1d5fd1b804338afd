//! Fig. 5 (a–c): Dual-DAB vs Optimal Refresh for portfolio PPQs.
//!
//! Sweeps the number of queries; for each strategy reports total
//! recomputations (5a), refreshes at the coordinator (5b) and loss in
//! fidelity (5c) under PlanetLab-like delays.
//!
//! Expected shape (paper): Dual-DAB reduces recomputations by >9x even at
//! mu = 1 (more at larger mu) for a small increase in refreshes, and its
//! fidelity loss is substantially lower.

use pq_bench::{
    audit_fault_from_env, audit_from_env, emit_sim_run, fmt, obs_from_env, print_table, Scale,
};
use pq_core::{AssignmentStrategy, PqHeuristic};
use pq_sim::{run_observed, DelayConfig, SimConfig, SimStrategy};

fn main() {
    let scale = Scale::from_env();
    let obs = obs_from_env();
    let audit = audit_from_env();
    let audit_fault = audit_fault_from_env();
    let traces = scale.universe();
    let strategies: Vec<(String, AssignmentStrategy)> = vec![
        ("optimal-refresh".into(), AssignmentStrategy::OptimalRefresh),
        (
            "dual-dab(mu=1)".into(),
            AssignmentStrategy::DualDab { mu: 1.0 },
        ),
        (
            "dual-dab(mu=5)".into(),
            AssignmentStrategy::DualDab { mu: 5.0 },
        ),
        (
            "dual-dab(mu=10)".into(),
            AssignmentStrategy::DualDab { mu: 10.0 },
        ),
    ];

    let mut rows_recomp = Vec::new();
    let mut rows_refresh = Vec::new();
    let mut rows_fidelity = Vec::new();
    for &n in &scale.query_counts {
        let queries = scale
            .workload()
            .portfolio_queries(n, &traces.initial_values());
        let mut recomp = vec![n.to_string()];
        let mut refresh = vec![n.to_string()];
        let mut fidelity = vec![n.to_string()];
        for (name, strategy) in &strategies {
            let mut cfg = SimConfig::new(traces.clone(), queries.clone());
            cfg.strategy = SimStrategy::PerQuery {
                strategy: *strategy,
                heuristic: PqHeuristic::DifferentSum,
            };
            cfg.delays = DelayConfig::planetlab_like();
            cfg.audit = audit.clone();
            cfg.audit_fault = audit_fault;
            let started = std::time::Instant::now();
            let m = run_observed(&cfg, &obs).unwrap_or_else(|e| panic!("{name} x {n}: {e}"));
            emit_sim_run(&obs, "fig5", name, n, &m, started);
            recomp.push(m.recomputations.to_string());
            refresh.push(m.refreshes.to_string());
            fidelity.push(fmt(m.loss_in_fidelity_percent()));
        }
        rows_recomp.push(recomp);
        rows_refresh.push(refresh);
        rows_fidelity.push(fidelity);
    }

    let header: Vec<&str> = std::iter::once("queries")
        .chain(strategies.iter().map(|(n, _)| n.as_str()))
        .collect();
    print_table("Fig 5(a): total recomputations", &header, &rows_recomp);
    print_table("Fig 5(b): refreshes at coordinator", &header, &rows_refresh);
    print_table("Fig 5(c): loss in fidelity (%)", &header, &rows_fidelity);
    obs.flush();
}
