//! §V-B.1 "Effect of Varying Delays": node-to-node mean delay swept from
//! ~30 ms to 500 ms (and computational delays scaled 5x).
//!
//! Expected shape (paper): as delays increase there is a small increase in
//! loss of fidelity; refresh/recomputation counts barely move (the push
//! protocol's message economics are delay-independent; only staleness
//! windows grow).

use pq_bench::{emit_sim_run, fmt, obs_from_env, print_table, Scale};
use pq_core::{AssignmentStrategy, PqHeuristic};
use pq_sim::{run_observed, DelayConfig, Pareto, SimConfig, SimStrategy};

fn main() {
    let scale = Scale::from_env();
    let obs = obs_from_env();
    let traces = scale.universe();
    let n = *scale.query_counts.first().unwrap_or(&50);
    let queries = scale
        .workload()
        .portfolio_queries(n, &traces.initial_values());

    let mut rows = Vec::new();
    for (label, delays) in [
        ("zero", DelayConfig::zero()),
        ("30ms", DelayConfig::with_node_mean(0.030)),
        ("110ms", DelayConfig::with_node_mean(0.110)),
        ("250ms", DelayConfig::with_node_mean(0.250)),
        ("500ms", DelayConfig::with_node_mean(0.500)),
        (
            "110ms+5x-compute",
            DelayConfig {
                node_to_node: Pareto::with_mean(0.110),
                coordinator_check: Pareto::with_mean(0.020),
                user_push: Pareto::with_mean(0.005),
                recompute_service: Pareto::with_mean(0.050),
            },
        ),
    ] {
        let mut cfg = SimConfig::new(traces.clone(), queries.clone());
        cfg.strategy = SimStrategy::PerQuery {
            strategy: AssignmentStrategy::DualDab { mu: 5.0 },
            heuristic: PqHeuristic::DifferentSum,
        };
        cfg.delays = delays;
        let started = std::time::Instant::now();
        let m = run_observed(&cfg, &obs).unwrap_or_else(|e| panic!("{label}: {e}"));
        emit_sim_run(&obs, "delay_sweep", label, n, &m, started);
        rows.push(vec![
            label.to_string(),
            fmt(m.loss_in_fidelity_percent()),
            m.refreshes.to_string(),
            m.recomputations.to_string(),
        ]);
    }
    print_table(
        &format!("Delay sweep, {n} PPQs, dual-DAB(mu=5)"),
        &[
            "node-node delay",
            "fidelity loss %",
            "refreshes",
            "recomputations",
        ],
        &rows,
    );

    // Failure injection: message loss at PlanetLab-like delays
    // (an extension beyond the paper; the push protocol has no ACKs).
    let mut rows = Vec::new();
    for loss_p in [0.0, 0.01, 0.05, 0.10, 0.25] {
        let mut cfg = SimConfig::new(traces.clone(), queries.clone());
        cfg.strategy = SimStrategy::PerQuery {
            strategy: AssignmentStrategy::DualDab { mu: 5.0 },
            heuristic: PqHeuristic::DifferentSum,
        };
        cfg.delays = DelayConfig::planetlab_like();
        cfg.loss_probability = loss_p;
        let started = std::time::Instant::now();
        let m = run_observed(&cfg, &obs).unwrap_or_else(|e| panic!("loss {loss_p}: {e}"));
        emit_sim_run(&obs, "loss_sweep", &format!("p={loss_p}"), n, &m, started);
        rows.push(vec![
            format!("{:.0}%", loss_p * 100.0),
            fmt(m.loss_in_fidelity_percent()),
            m.lost_messages.to_string(),
            m.refreshes.to_string(),
        ]);
    }
    print_table(
        &format!("Message-loss sweep, {n} PPQs, dual-DAB(mu=5)"),
        &[
            "loss prob",
            "fidelity loss %",
            "lost messages",
            "refreshes arrived",
        ],
        &rows,
    );
    obs.flush();
}
