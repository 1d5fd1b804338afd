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
    // Which messages are lost moves a cell by more than a change to the
    // protocol does, so a row is the mean and range over ten draws (the
    // run's delay-and-loss seed, 42 the default).
    const LOSS_SEEDS: std::ops::Range<u64> = 42..52;
    let draws = LOSS_SEEDS.count() as f64;
    let mut rows = Vec::new();
    for loss_p in [0.0, 0.01, 0.05, 0.10, 0.25] {
        let (mut losses, mut lost, mut arrived) = (Vec::new(), 0, 0);
        for seed in LOSS_SEEDS {
            let mut cfg = SimConfig::new(traces.clone(), queries.clone());
            cfg.strategy = SimStrategy::PerQuery {
                strategy: AssignmentStrategy::DualDab { mu: 5.0 },
                heuristic: PqHeuristic::DifferentSum,
            };
            cfg.delays = DelayConfig::planetlab_like();
            cfg.loss_probability = loss_p;
            cfg.seed = seed;
            let started = std::time::Instant::now();
            let m = run_observed(&cfg, &obs)
                .unwrap_or_else(|e| panic!("loss {loss_p}, seed {seed}: {e}"));
            let label = format!("p={loss_p} seed={seed}");
            emit_sim_run(&obs, "loss_sweep", &label, n, &m, started);
            losses.push(m.loss_in_fidelity_percent());
            lost += m.lost_messages;
            arrived += m.refreshes;
        }
        let min = losses.iter().copied().fold(f64::INFINITY, f64::min);
        let max = losses.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        rows.push(vec![
            format!("{:.0}%", loss_p * 100.0),
            fmt(losses.iter().sum::<f64>() / draws),
            format!("{}-{}", fmt(min), fmt(max)),
            fmt(lost as f64 / draws),
            fmt(arrived as f64 / draws),
        ]);
    }
    print_table(
        &format!("Message-loss sweep, {n} PPQs, dual-DAB(mu=5), ten loss draws"),
        &[
            "loss prob",
            "fidelity loss % (mean)",
            "min-max",
            "lost messages (mean)",
            "refreshes arrived (mean)",
        ],
        &rows,
    );
    obs.flush();
}
