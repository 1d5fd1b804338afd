//! Shared driver for the Fig. 8(a)/(b) heuristic comparisons.

use pq_core::{AssignmentStrategy, PqHeuristic};
use pq_sim::{run_observed, DelayConfig, SimConfig, SimStrategy};

use crate::{emit_sim_run, obs_from_env, print_table, Scale};

/// Runs HH vs DS over arbitrage workloads and prints the Fig. 8 series.
///
/// `independent` selects disjoint buy/sell item draws (Fig. 8(a)) versus
/// freely overlapping ones (Fig. 8(b)).
pub fn run_heuristic_figure(independent: bool, title: &str) {
    let scale = Scale::from_env();
    let obs = obs_from_env();
    // Drift-dominated traces: Fig. 8 is evaluated under the paper's
    // monotonic data-dynamics regime, where validity-range escapes
    // synchronize across items after each recomputation. (Under strongly
    // diffusive data the HH/DS recomputation ordering can flip — see
    // EXPERIMENTS.md.)
    let traces = pq_ddm::TraceSet::drifting_universe(scale.n_items, scale.n_ticks, scale.seed);
    let mus = [1.0, 5.0, 10.0];

    let mut names = Vec::new();
    for h in ["HH", "DS"] {
        for mu in mus {
            names.push(format!("{h},mu={mu}"));
        }
    }

    let mut rows_recomp = Vec::new();
    let mut rows_refresh = Vec::new();
    for &n in &scale.query_counts {
        let queries = scale
            .workload()
            .arbitrage_queries(n, &traces.initial_values(), independent);
        let mut recomp = vec![n.to_string()];
        let mut refresh = vec![n.to_string()];
        for heuristic in [PqHeuristic::HalfAndHalf, PqHeuristic::DifferentSum] {
            for &mu in &mus {
                let mut cfg = SimConfig::new(traces.clone(), queries.clone());
                cfg.strategy = SimStrategy::PerQuery {
                    strategy: AssignmentStrategy::DualDab { mu },
                    heuristic,
                };
                cfg.delays = DelayConfig::planetlab_like();
                cfg.mu_cost = mu;
                let started = std::time::Instant::now();
                let m = run_observed(&cfg, &obs)
                    .unwrap_or_else(|e| panic!("{heuristic:?} mu={mu} n={n}: {e}"));
                emit_sim_run(
                    &obs,
                    "fig8",
                    &format!("{heuristic:?},mu={mu}"),
                    n,
                    &m,
                    started,
                );
                recomp.push(m.recomputations.to_string());
                refresh.push(m.refreshes.to_string());
            }
        }
        rows_recomp.push(recomp);
        rows_refresh.push(refresh);
    }

    let header: Vec<&str> = std::iter::once("queries")
        .chain(names.iter().map(String::as_str))
        .collect();
    print_table(&format!("{title}: recomputations"), &header, &rows_recomp);
    print_table(&format!("{title}: refreshes"), &header, &rows_refresh);
    obs.flush();
}
