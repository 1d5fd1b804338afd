//! Fig. 8(c): PPQs on a dissemination network of coordinators.
//!
//! A tree of coordinators (10 at paper scale) built after Shah et al.
//! (TKDE'04, \[6\]) serves growing numbers of portfolio queries. The single-
//! DAB scheme (WSDAB in the paper — here Optimal Refresh, the equivalent
//! recompute-on-every-refresh assignment) is compared against Dual-DAB
//! for mu in {1, 5, 10, 20}.
//!
//! Expected shape (paper): the single-DAB scheme's recomputation count
//! explodes with the number of queries (604,735 at 10,000 queries in the
//! paper) — at large query counts an approach that reduces recomputations
//! is essential.

use pq_bench::{obs_from_env, print_table, Scale};
use pq_core::AssignmentStrategy;
use pq_obs::{names, EventKind};
use pq_sim::{run_network_observed, NetworkConfig};

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

    let mut rows = Vec::new();
    for &n in &query_counts {
        let queries = scale
            .workload()
            .portfolio_queries(n, &traces.initial_values());
        let mut row = vec![n.to_string()];
        for (name, strategy) in &strategies {
            let cfg = NetworkConfig::round_robin(
                traces.clone(),
                queries.clone(),
                n_coordinators,
                *strategy,
            );
            let started = std::time::Instant::now();
            // Observed variant so PQ_OBS_JSONL/PQ_OBS_ADDR capture the
            // network's sim/DAB/GP events, as the other figures do.
            let m =
                run_network_observed(&cfg, &obs).unwrap_or_else(|e| panic!("{name} x {n}: {e}"));
            let series = name.clone();
            obs.emit_with(names::BENCH_RUN, EventKind::Point, |e| {
                e.with("figure", "fig8c")
                    .with("series", series)
                    .with("n_queries", n)
                    .with("recomputations", m.recomputations())
                    .with("refreshes", m.refreshes())
                    .with("solver_s", m.solver_seconds)
                    .with("wall_s", started.elapsed().as_secs_f64())
            });
            row.push(m.recomputations().to_string());
        }
        rows.push(row);
    }

    let header: Vec<&str> = std::iter::once("queries")
        .chain(strategies.iter().map(|(n, _)| n.as_str()))
        .collect();
    print_table(
        &format!("Fig 8(c): recomputations on a {n_coordinators}-coordinator network"),
        &header,
        &rows,
    );
    obs.flush();
}
