//! Ablation studies for the design choices called out in DESIGN.md.
//!
//! 1. **mu sensitivity** — how the refresh/recompute split of the Dual-DAB
//!    optimum moves as the recomputation cost mu grows (§III-A.3's
//!    "Effect of mu": larger mu → tighter primary DABs, larger validity
//!    ranges, fewer recomputations).
//! 2. **Forced `c = b`** — Dual-DAB with its secondary range collapsed to
//!    the primary width. This isolates the dual-DAB idea itself: with
//!    `c = b`, validity dies almost immediately and behaviour degenerates
//!    toward Optimal Refresh.
//! 3. **Rate information** — exact per-trace rates vs 60 s sampled
//!    estimates vs none (lambda = 1): the value of knowing how fast data
//!    moves.

use pq_bench::{fmt, print_table, Scale};
use pq_core::{AssignmentStrategy, PqHeuristic, SolveContext};
use pq_ddm::RateEstimator;
use pq_poly::ItemId;
use pq_sim::{run, DelayConfig, SimConfig, SimStrategy};

fn main() {
    mu_sensitivity();
    forced_secondary();
    rate_information();
}

fn mu_sensitivity() {
    let q = pq_poly::PolynomialQuery::portfolio([(1.0, ItemId(0), ItemId(1))], 5.0).unwrap();
    let values = [20.0, 30.0];
    let rates = [2.0, 1.0];
    let ctx = SolveContext::new(&values, &rates);
    let mut rows = Vec::new();
    for mu in [0.5, 1.0, 2.0, 5.0, 10.0, 20.0, 50.0] {
        let a = pq_core::dual_dab(&q, &ctx, mu).unwrap();
        rows.push(vec![
            fmt(mu),
            fmt(a.primary_dab(ItemId(0)).unwrap()),
            fmt(a.secondary_dab(ItemId(0)).unwrap()),
            fmt(a.refresh_rate),
            fmt(a.recompute_rate),
            fmt(a.refresh_rate + mu * a.recompute_rate),
        ]);
    }
    print_table(
        "Ablation 1: mu sensitivity (Q = xy : 5, V = (20,30))",
        &["mu", "b_x", "c_x", "refresh/s", "recompute/s", "model cost"],
        &rows,
    );
}

fn forced_secondary() {
    let scale = Scale::from_env();
    let traces = scale.universe();
    let n = *scale.query_counts.first().unwrap_or(&50);
    let queries = scale
        .workload()
        .portfolio_queries(n, &traces.initial_values());

    let mut rows = Vec::new();
    for (label, strategy) in [
        ("optimal-refresh", AssignmentStrategy::OptimalRefresh),
        // mu -> 0+ approximates "secondary barely wider than primary":
        // the optimizer has almost no budget for validity range.
        (
            "dual-dab(mu=0.01)",
            AssignmentStrategy::DualDab { mu: 0.01 },
        ),
        ("dual-dab(mu=5)", AssignmentStrategy::DualDab { mu: 5.0 }),
    ] {
        let mut cfg = SimConfig::new(traces.clone(), queries.clone());
        cfg.strategy = SimStrategy::PerQuery {
            strategy,
            heuristic: PqHeuristic::DifferentSum,
        };
        cfg.delays = DelayConfig::zero();
        let m = run(&cfg).unwrap_or_else(|e| panic!("{label}: {e}"));
        rows.push(vec![
            label.to_string(),
            m.refreshes.to_string(),
            m.recomputations.to_string(),
            fmt(m.total_cost(5.0)),
        ]);
    }
    print_table(
        &format!("Ablation 2: value of the secondary range ({n} PPQs, cost at mu=5)"),
        &["scheme", "refreshes", "recomputations", "total cost(5)"],
        &rows,
    );
}

fn rate_information() {
    let scale = Scale::from_env();
    let traces = scale.universe();
    let n = *scale.query_counts.first().unwrap_or(&50);
    let queries = scale
        .workload()
        .portfolio_queries(n, &traces.initial_values());

    let mut rows = Vec::new();
    for (label, estimator) in [
        (
            "sampled-60s",
            RateEstimator::SampledAverage { interval_ticks: 60 },
        ),
        (
            "sampled-10s",
            RateEstimator::SampledAverage { interval_ticks: 10 },
        ),
        (
            "ewma-60s",
            RateEstimator::Ewma {
                interval_ticks: 60,
                alpha: 0.3,
            },
        ),
        ("unit (L1)", RateEstimator::Unit),
    ] {
        let mut cfg = SimConfig::new(traces.clone(), queries.clone());
        cfg.strategy = SimStrategy::PerQuery {
            strategy: AssignmentStrategy::DualDab { mu: 5.0 },
            heuristic: PqHeuristic::DifferentSum,
        };
        cfg.rate_estimator = estimator;
        cfg.delays = DelayConfig::zero();
        let m = run(&cfg).unwrap_or_else(|e| panic!("{label}: {e}"));
        rows.push(vec![
            label.to_string(),
            m.refreshes.to_string(),
            m.recomputations.to_string(),
            fmt(m.total_cost(5.0)),
        ]);
    }
    print_table(
        &format!("Ablation 3: value of rate information ({n} PPQs, dual-dab mu=5)"),
        &[
            "rate estimator",
            "refreshes",
            "recomputations",
            "total cost(5)",
        ],
        &rows,
    );
}
