//! Arbitrage monitoring (Query 1(b)): a mixed-sign polynomial query.
//!
//! The spread `buy_price * fx_a - sell_price * fx_b` flips sign when an
//! arbitrage opportunity appears; the user wants the spread within 0.5
//! currency units at all times. Mixed-sign polynomials defeat the optimal
//! GP formulation, so the paper's Half-and-Half and Different-Sum
//! heuristics apply — this example runs both and compares their modelled
//! costs, then drives the Different-Sum assignment through the Monitor.
//!
//! Run with: `cargo run --example arbitrage_monitor`

use polyquery::{
    assign_query, AssignmentStrategy, Monitor, PolynomialQuery, PqHeuristic, SolveContext,
};

fn main() {
    // Items: buy price, fx at buy venue, sell price, fx at sell venue.
    let mut monitor = Monitor::new().with_heuristic(PqHeuristic::DifferentSum);
    let buy = monitor.add_item("buy_px", 40.0, 0.08);
    let fx_a = monitor.add_item("fx_a", 1.10, 0.001);
    let sell = monitor.add_item("sell_px", 44.0, 0.08);
    let fx_b = monitor.add_item("fx_b", 0.99, 0.001);

    let query = PolynomialQuery::arbitrage([(1.0, buy, fx_a)], [(1.0, sell, fx_b)], 0.5).unwrap();
    println!("Arbitrage query: {query}");
    println!(
        "Initial spread: {:.4}\n",
        query.eval(&[40.0, 1.10, 44.0, 0.99])
    );

    // --- Compare the two §III-B heuristics --------------------------------
    let values = [40.0, 1.10, 44.0, 0.99];
    let rates = [0.08, 0.001, 0.08, 0.001];
    let ctx = SolveContext::new(&values, &rates);
    for heuristic in [PqHeuristic::HalfAndHalf, PqHeuristic::DifferentSum] {
        let strategy = AssignmentStrategy::DualDab { mu: 5.0 };
        let a = assign_query(&query, &ctx, strategy, heuristic).unwrap();
        println!("{heuristic:?}:");
        for (&item, &b) in &a.primary {
            println!("  b_{item} = {b:.5}");
        }
        println!(
            "  modelled refreshes/s = {:.4}, recomputations/s = {:.5}, cost(mu=5) = {:.4}\n",
            a.refresh_rate,
            a.recompute_rate,
            a.refresh_rate + 5.0 * a.recompute_rate
        );
    }

    // --- Live monitoring with Different Sum -------------------------------
    monitor.add_query(query);
    monitor.install().unwrap();

    println!("Feeding a converging-spread scenario:");
    // The sell price drifts down toward the buy side: spread closes, the
    // user must hear about it.
    let mut notified = 0;
    for step in 0..12 {
        let px = 44.0 - 0.45 * step as f64;
        let out = monitor.on_refresh(sell, px).unwrap();
        for (q, v) in &out.notify {
            notified += 1;
            println!("  step {step:>2}: sell={px:.2}  -> notify user: {q} spread = {v:+.3}");
        }
    }
    assert!(notified > 0, "the closing spread must reach the user");
    println!("\n{notified} notifications; accuracy bound held throughout.");
}
