//! Naive vs compiled vs delta vs shared query-evaluation microbenchmark.
//!
//! Measures the coordinator's per-tick fidelity-sampling cost — reading
//! every query's current value after a handful of item moves — under
//! four evaluation regimes:
//!
//! * **naive ns/sample** — [`pq_poly::PolynomialQuery::eval`] walks the
//!   term list of every query on every sample;
//! * **compiled ns/sample** — [`pq_poly::EvalPlan::eval`] over the same
//!   queries: flat storage, unrolled degree-1/2 kernels, no `powi`;
//! * **delta ns/sample** — a [`pq_sim::DeltaView`] folds each item move
//!   into the affected queries via the book's item → reader index and
//!   the plans' inverted item → term index (with the engine's periodic
//!   rebase), so a sample is an O(1) read;
//! * **shared ns/sample** — a [`pq_sim::SharedView`] over one
//!   cross-query [`pq_poly::SharedPlan`]: CSE-deduplicated monomials,
//!   each item move evaluates every affected distinct monomial once and
//!   scatters `c_q · Δm` through the CSR term → query index.
//!
//! **Which regime this models.** `MOVES_PER_TICK` (4) items move between
//! two reads of every query: moves-between-reads ÷ items ≪ 1, the
//! engine's *coordinator* view, where one item moves per refresh and
//! deltas win. The engine's *source* view is the opposite regime — on a
//! stock tape every watched item moves between two fidelity samples — so
//! the engine maintains no source-side view and pays one full evaluation
//! per read there (DESIGN.md §11): the **compiled** column is that cost.
//!
//! Two fixed workloads (the fig5-style portfolio mix and a large
//! synthetic book) plus an **overlapping-book sweep** at 1k→8k queries
//! (`pq_workload::WorkloadGen::overlapping_book` with the distinct-pair
//! pool held fixed, so the book shares ever harder as it grows). Per
//! sweep point the benchmark reports delta vs shared **ns/refresh**
//! (pure maintenance cost per applied item move), the distinct-monomial
//! count, and plan memory — `SharedPlan::bytes()` against the summed
//! per-query `EvalPlan::bytes()` — all emitted into `BENCH_eval.json`
//! so memory sublinearity is tracked alongside speed.
//!
//! `--enforce` additionally replays a fixed-seed fig5-style simulation
//! under [`pq_sim::EvalMode::Naive`], [`pq_sim::EvalMode::Delta`] and
//! [`pq_sim::EvalMode::Shared`] and requires byte-identical per-query
//! violation counts — no evaluation path may flip a QAB comparison —
//! plus a 5x delta speedup floor on the large workload, a 2x
//! shared-over-delta ns/refresh floor at 8k overlapping queries, and
//! sublinear shared memory growth (marginal bytes/query below the
//! per-query plans' slope, and falling bytes/query at scale).
//!
//! Usage: `evalbench [--quick] [--enforce] [--out PATH]`

use std::hint::black_box;
use std::time::Instant;

use pq_bench::{fmt, print_table, Scale};
use pq_core::{AssignmentStrategy, PqHeuristic};
use pq_ddm::TraceSet;
use pq_poly::{EvalPlan, PolynomialQuery, SharedPlan};
use pq_sim::{
    run, DelayConfig, DeltaView, EvalMode, ReaderIndex, SharedView, SimConfig, SimStrategy,
};
use pq_workload::{WorkloadConfig, WorkloadGen};

/// Speedup floor `--enforce` holds the delta path to on the large
/// workload.
const MIN_DELTA_SPEEDUP: f64 = 5.0;
/// Shared-over-delta ns/refresh floor at the top of the overlapping
/// sweep.
const MIN_SHARED_SPEEDUP: f64 = 2.0;
/// Rebase cadence used by the delta pass (the engine default).
const REBASE_EVERY: usize = EvalMode::DEFAULT_REBASE_EVERY;

struct Args {
    quick: bool,
    enforce: bool,
    out: String,
}

fn parse_args() -> Args {
    let mut args = Args {
        quick: false,
        enforce: false,
        out: "BENCH_eval.json".to_string(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--quick" => args.quick = true,
            "--enforce" => args.enforce = true,
            "--out" => args.out = it.next().expect("--out needs a path"),
            other => {
                eprintln!(
                    "unknown argument {other}; usage: evalbench [--quick] [--enforce] [--out PATH]"
                );
                std::process::exit(2);
            }
        }
    }
    args
}

/// Deterministic value stream: tick `t` moves `MOVES_PER_TICK` items by
/// a few tenths of a percent. Plain splitmix-style hash — no shared RNG.
fn hash2(a: u64, b: u64) -> u64 {
    let mut s = a
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(b)
        .wrapping_mul(0xBF58_476D_1CE4_E5B9);
    s ^= s >> 31;
    s
}

const MOVES_PER_TICK: usize = 4;

/// The items that move on tick `t` and their new values.
fn moves_at(tick: usize, values: &[f64], out: &mut Vec<(usize, f64)>) {
    out.clear();
    for k in 0..MOVES_PER_TICK {
        let h = hash2(tick as u64, k as u64);
        let item = (h % values.len() as u64) as usize;
        let u = (hash2(h, 0xA5) % 10_000) as f64 / 5_000.0 - 1.0;
        out.push((item, values[item] * (1.0 + 0.003 * u)));
    }
}

/// The book's item → reader index, as the engine builds it.
fn reader_index(queries: &[PolynomialQuery], n_items: usize) -> ReaderIndex {
    let query_items: Vec<_> = queries.iter().map(PolynomialQuery::items).collect();
    ReaderIndex::new(n_items, &query_items)
}

struct Measurement {
    naive_ns: f64,
    compiled_ns: f64,
    delta_ns: f64,
    shared_ns: f64,
    samples: u64,
    delta_updates: u64,
    scatter_updates: u64,
    distinct_terms: usize,
    shared_bytes: usize,
    per_query_bytes: usize,
}

/// Runs all four regimes over the same `ticks`-long move stream,
/// sampling every query once per tick.
fn bench_workload(queries: &[PolynomialQuery], values0: &[f64], ticks: usize) -> Measurement {
    let plans: Vec<EvalPlan> = queries
        .iter()
        .map(|q| EvalPlan::compile(q.poly()))
        .collect();
    // item -> queries containing it, mirroring the engine's index.
    let readers = reader_index(queries, values0.len());
    let n_samples = (ticks * queries.len()) as u64;
    let mut moved = Vec::with_capacity(MOVES_PER_TICK);

    // Naive: full term-list walk per sample.
    let mut values = values0.to_vec();
    let started = Instant::now();
    for tick in 0..ticks {
        moves_at(tick, &values, &mut moved);
        for &(item, v) in &moved {
            values[item] = v;
        }
        for q in queries {
            black_box(q.eval(&values));
        }
    }
    let naive_ns = started.elapsed().as_nanos() as f64 / n_samples as f64;

    // Compiled: full evaluation through the plans.
    let mut values = values0.to_vec();
    let started = Instant::now();
    for tick in 0..ticks {
        moves_at(tick, &values, &mut moved);
        for &(item, v) in &moved {
            values[item] = v;
        }
        for plan in &plans {
            black_box(plan.eval(&values));
        }
    }
    let compiled_ns = started.elapsed().as_nanos() as f64 / n_samples as f64;

    // Delta: fold moves into a DeltaView, sample by reading the view.
    let mut values = values0.to_vec();
    let mut view = DeltaView::new(&plans, &values);
    let mut delta_updates = 0u64;
    let started = Instant::now();
    for tick in 0..ticks {
        moves_at(tick, &values, &mut moved);
        for &(item, v) in &moved {
            let old = values[item];
            delta_updates += view.apply(&plans, readers.readers(item), &values, item, old, v);
            values[item] = v;
        }
        if (tick + 1) % REBASE_EVERY == 0 {
            view.rebase(&plans, &values);
        }
        for qi in 0..plans.len() {
            black_box(view.value(qi));
        }
    }
    let delta_ns = started.elapsed().as_nanos() as f64 / n_samples as f64;

    // Shared: one cross-query plan; each move evaluates every affected
    // distinct monomial once and scatters through the CSR sub index.
    let shared = SharedPlan::compile(queries.iter().map(|q| q.poly()));
    let mut values = values0.to_vec();
    let mut view = SharedView::new(&shared, &values);
    let mut scatter_updates = 0u64;
    let started = Instant::now();
    for tick in 0..ticks {
        moves_at(tick, &values, &mut moved);
        for &(item, v) in &moved {
            let old = values[item];
            scatter_updates += view.apply(&shared, &values, item, old, v);
            values[item] = v;
        }
        if (tick + 1) % REBASE_EVERY == 0 {
            view.rebase(&shared, &values);
        }
        for qi in 0..queries.len() {
            black_box(view.value(qi));
        }
    }
    let shared_ns = started.elapsed().as_nanos() as f64 / n_samples as f64;

    Measurement {
        naive_ns,
        compiled_ns,
        delta_ns,
        shared_ns,
        samples: n_samples,
        delta_updates,
        scatter_updates,
        distinct_terms: shared.n_terms(),
        shared_bytes: shared.bytes(),
        per_query_bytes: plans.iter().map(|p| p.bytes()).sum(),
    }
}

/// One point of the overlapping-book sweep: pure maintenance cost per
/// applied item move (ns/refresh) for the per-query delta path vs the
/// shared scatter path, plus the memory story.
struct SweepPoint {
    n_queries: usize,
    distinct_terms: usize,
    shared_fanout: usize,
    delta_ns_refresh: f64,
    shared_ns_refresh: f64,
    shared_bytes: usize,
    per_query_bytes: usize,
}

/// Item universe of the overlapping-book sweep.
const SWEEP_ITEMS: usize = 400;
/// Mean legs per query in the sweep (`legs = 6..=7`).
const SWEEP_MEAN_LEGS: f64 = 6.5;
/// Distinct-pair pool target, held fixed across the sweep so the book
/// shares ever harder as it grows — the regime the shared plan exists
/// for (many subscriptions over one bounded monomial universe).
const SWEEP_POOL: f64 = 2_000.0;

/// The overlap factor that pins `overlapping_book`'s distinct-pair pool
/// at [`SWEEP_POOL`] for an `n`-query book.
fn overlap_for(n: usize) -> f64 {
    (1.0 - SWEEP_POOL / (n as f64 * SWEEP_MEAN_LEGS)).max(0.0)
}

/// Times only the maintenance work — move application plus periodic
/// rebase, no per-tick sampling — so ns/refresh isolates the cost the
/// `Shared` mode claims to shrink.
fn bench_overlap_point(seed: u64, n_queries: usize, ticks: usize) -> SweepPoint {
    let values0 = TraceSet::stock_universe(SWEEP_ITEMS, 2, seed).initial_values();
    let queries = WorkloadGen::with_config(
        WorkloadConfig {
            n_items: SWEEP_ITEMS,
            legs: 6..=7,
            ..WorkloadConfig::default()
        },
        seed ^ n_queries as u64,
    )
    .overlapping_book(n_queries, overlap_for(n_queries), &values0);

    let plans: Vec<EvalPlan> = queries
        .iter()
        .map(|q| EvalPlan::compile(q.poly()))
        .collect();
    let readers = reader_index(&queries, values0.len());
    let shared = SharedPlan::compile(queries.iter().map(|q| q.poly()));
    let n_moves = (ticks * MOVES_PER_TICK) as f64;
    let mut moved = Vec::with_capacity(MOVES_PER_TICK);

    // Per-query delta maintenance.
    let mut values = values0.clone();
    let mut view = DeltaView::new(&plans, &values);
    let started = Instant::now();
    for tick in 0..ticks {
        moves_at(tick, &values, &mut moved);
        for &(item, v) in &moved {
            let old = values[item];
            view.apply(&plans, readers.readers(item), &values, item, old, v);
            values[item] = v;
        }
        if (tick + 1) % REBASE_EVERY == 0 {
            view.rebase(&plans, &values);
        }
    }
    black_box(view.values());
    let delta_ns_refresh = started.elapsed().as_nanos() as f64 / n_moves;

    // Shared scatter maintenance over the same move stream.
    let mut values = values0.clone();
    let mut view = SharedView::new(&shared, &values);
    let started = Instant::now();
    for tick in 0..ticks {
        moves_at(tick, &values, &mut moved);
        for &(item, v) in &moved {
            let old = values[item];
            view.apply(&shared, &values, item, old, v);
            values[item] = v;
        }
        if (tick + 1) % REBASE_EVERY == 0 {
            view.rebase(&shared, &values);
        }
    }
    black_box(view.values());
    let shared_ns_refresh = started.elapsed().as_nanos() as f64 / n_moves;

    SweepPoint {
        n_queries,
        distinct_terms: shared.n_terms(),
        shared_fanout: shared.scatter_fanout(),
        delta_ns_refresh,
        shared_ns_refresh,
        shared_bytes: shared.bytes(),
        per_query_bytes: plans.iter().map(|p| p.bytes()).sum(),
    }
}

/// Fig5-style simulation config with a selectable evaluation mode.
fn fig5_config(scale: &Scale, n_queries: usize, eval: EvalMode) -> SimConfig {
    let traces = scale.universe();
    let queries = scale
        .workload()
        .portfolio_queries(n_queries, &traces.initial_values());
    let mut cfg = SimConfig::new(traces, queries);
    cfg.gp = scale.sim_gp_options();
    cfg.strategy = SimStrategy::PerQuery {
        strategy: AssignmentStrategy::DualDab { mu: 5.0 },
        heuristic: PqHeuristic::DifferentSum,
    };
    cfg.delays = DelayConfig::planetlab_like();
    cfg.mu_cost = 5.0;
    cfg.eval = eval;
    cfg
}

fn main() {
    let args = parse_args();
    let scale = Scale::from_env();
    let ticks = if args.quick { 2_000 } else { 10_000 };
    let traces = scale.universe();
    let values0 = traces.initial_values();

    let n_fig5 = if args.quick { 50 } else { 200 };
    let fig5_queries = scale.workload().portfolio_queries(n_fig5, &values0);

    // The large synthetic book: a universe several times the fig5 scale
    // with paper-sized queries (6-7 legs, 12-14 items). Per-tick churn
    // touches a small fraction of the book, the regime delta maintenance
    // is built for.
    let n_large = if args.quick { 600 } else { 1_000 };
    let large_items = if args.quick { 400 } else { 500 };
    let large_values = TraceSet::stock_universe(large_items, 2, scale.seed).initial_values();
    let large_queries = WorkloadGen::with_config(
        WorkloadConfig {
            n_items: large_items,
            legs: 6..=7,
            ..WorkloadConfig::default()
        },
        scale.seed ^ 0xE7A1,
    )
    .portfolio_queries(n_large, &large_values);

    let m_fig5 = bench_workload(&fig5_queries, &values0, ticks);
    let m_large = bench_workload(&large_queries, &large_values, ticks);

    // Overlapping-book sweep: 1k → 8k queries over a fixed distinct-pair
    // pool. The enforce gates (shared ≥2x delta ns/refresh, sublinear
    // shared memory) read the 1k and 8k endpoints, so the sweep keeps
    // its full range even under --quick; only the tick count shrinks.
    let sweep_ticks = if args.quick { 1_200 } else { 4_000 };
    let sweep: Vec<SweepPoint> = [1_000usize, 2_000, 4_000, 8_000]
        .iter()
        .map(|&n| bench_overlap_point(scale.seed ^ 0x5EED, n, sweep_ticks))
        .collect();

    // Fig5 parity: identical seed, naive vs delta vs shared evaluation.
    // Everything but wall-clock solver time must agree; the enforce gate
    // pins the per-query violation counts byte-for-byte.
    let n_parity = if args.quick { 10 } else { 32 };
    let parity_naive = run(&fig5_config(&scale, n_parity, EvalMode::Naive)).expect("naive run");
    let parity_delta = run(&fig5_config(
        &scale,
        n_parity,
        EvalMode::Delta {
            rebase_every: REBASE_EVERY,
        },
    ))
    .expect("delta run");
    let parity_shared = run(&fig5_config(
        &scale,
        n_parity,
        EvalMode::Shared {
            rebase_every: REBASE_EVERY,
        },
    ))
    .expect("shared run");
    let violations_match = parity_naive.per_query_violations == parity_delta.per_query_violations;
    let notifications_match = parity_naive.user_notifications == parity_delta.user_notifications;
    let shared_violations_match =
        parity_naive.per_query_violations == parity_shared.per_query_violations;
    let shared_notifications_match =
        parity_naive.user_notifications == parity_shared.user_notifications;

    let row = |name: &str, m: &Measurement, n_queries: usize| {
        vec![
            name.to_string(),
            n_queries.to_string(),
            format!("{:.1}", m.naive_ns),
            format!("{:.1}", m.compiled_ns),
            format!("{:.1}", m.delta_ns),
            format!("{:.1}", m.shared_ns),
            fmt(m.naive_ns / m.compiled_ns),
            fmt(m.naive_ns / m.delta_ns),
            m.distinct_terms.to_string(),
        ]
    };
    print_table(
        "evalbench: fidelity-sampling cost (ns/sample)",
        &[
            "workload",
            "queries",
            "naive",
            "compiled",
            "delta",
            "shared",
            "compiled_x",
            "delta_x",
            "terms",
        ],
        &[
            row("fig5", &m_fig5, n_fig5),
            row("large", &m_large, n_large),
        ],
    );
    print_table(
        "evalbench: overlapping-book sweep (ns/refresh, bytes/query)",
        &[
            "queries",
            "terms",
            "fanout",
            "delta_ns",
            "shared_ns",
            "shared_x",
            "shared_B/q",
            "perquery_B/q",
        ],
        &sweep
            .iter()
            .map(|p| {
                vec![
                    p.n_queries.to_string(),
                    p.distinct_terms.to_string(),
                    p.shared_fanout.to_string(),
                    format!("{:.0}", p.delta_ns_refresh),
                    format!("{:.0}", p.shared_ns_refresh),
                    fmt(p.delta_ns_refresh / p.shared_ns_refresh),
                    format!("{:.0}", p.shared_bytes as f64 / p.n_queries as f64),
                    format!("{:.0}", p.per_query_bytes as f64 / p.n_queries as f64),
                ]
            })
            .collect::<Vec<_>>(),
    );
    println!(
        "\nfig5 parity (n={n_parity}): violations {} notifications {} \
         shared_violations {} shared_notifications {}",
        if violations_match { "match" } else { "DIFFER" },
        if notifications_match {
            "match"
        } else {
            "DIFFER"
        },
        if shared_violations_match {
            "match"
        } else {
            "DIFFER"
        },
        if shared_notifications_match {
            "match"
        } else {
            "DIFFER"
        },
    );

    let wl_json = |name: &str, m: &Measurement, n_queries: usize| {
        format!(
            "  \"{name}\": {{\n    \"n_queries\": {n_queries},\n    \
             \"ticks\": {ticks},\n    \"samples\": {},\n    \
             \"naive_ns_per_sample\": {:.2},\n    \
             \"compiled_ns_per_sample\": {:.2},\n    \
             \"delta_ns_per_sample\": {:.2},\n    \
             \"shared_ns_per_sample\": {:.2},\n    \
             \"compiled_speedup\": {:.3},\n    \"delta_speedup\": {:.3},\n    \
             \"delta_updates\": {},\n    \"scatter_updates\": {},\n    \
             \"distinct_terms\": {},\n    \"shared_bytes\": {},\n    \
             \"per_query_bytes\": {}\n  }}",
            m.samples,
            m.naive_ns,
            m.compiled_ns,
            m.delta_ns,
            m.shared_ns,
            m.naive_ns / m.compiled_ns,
            m.naive_ns / m.delta_ns,
            m.delta_updates,
            m.scatter_updates,
            m.distinct_terms,
            m.shared_bytes,
            m.per_query_bytes,
        )
    };
    let sweep_json = sweep
        .iter()
        .map(|p| {
            format!(
                "    {{\n      \"n_queries\": {},\n      \
                 \"distinct_terms\": {},\n      \"scatter_fanout\": {},\n      \
                 \"delta_ns_per_refresh\": {:.2},\n      \
                 \"shared_ns_per_refresh\": {:.2},\n      \
                 \"shared_speedup\": {:.3},\n      \
                 \"shared_bytes\": {},\n      \"per_query_bytes\": {},\n      \
                 \"shared_bytes_per_query\": {:.1},\n      \
                 \"per_query_bytes_per_query\": {:.1}\n    }}",
                p.n_queries,
                p.distinct_terms,
                p.shared_fanout,
                p.delta_ns_refresh,
                p.shared_ns_refresh,
                p.delta_ns_refresh / p.shared_ns_refresh,
                p.shared_bytes,
                p.per_query_bytes,
                p.shared_bytes as f64 / p.n_queries as f64,
                p.per_query_bytes as f64 / p.n_queries as f64,
            )
        })
        .collect::<Vec<_>>()
        .join(",\n");
    let json = format!(
        "{{\n  \"quick\": {},\n  \"rebase_every\": {REBASE_EVERY},\n\
         {},\n{},\n  \"overlap_sweep\": [\n{sweep_json}\n  ],\n  \
         \"fig5_parity\": {{\n    \"n_queries\": {n_parity},\n    \
         \"violations_match\": {violations_match},\n    \
         \"notifications_match\": {notifications_match},\n    \
         \"shared_violations_match\": {shared_violations_match},\n    \
         \"shared_notifications_match\": {shared_notifications_match}\n  }}\n}}\n",
        args.quick,
        wl_json("fig5", &m_fig5, n_fig5),
        wl_json("large", &m_large, n_large),
    );
    std::fs::write(&args.out, json).unwrap_or_else(|e| panic!("writing {}: {e}", args.out));
    println!("wrote {}", args.out);

    if args.enforce {
        let mut failed = false;
        let delta_speedup = m_large.naive_ns / m_large.delta_ns;
        if delta_speedup < MIN_DELTA_SPEEDUP {
            eprintln!(
                "FAIL: delta speedup {delta_speedup:.2}x on the large workload \
                 below the {MIN_DELTA_SPEEDUP}x floor"
            );
            failed = true;
        }
        let (lo, hi) = (&sweep[0], &sweep[sweep.len() - 1]);
        let shared_speedup = hi.delta_ns_refresh / hi.shared_ns_refresh;
        if shared_speedup < MIN_SHARED_SPEEDUP {
            eprintln!(
                "FAIL: shared ns/refresh speedup {shared_speedup:.2}x at {} queries \
                 below the {MIN_SHARED_SPEEDUP}x floor",
                hi.n_queries
            );
            failed = true;
        }
        // Sublinear memory: the shared plan's marginal bytes per added
        // query over 1k→8k must stay below the per-query plans' slope
        // (a per-query plan costs O(its terms) wherever its ids sit, so
        // the gap is what CSE saves, no longer a dense per-plan index),
        // and bytes/query must fall as the book grows.
        let shared_slope =
            (hi.shared_bytes - lo.shared_bytes) as f64 / (hi.n_queries - lo.n_queries) as f64;
        let per_query_slope =
            (hi.per_query_bytes - lo.per_query_bytes) as f64 / (hi.n_queries - lo.n_queries) as f64;
        let slope_ratio = shared_slope / per_query_slope;
        if shared_slope >= per_query_slope {
            eprintln!(
                "FAIL: shared memory slope {shared_slope:.1} B/query is not below \
                 the per-query slope {per_query_slope:.1} B/query"
            );
            failed = true;
        }
        let bpq_lo = lo.shared_bytes as f64 / lo.n_queries as f64;
        let bpq_hi = hi.shared_bytes as f64 / hi.n_queries as f64;
        if bpq_hi >= bpq_lo {
            eprintln!(
                "FAIL: shared bytes/query grew from {bpq_lo:.1} at {} queries \
                 to {bpq_hi:.1} at {} — memory is not sublinear in query count",
                lo.n_queries, hi.n_queries
            );
            failed = true;
        }
        if !violations_match {
            eprintln!(
                "FAIL: per-query violation counts differ between naive and delta \
                 evaluation:\n  naive {:?}\n  delta {:?}",
                parity_naive.per_query_violations, parity_delta.per_query_violations
            );
            failed = true;
        }
        if !notifications_match {
            eprintln!(
                "FAIL: user notifications differ between naive ({}) and delta ({})",
                parity_naive.user_notifications, parity_delta.user_notifications
            );
            failed = true;
        }
        if !shared_violations_match {
            eprintln!(
                "FAIL: per-query violation counts differ between naive and shared \
                 evaluation:\n  naive {:?}\n  shared {:?}",
                parity_naive.per_query_violations, parity_shared.per_query_violations
            );
            failed = true;
        }
        if !shared_notifications_match {
            eprintln!(
                "FAIL: user notifications differ between naive ({}) and shared ({})",
                parity_naive.user_notifications, parity_shared.user_notifications
            );
            failed = true;
        }
        if failed {
            std::process::exit(1);
        }
        println!(
            "enforce: delta speedup {delta_speedup:.2}x, shared speedup \
             {shared_speedup:.2}x at {} queries, memory slope ratio \
             {slope_ratio:.2} (bytes/query {bpq_lo:.0} -> {bpq_hi:.0}), \
             and fig5 parity (incl. shared) pass",
            hi.n_queries
        );
    }
}
