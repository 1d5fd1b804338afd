//! Cold vs warm GP-solve microbenchmark over the fig5 workload.
//!
//! Measures what the warm-start cache ([`pq_core::UnitCache`]) buys on the
//! steady-state recomputation load of the Fig. 5 experiment: portfolio
//! PPQs under Dual-DAB whose item values drift a little between
//! consecutive DAB recomputations.
//!
//! Three measurements, written to `BENCH_solver.json`:
//!
//! * **cold ns/solve** — `assign_unit` with no cache: compile + predicted
//!   start + solve from it, every time;
//! * **warm ns/solve** — `assign_unit_cached` with a persistent per-unit
//!   cache: compiled-program reuse, warm start from the previous optimum,
//!   allocation-free solver iterations;
//! * **recompute throughput** — warm recomputes/second through the
//!   bounded parallel fan-out ([`pq_core::recompute_parallel`]) at the
//!   machine's available parallelism.
//!
//! The warm-hit / warm-repair / cold-fallback counters come from the same
//! run's `pq_obs` registry. A separate untimed pass counts **Newton steps
//! per cold and per warm solve**: unlike the clock they repeat exactly,
//! so they are what a solver change is gated on.
//!
//! Usage: `solvebench [--quick] [--enforce] [--out PATH]`
//!
//! `--quick` shrinks the workload for CI; `--enforce` exits non-zero when
//! the mean Newton steps exceed 10 per cold or per warm solve, a cold
//! solve takes over 2 steps more than a warm one, or the warm-hit rate is
//! below 80%. The clock speedup of warm over cold is reported, not gated:
//! a cold solve starts from the predicted optimum and costs what a warm
//! one does plus the compile.

use std::time::Instant;

use pq_bench::{fmt, print_table, Scale};
use pq_core::{
    aao_program, assign_unit, assign_unit_cached, assignment_units, default_recompute_threads,
    recompute_parallel, AssignmentStrategy, AssignmentUnit, PqHeuristic, RecomputeJob, SolveCache,
    SolveContext,
};
use pq_ddm::{DataDynamicsModel, RateEstimator};
use pq_gp::{CompiledGp, GpSolution, KktMode, SolveWorkspace, SolverOptions};
use pq_obs::{names, Obs};
use pq_poly::{ItemId, PolynomialQuery};

/// Mean Newton steps per cold / per warm solve `--enforce` allows on the
/// fig5 steady-state workload (the barrier ladder took 78 and 19, the
/// uniform scalar start 15 cold).
const MAX_COLD_STEPS: f64 = 10.0;
const MAX_WARM_STEPS: f64 = 10.0;
/// Mean Newton steps a cold solve may take beyond a warm one.
const MAX_COLD_OVER_WARM_STEPS: f64 = 2.0;
/// Warm-hit floor `--enforce` holds the cache to.
const MIN_HIT_RATE: f64 = 0.8;
/// Sparse-over-dense warm speedup floor `--enforce` holds the n = 2048
/// sweep point to (the dense→sparse crossover gate).
const MIN_SPARSE_CROSSOVER: f64 = 5.0;
/// Dense/sparse per-unit solution agreement floor on the fig5 workload.
const MAX_PARITY_REL_DIFF: f64 = 1e-3;

struct Args {
    quick: bool,
    enforce: bool,
    out: String,
}

fn parse_args() -> Args {
    let mut args = Args {
        quick: false,
        enforce: false,
        out: "BENCH_solver.json".to_string(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--quick" => args.quick = true,
            "--enforce" => args.enforce = true,
            "--out" => args.out = it.next().expect("--out needs a path"),
            other => {
                eprintln!("unknown argument {other}; usage: solvebench [--quick] [--enforce] [--out PATH]");
                std::process::exit(2);
            }
        }
    }
    args
}

/// Deterministic per-round multiplicative drift, small enough to model
/// the between-recomputes movement a DAB permits (a few tenths of a
/// percent per item per round). Plain LCG — no RNG state to share with
/// anything else.
fn drift_factor(round: usize, item: usize) -> f64 {
    let mut s = (round as u64)
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(item as u64)
        .wrapping_mul(0xBF58_476D_1CE4_E5B9);
    s ^= s >> 31;
    // Uniform in [-1, 1) scaled to +/-0.3%.
    let u = (s % 10_000) as f64 / 5_000.0 - 1.0;
    1.0 + 0.003 * u
}

fn apply_drift(values: &mut [f64], round: usize) {
    for (i, v) in values.iter_mut().enumerate() {
        *v *= drift_factor(round, i);
    }
}

struct Workload {
    units: Vec<Vec<AssignmentUnit>>,
    values0: Vec<f64>,
    rates: Vec<f64>,
    strategy: AssignmentStrategy,
    ddm: DataDynamicsModel,
    gp: SolverOptions,
}

impl Workload {
    /// Solve context with the pass's telemetry handle attached, so each
    /// pass gets its own `gp.solve_ns` histogram and `solve.*` counters.
    fn ctx<'a>(&'a self, values: &'a [f64], obs: &Obs) -> SolveContext<'a> {
        let mut gp = self.gp.clone();
        gp.obs = obs.clone();
        SolveContext {
            values,
            rates: &self.rates,
            ddm: self.ddm,
            gp,
        }
    }

    fn n_units(&self) -> usize {
        self.units.iter().map(Vec::len).sum()
    }
}

fn build_workload(quick: bool) -> Workload {
    let scale = Scale::from_env();
    let n_queries = if quick { 12 } else { 32 };
    let traces = scale.universe();
    let values0 = traces.initial_values();
    let queries = scale.workload().portfolio_queries(n_queries, &values0);
    let strategy = AssignmentStrategy::DualDab { mu: 5.0 };
    let units = queries
        .iter()
        .map(|q| assignment_units(q, strategy, PqHeuristic::DifferentSum))
        .collect();
    Workload {
        units,
        values0,
        rates: RateEstimator::SampledAverage { interval_ticks: 60 }.estimate_all(&traces),
        strategy,
        ddm: DataDynamicsModel::Monotonic,
        gp: scale.sim_gp_options(),
    }
}

/// Cold pass: every recompute pays compile + feasible start + full solve.
/// Reports the *fastest* round's ns/solve (the rounds are statistically
/// identical, so the minimum strips scheduler noise).
fn bench_cold(w: &Workload, rounds: usize, obs: &Obs) -> (f64, u64) {
    let mut values = w.values0.clone();
    let mut solves = 0u64;
    let mut best = f64::INFINITY;
    for round in 0..rounds {
        apply_drift(&mut values, round);
        let round_solves = w.n_units() as u64;
        let started = Instant::now();
        for units in &w.units {
            for u in units {
                let ctx = w.ctx(&values, obs);
                assign_unit(u, &ctx, w.strategy).expect("cold solve");
            }
        }
        best = best.min(started.elapsed().as_nanos() as f64 / round_solves as f64);
        solves += round_solves;
    }
    (best, solves)
}

/// Warm pass: identical drift sequence through persistent caches. The
/// seeding round (cold starts) runs untimed so ns/solve reflects the
/// steady state.
fn bench_warm(w: &Workload, rounds: usize, cache: &mut SolveCache, obs: &Obs) -> (f64, u64) {
    let unit_counts: Vec<usize> = w.units.iter().map(Vec::len).collect();
    cache.resize(&unit_counts);
    let mut values = w.values0.clone();
    for (qi, units) in w.units.iter().enumerate() {
        for (ui, u) in units.iter().enumerate() {
            let ctx = w.ctx(&values, &Obs::null());
            assign_unit_cached(u, &ctx, w.strategy, cache.unit_mut(qi, ui)).expect("seed solve");
        }
    }
    let mut solves = 0u64;
    let mut best = f64::INFINITY;
    for round in 0..rounds {
        apply_drift(&mut values, round);
        let round_solves = w.n_units() as u64;
        let started = Instant::now();
        for (qi, units) in w.units.iter().enumerate() {
            for (ui, u) in units.iter().enumerate() {
                let ctx = w.ctx(&values, obs);
                assign_unit_cached(u, &ctx, w.strategy, cache.unit_mut(qi, ui))
                    .expect("warm solve");
            }
        }
        best = best.min(started.elapsed().as_nanos() as f64 / round_solves as f64);
        solves += round_solves;
    }
    (best, solves)
}

/// Mean Newton steps per solve over one untimed cold round and one warm
/// round (seeded caches, then the first drift), read from the `gp.solve`
/// summary events.
fn newton_steps(w: &Workload) -> (f64, f64) {
    let mean_steps = |ring: &pq_obs::RingBufferSubscriber| {
        assert_eq!(ring.dropped(), 0, "ring too small for the step count");
        let steps: Vec<u64> = ring
            .events()
            .iter()
            .filter(|e| e.target == names::GP_SOLVE)
            .filter_map(|e| match e.field("newton_steps") {
                Some(pq_obs::Value::U64(n)) => Some(*n),
                _ => None,
            })
            .collect();
        assert_eq!(steps.len(), w.n_units(), "one solve per unit");
        steps.iter().sum::<u64>() as f64 / steps.len() as f64
    };
    let mut drifted = w.values0.clone();
    apply_drift(&mut drifted, 0);

    let (obs, ring) = Obs::ring(1 << 18);
    for u in w.units.iter().flatten() {
        assign_unit(u, &w.ctx(&drifted, &obs), w.strategy).expect("cold solve");
    }
    let cold = mean_steps(&ring);

    let (obs, ring) = Obs::ring(1 << 18);
    for u in w.units.iter().flatten() {
        let mut cache = pq_core::UnitCache::new();
        assign_unit_cached(u, &w.ctx(&w.values0, &Obs::null()), w.strategy, &mut cache)
            .expect("seed solve");
        assign_unit_cached(u, &w.ctx(&drifted, &obs), w.strategy, &mut cache).expect("warm solve");
    }
    (cold, mean_steps(&ring))
}

/// Throughput pass: batched warm recomputes through the parallel fan-out,
/// continuing the same drift sequence on the warmed caches.
fn bench_throughput(
    w: &Workload,
    rounds: usize,
    first_round: usize,
    cache: &mut SolveCache,
    threads: usize,
    obs: &Obs,
) -> (f64, u64) {
    let mut values = w.values0.clone();
    for round in 0..first_round {
        apply_drift(&mut values, round);
    }
    let mut solves = 0u64;
    let started = Instant::now();
    for round in first_round..first_round + rounds {
        apply_drift(&mut values, round);
        let mut jobs: Vec<RecomputeJob<'_>> = Vec::with_capacity(w.n_units());
        for (qi, units) in w.units.iter().enumerate() {
            for (ui, u) in units.iter().enumerate() {
                jobs.push(RecomputeJob {
                    qi,
                    ui,
                    unit: u,
                    ctx: w.ctx(&values, obs),
                    cache: cache.take(qi, ui),
                });
            }
        }
        solves += jobs.len() as u64;
        for d in recompute_parallel(jobs, w.strategy, threads) {
            cache.put_back(d.qi, d.ui, d.cache);
            d.result.expect("throughput solve");
        }
    }
    let secs = started.elapsed().as_secs_f64();
    (solves as f64 / secs, solves)
}

// ---------------------------------------------------------------------------
// Unit-size sweep: dense→sparse crossover on AAO-structured programs
// ---------------------------------------------------------------------------
//
// Each sweep point builds one joint AAO program ([`pq_core::aao_program`])
// over `Q` two-leg portfolio queries sharing a pool of `I` items, giving
// `n = I + 5Q` GP variables (one shared `b` per item, four `c` plus one
// `R` per query). Cold solves pay the full solve; warm rounds
// drift the item values, refresh the compiled program in place and
// re-solve from the previous optimum — the regime the engine lives in.
// Dense cold runs only at the small sizes (it is cubic per Newton step);
// dense warm additionally at n = 2048 for the crossover gate, seeded
// from the sparse solution so the gate never waits on a dense cold solve.

/// Recompute-rate weight of the sweep's AAO objective.
const SWEEP_MU: f64 = 5.0;

struct SweepPoint {
    n_items: usize,
    n_queries: usize,
    n_vars: usize,
    n_terms: usize,
    sparse_cold_ns: f64,
    sparse_warm_ns: f64,
    dense_cold_ns: Option<f64>,
    dense_warm_ns: Option<f64>,
}

/// `Q` two-leg portfolio queries over a pool of `I` items, wired so every
/// item is referenced and consecutive queries overlap (one connected
/// AAO unit, like a hot shard).
fn sweep_queries(n_items: usize, n_queries: usize) -> Vec<PolynomialQuery> {
    (0..n_queries)
        .map(|k| {
            let at = |o: usize| ItemId(((4 * k + o) % n_items) as u32);
            PolynomialQuery::portfolio(
                [
                    (1.5 + (k % 5) as f64 * 0.3, at(0), at(1)),
                    (1.0 + (k % 3) as f64 * 0.5, at(2), at(3)),
                ],
                40.0 + (k % 7) as f64 * 5.0,
            )
            .expect("sweep query")
        })
        .collect()
}

fn sweep_ctx<'a>(values: &'a [f64], rates: &'a [f64], gp: SolverOptions) -> SolveContext<'a> {
    SolveContext {
        values,
        rates,
        ddm: DataDynamicsModel::Monotonic,
        gp,
    }
}

fn sweep_opts(kkt: KktMode) -> SolverOptions {
    SolverOptions {
        kkt,
        ..Scale::from_env().sim_gp_options()
    }
}

/// Fastest of `reps` cold solves, plus the last solution (the warm
/// passes seed from it).
fn sweep_cold(
    queries: &[PolynomialQuery],
    values: &[f64],
    rates: &[f64],
    opts: &SolverOptions,
    reps: usize,
) -> (f64, GpSolution) {
    let ctx = sweep_ctx(values, rates, opts.clone());
    let prog = aao_program(queries, &ctx, SWEEP_MU).expect("sweep program");
    let mut best = f64::INFINITY;
    let mut sol = None;
    for _ in 0..reps {
        let started = Instant::now();
        let s = pq_gp::solve_with_start(&prog.problem, &prog.start, opts).expect("sweep cold");
        best = best.min(started.elapsed().as_nanos() as f64);
        sol = Some(s);
    }
    (best, sol.expect("at least one rep"))
}

/// Fastest warm round: drift the values, refresh the compiled program in
/// place (`update_from` keeps the cached symbolic factorization — only
/// coefficients change), warm-start from the previous optimum.
fn sweep_warm(
    queries: &[PolynomialQuery],
    values0: &[f64],
    rates: &[f64],
    opts: &SolverOptions,
    seed_x: &[f64],
    rounds: usize,
) -> f64 {
    let mut values = values0.to_vec();
    let ctx = sweep_ctx(&values, rates, opts.clone());
    let prog0 = aao_program(queries, &ctx, SWEEP_MU).expect("sweep program");
    let mut compiled = CompiledGp::compile(&prog0.problem).expect("sweep compile");
    if opts.kkt == KktMode::Sparse {
        compiled.prepare_sparse();
    }
    let mut ws = SolveWorkspace::new();
    let mut prev = seed_x.to_vec();
    let mut best = f64::INFINITY;
    for round in 0..rounds {
        apply_drift(&mut values, round);
        let ctx = sweep_ctx(&values, rates, opts.clone());
        let prog = aao_program(queries, &ctx, SWEEP_MU).expect("sweep program");
        let started = Instant::now();
        compiled.update_from(&prog.problem).expect("sweep refresh");
        let (sol, _) = compiled
            .solve_warm(&prev, &prog.start, opts, &mut ws)
            .expect("sweep warm");
        best = best.min(started.elapsed().as_nanos() as f64);
        prev = sol.x;
    }
    best
}

fn bench_sweep(quick: bool) -> Vec<SweepPoint> {
    // n = I + 5Q ∈ {128, 512, 2048, 10240}.
    let mut sizes = vec![(48usize, 16usize), (192, 64), (768, 256)];
    if !quick {
        sizes.push((3840, 1280));
    }
    let mut out = Vec::new();
    for (n_items, n_queries) in sizes {
        let queries = sweep_queries(n_items, n_queries);
        let values0: Vec<f64> = (0..n_items).map(|i| 4.0 + (i % 13) as f64).collect();
        let rates: Vec<f64> = (0..n_items).map(|i| 0.02 + 0.01 * (i % 7) as f64).collect();
        let n_vars = n_items + 5 * n_queries;
        let (cold_reps, warm_rounds) = if n_vars <= 512 { (3, 6) } else { (1, 3) };

        let sparse = sweep_opts(KktMode::Sparse);
        let (sparse_cold_ns, sparse_sol) =
            sweep_cold(&queries, &values0, &rates, &sparse, cold_reps);
        let sparse_warm_ns = sweep_warm(
            &queries,
            &values0,
            &rates,
            &sparse,
            &sparse_sol.x,
            warm_rounds,
        );

        let dense = sweep_opts(KktMode::Dense);
        let dense_cold_ns =
            (n_vars <= 512).then(|| sweep_cold(&queries, &values0, &rates, &dense, cold_reps).0);
        // Dense warm at the crossover point seeds from the *sparse*
        // solution: a dense cold solve at n = 2048 would dominate the
        // whole sweep's runtime without informing any gate.
        let dense_warm_ns = (n_vars <= 2048).then(|| {
            let rounds = if n_vars <= 512 { warm_rounds } else { 2 };
            sweep_warm(&queries, &values0, &rates, &dense, &sparse_sol.x, rounds)
        });

        let ctx = sweep_ctx(&values0, &rates, sparse.clone());
        let n_terms = aao_program(&queries, &ctx, SWEEP_MU)
            .expect("sweep program")
            .problem
            .total_terms();
        out.push(SweepPoint {
            n_items,
            n_queries,
            n_vars,
            n_terms,
            sparse_cold_ns,
            sparse_warm_ns,
            dense_cold_ns,
            dense_warm_ns,
        });
    }
    out
}

/// Worst dense-vs-sparse relative difference across the fig5 workload's
/// per-unit solutions (primary DABs and recompute rates) — the parity
/// check `--enforce` gates on.
fn fig5_parity(w: &Workload) -> f64 {
    let mut worst = 0.0f64;
    for units in &w.units {
        for u in units {
            let mut ctx_d = w.ctx(&w.values0, &Obs::null());
            ctx_d.gp.kkt = KktMode::Dense;
            let mut ctx_s = w.ctx(&w.values0, &Obs::null());
            ctx_s.gp.kkt = KktMode::Sparse;
            let d = assign_unit(u, &ctx_d, w.strategy).expect("parity dense");
            let s = assign_unit(u, &ctx_s, w.strategy).expect("parity sparse");
            for (item, bd) in &d.primary {
                let bs = s.primary[item];
                worst = worst.max((bd - bs).abs() / bd.abs().max(1e-12));
            }
            worst = worst.max(
                (d.recompute_rate - s.recompute_rate).abs() / d.recompute_rate.abs().max(1e-12),
            );
        }
    }
    worst
}

fn main() {
    let args = parse_args();
    let rounds = if args.quick { 6 } else { 20 };
    let w = build_workload(args.quick);
    let threads = default_recompute_threads();

    let (cold_obs, warm_obs) = (Obs::null(), Obs::null());
    let (cold_ns, cold_solves) = bench_cold(&w, rounds, &cold_obs);
    let mut cache = SolveCache::new();
    let (warm_ns, warm_solves) = bench_warm(&w, rounds, &mut cache, &warm_obs);
    let (cold_steps, warm_steps) = newton_steps(&w);
    let (throughput, throughput_solves) =
        bench_throughput(&w, rounds, rounds, &mut cache, threads, &warm_obs);
    let sweep = bench_sweep(args.quick);
    let parity = fig5_parity(&w);

    let gp_ns = |o: &Obs| {
        o.snapshot()
            .histograms
            .get("gp.solve_ns")
            .map(|h| h.mean)
            .unwrap_or(0.0)
    };
    let cold_gp_ns = gp_ns(&cold_obs);
    let warm_gp_ns = gp_ns(&warm_obs);

    let snap = warm_obs.snapshot();
    let count = |name: &str| snap.counters.get(name).copied().unwrap_or(0);
    let warm_hit = count(names::SOLVE_WARM_HIT);
    let warm_repair = count(names::SOLVE_WARM_REPAIR);
    let cold_fallback = count(names::SOLVE_COLD_FALLBACK);
    let cold_start = count(names::SOLVE_COLD_START);
    let warm_attempts = warm_hit + warm_repair + cold_fallback;
    let hit_rate = if warm_attempts > 0 {
        warm_hit as f64 / warm_attempts as f64
    } else {
        0.0
    };
    let speedup = cold_ns / warm_ns;

    print_table(
        "solvebench: cold vs warm recomputation (fig5 workload)",
        &["metric", "value"],
        &[
            vec!["cold ns/solve".into(), format!("{cold_ns:.0}")],
            vec!["warm ns/solve".into(), format!("{warm_ns:.0}")],
            vec!["speedup".into(), fmt(speedup)],
            vec!["cold newton steps/solve".into(), format!("{cold_steps:.2}")],
            vec!["warm newton steps/solve".into(), format!("{warm_steps:.2}")],
            vec!["cold gp ns/solve".into(), format!("{cold_gp_ns:.0}")],
            vec!["warm gp ns/solve".into(), format!("{warm_gp_ns:.0}")],
            vec!["cold solves".into(), cold_solves.to_string()],
            vec!["warm solves".into(), warm_solves.to_string()],
            vec!["throughput (solves/s)".into(), format!("{throughput:.0}")],
            vec!["throughput solves".into(), throughput_solves.to_string()],
            vec!["fan-out threads".into(), threads.to_string()],
            vec!["warm_hit".into(), warm_hit.to_string()],
            vec!["warm_repair".into(), warm_repair.to_string()],
            vec!["cold_fallback".into(), cold_fallback.to_string()],
            vec!["cold_start".into(), cold_start.to_string()],
            vec!["warm-hit rate".into(), fmt(hit_rate)],
        ],
    );

    let na = || "-".to_string();
    print_table(
        "solvebench: unit-size sweep (AAO programs, n = items + 5*queries)",
        &[
            "n_vars",
            "terms",
            "sparse cold ns",
            "sparse warm ns",
            "dense cold ns",
            "dense warm ns",
        ],
        &sweep
            .iter()
            .map(|p| {
                vec![
                    p.n_vars.to_string(),
                    p.n_terms.to_string(),
                    format!("{:.0}", p.sparse_cold_ns),
                    format!("{:.0}", p.sparse_warm_ns),
                    p.dense_cold_ns.map_or_else(na, |v| format!("{v:.0}")),
                    p.dense_warm_ns.map_or_else(na, |v| format!("{v:.0}")),
                ]
            })
            .collect::<Vec<_>>(),
    );
    println!("fig5 dense/sparse parity: max rel diff {parity:.2e}");

    let crossover_speedup = sweep
        .iter()
        .find(|p| p.n_vars == 2048)
        .and_then(|p| p.dense_warm_ns.map(|d| d / p.sparse_warm_ns));
    if let Some(s) = crossover_speedup {
        println!("dense→sparse crossover at n=2048: sparse is {s:.1}x faster (warm)");
    }
    let dense512_cold = sweep
        .iter()
        .find(|p| p.n_vars == 512)
        .and_then(|p| p.dense_cold_ns);
    let sparse10k = sweep.iter().find(|p| p.n_vars == 10240);
    if let (Some(d512), Some(p10k)) = (dense512_cold, sparse10k) {
        println!(
            "scale check: sparse n=10240 cold {:.1} ms vs dense n=512 cold {:.1} ms ({:.2}x)",
            p10k.sparse_cold_ns / 1e6,
            d512 / 1e6,
            p10k.sparse_cold_ns / d512
        );
    }

    let sweep_json: String = sweep
        .iter()
        .map(|p| {
            let opt = |v: Option<f64>| v.map_or("null".to_string(), |x| format!("{x:.1}"));
            format!(
                "    {{ \"n_vars\": {}, \"n_items\": {}, \"n_queries\": {}, \"n_terms\": {}, \
                 \"sparse_cold_ns\": {:.1}, \"sparse_warm_ns\": {:.1}, \
                 \"dense_cold_ns\": {}, \"dense_warm_ns\": {} }}",
                p.n_vars,
                p.n_items,
                p.n_queries,
                p.n_terms,
                p.sparse_cold_ns,
                p.sparse_warm_ns,
                opt(p.dense_cold_ns),
                opt(p.dense_warm_ns),
            )
        })
        .collect::<Vec<_>>()
        .join(",\n");

    let json = format!(
        "{{\n  \"workload\": \"fig5-steady-state\",\n  \"quick\": {},\n  \
         \"cold_ns_per_solve\": {:.1},\n  \"warm_ns_per_solve\": {:.1},\n  \
         \"speedup\": {:.3},\n  \"cold_newton_steps_per_solve\": {:.2},\n  \
         \"warm_newton_steps_per_solve\": {:.2},\n  \
         \"cold_solves\": {},\n  \"warm_solves\": {},\n  \
         \"recompute_throughput_per_sec\": {:.1},\n  \"throughput_solves\": {},\n  \
         \"fanout_threads\": {},\n  \"counters\": {{\n    \
         \"solve.warm_hit\": {},\n    \"solve.warm_repair\": {},\n    \
         \"solve.cold_fallback\": {},\n    \"solve.cold_start\": {}\n  }},\n  \
         \"warm_hit_rate\": {:.4},\n  \
         \"fig5_parity_max_rel_diff\": {:.3e},\n  \
         \"sparse_crossover_speedup_2048\": {},\n  \
         \"unit_size_sweep\": [\n{}\n  ]\n}}\n",
        args.quick,
        cold_ns,
        warm_ns,
        speedup,
        cold_steps,
        warm_steps,
        cold_solves,
        warm_solves,
        throughput,
        throughput_solves,
        threads,
        warm_hit,
        warm_repair,
        cold_fallback,
        cold_start,
        hit_rate,
        parity,
        crossover_speedup.map_or("null".to_string(), |s| format!("{s:.2}")),
        sweep_json,
    );
    std::fs::write(&args.out, json).unwrap_or_else(|e| panic!("writing {}: {e}", args.out));
    println!("\nwrote {}", args.out);

    if args.enforce {
        let mut failed = false;
        if cold_steps > MAX_COLD_STEPS || warm_steps > MAX_WARM_STEPS {
            eprintln!(
                "FAIL: {cold_steps:.2} cold / {warm_steps:.2} warm Newton steps per solve \
                 above the {MAX_COLD_STEPS} / {MAX_WARM_STEPS} ceilings"
            );
            failed = true;
        }
        if cold_steps > warm_steps + MAX_COLD_OVER_WARM_STEPS {
            eprintln!(
                "FAIL: a cold solve takes {:.2} Newton steps more than a warm one, \
                 above the {MAX_COLD_OVER_WARM_STEPS} allowed",
                cold_steps - warm_steps
            );
            failed = true;
        }
        if hit_rate < MIN_HIT_RATE {
            eprintln!(
                "FAIL: warm-hit rate {:.1}% below the {:.0}% floor",
                hit_rate * 100.0,
                MIN_HIT_RATE * 100.0
            );
            failed = true;
        }
        match crossover_speedup {
            Some(s) if s < MIN_SPARSE_CROSSOVER => {
                eprintln!(
                    "FAIL: sparse warm speedup {s:.2}x at n=2048 below the \
                     {MIN_SPARSE_CROSSOVER}x crossover floor"
                );
                failed = true;
            }
            None => {
                eprintln!("FAIL: sweep produced no n=2048 crossover measurement");
                failed = true;
            }
            _ => {}
        }
        if parity > MAX_PARITY_REL_DIFF {
            eprintln!(
                "FAIL: fig5 dense/sparse parity {parity:.2e} above the \
                 {MAX_PARITY_REL_DIFF:.0e} floor"
            );
            failed = true;
        }
        if failed {
            std::process::exit(1);
        }
        println!(
            "enforce: {cold_steps:.1} cold / {warm_steps:.1} warm Newton steps, \
             speedup {speedup:.2}x, warm-hit rate {:.1}%, crossover {}x, \
             parity {parity:.1e} pass",
            hit_rate * 100.0,
            crossover_speedup.map_or("-".to_string(), |s| format!("{s:.1}")),
        );
    }
}
