//! Per-layer drill-downs: timed calls into one crate's public functions
//! on the inputs the workload generated. Nothing here reads the
//! program's internals; each number is what a caller of that function
//! would see. Work is sized so a drill-down takes a fraction of a second.

use std::hint::black_box;
use std::time::Instant;

use polyquery::core::{
    aao_program, assign_unit_cached, assignment_units, partition, AssignmentUnit, PartitionInput,
    SolveCache,
};
use polyquery::gp::SolverOptions;
use polyquery::obs::Snapshot;
use polyquery::poly::SharedPlan;
use polyquery::sim::{Event, Pareto, TimerWheel};
use polyquery::{
    AssignmentStrategy, ItemId, PolynomialQuery, PqHeuristic, RateEstimator, SolveContext, TraceSet,
};

use crate::ctx::Ctx;
use crate::inputs::MU;
use crate::report::Values;
use crate::stats::{self, Summary};

/// What `SimConfig::new` and `Monitor::new` both assign with.
const STRATEGY: AssignmentStrategy = AssignmentStrategy::DualDab { mu: MU };
const HEURISTIC: PqHeuristic = PqHeuristic::DifferentSum;
/// The paper's rate sampling interval, also the warm pass's tick.
pub const RATE_ESTIMATOR: RateEstimator = RateEstimator::SampledAverage { interval_ticks: 60 };
const WARM_TICK: usize = 60;

fn scaled(times: &[f64], factor: f64) -> Summary {
    let s = stats::summarize(times);
    Summary {
        value: s.value * factor,
        q1: s.q1 * factor,
        q3: s.q3 * factor,
        n: s.n,
    }
}

/// One pass of `assign_unit_cached` over every query's units; returns
/// the per-query latencies in seconds.
fn assign_pass(
    units: &[Vec<AssignmentUnit>],
    ctx: &SolveContext<'_>,
    cache: &mut SolveCache,
) -> Result<Vec<f64>, String> {
    let mut times = Vec::with_capacity(units.len());
    for (qi, per_query) in units.iter().enumerate() {
        let t = Instant::now();
        for (ui, unit) in per_query.iter().enumerate() {
            let assigned = assign_unit_cached(unit, ctx, STRATEGY, cache.unit_mut(qi, ui))
                .map_err(|e| format!("assign_unit_cached, query {qi}: {e}"))?;
            black_box(assigned);
        }
        times.push(t.elapsed().as_secs_f64());
    }
    Ok(times)
}

/// The inputs every drill-down works on.
#[derive(Debug, Clone, Copy)]
pub struct Layers<'a> {
    pub traces: &'a TraceSet,
    pub queries: &'a [PolynomialQuery],
    /// Solver options of the path under test: the simulator's for the
    /// `pq_sim` workloads, the library defaults for `Monitor`.
    pub options: &'a SolverOptions,
    /// A smoke run spends a twentieth of each drill-down's time.
    pub smoke: bool,
}

impl Layers<'_> {
    /// Inside span `name`, repeats `f` until about `budget_s` seconds of
    /// it have run (at least three times); returns the per-call times in
    /// seconds.
    fn repeats(
        &self,
        ctx: &mut Ctx<'_>,
        name: &'static str,
        budget_s: f64,
        mut f: impl FnMut(),
    ) -> Vec<f64> {
        let budget_s = if self.smoke {
            budget_s / 20.0
        } else {
            budget_s
        };
        let mut times = Vec::new();
        ctx.tracer.begin(name);
        let started = Instant::now();
        while times.len() < 3 || started.elapsed().as_secs_f64() < budget_s {
            let t = Instant::now();
            f();
            times.push(t.elapsed().as_secs_f64());
        }
        ctx.tracer.end();
        times
    }

    /// `pq-ddm`: rate estimation and the tick-major sweep every engine tick
    /// makes over the tape. Returns the estimated rates.
    pub fn ddm(&self, ctx: &mut Ctx<'_>) -> Vec<f64> {
        let traces = self.traces;
        let mut rates = Vec::new();
        let times = self.repeats(ctx, "ddm.rate_estimate", 0.1, || {
            rates = RATE_ESTIMATOR.estimate_all(traces)
        });
        ctx.values.set("ddm.rate_estimate_s", scaled(&times, 1.0));

        let (n_items, n_ticks) = (traces.n_items(), traces.n_ticks());
        let times = self.repeats(ctx, "ddm.sweep", 0.3, || {
            let mut sum = 0.0;
            for tick in 0..n_ticks {
                for item in 0..n_items {
                    sum += traces.trace(item).at(tick);
                }
            }
            black_box(sum);
        });
        let item_ticks = (n_items * n_ticks) as f64;
        ctx.values.set(
            "ddm.sweep_ns_per_item_tick",
            scaled(&times, 1e9 / item_ticks),
        );
        ctx.values.set(
            "ddm.trace_mb",
            Summary::exact(item_ticks * 8.0 / (1024.0 * 1024.0)),
        );
        rates
    }

    /// `pq-poly`: naive evaluation, the shared plan's compile / full / delta
    /// paths, and admit + retire churn beside them.
    pub fn poly(&self, ctx: &mut Ctx<'_>) {
        let (traces, queries) = (self.traces, self.queries);
        let n_queries = queries.len() as f64;
        let initial = traces.initial_values();

        let times = self.repeats(ctx, "poly.naive_eval", 0.1, || {
            let mut sum = 0.0;
            for q in queries {
                sum += q.eval(&initial);
            }
            black_box(sum);
        });
        ctx.values.set(
            "poly.naive_eval_ns_per_query",
            scaled(&times, 1e9 / n_queries),
        );

        let mut plan = None;
        let times = self.repeats(ctx, "poly.shared_compile", 0.1, || {
            plan = Some(SharedPlan::compile(
                queries.iter().map(PolynomialQuery::poly),
            ));
        });
        let plan = plan.expect("compiled at least once");
        ctx.values.set("poly.shared_compile_s", scaled(&times, 1.0));
        ctx.values
            .set("poly.shared_terms", Summary::exact(plan.n_terms() as f64));
        ctx.values.set(
            "poly.shared_fanout",
            Summary::exact(plan.scatter_fanout() as f64),
        );
        ctx.values.set(
            "poly.shared_mb",
            Summary::exact(plan.bytes() as f64 / (1024.0 * 1024.0)),
        );

        let (mut scratch, mut qv) = (Vec::new(), Vec::new());
        let times = self.repeats(ctx, "poly.shared_full_eval", 0.1, || {
            plan.full_eval_into(&initial, &mut scratch, &mut qv);
            black_box(&qv);
        });
        ctx.values.set(
            "poly.shared_full_eval_ns_per_query",
            scaled(&times, 1e9 / n_queries),
        );

        // The tape's own item moves, tick by tick, capped at two million so
        // the large tape costs no more than the small ones.
        let n_items = traces.n_items();
        let ticks = (2_000_000 / n_items).clamp(2, traces.n_ticks().min(101));
        let mut moves = 0u64;
        let times = self.repeats(ctx, "poly.shared_delta", 0.2, || {
            let mut values = initial.clone();
            plan.full_eval_into(&values, &mut scratch, &mut qv);
            moves = 0;
            for tick in 1..ticks {
                for item in 0..n_items {
                    let (old, new) = (values[item], traces.trace(item).at(tick));
                    if new != old {
                        black_box(plan.delta_scatter(
                            &values,
                            ItemId(item as u32),
                            old,
                            new,
                            &mut qv,
                        ));
                        values[item] = new;
                        moves += 1;
                    }
                }
            }
        });
        ctx.values.set(
            "poly.shared_delta_ns_per_move",
            scaled(&times, 1e9 / moves.max(1) as f64),
        );

        let churned: Vec<u32> = (0..queries.len() as u32).step_by(20).collect();
        let times = self.repeats(ctx, "poly.churn", 0.1, || {
            let mut book = plan.clone();
            for &slot in &churned {
                black_box(book.retire(slot));
            }
            for &slot in &churned {
                black_box(book.admit(queries[slot as usize].poly()));
            }
            book.compact();
            black_box(book.n_terms());
        });
        ctx.values.set(
            "poly.churn_us_per_op",
            scaled(&times, 1e6 / (2 * churned.len()) as f64),
        );
    }

    /// `pq-gp`: one joint AAO program over the book's first 16 queries.
    /// Sixteen, not more: over 64 queries of the paper's book the solver
    /// runs into its iteration limit on 7 of 8 seeds tried, over 32 on one;
    /// over 16 it converged on all of them at both tolerances in use.
    pub fn gp(&self, rates: &[f64], ctx: &mut Ctx<'_>) {
        let options = self.options;
        let initial = self.traces.initial_values();
        let mut solve_ctx = SolveContext::new(&initial, rates);
        solve_ctx.gp = options.clone();
        let head = &self.queries[..self.queries.len().min(16)];
        let program = match aao_program(head, &solve_ctx, MU) {
            Ok(program) => program,
            Err(e) => return ctx.tally.check(false, || format!("aao_program: {e}")),
        };
        let mut steps = 0;
        let mut failure = None;
        let times =
            self.repeats(
                ctx,
                "gp.joint16_solve",
                0.3,
                || match polyquery::gp::solve_with_start(&program.problem, &program.start, options)
                {
                    Ok(solution) => steps = solution.newton_steps,
                    Err(e) => failure = Some(format!("pq_gp::solve_with_start: {e}")),
                },
            );
        ctx.tally
            .check(failure.is_none(), || failure.unwrap_or_default());
        ctx.values.set("gp.joint16_solve_ms", scaled(&times, 1e3));
        ctx.values
            .set("gp.joint16_newton_steps", Summary::exact(steps as f64));
    }

    /// `pq-core`: the install pass on empty caches, the same pass warm after
    /// the values moved 60 ticks, and the 2-way partition of the book.
    pub fn core(&self, rates: &[f64], ctx: &mut Ctx<'_>) {
        let (traces, queries) = (self.traces, self.queries);
        let units: Vec<Vec<AssignmentUnit>> = queries
            .iter()
            .map(|q| assignment_units(q, STRATEGY, HEURISTIC))
            .collect();
        let mut cache = SolveCache::new();
        cache.resize(&units.iter().map(Vec::len).collect::<Vec<_>>());
        let mut pass = |name: &'static str, values: Vec<f64>| {
            let mut solve_ctx = SolveContext::new(&values, rates);
            solve_ctx.gp = self.options.clone();
            let (times, total_s) = ctx
                .tracer
                .timed(name, || assign_pass(&units, &solve_ctx, &mut cache));
            times.map(|times| (times, total_s))
        };
        let cold = pass("core.install", traces.initial_values());
        let warm = pass(
            "core.assign_warm",
            traces.values_at(WARM_TICK.min(traces.n_ticks() - 1)),
        );
        match (cold, warm) {
            (Ok((cold, install_s)), Ok((warm, _))) => {
                let us = |times: &[f64], p: f64| Summary {
                    n: times.len(),
                    ..Summary::exact(stats::quantile(times, p) * 1e6)
                };
                let out = &mut ctx.values;
                out.set("core.install_s", Summary::exact(install_s));
                out.set("core.assign_cold_p50_us", us(&cold, 0.5));
                out.set("core.assign_cold_p99_us", us(&cold, 0.99));
                out.set("core.assign_warm_p50_us", us(&warm, 0.5));
                out.set("core.assign_warm_p99_us", us(&warm, 0.99));
                out.set(
                    "core.warm_speedup",
                    Summary::exact(stats::median(&cold) / stats::median(&warm)),
                );
                ctx.tally.passed(1);
            }
            (Err(e), _) | (_, Err(e)) => ctx.tally.check(false, || e),
        }

        let query_items: Vec<Vec<u32>> = queries
            .iter()
            .map(|q| q.items().into_iter().map(|i| i.0).collect())
            .collect();
        let query_load = vec![1.0; queries.len()];
        let input = PartitionInput {
            query_items: &query_items,
            n_items: traces.n_items(),
            item_load: rates,
            query_load: &query_load,
        };
        let times = self.repeats(ctx, "core.partition", 0.1, || {
            black_box(partition(&input, 2));
        });
        ctx.values.set("core.partition_s", scaled(&times, 1.0));
    }

    /// `pq-sim`'s scheduler alone: per tick, a burst of refresh arrivals
    /// delayed by the workload's link distribution, then everything due.
    pub fn scheduler(&self, delay: Pareto, ctx: &mut Ctx<'_>) {
        let seed = ctx.opts.seed;
        const TICKS: usize = 200;
        const PER_TICK: usize = 1000;
        let times = self.repeats(ctx, "sim.sched", 0.2, || {
            let mut wheel = TimerWheel::new();
            let mut state = seed | 1;
            let mut popped = 0usize;
            for tick in 0..TICKS {
                for item in 0..PER_TICK {
                    // xorshift64: a uniform in (0, 1] for the delay's inverse CDF.
                    state ^= state << 13;
                    state ^= state >> 7;
                    state ^= state << 17;
                    let u = ((state >> 11) as f64 + 1.0) / (1u64 << 53) as f64;
                    let event = Event::RefreshArrive { item, value: u };
                    wheel.push(tick as f64 + delay.sample_u(u), event);
                }
                while let Some(due) = wheel.pop_until((tick + 1) as f64) {
                    black_box(due);
                    popped += 1;
                }
            }
            while let Some(due) = wheel.pop_until(f64::INFINITY) {
                black_box(due);
                popped += 1;
            }
            assert_eq!(popped, TICKS * PER_TICK, "the wheel lost events");
        });
        ctx.values.set(
            "sim.sched_ns_per_event",
            scaled(&times, 1e9 / (TICKS * PER_TICK) as f64),
        );
    }
}

/// `pq-obs`: what the registry of a run with `Obs::ring` attached says
/// about the solver's warm starts and the scheduler. A name the
/// snapshot lacks reads as 0.
pub fn obs_snapshot(snapshot: &Snapshot, out: &mut Values) {
    let counter = |name: &str| snapshot.counters.get(name).copied().unwrap_or(0) as f64;
    let solves = snapshot
        .histograms
        .get("gp.solve_ns")
        .map_or(0.0, |h| h.count as f64);
    let warm = counter("solve.warm_hit");
    let outcomes = warm
        + counter("solve.warm_repair")
        + counter("solve.cold_fallback")
        + counter("solve.cold_start");
    out.set("obs.gp_solves", Summary::exact(solves));
    out.set(
        "obs.warm_hit_ratio",
        Summary::exact(if outcomes > 0.0 { warm / outcomes } else { 0.0 }),
    );
    out.set("obs.sched_pops", Summary::exact(counter("sched.pop")));
}
