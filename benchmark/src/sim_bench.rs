//! The three simulator workloads: `pq_sim::run` on a generated config,
//! timed as a user would call it (engine build included).

use std::time::Instant;

use polyquery::obs::Obs;
use polyquery::sim::{run, run_observed, SimConfig, SimMetrics};

use crate::checks;
use crate::ctx::Ctx;
use crate::inputs::{self, Kind, Sizes};
use crate::layers::{self, Layers};
use crate::report::{Report, Values};
use crate::stats::{self, Summary};
use crate::trace::Tracer;

/// One `pq_sim::run` with its wall time in seconds.
fn timed_run(cfg: &SimConfig) -> Result<(SimMetrics, f64), String> {
    let t = Instant::now();
    let metrics = run(cfg).map_err(|e| format!("pq_sim::run: {e}"))?;
    Ok((metrics, t.elapsed().as_secs_f64()))
}

pub fn run_workload(kind: Kind, mut ctx: Ctx<'_>) -> Result<(Report, Tracer), String> {
    let seed = ctx.opts.seed;
    let sizes = Sizes::of(kind, ctx.opts.smoke);

    // Set-up, several times over so its median is steady; the inputs of
    // one set-up are dropped before the next is made.
    let (mut setup, mut tape, mut book) = (Vec::new(), Vec::new(), Vec::new());
    let mut cfg = None;
    let setups_started = Instant::now();
    while ctx.more_setups(setup.len(), setups_started) {
        drop(cfg.take());
        ctx.tracer.begin("setup");
        let t = Instant::now();
        let (inputs, tape_s, book_s) = inputs::generate(kind, sizes, seed, &mut ctx.tracer);
        let made = inputs::sim_config(kind, inputs, seed);
        let wall = t.elapsed().as_secs_f64();
        ctx.tracer.end();
        setup.push(ctx.cal.after(wall));
        tape.push(tape_s);
        book.push(book_s);
        cfg = Some(made);
    }
    let cfg = cfg.expect("at least three set-ups");
    ctx.values.set("setup_s", stats::summarize(&setup));
    ctx.values.set("ddm.generate_s", stats::summarize(&tape));
    ctx.values
        .set("workload.generate_s", stats::summarize(&book));
    let inputs_hash = inputs::inputs_hash(&cfg.traces, &cfg.queries);

    // The first run of the process is the verified one; its time is the
    // cold-run number, never an end-to-end one.
    let (first, _) = ctx.tracer.timed("sim.run", || timed_run(&cfg));
    let (reference, cold_s) = first?;
    ctx.tally.passed(1);
    ctx.values.set("sim.cold_run_s", Summary::exact(cold_s));
    let broken = checks::conservation(&reference, sizes.n_ticks);
    ctx.tally.add(4, broken.len() as u64, || broken.join("; "));

    let (mut run_s, mut wall_s, mut solver_s) = (Vec::new(), Vec::new(), Vec::new());
    let started = Instant::now();
    ctx.cal.before();
    while ctx.more_runs(run_s.len(), started) {
        let (m, wall) = timed_run(&cfg)?;
        run_s.push(ctx.cal.after(wall));
        wall_s.push(wall);
        solver_s.push(m.solver_seconds);
        ctx.tally.passed(1);
        ctx.tally.check(checks::same_metrics(&reference, &m), || {
            "a repeat of the same seed returned different SimMetrics".into()
        });
    }
    let run_time = ctx.record_runs(&run_s, reference.refreshes, reference.recomputations);

    // Check (c): with nothing in flight Condition 1 allows no violation.
    let twin = inputs::zero_delay_twin(&cfg, sizes.twin_ticks);
    match ctx.tracer.timed("sim.zero_delay_twin", || run(&twin)).0 {
        Ok(m) => {
            let violations: u64 = m.per_query_violations.iter().sum();
            ctx.values.set(
                "sim.zero_delay_violations",
                Summary::exact(violations as f64),
            );
            ctx.tally.check(violations == 0, || {
                format!("{violations} QAB violations with zero delay and zero loss")
            });
        }
        Err(e) => ctx.tally.check(false, || format!("zero-delay twin: {e}")),
    }
    drop(twin);

    if ctx.opts.trace {
        let wall = stats::summarize(&wall_s);
        ctx.values.set("bench.run_wall_s", wall);
        sim_layer(&reference, wall, &solver_s, sizes, &mut ctx.values);
        drill_downs(kind, &cfg, run_time.value, &mut ctx);
    }
    Ok(ctx.finish(kind, inputs_hash, run_s))
}

/// `pq-sim` numbers that are read off `SimMetrics` and the wall time of
/// the timed runs (`run`, not normalised: `solver_seconds` is not either).
fn sim_layer(m: &SimMetrics, run: Summary, solver_s: &[f64], sizes: Sizes, values: &mut Values) {
    let solver = stats::summarize(solver_s);
    let nonsolver_s = (run.value - solver.value).max(0.0);
    let exact = |v: u64| Summary::exact(v as f64);
    values.set("sim.solver_s", solver);
    values.set("sim.solver_share", Summary::exact(solver.value / run.value));
    values.set(
        "sim.nonsolver_us_per_refresh",
        Summary::exact(nonsolver_s * 1e6 / m.refreshes.max(1) as f64),
    );
    values.set(
        "sim.nonsolver_ns_per_item_tick",
        Summary::exact(nonsolver_s * 1e9 / sizes.item_ticks()),
    );
    values.set(
        "sim.item_ticks_per_s",
        Summary::exact(sizes.item_ticks() / run.value),
    );
    values.set(
        "sim.refreshes_per_s",
        Summary::exact(m.refreshes as f64 / run.value),
    );
    values.set("sim.refreshes", exact(m.refreshes));
    values.set("sim.recomputations", exact(m.recomputations));
    values.set("sim.user_notifications", exact(m.user_notifications));
    values.set("sim.dab_change_messages", exact(m.dab_change_messages));
    values.set("sim.lost_messages", exact(m.lost_messages));
    values.set("sim.fidelity_samples", exact(m.fidelity_samples));
    values.set("sim.ingest_batches", exact(m.ingest_batches));
    values.set(
        "sim.recompute_per_refresh",
        Summary::exact(m.recomputations as f64 / m.refreshes.max(1) as f64),
    );
    values.set(
        "sim.fidelity_loss_pct",
        Summary::exact(m.loss_in_fidelity_percent()),
    );
}

/// One more run inside span `name`, normalised like the timed ones;
/// returns its normalised seconds.
fn extra_run(ctx: &mut Ctx<'_>, name: &'static str, f: impl FnOnce() -> bool) -> f64 {
    ctx.cal.before();
    let (ok, wall) = ctx.tracer.timed(name, f);
    ctx.tally.check(ok, || format!("the {name} run failed"));
    ctx.cal.after(wall)
}

/// The runs and calls that only a traced run makes: a span around the
/// run, telemetry attached, two shards, and each layer's public
/// functions on the same inputs.
fn drill_downs(kind: Kind, cfg: &SimConfig, run_s: f64, ctx: &mut Ctx<'_>) {
    let ratio = |secs: f64| Summary::exact(secs / run_s);
    let traced_s = extra_run(ctx, "sim.run", || run(cfg).is_ok());
    ctx.values
        .set("bench.trace_overhead_ratio", ratio(traced_s));

    let (obs, _ring) = Obs::ring(4096);
    let observed_s = extra_run(ctx, "obs.ring_run", || run_observed(cfg, &obs).is_ok());
    ctx.values.set("obs.ring_overhead_ratio", ratio(observed_s));
    layers::obs_snapshot(&obs.snapshot(), &mut ctx.values);

    // The one place with more than one thread: two shards on two threads.
    let mut sharded = cfg.clone();
    sharded.shards = 2;
    let shard2_s = extra_run(ctx, "sim.shard2_run", || run(&sharded).is_ok());
    ctx.values.set("sim.shard2_run_s", Summary::exact(shard2_s));
    ctx.values
        .set("sim.shard2_speedup", Summary::exact(run_s / shard2_s));
    drop(sharded);

    let layers = Layers {
        traces: &cfg.traces,
        queries: &cfg.queries,
        options: &cfg.gp,
        smoke: ctx.opts.smoke,
    };
    let rates = layers.ddm(ctx);
    layers.poly(ctx);
    layers.scheduler(inputs::node_delay(kind), ctx);
    layers.gp(&rates, ctx);
    layers.core(&rates, ctx);
}
