//! `monitor_replay`: the deployable `Monitor` driven by a closed loop in
//! which the benchmark plays the sources. Zero delay, one client: a
//! source pushes when its value leaves the filter around the value it
//! last pushed, and applies the filter changes the call returns before
//! the next item is looked at.

use std::hint::black_box;
use std::time::Instant;

use polyquery::gp::SolverOptions;
use polyquery::obs::Obs;
use polyquery::{ItemId, Monitor, PolynomialQuery, QueryId, TraceSet};

use crate::checks::{self, Tally};
use crate::ctx::Ctx;
use crate::inputs::{self, Inputs, Kind, Sizes};
use crate::layers::{self, Layers};
use crate::report::{Report, Values};
use crate::stats::{self, Summary};
use crate::trace::Tracer;

/// A built and installed monitor with the filters it shipped.
struct Installed {
    monitor: Monitor,
    /// Per item: the filter at its source (infinite when no query reads it).
    filters: Vec<f64>,
    install_s: f64,
}

fn install(inputs: &Inputs, rates: &[f64], obs: Option<Obs>) -> Result<Installed, String> {
    let mut monitor = Monitor::new().with_threads(1);
    if let Some(obs) = obs {
        monitor = monitor.with_obs(obs);
    }
    for (i, (value, rate)) in inputs.traces.initial_values().iter().zip(rates).enumerate() {
        monitor.add_item(&format!("x{i}"), *value, *rate);
    }
    for q in &inputs.queries {
        monitor.add_query(q.clone());
    }
    let t = Instant::now();
    let shipped = monitor
        .install()
        .map_err(|e| format!("Monitor::install: {e}"))?;
    let install_s = t.elapsed().as_secs_f64();
    let mut filters = vec![f64::INFINITY; inputs.traces.n_items()];
    for (item, filter) in shipped {
        filters[item.index()] = filter;
    }
    Ok(Installed {
        monitor,
        filters,
        install_s,
    })
}

/// What one replay saw, summed over its calls.
#[derive(Debug, Default)]
struct Counts {
    calls: u64,
    notifications: u64,
    filter_changes: u64,
    recomputed: u64,
    recompute_calls: u64,
    errors: u64,
    condition1_checks: u64,
    condition1_violations: u64,
    value_mismatches: u64,
}

impl Counts {
    /// What the monitor returned, without the benchmark's own checks.
    fn outcomes(&self) -> [u64; 6] {
        [
            self.calls,
            self.notifications,
            self.filter_changes,
            self.recomputed,
            self.recompute_calls,
            self.errors,
        ]
    }
}

/// Per-call latencies in seconds, split by whether the call recomputed.
#[derive(Debug, Default)]
struct Latencies {
    plain: Vec<f64>,
    recompute: Vec<f64>,
}

/// Replays the tape from tick 1. With `verify`, every tick ends with
/// check (d): each query within its QAB of its value at the sources,
/// and `query_value` equal to an evaluation over the monitor's values.
fn replay(
    installed: &mut Installed,
    traces: &TraceSet,
    queries: &[PolynomialQuery],
    verify: bool,
    latencies: Option<&mut Latencies>,
    tracer: &mut Tracer,
) -> (Counts, f64) {
    let Installed {
        monitor, filters, ..
    } = installed;
    let n_items = traces.n_items();
    let mut pushed = traces.initial_values();
    let mut source = pushed.clone();
    let mut counts = Counts::default();
    let mut lat = latencies;
    let started = Instant::now();
    for tick in 1..traces.n_ticks() {
        for (item, value) in source.iter_mut().enumerate() {
            *value = traces.trace(item).at(tick);
        }
        // A recomputation may tighten a filter an earlier item already
        // passed this tick, so sweep until nobody is outside its filter.
        loop {
            let mut any = false;
            for item in 0..n_items {
                if (source[item] - pushed[item]).abs() <= filters[item] {
                    continue;
                }
                any = true;
                pushed[item] = source[item];
                tracer.begin("monitor.on_refresh");
                let t = Instant::now();
                let outcome = monitor.on_refresh(ItemId(item as u32), source[item]);
                let secs = t.elapsed().as_secs_f64();
                tracer.end();
                counts.calls += 1;
                let Ok(outcome) = outcome else {
                    counts.errors += 1;
                    continue;
                };
                counts.notifications += outcome.notify.len() as u64;
                counts.filter_changes += outcome.filter_changes.len() as u64;
                counts.recomputed += outcome.recomputed.len() as u64;
                counts.recompute_calls += u64::from(!outcome.recomputed.is_empty());
                if let Some(lat) = lat.as_deref_mut() {
                    if outcome.recomputed.is_empty() {
                        lat.plain.push(secs);
                    } else {
                        lat.recompute.push(secs);
                    }
                }
                for (changed, filter) in outcome.filter_changes {
                    filters[changed.index()] = filter;
                }
            }
            if !any {
                break;
            }
        }
        if verify {
            let coord: Vec<f64> = (0..n_items)
                .map(|i| monitor.value(ItemId(i as u32)).unwrap_or(f64::NAN))
                .collect();
            counts.condition1_checks += queries.len() as u64;
            counts.condition1_violations += checks::condition1_violations(queries, &source, &coord);
            for (qi, q) in queries.iter().enumerate() {
                let want = q.eval(&coord);
                let got = monitor.query_value(QueryId(qi as u32)).unwrap_or(f64::NAN);
                // A NaN on either side compares false and is counted.
                let close = (got - want).abs() <= 1e-9 * want.abs().max(1.0);
                counts.value_mismatches += u64::from(!close);
            }
        }
    }
    (counts, started.elapsed().as_secs_f64())
}

pub fn run_workload(mut ctx: Ctx<'_>) -> Result<(Report, Tracer), String> {
    let kind = Kind::MonitorReplay;
    let seed = ctx.opts.seed;
    let sizes = Sizes::of(kind, ctx.opts.smoke);

    // Set-up: inputs, rates, Monitor build and install().
    let (mut setup, mut tape, mut book, mut install_s) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut made = None;
    let setups_started = Instant::now();
    while ctx.more_setups(setup.len(), setups_started) {
        drop(made.take());
        ctx.tracer.begin("setup");
        let t = Instant::now();
        let (inputs, tape_s, book_s) = inputs::generate(kind, sizes, seed, &mut ctx.tracer);
        let rates = layers::RATE_ESTIMATOR.estimate_all(&inputs.traces);
        let (installed, _) = ctx
            .tracer
            .timed("monitor.install", || install(&inputs, &rates, None));
        let wall = t.elapsed().as_secs_f64();
        ctx.tracer.end();
        setup.push(ctx.cal.after(wall));
        let installed = installed?;
        tape.push(tape_s);
        book.push(book_s);
        install_s.push(installed.install_s);
        made = Some((inputs, rates, installed));
    }
    let (inputs, rates, mut installed) = made.expect("at least three set-ups");
    let Inputs { traces, queries } = &inputs;
    ctx.values.set("setup_s", stats::summarize(&setup));
    ctx.values.set("ddm.generate_s", stats::summarize(&tape));
    ctx.values
        .set("workload.generate_s", stats::summarize(&book));
    ctx.values
        .set("monitor.install_s", stats::summarize(&install_s));
    let inputs_hash = inputs::inputs_hash(traces, queries);

    // The verified replay, also the warm-up.
    ctx.tracer.begin("monitor.replay");
    let (reference, _) = replay(&mut installed, traces, queries, true, None, &mut ctx.tracer);
    ctx.tracer.end();
    let errors = |tally: &mut Tally, counts: &Counts| {
        tally.add(counts.calls, counts.errors, || {
            format!("{} on_refresh calls returned Err", counts.errors)
        })
    };
    errors(&mut ctx.tally, &reference);
    ctx.tally.add(
        reference.condition1_checks,
        reference.condition1_violations,
        || {
            format!(
                "{} of {} Condition-1 checks failed",
                reference.condition1_violations, reference.condition1_checks
            )
        },
    );
    ctx.tally.add(
        reference.condition1_checks,
        reference.value_mismatches,
        || {
            format!(
                "{} query_value reads differ from an evaluation over the monitor's values",
                reference.value_mismatches
            )
        },
    );

    // Timed replays, each on a freshly installed monitor; the install
    // is outside the timed region but inside the measuring window.
    let mut untraced = Tracer::new(false);
    let (mut run_s, mut wall_s) = (Vec::new(), Vec::new());
    let mut latencies = Latencies::default();
    let started = Instant::now();
    while ctx.more_runs(run_s.len(), started) {
        let mut fresh = install(&inputs, &rates, None)?;
        ctx.cal.before();
        let (counts, wall) = replay(
            &mut fresh,
            traces,
            queries,
            false,
            Some(&mut latencies),
            &mut untraced,
        );
        run_s.push(ctx.cal.after(wall));
        wall_s.push(wall);
        errors(&mut ctx.tally, &counts);
        ctx.tally
            .check(counts.outcomes() == reference.outcomes(), || {
                "a repeat of the same replay returned different outcomes".into()
            });
        installed = fresh;
    }
    let run = ctx.record_runs(&run_s, reference.calls, reference.recomputed);

    if ctx.opts.trace {
        let wall = stats::summarize(&wall_s);
        ctx.values.set("bench.run_wall_s", wall);
        monitor_layer(&reference, wall, &latencies, &mut ctx.values);

        // Reads after the replay: the monitor holds the final state.
        let n_queries = queries.len();
        let t = Instant::now();
        let mut sum = 0.0;
        const READS: usize = 200_000;
        for k in 0..READS {
            sum += installed
                .monitor
                .query_value(QueryId((k % n_queries) as u32))
                .unwrap_or(0.0);
        }
        black_box(sum);
        ctx.values.set(
            "monitor.query_value_ns",
            Summary::exact(t.elapsed().as_secs_f64() * 1e9 / READS as f64),
        );
        drop(installed);

        // One replay with a span around every call, one with telemetry.
        let mut fresh = install(&inputs, &rates, None)?;
        ctx.cal.before();
        ctx.tracer.begin("monitor.replay");
        let (_, traced_s) = replay(&mut fresh, traces, queries, false, None, &mut ctx.tracer);
        ctx.tracer.end();
        let traced_s = ctx.cal.after(traced_s);
        ctx.values.set(
            "bench.trace_overhead_ratio",
            Summary::exact(traced_s / run.value),
        );
        let (obs, _ring) = Obs::ring(4096);
        let mut observed = install(&inputs, &rates, Some(obs.clone()))?;
        ctx.cal.before();
        ctx.tracer.begin("obs.ring_run");
        let (_, observed_s) = replay(&mut observed, traces, queries, false, None, &mut untraced);
        ctx.tracer.end();
        let observed_s = ctx.cal.after(observed_s);
        ctx.values.set(
            "obs.ring_overhead_ratio",
            Summary::exact(observed_s / run.value),
        );
        layers::obs_snapshot(&obs.snapshot(), &mut ctx.values);
        drop((fresh, observed));

        // The same layers, called the way Monitor calls them: library
        // default solver tolerances.
        let options = SolverOptions::default();
        let layers = Layers {
            traces,
            queries,
            options: &options,
            smoke: ctx.opts.smoke,
        };
        layers.ddm(&mut ctx);
        layers.poly(&mut ctx);
        layers.gp(&rates, &mut ctx);
        layers.core(&rates, &mut ctx);
    }
    Ok(ctx.finish(kind, inputs_hash, run_s))
}

/// `polyquery` numbers read off the outcomes, the wall time of the
/// timed replays (`run`) and the per-call latencies pooled over them.
fn monitor_layer(counts: &Counts, run: Summary, lat: &Latencies, values: &mut Values) {
    let exact = |v: u64| Summary::exact(v as f64);
    values.set("monitor.refresh_calls", exact(counts.calls));
    values.set("monitor.notifications", exact(counts.notifications));
    values.set("monitor.filter_changes", exact(counts.filter_changes));
    values.set("monitor.recomputed", exact(counts.recomputed));
    values.set(
        "monitor.recompute_call_share",
        Summary::exact(counts.recompute_calls as f64 / counts.calls.max(1) as f64),
    );
    values.set(
        "monitor.refreshes_per_s",
        Summary::exact(counts.calls as f64 / run.value),
    );
    values.set("monitor.condition1_checks", exact(counts.condition1_checks));
    values.set(
        "monitor.condition1_violations",
        exact(counts.condition1_violations),
    );

    let all: Vec<f64> = lat.plain.iter().chain(&lat.recompute).copied().collect();
    let us = |sample: &[f64], p: f64| Summary {
        n: sample.len(),
        ..Summary::exact(if sample.is_empty() {
            0.0
        } else {
            stats::quantile(sample, p) * 1e6
        })
    };
    values.set("monitor.refresh_p50_us", us(&all, 0.5));
    values.set("monitor.refresh_p99_us", us(&all, 0.99));
    let tail = stats::highest_supported_percentile(&all).map_or(0.0, |(_, secs)| secs * 1e6);
    values.set(
        "monitor.refresh_tail_us",
        Summary {
            n: all.len(),
            ..Summary::exact(tail)
        },
    );
    values.set("monitor.norecompute_p50_us", us(&lat.plain, 0.5));
    values.set("monitor.recompute_p50_us", us(&lat.recompute, 0.5));
}
