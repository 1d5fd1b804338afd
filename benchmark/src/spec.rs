//! The benchmark's contract as data: workloads, end-to-end metrics with
//! their bounds, per-layer metrics with the layer they belong to and the
//! end-to-end number they are expected to move. `BENCHMARK.json` at the
//! repository root lists the same names; a test keeps the two in step.

pub const DEFAULT_SEED: u64 = 484_319_240;
/// A claim made on [`DEFAULT_SEED`] must also hold on this one.
pub const SECOND_SEED: u64 = 12_345;
/// Length of the timed region of one run, as `BENCHMARK.json` states it.
pub const RUN_SECONDS: u64 = 20;

pub const MAX_WORKLOADS: usize = 8;
pub const MAX_END_TO_END: usize = 16;
pub const MAX_PER_LAYER: usize = 128;
pub const MAX_BOUND: f64 = 0.25;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    /// One line: which layers it loads and which it leaves idle.
    pub why: &'static str,
}

#[derive(Debug, Clone, Copy)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen;
    /// end-to-end metrics only.
    pub bound: Option<f64>,
    /// A fixed seed gives the same value on every run of one commit, so
    /// `compare` demands equality instead of applying a bound.
    pub exact: bool,
    /// The crate the number belongs to (`e2e` for end-to-end metrics).
    pub layer: &'static str,
    pub what: &'static str,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "fig5_paper",
        why: "paper's book: 100 items, 500 PPQs of 6-7 legs, 1000 ticks via pq_sim::run; recompute-bound: pq-gp/pq-core do the work, eval plane is read-dominated, sweep idle",
    },
    Workload {
        name: "banded_sweep",
        why: "60k items, 480 disjoint portfolios, 200 ticks, lossy service-free net: the per-tick source sweep and trace layout do the work, solver idle, most items read by nobody",
    },
    Workload {
        name: "overlap_book",
        why: "400 items, 1500 queries of 3-4 legs sharing 90% of their terms, 400 ticks: each refresh fans out to dozens of queries, cross-query eval and validity checks carry half the time",
    },
    Workload {
        name: "monitor_replay",
        why: "the deployable Monitor on a fig5 book (100 items, 500 PPQs, 700 ticks), closed loop, one client: default solver tolerances, naive per-refresh eval, latency per on_refresh call",
    },
];

const fn e2e(
    name: &'static str,
    unit: &'static str,
    bound: f64,
    exact: bool,
    what: &'static str,
) -> Metric {
    Metric {
        name,
        unit,
        better: Better::Lower,
        bound: Some(bound),
        exact,
        layer: "e2e",
        what,
    }
}

pub const END_TO_END: [Metric; 4] = [
    e2e(
        "setup_s",
        "s",
        0.25,
        false,
        "input generation (tape + book + config); on monitor_replay also Monitor build + install(); median of 3 to 15 set-ups, speed-normalised",
    ),
    e2e(
        "run_s",
        "s",
        0.25,
        false,
        "median time of one pq_sim::run(&cfg) call, engine build included, or of one whole replay loop on monitor_replay, speed-normalised",
    ),
    e2e(
        "peak_rss_mb",
        "MiB",
        0.10,
        false,
        "VmHWM of the process after the last timed run, before any drill-down allocates",
    ),
    e2e(
        "total_cost_msgs",
        "msgs",
        0.25,
        true,
        "the paper's metric 4: refreshes + mu * recomputations, mu = 5",
    ),
];

const fn layer(
    layer: &'static str,
    name: &'static str,
    unit: &'static str,
    better: Better,
    exact: bool,
    what: &'static str,
) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: None,
        exact,
        layer,
        what,
    }
}

use Better::{Higher, Lower};

#[rustfmt::skip]
pub const PER_LAYER: [Metric; 64] = [
    layer("pq-ddm", "ddm.generate_s", "s", Lower, false, "TraceSet::stock_universe for the workload's tape; moves setup_s @ banded_sweep"),
    layer("pq-ddm", "ddm.rate_estimate_s", "s", Lower, false, "RateEstimator::estimate_all; moves run_s @ banded_sweep, setup_s @ monitor_replay"),
    layer("pq-ddm", "ddm.sweep_ns_per_item_tick", "ns", Lower, false, "tick-major traces.trace(i).at(t) over all items x ticks; moves run_s @ banded_sweep"),
    layer("pq-ddm", "ddm.trace_mb", "MiB", Lower, true, "items x ticks x 8 bytes; moves peak_rss_mb @ banded_sweep"),
    layer("pq-workload", "workload.generate_s", "s", Lower, false, "the WorkloadGen call that draws the book; moves setup_s"),
    layer("pq-poly", "poly.naive_eval_ns_per_query", "ns", Lower, false, "PolynomialQuery::eval over the book; moves monitor.refresh_p50_us @ monitor_replay"),
    layer("pq-poly", "poly.shared_compile_s", "s", Lower, false, "SharedPlan::compile over the book; moves run_s @ overlap_book once shared is the default"),
    layer("pq-poly", "poly.shared_full_eval_ns_per_query", "ns", Lower, false, "SharedPlan::full_eval_into; moves run_s @ overlap_book once shared is the default"),
    layer("pq-poly", "poly.shared_delta_ns_per_move", "ns", Lower, false, "delta_scatter replaying the tape's first ticks of item moves; moves run_s @ overlap_book, banded_sweep"),
    layer("pq-poly", "poly.shared_terms", "count", Lower, true, "SharedPlan::n_terms; moves peak_rss_mb @ overlap_book"),
    layer("pq-poly", "poly.shared_fanout", "count", Lower, true, "SharedPlan::scatter_fanout"),
    layer("pq-poly", "poly.shared_mb", "MiB", Lower, true, "SharedPlan::bytes"),
    layer("pq-poly", "poly.churn_us_per_op", "us", Lower, false, "retire + admit 5% of the book, then compact: writes beside reads, must not worsen when eval improves"),
    layer("pq-gp", "gp.joint16_solve_ms", "ms", Lower, false, "aao_program on the book's first 16 queries -> pq_gp::solve_with_start; moves run_s @ fig5_paper, monitor.refresh_p99_us"),
    layer("pq-gp", "gp.joint16_newton_steps", "count", Lower, true, "Newton steps of that solve"),
    layer("pq-core", "core.install_s", "s", Lower, false, "assignment_units + assign_unit_cached on empty caches, every query, tick-0 values; moves run_s (engine build), setup_s @ monitor_replay"),
    layer("pq-core", "core.assign_cold_p50_us", "us", Lower, false, "per-query latency of that cold pass"),
    layer("pq-core", "core.assign_cold_p99_us", "us", Lower, false, "per-query latency of that cold pass"),
    layer("pq-core", "core.assign_warm_p50_us", "us", Lower, false, "same caches, values advanced 60 ticks; moves run_s @ fig5_paper, monitor.refresh_p99_us"),
    layer("pq-core", "core.assign_warm_p99_us", "us", Lower, false, "same caches, values advanced 60 ticks"),
    layer("pq-core", "core.warm_speedup", "ratio", Higher, false, "cold p50 / warm p50 (base = cold p50)"),
    layer("pq-core", "core.partition_s", "s", Lower, false, "partition(input, 2) on the book; moves sim.shard2_run_s"),
    layer("pq-sim", "sim.cold_run_s", "s", Lower, false, "the first, verified run of the process; never an end-to-end number"),
    layer("pq-sim", "sim.solver_s", "s", Lower, false, "SimMetrics::solver_seconds, median over timed runs; splits run_s"),
    layer("pq-sim", "sim.solver_share", "ratio", Lower, false, "sim.solver_s / run_s: caps any pq-gp/pq-core gain"),
    layer("pq-sim", "sim.nonsolver_us_per_refresh", "us", Lower, false, "(run_s - sim.solver_s) / refreshes; moves run_s @ overlap_book"),
    layer("pq-sim", "sim.nonsolver_ns_per_item_tick", "ns", Lower, false, "(run_s - sim.solver_s) / (items x ticks); moves run_s @ banded_sweep"),
    layer("pq-sim", "sim.item_ticks_per_s", "1/s", Higher, false, "items x ticks / run_s"),
    layer("pq-sim", "sim.refreshes_per_s", "1/s", Higher, false, "refreshes / run_s"),
    layer("pq-sim", "sim.refreshes", "count", Lower, true, "SimMetrics::refreshes; a count that moves under a pure perf change is a behaviour change"),
    layer("pq-sim", "sim.recomputations", "count", Lower, true, "SimMetrics::recomputations"),
    layer("pq-sim", "sim.user_notifications", "count", Lower, true, "SimMetrics::user_notifications"),
    layer("pq-sim", "sim.dab_change_messages", "count", Lower, true, "SimMetrics::dab_change_messages"),
    layer("pq-sim", "sim.lost_messages", "count", Lower, true, "SimMetrics::lost_messages"),
    layer("pq-sim", "sim.fidelity_samples", "count", Higher, true, "SimMetrics::fidelity_samples"),
    layer("pq-sim", "sim.ingest_batches", "count", Lower, true, "SimMetrics::ingest_batches"),
    layer("pq-sim", "sim.recompute_per_refresh", "ratio", Lower, true, "recomputations / refreshes: wasted-work ratio behind total_cost_msgs"),
    layer("pq-sim", "sim.fidelity_loss_pct", "%", Lower, true, "the paper's metric 1, SimMetrics::loss_in_fidelity_percent"),
    layer("pq-sim", "sim.sched_ns_per_event", "ns", Lower, false, "TimerWheel::push + pop_until at the workload's delay distribution; moves run_s @ banded_sweep (small)"),
    layer("pq-sim", "sim.shard2_run_s", "s", Lower, false, "the same config with shards = 2 on 2 threads; report only"),
    layer("pq-sim", "sim.shard2_speedup", "ratio", Higher, false, "run_s / sim.shard2_run_s (base = run_s)"),
    layer("pq-sim", "sim.zero_delay_violations", "count", Lower, true, "QAB violations of the zero-delay, zero-loss twin: Condition 1 says 0"),
    layer("pq-obs", "obs.ring_overhead_ratio", "ratio", Lower, false, "run with Obs::ring(4096) attached / run_s (base = run_s)"),
    layer("pq-obs", "obs.gp_solves", "count", Lower, true, "gp.solve span count in that run's snapshot"),
    layer("pq-obs", "obs.warm_hit_ratio", "ratio", Higher, true, "solve.warm_hit / all solve.* outcomes: useful share of warm starts"),
    layer("pq-obs", "obs.sched_pops", "count", Lower, true, "sched.pop counter in that run's snapshot"),
    layer("polyquery", "monitor.install_s", "s", Lower, false, "Monitor::install; moves setup_s @ monitor_replay"),
    layer("polyquery", "monitor.refresh_calls", "count", Lower, true, "on_refresh calls of one replay"),
    layer("polyquery", "monitor.notifications", "count", Lower, true, "sum of RefreshOutcome::notify lengths"),
    layer("polyquery", "monitor.filter_changes", "count", Lower, true, "sum of RefreshOutcome::filter_changes lengths"),
    layer("polyquery", "monitor.recomputed", "count", Lower, true, "sum of RefreshOutcome::recomputed lengths"),
    layer("polyquery", "monitor.recompute_call_share", "ratio", Lower, true, "share of calls that recomputed at least one query"),
    layer("polyquery", "monitor.refreshes_per_s", "1/s", Higher, false, "monitor.refresh_calls / run_s"),
    layer("polyquery", "monitor.refresh_p50_us", "us", Lower, false, "median latency of one on_refresh call, pooled over timed replays: the eval path"),
    layer("polyquery", "monitor.refresh_p99_us", "us", Lower, false, "99th percentile of the same: the solve path"),
    layer("polyquery", "monitor.refresh_tail_us", "us", Lower, false, "the highest of the 99.9th, 99th, 95th, 90th percentile that has ten samples beyond it (99.9th at full size)"),
    layer("polyquery", "monitor.norecompute_p50_us", "us", Lower, false, "median latency of calls that recomputed nothing"),
    layer("polyquery", "monitor.recompute_p50_us", "us", Lower, false, "median latency of calls that recomputed"),
    layer("polyquery", "monitor.query_value_ns", "ns", Lower, false, "round-robin Monitor::query_value reads after the replay: the read path"),
    layer("polyquery", "monitor.condition1_checks", "count", Higher, true, "per-tick per-query Condition-1 checks of the verified replay"),
    layer("polyquery", "monitor.condition1_violations", "count", Lower, true, "checks that failed; 0 on a correct commit"),
    layer("bench", "bench.run_wall_s", "s", Lower, false, "median wall time of the timed runs before normalisation: what the clock on this host read"),
    layer("bench", "bench.kernel_ms", "ms", Lower, false, "median time of the reference kernel the bounded timings are normalised by; 30 ms on the quiet reference box"),
    layer("bench", "bench.trace_overhead_ratio", "ratio", Lower, false, "span-recording run / untraced median (base = untraced median)"),
];

/// Looks a metric up in both tables.
pub fn metric(name: &str) -> Option<&'static Metric> {
    END_TO_END.iter().chain(&PER_LAYER).find(|m| m.name == name)
}

/// A name starts with a letter or digit and holds at most 64 of
/// `[A-Za-z0-9_.-]`.
pub fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// A unit holds 1 to 16 of `[A-Za-z0-9_/%.-]`.
pub fn valid_unit(unit: &str) -> bool {
    (1..=16).contains(&unit.len())
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

/// Checks tables of this shape against the contract's limits.
pub fn validate(
    workloads: &[Workload],
    end_to_end: &[Metric],
    per_layer: &[Metric],
) -> Result<(), String> {
    if !(2..=MAX_WORKLOADS).contains(&workloads.len()) {
        return Err(format!(
            "{} workloads, want 2..={MAX_WORKLOADS}",
            workloads.len()
        ));
    }
    if !(1..=MAX_END_TO_END).contains(&end_to_end.len()) {
        return Err(format!(
            "{} end-to-end metrics, want 1..={MAX_END_TO_END}",
            end_to_end.len()
        ));
    }
    if !(1..=MAX_PER_LAYER).contains(&per_layer.len()) {
        return Err(format!(
            "{} per-layer metrics, want 1..={MAX_PER_LAYER}",
            per_layer.len()
        ));
    }
    let mut seen = std::collections::BTreeSet::new();
    let names = workloads
        .iter()
        .map(|w| w.name)
        .chain(end_to_end.iter().chain(per_layer).map(|m| m.name));
    for name in names {
        if !valid_name(name) {
            return Err(format!("name {name:?} is outside [A-Za-z0-9_.-]{{1,64}}"));
        }
        if !seen.insert(name) {
            return Err(format!("name {name:?} is used twice"));
        }
    }
    for w in workloads {
        if w.why.len() > 200 || w.why.contains('\n') {
            return Err(format!(
                "why of {} is not one line of at most 200 characters",
                w.name
            ));
        }
    }
    for m in end_to_end.iter().chain(per_layer) {
        if !valid_unit(m.unit) {
            return Err(format!(
                "unit {:?} of {} is outside the unit charset",
                m.unit, m.name
            ));
        }
    }
    for m in end_to_end {
        match m.bound {
            Some(b) if b > 0.0 && b <= MAX_BOUND => {}
            other => {
                return Err(format!(
                    "bound {other:?} of {} is outside (0, {MAX_BOUND}]",
                    m.name
                ))
            }
        }
    }
    if let Some(m) = per_layer.iter().find(|m| m.bound.is_some()) {
        return Err(format!("per-layer metric {} carries a bound", m.name));
    }
    match end_to_end.iter().find(|m| m.name == "setup_s") {
        Some(m) if m.unit == "s" && m.better == Better::Lower => Ok(()),
        _ => Err("setup_s (unit s, lower is better) is missing".into()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{self, Value};

    #[test]
    fn the_tables_meet_the_limits() {
        validate(&WORKLOADS, &END_TO_END, &PER_LAYER).unwrap();
    }

    #[test]
    fn name_and_unit_charsets() {
        for good in ["run_s", "sim.shard2_run_s", "a-b.c_d", "9lives"] {
            assert!(valid_name(good), "{good}");
        }
        let long = "x".repeat(65);
        for bad in ["", ".hidden", "_x", "has space", "µs", "a/b", long.as_str()] {
            assert!(!valid_name(bad), "{bad}");
        }
        for good in ["s", "1/s", "MiB", "%", "us", "ms"] {
            assert!(valid_unit(good), "{good}");
        }
        for bad in ["", "µs", "per second", "a-very-long-unit-name"] {
            assert!(!valid_unit(bad), "{bad}");
        }
    }

    #[test]
    fn the_limits_are_enforced() {
        let w = |n: usize| vec![WORKLOADS[0]; n];
        assert!(validate(&w(1), &END_TO_END, &PER_LAYER).is_err());
        let nine: Vec<Workload> = (0..9)
            .map(|i| Workload {
                name: ["w0", "w1", "w2", "w3", "w4", "w5", "w6", "w7", "w8"][i],
                why: "x",
            })
            .collect();
        assert!(validate(&nine, &END_TO_END, &PER_LAYER).is_err());
        assert!(validate(&nine[..8], &END_TO_END, &PER_LAYER).is_ok());
        // Repeating a name is refused, so 17 or 129 copies are too.
        assert!(validate(&WORKLOADS, &[END_TO_END[0]; 2], &PER_LAYER).is_err());
        assert!(validate(&WORKLOADS, &[END_TO_END[0]; 17], &PER_LAYER).is_err());
        assert!(validate(&WORKLOADS, &END_TO_END, &[PER_LAYER[0]; 129]).is_err());
        assert!(validate(&WORKLOADS, &END_TO_END, &[]).is_err());
        // Without setup_s, or with a bound above a quarter.
        assert!(validate(&WORKLOADS, &END_TO_END[1..], &PER_LAYER).is_err());
        let mut loose = END_TO_END;
        loose[1].bound = Some(0.3);
        assert!(validate(&WORKLOADS, &loose, &PER_LAYER).is_err());
    }

    /// `BENCHMARK.json` is what the driver reads; these tables are what
    /// the program prints. They must name the same things.
    #[test]
    fn benchmark_json_lists_the_same_names() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let keys: Vec<&str> = doc.entries().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        assert_eq!(
            doc.get("run_seconds").and_then(Value::as_f64),
            Some(RUN_SECONDS as f64)
        );
        let list = |key: &str| match doc.get(key) {
            Some(Value::Arr(items)) => items.clone(),
            other => panic!("{key}: {other:?}"),
        };
        let field = |v: &Value, key: &str| v.get(key).and_then(Value::as_str).unwrap().to_string();
        let got: Vec<(String, String)> = list("workloads")
            .iter()
            .map(|w| (field(w, "name"), field(w, "why")))
            .collect();
        let want: Vec<(String, String)> = WORKLOADS
            .iter()
            .map(|w| (w.name.to_string(), w.why.to_string()))
            .collect();
        assert_eq!(got, want);
        for (key, table) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let got = list(key);
            assert_eq!(got.len(), table.len(), "{key}");
            for (g, m) in got.iter().zip(table) {
                assert_eq!(field(g, "name"), m.name);
                assert_eq!(field(g, "unit"), m.unit, "{}", m.name);
                assert_eq!(field(g, "better"), m.better.as_str(), "{}", m.name);
                assert_eq!(
                    g.get("bound").and_then(Value::as_f64),
                    m.bound,
                    "{}",
                    m.name
                );
            }
        }
    }
}
