//! # pq-bench — experiment harnesses reproducing the paper's evaluation
//!
//! One binary per figure of §V (see DESIGN.md's per-experiment index):
//!
//! | Binary | Reproduces |
//! |---|---|
//! | `fig5` | Fig. 5(a–c): Dual-DAB vs Optimal Refresh for PPQs |
//! | `fig6` | Fig. 6(a–c): data-dynamics models & rate information |
//! | `fig7` | Fig. 7(a–c): EQI vs AAO-T for 10 PPQs |
//! | `fig8a` / `fig8b` | Fig. 8(a,b): HH vs DS on independent/dependent PQs |
//! | `fig8c` | Fig. 8(c): dissemination network of coordinators |
//! | `compare_related` | §V-A's DAB comparison against per-item splitting |
//! | `delay_sweep` | §V-B.1 "Effect of Varying Delays" |
//! | `ablations` | mu sensitivity, forced `c = b`, rate information |
//!
//! Each binary prints aligned ASCII tables (the paper's series) plus a CSV
//! block for plotting.
//!
//! ## Environment variables (honored uniformly by every binary)
//!
//! All harness binaries build their telemetry handle with
//! [`obs_from_env`] and their scale with [`Scale::from_env`], so the
//! same variables mean the same thing everywhere:
//!
//! | Variable | Effect |
//! |---|---|
//! | `PQ_BENCH_FULL=1` | Paper scale: 100 items, 200–1000 queries, 4000 s traces (default: quick scale) |
//! | `PQ_BENCH_SEED=n` | Base RNG seed (default `0x1CDE2008`) |
//! | `PQ_OBS_STDERR=0` | Silence the per-run `bench.run` progress lines on stderr (default: on) |
//! | `PQ_OBS_JSONL=path` | Record the **full** event trace (simulator, DAB, GP solver) as JSON Lines at `path`; analyze with `pq-trace` |
//! | `PQ_OBS_PROFILE_HZ=n` | Run the sampling profiler at `n` Hz for the process lifetime; `profile.sample` events land in the JSONL trace, rendered by `pq-trace profile` |
//! | `PQ_OBS_AUDIT=1` | Enable the continuous fidelity audit (shadow naive evaluation of 4 queries every 16th tick); see [`audit_from_env`] |
//! | `PQ_OBS_SLO=1` | Enable the fidelity SLO engine at a 0.9 target: each burn-rate or audit-divergence alert is one `slo.alert` event in the trace; see [`slo_from_env`] |
//! | `PQ_OBS_RECORDER=path` | Arm the black-box flight recorder (4096 events per thread); on an SLO alert, an audit divergence, or a panic it dumps its ring buffers as JSONL at `path` (triage with `pq-trace postmortem`) |
//! | `PQ_OBS_AUDIT_FAULT=tick:query:perturb` | Inject a delta-plane corruption (CI smoke for the alert → dump → postmortem path); implies `PQ_OBS_AUDIT=1` |

#![forbid(unsafe_code)]

pub mod heuristics;

use std::time::Instant;

use pq_ddm::TraceSet;
use pq_obs::{names, EventKind, Obs, ObsConfig};
use pq_sim::SimMetrics;
use pq_workload::{WorkloadConfig, WorkloadGen};

/// Scale knobs shared by all harness binaries.
#[derive(Debug, Clone)]
pub struct Scale {
    /// Items in the universe (paper: 100).
    pub n_items: usize,
    /// Trace length in 1 s ticks (paper: 4000 on PlanetLab, 10000 emulated).
    pub n_ticks: usize,
    /// Query counts swept by the multi-query figures (paper: 200..1000).
    pub query_counts: Vec<usize>,
    /// Base RNG seed.
    pub seed: u64,
    /// Product legs per query (paper: 6-7 → 12-14 items).
    pub legs: std::ops::RangeInclusive<usize>,
}

impl Scale {
    /// Scale selected by `PQ_BENCH_FULL` / `PQ_BENCH_SEED`.
    pub fn from_env() -> Self {
        let full = std::env::var_os("PQ_BENCH_FULL").is_some_and(|v| v != "0");
        let seed = std::env::var("PQ_BENCH_SEED")
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or(0x1CDE_2008);
        if full {
            Scale {
                n_items: 100,
                n_ticks: 4000,
                query_counts: vec![200, 600, 1000],
                seed,
                legs: 6..=7,
            }
        } else {
            Scale {
                n_items: 50,
                n_ticks: 1500,
                query_counts: vec![50, 100, 150, 200],
                seed,
                legs: 3..=4,
            }
        }
    }

    /// The synthetic stock universe for this scale.
    pub fn universe(&self) -> TraceSet {
        TraceSet::stock_universe(self.n_items, self.n_ticks, self.seed)
    }

    /// A workload generator matched to this scale.
    pub fn workload(&self) -> WorkloadGen {
        WorkloadGen::with_config(
            WorkloadConfig {
                n_items: self.n_items,
                legs: self.legs.clone(),
                ..WorkloadConfig::default()
            },
            self.seed ^ 0x517A_11AD,
        )
    }
}

/// Whether the switch `var` is set to anything but `0`.
fn env_on(var: &str) -> bool {
    std::env::var_os(var).is_some_and(|v| v != "0")
}

/// Harness telemetry configured from the environment (see the env-var
/// table in the crate docs): the [`ObsConfig`] those variables spell,
/// built by [`Obs::from_config`]. Progress lines (`bench.*` events)
/// render to stderr unless `PQ_OBS_STDERR=0`, keeping stdout clean for
/// result tables.
///
/// Panics if the JSONL path cannot be created — a harness run asked to
/// record telemetry must not silently produce nothing.
pub fn obs_from_env() -> Obs {
    let config = ObsConfig {
        jsonl: std::env::var_os("PQ_OBS_JSONL").map(Into::into),
        stderr: std::env::var_os("PQ_OBS_STDERR").is_none_or(|v| v != "0"),
        profile_hz: std::env::var("PQ_OBS_PROFILE_HZ").ok().map(|hz| {
            hz.parse()
                .unwrap_or_else(|e| panic!("PQ_OBS_PROFILE_HZ={hz}: {e}"))
        }),
        recorder: std::env::var_os("PQ_OBS_RECORDER").map(pq_obs::RecorderConfig::new),
    };
    Obs::from_config(&config).unwrap_or_else(|e| panic!("PQ_OBS_JSONL: {e}"))
}

/// Continuous fidelity-audit configuration from the environment, for
/// wiring into [`pq_sim::SimConfig::audit`]: [`pq_sim::AuditConfig`]'s
/// defaults (every 16th tick, 4 queries round-robin) when
/// `PQ_OBS_AUDIT=1` or `PQ_OBS_AUDIT_FAULT` is set. The audit is
/// read-only, so simulation metrics are byte-identical with it on or
/// off.
pub fn audit_from_env() -> Option<pq_sim::AuditConfig> {
    (env_on("PQ_OBS_AUDIT") || std::env::var_os("PQ_OBS_AUDIT_FAULT").is_some())
        .then(pq_sim::AuditConfig::default)
}

/// Fidelity SLO configuration from the environment, for wiring into
/// [`pq_sim::SimConfig::slo`]: [`pq_obs::SloConfig`]'s defaults (target
/// 0.9, i.e. a 10% error budget; 5 s/1 m paging and 1 m/1 h ticketing
/// burn-rate pairs) when `PQ_OBS_SLO=1`.
pub fn slo_from_env() -> Option<pq_obs::SloConfig> {
    env_on("PQ_OBS_SLO").then(pq_obs::SloConfig::default)
}

/// Audit fault injection from `PQ_OBS_AUDIT_FAULT=tick:query:perturb`,
/// for wiring into [`pq_sim::SimConfig::audit_fault`]. CI uses this to
/// smoke-test the whole divergence → alert → flight-recorder-dump →
/// `pq-trace postmortem` path on a real run; combine with
/// `PQ_OBS_AUDIT=1` (the fault only fires under an active audit and
/// delta evaluation).
pub fn audit_fault_from_env() -> Option<pq_sim::AuditFault> {
    let spec = std::env::var("PQ_OBS_AUDIT_FAULT").ok()?;
    let parts: Vec<&str> = spec.split(':').collect();
    let [tick, query, perturb] = parts.as_slice() else {
        panic!("PQ_OBS_AUDIT_FAULT={spec}: expected tick:query:perturb");
    };
    Some(pq_sim::AuditFault {
        tick: tick
            .parse()
            .unwrap_or_else(|e| panic!("PQ_OBS_AUDIT_FAULT tick {tick}: {e}")),
        query: query
            .parse()
            .unwrap_or_else(|e| panic!("PQ_OBS_AUDIT_FAULT query {query}: {e}")),
        perturb: perturb
            .parse()
            .unwrap_or_else(|e| panic!("PQ_OBS_AUDIT_FAULT perturb {perturb}: {e}")),
    })
}

/// Emits the `bench.run` data point for one finished simulation run.
/// Once the fidelity audit has sampled on `obs`, the point also carries
/// `audit_samples`, the handle's `audit.sample` total so far (every run
/// on the handle, this one included).
pub fn emit_sim_run(
    obs: &Obs,
    figure: &'static str,
    series: &str,
    n_queries: usize,
    m: &SimMetrics,
    started: Instant,
) {
    let series = series.to_string();
    obs.emit_with(names::BENCH_RUN, EventKind::Point, |e| {
        let e = e
            .with("figure", figure)
            .with("series", series)
            .with("n_queries", n_queries)
            .with("recomputations", m.recomputations)
            .with("refreshes", m.refreshes)
            .with("loss_percent", m.loss_in_fidelity_percent())
            .with("lost_messages", m.lost_messages)
            .with("solver_s", m.solver_seconds)
            .with("wall_s", started.elapsed().as_secs_f64());
        match obs.counter(names::AUDIT_SAMPLE).get() {
            0 => e,
            samples => e.with("audit_samples", samples),
        }
    });
}

/// Prints an aligned ASCII table followed by a machine-readable CSV block.
pub fn print_table(title: &str, header: &[&str], rows: &[Vec<String>]) {
    println!("\n== {title} ==");
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (w, cell) in widths.iter_mut().zip(row) {
            *w = (*w).max(cell.len());
        }
    }
    let line = |cells: &[String]| {
        let mut s = String::new();
        for (w, c) in widths.iter().zip(cells) {
            s.push_str(&format!("{c:>w$}  ", w = w));
        }
        println!("{}", s.trim_end());
    };
    line(&header.iter().map(|s| s.to_string()).collect::<Vec<_>>());
    line(&widths.iter().map(|w| "-".repeat(*w)).collect::<Vec<_>>());
    for row in rows {
        line(row);
    }
    println!("\n# CSV");
    println!("{}", header.join(","));
    for row in rows {
        println!("{}", row.join(","));
    }
}

/// Formats a float with sensible precision for tables.
pub fn fmt(v: f64) -> String {
    if v == 0.0 {
        "0".into()
    } else if v.abs() >= 1000.0 {
        format!("{v:.0}")
    } else if v.abs() >= 10.0 {
        format!("{v:.1}")
    } else {
        format!("{v:.3}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_scale_is_default() {
        // (Environment-dependent tests avoided; construct directly.)
        let s = Scale {
            n_items: 50,
            n_ticks: 1500,
            query_counts: vec![50],
            seed: 1,
            legs: 3..=4,
        };
        let u = s.universe();
        assert_eq!(u.n_items(), 50);
        assert_eq!(u.n_ticks(), 1500);
        let qs = s.workload().portfolio_queries(5, &u.initial_values());
        assert_eq!(qs.len(), 5);
    }

    #[test]
    fn fmt_has_stable_shapes() {
        assert_eq!(fmt(0.0), "0");
        assert_eq!(fmt(12345.6), "12346");
        assert_eq!(fmt(42.42), "42.4");
        assert_eq!(fmt(1.23456), "1.235");
    }
}
