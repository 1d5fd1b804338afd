//! `pqbench`: one end-to-end benchmark over the real `pq_sim::run` and
//! `Monitor` paths, with a per-layer view taken from outside.
//!
//! ```text
//! pqbench --workload NAME --seed N --seconds S --trace 0|1   one run; last stdout line is the result
//! pqbench [--seed N] [--seconds S] [--label L] [--smoke]     every workload, both ways, into results/L.json
//! pqbench compare A.json B.json                              B against A, bounds applied
//! pqbench list                                               every workload and metric, described
//! ```
//!
//! The benchmark compiles only against what the ROADMAP keeps: it never
//! names an evaluation mode, a scheduler choice or a solver backend, so
//! it measures what `SimConfig::new` and `Monitor::new` give a user.

mod calib;
mod checks;
mod compare;
mod ctx;
mod inputs;
mod json;
mod layers;
mod monitor_bench;
mod report;
mod sim_bench;
mod spec;
mod stats;
mod trace;

use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};

use ctx::Ctx;
use inputs::Kind;
use json::Value;
use report::Report;
use trace::Tracer;

/// Exit code of a run whose outputs failed a check.
const EXIT_INCORRECT: u8 = 2;

#[derive(Debug, Clone, PartialEq)]
pub struct Options {
    pub workload: Option<Kind>,
    pub seed: u64,
    /// Length of the measuring window in seconds.
    pub seconds: f64,
    pub trace: bool,
    /// Tiny books: exercises every path in seconds, measures nothing.
    pub smoke: bool,
    /// Name of the result files under `results/`.
    pub label: Option<String>,
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        workload: None,
        seed: spec::DEFAULT_SEED,
        seconds: spec::RUN_SECONDS as f64,
        trace: false,
        smoke: false,
        label: None,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{arg} needs a value"));
        match arg.as_str() {
            "--workload" => {
                let name = value()?;
                let kind = Kind::from_name(name).ok_or_else(|| {
                    let known: Vec<&str> = spec::WORKLOADS.iter().map(|w| w.name).collect();
                    format!("unknown workload {name:?}; one of {}", known.join(", "))
                })?;
                opts.workload = Some(kind);
            }
            "--seed" => opts.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                opts.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(opts.seconds.is_finite() && opts.seconds >= 0.0) {
                    return Err("--seconds must be a non-negative number".into());
                }
            }
            "--trace" => {
                opts.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--smoke" => opts.smoke = true,
            "--label" => {
                let label = value()?;
                if !spec::valid_name(label) {
                    return Err(format!("--label {label:?} is outside [A-Za-z0-9_.-]"));
                }
                opts.label = Some(label.clone());
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(opts)
}

fn results_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("results")
}

fn write_file(path: &PathBuf, text: &str) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
}

fn run_workload(kind: Kind, opts: &Options) -> Result<(Report, Tracer), String> {
    let ctx = Ctx::new(opts);
    match kind {
        Kind::MonitorReplay => monitor_bench::run_workload(ctx),
        _ => sim_bench::run_workload(kind, ctx),
    }
}

/// One workload in this process. Prints the table, a `detail` line for
/// the parent of an all-workloads run, then the result line.
fn run_one(kind: Kind, opts: &Options) -> Result<bool, String> {
    let (report, tracer) = run_workload(kind, opts)?;
    if let (true, Some(label)) = (opts.trace, &opts.label) {
        let path = results_dir().join(format!("{label}.{}.trace.json", kind.name()));
        write_file(&path, &tracer.to_json(kind.name(), 64).to_pretty())?;
    }
    print!("{}", report.table());
    if opts.trace {
        println!(
            "{:<28} {:>8} {:>14} {:>14}",
            "span", "calls", "total_ms", "self_ms"
        );
        for (name, calls, total, own) in tracer.rollup() {
            println!(
                "{name:<28} {calls:>8} {:>14.3} {:>14.3}",
                total as f64 / 1e6,
                own as f64 / 1e6
            );
        }
    }
    println!("detail {}", report.detail().to_line());
    println!("{}", report.result_line());
    Ok(report.tally.correct())
}

/// Runs `--workload kind --trace t` as a child process, one at a time,
/// and returns its detail document. The child's output is shown as-is.
fn run_child(kind: Kind, traced: bool, opts: &Options, label: &str) -> Result<Value, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", kind.name()])
        .args(["--seed", &opts.seed.to_string()])
        .args(["--seconds", &opts.seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .args(["--label", label])
        .stdout(Stdio::piped());
    if opts.smoke {
        cmd.arg("--smoke");
    }
    let output = cmd
        .output()
        .map_err(|e| format!("spawn {}: {e}", kind.name()))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut detail = None;
    for line in stdout.lines() {
        match line.strip_prefix("detail ") {
            Some(doc) => detail = Some(json::parse(doc)?),
            None if line.starts_with('{') => {}
            None => println!("{line}"),
        }
    }
    // A child that failed a check still printed its numbers; one that
    // crashed did not.
    detail.ok_or_else(|| {
        format!(
            "{} exited with {} and no result",
            kind.name(),
            output.status
        )
    })
}

/// Every workload, untraced then traced, into `results/<label>.json`.
fn run_all(opts: &Options) -> Result<bool, String> {
    let label = opts.label.clone().unwrap_or_else(|| "latest".into());
    let mut correct = true;
    let mut workloads = Vec::new();
    for kind in Kind::ALL {
        let plain = run_child(kind, false, opts, &label)?;
        let traced = run_child(kind, true, opts, &label)?;
        let flag = |doc: &Value| doc.get("correct").and_then(Value::as_bool) == Some(true);
        let count = |key: &str| {
            let of = |doc: &Value| doc.get(key).and_then(Value::as_f64).unwrap_or(0.0);
            Value::Num(of(&plain) + of(&traced))
        };
        let failures: Vec<Value> = [&plain, &traced]
            .iter()
            .filter_map(|doc| match doc.get("failures") {
                Some(Value::Arr(items)) => Some(items.clone()),
                _ => None,
            })
            .flatten()
            .collect();
        correct &= flag(&plain) && flag(&traced);
        let field = |doc: &Value, key: &str| doc.get(key).cloned().unwrap_or(Value::Null);
        workloads.push((
            kind.name(),
            Value::obj([
                ("inputs_hash", field(&plain, "inputs_hash")),
                ("correct", Value::Bool(flag(&plain) && flag(&traced))),
                ("attempted", count("attempted")),
                ("failed", count("failed")),
                ("failures", Value::Arr(failures)),
                ("run_s_samples", field(&plain, "run_s_samples")),
                ("end_to_end", field(&plain, "metrics")),
                ("per_layer", field(&traced, "metrics")),
            ]),
        ));
    }
    let doc = Value::obj([
        ("label", Value::str(label.as_str())),
        ("seed", Value::Num(opts.seed as f64)),
        ("smoke", Value::Bool(opts.smoke)),
        ("run_seconds", Value::Num(opts.seconds)),
        (
            "threads_available",
            Value::Num(std::thread::available_parallelism().map_or(1, |n| n.get()) as f64),
        ),
        ("correct", Value::Bool(correct)),
        ("workloads", Value::obj(workloads)),
    ]);
    let path = results_dir().join(format!("{label}.json"));
    write_file(&path, &doc.to_pretty())?;
    println!("wrote {}", path.display());
    Ok(correct)
}

/// Every workload with its reason, every metric with its unit,
/// direction, bound, layer and definition.
fn list() {
    println!(
        "seeds: {} (default), {} (claims must hold on it too)",
        spec::DEFAULT_SEED,
        spec::SECOND_SEED
    );
    for w in &spec::WORKLOADS {
        println!("workload {:<16} {}", w.name, w.why);
    }
    for m in spec::END_TO_END.iter().chain(&spec::PER_LAYER) {
        let bound = m.bound.map_or("-".to_string(), |b| b.to_string());
        let kind = if m.exact { "exact" } else { "measured" };
        println!(
            "{:<12} {:<36} {:<6} {:<6} bound {:<5} {kind}  {}",
            m.layer,
            m.name,
            m.unit,
            m.better.as_str(),
            bound,
            m.what
        );
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Err(e) = spec::validate(&spec::WORKLOADS, &spec::END_TO_END, &spec::PER_LAYER) {
        eprintln!("pqbench: the metric tables break the contract: {e}");
        return ExitCode::FAILURE;
    }
    let outcome = match args.first().map(String::as_str) {
        Some("list") => {
            list();
            Ok(true)
        }
        Some("compare") => match &args[1..] {
            [a, b] => compare::run(a, b),
            _ => Err("usage: pqbench compare A.json B.json".into()),
        },
        _ => parse_args(&args).and_then(|opts| match opts.workload {
            Some(kind) => run_one(kind, &opts),
            None => run_all(&opts),
        }),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(EXIT_INCORRECT),
        Err(e) => {
            eprintln!("pqbench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn the_driver_s_arguments_parse() {
        let opts = parse_args(&args(&[
            "--workload",
            "banded_sweep",
            "--seed",
            "99",
            "--seconds",
            "10",
            "--trace",
            "1",
        ]))
        .unwrap();
        assert_eq!(opts.workload, Some(Kind::BandedSweep));
        assert_eq!((opts.seed, opts.seconds, opts.trace), (99, 10.0, true));
        assert!(!opts.smoke);
    }

    #[test]
    fn defaults_are_the_documented_ones() {
        let opts = parse_args(&[]).unwrap();
        assert_eq!(opts.seed, spec::DEFAULT_SEED);
        assert_eq!(opts.seconds, spec::RUN_SECONDS as f64);
        assert_eq!(
            (opts.workload, opts.trace, opts.smoke),
            (None, false, false)
        );
    }

    #[test]
    fn bad_arguments_are_refused() {
        for bad in [
            &["--workload", "nope"][..],
            &["--seed", "x"],
            &["--seed"],
            &["--trace", "2"],
            &["--seconds", "-1"],
            &["--label", "a/b"],
            &["--frobnicate"],
        ] {
            assert!(parse_args(&args(bad)).is_err(), "{bad:?}");
        }
    }

    /// Every workload at smoke size, both ways: all code paths including
    /// the Condition-1 checks, with every declared metric printed.
    #[test]
    fn smoke_runs_every_path_and_stays_correct() {
        for kind in Kind::ALL {
            for trace in [false, true] {
                let opts = Options {
                    workload: Some(kind),
                    seed: 7,
                    seconds: 0.0,
                    trace,
                    smoke: true,
                    label: None,
                };
                let (report, tracer) = run_workload(kind, &opts).unwrap();
                assert!(
                    report.tally.correct(),
                    "{}: {:?}",
                    kind.name(),
                    report.tally.failures
                );
                assert!(report.tally.attempted > 0);
                assert!(report.smoke);
                let doc = json::parse(&report.result_line()).unwrap();
                let n = doc.get("metrics").unwrap().entries().len();
                let want = if trace {
                    spec::PER_LAYER.len()
                } else {
                    spec::END_TO_END.len()
                };
                assert_eq!(n, want);
                for (m, s) in report.printed() {
                    assert!(s.value.is_finite(), "{} @ {}", m.name, kind.name());
                    if !trace {
                        assert!(s.value > 0.0, "{} @ {}", m.name, kind.name());
                    }
                }
                assert_eq!(tracer.spans().is_empty(), !trace);
            }
        }
    }
}
