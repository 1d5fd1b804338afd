//! `pqbench compare A.json B.json`: B against A, one row per workload x
//! metric. Exact metrics must be equal; bounded metrics compare values;
//! a metric whose own quartile spread exceeds its bound is `unresolved`,
//! not `ok`. Any breach makes the exit code non-zero.

use crate::json::{self, Value};
use crate::spec::{self, Better, Metric};
use crate::stats::Summary;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Status {
    Ok,
    /// No bound applies: a per-layer timing, shown for the reader.
    Info,
    Unresolved,
    Breach,
}

impl Status {
    fn as_str(self) -> &'static str {
        match self {
            Status::Ok => "ok",
            Status::Info => "info",
            Status::Unresolved => "unresolved",
            Status::Breach => "BREACH",
        }
    }
}

/// By how much `b` is worse than `a`, as a share of `a` (negative when
/// better). A zero base has no share: equal is 0, anything else infinite.
pub fn worsening(better: Better, a: f64, b: f64) -> f64 {
    if a == b {
        return 0.0;
    }
    if a == 0.0 {
        return f64::INFINITY;
    }
    match better {
        Better::Lower => (b - a) / a.abs(),
        Better::Higher => (a - b) / a.abs(),
    }
}

pub fn judge(metric: &Metric, a: Summary, b: Summary) -> Status {
    if metric.exact {
        return if a.value == b.value {
            Status::Ok
        } else {
            Status::Breach
        };
    }
    let Some(bound) = metric.bound else {
        return Status::Info;
    };
    // The quartile spread of n samples over sqrt(n) is about the
    // spread of their median, which is the value being compared.
    let own_spread = |s: Summary| s.iqr_share() / (s.n.max(1) as f64).sqrt();
    if own_spread(a) > bound || own_spread(b) > bound {
        return Status::Unresolved;
    }
    if worsening(metric.better, a.value, b.value) > bound {
        Status::Breach
    } else {
        Status::Ok
    }
}

fn reading(entry: &Value) -> Option<Summary> {
    let value = entry.get("value")?.as_f64()?;
    let or_value = |key: &str| entry.get(key).and_then(Value::as_f64).unwrap_or(value);
    Some(Summary {
        value,
        q1: or_value("q1"),
        q3: or_value("q3"),
        n: entry.get("n").and_then(Value::as_f64).unwrap_or(1.0) as usize,
    })
}

fn load(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

/// Compares two documents; returns the table and the number of breaches.
pub fn compare_docs(a: &Value, b: &Value) -> Result<(String, usize), String> {
    for doc in [a, b] {
        if doc.get("smoke").and_then(Value::as_bool) != Some(false) {
            return Err("a smoke run measures nothing and cannot be compared".into());
        }
    }
    if a.get("seed").and_then(Value::as_f64) != b.get("seed").and_then(Value::as_f64) {
        return Err("the two files ran different seeds".into());
    }
    let mut out = format!(
        "{:<16} {:<36} {:>16} {:>16} {:>9}  status\n",
        "workload", "metric", "A", "B", "worse by"
    );
    let mut breaches = 0;
    for w in &spec::WORKLOADS {
        let side = |doc: &Value| doc.get("workloads").and_then(|ws| ws.get(w.name)).cloned();
        let (Some(wa), Some(wb)) = (side(a), side(b)) else {
            return Err(format!("workload {} is missing from a file", w.name));
        };
        let hash = |v: &Value| {
            v.get("inputs_hash")
                .and_then(Value::as_str)
                .map(str::to_string)
        };
        let same_inputs = hash(&wa).is_some() && hash(&wa) == hash(&wb);
        breaches += usize::from(!same_inputs);
        out.push_str(&format!(
            "{:<16} {:<36} {:>16} {:>16} {:>9}  {}\n",
            w.name,
            "inputs_hash",
            hash(&wa).unwrap_or_default(),
            hash(&wb).unwrap_or_default(),
            "",
            if same_inputs { "ok" } else { "BREACH" },
        ));
        for (group, table) in [
            ("end_to_end", &spec::END_TO_END[..]),
            ("per_layer", &spec::PER_LAYER[..]),
        ] {
            for m in table {
                let read = |v: &Value| v.get(group).and_then(|g| g.get(m.name)).and_then(reading);
                let (Some(ra), Some(rb)) = (read(&wa), read(&wb)) else {
                    return Err(format!("{} @ {} is missing from a file", m.name, w.name));
                };
                let status = judge(m, ra, rb);
                breaches += usize::from(status == Status::Breach);
                out.push_str(&format!(
                    "{:<16} {:<36} {:>16.6} {:>16.6} {:>8.1}%  {}\n",
                    w.name,
                    m.name,
                    ra.value,
                    rb.value,
                    100.0 * worsening(m.better, ra.value, rb.value),
                    status.as_str(),
                ));
            }
        }
    }
    Ok((out, breaches))
}

/// Prints the table; `Ok(true)` when nothing breached.
pub fn run(path_a: &str, path_b: &str) -> Result<bool, String> {
    let (table, breaches) = compare_docs(&load(path_a)?, &load(path_b)?)?;
    print!("{table}");
    println!("{breaches} breach(es)");
    Ok(breaches == 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reading_of(value: f64, iqr_share: f64) -> Summary {
        Summary {
            value,
            q1: value * (1.0 - iqr_share / 2.0),
            q3: value * (1.0 + iqr_share / 2.0),
            n: 5,
        }
    }

    #[test]
    fn worsening_follows_the_direction() {
        assert!((worsening(Better::Lower, 10.0, 11.0) - 0.1).abs() < 1e-12);
        assert!((worsening(Better::Higher, 10.0, 11.0) + 0.1).abs() < 1e-12);
        assert_eq!(worsening(Better::Lower, 0.0, 0.0), 0.0);
        assert_eq!(worsening(Better::Lower, 0.0, 1.0), f64::INFINITY);
    }

    #[test]
    fn bounded_metrics_compare_values() {
        let run_s = spec::metric("run_s").unwrap();
        let bound = run_s.bound.unwrap();
        let a = reading_of(10.0, 0.01);
        assert_eq!(
            judge(run_s, a, reading_of(10.0 * (1.0 + bound * 0.9), 0.01)),
            Status::Ok
        );
        assert_eq!(
            judge(run_s, a, reading_of(10.0 * (1.0 + bound * 1.1), 0.01)),
            Status::Breach
        );
        assert_eq!(judge(run_s, a, reading_of(5.0, 0.01)), Status::Ok);
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved() {
        let run_s = spec::metric("run_s").unwrap();
        let wide = run_s.bound.unwrap() * 1.2 * 5f64.sqrt();
        assert_eq!(
            judge(run_s, reading_of(10.0, wide), reading_of(20.0, 0.0)),
            Status::Unresolved
        );
    }

    #[test]
    fn exact_metrics_must_be_equal_and_unbounded_ones_inform() {
        let cost = spec::metric("total_cost_msgs").unwrap();
        assert_eq!(
            judge(cost, reading_of(100.0, 0.0), reading_of(100.0, 0.0)),
            Status::Ok
        );
        assert_eq!(
            judge(cost, reading_of(100.0, 0.0), reading_of(101.0, 0.0)),
            Status::Breach
        );
        let solve = spec::metric("gp.joint16_solve_ms").unwrap();
        assert_eq!(
            judge(solve, reading_of(1.0, 0.0), reading_of(9.0, 0.0)),
            Status::Info
        );
    }

    #[test]
    fn smoke_files_are_refused() {
        let smoke = json::parse("{\"smoke\": true, \"seed\": 1, \"workloads\": {}}").unwrap();
        let err = compare_docs(&smoke, &smoke).unwrap_err();
        assert!(err.contains("smoke"), "{err}");
    }
}
