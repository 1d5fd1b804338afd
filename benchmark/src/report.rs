//! What one run of one workload measured, and the two forms it is
//! printed in: the result line the driver reads, and a detail document
//! with quartiles and sample counts for the result files.

use std::collections::BTreeMap;

use crate::checks::Tally;
use crate::json::Value;
use crate::spec::{self, Metric};
use crate::stats::Summary;

/// Metric values by name; a name outside the spec tables is a bug.
#[derive(Debug, Default)]
pub struct Values(BTreeMap<&'static str, Summary>);

impl Values {
    pub fn set(&mut self, name: &'static str, summary: Summary) {
        assert!(
            spec::metric(name).is_some(),
            "{name} is not a declared metric"
        );
        self.0.insert(name, summary);
    }

    pub fn get(&self, name: &str) -> Option<Summary> {
        self.0.get(name).copied()
    }
}

#[derive(Debug)]
pub struct Report {
    pub workload: &'static str,
    pub seed: u64,
    pub smoke: bool,
    pub traced: bool,
    pub inputs_hash: u64,
    /// Wall time of every timed run, in the order they ran.
    pub run_samples: Vec<f64>,
    pub tally: Tally,
    pub values: Values,
}

impl Report {
    /// The metrics this run must print: every end-to-end metric when
    /// untraced, every per-layer metric when traced. A per-layer metric
    /// the workload has no use for (a `monitor.*` number on a simulator
    /// workload) reads 0.
    pub fn printed(&self) -> Vec<(&'static Metric, Summary)> {
        if self.traced {
            spec::PER_LAYER
                .iter()
                .map(|m| (m, self.values.get(m.name).unwrap_or(Summary::exact(0.0))))
                .collect()
        } else {
            spec::END_TO_END
                .iter()
                .map(|m| {
                    let s = self.values.get(m.name);
                    (
                        m,
                        s.unwrap_or_else(|| panic!("{} was not measured", m.name)),
                    )
                })
                .collect()
        }
    }

    /// The last line of standard output: exactly `correct`, `attempted`,
    /// `failed` and `metrics`.
    pub fn result_line(&self) -> String {
        let metrics = self.printed().into_iter().map(|(m, s)| {
            let entry = Value::obj([("value", Value::Num(s.value)), ("unit", Value::str(m.unit))]);
            (m.name, entry)
        });
        Value::obj([
            ("correct", Value::Bool(self.tally.correct())),
            ("attempted", Value::Num(self.tally.attempted.max(1) as f64)),
            ("failed", Value::Num(self.tally.failed as f64)),
            ("metrics", Value::obj(metrics)),
        ])
        .to_line()
    }

    /// The same run with quartiles and sample counts beside each value.
    pub fn detail(&self) -> Value {
        let metrics = self.printed().into_iter().map(|(m, s)| {
            let entry = Value::obj([
                ("value", Value::Num(s.value)),
                ("unit", Value::str(m.unit)),
                ("q1", Value::Num(s.q1)),
                ("q3", Value::Num(s.q3)),
                ("n", Value::Num(s.n as f64)),
            ]);
            (m.name, entry)
        });
        Value::obj([
            ("workload", Value::str(self.workload)),
            ("seed", Value::Num(self.seed as f64)),
            ("smoke", Value::Bool(self.smoke)),
            ("traced", Value::Bool(self.traced)),
            (
                "inputs_hash",
                Value::str(format!("{:016x}", self.inputs_hash)),
            ),
            ("correct", Value::Bool(self.tally.correct())),
            ("attempted", Value::Num(self.tally.attempted as f64)),
            ("failed", Value::Num(self.tally.failed as f64)),
            (
                "failures",
                Value::Arr(self.tally.failures.iter().map(Value::str).collect()),
            ),
            (
                "run_s_samples",
                Value::Arr(self.run_samples.iter().map(|s| Value::Num(*s)).collect()),
            ),
            ("metrics", Value::obj(metrics)),
        ])
    }

    /// A table of every printed metric with unit, direction and bound.
    pub fn table(&self) -> String {
        let mut out = format!(
            "== {} (seed {}, {}{}) inputs {:016x}\n",
            self.workload,
            self.seed,
            if self.traced {
                "per-layer"
            } else {
                "end-to-end"
            },
            if self.smoke { ", smoke" } else { "" },
            self.inputs_hash,
        );
        for (m, s) in self.printed() {
            let bound = m.bound.map_or(String::new(), |b| format!("  bound {b}"));
            let spread = if s.n > 1 {
                format!("  [q1 {:.6}, q3 {:.6}, n {}]", s.q1, s.q3, s.n)
            } else {
                String::new()
            };
            out.push_str(&format!(
                "{:<12} {:<36} {:>16.6} {:<6} {} is better{bound}{spread}\n",
                m.layer,
                m.name,
                s.value,
                m.unit,
                m.better.as_str(),
            ));
        }
        out.push_str(&format!(
            "checks: {} attempted, {} failed\n",
            self.tally.attempted, self.tally.failed
        ));
        for failure in &self.tally.failures {
            out.push_str(&format!("FAILED: {failure}\n"));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    fn report(traced: bool) -> Report {
        let mut values = Values::default();
        for (i, m) in spec::END_TO_END.iter().enumerate() {
            values.set(
                m.name,
                Summary {
                    value: 1.5 + i as f64,
                    q1: 1.0,
                    q3: 2.0,
                    n: 5,
                },
            );
        }
        values.set("sim.refreshes", Summary::exact(42.0));
        Report {
            workload: "fig5_paper",
            seed: 7,
            smoke: true,
            traced,
            inputs_hash: 0xabc,
            run_samples: vec![1.0, 2.0],
            tally: Tally::default(),
            values,
        }
    }

    #[test]
    fn the_result_line_has_exactly_the_contract_keys() {
        for traced in [false, true] {
            let r = report(traced);
            let line = r.result_line();
            assert!(!line.contains('\n'));
            let doc = json::parse(&line).unwrap();
            let keys: Vec<&str> = doc.entries().iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            assert_eq!(doc.get("correct").and_then(Value::as_bool), Some(true));
            assert_eq!(doc.get("attempted").and_then(Value::as_f64), Some(1.0));
            let metrics = doc.get("metrics").unwrap().entries();
            let want: Vec<&str> = if traced {
                spec::PER_LAYER.iter().map(|m| m.name).collect()
            } else {
                spec::END_TO_END.iter().map(|m| m.name).collect()
            };
            let got: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(got, want);
            for (_, entry) in metrics {
                let keys: Vec<&str> = entry.entries().iter().map(|(k, _)| k.as_str()).collect();
                assert_eq!(keys, ["value", "unit"]);
            }
        }
        let traced = json::parse(&report(true).result_line()).unwrap();
        let metrics = traced.get("metrics").unwrap();
        let value = |name: &str| {
            metrics
                .get(name)
                .unwrap()
                .get("value")
                .and_then(Value::as_f64)
        };
        assert_eq!(value("sim.refreshes"), Some(42.0));
        assert_eq!(value("monitor.refresh_calls"), Some(0.0));
    }

    #[test]
    fn a_failed_check_shows_in_every_form() {
        let mut r = report(false);
        r.tally.add(3, 1, || "one of three".into());
        let doc = json::parse(&r.result_line()).unwrap();
        assert_eq!(doc.get("correct").and_then(Value::as_bool), Some(false));
        assert_eq!(doc.get("failed").and_then(Value::as_f64), Some(1.0));
        assert!(r.table().contains("FAILED: one of three"));
        assert_eq!(
            r.detail().get("correct").and_then(Value::as_bool),
            Some(false)
        );
    }

    #[test]
    #[should_panic(expected = "not a declared metric")]
    fn an_undeclared_name_is_refused() {
        Values::default().set("made.up", Summary::exact(1.0));
    }
}
