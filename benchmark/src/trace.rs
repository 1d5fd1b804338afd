//! In-memory spans around the calls the benchmark makes into a layer.
//! Spans nest by call order: the span open when another starts is its
//! parent. Nothing is written until the benchmark ends.

use crate::json::Value;
use std::time::Instant;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the recorder.
    pub parent: Option<usize>,
}

/// Records spans when enabled; a disabled recorder only runs the closure.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn begin(&mut self, name: &'static str) {
        if !self.enabled {
            return;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
        });
        self.open.push(self.spans.len() - 1);
    }

    pub fn end(&mut self) {
        if !self.enabled {
            return;
        }
        let idx = self.open.pop().expect("end() without begin()");
        self.spans[idx].end_ns = self.now_ns();
    }

    /// Runs `f` inside a span and returns its result with the wall time
    /// in seconds (measured whether or not spans are recorded).
    pub fn timed<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
        self.begin(name);
        let t = Instant::now();
        let out = f();
        let secs = t.elapsed().as_secs_f64();
        self.end();
        (out, secs)
    }

    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per span name: calls, total nanoseconds, and self nanoseconds
    /// (total minus the part covered by child spans).
    pub fn rollup(&self) -> Vec<(&'static str, u64, u64, u64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut rows: Vec<(&'static str, u64, u64, u64)> = Vec::new();
        for (s, child) in self.spans.iter().zip(child_ns) {
            let total = s.end_ns - s.start_ns;
            match rows.iter_mut().find(|r| r.0 == s.name) {
                Some(r) => {
                    r.1 += 1;
                    r.2 += total;
                    r.3 += total - child;
                }
                None => rows.push((s.name, 1, total, total - child)),
            }
        }
        rows
    }

    /// The spans and their roll-up as one JSON document. Per-call spans
    /// of one name beyond the first `keep` are folded into the roll-up
    /// only, so a replay's tens of thousands of calls stay readable.
    pub fn to_json(&self, workload: &str, keep: usize) -> Value {
        let mut kept: Vec<(&'static str, usize)> = Vec::new();
        let mut spans = Vec::new();
        for (i, s) in self.spans.iter().enumerate() {
            let seen = match kept.iter_mut().find(|k| k.0 == s.name) {
                Some(k) => {
                    k.1 += 1;
                    k.1
                }
                None => {
                    kept.push((s.name, 1));
                    1
                }
            };
            if seen > keep {
                continue;
            }
            spans.push(Value::obj([
                ("id", Value::Num(i as f64)),
                ("name", Value::str(s.name)),
                ("start_ns", Value::Num(s.start_ns as f64)),
                ("end_ns", Value::Num(s.end_ns as f64)),
                (
                    "parent",
                    s.parent.map_or(Value::Null, |p| Value::Num(p as f64)),
                ),
                ("workload", Value::str(workload)),
            ]));
        }
        let rollup = self
            .rollup()
            .into_iter()
            .map(|(name, calls, total, own)| {
                Value::obj([
                    ("name", Value::str(name)),
                    ("calls", Value::Num(calls as f64)),
                    ("total_ns", Value::Num(total as f64)),
                    ("self_ns", Value::Num(own as f64)),
                ])
            })
            .collect();
        Value::obj([
            ("workload", Value::str(workload)),
            ("rollup", Value::Arr(rollup)),
            ("spans", Value::Arr(spans)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_by_call_order_and_self_time_excludes_children() {
        let mut t = Tracer::new(true);
        t.begin("outer");
        t.timed("inner", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.timed("inner", || ());
        t.end();
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert!(spans[0].end_ns >= spans[2].end_ns);
        let rollup = t.rollup();
        let outer = rollup.iter().find(|r| r.0 == "outer").unwrap();
        let inner = rollup.iter().find(|r| r.0 == "inner").unwrap();
        assert_eq!(inner.1, 2);
        assert_eq!(outer.3, outer.2 - inner.2);
        assert!(inner.2 >= 2_000_000);
    }

    #[test]
    fn a_disabled_tracer_still_times() {
        let mut t = Tracer::new(false);
        let (v, secs) = t.timed("x", || 7);
        assert_eq!(v, 7);
        assert!(secs >= 0.0);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn the_json_keeps_only_the_first_spans_of_a_name() {
        let mut t = Tracer::new(true);
        for _ in 0..5 {
            t.timed("call", || ());
        }
        let doc = t.to_json("w", 2);
        match doc.get("spans") {
            Some(Value::Arr(spans)) => assert_eq!(spans.len(), 2),
            other => panic!("{other:?}"),
        }
        match doc.get("rollup") {
            Some(Value::Arr(rows)) => {
                assert_eq!(rows[0].get("calls").and_then(Value::as_f64), Some(5.0));
            }
            other => panic!("{other:?}"),
        }
    }
}
