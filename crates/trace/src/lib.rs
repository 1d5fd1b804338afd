//! `pq-trace`: offline analysis of [`pq_obs`] JSONL traces.
//!
//! The simulator, monitor, and bench harnesses record their full event
//! stream with `PQ_OBS_JSONL=<path>`; this crate turns such a trace back
//! into answers:
//!
//! * [`render_summary`] — per-phase and per-query duration percentile
//!   tables (exact, from the recorded spans, not bucketed), event
//!   counts, and the recomputation attribution the paper's μ-cost
//!   analysis needs: which queries recompute, and which items' refreshes
//!   force those recomputations.
//! * [`render_tree`] — the span forest with inclusive/exclusive
//!   timings, aggregated over repeated occurrences (a span's exclusive
//!   time is its duration minus its direct children's), nested by the
//!   `span_id`/`parent` fields every timing event carries — exact even
//!   across the install's worker threads. This is the time breakdown: each
//!   root-to-leaf path's span count and nanoseconds.
//! * [`render_diff`] — two traces side by side with deltas, for
//!   regression triage between runs.
//! * [`render_postmortem`] — a flight-recorder dump (the JSONL file the
//!   [`pq_obs`] recorder writes when a simulator tick's audit flags a
//!   divergence, or on a panic) rendered as a triage report: the dump
//!   header, per-thread buffer accounting, event counts, and the final
//!   timeline leading up to the trigger.
//!
//! Everything here is pure string-in/string-out over parsed [`Event`]s,
//! so the binary in `main.rs` stays a thin argument parser and the
//! golden tests can pin exact outputs.

#![forbid(unsafe_code)]

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

pub use pq_obs::{Event, EventKind, Value};

/// A failure while loading a trace file.
#[derive(Debug)]
pub enum TraceError {
    /// Reading the file failed.
    Io(std::io::Error),
    /// A line did not parse as an event.
    Parse {
        /// 1-based line number.
        line: usize,
        /// Underlying JSON error.
        source: pq_obs::JsonError,
    },
}

impl std::fmt::Display for TraceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceError::Io(e) => write!(f, "cannot read trace: {e}"),
            TraceError::Parse { line, source } => write!(f, "line {line}: {source}"),
        }
    }
}

impl std::error::Error for TraceError {}

impl From<std::io::Error> for TraceError {
    fn from(e: std::io::Error) -> Self {
        TraceError::Io(e)
    }
}

/// Streams a JSONL trace file line by line, reporting the first
/// malformed line. Never holds the whole trace in memory — bench traces
/// run to gigabytes.
pub fn for_each_event(path: impl AsRef<Path>, mut f: impl FnMut(Event)) -> Result<(), TraceError> {
    use std::io::BufRead;
    let reader = std::io::BufReader::new(std::fs::File::open(path)?);
    for (i, line) in reader.lines().enumerate() {
        let line = line?;
        if line.trim().is_empty() {
            continue;
        }
        f(pq_obs::parse(&line).map_err(|source| TraceError::Parse {
            line: i + 1,
            source,
        })?);
    }
    Ok(())
}

/// Loads a whole JSONL trace into memory. Convenient for tests and
/// small traces; use [`for_each_event`] (or [`TraceStats::from_path`] /
/// [`timing_events`]) for bench-sized ones.
pub fn load(path: impl AsRef<Path>) -> Result<Vec<Event>, TraceError> {
    let mut events = Vec::new();
    for_each_event(path, |e| events.push(e))?;
    Ok(events)
}

/// Streams a trace, keeping only its timing events — all
/// [`render_tree`] needs, and typically a small fraction of the file.
pub fn timing_events(path: impl AsRef<Path>) -> Result<Vec<Event>, TraceError> {
    let mut events = Vec::new();
    for_each_event(path, |e| {
        if e.kind == EventKind::Timing {
            events.push(e);
        }
    })?;
    Ok(events)
}

/// Reads a field as an unsigned integer (accepting integral floats,
/// which the JSONL number grammar can produce).
fn field_u64(event: &Event, name: &str) -> Option<u64> {
    match event.field(name)? {
        Value::U64(v) => Some(*v),
        Value::F64(v) if v.fract() == 0.0 && *v >= 0.0 && *v < 1.8e19 => Some(*v as u64),
        _ => None,
    }
}

/// Exact duration statistics over one set of recorded spans.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DurStats {
    /// Number of spans.
    pub count: u64,
    /// Total nanoseconds.
    pub sum: u64,
    /// Median (nearest-rank).
    pub p50: u64,
    /// 95th percentile (nearest-rank).
    pub p95: u64,
    /// 99th percentile (nearest-rank).
    pub p99: u64,
    /// Longest span.
    pub max: u64,
}

impl DurStats {
    /// Exact nearest-rank percentiles; sorts `durations` in place.
    pub fn compute(durations: &mut [u64]) -> Self {
        if durations.is_empty() {
            return DurStats::default();
        }
        durations.sort_unstable();
        let n = durations.len();
        let rank = |q: f64| durations[((q * n as f64).ceil() as usize).clamp(1, n) - 1];
        DurStats {
            count: n as u64,
            sum: durations.iter().sum(),
            p50: rank(0.50),
            p95: rank(0.95),
            p99: rank(0.99),
            max: durations[n - 1],
        }
    }
}

/// Everything [`render_summary`] and [`render_diff`] need, extracted in
/// one pass over a trace.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TraceStats {
    /// `(target, kind-name)` → number of events.
    pub event_counts: BTreeMap<(String, &'static str), u64>,
    /// Span name (timing target, e.g. `gp.solve_ns`) → durations in
    /// event order.
    pub spans: BTreeMap<String, Vec<u64>>,
    /// `gp.solve_ns` durations per attributed query.
    pub solve_by_query: BTreeMap<u64, Vec<u64>>,
    /// `dab.recompute` event counts per query label. Network traces
    /// carry a `node` field; their queries are labeled `c<node>.q<qi>`.
    pub recomputes_by_query: BTreeMap<String, u64>,
    /// `dab.reanchor` event counts per query label, labeled as
    /// `recomputes_by_query` is: stale units re-anchored, not re-solved.
    pub reanchors_by_query: BTreeMap<String, u64>,
    /// Refreshes per item: the `sim.refresh` events' `refreshes` summed
    /// (1 on an event without one, as older traces wrote them).
    pub refreshes_by_item: BTreeMap<u64, u64>,
    /// `dab.recompute_trigger` event counts per item: refreshes whose
    /// processing forced at least one recomputation.
    pub triggers_by_item: BTreeMap<u64, u64>,
    /// Total recomputations forced per item (sum of the trigger
    /// events' `recomputes` field).
    pub forced_by_item: BTreeMap<u64, u64>,
}

impl TraceStats {
    /// Extracts statistics from an already-parsed trace.
    pub fn from_events(events: &[Event]) -> Self {
        let mut stats = TraceStats::default();
        for event in events {
            stats.add(event);
        }
        stats
    }

    /// Streams a trace file straight into statistics without ever
    /// holding the events in memory.
    pub fn from_path(path: impl AsRef<Path>) -> Result<Self, TraceError> {
        let mut stats = TraceStats::default();
        for_each_event(path, |e| stats.add(&e))?;
        Ok(stats)
    }

    /// Folds one event into the statistics.
    pub fn add(&mut self, event: &Event) {
        *self
            .event_counts
            .entry((event.target.to_string(), event.kind.as_str()))
            .or_insert(0) += 1;
        if event.kind == EventKind::Timing {
            if let Some(dur) = field_u64(event, "dur_ns") {
                self.spans
                    .entry(event.target.to_string())
                    .or_default()
                    .push(dur);
                if event.target == "gp.solve_ns" {
                    if let Some(q) = field_u64(event, "query") {
                        self.solve_by_query.entry(q).or_default().push(dur);
                    }
                }
            }
        }
        match event.target.as_ref() {
            target @ ("dab.recompute" | "dab.reanchor") => {
                if let Some(q) = field_u64(event, "query") {
                    let label = match field_u64(event, "node") {
                        Some(node) => format!("c{node}.q{q}"),
                        None => q.to_string(),
                    };
                    let by_query = if target == "dab.recompute" {
                        &mut self.recomputes_by_query
                    } else {
                        &mut self.reanchors_by_query
                    };
                    *by_query.entry(label).or_insert(0) += 1;
                }
            }
            "sim.refresh" => {
                if let Some(item) = field_u64(event, "item") {
                    *self.refreshes_by_item.entry(item).or_insert(0) +=
                        field_u64(event, "refreshes").unwrap_or(1);
                }
            }
            "dab.recompute_trigger" => {
                if let Some(item) = field_u64(event, "item") {
                    *self.triggers_by_item.entry(item).or_insert(0) += 1;
                    *self.forced_by_item.entry(item).or_insert(0) +=
                        field_u64(event, "recomputes").unwrap_or(1);
                }
            }
            _ => {}
        }
    }
}

/// Renders an aligned ASCII table; every column right-aligned.
fn table(out: &mut String, title: &str, header: &[&str], rows: &[Vec<String>]) {
    let _ = writeln!(out, "== {title} ==");
    if rows.is_empty() {
        let _ = writeln!(out, "(none)\n");
        return;
    }
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (w, cell) in widths.iter_mut().zip(row) {
            *w = (*w).max(cell.len());
        }
    }
    let mut line = |cells: &[String]| {
        let mut s = String::new();
        for (w, c) in widths.iter().zip(cells) {
            let _ = write!(s, "{c:>w$}  ", w = w);
        }
        let _ = writeln!(out, "{}", s.trim_end());
    };
    line(&header.iter().map(|s| s.to_string()).collect::<Vec<_>>());
    for row in rows {
        line(row);
    }
    out.push('\n');
}

/// The `k` heaviest `(key, count)` pairs of a map, heaviest first, ties
/// toward the smaller key.
fn top_k<K: Ord + Copy>(map: &BTreeMap<K, u64>, k: usize) -> Vec<(K, u64)> {
    let mut pairs: Vec<(K, u64)> = map.iter().map(|(&key, &v)| (key, v)).collect();
    pairs.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    pairs.truncate(k);
    pairs
}

/// Renders the `summary` report: event counts, per-phase and per-query
/// exact percentiles, and top-`k` recomputation attribution.
pub fn render_summary(stats: &TraceStats, k: usize) -> String {
    let mut out = String::new();

    let rows: Vec<Vec<String>> = stats
        .event_counts
        .iter()
        .map(|((target, kind), n)| vec![target.clone(), kind.to_string(), n.to_string()])
        .collect();
    table(&mut out, "Events", &["target", "kind", "count"], &rows);

    let dur_row = |name: String, s: &DurStats| {
        vec![
            name,
            s.count.to_string(),
            s.sum.to_string(),
            s.p50.to_string(),
            s.p95.to_string(),
            s.p99.to_string(),
            s.max.to_string(),
        ]
    };
    let rows: Vec<Vec<String>> = stats
        .spans
        .iter()
        .map(|(name, durs)| dur_row(name.clone(), &DurStats::compute(&mut durs.clone())))
        .collect();
    table(
        &mut out,
        "Spans (per phase)",
        &[
            "span", "count", "total_ns", "p50_ns", "p95_ns", "p99_ns", "max_ns",
        ],
        &rows,
    );

    let mut per_query: Vec<(u64, DurStats)> = stats
        .solve_by_query
        .iter()
        .map(|(&q, durs)| (q, DurStats::compute(&mut durs.clone())))
        .collect();
    per_query.sort_by(|a, b| b.1.sum.cmp(&a.1.sum).then(a.0.cmp(&b.0)));
    per_query.truncate(k);
    let rows: Vec<Vec<String>> = per_query
        .into_iter()
        .map(|(q, s)| dur_row(q.to_string(), &s))
        .collect();
    table(
        &mut out,
        format!("Top {k} queries by gp.solve time").as_str(),
        &[
            "query", "count", "total_ns", "p50_ns", "p95_ns", "p99_ns", "max_ns",
        ],
        &rows,
    );

    let mut by_query: Vec<(&String, &u64)> = stats.recomputes_by_query.iter().collect();
    by_query.sort_by(|a, b| b.1.cmp(a.1).then(a.0.cmp(b.0)));
    by_query.truncate(k);
    let rows: Vec<Vec<String>> = by_query
        .into_iter()
        .map(|(q, n)| vec![q.clone(), n.to_string()])
        .collect();
    table(
        &mut out,
        format!("Top {k} queries by recomputations").as_str(),
        &["query", "recomputations"],
        &rows,
    );

    let rows: Vec<Vec<String>> = top_k(&stats.triggers_by_item, k)
        .into_iter()
        .map(|(item, triggers)| {
            vec![
                item.to_string(),
                triggers.to_string(),
                stats
                    .forced_by_item
                    .get(&item)
                    .copied()
                    .unwrap_or(0)
                    .to_string(),
                stats
                    .refreshes_by_item
                    .get(&item)
                    .copied()
                    .unwrap_or(0)
                    .to_string(),
            ]
        })
        .collect();
    table(
        &mut out,
        format!("Top {k} items by refreshes that forced recomputation").as_str(),
        &[
            "item",
            "forcing_refreshes",
            "forced_recomputes",
            "refreshes",
        ],
        &rows,
    );
    out
}

/// One aggregated node of the span forest.
#[derive(Debug, Default, Clone)]
struct PathAgg {
    count: u64,
    inclusive_ns: u64,
    exclusive_ns: u64,
}

/// One edge of the explicit span forest: a recorded timing span, its
/// process-unique id, and (when nested) the id of its causal parent.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanEdge {
    /// The span's `span_id` field.
    pub id: u64,
    /// The span's `parent` field, if it had an open parent span —
    /// including a parent on another thread (install workers carry the
    /// spawning span's context).
    pub parent: Option<u64>,
    /// Span name (the timing event's target, e.g. `gp.solve_ns`).
    pub name: String,
    /// Recorded duration.
    pub dur_ns: u64,
}

/// Extracts the span forest from a trace: one [`SpanEdge`] per timing
/// event carrying a `span_id` field, in event order.
pub fn span_forest(events: &[Event]) -> Vec<SpanEdge> {
    events
        .iter()
        .filter(|e| e.kind == EventKind::Timing)
        .filter_map(|e| {
            Some(SpanEdge {
                id: field_u64(e, "span_id")?,
                parent: field_u64(e, "parent"),
                name: e.target.to_string(),
                dur_ns: field_u64(e, "dur_ns").unwrap_or(0),
            })
        })
        .collect()
}

/// Aggregates the span forest by root-to-leaf name path.
fn aggregate_by_path(edges: &[SpanEdge]) -> BTreeMap<String, PathAgg> {
    use std::collections::HashMap;
    // A span id is process-unique, so the last occurrence wins (there
    // are no duplicates in well-formed traces).
    let by_id: HashMap<u64, &SpanEdge> = edges.iter().map(|e| (e.id, e)).collect();
    let mut child_ns: HashMap<u64, u64> = HashMap::new();
    for edge in edges {
        if let Some(parent) = edge.parent.filter(|p| by_id.contains_key(p)) {
            *child_ns.entry(parent).or_insert(0) += edge.dur_ns;
        }
    }
    let mut aggregate: BTreeMap<String, PathAgg> = BTreeMap::new();
    for edge in edges {
        // Root-to-leaf name chain; the depth cap guards malformed
        // traces with parent cycles.
        let mut names = vec![edge.name.as_str()];
        let mut cursor = edge.parent;
        while let Some(p) = cursor.and_then(|p| by_id.get(&p)) {
            names.push(p.name.as_str());
            cursor = p.parent;
            if names.len() > 64 {
                break;
            }
        }
        names.reverse();
        let agg = aggregate.entry(names.join("/")).or_default();
        agg.count += 1;
        agg.inclusive_ns += edge.dur_ns;
        agg.exclusive_ns += edge
            .dur_ns
            .saturating_sub(child_ns.get(&edge.id).copied().unwrap_or(0));
    }
    aggregate
}

/// Renders the `tree` report: the span forest ([`span_forest`])
/// aggregated by path, with inclusive and exclusive (self) time per
/// path. Spans nest by their explicit causal parents, exact across
/// threads; a timing event without a `span_id` is not in the tree.
pub fn render_tree(events: &[Event]) -> String {
    let aggregate = aggregate_by_path(&span_forest(events));
    let rows: Vec<Vec<String>> = aggregate
        .iter()
        .map(|(path, agg)| {
            let depth = path.matches('/').count();
            let leaf = path.rsplit('/').next().expect("non-empty path");
            vec![
                format!("{}{leaf}", "  ".repeat(depth)),
                agg.count.to_string(),
                agg.inclusive_ns.to_string(),
                agg.exclusive_ns.to_string(),
            ]
        })
        .collect();
    let mut out = String::new();
    // Left-align the span column by padding inside the cell.
    let name_w = rows.iter().map(|r| r[0].len()).max().unwrap_or(4);
    let rows: Vec<Vec<String>> = rows
        .into_iter()
        .map(|mut r| {
            r[0] = format!("{:<name_w$}", r[0]);
            r
        })
        .collect();
    table(
        &mut out,
        "Span tree (inclusive/exclusive ns, aggregated by path)",
        &["span", "count", "inclusive_ns", "exclusive_ns"],
        &rows,
    );
    out
}

/// One field value as display text (postmortem timeline cells).
fn value_str(v: &Value) -> String {
    match v {
        Value::Bool(b) => b.to_string(),
        Value::U64(n) => n.to_string(),
        Value::F64(x) => format!("{x}"),
        Value::Str(s) => s.to_string(),
    }
}

/// Renders the `postmortem` report over a flight-recorder dump: the
/// `recorder.dump` header (reason, sequence number, buffer accounting),
/// per-thread and per-target event counts, and the last `tail` buffered
/// events as a timeline — the moments leading up to whatever pulled the
/// trigger. Dumps are small by construction (bounded per-thread rings),
/// so `events` is the whole file via [`load`].
pub fn render_postmortem(events: &[Event], tail: usize) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "== Flight recorder dump ==");
    match events.iter().find(|e| e.target == "recorder.dump") {
        Some(header) => {
            for key in ["reason", "seq", "threads", "events", "dropped"] {
                let value = header.field(key).map(value_str).unwrap_or_default();
                let _ = writeln!(out, "{key}: {value}");
            }
        }
        None => {
            let _ = writeln!(
                out,
                "(no recorder.dump header — not a flight-recorder dump?)"
            );
        }
    }
    out.push('\n');

    let buffered: Vec<&Event> = events
        .iter()
        .filter(|e| e.target != "recorder.dump")
        .collect();

    let mut by_thread: BTreeMap<String, u64> = BTreeMap::new();
    for event in &buffered {
        let thread = match event.field("thread") {
            Some(Value::Str(s)) => s.to_string(),
            _ => "<unattributed>".to_string(),
        };
        *by_thread.entry(thread).or_insert(0) += 1;
    }
    let rows: Vec<Vec<String>> = by_thread
        .iter()
        .map(|(thread, n)| vec![thread.clone(), n.to_string()])
        .collect();
    table(&mut out, "Events by thread", &["thread", "count"], &rows);

    let mut by_target: BTreeMap<(String, &'static str), u64> = BTreeMap::new();
    for event in &buffered {
        *by_target
            .entry((event.target.to_string(), event.kind.as_str()))
            .or_insert(0) += 1;
    }
    let rows: Vec<Vec<String>> = by_target
        .iter()
        .map(|((target, kind), n)| vec![target.clone(), kind.to_string(), n.to_string()])
        .collect();
    table(&mut out, "Events", &["target", "kind", "count"], &rows);

    let start = buffered.len().saturating_sub(tail);
    let _ = writeln!(
        out,
        "== Timeline (last {} of {} events) ==",
        buffered.len() - start,
        buffered.len()
    );
    for event in &buffered[start..] {
        let mut line = format!("{:>12}  ", event.ts_ns);
        let _ = write!(line, "{:<7}  {}", event.kind.as_str(), event.target);
        for (key, value) in &event.fields {
            let _ = write!(line, " {key}={}", value_str(value));
        }
        let _ = writeln!(out, "{}", line.trim_end());
    }
    out
}

/// Signed difference rendered as `+n` / `-n` / `0`.
fn delta(a: u64, b: u64) -> String {
    match b.cmp(&a) {
        std::cmp::Ordering::Greater => format!("+{}", b - a),
        std::cmp::Ordering::Less => format!("-{}", a - b),
        std::cmp::Ordering::Equal => "0".to_string(),
    }
}

/// Renders the `diff` report between two traces: event counts, span
/// totals, and per-item forcing-refresh attribution, with deltas.
pub fn render_diff(a: &TraceStats, b: &TraceStats) -> String {
    let mut out = String::new();

    let mut keys: Vec<&(String, &'static str)> =
        a.event_counts.keys().chain(b.event_counts.keys()).collect();
    keys.sort();
    keys.dedup();
    let rows: Vec<Vec<String>> = keys
        .into_iter()
        .map(|key| {
            let (na, nb) = (
                a.event_counts.get(key).copied().unwrap_or(0),
                b.event_counts.get(key).copied().unwrap_or(0),
            );
            vec![key.0.clone(), na.to_string(), nb.to_string(), delta(na, nb)]
        })
        .collect();
    table(
        &mut out,
        "Event counts",
        &["target", "a", "b", "delta"],
        &rows,
    );

    let mut keys: Vec<&String> = a.spans.keys().chain(b.spans.keys()).collect();
    keys.sort();
    keys.dedup();
    let rows: Vec<Vec<String>> = keys
        .into_iter()
        .map(|key| {
            let total = |s: &TraceStats| s.spans.get(key).map(|d| d.iter().sum()).unwrap_or(0u64);
            let (ta, tb) = (total(a), total(b));
            vec![key.clone(), ta.to_string(), tb.to_string(), delta(ta, tb)]
        })
        .collect();
    table(
        &mut out,
        "Span totals (ns)",
        &["span", "a", "b", "delta"],
        &rows,
    );

    let mut keys: Vec<u64> = a
        .triggers_by_item
        .keys()
        .chain(b.triggers_by_item.keys())
        .copied()
        .collect();
    keys.sort_unstable();
    keys.dedup();
    let rows: Vec<Vec<String>> = keys
        .into_iter()
        .map(|item| {
            let (na, nb) = (
                a.triggers_by_item.get(&item).copied().unwrap_or(0),
                b.triggers_by_item.get(&item).copied().unwrap_or(0),
            );
            vec![
                item.to_string(),
                na.to_string(),
                nb.to_string(),
                delta(na, nb),
            ]
        })
        .collect();
    table(
        &mut out,
        "Refreshes that forced recomputation, by item",
        &["item", "a", "b", "delta"],
        &rows,
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn event(ts_ns: u64, target: &str, kind: EventKind) -> Event {
        let mut e = Event::new(target.to_string(), kind);
        e.ts_ns = ts_ns;
        e
    }

    #[test]
    fn durstats_uses_exact_nearest_rank() {
        let mut durs = vec![100, 900, 300, 300, 400];
        let s = DurStats::compute(&mut durs);
        assert_eq!(s.count, 5);
        assert_eq!(s.sum, 2000);
        assert_eq!(s.p50, 300, "3rd of 5 sorted values");
        assert_eq!(s.p95, 900);
        assert_eq!(s.p99, 900);
        assert_eq!(s.max, 900);
        assert_eq!(DurStats::compute(&mut []), DurStats::default());
    }

    #[test]
    fn stats_attribute_recomputes_and_triggers() {
        let events = vec![
            // One refresh, as older traces wrote them, and a run's count.
            event(10, "sim.refresh", EventKind::Count).with("item", 3u64),
            (event(15, "sim.refresh", EventKind::Count).with("item", 4u64)).with("refreshes", 5u64),
            event(20, "dab.recompute", EventKind::Count).with("query", 1u64),
            event(25, "dab.recompute_trigger", EventKind::Count)
                .with("item", 3u64)
                .with("recomputes", 2u64),
            event(30, "dab.recompute", EventKind::Count)
                .with("node", 1u64)
                .with("query", 0u64),
            event(40, "gp.solve_ns", EventKind::Timing)
                .with("dur_ns", 500u64)
                .with("query", 1u64),
            event(50, "dab.reanchor", EventKind::Count)
                .with("query", 1u64)
                .with("unit", 0u64)
                .with("scale", 0.5)
                .with("floor", false),
            event(60, "dab.reanchor", EventKind::Count)
                .with("node", 1u64)
                .with("query", 0u64),
        ];
        let stats = TraceStats::from_events(&events);
        assert_eq!(stats.reanchors_by_query["1"], 1);
        assert_eq!(stats.reanchors_by_query["c1.q0"], 1);
        assert_eq!(stats.refreshes_by_item[&3], 1);
        assert_eq!(stats.refreshes_by_item[&4], 5);
        assert_eq!(stats.recomputes_by_query["1"], 1);
        assert_eq!(stats.recomputes_by_query["c1.q0"], 1);
        assert_eq!(stats.triggers_by_item[&3], 1);
        assert_eq!(stats.forced_by_item[&3], 2);
        assert_eq!(stats.solve_by_query[&1], vec![500]);
        assert_eq!(stats.spans["gp.solve_ns"], vec![500]);
    }

    #[test]
    fn tree_nests_spans_by_explicit_parents() {
        // Two worker solves parented to one batch span; the second
        // ends *after* its parent (worker outlived the guard's window),
        // so only the ids say where it belongs.
        let events = vec![
            event(1000, "gp.solve_ns", EventKind::Timing)
                .with("dur_ns", 300u64)
                .with("span_id", 2u64)
                .with("parent", 1u64),
            event(1010, "sim.recompute_batch_ns", EventKind::Timing)
                .with("dur_ns", 500u64)
                .with("span_id", 1u64),
            event(2000, "gp.solve_ns", EventKind::Timing)
                .with("dur_ns", 400u64)
                .with("span_id", 3u64)
                .with("parent", 1u64),
        ];
        let text = render_tree(&events);
        let lines: Vec<&str> = text.lines().collect();
        let parent = lines
            .iter()
            .find(|l| l.contains("sim.recompute_batch_ns"))
            .unwrap();
        assert!(parent.contains("500"), "{parent}");
        let nested = lines
            .iter()
            .find(|l| l.trim_start().starts_with("gp.solve_ns"))
            .unwrap();
        assert!(nested.starts_with("  "), "solves must nest: {nested}");
        assert!(nested.contains('2') && nested.contains("700"), "{nested}");
    }

    #[test]
    fn span_forest_extracts_edges_in_event_order() {
        let events = vec![
            event(10, "outer_ns", EventKind::Timing)
                .with("dur_ns", 9u64)
                .with("span_id", 7u64),
            event(9, "inner_ns", EventKind::Timing)
                .with("dur_ns", 3u64)
                .with("span_id", 8u64)
                .with("parent", 7u64),
            // No span_id: not an edge.
            event(20, "legacy_ns", EventKind::Timing).with("dur_ns", 5u64),
        ];
        let edges = span_forest(&events);
        assert_eq!(edges.len(), 2);
        assert_eq!(edges[0].id, 7);
        assert_eq!(edges[0].parent, None);
        assert_eq!(edges[1].parent, Some(7));
        assert_eq!(edges[1].name, "inner_ns");
        assert_eq!(edges[1].dur_ns, 3);
    }

    #[test]
    fn diff_shows_signed_deltas() {
        let a = TraceStats::from_events(&[
            event(1, "sim.refresh", EventKind::Count).with("item", 0u64),
            event(2, "sim.refresh", EventKind::Count).with("item", 0u64),
        ]);
        let b =
            TraceStats::from_events(
                &[event(3, "sim.refresh", EventKind::Count).with("item", 0u64)],
            );
        let text = render_diff(&a, &b);
        assert!(text.contains("sim.refresh"), "{text}");
        assert!(text.contains("-1"), "{text}");
    }

    #[test]
    fn postmortem_renders_header_counts_and_timeline() {
        let events = vec![
            event(5000, "recorder.dump", EventKind::Point)
                .with("reason", "audit.divergence")
                .with("seq", 0u64)
                .with("threads", 2u64)
                .with("events", 3u64)
                .with("dropped", 1u64),
            event(100, "sim.refresh", EventKind::Count)
                .with("item", 3u64)
                .with("thread", "main"),
            event(200, "gp.solve_ns", EventKind::Timing)
                .with("dur_ns", 400u64)
                .with("thread", "pq-recompute-0"),
            event(300, "audit.divergence", EventKind::Point)
                .with("query", 0u64)
                .with("thread", "main"),
        ];
        let text = render_postmortem(&events, 2);
        assert!(text.contains("reason: audit.divergence"), "{text}");
        assert!(text.contains("dropped: 1"));
        // Thread accounting covers both threads.
        assert!(text.contains("main") && text.contains("pq-recompute-0"));
        // Tail of 2 skips the first buffered event but keeps the trigger.
        assert!(text.contains("Timeline (last 2 of 3 events)"), "{text}");
        assert!(
            !text.contains("item=3"),
            "tail must drop the oldest: {text}"
        );
        assert!(text.contains("query=0"), "{text}");
    }

    #[test]
    fn postmortem_without_header_degrades_gracefully() {
        let events = vec![event(1, "sim.refresh", EventKind::Count).with("thread", "main")];
        let text = render_postmortem(&events, 10);
        assert!(text.contains("not a flight-recorder dump"), "{text}");
        assert!(text.contains("Timeline (last 1 of 1 events)"));
    }

    #[test]
    fn load_reports_malformed_lines_with_numbers() {
        let dir = std::env::temp_dir().join("pq-trace-test-load");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bad.jsonl");
        std::fs::write(
            &path,
            "{\"ts_ns\":1,\"target\":\"t\",\"kind\":\"point\",\"fields\":{}}\nnot json\n",
        )
        .unwrap();
        match load(&path) {
            Err(TraceError::Parse { line: 2, .. }) => {}
            other => panic!("expected parse error on line 2, got {other:?}"),
        }
        std::fs::remove_file(&path).ok();
    }
}
