//! Exposition formats for a metrics [`Snapshot`]: Prometheus text
//! (version 0.0.4) and a plain JSON object.
//!
//! Rendering is pull-time work on an immutable snapshot, so it costs the
//! instrumented process nothing between scrapes. Conventions:
//!
//! * metric names are prefixed `pq_` and sanitized (`.` → `_`), counters
//!   gain the `_total` suffix: `dab.recompute` → `pq_dab_recompute_total`;
//! * a labeled family shadows the plain counter of the same name (the
//!   family's sum equals the plain total, and Prometheus forbids mixing
//!   labeled and unlabeled series that would double-count);
//! * histograms render as native histogram series — cumulative
//!   `_bucket{le="..."}` from [`crate::HistogramSummary::buckets`], plus
//!   exact `_sum` and `_count` — and an auxiliary `_max` gauge (the exact
//!   observed maximum, which buckets alone cannot recover).

use crate::registry::Snapshot;
use crate::window::WindowSnapshot;
use std::fmt::Write as _;

/// Renders a snapshot in the Prometheus text exposition format.
pub fn render_prometheus(snapshot: &Snapshot) -> String {
    let mut out = String::with_capacity(4096);
    for (name, &value) in &snapshot.counters {
        // A labeled family of the same name carries the breakdown; its
        // sum is this total, so emitting both would double-count.
        if snapshot.labeled.contains_key(name) {
            continue;
        }
        let metric = format!("pq_{}_total", sanitize(name));
        let _ = writeln!(out, "# TYPE {metric} counter");
        let _ = writeln!(out, "{metric} {value}");
    }
    for (name, family) in &snapshot.labeled {
        let metric = format!("pq_{}_total", sanitize(name));
        let key = sanitize(&family.key);
        let _ = writeln!(out, "# TYPE {metric} counter");
        for (value, count) in &family.values {
            let _ = writeln!(out, "{metric}{{{key}=\"{}\"}} {count}", escape_label(value));
        }
    }
    for (name, h) in &snapshot.histograms {
        let metric = format!("pq_{}", sanitize(name));
        let _ = writeln!(out, "# TYPE {metric} histogram");
        for &(le, cumulative) in &h.buckets {
            let _ = writeln!(out, "{metric}_bucket{{le=\"{le}\"}} {cumulative}");
        }
        let _ = writeln!(out, "{metric}_bucket{{le=\"+Inf\"}} {}", h.count);
        let _ = writeln!(out, "{metric}_sum {}", h.sum);
        let _ = writeln!(out, "{metric}_count {}", h.count);
        let _ = writeln!(out, "# TYPE {metric}_max gauge");
        let _ = writeln!(out, "{metric}_max {}", h.max);
    }
    for (name, &value) in &snapshot.gauges {
        let metric = format!("pq_{}", sanitize(name));
        let _ = writeln!(out, "# TYPE {metric} gauge");
        let _ = writeln!(out, "{metric} {}", prom_f64(value));
    }
    out
}

/// Renders the windowed series of a [`crate::WindowPlane`] snapshot as
/// Prometheus gauges: `pq_<name>_rate_5s` / `_rate_1m` / `_rate_1h`
/// (events per simulated second over the trailing window). Appended to
/// the `/metrics` body after [`render_prometheus`] when a plane is
/// installed on the serving [`crate::Obs`] handle.
pub fn render_windows(windows: &WindowSnapshot) -> String {
    let mut out = String::with_capacity(1024);
    for series in &windows.counters {
        let metric = format!("pq_{}", sanitize(&series.name));
        for (suffix, rate) in series.rates {
            let _ = writeln!(out, "# TYPE {metric}_rate_{suffix} gauge");
            let _ = writeln!(out, "{metric}_rate_{suffix} {}", prom_f64(rate));
        }
    }
    out
}

/// Renders a gauge value for the text exposition format (which spells
/// non-finite values out, unlike JSON).
fn prom_f64(v: f64) -> String {
    if v.is_nan() {
        "NaN".to_string()
    } else if v == f64::INFINITY {
        "+Inf".to_string()
    } else if v == f64::NEG_INFINITY {
        "-Inf".to_string()
    } else {
        format!("{v}")
    }
}

/// Renders a snapshot as one JSON object:
/// `{"counters":{...},"labeled":{...},"histograms":{...},"gauges":{...}}`.
pub fn render_json(snapshot: &Snapshot) -> String {
    let mut out = String::with_capacity(4096);
    out.push_str("{\"counters\":{");
    for (i, (name, value)) in snapshot.counters.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{}:{value}", json_string(name));
    }
    out.push_str("},\"labeled\":{");
    for (i, (name, family)) in snapshot.labeled.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{}:{{\"key\":{},\"values\":{{",
            json_string(name),
            json_string(&family.key)
        );
        for (j, (value, count)) in family.values.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            let _ = write!(out, "{}:{count}", json_string(value));
        }
        out.push_str("}}");
    }
    out.push_str("},\"histograms\":{");
    for (i, (name, h)) in snapshot.histograms.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{}:{{\"count\":{},\"sum\":{},\"mean\":{},\"p50\":{},\"p95\":{},\"p99\":{},\"min\":{},\"max\":{},\"buckets\":[",
            json_string(name),
            h.count,
            h.sum,
            json_f64(h.mean),
            h.p50,
            h.p95,
            h.p99,
            h.min,
            h.max
        );
        for (j, &(le, cumulative)) in h.buckets.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            let _ = write!(out, "[{le},{cumulative}]");
        }
        out.push_str("]}");
    }
    out.push_str("},\"gauges\":{");
    for (i, (name, &value)) in snapshot.gauges.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{}:{}", json_string(name), json_f64(value));
    }
    out.push_str("}}");
    out
}

/// Maps a dotted metric name onto the Prometheus `[a-zA-Z0-9_]` alphabet.
fn sanitize(name: &str) -> String {
    name.chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
        .collect()
}

/// Escapes a label value per the text exposition format.
fn escape_label(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for c in value.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// `s` as a JSON string literal, escaped exactly as JSONL events are.
pub(crate) fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    crate::jsonl::push_json_string(&mut out, s);
    out
}

pub(crate) fn json_f64(v: f64) -> String {
    if !v.is_finite() {
        "null".to_string()
    } else if v.fract() == 0.0 && v.abs() < 1e15 {
        format!("{v:.1}")
    } else {
        format!("{v}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Obs;

    fn populated() -> Snapshot {
        let obs = Obs::null();
        obs.counter("sim.refresh").add(7);
        obs.counter("dab.recompute").add(5);
        obs.labeled_counter("dab.recompute", "query", "0").add(2);
        obs.labeled_counter("dab.recompute", "query", "1").add(3);
        obs.histogram("gp.solve_ns").record(100);
        obs.histogram("gp.solve_ns").record(900);
        obs.snapshot()
    }

    #[test]
    fn prometheus_counters_and_labels() {
        let text = render_prometheus(&populated());
        assert!(text.contains("# TYPE pq_sim_refresh_total counter\n"));
        assert!(text.contains("pq_sim_refresh_total 7\n"));
        assert!(text.contains("pq_dab_recompute_total{query=\"0\"} 2\n"));
        assert!(text.contains("pq_dab_recompute_total{query=\"1\"} 3\n"));
        // The plain counter is shadowed by its labeled family.
        assert!(!text.contains("pq_dab_recompute_total 5"));
    }

    #[test]
    fn prometheus_histograms_emit_buckets_sum_count_max() {
        let text = render_prometheus(&populated());
        assert!(text.contains("# TYPE pq_gp_solve_ns histogram\n"));
        assert!(text.contains("pq_gp_solve_ns_bucket{le=\"127\"} 1\n"));
        assert!(text.contains("pq_gp_solve_ns_bucket{le=\"1023\"} 2\n"));
        assert!(text.contains("pq_gp_solve_ns_bucket{le=\"+Inf\"} 2\n"));
        assert!(text.contains("pq_gp_solve_ns_sum 1000\n"));
        assert!(text.contains("pq_gp_solve_ns_count 2\n"));
        assert!(text.contains("pq_gp_solve_ns_max 900\n"));
    }

    #[test]
    fn prometheus_rendering_matches_fixed_snapshot_exactly() {
        // Pin the full document, not substrings: conformance means the
        // explicit `+Inf` bucket, cumulative bucket counts, and the
        // `_sum`/`_count` pair render exactly like this, in this order.
        let obs = Obs::null();
        obs.counter("sim.refresh").add(7);
        obs.counter("dab.recompute").add(5);
        obs.labeled_counter("dab.recompute", "query", "0").add(2);
        obs.labeled_counter("dab.recompute", "query", "1").add(3);
        obs.histogram("gp.solve_ns").record(100);
        obs.histogram("gp.solve_ns").record(900);
        obs.gauge("audit.drift_max").set(0.125);
        let expected = "\
# TYPE pq_sim_refresh_total counter
pq_sim_refresh_total 7
# TYPE pq_dab_recompute_total counter
pq_dab_recompute_total{query=\"0\"} 2
pq_dab_recompute_total{query=\"1\"} 3
# TYPE pq_gp_solve_ns histogram
pq_gp_solve_ns_bucket{le=\"127\"} 1
pq_gp_solve_ns_bucket{le=\"1023\"} 2
pq_gp_solve_ns_bucket{le=\"+Inf\"} 2
pq_gp_solve_ns_sum 1000
pq_gp_solve_ns_count 2
# TYPE pq_gp_solve_ns_max gauge
pq_gp_solve_ns_max 900
# TYPE pq_audit_drift_max gauge
pq_audit_drift_max 0.125
";
        assert_eq!(render_prometheus(&obs.snapshot()), expected);
    }

    #[test]
    fn windowed_series_render_as_rate_gauges() {
        let plane = crate::WindowPlane::new();
        let refreshes = std::sync::Arc::new(crate::Counter::default());
        plane.track_source("sim.refresh", refreshes.clone());
        refreshes.add(120);
        plane.advance(60);
        let text = render_windows(&plane.snapshot());
        assert!(text.contains("# TYPE pq_sim_refresh_rate_5s gauge\n"));
        assert!(text.contains("pq_sim_refresh_rate_5s 24\n"));
        assert!(text.contains("pq_sim_refresh_rate_1m 2\n"));
        // Every line is still well-formed exposition text.
        for line in text.lines() {
            let (_, value) = line.rsplit_once(' ').expect("space-separated");
            if !line.starts_with('#') {
                assert!(value.parse::<f64>().is_ok(), "bad value in: {line}");
            }
        }
    }

    #[test]
    fn prometheus_text_format_is_well_formed() {
        for line in render_prometheus(&populated()).lines() {
            assert!(!line.is_empty());
            if line.starts_with('#') {
                assert!(line.starts_with("# TYPE "), "unexpected comment: {line}");
                continue;
            }
            // `name{labels} value` or `name value`, value parses numeric.
            let (series, value) = line.rsplit_once(' ').expect("space-separated");
            assert!(value.parse::<f64>().is_ok(), "bad value in: {line}");
            let name = series.split('{').next().unwrap();
            assert!(
                name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_'),
                "bad metric name in: {line}"
            );
        }
    }

    #[test]
    fn json_round_trips_through_own_parser() {
        // The JSONL event parser accepts any scalar map, so reuse its
        // grammar pieces indirectly: just sanity-check shape and that
        // the output is balanced JSON with expected keys.
        let json = render_json(&populated());
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"counters\":{"));
        assert!(json.contains("\"sim.refresh\":7"));
        assert!(json.contains("\"dab.recompute\":{\"key\":\"query\",\"values\":{\"0\":2,\"1\":3}}"));
        assert!(json.contains("\"gp.solve_ns\":{\"count\":2,\"sum\":1000"));
        assert!(json.contains("\"buckets\":[[127,1],[1023,2]]"));
        let balanced = json
            .chars()
            .fold(0i32, |d, c| d + (c == '{') as i32 - (c == '}') as i32);
        assert_eq!(balanced, 0);

        // A label with a control character, a quote, a backslash and a
        // tab is spelled byte for byte as a JSONL event spells it.
        let label = "a\u{1}\"b\\\tc";
        let escaped = r#""a\u0001\"b\\\tc""#;
        let obs = Obs::null();
        obs.labeled_counter("m", "key", label).inc();
        let json = render_json(&obs.snapshot());
        assert!(
            json.contains(&format!("\"values\":{{{escaped}:1}}")),
            "{json}"
        );
        let event = crate::Event::new("t", crate::EventKind::Point).with("s", label.to_string());
        assert!(crate::to_json(&event).contains(&format!("\"s\":{escaped}")));
    }

    #[test]
    fn label_escaping_is_applied() {
        let obs = Obs::null();
        obs.labeled_counter("m", "series", "a\"b\\c\nd").inc();
        let text = render_prometheus(&obs.snapshot());
        assert!(text.contains("pq_m_total{series=\"a\\\"b\\\\c\\nd\"} 1"));
    }

    #[test]
    fn empty_snapshot_renders_empty_documents() {
        let snap = Snapshot::default();
        assert_eq!(render_prometheus(&snap), "");
        assert_eq!(
            render_json(&snap),
            "{\"counters\":{},\"labeled\":{},\"histograms\":{},\"gauges\":{}}"
        );
    }

    #[test]
    fn gauges_render_in_both_formats() {
        let obs = Obs::null();
        obs.gauge("audit.drift_max").set(0.125);
        obs.gauge("audit.fidelity_loss_pct").set(3.0);
        let snap = obs.snapshot();
        let text = render_prometheus(&snap);
        assert!(text.contains("# TYPE pq_audit_drift_max gauge\n"));
        assert!(text.contains("pq_audit_drift_max 0.125\n"));
        assert!(text.contains("pq_audit_fidelity_loss_pct 3\n"));
        let json = render_json(&snap);
        assert!(
            json.contains("\"gauges\":{\"audit.drift_max\":0.125,\"audit.fidelity_loss_pct\":3.0}")
        );
    }

    #[test]
    fn never_recorded_histogram_renders_without_sentinel_min() {
        let obs = Obs::null();
        let _ = obs.histogram("empty_ns");
        let text = render_prometheus(&obs.snapshot());
        assert!(
            !text.contains(&u64::MAX.to_string()),
            "sentinel leaked: {text}"
        );
        let json = render_json(&obs.snapshot());
        assert!(json.contains("\"empty_ns\":{\"count\":0,\"sum\":0,\"mean\":0.0,\"p50\":0,\"p95\":0,\"p99\":0,\"min\":0,\"max\":0,\"buckets\":[]}"));
    }
}
