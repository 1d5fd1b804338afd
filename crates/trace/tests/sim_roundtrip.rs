//! End-to-end attribution check: run the simulator with a JSONL trace
//! attached, re-analyze the trace with `pq-trace`, and require that the
//! trace-derived attribution (recomputations, re-anchors, refreshes)
//! matches [`pq_sim::SimMetrics`] exactly — the acceptance bar for the
//! offline analysis being trustworthy.

use std::sync::Arc;

use pq_ddm::{Trace, TraceSet};
use pq_poly::{ItemId, PolynomialQuery};
use pq_sim::{run_observed, DelayConfig, Obs, SimConfig};
use pq_trace::{load, span_forest, TraceStats};

/// One record per solve: every `gp.*` event of a run is a `gp.solve_ns`
/// span event that carries what its solve did (no per-iterate events,
/// no point event beside the span).
fn assert_one_record_per_solve(events: &[pq_obs::Event]) {
    let solves = events.iter().filter(|e| e.target.starts_with("gp."));
    assert!(solves.clone().count() > 0, "the run solved");
    for e in solves {
        let record = e.target == "gp.solve_ns" && e.field("newton_steps").is_some();
        assert!(record, "{e:?}");
    }
}

/// A run records decisions, not messages: beside the QAB violations and
/// the recompute batch spans, its only `sim.*` events are one
/// `sim.refresh` count per (node, item) ingested, written at the end of
/// the run (the tests below hold their sum to `SimMetrics::refreshes`).
fn assert_refreshes_are_counted_once(events: &[pq_obs::Event]) {
    let mut counted = std::collections::BTreeSet::new();
    for e in events.iter().filter(|e| e.target.starts_with("sim.")) {
        let field = |key| e.field(key).map(|v| format!("{v:?}"));
        let allowed = match e.target.as_ref() {
            "sim.qab_violation" | "sim.recompute_batch_ns" => true,
            "sim.refresh" => {
                let (item, n) = (field("item"), field("refreshes"));
                item.is_some() && n.is_some() && counted.insert((field("node"), item))
            }
            _ => false,
        };
        assert!(allowed, "{e:?}");
    }
}

#[test]
fn trace_attribution_matches_sim_metrics_exactly() {
    let traces = TraceSet::new(vec![
        Trace::sinusoid(20.0, 3.0, 400.0, 600),
        Trace::sinusoid(10.0, 2.0, 300.0, 600),
        Trace::sinusoid(15.0, 4.0, 250.0, 600),
    ]);
    // QABs tight enough that the run both re-solves and re-anchors.
    let queries = vec![
        PolynomialQuery::portfolio([(1.0, ItemId(0), ItemId(1))], 4.0).unwrap(),
        PolynomialQuery::portfolio([(1.0, ItemId(1), ItemId(2))], 3.0).unwrap(),
    ];
    let cfg = SimConfig::new(traces, queries);

    let dir = std::env::temp_dir().join("pq-trace-roundtrip");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("run-{}.jsonl", std::process::id()));
    let writer = Arc::new(pq_obs::JsonlWriter::create(&path).unwrap());
    let obs = Obs::with_subscriber(writer);

    let metrics = run_observed(&cfg, &obs).unwrap();
    obs.flush();

    let events = load(&path).unwrap();
    std::fs::remove_file(&path).ok();
    assert_one_record_per_solve(&events);
    assert_refreshes_are_counted_once(&events);
    let stats = TraceStats::from_events(&events);

    // Per-query recomputations: every dab.recompute event carries its
    // query label; the trace tally must equal the engine's own counts.
    for (qi, &n) in metrics.per_query_recomputations.iter().enumerate() {
        let traced = stats
            .recomputes_by_query
            .get(&qi.to_string())
            .copied()
            .unwrap_or(0);
        assert_eq!(traced, n, "query {qi} recomputations");
    }
    let traced_total: u64 = stats.recomputes_by_query.values().sum();
    assert_eq!(traced_total, metrics.recomputations, "total recomputations");
    // One dab.reanchor event per re-anchored unit.
    let traced_total: u64 = stats.reanchors_by_query.values().sum();
    assert_eq!(traced_total, metrics.reanchors, "total re-anchors");
    assert!(metrics.reanchors > 0, "simulation should re-anchor");

    // Per-item refreshes and refreshes-that-forced-recomputation.
    for (item, &n) in metrics.per_item_refreshes.iter().enumerate() {
        let traced = stats
            .refreshes_by_item
            .get(&(item as u64))
            .copied()
            .unwrap_or(0);
        assert_eq!(traced, n, "item {item} refreshes");
    }
    let traced_total: u64 = stats.refreshes_by_item.values().sum();
    assert_eq!(traced_total, metrics.refreshes, "total refreshes");

    for (item, &n) in metrics.per_item_recompute_triggers.iter().enumerate() {
        let traced = stats
            .triggers_by_item
            .get(&(item as u64))
            .copied()
            .unwrap_or(0);
        assert_eq!(traced, n, "item {item} forcing refreshes");
    }

    // Every forced recomputation is attributed to some item, and the
    // per-item forced totals add up to the recomputations that the
    // trigger events explain (initial installs are not item-forced).
    let forced_total: u64 = stats.forced_by_item.values().sum();
    assert!(forced_total <= metrics.recomputations);
    assert!(metrics.recomputations > 0, "simulation should recompute");
}

/// The same for a dissemination tree: a node's `dab.recompute` events
/// carry a `node` field, which `pq-trace` names `c<node>.q<id>`, and so
/// do its `sim.refresh` counts. Queries are named by
/// their index in the book, so every node's `gp.solve` spans land in
/// solve rows of their own.
#[test]
fn tree_trace_attribution_sums_to_tree_metrics() {
    let traces = TraceSet::new(vec![
        Trace::sinusoid(20.0, 3.0, 400.0, 800),
        Trace::sinusoid(10.0, 2.0, 300.0, 800),
        Trace::sinusoid(15.0, 2.5, 350.0, 800),
    ]);
    let queries = (0..6)
        .map(|k| {
            let (a, b) = [(0, 1), (1, 2), (0, 2)][k % 3];
            let leg = (1.0 + k as f64, ItemId(a), ItemId(b));
            PolynomialQuery::portfolio([leg], 20.0 + k as f64).unwrap()
        })
        .collect();
    let mut cfg = SimConfig::new(traces, queries);
    cfg.coordinators = std::num::NonZeroUsize::new(3).unwrap();
    cfg.delays = DelayConfig::zero();
    let (obs, ring) = Obs::ring(1 << 16);
    let m = run_observed(&cfg, &obs).unwrap();
    assert_eq!(ring.dropped(), 0, "the ring holds the whole run");
    let events = ring.events();
    assert_one_record_per_solve(&events);
    assert_refreshes_are_counted_once(&events);
    let stats = TraceStats::from_events(&events);

    assert!(m.recomputations > 0, "the tree should recompute");
    // Three nodes of two queries each, dealt round-robin: node c's are
    // c and c + 3.
    let node_of = |key: &str| {
        let (node, q) = key.strip_prefix('c')?.split_once(".q")?;
        let q = q.parse::<u64>().ok()?;
        (node.parse::<u64>().ok()? == q % 3 && q < 6).then_some(q)
    };
    for (key, &n) in &stats.recomputes_by_query {
        let q = node_of(key).unwrap_or_else(|| panic!("{key} names no query of its node"));
        // Its own solve row: the install's solve and one per recompute.
        let solves = stats.solve_by_query.get(&q).map_or(0, Vec::len) as u64;
        assert!(solves > n, "{key}: {n} recomputes, {solves} solves");
    }
    // Every node's queries solved at install, each in a row of its own.
    let rows: Vec<u64> = stats.solve_by_query.keys().copied().collect();
    assert_eq!(
        rows,
        (0..6).collect::<Vec<_>>(),
        "one row per (node, query)"
    );
    let traced: usize = stats.solve_by_query.values().map(Vec::len).sum();
    assert_eq!(
        traced,
        stats.spans["gp.solve_ns"].len(),
        "every solve attributed"
    );
    let traced: u64 = stats.recomputes_by_query.values().sum();
    assert_eq!(traced, m.recomputations, "total recomputations");
    let traced: u64 = stats.reanchors_by_query.values().sum();
    assert_eq!(traced, m.reanchors, "total re-anchors");
    assert!(m.reanchors > 0, "the tree should re-anchor");
    assert!(
        stats
            .reanchors_by_query
            .keys()
            .all(|key| node_of(key).is_some()),
        "every re-anchor names a query of its node"
    );
    let traced: u64 = stats.refreshes_by_item.values().sum();
    assert_eq!(traced, m.refreshes, "total refreshes");
}

/// Causal spans of the in-run re-solves: every in-run `gp.solve` span
/// recorded by a recompute batch must carry an explicit parent edge
/// whose chain is rooted at a `sim.recompute_batch` span. (Parenting
/// across threads is `pq_core`'s install test
/// `solve_spans_parent_under_the_caller_on_any_worker`.)
#[test]
fn in_run_solve_spans_nest_under_their_recompute_batch() {
    let traces = TraceSet::new(vec![
        Trace::sinusoid(20.0, 3.0, 400.0, 600),
        Trace::sinusoid(10.0, 2.0, 300.0, 600),
        Trace::sinusoid(15.0, 4.0, 250.0, 600),
    ]);
    let queries = vec![
        PolynomialQuery::portfolio([(1.0, ItemId(0), ItemId(1))], 8.0).unwrap(),
        PolynomialQuery::portfolio([(1.0, ItemId(1), ItemId(2))], 6.0).unwrap(),
    ];
    let cfg = SimConfig::new(traces, queries);

    let dir = std::env::temp_dir().join("pq-trace-roundtrip");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("spans-{}.jsonl", std::process::id()));
    let writer = Arc::new(pq_obs::JsonlWriter::create(&path).unwrap());
    let obs = Obs::with_subscriber(writer);
    run_observed(&cfg, &obs).unwrap();
    obs.flush();

    let events = load(&path).unwrap();
    std::fs::remove_file(&path).ok();
    let edges = span_forest(&events);
    let by_id: std::collections::HashMap<u64, &pq_trace::SpanEdge> =
        edges.iter().map(|e| (e.id, e)).collect();

    let batches = edges
        .iter()
        .filter(|e| e.name == "sim.recompute_batch_ns")
        .count();
    assert!(batches > 0, "in-run recompute batches should be recorded");

    // Every gp.solve span whose ancestor chain leaves the solver layer
    // (gp.solve under dab.solve) must land in a recompute batch: these
    // are exactly the in-run re-solves. Install-time seeding
    // solves have no batch ancestor and stay roots of their chains.
    let ancestry = |edge: &pq_trace::SpanEdge| {
        let mut names = Vec::new();
        let mut cursor = edge.parent;
        while let Some(p) = cursor.and_then(|p| by_id.get(&p)) {
            names.push(p.name.clone());
            cursor = p.parent;
        }
        names
    };
    let mut batched = 0;
    for edge in edges.iter().filter(|e| e.name == "gp.solve_ns") {
        let chain = ancestry(edge);
        if chain.iter().any(|n| n == "sim.recompute_batch_ns") {
            assert_eq!(
                chain.last().map(String::as_str),
                Some("sim.recompute_batch_ns"),
                "the recompute batch must be the root of an in-run solve's chain: {chain:?}"
            );
            batched += 1;
        }
    }
    assert!(
        batched > 0,
        "in-run gp.solve spans should resolve to batch parents"
    );
}
