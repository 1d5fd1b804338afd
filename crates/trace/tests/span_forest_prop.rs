//! Property: a span forest emitted as JSONL timing events round-trips
//! exactly through `pq-trace` — [`pq_trace::span_forest`] recovers the
//! precise parent/child structure regardless of event order or
//! timestamps (the explicit `span_id`/`parent` fields carry the
//! causality, as they do across the install's worker threads, where
//! interval containment would misattribute overlapping workers).

use std::collections::{BTreeMap, HashMap};

use pq_obs::{parse, to_json, Event, EventKind};
use pq_trace::{render_tree, span_forest};
use proptest::prelude::*;

/// One modeled span: a name, an optional parent (an earlier index), a
/// duration, and an arbitrary end timestamp (deliberately unrelated to
/// the nesting — explicit ids must not care).
#[derive(Debug, Clone)]
struct ModelSpan {
    name: &'static str,
    parent: Option<usize>,
    dur_ns: u64,
    ts_ns: u64,
}

const NAMES: [&str; 4] = [
    "sim.recompute_batch_ns",
    "gp.solve_ns",
    "monitor.install_ns",
    "eval_ns",
];

fn arb_forest() -> impl Strategy<Value = Vec<ModelSpan>> {
    // (name pick, parent pick, dur, ts) per span; names from a small
    // alphabet so paths collide and aggregate.
    proptest::collection::vec(
        (
            0usize..NAMES.len(),
            0u64..u64::MAX,
            0u64..1_000_000,
            0u64..1_000_000,
        ),
        1..24,
    )
    .prop_map(|raw| {
        raw.into_iter()
            .enumerate()
            .map(|(i, (name, pick, dur_ns, ts_ns))| ModelSpan {
                name: NAMES[name],
                // Roots and nested spans mixed: even picks parent an
                // earlier span, odd stays a root.
                parent: if i > 0 && pick % 2 == 0 {
                    Some((pick % i as u64) as usize)
                } else {
                    None
                },
                dur_ns,
                ts_ns,
            })
            .collect()
    })
}

/// Root-to-leaf name path of model span `i`.
fn model_path(forest: &[ModelSpan], i: usize) -> String {
    let mut names = vec![forest[i].name];
    let mut cursor = forest[i].parent;
    while let Some(p) = cursor {
        names.push(forest[p].name);
        cursor = forest[p].parent;
    }
    names.reverse();
    names.join("/")
}

proptest! {
    #[test]
    fn span_forest_round_trips_through_jsonl(
        forest in arb_forest(),
        order in proptest::collection::vec(0u64..u64::MAX, 24..25),
    ) {
        // Emit in a scrambled order: sort indices by the random keys.
        let mut emit: Vec<usize> = (0..forest.len()).collect();
        emit.sort_by_key(|&i| order[i]);

        let mut lines = Vec::new();
        for &i in &emit {
            let span = &forest[i];
            let mut event = Event::new(span.name.to_string(), EventKind::Timing)
                .with("dur_ns", span.dur_ns)
                .with("span_id", i as u64 + 1);
            if let Some(p) = span.parent {
                event = event.with("parent", p as u64 + 1);
            }
            event.ts_ns = span.ts_ns;
            lines.push(to_json(&event));
        }
        let parsed: Vec<Event> = lines.iter().map(|l| parse(l).unwrap()).collect();

        // The reconstructed forest is the model forest, exactly.
        let edges = span_forest(&parsed);
        prop_assert_eq!(edges.len(), forest.len());
        let by_id: HashMap<u64, &pq_trace::SpanEdge> =
            edges.iter().map(|e| (e.id, e)).collect();
        for (i, span) in forest.iter().enumerate() {
            let edge = by_id[&(i as u64 + 1)];
            prop_assert_eq!(edge.name.as_str(), span.name);
            prop_assert_eq!(edge.parent, span.parent.map(|p| p as u64 + 1));
            prop_assert_eq!(edge.dur_ns, span.dur_ns);
        }

        // Walking the recovered edges rebuilds every root-to-leaf path.
        let mut expected: BTreeMap<String, u64> = BTreeMap::new();
        for i in 0..forest.len() {
            *expected.entry(model_path(&forest, i)).or_insert(0) += 1;
        }
        let mut recovered: BTreeMap<String, u64> = BTreeMap::new();
        for edge in &edges {
            let mut names = vec![edge.name.as_str()];
            let mut cursor = edge.parent;
            while let Some(p) = cursor.map(|p| by_id[&p]) {
                names.push(p.name.as_str());
                cursor = p.parent;
            }
            names.reverse();
            *recovered.entry(names.join("/")).or_insert(0) += 1;
        }
        prop_assert_eq!(&recovered, &expected);

        // And the tree report is the model's, row for row: one row per
        // path in path order, at the path's depth, with the path's span
        // count, summed duration and summed self time (duration minus
        // direct children's), timestamps notwithstanding.
        let mut child_ns = vec![0u64; forest.len()];
        for span in &forest {
            if let Some(p) = span.parent {
                child_ns[p] += span.dur_ns;
            }
        }
        let mut model: BTreeMap<String, [u64; 3]> = BTreeMap::new();
        for (i, span) in forest.iter().enumerate() {
            let row = model.entry(model_path(&forest, i)).or_default();
            row[0] += 1;
            row[1] += span.dur_ns;
            row[2] += span.dur_ns.saturating_sub(child_ns[i]);
        }
        let text = render_tree(&parsed);
        let rows: Vec<&str> = text.lines().skip(2).take_while(|l| !l.is_empty()).collect();
        prop_assert_eq!(rows.len(), model.len(), "{}", text);
        for (row, (path, want)) in rows.iter().zip(&model) {
            let depth = path.matches('/').count();
            let leaf = path.rsplit('/').next().unwrap();
            let needle = format!("{}{leaf} ", "  ".repeat(depth));
            prop_assert!(row.starts_with(&needle), "want {:?}, got {:?}", needle, row);
            let cells: Vec<u64> = row
                .split_whitespace()
                .skip(1)
                .map(|c| c.parse().unwrap())
                .collect();
            prop_assert_eq!(&cells[..], &want[..], "{}", path);
        }
    }
}
