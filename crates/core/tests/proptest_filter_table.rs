//! Property tests for the item-major filter table.
//!
//! The table's contract (DESIGN.md §10): as long as every installed
//! assignment was valid before a single-item move,
//! `FilterTable::stale_after` on the moved item's run returns exactly the
//! units `QueryAssignment::is_valid_at` rejects, and
//! `FilterTable::min_primary` is the minimum rule over
//! `QueryAssignment::primary_dab` — for any book shape (one- and two-unit
//! queries whose units cover different items, unread items), every
//! validity kind (`Always`, `AnchorOnly`, `Box` with finite, infinite and
//! missing secondaries), moves to 0 and below it, and hostile values
//! (NaN, ±∞).

use std::collections::BTreeMap;

use proptest::prelude::*;

use pq_core::{FilterTable, QueryAssignment, ValidityRange};
use pq_poly::ItemId;

const MAX_ITEMS: usize = 12;

/// One unit as generated: its raw item draws (folded into `n_items` and
/// deduplicated later), a validity kind, and per-slot DAB draws.
type RawUnit = (Vec<u32>, u8, Vec<(f64, u8, f64)>);

/// Builds unit `raw`'s assignment anchored at `values`; `scale`
/// stretches the primary DABs so a re-solve differs from the first.
fn assignment(raw: &RawUnit, n_items: usize, values: &[f64], scale: f64) -> QueryAssignment {
    let (items, kind, dabs) = raw;
    let mut primary = BTreeMap::new();
    let mut secondary = BTreeMap::new();
    let mut anchor = BTreeMap::new();
    for (&i, &(b, c_kind, c)) in items.iter().zip(dabs) {
        let item = ItemId(i % n_items as u32);
        primary.insert(item, b * scale);
        anchor.insert(item, values[item.index()]);
        match c_kind % 4 {
            // A missing box entry reads as 0.
            0 => {}
            1 => {
                secondary.insert(item, f64::INFINITY);
            }
            _ => {
                secondary.insert(item, c);
            }
        }
    }
    QueryAssignment {
        primary,
        validity: match kind % 3 {
            0 => ValidityRange::Always,
            1 => ValidityRange::AnchorOnly,
            _ => ValidityRange::Box(secondary),
        },
        anchor,
        recompute_rate: 0.0,
        refresh_rate: 0.0,
    }
}

fn arb_unit() -> impl Strategy<Value = RawUnit> {
    (
        proptest::collection::vec(0u32..MAX_ITEMS as u32, 1..5),
        0u8..3,
        proptest::collection::vec((0.01f64..5.0, 0u8..4, 0.0f64..3.0), 5..=5),
    )
}

/// A table laid out over the items of `book`'s assignments, each one
/// installed through the column writer.
fn installed(n_items: usize, book: &[Vec<QueryAssignment>]) -> FilterTable {
    let items: Vec<Vec<Vec<ItemId>>> = (book.iter())
        .map(|units| {
            units
                .iter()
                .map(|qa| qa.anchor.keys().copied().collect())
                .collect()
        })
        .collect();
    let mut table = FilterTable::new(
        n_items,
        items.iter().map(|units| units.iter().map(Vec::as_slice)),
    );
    for (q, units) in book.iter().enumerate() {
        for (u, qa) in units.iter().enumerate() {
            table.install(q, u, qa);
        }
    }
    table
}

/// The units the oracle rejects at `values`.
fn oracle_stale(book: &[Vec<QueryAssignment>], values: &[f64]) -> Vec<(usize, usize)> {
    let mut stale = Vec::new();
    for (q, per_query) in book.iter().enumerate() {
        for (u, qa) in per_query.iter().enumerate() {
            if !qa.is_valid_at(values) {
                stale.push((q, u));
            }
        }
    }
    stale
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn moved_item_scan_matches_the_assignment_oracle(
        n_items in 1usize..=MAX_ITEMS,
        raw_book in proptest::collection::vec(proptest::collection::vec(arb_unit(), 1..3), 1..8),
        start in proptest::collection::vec(1.0f64..100.0, MAX_ITEMS..=MAX_ITEMS),
        moves in proptest::collection::vec((0usize..MAX_ITEMS, 0u8..8, -4.0f64..4.0), 1..40),
    ) {
        let mut values = start[..n_items].to_vec();
        let mut book: Vec<Vec<QueryAssignment>> = raw_book
            .iter()
            .map(|units| units.iter().map(|raw| assignment(raw, n_items, &values, 1.0)).collect())
            .collect();
        let mut table = installed(n_items, &book);

        for (step, &(item, kind, delta)) in moves.iter().enumerate() {
            let item = item % n_items;
            let before = values[item];
            values[item] = match kind {
                0 => f64::NAN,
                1 => f64::INFINITY,
                2 => f64::NEG_INFINITY,
                3 => 0.0,
                4 => -before,
                _ => before + delta,
            };

            let mut stale = Vec::new();
            table.stale_after(item, values[item], &mut stale);
            prop_assert_eq!(&stale, &oracle_stale(&book, &values), "step {}", step);
            prop_assert!(table.scan_agrees(item, &values, &stale), "step {}", step);

            // What a coordinator does next: re-solve every stale unit at
            // the current values (a non-finite value is rejected before
            // it lands, so put the old one back first).
            if !values[item].is_finite() {
                values[item] = before;
            }
            for &(q, u) in &stale {
                let fresh = assignment(&raw_book[q][u], n_items, &values, 1.0 + 0.1 * step as f64);
                table.install(q, u, &fresh);
                book[q][u] = fresh;
            }
            for (q, per_query) in book.iter().enumerate() {
                for (u, qa) in per_query.iter().enumerate() {
                    prop_assert!(qa.is_valid_at(&values), "({}, {}) after step {}", q, u, step);
                    let items: Vec<u32> = qa.anchor.keys().map(|i| i.0).collect();
                    prop_assert_eq!(table.unit_items(q, u), items.as_slice());
                }
            }
            for i in 0..n_items {
                let want = book
                    .iter()
                    .flatten()
                    .filter_map(|qa| qa.primary_dab(ItemId(i as u32)))
                    .fold(f64::INFINITY, f64::min);
                prop_assert_eq!(table.min_primary(i), want, "item {} after step {}", i, step);
            }
        }
    }
}

/// Half-and-Half shape: the two units of one query cover different
/// items, so a move of an item only one of them reads can only ever
/// invalidate that one.
#[test]
fn an_item_absent_from_one_unit_never_touches_it() {
    let unit = |items: &[(u32, f64)], c: f64| QueryAssignment {
        primary: items.iter().map(|&(i, _)| (ItemId(i), 0.5)).collect(),
        validity: ValidityRange::Box(items.iter().map(|&(i, _)| (ItemId(i), c)).collect()),
        anchor: items.iter().map(|&(i, v)| (ItemId(i), v)).collect(),
        recompute_rate: 0.0,
        refresh_rate: 0.0,
    };
    let book = vec![vec![
        unit(&[(0, 10.0), (1, 20.0)], 1.0),
        unit(&[(2, 30.0), (3, 40.0)], 1.0),
    ]];
    let table = installed(4, &book);
    let mut stale = Vec::new();
    table.stale_after(3, f64::NAN, &mut stale);
    assert_eq!(stale, vec![(0, 1)]);
    stale.clear();
    table.stale_after(0, 12.0, &mut stale);
    assert_eq!(stale, vec![(0, 0)]);
    assert_eq!(table.min_primary(2), 0.5);
}
