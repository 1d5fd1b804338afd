//! The coordinator's filter table: every installed assignment, stored
//! item-major.
//!
//! A coordinator asks two questions of *all* its assignments on every
//! refresh, both about one item: "which units does `x`'s new value
//! invalidate?" (the secondary-DAB check of §III-A.2) and "what is the
//! tightest primary DAB any unit holds for `x`?" (the EQI minimum rule of
//! §IV). The table answers both from one contiguous run: item `x`'s
//! *cells*, one per `(query, unit)` whose unit reads `x`, each holding
//! the values that unit accepts for `x` and its primary DAB for `x`.
//!
//! The cells are laid out once, from every unit's item list, before
//! anything is solved ([`FilterTable::new`]). A solve writes a unit's
//! assignment as the three columns of a [`UnitColumns`], and
//! [`FilterTable::write`] scatters them into the unit's cells; a
//! [`QueryAssignment`] goes in through the same writer
//! ([`FilterTable::install`]). The cells keep only what a refresh
//! reads: the assignment itself stays in the columns it was written
//! from (the unit's [`crate::UnitCache`], which
//! [`crate::Coordinator::assignment`] reads).
//!
//! **Validity invariant.** [`FilterTable::stale_after`] looks only at the
//! moved item's run. That equals a full [`QueryAssignment::is_valid_at`]
//! scan of every reader as long as every installed assignment was valid
//! at the coordinator's values *before* the move — which a coordinator
//! maintains by re-solving (and writing, anchored at the current values)
//! every unit a refresh invalidates before it looks at the next refresh.
//! [`FilterTable::scan_agrees`] is the full-scan oracle
//! [`crate::Coordinator::react`] `debug_assert!`s after each refresh.
//!
//! **Encoding.** A write stores each cell's accepted range `[lo, hi]`,
//! as `RangeKind::accepted` derives it from the unit's kind, the anchor
//! and the secondary DAB: `[min(0, anchor − c), anchor + c]` for `Box`
//! (a missing entry is `c = 0`), `[anchor, anchor]` for `AnchorOnly`,
//! `[−∞, +∞]` for `Always`. The check is `accepts`, two comparisons,
//! the predicate `is_valid_at` calls too, so a NaN value reads as stale
//! under every kind in both. A unit not yet written, or invalidated, has
//! the range `[NaN, NaN]`: stale at any value.

use std::sync::Arc;

use pq_poly::ItemId;

use crate::assignment::{accepts, QueryAssignment, UnitColumns};

/// All installed assignments of one coordinator as item-major columns
/// (see the module docs).
#[derive(Debug, Clone, Default)]
pub struct FilterTable {
    /// `item_start[i]..item_start[i + 1]` is item `i`'s run of cells.
    item_start: Vec<u32>,
    /// Per cell: the `(query, unit)` it belongs to, ascending in a run.
    owner: Vec<(u32, u32)>,
    /// Per cell: the values `[lo, hi]` its unit accepts for its item.
    bounds: Vec<[f64; 2]>,
    primary: Vec<f64>,
    /// `unit_base[q] + u` is the flat index of unit `u` of query `q`.
    unit_base: Vec<u32>,
    /// `unit_start[f]..unit_start[f + 1]` is flat unit `f`'s run in the
    /// two mirror arrays below.
    unit_start: Vec<u32>,
    /// Per mirror entry: the cell, and the item that cell belongs to
    /// (ascending within a unit).
    unit_cells: Vec<u32>,
    unit_items: Vec<u32>,
}

impl FilterTable {
    /// Lays the table out over `n_items` items: `units` yields, query by
    /// query, the item list (ascending) of every unit of the query. Those
    /// items are the unit's cells for the table's lifetime. Every unit is
    /// stale, with no primary DAB, until it is first written.
    ///
    /// # Panics
    /// Panics if a unit reads an item `>= n_items`.
    pub fn new<'a, Q>(n_items: usize, units: impl IntoIterator<Item = Q>) -> Self
    where
        Q: IntoIterator<Item = &'a [ItemId]>,
    {
        let mut item_start = vec![0u32; n_items + 1];
        let mut unit_base = Vec::new();
        let mut unit_start = vec![0u32];
        let mut unit_items = Vec::new();
        for per_query in units {
            unit_base.push(unit_start.len() as u32 - 1);
            for items in per_query {
                for item in items {
                    item_start[item.index() + 1] += 1;
                    unit_items.push(item.0);
                }
                unit_start.push(unit_items.len() as u32);
            }
        }
        unit_base.push(unit_start.len() as u32 - 1);
        for i in 0..n_items {
            item_start[i + 1] += item_start[i];
        }
        let n_cells = unit_items.len();
        let mut cursor = item_start.clone();
        let mut owner = vec![(0u32, 0u32); n_cells];
        let mut unit_cells = vec![0u32; n_cells];
        // Queries then units ascending, so each item's run comes out in
        // (query, unit) order — the order stale units are solved in.
        for q in 0..unit_base.len() - 1 {
            for f in unit_base[q] as usize..unit_base[q + 1] as usize {
                let u = f - unit_base[q] as usize;
                for m in unit_start[f] as usize..unit_start[f + 1] as usize {
                    let at = &mut cursor[unit_items[m] as usize];
                    owner[*at as usize] = (q as u32, u as u32);
                    unit_cells[m] = *at;
                    *at += 1;
                }
            }
        }
        FilterTable {
            item_start,
            owner,
            bounds: vec![[f64::NAN; 2]; n_cells],
            primary: vec![f64::INFINITY; n_cells],
            unit_base,
            unit_start,
            unit_cells,
            unit_items,
        }
    }

    #[inline]
    fn run(&self, item: usize) -> std::ops::Range<usize> {
        self.item_start[item] as usize..self.item_start[item + 1] as usize
    }

    #[inline]
    fn mirror(&self, q: usize, u: usize) -> std::ops::Range<usize> {
        let f = self.unit_base[q] as usize + u;
        debug_assert!(
            f < self.unit_base[q + 1] as usize,
            "query {q} has no unit {u}"
        );
        self.unit_start[f] as usize..self.unit_start[f + 1] as usize
    }

    /// The items unit `u` of query `q` holds a cell for, ascending —
    /// the items whose minimum primary DAB an install can move.
    #[inline]
    pub fn unit_items(&self, q: usize, u: usize) -> &[u32] {
        &self.unit_items[self.mirror(q, u)]
    }

    /// Scatters a fresh solve of unit `u` of query `q`, written as
    /// columns, into its cells.
    ///
    /// # Panics
    /// Panics unless `columns` is over exactly the unit's items (fixed at
    /// [`FilterTable::new`]).
    pub fn write(&mut self, q: usize, u: usize, columns: &UnitColumns) {
        let run = self.mirror(q, u);
        assert!(
            (columns.items().iter().map(|i| i.0)).eq(self.unit_items[run.clone()].iter().copied()),
            "assignment for unit ({q}, {u}) does not match the unit's items"
        );
        let kind = columns.kind();
        let (anchor, secondary, primary) =
            (columns.anchor(), columns.secondary(), columns.primary());
        for (k, m) in run.enumerate() {
            let cell = self.unit_cells[m] as usize;
            self.bounds[cell] = kind.accepted(anchor[k], secondary[k]);
            self.primary[cell] = primary[k];
        }
    }

    /// [`FilterTable::write`] of an assignment in its one-shot form.
    ///
    /// # Panics
    /// Panics unless `qa` is anchored at exactly the unit's items and
    /// holds primary DABs for those only.
    pub fn install(&mut self, q: usize, u: usize, qa: &QueryAssignment) {
        let items: Arc<[ItemId]> = self.unit_items(q, u).iter().map(|&i| ItemId(i)).collect();
        let mut columns = UnitColumns::default();
        columns.write_assignment(&items, qa);
        self.write(q, u, &columns);
    }

    /// Each of unit `u` of query `q`'s cells, in item order: the values
    /// `[lo, hi]` the unit accepts for the item and its primary DAB.
    pub fn cells(&self, q: usize, u: usize) -> impl Iterator<Item = ([f64; 2], f64)> + '_ {
        self.mirror(q, u).map(|m| {
            let cell = self.unit_cells[m] as usize;
            (self.bounds[cell], self.primary[cell])
        })
    }

    /// True while unit `u` of query `q` accepts no value of some item:
    /// before its first write, and from an [`FilterTable::invalidate`]
    /// to its next write.
    pub fn is_invalidated(&self, q: usize, u: usize) -> bool {
        self.cells(q, u).any(|([_, hi], _)| hi.is_nan())
    }

    /// Appends to `out`, in `(query, unit)` order, every unit that
    /// `item` moving to `value` invalidates (see the module docs for
    /// when this equals a full validity scan).
    #[inline]
    pub fn stale_after(&self, item: usize, value: f64, out: &mut Vec<(usize, usize)>) {
        let run = self.run(item);
        for (&bounds, &(q, u)) in self.bounds[run.clone()].iter().zip(&self.owner[run]) {
            if !accepts(bounds, value) {
                out.push((q as usize, u as usize));
            }
        }
    }

    /// The tightest primary DAB any unit holds for `item` (`+∞` when no
    /// unit mentions it): the filter to install at its source.
    #[inline]
    pub fn min_primary(&self, item: usize) -> f64 {
        self.primary[self.run(item)]
            .iter()
            .fold(f64::INFINITY, |m, &b| m.min(b))
    }

    /// Marks unit `u` of query `q` stale until its next
    /// [`FilterTable::install`]: a refresh of any of its items reports
    /// it. For a unit whose re-solve failed — its old assignment is no
    /// longer valid, and the next refresh should try again.
    pub fn invalidate(&mut self, q: usize, u: usize) {
        for m in self.mirror(q, u) {
            self.bounds[self.unit_cells[m] as usize] = [f64::NAN; 2];
        }
    }

    /// Full-scan oracle for [`FilterTable::stale_after`]: true when
    /// `stale` is exactly the units with a cell in `item`'s run that
    /// have *any* cell out of range at `values`. Coordinators
    /// `debug_assert!` this after each refresh.
    pub fn scan_agrees(&self, item: usize, values: &[f64], stale: &[(usize, usize)]) -> bool {
        let full = self.owner[self.run(item)]
            .iter()
            .map(|&(q, u)| (q as usize, u as usize))
            .filter(|&(q, u)| {
                !self.mirror(q, u).all(|m| {
                    let value = values[self.unit_items[m] as usize];
                    accepts(self.bounds[self.unit_cells[m] as usize], value)
                })
            });
        full.eq(stale.iter().copied())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assignment::ValidityRange;
    use std::collections::BTreeMap;

    fn map(pairs: &[(u32, f64)]) -> BTreeMap<ItemId, f64> {
        pairs.iter().map(|&(i, v)| (ItemId(i), v)).collect()
    }

    /// A table laid out over the anchors of `book`, each assignment
    /// installed.
    fn installed(n_items: usize, book: &[Vec<QueryAssignment>]) -> FilterTable {
        let items: Vec<Vec<Vec<ItemId>>> = (book.iter())
            .map(|units| {
                units
                    .iter()
                    .map(|qa| qa.anchor.keys().copied().collect())
                    .collect()
            })
            .collect();
        let units = items.iter().map(|units| units.iter().map(Vec::as_slice));
        let mut table = FilterTable::new(n_items, units);
        for (q, units) in book.iter().enumerate() {
            for (u, qa) in units.iter().enumerate() {
                table.install(q, u, qa);
            }
        }
        table
    }

    fn boxed(
        primary: &[(u32, f64)],
        secondary: &[(u32, f64)],
        anchor: &[(u32, f64)],
    ) -> QueryAssignment {
        QueryAssignment {
            primary: map(primary),
            validity: ValidityRange::Box(map(secondary)),
            anchor: map(anchor),
            recompute_rate: 0.0,
            refresh_rate: 0.0,
        }
    }

    #[test]
    fn runs_are_query_major_and_minima_follow_installs() {
        // q0 has two units over {0, 1} and {1, 2}; q1 one unit over {1}.
        let q0u0 = boxed(
            &[(0, 0.5), (1, 0.7)],
            &[(0, 2.0), (1, 2.0)],
            &[(0, 10.0), (1, 20.0)],
        );
        let q0u1 = boxed(
            &[(1, 0.3), (2, 0.9)],
            &[(1, 1.0), (2, 1.0)],
            &[(1, 20.0), (2, 30.0)],
        );
        let q1u0 = boxed(&[(1, 0.4)], &[(1, 5.0)], &[(1, 20.0)]);
        let mut t = installed(4, &[vec![q0u0, q0u1.clone()], vec![q1u0]]);
        assert_eq!(t.unit_items(0, 1), &[1, 2]);
        // A box of 1 about 20 and 30 accepts everything from 0 up to 21
        // and 31.
        let cells: Vec<_> = t.cells(0, 1).collect();
        assert_eq!(cells, [([0.0, 21.0], 0.3), ([0.0, 31.0], 0.9)]);
        assert_eq!(t.min_primary(0), 0.5);
        assert_eq!(t.min_primary(1), 0.3);
        assert_eq!(t.min_primary(3), f64::INFINITY);

        let mut stale = Vec::new();
        t.stale_after(1, 21.5, &mut stale);
        assert_eq!(stale, vec![(0, 1)], "only the unit with c = 1 breaks");
        assert!(t.scan_agrees(1, &[10.0, 21.5, 30.0, 0.0], &stale));
        assert!(!t.scan_agrees(1, &[10.0, 21.5, 30.0, 0.0], &[]));
        stale.clear();
        t.stale_after(1, f64::NAN, &mut stale);
        assert_eq!(stale, vec![(0, 0), (0, 1), (1, 0)]);

        // Re-solving (0, 1) at the new value widens its DAB for x1.
        let again = QueryAssignment {
            primary: map(&[(1, 0.6), (2, 0.9)]),
            anchor: map(&[(1, 21.5), (2, 30.0)]),
            ..q0u1
        };
        t.install(0, 1, &again);
        assert_eq!(t.min_primary(1), 0.4);
        stale.clear();
        t.stale_after(1, 21.5, &mut stale);
        assert!(stale.is_empty());

        // A failed re-solve leaves the unit stale for all of its items.
        assert!(!t.is_invalidated(0, 0));
        t.invalidate(0, 0);
        assert!(t.is_invalidated(0, 0) && !t.is_invalidated(0, 1));
        for item in [0, 1] {
            stale.clear();
            t.stale_after(item, [10.0, 21.5][item], &mut stale);
            assert_eq!(stale, vec![(0, 0)]);
            assert!(t.scan_agrees(item, &[10.0, 21.5, 30.0, 0.0], &stale));
        }
    }

    /// A one-item unit of `validity` anchored at `x0 = 10`, in a table.
    fn one_cell(validity: ValidityRange) -> FilterTable {
        let qa = QueryAssignment {
            validity,
            ..boxed(&[(0, 0.5)], &[], &[(0, 10.0)])
        };
        installed(1, &[vec![qa]])
    }

    fn stale_at(t: &FilterTable, value: f64) -> bool {
        let mut stale = Vec::new();
        t.stale_after(0, value, &mut stale);
        assert!(t.scan_agrees(0, &[value], &stale));
        !stale.is_empty()
    }

    #[test]
    fn a_box_cell_accepts_every_fall_down_to_zero_and_no_rise_past_its_top() {
        let t = one_cell(ValidityRange::Box(map(&[(0, 3.0)])));
        for value in [13.0, 10.0, 7.0, 6.9, 1.0, 0.0] {
            assert!(!stale_at(&t, value), "10 ± 3 holds {value}");
        }
        for value in [13.000_001, 20.0, -1e-9, -7.0, f64::NAN] {
            assert!(stale_at(&t, value), "10 ± 3 breaks at {value}");
        }
        // A range wider than its anchor reaches below 0 to `anchor − c`.
        let wide = one_cell(ValidityRange::Box(map(&[(0, 12.0)])));
        for (value, stale) in [
            (-2.0, false),
            (-2.000_001, true),
            (22.0, false),
            (22.1, true),
        ] {
            assert_eq!(stale_at(&wide, value), stale, "10 ± 12 at {value}");
        }
        // A missing entry is `c = 0`: `[0, anchor]`.
        let missing = one_cell(ValidityRange::Box(BTreeMap::new()));
        assert!(!stale_at(&missing, 0.0) && !stale_at(&missing, 10.0));
        assert!(stale_at(&missing, 10.5) && stale_at(&missing, -0.5));
    }

    #[test]
    fn an_anchor_only_cell_breaks_on_any_move_and_an_always_cell_on_nan() {
        let anchor_only = one_cell(ValidityRange::AnchorOnly);
        assert!(!stale_at(&anchor_only, 10.0));
        for value in [9.999_999, 10.000_001, 0.0, f64::NAN] {
            assert!(stale_at(&anchor_only, value), "anchor-only at {value}");
        }
        let always = one_cell(ValidityRange::Always);
        for value in [-1e300, 0.0, 1e300, f64::INFINITY] {
            assert!(!stale_at(&always, value), "always at {value}");
        }
        assert!(stale_at(&always, f64::NAN));
        let range = |t: &FilterTable| t.cells(0, 0).map(|(bounds, _)| bounds).collect::<Vec<_>>();
        assert_eq!(range(&anchor_only), [[10.0, 10.0]]);
        assert_eq!(range(&always), [[f64::NEG_INFINITY, f64::INFINITY]]);
    }

    #[test]
    #[should_panic(expected = "does not match the unit's items")]
    fn an_install_may_not_grow_a_units_item_set() {
        let first = boxed(&[(0, 0.5)], &[(0, 1.0)], &[(0, 1.0)]);
        let mut t = installed(2, &[vec![first]]);
        t.install(0, 0, &boxed(&[(1, 0.5)], &[(1, 1.0)], &[(1, 1.0)]));
    }
}
