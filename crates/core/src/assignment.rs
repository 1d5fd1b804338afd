//! DAB assignments: the output of every algorithm in this crate.
//!
//! A solver writes one unit's assignment as three columns over the unit's
//! items ([`UnitColumns`]); that is what a coordinator's filter table
//! stores. [`QueryAssignment`] is the same assignment keyed by item, the
//! value of the one-shot API.

use std::collections::BTreeMap;
use std::sync::Arc;

use pq_poly::{ItemId, PolynomialQuery};

use crate::error::DabError;

/// Over what data movements an assignment's primary DABs remain valid
/// (i.e. continue to guarantee the QAB) without recomputation.
#[derive(Debug, Clone, PartialEq)]
pub enum ValidityRange {
    /// The condition is value-independent (linear queries, §I-A): the
    /// assignment never needs recomputation.
    Always,
    /// Valid only at the anchor values (single-DAB assignments for
    /// non-linear queries, §I-B): any refresh of a referenced item
    /// invalidates the assignment and forces a recomputation.
    AnchorOnly,
    /// Valid while every item stays within
    /// `[min(0, anchor − secondary[item]), anchor + secondary[item]]`
    /// (the Dual-DAB approach, §III-A.2): the condition holds at the top
    /// corner `anchor + secondary`, which covers every value of smaller
    /// magnitude, so only a rise past it invalidates (see
    /// [`QueryAssignment::is_valid_at`]). A missing entry reads as `0`.
    Box(BTreeMap<ItemId, f64>),
}

impl ValidityRange {
    /// The kind of range, without its secondary DABs.
    pub(crate) fn kind(&self) -> RangeKind {
        match self {
            ValidityRange::Always => RangeKind::Always,
            ValidityRange::AnchorOnly => RangeKind::AnchorOnly,
            ValidityRange::Box(_) => RangeKind::Box,
        }
    }
}

/// A DAB assignment for one query.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryAssignment {
    /// Primary DAB `b_x` per referenced item — the filter width installed
    /// at the item's source.
    pub primary: BTreeMap<ItemId, f64>,
    /// Validity range of the primary DABs.
    pub validity: ValidityRange,
    /// Data values `V` at which the assignment was computed.
    pub anchor: BTreeMap<ItemId, f64>,
    /// Model-estimated recomputations per unit time (`R` in §III-A.2);
    /// zero when the validity range is `Always` or not modelled.
    pub recompute_rate: f64,
    /// Model-estimated refreshes per unit time under the assumed ddm.
    pub refresh_rate: f64,
}

impl QueryAssignment {
    /// The primary DAB of `item`, if assigned.
    pub fn primary_dab(&self, item: ItemId) -> Option<f64> {
        self.primary.get(&item).copied()
    }

    /// The secondary DAB of `item` (`Box` ranges only).
    pub fn secondary_dab(&self, item: ItemId) -> Option<f64> {
        match &self.validity {
            ValidityRange::Box(c) => c.get(&item).copied(),
            _ => None,
        }
    }

    /// True if the assignment is still valid when the coordinator's cached
    /// values are `values` (indexed by item id): every anchored item's
    /// value lies in the range `RangeKind::accepted` gives it, checked
    /// by `accepts`, the predicate the filter table checks its cells
    /// with.
    ///
    /// For `AnchorOnly`, validity requires the cached values to still equal
    /// the anchor: in the push protocol this means "no refresh has arrived
    /// since the assignment was made". A NaN or missing value is invalid
    /// under every kind, `Always` included.
    pub fn is_valid_at(&self, values: &[f64]) -> bool {
        let kind = self.validity.kind();
        self.anchor.iter().all(|(&item, &v0)| {
            let now = values.get(item.index()).copied().unwrap_or(f64::NAN);
            let c = self.secondary_dab(item).unwrap_or(0.0);
            accepts(kind.accepted(v0, c), now)
        })
    }

    /// Numerically verifies Condition 1 at the anchor: the worst-case query
    /// deviation over the primary-DAB box (shifted to the worst point of
    /// the validity range, if any) does not exceed `qab`.
    ///
    /// Used by tests and debug assertions; `tolerance` absorbs solver
    /// slack (constraints are active at the optimum, so equality holds up
    /// to the duality gap).
    pub fn respects_qab(&self, query: &PolynomialQuery, tolerance: f64) -> bool {
        let n = self.anchor.keys().map(|i| i.index() + 1).max().unwrap_or(0);
        let mut values = vec![0.0; n];
        let mut dabs = vec![0.0; n];
        for (&item, &v) in &self.anchor {
            values[item.index()] = v;
        }
        for (&item, &b) in &self.primary {
            dabs[item.index()] = b;
        }
        match &self.validity {
            ValidityRange::Box(c) => {
                // An infinite secondary DAB claims "this item's reference
                // value can never invalidate the assignment" — sound only
                // for items appearing linearly everywhere (uncoupled).
                let coupled = pq_poly::coupled_items(query.poly());
                for (&item, &cx) in c {
                    if cx.is_infinite() && coupled.binary_search(&item).is_ok() {
                        return false;
                    }
                }
                // Worst reference point: anchor shifted to a corner of the
                // accepted range (uncoupled items stay put — their shift
                // provably cannot change the deviation). For positive data
                // the all-up corner dominates, but we enumerate all corners
                // to stay strategy-agnostic.
                let items: Vec<ItemId> = self.anchor.keys().copied().collect();
                assert!(items.len() <= 20, "corner enumeration capped at 20 items");
                let mut shifted = values.clone();
                for mask in 0u32..(1u32 << items.len()) {
                    for (bit, &it) in items.iter().enumerate() {
                        let (v0, cx) = (values[it.index()], c.get(&it).copied().unwrap_or(0.0));
                        let [lo, hi] = if cx.is_infinite() {
                            [v0, v0]
                        } else {
                            RangeKind::Box.accepted(v0, cx)
                        };
                        shifted[it.index()] = if mask >> bit & 1 == 1 { hi } else { lo };
                    }
                    let dev = query.poly().max_abs_deviation_over_box(&shifted, &dabs);
                    if dev > query.qab() + tolerance {
                        return false;
                    }
                }
                true
            }
            _ => {
                let dev = query.poly().max_abs_deviation_over_box(&values, &dabs);
                dev <= query.qab() + tolerance
            }
        }
    }

    /// Every float of the assignment, as bits: primary, secondary (box
    /// ranges), anchor, then the two rates.
    #[cfg(test)]
    pub(crate) fn all_bits(&self) -> Vec<u64> {
        let secondary = match &self.validity {
            ValidityRange::Box(secondary) => secondary.values().copied().collect(),
            _ => Vec::new(),
        };
        (self.primary.values().chain(&secondary))
            .chain(self.anchor.values())
            .chain([&self.recompute_rate, &self.refresh_rate])
            .map(|v| v.to_bits())
            .collect()
    }
}

/// Which [`ValidityRange`] the secondary column of a [`UnitColumns`]
/// stands for.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub(crate) enum RangeKind {
    /// Every secondary DAB is `+∞`.
    #[default]
    Always,
    /// Every secondary DAB is `0`.
    AnchorOnly,
    /// Per item (`+∞` for an item that cannot invalidate the unit).
    Box,
}

impl RangeKind {
    /// The values `[lo, hi]` an item anchored at `anchor`, with
    /// secondary DAB `secondary`, may take while an assignment of this
    /// kind stays valid: everything under `Always`, the anchor alone
    /// under `AnchorOnly` (Optimal Refresh recomputes on every refresh),
    /// and `[min(0, anchor − secondary), anchor + secondary]` under
    /// `Box`.
    ///
    /// The `Box` range is one-sided. A unit's condition holds at the top
    /// corner `anchor + secondary` of its positive body, and a body's
    /// deviation at `W` is bounded by its deviation at `|W|`, which grows
    /// with `|W|` (DESIGN.md §10, "Validity invariant"). So any value of
    /// magnitude at most `anchor + secondary` keeps the unit valid, and
    /// the range only extends the symmetric box down to 0 (the GP refuses
    /// a negative anchor, so `anchor ≥ 0`). A NaN anchor or secondary
    /// makes `hi` NaN, which accepts nothing.
    #[inline]
    pub(crate) fn accepted(self, anchor: f64, secondary: f64) -> [f64; 2] {
        match self {
            RangeKind::Always => [f64::NEG_INFINITY, f64::INFINITY],
            RangeKind::AnchorOnly => [anchor, anchor],
            RangeKind::Box => [(anchor - secondary).min(0.0), anchor + secondary],
        }
    }
}

/// The one validity predicate: `value` lies in the accepted range
/// `[lo, hi]` (from `RangeKind::accepted`). A NaN on any side compares
/// false, so it reads as stale.
#[inline]
pub(crate) fn accepts([lo, hi]: [f64; 2], value: f64) -> bool {
    lo <= value && value <= hi
}

/// The secondary DAB a re-anchor at scale `t` leaves an item whose
/// secondary DAB is `c` and primary `b`: `t·c`, never below `b` (the
/// Dual-DAB program's `b ≤ c` row, bit for bit).
#[inline]
pub(crate) fn reanchored_secondary(t: f64, c: f64, b: f64) -> f64 {
    (t * c).max(b)
}

/// One unit's assignment as a coordinator stores it: per item of the
/// unit ([`UnitColumns::items`], ascending) its anchor value, its
/// secondary DAB and its primary DAB. These three columns are what every
/// solver writes and what [`crate::FilterTable::write`] scatters into the
/// unit's cells.
///
/// A secondary DAB is how far above its anchor an item may rise before
/// the assignment goes stale (under [`ValidityRange::Box`] it may also
/// fall to 0, or to `anchor − secondary` below it): `+∞` under
/// [`ValidityRange::Always`] and for an item the range does not bound,
/// `0` under [`ValidityRange::AnchorOnly`]. A primary DAB of
/// `+∞` is no filter. [`UnitColumns::assignment`] is the same assignment
/// as a [`QueryAssignment`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct UnitColumns {
    items: Arc<[ItemId]>,
    /// The anchor, secondary and primary columns back to back,
    /// `items.len()` each.
    cells: Vec<f64>,
    kind: RangeKind,
    /// Model-estimated recomputations per unit time (see
    /// [`QueryAssignment::recompute_rate`]).
    pub recompute_rate: f64,
    /// Model-estimated refreshes per unit time.
    pub refresh_rate: f64,
}

/// The anchor, secondary and primary columns of a [`UnitColumns`]
/// being written.
pub(crate) struct Columns<'a> {
    pub anchor: &'a mut [f64],
    pub secondary: &'a mut [f64],
    pub primary: &'a mut [f64],
}

impl UnitColumns {
    /// Starts writing an assignment over `items` whose validity range is
    /// of `kind`: every anchor `0`, every secondary DAB at the width
    /// `kind` gives all items (`0` for anchor-only, else `+∞`), every
    /// primary DAB `+∞`, both rates `0`. The caller fills in the rest.
    pub(crate) fn start(&mut self, items: &Arc<[ItemId]>, kind: RangeKind) -> Columns<'_> {
        let n = items.len();
        self.items = items.clone();
        self.kind = kind;
        (self.recompute_rate, self.refresh_rate) = (0.0, 0.0);
        let width = match kind {
            RangeKind::AnchorOnly => 0.0,
            RangeKind::Always | RangeKind::Box => f64::INFINITY,
        };
        self.cells.clear();
        self.cells.reserve_exact(3 * n);
        self.cells.resize(n, 0.0);
        self.cells.resize(2 * n, width);
        self.cells.resize(3 * n, f64::INFINITY);
        let (anchor, rest) = self.cells.split_at_mut(n);
        let (secondary, primary) = rest.split_at_mut(n);
        Columns {
            anchor,
            secondary,
            primary,
        }
    }

    /// The assignment `write` leaves in a fresh set of columns: the
    /// one-shot form of a solver that writes columns.
    pub(crate) fn one_shot(
        write: impl FnOnce(&mut UnitColumns) -> Result<(), DabError>,
    ) -> Result<QueryAssignment, DabError> {
        let mut out = UnitColumns::default();
        write(&mut out)?;
        Ok(out.assignment())
    }

    /// Writes `qa`, an assignment over `items` exactly: the adapter from
    /// the one-shot form.
    ///
    /// # Panics
    /// Panics unless `qa`'s anchor holds exactly `items` and its primary
    /// DABs are for those only.
    pub(crate) fn write_assignment(&mut self, items: &Arc<[ItemId]>, qa: &QueryAssignment) {
        assert!(
            qa.anchor.keys().eq(items.iter())
                && qa.primary.keys().all(|i| qa.anchor.contains_key(i)),
            "the assignment does not match the unit's items"
        );
        let cols = self.start(items, qa.validity.kind());
        for (k, (item, &v0)) in qa.anchor.iter().enumerate() {
            cols.anchor[k] = v0;
            if let ValidityRange::Box(c) = &qa.validity {
                cols.secondary[k] = c.get(item).copied().unwrap_or(0.0);
            }
            if let Some(&b) = qa.primary.get(item) {
                cols.primary[k] = b;
            }
        }
        (self.recompute_rate, self.refresh_rate) = (qa.recompute_rate, qa.refresh_rate);
    }

    /// Moves the assignment to the values it is now valid at: each
    /// item's anchor to `values[item]`, each finite secondary DAB `c` to
    /// `max(t·c, b)` over its primary DAB `b`, and the recompute rate to
    /// `recompute_rate`. The primary DABs, and so the refresh rate, stay
    /// as they are.
    pub(crate) fn reanchor(&mut self, values: &[f64], t: f64, recompute_rate: f64) {
        let n = self.items.len();
        let (anchor, rest) = self.cells.split_at_mut(n);
        for (v0, item) in anchor.iter_mut().zip(self.items.iter()) {
            *v0 = values[item.index()];
        }
        let (secondary, primary) = rest.split_at_mut(n);
        for (c, &b) in secondary.iter_mut().zip(&*primary) {
            if c.is_finite() {
                *c = reanchored_secondary(t, *c, b);
            }
        }
        self.recompute_rate = recompute_rate;
    }

    /// The unit's items, ascending: the rows of every column.
    pub fn items(&self) -> &[ItemId] {
        &self.items
    }

    /// Which validity range the secondary column stands for.
    pub(crate) fn kind(&self) -> RangeKind {
        self.kind
    }

    /// The value each item had when the assignment was made.
    pub fn anchor(&self) -> &[f64] {
        &self.cells[..self.items.len()]
    }

    /// Each item's secondary DAB (see the type's docs).
    pub fn secondary(&self) -> &[f64] {
        let n = self.items.len();
        &self.cells[n..2 * n]
    }

    /// Each item's primary DAB (`+∞`: none).
    pub fn primary(&self) -> &[f64] {
        &self.cells[2 * self.items.len()..]
    }

    /// The same assignment keyed by item.
    pub fn assignment(&self) -> QueryAssignment {
        let keyed = |column: &[f64]| -> BTreeMap<ItemId, f64> {
            self.items
                .iter()
                .copied()
                .zip(column.iter().copied())
                .collect()
        };
        let mut primary = keyed(self.primary());
        primary.retain(|_, b| b.is_finite());
        QueryAssignment {
            primary,
            validity: match self.kind {
                RangeKind::Always => ValidityRange::Always,
                RangeKind::AnchorOnly => ValidityRange::AnchorOnly,
                RangeKind::Box => ValidityRange::Box(keyed(self.secondary())),
            },
            anchor: keyed(self.anchor()),
            recompute_rate: self.recompute_rate,
            refresh_rate: self.refresh_rate,
        }
    }
}

/// Per-coordinator assignment across all queries: each item's installed
/// filter is the *minimum* primary DAB over the queries that reference it
/// (EQI / minimum rule, §IV).
#[derive(Debug, Clone, Default)]
pub struct CoordinatorAssignment {
    /// Installed filter per item.
    pub item_dabs: BTreeMap<ItemId, f64>,
    /// The per-query assignments the minimum was taken over.
    pub per_query: Vec<QueryAssignment>,
}

impl CoordinatorAssignment {
    /// Combines per-query assignments with the minimum rule.
    pub fn from_queries(per_query: Vec<QueryAssignment>) -> Self {
        let mut item_dabs: BTreeMap<ItemId, f64> = BTreeMap::new();
        for qa in &per_query {
            for (&item, &b) in &qa.primary {
                item_dabs
                    .entry(item)
                    .and_modify(|cur| *cur = cur.min(b))
                    .or_insert(b);
            }
        }
        CoordinatorAssignment {
            item_dabs,
            per_query,
        }
    }

    /// The installed (minimum) DAB for `item`.
    pub fn item_dab(&self, item: ItemId) -> Option<f64> {
        self.item_dabs.get(&item).copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pq_poly::{PTerm, Polynomial};

    fn x(i: u32) -> ItemId {
        ItemId(i)
    }

    fn product_query(qab: f64) -> PolynomialQuery {
        PolynomialQuery::new(
            Polynomial::term(PTerm::new(1.0, [(x(0), 1), (x(1), 1)]).unwrap()),
            qab,
        )
        .unwrap()
    }

    fn map(pairs: &[(u32, f64)]) -> BTreeMap<ItemId, f64> {
        pairs.iter().map(|&(i, v)| (x(i), v)).collect()
    }

    #[test]
    fn anchor_only_invalidates_on_any_change() {
        let qa = QueryAssignment {
            primary: map(&[(0, 1.0), (1, 1.0)]),
            validity: ValidityRange::AnchorOnly,
            anchor: map(&[(0, 2.0), (1, 2.0)]),
            recompute_rate: 0.0,
            refresh_rate: 0.0,
        };
        assert!(qa.is_valid_at(&[2.0, 2.0]));
        assert!(!qa.is_valid_at(&[3.0, 2.0]));
    }

    #[test]
    fn box_range_validity_matches_fig4() {
        // Fig. 4: Q = xy : 5, anchor (2, 2), b = 0.5, c = (3.5, 2.5):
        // valid at (3, 2) and (3.9, 2.9), invalid past (5.5, 4.5).
        let qa = QueryAssignment {
            primary: map(&[(0, 0.5), (1, 0.5)]),
            validity: ValidityRange::Box(map(&[(0, 3.5), (1, 2.5)])),
            anchor: map(&[(0, 2.0), (1, 2.0)]),
            recompute_rate: 0.0,
            refresh_rate: 0.0,
        };
        assert!(qa.is_valid_at(&[3.0, 2.0]));
        assert!(qa.is_valid_at(&[3.9, 2.9]));
        assert!(qa.is_valid_at(&[5.5, 4.5]));
        assert!(!qa.is_valid_at(&[5.6, 4.5]));
        assert!(!qa.is_valid_at(&[2.0, 4.6]));
    }

    #[test]
    fn always_valid_never_invalidates() {
        let qa = QueryAssignment {
            primary: map(&[(0, 1.0)]),
            validity: ValidityRange::Always,
            anchor: map(&[(0, 5.0)]),
            recompute_rate: 0.0,
            refresh_rate: 0.0,
        };
        assert!(qa.is_valid_at(&[1e9]));
    }

    #[test]
    fn respects_qab_detects_fig2_violation() {
        // Fig. 2: b = (1, 1) at anchor (3, 2) violates Q = xy : 5
        // (worst corner deviation 6 > 5), while at (2, 2) it is tight.
        let q = product_query(5.0);
        let bad = QueryAssignment {
            primary: map(&[(0, 1.0), (1, 1.0)]),
            validity: ValidityRange::AnchorOnly,
            anchor: map(&[(0, 3.0), (1, 2.0)]),
            recompute_rate: 0.0,
            refresh_rate: 0.0,
        };
        assert!(!bad.respects_qab(&q, 1e-9));
        let good = QueryAssignment {
            anchor: map(&[(0, 2.0), (1, 2.0)]),
            ..bad
        };
        assert!(good.respects_qab(&q, 1e-9));
    }

    #[test]
    fn respects_qab_checks_whole_validity_range() {
        // b = (0.5, 0.5) with c = (3.5, 2.5) at anchor (2, 2) is exactly
        // the Fig. 4 assignment; at the top of the range (5.5, 4.5) the
        // worst deviation is 0.5*4.5+0.5*5.5+0.25 = 5.25 > 5 -> invalid.
        let q = product_query(5.0);
        let qa = QueryAssignment {
            primary: map(&[(0, 0.5), (1, 0.5)]),
            validity: ValidityRange::Box(map(&[(0, 3.5), (1, 2.5)])),
            anchor: map(&[(0, 2.0), (1, 2.0)]),
            recompute_rate: 0.0,
            refresh_rate: 0.0,
        };
        assert!(!qa.respects_qab(&q, 1e-9));
        // Shrinking the secondary range restores validity:
        // at (2+c) = (4.4, 3.4): dev = 0.5*(3.4+4.4)+0.25 = 4.15 <= 5.
        let qa2 = QueryAssignment {
            validity: ValidityRange::Box(map(&[(0, 2.4), (1, 1.4)])),
            ..qa
        };
        assert!(qa2.respects_qab(&q, 1e-9));
    }

    #[test]
    fn coordinator_assignment_takes_minimum() {
        let qa1 = QueryAssignment {
            primary: map(&[(0, 1.0), (1, 3.0)]),
            validity: ValidityRange::AnchorOnly,
            anchor: map(&[(0, 1.0), (1, 1.0)]),
            recompute_rate: 0.0,
            refresh_rate: 0.0,
        };
        let qa2 = QueryAssignment {
            primary: map(&[(1, 2.0), (2, 5.0)]),
            ..qa1.clone()
        };
        let ca = CoordinatorAssignment::from_queries(vec![qa1, qa2]);
        assert_eq!(ca.item_dab(x(0)), Some(1.0));
        assert_eq!(ca.item_dab(x(1)), Some(2.0));
        assert_eq!(ca.item_dab(x(2)), Some(5.0));
        assert_eq!(ca.item_dab(x(3)), None);
    }
}
