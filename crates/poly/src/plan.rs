//! Compiled evaluation plans for the simulator/coordinator hot loop.
//!
//! [`crate::Polynomial::eval`] walks a `Vec<PTerm>` of `Vec<(ItemId, u32)>`
//! factor lists and calls `powi` per factor — fine for occasional
//! evaluation, but the coordinator re-evaluates every query on every
//! refresh and every fidelity sample. An [`EvalPlan`] compiles a
//! polynomial once into flat structure-of-arrays storage with a per-term
//! shape tag, so the common shapes of the paper's workloads (constants,
//! linear terms, squares, bilinear `w·x·y` portfolio legs) evaluate with
//! no indirection, no `powi`, and no per-term allocation.
//!
//! Two guarantees matter to callers:
//!
//! * **Bit-identical full evaluation.** [`EvalPlan::eval`] performs the
//!   same floating-point operations in the same order as the naive
//!   [`crate::Polynomial::eval`] (term order preserved, factor order
//!   preserved, `x.powi(1) ≡ x` and `x.powi(2) ≡ x*x` under IEEE-754),
//!   so switching to the compiled path can never change a comparison.
//! * **Localized deltas.** The plan carries an inverted item → term
//!   index, and [`EvalPlan::delta_eval`] returns the exact change of the
//!   polynomial when one item moves, touching only the terms that
//!   contain the item — `O(affected terms)` instead of `O(all terms)`,
//!   the DBToaster-style delta processing the incremental simulator
//!   views are built on. The index is keyed by the plan's own sorted
//!   item list, so a plan costs `O(terms)` bytes wherever its item ids
//!   sit in the universe; a caller that keeps an item's position in
//!   that list (its *slot*) skips the search
//!   ([`EvalPlan::delta_eval_slot`]).

use crate::item::ItemId;
use crate::polynomial::Polynomial;

/// Shape of one compiled term, dispatching to an unrolled kernel.
///
/// Degree ≤ 2 covers every query class the paper evaluates (linear
/// aggregates, portfolio/arbitrage products, squares); higher-degree
/// terms fall back to a flat factor scan over the plan's SoA arrays.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TermKind {
    /// `coef`
    Const,
    /// `coef * x_i`
    Linear { i: u32 },
    /// `coef * x_i^2`
    Square { i: u32 },
    /// `coef * x_i * x_j` with `i < j` (a portfolio/arbitrage leg).
    Bilinear { i: u32, j: u32 },
    /// General product over `factors[start..end]`.
    General { start: u32, end: u32 },
}

/// A polynomial compiled for repeated evaluation and delta maintenance.
///
/// Build one with [`EvalPlan::compile`]; the plan is immutable and holds
/// no references to the source polynomial.
///
/// ```
/// use pq_poly::{parse_polynomial, EvalPlan, ItemCatalog, ItemId};
/// let mut catalog = ItemCatalog::new();
/// let p = parse_polynomial("2*x0*x1 - x2^2 + 7", &mut catalog).unwrap();
/// let plan = EvalPlan::compile(&p);
/// let mut values = vec![3.0, 4.0, 5.0];
/// assert_eq!(plan.eval(&values), p.eval(&values));
///
/// // x1: 4 -> 6 changes only the 2*x0*x1 term.
/// let delta = plan.delta_eval(&values, ItemId(1), 4.0, 6.0);
/// values[1] = 6.0;
/// assert_eq!(plan.eval(&values), p.eval(&values));
/// assert!((delta - 12.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct EvalPlan {
    /// Per-term coefficient, in the source polynomial's term order.
    coefs: Vec<f64>,
    /// Per-term shape tag.
    kinds: Vec<TermKind>,
    /// Flat `(item, exponent)` factors for `General` terms only.
    factors: Vec<(u32, u32)>,
    /// The distinct items the polynomial references, ascending.
    index_items: Vec<u32>,
    /// CSR inverted index over `index_items`:
    /// `index_terms[index_starts[k]..index_starts[k+1]]` are the term ids
    /// containing item `index_items[k]`.
    index_starts: Vec<u32>,
    index_terms: Vec<u32>,
    /// Minimum length a `values` slice must have (`1 + max item id`, or 0).
    n_values: usize,
    /// Maximum total degree across terms.
    degree: u32,
}

impl EvalPlan {
    /// Compiles `poly` into a plan. Term order is preserved, so full
    /// evaluation is bit-identical to [`Polynomial::eval`].
    pub fn compile(poly: &Polynomial) -> EvalPlan {
        let n_terms = poly.n_terms();
        let mut coefs = Vec::with_capacity(n_terms);
        let mut kinds = Vec::with_capacity(n_terms);
        let mut factors: Vec<(u32, u32)> = Vec::new();
        let mut degree = 0u32;
        let n_values = poly.max_item().map_or(0, |i| i.index() + 1);

        for t in poly.terms() {
            coefs.push(t.coef());
            degree = degree.max(t.degree());
            let vars = t.vars();
            let kind = match *vars {
                [] => TermKind::Const,
                [(i, 1)] => TermKind::Linear { i: i.0 },
                [(i, 2)] => TermKind::Square { i: i.0 },
                [(i, 1), (j, 1)] => TermKind::Bilinear { i: i.0, j: j.0 },
                _ => {
                    let start = factors.len() as u32;
                    factors.extend(vars.iter().map(|&(i, e)| (i.0, e)));
                    TermKind::General {
                        start,
                        end: factors.len() as u32,
                    }
                }
            };
            kinds.push(kind);
        }

        // Inverted index: (item, term) pairs sorted by item. Terms are
        // visited in ascending order and the sort is stable, so each
        // item's term ids come out ascending.
        let mut pairs: Vec<(u32, u32)> = Vec::new();
        for (ti, kind) in kinds.iter().enumerate() {
            let ti = ti as u32;
            match *kind {
                TermKind::Const => {}
                TermKind::Linear { i } | TermKind::Square { i } => pairs.push((i, ti)),
                TermKind::Bilinear { i, j } => pairs.extend([(i, ti), (j, ti)]),
                TermKind::General { start, end } => pairs.extend(
                    factors[start as usize..end as usize]
                        .iter()
                        .map(|&(i, _)| (i, ti)),
                ),
            }
        }
        pairs.sort_by_key(|&(i, _)| i);
        let mut index_items: Vec<u32> = Vec::new();
        let mut index_starts: Vec<u32> = Vec::new();
        let mut index_terms: Vec<u32> = Vec::with_capacity(pairs.len());
        for &(i, ti) in &pairs {
            if index_items.last() != Some(&i) {
                index_items.push(i);
                index_starts.push(index_terms.len() as u32);
            }
            index_terms.push(ti);
        }
        index_starts.push(index_terms.len() as u32);

        EvalPlan {
            coefs,
            kinds,
            factors,
            index_items,
            index_starts,
            index_terms,
            n_values,
            degree,
        }
    }

    /// Number of compiled terms.
    #[inline]
    pub fn n_terms(&self) -> usize {
        self.coefs.len()
    }

    /// Minimum length [`EvalPlan::eval`] requires of its `values` slice.
    #[inline]
    pub fn n_values(&self) -> usize {
        self.n_values
    }

    /// Maximum total degree across terms.
    #[inline]
    pub fn degree(&self) -> u32 {
        self.degree
    }

    /// The *slot* of `item`: its rank among the distinct items the
    /// polynomial references, ascending (the order of
    /// [`Polynomial::items`]); `None` for foreign items. A caller that
    /// applies many deltas for the same item resolves the slot once and
    /// uses [`EvalPlan::delta_eval_slot`], skipping this search.
    #[inline]
    pub fn slot_of(&self, item: ItemId) -> Option<usize> {
        self.index_items.binary_search(&item.0).ok()
    }

    /// Term ids containing `item` (ascending; empty for foreign items).
    #[inline]
    pub fn terms_for(&self, item: ItemId) -> &[u32] {
        match self.slot_of(item) {
            Some(slot) => self.slot_terms(slot),
            None => &[],
        }
    }

    #[inline]
    fn slot_terms(&self, slot: usize) -> &[u32] {
        &self.index_terms[self.index_starts[slot] as usize..self.index_starts[slot + 1] as usize]
    }

    /// One term's value at `values`, with `values[item]` overridden to
    /// `v` (the override is what makes [`EvalPlan::delta_eval`] exact:
    /// both the old and new term values round exactly as a full
    /// evaluation at the respective inputs would).
    #[inline]
    fn term_with(&self, ti: usize, values: &[f64], item: u32, v: f64) -> f64 {
        let at = |i: u32| if i == item { v } else { values[i as usize] };
        let coef = self.coefs[ti];
        match self.kinds[ti] {
            TermKind::Const => coef,
            TermKind::Linear { i } => coef * at(i),
            TermKind::Square { i } => {
                let x = at(i);
                coef * (x * x)
            }
            TermKind::Bilinear { i, j } => (coef * at(i)) * at(j),
            TermKind::General { start, end } => {
                let mut acc = coef;
                for &(i, e) in &self.factors[start as usize..end as usize] {
                    acc *= at(i).powi(e as i32);
                }
                acc
            }
        }
    }

    /// Evaluates at `values[item.index()]`, bit-identical to
    /// [`Polynomial::eval`] on the source polynomial.
    ///
    /// # Panics
    /// Panics if `values.len() < self.n_values()`.
    #[inline]
    pub fn eval(&self, values: &[f64]) -> f64 {
        assert!(values.len() >= self.n_values, "values slice too short");
        let mut acc = 0.0;
        for ti in 0..self.kinds.len() {
            let coef = self.coefs[ti];
            acc += match self.kinds[ti] {
                TermKind::Const => coef,
                TermKind::Linear { i } => coef * values[i as usize],
                TermKind::Square { i } => {
                    let x = values[i as usize];
                    coef * (x * x)
                }
                // Matches the naive left-to-right factor product:
                // (coef * x_i) * x_j.
                TermKind::Bilinear { i, j } => (coef * values[i as usize]) * values[j as usize],
                TermKind::General { start, end } => {
                    let mut t = coef;
                    for &(i, e) in &self.factors[start as usize..end as usize] {
                        t *= values[i as usize].powi(e as i32);
                    }
                    t
                }
            };
        }
        acc
    }

    /// The exact change `P(..., item=new, ...) - P(..., item=old, ...)`,
    /// touching only the terms that contain `item`. `values[item.index()]`
    /// itself is ignored (the `old`/`new` arguments take its place), so
    /// callers may apply the delta before or after writing the new value.
    ///
    /// Each touched term's old and new contributions are rounded exactly
    /// as a full evaluation would round them; the only extra rounding is
    /// the subtraction and the sum across touched terms. Returns `0.0`
    /// for items the polynomial does not reference.
    ///
    /// # Panics
    /// Panics if `values.len() < self.n_values()`.
    #[inline]
    pub fn delta_eval(&self, values: &[f64], item: ItemId, old: f64, new: f64) -> f64 {
        assert!(values.len() >= self.n_values, "values slice too short");
        match self.slot_of(item) {
            Some(slot) => self.delta_eval_slot(values, slot, item, old, new),
            None => 0.0,
        }
    }

    /// [`EvalPlan::delta_eval`] for the item whose slot is already known
    /// (`slot == self.slot_of(item).unwrap()`): same result, no search.
    ///
    /// # Panics
    /// Panics if `values.len() < self.n_values()` or `slot` is out of
    /// range.
    #[inline]
    pub fn delta_eval_slot(
        &self,
        values: &[f64],
        slot: usize,
        item: ItemId,
        old: f64,
        new: f64,
    ) -> f64 {
        assert!(values.len() >= self.n_values, "values slice too short");
        debug_assert_eq!(self.index_items[slot], item.0, "slot of another item");
        let i = item.0;
        let mut delta = 0.0;
        for &ti in self.slot_terms(slot) {
            let ti = ti as usize;
            delta += self.term_with(ti, values, i, new) - self.term_with(ti, values, i, old);
        }
        delta
    }

    /// Number of `(term, factor)` touches a change to `item` costs — the
    /// work metric behind the `O(affected terms)` claim.
    pub fn delta_cost(&self, item: ItemId) -> usize {
        self.terms_for(item).len()
    }

    /// Heap footprint in bytes of the compiled plan (flat arrays by
    /// length; allocator slack excluded). The per-query counterpart of
    /// [`crate::SharedPlan::bytes`] for the evalbench memory gate.
    pub fn bytes(&self) -> usize {
        use std::mem::size_of;
        size_of::<Self>()
            + self.coefs.len() * size_of::<f64>()
            + self.kinds.len() * size_of::<TermKind>()
            + self.factors.len() * size_of::<(u32, u32)>()
            + (self.index_items.len() + self.index_starts.len() + self.index_terms.len())
                * size_of::<u32>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::polynomial::PTerm;

    fn x(i: u32) -> ItemId {
        ItemId(i)
    }

    /// A mixed-shape polynomial: constant, linear, square, bilinear and a
    /// degree-4 general term.
    fn mixed() -> Polynomial {
        Polynomial::from_terms([
            PTerm::constant(7.5).unwrap(),
            PTerm::new(-2.0, [(x(0), 1)]).unwrap(),
            PTerm::new(3.0, [(x(1), 2)]).unwrap(),
            PTerm::new(1.5, [(x(0), 1), (x(2), 1)]).unwrap(),
            PTerm::new(-0.25, [(x(1), 1), (x(2), 3)]).unwrap(),
        ])
    }

    #[test]
    fn compiled_eval_is_bit_identical_to_naive() {
        let p = mixed();
        let plan = EvalPlan::compile(&p);
        assert_eq!(plan.n_terms(), p.n_terms());
        assert_eq!(plan.degree(), p.degree());
        assert_eq!(plan.n_values(), 3);
        for values in [
            [3.0, 4.0, 5.0],
            [0.1, -2.7, 1e6],
            [1.0 / 3.0, 2.0 / 7.0, 9.99e-3],
        ] {
            assert_eq!(plan.eval(&values), p.eval(&values), "at {values:?}");
        }
    }

    #[test]
    fn inverted_index_covers_exactly_the_containing_terms() {
        let plan = EvalPlan::compile(&mixed());
        assert_eq!(plan.terms_for(x(0)), &[1, 3]);
        assert_eq!(plan.terms_for(x(1)), &[2, 4]);
        assert_eq!(plan.terms_for(x(2)), &[3, 4]);
        assert_eq!(plan.terms_for(x(9)), &[] as &[u32]);
        assert_eq!(plan.delta_cost(x(2)), 2);
    }

    #[test]
    fn ids_outside_the_plan_have_no_terms() {
        // Items {5, 9, 4_000_000}: ids below, between and above them
        // are foreign, as is everything past the largest.
        let p = Polynomial::from_terms([
            PTerm::new(2.0, [(x(5), 1), (x(9), 1)]).unwrap(),
            PTerm::new(-1.0, [(x(4_000_000), 2)]).unwrap(),
        ]);
        let plan = EvalPlan::compile(&p);
        assert_eq!(plan.terms_for(x(5)), &[0]);
        assert_eq!(plan.terms_for(x(9)), &[0]);
        assert_eq!(plan.terms_for(x(4_000_000)), &[1]);
        for foreign in [0, 4, 6, 8, 10, 3_999_999, 4_000_001, u32::MAX] {
            assert_eq!(plan.terms_for(x(foreign)), &[] as &[u32], "x{foreign}");
        }
    }

    #[test]
    fn slots_rank_the_items_and_skip_the_search() {
        let p = mixed();
        let plan = EvalPlan::compile(&p);
        let values = [3.0, 4.0, 5.0];
        for (slot, item) in p.items().into_iter().enumerate() {
            assert_eq!(plan.slot_of(item), Some(slot));
            assert_eq!(
                plan.delta_eval_slot(&values, slot, item, values[item.index()], 9.0)
                    .to_bits(),
                plan.delta_eval(&values, item, values[item.index()], 9.0)
                    .to_bits()
            );
        }
        assert_eq!(plan.slot_of(x(3)), None);
    }

    #[test]
    fn bytes_do_not_depend_on_where_the_ids_sit() {
        let leg = |i, j| Polynomial::term(PTerm::new(1.5, [(x(i), 1), (x(j), 1)]).unwrap());
        let low = EvalPlan::compile(&leg(0, 1));
        let high = EvalPlan::compile(&leg(5, 4_000_000));
        assert_eq!(low.bytes(), high.bytes());
        assert_eq!(high.n_values(), 4_000_001);
    }

    #[test]
    fn delta_eval_matches_full_reevaluation() {
        let p = mixed();
        let plan = EvalPlan::compile(&p);
        let mut values = vec![3.0, 4.0, 5.0];
        let mut running = plan.eval(&values);
        for (item, new) in [(0, 3.5), (2, 4.0), (1, -1.0), (2, 5.5), (0, 0.0)] {
            let old = values[item];
            running += plan.delta_eval(&values, x(item as u32), old, new);
            values[item] = new;
            let full = plan.eval(&values);
            assert!(
                (running - full).abs() <= 1e-9 * (1.0 + full.abs()),
                "running {running} vs full {full}"
            );
        }
    }

    #[test]
    fn delta_for_foreign_item_is_zero() {
        let plan = EvalPlan::compile(&mixed());
        let values = [3.0, 4.0, 5.0, 6.0];
        assert_eq!(plan.delta_eval(&values, x(3), 6.0, 100.0), 0.0);
    }

    #[test]
    fn zero_polynomial_compiles() {
        let plan = EvalPlan::compile(&Polynomial::zero());
        assert_eq!(plan.n_terms(), 0);
        assert_eq!(plan.n_values(), 0);
        assert_eq!(plan.eval(&[]), 0.0);
        assert_eq!(plan.delta_eval(&[], x(0), 1.0, 2.0), 0.0);
    }

    #[test]
    fn general_fallback_uses_powi_like_naive() {
        // x^3 * y: powi(3) (exponentiation by squaring) must match the
        // naive path bit-for-bit because both call powi.
        let p = Polynomial::term(PTerm::new(2.0, [(x(0), 3), (x(1), 1)]).unwrap());
        let plan = EvalPlan::compile(&p);
        let values = [1.000000123, 7.3];
        assert_eq!(plan.eval(&values), p.eval(&values));
    }
}
