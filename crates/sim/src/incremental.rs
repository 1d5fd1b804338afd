//! Delta-maintained query values (the DBToaster idea, §PAPERS.md).
//!
//! The engine needs every query's value at two views of the data: the
//! **source view** (true values, which move every tick) and the
//! **coordinator view** (cached values, which move only when a refresh
//! arrives). Re-evaluating `P(x)` from scratch at the coordinator view
//! for every refresh check and fidelity sample costs
//! `O(queries × terms)` even though one item moved. A [`DeltaView`]
//! instead keeps one maintained value per query and folds in `ΔP` from
//! [`pq_poly::EvalPlan::delta_eval`] whenever an item moves —
//! `O(terms containing the item)` per change, and `O(1)` per query per
//! read. The engine maintains only the coordinator view this way: at
//! the source nearly every item moves between two reads, so a full
//! evaluation per read is the cheaper plan there (DESIGN.md §11).
//!
//! Floating-point drift: each applied delta adds one rounding of the
//! running sum (the per-term old/new contributions themselves round
//! exactly as a full evaluation would). The drift is therefore bounded
//! by roughly `n_applied × ulp(|P|)` since the last [`DeltaView::rebase`],
//! which recomputes every value with the compiled full evaluation
//! (bit-identical to the naive [`pq_poly::Polynomial::eval`]). The
//! engine rebases every `rebase_every` ticks (see
//! [`crate::engine::EvalMode`]), keeping the maintained values well
//! inside the margins of any QAB comparison.

//! A [`SharedView`] is the same idea over a whole query book compiled
//! into one [`pq_poly::SharedPlan`]: each distinct monomial's delta is
//! computed once and scattered to every subscribing query through the
//! plan's CSR term → query index, so the per-change cost is
//! `O(distinct terms containing the item + scatter fan-out)` instead of
//! `O(Σ per-query affected terms)`. Its drift bound and rebase story
//! are identical to [`DeltaView`]'s, with the shared plan's own
//! deterministic full evaluation as the rebase anchor (see
//! [`pq_poly::SharedPlan::full_eval_into`]).

use pq_poly::{EvalPlan, ItemId, SharedPlan};

/// CSR item → readers: for every item, the queries whose polynomial
/// references it (ascending) and, beside each, the item's slot in that
/// query's [`EvalPlan`] ([`EvalPlan::slot_of`]). Resolved once per book,
/// so folding a move into its readers walks one contiguous run and
/// searches no plan.
#[derive(Debug, Clone)]
pub struct ReaderIndex {
    /// `starts[i]..starts[i + 1]` is item `i`'s run in the two arrays
    /// below.
    starts: Vec<u32>,
    queries: Vec<u32>,
    slots: Vec<u32>,
}

/// One item's run of a [`ReaderIndex`]: `slots[k]` is the item's slot
/// in the plan of query `queries[k]`.
#[derive(Debug, Clone, Copy)]
pub struct Readers<'a> {
    /// The queries referencing the item, ascending.
    pub queries: &'a [u32],
    /// The item's slot in each of those queries' plans.
    pub slots: &'a [u32],
}

impl ReaderIndex {
    /// Indexes a book over `n_items` items; `query_items[q]` is query
    /// `q`'s distinct items in ascending order
    /// ([`pq_poly::PolynomialQuery::items`]), which is also its plan's
    /// slot order.
    ///
    /// # Panics
    /// Panics if a query references an item `>= n_items`.
    pub fn new(n_items: usize, query_items: &[Vec<ItemId>]) -> Self {
        let mut starts = vec![0u32; n_items + 1];
        for item in query_items.iter().flatten() {
            starts[item.index() + 1] += 1;
        }
        for i in 0..n_items {
            starts[i + 1] += starts[i];
        }
        let mut cursor = starts.clone();
        let mut queries = vec![0u32; starts[n_items] as usize];
        let mut slots = queries.clone();
        for (qi, items) in query_items.iter().enumerate() {
            for (slot, item) in items.iter().enumerate() {
                let at = &mut cursor[item.index()];
                queries[*at as usize] = qi as u32;
                slots[*at as usize] = slot as u32;
                *at += 1;
            }
        }
        ReaderIndex {
            starts,
            queries,
            slots,
        }
    }

    /// The queries referencing `item`, ascending.
    #[inline]
    pub fn queries(&self, item: usize) -> &[u32] {
        self.readers(item).queries
    }

    /// `item`'s readers with their pre-resolved plan slots.
    #[inline]
    pub fn readers(&self, item: usize) -> Readers<'_> {
        let run = self.starts[item] as usize..self.starts[item + 1] as usize;
        Readers {
            queries: &self.queries[run.clone()],
            slots: &self.slots[run],
        }
    }
}

/// Per-query values of one view, maintained incrementally.
#[derive(Debug, Clone)]
pub struct DeltaView {
    qv: Vec<f64>,
    /// Item-delta applications folded in since the last rebase (drives
    /// the `eval.delta` counter and the drift bound).
    deltas_since_rebase: u64,
}

impl DeltaView {
    /// Builds a view over `plans`, fully evaluating each at `values`.
    pub fn new(plans: &[EvalPlan], values: &[f64]) -> Self {
        DeltaView {
            qv: plans.iter().map(|p| p.eval(values)).collect(),
            deltas_since_rebase: 0,
        }
    }

    /// The maintained value of query `qi`.
    #[inline]
    pub fn value(&self, qi: usize) -> f64 {
        self.qv[qi]
    }

    /// All maintained values, indexed by query.
    #[inline]
    pub fn values(&self) -> &[f64] {
        &self.qv
    }

    /// Item-delta applications folded in since the last rebase.
    #[inline]
    pub fn deltas_since_rebase(&self) -> u64 {
        self.deltas_since_rebase
    }

    /// Folds the move `old -> new` of `item` into every query reading
    /// it (`readers` is the item's run of the book's [`ReaderIndex`];
    /// each query indexes both `plans` and this view). `values` is the
    /// view's value array; its `item` slot may hold either the old or
    /// the new value — the delta uses the explicit `old`/`new`
    /// arguments.
    ///
    /// Returns the number of query values updated.
    #[inline]
    pub fn apply(
        &mut self,
        plans: &[EvalPlan],
        readers: Readers<'_>,
        values: &[f64],
        item: usize,
        old: f64,
        new: f64,
    ) -> u64 {
        if old == new {
            return 0;
        }
        let id = ItemId(item as u32);
        for (&qi, &slot) in readers.queries.iter().zip(readers.slots) {
            let qi = qi as usize;
            self.qv[qi] += plans[qi].delta_eval_slot(values, slot as usize, id, old, new);
        }
        let n = readers.queries.len() as u64;
        self.deltas_since_rebase += n;
        n
    }

    /// Folds a batch of moves `(item, new_value)` into the view in
    /// order, writing each new value into `values` as it is applied so
    /// later moves in the batch see earlier ones — bit-identical to the
    /// equivalent sequence of [`DeltaView::apply`] calls followed by
    /// per-item stores. `index` is the book's item → reader index.
    /// Returns the total number of query values updated, matching the
    /// sum of the per-move `apply` returns.
    pub fn apply_batch(
        &mut self,
        plans: &[EvalPlan],
        index: &ReaderIndex,
        values: &mut [f64],
        moves: &[(usize, f64)],
    ) -> u64 {
        let mut updated = 0;
        for &(item, new) in moves {
            let old = values[item];
            updated += self.apply(plans, index.readers(item), values, item, old, new);
            values[item] = new;
        }
        updated
    }

    /// Fault injection: perturbs the maintained value of query `qi` by
    /// `amount` without touching the underlying item values. The view is
    /// now wrong by construction — exactly the failure mode (a missed or
    /// double-applied delta) the fidelity auditor ([`crate::audit`]) exists
    /// to catch, which is also its only intended use.
    pub fn corrupt(&mut self, qi: usize, amount: f64) {
        self.qv[qi] += amount;
    }

    /// Recomputes every value with a full compiled evaluation at
    /// `values`, discarding accumulated rounding drift.
    pub fn rebase(&mut self, plans: &[EvalPlan], values: &[f64]) {
        self.rebase_with(|qi| plans[qi].eval(values));
    }

    /// Overwrites every value with `eval(query)` — a rebase through any
    /// full evaluator (the engine's naive mode passes
    /// [`pq_poly::PolynomialQuery::eval`]).
    pub fn rebase_with(&mut self, mut eval: impl FnMut(usize) -> f64) {
        for (qi, qv) in self.qv.iter_mut().enumerate() {
            *qv = eval(qi);
        }
        self.deltas_since_rebase = 0;
    }
}

/// Per-query values of one view, maintained incrementally through a
/// cross-query [`SharedPlan`] (`EvalMode::Shared`). The API mirrors
/// [`DeltaView`], but no item → query index is needed — the shared plan
/// carries its own CSR item → term dispatch and term → query scatter.
#[derive(Debug, Clone)]
pub struct SharedView {
    qv: Vec<f64>,
    /// Monomial-evaluation scratch reused across rebases/seeds.
    scratch: Vec<f64>,
    /// Query-value scatter updates folded in since the last rebase
    /// (drives the `eval.scatter_fanout` counter and the drift bound).
    deltas_since_rebase: u64,
}

impl SharedView {
    /// Builds a view over `plan`, fully evaluating the book at `values`.
    pub fn new(plan: &SharedPlan, values: &[f64]) -> Self {
        let mut view = SharedView {
            qv: Vec::new(),
            scratch: Vec::new(),
            deltas_since_rebase: 0,
        };
        plan.full_eval_into(values, &mut view.scratch, &mut view.qv);
        view
    }

    /// The maintained value of query `qi`.
    #[inline]
    pub fn value(&self, qi: usize) -> f64 {
        self.qv[qi]
    }

    /// All maintained values, indexed by query slot.
    #[inline]
    pub fn values(&self) -> &[f64] {
        &self.qv
    }

    /// Scatter updates folded in since the last rebase.
    #[inline]
    pub fn deltas_since_rebase(&self) -> u64 {
        self.deltas_since_rebase
    }

    /// Folds the move `old -> new` of `item` into every subscribing
    /// query through the shared plan's scatter. `values` is the view's
    /// value array; its `item` slot may hold either the old or the new
    /// value — the delta uses the explicit `old`/`new` arguments.
    ///
    /// Returns the scatter fan-out (query values updated).
    #[inline]
    pub fn apply(
        &mut self,
        plan: &SharedPlan,
        values: &[f64],
        item: usize,
        old: f64,
        new: f64,
    ) -> u64 {
        let fanout = plan.delta_scatter(values, ItemId(item as u32), old, new, &mut self.qv);
        self.deltas_since_rebase += fanout;
        fanout
    }

    /// Folds a batch of moves `(item, new_value)` into the view in
    /// order, writing each new value into `values` as it is applied so
    /// later moves in the batch see earlier ones — bit-identical to the
    /// equivalent sequence of [`SharedView::apply`] calls followed by
    /// per-item stores. Returns the total scatter fan-out.
    pub fn apply_batch(
        &mut self,
        plan: &SharedPlan,
        values: &mut [f64],
        moves: &[(usize, f64)],
    ) -> u64 {
        let mut updated = 0;
        for &(item, new) in moves {
            let old = values[item];
            updated += self.apply(plan, values, item, old, new);
            values[item] = new;
        }
        updated
    }

    /// Fault injection: perturbs the maintained value of query `qi` by
    /// `amount` without touching the underlying item values (see
    /// [`DeltaView::corrupt`]; the fidelity auditor's test hook).
    pub fn corrupt(&mut self, qi: usize, amount: f64) {
        self.qv[qi] += amount;
    }

    /// Recomputes every value with the shared plan's full evaluation at
    /// `values`, discarding accumulated rounding drift.
    pub fn rebase(&mut self, plan: &SharedPlan, values: &[f64]) {
        plan.full_eval_into(values, &mut self.scratch, &mut self.qv);
        self.deltas_since_rebase = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pq_poly::{PTerm, Polynomial};

    fn x(i: u32) -> ItemId {
        ItemId(i)
    }

    fn polys() -> [Polynomial; 3] {
        // q0 = 2 x0 x1, q1 = x1^2 - 3 x2, q2 = 4 (no items).
        [
            Polynomial::term(PTerm::new(2.0, [(x(0), 1), (x(1), 1)]).unwrap()),
            Polynomial::from_terms([
                PTerm::new(1.0, [(x(1), 2)]).unwrap(),
                PTerm::new(-3.0, [(x(2), 1)]).unwrap(),
            ]),
            Polynomial::term(PTerm::constant(4.0).unwrap()),
        ]
    }

    fn plans() -> Vec<EvalPlan> {
        polys().iter().map(EvalPlan::compile).collect()
    }

    fn reader_index(n_items: usize) -> ReaderIndex {
        let items: Vec<Vec<ItemId>> = polys().iter().map(Polynomial::items).collect();
        ReaderIndex::new(n_items, &items)
    }

    #[test]
    fn reader_index_lists_each_items_queries_with_their_plan_slots() {
        // One never-read item (x3) past the book's own.
        let idx = reader_index(4);
        let plans = plans();
        assert_eq!(idx.queries(0), &[0]);
        assert_eq!(idx.queries(1), &[0, 1]);
        assert_eq!(idx.queries(2), &[1]);
        assert!(idx.queries(3).is_empty());
        for item in 0..4 {
            let readers = idx.readers(item);
            assert_eq!(readers.queries, idx.queries(item));
            for (&qi, &slot) in readers.queries.iter().zip(readers.slots) {
                assert_eq!(
                    plans[qi as usize].slot_of(x(item as u32)),
                    Some(slot as usize)
                );
            }
        }
    }

    #[test]
    fn apply_tracks_full_reevaluation() {
        let plans = plans();
        let idx = reader_index(3);
        let mut values = vec![3.0, 4.0, 5.0];
        let mut view = DeltaView::new(&plans, &values);
        assert_eq!(view.values(), &[24.0, 1.0, 4.0]);

        for (item, new) in [(0usize, 3.5), (1, -2.0), (2, 0.25), (1, 10.0)] {
            let old = values[item];
            view.apply(&plans, idx.readers(item), &values, item, old, new);
            values[item] = new;
            for (qi, plan) in plans.iter().enumerate() {
                let full = plan.eval(&values);
                assert!(
                    (view.value(qi) - full).abs() <= 1e-9 * (1.0 + full.abs()),
                    "q{qi}: {} vs {full}",
                    view.value(qi)
                );
            }
        }
        assert!(view.deltas_since_rebase() > 0);
    }

    #[test]
    fn noop_moves_cost_nothing() {
        let plans = plans();
        let idx = reader_index(3);
        let values = vec![3.0, 4.0, 5.0];
        let mut view = DeltaView::new(&plans, &values);
        assert_eq!(view.apply(&plans, idx.readers(0), &values, 0, 3.0, 3.0), 0);
        assert_eq!(view.deltas_since_rebase(), 0);
    }

    #[test]
    fn apply_batch_matches_sequential_applies() {
        let plans = plans();
        let idx = reader_index(3);
        let moves = [(0usize, 3.5), (1, -2.0), (2, 0.25), (1, 10.0)];

        let mut seq_values = vec![3.0, 4.0, 5.0];
        let mut seq_view = DeltaView::new(&plans, &seq_values);
        let mut seq_updated = 0;
        for &(item, new) in &moves {
            let old = seq_values[item];
            seq_updated += seq_view.apply(&plans, idx.readers(item), &seq_values, item, old, new);
            seq_values[item] = new;
        }

        let mut batch_values = vec![3.0, 4.0, 5.0];
        let mut batch_view = DeltaView::new(&plans, &batch_values);
        let batch_updated = batch_view.apply_batch(&plans, &idx, &mut batch_values, &moves);

        assert_eq!(batch_updated, seq_updated);
        assert_eq!(batch_values, seq_values);
        assert_eq!(batch_view.values(), seq_view.values());
        assert_eq!(
            batch_view.deltas_since_rebase(),
            seq_view.deltas_since_rebase()
        );
    }

    #[test]
    fn rebase_restores_bit_exact_values() {
        let plans = plans();
        let idx = reader_index(3);
        let mut values = vec![3.0, 4.0, 5.0];
        let mut view = DeltaView::new(&plans, &values);
        // A long drifting walk...
        for k in 0..1000 {
            let item = k % 3;
            let old = values[item];
            let new = old + 0.001 * (k as f64 % 7.0 - 3.0);
            view.apply(&plans, idx.readers(item), &values, item, old, new);
            values[item] = new;
        }
        view.rebase(&plans, &values);
        assert_eq!(view.deltas_since_rebase(), 0);
        for (qi, plan) in plans.iter().enumerate() {
            assert_eq!(view.value(qi), plan.eval(&values), "q{qi} after rebase");
        }
    }

    fn book() -> Vec<Polynomial> {
        // Overlapping monomials: x0*x1 appears in q0 and q1.
        vec![
            Polynomial::from_terms([
                PTerm::new(2.0, [(x(0), 1), (x(1), 1)]).unwrap(),
                PTerm::new(1.0, [(x(2), 1)]).unwrap(),
            ]),
            Polynomial::from_terms([
                PTerm::new(-3.0, [(x(0), 1), (x(1), 1)]).unwrap(),
                PTerm::new(1.0, [(x(1), 2)]).unwrap(),
            ]),
            Polynomial::term(PTerm::constant(4.0).unwrap()),
        ]
    }

    #[test]
    fn shared_view_tracks_full_reevaluation() {
        let book = book();
        let plan = SharedPlan::compile(&book);
        let mut values = vec![3.0, 4.0, 5.0];
        let mut view = SharedView::new(&plan, &values);
        assert_eq!(view.values(), &[29.0, -20.0, 4.0]);

        for (item, new) in [(0usize, 3.5), (1, -2.0), (2, 0.25), (1, 10.0)] {
            let old = values[item];
            view.apply(&plan, &values, item, old, new);
            values[item] = new;
            for (qi, poly) in book.iter().enumerate() {
                let full = poly.eval(&values);
                assert!(
                    (view.value(qi) - full).abs() <= 1e-9 * (1.0 + full.abs()),
                    "q{qi}: {} vs {full}",
                    view.value(qi)
                );
            }
        }
        assert!(view.deltas_since_rebase() > 0);
    }

    #[test]
    fn shared_apply_batch_matches_sequential_applies() {
        let book = book();
        let plan = SharedPlan::compile(&book);
        let moves = [(0usize, 3.5), (1, -2.0), (2, 0.25), (1, 10.0)];

        let mut seq_values = vec![3.0, 4.0, 5.0];
        let mut seq_view = SharedView::new(&plan, &seq_values);
        let mut seq_updated = 0;
        for &(item, new) in &moves {
            let old = seq_values[item];
            seq_updated += seq_view.apply(&plan, &seq_values, item, old, new);
            seq_values[item] = new;
        }

        let mut batch_values = vec![3.0, 4.0, 5.0];
        let mut batch_view = SharedView::new(&plan, &batch_values);
        let batch_updated = batch_view.apply_batch(&plan, &mut batch_values, &moves);

        assert_eq!(batch_updated, seq_updated);
        assert_eq!(batch_values, seq_values);
        assert_eq!(batch_view.values(), seq_view.values());
    }

    #[test]
    fn shared_rebase_restores_plan_exact_values() {
        let book = book();
        let plan = SharedPlan::compile(&book);
        let mut values = vec![3.0, 4.0, 5.0];
        let mut view = SharedView::new(&plan, &values);
        for k in 0..1000 {
            let item = k % 3;
            let old = values[item];
            let new = old + 0.001 * (k as f64 % 7.0 - 3.0);
            view.apply(&plan, &values, item, old, new);
            values[item] = new;
        }
        view.rebase(&plan, &values);
        assert_eq!(view.deltas_since_rebase(), 0);
        let (mut scratch, mut qv) = (Vec::new(), Vec::new());
        plan.full_eval_into(&values, &mut scratch, &mut qv);
        assert_eq!(view.values(), qv.as_slice());
    }

    #[test]
    fn shared_noop_moves_cost_nothing() {
        let book = book();
        let plan = SharedPlan::compile(&book);
        let values = vec![3.0, 4.0, 5.0];
        let mut view = SharedView::new(&plan, &values);
        assert_eq!(view.apply(&plan, &values, 0, 3.0, 3.0), 0);
        assert_eq!(view.deltas_since_rebase(), 0);
    }
}
