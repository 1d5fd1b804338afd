//! Cross-query shared-term evaluation: one compiled plan per query *book*.
//!
//! The paper's workloads overlap heavily in monomials — the same
//! portfolio leg `x_i·x_j` appears in many queries — so compiling and
//! delta-maintaining every query on its own makes memory and
//! per-refresh work scale with *total* terms rather than *distinct*
//! terms. A [`SharedPlan`] applies DBToaster's higher-order-delta idea
//! at the query-set level: maintain each distinct monomial once and
//! scatter its delta to every subscribing query with one fused
//! multiply-add per subscription. A [`SharedView`] holds the query
//! values a plan maintains.
//!
//! # Compiler pipeline
//!
//! [`SharedPlan::compile`] runs a staged `parse → analyze → optimize →
//! plan` pipeline over the whole book:
//!
//! 1. **parse** — normalize each polynomial into a constant part plus a
//!    list of `(canonical key, coefficient)` monomials. A canonical key
//!    is the sorted `(item, exponent)` factor vector ([`crate::PTerm`]
//!    already stores factors sorted and merged).
//! 2. **analyze** — intern every key into a distinct-monomial set
//!    (common-subexpression elimination across queries) and record each
//!    query's subscriptions.
//! 3. **optimize** — order the distinct set canonically (lexicographic
//!    by key) so the emitted plan is identical for any permutation of
//!    the same book, and classify each monomial into an unrolled
//!    degree-1/2 kernel shape (linear, square, bilinear) or the
//!    general factor scan.
//! 4. **plan** — emit flat SoA storage: per-term kernel tags, a CSR
//!    item → term index for delta dispatch keyed by the book's own
//!    sorted item list (so a plan costs `O(terms)` bytes wherever its
//!    item ids sit in the universe), and a CSR term → query scatter
//!    with per-subscription coefficients.
//!
//! # Floating-point contract
//!
//! A shared monomial is computed **without** any query's coefficient,
//! so a subscribing query's contribution rounds as `c * (x_i * x_j)` —
//! not the `(c * x_i) * x_j` of the naive path. Shared
//! evaluation therefore defines its *own* deterministic semantics
//! rather than bit-matching [`crate::Polynomial::eval`]:
//!
//! * **Deterministic & permutation-invariant.** Full evaluation of a
//!   query is `const + Σ c_t · m_t` in the query's own term order;
//!   deltas scatter in canonical term order. Both depend only on the
//!   query and the values, never on book composition, admission
//!   history, or compaction — compiling a permuted book, or reaching
//!   the same book through admit/retire churn, yields bit-identical
//!   query values.
//! * **Within one extra rounding per term of naive.** Each term
//!   contributes one product reassociation; query values agree with
//!   naive evaluation to relative `~n_terms × ulp`, many orders of
//!   magnitude inside any meaningful QAB (enforced by the property
//!   tests and, end-to-end, by the simulator's fidelity auditor).
//!
//! # Incremental admission & retirement
//!
//! [`SharedPlan::admit`] and [`SharedPlan::retire`] patch the scatter
//! instead of recompiling the book: genuinely new monomials append at
//! the SoA/CSR tail, subscriptions to *existing* monomials land in a
//! per-term overlay (one branch on a dense bitset in the hot loop), and
//! retirement tombstones flat subscriptions in place. Once overlay plus
//! tombstone volume passes a fraction of the flat scatter, the plan
//! compacts back to pure CSR — term ids are stable across all of this,
//! so downstream views never rebuild. This is the plan-level
//! item→term/term→query index hoisted out of the hot path and
//! invalidated only on query churn.

use std::collections::HashMap;

use crate::item::ItemId;
use crate::polynomial::Polynomial;

/// Canonical monomial key: the sorted `(item, exponent)` factor vector.
type TermKey = Vec<(u32, u32)>;

/// Tombstone marker for a retired flat subscription.
const DEAD: u32 = u32::MAX;

/// Per-subscription partitioner load relative to one distinct-monomial
/// kernel evaluation: a subscription costs one fused multiply-add on
/// the scatter, a fresh monomial a full kernel evaluation per delta.
const SUB_LOAD: f64 = 0.25;

/// Kernel shape of one distinct monomial (coefficient-free: the
/// coefficients live on the term → query scatter).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SharedKind {
    /// `x_i`
    Linear { i: u32 },
    /// `x_i^2`
    Square { i: u32 },
    /// `x_i * x_j` with `i < j` (a portfolio/arbitrage leg).
    Bilinear { i: u32, j: u32 },
    /// General product over `factors[start..end]`.
    General { start: u32, end: u32 },
}

/// One query normalized by the parse stage: folded constant plus
/// `(canonical key, coefficient)` monomials in the query's term order.
struct QueryIr {
    const_base: f64,
    terms: Vec<(TermKey, f64)>,
}

/// A whole query book compiled for shared evaluation and delta
/// maintenance. See the module docs for the pipeline and the
/// floating-point contract.
///
/// ```
/// use pq_poly::{parse_polynomial, ItemCatalog, SharedPlan};
/// let mut cat = ItemCatalog::new();
/// let q0 = parse_polynomial("2*x0*x1 + x2", &mut cat).unwrap();
/// let q1 = parse_polynomial("5*x0*x1 - 1", &mut cat).unwrap();
/// let plan = SharedPlan::compile([&q0, &q1]);
/// // x0*x1 is shared: 3 subscriptions over 2 distinct monomials.
/// assert_eq!(plan.n_terms(), 2);
/// assert_eq!(plan.scatter_fanout(), 3);
///
/// let mut values = vec![3.0, 4.0, 5.0];
/// let mut qv = vec![0.0; 2];
/// let mut scratch = Vec::new();
/// plan.full_eval_into(&values, &mut scratch, &mut qv);
/// assert_eq!(qv, vec![29.0, 59.0]);
///
/// // x1: 4 -> 6 updates both subscribers of x0*x1 in one pass.
/// let fanout = plan.delta_scatter(&values, pq_poly::ItemId(1), 4.0, 6.0, &mut qv);
/// values[1] = 6.0;
/// assert_eq!(fanout, 2);
/// assert_eq!(qv, vec![q0.eval(&values), q1.eval(&values)]);
/// ```
#[derive(Debug, Clone)]
pub struct SharedPlan {
    /// Per-distinct-monomial kernel tag, canonical order then admission
    /// order. Term ids are stable for the lifetime of the plan.
    kinds: Vec<SharedKind>,
    /// Flat `(item, exponent)` factors for `General` kernels only.
    factors: Vec<(u32, u32)>,
    /// Canonical key → term id, for CSE on admission.
    key_index: HashMap<TermKey, u32>,

    /// The distinct items the flat index covers, ascending.
    index_items: Vec<u32>,
    /// CSR item → term over `index_items`:
    /// `index_terms[index_starts[k]..index_starts[k+1]]` are the terms
    /// containing item `index_items[k]`, ascending (the universe as of
    /// the last compile or compaction; admitted terms live in the
    /// overlay until the next one).
    index_starts: Vec<u32>,
    index_terms: Vec<u32>,
    /// Admission overlay of the item → term index; empty except between
    /// the admission of a new monomial and the next compaction.
    index_overlay: HashMap<u32, Vec<u32>>,

    /// CSR term → subscriptions: queries and coefficients in
    /// `sub_starts[t]..sub_starts[t+1]`. `sub_query[k] == u32::MAX`
    /// marks a retired (tombstoned) subscription.
    sub_starts: Vec<u32>,
    sub_query: Vec<u32>,
    sub_coef: Vec<f64>,
    /// Admission overlay: subscriptions added to pre-existing terms.
    sub_overlay: HashMap<u32, Vec<(u32, f64)>>,
    /// Dense guard for the overlay lookup, indexed by term.
    term_overlaid: Vec<bool>,
    /// Live subscriptions per term (flat + overlay); a zero row skips
    /// the kernel entirely on delta dispatch.
    sub_live: Vec<u32>,
    /// Tombstoned flat subscriptions / overlay subscriptions, driving
    /// the compaction threshold.
    dead_subs: usize,
    overlay_subs: usize,

    /// Per-query subscription registry `(term, coef)` in the query's
    /// own term order (drives full evaluation and retirement).
    query_terms: Vec<Vec<(u32, f64)>>,
    /// Per-query folded constant.
    const_base: Vec<f64>,
    /// Whether each slot currently holds a live query.
    live_query: Vec<bool>,
    /// Retired slots available for reuse by [`SharedPlan::admit`].
    free_slots: Vec<u32>,

    /// Minimum length a `values` slice must have.
    n_values: usize,
    /// Maximum total degree across distinct monomials.
    degree: u32,
}

impl SharedPlan {
    /// Compiles a query book through the staged pipeline (module docs).
    pub fn compile<'a>(polys: impl IntoIterator<Item = &'a Polynomial>) -> SharedPlan {
        let queries = Self::parse(polys);
        let (distinct, subs_per_term) = Self::analyze(&queries);
        let (ordered, remap) = Self::optimize(distinct);
        Self::plan(queries, ordered, subs_per_term, remap)
    }

    /// Stage 1 — parse: normalize each polynomial into constant +
    /// canonical `(key, coef)` monomials.
    fn parse<'a>(polys: impl IntoIterator<Item = &'a Polynomial>) -> Vec<QueryIr> {
        polys
            .into_iter()
            .map(|p| {
                let mut const_base = 0.0;
                let mut terms = Vec::with_capacity(p.n_terms());
                for t in p.terms() {
                    if t.vars().is_empty() {
                        const_base += t.coef();
                    } else {
                        let key: TermKey = t.vars().iter().map(|&(i, e)| (i.0, e)).collect();
                        terms.push((key, t.coef()));
                    }
                }
                QueryIr { const_base, terms }
            })
            .collect()
    }

    /// Stage 2 — analyze: intern distinct keys (CSE across the book)
    /// and count subscriptions per distinct monomial.
    fn analyze(queries: &[QueryIr]) -> (Vec<TermKey>, Vec<u32>) {
        let mut ids: HashMap<&[(u32, u32)], u32> = HashMap::new();
        let mut distinct: Vec<TermKey> = Vec::new();
        let mut subs: Vec<u32> = Vec::new();
        for q in queries {
            for (key, _) in &q.terms {
                let id = *ids.entry(key.as_slice()).or_insert_with(|| {
                    distinct.push(key.clone());
                    subs.push(0);
                    (distinct.len() - 1) as u32
                });
                subs[id as usize] += 1;
            }
        }
        (distinct, subs)
    }

    /// Stage 3 — optimize: order the distinct set canonically so the
    /// plan is invariant under book permutation. Returns the ordered
    /// keys and the first-appearance → canonical id remap.
    fn optimize(distinct: Vec<TermKey>) -> (Vec<TermKey>, Vec<u32>) {
        let n = distinct.len();
        let mut order: Vec<u32> = (0..n as u32).collect();
        order.sort_unstable_by(|&a, &b| distinct[a as usize].cmp(&distinct[b as usize]));
        let mut remap = vec![0u32; n];
        for (new, &old) in order.iter().enumerate() {
            remap[old as usize] = new as u32;
        }
        let mut ordered = vec![TermKey::new(); n];
        for (old, key) in distinct.into_iter().enumerate() {
            ordered[remap[old] as usize] = key;
        }
        (ordered, remap)
    }

    /// Stage 4 — plan: emit the SoA kernels and both CSR layouts.
    fn plan(
        queries: Vec<QueryIr>,
        ordered: Vec<TermKey>,
        subs_per_term: Vec<u32>,
        remap: Vec<u32>,
    ) -> SharedPlan {
        let n_terms = ordered.len();
        let mut factors = Vec::new();
        let mut kinds = Vec::with_capacity(n_terms);
        let mut degree = 0u32;
        let mut n_values = 0usize;
        for key in &ordered {
            kinds.push(classify(key, &mut factors));
            degree = degree.max(key.iter().map(|&(_, e)| e).sum());
            for &(i, _) in key {
                n_values = n_values.max(i as usize + 1);
            }
        }

        // Term → subscription CSR: counting sort over per-term
        // subscription counts; rows fill in query order, so each row
        // is ascending by query id.
        let mut sub_starts = vec![0u32; n_terms + 1];
        for (t, &c) in subs_per_term.iter().enumerate() {
            sub_starts[remap[t] as usize + 1] = c;
        }
        for t in 1..=n_terms {
            sub_starts[t] += sub_starts[t - 1];
        }
        let total_subs = sub_starts[n_terms] as usize;
        let mut cursor = sub_starts.clone();
        let mut sub_query = vec![0u32; total_subs];
        let mut sub_coef = vec![0f64; total_subs];
        let mut query_terms = Vec::with_capacity(queries.len());
        let mut const_base = Vec::with_capacity(queries.len());
        // Re-intern against the canonical order to map each query's
        // keys to final term ids.
        let key_index: HashMap<TermKey, u32> = ordered
            .iter()
            .enumerate()
            .map(|(t, k)| (k.clone(), t as u32))
            .collect();
        for (qi, q) in queries.iter().enumerate() {
            let mut refs = Vec::with_capacity(q.terms.len());
            for (key, coef) in &q.terms {
                let t = key_index[key] as usize;
                let k = cursor[t] as usize;
                sub_query[k] = qi as u32;
                sub_coef[k] = *coef;
                cursor[t] += 1;
                refs.push((t as u32, *coef));
            }
            query_terms.push(refs);
            const_base.push(q.const_base);
        }

        let sub_live: Vec<u32> = (0..n_terms)
            .map(|t| sub_starts[t + 1] - sub_starts[t])
            .collect();
        let (index_items, index_starts, index_terms) = build_item_index(&kinds, &factors);

        SharedPlan {
            kinds,
            factors,
            key_index,
            index_items,
            index_starts,
            index_terms,
            index_overlay: HashMap::new(),
            sub_starts,
            sub_query,
            sub_coef,
            sub_overlay: HashMap::new(),
            term_overlaid: vec![false; n_terms],
            sub_live,
            dead_subs: 0,
            overlay_subs: 0,
            live_query: vec![true; query_terms.len()],
            query_terms,
            const_base,
            free_slots: Vec::new(),
            n_values,
            degree,
        }
    }

    /// Distinct monomials in the plan (including any with zero live
    /// subscribers after retirement; term ids are stable).
    #[inline]
    pub fn n_terms(&self) -> usize {
        self.kinds.len()
    }

    /// Query slots (live + retired-but-reusable).
    #[inline]
    pub fn n_queries(&self) -> usize {
        self.query_terms.len()
    }

    /// Currently live queries.
    pub fn live_queries(&self) -> usize {
        self.live_query.iter().filter(|&&l| l).count()
    }

    /// Whether slot `qi` holds a live query.
    #[inline]
    pub fn is_live(&self, qi: usize) -> bool {
        self.live_query.get(qi).copied().unwrap_or(false)
    }

    /// Minimum length required of a `values` slice.
    #[inline]
    pub fn n_values(&self) -> usize {
        self.n_values
    }

    /// Maximum total degree across distinct monomials.
    #[inline]
    pub fn degree(&self) -> u32 {
        self.degree
    }

    /// Total live subscriptions on the scatter (the book's term count
    /// after CSE would be `n_terms`; this is before CSE).
    pub fn scatter_fanout(&self) -> usize {
        self.sub_live.iter().map(|&c| c as usize).sum()
    }

    /// Estimated heap footprint in bytes of the compiled plan (flat
    /// arrays by length, hash overlays at ~48 bytes/entry plus key
    /// payload; allocator slack excluded). Independent of where the
    /// book's item ids sit in the universe.
    pub fn bytes(&self) -> usize {
        use std::mem::size_of;
        let map_entry = 48usize; // bucket + hash + lengths, estimated
        let key_bytes: usize = self
            .key_index
            .keys()
            .map(|k| k.len() * size_of::<(u32, u32)>() + map_entry)
            .sum();
        let overlays: usize = self
            .index_overlay
            .values()
            .map(|v| v.len() * size_of::<u32>() + map_entry)
            .sum::<usize>()
            + self
                .sub_overlay
                .values()
                .map(|v| v.len() * size_of::<(u32, f64)>() + map_entry)
                .sum::<usize>();
        let query_regs: usize = self
            .query_terms
            .iter()
            .map(|v| v.len() * size_of::<(u32, f64)>() + size_of::<Vec<(u32, f64)>>())
            .sum();
        size_of::<Self>()
            + self.kinds.len() * size_of::<SharedKind>()
            + self.factors.len() * size_of::<(u32, u32)>()
            + key_bytes
            + (self.index_items.len() + self.index_starts.len() + self.index_terms.len())
                * size_of::<u32>()
            + overlays
            + (self.sub_starts.len() + self.sub_query.len() + self.sub_live.len())
                * size_of::<u32>()
            + self.sub_coef.len() * size_of::<f64>()
            + self.term_overlaid.len()
            + query_regs
            + self.const_base.len() * size_of::<f64>()
            + self.live_query.len()
            + self.free_slots.len() * size_of::<u32>()
    }

    /// One distinct monomial's value at `values` (coefficient-free).
    #[inline]
    fn term_value(&self, t: usize, values: &[f64]) -> f64 {
        match self.kinds[t] {
            SharedKind::Linear { i } => values[i as usize],
            SharedKind::Square { i } => {
                let x = values[i as usize];
                x * x
            }
            SharedKind::Bilinear { i, j } => values[i as usize] * values[j as usize],
            SharedKind::General { start, end } => {
                let mut acc = 1.0;
                for &(i, e) in &self.factors[start as usize..end as usize] {
                    acc *= values[i as usize].powi(e as i32);
                }
                acc
            }
        }
    }

    /// Monomial value with `values[item]` overridden to `v`, so the old
    /// and the new value of a term each round exactly as a full
    /// evaluation at the respective inputs would.
    #[inline]
    fn term_value_with(&self, t: usize, values: &[f64], item: u32, v: f64) -> f64 {
        let at = |i: u32| if i == item { v } else { values[i as usize] };
        match self.kinds[t] {
            SharedKind::Linear { i } => at(i),
            SharedKind::Square { i } => {
                let x = at(i);
                x * x
            }
            SharedKind::Bilinear { i, j } => at(i) * at(j),
            SharedKind::General { start, end } => {
                let mut acc = 1.0;
                for &(i, e) in &self.factors[start as usize..end as usize] {
                    acc *= at(i).powi(e as i32);
                }
                acc
            }
        }
    }

    /// Evaluates every distinct monomial once into `scratch`.
    pub fn eval_terms_into(&self, values: &[f64], scratch: &mut Vec<f64>) {
        assert!(values.len() >= self.n_values, "values slice too short");
        scratch.clear();
        scratch.extend((0..self.kinds.len()).map(|t| self.term_value(t, values)));
    }

    /// One query's value from precomputed monomial values:
    /// `const + Σ c_t · m_t` in the query's own term order. Retired
    /// slots evaluate to `0.0`.
    #[inline]
    pub fn query_value(&self, qi: usize, term_vals: &[f64]) -> f64 {
        let mut acc = self.const_base[qi];
        for &(t, c) in &self.query_terms[qi] {
            acc += c * term_vals[t as usize];
        }
        acc
    }

    /// Full evaluation of the whole book: every distinct monomial is
    /// computed exactly once (into `scratch`), then scattered into
    /// per-query values. `qv` is resized to the slot count.
    pub fn full_eval_into(&self, values: &[f64], scratch: &mut Vec<f64>, qv: &mut Vec<f64>) {
        self.eval_terms_into(values, scratch);
        qv.clear();
        qv.extend((0..self.query_terms.len()).map(|qi| self.query_value(qi, scratch)));
    }

    /// Scatters the move `old -> new` of `item` into `qv`: for each
    /// live distinct monomial containing the item, the coefficient-free
    /// delta `m(new) - m(old)` is computed **once** and applied as
    /// `qv[q] += c_q · d` per subscription. `values[item]` itself is
    /// ignored (the explicit `old`/`new` take its place). Returns the
    /// scatter fan-out (query values updated).
    ///
    /// # Panics
    /// Panics if `values.len() < self.n_values()` or `qv` is shorter
    /// than the slot count.
    pub fn delta_scatter(
        &self,
        values: &[f64],
        item: ItemId,
        old: f64,
        new: f64,
        qv: &mut [f64],
    ) -> u64 {
        if old == new {
            return 0;
        }
        assert!(values.len() >= self.n_values, "values slice too short");
        let i = item.0;
        let mut fanout = 0u64;
        for &t in self.flat_terms(i).iter().chain(self.overlay_terms(i)) {
            fanout += self.scatter_term(t as usize, values, i, old, new, qv);
        }
        fanout
    }

    /// The flat index's terms containing `item` (ascending; empty for an
    /// item the index does not cover).
    #[inline]
    fn flat_terms(&self, item: u32) -> &[u32] {
        match self.index_items.binary_search(&item) {
            Ok(k) => {
                &self.index_terms[self.index_starts[k] as usize..self.index_starts[k + 1] as usize]
            }
            Err(_) => &[],
        }
    }

    /// Terms containing `item` admitted since the last compaction.
    #[inline]
    fn overlay_terms(&self, item: u32) -> &[u32] {
        if self.index_overlay.is_empty() {
            return &[];
        }
        self.index_overlay.get(&item).map_or(&[], Vec::as_slice)
    }

    /// Scatters one term's delta over its live subscriptions.
    #[inline]
    fn scatter_term(
        &self,
        t: usize,
        values: &[f64],
        item: u32,
        old: f64,
        new: f64,
        qv: &mut [f64],
    ) -> u64 {
        if self.sub_live[t] == 0 {
            return 0;
        }
        let d =
            self.term_value_with(t, values, item, new) - self.term_value_with(t, values, item, old);
        let mut fanout = 0u64;
        let s = self.sub_starts[t] as usize;
        let e = self.sub_starts[t + 1] as usize;
        for k in s..e {
            let q = self.sub_query[k];
            if q == DEAD {
                continue;
            }
            qv[q as usize] += self.sub_coef[k] * d;
            fanout += 1;
        }
        if self.term_overlaid[t] {
            if let Some(subs) = self.sub_overlay.get(&(t as u32)) {
                for &(q, c) in subs {
                    qv[q as usize] += c * d;
                    fanout += 1;
                }
            }
        }
        fanout
    }

    /// Live distinct monomials a change to `item` dispatches to — the
    /// work metric behind the `O(affected terms)` claim.
    pub fn delta_cost(&self, item: ItemId) -> usize {
        self.flat_terms(item.0)
            .iter()
            .chain(self.overlay_terms(item.0))
            .filter(|&&t| self.sub_live[t as usize] > 0)
            .count()
    }

    /// Admits one query into the book, patching the scatter instead of
    /// recompiling: new distinct monomials append at the SoA/CSR tail,
    /// subscriptions to existing monomials go to the overlay. Returns
    /// the slot id (a retired slot is reused when available). The
    /// caller owns re-seeding any maintained `qv[slot]`.
    pub fn admit(&mut self, poly: &Polynomial) -> u32 {
        let slot = match self.free_slots.pop() {
            Some(s) => s as usize,
            None => {
                self.query_terms.push(Vec::new());
                self.const_base.push(0.0);
                self.live_query.push(false);
                self.query_terms.len() - 1
            }
        };
        let mut const_base = 0.0;
        let mut refs = Vec::new();
        for term in poly.terms() {
            if term.vars().is_empty() {
                const_base += term.coef();
                continue;
            }
            let key: TermKey = term.vars().iter().map(|&(i, e)| (i.0, e)).collect();
            let coef = term.coef();
            let t = match self.key_index.get(&key) {
                Some(&t) => {
                    // Existing monomial: subscription goes to the overlay.
                    self.sub_overlay
                        .entry(t)
                        .or_default()
                        .push((slot as u32, coef));
                    self.term_overlaid[t as usize] = true;
                    self.overlay_subs += 1;
                    self.sub_live[t as usize] += 1;
                    t
                }
                None => {
                    // New monomial: append at the tail of every array;
                    // its first subscription extends the flat CSR.
                    let t = self.kinds.len() as u32;
                    self.kinds.push(classify(&key, &mut self.factors));
                    self.degree = self.degree.max(key.iter().map(|&(_, e)| e).sum());
                    for &(i, _) in &key {
                        self.n_values = self.n_values.max(i as usize + 1);
                        self.index_overlay.entry(i).or_default().push(t);
                    }
                    self.sub_query.push(slot as u32);
                    self.sub_coef.push(coef);
                    self.sub_starts.push(self.sub_query.len() as u32);
                    self.sub_live.push(1);
                    self.term_overlaid.push(false);
                    self.key_index.insert(key, t);
                    t
                }
            };
            refs.push((t, coef));
        }
        self.query_terms[slot] = refs;
        self.const_base[slot] = const_base;
        self.live_query[slot] = true;
        self.maybe_compact();
        slot as u32
    }

    /// Retires the query at `slot`: its flat subscriptions are
    /// tombstoned in place, overlay subscriptions removed, and the slot
    /// queued for reuse. Returns `false` for a slot that is not live.
    pub fn retire(&mut self, slot: u32) -> bool {
        let s = slot as usize;
        if !self.is_live(s) {
            return false;
        }
        for (t, _) in std::mem::take(&mut self.query_terms[s]) {
            let row =
                self.sub_starts[t as usize] as usize..self.sub_starts[t as usize + 1] as usize;
            let mut found = false;
            for k in row {
                if self.sub_query[k] == slot {
                    self.sub_query[k] = DEAD;
                    self.dead_subs += 1;
                    found = true;
                    break;
                }
            }
            if !found {
                let subs = self
                    .sub_overlay
                    .get_mut(&t)
                    .expect("retired subscription neither flat nor overlaid");
                let before = subs.len();
                subs.retain(|&(q, _)| q != slot);
                debug_assert_eq!(before - subs.len(), 1);
                self.overlay_subs -= 1;
                if subs.is_empty() {
                    self.sub_overlay.remove(&t);
                    self.term_overlaid[t as usize] = false;
                }
            }
            self.sub_live[t as usize] -= 1;
        }
        self.const_base[s] = 0.0;
        self.live_query[s] = false;
        self.free_slots.push(slot);
        self.maybe_compact();
        true
    }

    /// Compacts when tombstone + overlay volume passes a quarter of the
    /// flat scatter (with a floor so small books don't thrash).
    fn maybe_compact(&mut self) {
        if self.dead_subs + self.overlay_subs > (self.sub_query.len() / 4).max(32) {
            self.compact();
        }
    }

    /// Rebuilds both CSR layouts to pure flat form: overlay
    /// subscriptions merge behind each term's surviving flat row,
    /// tombstones drop, and the item → term index re-sorts over the
    /// current universe. **Term ids and query slots are unchanged**, so
    /// maintained views stay valid across compaction.
    pub fn compact(&mut self) {
        let n_terms = self.kinds.len();
        let mut starts = Vec::with_capacity(n_terms + 1);
        let mut query = Vec::with_capacity(self.sub_query.len());
        let mut coef = Vec::with_capacity(self.sub_coef.len());
        starts.push(0u32);
        for t in 0..n_terms {
            let row = self.sub_starts[t] as usize..self.sub_starts[t + 1] as usize;
            for k in row {
                if self.sub_query[k] != DEAD {
                    query.push(self.sub_query[k]);
                    coef.push(self.sub_coef[k]);
                }
            }
            if let Some(subs) = self.sub_overlay.get(&(t as u32)) {
                for &(q, c) in subs {
                    query.push(q);
                    coef.push(c);
                }
            }
            starts.push(query.len() as u32);
        }
        self.sub_starts = starts;
        self.sub_query = query;
        self.sub_coef = coef;
        self.sub_overlay.clear();
        self.term_overlaid.clear();
        self.term_overlaid.resize(n_terms, false);
        self.dead_subs = 0;
        self.overlay_subs = 0;

        (self.index_items, self.index_starts, self.index_terms) =
            build_item_index(&self.kinds, &self.factors);
        self.index_overlay.clear();
    }
}

/// Per-query values of one view of the data, maintained incrementally
/// through a [`SharedPlan`]: each distinct monomial's delta is computed
/// once and scattered to every subscribing query, so a change costs
/// `O(distinct terms containing the item + scatter fan-out)` and a read
/// is a load.
///
/// Floating-point drift: each applied delta adds one rounding per
/// updated query value, so after `n` applied deltas the maintained
/// values sit within roughly `n × ulp(|P|)` of the plan's full
/// evaluation; the count restarts at [`SharedView::rebase`], which
/// recomputes every value with [`SharedPlan::full_eval_into`]. Callers
/// rebase on a fixed period, keeping the values well inside the margin
/// of any QAB comparison.
#[derive(Debug, Clone, Default)]
pub struct SharedView {
    qv: Vec<f64>,
    /// Monomial-evaluation scratch reused across rebases/seeds.
    scratch: Vec<f64>,
}

impl SharedView {
    /// Builds a view over `plan`, fully evaluating the book at `values`.
    pub fn new(plan: &SharedPlan, values: &[f64]) -> Self {
        let mut view = SharedView::default();
        view.rebase(plan, values);
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
        plan.delta_scatter(values, ItemId(item as u32), old, new, &mut self.qv)
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
    /// `amount` without touching the underlying item values. The view is
    /// now wrong by construction — exactly the failure mode (a missed or
    /// double-applied delta) the simulator's fidelity auditor exists to
    /// catch, which is also its only intended use.
    pub fn corrupt(&mut self, qi: usize, amount: f64) {
        self.qv[qi] += amount;
    }

    /// Recomputes every value with the shared plan's full evaluation at
    /// `values`, discarding accumulated rounding drift.
    pub fn rebase(&mut self, plan: &SharedPlan, values: &[f64]) {
        plan.full_eval_into(values, &mut self.scratch, &mut self.qv);
    }
}

/// Classifies a canonical key into a kernel shape, spilling general
/// factors into the shared flat array.
fn classify(key: &[(u32, u32)], factors: &mut Vec<(u32, u32)>) -> SharedKind {
    match *key {
        [(i, 1)] => SharedKind::Linear { i },
        [(i, 2)] => SharedKind::Square { i },
        [(i, 1), (j, 1)] => SharedKind::Bilinear { i, j },
        _ => {
            let start = factors.len() as u32;
            factors.extend_from_slice(key);
            SharedKind::General {
                start,
                end: factors.len() as u32,
            }
        }
    }
}

/// Builds the item → term index: the distinct items ascending, CSR
/// offsets over them, and each item's term ids ascending.
fn build_item_index(
    kinds: &[SharedKind],
    factors: &[(u32, u32)],
) -> (Vec<u32>, Vec<u32>, Vec<u32>) {
    let mut pairs: Vec<(u32, u32)> = Vec::new();
    for (t, kind) in kinds.iter().enumerate() {
        let t = t as u32;
        match *kind {
            SharedKind::Linear { i } | SharedKind::Square { i } => pairs.push((i, t)),
            SharedKind::Bilinear { i, j } => pairs.extend([(i, t), (j, t)]),
            SharedKind::General { start, end } => pairs.extend(
                factors[start as usize..end as usize]
                    .iter()
                    .map(|&(i, _)| (i, t)),
            ),
        }
    }
    // Terms were visited in ascending order and the sort is stable, so
    // each item's run comes out ascending by term id.
    pairs.sort_by_key(|&(i, _)| i);
    let mut index_items: Vec<u32> = Vec::new();
    let mut index_starts: Vec<u32> = Vec::new();
    let mut index_terms: Vec<u32> = Vec::with_capacity(pairs.len());
    for &(i, t) in &pairs {
        if index_items.last() != Some(&i) {
            index_items.push(i);
            index_starts.push(index_terms.len() as u32);
        }
        index_terms.push(t);
    }
    index_starts.push(index_terms.len() as u32);
    (index_items, index_starts, index_terms)
}

/// Partitioner load estimates for a book under shared evaluation: a
/// query's marginal cost is the distinct monomials it is **first** to
/// introduce (in book order — one kernel evaluation each per delta)
/// plus a small scatter cost (`0.25`) per subscription (one fused
/// multiply-add on the scatter). An `items per query` proxy
/// over-charges overlapping books, which is exactly what a
/// shared-aware partitioner must not do.
pub fn shared_query_loads<'a>(polys: impl IntoIterator<Item = &'a Polynomial>) -> Vec<f64> {
    let mut seen: HashMap<TermKey, ()> = HashMap::new();
    polys
        .into_iter()
        .map(|p| {
            let mut new_terms = 0usize;
            let mut subs = 0usize;
            for t in p.terms() {
                if t.vars().is_empty() {
                    continue;
                }
                subs += 1;
                let key: TermKey = t.vars().iter().map(|&(i, e)| (i.0, e)).collect();
                if seen.insert(key, ()).is_none() {
                    new_terms += 1;
                }
            }
            new_terms as f64 + SUB_LOAD * subs as f64
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::polynomial::PTerm;

    fn x(i: u32) -> ItemId {
        ItemId(i)
    }

    /// Three queries sharing the x0*x1 leg, plus shapes of every kind.
    fn book() -> Vec<Polynomial> {
        vec![
            // q0 = 2 x0 x1 + 3 x2 + 7
            Polynomial::from_terms([
                PTerm::new(2.0, [(x(0), 1), (x(1), 1)]).unwrap(),
                PTerm::new(3.0, [(x(2), 1)]).unwrap(),
                PTerm::constant(7.0).unwrap(),
            ]),
            // q1 = -1 x0 x1 + 4 x1^2
            Polynomial::from_terms([
                PTerm::new(-1.0, [(x(0), 1), (x(1), 1)]).unwrap(),
                PTerm::new(4.0, [(x(1), 2)]).unwrap(),
            ]),
            // q2 = 5 x0 x1 + 0.5 x1 x2^3
            Polynomial::from_terms([
                PTerm::new(5.0, [(x(0), 1), (x(1), 1)]).unwrap(),
                PTerm::new(0.5, [(x(1), 1), (x(2), 3)]).unwrap(),
            ]),
        ]
    }

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() <= 1e-9 * (1.0 + b.abs())
    }

    #[test]
    fn cse_dedupes_across_queries() {
        let book = book();
        let plan = SharedPlan::compile(book.iter());
        // Distinct: x0x1, x1^2, x2, x1*x2^3 — x0x1 shared three ways.
        assert_eq!(plan.n_terms(), 4);
        assert_eq!(plan.scatter_fanout(), 6);
        assert_eq!(plan.n_queries(), 3);
        assert_eq!(plan.live_queries(), 3);
        assert_eq!(plan.degree(), 4);
        assert_eq!(plan.n_values(), 3);
    }

    #[test]
    fn full_eval_tracks_naive_evaluation() {
        let book = book();
        let plan = SharedPlan::compile(book.iter());
        let values = [3.0, 4.0, 5.0];
        let mut scratch = Vec::new();
        let mut qv = Vec::new();
        plan.full_eval_into(&values, &mut scratch, &mut qv);
        for (qi, p) in book.iter().enumerate() {
            assert!(close(qv[qi], p.eval(&values)), "q{qi}");
        }
    }

    #[test]
    fn compile_is_invariant_under_book_permutation() {
        let book = book();
        let plan = SharedPlan::compile(book.iter());
        let permuted: Vec<&Polynomial> = vec![&book[2], &book[0], &book[1]];
        let plan_p = SharedPlan::compile(permuted.iter().copied());
        let values = [3.0, 4.0, 5.0];
        let (mut s1, mut s2) = (Vec::new(), Vec::new());
        let (mut v1, mut v2) = (Vec::new(), Vec::new());
        plan.full_eval_into(&values, &mut s1, &mut v1);
        plan_p.full_eval_into(&values, &mut s2, &mut v2);
        // Same canonical distinct set, bit-identical monomial values...
        assert_eq!(s1, s2);
        // ...and bit-identical per-query values modulo the permutation.
        assert_eq!(v1[0].to_bits(), v2[1].to_bits());
        assert_eq!(v1[1].to_bits(), v2[2].to_bits());
        assert_eq!(v1[2].to_bits(), v2[0].to_bits());
    }

    #[test]
    fn delta_scatter_tracks_naive_evaluation() {
        let book = book();
        let plan = SharedPlan::compile(book.iter());
        let mut values = vec![3.0, 4.0, 5.0];
        let mut scratch = Vec::new();
        let mut qv = Vec::new();
        plan.full_eval_into(&values, &mut scratch, &mut qv);
        for (item, new) in [(0usize, 3.5), (1, -2.0), (2, 0.25), (1, 10.0), (0, 0.0)] {
            let old = values[item];
            plan.delta_scatter(&values, x(item as u32), old, new, &mut qv);
            values[item] = new;
            for (qi, p) in book.iter().enumerate() {
                let full = p.eval(&values);
                assert!(close(qv[qi], full), "q{qi}: {} vs {full}", qv[qi]);
            }
        }
    }

    #[test]
    fn noop_and_foreign_moves_cost_nothing() {
        let plan = SharedPlan::compile(book().iter());
        let values = [3.0, 4.0, 5.0];
        let mut qv = vec![0.0; 3];
        assert_eq!(plan.delta_scatter(&values, x(0), 3.0, 3.0, &mut qv), 0);
        assert_eq!(plan.delta_scatter(&values, x(9), 1.0, 2.0, &mut qv), 0);
        assert_eq!(qv, vec![0.0; 3]);
        assert_eq!(plan.delta_cost(x(9)), 0);
        assert_eq!(plan.delta_cost(x(0)), 1);
        assert_eq!(plan.delta_cost(x(1)), 3);
    }

    #[test]
    fn admit_shares_existing_monomials() {
        let book = book();
        let mut plan = SharedPlan::compile(book.iter());
        // New query reusing x0x1 and introducing x0^2.
        let q3 = Polynomial::from_terms([
            PTerm::new(3.0, [(x(0), 1), (x(1), 1)]).unwrap(),
            PTerm::new(1.0, [(x(0), 2)]).unwrap(),
        ]);
        let slot = plan.admit(&q3);
        assert_eq!(slot, 3);
        assert_eq!(plan.n_terms(), 5, "only x0^2 is new");
        assert_eq!(plan.scatter_fanout(), 8);

        let mut values = vec![3.0, 4.0, 5.0];
        let mut scratch = Vec::new();
        let mut qv = Vec::new();
        plan.full_eval_into(&values, &mut scratch, &mut qv);
        assert!(close(qv[3], q3.eval(&values)));
        // Deltas dispatch through the overlay to the admitted query.
        let old = values[0];
        plan.delta_scatter(&values, x(0), old, 6.0, &mut qv);
        values[0] = 6.0;
        assert!(close(qv[3], q3.eval(&values)));
    }

    #[test]
    fn retire_tombstones_and_reuses_slots() {
        let book = book();
        let mut plan = SharedPlan::compile(book.iter());
        assert!(plan.retire(1));
        assert!(!plan.retire(1), "double retire is a no-op");
        assert_eq!(plan.live_queries(), 2);
        assert_eq!(plan.scatter_fanout(), 4);

        let mut values = vec![3.0, 4.0, 5.0];
        let mut scratch = Vec::new();
        let mut qv = Vec::new();
        plan.full_eval_into(&values, &mut scratch, &mut qv);
        assert_eq!(qv[1], 0.0, "retired slot evaluates to zero");
        let old = values[1];
        plan.delta_scatter(&values, x(1), old, 7.0, &mut qv);
        values[1] = 7.0;
        assert_eq!(qv[1], 0.0, "tombstoned subscriptions receive no deltas");
        assert!(close(qv[0], book[0].eval(&values)));
        assert!(close(qv[2], book[2].eval(&values)));

        // The freed slot is reused by the next admission.
        let q = Polynomial::term(PTerm::new(1.0, [(x(2), 1)]).unwrap());
        assert_eq!(plan.admit(&q), 1);
        assert_eq!(plan.n_queries(), 3);
    }

    #[test]
    fn compaction_preserves_values_and_term_ids() {
        let book = book();
        let mut plan = SharedPlan::compile(book.iter());
        let q3 = Polynomial::from_terms([
            PTerm::new(3.0, [(x(0), 1), (x(1), 1)]).unwrap(),
            PTerm::new(1.0, [(x(3), 1)]).unwrap(),
        ]);
        plan.admit(&q3);
        plan.retire(0);
        let values = [3.0, 4.0, 5.0, 6.0];
        let (mut s1, mut v1) = (Vec::new(), Vec::new());
        plan.full_eval_into(&values, &mut s1, &mut v1);
        let n_terms = plan.n_terms();

        plan.compact();
        assert_eq!(plan.n_terms(), n_terms, "term ids stable");
        let (mut s2, mut v2) = (Vec::new(), Vec::new());
        plan.full_eval_into(&values, &mut s2, &mut v2);
        assert_eq!(s1, s2);
        for (a, b) in v1.iter().zip(&v2) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        // Delta dispatch now runs through the rebuilt flat CSR.
        let mut values = values.to_vec();
        let old = values[3];
        plan.delta_scatter(&values, x(3), old, 9.0, &mut v2);
        values[3] = 9.0;
        assert!(close(v2[3], q3.eval(&values)));
    }

    #[test]
    fn churn_reaches_the_same_values_as_a_fresh_compile() {
        let book = book();
        let mut plan = SharedPlan::compile(book.iter());
        let q3 = Polynomial::from_terms([
            PTerm::new(3.0, [(x(0), 1), (x(1), 1)]).unwrap(),
            PTerm::new(-2.0, [(x(2), 2)]).unwrap(),
        ]);
        plan.admit(&q3);
        plan.retire(1);

        // Fresh compile of the surviving book (q0, q2, q3).
        let fresh = SharedPlan::compile([&book[0], &book[2], &q3]);
        let values = [1.5, -2.5, 4.0];
        let (mut s, mut fresh_qv) = (Vec::new(), Vec::new());
        fresh.full_eval_into(&values, &mut s, &mut fresh_qv);
        let (mut s2, mut churn_qv) = (Vec::new(), Vec::new());
        plan.full_eval_into(&values, &mut s2, &mut churn_qv);
        // Churned slots: q0->0, q2->2, q3->3; fresh: 0,1,2.
        assert_eq!(churn_qv[0].to_bits(), fresh_qv[0].to_bits());
        assert_eq!(churn_qv[2].to_bits(), fresh_qv[1].to_bits());
        assert_eq!(churn_qv[3].to_bits(), fresh_qv[2].to_bits());
    }

    #[test]
    fn bytes_grow_sublinearly_on_overlapping_books() {
        // Books of 4-leg queries: `overlapping` draws every query's legs
        // from the same 4 monomials, `disjoint` gives each query 4 legs
        // of its own. The plan stores a shared monomial once and every
        // further subscriber adds only its scatter entries; a book with
        // nothing to share pays for terms, keys and index per query.
        let book = |n: u32, stride: u32| -> Vec<Polynomial> {
            (0..n)
                .map(|k| {
                    Polynomial::from_terms((0..4).map(|l| {
                        let leg = 200 + 8 * k * stride + l;
                        PTerm::new(1.0 + k as f64, [(x(leg), 1), (x(leg + 4), 1)]).unwrap()
                    }))
                })
                .collect()
        };
        let bytes = |n: u32, stride: u32| SharedPlan::compile(book(n, stride).iter()).bytes();
        assert_eq!(SharedPlan::compile(book(128, 0).iter()).n_terms(), 4);
        assert_eq!(SharedPlan::compile(book(128, 1).iter()).n_terms(), 512);
        assert!(bytes(128, 0) < bytes(128, 1));
        let overlapping_growth = bytes(128, 0) - bytes(64, 0);
        let disjoint_growth = bytes(128, 1) - bytes(64, 1);
        assert!(
            overlapping_growth * 2 < disjoint_growth,
            "64 more queries cost {overlapping_growth} B sharing their legs \
             vs {disjoint_growth} B not sharing them"
        );
    }

    #[test]
    fn ids_outside_the_book_dispatch_to_nothing() {
        // Items {5, 9, 4_000_000}: ids below, between and above them are
        // foreign, as is everything past the largest.
        let near = PTerm::new(2.0, [(x(5), 1), (x(9), 1)]).unwrap();
        let far = PTerm::new(-1.0, [(x(4_000_000), 2)]).unwrap();
        let plan = SharedPlan::compile([&Polynomial::from_terms([near.clone(), far])]);
        for own in [5, 9, 4_000_000] {
            assert_eq!(plan.delta_cost(x(own)), 1, "x{own}");
        }
        for foreign in [0, 4, 6, 8, 10, 3_999_999, 4_000_001, u32::MAX] {
            assert_eq!(plan.delta_cost(x(foreign)), 0, "x{foreign}");
        }
        // And a move of one scatters nothing, wherever it sits.
        let plan = SharedPlan::compile([&Polynomial::term(near)]);
        let values = [1.0; 12];
        let mut qv = vec![0.0];
        for foreign in [0, 4, 6, 8, 10, 11, 12, u32::MAX] {
            assert_eq!(
                plan.delta_scatter(&values, x(foreign), 1.0, 2.0, &mut qv),
                0
            );
        }
        assert_eq!(qv, vec![0.0]);
        assert_eq!(plan.delta_scatter(&values, x(9), 1.0, 2.0, &mut qv), 1);
        assert_eq!(qv, vec![2.0]);
    }

    #[test]
    fn bytes_do_not_depend_on_where_the_ids_sit() {
        let leg = |i, j| Polynomial::term(PTerm::new(1.5, [(x(i), 1), (x(j), 1)]).unwrap());
        let low = SharedPlan::compile([&leg(0, 1)]);
        let high = SharedPlan::compile([&leg(5, 4_000_000)]);
        assert_eq!(low.bytes(), high.bytes());
        assert_eq!(high.n_values(), 4_000_001);
        // Admitting a far-away item and compacting keeps it that way.
        let (mut low, mut high) = (low, high);
        low.admit(&leg(2, 3));
        high.admit(&leg(7, 3_000_000));
        low.compact();
        high.compact();
        assert_eq!(low.bytes(), high.bytes());
    }

    #[test]
    fn view_tracks_full_reevaluation() {
        let book = book();
        let plan = SharedPlan::compile(&book);
        let mut values = vec![3.0, 4.0, 5.0];
        let mut view = SharedView::new(&plan, &values);
        assert_eq!(view.values(), &[46.0, 52.0, 310.0]);

        for (item, new) in [(0usize, 3.5), (1, -2.0), (2, 0.25), (1, 10.0)] {
            let old = values[item];
            view.apply(&plan, &values, item, old, new);
            values[item] = new;
            for (qi, poly) in book.iter().enumerate() {
                let full = poly.eval(&values);
                assert!(
                    close(view.value(qi), full),
                    "q{qi}: {} vs {full}",
                    view.value(qi)
                );
            }
        }
        assert_eq!(view.apply(&plan, &values, 0, 3.5, 3.5), 0, "a no-op move");
    }

    #[test]
    fn view_apply_batch_matches_sequential_applies() {
        let plan = SharedPlan::compile(&book());
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
    fn view_rebase_restores_plan_exact_values() {
        let plan = SharedPlan::compile(&book());
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
        let (mut scratch, mut qv) = (Vec::new(), Vec::new());
        plan.full_eval_into(&values, &mut scratch, &mut qv);
        assert_eq!(view.values(), qv.as_slice());
    }

    #[test]
    fn shared_loads_charge_first_introduction() {
        let book = book();
        let loads = shared_query_loads(book.iter());
        // q0 introduces x0x1 and x2 (2 terms, 2 subs); q1 introduces
        // x1^2 (1 of 2); q2 introduces x1x2^3 (1 of 2).
        assert_eq!(loads, vec![2.5, 1.5, 1.5]);
    }

    #[test]
    fn empty_book_compiles() {
        let plan = SharedPlan::compile(std::iter::empty());
        assert_eq!(plan.n_terms(), 0);
        assert_eq!(plan.n_queries(), 0);
        assert!(plan.bytes() > 0);
        let mut qv: Vec<f64> = Vec::new();
        assert_eq!(plan.delta_scatter(&[], x(0), 1.0, 2.0, &mut qv), 0);
    }
}
