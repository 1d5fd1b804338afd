//! Cross-query shared-term evaluation: one compiled plan per query *book*.
//!
//! The paper's workloads overlap heavily in monomials — the same
//! portfolio leg `x_i·x_j` appears in many queries — so compiling and
//! delta-maintaining every query on its own makes memory and
//! per-refresh work scale with *total* terms rather than *distinct*
//! terms. A [`SharedPlan`] applies DBToaster's higher-order-delta idea
//! at the query-set level: maintain each distinct monomial once and
//! scatter its delta to every subscribing query with one multiply and
//! one add per subscription (`qv[q] += c · d`, two roundings, never a
//! fused `mul_add`: the floating-point contract below is stated in
//! those roundings). A [`SharedView`] holds the query values a plan
//! maintains.
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
//!    with per-subscription coefficients. Each index entry carries the
//!    term's delta kernel *for that item*: a bilinear term stores its
//!    other factor, so a move's delta is `new·x_o − old·x_o` without
//!    dispatching on the term's kind or asking which factor moved;
//!    linear, square and general terms store a tag. An item finds its
//!    row at `k = item` when the index's items are exactly `0..n` and
//!    by binary search otherwise.
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

/// How a move `old -> new` of one item changes a term containing it
/// (coefficient-free), compiled into that item's index entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Delta {
    /// `x · x_other`: `new·x_o − old·x_o`, which rounds as the
    /// bilinear term at either value does (IEEE products commute).
    Bilinear { other: u32 },
    /// `x`: `new − old`.
    Linear,
    /// `x^2`: `new·new − old·old`.
    Square,
    /// Any other term: its value at `new` minus its value at `old`.
    General,
}

/// One item → term index entry: a term containing the item, and the
/// term's delta kernel for that item.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Entry {
    term: u32,
    delta: Delta,
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
    /// `index_entries[index_starts[k]..index_starts[k+1]]` are the terms
    /// containing item `index_items[k]`, ascending, each with its delta
    /// kernel (the universe as of the last compile or compaction;
    /// admitted terms live in the overlay until the next one).
    index_starts: Vec<u32>,
    index_entries: Vec<Entry>,
    /// Admission overlay of the item → term index; empty except between
    /// the admission of a new monomial and the next compaction. Its
    /// terms all follow the flat index's.
    index_overlay: HashMap<u32, Vec<Entry>>,

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
    /// Live subscriptions per term (flat + overlay), for the fan-out
    /// and [`SharedPlan::delta_cost`]; the scatter does not read it (a
    /// retired term's row holds only tombstones).
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
        let (index_items, index_starts, index_entries) = build_item_index(&kinds, &factors);

        SharedPlan {
            kinds,
            factors,
            key_index,
            index_items,
            index_starts,
            index_entries,
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
            .map(|v| v.len() * size_of::<Entry>() + map_entry)
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
            + (self.index_items.len() + self.index_starts.len()) * size_of::<u32>()
            + self.index_entries.len() * size_of::<Entry>()
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
    /// evaluation at the respective inputs would: the delta of a
    /// [`Delta::General`] entry.
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
    /// distinct monomial containing the item, the coefficient-free
    /// delta `m(new) - m(old)` is computed **once**, by the kernel its
    /// index entry carries, and applied as `qv[q] += c_q · d` per live
    /// subscription, terms ascending. `values[item]` itself is ignored
    /// (the explicit `old`/`new` take its place). Returns the scatter
    /// fan-out (query values updated).
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
        let overlaid = !self.sub_overlay.is_empty();
        let mut fanout = 0u64;
        for entry in self.flat_entries(i).iter().chain(self.overlay_entries(i)) {
            let t = entry.term as usize;
            let d = match entry.delta {
                Delta::Bilinear { other } => {
                    let x = values[other as usize];
                    new * x - old * x
                }
                Delta::Linear => new - old,
                Delta::Square => new * new - old * old,
                Delta::General => {
                    self.term_value_with(t, values, i, new)
                        - self.term_value_with(t, values, i, old)
                }
            };
            let row = self.sub_starts[t] as usize..self.sub_starts[t + 1] as usize;
            for (&q, &c) in self.sub_query[row.clone()].iter().zip(&self.sub_coef[row]) {
                if q == DEAD {
                    continue;
                }
                qv[q as usize] += c * d;
                fanout += 1;
            }
            if overlaid && self.term_overlaid[t] {
                if let Some(subs) = self.sub_overlay.get(&entry.term) {
                    for &(q, c) in subs {
                        qv[q as usize] += c * d;
                        fanout += 1;
                    }
                }
            }
        }
        fanout
    }

    /// The flat index's entries for `item` (ascending by term; empty for
    /// an item the index does not cover). Ascending distinct items whose
    /// last is `n − 1` are exactly `0..n`, so item `i` sits in row `i`
    /// (every projected engine; a Monitor book whose items are all
    /// read); any other index is binary-searched. One test per plan, not
    /// per item: probing `index_items[i] == i` first cost a scattered
    /// book's foreign moves ≈ 13 ns each.
    #[inline]
    fn flat_entries(&self, item: u32) -> &[Entry] {
        let n = self.index_items.len();
        let dense = self
            .index_items
            .last()
            .is_some_and(|&l| l as usize + 1 == n);
        let k = if dense {
            if item as usize >= n {
                return &[];
            }
            item as usize
        } else {
            match self.index_items.binary_search(&item) {
                Ok(k) => k,
                Err(_) => return &[],
            }
        };
        &self.index_entries[self.index_starts[k] as usize..self.index_starts[k + 1] as usize]
    }

    /// Entries for `item` whose terms were admitted since the last
    /// compaction.
    #[inline]
    fn overlay_entries(&self, item: u32) -> &[Entry] {
        if self.index_overlay.is_empty() {
            return &[];
        }
        self.index_overlay.get(&item).map_or(&[], Vec::as_slice)
    }

    /// Live distinct monomials a change to `item` dispatches to — the
    /// work metric behind the `O(affected terms)` claim.
    pub fn delta_cost(&self, item: ItemId) -> usize {
        self.flat_entries(item.0)
            .iter()
            .chain(self.overlay_entries(item.0))
            .filter(|e| self.sub_live[e.term as usize] > 0)
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
                    let kind = classify(&key, &mut self.factors);
                    self.kinds.push(kind);
                    self.degree = self.degree.max(key.iter().map(|&(_, e)| e).sum());
                    for &(i, _) in &key {
                        self.n_values = self.n_values.max(i as usize + 1);
                    }
                    emit_entries(kind, &self.factors, t, |i, entry| {
                        self.index_overlay.entry(i).or_default().push(entry)
                    });
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

        (self.index_items, self.index_starts, self.index_entries) =
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

/// Emits `(item, entry)` for every item term `t` (of kind `kind`)
/// contains, each entry with the term's delta kernel for that item.
fn emit_entries(
    kind: SharedKind,
    factors: &[(u32, u32)],
    t: u32,
    mut emit: impl FnMut(u32, Entry),
) {
    let entry = |delta| Entry { term: t, delta };
    match kind {
        SharedKind::Linear { i } => emit(i, entry(Delta::Linear)),
        SharedKind::Square { i } => emit(i, entry(Delta::Square)),
        SharedKind::Bilinear { i, j } => {
            emit(i, entry(Delta::Bilinear { other: j }));
            emit(j, entry(Delta::Bilinear { other: i }));
        }
        SharedKind::General { start, end } => {
            for &(i, _) in &factors[start as usize..end as usize] {
                emit(i, entry(Delta::General));
            }
        }
    }
}

/// Builds the item → term index: the distinct items ascending, CSR
/// offsets over them, and each item's entries ascending by term.
fn build_item_index(
    kinds: &[SharedKind],
    factors: &[(u32, u32)],
) -> (Vec<u32>, Vec<u32>, Vec<Entry>) {
    let mut pairs: Vec<(u32, Entry)> = Vec::new();
    for (t, &kind) in kinds.iter().enumerate() {
        emit_entries(kind, factors, t as u32, |i, entry| pairs.push((i, entry)));
    }
    // Terms were visited in ascending order and the sort is stable, so
    // each item's run comes out ascending by term id.
    pairs.sort_by_key(|&(i, _)| i);
    let mut index_items: Vec<u32> = Vec::new();
    let mut index_starts: Vec<u32> = Vec::new();
    let mut index_entries: Vec<Entry> = Vec::with_capacity(pairs.len());
    for &(i, entry) in &pairs {
        if index_items.last() != Some(&i) {
            index_items.push(i);
            index_starts.push(index_entries.len() as u32);
        }
        index_entries.push(entry);
    }
    index_starts.push(index_entries.len() as u32);
    (index_items, index_starts, index_entries)
}

#[cfg(test)]
impl SharedPlan {
    /// Whether term `t` reads `item`.
    fn term_reads(&self, t: usize, item: u32) -> bool {
        match self.kinds[t] {
            SharedKind::Linear { i } | SharedKind::Square { i } => i == item,
            SharedKind::Bilinear { i, j } => i == item || j == item,
            SharedKind::General { start, end } => self.factors[start as usize..end as usize]
                .iter()
                .any(|&(i, _)| i == item),
        }
    }

    /// The term-major reference for [`SharedPlan::delta_scatter`]: scan
    /// every term, and for each live one reading `item` take both
    /// values through [`SharedPlan::term_value_with`] and add `c · d`
    /// over the flat row, then the overlay. Terms ascend, which is the
    /// flat index's order followed by the overlay's.
    fn delta_scatter_reference(
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
        let i = item.0;
        let mut fanout = 0u64;
        for t in 0..self.n_terms() {
            if self.sub_live[t] == 0 || !self.term_reads(t, i) {
                continue;
            }
            let d =
                self.term_value_with(t, values, i, new) - self.term_value_with(t, values, i, old);
            for k in self.sub_starts[t] as usize..self.sub_starts[t + 1] as usize {
                let q = self.sub_query[k];
                if q != DEAD {
                    qv[q as usize] += self.sub_coef[k] * d;
                    fanout += 1;
                }
            }
            for &(q, c) in self
                .sub_overlay
                .get(&(t as u32))
                .map_or(&[][..], Vec::as_slice)
            {
                qv[q as usize] += c * d;
                fanout += 1;
            }
        }
        fanout
    }

    /// The term-major reference for [`SharedPlan::delta_cost`].
    fn delta_cost_reference(&self, item: ItemId) -> usize {
        (0..self.n_terms())
            .filter(|&t| self.sub_live[t] > 0 && self.term_reads(t, item.0))
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::polynomial::PTerm;
    use proptest::prelude::*;

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

    /// Items a kernel-oracle book reads, as slots into an id layout.
    const KERNEL_ITEMS: u32 = 8;

    /// A term of any kind over item slots `< KERNEL_ITEMS`: linear,
    /// square, bilinear, or a degree-3+ general term (a cube, a
    /// square-times-linear, or a triple product; a repeated slot merges
    /// into a higher power).
    fn arb_kernel_term() -> impl Strategy<Value = (f64, Vec<(u32, u32)>)> {
        let slot = 0..KERNEL_ITEMS;
        let coef = (-8.0f64..8.0).prop_filter("nonzero", |c| c.abs() > 1e-3);
        (coef, 0u32..6, slot.clone(), slot.clone(), slot).prop_map(|(c, shape, i, j, k)| {
            let vars = match shape {
                0 => vec![(i, 1)],
                1 => vec![(i, 2)],
                2 => vec![(i, 1), (j, 1)],
                3 => vec![(i, 3)],
                4 => vec![(i, 2), (j, 1)],
                _ => vec![(i, 1), (j, 1), (k, 1)],
            };
            (c, vars)
        })
    }

    fn arb_kernel_query() -> impl Strategy<Value = Vec<(f64, Vec<(u32, u32)>)>> {
        proptest::collection::vec(arb_kernel_term(), 1..6)
    }

    /// One step of a kernel-oracle walk.
    #[derive(Debug, Clone)]
    enum KernelOp {
        /// Move the item in slot `slot` (past the book's slots: a
        /// foreign id) to `new`; `None` keeps the old value.
        Move {
            slot: u32,
            new: Option<f64>,
        },
        Admit(Vec<(f64, Vec<(u32, u32)>)>),
        Retire(u32),
        Compact,
    }

    /// Moves two thirds of the time (a quarter of them no-ops, a
    /// quarter to zero), then admissions, retirements and compactions.
    fn arb_kernel_op() -> impl Strategy<Value = KernelOp> {
        (
            0u32..12,
            0..KERNEL_ITEMS + 2,
            0u32..4,
            -5.0f64..5.0,
            arb_kernel_query(),
        )
            .prop_map(|(op, slot, how, v, query)| match op {
                0..=7 => KernelOp::Move {
                    slot,
                    new: match how {
                        0 => None,
                        1 => Some(0.0),
                        _ => Some(v),
                    },
                },
                8 | 9 => KernelOp::Admit(query),
                10 => KernelOp::Retire(slot),
                _ => KernelOp::Compact,
            })
    }

    proptest! {
        /// `delta_scatter`'s compiled kernels add the very bits the
        /// term-major reference adds, on dense ids (the `k = item`
        /// probe) and scattered ones (the binary search), through the
        /// admission overlay, tombstones and the index `compact`
        /// rebuilds; a move to or from zero, a no-op and a foreign item
        /// included. `delta_cost` counts what the reference counts.
        #[test]
        fn kernel_scatter_matches_the_term_major_reference_bit_for_bit(
            book in proptest::collection::vec(arb_kernel_query(), 1..6),
            ops in proptest::collection::vec(arb_kernel_op(), 1..48),
            start in proptest::collection::vec(-5.0f64..5.0, KERNEL_ITEMS as usize),
            layout in 0u32..2,
        ) {
            // Slot `s` is item `s`, or item `3 + 37·s` with gaps between;
            // the two slots past the book's are foreign ids.
            let id = |s: u32| if layout == 1 { 3 + 37 * s } else { s };
            let poly = |q: &[(f64, Vec<(u32, u32)>)]| {
                Polynomial::from_terms(q.iter().map(|(c, vars)| {
                    PTerm::new(*c, vars.iter().map(|&(s, e)| (x(id(s)), e))).unwrap()
                }))
            };
            // One query reads every slot, so the dense layout's index is
            // `0..KERNEL_ITEMS` (rows found at `k = item`) until churn
            // retires it; the scattered one is binary-searched.
            let every_slot: Vec<(f64, Vec<(u32, u32)>)> =
                (0..KERNEL_ITEMS).map(|s| (1.5, vec![(s, 1)])).collect();
            let book: Vec<Polynomial> =
                std::iter::once(&every_slot).chain(&book).map(|q| poly(q)).collect();
            let mut plan = SharedPlan::compile(book.iter());
            let mut values = vec![0.0; id(KERNEL_ITEMS + 2) as usize];
            for (s, v) in start.iter().enumerate() {
                values[id(s as u32) as usize] = *v;
            }
            let mut scratch = Vec::new();
            let mut kernel = Vec::new();
            plan.full_eval_into(&values, &mut scratch, &mut kernel);
            let mut reference = kernel.clone();
            for op in ops {
                match op {
                    KernelOp::Move { slot, new } => {
                        let item = id(slot);
                        let old = values[item as usize];
                        let new = new.unwrap_or(old);
                        let got = plan.delta_scatter(&values, x(item), old, new, &mut kernel);
                        let want =
                            plan.delta_scatter_reference(&values, x(item), old, new, &mut reference);
                        values[item as usize] = new;
                        prop_assert_eq!(got, want, "fan-out of x{}", item);
                        prop_assert_eq!(plan.delta_cost(x(item)), plan.delta_cost_reference(x(item)));
                        for (q, (a, b)) in kernel.iter().zip(&reference).enumerate() {
                            prop_assert_eq!(a.to_bits(), b.to_bits(), "q{}: {} vs {}", q, a, b);
                        }
                        continue;
                    }
                    KernelOp::Admit(q) => {
                        plan.admit(&poly(&q));
                    }
                    KernelOp::Retire(slot) => {
                        plan.retire(slot);
                    }
                    KernelOp::Compact => plan.compact(),
                }
                // Churn re-seeds both walks from one full evaluation.
                plan.full_eval_into(&values, &mut scratch, &mut kernel);
                reference.clone_from(&kernel);
            }
        }
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
