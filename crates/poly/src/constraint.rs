//! Symbolic construction of DAB constraints as GP posynomials.
//!
//! For a positive-coefficient polynomial `P` with current values `V`, the
//! necessary-and-sufficient condition for primary DABs `b` to keep the query
//! within its QAB over the validity range defined by secondary DABs `c`
//! (§III-A.2, Eq. 2) is
//!
//! ```text
//! P(V + c + b) - P(V + c)  <=  B
//! ```
//!
//! (the all-upward corner is the worst case for a PPQ over positive data:
//! every term of the deviation expansion is nonnegative and increasing in
//! each displacement). With `c = 0` this is Eq. 1, the Optimal Refresh
//! condition of §III-A.1.
//!
//! The same monotonicity is why a coordinator keeps a Dual-DAB unit valid
//! over every fall to 0: the condition at `V + c` covers each value of
//! magnitude at most `V + c`, so pq-core's validity range (`RangeKind::accepted`
//! in `crates/core/src/assignment.rs`, argued in DESIGN.md §10, "Validity
//! invariant") is one-sided.
//!
//! This module expands the left-hand side *exactly* by multinomial
//! expansion — every surviving term contains at least one factor of `b`
//! and has a positive coefficient, so the result is a posynomial in the
//! GP variables `(b, c)` suitable for [`pq_gp`].

use std::cell::RefCell;
use std::ops::Range;
use std::sync::Arc;

use crate::error::PolyError;
use crate::item::ItemId;
use crate::polynomial::Polynomial;
use pq_gp::{Monomial, Posynomial};

/// Maps an item to the GP variable index of its primary DAB `b` and
/// (optionally) its secondary DAB `c`.
///
/// Implementations decide the layout: a single-query layout packs `b`s then
/// `c`s; the AAO multi-query layout shares `b`s across queries but gives
/// each `<query, item>` pair its own `c` (§IV).
pub trait DabVarIndexer {
    /// GP variable index of `b_item`.
    fn primary(&self, item: ItemId) -> usize;
    /// GP variable index of `c_item`, or `None` for single-DAB
    /// (Optimal Refresh) formulations.
    fn secondary(&self, item: ItemId) -> Option<usize>;
}

/// The standard single-query layout: for `items[k]`, `b` is variable `k`
/// and (if enabled) `c` is variable `n + k`; callers may append further
/// variables (such as the recomputation rate `R`) from index
/// [`DabVarMap::n_vars`] upward.
#[derive(Debug, Clone)]
pub struct DabVarMap {
    items: Vec<ItemId>,
    with_secondary: bool,
}

impl DabVarMap {
    /// Builds a layout over the given items (deduplicated, sorted).
    pub fn new(mut items: Vec<ItemId>, with_secondary: bool) -> Self {
        items.sort();
        items.dedup();
        DabVarMap {
            items,
            with_secondary,
        }
    }

    /// Layout over all items of a polynomial.
    pub fn for_polynomial(poly: &Polynomial, with_secondary: bool) -> Self {
        DabVarMap::new(poly.items(), with_secondary)
    }

    /// The items covered, in variable order.
    pub fn items(&self) -> &[ItemId] {
        &self.items
    }

    /// Number of items `n`.
    pub fn n_items(&self) -> usize {
        self.items.len()
    }

    /// Total GP variables used by this layout (`n` or `2n`).
    pub fn n_vars(&self) -> usize {
        if self.with_secondary {
            2 * self.items.len()
        } else {
            self.items.len()
        }
    }

    fn position(&self, item: ItemId) -> usize {
        self.items
            .binary_search(&item)
            .expect("item not covered by DabVarMap")
    }
}

impl DabVarIndexer for DabVarMap {
    fn primary(&self, item: ItemId) -> usize {
        self.position(item)
    }

    fn secondary(&self, item: ItemId) -> Option<usize> {
        self.with_secondary
            .then(|| self.items.len() + self.position(item))
    }
}

/// Items whose *secondary* DAB genuinely affects the deviation condition:
/// those occurring in some term with exponent >= 2 or together with other
/// items. An item appearing only linearly (alone, exponent 1) contributes
/// the value-independent deviation `w * b` — its reference value can never
/// invalidate an assignment, so it needs no secondary DAB and no
/// recomputation coupling (the same observation that makes LAQs easy;
/// paper footnote 2). Leaving such a `c` variable in the GP makes the
/// barrier unbounded along it.
pub fn coupled_items(poly: &Polynomial) -> Vec<ItemId> {
    let coupled = || poly.terms().iter().filter(|t| t.degree() >= 2);
    let mut v = Vec::with_capacity(coupled().map(|t| t.vars().len()).sum());
    v.extend(coupled().flat_map(|t| t.vars().iter().map(|&(i, _)| i)));
    v.sort();
    v.dedup();
    v
}

/// Variable layout with secondary DABs only for [`coupled_items`]:
/// primary `b` for `items[k]` at index `k`; secondary `c` for the `j`-th
/// coupled item at index `n + j`; callers append extra variables (such as
/// `R`) from [`PartialDabVarMap::n_vars`] upward.
#[derive(Debug, Clone)]
pub struct PartialDabVarMap {
    items: Vec<ItemId>,
    coupled: Vec<ItemId>,
}

impl PartialDabVarMap {
    /// Builds the layout for a polynomial.
    pub fn for_polynomial(poly: &Polynomial) -> Self {
        PartialDabVarMap {
            items: poly.items(),
            coupled: coupled_items(poly),
        }
    }

    /// All items, in primary-variable order.
    pub fn items(&self) -> &[ItemId] {
        &self.items
    }

    /// The coupled items, in secondary-variable order.
    pub fn coupled(&self) -> &[ItemId] {
        &self.coupled
    }

    /// Number of items `n`.
    pub fn n_items(&self) -> usize {
        self.items.len()
    }

    /// Total GP variables used by this layout (`n + #coupled`).
    pub fn n_vars(&self) -> usize {
        self.items.len() + self.coupled.len()
    }
}

impl DabVarIndexer for PartialDabVarMap {
    fn primary(&self, item: ItemId) -> usize {
        self.items
            .binary_search(&item)
            .expect("item not covered by PartialDabVarMap")
    }

    fn secondary(&self, item: ItemId) -> Option<usize> {
        self.coupled
            .binary_search(&item)
            .ok()
            .map(|j| self.items.len() + j)
    }
}

/// The deviation `P(V + c + b) - P(V + c)` expanded symbolically: which
/// monomials over the GP variables it has, and each one's coefficient as
/// a sum of contributions `weight * prod_i mult_i * V_i^k_i` of the
/// current values `V`.
///
/// The structure depends only on the polynomial and the variable layout,
/// so it is compiled once; [`DeviationMap::eval_into`] then turns values
/// into coefficients without touching a [`Posynomial`]. Monomials are in
/// [`Posynomial::simplify`] order and each coefficient is accumulated in
/// expansion order, so the numbers are the ones a numeric expansion at
/// `V` followed by `simplify` would produce, bit for bit.
#[derive(Debug, Clone, PartialEq)]
pub struct DeviationMap {
    /// The polynomial's items: the values an evaluation reads.
    items: Arc<[ItemId]>,
    /// Where each output monomial's exponent row and contributions end.
    monomials: Vec<MonomialEnds>,
    /// Every monomial's `(GP variable, exponent)` row, back to back.
    exps: Vec<(usize, f64)>,
    /// Every monomial's contributions, back to back.
    contribs: Vec<Contribution>,
    /// Every contribution's value factors, back to back.
    factors: Vec<ValueFactor>,
}

/// Monomial `m` owns `exps[prev.exps..exps]` and sums
/// `contribs[prev.contribs..contribs]`.
#[derive(Debug, Clone, PartialEq)]
struct MonomialEnds {
    exps: u32,
    contribs: u32,
}

/// `weight * prod factors`, the factors being `factors[prev end..end]`.
#[derive(Debug, Clone, PartialEq)]
struct Contribution {
    weight: f64,
    end: u32,
}

/// `mult * values[item]^power`.
#[derive(Debug, Clone, PartialEq)]
struct ValueFactor {
    mult: f64,
    item: u32,
    power: u32,
}

/// One expansion entry that carries a `b` factor: its weight and where
/// its exponent row and value factors sit in the scratch arenas.
#[derive(Debug)]
struct Entry {
    weight: f64,
    exps: Range<usize>,
    factors: Range<usize>,
}

/// One item of the term being expanded: its GP variables, its splits (in
/// the scratch's `splits`) and the split the current entry takes.
#[derive(Debug)]
struct TermItem {
    item: ItemId,
    b_var: usize,
    c_var: Option<usize>,
    splits: Range<usize>,
    at: usize,
}

/// Everything an expansion grows before its sizes are known.
#[derive(Debug, Default)]
struct ExpansionScratch {
    /// The entries in expansion order; their rows and value factors back
    /// to back.
    entries: Vec<Entry>,
    /// Per entry, its row's key ([`KeyLayout`]) above its position:
    /// sorted, the entries in monomial order.
    order: Vec<u64>,
    exps: Vec<(usize, f64)>,
    factors: Vec<ValueFactor>,
    /// Every term's items' `(b, c)` variables, term after term.
    term_vars: Vec<(usize, Option<usize>)>,
    term_items: Vec<TermItem>,
    /// Every [`expansion_of`] this thread has needed, back to back, and
    /// where the one of each `(p, with_c)` sits: they depend on nothing
    /// else, so each is computed once.
    splits: Vec<Split>,
    splits_of: Vec<(u32, bool, Range<usize>)>,
}

thread_local! {
    /// This thread's expansion scratch: a compile allocates the map's
    /// final arrays and nothing else.
    static EXPANSION: RefCell<ExpansionScratch> = RefCell::default();
}

/// The single-query layout over borrowed item lists: `b` of `items[k]` at
/// variable `k`, `c` of `coupled[j]` at `items.len() + j`
/// ([`PartialDabVarMap`]'s; [`DabVarMap`]'s without secondaries when
/// nothing is coupled).
struct UnitVars<'a> {
    items: &'a [ItemId],
    coupled: &'a [ItemId],
}

impl DabVarIndexer for UnitVars<'_> {
    fn primary(&self, item: ItemId) -> usize {
        (self.items.binary_search(&item)).expect("item not covered by the unit's layout")
    }

    fn secondary(&self, item: ItemId) -> Option<usize> {
        let j = self.coupled.binary_search(&item).ok()?;
        Some(self.items.len() + j)
    }
}

impl DeviationMap {
    /// Expands the deviation of `poly` over the GP variables given by
    /// `vars`. When `vars.secondary` returns `None` for an item its
    /// factor is `(V + b)^p` (all `None`: Optimal Refresh, Eq. 1).
    ///
    /// # Errors
    /// * [`PolyError::EmptyPolynomial`] for the zero polynomial;
    /// * [`PolyError::NotPositiveCoefficient`] if `poly` has negative
    ///   weights.
    pub fn compile(poly: &Polynomial, vars: &dyn DabVarIndexer) -> Result<Self, PolyError> {
        Self::expand(poly, vars, poly.items().into())
    }

    /// [`DeviationMap::compile`] over the single-query layout of a unit
    /// whose caller already holds the item lists: `items` is
    /// `poly.items()` and the map shares it, `b` of `items[k]` is
    /// variable `k`, and `c` of `coupled[j]` (ascending, each an item;
    /// [`coupled_items`] for Dual-DAB, empty for Optimal Refresh) is
    /// variable `items.len() + j`.
    ///
    /// # Errors
    /// As [`DeviationMap::compile`].
    pub fn for_unit(
        poly: &Polynomial,
        items: impl Into<Arc<[ItemId]>>,
        coupled: &[ItemId],
    ) -> Result<Self, PolyError> {
        let items = items.into();
        // `items == poly.items()`, checked without allocating.
        let reads = |item: &ItemId| {
            poly.terms()
                .iter()
                .any(|t| t.vars().iter().any(|v| v.0 == *item))
        };
        debug_assert!(items.windows(2).all(|w| w[0] < w[1]) && items.iter().all(reads));
        let covered = |v: &(ItemId, u32)| items.binary_search(&v.0).is_ok();
        debug_assert!(poly.terms().iter().flat_map(|t| t.vars()).all(covered));
        let vars = UnitVars {
            items: &items,
            coupled,
        };
        Self::expand(poly, &vars, items.clone())
    }

    /// The expansion of [`DeviationMap::compile`], its four arrays built
    /// once at their final sizes, with `items` as given.
    fn expand<V: DabVarIndexer + ?Sized>(
        poly: &Polynomial,
        vars: &V,
        items: Arc<[ItemId]>,
    ) -> Result<Self, PolyError> {
        if poly.is_zero() {
            return Err(PolyError::EmptyPolynomial);
        }
        if !poly.is_positive_coefficient() {
            return Err(PolyError::NotPositiveCoefficient);
        }
        let mut scratch = EXPANSION.take();
        let ExpansionScratch {
            entries,
            order,
            exps,
            factors,
            term_vars,
            term_items,
            splits,
            splits_of,
        } = &mut scratch;
        entries.clear();
        order.clear();
        exps.clear();
        factors.clear();
        // Every item's variables, resolved once per term, and the largest
        // variable, exponent and row any entry can have.
        term_vars.clear();
        let (mut top_var, mut top_exp, mut widest) = (0, 0, 0);
        for term in poly.terms() {
            let mut width = 0;
            for &(item, p) in term.vars() {
                let (b_var, c_var) = (vars.primary(item), vars.secondary(item));
                term_vars.push((b_var, c_var));
                top_var = top_var.max(b_var.max(c_var.unwrap_or(0)) + 1);
                top_exp = top_exp.max(p);
                // A `c^k b^l` split with both `k, l > 0` needs `p >= 2`.
                width += 1 + usize::from(c_var.is_some() && p >= 2);
            }
            widest = widest.max(width);
        }
        let layout = KeyLayout::fit(top_var, top_exp, widest);
        // Every expansion entry that carries a `b` factor, in expansion
        // order, its exponent row and value factors in two shared arenas,
        // and its sort word.
        let mut resolved = term_vars.iter();
        for term in poly.terms() {
            term_items.clear();
            for (&(item, p), &(b_var, c_var)) in term.vars().iter().zip(&mut resolved) {
                let with_c = c_var.is_some();
                let known = splits_of.iter().find(|s| (s.0, s.1) == (p, with_c));
                let range = match known {
                    Some((_, _, range)) => range.clone(),
                    None => {
                        let start = splits.len();
                        splits.extend(expansion_of(p, with_c));
                        splits_of.push((p, with_c, start..splits.len()));
                        start..splits.len()
                    }
                };
                term_items.push(TermItem {
                    item,
                    b_var,
                    c_var,
                    splits: range,
                    at: 0,
                });
            }
            // The product of the items' expansions, the last item's split
            // varying fastest; a constant term has no entry.
            let mut more = !term_items.is_empty();
            while more {
                let split_of = |it: &TermItem| &splits[it.splits.start + it.at];
                // The entries with no b factor are exactly the expansion
                // of P(V + c); they cancel in the subtraction.
                if term_items.iter().any(|it| split_of(it).l > 0) {
                    let (row, first_factor) = (exps.len(), factors.len());
                    for it in term_items.iter() {
                        let split = split_of(it);
                        if let (Some(c_var), true) = (it.c_var, split.k > 0) {
                            exps.push((c_var, split.k as f64));
                        }
                        if split.l > 0 {
                            exps.push((it.b_var, split.l as f64));
                        }
                        // Multiplying by `1 * V^0` changes no bit.
                        if split.mult != 1.0 || split.j != 0 {
                            factors.push(ValueFactor {
                                mult: split.mult,
                                item: it.item.0,
                                power: split.j,
                            });
                        }
                    }
                    // `Monomial`'s form. An indexer gives every item its
                    // own variables, so none repeats.
                    let row_exps = &mut exps[row..];
                    for k in 1..row_exps.len() {
                        let mut at = k;
                        while at > 0 && row_exps[at - 1].0 > row_exps[at].0 {
                            row_exps.swap(at - 1, at);
                            at -= 1;
                        }
                    }
                    debug_assert!(row_exps.windows(2).all(|w| w[0].0 < w[1].0));
                    let key = layout.map_or(0, |layout| layout.key(row_exps));
                    order.push(key << 32 | entries.len() as u64);
                    entries.push(Entry {
                        weight: term.coef(),
                        exps: row..exps.len(),
                        factors: first_factor..factors.len(),
                    });
                }
                more = false;
                for it in term_items.iter_mut().rev() {
                    it.at += 1;
                    if it.at < it.splits.len() {
                        more = true;
                        break;
                    }
                    it.at = 0;
                }
            }
        }
        // `Posynomial::simplify` order, equal monomials in their expansion
        // order.
        let row_of = |e: &Entry| &exps[e.exps.clone()];
        match layout {
            Some(_) => order.sort_unstable(),
            None => rank_keys(entries, exps, order),
        }
        let entry = |word: u64| &entries[word as u32 as usize];
        // Equal rows are neighbours now, with equal keys: count the
        // distinct ones and their exponents, so every array below is
        // allocated once.
        let starts_monomial = |k: usize| k == 0 || order[k - 1] >> 32 != order[k] >> 32;
        let (mut n_monomials, mut n_exps) = (0, 0);
        for (k, &word) in order.iter().enumerate() {
            if starts_monomial(k) {
                (n_monomials, n_exps) = (n_monomials + 1, n_exps + entry(word).exps.len());
            }
        }
        let mut map = DeviationMap {
            items,
            monomials: Vec::with_capacity(n_monomials),
            exps: Vec::with_capacity(n_exps),
            contribs: Vec::with_capacity(entries.len()),
            factors: Vec::with_capacity(factors.len()),
        };
        for (k, &word) in order.iter().enumerate() {
            let e = entry(word);
            if starts_monomial(k) {
                map.exps.extend_from_slice(row_of(e));
                map.monomials.push(MonomialEnds {
                    exps: map.exps.len() as u32,
                    contribs: 0,
                });
            }
            map.factors.extend_from_slice(&factors[e.factors.clone()]);
            map.contribs.push(Contribution {
                weight: e.weight,
                end: map.factors.len() as u32,
            });
            map.monomials.last_mut().expect("pushed above").contribs = map.contribs.len() as u32;
        }
        EXPANSION.set(scratch);
        Ok(map)
    }

    /// The polynomial's items, ascending: the values an evaluation reads.
    pub fn items(&self) -> &[ItemId] {
        &self.items
    }

    /// Number of monomials (coefficients [`DeviationMap::eval_into`]
    /// writes).
    pub fn n_terms(&self) -> usize {
        self.monomials.len()
    }

    /// The deviation's terms at the coefficients `coefs` (as written by
    /// [`DeviationMap::eval_into`]): each monomial whose coefficient is
    /// not zero, with its `(GP variable, exponent)` row sorted by
    /// variable.
    pub fn terms<'m>(
        &'m self,
        coefs: &'m [f64],
    ) -> impl Iterator<Item = (f64, &'m [(usize, f64)])> + Clone + 'm {
        let mut start = 0;
        coefs
            .iter()
            .zip(&self.monomials)
            .filter_map(move |(&coef, m)| {
                let row = start..m.exps as usize;
                start = m.exps as usize;
                (coef != 0.0).then(|| (coef, &self.exps[row]))
            })
    }

    /// How many terms [`DeviationMap::terms`] yields at `coefs` and how
    /// many `(variable, exponent)` pairs their rows hold: the map's own
    /// counts, less the monomials a zero coefficient leaves out.
    pub fn counts(&self, coefs: &[f64]) -> (usize, usize) {
        let mut counts = (self.monomials.len(), self.exps.len());
        if coefs.contains(&0.0) {
            let starts = [0].into_iter().chain(self.monomials.iter().map(|m| m.exps));
            for ((&coef, m), start) in coefs.iter().zip(&self.monomials).zip(starts) {
                if coef == 0.0 {
                    counts.0 -= 1;
                    counts.1 -= (m.exps - start) as usize;
                }
            }
        }
        counts
    }

    /// Writes every monomial's coefficient at `values` into `out`. A
    /// value of exactly zero can leave a coefficient at `0.0`: that
    /// monomial is absent from the deviation at these values.
    ///
    /// # Errors
    /// * [`PolyError::MissingValue`] if `values` is too short;
    /// * [`PolyError::NegativeValue`] for the lowest item whose value is
    ///   negative and enters a coefficient (positive data is what makes
    ///   the all-up corner worst). An item read only linearly enters
    ///   none — its deviation is `w·b` at any value — so its sign is not
    ///   checked.
    ///
    /// # Panics
    /// Panics unless `out.len() == self.n_terms()`.
    pub fn eval_into(&self, values: &[f64], out: &mut [f64]) -> Result<(), PolyError> {
        assert_eq!(out.len(), self.monomials.len(), "one slot per monomial");
        if let Some(item) = self.items.iter().find(|i| i.index() >= values.len()) {
            return Err(PolyError::MissingValue { item: item.0 });
        }
        let mut negative: Option<u32> = None;
        let (mut c, mut f) = (0, 0);
        for (out, m) in out.iter_mut().zip(&self.monomials) {
            let end = m.contribs;
            let mut sum = 0.0;
            for contrib in &self.contribs[c..end as usize] {
                let mut coef = contrib.weight;
                for vf in &self.factors[f..contrib.end as usize] {
                    let v = values[vf.item as usize];
                    if v < 0.0 && vf.power > 0 {
                        negative = Some(negative.map_or(vf.item, |n| n.min(vf.item)));
                    }
                    coef *= vf.mult * pow_skip_zero(v, vf.power);
                }
                f = contrib.end as usize;
                sum += coef;
            }
            c = end as usize;
            *out = sum;
        }
        match negative {
            Some(item) => Err(PolyError::NegativeValue {
                item,
                value: values[item as usize],
            }),
            None => Ok(()),
        }
    }

    /// The deviation as a posynomial, from coefficients written by
    /// [`DeviationMap::eval_into`]; zero coefficients are left out.
    ///
    /// # Errors
    /// [`PolyError::EmptyPolynomial`] when nothing is left (a constant
    /// polynomial, or every item at zero exponent).
    pub fn posynomial(&self, coefs: &[f64]) -> Result<Posynomial, PolyError> {
        let terms: Vec<Monomial> = (self.terms(coefs))
            .map(|(coef, exps)| {
                Monomial::new(coef, exps.iter().copied())
                    .expect("expansion coefficients are positive")
            })
            .collect();
        if terms.is_empty() {
            return Err(PolyError::EmptyPolynomial);
        }
        Ok(Posynomial::from_terms(terms))
    }
}

/// Expands `P(V + c + b) - P(V + c)` into a posynomial over the GP
/// variables given by `vars`: [`DeviationMap::compile`], one evaluation
/// at `values`, and the assembly of the result.
///
/// When `vars.secondary` returns `None` for items, the expansion is
/// `P(V + b) - P(V)` (Optimal Refresh, Eq. 1).
///
/// # Errors
/// * [`PolyError::NotPositiveCoefficient`] if `poly` has negative weights;
/// * [`PolyError::NegativeValue`] if any referenced current value is
///   negative (positive data is what makes the all-up corner worst);
/// * [`PolyError::MissingValue`] if `values` is too short;
/// * [`PolyError::EmptyPolynomial`] for the zero polynomial.
pub fn deviation_posynomial(
    poly: &Polynomial,
    values: &[f64],
    vars: &dyn DabVarIndexer,
) -> Result<Posynomial, PolyError> {
    let map = DeviationMap::compile(poly, vars)?;
    let mut coefs = vec![0.0; map.n_terms()];
    map.eval_into(values, &mut coefs)?;
    map.posynomial(&coefs)
}

/// How an exponent row packs into a key of at most 32 bits: one digit
/// `(var + 1) << exp_bits | exp` per `(var, exp)` pair, the first pair
/// most significant, and zero digits after a row's last pair. The digits
/// order as the pairs do and a missing pair (zero) before any present
/// one, so the keys order as the rows compare as slices — the order
/// [`Posynomial::simplify`] sorts monomials in — and equal keys are equal
/// rows.
#[derive(Debug, Clone, Copy)]
struct KeyLayout {
    exp_bits: u32,
    digit_bits: u32,
    /// Digits per key: the most pairs a row can have.
    widest: u32,
}

impl KeyLayout {
    /// The layout for rows of at most `widest` pairs, every variable
    /// below `top_var` and exponent at most `top_exp`; `None` when such a
    /// row does not fit 32 bits.
    fn fit(top_var: usize, top_exp: u32, widest: usize) -> Option<Self> {
        let bits = |v: u64| u64::BITS - v.leading_zeros();
        let exp_bits = bits(top_exp.into());
        let digit_bits = bits(top_var as u64) + exp_bits;
        let widest = u32::try_from(widest).ok()?;
        (u64::from(widest) * u64::from(digit_bits) <= 32).then_some(KeyLayout {
            exp_bits,
            digit_bits,
            widest,
        })
    }

    /// The key of `row`.
    fn key(self, row: &[(usize, f64)]) -> u64 {
        let digits = row
            .iter()
            .map(|&(var, exp)| (var as u64 + 1) << self.exp_bits | exp as u64);
        let packed = digits.fold(0, |key, digit| key << self.digit_bits | digit);
        packed << ((self.widest - row.len() as u32) * self.digit_bits)
    }
}

/// The sorted `order` of entries whose rows do not fit a [`KeyLayout`]:
/// sorted by row, then position, each keyed by its row's rank among the
/// distinct rows.
fn rank_keys(entries: &[Entry], exps: &[(usize, f64)], order: &mut [u64]) {
    let row = |word: u64| &exps[entries[word as u32 as usize].exps.clone()];
    order.sort_by(|&a, &b| {
        let by_row = row(a).partial_cmp(row(b)).expect("finite exponents");
        by_row.then(a.cmp(&b))
    });
    let mut rank = 0;
    for k in 1..order.len() {
        if row(order[k - 1]) != row(order[k]) {
            rank += 1;
        }
        order[k] |= rank << 32;
    }
}

/// One term `mult * V^j c^k b^l` of an item's factor `(V + c + b)^p`.
#[derive(Debug)]
struct Split {
    mult: f64,
    j: u32,
    k: u32,
    l: u32,
}

/// The multinomial expansion `p! / (j! k! l!) * V^j c^k b^l` of
/// `(V + c + b)^p`, or without a secondary (`k = 0`) the binomial one of
/// `(V + b)^p`; `l` ascending, then `k`.
fn expansion_of(p: u32, with_c: bool) -> impl Iterator<Item = Split> {
    (0..=p).flat_map(move |l| {
        (0..=if with_c { p - l } else { 0 }).map(move |k| {
            let j = p - l - k;
            Split {
                mult: multinomial3(p, j, k, l),
                j,
                k,
                l,
            }
        })
    })
}

/// `v^j`, treating `0^0 = 1`.
fn pow_skip_zero(v: f64, j: u32) -> f64 {
    if j == 0 {
        1.0
    } else {
        v.powi(j as i32)
    }
}

fn binomial(n: u32, k: u32) -> f64 {
    let mut r = 1.0;
    for i in 0..k {
        r = r * (n - i) as f64 / (i + 1) as f64;
    }
    r
}

fn multinomial3(p: u32, j: u32, k: u32, l: u32) -> f64 {
    debug_assert_eq!(j + k + l, p);
    binomial(p, j) * binomial(p - j, k)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::polynomial::PTerm;

    fn x(i: u32) -> ItemId {
        ItemId(i)
    }

    fn product_xy() -> Polynomial {
        Polynomial::term(PTerm::new(1.0, [(x(0), 1), (x(1), 1)]).unwrap())
    }

    #[test]
    fn eq1_for_product_query() {
        // P = xy at V = (Vx, Vy), single DAB:
        //   P(V+b) - P(V) = Vx*by + Vy*bx + bx*by  (Eq. 1).
        let vmap = DabVarMap::for_polynomial(&product_xy(), false);
        let g = deviation_posynomial(&product_xy(), &[3.0, 2.0], &vmap).unwrap();
        assert_eq!(g.n_terms(), 3);
        // Evaluate at b = (bx, by) and compare against the closed form.
        for (bx, by) in [(0.5, 0.5), (1.0, 2.0), (0.1, 3.0)] {
            let lhs = g.eval(&[bx, by]);
            let rhs = 3.0 * by + 2.0 * bx + bx * by;
            assert!((lhs - rhs).abs() < 1e-12, "{lhs} vs {rhs}");
        }
    }

    #[test]
    fn eq2_for_product_query_with_secondary() {
        // P = xy, dual DAB:
        //   (Vx + cx) by + (Vy + cy) bx + bx by   (Eq. 2).
        let p = product_xy();
        let vmap = DabVarMap::for_polynomial(&p, true);
        let g = deviation_posynomial(&p, &[3.0, 2.0], &vmap).unwrap();
        // Vars: bx=0, by=1, cx=2, cy=3.
        for (bx, by, cx, cy) in [(0.5, 0.5, 1.0, 1.5), (0.2, 0.7, 0.3, 0.9)] {
            let lhs = g.eval(&[bx, by, cx, cy]);
            let rhs = (3.0 + cx) * by + (2.0 + cy) * bx + bx * by;
            assert!((lhs - rhs).abs() < 1e-12, "{lhs} vs {rhs}");
        }
    }

    #[test]
    fn expansion_matches_numeric_difference_for_squares() {
        // P = 2 x^2 y + y^3: check the expansion numerically against
        // P(V+c+b) - P(V+c) at random-ish points.
        let p = Polynomial::from_terms([
            PTerm::new(2.0, [(x(0), 2), (x(1), 1)]).unwrap(),
            PTerm::new(1.0, [(x(1), 3)]).unwrap(),
        ]);
        let vmap = DabVarMap::for_polynomial(&p, true);
        let v = [1.5, 2.5];
        let g = deviation_posynomial(&p, &v, &vmap).unwrap();
        for (bx, by, cx, cy) in [(0.3, 0.1, 0.2, 0.4), (1.0, 1.0, 1.0, 1.0)] {
            let up = p.eval(&[v[0] + cx + bx, v[1] + cy + by]);
            let mid = p.eval(&[v[0] + cx, v[1] + cy]);
            let lhs = g.eval(&[bx, by, cx, cy]);
            assert!((lhs - (up - mid)).abs() < 1e-9, "{lhs} vs {}", up - mid);
        }
    }

    #[test]
    fn expansion_is_exact_worst_case_over_box() {
        // For a PPQ the posynomial at (b, c=0) equals the exact worst-case
        // deviation over the box |x - V| <= b.
        let p = Polynomial::from_terms([
            PTerm::new(1.0, [(x(0), 1), (x(1), 1)]).unwrap(),
            PTerm::new(0.5, [(x(0), 2)]).unwrap(),
        ]);
        let vmap = DabVarMap::for_polynomial(&p, false);
        let v = [3.0, 2.0];
        let b = [0.4, 0.7];
        let g = deviation_posynomial(&p, &v, &vmap).unwrap();
        let exact = p.max_abs_deviation_over_box(&v, &[0.4, 0.7]);
        assert!((g.eval(&b) - exact).abs() < 1e-9);
    }

    #[test]
    fn rejects_negative_coefficients_and_values() {
        let p = product_xy().sub(&Polynomial::term(PTerm::new(1.0, [(x(2), 1)]).unwrap()));
        let vmap = DabVarMap::for_polynomial(&p, false);
        assert_eq!(
            deviation_posynomial(&p, &[1.0, 1.0, 1.0], &vmap),
            Err(PolyError::NotPositiveCoefficient)
        );
        let q = product_xy();
        let vmap = DabVarMap::for_polynomial(&q, false);
        assert!(matches!(
            deviation_posynomial(&q, &[1.0, -1.0], &vmap),
            Err(PolyError::NegativeValue { item: 1, .. })
        ));
        assert!(matches!(
            deviation_posynomial(&q, &[1.0], &vmap),
            Err(PolyError::MissingValue { item: 1 })
        ));
    }

    /// `x0 x1 + x2`: x2's value enters no coefficient, so a negative one
    /// is taken and changes no bit; a negative x1 is still refused.
    #[test]
    fn a_linear_only_item_may_be_negative() {
        let p = product_xy().add(&Polynomial::term(PTerm::new(2.0, [(x(2), 1)]).unwrap()));
        for with_c in [false, true] {
            let vmap = DabVarMap::for_polynomial(&p, with_c);
            let at = |v: &[f64]| deviation_posynomial(&p, v, &vmap);
            assert_eq!(at(&[1.5, 2.0, -3.28]), at(&[1.5, 2.0, 4.0]));
            assert!(at(&[1.5, 2.0, -3.28]).is_ok());
            assert!(matches!(
                at(&[1.5, -2.0, -3.28]),
                Err(PolyError::NegativeValue { item: 1, .. })
            ));
        }
    }

    #[test]
    fn zero_values_drop_terms_but_keep_b_products() {
        // P = xy at V = (0, 0): deviation is exactly bx * by.
        let p = product_xy();
        let vmap = DabVarMap::for_polynomial(&p, false);
        let g = deviation_posynomial(&p, &[0.0, 0.0], &vmap).unwrap();
        assert_eq!(g.n_terms(), 1);
        assert!((g.eval(&[2.0, 3.0]) - 6.0).abs() < 1e-12);
    }

    #[test]
    fn var_map_layout_is_stable() {
        let p = Polynomial::from_terms([PTerm::new(1.0, [(x(7), 1), (x(2), 1)]).unwrap()]);
        let vmap = DabVarMap::for_polynomial(&p, true);
        assert_eq!(vmap.items(), &[x(2), x(7)]);
        assert_eq!(vmap.primary(x(2)), 0);
        assert_eq!(vmap.primary(x(7)), 1);
        assert_eq!(vmap.secondary(x(2)), Some(2));
        assert_eq!(vmap.secondary(x(7)), Some(3));
        assert_eq!(vmap.n_vars(), 4);
    }

    #[test]
    fn coupled_items_excludes_linear_only_items() {
        // P = x0 + x1 x2 + x3^2: x0 is linear-only; x1, x2, x3 coupled.
        let p = Polynomial::from_terms([
            PTerm::new(1.0, [(x(0), 1)]).unwrap(),
            PTerm::new(1.0, [(x(1), 1), (x(2), 1)]).unwrap(),
            PTerm::new(2.0, [(x(3), 2)]).unwrap(),
        ]);
        assert_eq!(coupled_items(&p), vec![x(1), x(2), x(3)]);
        let vmap = PartialDabVarMap::for_polynomial(&p);
        assert_eq!(vmap.n_items(), 4);
        assert_eq!(vmap.n_vars(), 7);
        assert_eq!(vmap.primary(x(0)), 0);
        assert_eq!(vmap.secondary(x(0)), None);
        assert_eq!(vmap.secondary(x(1)), Some(4));
        assert_eq!(vmap.secondary(x(3)), Some(6));
    }

    #[test]
    fn partial_map_expansion_has_no_uncoupled_secondary() {
        // With the partial layout, the deviation of x0 + x1 x2 uses b0 but
        // never any c for x0 — and matches the numeric difference.
        let p = Polynomial::from_terms([
            PTerm::new(1.0, [(x(0), 1)]).unwrap(),
            PTerm::new(1.0, [(x(1), 1), (x(2), 1)]).unwrap(),
        ]);
        let vmap = PartialDabVarMap::for_polynomial(&p);
        let v = [100.0, 10.0, 9.0];
        let g = deviation_posynomial(&p, &v, &vmap).unwrap();
        // vars: b0 b1 b2 c1 c2.
        let xpt = [0.5, 0.1, 0.2, 0.4, 0.3];
        let up = p.eval(&[
            v[0] + xpt[0],
            v[1] + xpt[3] + xpt[1],
            v[2] + xpt[4] + xpt[2],
        ]);
        let mid = p.eval(&[v[0], v[1] + xpt[3], v[2] + xpt[4]]);
        assert!((g.eval(&xpt) - (up - mid)).abs() < 1e-9);
    }

    /// Sorting `(key, position)` words and ranking rows agree: the same
    /// entry order (by row as a slice, then position) and the same
    /// monomial boundaries.
    #[test]
    fn packed_keys_order_entries_as_ranked_rows_do() {
        let mut state = 0x1CDE_2008_u64;
        let mut draw = |m: u64| {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (state >> 33) % m
        };
        for _ in 0..300 {
            let (mut exps, mut entries) = (Vec::new(), Vec::new());
            for _ in 0..=draw(30) {
                let start = exps.len();
                let mut var = draw(3) as usize;
                for _ in 0..=draw(3) {
                    exps.push((var, (draw(3) + 1) as f64));
                    var += 1 + draw(3) as usize;
                }
                entries.push(Entry {
                    weight: 1.0,
                    exps: start..exps.len(),
                    factors: 0..0,
                });
            }
            let top_var = exps.iter().map(|&(v, _)| v + 1).max().unwrap();
            let layout = KeyLayout::fit(top_var, 3, 4).expect("fits");
            let mut packed: Vec<u64> = (entries.iter().enumerate())
                .map(|(k, e)| layout.key(&exps[e.exps.clone()]) << 32 | k as u64)
                .collect();
            packed.sort_unstable();
            let mut ranked: Vec<u64> = (0..entries.len() as u64).collect();
            rank_keys(&entries, &exps, &mut ranked);
            let position = |w: &u64| *w as u32;
            assert!(packed.iter().map(position).eq(ranked.iter().map(position)));
            let boundaries = |order: &[u64]| -> Vec<bool> {
                order.windows(2).map(|w| w[0] >> 32 != w[1] >> 32).collect()
            };
            assert_eq!(boundaries(&packed), boundaries(&ranked));
            let row = |w: &u64| &exps[entries[*w as u32 as usize].exps.clone()];
            for w in ranked.windows(2) {
                assert_ne!(
                    row(&w[0]).partial_cmp(row(&w[1])),
                    Some(std::cmp::Ordering::Greater)
                );
            }
        }
    }

    /// Seven coupled items in one term make rows too wide for a 32-bit
    /// key: the ranked fallback still merges the rows a second term
    /// shares and expands the deviation exactly.
    #[test]
    fn rows_too_wide_to_pack_still_expand_exactly() {
        let p = Polynomial::from_terms([
            PTerm::new(0.5, (0..7).map(|i| (x(i), 1))).unwrap(),
            PTerm::new(2.0, [(x(0), 1), (x(1), 1)]).unwrap(),
        ]);
        let vmap = DabVarMap::for_polynomial(&p, true);
        assert!(KeyLayout::fit(vmap.n_vars(), 1, 7).is_none());
        let v: Vec<f64> = (0..7).map(|i| 1.0 + 0.25 * i as f64).collect();
        let g = deviation_posynomial(&p, &v, &vmap).unwrap();
        let rows: Vec<&[(usize, f64)]> = g.terms().iter().map(|m| m.exponents()).collect();
        assert!(
            rows.windows(2).all(|w| w[0] < w[1]),
            "one monomial per row, ascending"
        );
        let (b, c): (Vec<f64>, Vec<f64>) = (0..7).map(|i| (0.01 * (i + 1) as f64, 0.1)).unzip();
        let at = |shift: &dyn Fn(usize) -> f64| -> Vec<f64> {
            (0..7).map(|i| v[i] + c[i] + shift(i)).collect()
        };
        let want = p.eval(&at(&|i| b[i])) - p.eval(&at(&|_| 0.0));
        let got = g.eval(&[b.clone(), c.clone()].concat());
        assert!((got - want).abs() <= 1e-12 * want, "{got} vs {want}");
    }

    #[test]
    fn constant_polynomial_yields_empty_deviation() {
        let p = Polynomial::term(PTerm::constant(5.0).unwrap());
        let vmap = DabVarMap::new(vec![], false);
        assert_eq!(
            deviation_posynomial(&p, &[], &vmap),
            Err(PolyError::EmptyPolynomial)
        );
    }
}
