//! Optimal DAB assignment for positive-coefficient polynomial queries.
//!
//! Two formulations from §III-A, both geometric programs:
//!
//! * [`optimal_refresh`] — Conditions 1 + 2 only (§III-A.1): minimize the
//!   estimated refresh rate subject to the necessary-and-sufficient QAB
//!   condition `P(V+b) − P(V) ≤ B`. Optimal in refreshes, but the
//!   assignment is valid only at the anchor values, so *every* refresh
//!   triggers a recomputation.
//!
//! * [`dual_dab`] — the paper's novel Dual-DAB approach (§III-A.2): assign
//!   a smaller primary DAB `b` (the source filter) and a larger secondary
//!   DAB `c` (the validity range at the coordinator), minimizing
//!   `sum_i lambda_i/b_i + mu * R` subject to
//!   `P(V+c+b) − P(V+c) ≤ B`, `b ≤ c`, and `rate(lambda_i, c_i) ≤ R`.
//!   Slightly more refreshes, far fewer recomputations.

use std::cell::RefCell;
use std::sync::Arc;

use pq_ddm::DataDynamicsModel;
use pq_gp::logsumexp::LogArena;
use pq_gp::{CompiledGp, GpError, GpSolution, Posynomial};
use pq_poly::{DeviationMap, ItemId, PolyError, Polynomial, PolynomialQuery};

use crate::assignment::{QueryAssignment, RangeKind, UnitColumns};
use crate::cache::{solve_compiled, UnitCache};
use crate::context::SolveContext;
use crate::error::DabError;
use crate::heuristics::PpqMethod;

/// Optimal-Refresh assignment for a PPQ (§III-A.1).
///
/// # Errors
/// [`DabError::UnsupportedQueryClass`] if the query has negative
/// coefficients (use the heuristics of [`crate::heuristics`] instead) or
/// is linear (use the closed forms of [`crate::laq`]).
pub fn optimal_refresh(
    query: &PolynomialQuery,
    ctx: &SolveContext<'_>,
) -> Result<QueryAssignment, DabError> {
    PpqProgram::compile(query, PpqMethod::OptimalRefresh, ctx)?.solve(ctx, None)
}

/// Dual-DAB assignment for a PPQ (§III-A.2–3).
///
/// `mu` is the recomputation cost in messages (§III-A.3); larger `mu`
/// buys larger validity ranges (fewer recomputations) with tighter primary
/// DABs (more refreshes).
///
/// # Errors
/// [`DabError::InvalidMu`] unless `mu > 0` and finite; query-class errors
/// as for [`optimal_refresh`].
pub fn dual_dab(
    query: &PolynomialQuery,
    ctx: &SolveContext<'_>,
    mu: f64,
) -> Result<QueryAssignment, DabError> {
    PpqProgram::compile(query, PpqMethod::DualDab { mu }, ctx)?.solve(ctx, None)
}

/// A PPQ unit's compiled program: everything about its GP that is fixed
/// for as long as its body, QAB, method, ddm and item rates are.
///
/// The variables are `b_k` for the body's `k`-th item, then (Dual-DAB)
/// one `c_j` per coupled item — secondary DABs only for items whose
/// reference value can invalidate the condition; a linear-only item gets
/// `c = infinity`, it never triggers recomputation, like a LAQ item — and
/// `R` last. The
/// objective `sum_k refresh(lambda_k, b_k) [+ mu R]` and the Dual-DAB
/// rows `b_j <= c_j`, `rate(lambda_j, c_j) <= R` depend on nothing that
/// moves. Only the QAB condition (Eq. 1 / Eq. 2, constraint 0) follows
/// the values, and only through its coefficients, which `map` derives
/// from them. So a recompute through a [`UnitCache`] that already holds
/// this program's compiled GP writes `coefs` into its condition row and
/// solves. A first solve — and one after a value at exactly zero has
/// removed a monomial from (or a positive one returned it to) the
/// condition the cache compiled — emits the rows straight into the
/// solver's form ([`PpqProgram::compiled`]). That emitted program is the
/// only form the GP takes: when the blend toward the predicted start's
/// anchor fails, phase I runs on it too.
#[derive(Debug)]
pub(crate) struct PpqProgram {
    qab: f64,
    method: PpqMethod,
    ddm: DataDynamicsModel,
    /// The body's items, ascending (the map's): `b_k` is `items[k]`'s.
    items: Arc<[ItemId]>,
    /// `lambda_k` of the body's `k`-th item, floored positive.
    lambdas: Vec<f64>,
    /// The primary variable of the item that owns each `c_j`, ascending.
    coupled_b: Vec<usize>,
    /// Values to the condition's coefficients, before the division by
    /// the QAB.
    map: DeviationMap,
    /// `map` at the values of the last solve.
    coefs: Vec<f64>,
    /// The cache's compiled GP came from a condition that held every
    /// monomial of `map`: its condition row takes `coefs` as they are.
    aligned: bool,
}

thread_local! {
    /// This thread's scratch for predicted starts (beside the solver's,
    /// `cache.rs`'s `WORKSPACE`): with both, a warm recompute allocates
    /// nothing between the values and the Newton loop.
    static START: RefCell<StartScratch> = RefCell::default();
}

impl PpqProgram {
    /// Compiles the program of `query` under `method` at `ctx`'s rates.
    pub(crate) fn compile(
        query: &PolynomialQuery,
        method: PpqMethod,
        ctx: &SolveContext<'_>,
    ) -> Result<Self, DabError> {
        let (items, coupled) = (query.shared_items(), query.coupled_items());
        Self::for_body(query.poly(), items, coupled, query.qab(), method, ctx)
    }

    /// [`PpqProgram::compile`] for the query `poly : qab`, which need not
    /// exist as one, over its items and coupled items as the caller
    /// derived them ([`pq_poly::coupled_items`]; Optimal Refresh ignores
    /// them).
    pub(crate) fn for_body(
        poly: &Polynomial,
        items: &Arc<[ItemId]>,
        coupled: &[ItemId],
        qab: f64,
        method: PpqMethod,
        ctx: &SolveContext<'_>,
    ) -> Result<Self, DabError> {
        if let Some(mu) = method.mu().filter(|mu| !(mu.is_finite() && *mu > 0.0)) {
            return Err(DabError::InvalidMu(mu));
        }
        if !(qab.is_finite() && qab > 0.0) {
            return Err(PolyError::InvalidBound(qab).into());
        }
        require_ppq(poly)?;
        let coupled = match method {
            PpqMethod::OptimalRefresh => &[],
            PpqMethod::DualDab { .. } => coupled,
        };
        // `b` of the `k`-th item is variable `k`.
        let primary = |c| items.binary_search(c).expect("a coupled item is an item");
        let coupled_b = coupled.iter().map(primary).collect();
        let map = DeviationMap::for_unit(poly, items.clone(), coupled)?;
        let mut lambdas = Vec::with_capacity(items.len());
        for &item in items.iter() {
            lambdas.push(ctx.rate(item)?);
        }
        Ok(PpqProgram {
            qab,
            method,
            ddm: ctx.ddm,
            items: items.clone(),
            lambdas,
            coupled_b,
            coefs: vec![0.0; map.n_terms()],
            map,
            aligned: false,
        })
    }

    /// True when a solve to `qab` under `method` at `ctx` is a solve of
    /// this program (for the body it was compiled for).
    pub(crate) fn serves(&self, qab: f64, method: PpqMethod, ctx: &SolveContext<'_>) -> bool {
        let same_rate = |(&item, &lambda)| ctx.rate(item).is_ok_and(|r| r == lambda);
        self.qab == qab
            && self.method == method
            && self.ddm == ctx.ddm
            && self.map.items().iter().zip(&self.lambdas).all(same_rate)
    }

    /// Solves the program at `ctx`'s values, through `cache` when given
    /// (see [`crate::cache::solve_compiled`]).
    pub(crate) fn solve(
        &mut self,
        ctx: &SolveContext<'_>,
        cache: Option<&mut UnitCache>,
    ) -> Result<QueryAssignment, DabError> {
        UnitColumns::one_shot(|out| self.solve_into(ctx, cache, out))
    }

    /// [`PpqProgram::solve`], the assignment written into `out`.
    pub(crate) fn solve_into(
        &mut self,
        ctx: &SolveContext<'_>,
        cache: Option<&mut UnitCache>,
        out: &mut UnitColumns,
    ) -> Result<(), DabError> {
        self.map.eval_into(ctx.values, &mut self.coefs)?;
        let mut start = START.take();
        let dual = self.method.mu().map(|mu| (mu, &self.coupled_b[..]));
        let condition = self.map.terms(&self.coefs);
        let sol = start
            .predict(condition, self.qab, &self.lambdas, self.ddm, dual)
            .and_then(|()| self.solve_from(&start.guess, &start.interior, ctx, cache));
        START.set(start);
        self.write(&sol?, ctx, out);
        Ok(())
    }

    /// The solve at the values `coefs` was evaluated at, from their
    /// predicted start: by writing `coefs` into the program `cache`
    /// compiled when it holds one that takes them, by emitting the
    /// program otherwise.
    fn solve_from(
        &mut self,
        guess: &[f64],
        interior: &[f64],
        ctx: &SolveContext<'_>,
        mut cache: Option<&mut UnitCache>,
    ) -> Result<GpSolution, DabError> {
        if let Some(cache) = cache.as_deref_mut().filter(|_| self.aligned) {
            let scale = 1.0 / self.qab;
            let rewritten = cache.solve_row(0, &self.coefs, scale, guess, interior, &ctx.gp);
            if let Some(sol) = rewritten {
                return Ok(sol);
            }
        }
        self.aligned = false;
        let sol = solve_compiled(self.compiled()?, guess, interior, &ctx.gp, cache)?;
        self.aligned = self.coefs.iter().all(|&c| c != 0.0);
        Ok(sol)
    }

    /// Writes the assignment `sol` stands for, anchored at `ctx`'s
    /// values, into `out`.
    fn write(&self, sol: &GpSolution, ctx: &SolveContext<'_>, out: &mut UnitColumns) {
        let n = self.items.len();
        let mu = self.method.mu();
        let kind = if mu.is_some() {
            RangeKind::Box
        } else {
            RangeKind::AnchorOnly
        };
        let cols = out.start(&self.items, kind);
        for (v0, item) in cols.anchor.iter_mut().zip(self.items.iter()) {
            *v0 = ctx.values[item.index()];
        }
        cols.primary.copy_from_slice(&sol.x[..n]);
        if mu.is_none() {
            out.refresh_rate = sol.objective;
            return;
        }
        // An uncoupled item keeps its `+∞`: its value cannot invalidate.
        for (&b_var, &c) in self.coupled_b.iter().zip(&sol.x[n..]) {
            cols.secondary[b_var] = c;
        }
        let recompute_rate = sol.x[n + self.coupled_b.len()];
        let refresh_rate: f64 = (self.lambdas.iter().zip(&sol.x))
            .map(|(&l, &b)| self.ddm.refresh_rate(l, b))
            .sum();
        (out.recompute_rate, out.refresh_rate) = (recompute_rate, refresh_rate);
    }

    /// The assignment `sol` stands for, anchored at `ctx`'s values.
    #[cfg(test)]
    fn assignment(&self, sol: &GpSolution, ctx: &SolveContext<'_>) -> QueryAssignment {
        let mut out = UnitColumns::default();
        self.write(sol, ctx, &mut out);
        out.assignment()
    }

    /// The program at the values `coefs` was evaluated at, in the
    /// solver's own form: every posynomial emitted in one pass into one
    /// arena counted beforehand, with nothing built in between — term for
    /// term and bit for bit what compiling the program spelled out as a
    /// problem gives (the tests' `PpqProgram::problem`).
    fn compiled(&self) -> Result<CompiledGp, GpError> {
        let n = self.lambdas.len();
        let coupled = self.coupled_b.len();
        let r_var = n + coupled;
        let mu = self.method.mu();
        let n_vars = r_var + usize::from(mu.is_some());
        let p = self.ddm.exponent();
        let refresh = |k: usize| self.ddm.refresh_coef(self.lambdas[k]);

        // The QAB condition: at the anchor (Eq. 1), or over the validity
        // range (Eq. 2), sized by the map.
        let condition = self.map.terms(&self.coefs);
        let (condition_terms, condition_exps) = self.map.counts(&self.coefs);
        let objective_terms = n + usize::from(mu.is_some());
        let mut arena = LogArena::with_capacity(
            n_vars,
            2 + 2 * coupled,
            objective_terms + condition_terms + 2 * coupled,
            objective_terms + condition_exps + 4 * coupled,
        );
        let refreshes = (0..n).map(|k| (refresh(k), [(k, -p)]));
        let recomputes = mu.map(|mu| (mu, [(r_var, 1.0)]));
        arena.push(refreshes.chain(recomputes), 1.0)?;
        arena.push(condition, 1.0 / self.qab)?;
        // For coupled items: b_j <= c_j and the recompute-rate coupling
        // rate(lambda_j, c_j) <= R.
        for (j, &b_var) in self.coupled_b.iter().enumerate() {
            let c_var = n + j;
            arena.push([(1.0, [(b_var, 1.0), (c_var, -1.0)])].into_iter(), 1.0)?;
            let escape = (refresh(b_var), [(c_var, -p), (r_var, -1.0)]);
            arena.push([escape].into_iter(), 1.0)?;
        }
        CompiledGp::from_arena(arena)
    }
}

fn require_ppq(poly: &Polynomial) -> Result<(), DabError> {
    if poly.is_linear() {
        Err(DabError::UnsupportedQueryClass {
            detail: "linear query: use the closed forms in pq_core::laq",
        })
    } else if !poly.is_positive_coefficient() {
        Err(DabError::UnsupportedQueryClass {
            detail: "mixed-sign query: solve its Half-and-Half or Different-Sum units (pq_core::assignment_units)",
        })
    } else {
        Ok(())
    }
}

/// Refinement rounds a prediction may take (one pass over the condition's
/// terms each); a round that moves no coordinate by more than `SETTLED`
/// in log space is the last.
const MAX_ROUNDS: usize = 8;
const SETTLED: f64 = 0.01;

/// The predicted optimum of a PPQ program and the strictly feasible point
/// anchoring the solver's blend toward it, as `(guess, interior)` over the
/// layout `b: 0..n`, then (Dual-DAB only) one `c` per coupled item and `R`.
/// `dual = Some((mu, coupled))` selects Dual-DAB, `coupled[j]` being the
/// primary variable of the item that owns `c_j`.
///
/// Linearized at a point, `condition <= B` is the budget
/// `sum_k w_k b_k + sum_j g_j c_j <= B'` of a linear query, `(w, g)` the
/// condition's gradient there. The objective charges `mu R` and nothing
/// for a `c`, so each `c_j` sits on the larger of its two lower bounds,
/// `max(lambda_j u, b_j)` with `u = R^(-1/p)`, and what is left is a LAQ
/// over `(b, u)` with the Lagrange closed form of [`crate::laq`]:
/// `b_k = beta (lambda_k^p / W_k)^(1/(p+1))`, `u = beta (mu / D)^(1/(p+1))`,
/// `beta` spending the budget. `D = sum_j theta_j lambda_j g_j` and
/// `W_k = w_k + (1 - theta_k) g_k` split every `g_j` between the bound it
/// sits on (`theta_j = 1`: `c_j` follows `u`); on the kink
/// `lambda_j u = b_j` the split is whatever keeps it there,
/// `W_j = D / (mu lambda_j)`.
///
/// Round 0 linearizes at the origin, where `w` is the coefficients of the
/// pure-`b` terms (the tangent linear query at the current values) and
/// `g` comes from the `b·c` terms; later rounds re-linearize at the
/// previous round's point until it settles. On a book whose QABs are a
/// percent of the query value round 0 is already within a few percent.
/// Every DAB solve, first or recompute, starts from this prediction.
///
/// Only a start: a component that comes out non-finite or non-positive
/// (`a_k = 0` in round 0, an empty first-order part) falls back to 1.
pub fn predicted_start(
    condition: &Posynomial,
    qab: f64,
    lambdas: &[f64],
    ddm: DataDynamicsModel,
    dual: Option<(f64, &[usize])>,
) -> Result<(Vec<f64>, Vec<f64>), DabError> {
    let terms = condition.terms().iter();
    let condition = terms.map(|m| (m.coef(), m.exponents()));
    let mut start = START.take();
    let predicted = start
        .predict(condition, qab, lambdas, ddm, dual)
        .map(|()| (start.guess.clone(), start.interior.clone()));
    START.set(start);
    predicted
}

/// Every vector a prediction works in, and the two it leaves behind.
#[derive(Debug, Default)]
struct StartScratch {
    /// `lambda_k^p`.
    rates: Vec<f64>,
    /// The condition's gradient at the current point: over `b`, over `c`.
    w: Vec<f64>,
    g: Vec<f64>,
    /// The current round's `b`, and the next one's.
    b: Vec<f64>,
    next: Vec<f64>,
    /// Per coupled item, where its kink ends; every end, sorted.
    kinks: Vec<(f64, f64)>,
    ends: Vec<f64>,
    /// The GP point of the current round, the prediction in the end, and
    /// the strictly feasible anchor below it.
    guess: Vec<f64>,
    interior: Vec<f64>,
}

fn or_one(v: f64) -> f64 {
    if v.is_finite() && v > 0.0 {
        v
    } else {
        1.0
    }
}

/// The term `coef * prod x_v^e` at `x`. Most exponents of a deviation
/// condition are 1, where `powf` would return its argument.
fn term_at(coef: f64, exps: &[(usize, f64)], x: &[f64]) -> f64 {
    let factor = |&(v, e): &(usize, f64)| if e == 1.0 { x[v] } else { x[v].powf(e) };
    exps.iter().map(factor).fold(coef, |t, f| t * f)
}

/// What every linearization of one program shares.
struct Linearized<'a> {
    lambdas: &'a [f64],
    rates: &'a [f64],
    coupled: &'a [usize],
    mu: f64,
    p: f64,
    kinks: &'a mut Vec<(f64, f64)>,
    ends: &'a mut Vec<f64>,
}

impl Linearized<'_> {
    /// Solves the linearized program `(w, g, budget)`: writes `b`, returns
    /// `u` (meaningless without a Dual-DAB block).
    fn solve(&mut self, w: &[f64], g: &[f64], budget: f64, b: &mut [f64]) -> f64 {
        let Linearized {
            lambdas,
            rates,
            coupled,
            mu,
            p,
            ref mut kinks,
            ref mut ends,
        } = *self;
        let shape = |r: f64, w: f64| or_one((r / w).powf(1.0 / (p + 1.0)));
        // `mu D = sum_j clamp(t0_j - D, 0, t0_j - t1_j)`: `c_j` follows
        // `u` below its kink's end `t1`, `b_j` above `t0`. The two sides
        // cross on one linear piece between neighbouring ends.
        kinks.clear();
        kinks.extend(
            (coupled.iter().zip(g))
                .map(|(&k, g)| (mu * lambdas[k] * w[k], mu * lambdas[k] * (w[k] + g))),
        );
        let gap = |d: f64| {
            let follows = kinks.iter().map(|&(t1, t0)| (t0 - d).max(0.0).min(t0 - t1));
            mu * d - follows.sum::<f64>()
        };
        ends.clear();
        ends.extend(kinks.iter().flat_map(|&(t1, t0)| [t1, t0]));
        ends.sort_by(f64::total_cmp);
        let (mut d, mut below) = (0.0, gap(0.0));
        for &end in ends.iter() {
            let above = gap(end);
            if above >= 0.0 {
                if above > below {
                    d += (end - d) * below / (below - above);
                }
                break;
            }
            (d, below) = (end, above);
        }
        b.copy_from_slice(w);
        for (&k, &(t1, t0)) in coupled.iter().zip(kinks.iter()) {
            b[k] = d.max(t1).min(t0) / (mu * lambdas[k]);
        }
        let su = shape(mu, d);
        b.iter_mut()
            .zip(rates)
            .for_each(|(s, &r)| *s = shape(r, *s));
        let spent_b: f64 = w.iter().zip(&*b).map(|(w, s)| w * s).sum();
        let spent_c: f64 = coupled
            .iter()
            .zip(g)
            .map(|(&k, g)| g * (lambdas[k] * su).max(b[k]))
            .sum();
        let beta = or_one(budget / (spent_b + spent_c));
        b.iter_mut().for_each(|s| *s *= beta);
        beta * su
    }
}

impl StartScratch {
    /// [`predicted_start`] over the condition's terms as `(coefficient,
    /// exponent row)` pairs, wherever they are kept; leaves the prediction
    /// in `self.guess` and its anchor in `self.interior`.
    fn predict<'t>(
        &mut self,
        condition: impl Iterator<Item = (f64, &'t [(usize, f64)])> + Clone,
        qab: f64,
        lambdas: &[f64],
        ddm: DataDynamicsModel,
        dual: Option<(f64, &[usize])>,
    ) -> Result<(), DabError> {
        let StartScratch {
            rates,
            w,
            g,
            b,
            next,
            kinks,
            ends,
            guess,
            interior,
        } = self;
        let n = lambdas.len();
        let p = ddm.exponent();
        let (mu, coupled) = dual.unwrap_or((0.0, &[]));
        rates.clear();
        rates.extend(lambdas.iter().map(|l| l.powf(p)));
        let mut program = Linearized {
            lambdas,
            rates,
            coupled,
            mu,
            p,
            kinks,
            ends,
        };
        let zeroed = |v: &mut Vec<f64>, len: usize| {
            v.clear();
            v.resize(len, 0.0);
        };

        // Round 0: the tangent LAQ, then the escape block from `c = 0`.
        zeroed(w, n);
        zeroed(g, coupled.len());
        for (coef, exps) in condition.clone() {
            if let [(k, e)] = *exps {
                if k < n && e == 1.0 {
                    w[k] += coef;
                }
            }
        }
        zeroed(b, n);
        let mut u = program.solve(w, &[], qab, b);
        if dual.is_some() {
            for (coef, exps) in condition.clone() {
                if let [(k, ek), (v, ev)] = *exps {
                    if k < n && v >= n && ek == 1.0 && ev == 1.0 {
                        g[v - n] += coef * b[k];
                    }
                }
            }
            u = program.solve(w, g, qab, b);
        }

        // The GP point of `(b, u)`.
        let point = |b: &[f64], u: f64, x: &mut Vec<f64>| {
            x.clear();
            x.extend_from_slice(b);
            x.extend(coupled.iter().map(|&k| (lambdas[k] * u).max(b[k])));
            if dual.is_some() {
                x.push(u.powf(-p));
            }
        };
        zeroed(next, n);
        for _ in 0..MAX_ROUNDS {
            point(b, u, guess);
            w.iter_mut().chain(g.iter_mut()).for_each(|v| *v = 0.0);
            // The condition's value, and `w·b + g·c` (each term times its
            // degree), beside the gradient.
            let (mut value, mut tangent) = (0.0, 0.0);
            for (coef, exps) in condition.clone() {
                let t = term_at(coef, exps, guess);
                value += t;
                for &(v, e) in exps {
                    tangent += e * t;
                    let slot = if v < n { &mut w[v] } else { &mut g[v - n] };
                    *slot += e * t / guess[v];
                }
            }
            let next_u = program.solve(w, g, qab - value + tangent, next);
            let of_u = if dual.is_some() { next_u / u } else { 1.0 };
            let moved = (next.iter().zip(b.iter()))
                .map(|(s, b)| s / b)
                .chain([of_u])
                .fold(0.0_f64, |m, ratio| m.max(ratio.ln().abs()));
            std::mem::swap(b, next);
            u = next_u;
            if moved < SETTLED {
                break;
            }
        }

        point(b, u, guess);
        guess.iter_mut().for_each(|v| *v = or_one(*v));
        let at_guess = condition.map(|(coef, exps)| term_at(coef, exps, guess));
        scalar_feasible_start(at_guess.sum(), qab, guess, n, interior)?;
        if dual.is_some() {
            // `rate(lambda_j, c_j) <= R` holds at the guess by construction.
            interior[n + coupled.len()] *= 2.0;
        }
        Ok(())
    }
}

/// The strictly feasible anchor below `guess`, into `x`: its first `n`
/// coordinates (the primary DABs) scaled by the largest power of two
/// `s <= 1/2` that puts the condition at or under half of `qab`. Every
/// term of a deviation condition carries a primary factor, so
/// `condition(s b) <= s condition(b)` and its one evaluation `at_guess`
/// fixes `s`.
fn scalar_feasible_start(
    at_guess: f64,
    qab: f64,
    guess: &[f64],
    n: usize,
    x: &mut Vec<f64>,
) -> Result<(), DabError> {
    let s = (0.5 * qab / at_guess).log2().floor().exp2();
    x.clear();
    x.extend_from_slice(guess);
    x[..n].iter_mut().for_each(|v| *v *= s.min(0.5));
    // A NaN `s` (non-finite condition) fails the first test.
    if s > 0.0 && x.iter().all(|v| v.is_finite() && *v > 0.0) {
        Ok(())
    } else {
        Err(DabError::NoFeasibleStart)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assignment::ValidityRange;
    use pq_ddm::DataDynamicsModel;
    use pq_gp::{GpProblem, Monomial};
    use pq_poly::{ItemId, PTerm, Polynomial};

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

    /// Brute-force reference for optimal refresh on Q = xy : B with the
    /// monotonic ddm: minimize l0/bx + l1/by s.t. Vx by + Vy bx + bx by <= B.
    fn grid_optimal(v: [f64; 2], l: [f64; 2], qab: f64) -> f64 {
        let mut best = f64::INFINITY;
        let steps = 2000;
        let hi = qab / v[1].min(v[0]) * 2.0;
        for i in 1..steps {
            let bx = hi * i as f64 / steps as f64;
            // Given bx, the best by saturates the constraint.
            let by = (qab - v[1] * bx) / (v[0] + bx);
            if by <= 0.0 {
                continue;
            }
            best = best.min(l[0] / bx + l[1] / by);
        }
        best
    }

    #[test]
    fn optimal_refresh_matches_grid_on_product_query() {
        let q = product_query(5.0);
        let values = [40.0, 20.0];
        let rates = [1.0, 1.0];
        let ctx = SolveContext::new(&values, &rates);
        let a = optimal_refresh(&q, &ctx).unwrap();
        let got = a.refresh_rate;
        let want = grid_optimal([40.0, 20.0], [1.0, 1.0], 5.0);
        assert!(
            (got - want).abs() < 1e-3 * want,
            "solver {got} vs grid {want}"
        );
        assert!(a.respects_qab(&q, 1e-6));
        assert_eq!(a.validity, ValidityRange::AnchorOnly);
    }

    #[test]
    fn optimal_refresh_favours_fast_items_with_wide_dabs() {
        // Item 0 changes 100x faster; its DAB should be wider than item 1's
        // (wider filter = fewer refreshes for the fast mover).
        let q = product_query(5.0);
        let values = [20.0, 20.0];
        let rates = [100.0, 1.0];
        let ctx = SolveContext::new(&values, &rates);
        let a = optimal_refresh(&q, &ctx).unwrap();
        let b0 = a.primary_dab(x(0)).unwrap();
        let b1 = a.primary_dab(x(1)).unwrap();
        assert!(b0 > b1, "b0 = {b0}, b1 = {b1}");
    }

    #[test]
    fn dual_dab_is_valid_over_its_whole_range() {
        let q = product_query(5.0);
        let values = [2.0, 2.0];
        let rates = [1.0, 1.0];
        let ctx = SolveContext::new(&values, &rates);
        let a = dual_dab(&q, &ctx, 5.0).unwrap();
        assert!(a.respects_qab(&q, 1e-6));
        match &a.validity {
            ValidityRange::Box(c) => {
                for (&item, &cx) in c {
                    assert!(
                        cx >= a.primary_dab(item).unwrap() - 1e-9,
                        "secondary must dominate primary"
                    );
                }
            }
            other => panic!("expected Box validity, got {other:?}"),
        }
        assert!(a.recompute_rate > 0.0);
    }

    #[test]
    fn dual_dab_trades_refreshes_for_recomputations() {
        // Versus Optimal Refresh: more refreshes, but a real validity
        // range; and larger mu widens the range further (fewer recomputes).
        let q = product_query(5.0);
        let values = [20.0, 30.0];
        let rates = [2.0, 1.0];
        let ctx = SolveContext::new(&values, &rates);
        let opt = optimal_refresh(&q, &ctx).unwrap();
        let d1 = dual_dab(&q, &ctx, 1.0).unwrap();
        let d10 = dual_dab(&q, &ctx, 10.0).unwrap();
        assert!(d1.refresh_rate >= opt.refresh_rate - 1e-6);
        assert!(d10.refresh_rate >= d1.refresh_rate - 1e-6);
        assert!(
            d10.recompute_rate <= d1.recompute_rate + 1e-9,
            "larger mu must not increase the recompute rate: {} vs {}",
            d10.recompute_rate,
            d1.recompute_rate
        );
        // Secondary ranges grow with mu.
        let c1: f64 = d1.secondary_dab(x(0)).unwrap();
        let c10: f64 = d10.secondary_dab(x(0)).unwrap();
        assert!(c10 >= c1 - 1e-9, "c grew {c1} -> {c10}");
    }

    #[test]
    fn dual_dab_total_cost_beats_optimal_refresh_with_recompute_costs() {
        // The whole point of §III-A.2: once recomputations cost mu messages
        // (and Optimal Refresh recomputes on *every* refresh), Dual-DAB's
        // modelled total cost wins.
        let q = product_query(5.0);
        let values = [20.0, 30.0];
        let rates = [2.0, 1.0];
        let ctx = SolveContext::new(&values, &rates);
        for mu in [1.0, 5.0, 10.0] {
            let opt = optimal_refresh(&q, &ctx).unwrap();
            let dual = dual_dab(&q, &ctx, mu).unwrap();
            let opt_cost = opt.refresh_rate * (1.0 + mu); // every refresh recomputes
            let dual_cost = dual.refresh_rate + mu * dual.recompute_rate;
            assert!(
                dual_cost < opt_cost,
                "mu={mu}: dual {dual_cost} vs optimal-refresh {opt_cost}"
            );
        }
    }

    #[test]
    fn random_walk_model_gives_less_stringent_dabs() {
        // §V-B.1: the (lambda/b)^2 objective pushes toward larger b.
        let q = product_query(5.0);
        let values = [20.0, 30.0];
        let rates = [0.05, 0.02];
        let mono = SolveContext::new(&values, &rates);
        let walk = SolveContext::new(&values, &rates).with_ddm(DataDynamicsModel::RandomWalk);
        let am = dual_dab(&q, &mono, 5.0).unwrap();
        let aw = dual_dab(&q, &walk, 5.0).unwrap();
        let sum_m: f64 = am.primary.values().sum();
        let sum_w: f64 = aw.primary.values().sum();
        assert!(
            sum_w > sum_m,
            "random-walk DABs should be wider: {sum_w} vs {sum_m}"
        );
    }

    #[test]
    fn rejects_wrong_classes_and_bad_mu() {
        let laq = PolynomialQuery::linear_aggregate([(1.0, x(0))], 1.0).unwrap();
        let values = [1.0];
        let rates = [1.0];
        let ctx = SolveContext::new(&values, &rates);
        assert!(matches!(
            optimal_refresh(&laq, &ctx),
            Err(DabError::UnsupportedQueryClass { .. })
        ));
        let q = product_query(5.0);
        let values = [2.0, 2.0];
        let rates = [1.0, 1.0];
        let ctx = SolveContext::new(&values, &rates);
        assert!(matches!(
            dual_dab(&q, &ctx, 0.0),
            Err(DabError::InvalidMu(_))
        ));
        assert!(matches!(
            dual_dab(&q, &ctx, f64::NAN),
            Err(DabError::InvalidMu(_))
        ));
    }

    #[test]
    fn portfolio_query_with_shared_items_solves() {
        // sum of products sharing item x1: w1 x0 x1 + w2 x1 x2 : B.
        let p = Polynomial::from_terms([
            PTerm::new(2.0, [(x(0), 1), (x(1), 1)]).unwrap(),
            PTerm::new(3.0, [(x(1), 1), (x(2), 1)]).unwrap(),
        ]);
        let q = PolynomialQuery::new(p, 10.0).unwrap();
        let values = [50.0, 2.0, 30.0];
        let rates = [0.5, 0.01, 0.3];
        let ctx = SolveContext::new(&values, &rates);
        let a = dual_dab(&q, &ctx, 5.0).unwrap();
        assert_eq!(a.primary.len(), 3);
        assert!(a.respects_qab(&q, 1e-6));
    }

    /// Two units shaped like the paper's (shared item, a square, a linear
    /// leg), installed at one set of values and recomputed at drifted
    /// ones: the recompute that writes the map's coefficients into the
    /// cached compiled GP returns the assignment, bit for bit, of the one
    /// that emits the whole program afresh.
    #[test]
    fn warm_recompute_through_the_map_matches_the_rebuild_path_bit_for_bit() {
        let p = Polynomial::from_terms([
            PTerm::new(2.0, [(x(0), 1), (x(1), 1)]).unwrap(),
            PTerm::new(3.0, [(x(1), 1), (x(2), 1)]).unwrap(),
            PTerm::new(0.5, [(x(3), 2)]).unwrap(),
            PTerm::new(4.0, [(x(4), 1)]).unwrap(),
        ]);
        let q = PolynomialQuery::new(p, 10.0).unwrap();
        let rates = [0.5, 0.01, 0.3, 0.2, 0.1];
        let installed = [50.0, 2.0, 30.0, 7.0, 11.0];
        let drifted = [50.4, 1.98, 30.3, 7.05, 11.2];
        for ddm in [DataDynamicsModel::Monotonic, DataDynamicsModel::RandomWalk] {
            let at = |values| SolveContext::new(values, &rates).with_ddm(ddm);
            let method = PpqMethod::DualDab { mu: 5.0 };
            let mut through_map = PpqProgram::compile(&q, method, &at(&installed)).unwrap();
            let mut rebuilding = PpqProgram::compile(&q, method, &at(&installed)).unwrap();
            let (mut cache_a, mut cache_b) = (UnitCache::new(), UnitCache::new());
            let a0 = through_map
                .solve(&at(&installed), Some(&mut cache_a))
                .unwrap();
            let b0 = rebuilding
                .solve(&at(&installed), Some(&mut cache_b))
                .unwrap();
            assert_eq!(a0.all_bits(), b0.all_bits());
            assert!(through_map.aligned);
            // Same cache state, but nothing says its compiled GP takes
            // the map's coefficients: the program is emitted again.
            rebuilding.aligned = false;
            let a1 = through_map
                .solve(&at(&drifted), Some(&mut cache_a))
                .unwrap();
            let b1 = rebuilding.solve(&at(&drifted), Some(&mut cache_b)).unwrap();
            assert_eq!(a1.all_bits(), b1.all_bits(), "{ddm}");
            assert_ne!(a1.all_bits(), a0.all_bits(), "the recompute moved the DABs");
            assert!(a1.respects_qab(&q, 1e-6));
        }
    }

    /// A unit's filter is a function of the unit and the values, not of
    /// its solve history: solved through one cache at `V0` and then `V1`,
    /// it is bit for bit the solve of a fresh cache at `V1` — whether the
    /// recompute rewrites the kept program's condition row (`V0` all
    /// positive) or emits the program again (a value at zero in `V0` left
    /// a monomial out of the kept condition).
    #[test]
    fn a_recompute_is_the_fresh_solve_at_the_same_values() {
        let p = Polynomial::from_terms([
            PTerm::new(2.0, [(x(0), 1), (x(1), 1)]).unwrap(),
            PTerm::new(3.0, [(x(1), 1), (x(2), 1)]).unwrap(),
            PTerm::new(0.5, [(x(3), 2)]).unwrap(),
            PTerm::new(4.0, [(x(4), 1)]).unwrap(),
        ]);
        let q = PolynomialQuery::new(p, 10.0).unwrap();
        let rates = [0.5, 0.01, 0.3, 0.2, 0.1];
        let drifted = [50.4, 1.98, 30.3, 7.05, 11.2];
        let methods = [PpqMethod::DualDab { mu: 5.0 }, PpqMethod::OptimalRefresh];
        let installs = [[50.0, 2.0, 30.0, 7.0, 11.0], [50.0, 2.0, 30.0, 0.0, 11.0]];
        for ddm in [DataDynamicsModel::Monotonic, DataDynamicsModel::RandomWalk] {
            let at = |values| SolveContext::new(values, &rates).with_ddm(ddm);
            for method in methods {
                for installed in &installs {
                    let mut program = PpqProgram::compile(&q, method, &at(installed)).unwrap();
                    let mut cache = UnitCache::new();
                    program.solve(&at(installed), Some(&mut cache)).unwrap();
                    assert_eq!(program.aligned, installed[3] != 0.0);
                    let recomputed = program.solve(&at(&drifted), Some(&mut cache)).unwrap();
                    let fresh = PpqProgram::compile(&q, method, &at(&drifted))
                        .unwrap()
                        .solve(&at(&drifted), Some(&mut UnitCache::new()))
                        .unwrap();
                    assert_eq!(
                        recomputed.all_bits(),
                        fresh.all_bits(),
                        "{method:?} {ddm} from {installed:?}"
                    );
                }
            }
        }
    }

    /// A value reaching exactly zero removes monomials from the condition:
    /// the compiled GP cannot take the coefficients, the program is
    /// emitted again, and stays on that path until an emitted condition
    /// holds every monomial again.
    #[test]
    fn a_value_at_zero_takes_the_rebuild_path_and_still_respects_the_qab() {
        let q = PolynomialQuery::portfolio([(2.0, x(0), x(1)), (3.0, x(2), x(3))], 10.0).unwrap();
        let rates = [0.5, 0.01, 0.3, 0.2];
        let mut program;
        let mut cache = UnitCache::new();
        let mut solve = |values: &[f64; 4], program: &mut PpqProgram| {
            let ctx = SolveContext::new(values, &rates);
            let a = program.solve(&ctx, Some(&mut cache)).unwrap();
            assert!(a.respects_qab(&q, 1e-6), "at {values:?}");
            a
        };
        let ctx = SolveContext::new(&[50.0, 2.0, 30.0, 4.0], &rates);
        program = PpqProgram::compile(&q, PpqMethod::DualDab { mu: 5.0 }, &ctx).unwrap();
        let full = solve(&[50.0, 2.0, 30.0, 4.0], &mut program);
        assert!(program.aligned);
        let at_zero = solve(&[0.0, 2.0, 30.0, 4.0], &mut program);
        assert!(!program.aligned, "the rebuilt condition lacks `V0 b1`");
        assert!(at_zero.primary[&x(1)] > full.primary[&x(1)]);
        solve(&[0.0, 2.01, 30.0, 4.0], &mut program);
        assert!(!program.aligned);
        solve(&[0.3, 2.01, 30.0, 4.0], &mut program);
        assert!(program.aligned);
        solve(&[0.31, 2.0, 30.1, 4.0], &mut program);
    }

    /// The solve as it ran before programs were emitted: spell the
    /// program out as a [`GpProblem`], compile that, and solve it through
    /// the cache.
    fn solve_through_the_problem(
        program: &mut PpqProgram,
        ctx: &SolveContext<'_>,
        cache: &mut UnitCache,
    ) -> Result<QueryAssignment, DabError> {
        program.map.eval_into(ctx.values, &mut program.coefs)?;
        let dual = program.method.mu().map(|mu| (mu, &program.coupled_b[..]));
        let (guess, interior) = predicted_start(
            &program.map.posynomial(&program.coefs)?,
            program.qab,
            &program.lambdas,
            program.ddm,
            dual,
        )?;
        let compiled = CompiledGp::compile(&program.problem()?)?;
        let sol = solve_compiled(compiled, &guess, &interior, &ctx.gp, Some(cache))?;
        Ok(program.assignment(&sol, ctx))
    }

    impl PpqProgram {
        /// [`PpqProgram::compiled`] spelled out as a problem: the reference
        /// the emitted rows are tested against.
        fn problem(&self) -> Result<GpProblem, DabError> {
            let n = self.lambdas.len();
            let r_var = n + self.coupled_b.len();
            let refresh = |lambda: f64, var: usize| {
                let coef = self.ddm.refresh_coef(lambda);
                Monomial::new(coef, [(var, -self.ddm.exponent())])
                    .expect("rate is floored positive")
            };
            let mut objective = Posynomial::zero();
            for (k, &lambda) in self.lambdas.iter().enumerate() {
                objective.push(refresh(lambda, k));
            }
            let mu = self.method.mu();
            let mut problem = GpProblem::new(r_var + usize::from(mu.is_some()));
            if let Some(mu) = mu {
                objective.push(Monomial::new(mu, [(r_var, 1.0)])?);
            }
            problem.set_objective(objective)?;
            problem.add_constraint_le(self.map.posynomial(&self.coefs)?, self.qab)?;
            for (j, &b_var) in self.coupled_b.iter().enumerate() {
                let c_var = n + j;
                problem.add_var_le_var(b_var, c_var)?;
                let escape = refresh(self.lambdas[b_var], c_var);
                let coupled = escape.mul(&Monomial::new(1.0, [(r_var, -1.0)])?);
                problem.add_constraint(Posynomial::monomial(coupled))?;
            }
            Ok(problem)
        }
    }

    /// One term: the bits of its `ln` coefficient, its row.
    type TermBits<'a> = (u64, &'a [(usize, f64)]);

    /// Every term of every posynomial of `gp`, objective first.
    fn rows_and_bits(gp: &CompiledGp) -> Vec<Vec<TermBits<'_>>> {
        fn terms(f: pq_gp::logsumexp::LogPosynomial<'_>) -> Vec<TermBits<'_>> {
            let bits = f.log_coefs().iter().map(|c| c.to_bits());
            bits.zip(f.rows()).collect()
        }
        gp.arena().iter().map(terms).collect()
    }

    mod emitted_program {
        use super::*;
        use proptest::prelude::*;

        const POOL: u32 = 8;

        /// Legs `w * x_i^p [* x_j^q]` (`i == j`: one factor), then per
        /// item `log10` value, whether the value is exactly 0 instead, and
        /// `log10` rate; `log10` of QAB / query value, `log10` of mu, the
        /// ddm and the method.
        type RawCase = (
            Vec<(u32, u32, u32, u32, f64)>,
            Vec<(f64, bool, f64)>,
            f64,
            f64,
            (bool, bool),
        );

        fn raw_case() -> impl Strategy<Value = RawCase> {
            (
                proptest::collection::vec(
                    (0..POOL, 0..POOL, 1u32..=3, 1u32..=3, -1.0f64..2.0),
                    1..=8,
                ),
                proptest::collection::vec(
                    (-3.0f64..4.0, (0u8..6).prop_map(|z| z == 0), -9.0f64..1.0),
                    POOL as usize,
                ),
                -6.0f64..-0.7,
                -1.0f64..2.0,
                (0u8..2, 0u8..2).prop_map(|(a, b)| (a == 1, b == 1)),
            )
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]

            /// The flat arena a program emits is the one compiling its
            /// spelled-out problem gives — posynomial for posynomial, row
            /// for row, same exponents, same `ln` coefficients bit for
            /// bit, same backend, no array grown twice — and the
            /// solves through them, a first one and one after every zero
            /// value turned positive, return the assignments the solves
            /// through the problem return.
            #[test]
            fn emitted_rows_are_the_compiled_problem(raw in raw_case()) {
                let (legs, items, qab_share, mu, (walk, refresh_only)) = raw;
                let body = Polynomial::from_terms(legs.iter().map(|&(i, j, p, q, w)| {
                    let vars = if i == j { vec![(x(i), p)] } else { vec![(x(i), p), (x(j), q)] };
                    PTerm::new(10f64.powf(w), vars).expect("positive weight")
                }));
                prop_assume!(!body.is_linear());
                let installed: Vec<f64> = (items.iter())
                    .map(|&(v, zero, _)| if zero { 0.0 } else { 10f64.powf(v) })
                    .collect();
                let drifted: Vec<f64> = (items.iter())
                    .map(|&(v, _, _)| 1.01 * 10f64.powf(v))
                    .collect();
                let rates: Vec<f64> = items.iter().map(|&(_, _, r)| 10f64.powf(r)).collect();
                let qab = 10f64.powf(qab_share) * body.eval(&drifted);
                let query = PolynomialQuery::new(body, qab).unwrap();
                let ddm = if walk { DataDynamicsModel::RandomWalk } else { DataDynamicsModel::Monotonic };
                let method = if refresh_only {
                    PpqMethod::OptimalRefresh
                } else {
                    PpqMethod::DualDab { mu: 10f64.powf(mu) }
                };
                let at = |values| SolveContext::new(values, &rates).with_ddm(ddm);

                let mut emitting = PpqProgram::compile(&query, method, &at(&installed)).unwrap();
                let mut spelling = PpqProgram::compile(&query, method, &at(&installed)).unwrap();
                emitting.map.eval_into(&installed, &mut emitting.coefs).unwrap();
                let reference = emitting.problem().map(|p| CompiledGp::compile(&p).unwrap());
                match (emitting.compiled(), reference) {
                    (Ok(emitted), Ok(compiled)) => {
                        prop_assert_eq!(emitted.n_vars(), compiled.n_vars());
                        prop_assert_eq!(emitted.has_sparse_plan(), compiled.has_sparse_plan());
                        prop_assert_eq!(emitted.n_constraints(), compiled.n_constraints());
                        prop_assert_eq!(rows_and_bits(&emitted), rows_and_bits(&compiled));
                        // Counted exactly: each array was allocated once.
                        prop_assert_eq!(emitted.arena().spare_capacity(), 0);
                    }
                    // Every item of a leg at zero: no condition either way.
                    (Err(_), Err(_)) => {}
                    (emitted, compiled) => prop_assert!(
                        false,
                        "emitted {:?}, compiled {:?}",
                        emitted.map(|_| ()),
                        compiled.map(|_| ())
                    ),
                }

                let (mut cache_e, mut cache_s) = (UnitCache::new(), UnitCache::new());
                for values in [&installed, &drifted] {
                    let emitted = emitting.solve(&at(values), Some(&mut cache_e));
                    let spelled = solve_through_the_problem(&mut spelling, &at(values), &mut cache_s);
                    match (emitted, spelled) {
                        (Ok(e), Ok(s)) => prop_assert_eq!(e.all_bits(), s.all_bits()),
                        (Err(_), Err(_)) => {}
                        (e, s) => prop_assert!(false, "emitted {:?}, spelled out {:?}", e, s),
                    }
                }
            }
        }
    }

    /// A start whose blend fails — here an anchor outside the condition —
    /// still ends in phase I, on the emitted program, counted as the one
    /// cold start it is; the cache keeps that program for the next solve.
    #[test]
    fn a_failed_blend_reaches_phase_one_through_the_emitted_program() {
        let q = PolynomialQuery::portfolio([(2.0, x(0), x(1)), (3.0, x(1), x(2))], 10.0).unwrap();
        let values = [50.0, 2.0, 30.0];
        let rates = [0.5, 0.01, 0.3];
        let (obs, _ring) = pq_obs::Obs::ring(64);
        let mut ctx = SolveContext::new(&values, &rates);
        ctx.gp.obs = obs.clone();
        let mut program = PpqProgram::compile(&q, PpqMethod::DualDab { mu: 5.0 }, &ctx).unwrap();
        program.map.eval_into(&values, &mut program.coefs).unwrap();
        let outside = vec![1e3; 3 + 3 + 1];
        assert!(program.problem().unwrap().max_violation(&outside) > 0.0);

        let mut cache = UnitCache::new();
        let sol = program
            .solve_from(&outside, &outside, &ctx, Some(&mut cache))
            .unwrap();
        let oracle = pq_gp::solve(&program.problem().unwrap(), &ctx.gp).unwrap();
        assert_eq!(sol.x, oracle.x);
        assert!(program.assignment(&sol, &ctx).respects_qab(&q, 1e-6));
        let snap = obs.snapshot();
        let count = |name: &str| snap.counters.get(name).copied().unwrap_or(0);
        assert_eq!(count(pq_obs::names::SOLVE_COLD_START), 1);
        assert_eq!(count(pq_obs::names::SOLVE_COLD_FALLBACK), 0);
        assert_eq!(count(pq_obs::names::SOLVE_WARM_HIT), 0);
        assert_eq!(count(pq_obs::names::SOLVE_WARM_REPAIR), 0);

        // The next solve rewrites the kept program's condition in place
        // and starts from the prediction at the drifted values.
        assert!(program.aligned);
        let drifted = [50.4, 1.98, 30.3];
        let next = program
            .solve(
                &SolveContext {
                    values: &drifted,
                    ..ctx.clone()
                },
                Some(&mut cache),
            )
            .unwrap();
        assert!(next.respects_qab(&q, 1e-6));
        assert_eq!(obs.snapshot().counters[pq_obs::names::SOLVE_WARM_HIT], 1);
    }

    /// A Dual-DAB and an Optimal-Refresh unit whose blend fails (start
    /// and anchor both outside the condition) end in phase I on the
    /// emitted program, and the answer is, bit for bit, the one the
    /// phase-I solve of the program spelled out as a problem gave when
    /// phase I still ran on that: the FNV-1a hash of every float of the
    /// solution and the assignment was taken from it.
    #[test]
    fn a_failed_blend_solves_phase_one_on_the_compiled_program() {
        let q = PolynomialQuery::portfolio([(2.0, x(0), x(1)), (3.0, x(1), x(2))], 10.0).unwrap();
        let values = [50.0, 2.0, 30.0];
        let rates = [0.5, 0.01, 0.3];
        let cases = [
            (
                PpqMethod::DualDab { mu: 5.0 },
                3 + 3 + 1,
                0xf1e4_38ca_6740_733d_u64,
            ),
            (PpqMethod::OptimalRefresh, 3, 0x0da4_7cd2_f9ed_4bee),
        ];
        for (method, n_vars, golden) in cases {
            let (obs, ring) = pq_obs::Obs::ring(1024);
            let mut ctx = SolveContext::new(&values, &rates);
            ctx.gp.obs = obs.clone();
            let mut program = PpqProgram::compile(&q, method, &ctx).unwrap();
            program.map.eval_into(&values, &mut program.coefs).unwrap();
            let outside = vec![1e3; n_vars];
            let sol = program
                .solve_from(&outside, &outside, &ctx, Some(&mut UnitCache::new()))
                .unwrap();
            let phase_one = ring.events().iter().any(|e| {
                e.target == "gp.solve_ns"
                    && e.field("phase_one") == Some(&pq_obs::Value::Bool(true))
            });
            assert!(phase_one, "{method:?}: phase I ran");
            let oracle = pq_gp::solve(&program.problem().unwrap(), &ctx.gp).unwrap();
            assert_eq!(sol.x, oracle.x, "{method:?}");
            let a = program.assignment(&sol, &ctx);
            assert!(a.respects_qab(&q, 1e-6), "{method:?}");
            let bits = (sol.x.iter().chain([&sol.objective]))
                .map(|v| v.to_bits())
                .chain(a.all_bits());
            let mut hash = 0xcbf2_9ce4_8422_2325_u64;
            for byte in bits.flat_map(u64::to_le_bytes) {
                hash ^= u64::from(byte);
                hash = hash.wrapping_mul(0x0100_0000_01b3);
            }
            assert_eq!(hash, golden, "{method:?}");
        }
    }

    #[test]
    fn tight_qab_still_finds_feasible_start() {
        let q = product_query(1e-6);
        let values = [1000.0, 1000.0];
        let rates = [1.0, 1.0];
        let ctx = SolveContext::new(&values, &rates);
        let a = optimal_refresh(&q, &ctx).unwrap();
        assert!(a.respects_qab(&q, 1e-9));
    }
}
