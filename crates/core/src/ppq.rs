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

use std::collections::BTreeMap;

use pq_ddm::DataDynamicsModel;
use pq_gp::{GpProblem, Monomial, Posynomial};
use pq_poly::{
    DabVarIndexer, DabVarMap, DeviationMap, PartialDabVarMap, PolynomialQuery, QueryClass,
};

use crate::assignment::{QueryAssignment, ValidityRange};
use crate::cache::{solve_cached, UnitCache};
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
/// solves; [`PpqProgram::problem`] builds the program as a
/// [`GpProblem`] for a first solve, and whenever a value at exactly zero
/// has removed a monomial from (or a positive one returned it to) the
/// condition the cache compiled.
#[derive(Debug)]
pub(crate) struct PpqProgram {
    qab: f64,
    method: PpqMethod,
    ddm: DataDynamicsModel,
    /// `lambda_k` of the body's `k`-th item (`map.items()[k]`, ascending),
    /// floored positive.
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

impl PpqProgram {
    /// Compiles the program of `query` under `method` at `ctx`'s rates.
    pub(crate) fn compile(
        query: &PolynomialQuery,
        method: PpqMethod,
        ctx: &SolveContext<'_>,
    ) -> Result<Self, DabError> {
        if let Some(mu) = method.mu().filter(|mu| !(mu.is_finite() && *mu > 0.0)) {
            return Err(DabError::InvalidMu(mu));
        }
        require_ppq(query)?;
        let poly = query.poly();
        // Both layouts put `b` of the body's `k`-th item at variable `k`.
        let (coupled_b, map) = match method {
            PpqMethod::OptimalRefresh => {
                let vars = DabVarMap::for_polynomial(poly, false);
                (Vec::new(), DeviationMap::compile(poly, &vars)?)
            }
            PpqMethod::DualDab { .. } => {
                let vars = PartialDabVarMap::for_polynomial(poly);
                let coupled_b = vars.coupled().iter().map(|&i| vars.primary(i)).collect();
                (coupled_b, DeviationMap::compile(poly, &vars)?)
            }
        };
        let lambdas = (map.items().iter())
            .map(|&item| ctx.rate(item))
            .collect::<Result<_, _>>()?;
        Ok(PpqProgram {
            qab: query.qab(),
            method,
            ddm: ctx.ddm,
            lambdas,
            coupled_b,
            coefs: vec![0.0; map.n_terms()],
            map,
            aligned: false,
        })
    }

    /// True when a solve under `method` at `ctx` is a solve of this
    /// program (for the body and QAB it was compiled for).
    pub(crate) fn serves(&self, method: PpqMethod, ctx: &SolveContext<'_>) -> bool {
        let same_rate = |(&item, &lambda)| ctx.rate(item).is_ok_and(|r| r == lambda);
        self.method == method
            && self.ddm == ctx.ddm
            && self.map.items().iter().zip(&self.lambdas).all(same_rate)
    }

    /// Solves the program at `ctx`'s values, through `cache` when given
    /// (see [`crate::cache::solve_cached`]).
    pub(crate) fn solve(
        &mut self,
        ctx: &SolveContext<'_>,
        mut cache: Option<&mut UnitCache>,
    ) -> Result<QueryAssignment, DabError> {
        self.map.eval_into(ctx.values, &mut self.coefs)?;
        let items = self.map.items();
        let n = items.len();
        let mu = self.method.mu();
        let warm = cache.as_ref().is_some_and(|c| c.has_solution());
        let condition = self.map.terms(&self.coefs);
        let dual = mu.map(|mu| (mu, &self.coupled_b[..]));
        let (guess, interior) =
            predicted_start_terms(condition, self.qab, &self.lambdas, self.ddm, dual, !warm)?;
        let rewritten = match &mut cache {
            Some(cache) if warm && self.aligned => {
                cache.solve_row(0, &self.coefs, 1.0 / self.qab, &interior, &ctx.gp)
            }
            _ => None,
        };
        let sol = match rewritten {
            Some(sol) => sol,
            None => {
                let problem = self.problem()?;
                let aligned = problem.constraints()[0].n_terms() == self.map.n_terms();
                self.aligned = false;
                let sol = solve_cached(&problem, &guess, &interior, &ctx.gp, cache)?;
                self.aligned = aligned;
                sol
            }
        };

        // Three maps over the same ascending item list.
        let primary = (items.iter().zip(&sol.x))
            .map(|(&item, &b)| (item, b))
            .collect();
        let anchor = (items.iter())
            .map(|&item| (item, ctx.values[item.index()]))
            .collect();
        let Some(mu) = mu else {
            return Ok(QueryAssignment {
                primary,
                validity: ValidityRange::AnchorOnly,
                anchor,
                recompute_rate: 0.0,
                refresh_rate: sol.objective,
            });
        };
        let mut coupled = self.coupled_b.iter().zip(&sol.x[n..]).peekable();
        let secondary: BTreeMap<_, _> = (items.iter().enumerate())
            .map(|(k, &item)| {
                let c = coupled.next_if(|&(&b_var, _)| b_var == k);
                (item, c.map_or(f64::INFINITY, |(_, &c)| c))
            })
            .collect();
        let recompute_rate = sol.x[n + self.coupled_b.len()];
        let refresh_rate: f64 = (self.lambdas.iter().zip(&sol.x))
            .map(|(&l, &b)| self.ddm.refresh_rate(l, b))
            .sum();
        ctx.gp
            .obs
            .emit_with(pq_obs::names::DAB_SOLVE, pq_obs::EventKind::Point, |e| {
                e.with("kind", "dual-dab")
                    .with("items", n)
                    .with("coupled", self.coupled_b.len())
                    .with("mu", mu)
                    .with("refresh_rate", refresh_rate)
                    .with("recompute_rate", recompute_rate)
            });
        Ok(QueryAssignment {
            primary,
            validity: ValidityRange::Box(secondary),
            anchor,
            recompute_rate,
            refresh_rate,
        })
    }

    /// The program at the values `coefs` was evaluated at.
    fn problem(&self) -> Result<GpProblem, DabError> {
        let n = self.lambdas.len();
        let r_var = n + self.coupled_b.len();
        let refresh = |lambda: f64, var: usize| {
            (self.ddm.refresh_monomial(lambda, var)).expect("rate is floored positive")
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
        // The QAB condition: at the anchor (Eq. 1), or over the validity
        // range (Eq. 2).
        problem.add_constraint_le(self.map.posynomial(&self.coefs)?, self.qab)?;
        // For coupled items: b_j <= c_j and the recompute-rate coupling
        // rate(lambda_j, c_j) <= R.
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

fn require_ppq(query: &PolynomialQuery) -> Result<(), DabError> {
    match query.class() {
        QueryClass::PositiveCoefficient => Ok(()),
        QueryClass::LinearAggregate => Err(DabError::UnsupportedQueryClass {
            detail: "linear query: use the closed forms in pq_core::laq",
        }),
        QueryClass::General => Err(DabError::UnsupportedQueryClass {
            detail: "mixed-sign query: use pq_core::heuristics (Half-and-Half / Different Sum)",
        }),
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
/// `refine = false` stops after round 0: enough for the interior anchor,
/// which is all a solve that starts from a cached optimum reads.
///
/// Only a start: a component that comes out non-finite or non-positive
/// (`a_k = 0` in round 0, an empty first-order part) falls back to 1.
pub fn predicted_start(
    condition: &Posynomial,
    qab: f64,
    lambdas: &[f64],
    ddm: DataDynamicsModel,
    dual: Option<(f64, &[usize])>,
    refine: bool,
) -> Result<(Vec<f64>, Vec<f64>), DabError> {
    let terms = condition.terms().iter();
    let condition = terms.map(|m| (m.coef(), m.exponents()));
    predicted_start_terms(condition, qab, lambdas, ddm, dual, refine)
}

/// [`predicted_start`] over the condition's terms as `(coefficient,
/// exponent row)` pairs, wherever they are kept.
pub(crate) fn predicted_start_terms<'t>(
    condition: impl Iterator<Item = (f64, &'t [(usize, f64)])> + Clone,
    qab: f64,
    lambdas: &[f64],
    ddm: DataDynamicsModel,
    dual: Option<(f64, &[usize])>,
    refine: bool,
) -> Result<(Vec<f64>, Vec<f64>), DabError> {
    let n = lambdas.len();
    let p = ddm.exponent();
    let (mu, coupled) = dual.unwrap_or((0.0, &[]));
    let or_one = |v: f64| if v.is_finite() && v > 0.0 { v } else { 1.0 };
    let shape = |r: f64, w: f64| or_one((r / w).powf(1.0 / (p + 1.0)));
    let rates: Vec<f64> = lambdas.iter().map(|l| l.powf(p)).collect();

    // Solves the linearized program `(w, g, budget)`: writes `b`, returns
    // `u` (meaningless without a Dual-DAB block).
    let solve = |w: &[f64], g: &[f64], budget: f64, b: &mut [f64]| {
        // `mu D = sum_j clamp(t0_j - D, 0, t0_j - t1_j)`: `c_j` follows
        // `u` below its kink's end `t1`, `b_j` above `t0`. The two sides
        // cross on one linear piece between neighbouring ends.
        let kinks: Vec<(f64, f64)> = (coupled.iter().zip(g))
            .map(|(&k, g)| (mu * lambdas[k] * w[k], mu * lambdas[k] * (w[k] + g)))
            .collect();
        let gap = |d: f64| {
            let follows = kinks.iter().map(|&(t1, t0)| (t0 - d).max(0.0).min(t0 - t1));
            mu * d - follows.sum::<f64>()
        };
        let mut ends: Vec<f64> = kinks.iter().flat_map(|&(t1, t0)| [t1, t0]).collect();
        ends.sort_by(f64::total_cmp);
        let (mut d, mut below) = (0.0, gap(0.0));
        for end in ends {
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
        for (&k, &(t1, t0)) in coupled.iter().zip(&kinks) {
            b[k] = d.max(t1).min(t0) / (mu * lambdas[k]);
        }
        let su = shape(mu, d);
        b.iter_mut()
            .zip(&rates)
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
    };

    // Round 0: the tangent LAQ, then the escape block from `c = 0`.
    let (mut w, mut g) = (vec![0.0; n], vec![0.0; coupled.len()]);
    for (coef, exps) in condition.clone() {
        if let [(k, e)] = *exps {
            if k < n && e == 1.0 {
                w[k] += coef;
            }
        }
    }
    let mut b = vec![0.0; n];
    let mut u = solve(&w, &[], qab, &mut b);
    if dual.is_some() {
        for (coef, exps) in condition.clone() {
            if let [(k, ek), (v, ev)] = *exps {
                if k < n && v >= n && ek == 1.0 && ev == 1.0 {
                    g[v - n] += coef * b[k];
                }
            }
        }
        u = solve(&w, &g, qab, &mut b);
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
    let mut x = Vec::with_capacity(n + coupled.len() + 1);
    let mut next = vec![0.0; n];
    for _ in 0..if refine { MAX_ROUNDS } else { 0 } {
        point(&b, u, &mut x);
        w.iter_mut().chain(&mut g).for_each(|v| *v = 0.0);
        // The condition's value, and `w·b + g·c` (each term times its
        // degree), beside the gradient.
        let (mut value, mut tangent) = (0.0, 0.0);
        for (coef, exps) in condition.clone() {
            let mut t = coef;
            for &(v, e) in exps {
                t *= if e == 1.0 { x[v] } else { x[v].powf(e) };
            }
            value += t;
            for &(v, e) in exps {
                tangent += e * t;
                let slot = if v < n { &mut w[v] } else { &mut g[v - n] };
                *slot += e * t / x[v];
            }
        }
        let next_u = solve(&w, &g, qab - value + tangent, &mut next);
        let of_u = if dual.is_some() { next_u / u } else { 1.0 };
        let moved = (next.iter().zip(&b))
            .map(|(s, b)| s / b)
            .chain([of_u])
            .fold(0.0_f64, |m, ratio| m.max(ratio.ln().abs()));
        std::mem::swap(&mut b, &mut next);
        u = next_u;
        if moved < SETTLED {
            break;
        }
    }

    let mut guess = Vec::with_capacity(x.capacity());
    point(&b, u, &mut guess);
    guess.iter_mut().for_each(|v| *v = or_one(*v));
    let at_guess =
        condition.map(|(coef, exps)| (exps.iter()).fold(coef, |t, &(v, e)| t * guess[v].powf(e)));
    let mut interior = scalar_feasible_start(at_guess.sum(), qab, &guess, n)?;
    if dual.is_some() {
        // `rate(lambda_j, c_j) <= R` holds at the guess by construction.
        interior[n + coupled.len()] *= 2.0;
    }
    Ok((guess, interior))
}

/// The strictly feasible anchor below `guess`: its first `n` coordinates
/// (the primary DABs) scaled by the largest power of two `s <= 1/2` that
/// puts the condition at or under half of `qab`. Every term of a
/// deviation condition carries a primary factor, so `condition(s b) <= s
/// condition(b)` and its one evaluation `at_guess` fixes `s`.
fn scalar_feasible_start(
    at_guess: f64,
    qab: f64,
    guess: &[f64],
    n: usize,
) -> Result<Vec<f64>, DabError> {
    let s = (0.5 * qab / at_guess).log2().floor().exp2();
    let mut x = guess.to_vec();
    x[..n].iter_mut().for_each(|v| *v *= s.min(0.5));
    // A NaN `s` (non-finite condition) fails the first test.
    if s > 0.0 && x.iter().all(|v| v.is_finite() && *v > 0.0) {
        Ok(x)
    } else {
        Err(DabError::NoFeasibleStart)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pq_ddm::DataDynamicsModel;
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

    fn bits(a: &QueryAssignment) -> Vec<u64> {
        let ValidityRange::Box(secondary) = &a.validity else {
            panic!("dual-DAB validity is a box")
        };
        (a.primary.values().chain(secondary.values()))
            .chain(a.anchor.values())
            .chain([&a.recompute_rate, &a.refresh_rate])
            .map(|v| v.to_bits())
            .collect()
    }

    /// Two units shaped like the paper's (shared item, a square, a linear
    /// leg), installed at one set of values and recomputed at drifted
    /// ones: the recompute that writes the map's coefficients into the
    /// cached compiled GP returns the assignment, bit for bit, of the one
    /// that rebuilds the problem and refreshes the compiled GP from it.
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
            assert_eq!(bits(&a0), bits(&b0));
            assert!(through_map.aligned && cache_a.has_solution());
            // Same cache state, but nothing says its compiled GP takes
            // the map's coefficients: the problem is rebuilt.
            rebuilding.aligned = false;
            let a1 = through_map
                .solve(&at(&drifted), Some(&mut cache_a))
                .unwrap();
            let b1 = rebuilding.solve(&at(&drifted), Some(&mut cache_b)).unwrap();
            assert_eq!(bits(&a1), bits(&b1), "{ddm}");
            assert_ne!(bits(&a1), bits(&a0), "the recompute moved the DABs");
            assert!(a1.respects_qab(&q, 1e-6));
        }
    }

    /// A value reaching exactly zero removes monomials from the condition:
    /// the compiled GP cannot take the coefficients, the problem is
    /// rebuilt, and the program stays on that path until a rebuild holds
    /// every monomial again.
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
