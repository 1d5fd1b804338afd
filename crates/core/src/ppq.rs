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
use pq_poly::{deviation_posynomial, DabVarMap, PartialDabVarMap, PolynomialQuery, QueryClass};

use crate::assignment::{QueryAssignment, ValidityRange};
use crate::cache::{solve_cached, UnitCache};
use crate::context::SolveContext;
use crate::error::DabError;

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
    optimal_refresh_cached(query, ctx, None)
}

/// [`optimal_refresh`] with an optional warm-start cache: when `cache` is
/// supplied the GP is solved through [`crate::cache::solve_cached`]
/// (compiled-posynomial reuse + warm start from the last optimum).
pub(crate) fn optimal_refresh_cached(
    query: &PolynomialQuery,
    ctx: &SolveContext<'_>,
    cache: Option<&mut UnitCache>,
) -> Result<QueryAssignment, DabError> {
    require_ppq(query)?;
    let vmap = DabVarMap::for_polynomial(query.poly(), false);
    let n = vmap.n_items();

    let mut problem = GpProblem::new(n);
    let mut objective = Posynomial::zero();
    let mut lambdas = Vec::with_capacity(n);
    for (k, &item) in vmap.items().iter().enumerate() {
        let lambda = ctx.rate(item)?;
        lambdas.push(lambda);
        objective.push(
            ctx.ddm
                .refresh_monomial(lambda, k)
                .expect("rate is floored positive"),
        );
    }
    problem.set_objective(objective)?;
    let condition = deviation_posynomial(query.poly(), ctx.values, &vmap)?;
    problem.add_constraint_le(condition.clone(), query.qab())?;

    let refine = cache.as_ref().is_none_or(|c| !c.has_solution());
    let (guess, interior) =
        predicted_start(&condition, query.qab(), &lambdas, ctx.ddm, None, refine)?;
    let sol = solve_cached(&problem, &guess, &interior, &ctx.gp, cache)?;

    let primary: BTreeMap<_, _> = vmap
        .items()
        .iter()
        .enumerate()
        .map(|(k, &item)| (item, sol.x[k]))
        .collect();
    let anchor = anchor_map(vmap.items(), ctx)?;
    Ok(QueryAssignment {
        primary,
        validity: ValidityRange::AnchorOnly,
        anchor,
        recompute_rate: 0.0,
        refresh_rate: sol.objective,
    })
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
    dual_dab_cached(query, ctx, mu, None)
}

/// [`dual_dab`] with an optional warm-start cache (see
/// [`crate::cache::solve_cached`]).
pub(crate) fn dual_dab_cached(
    query: &PolynomialQuery,
    ctx: &SolveContext<'_>,
    mu: f64,
    cache: Option<&mut UnitCache>,
) -> Result<QueryAssignment, DabError> {
    if !(mu.is_finite() && mu > 0.0) {
        return Err(DabError::InvalidMu(mu));
    }
    require_ppq(query)?;
    // Secondary DABs only for items whose reference value can invalidate
    // the condition; linear-only items get `c = infinity` (they never
    // trigger recomputation, like LAQ items).
    let vmap = PartialDabVarMap::for_polynomial(query.poly());
    let n = vmap.n_items();
    let n_coupled = vmap.coupled().len();
    let r_var = vmap.n_vars(); // b: 0..n, c: n..n+n_coupled, R last.

    let mut problem = GpProblem::new(r_var + 1);
    // Objective: sum_i refresh(lambda_i, b_i) + mu * R.
    let mut objective = Posynomial::zero();
    let mut lambdas = Vec::with_capacity(n);
    for (k, &item) in vmap.items().iter().enumerate() {
        let lambda = ctx.rate(item)?;
        lambdas.push(lambda);
        objective.push(
            ctx.ddm
                .refresh_monomial(lambda, k)
                .expect("rate is floored positive"),
        );
    }
    objective.push(Monomial::new(mu, [(r_var, 1.0)])?);
    problem.set_objective(objective)?;

    // QAB condition over the validity range (Eq. 2).
    let condition = deviation_posynomial(query.poly(), ctx.values, &vmap)?;
    problem.add_constraint_le(condition.clone(), query.qab())?;

    // For coupled items: b_i <= c_i and recompute-rate coupling
    // rate(lambda_i, c_i) <= R.
    let mut coupled_b = Vec::with_capacity(n_coupled);
    for (j, &item) in vmap.coupled().iter().enumerate() {
        let b_var = vmap
            .items()
            .binary_search(&item)
            .expect("coupled is subset");
        let c_var = n + j;
        coupled_b.push(b_var);
        problem.add_var_le_var(b_var, c_var)?;
        let escape = ctx
            .ddm
            .refresh_monomial(lambdas[b_var], c_var)
            .expect("rate is floored positive");
        let coupled = escape.mul(&Monomial::new(1.0, [(r_var, -1.0)])?);
        problem.add_constraint(Posynomial::monomial(coupled))?;
    }

    let (guess, interior) = predicted_start(
        &condition,
        query.qab(),
        &lambdas,
        ctx.ddm,
        Some((mu, &coupled_b)),
        cache.as_ref().is_none_or(|c| !c.has_solution()),
    )?;
    let sol = solve_cached(&problem, &guess, &interior, &ctx.gp, cache)?;

    let primary: BTreeMap<_, _> = vmap
        .items()
        .iter()
        .enumerate()
        .map(|(k, &item)| (item, sol.x[k]))
        .collect();
    let mut secondary: BTreeMap<_, _> = vmap
        .items()
        .iter()
        .map(|&item| (item, f64::INFINITY))
        .collect();
    for (j, &item) in vmap.coupled().iter().enumerate() {
        secondary.insert(item, sol.x[n + j]);
    }
    let refresh_rate: f64 = lambdas
        .iter()
        .zip(&sol.x[..n])
        .map(|(&l, &b)| ctx.ddm.refresh_rate(l, b))
        .sum();
    ctx.gp
        .obs
        .emit_with(pq_obs::names::DAB_SOLVE, pq_obs::EventKind::Point, |e| {
            e.with("kind", "dual-dab")
                .with("items", n)
                .with("coupled", n_coupled)
                .with("mu", mu)
                .with("refresh_rate", refresh_rate)
                .with("recompute_rate", sol.x[r_var])
        });
    let anchor = anchor_map(vmap.items(), ctx)?;
    Ok(QueryAssignment {
        primary,
        validity: ValidityRange::Box(secondary),
        anchor,
        recompute_rate: sol.x[r_var],
        refresh_rate,
    })
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

fn anchor_map(
    items: &[pq_poly::ItemId],
    ctx: &SolveContext<'_>,
) -> Result<BTreeMap<pq_poly::ItemId, f64>, DabError> {
    items
        .iter()
        .map(|&item| Ok((item, ctx.value(item)?)))
        .collect()
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
    for m in condition.terms() {
        if let [(k, e)] = *m.exponents() {
            if k < n && e == 1.0 {
                w[k] += m.coef();
            }
        }
    }
    let mut b = vec![0.0; n];
    let mut u = solve(&w, &[], qab, &mut b);
    if dual.is_some() {
        for m in condition.terms() {
            if let [(k, ek), (v, ev)] = *m.exponents() {
                if k < n && v >= n && ek == 1.0 && ev == 1.0 {
                    g[v - n] += m.coef() * b[k];
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
        for m in condition.terms() {
            let mut t = m.coef();
            for &(v, e) in m.exponents() {
                t *= if e == 1.0 { x[v] } else { x[v].powf(e) };
            }
            value += t;
            for &(v, e) in m.exponents() {
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
    let mut interior = scalar_feasible_start(condition, qab, &guess, n)?;
    if dual.is_some() {
        // `rate(lambda_j, c_j) <= R` holds at the guess by construction.
        interior[n + coupled.len()] *= 2.0;
    }
    Ok((guess, interior))
}

/// The strictly feasible anchor below `guess`: its first `n` coordinates
/// (the primary DABs) scaled by the largest power of two `s <= 1/2` that
/// puts `condition` at or under half of `qab`. Every term of a deviation
/// condition carries a primary factor, so `condition(s b) <= s
/// condition(b)` and one evaluation fixes `s`.
fn scalar_feasible_start(
    condition: &Posynomial,
    qab: f64,
    guess: &[f64],
    n: usize,
) -> Result<Vec<f64>, DabError> {
    let s = (0.5 * qab / condition.eval(guess)).log2().floor().exp2();
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
