//! Closed-form DABs for Linear Aggregate Queries.
//!
//! For `Q = sum_i w_i x_i : B`, the worst-case deviation is
//! `sum_i |w_i| b_i` — independent of the current data values. The
//! necessary-and-sufficient condition is therefore *stable*: the
//! assignment never needs recomputation (the paper treats LAQs separately
//! for exactly this reason; §I-A, footnote 2).
//!
//! Both ddms admit Lagrange closed forms:
//!
//! * monotonic: minimize `sum lambda_i / b_i` s.t. `sum a_i b_i <= B`
//!   gives `b_i = sqrt(lambda_i / a_i) * B / sum_j sqrt(lambda_j a_j)`;
//! * random walk: minimize `sum (lambda_i / b_i)^2` gives
//!   `b_i ∝ (lambda_i^2 / a_i)^{1/3}`, scaled so the constraint is tight.

use std::sync::Arc;

use pq_ddm::DataDynamicsModel;
use pq_poly::{ItemId, PolyError, Polynomial, PolynomialQuery, QueryClass};

use crate::assignment::{QueryAssignment, RangeKind, UnitColumns};
use crate::context::SolveContext;
use crate::error::DabError;

/// Closed-form optimal DABs for a linear aggregate query.
///
/// # Errors
/// [`DabError::UnsupportedQueryClass`] for non-linear queries.
pub fn linear_closed_form(
    query: &PolynomialQuery,
    ctx: &SolveContext<'_>,
) -> Result<QueryAssignment, DabError> {
    if query.class() != QueryClass::LinearAggregate {
        return Err(DabError::UnsupportedQueryClass {
            detail: "closed form applies to degree-1 queries only",
        });
    }
    UnitColumns::one_shot(|out| {
        linear_closed_form_into(query.poly(), query.shared_items(), query.qab(), ctx, out)
    })
}

/// [`linear_closed_form`] for the degree-1 body `poly : qab` over its
/// items, written into `out`.
pub(crate) fn linear_closed_form_into(
    poly: &Polynomial,
    items: &Arc<[ItemId]>,
    qab: f64,
    ctx: &SolveContext<'_>,
    out: &mut UnitColumns,
) -> Result<(), DabError> {
    if poly.is_zero() {
        return Err(PolyError::EmptyPolynomial.into());
    }
    if !(qab.is_finite() && qab > 0.0) {
        return Err(PolyError::InvalidBound(qab).into());
    }
    // Collect (item, |w|, lambda); the polynomial merges items, and the
    // constant term (no vars) does not affect the deviation.
    let mut entries = Vec::new();
    for t in poly.terms() {
        match t.vars() {
            [] => {}
            [(item, 1)] => entries.push((*item, t.coef().abs(), ctx.rate(*item)?)),
            _ => unreachable!("degree-1 polynomial has single-variable terms"),
        }
    }
    if entries.is_empty() {
        return Err(DabError::Poly(PolyError::EmptyPolynomial));
    }

    let b_total = qab;
    let dabs: Vec<f64> = match ctx.ddm {
        DataDynamicsModel::Monotonic => {
            let denom: f64 = entries.iter().map(|&(_, a, l)| (l * a).sqrt()).sum();
            entries
                .iter()
                .map(|&(_, a, l)| (l / a).sqrt() * b_total / denom)
                .collect()
        }
        DataDynamicsModel::RandomWalk => {
            let shape: Vec<f64> = entries
                .iter()
                .map(|&(_, a, l)| (l * l / a).powf(1.0 / 3.0))
                .collect();
            let denom: f64 = entries
                .iter()
                .zip(&shape)
                .map(|(&(_, a, _), s)| a * s)
                .sum();
            shape.iter().map(|s| s * b_total / denom).collect()
        }
    };

    let refresh_rate = entries
        .iter()
        .zip(&dabs)
        .map(|(&(_, _, l), &b)| ctx.ddm.refresh_rate(l, b))
        .sum();
    let cols = out.start(items, RangeKind::Always);
    // Terms come in the body's order, the columns in the items'.
    for (&(item, _, _), &b) in entries.iter().zip(&dabs) {
        let k = items
            .binary_search(&item)
            .expect("a term's item is an item");
        (cols.anchor[k], cols.primary[k]) = (ctx.value(item)?, b);
    }
    out.refresh_rate = refresh_rate;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assignment::ValidityRange;
    use pq_gp::{GpProblem, Monomial, Posynomial, SolverOptions};
    use pq_poly::ItemId;

    fn x(i: u32) -> ItemId {
        ItemId(i)
    }

    /// Solves the same LAQ program with the GP solver for cross-checking.
    fn gp_reference(
        weights: &[(f64, ItemId)],
        rates: &[f64],
        qab: f64,
        ddm: DataDynamicsModel,
    ) -> Vec<f64> {
        let n = weights.len();
        let mut p = GpProblem::new(n);
        let mut obj = Posynomial::zero();
        for (k, &(_, item)) in weights.iter().enumerate() {
            let coef = ddm.refresh_coef(rates[item.index()]);
            obj.push(Monomial::new(coef, [(k, -ddm.exponent())]).unwrap());
        }
        p.set_objective(obj).unwrap();
        let mut c = Posynomial::zero();
        for (k, &(w, _)) in weights.iter().enumerate() {
            c.push(Monomial::new(w.abs(), [(k, 1.0)]).unwrap());
        }
        p.add_constraint_le(c, qab).unwrap();
        let wsum: f64 = weights.iter().map(|&(w, _)| w.abs()).sum();
        let start = vec![0.25 * qab / wsum; n];
        pq_gp::solve_with_start(&p, &start, &SolverOptions::default())
            .unwrap()
            .x
    }

    #[test]
    fn closed_form_matches_gp_solver_monotonic() {
        let weights = [(2.0, x(0)), (-3.0, x(1)), (1.0, x(2))];
        let values = [10.0, 20.0, 30.0];
        let rates = [1.0, 4.0, 0.25];
        let q = PolynomialQuery::linear_aggregate(weights, 2.0).unwrap();
        let ctx = SolveContext::new(&values, &rates);
        let a = linear_closed_form(&q, &ctx).unwrap();
        let gp = gp_reference(&weights, &rates, 2.0, DataDynamicsModel::Monotonic);
        for (k, &(_, item)) in weights.iter().enumerate() {
            let b = a.primary_dab(item).unwrap();
            assert!(
                (b - gp[k]).abs() < 1e-4 * gp[k],
                "item {item}: closed {b} vs gp {}",
                gp[k]
            );
        }
        assert_eq!(a.validity, ValidityRange::Always);
        assert_eq!(a.recompute_rate, 0.0);
    }

    #[test]
    fn closed_form_matches_gp_solver_random_walk() {
        let weights = [(1.0, x(0)), (5.0, x(1))];
        let values = [10.0, 20.0];
        let rates = [2.0, 0.5];
        let q = PolynomialQuery::linear_aggregate(weights, 3.0).unwrap();
        let ctx = SolveContext::new(&values, &rates).with_ddm(DataDynamicsModel::RandomWalk);
        let a = linear_closed_form(&q, &ctx).unwrap();
        let gp = gp_reference(&weights, &rates, 3.0, DataDynamicsModel::RandomWalk);
        for (k, &(_, item)) in weights.iter().enumerate() {
            let b = a.primary_dab(item).unwrap();
            assert!(
                (b - gp[k]).abs() < 1e-3 * gp[k],
                "item {item}: closed {b} vs gp {}",
                gp[k]
            );
        }
    }

    #[test]
    fn constraint_is_tight_and_respected() {
        let weights = [(2.0, x(0)), (-7.0, x(1))];
        let values = [1.0, 1.0];
        let rates = [1.0, 1.0];
        let q = PolynomialQuery::linear_aggregate(weights, 4.0).unwrap();
        let ctx = SolveContext::new(&values, &rates);
        let a = linear_closed_form(&q, &ctx).unwrap();
        let used: f64 = weights
            .iter()
            .map(|&(w, item)| w.abs() * a.primary_dab(item).unwrap())
            .sum();
        assert!((used - 4.0).abs() < 1e-9, "budget should be saturated");
        assert!(a.respects_qab(&q, 1e-9));
    }

    #[test]
    fn rejects_nonlinear_queries() {
        let q = PolynomialQuery::portfolio([(1.0, x(0), x(1))], 1.0).unwrap();
        let values = [1.0, 1.0];
        let rates = [1.0, 1.0];
        let ctx = SolveContext::new(&values, &rates);
        assert!(matches!(
            linear_closed_form(&q, &ctx),
            Err(DabError::UnsupportedQueryClass { .. })
        ));
    }

    #[test]
    fn equal_rates_and_weights_split_evenly() {
        let weights = [(1.0, x(0)), (1.0, x(1)), (1.0, x(2)), (1.0, x(3))];
        let values = [1.0; 4];
        let rates = [1.0; 4];
        let q = PolynomialQuery::linear_aggregate(weights, 8.0).unwrap();
        let ctx = SolveContext::new(&values, &rates);
        let a = linear_closed_form(&q, &ctx).unwrap();
        for &(_, item) in &weights {
            assert!((a.primary_dab(item).unwrap() - 2.0).abs() < 1e-12);
        }
    }
}
