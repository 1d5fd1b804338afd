//! First-order (gradient-bound) DAB assignment — an ablation baseline.
//!
//! Instead of the exact necessary-and-sufficient condition
//! `P(V+b) − P(V) ≤ B`, this scheme optimizes the refresh objective under
//! the *sufficient* first-order bound
//! `sum_i b_i · max_box |∂P/∂x_i| ≤ B`
//! (see [`pq_poly::linearized_sufficient`]). This is the natural
//! adaptation of gradient-style filter allocation (Olston & Widom's
//! adaptive filters reason this way for linear queries) to non-linear
//! polynomials: correct, rate-aware, optimally allocated — but built on a
//! conservative condition, so its DABs are strictly tighter than Optimal
//! Refresh's and it refreshes more. Isolates the value of the paper's
//! exact condition.

use pq_gp::{GpProblem, Posynomial};
use pq_poly::{linearized_sufficient, DabVarMap, PolynomialQuery};

use crate::assignment::{QueryAssignment, RangeKind, UnitColumns};
use crate::cache::{solve_cached, UnitCache};
use crate::context::SolveContext;
use crate::error::DabError;
use crate::ppq::predicted_start;

/// Optimal refresh allocation under the first-order sufficient condition.
///
/// Accepts any query: mixed-sign bodies are first made conservative with
/// absolute coefficients (`P1 + P2`), as in [`crate::baseline`].
pub fn linearized_filter(
    query: &PolynomialQuery,
    ctx: &SolveContext<'_>,
) -> Result<QueryAssignment, DabError> {
    UnitColumns::one_shot(|out| linearized_filter_cached(query, ctx, None, out))
}

/// [`linearized_filter`] with an optional warm-start cache (see
/// [`crate::cache::solve_cached`]), written into `out`.
pub(crate) fn linearized_filter_cached(
    query: &PolynomialQuery,
    ctx: &SolveContext<'_>,
    cache: Option<&mut UnitCache>,
    out: &mut UnitColumns,
) -> Result<(), DabError> {
    let (p1, p2) = query.poly().split_pos_neg();
    let body = if p2.is_zero() {
        p1
    } else if p1.is_zero() {
        p2
    } else {
        p1.add(&p2)
    };
    let vmap = DabVarMap::for_polynomial(&body, false);
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
    let condition = linearized_sufficient(&body, ctx.values, &vmap)?;
    problem.add_constraint_le(condition.clone(), query.qab())?;

    let refine = cache.as_ref().is_none_or(|c| !c.has_solution());
    let (guess, interior) =
        predicted_start(&condition, query.qab(), &lambdas, ctx.ddm, None, refine)?;
    let sol = solve_cached(&problem, &guess, &interior, &ctx.gp, cache)?;

    // The items of the absolute-value body are the query's.
    let cols = out.start(query.shared_items(), RangeKind::AnchorOnly);
    for (k, &item) in vmap.items().iter().enumerate() {
        (cols.primary[k], cols.anchor[k]) = (sol.x[k], ctx.value(item)?);
    }
    out.refresh_rate = sol.objective;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assignment::ValidityRange;
    use crate::ppq::optimal_refresh;
    use pq_poly::ItemId;

    fn x(i: u32) -> ItemId {
        ItemId(i)
    }

    #[test]
    fn linearized_is_correct_but_tighter_than_optimal() {
        let q = PolynomialQuery::portfolio([(1.0, x(0), x(1))], 5.0).unwrap();
        let values = [40.0, 20.0];
        let rates = [1.0, 2.0];
        let ctx = SolveContext::new(&values, &rates);
        let lin = linearized_filter(&q, &ctx).unwrap();
        let opt = optimal_refresh(&q, &ctx).unwrap();
        assert!(lin.respects_qab(&q, 1e-6));
        assert!(
            lin.refresh_rate >= opt.refresh_rate - 1e-9,
            "linearized {} must refresh at least as much as optimal {}",
            lin.refresh_rate,
            opt.refresh_rate
        );
    }

    #[test]
    fn handles_mixed_sign_queries() {
        let q = PolynomialQuery::arbitrage([(1.0, x(0), x(1))], [(1.0, x(2), x(3))], 5.0).unwrap();
        let values = [20.0, 3.0, 18.0, 3.0];
        let rates = [1.0; 4];
        let ctx = SolveContext::new(&values, &rates);
        let a = linearized_filter(&q, &ctx).unwrap();
        assert!(a.respects_qab(&q, 1e-6));
        assert_eq!(a.validity, ValidityRange::AnchorOnly);
    }

    #[test]
    fn rate_awareness_still_applies() {
        // The faster item still gets the wider DAB under the linearized
        // condition.
        let q = PolynomialQuery::portfolio([(1.0, x(0), x(1))], 5.0).unwrap();
        let values = [20.0, 20.0];
        let rates = [100.0, 1.0];
        let ctx = SolveContext::new(&values, &rates);
        let a = linearized_filter(&q, &ctx).unwrap();
        assert!(a.primary_dab(x(0)).unwrap() > a.primary_dab(x(1)).unwrap());
    }
}
