//! Baseline DAB-assignment schemes for comparison (§II, §V-A).
//!
//! * [`per_item_split`] — an adaptation of the geometric approach of
//!   Sharfman et al. (SIGMOD'06), reference \[5\] of the paper: instead of
//!   one necessary-and-sufficient condition, the accuracy budget `B` is
//!   split into `n` per-item sufficient conditions (`B/n` each), yielding
//!   more stringent DABs than the optimal formulation (§V-A,
//!   "Comparison with related work"). A final global scale-down keeps the
//!   combined cross terms within `B`, preserving correctness.
//!
//! * [`equal_dab`] — the naive scheme: one common DAB width for every
//!   item, as large as the QAB allows. Ignores both weights and rates.
//!
//! Both are value-dependent with no validity range, so — like Optimal
//! Refresh — they must be recomputed on every refresh.

use pq_poly::{deviation_posynomial, DabVarMap, PolynomialQuery};

use crate::assignment::{QueryAssignment, RangeKind, UnitColumns};
use crate::context::SolveContext;
use crate::error::DabError;
use crate::strategy::abs_body;

/// Per-item budget-split baseline (Sharfman-style, adapted).
pub fn per_item_split(
    query: &PolynomialQuery,
    ctx: &SolveContext<'_>,
) -> Result<QueryAssignment, DabError> {
    UnitColumns::one_shot(|out| per_item_split_into(query, ctx, out))
}

/// [`per_item_split`], written into `out`.
pub(crate) fn per_item_split_into(
    query: &PolynomialQuery,
    ctx: &SolveContext<'_>,
    out: &mut UnitColumns,
) -> Result<(), DabError> {
    let body = abs_body(query.poly());
    let vmap = DabVarMap::for_polynomial(&body, false);
    let n = vmap.n_items();
    let condition = deviation_posynomial(&body, ctx.values, &vmap)?;
    let budget = query.qab() / n as f64;

    // Per-item: largest b_i whose solo deviation fits B/n.
    let mut dabs = vec![0.0; n];
    let mut probe = vec![0.0; n];
    for k in 0..n {
        probe.iter_mut().for_each(|v| *v = 0.0);
        // Zero entries are fine: deviation posynomials have positive
        // exponents only, so 0^e = 0 and untouched items contribute 0.
        dabs[k] = bisect_largest(|b| {
            probe[k] = b;
            let g = condition.eval(&probe);
            probe[k] = 0.0;
            g <= budget
        });
    }

    // Global correctness pass: cross terms (b_i * b_j) can push the
    // combined deviation past B; scale down uniformly if needed.
    let total = condition.eval(&dabs);
    if total > query.qab() {
        let t = bisect_largest(|t| {
            let scaled: Vec<f64> = dabs.iter().map(|b| b * t).collect();
            condition.eval(&scaled) <= query.qab()
        });
        for b in &mut dabs {
            *b *= t.min(1.0);
        }
    }

    finish(query, ctx, &dabs, out)
}

/// Equal-width baseline: the largest common DAB satisfying the QAB.
pub fn equal_dab(
    query: &PolynomialQuery,
    ctx: &SolveContext<'_>,
) -> Result<QueryAssignment, DabError> {
    UnitColumns::one_shot(|out| equal_dab_into(query, ctx, out))
}

/// [`equal_dab`], written into `out`.
pub(crate) fn equal_dab_into(
    query: &PolynomialQuery,
    ctx: &SolveContext<'_>,
    out: &mut UnitColumns,
) -> Result<(), DabError> {
    let body = abs_body(query.poly());
    let vmap = DabVarMap::for_polynomial(&body, false);
    let n = vmap.n_items();
    let condition = deviation_posynomial(&body, ctx.values, &vmap)?;
    let s = bisect_largest(|s| condition.eval(&vec![s; n]) <= query.qab());
    finish(query, ctx, &vec![s; n], out)
}

/// Writes `dabs`, one per item of `query` (the items of its
/// absolute-value body, the same ones), as an anchor-only assignment.
fn finish(
    query: &PolynomialQuery,
    ctx: &SolveContext<'_>,
    dabs: &[f64],
    out: &mut UnitColumns,
) -> Result<(), DabError> {
    let items = query.shared_items();
    let cols = out.start(items, RangeKind::AnchorOnly);
    let mut refresh_rate = 0.0;
    for (k, &item) in items.iter().enumerate() {
        (cols.primary[k], cols.anchor[k]) = (dabs[k], ctx.value(item)?);
        refresh_rate += ctx.ddm.refresh_rate(ctx.rate(item)?, dabs[k].max(1e-300));
    }
    out.refresh_rate = refresh_rate;
    Ok(())
}

/// Largest `v > 0` satisfying the monotone predicate, via doubling then
/// 80 bisection steps. Returns 0 if even tiny values fail.
fn bisect_largest(mut ok: impl FnMut(f64) -> bool) -> f64 {
    let mut lo = 0.0_f64;
    let mut hi = 1.0_f64;
    if ok(hi) {
        for _ in 0..200 {
            let next = hi * 2.0;
            if ok(next) {
                hi = next;
            } else {
                break;
            }
        }
        lo = hi;
        hi *= 2.0;
    } else {
        // Shrink until feasible to establish a bracket.
        let mut found = false;
        for _ in 0..400 {
            hi *= 0.5;
            if ok(hi) {
                lo = hi;
                hi *= 2.0;
                found = true;
                break;
            }
        }
        if !found {
            return 0.0;
        }
    }
    for _ in 0..80 {
        let mid = 0.5 * (lo + hi);
        if ok(mid) {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    lo
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
    fn per_item_split_is_more_stringent_than_optimal() {
        // §V-A: the n-sufficient-conditions approach yields tighter DABs,
        // hence more refreshes, than Optimal Refresh.
        let q = PolynomialQuery::portfolio([(1.0, x(0), x(1))], 5.0).unwrap();
        let values = [40.0, 20.0];
        let rates = [1.0, 1.0];
        let ctx = SolveContext::new(&values, &rates);
        let base = per_item_split(&q, &ctx).unwrap();
        let opt = optimal_refresh(&q, &ctx).unwrap();
        assert!(
            base.refresh_rate >= opt.refresh_rate,
            "baseline refreshes {} must be >= optimal {}",
            base.refresh_rate,
            opt.refresh_rate
        );
        assert!(base.respects_qab(&q, 1e-6));
    }

    #[test]
    fn per_item_split_handles_cross_terms_correctly() {
        // Without the scale-down pass, xy with per-item budgets B/2 each
        // would overshoot by b_x * b_y.
        let q = PolynomialQuery::portfolio([(1.0, x(0), x(1))], 4.0).unwrap();
        let values = [2.0, 2.0];
        let rates = [1.0, 1.0];
        let ctx = SolveContext::new(&values, &rates);
        let a = per_item_split(&q, &ctx).unwrap();
        assert!(a.respects_qab(&q, 1e-9));
        let bx = a.primary_dab(x(0)).unwrap();
        let by = a.primary_dab(x(1)).unwrap();
        // Solo budgets alone give b = 1 each; total 2+2+1 = 5 > 4, so the
        // scale-down must have fired.
        assert!(bx < 1.0 && by < 1.0, "bx={bx} by={by}");
    }

    #[test]
    fn equal_dab_assigns_common_width() {
        let q = PolynomialQuery::portfolio([(1.0, x(0), x(1)), (1.0, x(2), x(3))], 6.0).unwrap();
        let values = [10.0, 1.0, 5.0, 2.0];
        let rates = [1.0; 4];
        let ctx = SolveContext::new(&values, &rates);
        let a = equal_dab(&q, &ctx).unwrap();
        let widths: Vec<f64> = a.primary.values().copied().collect();
        assert!(widths.windows(2).all(|w| (w[0] - w[1]).abs() < 1e-12));
        assert!(a.respects_qab(&q, 1e-6));
    }

    #[test]
    fn baselines_handle_mixed_sign_queries() {
        let q = PolynomialQuery::arbitrage([(1.0, x(0), x(1))], [(1.0, x(2), x(3))], 5.0).unwrap();
        let values = [20.0, 3.0, 18.0, 3.0];
        let rates = [1.0; 4];
        let ctx = SolveContext::new(&values, &rates);
        for a in [
            per_item_split(&q, &ctx).unwrap(),
            equal_dab(&q, &ctx).unwrap(),
        ] {
            assert!(a.respects_qab(&q, 1e-6));
            assert_eq!(a.validity, ValidityRange::AnchorOnly);
        }
    }

    #[test]
    fn matches_paper_comparison_shape() {
        // §V-A comparison (B = 50 at V = (40, 20)): the per-item-split
        // baseline solves n sufficient conditions and ends up with a worse
        // refresh objective than Optimal Refresh's single
        // necessary-and-sufficient condition.
        let q = PolynomialQuery::portfolio([(1.0, x(0), x(1))], 50.0).unwrap();
        let values = [40.0, 20.0];
        let rates = [1.0, 1.0];
        let ctx = SolveContext::new(&values, &rates);
        let base = per_item_split(&q, &ctx).unwrap();
        let opt = optimal_refresh(&q, &ctx).unwrap();
        assert!(
            opt.refresh_rate < base.refresh_rate,
            "optimal {} vs baseline {}",
            opt.refresh_rate,
            base.refresh_rate
        );
        // Both saturate the QAB but allocate differently: the baseline's
        // per-item budgets force b_x/b_y = V_y-to-V_x inverse proportions.
        let ratio = base.primary_dab(x(0)).unwrap() / base.primary_dab(x(1)).unwrap();
        assert!((ratio - 2.0).abs() < 1e-6, "baseline ratio {ratio}");
    }
}
