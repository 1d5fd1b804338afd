//! Heuristics for general (mixed-sign) polynomial queries (§III-B).
//!
//! No efficient technique finds optimal DABs for a polynomial with
//! positive *and* negative coefficients — the QAB condition stops being a
//! posynomial constraint. The paper's key observation: any polynomial
//! splits as `P = P1 − P2` with `P1, P2` positive-coefficient. Two
//! heuristics follow:
//!
//! * **Half and Half** — solve `P1 : B/2` and `P2 : B/2` separately and
//!   install the per-item minimum. Correct because `|ΔP| > B` implies
//!   `|ΔP1| > B/2` or `|ΔP2| > B/2`.
//! * **Different Sum** — solve the single PPQ `P1 + P2 : B`. Correct by
//!   Claim 1 (the `Q' = P1 + P2` condition dominates the `Q = P1 − P2`
//!   condition term-by-term), and provably near-optimal for independent
//!   sub-polynomials with small DABs (Claim 2: within `1/(1−α)^d` of
//!   optimal under the monotonic ddm).

use std::sync::Arc;

use pq_poly::{Polynomial, PolynomialQuery};

use crate::assignment::{QueryAssignment, UnitColumns, ValidityRange};
use crate::cache::UnitCache;
use crate::context::SolveContext;
use crate::error::DabError;
use crate::laq::linear_closed_form_into;
use crate::ppq::PpqProgram;
use crate::strategy::AssignmentUnit;

/// Which §III-B heuristic to use for mixed-sign queries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PqHeuristic {
    /// Solve `P1 : B/2` and `P2 : B/2` separately; min per item.
    HalfAndHalf,
    /// Solve `P1 + P2 : B` as one PPQ (the paper's recommendation).
    DifferentSum,
}

impl PqHeuristic {
    /// Stable lowercase name used in telemetry and result tables.
    pub fn name(&self) -> &'static str {
        match self {
            PqHeuristic::HalfAndHalf => "half-and-half",
            PqHeuristic::DifferentSum => "different-sum",
        }
    }
}

/// How each positive-coefficient (sub-)problem is solved.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PpqMethod {
    /// §III-A.1 — optimal in refreshes, recomputes on every refresh.
    OptimalRefresh,
    /// §III-A.2 — Dual-DAB with recomputation cost `mu`.
    DualDab {
        /// Recomputation cost in messages.
        mu: f64,
    },
}

impl PpqMethod {
    /// Dual-DAB's recomputation cost; `None` under Optimal Refresh.
    pub(crate) fn mu(self) -> Option<f64> {
        match self {
            PpqMethod::OptimalRefresh => None,
            PpqMethod::DualDab { mu } => Some(mu),
        }
    }
}

/// Assigns DABs for a general polynomial query `P : B` via `heuristic`,
/// solving each positive-coefficient piece with `method`.
///
/// Also accepts pure PPQs and LAQs (they skip the split).
pub fn general_pq(
    query: &PolynomialQuery,
    ctx: &SolveContext<'_>,
    heuristic: PqHeuristic,
    method: PpqMethod,
) -> Result<QueryAssignment, DabError> {
    let (p1, p2) = query.poly().split_pos_neg();
    let split = if p2.is_zero() || p1.is_zero() {
        "single-sign"
    } else {
        heuristic.name()
    };
    ctx.gp
        .obs
        .emit_with(pq_obs::names::CORE_ASSIGN, pq_obs::EventKind::Point, |e| {
            e.with("split", split).with("qab", query.qab()).with(
                "method",
                match method {
                    PpqMethod::OptimalRefresh => "optimal-refresh",
                    PpqMethod::DualDab { .. } => "dual-dab",
                },
            )
        });
    if p2.is_zero() {
        return solve_positive(p1, query.qab(), ctx, method);
    }
    if p1.is_zero() {
        // P = -P2: the deviation of -P2 equals the deviation of P2.
        return solve_positive(p2, query.qab(), ctx, method);
    }
    match heuristic {
        PqHeuristic::DifferentSum => solve_positive(p1.add(&p2), query.qab(), ctx, method),
        PqHeuristic::HalfAndHalf => {
            let half = query.qab() / 2.0;
            let a1 = solve_positive(p1, half, ctx, method)?;
            let a2 = solve_positive(p2, half, ctx, method)?;
            Ok(merge_min(a1, a2, ctx))
        }
    }
}

/// Solves a positive-coefficient polynomial `P : B`, dispatching linear
/// bodies to the closed form.
pub(crate) fn solve_positive(
    poly: Polynomial,
    qab: f64,
    ctx: &SolveContext<'_>,
    method: PpqMethod,
) -> Result<QueryAssignment, DabError> {
    let unit = AssignmentUnit::new(poly, qab);
    UnitColumns::one_shot(|out| solve_positive_cached(&unit, ctx, method, None, out))
}

/// What a non-linear positive-coefficient unit `P : B` compiles to, once:
/// its GP program, and the body it was compiled from — the unit's own
/// copy, shared. Kept in the unit's [`UnitCache`] so a recompute clones,
/// checks and classifies nothing.
#[derive(Debug)]
pub(crate) struct UnitProgram {
    body: Arc<Polynomial>,
    gp: PpqProgram,
}

impl UnitProgram {
    /// True when these arguments compile to this program.
    fn is_for(
        &self,
        body: &Arc<Polynomial>,
        qab: f64,
        ctx: &SolveContext<'_>,
        method: PpqMethod,
    ) -> bool {
        (Arc::ptr_eq(&self.body, body) || self.body == *body) && self.gp.serves(qab, method, ctx)
    }
}

/// [`solve_positive`] of a unit into `out`, with an optional per-unit
/// cache. Linear bodies take the closed form (nothing to solve, nothing
/// to keep); GP solves thread the cache through, and the cache keeps the
/// unit's [`UnitProgram`] between calls.
pub(crate) fn solve_positive_cached(
    unit: &AssignmentUnit,
    ctx: &SolveContext<'_>,
    method: PpqMethod,
    mut cache: Option<&mut UnitCache>,
    out: &mut UnitColumns,
) -> Result<(), DabError> {
    let (body, qab) = (&unit.body, unit.qab);
    if body.is_linear() {
        // Installed once: a linear unit's assignment is valid forever.
        return linear_closed_form_into(body, unit.items(), qab, ctx, out);
    }
    let kept = (cache.as_mut().and_then(|c| c.program.take()))
        .filter(|program| program.is_for(body, qab, ctx, method));
    let mut program = match kept {
        Some(program) => program,
        None => UnitProgram {
            body: body.clone(),
            gp: PpqProgram::for_body(body, unit.items(), unit.coupled(), qab, method, ctx)?,
        },
    };
    let result = program.gp.solve_into(ctx, cache.as_deref_mut(), out);
    if let Some(cache) = cache {
        cache.program = Some(program);
    }
    result
}

/// Half-and-Half combination: per-item minimum primary DAB, intersection
/// of validity ranges, summed recomputation rates.
fn merge_min(a1: QueryAssignment, a2: QueryAssignment, ctx: &SolveContext<'_>) -> QueryAssignment {
    let mut primary = a1.primary.clone();
    for (&item, &b) in &a2.primary {
        primary
            .entry(item)
            .and_modify(|cur| *cur = cur.min(b))
            .or_insert(b);
    }
    let mut anchor = a1.anchor.clone();
    for (&item, &v) in &a2.anchor {
        anchor.entry(item).or_insert(v);
    }

    let validity = match (&a1.validity, &a2.validity) {
        (ValidityRange::Always, ValidityRange::Always) => ValidityRange::Always,
        (ValidityRange::Always, ValidityRange::Box(c)) => ValidityRange::Box(c.clone()),
        (ValidityRange::Box(c), ValidityRange::Always) => ValidityRange::Box(c.clone()),
        (ValidityRange::Box(c1), ValidityRange::Box(c2)) => {
            let mut merged = c1.clone();
            for (&item, &c) in c2 {
                merged
                    .entry(item)
                    .and_modify(|cur| *cur = cur.min(c))
                    .or_insert(c);
            }
            ValidityRange::Box(merged)
        }
        // Any AnchorOnly side makes the combination anchor-only.
        _ => ValidityRange::AnchorOnly,
    };

    // The installed (minimum) DABs change the actual refresh rate.
    let refresh_rate = primary
        .iter()
        .map(|(&item, &b)| {
            let lambda = ctx.rate(item).unwrap_or(1e-9);
            ctx.ddm.refresh_rate(lambda, b)
        })
        .sum();
    QueryAssignment {
        primary,
        validity,
        anchor,
        recompute_rate: a1.recompute_rate + a2.recompute_rate,
        refresh_rate,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pq_poly::ItemId;

    fn x(i: u32) -> ItemId {
        ItemId(i)
    }

    /// Q = x0 x1 - x2 x3 : B — the paper's running example (§III-B).
    fn arbitrage(qab: f64) -> PolynomialQuery {
        PolynomialQuery::arbitrage([(1.0, x(0), x(1))], [(1.0, x(2), x(3))], qab).unwrap()
    }

    fn ctx_data() -> ([f64; 4], [f64; 4]) {
        ([20.0, 30.0, 25.0, 24.0], [1.0, 0.5, 0.7, 0.3])
    }

    #[test]
    fn both_heuristics_produce_valid_assignments() {
        let q = arbitrage(5.0);
        let (values, rates) = ctx_data();
        let ctx = SolveContext::new(&values, &rates);
        for h in [PqHeuristic::HalfAndHalf, PqHeuristic::DifferentSum] {
            let a = general_pq(&q, &ctx, h, PpqMethod::DualDab { mu: 5.0 }).unwrap();
            assert_eq!(a.primary.len(), 4, "{h:?}");
            assert!(
                a.respects_qab(&q, 1e-6),
                "{h:?} must satisfy the general-PQ QAB over its range"
            );
        }
    }

    #[test]
    fn claim1_different_sum_condition_dominates() {
        // DABs feasible for Q' = P1 + P2 : B are feasible for
        // Q = P1 - P2 : B (checked numerically over the box).
        let q = arbitrage(5.0);
        let (values, rates) = ctx_data();
        let ctx = SolveContext::new(&values, &rates);
        let a = general_pq(
            &q,
            &ctx,
            PqHeuristic::DifferentSum,
            PpqMethod::OptimalRefresh,
        )
        .unwrap();
        // Worst-case deviation of the SUM bound also bounds the difference.
        let (p1, p2) = q.poly().split_pos_neg();
        let sum = p1.add(&p2);
        let mut dabs = vec![0.0; 4];
        for (&item, &b) in &a.primary {
            dabs[item.index()] = b;
        }
        let dev_sum = sum.max_abs_deviation_over_box(&values, &dabs);
        let dev_diff = q.poly().max_abs_deviation_over_box(&values, &dabs);
        assert!(dev_diff <= dev_sum + 1e-9);
        assert!(dev_sum <= 5.0 + 1e-6);
    }

    #[test]
    fn different_sum_beats_half_and_half_on_modelled_cost() {
        // The B/2-B/2 split is generally suboptimal (§III-B.2); DS should
        // not cost more on the modelled objective for this workload.
        let q = arbitrage(5.0);
        let (values, rates) = ctx_data();
        let ctx = SolveContext::new(&values, &rates);
        let mu = 5.0;
        let hh = general_pq(
            &q,
            &ctx,
            PqHeuristic::HalfAndHalf,
            PpqMethod::DualDab { mu },
        )
        .unwrap();
        let ds = general_pq(
            &q,
            &ctx,
            PqHeuristic::DifferentSum,
            PpqMethod::DualDab { mu },
        )
        .unwrap();
        let cost = |a: &QueryAssignment| a.refresh_rate + mu * a.recompute_rate;
        assert!(
            cost(&ds) <= cost(&hh) * 1.05,
            "DS {} vs HH {}",
            cost(&ds),
            cost(&hh)
        );
    }

    #[test]
    fn pure_ppq_skips_the_split() {
        let q = PolynomialQuery::portfolio([(2.0, x(0), x(1))], 5.0).unwrap();
        let values = [10.0, 10.0];
        let rates = [1.0, 1.0];
        let ctx = SolveContext::new(&values, &rates);
        let a = general_pq(
            &q,
            &ctx,
            PqHeuristic::HalfAndHalf,
            PpqMethod::OptimalRefresh,
        )
        .unwrap();
        // No halving happened: the assignment saturates the full B = 5.
        let mut dabs = vec![0.0; 2];
        for (&item, &b) in &a.primary {
            dabs[item.index()] = b;
        }
        let dev = q.poly().max_abs_deviation_over_box(&values, &dabs);
        assert!(dev > 4.0, "full budget should be used, got deviation {dev}");
    }

    #[test]
    fn all_negative_polynomial_is_handled() {
        // Q = -x0 x1 : B behaves like x0 x1 : B.
        let q = PolynomialQuery::arbitrage([], [(1.0, x(0), x(1))], 5.0).unwrap();
        let values = [10.0, 10.0];
        let rates = [1.0, 1.0];
        let ctx = SolveContext::new(&values, &rates);
        let a = general_pq(
            &q,
            &ctx,
            PqHeuristic::DifferentSum,
            PpqMethod::OptimalRefresh,
        )
        .unwrap();
        assert!(a.respects_qab(&q, 1e-6));
    }

    #[test]
    fn linear_minus_product_mixes_closed_form_and_gp() {
        // Q = x0 - x1 x2 : B (the paper's §III-B example `x - uv`).
        let poly = {
            use pq_poly::{PTerm, Polynomial};
            Polynomial::from_terms([
                PTerm::new(1.0, [(x(0), 1)]).unwrap(),
                PTerm::new(-1.0, [(x(1), 1), (x(2), 1)]).unwrap(),
            ])
        };
        let q = PolynomialQuery::new(poly, 4.0).unwrap();
        let values = [100.0, 10.0, 9.0];
        let rates = [2.0, 0.5, 0.5];
        let ctx = SolveContext::new(&values, &rates);
        let hh = general_pq(
            &q,
            &ctx,
            PqHeuristic::HalfAndHalf,
            PpqMethod::DualDab { mu: 2.0 },
        )
        .unwrap();
        assert!(hh.respects_qab(&q, 1e-6));
        // P1 = x0 is linear: its half contributes no recomputations, so the
        // merged validity is a Box from the P2 side.
        assert!(matches!(hh.validity, ValidityRange::Box(_)));
        let ds = general_pq(
            &q,
            &ctx,
            PqHeuristic::DifferentSum,
            PpqMethod::DualDab { mu: 2.0 },
        )
        .unwrap();
        assert!(ds.respects_qab(&q, 1e-6));
    }

    #[test]
    fn dependent_subpolynomials_still_valid() {
        // P1 and P2 share item x1: Q = x0 x1 - x1 x2 : B (§V-B.2, Fig 8b).
        let q = PolynomialQuery::arbitrage([(1.0, x(0), x(1))], [(1.0, x(1), x(2))], 3.0).unwrap();
        let values = [15.0, 2.0, 14.0];
        let rates = [1.0, 0.1, 1.0];
        let ctx = SolveContext::new(&values, &rates);
        for h in [PqHeuristic::HalfAndHalf, PqHeuristic::DifferentSum] {
            let a = general_pq(&q, &ctx, h, PpqMethod::DualDab { mu: 5.0 }).unwrap();
            assert!(a.respects_qab(&q, 1e-6), "{h:?}");
        }
    }
}
