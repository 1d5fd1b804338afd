//! Multiple queries at one coordinator (§IV).
//!
//! * **EQI** (*Each Query Independently*): solve every query on its own and
//!   install, per item, the minimum primary DAB across queries. Scales to
//!   thousands of queries; per-query DABs are individually optimal but the
//!   combination is not.
//!
//! * **AAO** (*All At Once*): one joint geometric program. The primary DAB
//!   of each item is shared across all queries; each `<query, item>` pair
//!   gets its own secondary DAB and each query its own recomputation rate
//!   `R_q`. Globally optimal under the model, but the variable count grows
//!   with the number of queries, so it is practical only for small query
//!   sets (the paper uses 10).

use std::collections::BTreeMap;

use pq_gp::{GpProblem, Monomial, Posynomial};
use pq_poly::{
    coupled_items, deviation_posynomial, DabVarIndexer, ItemId, Polynomial, PolynomialQuery,
};

use crate::assignment::{CoordinatorAssignment, QueryAssignment, ValidityRange};
use crate::context::SolveContext;
use crate::error::DabError;
use crate::heuristics::{general_pq, PpqMethod, PqHeuristic};

/// EQI: each query independently, minimum DAB per item (§IV).
pub fn eqi(
    queries: &[PolynomialQuery],
    ctx: &SolveContext<'_>,
    heuristic: PqHeuristic,
    method: PpqMethod,
) -> Result<CoordinatorAssignment, DabError> {
    let per_query = queries
        .iter()
        .map(|q| general_pq(q, ctx, heuristic, method))
        .collect::<Result<Vec<_>, _>>()?;
    Ok(CoordinatorAssignment::from_queries(per_query))
}

/// Variable indexer for one query inside the AAO joint program: primary
/// DABs are shared (indexed by the global item map); secondary DABs are
/// per `<query, coupled item>` (linear-only items need none — see
/// [`coupled_items`]).
struct AaoIndexer<'a> {
    b_index: &'a BTreeMap<ItemId, usize>,
    coupled: &'a [ItemId],
    c_base: usize,
}

impl DabVarIndexer for AaoIndexer<'_> {
    fn primary(&self, item: ItemId) -> usize {
        self.b_index[&item]
    }

    fn secondary(&self, item: ItemId) -> Option<usize> {
        self.coupled
            .binary_search(&item)
            .ok()
            .map(|pos| self.c_base + pos)
    }
}

/// The joint AAO geometric program for a query set, built but not yet
/// solved: the GP, a strictly feasible start, and the variable layout
/// needed to unpack a solution. Produced by [`aao_program`]; [`aao`]
/// solves it immediately, benchmarks use it to build AAO-structured
/// programs of controlled size without paying for a solve.
#[derive(Debug, Clone)]
pub struct AaoProgram {
    /// The joint GP (`b` per distinct item, then per-query `c` blocks
    /// over coupled items, then per-query `R`).
    pub problem: GpProblem,
    /// A strictly feasible starting point for the solver.
    pub start: Vec<f64>,
    b_index: BTreeMap<ItemId, usize>,
    per_query_items: Vec<Vec<ItemId>>,
    per_query_coupled: Vec<Vec<ItemId>>,
    c_base: Vec<usize>,
    r_base: usize,
    lambdas: Vec<f64>,
}

/// AAO: one joint GP over all queries (§IV).
///
/// Mixed-sign queries are first transformed by Different Sum
/// (`P -> P1 + P2`), which preserves correctness (Claim 1). The result's
/// `item_dabs` are the shared primary DABs; `per_query` carries each
/// query's secondary box and recomputation-rate estimate.
///
/// # Errors
/// [`DabError::InvalidMu`] unless `mu > 0`; solver errors otherwise.
pub fn aao(
    queries: &[PolynomialQuery],
    ctx: &SolveContext<'_>,
    mu: f64,
) -> Result<CoordinatorAssignment, DabError> {
    if !(mu.is_finite() && mu > 0.0) {
        return Err(DabError::InvalidMu(mu));
    }
    if queries.is_empty() {
        return Ok(CoordinatorAssignment::default());
    }
    let program = aao_program(queries, ctx, mu)?;
    let sol = pq_gp::solve_with_start(&program.problem, &program.start, &ctx.gp)?;
    program.into_assignment(&sol, ctx)
}

/// Builds the joint AAO program (variables, objective, constraints and a
/// feasible start) without solving it. See [`aao`] for the formulation.
///
/// # Errors
/// [`DabError::InvalidMu`] unless `mu > 0`; [`DabError::NoFeasibleStart`]
/// when the scalar start search fails; construction errors otherwise.
///
/// # Panics
/// Panics on an empty query set ([`aao`] short-circuits that case).
pub fn aao_program(
    queries: &[PolynomialQuery],
    ctx: &SolveContext<'_>,
    mu: f64,
) -> Result<AaoProgram, DabError> {
    if !(mu.is_finite() && mu > 0.0) {
        return Err(DabError::InvalidMu(mu));
    }
    assert!(!queries.is_empty(), "AAO program needs at least one query");

    // Different-Sum transform for mixed signs; collect per-query item lists.
    let bodies: Vec<Polynomial> = queries
        .iter()
        .map(|q| {
            let (p1, p2) = q.poly().split_pos_neg();
            if p2.is_zero() {
                p1
            } else if p1.is_zero() {
                p2
            } else {
                p1.add(&p2)
            }
        })
        .collect();
    let per_query_items: Vec<Vec<ItemId>> = bodies.iter().map(Polynomial::items).collect();
    let per_query_coupled: Vec<Vec<ItemId>> = bodies.iter().map(coupled_items).collect();

    // Global variable layout: b per distinct item, then per-query c blocks
    // (coupled items only), then per-query R.
    let mut all_items: Vec<ItemId> = per_query_items.iter().flatten().copied().collect();
    all_items.sort();
    all_items.dedup();
    let b_index: BTreeMap<ItemId, usize> =
        all_items.iter().enumerate().map(|(k, &i)| (i, k)).collect();
    let n_items = all_items.len();
    let mut c_base = vec![0usize; queries.len()];
    let mut next = n_items;
    for (qi, coupled) in per_query_coupled.iter().enumerate() {
        c_base[qi] = next;
        next += coupled.len();
    }
    let r_base = next;
    let n_vars = r_base + queries.len();

    let mut problem = GpProblem::new(n_vars);

    // Objective: refresh rates `lambda^p b^-p` on shared b + mu * sum_q R_q.
    let p = ctx.ddm.exponent();
    let mut objective = Posynomial::zero();
    let mut lambdas = vec![0.0; n_items];
    for (&item, &k) in &b_index {
        let lambda = ctx.rate(item)?;
        lambdas[k] = lambda;
        objective.push(Monomial::new(ctx.ddm.refresh_coef(lambda), [(k, -p)])?);
    }
    for qi in 0..queries.len() {
        objective.push(Monomial::new(mu, [(r_base + qi, 1.0)])?);
    }
    problem.set_objective(objective)?;

    // Per-query constraints.
    let mut conditions = Vec::with_capacity(queries.len());
    for (qi, (query, body)) in queries.iter().zip(&bodies).enumerate() {
        let indexer = AaoIndexer {
            b_index: &b_index,
            coupled: &per_query_coupled[qi],
            c_base: c_base[qi],
        };
        let condition = deviation_posynomial(body, ctx.values, &indexer)?;
        problem.add_constraint_le(condition.clone(), query.qab())?;
        conditions.push((condition, query.qab()));
        for (pos, &item) in per_query_coupled[qi].iter().enumerate() {
            let b_var = b_index[&item];
            let c_var = c_base[qi] + pos;
            problem.add_var_le_var(b_var, c_var)?;
            let escape = Monomial::new(ctx.ddm.refresh_coef(lambdas[b_var]), [(c_var, -p)])?;
            let coupled = escape.mul(&Monomial::new(1.0, [(r_base + qi, -1.0)])?);
            problem.add_constraint(Posynomial::monomial(coupled))?;
        }
    }

    // Scalar feasible start: b = s, every c = 2s, R_q above escape rates.
    let ddm = ctx.ddm;
    let max_lambda = lambdas.iter().fold(1e-9_f64, |m, &l| m.max(l));
    let mut s = 1.0_f64;
    let mut x = vec![1.0; n_vars];
    let mut found = false;
    'search: for _ in 0..400 {
        for v in x[..r_base].iter_mut() {
            *v = s;
        }
        for v in x[n_items..r_base].iter_mut() {
            *v = 2.0 * s;
        }
        let r0 = 2.0 * ddm.refresh_rate(max_lambda, 2.0 * s) + 1.0;
        for v in x[r_base..].iter_mut() {
            *v = r0;
        }
        if conditions
            .iter()
            .all(|(cnd, qab)| cnd.eval(&x) <= 0.5 * qab)
        {
            found = true;
            break 'search;
        }
        s *= 0.5;
    }
    if !found {
        return Err(DabError::NoFeasibleStart);
    }

    Ok(AaoProgram {
        problem,
        start: x,
        b_index,
        per_query_items,
        per_query_coupled,
        c_base,
        r_base,
        lambdas,
    })
}

impl AaoProgram {
    /// Unpacks a solution of [`AaoProgram::problem`] into shared item
    /// DABs plus per-query assignments.
    fn into_assignment(
        self,
        sol: &pq_gp::GpSolution,
        ctx: &SolveContext<'_>,
    ) -> Result<CoordinatorAssignment, DabError> {
        let item_dabs: BTreeMap<ItemId, f64> = self
            .b_index
            .iter()
            .map(|(&item, &k)| (item, sol.x[k]))
            .collect();
        let mut per_query = Vec::with_capacity(self.per_query_items.len());
        for (qi, items) in self.per_query_items.iter().enumerate() {
            let primary: BTreeMap<ItemId, f64> =
                items.iter().map(|&i| (i, item_dabs[&i])).collect();
            let mut secondary: BTreeMap<ItemId, f64> =
                items.iter().map(|&i| (i, f64::INFINITY)).collect();
            for (pos, &i) in self.per_query_coupled[qi].iter().enumerate() {
                secondary.insert(i, sol.x[self.c_base[qi] + pos]);
            }
            let anchor = items
                .iter()
                .map(|&i| Ok((i, ctx.value(i)?)))
                .collect::<Result<_, DabError>>()?;
            let refresh_rate = items
                .iter()
                .map(|&i| {
                    ctx.ddm
                        .refresh_rate(self.lambdas[self.b_index[&i]], item_dabs[&i])
                })
                .sum();
            per_query.push(QueryAssignment {
                primary,
                validity: ValidityRange::Box(secondary),
                anchor,
                recompute_rate: sol.x[self.r_base + qi],
                refresh_rate,
            });
        }
        Ok(CoordinatorAssignment {
            item_dabs,
            per_query,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn x(i: u32) -> ItemId {
        ItemId(i)
    }

    fn two_portfolios() -> Vec<PolynomialQuery> {
        vec![
            PolynomialQuery::portfolio([(2.0, x(0), x(1)), (1.0, x(2), x(3))], 6.0).unwrap(),
            PolynomialQuery::portfolio([(3.0, x(1), x(2))], 4.0).unwrap(),
        ]
    }

    fn data() -> ([f64; 4], [f64; 4]) {
        ([20.0, 3.0, 15.0, 2.0], [0.5, 0.05, 0.4, 0.02])
    }

    #[test]
    fn eqi_installs_minimum_dabs() {
        let queries = two_portfolios();
        let (values, rates) = data();
        let ctx = SolveContext::new(&values, &rates);
        let ca = eqi(
            &queries,
            &ctx,
            PqHeuristic::DifferentSum,
            PpqMethod::DualDab { mu: 5.0 },
        )
        .unwrap();
        assert_eq!(ca.per_query.len(), 2);
        assert_eq!(ca.item_dabs.len(), 4);
        // Installed DAB for shared items is the min over the two queries.
        for item in [x(1), x(2)] {
            let installed = ca.item_dab(item).unwrap();
            for qa in &ca.per_query {
                if let Some(b) = qa.primary_dab(item) {
                    assert!(installed <= b + 1e-12);
                }
            }
        }
        // Every per-query assignment individually respects its QAB.
        for (qa, q) in ca.per_query.iter().zip(&queries) {
            assert!(qa.respects_qab(q, 1e-6));
        }
    }

    #[test]
    fn aao_shares_primary_dabs_across_queries() {
        let queries = two_portfolios();
        let (values, rates) = data();
        let ctx = SolveContext::new(&values, &rates);
        let ca = aao(&queries, &ctx, 5.0).unwrap();
        assert_eq!(ca.per_query.len(), 2);
        for qa in &ca.per_query {
            for (&item, &b) in &qa.primary {
                assert_eq!(b, ca.item_dab(item).unwrap(), "shared primary for {item}");
            }
            assert!(matches!(qa.validity, ValidityRange::Box(_)));
        }
        for (qa, q) in ca.per_query.iter().zip(&queries) {
            assert!(qa.respects_qab(q, 1e-6));
        }
    }

    #[test]
    fn aao_total_cost_at_most_eqi() {
        // AAO is the globally optimal formulation of the same model, so its
        // modelled total cost must not exceed EQI's (§V-B.1, Fig. 7).
        let queries = two_portfolios();
        let (values, rates) = data();
        let ctx = SolveContext::new(&values, &rates);
        let mu = 5.0;
        let a = aao(&queries, &ctx, mu).unwrap();
        let e = eqi(
            &queries,
            &ctx,
            PqHeuristic::DifferentSum,
            PpqMethod::DualDab { mu },
        )
        .unwrap();
        let model_cost = |ca: &CoordinatorAssignment| -> f64 {
            // Shared-filter refresh cost: per item the installed (min) DAB.
            let refresh: f64 = ca
                .item_dabs
                .iter()
                .map(|(&item, &b)| ctx.ddm.refresh_rate(ctx.rate(item).unwrap(), b))
                .sum();
            let recompute: f64 = ca.per_query.iter().map(|qa| qa.recompute_rate).sum();
            refresh + mu * recompute
        };
        assert!(
            model_cost(&a) <= model_cost(&e) * 1.01,
            "AAO {} vs EQI {}",
            model_cost(&a),
            model_cost(&e)
        );
    }

    #[test]
    fn aao_handles_mixed_sign_queries_via_different_sum() {
        let queries =
            vec![
                PolynomialQuery::arbitrage([(1.0, x(0), x(1))], [(1.0, x(2), x(3))], 5.0).unwrap(),
            ];
        let (values, rates) = data();
        let ctx = SolveContext::new(&values, &rates);
        let ca = aao(&queries, &ctx, 2.0).unwrap();
        assert!(ca.per_query[0].respects_qab(&queries[0], 1e-6));
    }

    #[test]
    fn aao_rejects_bad_mu_and_empty_is_ok() {
        let (values, rates) = data();
        let ctx = SolveContext::new(&values, &rates);
        assert!(matches!(
            aao(&two_portfolios(), &ctx, -1.0),
            Err(DabError::InvalidMu(_))
        ));
        let ca = aao(&[], &ctx, 1.0).unwrap();
        assert!(ca.per_query.is_empty());
        assert!(ca.item_dabs.is_empty());
    }

    #[test]
    fn eqi_scales_to_many_queries() {
        // 40 two-leg portfolios over 10 items.
        let mut queries = Vec::new();
        for k in 0u32..40 {
            let a = k % 10;
            let b = (k + 3) % 10;
            let c = (k + 5) % 10;
            let d = (k + 7) % 10;
            queries.push(
                PolynomialQuery::portfolio(
                    [(1.0 + k as f64, x(a), x(b)), (2.0, x(c), x(d))],
                    50.0 + k as f64,
                )
                .unwrap(),
            );
        }
        let values = vec![10.0; 10];
        let rates = vec![0.1; 10];
        let ctx = SolveContext::new(&values, &rates);
        let ca = eqi(
            &queries,
            &ctx,
            PqHeuristic::DifferentSum,
            PpqMethod::DualDab { mu: 5.0 },
        )
        .unwrap();
        assert_eq!(ca.per_query.len(), 40);
        for (qa, q) in ca.per_query.iter().zip(&queries) {
            assert!(qa.respects_qab(q, 1e-6));
        }
    }
}
