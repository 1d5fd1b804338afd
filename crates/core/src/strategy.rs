//! One entry point dispatching over all assignment strategies.
//!
//! The simulator and bench harnesses treat strategies uniformly through
//! [`AssignmentStrategy`]; each variant maps to the algorithm described in
//! the module docs of [`crate::ppq`], [`crate::baseline`] and
//! [`crate::heuristics`].

use std::sync::Arc;

use pq_poly::{ItemId, Polynomial, PolynomialQuery, QueryClass};

use crate::assignment::{QueryAssignment, RangeKind, UnitColumns};
use crate::baseline::{equal_dab_into, per_item_split_into};
use crate::cache::UnitCache;
use crate::context::SolveContext;
use crate::error::DabError;
use crate::heuristics::{merge_min, solve_positive_unit, PpqMethod, PqHeuristic};
use crate::ppq::PpqProgram;

/// A complete per-query DAB assignment policy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AssignmentStrategy {
    /// §III-A.1: optimal in refreshes; recomputes on every refresh.
    OptimalRefresh,
    /// §III-A.2: the paper's Dual-DAB approach with recomputation cost `mu`.
    DualDab {
        /// Recomputation cost in messages.
        mu: f64,
    },
    /// Sharfman-style per-item budget split (§II / §V-A comparison).
    PerItemSplit,
    /// Naive equal-width filter baseline.
    EqualDab,
}

impl AssignmentStrategy {
    /// The modelled per-recomputation cost in messages: `mu` for Dual-DAB,
    /// the caller-chosen accounting constant elsewhere.
    pub fn mu(&self) -> Option<f64> {
        match self {
            AssignmentStrategy::DualDab { mu } => Some(*mu),
            _ => None,
        }
    }
}

impl std::fmt::Display for AssignmentStrategy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AssignmentStrategy::OptimalRefresh => write!(f, "optimal-refresh"),
            AssignmentStrategy::DualDab { mu } => write!(f, "dual-dab(mu={mu})"),
            AssignmentStrategy::PerItemSplit => write!(f, "per-item-split"),
            AssignmentStrategy::EqualDab => write!(f, "equal-dab"),
        }
    }
}

/// Opens the `dab.solve` span: from the coordinator's pre-resolved timer
/// when `options` carries one, by name otherwise.
fn dab_span(options: &pq_gp::SolverOptions) -> pq_obs::TimedGuard {
    match &options.dab {
        Some(dab) => dab.span.start(&options.obs),
        None => options.obs.timed(pq_obs::names::DAB_SOLVE),
    }
}

/// Assigns DABs for one query under `strategy`, using `heuristic` for
/// mixed-sign bodies: each of the query's [`assignment_units`] solved as
/// a coordinator solves it ([`assign_unit`]), and a query split in two
/// (Half-and-Half) given the per-item minimum of its units' DABs.
pub fn assign_query(
    query: &PolynomialQuery,
    ctx: &SolveContext<'_>,
    strategy: AssignmentStrategy,
    heuristic: PqHeuristic,
) -> Result<QueryAssignment, DabError> {
    let units = assignment_units(query, strategy, heuristic);
    let mut solved = units.iter().map(|unit| assign_unit(unit, ctx, strategy));
    let first = solved.next().expect("a query is at least one unit")?;
    solved.try_fold(first, |merged, next| Ok(merge_min(merged, next?, ctx)))
}

/// Estimates the recomputation cost `mu` in messages, following the
/// worked example of §III-A.3: the solver's own cost is nominal; each
/// recomputation sends a DAB-change message to every source, and any
/// dissemination-network reorganization stalls the system for a period
/// equivalent to `reorganization_secs / mean_message_delay_secs`
/// messages.
///
/// The paper's example — 5 sources, a 1 s reorganization, 200 ms mean
/// message delay — gives `mu = 10`.
pub fn estimate_mu(
    n_sources: usize,
    reorganization_secs: f64,
    mean_message_delay_secs: f64,
) -> f64 {
    assert!(mean_message_delay_secs > 0.0 && reorganization_secs >= 0.0);
    n_sources as f64 + (reorganization_secs / mean_message_delay_secs).ceil()
}

/// One independently maintained piece of a query's DAB problem.
///
/// Most queries have a single unit (their own body and QAB). Under
/// **Half-and-Half** a mixed-sign query splits into *two* units —
/// `P1 : B/2` and `P2 : B/2` — each solved, validated and recomputed on
/// its own, exactly as §III-B.2 describes ("solve separately ... the DAB
/// for C is the minimum amongst the primary DABs calculated for P1 and
/// P2"). The simulator maintains units independently: a data movement
/// that only invalidates one side recomputes only that side.
#[derive(Debug, Clone, PartialEq)]
pub struct AssignmentUnit {
    /// The unit's polynomial body (positive-coefficient for split units),
    /// shared with its query when the query is one unit.
    pub body: Arc<Polynomial>,
    /// The unit's accuracy budget.
    pub qab: f64,
    /// The body's items, ascending: the rows of every assignment of the
    /// unit.
    items: Arc<[ItemId]>,
    /// The body's coupled items ([`pq_poly::coupled_items`]), ascending.
    coupled: Arc<[ItemId]>,
}

impl AssignmentUnit {
    /// The unit `body : qab`.
    pub fn new(body: Polynomial, qab: f64) -> Self {
        AssignmentUnit {
            items: body.items().into(),
            coupled: pq_poly::coupled_items(&body).into(),
            body: Arc::new(body),
            qab,
        }
    }

    /// The unit `body : qab` over the items of `query`, whose body has
    /// the same terms as `body` up to their signs and order.
    pub(crate) fn of_query(query: &PolynomialQuery, body: Arc<Polynomial>, qab: f64) -> Self {
        AssignmentUnit {
            body,
            qab,
            items: query.shared_items().clone(),
            coupled: query.coupled_items().clone(),
        }
    }

    /// The body's items, ascending.
    pub fn items(&self) -> &Arc<[ItemId]> {
        &self.items
    }

    /// The body's coupled items, ascending.
    pub fn coupled(&self) -> &Arc<[ItemId]> {
        &self.coupled
    }

    /// The unit as a query of its own, for the strategies that take one.
    fn query(&self) -> Result<PolynomialQuery, DabError> {
        Ok(PolynomialQuery::shared(self.body.clone(), self.qab)?)
    }
}

/// Decomposes a query into its independently maintained units under
/// `strategy` + `heuristic`. A query that is one unit shares its body
/// and item lists with it.
pub fn assignment_units(
    query: &PolynomialQuery,
    strategy: AssignmentStrategy,
    heuristic: PqHeuristic,
) -> Vec<AssignmentUnit> {
    let baseline = matches!(
        strategy,
        AssignmentStrategy::PerItemSplit | AssignmentStrategy::EqualDab
    );
    // Baselines handle mixed signs internally, and a linear body of any
    // sign takes the closed form, which sizes each item by `|w|`.
    if baseline || query.class() != QueryClass::General {
        let body = query.shared_poly().clone();
        return vec![AssignmentUnit::of_query(query, body, query.qab())];
    }
    if heuristic == PqHeuristic::HalfAndHalf {
        let (p1, p2) = query.poly().split_pos_neg();
        if !p1.is_zero() && !p2.is_zero() {
            let half = query.qab() / 2.0;
            return vec![AssignmentUnit::new(p1, half), AssignmentUnit::new(p2, half)];
        }
    }
    let body = Arc::new(abs_body(query.poly()));
    vec![AssignmentUnit::of_query(query, body, query.qab())]
}

/// `P1 + P2` for `P = P1 − P2`: the positive-coefficient body whose
/// deviation bounds `P`'s (Claim 1), the Different-Sum unit. A body of
/// one sign is itself, up to that sign.
pub(crate) fn abs_body(poly: &Polynomial) -> Polynomial {
    let (p1, p2) = poly.split_pos_neg();
    if p2.is_zero() {
        p1
    } else if p1.is_zero() {
        p2
    } else {
        p1.add(&p2)
    }
}

/// Solves one unit under `strategy`.
pub fn assign_unit(
    unit: &AssignmentUnit,
    ctx: &SolveContext<'_>,
    strategy: AssignmentStrategy,
) -> Result<QueryAssignment, DabError> {
    UnitColumns::one_shot(|out| solve_unit(unit, ctx, strategy, None, None, out))
}

/// Solves one unit under `strategy` through `cache`, as an uncached
/// solve does, and leaves the new assignment in the cache, as columns
/// ([`UnitCache::columns`]), returned from there. A GP-backed solve
/// counts as the unit's first while no solve has written the cache
/// (`solve.cold_start`), by its blend after (see
/// [`crate::cache`]).
///
/// An anchor-only assignment holds at its anchor alone, so the next
/// refresh of any of its items re-solves the unit: a unit whose last
/// solve wrote one keeps its program in the cache for the next, and any
/// other builds its program in this thread's scratch.
pub fn assign_unit_cached<'c>(
    unit: &AssignmentUnit,
    ctx: &SolveContext<'_>,
    strategy: AssignmentStrategy,
    cache: &'c mut UnitCache,
) -> Result<&'c UnitColumns, DabError> {
    let UnitCache { columns, program } = cache;
    let first = columns.items().is_empty();
    let kept = match columns.kind() {
        RangeKind::AnchorOnly if !first => Some(program),
        _ => {
            *program = None;
            None
        }
    };
    solve_unit(unit, ctx, strategy, Some(first), kept, columns)?;
    Ok(columns)
}

/// The one solve of a unit every entry point runs, into `out`. A linear
/// unit of any sign takes the closed form; a non-linear one must be
/// positive-coefficient, as every unit [`assignment_units`] makes is
/// ([`DabError::UnsupportedQueryClass`] otherwise), and its GP solve
/// runs on the `kept` program when given.
fn solve_unit(
    unit: &AssignmentUnit,
    ctx: &SolveContext<'_>,
    strategy: AssignmentStrategy,
    first: Option<bool>,
    kept: Option<&mut Option<Box<PpqProgram>>>,
    out: &mut UnitColumns,
) -> Result<(), DabError> {
    // A unit that reads no item (a constant body) has no filter to size
    // and no value that can invalidate it.
    if unit.items.is_empty() {
        out.start(&unit.items, RangeKind::Always);
        return Ok(());
    }
    let _span = dab_span(&ctx.gp);
    match strategy {
        AssignmentStrategy::PerItemSplit => per_item_split_into(&unit.query()?, ctx, out),
        AssignmentStrategy::EqualDab => equal_dab_into(&unit.query()?, ctx, out),
        AssignmentStrategy::OptimalRefresh => {
            solve_positive_unit(unit, ctx, PpqMethod::OptimalRefresh, first, kept, out)
        }
        AssignmentStrategy::DualDab { mu } => {
            solve_positive_unit(unit, ctx, PpqMethod::DualDab { mu }, first, kept, out)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assignment::ValidityRange;
    use pq_poly::ItemId;

    fn x(i: u32) -> ItemId {
        ItemId(i)
    }

    #[test]
    fn dispatch_covers_every_strategy_and_class() {
        let values = [20.0, 3.0, 15.0, 2.0];
        let rates = [0.5, 0.05, 0.4, 0.02];
        let ctx = SolveContext::new(&values, &rates);
        let queries = [
            PolynomialQuery::linear_aggregate([(1.0, x(0)), (2.0, x(1))], 1.0).unwrap(),
            PolynomialQuery::portfolio([(1.0, x(0), x(1))], 5.0).unwrap(),
            PolynomialQuery::arbitrage([(1.0, x(0), x(1))], [(1.0, x(2), x(3))], 5.0).unwrap(),
        ];
        let strategies = [
            AssignmentStrategy::OptimalRefresh,
            AssignmentStrategy::DualDab { mu: 5.0 },
            AssignmentStrategy::PerItemSplit,
            AssignmentStrategy::EqualDab,
        ];
        for q in &queries {
            for &s in &strategies {
                let a = assign_query(q, &ctx, s, PqHeuristic::DifferentSum)
                    .unwrap_or_else(|e| panic!("{s} on {q}: {e}"));
                assert!(a.respects_qab(q, 1e-6), "{s} on {q}");
            }
        }
    }

    #[test]
    fn linear_queries_never_recompute_under_optimal_strategies() {
        let values = [20.0, 3.0];
        let rates = [0.5, 0.05];
        let ctx = SolveContext::new(&values, &rates);
        let q = PolynomialQuery::linear_aggregate([(1.0, x(0)), (2.0, x(1))], 1.0).unwrap();
        for s in [
            AssignmentStrategy::OptimalRefresh,
            AssignmentStrategy::DualDab { mu: 5.0 },
        ] {
            let a = assign_query(&q, &ctx, s, PqHeuristic::DifferentSum).unwrap();
            assert_eq!(a.validity, ValidityRange::Always, "{s}");
        }
    }

    #[test]
    fn a_unit_that_reads_no_item_holds_always_under_every_strategy() {
        let ctx = SolveContext::new(&[], &[]);
        let body = Polynomial::from_terms([pq_poly::PTerm::constant(7.0).unwrap()]);
        let unit = AssignmentUnit::new(body, 1.0);
        for s in [
            AssignmentStrategy::OptimalRefresh,
            AssignmentStrategy::DualDab { mu: 5.0 },
            AssignmentStrategy::PerItemSplit,
            AssignmentStrategy::EqualDab,
        ] {
            let a = assign_unit(&unit, &ctx, s).unwrap_or_else(|e| panic!("{s}: {e}"));
            assert!(a.primary.is_empty(), "{s}");
            assert_eq!(a.validity, ValidityRange::Always, "{s}");
        }
    }

    #[test]
    fn units_split_only_under_half_and_half() {
        let values = [20.0, 3.0, 15.0, 2.0];
        let rates = [0.5, 0.05, 0.4, 0.02];
        let ctx = SolveContext::new(&values, &rates);
        let pq = PolynomialQuery::arbitrage([(1.0, x(0), x(1))], [(1.0, x(2), x(3))], 5.0).unwrap();
        let dual = AssignmentStrategy::DualDab { mu: 5.0 };

        let hh = assignment_units(&pq, dual, PqHeuristic::HalfAndHalf);
        assert_eq!(hh.len(), 2);
        assert!(hh.iter().all(|u| u.body.is_positive_coefficient()));
        assert!(hh.iter().all(|u| (u.qab - 2.5).abs() < 1e-12));

        let ds = assignment_units(&pq, dual, PqHeuristic::DifferentSum);
        assert_eq!(ds.len(), 1);
        assert!(ds[0].body.is_positive_coefficient());
        assert_eq!(ds[0].qab, 5.0);

        // PPQs and baselines keep one unit.
        let ppq = PolynomialQuery::portfolio([(1.0, x(0), x(1))], 5.0).unwrap();
        assert_eq!(
            assignment_units(&ppq, dual, PqHeuristic::HalfAndHalf).len(),
            1
        );
        assert_eq!(
            assignment_units(
                &pq,
                AssignmentStrategy::PerItemSplit,
                PqHeuristic::HalfAndHalf
            )
            .len(),
            1
        );

        // Each unit solves and respects its own budget.
        for u in hh.iter().chain(&ds) {
            let a = assign_unit(u, &ctx, dual).unwrap();
            assert!(a.respects_qab(&u.query().unwrap(), 1e-6));
        }
    }

    #[test]
    fn mu_estimate_matches_papers_worked_example() {
        // §III-A.3: 5 sources, 1 s reorganization, 200 ms mean delay.
        assert_eq!(estimate_mu(5, 1.0, 0.2), 10.0);
        // No reorganization: only the DAB-change messages count.
        assert_eq!(estimate_mu(20, 0.0, 0.1), 20.0);
    }

    #[test]
    fn purely_negative_query_gets_single_unit() {
        let q = PolynomialQuery::arbitrage([], [(1.0, x(0), x(1))], 5.0).unwrap();
        let units = assignment_units(
            &q,
            AssignmentStrategy::DualDab { mu: 5.0 },
            PqHeuristic::HalfAndHalf,
        );
        assert_eq!(units.len(), 1);
        assert!(units[0].body.is_positive_coefficient());
        assert_eq!(units[0].qab, 5.0);
    }

    #[test]
    fn mu_accessor() {
        assert_eq!(AssignmentStrategy::DualDab { mu: 3.0 }.mu(), Some(3.0));
        assert_eq!(AssignmentStrategy::OptimalRefresh.mu(), None);
    }

    #[test]
    fn display_names_are_stable() {
        assert_eq!(
            AssignmentStrategy::OptimalRefresh.to_string(),
            "optimal-refresh"
        );
        assert_eq!(
            AssignmentStrategy::DualDab { mu: 5.0 }.to_string(),
            "dual-dab(mu=5)"
        );
    }
}
