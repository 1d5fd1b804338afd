//! Installing a book: the one loop every coordinator runs at start-up.
//!
//! The paper's coordinator solves each query's DAB program once before
//! the first refresh (§V-A "steady-state start"). Whatever drives it —
//! the deployable monitor, the simulator's engine — the steps are the
//! same: decompose every query into its assignment units, shape the
//! per-unit caches and lay out the filter table by item from them, then
//! solve each unit once through its cache slot (which keeps the compiled
//! program every later recompute rewrites) and write its filters into the
//! table.

use pq_gp::SolverOptions;
use pq_poly::{ItemId, PolynomialQuery};

use crate::cache::SolveCache;
use crate::context::SolveContext;
use crate::error::DabError;
use crate::filter_table::FilterTable;
use crate::heuristics::PqHeuristic;
use crate::strategy::{assign_unit_cached, assignment_units, AssignmentStrategy, AssignmentUnit};

/// An install or re-solve that failed: whose it was, and why.
#[derive(Debug, Clone, PartialEq)]
pub struct InstallError {
    /// Index of the query the failed unit belongs to; `None` when the
    /// install was refused before anything was solved (a value no query
    /// could be solved at).
    pub query: Option<usize>,
    /// The error.
    pub source: DabError,
}

impl std::fmt::Display for InstallError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.query {
            Some(query) => write!(f, "installing query {query}: {}", self.source),
            None => write!(f, "installing: {}", self.source),
        }
    }
}

impl std::error::Error for InstallError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(&self.source)
    }
}

/// Installs `queries` under `strategy` (+ `heuristic` for mixed-sign
/// bodies) at `ctx`'s values and rates: returns every query's units
/// (`units[q][u]`) and the filter table over `n_items` items holding
/// their first assignments, leaving `cache` shaped to the units and
/// holding each one's program and optimum.
///
/// `attribute(gp, q)` runs before query `q`'s solves on the solver
/// options they will use: the caller's place to label them (a query id,
/// a pre-resolved per-query counter).
///
/// # Errors
/// The first solve that fails, with its query's index; `cache` keeps the
/// units solved before it.
pub fn install_units(
    queries: &[PolynomialQuery],
    strategy: AssignmentStrategy,
    heuristic: PqHeuristic,
    mut ctx: SolveContext<'_>,
    n_items: usize,
    cache: &mut SolveCache,
    mut attribute: impl FnMut(&mut SolverOptions, usize),
) -> Result<(Vec<Vec<AssignmentUnit>>, FilterTable), InstallError> {
    let units: Vec<Vec<AssignmentUnit>> = queries
        .iter()
        .map(|q| assignment_units(q, strategy, heuristic))
        .collect();
    let unit_counts: Vec<usize> = units.iter().map(Vec::len).collect();
    cache.resize(&unit_counts);
    let mut filters = FilterTable::new(n_items, unit_items(&units));
    for (query, per_query) in units.iter().enumerate() {
        attribute(&mut ctx.gp, query);
        for (ui, unit) in per_query.iter().enumerate() {
            let solved = assign_unit_cached(unit, &ctx, strategy, cache.unit_mut(query, ui));
            let columns = solved.map_err(|source| InstallError {
                query: Some(query),
                source,
            })?;
            filters.write(query, ui, columns);
        }
    }
    Ok((units, filters))
}

/// Every unit's item list, query by query: the layout of a
/// [`FilterTable`] over `units`.
pub(crate) fn unit_items(
    units: &[Vec<AssignmentUnit>],
) -> impl Iterator<Item = impl Iterator<Item = &[ItemId]>> {
    units
        .iter()
        .map(|per_query| per_query.iter().map(|u| &u.items()[..]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use pq_poly::ItemId;

    fn x(i: u32) -> ItemId {
        ItemId(i)
    }

    /// The loop is the hand-written one: same units, same filters, the
    /// caches seeded, solves attributed query by query.
    #[test]
    fn installs_what_the_spelled_out_loop_installs() {
        let queries = [
            PolynomialQuery::portfolio([(1.0, x(0), x(1)), (2.0, x(1), x(2))], 4.0).unwrap(),
            PolynomialQuery::arbitrage([(1.0, x(0), x(1))], [(1.0, x(2), x(3))], 5.0).unwrap(),
            PolynomialQuery::linear_aggregate([(1.0, x(3)), (2.0, x(4))], 1.0).unwrap(),
        ];
        let values = [20.0, 3.0, 15.0, 2.0, 9.0];
        let rates = [0.3, 0.1, 0.2, 0.05, 0.4];
        let strategy = AssignmentStrategy::DualDab { mu: 5.0 };
        let heuristic = PqHeuristic::HalfAndHalf;
        let ctx = SolveContext::new(&values, &rates);

        let mut cache = SolveCache::new();
        let mut attributed = Vec::new();
        let (units, filters) = install_units(
            &queries,
            strategy,
            heuristic,
            ctx.clone(),
            values.len(),
            &mut cache,
            |gp, q| {
                gp.query = Some(q as u32);
                attributed.push(q);
            },
        )
        .unwrap();
        assert_eq!(attributed, [0, 1, 2]);
        assert_eq!(units.iter().map(Vec::len).collect::<Vec<_>>(), [1, 2, 1]);

        let mut by_hand = Vec::new();
        for (q, per_query) in units.iter().enumerate() {
            assert_eq!(
                *per_query,
                assignment_units(&queries[q], strategy, heuristic)
            );
            let solve = |u| crate::strategy::assign_unit(u, &ctx, strategy).unwrap();
            by_hand.push(per_query.iter().map(solve).collect::<Vec<_>>());
        }
        let mut expected = FilterTable::new(values.len(), unit_items(&units));
        for (q, per_query) in by_hand.iter().enumerate() {
            for (u, assignment) in per_query.iter().enumerate() {
                expected.install(q, u, assignment);
            }
        }
        for item in 0..values.len() {
            assert_eq!(
                filters.min_primary(item).to_bits(),
                expected.min_primary(item).to_bits()
            );
        }
        // Every unit left its assignment in its cache.
        for (q, per_query) in units.iter().enumerate() {
            for (u, unit) in per_query.iter().enumerate() {
                assert_eq!(cache.unit_mut(q, u).columns().items(), &unit.items()[..]);
            }
        }
    }

    #[test]
    fn a_failed_solve_names_its_query() {
        let queries = [
            PolynomialQuery::portfolio([(1.0, x(0), x(1))], 4.0).unwrap(),
            PolynomialQuery::portfolio([(1.0, x(1), x(7))], 4.0).unwrap(),
        ];
        let values = [20.0, 3.0];
        let rates = [0.3, 0.1];
        let err = install_units(
            &queries,
            AssignmentStrategy::DualDab { mu: 5.0 },
            PqHeuristic::DifferentSum,
            SolveContext::new(&values, &rates),
            8,
            &mut SolveCache::new(),
            |_, _| {},
        )
        .unwrap_err();
        assert_eq!(err.query, Some(1));
        assert!(err.to_string().starts_with("installing query 1: "));
    }
}
