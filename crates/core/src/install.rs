//! Installing a book: the one loop every coordinator runs at start-up.
//!
//! The paper's coordinator solves each query's DAB program once before
//! the first refresh (§V-A "steady-state start"). Whatever drives it —
//! the deployable monitor, the simulator's engine — the steps are the
//! same: decompose every query into its assignment units, solve each unit
//! once into a fresh cache slot (which keeps the columns the solve
//! wrote), the queries split over the cores
//! ([`pq_ddm::parallel::split_map`]), then lay out the filter table by
//! item and write the units' filters into it in query order.

use pq_ddm::parallel::{available_cores, split_map};
use pq_gp::SolverOptions;
use pq_poly::{ItemId, PolynomialQuery};

use crate::cache::{SolveCache, UnitCache};
use crate::context::SolveContext;
use crate::error::DabError;
use crate::filter_table::FilterTable;
use crate::heuristics::PqHeuristic;
use crate::strategy::{assign_unit_cached, assignment_units, AssignmentStrategy, AssignmentUnit};

/// Queries a worker gets at least: 0.3–0.5 ms of first solves at 10–20 µs
/// a unit, against ≈ 40–240 µs for a thread to start.
const SHARE_QUERIES: usize = 24;

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

/// Every query's units (`units[q][u]`), the filter table of their first
/// assignments and the caches those solves filled.
pub type Installed = (Vec<Vec<AssignmentUnit>>, FilterTable, SolveCache);

/// Installs `queries` under `strategy` (+ `heuristic` for mixed-sign
/// bodies) at `ctx`'s values and rates, in a filter table over the items
/// `ctx.values` covers.
///
/// `attribute(gp, q)` runs before query `q`'s solves on the solver
/// options they will use: the caller's place to label them (a query id,
/// a pre-resolved per-query counter). The solves run on a worker per 24
/// queries, up to the available cores, bit for bit the solves of one
/// thread; spans they open parent under the caller's.
///
/// # Errors
/// The failed solve of the lowest-index query that has one, with that
/// index.
pub fn install_units(
    queries: &[PolynomialQuery],
    strategy: AssignmentStrategy,
    heuristic: PqHeuristic,
    ctx: SolveContext<'_>,
    attribute: impl Fn(&mut SolverOptions, usize) + Sync,
) -> Result<Installed, InstallError> {
    let workers = available_cores().min(queries.len().div_ceil(SHARE_QUERIES));
    install_units_on(workers.max(1), queries, strategy, heuristic, ctx, attribute)
}

/// [`install_units`] on at most `workers` workers.
fn install_units_on(
    workers: usize,
    queries: &[PolynomialQuery],
    strategy: AssignmentStrategy,
    heuristic: PqHeuristic,
    ctx: SolveContext<'_>,
    attribute: impl Fn(&mut SolverOptions, usize) + Sync,
) -> Result<Installed, InstallError> {
    let units: Vec<Vec<AssignmentUnit>> = queries
        .iter()
        .map(|q| assignment_units(q, strategy, heuristic))
        .collect();
    let causal = pq_obs::SpanContext::current();
    // Query `q`'s first solves depend on `q` alone: every cache starts
    // empty, and a thread's solver scratch carries nothing from one solve
    // to the next.
    let solved = split_map(workers, units.len(), |query| {
        let _causal = causal.enter();
        let mut ctx = ctx.clone();
        attribute(&mut ctx.gp, query);
        let mut caches = Vec::with_capacity(units[query].len());
        for unit in &units[query] {
            let mut slot = UnitCache::new();
            assign_unit_cached(unit, &ctx, strategy, &mut slot)?;
            caches.push(slot);
        }
        Ok(caches)
    });
    let rows = (solved.into_iter().enumerate())
        .map(|(query, caches)| {
            caches.map_err(|source| InstallError {
                query: Some(query),
                source,
            })
        })
        .collect::<Result<Vec<Vec<UnitCache>>, _>>()?;
    let mut filters = FilterTable::new(ctx.values.len(), unit_items(&units));
    for (query, caches) in rows.iter().enumerate() {
        for (ui, slot) in caches.iter().enumerate() {
            filters.write(query, ui, slot.columns());
        }
    }
    Ok((units, filters, SolveCache::from_rows(rows)))
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
    use std::collections::HashMap;
    use std::sync::{Condvar, Mutex};
    use std::time::Duration;

    use pq_obs::{names, Obs, Value};
    use pq_poly::ItemId;

    use super::*;

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

        let attributed = Mutex::new(Vec::new());
        let (units, filters, mut cache) =
            install_units(&queries, strategy, heuristic, ctx.clone(), |gp, q| {
                gp.query = Some(q as u32);
                attributed.lock().unwrap().push(q);
            })
            .unwrap();
        assert_eq!(attributed.into_inner().unwrap(), [0, 1, 2]);
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
            |_, _| {},
        )
        .unwrap_err();
        assert_eq!(err.query, Some(1));
        assert!(err.to_string().starts_with("installing query 1: "));
    }

    /// Forced worker counts, as the tape builders' tests force theirs:
    /// the loop run once, a pair, a count that leaves a short last share,
    /// and one above every chunk count below.
    const WORKERS: [usize; 4] = [1, 2, 3, 7];
    const ITEMS: usize = 30;

    /// `n` queries over [`ITEMS`] items: a product portfolio, a linear
    /// aggregate and an arbitrage (two units under Half-and-Half) in
    /// turn. `unreadable` queries read an item with no value, so their
    /// first solve fails.
    fn book(n: usize, unreadable: &[usize]) -> Vec<PolynomialQuery> {
        (0..n)
            .map(|q| {
                let a = (q % (ITEMS - 1)) as u32;
                let (b, c) = (a + 1, (a + 2) % ITEMS as u32);
                let c = if unreadable.contains(&q) {
                    ITEMS as u32
                } else {
                    c
                };
                let qab = 30.0 + q as f64;
                match q % 3 {
                    0 => PolynomialQuery::portfolio([(1.0, x(a), x(b)), (2.0, x(b), x(c))], qab),
                    1 => PolynomialQuery::linear_aggregate([(1.0, x(a)), (3.0, x(c))], qab),
                    _ => PolynomialQuery::arbitrage([(1.0, x(a), x(b))], [(0.5, x(b), x(c))], qab),
                }
                .unwrap()
            })
            .collect()
    }

    /// The units of [`book`]`(n, _)` that solve a GP: the linear
    /// aggregates take their closed form.
    fn gp_units(n: usize) -> u64 {
        (0..n).map(|q| [1, 0, 2][q % 3]).sum()
    }

    fn values() -> Vec<f64> {
        (0..ITEMS).map(|i| 5.0 + i as f64).collect()
    }

    fn rates() -> Vec<f64> {
        (0..ITEMS).map(|i| 0.1 + 0.01 * i as f64).collect()
    }

    /// `queries` installed on `workers` workers, every solve reporting to
    /// `obs` and attributed to its query.
    fn install_on(
        workers: usize,
        queries: &[PolynomialQuery],
        obs: &Obs,
    ) -> Result<Installed, InstallError> {
        let (values, rates) = (values(), rates());
        let mut ctx = SolveContext::new(&values, &rates);
        ctx.gp = ctx.gp.observed_by(obs);
        let (strategy, heuristic) = (
            AssignmentStrategy::DualDab { mu: 5.0 },
            PqHeuristic::HalfAndHalf,
        );
        install_units_on(workers, queries, strategy, heuristic, ctx, |gp, q| {
            gp.query = Some(q as u32)
        })
    }

    /// The `gp.solve` spans `ring` caught, counted per attributed query.
    fn solves_by_query(ring: &pq_obs::RingBufferSubscriber) -> Vec<(u64, usize)> {
        assert_eq!(ring.dropped(), 0, "the ring holds the whole install");
        let mut by_query = std::collections::BTreeMap::new();
        for e in ring.events().iter().filter(|e| e.target == "gp.solve_ns") {
            if let Some(&pq_obs::Value::U64(q)) = e.field("query") {
                *by_query.entry(q).or_insert(0) += 1;
            }
        }
        by_query.into_iter().collect()
    }

    /// `queries` installed on `workers` workers, `label(q)` called before
    /// query `q`'s solves.
    fn install_on_labeled(
        workers: usize,
        queries: &[PolynomialQuery],
        label: impl Fn(usize) + Sync,
    ) -> Result<Installed, InstallError> {
        let (values, rates) = (values(), rates());
        let ctx = SolveContext::new(&values, &rates);
        let (strategy, heuristic) = (
            AssignmentStrategy::DualDab { mu: 5.0 },
            PqHeuristic::HalfAndHalf,
        );
        install_units_on(workers, queries, strategy, heuristic, ctx, |_, q| label(q))
    }

    /// Every float an install leaves behind, as bits: each unit's cells in
    /// the table and the columns (and rate estimates) in its cache, then
    /// each item's minimum primary DAB.
    fn bits((units, filters, mut cache): Installed) -> Vec<u64> {
        let mut bits = Vec::new();
        for (q, per_query) in units.iter().enumerate() {
            for u in 0..per_query.len() {
                for ([lo, hi], primary) in filters.cells(q, u) {
                    bits.extend([lo, hi, primary].map(f64::to_bits));
                }
                bits.extend(cache.unit_mut(q, u).columns().assignment().all_bits());
            }
        }
        bits.extend((0..ITEMS).map(|i| filters.min_primary(i).to_bits()));
        bits
    }

    /// Books one query below, at and one above one and two full chunks:
    /// every worker count installs the one-worker install's bits and
    /// counts the same solves.
    #[test]
    fn every_worker_count_installs_the_one_worker_bits() {
        for n in [1, 2]
            .map(|c| c * SHARE_QUERIES)
            .into_iter()
            .flat_map(|at| [at - 1, at, at + 1])
        {
            let queries = book(n, &[]);
            let (one, ring) = Obs::ring(1 << 14);
            let want = bits(install_on(1, &queries, &one).unwrap());
            let want_counts = one.snapshot();
            let want_solves = solves_by_query(&ring);
            assert_eq!(
                want_counts.counters[names::SOLVE_COLD_START],
                gp_units(n),
                "a cold start per GP unit"
            );
            for workers in WORKERS {
                let (obs, ring) = Obs::ring(1 << 14);
                let got = bits(install_on(workers, &queries, &obs).unwrap());
                assert!(got == want, "{workers} workers, {n} queries: other bits");
                let counts = obs.snapshot();
                assert_eq!(
                    counts.counters, want_counts.counters,
                    "{workers} workers, {n} queries"
                );
                assert_eq!(
                    solves_by_query(&ring),
                    want_solves,
                    "{workers} workers, {n} queries"
                );
            }
        }
    }

    /// Whichever worker reaches a failure first, the install reports the
    /// lowest failing query: a failure in the second share alone, two in
    /// it, and one in each share.
    #[test]
    fn the_lowest_failing_query_is_reported() {
        let n = 2 * SHARE_QUERIES;
        for failing in [vec![30], vec![30, 40], vec![40, 10]] {
            let queries = book(n, &failing);
            let lowest = failing.iter().min().copied();
            for workers in WORKERS {
                let err = install_on(workers, &queries, &Obs::null()).unwrap_err();
                assert_eq!(err.query, lowest, "{workers} workers, failing {failing:?}");
            }
        }
    }

    /// A worker that stalls keeps its share: the calling thread solves its
    /// own and then waits, so every query's cache is allocated by the same
    /// thread on every install (see [`pq_ddm::parallel::split_map`]). The
    /// spawned worker's first solve waits until the caller has solved its
    /// whole share.
    #[test]
    fn a_stalled_worker_keeps_its_share() {
        const N: usize = 2 * SHARE_QUERIES + 1;
        /// Long enough never to fire on a loaded machine; it turns a
        /// broken hand-off into a failure instead of a hang.
        const PATIENCE: Duration = Duration::from_secs(60);
        let queries = book(N, &[]);
        let caller = std::thread::current().id();
        let solved_by_caller = Mutex::new(Vec::new());
        let signal = Condvar::new();
        let installed = install_on_labeled(2, &queries, |q| {
            let mut by_caller = solved_by_caller.lock().unwrap();
            if std::thread::current().id() == caller {
                by_caller.push(q);
                signal.notify_all();
            } else {
                let (_by_caller, timeout) = signal
                    .wait_timeout_while(by_caller, PATIENCE, |done| done.len() < N.div_ceil(2))
                    .unwrap();
                assert!(!timeout.timed_out(), "waited {PATIENCE:?} for the caller");
            }
        });
        let alone = install_on(1, &queries, &Obs::null());
        assert!(bits(installed.unwrap()) == bits(alone.unwrap()));
        let by_caller = solved_by_caller.into_inner().unwrap();
        assert_eq!(by_caller, (0..N.div_ceil(2)).collect::<Vec<_>>());
    }

    /// Every `gp.solve` span of an install on two workers has the
    /// ancestry it has on one: `dab.solve` under the span the caller had
    /// open, whichever thread solved it.
    #[test]
    fn solve_spans_parent_under_the_caller_on_any_worker() {
        let queries = book(2 * SHARE_QUERIES + 1, &[]);
        let ancestries = |workers: usize| -> Vec<(u64, Vec<String>)> {
            let (obs, ring) = Obs::ring(1 << 16);
            let outer = obs.timed(names::MONITOR_INSTALL);
            install_on(workers, &queries, &obs).unwrap();
            drop(outer);
            let events = ring.events();
            let id = |e: &pq_obs::Event, key| match e.field(key) {
                Some(Value::U64(v)) => Some(*v),
                _ => None,
            };
            let spans: HashMap<u64, (String, Option<u64>)> = events
                .iter()
                .filter_map(|e| Some((id(e, "span_id")?, (e.target.to_string(), id(e, "parent")))))
                .collect();
            let mut out: Vec<(u64, Vec<String>)> = events
                .iter()
                .filter(|e| e.target == format!("{}_ns", names::GP_SOLVE))
                .map(|e| {
                    let mut chain = Vec::new();
                    let mut cursor = id(e, "parent");
                    while let Some((name, parent)) = cursor.and_then(|p| spans.get(&p)) {
                        chain.push(name.clone());
                        cursor = *parent;
                    }
                    (id(e, "query").expect("a solve names its query"), chain)
                })
                .collect();
            out.sort();
            out
        };
        let one = ancestries(1);
        let two = ancestries(2);
        assert_eq!(one.len() as u64, gp_units(queries.len()));
        let want = [names::DAB_SOLVE, names::MONITOR_INSTALL].map(|n| format!("{n}_ns"));
        assert!(one.iter().all(|(_, chain)| chain == &want), "{one:?}");
        assert_eq!(one, two);
    }
}
