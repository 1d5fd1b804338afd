//! The coordinator against its reference, against hostile input, and
//! against the paper's Condition 1.
//!
//! [`Reference`] is the coordinator algorithm with every short cut taken
//! out: query values by `Polynomial::eval`, staleness by a full
//! `QueryAssignment::is_valid_at` scan over every unit of every query,
//! re-anchors by `QueryAssignment::respects_qab`'s corner enumeration,
//! re-solves by the uncached `assign_unit`, filters by a minimum over
//! every assignment. [`pq_core::Coordinator`] — compiled plan and
//! delta-maintained values with their rebase period, item-major filter
//! table, per-unit caches and per-thread solve scratch — must make the same
//! decisions on any book. With sources that push the moment they leave
//! their filter and filters that install the moment they change, every
//! query must stay within its QAB under every strategy and heuristic.

use std::sync::atomic::{AtomicU32, AtomicUsize, Ordering};

use proptest::prelude::*;

use pq_core::coordinator::{Config, Coordinator, Scope, REBASE_EVERY};
use pq_core::{
    assign_unit, assignment_units, dab_solver_options, AssignmentStrategy, AssignmentUnit,
    DabError, InstallError, PqHeuristic, QueryAssignment, SolveContext, ValidityRange,
};
use pq_ddm::DataDynamicsModel;
use pq_obs::Obs;
use pq_poly::{ItemId, Polynomial, PolynomialQuery, QueryId};

const N_ITEMS: usize = 5;
const STRATEGY: AssignmentStrategy = AssignmentStrategy::DualDab { mu: 5.0 };
const STRATEGIES: [AssignmentStrategy; 4] = [
    AssignmentStrategy::OptimalRefresh,
    STRATEGY,
    AssignmentStrategy::PerItemSplit,
    AssignmentStrategy::EqualDab,
];

/// Cases each property runs.
const CASES: u32 = 12;
/// Cases of `condition_one_holds_at_every_corner_of_the_filters` run so
/// far, and the units their walks re-anchored.
static CORNER_CASES: AtomicU32 = AtomicU32::new(0);
static CORNER_REANCHORS: AtomicUsize = AtomicUsize::new(0);

/// The queries of the units a refresh re-solved, and of those it
/// re-anchored, one entry per unit.
type Refreshed = (Vec<QueryId>, Vec<QueryId>);

/// The differential oracle (see the module docs).
struct Reference {
    queries: Vec<PolynomialQuery>,
    units: Vec<Vec<AssignmentUnit>>,
    assignments: Vec<Vec<QueryAssignment>>,
    values: Vec<f64>,
    rates: Vec<f64>,
    last_notified: Vec<f64>,
}

impl Reference {
    fn install(queries: &[PolynomialQuery], heuristic: PqHeuristic, values: &[f64]) -> Self {
        let units: Vec<_> = queries
            .iter()
            .map(|q| assignment_units(q, STRATEGY, heuristic))
            .collect();
        let mut this = Reference {
            queries: queries.to_vec(),
            assignments: Vec::new(),
            values: values.to_vec(),
            rates: config().rates,
            last_notified: queries.iter().map(|q| q.eval(values)).collect(),
            units,
        };
        this.assignments = (0..queries.len())
            .map(|q| (0..this.units[q].len()).map(|u| this.solve(q, u)).collect())
            .collect();
        this
    }

    fn solve(&self, q: usize, u: usize) -> QueryAssignment {
        let ctx = SolveContext::new(&self.values, &self.rates);
        assign_unit(&self.units[q][u], &ctx, STRATEGY).expect("positive data")
    }

    /// The stale unit `u` of query `q` re-anchored at the current values,
    /// when its primary DABs still hold there: each finite secondary DAB
    /// `c` widened to `max(t·c, b)` over its primary `b`, for the first
    /// `t` whose every corner keeps the unit's QAB, trying the `t` of
    /// `1, ½, ¼, ⅛` at or above the floor `max b / c`, then the floor,
    /// over non-negative values on the items with a finite `c`.
    fn reanchored(&self, q: usize, u: usize) -> Option<QueryAssignment> {
        let a = &self.assignments[q][u];
        let ValidityRange::Box(c) = &a.validity else {
            return None;
        };
        let coupled = || c.iter().filter(|(_, c)| c.is_finite());
        if !coupled().all(|(i, _)| self.values[i.index()] >= 0.0) {
            return None;
        }
        let needs: Vec<f64> = coupled().map(|(i, &c)| a.primary[i] / c).collect();
        if needs.iter().any(|n| n.is_nan()) {
            return None;
        }
        let floor = needs.into_iter().fold(0.0, f64::max);
        let scales = [1.0, 0.5, 0.25, 0.125];
        let mut rungs: Vec<f64> = scales.into_iter().filter(|&t| t >= floor).collect();
        if 0.0 < floor && floor <= 1.0 && !scales.contains(&floor) {
            rungs.push(floor);
        }
        let unit = &self.units[q][u];
        let query = PolynomialQuery::shared(unit.body.clone(), unit.qab).unwrap();
        let widened = |t: f64, i: &ItemId, c: f64| {
            if c.is_finite() {
                (t * c).max(a.primary[i])
            } else {
                c
            }
        };
        rungs.into_iter().find_map(|t| {
            let moved = QueryAssignment {
                anchor: a
                    .anchor
                    .keys()
                    .map(|&i| (i, self.values[i.index()]))
                    .collect(),
                validity: ValidityRange::Box(
                    c.iter().map(|(i, &c)| (*i, widened(t, i, c))).collect(),
                ),
                ..a.clone()
            };
            moved.respects_qab(&query, 0.0).then_some(moved)
        })
    }

    /// One refresh: the notifications it causes and, once per unit it
    /// breaks (re-anchored or re-solved before returning), the unit's
    /// query, as `(recomputed, reanchored)`.
    fn on_refresh(&mut self, item: usize, value: f64) -> (Vec<(QueryId, f64)>, Refreshed) {
        self.values[item] = value;
        let mut notify = Vec::new();
        for (qi, q) in self.queries.iter().enumerate() {
            let qv = q.eval(&self.values);
            if q.items().contains(&ItemId(item as u32))
                && (qv - self.last_notified[qi]).abs() > q.qab()
            {
                self.last_notified[qi] = qv;
                notify.push((QueryId(qi as u32), qv));
            }
        }
        let mut stale = Vec::new();
        for (q, per_query) in self.assignments.iter().enumerate() {
            for (u, assignment) in per_query.iter().enumerate() {
                if !assignment.is_valid_at(&self.values) {
                    stale.push((q, u));
                }
            }
        }
        let (mut recomputed, mut reanchored) = (Vec::new(), Vec::new());
        for (q, u) in stale {
            self.assignments[q][u] = match self.reanchored(q, u) {
                Some(moved) => {
                    reanchored.push(QueryId(q as u32));
                    moved
                }
                None => {
                    recomputed.push(QueryId(q as u32));
                    self.solve(q, u)
                }
            };
        }
        (notify, (recomputed, reanchored))
    }

    /// The EQI minimum rule over every assignment.
    fn filter(&self, item: usize) -> f64 {
        self.assignments
            .iter()
            .flatten()
            .filter_map(|a| a.primary_dab(ItemId(item as u32)))
            .fold(f64::INFINITY, f64::min)
    }

    /// Adopts the coordinator's assignments: a warm and a cold optimum
    /// agree to solver tolerance, and a validity range that differs in
    /// its last digits would, a few hundred refreshes on, break on a
    /// different refresh.
    fn reseed(&mut self, core: &Coordinator) {
        for (q, per_query) in self.assignments.iter_mut().enumerate() {
            for (u, assignment) in per_query.iter_mut().enumerate() {
                *assignment = core.assignment(q, u);
            }
        }
    }
}

fn close(got: f64, want: f64, rel: f64) -> bool {
    (got - want).abs() <= rel * want.abs().max(1.0)
}

/// A mixed-sign query over items `0..5`: one to four terms (linear,
/// square or bilinear) with coefficients of either sign.
fn arb_query() -> impl Strategy<Value = PolynomialQuery> {
    let coef = (0.25f64..2.0, 0u32..2).prop_map(|(c, neg)| if neg == 1 { -c } else { c });
    let term = (coef, 0u32..5, 0u32..5, 0u32..3).prop_map(|(c, i, j, shape)| {
        let vars = if shape == 0 {
            vec![(ItemId(i), 1)]
        } else {
            vec![(ItemId(i), 1), (ItemId(j), 1)]
        };
        pq_poly::PTerm::new(c, vars).unwrap()
    });
    (proptest::collection::vec(term, 1..5), 0.05f64..0.5)
        .prop_map(|(terms, qab)| (Polynomial::from_terms(terms), qab))
        .prop_filter("reads an item", |(p, _)| !p.items().is_empty())
        .prop_map(|(p, qab)| PolynomialQuery::new(p, qab).unwrap())
}

fn config() -> Config {
    Config {
        rates: vec![0.05; N_ITEMS],
        ddm: DataDynamicsModel::Monotonic,
        gp: dab_solver_options(),
        obs: Obs::null(),
        scope: Scope::default(),
    }
}

fn heuristic(half_and_half: u8) -> PqHeuristic {
    if half_and_half == 1 {
        PqHeuristic::HalfAndHalf
    } else {
        PqHeuristic::DifferentSum
    }
}

/// Zero delay: every source outside its filter pushes through `apply` +
/// `react`, and the filter changes each push returns are installed at
/// once (which may send another source out of its new filter, so the
/// pushes run until none is outside). Returns how many units the pushes
/// re-anchored; stops at the first push whose re-solve fails.
fn push_until_settled(
    core: &mut Coordinator,
    filters: &mut [f64],
    source: &[f64],
) -> Result<usize, InstallError> {
    let mut reanchored = 0;
    while let Some(i) = (0..N_ITEMS).find(|&i| (source[i] - core.values()[i]).abs() > filters[i]) {
        core.apply(i, source[i]).unwrap();
        let out = core.react(i, None)?;
        reanchored += out.reanchored.len();
        for (ItemId(j), b) in out.filter_changes {
            filters[j as usize] = b;
        }
    }
    Ok(reanchored)
}

/// The unit with the tightest finite validity range for `item`, as
/// `(item, anchor, c)` for each item it holds a finite range for: the
/// box the unit's solve stays valid in.
fn tightest_box(
    core: &Coordinator,
    queries: &[PolynomialQuery],
    strategy: AssignmentStrategy,
    heuristic: PqHeuristic,
    item: usize,
) -> Vec<(usize, f64, f64)> {
    let mut tightest = (f64::INFINITY, Vec::new());
    for (q, query) in queries.iter().enumerate() {
        for u in 0..assignment_units(query, strategy, heuristic).len() {
            let a = core.assignment(q, u);
            let ValidityRange::Box(c) = &a.validity else {
                continue;
            };
            if let Some(&own) = c.get(&ItemId(item as u32)).filter(|&&c| c < tightest.0) {
                let finite = c.iter().filter(|(_, c)| c.is_finite());
                tightest = (
                    own,
                    finite.map(|(j, &c)| (j.index(), a.anchor[j], c)).collect(),
                );
            }
        }
    }
    tightest.1
}

/// Everything a refresh may move, bit for bit.
fn state_bits(core: &Coordinator) -> Vec<u64> {
    let filters = (0..N_ITEMS).map(|i| core.filter(i));
    let all = core.values().iter().chain(core.query_values()).copied();
    all.chain(filters).map(f64::to_bits).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(CASES))]

    /// Over more than three rebase periods of random refreshes, the
    /// coordinator and the reference agree after every call: query
    /// values, who is notified of what, which units went stale, and
    /// every item's filter.
    #[test]
    fn the_coordinator_decides_what_the_reference_decides(
        queries in proptest::collection::vec(arb_query(), 1..6),
        half_and_half in 0u8..2,
        start in proptest::collection::vec(0.75f64..1.75, N_ITEMS),
        moves in proptest::collection::vec(
            (0usize..N_ITEMS, -0.06f64..0.06),
            3 * REBASE_EVERY as usize + 40,
        ),
    ) {
        let heuristic = heuristic(half_and_half);
        let mut oracle = Reference::install(&queries, heuristic, &start);
        let mut core =
            Coordinator::install(&queries, STRATEGY, heuristic, start, config()).unwrap();
        for (step, (item, delta)) in moves.into_iter().enumerate() {
            let value = (core.values()[item] + delta).clamp(0.5, 2.0);
            let out = core.on_refresh(item, value).unwrap();
            let (want_notify, (want_recomputed, want_reanchored)) = oracle.on_refresh(item, value);
            for (qi, q) in queries.iter().enumerate() {
                let (got, want) = (core.query_values()[qi], q.eval(core.values()));
                prop_assert!(close(got, want, 1e-12), "step {}, q{}: {} vs {}", step, qi, got, want);
            }
            let ids = |n: &[(QueryId, f64)]| n.iter().map(|&(q, _)| q).collect::<Vec<_>>();
            prop_assert_eq!(ids(&out.notify), ids(&want_notify), "step {}", step);
            for (&(_, got), &(_, want)) in out.notify.iter().zip(&want_notify) {
                prop_assert!(close(got, want, 1e-12));
            }
            prop_assert_eq!(&out.recomputed, &want_recomputed, "step {}", step);
            prop_assert_eq!(&out.reanchored, &want_reanchored, "step {}", step);
            for i in 0..N_ITEMS {
                let (got, want) = (core.filter(i), oracle.filter(i));
                prop_assert!(
                    got == want || close(got, want, 1e-6),
                    "step {}, x{}: filter {} vs {}", step, i, got, want
                );
            }
            if !want_recomputed.is_empty() {
                oracle.reseed(&core);
            }
        }
    }

    /// A refresh naming no item, or carrying no number, is refused with
    /// its typed error before anything moves — by `on_refresh` and by
    /// `apply` — and a coordinator fed hostile refreshes between its real
    /// ones ends where one fed only the real ones does, bit for bit.
    #[test]
    fn hostile_refreshes_move_nothing(
        queries in proptest::collection::vec(arb_query(), 1..5),
        half_and_half in 0u8..2,
        start in proptest::collection::vec(0.75f64..1.75, N_ITEMS),
        moves in proptest::collection::vec(
            (0usize..N_ITEMS, -0.2f64..0.2, 0u8..8, 0usize..N_ITEMS + 40),
            60,
        ),
    ) {
        let install = || {
            let heuristic = heuristic(half_and_half);
            Coordinator::install(&queries, STRATEGY, heuristic, start.clone(), config()).unwrap()
        };
        let (mut clean, mut hostile) = (install(), install());
        for (item, delta, kind, stray) in moves {
            let value = (clean.values()[item] + delta).clamp(0.5, 2.0);
            let (bad_item, bad_value) = match kind {
                0 => (item, f64::NAN),
                1 => (item, f64::INFINITY),
                2 => (item, f64::NEG_INFINITY),
                3 => (N_ITEMS + stray, value),
                4 => (N_ITEMS + stray, f64::NAN),
                _ => (item, value),
            };
            if kind < 5 {
                let before = state_bits(&hostile);
                let want = if bad_item >= N_ITEMS {
                    DabError::UnknownItem { item: bad_item as u32 }
                } else {
                    DabError::NonFiniteValue { item: bad_item as u32, value: bad_value }
                };
                // NaN != NaN: compare the errors as they print.
                let refused = |got: Result<(), DabError>| {
                    got.err().map(|e| e.to_string()) == Some(want.to_string())
                };
                prop_assert!(refused(hostile.on_refresh(bad_item, bad_value).map(|_| ())));
                prop_assert!(refused(hostile.apply(bad_item, bad_value)));
                prop_assert_eq!(state_bits(&hostile), before);
            }
            let (a, b) = (clean.on_refresh(item, value), hostile.on_refresh(item, value));
            prop_assert_eq!(a.map(|o| (o.notify, o.recomputed, o.filter_changes)),
                            b.map(|o| (o.notify, o.recomputed, o.filter_changes)));
        }
        prop_assert_eq!(state_bits(&clean), state_bits(&hostile));
    }

    /// Condition 1 at zero delay: sources walk at random and [`push_until_settled`]
    /// what leaves a filter. After every step each query's value at the
    /// sources is within its QAB of its value at the coordinator.
    #[test]
    fn condition_one_holds_at_zero_delay(
        queries in proptest::collection::vec(arb_query(), 1..6),
        start in proptest::collection::vec(0.75f64..1.75, N_ITEMS),
        walk in proptest::collection::vec((0usize..N_ITEMS, -0.06f64..0.06), 150),
    ) {
        for strategy in STRATEGIES {
            for heuristic in [PqHeuristic::HalfAndHalf, PqHeuristic::DifferentSum] {
                let mut core =
                    Coordinator::install(&queries, strategy, heuristic, start.clone(), config())
                        .unwrap();
                let mut filters: Vec<f64> = (0..N_ITEMS).map(|i| core.filter(i)).collect();
                let mut source = start.clone();
                for (step, &(item, delta)) in walk.iter().enumerate() {
                    source[item] = (source[item] + delta).clamp(0.5, 2.0);
                    push_until_settled(&mut core, &mut filters, &source).unwrap();
                    for (qi, q) in queries.iter().enumerate() {
                        let gap = (q.eval(&source) - q.eval(core.values())).abs();
                        prop_assert!(
                            gap <= q.qab() * (1.0 + 1e-9),
                            "{} / {:?}, step {}, q{}: |P(source) - P(coordinator)| = {} > QAB {}",
                            strategy, heuristic, step, qi, gap, q.qab()
                        );
                    }
                }
            }
        }
    }

    /// Condition 1 where it binds: moves of ±0.6 on values in [0.5, 2],
    /// moves to exactly 0 and back, moves that put every item of a
    /// unit's validity box within 5 % of its upper edge, and moves of an
    /// item below the mirror image `−(anchor + c)` of the top of its
    /// tightest box carry the sources through their filters and to the
    /// edges of the units' validity ranges, the lower one included. After
    /// every delivered step, wherever each source may sit without pushing —
    /// anywhere within its filter of the coordinator's value — each query
    /// is within its QAB of its value at the coordinator. The worst such
    /// point is a corner of the box (`max_abs_deviation_over_box`), and a
    /// Dual-DAB optimum puts it on the bound, so a filter a little looser
    /// than its unit allows shows here, and so does a unit kept valid at
    /// a value of larger magnitude than its condition covers. Only the
    /// move below the mirror image may fail its re-solve: the GP refuses
    /// a negative value on an item some product or power reads. An item
    /// read only linearly enters no coefficient, so its negative value
    /// is kept, and every later re-solve of a unit reading it must
    /// succeed. After a failure the source goes back to where it was,
    /// the coordinator's filters are shipped again, and that delivery
    /// must succeed. Any other failed delivery fails the test. The walks
    /// must re-anchor some unit over the cases: a corner check that only
    /// ever sees re-solved units cannot catch a bad re-anchor.
    #[test]
    fn condition_one_holds_at_every_corner_of_the_filters(
        queries in proptest::collection::vec(arb_query(), 1..6),
        start in proptest::collection::vec(0.75f64..1.75, N_ITEMS),
        walk in proptest::collection::vec((0usize..N_ITEMS, -0.6f64..0.6, 0u8..9), 24),
    ) {
        for strategy in STRATEGIES {
            for heuristic in [PqHeuristic::HalfAndHalf, PqHeuristic::DifferentSum] {
                let mut core =
                    Coordinator::install(&queries, strategy, heuristic, start.clone(), config())
                        .unwrap();
                let mut filters: Vec<f64> = (0..N_ITEMS).map(|i| core.filter(i)).collect();
                let mut source = start.clone();
                for (step, &(item, delta, kind)) in walk.iter().enumerate() {
                    let before = source[item];
                    match kind {
                        0 => source[item] = 0.0,
                        // Every item of a box within 5 % of its upper
                        // edge, either side.
                        1..=3 => {
                            for (j, anchor, c) in
                                tightest_box(&core, &queries, strategy, heuristic, item)
                            {
                                source[j] = (anchor + c * (1.0 + delta / 12.0)).max(0.0);
                            }
                        }
                        // Below the mirror image of the top of the item's
                        // tightest box, by up to 7 times its magnitude.
                        8 => {
                            let top = tightest_box(&core, &queries, strategy, heuristic, item)
                                .into_iter()
                                .find(|&(j, ..)| j == item)
                                .map_or(source[item].abs(), |(_, anchor, c)| anchor + c);
                            source[item] = -top * (1.0 + 10.0 * delta.abs()) - 1e-9;
                        }
                        _ => source[item] = (source[item] + delta).clamp(0.5, 2.0),
                    }
                    match push_until_settled(&mut core, &mut filters, &source) {
                        Ok(reanchored) => {
                            CORNER_REANCHORS.fetch_add(reanchored, Ordering::Relaxed);
                        }
                        Err(_) if kind == 8 => {
                            source[item] = before;
                            filters = (0..N_ITEMS).map(|i| core.filter(i)).collect();
                            let back = push_until_settled(&mut core, &mut filters, &source);
                            prop_assert!(
                                back.is_ok(),
                                "{} / {:?}, step {}: the move back failed: {:?}",
                                strategy, heuristic, step, back
                            );
                        }
                        Err(e) => prop_assert!(
                            false,
                            "{} / {:?}, step {}: {:?}",
                            strategy, heuristic, step, e
                        ),
                    }
                    for (qi, q) in queries.iter().enumerate() {
                        let worst = q.poly().max_abs_deviation_over_box(core.values(), &filters);
                        prop_assert!(
                            worst <= q.qab() * (1.0 + 1e-6),
                            "{} / {:?}, step {}, q{}: worst corner {} > QAB {}",
                            strategy, heuristic, step, qi, worst, q.qab()
                        );
                    }
                }
            }
        }
        // The last case of the sweep (a replayed case runs alone).
        if CORNER_CASES.fetch_add(1, Ordering::Relaxed) + 1 == CASES {
            prop_assert!(
                CORNER_REANCHORS.load(Ordering::Relaxed) > 0,
                "no corner walk re-anchored a unit"
            );
        }
    }
}
