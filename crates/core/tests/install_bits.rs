//! Golden bits of what a coordinator installs.
//!
//! Three books are installed through `Coordinator::install` at a stock
//! tape's tick-0 values (at rates sampled over its first 60 ticks), then
//! driven through the tape's first 2 000 ticks, every moved item refreshed,
//! which re-anchors or re-solves whatever the drift invalidated. After
//! each phase every cell of every unit (anchor,
//! secondary and primary DAB per item) and every item's installed filter
//! are folded into an FNV-1a hash of its own: an install hash and a drift
//! hash per book. A change that moves one bit of one filter fails here.
//!
//! The hashes were first taken from the coordinator as it solved before
//! its per-unit bookkeeping was rewritten. The drift hashes were re-taken
//! when recomputes began to start from the predicted optimum at their
//! values rather than from the unit's previous optimum (DESIGN.md,
//! "One start rule"), and all six when warm starts began to fit their
//! duals instead of centring them (DESIGN.md, "Warm start rule"): the
//! solver stops at other points within its gap tolerance, every unit's
//! modelled objective within 1.7e-6 relative of the centred start's.
//! The drift hashes were re-taken once more when a `Box` unit's validity
//! range became one-sided (DESIGN.md §10, "Validity invariant"): a fall
//! no longer re-solves a unit, so the drift re-solves at other refreshes.
//! They were re-taken again, over a drift four times as long, when a
//! stale unit whose primary DABs still fit began to be re-anchored
//! instead of re-solved (DESIGN.md §10, "Validity invariant"): 60 ticks
//! re-solved no unit of two of the books. They were re-taken over 2 000
//! ticks when a stale unit began to be re-anchored down to its floor
//! `max b / c` (DESIGN.md §10, "Re-anchor before re-solve"): 240 ticks
//! re-solved no unit of the overlap book, and 2 000 re-solve 57, 9 and
//! 86 units of the fig5, overlap and half-and-half books. All six were
//! re-taken when every DAB solve began to stop at its first iterate
//! within the certified gap `DAB_GAP` (DESIGN.md §10, "Certified stop"):
//! a solve now returns one Newton step (Dual-DAB) or none (Optimal
//! Refresh) short of the `1e-5` tolerance; the drift re-solves the same
//! 57, 9 and 86 units. All six were re-taken when a unit whose shape
//! another unit of the book shares began to bind its shape's template
//! and to try its prediction moved by the leader's offset first
//! (DESIGN.md §10, "One start rule"): such a unit solves in its shape's
//! canonical layout and may stop at that start.
//!
//! Each book also pins how many solves stopped at step 0 at their shape
//! start, at the install and over the drift. CI runs this file on two
//! cores (a 40-query book installs on two workers) and under
//! `taskset -c 0` (one worker): the counts, like the hashes, must not
//! depend on the worker count.

use pq_core::coordinator::{Config, Coordinator, Scope};
use pq_core::{dab_solver_options, AssignmentStrategy, PqHeuristic, ValidityRange};
use pq_ddm::{DataDynamicsModel, RateEstimator, TraceSet};
use pq_obs::Obs;
use pq_poly::{ItemId, PolynomialQuery};

const ITEMS: u32 = 100;
const QUERIES: usize = 40;
const RATE_TICKS: usize = 60;
const DRIFT_TICKS: usize = 2000;

const INSTALL_FIG5: u64 = 0x8ce2_cd86_7038_c532;
const DRIFT_FIG5: u64 = 0x79e3_4e38_e8f5_3a1c;
const INSTALL_OVERLAP: u64 = 0xd2d1_db25_d460_370c;
const DRIFT_OVERLAP: u64 = 0x7161_9f47_2e11_f5f9;
const INSTALL_HALF: u64 = 0x6938_28f0_0250_92f9;
const DRIFT_HALF: u64 = 0xc96c_e84e_05f2_6afe;
/// Solves that stopped at their shape start, at the install and over the
/// drift: the same on one worker and on two.
const STOPS_FIG5: (usize, usize) = (21, 27);
const STOPS_OVERLAP: (usize, usize) = (28, 4);
const STOPS_HALF: (usize, usize) = (41, 64);

/// 64-bit FNV-1a over the little-endian bytes of every value folded in.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bits(&mut self, v: f64) {
        for byte in v.to_bits().to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }
}

fn lcg(state: &mut u64) -> u32 {
    *state = state
        .wrapping_mul(6_364_136_223_846_793_005)
        .wrapping_add(1_442_695_040_888_963_407);
    (*state >> 33) as u32
}

fn pair(state: &mut u64) -> (ItemId, ItemId) {
    let a = lcg(state) % ITEMS;
    let b = (a + 1 + lcg(state) % (ITEMS - 1)) % ITEMS;
    (ItemId(a.min(b)), ItemId(a.max(b)))
}

/// `QUERIES` queries of `legs` weighted two-item products, QAB 0.1 % of
/// the value at `values` (tight enough that the drift re-solves). `pool = None` draws every leg's pair afresh
/// (the paper's fig5 book); `Some(k)` draws legs from `k` fixed pairs,
/// so queries share most of their terms (the overlap book). `sell`
/// makes every third leg a sell-side one (an arbitrage book).
fn book(
    legs: std::ops::RangeInclusive<u32>,
    pool: Option<u32>,
    sell: bool,
    values: &[f64],
) -> Vec<PolynomialQuery> {
    let mut state = 0x1CDE_2008_u64;
    let pairs: Vec<_> = (0..pool.unwrap_or(0)).map(|_| pair(&mut state)).collect();
    (0..QUERIES)
        .map(|_| {
            let n = legs.start() + lcg(&mut state) % (legs.end() - legs.start() + 1);
            let (mut buy, mut sold) = (Vec::new(), Vec::new());
            for k in 0..n {
                let (a, b) = match pool {
                    Some(size) => pairs[(lcg(&mut state) % size) as usize],
                    None => pair(&mut state),
                };
                let leg = (1.0 + f64::from(lcg(&mut state) % 8), a, b);
                if sell && k % 3 == 2 {
                    sold.push(leg);
                } else {
                    buy.push(leg);
                }
            }
            let query = PolynomialQuery::arbitrage(buy, sold, 1.0).unwrap();
            let qab = 0.001 * query.eval(values).abs().max(1.0);
            query.with_qab(qab).unwrap()
        })
        .collect()
}

/// Every cell of every unit (`units[q]` of query `q`), then every
/// item's installed filter.
fn fold(c: &Coordinator, units: &[usize], hash: &mut Fnv) {
    for (q, &n) in units.iter().enumerate() {
        for u in 0..n {
            let a = c.assignment(q, u);
            let ValidityRange::Box(secondary) = &a.validity else {
                panic!("a table reads its cells back as boxes")
            };
            for (item, &anchor) in &a.anchor {
                hash.bits(anchor);
                hash.bits(secondary[item]);
                hash.bits(a.primary.get(item).copied().unwrap_or(f64::INFINITY));
            }
        }
    }
    for item in 0..ITEMS as usize {
        hash.bits(c.filter(item));
    }
}

/// What one book reads: the hashes of it installed at tick 0 and drifted
/// to tick [`DRIFT_TICKS`], and how many of the install's and the
/// drift's solves stopped at step 0 at their shape start.
#[derive(Debug, PartialEq)]
struct Reading {
    install: u64,
    drift: u64,
    shape_stops: (usize, usize),
}

/// The `gp.solve` spans in `events` that stopped at their shape start.
fn shape_stops(events: &[pq_obs::Event]) -> usize {
    let stopped = |e: &&pq_obs::Event| {
        e.target == "gp.solve_ns" && e.field("shape_start") == Some(&pq_obs::Value::Bool(true))
    };
    let stops = events.iter().filter(stopped);
    assert!(
        stops
            .clone()
            .all(|e| e.field("newton_steps") == Some(&pq_obs::Value::U64(0))),
        "a shape stop takes no Newton step"
    );
    stops.count()
}

/// [`Reading`] of the book `queries` builds at tick 0.
fn installed_then_drifted(
    queries: impl Fn(&[f64]) -> Vec<PolynomialQuery>,
    heuristic: PqHeuristic,
) -> Reading {
    let traces = TraceSet::stock_universe(ITEMS as usize, DRIFT_TICKS + 1, 0x1CDE_2008);
    let rated = TraceSet::stock_universe(ITEMS as usize, RATE_TICKS + 1, 0x1CDE_2008);
    let rates = RateEstimator::SampledAverage {
        interval_ticks: RATE_TICKS,
    }
    .estimate_all(&rated);
    let start = traces.values_at(0);
    let queries = queries(&start);
    // Half-and-Half splits a mixed-sign body in two units.
    let units: Vec<usize> = (queries.iter())
        .map(|q| {
            let (p1, p2) = q.poly().split_pos_neg();
            let split = heuristic == PqHeuristic::HalfAndHalf && !q.poly().is_linear();
            1 + usize::from(split && !p1.is_zero() && !p2.is_zero())
        })
        .collect();
    let (obs, ring) = Obs::ring(1 << 16);
    let cfg = Config {
        rates,
        ddm: DataDynamicsModel::Monotonic,
        gp: dab_solver_options(),
        obs,
        scope: Scope::default(),
    };
    let strategy = AssignmentStrategy::DualDab { mu: 5.0 };
    let mut c = Coordinator::install(&queries, strategy, heuristic, start.clone(), cfg).unwrap();
    let mut installed = Fnv::new();
    fold(&c, &units, &mut installed);
    let installing = ring.events().len();
    let mut recomputed = 0;
    for tick in 1..=DRIFT_TICKS {
        for item in 0..ITEMS as usize {
            let now = traces.trace(item).at(tick);
            if now != c.values()[item] {
                recomputed += c.on_refresh(item, now).unwrap().recomputed.len();
            }
        }
    }
    assert!(recomputed > 0, "the drift re-solved nothing");
    let mut drifted = Fnv::new();
    fold(&c, &units, &mut drifted);
    assert_eq!(ring.dropped(), 0, "the ring holds the whole run");
    let events = ring.events();
    let (install, drift) = events.split_at(installing);
    Reading {
        install: installed.0,
        drift: drifted.0,
        shape_stops: (shape_stops(install), shape_stops(drift)),
    }
}

#[test]
fn a_fig5_style_book_installs_and_recomputes_the_same_bits() {
    let got = installed_then_drifted(|v| book(6..=7, None, false, v), PqHeuristic::DifferentSum);
    assert_eq!(
        got.install, INSTALL_FIG5,
        "fig5-style book, installed: {:#018x}",
        got.install
    );
    assert_eq!(
        got.drift, DRIFT_FIG5,
        "fig5-style book, drifted: {:#018x}",
        got.drift
    );
    assert_eq!(got.shape_stops, STOPS_FIG5, "fig5-style book, shape stops");
}

#[test]
fn an_overlap_style_book_installs_and_recomputes_the_same_bits() {
    let overlap = |v: &[f64]| book(3..=4, Some(12), false, v);
    let got = installed_then_drifted(overlap, PqHeuristic::DifferentSum);
    assert_eq!(
        got.install, INSTALL_OVERLAP,
        "overlap-style book, installed: {:#018x}",
        got.install
    );
    assert_eq!(
        got.drift, DRIFT_OVERLAP,
        "overlap-style book, drifted: {:#018x}",
        got.drift
    );
    assert_eq!(
        got.shape_stops, STOPS_OVERLAP,
        "overlap-style book, shape stops"
    );
}

#[test]
fn a_half_and_half_arbitrage_book_installs_and_recomputes_the_same_bits() {
    let got = installed_then_drifted(|v| book(3..=4, None, true, v), PqHeuristic::HalfAndHalf);
    assert_eq!(
        got.install, INSTALL_HALF,
        "half-and-half book, installed: {:#018x}",
        got.install
    );
    assert_eq!(
        got.drift, DRIFT_HALF,
        "half-and-half book, drifted: {:#018x}",
        got.drift
    );
    assert_eq!(
        got.shape_stops, STOPS_HALF,
        "half-and-half book, shape stops"
    );
}
