//! Golden bits of what a coordinator installs.
//!
//! Three books are installed through `Coordinator::install` at a stock
//! tape's tick-0 values, then driven through the tape's first 60 ticks,
//! every moved item refreshed, which re-solves whatever the drift
//! invalidated. After each phase every cell of every unit (anchor,
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

use pq_core::coordinator::{Config, Coordinator, Scope};
use pq_core::{dab_solver_options, AssignmentStrategy, PqHeuristic, ValidityRange};
use pq_ddm::{DataDynamicsModel, RateEstimator, TraceSet};
use pq_obs::Obs;
use pq_poly::{ItemId, PolynomialQuery};

const ITEMS: u32 = 100;
const QUERIES: usize = 40;
const DRIFT_TICK: usize = 60;

const INSTALL_FIG5: u64 = 0x7b14_da2e_2448_9a41;
const DRIFT_FIG5: u64 = 0x28b5_18d8_6bcd_887a;
const INSTALL_OVERLAP: u64 = 0x2dc0_195c_829d_3517;
const DRIFT_OVERLAP: u64 = 0x303e_3579_4426_f113;
const INSTALL_HALF: u64 = 0x952d_f4e9_2535_89c1;
const DRIFT_HALF: u64 = 0x84ed_8121_5913_d6e2;

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

/// The hashes of a book installed at tick 0, and of it drifted to tick 60.
fn installed_then_drifted(
    queries: impl Fn(&[f64]) -> Vec<PolynomialQuery>,
    heuristic: PqHeuristic,
) -> (u64, u64) {
    let traces = TraceSet::stock_universe(ITEMS as usize, DRIFT_TICK + 1, 0x1CDE_2008);
    let rates = RateEstimator::SampledAverage {
        interval_ticks: DRIFT_TICK,
    }
    .estimate_all(&traces);
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
    let cfg = Config {
        rates,
        ddm: DataDynamicsModel::Monotonic,
        gp: dab_solver_options(),
        obs: Obs::null(),
        scope: Scope::default(),
    };
    let strategy = AssignmentStrategy::DualDab { mu: 5.0 };
    let mut c = Coordinator::install(&queries, strategy, heuristic, start.clone(), cfg).unwrap();
    let mut installed = Fnv::new();
    fold(&c, &units, &mut installed);
    let mut recomputed = 0;
    for tick in 1..=DRIFT_TICK {
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
    (installed.0, drifted.0)
}

#[test]
fn a_fig5_style_book_installs_and_recomputes_the_same_bits() {
    let (install, drift) =
        installed_then_drifted(|v| book(6..=7, None, false, v), PqHeuristic::DifferentSum);
    assert_eq!(
        install, INSTALL_FIG5,
        "fig5-style book, installed: {install:#018x}"
    );
    assert_eq!(drift, DRIFT_FIG5, "fig5-style book, drifted: {drift:#018x}");
}

#[test]
fn an_overlap_style_book_installs_and_recomputes_the_same_bits() {
    let (install, drift) = installed_then_drifted(
        |v| book(3..=4, Some(12), false, v),
        PqHeuristic::DifferentSum,
    );
    assert_eq!(
        install, INSTALL_OVERLAP,
        "overlap-style book, installed: {install:#018x}"
    );
    assert_eq!(
        drift, DRIFT_OVERLAP,
        "overlap-style book, drifted: {drift:#018x}"
    );
}

#[test]
fn a_half_and_half_arbitrage_book_installs_and_recomputes_the_same_bits() {
    let (install, drift) =
        installed_then_drifted(|v| book(3..=4, None, true, v), PqHeuristic::HalfAndHalf);
    assert_eq!(
        install, INSTALL_HALF,
        "half-and-half book, installed: {install:#018x}"
    );
    assert_eq!(
        drift, DRIFT_HALF,
        "half-and-half book, drifted: {drift:#018x}"
    );
}
