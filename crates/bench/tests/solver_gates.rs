//! What the solver is held to on the fig5 steady-state workload, in
//! counts that repeat exactly. The clocks of the same paths are pqbench
//! rows (`core.assign_*`, `gp.joint16_*`). Dense/sparse parity on a fig5
//! unit is pq-gp's `kkt::tests::backend_parity`, where a backend can be
//! forced.

use pq_bench::Scale;
use pq_core::{
    aao_program, assign_unit, assign_unit_cached, assignment_units, dab_solver_options,
    AssignmentStrategy, AssignmentUnit, PqHeuristic, SolveContext, UnitCache,
};
use pq_ddm::{DataDynamicsModel, RateEstimator};
use pq_gp::SolverOptions;
use pq_obs::{names, Obs, Value};
use pq_poly::{ItemId, PolynomialQuery};

/// Mean Newton steps a first (cold) and a warm solve may take. Both read
/// 1.0: every solve starts from a predicted optimum with the duals it
/// implies and stops at its first iterate within the certified gap
/// `DAB_GAP` (2.0 down to the `1e-5` tolerance, 4.0 from centred duals).
/// The ceiling is the reading plus a half, so a return to two steps fails.
const MAX_STEPS: f64 = 1.5;
/// Mean Newton steps a cold solve may take beyond a warm one.
const MAX_COLD_OVER_WARM_STEPS: f64 = 2.0;
const MIN_WARM_HIT_RATE: f64 = 0.8;
const STRATEGY: AssignmentStrategy = AssignmentStrategy::DualDab { mu: 5.0 };

/// The units of twelve fig5 portfolio PPQs under Dual-DAB, with the
/// values and rates they are solved at.
struct Book {
    units: Vec<AssignmentUnit>,
    values: Vec<f64>,
    rates: Vec<f64>,
}

impl Book {
    fn fig5() -> Self {
        let scale = Scale::from_env();
        let traces = scale.universe();
        let values = traces.initial_values();
        let units = scale
            .workload()
            .portfolio_queries(12, &values)
            .iter()
            .flat_map(|q| assignment_units(q, STRATEGY, PqHeuristic::DifferentSum))
            .collect();
        Book {
            units,
            rates: RateEstimator::SampledAverage { interval_ticks: 60 }.estimate_all(&traces),
            values,
        }
    }

    fn ctx<'a>(&'a self, values: &'a [f64], obs: &Obs) -> SolveContext<'a> {
        SolveContext {
            values,
            rates: &self.rates,
            ddm: DataDynamicsModel::Monotonic,
            gp: SolverOptions {
                obs: obs.clone(),
                ..dab_solver_options()
            },
        }
    }

    /// The movement a DAB permits between two recomputations: every item
    /// a few tenths of a percent off, by a hash of `(round, item)`.
    fn drifted(&self, rounds: usize) -> Vec<f64> {
        let mut values = self.values.clone();
        for round in 0..rounds as u64 {
            for (item, v) in values.iter_mut().enumerate() {
                let mut s = round
                    .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                    .wrapping_add(item as u64)
                    .wrapping_mul(0xBF58_476D_1CE4_E5B9);
                s ^= s >> 31;
                *v *= 1.0 + 0.003 * ((s % 10_000) as f64 / 5_000.0 - 1.0);
            }
        }
        values
    }
}

/// Mean `newton_steps` over the `gp.solve` spans in `ring`, which must
/// hold one per unit.
fn mean_newton_steps(ring: &pq_obs::RingBufferSubscriber, n_units: usize) -> f64 {
    assert_eq!(ring.dropped(), 0, "ring too small for the step count");
    let steps: Vec<u64> = ring
        .events()
        .iter()
        .filter(|e| e.target == "gp.solve_ns")
        .filter_map(|e| match e.field("newton_steps") {
            Some(Value::U64(n)) => Some(*n),
            _ => None,
        })
        .collect();
    assert_eq!(steps.len(), n_units, "one solve per unit");
    steps.iter().sum::<u64>() as f64 / n_units as f64
}

#[test]
fn a_cold_solve_costs_what_a_warm_one_does_in_newton_steps() {
    let book = Book::fig5();
    let drifted = book.drifted(1);

    let (obs, ring) = Obs::ring(1 << 18);
    for u in &book.units {
        assign_unit(u, &book.ctx(&drifted, &obs), STRATEGY).expect("cold solve");
    }
    let cold = mean_newton_steps(&ring, book.units.len());

    let (obs, ring) = Obs::ring(1 << 18);
    for u in &book.units {
        let mut cache = UnitCache::new();
        let seed = book.ctx(&book.values, &Obs::null());
        assign_unit_cached(u, &seed, STRATEGY, &mut cache).expect("seed solve");
        let warm = book.ctx(&drifted, &obs);
        assign_unit_cached(u, &warm, STRATEGY, &mut cache).expect("warm solve");
    }
    let warm = mean_newton_steps(&ring, book.units.len());

    assert!(
        cold <= MAX_STEPS && warm <= MAX_STEPS,
        "{cold:.2} cold / {warm:.2} warm Newton steps per solve, ceiling {MAX_STEPS}"
    );
    assert!(
        cold <= warm + MAX_COLD_OVER_WARM_STEPS,
        "a cold solve takes {:.2} Newton steps more than a warm one",
        cold - warm
    );
}

#[test]
fn drifting_values_keep_hitting_the_warm_start() {
    let book = Book::fig5();
    let mut caches: Vec<UnitCache> = book.units.iter().map(|_| UnitCache::new()).collect();
    let obs = Obs::null();
    for round in 0..=6 {
        let values = book.drifted(round);
        // The seeding round (every cache empty) is not counted.
        let round_obs = if round == 0 { Obs::null() } else { obs.clone() };
        for (u, cache) in book.units.iter().zip(&mut caches) {
            let ctx = book.ctx(&values, &round_obs);
            assign_unit_cached(u, &ctx, STRATEGY, cache).expect("solve");
        }
    }
    let snap = obs.snapshot();
    let count = |name: &str| snap.counters.get(name).copied().unwrap_or(0);
    let hits = count(names::SOLVE_WARM_HIT);
    let attempts = hits + count(names::SOLVE_WARM_REPAIR) + count(names::SOLVE_COLD_FALLBACK);
    assert_eq!(attempts, 6 * book.units.len() as u64, "one per solve");
    assert!(
        hits as f64 >= MIN_WARM_HIT_RATE * attempts as f64,
        "{hits} warm hits in {attempts} attempts"
    );
}

#[test]
fn auto_solves_a_fig5_unit_dense_and_a_2048_variable_joint_unit_sparse() {
    let sparse_solves = |obs: &Obs| {
        let counters = obs.snapshot().counters;
        counters.get(names::GP_SPARSE_SOLVE).copied().unwrap_or(0)
    };

    let book = Book::fig5();
    let obs = Obs::null();
    for u in &book.units {
        assign_unit(u, &book.ctx(&book.values, &obs), STRATEGY).expect("solve");
    }
    assert_eq!(sparse_solves(&obs), 0, "a fig5 unit was solved sparse");

    // One connected AAO unit: 256 two-leg queries over 768 items, every
    // item read and consecutive queries overlapping; one shared `b` per
    // item, four `c` and one `R` per query: 768 + 5 * 256 variables.
    let (n_items, n_queries) = (768, 256);
    let queries: Vec<PolynomialQuery> = (0..n_queries)
        .map(|k| {
            let at = |o: usize| ItemId(((4 * k + o) % n_items) as u32);
            PolynomialQuery::portfolio(
                [
                    (1.5 + (k % 5) as f64 * 0.3, at(0), at(1)),
                    (1.0 + (k % 3) as f64 * 0.5, at(2), at(3)),
                ],
                40.0 + (k % 7) as f64 * 5.0,
            )
            .expect("two-leg query")
        })
        .collect();
    let values: Vec<f64> = (0..n_items).map(|i| 4.0 + (i % 13) as f64).collect();
    let rates: Vec<f64> = (0..n_items).map(|i| 0.02 + 0.01 * (i % 7) as f64).collect();
    let obs = Obs::null();
    let gp = SolverOptions {
        obs: obs.clone(),
        ..dab_solver_options()
    };
    let ctx = SolveContext {
        values: &values,
        rates: &rates,
        ddm: DataDynamicsModel::Monotonic,
        gp: gp.clone(),
    };
    let program = aao_program(&queries, &ctx, 5.0).expect("joint program");
    assert_eq!(program.problem.n_vars(), 2048);
    pq_gp::solve_with_start(&program.problem, &program.start, &gp).expect("joint solve");
    assert_eq!(sparse_solves(&obs), 1, "the joint unit was solved dense");
}
