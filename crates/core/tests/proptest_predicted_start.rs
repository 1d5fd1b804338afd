//! Property tests for the predicted start of a PPQ solve.
//!
//! Every DAB solve of a unit starts from the closed-form optimum of
//! the query's tangent linear program ([`pq_core::ppq::predicted_start`],
//! DESIGN.md §10). The prediction is only a start, so three things must
//! hold on any unit, not just the benchmark books:
//!
//! * the solve reaches the optimum the solver finds on its own — phase I
//!   from the all-ones point, on a program this file formulates
//!   independently — within the certified gap `DAB_GAP` every DAB solve
//!   stops at, and the assignment respects the QAB;
//! * it gets there in a handful of Newton steps (the uniform scalar start
//!   this replaced took 16-19 on the benchmark books);
//! * prediction and interior anchor are strictly positive and finite and
//!   the anchor is strictly feasible, however degenerate the inputs.

use proptest::prelude::*;
use proptest::test_runner::TestRng;

use pq_core::ppq::predicted_start;
use pq_core::{
    assign_unit_cached, dab_solver_options, AssignmentStrategy, AssignmentUnit, SolveContext,
    UnitCache, ValidityRange, DAB_GAP,
};
use pq_ddm::DataDynamicsModel;
use pq_gp::{GpProblem, Monomial, Posynomial, SolverOptions};
use pq_obs::{names, Obs};
use pq_poly::{
    deviation_posynomial, DabVarIndexer, ItemId, PTerm, PartialDabVarMap, Polynomial,
    PolynomialQuery,
};

/// Items a generated unit draws its legs from: few enough that legs share
/// items, and that `respects_qab`'s `4^k` corner enumeration stays cheap.
const POOL: u32 = 8;

/// One generated unit: legs `w * x_i * x_j` (`i == j` is a square), then
/// per-item `log10` value and rate, `log10` of QAB / query value, `log10`
/// of mu, the ddm and the strategy.
type RawCase = (
    Vec<(u32, u32, f64)>,
    Vec<f64>,
    Vec<f64>,
    f64,
    f64,
    (bool, bool),
);

fn raw_case() -> impl Strategy<Value = RawCase> {
    (
        proptest::collection::vec((0..POOL, 0..POOL, -1.0f64..2.0), 1..=8),
        proptest::collection::vec(-3.0f64..4.0, POOL as usize),
        proptest::collection::vec(-9.0f64..1.0, POOL as usize),
        -6.0f64..-0.7,
        -1.0f64..2.0,
        (0u8..2, 0u8..2).prop_map(|(a, b)| (a == 1, b == 1)),
    )
}

struct Case {
    unit: AssignmentUnit,
    values: Vec<f64>,
    rates: Vec<f64>,
    ddm: DataDynamicsModel,
    strategy: AssignmentStrategy,
}

impl Case {
    fn new(body: Polynomial, values: Vec<f64>, rates: Vec<f64>, qab_share: f64) -> Self {
        let qab = qab_share * body.eval(&values);
        Case {
            unit: AssignmentUnit::new(body, qab),
            values,
            rates,
            ddm: DataDynamicsModel::Monotonic,
            strategy: AssignmentStrategy::DualDab { mu: 5.0 },
        }
    }

    fn from_raw(raw: &RawCase) -> Self {
        let (legs, values, rates, qab_share, mu, (walk, refresh_only)) = raw;
        let body = Polynomial::from_terms(legs.iter().map(|&(i, j, w)| {
            let vars = if i == j {
                vec![(ItemId(i), 2)]
            } else {
                vec![(ItemId(i), 1), (ItemId(j), 1)]
            };
            PTerm::new(10f64.powf(w), vars).expect("positive weight")
        }));
        let pow10 = |logs: &[f64]| logs.iter().map(|&l| 10f64.powf(l)).collect();
        let mut case = Case::new(body, pow10(values), pow10(rates), 10f64.powf(*qab_share));
        if *walk {
            case.ddm = DataDynamicsModel::RandomWalk;
        }
        case.strategy = if *refresh_only {
            AssignmentStrategy::OptimalRefresh
        } else {
            AssignmentStrategy::DualDab {
                mu: 10f64.powf(*mu),
            }
        };
        case
    }

    fn ctx(&self, gp: SolverOptions) -> SolveContext<'_> {
        SolveContext {
            values: &self.values,
            rates: &self.rates,
            ddm: self.ddm,
            gp,
        }
    }

    /// The unit's program formulated from the paper (§III-A.1 / §III-A.2)
    /// with nothing of `pq_core::ppq` but the start under test: returns
    /// the GP, the prediction and the interior anchor.
    fn program(&self) -> (GpProblem, Vec<f64>, Vec<f64>) {
        let body = &self.unit.body;
        let vmap = PartialDabVarMap::for_polynomial(body);
        let lambdas: Vec<f64> = vmap.items().iter().map(|i| self.rates[i.index()]).collect();
        let refresh = |var: usize, lambda: f64| {
            Monomial::new(self.ddm.refresh_coef(lambda), [(var, -self.ddm.exponent())]).unwrap()
        };
        let mut objective = Posynomial::zero();
        for (k, &l) in lambdas.iter().enumerate() {
            objective.push(refresh(k, l));
        }
        match self.strategy {
            AssignmentStrategy::DualDab { mu } => {
                let r_var = vmap.n_vars();
                let mut problem = GpProblem::new(r_var + 1);
                objective.push(Monomial::new(mu, [(r_var, 1.0)]).unwrap());
                problem.set_objective(objective).unwrap();
                let condition = deviation_posynomial(body, &self.values, &vmap).unwrap();
                problem
                    .add_constraint_le(condition.clone(), self.unit.qab)
                    .unwrap();
                let mut coupled_b = Vec::new();
                for &item in vmap.coupled() {
                    let (b, c) = (vmap.primary(item), vmap.secondary(item).unwrap());
                    coupled_b.push(b);
                    problem.add_var_le_var(b, c).unwrap();
                    let escape = refresh(c, lambdas[b]);
                    let over_r = Monomial::new(1.0, [(r_var, -1.0)]).unwrap();
                    problem
                        .add_constraint(Posynomial::monomial(escape.mul(&over_r)))
                        .unwrap();
                }
                let (guess, interior) = predicted_start(
                    &condition,
                    self.unit.qab,
                    &lambdas,
                    self.ddm,
                    Some((mu, &coupled_b)),
                )
                .unwrap();
                (problem, guess, interior)
            }
            _ => {
                let vmap = pq_poly::DabVarMap::for_polynomial(body, false);
                let mut problem = GpProblem::new(vmap.n_items());
                problem.set_objective(objective).unwrap();
                let condition = deviation_posynomial(body, &self.values, &vmap).unwrap();
                problem
                    .add_constraint_le(condition.clone(), self.unit.qab)
                    .unwrap();
                let (guess, interior) =
                    predicted_start(&condition, self.unit.qab, &lambdas, self.ddm, None).unwrap();
                (problem, guess, interior)
            }
        }
    }

    /// Solves the unit once through an empty cache under `gp`; returns the
    /// modelled cost of the assignment and the Newton steps the one solve
    /// took.
    fn cold_solve(&self, gp: SolverOptions) -> Result<(f64, usize), TestCaseError> {
        let (obs, ring) = Obs::ring(1024);
        let gp = SolverOptions {
            obs: obs.clone(),
            ..gp
        };
        let a = assign_unit_cached(
            &self.unit,
            &self.ctx(gp),
            self.strategy,
            &mut UnitCache::new(),
        )
        .map_err(|e| TestCaseError::Fail(format!("solve failed: {e}")))?
        .assignment();
        let snap = obs.snapshot();
        prop_assert_eq!(snap.counters.get(names::SOLVE_COLD_START), Some(&1));
        prop_assert_eq!(
            snap.histograms["gp.solve_ns"].count,
            1,
            "the blend from the prediction fell back to phase I"
        );
        let query = PolynomialQuery::new((*self.unit.body).clone(), self.unit.qab).unwrap();
        prop_assert!(a.respects_qab(&query, 1e-6 * self.unit.qab));
        if let ValidityRange::Box(c) = &a.validity {
            prop_assert!(a.primary.iter().all(|(i, &b)| b <= c[i] * (1.0 + 1e-9)));
        }
        let cost = a.refresh_rate + self.strategy.mu().unwrap_or(0.0) * a.recompute_rate;
        // The solve's one record, its `gp.solve_ns` span event.
        let steps = (ring.events().iter())
            .find_map(|e| match e.field("newton_steps") {
                Some(&pq_obs::Value::U64(n)) => Some(n as usize),
                _ => None,
            })
            .expect("the solve's span carries its newton_steps");
        Ok((cost, steps))
    }

    fn check(&self) -> Result<(), TestCaseError> {
        let (problem, guess, interior) = self.program();
        for x in [&guess, &interior] {
            prop_assert_eq!(x.len(), problem.n_vars());
            prop_assert!(x.iter().all(|v| v.is_finite() && *v > 0.0), "{x:?}");
        }
        prop_assert!(problem.is_strictly_feasible(&interior, 0.0));

        // A DAB solve stops at its certified gap whatever the tolerance,
        // so its cost is within `DAB_GAP` of the oracle's in log units.
        let (cost, _) = self.cold_solve(SolverOptions::default())?;
        let oracle = pq_gp::solve(&problem, &SolverOptions::default())
            .map_err(|e| TestCaseError::Fail(format!("oracle failed: {e}")))?;
        let excess = cost.ln() - oracle.objective.ln();
        prop_assert!(
            (-1e-6..=DAB_GAP).contains(&excess),
            "predicted start reached {cost}, phase I {}",
            oracle.objective
        );
        Ok(())
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn predicted_start_reaches_the_phase_one_optimum(raw in raw_case()) {
        Case::from_raw(&raw).check()?;
    }
}

/// Newton steps of a cold solve: at most 8 on any unit, at most 1.25 on
/// average. They read 3 and 0.74 under the certified stop (6 and 2.35
/// down to the `1e-5` tolerance); centred warm-start duals read 7 and
/// 3.81, the uniform start averaged 16-19 and peaked past 25.
#[test]
fn cold_solves_take_a_handful_of_newton_steps() {
    const CASES: u64 = 256;
    let mut total = 0;
    for i in 0..CASES {
        let raw = raw_case().generate(&mut TestRng::for_case("cold_steps", i));
        let (_, steps) = Case::from_raw(&raw)
            .cold_solve(dab_solver_options())
            .unwrap_or_else(|e| panic!("case {i}: {e:?}\n{raw:?}"));
        assert!(steps <= 8, "case {i}: {steps} newton steps\n{raw:?}");
        total += steps;
    }
    let mean = total as f64 / CASES as f64;
    assert!(mean <= 1.25, "mean {mean:.2} newton steps per cold solve");
}

fn x(i: u32) -> ItemId {
    ItemId(i)
}

fn term(w: f64, vars: &[(u32, u32)]) -> PTerm {
    PTerm::new(w, vars.iter().map(|&(i, p)| (x(i), p))).unwrap()
}

/// Shapes whose first-order part degenerates.
#[test]
fn degenerate_shapes_still_start_and_solve() {
    let table = [
        // A partner value of 0: the pure-`b` coefficient of item 0 is 0.
        (
            "zero partner",
            Polynomial::from_terms([term(2.0, &[(0, 1), (1, 1)]), term(1.0, &[(2, 2)])]),
            vec![40.0, 0.0, 20.0],
        ),
        (
            "one leg",
            Polynomial::term(term(1.0, &[(0, 1), (1, 1)])),
            vec![40.0, 20.0, 0.0],
        ),
        (
            "pure square",
            Polynomial::term(term(3.0, &[(0, 2)])),
            vec![7.0, 0.0, 0.0],
        ),
        // Item 0 is uncoupled: no secondary DAB, no escape constraint.
        (
            "linear plus product",
            Polynomial::from_terms([term(5.0, &[(0, 1)]), term(1.0, &[(1, 1), (2, 1)])]),
            vec![10.0, 30.0, 2.0],
        ),
    ];
    for (name, body, values) in table {
        for ddm in [DataDynamicsModel::Monotonic, DataDynamicsModel::RandomWalk] {
            for strategy in [
                AssignmentStrategy::OptimalRefresh,
                AssignmentStrategy::DualDab { mu: 5.0 },
            ] {
                let rates = vec![0.5, 1e-9, 0.02];
                let mut case = Case::new(body.clone(), values.clone(), rates, 0.01);
                case.ddm = ddm;
                case.strategy = strategy;
                case.check()
                    .unwrap_or_else(|e| panic!("{name} / {ddm} / {strategy}: {e:?}"));
            }
        }
    }
}
