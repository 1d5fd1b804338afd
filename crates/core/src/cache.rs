//! Per-unit caches for incremental DAB recomputation.
//!
//! The paper's central cost is DAB *recomputation* (§III-A.2–3): every
//! refresh that escapes a validity range triggers a fresh GP solve at the
//! current values. Every solve, first or later, starts from the same
//! place: the predicted optimum of [`crate::ppq::predicted_start`] at those
//! values, entered through the minimal blend toward its interior anchor
//! ([`pq_gp::CompiledGp::solve_warm`]). A unit's filter is therefore a
//! function of the unit and the values, not of its solve history, and a
//! [`UnitCache`] keeps the unit's latest assignment, as [`UnitColumns`]
//! rewritten in place by every solve: what the coordinator copies into
//! its filter table.
//!
//! A solve's compiled GP is emitted into per-thread scratch and its
//! solver iterations run in one [`pq_gp::SolveWorkspace`] per thread:
//! scratch that fits any program and carries nothing from one solve to
//! the next. Its program — the deviation map, rates and variable layout
//! of [`crate::ppq`] — is per-thread scratch too, refilled for each
//! solve, except on a unit whose assignment is anchor-only: every
//! refresh of its items re-solves it, so the cache keeps its program
//! from its first re-solve on. A Dual-DAB unit re-solves only when a
//! refresh leaves its validity range and keeps no program.
//!
//! A unit's first solve, into a cache no solve has written, is a cold
//! start. A later one is a warm hit (a light blend of the prediction
//! regained strict feasibility) or a warm repair (it needed a deeper
//! blend toward the interior point); when the blend fails, phase I runs
//! on the same compiled program ([`pq_gp::CompiledGp::solve_cold`]), a
//! cold fallback. Each bumps a `solve.*` counter so `pq-trace summary`
//! can attribute the win. The compiled program is the only form a unit's
//! GP takes: nothing on this path spells it out as posynomial objects
//! first.

use std::cell::RefCell;

use pq_gp::{CompiledGp, GpSolution, SolveWorkspace, SolverOptions, WarmStart};
use pq_obs::names;

use crate::assignment::UnitColumns;
use crate::error::DabError;
use crate::ppq::PpqProgram;

/// The certified stop of every DAB solve ([`pq_gp::CompiledGp::solve_warm`]'s
/// `stop`): a solve returns the first primal–dual iterate whose surrogate
/// gap and dual residual are both at most this, which binds before
/// [`crate::dab_solver_options`]' `1e-5` tolerance. The gap is in units
/// of the log objective, so a unit's refresh-rate cost exceeds its optimum
/// by at most about 0.2 %; the iterate is strictly feasible, so its
/// filters keep every QAB. Twice the blend's `1e-3` slack: a Dual-DAB
/// solve stops after one Newton step (gap ≤ 2.6e-4, residual p50 2e-8),
/// an Optimal Refresh one at its start (gap ≈ 1e-3). DESIGN.md §10 has
/// the sweep that chose it.
pub const DAB_GAP: f64 = 2e-3;

/// What one assignment unit keeps between solves: its latest
/// assignment and, while that is anchor-only, its program.
#[derive(Debug, Default)]
pub struct UnitCache {
    /// The assignment of the last solve through this cache; empty until
    /// the unit's first.
    pub(crate) columns: UnitColumns,
    /// The unit's program, from the first re-solve of an anchor-only
    /// assignment on (see [`crate::assign_unit_cached`]).
    pub(crate) program: Option<Box<PpqProgram>>,
}

thread_local! {
    /// This thread's solver scratch (an install worker grows its own on
    /// its first solve).
    static WORKSPACE: RefCell<SolveWorkspace> = RefCell::default();
}

/// How a solve through a [`UnitCache`] started; each is a `solve.*`
/// counter.
#[derive(Debug, Clone, Copy)]
enum Start {
    Cold,
    WarmHit,
    WarmRepair,
    ColdFallback,
}

impl Start {
    fn of_blend(blend: WarmStart) -> Self {
        match blend {
            WarmStart::Hit => Start::WarmHit,
            WarmStart::Repaired => Start::WarmRepair,
        }
    }

    /// Bumps this outcome's counter: the coordinator's pre-resolved
    /// handle when `options` carries them, by name otherwise.
    fn count(self, options: &SolverOptions) {
        match (&options.dab, self) {
            (Some(dab), Start::Cold) => dab.cold_start.inc(),
            (Some(dab), Start::WarmHit) => dab.warm_hit.inc(),
            (Some(dab), Start::WarmRepair) => dab.warm_repair.inc(),
            (Some(dab), Start::ColdFallback) => dab.cold_fallback.inc(),
            (None, Start::Cold) => options.obs.counter(names::SOLVE_COLD_START).inc(),
            (None, Start::WarmHit) => options.obs.counter(names::SOLVE_WARM_HIT).inc(),
            (None, Start::WarmRepair) => options.obs.counter(names::SOLVE_WARM_REPAIR).inc(),
            (None, Start::ColdFallback) => options.obs.counter(names::SOLVE_COLD_FALLBACK).inc(),
        }
    }
}

impl UnitCache {
    /// An empty cache: the first solve through it is a cold start.
    pub fn new() -> Self {
        UnitCache::default()
    }

    /// The assignment the last solve through this cache wrote (see
    /// [`crate::assign_unit_cached`]).
    pub fn columns(&self) -> &UnitColumns {
        &self.columns
    }
}

/// Solves `compiled` from a caller-supplied start: `interior` is a
/// strictly feasible point and `guess` where the optimum is expected (see
/// [`crate::ppq::predicted_start`]). The solve is the minimal blend of
/// [`CompiledGp::solve_warm`] from `guess` toward `interior`; when the
/// blend fails, phase I answers instead, on the same program
/// ([`CompiledGp::solve_cold`]).
///
/// Telemetry: `first` is `Some` for a unit's solve, `None` for a one-shot
/// one, which counts nothing. A unit's first solve bumps
/// `solve.cold_start`, a later one `solve.warm_hit`, `solve.warm_repair`
/// or `solve.cold_fallback`, on `options.obs`.
pub(crate) fn solve_compiled(
    compiled: &CompiledGp,
    guess: &[f64],
    interior: &[f64],
    options: &SolverOptions,
    first: Option<bool>,
) -> Result<GpSolution, DabError> {
    let outcome =
        WORKSPACE.with_borrow_mut(|ws| compiled.solve_warm(guess, interior, options, DAB_GAP, ws));
    if let Some(first) = first {
        let start = match &outcome {
            _ if first => Start::Cold,
            Ok((_, blend)) => Start::of_blend(*blend),
            Err(_) => Start::ColdFallback,
        };
        start.count(options);
    }
    match outcome {
        Ok((solution, _)) => Ok(solution),
        // Blend exhausted: pay the full cold phase-I price.
        Err(_) => Ok(WORKSPACE.with_borrow_mut(|ws| compiled.solve_cold(options, ws))?),
    }
}

/// Per-query × per-unit caches for a whole monitored workload,
/// shaped to match the unit decomposition of
/// [`crate::strategy::assignment_units`].
#[derive(Debug, Default)]
pub struct SolveCache {
    units: Vec<Vec<UnitCache>>,
}

impl SolveCache {
    /// An empty cache; call [`SolveCache::resize`] to shape it.
    pub fn new() -> Self {
        SolveCache::default()
    }

    /// A cache holding `rows[qi][ui]` for unit `ui` of query `qi`.
    pub(crate) fn from_rows(rows: Vec<Vec<UnitCache>>) -> Self {
        SolveCache { units: rows }
    }

    /// Shapes the cache to `unit_counts[qi]` units per query, preserving
    /// existing entries where the shape is unchanged.
    pub fn resize(&mut self, unit_counts: &[usize]) {
        self.units.resize_with(unit_counts.len(), Vec::new);
        for (row, &n) in self.units.iter_mut().zip(unit_counts) {
            row.reserve_exact(n.saturating_sub(row.len()));
            row.resize_with(n, UnitCache::new);
        }
        self.units.truncate(unit_counts.len());
    }

    /// The cache for unit `ui` of query `qi`, to read.
    ///
    /// # Panics
    /// Panics if the cache was not sized to cover `(qi, ui)`.
    pub fn unit(&self, qi: usize, ui: usize) -> &UnitCache {
        &self.units[qi][ui]
    }

    /// The cache for unit `ui` of query `qi`.
    ///
    /// # Panics
    /// Panics if the cache was not sized to cover `(qi, ui)`.
    pub fn unit_mut(&mut self, qi: usize, ui: usize) -> &mut UnitCache {
        &mut self.units[qi][ui]
    }
}

/// True when a derived per-item filter width meaningfully changed — the
/// relative tolerance the coordinator uses when deciding whether to send
/// a DAB-change message.
///
/// The tolerance is relative to the wider of the two widths, so
/// `old == 0` reads any positive new width as a change, and a width
/// does not flap on rounding noise at any scale. It has no absolute
/// floor: a source kept at a filter wider than its units allow breaks
/// Condition 1 by that excess times its partners' widths, and a partner
/// may be wide (a per-item split at a value of 0 sizes its neighbours
/// without bound), so a tightening between two widths far below `1e-12`
/// must reach the source. A non-finite width means "no filter": it
/// changed exactly when the other side is finite.
pub fn filter_changed(old: f64, new: f64) -> bool {
    if !(old.is_finite() && new.is_finite()) {
        return old.is_finite() != new.is_finite();
    }
    let scale = old.abs().max(new.abs());
    (new - old).abs() > 1e-12 * scale
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assignment::RangeKind;
    use pq_gp::{GpProblem, Monomial, Posynomial};
    use pq_poly::ItemId;

    /// `problem` solved as a unit's solve through `cache`, compiled
    /// afresh as a unit's program is emitted afresh; the cache is then
    /// written, as a unit's solve writes its columns.
    fn solve_problem(
        problem: &GpProblem,
        start: &[f64],
        options: &SolverOptions,
        cache: &mut UnitCache,
    ) -> Result<GpSolution, DabError> {
        let compiled = CompiledGp::compile(problem)?;
        let first = cache.columns.items().is_empty();
        let solution = solve_compiled(&compiled, start, start, options, Some(first))?;
        cache.columns.start(&[ItemId(0)].into(), RangeKind::Box);
        Ok(solution)
    }

    fn mono(c: f64, e: &[(usize, f64)]) -> Posynomial {
        Posynomial::monomial(Monomial::new(c, e.iter().copied()).unwrap())
    }

    /// min a/x + b/y s.t. x + y <= budget.
    fn problem(a: f64, b: f64, budget: f64) -> GpProblem {
        let mut p = GpProblem::new(2);
        let mut obj = mono(a, &[(0, -1.0)]);
        obj.add(&mono(b, &[(1, -1.0)]));
        p.set_objective(obj).unwrap();
        let mut c = mono(1.0, &[(0, 1.0)]);
        c.add(&mono(1.0, &[(1, 1.0)]));
        p.add_constraint_le(c, budget).unwrap();
        p
    }

    /// A DAB solve's objective exceeds the `optimum` by at most
    /// [`DAB_GAP`] in units of its log, and falls short of it by no more
    /// than the `1e-8` gap the optimum was solved to.
    fn assert_within_the_certified_gap(objective: f64, optimum: f64) {
        let excess = objective.ln() - optimum.ln();
        assert!(
            (-1e-8..=DAB_GAP).contains(&excess),
            "objective {objective} against optimum {optimum}"
        );
    }

    /// Counted the same by name and through a coordinator's pre-resolved
    /// handles.
    #[test]
    fn cached_solves_track_drift_and_count_outcomes() {
        let (obs, _ring) = pq_obs::Obs::ring(16);
        let by_name = SolverOptions {
            obs: obs.clone(),
            ..SolverOptions::default()
        };
        drift_and_count(&obs, by_name);
        let (obs, _ring) = pq_obs::Obs::ring(16);
        drift_and_count(&obs, SolverOptions::default().observed_by(&obs));
    }

    fn drift_and_count(obs: &pq_obs::Obs, options: SolverOptions) {
        let mut cache = UnitCache::new();
        let interior = [0.25, 0.25];

        // `min 1/x + 1/y` under `x + y <= 1` is 4, at `x = y = 1/2`.
        let first =
            solve_problem(&problem(1.0, 1.0, 1.0), &interior, &options, &mut cache).unwrap();
        assert_within_the_certified_gap(first.objective, 4.0);

        for step in 1..=5 {
            let a = 1.0 + 0.02 * step as f64;
            let p = problem(a, 1.0, 1.0);
            let sol = solve_problem(&p, &interior, &options, &mut cache).unwrap();
            let cold = pq_gp::solve_with_start(&p, &interior, &SolverOptions::default()).unwrap();
            assert_within_the_certified_gap(sol.objective, cold.objective);
            assert!(p.max_violation(&sol.x) <= 0.0);
        }
        let snap = obs.snapshot();
        let count = |name: &str| snap.counters.get(name).copied().unwrap_or(0);
        assert_eq!(count(names::SOLVE_COLD_START), 1);
        assert_eq!(
            count(names::SOLVE_WARM_HIT) + count(names::SOLVE_WARM_REPAIR),
            5,
            "every recompute warm-started"
        );
        assert_eq!(count(names::SOLVE_COLD_FALLBACK), 0);
    }

    /// A cache seeded under one `Obs` (the untimed `Obs::null()` warm-up
    /// pass in benchmarks) counts on the real registry once the caller
    /// switches to it: a cache holds no handles of its own, an outcome
    /// lands on the options of the solve it is the outcome of.
    #[test]
    fn counters_follow_a_registry_swap() {
        let mut cache = UnitCache::new();
        let interior = [0.25, 0.25];
        let seed_options = SolverOptions {
            obs: pq_obs::Obs::null(),
            ..SolverOptions::default()
        };
        solve_problem(
            &problem(1.0, 1.0, 1.0),
            &interior,
            &seed_options,
            &mut cache,
        )
        .unwrap();

        let (obs, _ring) = pq_obs::Obs::ring(16);
        let options = SolverOptions {
            obs: obs.clone(),
            ..SolverOptions::default()
        };
        solve_problem(&problem(1.02, 1.0, 1.0), &interior, &options, &mut cache).unwrap();
        let snap = obs.snapshot();
        let count = |name: &str| snap.counters.get(name).copied().unwrap_or(0);
        assert_eq!(
            count(names::SOLVE_WARM_HIT) + count(names::SOLVE_WARM_REPAIR),
            1,
            "warm outcome must be recorded on the registry passed to *this* solve"
        );
    }

    /// Fig5-style Dual-DAB units (six two-item legs, QAB 1 % of the value)
    /// solved under the library-default tolerances and recomputed after
    /// their values advanced 60 ticks: the first solve and the recompute
    /// both start from the predicted optimum at their values and the
    /// duals it implies, so both are one solve of one Newton step to the
    /// certified gap [`DAB_GAP`], which binds before the `1e-8` tolerance
    /// (five steps down to that, eight or nine from centred duals, 22-30
    /// from the uniform scalar start), and the recompute's light blend
    /// counts as one warm hit. The barrier-ladder warm start estimated drift from
    /// the worst constraint residual, which the data-independent `b <= c`
    /// rows pin near zero; it restarted far too hot and burned its whole
    /// step budget before re-solving.
    #[test]
    fn default_tolerance_warm_recompute_is_one_cheaper_solve() {
        use crate::strategy::{assign_unit_cached, assignment_units};
        use crate::{AssignmentStrategy, PqHeuristic, SolveContext};
        use pq_ddm::{DataDynamicsModel, RateEstimator, TraceSet};
        use pq_poly::{ItemId, PolynomialQuery};

        const QUERIES: u32 = 8;
        /// Newton steps a solve may take, cold or warm: each reads 1 (5
        /// down to the `1e-8` tolerance, 8-9 from centred duals).
        const NEWTON_CEILING: u64 = 2;
        let n_items = 12 * QUERIES as usize;
        let traces = TraceSet::stock_universe(n_items, 61, 0x1CDE_2008);
        let values_at =
            |tick: usize| -> Vec<f64> { (0..n_items).map(|i| traces.trace(i).at(tick)).collect() };
        let rates = RateEstimator::SampledAverage { interval_ticks: 60 }.estimate_all(&traces);
        let strategy = AssignmentStrategy::DualDab { mu: 5.0 };

        for q in 0..QUERIES {
            let legs = (0..6).map(|k| {
                let item = 12 * q + 2 * k;
                (1.0 + 0.5 * k as f64, ItemId(item), ItemId(item + 1))
            });
            let query = PolynomialQuery::portfolio(legs, 1.0).unwrap();
            let qab = 0.01 * query.eval(&values_at(0));
            let query = query.with_qab(qab).unwrap();
            let units = assignment_units(&query, strategy, PqHeuristic::DifferentSum);
            assert_eq!(units.len(), 1);

            let (obs, ring) = pq_obs::Obs::ring(4096);
            let gp = SolverOptions {
                obs: obs.clone(),
                ..SolverOptions::default()
            };
            let mut cache = UnitCache::new();
            // Newton steps of each call's one solve.
            let mut newton = Vec::new();
            for tick in [0, 60] {
                let values = values_at(tick);
                let ctx = SolveContext {
                    values: &values,
                    rates: &rates,
                    ddm: DataDynamicsModel::Monotonic,
                    gp: gp.clone(),
                };
                let before = ring.events().len();
                assign_unit_cached(&units[0], &ctx, strategy, &mut cache).unwrap();
                // Each solve's `gp.solve_ns` span records its steps.
                let steps: Vec<u64> = (ring.events()[before..].iter())
                    .filter_map(|e| match e.field("newton_steps") {
                        Some(&pq_obs::Value::U64(n)) => Some(n),
                        _ => None,
                    })
                    .collect();
                assert_eq!(steps.len(), 1, "query {q}: one converged solve per call");
                newton.push(steps[0]);
            }
            assert!(
                newton.iter().all(|&n| n <= NEWTON_CEILING),
                "query {q}: cold {} / warm {} newton iterations",
                newton[0],
                newton[1]
            );
            let snap = obs.snapshot();
            assert_eq!(
                snap.histograms["gp.solve_ns"].count, 2,
                "query {q}: one gp.solve attempt per call"
            );
            let count = |name: &str| snap.counters.get(name).copied().unwrap_or(0);
            assert_eq!(count(names::SOLVE_COLD_START), 1);
            assert_eq!(count(names::SOLVE_WARM_HIT), 1, "query {q}");
        }
    }

    /// A unit whose program changes shape between solves solves the next
    /// program from its guess: a cache keeps no program to mismatch.
    #[test]
    fn shape_change_starts_over_instead_of_failing() {
        let options = SolverOptions::default();
        let mut cache = UnitCache::new();
        solve_problem(&problem(1.0, 1.0, 1.0), &[0.25, 0.25], &options, &mut cache).unwrap();
        // Different shape: 1 variable, different constraint count.
        let mut p1 = GpProblem::new(1);
        p1.set_objective(mono(1.0, &[(0, 1.0)])).unwrap();
        p1.add_lower_bound(0, 2.0).unwrap();
        let sol = solve_problem(&p1, &[4.0], &options, &mut cache).unwrap();
        assert_within_the_certified_gap(sol.objective, 2.0);
        assert!(sol.x[0] > 2.0);
    }

    /// A cache solved under one strategy and then another answers each
    /// what a fresh cache answers. It keeps a program only from the
    /// re-solve of an anchor-only assignment on, and a solve through that
    /// program under another strategy rebuilds it, then drops it once the
    /// assignment is no longer anchor-only.
    #[test]
    fn a_cache_shared_across_strategies_solves_each_one_s_own_program() {
        use crate::strategy::{assign_unit_cached, assignment_units};
        use crate::{AssignmentStrategy, PqHeuristic, SolveContext};
        use pq_poly::{ItemId, PolynomialQuery};

        let query = PolynomialQuery::portfolio(
            [(1.0, ItemId(0), ItemId(1)), (2.0, ItemId(1), ItemId(2))],
            4.0,
        )
        .unwrap();
        let dual = AssignmentStrategy::DualDab { mu: 5.0 };
        let anchored = AssignmentStrategy::OptimalRefresh;
        let unit = &assignment_units(&query, dual, PqHeuristic::DifferentSum)[0];
        let rates = [0.3, 0.1, 0.2];
        let fresh = |values: &[f64; 3], strategy| {
            let ctx = SolveContext::new(values, &rates);
            assign_unit_cached(unit, &ctx, strategy, &mut UnitCache::new())
                .unwrap()
                .assignment()
        };
        let mut cache = UnitCache::new();
        let steps = [
            ([20.0, 3.0, 15.0], dual, false),
            ([20.1, 3.0, 15.1], dual, false),
            ([20.1, 3.0, 15.1], anchored, false),
            ([20.2, 3.0, 15.2], anchored, true),
            ([20.1, 3.01, 15.1], anchored, true),
            ([20.2, 3.01, 15.0], dual, true),
            ([20.3, 3.01, 15.0], dual, false),
        ];
        for (values, strategy, keeps) in steps {
            let ctx = SolveContext::new(&values, &rates);
            let after = assign_unit_cached(unit, &ctx, strategy, &mut cache).unwrap();
            let after = after.assignment();
            assert!(after.respects_qab(&query, 1e-6));
            assert_eq!(
                after.all_bits(),
                fresh(&values, strategy).all_bits(),
                "{strategy}"
            );
            assert_eq!(cache.program.is_some(), keeps, "{strategy} at {values:?}");
        }
    }

    #[test]
    fn solve_cache_shapes_and_reshapes() {
        let mut cache = SolveCache::new();
        cache.resize(&[1, 2]);
        assert!(cache.unit_mut(1, 1).columns().items().is_empty());
        cache.unit_mut(0, 0).columns.refresh_rate = 1.0;
        cache.unit_mut(1, 0).columns.refresh_rate = 2.0;
        // Reshaping preserves the units it keeps.
        cache.resize(&[1, 1]);
        assert_eq!(cache.unit_mut(0, 0).columns().refresh_rate, 1.0);
        assert_eq!(cache.unit_mut(1, 0).columns().refresh_rate, 2.0);
    }

    #[test]
    fn filter_change_tolerance_handles_zero_old_width() {
        // The regression this replaces: old == 0.0 made the pure relative
        // test classify every new width as "unchanged".
        assert!(filter_changed(0.0, 0.5));
        assert!(filter_changed(0.5, 0.0));
        assert!(!filter_changed(0.0, 0.0));
        assert!(!filter_changed(1.0, 1.0 + 1e-15));
        assert!(filter_changed(1.0, 1.001));
        assert!(!filter_changed(1e9, 1e9 * (1.0 + 1e-15)));
        assert!(filter_changed(7.9e-32, 1.5e-32), "no absolute floor");
        assert!(!filter_changed(1e-30, 1e-30 * (1.0 + 1e-15)));
        assert!(filter_changed(f64::INFINITY, 3.0));
        assert!(filter_changed(3.0, f64::INFINITY));
        assert!(!filter_changed(f64::INFINITY, f64::INFINITY));
    }
}
