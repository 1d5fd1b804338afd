//! Shared inputs to every DAB-assignment algorithm.

use pq_ddm::DataDynamicsModel;
use pq_gp::SolverOptions;
use pq_poly::ItemId;

use crate::error::DabError;

/// The GP solver options every DAB coordinator solves with: tolerance
/// `1e-5`, `t0 = 10`, `mu = 30`, every other field from
/// [`SolverOptions::default`]. [`SolveContext::new`], `Monitor::install`
/// and `pq_sim::SimConfig::new`, for one coordinator or a tree of them,
/// all start from these.
///
/// A DAB solve starts from a predicted optimum with the duals that point
/// implies ([`pq_gp::CompiledGp::solve_warm`]) and stops at its first
/// iterate whose surrogate gap and dual residual are both within the
/// certified gap [`crate::DAB_GAP`] (`2e-3` of the log objective), which
/// binds before this `1e-5` tolerance on every DAB solve: one Newton step
/// per install solve and per recompute on a fig5 book
/// (`tests/monitor_budget.rs`), none on an Optimal Refresh unit, whose
/// blended start is already within it. Down to the `1e-5` tolerance they
/// took two, from centred duals at `t0 = 10` four, and under the generic
/// default (`1e-8`, `t0 = 1`, `mu = 20`) 7.7 and 8.3 on the
/// `monitor_replay` book; `t0` now only sets the duals of a warm start
/// whose fit falls back, and of a phase-I fallback, and the tolerance
/// stops only AAO's joint solves and a phase-I fallback. Condition 1
/// cannot depend on where a solve stops: every primal–dual iterate is
/// kept strictly feasible, so the filters of a solve stopped early still
/// satisfy every QAB
/// constraint — stopping early only costs optimality, i.e. a few
/// refreshes, and the certified gap bounds how many: the filters
/// `Monitor::install` ships on the `monitor_replay` book sit 5e-5
/// (median) to 1.3e-4 relative inside the `1e-5` stop's.
///
/// [`SolverOptions::default`] stays the rigorous default for generic GP
/// solves, which may start anywhere: raised to `t0 = 10` alone, it takes
/// 93 Newton steps instead of ≤ 30 from a start hugging an inactive
/// constraint.
pub fn dab_solver_options() -> SolverOptions {
    SolverOptions {
        tolerance: 1e-5,
        t0: 10.0,
        mu: 30.0,
        ..SolverOptions::default()
    }
}

/// The smallest rate of change a DAB program charges an item with
/// ([`SolveContext::rate`]).
pub(crate) const RATE_FLOOR: f64 = 1e-9;

/// Everything an assignment algorithm needs besides the query itself:
/// current data values, per-item rate-of-change estimates, the assumed
/// data-dynamics model and GP solver options.
///
/// `values` and `rates` are indexed by [`ItemId::index`].
#[derive(Debug, Clone)]
pub struct SolveContext<'a> {
    /// Current data values `V` at the coordinator.
    pub values: &'a [f64],
    /// Estimated rates of change `lambda_i`.
    pub rates: &'a [f64],
    /// Assumed data-dynamics model (affects the refresh objective).
    pub ddm: DataDynamicsModel,
    /// GP solver tuning.
    pub gp: SolverOptions,
}

impl<'a> SolveContext<'a> {
    /// Context with [`dab_solver_options`] and the monotonic ddm.
    pub fn new(values: &'a [f64], rates: &'a [f64]) -> Self {
        SolveContext {
            values,
            rates,
            ddm: DataDynamicsModel::default(),
            gp: dab_solver_options(),
        }
    }

    /// Replaces the data-dynamics model.
    pub fn with_ddm(mut self, ddm: DataDynamicsModel) -> Self {
        self.ddm = ddm;
        self
    }

    /// The rate for `item`, floored to a tiny positive value so that GP
    /// objectives stay well-posed for (nearly) immobile items.
    pub fn rate(&self, item: ItemId) -> Result<f64, DabError> {
        let r = *self
            .rates
            .get(item.index())
            .ok_or(DabError::MissingRate { item: item.0 })?;
        if !r.is_finite() || r < 0.0 {
            return Err(DabError::MissingRate { item: item.0 });
        }
        Ok(r.max(RATE_FLOOR))
    }

    /// The current value for `item`.
    pub fn value(&self, item: ItemId) -> Result<f64, DabError> {
        self.values.get(item.index()).copied().ok_or(DabError::Poly(
            pq_poly::PolyError::MissingValue { item: item.0 },
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rate_is_floored_and_bounds_checked() {
        let values = [1.0, 2.0];
        let rates = [0.0, 3.0];
        let ctx = SolveContext::new(&values, &rates);
        assert_eq!(ctx.rate(ItemId(0)).unwrap(), 1e-9);
        assert_eq!(ctx.rate(ItemId(1)).unwrap(), 3.0);
        assert!(matches!(
            ctx.rate(ItemId(2)),
            Err(DabError::MissingRate { item: 2 })
        ));
    }

    #[test]
    fn nan_rates_are_rejected() {
        let values = [1.0];
        let rates = [f64::NAN];
        let ctx = SolveContext::new(&values, &rates);
        assert!(ctx.rate(ItemId(0)).is_err());
    }

    #[test]
    fn value_lookup_errors_when_missing() {
        let values = [1.0];
        let rates = [1.0];
        let ctx = SolveContext::new(&values, &rates);
        assert_eq!(ctx.value(ItemId(0)).unwrap(), 1.0);
        assert!(ctx.value(ItemId(1)).is_err());
    }
}
