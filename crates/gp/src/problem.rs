//! Geometric-program construction.
//!
//! A geometric program (GP) in standard form:
//!
//! ```text
//! minimize    f0(x)              (posynomial)
//! subject to  fi(x) <= 1         (posynomials, i = 1..m)
//!             x > 0
//! ```
//!
//! [`GpProblem`] is a builder for such programs; [`crate::solver`] solves
//! them after the log-variable transform.

use crate::error::GpError;
use crate::posynomial::{Monomial, Posynomial};

/// A geometric program under construction.
#[derive(Debug, Clone)]
pub struct GpProblem {
    n_vars: usize,
    objective: Option<Posynomial>,
    constraints: Vec<Posynomial>,
}

impl GpProblem {
    /// Creates a program over `n_vars` strictly positive variables.
    pub fn new(n_vars: usize) -> Self {
        GpProblem {
            n_vars,
            objective: None,
            constraints: Vec::new(),
        }
    }

    /// Number of variables.
    pub fn n_vars(&self) -> usize {
        self.n_vars
    }

    /// Number of constraints added so far.
    pub fn n_constraints(&self) -> usize {
        self.constraints.len()
    }

    /// Sets the posynomial objective to minimize.
    ///
    /// # Errors
    /// [`GpError::EmptyPosynomial`] for an empty objective;
    /// [`GpError::InvalidExponent`] if it references unknown variables.
    pub fn set_objective(&mut self, objective: Posynomial) -> Result<(), GpError> {
        self.check(&objective)?;
        self.objective = Some(objective);
        Ok(())
    }

    /// Adds the constraint `f(x) <= 1`.
    pub fn add_constraint(&mut self, f: Posynomial) -> Result<(), GpError> {
        self.check(&f)?;
        self.constraints.push(f);
        Ok(())
    }

    /// Adds the constraint `f(x) <= bound` for `bound > 0` by normalizing
    /// to `f(x)/bound <= 1`.
    pub fn add_constraint_le(&mut self, f: Posynomial, bound: f64) -> Result<(), GpError> {
        if !(bound.is_finite() && bound > 0.0) {
            return Err(GpError::InvalidBound(bound));
        }
        self.add_constraint(f.scaled(1.0 / bound)?)
    }

    /// Adds `x_var <= upper`.
    pub fn add_upper_bound(&mut self, var: usize, upper: f64) -> Result<(), GpError> {
        if !(upper.is_finite() && upper > 0.0) {
            return Err(GpError::InvalidBound(upper));
        }
        let m = Monomial::new(1.0 / upper, [(var, 1.0)])?;
        self.add_constraint(Posynomial::monomial(m))
    }

    /// Adds `x_var >= lower` for `lower > 0` (as `lower / x_var <= 1`).
    pub fn add_lower_bound(&mut self, var: usize, lower: f64) -> Result<(), GpError> {
        if !(lower.is_finite() && lower > 0.0) {
            return Err(GpError::InvalidBound(lower));
        }
        let m = Monomial::new(lower, [(var, -1.0)])?;
        self.add_constraint(Posynomial::monomial(m))
    }

    /// Adds `x_a <= x_b` (as the monomial constraint `x_a / x_b <= 1`).
    pub fn add_var_le_var(&mut self, a: usize, b: usize) -> Result<(), GpError> {
        let m = Monomial::new(1.0, [(a, 1.0), (b, -1.0)])?;
        self.add_constraint(Posynomial::monomial(m))
    }

    /// The objective, if set.
    pub fn objective(&self) -> Option<&Posynomial> {
        self.objective.as_ref()
    }

    /// The normalized constraints (`f_i(x) <= 1`).
    pub fn constraints(&self) -> &[Posynomial] {
        &self.constraints
    }

    /// Validates the program and returns `(objective, constraints)` for the
    /// solver.
    pub(crate) fn validated(&self) -> Result<(&Posynomial, &[Posynomial]), GpError> {
        let obj = self.objective.as_ref().ok_or(GpError::EmptyPosynomial)?;
        Ok((obj, &self.constraints))
    }

    /// Evaluates the worst constraint violation `max_i f_i(x) - 1` at `x`
    /// (negative means strictly feasible).
    pub fn max_violation(&self, x: &[f64]) -> f64 {
        self.constraints
            .iter()
            .map(|f| f.eval(x) - 1.0)
            .fold(f64::NEG_INFINITY, f64::max)
    }

    /// True if `x` satisfies every constraint with slack at least `slack`.
    pub fn is_strictly_feasible(&self, x: &[f64], slack: f64) -> bool {
        if x.len() != self.n_vars || x.iter().any(|&v| !(v.is_finite() && v > 0.0)) {
            return false;
        }
        self.constraints.is_empty() || self.max_violation(x) < -slack
    }

    fn check(&self, p: &Posynomial) -> Result<(), GpError> {
        if p.is_zero() {
            return Err(GpError::EmptyPosynomial);
        }
        if let Some(mv) = p.max_var() {
            if mv >= self.n_vars {
                return Err(GpError::InvalidExponent);
            }
        }
        Ok(())
    }
}

/// Solution of a geometric program, reported in the original variables.
#[derive(Debug, Clone)]
pub struct GpSolution {
    /// Optimal point `x* > 0`.
    pub x: Vec<f64>,
    /// Objective value `f0(x*)`.
    pub objective: f64,
    /// Newton steps (linear solves) taken by phase II: the iterations of
    /// the primal–dual loop, one step each.
    pub newton_steps: usize,
    /// Surrogate duality gap `Σ λ_i s_i` at termination. It bounds the
    /// suboptimality up to the dual residual, which the solver also
    /// drives below the tolerance (`‖∇F0 + Σ λ_i ∇Fi‖ <= tolerance`).
    pub duality_gap: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mono(c: f64, e: &[(usize, f64)]) -> Posynomial {
        Posynomial::monomial(Monomial::new(c, e.iter().copied()).unwrap())
    }

    #[test]
    fn rejects_out_of_range_variables() {
        let mut p = GpProblem::new(2);
        assert!(p.set_objective(mono(1.0, &[(5, 1.0)])).is_err());
        assert!(p.add_constraint(mono(1.0, &[(2, 1.0)])).is_err());
    }

    #[test]
    fn rejects_empty_objective() {
        let mut p = GpProblem::new(1);
        assert_eq!(
            p.set_objective(Posynomial::zero()),
            Err(GpError::EmptyPosynomial)
        );
    }

    #[test]
    fn normalizes_bounded_constraints() {
        let mut p = GpProblem::new(1);
        p.add_constraint_le(mono(2.0, &[(0, 1.0)]), 4.0).unwrap();
        // 2x <= 4 normalized to 0.5 x <= 1; at x=1 value is 0.5.
        assert!((p.constraints()[0].eval(&[1.0]) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn rejects_invalid_bounds() {
        let mut p = GpProblem::new(1);
        assert!(p.add_constraint_le(mono(1.0, &[(0, 1.0)]), 0.0).is_err());
        assert!(p.add_constraint_le(mono(1.0, &[(0, 1.0)]), -1.0).is_err());
        assert!(p
            .add_constraint_le(mono(1.0, &[(0, 1.0)]), f64::NAN)
            .is_err());
        assert!(p.add_upper_bound(0, 0.0).is_err());
        assert!(p.add_lower_bound(0, f64::INFINITY).is_err());
    }

    #[test]
    fn feasibility_check_and_violation() {
        let mut p = GpProblem::new(2);
        p.add_upper_bound(0, 2.0).unwrap();
        p.add_lower_bound(1, 1.0).unwrap();
        assert!(p.is_strictly_feasible(&[1.0, 2.0], 1e-9));
        assert!(!p.is_strictly_feasible(&[3.0, 2.0], 1e-9));
        assert!(!p.is_strictly_feasible(&[1.0, 0.5], 1e-9));
        assert!(!p.is_strictly_feasible(&[1.0, -1.0], 1e-9));
        assert!((p.max_violation(&[4.0, 2.0]) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn var_le_var_encodes_ordering() {
        let mut p = GpProblem::new(2);
        p.add_var_le_var(0, 1).unwrap();
        assert!(p.is_strictly_feasible(&[1.0, 2.0], 1e-9));
        assert!(!p.is_strictly_feasible(&[2.0, 1.0], 1e-9));
    }
}
