//! Data-dynamics models (ddms).
//!
//! To minimize refreshes the optimizer needs an estimate of how many
//! refreshes a DAB of width `b` incurs per unit time. The paper considers
//! two models (§III-A.1, §III-A.5), both also used by earlier work
//! (Olston & Widom SIGMOD'03; Gupta et al. WWW'05):
//!
//! * **Monotonic** — data drifts at rate `lambda`, so an item escapes a
//!   width-`b` filter every `b / lambda` time units: `lambda / b`
//!   refreshes per unit time.
//! * **Random walk** — with per-step deviation `lambda`, the expected
//!   escape time from a width-`b` interval scales as `(b / lambda)^2`:
//!   `(lambda / b)^2` refreshes per unit time.
//!
//! Both estimates are posynomial in `b`, which is what lets the refresh
//! objective enter a geometric program.

use pq_gp::{Monomial, Posynomial};

/// The assumed model of data evolution.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DataDynamicsModel {
    /// Uniform-rate monotonic drift: refresh rate `lambda / b`.
    Monotonic,
    /// Random walk: refresh rate `(lambda / b)^2`.
    RandomWalk,
}

impl DataDynamicsModel {
    /// The power `p` of the refresh estimate `(lambda / b)^p`.
    pub fn exponent(self) -> f64 {
        match self {
            DataDynamicsModel::Monotonic => 1.0,
            DataDynamicsModel::RandomWalk => 2.0,
        }
    }

    /// Estimated refreshes per unit time for rate `lambda` and DAB `b`.
    pub fn refresh_rate(self, lambda: f64, dab: f64) -> f64 {
        debug_assert!(lambda >= 0.0 && dab > 0.0);
        match self {
            DataDynamicsModel::Monotonic => lambda / dab,
            DataDynamicsModel::RandomWalk => {
                let r = lambda / dab;
                r * r
            }
        }
    }

    /// `lambda^p`: the coefficient of the refresh estimate as the GP
    /// monomial `lambda^p * b^-p`.
    pub fn refresh_coef(self, lambda: f64) -> f64 {
        match self {
            DataDynamicsModel::Monotonic => lambda,
            DataDynamicsModel::RandomWalk => lambda * lambda,
        }
    }

    /// The refresh-rate term as a GP monomial in the DAB variable
    /// `b_var`: `lambda * b^-1` or `lambda^2 * b^-2`.
    ///
    /// Returns `None` when `lambda` is zero or non-finite (an immobile item
    /// contributes no refreshes and must not enter the objective).
    pub fn refresh_monomial(self, lambda: f64, b_var: usize) -> Option<Monomial> {
        if !(lambda.is_finite() && lambda > 0.0) {
            return None;
        }
        let m = Monomial::new(self.refresh_coef(lambda), [(b_var, -self.exponent())]);
        Some(m.expect("positive lambda yields valid monomial"))
    }

    /// Sum of refresh-rate monomials for `(lambda_i, b_var_i)` pairs — the
    /// refresh part of the paper's objective functions.
    pub fn refresh_objective(self, items: impl IntoIterator<Item = (f64, usize)>) -> Posynomial {
        let mut p = Posynomial::zero();
        for (lambda, var) in items {
            if let Some(m) = self.refresh_monomial(lambda, var) {
                p.push(m);
            }
        }
        p
    }
}

impl std::fmt::Display for DataDynamicsModel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DataDynamicsModel::Monotonic => write!(f, "monotonic"),
            DataDynamicsModel::RandomWalk => write!(f, "random-walk"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn refresh_rates_match_formulas() {
        let m = DataDynamicsModel::Monotonic;
        let w = DataDynamicsModel::RandomWalk;
        assert!((m.refresh_rate(2.0, 0.5) - 4.0).abs() < 1e-12);
        assert!((w.refresh_rate(2.0, 0.5) - 16.0).abs() < 1e-12);
    }

    #[test]
    fn monomials_evaluate_like_rates() {
        for model in [DataDynamicsModel::Monotonic, DataDynamicsModel::RandomWalk] {
            let mono = model.refresh_monomial(3.0, 0).unwrap();
            for b in [0.1, 1.0, 7.5] {
                assert!((mono.eval(&[b]) - model.refresh_rate(3.0, b)).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn zero_rate_items_are_skipped() {
        assert!(DataDynamicsModel::Monotonic
            .refresh_monomial(0.0, 0)
            .is_none());
        let p = DataDynamicsModel::Monotonic.refresh_objective([(0.0, 0), (2.0, 1)]);
        assert_eq!(p.n_terms(), 1);
    }

    #[test]
    fn objective_sums_per_item_rates() {
        let p = DataDynamicsModel::RandomWalk.refresh_objective([(1.0, 0), (2.0, 1)]);
        // (1/b0)^2 + (2/b1)^2 at b = (0.5, 1.0) -> 4 + 4.
        assert!((p.eval(&[0.5, 1.0]) - 8.0).abs() < 1e-12);
    }
}
