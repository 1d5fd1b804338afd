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
    fn coefficient_and_exponent_give_the_rate() {
        for model in [DataDynamicsModel::Monotonic, DataDynamicsModel::RandomWalk] {
            for b in [0.1_f64, 1.0, 7.5] {
                let term = model.refresh_coef(3.0) * b.powf(-model.exponent());
                assert!((term - model.refresh_rate(3.0, b)).abs() < 1e-9);
            }
        }
    }
}
