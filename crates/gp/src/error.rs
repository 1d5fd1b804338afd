//! Error types for geometric-program construction and solving.

/// Errors arising while building or solving a geometric program.
#[derive(Debug, Clone, PartialEq)]
pub enum GpError {
    /// Monomial coefficients must be strictly positive and finite.
    NonPositiveCoefficient(f64),
    /// Exponents must be finite, on a variable of the program; a compiled
    /// exponent row also lists each variable once, ascending, with a
    /// non-zero exponent.
    InvalidExponent,
    /// The objective (or a constraint) has no terms.
    EmptyPosynomial,
    /// A constraint bound must be strictly positive and finite.
    InvalidBound(f64),
    /// A supplied starting point was not strictly positive.
    InvalidStartingPoint,
    /// Phase I terminated without finding a strictly feasible point.
    Infeasible {
        /// Best attained value of `max_i f_i(x) - 1` (positive = infeasible).
        residual: f64,
    },
    /// Newton iterations failed to make progress (ill-conditioned problem).
    NumericalFailure(&'static str),
    /// Iteration limit exceeded before reaching the requested tolerance.
    IterationLimit,
}

impl std::fmt::Display for GpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GpError::NonPositiveCoefficient(c) => {
                write!(f, "monomial coefficient must be > 0 and finite, got {c}")
            }
            GpError::InvalidExponent => write!(
                f,
                "monomial exponents must be finite, on variables of the program"
            ),
            GpError::EmptyPosynomial => write!(f, "posynomial must have at least one term"),
            GpError::InvalidBound(b) => {
                write!(f, "constraint bound must be > 0 and finite, got {b}")
            }
            GpError::InvalidStartingPoint => {
                write!(f, "starting point must be strictly positive and finite")
            }
            GpError::Infeasible { residual } => {
                write!(f, "problem is infeasible (residual {residual:.3e})")
            }
            GpError::NumericalFailure(what) => write!(f, "numerical failure: {what}"),
            GpError::IterationLimit => write!(f, "iteration limit exceeded"),
        }
    }
}

impl std::error::Error for GpError {}
