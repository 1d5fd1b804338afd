//! Error type for DAB assignment.

use pq_gp::GpError;
use pq_poly::PolyError;

/// Errors from DAB assignment.
#[derive(Debug, Clone, PartialEq)]
pub enum DabError {
    /// Underlying geometric-program failure.
    Gp(GpError),
    /// Polynomial / constraint construction failure.
    Poly(PolyError),
    /// No rate-of-change estimate was supplied for a referenced item.
    MissingRate {
        /// The item without a rate.
        item: u32,
    },
    /// A refresh carried a NaN or infinite value; the coordinator's state
    /// was left untouched.
    NonFiniteValue {
        /// The refreshed item.
        item: u32,
        /// The rejected value.
        value: f64,
    },
    /// A refresh arrived before `install` ran (or after a registration
    /// changed without a re-install); the coordinator's state was left
    /// untouched.
    NotInstalled,
    /// A refresh named an item that was never registered; the
    /// coordinator's state was left untouched.
    UnknownItem {
        /// The unregistered item.
        item: u32,
    },
    /// The recomputation-cost parameter `mu` must be non-negative & finite.
    InvalidMu(f64),
    /// A strictly feasible starting DAB vector could not be constructed
    /// (the QAB is too tight relative to numeric precision).
    NoFeasibleStart,
    /// The strategy cannot handle this query class (e.g. asking the PPQ
    /// formulations to handle a mixed-sign polynomial directly).
    UnsupportedQueryClass {
        /// Human-readable detail.
        detail: &'static str,
    },
}

impl From<GpError> for DabError {
    fn from(e: GpError) -> Self {
        DabError::Gp(e)
    }
}

impl From<PolyError> for DabError {
    fn from(e: PolyError) -> Self {
        DabError::Poly(e)
    }
}

impl std::fmt::Display for DabError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DabError::Gp(e) => write!(f, "geometric program failed: {e}"),
            DabError::Poly(e) => write!(f, "constraint construction failed: {e}"),
            DabError::MissingRate { item } => {
                write!(f, "no rate-of-change estimate for item x{item}")
            }
            DabError::NonFiniteValue { item, value } => {
                write!(
                    f,
                    "refresh of item x{item} carries non-finite value {value}"
                )
            }
            DabError::NotInstalled => {
                write!(f, "refresh before install(): no filters are installed")
            }
            DabError::UnknownItem { item } => {
                write!(f, "refresh of unregistered item x{item}")
            }
            DabError::InvalidMu(mu) => {
                write!(f, "recomputation cost mu must be >= 0 and finite, got {mu}")
            }
            DabError::NoFeasibleStart => {
                write!(f, "could not construct a strictly feasible starting point")
            }
            DabError::UnsupportedQueryClass { detail } => {
                write!(f, "unsupported query class: {detail}")
            }
        }
    }
}

impl std::error::Error for DabError {}
