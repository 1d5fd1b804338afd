//! # pq-ddm — dynamic data: traces, rates and data-dynamics models
//!
//! Substrate for the polynomial-query monitoring system: synthetic
//! replacements for the paper's Yahoo! Finance traces ([`trace`]), the
//! rate-of-change estimators of §V-A ([`rate`]), and the monotonic /
//! random-walk refresh-rate models that feed the GP objectives
//! ([`model`]), and the parallel map the tapes and a coordinator's
//! install are computed on ([`parallel`]).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod model;
pub mod parallel;
pub mod rate;
pub mod trace;

pub use model::DataDynamicsModel;
pub use rate::RateEstimator;
pub use trace::{Trace, TraceSet};
