//! # polyquery
//!
//! A Rust implementation of **"Handling Non-linear Polynomial Queries over
//! Dynamic Data"** (Shah & Ramamritham, ICDE 2008): accuracy-bounded
//! monitoring of polynomial continuous queries over rapidly changing,
//! distributed data.
//!
//! Given queries `P(x_1..x_n) : B` — each a polynomial over data items with
//! a user accuracy bound `B` — the system assigns every data item a push
//! filter (*Data Accuracy Bound*, DAB) such that:
//!
//! 1. whenever each item is within its DAB, every query is within its
//!    accuracy bound (*correctness*);
//! 2. sources push as few refreshes as possible (*communication
//!    efficiency*); and
//! 3. the DABs themselves are recomputed as rarely as possible — for
//!    non-linear queries the filters depend on current data values and go
//!    stale, and the paper shows recomputation cost can dominate.
//!
//! The headline technique is the **Dual-DAB** assignment: a tight primary
//! filter at the source plus a wider secondary validity range at the
//! coordinator, jointly optimized by geometric programming, trading a few
//! extra refreshes for an order-of-magnitude drop in recomputations.
//!
//! ## Crates
//!
//! | Crate | Contents |
//! |---|---|
//! | [`pq_gp`] | from-scratch geometric-programming solver |
//! | [`pq_poly`] | polynomial queries, QAB-condition construction |
//! | [`pq_ddm`] | traces, rate estimation, data-dynamics models |
//! | [`pq_core`] | the DAB assignment algorithms (the paper's contribution) and the coordinator that runs them, [`pq_core::Coordinator`] |
//! | [`pq_sim`] | discrete-event evaluation harness: the world around a coordinator |
//! | [`pq_workload`] | the paper's §V-A workloads |
//!
//! ## Quick start
//!
//! ```
//! use polyquery::{Monitor, PolynomialQuery};
//!
//! let mut monitor = Monitor::new();
//! let ibm = monitor.add_item("ibm", 100.0, 0.5);   // value, rate of change
//! let usd = monitor.add_item("usd_inr", 80.0, 0.05);
//! monitor.add_query(PolynomialQuery::portfolio([(10.0, ibm, usd)], 800.0).unwrap());
//!
//! // Ship these filters to the sources:
//! let filters = monitor.install().unwrap();
//! assert!(!filters.is_empty());
//!
//! // Feed refreshes as they arrive; the monitor tells you who to notify
//! // and which filters changed.
//! let outcome = monitor.on_refresh(ibm, 101.0).unwrap();
//! assert!(outcome.notify.is_empty()); // 10*1*80 = 800 not exceeded
//! ```

//! [`monitor`] is the deployable face of that coordinator: names, a
//! builder and a watchdog around one [`pq_core::Coordinator`].

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod monitor;

pub use monitor::{Monitor, RefreshOutcome};

// Re-export the subsystem crates under stable names.
pub use pq_core as core;
pub use pq_ddm as ddm;
pub use pq_gp as gp;
pub use pq_obs as obs;
pub use pq_poly as poly;
pub use pq_sim as sim;
pub use pq_workload as workload;

// Flat re-exports of the types almost every user touches.
pub use pq_core::{
    assign_query, AssignmentStrategy, CoordinatorAssignment, DabError, PqHeuristic,
    QueryAssignment, SolveContext, ValidityRange,
};
pub use pq_ddm::{DataDynamicsModel, RateEstimator, Trace, TraceSet};
pub use pq_obs::{Obs, ObsConfig};
pub use pq_poly::{ItemCatalog, ItemId, Polynomial, PolynomialQuery, QueryClass, QueryId};
