//! # pq-core — DAB assignment for polynomial queries
//!
//! The primary contribution of Shah & Ramamritham (ICDE 2008): given
//! continuous polynomial queries with Query Accuracy Bounds (QABs) at a
//! coordinator, derive per-item Data Accuracy Bounds (DABs — source-side
//! push filters) that (1) guarantee every QAB, (2) minimize refreshes, and
//! (3) minimize DAB *recomputations*, whose cost the paper shows can
//! dominate for non-linear queries.
//!
//! * [`ppq`] — Optimal Refresh and the novel Dual-DAB geometric programs
//!   for positive-coefficient queries (§III-A);
//! * [`laq`] — closed forms for linear queries;
//! * [`heuristics`] — Half-and-Half and Different Sum for mixed-sign
//!   queries (§III-B);
//! * [`multi`] — EQI and AAO for many queries at one coordinator (§IV);
//! * [`baseline`] — Sharfman-style per-item split and equal-width
//!   baselines (§II, §V-A);
//! * [`assignment`] — the assignment/validity-range types shared by all;
//! * [`filter_table`] — a coordinator's installed assignments, item-major:
//!   stale-unit collection and the minimum rule as one contiguous scan;
//! * [`install`] — the install loop: every unit's first solve;
//! * [`cache`] — per-unit caches, each unit's compiled program and last
//!   assignment, re-solved in place;
//! * [`coordinator`] — the coordinator itself: refresh → notify →
//!   re-anchor or re-solve the stale units → re-derive the filters, over
//!   the three above. The monitor, the simulator's engine and the
//!   Fig. 8(c) tree each wrap one;
//! * [`mod@partition`] — the connected components of the query↔item
//!   graph, packed onto `k` balanced parts (no shipped path runs more
//!   than one coordinator; the benchmark times it);
//! * [`strategy`] — a query's decomposition into assignment units and
//!   the one solve of a unit every entry point runs.
//!
//! ```
//! use pq_core::{assign_query, AssignmentStrategy, PqHeuristic, SolveContext};
//! use pq_poly::{ItemId, PolynomialQuery};
//!
//! // Fig. 2's query: Q = x*y with QAB 5, at V = (2, 2).
//! let q = PolynomialQuery::portfolio([(1.0, ItemId(0), ItemId(1))], 5.0).unwrap();
//! let values = [2.0, 2.0];
//! let rates = [1.0, 1.0];
//! let ctx = SolveContext::new(&values, &rates);
//! let a = assign_query(&q, &ctx, AssignmentStrategy::DualDab { mu: 5.0 },
//!                      PqHeuristic::DifferentSum).unwrap();
//! assert!(a.respects_qab(&q, 1e-6));
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod assignment;
pub mod baseline;
pub mod cache;
pub mod context;
pub mod coordinator;
pub mod error;
pub mod filter_table;
pub mod heuristics;
pub mod install;
pub mod laq;
pub mod multi;
pub mod partition;
pub mod ppq;
pub mod strategy;

pub use assignment::{CoordinatorAssignment, QueryAssignment, UnitColumns, ValidityRange};
pub use cache::{filter_changed, SolveCache, UnitCache, DAB_GAP};
pub use context::{dab_solver_options, SolveContext};
pub use coordinator::{Config, Coordinator, Outcome, ReaderIndex, Scope, REBASE_EVERY};
pub use error::DabError;
pub use filter_table::FilterTable;
pub use heuristics::PqHeuristic;
pub use install::{install_units, InstallError, Installed};
pub use laq::linear_closed_form;
pub use multi::{aao, aao_program, eqi, AaoProgram};
pub use partition::{partition, PartitionInput, PartitionPlan};
pub use ppq::{dual_dab, optimal_refresh};
pub use strategy::{
    assign_query, assign_unit, assign_unit_cached, assignment_units, estimate_mu,
    AssignmentStrategy, AssignmentUnit,
};
