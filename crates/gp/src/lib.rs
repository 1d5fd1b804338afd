//! # pq-gp — a self-contained geometric-programming solver
//!
//! The DAB-assignment formulations of Shah & Ramamritham (ICDE 2008) are
//! geometric programs (GPs): posynomial objectives (estimated refresh +
//! recomputation message rates) minimized subject to posynomial constraints
//! (the necessary-and-sufficient query-accuracy conditions). The paper used
//! CVXOPT; this crate replaces it with a from-scratch implementation:
//!
//! * [`posynomial`] — monomials / posynomials over positive variables;
//! * [`logsumexp`] — the log-variable transform making GPs convex;
//! * [`problem`] — program construction and validation;
//! * [`solver`] — a primal–dual interior-point method (one adaptive
//!   path-following Newton loop for cold starts, warm starts and phase I),
//!   built on the dense linear algebra in [`linalg`];
//! * [`sparse`] + [`ordering`] — a sparse Cholesky KKT backend (upper-CSC
//!   up-looking factorization under a min-degree ordering) that exploits
//!   the query↔item graph structure of joint AAO units, scaling the Newton
//!   solve to 10k+ variables.
//!
//! Small programs (tens to a couple hundred variables) stay on the dense
//! `O(n^3)` path; larger structured units are routed to the sparse backend
//! automatically when a program is compiled (see [`CompiledGp`]).
//!
//! ```
//! use pq_gp::{GpProblem, Monomial, Posynomial, SolverOptions, solve_with_start};
//!
//! // minimize 1/x + 1/y  subject to  x + y <= 1
//! let mut p = GpProblem::new(2);
//! let mut obj = Posynomial::monomial(Monomial::new(1.0, [(0, -1.0)]).unwrap());
//! obj.add(&Posynomial::monomial(Monomial::new(1.0, [(1, -1.0)]).unwrap()));
//! p.set_objective(obj).unwrap();
//! let mut c = Posynomial::monomial(Monomial::new(1.0, [(0, 1.0)]).unwrap());
//! c.add(&Posynomial::monomial(Monomial::new(1.0, [(1, 1.0)]).unwrap()));
//! p.add_constraint_le(c, 1.0).unwrap();
//! let sol = solve_with_start(&p, &[0.25, 0.25], &SolverOptions::default()).unwrap();
//! assert!((sol.x[0] - 0.5).abs() < 1e-5);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod error;
pub mod kkt;
pub mod linalg;
pub mod logsumexp;
pub mod ordering;
pub mod posynomial;
pub mod problem;
pub mod solver;
pub mod sparse;

pub use error::GpError;
pub use kkt::{kkt_report, KktReport, SparseKktPlan};
pub use posynomial::{Monomial, Posynomial};
pub use problem::{GpProblem, GpSolution};
pub use solver::{
    solve, solve_with_start, CompiledGp, DabTelemetry, SolveWorkspace, SolverOptions, WarmStart,
};
