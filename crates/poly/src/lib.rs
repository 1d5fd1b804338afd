//! # pq-poly — polynomial continuous queries over dynamic data
//!
//! Query representation for the polynomial-query monitoring system of
//! Shah & Ramamritham (ICDE 2008):
//!
//! * [`item`] — data-item identities ([`ItemId`], [`ItemCatalog`]);
//! * [`polynomial`] — sparse multivariate polynomials with integer
//!   exponents, splitting `P = P1 - P2`, exact worst-case box deviation;
//! * [`shared`] — the cross-query evaluation compiler ([`SharedPlan`]):
//!   a staged `parse → analyze → optimize → plan` pipeline over a whole
//!   query book that deduplicates monomials via CSE, evaluates them
//!   with unrolled degree-1/2 kernels and scatters each
//!   distinct-monomial delta to all subscribing queries through CSR
//!   layouts, with incremental query admission/retirement; and the
//!   query values it maintains ([`SharedView`]);
//! * [`query`] — queries `P : B` with QABs, classification
//!   (LAQ / PPQ / general PQ) and the paper's workload constructors
//!   (portfolio, arbitrage, linear aggregate);
//! * [`constraint`] — symbolic expansion of the necessary-and-sufficient
//!   DAB conditions `P(V+c+b) − P(V+c) ≤ B` into [`pq_gp`] posynomials;
//! * [`parse`] — a small expression parser for examples and tools.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod constraint;
pub mod error;
pub mod item;
pub mod parse;
pub mod polynomial;
pub mod query;
pub mod shared;

pub use constraint::{
    coupled_items, deviation_posynomial, DabVarIndexer, DabVarMap, DeviationMap, PartialDabVarMap,
};
pub use error::PolyError;
pub use item::{ItemCatalog, ItemId};
pub use parse::parse_polynomial;
pub use polynomial::{PTerm, Polynomial};
pub use query::{PolynomialQuery, QueryClass, QueryId};
pub use shared::{SharedPlan, SharedView};
