//! # pq-sim — discrete-event simulation of accuracy-bounded dissemination
//!
//! Substrate replacing the paper's emulation / PlanetLab test-bed (§V-A):
//!
//! * [`audit`] — continuous fidelity audit: shadow naive evaluation of
//!   a rotating query sample, sample and divergence counters and events;
//! * [`delay`] — heavy-tailed Pareto communication & computation delays,
//!   drawn from one counter-based stream per item;
//! * [`event`] — the events the simulator schedules;
//! * [`engine`] — the push-protocol simulation: a run is projected onto
//!   the items its book reads, then one engine plays it on the calling
//!   thread — the world around one [`pq_core::Coordinator`], or around
//!   the Fig. 8(c) dissemination tree of them (sources with DAB filters,
//!   lossy delayed delivery, each coordinator's service queue, fidelity
//!   sampling), turning each refresh's `Outcome` into events, RNG draws
//!   and metrics;
//! * [`metrics`] — the paper's four metrics (fidelity loss, refreshes,
//!   recomputations, total cost);
//! * [`table`] — flat source-side per-item columns ([`ItemTable`]);
//! * [`wheel`] — the binary-heap event queue ([`TimerWheel`]).
//!
//! Query values are maintained by the coordinator's
//! [`pq_poly::SharedView`] over the book's cross-query
//! [`pq_poly::SharedPlan`]: per-refresh checks and fidelity samples are
//! loads, a refresh costs `O(affected terms)`.
//!
//! Telemetry: [`engine::run_observed`] runs under your own [`Obs`]
//! handle — one built by [`Obs::from_config`] writes a JSONL trace of
//! every refresh, recomputation, and GP solve — and leaves the
//! counter/histogram registry to inspect after the run; a flight
//! recorder on the handle dumps whenever an audit pass flags a
//! divergence. [`run`] records nothing: its handle is [`Obs::disabled`].

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod audit;
pub mod delay;
pub mod engine;
pub mod event;
pub mod metrics;
pub mod table;
pub mod wheel;

pub use audit::{AuditConfig, AuditFault};
pub use delay::{DelayConfig, Pareto};
pub use engine::{run, run_observed, SimConfig, SimError, SimStrategy};
pub use event::Event;
pub use metrics::SimMetrics;
pub use pq_obs::{Obs, RecorderConfig};
pub use table::{ItemTable, ReaderIndex};
pub use wheel::TimerWheel;
