//! # pq-sim — discrete-event simulation of accuracy-bounded dissemination
//!
//! Substrate replacing the paper's emulation / PlanetLab test-bed (§V-A):
//!
//! * [`audit`] — continuous fidelity audit: shadow naive evaluation of
//!   a rotating query sample, live divergence gauges and events;
//! * [`delay`] — heavy-tailed Pareto communication & computation delays;
//! * [`event`] — deterministic discrete-event queue;
//! * [`engine`] — the single-coordinator push-protocol simulation
//!   (sources with DAB filters, refresh delivery, user notification,
//!   validity-triggered DAB recomputation, fidelity sampling);
//! * [`incremental`] — delta-maintained per-query values
//!   ([`DeltaView`] per query, [`SharedView`] over a cross-query
//!   [`pq_poly::SharedPlan`]) powering the engine's `O(affected terms)`
//!   fidelity sampling and per-refresh checks (see [`EvalMode`]);
//! * [`network`] — a dissemination tree of cooperating coordinators for
//!   the Fig. 8(c) experiment;
//! * [`ring`] — bounded SPSC rings carrying cross-shard messages;
//! * [`shard`] — the partitioned multi-coordinator engine: one
//!   coordinator per shard of the query↔item graph
//!   ([`mod@pq_core::partition`]), conservative tick barriers over the
//!   rings, deterministic metric merge (set [`SimConfig::shards`]);
//! * [`metrics`] — the paper's four metrics (fidelity loss, refreshes,
//!   recomputations, total cost).
//!
//! Telemetry: set [`SimConfig::obs`] (re-exported [`ObsConfig`]) to get a
//! JSONL trace of every refresh, recomputation, and GP solve, or call
//! [`engine::run_observed`] with your own [`Obs`] handle to inspect the
//! counter/histogram registry after a run.

#![warn(missing_docs)]

pub mod audit;
pub mod delay;
pub mod engine;
pub mod event;
pub mod incremental;
pub mod metrics;
pub mod network;
pub mod ring;
pub mod shard;
pub mod table;
pub mod wheel;

pub use audit::{AuditConfig, AuditFault};
pub use delay::{DelayConfig, Pareto};
pub use engine::{run, run_observed, DelayRng, EvalMode, SimConfig, SimError, SimStrategy};
pub use event::{Event, EventQueue};
pub use incremental::{DeltaView, ReaderIndex, Readers, SharedView};
pub use metrics::SimMetrics;
pub use network::{run_network, run_network_observed, NetworkConfig, NetworkMetrics};
pub use pq_obs::{Obs, ObsConfig, RecorderConfig, SloConfig};
pub use ring::{RingConsumer, RingMsg, RingProducer};
pub use shard::{run_sharded, Execution, ShardReport, ShardStat};
pub use table::{Bitset, ItemTable};
pub use wheel::{Scheduler, SimQueue, TimerWheel};
