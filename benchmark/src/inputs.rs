//! Workload inputs: the market tape, the query book and the simulator
//! configuration, all made here and handed to the program as values.
//!
//! The tape is a fixed data set per workload (its seed is a constant):
//! at sizes that fit the time cap, the paths of a handful of popular
//! items decide +-20 % of the message cost, which no bound could hold
//! across seeds. `--seed` draws everything else: the book (pairs, legs,
//! weights, QABs) and the engine's delay and loss stream.

use polyquery::gp::SolverOptions;
use polyquery::sim::{DelayConfig, Pareto, SimConfig};
use polyquery::workload::{WorkloadConfig, WorkloadGen};
use polyquery::{PolynomialQuery, TraceSet};

use crate::trace::Tracer;

/// Seed of every workload's tape, mixed with the workload's index.
const TAPE_SEED: u64 = 0x1CDE_2008;
/// The paper's recomputation cost in messages.
pub const MU: f64 = 5.0;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Fig5Paper,
    BandedSweep,
    OverlapBook,
    MonitorReplay,
}

impl Kind {
    pub const ALL: [Kind; 4] = [
        Kind::Fig5Paper,
        Kind::BandedSweep,
        Kind::OverlapBook,
        Kind::MonitorReplay,
    ];

    pub fn name(self) -> &'static str {
        crate::spec::WORKLOADS[self as usize].name
    }

    pub fn from_name(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }
}

/// The fixed sizes of one workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sizes {
    pub n_items: usize,
    pub n_queries: usize,
    pub n_ticks: usize,
    /// Product legs per query, inclusive range.
    pub legs: (usize, usize),
    /// Ticks of the zero-delay twin that checks Condition 1.
    pub twin_ticks: usize,
}

impl Sizes {
    pub fn of(kind: Kind, smoke: bool) -> Sizes {
        let (n_items, n_queries, n_ticks, legs, twin_ticks) = match (kind, smoke) {
            (Kind::Fig5Paper, false) => (100, 500, 1000, (6, 7), 240),
            (Kind::BandedSweep, false) => (60_000, 480, 200, (3, 4), 100),
            (Kind::OverlapBook, false) => (400, 1500, 400, (3, 4), 40),
            (Kind::MonitorReplay, false) => (100, 500, 700, (6, 7), 0),
            (Kind::Fig5Paper, true) => (40, 40, 150, (3, 4), 100),
            (Kind::BandedSweep, true) => (2000, 20, 100, (3, 4), 80),
            (Kind::OverlapBook, true) => (60, 80, 120, (3, 4), 90),
            (Kind::MonitorReplay, true) => (40, 40, 150, (3, 4), 0),
        };
        Sizes {
            n_items,
            n_queries,
            n_ticks,
            legs,
            twin_ticks,
        }
    }

    pub fn item_ticks(&self) -> f64 {
        (self.n_items * self.n_ticks) as f64
    }
}

/// One generated input set.
#[derive(Debug, Clone)]
pub struct Inputs {
    pub traces: TraceSet,
    pub queries: Vec<PolynomialQuery>,
}

/// Generates the tape and the book, each inside its layer's span, and
/// returns them with the two generation times in seconds.
pub fn generate(kind: Kind, sizes: Sizes, seed: u64, tracer: &mut Tracer) -> (Inputs, f64, f64) {
    let (traces, tape_s) = tracer.timed("ddm.generate", || {
        TraceSet::stock_universe(sizes.n_items, sizes.n_ticks, TAPE_SEED ^ kind as u64)
    });
    let (queries, book_s) = tracer.timed("workload.generate", || {
        let initial = traces.initial_values();
        let mut gen = WorkloadGen::with_config(
            WorkloadConfig {
                n_items: sizes.n_items,
                legs: sizes.legs.0..=sizes.legs.1,
                ..WorkloadConfig::default()
            },
            seed,
        );
        match kind {
            Kind::Fig5Paper | Kind::MonitorReplay => {
                gen.portfolio_queries(sizes.n_queries, &initial)
            }
            Kind::BandedSweep => gen.banded_portfolio_queries(sizes.n_queries, &initial),
            Kind::OverlapBook => gen.overlapping_book(sizes.n_queries, 0.9, &initial),
        }
    });
    (Inputs { traces, queries }, tape_s, book_s)
}

/// Solver options the paper-figure harnesses use inside the simulator:
/// a 1e-5 gap is far below what a filter width needs.
fn sim_gp_options() -> SolverOptions {
    SolverOptions {
        tolerance: 1e-5,
        t0: 10.0,
        mu: 30.0,
        ..SolverOptions::default()
    }
}

/// The network of `banded_sweep`: PlanetLab-like links, a coordinator
/// with no service time, 2 % of messages lost.
fn banded_delays() -> DelayConfig {
    DelayConfig {
        node_to_node: Pareto::with_mean(0.110),
        ..DelayConfig::zero()
    }
}

/// The delay distribution a workload's scheduler events follow.
pub fn node_delay(kind: Kind) -> Pareto {
    match kind {
        Kind::BandedSweep => banded_delays().node_to_node,
        _ => DelayConfig::planetlab_like().node_to_node,
    }
}

/// What `SimConfig::new` gives a user, plus the workload's shape:
/// strategy stays Dual-DAB mu = 5 with Different-Sum, one thread.
pub fn sim_config(kind: Kind, inputs: Inputs, seed: u64) -> SimConfig {
    let mut cfg = SimConfig::new(inputs.traces, inputs.queries);
    cfg.seed = seed;
    cfg.threads = 1;
    cfg.mu_cost = MU;
    cfg.gp = sim_gp_options();
    if kind == Kind::BandedSweep {
        cfg.delays = banded_delays();
        cfg.loss_probability = 0.02;
    }
    cfg
}

/// The zero-delay, zero-loss twin of `cfg` cut to its first `ticks`
/// ticks: with nothing in flight, Condition 1 allows no QAB violation.
pub fn zero_delay_twin(cfg: &SimConfig, ticks: usize) -> SimConfig {
    let tape = cfg
        .traces
        .traces()
        .iter()
        .map(|t| polyquery::Trace::from_values(t.values()[..ticks.min(t.len())].to_vec()))
        .collect();
    let mut twin = SimConfig::new(TraceSet::new(tape), cfg.queries.clone());
    twin.seed = cfg.seed;
    twin.threads = 1;
    twin.mu_cost = cfg.mu_cost;
    twin.gp = cfg.gp.clone();
    twin.delays = DelayConfig::zero();
    twin.loss_probability = 0.0;
    twin
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv_word(hash: u64, word: u64) -> u64 {
    (hash ^ word).wrapping_mul(FNV_PRIME)
}

/// FNV-1a over 64-bit words of every tape sample and every byte of the
/// book's text, so two commits can show they ran the same inputs.
pub fn inputs_hash(traces: &TraceSet, queries: &[PolynomialQuery]) -> u64 {
    let mut hash = FNV_OFFSET;
    for trace in traces.traces() {
        for v in trace.values() {
            hash = fnv_word(hash, v.to_bits());
        }
    }
    for q in queries {
        for b in q.to_string().bytes() {
            hash = fnv_word(hash, u64::from(b));
        }
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hash_of(kind: Kind, seed: u64) -> u64 {
        let mut tracer = Tracer::new(false);
        let (inputs, _, _) = generate(kind, Sizes::of(kind, true), seed, &mut tracer);
        inputs_hash(&inputs.traces, &inputs.queries)
    }

    #[test]
    fn the_same_seed_gives_the_same_inputs() {
        for kind in Kind::ALL {
            assert_eq!(hash_of(kind, 7), hash_of(kind, 7), "{}", kind.name());
            assert_ne!(hash_of(kind, 7), hash_of(kind, 8), "{}", kind.name());
        }
    }

    #[test]
    fn workloads_do_not_share_inputs() {
        assert_ne!(hash_of(Kind::Fig5Paper, 7), hash_of(Kind::OverlapBook, 7));
    }

    #[test]
    fn names_map_both_ways() {
        for kind in Kind::ALL {
            assert_eq!(Kind::from_name(kind.name()), Some(kind));
        }
        assert_eq!(Kind::from_name("nope"), None);
        // `name` indexes the spec table: the two orders must agree.
        assert_eq!(Kind::Fig5Paper.name(), "fig5_paper");
        assert_eq!(Kind::MonitorReplay.name(), "monitor_replay");
    }

    #[test]
    fn the_twin_has_no_delay_and_fewer_ticks() {
        let mut tracer = Tracer::new(false);
        let sizes = Sizes::of(Kind::BandedSweep, true);
        let (inputs, _, _) = generate(Kind::BandedSweep, sizes, 3, &mut tracer);
        let cfg = sim_config(Kind::BandedSweep, inputs, 3);
        assert!(cfg.loss_probability > 0.0);
        let twin = zero_delay_twin(&cfg, sizes.twin_ticks);
        assert_eq!(twin.traces.n_ticks(), sizes.twin_ticks);
        assert_eq!(twin.traces.n_items(), sizes.n_items);
        assert_eq!(twin.loss_probability, 0.0);
        assert_eq!(twin.delays, DelayConfig::zero());
    }
}
