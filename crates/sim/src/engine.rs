//! The discrete-event simulation (§V-A methodology) of one coordinator
//! or a tree of them (Fig. 8(c)).
//!
//! Sources replay per-item traces at 1 s ticks and push a refresh whenever
//! their value drifts past the installed primary DAB. Refreshes reach the
//! coordinator after a heavy-tailed network + processing delay; the
//! coordinator updates its cached value, notifies users of QAB-violating
//! changes, and — when the arriving value invalidates a query's DAB
//! assignment — recomputes that query's DABs and sends DAB-change messages
//! back to the sources (which apply them after another network delay).
//! What the coordinator does with a refresh is [`pq_core::Coordinator`];
//! this module is everything around it.
//!
//! With [`SimConfig::coordinators`] above one, the coordinators form a
//! balanced binary tree (node `c`'s children are `2c + 1` and `2c + 2`)
//! serving the book dealt round-robin. The sources feed the root and
//! filter against the whole tree's tightest need; a node forwards each
//! value it ingests, over the same lossy delayed network, to every child
//! whose subtree needs it. A node's filter change re-derives the needs up
//! its chain at once: only the root's need travels, to the sources.
//!
//! Fidelity is sampled at tick instants: a query is in violation when the
//! coordinator's cached query value deviates from the true source value by
//! more than the QAB. With [`crate::delay::DelayConfig::zero`] delays,
//! Condition 1 guarantees zero loss; delayed modes reproduce the loss
//! trends of Fig. 5(c). Sub-second violation windows between ticks are
//! invisible to the sampler, so absolute loss numbers are conservative —
//! trends across strategies and delays are what this reproduces (the
//! paper makes the same caveat for its PlanetLab runs).

use std::borrow::Cow;
use std::collections::VecDeque;
use std::num::NonZeroUsize;
use std::ops::Range;
use std::sync::Arc;
use std::time::Instant;

use pq_core::coordinator::{Config, Coordinator, Scope};
use pq_core::{
    aao, dab_solver_options, AssignmentStrategy, DabError, InstallError, PqHeuristic, SolveContext,
};
use pq_ddm::parallel::{available_cores, read_ahead};
use pq_ddm::{DataDynamicsModel, RateEstimator, TraceSet};
use pq_gp::SolverOptions;
use pq_obs::{names, Counter, EventKind, Obs};
use pq_poly::{ItemId, PolynomialQuery, SharedPlan};

use crate::audit::{AuditConfig, AuditFault, FidelityAuditor};
use crate::delay::{DelayConfig, ItemDraws, Pareto};
use crate::event::Event;
use crate::metrics::SimMetrics;
use crate::table::ItemTable;
use crate::wheel::TimerWheel;

/// How the coordinator manages DABs across its queries.
#[derive(Debug, Clone, PartialEq)]
pub enum SimStrategy {
    /// EQI: per-query assignments with the given strategy; installed
    /// filters are per-item minima (§IV).
    PerQuery {
        /// Per-query assignment policy.
        strategy: AssignmentStrategy,
        /// Heuristic for mixed-sign queries.
        heuristic: PqHeuristic,
    },
    /// AAO-T: a joint AAO recomputation every `period_ticks`; between
    /// periods, secondary-DAB violations trigger per-query Dual-DAB
    /// recomputations (§V-B.1, curves AAO-30 .. AAO-1500).
    AaoPeriodic {
        /// Joint recomputation period in ticks.
        period_ticks: usize,
        /// Recomputation cost parameter.
        mu: f64,
    },
}

/// Full configuration of a simulation run.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Per-item data traces (item `i` follows trace `i`).
    pub traces: TraceSet,
    /// The continuous queries registered at the coordinator.
    pub queries: Vec<PolynomialQuery>,
    /// DAB management strategy.
    pub strategy: SimStrategy,
    /// Coordinators serving the book: one, or a balanced binary tree of
    /// them with query `q` on node `q % coordinators` (see the module
    /// docs).
    pub coordinators: NonZeroUsize,
    /// Assumed data-dynamics model for the optimizers.
    pub ddm: DataDynamicsModel,
    /// Rate-of-change estimator (the paper samples at 60 s).
    pub rate_estimator: RateEstimator,
    /// Delay model.
    pub delays: DelayConfig,
    /// Ignored by the engine: metric 4 takes its μ as an argument
    /// ([`SimMetrics::total_cost`]). The field stays only because the
    /// benchmark harness sets it.
    pub mu_cost: f64,
    /// RNG seed for delays.
    pub seed: u64,
    /// Ignored by the engine: a run is one coordinator over the whole
    /// book on the calling thread (DESIGN.md §10). The field stays only
    /// because the benchmark harness sets it.
    pub shards: usize,
    /// Probability that any message (refresh or DAB-change) is silently
    /// dropped in transit — failure injection for resilience experiments.
    /// The push protocol has no acknowledgements (as in the paper), so a
    /// lost refresh stays lost until the source's value escapes its filter
    /// again.
    pub loss_probability: f64,
    /// GP solver options for all recomputations
    /// ([`pq_core::dab_solver_options`] unless set). A unit's DAB solve
    /// stops at its first iterate within the certified gap
    /// [`pq_core::DAB_GAP`], which binds before a `tolerance` at or below
    /// it; the tolerance still stops AAO's joint solves and a phase-I
    /// fallback.
    pub gp: SolverOptions,
    /// Ignored by the engine: a refresh's stale units are re-solved on
    /// the engine's own thread, one after another (DESIGN.md §10), and
    /// the install splits its book over the cores by its size. The field
    /// stays only because the benchmark harness sets it.
    pub threads: usize,
    /// Continuous fidelity audit of the incrementally maintained query
    /// values (shadow naive evaluation; see [`crate::audit`]). `None`
    /// (default) disables it. The audit is read-only and RNG-free:
    /// [`SimMetrics`] are byte-identical with it on or off.
    pub audit: Option<AuditConfig>,
    /// Fault injection for the audit path: corrupts the coordinator's
    /// [`pq_poly::SharedView`] at a chosen tick so tests can prove the auditor
    /// flags a wrong delta plane within one interval.
    pub audit_fault: Option<AuditFault>,
}

impl SimConfig {
    /// A reasonable default configuration over the given traces and
    /// queries: Dual-DAB with `mu = 5`, monotonic ddm, 60-tick rate
    /// sampling, PlanetLab-like delays.
    pub fn new(traces: TraceSet, queries: Vec<PolynomialQuery>) -> Self {
        SimConfig {
            traces,
            queries,
            strategy: SimStrategy::PerQuery {
                strategy: AssignmentStrategy::DualDab { mu: 5.0 },
                heuristic: PqHeuristic::DifferentSum,
            },
            coordinators: NonZeroUsize::MIN,
            ddm: DataDynamicsModel::Monotonic,
            rate_estimator: RateEstimator::SampledAverage { interval_ticks: 60 },
            delays: DelayConfig::planetlab_like(),
            mu_cost: 5.0,
            seed: 42,
            shards: 1,
            loss_probability: 0.0,
            gp: dab_solver_options(),
            threads: 1,
            audit: None,
            audit_fault: None,
        }
    }
}

/// Simulation failure.
#[derive(Debug)]
pub enum SimError {
    /// A DAB solve failed for the given query index, on whichever
    /// coordinator serves it.
    Dab {
        /// Index into `SimConfig::queries`.
        query: usize,
        /// Underlying error.
        source: DabError,
    },
    /// The joint all-at-once solve of every query failed: no one query
    /// is to blame.
    Aao {
        /// Underlying error.
        source: DabError,
    },
    /// The coordinator refused a refresh (an unknown item, a non-finite
    /// value) before applying it.
    Refresh {
        /// Underlying error, naming the item.
        source: DabError,
    },
    /// A query references an item with no trace.
    MissingTrace {
        /// The missing item index.
        item: usize,
    },
    /// A trace some query reads holds a sample that is not a finite
    /// non-negative number.
    BadSample {
        /// The item (global id) whose trace holds it.
        item: usize,
        /// The tick of the sample.
        tick: usize,
    },
    /// [`SimConfig::loss_probability`] is not a probability (`NaN` or
    /// outside `[0, 1]`).
    BadLossProbability {
        /// The configured value.
        value: f64,
    },
    /// A distribution in [`SimConfig::delays`] that can draw a delay
    /// the queue cannot schedule (see [`Pareto::is_valid`]).
    BadDelay {
        /// Its [`DelayConfig`] field: `node_to_node`,
        /// `coordinator_check` or `recompute_service`.
        name: &'static str,
        /// The configured distribution.
        value: Pareto,
    },
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::Dab { query, source } => {
                write!(f, "DAB assignment failed for query {query}: {source}")
            }
            SimError::Aao { source } => write!(f, "joint AAO solve failed: {source}"),
            SimError::Refresh { source } => write!(f, "coordinator refused a refresh: {source}"),
            SimError::MissingTrace { item } => {
                write!(f, "query references item x{item} with no trace")
            }
            SimError::BadSample { item, tick } => {
                write!(
                    f,
                    "trace of item x{item} is not finite and non-negative at tick {tick}"
                )
            }
            SimError::BadLossProbability { value } => {
                write!(f, "loss_probability must lie in [0, 1], got {value}")
            }
            SimError::BadDelay { name, value } => write!(
                f,
                "delays.{name} needs a finite scale and cap >= 0 and a finite shape > 0, got {value:?}"
            ),
        }
    }
}

impl std::error::Error for SimError {}

/// A coordinator's failed install or re-solve, its query named by its
/// index in the book through the coordinator's `scope`.
fn solve_error(scope: &Scope) -> impl Fn(InstallError) -> SimError + '_ {
    |e| match e.query {
        Some(query) => SimError::Dab {
            query: scope.query(query),
            source: e.source,
        },
        // Refused before any solve: an input, not a query, was bad.
        None => SimError::Refresh { source: e.source },
    }
}

/// Runs the simulation to completion and returns the collected metrics.
///
/// The run records nothing: it is [`run_observed`] on [`Obs::disabled`],
/// a handle no caller can read, so it registers no metric, emits no
/// event and opens no span. To observe a run, pass a handle to
/// [`run_observed`].
pub fn run(config: &SimConfig) -> Result<SimMetrics, SimError> {
    run_observed(config, &Obs::disabled())
}

/// Runs the simulation with a caller-supplied telemetry handle (build
/// one from a declarative [`pq_obs::ObsConfig`] with
/// [`Obs::from_config`] for a JSONL trace or a recorder).
///
/// The run is the configuration projected onto the items its book reads
/// and one engine over that projection, on the calling thread; the
/// per-item metrics come back at the universe's ids.
///
/// After the run, `obs.snapshot()` holds what the run recorded: the
/// recomputation, evaluation, scheduler and audit counters and the
/// GP-solver timings (`gp.solve_ns`) of every solve; per-query and
/// per-item attribution is in the returned [`SimMetrics`] and on the
/// emitted events. A pass of the fidelity audit that flags a divergence
/// dumps the handle's flight recorder, if it carries one (at most once a
/// tick).
pub fn run_observed(config: &SimConfig, obs: &Obs) -> Result<SimMetrics, SimError> {
    let (world, scope) = project(config)?;
    let mut metrics = Engine::new(&world, obs.clone(), scope.clone())?.run()?;
    // Per-item columns back to universe size, at global ids.
    for column in [
        &mut metrics.per_item_refreshes,
        &mut metrics.per_item_recompute_triggers,
    ] {
        let mut global = vec![0; config.traces.n_items()];
        for (item, &count) in column.iter().enumerate() {
            global[scope.item(item)] = count;
        }
        *column = global;
    }
    Ok(metrics)
}

/// Checks `cfg` and projects it onto the items its book reads: the
/// configuration the engine is built from, and the [`Scope`] holding its
/// local → global item table.
///
/// A source holds a filter only because some query reads its item, so
/// the run keeps only the read items, renumbered densely in ascending
/// order: the engine is sized by what it watches and sweeps all of it,
/// whatever the universe around it. What stays global is what leaves the
/// engine — labels, events, errors and the key of each item's draw
/// stream — through its [`Scope`]. When every item is read `cfg` runs as
/// it is — no copy of the book — and the table is empty, which [`Scope`]
/// reads as the identity.
fn project(cfg: &SimConfig) -> Result<(Cow<'_, SimConfig>, Scope), SimError> {
    // `NaN` fails the range test too.
    if !(0.0..=1.0).contains(&cfg.loss_probability) {
        return Err(SimError::BadLossProbability {
            value: cfg.loss_probability,
        });
    }
    let d = &cfg.delays;
    for (name, value) in [
        ("node_to_node", d.node_to_node),
        ("coordinator_check", d.coordinator_check),
        ("recompute_service", d.recompute_service),
    ] {
        if !value.is_valid() {
            return Err(SimError::BadDelay { name, value });
        }
    }
    let n_items = cfg.traces.n_items();
    let items = read_items(&cfg.traces, &cfg.queries)?;
    if items.len() == n_items {
        return Ok((Cow::Borrowed(cfg), Scope::default()));
    }
    let mut local_of = vec![u32::MAX; n_items];
    for (local, &global) in items.iter().enumerate() {
        local_of[global as usize] = local as u32;
    }
    // Field by field, not `cfg.clone()`: that would copy the whole book
    // and every tape handle only to replace both.
    let projected = SimConfig {
        traces: cfg.traces.subset(&items),
        queries: (cfg.queries.iter())
            .map(|q| q.map_items(|i| ItemId(local_of[i.index()])))
            .collect(),
        strategy: cfg.strategy.clone(),
        coordinators: cfg.coordinators,
        ddm: cfg.ddm,
        rate_estimator: cfg.rate_estimator,
        delays: cfg.delays,
        mu_cost: cfg.mu_cost,
        seed: cfg.seed,
        shards: 1,
        loss_probability: cfg.loss_probability,
        gp: cfg.gp.clone(),
        threads: 1,
        audit: cfg.audit.clone(),
        audit_fault: cfg.audit_fault,
    };
    let scope = Scope {
        item_gid: items,
        ..Scope::default()
    };
    Ok((Cow::Owned(projected), scope))
}

/// The world around the coordinators: sources replaying the tape through
/// their filters, the network between them, each coordinator's service
/// queue, and the fidelity sampler watching both sides. A coordinator
/// itself is [`Coordinator`]; the engine moves refreshes into it and
/// turns each [`pq_core::Outcome`] into messages, RNG draws and
/// [`SimMetrics`].
///
/// An engine is as large as what it watches: `cfg` is a projection
/// ([`run_observed`]) holding exactly the items its queries read, under
/// dense local ids. Every column here is indexed by those
/// ids and every local item is swept and filtered; global ids appear
/// only in what leaves the engine (events, span labels, errors, draw
/// keys), through each coordinator's [`Scope`].
pub(crate) struct Engine<'a> {
    cfg: &'a SimConfig,
    /// The coordinators, root first; node `c`'s children are `2c + 1`
    /// and `2c + 2`.
    nodes: Vec<Node<'a>>,
    /// Structure-of-arrays source-side state: last-pushed values and
    /// installed DABs as flat columns (a source's value is its sample in
    /// the tick's played row).
    items: ItemTable,
    /// The items whose sample escaped their filter on the tick being
    /// swept (reused across ticks).
    escaped: Vec<u32>,
    queue: TimerWheel,
    draws: ItemDraws,
    metrics: SimMetrics,
    /// Telemetry handle (each coordinator holds a clone).
    obs: Obs,
    /// Full evaluations of the source-side truth (`eval.full`; the
    /// coordinators count their own rebases under the same name).
    c_eval_full: Arc<Counter>,
    /// Scheduler counters: events pushed into / popped from the queue.
    c_sched_push: Arc<Counter>,
    c_sched_pop: Arc<Counter>,
    /// Test tap: the sweep to run and every event the queue released.
    #[cfg(test)]
    probe: tests::SweepProbe,
}

/// One coordinator of the run and what the engine keeps beside it.
struct Node<'a> {
    /// Its item values, maintained query values, assignments and the
    /// filters it last derived.
    core: Coordinator,
    /// Its queries: the book, or the node's round-robin share of it.
    book: Cow<'a, [PolynomialQuery]>,
    /// Busy checking queries or re-solving DABs until this time;
    /// refreshes arriving earlier wait in `deferred`, FIFO, and are
    /// drained at `busy_until` (a side buffer instead of re-pushing into
    /// the queue, which churned it and subtly reordered same-time
    /// arrivals).
    busy_until: f64,
    deferred: VecDeque<(usize, f64)>,
    /// Per item, the value last forwarded to this node (unused at the
    /// root: a source keeps its own).
    delivered: Vec<f64>,
    /// Per item, the tightest filter of this node's subtree.
    need: Vec<f64>,
    /// Per item, the refreshes this node ingested.
    refreshes: Vec<u64>,
    /// Continuous fidelity audit (shadow naive evaluation) of its
    /// queries; present only when configured.
    auditor: Option<FidelityAuditor>,
}

/// The children of node `c` in a tree of `n`.
fn children(c: usize, n: usize) -> std::ops::Range<usize> {
    2 * c + 1..(2 * c + 3).min(n)
}

/// The items `queries` read, ascending, once each is known to have a
/// trace whose every sample is finite and non-negative: the first that
/// has none is [`SimError::MissingTrace`], the first bad sample (in
/// item, then tick order) [`SimError::BadSample`]. Each trace noted its
/// first bad sample when it was built, so this reads one field per item.
fn read_items(traces: &TraceSet, queries: &[PolynomialQuery]) -> Result<Vec<u32>, SimError> {
    let n_items = traces.n_items();
    let mut read = vec![false; n_items];
    for q in queries {
        // Ascending: the last one is the query's largest.
        let items = q.items();
        if let Some(item) = items.last().map(|i| i.index()).filter(|&i| i >= n_items) {
            return Err(SimError::MissingTrace { item });
        }
        for item in items {
            read[item.index()] = true;
        }
    }
    let items: Vec<u32> = (0..n_items as u32).filter(|&i| read[i as usize]).collect();
    for &item in &items {
        if let Some(tick) = traces.trace(item as usize).first_bad_sample() {
            let item = item as usize;
            return Err(SimError::BadSample { item, tick });
        }
    }
    Ok(items)
}

/// Values (rows plus truths) in a full block of the played tape.
const BLOCK_VALUES: usize = 32 * 1024;

/// The blocks ticks `1..n_ticks` are played in: 1, 2, 4, … ticks, then
/// `full` ticks each, so the first tick waits for one tick's work.
fn tape_blocks(n_ticks: usize, full: usize) -> Vec<Range<usize>> {
    let (mut blocks, mut start, mut len) = (Vec::new(), 1, 1);
    while start < n_ticks {
        let end = (start + len).min(n_ticks);
        blocks.push(start..end);
        (start, len) = (end, (2 * len).min(full));
    }
    blocks
}

/// Ticks `ticks` of the played tape with their source rows
/// (`[tick][item]`) and truths (`[tick][query]`).
struct TapeBlock {
    ticks: Range<usize>,
    rows: Vec<f64>,
    truths: Vec<f64>,
    /// Ticks of the block whose truth was evaluated, not carried.
    evaluated: u64,
}

/// Plays the tape ahead of the tick loop: the sources' values at tick
/// `t` are exactly tape row `t`, so the rows and the query values at
/// them are a pure function of the tape and the book.
struct TapePlayer<'a> {
    traces: &'a TraceSet,
    /// Each node's plan, root first: a truth row is their query values
    /// end to end.
    plans: Vec<Arc<SharedPlan>>,
    /// The last row played, and the truth at it.
    row: Vec<f64>,
    truth: Vec<f64>,
    /// Monomial and query-value scratch of a plan's full evaluation.
    scratch: Vec<f64>,
    part: Vec<f64>,
}

impl TapePlayer<'_> {
    /// Fills `block` with `ticks`: each row gathered from the traces, each
    /// truth evaluated in full when the row moved (`!=`), else carried.
    fn play(&mut self, ticks: Range<usize>, block: &mut TapeBlock) {
        let (n_items, n_queries) = (self.row.len(), self.truth.len());
        let rows = &mut block.rows[..ticks.len() * n_items];
        for (item, trace) in self.traces.traces().iter().enumerate() {
            for (k, &v) in trace.values()[ticks.clone()].iter().enumerate() {
                rows[k * n_items + item] = v;
            }
        }
        block.evaluated = 0;
        for k in 0..ticks.len() {
            let row = &rows[k * n_items..][..n_items];
            if row != self.row {
                self.row.copy_from_slice(row);
                let mut at = 0;
                for plan in &self.plans {
                    plan.full_eval_into(row, &mut self.scratch, &mut self.part);
                    self.truth[at..][..self.part.len()].copy_from_slice(&self.part);
                    at += self.part.len();
                }
                block.evaluated += 1;
            }
            block.truths[k * n_queries..][..n_queries].copy_from_slice(&self.truth);
        }
        block.ticks = ticks;
    }
}

impl<'a> Engine<'a> {
    /// Builds the engine of the coordinators over `cfg`, a projection
    /// whose every item is watched (checked by [`project`], which builds
    /// it): `scope` maps its dense local ids to the run's global ones.
    pub(crate) fn new(cfg: &'a SimConfig, obs: Obs, scope: Scope) -> Result<Self, SimError> {
        let n_items = cfg.traces.n_items();
        let source_values = cfg.traces.initial_values();
        // Draw streams are keyed by *global* ids, so an item draws the
        // same whether or not the run is projected.
        let draws = ItemDraws::new(cfg.seed, (0..n_items).map(|i| scope.item(i)));
        let rates = cfg.rate_estimator.estimate_all(&cfg.traces);
        let n = cfg.coordinators.get();
        let (mut nodes, mut solve_ns) = (Vec::with_capacity(n), 0);
        for c in 0..n {
            // One coordinator serves the book; a tree node its share,
            // naming each query by its index in the book.
            let (book, scope) = if n == 1 {
                (Cow::Borrowed(&cfg.queries[..]), scope.clone())
            } else {
                let gids: Vec<u32> = (c..cfg.queries.len())
                    .step_by(n)
                    .map(|q| q as u32)
                    .collect();
                let book = gids
                    .iter()
                    .map(|&q| cfg.queries[q as usize].clone())
                    .collect();
                let node = Some(c as u32);
                let scope = Scope {
                    query_gid: gids,
                    node,
                    ..scope.clone()
                };
                (Cow::Owned(book), scope)
            };
            // Coordinators and sources agree at t = 0 (steady-state
            // start, §V-A): each coordinator is installed at the sources'
            // values and its first filters are in place before the first
            // tick.
            let core_cfg = Config {
                rates: rates.clone(),
                ddm: cfg.ddm,
                gp: cfg.gp.clone(),
                obs: obs.clone(),
                scope: scope.clone(),
            };
            let values = source_values.clone();
            let core = match &cfg.strategy {
                SimStrategy::PerQuery {
                    strategy,
                    heuristic,
                } => {
                    let core = Coordinator::install(&book, *strategy, *heuristic, values, core_cfg)
                        .map_err(solve_error(&scope))?;
                    solve_ns += core.install_ns();
                    core
                }
                SimStrategy::AaoPeriodic { mu, .. } => {
                    let started = Instant::now();
                    let ctx = SolveContext {
                        values: &values,
                        rates: &core_cfg.rates,
                        ddm: cfg.ddm,
                        gp: cfg.gp.clone().observed_by(&obs),
                    };
                    let joint = aao(&book, &ctx, *mu)
                        .map_err(|source| SimError::Aao { source })?
                        .per_query;
                    solve_ns += started.elapsed().as_nanos() as u64;
                    // Between periods a stale query is re-solved on its
                    // own with Dual-DAB (§V-B.1).
                    let strategy = AssignmentStrategy::DualDab { mu: *mu };
                    Coordinator::with_assignments(&book, strategy, &joint, values, core_cfg)
                        .map_err(|source| SimError::Refresh { source })?
                }
            };
            nodes.push(Node {
                core,
                book,
                busy_until: 0.0,
                deferred: VecDeque::new(),
                delivered: source_values.clone(),
                need: vec![f64::INFINITY; n_items],
                refreshes: vec![0; n_items],
                auditor: (cfg.audit.as_ref()).map(|a| FidelityAuditor::new(a.clone(), &obs)),
            });
        }
        // Each subtree's need, leaves first: the sources filter against
        // the root's.
        for c in (0..n).rev() {
            for item in 0..n_items {
                nodes[c].need[item] = subtree_need(&nodes, c, item, nodes[c].core.filter(item));
            }
        }
        let mut items = ItemTable::new(&source_values);
        for item in 0..n_items {
            items.set_installed_dab(item, nodes[0].need[item]);
        }
        let mut engine = Engine {
            cfg,
            nodes,
            items,
            escaped: Vec::new(),
            queue: TimerWheel::new(),
            draws,
            metrics: SimMetrics::with_items(cfg.queries.len(), n_items),
            c_eval_full: obs.counter(names::EVAL_FULL),
            c_sched_push: obs.counter(names::SCHED_PUSH),
            c_sched_pop: obs.counter(names::SCHED_POP),
            obs,
            #[cfg(test)]
            probe: tests::SweepProbe::default(),
        };
        engine.note_solver_ns(solve_ns);
        Ok(engine)
    }

    /// Accounts `ns` of solver wall-clock into the metrics.
    fn note_solver_ns(&mut self, ns: u64) {
        self.metrics.solver_seconds += ns as f64 / 1e9;
    }

    pub(crate) fn run(mut self) -> Result<SimMetrics, SimError> {
        let cfg = self.cfg;
        let full = BLOCK_VALUES / (cfg.traces.n_items() + cfg.queries.len()).max(1);
        self.play(available_cores() > 1, full.clamp(1, cfg.traces.n_ticks()))?;
        self.note_refreshes();
        self.obs.flush();
        Ok(self.metrics)
    }

    /// Folds each node's per-item refresh counts into the metrics, and
    /// writes one `sim.refresh` count per item the node ingested.
    fn note_refreshes(&mut self) {
        for node in &self.nodes {
            let scope = node.core.scope();
            for (item, &n) in node.refreshes.iter().enumerate().filter(|&(_, &n)| n > 0) {
                self.metrics.per_item_refreshes[item] += n;
                self.obs
                    .emit_with(names::SIM_REFRESH, EventKind::Count, |e| {
                        let e = match scope.node {
                            Some(node) => e.with("node", node),
                            None => e,
                        };
                        e.with("item", scope.item(item)).with("refreshes", n)
                    });
            }
        }
    }

    /// Runs every tick of the tape, played in blocks of at most `full`
    /// ticks by a [`TapePlayer`] on a read-ahead worker (`ahead`) or
    /// inline, from the initial row and the coordinators' seeding
    /// evaluations (the truth before tick 1).
    fn play(&mut self, ahead: bool, full: usize) -> Result<(), SimError> {
        let cfg = self.cfg;
        let (n_items, n_queries) = (cfg.traces.n_items(), cfg.queries.len());
        let mut player = TapePlayer {
            traces: &cfg.traces,
            plans: self.nodes.iter().map(|n| n.core.plan().clone()).collect(),
            row: cfg.traces.initial_values(),
            truth: (self.nodes.iter())
                .flat_map(|n| n.core.query_values())
                .copied()
                .collect(),
            scratch: Vec::new(),
            part: Vec::new(),
        };
        let blocks = tape_blocks(cfg.traces.n_ticks(), full);
        let mut buffers: Vec<TapeBlock> = (0..3)
            .map(|_| TapeBlock {
                ticks: 0..0,
                rows: vec![0.0; full * n_items],
                truths: vec![0.0; full * n_queries],
                evaluated: 0,
            })
            .collect();
        let played = read_ahead(
            ahead,
            &mut buffers,
            blocks.len(),
            |b, block| player.play(blocks[b].clone(), block),
            |_, block| {
                self.c_eval_full.add(block.evaluated * n_queries as u64);
                for (k, tick) in block.ticks.clone().enumerate() {
                    let row = &block.rows[k * n_items..][..n_items];
                    let truth = &block.truths[k * n_queries..][..n_queries];
                    self.run_tick(tick, row, truth)?;
                }
                Ok(())
            },
        );
        #[cfg(test)]
        {
            self.probe.played_to = buffers.iter().map(|b| b.ticks.end).max();
        }
        played
    }

    /// One simulated second: sources sample `row` and push, everything
    /// due is delivered, then the samplers compare each coordinator's
    /// view with its queries' part of `truth`, the query values at `row`.
    fn run_tick(&mut self, tick: usize, row: &[f64], truth: &[f64]) -> Result<(), SimError> {
        #[cfg(test)]
        if let Some(truths) = &mut self.probe.truths {
            truths.extend_from_slice(truth);
        }
        let now = tick as f64;
        // AAO-T periodic joint recomputation, node by node.
        if let SimStrategy::AaoPeriodic { period_ticks, mu } = &self.cfg.strategy {
            if *period_ticks > 0 && tick.is_multiple_of(*period_ticks) {
                for c in 0..self.nodes.len() {
                    self.periodic_aao(c, now, *mu)?;
                }
            }
        }
        self.sweep(tick, now, row);
        self.deliver_due(now, row)?;
        self.metrics.fidelity_samples += 1;
        let (n, mut truth, mut divergences) = (self.nodes.len(), truth, 0);
        for (c, node) in self.nodes.iter_mut().enumerate() {
            let mine;
            (mine, truth) = truth.split_at(node.book.len());
            // Fidelity sample: truth, coordinator view and QABs as three
            // columns.
            let columns = mine.iter().zip(node.core.query_values());
            for (qi, ((&truth, &cached), &qab)) in columns.zip(node.core.qabs()).enumerate() {
                if (truth - cached).abs() > qab {
                    let query = node.core.scope().query(qi);
                    self.metrics.per_query_violations[query] += 1;
                    self.obs
                        .emit_with(names::SIM_QAB_VIOLATION, EventKind::Point, |e| {
                            e.with("query", query)
                                .with("tick", tick)
                                .with("truth", truth)
                                .with("cached", cached)
                        });
                }
            }
            // Continuous fidelity audit: read-only shadow evaluation of
            // the delta plane, preceded by the test-only fault hook — the
            // coordinator view is the only maintained plane there is to
            // corrupt.
            if let Some(fault) = &self.cfg.audit_fault {
                if fault.tick == tick && fault.query % n == c {
                    node.core
                        .corrupt_query_value(fault.query / n, fault.perturb);
                }
            }
            if let Some(auditor) = &mut node.auditor {
                divergences += auditor.on_tick(tick, &node.book, row, mine, &node.core, &self.obs);
            }
        }
        // A pass that flagged a divergence dumps the flight recorder, if
        // the handle carries one: at most one dump a tick.
        if divergences > 0 {
            if let Some(recorder) = self.obs.recorder() {
                let _ = recorder.trigger(names::AUDIT_DIVERGENCE);
            }
        }
        Ok(())
    }

    /// Sources observe `tick`'s samples `row` and push the ones that
    /// escaped their filter, in two passes: [`ItemTable::observe`] over
    /// the dense columns, then one push per escaped item, ascending. A
    /// push touches its own item's columns and draw stream only, so no
    /// push changes whether or what a later item pushes: the pushes, each
    /// item's draw order and the queue insertions are those of a loop
    /// that filters and pushes item by item ([`Engine::sweep_interleaved`]
    /// holds it to that). No query value is touched here: the source-side
    /// truth comes with the row.
    fn sweep(&mut self, tick: usize, now: f64, row: &[f64]) {
        #[cfg(test)]
        if self.probe.interleaved {
            return self.sweep_interleaved(now, row);
        }
        for (item, v) in row.iter().enumerate() {
            debug_assert_eq!(
                v.to_bits(),
                self.cfg.traces.trace(item).at(tick).to_bits(),
                "played row and trace disagree on x{item} at tick {tick}"
            );
        }
        self.items.observe(row, &mut self.escaped);
        let escaped = std::mem::take(&mut self.escaped);
        for &item in &escaped {
            self.push(item as usize, now, row[item as usize]);
        }
        self.escaped = escaped;
    }

    /// The next queued event due by `now`, if any.
    fn pop_due(&mut self, now: f64) -> Option<(f64, Event)> {
        let popped = self.queue.pop_until(now);
        if popped.is_some() {
            self.c_sched_pop.inc();
        }
        #[cfg(test)]
        self.probe.released.extend(popped.clone());
        popped
    }

    /// Delivers everything due by `now`, with the sources at `row`:
    /// queued events in time order, interleaved with busy-deferred
    /// refreshes, each started the moment its node frees up (the lowest
    /// node first on a tie; queued events win ties, matching the arrival
    /// order a re-push would have produced).
    fn deliver_due(&mut self, now: f64, row: &[f64]) -> Result<(), SimError> {
        loop {
            let waiting = (self.nodes.iter().enumerate())
                .filter(|(_, node)| !node.deferred.is_empty())
                .map(|(c, node)| (node.busy_until, c))
                .min_by(|a, b| a.0.total_cmp(&b.0));
            if let Some((t, c)) = waiting {
                if t <= now && self.queue.peek_time().is_none_or(|queued| queued > t) {
                    let (item, value) = self.nodes[c].deferred.pop_front().expect("non-empty");
                    self.ingest(c, item, value, t)?;
                    continue;
                }
            }
            let Some((t, event)) = self.pop_due(now) else {
                return Ok(());
            };
            let (c, item, value) = match event {
                Event::RefreshArrive { item, value } => (0, item, value),
                Event::Forward { node, item, value } => (node, item, value),
                Event::DabChangeArrive { item, dab } => {
                    self.items.set_installed_dab(item, dab);
                    self.maybe_push(item, t, row[item]);
                    continue;
                }
            };
            // Queueing at the node: wait until it is free, then occupy
            // it for the processing time.
            if self.nodes[c].busy_until > t {
                self.nodes[c].deferred.push_back((item, value));
                continue;
            }
            self.ingest(c, item, value, t)?;
        }
    }

    /// Source-side filter: push when `item`'s value `v` escapes the
    /// installed DAB (nothing escapes an infinite one).
    fn maybe_push(&mut self, item: usize, now: f64, v: f64) {
        let drift = v - self.items.last_pushed(item);
        if drift.abs() > self.items.installed_dab(item) {
            self.push(item, now, v);
        }
    }

    /// `item`'s source pushes its current value `v` toward the root.
    fn push(&mut self, item: usize, now: f64, v: f64) {
        self.items.set_last_pushed(item, v);
        self.send(item, now, Event::RefreshArrive { item, value: v });
    }

    /// Sends `event`, a message about `item`, over the network: it is
    /// lost with [`SimConfig::loss_probability`] (failure injection; no
    /// draw when loss is off), else queued after a `node_to_node` delay.
    /// Both draws run on `item`'s stream.
    fn send(&mut self, item: usize, now: f64, event: Event) {
        let p = self.cfg.loss_probability;
        if p > 0.0 && self.draws.uniform(item) < p {
            self.metrics.lost_messages += 1;
            return;
        }
        let delay = self.draws.pareto(&self.cfg.delays.node_to_node, item);
        self.c_sched_push.inc();
        self.queue.push(now + delay, event);
    }

    /// One refresh arriving at node `c`: it is counted, the coordinator
    /// moves the value and reacts to it, then the node forwards it down
    /// the tree.
    fn ingest(&mut self, c: usize, item: usize, value: f64, now: f64) -> Result<(), SimError> {
        self.metrics.refreshes += 1;
        self.nodes[c].refreshes[item] += 1;
        self.nodes[c]
            .core
            .apply(item, value)
            .map_err(|source| SimError::Refresh { source })?;
        self.react(c, item, now)?;
        self.forward(c, item, value, now);
        Ok(())
    }

    /// Post-apply half of a refresh at node `c`: the coordinator reacts,
    /// and what it did becomes metrics, need changes and the
    /// node-occupancy accounting.
    fn react(&mut self, c: usize, item: usize, now: f64) -> Result<(), SimError> {
        // One query-check service charge per refresh (the paper's 4 ms
        // mean covers processing an arriving refresh, §V-A).
        let mut service = self.draws.pareto(&self.cfg.delays.coordinator_check, item);
        let core = &mut self.nodes[c].core;
        let outcome = core
            .react(item, Some(now))
            .map_err(solve_error(core.scope()))?;
        let scope = self.nodes[c].core.scope();
        self.metrics.user_notifications += outcome.notify.len() as u64;
        self.metrics.reanchors += outcome.reanchored.len() as u64;
        if !outcome.recomputed.is_empty() {
            let recomputed = outcome.recomputed.iter().map(|q| scope.query(q.index()));
            note_recomputations(&mut self.metrics, recomputed);
            self.note_solver_ns(outcome.solve_ns);
            self.metrics.per_item_recompute_triggers[item] += 1;
            // DAB-change messages are scheduled from the processing
            // start — a slight idealization.
            self.ship_filter_changes(c, &outcome.filter_changes, now);
            // Occupy the node: the per-query checks plus one solver run
            // per re-solved unit.
            for _ in &outcome.recomputed {
                service += self.draws.pareto(&self.cfg.delays.recompute_service, item);
            }
        }
        self.nodes[c].busy_until = now + service;
        Ok(())
    }

    /// Node `c` forwards `item`'s new `value` to each child whose
    /// subtree needs it.
    fn forward(&mut self, c: usize, item: usize, value: f64, now: f64) {
        for k in children(c, self.nodes.len()) {
            self.forward_to(k, item, value, now);
        }
    }

    /// Node `k`'s parent sends it `value` of `item` if that moved past
    /// the edge's filter since the value last sent there. The filter is
    /// the child's need less the parent's: the parent's own value may be
    /// off the source's by up to its need, so the child's stays within
    /// its own (the coherency-preserving rule of Shah et al., TKDE'04).
    /// An infinite need ships nothing (`∞ − ∞` is NaN).
    fn forward_to(&mut self, k: usize, item: usize, value: f64, now: f64) {
        let filter = self.nodes[k].need[item] - self.nodes[(k - 1) / 2].need[item];
        let child = &mut self.nodes[k];
        if (value - child.delivered[item]).abs() > filter {
            child.delivered[item] = value;
            self.send(
                item,
                now,
                Event::Forward {
                    node: k,
                    item,
                    value,
                },
            );
        }
    }

    /// Folds node `c`'s filter changes, in order, into the needs up its
    /// chain, at once; re-checks every edge of the tree against them, as
    /// a source re-checks its filter when a DAB change lands; and ships
    /// each move of the root's need to its source over the lossy,
    /// delayed network.
    fn ship_filter_changes(&mut self, c: usize, changes: &[(ItemId, f64)], now: f64) {
        for &(item, mut own) in changes {
            let item = item.index();
            let before = self.nodes[0].need[item];
            let mut node = c;
            loop {
                self.nodes[node].need[item] = subtree_need(&self.nodes, node, item, own);
                if node == 0 {
                    break;
                }
                node = (node - 1) / 2;
                own = self.nodes[node].core.filter(item);
            }
            for k in 1..self.nodes.len() {
                let value = self.nodes[(k - 1) / 2].core.values()[item];
                self.forward_to(k, item, value, now);
            }
            let dab = self.nodes[0].need[item];
            if dab == before {
                continue;
            }
            self.metrics.dab_change_messages += 1;
            self.send(item, now, Event::DabChangeArrive { item, dab });
        }
    }

    /// Node `c`'s joint AAO re-solve of its whole share of the book.
    fn periodic_aao(&mut self, c: usize, now: f64, mu: f64) -> Result<(), SimError> {
        let started = Instant::now();
        let node = &mut self.nodes[c];
        let joint = aao(&node.book, &node.core.solve_context(), mu)
            .map_err(|source| SimError::Aao { source })?;
        self.metrics.solver_seconds += started.elapsed().as_nanos() as f64 / 1e9;
        // Every query's DABs were recomputed (counted per query, as the
        // paper does for the AAO-T curves).
        node.core
            .install_joint(&joint.per_query, "aao-periodic", Some(now));
        let scope = node.core.scope();
        note_recomputations(
            &mut self.metrics,
            (0..node.book.len()).map(|q| scope.query(q)),
        );
        let changes = node.core.rederive(0..self.cfg.traces.n_items());
        self.ship_filter_changes(c, &changes, now);
        Ok(())
    }
}

/// Node `c`'s need for `item` when its own filter is `own`: the
/// tightest of it and its children's needs.
fn subtree_need(nodes: &[Node<'_>], c: usize, item: usize, own: f64) -> f64 {
    children(c, nodes.len()).fold(own, |m, k| m.min(nodes[k].need[item]))
}

/// Counts one recomputation per entry of `queries` (book indices).
fn note_recomputations(metrics: &mut SimMetrics, queries: impl Iterator<Item = usize>) {
    for qi in queries {
        metrics.recomputations += 1;
        metrics.per_query_recomputations[qi] += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::delay::Pareto;
    use pq_ddm::Trace;
    use pq_poly::ItemId;

    fn x(i: u32) -> ItemId {
        ItemId(i)
    }

    impl Engine<'_> {
        /// The loop [`Engine::sweep`] replaces, kept as its oracle: each
        /// item samples, filters and pushes before the next one samples.
        pub(super) fn sweep_interleaved(&mut self, now: f64, row: &[f64]) {
            for (item, &v) in row.iter().enumerate() {
                self.maybe_push(item, now, v);
            }
        }
    }

    /// Test tap on an engine ([`Engine::sweep`], [`Engine::pop_due`],
    /// [`Engine::run_tick`], [`Engine::play`]).
    #[derive(Default)]
    pub(super) struct SweepProbe {
        /// Run [`Engine::sweep_interleaved`] in place of the two passes.
        pub(super) interleaved: bool,
        /// Every event the queue released since this was last emptied.
        pub(super) released: Vec<(f64, Event)>,
        /// When set, every tick's truth is appended here.
        pub(super) truths: Option<Vec<f64>>,
        /// The end of the last block the player played.
        pub(super) played_to: Option<usize>,
    }

    /// The source-side truth at `row`, evaluated inline.
    fn inline_truth(engine: &Engine<'_>, row: &[f64]) -> Vec<f64> {
        let (mut scratch, mut truth) = (Vec::new(), Vec::new());
        engine.nodes[0]
            .core
            .plan()
            .full_eval_into(row, &mut scratch, &mut truth);
        truth
    }

    /// Block caps around every boundary of a 160-tick tape: one tick a
    /// block, two, a count that leaves a short last block, and more than
    /// the tape.
    const BLOCK_CAPS: [usize; 4] = [1, 2, 7, 200];

    /// Three items that hold still for stretches of the tape, under two
    /// queries that read all three.
    fn stretches_config() -> SimConfig {
        let n_ticks = 160;
        let moving = |center: f64, period: f64, still: &[Range<usize>]| {
            let mut v = Trace::sinusoid(center, 3.0, period, n_ticks)
                .values()
                .to_vec();
            for r in still {
                let held = v[r.start - 1];
                v[r.clone()].fill(held);
            }
            Trace::from_values(v)
        };
        let traces = TraceSet::new(vec![
            moving(20.0, 90.0, &[10..40, 100..130]),
            moving(10.0, 70.0, &[20..45, 90..140]),
            moving(15.0, 80.0, &[5..50, 95..125]),
        ]);
        let queries = vec![
            PolynomialQuery::portfolio([(1.0, x(0), x(1))], 6.0).unwrap(),
            PolynomialQuery::portfolio([(1.0, x(1), x(2))], 6.0).unwrap(),
        ];
        let mut cfg = SimConfig::new(traces, queries);
        cfg.rate_estimator = RateEstimator::SampledAverage { interval_ticks: 20 };
        cfg
    }

    /// The played truth is the inline evaluation at each tick's row, bit
    /// for bit, at every block cap, on the worker and inline; a tick on
    /// which no item moved is carried, not evaluated, so `eval.full`
    /// counts the moving ticks only.
    #[test]
    fn the_played_truth_is_the_inline_evaluation_at_every_tick() {
        let cfg = stretches_config();
        let n_ticks = cfg.traces.n_ticks();
        let moved = (1..n_ticks)
            .filter(|&t| cfg.traces.values_at(t) != cfg.traces.values_at(t - 1))
            .count() as u64;
        assert!(0 < moved && moved < 120, "{moved} moving ticks");
        for ahead in [false, true] {
            for cap in BLOCK_CAPS {
                let obs = Obs::null();
                let mut engine = Engine::new(&cfg, obs.clone(), Scope::default()).unwrap();
                engine.probe.truths = Some(Vec::new());
                engine.play(ahead, cap).unwrap();
                let truths = engine.probe.truths.take().unwrap();
                assert_eq!(truths.len(), 2 * (n_ticks - 1), "ahead {ahead}, cap {cap}");
                for (tick, got) in (1..n_ticks).zip(truths.chunks_exact(2)) {
                    let want = inline_truth(&engine, &cfg.traces.values_at(tick));
                    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                    assert_eq!(
                        bits(got),
                        bits(&want),
                        "ahead {ahead}, cap {cap}, tick {tick}"
                    );
                }
                let snap = obs.snapshot();
                let rebases = snap.counters[names::EVAL_REBASE];
                assert_eq!(
                    snap.counters[names::EVAL_FULL],
                    2 * (1 + rebases + moved),
                    "ahead {ahead}, cap {cap}"
                );
                assert_eq!(engine.probe.played_to, Some(n_ticks));
            }
        }
    }

    /// An engine with no item (a book of constants) or no query plays
    /// empty rows or empty truths, and still samples every tick.
    #[test]
    fn an_engine_with_no_item_or_no_query_samples_every_tick() {
        let constant = |c: f64| {
            let poly = pq_poly::Polynomial::from_terms([pq_poly::PTerm::constant(c).unwrap()]);
            PolynomialQuery::new(poly, 1.0).unwrap()
        };
        let no_item = SimConfig::new(
            TraceSet::stock_universe(3, 50, 7).subset(&[]),
            vec![constant(3.0), constant(0.5)],
        );
        let no_query = SimConfig::new(TraceSet::stock_universe(3, 50, 7), Vec::new());
        for cfg in [no_item, no_query] {
            for ahead in [false, true] {
                for cap in BLOCK_CAPS {
                    let mut engine = Engine::new(&cfg, Obs::null(), Scope::default()).unwrap();
                    engine.play(ahead, cap).unwrap();
                    let case = format!("{} items, ahead {ahead}, cap {cap}", cfg.traces.n_items());
                    assert_eq!(engine.metrics.fidelity_samples, 49, "{case}");
                    assert_eq!(engine.metrics.refreshes, 0, "{case}");
                }
            }
        }
    }

    /// A refresh the coordinator refuses mid-tape ends the run with its
    /// error on that tick, and the player stops within the three blocks
    /// it may hold instead of playing the rest of the tape.
    #[test]
    fn a_run_that_fails_mid_tape_returns_its_error_promptly() {
        let traces = TraceSet::new(vec![
            Trace::sinusoid(20.0, 3.0, 400.0, 20_000),
            Trace::sinusoid(10.0, 2.0, 300.0, 20_000),
        ]);
        let queries = vec![PolynomialQuery::portfolio([(1.0, x(0), x(1))], 8.0).unwrap()];
        let cfg = SimConfig::new(traces, queries);
        for ahead in [false, true] {
            let mut engine = Engine::new(&cfg, Obs::null(), Scope::default()).unwrap();
            let poisoned = Event::RefreshArrive {
                item: 1,
                value: f64::NAN,
            };
            engine.queue.push(100.5, poisoned);
            let err = engine.play(ahead, 16).unwrap_err();
            assert!(
                matches!(
                    err,
                    SimError::Refresh {
                        source: DabError::NonFiniteValue { item: 1, .. }
                    }
                ),
                "{err:?}"
            );
            assert_eq!(engine.metrics.fidelity_samples, 100, "ahead {ahead}");
            let played = engine.probe.played_to.unwrap();
            assert!(
                played <= 101 + 3 * 16,
                "ahead {ahead}: played to tick {played}"
            );
        }
    }

    #[test]
    fn the_two_pass_sweep_releases_the_events_of_the_interleaved_loop() {
        use pq_workload::{WorkloadConfig, WorkloadGen};
        // Overlapping legs under tight bounds: several items escape on
        // one tick and a refresh of one re-filters others (at 0.05 % of
        // the value every Dual-DAB unit that breaks only re-anchors).
        let (n_items, seed) = (24, 0x1CDE_2008);
        let traces = TraceSet::stock_universe(n_items, 300, seed);
        let workload = WorkloadConfig {
            n_items,
            legs: 3..=4,
            ppq_qab_fraction: 0.0002,
            ..WorkloadConfig::default()
        };
        let queries = WorkloadGen::with_config(workload, seed)
            .portfolio_queries(12, &traces.initial_values());
        let mut lossy_service_free = SimConfig::new(traces, queries);
        lossy_service_free.loss_probability = 0.1;
        lossy_service_free.delays = DelayConfig {
            node_to_node: Pareto::with_mean(0.110),
            ..DelayConfig::zero()
        };
        let mut planetlab = lossy_service_free.clone();
        planetlab.loss_probability = 0.0;
        planetlab.delays = DelayConfig::planetlab_like();
        // Recomputing on every refresh keeps filter changes in flight.
        planetlab.strategy = optimal();
        // Bit patterns: a released event is (time, kind, item, payload).
        let bits = |released: &mut Vec<(f64, Event)>| -> Vec<(u64, u8, usize, u64)> {
            let bits = |(t, event): (f64, Event)| match event {
                Event::RefreshArrive { item, value } => (t.to_bits(), 0, item, value.to_bits()),
                Event::DabChangeArrive { item, dab } => (t.to_bits(), 1, item, dab.to_bits()),
                Event::Forward { .. } => unreachable!("one coordinator forwards nothing"),
            };
            std::mem::take(released).into_iter().map(bits).collect()
        };
        for cfg in [lossy_service_free, planetlab] {
            let build = || Engine::new(&cfg, Obs::null(), Scope::default()).unwrap();
            let (mut two_pass, mut oracle) = (build(), build());
            oracle.probe.interleaved = true;
            let (mut refreshes, mut dab_changes) = (0, 0);
            for tick in 1..cfg.traces.n_ticks() {
                let row = cfg.traces.values_at(tick);
                let truth = inline_truth(&two_pass, &row);
                two_pass.run_tick(tick, &row, &truth).unwrap();
                oracle.run_tick(tick, &row, &truth).unwrap();
                let released = bits(&mut two_pass.probe.released);
                assert_eq!(released, bits(&mut oracle.probe.released), "tick {tick}");
                dab_changes += released.iter().filter(|e| e.1 == 1).count();
                refreshes += released.iter().filter(|e| e.1 == 0).count();
            }
            assert!(
                refreshes > 1000 && dab_changes > 0,
                "{refreshes} refreshes, {dab_changes} filter changes"
            );
            two_pass.metrics.solver_seconds = 0.0;
            oracle.metrics.solver_seconds = 0.0;
            assert_eq!(two_pass.metrics, oracle.metrics);
            assert_eq!(
                cfg.loss_probability > 0.0,
                two_pass.metrics.lost_messages > 0
            );
        }
    }

    /// Two items moving as slow sinusoids, one product query.
    fn small_config(delays: DelayConfig, strategy: SimStrategy) -> SimConfig {
        let traces = TraceSet::new(vec![
            Trace::sinusoid(20.0, 3.0, 400.0, 1200),
            Trace::sinusoid(10.0, 2.0, 300.0, 1200),
        ]);
        let queries = vec![PolynomialQuery::portfolio([(1.0, x(0), x(1))], 8.0).unwrap()];
        let mut cfg = SimConfig::new(traces, queries);
        cfg.delays = delays;
        cfg.strategy = strategy;
        cfg
    }

    fn dual(mu: f64) -> SimStrategy {
        SimStrategy::PerQuery {
            strategy: AssignmentStrategy::DualDab { mu },
            heuristic: PqHeuristic::DifferentSum,
        }
    }

    fn optimal() -> SimStrategy {
        SimStrategy::PerQuery {
            strategy: AssignmentStrategy::OptimalRefresh,
            heuristic: PqHeuristic::DifferentSum,
        }
    }

    #[test]
    fn zero_delay_never_violates_qab() {
        // Condition 1 + zero delays => fidelity loss must be exactly 0.
        for strategy in [dual(5.0), optimal()] {
            let cfg = small_config(DelayConfig::zero(), strategy.clone());
            let m = run(&cfg).unwrap();
            assert_eq!(
                m.loss_in_fidelity_percent(),
                0.0,
                "{strategy:?}: violations {:?}",
                m.per_query_violations
            );
            assert!(m.refreshes > 0, "the traces do move");
        }
    }

    #[test]
    fn optimal_refresh_recomputes_on_every_refresh() {
        let cfg = small_config(DelayConfig::zero(), optimal());
        let m = run(&cfg).unwrap();
        // Single query referencing both items: every arriving refresh
        // invalidates the anchor-only assignment.
        assert_eq!(m.recomputations, m.refreshes);
    }

    #[test]
    fn dual_dab_recomputes_less_but_refreshes_more() {
        let opt = run(&small_config(DelayConfig::zero(), optimal())).unwrap();
        let dd = run(&small_config(DelayConfig::zero(), dual(5.0))).unwrap();
        assert!(
            dd.recomputations * 2 < opt.recomputations,
            "dual {} vs optimal {}",
            dd.recomputations,
            opt.recomputations
        );
        assert!(
            dd.refreshes >= opt.refreshes,
            "{} vs {}",
            dd.refreshes,
            opt.refreshes
        );
        // And the total cost with mu = 5 favours Dual-DAB.
        assert!(dd.total_cost(5.0) < opt.total_cost(5.0));
    }

    #[test]
    fn larger_mu_means_fewer_recomputations() {
        let m1 = run(&small_config(DelayConfig::zero(), dual(1.0))).unwrap();
        let m10 = run(&small_config(DelayConfig::zero(), dual(10.0))).unwrap();
        assert!(
            m10.recomputations <= m1.recomputations,
            "mu=10 {} vs mu=1 {}",
            m10.recomputations,
            m1.recomputations
        );
    }

    #[test]
    fn delays_cause_some_fidelity_loss() {
        let cfg = small_config(DelayConfig::with_node_mean(2.0), dual(5.0));
        let m = run(&cfg).unwrap();
        // With 2 s mean network delay, some violation windows must be
        // visible at 1 s sampling.
        assert!(
            m.loss_in_fidelity_percent() > 0.0,
            "violations {:?}",
            m.per_query_violations
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let cfg = small_config(DelayConfig::planetlab_like(), dual(5.0));
        let mut a = run(&cfg).unwrap();
        let mut b = run(&cfg).unwrap();
        // Wall-clock solver time is the only nondeterministic field.
        a.solver_seconds = 0.0;
        b.solver_seconds = 0.0;
        assert_eq!(a, b);
    }

    #[test]
    fn aao_periodic_runs_and_counts_recomputations() {
        let traces = TraceSet::new(vec![
            Trace::sinusoid(20.0, 3.0, 400.0, 600),
            Trace::sinusoid(10.0, 2.0, 300.0, 600),
            Trace::sinusoid(15.0, 2.0, 350.0, 600),
        ]);
        let queries = vec![
            PolynomialQuery::portfolio([(1.0, x(0), x(1))], 8.0).unwrap(),
            PolynomialQuery::portfolio([(1.0, x(1), x(2))], 8.0).unwrap(),
        ];
        let mut cfg = SimConfig::new(traces, queries);
        cfg.delays = DelayConfig::zero();
        cfg.strategy = SimStrategy::AaoPeriodic {
            period_ticks: 100,
            mu: 5.0,
        };
        let m = run(&cfg).unwrap();
        // 5 periodic runs (ticks 100..500) x 2 queries at minimum.
        assert!(
            m.recomputations >= 10,
            "recomputations {}",
            m.recomputations
        );
        assert_eq!(m.loss_in_fidelity_percent(), 0.0);
    }

    /// A failed joint solve blames the whole book, not a query.
    #[test]
    fn a_failed_aao_solve_names_no_query() {
        let mut cfg = small_config(DelayConfig::zero(), dual(5.0));
        cfg.strategy = SimStrategy::AaoPeriodic {
            period_ticks: 100,
            mu: 0.0,
        };
        let err = run(&cfg).unwrap_err();
        assert!(
            matches!(err, SimError::Aao { source: DabError::InvalidMu(mu) } if mu == 0.0),
            "{err:?}"
        );
        let message = err.to_string();
        assert!(message.starts_with("joint AAO solve failed: "), "{message}");
        assert!(!message.contains("query"), "{message}");
    }

    /// The two-query book sharing item x1.
    fn two_query_config() -> SimConfig {
        let traces = TraceSet::new(vec![
            Trace::sinusoid(20.0, 4.0, 400.0, 1200),
            Trace::sinusoid(10.0, 3.0, 300.0, 1200),
            Trace::sinusoid(15.0, 3.0, 350.0, 1200),
        ]);
        let queries = vec![
            PolynomialQuery::portfolio([(1.0, x(0), x(1))], 6.0).unwrap(),
            PolynomialQuery::portfolio([(1.0, x(1), x(2))], 6.0).unwrap(),
        ];
        let mut cfg = SimConfig::new(traces, queries);
        cfg.delays = DelayConfig::planetlab_like();
        cfg
    }

    /// Named configurations spanning zero/heavy-tailed delays, both
    /// strategies, message loss, AAO-T and a two-query book.
    fn parity_configs() -> Vec<(&'static str, SimConfig)> {
        let mut lossy = small_config(DelayConfig::planetlab_like(), dual(1.0));
        lossy.loss_probability = 0.3;
        let mut aao = small_config(DelayConfig::planetlab_like(), dual(5.0));
        aao.strategy = SimStrategy::AaoPeriodic {
            period_ticks: 200,
            mu: 5.0,
        };
        vec![
            ("zero_dual5", small_config(DelayConfig::zero(), dual(5.0))),
            (
                "planetlab_dual5",
                small_config(DelayConfig::planetlab_like(), dual(5.0)),
            ),
            (
                "node2_optimal",
                small_config(DelayConfig::with_node_mean(2.0), optimal()),
            ),
            ("lossy_dual1", lossy),
            ("aao200", aao),
            ("two_queries", two_query_config()),
        ]
    }

    #[test]
    fn maintained_values_never_diverge_from_naive_evaluation() {
        // Naive `Polynomial::eval` is the oracle: with the auditor
        // shadow-evaluating every query on every tick — at the source
        // view and the coordinator view, values and QAB decisions both —
        // no run may report a divergence.
        for (name, mut cfg) in parity_configs() {
            cfg.audit = Some(AuditConfig {
                every: 1,
                sample: cfg.queries.len(),
                ..AuditConfig::default()
            });
            let obs = Obs::null();
            let m = run_observed(&cfg, &obs).unwrap();
            assert_eq!(m.fidelity_samples, 1199);
            let snap = obs.snapshot();
            assert_eq!(
                snap.counters[names::AUDIT_SAMPLE],
                1199 * cfg.queries.len() as u64
            );
            assert_eq!(snap.counters[names::AUDIT_DIVERGENCE], 0, "{name}");
        }
    }

    #[test]
    fn fixed_seed_metrics_match_the_recorded_shared_plane_runs() {
        // What `SimConfig::new` + `run` decide, message for message, on
        // the per-item draw streams (`delay::ItemDraws`; its first bits
        // are pinned in `delay::tests`): a change to the coordinator, the
        // solver's arithmetic, the event order or the streams moves a
        // count here (`zero_dual5` draws nothing). Columns: [refreshes,
        // recomputations, re-anchors, DAB changes, notifications, lost
        // messages], per query [violations, recomputations], per item
        // [refreshes, recompute triggers]. `node2_optimal` was re-taken
        // when DAB solves began to stop at the certified gap `DAB_GAP`:
        // an Optimal Refresh solve returns its blended start, whose
        // filters are a little narrower (217 → 220 refreshes).
        let recorded = |totals: [u64; 6], per_query: [&[u64]; 2], per_item: [&[u64]; 2]| {
            let [refreshes, recomputations, reanchors, dab_change_messages, user_notifications, lost] =
                totals;
            SimMetrics {
                refreshes,
                recomputations,
                reanchors,
                dab_change_messages,
                user_notifications,
                per_query_violations: per_query[0].to_vec(),
                per_query_recomputations: per_query[1].to_vec(),
                per_item_refreshes: per_item[0].to_vec(),
                per_item_recompute_triggers: per_item[1].to_vec(),
                ingest_batches: 0,
                fidelity_samples: 1199,
                lost_messages: lost,
                solver_seconds: 0.0,
            }
        };
        #[rustfmt::skip]
        let want = [
            ("zero_dual5", recorded([262, 0, 0, 0, 61, 0], [&[0], &[0]], [&[119, 143], &[0, 0]])),
            ("planetlab_dual5", recorded([262, 0, 0, 0, 62, 0], [&[0], &[0]], [&[119, 143], &[0, 0]])),
            ("node2_optimal", recorded([220, 220, 0, 440, 72, 0], [&[87], &[220]], [&[97, 123], &[97, 123]])),
            ("lossy_dual1", recorded([181, 1, 1, 2, 54, 70], [&[177], &[1]], [&[79, 102], &[0, 1]])),
            ("aao200", recorded([267, 6, 2, 12, 63, 0], [&[0], &[6]], [&[120, 147], &[0, 1]])),
            ("two_queries", recorded([722, 2, 0, 3, 236, 0], [&[5, 0], &[1, 1]], [&[242, 286, 194], &[1, 0, 1]])),
        ];
        for ((name, cfg), (recorded_name, want)) in parity_configs().into_iter().zip(want) {
            assert_eq!(name, recorded_name);
            let mut got = run(&cfg).unwrap();
            got.solver_seconds = 0.0;
            assert_eq!(got, want, "{name}");
        }
    }

    /// Six two-leg products over three items on a tree of `n` nodes,
    /// with no delay.
    fn tree_config(n: usize, strategy: AssignmentStrategy) -> SimConfig {
        let traces = TraceSet::new(vec![
            Trace::sinusoid(20.0, 3.0, 400.0, 800),
            Trace::sinusoid(10.0, 2.0, 300.0, 800),
            Trace::sinusoid(15.0, 2.5, 350.0, 800),
        ]);
        let queries = (0..6)
            .map(|k| {
                let (a, b) = [(0, 1), (1, 2), (0, 2)][k % 3];
                PolynomialQuery::portfolio([(1.0 + k as f64, x(a), x(b))], 20.0 + k as f64).unwrap()
            })
            .collect();
        let mut cfg = SimConfig::new(traces, queries);
        cfg.coordinators = NonZeroUsize::new(n).unwrap();
        cfg.delays = DelayConfig::zero();
        cfg.strategy = SimStrategy::PerQuery {
            strategy,
            heuristic: PqHeuristic::DifferentSum,
        };
        cfg
    }

    #[test]
    fn dual_dab_beats_optimal_refresh_on_tree_recomputations() {
        let optimal = run(&tree_config(3, AssignmentStrategy::OptimalRefresh)).unwrap();
        let dual = run(&tree_config(3, AssignmentStrategy::DualDab { mu: 5.0 })).unwrap();
        assert!(
            dual.recomputations < optimal.recomputations,
            "dual {} vs optimal-refresh {}",
            dual.recomputations,
            optimal.recomputations
        );
    }

    /// Every node counts its recomputations and times its solves under
    /// the run's handle, naming its queries by their book index.
    #[test]
    fn a_tree_counts_every_node_s_recomputes_and_solves() {
        let cfg = tree_config(3, AssignmentStrategy::OptimalRefresh);
        let obs = Obs::null();
        let m = run_observed(&cfg, &obs).unwrap();
        let snap = obs.snapshot();
        assert_eq!(snap.counters[names::DAB_RECOMPUTE], m.recomputations);
        assert!(snap.histograms["gp.solve_ns"].count > 0);
        // Node c serves queries c and c + 3; all of them recompute.
        assert!(m.per_query_recomputations.iter().all(|&r| r > 0), "{m:?}");
    }

    #[test]
    fn a_failed_solve_on_a_tree_names_its_query_in_the_book() {
        let linear = |c, i| PolynomialQuery::linear_aggregate([(c, x(i))], 2.0).unwrap();
        let mut cfg = tree_config(2, AssignmentStrategy::DualDab { mu: 5.0 });
        // Node 0 serves queries 0 and 2, node 1 queries 1 and 3.
        cfg.queries = vec![
            linear(1.0, 0),
            linear(1.0, 1),
            linear(2.0, 0),
            PolynomialQuery::portfolio([(1.0, x(1), x(2)), (2.0, x(0), x(1))], 5.0).unwrap(),
        ];
        // Linear queries are closed forms; with no Newton step allowed
        // the one GP-backed query, the second node's second, cannot solve:
        // a two-leg Dual-DAB start is not within the certified gap (a
        // one-leg start is, and solves in no step).
        cfg.gp.max_newton_steps = 0;
        let err = run(&cfg).unwrap_err();
        assert!(matches!(err, SimError::Dab { query: 3, .. }), "{err}");
        assert!(err.to_string().contains("query 3:"), "{err}");
    }

    /// A need that tightens re-checks the edge above it: the parent's
    /// value, which drifted off the child's by less than the old edge
    /// filter, is sent at once, not at the item's next move. Without the
    /// re-check node 1's product reads x1 0.03 stale, ten times over,
    /// from tick 150 on: 50 violations of its 0.2 QAB.
    #[test]
    fn a_tightened_need_resends_what_the_child_now_needs() {
        // x1 swings, settles at 0.5, steps up by 0.03; then x0 grows
        // tenfold.
        let x0 = (0..200).map(|t| if t < 150 { 1.0 } else { 10.0 }).collect();
        let swing = |t: usize| 1.0 + 0.3 * (t as f64 * std::f64::consts::TAU / 10.0).sin();
        let x1 = (0..200)
            .map(|t| match t {
                0..90 => swing(t),
                90..100 => 0.5,
                _ => 0.53,
            })
            .collect();
        let traces = TraceSet::new(vec![Trace::from_values(x0), Trace::from_values(x1)]);
        let mut cfg = tree_config(2, AssignmentStrategy::OptimalRefresh);
        cfg.traces = traces;
        // The root watches x1 closely; node 1 serves the product.
        cfg.queries = vec![
            PolynomialQuery::linear_aggregate([(1.0, x(1))], 0.001).unwrap(),
            PolynomialQuery::portfolio([(1.0, x(0), x(1))], 0.2).unwrap(),
        ];
        let m = run(&cfg).unwrap();
        assert_eq!(m.per_query_violations, [0, 0]);
    }

    #[test]
    fn eval_counters_count_terms_scatters_and_rebases() {
        let cfg = small_config(DelayConfig::zero(), dual(5.0));
        let obs = Obs::null();
        let m = run_observed(&cfg, &obs).unwrap();
        let snap = obs.snapshot();
        let count = |n: &str| snap.counters.get(n).copied().unwrap_or(0);
        // One portfolio leg compiles to one distinct monomial.
        assert_eq!(count(names::EVAL_SHARED_TERMS), 1);
        assert_eq!(
            count(names::EVAL_SCATTER_FANOUT),
            m.refreshes,
            "every refresh scatters to the one query, source moves to none"
        );
        // The coordinator rebases its view once per 512 applied
        // refreshes; plus the seeding evaluation and one source-side
        // truth evaluation per sample (the sinusoids move every tick).
        let rebases = m.refreshes / u64::from(pq_core::REBASE_EVERY);
        assert_eq!(count(names::EVAL_REBASE), rebases);
        assert_eq!(count(names::EVAL_FULL), 1 + rebases + m.fidelity_samples);
        // Zero delays: every scheduled event is delivered the same tick.
        assert_eq!(count(names::SCHED_PUSH), count(names::SCHED_POP));
        assert!(count(names::SCHED_PUSH) > 0);

        // A busier book crosses a rebase period; each full evaluation
        // counts both of its queries.
        let obs = Obs::null();
        let m = run_observed(&two_query_config(), &obs).unwrap();
        let rebases = m.refreshes / u64::from(pq_core::REBASE_EVERY);
        assert!(rebases >= 1, "{} refreshes", m.refreshes);
        let snap = obs.snapshot();
        assert_eq!(snap.counters[names::EVAL_REBASE], rebases);
        assert_eq!(
            snap.counters[names::EVAL_FULL],
            2 * (1 + rebases + m.fidelity_samples)
        );
    }

    #[test]
    fn queries_over_missing_items_are_rejected() {
        let traces = TraceSet::new(vec![Trace::constant(1.0, 10)]);
        let queries = vec![PolynomialQuery::portfolio([(1.0, x(0), x(5))], 1.0).unwrap()];
        let cfg = SimConfig::new(traces, queries);
        assert!(matches!(run(&cfg), Err(SimError::MissingTrace { item: 5 })));
    }

    #[test]
    fn constant_traces_generate_no_traffic() {
        let traces = TraceSet::new(vec![Trace::constant(5.0, 300), Trace::constant(7.0, 300)]);
        let queries = vec![PolynomialQuery::portfolio([(1.0, x(0), x(1))], 5.0).unwrap()];
        let mut cfg = SimConfig::new(traces, queries);
        cfg.delays = DelayConfig::zero();
        let obs = Obs::null();
        let m = run_observed(&cfg, &obs).unwrap();
        assert_eq!(m.refreshes, 0);
        assert_eq!(m.recomputations, 0);
        assert_eq!(m.loss_in_fidelity_percent(), 0.0);
        // Nothing moved, so all 299 samples read the seeding evaluation.
        assert_eq!(m.fidelity_samples, 299);
        assert_eq!(obs.snapshot().counters[names::EVAL_FULL], 1);
    }

    #[test]
    fn busy_coordinator_queues_refreshes() {
        // A large recompute service under Optimal Refresh (which
        // recomputes per refresh) must visibly degrade fidelity compared
        // to a free coordinator, with identical message counts at the
        // sources.
        let mut slow = small_config(DelayConfig::zero(), optimal());
        slow.delays.recompute_service = Pareto::with_mean(3.0);
        let m_slow = run(&slow).unwrap();
        let m_fast = run(&small_config(DelayConfig::zero(), optimal())).unwrap();
        assert!(
            m_slow.loss_in_fidelity_percent() > m_fast.loss_in_fidelity_percent(),
            "slow {} vs fast {}",
            m_slow.loss_in_fidelity_percent(),
            m_fast.loss_in_fidelity_percent()
        );
        assert!(m_slow.loss_in_fidelity_percent() > 0.0);
    }

    #[test]
    fn dual_dab_suffers_less_under_coordinator_load() {
        // The motivation for minimizing recomputations: with a costly
        // solver in the loop, Dual-DAB's rare recomputations keep the
        // coordinator responsive while Optimal Refresh backs up.
        let mut o = small_config(DelayConfig::zero(), optimal());
        o.delays.recompute_service = Pareto::with_mean(3.0);
        let mut d = small_config(DelayConfig::zero(), dual(5.0));
        d.delays.recompute_service = Pareto::with_mean(3.0);
        let mo = run(&o).unwrap();
        let md = run(&d).unwrap();
        assert!(
            md.loss_in_fidelity_percent() < mo.loss_in_fidelity_percent(),
            "dual {} vs optimal {}",
            md.loss_in_fidelity_percent(),
            mo.loss_in_fidelity_percent()
        );
    }

    #[test]
    fn message_loss_degrades_fidelity() {
        let lossless = run(&small_config(DelayConfig::zero(), dual(5.0))).unwrap();
        assert_eq!(lossless.lost_messages, 0);
        assert_eq!(lossless.loss_in_fidelity_percent(), 0.0);

        let mut cfg = small_config(DelayConfig::zero(), dual(5.0));
        cfg.loss_probability = 0.4;
        let lossy = run(&cfg).unwrap();
        assert!(lossy.lost_messages > 0);
        assert!(
            lossy.loss_in_fidelity_percent() > 0.0,
            "dropped refreshes must show up as staleness"
        );
        // Fewer refreshes arrive than were pushed.
        assert!(lossy.refreshes < lossless.refreshes + lossy.lost_messages);
    }

    #[test]
    fn jsonl_trace_mirrors_recomputation_count() {
        let path = std::env::temp_dir().join(format!("pq_sim_trace_{}.jsonl", std::process::id()));
        let cfg = small_config(DelayConfig::zero(), optimal());
        let obs = Obs::from_config(&pq_obs::ObsConfig {
            jsonl: Some(path.clone()),
            ..Default::default()
        })
        .unwrap();
        let m = run_observed(&cfg, &obs).unwrap();
        assert!(m.recomputations > 0);

        let text = std::fs::read_to_string(&path).unwrap();
        let events: Vec<pq_obs::Event> = text
            .lines()
            .map(|l| pq_obs::jsonl::parse(l).expect("every trace line is valid JSON"))
            .collect();
        let count = |target: &str| events.iter().filter(|e| e.target == target).count() as u64;
        assert_eq!(count(names::DAB_RECOMPUTE), m.recomputations);
        // One `sim.refresh` count per item the coordinator ingested.
        let refreshes = events.iter().filter(|e| e.target == names::SIM_REFRESH);
        assert!(count(names::SIM_REFRESH) <= cfg.traces.n_items() as u64);
        let n = |e: &pq_obs::Event| match e.field("refreshes") {
            Some(&pq_obs::Value::U64(n)) => n,
            other => panic!("{e:?}: {other:?}"),
        };
        assert_eq!(refreshes.map(n).sum::<u64>(), m.refreshes);
        assert!(count("gp.solve_ns") > 0, "GP solve timings reach the trace");
        std::fs::remove_file(&path).ok();
    }

    /// A fresh directory for one test's recorder dumps.
    fn dump_dir(test: &str) -> std::path::PathBuf {
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .unwrap()
            .as_nanos();
        let dir =
            std::env::temp_dir().join(format!("pq-sim-{test}-{}-{nanos}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// A handle whose only subscriber is a flight recorder dumping to
    /// `path`, the way `PQ_OBS_RECORDER` arms one and nothing else.
    fn recorder_only(path: &std::path::Path) -> Obs {
        let recorder = pq_obs::Recorder::new(pq_obs::RecorderConfig::new(path));
        let obs = Obs::with_subscriber(Arc::new(recorder.clone()));
        assert!(obs.install_recorder(recorder));
        obs
    }

    fn dumps(obs: &Obs) -> u64 {
        obs.recorder().unwrap().dump_count()
    }

    /// The events of the recorder dump at `path`, header first.
    fn read_dump(path: &std::path::Path) -> Vec<pq_obs::Event> {
        let text = std::fs::read_to_string(path).expect("flight recorder dumped");
        let events: Vec<_> = text
            .lines()
            .map(|l| pq_obs::jsonl::parse(l).unwrap())
            .collect();
        assert_eq!(events[0].target, names::RECORDER_DUMP);
        events
    }

    fn faulted(mut cfg: SimConfig, tick: usize, query: usize) -> SimConfig {
        cfg.audit_fault = Some(AuditFault {
            tick,
            query,
            perturb: 1.0e6,
        });
        cfg
    }

    #[test]
    fn injected_audit_fault_dumps_the_recorder_within_one_interval() {
        // An armed recorder is the only switch: the pass that flags the
        // fault dumps, and the dump opens on the reason.
        let dir = dump_dir("fault-dump");
        let dump_path = dir.join("flight.jsonl");
        let mut cfg = small_config(DelayConfig::zero(), dual(5.0));
        cfg.audit = Some(AuditConfig::default());
        let fault_tick = 200;
        let obs = recorder_only(&dump_path);
        run_observed(&faulted(cfg, fault_tick, 0), &obs).unwrap();
        let dump = read_dump(&dump_path);
        let reason = pq_obs::Value::from(names::AUDIT_DIVERGENCE);
        assert_eq!(dump[0].field("reason"), Some(&reason));
        let first = dump
            .iter()
            .find(|e| e.target == names::AUDIT_DIVERGENCE)
            .expect("the dump holds the divergence");
        let Some(&pq_obs::Value::U64(tick)) = first.field("tick") else {
            panic!("{first:?}")
        };
        let every = AuditConfig::default().every as u64;
        let fault_tick = fault_tick as u64;
        assert!(
            (fault_tick..=fault_tick + every).contains(&tick),
            "flagged at tick {tick}, fault at {fault_tick}, interval {every}"
        );

        // Two disjoint products. The fault lands on the last tick, an
        // audited one, so exactly one pass flags it, whichever product
        // it corrupts: the recorder dumps once.
        let n_ticks = 801;
        let traces = TraceSet::new(vec![
            Trace::sinusoid(20.0, 3.0, 400.0, n_ticks),
            Trace::sinusoid(10.0, 2.0, 300.0, n_ticks),
            Trace::sinusoid(15.0, 2.5, 350.0, n_ticks),
            Trace::sinusoid(12.0, 1.5, 250.0, n_ticks),
        ]);
        let queries = vec![
            PolynomialQuery::portfolio([(1.0, x(0), x(1))], 8.0).unwrap(),
            PolynomialQuery::portfolio([(1.0, x(2), x(3))], 8.0).unwrap(),
        ];
        for query in [0, 1] {
            let mut cfg = SimConfig::new(traces.clone(), queries.clone());
            cfg.audit = Some(AuditConfig {
                every: 4,
                sample: 2,
                ..AuditConfig::default()
            });
            let dump_path = dir.join(format!("last-tick-fault-q{query}.jsonl"));
            let obs = recorder_only(&dump_path);
            run_observed(&faulted(cfg, n_ticks - 1, query), &obs).unwrap();
            assert_eq!(dumps(&obs), 1, "fault on query {query}");
            let dump = read_dump(&dump_path);
            assert_eq!(dump[0].field("reason"), Some(&reason));
            assert!(dump.iter().any(|e| e.target == names::AUDIT_DIVERGENCE
                && e.field("query") == Some(&pq_obs::Value::U64(query as u64))));
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_clean_run_after_a_faulty_one_on_one_handle_dumps_nothing() {
        // The handle's `audit.divergence` counter still holds the first
        // run's divergences; the second run triggers only on what its own
        // passes flag. Passes 200 ticks apart keep the faulty run's dumps
        // under the recorder's cap, so a phantom trigger would show.
        let dir = dump_dir("phantom-dump");
        let mut clean = small_config(DelayConfig::zero(), dual(5.0));
        clean.audit = Some(AuditConfig {
            every: 200,
            ..AuditConfig::default()
        });
        let faulty = faulted(clean.clone(), 200, 0);
        let obs = recorder_only(&dir.join("flight.jsonl"));
        run_observed(&clean, &obs).unwrap();
        assert_eq!(dumps(&obs), 0, "a clean run dumped");
        run_observed(&faulty, &obs).unwrap();
        let dumped = dumps(&obs);
        assert!(
            (1..pq_obs::recorder::MAX_DUMPS).contains(&dumped),
            "{dumped} dumps"
        );
        run_observed(&clean, &obs).unwrap();
        assert_eq!(dumps(&obs), dumped, "the clean run dumped");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn loss_probability_scales_monotonically() {
        let mut last = -1.0;
        for p in [0.0, 0.2, 0.6] {
            let mut cfg = small_config(DelayConfig::zero(), dual(5.0));
            cfg.loss_probability = p;
            let m = run(&cfg).unwrap();
            let loss = m.loss_in_fidelity_percent();
            assert!(
                loss >= last,
                "fidelity loss should not improve with more message loss: \
                 p={p} gave {loss} after {last}"
            );
            last = loss;
        }
    }

    #[test]
    fn a_loss_probability_outside_the_unit_interval_is_refused() {
        // Read as `uniform() < p`, `NaN` would silently disable loss and
        // `1.5` drop every message.
        for p in [f64::NAN, -0.1, 1.5] {
            let mut cfg = two_query_config();
            cfg.loss_probability = p;
            match run(&cfg) {
                Err(SimError::BadLossProbability { value }) => {
                    assert_eq!(value.to_bits(), p.to_bits())
                }
                other => panic!("p = {p}: {other:?}"),
            }
        }
        for p in [0.0, 1.0] {
            let mut cfg = two_query_config();
            cfg.loss_probability = p;
            assert!(run(&cfg).is_ok(), "p = {p}");
        }
    }

    #[test]
    fn a_delay_the_queue_cannot_schedule_is_refused() {
        // A negative scale schedules events before the instant that
        // sends them; NaN and infinite fields draw non-finite delays.
        type Field = fn(&mut DelayConfig) -> &mut Pareto;
        let fields: [(&str, Field); 3] = [
            ("node_to_node", |d| &mut d.node_to_node),
            ("coordinator_check", |d| &mut d.coordinator_check),
            ("recompute_service", |d| &mut d.recompute_service),
        ];
        let (nan, inf) = (f64::NAN, f64::INFINITY);
        // (scale, shape, cap)
        let bad = [
            (-5.0, 2.5, 1.0),
            (nan, 2.5, 1.0),
            (inf, 2.5, 1.0),
            (0.1, 0.0, 1.0),
            (0.1, -2.5, 1.0),
            (0.1, nan, 1.0),
            (0.1, inf, 1.0),
            (0.1, 2.5, -1.0),
            (0.1, 2.5, nan),
            (0.1, 2.5, inf),
        ];
        for (field, get) in fields {
            for (scale, shape, cap) in bad {
                let p = Pareto { scale, shape, cap };
                let mut cfg = two_query_config();
                *get(&mut cfg.delays) = p;
                match run(&cfg) {
                    Err(SimError::BadDelay { name, value }) => {
                        assert_eq!(name, field);
                        // Compared as text: a NaN field is never `==`.
                        assert_eq!(format!("{value:?}"), format!("{p:?}"));
                    }
                    other => panic!("{field} = {p:?}: {other:?}"),
                }
            }
        }
        for delays in [
            DelayConfig::zero(),
            DelayConfig::planetlab_like(),
            DelayConfig::with_node_mean(0.5),
        ] {
            let mut cfg = two_query_config();
            cfg.delays = delays;
            assert!(run(&cfg).is_ok(), "{delays:?}");
        }
    }
}
