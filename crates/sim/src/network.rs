//! A dissemination network of cooperating coordinators (Fig. 8(c)).
//!
//! The paper's §V-B.3 experiment runs PPQs over a content-dissemination
//! network built with the repeater framework of Shah et al. (TKDE'04,
//! reference \[6\]): sources feed a tree of coordinators, each serving a
//! share of the queries; a refresh travels down an edge only when it
//! exceeds the subtree's tightest filter need.
//!
//! This module implements a tick-synchronous tree simulator: values
//! propagate from the sources through a balanced binary tree of
//! coordinators, with per-edge filters equal to the receiving subtree's
//! minimum DAB need. Each coordinator independently recomputes the DABs of
//! its own queries when arriving values invalidate them, exactly as the
//! single-coordinator engine does. Per-hop delays are not modelled — the
//! experiment's metric is message and recomputation *counts*, which are
//! delay-independent in the push model.

use pq_core::coordinator::{Config, Coordinator, Scope};
use pq_core::{dab_solver_options, AssignmentStrategy, PqHeuristic};
use pq_ddm::{DataDynamicsModel, RateEstimator, TraceSet};
use pq_gp::SolverOptions;
use pq_obs::{names, EventKind, Obs};
use pq_poly::PolynomialQuery;

use crate::engine::SimError;

/// Configuration of a dissemination-network run.
#[derive(Debug, Clone)]
pub struct NetworkConfig {
    /// Per-item data traces.
    pub traces: TraceSet,
    /// Queries served by each coordinator (`queries[c]` lives on node `c`).
    pub queries_per_coordinator: Vec<Vec<PolynomialQuery>>,
    /// Per-query assignment policy.
    pub strategy: AssignmentStrategy,
    /// GP solver options ([`pq_core::dab_solver_options`] unless set).
    pub gp: SolverOptions,
}

impl NetworkConfig {
    /// Splits `queries` round-robin over `n_coordinators` nodes with
    /// default knobs (Dual-DAB callers set `strategy`).
    pub fn round_robin(
        traces: TraceSet,
        queries: Vec<PolynomialQuery>,
        n_coordinators: usize,
        strategy: AssignmentStrategy,
    ) -> Self {
        assert!(n_coordinators > 0);
        let mut per = vec![Vec::new(); n_coordinators];
        for (i, q) in queries.into_iter().enumerate() {
            per[i % n_coordinators].push(q);
        }
        NetworkConfig {
            traces,
            queries_per_coordinator: per,
            strategy,
            gp: dab_solver_options(),
        }
    }
}

/// Counters from a network run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct NetworkMetrics {
    /// Refresh messages received, per coordinator.
    pub refreshes_per_node: Vec<u64>,
    /// DAB recomputations, per coordinator.
    pub recomputations_per_node: Vec<u64>,
    /// DAB-change messages sent to sources / parents.
    pub dab_change_messages: u64,
    /// Wall-clock seconds in DAB solvers.
    pub solver_seconds: f64,
}

impl NetworkMetrics {
    /// Total refreshes across the network.
    pub fn refreshes(&self) -> u64 {
        self.refreshes_per_node.iter().sum()
    }

    /// Total recomputations across the network.
    pub fn recomputations(&self) -> u64 {
        self.recomputations_per_node.iter().sum()
    }

    /// Total cost in messages (metric 4).
    pub fn total_cost(&self, mu: f64) -> f64 {
        self.refreshes() as f64 + mu * self.recomputations() as f64
    }
}

/// Flat structure-of-arrays per-(node, item) edge state: one shared
/// allocation per column (row-major by node, stride `n_items`), so the
/// delivery recursion and the bottom-up need sweeps walk contiguous
/// rows. What a node knows of an item as a coordinator — its cached
/// value, its own filter — is in the node's [`Coordinator`].
struct EdgeState {
    n_items: usize,
    /// Value last forwarded to each node by its parent, per item.
    last_delivered: Vec<f64>,
    /// Each subtree's tightest filter need per item (min over the node's
    /// own queries and all descendants).
    subtree_need: Vec<f64>,
}

impl EdgeState {
    fn new(n_nodes: usize, initial: &[f64]) -> Self {
        let n_items = initial.len();
        EdgeState {
            n_items,
            last_delivered: initial.repeat(n_nodes),
            subtree_need: vec![f64::INFINITY; n_nodes * n_items],
        }
    }

    #[inline]
    fn last_delivered(&self, c: usize, item: usize) -> f64 {
        self.last_delivered[c * self.n_items + item]
    }

    #[inline]
    fn set_last_delivered(&mut self, c: usize, item: usize, v: f64) {
        self.last_delivered[c * self.n_items + item] = v;
    }

    #[inline]
    fn need(&self, c: usize, item: usize) -> f64 {
        self.subtree_need[c * self.n_items + item]
    }

    /// Re-derives node `c`'s need for `item` from its own filter and its
    /// children's needs.
    fn derive_need(&mut self, nodes: &[Coordinator], c: usize, item: usize) {
        let need = [2 * c + 1, 2 * c + 2]
            .into_iter()
            .filter(|&child| child < nodes.len())
            .fold(nodes[c].filter(item), |m, child| {
                m.min(self.need(child, item))
            });
        self.subtree_need[c * self.n_items + item] = need;
    }
}

/// The run's transport-side telemetry and counts: everything a delivery
/// records that is not the receiving coordinator's own business.
struct Net {
    obs: Obs,
    metrics: NetworkMetrics,
}

/// Runs the dissemination-network simulation. Like [`crate::run`] it
/// records nothing ([`run_network_observed`] on [`Obs::disabled`]): no
/// metric, event or span. To observe a run, pass a handle to
/// [`run_network_observed`].
pub fn run_network(cfg: &NetworkConfig) -> Result<NetworkMetrics, SimError> {
    run_network_observed(cfg, &Obs::disabled())
}

/// Runs the dissemination-network simulation with a caller-supplied
/// telemetry handle: `sim.refresh` / `dab.recompute` events (each with
/// a `node` field), the `dab.recompute` counter and GP-solver spans are
/// reported through it, matching what [`crate::run_observed`] records
/// for the single-coordinator engine. Events and spans name a query by
/// its tree-wide id, its position in `queries_per_coordinator` read
/// node after node, so no two nodes' queries share one (`pq-trace`
/// labels a recompute `c<node>.q<id>`).
pub fn run_network_observed(cfg: &NetworkConfig, obs: &Obs) -> Result<NetworkMetrics, SimError> {
    let n_items = cfg.traces.n_items();
    let n_nodes = cfg.queries_per_coordinator.len();
    // Every node runs the engine's defaults: Different Sum for mixed-sign
    // queries, monotonic dynamics, rates sampled every 60 ticks.
    let rates = RateEstimator::SampledAverage { interval_ticks: 60 }.estimate_all(&cfg.traces);
    let initial = cfg.traces.initial_values();
    let mut net = Net {
        obs: obs.clone(),
        metrics: NetworkMetrics {
            refreshes_per_node: vec![0; n_nodes],
            recomputations_per_node: vec![0; n_nodes],
            ..Default::default()
        },
    };

    // One installed coordinator per node.
    let mut nodes = Vec::with_capacity(n_nodes);
    let mut first_gid = 0;
    for (c, queries) in cfg.queries_per_coordinator.iter().enumerate() {
        for q in queries {
            if let Some(mx) = q.poly().max_item() {
                if mx.index() >= n_items {
                    return Err(SimError::MissingTrace { item: mx.index() });
                }
            }
        }
        let node_cfg = Config {
            rates: rates.clone(),
            ddm: DataDynamicsModel::Monotonic,
            gp: cfg.gp.clone(),
            // One node's refresh rarely breaks two units at once.
            threads: 1,
            obs: obs.clone(),
            scope: Scope {
                query_gid: (first_gid..first_gid + queries.len() as u32).collect(),
                node: Some(c as u32),
                ..Scope::default()
            },
        };
        first_gid += queries.len() as u32;
        let values = initial.clone();
        let core = Coordinator::install(
            queries,
            cfg.strategy,
            PqHeuristic::DifferentSum,
            values,
            node_cfg,
        )
        .map_err(|e| node_error(c, e))?;
        net.metrics.solver_seconds += core.install_ns() as f64 / 1e9;
        nodes.push(core);
    }
    let mut edges = EdgeState::new(n_nodes, &initial);
    for c in (0..n_nodes).rev() {
        for item in 0..n_items {
            edges.derive_need(&nodes, c, item);
        }
    }

    // Tick loop: values propagate root-down through per-edge filters.
    let n_ticks = cfg.traces.n_ticks();
    let mut source_pushed = initial.clone();
    for tick in 1..n_ticks {
        let values = cfg.traces.values_at(tick);
        for item in 0..n_items {
            let v = values[item];
            // Source -> root edge uses the whole network's need.
            let need = edges.need(0, item);
            if need.is_finite() && (v - source_pushed[item]).abs() > need {
                source_pushed[item] = v;
                deliver(&mut nodes, &mut edges, 0, item, v, &mut net)?;
            }
        }
    }
    Ok(net.metrics)
}

/// A node's failed solve: the failing query, local to the node named.
fn node_error(node: usize, e: pq_core::InstallError) -> SimError {
    match e.query {
        Some(query) => SimError::NodeDab {
            node,
            query,
            source: e.source,
        },
        None => SimError::Refresh { source: e.source },
    }
}

/// Delivers a refreshed value to node `c` — its coordinator re-solves
/// what the value invalidated — and forwards it down the edges whose
/// child-subtree filters it exceeds.
fn deliver(
    nodes: &mut [Coordinator],
    edges: &mut EdgeState,
    c: usize,
    item: usize,
    value: f64,
    net: &mut Net,
) -> Result<(), SimError> {
    net.metrics.refreshes_per_node[c] += 1;
    net.obs
        .emit_with(names::SIM_REFRESH, EventKind::Count, |e| {
            e.with("node", c).with("item", item).with("value", value)
        });
    edges.set_last_delivered(c, item, value);
    nodes[c]
        .apply(item, value)
        .map_err(|source| SimError::Refresh { source })?;
    let outcome = nodes[c].react(item, None).map_err(|e| node_error(c, e))?;
    net.metrics.solver_seconds += outcome.solve_ns as f64 / 1e9;
    net.metrics.recomputations_per_node[c] += outcome.recomputed.len() as u64;
    // Changed needs ripple up to the source as DAB-change messages: only
    // `c`'s own filters moved, so only it and its ancestors re-derive.
    net.metrics.dab_change_messages += outcome.filter_changes.len() as u64;
    for &(changed, _) in &outcome.filter_changes {
        let mut node = c;
        loop {
            edges.derive_need(nodes, node, changed.index());
            if node == 0 {
                break;
            }
            node = (node - 1) / 2;
        }
    }

    // Forward down the binary tree.
    for child in [2 * c + 1, 2 * c + 2] {
        if child >= nodes.len() {
            continue;
        }
        let need = edges.need(child, item);
        if need.is_finite() && (value - edges.last_delivered(child, item)).abs() > need {
            deliver(nodes, edges, child, item, value, net)?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use pq_ddm::Trace;
    use pq_poly::ItemId;

    fn x(i: u32) -> ItemId {
        ItemId(i)
    }

    fn traces() -> TraceSet {
        TraceSet::new(vec![
            Trace::sinusoid(20.0, 3.0, 400.0, 800),
            Trace::sinusoid(10.0, 2.0, 300.0, 800),
            Trace::sinusoid(15.0, 2.5, 350.0, 800),
        ])
    }

    fn queries(n: usize) -> Vec<PolynomialQuery> {
        (0..n)
            .map(|k| {
                let (a, b) = ([(0, 1), (1, 2), (0, 2)])[k % 3];
                PolynomialQuery::portfolio([(1.0 + k as f64, x(a), x(b))], 20.0 + k as f64).unwrap()
            })
            .collect()
    }

    #[test]
    fn network_counts_refreshes_on_every_active_node() {
        let cfg = NetworkConfig::round_robin(
            traces(),
            queries(6),
            3,
            AssignmentStrategy::DualDab { mu: 5.0 },
        );
        let m = run_network(&cfg).unwrap();
        assert_eq!(m.refreshes_per_node.len(), 3);
        assert!(m.refreshes() > 0);
        // Root sees at least as many refreshes as any descendant (filters
        // only get looser going down... tighter going up).
        assert!(m.refreshes_per_node[0] >= m.refreshes_per_node[1]);
        assert!(m.refreshes_per_node[0] >= m.refreshes_per_node[2]);
    }

    #[test]
    fn dual_dab_beats_optimal_refresh_on_network_recomputations() {
        let base =
            NetworkConfig::round_robin(traces(), queries(6), 3, AssignmentStrategy::OptimalRefresh);
        let dual = NetworkConfig::round_robin(
            traces(),
            queries(6),
            3,
            AssignmentStrategy::DualDab { mu: 5.0 },
        );
        let mb = run_network(&base).unwrap();
        let md = run_network(&dual).unwrap();
        assert!(
            md.recomputations() < mb.recomputations(),
            "dual {} vs optimal-refresh {}",
            md.recomputations(),
            mb.recomputations()
        );
    }

    #[test]
    fn single_node_network_matches_structure() {
        let cfg = NetworkConfig::round_robin(
            traces(),
            queries(2),
            1,
            AssignmentStrategy::DualDab { mu: 5.0 },
        );
        let m = run_network(&cfg).unwrap();
        assert_eq!(m.refreshes_per_node.len(), 1);
        assert!(m.refreshes() > 0);
    }

    #[test]
    fn observed_network_counts_recomputes_and_solves() {
        let cfg = NetworkConfig::round_robin(
            traces(),
            queries(6),
            3,
            AssignmentStrategy::DualDab { mu: 5.0 },
        );
        let obs = Obs::null();
        let m = run_network_observed(&cfg, &obs).unwrap();
        let snap = obs.snapshot();
        assert_eq!(snap.counters[names::DAB_RECOMPUTE], m.recomputations());
        // GP solves ran under the same registry.
        assert!(snap.histograms["gp.solve_ns"].count > 0);
    }

    #[test]
    fn a_failed_solve_names_its_query_and_its_node() {
        let strategy = AssignmentStrategy::DualDab { mu: 5.0 };
        let mut cfg = NetworkConfig::round_robin(traces(), Vec::new(), 2, strategy);
        let linear = |c, i| PolynomialQuery::linear_aggregate([(c, x(i))], 2.0).unwrap();
        cfg.queries_per_coordinator = vec![
            vec![linear(1.0, 0)],
            vec![
                linear(1.0, 1),
                linear(2.0, 0),
                PolynomialQuery::portfolio([(1.0, x(1), x(2))], 5.0).unwrap(),
            ],
        ];
        // Linear queries are closed forms; with no Newton step allowed
        // the one GP-backed query, the second node's third, cannot solve.
        cfg.gp.max_newton_steps = 0;
        let err = run_network(&cfg).unwrap_err();
        assert!(
            matches!(
                err,
                SimError::NodeDab {
                    node: 1,
                    query: 2,
                    ..
                }
            ),
            "{err}"
        );
        assert!(err.to_string().contains("query 2 of node 1"), "{err}");
    }

    #[test]
    fn missing_trace_is_reported() {
        let cfg = NetworkConfig::round_robin(
            traces(),
            vec![PolynomialQuery::portfolio([(1.0, x(0), x(9))], 1.0).unwrap()],
            2,
            AssignmentStrategy::DualDab { mu: 5.0 },
        );
        assert!(matches!(
            run_network(&cfg),
            Err(SimError::MissingTrace { item: 9 })
        ));
    }
}
