//! How a configuration becomes engines: project it onto the items its
//! book reads, then — with more than one shard — partition the projected
//! query↔item graph, run one coordinator per shard, and merge the
//! metrics deterministically.
//!
//! # Projection
//!
//! A source holds a filter only because some query reads its item, so
//! [`run_sharded`] first restricts the run to the read items, renumbered
//! densely in ascending order (`restrict`): every engine is sized by
//! what it watches and sweeps all of it, whatever the universe around
//! it. What stays global is what leaves an engine — labels, events,
//! errors, ring messages and the key of each item's draw stream — through
//! the engine's [`Scope`]; the per-item metrics are scattered back to
//! universe size at the end. The shards of a partitioned run are the same
//! restriction applied once more to each shard's part, so one coordinator
//! over the whole book is literally the one-shard case.
//!
//! # Partition
//!
//! The AAO decomposition (§III) solves independently per connected unit
//! of the query↔item graph, so [`mod@pq_core::partition`] packs whole
//! connected components onto `k` shards by estimated refresh/recompute
//! load and only splits a component when it alone exceeds a shard's
//! fair share. Each shard then runs the full single-coordinator engine
//! — its own timer wheel, SoA item table, cross-query
//! [`pq_poly::SharedPlan`] compiled over just its partition and solve
//! caches — over a dense projection of its items and queries, on its
//! own thread. Shards sharing a split component exchange messages over
//! bounded SPSC rings ([`crate::ring`]):
//!
//! * **home → remote**: accepted source refreshes of a shared item,
//!   forwarded with an independent per-destination loss/delay draw;
//! * **remote → home**: the remote's minimum DAB over its replica, so
//!   the home's installed source filter stays the global minimum.
//!
//! Synchronization is conservative (classic PDES): a shard starts tick
//! `T` only after every inbound peer has published completion of tick
//! `T - 1`, and releases only messages stamped with `sent_tick < T`, so
//! the replay order is deterministic regardless of thread interleaving.
//!
//! # Determinism contract (DESIGN.md §13)
//!
//! * `shards = 1` is the projection run by one engine with no rings:
//!   [`crate::run`] and [`run_sharded`] are the same call.
//! * Every stochastic draw comes from its item's own counter-based
//!   stream (keyed by global item id), so on a **clean** partition (no
//!   split components) fixed-seed [`SimMetrics`] are invariant across
//!   shard counts except `ingest_batches` (batching is per-coordinator)
//!   and `solver_seconds` (wall clock).
//! * Split components add real protocol work (forwarded refreshes draw
//!   extra delays, replicas quantize arrivals to tick barriers), so
//!   their metrics are shard-count-dependent by design — exactly like
//!   the paper's multiple-coordinator configuration (Fig. 8c).

use std::borrow::Cow;
use std::collections::BTreeSet;
use std::time::Instant;

use pq_core::coordinator::Scope;
use pq_core::{partition, PartitionInput, PartitionPlan};
use pq_obs::Obs;
use pq_poly::{ItemId, PolynomialQuery};

use crate::engine::{Engine, ShardCtx, ShardInlet, SimConfig, SimError};
use crate::metrics::SimMetrics;
use crate::ring::ring;

/// Slots per inter-shard ring. Senders block (draining their own
/// inbound) when a ring fills, so capacity only trades memory against
/// backpressure stalls.
const RING_CAPACITY: usize = 8192;

/// Per-shard outcome of a sharded run.
#[derive(Debug, Clone)]
pub struct ShardStat {
    /// Shard id.
    pub shard: u32,
    /// Queries assigned to this shard.
    pub n_queries: usize,
    /// Items held (home + replicas).
    pub n_items: usize,
    /// Replicated items among them (home on another shard).
    pub n_replicas: usize,
    /// Estimated load packed by the partitioner.
    pub load: f64,
    /// Wall-clock seconds the shard's engine ran, barrier waits
    /// included.
    pub busy_seconds: f64,
}

/// The result of [`run_sharded`]: merged metrics plus the partition and
/// per-shard execution statistics.
#[derive(Debug, Clone)]
pub struct ShardReport {
    /// Metrics merged over all shards, indexed by **global** query/item
    /// ids (scalars summed; `fidelity_samples` is the per-shard maximum
    /// since every shard samples the same ticks).
    pub metrics: SimMetrics,
    /// One entry per shard, ascending by shard id.
    pub shards: Vec<ShardStat>,
    /// Cross-shard item references (0 for a clean partition).
    pub cross_edges: usize,
    /// Connected components of the query↔item graph.
    pub n_components: usize,
}

impl ShardReport {
    /// True when no component had to be split.
    pub fn clean(&self) -> bool {
        self.cross_edges == 0
    }
}

/// `cfg` over `items` (global ids, ascending) and `queries` only, both
/// renumbered densely in the order given: local item `k` replays the
/// tape of `items[k]` through a shared handle, and each query reads the
/// local ids of its items, which must all be among `items`.
fn restrict<'q>(
    cfg: &SimConfig,
    items: &[u32],
    queries: impl Iterator<Item = &'q PolynomialQuery>,
) -> SimConfig {
    let mut local_of = vec![u32::MAX; cfg.traces.n_items()];
    for (local, &global) in items.iter().enumerate() {
        local_of[global as usize] = local as u32;
    }
    // Field by field, not `cfg.clone()`: that would copy the whole book
    // and every tape handle only to replace both.
    SimConfig {
        traces: cfg.traces.subset(items),
        queries: queries
            .map(|q| q.map_items(|i| ItemId(local_of[i.index()])))
            .collect(),
        strategy: cfg.strategy.clone(),
        ddm: cfg.ddm,
        rate_estimator: cfg.rate_estimator,
        delays: cfg.delays,
        mu_cost: cfg.mu_cost,
        seed: cfg.seed,
        shards: cfg.shards,
        fidelity_sample_every: cfg.fidelity_sample_every,
        loss_probability: cfg.loss_probability,
        gp: cfg.gp.clone(),
        threads: cfg.threads,
        audit: cfg.audit.clone(),
        audit_fault: cfg.audit_fault,
        slo: cfg.slo.clone(),
    }
}

/// Checks `cfg` and projects it onto the items its book reads: the
/// configuration engines are built from, and its local → global item
/// table. When every item is read `cfg` runs as it is — no copy of the
/// book — and the table is empty, which [`Scope`] reads as the identity.
fn project(cfg: &SimConfig) -> Result<(Cow<'_, SimConfig>, Vec<u32>), SimError> {
    // `NaN` fails the range test too.
    if !(0.0..=1.0).contains(&cfg.loss_probability) {
        return Err(SimError::BadLossProbability {
            value: cfg.loss_probability,
        });
    }
    let n_items = cfg.traces.n_items();
    let mut read = vec![false; n_items];
    for q in &cfg.queries {
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
    if items.len() == n_items {
        return Ok((Cow::Borrowed(cfg), Vec::new()));
    }
    let projected = restrict(cfg, &items, cfg.queries.iter());
    Ok((Cow::Owned(projected), items))
}

/// Folds one engine's metrics into the run's, in shard order: scalars
/// sum; `fidelity_samples` is a max (every engine samples the same
/// ticks); the per-query and per-item vectors scatter through the
/// engine's [`Scope`] to global ids.
fn merge(run: &mut SimMetrics, engine: &SimMetrics, scope: &Scope) {
    run.refreshes += engine.refreshes;
    run.recomputations += engine.recomputations;
    run.dab_change_messages += engine.dab_change_messages;
    run.user_notifications += engine.user_notifications;
    run.ingest_batches += engine.ingest_batches;
    run.lost_messages += engine.lost_messages;
    run.solver_seconds += engine.solver_seconds;
    run.fidelity_samples = run.fidelity_samples.max(engine.fidelity_samples);
    for (lq, &violations) in engine.per_query_violations.iter().enumerate() {
        let gq = scope.query(lq);
        run.per_query_violations[gq] += violations;
        run.per_query_recomputations[gq] += engine.per_query_recomputations[lq];
    }
    for (li, &refreshes) in engine.per_item_refreshes.iter().enumerate() {
        let gi = scope.item(li);
        run.per_item_refreshes[gi] += refreshes;
        run.per_item_recompute_triggers[gi] += engine.per_item_recompute_triggers[li];
    }
}

/// Runs `cfg` on `cfg.shards` coordinators and reports the run's metrics
/// with how it was split.
///
/// The run is first projected onto the items its book reads (see the
/// module docs). One shard is one engine on the calling thread; more
/// partition the projected book and run one engine per shard, each on
/// its own OS thread, merging their metrics in shard order.
pub fn run_sharded(cfg: &SimConfig, obs: &Obs) -> Result<ShardReport, SimError> {
    let k = cfg.shards.max(1);
    let (world, item_gid) = project(cfg)?;
    let world: &SimConfig = &world;
    // Projected → global ids.
    let projection = Scope {
        item_gid,
        ..Scope::default()
    };
    let n_items = world.traces.n_items();
    let n_queries = world.queries.len();
    let mut merged = SimMetrics::with_items(n_queries, cfg.traces.n_items());
    if k == 1 {
        // Time only `run()`, matching the k > 1 path where engines are
        // constructed (solver setup included) before the clock starts.
        let engine = Engine::new(world, obs.clone(), projection.clone(), None)?;
        let t0 = Instant::now();
        let metrics = engine.run()?;
        let busy_seconds = t0.elapsed().as_secs_f64();
        merge(&mut merged, &metrics, &projection);
        return Ok(ShardReport {
            metrics: merged,
            shards: vec![ShardStat {
                shard: 0,
                n_queries,
                n_items,
                n_replicas: 0,
                load: 0.0,
                busy_seconds,
            }],
            cross_edges: 0,
            n_components: 0,
        });
    }

    let plan = plan_for(world);

    // Membership: home items per shard, then replicas from cross edges.
    let mut shard_queries: Vec<Vec<u32>> = vec![Vec::new(); k];
    for (qi, &s) in plan.query_shard.iter().enumerate() {
        shard_queries[s as usize].push(qi as u32);
    }
    let mut shard_items: Vec<Vec<u32>> = vec![Vec::new(); k];
    for (i, &s) in plan.item_home.iter().enumerate() {
        shard_items[s as usize].push(i as u32);
    }
    for e in &plan.cross_edges {
        shard_items[e.remote as usize].push(e.item);
    }
    for items in &mut shard_items {
        items.sort_unstable();
        items.dedup();
    }

    // Rings: one SPSC pair per direction of every home↔remote relation.
    let mut directed: BTreeSet<(u32, u32)> = BTreeSet::new();
    for e in &plan.cross_edges {
        directed.insert((e.home, e.remote));
        directed.insert((e.remote, e.home));
    }
    let mut producers = std::collections::BTreeMap::new();
    let mut consumers = std::collections::BTreeMap::new();
    for &(from, to) in &directed {
        let (tx, rx) = ring(RING_CAPACITY);
        producers.insert((from, to), tx);
        consumers.insert((from, to), rx);
    }

    // Restrict the projection once more to each shard's part and assemble
    // its context. A shard left with nothing still runs: it keeps the
    // clock, so the run samples every tick whatever landed where.
    let mut shard_cfgs: Vec<SimConfig> = Vec::with_capacity(k);
    let mut shard_scopes: Vec<Scope> = Vec::with_capacity(k);
    let mut shard_ctxs: Vec<ShardCtx> = Vec::with_capacity(k);
    let subscribers = plan.subscribers();
    for s in 0..k {
        let items = &shard_items[s];
        let queries = shard_queries[s]
            .iter()
            .map(|&qi| &world.queries[qi as usize]);
        shard_cfgs.push(SimConfig {
            // Recompute fan-out workers divide across shard threads so a
            // partitioned run doesn't oversubscribe the machine.
            threads: (cfg.threads / k).max(1),
            // The audit budget divides too: K shards each shadow-evaluating
            // 1/K of the sample keep the global audit cost constant.
            audit: cfg.audit.as_ref().map(|a| a.per_shard(k)),
            audit_fault: cfg.audit_fault.and_then(|f| {
                shard_queries[s]
                    .binary_search(&(f.query as u32))
                    .ok()
                    .map(|lqi| crate::audit::AuditFault { query: lqi, ..f })
            }),
            ..restrict(world, items, queries)
        });
        // Shard-local → projected → global: the tables compose.
        let global = |&i: &u32| projection.item(i as usize) as u32;
        shard_scopes.push(Scope {
            query_gid: shard_queries[s].clone(),
            item_gid: items.iter().map(global).collect(),
            node: None,
        });

        let outbound_dests: Vec<u32> = directed
            .iter()
            .filter(|&&(from, _)| from == s as u32)
            .map(|&(_, to)| to)
            .collect();
        let inbound_srcs: Vec<u32> = directed
            .iter()
            .filter(|&&(_, to)| to == s as u32)
            .map(|&(from, _)| from)
            .collect();
        let ring_index = |dest: u32| -> usize {
            outbound_dests
                .binary_search(&dest)
                .expect("ring to a shard without a link")
        };
        let local_of = |item: u32| -> usize {
            items
                .binary_search(&item)
                .expect("an item of this shard's part")
        };
        let n_local = items.len();
        let mut exports: Vec<Vec<usize>> = vec![Vec::new(); n_local];
        for (item, remotes) in &subscribers {
            if plan.item_home[*item as usize] == s as u32 {
                exports[local_of(*item)] = remotes.iter().map(|&r| ring_index(r)).collect();
            }
        }
        let mut replica = vec![false; n_local];
        let mut home_ring = vec![None; n_local];
        for (li, &g) in items.iter().enumerate() {
            let home = plan.item_home[g as usize];
            if home != s as u32 {
                replica[li] = true;
                home_ring[li] = Some(ring_index(home));
            }
        }
        let outbound = outbound_dests
            .iter()
            .map(|&to| {
                producers
                    .remove(&(s as u32, to))
                    .expect("producer created for every directed pair")
            })
            .collect();
        let inbound = inbound_srcs
            .iter()
            .map(|&from| ShardInlet {
                src: from,
                rx: consumers
                    .remove(&(from, s as u32))
                    .expect("consumer created for every directed pair"),
                held: std::collections::VecDeque::new(),
            })
            .collect();
        shard_ctxs.push(ShardCtx {
            shard: s as u32,
            replica,
            exports,
            home_ring,
            outbound,
            inbound,
            remote_dab_min: vec![Vec::new(); n_local],
        });
    }

    // Construct every engine on this thread *before* any shard runs: a
    // solver failure here returns cleanly, whereas a failure after
    // peers started would strand them at a ring barrier.
    let mut engines: Vec<Engine<'_>> = Vec::with_capacity(k);
    for ((sc, scope), ctx) in shard_cfgs.iter().zip(&shard_scopes).zip(shard_ctxs) {
        engines.push(Engine::new(sc, obs.clone(), scope.clone(), Some(ctx))?);
    }

    // A split component needs live peers on both sides of its barrier,
    // so every shard gets its own thread.
    let runs: Vec<(Result<SimMetrics, SimError>, f64)> = std::thread::scope(|scope| {
        let handles: Vec<_> = engines
            .into_iter()
            .map(|engine| {
                scope.spawn(move || {
                    let t0 = Instant::now();
                    let result = engine.run();
                    (result, t0.elapsed().as_secs_f64())
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("shard thread panicked"))
            .collect()
    });

    let mut busy = Vec::with_capacity(k);
    for ((result, secs), scope) in runs.into_iter().zip(&shard_scopes) {
        busy.push(secs);
        merge(&mut merged, &result?, scope);
    }
    let shards = (0..k)
        .map(|s| ShardStat {
            shard: s as u32,
            n_queries: shard_queries[s].len(),
            n_items: shard_items[s].len(),
            n_replicas: shard_items[s]
                .iter()
                .filter(|&&g| plan.item_home[g as usize] != s as u32)
                .count(),
            load: plan.shard_loads[s],
            busy_seconds: busy[s],
        })
        .collect();
    Ok(ShardReport {
        metrics: merged,
        shards,
        cross_edges: plan.cross_edges.len(),
        n_components: plan.n_components,
    })
}

/// The partition a sharded run of `cfg` uses. It packs by the load
/// signals the optimizers use: estimated per-item refresh rates, and per
/// query the marginal cost of evaluating it — each shard compiles one
/// cross-query [`pq_poly::SharedPlan`] over its partition, so that cost
/// is dominated by the distinct monomials the query *introduces*;
/// already-shared monomials only add a scatter subscription.
fn plan_for(cfg: &SimConfig) -> PartitionPlan {
    let query_items: Vec<Vec<u32>> = cfg
        .queries
        .iter()
        .map(|q| q.items().iter().map(|i| i.0).collect())
        .collect();
    let item_load: Vec<f64> = cfg
        .rate_estimator
        .estimate_all(&cfg.traces)
        .into_iter()
        .map(|r| r.abs().max(1e-9))
        .collect();
    let query_load = pq_poly::shared_query_loads(cfg.queries.iter().map(|q| q.poly()));
    partition(
        &PartitionInput {
            query_items: &query_items,
            n_items: cfg.traces.n_items(),
            item_load: &item_load,
            query_load: &query_load,
        },
        cfg.shards.max(1),
    )
}

#[cfg(test)]
mod tests {
    use std::collections::VecDeque;

    use pq_ddm::{Trace, TraceSet};
    use pq_poly::PolynomialQuery;

    use super::*;
    use crate::delay::DelayConfig;

    /// The partitioner homes an item where one of its readers lives, but
    /// the engine does not rely on that: it sweeps every item it holds,
    /// so a home item whose only readers are on another shard keeps
    /// sampling the tape, pushing and forwarding.
    #[test]
    fn a_home_item_read_only_remotely_is_still_swept_and_forwarded() {
        // Global universe: x0 homed on shard 0, which has no query at
        // all; x1 and the one query x0*x1 live on shard 1.
        let ticks = 400;
        let x0 = Trace::sinusoid(20.0, 4.0, 300.0, ticks);
        let x1 = Trace::sinusoid(10.0, 2.0, 250.0, ticks);
        let query = PolynomialQuery::portfolio([(1.0, ItemId(0), ItemId(1))], 6.0).unwrap();
        let mut home_cfg = SimConfig::new(TraceSet::new(vec![x0.clone()]), Vec::new());
        let mut reader_cfg = SimConfig::new(TraceSet::new(vec![x0, x1]), vec![query]);
        for cfg in [&mut home_cfg, &mut reader_cfg] {
            cfg.delays = DelayConfig::zero();
            cfg.threads = 1;
        }
        let (to_reader, from_home) = ring(RING_CAPACITY);
        let (to_home, from_reader) = ring(RING_CAPACITY);
        let scope = |item_gid: Vec<u32>, query_gid: Vec<u32>| Scope {
            query_gid,
            item_gid,
            node: None,
        };
        let home_ctx = ShardCtx {
            shard: 0,
            replica: vec![false],
            exports: vec![vec![0]],
            home_ring: vec![None],
            outbound: vec![to_reader],
            inbound: vec![ShardInlet {
                src: 1,
                rx: from_reader,
                held: VecDeque::new(),
            }],
            remote_dab_min: vec![Vec::new()],
        };
        let reader_ctx = ShardCtx {
            shard: 1,
            replica: vec![true, false],
            exports: vec![Vec::new(), Vec::new()],
            home_ring: vec![Some(0), None],
            outbound: vec![to_home],
            inbound: vec![ShardInlet {
                src: 0,
                rx: from_home,
                held: VecDeque::new(),
            }],
            remote_dab_min: vec![Vec::new(), Vec::new()],
        };
        let home_scope = scope(vec![0], Vec::new());
        let reader_scope = scope(vec![0, 1], vec![0]);
        let home = Engine::new(&home_cfg, Obs::null(), home_scope, Some(home_ctx)).unwrap();
        let reader = Engine::new(&reader_cfg, Obs::null(), reader_scope, Some(reader_ctx)).unwrap();
        // Both sides of the ring barrier must be live at once.
        let (home_metrics, reader_metrics) = std::thread::scope(|scope| {
            let home = scope.spawn(move || home.run());
            let reader = scope.spawn(move || reader.run());
            (
                home.join().expect("home shard panicked").unwrap(),
                reader.join().expect("reader shard panicked").unwrap(),
            )
        });
        assert!(
            home_metrics.per_item_refreshes[0] > 0,
            "the home source never pushed x0"
        );
        assert!(
            reader_metrics.per_item_refreshes[0] > 0,
            "x0's pushes never reached the shard that reads it"
        );
    }
}
