//! How a configuration becomes engines: project it onto the items its
//! book reads, then — with more than one shard — pack the projected
//! book's connected components onto shards, run one coordinator per
//! shard, and merge the metrics deterministically.
//!
//! # Projection
//!
//! A source holds a filter only because some query reads its item, so
//! [`run_sharded`] first restricts the run to the read items, renumbered
//! densely in ascending order (`restrict`): every engine is sized by
//! what it watches and sweeps all of it, whatever the universe around
//! it. What stays global is what leaves an engine — labels, events,
//! errors and the key of each item's draw stream — through the engine's
//! [`Scope`]; the per-item metrics are scattered back to universe size
//! at the end. The shards of a partitioned run are the same restriction
//! applied once more to each shard's part, so one coordinator over the
//! whole book is literally the one-shard case.
//!
//! # Partition
//!
//! The AAO decomposition (§III) solves independently per connected unit
//! of the query↔item graph, so [`mod@pq_core::partition`] packs whole
//! connected components onto `k` shards by estimated refresh/recompute
//! load. A component is never split, however large: no query on one
//! shard reads an item on another, so shards exchange nothing. Each
//! shard runs the single-coordinator engine — its own event queue, SoA
//! item table, cross-query [`pq_poly::SharedPlan`] compiled over just
//! its components and solve caches — over a dense projection of its
//! items and queries, on its own thread.
//!
//! # Determinism contract (DESIGN.md §13)
//!
//! * `shards = 1` is the projection run by one engine: [`crate::run`]
//!   and [`run_sharded`] are the same call.
//! * Every stochastic draw comes from its item's own counter-based
//!   stream (keyed by global item id), so under service-free delays
//!   fixed-seed [`SimMetrics`] are invariant across shard counts in every
//!   field but `solver_seconds` (wall clock).
//! * With service times on, each shard's coordinator queues only its
//!   own refreshes, so metrics move with the packing. A book of one
//!   component runs whole on one shard and matches the one-shard run in
//!   every field but `solver_seconds` at any shard count.

use std::borrow::Cow;
use std::time::Instant;

use pq_core::coordinator::Scope;
use pq_core::{partition, PartitionInput, PartitionPlan};
use pq_obs::Obs;
use pq_poly::{ItemId, PolynomialQuery};

use crate::engine::{Engine, SimConfig, SimError};
use crate::metrics::SimMetrics;

/// Per-shard outcome of a sharded run.
#[derive(Debug, Clone)]
pub struct ShardStat {
    /// Shard id.
    pub shard: u32,
    /// Queries assigned to this shard.
    pub n_queries: usize,
    /// Items held.
    pub n_items: usize,
    /// Estimated load packed by the partitioner.
    pub load: f64,
    /// Wall-clock seconds the shard's engine ran.
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
    /// Connected components of the query↔item graph.
    pub n_components: usize,
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
        loss_probability: cfg.loss_probability,
        gp: cfg.gp.clone(),
        threads: cfg.threads,
        audit: cfg.audit.clone(),
        audit_fault: cfg.audit_fault,
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
        let engine = Engine::new(world, obs.clone(), projection.clone())?;
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
                load: 0.0,
                busy_seconds,
            }],
            n_components: 0,
        });
    }

    let plan = plan_for(world);
    let mut shard_queries: Vec<Vec<u32>> = vec![Vec::new(); k];
    for (qi, &s) in plan.query_shard.iter().enumerate() {
        shard_queries[s as usize].push(qi as u32);
    }
    // Ascending by construction: the projection's items in order.
    let mut shard_items: Vec<Vec<u32>> = vec![Vec::new(); k];
    for (i, &s) in plan.item_home.iter().enumerate() {
        shard_items[s as usize].push(i as u32);
    }

    // Restrict the projection once more to each shard's part. A shard
    // left with nothing still runs: it keeps the clock, so the run
    // samples every tick whatever landed where.
    let mut shard_cfgs: Vec<SimConfig> = Vec::with_capacity(k);
    let mut shard_scopes: Vec<Scope> = Vec::with_capacity(k);
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
    }

    // Construct every engine on this thread before any shard runs, so a
    // failed first solve returns before any thread starts.
    let mut engines: Vec<Engine<'_>> = Vec::with_capacity(k);
    for (sc, scope) in shard_cfgs.iter().zip(&shard_scopes) {
        engines.push(Engine::new(sc, obs.clone(), scope.clone())?);
    }
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
            load: plan.shard_loads[s],
            busy_seconds: busy[s],
        })
        .collect();
    Ok(ShardReport {
        metrics: merged,
        shards,
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
