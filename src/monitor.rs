//! A coordinator runtime for embedding accuracy-bounded monitoring.
//!
//! [`Monitor`] is the high-level API a downstream application uses: register
//! data items and polynomial queries, install DAB filters, then feed it
//! refreshes as they arrive. It maintains Condition 1 (every query within
//! its QAB whenever every item is within its filter), recomputes stale
//! assignments automatically, and reports exactly which filters must be
//! re-shipped to which sources.
//!
//! The discrete-event simulator in [`pq_sim`] exists to *evaluate* the
//! algorithms; `Monitor` is the piece you would deploy.

use pq_core::{
    default_recompute_threads, filter_changed, install_units, recompute_parallel,
    AssignmentStrategy, AssignmentUnit, DabError, FilterTable, PqHeuristic, RecomputeJob,
    SolveCache, SolveContext,
};
use pq_ddm::DataDynamicsModel;
use pq_gp::SolverOptions;
use pq_obs::{names, Counter, EventKind, Obs, ObsConfig, Watchdog};
use pq_poly::{
    ItemCatalog, ItemId, PolyError, Polynomial, PolynomialQuery, QueryId, SharedPlan, SharedView,
};
use std::sync::Arc;

/// Applied refreshes between two full re-evaluations of the maintained
/// query values. Each delta fold adds one rounding per updated value, so
/// the drift this bounds is about `512 × ulp(|P|)` — some nine orders of
/// magnitude inside any QAB worth monitoring.
const REBASE_EVERY: u32 = 512;

/// What happened when a refresh was applied.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RefreshOutcome {
    /// Queries whose value moved past their QAB, with the new values —
    /// push these to the interested users.
    pub notify: Vec<(QueryId, f64)>,
    /// Queries whose DABs were recomputed because the refresh invalidated
    /// their assignment.
    pub recomputed: Vec<QueryId>,
    /// Items whose installed filters changed — ship these to the sources.
    pub filter_changes: Vec<(ItemId, f64)>,
}

/// Builder-style configuration + runtime state for one coordinator.
#[derive(Debug)]
pub struct Monitor {
    catalog: ItemCatalog,
    values: Vec<f64>,
    rates: Vec<f64>,
    queries: Vec<PolynomialQuery>,
    /// The whole book compiled for delta maintenance (built at install).
    plan: SharedPlan,
    /// Every query's value at `values`, maintained through `plan`:
    /// `values` and `view` only ever move together.
    view: SharedView,
    /// Refreshes folded into `view` since its last full re-evaluation.
    applied_since_rebase: u32,
    last_notified: Vec<f64>,
    strategy: AssignmentStrategy,
    heuristic: PqHeuristic,
    ddm: DataDynamicsModel,
    /// Solver options carrying the attached telemetry handle and its
    /// pre-resolved per-solve handles; every GP solve starts from one
    /// clone.
    gp: SolverOptions,
    /// Per-query maintenance units (two under Half-and-Half, else one).
    units: Vec<Vec<AssignmentUnit>>,
    /// Every unit's installed assignment, item-major (built at install).
    filters: FilterTable,
    item_dabs: Vec<f64>,
    /// For each item index, the queries referencing it (built at install).
    item_queries: Vec<Vec<usize>>,
    /// Warm-start caches, one per (query, unit).
    cache: SolveCache,
    /// Max worker threads for recompute fan-out (1 = serial).
    threads: usize,
    installed: bool,
    /// Telemetry handle; threaded into every GP solve.
    obs: Obs,
    /// `dab.recompute` handles (the total, then one per query) and the
    /// `dab.recompute_trigger` handle of every item some query reads,
    /// resolved by [`Monitor::resolve_counters`] so a recompute records
    /// with relaxed adds instead of registry lookups.
    c_recompute: Arc<Counter>,
    lc_recompute_by_query: Vec<Arc<Counter>>,
    lc_trigger_by_item: Vec<Option<Arc<Counter>>>,
    /// Optional liveness watchdog, beaten on every applied refresh so the
    /// live exporter's `/health` can flag a wedged coordinator.
    watchdog: Option<Arc<Watchdog>>,
}

impl Default for Monitor {
    fn default() -> Self {
        Self::new()
    }
}

impl Monitor {
    /// A monitor with the paper's recommended defaults: Dual-DAB with
    /// `mu = 5`, Different-Sum for mixed signs, monotonic ddm.
    pub fn new() -> Self {
        let obs = Obs::null();
        Monitor {
            catalog: ItemCatalog::new(),
            values: Vec::new(),
            rates: Vec::new(),
            queries: Vec::new(),
            plan: SharedPlan::compile([]),
            view: SharedView::default(),
            applied_since_rebase: 0,
            last_notified: Vec::new(),
            strategy: AssignmentStrategy::DualDab { mu: 5.0 },
            heuristic: PqHeuristic::DifferentSum,
            ddm: DataDynamicsModel::Monotonic,
            gp: SolverOptions::default().observed_by(&obs),
            units: Vec::new(),
            filters: FilterTable::default(),
            item_dabs: Vec::new(),
            item_queries: Vec::new(),
            cache: SolveCache::new(),
            threads: default_recompute_threads(),
            installed: false,
            obs,
            c_recompute: Arc::default(),
            lc_recompute_by_query: Vec::new(),
            lc_trigger_by_item: Vec::new(),
            watchdog: None,
        }
    }

    /// Caps the recompute fan-out at `threads` worker threads (also capped
    /// at the machine's available parallelism). `1` forces the serial
    /// path; results are identical either way.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Attaches a telemetry handle: install/refresh outcomes and all DAB
    /// and GP solver timings are reported through it (see [`pq_obs`]).
    pub fn with_obs(mut self, obs: Obs) -> Self {
        self.gp = std::mem::take(&mut self.gp).observed_by(&obs);
        self.obs = obs;
        self.resolve_counters();
        self
    }

    /// Binds the refresh path's counters to the attached telemetry
    /// handle: once per [`Monitor::install`], and again if the handle is
    /// swapped afterwards. Only items some query reads can trigger a
    /// recomputation, so only they get a label.
    fn resolve_counters(&mut self) {
        self.c_recompute = self.obs.counter(names::DAB_RECOMPUTE);
        self.lc_recompute_by_query = (0..self.units.len())
            .map(|qi| {
                self.obs
                    .labeled_counter(names::DAB_RECOMPUTE, names::LABEL_QUERY, &qi.to_string())
            })
            .collect();
        self.lc_trigger_by_item = self
            .item_queries
            .iter()
            .enumerate()
            .map(|(i, readers)| {
                (!readers.is_empty()).then(|| {
                    self.obs.labeled_counter(
                        names::DAB_RECOMPUTE_TRIGGER,
                        names::LABEL_ITEM,
                        &i.to_string(),
                    )
                })
            })
            .collect();
    }

    /// Builds a telemetry handle from a configuration and attaches it.
    ///
    /// # Errors
    /// I/O errors from opening the configured JSONL trace file.
    pub fn with_obs_config(self, config: &ObsConfig) -> std::io::Result<Self> {
        Ok(self.with_obs(Obs::from_config(config)?))
    }

    /// The attached telemetry handle (null unless configured).
    pub fn obs(&self) -> &Obs {
        &self.obs
    }

    /// Arms a liveness watchdog: every applied refresh heartbeats it, and
    /// the handle is installed on the telemetry plane so the live
    /// exporter's `/health` reports `stalled` when no refresh has been
    /// applied for `stall_after`. Only meaningful for deployments with a
    /// steady refresh stream — an idle-by-design coordinator should not
    /// arm one. Call after [`Monitor::with_obs`] / `with_obs_config` so
    /// the watchdog lands on the final handle.
    pub fn with_watchdog(mut self, stall_after: std::time::Duration) -> Self {
        let watchdog = Arc::new(Watchdog::new(stall_after));
        self.obs.install_watchdog(watchdog.clone());
        self.watchdog = Some(watchdog);
        self
    }

    /// The armed watchdog, if any.
    pub fn watchdog(&self) -> Option<&Arc<Watchdog>> {
        self.watchdog.as_ref()
    }

    /// Replaces the assignment strategy (before or after `install`).
    pub fn with_strategy(mut self, strategy: AssignmentStrategy) -> Self {
        self.strategy = strategy;
        self.installed = false;
        self
    }

    /// Replaces the mixed-sign heuristic.
    pub fn with_heuristic(mut self, heuristic: PqHeuristic) -> Self {
        self.heuristic = heuristic;
        self.installed = false;
        self
    }

    /// Replaces the data-dynamics model.
    pub fn with_ddm(mut self, ddm: DataDynamicsModel) -> Self {
        self.ddm = ddm;
        self.installed = false;
        self
    }

    /// Registers a data item with its current value and estimated rate of
    /// change (per unit time). Re-registering a name updates it.
    pub fn add_item(&mut self, name: &str, value: f64, rate: f64) -> ItemId {
        let id = self.catalog.intern(name);
        if id.index() >= self.values.len() {
            self.values.resize(id.index() + 1, 0.0);
            self.rates.resize(id.index() + 1, 0.0);
        }
        self.values[id.index()] = value;
        self.rates[id.index()] = rate;
        self.installed = false;
        id
    }

    /// Looks up a registered item by name.
    pub fn item(&self, name: &str) -> Option<ItemId> {
        self.catalog.get(name)
    }

    /// Registers a query built from a [`PolynomialQuery`].
    pub fn add_query(&mut self, query: PolynomialQuery) -> QueryId {
        let id = QueryId(self.queries.len() as u32);
        self.last_notified.push(query.eval(&self.values));
        self.queries.push(query);
        self.installed = false;
        id
    }

    /// Registers a query from an expression string (item names are
    /// resolved/created in the monitor's catalog), e.g.
    /// `"3 ibm usd + 2 tcs inr"`.
    pub fn add_query_str(&mut self, expr: &str, qab: f64) -> Result<QueryId, PolyError> {
        let poly: Polynomial = pq_poly::parse_polynomial(expr, &mut self.catalog)?;
        if self.catalog.len() > self.values.len() {
            // Items first mentioned in the expression default to value 0 /
            // rate 0 until `add_item` updates them.
            self.values.resize(self.catalog.len(), 0.0);
            self.rates.resize(self.catalog.len(), 0.0);
        }
        Ok(self.add_query(PolynomialQuery::new(poly, qab)?))
    }

    /// The registered queries.
    pub fn queries(&self) -> &[PolynomialQuery] {
        &self.queries
    }

    /// Computes DAB assignments for every query and derives the installed
    /// per-item filters (EQI minimum rule). Returns the filters to ship.
    pub fn install(&mut self) -> Result<Vec<(ItemId, f64)>, DabError> {
        let _span = self.obs.timed(names::MONITOR_INSTALL);
        // Compiled first: its transients are freed before the solves
        // below reach their own peak.
        self.plan = SharedPlan::compile(self.queries.iter().map(PolynomialQuery::poly));
        self.view = SharedView::new(&self.plan, &self.values);
        self.applied_since_rebase = 0;
        // Index which queries reference each item (used by on_refresh to
        // touch only affected queries instead of scanning all of them).
        self.item_queries = vec![Vec::new(); self.values.len()];
        for (qi, q) in self.queries.iter().enumerate() {
            for it in q.items() {
                self.item_queries[it.index()].push(qi);
            }
        }
        let ctx = SolveContext {
            values: &self.values,
            rates: &self.rates,
            ddm: self.ddm,
            gp: self.gp.clone(),
        };
        // Attribute the install-time solves to their query.
        let attribute = |gp: &mut SolverOptions, qi: usize| gp.query = Some(qi as u32);
        (self.units, self.filters) = install_units(
            &self.queries,
            self.strategy,
            self.heuristic,
            ctx,
            self.values.len(),
            &mut self.cache,
            attribute,
        )
        .map_err(|e| e.source)?;
        self.item_dabs = (0..self.values.len())
            .map(|i| self.filters.min_primary(i))
            .collect();
        self.resolve_counters();
        self.installed = true;
        let filters: Vec<(ItemId, f64)> = self
            .item_dabs
            .iter()
            .enumerate()
            .filter(|(_, b)| b.is_finite())
            .map(|(i, &b)| (ItemId(i as u32), b))
            .collect();
        self.obs
            .emit_with(names::MONITOR_INSTALL, EventKind::Point, |e| {
                e.with("n_queries", self.queries.len())
                    .with("n_items", self.values.len())
                    .with("n_filters", filters.len())
            });
        Ok(filters)
    }

    /// True once `install` has run and no registration changed since.
    pub fn is_installed(&self) -> bool {
        self.installed
    }

    /// The filter currently installed for `item` (None if the item is not
    /// referenced by any query).
    pub fn filter(&self, item: ItemId) -> Option<f64> {
        self.item_dabs
            .get(item.index())
            .copied()
            .filter(|b| b.is_finite())
    }

    /// The coordinator's cached value of `item`.
    pub fn value(&self, item: ItemId) -> Option<f64> {
        self.values.get(item.index()).copied()
    }

    /// The cached value of query `q`: a load of the maintained value
    /// once installed, an evaluation over the registered values before.
    pub fn query_value(&self, q: QueryId) -> Option<f64> {
        let query = self.queries.get(q.index())?;
        Some(if self.installed {
            self.view.value(q.index())
        } else {
            query.eval(&self.values)
        })
    }

    /// Applies an arriving refresh: updates the cached value, determines
    /// user notifications, recomputes any invalidated assignments, and
    /// reports filter changes to ship back to sources.
    ///
    /// # Errors
    /// With the monitor's state untouched: [`DabError::NotInstalled`]
    /// when [`Monitor::install`] has not run since the last
    /// registration, [`DabError::UnknownItem`] for an item that was
    /// never registered, [`DabError::NonFiniteValue`] for a NaN or
    /// infinite `value`. After the value is applied: solver errors if a
    /// recomputation fails.
    pub fn on_refresh(&mut self, item: ItemId, value: f64) -> Result<RefreshOutcome, DabError> {
        if !self.installed {
            return Err(DabError::NotInstalled);
        }
        if item.index() >= self.values.len() {
            return Err(DabError::UnknownItem { item: item.0 });
        }
        if !value.is_finite() {
            return Err(DabError::NonFiniteValue {
                item: item.0,
                value,
            });
        }
        if let Some(watchdog) = &self.watchdog {
            watchdog.beat();
        }
        let old = std::mem::replace(&mut self.values[item.index()], value);
        self.view
            .apply(&self.plan, &self.values, item.index(), old, value);
        self.applied_since_rebase += 1;
        if self.applied_since_rebase == REBASE_EVERY {
            self.view.rebase(&self.plan, &self.values);
            self.applied_since_rebase = 0;
        }
        let mut outcome = RefreshOutcome::default();

        // Only queries referencing the item can notify; the per-item
        // index (built at install) avoids scanning every query.
        for &qi in &self.item_queries[item.index()] {
            let q = &self.queries[qi];
            let qv = self.view.value(qi);
            if (qv - self.last_notified[qi]).abs() > q.qab() {
                self.last_notified[qi] = qv;
                outcome.notify.push((QueryId(qi as u32), qv));
            }
        }
        // Every unit was valid before this refresh (a stale one is
        // re-solved below before the call returns), so only the
        // refreshed item can break one: scan its run of the table.
        let mut stale: Vec<(usize, usize)> = Vec::new();
        self.filters.stale_after(item.index(), value, &mut stale);
        debug_assert!(
            self.filters.scan_agrees(item.index(), &self.values, &stale),
            "a unit reading {item} was already invalid before its refresh"
        );
        if !stale.is_empty() {
            // Fan the independent unit recomputes out over worker threads.
            // Staleness depends only on each unit's own assignment and the
            // (already updated) values, so collecting first then solving in
            // parallel is equivalent to the old solve-as-you-scan loop; the
            // results merge back in collection order, keeping counters,
            // outcome lists and installed filters byte-identical to a
            // serial run.
            let mut jobs: Vec<RecomputeJob<'_>> = Vec::with_capacity(stale.len());
            for &(qi, ui) in &stale {
                // Attribute the solve to its query (`query=<qi>` labels).
                let gp = SolverOptions {
                    query: Some(qi as u32),
                    ..self.gp.clone()
                };
                let cache = self.cache.take(qi, ui);
                jobs.push(RecomputeJob {
                    qi,
                    ui,
                    unit: &self.units[qi][ui],
                    ctx: SolveContext {
                        values: &self.values,
                        rates: &self.rates,
                        ddm: self.ddm,
                        gp,
                    },
                    cache,
                });
            }
            let done = recompute_parallel(jobs, self.strategy, self.threads);
            let mut failure: Option<DabError> = None;
            for d in done {
                self.cache.put_back(d.qi, d.ui, d.cache);
                match d.result {
                    Ok(a) if failure.is_none() => {
                        self.filters.install(d.qi, d.ui, &a);
                        self.c_recompute.inc();
                        self.lc_recompute_by_query[d.qi].inc();
                        self.obs
                            .emit_with(names::DAB_RECOMPUTE, EventKind::Count, |e| {
                                e.with("query", d.qi)
                                    .with("unit", d.ui)
                                    .with("item", item.index())
                                    .with("reason", "validity")
                            });
                        let id = QueryId(d.qi as u32);
                        if outcome.recomputed.last() != Some(&id) {
                            outcome.recomputed.push(id);
                        }
                    }
                    result => {
                        // Not re-solved: the unit stays stale, so the next
                        // refresh of any of its items tries again.
                        self.filters.invalidate(d.qi, d.ui);
                        if let (Err(e), None) = (result, &failure) {
                            failure = Some(e);
                        }
                    }
                }
            }
            if let Some(e) = failure {
                return Err(e);
            }
        }
        // Attribution: this item's refresh forced recomputations.
        if !outcome.recomputed.is_empty() {
            if let Some(c) = &self.lc_trigger_by_item[item.index()] {
                c.inc();
            }
            self.obs
                .emit_with(names::DAB_RECOMPUTE_TRIGGER, EventKind::Count, |e| {
                    e.with("item", item.index())
                        .with("recomputes", outcome.recomputed.len())
                });
        }

        // Re-derive installed filters for the items of re-solved units —
        // the only ones whose minimum primary DAB can have moved.
        if !outcome.recomputed.is_empty() {
            let mut touched: Vec<u32> = stale
                .iter()
                .flat_map(|&(qi, ui)| self.filters.unit_items(qi, ui))
                .copied()
                .collect();
            touched.sort_unstable();
            touched.dedup();
            for i in touched {
                let m = self.filters.min_primary(i as usize);
                if filter_changed(self.item_dabs[i as usize], m) {
                    self.item_dabs[i as usize] = m;
                    outcome.filter_changes.push((ItemId(i), m));
                }
            }
        }
        self.obs
            .emit_with(names::MONITOR_REFRESH, EventKind::Point, |e| {
                e.with("item", item.index())
                    .with("value", value)
                    .with("notified", outcome.notify.len())
                    .with("recomputed", outcome.recomputed.len())
                    .with("filter_changes", outcome.filter_changes.len())
            });
        Ok(outcome)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn two_item_monitor() -> (Monitor, ItemId, ItemId, QueryId) {
        let mut m = Monitor::new();
        let x = m.add_item("x", 2.0, 1.0);
        let y = m.add_item("y", 2.0, 1.0);
        let q = m.add_query(PolynomialQuery::portfolio([(1.0, x, y)], 5.0).unwrap());
        m.install().unwrap();
        (m, x, y, q)
    }

    #[test]
    fn install_ships_finite_filters() {
        let (m, x, y, _) = two_item_monitor();
        assert!(m.is_installed());
        assert!(m.filter(x).unwrap() > 0.0);
        assert!(m.filter(y).unwrap() > 0.0);
    }

    #[test]
    fn refresh_within_range_neither_notifies_nor_recomputes() {
        let (mut m, x, _, _) = two_item_monitor();
        // A tiny change: inside the QAB and inside the validity range.
        let out = m.on_refresh(x, 2.01).unwrap();
        assert!(out.notify.is_empty());
        assert!(out.recomputed.is_empty());
        assert!(out.filter_changes.is_empty());
    }

    #[test]
    fn large_move_notifies_and_eventually_recomputes() {
        let (mut m, x, _, q) = two_item_monitor();
        // Jump x from 2 to 30: query value 4 -> 60, way past QAB 5, and far
        // outside any secondary range.
        let out = m.on_refresh(x, 30.0).unwrap();
        assert_eq!(out.notify, vec![(q, 60.0)]);
        assert_eq!(out.recomputed, vec![q]);
        assert!(!out.filter_changes.is_empty());
        assert_eq!(m.query_value(q), Some(60.0));
    }

    #[test]
    fn query_strings_parse_against_the_catalog() {
        let mut m = Monitor::new();
        m.add_item("ibm", 100.0, 0.5);
        m.add_item("usd", 80.0, 0.1);
        let q = m.add_query_str("2 ibm usd", 100.0).unwrap();
        m.install().unwrap();
        assert_eq!(m.query_value(q), Some(16000.0));
    }

    #[test]
    fn reinstall_required_after_new_query() {
        let (mut m, x, y, _) = two_item_monitor();
        m.add_query(PolynomialQuery::portfolio([(2.0, x, y)], 3.0).unwrap());
        assert!(!m.is_installed());
        m.install().unwrap();
        // The tighter second query shrinks the installed filters.
        assert!(m.filter(x).unwrap() > 0.0);
    }

    #[test]
    fn telemetry_reports_install_and_refresh_outcomes() {
        let (obs, ring) = Obs::ring(4096);
        let mut m = Monitor::new().with_obs(obs.clone());
        let x = m.add_item("x", 2.0, 1.0);
        let y = m.add_item("y", 2.0, 1.0);
        m.add_query(PolynomialQuery::portfolio([(1.0, x, y)], 5.0).unwrap());
        m.install().unwrap();
        m.on_refresh(x, 30.0).unwrap();

        let events = ring.events();
        assert!(events.iter().any(|e| e.target == names::MONITOR_INSTALL));
        let refresh = events
            .iter()
            .find(|e| e.target == names::MONITOR_REFRESH)
            .expect("refresh event");
        assert_eq!(refresh.field("recomputed"), Some(&pq_obs::Value::U64(1)));
        // The GP solver ran under the same registry.
        let snap = obs.snapshot();
        assert!(snap.histograms["gp.solve_ns"].count > 0);
        assert!(snap.histograms["monitor.install_ns"].count == 1);
        // Attribution: the recomputation and its GP solves carry query 0,
        // and the trigger is charged to the item that forced it.
        assert_eq!(snap.counters["dab.recompute"], 1);
        assert_eq!(snap.labeled["dab.recompute"].key, "query");
        assert_eq!(snap.labeled["dab.recompute"].values["0"], 1);
        assert_eq!(snap.labeled["dab.recompute_trigger"].key, "item");
        assert_eq!(snap.labeled["dab.recompute_trigger"].values["0"], 1);
        assert!(snap.labeled["gp.solve"].values["0"] >= 1);
    }

    #[test]
    fn watchdog_beats_on_refresh_and_lands_on_the_obs_handle() {
        let obs = Obs::null();
        let mut m = Monitor::new()
            .with_obs(obs.clone())
            .with_watchdog(std::time::Duration::from_secs(60));
        let x = m.add_item("x", 2.0, 1.0);
        let y = m.add_item("y", 2.0, 1.0);
        m.add_query(PolynomialQuery::portfolio([(1.0, x, y)], 5.0).unwrap());
        m.install().unwrap();
        use pq_obs::slo::WatchdogStatus;
        let installed = obs.watchdog().expect("watchdog installed on the handle");
        assert_eq!(installed.status(), WatchdogStatus::Disarmed, "no beat yet");
        m.on_refresh(x, 2.2).unwrap();
        assert_eq!(installed.status(), WatchdogStatus::Ok);
        // Deterministic stall check: far past the threshold, same episode.
        let far = pq_obs::now_ns() + 120_000_000_000;
        assert_eq!(installed.status_at(far), WatchdogStatus::Stalled);
    }

    #[test]
    fn non_finite_refreshes_are_rejected_before_any_state_changes() {
        let (mut m, x, y, q) = two_item_monitor();
        m.on_refresh(x, 2.5).unwrap();
        let before = (m.values.clone(), m.item_dabs.clone(), m.query_value(q));
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let err = m.on_refresh(y, bad).unwrap_err();
            assert!(
                matches!(err, DabError::NonFiniteValue { item, value }
                    if item == y.0 && value.to_bits() == bad.to_bits()),
                "{err}"
            );
            assert_eq!(
                (m.values.clone(), m.item_dabs.clone(), m.query_value(q)),
                before
            );
        }
        // The monitor keeps serving, from the state it had.
        let out = m.on_refresh(y, 2.01).unwrap();
        assert!(out.recomputed.is_empty());
    }

    #[test]
    fn misdirected_refreshes_are_typed_errors_that_touch_nothing() {
        let mut m = Monitor::new();
        let x = m.add_item("x", 2.0, 1.0);
        let y = m.add_item("y", 2.0, 1.0);
        let q = m.add_query(PolynomialQuery::portfolio([(1.0, x, y)], 5.0).unwrap());
        // Before install — whatever else is wrong with the call.
        for (item, value) in [(x, 3.0), (ItemId(7), 3.0), (x, f64::NAN)] {
            assert_eq!(m.on_refresh(item, value), Err(DabError::NotInstalled));
        }
        assert_eq!(m.query_value(q), Some(4.0));
        m.install().unwrap();
        m.on_refresh(x, 2.5).unwrap();
        let before = (m.values.clone(), m.item_dabs.clone(), m.query_value(q));
        // An unknown item is reported as such even with a bad value.
        for value in [3.0, f64::NAN] {
            assert_eq!(
                m.on_refresh(ItemId(2), value),
                Err(DabError::UnknownItem { item: 2 })
            );
        }
        assert_eq!(
            (m.values.clone(), m.item_dabs.clone(), m.query_value(q)),
            before
        );
        // A registration after install asks for a re-install again.
        m.add_item("z", 1.0, 1.0);
        assert_eq!(m.on_refresh(x, 2.6), Err(DabError::NotInstalled));
        assert_eq!(m.query_value(q), before.2);
        m.install().unwrap();
        assert!(m.on_refresh(x, 2.6).is_ok());
    }

    #[test]
    fn a_failed_recompute_is_retried_by_the_next_refresh_of_the_unit() {
        let (mut m, x, y, q) = two_item_monitor();
        // The GP needs positive data: the re-solve this refresh forces fails.
        assert!(m.on_refresh(x, -5.0).is_err());
        // y barely moves, but the unit is still owed a solve: retried
        // (and failing again, x being what it is) rather than skipped.
        assert!(m.on_refresh(y, 2.01).is_err());
        let out = m.on_refresh(x, 2.5).unwrap();
        assert_eq!(out.recomputed, vec![q]);
        assert!(m.on_refresh(y, 2.02).unwrap().recomputed.is_empty());
    }

    /// A mixed-sign query over items `0..5`: one to four terms (linear,
    /// square or bilinear) with coefficients of either sign.
    fn arb_query() -> impl Strategy<Value = PolynomialQuery> {
        let coef = (0.25f64..2.0, 0u32..2).prop_map(|(c, neg)| if neg == 1 { -c } else { c });
        let term = (coef, 0u32..5, 0u32..5, 0u32..3).prop_map(|(c, i, j, shape)| {
            let vars = if shape == 0 {
                vec![(ItemId(i), 1)]
            } else {
                vec![(ItemId(i), 1), (ItemId(j), 1)]
            };
            pq_poly::PTerm::new(c, vars).unwrap()
        });
        (proptest::collection::vec(term, 1..5), 0.05f64..0.5)
            .prop_map(|(terms, qab)| (Polynomial::from_terms(terms), qab))
            .prop_filter("reads an item", |(p, _)| !p.items().is_empty())
            .prop_map(|(p, qab)| PolynomialQuery::new(p, qab).unwrap())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        /// Over more than three rebase periods of random refreshes, the
        /// maintained values stay on `q.eval(values)` after every call,
        /// and the notifications are the ones a loop evaluating every
        /// reader from scratch produces.
        #[test]
        fn maintained_values_and_notifications_match_a_naive_replica(
            queries in proptest::collection::vec(arb_query(), 1..6),
            start in proptest::collection::vec(0.75f64..1.75, 5),
            moves in proptest::collection::vec(
                (0usize..5, -0.06f64..0.06),
                3 * REBASE_EVERY as usize + 40,
            ),
        ) {
            let mut m = Monitor::new().with_threads(1);
            for (i, &v) in start.iter().enumerate() {
                m.add_item(&format!("x{i}"), v, 0.05);
            }
            for q in &queries {
                m.add_query(q.clone());
            }
            m.install().unwrap();
            let mut values = start;
            let mut last: Vec<f64> = queries.iter().map(|q| q.eval(&values)).collect();
            for (item, step) in moves {
                values[item] = (values[item] + step).clamp(0.5, 2.0);
                let out = m.on_refresh(ItemId(item as u32), values[item]).unwrap();
                let mut want_notify = Vec::new();
                for (qi, q) in queries.iter().enumerate() {
                    let want = q.eval(&values);
                    let got = m.query_value(QueryId(qi as u32)).unwrap();
                    prop_assert!(
                        (got - want).abs() <= 1e-12 * want.abs().max(1.0),
                        "q{}: maintained {} vs evaluated {}", qi, got, want
                    );
                    if q.items().contains(&ItemId(item as u32))
                        && (want - last[qi]).abs() > q.qab()
                    {
                        last[qi] = want;
                        want_notify.push(QueryId(qi as u32));
                    }
                }
                let got_notify: Vec<QueryId> = out.notify.iter().map(|&(q, _)| q).collect();
                prop_assert_eq!(got_notify, want_notify);
                for (q, v) in out.notify {
                    prop_assert!((v - last[q.index()]).abs() <= 1e-12 * v.abs().max(1.0));
                }
            }
        }
    }

    #[test]
    fn condition1_holds_through_a_run() {
        // Feed a drifting series of refreshes; after each, every query
        // must stay within its QAB wherever the items sit inside their
        // installed filters around the monitor's values.
        let (mut m, x, y, _) = two_item_monitor();
        let mut vx = 2.0;
        let mut vy = 2.0;
        for step in 0..50 {
            if step % 2 == 0 {
                vx += 0.4;
                m.on_refresh(x, vx).unwrap();
            } else {
                vy += 0.3;
                m.on_refresh(y, vy).unwrap();
            }
            for q in m.queries() {
                let worst = q.poly().max_abs_deviation_over_box(&m.values, &m.item_dabs);
                assert!(worst <= q.qab() + 1e-6, "step {step}: {worst}");
            }
        }
    }
}
