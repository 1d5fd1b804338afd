//! The coordinator: the paper's one refresh-handling algorithm, once.
//!
//! A refresh arriving from a source runs the sequence of §III / §V-A:
//! move the cached value, notify the users whose query moved past its
//! QAB, re-anchor or else re-solve the units whose validity range the new
//! value broke, and re-derive the per-item filters (EQI minimum rule)
//! those solves can have moved. [`Coordinator`] is that sequence over
//! [`install_units`], [`FilterTable`], [`SolveCache`],
//! [`assign_unit_cached`] and [`filter_changed`] — and nothing about how
//! a refresh got here or where a filter change goes next: the deployable
//! monitor, the simulator's engine and the Fig. 8(c) tree each wrap one,
//! supply that transport, and read what happened from the returned
//! [`Outcome`].

use std::sync::Arc;
use std::time::Instant;

use pq_ddm::DataDynamicsModel;
use pq_gp::SolverOptions;
use pq_obs::{names, Counter, EventKind, Obs, Timer};
use pq_poly::{ItemId, PolynomialQuery, QueryId, SharedPlan, SharedView};

use crate::assignment::{
    reanchored_secondary, QueryAssignment, RangeKind, UnitColumns, ValidityRange,
};
use crate::cache::{filter_changed, SolveCache, UnitCache};
use crate::context::{SolveContext, RATE_FLOOR};
use crate::error::DabError;
use crate::filter_table::FilterTable;
use crate::heuristics::PqHeuristic;
use crate::install::{install_units, unit_items, InstallError};
use crate::strategy::{assign_unit_cached, assignment_units, AssignmentStrategy, AssignmentUnit};

/// Applied refreshes between two full re-evaluations of the maintained
/// query values. Each delta fold adds one rounding per updated value, so
/// the drift this bounds is about `512 × ulp(|P|)` — some nine orders of
/// magnitude inside any QAB worth monitoring.
pub const REBASE_EVERY: u32 = 512;

/// CSR item → readers: for every item, the queries whose polynomial
/// references it (ascending). Resolved once per book, so checking a
/// move's readers walks one contiguous run.
#[derive(Debug, Clone)]
pub struct ReaderIndex {
    /// `starts[i]..starts[i + 1]` is item `i`'s run of `queries`.
    starts: Vec<u32>,
    queries: Vec<u32>,
}

impl ReaderIndex {
    /// Indexes a book over `n_items` items; `query_items[q]` is query
    /// `q`'s distinct items ([`pq_poly::PolynomialQuery::items`]).
    ///
    /// # Panics
    /// Panics if a query references an item `>= n_items`.
    pub fn new<I: AsRef<[ItemId]>>(n_items: usize, query_items: &[I]) -> Self {
        let mut starts = vec![0u32; n_items + 1];
        for item in query_items.iter().flat_map(AsRef::as_ref) {
            starts[item.index() + 1] += 1;
        }
        for i in 0..n_items {
            starts[i + 1] += starts[i];
        }
        let mut cursor = starts.clone();
        let mut queries = vec![0u32; starts[n_items] as usize];
        for (qi, items) in query_items.iter().enumerate() {
            for item in items.as_ref() {
                let at = &mut cursor[item.index()];
                queries[*at as usize] = qi as u32;
                *at += 1;
            }
        }
        ReaderIndex { starts, queries }
    }

    /// The queries referencing `item`, ascending.
    #[inline]
    pub fn queries(&self, item: usize) -> &[u32] {
        &self.queries[self.starts[item] as usize..self.starts[item + 1] as usize]
    }
}

/// How a coordinator names its queries and items in telemetry. Ids
/// inside a coordinator are dense and local; events' fields and spans'
/// labels carry what the rest of the deployment calls them.
#[derive(Debug, Clone, Default)]
pub struct Scope {
    /// Local query id → global query id (empty: the ids are global).
    pub query_gid: Vec<u32>,
    /// Local item id → global item id (empty: the ids are global).
    pub item_gid: Vec<u32>,
    /// The coordinator's node in a dissemination tree: its
    /// `dab.recompute` events carry a `node` field.
    pub node: Option<u32>,
}

impl Scope {
    /// The global id of local query `qi`.
    pub fn query(&self, qi: usize) -> usize {
        self.query_gid.get(qi).map_or(qi, |&g| g as usize)
    }

    /// The global id of local item `item`.
    pub fn item(&self, item: usize) -> usize {
        self.item_gid.get(item).map_or(item, |&g| g as usize)
    }
}

/// How a coordinator solves and reports, whatever its book.
#[derive(Debug, Clone)]
pub struct Config {
    /// Every item's estimated rate of change, indexed by
    /// [`ItemId::index`].
    pub rates: Vec<f64>,
    /// Assumed data-dynamics model.
    pub ddm: DataDynamicsModel,
    /// Solver options of every solve, unattributed (each solve starts
    /// from one clone pointed at its query); the coordinator binds them
    /// to `obs`.
    pub gp: SolverOptions,
    /// Telemetry handle.
    pub obs: Obs,
    /// Telemetry naming.
    pub scope: Scope,
}

/// What reacting to one refresh did.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Outcome {
    /// Queries whose value moved past their QAB, with the new values —
    /// push these to the interested users.
    pub notify: Vec<(QueryId, f64)>,
    /// Queries whose DABs were recomputed because the refresh invalidated
    /// their assignment. From [`Coordinator::react`]: one entry per
    /// re-solved *unit*, so a Half-and-Half query can be listed twice in
    /// a row.
    pub recomputed: Vec<QueryId>,
    /// Queries whose invalidated DABs were re-anchored instead of
    /// recomputed: one entry per unit whose primary DABs were still
    /// feasible at the new values (see [`Coordinator::react`]). A
    /// re-anchor moves no filter.
    pub reanchored: Vec<QueryId>,
    /// Items whose installed filters changed — ship these to the sources.
    /// From [`Coordinator::react`]: unit by unit in solve order, so an
    /// item two re-solved units read can appear twice; its last entry is
    /// the filter now installed.
    pub filter_changes: Vec<(ItemId, f64)>,
    /// Wall-clock nanoseconds the re-solves took (0 when none ran).
    pub solve_ns: u64,
}

/// Telemetry handles resolved once per coordinator, so the refresh path
/// records with relaxed adds instead of registry lookups.
#[derive(Debug)]
struct Handles {
    /// `dab.recompute`.
    recompute: Arc<Counter>,
    eval_full: Arc<Counter>,
    eval_rebase: Arc<Counter>,
    scatter_fanout: Arc<Counter>,
    /// Span around one refresh's re-solves: the parent of their
    /// `dab.solve` spans.
    batch: Timer,
}

impl Handles {
    fn resolve(obs: &Obs) -> Self {
        Handles {
            recompute: obs.counter(names::DAB_RECOMPUTE),
            eval_full: obs.counter(names::EVAL_FULL),
            eval_rebase: obs.counter(names::EVAL_REBASE),
            scatter_fanout: obs.counter(names::EVAL_SCATTER_FANOUT),
            batch: obs.timer(names::SIM_RECOMPUTE_BATCH),
        }
    }
}

/// One coordinator's state and its refresh sequence (see the module
/// docs). Built installed: every unit holds an assignment valid at the
/// coordinator's values, and keeps one between calls.
#[derive(Debug)]
pub struct Coordinator {
    /// Every item's cached value, indexed by [`ItemId::index`].
    values: Vec<f64>,
    cfg: Config,
    /// What a stale unit is re-solved under.
    strategy: AssignmentStrategy,
    /// The whole book compiled for delta maintenance (never mutated).
    plan: Arc<SharedPlan>,
    /// Every query's value at `values`, maintained through `plan`:
    /// `values` and `view` only ever move together.
    view: SharedView,
    /// Refreshes folded into `view` since its last full re-evaluation.
    applied_since_rebase: u32,
    qabs: Vec<f64>,
    /// Last query value pushed to each user.
    last_notified: Vec<f64>,
    readers: ReaderIndex,
    /// Per-query maintenance units (two under Half-and-Half, else one).
    units: Vec<Vec<AssignmentUnit>>,
    /// Warm-start caches, one per (query, unit).
    cache: SolveCache,
    /// Every unit's installed assignment, item-major.
    filters: FilterTable,
    /// Per item, the filter its source was last told: `filters.min_primary`
    /// as of the last derivation that [`filter_changed`] called a change.
    installed: Vec<f64>,
    /// Scratch over every item: the points a re-anchor evaluates a
    /// unit's body at.
    point: Vec<f64>,
    install_ns: u64,
    handles: Handles,
}

impl Coordinator {
    /// Installs `queries` at `values` under `strategy` (+ `heuristic` for
    /// mixed-sign bodies): one first solve per unit through
    /// [`install_units`].
    ///
    /// # Errors
    /// Before anything is compiled, [`DabError::NonFiniteValue`] (with no
    /// query) for the first value the refresh gate would refuse; then the
    /// first solve that fails, with its query's index.
    ///
    /// # Panics
    /// Panics if a query reads an item `values` does not cover.
    pub fn install(
        queries: &[PolynomialQuery],
        strategy: AssignmentStrategy,
        heuristic: PqHeuristic,
        values: Vec<f64>,
        cfg: Config,
    ) -> Result<Self, InstallError> {
        admit_all(&values).map_err(|source| InstallError {
            query: None,
            source,
        })?;
        let mut this = Coordinator::unsolved(queries, strategy, values, cfg);
        let started = Instant::now();
        let scope = &this.cfg.scope;
        (this.units, this.filters, this.cache) = install_units(
            queries,
            strategy,
            heuristic,
            SolveContext {
                values: &this.values,
                rates: &this.cfg.rates,
                ddm: this.cfg.ddm,
                gp: this.cfg.gp.clone(),
            },
            |gp, qi| attribute(scope, gp, qi),
        )?;
        this.install_ns = started.elapsed().as_nanos() as u64;
        for qi in 0..this.units.len() {
            for ui in 0..this.units[qi].len() {
                this.debug_assert_eq2(qi, ui, "an install");
            }
        }
        this.seed_filters();
        Ok(this)
    }

    /// A coordinator whose first assignments were solved elsewhere
    /// (`assignments[q]`, one whole-query unit each: a joint AAO solve);
    /// a unit that goes stale is re-solved on its own under `strategy`.
    ///
    /// # Errors
    /// [`DabError::NonFiniteValue`] for the first value the refresh gate
    /// would refuse, with nothing built.
    ///
    /// # Panics
    /// Panics if a query reads an item `values` does not cover, or
    /// `assignments` is not one per query over the query's items.
    pub fn with_assignments(
        queries: &[PolynomialQuery],
        strategy: AssignmentStrategy,
        assignments: &[QueryAssignment],
        values: Vec<f64>,
        cfg: Config,
    ) -> Result<Self, DabError> {
        assert_eq!(queries.len(), assignments.len(), "one assignment per query");
        admit_all(&values)?;
        let mut this = Coordinator::unsolved(queries, strategy, values, cfg);
        this.units = queries
            .iter()
            .map(|q| assignment_units(q, strategy, PqHeuristic::DifferentSum))
            .collect();
        let unit_counts: Vec<usize> = this.units.iter().map(Vec::len).collect();
        this.cache.resize(&unit_counts);
        this.filters = FilterTable::new(this.values.len(), unit_items(&this.units));
        for (qi, assignment) in assignments.iter().enumerate() {
            this.install_unit(qi, assignment);
        }
        this.seed_filters();
        Ok(this)
    }

    /// The first derivation: every item's filter is its tightest DAB.
    fn seed_filters(&mut self) {
        for (item, installed) in self.installed.iter_mut().enumerate() {
            *installed = self.filters.min_primary(item);
        }
    }

    /// Everything but the units and their filters.
    fn unsolved(
        queries: &[PolynomialQuery],
        strategy: AssignmentStrategy,
        values: Vec<f64>,
        mut cfg: Config,
    ) -> Self {
        cfg.gp = cfg.gp.observed_by(&cfg.obs);
        // Compiled first: its transients are freed before the solves
        // reach their own peak.
        let plan = Arc::new(SharedPlan::compile(queries.iter().map(|q| q.poly())));
        let view = SharedView::new(&plan, &values);
        let query_items: Vec<&[ItemId]> = queries.iter().map(PolynomialQuery::items).collect();
        let readers = ReaderIndex::new(values.len(), &query_items);
        let handles = Handles::resolve(&cfg.obs);
        handles.eval_full.add(queries.len() as u64);
        cfg.obs
            .counter(names::EVAL_SHARED_TERMS)
            .add(plan.n_terms() as u64);
        Coordinator {
            installed: vec![f64::INFINITY; values.len()],
            point: vec![0.0; values.len()],
            values,
            cfg,
            strategy,
            last_notified: view.values().to_vec(),
            plan,
            view,
            applied_since_rebase: 0,
            qabs: queries.iter().map(PolynomialQuery::qab).collect(),
            readers,
            units: Vec::new(),
            cache: SolveCache::new(),
            filters: FilterTable::default(),
            install_ns: 0,
            handles,
        }
    }

    /// Swaps the telemetry handle: later solves, counts and events land
    /// on `obs`.
    pub fn observe(&mut self, obs: Obs) {
        self.cfg.gp = std::mem::take(&mut self.cfg.gp).observed_by(&obs);
        self.cfg.obs = obs;
        self.handles = Handles::resolve(&self.cfg.obs);
    }

    /// The cached item values.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Every query's maintained value at [`Coordinator::values`].
    pub fn query_values(&self) -> &[f64] {
        self.view.values()
    }

    /// Every query's QAB.
    pub fn qabs(&self) -> &[f64] {
        &self.qabs
    }

    /// The book's compiled evaluation plan (for evaluating it at other
    /// values than the coordinator's, on any thread).
    pub fn plan(&self) -> &Arc<SharedPlan> {
        &self.plan
    }

    /// The filter installed for `item` (`+∞`: none — no unit reads it).
    pub fn filter(&self, item: usize) -> f64 {
        self.installed[item]
    }

    /// Every finite installed filter, ascending by item.
    pub fn filters(&self) -> impl Iterator<Item = (ItemId, f64)> + '_ {
        let finite = |(i, &b): (usize, &f64)| b.is_finite().then_some((ItemId(i as u32), b));
        self.installed.iter().enumerate().filter_map(finite)
    }

    /// The assignment unit `u` of query `q` holds: its last solve or
    /// install, as its cache keeps it. A unit whose re-solve failed reads
    /// as that assignment with a `Box` of NaN secondaries, valid nowhere
    /// ([`FilterTable::invalidate`]).
    pub fn assignment(&self, q: usize, u: usize) -> QueryAssignment {
        let mut a = self.cache.unit(q, u).columns().assignment();
        if self.filters.is_invalidated(q, u) {
            a.validity = ValidityRange::Box(a.anchor.keys().map(|&i| (i, f64::NAN)).collect());
        }
        a
    }

    /// The cache of unit `u` of query `q`: its last assignment and its
    /// binding to its shape's template, if any.
    pub fn unit_cache(&self, q: usize, u: usize) -> &UnitCache {
        self.cache.unit(q, u)
    }

    /// How this coordinator names itself in telemetry.
    pub fn scope(&self) -> &Scope {
        &self.cfg.scope
    }

    /// Wall-clock nanoseconds [`Coordinator::install`]'s solves took.
    pub fn install_ns(&self) -> u64 {
        self.install_ns
    }

    /// Unattributed solve context at the coordinator's values (for a
    /// joint solve spanning every query).
    pub fn solve_context(&self) -> SolveContext<'_> {
        SolveContext {
            values: &self.values,
            rates: &self.cfg.rates,
            ddm: self.cfg.ddm,
            gp: self.cfg.gp.clone(),
        }
    }

    /// Fault injection for a fidelity auditor's tests: see
    /// [`SharedView::corrupt`].
    pub fn corrupt_query_value(&mut self, query: usize, amount: f64) {
        self.view.corrupt(query, amount);
    }

    /// The input gate: a refresh must name a known item and carry a
    /// finite value.
    fn admit(&self, item: usize, value: f64) -> Result<(), DabError> {
        admit(self.values.len(), item, value)
    }

    /// Moves `item` to `value` and folds the move into every query value
    /// that reads it. Nothing else reacts yet: follow with
    /// [`Coordinator::react`].
    ///
    /// # Errors
    /// With nothing moved: [`DabError::UnknownItem`],
    /// [`DabError::NonFiniteValue`].
    pub fn apply(&mut self, item: usize, value: f64) -> Result<(), DabError> {
        self.admit(item, value)?;
        let old = self.values[item];
        let fanout = self.view.apply(&self.plan, &self.values, item, old, value);
        self.values[item] = value;
        if fanout > 0 {
            self.handles.scatter_fanout.add(fanout);
        }
        self.applied_since_rebase += 1;
        if self.applied_since_rebase >= REBASE_EVERY {
            self.view.rebase(&self.plan, &self.values);
            self.applied_since_rebase = 0;
            self.handles.eval_rebase.inc();
            self.handles.eval_full.add(self.qabs.len() as u64);
        }
        Ok(())
    }

    /// Reacts to `item` having moved (by [`Coordinator::apply`]):
    /// notifications for its readers past their QAB, then every unit its
    /// new value invalidated is re-anchored or re-solved, and the filter
    /// changes those solves caused are returned. `at` stamps the emitted
    /// events with the caller's clock.
    ///
    /// A stale Dual-DAB unit (a `Box` range) is first tried for a
    /// re-anchor: while its primary DABs `b`, with its secondary DABs `c`
    /// shrunk to `c' = max(t·c, b)` (`t` of `1, ½, ¼, ⅛` down to the
    /// floor `max_j b_j / c_j`, then the floor itself), are still a
    /// feasible point of its own program at the current values `W`,
    /// `P(W + c' + b) − P(W + c') ≤ B`, the unit is anchored at `W`
    /// with secondary DABs `c'` instead of solved. No filter moves, so
    /// nothing is shipped; it counts in [`Outcome::reanchored`], not as a
    /// recomputation, and emits a `dab.reanchor` event. Every other stale
    /// unit is re-solved.
    ///
    /// # Errors
    /// The first re-solve that failed, with its query's index. The value
    /// stays applied. Every stale unit that solved is installed, and the
    /// filters it moved count as told, but their filter changes are
    /// dropped with the `Err`, so no source hears of them. Only the units
    /// that failed are marked stale, so the next refresh of any of their
    /// items tries them again. A failure that degrades instead is
    /// ROADMAP.md item 1.
    pub fn react(&mut self, item: usize, at: Option<f64>) -> Result<Outcome, InstallError> {
        let mut outcome = Outcome::default();
        for &qi in self.readers.queries(item) {
            let qi = qi as usize;
            let qv = self.view.value(qi);
            if (qv - self.last_notified[qi]).abs() > self.qabs[qi] {
                self.last_notified[qi] = qv;
                outcome.notify.push((QueryId(qi as u32), qv));
            }
        }
        // Every unit was valid before this refresh (a stale one is
        // re-anchored, re-solved or marked before the call returns), so
        // only the refreshed item can break one: scan its run of the
        // table.
        let mut stale = Vec::new();
        self.filters
            .stale_after(item, self.values[item], &mut stale);
        debug_assert!(
            self.filters.scan_agrees(item, &self.values, &stale),
            "a unit reading x{item} was already invalid before its refresh"
        );
        if !stale.is_empty() {
            self.resolve(&stale, item, at, &mut outcome)?;
        }
        if !outcome.recomputed.is_empty() {
            // Attribution: this item's refresh forced recomputations.
            let Config { obs, scope, .. } = &self.cfg;
            obs.emit_with(names::DAB_RECOMPUTE_TRIGGER, EventKind::Count, |e| {
                let e = e.with("item", scope.item(item));
                stamp(e.with("recomputes", outcome.recomputed.len()), at)
            });
        }
        Ok(outcome)
    }

    /// Re-anchors or re-solves `stale` in unit order on this thread, each
    /// unit in place in its own cache, installing each and re-deriving
    /// the filters of a re-solved unit's items before the next. A unit's
    /// solve reads only the unit, its cache and the already-updated
    /// values, so no install of the batch moves another's solve.
    fn resolve(
        &mut self,
        stale: &[(usize, usize)],
        item: usize,
        at: Option<f64>,
        outcome: &mut Outcome,
    ) -> Result<(), InstallError> {
        let _batch = self.handles.batch.start(&self.cfg.obs);
        let mut failure: Option<InstallError> = None;
        for &(qi, ui) in stale {
            let unit = &self.units[qi][ui];
            let columns = &mut self.cache.unit_mut(qi, ui).columns;
            if let Some(rung) = reanchor(unit, &self.values, &self.cfg, columns, &mut self.point) {
                self.filters.write(qi, ui, columns);
                self.note_reanchor(qi, ui, item, rung, at);
                outcome.reanchored.push(QueryId(qi as u32));
                continue;
            }
            let mut gp = self.cfg.gp.clone();
            attribute(&self.cfg.scope, &mut gp, qi);
            let ctx = SolveContext {
                values: &self.values,
                rates: &self.cfg.rates,
                ddm: self.cfg.ddm,
                gp,
            };
            let started = Instant::now();
            let solved = assign_unit_cached(
                &self.units[qi][ui],
                &ctx,
                self.strategy,
                self.cache.unit_mut(qi, ui),
            );
            outcome.solve_ns += started.elapsed().as_nanos() as u64;
            match solved {
                Ok(columns) => {
                    self.filters.write(qi, ui, columns);
                    self.debug_assert_eq2(qi, ui, "a re-solve");
                    self.note_recompute(qi, Some((ui, item)), "validity", at);
                    outcome.recomputed.push(QueryId(qi as u32));
                    // The unit's items are the only ones whose minimum
                    // primary DAB this install can have moved.
                    for &i in self.filters.unit_items(qi, ui) {
                        let item = i as usize;
                        let new = self.filters.min_primary(item);
                        if rederive(&mut self.installed[item], new) {
                            outcome.filter_changes.push((ItemId(i), new));
                        }
                    }
                }
                Err(source) => {
                    // Not re-solved: the unit stays stale, so the next
                    // refresh of any of its items tries again.
                    self.filters.invalidate(qi, ui);
                    failure.get_or_insert(InstallError {
                        query: Some(qi),
                        source,
                    });
                }
            }
        }
        failure.map_or(Ok(()), Err)
    }

    /// [`Coordinator::apply`] then [`Coordinator::react`]: one arriving
    /// refresh, start to finish.
    ///
    /// # Errors
    /// Either step's, without the failed query's index.
    pub fn on_refresh(&mut self, item: usize, value: f64) -> Result<Outcome, DabError> {
        self.apply(item, value)?;
        self.react(item, None).map_err(|e| e.source)
    }

    /// Installs a joint solve's assignments (`per_query[q]` for unit 0 of
    /// query `q`) over the current ones, counting one `reason`
    /// recomputation per query. Follow with [`Coordinator::rederive`].
    pub fn install_joint(
        &mut self,
        per_query: &[QueryAssignment],
        reason: &'static str,
        at: Option<f64>,
    ) {
        for (qi, assignment) in per_query.iter().enumerate() {
            self.install_unit(qi, assignment);
            self.note_recompute(qi, None, reason, at);
        }
    }

    /// Writes `assignment` for unit 0 of query `qi` into the unit's
    /// cache, as a solve would, and from there into the table.
    fn install_unit(&mut self, qi: usize, assignment: &QueryAssignment) {
        let columns = &mut self.cache.unit_mut(qi, 0).columns;
        columns.write_assignment(self.units[qi][0].items(), assignment);
        self.filters.write(qi, 0, columns);
    }

    /// Counts one recomputation of query `qi` and emits its event:
    /// `cause` is the re-solved unit and the item whose refresh broke it,
    /// when one did.
    fn note_recompute(
        &self,
        qi: usize,
        cause: Option<(usize, usize)>,
        reason: &'static str,
        at: Option<f64>,
    ) {
        self.handles.recompute.inc();
        let Config { obs, scope, .. } = &self.cfg;
        obs.emit_with(names::DAB_RECOMPUTE, EventKind::Count, |e| {
            let e = match scope.node {
                Some(c) => e.with("node", c),
                None => e,
            };
            let e = e.with("query", scope.query(qi));
            let e = match cause {
                Some((unit, item)) => e.with("unit", unit).with("item", scope.item(item)),
                None => e,
            };
            stamp(e.with("reason", reason), at)
        });
    }

    /// Emits the `dab.reanchor` event of unit `ui` of query `qi`, which
    /// the refresh of `item` broke and which was re-anchored at `rung`.
    fn note_reanchor(&self, qi: usize, ui: usize, item: usize, rung: Rung, at: Option<f64>) {
        let Config { obs, scope, .. } = &self.cfg;
        obs.emit_with(names::DAB_REANCHOR, EventKind::Count, |e| {
            let e = match scope.node {
                Some(c) => e.with("node", c),
                None => e,
            };
            let e = e.with("query", scope.query(qi)).with("unit", ui);
            let e = e.with("item", scope.item(item)).with("scale", rung.t);
            stamp(e.with("floor", rung.floor), at)
        });
    }

    /// Asserts, in debug builds, that unit `ui` of query `qi` as `solve`
    /// just left it keeps Eq. 2 at the current values ([`eq2_holds`]), so
    /// every certified stop is checked there.
    fn debug_assert_eq2(&mut self, qi: usize, ui: usize, solve: &str) {
        if cfg!(debug_assertions) {
            let (unit, columns) = (&self.units[qi][ui], self.cache.unit(qi, ui).columns());
            assert!(
                eq2_holds(
                    unit,
                    columns,
                    &self.values,
                    1.0,
                    EQ2_ROUNDING,
                    &mut self.point
                ),
                "query {qi} unit {ui}: {solve} broke Eq. 2"
            );
        }
    }

    /// Re-derives the installed filter of each of `items`, returning the
    /// ones that changed, in order.
    pub fn rederive(&mut self, items: impl IntoIterator<Item = usize>) -> Vec<(ItemId, f64)> {
        let mut changes = Vec::new();
        for item in items {
            let new = self.filters.min_primary(item);
            if rederive(&mut self.installed[item], new) {
                changes.push((ItemId(item as u32), new));
            }
        }
        changes
    }
}

/// The input gate over a book of `n_items` items: a value must name a
/// known item and be finite.
fn admit(n_items: usize, item: usize, value: f64) -> Result<(), DabError> {
    if item >= n_items {
        return Err(DabError::UnknownItem { item: item as u32 });
    }
    if !value.is_finite() {
        return Err(DabError::NonFiniteValue {
            item: item as u32,
            value,
        });
    }
    Ok(())
}

/// [`admit`] over every value a coordinator is built at.
fn admit_all(values: &[f64]) -> Result<(), DabError> {
    (values.iter().enumerate()).try_for_each(|(item, &value)| admit(values.len(), item, value))
}

/// The secondary-DAB scales `t` a stale `Box` unit is re-anchored at,
/// tried in order, down to the unit's floor, before it is re-solved.
const REANCHOR_SCALES: [f64; 4] = [1.0, 0.5, 0.25, 0.125];

/// The scale a stale unit was re-anchored at: its secondary DABs are now
/// `max(t·c, b)`. `floor` when `t` is the unit's floor `max_j b_j / c_j`
/// rather than one of [`REANCHOR_SCALES`].
#[derive(Debug, Clone, Copy, PartialEq)]
struct Rung {
    t: f64,
    floor: bool,
}

/// Re-anchors `columns`, the stale assignment of `unit`, at `values`
/// when its primary DABs `b` are still a feasible point of the unit's
/// Dual-DAB program there (§III-A.2, Eq. 2); the scale it used, when it
/// did. Only a `Box` assignment is tried, and only while `W`, `values`
/// on the unit's coupled items (`c < +∞`, the ones whose value enters
/// the program's data), is non-negative; the refresh gate keeps it
/// finite. The rungs are the `t` of [`REANCHOR_SCALES`] at or above the
/// floor `t_min = max_j b_j / c_j` over coupled items, then `t_min`
/// itself: at each the box is `c' = max(t·c, b)`, so the program's
/// `b ≤ c` row holds bit for bit, and the test is
/// `P(W + c' + b) − P(W + c') ≤ B` on the unit's body `P` and QAB `B`,
/// an uncoupled item entering with `c' = 0`: its terms are linear, so
/// its value moves nothing. At the first rung that passes, the unit is
/// anchored at `W` with secondary DABs `c'`, its primary DABs kept, and
/// its recompute rate set to the model's `R` at `c'`. That point is
/// feasible for the program at `W`, so it is valid over
/// `[min(0, W − c'), W + c']` as a solve there would be (DESIGN.md §10,
/// "Validity invariant"). `point` is scratch over every item.
fn reanchor(
    unit: &AssignmentUnit,
    values: &[f64],
    cfg: &Config,
    columns: &mut UnitColumns,
    point: &mut [f64],
) -> Option<Rung> {
    if columns.kind() != RangeKind::Box {
        return None;
    }
    let items = columns.items();
    let cells = || items.iter().zip(columns.secondary()).zip(columns.primary());
    let coupled = || cells().filter(|((_, &c), _)| c != f64::INFINITY);
    if !coupled().all(|((item, _), _)| values[item.index()] >= 0.0) {
        return None;
    }
    let mut floor = 0.0_f64;
    for ((_, &c), &b) in coupled() {
        // A NaN ratio (a NaN cell, or `b = c = 0`) has no floor: no rung.
        let need = b / c;
        if need.is_nan() {
            return None;
        }
        floor = floor.max(need);
    }
    let scales = (REANCHOR_SCALES.into_iter())
        .take_while(|&t| t >= floor)
        .map(|t| Rung { t, floor: false });
    let own_rung = 0.0 < floor && floor <= 1.0 && !REANCHOR_SCALES.contains(&floor);
    let at_floor = own_rung.then_some(Rung {
        t: floor,
        floor: true,
    });
    let rung = (scales.chain(at_floor))
        .find(|rung| eq2_holds(unit, columns, values, rung.t, 0.0, point))?;
    // The model's R at the shrunk box: its fastest escape
    // (`rate(λ_j, c_j) ≤ R` binds at the program's optimum).
    let mut recompute_rate = 0.0_f64;
    for ((item, &c), &b) in coupled() {
        let lambda = cfg.rates[item.index()].max(RATE_FLOOR);
        let escape = cfg
            .ddm
            .refresh_rate(lambda, reanchored_secondary(rung.t, c, b));
        recompute_rate = recompute_rate.max(escape);
    }
    columns.reanchor(values, rung.t, recompute_rate);
    Some(rung)
}

/// The one Eq. 2 predicate (§III-A.2): whether `columns`, an assignment
/// of `unit`, keeps the unit's QAB `B` on its body `P` when anchored at
/// `values` (item-indexed). A `Box` unit passes when
/// `P(W + c' + b) − P(W + c') ≤ B` with `W = values` and each coupled
/// item's secondary DAB `c` read at scale `t`, `c' = max(t·c, b)` (an
/// uncoupled item, `c = +∞`, enters with `c' = 0`: its terms are linear,
/// so its value moves nothing); an `AnchorOnly` unit when
/// `P(V + b) − P(V) ≤ B` with `V = values`; an `Always` unit always.
/// [`reanchor`] decides by it exactly (`rounding = 0`); every install
/// and re-solve asserts it at `t = 1` in debug builds, allowing
/// [`EQ2_ROUNDING`]. `rounding` widens `B` by that share of
/// `P(W + c' + b)`. `point` is scratch over every item.
pub(crate) fn eq2_holds(
    unit: &AssignmentUnit,
    columns: &UnitColumns,
    values: &[f64],
    t: f64,
    rounding: f64,
    point: &mut [f64],
) -> bool {
    let kind = columns.kind();
    if kind == RangeKind::Always {
        return true;
    }
    let cells = || {
        (columns.items().iter())
            .zip(columns.secondary())
            .zip(columns.primary())
    };
    let mut body_at = |with_b: bool| {
        for ((item, &c), &b) in cells() {
            let shift = match kind {
                RangeKind::Box if c != f64::INFINITY => reanchored_secondary(t, c, b),
                _ => 0.0,
            };
            let corner = values[item.index()] + shift;
            point[item.index()] = if with_b { corner + b } else { corner };
        }
        unit.body.eval(point)
    };
    let top = body_at(true);
    top - body_at(false) <= unit.qab + rounding * top.abs()
}

/// The rounding a solved assignment is asserted to meet Eq. 2 within,
/// relative to `P(W + c' + b)` ([`eq2_holds`]): a closed-form unit meets
/// it with equality, and the body's two evaluations then round it over
/// by an ulp.
pub(crate) const EQ2_ROUNDING: f64 = 1e-12;

/// Moves an installed filter to its newly derived width when
/// [`filter_changed`] calls that a change; true when it did.
fn rederive(installed: &mut f64, new: f64) -> bool {
    let changed = filter_changed(*installed, new);
    if changed {
        *installed = new;
    }
    changed
}

/// Attributes `gp` to query `qi`: GP solves under it carry the query's
/// id in `scope` on their events and timing spans, as its
/// `dab.recompute` events do.
fn attribute(scope: &Scope, gp: &mut SolverOptions, qi: usize) {
    gp.query = Some(scope.query(qi) as u32);
}

/// Adds the caller's clock to an event, when it has one.
fn stamp(e: pq_obs::Event, at: Option<f64>) -> pq_obs::Event {
    match at {
        Some(t) => e.with("t", t),
        None => e,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn x(i: u32) -> ItemId {
        ItemId(i)
    }

    fn config(n_items: usize, obs: &Obs) -> Config {
        Config {
            rates: vec![1.0; n_items],
            ddm: DataDynamicsModel::Monotonic,
            gp: crate::dab_solver_options(),
            obs: obs.clone(),
            scope: Scope::default(),
        }
    }

    const DUAL: AssignmentStrategy = AssignmentStrategy::DualDab { mu: 5.0 };

    /// `x0 x1 : 5` at `(2, 2)`.
    fn one_product(obs: &Obs) -> Coordinator {
        let q = PolynomialQuery::portfolio([(1.0, x(0), x(1))], 5.0).unwrap();
        let (values, cfg) = (vec![2.0, 2.0], config(2, obs));
        Coordinator::install(&[q], DUAL, PqHeuristic::DifferentSum, values, cfg).unwrap()
    }

    #[test]
    fn reader_index_lists_each_items_queries() {
        // q0 reads x0, x1; q1 reads x1, x2; q2 reads nothing; x3 is
        // never read.
        let items = vec![vec![x(0), x(1)], vec![x(1), x(2)], Vec::new()];
        let idx = ReaderIndex::new(4, &items);
        assert_eq!(idx.queries(0), &[0]);
        assert_eq!(idx.queries(1), &[0, 1]);
        assert_eq!(idx.queries(2), &[1]);
        assert!(idx.queries(3).is_empty());
    }

    #[test]
    fn a_failed_recompute_is_retried_by_the_next_refresh_of_the_unit() {
        let mut c = one_product(&Obs::null());
        // The GP needs positive data: the re-solve this refresh forces
        // fails, naming its query; the value stays applied.
        c.apply(0, -5.0).unwrap();
        assert_eq!(c.react(0, None).unwrap_err().query, Some(0));
        assert_eq!(c.values()[0], -5.0);
        // x1 barely moves, but the unit is still owed a solve: retried
        // (and failing again, x0 being what it is) rather than skipped.
        assert!(c.on_refresh(1, 2.01).is_err());
        // Far enough up that the DABs the unit held before it failed no
        // longer fit there: re-solved, not re-anchored.
        let out = c.on_refresh(0, 20.0).unwrap();
        assert_eq!(out.recomputed, vec![QueryId(0)]);
        assert!(out.reanchored.is_empty());
        assert!(c.on_refresh(1, 2.02).unwrap().recomputed.is_empty());
    }

    /// An item every query reads only linearly enters no deviation
    /// coefficient, so a negative value on it is data like any other:
    /// x1 moves to −3.28, then x0 moves far enough to stale the units
    /// that read both. Every refresh succeeds under either strategy and
    /// heuristic, and the worst corner of the filters keeps every QAB.
    #[test]
    fn a_negative_value_on_a_linear_only_item_breaks_no_re_solve() {
        let term = |c: f64, vars: &[(u32, u32)]| {
            pq_poly::PTerm::new(c, vars.iter().map(|&(i, p)| (x(i), p))).unwrap()
        };
        let body = |terms: Vec<_>| pq_poly::Polynomial::from_terms(terms);
        let queries = [
            body(vec![term(1.0, &[(0, 1), (2, 1)]), term(1.0, &[(1, 1)])]),
            body(vec![term(1.0, &[(2, 1), (3, 1)]), term(0.5, &[(1, 1)])]),
            // Mixed sign: the heuristics split it.
            body(vec![
                term(1.0, &[(0, 1), (3, 1)]),
                term(-0.5, &[(2, 2)]),
                term(2.0, &[(1, 1)]),
            ]),
        ];
        let queries: Vec<_> = (queries.into_iter())
            .map(|p| PolynomialQuery::new(p, 0.4).unwrap())
            .collect();
        for strategy in [DUAL, AssignmentStrategy::OptimalRefresh] {
            for heuristic in [PqHeuristic::HalfAndHalf, PqHeuristic::DifferentSum] {
                let (values, cfg) = (vec![2.0; 4], config(4, &Obs::null()));
                let mut c =
                    Coordinator::install(&queries, strategy, heuristic, values, cfg).unwrap();
                let mut recomputed = 0;
                for (item, value) in [(1, -3.28), (0, 6.0), (3, 0.5)] {
                    let out = c.on_refresh(item, value);
                    let out = out.unwrap_or_else(|e| panic!("{strategy} / {heuristic:?}: {e}"));
                    recomputed += out.recomputed.len();
                    let filters: Vec<f64> = (0..4).map(|i| c.filter(i)).collect();
                    for q in &queries {
                        let worst = q.poly().max_abs_deviation_over_box(c.values(), &filters);
                        assert!(worst <= q.qab() * (1.0 + 1e-6), "{strategy}: {worst}");
                    }
                }
                assert!(
                    recomputed > 0,
                    "{strategy} / {heuristic:?} re-solved nothing"
                );
            }
        }
    }

    /// The solves `ring` recorded: one `gp.solve_ns` span each.
    fn solves(ring: &pq_obs::RingBufferSubscriber) -> usize {
        (ring.events().iter())
            .filter(|e| e.target == "gp.solve_ns")
            .count()
    }

    /// A rise past a unit's box top, with its partner fallen far enough
    /// that the primary DABs still fit at the new values: the unit is
    /// re-anchored there at one of the scales, with no solve, no filter
    /// change and no recomputation counted.
    #[test]
    fn a_rise_whose_primaries_still_fit_reanchors_the_unit() {
        let (obs, ring) = Obs::ring(1024);
        let mut c = one_product(&obs);
        let before = c.assignment(0, 0);
        let ValidityRange::Box(secondary) = &before.validity else {
            panic!("a Dual-DAB unit holds a box")
        };
        assert!(c.on_refresh(1, 0.5).unwrap().reanchored.is_empty());
        let solved = solves(&ring);
        let top = before.anchor[&x(0)] + secondary[&x(0)];
        let out = c.on_refresh(0, 1.01 * top).unwrap();
        assert_eq!(out.reanchored, vec![QueryId(0)]);
        assert!(out.recomputed.is_empty() && out.filter_changes.is_empty());
        assert_eq!(solves(&ring), solved);
        assert_eq!(obs.snapshot().counters[names::DAB_RECOMPUTE], 0);

        let after = c.assignment(0, 0);
        assert_eq!(after.primary, before.primary);
        assert!(after.anchor.values().eq(c.values()));
        let ValidityRange::Box(shrunk) = &after.validity else {
            panic!("a re-anchored unit keeps its box")
        };
        let t = shrunk[&x(0)] / secondary[&x(0)];
        assert!(REANCHOR_SCALES.contains(&t), "scale {t}");
        assert_eq!(shrunk[&x(1)], t * secondary[&x(1)]);
        let query = PolynomialQuery::portfolio([(1.0, x(0), x(1))], 5.0).unwrap();
        assert!(after.respects_qab(&query, 0.0));
        assert!(after.recompute_rate > before.recompute_rate || t == 1.0);
    }

    /// `x0 x1 : 5` at `(2, 2)` holds `b ≈ 0.518`, `c ≈ 2.566` on both
    /// items, so its floor is `b / c ≈ 0.202`. At `(5.96, 2)` the
    /// primaries fit a box of `b` (`x0 + x1 ≤ 8.10`) but not of `¼ c`
    /// (`≤ 7.85`): the unit is re-anchored at the floor rung, with no
    /// solve, and its event says so.
    #[test]
    fn a_unit_whose_primaries_fit_only_at_its_floor_reanchors_there() {
        let (obs, ring) = Obs::ring(1024);
        let mut c = one_product(&obs);
        let before = c.assignment(0, 0);
        let solved = solves(&ring);
        let out = c.on_refresh(0, 5.96).unwrap();
        assert_eq!(solves(&ring), solved);
        assert_eq!(out.reanchored, vec![QueryId(0)]);
        assert!(out.recomputed.is_empty() && out.filter_changes.is_empty());
        let after = c.assignment(0, 0);
        let ValidityRange::Box(shrunk) = &after.validity else {
            panic!("a re-anchored unit keeps its box")
        };
        // Both items bind the floor: the box is the primaries, bit for bit.
        assert_eq!(
            shrunk.values().collect::<Vec<_>>(),
            after.primary.values().collect::<Vec<_>>()
        );
        assert_eq!(after.primary, before.primary);
        let query = PolynomialQuery::portfolio([(1.0, x(0), x(1))], 5.0).unwrap();
        assert!(after.respects_qab(&query, 0.0));

        use pq_obs::Value;
        let events = ring.events();
        let reanchors: Vec<_> = (events.iter())
            .filter(|e| e.target == names::DAB_REANCHOR)
            .collect();
        assert_eq!(reanchors.len(), 1);
        let e = reanchors[0];
        assert_eq!(e.field("query"), Some(&Value::U64(0)));
        assert_eq!(e.field("unit"), Some(&Value::U64(0)));
        assert_eq!(e.field("item"), Some(&Value::U64(0)));
        assert_eq!(e.field("floor"), Some(&Value::Bool(true)));
        let ValidityRange::Box(secondary) = &before.validity else {
            panic!("a Dual-DAB unit holds a box")
        };
        let floor = before.primary[&x(0)] / secondary[&x(0)];
        assert_eq!(e.field("scale"), Some(&Value::F64(floor)));
    }

    /// A batch keeps its successful solves: the unit that fails in the
    /// middle of it is invalidated, the units after it are installed.
    #[test]
    fn a_failed_unit_mid_batch_leaves_the_later_units_installed() {
        // Three products share x1; only the middle one reads x0.
        let queries = [
            PolynomialQuery::portfolio([(1.0, x(1), x(2))], 5.0).unwrap(),
            PolynomialQuery::portfolio([(1.0, x(0), x(1))], 5.0).unwrap(),
            PolynomialQuery::portfolio([(1.0, x(1), x(3))], 5.0).unwrap(),
        ];
        let (values, cfg) = (vec![2.0; 4], config(4, &Obs::null()));
        let mut c =
            Coordinator::install(&queries, DUAL, PqHeuristic::DifferentSum, values, cfg).unwrap();
        // The GP needs positive data: query 1's re-solve fails and its
        // unit is left stale.
        c.apply(0, -5.0).unwrap();
        assert_eq!(c.react(0, None).unwrap_err().query, Some(1));
        // x1 leaves every unit's validity range: query 1 fails again, in
        // the middle of a batch whose other two units solve.
        c.apply(1, 6.0).unwrap();
        let err = c.react(1, None).unwrap_err();
        assert_eq!(err.query, Some(1));
        for qi in [0, 2] {
            let a = c.assignment(qi, 0);
            let ValidityRange::Box(secondary) = &a.validity else {
                panic!("a table reads its cells back as boxes")
            };
            assert_eq!(
                a.anchor[&x(1)],
                6.0,
                "query {qi} was re-solved at the new value"
            );
            assert!(secondary
                .values()
                .chain(a.primary.values())
                .all(|b| b.is_finite()));
            assert_eq!(a.primary.len(), 2, "query {qi} has a filter on both items");
        }
        assert!(c.filter(3).is_finite(), "query 2's filter is installed");
        let failed = c.assignment(1, 0);
        let ValidityRange::Box(secondary) = &failed.validity else {
            panic!("a table reads its cells back as boxes")
        };
        assert!(
            secondary.values().all(|b| b.is_nan()),
            "query 1 is invalidated"
        );
        // Only the failed unit is owed a solve: a small move of x3 leaves
        // query 2 alone.
        assert!(c.on_refresh(3, 2.0001).unwrap().recomputed.is_empty());
    }

    #[test]
    fn a_non_finite_value_refuses_a_coordinator_before_any_solve() {
        let q = PolynomialQuery::portfolio([(1.0, x(0), x(1))], 5.0).unwrap();
        let (obs, _ring) = Obs::ring(64);
        // x2 is read by nobody: it is refused all the same.
        let values = vec![2.0, 2.0, f64::NAN];
        let book = std::slice::from_ref(&q);
        let err = Coordinator::install(
            book,
            DUAL,
            PqHeuristic::DifferentSum,
            values.clone(),
            config(3, &obs),
        )
        .unwrap_err();
        assert_eq!(err.query, None);
        assert!(
            matches!(err.source, DabError::NonFiniteValue { item: 2, value } if value.is_nan())
        );
        assert_eq!(err.to_string(), format!("installing: {}", err.source));
        let snap = obs.snapshot();
        assert_eq!(
            snap.counters.get(names::SOLVE_COLD_START),
            None,
            "nothing was solved"
        );
        let joint = vec![QueryAssignment {
            primary: [(x(0), 0.1), (x(1), 0.1)].into(),
            validity: ValidityRange::Always,
            anchor: [(x(0), 2.0), (x(1), 2.0)].into(),
            recompute_rate: 0.0,
            refresh_rate: 0.0,
        }];
        let refused = Coordinator::with_assignments(book, DUAL, &joint, values, config(3, &obs));
        assert!(matches!(
            refused,
            Err(DabError::NonFiniteValue { item: 2, .. })
        ));
    }

    #[test]
    fn joint_assignments_install_and_count_per_query() {
        let queries = [
            PolynomialQuery::portfolio([(1.0, x(0), x(1))], 8.0).unwrap(),
            PolynomialQuery::portfolio([(1.0, x(1), x(2))], 8.0).unwrap(),
        ];
        let (obs, ring) = Obs::ring(256);
        let (values, cfg) = (vec![20.0, 10.0, 15.0], config(3, &obs));
        let ctx = SolveContext::new(&values, &cfg.rates);
        let joint = crate::multi::aao(&queries, &ctx, 5.0).unwrap();
        let shared = joint.item_dab(x(1)).unwrap();
        let mut c =
            Coordinator::with_assignments(&queries, DUAL, &joint.per_query, values, cfg).unwrap();
        assert_eq!(c.filter(1), shared);
        assert_eq!(c.install_ns(), 0);
        // A stale unit is re-solved on its own, through its (cold) cache.
        assert_eq!(c.on_refresh(0, 60.0).unwrap().recomputed, vec![QueryId(0)]);
        // The next period's joint solve replaces every unit's assignment.
        let again = crate::multi::aao(&queries, &c.solve_context(), 5.0).unwrap();
        c.install_joint(&again.per_query, "aao-periodic", Some(7.0));
        c.rederive(0..3);
        assert_eq!(c.filter(1), again.item_dab(x(1)).unwrap());
        assert_eq!(obs.snapshot().counters[names::DAB_RECOMPUTE], 3);
        let per_query = |q: u64| {
            let events = ring.events();
            let of_q = |e: &&pq_obs::Event| e.field("query") == Some(&pq_obs::Value::U64(q));
            (events.iter())
                .filter(|e| e.target == names::DAB_RECOMPUTE)
                .filter(of_q)
                .count()
        };
        assert_eq!((per_query(0), per_query(1)), (2, 1));
    }

    #[test]
    fn telemetry_carries_the_scope_s_names_and_the_caller_s_clock() {
        let (obs, ring) = Obs::ring(4096);
        let q = PolynomialQuery::portfolio([(1.0, x(0), x(1))], 5.0).unwrap();
        let install = |scope| {
            let cfg = Config {
                scope,
                ..config(2, &obs)
            };
            let book = std::slice::from_ref(&q);
            Coordinator::install(book, DUAL, PqHeuristic::DifferentSum, vec![2.0, 2.0], cfg)
        };
        let mut scoped = install(Scope {
            query_gid: vec![40],
            item_gid: vec![7, 9],
            node: None,
        })
        .unwrap();
        scoped.apply(1, 30.0).unwrap();
        scoped.react(1, Some(3.5)).unwrap();
        let mut node = install(Scope {
            node: Some(2),
            ..Scope::default()
        })
        .unwrap();
        node.on_refresh(0, 30.0).unwrap();

        use pq_obs::Value;
        let events = ring.events();
        let of =
            |target: &str| -> Vec<_> { events.iter().filter(|e| e.target == target).collect() };
        // A scoped coordinator's solves name their query by its global
        // id, as its recompute events do: the install's and the re-solve's.
        let solves_of_40 = (of("gp.solve_ns").iter())
            .filter(|e| e.kind == EventKind::Timing)
            .filter(|e| e.field("query") == Some(&Value::U64(40)))
            .count();
        assert!(
            solves_of_40 >= 2,
            "{solves_of_40} gp.solve spans of query 40"
        );
        let triggers = of(names::DAB_RECOMPUTE_TRIGGER);
        assert_eq!(triggers.len(), 2);
        assert_eq!(triggers[0].field("item"), Some(&Value::U64(9)));
        let recomputes = of(names::DAB_RECOMPUTE);
        assert_eq!(recomputes.len(), 2);
        assert_eq!(recomputes[0].field("query"), Some(&Value::U64(40)));
        assert_eq!(recomputes[0].field("item"), Some(&Value::U64(9)));
        assert_eq!(recomputes[0].field("t"), Some(&Value::F64(3.5)));
        assert_eq!(recomputes[0].field("node"), None);
        assert_eq!(recomputes[1].field("node"), Some(&Value::U64(2)));
        assert_eq!(recomputes[1].field("t"), None);
    }

    /// A QAB of `1e-13` on `x0 x1` at `(1, 1)` gives per-item split
    /// filters of ≈ 5e-14. Moving `x1` to 1.25 tightens `x0`'s to ≈
    /// 4e-14: a change far below `1e-12` in absolute terms, which must
    /// ship all the same, or the source keeps a filter its unit no
    /// longer allows and the query leaves its QAB at a corner.
    #[test]
    fn a_tightening_below_any_absolute_floor_still_ships() {
        let q = PolynomialQuery::portfolio([(1.0, x(0), x(1))], 1e-13).unwrap();
        let (values, cfg) = (vec![1.0, 1.0], config(2, &Obs::null()));
        let strategy = AssignmentStrategy::PerItemSplit;
        let book = std::slice::from_ref(&q);
        let mut c =
            Coordinator::install(book, strategy, PqHeuristic::DifferentSum, values, cfg).unwrap();
        let before = c.filter(0);
        let out = c.on_refresh(1, 1.25).unwrap();
        let after = c.filter(0);
        assert!(
            after < 0.9 * before && before < 1e-12,
            "{before} -> {after}"
        );
        assert!(
            out.filter_changes.contains(&(x(0), after)),
            "{:?}",
            out.filter_changes
        );
        let filters: Vec<f64> = (0..2).map(|i| c.filter(i)).collect();
        let worst = q.poly().max_abs_deviation_over_box(c.values(), &filters);
        assert!(worst <= q.qab() * (1.0 + 1e-6), "worst corner {worst}");
    }
}
