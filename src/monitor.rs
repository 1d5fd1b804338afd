//! A coordinator runtime for embedding accuracy-bounded monitoring.
//!
//! [`Monitor`] is the high-level API a downstream application uses: register
//! data items and polynomial queries, install DAB filters, then feed it
//! refreshes as they arrive. It maintains Condition 1 (every query within
//! its QAB whenever every item is within its filter), recomputes stale
//! assignments automatically, and reports exactly which filters must be
//! re-shipped to which sources.
//!
//! The coordinator algorithm itself is [`pq_core::Coordinator`], the one
//! the simulator in [`pq_sim`] evaluates; `Monitor` adds the names and
//! the builder — the piece you would deploy.

use pq_core::coordinator::{Config, Coordinator};
use pq_core::{dab_solver_options, AssignmentStrategy, DabError, PqHeuristic};
use pq_ddm::DataDynamicsModel;
use pq_obs::{names, Obs, ObsConfig};
use pq_poly::{ItemCatalog, ItemId, PolyError, Polynomial, PolynomialQuery, QueryId};

/// What happened when a refresh was applied: [`pq_core::Outcome`], with
/// each recomputed query listed once and each changed item once, at the
/// filter now installed, ascending by item.
pub type RefreshOutcome = pq_core::Outcome;

/// Builder-style configuration + runtime state for one coordinator.
#[derive(Debug)]
pub struct Monitor {
    catalog: ItemCatalog,
    /// Registered values; once installed the coordinator's are current
    /// and these are what it was installed at.
    values: Vec<f64>,
    rates: Vec<f64>,
    queries: Vec<PolynomialQuery>,
    strategy: AssignmentStrategy,
    heuristic: PqHeuristic,
    ddm: DataDynamicsModel,
    /// Telemetry handle; threaded into every GP solve.
    obs: Obs,
    /// The installed coordinator; `None` until [`Monitor::install`] and
    /// again after any registration.
    core: Option<Coordinator>,
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
        Monitor {
            catalog: ItemCatalog::new(),
            values: Vec::new(),
            rates: Vec::new(),
            queries: Vec::new(),
            strategy: AssignmentStrategy::DualDab { mu: 5.0 },
            heuristic: PqHeuristic::DifferentSum,
            ddm: DataDynamicsModel::Monotonic,
            obs: Obs::null(),
            core: None,
        }
    }

    /// Does nothing: a refresh's stale units are re-solved on the
    /// caller's thread, one after another, and [`Monitor::install`]
    /// splits the book over the cores by its size. The method stays only
    /// because the benchmark harness calls it.
    pub fn with_threads(self, _threads: usize) -> Self {
        self
    }

    /// Attaches a telemetry handle: install/refresh outcomes and all DAB
    /// and GP solver timings are reported through it (see [`pq_obs`]).
    pub fn with_obs(mut self, obs: Obs) -> Self {
        if let Some(core) = &mut self.core {
            core.observe(obs.clone());
        }
        self.obs = obs;
        self
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

    /// Drops the installed coordinator, keeping the values it reached:
    /// whatever is registered next, [`Monitor::install`] solves from
    /// where the data is now.
    fn uninstall(&mut self) {
        if let Some(core) = self.core.take() {
            self.values.copy_from_slice(core.values());
        }
    }

    /// Replaces the assignment strategy (before or after `install`).
    pub fn with_strategy(mut self, strategy: AssignmentStrategy) -> Self {
        self.strategy = strategy;
        self.uninstall();
        self
    }

    /// Replaces the mixed-sign heuristic.
    pub fn with_heuristic(mut self, heuristic: PqHeuristic) -> Self {
        self.heuristic = heuristic;
        self.uninstall();
        self
    }

    /// Replaces the data-dynamics model.
    pub fn with_ddm(mut self, ddm: DataDynamicsModel) -> Self {
        self.ddm = ddm;
        self.uninstall();
        self
    }

    /// Registers a data item with its current value and estimated rate of
    /// change (per unit time). Re-registering a name updates it.
    pub fn add_item(&mut self, name: &str, value: f64, rate: f64) -> ItemId {
        self.uninstall();
        let id = self.catalog.intern(name);
        if id.index() >= self.values.len() {
            self.values.resize(id.index() + 1, 0.0);
            self.rates.resize(id.index() + 1, 0.0);
        }
        self.values[id.index()] = value;
        self.rates[id.index()] = rate;
        id
    }

    /// Looks up a registered item by name.
    pub fn item(&self, name: &str) -> Option<ItemId> {
        self.catalog.get(name)
    }

    /// Registers a query built from a [`PolynomialQuery`].
    pub fn add_query(&mut self, query: PolynomialQuery) -> QueryId {
        self.uninstall();
        let id = QueryId(self.queries.len() as u32);
        self.queries.push(query);
        id
    }

    /// Registers a query from an expression string (item names are
    /// resolved/created in the monitor's catalog), e.g.
    /// `"3 ibm usd + 2 tcs inr"`.
    ///
    /// # Errors
    /// A [`PolyError`] for a malformed expression (see
    /// [`pq_poly::parse_polynomial`]), a zero body or a bad `qab`; the
    /// monitor is then left as it was, catalog included.
    pub fn add_query_str(&mut self, expr: &str, qab: f64) -> Result<QueryId, PolyError> {
        let mut catalog = self.catalog.clone();
        let poly: Polynomial = pq_poly::parse_polynomial(expr, &mut catalog)?;
        let query = PolynomialQuery::new(poly, qab)?;
        self.catalog = catalog;
        if self.catalog.len() > self.values.len() {
            // Items first mentioned in the expression default to value 0 /
            // rate 0 until `add_item` updates them.
            self.uninstall();
            self.values.resize(self.catalog.len(), 0.0);
            self.rates.resize(self.catalog.len(), 0.0);
        }
        Ok(self.add_query(query))
    }

    /// The registered queries.
    pub fn queries(&self) -> &[PolynomialQuery] {
        &self.queries
    }

    /// Computes DAB assignments for every query and derives the installed
    /// per-item filters (EQI minimum rule). Returns the filters to ship.
    /// Users count as notified of every query's value at this point.
    /// Every solve, here and on refresh, runs at
    /// [`pq_core::dab_solver_options`], as the simulator's do.
    ///
    /// # Errors
    /// [`DabError::NonFiniteValue`] for the first registered value the
    /// refresh gate would refuse, read by a query or not, before anything
    /// is solved; then the first solve that fails. Either way the monitor
    /// is left uninstalled.
    pub fn install(&mut self) -> Result<Vec<(ItemId, f64)>, DabError> {
        let _span = self.obs.timed(names::MONITOR_INSTALL);
        self.uninstall();
        let cfg = Config {
            rates: self.rates.clone(),
            ddm: self.ddm,
            gp: dab_solver_options(),
            obs: self.obs.clone(),
            scope: Default::default(),
        };
        let values = self.values.clone();
        let core = Coordinator::install(&self.queries, self.strategy, self.heuristic, values, cfg)
            .map_err(|e| e.source)?;
        let filters: Vec<(ItemId, f64)> = core.filters().collect();
        self.core = Some(core);
        Ok(filters)
    }

    /// True once `install` has run and no registration changed since.
    pub fn is_installed(&self) -> bool {
        self.core.is_some()
    }

    /// The filter currently installed for `item` (None if the item is not
    /// referenced by any query, or nothing is installed).
    pub fn filter(&self, item: ItemId) -> Option<f64> {
        let core = self.core.as_ref()?;
        (item.index() < core.values().len())
            .then(|| core.filter(item.index()))
            .filter(|b| b.is_finite())
    }

    /// The coordinator's cached value of `item`.
    pub fn value(&self, item: ItemId) -> Option<f64> {
        let values = self.core.as_ref().map_or(&self.values[..], |c| c.values());
        values.get(item.index()).copied()
    }

    /// The cached value of query `q`: a load of the maintained value
    /// once installed, an evaluation over the registered values before.
    pub fn query_value(&self, q: QueryId) -> Option<f64> {
        let query = self.queries.get(q.index())?;
        Some(match &self.core {
            Some(core) => core.query_values()[q.index()],
            None => query.eval(&self.values),
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
        let core = self.core.as_mut().ok_or(DabError::NotInstalled)?;
        core.apply(item.index(), value)?;
        let mut outcome = core.react(item.index(), None).map_err(|e| e.source)?;
        // Units come query by query; an item's later change supersedes
        // its earlier one.
        outcome.recomputed.dedup();
        outcome.filter_changes.reverse();
        outcome.filter_changes.sort_by_key(|&(item, _)| item);
        outcome.filter_changes.dedup_by_key(|&mut (item, _)| item);
        Ok(outcome)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pq_gp::SolverOptions;

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
    fn every_coordinator_solves_with_the_one_dab_configuration() {
        let (m, ..) = two_item_monitor();
        let knobs = |gp: &SolverOptions| (gp.tolerance, gp.t0, gp.mu);
        let want = knobs(&dab_solver_options());
        assert_eq!(want, (1e-5, 10.0, 30.0));
        let monitor = m.core.as_ref().unwrap().solve_context().gp;
        let traces = pq_ddm::TraceSet::new(vec![pq_ddm::Trace::constant(1.0, 2)]);
        let sim = pq_sim::SimConfig::new(traces.clone(), Vec::new()).gp;
        let strategy = AssignmentStrategy::DualDab { mu: 5.0 };
        let tree = pq_sim::NetworkConfig::round_robin(traces, Vec::new(), 1, strategy).gp;
        let context = pq_core::SolveContext::new(&[], &[]).gp;
        for (name, gp) in [
            ("Monitor", monitor),
            ("SimConfig::new", sim),
            ("NetworkConfig::round_robin", tree),
            ("SolveContext::new", context),
        ] {
            assert_eq!(knobs(&gp), want, "{name}");
        }
        // The generic solver default stays the rigorous one.
        assert_ne!(knobs(&SolverOptions::default()), want);
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
        let (obs, ring) = Obs::ring(1024);
        let mut m = Monitor::new().with_obs(obs.clone());
        let x = m.add_item("x", 2.0, 1.0);
        let y = m.add_item("y", 2.0, 1.0);
        m.add_query(PolynomialQuery::portfolio([(1.0, x, y)], 5.0).unwrap());
        m.install().unwrap();
        let outcome = m.on_refresh(x, 30.0).unwrap();
        assert_eq!(outcome.recomputed.len(), 1);

        // The GP solver ran under the same registry.
        let snap = obs.snapshot();
        assert!(snap.histograms["gp.solve_ns"].count > 0);
        assert!(snap.histograms["monitor.install_ns"].count == 1);
        assert_eq!(snap.counters["dab.recompute"], 1);
        // Attribution: the recomputation and its GP solves carry query 0,
        // and the trigger is charged to the item that forced it.
        let events = ring.events();
        let of =
            |target: &str| -> Vec<_> { events.iter().filter(|e| e.target == target).collect() };
        let zero = Some(&pq_obs::Value::U64(0));
        let recomputes = of("dab.recompute");
        assert_eq!(recomputes.len(), 1);
        assert_eq!(recomputes[0].field("query"), zero);
        let triggers = of("dab.recompute_trigger");
        assert_eq!(triggers.len(), 1);
        assert_eq!(triggers[0].field("item"), zero);
        let solves = of("gp.solve_ns");
        assert!(!solves.is_empty() && solves.iter().all(|e| e.field("query") == zero));
    }

    #[test]
    fn a_disabled_handle_changes_no_outcome() {
        // 48 queries: the install splits them over two workers wherever
        // there are two cores.
        let replay = |obs: Option<Obs>| {
            let mut m = Monitor::new();
            if let Some(obs) = obs {
                m = m.with_obs(obs);
            }
            let n_items = 24;
            let initial: Vec<f64> = (0..n_items).map(|i| 50.0 + i as f64).collect();
            let items: Vec<ItemId> = (initial.iter().enumerate())
                .map(|(i, &v)| m.add_item(&format!("x{i}"), v, 0.5 + 0.1 * i as f64))
                .collect();
            for k in 0..48 {
                let legs = (0..3).map(|l| {
                    let a = (k + 5 * l) % n_items;
                    let b = (a + 1 + (k + l) % (n_items - 1)) % n_items;
                    (1.0 + ((k + l) % 4) as f64, items[a], items[b])
                });
                let query = PolynomialQuery::portfolio(legs, 1.0).unwrap();
                let qab = 0.01 * query.eval(&initial);
                m.add_query(query.with_qab(qab).unwrap());
            }
            let filters = m.install().unwrap();
            let outcomes: Vec<RefreshOutcome> = (0..400)
                .map(|step| {
                    let i = (step * 7) % n_items;
                    let wave = (0.37 * step as f64 + i as f64).sin();
                    let value = initial[i] * (1.0 + 0.03 * wave);
                    let mut outcome = m.on_refresh(items[i], value).unwrap();
                    outcome.solve_ns = 0; // wall clock
                    outcome
                })
                .collect();
            let values: Vec<_> = (0..48).map(|q| m.query_value(QueryId(q))).collect();
            (filters, outcomes, values, m.obs().snapshot())
        };
        let (filters, outcomes, values, counted) = replay(None);
        let (quiet_filters, quiet_outcomes, quiet_values, quiet) = replay(Some(Obs::disabled()));
        assert!(outcomes.iter().any(|o| !o.recomputed.is_empty()));
        assert_eq!(quiet_filters, filters);
        assert_eq!(quiet_outcomes, outcomes);
        assert_eq!(quiet_values, values);
        assert!(counted.counters[names::DAB_RECOMPUTE] > 0);
        assert!(quiet.counters.is_empty() && quiet.histograms.is_empty());
    }

    #[test]
    fn non_finite_refreshes_are_rejected_before_any_state_changes() {
        let (mut m, x, y, q) = two_item_monitor();
        m.on_refresh(x, 2.5).unwrap();
        let state = |m: &Monitor| {
            let per_item = |i| (m.value(i).unwrap().to_bits(), m.filter(i));
            (per_item(x), per_item(y), m.query_value(q))
        };
        let before = state(&m);
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let err = m.on_refresh(y, bad).unwrap_err();
            assert!(
                matches!(err, DabError::NonFiniteValue { item, value }
                    if item == y.0 && value.to_bits() == bad.to_bits()),
                "{err}"
            );
            assert_eq!(state(&m), before);
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
        let state = |m: &Monitor| {
            let per_item = |i| (m.value(i).unwrap().to_bits(), m.filter(i));
            (per_item(x), per_item(y), m.query_value(q))
        };
        let before = state(&m);
        // An unknown item is reported as such even with a bad value.
        for value in [3.0, f64::NAN] {
            assert_eq!(
                m.on_refresh(ItemId(2), value),
                Err(DabError::UnknownItem { item: 2 })
            );
        }
        assert_eq!(state(&m), before);
        // A registration after install asks for a re-install again.
        m.add_item("z", 1.0, 1.0);
        assert_eq!(m.on_refresh(x, 2.6), Err(DabError::NotInstalled));
        assert_eq!(m.query_value(q), before.2);
        m.install().unwrap();
        assert!(m.on_refresh(x, 2.6).is_ok());
    }

    /// The refresh gate runs over every registered value at install: a
    /// value it would refuse on refresh cannot be installed either.
    fn refused_install(m: &mut Monitor, item: ItemId, bad: f64) {
        let err = m.install().unwrap_err();
        assert!(
            matches!(err, DabError::NonFiniteValue { item: i, value }
                if i == item.0 && value.to_bits() == bad.to_bits()),
            "{err}"
        );
        assert!(!m.is_installed());
        assert_eq!(m.on_refresh(item, 1.0), Err(DabError::NotInstalled));
    }

    #[test]
    fn install_refuses_a_nan_value_a_linear_query_reads() {
        let mut m = Monitor::new();
        let x = m.add_item("x", f64::NAN, 1.0);
        let y = m.add_item("y", 2.0, 1.0);
        m.add_query(PolynomialQuery::linear_aggregate([(2.0, x), (1.0, y)], 1.0).unwrap());
        refused_install(&mut m, x, f64::NAN);
        // Fixed, it installs.
        m.add_item("x", 3.0, 1.0);
        m.install().unwrap();
        assert_eq!(m.query_value(QueryId(0)), Some(8.0));
    }

    #[test]
    fn install_refuses_a_nan_value_no_query_reads() {
        let mut m = Monitor::new();
        let x = m.add_item("x", 2.0, 1.0);
        let y = m.add_item("y", 2.0, 1.0);
        let unread = m.add_item("unread", f64::NAN, 1.0);
        m.add_query(PolynomialQuery::portfolio([(1.0, x, y)], 5.0).unwrap());
        refused_install(&mut m, unread, f64::NAN);
    }

    #[test]
    fn install_refuses_an_infinite_value_on_a_product_book() {
        let mut m = Monitor::new();
        let x = m.add_item("x", f64::INFINITY, 1.0);
        let y = m.add_item("y", 2.0, 1.0);
        m.add_query(PolynomialQuery::portfolio([(1.0, x, y)], 5.0).unwrap());
        refused_install(&mut m, x, f64::INFINITY);
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
            let values = [m.value(x).unwrap(), m.value(y).unwrap()];
            let dabs = [m.filter(x).unwrap(), m.filter(y).unwrap()];
            for q in m.queries() {
                let worst = q.poly().max_abs_deviation_over_box(&values, &dabs);
                assert!(worst <= q.qab() + 1e-6, "step {step}: {worst}");
            }
        }
    }

    /// A mixed-sign query over items `0..5`: one to four terms (linear,
    /// square or bilinear) with coefficients of either sign.
    fn arb_query() -> impl proptest::strategy::Strategy<Value = PolynomialQuery> {
        use proptest::prelude::*;
        let coef = (0.25f64..2.0, 0u8..2).prop_map(|(c, neg)| if neg == 1 { -c } else { c });
        let term = (coef, 0u32..5, 0u32..5, 0u8..3).prop_map(|(c, i, j, shape)| {
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

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(8))]

        /// Condition 1 where it binds, through the monitor's surface:
        /// sources take moves of ±0.6 on [0.5, 2] and moves to exactly 0
        /// and back, push whatever leaves the filters the monitor shipped
        /// and install each returned filter change at once. After every
        /// step, anywhere each source may sit without pushing, each query
        /// is within its QAB of the monitor's value, under every strategy
        /// and heuristic.
        #[test]
        fn condition1_holds_at_every_corner_of_the_shipped_filters(
            queries in proptest::collection::vec(arb_query(), 1..5),
            start in proptest::collection::vec(0.75f64..1.75, 5),
            walk in proptest::collection::vec((0usize..5, -0.6f64..0.6, 0u8..8), 24),
        ) {
            use AssignmentStrategy::*;
            for strategy in [OptimalRefresh, DualDab { mu: 5.0 }, PerItemSplit, EqualDab] {
                for heuristic in [PqHeuristic::HalfAndHalf, PqHeuristic::DifferentSum] {
                    let mut m = Monitor::new().with_strategy(strategy).with_heuristic(heuristic);
                    for (i, &v) in start.iter().enumerate() {
                        m.add_item(&format!("x{i}"), v, 0.05);
                    }
                    for q in &queries {
                        m.add_query(q.clone());
                    }
                    let mut filters = [f64::INFINITY; 5];
                    for (item, b) in m.install().unwrap() {
                        filters[item.index()] = b;
                    }
                    let mut source = start.clone();
                    let values = |m: &Monitor| -> Vec<f64> {
                        (0..5).map(|i| m.value(ItemId(i)).unwrap()).collect()
                    };
                    for (step, &(item, delta, kind)) in walk.iter().enumerate() {
                        source[item] = match kind {
                            0 => 0.0,
                            _ => (source[item] + delta).clamp(0.5, 2.0),
                        };
                        while let Some(i) = (0..5)
                            .find(|&i| (source[i] - values(&m)[i]).abs() > filters[i])
                        {
                            let out = m.on_refresh(ItemId(i as u32), source[i]).unwrap();
                            for (changed, b) in out.filter_changes {
                                filters[changed.index()] = b;
                            }
                        }
                        let at = values(&m);
                        for (qi, q) in queries.iter().enumerate() {
                            let worst = q.poly().max_abs_deviation_over_box(&at, &filters);
                            proptest::prop_assert!(
                                worst <= q.qab() * (1.0 + 1e-6),
                                "{} / {:?}, step {}, q{}: worst corner {} > QAB {}",
                                strategy, heuristic, step, qi, worst, q.qab()
                            );
                        }
                    }
                }
            }
        }
    }
}
