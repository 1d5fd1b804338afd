//! Metrics collected by a simulation run (§V-A, "Metrics"), including
//! the per-query/per-item attribution rollups that answer "which query
//! is eating the μ budget?" and "which item forces the recomputations?".

/// Counters and derived measures from one simulation.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SimMetrics {
    /// Refresh messages arriving at the coordinator (metric 2).
    pub refreshes: u64,
    /// Total DAB recomputations across all queries (metric 3).
    pub recomputations: u64,
    /// DAB-change messages sent from the coordinator to sources after
    /// recomputations (informational; the paper folds these into `mu`).
    pub dab_change_messages: u64,
    /// Query values pushed to users after QAB-violating refreshes.
    pub user_notifications: u64,
    /// Per-query count of fidelity samples that violated the QAB.
    pub per_query_violations: Vec<u64>,
    /// Per-query DAB recomputation counts; sums to `recomputations`.
    pub per_query_recomputations: Vec<u64>,
    /// Per-item refresh arrivals; sums to `refreshes`. Empty when the
    /// run was constructed without item attribution (see
    /// [`SimMetrics::with_items`]).
    pub per_item_refreshes: Vec<u64>,
    /// Per-item count of refreshes whose arrival forced at least one
    /// DAB recomputation — the "who triggers the solver" attribution.
    pub per_item_recompute_triggers: Vec<u64>,
    /// Batched-ingestion drains: groups of same-instant refreshes
    /// applied through one fused delta sweep. Stays 0 whenever the delay
    /// model keeps the coordinator service busy (batching only engages
    /// under service-free delays; see DESIGN.md §12).
    pub ingest_batches: u64,
    /// Number of fidelity samples taken (per query).
    pub fidelity_samples: u64,
    /// Messages dropped by failure injection (refreshes and DAB changes).
    pub lost_messages: u64,
    /// Wall-clock seconds spent inside DAB solvers (solver-cost proxy).
    pub solver_seconds: f64,
}

impl SimMetrics {
    /// Creates zeroed metrics for `n_queries` queries with no item
    /// attribution (the per-item vectors stay empty).
    pub fn new(n_queries: usize) -> Self {
        Self::with_items(n_queries, 0)
    }

    /// Creates zeroed metrics for `n_queries` queries and `n_items`
    /// attributed data items.
    pub fn with_items(n_queries: usize, n_items: usize) -> Self {
        SimMetrics {
            per_query_violations: vec![0; n_queries],
            per_query_recomputations: vec![0; n_queries],
            per_item_refreshes: vec![0; n_items],
            per_item_recompute_triggers: vec![0; n_items],
            ..Default::default()
        }
    }

    /// Total cost in messages: `refreshes + mu * recomputations`
    /// (metric 4).
    pub fn total_cost(&self, mu: f64) -> f64 {
        self.refreshes as f64 + mu * self.recomputations as f64
    }

    /// Mean loss in fidelity across queries, in percent (metric 1):
    /// the fraction of observed time a query's QAB was violated.
    ///
    /// Degenerate inputs are handled conservatively: with no samples or
    /// no queries the loss is 0, and a per-query violation count larger
    /// than the sample count (possible only if the struct was populated
    /// by hand or merged from disagreeing runs) is clamped so no query
    /// contributes more than 100%.
    pub fn loss_in_fidelity_percent(&self) -> f64 {
        if self.fidelity_samples == 0 || self.per_query_violations.is_empty() {
            return 0.0;
        }
        let mean_violation: f64 = self
            .per_query_violations
            .iter()
            .map(|&v| v.min(self.fidelity_samples) as f64 / self.fidelity_samples as f64)
            .sum::<f64>()
            / self.per_query_violations.len() as f64;
        100.0 * mean_violation
    }

    /// Lossless bridge from the telemetry registry: reconstructs the
    /// counters of a finished run from an [`pq_obs::Obs`] snapshot taken
    /// after [`crate::run_observed`] returned.
    ///
    /// Counter names follow [`pq_obs::names`]; per-query violations live
    /// under `sim.qab_violation.q<i>` for `i in 0..n_queries`, the
    /// attribution rollups come from the labeled families
    /// (`dab.recompute` by `query`, `sim.refresh` and
    /// `dab.recompute_trigger` by `item`), and `solver_seconds` is the
    /// (nanosecond-exact) sum of the `sim.solve_ns` histogram. The
    /// per-item vectors end at the highest item any query reads: items
    /// past it carry no label (their counts are zero by construction).
    ///
    /// Any `sim.`/`dab.` counter in the snapshot this bridge does not
    /// consume is reported as an [`pq_obs::names::OBS_UNKNOWN_METRIC`]
    /// event on `obs` — schema drift between writer and reader is made
    /// visible instead of silently dropped.
    pub fn from_snapshot(snapshot: &pq_obs::Snapshot, n_queries: usize, obs: &pq_obs::Obs) -> Self {
        use pq_obs::names;

        let counter = |name: &str| snapshot.counters.get(name).copied().unwrap_or(0);
        let per_query_violations: Vec<u64> = (0..n_queries)
            .map(|qi| counter(&format!("{}.q{qi}", names::SIM_QAB_VIOLATION)))
            .collect();
        // Per-query/per-item rollups from the labeled families. The
        // engine pre-creates a label for every query but only for the
        // items some query reads, so the item dimension ends at the
        // highest labeled item (later items were never read and cannot
        // have refreshed).
        let per_query = |name: &str| {
            snapshot
                .labeled
                .get(name)
                .map(|f| f.dense(n_queries))
                .unwrap_or_else(|| vec![0; n_queries])
        };
        let per_item = |name: &str| {
            snapshot
                .labeled
                .get(name)
                .map(|f| {
                    let labeled = f.values.keys().filter_map(|v| v.parse::<usize>().ok());
                    f.dense(labeled.max().map_or(0, |last| last + 1))
                })
                .unwrap_or_default()
        };

        // Schema-drift guard: every `sim.`/`dab.` counter must be one
        // this bridge consumes.
        for (name, &value) in &snapshot.counters {
            let known = [
                names::SIM_REFRESH,
                names::DAB_RECOMPUTE,
                names::SIM_DAB_CHANGE,
                names::SIM_USER_NOTIFY,
                names::SIM_FIDELITY_SAMPLE,
                names::SIM_LOST_MESSAGE,
            ]
            .contains(&name.as_str())
                || name
                    .strip_prefix(&format!("{}.q", names::SIM_QAB_VIOLATION))
                    .is_some_and(|qi| qi.parse::<usize>().is_ok_and(|qi| qi < n_queries));
            if !known && (name.starts_with("sim.") || name.starts_with("dab.")) {
                let name = name.clone();
                obs.emit_with(names::OBS_UNKNOWN_METRIC, pq_obs::EventKind::Point, |e| {
                    e.with("name", name).with("value", value)
                });
            }
        }

        SimMetrics {
            refreshes: counter(names::SIM_REFRESH),
            recomputations: counter(names::DAB_RECOMPUTE),
            dab_change_messages: counter(names::SIM_DAB_CHANGE),
            user_notifications: counter(names::SIM_USER_NOTIFY),
            per_query_violations,
            per_query_recomputations: per_query(names::DAB_RECOMPUTE),
            per_item_refreshes: per_item(names::SIM_REFRESH),
            per_item_recompute_triggers: per_item(names::DAB_RECOMPUTE_TRIGGER),
            ingest_batches: counter(names::INGEST_BATCH),
            fidelity_samples: counter(names::SIM_FIDELITY_SAMPLE),
            lost_messages: counter(names::SIM_LOST_MESSAGE),
            solver_seconds: snapshot
                .histograms
                .get(names::SIM_SOLVE_NS)
                .map(|h| h.sum as f64 / 1e9)
                .unwrap_or(0.0),
        }
    }

    /// The `k` heaviest entries of an attribution vector as
    /// `(index, count)` pairs, heaviest first, zero entries skipped —
    /// e.g. `top_k(&m.per_item_recompute_triggers, 5)` is the paper-cost
    /// "which items force the solver" list.
    pub fn top_k(rollup: &[u64], k: usize) -> Vec<(usize, u64)> {
        let mut pairs: Vec<(usize, u64)> = rollup
            .iter()
            .copied()
            .enumerate()
            .filter(|&(_, v)| v > 0)
            .collect();
        pairs.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        pairs.truncate(k);
        pairs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn total_cost_combines_refreshes_and_recomputations() {
        let mut m = SimMetrics::new(1);
        m.refreshes = 100;
        m.recomputations = 10;
        assert_eq!(m.total_cost(5.0), 150.0);
        assert_eq!(m.total_cost(0.0), 100.0);
    }

    #[test]
    fn fidelity_loss_is_mean_over_queries() {
        let mut m = SimMetrics::new(2);
        m.fidelity_samples = 100;
        m.per_query_violations = vec![10, 30];
        assert!((m.loss_in_fidelity_percent() - 20.0).abs() < 1e-12);
    }

    #[test]
    fn fidelity_loss_with_no_samples_is_zero() {
        let m = SimMetrics::new(3);
        assert_eq!(m.loss_in_fidelity_percent(), 0.0);
    }

    #[test]
    fn fidelity_loss_with_no_queries_is_zero() {
        let mut m = SimMetrics::new(0);
        m.fidelity_samples = 100;
        assert_eq!(m.loss_in_fidelity_percent(), 0.0);
    }

    #[test]
    fn fidelity_loss_clamps_violations_to_sample_count() {
        // A hand-merged struct can disagree; each query caps at 100%.
        let mut m = SimMetrics::new(1);
        m.fidelity_samples = 10;
        m.per_query_violations = vec![25];
        assert_eq!(m.loss_in_fidelity_percent(), 100.0);
    }

    #[test]
    fn fidelity_loss_mixes_violating_and_clean_queries() {
        let mut m = SimMetrics::new(3);
        m.fidelity_samples = 50;
        m.per_query_violations = vec![0, 50, 25];
        // (0% + 100% + 50%) / 3
        assert!((m.loss_in_fidelity_percent() - 50.0).abs() < 1e-12);
    }

    #[test]
    fn from_snapshot_of_empty_registry_is_zeroed() {
        let snap = pq_obs::Snapshot::default();
        let m = SimMetrics::from_snapshot(&snap, 2, &pq_obs::Obs::null());
        assert_eq!(m, SimMetrics::new(2));
    }

    #[test]
    fn from_snapshot_reads_counters_by_name() {
        let obs = pq_obs::Obs::null();
        obs.counter(pq_obs::names::SIM_REFRESH).add(7);
        obs.counter(pq_obs::names::DAB_RECOMPUTE).add(3);
        obs.counter(&format!("{}.q1", pq_obs::names::SIM_QAB_VIOLATION))
            .add(2);
        obs.counter(pq_obs::names::SIM_FIDELITY_SAMPLE).add(9);
        obs.histogram(pq_obs::names::SIM_SOLVE_NS)
            .record(1_500_000_000);
        let m = SimMetrics::from_snapshot(&obs.snapshot(), 2, &obs);
        assert_eq!(m.refreshes, 7);
        assert_eq!(m.recomputations, 3);
        assert_eq!(m.per_query_violations, vec![0, 2]);
        assert_eq!(m.fidelity_samples, 9);
        assert!((m.solver_seconds - 1.5).abs() < 1e-12);
    }

    #[test]
    fn from_snapshot_reconstructs_attribution_rollups() {
        let obs = pq_obs::Obs::null();
        use pq_obs::names;
        obs.counter(names::DAB_RECOMPUTE).add(5);
        obs.labeled_counter(names::DAB_RECOMPUTE, names::LABEL_QUERY, "0")
            .add(2);
        obs.labeled_counter(names::DAB_RECOMPUTE, names::LABEL_QUERY, "1")
            .add(3);
        for (item, n) in [("0", 4u64), ("1", 6)] {
            obs.labeled_counter(names::SIM_REFRESH, names::LABEL_ITEM, item)
                .add(n);
            obs.labeled_counter(names::DAB_RECOMPUTE_TRIGGER, names::LABEL_ITEM, item)
                .add(n / 2);
        }
        let m = SimMetrics::from_snapshot(&obs.snapshot(), 2, &obs);
        assert_eq!(m.per_query_recomputations, vec![2, 3]);
        assert_eq!(m.per_query_recomputations.iter().sum::<u64>(), 5);
        assert_eq!(m.per_item_refreshes, vec![4, 6]);
        assert_eq!(m.per_item_recompute_triggers, vec![2, 3]);
    }

    #[test]
    fn from_snapshot_reports_unknown_sim_counters() {
        let writer = pq_obs::Obs::null();
        writer.counter(pq_obs::names::SIM_REFRESH).add(1);
        writer.counter("sim.renamed_in_v3").add(9);
        writer.counter("dab.mystery").add(2);
        writer.counter("bench.run").inc(); // foreign namespace: ignored
        let snap = writer.snapshot();

        let (reader, ring) = pq_obs::Obs::ring(16);
        let m = SimMetrics::from_snapshot(&snap, 1, &reader);
        assert_eq!(m.refreshes, 1, "known counters still bridge");
        let events = ring.events();
        let unknown: Vec<&pq_obs::Event> = events
            .iter()
            .filter(|e| e.target == pq_obs::names::OBS_UNKNOWN_METRIC)
            .collect();
        let named = |n: &str| {
            unknown.iter().any(|e| {
                e.fields
                    .iter()
                    .any(|(_, v)| matches!(v, pq_obs::Value::Str(s) if s == n))
            })
        };
        assert_eq!(unknown.len(), 2, "events: {events:?}");
        assert!(named("sim.renamed_in_v3"));
        assert!(named("dab.mystery"));
    }

    #[test]
    fn top_k_ranks_heaviest_first_and_skips_zeros() {
        let rollup = [0, 7, 3, 0, 7, 1];
        assert_eq!(
            SimMetrics::top_k(&rollup, 3),
            vec![(1, 7), (4, 7), (2, 3)],
            "ties break toward the lower index"
        );
        assert_eq!(SimMetrics::top_k(&[0, 0], 5), vec![]);
    }
}
