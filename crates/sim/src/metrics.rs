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
    /// Invalidated Dual-DAB units whose primary DABs still held at the
    /// new values, so they were re-anchored there instead of recomputed
    /// (`pq_core::Outcome::reanchored`): no solve, no message.
    pub reanchors: u64,
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
    /// Always 0: the engine ingests every refresh on its own, so there
    /// are no batches to count. Kept only because benchmark harnesses
    /// still read the field.
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
