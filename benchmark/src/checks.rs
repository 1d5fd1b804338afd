//! Correctness checks on what the program returns. Each check counts as
//! one attempted operation; a failed one is printed, counted in
//! `failed`, and makes the process exit non-zero.

use polyquery::sim::SimMetrics;
use polyquery::PolynomialQuery;

/// Slack on `|Q(source) - Q(coordinator)| <= QAB` for rounding in the
/// two evaluations.
pub const QAB_SLACK: f64 = 1e-9;

/// Operations attempted and failed so far, with one line per failure.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
}

impl Tally {
    /// Counts one operation; `what` is only built when it failed.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.add(1, u64::from(!ok), what);
    }

    /// Counts `n` operations that succeeded.
    pub fn passed(&mut self, n: u64) {
        self.attempted += n;
    }

    /// Counts a batch of like operations, keeping one line for the batch.
    pub fn add(&mut self, attempted: u64, failed: u64, what: impl FnOnce() -> String) {
        self.attempted += attempted;
        self.failed += failed;
        if failed > 0 {
            self.failures.push(what());
        }
    }

    pub fn correct(&self) -> bool {
        self.failed == 0
    }
}

/// Check (a): a repeat of a fixed-seed run returns the same metrics,
/// solver wall time aside.
pub fn same_metrics(first: &SimMetrics, again: &SimMetrics) -> bool {
    let strip = |m: &SimMetrics| SimMetrics {
        solver_seconds: 0.0,
        ..m.clone()
    };
    strip(first) == strip(again)
}

/// Check (b): the attribution roll-ups sum to their totals and no query
/// violates more often than it was sampled. Returns the broken rules.
pub fn conservation(m: &SimMetrics, n_ticks: usize) -> Vec<String> {
    let mut broken = Vec::new();
    let item_sum: u64 = m.per_item_refreshes.iter().sum();
    if item_sum != m.refreshes {
        broken.push(format!(
            "per_item_refreshes sum {item_sum} != refreshes {}",
            m.refreshes
        ));
    }
    let query_sum: u64 = m.per_query_recomputations.iter().sum();
    if query_sum != m.recomputations {
        broken.push(format!(
            "per_query_recomputations sum {query_sum} != recomputations {}",
            m.recomputations
        ));
    }
    if m.fidelity_samples != n_ticks as u64 - 1 {
        broken.push(format!(
            "fidelity_samples {} != n_ticks - 1 = {}",
            m.fidelity_samples,
            n_ticks - 1
        ));
    }
    if let Some(v) = m
        .per_query_violations
        .iter()
        .find(|&&v| v > m.fidelity_samples)
    {
        broken.push(format!(
            "a query has {v} violations in {} samples",
            m.fidelity_samples
        ));
    }
    broken
}

/// Checks (c) and (d): the number of queries whose value at the sources
/// is further than their QAB from their value at the coordinator.
pub fn condition1_violations(queries: &[PolynomialQuery], source: &[f64], coord: &[f64]) -> u64 {
    queries
        .iter()
        .filter(|q| (q.eval(source) - q.eval(coord)).abs() > q.qab() * (1.0 + QAB_SLACK))
        .count() as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use polyquery::ItemId;

    fn metrics() -> SimMetrics {
        let mut m = SimMetrics::with_items(2, 3);
        m.refreshes = 6;
        m.per_item_refreshes = vec![1, 2, 3];
        m.recomputations = 3;
        m.per_query_recomputations = vec![1, 2];
        m.fidelity_samples = 9;
        m.per_query_violations = vec![0, 9];
        m
    }

    #[test]
    fn conservation_accepts_consistent_metrics() {
        assert!(conservation(&metrics(), 10).is_empty());
    }

    #[test]
    fn conservation_names_each_broken_rule() {
        let mut m = metrics();
        m.refreshes = 7;
        m.per_query_recomputations[0] = 5;
        m.per_query_violations[0] = 10;
        assert_eq!(conservation(&m, 10).len(), 3);
        assert_eq!(conservation(&metrics(), 11).len(), 1);
    }

    #[test]
    fn repeats_may_differ_in_solver_time_only() {
        let a = metrics();
        let mut b = a.clone();
        b.solver_seconds = 1.5;
        assert!(same_metrics(&a, &b));
        b.user_notifications += 1;
        assert!(!same_metrics(&a, &b));
    }

    /// A coordinator that is further from the sources than the QAB is
    /// counted, and a tally holding it is no longer correct: this is the
    /// outcome that makes the command exit non-zero.
    #[test]
    fn a_violating_outcome_fails_the_tally() {
        let q = PolynomialQuery::portfolio([(2.0, ItemId(0), ItemId(1))], 1.0).unwrap();
        let coord = [3.0, 4.0];
        assert_eq!(
            condition1_violations(std::slice::from_ref(&q), &[3.0, 4.1], &coord),
            0
        );
        assert_eq!(
            condition1_violations(std::slice::from_ref(&q), &[3.0, 4.6], &coord),
            1
        );

        let mut tally = Tally::default();
        tally.passed(1);
        assert!(tally.correct());
        let bad = condition1_violations(&[q], &[3.0, 4.6], &coord);
        tally.add(1, bad, || format!("{bad} Condition-1 violations"));
        assert!(!tally.correct());
        assert_eq!((tally.attempted, tally.failed), (2, 1));
        assert_eq!(tally.failures.len(), 1);
    }
}
