//! Continuous fidelity audit: shadow evaluation of the delta plane.
//!
//! The engine reads query values from a delta-maintained
//! [`pq_poly::SharedView`], never from a from-scratch evaluation. The
//! property tests prove the two agree on generated books and fixed
//! seeds — but a live run with new traces and new queries has no such
//! certificate. The `FidelityAuditor` closes that gap *in production*:
//! every `every` ticks it picks a rotating sample of queries,
//! re-evaluates them from scratch with [`pq_poly::PolynomialQuery::eval`]
//! at both the source and the coordinator view, and compares
//!
//! * the **values** against the engine's (the delta-maintained
//!   coordinator view; the played full evaluation at the source), and
//! * the **QAB violation decision** the engine would take from each.
//!
//! Each shadow evaluation counts one `audit.sample`; any divergence
//! increments the `audit.divergence` counter and emits a structured
//! `audit.divergence` event carrying the query, tick, both values, the
//! drift, and whether the value or the decision diverged. Each pass also returns its count
//! to the engine, which dumps the handle's flight recorder, if it
//! carries one, after a pass that flagged any.
//!
//! The audit consumes no randomness and writes no engine state, so a run
//! produces byte-identical [`crate::SimMetrics`] whether it is on or
//! off; its only cost is the sampled naive evaluations. Sampling
//! guidance lives in DESIGN.md §9.

use std::sync::Arc;

use pq_obs::{names, Counter, EventKind, Obs};
use pq_poly::PolynomialQuery;

/// Configuration of the continuous fidelity audit (see module docs).
#[derive(Debug, Clone)]
pub struct AuditConfig {
    /// Run one audit pass every this many ticks (`0` disables the
    /// auditor entirely).
    pub every: usize,
    /// Queries shadow-evaluated per pass, taken round-robin so every
    /// query is eventually covered regardless of the sample size.
    /// Clamped to the query count.
    pub sample: usize,
    /// Relative drift tolerance: query `q` diverges when
    /// `|naive - delta| > tolerance * (1 + |naive|)`. The default is
    /// three orders of magnitude above the rebase-bounded rounding
    /// drift of [`pq_poly::SharedView`] and far below any meaningful
    /// QAB.
    pub tolerance: f64,
}

impl Default for AuditConfig {
    fn default() -> Self {
        AuditConfig {
            every: 16,
            sample: 4,
            tolerance: 1e-9,
        }
    }
}

/// One injected [`pq_poly::SharedView::corrupt`] call, applied to the
/// coordinator view just before the audit pass of the given tick —
/// fault injection proving the auditor catches a wrong delta plane
/// within one interval.
#[derive(Debug, Clone, Copy)]
pub struct AuditFault {
    /// Tick at which the corruption is applied.
    pub tick: usize,
    /// Query whose maintained value is perturbed.
    pub query: usize,
    /// Amount added to the maintained value.
    pub perturb: f64,
}

/// The shadow evaluator the engine drives once per audit interval.
#[derive(Debug)]
pub(crate) struct FidelityAuditor {
    cfg: AuditConfig,
    /// Round-robin position over the query index space.
    cursor: usize,
    c_sample: Arc<Counter>,
    c_divergence: Arc<Counter>,
}

impl FidelityAuditor {
    /// Builds the auditor, resolving its counters once.
    pub(crate) fn new(cfg: AuditConfig, obs: &Obs) -> Self {
        FidelityAuditor {
            cfg,
            cursor: 0,
            c_sample: obs.counter(names::AUDIT_SAMPLE),
            c_divergence: obs.counter(names::AUDIT_DIVERGENCE),
        }
    }

    /// Runs one audit pass if `tick` falls on the configured interval.
    ///
    /// `src_values` / `coord_values` are the per-item value columns of
    /// the two views; `src_qv` the engine's full evaluation at the source
    /// values, `coord_qv` the maintained per-query values of the
    /// coordinator's delta plane. Pure with respect to the simulation:
    /// reads only.
    /// Returns the divergences the pass found (0 off the interval).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn on_tick(
        &mut self,
        tick: usize,
        queries: &[PolynomialQuery],
        src_values: &[f64],
        coord_values: &[f64],
        src_qv: &[f64],
        coord_qv: &[f64],
        obs: &Obs,
    ) -> u64 {
        let due = self.cfg.every > 0 && tick.is_multiple_of(self.cfg.every);
        if !due || queries.is_empty() {
            return 0;
        }
        let take = self.cfg.sample.clamp(1, queries.len());
        let mut divergences = 0;
        for _ in 0..take {
            let qi = self.cursor;
            self.cursor = (self.cursor + 1) % queries.len();
            divergences += self.audit_query(
                qi,
                tick,
                &queries[qi],
                src_values,
                coord_values,
                src_qv,
                coord_qv,
                obs,
            );
        }
        divergences
    }

    /// Shadow-evaluates query `qi` at both views and compares values and
    /// the QAB decision against the delta plane; returns the divergences
    /// found.
    #[allow(clippy::too_many_arguments)]
    fn audit_query(
        &mut self,
        qi: usize,
        tick: usize,
        query: &PolynomialQuery,
        src_values: &[f64],
        coord_values: &[f64],
        src_qv: &[f64],
        coord_qv: &[f64],
        obs: &Obs,
    ) -> u64 {
        let mut divergences = 0;
        self.c_sample.inc();
        let naive_src = query.eval(src_values);
        let naive_coord = query.eval(coord_values);
        let delta_src = src_qv[qi];
        let delta_coord = coord_qv[qi];
        for (view, naive, delta) in [
            ("source", naive_src, delta_src),
            ("coordinator", naive_coord, delta_coord),
        ] {
            let drift = (naive - delta).abs();
            // NaN drift (e.g. a poisoned delta plane) must diverge too.
            if drift.is_nan() || drift > self.cfg.tolerance * (1.0 + naive.abs()) {
                self.divergence(qi, tick, view, naive, delta, drift, "value", obs);
                divergences += 1;
            }
        }
        // Decision parity: would the engine's QAB check fire? Only
        // flagged when the naive gap is robustly away from the QAB
        // boundary — a knife-edge sample flipping on rounding drift is
        // tolerance, not divergence.
        let naive_gap = (naive_src - naive_coord).abs();
        let delta_gap = (delta_src - delta_coord).abs();
        let qab = query.qab();
        let robust = (naive_gap - qab).abs() > self.cfg.tolerance * (1.0 + naive_gap);
        if robust && (naive_gap > qab) != (delta_gap > qab) {
            self.divergence(
                qi,
                tick,
                "decision",
                naive_gap,
                delta_gap,
                (naive_gap - delta_gap).abs(),
                "decision",
                obs,
            );
            divergences += 1;
        }
        divergences
    }

    /// Records one divergence of query `qi`: counter bump plus a
    /// structured event.
    #[allow(clippy::too_many_arguments)]
    fn divergence(
        &mut self,
        qi: usize,
        tick: usize,
        view: &'static str,
        naive: f64,
        cached: f64,
        drift: f64,
        kind: &'static str,
        obs: &Obs,
    ) {
        self.c_divergence.inc();
        obs.emit_with(names::AUDIT_DIVERGENCE, EventKind::Point, |e| {
            e.with("query", qi)
                .with("tick", tick)
                .with("view", view)
                .with("naive", naive)
                .with("cached", cached)
                .with("drift", drift)
                .with("kind", kind)
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::delay::DelayConfig;
    use crate::engine::{run, run_observed, SimConfig};
    use pq_ddm::{Trace, TraceSet};
    use pq_obs::Value;
    use pq_poly::ItemId;

    fn audited_config() -> SimConfig {
        let traces = TraceSet::new(vec![
            Trace::sinusoid(20.0, 3.0, 400.0, 800),
            Trace::sinusoid(10.0, 2.0, 300.0, 800),
            Trace::sinusoid(15.0, 2.5, 350.0, 800),
        ]);
        let queries = vec![
            PolynomialQuery::portfolio([(1.0, ItemId(0), ItemId(1))], 8.0).unwrap(),
            PolynomialQuery::portfolio([(1.0, ItemId(1), ItemId(2))], 8.0).unwrap(),
        ];
        let mut cfg = SimConfig::new(traces, queries);
        cfg.delays = DelayConfig::planetlab_like();
        cfg.audit = Some(AuditConfig {
            every: 4,
            sample: 2,
            ..AuditConfig::default()
        });
        cfg
    }

    #[test]
    fn clean_run_reports_zero_divergences() {
        let obs = Obs::null();
        run_observed(&audited_config(), &obs).unwrap();
        let snap = obs.snapshot();
        assert!(snap.counters[names::AUDIT_SAMPLE] > 0, "auditor never ran");
        assert_eq!(
            snap.counters[names::AUDIT_DIVERGENCE],
            0,
            "delta plane diverged from naive truth"
        );
    }

    #[test]
    fn injected_fault_is_caught_within_one_audit_interval() {
        let mut cfg = audited_config();
        let fault_tick = 100;
        cfg.audit_fault = Some(AuditFault {
            tick: fault_tick,
            query: 1,
            perturb: 500.0,
        });
        let (obs, ring) = Obs::ring(4096);
        run_observed(&cfg, &obs).unwrap();
        let snap = obs.snapshot();
        assert!(snap.counters[names::AUDIT_DIVERGENCE] > 0, "fault missed");
        let every = cfg
            .audit
            .as_ref()
            .expect("audited_config always sets an audit interval")
            .every;
        let caught_at = ring
            .events()
            .iter()
            .filter(|e| e.target == names::AUDIT_DIVERGENCE)
            .filter_map(|e| match e.field("tick") {
                Some(Value::U64(t)) => Some(*t as usize),
                _ => None,
            })
            .min()
            .expect("no divergence event emitted");
        assert!(
            caught_at >= fault_tick && caught_at < fault_tick + every,
            "fault at tick {fault_tick} first flagged at {caught_at} (interval {every})"
        );
    }

    #[test]
    fn metrics_are_identical_with_audit_on_and_off() {
        let audited = audited_config();
        let mut plain = audited.clone();
        plain.audit = None;
        let mut with_audit = run(&audited).unwrap();
        let mut without = run(&plain).unwrap();
        with_audit.solver_seconds = 0.0;
        without.solver_seconds = 0.0;
        assert_eq!(with_audit, without, "audit perturbed the simulation");
    }

    #[test]
    fn round_robin_covers_every_query() {
        let obs = Obs::null();
        let mut cfg = audited_config();
        // One query per pass: coverage must still rotate across both.
        cfg.audit
            .as_mut()
            .expect("audited_config always sets an audit interval")
            .sample = 1;
        let audit = cfg
            .audit
            .clone()
            .expect("audited_config always sets an audit interval");
        let mut auditor = FidelityAuditor::new(audit, &obs);
        let values = vec![3.0, 4.0, 5.0];
        let plan = pq_poly::SharedPlan::compile(cfg.queries.iter().map(|q| q.poly()));
        let view = pq_poly::SharedView::new(&plan, &values);
        let qv = view.values();
        auditor.on_tick(4, &cfg.queries, &values, &values, qv, qv, &obs);
        assert_eq!(auditor.cursor, 1, "first pass audits q0, cursor advances");
        auditor.on_tick(8, &cfg.queries, &values, &values, qv, qv, &obs);
        assert_eq!(auditor.cursor, 0, "second pass audits q1, wraps around");
        let snap = obs.snapshot();
        assert_eq!(snap.counters[names::AUDIT_SAMPLE], 2);
        assert_eq!(snap.counters[names::AUDIT_DIVERGENCE], 0);
    }
}
