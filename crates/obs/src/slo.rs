//! Fidelity SLO engine: error budgets and multi-window burn-rate
//! alerts over the live fidelity stream.
//!
//! The paper's headline metric — the fraction of time every query's
//! value stays inside its quantified accuracy bound — is exactly a
//! service-level objective over a continuously maintained view. This
//! module turns the per-tick fidelity samples, the per-query QAB
//! violation counters, and the audit stream into an ops story:
//!
//! * an **error budget** per query book: with target availability `t`,
//!   the budget is the `1 - t` fraction of query-samples allowed to
//!   violate their QAB over the run;
//! * **burn rate**: the windowed violation ratio divided by the budget
//!   — burn 1 spends the budget exactly at the allowed pace, burn 14
//!   exhausts it 14× too fast;
//! * **multi-window alerts** (the classic SRE pairing): an alert needs
//!   the burn to exceed its factor in *both* a short and a long window
//!   — the long window proves the regression is sustained, the short
//!   window makes the alert clear quickly once the problem stops. The
//!   fast pair (5 s / 1 m) pages on sharp regressions; the slow pair
//!   (1 m / 1 h) catches smoldering ones.
//! * an **audit-integrity objective** with zero budget: the delta plane
//!   disagreeing with the naive shadow evaluation
//!   ([`crate::names::AUDIT_DIVERGENCE`]) is always a bug, so any
//!   divergence is an infinite burn and raises immediately.
//!
//! The engine is driven by the caller-owned clock of
//! [`crate::window`] (one unit = one simulated second), so alerting is
//! deterministic on a fixed seed. Feed it per-tick deltas with
//! [`SloEngine::observe`]; newly raised alerts come back to the caller,
//! which is where the flight-recorder dump trigger lives.

use crate::registry::lock_unpoisoned;
use crate::window::{WindowedCounter, WINDOW_1H, WINDOW_1M, WINDOW_5S};
use std::sync::Mutex;

/// One burn-rate alerting pair: short and long windows (clock units)
/// plus the burn factor both must exceed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BurnWindow {
    /// The short window (fast clear).
    pub short: u64,
    /// The long window (sustained evidence).
    pub long: u64,
    /// Burn-rate threshold; both windows must burn at least this fast.
    pub factor: f64,
}

/// Configuration of the fidelity SLO engine.
#[derive(Debug, Clone, PartialEq)]
pub struct SloConfig {
    /// Target fidelity: the fraction of query-samples that must sit
    /// inside their QAB. The error budget is `1 - target`.
    pub target: f64,
    /// The paging pair: 5 s / 1 m at burn 14.4 by default (exhausts a
    /// month-scaled budget in ~2 days; here it simply means "two orders
    /// of magnitude over budget, right now").
    pub fast: BurnWindow,
    /// The ticket pair: 1 m / 1 h at burn 6 by default.
    pub slow: BurnWindow,
}

impl Default for SloConfig {
    fn default() -> Self {
        SloConfig {
            target: 0.9,
            fast: BurnWindow {
                short: WINDOW_5S,
                long: WINDOW_1M,
                factor: 14.4,
            },
            slow: BurnWindow {
                short: WINDOW_1M,
                long: WINDOW_1H,
                factor: 6.0,
            },
        }
    }
}

/// What kind of SLO alert fired.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AlertKind {
    /// The fast (paging) burn-rate pair exceeded its factor.
    FastBurn,
    /// The slow (ticket) burn-rate pair exceeded its factor.
    SlowBurn,
    /// The audit stream reported delta-vs-naive divergence (zero-budget
    /// objective: any occurrence alerts).
    AuditDivergence,
}

impl AlertKind {
    /// Stable lowercase identifier used in events and JSON.
    pub fn as_str(self) -> &'static str {
        match self {
            AlertKind::FastBurn => "fast_burn",
            AlertKind::SlowBurn => "slow_burn",
            AlertKind::AuditDivergence => "audit_divergence",
        }
    }
}

/// One raised (and possibly since-cleared) alert.
#[derive(Debug, Clone, PartialEq)]
pub struct Alert {
    /// Monotonic id, unique within this engine.
    pub id: u64,
    /// Which objective fired.
    pub kind: AlertKind,
    /// Clock value when the alert was raised.
    pub raised_at: u64,
    /// Clock value when it cleared, `None` while active.
    pub cleared_at: Option<u64>,
    /// Burn rate in the pair's short window at raise time.
    pub burn_short: f64,
    /// Burn rate in the pair's long window at raise time.
    pub burn_long: f64,
    /// Human-readable one-liner.
    pub message: String,
}

impl Alert {
    /// Whether the alert is still firing.
    pub fn is_active(&self) -> bool {
        self.cleared_at.is_none()
    }
}

/// Bound on remembered (cleared) alerts; active ones are always kept.
const ALERT_HISTORY_CAP: usize = 256;

struct SloInner {
    now: u64,
    samples: WindowedCounter,
    violations: WindowedCounter,
    divergences: WindowedCounter,
    alerts: Vec<Alert>,
    next_id: u64,
}

/// The engine: windowed good/bad accounting and the alert lifecycle.
pub struct SloEngine {
    cfg: SloConfig,
    inner: Mutex<SloInner>,
}

impl std::fmt::Debug for SloEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = lock_unpoisoned(&self.inner);
        f.debug_struct("SloEngine")
            .field("cfg", &self.cfg)
            .field("now", &inner.now)
            .field("alerts", &inner.alerts.len())
            .finish()
    }
}

impl SloEngine {
    /// A fresh engine at clock 0.
    pub fn new(cfg: SloConfig) -> Self {
        SloEngine {
            cfg,
            inner: Mutex::new(SloInner {
                now: 0,
                samples: WindowedCounter::new(),
                violations: WindowedCounter::new(),
                divergences: WindowedCounter::new(),
                alerts: Vec::new(),
                next_id: 0,
            }),
        }
    }

    /// The engine's configuration.
    pub fn config(&self) -> &SloConfig {
        &self.cfg
    }

    /// The clock value of the latest observation (0 before any). A run
    /// that adopts an engine other runs already drove continues from
    /// here, since the clock never moves backwards.
    pub fn now(&self) -> u64 {
        lock_unpoisoned(&self.inner).now
    }

    /// Advances the clock to `now`, accounts one tick's deltas
    /// (`samples` query-samples taken, of which `violations` were
    /// outside their QAB, plus `divergences` audit divergences), and
    /// runs the alert lifecycle. Returns the alerts *newly raised* by
    /// this observation — the caller's cue to dump the flight recorder.
    pub fn observe(&self, now: u64, samples: u64, violations: u64, divergences: u64) -> Vec<Alert> {
        let budget = self.budget();
        let mut inner = lock_unpoisoned(&self.inner);
        let inner = &mut *inner;
        inner.now = inner.now.max(now);
        let now = inner.now;
        inner.samples.advance(now);
        inner.violations.advance(now);
        inner.divergences.advance(now);
        if samples > 0 {
            inner.samples.record(samples);
        }
        if violations > 0 {
            inner.violations.record(violations);
        }
        if divergences > 0 {
            inner.divergences.record(divergences);
        }

        let burn = |window: u64| -> f64 {
            let s = inner.samples.sum(window);
            if s == 0 {
                return 0.0;
            }
            let ratio = inner.violations.sum(window) as f64 / s as f64;
            if budget > 0.0 {
                ratio / budget
            } else if ratio > 0.0 {
                f64::INFINITY
            } else {
                0.0
            }
        };
        let fast = (burn(self.cfg.fast.short), burn(self.cfg.fast.long));
        let slow = (burn(self.cfg.slow.short), burn(self.cfg.slow.long));

        let divergences_recent = inner.divergences.sum(self.cfg.fast.long);
        let mut raised = Vec::new();
        let conditions = [
            (
                AlertKind::FastBurn,
                fast.0 >= self.cfg.fast.factor && fast.1 >= self.cfg.fast.factor,
                fast,
            ),
            (
                AlertKind::SlowBurn,
                slow.0 >= self.cfg.slow.factor && slow.1 >= self.cfg.slow.factor,
                slow,
            ),
            (
                AlertKind::AuditDivergence,
                divergences_recent > 0,
                (divergences_recent as f64, divergences_recent as f64),
            ),
        ];
        for (kind, active, (burn_short, burn_long)) in conditions {
            let open = inner
                .alerts
                .iter_mut()
                .find(|a| a.kind == kind && a.is_active());
            match (open, active) {
                (None, true) => {
                    // The message is only built on the raise transition —
                    // this runs once per tick in the engine hot loop, and
                    // formatting three strings per tick is pure waste on
                    // the (overwhelmingly common) quiet path.
                    let message = match kind {
                        AlertKind::FastBurn => format!(
                            "fidelity burn {:.1}x budget over {}s and {:.1}x over {}s (factor {})",
                            fast.0,
                            self.cfg.fast.short,
                            fast.1,
                            self.cfg.fast.long,
                            self.cfg.fast.factor
                        ),
                        AlertKind::SlowBurn => format!(
                            "fidelity burn {:.1}x budget over {}s and {:.1}x over {}s (factor {})",
                            slow.0,
                            self.cfg.slow.short,
                            slow.1,
                            self.cfg.slow.long,
                            self.cfg.slow.factor
                        ),
                        AlertKind::AuditDivergence => format!(
                            "{divergences_recent} audit divergence(s) in the last {}s — \
                             the delta plane disagrees with the naive shadow evaluation",
                            self.cfg.fast.long
                        ),
                    };
                    let alert = Alert {
                        id: inner.next_id,
                        kind,
                        raised_at: now,
                        cleared_at: None,
                        burn_short,
                        burn_long,
                        message,
                    };
                    inner.next_id += 1;
                    raised.push(alert.clone());
                    inner.alerts.push(alert);
                }
                (Some(alert), false) => alert.cleared_at = Some(now),
                _ => {}
            }
        }
        // Bound the history: drop the oldest *cleared* alerts first.
        while inner.alerts.len() > ALERT_HISTORY_CAP {
            match inner.alerts.iter().position(|a| !a.is_active()) {
                Some(i) => {
                    inner.alerts.remove(i);
                }
                None => break,
            }
        }
        raised
    }

    /// Every remembered alert, oldest first (active and cleared).
    pub fn alerts(&self) -> Vec<Alert> {
        lock_unpoisoned(&self.inner).alerts.clone()
    }

    /// The error budget: the fraction of samples allowed to violate.
    fn budget(&self) -> f64 {
        (1.0 - self.cfg.target).max(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn engine(target: f64) -> SloEngine {
        SloEngine::new(SloConfig {
            target,
            ..SloConfig::default()
        })
    }

    /// How many of the engine's remembered alerts are still firing.
    fn active(slo: &SloEngine) -> usize {
        slo.alerts().iter().filter(|a| a.is_active()).count()
    }

    #[test]
    fn clean_stream_raises_nothing() {
        let slo = engine(0.9);
        for t in 1..=200 {
            assert!(slo.observe(t, 10, 0, 0).is_empty());
        }
        assert!(slo.alerts().is_empty());
    }

    #[test]
    fn violations_under_budget_do_not_alert() {
        // 5% violations against a 10% budget: burn 0.5, no alert.
        let slo = engine(0.9);
        for t in 1..=600 {
            let v = u64::from(t % 20 == 0);
            assert!(slo.observe(t, 1, v, 0).is_empty());
        }
        assert!(slo.alerts().is_empty());
    }

    #[test]
    fn sustained_burn_raises_fast_then_clears() {
        // 100% violations against a 1% budget: burn 100 exceeds both
        // the fast (14.4) and slow (6) factors, so both pairs page.
        let slo = engine(0.99);
        let mut raised: Vec<(AlertKind, u64)> = Vec::new();
        for t in 1..=120 {
            for a in slo.observe(t, 10, 10, 0) {
                assert!(a.burn_short >= 6.0 && a.burn_long >= 6.0);
                if a.kind == AlertKind::FastBurn {
                    assert!(a.burn_long > 14.4);
                }
                raised.push((a.kind, t));
            }
        }
        assert_eq!(
            raised,
            vec![(AlertKind::FastBurn, 1), (AlertKind::SlowBurn, 1)],
            "both pairs fire as soon as every window agrees"
        );
        assert_eq!(active(&slo), 2);

        // Recovery: an alert clears as soon as *either* of its windows
        // drops under the factor — the short window is what makes that
        // fast (5 s for the paging pair, 1 m for the ticket pair).
        for t in 121..=400 {
            slo.observe(t, 10, 0, 0);
        }
        assert_eq!(active(&slo), 0);
        let history = slo.alerts();
        assert_eq!(history.len(), 2);
        let cleared: std::collections::BTreeMap<_, _> = history
            .iter()
            .map(|a| (a.kind.as_str(), a.cleared_at.expect("cleared")))
            .collect();
        assert!(cleared["fast_burn"] <= 121 + 6, "{cleared:?}");
        assert!(cleared["slow_burn"] <= 121 + 60, "{cleared:?}");
    }

    #[test]
    fn short_blip_does_not_page() {
        // One violating tick in an otherwise clean stream: the 5 s
        // window spikes but the 1 m window never crosses the factor.
        let slo = engine(0.99);
        for t in 1..=120 {
            let bad = if t == 60 { 10 } else { 0 };
            assert!(slo.observe(t, 10, bad, 0).is_empty(), "paged at t={t}");
        }
        assert_eq!(active(&slo), 0);
    }

    #[test]
    fn slow_burn_catches_smoldering_regressions() {
        // 10% violations against a 1% budget is burn 10: above the
        // slow factor 6, below the fast factor 14.4 — only the slow
        // pair may page. (While the 1 m window is still warming up the
        // ratio dips below the factor between violating ticks, so the
        // alert can legitimately flap once or twice before t=60; what
        // matters is that every page is a SlowBurn and it is still
        // active after an hour of smoldering.)
        let slo = engine(0.99);
        let mut kinds = Vec::new();
        for t in 1..=3700 {
            let bad = u64::from(t % 10 == 0) * 10;
            for a in slo.observe(t, 10, bad, 0) {
                kinds.push(a.kind);
            }
        }
        assert!(!kinds.is_empty(), "slow burn never fired");
        assert!(
            kinds.iter().all(|k| *k == AlertKind::SlowBurn),
            "only the slow pair may page on a smoldering burn: {kinds:?}"
        );
        assert!(active(&slo) > 0, "the slow burn is still firing");
    }

    #[test]
    fn any_divergence_alerts_immediately_and_ages_out() {
        let slo = engine(0.9);
        for t in 1..=50 {
            assert!(slo.observe(t, 10, 0, 0).is_empty());
        }
        let new = slo.observe(51, 10, 0, 1);
        assert_eq!(new.len(), 1);
        assert_eq!(new[0].kind, AlertKind::AuditDivergence);
        assert_eq!(active(&slo), 1);
        // No repeat alert while it stays active.
        assert!(slo.observe(52, 10, 0, 1).is_empty());
        // Clears once the divergence leaves the 1 m window.
        for t in 53..=120 {
            slo.observe(t, 10, 0, 0);
        }
        assert_eq!(active(&slo), 0);
        assert_eq!(slo.alerts().len(), 1);
        assert!(!slo.alerts()[0].is_active());
    }

    #[test]
    fn zero_budget_makes_any_violation_infinite_burn() {
        let slo = engine(1.0);
        for t in 1..=10 {
            slo.observe(t, 10, 1, 0);
        }
        assert!(active(&slo) > 0);
    }

    #[test]
    fn alert_history_is_bounded() {
        let slo = engine(0.9);
        let mut t = 0;
        for _ in 0..(ALERT_HISTORY_CAP + 40) {
            // One divergence raises; 61 clean ticks clear it.
            t += 1;
            slo.observe(t, 1, 0, 1);
            t += 61;
            slo.observe(t, 1, 0, 0);
        }
        assert!(slo.alerts().len() <= ALERT_HISTORY_CAP);
        assert_eq!(active(&slo), 0);
    }
}
