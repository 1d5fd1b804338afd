//! End-to-end flight-recorder check: a fixed-seed simulation with an
//! injected audit fault must page the SLO engine within one audit
//! interval and leave a recorder dump that `pq-trace postmortem` renders
//! into a usable triage report.

use std::sync::Arc;

use pq_ddm::{Trace, TraceSet};
use pq_obs::{AlertKind, Obs, Recorder};
use pq_poly::{ItemId, PolynomialQuery};
use pq_sim::{run_observed, AuditConfig, AuditFault, RecorderConfig, SimConfig, SloConfig};
use pq_trace::{load, render_postmortem};

#[test]
fn injected_fault_pages_and_renders_a_postmortem() {
    let dir = std::env::temp_dir().join(format!("pq-postmortem-e2e-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let dump_path = dir.join("flight.jsonl");

    let traces = TraceSet::new(vec![
        Trace::sinusoid(20.0, 3.0, 400.0, 600),
        Trace::sinusoid(10.0, 2.0, 300.0, 600),
    ]);
    let queries = vec![PolynomialQuery::portfolio([(1.0, ItemId(0), ItemId(1))], 8.0).unwrap()];
    let mut cfg = SimConfig::new(traces, queries);
    cfg.audit = Some(AuditConfig::default());
    let fault_tick = 300;
    cfg.audit_fault = Some(AuditFault {
        tick: fault_tick,
        query: 0,
        perturb: 1.0e6,
    });
    cfg.slo = Some(SloConfig::default());

    let recorder = Recorder::new(RecorderConfig::new(dump_path.clone()));
    let obs = Obs::with_subscriber(Arc::new(recorder.clone()));
    assert!(obs.install_recorder(recorder));
    run_observed(&cfg, &obs).unwrap();

    // The zero-budget audit objective paged within one audit interval.
    let slo = obs.slo_engine().expect("SLO engine installed");
    let alerts = slo.alerts();
    let alert = alerts
        .iter()
        .find(|a| a.kind == AlertKind::AuditDivergence)
        .expect("divergence alert raised");
    let every = AuditConfig::default().every as u64;
    assert!(
        alert.raised_at <= fault_tick as u64 + every,
        "raised at {} — more than one audit interval after tick {fault_tick}",
        alert.raised_at
    );

    // The dump renders into a postmortem naming the trigger.
    let events = load(&dump_path).expect("flight recorder dumped");
    let report = render_postmortem(&events, 25);
    assert!(report.contains("reason: audit.divergence"), "{report}");
    assert!(report.contains("audit.divergence"), "{report}");
    assert!(report.contains("Timeline"), "{report}");

    std::fs::remove_dir_all(&dir).ok();
}
