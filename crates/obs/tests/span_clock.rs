//! The event clock starts no later than the first span opens. Its epoch
//! is per process, so this file's one test makes the first telemetry call.

use pq_obs::{Obs, Value};

#[test]
fn a_span_opened_before_any_event_closes_after_its_own_duration() {
    let (obs, ring) = Obs::ring(4);
    let span = obs.timed("first_span");
    std::thread::sleep(std::time::Duration::from_millis(1));
    drop(span);
    let event = &ring.events()[0];
    let Some(&Value::U64(dur_ns)) = event.field("dur_ns") else {
        panic!("no dur_ns on {event:?}")
    };
    assert!(event.ts_ns >= dur_ns, "{event:?}");
}
