//! Concurrency stress for the registry: writer threads hammer a shared
//! counter and histogram through their handles while a reader snapshots
//! continuously. Asserts no lost (or double-counted) increments, totals
//! that never decrease across successive snapshots, and a histogram
//! whose `u64::MAX` min sentinel never leaks, even into a snapshot that
//! races the first record. The writers start only once the reader has
//! taken its first snapshot, so on one core too the reader cannot miss
//! the whole run.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};

use pq_obs::Obs;

const WRITERS: usize = 8;
const ROUNDS: u64 = 20_000;

#[test]
fn concurrent_writers_lose_nothing_and_totals_stay_monotone() {
    let obs = Obs::null();
    let counter = obs.counter("stress.handle");
    let hist = obs.histogram("stress.handle_ns");
    let done = Arc::new(AtomicBool::new(false));
    // The writers and the reader's first snapshot.
    let start = &Barrier::new(WRITERS + 1);

    std::thread::scope(|s| {
        let mut writers = Vec::new();
        for _ in 0..WRITERS {
            let (counter, hist) = (counter.clone(), hist.clone());
            writers.push(s.spawn(move || {
                start.wait();
                for i in 0..ROUNDS {
                    counter.inc();
                    hist.record(i % 1024);
                }
            }));
        }

        let reader = {
            let obs = obs.clone();
            let done = done.clone();
            s.spawn(move || {
                let (mut last, mut last_hist_count, mut snapshots) = (0u64, 0u64, 0u64);
                while !done.load(Ordering::Relaxed) {
                    let snap = obs.snapshot();
                    // Release the writers before any assertion can fail
                    // and leave them waiting.
                    if snapshots == 0 {
                        start.wait();
                    }
                    let total = snap.counters["stress.handle"];
                    assert!(total >= last, "total went backwards: {last} -> {total}");
                    last = total;
                    let h = &snap.histograms["stress.handle_ns"];
                    assert!(h.count >= last_hist_count, "histogram count went backwards");
                    last_hist_count = h.count;
                    assert_ne!(h.min, u64::MAX);
                    assert!(h.min <= h.max.max(1));
                    snapshots += 1;
                }
                snapshots
            })
        };

        for writer in writers {
            writer.join().unwrap();
        }
        done.store(true, Ordering::Relaxed);
        assert!(reader.join().unwrap() > 0, "reader never snapshotted");
    });

    // Exact final totals: nothing lost, nothing double-counted.
    let snap = obs.snapshot();
    let expected = (WRITERS as u64) * ROUNDS;
    assert_eq!(snap.counters["stress.handle"], expected);
    let h = &snap.histograms["stress.handle_ns"];
    assert_eq!(h.count, expected);
    let expected_sum: u64 = (0..ROUNDS).map(|i| i % 1024).sum::<u64>() * WRITERS as u64;
    assert_eq!(h.sum, expected_sum);
    assert_eq!((h.min, h.max), (0, 1023));
}
