//! Black-box flight recorder: bounded per-thread rings of recent
//! events, dumped to JSONL when something goes wrong.
//!
//! A JSONL trace of a long run is huge and mostly boring; the
//! interesting part is always *the last few seconds before the
//! incident*. The recorder keeps exactly that: each emitting thread
//! owns a bounded ring cell (private to the thread, registered in a
//! shared set, contents preserved after the thread dies), and a
//! **dump trigger** merges every cell, sorts by timestamp, and writes
//! one JSONL postmortem file that `pq-trace postmortem` renders.
//!
//! Triggers: a simulator tick whose fidelity audit flagged an
//! `audit.divergence`, or the process panic hook
//! ([`Recorder::install_panic_hook`]). Dumps are capped per recorder so
//! a fault that repeats cannot fill a disk.
//!
//! The recorder is a [`Subscriber`]; [`crate::Obs::from_config`] fans
//! it in next to the other sinks when [`crate::ObsConfig::recorder`]
//! is set (`PQ_OBS_RECORDER=<path>` on harness binaries).

use crate::event::{Event, EventKind};
use crate::jsonl;
use crate::registry::lock_unpoisoned;
use crate::subscriber::Subscriber;
use std::cell::RefCell;
use std::collections::VecDeque;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, Weak};

/// Default per-thread ring capacity (events).
pub const DEFAULT_RECORDER_CAPACITY: usize = 4096;

/// Hard cap on dumps per recorder — a flapping trigger must not fill
/// the disk with identical postmortems.
pub const MAX_DUMPS: u64 = 8;

/// Flight-recorder configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecorderConfig {
    /// Events retained per thread (newest win; at least 1).
    pub capacity: usize,
    /// Dump destination. The first dump writes exactly this path;
    /// later dumps write numbered siblings (`x.jsonl`, `x-1.jsonl`, …).
    pub path: PathBuf,
}

impl RecorderConfig {
    /// A config with the default capacity.
    pub fn new(path: impl Into<PathBuf>) -> Self {
        RecorderConfig {
            capacity: DEFAULT_RECORDER_CAPACITY,
            path: path.into(),
        }
    }
}

/// One thread's ring of recent events.
struct Cell {
    thread: String,
    ring: Mutex<CellRing>,
}

struct CellRing {
    buf: VecDeque<Event>,
    dropped: u64,
}

struct Shared {
    capacity: usize,
    path: PathBuf,
    cells: Mutex<Vec<Arc<Cell>>>,
    dumps: AtomicU64,
    hook_installed: AtomicBool,
}

/// The flight recorder. Cloning shares the cells; the clone is how the
/// recorder rides in the subscriber chain *and* stays reachable for
/// triggers through [`crate::Obs::recorder`].
#[derive(Clone)]
pub struct Recorder {
    shared: Arc<Shared>,
}

impl std::fmt::Debug for Recorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Recorder")
            .field("capacity", &self.shared.capacity)
            .field("path", &self.shared.path)
            .field("dumps", &self.dump_count())
            .finish()
    }
}

thread_local! {
    /// This thread's cells, one per recorder (keyed by a weak handle to
    /// the shared state, which keeps its address from being reused while
    /// the entry lives). Dropping the thread drops only the map — the
    /// shared set keeps the cell, so a dead thread's last events still
    /// reach the postmortem.
    static CELLS: RefCell<Vec<(Weak<Shared>, Arc<Cell>)>> = const { RefCell::new(Vec::new()) };
}

impl Recorder {
    /// A recorder with the given per-thread capacity and dump path.
    pub fn new(config: RecorderConfig) -> Self {
        Recorder {
            shared: Arc::new(Shared {
                capacity: config.capacity.max(1),
                path: config.path,
                cells: Mutex::new(Vec::new()),
                dumps: AtomicU64::new(0),
                hook_installed: AtomicBool::new(false),
            }),
        }
    }

    fn cell(&self) -> Arc<Cell> {
        CELLS.with(|cells| {
            let mut cells = cells.borrow_mut();
            let me = Arc::as_ptr(&self.shared);
            if let Some((_, cell)) = cells.iter().find(|(key, _)| key.as_ptr() == me) {
                return cell.clone();
            }
            // Dropped recorders' cells go before a new one joins.
            cells.retain(|(key, _)| key.strong_count() > 0);
            let cell = Arc::new(Cell {
                thread: std::thread::current()
                    .name()
                    .unwrap_or("<unnamed>")
                    .to_string(),
                ring: Mutex::new(CellRing {
                    buf: VecDeque::with_capacity(self.shared.capacity.min(1024)),
                    dropped: 0,
                }),
            });
            lock_unpoisoned(&self.shared.cells).push(cell.clone());
            cells.push((Arc::downgrade(&self.shared), cell.clone()));
            cell
        })
    }

    /// Records one event into this thread's ring (oldest event evicted
    /// once the ring is full).
    pub fn record(&self, event: &Event) {
        let cell = self.cell();
        let mut ring = lock_unpoisoned(&cell.ring);
        if ring.buf.len() >= self.shared.capacity {
            ring.buf.pop_front();
            ring.dropped += 1;
        }
        ring.buf.push_back(event.clone());
    }

    /// Events currently buffered across all threads (test/diagnostic).
    pub fn buffered(&self) -> usize {
        lock_unpoisoned(&self.shared.cells)
            .iter()
            .map(|c| lock_unpoisoned(&c.ring).buf.len())
            .sum()
    }

    /// Dumps taken so far.
    pub fn dump_count(&self) -> u64 {
        self.shared.dumps.load(Ordering::Relaxed)
    }

    /// Merges every thread's ring, sorts by timestamp, and writes one
    /// JSONL postmortem file. The first line is a synthetic
    /// `recorder.dump` event carrying the trigger `reason` and the
    /// merge accounting; the rest are the recorded events, oldest
    /// first. Returns the written path.
    ///
    /// # Errors
    /// Propagates file-creation and write failures.
    pub fn dump(&self, reason: &str) -> std::io::Result<PathBuf> {
        let seq = self.shared.dumps.fetch_add(1, Ordering::SeqCst);
        let path = numbered_path(&self.shared.path, seq);
        let mut events = Vec::new();
        let mut threads = 0u64;
        let mut dropped = 0u64;
        for cell in lock_unpoisoned(&self.shared.cells).iter() {
            let ring = lock_unpoisoned(&cell.ring);
            if ring.buf.is_empty() && ring.dropped == 0 {
                continue;
            }
            threads += 1;
            dropped += ring.dropped;
            for event in &ring.buf {
                events.push((cell.thread.clone(), event.clone()));
            }
        }
        events.sort_by_key(|(_, e)| e.ts_ns);
        let header = Event::new("recorder.dump", EventKind::Point)
            .with("reason", reason.to_string())
            .with("seq", seq)
            .with("threads", threads)
            .with("events", events.len())
            .with("dropped", dropped);
        let mut out = std::io::BufWriter::new(std::fs::File::create(&path)?);
        writeln!(out, "{}", jsonl::to_json(&header))?;
        for (thread, event) in &events {
            let event = event.clone().with("thread", thread.clone());
            writeln!(out, "{}", jsonl::to_json(&event))?;
        }
        out.flush()?;
        Ok(path)
    }

    /// Best-effort dump for in-band triggers: swallows I/O errors and
    /// stops entirely after [`MAX_DUMPS`] dumps. Returns the written
    /// path, if any.
    pub fn trigger(&self, reason: &str) -> Option<PathBuf> {
        if self.dump_count() >= MAX_DUMPS {
            return None;
        }
        self.dump(reason).ok()
    }

    /// Chains a panic hook that dumps the recorder (reason `panic`)
    /// before the previous hook runs. Installs at most once per
    /// recorder; the hook holds a clone, so the recorder stays alive
    /// for the process lifetime.
    pub fn install_panic_hook(&self) {
        if self.shared.hook_installed.swap(true, Ordering::SeqCst) {
            return;
        }
        let recorder = self.clone();
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            recorder.trigger("panic");
            prev(info);
        }));
    }
}

/// `seq` 0 keeps `path` as-is; later dumps insert `-<seq>` before the
/// extension (`post.jsonl` → `post-1.jsonl`).
fn numbered_path(path: &Path, seq: u64) -> PathBuf {
    if seq == 0 {
        return path.to_path_buf();
    }
    let stem = path.file_stem().and_then(|s| s.to_str()).unwrap_or("dump");
    let ext = path.extension().and_then(|s| s.to_str()).unwrap_or("jsonl");
    path.with_file_name(format!("{stem}-{seq}.{ext}"))
}

impl Subscriber for Recorder {
    fn on_event(&self, event: &Event) {
        self.record(event);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Value;

    fn temp_path(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("pq-obs-recorder-tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    fn read_events(path: &Path) -> Vec<Event> {
        std::fs::read_to_string(path)
            .unwrap()
            .lines()
            .map(|l| jsonl::parse(l).unwrap())
            .collect()
    }

    #[test]
    fn ring_keeps_only_the_newest_events() {
        let recorder = Recorder::new(RecorderConfig {
            capacity: 3,
            path: temp_path("ring.jsonl"),
        });
        for i in 0..10u64 {
            recorder.record(&Event::new("sim.refresh", EventKind::Point).with("i", i));
        }
        assert_eq!(recorder.buffered(), 3);
        let path = recorder.dump("test").unwrap();
        let events = read_events(&path);
        assert_eq!(events[0].target, "recorder.dump");
        assert_eq!(events[0].field("dropped"), Some(&Value::U64(7)));
        let kept: Vec<_> = events[1..]
            .iter()
            .map(|e| e.field("i").cloned().unwrap())
            .collect();
        assert_eq!(kept, vec![Value::U64(7), Value::U64(8), Value::U64(9)]);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn dump_merges_threads_in_timestamp_order() {
        let recorder = Recorder::new(RecorderConfig {
            capacity: 64,
            path: temp_path("merge.jsonl"),
        });
        recorder.record(&Event::new("main.event", EventKind::Point));
        let clone = recorder.clone();
        std::thread::Builder::new()
            .name("worker-1".into())
            .spawn(move || {
                clone.record(&Event::new("worker.event", EventKind::Point));
            })
            .unwrap()
            .join()
            .unwrap();
        // The worker is dead; its cell must still reach the dump.
        let path = recorder.dump("test").unwrap();
        let events = read_events(&path);
        assert_eq!(events[0].field("threads"), Some(&Value::U64(2)));
        assert_eq!(events.len(), 3);
        let ts: Vec<_> = events[1..].iter().map(|e| e.ts_ns).collect();
        assert!(ts.windows(2).all(|w| w[0] <= w[1]), "sorted by ts");
        assert!(events[1..].iter().any(|e| {
            e.field("thread") == Some(&Value::Str("worker-1".into())) && e.target == "worker.event"
        }));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn repeated_dumps_write_numbered_siblings_and_cap_out() {
        let recorder = Recorder::new(RecorderConfig {
            capacity: 4,
            path: temp_path("cap.jsonl"),
        });
        recorder.record(&Event::new("x", EventKind::Point));
        let mut paths = Vec::new();
        for _ in 0..MAX_DUMPS + 3 {
            if let Some(p) = recorder.trigger("flap") {
                paths.push(p);
            }
        }
        assert_eq!(paths.len() as u64, MAX_DUMPS);
        assert_eq!(paths[0], temp_path("cap.jsonl"));
        assert_eq!(paths[1], temp_path("cap-1.jsonl"));
        for p in &paths {
            std::fs::remove_file(p).ok();
        }
    }

    #[test]
    fn recorder_as_subscriber_captures_obs_events() {
        let recorder = Recorder::new(RecorderConfig {
            capacity: 16,
            path: temp_path("sub.jsonl"),
        });
        let obs = crate::Obs::with_subscriber(Arc::new(recorder.clone()));
        assert!(obs.enabled("anything"));
        obs.emit_with("sim.refresh", EventKind::Point, |e| e.with("item", 4u64));
        {
            let _t = obs.timed("gp.solve");
        }
        assert_eq!(recorder.buffered(), 2);
    }

    #[test]
    fn a_recorder_built_after_another_dropped_keeps_its_own_events() {
        // The allocator hands a new recorder the address of one just
        // dropped; this thread's events must still land in the new one.
        for round in 0..8u64 {
            let recorder = Recorder::new(RecorderConfig {
                capacity: 4,
                path: temp_path("reuse.jsonl"),
            });
            recorder.record(&Event::new("x", EventKind::Point).with("round", round));
            assert_eq!(recorder.buffered(), 1, "round {round}");
        }
    }
}
