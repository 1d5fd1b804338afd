//! The one parallel map: `f(0), …, f(n - 1)` in index order, in
//! contiguous shares over the calling thread and scoped workers. Its
//! callers — the tape generators ([`crate::TraceSet::stock_universe`])
//! and a coordinator's install (pq-core) — map an index to a value of the
//! index alone, so the result is the plain loop's whoever computes what.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// The machine's available parallelism. Resolved once per process: the
/// query reads the cgroup quota from files.
pub fn available_cores() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// The map in chunks of `chunk` indices on at most `workers` threads
/// (never more than there are chunks: one chunk runs inline). The chunks
/// are dealt out in equal contiguous shares, the first to the calling
/// thread; a worker computes its own share chunk by chunk and then
/// whatever the others have not reached, so one that starts late or runs
/// slow delays the map by a chunk, not by its share. A thread starts
/// ≈ 0.24 ms after its spawn when the core was idle for 5 ms, ≈ 40 µs
/// back to back (p50s of 200 spawns on a shared 2-vCPU VM): size a chunk
/// at a fraction of a millisecond of work. A panic in `f` resumes on the
/// calling thread with its own message.
///
/// # Panics
/// Panics if `chunk` or `workers` is 0.
pub fn chunked_map<T: Send + Sync>(
    workers: usize,
    chunk: usize,
    n: usize,
    f: impl Fn(usize) -> T + Sync,
) -> Vec<T> {
    map_in_shares(workers, chunk, n, true, f)
}

/// [`chunked_map`] with one chunk a share and nothing taken: which thread
/// computes which index depends on `n` and `workers` alone. For values
/// that own heap memory and are built again and again in one process:
/// the allocator keeps an arena per thread, each at the most it ever
/// held, so shares that move between threads from one call to the next
/// leave every arena at the largest share it ever took.
///
/// # Panics
/// Panics if `workers` is 0.
pub fn split_map<T: Send + Sync>(
    workers: usize,
    n: usize,
    f: impl Fn(usize) -> T + Sync,
) -> Vec<T> {
    map_in_shares(workers, n.div_ceil(workers.max(1)).max(1), n, false, f)
}

/// The map of [`chunked_map`] (`share_work`) and of [`split_map`].
fn map_in_shares<T: Send + Sync>(
    workers: usize,
    chunk: usize,
    n: usize,
    share_work: bool,
    f: impl Fn(usize) -> T + Sync,
) -> Vec<T> {
    assert!(chunk > 0 && workers > 0, "empty chunks or no worker");
    let chunks: Vec<OnceLock<Vec<T>>> = (0..n.div_ceil(chunk)).map(|_| OnceLock::new()).collect();
    let workers = workers.min(chunks.len()).max(1);
    let share = chunks.len().div_ceil(workers);
    // A share's cursor hands out its chunk indices and nothing else: a
    // computed chunk reaches the calling thread through its slot and the
    // join.
    let cursors: Vec<AtomicUsize> = (0..workers).map(|w| AtomicUsize::new(w * share)).collect();
    let shares_visited = if share_work { workers } else { 1 };
    let work = |worker: usize| {
        for owner in (worker..workers).chain(0..worker).take(shares_visited) {
            let end = ((owner + 1) * share).min(chunks.len());
            loop {
                let claimed = cursors[owner].fetch_add(1, Ordering::Relaxed);
                if claimed >= end {
                    break;
                }
                let first = claimed * chunk;
                let done = (first..(first + chunk).min(n)).map(&f).collect();
                chunks[claimed]
                    .set(done)
                    .unwrap_or_else(|_| unreachable!("a chunk index is handed out once"));
            }
        }
    };
    std::thread::scope(|scope| {
        let others: Vec<_> = (1..workers)
            .map(|worker| scope.spawn(move || work(worker)))
            .collect();
        work(0);
        for other in others {
            // A worker's panic keeps its own message.
            other
                .join()
                .unwrap_or_else(|p| std::panic::resume_unwind(p));
        }
    });
    let mut out = Vec::with_capacity(n);
    for chunk in chunks {
        out.extend(chunk.into_inner().expect("every chunk was computed"));
    }
    out
}

#[cfg(test)]
mod tests {
    use std::sync::{Condvar, Mutex};
    use std::time::Duration;

    use super::*;

    /// Forced worker counts: the loop run once, a pair, a count that
    /// leaves a short last share, and one above most chunk counts below.
    const WORKERS: [usize; 4] = [1, 2, 3, 7];

    /// Every index count up to one past three full chunks, for chunks of
    /// one to five indices, comes back complete and in index order
    /// whoever computed which chunk; so does every split.
    #[test]
    fn chunks_come_back_in_index_order_around_every_boundary() {
        for workers in WORKERS {
            for chunk in 1..=5 {
                for n in 0..=3 * chunk + 1 {
                    let got = chunked_map(workers, chunk, n, |i| i);
                    let want: Vec<usize> = (0..n).collect();
                    assert_eq!(got, want, "{workers} workers, chunks of {chunk}");
                    assert_eq!(split_map(workers, n, |i| i), want, "{workers} workers");
                }
            }
        }
    }

    /// A split's shares are `⌈n / workers⌉` long, the first computed by
    /// the calling thread and each other by a thread of its own, however
    /// late that thread starts: with one index a share, the calling thread
    /// is done before the other has started, and still leaves it its
    /// index.
    #[test]
    fn split_map_leaves_each_share_to_its_worker() {
        let caller = std::thread::current().id();
        for _ in 0..20 {
            let by_caller = split_map(2, 2, |_| std::thread::current().id() == caller);
            assert_eq!(by_caller, [true, false]);
        }
        for workers in WORKERS {
            for n in 0..=20 {
                let threads = split_map(workers, n, |_| std::thread::current().id());
                let share = n.div_ceil(workers).max(1);
                for (i, thread) in threads.iter().enumerate() {
                    let first = threads[i / share * share];
                    assert_eq!(*thread, first, "{workers} workers, {n} indices: {i}");
                    assert_eq!(*thread == caller, i < share, "{workers} workers, {n}: {i}");
                }
            }
        }
    }

    /// A worker that stalls after claiming its first chunk costs the map
    /// that chunk and no more: the calling thread computes its own share,
    /// then takes the rest of the stalled worker's. The worker's first
    /// index waits until the caller has computed every other chunk, and
    /// the caller's first waits until the worker has claimed, so the
    /// split is the same on every run.
    #[test]
    fn a_stalled_worker_costs_one_chunk() {
        const CHUNK: usize = 16;
        const N: usize = 100;
        /// Long enough never to fire on a loaded machine; it turns a
        /// broken hand-off into a failure instead of a hang.
        const PATIENCE: Duration = Duration::from_secs(60);
        #[derive(Default)]
        struct Hand {
            /// The first index the spawned worker reached.
            stalled_on: Option<usize>,
            /// Indices the calling thread has computed.
            done_by_caller: Vec<usize>,
            released: bool,
        }
        assert_eq!(N.div_ceil(CHUNK), 7);
        let caller = std::thread::current().id();
        let hand = Mutex::new(Hand::default());
        let signal = Condvar::new();
        let wait = |until: &dyn Fn(&Hand) -> bool, what: &str| {
            let guard = hand.lock().unwrap();
            let (guard, timeout) = signal
                .wait_timeout_while(guard, PATIENCE, |h| !until(h))
                .unwrap();
            assert!(!timeout.timed_out(), "waited {PATIENCE:?} for {what}");
            drop(guard);
        };
        let got = chunked_map(2, CHUNK, N, |i| {
            if std::thread::current().id() == caller {
                if i == 0 {
                    wait(&|h| h.stalled_on.is_some(), "the worker to claim");
                }
                let mut h = hand.lock().unwrap();
                h.done_by_caller.push(i);
                if h.done_by_caller.len() == N - CHUNK {
                    h.released = true;
                    signal.notify_all();
                }
            } else {
                let mut h = hand.lock().unwrap();
                if h.stalled_on.is_none() {
                    h.stalled_on = Some(i);
                    signal.notify_all();
                    drop(h);
                    wait(&|h| h.released, "the caller to compute every other chunk");
                }
            }
            i * i
        });
        assert_eq!(got, (0..N).map(|i| i * i).collect::<Vec<_>>());
        let hand = hand.into_inner().unwrap();
        let stalled_chunk = hand.stalled_on.unwrap() / CHUNK;
        let mut caller_chunks: Vec<usize> = hand.done_by_caller.iter().map(|i| i / CHUNK).collect();
        caller_chunks.dedup();
        let others: Vec<usize> = (0..7).filter(|&c| c != stalled_chunk).collect();
        assert_eq!(
            caller_chunks, others,
            "the caller computed all chunks but one"
        );
    }

    /// A panic on a worker thread is reported in its own words.
    #[test]
    #[should_panic(expected = "index 7 failed")]
    fn a_workers_panic_keeps_its_message() {
        chunked_map(3, 1, 9, |i| assert!(i != 7, "index {i} failed"));
    }
}
