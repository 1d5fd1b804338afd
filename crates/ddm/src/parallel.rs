//! The parallel map: `f(0), …, f(n - 1)` in index order, in contiguous
//! shares over the calling thread and scoped workers. Its callers — the
//! tape generators ([`crate::TraceSet::stock_universe`]) and a
//! coordinator's install (pq-core, in two phases) — map an index to a
//! value of the index and of what the phase before published, so the
//! result is the plain loop's whoever computes what. And [`read_ahead`],
//! which streams a worker's blocks to the calling thread.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Barrier, OnceLock};

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
    assert!(chunk > 0 && workers > 0, "empty chunks or no worker");
    let chunks: Vec<OnceLock<Vec<T>>> = (0..n.div_ceil(chunk)).map(|_| OnceLock::new()).collect();
    let workers = workers.min(chunks.len()).max(1);
    let share = chunks.len().div_ceil(workers);
    // A share's cursor hands out its chunk indices and nothing else: a
    // computed chunk reaches the calling thread through its slot and the
    // join.
    let cursors: Vec<AtomicUsize> = (0..workers).map(|w| AtomicUsize::new(w * share)).collect();
    let work = |worker: usize| {
        for owner in (worker..workers).chain(0..worker) {
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
            other.join().unwrap_or_else(|p| resume_unwind(p));
        }
    });
    let mut out = Vec::with_capacity(n);
    for chunk in chunks {
        out.extend(chunk.into_inner().expect("every chunk was computed"));
    }
    out
}

/// How many indices of `0..n` each thread of [`split_phases`] on
/// `workers` workers takes: `⌈n / workers⌉`, the last thread what is
/// left.
pub fn share_len(workers: usize, n: usize) -> usize {
    n.div_ceil(workers.max(1)).max(1)
}

/// The map in two phases on the same threads, after a preparation:
/// the calling thread starts the workers and runs `prepare` while they
/// start; then `first(p, i)` runs over one contiguous share of `0..n`
/// per thread ([`share_len`] indices, the first share the calling
/// thread's), and, once every thread has finished its share,
/// `second(p, i, first(p, i))` over the same share, which may read
/// whatever any thread's `first` published. Returns what `prepare` made
/// and the values in index order. Nothing is taken: which thread
/// computes which index depends on `n` and `workers` alone, in both
/// phases. For values that own heap memory and are built again and
/// again in one process: the allocator keeps an arena per thread, each
/// at the most it ever held, so shares that move between threads from
/// one call to the next leave every arena at the largest share it ever
/// took. A panic in `prepare` or in either phase resumes on the calling
/// thread with its own message (every thread still passes both
/// barriers).
///
/// # Panics
/// Panics if `workers` is 0.
pub fn split_phases<P: Send + Sync, A, B: Send>(
    workers: usize,
    n: usize,
    prepare: impl FnOnce() -> P,
    first: impl Fn(&P, usize) -> A + Sync,
    second: impl Fn(&P, usize, A) -> B + Sync,
) -> (P, Vec<B>) {
    assert!(workers > 0, "no worker");
    let share = share_len(workers, n);
    let threads = n.div_ceil(share).max(1);
    let prepared = OnceLock::new();
    let (ready, between) = (Barrier::new(threads), Barrier::new(threads));
    let work = |thread: usize, p: &P| -> Vec<B> {
        let own = thread * share..((thread + 1) * share).min(n);
        let firsts = catch_unwind(AssertUnwindSafe(|| {
            own.clone().map(|i| first(p, i)).collect::<Vec<A>>()
        }));
        between.wait();
        let firsts = firsts.unwrap_or_else(|panic| resume_unwind(panic));
        own.zip(firsts).map(|(i, a)| second(p, i, a)).collect()
    };
    let out = std::thread::scope(|scope| {
        let (work, prepared, ready) = (&work, &prepared, &ready);
        let others: Vec<_> = (1..threads)
            .map(|thread| {
                scope.spawn(move || {
                    ready.wait();
                    // Nothing prepared: `prepare` panicked, and the
                    // calling thread reports it.
                    prepared.get().map_or_else(Vec::new, |p| work(thread, p))
                })
            })
            .collect();
        let made = catch_unwind(AssertUnwindSafe(prepare)).map(|p| prepared.set(p));
        ready.wait();
        if let Err(panic) = made {
            others.into_iter().for_each(|other| drop(other.join()));
            resume_unwind(panic);
        }
        let mut out = work(0, prepared.get().expect("prepared above"));
        for other in others {
            // A worker's panic keeps its own message.
            out.extend(other.join().unwrap_or_else(|panic| resume_unwind(panic)));
        }
        out
    });
    (prepared.into_inner().expect("prepared in the scope"), out)
}

/// Blocks `0, …, n_blocks - 1`, each filled by `produce(block, buffer)`
/// and then read by `consume(block, buffer)` on the calling thread, in
/// order, in the caller's `buffers` (recycled: the producer writes into
/// nothing else). With `ahead`, two blocks and two buffers, `produce`
/// runs on one scoped worker up to `buffers.len() - 1` blocks ahead;
/// otherwise the two alternate on `buffers[0]`. The first `Err` of
/// `consume` stops the producer at its next block and comes back; a
/// panic in `produce` resumes here with its own message.
pub fn read_ahead<B: Send, E>(
    ahead: bool,
    buffers: &mut [B],
    n_blocks: usize,
    mut produce: impl FnMut(usize, &mut B) + Send,
    mut consume: impl FnMut(usize, &B) -> Result<(), E>,
) -> Result<(), E> {
    if !ahead || n_blocks < 2 || buffers.len() < 2 {
        for block in 0..n_blocks {
            produce(block, &mut buffers[0]);
            consume(block, &buffers[0])?;
        }
        return Ok(());
    }
    std::thread::scope(|scope| {
        // Both channels drop with this closure however it ends, so the
        // worker stops at its next send or receive and the join returns.
        let (free_tx, free_rx) = mpsc::channel();
        let (full_tx, full_rx) = mpsc::channel();
        for buffer in buffers.iter_mut() {
            free_tx.send(buffer).expect("the receiver is in scope");
        }
        let producer = scope.spawn(move || {
            let mut free = free_rx.iter().take(n_blocks).enumerate();
            let _ = free.try_for_each(|(block, buffer)| {
                produce(block, buffer);
                full_tx.send(buffer)
            });
        });
        // Ends early only if the producer panicked: the join says how.
        let result = full_rx.iter().enumerate().try_for_each(|(block, buffer)| {
            consume(block, buffer)?;
            // Refused once the producer has filled its last block.
            let _ = free_tx.send(buffer);
            Ok(())
        });
        drop((free_tx, full_rx));
        producer
            .join()
            .unwrap_or_else(|p| std::panic::resume_unwind(p));
        result
    })
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
                    let (_, split) =
                        split_phases(workers, n, || 2, |k, i| k * i, |_, i, twice| (i, twice));
                    let twice: Vec<(usize, usize)> = (0..n).map(|i| (i, 2 * i)).collect();
                    assert_eq!(split, twice, "{workers} workers");
                }
            }
        }
    }

    /// A split's shares are `⌈n / workers⌉` long, the first computed by
    /// the calling thread and each other by a thread of its own, however
    /// late that thread starts, in both phases: with one index a share,
    /// the calling thread is done before the other has started, and
    /// still leaves it its index.
    #[test]
    fn split_phases_leave_each_share_to_its_worker() {
        let caller = std::thread::current().id();
        let on_caller = || std::thread::current().id() == caller;
        for _ in 0..20 {
            let (_, by_caller) = split_phases(
                2,
                2,
                || (),
                |(), _| on_caller(),
                |(), _, first| (first, on_caller()),
            );
            assert_eq!(by_caller, [(true, true), (false, false)]);
        }
        for workers in WORKERS {
            for n in 0..=20 {
                let thread = || std::thread::current().id();
                let (prepared, threads) = split_phases(
                    workers,
                    n,
                    thread,
                    |_, _| thread(),
                    |_, _, first| {
                        assert_eq!(first, thread(), "one thread an index");
                        first
                    },
                );
                assert_eq!(prepared, caller, "the calling thread prepares");
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

    /// Every block count read ahead through one, two or three buffers,
    /// on the worker and inline, comes back complete and in block order,
    /// each block in the caller's buffer it rotates to: the producer
    /// takes them back in the order the caller frees them, which is
    /// block order.
    #[test]
    fn blocks_come_back_in_order_in_the_callers_buffers() {
        for ahead in [false, true] {
            for n_buffers in 1..=3 {
                for n_blocks in [0, 1, 2, 7] {
                    let mut buffers: Vec<Vec<usize>> =
                        (0..n_buffers).map(|_| Vec::with_capacity(4)).collect();
                    let owned: Vec<*const usize> = buffers.iter().map(|b| b.as_ptr()).collect();
                    let rotates = ahead && n_blocks > 1 && n_buffers > 1;
                    let mut seen = Vec::new();
                    let done = read_ahead(
                        ahead,
                        &mut buffers,
                        n_blocks,
                        |block, buffer| {
                            buffer.clear();
                            buffer.extend((0..4).map(|k| 4 * block + k));
                        },
                        |block, buffer| {
                            let slot = if rotates { block % n_buffers } else { 0 };
                            assert_eq!(buffer.as_ptr(), owned[slot], "block {block}");
                            seen.extend_from_slice(buffer);
                            Ok::<(), ()>(())
                        },
                    );
                    assert_eq!(done, Ok(()));
                    let want: Vec<usize> = (0..4 * n_blocks).collect();
                    let case = format!("ahead {ahead}, {n_buffers} buffers, {n_blocks} blocks");
                    assert_eq!(seen, want, "{case}");
                    for (buffer, &ptr) in buffers.iter().zip(&owned) {
                        assert_eq!((buffer.as_ptr(), buffer.capacity()), (ptr, 4), "{case}");
                    }
                }
            }
        }
    }

    /// The consumer's first error comes back, and the producer stops
    /// within the blocks its buffers hold: the worker is joined, not
    /// left filling the other 97 blocks.
    #[test]
    fn a_consumer_error_stops_the_producer() {
        for ahead in [false, true] {
            let produced = AtomicUsize::new(0);
            let mut buffers = [0usize; 3];
            let err = read_ahead(
                ahead,
                &mut buffers,
                100,
                |block, buffer| {
                    produced.fetch_add(1, Ordering::Relaxed);
                    *buffer = block;
                },
                |block, &buffer| {
                    assert_eq!(block, buffer);
                    if block == 2 {
                        Err(format!("block {block}"))
                    } else {
                        Ok(())
                    }
                },
            );
            assert_eq!(err, Err("block 2".to_string()), "ahead {ahead}");
            let produced = produced.into_inner();
            assert!(
                (3..=5).contains(&produced),
                "ahead {ahead}: {produced} blocks"
            );
        }
    }

    /// A panic in the producer is reported in its own words.
    #[test]
    #[should_panic(expected = "block 4 failed")]
    fn a_producers_panic_keeps_its_message() {
        let _ = read_ahead(
            true,
            &mut [0; 3],
            9,
            |block, _| assert!(block != 4, "block {block} failed"),
            |_, _| Ok::<(), ()>(()),
        );
    }

    /// A panic on a worker thread is reported in its own words.
    #[test]
    #[should_panic(expected = "index 7 failed")]
    fn a_workers_panic_keeps_its_message() {
        chunked_map(3, 1, 9, |i| assert!(i != 7, "index {i} failed"));
    }

    /// A panic in a worker's first phase is reported in its own words,
    /// and the other threads still pass the barrier.
    #[test]
    #[should_panic(expected = "index 7 failed first")]
    fn a_first_phase_panic_keeps_its_message() {
        let fail = |(): &(), i| assert!(i != 7, "index {i} failed first");
        split_phases(3, 9, || (), fail, |_, _, ()| ());
    }

    /// A panic in the preparation is reported in its own words, and the
    /// workers waiting for it still stop.
    #[test]
    #[should_panic(expected = "no plan")]
    fn a_preparation_panic_keeps_its_message() {
        let plan = || -> () { panic!("no plan") };
        split_phases(3, 9, plan, |(), _| (), |_, _, ()| ());
    }
}
