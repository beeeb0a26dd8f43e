//! Persistent worker-shard pool for node-local simulation phases.
//!
//! [`ShardPool::run_chunks`] splits a slice of per-node state into
//! contiguous chunks — each shard owns a contiguous range of slave nodes —
//! and runs the same closure over every chunk, one chunk on the calling
//! thread and the rest on persistent workers. The closure is invoked with
//! the chunk's starting index so callers can address global per-node
//! tables.
//!
//! Determinism contract: the pool adds **no arithmetic of its own**. At
//! `shards <= 1` the closure runs inline over the whole slice — the serial
//! path is literally the sharded path with one chunk, so any per-node
//! computation routed through the pool is bitwise identical at every shard
//! count as long as the caller merges per-node outputs in node order.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::mpsc;
use std::thread::JoinHandle;

/// A lifetime-erased unit of work dispatched to one worker.
type Job = Box<dyn FnOnce() + Send + 'static>;

struct Worker {
    tx: mpsc::Sender<Job>,
    handle: Option<JoinHandle<()>>,
}

/// A persistent pool of `shards - 1` worker threads (the calling thread is
/// the final shard). `shards <= 1` spawns nothing and runs everything
/// inline.
pub struct ShardPool {
    workers: Vec<Worker>,
}

impl ShardPool {
    /// Creates a pool for `shards` shards (spawning `shards - 1` threads).
    pub fn new(shards: usize) -> Self {
        let workers = (1..shards.max(1))
            .map(|i| {
                let (tx, rx) = mpsc::channel::<Job>();
                let handle = std::thread::Builder::new()
                    .name(format!("sim-shard-{i}"))
                    .spawn(move || {
                        for job in rx {
                            job();
                        }
                    })
                    .expect("spawn sim shard worker");
                Worker {
                    tx,
                    handle: Some(handle),
                }
            })
            .collect();
        ShardPool { workers }
    }

    /// Total shard count (workers + the calling thread).
    pub fn shards(&self) -> usize {
        self.workers.len() + 1
    }

    /// Runs `f(start_index, chunk)` over contiguous chunks of `data`,
    /// blocking until every chunk is done. Panics in any chunk propagate to
    /// the caller after all chunks finish.
    pub fn run_chunks<T, F>(&self, data: &mut [T], f: &F)
    where
        T: Send,
        F: Fn(usize, &mut [T]) + Sync,
    {
        let shards = self.shards();
        if self.workers.is_empty() || data.len() <= 1 || shards <= 1 {
            f(0, data);
            return;
        }
        let chunk_len = data.len().div_ceil(shards);
        let (done_tx, done_rx) = mpsc::channel::<std::thread::Result<()>>();
        let mut chunks: Vec<(usize, &mut [T])> = Vec::with_capacity(shards);
        let mut start = 0;
        for chunk in data.chunks_mut(chunk_len) {
            let len = chunk.len();
            chunks.push((start, chunk));
            start += len;
        }
        // The last chunk runs on the calling thread; the rest are
        // dispatched to the persistent workers.
        let local = chunks.pop().expect("data is non-empty");
        let mut sent = 0;
        for (worker, (at, chunk)) in self.workers.iter().zip(chunks) {
            let done = done_tx.clone();
            let job: Box<dyn FnOnce() + Send + '_> = Box::new(move || {
                let r = catch_unwind(AssertUnwindSafe(|| f(at, chunk)));
                let _ = done.send(r);
            });
            // SAFETY: the job borrows `f` and a disjoint sub-slice of
            // `data`. Both outlive the job because this function drains one
            // completion message per dispatched job (below) before
            // returning — on success *and* on panic (worker jobs always
            // post their result; the local chunk is caught too).
            let job: Job = unsafe { std::mem::transmute(job) };
            worker.tx.send(job).expect("sim shard worker alive");
            sent += 1;
        }
        let local_result = catch_unwind(AssertUnwindSafe(|| f(local.0, local.1)));
        let mut panic: Option<Box<dyn std::any::Any + Send>> = None;
        for _ in 0..sent {
            let r = done_rx.recv().expect("sim shard worker posts completion");
            if let Err(p) = r {
                panic.get_or_insert(p);
            }
        }
        if let Err(p) = local_result {
            panic.get_or_insert(p);
        }
        if let Some(p) = panic {
            resume_unwind(p);
        }
    }
}

impl Drop for ShardPool {
    fn drop(&mut self) {
        for w in &mut self.workers {
            // Close the channel so the worker loop exits, then join.
            let (dead_tx, _) = mpsc::channel::<Job>();
            let _ = std::mem::replace(&mut w.tx, dead_tx);
            if let Some(h) = w.handle.take() {
                let _ = h.join();
            }
        }
    }
}

impl std::fmt::Debug for ShardPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardPool")
            .field("shards", &self.shards())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inline_at_one_shard() {
        let pool = ShardPool::new(1);
        assert_eq!(pool.shards(), 1);
        let mut data = vec![0usize; 7];
        pool.run_chunks(&mut data, &|at, chunk| {
            for (i, v) in chunk.iter_mut().enumerate() {
                *v = at + i;
            }
        });
        assert_eq!(data, (0..7).collect::<Vec<_>>());
    }

    #[test]
    fn chunks_cover_every_index_exactly_once() {
        for shards in [2, 3, 4, 8, 16] {
            let pool = ShardPool::new(shards);
            assert_eq!(pool.shards(), shards);
            for len in [0usize, 1, 2, 5, 16, 31] {
                let mut data = vec![usize::MAX; len];
                pool.run_chunks(&mut data, &|at, chunk| {
                    for (i, v) in chunk.iter_mut().enumerate() {
                        *v = at + i;
                    }
                });
                assert_eq!(data, (0..len).collect::<Vec<_>>(), "shards={shards}");
            }
        }
    }

    #[test]
    fn pool_is_reusable_across_calls() {
        let pool = ShardPool::new(4);
        let mut data = vec![0u64; 100];
        for round in 1..=10u64 {
            pool.run_chunks(&mut data, &|_, chunk| {
                for v in chunk.iter_mut() {
                    *v += round;
                }
            });
        }
        assert!(data.iter().all(|&v| v == (1..=10).sum::<u64>()));
    }

    #[test]
    fn worker_panics_propagate_and_pool_survives() {
        let pool = ShardPool::new(4);
        let mut data = vec![0usize; 8];
        let r = catch_unwind(AssertUnwindSafe(|| {
            pool.run_chunks(&mut data, &|at, _chunk| {
                if at == 0 {
                    panic!("shard boom");
                }
            });
        }));
        assert!(r.is_err(), "panic should propagate");
        // The pool stays usable after a propagated panic.
        pool.run_chunks(&mut data, &|_, chunk| {
            for v in chunk.iter_mut() {
                *v = 1;
            }
        });
        assert!(data.iter().all(|&v| v == 1));
    }

    /// The lifetime erasure in `run_chunks` is sound only if it never
    /// returns — or unwinds — while a worker can still touch `data`. Here
    /// the calling thread's own chunk panics first and every worker writes
    /// late, so an implementation that left before draining its
    /// completions would be caught with the writes still missing.
    #[test]
    fn a_panic_on_the_calling_thread_still_waits_for_every_worker_write() {
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::time::Duration;

        let pool = ShardPool::new(4);
        let caller = std::thread::current().id();
        let caller_unwinding = AtomicBool::new(false);
        let mut data = vec![0u8; 8];
        let r = catch_unwind(AssertUnwindSafe(|| {
            pool.run_chunks(&mut data, &|_, chunk| {
                if std::thread::current().id() == caller {
                    caller_unwinding.store(true, Ordering::SeqCst);
                    panic!("calling-thread boom");
                }
                while !caller_unwinding.load(Ordering::SeqCst) {
                    std::thread::yield_now();
                }
                std::thread::sleep(Duration::from_millis(50));
                chunk.fill(1);
            });
        }));
        assert!(r.is_err(), "the local panic should propagate");
        // Chunks of two: the three worker chunks are written, the
        // calling thread's chunk is not.
        assert_eq!(data, [1, 1, 1, 1, 1, 1, 0, 0]);
    }
}
