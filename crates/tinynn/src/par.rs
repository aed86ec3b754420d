//! The workspace's one parallel runtime: a persistent worker team that
//! claims indices from a single atomic counter.
//!
//! Every parallel stage of the offline pipeline runs here: the datagen
//! replay sweep and the benchmark fan-outs (through `ssmdvfs::exec`), the
//! RFE permutation-importance fan-out, and the minibatch gradient shards of
//! every training loop. None of these jobs spawns sub-jobs, so one shared
//! claim counter balances them as well as any scheduler would.
//!
//! [`TrainPool`] keeps its workers alive across calls — the gradient
//! fan-out runs every ~100 µs, far too often to pay thread spawn/join per
//! batch — and hands them work through a generation counter: the caller
//! publishes a task, bumps the generation, and every worker (plus the
//! caller itself) claims indices until none remain. Workers spin briefly on
//! the generation counter before sleeping on a condvar, so the wake latency
//! between two back-to-back batches (separated only by an optimizer step)
//! is a few loads, not a scheduler round-trip.
//!
//! Runs are fail-fast: once an index panics, no further index of that run
//! is claimed, and the first payload is re-raised on the caller. The team
//! itself survives and serves the next run.
//!
//! Determinism is not this module's concern — scheduling is free to vary
//! run to run. `for_each_mut` and [`TrainPool::map_indexed`] hand each
//! index its own slot, so results land in input order; the training loops
//! get byte-identical results by deriving the shard count from the batch
//! size alone and reducing shard gradients in fixed index order. The pool
//! only decides which thread computes which index, never what is computed.

use std::marker::PhantomData;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

/// Resolves a requested worker count: `0` means one per available core.
pub fn effective_jobs(requested: usize) -> usize {
    if requested > 0 {
        requested
    } else {
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
    }
}

/// Iterations a worker spins on the generation counter before falling back
/// to a condvar sleep. Sized to cover the optimizer-step gap between two
/// batches of the paper-scale models (tens of microseconds).
const SPIN_ITERS: u32 = 1 << 14;

/// A lifetime-erased pointer to the caller's shard task. Protocol: the
/// pointer is published under the state mutex and never dereferenced after
/// [`TrainPool::run`] returns (run blocks until every shard completed), so
/// the erased borrow is always live while workers hold it.
#[derive(Clone, Copy)]
struct TaskPtr(*const (dyn Fn(usize) + Sync));

// SAFETY: the pointee is `Sync` (shared calls are safe) and the run/join
// protocol above keeps it alive for as long as any worker can touch it.
unsafe impl Send for TaskPtr {}

struct TeamState {
    /// Bumped once per `run`; workers execute a generation exactly once.
    generation: u64,
    /// Shard count of the current generation.
    shards: usize,
    /// The current generation's task, if one is in flight.
    task: Option<TaskPtr>,
    /// Shards finished so far in the current generation.
    completed: usize,
    /// First panic payload raised by a shard, resumed by the caller.
    panic: Option<Box<dyn std::any::Any + Send>>,
    shutdown: bool,
}

struct Inner {
    state: Mutex<TeamState>,
    /// Wakes sleeping workers when a generation is published or on
    /// shutdown.
    wake: Condvar,
    /// Wakes the caller when the last shard of a generation completes.
    done: Condvar,
    /// Mirror of `state.generation` for the workers' lock-free spin wait.
    generation: AtomicU64,
    /// Mirror of `state.shutdown`, likewise.
    shutdown: AtomicBool,
    /// Claim word: the current generation (truncated) in the high 32 bits,
    /// the next unclaimed shard index in the low 32. Tagging claims with
    /// the generation makes a stale worker — one that grabbed generation
    /// G's task pointer and was then scheduled out past the end of G —
    /// fail its claim CAS instead of executing G's (now dangling) task
    /// against a newer generation's indices.
    next: AtomicU64,
}

/// High half of the claim word: the generation tag.
const CLAIM_GEN_MASK: u64 = 0xFFFF_FFFF_0000_0000;

/// The claim word at which generation `generation` starts (index 0).
fn claim_base(generation: u64) -> u64 {
    (generation as u32 as u64) << 32
}

/// A persistent thread team (see the module docs). `jobs = 1` is the
/// serial mode: no threads are spawned and [`TrainPool::run`] executes
/// every index inline, which is also the code path the determinism
/// proptests compare the parallel schedules against.
pub struct TrainPool {
    inner: Arc<Inner>,
    workers: Vec<JoinHandle<()>>,
    jobs: usize,
}

impl std::fmt::Debug for TrainPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TrainPool").field("jobs", &self.jobs).finish()
    }
}

impl TrainPool {
    /// A team of `jobs` workers (`0` = one per core). The calling thread
    /// participates in every run, so `jobs - 1` threads are spawned.
    pub fn new(jobs: usize) -> TrainPool {
        let jobs = effective_jobs(jobs);
        let inner = Arc::new(Inner {
            state: Mutex::new(TeamState {
                generation: 0,
                shards: 0,
                task: None,
                completed: 0,
                panic: None,
                shutdown: false,
            }),
            wake: Condvar::new(),
            done: Condvar::new(),
            generation: AtomicU64::new(0),
            shutdown: AtomicBool::new(false),
            next: AtomicU64::new(0),
        });
        let workers = (1..jobs)
            .map(|i| {
                let inner = Arc::clone(&inner);
                std::thread::Builder::new()
                    .name(format!("tinynn-par-{i}"))
                    .spawn(move || worker_loop(&inner))
                    .expect("spawning a pool worker must succeed")
            })
            .collect();
        TrainPool { inner, workers, jobs }
    }

    /// The serial pool: no threads, every shard runs inline on the caller.
    pub fn serial() -> TrainPool {
        TrainPool::new(1)
    }

    /// Worker count (including the calling thread).
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// Executes `task(0..shards)` across the team and blocks until every
    /// claimed shard has finished. Shards may run in any order on any
    /// worker; the caller claims shards too. Fail-fast: once a shard
    /// panics, no further shard is claimed; shards already running finish,
    /// and the first payload is re-raised here. The team stays usable.
    ///
    /// # Panics
    ///
    /// Re-raises the first panic any shard raised.
    pub fn run(&self, shards: usize, task: &(dyn Fn(usize) + Sync)) {
        if self.workers.is_empty() || shards <= 1 {
            for i in 0..shards {
                task(i);
            }
            return;
        }
        // Erase the borrow's lifetime; `run` does not return until every
        // worker is done with the pointer (see TaskPtr).
        let ptr = task as *const (dyn Fn(usize) + Sync);
        #[allow(clippy::missing_transmute_annotations)]
        let ptr: TaskPtr = TaskPtr(unsafe { std::mem::transmute(ptr) });
        let generation;
        {
            let mut st = self.inner.state.lock().expect("train pool state");
            debug_assert!(st.task.is_none(), "TrainPool::run is not reentrant");
            st.task = Some(ptr);
            st.shards = shards;
            st.completed = 0;
            st.panic = None;
            st.generation += 1;
            generation = st.generation;
            // The claim word must be re-armed before the generation becomes
            // visible to spinning workers (Release pairs with their Acquire
            // load of `generation`).
            self.inner.next.store(claim_base(generation), Ordering::Release);
            self.inner.generation.store(generation, Ordering::Release);
        }
        self.inner.wake.notify_all();
        claim_shards(&self.inner, task, shards, generation);
        let mut st = self.inner.state.lock().expect("train pool state");
        while st.completed < st.shards {
            st = self.inner.done.wait(st).expect("train pool state");
        }
        st.task = None;
        let payload = st.panic.take();
        drop(st);
        if let Some(p) = payload {
            panic::resume_unwind(p);
        }
    }

    /// Runs `f(i, &mut items[i])` for every index across the team, each
    /// element handed to exactly one worker. Fail-fast as
    /// [`TrainPool::run`].
    ///
    /// # Panics
    ///
    /// Re-raises the first panic `f` raised.
    pub(crate) fn for_each_mut<T, F>(&self, items: &mut [T], f: F)
    where
        T: Send,
        F: Fn(usize, &mut T) + Sync,
    {
        let slots = DisjointSlots::new(items);
        self.run(slots.len, &|i| {
            // SAFETY: the claim counter hands each index to one worker.
            f(i, unsafe { slots.get(i) });
        });
    }

    /// Maps `f` over `items` across the team, passing each item's input
    /// index alongside it. Results come back in input order whichever
    /// worker ran which item. Fail-fast as [`TrainPool::run`].
    ///
    /// # Panics
    ///
    /// Re-raises the first panic `f` raised.
    pub fn map_indexed<T, R, F>(&self, items: Vec<T>, f: F) -> Vec<R>
    where
        T: Send,
        R: Send,
        F: Fn(usize, T) -> R + Sync,
    {
        let mut cells: Vec<(Option<T>, Option<R>)> =
            items.into_iter().map(|item| (Some(item), None)).collect();
        self.for_each_mut(&mut cells, |i, (item, out)| {
            *out = Some(f(i, item.take().expect("each index is claimed once")));
        });
        cells.into_iter().map(|(_, out)| out.expect("every slot filled")).collect()
    }
}

impl Drop for TrainPool {
    fn drop(&mut self) {
        {
            let mut st = self.inner.state.lock().expect("train pool state");
            st.shutdown = true;
            self.inner.shutdown.store(true, Ordering::Release);
        }
        self.inner.wake.notify_all();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

/// Write access to a slice in which every index is claimed by exactly one
/// worker, so the per-element `&mut` handed out never aliases. The pool's
/// completion handshake (the mutex-protected completion count) orders all
/// element writes before the caller reads the slice again.
struct DisjointSlots<'a, T> {
    ptr: *mut T,
    len: usize,
    _slice: PhantomData<&'a mut [T]>,
}

// SAFETY: workers only touch disjoint elements (see above), and moving a
// `&mut T` across threads needs only `T: Send`.
unsafe impl<T: Send> Sync for DisjointSlots<'_, T> {}

impl<'a, T> DisjointSlots<'a, T> {
    fn new(items: &'a mut [T]) -> DisjointSlots<'a, T> {
        DisjointSlots { ptr: items.as_mut_ptr(), len: items.len(), _slice: PhantomData }
    }

    /// Element `i`.
    ///
    /// # Safety
    ///
    /// `i` must be claimed by exactly one caller for the lifetime of the
    /// returned borrow.
    #[allow(clippy::mut_from_ref)]
    unsafe fn get(&self, i: usize) -> &mut T {
        debug_assert!(i < self.len, "slot index out of bounds");
        unsafe { &mut *self.ptr.add(i) }
    }
}

/// Claims and executes shard indices of `generation` until none remain (or
/// the pool has moved to a newer generation), recording completions (and
/// the first panic) in the shared state. The generation-tagged CAS is what
/// keeps `task` safe to call: an index below `shards` can only be claimed
/// while its generation is still in flight, and `run` cannot return (and
/// so the task cannot die) until every claimed index is counted complete.
///
/// A panicking shard closes the claim word (jumps it to `shards`), and
/// counts the indices it closed off as complete, so the generation drains
/// without starting them.
fn claim_shards(inner: &Inner, task: &(dyn Fn(usize) + Sync), shards: usize, generation: u64) {
    let base = claim_base(generation);
    let mut cur = inner.next.load(Ordering::Acquire);
    loop {
        let i = loop {
            if cur & CLAIM_GEN_MASK != base {
                // A newer generation re-armed the claim word; `task` may be
                // gone — never dereference it again.
                return;
            }
            match inner.next.compare_exchange_weak(
                cur,
                cur + 1,
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => break (cur & !CLAIM_GEN_MASK) as usize,
                Err(actual) => cur = actual,
            }
        };
        cur += 1;
        if i >= shards {
            return;
        }
        let result = panic::catch_unwind(AssertUnwindSafe(|| task(i)));
        // This shard is not yet counted complete, so the generation is
        // still in flight and the claim word still carries its tag.
        let skipped = match result {
            Ok(()) => 0,
            Err(_) => {
                let prev = inner.next.fetch_max(base | shards as u64, Ordering::AcqRel);
                shards.saturating_sub((prev & !CLAIM_GEN_MASK) as usize)
            }
        };
        let mut st = inner.state.lock().expect("train pool state");
        if let Err(p) = result {
            if st.panic.is_none() {
                st.panic = Some(p);
            }
        }
        st.completed += 1 + skipped;
        if st.completed == st.shards {
            inner.done.notify_all();
        }
    }
}

fn worker_loop(inner: &Inner) {
    let mut seen = 0u64;
    loop {
        // Fast path: spin on the atomic mirrors so a batch that arrives
        // right after the previous one (the common training cadence) is
        // picked up without a scheduler wake.
        let mut spins = 0u32;
        loop {
            if inner.shutdown.load(Ordering::Acquire) {
                return;
            }
            if inner.generation.load(Ordering::Acquire) != seen || spins >= SPIN_ITERS {
                break;
            }
            spins += 1;
            std::hint::spin_loop();
        }
        let (task, shards) = {
            let mut st = inner.state.lock().expect("train pool state");
            loop {
                if st.shutdown {
                    return;
                }
                if st.generation != seen {
                    seen = st.generation;
                    match st.task {
                        Some(t) => break (t, st.shards),
                        // The generation already drained (caller finished
                        // every shard before this worker woke); skip it.
                        None => continue,
                    }
                }
                st = inner.wake.wait(st).expect("train pool state");
            }
        };
        // SAFETY: generation-tagged claims (see `claim_shards`) ensure the
        // pointer is only dereferenced while its generation is in flight,
        // and the caller blocks in `run` until every claimed shard is
        // counted complete — so the pointee outlives every use.
        let task = unsafe { &*task.0 };
        claim_shards(inner, task, shards, seen);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32;

    #[test]
    fn serial_pool_runs_inline() {
        let pool = TrainPool::serial();
        assert_eq!(pool.jobs(), 1);
        let hits = AtomicU32::new(0);
        pool.run(5, &|_| {
            hits.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(hits.load(Ordering::Relaxed), 5);
    }

    #[test]
    fn every_shard_runs_exactly_once() {
        let pool = TrainPool::new(4);
        for shards in [1usize, 2, 3, 7, 16, 64] {
            let marks: Vec<AtomicU32> = (0..shards).map(|_| AtomicU32::new(0)).collect();
            pool.run(shards, &|s| {
                marks[s].fetch_add(1, Ordering::Relaxed);
            });
            for (s, m) in marks.iter().enumerate() {
                assert_eq!(m.load(Ordering::Relaxed), 1, "shard {s} of {shards}");
            }
        }
    }

    #[test]
    fn many_generations_back_to_back() {
        // The cadence of a real training run: hundreds of tiny fan-outs
        // with no pause in between.
        let pool = TrainPool::new(3);
        let total = AtomicU32::new(0);
        for _ in 0..500 {
            pool.run(8, &|_| {
                total.fetch_add(1, Ordering::Relaxed);
            });
        }
        assert_eq!(total.load(Ordering::Relaxed), 4_000);
    }

    #[test]
    fn shard_panic_propagates_and_pool_survives() {
        let pool = TrainPool::new(2);
        let caught = panic::catch_unwind(AssertUnwindSafe(|| {
            pool.run(4, &|s| {
                if s == 2 {
                    panic!("shard exploded");
                }
            });
        }));
        let payload = caught.expect_err("the shard panic must propagate");
        let msg = payload.downcast_ref::<&str>().copied().unwrap_or_default();
        assert_eq!(msg, "shard exploded");
        // The team stays usable after a panicked generation.
        let hits = AtomicU32::new(0);
        pool.run(4, &|_| {
            hits.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(hits.load(Ordering::Relaxed), 4);
    }

    #[test]
    fn a_panic_stops_new_claims() {
        // Two threads. Whoever claims shard 0 holds it until a shard past
        // the panicking one starts (or a timeout passes), so the other
        // thread runs shards 1..=5 alone and, without fail-fast, would go
        // on to claim shard 6 right after the panic.
        let pool = TrainPool::new(2);
        let (late_tx, late_rx) = std::sync::mpsc::channel::<()>();
        let late_rx = Mutex::new(late_rx);
        // (worker thread, shard) in the order the shards started.
        let started = Mutex::new(Vec::new());
        let caught = panic::catch_unwind(AssertUnwindSafe(|| {
            pool.run(64, &|s| {
                started.lock().expect("test log").push((std::thread::current().id(), s));
                match s {
                    0 => {
                        let rx = late_rx.lock().expect("test channel");
                        let _ = rx.recv_timeout(std::time::Duration::from_millis(500));
                    }
                    5 => panic!("shard exploded"),
                    s if s > 5 => {
                        let _ = late_tx.send(());
                    }
                    _ => {}
                }
            });
        }));
        assert!(caught.is_err(), "the shard panic must propagate");
        let mut shards: Vec<usize> =
            started.into_inner().expect("test log").into_iter().map(|(_, s)| s).collect();
        shards.sort_unstable();
        assert_eq!(shards, (0..=5).collect::<Vec<_>>(), "fail-fast: no shard past the panic");
        // The team stays usable after a fail-fast generation.
        let hits = AtomicU32::new(0);
        pool.run(16, &|_| {
            hits.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(hits.load(Ordering::Relaxed), 16);
    }

    #[test]
    fn map_indexed_returns_input_order() {
        for jobs in [1, 4] {
            let pool = TrainPool::new(jobs);
            let out = pool.map_indexed((0..257u64).collect(), |i, x| {
                assert_eq!(i as u64, x);
                x * 3
            });
            assert_eq!(out, (0..257).map(|x| x * 3).collect::<Vec<_>>(), "jobs {jobs}");
            assert!(pool.map_indexed(Vec::<u8>::new(), |_, x| x).is_empty());
        }
    }

    #[test]
    fn for_each_mut_hands_every_element_to_one_worker() {
        let pool = TrainPool::new(4);
        let mut items = vec![0u32; 100];
        pool.for_each_mut(&mut items, |i, x| *x += i as u32 + 1);
        assert_eq!(items, (1..=100).collect::<Vec<u32>>());
    }

    #[test]
    fn effective_jobs_resolves_zero_to_cores() {
        assert!(effective_jobs(0) >= 1);
        assert_eq!(effective_jobs(3), 3);
    }

    #[test]
    fn zero_jobs_means_one_per_core() {
        let pool = TrainPool::new(0);
        assert!(pool.jobs() >= 1);
        let hits = AtomicU32::new(0);
        pool.run(10, &|_| {
            hits.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(hits.load(Ordering::Relaxed), 10);
    }
}
