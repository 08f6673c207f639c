//! Persistent work-crew thread pool for the compute hot paths.
//!
//! Every parallel site in the workspace (GEMM row/column blocks, per-sample
//! convolution lowering, the Hopkins kernel loops in `ganopc-litho`, the
//! per-sample lithography gradients in `ganopc-core`) funnels through this
//! module's one dispatch primitive, [`run_chunks`]. Worker threads are
//! created **lazily** up to [`max_threads`]`- 1` (the dispatching thread is
//! always the remaining participant), park on a condvar when idle, and are
//! handed work through an allocation-free descriptor: one type-erased
//! `(fn ptr, ctx ptr)` pair plus a chunk count, published under a mutex and
//! claimed chunk-by-chunk through a sequence-guarded atomic. A steady-state
//! dispatch therefore costs two mutex sections and a condvar broadcast
//! instead of the former spawn-plus-join of a fresh thread generation per
//! call.
//!
//! Guarantees, unchanged from the scoped-spawn era:
//!
//! * **One knob.** `GANOPC_THREADS` caps every dispatch in the process; the
//!   default is [`std::thread::available_parallelism`]. The variable is read
//!   once; [`set_max_threads`] overrides it at runtime. The crew grows
//!   lazily up to the current cap; lowering the cap takes effect on the next
//!   dispatch (surplus workers stay parked — they are never killed).
//! * **Deterministic results.** Jobs are split into contiguous, balanced
//!   (±1 job) chunks whose boundaries depend only on the job count and the
//!   thread cap. Each job writes its result into its own slot of
//!   caller-owned storage (through [`DisjointMut`]), no matter which worker
//!   ran it, and callers that reduce do so sequentially over those slots
//!   afterwards, so floating-point results are bit-identical for any thread
//!   count.
//! * **No oversubscription.** A job that itself calls into the pool (e.g. a
//!   GEMM inside a per-sample convolution job) executes the nested call
//!   inline on its current thread instead of dispatching again.
//! * **No poisoned crew.** A panicking job is caught on the worker, the
//!   dispatch runs to quiescence (remaining chunks are skipped), and the
//!   panic payload then resumes on the caller. The crew survives and serves
//!   the next dispatch.

use ganopc_obs as obs;
use std::cell::Cell;
use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, OnceLock};

thread_local! {
    /// Set while a crew worker (or the dispatching thread, during its own
    /// chunk execution) is running jobs; nested pool calls on such a thread
    /// degrade to the serial path.
    static IN_WORKER: Cell<bool> = const { Cell::new(false) };
}

/// Runtime thread-count override installed by [`set_max_threads`]
/// (`0` = unset, fall through to the environment/default cap).
static OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Process-wide cap from `GANOPC_THREADS` / `available_parallelism`,
/// resolved once: `std::env::var` allocates a `String`, and [`max_threads`]
/// sits on every hot-path dispatch, which must stay allocation-free.
static ENV_CAP: OnceLock<usize> = OnceLock::new();

/// Maximum number of threads (crew workers + the dispatching thread) a
/// dispatch may use.
///
/// A [`set_max_threads`] override wins; otherwise the `GANOPC_THREADS`
/// environment variable, read **once** per process (values `< 1` or
/// unparsable fall back to [`std::thread::available_parallelism`]).
pub fn max_threads() -> usize {
    let forced = OVERRIDE.load(Ordering::Relaxed);
    if forced >= 1 {
        return forced;
    }
    *ENV_CAP.get_or_init(|| {
        std::env::var("GANOPC_THREADS")
            .ok()
            .and_then(|s| s.trim().parse::<usize>().ok())
            .filter(|&n| n >= 1)
            .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
    })
}

/// Overrides [`max_threads`] for the whole process (`None` restores the
/// environment/default cap). The crew grows lazily up to the new cap on the
/// next dispatch; shrinking parks the surplus workers (they are reused if
/// the cap rises again). This is how the determinism and allocation tests
/// switch thread counts at runtime, since the environment variable is only
/// consulted once.
pub fn set_max_threads(threads: Option<usize>) {
    OVERRIDE.store(threads.unwrap_or(0), Ordering::Relaxed);
}

/// True when the calling thread is currently executing pool jobs (nested
/// parallel sections run inline).
pub fn in_worker() -> bool {
    IN_WORKER.with(|w| w.get())
}

/// Number of crew workers spawned so far (excludes the dispatching thread).
/// Monotonic: workers park when idle but are never torn down.
pub fn crew_workers() -> usize {
    crew().state.lock().map_or(0, |st| st.workers)
}

// ---------------------------------------------------------------------------
// Crew internals
// ---------------------------------------------------------------------------

/// Upper bound on chunks per dispatch: the claim word packs the chunk cursor
/// into its low byte (`CLAIM_SEQ_SHIFT` bits), so the cursor must stay well
/// below 256 and never carry into the sequence. 64 concurrent chunks is far
/// beyond any host this targets.
const MAX_CHUNKS: usize = 64;

/// Bits of the claim word reserved for the chunk cursor.
const CLAIM_SEQ_SHIFT: u32 = 8;

/// One dispatch descriptor: a type-erased chunk runner and the caller-stack
/// context it closes over. `run(ctx, i)` executes chunk `i ∈ [0, chunks)`.
#[derive(Clone, Copy)]
struct Task {
    run: unsafe fn(*const (), usize),
    ctx: *const (),
    chunks: usize,
}

// SAFETY: a `Task` only crosses threads through the crew's state mutex, and
// its `ctx` pointer is only dereferenced by `run` for chunks claimed through
// the sequence-guarded claim word. The dispatching thread blocks until every
// claimed chunk is accounted for, so `ctx` (a reference to its stack frame)
// outlives every dereference; after that, stale copies of the pointer may
// linger in crew state but are never dereferenced again (their dispatch's
// claims are exhausted and the sequence guard rejects new ones).
unsafe impl Send for Task {}

/// A caught panic, carried to the dispatching caller.
type Payload = Box<dyn std::any::Any + Send + 'static>;

/// Mutex-guarded crew state.
struct State {
    /// Dispatch sequence number; bumped once per dispatch.
    seq: u64,
    /// Current (or most recent) dispatch descriptor.
    task: Option<Task>,
    /// Chunks of the current dispatch not yet accounted done/skipped/panicked.
    pending: usize,
    /// First panic payload caught during the current dispatch.
    panic: Option<Payload>,
    /// Worker threads spawned so far.
    workers: usize,
}

/// The persistent crew: dispatch serialization, parked-worker wakeup, and
/// the chunk-claim word.
struct Crew {
    /// Serializes dispatches: exactly one runs at a time; concurrent
    /// non-worker callers queue here.
    dispatch: Mutex<()>,
    state: Mutex<State>,
    /// Workers park here waiting for `state.seq` to advance.
    work: Condvar,
    /// The dispatching thread parks here waiting for `state.pending == 0`.
    done: Condvar,
    /// Packed `(seq << 8) | next_chunk` claim cursor. The sequence guard
    /// makes a claim race between an old dispatch's straggler worker and a
    /// new dispatch impossible: claims are CAS-validated against the
    /// claimant's own dispatch sequence.
    claim: AtomicU64,
    /// Set by the first panicking chunk; later chunks of the same dispatch
    /// are skipped (accounted, not run) so the dispatch quiesces quickly.
    abort: AtomicBool,
}

static CREW: OnceLock<Crew> = OnceLock::new();

fn crew() -> &'static Crew {
    CREW.get_or_init(|| Crew {
        dispatch: Mutex::new(()),
        state: Mutex::new(State { seq: 0, task: None, pending: 0, panic: None, workers: 0 }),
        work: Condvar::new(),
        done: Condvar::new(),
        claim: AtomicU64::new(0),
        abort: AtomicBool::new(false),
    })
}

/// Balanced contiguous chunk bounds: chunk `i` of `chunks` over `total`
/// jobs. Sizes differ by at most one job (the first `total % chunks` chunks
/// take the extra), so no worker sits idle while another holds two chunks'
/// worth — the fix for the old `div_ceil` peeling, which could produce
/// fewer batches than workers.
// lint: hot-path
fn chunk_bounds(chunk: usize, total: usize, chunks: usize) -> Range<usize> {
    debug_assert!(chunk < chunks && chunks <= total);
    let base = total / chunks;
    let rem = total % chunks;
    let start = chunk * base + chunk.min(rem);
    let len = base + usize::from(chunk < rem);
    start..start + len
}

/// Threads a dispatch over `total` jobs may use (0 or 1 means: run inline).
// lint: hot-path
fn plan_threads(total: usize) -> usize {
    max_threads().min(total).min(MAX_CHUNKS)
}

/// Body of one crew worker: park until the dispatch sequence advances, then
/// claim and execute chunks of the published task until none remain.
/// `worker` is this thread's stable crew index, used only to attribute
/// claimed chunks in the observability layer.
fn worker_loop(worker: usize) {
    IN_WORKER.with(|w| w.set(true));
    let crew = crew();
    let mut seen = 0u64;
    loop {
        let (task, seq) = {
            // PANIC: the crew never panics while holding its mutexes (user
            // code runs outside them, under catch_unwind), so the lock
            // cannot be poisoned.
            let mut st = crew.state.lock().expect("crew state lock");
            let mut parked = false;
            loop {
                if st.seq > seen {
                    seen = st.seq;
                    if parked {
                        obs::counter_add(obs::Counter::PoolWorkerWakes, 1);
                    }
                    break (st.task, st.seq);
                }
                parked = true;
                obs::counter_add(obs::Counter::PoolWorkerParks, 1);
                // PANIC: see lock above — poisoning is unreachable.
                st = crew.work.wait(st).expect("crew state lock");
            }
        };
        if let Some(task) = task {
            let claimed = execute_chunks(task, seq);
            if claimed > 0 {
                obs::worker_claims_add(worker, claimed as u64);
            }
        }
    }
}

/// Claims one chunk of dispatch `seq`, or `None` when the dispatch's chunks
/// are exhausted or a newer dispatch has replaced it (a straggler worker
/// holding an old task copy must not touch the new claim cursor).
// lint: hot-path
fn claim_chunk(seq: u64, chunks: usize) -> Option<usize> {
    let crew = crew();
    let mut cur = crew.claim.load(Ordering::Acquire);
    loop {
        if cur >> CLAIM_SEQ_SHIFT != seq {
            return None;
        }
        let chunk = (cur & ((1 << CLAIM_SEQ_SHIFT) - 1)) as usize;
        if chunk >= chunks {
            return None;
        }
        match crew.claim.compare_exchange_weak(cur, cur + 1, Ordering::AcqRel, Ordering::Acquire) {
            Ok(_) => return Some(chunk),
            Err(seen) => cur = seen,
        }
    }
}

/// Claims and executes chunks of `task` until none remain, then accounts
/// the batch under the state lock. Shared by workers and the dispatching
/// thread. A panicking chunk is caught here: the payload is stored (first
/// wins), the abort flag makes the remaining chunks skip, and the dispatch
/// still quiesces — the crew is never poisoned. Returns the number of
/// chunks this thread claimed, so callers can attribute them (per-worker
/// claim slots, dispatcher-inline counter).
// lint: hot-path
fn execute_chunks(task: Task, seq: u64) -> usize {
    let crew = crew();
    let mut processed = 0usize;
    let mut payload: Option<Payload> = None;
    while let Some(chunk) = claim_chunk(seq, task.chunks) {
        processed += 1;
        if crew.abort.load(Ordering::Relaxed) {
            continue;
        }
        // SAFETY: `chunk` was claimed through the sequence-guarded cursor,
        // so it belongs to the dispatch that published `task`, whose `ctx`
        // still lives on the blocked dispatcher's stack; each chunk index is
        // claimed exactly once, so chunk-level work never aliases.
        if let Err(p) = catch_unwind(AssertUnwindSafe(|| unsafe { (task.run)(task.ctx, chunk) })) {
            crew.abort.store(true, Ordering::Relaxed);
            if payload.is_none() {
                payload = Some(p);
            }
        }
    }
    if processed > 0 {
        // PANIC: the crew never panics while holding its mutexes — see
        // worker_loop.
        let mut st = crew.state.lock().expect("crew state lock");
        if st.panic.is_none() {
            st.panic = payload;
        }
        st.pending -= processed;
        if st.pending == 0 {
            crew.done.notify_all();
        }
    }
    processed
}

/// Ensures at least `target` workers exist, spawning the missing ones.
/// Spawn failures are swallowed: the dispatching thread claims every chunk
/// a missing worker would have, so a dispatch completes with any crew size.
// lint: cold
fn ensure_workers(st: &mut State, target: usize) {
    while st.workers < target {
        let worker = st.workers;
        let spawned = std::thread::Builder::new()
            .name("ganopc-crew".to_string())
            .spawn(move || worker_loop(worker))
            .is_ok();
        if !spawned {
            break;
        }
        st.workers += 1;
    }
}

/// Publishes `(run, ctx, chunks)` to the crew, participates in execution,
/// and blocks until every chunk is accounted for. Returns the first caught
/// panic payload, if any chunk panicked. Allocation-free in the steady
/// state (worker spawn is a one-time cost per crew slot).
///
/// On return, no thread holds a reference derived from `ctx`.
// lint: hot-path
fn dispatch(
    run: unsafe fn(*const (), usize),
    ctx: *const (),
    chunks: usize,
) -> Result<(), Payload> {
    debug_assert!((2..=MAX_CHUNKS).contains(&chunks), "dispatch chunk count {chunks} out of range");
    // Hard cap, enforced in release builds too: the claim word packs the
    // chunk cursor into its low CLAIM_SEQ_SHIFT bits, and a chunk count
    // above MAX_CHUNKS would eat into that headroom, so clamp — the planner
    // already upholds the invariant via `plan_threads`, but a future call
    // site must not be able to break it silently.
    let chunks = chunks.min(MAX_CHUNKS);
    obs::counter_add(obs::Counter::PoolDispatches, 1);
    let crew = crew();
    // PANIC: held only around dispatch bookkeeping that cannot panic; user
    // code runs after this guard is acquired but poisoning requires a panic
    // *while holding* the mutex, and execution below never unwinds through
    // the guard (payloads are carried as values, resumed by the caller).
    let guard = crew.dispatch.lock().expect("crew dispatch lock");
    let (task, seq) = {
        // PANIC: see worker_loop — the crew never panics under its mutexes.
        let mut st = crew.state.lock().expect("crew state lock");
        st.seq += 1;
        let task = Task { run, ctx, chunks };
        st.task = Some(task);
        st.pending = chunks;
        st.panic = None;
        crew.abort.store(false, Ordering::Relaxed);
        crew.claim.store(st.seq << CLAIM_SEQ_SHIFT, Ordering::Release);
        ensure_workers(&mut st, chunks - 1);
        crew.work.notify_all();
        (task, st.seq)
    };
    // The dispatching thread is a full participant; its own chunks count as
    // worker execution, so nested pool calls inside them run inline.
    let was_worker = IN_WORKER.with(|w| w.replace(true));
    let inline = execute_chunks(task, seq);
    IN_WORKER.with(|w| w.set(was_worker));
    obs::counter_add(obs::Counter::PoolChunksInline, inline as u64);
    // Quiesce: wait for straggler workers to account their claimed chunks.
    // PANIC: see worker_loop — the crew never panics under its mutexes.
    let mut st = crew.state.lock().expect("crew state lock");
    while st.pending > 0 {
        // PANIC: see worker_loop — poisoning is unreachable.
        st = crew.done.wait(st).expect("crew state lock");
    }
    st.task = None;
    let outcome = st.panic.take().map_or(Ok(()), Err);
    drop(st);
    drop(guard);
    outcome
}

// ---------------------------------------------------------------------------
// Public dispatch surface
// ---------------------------------------------------------------------------

/// Context for [`run_chunks`]'s type-erased thunk.
struct ChunksCtx<'a, F> {
    f: &'a F,
    total: usize,
    chunks: usize,
}

/// Executes one chunk of a [`run_chunks`] dispatch.
///
/// # Safety
///
/// `ctx` must point to the dispatching [`run_chunks`]'s live `ChunksCtx`
/// (guaranteed by [`dispatch`]'s claim protocol).
// lint: hot-path
unsafe fn chunks_thunk<F: Fn(Range<usize>)>(ctx: *const (), chunk: usize) {
    // SAFETY: per this function's contract.
    let ctx = unsafe { &*ctx.cast::<ChunksCtx<'_, F>>() };
    (ctx.f)(chunk_bounds(chunk, ctx.total, ctx.chunks));
}

/// Indexed, allocation-free dispatch: splits `0..total` into contiguous,
/// balanced (±1) ranges — one per participant — and runs `f` once per
/// range on the crew. The ranges partition `0..total` exactly, so `f` may
/// hand out disjoint `&mut` views of shared buffers through
/// [`DisjointMut`]. Runs `f(0..total)` inline when the pool is capped at
/// one thread, when `total <= 1`, or when called from inside another pool
/// job; does nothing for `total == 0`.
///
/// This is the crew's only dispatch primitive: it materializes no job
/// vector and returns nothing — callers write results into caller-owned
/// disjoint storage.
///
/// # Invariant
///
/// A dispatch never uses more than `MAX_CHUNKS` (64) ranges, regardless of
/// `total` or the thread cap: the claim word reserves only the low byte for
/// the chunk cursor. `plan_threads` clamps to that bound here, and
/// `dispatch` re-clamps (plus `debug_assert!`s) so no future call site
/// can overflow the packed cursor silently.
///
/// # Panics
///
/// Propagates the first panicking range's payload after the dispatch has
/// quiesced; the crew survives for subsequent dispatches.
// lint: hot-path
pub fn run_chunks<F>(total: usize, f: F)
where
    F: Fn(Range<usize>) + Sync,
{
    if total == 0 {
        return;
    }
    let chunks = plan_threads(total);
    if chunks <= 1 || in_worker() {
        f(0..total);
        return;
    }
    let ctx = ChunksCtx { f: &f, total, chunks };
    if let Err(payload) = dispatch(
        chunks_thunk::<F> as unsafe fn(*const (), usize),
        std::ptr::from_ref(&ctx).cast(),
        chunks,
    ) {
        resume_unwind(payload);
    }
}

// ---------------------------------------------------------------------------
// Disjoint shared-buffer access for run_chunks call sites
// ---------------------------------------------------------------------------

/// A `Sync` view of a mutable slice that lets [`run_chunks`] jobs carve out
/// **disjoint** `&mut` elements or sub-slices concurrently.
///
/// Safe Rust cannot hand several closures simultaneous `&mut` access into
/// one buffer even when the touched regions never overlap; this wrapper
/// moves that proof obligation to the call site. The `run_chunks` contract
/// — ranges partition `0..total`, each executed exactly once — is what
/// call sites cite to discharge it.
pub struct DisjointMut<'a, T> {
    ptr: *mut T,
    len: usize,
    _marker: std::marker::PhantomData<&'a mut [T]>,
}

// SAFETY: `DisjointMut` hands out element/sub-slice access across threads;
// callers uphold disjointness (see `index_mut`/`slice_mut` contracts), and
// `T: Send` makes moving that access between threads sound.
unsafe impl<T: Send> Sync for DisjointMut<'_, T> {}
// SAFETY: see the Sync impl above.
unsafe impl<T: Send> Send for DisjointMut<'_, T> {}

impl<'a, T> DisjointMut<'a, T> {
    /// Wraps a slice for disjoint parallel access. The borrow is held for
    /// `'a`, so the underlying buffer cannot be touched elsewhere while
    /// views are live.
    pub fn new(slice: &'a mut [T]) -> Self {
        DisjointMut { ptr: slice.as_mut_ptr(), len: slice.len(), _marker: std::marker::PhantomData }
    }

    /// Wrapped length.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the wrapped slice is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// A mutable reference to element `index`.
    ///
    /// # Safety
    ///
    /// `index < len()`, and no other live reference (from this or any
    /// thread) covers element `index` — callers typically guarantee this by
    /// deriving `index` from their exclusive [`run_chunks`] range.
    #[allow(clippy::mut_from_ref)] // the whole point: caller-proved disjoint &mut views
    #[inline]
    // lint: hot-path
    pub unsafe fn index_mut(&self, index: usize) -> &mut T {
        debug_assert!(index < self.len);
        // SAFETY: per this method's contract.
        unsafe { &mut *self.ptr.add(index) }
    }

    /// A mutable sub-slice covering `range`.
    ///
    /// # Safety
    ///
    /// `range` is in bounds, and no other live reference covers any element
    /// of `range` — callers typically guarantee this by deriving `range`
    /// from their exclusive [`run_chunks`] range.
    #[allow(clippy::mut_from_ref)] // the whole point: caller-proved disjoint &mut views
    #[inline]
    // lint: hot-path
    pub unsafe fn slice_mut(&self, range: Range<usize>) -> &mut [T] {
        debug_assert!(range.start <= range.end && range.end <= self.len);
        // SAFETY: per this method's contract.
        unsafe { std::slice::from_raw_parts_mut(self.ptr.add(range.start), range.len()) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_run_executes_inline() {
        let jobs = AtomicUsize::new(0);
        run_chunks(8, |range| {
            for _ in range {
                // From inside a worker (or inline when capped at one
                // thread), a nested call must run its whole range inline in
                // one piece instead of dispatching again.
                assert!(in_worker() || max_threads() == 1);
                let inner = Mutex::new(Vec::new());
                run_chunks(3, |r| inner.lock().unwrap().push(r));
                assert_eq!(inner.into_inner().unwrap(), vec![0..3]);
                jobs.fetch_add(1, Ordering::Relaxed);
            }
        });
        assert_eq!(jobs.into_inner(), 8);
    }

    #[test]
    fn run_chunks_partitions_exactly() {
        let mut data = vec![0u32; 103];
        let dm = DisjointMut::new(&mut data);
        run_chunks(103, |range| {
            // SAFETY: run_chunks ranges partition 0..103, so this view is
            // disjoint from every other chunk's.
            let view = unsafe { dm.slice_mut(range.clone()) };
            for (v, i) in view.iter_mut().zip(range) {
                *v += 1 + i as u32;
            }
        });
        for (i, &v) in data.iter().enumerate() {
            assert_eq!(v, 1 + i as u32, "element {i} visited wrongly");
        }
    }

    #[test]
    fn run_chunks_zero_and_one() {
        run_chunks(0, |_| panic!("must not run for total == 0"));
        let mut hits = 0;
        let hits_ref = &mut hits;
        let cell = std::sync::Mutex::new(hits_ref);
        run_chunks(1, |r| {
            assert_eq!(r, 0..1);
            **cell.lock().unwrap() += 1;
        });
        assert_eq!(hits, 1);
    }

    #[test]
    fn chunk_bounds_balance_within_one() {
        for total in 1..200usize {
            for chunks in 1..=total.min(MAX_CHUNKS) {
                let mut cursor = 0usize;
                let mut min_len = usize::MAX;
                let mut max_len = 0usize;
                for c in 0..chunks {
                    let r = chunk_bounds(c, total, chunks);
                    assert_eq!(r.start, cursor, "gap before chunk {c} of {chunks}/{total}");
                    assert!(!r.is_empty(), "empty chunk {c} of {chunks}/{total}");
                    min_len = min_len.min(r.len());
                    max_len = max_len.max(r.len());
                    cursor = r.end;
                }
                assert_eq!(cursor, total, "chunks do not cover {total}");
                assert!(
                    max_len - min_len <= 1,
                    "imbalance {min_len}..{max_len} for {chunks}/{total}"
                );
            }
        }
    }

    #[test]
    fn runtime_override_caps_threads() {
        set_max_threads(Some(3));
        assert_eq!(max_threads(), 3);
        set_max_threads(None);
        assert!(max_threads() >= 1);
    }
}
