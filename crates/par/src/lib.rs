//! Order-preserving parallel map over a scoped thread pool.
//!
//! The reproduction's experiment grids (workload × `BSLD_threshold` ×
//! `WQ_threshold` × system size) are embarrassingly parallel: every cell is
//! an independent, deterministic simulation. [`par_map`] fans the cells out
//! over a fixed pool of scoped worker threads pulling from a shared work
//! queue and returns results **in input order**, so parallel sweeps are
//! bit-for-bit identical to sequential ones.
//!
//! Built entirely on `std` (`std::thread::scope` + mutex-guarded queue and
//! result slots): the offline build environment has no third-party thread
//! pool, and the sweep granularity — whole simulations, milliseconds each —
//! makes lock contention on the queue irrelevant.
//!
//! Beyond the batch map, the crate carries the other shared concurrency
//! primitives: [`Progress`] + [`StatusLine`] (stderr-only status
//! rendering), [`AbortFlag`] / [`run_budgeted`] (cooperative wall-clock
//! budgets) and [`Pool`] (a long-lived submission pool for the
//! `bsld-repro serve` daemon).

#![deny(missing_docs)]
#![forbid(unsafe_code)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::float_cmp))]
use std::io::IsTerminal;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::Duration;

/// Number of worker threads [`par_map`] uses by default: the available
/// parallelism, capped at 16 (the grids rarely have more useful width).
pub fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(16)
}

/// Applies `f` to every item on a pool of `threads` workers, returning the
/// results in input order.
///
/// Items are distributed dynamically (a shared queue), so heterogeneous
/// cell costs — e.g. the SDSC grid cell simulating a saturated machine —
/// do not serialise the sweep.
///
/// Panics in workers propagate: if any invocation of `f` panics, `par_map`
/// panics after the pool drains. A shared abort flag makes that drain
/// prompt: the panicking worker raises it before unwinding, and every
/// sibling checks it before popping the next item, so a doomed sweep stops
/// burning cores on work whose results can never be returned. (The queue
/// lock itself never poisons — it is only held to pop, never while `f`
/// runs — so the flag is the *only* cross-worker panic signal.)
pub fn par_map<T, R, F>(items: Vec<T>, threads: usize, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let threads = threads.max(1);
    let n = items.len();
    if n == 0 {
        return Vec::new();
    }
    if threads == 1 || n == 1 {
        return items.into_iter().map(f).collect();
    }

    /// Raises the abort flag if dropped mid-panic (i.e. while `f` is
    /// unwinding); disarmed on the success path.
    struct PanicSignal<'a>(&'a AtomicBool);
    impl Drop for PanicSignal<'_> {
        fn drop(&mut self) {
            if std::thread::panicking() {
                self.0.store(true, Ordering::SeqCst);
            }
        }
    }

    let abort = AtomicBool::new(false);
    let queue = Mutex::new(items.into_iter().enumerate());
    let slots: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..threads.min(n) {
            scope.spawn(|| loop {
                if abort.load(Ordering::SeqCst) {
                    break;
                }
                // Take the lock only to pop; run `f` outside it.
                let next = queue.lock().map(|mut q| q.next());
                match next {
                    Ok(Some((idx, item))) => {
                        let signal = PanicSignal(&abort);
                        let out = f(item);
                        std::mem::forget(signal);
                        if let Ok(mut slot) = slots[idx].lock() {
                            *slot = Some(out);
                        }
                    }
                    // Queue drained (the lock can't actually poison — it is
                    // never held across `f` — but be conservative).
                    Ok(None) | Err(_) => break,
                }
            });
        }
    });

    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                // audit:allow(R1): a worker panic propagates out of the scope before this read
                .expect("no worker panicked (scope would have propagated it)")
                // audit:allow(R1): the queue drains fully unless a panic aborted the pool
                .expect("worker filled every slot")
        })
        .collect()
}

/// A thread-safe progress counter for long sweeps.
///
/// Workers call [`Progress::tick`]; an observer (usually the CLI) reads
/// [`Progress::done`] to render status lines.
#[derive(Debug, Default)]
pub struct Progress {
    done: std::sync::atomic::AtomicUsize,
    total: usize,
}

impl Progress {
    /// A counter expecting `total` ticks.
    pub fn new(total: usize) -> Self {
        Progress {
            done: std::sync::atomic::AtomicUsize::new(0),
            total,
        }
    }

    /// Records one completed unit and returns the new count.
    pub fn tick(&self) -> usize {
        self.done.fetch_add(1, std::sync::atomic::Ordering::Relaxed) + 1
    }

    /// Completed units so far.
    pub fn done(&self) -> usize {
        self.done.load(std::sync::atomic::Ordering::Relaxed)
    }

    /// The expected total.
    pub fn total(&self) -> usize {
        self.total
    }
}

/// The one way progress is shown: a `# label: done/total runs` counter
/// on **stderr**, so piped or captured stdout (CSV tables, JSON replies)
/// stays clean. On a terminal each update redraws the line in place
/// (`\r`); anywhere else updates only record the count and
/// [`StatusLine::finish`] prints the last one once, so a log holds one
/// line instead of one `\r`-joined record per unit. Every
/// campaign/worker status line routes through this type rather than
/// printing ad hoc.
#[derive(Debug)]
pub struct StatusLine {
    label: String,
    redraw: bool,
    /// The highest `(done, total)` reported so far: updates arrive from
    /// worker threads, not always in order.
    last: Mutex<Option<(usize, usize)>>,
}

impl StatusLine {
    /// A status line labelled `label` (e.g. `campaign`, `worker 2`).
    pub fn new(label: impl Into<String>) -> StatusLine {
        StatusLine {
            label: label.into(),
            redraw: std::io::stderr().is_terminal(),
            last: Mutex::new(None),
        }
    }

    /// Reports `done` of `total` units: redraws the line on a terminal,
    /// otherwise keeps the count for [`StatusLine::finish`].
    pub fn update(&self, done: usize, total: usize) {
        if self.redraw {
            eprint!("\r# {}: {done}/{total} runs", self.label);
            return;
        }
        // Each update is one assignment, so a poisoned lock still holds
        // a valid count.
        let mut last = self.last.lock().unwrap_or_else(PoisonError::into_inner);
        if last.is_none_or(|(d, _)| d <= done) {
            *last = Some((done, total));
        }
    }

    /// Ends the status: terminates the redrawn line, or prints the last
    /// count reported.
    pub fn finish(&self) {
        if self.redraw {
            eprintln!();
        } else if let Some((done, total)) =
            *self.last.lock().unwrap_or_else(PoisonError::into_inner)
        {
            eprintln!("# {}: {done}/{total} runs", self.label);
        }
    }
}

/// A fixed pool of named worker threads consuming queued jobs.
///
/// Unlike [`par_map`] — which is scoped to one batch and joins before
/// returning — a `Pool` lives as long as its owner and accepts work
/// incrementally, which is what a connection-serving daemon needs. Jobs
/// run in submission order (a single shared FIFO), one per free worker.
/// A panicking job is contained to that job: the worker catches the
/// unwind and moves on, so one poisoned request cannot take the service
/// down with it.
#[derive(Debug)]
pub struct Pool {
    shared: Arc<PoolShared>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

type Job = Box<dyn FnOnce() + Send + 'static>;

#[derive(Debug, Default)]
struct PoolShared {
    queue: Mutex<PoolQueue>,
    available: Condvar,
    panics: std::sync::atomic::AtomicUsize,
}

#[derive(Default)]
struct PoolQueue {
    jobs: std::collections::VecDeque<Job>,
    closed: bool,
}

impl std::fmt::Debug for PoolQueue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PoolQueue")
            .field("jobs", &self.jobs.len())
            .field("closed", &self.closed)
            .finish()
    }
}

impl Pool {
    /// Spawns a pool of `threads` workers (at least one).
    pub fn new(threads: usize) -> Pool {
        let shared = Arc::new(PoolShared::default());
        let workers = (0..threads.max(1))
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("bsld-pool-{i}"))
                    .spawn(move || pool_worker(&shared))
                    // audit:allow(R1): thread spawn fails only on resource exhaustion at startup
                    .expect("spawn pool worker")
            })
            .collect();
        Pool { shared, workers }
    }

    /// Queues one job; returns `false` (dropping the job) after
    /// [`Pool::close`].
    pub fn submit(&self, job: impl FnOnce() + Send + 'static) -> bool {
        let Ok(mut q) = self.shared.queue.lock() else {
            return false;
        };
        if q.closed {
            return false;
        }
        q.jobs.push_back(Box::new(job));
        drop(q);
        self.shared.available.notify_one();
        true
    }

    /// Number of worker threads.
    pub fn threads(&self) -> usize {
        self.workers.len()
    }

    /// Jobs that ended in a contained panic so far.
    pub fn panicked_jobs(&self) -> usize {
        self.shared
            .panics
            .load(std::sync::atomic::Ordering::Relaxed)
    }

    /// Closes the queue — future [`Pool::submit`] calls are refused —
    /// without waiting for in-flight jobs.
    pub fn close(&self) {
        if let Ok(mut q) = self.shared.queue.lock() {
            q.closed = true;
        }
        self.shared.available.notify_all();
    }

    /// Closes the queue, drains every queued job and joins the workers.
    pub fn join(mut self) {
        self.close();
        for w in self.workers.drain(..) {
            // audit:allow(R1): pool workers contain job panics; a join failure is itself a bug worth propagating
            w.join().expect("pool worker never panics");
        }
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        self.close();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

fn pool_worker(shared: &PoolShared) {
    loop {
        let job = {
            let Ok(mut q) = shared.queue.lock() else {
                return;
            };
            loop {
                if let Some(job) = q.jobs.pop_front() {
                    break job;
                }
                if q.closed {
                    return;
                }
                match shared.available.wait(q) {
                    Ok(guard) => q = guard,
                    Err(_) => return,
                }
            }
        };
        // Contain per-job panics: the daemon must outlive a poisoned
        // request. AssertUnwindSafe is sound here because the job is
        // consumed either way — no caller observes its captured state
        // after an unwind.
        if std::panic::catch_unwind(std::panic::AssertUnwindSafe(job)).is_err() {
            shared
                .panics
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        }
    }
}

/// A shared cooperative-cancellation flag.
///
/// Long-running work (a whole simulation) polls the flag at a safe
/// granularity — the scheduling engine checks it once per event — and
/// unwinds cleanly when it is raised. Cloning shares the flag; the
/// underlying [`AtomicBool`] is exposed via [`AbortFlag::handle`] so crates
/// that must not depend on `bsld-par` (e.g. the scheduling engine's
/// `EngineConfig`) can carry it as a plain `Arc<AtomicBool>`.
#[derive(Debug, Clone, Default)]
pub struct AbortFlag(Arc<AtomicBool>);

impl AbortFlag {
    /// A fresh, unraised flag.
    pub fn new() -> AbortFlag {
        AbortFlag::default()
    }

    /// Raises the flag; every holder observes it on the next poll.
    pub fn raise(&self) {
        self.0.store(true, Ordering::SeqCst);
    }

    /// Whether the flag has been raised.
    pub fn is_raised(&self) -> bool {
        self.0.load(Ordering::SeqCst)
    }

    /// The shared atomic behind the flag, for APIs that take a plain
    /// `Arc<AtomicBool>`.
    pub fn handle(&self) -> Arc<AtomicBool> {
        Arc::clone(&self.0)
    }

    /// A borrowed view of the shared atomic, for APIs that poll a
    /// `&AtomicBool` without taking ownership (e.g. the SWF parse/clean
    /// phase).
    pub fn as_atomic(&self) -> &AtomicBool {
        &self.0
    }
}

/// Runs `f` under a wall-clock budget of `budget_s` seconds, returning
/// `(result, budget_exhausted)`.
///
/// `f` executes on the **calling** thread and receives an [`AbortFlag`] it
/// is expected to poll; a watchdog thread raises the flag once the budget
/// elapses, so a cooperative `f` cuts itself off instead of stalling the
/// caller. This is *cooperative* cancellation: nothing is killed, no work
/// thread is leaked — when `f` returns (normally or by observing the
/// flag), the watchdog is woken and joined before `run_budgeted` returns.
///
/// A budget of zero (or anything non-positive / non-finite) starts with
/// the flag already raised: `f` still runs, but a polling `f` aborts at
/// its first check — the deterministic degenerate case the campaign tests
/// rely on.
///
/// The second element of the return value reports whether the flag was
/// raised by the deadline. A race is possible — `f` can complete
/// successfully in the same instant the watchdog fires — so callers should
/// trust a successful result over the flag.
pub fn run_budgeted<R>(budget_s: f64, f: impl FnOnce(&AbortFlag) -> R) -> (R, bool) {
    let flag = AbortFlag::new();
    if !(budget_s > 0.0 && budget_s.is_finite()) {
        flag.raise();
        let out = f(&flag);
        return (out, true);
    }
    // A budget beyond what Duration / the platform clock can represent
    // (`from_secs_f64` panics above ~1.8e19 s, and `Instant + Duration`
    // can overflow) is effectively unlimited: skip the watchdog instead
    // of letting a spec typo panic a worker thread mid-campaign.
    let deadline = Duration::try_from_secs_f64(budget_s)
        .ok()
        .and_then(|d| std::time::Instant::now().checked_add(d));
    let Some(deadline) = deadline else {
        let out = f(&flag);
        return (out, false);
    };
    // done: (finished, condvar) — the worker sets `finished` and notifies;
    // the watchdog waits with a timeout and raises the flag if the wait
    // expires first.
    let done = Arc::new((Mutex::new(false), Condvar::new()));
    let watchdog = {
        let done = Arc::clone(&done);
        let flag = flag.clone();
        std::thread::spawn(move || {
            let (lock, cv) = &*done;
            let Ok(mut finished) = lock.lock() else {
                return;
            };
            while !*finished {
                let now = std::time::Instant::now();
                if now >= deadline {
                    flag.raise();
                    return;
                }
                match cv.wait_timeout(finished, deadline - now) {
                    Ok((guard, _)) => finished = guard,
                    Err(_) => return,
                }
            }
        })
    };
    let out = f(&flag);
    {
        let (lock, cv) = &*done;
        if let Ok(mut finished) = lock.lock() {
            *finished = true;
        }
        cv.notify_all();
    }
    let _ = watchdog.join();
    (out, flag.is_raised())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_order() {
        let items: Vec<u64> = (0..1000).collect();
        let out = par_map(items.clone(), 8, |x| x * 2);
        let expected: Vec<u64> = items.iter().map(|x| x * 2).collect();
        assert_eq!(out, expected);
    }

    #[test]
    fn matches_sequential_for_any_thread_count() {
        let items: Vec<u32> = (0..97).collect();
        let seq = par_map(items.clone(), 1, |x| x.wrapping_mul(2654435761) >> 7);
        for threads in [2, 3, 4, 8, 32] {
            let par = par_map(items.clone(), threads, |x| x.wrapping_mul(2654435761) >> 7);
            assert_eq!(par, seq, "threads = {threads}");
        }
    }

    #[test]
    fn empty_input() {
        let out: Vec<u32> = par_map(Vec::<u32>::new(), 4, |x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn single_item() {
        let out = par_map(vec![41], 4, |x| x + 1);
        assert_eq!(out, vec![42]);
    }

    #[test]
    fn uneven_work_still_ordered() {
        // Simulate heterogeneous cell costs with spin work proportional to
        // an arbitrary pattern.
        let items: Vec<u64> = (0..64).collect();
        let out = par_map(items, 8, |x| {
            let spins = (x % 7) * 1000;
            let mut acc = x;
            for i in 0..spins {
                acc = acc.wrapping_mul(31).wrapping_add(i);
            }
            (x, acc)
        });
        for (i, (x, _)) in out.iter().enumerate() {
            assert_eq!(*x, i as u64);
        }
    }

    #[test]
    #[should_panic]
    fn worker_panic_propagates() {
        let _ = par_map(vec![1, 2, 3], 2, |x| {
            if x == 2 {
                panic!("boom");
            }
            x
        });
    }

    #[test]
    fn panic_aborts_siblings_promptly() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        // Item 0 panics immediately; the other worker would otherwise
        // drain 400 further items (2 ms each ≈ 0.8 s). With the abort
        // flag it stops within a handful of pops.
        let processed = AtomicUsize::new(0);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            par_map((0..401).collect::<Vec<u64>>(), 2, |x| {
                if x == 0 {
                    panic!("doomed campaign");
                }
                std::thread::sleep(std::time::Duration::from_millis(2));
                processed.fetch_add(1, Ordering::SeqCst);
                x
            })
        }));
        assert!(result.is_err(), "panic must still propagate");
        let done = processed.load(Ordering::SeqCst);
        assert!(
            done < 100,
            "siblings kept draining the queue after a panic: {done} items"
        );
    }

    #[test]
    fn progress_counts() {
        let p = Progress::new(10);
        assert_eq!(p.total(), 10);
        assert_eq!(p.done(), 0);
        assert_eq!(p.tick(), 1);
        assert_eq!(p.tick(), 2);
        assert_eq!(p.done(), 2);
    }

    #[test]
    fn default_threads_positive() {
        let t = default_threads();
        assert!((1..=16).contains(&t));
    }

    #[test]
    fn zero_budget_starts_exhausted() {
        for budget in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            let (seen, exhausted) = run_budgeted(budget, |flag| flag.is_raised());
            assert!(seen, "budget {budget}: f must observe the raised flag");
            assert!(exhausted, "budget {budget}");
        }
    }

    #[test]
    fn generous_budget_never_interrupts() {
        let ((), exhausted) = run_budgeted(3600.0, |flag| {
            assert!(!flag.is_raised());
        });
        assert!(!exhausted);
    }

    #[test]
    fn astronomically_large_budget_does_not_panic() {
        // Above Duration's ~1.8e19 s ceiling `from_secs_f64` would panic;
        // such budgets must degrade to "unlimited", not crash a worker.
        for budget in [2e19, 1e300, f64::MAX] {
            let (seen, exhausted) = run_budgeted(budget, |flag| flag.is_raised());
            assert!(!seen, "budget {budget}: flag must stay down");
            assert!(!exhausted, "budget {budget}");
        }
    }

    #[test]
    fn expired_budget_raises_the_flag_mid_run() {
        // A cooperative worker spinning until cancelled: the watchdog must
        // cut it off close to the 20 ms budget, not let it run the full
        // 10 s failsafe.
        let t0 = std::time::Instant::now();
        let (aborted, exhausted) = run_budgeted(0.02, |flag| {
            while !flag.is_raised() {
                if t0.elapsed() > Duration::from_secs(10) {
                    return false;
                }
                std::thread::yield_now();
            }
            true
        });
        assert!(aborted, "worker must observe the deadline");
        assert!(exhausted);
        assert!(
            t0.elapsed() < Duration::from_secs(5),
            "watchdog fired far too late: {:?}",
            t0.elapsed()
        );
    }

    #[test]
    fn abort_flag_is_shared_across_clones_and_handles() {
        let a = AbortFlag::new();
        let b = a.clone();
        let h = a.handle();
        assert!(!b.is_raised());
        a.raise();
        assert!(b.is_raised());
        assert!(h.load(Ordering::SeqCst));
    }

    #[test]
    fn pool_runs_every_submitted_job() {
        let pool = Pool::new(4);
        let counter = Arc::new(std::sync::atomic::AtomicUsize::new(0));
        for _ in 0..64 {
            let counter = Arc::clone(&counter);
            assert!(pool.submit(move || {
                counter.fetch_add(1, Ordering::SeqCst);
            }));
        }
        pool.join();
        assert_eq!(counter.load(Ordering::SeqCst), 64);
    }

    #[test]
    fn pool_survives_panicking_jobs_and_refuses_after_close() {
        let pool = Pool::new(2);
        assert_eq!(pool.threads(), 2);
        let counter = Arc::new(std::sync::atomic::AtomicUsize::new(0));
        for i in 0..8 {
            let counter = Arc::clone(&counter);
            pool.submit(move || {
                if i % 2 == 0 {
                    panic!("poisoned request");
                }
                counter.fetch_add(1, Ordering::SeqCst);
            });
        }
        // Wait for the queue to drain without joining, proving the
        // workers outlive the panics. The last panicking job may still be
        // unwinding when the last counting job finishes, so wait for both
        // tallies.
        let t0 = std::time::Instant::now();
        while (counter.load(Ordering::SeqCst) < 4 || pool.panicked_jobs() < 4)
            && t0.elapsed() < Duration::from_secs(10)
        {
            std::thread::yield_now();
        }
        assert_eq!(counter.load(Ordering::SeqCst), 4);
        pool.close();
        assert!(!pool.submit(|| {}), "closed pool must refuse work");
        assert_eq!(pool.panicked_jobs(), 4);
        pool.join();
    }

    #[test]
    fn pool_zero_threads_still_works() {
        let pool = Pool::new(0);
        assert_eq!(pool.threads(), 1);
        let done = Arc::new(std::sync::atomic::AtomicUsize::new(0));
        let d = Arc::clone(&done);
        pool.submit(move || {
            d.fetch_add(1, Ordering::SeqCst);
        });
        pool.join();
        assert_eq!(done.load(Ordering::SeqCst), 1);
    }
}
