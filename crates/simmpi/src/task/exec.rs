//! Work-stealing executor for rank-task futures.
//!
//! Ranks are cooperatively scheduled state machines (`Future`s) that park
//! only inside communicator operations — mailbox receives and collective
//! rendezvous. The executor is deliberately small and entirely safe code:
//!
//! * **Queues** — one LIFO deque per worker plus a shared FIFO injector.
//!   Owners pop newest-first, thieves steal oldest-first. LIFO descent
//!   matters beyond cache warmth: it drives each binomial collective
//!   depth-first, so the number of in-flight round buffers stays
//!   O(log P · fanout) instead of O(P) (breadth-first order would
//!   materialize half the tree's edge payloads at once at 64Ki ranks).
//! * **Quiescence is exact deadlock detection.** A task is either live and
//!   runnable, live and parked in a registered communicator wait, or
//!   finished. When every worker is idle, no task is runnable and live
//!   tasks remain, no future wake-up is possible (wakes only originate
//!   from polls) — the world has deadlocked, deterministically and with no
//!   watchdog timeout. The last worker to go idle declares it.
//! * **Policies** — [`SchedPolicy::WorkSteal`] for throughput, and
//!   [`SchedPolicy::Serial`]: a single worker picking the next runnable
//!   task with a seeded splitmix64 stream (or asking a
//!   [`ScheduleDriver`]) — the one place a schedule is ever chosen, and
//!   how `simcheck` explores wake orders.
//! * **Task identity** — a worker labels its thread with the rank it polls
//!   (`vfs::guard`) and clears the label once the poll is done, so a rank's
//!   file writes and hook events are its own whichever worker runs it.
//!
//! Lost-wakeup freedom: `enqueue` increments the runnable count *before*
//! taking the injector lock to signal, and an idling worker re-checks the
//! count while holding that same lock from the final check until
//! `Condvar::wait`. Either the sleeper sees the new count and retries, or
//! the waker's notification happens after the sleeper is parked.

use crate::hook::{CheckHook, HookEvent};
use parking_lot::Mutex;
use std::cell::Cell;
use std::collections::VecDeque;
use std::future::Future;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::pin::Pin;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering::SeqCst};
use std::sync::{Arc, Condvar, Mutex as StdMutex, MutexGuard as StdMutexGuard};
use std::task::{Context, Poll, Wake, Waker};

/// How a task world maps runnable rank tasks onto OS threads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedPolicy {
    /// Work-stealing pool: per-worker LIFO deques with FIFO stealing, one
    /// deque per worker thread (the caller's thread is worker 0).
    WorkSteal {
        /// Worker thread count; must be ≥ 1.
        workers: usize,
    },
    /// Deterministic single worker: among the runnable tasks, the next one
    /// to poll is chosen by a seeded splitmix64 stream. Same seed, same
    /// program → same interleaving; `simcheck` sweeps seeds over this.
    Serial {
        /// Seed of the schedule-choice stream.
        seed: u64,
        /// Maximum number of *preemptions* — decisions that switch away
        /// from the last-polled task while it is still runnable. Once
        /// exhausted the scheduler keeps polling the last task whenever it
        /// is runnable (CHESS-style iterative context bounding; most
        /// concurrency bugs need few preemptions, so sweeping seeds at
        /// small bounds finds them first). `usize::MAX` explores freely.
        preemption_bound: usize,
    },
}

/// External owner of a [`SchedPolicy::Serial`] run's decisions: instead of
/// the seeded splitmix64 stream, every dequeue asks the driver which of
/// the runnable tasks to poll next. This is how `simcheck`'s DPOR explorer
/// forces decision prefixes and enumerates schedules systematically.
///
/// `candidates` is the sorted, deduplicated set of runnable task ids at
/// decision `step` (0-based, counting every serial dequeue of the run);
/// the returned id must be one of them. Calls arrive strictly in `step`
/// order from the single serial worker, under executor locks — drivers
/// must not call back into the world.
pub trait ScheduleDriver: Send + Sync {
    /// Choose the task to poll at `step` from `candidates`.
    fn choose(&self, step: usize, candidates: &[usize]) -> usize;
}

impl SchedPolicy {
    /// Work-stealing pool sized to the host: `SIMMPI_WORKERS` when set,
    /// else `std::thread::available_parallelism()`.
    pub fn host() -> SchedPolicy {
        let workers = std::env::var("SIMMPI_WORKERS")
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
            .filter(|&n| n > 0)
            .unwrap_or_else(|| {
                std::thread::available_parallelism()
                    .map(|n| n.get())
                    .unwrap_or(1)
            });
        SchedPolicy::WorkSteal { workers }
    }

    pub(crate) fn workers(&self) -> usize {
        match *self {
            SchedPolicy::WorkSteal { workers } => {
                assert!(workers > 0, "work-stealing pool needs at least one worker");
                workers
            }
            SchedPolicy::Serial { .. } => 1,
        }
    }
}

/// Executor-side counters of one run (merged into
/// [`SchedStats`](super::SchedStats) together with the mailbox peaks).
pub(crate) struct ExecReport {
    pub(crate) deadlocked: bool,
    pub(crate) workers: usize,
    pub(crate) polls: u64,
    pub(crate) wakes: u64,
    pub(crate) steals: u64,
    pub(crate) parks: u64,
    pub(crate) peak_runnable: u64,
    /// Poll order (task ids), recorded only for [`SchedPolicy::Serial`]
    /// runs that asked for it.
    pub(crate) trace: Vec<usize>,
}

enum PolicyKind {
    WorkSteal,
    Serial,
}

struct SerialState {
    rng: u64,
    bound: usize,
    preemptions: usize,
    last: Option<usize>,
    trace: Option<Vec<usize>>,
    /// Serial decisions made so far (the `step` passed to a driver).
    steps: usize,
}

struct Injector {
    queue: VecDeque<usize>,
    sleepers: usize,
}

/// The `'static` half of the executor: everything a [`Waker`] needs.
/// Futures themselves live in a scoped slab owned by [`execute`]'s stack
/// frame, so they may borrow the caller's environment.
struct Core {
    workers: usize,
    policy: PolicyKind,
    /// Present only with [`SchedPolicy::Serial`]: owns every decision in
    /// place of the seeded stream.
    driver: Option<Arc<dyn ScheduleDriver>>,
    serial: Mutex<SerialState>,
    locals: Vec<Mutex<VecDeque<usize>>>,
    /// The injector queue and sleeper count; a `std` mutex because the
    /// offline `parking_lot` shim has no `Condvar` to pair with its own.
    shared: StdMutex<Injector>,
    cv: Condvar,
    /// Tasks currently enqueued (runnable).
    runnable: AtomicUsize,
    /// Tasks not yet finished.
    live: AtomicUsize,
    done: AtomicBool,
    deadlocked: AtomicBool,
    polls: AtomicU64,
    wakes: AtomicU64,
    steals: AtomicU64,
    parks: AtomicU64,
    peak_runnable: AtomicU64,
}

thread_local! {
    /// Which worker (of the innermost running task world) this thread is;
    /// wakes issued from a worker land on its own LIFO deque.
    static CURRENT_WORKER: Cell<Option<usize>> = const { Cell::new(None) };
}

/// Scoped CURRENT_WORKER assignment (restores on drop so task worlds can
/// nest under thread worlds or run back-to-back on the caller thread).
struct WorkerGuard {
    prev: Option<usize>,
}

impl WorkerGuard {
    fn enter(w: usize) -> WorkerGuard {
        WorkerGuard {
            prev: CURRENT_WORKER.replace(Some(w)),
        }
    }
}

impl Drop for WorkerGuard {
    fn drop(&mut self) {
        CURRENT_WORKER.set(self.prev);
    }
}

struct TaskWaker {
    id: usize,
    core: Arc<Core>,
}

impl Wake for TaskWaker {
    fn wake(self: Arc<Self>) {
        self.core.enqueue(self.id);
    }

    fn wake_by_ref(self: &Arc<Self>) {
        self.core.enqueue(self.id);
    }
}

fn splitmix64(x: &mut u64) -> u64 {
    *x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl Core {
    /// Lock the injector, shrugging off poisoning (worker panics are
    /// caught per-poll; no invariant-breaking code runs under this lock).
    fn injector(&self) -> StdMutexGuard<'_, Injector> {
        self.shared.lock().unwrap_or_else(|p| p.into_inner())
    }

    fn new(
        policy: &SchedPolicy,
        ntasks: usize,
        trace: bool,
        driver: Option<Arc<dyn ScheduleDriver>>,
    ) -> Core {
        let workers = policy.workers();
        let (kind, seed, bound) = match *policy {
            SchedPolicy::WorkSteal { .. } => (PolicyKind::WorkSteal, 0, usize::MAX),
            SchedPolicy::Serial {
                seed,
                preemption_bound,
            } => (PolicyKind::Serial, seed, preemption_bound),
        };
        assert!(
            driver.is_none() || matches!(kind, PolicyKind::Serial),
            "a ScheduleDriver owns serial decisions; use SchedPolicy::Serial"
        );
        Core {
            workers,
            policy: kind,
            driver,
            serial: Mutex::new(SerialState {
                rng: seed,
                bound,
                preemptions: 0,
                last: None,
                trace: trace.then(|| Vec::with_capacity(ntasks * 4)),
                steps: 0,
            }),
            locals: (0..workers).map(|_| Mutex::new(VecDeque::new())).collect(),
            shared: StdMutex::new(Injector {
                queue: VecDeque::with_capacity(ntasks),
                sleepers: 0,
            }),
            cv: Condvar::new(),
            runnable: AtomicUsize::new(0),
            live: AtomicUsize::new(ntasks),
            done: AtomicBool::new(false),
            deadlocked: AtomicBool::new(false),
            polls: AtomicU64::new(0),
            wakes: AtomicU64::new(0),
            steals: AtomicU64::new(0),
            parks: AtomicU64::new(0),
            peak_runnable: AtomicU64::new(0),
        }
    }

    /// Make task `id` runnable and signal an idle worker, lost-wakeup-free
    /// (see module docs).
    fn enqueue(&self, id: usize) {
        self.wakes.fetch_add(1, SeqCst);
        let now = self.runnable.fetch_add(1, SeqCst) + 1;
        self.peak_runnable.fetch_max(now as u64, SeqCst);
        let local = match self.policy {
            PolicyKind::WorkSteal => CURRENT_WORKER.get().filter(|&w| w < self.locals.len()),
            PolicyKind::Serial => None,
        };
        match local {
            Some(w) => self.locals[w].lock().push_back(id),
            None => self.injector().queue.push_back(id),
        }
        let sh = self.injector();
        if sh.sleepers > 0 {
            self.cv.notify_one();
        }
    }

    /// Dequeue a runnable task for worker `w`, if any.
    fn try_pop(&self, w: usize) -> Option<usize> {
        let id = match self.policy {
            PolicyKind::Serial => {
                let mut sh = self.injector();
                if sh.queue.is_empty() {
                    return None;
                }
                let mut st = self.serial.lock();
                let i = if let Some(driver) = &self.driver {
                    // Driver mode: present the sorted runnable set and let
                    // the driver own the decision (DPOR forces prefixes
                    // this way). The preemption bound does not apply.
                    let mut cands: Vec<usize> = sh.queue.iter().copied().collect();
                    cands.sort_unstable();
                    cands.dedup();
                    let pick = driver.choose(st.steps, &cands);
                    sh.queue
                        .iter()
                        .position(|&t| t == pick)
                        .expect("driver chose one of the presented candidates")
                } else {
                    // Preemption budget spent and the last-polled task is
                    // still runnable: keep running it. Otherwise pick
                    // seeded-randomly, counting a preemption whenever the
                    // pick switches away from a runnable last task.
                    let continued = match st.last {
                        Some(last) if st.preemptions >= st.bound => {
                            sh.queue.iter().position(|&t| t == last)
                        }
                        _ => None,
                    };
                    continued.unwrap_or_else(|| {
                        let i = (splitmix64(&mut st.rng) % sh.queue.len() as u64) as usize;
                        if let Some(last) = st.last {
                            if sh.queue[i] != last && sh.queue.contains(&last) {
                                st.preemptions += 1;
                            }
                        }
                        i
                    })
                };
                let id = sh.queue.remove(i).expect("index in bounds");
                st.last = Some(id);
                st.steps += 1;
                if let Some(t) = &mut st.trace {
                    t.push(id);
                }
                id
            }
            PolicyKind::WorkSteal => {
                let own = self.locals[w].lock().pop_back();
                let found = own
                    .or_else(|| self.injector().queue.pop_front())
                    .or_else(|| {
                        (1..self.workers).find_map(|i| {
                            let v = (w + i) % self.workers;
                            let id = self.locals[v].lock().pop_front();
                            if id.is_some() {
                                self.steals.fetch_add(1, SeqCst);
                            }
                            id
                        })
                    });
                found?
            }
        };
        self.runnable.fetch_sub(1, SeqCst);
        Some(id)
    }

    /// Blocking dequeue; `None` means the world finished or deadlocked.
    ///
    /// The last worker to find nothing runnable while live tasks remain
    /// declares the deadlock: every other worker is parked inside this
    /// function, so no poll is in flight and no future wake can occur.
    fn next_task(&self, w: usize) -> Option<usize> {
        loop {
            if self.done.load(SeqCst) {
                return None;
            }
            if let Some(id) = self.try_pop(w) {
                return Some(id);
            }
            let mut sh = self.injector();
            if self.done.load(SeqCst) {
                return None;
            }
            if self.runnable.load(SeqCst) > 0 {
                drop(sh);
                continue;
            }
            if sh.sleepers + 1 == self.workers {
                if self.live.load(SeqCst) > 0 {
                    self.deadlocked.store(true, SeqCst);
                }
                self.done.store(true, SeqCst);
                self.cv.notify_all();
                return None;
            }
            sh.sleepers += 1;
            sh = self.cv.wait(sh).unwrap_or_else(|p| p.into_inner());
            sh.sleepers -= 1;
        }
    }

    /// Retire one finished task; the last one ends the run.
    fn finish_one(&self) {
        if self.live.fetch_sub(1, SeqCst) == 1 {
            self.done.store(true, SeqCst);
            let _sh = self.injector();
            self.cv.notify_all();
        }
    }

    fn report(&self) -> ExecReport {
        ExecReport {
            deadlocked: self.deadlocked.load(SeqCst),
            workers: self.workers,
            polls: self.polls.load(SeqCst),
            wakes: self.wakes.load(SeqCst),
            steals: self.steals.load(SeqCst),
            parks: self.parks.load(SeqCst),
            peak_runnable: self.peak_runnable.load(SeqCst),
            trace: self.serial.lock().trace.take().unwrap_or_default(),
        }
    }
}

/// Run `ntasks` rank futures (built by `make`, called once per rank in
/// rank order) to completion under `policy`.
///
/// Per-rank outcomes land in the returned vector: `Some(Ok(_))` is written
/// by the wrapper future on normal completion, `Some(Err(_))` records a
/// poll or teardown panic (merged exactly like the thread runtime's
/// body/teardown pair), and `None` marks a task still parked when the
/// world deadlocked. On deadlock, `on_deadlock` runs *before* the parked
/// futures (and the communicators they own) are dropped, so the comm layer
/// can flip into aborting mode and keep teardown hooks quiet.
pub(crate) fn execute<T, F, Fut>(
    policy: &SchedPolicy,
    ntasks: usize,
    hook: Option<Arc<dyn CheckHook>>,
    driver: Option<Arc<dyn ScheduleDriver>>,
    trace: bool,
    mut make: F,
    on_deadlock: impl FnOnce(),
) -> (Vec<Option<std::thread::Result<T>>>, ExecReport)
where
    T: Send,
    F: FnMut(usize) -> Fut,
    Fut: Future<Output = T> + Send,
{
    assert!(ntasks > 0, "world must have at least one task");
    let core = Arc::new(Core::new(policy, ntasks, trace, driver));
    let wakers: Vec<Waker> = (0..ntasks)
        .map(|id| {
            Waker::from(Arc::new(TaskWaker {
                id,
                core: core.clone(),
            }))
        })
        .collect();
    let results: Vec<Mutex<Option<std::thread::Result<T>>>> =
        (0..ntasks).map(|_| Mutex::new(None)).collect();
    // The slab of suspended rank state machines. Each slot's future writes
    // its own Ok result before resolving; slots are cleared eagerly on
    // completion so finished ranks free their stack state immediately.
    let slots: Vec<_> = (0..ntasks)
        .map(|id| {
            let fut = make(id);
            let res = &results[id];
            Mutex::new(Some(Box::pin(async move {
                let v = fut.await;
                *res.lock() = Some(Ok(v));
            })
                as Pin<Box<dyn Future<Output = ()> + Send + '_>>))
        })
        .collect();
    for id in 0..ntasks {
        core.enqueue(id);
    }

    let run_worker = |w: usize| {
        let _g = WorkerGuard::enter(w);
        while let Some(id) = core.next_task(w) {
            let mut slot = slots[id].lock();
            let Some(fut) = slot.as_mut() else {
                // A duplicate wake raced with completion; nothing to poll.
                continue;
            };
            core.polls.fetch_add(1, SeqCst);
            // The thread runs rank `id` until the poll (and the drop of a
            // finished future) is done: its file writes and hook events
            // carry the rank's label, the one task identity.
            vfs::guard::set_task(id as u64);
            let mut cx = Context::from_waker(&wakers[id]);
            let finished = match catch_unwind(AssertUnwindSafe(|| fut.as_mut().poll(&mut cx))) {
                Ok(Poll::Pending) => false,
                Ok(Poll::Ready(())) => {
                    // The wrapper stored Ok; dropping the future runs the
                    // communicator teardown check, whose leak diagnosis
                    // panic replaces the result (the thread runtime's
                    // (Ok, Err(teardown)) merge).
                    if let Err(e) = catch_unwind(AssertUnwindSafe(|| *slot = None)) {
                        *results[id].lock() = Some(Err(e));
                    }
                    true
                }
                Err(e) => {
                    *results[id].lock() = Some(Err(e));
                    // Keep the poll panic as the primary result even if
                    // teardown of the half-run future also panics.
                    let _ = catch_unwind(AssertUnwindSafe(|| *slot = None));
                    true
                }
            };
            vfs::guard::clear_task();
            if !finished {
                core.parks.fetch_add(1, SeqCst);
                continue;
            }
            drop(slot);
            if let Some(h) = &hook {
                let panicked = results[id].lock().as_ref().is_some_and(|r| r.is_err());
                h.on_event(&HookEvent::TaskFinish { task: id, panicked });
            }
            core.finish_one();
        }
    };
    std::thread::scope(|s| {
        let run_worker = &run_worker;
        let spawned: Vec<_> = (1..core.workers)
            .map(|w| s.spawn(move || run_worker(w)))
            .collect();
        run_worker(0);
        // Joined by handle, not just by the scope's end: the scope waits
        // for the closures, a join for the threads themselves. A worker
        // still on its way out holds its malloc arena, and the next world's
        // (or a tool's) first thread would then be given a different one —
        // which strands the pages freed into the old one (sionbench
        // `bulk_4k`: peak RSS 1610 → 2004 MiB, now and then).
        for worker in spawned {
            if let Err(panic) = worker.join() {
                std::panic::resume_unwind(panic);
            }
        }
    });

    if core.deadlocked.load(SeqCst) {
        on_deadlock();
    }
    drop(slots);
    let results = results.into_iter().map(Mutex::into_inner).collect();
    (results, core.report())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plain_futures_run_to_completion() {
        let (results, report) = execute(
            &SchedPolicy::WorkSteal { workers: 3 },
            16,
            None,
            None,
            false,
            |id| async move { id * 2 },
            || {},
        );
        assert!(!report.deadlocked);
        let got: Vec<usize> = results.into_iter().map(|r| r.unwrap().unwrap()).collect();
        assert_eq!(got, (0..16).map(|i| i * 2).collect::<Vec<_>>());
        assert_eq!(report.polls, 16);
    }

    #[test]
    fn panics_are_captured_per_task() {
        let (results, report) = execute(
            &SchedPolicy::WorkSteal { workers: 2 },
            4,
            None,
            None,
            false,
            |id| async move {
                assert!(id != 2, "task two exploded");
                id
            },
            || {},
        );
        assert!(!report.deadlocked);
        for (id, r) in results.into_iter().enumerate() {
            let r = r.expect("all tasks finished");
            assert_eq!(r.is_err(), id == 2);
        }
    }

    #[test]
    fn forever_pending_future_is_declared_deadlocked() {
        struct Never;
        impl Future for Never {
            type Output = ();
            fn poll(self: Pin<&mut Self>, _cx: &mut Context<'_>) -> Poll<()> {
                Poll::Pending
            }
        }
        let mut aborted = false;
        let (results, report) = execute(
            &SchedPolicy::WorkSteal { workers: 2 },
            3,
            None,
            None,
            false,
            |id| async move {
                if id == 1 {
                    Never.await;
                }
                id
            },
            || aborted = true,
        );
        assert!(report.deadlocked);
        assert!(aborted);
        assert!(results[0].is_some() && results[2].is_some());
        assert!(results[1].is_none(), "parked task has no result");
    }

    #[test]
    fn serial_policy_is_deterministic_and_traced() {
        let run = |seed| {
            execute(
                &SchedPolicy::Serial {
                    seed,
                    preemption_bound: usize::MAX,
                },
                8,
                None,
                None,
                true,
                |id| async move { id },
                || {},
            )
            .1
            .trace
        };
        assert_eq!(run(42), run(42));
        // Across many seeds the pick order must not always be rank order.
        assert!((0..32).map(run).any(|t| t != (0..8).collect::<Vec<_>>()));
    }
}
