//! The thread driver: [`drive_ready`], the one loop that polls a future on
//! a rank's own thread, and [`World`], the SPMD launcher that gives each
//! rank one.
//!
//! [`World::run`] spawns one OS thread per rank and hands each a blocking
//! [`Comm`] over the rank's [`TaskComm`] — the same tree-collective engine
//! [`TaskWorld`](crate::TaskWorld) schedules on its executor (mailboxes,
//! binomial trees, reserved tags, stats and hook points all live in
//! [`crate::task`]). Every blocking call is [`drive_ready`] of the matching
//! [`CoComm`](crate::CoComm) future: it polls the future on the caller's
//! thread and parks the thread while the future is `Pending`; the matching
//! send unparks it through the thread's [`Waker`]. [`launch`] is the one
//! `catch_unwind`, teardown and abort path of both entry points; it also
//! labels each rank thread with its world rank (`vfs::guard`), the task
//! identity the thread's file writes and hook events carry.
//!
//! # Correctness analysis
//!
//! Every mailbox operation and collective entry reports to an optional
//! [`CheckHook`] (see [`crate::hook`]). [`World::run`] installs the passive
//! [`Sanitizer`](crate::sanitize::Sanitizer) automatically when
//! `SIMCHECK=1` is set; [`World::run_checked`] installs a caller's hook and
//! hands back every rank's result or panic. A hook observes; which thread
//! runs next is the operating system's choice here, and explored schedules
//! are the task executor's business ([`crate::SchedPolicy::Serial`]). Under
//! a hook a pending call polls instead of sleeping, so the rank can unwind
//! when another rank's finding aborts the world, and a watchdog turns a
//! silent hang into a diagnosed suspected deadlock.

use crate::comm::Comm;
use crate::hook::{self, Aborted, CheckHook, HookEvent};
use crate::task::{TaskComm, WorldRt};
use std::cell::OnceCell;
use std::future::Future;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::pin::pin;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::task::{Context, Poll, Wake, Waker};
use std::thread::Thread;
use std::time::Instant;

/// Wakes a parked rank thread, noting that a message arrived.
struct Unpark {
    thread: Thread,
    /// Set by every wake-up, cleared by the watchdog, whose clock it
    /// restarts; it publishes no other data, hence `Relaxed`.
    woken: AtomicBool,
}

impl Wake for Unpark {
    fn wake(self: Arc<Self>) {
        self.wake_by_ref();
    }

    fn wake_by_ref(self: &Arc<Self>) {
        self.woken.store(true, Ordering::Relaxed);
        self.thread.unpark();
    }
}

/// What [`drive_ready`] needs to park a rank's thread, installed by
/// [`launch`] before the rank's closure runs.
struct RankThread {
    world: Arc<WorldRt>,
    hook: Option<Arc<dyn CheckHook>>,
    unpark: Arc<Unpark>,
}

thread_local! {
    static RANK: OnceCell<RankThread> = const { OnceCell::new() };
}

impl RankThread {
    /// Sleep until something may have changed. Production: until unparked,
    /// by the matching send or by a panicking peer's world abort. Under a
    /// hook: one [`hook::ABORT_POLL`] tick, after which the hook's abort
    /// flag and the deadlock watchdog are consulted; the watchdog's clock
    /// restarts whenever a message arrives.
    fn park(&self, pending_since: &mut Option<Instant>) {
        if self.world.is_aborting() {
            std::panic::panic_any(Aborted("a peer rank panicked".into()));
        }
        let Some(h) = &self.hook else {
            return std::thread::park();
        };
        std::thread::park_timeout(hook::ABORT_POLL);
        if let Some(reason) = h.should_abort() {
            std::panic::panic_any(Aborted(reason));
        }
        if self.unpark.woken.swap(false, Ordering::Relaxed) {
            *pending_since = None;
            return;
        }
        let waited = pending_since.get_or_insert_with(Instant::now).elapsed();
        if waited >= hook::watchdog_timeout() {
            let world_rank = vfs::guard::current_writer().expect("launch labels its rank threads");
            let p = self
                .world
                .parked(world_rank as usize)
                .expect("a pending call parks in a receive");
            let (comm, rank, src, tag) = (&p.ctx, p.comm_rank, p.src, p.tag);
            h.on_event(&HookEvent::Stuck {
                comm,
                rank,
                src,
                tag,
                waited,
            });
            panic!(
                "simcheck: rank {} blocked in recv(src={}, tag={:#x}) past the watchdog",
                p.comm_rank, p.src, p.tag
            );
        }
    }
}

/// Drive `fut` to completion on the calling thread — the one loop in this
/// crate that polls a future outside the task executor.
///
/// On a rank thread of [`World`] it parks the thread while the future is
/// `Pending` (see the module docs for aborts and the watchdog). `thread::park` keeps a wake-up token, so an
/// unpark that lands between the poll and the park is not lost; a stale
/// token only costs one extra poll. Anywhere else the future gets a single
/// poll and must be ready: one that parks was built over a task-runtime
/// communicator and must be driven by the task scheduler instead, so this
/// panics rather than block a worker thread for good.
pub fn drive_ready<T>(fut: impl Future<Output = T>) -> T {
    let mut fut = pin!(fut);
    RANK.with(|rank| match rank.get() {
        Some(rank) => {
            let waker = Waker::from(rank.unpark.clone());
            let mut cx = Context::from_waker(&waker);
            let mut pending_since = None;
            loop {
                if let Poll::Ready(v) = fut.as_mut().poll(&mut cx) {
                    return v;
                }
                rank.park(&mut pending_since);
            }
        }
        None => match fut.as_mut().poll(&mut Context::from_waker(Waker::noop())) {
            Poll::Ready(v) => v,
            Poll::Pending => panic!(
                "drive_ready: future parked; a task-runtime communicator must be driven by \
                 the task scheduler (use the *_co entry points inside a task world)"
            ),
        },
    })
}

/// Run `f` on one OS thread per rank of a fresh tree-engine world, each
/// receiving a [`Comm`] over its own [`TaskComm`]; returns each rank's
/// result or panic, in rank order. Without a hook the first panicking rank
/// aborts the world, so peers blocked on it unwind instead of hanging; with
/// one, releasing them is the hook's business ([`CheckHook::should_abort`]).
fn launch<T, F>(
    ntasks: usize,
    check: Option<Arc<dyn CheckHook>>,
    f: F,
) -> Vec<std::thread::Result<T>>
where
    T: Send,
    F: Fn(&Comm) -> T + Send + Sync,
{
    assert!(ntasks > 0, "world must have at least one task");
    let (world, comms) = TaskComm::world(ntasks, check.clone());
    // Every started rank thread, so a panicking rank can wake the rest.
    // The lock orders registration against the abort sweep: a thread
    // registering after the sweep sees the abort flag before it parks.
    let threads = Mutex::new(Vec::with_capacity(ntasks));
    let registry = || {
        threads
            .lock()
            .expect("rank panics are caught outside the registry lock")
    };
    let (f, check, world, registry) = (&f, &check, &world, &registry);
    std::thread::scope(|scope| {
        let handles: Vec<_> = comms
            .into_iter()
            .enumerate()
            .map(|(rank, co)| {
                scope.spawn(move || {
                    registry().push(std::thread::current());
                    // The thread's one task identity, for its file writes
                    // and hook events alike.
                    vfs::guard::set_task(rank as u64);
                    let thread = std::thread::current();
                    let unpark = Arc::new(Unpark {
                        thread,
                        woken: AtomicBool::new(false),
                    });
                    RANK.with(|r| {
                        r.get_or_init(|| RankThread {
                            world: world.clone(),
                            hook: check.clone(),
                            unpark,
                        });
                    });
                    let comm = Comm::new(Box::new(co));
                    let result = catch_unwind(AssertUnwindSafe(|| f(&comm)));
                    // Drop the communicator (running its teardown leak
                    // check, which may panic with a leak diagnosis) before
                    // declaring the task finished.
                    let teardown = catch_unwind(AssertUnwindSafe(|| drop(comm)));
                    let result = match (result, teardown) {
                        (Ok(v), Ok(())) => Ok(v),
                        (Err(e), _) => Err(e),
                        (Ok(_), Err(e)) => Err(e),
                    };
                    let panicked = result.is_err();
                    match check {
                        Some(h) => h.on_event(&HookEvent::TaskFinish {
                            task: rank,
                            panicked,
                        }),
                        None if panicked => {
                            world.abort();
                            registry().iter().for_each(Thread::unpark);
                        }
                        None => {}
                    }
                    result
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("task thread itself never panics"))
            .collect()
    })
}

/// Launcher for SPMD execution: runs one closure instance per rank on its
/// own OS thread.
pub struct World;

impl World {
    /// Run `f` on `ntasks` threads, each receiving its own [`Comm`] for a
    /// world of size `ntasks`. Returns the per-rank results in rank order.
    /// The first panic in any task aborts the world — peers blocked on the
    /// failed rank unwind instead of hanging — and propagates.
    ///
    /// With `SIMCHECK=1` in the environment, the run is instrumented with
    /// the passive [`Sanitizer`](crate::sanitize::Sanitizer): collective
    /// mismatches, reserved-tag sends, message leaks and suspected
    /// deadlocks fail the run with a diagnosis instead of hanging or
    /// corrupting data.
    pub fn run<T, F>(ntasks: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(&Comm) -> T + Send + Sync,
    {
        if hook::simcheck_env_enabled() {
            let san = Arc::new(crate::sanitize::Sanitizer::new());
            let results = launch(ntasks, Some(san.clone()), f);
            return crate::sanitize::finalize_env_checked(results, &san);
        }
        crate::task::propagate_panics(launch(ntasks, None, f))
    }

    /// Run `f` on `ntasks` threads under a [`CheckHook`], catching each
    /// rank's panic instead of propagating it, so a checker can assemble a
    /// full per-rank report even when ranks fail (the hook is responsible
    /// for releasing ranks blocked on a failed peer — see
    /// [`CheckHook::should_abort`]). Returns each rank's result or its
    /// panic payload, in rank order.
    pub fn run_checked<T, F>(
        ntasks: usize,
        check: Arc<dyn CheckHook>,
        f: F,
    ) -> Vec<std::thread::Result<T>>
    where
        T: Send,
        F: Fn(&Comm) -> T + Send + Sync,
    {
        launch(ntasks, Some(check), f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comm::ReduceOp;

    #[test]
    fn gather_collects_in_rank_order() {
        let out = World::run(6, |c| {
            let data = vec![c.rank() as u8; c.rank() + 1];
            c.gather(&data, 2)
        });
        for (r, res) in out.iter().enumerate() {
            if r == 2 {
                let bufs = res.as_ref().unwrap();
                assert_eq!(bufs.len(), 6);
                for (i, b) in bufs.iter().enumerate() {
                    assert_eq!(b, &vec![i as u8; i + 1]);
                }
            } else {
                assert!(res.is_none());
            }
        }
    }

    #[test]
    fn gather_every_size_and_root() {
        for n in 1..=9usize {
            for root in 0..n {
                let out = World::run(n, |c| c.gather(&[c.rank() as u8, 0xEE], root));
                for (r, res) in out.iter().enumerate() {
                    if r == root {
                        let bufs = res.as_ref().unwrap();
                        let expect: Vec<Vec<u8>> = (0..n).map(|i| vec![i as u8, 0xEE]).collect();
                        assert_eq!(bufs, &expect, "n={n} root={root}");
                    } else {
                        assert!(res.is_none());
                    }
                }
            }
        }
    }

    #[test]
    fn scatter_delivers_distinct_parts() {
        let out = World::run(5, |c| {
            let parts = (c.rank() == 1)
                .then(|| (0..5).map(|i| vec![i as u8 * 3; i + 2]).collect::<Vec<_>>());
            c.scatter(parts, 1)
        });
        for (r, got) in out.iter().enumerate() {
            assert_eq!(got, &vec![r as u8 * 3; r + 2]);
        }
    }

    #[test]
    fn scatter_every_size_and_root() {
        for n in 1..=9usize {
            for root in 0..n {
                let out = World::run(n, |c| {
                    let parts = (c.rank() == root)
                        .then(|| (0..n).map(|i| vec![i as u8; i + 1]).collect::<Vec<_>>());
                    c.scatter(parts, root)
                });
                for (r, got) in out.iter().enumerate() {
                    assert_eq!(got, &vec![r as u8; r + 1], "n={n} root={root}");
                }
            }
        }
    }

    #[test]
    fn bcast_replicates_root_payload() {
        let out = World::run(4, |c| {
            c.bcast((c.rank() == 3).then(|| b"metadata".to_vec()), 3)
        });
        assert!(out.iter().all(|b| b == b"metadata"));
    }

    #[test]
    fn bcast_every_size_and_root() {
        for n in 1..=9usize {
            for root in 0..n {
                let out = World::run(n, |c| {
                    c.bcast((c.rank() == root).then(|| vec![root as u8; 5]), root)
                });
                assert!(
                    out.iter().all(|b| b == &vec![root as u8; 5]),
                    "n={n} root={root}"
                );
            }
        }
    }

    #[test]
    fn allgather_every_size() {
        for n in 1..=9usize {
            let out = World::run(n, |c| {
                let data = vec![c.rank() as u8; c.rank() % 3 + 1];
                c.allgather(&data)
            });
            let expect: Vec<Vec<u8>> = (0..n).map(|i| vec![i as u8; i % 3 + 1]).collect();
            assert!(out.iter().all(|got| got == &expect), "n={n}");
        }
    }

    #[test]
    fn reduce_combines_up_the_tree() {
        for n in [1usize, 2, 5, 8, 13] {
            for root in [0, n - 1] {
                let out = World::run(n, |c| {
                    (
                        c.reduce_u64(c.rank() as u64 + 1, ReduceOp::Sum, root),
                        c.reduce_u64(c.rank() as u64, ReduceOp::Max, root),
                        c.reduce_u64(c.rank() as u64 + 7, ReduceOp::Min, root),
                    )
                });
                for (r, (sum, max, min)) in out.iter().enumerate() {
                    if r == root {
                        assert_eq!(*sum, Some((n * (n + 1) / 2) as u64));
                        assert_eq!(*max, Some(n as u64 - 1));
                        assert_eq!(*min, Some(7));
                    } else {
                        assert_eq!((*sum, *max, *min), (None, None, None));
                    }
                }
            }
        }
    }

    #[test]
    fn repeated_collectives_reuse_tags_safely() {
        let out = World::run(4, |c| {
            let mut acc = 0u64;
            for round in 0..50u64 {
                acc += c.allreduce_u64(round + c.rank() as u64, ReduceOp::Sum);
            }
            acc
        });
        // sum over rounds of (4*round + 0+1+2+3)
        let expect: u64 = (0..50u64).map(|r| 4 * r + 6).sum();
        assert!(out.iter().all(|&v| v == expect), "{out:?} != {expect}");
    }

    #[test]
    fn mixed_collective_sequences_do_not_cross_talk() {
        // Fast ranks may race ahead into the next collective; sequence
        // numbers in the tags must keep the messages apart.
        let out = World::run(7, |c| {
            let mut digest = 0u64;
            for i in 0..10u64 {
                let root = (i as usize) % 7;
                let b = c.bcast((c.rank() == root).then(|| vec![i as u8; 3]), root);
                digest = digest.wrapping_mul(31).wrapping_add(b[0] as u64);
                c.barrier();
                let g = c.allgather_u64(c.rank() as u64 + i);
                digest = digest.wrapping_mul(31).wrapping_add(g.iter().sum::<u64>());
                let _ = c.gather(&[i as u8], 3);
            }
            digest
        });
        assert!(out.windows(2).all(|w| w[0] == w[1]), "{out:?}");
    }

    #[test]
    fn split_groups_by_color_and_orders_by_key() {
        let out = World::run(8, |c| {
            let color = (c.rank() % 2) as u64;
            let key = (c.size() - c.rank()) as u64; // reverse order
            let sub = c.split(color, key);
            (sub.rank(), sub.size(), sub.allgather_u64(c.rank() as u64))
        });
        for (r, (sub_rank, sub_size, members)) in out.iter().enumerate() {
            assert_eq!(*sub_size, 4);
            // Reverse key ordering: highest parent rank gets sub-rank 0.
            let mut same_color: Vec<usize> = (0..8).filter(|x| x % 2 == r % 2).collect();
            same_color.reverse();
            assert_eq!(*sub_rank, same_color.iter().position(|&x| x == r).unwrap());
            let expect: Vec<u64> = same_color.iter().map(|&x| x as u64).collect();
            assert_eq!(members, &expect);
        }
    }

    #[test]
    fn successive_splits_are_independent() {
        let out = World::run(4, |c| {
            let a = c.split(0, c.rank() as u64); // everyone together
            let b = c.split((c.rank() / 2) as u64, 0); // pairs
            (a.size(), b.size())
        });
        assert!(out.iter().all(|&(a, b)| a == 4 && b == 2));
    }

    #[test]
    fn p2p_matching_by_source_and_tag() {
        let out = World::run(3, |c| {
            match c.rank() {
                0 => {
                    c.send(2, 7, b"seven");
                    c.send(2, 5, b"five");
                    Vec::new()
                }
                1 => {
                    c.send(2, 7, b"other-seven");
                    Vec::new()
                }
                _ => {
                    // Receive out of order: tag 5 first although tag 7 may
                    // arrive first, then by source.
                    let five = c.recv(0, 5);
                    let seven0 = c.recv(0, 7);
                    let seven1 = c.recv(1, 7);
                    [five, seven0, seven1].concat()
                }
            }
        });
        assert_eq!(
            out[2],
            b"fiveseven"
                .iter()
                .chain(b"other-seven".iter())
                .copied()
                .collect::<Vec<u8>>()
        );
    }

    #[test]
    fn ring_pass_around() {
        let n = 6;
        let out = World::run(n, |c| {
            let next = (c.rank() + 1) % n;
            let prev = (c.rank() + n - 1) % n;
            let mut token = vec![c.rank() as u8];
            for _ in 0..n {
                c.send(next, 0, &token);
                token = c.recv(prev, 0);
                token.push(c.rank() as u8);
            }
            token
        });
        // After n hops every token is back home having visited all ranks.
        for (r, token) in out.iter().enumerate() {
            assert_eq!(token.len(), n + 1);
            assert_eq!(token[0] as usize, r);
            assert_eq!(*token.last().unwrap() as usize, r);
        }
    }

    #[test]
    fn allreduce_min_max() {
        let out = World::run(5, |c| {
            (
                c.allreduce_u64(c.rank() as u64 * 10, ReduceOp::Max),
                c.allreduce_u64(c.rank() as u64 * 10 + 3, ReduceOp::Min),
                c.allreduce_f64(c.rank() as f64, ReduceOp::Sum),
            )
        });
        assert!(out
            .iter()
            .all(|&(mx, mn, s)| mx == 40 && mn == 3 && s == 10.0));
    }

    #[test]
    fn reduce_f64_ops() {
        let out = World::run(4, |c| {
            (
                c.reduce_f64(c.rank() as f64, ReduceOp::Sum, 0),
                c.reduce_f64(c.rank() as f64, ReduceOp::Max, 0),
                c.reduce_f64(c.rank() as f64, ReduceOp::Min, 0),
            )
        });
        assert_eq!(out[0], (Some(6.0), Some(3.0), Some(0.0)));
        assert_eq!(out[1], (None, None, None));
    }

    #[test]
    fn gather_u64s_roundtrip() {
        let out = World::run(3, |c| {
            let vals: Vec<u64> = (0..=c.rank() as u64).collect();
            c.gather_u64s(&vals, 0)
        });
        let root = out[0].as_ref().unwrap();
        assert_eq!(root[0], vec![0]);
        assert_eq!(root[1], vec![0, 1]);
        assert_eq!(root[2], vec![0, 1, 2]);
    }

    #[test]
    fn stats_count_this_ranks_ops() {
        let out = World::run(4, |c| {
            c.barrier();
            c.bcast((c.rank() == 0).then(|| vec![1u8, 2, 3]), 0);
            let _ = c.gather(&[c.rank() as u8], 1);
            c.allgather_u64(7);
            let _ = c.reduce_u64(1, ReduceOp::Sum, 0);
            let sub = c.split(0, c.rank() as u64);
            sub.barrier();
            let s = c.stats().expect("thread runtime tracks stats");
            let sub_s = sub.stats().expect("sub-communicator tracks stats");
            (
                s.barriers(),
                s.bcasts(),
                s.gathers(),
                s.allgathers(),
                s.reduces(),
                s.splits(),
                sub_s.barriers(),
                s.bytes_sent() > 0,
            )
        });
        for got in out {
            assert_eq!(got, (1, 1, 1, 1, 1, 1, 1, true));
        }
    }

    #[test]
    fn reserved_tag_namespace_is_enforced() {
        // The panic fires inside a rank thread; catch it there so the
        // message survives the join.
        let out = World::run(2, |c| {
            if c.rank() == 0 {
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    c.send(1, 0xC3 << 56, b"nope");
                }))
                .err()
                .and_then(|e| {
                    e.downcast_ref::<&str>()
                        .map(|s| s.to_string())
                        .or_else(|| e.downcast_ref::<String>().cloned())
                })
            } else {
                None
            }
        });
        assert!(
            out[0]
                .as_ref()
                .expect("send panicked")
                .contains("reserved for internal"),
            "{out:?}"
        );
    }

    #[test]
    fn checked_run_reports_teardown_leaks() {
        use crate::sanitize::{FindingKind, Sanitizer};
        let san = Arc::new(Sanitizer::new());
        let results = World::run_checked(2, san.clone(), |c| {
            if c.rank() == 0 {
                c.send(1, 42, b"never received");
            }
            // Synchronize so the message is in rank 1's mailbox before its
            // communicator is dropped.
            c.barrier();
        });
        // Rank 1's teardown panics with the leak diagnosis.
        assert!(results[0].is_ok());
        assert!(results[1].is_err());
        let findings = san.findings();
        assert!(
            findings
                .iter()
                .any(|f| f.kind == FindingKind::MessageLeak && f.message.contains("tag 0x2a")),
            "{findings:?}"
        );
    }

    #[test]
    fn checked_run_flags_root_mismatch() {
        use crate::sanitize::{FindingKind, Sanitizer};
        let san = Arc::new(Sanitizer::new());
        let results = World::run_checked(2, san.clone(), |c| {
            // Divergent roots at the same collective ordinal. Every rank
            // supplies data so only the mismatch can fail the run.
            c.bcast(Some(vec![1]), c.rank());
        });
        assert!(results.iter().any(|r| r.is_err()));
        assert!(
            san.findings()
                .iter()
                .any(|f| f.kind == FindingKind::CollectiveMismatch),
            "{:?}",
            san.findings()
        );
    }

    #[test]
    fn rank_panic_aborts_blocked_peers_and_propagates() {
        // Rank 0 blocks on rank 1, which panics instead of taking part:
        // first in a barrier, then in a receive of a message rank 1 will
        // never send. The world runs on a helper thread so a regression
        // shows up as this wall-clock guard firing, not as a hung test
        // binary.
        for in_recv in [false, true] {
            let (tx, rx) = std::sync::mpsc::channel();
            let runner = std::thread::spawn(move || {
                let err = catch_unwind(|| {
                    World::run(2, |c| {
                        assert!(c.rank() != 1, "rank one exploded");
                        if in_recv {
                            drop(c.recv(1, 7))
                        } else {
                            c.barrier()
                        }
                    })
                })
                .expect_err("rank panic must propagate");
                let text = err
                    .downcast_ref::<&str>()
                    .map(|s| s.to_string())
                    .unwrap_or_default();
                tx.send(text).expect("test thread waits for the verdict");
            });
            let text = rx
                .recv_timeout(std::time::Duration::from_secs(60))
                .unwrap_or_else(|_| panic!("World::run hung (rank 0 in recv: {in_recv})"));
            runner.join().expect("runner thread");
            assert!(
                text.contains("rank one exploded"),
                "first real panic re-raised: {text:?}"
            );
        }
    }

    /// Ping-pongs between neighbour pairs interleaved with every kind of
    /// collective: each round parks and unparks every rank thread several
    /// times, so a lost wake-up in the thread driver hangs this test.
    fn wakeup_stress(c: &Comm) -> u64 {
        const ROUNDS: u64 = 100;
        let (n, r) = (c.size(), c.rank());
        let peer = r ^ 1;
        let mut digest = 0u64;
        for i in 0..ROUNDS {
            if r % 2 == 0 {
                c.send(peer, 1, &(i + r as u64).to_le_bytes());
                let back = c.recv(peer, 2);
                digest = digest.wrapping_mul(31).wrapping_add(back[0] as u64);
            } else {
                let ping = c.recv(peer, 1);
                c.send(peer, 2, &ping);
            }
            let root = i as usize % n;
            digest = digest.wrapping_mul(31).wrapping_add(match i % 4 {
                0 => {
                    c.barrier();
                    0
                }
                1 => c.allreduce_u64(i + r as u64, ReduceOp::Sum),
                2 => c.bcast((r == root).then(|| vec![i as u8; 9]), root)[0] as u64,
                _ => c.gather(&[r as u8], root).map_or(1, |g| g.len() as u64),
            });
        }
        digest
    }

    #[test]
    fn thread_driver_loses_no_wakeups_under_stress() {
        // 64 ranks × 100 rounds: 3200 ping-pongs between 100 collectives.
        let plain = World::run(64, wakeup_stress);
        // The same program under the passive sanitizer (the SIMCHECK=1
        // configuration), whose pending calls poll instead of sleeping.
        let san = Arc::new(crate::sanitize::Sanitizer::new());
        let checked: Vec<u64> = World::run_checked(64, san.clone(), wakeup_stress)
            .into_iter()
            .map(|r| r.expect("no rank panics"))
            .collect();
        assert_eq!(checked, plain);
        assert!(san.findings().is_empty(), "{:?}", san.findings());
    }

    #[test]
    fn split_names_are_structural() {
        let out = World::run(4, |c| {
            let sub = c.split((c.rank() % 2) as u64, 0);
            let sub2 = sub.split(0, 0);
            (sub.size(), sub2.size())
        });
        assert!(out.iter().all(|&(a, b)| a == 2 && b == 2));
    }
}
