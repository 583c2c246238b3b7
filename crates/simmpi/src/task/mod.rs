//! The tree-collective engine and its one driver: ranks as resumable
//! state machines on a work-stealing pool.
//!
//! [`CoComm`] (see [`comm`]) is the one communicator and its tree
//! collectives. [`TaskWorld`] drives it: instead of one OS thread per
//! rank, each rank is an `async` state machine that parks on mailbox
//! receives and is scheduled — with its peers — on a bounded worker pool
//! ([`SchedPolicy::host`] sizes it to the machine). That is what makes
//! *real* 16Ki–64Ki-rank runs of the `sion` collective open/write/close
//! path possible: rank state is a few hundred bytes of suspended future,
//! not an 8 MiB thread stack, and a blocked rank costs nothing but its
//! entry in the pending table.
//!
//! `simcheck` plugs in through [`SchedPolicy::Serial`] — its serialized
//! scheduler is literally one policy of this executor — and through
//! [`CheckHook`]s such as the [`Sanitizer`](crate::Sanitizer). Deadlock
//! detection is *exact*: the executor declares a deadlock the moment no
//! task is runnable while live tasks remain (see [`exec`]), and the report
//! names every parked operation. The same verdict releases the peers of a
//! rank that panicked: they are parked on it, so the world quiesces and
//! they end as [`Aborted`].

mod comm;
mod exec;

pub use comm::CoComm;
pub use exec::{SchedPolicy, ScheduleDriver};

use crate::hook::{self, Aborted, CheckHook};
use crate::sanitize::Sanitizer;
use std::any::Any;
use std::fmt;
use std::future::Future;
use std::sync::Arc;

/// Counters of one task-world run: scheduler behaviour plus the per-rank
/// memory high-water marks the runtime guarantees stay bounded (a rank's
/// mailbox holds tree-edge messages, ~log₂ P of them, never O(P)).
#[derive(Debug, Clone, Default)]
pub struct SchedStats {
    /// Worker threads used.
    pub workers: usize,
    /// Rank tasks executed.
    pub tasks: usize,
    /// Future polls, including re-polls after wake-ups.
    pub polls: u64,
    /// Wake-ups enqueued (message deliveries, rendezvous releases, initial
    /// spawns).
    pub wakes: u64,
    /// Tasks taken from another worker's deque.
    pub steals: u64,
    /// Polls that parked (`Pending`).
    pub parks: u64,
    /// High-water mark of any single rank's mailbox depth, in messages.
    pub peak_mailbox_msgs: u64,
    /// High-water mark of any single rank's queued mailbox payload bytes
    /// (owned payloads only — an `Arc`-shared frame clone pins no
    /// additional queue memory).
    pub peak_mailbox_bytes: u64,
    /// Always 0: messages are plain `Vec`s and no frame pool counts them.
    /// Kept only because `sionbench` reads it; ROADMAP item 1's
    /// metric-hygiene slice drops it.
    pub frame_allocs: u64,
    /// Always 0, like [`frame_allocs`](Self::frame_allocs); ROADMAP item
    /// 1's metric-hygiene slice drops it.
    pub frame_reuses: u64,
    /// Logical bytes broadcast as `Arc`-shared frames, counted once per
    /// frame — not once per tree edge the clone fans out to.
    pub shared_frame_bytes: u64,
}

/// One operation parked at the moment a deadlock was declared.
#[derive(Debug, Clone)]
pub struct ParkedOp {
    /// Rank in the world communicator.
    pub world_rank: usize,
    /// Structural name of the communicator the operation is on.
    pub comm: String,
    /// The blocked operation (decoded tag included), e.g.
    /// `recv(src=1, tag=0x9) as rank 0`.
    pub op: String,
    /// Human-readable description: communicator, rank within it, and the
    /// receive or rendezvous it is stuck in.
    pub description: String,
}

/// Exact deadlock diagnosis: every task still parked when the executor
/// quiesced with live tasks remaining.
#[derive(Debug, Clone)]
pub struct DeadlockReport {
    /// Parked operations in world-rank order.
    pub parked: Vec<ParkedOp>,
}

impl fmt::Display for DeadlockReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "deadlock: {} task(s) parked with no runnable peer and no message in flight:",
            self.parked.len()
        )?;
        for op in &self.parked {
            writeln!(f, "  [task {}] {}", op.world_rank, op.description)?;
        }
        Ok(())
    }
}

/// Full outcome of a checked task-world run.
pub struct TaskRun<T> {
    /// Per-rank results in rank order: the closure's value, its panic
    /// payload, or an [`Aborted`] unwind for ranks still parked when the
    /// world deadlocked.
    pub results: Vec<std::thread::Result<T>>,
    /// Present iff the run quiesced with parked tasks.
    pub deadlock: Option<DeadlockReport>,
    /// Scheduler counters.
    pub stats: SchedStats,
    /// Poll order, recorded under [`SchedPolicy::Serial`] (empty
    /// otherwise) — the schedule a failing seed can be replayed from.
    pub trace: Vec<usize>,
}

/// Shared launch path: build a fresh world, hand each rank's communicator
/// to `f`, execute the futures, and assemble results, deadlock report and
/// stats.
fn run_engine<T, F, Fut>(
    policy: &SchedPolicy,
    ntasks: usize,
    hook: Option<Arc<dyn CheckHook>>,
    driver: Option<Arc<dyn ScheduleDriver>>,
    trace: bool,
    f: F,
) -> TaskRun<T>
where
    T: Send,
    F: Fn(CoComm) -> Fut,
    Fut: Future<Output = T> + Send,
{
    let (world, comms) = CoComm::world(ntasks, hook.clone());
    let mut pool: Vec<Option<CoComm>> = comms.into_iter().map(Some).collect();
    let (raw, report) = exec::execute(
        policy,
        ntasks,
        hook,
        driver,
        trace,
        |rank| f(pool[rank].take().expect("one future per rank")),
        || world.abort(),
    );
    let deadlock = report.deadlocked.then(|| DeadlockReport {
        parked: world
            .snapshot_pending()
            .into_iter()
            .map(|(world_rank, p)| ParkedOp {
                world_rank,
                comm: p.ctx.name.to_string(),
                op: p.op_text(),
                description: p.to_string(),
            })
            .collect(),
    });
    let reason = deadlock.as_ref().map(|d| format!("simmpi task world {d}"));
    let results = raw
        .into_iter()
        .map(|r| match r {
            Some(r) => r,
            None => Err(Box::new(Aborted(
                reason
                    .clone()
                    .unwrap_or_else(|| "task world torn down early".into()),
            )) as Box<dyn Any + Send>),
        })
        .collect();
    let (peak_mailbox_msgs, peak_mailbox_bytes) = world.mbox_peaks();
    TaskRun {
        results,
        deadlock,
        stats: SchedStats {
            workers: report.workers,
            tasks: ntasks,
            polls: report.polls,
            wakes: report.wakes,
            steals: report.steals,
            parks: report.parks,
            peak_mailbox_msgs,
            peak_mailbox_bytes,
            frame_allocs: 0,
            frame_reuses: 0,
            shared_frame_bytes: world.shared_frame_bytes(),
        },
        trace: report.trace,
    }
}

/// Collapse the per-rank results of a plain (hook-free) run to the `run`
/// contract: propagate the first real panic — the
/// [`Aborted`] unwinds of peers released from a torn-down world are
/// secondary — or return every rank's value.
pub(crate) fn propagate_panics<T>(results: Vec<std::thread::Result<T>>) -> Vec<T> {
    let mut out = Vec::with_capacity(results.len());
    let mut primary: Option<Box<dyn Any + Send>> = None;
    for r in results {
        match r {
            Ok(v) => out.push(v),
            Err(e) => {
                if primary.is_none() && e.downcast_ref::<Aborted>().is_none() {
                    primary = Some(e);
                }
            }
        }
    }
    if let Some(p) = primary {
        std::panic::resume_unwind(p);
    }
    out
}

/// Launcher for SPMD execution as rank tasks over [`CoComm`].
pub struct TaskWorld;

impl TaskWorld {
    /// Run `f` as `ntasks` rank tasks on the host-sized work-stealing pool.
    /// Returns per-rank results in rank order; panics in any task
    /// propagate, and a communication deadlock panics with an exact
    /// diagnosis instead of hanging.
    ///
    /// With `SIMCHECK=1` in the environment the run is instrumented with
    /// the passive [`Sanitizer`](crate::Sanitizer): collective mismatches,
    /// reserved-tag sends, message leaks and deadlocks fail the run with a
    /// diagnosis instead of hanging or corrupting data.
    pub fn run<T, F, Fut>(ntasks: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(CoComm) -> Fut,
        Fut: Future<Output = T> + Send,
    {
        Self::run_with(SchedPolicy::host(), ntasks, f).0
    }

    /// [`TaskWorld::run`] under an explicit policy, also returning the
    /// scheduler counters.
    pub fn run_with<T, F, Fut>(policy: SchedPolicy, ntasks: usize, f: F) -> (Vec<T>, SchedStats)
    where
        T: Send,
        F: Fn(CoComm) -> Fut,
        Fut: Future<Output = T> + Send,
    {
        if hook::simcheck_env_enabled() {
            let san = Arc::new(Sanitizer::new());
            let run = Self::run_checked(policy, ntasks, san.clone(), f);
            if let Some(d) = &run.deadlock {
                san.record_deadlock(format!("simmpi task world {d}"));
            }
            let TaskRun { results, stats, .. } = run;
            return (crate::sanitize::finalize_env_checked(results, &san), stats);
        }
        let TaskRun {
            results,
            deadlock,
            stats,
            ..
        } = run_engine(&policy, ntasks, None, None, false, f);
        let out = propagate_panics(results);
        if let Some(d) = deadlock {
            panic!("simmpi task world {d}");
        }
        (out, stats)
    }

    /// Run `f` under a [`CheckHook`], catching each rank's panic, with the
    /// full scheduler outcome (deadlock report, stats, serial trace), so a
    /// checker can assemble a per-rank report even when ranks fail — the
    /// entry point `simcheck` drives with seeded [`SchedPolicy::Serial`]
    /// schedules.
    pub fn run_checked<T, F, Fut>(
        policy: SchedPolicy,
        ntasks: usize,
        check: Arc<dyn CheckHook>,
        f: F,
    ) -> TaskRun<T>
    where
        T: Send,
        F: Fn(CoComm) -> Fut,
        Fut: Future<Output = T> + Send,
    {
        let trace = matches!(policy, SchedPolicy::Serial { .. });
        run_engine(&policy, ntasks, Some(check), None, trace, f)
    }

    /// [`TaskWorld::run_checked`] with every serial scheduling decision
    /// owned by `driver` instead of the seeded stream — the entry point
    /// `simcheck`'s DPOR explorer forces decision prefixes through. The run
    /// is always [`SchedPolicy::Serial`], with no seed or preemption bound:
    /// `driver` picks the task at every poll.
    pub fn run_driven<T, F, Fut>(
        ntasks: usize,
        check: Arc<dyn CheckHook>,
        driver: Arc<dyn ScheduleDriver>,
        f: F,
    ) -> TaskRun<T>
    where
        T: Send,
        F: Fn(CoComm) -> Fut,
        Fut: Future<Output = T> + Send,
    {
        let policy = SchedPolicy::Serial {
            seed: 0,
            preemption_bound: usize::MAX,
        };
        run_engine(&policy, ntasks, Some(check), Some(driver), true, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comm::ReduceOp;
    use crate::sanitize::{FindingKind, Sanitizer};
    use std::panic::{catch_unwind, AssertUnwindSafe};

    const WS4: SchedPolicy = SchedPolicy::WorkSteal { workers: 4 };

    fn panic_text(e: Box<dyn Any + Send>) -> String {
        e.downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| e.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "<non-string payload>".into())
    }

    type Mixed = (
        Vec<u64>,
        Vec<u8>,
        Option<Vec<Vec<u8>>>,
        Vec<u8>,
        Option<u64>,
        usize,
        usize,
        Vec<u64>,
        Vec<u8>,
    );

    /// One protocol-shaped script touching every kind of call; the tests
    /// assert its results under every schedule against [`mixed_expected`].
    async fn mixed_script(c: &CoComm) -> Mixed {
        let n = c.size();
        let r = c.rank();
        let all = c.allgather_u64(r as u64 + 1).await;
        let b = c
            .bcast((r == 2 % n).then(|| vec![9, 9, r as u8]), 2 % n)
            .await;
        let g = c.gather(&[r as u8; 3], 1 % n).await;
        let parts = (r == 0).then(|| (0..n).map(|i| vec![i as u8; i + 1]).collect());
        let s = c.scatter(parts, 0).await;
        let red = c.reduce_u64(r as u64 * 3, ReduceOp::Max, n - 1).await;
        c.send((r + 1) % n, 17, &[r as u8, 0xAB]);
        let token = c.recv((r + n - 1) % n, 17).await;
        let sub = c.split((r % 2) as u64, (n - r) as u64).await;
        let sub_all = sub.allgather_u64(r as u64).await;
        c.barrier().await;
        (all, b, g, s, red, sub.rank(), sub.size(), sub_all, token)
    }

    #[test]
    fn task_world_runs_all_ranks() {
        let out = TaskWorld::run(8, |c| async move { (c.rank(), c.size()) });
        assert_eq!(out, (0..8).map(|r| (r, 8)).collect::<Vec<_>>());
    }

    /// What [`mixed_script`] returns on rank `r` of `n`, spelled out.
    fn mixed_expected(n: usize, r: usize) -> Mixed {
        // The split keys by `n - r`: each colour's members, highest first.
        let members: Vec<u64> = (0..n as u64)
            .rev()
            .filter(|&x| x % 2 == r as u64 % 2)
            .collect();
        let sub_rank = members.iter().position(|&x| x == r as u64).unwrap();
        (
            (1..=n as u64).collect(),
            vec![9, 9, (2 % n) as u8],
            (r == 1 % n).then(|| (0..n).map(|i| vec![i as u8; 3]).collect()),
            vec![r as u8; r + 1],
            (r == n - 1).then_some(3 * (n as u64 - 1)),
            sub_rank,
            members.len(),
            members,
            vec![((r + n - 1) % n) as u8, 0xAB],
        )
    }

    #[test]
    fn mixed_script_meets_its_expectation() {
        for n in [1, 2, 3, 5, 8] {
            let task = TaskWorld::run(n, |c| async move { mixed_script(&c).await });
            let want: Vec<Mixed> = (0..n).map(|r| mixed_expected(n, r)).collect();
            assert_eq!(task, want, "n={n}");
        }
    }

    #[test]
    fn serial_policy_matches_work_stealing() {
        let ws = TaskWorld::run_with(WS4, 6, |c| async move { mixed_script(&c).await }).0;
        for seed in 0..8 {
            let ser = TaskWorld::run_with(
                SchedPolicy::Serial {
                    seed,
                    preemption_bound: usize::MAX,
                },
                6,
                |c| async move { mixed_script(&c).await },
            )
            .0;
            assert_eq!(ser, ws, "seed {seed}");
        }
    }

    #[test]
    fn split_groups_by_color_and_orders_by_key() {
        let out = TaskWorld::run(8, |c| async move {
            let color = (c.rank() % 2) as u64;
            let key = (c.size() - c.rank()) as u64; // reverse order
            let sub = c.split(color, key).await;
            (
                sub.rank(),
                sub.size(),
                sub.allgather_u64(c.rank() as u64).await,
            )
        });
        for (r, (sub_rank, sub_size, members)) in out.iter().enumerate() {
            assert_eq!(*sub_size, 4);
            let mut same_color: Vec<usize> = (0..8).filter(|x| x % 2 == r % 2).collect();
            same_color.reverse();
            assert_eq!(*sub_rank, same_color.iter().position(|&x| x == r).unwrap());
            let expect: Vec<u64> = same_color.iter().map(|&x| x as u64).collect();
            assert_eq!(members, &expect);
        }
    }

    #[test]
    fn split_generations_leave_no_entry_behind() {
        // Ranks race through 24 split generations — exchanged and local,
        // one to five groups — without synchronizing in between, so fast
        // ranks create generation g+1 while slow ones still attach to g.
        // The last member of every group retires its entry.
        let out = TaskWorld::run_with(WS4, 16, |c| async move {
            let (n, r) = (c.size(), c.rank());
            let mut sizes = Vec::new();
            for gen in 0..24usize {
                let ncolors = gen % 5 + 1;
                let color = r % ncolors;
                let size = n / ncolors + usize::from(color < n % ncolors);
                let sub = if gen % 2 == 0 {
                    c.split_local(color as u64, r / ncolors, size).await
                } else {
                    c.split(color as u64, r as u64).await
                };
                sizes.push((sub.rank(), sub.size()));
            }
            c.barrier().await;
            (sizes, c.splits_in_flight())
        })
        .0;
        for (r, (sizes, in_flight)) in out.iter().enumerate() {
            assert_eq!(
                *in_flight, 0,
                "rank {r} still sees groups under construction"
            );
            for (gen, &(rank, size)) in sizes.iter().enumerate() {
                let ncolors = gen % 5 + 1;
                assert_eq!(rank, r / ncolors, "generation {gen}");
                assert_eq!(size, 16 / ncolors + usize::from(r % ncolors < 16 % ncolors));
            }
        }
    }

    /// The panic of a world whose rank `r` claims place `claims[r]` =
    /// `(new_rank, new_size)` in one `split_local` of color 0.
    fn split_local_panic(claims: &'static [(usize, usize)]) -> String {
        let err = catch_unwind(AssertUnwindSafe(|| {
            TaskWorld::run(claims.len(), |c| async move {
                let (new_rank, new_size) = claims[c.rank()];
                c.split_local(0, new_rank, new_size).await.size()
            })
        }))
        .expect_err("inconsistent split_local must panic");
        panic_text(err)
    }

    #[test]
    fn split_local_names_both_ranks_of_a_bad_attach() {
        // Ranks 1 and 2 both claim rank 1 of the three-rank group.
        let text = split_local_panic(&[(0, 3), (1, 3), (1, 3)]);
        assert!(
            text.contains("parent ranks 1 and 2 both claim rank 1")
                || text.contains("parent ranks 2 and 1 both claim rank 1"),
            "{text}"
        );
        assert!(
            text.contains("split #1 of comm \"world\", color 0"),
            "{text}"
        );
        // Rank 1 disagrees with rank 0 about the group size.
        let text = split_local_panic(&[(0, 2), (1, 3)]);
        assert!(
            text.contains("parent rank 1 declares group size 3, parent rank 0 created")
                || text.contains("parent rank 0 declares group size 2, parent rank 1 created"),
            "{text}"
        );
        // A rank beyond the declared size.
        let text = split_local_panic(&[(0, 2), (2, 2)]);
        assert!(
            text.contains("parent rank 1 claims rank 2 of a group of 2"),
            "{text}"
        );
    }

    #[test]
    fn p2p_matching_by_source_and_tag() {
        let out = TaskWorld::run(3, |c| async move {
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
                    let five = c.recv(0, 5).await;
                    let seven0 = c.recv(0, 7).await;
                    let seven1 = c.recv(1, 7).await;
                    [five, seven0, seven1].concat()
                }
            }
        });
        assert_eq!(out[2], b"fivesevenother-seven");
    }

    #[test]
    fn send_vec_delivers_the_allocation_it_was_given() {
        // Rank 0 reports where its two messages live, rank 1 where the ones
        // it received do: one through `recv`, one through `try_recv` after a
        // barrier has made it deliverable.
        let out = TaskWorld::run(2, |c| async move {
            if c.rank() == 0 {
                let (a, b) = (vec![1u8; 4096], vec![2u8; 100]);
                let sent = vec![a.as_ptr() as usize, b.as_ptr() as usize];
                c.send_vec(1, 3, a);
                c.send_vec(1, 4, b);
                c.barrier().await;
                sent
            } else {
                let a = c.recv(0, 3).await;
                c.barrier().await;
                let b = c.try_recv(0, 4).expect("delivered before the barrier");
                assert_eq!((&a[..], &b[..]), (&[1u8; 4096][..], &[2u8; 100][..]));
                vec![a.as_ptr() as usize, b.as_ptr() as usize]
            }
        });
        assert_eq!(out[0], out[1]);
    }

    #[test]
    fn send_of_borrowed_bytes_delivers_equal_bytes() {
        let out = TaskWorld::run(3, |c| async move {
            let (r, n) = (c.rank(), c.size());
            c.send((r + 1) % n, 9, &[r as u8; 5]);
            c.recv((r + n - 1) % n, 9).await
        });
        let want: Vec<Vec<u8>> = (0..3).map(|r| vec![((r + 2) % 3) as u8; 5]).collect();
        assert_eq!(out, want);
    }

    #[test]
    fn ring_pass_around() {
        let n = 6;
        let out = TaskWorld::run_with(WS4, n, |c| async move {
            let next = (c.rank() + 1) % n;
            let prev = (c.rank() + n - 1) % n;
            let mut token = vec![c.rank() as u8];
            for _ in 0..n {
                c.send(next, 0, &token);
                token = c.recv(prev, 0).await;
                token.push(c.rank() as u8);
            }
            token
        })
        .0;
        // After n hops every token is back home having visited all ranks.
        for (r, token) in out.iter().enumerate() {
            assert_eq!(token.len(), n + 1);
            assert_eq!(token[0] as usize, r);
            assert_eq!(*token.last().unwrap() as usize, r);
        }
    }

    #[test]
    fn repeated_collectives_reuse_tags_safely() {
        let out = TaskWorld::run_with(WS4, 4, |c| async move {
            let mut acc = 0u64;
            for round in 0..50u64 {
                acc += c
                    .allreduce_u64(round + c.rank() as u64, ReduceOp::Sum)
                    .await;
            }
            acc
        })
        .0;
        // sum over rounds of (4*round + 0+1+2+3)
        let expect: u64 = (0..50u64).map(|r| 4 * r + 6).sum();
        assert!(out.iter().all(|&v| v == expect), "{out:?} != {expect}");
    }

    #[test]
    fn mixed_collective_sequences_do_not_cross_talk() {
        // Fast ranks may race ahead into the next collective; sequence
        // numbers in the tags must keep the messages apart.
        let out = TaskWorld::run_with(WS4, 7, |c| async move {
            let mut digest = 0u64;
            for i in 0..10u64 {
                let root = (i as usize) % 7;
                let b = c
                    .bcast((c.rank() == root).then(|| vec![i as u8; 3]), root)
                    .await;
                digest = digest.wrapping_mul(31).wrapping_add(b[0] as u64);
                c.barrier().await;
                let g = c.allgather_u64(c.rank() as u64 + i).await;
                digest = digest.wrapping_mul(31).wrapping_add(g.iter().sum::<u64>());
                let _ = c.gather(&[i as u8], 3).await;
            }
            digest
        })
        .0;
        assert!(out.windows(2).all(|w| w[0] == w[1]), "{out:?}");
    }

    #[test]
    fn float_and_all_reductions() {
        let out = TaskWorld::run(5, |c| async move {
            let r = c.rank() as f64;
            (
                c.allreduce_u64(c.rank() as u64 * 10, ReduceOp::Max).await,
                c.allreduce_u64(c.rank() as u64 * 10 + 3, ReduceOp::Min)
                    .await,
                c.allreduce_f64(r, ReduceOp::Sum).await,
                c.reduce_f64(r, ReduceOp::Sum, 0).await,
                c.reduce_f64(r, ReduceOp::Max, 0).await,
                c.reduce_f64(r, ReduceOp::Min, 0).await,
            )
        });
        assert_eq!(out[0], (40, 3, 10.0, Some(10.0), Some(4.0), Some(0.0)));
        for got in &out[1..] {
            assert_eq!(*got, (40, 3, 10.0, None, None, None));
        }
    }

    #[test]
    fn nested_splits_name_their_communicators_structurally() {
        let out = TaskWorld::run(4, |c| async move {
            let sub = c.split((c.rank() % 2) as u64, 0).await;
            let sub2 = sub.split(0, 0).await;
            (sub.size(), sub2.size(), sub.barrier().await)
        });
        assert!(out.iter().all(|&(a, b, ())| a == 2 && b == 2));
        // The names the engine gives them, as a deadlock report shows them.
        let run = TaskWorld::run_checked(WS4, 4, Arc::new(Sanitizer::new()), |c| async move {
            let sub = c.split((c.rank() % 2) as u64, 0).await;
            let sub2 = sub.split(0, 0).await;
            if c.rank() == 3 {
                sub2.barrier().await; // its partner never joins
            }
        });
        let parked = run.deadlock.expect("rank 3 waits alone").parked;
        assert_eq!(parked.len(), 1);
        assert_eq!(parked[0].comm, "world/s1.c1/s1.c0");
    }

    #[test]
    fn stats_count_this_ranks_ops() {
        let out = TaskWorld::run(4, |c| async move {
            c.barrier().await;
            c.bcast((c.rank() == 0).then(|| vec![1u8, 2, 3]), 0).await;
            let _ = c.gather(&[c.rank() as u8], 1).await;
            c.allgather_u64(7).await;
            let _ = c.reduce_u64(1, ReduceOp::Sum, 0).await;
            let sub = c.split(0, c.rank() as u64).await;
            sub.barrier().await;
            let (s, sub_s) = (c.stats(), sub.stats());
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
        let out = TaskWorld::run(2, |c| async move {
            if c.rank() == 0 {
                catch_unwind(AssertUnwindSafe(|| c.send(1, 0xC3 << 56, b"nope")))
                    .err()
                    .map(panic_text)
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
    fn rank_panic_releases_peers_parked_on_it_and_propagates() {
        // Rank 0 waits on rank 1, which panics instead of taking part:
        // first in a barrier, then in a receive of a message rank 1 will
        // never send. The world quiesces and the first real panic wins.
        for in_recv in [false, true] {
            let err = catch_unwind(AssertUnwindSafe(|| {
                TaskWorld::run_with(WS4, 2, |c| async move {
                    assert!(c.rank() != 1, "rank one exploded");
                    if in_recv {
                        drop(c.recv(1, 7).await)
                    } else {
                        c.barrier().await
                    }
                })
            }))
            .expect_err("rank panic must propagate");
            let text = panic_text(err);
            assert!(
                text.contains("rank one exploded"),
                "in_recv {in_recv}: {text:?}"
            );
        }
    }

    #[test]
    fn checked_run_flags_root_mismatch() {
        let san = Arc::new(Sanitizer::new());
        let run = TaskWorld::run_checked(WS4, 2, san.clone(), |c| async move {
            // Divergent roots at the same collective ordinal. Every rank
            // supplies data so only the mismatch can fail the run.
            c.bcast(Some(vec![1]), c.rank()).await;
        });
        assert!(run.results.iter().any(|r| r.is_err()));
        assert!(
            san.findings()
                .iter()
                .any(|f| f.kind == FindingKind::CollectiveMismatch),
            "{:?}",
            san.findings()
        );
    }

    /// Ping-pongs between neighbour pairs interleaved with every kind of
    /// collective: each round parks and wakes every rank several times, so
    /// a lost wake-up hangs this test (as a deadlock report).
    async fn wakeup_stress(c: CoComm) -> u64 {
        const ROUNDS: u64 = 100;
        let (n, r) = (c.size(), c.rank());
        let peer = r ^ 1;
        let mut digest = 0u64;
        for i in 0..ROUNDS {
            if r % 2 == 0 {
                c.send(peer, 1, &(i + r as u64).to_le_bytes());
                let back = c.recv(peer, 2).await;
                digest = digest.wrapping_mul(31).wrapping_add(back[0] as u64);
            } else {
                let ping = c.recv(peer, 1).await;
                c.send(peer, 2, &ping);
            }
            let root = i as usize % n;
            digest = digest.wrapping_mul(31).wrapping_add(match i % 4 {
                0 => {
                    c.barrier().await;
                    0
                }
                1 => c.allreduce_u64(i + r as u64, ReduceOp::Sum).await,
                2 => c.bcast((r == root).then(|| vec![i as u8; 9]), root).await[0] as u64,
                _ => c
                    .gather(&[r as u8], root)
                    .await
                    .map_or(1, |g| g.len() as u64),
            });
        }
        digest
    }

    #[test]
    fn no_wakeup_is_lost_under_stress() {
        // 64 ranks × 100 rounds: 3200 ping-pongs between 100 collectives.
        let plain = TaskWorld::run_with(WS4, 64, wakeup_stress).0;
        // The same program under the passive sanitizer (the SIMCHECK=1
        // configuration).
        let san = Arc::new(Sanitizer::new());
        let checked: Vec<u64> = TaskWorld::run_checked(WS4, 64, san.clone(), wakeup_stress)
            .results
            .into_iter()
            .map(|r| r.expect("no rank panics"))
            .collect();
        assert_eq!(checked, plain);
        assert!(san.findings().is_empty(), "{:?}", san.findings());
    }

    #[test]
    fn panics_propagate_from_rank_tasks() {
        let err = catch_unwind(AssertUnwindSafe(|| {
            TaskWorld::run(4, |c| async move {
                c.barrier().await;
                assert!(c.rank() != 2, "task two exploded");
            })
        }))
        .expect_err("rank panic must propagate");
        assert!(panic_text(err).contains("task two exploded"));
    }

    #[test]
    fn deadlock_is_reported_exactly() {
        let san = Arc::new(Sanitizer::new());
        let run = TaskWorld::run_checked(WS4, 3, san, |c| async move {
            if c.rank() == 0 {
                // Nobody ever sends this; the other ranks finish normally.
                c.recv(1, 9).await;
            }
            c.rank()
        });
        let report = run.deadlock.expect("quiesced with a parked task");
        assert_eq!(report.parked.len(), 1);
        assert_eq!(report.parked[0].world_rank, 0);
        assert!(
            report.parked[0].description.contains("recv(src=1"),
            "{}",
            report.parked[0].description
        );
        let aborted = run.results[0]
            .as_ref()
            .expect_err("parked rank did not finish");
        assert!(aborted.downcast_ref::<Aborted>().is_some());
        assert!(run.results[1].is_ok() && run.results[2].is_ok());
    }

    #[test]
    fn a_dropped_receive_leaves_the_deadlock_report() {
        // Rank 0 parks in a receive once, drops it and finishes; rank 2
        // parks for good. Only rank 2 is stuck.
        let run = TaskWorld::run_checked(WS4, 3, Arc::new(Sanitizer::new()), |c| async move {
            match c.rank() {
                0 => {
                    let mut recv = std::pin::pin!(c.recv(1, 5));
                    std::future::poll_fn(|cx| {
                        assert!(recv.as_mut().poll(cx).is_pending(), "nobody sent");
                        std::task::Poll::Ready(())
                    })
                    .await;
                }
                2 => drop(c.recv(1, 9).await),
                _ => {}
            }
        });
        let report = run.deadlock.expect("rank 2 parks for good");
        let ranks: Vec<usize> = report.parked.iter().map(|p| p.world_rank).collect();
        assert_eq!(ranks, vec![2], "{report}");
        assert!(run.results[0].is_ok() && run.results[1].is_ok());
    }

    #[test]
    fn plain_run_panics_with_deadlock_diagnosis() {
        let err = catch_unwind(AssertUnwindSafe(|| {
            TaskWorld::run(2, |c| async move {
                if c.rank() == 0 {
                    c.barrier().await; // rank 1 never joins
                }
            })
        }))
        .expect_err("deadlocked world must not return");
        let text = panic_text(err);
        assert!(text.contains("deadlock: 1 task(s) parked"), "{text}");
    }

    #[test]
    fn serial_schedules_are_reproducible_and_traced() {
        let run = |seed| {
            TaskWorld::run_checked(
                SchedPolicy::Serial {
                    seed,
                    preemption_bound: usize::MAX,
                },
                4,
                Arc::new(Sanitizer::new()),
                |c| async move { c.allgather_u64(c.rank() as u64).await },
            )
        };
        let (a, b) = (run(11), run(11));
        assert!(!a.trace.is_empty());
        assert_eq!(a.trace, b.trace);
        for r in a.results {
            assert_eq!(r.expect("no panic"), vec![0, 1, 2, 3]);
        }
    }

    #[test]
    fn checked_run_reports_teardown_leaks() {
        let san = Arc::new(Sanitizer::new());
        let run = TaskWorld::run_checked(WS4, 2, san.clone(), |c| async move {
            if c.rank() == 0 {
                c.send(1, 42, b"never received");
            }
            // Synchronize so the message is in rank 1's mailbox before its
            // communicator is dropped.
            c.barrier().await;
        });
        assert!(run.deadlock.is_none());
        assert!(run.results[0].is_ok());
        assert!(
            run.results[1].is_err(),
            "rank 1 teardown panics with the leak"
        );
        let findings = san.findings();
        assert!(
            findings
                .iter()
                .any(|f| f.kind == FindingKind::MessageLeak && f.message.contains("tag 0x2a")),
            "{findings:?}"
        );
    }

    #[test]
    fn sched_stats_expose_runtime_footprint() {
        let (out, stats) = TaskWorld::run_with(WS4, 16, |c| async move {
            let all = c.allgather_u64(c.rank() as u64).await;
            c.barrier().await;
            all.iter().sum::<u64>()
        });
        assert_eq!(out, vec![120; 16]);
        assert_eq!(stats.workers, 4);
        assert_eq!(stats.tasks, 16);
        assert!(stats.polls >= 16, "{stats:?}");
        assert!(stats.wakes >= 16, "{stats:?}");
        assert!(stats.peak_mailbox_msgs >= 1, "{stats:?}");
        assert!(stats.peak_mailbox_bytes >= 8, "{stats:?}");
        // The tree keeps any one mailbox logarithmic, never O(P).
        assert!(stats.peak_mailbox_msgs <= 6, "{stats:?}");
    }

    /// Every (from, to, payload) a run sends, as its hook sees it.
    #[derive(Default)]
    struct SendLog(std::sync::Mutex<Vec<(usize, usize, Vec<u8>)>>);

    impl CheckHook for SendLog {
        fn on_event(&self, ev: &crate::HookEvent<'_>) {
            if let crate::HookEvent::Send {
                from, to, payload, ..
            } = *ev
            {
                self.0.lock().unwrap().push((from, to, payload.to_vec()));
            }
        }
    }

    /// The scatter edges as the decode-partition-reframe engine sent them:
    /// the root lists its parts in real-rank order, each node hands every
    /// child the entries at or above the child's vrank, in the order held.
    fn reframed_scatter_edges(parts: &[Vec<u8>], root: usize) -> Vec<(usize, usize, Vec<u8>)> {
        use crate::wire::{frame, unframe};
        type Entries = Vec<(u64, Vec<u8>)>;
        let size = parts.len();
        let real = |v: usize| (v + root) % size;
        let mut edges = Vec::new();
        let mut todo: Vec<(usize, usize, Entries)> = vec![(
            0,
            size.next_power_of_two(),
            (0..size)
                .map(|r| (((r + size - root) % size) as u64, parts[r].clone()))
                .collect(),
        )];
        while let Some((v, mut mask, mut pending)) = todo.pop() {
            mask >>= 1;
            while mask > 0 {
                if v + mask < size {
                    let (send, keep): (Entries, Entries) = pending
                        .into_iter()
                        .partition(|(id, _)| *id >= (v + mask) as u64);
                    let framed = frame(send.iter().map(|(id, p)| (*id, p.as_slice())));
                    assert_eq!(unframe(&framed), send);
                    edges.push((real(v), real(v + mask), framed));
                    todo.push((v + mask, mask, send));
                    pending = keep;
                }
                mask >>= 1;
            }
        }
        edges.sort();
        edges
    }

    #[test]
    fn scatter_edges_are_byte_identical_to_reframing_for_every_root() {
        for size in 1..=13usize {
            for root in 0..size {
                let parts: Vec<Vec<u8>> = (0..size)
                    .map(|r| vec![(r * 7 + root) as u8; (r * 5 + root) % 11])
                    .collect();
                let log = Arc::new(SendLog::default());
                let expect = parts.clone();
                let run = TaskWorld::run_checked(WS4, size, log.clone(), move |c| {
                    let parts = (c.rank() == root).then(|| expect.clone());
                    async move { c.scatter(parts, root).await }
                });
                for (r, got) in run.results.into_iter().enumerate() {
                    assert_eq!(got.expect("no panic"), parts[r], "size {size} root {root}");
                }
                let mut sent = std::mem::take(&mut *log.0.lock().unwrap());
                sent.sort();
                assert_eq!(
                    sent,
                    reframed_scatter_edges(&parts, root),
                    "size {size} root {root}"
                );
            }
        }
    }

    #[test]
    fn shared_bcast_frames_charge_bytes_once_per_logical_payload() {
        let (out, stats) = TaskWorld::run_with(WS4, 4, |c| async move {
            c.allgather_u64(c.rank() as u64 + 1).await;
            c.stats().bytes_sent()
        });
        // Down-phase frame over 4 ranks: 8-byte count + 4 × (id, len, 8-byte
        // payload) = 104 bytes, Arc-shared down the tree.
        let frame = 8 + 4 * (8 + 8 + 8) as u64;
        // Up phase: vranks 1 and 3 frame one entry (32 B), vrank 2 frames
        // two (56 B), the root sends nothing. Down phase: rank 0 forwards to
        // two children and rank 2 to one, but each charges the shared frame
        // ONCE per logical payload; leaves 1 and 3 charge nothing.
        assert_eq!(out, vec![frame, 32, 56 + frame, 32]);
        assert_eq!(
            stats.shared_frame_bytes, frame,
            "one logical shared payload in the whole world, counted at the root"
        );
    }
}
