//! The work-stealing executor's wake protocol under stress: an idle worker
//! registers as a sleeper and re-checks every deque before it waits, and a
//! wake notifies only when a sleeper is registered. A lost wake-up shows as
//! a world that never finishes (caught here by a time limit) or as a false
//! deadlock report; a real cycle must still be reported exactly.

use simmpi::{CoComm, SchedPolicy, TaskWorld};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc;
use std::time::Duration;

/// Run `body` on its own thread and fail if it has not returned within a
/// minute: a lost wake-up parks every worker for good.
fn within_a_minute<T: Send + 'static>(what: &str, body: impl FnOnce() -> T + Send + 'static) -> T {
    let (tx, rx) = mpsc::channel();
    let runner = std::thread::spawn(move || {
        let _ = tx.send(catch_unwind(AssertUnwindSafe(body)));
    });
    match rx.recv_timeout(Duration::from_secs(60)) {
        Ok(Ok(v)) => {
            runner.join().expect("runner thread");
            v
        }
        Ok(Err(panic)) => std::panic::resume_unwind(panic),
        Err(_) => panic!("{what}: the world did not finish within a minute (lost wake-up?)"),
    }
}

/// Ranks r and r + P/2 — in different rank blocks, so on different
/// workers unless one was stolen — bounce a counter `rounds` times, each
/// adding one per hop; returns the last value each end saw. Every
/// 64th round the sender blocks its worker for a moment first, so the
/// other workers run dry and go to sleep, and the next message has to
/// wake one of them.
async fn ping_pong(c: &CoComm, rounds: u64) -> u64 {
    let (r, n) = (c.rank(), c.size());
    let half = n / 2;
    let (peer, first) = if r < half {
        (r + half, true)
    } else {
        (r - half, false)
    };
    let mut count = 0u64;
    for round in 0..rounds {
        if first {
            if round % 64 == 0 {
                std::thread::sleep(Duration::from_micros(200));
            }
            c.send(peer, 1, &count.to_le_bytes());
            let got = c.recv(peer, 2).await;
            count = u64::from_le_bytes(got[..8].try_into().unwrap()) + 1;
        } else {
            let got = c.recv(peer, 1).await;
            let next = u64::from_le_bytes(got[..8].try_into().unwrap()) + 1;
            c.send(peer, 2, &next.to_le_bytes());
            count = next;
        }
    }
    count
}

#[test]
fn cross_worker_ping_pong_with_idle_gaps_always_finishes() {
    const ROUNDS: u64 = 3000;
    for workers in 2..=4usize {
        for ranks in [2 * workers, 2 * workers + 2] {
            for rep in 0..3 {
                let what = format!("{workers} workers, {ranks} ranks, rep {rep}");
                let (out, stats) = within_a_minute(&what.clone(), move || {
                    TaskWorld::run_with(SchedPolicy::WorkSteal { workers }, ranks, |c| async move {
                        ping_pong(&c, ROUNDS).await
                    })
                });
                // The counter grows by one per hop, two hops per round: the
                // first of a pair ends on the last reply, its peer one short.
                let want: Vec<u64> = (0..ranks)
                    .map(|r| 2 * ROUNDS - u64::from(r >= ranks / 2))
                    .collect();
                assert_eq!(out, want, "{what}");
                assert_eq!(stats.workers, workers, "{what}");
            }
        }
    }
}

#[test]
fn a_pair_left_alone_still_wakes_the_sleeping_workers() {
    // All but ranks 0 and P/2 finish at once, leaving every other worker
    // idle while the last pair talks across workers for thousands of
    // rounds, then a barrier needs everyone's worker again.
    for workers in 2..=4usize {
        let ranks = 4 * workers;
        let what = format!("{workers} workers");
        let out = within_a_minute(&what.clone(), move || {
            TaskWorld::run_with(SchedPolicy::WorkSteal { workers }, ranks, |c| async move {
                let half = c.size() / 2;
                let n = if c.rank() % half == 0 {
                    ping_pong(&c, 2000).await
                } else {
                    0
                };
                c.barrier().await;
                n
            })
            .0
        });
        for (r, n) in out.iter().enumerate() {
            let want = match r {
                0 => 4000,
                r if r == ranks / 2 => 3999,
                _ => 0,
            };
            assert_eq!(*n, want, "{what}: rank {r}");
        }
    }
}

fn panic_text(e: Box<dyn std::any::Any + Send>) -> String {
    e.downcast_ref::<String>()
        .cloned()
        .or_else(|| e.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_default()
}

#[test]
fn a_cross_worker_receive_cycle_is_reported_exactly() {
    // Ranks 0 and P−1 start in different rank blocks and each waits for
    // the other; every other rank finishes. Whatever the worker count, the
    // last worker to go idle must see the cycle, and name it.
    const GOLDEN: &str = "simmpi task world deadlock: 2 task(s) parked with no runnable peer and \
                          no message in flight:\n  [task 0] on comm \"world\" parked in \
                          recv(src=7, tag=0x5) as rank 0\n  [task 7] on comm \"world\" parked \
                          in recv(src=0, tag=0x5) as rank 7\n";
    for workers in 2..=4usize {
        for rep in 0..5 {
            let what = format!("{workers} workers, rep {rep}");
            let text = within_a_minute(&what.clone(), move || {
                let err = catch_unwind(AssertUnwindSafe(|| {
                    TaskWorld::run_with(SchedPolicy::WorkSteal { workers }, 8, |c| async move {
                        match c.rank() {
                            0 => drop(c.recv(7, 5).await),
                            7 => drop(c.recv(0, 5).await),
                            _ => {}
                        }
                    })
                }))
                .expect_err("a receive cycle must not return");
                panic_text(err)
            });
            assert_eq!(text, GOLDEN, "{what}");
        }
    }
}
