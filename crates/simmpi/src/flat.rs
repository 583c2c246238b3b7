//! The original slot-and-barrier collectives, kept as a *test oracle*.
//!
//! [`FlatCommunicator`] is the runtime this crate shipped before the tree
//! collectives landed: every collective deposits payloads into a `P`-slot
//! exchange array and synchronizes with two global barrier waits, and the
//! root scans all `P` slots linearly. That is O(P) latency per collective
//! and a full-communicator wake-up storm per barrier.
//!
//! It is retained for one reason: the property tests use it, through
//! [`FlatWorld`], as an independent executable reference the tree
//! collectives must agree with byte-for-byte. It shares the
//! [`CoComm`] contract and the launcher with [`World`](crate::World) and no
//! collective code: each method's slot-and-barrier body runs, blocking,
//! inside the future's first poll, on the rank's own thread, so
//! [`drive_ready`](crate::drive_ready) never sees it pending. Its
//! `reduce_u64` gathers and folds at the root, independent of the engine's
//! reduction tree.
//!
//! New code should use [`World`](crate::World); this module is not part of
//! the performance story. It *is* part of the correctness-analysis story:
//! the same [`CheckHook`] instrumentation as the tree runtime reports
//! collective entries, reserved-tag sends and teardown leaks, and
//! [`FlatWorld::run`] installs the passive sanitizer under `SIMCHECK=1`.
//! A rank blocked in the rendezvous barrier or in a receive wakes every
//! [`hook::ABORT_POLL`] to check the world's abort flag (a peer panicked)
//! and the hook's, so one rank's failure unwinds the others instead of
//! deadlocking the world.

use crate::co::{BoxFut, CoComm};
use crate::comm::{Comm, CommStats, ReduceOp};
use crate::hook::{self, Aborted, CheckHook, CollKind, CommCtx, HookEvent, LeakedMsg};
use crate::task::WorldRt;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Condvar};
use std::time::Instant;

type Message = (usize, u64, Vec<u8>);

/// State shared by every rank of one flat communicator.
struct Shared {
    /// Deterministic identity, identical on every rank and across runs.
    ctx: CommCtx,
    /// Correctness-analysis hook; `None` on the production path.
    hook: Option<Arc<dyn CheckHook>>,
    /// The world's abort flag, raised when a rank panics.
    world: Arc<WorldRt>,
    /// One exchange slot per rank, used by the collectives.
    slots: Vec<Mutex<Option<Vec<u8>>>>,
    /// Reusable rendezvous barrier: (arrived count, generation) and the
    /// waiters' condition variable (see [`FlatCommunicator::wait`]).
    barrier: (std::sync::Mutex<(usize, u64)>, Condvar),
    /// Point-to-point mailboxes: `senders[r]` delivers to rank `r`, whose
    /// thread drains `receivers[r]` (locked only by its owner).
    senders: Vec<Sender<Message>>,
    receivers: Vec<Mutex<Receiver<Message>>>,
    /// Sub-communicators under construction, keyed by (split sequence
    /// number, color). The first rank of a color group to arrive creates the
    /// shared state; the rest attach.
    splits: Mutex<HashMap<(u64, u64), Arc<Shared>>>,
}

impl Shared {
    fn new(ctx: CommCtx, hook: Option<Arc<dyn CheckHook>>, world: Arc<WorldRt>) -> Self {
        let size = ctx.size;
        assert!(size > 0, "communicator must have at least one rank");
        let (senders, receivers): (Vec<_>, Vec<_>) =
            (0..size).map(|_| channel::<Message>()).unzip();
        Shared {
            ctx,
            hook,
            world,
            slots: (0..size).map(|_| Mutex::new(None)).collect(),
            barrier: (std::sync::Mutex::new((0, 0)), Condvar::new()),
            senders,
            receivers: receivers.into_iter().map(Mutex::new).collect(),
            splits: Mutex::new(HashMap::new()),
        }
    }
}

/// One rank's handle onto the flat slot-and-barrier communicator.
struct FlatCommunicator {
    rank: usize,
    shared: Arc<Shared>,
    /// Messages received but not yet matched by (source, tag).
    stash: Mutex<VecDeque<Message>>,
    /// Count of collective calls on this handle; since collectives are
    /// ordered, all ranks agree on it (reported to the check hook).
    coll_seq: AtomicU64,
    /// Per-rank count of `split` calls on this communicator; since splits
    /// are collective and ordered, all ranks agree on the sequence number.
    split_seq: AtomicU64,
    stats: Arc<CommStats>,
}

impl FlatCommunicator {
    fn new(rank: usize, shared: Arc<Shared>) -> Self {
        FlatCommunicator {
            rank,
            shared,
            stash: Mutex::new(VecDeque::new()),
            coll_seq: AtomicU64::new(0),
            split_seq: AtomicU64::new(0),
            stats: Arc::new(CommStats::default()),
        }
    }

    /// Report a collective entry to the hook, if one is installed, claiming
    /// the next collective sequence number (returned so the exit can be
    /// reported against the same ordinal).
    fn note_collective(&self, kind: CollKind, root: Option<usize>) -> u64 {
        let seq = self.coll_seq.fetch_add(1, Ordering::Relaxed);
        if let Some(h) = &self.shared.hook {
            let (comm, rank) = (&self.shared.ctx, self.rank);
            h.on_event(&HookEvent::Collective {
                comm,
                rank,
                seq,
                kind,
                root,
            });
        }
        seq
    }

    /// Report a collective exit (the call returned on this rank). The flat
    /// runtime's collectives move payloads through shared slots rather
    /// than messages, so the entry/exit bracket is the only signal an
    /// ordering checker gets — it must order every entry of `(ctx, seq)`
    /// before every exit.
    fn note_collective_done(&self, seq: u64) {
        if let Some(h) = &self.shared.hook {
            h.on_event(&HookEvent::CollectiveDone {
                comm: &self.shared.ctx,
                rank: self.rank,
                seq,
            });
        }
    }

    fn deposit(&self, data: Option<Vec<u8>>) {
        if let Some(d) = &data {
            self.stats.add_bytes(d.len() as u64);
        }
        *self.shared.slots[self.rank].lock() = data;
    }

    /// One [`hook::ABORT_POLL`] tick of a blocked wait that began at
    /// `start`: unwinds with [`Aborted`] once the world or the hook
    /// aborts, and reports whether a hooked wait has outlived the
    /// deadlock watchdog.
    fn watchdog_expired(&self, start: Instant) -> bool {
        if self.shared.world.is_aborting() {
            std::panic::panic_any(Aborted("a peer rank panicked".into()));
        }
        let Some(h) = &self.shared.hook else {
            return false;
        };
        if let Some(reason) = h.should_abort() {
            std::panic::panic_any(Aborted(reason));
        }
        start.elapsed() >= hook::watchdog_timeout()
    }

    /// Rendezvous with every rank of the communicator.
    fn wait(&self) {
        let (state, cv) = &self.shared.barrier;
        let lock = || state.lock().expect("barrier state never poisoned");
        let mut g = lock();
        g.0 += 1;
        if g.0 == self.size() {
            g.0 = 0;
            g.1 = g.1.wrapping_add(1);
            cv.notify_all();
            return;
        }
        let gen = g.1;
        let start = Instant::now();
        while g.1 == gen {
            g = cv
                .wait_timeout(g, hook::ABORT_POLL)
                .expect("barrier state never poisoned")
                .0;
            if g.1 != gen {
                break;
            }
            // Unwind, if it comes to that, without holding the lock.
            drop(g);
            if self.watchdog_expired(start) {
                panic!("simcheck: rank blocked in flat barrier past the watchdog");
            }
            g = lock();
        }
    }

    fn recv_inner(&self, src: usize, tag: u64) -> Vec<u8> {
        // Check previously stashed non-matching messages first.
        {
            let mut stash = self.stash.lock();
            if let Some(pos) = stash.iter().position(|(s, t, _)| *s == src && *t == tag) {
                return stash.remove(pos).expect("position valid").2;
            }
        }
        let rx = self.shared.receivers[self.rank].lock();
        let start = Instant::now();
        loop {
            match rx.recv_timeout(hook::ABORT_POLL) {
                Ok((s, t, payload)) if s == src && t == tag => return payload,
                Ok(msg) => self.stash.lock().push_back(msg),
                Err(RecvTimeoutError::Timeout) => {
                    if self.watchdog_expired(start) {
                        let h = self
                            .shared
                            .hook
                            .as_ref()
                            .expect("the watchdog runs under a hook");
                        let (comm, rank, waited) = (&self.shared.ctx, self.rank, start.elapsed());
                        h.on_event(&HookEvent::Stuck {
                            comm,
                            rank,
                            src,
                            tag,
                            waited,
                        });
                        panic!(
                            "simcheck: rank {} blocked in recv(src={src}, tag={tag:#x}) \
                             past the watchdog",
                            self.rank
                        );
                    }
                }
                Err(RecvTimeoutError::Disconnected) => {
                    unreachable!("sender side alive for the world's lifetime")
                }
            }
        }
    }
}

impl CoComm for FlatCommunicator {
    fn rank(&self) -> usize {
        self.rank
    }

    fn size(&self) -> usize {
        self.shared.ctx.size
    }

    fn stats(&self) -> Option<Arc<CommStats>> {
        Some(self.stats.clone())
    }

    fn send_vec(&self, dest: usize, tag: u64, data: Vec<u8>) {
        assert!(dest < self.size(), "send dest {dest} out of range");
        if hook::rejected_user_tag(tag) {
            if let Some(h) = &self.shared.hook {
                let (comm, rank) = (&self.shared.ctx, self.rank);
                h.on_event(&HookEvent::ReservedTag {
                    comm,
                    rank,
                    dest,
                    tag,
                });
            }
            panic!("{}", hook::reserved_tag_panic_text(tag));
        }
        self.stats.bump_send();
        self.stats.add_bytes(data.len() as u64);
        if let Some(h) = &self.shared.hook {
            let (comm, from) = (&self.shared.ctx, self.rank);
            h.on_event(&HookEvent::Send {
                comm,
                from,
                to: dest,
                tag,
                payload: &data,
            });
        }
        self.shared.senders[dest]
            .send((self.rank, tag, data))
            .expect("receiver mailbox alive for the world's lifetime");
    }

    fn recv<'a>(&'a self, src: usize, tag: u64) -> BoxFut<'a, Vec<u8>> {
        Box::pin(async move {
            assert!(src < self.size(), "recv src {src} out of range");
            self.stats.bump_recv();
            let payload = self.recv_inner(src, tag);
            if let Some(h) = &self.shared.hook {
                let (comm, rank) = (&self.shared.ctx, self.rank);
                h.on_event(&HookEvent::RecvDone {
                    comm,
                    rank,
                    src,
                    tag,
                    payload: &payload,
                });
            }
            payload
        })
    }

    fn barrier<'a>(&'a self) -> BoxFut<'a, ()> {
        Box::pin(async move {
            self.stats.bump_barrier();
            let seq = self.note_collective(CollKind::Barrier, None);
            self.wait();
            self.note_collective_done(seq);
        })
    }

    fn gather<'a>(&'a self, data: &'a [u8], root: usize) -> BoxFut<'a, Option<Vec<Vec<u8>>>> {
        Box::pin(async move {
            assert!(root < self.size(), "gather root {root} out of range");
            self.stats.bump_gather();
            let seq = self.note_collective(CollKind::Gather, Some(root));
            self.deposit(Some(data.to_vec()));
            self.wait();
            let result = if self.rank == root {
                Some(
                    self.shared
                        .slots
                        .iter()
                        .map(|s| s.lock().take().expect("every rank deposited"))
                        .collect(),
                )
            } else {
                None
            };
            self.wait();
            self.note_collective_done(seq);
            result
        })
    }

    fn scatter<'a>(&'a self, parts: Option<Vec<Vec<u8>>>, root: usize) -> BoxFut<'a, Vec<u8>> {
        Box::pin(async move {
            assert!(root < self.size(), "scatter root {root} out of range");
            self.stats.bump_scatter();
            let seq = self.note_collective(CollKind::Scatter, Some(root));
            if self.rank == root {
                let parts = parts.expect("root must supply scatter parts");
                assert_eq!(parts.len(), self.size(), "scatter needs one part per rank");
                for (slot, part) in self.shared.slots.iter().zip(parts) {
                    self.stats.add_bytes(part.len() as u64);
                    *slot.lock() = Some(part);
                }
            }
            self.wait();
            let mine = self.shared.slots[self.rank]
                .lock()
                .take()
                .expect("root deposited a part for every rank");
            self.wait();
            self.note_collective_done(seq);
            mine
        })
    }

    fn bcast<'a>(&'a self, data: Option<Vec<u8>>, root: usize) -> BoxFut<'a, Vec<u8>> {
        Box::pin(async move {
            assert!(root < self.size(), "bcast root {root} out of range");
            self.stats.bump_bcast();
            let seq = self.note_collective(CollKind::Bcast, Some(root));
            if self.rank == root {
                self.deposit(Some(data.expect("root must supply bcast data")));
            }
            self.wait();
            let out = self.shared.slots[root]
                .lock()
                .as_ref()
                .expect("root deposited")
                .clone();
            // Second barrier so the root's slot is not overwritten by a later
            // collective while slow ranks still read it. The payload itself is
            // left in place: clearing it here would race against a subsequent
            // collective's deposits from other ranks.
            self.wait();
            self.note_collective_done(seq);
            out
        })
    }

    fn allgather<'a>(&'a self, data: &'a [u8]) -> BoxFut<'a, Vec<Vec<u8>>> {
        Box::pin(async move {
            self.stats.bump_allgather();
            let seq = self.note_collective(CollKind::Allgather, None);
            self.deposit(Some(data.to_vec()));
            self.wait();
            let out: Vec<Vec<u8>> = self
                .shared
                .slots
                .iter()
                .map(|s| s.lock().as_ref().expect("every rank deposited").clone())
                .collect();
            // As in bcast: no post-barrier cleanup — a deposit after the second
            // barrier would race against the next collective's writes.
            self.wait();
            self.note_collective_done(seq);
            out
        })
    }

    /// Gathers and folds at the root, word by word: no reduction tree.
    fn reduce_u64s<'a>(
        &'a self,
        values: &'a [u64],
        op: ReduceOp,
        root: usize,
    ) -> BoxFut<'a, Option<Vec<u64>>> {
        Box::pin(async move {
            let rows = self.gather_u64s(values, root).await?;
            assert!(
                rows.iter().all(|row| row.len() == values.len()),
                "reduce_u64s: ranks passed different word counts"
            );
            Some(
                (0..values.len())
                    .map(|i| {
                        rows.iter()
                            .map(|row| row[i])
                            .reduce(|a, b| op.fold(a, b))
                            .expect("non-empty communicator")
                    })
                    .collect(),
            )
        })
    }

    fn split<'a>(&'a self, color: u64, key: u64) -> BoxFut<'a, Box<dyn CoComm>> {
        Box::pin(async move {
            self.stats.bump_split();
            let coll_seq = self.note_collective(CollKind::Split, None);
            // Determine group membership: allgather (color, key, rank).
            let mut payload = Vec::with_capacity(24);
            payload.extend_from_slice(&color.to_le_bytes());
            payload.extend_from_slice(&key.to_le_bytes());
            payload.extend_from_slice(&(self.rank as u64).to_le_bytes());
            self.deposit(Some(payload));
            self.wait();
            let all: Vec<Vec<u8>> = self
                .shared
                .slots
                .iter()
                .map(|s| s.lock().as_ref().expect("every rank deposited").clone())
                .collect();
            self.wait();
            let mut members: Vec<(u64, u64)> = all
                .iter()
                .filter_map(|b| {
                    let c = u64::from_le_bytes(b[0..8].try_into().unwrap());
                    let k = u64::from_le_bytes(b[8..16].try_into().unwrap());
                    let r = u64::from_le_bytes(b[16..24].try_into().unwrap());
                    (c == color).then_some((k, r))
                })
                .collect();
            members.sort_unstable();
            let new_size = members.len();
            let new_rank = members
                .iter()
                .position(|&(_, r)| r == self.rank as u64)
                .expect("caller is in its own color group");

            let seq = self.split_seq.fetch_add(1, Ordering::Relaxed) + 1;

            // First member of the group to arrive creates the shared state; the
            // child's identity is derived structurally so every member agrees.
            let sub = {
                let mut splits = self.shared.splits.lock();
                splits
                    .entry((seq, color))
                    .or_insert_with(|| {
                        Arc::new(Shared::new(
                            self.shared.ctx.child(seq, color, new_size),
                            self.shared.hook.clone(),
                            self.shared.world.clone(),
                        ))
                    })
                    .clone()
            };
            let comm = FlatCommunicator::new(new_rank, sub);
            // All ranks must have attached to their group's shared state before
            // the construction entries are retired from the map.
            self.wait();
            self.note_collective_done(coll_seq);
            if new_rank == 0 {
                self.shared.splits.lock().remove(&(seq, color));
            }
            Box::new(comm) as Box<dyn CoComm>
        })
    }
}

impl Drop for FlatCommunicator {
    /// Teardown check mirroring the tree runtime's: report unconsumed
    /// messages when a hook is installed.
    fn drop(&mut self) {
        let Some(hook) = self.shared.hook.clone() else {
            return;
        };
        let mut leaked: Vec<LeakedMsg> = self
            .stash
            .lock()
            .drain(..)
            .map(|(from, tag, payload)| LeakedMsg {
                from,
                tag,
                len: payload.len(),
                stashed: true,
            })
            .collect();
        {
            let rx = self.shared.receivers[self.rank].lock();
            while let Ok((from, tag, payload)) = rx.try_recv() {
                leaked.push(LeakedMsg {
                    from,
                    tag,
                    len: payload.len(),
                    stashed: false,
                });
            }
        }
        if !leaked.is_empty() {
            leaked.sort();
            let (comm, rank) = (&self.shared.ctx, self.rank);
            hook.on_event(&HookEvent::Teardown {
                comm,
                rank,
                leaked: &leaked,
            });
        }
    }
}

/// The oracle's world: one [`FlatCommunicator`] per rank.
fn flat_world(
    ntasks: usize,
    hook: Option<Arc<dyn CheckHook>>,
) -> (Arc<WorldRt>, Vec<Box<dyn CoComm>>) {
    let world = Arc::new(WorldRt::new(ntasks));
    let shared = Arc::new(Shared::new(
        CommCtx::new("world".into(), ntasks),
        hook,
        world.clone(),
    ));
    let comms = (0..ntasks)
        .map(|rank| Box::new(FlatCommunicator::new(rank, shared.clone())) as Box<dyn CoComm>)
        .collect();
    (world, comms)
}

/// Launcher running SPMD closures over the flat oracle — the flat
/// counterpart of [`World`](crate::World), for reference tests.
pub struct FlatWorld;

impl FlatWorld {
    /// Run `f` on `ntasks` threads, each receiving its own [`Comm`] over
    /// the oracle for a world of size `ntasks`, exactly as
    /// [`World::run`](crate::World::run): per-rank results in rank order,
    /// the first panic aborts the world and propagates, and `SIMCHECK=1`
    /// installs the passive [`Sanitizer`](crate::sanitize::Sanitizer).
    pub fn run<T, F>(ntasks: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(&Comm) -> T + Send + Sync,
    {
        crate::world::run(flat_world, ntasks, f)
    }

    /// Run `f` under a [`CheckHook`], catching each rank's panic — the flat
    /// counterpart of [`World::run_checked`](crate::World::run_checked).
    pub fn run_checked<T, F>(
        ntasks: usize,
        check: Arc<dyn CheckHook>,
        f: F,
    ) -> Vec<std::thread::Result<T>>
    where
        T: Send,
        F: Fn(&Comm) -> T + Send + Sync,
    {
        crate::world::launch(flat_world, ntasks, Some(check), f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flat_collectives_still_work() {
        let out = FlatWorld::run(5, |c| {
            let gathered = c.gather(&[c.rank() as u8], 2);
            let bc = c.bcast((c.rank() == 0).then(|| b"flat".to_vec()), 0);
            let sum = c.allreduce_u64(c.rank() as u64, ReduceOp::Sum);
            (gathered, bc, sum)
        });
        assert_eq!(
            out[2].0.as_ref().unwrap(),
            &(0..5u8).map(|r| vec![r]).collect::<Vec<_>>()
        );
        assert!(out.iter().all(|(_, b, s)| b == b"flat" && *s == 10));
        assert!(out
            .iter()
            .enumerate()
            .all(|(r, (g, _, _))| (r == 2) == g.is_some()));
    }

    #[test]
    fn flat_split_and_stats() {
        let out = FlatWorld::run(4, |c| {
            let sub = c.split((c.rank() % 2) as u64, c.rank() as u64);
            let members = sub.allgather_u64(c.rank() as u64);
            let stats = c.stats().expect("flat tracks stats");
            (
                members,
                stats.splits(),
                sub.stats().expect("sub tracks stats").allgathers(),
            )
        });
        for (r, (members, splits, sub_allgathers)) in out.iter().enumerate() {
            let expect: Vec<u64> = (0..4u64).filter(|x| x % 2 == r as u64 % 2).collect();
            assert_eq!(members, &expect);
            assert_eq!(*splits, 1);
            assert_eq!(*sub_allgathers, 1);
        }
    }

    #[test]
    fn flat_rejects_reserved_tags() {
        let out = FlatWorld::run(2, |c| {
            if c.rank() == 0 {
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    c.send(1, crate::hook::COLL_TAG_PREFIX | 5, b"nope");
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
    fn flat_checked_run_flags_kind_mismatch() {
        use crate::sanitize::{FindingKind, Sanitizer};
        let san = Arc::new(Sanitizer::new());
        let results = FlatWorld::run_checked(2, san.clone(), |c| {
            if c.rank() == 0 {
                c.barrier();
            } else {
                c.allgather(b"x");
            }
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
}
