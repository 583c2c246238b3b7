//! [`CoComm`]: the resumable (coroutine-style) communicator abstraction.
//!
//! The task runtime ([`crate::task`]) executes ranks as cooperatively
//! scheduled state machines, so its communicator methods cannot block the
//! worker thread — they return futures that park on mailbox receives.
//! `CoComm` is the object-safe trait for that: the async twin of [`Comm`],
//! with the same payload conventions, collective contract, reserved tag
//! namespace and [`CommStats`] accounting.
//!
//! Protocol code written against `&dyn CoComm` (the `sion` crate's
//! collective open/close) runs unchanged on **every** world:
//!
//! * on the task runtime, the futures genuinely suspend and the scheduler
//!   interleaves thousands of ranks per worker thread;
//! * over a blocking [`Comm`] (a thread-per-rank [`Communicator`](crate::Communicator)
//!   or the flat oracle),
//!   [`BlockingComm`]/[`BlockingRef`] wrap it into a `CoComm` whose
//!   futures complete on first poll (the wrapped blocking call runs
//!   *inside* `poll`, on the rank's own thread, exactly where the direct
//!   call used to happen), and [`drive_ready`] retires such a future with
//!   a single poll.
//!
//! This is how the public blocking API keeps working unchanged while the
//! task runtime drives the same protocol state machines.

use crate::comm::{bytes_to_u64s, Comm, CommStats, ReduceOp};
use std::future::{ready, Future};
use std::pin::Pin;
use std::sync::Arc;
use std::task::{Context, Poll, Waker};

/// Boxed future returned by [`CoComm`] methods.
pub type BoxFut<'a, T> = Pin<Box<dyn Future<Output = T> + Send + 'a>>;

/// Shared allgather result: every rank's contribution in one refcounted,
/// rank-ordered frame that is scanned in place instead of materialized as
/// per-rank vectors.
///
/// [`CoComm::allgather`] hands every rank its own `Vec<Vec<u8>>` — P
/// allocations per rank, O(P²) across the world. Its callers only ever
/// *scan* the result (the membership filter in `split`, the decode of
/// [`CoComm::allgather_u64`]), so at 64Ki ranks that
/// materialization is pure waste. `AllGathered` is
/// the scan-shaped alternative: runtimes whose ranks share memory return
/// `Arc` clones of a single frame, making the whole collective O(1)
/// allocations per rank; cloning the handle clones the `Arc`.
#[derive(Clone)]
pub struct AllGathered {
    /// `crate::wire::frame` encoding, entries in rank order with id = rank.
    frame: Arc<Vec<u8>>,
}

impl AllGathered {
    /// Wrap a frame produced by the tree gather (entries already in rank
    /// order, ids equal to ranks).
    pub(crate) fn from_frame(frame: Arc<Vec<u8>>) -> AllGathered {
        AllGathered { frame }
    }

    /// Build from per-rank parts — the copying fallback for runtimes
    /// without shared memory between ranks (the blocking adapters).
    pub fn from_parts(parts: &[Vec<u8>]) -> AllGathered {
        let entries: Vec<(u64, &[u8])> =
            parts.iter().enumerate().map(|(r, p)| (r as u64, p.as_slice())).collect();
        AllGathered { frame: Arc::new(crate::wire::frame(&entries)) }
    }

    /// Number of contributions (the communicator size).
    pub fn len(&self) -> usize {
        u64::from_le_bytes(self.frame[..8].try_into().expect("frame header")) as usize
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Rank-ordered contributions, borrowed from the shared frame.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = &[u8]> + '_ {
        crate::wire::frame_iter(&self.frame).map(|(_, p)| p)
    }

    /// Materialize per-rank vectors (the classic allgather shape).
    pub fn to_parts(&self) -> Vec<Vec<u8>> {
        self.iter().map(|p| p.to_vec()).collect()
    }
}

/// A communicator whose blocking operations are futures; the async twin of
/// [`Comm`] (same semantics, rank-ordering and payload conventions — see
/// the corresponding [`Comm`] method for each contract).
///
/// All collective methods must be called by **every** rank of the
/// communicator, in the same order, and each returned future must be
/// driven to completion before the rank starts its next operation (the
/// protocol layer simply `.await`s them in sequence).
pub trait CoComm: Send + Sync {
    /// This task's rank in `0..size()`.
    fn rank(&self) -> usize;

    /// Number of tasks in the communicator.
    fn size(&self) -> usize;

    /// Live op/byte counters, when the runtime tracks them; see
    /// [`Comm::stats`].
    fn stats(&self) -> Option<Arc<CommStats>>;

    /// Buffered send to `dest`; never parks, so it stays synchronous. The
    /// reserved `0xC3` collective tag namespace is enforced exactly as in
    /// [`Comm::send`].
    fn send(&self, dest: usize, tag: u64, data: &[u8]);

    /// Matched receive from `src`; parks until a `(src, tag)` message is
    /// deliverable.
    fn recv<'a>(&'a self, src: usize, tag: u64) -> BoxFut<'a, Vec<u8>>;

    /// Non-blocking matched receive: the next already-deliverable
    /// `(src, tag)` message, or `None` without parking; see
    /// [`Comm::try_recv`]. The default returns `None`, which degrades
    /// opportunistic drains to their blocking fallback — still correct.
    fn try_recv(&self, src: usize, tag: u64) -> Option<Vec<u8>> {
        let _ = (src, tag);
        None
    }

    /// Parks until every rank has entered the barrier.
    fn barrier<'a>(&'a self) -> BoxFut<'a, ()>;

    /// Gatherv to `root`; resolves to `Some(buffers)` at the root.
    fn gather<'a>(&'a self, data: &'a [u8], root: usize) -> BoxFut<'a, Option<Vec<Vec<u8>>>>;

    /// Scatterv from `root`.
    fn scatter<'a>(&'a self, parts: Option<Vec<Vec<u8>>>, root: usize) -> BoxFut<'a, Vec<u8>>;

    /// Broadcast from `root`.
    fn bcast<'a>(&'a self, data: Option<Vec<u8>>, root: usize) -> BoxFut<'a, Vec<u8>>;

    /// Gather every rank's buffer at every rank.
    fn allgather<'a>(&'a self, data: &'a [u8]) -> BoxFut<'a, Vec<Vec<u8>>>;

    /// [`CoComm::allgather`] into one shared, scan-in-place result (see
    /// [`AllGathered`]) — same semantics, collective contract, and
    /// [`CommStats`] accounting. Provided default copies through
    /// `allgather`; shared-memory runtimes override it to hand every rank
    /// an `Arc` clone of a single frame.
    fn allgather_shared<'a>(&'a self, data: &'a [u8]) -> BoxFut<'a, AllGathered> {
        Box::pin(async move { AllGathered::from_parts(&self.allgather(data).await) })
    }

    /// Rooted `u64` reduction.
    fn reduce_u64<'a>(&'a self, value: u64, op: ReduceOp, root: usize) -> BoxFut<'a, Option<u64>>;

    /// Split into disjoint sub-communicators by `(color, key)`; collective
    /// over the parent.
    fn split<'a>(&'a self, color: u64, key: u64) -> BoxFut<'a, Box<dyn CoComm>>;

    /// [`split`](Self::split) for callers that can compute their own place
    /// in the result; see [`Comm::split_local`] for the contract. The
    /// provided implementation runs the exchanged split and asserts that
    /// it agrees.
    fn split_local<'a>(
        &'a self,
        color: u64,
        new_rank: usize,
        new_size: usize,
    ) -> BoxFut<'a, Box<dyn CoComm>> {
        Box::pin(async move {
            let sub = self.split(color, new_rank as u64).await;
            assert_eq!(
                (sub.rank(), sub.size()),
                (new_rank, new_size),
                "split_local(color {color}): the exchanged split disagrees with the caller"
            );
            sub
        })
    }

    // ------------------------------------------------------------------
    // Typed convenience layers (provided), mirroring [`Comm`]'s.
    // ------------------------------------------------------------------

    /// Broadcast one `u64` from `root`.
    fn bcast_u64<'a>(&'a self, value: Option<u64>, root: usize) -> BoxFut<'a, u64> {
        Box::pin(async move {
            let got = self.bcast(value.map(|v| v.to_le_bytes().to_vec()), root).await;
            u64::from_le_bytes(got[..8].try_into().expect("u64 payload"))
        })
    }

    /// Gather one `u64` per rank at `root`.
    fn gather_u64<'a>(&'a self, value: u64, root: usize) -> BoxFut<'a, Option<Vec<u64>>> {
        Box::pin(async move {
            let buf = value.to_le_bytes();
            self.gather(&buf, root).await.map(|bufs| {
                bufs.iter()
                    .map(|b| u64::from_le_bytes(b[..8].try_into().expect("u64 payload")))
                    .collect()
            })
        })
    }

    /// Scatter one `u64` to each rank from `root`.
    fn scatter_u64<'a>(&'a self, values: Option<Vec<u64>>, root: usize) -> BoxFut<'a, u64> {
        Box::pin(async move {
            let parts = values.map(|vs| vs.iter().map(|v| v.to_le_bytes().to_vec()).collect());
            let got = self.scatter(parts, root).await;
            u64::from_le_bytes(got[..8].try_into().expect("u64 payload"))
        })
    }

    /// Allgather one `u64` per rank. Decodes straight out of the shared
    /// [`AllGathered`] frame — on shared-memory runtimes the whole round
    /// costs O(1) allocations per rank (one `Vec<u64>`), never the
    /// `Vec<Vec<u8>>` materialization of the byte-level allgather.
    fn allgather_u64<'a>(&'a self, value: u64) -> BoxFut<'a, Vec<u64>> {
        Box::pin(async move {
            let buf = value.to_le_bytes();
            self.allgather_shared(&buf)
                .await
                .iter()
                .map(|b| u64::from_le_bytes(b[..8].try_into().expect("u64 payload")))
                .collect()
        })
    }

    /// All-reduce a `u64` with `op`: a reduction to rank 0 and a broadcast
    /// of the result, one word per tree edge each way.
    fn allreduce_u64<'a>(&'a self, value: u64, op: ReduceOp) -> BoxFut<'a, u64> {
        Box::pin(async move {
            let reduced = self.reduce_u64(value, op, 0).await;
            self.bcast_u64(reduced, 0).await
        })
    }

    /// Gather a `u64` slice per rank at `root`.
    fn gather_u64s<'a>(
        &'a self,
        values: &'a [u64],
        root: usize,
    ) -> BoxFut<'a, Option<Vec<Vec<u64>>>> {
        Box::pin(async move {
            let bytes: Vec<u8> = values.iter().flat_map(|v| v.to_le_bytes()).collect();
            self.gather(&bytes, root)
                .await
                .map(|bufs| bufs.iter().map(|b| bytes_to_u64s(b)).collect())
        })
    }
}

/// Retire a future that never parks (one built exclusively from
/// [`BlockingComm`]/[`BlockingRef`] operations) with a single poll.
///
/// This is the bridge that keeps the blocking protocol entry points
/// (`sion`'s `paropen_write` etc.) synchronous: the async protocol body
/// executes start-to-finish inside this one poll, every inner await
/// resolving immediately because the adapter already ran the blocking
/// call. Panics if the future parks — that means it was built over a
/// task-runtime communicator and must be driven by the task scheduler
/// instead.
pub fn drive_ready<T>(fut: impl Future<Output = T>) -> T {
    let mut fut = std::pin::pin!(fut);
    let mut cx = Context::from_waker(Waker::noop());
    match fut.as_mut().poll(&mut cx) {
        Poll::Ready(v) => v,
        Poll::Pending => panic!(
            "drive_ready: future parked; a task-runtime communicator must be driven by the \
             task scheduler (use the *_co entry points inside a task world)"
        ),
    }
}

/// Owned blocking adapter: wraps a `Box<dyn Comm>` as a [`CoComm`] whose
/// futures run the blocking call inside `poll` and resolve immediately.
pub struct BlockingComm(pub Box<dyn Comm>);

/// Borrowed blocking adapter over any [`Comm`]; see [`BlockingComm`].
pub struct BlockingRef<'c>(pub &'c dyn Comm);

macro_rules! blocking_cocomm {
    ($ty:ty) => {
        impl CoComm for $ty {
            fn rank(&self) -> usize {
                self.inner().rank()
            }

            fn size(&self) -> usize {
                self.inner().size()
            }

            fn stats(&self) -> Option<Arc<CommStats>> {
                self.inner().stats()
            }

            fn send(&self, dest: usize, tag: u64, data: &[u8]) {
                self.inner().send(dest, tag, data)
            }

            fn recv<'a>(&'a self, src: usize, tag: u64) -> BoxFut<'a, Vec<u8>> {
                Box::pin(ready(self.inner().recv(src, tag)))
            }

            fn try_recv(&self, src: usize, tag: u64) -> Option<Vec<u8>> {
                self.inner().try_recv(src, tag)
            }

            fn barrier<'a>(&'a self) -> BoxFut<'a, ()> {
                Box::pin(ready(self.inner().barrier()))
            }

            fn gather<'a>(
                &'a self,
                data: &'a [u8],
                root: usize,
            ) -> BoxFut<'a, Option<Vec<Vec<u8>>>> {
                Box::pin(ready(self.inner().gather(data, root)))
            }

            fn scatter<'a>(
                &'a self,
                parts: Option<Vec<Vec<u8>>>,
                root: usize,
            ) -> BoxFut<'a, Vec<u8>> {
                Box::pin(ready(self.inner().scatter(parts, root)))
            }

            fn bcast<'a>(&'a self, data: Option<Vec<u8>>, root: usize) -> BoxFut<'a, Vec<u8>> {
                Box::pin(ready(self.inner().bcast(data, root)))
            }

            fn allgather<'a>(&'a self, data: &'a [u8]) -> BoxFut<'a, Vec<Vec<u8>>> {
                Box::pin(ready(self.inner().allgather(data)))
            }

            fn reduce_u64<'a>(
                &'a self,
                value: u64,
                op: ReduceOp,
                root: usize,
            ) -> BoxFut<'a, Option<u64>> {
                Box::pin(ready(self.inner().reduce_u64(value, op, root)))
            }

            fn split<'a>(&'a self, color: u64, key: u64) -> BoxFut<'a, Box<dyn CoComm>> {
                Box::pin(ready(
                    Box::new(BlockingComm(self.inner().split(color, key))) as Box<dyn CoComm>
                ))
            }

            fn split_local<'a>(
                &'a self,
                color: u64,
                new_rank: usize,
                new_size: usize,
            ) -> BoxFut<'a, Box<dyn CoComm>> {
                let sub = self.inner().split_local(color, new_rank, new_size);
                Box::pin(ready(Box::new(BlockingComm(sub)) as Box<dyn CoComm>))
            }
        }
    };
}

impl BlockingComm {
    fn inner(&self) -> &dyn Comm {
        self.0.as_ref()
    }
}

impl BlockingRef<'_> {
    fn inner(&self) -> &dyn Comm {
        self.0
    }
}

blocking_cocomm!(BlockingComm);
blocking_cocomm!(BlockingRef<'_>);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FlatWorld, World};

    #[test]
    fn blocking_adapter_preserves_comm_semantics() {
        // The same async script runs over the blocking runtimes through the
        // adapter; every await resolves in the single drive_ready poll.
        let script = |c: &dyn CoComm| {
            drive_ready(async move {
                let all = c.allgather_u64(c.rank() as u64 + 1).await;
                let sum = c.allreduce_u64(c.rank() as u64, ReduceOp::Sum).await;
                let b = c.bcast_u64((c.rank() == 2).then_some(99), 2).await;
                let sub = c.split((c.rank() % 2) as u64, 0).await;
                c.barrier().await;
                (all, sum, b, sub.size(), sub.rank())
            })
        };
        let tree = World::run(4, |c| script(&BlockingRef(c)));
        let flat = FlatWorld::run(4, |c| script(&BlockingRef(c)));
        assert_eq!(tree, flat);
        for (r, (all, sum, b, ss, sr)) in tree.iter().enumerate() {
            assert_eq!(all, &vec![1, 2, 3, 4]);
            assert_eq!(*sum, 6);
            assert_eq!(*b, 99);
            assert_eq!(*ss, 2);
            assert_eq!(*sr, r / 2);
        }
    }

    #[test]
    fn drive_ready_runs_a_one_rank_world() {
        let got = World::run(1, |c| {
            let co = BlockingRef(c);
            drive_ready(async {
                co.barrier().await;
                co.allgather_u64(7).await
            })
        });
        assert_eq!(got, vec![vec![7]]);
    }
}
