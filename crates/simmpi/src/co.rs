//! [`CoComm`]: the crate's one communicator contract.
//!
//! One engine implements it: the tree engine [`TaskComm`](crate::TaskComm).
//! Its methods return futures, so a rank can be a cooperatively scheduled
//! state machine that parks on mailbox receives instead of blocking a
//! worker thread. The trait stays a trait so protocol code takes
//! `&dyn CoComm` (a world communicator and a split's result alike) and
//! can be read against its contract alone.
//!
//! Protocol code written against `&dyn CoComm` (the `sion` crate's
//! collective open/close) runs unchanged on both drivers of the engine:
//!
//! * on the task runtime ([`TaskWorld`](crate::TaskWorld)), the futures
//!   genuinely suspend and the scheduler interleaves thousands of ranks per
//!   worker thread;
//! * on the thread-backed [`World`](crate::World) each rank owns its
//!   thread, and [`drive_ready`](crate::drive_ready) polls the future
//!   there, parking the thread while it waits for a peer. The blocking
//!   [`Comm`](crate::Comm) handle is exactly that: one `drive_ready` per
//!   method.

use crate::comm::{bytes_to_u64s, CommStats, ReduceOp};
use std::future::Future;
use std::pin::Pin;
use std::sync::Arc;

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
/// materialization is pure waste. `AllGathered` is the scan-shaped
/// alternative: every rank holds an `Arc` clone of a single frame, making
/// the whole collective O(1) allocations per rank; cloning the handle
/// clones the `Arc`.
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

/// A communicator: a group of tasks with collective and point-to-point
/// communication, in the image of an MPI communicator, whose waiting
/// operations are futures.
///
/// All collective methods must be called by **every** rank of the
/// communicator, in the same order (the usual MPI contract), and each
/// returned future must be driven to completion before the rank starts its
/// next operation (the protocol layer simply `.await`s them in sequence).
/// Payloads are raw bytes so the trait stays object-safe; typed helpers
/// are provided on top.
pub trait CoComm: Send + Sync {
    /// This task's rank in `0..size()`.
    fn rank(&self) -> usize;

    /// Number of tasks in the communicator.
    fn size(&self) -> usize;

    /// Live op/byte counters for this rank's view of the communicator, when
    /// the runtime tracks them (`None` otherwise). The returned handle keeps
    /// counting after the communicator is dropped.
    fn stats(&self) -> Option<Arc<CommStats>>;

    /// Buffered send of `data` to `dest` with a matching `tag`, by move: the
    /// receiver's [`recv`](Self::recv) or [`try_recv`](Self::try_recv) gets
    /// this very allocation, so a sender that built its message in place
    /// (an aggregation frame) is never copied. Never parks, so it stays
    /// synchronous. Tags in the reserved `0xC3` collective namespace (and
    /// the `0xA6`/`0xA7` aggregation namespaces outside the aggregation
    /// protocol) panic. Checkers see the payload as before: one
    /// [`HookEvent::Send`](crate::HookEvent::Send) carrying its bytes, so the
    /// ship/ack frame contract of [`AGG_SHIP_TAG_PREFIX`](crate::AGG_SHIP_TAG_PREFIX)
    /// is unchanged.
    fn send_vec(&self, dest: usize, tag: u64, data: Vec<u8>);

    /// [`send_vec`](Self::send_vec) of a copy of borrowed bytes — for
    /// callers that keep their buffer. No runtime overrides it: one send
    /// path, one set of checks.
    fn send(&self, dest: usize, tag: u64, data: &[u8]) {
        self.send_vec(dest, tag, data.to_vec())
    }

    /// Receive the next message from `src` with `tag`, with MPI-style
    /// message matching (other (source, tag) messages are queued); parks
    /// until a match is deliverable.
    fn recv<'a>(&'a self, src: usize, tag: u64) -> BoxFut<'a, Vec<u8>>;

    /// Non-blocking matched receive: the next already-deliverable
    /// `(src, tag)` message, or `None` without parking. FIFO order per
    /// `(src, tag)` matches [`recv`](Self::recv).
    fn try_recv(&self, src: usize, tag: u64) -> Option<Vec<u8>>;

    /// Parks until every rank has entered the barrier.
    fn barrier<'a>(&'a self) -> BoxFut<'a, ()>;

    /// Gather each rank's buffer at `root`: `Some(buffers)` (indexed by
    /// rank) at the root, `None` elsewhere. Buffers may have different
    /// lengths (gatherv semantics).
    fn gather<'a>(&'a self, data: &'a [u8], root: usize) -> BoxFut<'a, Option<Vec<Vec<u8>>>>;

    /// Scatter per-rank buffers from `root`. The root passes `Some(parts)`
    /// with exactly `size()` entries; other ranks pass `None`. Every rank
    /// receives its part (scatterv semantics).
    fn scatter<'a>(&'a self, parts: Option<Vec<Vec<u8>>>, root: usize) -> BoxFut<'a, Vec<u8>>;

    /// Broadcast `root`'s buffer to every rank. Only the root's `data` is
    /// consulted.
    fn bcast<'a>(&'a self, data: Option<Vec<u8>>, root: usize) -> BoxFut<'a, Vec<u8>>;

    /// Gather every rank's buffer at every rank.
    fn allgather<'a>(&'a self, data: &'a [u8]) -> BoxFut<'a, Vec<Vec<u8>>>;

    /// [`CoComm::allgather`] into one shared, scan-in-place result (see
    /// [`AllGathered`]) — same semantics, collective contract, and
    /// [`CommStats`] accounting, but every rank holds an `Arc` clone of a
    /// single frame.
    fn allgather_shared<'a>(&'a self, data: &'a [u8]) -> BoxFut<'a, AllGathered>;

    /// Rooted reduction of a word slice: every rank passes the same number
    /// of words, and word `i` of the result, which lands at `root` (`None`
    /// elsewhere), combines word `i` of every rank with `op`. One round
    /// reduces any number of words: each tree edge carries one partial
    /// result of the slice's length.
    fn reduce_u64s<'a>(
        &'a self,
        values: &'a [u64],
        op: ReduceOp,
        root: usize,
    ) -> BoxFut<'a, Option<Vec<u64>>>;

    /// Split into disjoint sub-communicators: ranks sharing a `color` end up
    /// in the same sub-communicator, ordered by `(key, parent rank)`.
    /// Collective over the parent.
    fn split<'a>(&'a self, color: u64, key: u64) -> BoxFut<'a, Box<dyn CoComm>>;

    /// [`split`](Self::split) without the exchange, for callers that can
    /// compute their own place in the result: this rank becomes rank
    /// `new_rank` of the `new_size`-rank sub-communicator `color`. Still
    /// collective over the parent and ordered with its other splits, but a
    /// runtime may form the group without sending a message. The caller
    /// guarantees that the members of each `color` agree on `new_size` and
    /// claim each rank in `0..new_size` exactly once; a runtime that
    /// detects a violation panics. The result equals that of the exchanged
    /// split keyed by `new_rank`.
    fn split_local<'a>(
        &'a self,
        color: u64,
        new_rank: usize,
        new_size: usize,
    ) -> BoxFut<'a, Box<dyn CoComm>>;

    // ------------------------------------------------------------------
    // Typed convenience layers (provided).
    // ------------------------------------------------------------------

    /// [`reduce_u64s`](Self::reduce_u64s) of one word.
    fn reduce_u64<'a>(&'a self, value: u64, op: ReduceOp, root: usize) -> BoxFut<'a, Option<u64>> {
        Box::pin(async move {
            self.reduce_u64s(&[value], op, root)
                .await
                .map(|words| words[0])
        })
    }

    /// Broadcast one `u64` from `root`.
    fn bcast_u64<'a>(&'a self, value: Option<u64>, root: usize) -> BoxFut<'a, u64> {
        Box::pin(async move {
            let got = self
                .bcast(value.map(|v| v.to_le_bytes().to_vec()), root)
                .await;
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
    /// [`AllGathered`] frame — the whole round costs O(1) allocations per
    /// rank (one `Vec<u64>`), never the
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

    /// Rooted reduction of an `f64`.
    fn reduce_f64<'a>(&'a self, value: f64, op: ReduceOp, root: usize) -> BoxFut<'a, Option<f64>> {
        Box::pin(async move {
            let buf = value.to_le_bytes();
            let gathered = self.gather(&buf, root).await?;
            let vals = gathered
                .iter()
                .map(|b| f64::from_le_bytes(b[..8].try_into().expect("f64 payload")));
            Some(match op {
                ReduceOp::Sum => vals.sum(),
                ReduceOp::Max => vals.fold(f64::NEG_INFINITY, f64::max),
                ReduceOp::Min => vals.fold(f64::INFINITY, f64::min),
            })
        })
    }

    /// All-reduce an `f64` with `op`.
    fn allreduce_f64<'a>(&'a self, value: f64, op: ReduceOp) -> BoxFut<'a, f64> {
        Box::pin(async move {
            let buf = value.to_le_bytes();
            let all = self.allgather(&buf).await;
            let vals = all
                .iter()
                .map(|b| f64::from_le_bytes(b[..8].try_into().expect("f64 payload")));
            match op {
                ReduceOp::Sum => vals.sum(),
                ReduceOp::Max => vals.fold(f64::NEG_INFINITY, f64::max),
                ReduceOp::Min => vals.fold(f64::INFINITY, f64::min),
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{drive_ready, TaskWorld, World};

    #[test]
    fn one_co_script_agrees_on_the_thread_and_task_worlds() {
        // The same async script runs on both drivers: each rank's thread
        // driving it through drive_ready, and the task executor.
        async fn script(c: &dyn CoComm) -> (Vec<u64>, u64, u64, usize, usize) {
            let all = c.allgather_u64(c.rank() as u64 + 1).await;
            let sum = c.allreduce_u64(c.rank() as u64, ReduceOp::Sum).await;
            let b = c.bcast_u64((c.rank() == 2).then_some(99), 2).await;
            let sub = c.split((c.rank() % 2) as u64, 0).await;
            c.barrier().await;
            (all, sum, b, sub.size(), sub.rank())
        }
        let tree = World::run(4, |c| drive_ready(script(c.co())));
        let task = TaskWorld::run(4, |c| async move { script(&c).await });
        assert_eq!(tree, task);
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
            let co = c.co();
            drive_ready(async {
                co.barrier().await;
                co.allgather_u64(7).await
            })
        });
        assert_eq!(got, vec![vec![7]]);
    }
}
