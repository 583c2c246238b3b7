//! The typed layer of [`CoComm`], its shared allgather result, and
//! [`drive_ready`].
//!
//! [`CoComm`] is the crate's one communicator: its tree engine
//! (`task/comm.rs`) moves bytes, and the helpers here (`bcast_u64`,
//! `allreduce_u64`, `gather_u64`, `reduce_f64`, …) encode words on top of
//! its byte collectives. Every waiting operation is an `async fn`, so a
//! rank is a cooperatively scheduled state machine that parks on mailbox
//! receives instead of blocking a worker thread, and each future's type is
//! concrete: nothing is boxed on the way to the one parking point.
//!
//! Protocol code takes `&CoComm` (a world communicator and a split's
//! result alike): the `sion` crate's collective open/close, the `mp2c`
//! checkpoint, the `tracer` backends. It runs on the one driver,
//! [`TaskWorld`](crate::TaskWorld): the futures genuinely suspend and the
//! scheduler interleaves thousands of ranks per worker thread.
//! [`drive_ready`] polls a future once outside it, for the calls that never
//! wait.

use crate::comm::ReduceOp;
use crate::CoComm;
use std::future::Future;
use std::pin::pin;
use std::sync::Arc;
use std::task::{Context, Poll, Waker};

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

/// Typed collectives: one word (or word slice) per rank, encoded
/// little-endian over the byte collectives of the engine.
impl CoComm {
    /// [`reduce_u64s`](Self::reduce_u64s) of one word.
    pub async fn reduce_u64(&self, value: u64, op: ReduceOp, root: usize) -> Option<u64> {
        self.reduce_u64s(&[value], op, root)
            .await
            .map(|words| words[0])
    }

    /// Broadcast one `u64` from `root`.
    pub async fn bcast_u64(&self, value: Option<u64>, root: usize) -> u64 {
        let got = self
            .bcast(value.map(|v| v.to_le_bytes().to_vec()), root)
            .await;
        u64::from_le_bytes(got[..8].try_into().expect("u64 payload"))
    }

    /// Gather one `u64` per rank at `root`.
    pub async fn gather_u64(&self, value: u64, root: usize) -> Option<Vec<u64>> {
        let buf = value.to_le_bytes();
        self.gather(&buf, root).await.map(|bufs| {
            bufs.iter()
                .map(|b| u64::from_le_bytes(b[..8].try_into().expect("u64 payload")))
                .collect()
        })
    }

    /// Allgather one `u64` per rank. Decodes straight out of the shared
    /// [`AllGathered`] frame — the whole round costs O(1) allocations per
    /// rank (one `Vec<u64>`), never the
    /// `Vec<Vec<u8>>` materialization of the byte-level allgather.
    pub async fn allgather_u64(&self, value: u64) -> Vec<u64> {
        let buf = value.to_le_bytes();
        self.allgather_shared(&buf)
            .await
            .iter()
            .map(|b| u64::from_le_bytes(b[..8].try_into().expect("u64 payload")))
            .collect()
    }

    /// All-reduce a `u64` with `op`: a reduction to rank 0 and a broadcast
    /// of the result, one word per tree edge each way.
    pub async fn allreduce_u64(&self, value: u64, op: ReduceOp) -> u64 {
        let reduced = self.reduce_u64(value, op, 0).await;
        self.bcast_u64(reduced, 0).await
    }

    /// Rooted reduction of an `f64`.
    pub async fn reduce_f64(&self, value: f64, op: ReduceOp, root: usize) -> Option<f64> {
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
    }

    /// All-reduce an `f64` with `op`.
    pub async fn allreduce_f64(&self, value: f64, op: ReduceOp) -> f64 {
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
    }
}

/// Poll `fut` once and return its value — for a future that never waits
/// on a peer (a local protocol step, a one-rank communicator) outside any
/// task world. A future that parks needs the scheduler: await it in a
/// [`TaskWorld`](crate::TaskWorld) rank. Here it panics rather than block
/// the calling thread for good. Besides the tests of this crate and of
/// `sion`, `sionbench`'s span test (`benchmark/src/span.rs`) calls it; it
/// stays until ROADMAP item 1's benchmark slice decides whether that test
/// still needs it.
pub fn drive_ready<T>(fut: impl Future<Output = T>) -> T {
    match pin!(fut).poll(&mut Context::from_waker(Waker::noop())) {
        Poll::Ready(v) => v,
        Poll::Pending => panic!(
            "drive_ready: future parked; a communicator future that waits for a peer must be \
             awaited in a task world rank"
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TaskWorld;

    #[test]
    fn one_co_script_runs_on_the_task_world() {
        async fn script(c: &CoComm) -> (Vec<u64>, u64, u64, usize, usize) {
            let all = c.allgather_u64(c.rank() as u64 + 1).await;
            let sum = c.allreduce_u64(c.rank() as u64, ReduceOp::Sum).await;
            let b = c.bcast_u64((c.rank() == 2).then_some(99), 2).await;
            let sub = c.split((c.rank() % 2) as u64, 0).await;
            c.barrier().await;
            (all, sum, b, sub.size(), sub.rank())
        }
        let task = TaskWorld::run(4, |c| async move { script(&c).await });
        for (r, (all, sum, b, ss, sr)) in task.iter().enumerate() {
            assert_eq!(all, &vec![1, 2, 3, 4]);
            assert_eq!(*sum, 6);
            assert_eq!(*b, 99);
            assert_eq!(*ss, 2);
            assert_eq!(*sr, r / 2);
        }
    }

    /// Every public future of the communicator is `Send`, so a rank that
    /// awaits one can run on a work-stealing world: checked where each
    /// future is built, not where a world first spawns a rank that holds
    /// it. The futures are dropped unpolled.
    #[test]
    fn every_communicator_future_is_send() {
        fn assert_send<T: Send>(_: &T) {}
        TaskWorld::run(1, |c| async move {
            let (bytes, words) = ([7u8; 8], [7u64]);
            assert_send(&c.recv(0, 1));
            assert_send(&c.barrier());
            assert_send(&c.gather(&bytes, 0));
            assert_send(&c.scatter(Some(vec![bytes.to_vec()]), 0));
            assert_send(&c.bcast(Some(bytes.to_vec()), 0));
            assert_send(&c.allgather(&bytes));
            assert_send(&c.allgather_shared(&bytes));
            assert_send(&c.reduce_u64s(&words, ReduceOp::Sum, 0));
            assert_send(&c.split(0, 0));
            assert_send(&c.split_local(0, 0, 1));
            assert_send(&c.reduce_u64(7, ReduceOp::Sum, 0));
            assert_send(&c.bcast_u64(Some(7), 0));
            assert_send(&c.gather_u64(7, 0));
            assert_send(&c.allgather_u64(7));
            assert_send(&c.allreduce_u64(7, ReduceOp::Sum));
            assert_send(&c.reduce_f64(7.0, ReduceOp::Sum, 0));
            assert_send(&c.allreduce_f64(7.0, ReduceOp::Sum));
        });
    }

    #[test]
    fn drive_ready_completes_a_one_rank_world_and_refuses_a_parked_future() {
        // A one-rank world's collectives never wait: one poll finishes them.
        let got = TaskWorld::run(1, |c| async move {
            drive_ready(async {
                c.barrier().await;
                c.allgather_u64(7).await
            })
        });
        assert_eq!(got, vec![vec![7]]);
        // A receive nobody has sent to parks, and drive_ready says so.
        let text = TaskWorld::run(2, |c| async move {
            let refused = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                drive_ready(c.recv(1 - c.rank(), 5))
            }))
            .expect_err("a parked receive must not be driven to completion");
            refused
                .downcast::<&str>()
                .expect("literal message")
                .to_string()
        });
        assert!(
            text.iter()
                .all(|t| t.contains("drive_ready: future parked")),
            "{text:?}"
        );
    }
}
