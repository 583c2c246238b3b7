//! The [`Comm`] trait: the parallel-runtime abstraction used by `sion`.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Reduction operators for the numeric convenience collectives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReduceOp {
    /// Sum of contributions.
    Sum,
    /// Element-wise maximum.
    Max,
    /// Element-wise minimum.
    Min,
}

/// Live per-rank operation and byte counters for one communicator.
///
/// Each counter records how many times *the owning rank* invoked the
/// corresponding collective (or point-to-point call) on this communicator —
/// the MPI-profiling view, not a cross-rank aggregate. Runtimes that track
/// stats hand out `Arc<CommStats>` handles via [`Comm::stats`]; the handle
/// stays live after the communicator is dropped, so callers can snapshot
/// counters around a protocol (e.g. asserting that a collective open costs
/// exactly one gather and one broadcast).
#[derive(Debug, Default)]
pub struct CommStats {
    barriers: AtomicU64,
    bcasts: AtomicU64,
    gathers: AtomicU64,
    scatters: AtomicU64,
    allgathers: AtomicU64,
    reduces: AtomicU64,
    splits: AtomicU64,
    sends: AtomicU64,
    recvs: AtomicU64,
    bytes_sent: AtomicU64,
}

macro_rules! stats_counter {
    ($($(#[$doc:meta])* $name:ident / $bump:ident),* $(,)?) => {$(
        $(#[$doc])*
        pub fn $name(&self) -> u64 {
            self.$name.load(Ordering::Relaxed)
        }

        pub(crate) fn $bump(&self) {
            self.$name.fetch_add(1, Ordering::Relaxed);
        }
    )*};
}

impl CommStats {
    stats_counter! {
        /// Barriers entered.
        barriers / bump_barrier,
        /// Broadcasts taken part in.
        bcasts / bump_bcast,
        /// Gathers taken part in.
        gathers / bump_gather,
        /// Scatters taken part in.
        scatters / bump_scatter,
        /// Allgathers taken part in.
        allgathers / bump_allgather,
        /// Rooted reductions taken part in.
        reduces / bump_reduce,
        /// Exchanged `split` calls (each counts once, regardless of the
        /// allgather it runs internally; `split_local` is not counted).
        splits / bump_split,
        /// User point-to-point sends.
        sends / bump_send,
        /// User point-to-point receives.
        recvs / bump_recv,
    }

    /// Total payload bytes this rank pushed into the transport — user
    /// sends *and* the internal tree-edge messages of collectives. An
    /// `Arc`-shared broadcast frame (the allgather down-phase) is charged
    /// once per logical payload at the rank that forwards it, however many
    /// edges its clones fan out to.
    pub fn bytes_sent(&self) -> u64 {
        self.bytes_sent.load(Ordering::Relaxed)
    }

    pub(crate) fn add_bytes(&self, n: u64) {
        self.bytes_sent.fetch_add(n, Ordering::Relaxed);
    }

    /// Total collective operations of any kind.
    pub fn collectives(&self) -> u64 {
        self.barriers()
            + self.bcasts()
            + self.gathers()
            + self.scatters()
            + self.allgathers()
            + self.reduces()
            + self.splits()
    }
}

/// A communicator: a group of tasks with collective and point-to-point
/// communication, in the image of an MPI communicator.
///
/// All collective methods must be called by **every** rank of the
/// communicator, in the same order (the usual MPI contract). Payloads are
/// raw bytes so the trait stays object-safe; typed helpers are provided on
/// top.
pub trait Comm: Send + Sync {
    /// This task's rank in `0..size()`.
    fn rank(&self) -> usize;

    /// Number of tasks in the communicator.
    fn size(&self) -> usize;

    /// Block until every rank has entered the barrier.
    fn barrier(&self);

    /// Gather each rank's buffer at `root`. Returns `Some(buffers)` (indexed
    /// by rank) at the root, `None` elsewhere. Buffers may have different
    /// lengths (gatherv semantics).
    fn gather(&self, data: &[u8], root: usize) -> Option<Vec<Vec<u8>>>;

    /// Scatter per-rank buffers from `root`. The root passes
    /// `Some(parts)` with exactly `size()` entries; other ranks pass `None`.
    /// Every rank receives its part (scatterv semantics).
    fn scatter(&self, parts: Option<Vec<Vec<u8>>>, root: usize) -> Vec<u8>;

    /// Broadcast `root`'s buffer to every rank. Only the root's `data` is
    /// consulted.
    fn bcast(&self, data: Option<Vec<u8>>, root: usize) -> Vec<u8>;

    /// Gather each rank's buffer at every rank.
    fn allgather(&self, data: &[u8]) -> Vec<Vec<u8>>;

    /// Split into disjoint sub-communicators: ranks sharing a `color` end up
    /// in the same sub-communicator, ordered by `(key, parent rank)`.
    /// Collective over the parent.
    fn split(&self, color: u64, key: u64) -> Box<dyn Comm>;

    /// [`split`](Self::split) without the exchange, for callers that can
    /// compute their own place in the result: this rank becomes rank
    /// `new_rank` of the `new_size`-rank sub-communicator `color`. Still
    /// collective over the parent and ordered with its other splits, but a
    /// runtime may form the group without sending a message. The caller
    /// guarantees that the members of each `color` agree on `new_size` and
    /// claim each rank in `0..new_size` exactly once; a runtime that
    /// detects a violation panics. The provided implementation runs the
    /// exchanged split keyed by `new_rank` and asserts that it agrees.
    fn split_local(&self, color: u64, new_rank: usize, new_size: usize) -> Box<dyn Comm> {
        let sub = self.split(color, new_rank as u64);
        assert_eq!(
            (sub.rank(), sub.size()),
            (new_rank, new_size),
            "split_local(color {color}): the exchanged split disagrees with the caller"
        );
        sub
    }

    /// Send `data` to `dest` with a matching `tag` (non-blocking buffered
    /// send).
    fn send(&self, dest: usize, tag: u64, data: &[u8]);

    /// Receive the next message from `src` with `tag` (blocking, with
    /// MPI-style message matching: other (source, tag) messages are queued).
    fn recv(&self, src: usize, tag: u64) -> Vec<u8>;

    /// Non-blocking matched receive: the next already-deliverable message
    /// from `src` with `tag`, or `None` without blocking. FIFO order per
    /// `(src, tag)` matches [`recv`](Self::recv). The default returns
    /// `None` — callers must treat that as "nothing yet" and fall back to
    /// a blocking `recv` when they need the message.
    fn try_recv(&self, src: usize, tag: u64) -> Option<Vec<u8>> {
        let _ = (src, tag);
        None
    }

    /// Live op/byte counters for this rank's view of the communicator, when
    /// the runtime tracks them (`None` otherwise). The returned handle keeps
    /// counting after the communicator is dropped.
    fn stats(&self) -> Option<Arc<CommStats>> {
        None
    }

    // ------------------------------------------------------------------
    // Typed convenience layers (provided).
    // ------------------------------------------------------------------

    /// Rooted reduction: combines one `u64` per rank with `op`; the result
    /// lands at `root` (`None` elsewhere). The provided implementation
    /// gathers and folds at the root; runtimes may override it with a
    /// combining reduction tree.
    fn reduce_u64(&self, value: u64, op: ReduceOp, root: usize) -> Option<u64> {
        self.gather_u64(value, root).map(|vals| match op {
            ReduceOp::Sum => vals.iter().sum(),
            ReduceOp::Max => vals.into_iter().max().expect("non-empty communicator"),
            ReduceOp::Min => vals.into_iter().min().expect("non-empty communicator"),
        })
    }

    /// Rooted reduction of an `f64`.
    fn reduce_f64(&self, value: f64, op: ReduceOp, root: usize) -> Option<f64> {
        let gathered = self.gather(&value.to_le_bytes(), root)?;
        let vals = gathered
            .iter()
            .map(|b| f64::from_le_bytes(b[..8].try_into().expect("f64 payload")));
        Some(match op {
            ReduceOp::Sum => vals.sum(),
            ReduceOp::Max => vals.fold(f64::NEG_INFINITY, f64::max),
            ReduceOp::Min => vals.fold(f64::INFINITY, f64::min),
        })
    }

    /// Gather one `u64` per rank at `root`.
    fn gather_u64(&self, value: u64, root: usize) -> Option<Vec<u64>> {
        self.gather(&value.to_le_bytes(), root).map(|bufs| {
            bufs.iter()
                .map(|b| u64::from_le_bytes(b[..8].try_into().expect("u64 payload")))
                .collect()
        })
    }

    /// Gather a `u64` slice per rank at `root` (concatenated per rank).
    fn gather_u64s(&self, values: &[u64], root: usize) -> Option<Vec<Vec<u64>>> {
        let bytes: Vec<u8> = values.iter().flat_map(|v| v.to_le_bytes()).collect();
        self.gather(&bytes, root).map(|bufs| bufs.iter().map(|b| bytes_to_u64s(b)).collect())
    }

    /// Scatter one `u64` to each rank from `root`.
    fn scatter_u64(&self, values: Option<Vec<u64>>, root: usize) -> u64 {
        let parts = values.map(|vs| vs.iter().map(|v| v.to_le_bytes().to_vec()).collect());
        let got = self.scatter(parts, root);
        u64::from_le_bytes(got[..8].try_into().expect("u64 payload"))
    }

    /// Broadcast one `u64` from `root`.
    fn bcast_u64(&self, value: Option<u64>, root: usize) -> u64 {
        let got = self.bcast(value.map(|v| v.to_le_bytes().to_vec()), root);
        u64::from_le_bytes(got[..8].try_into().expect("u64 payload"))
    }

    /// Allgather one `u64` per rank.
    fn allgather_u64(&self, value: u64) -> Vec<u64> {
        self.allgather(&value.to_le_bytes())
            .iter()
            .map(|b| u64::from_le_bytes(b[..8].try_into().expect("u64 payload")))
            .collect()
    }

    /// All-reduce a `u64` with `op`: a reduction to rank 0 and a broadcast
    /// of the result.
    fn allreduce_u64(&self, value: u64, op: ReduceOp) -> u64 {
        let reduced = self.reduce_u64(value, op, 0);
        self.bcast_u64(reduced, 0)
    }

    /// All-reduce an `f64` with `op`.
    fn allreduce_f64(&self, value: f64, op: ReduceOp) -> f64 {
        let all = self.allgather(&value.to_le_bytes());
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

/// Reinterpret a little-endian byte buffer as `u64`s (length must be a
/// multiple of 8).
pub(crate) fn bytes_to_u64s(bytes: &[u8]) -> Vec<u64> {
    assert_eq!(bytes.len() % 8, 0, "u64 payload length must be a multiple of 8");
    bytes
        .chunks_exact(8)
        .map(|c| u64::from_le_bytes(c.try_into().unwrap()))
        .collect()
}
