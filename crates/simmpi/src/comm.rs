//! The counters and operators every communicator shares.

use std::sync::atomic::{AtomicU64, Ordering};

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

impl ReduceOp {
    /// Combine two `u64` contributions (`Sum` wraps).
    pub(crate) fn fold(self, a: u64, b: u64) -> u64 {
        match self {
            ReduceOp::Sum => a.wrapping_add(b),
            ReduceOp::Max => a.max(b),
            ReduceOp::Min => a.min(b),
        }
    }
}

/// Live per-rank operation and byte counters for one communicator.
///
/// Each counter records how many times *the owning rank* invoked the
/// corresponding collective (or point-to-point call) on this communicator —
/// the MPI-profiling view, not a cross-rank aggregate. Runtimes that track
/// stats hand out `Arc<CommStats>` handles via
/// [`CoComm::stats`](crate::CoComm::stats); the handle
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
