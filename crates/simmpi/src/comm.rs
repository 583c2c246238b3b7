//! [`Comm`], the blocking handle of the thread-backed worlds, and the
//! counters and operators every communicator shares.

use crate::co::CoComm;
use crate::world::drive_ready;
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
/// stats hand out `Arc<CommStats>` handles via [`CoComm::stats`]; the handle
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

/// One rank's blocking handle onto a communicator: what
/// [`World`](crate::World) and [`FlatWorld`](crate::FlatWorld) hand each
/// rank.
///
/// It owns the rank's [`CoComm`] and adds nothing to it: every blocking
/// method is [`drive_ready`] of the matching [`CoComm`] call (see there for
/// each contract), which on a rank's own thread parks the thread while the
/// call waits for a peer. Protocol code written once over `&dyn CoComm`,
/// and the calls nothing makes blocking (`split_local`, `try_recv`,
/// `scatter_u64`), take [`co`](Self::co).
pub struct Comm {
    co: Box<dyn CoComm>,
}

impl Comm {
    pub(crate) fn new(co: Box<dyn CoComm>) -> Comm {
        Comm { co }
    }

    /// The resumable communicator this handle drives.
    pub fn co(&self) -> &dyn CoComm {
        self.co.as_ref()
    }

    /// This task's rank in `0..size()`.
    pub fn rank(&self) -> usize {
        self.co.rank()
    }

    /// Number of tasks in the communicator.
    pub fn size(&self) -> usize {
        self.co.size()
    }

    /// See [`CoComm::stats`].
    pub fn stats(&self) -> Option<Arc<CommStats>> {
        self.co.stats()
    }

    /// See [`CoComm::barrier`].
    pub fn barrier(&self) {
        drive_ready(self.co.barrier())
    }

    /// See [`CoComm::gather`].
    pub fn gather(&self, data: &[u8], root: usize) -> Option<Vec<Vec<u8>>> {
        drive_ready(self.co.gather(data, root))
    }

    /// See [`CoComm::scatter`].
    pub fn scatter(&self, parts: Option<Vec<Vec<u8>>>, root: usize) -> Vec<u8> {
        drive_ready(self.co.scatter(parts, root))
    }

    /// See [`CoComm::bcast`].
    pub fn bcast(&self, data: Option<Vec<u8>>, root: usize) -> Vec<u8> {
        drive_ready(self.co.bcast(data, root))
    }

    /// See [`CoComm::allgather`].
    pub fn allgather(&self, data: &[u8]) -> Vec<Vec<u8>> {
        drive_ready(self.co.allgather(data))
    }

    /// See [`CoComm::split`].
    pub fn split(&self, color: u64, key: u64) -> Comm {
        Comm::new(drive_ready(self.co.split(color, key)))
    }

    /// See [`CoComm::send`].
    pub fn send(&self, dest: usize, tag: u64, data: &[u8]) {
        self.co.send(dest, tag, data)
    }

    /// See [`CoComm::send_vec`].
    pub fn send_vec(&self, dest: usize, tag: u64, data: Vec<u8>) {
        self.co.send_vec(dest, tag, data)
    }

    /// See [`CoComm::recv`].
    pub fn recv(&self, src: usize, tag: u64) -> Vec<u8> {
        drive_ready(self.co.recv(src, tag))
    }

    /// See [`CoComm::reduce_u64`].
    pub fn reduce_u64(&self, value: u64, op: ReduceOp, root: usize) -> Option<u64> {
        drive_ready(self.co.reduce_u64(value, op, root))
    }

    /// See [`CoComm::reduce_u64s`].
    pub fn reduce_u64s(&self, values: &[u64], op: ReduceOp, root: usize) -> Option<Vec<u64>> {
        drive_ready(self.co.reduce_u64s(values, op, root))
    }

    /// See [`CoComm::reduce_f64`].
    pub fn reduce_f64(&self, value: f64, op: ReduceOp, root: usize) -> Option<f64> {
        drive_ready(self.co.reduce_f64(value, op, root))
    }

    /// See [`CoComm::gather_u64`].
    pub fn gather_u64(&self, value: u64, root: usize) -> Option<Vec<u64>> {
        drive_ready(self.co.gather_u64(value, root))
    }

    /// See [`CoComm::gather_u64s`].
    pub fn gather_u64s(&self, values: &[u64], root: usize) -> Option<Vec<Vec<u64>>> {
        drive_ready(self.co.gather_u64s(values, root))
    }

    /// See [`CoComm::bcast_u64`].
    pub fn bcast_u64(&self, value: Option<u64>, root: usize) -> u64 {
        drive_ready(self.co.bcast_u64(value, root))
    }

    /// See [`CoComm::allgather_u64`].
    pub fn allgather_u64(&self, value: u64) -> Vec<u64> {
        drive_ready(self.co.allgather_u64(value))
    }

    /// See [`CoComm::allreduce_u64`].
    pub fn allreduce_u64(&self, value: u64, op: ReduceOp) -> u64 {
        drive_ready(self.co.allreduce_u64(value, op))
    }

    /// See [`CoComm::allreduce_f64`].
    pub fn allreduce_f64(&self, value: f64, op: ReduceOp) -> f64 {
        drive_ready(self.co.allreduce_f64(value, op))
    }
}

/// Reinterpret a little-endian byte buffer as `u64`s (length must be a
/// multiple of 8).
pub(crate) fn bytes_to_u64s(bytes: &[u8]) -> Vec<u64> {
    assert_eq!(
        bytes.len() % 8,
        0,
        "u64 payload length must be a multiple of 8"
    );
    bytes
        .chunks_exact(8)
        .map(|c| u64::from_le_bytes(c.try_into().unwrap()))
        .collect()
}
