//! The tree-collective engine: per-rank mailboxes and [`CoComm`].
//!
//! This is the crate's only implementation of the log-P collectives:
//!
//! * `bcast`, `gather(v)`, `scatter(v)`, `reduce` — binomial trees rooted
//!   at the operation's root: ⌈log₂ P⌉ critical-path hops, P−1 messages.
//! * `allgather` — binomial gather to rank 0, then one `Arc`-shared frame
//!   down the same tree: 2(P−1) messages in 2⌈log₂ P⌉ rounds (total
//!   message-handling work beats a Bruck exchange's P·log P messages).
//! * `barrier` — binomial fan-in of empty messages to rank 0, then a
//!   fan-out release: 2(P−1) messages, no rendezvous primitive.
//!
//! Every one of them walks one tree type, `Tree`: a rank's vrank, its
//! parent and its children. A fan-in takes its children nearest first,
//! then sends to its parent; a fan-out takes from its parent, then sends
//! to its children farthest first (`forward` for the broadcasts, which
//! charges owned bytes per edge and a shared frame once). A scatter edge
//! carries its subtree's parts as one ascending run of vranks.
//!
//! Every collective invocation consumes one *collective sequence number*
//! (all ranks agree on it because collectives are ordered), and its
//! messages are tagged in a reserved namespace
//! (`0xC3 << 56 | kind << 48 | seq << 8 | round`, see
//! [`hook::decode_coll_tag`]) so they can never be confused with user
//! point-to-point traffic, with a neighbouring collective when fast ranks
//! run ahead, or with a *different kind* of collective at the same ordinal.
//!
//! The only blocking primitive is the [`Recv`] future: it returns
//! `Poll::Pending` until the matching send wakes it, and the executor
//! ([`super::exec`]) polls the rank's task again.
//!
//! Every parked receive registers itself in the world's pending-op table
//! ([`WorldRt`]), so a deadlock report (executor quiescence) can name
//! exactly which rank is stuck in which receive on which communicator.

use super::ParkedOp;
use crate::co::AllGathered;
use crate::comm::{CommStats, ReduceOp};
use crate::hook::{self, coll_tag, CheckHook, CollKind, CommCtx, HookEvent, LeakedMsg};
use crate::wire::{frame, unframe, FrameCut};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::collections::VecDeque;
use std::future::Future;
use std::pin::Pin;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::task::{Context, Poll, Waker};

/// A mailbox payload: owned bytes for point-to-point and fan-in traffic,
/// or an `Arc` share of one buffer when the same bytes go to many
/// destinations (the allgather down-phase, where per-edge copies of an
/// O(P)-byte frame would make the collective O(P²) in total bytes).
/// Sharing is visible to the byte accounting: [`CommStats`] charges a
/// shared frame **once per logical payload** at the rank that forwards
/// it, however many edges the `Arc` clone fans out to, and the mailbox
/// byte gauges charge owned bytes only — an `Arc` clone adds no queued
/// payload memory. The world-wide logical volume moved this way is
/// tracked separately as `shared_frame_bytes` on [`WorldRt`].
#[derive(Clone)]
enum MsgBuf {
    Owned(Vec<u8>),
    Shared(Arc<Vec<u8>>),
}

impl MsgBuf {
    /// Extract owned bytes; free for `Owned` and for the last holder of a
    /// `Shared` buffer, one copy otherwise.
    fn into_vec(self) -> Vec<u8> {
        match self {
            MsgBuf::Owned(v) => v,
            MsgBuf::Shared(a) => Arc::try_unwrap(a).unwrap_or_else(|a| (*a).clone()),
        }
    }

    fn into_shared(self) -> Arc<Vec<u8>> {
        match self {
            MsgBuf::Owned(v) => Arc::new(v),
            MsgBuf::Shared(a) => a,
        }
    }

    /// Bytes this payload pins in a mailbox queue: a shared clone pins
    /// nothing beyond the one buffer all clones point at, so only owned
    /// payloads count toward the mailbox byte gauge. Applied identically
    /// at enqueue and dequeue so the gauge balances to zero.
    fn mbox_charge(&self) -> u64 {
        match self {
            MsgBuf::Owned(v) => v.len() as u64,
            MsgBuf::Shared(_) => 0,
        }
    }

    /// Bytes [`CommStats`] charges for the `nth` edge (0-based) a fan-out
    /// sends this payload down: owned bytes per edge, each edge being a
    /// copy; a shared frame once, on its first edge, since every further
    /// edge is one more `Arc` clone of the same buffer.
    fn edge_charge(&self, nth: usize) -> u64 {
        match self {
            MsgBuf::Owned(v) => v.len() as u64,
            MsgBuf::Shared(a) if nth == 0 => a.len() as u64,
            MsgBuf::Shared(_) => 0,
        }
    }
}

impl std::ops::Deref for MsgBuf {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        match self {
            MsgBuf::Owned(v) => v,
            MsgBuf::Shared(a) => a,
        }
    }
}

impl From<Vec<u8>> for MsgBuf {
    fn from(v: Vec<u8>) -> MsgBuf {
        MsgBuf::Owned(v)
    }
}

impl From<Arc<Vec<u8>>> for MsgBuf {
    fn from(a: Arc<Vec<u8>>) -> MsgBuf {
        MsgBuf::Shared(a)
    }
}

type Message = (usize, u64, MsgBuf);

/// One parked matched receive (collective round edges included), as a
/// rank registers it while its [`Recv`] future is `Pending`: plain words,
/// the communicator by its number in the world's registry, so parking
/// writes nothing but the rank's own pending slot.
#[derive(Clone, Copy, PartialEq)]
struct ParkedRecv {
    comm: usize,
    comm_rank: usize,
    src: usize,
    tag: u64,
}

/// Per-world runtime state shared by every communicator of one task world:
/// the pending-op table (indexed by *world* rank, so registration is a
/// single per-rank lock), the abort flag that silences teardown checks
/// once the world is being torn down early, and the mailbox high-water
/// marks reported in [`SchedStats`](super::SchedStats).
pub(crate) struct WorldRt {
    pending: Vec<Mutex<Option<ParkedRecv>>>,
    /// Every communicator of the world, indexed by [`CoShared::comm_no`].
    comms: Mutex<Vec<CommCtx>>,
    aborting: AtomicBool,
    peak_mbox_msgs: AtomicU64,
    peak_mbox_bytes: AtomicU64,
    /// Logical bytes moved as `Arc`-shared broadcast frames, counted once
    /// per frame at the broadcast root (not once per edge clone).
    shared_frame_bytes: AtomicU64,
}

impl WorldRt {
    pub(crate) fn new(ntasks: usize) -> WorldRt {
        WorldRt {
            pending: (0..ntasks).map(|_| Mutex::new(None)).collect(),
            comms: Mutex::new(Vec::new()),
            aborting: AtomicBool::new(false),
            peak_mbox_msgs: AtomicU64::new(0),
            peak_mbox_bytes: AtomicU64::new(0),
            shared_frame_bytes: AtomicU64::new(0),
        }
    }

    fn note_shared_frame(&self, bytes: u64) {
        self.shared_frame_bytes.fetch_add(bytes, Ordering::Relaxed);
    }

    /// Logical bytes moved as `Arc`-shared broadcast frames so far,
    /// surfaced in [`SchedStats`](super::SchedStats).
    pub(crate) fn shared_frame_bytes(&self) -> u64 {
        self.shared_frame_bytes.load(Ordering::Relaxed)
    }

    pub(crate) fn abort(&self) {
        self.aborting.store(true, Ordering::SeqCst);
    }

    pub(crate) fn is_aborting(&self) -> bool {
        self.aborting.load(Ordering::SeqCst)
    }

    /// Raise the mailbox high-water marks. Called on every delivery, so
    /// it reads first: a mark that already covers the delivery costs no
    /// write to the line all ranks share.
    fn note_mbox(&self, msgs: u64, bytes: u64) {
        if msgs > self.peak_mbox_msgs.load(Ordering::Relaxed) {
            self.peak_mbox_msgs.fetch_max(msgs, Ordering::Relaxed);
        }
        if bytes > self.peak_mbox_bytes.load(Ordering::Relaxed) {
            self.peak_mbox_bytes.fetch_max(bytes, Ordering::Relaxed);
        }
    }

    pub(crate) fn mbox_peaks(&self) -> (u64, u64) {
        (
            self.peak_mbox_msgs.load(Ordering::Relaxed),
            self.peak_mbox_bytes.load(Ordering::Relaxed),
        )
    }

    /// Number a new communicator of this world.
    fn register(&self, ctx: &CommCtx) -> usize {
        let mut comms = self.comms.lock();
        comms.push(ctx.clone());
        comms.len() - 1
    }

    fn pending(&self, world_rank: usize) -> &Mutex<Option<ParkedRecv>> {
        &self.pending[world_rank]
    }

    /// The parked operations of every still-blocked task, in world-rank
    /// order, their communicators resolved — the body of a deadlock report.
    pub(crate) fn snapshot_pending(&self) -> Vec<ParkedOp> {
        let comms = self.comms.lock();
        self.pending
            .iter()
            .enumerate()
            .filter_map(|(world_rank, slot)| {
                let p = slot.lock().take()?;
                Some(ParkedOp {
                    world_rank,
                    comm: comms[p.comm].name.to_string(),
                    op: format!(
                        "recv(src={}, tag={}) as rank {}",
                        p.src,
                        hook::describe_tag(p.tag),
                        p.comm_rank
                    ),
                })
            })
            .collect()
    }
}

/// One rank's place in the binomial tree every collective walks: vrank
/// `v` of a tree over `size` ranks rooted at real rank `root`, where real
/// rank `r` is vrank `(r - root) mod size`. A vrank's parent is the vrank
/// with its lowest set bit cleared; its children are `v + 2^k` for every
/// `2^k` below that bit (below `size` rounded up to a power of two at the
/// root) that is still in the tree.
///
/// Two rules give every collective its message order. A fan-in takes its
/// children nearest first, then sends to its parent; a fan-out takes from
/// its parent, then sends to its children farthest first.
struct Tree {
    v: usize,
    size: usize,
    root: usize,
}

impl Tree {
    /// Real rank of vrank `v`.
    fn real(&self, v: usize) -> usize {
        (v + self.root) % self.size
    }

    /// The parent's real rank; `None` at the root.
    fn parent(&self) -> Option<usize> {
        (self.v != 0).then(|| self.real(self.v & (self.v - 1)))
    }

    /// Span of vranks this node's subtree may cover: its lowest set bit,
    /// or the whole tree rounded up to a power of two at the root.
    fn span(&self) -> usize {
        match self.v {
            0 => self.size.next_power_of_two(),
            v => v & v.wrapping_neg(),
        }
    }

    /// The children's vranks, nearest first (`v + 1`, `v + 2`, `v + 4`,
    /// …); `.rev()` gives a fan-out's order.
    fn children(&self) -> impl DoubleEndedIterator<Item = usize> {
        let (v, size) = (self.v, self.size);
        // A `u32` count: a parked fan-in holds this iterator, and a
        // `Range<u32>` keeps its future a word smaller.
        let n = (0..self.span().trailing_zeros())
            .take_while(|k| v + (1 << k) < size)
            .count() as u32;
        (0..n).map(move |k| v + (1 << k))
    }

    /// Number of vranks in this node's subtree, itself included.
    fn subtree(&self) -> usize {
        self.span().min(self.size - self.v)
    }
}

/// One rank's point-to-point mailbox. The queue doubles as the stash: a
/// receive scans it for the first (src, tag) match, so non-matching
/// messages simply stay put until their own receive comes along.
struct Mbox {
    queue: VecDeque<Message>,
    bytes: u64,
    /// The rank's single in-flight receive, when parked. One slot
    /// suffices: a rank awaits at most one receive at a time.
    waiting: Option<(usize, u64, Waker)>,
}

impl Mbox {
    /// An empty mailbox. It allocates nothing until its first delivery:
    /// a communicator's creator builds every member's mailbox while the
    /// others wait on the split, and most of them hold one or two tree
    /// messages at a time.
    fn new() -> Mbox {
        Mbox {
            queue: VecDeque::new(),
            bytes: 0,
            waiting: None,
        }
    }

    /// Take the first queued `(src, tag)` match, if any.
    fn take(&mut self, src: usize, tag: u64) -> Option<MsgBuf> {
        let pos = self
            .queue
            .iter()
            .position(|(s, t, _)| *s == src && *t == tag)?;
        let (_, _, payload) = self.queue.remove(pos).expect("position valid");
        self.bytes -= payload.mbox_charge();
        Some(payload)
    }
}

/// Matched-receive future on one rank's mailbox; the engine's only parking
/// point. The `Ready` transition reports the completed match
/// ([`HookEvent::RecvDone`]) exactly once, wherever it is awaited; a drop
/// while parked withdraws the receive.
struct Recv<'a> {
    comm: &'a CoComm,
    src: usize,
    tag: u64,
    parked: bool,
}

impl Recv<'_> {
    /// This receive as its pending-table entry.
    fn entry(&self) -> ParkedRecv {
        ParkedRecv {
            comm: self.comm.shared.comm_no,
            comm_rank: self.comm.rank,
            src: self.src,
            tag: self.tag,
        }
    }

    /// Take the match or park: arm the mailbox waker and register in the
    /// pending table.
    fn poll_take(&mut self, cx: &mut Context<'_>) -> Poll<MsgBuf> {
        let c = self.comm;
        let pending = c.shared.world.pending(c.world_rank);
        let mut mb = c.shared.mboxes[c.rank].lock();
        if let Some(payload) = mb.take(self.src, self.tag) {
            drop(mb);
            if self.parked {
                self.parked = false;
                *pending.lock() = None;
            }
            return Poll::Ready(payload);
        }
        mb.waiting = Some((self.src, self.tag, cx.waker().clone()));
        drop(mb);
        // Register for the deadlock report after arming the waker: if the
        // world quiesces with this entry in place, this receive is what the
        // rank is stuck on.
        *pending.lock() = Some(self.entry());
        self.parked = true;
        Poll::Pending
    }
}

impl Drop for Recv<'_> {
    /// Withdraw a parked receive: its pending-table entry, so a deadlock
    /// report never names a receive nobody awaits, and its mailbox waker,
    /// so a later send to this `(src, tag)` wakes no task for it. Left in
    /// place while the world aborts: the executor drops the futures of a
    /// deadlocked world before the report reads the table.
    fn drop(&mut self) {
        let c = self.comm;
        if !self.parked || c.shared.world.is_aborting() {
            return;
        }
        {
            let mut mb = c.shared.mboxes[c.rank].lock();
            if matches!(&mb.waiting, Some((s, t, _)) if (*s, *t) == (self.src, self.tag)) {
                mb.waiting = None;
            }
        }
        let mut slot = c.shared.world.pending(c.world_rank).lock();
        if *slot == Some(self.entry()) {
            *slot = None;
        }
    }
}

impl Future for Recv<'_> {
    type Output = MsgBuf;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<MsgBuf> {
        let this = self.get_mut();
        let c = this.comm;
        let payload = std::task::ready!(this.poll_take(cx));
        if let Some(h) = &c.shared.hook {
            let (comm, rank, src, tag) = (&c.shared.ctx, c.rank, this.src, this.tag);
            h.on_event(&HookEvent::RecvDone {
                comm,
                rank,
                src,
                tag,
                payload: &payload,
            });
        }
        Poll::Ready(payload)
    }
}

/// A sub-communicator under construction: members find its shared state in
/// the parent's `splits` map, and the last one to attach retires the entry.
struct SplitGroup {
    /// One handle on the group's shared state per new rank, cloned by the
    /// creating member, so a joining member moves its own out instead of
    /// bumping the reference count every member shares.
    handles: Vec<Option<Arc<CoShared>>>,
    /// Parent rank that claimed each new rank (`usize::MAX`: unclaimed);
    /// its length is the group size the creating member declared.
    claimed: Vec<usize>,
    /// Parent rank of the creating member, named when a later member
    /// disagrees about the group size.
    creator: usize,
    attached: usize,
}

/// State shared by every rank of one communicator: the mailboxes, the
/// split-construction rendezvous, the communicator's deterministic
/// identity, and the optional check hook — collectives need no shared
/// payload storage of their own.
pub(crate) struct CoShared {
    size: usize,
    ctx: CommCtx,
    /// This communicator's number in the world's registry.
    comm_no: usize,
    hook: Option<Arc<dyn CheckHook>>,
    world: Arc<WorldRt>,
    mboxes: Vec<Mutex<Mbox>>,
    /// Groups under construction, in shards by color: ranks joining
    /// different groups — typically on different workers, since tasks
    /// start in rank blocks — take different locks.
    splits: Vec<Mutex<HashMap<(u64, u64), SplitGroup>>>,
}

/// Shards of a communicator's split rendezvous map.
const SPLIT_SHARDS: usize = 16;

impl CoShared {
    fn new(ctx: CommCtx, hook: Option<Arc<dyn CheckHook>>, world: Arc<WorldRt>) -> CoShared {
        assert!(ctx.size > 0, "communicator must have at least one rank");
        let size = ctx.size;
        CoShared {
            size,
            comm_no: world.register(&ctx),
            ctx,
            hook,
            world,
            mboxes: (0..size).map(|_| Mutex::new(Mbox::new())).collect(),
            splits: (0..SPLIT_SHARDS).map(|_| Mutex::default()).collect(),
        }
    }
}

/// One rank's handle onto a communicator: a group of tasks with collective
/// and point-to-point communication, in the image of an MPI communicator,
/// whose waiting operations are futures. Rank tasks `.await` them on the
/// executor.
///
/// All collective methods must be called by **every** rank of the
/// communicator, in the same order (the usual MPI contract), and each
/// returned future must be driven to completion before the rank starts its
/// next operation (the protocol layer simply `.await`s them in sequence).
/// Payloads are raw bytes; the typed helpers ([`bcast_u64`](Self::bcast_u64),
/// [`allreduce_u64`](Self::allreduce_u64), …) are built on them in `co.rs`.
pub struct CoComm {
    rank: usize,
    /// Rank in the *world* communicator — the pending-table index, stable
    /// across splits.
    world_rank: usize,
    shared: Arc<CoShared>,
    /// Count of collective calls on this handle; since collectives are
    /// ordered, all ranks agree on it, making it a safe tag ingredient.
    coll_seq: AtomicU64,
    /// Per-rank count of `split`/`split_local` calls on this communicator
    /// (same ordering argument), keying the split rendezvous map.
    split_seq: AtomicU64,
    /// This rank's op/byte counters for this communicator.
    stats: Arc<CommStats>,
}

impl CoComm {
    fn new(rank: usize, world_rank: usize, shared: Arc<CoShared>) -> CoComm {
        CoComm {
            rank,
            world_rank,
            shared,
            coll_seq: AtomicU64::new(0),
            split_seq: AtomicU64::new(0),
            stats: Arc::new(CommStats::default()),
        }
    }

    /// A fresh world of `ntasks` ranks: its runtime state and one handle
    /// per rank, in rank order.
    pub(crate) fn world(
        ntasks: usize,
        hook: Option<Arc<dyn CheckHook>>,
    ) -> (Arc<WorldRt>, Vec<CoComm>) {
        let world = Arc::new(WorldRt::new(ntasks));
        let shared = Arc::new(CoShared::new(
            CommCtx::new("world".into(), ntasks),
            hook,
            world.clone(),
        ));
        let comms = (0..ntasks)
            .map(|r| CoComm::new(r, r, shared.clone()))
            .collect();
        (world, comms)
    }

    /// Claim the next collective sequence number.
    fn next_seq(&self) -> u64 {
        self.coll_seq.fetch_add(1, Ordering::Relaxed)
    }

    /// Report a collective entry to the hook, if one is installed.
    fn note_collective(&self, seq: u64, kind: CollKind, root: Option<usize>) {
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
    }

    /// This rank's place in the tree rooted at `root`.
    fn tree(&self, root: usize) -> Tree {
        let size = self.shared.size;
        Tree {
            v: (self.rank + size - root) % size,
            size,
            root,
        }
    }

    /// Internal send along a tree edge (not counted as a user send).
    fn isend(&self, dest: usize, tag: u64, payload: impl Into<MsgBuf>) {
        let payload = payload.into();
        self.stats.add_bytes(payload.len() as u64);
        self.isend_uncharged(dest, tag, payload);
    }

    /// [`Self::isend`] without the byte charge, which [`Self::forward`]
    /// takes from [`MsgBuf::edge_charge`]. Delivers the message and wakes
    /// the destination if it is parked on a match.
    fn isend_uncharged(&self, dest: usize, tag: u64, payload: MsgBuf) {
        if let Some(h) = &self.shared.hook {
            let (comm, from) = (&self.shared.ctx, self.rank);
            h.on_event(&HookEvent::Send {
                comm,
                from,
                to: dest,
                tag,
                payload: &payload,
            });
        }
        let waker = {
            let mut mb = self.shared.mboxes[dest].lock();
            mb.bytes += payload.mbox_charge();
            self.shared
                .world
                .note_mbox(mb.queue.len() as u64 + 1, mb.bytes);
            mb.queue.push_back((self.rank, tag, payload));
            match &mb.waiting {
                Some((s, t, _)) if *s == self.rank && *t == tag => {
                    mb.waiting.take().map(|(_, _, w)| w)
                }
                _ => None,
            }
        };
        // Wake outside the mailbox lock; the wake enqueues the
        // destination's task into the executor.
        if let Some(w) = waker {
            w.wake();
        }
    }

    /// A fan-out's sends: `buf` down every child edge of `t`, farthest
    /// child first, each edge a copy of owned bytes or one more `Arc`
    /// clone of a shared frame, charged by [`MsgBuf::edge_charge`].
    fn forward(&self, t: &Tree, tag: u64, buf: &MsgBuf) {
        for (nth, child) in t.children().rev().enumerate() {
            self.stats.add_bytes(buf.edge_charge(nth));
            self.isend_uncharged(t.real(child), tag, buf.clone());
        }
    }

    /// Internal matched receive (not counted as a user receive).
    fn irecv(&self, src: usize, tag: u64) -> Recv<'_> {
        Recv {
            comm: self,
            src,
            tag,
            parked: false,
        }
    }

    /// Broadcast an already-framed allgather result down the vrank-0 tree,
    /// sharing one refcounted buffer across all P−1 edges instead of
    /// copying the O(P)-byte frame per edge — the step that makes
    /// allgather (and with it `split`) linear instead of quadratic in
    /// total bytes. Wire tags are identical to [`Self::bcast`] rooted
    /// at 0; the byte counters are not per-edge: a forwarding rank charges
    /// its [`CommStats`] once per logical payload, however many children
    /// its `Arc` clones fan out to, and the world counts each frame once
    /// at the root as `shared_frame_bytes`.
    async fn bcast_frame_impl(
        &self,
        data: Option<Vec<u8>>,
        seq: u64,
        kind: CollKind,
    ) -> Arc<Vec<u8>> {
        let t = self.tree(0); // rooted at rank 0, like the allgather up-phase
        let tag = coll_tag(kind, seq, 0);
        let buf = match t.parent() {
            Some(parent) => self.irecv(parent, tag).await,
            None => {
                let data = data.expect("root must supply bcast data");
                self.shared.world.note_shared_frame(data.len() as u64);
                MsgBuf::Shared(Arc::new(data))
            }
        };
        self.forward(&t, tag, &buf);
        buf.into_shared()
    }

    /// Binomial-tree gather body: each edge carries the sender's whole
    /// subtree as framed (vrank, payload) pairs — a leaf sends exactly its
    /// own payload, nothing is deposited or cloned beyond what its tree
    /// edge needs.
    async fn gather_impl(
        &self,
        data: &[u8],
        root: usize,
        seq: u64,
        kind: CollKind,
    ) -> Option<Vec<Vec<u8>>> {
        let t = self.tree(root);
        let tag = coll_tag(kind, seq, 0);
        // Pre-sized to this vrank's exact binomial subtree: the
        // accumulator never reallocates on the way up.
        let mut acc: Vec<(u64, Vec<u8>)> = Vec::with_capacity(t.subtree());
        acc.push((t.v as u64, data.to_vec()));
        for child in t.children() {
            let got = self.irecv(t.real(child), tag).await;
            acc.extend(unframe(&got));
        }
        if let Some(parent) = t.parent() {
            let entries = acc.iter().map(|(id, p)| (*id, p.as_slice()));
            self.isend(parent, tag, frame(entries));
            return None;
        }
        // Every vrank arrives at the root exactly once; place by real rank.
        let mut out = vec![Vec::new(); t.size];
        for (vr, payload) in acc {
            out[t.real(vr as usize)] = payload;
        }
        Some(out)
    }

    /// Allgather with a shared result: tree gather to vrank 0, one frame
    /// built there, then `Arc` clones of that frame down the tree — 2(P−1)
    /// messages in 2·log P rounds, every rank scanning the same buffer. A
    /// dissemination (Bruck) exchange would halve the critical-path round
    /// count but costs P·log P messages; in-process, total message-handling
    /// work, not network depth, is the scarce resource, and 2(P−1) won
    /// when both were measured (DESIGN.md §4b).
    async fn allgather_arc_impl(
        &self,
        data: &[u8],
        seq_up: u64,
        seq_down: u64,
        kind: CollKind,
    ) -> AllGathered {
        let framed = self.gather_impl(data, 0, seq_up, kind).await.map(|parts| {
            frame(
                parts
                    .iter()
                    .enumerate()
                    .map(|(r, p)| (r as u64, p.as_slice())),
            )
        });
        AllGathered::from_frame(self.bcast_frame_impl(framed, seq_down, kind).await)
    }

    /// Join sub-communicator `color` of this rank's next split generation
    /// as rank `new_rank` of `new_size` — the one construction path behind
    /// both the exchanged [`split`](Self::split) and
    /// [`split_local`](Self::split_local). No message is
    /// sent: the first member to arrive creates the group's shared state
    /// in the parent's `splits` map, with one handle per new rank, every
    /// member moves its own handle out, and the last one removes the
    /// entry, so the map holds only groups
    /// still being formed. Split calls are collective and ordered, so every
    /// rank's `split_seq` names the same generation; the child's identity
    /// is derived structurally (parent name, generation, color), so every
    /// member — and every run — agrees on it.
    ///
    /// Panics, naming both parent ranks, when two members claim the same
    /// new rank or disagree about the group size.
    fn attach(&self, color: u64, new_rank: usize, new_size: usize) -> CoComm {
        let split_no = self.split_seq.fetch_add(1, Ordering::Relaxed) + 1;
        let key = (split_no, color);
        let joined = {
            let mut splits = self.shared.splits[color as usize % SPLIT_SHARDS].lock();
            let group = splits.entry(key).or_insert_with(|| SplitGroup {
                handles: vec![
                    Some(Arc::new(CoShared::new(
                        self.shared.ctx.child(split_no, color, new_size),
                        self.shared.hook.clone(),
                        self.shared.world.clone(),
                    )));
                    new_size
                ],
                claimed: vec![usize::MAX; new_size],
                creator: self.rank,
                attached: 0,
            });
            let size = group.claimed.len();
            if new_size != size {
                Err(format!(
                    "parent rank {} declares group size {new_size}, parent rank {} created the \
                     group with size {size}",
                    self.rank, group.creator
                ))
            } else if new_rank >= size {
                Err(format!(
                    "parent rank {} claims rank {new_rank} of a group of {size}",
                    self.rank
                ))
            } else if group.claimed[new_rank] != usize::MAX {
                Err(format!(
                    "parent ranks {} and {} both claim rank {new_rank}",
                    group.claimed[new_rank], self.rank
                ))
            } else {
                group.claimed[new_rank] = self.rank;
                group.attached += 1;
                let shared = group.handles[new_rank]
                    .take()
                    .expect("an unclaimed rank's handle");
                if group.attached == size {
                    splits.remove(&key);
                }
                Ok(shared)
            }
        };
        match joined {
            Ok(sub) => CoComm::new(new_rank, self.world_rank, sub),
            Err(why) => panic!(
                "split #{split_no} of comm \"{}\", color {color}: {why}",
                self.shared.ctx.name
            ),
        }
    }

    /// Sub-communicators of this communicator still being formed.
    #[cfg(test)]
    pub(crate) fn splits_in_flight(&self) -> usize {
        self.shared.splits.iter().map(|s| s.lock().len()).sum()
    }
}

/// The communicator's API: what protocol code calls. Every collective
/// claims its sequence number(s) and reports its entry to the hook before
/// the first message of its tree moves.
impl CoComm {
    /// This task's rank in `0..size()`.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Number of tasks in the communicator.
    pub fn size(&self) -> usize {
        self.shared.size
    }

    /// Live op/byte counters for this rank's view of the communicator. The
    /// returned handle keeps counting after the communicator is dropped.
    pub fn stats(&self) -> Arc<CommStats> {
        self.stats.clone()
    }

    /// Buffered send of `data` to `dest` with a matching `tag`, by move: the
    /// receiver's [`recv`](Self::recv) or [`try_recv`](Self::try_recv) gets
    /// this very allocation, so a sender that built its message in place
    /// (an aggregation frame) is never copied. Never parks, so it stays
    /// synchronous. Tags in the reserved `0xC3` collective namespace (and
    /// the `0xA6`/`0xA7` aggregation namespaces outside the aggregation
    /// protocol) panic. Checkers see the payload as before: one
    /// [`HookEvent::Send`] carrying its bytes, so the ship/ack frame
    /// contract of [`AGG_SHIP_TAG_PREFIX`](crate::AGG_SHIP_TAG_PREFIX) is
    /// unchanged.
    pub fn send_vec(&self, dest: usize, tag: u64, data: Vec<u8>) {
        assert!(dest < self.shared.size, "send dest {dest} out of range");
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
        self.isend(dest, tag, data);
    }

    /// [`send_vec`](Self::send_vec) of a copy of borrowed bytes — for
    /// callers that keep their buffer: one send path, one set of checks.
    pub fn send(&self, dest: usize, tag: u64, data: &[u8]) {
        self.send_vec(dest, tag, data.to_vec())
    }

    /// Receive the next message from `src` with `tag`, with MPI-style
    /// message matching (other (source, tag) messages are queued); parks
    /// until a match is deliverable. Dropping the future while it is parked
    /// withdraws the receive.
    pub async fn recv(&self, src: usize, tag: u64) -> Vec<u8> {
        assert!(src < self.shared.size, "recv src {src} out of range");
        self.stats.bump_recv();
        self.irecv(src, tag).await.into_vec()
    }

    /// Non-blocking matched receive: the next already-deliverable
    /// `(src, tag)` message, or `None` without parking. FIFO order per
    /// `(src, tag)` matches [`recv`](Self::recv).
    pub fn try_recv(&self, src: usize, tag: u64) -> Option<Vec<u8>> {
        assert!(src < self.shared.size, "try_recv src {src} out of range");
        let payload = self.shared.mboxes[self.rank].lock().take(src, tag);
        if let Some(h) = &self.shared.hook {
            let (comm, rank) = (&self.shared.ctx, self.rank);
            h.on_event(&HookEvent::TryRecv {
                comm,
                rank,
                src,
                tag,
                hit: payload.is_some(),
            });
            if let Some(p) = &payload {
                h.on_event(&HookEvent::RecvDone {
                    comm,
                    rank,
                    src,
                    tag,
                    payload: p,
                });
            }
        }
        let payload = payload?;
        self.stats.bump_recv();
        Some(payload.into_vec())
    }

    /// Parks until every rank has entered the barrier: a binomial fan-in
    /// of empty messages to rank 0, then a binomial fan-out release.
    pub async fn barrier(&self) {
        self.stats.bump_barrier();
        let seq = self.next_seq();
        self.note_collective(seq, CollKind::Barrier, None);
        // Round 0 is the fan-in, round 1 the release.
        let tag = move |round| coll_tag(CollKind::Barrier, seq, round);
        let t = self.tree(0);
        for child in t.children() {
            self.irecv(t.real(child), tag(0)).await;
        }
        // The release comes from the parent the fan-in went to.
        let release = match t.parent() {
            Some(parent) => {
                self.isend(parent, tag(0), Vec::new());
                self.irecv(parent, tag(1)).await
            }
            None => MsgBuf::Owned(Vec::new()),
        };
        self.forward(&t, tag(1), &release);
    }

    /// Gather each rank's buffer at `root`: `Some(buffers)` (indexed by
    /// rank) at the root, `None` elsewhere. Buffers may have different
    /// lengths (gatherv semantics).
    pub async fn gather(&self, data: &[u8], root: usize) -> Option<Vec<Vec<u8>>> {
        assert!(root < self.shared.size, "gather root {root} out of range");
        self.stats.bump_gather();
        let seq = self.next_seq();
        self.note_collective(seq, CollKind::Gather, Some(root));
        self.gather_impl(data, root, seq, CollKind::Gather).await
    }

    /// Scatter per-rank buffers from `root`. The root passes `Some(parts)`
    /// with exactly `size()` entries; other ranks pass `None`. Every rank
    /// receives its part (scatterv semantics).
    ///
    /// The root's parts flow down a binomial tree, each edge carrying only
    /// the receiver's subtree as one ascending run of vranks. The root
    /// frames each child's parts straight from `parts`; every other node
    /// splices its children's frames out of the one it received
    /// (`FrameCut`), so no entry is decoded on the way.
    pub async fn scatter(&self, parts: Option<Vec<Vec<u8>>>, root: usize) -> Vec<u8> {
        assert!(root < self.shared.size, "scatter root {root} out of range");
        self.stats.bump_scatter();
        let seq = self.next_seq();
        self.note_collective(seq, CollKind::Scatter, Some(root));
        let t = self.tree(root);
        let tag = coll_tag(CollKind::Scatter, seq, 0);
        let Some(parent) = t.parent() else {
            let mut parts = parts.expect("root must supply scatter parts");
            assert_eq!(parts.len(), t.size, "scatter needs one part per rank");
            // Each child takes the vranks [child, end) still held.
            let mut end = t.size;
            for child in t.children().rev() {
                let entries = (child..end).map(|v| (v as u64, parts[t.real(v)].as_slice()));
                self.isend(t.real(child), tag, frame(entries));
                end = child;
            }
            return std::mem::take(&mut parts[root]);
        };
        let mut held = FrameCut::new(self.irecv(parent, tag).await.into_vec());
        for child in t.children().rev() {
            self.isend(t.real(child), tag, held.split_off(child as u64));
        }
        held.into_single()
    }

    /// Broadcast `root`'s buffer to every rank down a binomial tree. Only
    /// the root's `data` is consulted.
    pub async fn bcast(&self, data: Option<Vec<u8>>, root: usize) -> Vec<u8> {
        assert!(root < self.shared.size, "bcast root {root} out of range");
        self.stats.bump_bcast();
        let seq = self.next_seq();
        self.note_collective(seq, CollKind::Bcast, Some(root));
        let t = self.tree(root);
        let tag = coll_tag(CollKind::Bcast, seq, 0);
        let buf = match t.parent() {
            Some(parent) => self.irecv(parent, tag).await,
            None => MsgBuf::Owned(data.expect("root must supply bcast data")),
        };
        self.forward(&t, tag, &buf);
        buf.into_vec()
    }

    /// Gather every rank's buffer at every rank: [`allgather_shared`]
    /// materialized as per-rank vectors.
    ///
    /// [`allgather_shared`]: Self::allgather_shared
    pub async fn allgather(&self, data: &[u8]) -> Vec<Vec<u8>> {
        self.allgather_shared(data).await.to_parts()
    }

    /// [`allgather`](Self::allgather) into one shared, scan-in-place result
    /// (see [`AllGathered`]) — same semantics, collective contract, and
    /// [`CommStats`] accounting, but every rank holds an `Arc` clone of a
    /// single frame.
    pub async fn allgather_shared(&self, data: &[u8]) -> AllGathered {
        self.stats.bump_allgather();
        let seq_up = self.next_seq();
        let seq_down = self.next_seq();
        self.note_collective(seq_up, CollKind::Allgather, None);
        self.allgather_arc_impl(data, seq_up, seq_down, CollKind::Allgather)
            .await
    }

    /// Rooted reduction of a word slice: every rank passes the same number
    /// of words, and word `i` of the result, which lands at `root` (`None`
    /// elsewhere), combines word `i` of every rank with `op`. A combining
    /// binomial fan-in: each tree edge carries one partial result of the
    /// slice's length, not the subtree's values.
    pub async fn reduce_u64s(&self, values: &[u64], op: ReduceOp, root: usize) -> Option<Vec<u64>> {
        assert!(root < self.shared.size, "reduce root {root} out of range");
        self.stats.bump_reduce();
        let seq = self.next_seq();
        self.note_collective(seq, CollKind::Reduce, Some(root));
        let t = self.tree(root);
        let tag = coll_tag(CollKind::Reduce, seq, 0);
        // Boxed: the accumulator never changes length, and a box is a word
        // smaller than a `Vec` in the future of every rank parked here.
        let mut acc = Box::<[u64]>::from(values);
        for child in t.children() {
            let got = self.irecv(t.real(child), tag).await;
            assert_eq!(
                got.len(),
                8 * acc.len(),
                "reduce_u64s: ranks passed different word counts"
            );
            for (a, w) in acc.iter_mut().zip(got.chunks_exact(8)) {
                *a = op.fold(*a, u64::from_le_bytes(w.try_into().unwrap()));
            }
        }
        if let Some(parent) = t.parent() {
            let bytes: Vec<u8> = acc.iter().flat_map(|w| w.to_le_bytes()).collect();
            self.isend(parent, tag, bytes);
            return None;
        }
        Some(acc.into_vec())
    }

    /// Split into disjoint sub-communicators: ranks sharing a `color` end up
    /// in the same sub-communicator, ordered by `(key, parent rank)`.
    /// Collective over the parent.
    pub async fn split(&self, color: u64, key: u64) -> CoComm {
        self.stats.bump_split();
        // Determine group membership: allgather (color, key, rank). Counted
        // as part of the split, not as a separate allgather.
        let seq_up = self.next_seq();
        let seq_down = self.next_seq();
        self.note_collective(seq_up, CollKind::Split, None);
        let mut payload = Vec::with_capacity(24);
        payload.extend_from_slice(&color.to_le_bytes());
        payload.extend_from_slice(&key.to_le_bytes());
        payload.extend_from_slice(&(self.rank as u64).to_le_bytes());
        // Scan the shared frame in place. A rank only needs its group's
        // *size* and its own *position* in the (key, rank) order; since
        // ranks are unique, position = how many same-color entries sort
        // before us. One allocation-free O(P) pass replaces the
        // collect-and-sort (whose per-rank O(group) member vector was the
        // dominant cost of a 32Ki-rank open: P such vectors per split).
        let all = self
            .allgather_arc_impl(&payload, seq_up, seq_down, CollKind::Split)
            .await;
        let me = (key, self.rank as u64);
        let mut new_size = 0usize;
        let mut new_rank = 0usize;
        for b in all.iter() {
            let c = u64::from_le_bytes(b[0..8].try_into().unwrap());
            if c != color {
                continue;
            }
            let k = u64::from_le_bytes(b[8..16].try_into().unwrap());
            let r = u64::from_le_bytes(b[16..24].try_into().unwrap());
            new_size += 1;
            if (k, r) < me {
                new_rank += 1;
            }
        }
        debug_assert!(new_size > 0, "caller is in its own color group");
        self.attach(color, new_rank, new_size)
    }

    /// [`split`](Self::split) without the exchange, for callers that can
    /// compute their own place in the result: this rank becomes rank
    /// `new_rank` of the `new_size`-rank sub-communicator `color`. Still
    /// collective over the parent and ordered with its other splits, but
    /// the group forms without a message. The caller guarantees that the
    /// members of each `color` agree on `new_size` and claim each rank in
    /// `0..new_size` exactly once; a violation panics. The result equals
    /// that of the exchanged split keyed by `new_rank`.
    pub async fn split_local(&self, color: u64, new_rank: usize, new_size: usize) -> CoComm {
        self.attach(color, new_rank, new_size)
    }

    /// Drops `buf`. A message is a plain `Vec` its receiver owns, so there
    /// is nothing to give back: this stays only while `sionbench`'s
    /// collective micro-timings (`benchmark/src/layers.rs`) call it, until
    /// ROADMAP item 1's benchmark slice drops the call.
    pub fn recycle(&self, buf: Vec<u8>) {
        drop(buf);
    }
}

impl Drop for CoComm {
    /// Teardown check: when a hook is installed, report messages this
    /// rank's mailbox still holds — every message a correct program sends
    /// is eventually matched by a receive, so leftovers mean a lost message
    /// (wrong tag, wrong destination, or a receive that never ran).
    /// Skipped while the world is aborting (deadlock or panic teardown) —
    /// the primary diagnosis is already on its way out.
    fn drop(&mut self) {
        let Some(hook) = self.shared.hook.clone() else {
            return;
        };
        if self.shared.world.is_aborting() {
            return;
        }
        let mut mb = self.shared.mboxes[self.rank].lock();
        let mut leaked: Vec<LeakedMsg> = mb
            .queue
            .drain(..)
            .map(|(from, tag, payload)| LeakedMsg {
                from,
                tag,
                len: payload.len(),
            })
            .collect();
        mb.bytes = 0;
        drop(mb);
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

#[cfg(test)]
mod tests {
    use super::Tree;

    #[test]
    fn tree_subtrees_partition_and_parents_match_children() {
        for size in 1..=70usize {
            for root in [0, size / 3, size - 1] {
                let at = |v| Tree { v, size, root };
                assert_eq!(at(0).subtree(), size, "size {size} root {root}");
                assert_eq!(at(0).parent(), None);
                for v in 0..size {
                    let t = at(v);
                    let below: usize = t.children().map(|c| at(c).subtree()).sum();
                    assert_eq!(t.subtree(), 1 + below, "size {size} root {root} v {v}");
                    for c in t.children() {
                        assert_eq!(
                            at(c).parent(),
                            Some(t.real(v)),
                            "size {size} v {v} child {c}"
                        );
                    }
                }
            }
        }
    }
}
