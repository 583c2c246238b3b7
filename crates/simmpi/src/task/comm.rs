//! The tree-collective engine: per-rank mailboxes and [`TaskComm`].
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
//! Every collective invocation consumes one *collective sequence number*
//! (all ranks agree on it because collectives are ordered), and its
//! messages are tagged in a reserved namespace
//! (`0xC3 << 56 | kind << 48 | seq << 8 | round`, see
//! [`hook::decode_coll_tag`]) so they can never be confused with user
//! point-to-point traffic, with a neighbouring collective when fast ranks
//! run ahead, or with a *different kind* of collective at the same ordinal.
//!
//! The only blocking primitive is the [`Recv`] future: it returns
//! `Poll::Pending` until the matching send wakes it. *Who polls* is the
//! driver's business — the work-stealing executor ([`super::exec`]) for
//! rank tasks, or [`drive_ready`](crate::drive_ready) on the rank's own OS
//! thread in a [`World`](crate::World), which parks the thread while a
//! future is pending.
//!
//! Every parked receive registers itself in the world's pending-op table
//! ([`WorldRt`]), so a deadlock report (executor quiescence) or a watchdog
//! report (thread driver) can name exactly which rank is stuck in which
//! receive on which communicator.

use crate::co::AllGathered;
use crate::comm::CommStats;
use crate::hook::{self, coll_tag, CheckHook, CollKind, CommCtx, HookEvent, LeakedMsg};
use crate::wire::{frame, subtree_size, unframe, FrameCut};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::collections::VecDeque;
use std::fmt;
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
#[derive(Clone, Copy)]
struct ParkedRecv {
    comm: usize,
    comm_rank: usize,
    src: usize,
    tag: u64,
}

/// A [`ParkedRecv`] with its communicator resolved: what deadlock and
/// watchdog reports name.
#[derive(Clone)]
pub(crate) struct Parked {
    pub(crate) ctx: CommCtx,
    pub(crate) comm_rank: usize,
    pub(crate) src: usize,
    pub(crate) tag: u64,
}

impl Parked {
    /// The blocked operation alone (no communicator name), in the same
    /// shape as `simcheck`'s pending-op dumps.
    pub(crate) fn op_text(&self) -> String {
        format!(
            "recv(src={}, tag={}) as rank {}",
            self.src,
            hook::describe_tag(self.tag),
            self.comm_rank
        )
    }
}

impl fmt::Display for Parked {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "on comm \"{}\" parked in {}",
            self.ctx.name,
            self.op_text()
        )
    }
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

    fn resolve(&self, p: ParkedRecv) -> Parked {
        Parked {
            ctx: self.comms.lock()[p.comm].clone(),
            comm_rank: p.comm_rank,
            src: p.src,
            tag: p.tag,
        }
    }

    /// The receive `world_rank` is parked in right now — what the thread
    /// driver's watchdog names when a blocking call is stuck.
    pub(crate) fn parked(&self, world_rank: usize) -> Option<Parked> {
        let p = *self.pending(world_rank).lock();
        p.map(|p| self.resolve(p))
    }

    /// The parked operations of every still-blocked task, in world-rank
    /// order — the body of a deadlock report.
    pub(crate) fn snapshot_pending(&self) -> Vec<(usize, Parked)> {
        self.pending
            .iter()
            .enumerate()
            .filter_map(|(rank, slot)| slot.lock().take().map(|p| (rank, self.resolve(p))))
            .collect()
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
/// ([`HookEvent::RecvDone`]) exactly once, wherever it is awaited.
struct Recv<'a> {
    comm: &'a TaskComm,
    src: usize,
    tag: u64,
    parked: bool,
}

impl Recv<'_> {
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
        *pending.lock() = Some(ParkedRecv {
            comm: c.shared.comm_no,
            comm_rank: c.rank,
            src: self.src,
            tag: self.tag,
        });
        self.parked = true;
        Poll::Pending
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

/// One rank's handle onto a tree-collective communicator. Rank tasks
/// `.await` its [`CoComm`](crate::co::CoComm) methods on the executor; in a
/// [`World`](crate::World) each rank's [`Comm`](crate::Comm) owns one and
/// drives the same futures on the rank's own thread.
pub struct TaskComm {
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

impl TaskComm {
    fn new(rank: usize, world_rank: usize, shared: Arc<CoShared>) -> TaskComm {
        TaskComm {
            rank,
            world_rank,
            shared,
            coll_seq: AtomicU64::new(0),
            split_seq: AtomicU64::new(0),
            stats: Arc::new(CommStats::default()),
        }
    }

    /// A fresh world of `ntasks` ranks: its runtime state and one handle
    /// per rank, in rank order. Both drivers launch from here.
    pub(crate) fn world(
        ntasks: usize,
        hook: Option<Arc<dyn CheckHook>>,
    ) -> (Arc<WorldRt>, Vec<TaskComm>) {
        let world = Arc::new(WorldRt::new(ntasks));
        let shared = Arc::new(CoShared::new(
            CommCtx::new("world".into(), ntasks),
            hook,
            world.clone(),
        ));
        let comms = (0..ntasks)
            .map(|r| TaskComm::new(r, r, shared.clone()))
            .collect();
        (world, comms)
    }

    /// Drops `buf`. A message is a plain `Vec` its receiver owns, so there
    /// is nothing to give back: this is not on [`CoComm`](crate::co::CoComm),
    /// and stays only while `sionbench`'s collective micro-timings call it
    /// (ROADMAP item 1(c) drops it).
    pub fn recycle(&self, buf: Vec<u8>) {
        drop(buf);
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

    /// Report a collective exit (the call returned on this rank).
    fn note_collective_done(&self, seq: u64) {
        if let Some(h) = &self.shared.hook {
            h.on_event(&HookEvent::CollectiveDone {
                comm: &self.shared.ctx,
                rank: self.rank,
                seq,
            });
        }
    }

    /// This rank's virtual rank in a tree rooted at `root`.
    fn vrank(&self, root: usize) -> usize {
        self.vrank_of(self.rank, root)
    }

    /// Virtual rank of real rank `r` in a tree rooted at `root`.
    fn vrank_of(&self, r: usize, root: usize) -> usize {
        (r + self.shared.size - root) % self.shared.size
    }

    /// Real rank of virtual rank `v` in a tree rooted at `root`.
    fn rank_of(&self, v: usize, root: usize) -> usize {
        (v + root) % self.shared.size
    }

    /// Internal send along a tree edge (not counted as a user send).
    fn isend(&self, dest: usize, tag: u64, payload: impl Into<MsgBuf>) {
        let payload = payload.into();
        self.stats.add_bytes(payload.len() as u64);
        self.isend_uncharged(dest, tag, payload);
    }

    /// [`Self::isend`] without the per-edge byte charge — for `Arc` clones
    /// of one shared frame, which [`Self::bcast_frame_impl`] charges once
    /// per logical payload instead of once per edge. Delivers the message
    /// and wakes the destination if it is parked on a match.
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
        // Wake outside the mailbox lock; the wake enqueues into the
        // executor or unparks the destination's thread.
        if let Some(w) = waker {
            w.wake();
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

    /// Binomial-tree broadcast body (kept separate from the stats/seq
    /// bookkeeping).
    async fn bcast_impl(
        &self,
        data: Option<Vec<u8>>,
        root: usize,
        seq: u64,
        kind: CollKind,
    ) -> Vec<u8> {
        let size = self.shared.size;
        let v = self.vrank(root);
        let tag = coll_tag(kind, seq, 0);
        let (buf, mut mask) = if v == 0 {
            (
                data.expect("root must supply bcast data"),
                size.next_power_of_two(),
            )
        } else {
            // Parent is the vrank with this vrank's lowest set bit cleared;
            // children span the bits below it.
            let lsb = v & v.wrapping_neg();
            (
                self.irecv(self.rank_of(v & (v - 1), root), tag)
                    .await
                    .into_vec(),
                lsb,
            )
        };
        mask >>= 1;
        while mask > 0 {
            let child = v + mask;
            if child < size {
                self.isend(self.rank_of(child, root), tag, buf.clone());
            }
            mask >>= 1;
        }
        buf
    }

    /// Broadcast an already-framed allgather result down the vrank-0 tree,
    /// sharing one refcounted buffer across all P−1 edges instead of
    /// copying the O(P)-byte frame per edge — the step that makes
    /// allgather (and with it `split`) linear instead of quadratic in
    /// total bytes. Wire tags are identical to [`Self::bcast_impl`] rooted
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
        let size = self.shared.size;
        let v = self.rank; // rooted at rank 0, like the allgather up-phase
        let tag = coll_tag(kind, seq, 0);
        let (buf, mut mask) = if v == 0 {
            (
                Arc::new(data.expect("root must supply bcast data")),
                size.next_power_of_two(),
            )
        } else {
            let lsb = v & v.wrapping_neg();
            (self.irecv(v & (v - 1), tag).await.into_shared(), lsb)
        };
        if v == 0 {
            self.shared.world.note_shared_frame(buf.len() as u64);
        }
        mask >>= 1;
        let mut forwarded = false;
        while mask > 0 {
            let child = v + mask;
            if child < size {
                self.isend_uncharged(child, tag, MsgBuf::Shared(buf.clone()));
                forwarded = true;
            }
            mask >>= 1;
        }
        if forwarded {
            self.stats.add_bytes(buf.len() as u64);
        }
        buf
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
        let size = self.shared.size;
        let v = self.vrank(root);
        let tag = coll_tag(kind, seq, 0);
        // Pre-sized to this vrank's exact binomial subtree: the
        // accumulator never reallocates on the way up.
        let mut acc: Vec<(u64, Vec<u8>)> = Vec::with_capacity(subtree_size(v, size));
        acc.push((v as u64, data.to_vec()));
        let mut mask = 1usize;
        while mask < size {
            if v & mask != 0 {
                let entries = acc.iter().map(|(id, p)| (*id, p.as_slice()));
                self.isend(self.rank_of(v - mask, root), tag, frame(entries));
                return None;
            }
            let child = v + mask;
            if child < size {
                acc.extend(unframe(&self.irecv(self.rank_of(child, root), tag).await));
            }
            mask <<= 1;
        }
        // Only vrank 0 (the root) falls through. Every vrank arrives exactly
        // once; place by real rank.
        let mut out = vec![Vec::new(); size];
        for (vr, payload) in acc {
            out[self.rank_of(vr as usize, root)] = payload;
        }
        Some(out)
    }

    /// Binomial-tree scatter body: the root's per-rank parts flow down the
    /// tree, each edge carrying only the receiver's subtree, listed in real
    /// rank order. The root frames each child's parts straight from
    /// `parts`; every other node splices its children's frames out of the
    /// one it received ([`FrameCut`]), so no entry is decoded on the way.
    async fn scatter_impl(
        &self,
        parts: Option<Vec<Vec<u8>>>,
        root: usize,
        seq: u64,
        kind: CollKind,
    ) -> Vec<u8> {
        let size = self.shared.size;
        let v = self.vrank(root);
        let tag = coll_tag(kind, seq, 0);
        if v == 0 {
            let mut parts = parts.expect("root must supply scatter parts");
            assert_eq!(parts.len(), size, "scatter needs one part per rank");
            // Each child takes the vranks [child, end) still held; as real
            // ranks, in ascending order, that is one range or two when it
            // wraps past rank size − 1.
            let mut end = size;
            let mut mask = size.next_power_of_two() >> 1;
            while mask > 0 {
                let child = mask;
                if child < size {
                    let (lo, hi) = (child + root, end + root);
                    let (a, b) = if lo >= size {
                        (lo - size..hi - size, 0..0)
                    } else if hi <= size {
                        (lo..hi, 0..0)
                    } else {
                        (0..hi - size, lo..size)
                    };
                    let entries = a
                        .chain(b)
                        .map(|r| (self.vrank_of(r, root) as u64, parts[r].as_slice()));
                    self.isend(self.rank_of(child, root), tag, frame(entries));
                    end = child;
                }
                mask >>= 1;
            }
            return std::mem::take(&mut parts[root]);
        }
        let lsb = v & v.wrapping_neg();
        let got = self.irecv(self.rank_of(v & (v - 1), root), tag).await;
        let mut held = FrameCut::new(got.into_vec());
        let mut mask = lsb >> 1;
        while mask > 0 {
            let child = v + mask;
            if child < size {
                self.isend(self.rank_of(child, root), tag, held.split_off(child as u64));
            }
            mask >>= 1;
        }
        held.into_single()
    }

    async fn allgather_impl(
        &self,
        data: &[u8],
        seq_up: u64,
        seq_down: u64,
        kind: CollKind,
    ) -> Vec<Vec<u8>> {
        self.allgather_arc_impl(data, seq_up, seq_down, kind)
            .await
            .to_parts()
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

    /// Tree barrier body: binomial fan-in of empty messages to rank 0,
    /// then a binomial fan-out release.
    async fn barrier_impl(&self, seq: u64, kind: CollKind) {
        let size = self.shared.size;
        if size == 1 {
            return;
        }
        let up = coll_tag(kind, seq, 0);
        let down = coll_tag(kind, seq, 1);
        let v = self.rank; // rooted at rank 0
        let mut mask = 1usize;
        while mask < size {
            if v & mask != 0 {
                self.isend(v - mask, up, Vec::new());
                break;
            }
            if v + mask < size {
                self.irecv(v + mask, up).await;
            }
            mask <<= 1;
        }
        if v == 0 {
            mask = size.next_power_of_two();
        } else {
            // `mask` is v's lowest set bit; the release arrives from the
            // same parent the fan-in went to.
            self.irecv(v & (v - 1), down).await;
        }
        mask >>= 1;
        while mask > 0 {
            if v + mask < size {
                self.isend(v + mask, down, Vec::new());
            }
            mask >>= 1;
        }
    }

    /// Combining binomial fan-in: each edge carries one partial result,
    /// not the subtree's values.
    async fn reduce_impl(
        &self,
        values: &[u64],
        op: crate::ReduceOp,
        root: usize,
        seq: u64,
    ) -> Option<Vec<u64>> {
        let size = self.shared.size;
        let v = self.vrank(root);
        let tag = coll_tag(CollKind::Reduce, seq, 0);
        let mut acc = values.to_vec();
        let mut mask = 1usize;
        while mask < size {
            if v & mask != 0 {
                let bytes: Vec<u8> = acc.iter().flat_map(|w| w.to_le_bytes()).collect();
                self.isend(self.rank_of(v - mask, root), tag, bytes);
                return None;
            }
            let child = v + mask;
            if child < size {
                let got = self.irecv(self.rank_of(child, root), tag).await;
                assert_eq!(
                    got.len(),
                    8 * acc.len(),
                    "reduce_u64s: ranks passed different word counts"
                );
                for (a, w) in acc.iter_mut().zip(got.chunks_exact(8)) {
                    *a = op.fold(*a, u64::from_le_bytes(w.try_into().unwrap()));
                }
            }
            mask <<= 1;
        }
        Some(acc)
    }

    /// `split` with the concrete handle type;
    /// [`CoComm::split`](crate::co::CoComm::split) boxes it.
    async fn split_impl(&self, color: u64, key: u64) -> TaskComm {
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
        let comm = self.attach(color, new_rank, new_size);
        self.note_collective_done(seq_up);
        comm
    }

    /// Join sub-communicator `color` of this rank's next split generation
    /// as rank `new_rank` of `new_size` — the one construction path behind
    /// both the exchanged [`split`](crate::co::CoComm::split) and
    /// [`split_local`](crate::co::CoComm::split_local). No message is
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
    fn attach(&self, color: u64, new_rank: usize, new_size: usize) -> TaskComm {
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
            Ok(sub) => TaskComm::new(new_rank, self.world_rank, sub),
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

impl crate::co::CoComm for TaskComm {
    fn rank(&self) -> usize {
        self.rank
    }

    fn size(&self) -> usize {
        self.shared.size
    }

    fn stats(&self) -> Option<Arc<CommStats>> {
        Some(self.stats.clone())
    }

    fn send_vec(&self, dest: usize, tag: u64, data: Vec<u8>) {
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

    fn recv<'a>(&'a self, src: usize, tag: u64) -> crate::co::BoxFut<'a, Vec<u8>> {
        Box::pin(async move {
            assert!(src < self.shared.size, "recv src {src} out of range");
            self.stats.bump_recv();
            self.irecv(src, tag).await.into_vec()
        })
    }

    fn try_recv(&self, src: usize, tag: u64) -> Option<Vec<u8>> {
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

    fn barrier<'a>(&'a self) -> crate::co::BoxFut<'a, ()> {
        Box::pin(async move {
            self.stats.bump_barrier();
            let seq = self.next_seq();
            self.note_collective(seq, CollKind::Barrier, None);
            self.barrier_impl(seq, CollKind::Barrier).await;
            self.note_collective_done(seq);
        })
    }

    fn gather<'a>(
        &'a self,
        data: &'a [u8],
        root: usize,
    ) -> crate::co::BoxFut<'a, Option<Vec<Vec<u8>>>> {
        Box::pin(async move {
            assert!(root < self.shared.size, "gather root {root} out of range");
            self.stats.bump_gather();
            let seq = self.next_seq();
            self.note_collective(seq, CollKind::Gather, Some(root));
            let out = self.gather_impl(data, root, seq, CollKind::Gather).await;
            self.note_collective_done(seq);
            out
        })
    }

    fn scatter<'a>(
        &'a self,
        parts: Option<Vec<Vec<u8>>>,
        root: usize,
    ) -> crate::co::BoxFut<'a, Vec<u8>> {
        Box::pin(async move {
            assert!(root < self.shared.size, "scatter root {root} out of range");
            self.stats.bump_scatter();
            let seq = self.next_seq();
            self.note_collective(seq, CollKind::Scatter, Some(root));
            let out = self.scatter_impl(parts, root, seq, CollKind::Scatter).await;
            self.note_collective_done(seq);
            out
        })
    }

    fn bcast<'a>(&'a self, data: Option<Vec<u8>>, root: usize) -> crate::co::BoxFut<'a, Vec<u8>> {
        Box::pin(async move {
            assert!(root < self.shared.size, "bcast root {root} out of range");
            self.stats.bump_bcast();
            let seq = self.next_seq();
            self.note_collective(seq, CollKind::Bcast, Some(root));
            let out = self.bcast_impl(data, root, seq, CollKind::Bcast).await;
            self.note_collective_done(seq);
            out
        })
    }

    fn allgather<'a>(&'a self, data: &'a [u8]) -> crate::co::BoxFut<'a, Vec<Vec<u8>>> {
        Box::pin(async move {
            self.stats.bump_allgather();
            let seq_up = self.next_seq();
            let seq_down = self.next_seq();
            self.note_collective(seq_up, CollKind::Allgather, None);
            let out = self
                .allgather_impl(data, seq_up, seq_down, CollKind::Allgather)
                .await;
            self.note_collective_done(seq_up);
            out
        })
    }

    fn allgather_shared<'a>(&'a self, data: &'a [u8]) -> crate::co::BoxFut<'a, AllGathered> {
        Box::pin(async move {
            self.stats.bump_allgather();
            let seq_up = self.next_seq();
            let seq_down = self.next_seq();
            self.note_collective(seq_up, CollKind::Allgather, None);
            let out = self
                .allgather_arc_impl(data, seq_up, seq_down, CollKind::Allgather)
                .await;
            self.note_collective_done(seq_up);
            out
        })
    }

    fn reduce_u64s<'a>(
        &'a self,
        values: &'a [u64],
        op: crate::ReduceOp,
        root: usize,
    ) -> crate::co::BoxFut<'a, Option<Vec<u64>>> {
        Box::pin(async move {
            assert!(root < self.shared.size, "reduce root {root} out of range");
            self.stats.bump_reduce();
            let seq = self.next_seq();
            self.note_collective(seq, CollKind::Reduce, Some(root));
            let out = self.reduce_impl(values, op, root, seq).await;
            self.note_collective_done(seq);
            out
        })
    }

    fn split<'a>(
        &'a self,
        color: u64,
        key: u64,
    ) -> crate::co::BoxFut<'a, Box<dyn crate::co::CoComm>> {
        Box::pin(async move {
            Box::new(self.split_impl(color, key).await) as Box<dyn crate::co::CoComm>
        })
    }

    fn split_local<'a>(
        &'a self,
        color: u64,
        new_rank: usize,
        new_size: usize,
    ) -> crate::co::BoxFut<'a, Box<dyn crate::co::CoComm>> {
        Box::pin(async move {
            Box::new(self.attach(color, new_rank, new_size)) as Box<dyn crate::co::CoComm>
        })
    }
}

impl Drop for TaskComm {
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
