//! Two-phase aggregated writes (beyond the SC09 paper: the two-phase trade
//! of Thakur et al. with TASIO-style ship/ack overlap; DESIGN.md §4f).
//!
//! In [`IoMode::Aggregated`](crate::IoMode::Aggregated) each file group is
//! cut into FS-block-clean *neighborhoods* of consecutive local tasks
//! ([`FileLayout::aggregation_groups`](crate::FileLayout::aggregation_groups);
//! each task finds its own with `FileLayout::aggregation_group`):
//! the lowest task is the **aggregator**, the others are **members**. A
//! member runs the one stream engine ([`TaskWriter`](crate::stream::TaskWriter))
//! as an independent writer would, over a byte-discarding *shadow* handle
//! ([`vfs::Vfs::create_shadow`]) — so its validation, `used` vectors and
//! close statistics are an independent run's — and every write the engine
//! issues is also recorded as an *extent* in a frame, which the aggregator
//! applies to the real file. A stream is computed once, by the task that
//! owns it; the aggregator only places stored bytes, in the member's own
//! order, so data still lands before its rescue patch. Only aggregators
//! touch the physical file and neighborhoods cover whole FS blocks, so
//! every FS block has one writing task (the `vfs::BlockGuard` invariant).
//!
//! ```text
//! frame  = [u64 seq] extent* [u64 END_OF_STREAM]?     tag TAG_SHIP
//! extent = [u64 file offset] [u64 len] [len bytes]
//! ack    = [u64 seq] [u64 status, 0 = applied]        tag TAG_ACK
//! ```
//!
//! The frame is the member's write-behind buffer: a record is staged once,
//! straight into the frame behind an open extent header ([`open_extent`]),
//! and the flush that issues its shadow write fills in the length
//! ([`close_extent`]) instead of copying it. Only writes of bytes the frame
//! does not hold yet — rescue words, write-through records, records the
//! size of the buffer or larger — are copied in ([`push_extent`]). So a
//! shipped byte is copied once on the member, [`CoComm::send_vec`] moves
//! the frame into the aggregator's mailbox as it is, and the aggregator
//! leases the frame whole and writes each extent as a slice of it
//! ([`vfs::VfsFile::write_lease_at`]): a backend that adopts whole pages
//! keeps the frame's own bytes as the file's storage, so that one copy is
//! the only one.
//!
//! A member ships when the recorded extents reach the write-behind
//! capacity, on `flush`, and at close (the frame that ends the stream). A
//! run still staged at ship time has had no shadow write: it is carried
//! into the next frame, header and bytes, and ships with that one. Polls
//! happen only where a message can be waiting: a member collects its acks
//! when it ships and at close, and the aggregator drains after an op in
//! which its own writer called the file and on its `flush` (non-parking
//! [`CoComm::try_recv`], each poll a schedule point the checkers see),
//! overlapping members' compute with its I/O, and fully at close.
//!
//! Failure semantics (the §4a crash model, preserved): an acked shipment is
//! in the VFS, as after an independent-mode `flush`; a crashed aggregator
//! loses only not-yet-acked shipments. A VFS error while applying marks the
//! member *failed*: the aggregator keeps draining to the end of its stream
//! (a deserted protocol would hang the group) but writes no further extent
//! of it, and every later ack carries status 1. The member learns of it at
//! its next ship, which fails, as every op after it does, or at close, and
//! folds it into its close record's status word (`par.rs`): the group
//! skips metablock 2 and the file stays repairable via `rescue::repair`.

// Shipment frames, member → aggregator, and acks `[seq, status]`,
// aggregator → member: the namespaces `simmpi` reserves for this protocol.
use simmpi::CoComm;
use simmpi::{AGG_ACK_TAG_PREFIX as TAG_ACK, AGG_SHIP_TAG_PREFIX as TAG_SHIP};
use std::collections::VecDeque;
use std::sync::Arc;
use vfs::{ByteLease, IoSlice, VfsFile};

/// Bytes reserved at the head of a frame for its sequence number.
pub(crate) const SEQ_LEN: usize = 8;
/// Bytes of an extent's `[offset][len]` header.
pub(crate) const EXTENT_HEADER: usize = 16;
/// In an extent's offset slot: the member's stream ends here.
const END_OF_STREAM: u64 = u64::MAX;

/// An empty frame for `payload` bytes of extents plus a few chunks' header
/// words; the sequence slot is filled in at ship time: built in place, sent
/// as built.
pub(crate) fn new_frame(payload: usize) -> Vec<u8> {
    let mut frame = Vec::with_capacity(SEQ_LEN + payload + 512);
    frame.resize(SEQ_LEN, 0);
    frame
}

/// Record one write (`slices` end to end at file offset `at`) as an extent:
/// the copy of bytes the frame does not hold yet.
pub(crate) fn push_extent(frame: &mut Vec<u8>, at: u64, slices: &[IoSlice<'_>]) {
    let len: usize = slices.iter().map(|s| s.len()).sum();
    frame.extend_from_slice(&at.to_le_bytes());
    frame.extend_from_slice(&(len as u64).to_le_bytes());
    slices.iter().for_each(|s| frame.extend_from_slice(s));
}

/// Start an extent at file offset `at` whose bytes the caller appends to
/// `frame` as it stages them; returns where they begin. Its length stays 0
/// until [`close_extent`].
pub(crate) fn open_extent(frame: &mut Vec<u8>, at: u64) -> usize {
    frame.extend_from_slice(&at.to_le_bytes());
    frame.extend_from_slice(&0u64.to_le_bytes());
    frame.len()
}

/// Append `tail` to the extent whose bytes begin at `start` — the last one
/// in `frame` — and fill in its length.
pub(crate) fn close_extent(frame: &mut Vec<u8>, start: usize, tail: &[u8]) {
    frame.extend_from_slice(tail);
    let len = (frame.len() - start) as u64;
    frame[start - 8..start].copy_from_slice(&len.to_le_bytes());
}

/// Shipment counters of one task's aggregated-mode traffic, reported by
/// [`SionParWriter::agg_stats`](crate::SionParWriter::agg_stats) and
/// [`CloseStats::agg`](crate::CloseStats). A member counts the frames it
/// shipped and the acks it got back; an aggregator, the frames it received
/// and applied (acked as applied) — so a sum over all ranks counts every
/// frame at both ends. All zeros on tasks without a neighborhood.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct AggStats {
    /// Frames shipped (member) or applied (aggregator).
    pub shipments: u64,
    /// Frames acknowledged.
    pub acked_shipments: u64,
    /// Frame bytes shipped (member) or received (aggregator), headers included.
    pub shipped_bytes: u64,
    /// Frame bytes covered by acknowledgements.
    pub acked_bytes: u64,
}

/// Member-side shipping state. The frame lives in the `TaskWriter` that
/// fills it: it is that writer's write-behind buffer, so staged bytes are
/// appended once, behind their extent header, and ship where they were
/// staged.
#[derive(Default)]
pub(crate) struct MemberState {
    /// Aggregator's rank in the file-group communicator.
    agg: usize,
    next_seq: u64,
    /// Recorded-payload bytes that trigger a ship.
    ship_cap: usize,
    /// Shipped-but-unacked frames, in order: `(seq, frame bytes)`.
    inflight: VecDeque<(u64, u64)>,
    /// An ack reported an aggregator-side apply failure.
    pub failed: bool,
    pub stats: AggStats,
}

impl MemberState {
    /// `ship_cap` is the write-behind capacity; 0 ships every write.
    pub(crate) fn new(agg: usize, ship_cap: usize) -> MemberState {
        MemberState {
            agg,
            ship_cap: ship_cap.max(1),
            ..MemberState::default()
        }
    }

    /// Whether a frame holding `recorded` bytes of extents ships now: once
    /// they reach the ship capacity or — with `now` — if there are any.
    pub(crate) fn due(&self, recorded: usize, now: bool) -> bool {
        recorded > 0 && (now || recorded >= self.ship_cap)
    }

    /// Ship `frame` by move: the aggregator's mailbox takes this allocation.
    /// Sends are buffered and never park, so this is safe from synchronous
    /// writes. The shadow writes on record at send time are exactly the
    /// extents it carries.
    pub(crate) fn ship(&mut self, mut frame: Vec<u8>, lcom: &CoComm) {
        frame[..SEQ_LEN].copy_from_slice(&self.next_seq.to_le_bytes());
        let len = frame.len() as u64;
        // Reserved-namespace tag: the scope marks this send as the protocol
        // itself, not a stray user send.
        let _protocol = simmpi::enter_agg_protocol();
        lcom.send_vec(self.agg, TAG_SHIP, frame);
        self.stats.shipments += 1;
        self.stats.shipped_bytes += len;
        self.inflight.push_back((self.next_seq, len));
        self.next_seq += 1;
    }

    /// End the stream: ship `frame` plus the end-of-stream word, then park
    /// until every shipped frame is acknowledged. The writer hands its last
    /// frame over without allocating a next one: a frame left allocated
    /// across the collective close stays so on every member at once (`agg_1k`:
    /// 992 x 128 KiB, `setup_s` +48 %, `peak_rss_mib` +80..200 MiB, measured).
    pub(crate) async fn finish(&mut self, mut frame: Vec<u8>, lcom: &CoComm) {
        frame.extend_from_slice(&END_OF_STREAM.to_le_bytes());
        self.ship(frame, lcom);
        while !self.inflight.is_empty() {
            let ack = lcom.recv(self.agg, TAG_ACK).await;
            self.note_ack(&ack);
        }
    }

    /// Consume every already-delivered ack without parking (after a ship).
    pub(crate) fn drain_acks(&mut self, lcom: &CoComm) {
        while let Some(ack) = lcom.try_recv(self.agg, TAG_ACK) {
            self.note_ack(&ack);
        }
    }

    /// Account one ack `[seq, status]` against the oldest in-flight frame.
    fn note_ack(&mut self, buf: &[u8]) {
        let seq = u64::from_le_bytes(buf[..8].try_into().expect("ack seq"));
        let status = u64::from_le_bytes(buf[8..16].try_into().expect("ack status"));
        let (expect, bytes) = self
            .inflight
            .pop_front()
            .expect("ack without in-flight frame");
        debug_assert_eq!(seq, expect, "acks arrive in ship order");
        self.stats.acked_shipments += 1;
        self.stats.acked_bytes += bytes;
        self.failed |= status != 0;
    }
}

/// One member as seen by its aggregator.
struct MemberSlot {
    /// Member's rank in the file-group communicator.
    lrank: usize,
    /// Next expected frame (mailboxes are FIFO per `(src, tag)`: a sanity check).
    next_seq: u64,
    /// The end-of-stream word arrived; no further frames will.
    done: bool,
    /// An extent failed to apply: later ones are dropped, acks carry status 1.
    failed: bool,
}

/// Aggregator-side state: the real file plus one slot per neighborhood member.
pub(crate) struct AggState {
    file: Arc<dyn VfsFile>,
    members: Vec<MemberSlot>,
    pub stats: AggStats,
}

impl AggState {
    pub(crate) fn new(file: Arc<dyn VfsFile>, lranks: std::ops::Range<usize>) -> AggState {
        let slot = |lrank| MemberSlot {
            lrank,
            next_seq: 0,
            done: false,
            failed: false,
        };
        AggState {
            file,
            members: lranks.map(slot).collect(),
            stats: AggStats::default(),
        }
    }

    /// Apply every already-delivered shipment without parking — the overlap
    /// hook, called after an aggregator's op that called its file, and on
    /// its `flush`.
    pub(crate) fn try_drain(&mut self, lcom: &CoComm) {
        for i in 0..self.members.len() {
            while !self.members[i].done {
                let Some(buf) = lcom.try_recv(self.members[i].lrank, TAG_SHIP) else {
                    break;
                };
                self.apply(i, buf, lcom);
            }
        }
    }

    /// Drain every member to the end of its stream, parking as needed.
    pub(crate) async fn drain_all(&mut self, lcom: &CoComm) {
        for i in 0..self.members.len() {
            while !self.members[i].done {
                let lrank = self.members[i].lrank;
                let buf = match lcom.try_recv(lrank, TAG_SHIP) {
                    Some(b) => b,
                    None => lcom.recv(lrank, TAG_SHIP).await,
                };
                self.apply(i, buf, lcom);
            }
        }
    }

    /// Write one frame's extents for member `i` and ack it. The frame is
    /// leased whole and each extent written as a slice of that lease, so a
    /// backend that adopts whole pages keeps the frame's own bytes — the
    /// ones the member staged them into — instead of copying them. Frames
    /// are built by this module's extent writers in this same build:
    /// malformed framing is a bug — panic.
    fn apply(&mut self, i: usize, buf: Vec<u8>, lcom: &CoComm) {
        let buf = ByteLease::from_vec(buf);
        let slot = &mut self.members[i];
        let word = |p: usize| u64::from_le_bytes(buf[p..p + 8].try_into().expect("frame word"));
        debug_assert_eq!(word(0), slot.next_seq, "frames arrive in ship order");
        slot.next_seq += 1;
        let mut p = SEQ_LEN;
        while p < buf.len() {
            let at = word(p);
            if at == END_OF_STREAM {
                assert_eq!(
                    p + 8,
                    buf.len(),
                    "malformed frame: bytes after the end of stream"
                );
                slot.done = true;
                break;
            }
            let len = word(p + 8) as usize;
            // A failed member is still *parsed* (the drain must find the end
            // of its stream) but no longer touches the file: what is on disk
            // stays the durable prefix of the acked shipments.
            if !slot.failed {
                slot.failed = self
                    .file
                    .write_lease_at(&buf.slice(p + 16, len), at)
                    .is_err();
            }
            p += 16 + len;
        }
        let mut ack = [0u8; 16];
        ack[..8].copy_from_slice(&buf[..SEQ_LEN]);
        ack[8..].copy_from_slice(&(slot.failed as u64).to_le_bytes());
        // Protocol traffic, like the ship. The ack leaves only after every
        // extent above returned from the VFS — what an ordering checker
        // verifies (ack covers obligations).
        let _protocol = simmpi::enter_agg_protocol();
        lcom.send(slot.lrank, TAG_ACK, &ack);
        self.stats.shipments += 1;
        self.stats.shipped_bytes += buf.len() as u64;
        self.stats.acked_shipments += 1;
        self.stats.acked_bytes += buf.len() as u64;
    }
}
