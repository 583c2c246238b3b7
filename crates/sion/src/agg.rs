//! Two-phase aggregated writes (ROADMAP item 2, beyond the SC09 paper).
//!
//! In [`IoMode::Aggregated`](crate::IoMode::Aggregated) each file group is
//! cut into FS-block-clean *neighborhoods* of consecutive local tasks
//! ([`FileLayout::aggregation_groups`](crate::layout::FileLayout::aggregation_groups)).
//! The lowest task of a neighborhood is its **aggregator**; the others are
//! **members**. A member runs the full chunk arithmetic of an independent
//! writer against a *shadow* stream over a [`vfs::NullFile`] — so its
//! validation, `used` vectors, and close statistics are exactly those of
//! an independent run — while the real bytes travel to the aggregator as
//! *shipments*: framed op logs replayed through a per-member
//! [`TaskWriter`] over the real file. Since only aggregators touch the
//! physical file, and neighborhoods cover whole FS blocks, every FS block
//! has exactly one writing task (the `vfs::BlockGuard` invariant) and
//! writes are issued in large, aligned, per-frame batches.
//!
//! ## Shipment protocol
//!
//! Members stage ops into a frame `[u64 seq][op…]` and ship it to the
//! aggregator (tag [`TAG_SHIP`]) when the staged payload reaches the
//! write-behind capacity, on `flush`, and at close. Ops:
//!
//! | op | args | replayed as |
//! |----|------|-------------|
//! | [`OP_HELLO`]  | 7×u64 chunk geometry | create the member's writer |
//! | [`OP_WRITE`]  | u64 len, bytes | `TaskWriter::write` |
//! | [`OP_WRITE_IN_CHUNK`] | u64 len, bytes | `TaskWriter::write_in_chunk` |
//! | [`OP_ENSURE`] | u64 nbytes | `TaskWriter::ensure_free_space` |
//! | [`OP_FLUSH`]  | — | `TaskWriter::flush` |
//! | [`OP_FINISH`] | — | `TaskWriter::finish`; ends the member's stream |
//!
//! The aggregator drains shipments *opportunistically* (non-parking
//! [`CoComm::try_recv`]) from inside its own write calls — overlapping
//! members' compute with its I/O, TASIO-style — and exhaustively at close.
//! Every such poll is a discrete schedule point, not an opaque spin: the
//! runtimes report each attempt (hit or miss) through
//! `CheckHook::on_try_recv`, so a model checker exploring schedules (see
//! `simcheck`'s DPOR mode) sees the drain as an ordinary visible event it
//! can commute against the members' ships, and a happens-before checker
//! can pair each drained frame with the send that produced it.
//! After replaying a frame it makes the bytes durable with
//! `flush_pending` (never a full `flush`, which would end an LZSS frame in
//! compressed mode and diverge from the independent-mode bytes) and acks
//! `[u64 seq][u64 status]` (tag [`TAG_ACK`]).
//!
//! ## Failure semantics (paper §4a crash model, preserved)
//!
//! An acked shipment is durable up to the stream engine's usual flush
//! points; a crashed aggregator loses only not-yet-acked shipments. A VFS
//! error while replaying marks the member *failed*: the aggregator keeps
//! draining (a deserted protocol would hang the group) but discards ops,
//! and every subsequent ack carries status 1. The member folds that into
//! its [`CloseRecord`](crate::format::CloseRecord), so the group skips
//! metablock 2 and the file stays repairable via `rescue::repair` —
//! exactly the independent-mode crash contract. Replay goes through the
//! unmodified [`TaskWriter`], so the data-before-rescue-patch write
//! ordering is inherited, not re-implemented.

use crate::stream::{ChunkGeom, TaskWriter};
use simmpi::CoComm;
use std::collections::VecDeque;
use std::sync::Arc;
use vfs::VfsFile;

/// Shipment frames, member → aggregator.
pub(crate) const TAG_SHIP: u64 = 0xA6 << 56;
/// Acks `[seq, status]`, aggregator → member.
pub(crate) const TAG_ACK: u64 = 0xA7 << 56;

pub(crate) const OP_HELLO: u8 = 1;
pub(crate) const OP_WRITE: u8 = 2;
pub(crate) const OP_WRITE_IN_CHUNK: u8 = 3;
pub(crate) const OP_ENSURE: u8 = 4;
pub(crate) const OP_FLUSH: u8 = 5;
pub(crate) const OP_FINISH: u8 = 6;

/// Shipment counters of one task's aggregated-mode traffic, reported by
/// [`SionParWriter::agg_stats`](crate::SionParWriter::agg_stats) and
/// [`CloseStats::agg`](crate::CloseStats). On a member they count frames
/// this task shipped and the acks it got back; on an aggregator, frames
/// received/replayed on members' behalf (acked as applied). All zeros in
/// independent mode and on tasks that ended up without a neighborhood.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct AggStats {
    /// Frames shipped (member) or replayed (aggregator).
    pub shipments: u64,
    /// Frames acknowledged.
    pub acked_shipments: u64,
    /// Frame bytes shipped (member) or received (aggregator), headers
    /// included.
    pub shipped_bytes: u64,
    /// Frame bytes covered by acknowledgements.
    pub acked_bytes: u64,
}

/// A task's role in the aggregation protocol, fixed at collective open.
pub(crate) enum AggRole {
    /// Writes its own chunks directly (independent mode, or an aggregated
    /// neighborhood of one).
    Independent,
    /// Ships ops to an aggregator; owns no real file handle.
    Member(MemberState),
    /// Writes its own chunks *and* replays its members' shipments.
    Aggregator(AggState),
}

/// Member-side shipping state.
pub(crate) struct MemberState {
    /// Aggregator's rank in the file-group communicator.
    pub agg: usize,
    /// Staged frame: `[u64 seq][op…]`; empty between ships.
    frame: Vec<u8>,
    /// Sequence number of the staged / next frame.
    next_seq: u64,
    /// Staged-payload bytes that trigger a ship.
    ship_cap: usize,
    /// Shipped-but-unacked frames, in order: `(seq, frame bytes)`.
    inflight: VecDeque<(u64, u64)>,
    /// An ack reported an aggregator-side replay failure.
    pub failed: bool,
    pub stats: AggStats,
}

impl MemberState {
    /// `ship_cap` is normally the write-behind capacity; 0 ships every op.
    pub fn new(agg: usize, ship_cap: usize, geom: &ChunkGeom) -> MemberState {
        let mut m = MemberState {
            agg,
            frame: Vec::new(),
            next_seq: 0,
            ship_cap: ship_cap.max(1),
            inflight: VecDeque::new(),
            failed: false,
            stats: AggStats::default(),
        };
        // Frame 0 leads with this member's geometry, so the aggregator
        // builds the member's writer from the shipment stream itself — the
        // open-time scatter stays mode-independent.
        m.begin();
        m.frame.push(OP_HELLO);
        for w in geom.encode() {
            m.frame.extend_from_slice(&w.to_le_bytes());
        }
        m
    }

    fn begin(&mut self) {
        if self.frame.is_empty() {
            self.frame.extend_from_slice(&self.next_seq.to_le_bytes());
        }
    }

    /// Stage an op carrying a byte payload (`OP_WRITE`/`OP_WRITE_IN_CHUNK`).
    pub fn stage_data(&mut self, op: u8, data: &[u8]) {
        self.begin();
        self.frame.push(op);
        self.frame.extend_from_slice(&(data.len() as u64).to_le_bytes());
        self.frame.extend_from_slice(data);
    }

    /// Stage an op carrying one `u64` argument (`OP_ENSURE`).
    pub fn stage_word(&mut self, op: u8, word: u64) {
        self.begin();
        self.frame.push(op);
        self.frame.extend_from_slice(&word.to_le_bytes());
    }

    /// Stage an argument-less op (`OP_FLUSH`/`OP_FINISH`).
    pub fn stage_op(&mut self, op: u8) {
        self.begin();
        self.frame.push(op);
    }

    /// Ship the staged frame now (no-op when nothing is staged). Sends are
    /// buffered and never park, so this is safe from synchronous writes.
    pub fn ship(&mut self, lcom: &dyn CoComm) {
        if self.frame.is_empty() {
            return;
        }
        // The ship tag lives in a reserved namespace; the scope tells the
        // runtime this send is the protocol itself, not a stray user send.
        let _protocol = simmpi::enter_agg_protocol();
        lcom.send(self.agg, TAG_SHIP, &self.frame);
        self.stats.shipments += 1;
        self.stats.shipped_bytes += self.frame.len() as u64;
        self.inflight.push_back((self.next_seq, self.frame.len() as u64));
        self.next_seq += 1;
        self.frame.clear();
    }

    /// Whether the staged payload reached the ship capacity. Callers flush
    /// the shadow stream's buffered bytes *before* the matching
    /// [`ship`](Self::ship): the shadow extents on record at send time are
    /// exactly the replay obligations this frame carries, which is what
    /// lets an ordering checker hold the eventual ack to them.
    pub fn ship_due(&self) -> bool {
        self.frame.len().saturating_sub(8) >= self.ship_cap
    }

    /// Consume every already-delivered ack without parking.
    pub fn drain_acks(&mut self, lcom: &dyn CoComm) {
        while let Some(buf) = lcom.try_recv(self.agg, TAG_ACK) {
            self.note_ack(&buf);
            lcom.recycle(buf);
        }
    }

    /// Account one ack `[seq, status]` against the oldest in-flight frame.
    pub fn note_ack(&mut self, buf: &[u8]) {
        let seq = u64::from_le_bytes(buf[..8].try_into().expect("ack seq"));
        let status = u64::from_le_bytes(buf[8..16].try_into().expect("ack status"));
        let (expect, bytes) = self.inflight.pop_front().expect("ack without in-flight frame");
        debug_assert_eq!(seq, expect, "acks arrive in ship order");
        self.stats.acked_shipments += 1;
        self.stats.acked_bytes += bytes;
        if status != 0 {
            self.failed = true;
        }
    }

    /// Whether every shipped frame has been acknowledged.
    pub fn all_acked(&self) -> bool {
        self.inflight.is_empty()
    }
}

/// One member as seen by its aggregator.
pub(crate) struct MemberSlot {
    /// Member's rank in the file-group communicator.
    pub lrank: usize,
    /// Replay writer over the real file; created by `OP_HELLO`.
    writer: Option<TaskWriter>,
    /// Next expected frame sequence number (mailboxes are FIFO per
    /// `(src, tag)`, so this is a pure sanity check).
    next_seq: u64,
    /// `OP_FINISH` replayed; no further frames will arrive.
    pub done: bool,
    /// A replay op failed; later ops are discarded and acks carry status 1.
    failed: bool,
}

/// Aggregator-side state: the real file handle plus one replay slot per
/// member of the neighborhood.
pub(crate) struct AggState {
    file: Arc<dyn VfsFile>,
    compressed: bool,
    write_buffer: u64,
    /// This aggregator's global rank: the task label its replay writes
    /// carry for the block/ordering guards.
    grank: u64,
    pub members: Vec<MemberSlot>,
    pub stats: AggStats,
}

impl AggState {
    pub fn new(
        file: Arc<dyn VfsFile>,
        compressed: bool,
        write_buffer: u64,
        grank: u64,
        member_lranks: std::ops::Range<usize>,
    ) -> AggState {
        AggState {
            file,
            compressed,
            write_buffer,
            grank,
            members: member_lranks
                .map(|lrank| MemberSlot {
                    lrank,
                    writer: None,
                    next_seq: 0,
                    done: false,
                    failed: false,
                })
                .collect(),
            stats: AggStats::default(),
        }
    }

    /// Replay every already-delivered shipment without parking — the
    /// overlap hook, called from the aggregator's own write path.
    pub fn try_drain(&mut self, lcom: &dyn CoComm) {
        for i in 0..self.members.len() {
            while !self.members[i].done {
                let Some(buf) = lcom.try_recv(self.members[i].lrank, TAG_SHIP) else {
                    break;
                };
                self.apply(i, &buf, lcom);
                lcom.recycle(buf);
            }
        }
    }

    /// Drain every member to its `OP_FINISH`, parking as needed — the
    /// close-time exhaustive drain.
    pub async fn drain_all(&mut self, lcom: &dyn CoComm) {
        for i in 0..self.members.len() {
            while !self.members[i].done {
                let lrank = self.members[i].lrank;
                let buf = match lcom.try_recv(lrank, TAG_SHIP) {
                    Some(b) => b,
                    None => lcom.recv(lrank, TAG_SHIP).await,
                };
                self.apply(i, &buf, lcom);
                lcom.recycle(buf);
            }
        }
    }

    /// Replay one frame through member `i`'s writer and ack it. Frames are
    /// produced by [`MemberState`] in this same build, so malformed framing
    /// is a bug, not an input: parsing panics rather than limping on.
    fn apply(&mut self, i: usize, buf: &[u8], lcom: &dyn CoComm) {
        // Re-arm the thread's task label: on the task runtimes this
        // coroutine shares its worker thread with other ranks (and
        // `drain_all` parks between frames), so whatever label the thread
        // carries may be stale. Replay writes are the aggregator's own
        // physical I/O and must be attributed to it.
        vfs::guard::set_task(self.grank);
        let slot = &mut self.members[i];
        let seq = u64::from_le_bytes(buf[..8].try_into().expect("frame seq"));
        debug_assert_eq!(seq, slot.next_seq, "frames arrive in ship order");
        slot.next_seq = seq + 1;
        let word =
            |p: usize| u64::from_le_bytes(buf[p..p + 8].try_into().expect("op argument"));
        let mut p = 8;
        while p < buf.len() {
            let op = buf[p];
            p += 1;
            // A failed member keeps being *parsed* (the drain must still
            // find OP_FINISH) but no longer touches the file: its on-disk
            // state stays the durable prefix of the acked shipments.
            match op {
                OP_HELLO => {
                    let words: Vec<u64> = (0..ChunkGeom::ENCODED_WORDS)
                        .map(|k| word(p + 8 * k))
                        .collect();
                    p += 8 * ChunkGeom::ENCODED_WORDS;
                    if !slot.failed {
                        let geom = ChunkGeom::decode(&words).expect("hello geometry");
                        slot.writer = Some(TaskWriter::new(
                            self.file.clone(),
                            geom,
                            self.compressed,
                            self.write_buffer,
                        ));
                    }
                }
                OP_WRITE | OP_WRITE_IN_CHUNK => {
                    let len = word(p) as usize;
                    let data = &buf[p + 8..p + 8 + len];
                    p += 8 + len;
                    if !slot.failed {
                        let w = slot.writer.as_mut().expect("write before hello");
                        let res = if op == OP_WRITE {
                            w.write(data)
                        } else {
                            w.write_in_chunk(data)
                        };
                        slot.failed = res.is_err();
                    }
                }
                OP_ENSURE => {
                    let n = word(p);
                    p += 8;
                    if !slot.failed {
                        let w = slot.writer.as_mut().expect("ensure before hello");
                        slot.failed = w.ensure_free_space(n).is_err();
                    }
                }
                OP_FLUSH => {
                    if !slot.failed {
                        let w = slot.writer.as_mut().expect("flush before hello");
                        slot.failed = w.flush().is_err();
                    }
                }
                OP_FINISH => {
                    if !slot.failed {
                        if let Some(w) = slot.writer.as_mut() {
                            slot.failed = w.finish().is_err();
                        }
                    }
                    slot.done = true;
                }
                other => panic!("malformed shipment frame: op {other}"),
            }
        }
        // Per-frame durability point: flush pending bytes (and the rescue
        // patch) without ending a compression frame — `flush_pending`, not
        // `flush`, so compressed streams stay byte-identical to an
        // independent run. An ack therefore promises exactly what
        // independent-mode `flush` promises: the bytes are in the VFS.
        if !slot.failed && !slot.done {
            if let Some(w) = slot.writer.as_mut() {
                slot.failed = w.flush_pending().is_err();
            }
        }
        let mut ack = [0u8; 16];
        ack[..8].copy_from_slice(&seq.to_le_bytes());
        ack[8..].copy_from_slice(&(slot.failed as u64).to_le_bytes());
        // Reserved-namespace send, like the ship: scope it as protocol
        // traffic. The ack leaves only after `flush_pending` above — an
        // ordering checker verifies exactly that (ack covers obligations).
        let _protocol = simmpi::enter_agg_protocol();
        lcom.send(slot.lrank, TAG_ACK, &ack);
        self.stats.shipments += 1;
        self.stats.shipped_bytes += buf.len() as u64;
        self.stats.acked_shipments += 1;
        self.stats.acked_bytes += buf.len() as u64;
    }
}
