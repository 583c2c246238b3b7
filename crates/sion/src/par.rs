//! Parallel access to multifiles (paper §3.2.1/§3.2.2).
//!
//! Open and close are *collective* operations over a communicator: at open,
//! each task sends its chunk-size request to the master task of its
//! physical file, which computes the layout, creates the file (one create
//! per physical file instead of one per task — the source of the paper's
//! orders-of-magnitude creation speedup), writes metablock 1 and returns
//! each task its chunk geometry. At close, the master collects the bytes
//! effectively written and stores them in metablock 2. Reads and writes in
//! between are completely independent per task.
//!
//! # Collective round structure
//!
//! All per-task metadata travels in *packed* fixed-layout records
//! ([`OpenRecord`], [`CloseRecord`]) so each phase costs a constant number
//! of collective rounds regardless of how many fields it moves:
//!
//! * write open — on the caller's communicator ONE agreement round (rank
//!   0's parameter fingerprint broadcast, then a Max-allreduce of each
//!   task's verdict: mismatch, locally invalid, or fine), after which the
//!   file groups form *without an exchange* — [`Mapping::group_of`] is
//!   pure, so every task computes its own file, local rank and group size
//!   and joins through [`CoComm::split_local`]. Then per file group ONE
//!   metadata gather + ONE status broadcast + ONE geometry scatter, then
//!   ONE global allreduce of the failed flag, the all-or-nothing agreement
//!   across file groups;
//! * write close — ONE usage gather + ONE status broadcast per file
//!   group, then ONE global barrier, at every group size;
//! * read open — ONE parent scatter handing each task its status, the
//!   flags and its own place (file, position in that file's rank table,
//!   group size), message-free `split_local`s, then per file group ONE
//!   status broadcast + ONE geometry scatter, then ONE global allreduce.
//!   What is scattered is decoded and checked by `serial.rs`, not here:
//!   rank 0's discovery *is* a [`Multifile::open`] (every file's headers,
//!   compared with file 0's, and the rank directory), and a file master's
//!   setup is the header open of its one file plus the checked usage rows
//!   out of its full metablock 2 — so the collective open fails, on every
//!   task, exactly where the serial open of the same bytes fails.
//!
//! No task keeps or scans a payload that grows with the number of tasks
//! outside its own file group. On the caller's and the global communicator
//! the write open and both closes move one word per tree edge; the read
//! open's scatter hands each task its own four words, interior tree nodes
//! forwarding their subtree's parts — O(P log P) bytes in all, where the
//! rank-map broadcast it replaced moved O(P²).
//!
//! The agreement round has to come *before* the groups form. A task whose
//! parameters differ would compute a different place for itself than its
//! peers expect — a rank someone else claims, or a group of another size —
//! and a task whose *local* pre-open validation fails must still join
//! every collective (deserting one would hang its peers). So both travel
//! as that task's verdict in the reduction, every task learns the worst
//! one, and on anything but a clean verdict all return an error before a
//! single group exists.
//!
//! [`Mapping::group_of`]: crate::Mapping::group_of
//!
//! # Maybe-async protocol bodies
//!
//! The collective protocols are written once, as `async` functions over
//! [`simmpi::CoComm`] ([`paropen_write_co`], [`paropen_read_co`],
//! [`SionParWriter::close_co`], [`SionParReader::close_co`]), so the same
//! state machines run on every runtime:
//!
//! * on the thread-backed runtimes the public blocking entry points
//!   ([`paropen_write`], [`paropen_read`], `close`) hand the protocol the
//!   rank's own [`simmpi::CoComm`] ([`Comm::co`](simmpi::Comm::co)) and
//!   retire it with [`simmpi::drive_ready`], which parks the rank's thread
//!   at each collective round until a peer's message arrives;
//! * inside a [`simmpi::TaskWorld`] the `_co` entry points are awaited
//!   directly and genuinely park on each collective round, which is what
//!   lets a 16Ki–64Ki-rank collective open run on a handful of worker
//!   threads.
//!
//! `vfs::guard` block-contention attribution reads a per-*thread* task
//! label, which the runtime writes: the thread launcher and the task
//! executor (before every poll) label the thread with the world rank it
//! runs. Every write a rank issues — the master's metadata, each frame an
//! aggregator applies, the coalesced flushes of the stream engine — is
//! thus attributed to that rank on every runtime, on sub-communicators
//! too, and the protocol never labels anything itself (`simcheck`'s
//! misaligned-chunk mutation and its aligned control check exactly that).

use crate::agg::{AggState, AggStats, MemberState};
use crate::error::{Result, SionError};
use crate::format::{CloseRecord, OpenRecord, SionFlags};
use crate::physical_name;
use crate::serial::{create_file, finalize_file, FileView, Multifile};
use crate::stream::{ChunkGeom, IoCounters, TaskReader, TaskWriter, DEFAULT_READ_AHEAD};
use crate::{IoMode, SionParams};
use simmpi::{drive_ready, CoComm, Comm, CommStats, ReduceOp};
use std::sync::Arc;
use vfs::Vfs;

/// Payload a file master prepares during the collective write open: the
/// per-task geometry blobs to scatter plus the created file handle.
type GroupSetup = (Vec<Vec<u8>>, Arc<dyn vfs::VfsFile>);

/// Status word broadcast by a master after its setup phase, so that a
/// failure anywhere in the group surfaces as an error on every task
/// instead of a hang or a half-written multifile.
const STATUS_OK: u64 = 0;
/// The master itself failed (layout, create, or metablock write).
const STATUS_ERR: u64 = 1;

/// Verdicts of the write open's agreement round, Max-reduced over the
/// caller's communicator: the highest one present wins.
const AGREE_OK: u64 = 0;
/// Some task's parameters failed its local pre-open validation.
const AGREE_LOCAL_INVALID: u64 = 1;
/// Some task's parameter fingerprint differs from rank 0's.
const AGREE_PARAM_MISMATCH: u64 = 2;

async fn check_master_status(lcom: &dyn CoComm, local: Result<()>) -> Result<()> {
    // Master converts its Result into a status word; everyone else echoes
    // STATUS_OK and learns the verdict from the broadcast.
    let word = if lcom.rank() == 0 {
        Some(match &local {
            Ok(_) => STATUS_OK,
            Err(_) => STATUS_ERR,
        })
    } else {
        None
    };
    let status = lcom.bcast_u64(word, 0).await;
    match (status, local) {
        (STATUS_OK, _) => Ok(()),
        (_, Err(e)) => Err(e),
        (_, Ok(_)) => Err(SionError::CollectiveMismatch(
            "master task failed during collective open/close".into(),
        )),
    }
}

/// A fingerprint of the parameters that must agree across tasks. Each
/// field is folded in by a step that is a bijection of the running hash
/// and of the field, so two parameter sets that differ in exactly one
/// field — one task's `nfiles` or mapping off, the disagreement the
/// exchange-free file groups cannot survive — never collide.
fn params_fingerprint(p: &SionParams) -> u64 {
    use crate::layout::Alignment;
    let (align, align_arg) = match p.alignment {
        Alignment::FsBlock => (1, 0),
        Alignment::None => (2, 0),
        Alignment::Fixed(a) => (3, a),
    };
    let (map, map_arg) = match p.mapping {
        crate::Mapping::Blocked => (1, 0),
        crate::Mapping::RoundRobin => (2, 0),
        crate::Mapping::Grouped(g) => (3, g),
    };
    let (mode, mode_arg) = match p.io_mode {
        IoMode::Independent => (1, 0),
        IoMode::Aggregated {
            tasks_per_aggregator,
        } => (2, tasks_per_aggregator as u64),
    };
    let flags = p.compressed as u64 | (p.rescue as u64) << 1;
    [
        p.nfiles as u64,
        align,
        align_arg,
        map,
        map_arg,
        mode,
        mode_arg,
        flags,
    ]
    .iter()
    .fold(0xcbf2_9ce4_8422_2325, |h: u64, &field| {
        (h ^ field)
            .wrapping_mul(0x0000_0100_0000_01B3)
            .rotate_left(29)
    })
}

/// Statistics returned by [`SionParWriter::close`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CloseStats {
    /// User bytes this task wrote (pre-compression).
    pub user_bytes: u64,
    /// Stored bytes this task occupies in its chunks.
    pub stored_bytes: u64,
    /// Number of blocks this task touched.
    pub blocks: u64,
    /// I/O-call accounting for this task's write stream: user-level calls
    /// vs. VFS calls actually issued, coalescing flushes, rescue patches.
    /// On an aggregated-mode member these are the calls it issued to its
    /// shadow handle — the same an independent writer issues for this data.
    pub write_io: IoCounters,
    /// Aggregated-mode shipment counters (all zeros in independent mode).
    pub agg: AggStats,
}

/// A task's role in the aggregation protocol, fixed at collective open.
enum AggRole {
    /// Writes its own chunks directly (independent mode, or an aggregated
    /// neighborhood of one).
    Independent,
    /// Ships the extents its writer records; owns no real file handle.
    Member(MemberState),
    /// Writes its own chunks *and* applies its members' shipments.
    Aggregator(AggState),
}

/// Handle for writing one task's logical file of an open multifile
/// (`sion_paropen_mpi` in write mode).
pub struct SionParWriter {
    /// This task's stream engine. In aggregated mode a *member*'s engine
    /// writes to a [`Vfs::create_shadow`] handle — identical chunk
    /// arithmetic, validation and close accounting — and records each
    /// write as an extent for its aggregator to apply (see [`crate::agg`]).
    writer: TaskWriter,
    lcom: Box<dyn CoComm>,
    gcom: Box<dyn CoComm>,
    filenum: u32,
    grank: usize,
    role: AggRole,
}

/// The file master's half of the write open: create the physical file from
/// the gathered records ([`create_file`]: layout, create, metablock 1) and
/// prepare each task's geometry part.
fn master_open_setup(
    vfs: &dyn Vfs,
    base: &str,
    params: &SionParams,
    filenum: u32,
    ntasks: usize,
    raw: Vec<Vec<u8>>,
) -> Result<GroupSetup> {
    let records: Vec<OpenRecord> = raw
        .iter()
        .map(|b| OpenRecord::decode(b))
        .collect::<Result<_>>()?;
    let (layout, file) = create_file(vfs, base, params, params.flags(), filenum, ntasks, &records)?;
    // Aggregation election (IoMode::Aggregated): neighborhood starts,
    // snapped to FS-block-clean task boundaries so aggregator extents
    // never share an FS block with another writer. Every scatter part
    // carries the same 9-word shape in both modes: 7 geometry words
    // plus [aggregator lrank, neighborhood end) — a task that is its
    // own aggregator with an empty neighborhood writes independently.
    let groups = match params.io_mode {
        IoMode::Independent => None,
        IoMode::Aggregated {
            tasks_per_aggregator,
        } => Some(layout.aggregation_groups(tasks_per_aggregator)),
    };
    let parts: Vec<Vec<u8>> = (0..layout.ntasks())
        .map(|t| {
            let mut words = ChunkGeom::from_layout(&layout, t, records[t].grank).encode();
            let (agg, end) = match &groups {
                None => (t as u64, t as u64 + 1),
                Some(starts) => {
                    let gi = starts.partition_point(|&s| s <= t) - 1;
                    let end = starts.get(gi + 1).copied().unwrap_or(layout.ntasks()) as u64;
                    (starts[gi] as u64, end)
                }
            };
            words.push(agg);
            words.push(end);
            words.iter().flat_map(|w| w.to_le_bytes()).collect()
        })
        .collect();
    Ok((parts, file))
}

/// Collectively create a multifile for writing (`sion_paropen_mpi`).
///
/// Every task of `comm` calls this with identical parameters except for
/// `params.chunksize`, which may differ per task. Returns this task's
/// writer handle.
pub fn paropen_write(
    vfs: &dyn Vfs,
    base: &str,
    params: &SionParams,
    comm: &Comm,
) -> Result<SionParWriter> {
    drive_ready(paropen_write_co(vfs, base, params, comm.co()))
}

/// [`paropen_write`] as a resumable protocol over [`CoComm`]: the entry
/// point for task-runtime ranks (`TaskWorld`), which `.await` it instead
/// of blocking a thread per rank.
pub async fn paropen_write_co(
    vfs: &dyn Vfs,
    base: &str,
    params: &SionParams,
    comm: &dyn CoComm,
) -> Result<SionParWriter> {
    let grank = comm.rank();
    let ntasks = comm.size();

    // Agreement round, on the caller's communicator and before any split:
    // the file groups below are formed without an exchange, each task
    // computing its own place from (mapping, nfiles), so a task holding
    // different or invalid parameters must be found out first — it would
    // claim a place in a group its peers do not expect it in. Rank 0's
    // fingerprint goes down, the worst verdict comes back. A task whose
    // own check fails still joins both collectives (deserting would hang
    // its peers); on any failure every task returns here and nobody splits.
    let local_check = params.mapping.validate(ntasks, params.nfiles);
    let fingerprint = params_fingerprint(params);
    let reference = comm.bcast_u64((grank == 0).then_some(fingerprint), 0).await;
    let mine = if reference != fingerprint {
        AGREE_PARAM_MISMATCH
    } else if local_check.is_err() {
        AGREE_LOCAL_INVALID
    } else {
        AGREE_OK
    };
    let verdict = comm.allreduce_u64(mine, ReduceOp::Max).await;
    if verdict != AGREE_OK {
        // The task's own validation error is the most precise report.
        local_check?;
        return Err(SionError::CollectiveMismatch(
            if verdict == AGREE_PARAM_MISMATCH {
                "tasks passed different multifile parameters to the collective open".into()
            } else {
                "another task's parameters failed local pre-open validation".into()
            },
        ));
    }

    // `group_of` is pure and the parameters agree, so every task of a file
    // names the same group and a distinct rank in it. Local ranks follow
    // global rank order: the local rank *is* the local task index of the
    // on-disk layout.
    let (filenum, lrank, lsize) = params.mapping.group_of(grank, ntasks, params.nfiles);
    let lcom = comm.split_local(filenum as u64, lrank, lsize).await;
    // A private duplicate of the global communicator, so the handle can run
    // global collectives (the paper's open/close are collective over gcom).
    let gcom = comm.split_local(0, grank, ntasks).await;

    // Single-round metadata exchange: everything the master needs from
    // each task travels in ONE packed gather instead of one sequential
    // collective per field.
    let record = OpenRecord {
        chunksize: params.chunksize,
        grank: grank as u64,
    };
    let gathered = lcom.gather(&record.encode(), 0).await;
    let setup = gathered.map(|raw| master_open_setup(vfs, base, params, filenum, ntasks, raw));
    let word = setup
        .as_ref()
        .map(|s| if s.is_ok() { STATUS_OK } else { STATUS_ERR });
    let status = lcom.bcast_u64(word, 0).await;

    // Per-file-group phase. Any failure here is captured, not returned:
    // the global exchange below must run on every task or the healthy file
    // groups would hang.
    let group_result: Result<(ChunkGeom, usize, usize, Arc<dyn vfs::VfsFile>)> = async {
        if status != STATUS_OK {
            return Err(match setup {
                Some(Err(e)) => e,
                _ => SionError::CollectiveMismatch(
                    "master task failed during collective open".into(),
                ),
            });
        }
        let (parts, created) = match setup {
            Some(setup) => {
                let (parts, file) = setup.expect("status was OK");
                (Some(parts), Some(file))
            }
            None => (None, None),
        };
        let mine = lcom.scatter(parts, 0).await;
        let (geom, agg, end) = decode_write_part(&mine)?;
        let file = match created {
            Some(file) => file,
            // The master created the file before the status broadcast, so
            // it exists by now.
            None if agg == lcom.rank() => vfs.open_rw(&physical_name(base, filenum))?,
            // Aggregated-mode member: its stream engine runs against a
            // data-discarding shadow of the physical file; only its
            // aggregator touches the file itself. On a plain VFS the
            // shadow is a `NullFile`; a `vfs::TapFs` wraps it, so that an
            // ordering checker in its tap list sees each write as a
            // *logical* access to the real path and the member's extents
            // are checkable against the aggregator's writes without any
            // physical I/O.
            None => vfs.create_shadow(&physical_name(base, filenum))?,
        };
        Ok((geom, agg, end, file))
    }
    .await;

    // One global reduction closes the open: the all-or-nothing failure
    // agreement across file groups. When it returns clean, every physical
    // file exists and every task holds a handle.
    let any_failed = gcom
        .allreduce_u64(group_result.is_err() as u64, ReduceOp::Max)
        .await
        != 0;
    let (geom, agg, end, file) = match (any_failed, group_result) {
        (false, Ok(tuple)) => tuple,
        (_, Err(e)) => return Err(e),
        (true, Ok(_)) => {
            return Err(SionError::CollectiveMismatch(
                "another file group failed during the collective open".into(),
            ))
        }
    };

    let me = lcom.rank();
    let mut writer = TaskWriter::new(file.clone(), geom, params.compressed, params.write_buffer);
    let role = if agg != me {
        let ship_cap = params.write_buffer as usize;
        writer = writer.into_member(ship_cap);
        AggRole::Member(MemberState::new(agg, ship_cap))
    } else if end > me + 1 {
        AggRole::Aggregator(AggState::new(file, me + 1..end))
    } else {
        AggRole::Independent
    };

    Ok(SionParWriter {
        writer,
        lcom,
        gcom,
        filenum,
        grank,
        role,
    })
}

/// Decode a write-open scatter part: 7 geometry words plus the aggregation
/// words `[aggregator lrank, neighborhood end)`.
fn decode_write_part(bytes: &[u8]) -> Result<(ChunkGeom, usize, usize)> {
    if !bytes.len().is_multiple_of(8) {
        return Err(SionError::Format("bad chunk geometry payload".into()));
    }
    let words: Vec<u64> = bytes
        .chunks_exact(8)
        .map(|c| u64::from_le_bytes(c.try_into().unwrap()))
        .collect();
    if words.len() < ChunkGeom::ENCODED_WORDS + 2 {
        return Err(SionError::Format("truncated write-open payload".into()));
    }
    let geom = ChunkGeom::decode(&words)?;
    let agg = words[ChunkGeom::ENCODED_WORDS] as usize;
    let end = words[ChunkGeom::ENCODED_WORDS + 1] as usize;
    Ok((geom, agg, end))
}

impl SionParWriter {
    /// Run one synchronous stream op in this task's role, polling only
    /// where a message can be waiting. A member runs the op on its own
    /// engine (so errors surface exactly as in independent mode and nothing
    /// invalid is ever recorded) and ships the frame the engine filled if
    /// `ship_now` or once it reached the write-behind capacity; a ship is
    /// when it collects the acks that have arrived, without waiting. So an
    /// aggregator's failure to apply shows at the member's next ship — that
    /// op and every later one fail — or at close. An aggregator applies the
    /// already-delivered shipments after an op in which its own writer
    /// called the file, and on `flush`: the compute/I/O overlap, at the
    /// pace of its own I/O rather than of every record.
    fn op(
        &mut self,
        ship_now: bool,
        run: impl FnOnce(&mut TaskWriter) -> Result<()>,
    ) -> Result<()> {
        if matches!(&self.role, AggRole::Member(m) if m.failed) {
            return Err(apply_failed());
        }
        let calls = self.writer.io_counters().vfs_calls;
        run(&mut self.writer)?;
        let lcom = self.lcom.as_ref();
        match &mut self.role {
            AggRole::Member(m) if m.due(self.writer.recorded(), ship_now) => {
                m.ship(self.writer.take_frame(true), lcom);
                m.drain_acks(lcom);
                if m.failed {
                    return Err(apply_failed());
                }
            }
            AggRole::Aggregator(a) if ship_now || self.writer.io_counters().vfs_calls > calls => {
                a.try_drain(lcom)
            }
            _ => {}
        }
        Ok(())
    }

    /// `sion_ensure_free_space`: make room for a contiguous piece of
    /// `nbytes` in the current chunk, advancing to the next block if needed.
    pub fn ensure_free_space(&mut self, nbytes: u64) -> Result<()> {
        self.op(false, |w| w.ensure_free_space(nbytes))
    }

    /// Plain `fwrite` equivalent: write into the current chunk without
    /// crossing its boundary (pair with [`ensure_free_space`]).
    ///
    /// [`ensure_free_space`]: Self::ensure_free_space
    pub fn write_in_chunk(&mut self, data: &[u8]) -> Result<()> {
        self.op(false, |w| w.write_in_chunk(data))
    }

    /// `sion_fwrite`: write data of any size, transparently split across
    /// chunk boundaries (and compressed in compressed mode).
    pub fn write(&mut self, data: &[u8]) -> Result<()> {
        self.op(false, |w| w.write(data))
    }

    /// Bytes left in the current chunk.
    pub fn bytes_avail_in_chunk(&self) -> u64 {
        self.writer.bytes_avail_in_chunk()
    }

    /// `sion_flush`: push buffered data (and the rescue header, if enabled)
    /// to the VFS so the bytes written so far are durable.
    ///
    /// On an aggregated-mode member this ships everything written so far
    /// without waiting for the acknowledgement: durability follows when
    /// the aggregator next applies, and an aggregator crash loses only
    /// not-yet-acked shipments (see [`crate::agg`]). The acks that have
    /// arrived are collected, so an earlier frame the aggregator failed to
    /// apply fails this call. On an aggregator it also applies every
    /// shipment already delivered.
    pub fn flush(&mut self) -> Result<()> {
        self.op(true, |w| w.flush())
    }

    /// I/O-call accounting for this task's stream so far. On an
    /// aggregated-mode member: the shadow stream's counters.
    pub fn io_counters(&self) -> IoCounters {
        self.writer.io_counters()
    }

    /// Aggregated-mode shipment counters so far (see [`AggStats`]); all
    /// zeros in independent mode.
    pub fn agg_stats(&self) -> AggStats {
        match &self.role {
            AggRole::Independent => AggStats::default(),
            AggRole::Member(m) => m.stats,
            AggRole::Aggregator(a) => a.stats,
        }
    }

    /// Per-rank op/byte counters of this task's *file-group* communicator,
    /// when the runtime tracks them. The returned handle keeps counting
    /// through [`close`](Self::close) (which consumes the writer), so
    /// callers can assert collective round counts after the fact.
    pub fn local_comm_stats(&self) -> Option<Arc<CommStats>> {
        self.lcom.stats()
    }

    /// Per-rank op/byte counters of this task's *global* communicator
    /// duplicate; same lifetime guarantees as
    /// [`local_comm_stats`](Self::local_comm_stats).
    pub fn global_comm_stats(&self) -> Option<Arc<CommStats>> {
        self.gcom.stats()
    }

    /// This task's global rank.
    pub fn rank(&self) -> usize {
        self.grank
    }

    /// Index of the physical file this task writes to.
    pub fn filenum(&self) -> u32 {
        self.filenum
    }

    /// `sion_parclose_mpi`: collectively finalize the multifile. The file
    /// master gathers every task's per-block usage and writes metablock 2.
    ///
    /// Crash behaviour: a task whose local flush/sync fails still takes
    /// part in every collective below (deserting the gather would hang the
    /// surviving tasks) — its packed [`CloseRecord`] carries the failure
    /// flag alongside the usage vector, and the group then skips writing
    /// metablock 2 entirely: finalizing without the failed task's usage
    /// would silently drop its data. The un-finalized file remains
    /// recoverable via [`rescue::repair`](crate::rescue::repair) when
    /// rescue headers are enabled. Only when close returns `Ok` on every
    /// task is the multifile's metadata durable and final.
    pub fn close(self) -> Result<CloseStats> {
        drive_ready(self.close_co())
    }

    /// [`close`](Self::close) as a resumable protocol; the task-runtime
    /// entry point.
    pub async fn close_co(mut self) -> Result<CloseStats> {
        // Aggregation epilogue, before the metadata exchange. A member
        // finishes its stream (the authoritative `used` vector), ships the
        // final frame with the end-of-stream word, and then collects every
        // outstanding ack — so by the time it enters the close gather, its
        // data is either durably applied or its CloseRecord carries the
        // failure. An aggregator exhaustively drains every member to its
        // end of stream (acking as it applies) before finishing its own;
        // apply failures surface through the members' own records.
        let role = std::mem::replace(&mut self.role, AggRole::Independent);
        let (finish_res, agg_stats) = match role {
            AggRole::Independent => (self.writer.finish(), AggStats::default()),
            AggRole::Member(mut m) => {
                let finished = self.writer.finish();
                m.finish(self.writer.take_frame(false), self.lcom.as_ref())
                    .await;
                let res = if m.failed && finished.is_ok() {
                    Err(apply_failed())
                } else {
                    finished
                };
                (res, m.stats)
            }
            AggRole::Aggregator(mut a) => {
                a.drain_all(self.lcom.as_ref()).await;
                (self.writer.finish(), a.stats)
            }
        };

        // Packed close exchange: the error flag rides in the same record
        // as the per-block usage, so the former standalone failure
        // allgather round is gone — ONE gather and ONE status broadcast
        // finish the file group.
        let record = CloseRecord {
            status: if finish_res.is_ok() {
                CloseRecord::STATUS_OK
            } else {
                CloseRecord::STATUS_FLUSH_FAILED
            },
            used: finish_res.as_ref().map(|u| u.clone()).unwrap_or_default(),
        };
        let encoded = record.encode();

        // ONE usage gather at the file master, which finalizes the file —
        // unless some task's flush failed.
        let finalize: Result<()> = match self.lcom.gather(&encoded, 0).await {
            None => Ok(()),
            Some(raw) => (|| {
                let per_task: Vec<CloseRecord> = raw
                    .iter()
                    .map(|b| CloseRecord::decode(b))
                    .collect::<Result<_>>()?;
                if per_task.iter().any(|r| r.status != CloseRecord::STATUS_OK) {
                    return Err(SionError::CollectiveMismatch(
                        "a task failed to flush; metablock 2 not written".into(),
                    ));
                }
                let rows: Vec<&[u64]> = per_task.iter().map(|r| r.used.as_slice()).collect();
                finalize_file(&self.writer, &rows)
            })(),
        };
        let status = check_master_status(self.lcom.as_ref(), finalize).await;
        // Collective over the global communicator: when close returns, the
        // entire multifile (all physical files' metablocks) is final.
        // Always reached, error or not, so no file group can hang another.
        self.gcom.barrier().await;
        let used = finish_res?;
        status?;
        Ok(CloseStats {
            user_bytes: self.writer.user_bytes(),
            stored_bytes: used.iter().sum(),
            blocks: used.iter().filter(|&&u| u > 0).count() as u64,
            write_io: self.writer.io_counters(),
            agg: agg_stats,
        })
    }
}

/// Handle for reading one task's logical file of a multifile
/// (`sion_paropen_mpi` in read mode).
pub struct SionParReader {
    reader: TaskReader,
    gcom: Box<dyn CoComm>,
    grank: usize,
    /// Stats handle of the file-group communicator used during open (the
    /// communicator itself is dropped once the geometry is distributed).
    lcom_stats: Option<Arc<CommStats>>,
}

/// Collectively open an existing multifile for reading.
///
/// The task count of `comm` must equal the task count the multifile was
/// written with, and each task is positioned at its own logical file.
pub fn paropen_read(vfs: &dyn Vfs, base: &str, comm: &Comm) -> Result<SionParReader> {
    drive_ready(paropen_read_co(vfs, base, comm.co()))
}

/// [`paropen_read`] as a resumable protocol over [`CoComm`]; the
/// task-runtime entry point.
pub async fn paropen_read_co(
    vfs: &dyn Vfs,
    base: &str,
    comm: &dyn CoComm,
) -> Result<SionParReader> {
    let grank = comm.rank();
    let ntasks = comm.size();

    // The global master opens the multifile's headers once and tells each
    // task its own place — [status, flags, file << 32 | local index, group
    // size] — so tens of thousands of tasks neither hammer the metadata
    // concurrently nor hold a copy of the whole rank → file map. The local
    // index is the task's position in its file's own rank table, which is
    // the order the file master scatters geometry in below.
    let discovery = (grank == 0).then(|| -> Result<Vec<Vec<u8>>> {
        let mf = Multifile::open(vfs, base)?;
        if mf.ntasks() != ntasks {
            return Err(SionError::CollectiveMismatch(format!(
                "multifile was written by {} tasks, read with {}",
                mf.ntasks(),
                ntasks
            )));
        }
        let parts = mf.rank_map.iter().map(|&(k, lt)| {
            let group_size = mf.files[k as usize].mb1.ntasks_local() as u64;
            [
                STATUS_OK,
                mf.flags().bits(),
                ((k as u64) << 32) | lt as u64,
                group_size,
            ]
            .iter()
            .flat_map(|w| w.to_le_bytes())
            .collect()
        });
        Ok(parts.collect())
    });

    // ONE scatter: the status word travels as each part's leading word
    // (a lone [STATUS_ERR] on failure) instead of costing a separate round.
    let (parts, failure) = match discovery {
        Some(Ok(parts)) => (Some(parts), None),
        Some(Err(e)) => (
            Some(vec![STATUS_ERR.to_le_bytes().to_vec(); ntasks]),
            Some(e),
        ),
        None => (None, None),
    };
    let words: Vec<u64> = comm
        .scatter(parts, 0)
        .await
        .chunks_exact(8)
        .map(|c| u64::from_le_bytes(c.try_into().unwrap()))
        .collect();
    let &[STATUS_OK, flags, place, group_size] = words.as_slice() else {
        return Err(failure.unwrap_or_else(|| {
            SionError::CollectiveMismatch("master failed during read open".into())
        }));
    };
    let flags = SionFlags::from_bits(flags)?;
    let compressed = flags.contains(SionFlags::COMPRESSED);
    let filenum = (place >> 32) as u32;

    let lcom = comm
        .split_local(
            filenum as u64,
            (place & 0xFFFF_FFFF) as usize,
            group_size as usize,
        )
        .await;
    let gcom = comm.split_local(0, grank, ntasks).await;

    // Each file master reads its file's metadata once — the whole of
    // metablock 2, it needs every row — and scatters per-task geometry plus
    // usage vectors. Rank 0 compared the files with each other above.
    let setup: Result<Vec<Vec<u8>>> = if lcom.rank() == 0 {
        FileView::open(vfs, base, filenum, None).and_then(|fv| {
            (0..fv.layout.ntasks())
                .map(|t| {
                    let mut words =
                        ChunkGeom::from_layout(&fv.layout, t, fv.mb1.global_ranks[t]).encode();
                    words.extend(fv.usage_from_mb2(t)?);
                    Ok(words.iter().flat_map(|w| w.to_le_bytes()).collect())
                })
                .collect()
        })
    } else {
        Ok(Vec::new())
    };

    let group_result: Result<(ChunkGeom, Vec<u64>, Arc<dyn vfs::VfsFile>)> = async {
        if lcom.rank() == 0 {
            check_master_status(lcom.as_ref(), setup.as_ref().map(|_| ()).map_err(clone_err))
                .await?;
        } else {
            check_master_status(lcom.as_ref(), Ok(())).await?;
        }
        let mine = if lcom.rank() == 0 {
            lcom.scatter(Some(setup.expect("status was OK")), 0).await
        } else {
            lcom.scatter(None, 0).await
        };
        if mine.len() % 8 != 0 || mine.len() < ChunkGeom::ENCODED_WORDS * 8 {
            return Err(SionError::Format("bad read-open payload".into()));
        }
        let words: Vec<u64> = mine
            .chunks_exact(8)
            .map(|c| u64::from_le_bytes(c.try_into().unwrap()))
            .collect();
        let geom = ChunkGeom::decode(&words[..ChunkGeom::ENCODED_WORDS])?;
        let used = words[ChunkGeom::ENCODED_WORDS..].to_vec();
        let file = vfs.open(&physical_name(base, filenum))?;
        Ok((geom, used, file))
    }
    .await;
    let lcom_stats = lcom.stats();

    // All-or-nothing across file groups, as in the write open.
    let any_failed = gcom
        .allreduce_u64(group_result.is_err() as u64, ReduceOp::Max)
        .await
        != 0;
    let (geom, used, file) = match (any_failed, group_result) {
        (false, Ok(triple)) => triple,
        (_, Err(e)) => return Err(e),
        (true, Ok(_)) => {
            return Err(SionError::CollectiveMismatch(
                "another file group failed during the collective read open".into(),
            ))
        }
    };
    Ok(SionParReader {
        reader: TaskReader::new(file, geom, used, compressed, DEFAULT_READ_AHEAD),
        gcom,
        grank,
        lcom_stats,
    })
}

/// What a member reports once an ack said its aggregator could not apply.
fn apply_failed() -> SionError {
    SionError::CollectiveMismatch("aggregator failed to apply shipped data".into())
}

fn clone_err(e: &SionError) -> SionError {
    // SionError is not Clone (it wraps io::Error); a formatted copy is
    // enough for the error path.
    SionError::CollectiveMismatch(e.to_string())
}

impl SionParReader {
    /// `sion_feof`: whether this task's logical file is exhausted.
    pub fn feof(&mut self) -> bool {
        self.reader.feof()
    }

    /// `sion_bytes_avail_in_chunk`: unread stored bytes in the current
    /// chunk.
    pub fn bytes_avail_in_chunk(&self) -> u64 {
        self.reader.bytes_avail_in_chunk()
    }

    /// `sion_fread`: read up to `buf.len()` logical bytes, crossing chunk
    /// boundaries; returns bytes read (0 at end of stream).
    pub fn read(&mut self, buf: &mut [u8]) -> Result<usize> {
        self.reader.read(buf)
    }

    /// Read exactly `buf.len()` logical bytes or fail.
    pub fn read_exact(&mut self, buf: &mut [u8]) -> Result<()> {
        self.reader.read_exact(buf)
    }

    /// This task's global rank.
    pub fn rank(&self) -> usize {
        self.grank
    }

    /// I/O-call accounting for this task's read stream so far.
    pub fn io_counters(&self) -> IoCounters {
        self.reader.io_counters()
    }

    /// Per-rank op/byte counters of the file-group communicator that
    /// carried this task's open-time exchange, when the runtime tracks
    /// them.
    pub fn local_comm_stats(&self) -> Option<Arc<CommStats>> {
        self.lcom_stats.clone()
    }

    /// Per-rank op/byte counters of this task's global communicator
    /// duplicate.
    pub fn global_comm_stats(&self) -> Option<Arc<CommStats>> {
        self.gcom.stats()
    }

    /// `sion_parclose_mpi` for the read side.
    pub fn close(self) -> Result<()> {
        drive_ready(self.close_co())
    }

    /// [`close`](Self::close) as a resumable protocol; the task-runtime
    /// entry point.
    pub async fn close_co(self) -> Result<()> {
        self.gcom.barrier().await;
        Ok(())
    }
}
