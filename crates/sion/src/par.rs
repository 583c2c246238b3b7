//! Parallel access to multifiles (paper §3.2.1/§3.2.2).
//!
//! Open and close are *collective* operations over a communicator: at open,
//! the master task of each physical file lays out the chunks, creates the
//! file (one create per physical file instead of one per task — the source
//! of the paper's orders-of-magnitude creation speedup) and writes
//! metablock 1, and each task learns its chunk geometry. At close, the
//! master collects the bytes effectively written and stores them in
//! metablock 2. Reads and writes in between are completely independent per
//! task.
//!
//! # Collective round structure
//!
//! Each phase costs a constant number of collective rounds regardless of
//! how many metadata fields it moves, and a round is spent only on what a
//! task cannot compute:
//!
//! * write open — on the caller's communicator ONE agreement round: a
//!   Max-reduction of five words per task, `[locally invalid, fp, !fp,
//!   chunk size, !chunk size]` (`fp` fingerprints the parameters that must
//!   agree and the file system's block size; the maximum of `!x` is
//!   `!min(x)`), from which rank 0 reads one verdict — mismatch, locally
//!   invalid, ragged or uniform requests — and broadcasts it. Then the file
//!   groups form *without an exchange*: [`Mapping::group_of`] is pure, so
//!   every task computes its own file, local rank and group size and joins
//!   through [`CoComm::split_local`]. Per file group:
//!   - uniform requests (every `sionbench` workload, every task passing one
//!     `SionParams::new(chunksize)`): the master fills metablock 1's rank
//!     table from [`Mapping::rank_of`] and creates the file without
//!     hearing from anyone, then ONE status-word broadcast orders the
//!     create before the other tasks' opens and carries its verdict; each
//!     task computes its geometry and aggregation neighbourhood in O(1)
//!     with the master's layout rules;
//!   - ragged requests (`mp2c`'s particle counts): ONE gather of the
//!     requests + ONE scatter of each task's geometry, whose parts lead
//!     with the master's status word (a lone `[STATUS_ERR]` when it
//!     failed).
//!
//!   Then ONE global allreduce of the failed flag, the all-or-nothing
//!   agreement across file groups;
//! * write close — ONE usage gather per file group, after which the master
//!   writes metablock 2, then ONE global allreduce of "my flush failed, or,
//!   at the master, the finalize failed", at every group size. So every
//!   task returns the same verdict, and `Ok` means every physical file's
//!   metablock 2 is written;
//! * read open — on the caller's communicator ONE scatter handing each task
//!   its whole part (status, flags, its file, its chunk geometry and its
//!   usage row), then ONE allreduce once every task has opened its file.
//!   No split, no file-group phase: what is scattered is built and decoded
//!   by `serial.rs`, not here — rank 0's discovery *is* a
//!   [`Multifile::open`] (every file's headers, compared with file 0's, and
//!   the rank directory) plus the checked usage rows out of each file's
//!   full metablock 2 — so the collective open fails, on every task,
//!   exactly where the serial open of the same bytes fails;
//! * read close — local. A reader wrote no metadata, so it owns no
//!   communicator and waits for nobody.
//!
//! No task keeps a payload that grows with the number of tasks outside its
//! own file group, save rank 0 at the read open: it reads every file's
//! metablock 2 once, O(P·blocks) words the file masters used to read in
//! parallel. On the caller's and the global communicator the write open and
//! close move a few words per tree edge; the read open's scatter hands each
//! task its own (10 + blocks) words, interior tree nodes forwarding their
//! subtree's parts — O(P log P) bytes in all, where the rank-map broadcast
//! it replaced moved O(P²).
//!
//! The agreement round has to come *before* the groups form. A task whose
//! parameters differ would compute a different place for itself than its
//! peers expect — a rank someone else claims, or a group of another size —
//! and a task whose *local* pre-open validation fails must still join
//! every collective (deserting one would hang its peers). So both travel
//! in the reduction, every task learns the worst verdict, and on anything
//! but a clean one all return an error before a single group exists.
//!
//! [`Mapping::group_of`]: crate::Mapping::group_of
//! [`Mapping::rank_of`]: crate::Mapping::rank_of
//!
//! # Async protocol bodies
//!
//! The collective protocols are `async` functions over [`simmpi::CoComm`]
//! ([`paropen_write_co`], [`paropen_read_co`], [`SionParWriter::close_co`]).
//! A rank of a [`simmpi::TaskWorld`] awaits them, and they genuinely park
//! on each collective round, which is what lets a 16Ki–64Ki-rank
//! collective open run on a handful of worker threads.
//!
//! What a parked rank holds is therefore what these futures keep across
//! their `.await`s, paid once per rank: the handles [`SionParWriter`] and
//! [`SionParReader`] are one word each, a box allocated once at the end of
//! the open, and each future keeps only what a later step needs.
//!
//! `vfs::guard` block-contention attribution reads a per-*thread* task
//! label, which the runtime writes: the task executor labels the thread
//! with the world rank it runs before every poll. Every write a rank
//! issues — the master's metadata, each frame an aggregator applies, the
//! coalesced flushes of the stream engine — is thus attributed to that
//! rank, on sub-communicators too, and the protocol never labels anything
//! itself (`simcheck`'s
//! misaligned-chunk mutation and its aligned control check exactly that).

use crate::agg::{AggState, AggStats, MemberState};
use crate::error::{Result, SionError};
use crate::format::CloseRecord;
use crate::layout::{group_of, FileLayout};
use crate::physical_name;
use crate::serial::{create_file, finalize_file, part_reader, Multifile};
use crate::stream::{ChunkGeom, IoCounters, TaskReader, TaskWriter};
use crate::{IoMode, SionParams};
use simmpi::{CoComm, CommStats, ReduceOp};
use std::future::Future;
use std::sync::Arc;
use vfs::Vfs;

/// What a task holds once its file group has opened: its chunk geometry,
/// its aggregation neighbourhood `[aggregator, end)` in local ranks, and —
/// at the file master — the file it created.
type GroupOpen = (ChunkGeom, usize, usize, Option<Arc<dyn vfs::VfsFile>>);

/// What a ragged open's file master prepares: each task's part to scatter,
/// and the file it created.
type MasterSetup = (Vec<Vec<u8>>, Arc<dyn vfs::VfsFile>);

/// Leading word of every part a master scatters at an open, and the one
/// word a uniform write open's master broadcasts: its verdict travels with
/// what the tasks need anyway, so that a failure anywhere in the group
/// surfaces as an error on every task instead of a hang or a half-written
/// multifile.
const STATUS_OK: u64 = 0;
/// The master itself failed (layout, create, or metablock write); a
/// scattered part is this one word.
const STATUS_ERR: u64 = 1;

/// Verdict of the write open's agreement round, which rank 0 reads from
/// the reduced words ([`agreement_verdict`]) and broadcasts: every task
/// asked for the same chunk size, so each computes its own place.
const AGREE_UNIFORM: u64 = 0;
/// The chunk-size requests differ: the file masters gather them.
const AGREE_RAGGED: u64 = 1;
/// Some task's parameters failed its local pre-open validation.
const AGREE_LOCAL_INVALID: u64 = 2;
/// Some task's parameter fingerprint differs from another's.
const AGREE_PARAM_MISMATCH: u64 = 3;

/// Words each task contributes to the write open's agreement reduction.
pub(crate) const AGREEMENT_WORDS: usize = 5;

/// One task's words of the agreement reduction, Max-reduced word by word:
/// `[locally invalid, fp, !fp, chunk size, !chunk size]`. The maximum of
/// `!x` is `!min(x)`, so the result tells whether the fingerprints and the
/// requests agree on every task, and whether any task failed its check.
fn agreement_words(params: &SionParams, fsblksize: u64, invalid: bool) -> [u64; AGREEMENT_WORDS] {
    let fp = params_fingerprint(params, fsblksize);
    [invalid as u64, fp, !fp, params.chunksize, !params.chunksize]
}

/// Rank 0's reading of the reduced [`agreement_words`].
fn agreement_verdict(reduced: &[u64]) -> u64 {
    let &[invalid, fp_max, not_fp_min, req_max, not_req_min] = reduced else {
        unreachable!("the agreement reduces five words")
    };
    if fp_max != !not_fp_min {
        AGREE_PARAM_MISMATCH
    } else if invalid != 0 {
        AGREE_LOCAL_INVALID
    } else if req_max != !not_req_min {
        AGREE_RAGGED
    } else {
        AGREE_UNIFORM
    }
}

/// A fingerprint of the parameters that must agree across tasks, and of
/// the file system's block size, from which every task of a uniform open
/// computes its chunk geometry. Each field is folded in by a step that is a
/// bijection of the running hash and of the field, so two parameter sets
/// that differ in exactly one field — one task's `nfiles` or mapping off,
/// the disagreement the exchange-free file groups cannot survive — never
/// collide.
fn params_fingerprint(p: &SionParams, fsblksize: u64) -> u64 {
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
        fsblksize,
    ]
    .iter()
    .fold(0xcbf2_9ce4_8422_2325, |h: u64, &field| {
        (h ^ field)
            .wrapping_mul(0x0000_0100_0000_01B3)
            .rotate_left(29)
    })
}

/// Statistics returned by [`SionParWriter::close_co`].
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

impl AggRole {
    /// Shipment counters so far; all zeros in independent mode.
    fn stats(&self) -> AggStats {
        match self {
            AggRole::Independent => AggStats::default(),
            AggRole::Member(m) => m.stats,
            AggRole::Aggregator(a) => a.stats,
        }
    }
}

/// Handle for writing one task's logical file of an open multifile
/// (`sion_paropen_mpi` in write mode).
///
/// One word: what the handle holds lives in one box, allocated once at the
/// end of the collective open, so every future that keeps the handle
/// across an `.await` — a rank's own, the close's — pays a pointer for it.
pub struct SionParWriter(Box<WriterState>);

/// What a [`SionParWriter`] holds.
struct WriterState {
    /// This task's stream engine. In aggregated mode a *member*'s engine
    /// writes to a [`Vfs::create_shadow`] handle — identical chunk
    /// arithmetic, validation and close accounting — and records each
    /// write as an extent for its aggregator to apply (see [`crate::agg`]).
    writer: TaskWriter,
    lcom: CoComm,
    gcom: CoComm,
    filenum: u32,
    grank: usize,
    role: AggRole,
}

/// Collectively create a multifile for writing (`sion_paropen_mpi`).
///
/// Every task of `comm` awaits this with identical parameters except for
/// `params.chunksize`, which may differ per task. Returns this task's
/// writer handle.
///
/// Every task parked in the open holds this future, so it keeps only what
/// a later step needs across each `.await`. It is a plain `fn` around one
/// `async move` block, because an `async fn` keeps its arguments twice, as
/// arguments and as the body's bindings; the body and the file-group
/// phases reach the arguments through one `WriteOpen`; and since a local
/// that is ever borrowed keeps its place in the future up to the end of
/// its scope, a step that borrows one runs in a block or a future of its
/// own, and the handle is built by a plain function.
#[allow(clippy::manual_async_fn)] // see above: an `async fn` stores its arguments twice
pub fn paropen_write_co<'a>(
    vfs: &'a dyn Vfs,
    base: &'a str,
    params: &'a SionParams,
    comm: &'a CoComm,
) -> impl Future<Output = Result<SionParWriter>> + Send + 'a {
    let at = WriteOpen {
        vfs,
        base,
        params,
        comm,
    };
    async move {
        // Agreement round, on the caller's communicator and before any split:
        // the file groups below are formed without an exchange, each task
        // computing its own place from (mapping, nfiles), so a task holding
        // different or invalid parameters must be found out first — it would
        // claim a place in a group its peers do not expect it in. ONE
        // reduction of every task's words, then rank 0's verdict comes back. A
        // task whose own check fails still joins both (deserting would hang
        // its peers); on any failure every task returns here and nobody splits.
        let reduced = {
            let invalid = at.validate().is_err();
            let words = agreement_words(at.params, at.vfs.block_size(), invalid);
            at.comm.reduce_u64s(&words, ReduceOp::Max, 0).await
        };
        let verdict = at
            .comm
            .bcast_u64(reduced.map(|r| agreement_verdict(&r)), 0)
            .await;
        if !matches!(verdict, AGREE_UNIFORM | AGREE_RAGGED) {
            // The task's own validation error is the most precise report:
            // the check is pure, so it is run again rather than kept.
            at.validate()?;
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
        let uniform = verdict == AGREE_UNIFORM;
        let (filenum, lrank, lsize) =
            at.params
                .mapping
                .group_of(at.comm.rank(), at.comm.size(), at.params.nfiles);
        // The file-group phase. Any failure from here on is captured, not
        // returned: the global exchange below must run on every task or the
        // healthy file groups would hang.
        let (lcom, opened) = open_group(&at, filenum, (lrank, lsize), uniform).await;
        // A private duplicate of the global communicator, so the handle can run
        // global collectives (the paper's open/close are collective over gcom).
        let gcom = at.comm.split_local(0, at.comm.rank(), at.comm.size()).await;

        // One global reduction closes the open: the all-or-nothing failure
        // agreement across file groups. When it returns clean, every physical
        // file exists and every task holds a handle. It runs on `gcom`, which
        // a task holds in its handle's box or, when its group failed, beside
        // its error: a task parked in it holds its handle as a word, and
        // drops it when a peer failed.
        let local = writer_handle(&at, filenum, lcom, gcom, opened);
        let any_failed = {
            let gcom = match &local {
                Ok(w) => &w.0.gcom,
                Err((_, gcom)) => gcom,
            };
            gcom.allreduce_u64(local.is_err() as u64, ReduceOp::Max)
                .await
                != 0
        };
        agreed(local.map_err(|(e, _)| e), any_failed, OPEN_PEER_FAILED)
    }
}

/// This task's writer handle, from the outcome of its file-group phase:
/// the one box, with its communicators, its file — created by the master,
/// opened, or the shadow an aggregated-mode member writes to — and its
/// aggregation role. When the phase or the file failed, the error, with
/// the global communicator the open's agreement still runs on (the group
/// communicator is dropped: this task's file-group phase is over).
fn writer_handle(
    at: &WriteOpen<'_>,
    filenum: u32,
    lcom: CoComm,
    gcom: CoComm,
    opened: Result<GroupOpen>,
) -> std::result::Result<SionParWriter, (SionError, CoComm)> {
    let WriteOpen {
        vfs, base, params, ..
    } = *at;
    let me = lcom.rank();
    let parts = opened.and_then(|(geom, agg, end, created)| {
        let file = match created {
            Some(file) => file,
            // The master created the file before its status word or the
            // scatter left, so it exists by now.
            None if agg == me => vfs.open_rw(&physical_name(base, filenum))?,
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
    });
    let (geom, agg, end, file) = match parts {
        Ok(parts) => parts,
        Err(e) => return Err((e, gcom)),
    };
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
    Ok(SionParWriter(Box::new(WriterState {
        writer,
        lcom,
        gcom,
        filenum,
        grank: at.comm.rank(),
        role,
    })))
}

/// What a task of a healthy file group reports when another group failed
/// during the collective open.
const OPEN_PEER_FAILED: &str = "another file group failed during the collective open";

/// The arguments of one write open, which its file-group phases borrow as
/// one reference.
struct WriteOpen<'a> {
    vfs: &'a dyn Vfs,
    base: &'a str,
    params: &'a SionParams,
    comm: &'a CoComm,
}

impl WriteOpen<'_> {
    /// This task's local pre-open check of its parameters.
    fn validate(&self) -> Result<()> {
        let p = self.params;
        p.mapping.validate(self.comm.size(), p.nfiles)
    }
}

/// The file-group phase of the write open: this task joins its file
/// group's communicator as local rank `lrank` of `lsize`, runs one
/// protocol with one optional round on it, and returns the communicator
/// with the phase's outcome. One future for both kinds of request, so that
/// the open parks on it at one `.await`.
#[allow(clippy::manual_async_fn)] // see `paropen_write_co`
fn open_group<'a>(
    at: &'a WriteOpen<'a>,
    filenum: u32,
    (lrank, lsize): (usize, usize),
    uniform: bool,
) -> impl Future<Output = (CoComm, Result<GroupOpen>)> + Send + 'a {
    async move {
        let lcom = at.comm.split_local(filenum as u64, lrank, lsize).await;
        let opened = if uniform {
            group_uniform(at, filenum, &lcom).await
        } else {
            group_ragged(at, filenum, &lcom).await
        };
        (lcom, opened)
    }
}

/// The file-group phase for uniform requests. Every task asked for the
/// same chunk size, so the master creates the file without hearing from
/// anyone — metablock 1's rank table is [`Mapping::rank_of`]'s — and ONE
/// status word on `lcom` orders the create before the other tasks' opens
/// and carries the master's verdict. Only on a clean status does each task
/// compute its own geometry and neighbourhood, with the master's layout
/// rules and checked arithmetic ([`FileLayout::uniform`]).
///
/// [`Mapping::rank_of`]: crate::Mapping::rank_of
#[allow(clippy::manual_async_fn)] // see `paropen_write_co`
fn group_uniform<'a>(
    at: &'a WriteOpen<'a>,
    filenum: u32,
    lcom: &'a CoComm,
) -> impl Future<Output = Result<GroupOpen>> + Send + 'a {
    async move {
        let params = at.params;
        let created = (lcom.rank() == 0).then(|| {
            let reqs = vec![params.chunksize; lcom.size()];
            let ntasks = at.comm.size();
            create_file(
                at.vfs,
                at.base,
                params,
                params.flags(),
                filenum,
                ntasks,
                &reqs,
            )
            .map(|(_, f)| f)
        });
        let status = created
            .as_ref()
            .map(|c| if c.is_ok() { STATUS_OK } else { STATUS_ERR });
        let status = lcom.bcast_u64(status, 0).await;
        let created = created.transpose()?;
        if status != STATUS_OK {
            return Err(master_failed());
        }
        let (me, lsize) = (lcom.rank(), lcom.size());
        let layout = FileLayout::uniform(
            lsize,
            params.chunksize,
            at.vfs.block_size(),
            params.alignment,
            params.rescue,
        )?;
        let (agg, end) = match params.io_mode {
            IoMode::Independent => (me, me + 1),
            IoMode::Aggregated {
                tasks_per_aggregator,
            } => layout.aggregation_group(me, tasks_per_aggregator),
        };
        Ok((layout.geom(me, at.comm.rank() as u64), agg, end, created))
    }
}

/// The file-group phase for ragged requests: ONE gather of the chunk-size
/// requests at the master, which creates the file, and ONE scatter of each
/// task's part.
#[allow(clippy::manual_async_fn)] // see `paropen_write_co`
fn group_ragged<'a>(
    at: &'a WriteOpen<'a>,
    filenum: u32,
    lcom: &'a CoComm,
) -> impl Future<Output = Result<GroupOpen>> + Send + 'a {
    async move {
        let setup = lcom
            .gather_u64(at.params.chunksize, 0)
            .await
            .map(|reqs| master_open_setup(at, filenum, &reqs));
        let (parts, created, failure) = match setup {
            Some(Ok((parts, file))) => (Some(parts), Some(file), None),
            Some(Err(e)) => (
                Some(vec![STATUS_ERR.to_le_bytes().to_vec(); lcom.size()]),
                None,
                Some(e),
            ),
            None => (None, None, None),
        };
        let mine = lcom.scatter(parts, 0).await;
        let Some((geom, agg, end)) = decode_write_part(&mine)? else {
            return Err(failure.unwrap_or_else(master_failed));
        };
        Ok((geom, agg, end, created))
    }
}

/// The ragged master's half of the write open: create the physical file
/// from the gathered requests ([`create_file`] lays it out, creates it and
/// writes metablock 1) and prepare each task's part. Every part has the
/// same 10-word shape in both modes: the status word, 7 geometry words and
/// the aggregation neighbourhood `[aggregator, end)` — a task that is its
/// own aggregator with an empty neighbourhood writes independently.
fn master_open_setup(at: &WriteOpen<'_>, filenum: u32, reqs: &[u64]) -> Result<MasterSetup> {
    let WriteOpen {
        vfs,
        base,
        params,
        comm,
    } = *at;
    let ntasks = comm.size();
    let (layout, file) = create_file(vfs, base, params, params.flags(), filenum, ntasks, reqs)?;
    // Aggregation election (IoMode::Aggregated): neighbourhood starts,
    // snapped to FS-block-clean task boundaries so aggregator extents
    // never share an FS block with another writer.
    let groups = match params.io_mode {
        IoMode::Independent => None,
        IoMode::Aggregated {
            tasks_per_aggregator,
        } => Some(layout.aggregation_groups(tasks_per_aggregator)),
    };
    let parts: Vec<Vec<u8>> = (0..layout.ntasks())
        .map(|t| {
            let (agg, end) = match &groups {
                None => (t, t + 1),
                Some(starts) => group_of(starts, t, layout.ntasks()),
            };
            let grank = params.mapping.rank_of(filenum, t, ntasks, params.nfiles);
            let geom = layout.geom(t, grank as u64).encode();
            std::iter::once(STATUS_OK)
                .chain(geom)
                .chain([agg as u64, end as u64])
                .flat_map(u64::to_le_bytes)
                .collect()
        })
        .collect();
    Ok((parts, file))
}

/// What a task reports when its file master failed during the open.
fn master_failed() -> SionError {
    SionError::CollectiveMismatch("master task failed during collective open".into())
}

/// Decode a write-open scatter part: the master's status word, then 7
/// geometry words and the aggregation words `[aggregator lrank,
/// neighborhood end)`. `None` when the master failed.
fn decode_write_part(bytes: &[u8]) -> Result<Option<(ChunkGeom, usize, usize)>> {
    if !bytes.len().is_multiple_of(8) {
        return Err(SionError::Format("bad chunk geometry payload".into()));
    }
    let words: Vec<u64> = bytes
        .chunks_exact(8)
        .map(|c| u64::from_le_bytes(c.try_into().unwrap()))
        .collect();
    let [STATUS_OK, part @ ..] = words.as_slice() else {
        return Ok(None);
    };
    if part.len() < ChunkGeom::ENCODED_WORDS + 2 {
        return Err(SionError::Format("truncated write-open payload".into()));
    }
    let geom = ChunkGeom::decode(part)?;
    let agg = part[ChunkGeom::ENCODED_WORDS] as usize;
    let end = part[ChunkGeom::ENCODED_WORDS + 1] as usize;
    Ok(Some((geom, agg, end)))
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
        let s = &mut *self.0;
        if matches!(&s.role, AggRole::Member(m) if m.failed) {
            return Err(apply_failed());
        }
        let calls = s.writer.io_counters().vfs_calls;
        run(&mut s.writer)?;
        let lcom = &s.lcom;
        match &mut s.role {
            AggRole::Member(m) if m.due(s.writer.recorded(), ship_now) => {
                m.ship(s.writer.take_frame(true), lcom);
                m.drain_acks(lcom);
                if m.failed {
                    return Err(apply_failed());
                }
            }
            AggRole::Aggregator(a) if ship_now || s.writer.io_counters().vfs_calls > calls => {
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
        self.0.writer.bytes_avail_in_chunk()
    }

    /// `sion_flush`: push buffered data (and the rescue header, if enabled)
    /// to the VFS so the bytes written so far are durable.
    ///
    /// On an aggregated-mode member this ships everything written so far
    /// without waiting for the acknowledgement: durability follows when
    /// the aggregator next applies, and an aggregator crash loses only
    /// not-yet-acked shipments (see `agg.rs`). The acks that have
    /// arrived are collected, so an earlier frame the aggregator failed to
    /// apply fails this call. On an aggregator it also applies every
    /// shipment already delivered.
    pub fn flush(&mut self) -> Result<()> {
        self.op(true, |w| w.flush())
    }

    /// I/O-call accounting for this task's stream so far. On an
    /// aggregated-mode member: the shadow stream's counters.
    pub fn io_counters(&self) -> IoCounters {
        self.0.writer.io_counters()
    }

    /// Aggregated-mode shipment counters so far (see [`AggStats`]); all
    /// zeros in independent mode.
    pub fn agg_stats(&self) -> AggStats {
        self.0.role.stats()
    }

    /// Per-rank op/byte counters of this task's *file-group* communicator.
    /// The returned handle keeps counting through
    /// [`close_co`](Self::close_co) (which consumes the writer), so callers
    /// can assert collective round counts after the fact. Always `Some`:
    /// the `Option` stays while `sionbench` (`benchmark/src/cycle.rs`)
    /// stores it, until ROADMAP item 1's benchmark slice.
    pub fn local_comm_stats(&self) -> Option<Arc<CommStats>> {
        Some(self.0.lcom.stats())
    }

    /// Per-rank op/byte counters of this task's *global* communicator
    /// duplicate; same lifetime guarantees, and the same always-`Some`
    /// `Option`, as [`local_comm_stats`](Self::local_comm_stats).
    pub fn global_comm_stats(&self) -> Option<Arc<CommStats>> {
        Some(self.0.gcom.stats())
    }

    /// This task's global rank.
    pub fn rank(&self) -> usize {
        self.0.grank
    }

    /// Index of the physical file this task writes to.
    pub fn filenum(&self) -> u32 {
        self.0.filenum
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
    /// rescue headers are enabled. Close returns the same verdict on every
    /// task: `Ok` means every physical file's metablock 2 is written, the
    /// multifile's metadata durable and final. A task whose own flush
    /// failed reports that error, every other failing task a
    /// [`SionError::CollectiveMismatch`].
    ///
    /// Not an `async fn`, which keeps its receiver twice in its future:
    /// every task parked in the close holds that future. It keeps the
    /// one-word handle and borrows the role in place, and each step holds
    /// only its own state across its `.await`.
    #[allow(clippy::manual_async_fn)] // see above: an `async fn` stores `self` twice
    pub fn close_co(self) -> impl Future<Output = Result<CloseStats>> + Send {
        let SionParWriter(mut s) = self;
        async move {
            // Aggregation epilogue, before the metadata exchange. A member
            // finishes its stream (the authoritative `used` vector), ships the
            // final frame with the end-of-stream word, and then collects every
            // outstanding ack — so by the time it enters the close gather, its
            // data is either durably applied or its CloseRecord carries the
            // failure. An aggregator exhaustively drains every member to its
            // end of stream (acking as it applies) before finishing its own;
            // apply failures surface through the members' own records.
            let finish_res = match &mut s.role {
                AggRole::Independent => s.writer.finish(),
                AggRole::Member(m) => {
                    let finished = s.writer.finish();
                    m.finish(s.writer.take_frame(false), &s.lcom).await;
                    if m.failed && finished.is_ok() {
                        Err(apply_failed())
                    } else {
                        finished
                    }
                }
                AggRole::Aggregator(a) => {
                    a.drain_all(&s.lcom).await;
                    s.writer.finish()
                }
            };

            // Packed close exchange: the error flag rides in the same record
            // as the per-block usage, so ONE gather finishes the file group
            // — and, at the file master, writes metablock 2 unless some
            // task's flush failed.
            let (encoded, finish_res) = close_record(finish_res);
            let finalize = close_group(&s.lcom, &s.writer, encoded).await;
            // ONE reduction over the global communicator ends the close, the
            // all-or-nothing agreement across file groups: when it returns
            // clean, every physical file's metablock 2 is written. Always
            // reached, error or not; a flush error outranks a finalize one.
            let used = all_or_nothing(
                &s.gcom,
                finish_res.and_then(|used| finalize.map(|()| used)),
                "another task failed during the collective close",
            )
            .await?;
            Ok(CloseStats {
                user_bytes: s.writer.user_bytes(),
                stored_bytes: used.iter().sum(),
                blocks: used.iter().filter(|&&u| u > 0).count() as u64,
                write_io: s.writer.io_counters(),
                agg: s.role.stats(),
            })
        }
    }
}

/// A task's packed [`CloseRecord`] — its flush verdict and per-block
/// usage — encoded for the close gather, and its finish result back.
fn close_record(finished: Result<Vec<u64>>) -> (Vec<u8>, Result<Vec<u64>>) {
    let record = match &finished {
        Ok(used) => CloseRecord {
            status: CloseRecord::STATUS_OK,
            used: used.clone(),
        },
        Err(_) => CloseRecord {
            status: CloseRecord::STATUS_FLUSH_FAILED,
            used: Vec::new(),
        },
    };
    (record.encode(), finished)
}

/// The file group's half of the write close: ONE gather of every task's
/// encoded [`CloseRecord`] at the file master, which writes metablock 2
/// unless some task's flush failed. Its own future, which owns the record:
/// nothing of it is left in the close's future for the global agreement.
#[allow(clippy::manual_async_fn)] // an `async fn` stores its arguments twice
fn close_group<'a>(
    lcom: &'a CoComm,
    writer: &'a TaskWriter,
    encoded: Vec<u8>,
) -> impl Future<Output = Result<()>> + Send + 'a {
    async move {
        let Some(raw) = lcom.gather(&encoded, 0).await else {
            return Ok(());
        };
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
        finalize_file(writer, &rows)
    }
}

/// Handle for reading one task's logical file of a multifile
/// (`sion_paropen_mpi` in read mode). It owns no communicator: a reader
/// writes no metadata, so its close has nothing to agree on. One word, as
/// a [`SionParWriter`] is: the reader lives in one box, allocated once
/// the task's file is open.
pub struct SionParReader(Box<ReaderState>);

/// What a [`SionParReader`] holds.
struct ReaderState {
    reader: TaskReader,
    grank: usize,
}

/// Collectively open an existing multifile for reading.
///
/// The task count of `comm` must equal the task count the multifile was
/// written with, and each task is positioned at its own logical file.
pub async fn paropen_read_co(vfs: &dyn Vfs, base: &str, comm: &CoComm) -> Result<SionParReader> {
    // Everything up to this task's own open is one block, so that none of
    // it is kept in the future of a task parked in the agreement below.
    let opened = {
        let ntasks = comm.size();

        // Rank 0 opens the multifile once — every file's headers and rank
        // table, then each file's metablock 2 — and hands each task its
        // whole part: [status, flags, file, chunk geometry, checked usage
        // row]. Tens of thousands of tasks neither hammer the metadata
        // concurrently nor hold a copy of the rank → file map.
        let discovery = (comm.rank() == 0).then(|| -> Result<Vec<Vec<u8>>> {
            let mf = Multifile::open(vfs, base)?;
            if mf.ntasks() != ntasks {
                return Err(SionError::CollectiveMismatch(format!(
                    "multifile was written by {} tasks, read with {}",
                    mf.ntasks(),
                    ntasks
                )));
            }
            mf.read_parts()
                .map(|words| {
                    let words = words?;
                    let mut part = Vec::with_capacity(8 * (1 + words.len()));
                    for w in std::iter::once(STATUS_OK).chain(words) {
                        part.extend_from_slice(&w.to_le_bytes());
                    }
                    Ok(part)
                })
                .collect()
        });

        // ONE scatter: the status word travels as each part's leading word
        // (a lone [STATUS_ERR] on failure) instead of costing a separate
        // round.
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
        let [STATUS_OK, part @ ..] = words.as_slice() else {
            return Err(failure.unwrap_or_else(|| {
                SionError::CollectiveMismatch("master failed during read open".into())
            }));
        };
        // Every task opens its own physical file into the handle's box.
        part_reader(vfs, base, part).map(|reader| {
            SionParReader(Box::new(ReaderState {
                reader,
                grank: comm.rank(),
            }))
        })
    };

    // ONE reduction keeps the open all-or-nothing. The agreement holds the
    // one-word handle.
    all_or_nothing(
        comm,
        opened,
        "another task failed during the collective read open",
    )
    .await
}

/// The all-or-nothing agreement that ends a collective phase: ONE
/// allreduce of the failure flag over `comm`, then this task's own error,
/// or `CollectiveMismatch(peer_failed)` when only its peers failed. Every
/// task reaches it, error or not, so no task is left waiting on one that
/// gave up.
///
/// A plain `fn` around one `async move` block: an `async fn` would store
/// `local` twice in its future, in every rank parked in the agreement.
#[allow(clippy::manual_async_fn)] // see above: an `async fn` stores `local` twice
pub fn all_or_nothing<'a, T: 'a>(
    comm: &'a CoComm,
    local: Result<T>,
    peer_failed: &'a str,
) -> impl Future<Output = Result<T>> + 'a {
    async move {
        let any_failed = comm
            .allreduce_u64(local.is_err() as u64, ReduceOp::Max)
            .await
            != 0;
        agreed(local, any_failed, peer_failed)
    }
}

/// An all-or-nothing agreement's verdict for one task: its own error, or
/// `CollectiveMismatch(peer_failed)` when only its peers failed.
fn agreed<T>(local: Result<T>, any_failed: bool, peer_failed: &str) -> Result<T> {
    match local {
        Ok(_) if any_failed => Err(SionError::CollectiveMismatch(peer_failed.into())),
        local => local,
    }
}

/// What a member reports once an ack said its aggregator could not apply.
fn apply_failed() -> SionError {
    SionError::CollectiveMismatch("aggregator failed to apply shipped data".into())
}

impl SionParReader {
    /// `sion_feof`: whether this task's logical file is exhausted.
    pub fn feof(&mut self) -> bool {
        self.0.reader.feof()
    }

    /// `sion_bytes_avail_in_chunk`: unread stored bytes in the current
    /// chunk.
    pub fn bytes_avail_in_chunk(&self) -> u64 {
        self.0.reader.bytes_avail_in_chunk()
    }

    /// `sion_fread`: read up to `buf.len()` logical bytes, crossing chunk
    /// boundaries; returns bytes read (0 at end of stream).
    pub fn read(&mut self, buf: &mut [u8]) -> Result<usize> {
        self.0.reader.read(buf)
    }

    /// Read exactly `buf.len()` logical bytes or fail.
    pub fn read_exact(&mut self, buf: &mut [u8]) -> Result<()> {
        self.0.reader.read_exact(buf)
    }

    /// This task's global rank.
    pub fn rank(&self) -> usize {
        self.0.grank
    }

    /// I/O-call accounting for this task's read stream so far.
    pub fn io_counters(&self) -> IoCounters {
        self.0.reader.io_counters()
    }

    /// `sion_parclose_mpi` for the read side. Local: a reader wrote no
    /// metadata, so no task waits for another, and the future is ready at
    /// once. A caller that deletes or overwrites the multifile after
    /// reading it synchronizes by itself.
    pub async fn close_co(self) -> Result<()> {
        Ok(())
    }
}
