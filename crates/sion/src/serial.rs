//! Serial access to multifiles (paper §3.2.3/§3.2.4).
//!
//! Serial access is the basis for post-processing tools: a single process
//! opens the whole multifile with either a **global view** ([`Multifile`],
//! `sion_open`) — all metadata of all tasks, plus `sion_seek`-style
//! addressed reads — or a **task-local view** ([`RankReader`],
//! `sion_open_rank`) that streams one task's logical file. [`SerialWriter`]
//! is the serial counterpart for *creating* a multifile from one process
//! (`sion_open` in write mode), used for example by the defragmentation
//! tool, which scans ranks' stored streams
//! ([`Multifile::stored_reader_at`], [`RankReader::scan_runs`]) and writes
//! each run, with the lease it came in, through [`RankWriter::write_run`]
//! from several threads.
//!
//! # Lazy metadata
//!
//! [`Multifile::open`] is a **header open**: it reads metablock 1, the
//! trailer, and the fixed metablock-2 header of each physical file — O(one
//! small read per file plus the rank directory), never the O(ranks·blocks)
//! usage matrix. Per-rank metadata is read from the file on every call of
//! [`Multifile::location`]: for index-carrying (v2) files one contiguous
//! read of that rank's prefix sums, for pre-index (v1) files — or when the
//! index is torn — that rank's own word of each block of metablock 2; either
//! way O(blocks), independent of the rank count. The bulk readers —
//! [`Multifile::locations`], the collective read open and
//! [`check_metadata`] — read each file's metablock 2 once per call. Once
//! open, a [`Multifile`] is plain data: it holds no lock and no cached row.
//!
//! # A file's head and tail
//!
//! What a physical file starts and ends with is known here and in
//! [`crate::format`] only: `FileView` decodes it, `create_file` and
//! `finalize_file` write it, for [`SerialWriter`] and for the collective
//! open/close of `par.rs` alike, and [`check_metadata`] judges it for
//! `sionverify` and `sionrepair`.

use crate::error::{Result, SionError};
use crate::format::{write_close_metadata, ChunkIndex, MetaBlock1, MetaBlock2, SionFlags, Trailer};
use crate::layout::FileLayout;
use crate::physical_name;
use crate::stream::{ChunkGeom, IoCounters, TaskReader, TaskWriter, DEFAULT_READ_AHEAD};
use crate::SionParams;
use std::sync::Arc;
use vfs::{ByteLease, Vfs, VfsFile};

/// Location and fill state of one chunk (`sion_get_locations` output).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChunkInfo {
    /// Block number of this chunk.
    pub block: u64,
    /// File offset of the chunk's user data.
    pub offset: u64,
    /// Stored bytes in the chunk.
    pub used: u64,
}

/// Everything known about one task's logical file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TaskLocation {
    /// Global rank.
    pub global_rank: usize,
    /// Physical file index.
    pub file: u32,
    /// Local index within the physical file.
    pub ltask: usize,
    /// Chunk size the task requested at open.
    pub chunksize_req: u64,
    /// Chunk capacity (aligned, including rescue overhead).
    pub capacity: u64,
    /// User-data capacity per chunk.
    pub usable: u64,
    /// One entry per block of the physical file (zero-use chunks included).
    pub chunks: Vec<ChunkInfo>,
    /// Inclusive prefix sums of `chunks[..].used` — `cum[b]` is the total
    /// stored bytes in blocks `0..=b`. This is the on-disk chunk-index
    /// slice for v2 files (computed for v1), and what
    /// [`find_chunk`](Self::find_chunk) binary-searches.
    pub cum: Vec<u64>,
    /// Total stored bytes across all chunks.
    pub stored_bytes: u64,
}

impl TaskLocation {
    /// Map a logical stream position to `(chunk, offset within chunk)` by
    /// binary search over the prefix sums — O(log blocks) instead of the
    /// linear chunk walk. `None` past the end of the stream.
    pub fn find_chunk(&self, pos: u64) -> Option<(u64, u64)> {
        if pos >= self.stored_bytes {
            return None;
        }
        let b = self.cum.partition_point(|&c| c <= pos);
        let before = if b == 0 { 0 } else { self.cum[b - 1] };
        Some((b as u64, pos - before))
    }
}

/// Global metadata of a multifile (`sion_get_locations`).
#[derive(Debug, Clone, PartialEq)]
pub struct Locations {
    /// Total number of tasks.
    pub ntasks: usize,
    /// Number of physical files.
    pub nfiles: u32,
    /// File-system block size recorded at creation.
    pub fsblksize: u64,
    /// Feature flags.
    pub flags: SionFlags,
    /// Per-task locations, indexed by global rank.
    pub tasks: Vec<TaskLocation>,
}

impl Locations {
    /// Total stored bytes across all tasks.
    pub fn total_stored_bytes(&self) -> u64 {
        self.tasks.iter().map(|t| t.stored_bytes).sum()
    }

    /// Largest number of blocks in any physical file, **counting trailing
    /// empty blocks**: every task's chunk list has one entry per block of
    /// its file, so this equals the largest `metablock 2 nblocks` and
    /// agrees with what `siondump` prints and `siondefrag` reports.
    pub fn max_blocks(&self) -> u64 {
        self.tasks
            .iter()
            .map(|t| t.chunks.len() as u64)
            .max()
            .unwrap_or(0)
    }
}

/// Per-physical-file state of a lazily opened multifile: the layout and
/// trailer geometry read at open. Every decode and check of a file's
/// metadata happens here, for the serial open and for the collective read
/// open alike.
pub(crate) struct FileView {
    handle: Arc<dyn VfsFile>,
    pub(crate) mb1: MetaBlock1,
    pub(crate) layout: FileLayout,
    trailer: Trailer,
    /// Block count from the metablock-2 fixed header.
    nblocks: u64,
    /// Validated chunk-index region; `None` for pre-index files and for
    /// files whose index is torn (the linear fallback).
    index: Option<(u64, u64)>,
}

impl FileView {
    /// A file's view from its head: the trailer and the fixed metablock-2
    /// header, with the extent they describe checked against the file.
    fn with_tail(handle: Arc<dyn VfsFile>, mb1: MetaBlock1) -> Result<FileView> {
        let trailer = Trailer::read_from(handle.as_ref())?;
        let nblocks = MetaBlock2::read_header(handle.as_ref(), &trailer, mb1.ntasks_local())?;
        let layout = FileLayout::from_mb1(&mb1)?;
        layout.validate_extent(nblocks, handle.len()?)?;
        // A v2 trailer names an index record; use it only if its header
        // agrees with the metablock geometry — a torn index silently
        // degrades this file to the linear metablock-2 path.
        let index = trailer.index.filter(|&idx| {
            ChunkIndex::validate_header(handle.as_ref(), idx, nblocks, mb1.ntasks_local()).is_ok()
        });
        Ok(FileView {
            handle,
            mb1,
            layout,
            trailer,
            nblocks,
            index,
        })
    }

    /// The file's whole metablock 2, read for a caller that wants every
    /// task's row.
    fn read_mb2(&self) -> Result<MetaBlock2> {
        MetaBlock2::read_at(self.handle.as_ref(), &self.trailer, self.mb1.ntasks_local())
    }

    /// Local task `lt`'s row out of `mb2`, checked.
    fn mb2_usage(&self, mb2: &MetaBlock2, lt: usize) -> Result<Vec<u64>> {
        self.checked(lt, mb2.task_usage(lt, self.mb1.ntasks_local()))
    }

    /// Local task `lt`'s stored bytes per block, fetched on its own, checked:
    /// one contiguous chunk-index read for v2 files, else its own word of
    /// each block of metablock 2 — O(blocks of this task) either way,
    /// independent of the task count.
    fn usage(&self, lt: usize) -> Result<Vec<u64>> {
        let (file, n) = (self.handle.as_ref(), self.mb1.ntasks_local());
        let Some((idx_off, _)) = self.index else {
            let row = MetaBlock2::read_task_row(file, &self.trailer, self.nblocks, n, lt)?;
            return self.checked(lt, row);
        };
        let cum = ChunkIndex::read_task_cum(file, idx_off, self.nblocks, lt)?;
        let mut usage = Vec::with_capacity(cum.len());
        let mut prev = 0u64;
        for (b, &c) in cum.iter().enumerate() {
            let used = c.checked_sub(prev).ok_or_else(|| {
                SionError::Format(format!(
                    "file {}: task {lt} chunk index is not monotone at block {b}",
                    self.mb1.filenum
                ))
            })?;
            usage.push(used);
            prev = c;
        }
        self.checked(lt, usage)
    }

    /// No usage row leaves this module unchecked: a block that claims more
    /// bytes than its chunk holds would send a reader into the next task's
    /// chunk.
    fn checked(&self, lt: usize, usage: Vec<u64>) -> Result<Vec<u64>> {
        let usable = self.layout.usable(lt);
        match usage.iter().position(|&used| used > usable) {
            Some(b) => Err(SionError::Format(format!(
                "file {}: task {lt} block {b} claims more bytes than its chunk holds \
                 ({} used bytes exceed its {usable} usable)",
                self.mb1.filenum, usage[b]
            ))),
            None => Ok(usage),
        }
    }

    /// Every problem of the usage rows on both views: metablock 2 (read
    /// once; a read that fails is one problem, not one per task), the chunk
    /// index (when the file has a usable one), and where the two disagree.
    fn row_problems(&self) -> Vec<String> {
        let mb2 = match self.read_mb2() {
            Ok(mb2) => mb2,
            Err(e) => return vec![format!("metablock 2: {e}")],
        };
        let n = self.mb1.ntasks_local();
        let mut problems = Vec::new();
        for lt in 0..n {
            let problem = match (self.mb2_usage(&mb2, lt), self.index) {
                (Err(e), _) => format!("metablock 2: {e}"),
                (Ok(_), None) => continue,
                (Ok(row), Some(_)) => match self.usage(lt) {
                    Ok(index) if index == row => continue,
                    Ok(index) => {
                        let b = row.iter().zip(&index).take_while(|(m, i)| m == i).count();
                        format!(
                            "task {lt} block {b}: the chunk index says {} bytes, metablock 2 {}",
                            index[b], row[b]
                        )
                    }
                    Err(e) => format!("chunk index: {e}"),
                },
            };
            problems.push(problem);
        }
        problems
    }
}

/// The one reader of a file's head: metablock 1 of physical file `k`, which
/// must give the multifile the shape `file0` (file 0's, or `None`) gives it.
fn read_head(handle: &dyn VfsFile, k: u32, file0: Option<&MetaBlock1>) -> Result<MetaBlock1> {
    let mb1 = MetaBlock1::read_from(handle)?;
    let same_shape =
        file0.is_none_or(|f0| mb1.nfiles == f0.nfiles && mb1.ntasks_global == f0.ntasks_global);
    if mb1.filenum != k || !same_shape {
        return Err(SionError::Format(format!(
            "physical file {k} disagrees with file 0 about the multifile shape"
        )));
    }
    if mb1.nfiles as u64 > mb1.ntasks_global {
        return Err(SionError::Format(format!(
            "{} physical files for {} tasks is implausible",
            mb1.nfiles, mb1.ntasks_global
        )));
    }
    Ok(mb1)
}

/// The cross-file rank directory: global rank → (file, local task). Every
/// rank below `ntasks` must be listed once, by one of `heads`.
fn rank_map<'a>(
    ntasks: usize,
    heads: impl IntoIterator<Item = &'a MetaBlock1>,
) -> Result<Vec<(u32, u32)>> {
    let mut map: Vec<Option<(u32, u32)>> = vec![None; ntasks];
    for mb1 in heads {
        let k = mb1.filenum;
        for (lt, &gr) in mb1.global_ranks.iter().enumerate() {
            match map.get_mut(gr as usize) {
                Some(slot @ None) => *slot = Some((k, lt as u32)),
                _ => {
                    return Err(SionError::Format(format!(
                        "global rank {gr} duplicated or out of range in file {k}"
                    )))
                }
            }
        }
    }
    map.into_iter()
        .enumerate()
        .map(|(r, t)| {
            t.ok_or_else(|| SionError::Format(format!("rank {r} missing from multifile")))
        })
        .collect()
}

/// What [`check_metadata`] found wrong with one physical file.
#[derive(Debug, Default)]
pub struct FileCheck {
    /// With its head: it cannot be opened, its metablock 1 does not decode
    /// or disagrees with file 0, or (file 0) the rank directory is broken.
    pub head: Vec<String>,
    /// With its tail, behind a metablock 1 that decodes: the trailer,
    /// metablock 2 or index does not decode or fit, or a usage row exceeds
    /// its chunk in either view, or the two views disagree.
    pub tail: Vec<String>,
    /// Its metablock 1, when that decodes, for `rescue::repair`.
    pub(crate) mb1: Option<MetaBlock1>,
}

/// The one judge of a multifile's metadata: every problem, file by file.
/// Files and rank directory are checked as [`Multifile::open`] checks them,
/// and every usage row on both views the readers use — metablock 2
/// (`locations`, `siondump`, the collective read open) and the chunk index
/// (`location`, `read_rank`, `sioncat`, `siondefrag`) — which must agree.
/// An index whose header does not validate is the linear fallback, no
/// problem. `Err` only when file 0's head cannot say what the multifile is.
pub fn check_metadata(vfs: &dyn Vfs, base: &str) -> Result<Vec<FileCheck>> {
    let mb1_0 = read_head(vfs.open(base)?.as_ref(), 0, None)?;
    let mut checks = Vec::new();
    for k in 0..mb1_0.nfiles {
        let name = physical_name(base, k);
        let mut check = FileCheck::default();
        let head = vfs.open(&name).map_err(|e| format!("cannot open: {e}"));
        let head = head.and_then(|handle| match read_head(handle.as_ref(), k, Some(&mb1_0)) {
            Ok(mb1) => Ok((handle, mb1)),
            Err(e) => Err(format!("metablock 1 rejected: {e}")),
        });
        match head {
            Err(e) => check.head = vec![format!("{name}: {e}")],
            Ok((handle, mb1)) => {
                let tail = FileView::with_tail(handle, mb1.clone())
                    .map_or_else(|e| vec![e.to_string()], |fv| fv.row_problems());
                check.tail = tail.into_iter().map(|p| format!("{name}: {p}")).collect();
                check.mb1 = Some(mb1);
            }
        }
        checks.push(check);
    }
    if checks.iter().all(|c| c.mb1.is_some()) {
        let heads = checks.iter().flat_map(|c| &c.mb1);
        if let Err(e) = rank_map(mb1_0.ntasks_global as usize, heads) {
            checks[0].head.push(format!("{base}: {e}"));
        }
    }
    Ok(checks)
}

/// Where a physical file is born, for the serial and the collective write
/// open alike: lay out the chunks its local tasks ask for (`reqs`, local
/// task order), create file `filenum` and write its metablock 1. The rank
/// table is computed, not collected: local task `l` is global rank
/// [`Mapping::rank_of`](crate::Mapping::rank_of)`(filenum, l, …)`. `flags`
/// is what readers will be told; it differs from `params.flags()` only for
/// [`SerialWriter::create_with_flags`].
pub(crate) fn create_file(
    vfs: &dyn Vfs,
    base: &str,
    params: &SionParams,
    flags: SionFlags,
    filenum: u32,
    ntasks_global: usize,
    reqs: &[u64],
) -> Result<(FileLayout, Arc<dyn VfsFile>)> {
    let layout = FileLayout::compute(reqs, vfs.block_size(), params.alignment, params.rescue)?;
    let file = vfs.create(&physical_name(base, filenum))?;
    let mb1 = MetaBlock1 {
        version: crate::format::VERSION,
        flags,
        fsblksize: vfs.block_size(),
        ntasks_global: ntasks_global as u64,
        nfiles: params.nfiles,
        filenum,
        data_start: layout.data_start,
        global_ranks: (0..reqs.len())
            .map(|l| {
                params
                    .mapping
                    .rank_of(filenum, l, ntasks_global, params.nfiles) as u64
            })
            .collect(),
        chunksize_req: reqs.to_vec(),
        chunk_cap: (0..reqs.len()).map(|l| layout.cap(l)).collect(),
    };
    file.write_all_at(&mb1.encode(), 0)?;
    Ok((layout, file))
}

/// Where a physical file is finalized, for the serial and the collective
/// close alike: `rows[lt]` is local task `lt`'s stored bytes per block it
/// touched; the block-major metablock 2 over the longest row goes behind the
/// last block with its index and trailer. `writer` is any local task's — it
/// names the file and knows where the blocks end.
pub(crate) fn finalize_file(writer: &TaskWriter, rows: &[&[u64]]) -> Result<()> {
    let n = rows.len();
    let nblocks = rows.iter().map(|r| r.len()).max().unwrap_or(0);
    let mut used = vec![0u64; nblocks * n];
    for (lt, row) in rows.iter().enumerate() {
        for (b, &u) in row.iter().enumerate() {
            used[b * n + lt] = u;
        }
    }
    let mb2 = MetaBlock2 {
        nblocks: nblocks as u64,
        used,
    };
    write_close_metadata(writer.file(), writer.mb2_offset(mb2.nblocks), &mb2, n)
}

/// A multifile opened with the serial global view (`sion_open` read mode).
///
/// Opening is cheap (headers only); per-rank metadata is read on demand, on
/// every call — see the module docs of `serial.rs` for the lazy lifecycle.
pub struct Multifile {
    pub(crate) files: Vec<FileView>,
    ntasks: usize,
    nfiles: u32,
    fsblksize: u64,
    flags: SionFlags,
    /// Global rank → (physical file, local task index).
    pub(crate) rank_map: Vec<(u32, u32)>,
}

impl Multifile {
    /// Header open: read metablock 1, the trailer, and the metablock-2
    /// fixed header of every physical file, and build the global rank
    /// directory. No per-(task, block) usage is touched — that is fetched
    /// per rank by [`location`](Self::location).
    pub fn open(vfs: &dyn Vfs, base: &str) -> Result<Multifile> {
        let open = |k, file0: Option<&MetaBlock1>| {
            let handle = vfs.open(&physical_name(base, k))?;
            let mb1 = read_head(handle.as_ref(), k, file0)?;
            FileView::with_tail(handle, mb1)
        };
        let mut files = vec![open(0, None)?];
        for k in 1..files[0].mb1.nfiles {
            let fv = open(k, Some(&files[0].mb1))?;
            files.push(fv);
        }
        let ntasks = files[0].mb1.ntasks_global as usize;
        let rank_map = rank_map(ntasks, files.iter().map(|f| &f.mb1))?;
        Ok(Multifile {
            ntasks,
            nfiles: files[0].mb1.nfiles,
            fsblksize: files[0].mb1.fsblksize,
            flags: files[0].mb1.flags,
            files,
            rank_map,
        })
    }

    /// Build one rank's location from its (checked) per-block usage.
    fn build_location(&self, rank: usize, usage: &[u64]) -> TaskLocation {
        let (k, lt) = self.rank_map[rank];
        let (k, lt) = (k as usize, lt as usize);
        let fv = &self.files[k];
        let mut chunks = Vec::with_capacity(usage.len());
        let mut cum = Vec::with_capacity(usage.len());
        let mut stored = 0u64;
        for (b, &used) in usage.iter().enumerate() {
            stored += used;
            cum.push(stored);
            chunks.push(ChunkInfo {
                block: b as u64,
                offset: fv.layout.data_offset(lt, b as u64),
                used,
            });
        }
        TaskLocation {
            global_rank: rank,
            file: k as u32,
            ltask: lt,
            chunksize_req: fv.mb1.chunksize_req[lt],
            capacity: fv.mb1.chunk_cap[lt],
            usable: fv.layout.usable(lt),
            chunks,
            cum,
            stored_bytes: stored,
        }
    }

    /// On-demand per-rank metadata fetch (`sion_get_locations` for one
    /// rank), read from the file on every call: one contiguous chunk-index
    /// read for v2 files, one word per block of metablock 2 otherwise —
    /// O(blocks of this rank), independent of the total rank count. Usage
    /// validation happens here, on exactly the rows read.
    pub fn location(&self, rank: usize) -> Result<TaskLocation> {
        if rank >= self.ntasks {
            return Err(SionError::InvalidArg(format!("rank {rank} out of range")));
        }
        let (k, lt) = self.rank_map[rank];
        let usage = self.files[k as usize].usage(lt as usize)?;
        Ok(self.build_location(rank, &usage))
    }

    /// All metadata (`sion_get_locations`): the eager full materialization,
    /// one metablock-2 read per file per call. Tools that truly need every
    /// rank (`siondump`) use this; everything else should stream via
    /// [`location`](Self::location).
    pub fn locations(&self) -> Result<Locations> {
        let tasks = self
            .rows()
            .enumerate()
            .map(|(rank, usage)| Ok(self.build_location(rank, &usage?)))
            .collect::<Result<_>>()?;
        Ok(Locations {
            ntasks: self.ntasks,
            nfiles: self.nfiles,
            fsblksize: self.fsblksize,
            flags: self.flags,
            tasks,
        })
    }

    /// Every task's part of the collective read open (`par.rs`), in
    /// global rank order: `[flags, file, chunk geometry, usage row]` as
    /// words, the rows from [`rows`](Self::rows); [`part_reader`] decodes a
    /// part.
    pub(crate) fn read_parts(&self) -> impl Iterator<Item = Result<Vec<u64>>> + '_ {
        self.rows().enumerate().map(|(rank, usage)| {
            let (k, lt) = self.rank_map[rank];
            let fv = &self.files[k as usize];
            let mut words = vec![self.flags.bits(), k as u64];
            words.extend(fv.layout.geom(lt as usize, rank as u64).encode());
            words.extend(usage?);
            Ok(words)
        })
    }

    /// Every rank's checked usage row, in global rank order, for the bulk
    /// readers: one metablock-2 read per file per call, made when the
    /// file's first rank comes up, so the first error is the lowest failing
    /// rank's.
    fn rows(&self) -> impl Iterator<Item = Result<Vec<u64>>> + '_ {
        let mut mb2s: Vec<Option<MetaBlock2>> = vec![None; self.files.len()];
        self.rank_map.iter().map(move |&(k, lt)| {
            let fv = &self.files[k as usize];
            let mb2 = match &mut mb2s[k as usize] {
                Some(mb2) => mb2,
                slot => slot.insert(fv.read_mb2()?),
            };
            fv.mb2_usage(mb2, lt as usize)
        })
    }

    /// Number of tasks stored in the multifile.
    pub fn ntasks(&self) -> usize {
        self.ntasks
    }

    /// Number of physical files.
    pub fn nfiles(&self) -> u32 {
        self.nfiles
    }

    /// Feature flags recorded in metablock 1.
    pub fn flags(&self) -> SionFlags {
        self.flags
    }

    /// File-system block size recorded at write time.
    pub fn fsblksize(&self) -> u64 {
        self.fsblksize
    }

    /// Largest number of blocks in any physical file — from the metablock-2
    /// headers read at open, no usage materialization.
    pub fn max_blocks(&self) -> u64 {
        self.files.iter().map(|f| f.nblocks).max().unwrap_or(0)
    }

    /// Whether logical streams are compressed.
    pub fn compressed(&self) -> bool {
        self.flags.contains(SionFlags::COMPRESSED)
    }

    /// `sion_seek` + `fread` with the global view: read stored bytes of
    /// `rank`'s chunk in block `chunk`, starting `pos` bytes in. Returns
    /// the number of bytes read (short at the end of the chunk's data).
    pub fn read_at(&self, rank: usize, chunk: u64, pos: u64, buf: &mut [u8]) -> Result<usize> {
        let t = self.location(rank)?;
        let info = t
            .chunks
            .get(chunk as usize)
            .ok_or_else(|| SionError::InvalidArg(format!("chunk {chunk} out of range")))?;
        if pos >= info.used {
            return Ok(0);
        }
        let n = buf.len().min((info.used - pos) as usize);
        self.files[t.file as usize]
            .handle
            .read_exact_at(&mut buf[..n], info.offset + pos)?;
        Ok(n)
    }

    /// Resolve a logical stream position of `rank` to `(chunk, offset
    /// within chunk)` — a binary search over the rank's prefix sums.
    /// `Ok(None)` past the end of the stream.
    pub fn seek_logical(&self, rank: usize, pos: u64) -> Result<Option<(u64, u64)>> {
        Ok(self.location(rank)?.find_chunk(pos))
    }

    /// Open the task-local view of `rank` (`sion_open_rank`): a streaming
    /// reader over that task's logical file, transparently decompressing
    /// if the multifile is compressed.
    pub fn rank_reader(&self, rank: usize) -> Result<RankReader> {
        Ok(self.reader_at(&self.location(rank)?))
    }

    /// [`rank_reader`](Self::rank_reader) for a location this multifile
    /// has already handed out, without a second metadata lookup.
    pub fn reader_at(&self, t: &TaskLocation) -> RankReader {
        self.reader(t, self.compressed())
    }

    /// A reader over `t`'s *stored* stream: compressed frames are lent
    /// verbatim, as they lie in the chunks, not decoded. Its
    /// [`scan_remaining`](RankReader::scan_remaining) lends `MemFs` pages
    /// as leases and fills the owned window on a backend without them —
    /// what `siondefrag` copies into its output chunks.
    pub fn stored_reader_at(&self, t: &TaskLocation) -> RankReader {
        self.reader(t, false)
    }

    fn reader(&self, t: &TaskLocation, compressed: bool) -> RankReader {
        let fv = &self.files[t.file as usize];
        let geom = fv.layout.geom(t.ltask, t.global_rank as u64);
        let used: Vec<u64> = t.chunks.iter().map(|c| c.used).collect();
        RankReader {
            inner: TaskReader::new(
                fv.handle.clone(),
                geom,
                used,
                compressed,
                DEFAULT_READ_AHEAD,
            ),
        }
    }

    /// Convenience: the complete logical (decompressed) content of `rank`.
    pub fn read_rank(&self, rank: usize) -> Result<Vec<u8>> {
        let t = self.location(rank)?;
        // Exact for a plain stream, a floor for a compressed one.
        let mut out = Vec::with_capacity(t.stored_bytes as usize);
        self.reader_at(&t)
            .scan_remaining(&mut |run| out.extend_from_slice(run))?;
        Ok(out)
    }
}

/// A task's reader from the part [`Multifile::read_parts`] built for it,
/// over the task's own handle of its physical file.
pub(crate) fn part_reader(vfs: &dyn Vfs, base: &str, part: &[u64]) -> Result<TaskReader> {
    let [flags, file, ref rest @ ..] = *part else {
        return Err(SionError::Format("truncated read-open part".into()));
    };
    let geom = ChunkGeom::decode(rest)?;
    let used = rest[ChunkGeom::ENCODED_WORDS..].to_vec();
    let compressed = SionFlags::from_bits(flags)?.contains(SionFlags::COMPRESSED);
    let handle = vfs.open(&physical_name(base, file as u32))?;
    Ok(TaskReader::new(
        handle,
        geom,
        used,
        compressed,
        DEFAULT_READ_AHEAD,
    ))
}

/// Streaming reader over one task's logical file (`sion_open_rank`).
pub struct RankReader {
    inner: TaskReader,
}

impl RankReader {
    /// `sion_feof` for this rank's stream.
    pub fn feof(&mut self) -> bool {
        self.inner.feof()
    }

    /// Unread stored bytes in the current chunk.
    pub fn bytes_avail_in_chunk(&self) -> u64 {
        self.inner.bytes_avail_in_chunk()
    }

    /// Read up to `buf.len()` logical bytes; 0 at end of stream.
    pub fn read_some(&mut self, buf: &mut [u8]) -> Result<usize> {
        self.inner.read(buf)
    }

    /// Stream every remaining logical byte through `sink` and return how
    /// many there were — the borrow-based pass `sionverify` uses to certify
    /// a stream readable while only *inspecting* it. Plain streams are lent
    /// straight from the backing [`Vfs`](vfs::Vfs)'s page leases (MemFs
    /// always hands them out; nothing is copied); compressed streams are
    /// decoded a frame at a time into one reused buffer and lent from
    /// there. A compressed stream whose stored bytes stop inside a frame
    /// fails with [`szip::SzipError::Truncated`] after its whole frames
    /// have been through `sink`.
    pub fn scan_remaining(&mut self, sink: &mut dyn FnMut(&[u8])) -> Result<u64> {
        self.inner.scan_remaining(sink)
    }

    /// [`scan_remaining`](Self::scan_remaining), handing `sink` each run
    /// together with the [`ByteLease`] it is all of, when the backend lent
    /// one: feed both to [`RankWriter::write_run`] and a sharing backend
    /// takes the page instead of its bytes.
    pub fn scan_runs(&mut self, sink: &mut dyn FnMut(&[u8], Option<&ByteLease>)) -> Result<u64> {
        self.inner.scan_runs(sink)
    }

    /// I/O-call accounting for this rank's read stream so far.
    pub fn io_counters(&self) -> IoCounters {
        self.inner.io_counters()
    }
}

impl std::io::Read for RankReader {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        self.inner
            .read(buf)
            .map_err(|e| std::io::Error::other(e.to_string()))
    }
}

/// Serial creation of a multifile from a single process (`sion_open` in
/// write mode, paper §3.2.3). "Since the open call is now executed by only
/// one process, a whole array of chunk sizes needs to be supplied."
pub struct SerialWriter {
    writers: Vec<TaskWriter>,
    /// The ranks of each physical file, in local task order.
    per_file: Vec<Vec<usize>>,
    /// Rank whose stream the positional API currently addresses.
    cur: usize,
    ntasks: usize,
}

impl SerialWriter {
    /// Create a multifile for `chunksizes.len()` tasks with the given
    /// per-task chunk sizes. `params.chunksize` is ignored (the array takes
    /// precedence); all other parameters apply as in the parallel case.
    pub fn create(
        vfs: &dyn Vfs,
        base: &str,
        chunksizes: &[u64],
        params: &SionParams,
    ) -> Result<SerialWriter> {
        Self::create_with_flags(vfs, base, chunksizes, params, params.flags())
    }

    /// Like [`create`](Self::create), but records `stored_flags` in the
    /// metadata instead of the flags implied by `params`. This is how the
    /// defragmenter copies an already-compressed multifile verbatim: the
    /// writer runs uncompressed (`params.compressed = false`) while the
    /// output still advertises `COMPRESSED` to readers.
    pub fn create_with_flags(
        vfs: &dyn Vfs,
        base: &str,
        chunksizes: &[u64],
        params: &SionParams,
        stored_flags: SionFlags,
    ) -> Result<SerialWriter> {
        let ntasks = chunksizes.len();
        params.mapping.validate(ntasks, params.nfiles)?;
        // Group ranks by physical file, in rank order.
        let mut per_file: Vec<Vec<usize>> = vec![Vec::new(); params.nfiles as usize];
        for r in 0..ntasks {
            per_file[params.mapping.file_of(r, ntasks, params.nfiles) as usize].push(r);
        }
        let mut writers: Vec<Option<TaskWriter>> = (0..ntasks).map(|_| None).collect();
        for (k, ranks) in per_file.iter().enumerate() {
            let reqs: Vec<u64> = ranks.iter().map(|&r| chunksizes[r]).collect();
            let (layout, file) =
                create_file(vfs, base, params, stored_flags, k as u32, ntasks, &reqs)?;
            for (lt, &r) in ranks.iter().enumerate() {
                let geom = layout.geom(lt, r as u64);
                writers[r] = Some(TaskWriter::new(
                    file.clone(),
                    geom,
                    params.compressed,
                    params.write_buffer,
                ));
            }
        }
        Ok(SerialWriter {
            writers: writers
                .into_iter()
                .map(|w| w.expect("every rank assigned"))
                .collect(),
            per_file,
            cur: 0,
            ntasks,
        })
    }

    /// Number of tasks in the multifile.
    pub fn ntasks(&self) -> usize {
        self.ntasks
    }

    /// `sion_seek`: position the write cursor at (`rank`, `chunk`, `pos`).
    pub fn seek(&mut self, rank: usize, chunk: u64, pos: u64) -> Result<()> {
        if rank >= self.ntasks {
            return Err(SionError::InvalidArg(format!("rank {rank} out of range")));
        }
        self.cur = rank;
        self.writers[rank].seek(chunk, pos)
    }

    /// Switch to `rank`'s stream without repositioning it.
    pub fn select_rank(&mut self, rank: usize) -> Result<()> {
        if rank >= self.ntasks {
            return Err(SionError::InvalidArg(format!("rank {rank} out of range")));
        }
        self.cur = rank;
        Ok(())
    }

    /// `sion_ensure_free_space` on the current rank's stream.
    pub fn ensure_free_space(&mut self, nbytes: u64) -> Result<()> {
        self.writers[self.cur].ensure_free_space(nbytes)
    }

    /// Plain in-chunk write on the current rank's stream.
    pub fn write_in_chunk(&mut self, data: &[u8]) -> Result<()> {
        self.writers[self.cur].write_in_chunk(data)
    }

    /// Chunk-splitting `sion_fwrite` on the current rank's stream.
    pub fn write(&mut self, data: &[u8]) -> Result<()> {
        self.writers[self.cur].write(data)
    }

    /// One [`RankWriter`] per rank, in rank order: disjoint borrows of the
    /// ranks' streams, so several threads can write different ranks at
    /// once. Every physical file's head is already written and its tail
    /// waits for [`close`](Self::close), on the calling thread.
    pub fn rank_writers(&mut self) -> Vec<RankWriter<'_>> {
        self.writers
            .iter_mut()
            .map(|inner| RankWriter { inner })
            .collect()
    }

    /// Push every rank's buffered data (and rescue headers) to the VFS.
    pub fn flush(&mut self) -> Result<()> {
        for w in &mut self.writers {
            w.flush()?;
        }
        Ok(())
    }

    /// I/O-call accounting for `rank`'s write stream so far.
    pub fn io_counters(&self, rank: usize) -> Result<IoCounters> {
        if rank >= self.ntasks {
            return Err(SionError::InvalidArg(format!("rank {rank} out of range")));
        }
        Ok(self.writers[rank].io_counters())
    }

    /// Finalize: write every physical file's metablock 2, chunk index, and
    /// trailer (`sion_close`).
    pub fn close(mut self) -> Result<()> {
        let usage: Vec<Vec<u64>> = self
            .writers
            .iter_mut()
            .map(|w| w.finish())
            .collect::<Result<_>>()?;
        for ranks in &self.per_file {
            let rows: Vec<&[u64]> = ranks.iter().map(|&r| usage[r].as_slice()).collect();
            finalize_file(&self.writers[ranks[0]], &rows)?;
        }
        Ok(())
    }
}

/// One rank's stream of a [`SerialWriter`], borrowed on its own
/// ([`SerialWriter::rank_writers`]) so it can be handed to another thread.
pub struct RankWriter<'a> {
    inner: &'a mut TaskWriter,
}

impl RankWriter<'_> {
    /// Chunk-splitting `sion_fwrite` on this rank's stream.
    pub fn write(&mut self, data: &[u8]) -> Result<()> {
        self.inner.write(data)
    }

    /// [`write`](Self::write) of a run from [`RankReader::scan_runs`]. On
    /// a write-through, uncompressed writer a lease that fits the current
    /// chunk reaches the file as the lease
    /// ([`VfsFile::write_lease_at`](vfs::VfsFile::write_lease_at)); the
    /// bytes written are `data` either way, and a lease that is not
    /// exactly `data` is ignored.
    pub fn write_run(&mut self, data: &[u8], lease: Option<&ByteLease>) -> Result<()> {
        self.inner.write_run(data, lease)
    }
}

#[cfg(test)]
mod tests {
    use crate::{paropen_write_co, Multifile, SionParams};
    use simmpi::TaskWorld;
    use std::io::{BufRead, BufReader};
    use vfs::MemFs;

    #[test]
    fn rank_reader_works_with_bufreader() {
        let fs = MemFs::with_block_size(1024);
        TaskWorld::run(2, |comm| {
            let fs = &fs;
            async move {
                let params = SionParams::new(1024);
                let mut w = paropen_write_co(fs, "lines.sion", &params, &comm)
                    .await
                    .unwrap();
                for i in 0..50 {
                    w.write(format!("{i}\n").as_bytes()).unwrap();
                }
                w.close_co().await.unwrap();
            }
        });
        let mf = Multifile::open(&fs, "lines.sion").unwrap();
        // Standard io::BufRead line iteration over a logical file.
        let reader = BufReader::new(mf.rank_reader(1).unwrap());
        let nums: Vec<u32> = reader
            .lines()
            .map(|l| l.unwrap().parse().unwrap())
            .collect();
        assert_eq!(nums, (0..50).collect::<Vec<_>>());
    }
}
