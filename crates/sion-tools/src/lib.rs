//! Serial command-line utilities for multifiles (paper §3.3).
//!
//! "The current version of SIONlib provides three command-line utilities to
//! analyze, split, or defragment multifiles." This crate implements those —
//! [`dump`], [`split`], [`defrag`] — plus two more that the reproduction's
//! extensions enable: `sionrepair` (rescue-based metadata reconstruction,
//! paper §6) and `sioncat` (stream one rank's logical file to stdout).
//!
//! All functionality is available as library functions operating on any
//! [`vfs::Vfs`]; the binaries wrap them over the local file system.
//!
//! No tool decodes metadata itself: [`verify`], like `sionrepair`, reports
//! what [`sion::check_metadata`] finds, so what it calls clean every reader
//! reads back exactly.
//!
//! Reading a rank end to end is one path for every multifile:
//! [`verify`], [`cat_into`] and `Multifile::read_rank` all run
//! [`sion::RankReader::scan_remaining`], which lends plain streams from
//! extent leases and compressed streams frame by frame from the decoder's
//! buffer. The copy tools, [`split`] and [`defrag`], scan with
//! [`sion::RankReader::scan_runs`] instead, which also hands on the lease a
//! run came in: they write it with [`vfs::VfsFile::write_lease_at`], so on a
//! sharing backend (`MemFs`) an output file adopts every lent run of whole
//! pages that lands on a page boundary, one write per input extent, and
//! copies nothing — one copy per stored byte elsewhere. The
//! tools stay serial programs — no communicator, any host — but [`verify`]
//! and [`defrag`], whose ranks are independent, spread them over scoped
//! threads (`over_ranks`); neither the report nor the output file depends
//! on how many.

use sion::{
    IoCounters, Multifile, RankWriter, Result, SerialWriter, SionError, SionFlags, SionParams,
    TaskLocation,
};
use std::fmt::Write as _;
use std::ops::Range;
use std::sync::Arc;
use vfs::Vfs;

/// Human-readable metadata dump of a multifile (the `siondump` tool).
///
/// Prints the global shape, per-file geometry, and a per-task table of
/// chunk locations and fill states.
pub fn dump(vfs: &dyn Vfs, base: &str) -> Result<String> {
    let mf = Multifile::open(vfs, base)?;
    // The per-task table genuinely needs every rank, so this is the one
    // tool that asks for the eager materialization.
    let loc = mf.locations()?;
    let mut out = String::new();
    let _ = writeln!(out, "multifile:      {base}");
    let _ = writeln!(out, "tasks:          {}", loc.ntasks);
    let _ = writeln!(out, "physical files: {}", loc.nfiles);
    let _ = writeln!(out, "fs block size:  {}", loc.fsblksize);
    let _ = writeln!(
        out,
        "flags:          aligned={} compressed={} rescue={}",
        loc.flags.contains(SionFlags::ALIGNED),
        loc.flags.contains(SionFlags::COMPRESSED),
        loc.flags.contains(SionFlags::RESCUE),
    );
    let _ = writeln!(out, "stored bytes:   {}", loc.total_stored_bytes());
    let _ = writeln!(out, "max blocks:     {}", loc.max_blocks());
    let _ = writeln!(out);
    let _ = writeln!(
        out,
        "{:>6} {:>5} {:>6} {:>10} {:>10} {:>12} chunks(block:used)",
        "rank", "file", "ltask", "chunkreq", "capacity", "stored"
    );
    for t in &loc.tasks {
        let chunks: Vec<String> = t
            .chunks
            .iter()
            .filter(|c| c.used > 0)
            .map(|c| format!("{}:{}", c.block, c.used))
            .collect();
        let _ = writeln!(
            out,
            "{:>6} {:>5} {:>6} {:>10} {:>10} {:>12} [{}]",
            t.global_rank,
            t.file,
            t.ltask,
            t.chunksize_req,
            t.capacity,
            t.stored_bytes,
            chunks.join(" ")
        );
    }
    Ok(out)
}

/// Extract logical task files back into physical per-task files (the
/// `sionsplit` tool). Writes `"{prefix}.{rank:06}"` for each selected rank
/// (all ranks if `ranks` is `None`) and returns the created paths.
///
/// The extracted content is the *logical* stream — decompressed if the
/// multifile is compressed — i.e. exactly what the original task-local file
/// would have contained. A plain stream's lent runs are written as leases
/// ([`vfs::VfsFile::write_lease_at`]), so a `MemFs` output shares with the
/// input every run of whole pages that lands on a page boundary.
pub fn split(
    vfs_in: &dyn Vfs,
    base: &str,
    vfs_out: &dyn Vfs,
    prefix: &str,
    ranks: Option<&[usize]>,
) -> Result<Vec<String>> {
    let mf = Multifile::open(vfs_in, base)?;
    let all: Vec<usize> = (0..mf.ntasks()).collect();
    let selected = ranks.unwrap_or(&all);
    let mut created = Vec::with_capacity(selected.len());
    for &rank in selected {
        if rank >= mf.ntasks() {
            return Err(SionError::InvalidArg(format!(
                "rank {rank} out of range (multifile has {} tasks)",
                mf.ntasks()
            )));
        }
        let path = format!("{prefix}.{rank:06}");
        let out = vfs_out.create(&path)?;
        // Each run is written from where the reader holds it, a lent run
        // as the lease (a sharing backend adopts it); the sink cannot fail,
        // so the first write error waits for the scan to end.
        let mut at = 0u64;
        let mut written = Ok(());
        mf.rank_reader(rank)?.scan_runs(&mut |run, lease| {
            if written.is_ok() {
                written = match lease {
                    Some(lease) => out.write_lease_at(lease, at),
                    None => out.write_all_at(run, at),
                };
                at += run.len() as u64;
            }
        })?;
        written?;
        created.push(path);
    }
    Ok(created)
}

/// Outcome of [`defrag`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DefragStats {
    /// Tasks copied.
    pub ntasks: usize,
    /// Largest block count of any input physical file.
    pub blocks_before: u64,
    /// Stored bytes copied (identical before/after).
    pub stored_bytes: u64,
    /// The readers' I/O counters, summed over the ranks: on a leasing VFS
    /// (MemFs) `bytes_copied` and `allocs` stay zero. The output file
    /// system then adopts every lent run of whole pages that lands on a
    /// page boundary of its file, copying none of its bytes, and copies
    /// the rest once.
    pub io: IoCounters,
}

/// Contract a multifile into a single block per task (the `siondefrag`
/// tool): "the new file contains only one chunk per task with the data
/// from all chunks of this task found in the input file. In addition, all
/// gaps in the form of unused file-system blocks are removed."
///
/// Compressed multifiles are copied verbatim (stored bytes move, the
/// `COMPRESSED` flag is preserved), so the output remains readable by the
/// normal API.
///
/// Each rank's stored stream is copied at most once: the runs its
/// [`stored reader`](Multifile::stored_reader_at) lends go straight into a
/// write-through [`RankWriter`], with no staging buffer in between, each
/// with the lease it came in ([`RankWriter::write_run`]). On a sharing
/// backend the output chunk adopts such a run instead of copying it —
/// zero copies on `MemFs`, one write per input extent, for every run of
/// whole pages that lands on a page boundary, as `copy_file_range` shares
/// extents on a reflinking file system; one copy elsewhere. Ranks are
/// copied in contiguous ranges by the
/// `over_ranks` workers; every output chunk's offset is fixed by the layout
/// and the metadata is written by `close` on the calling thread, so the
/// output is the same bytes whatever the thread count.
pub fn defrag(
    vfs_in: &dyn Vfs,
    base: &str,
    vfs_out: &dyn Vfs,
    out_base: &str,
    nfiles: u32,
) -> Result<DefragStats> {
    defrag_on(host_workers(), vfs_in, base, vfs_out, out_base, nfiles)
}

/// [`defrag`] over `workers` threads.
fn defrag_on(
    workers: usize,
    vfs_in: &dyn Vfs,
    base: &str,
    vfs_out: &dyn Vfs,
    out_base: &str,
    nfiles: u32,
) -> Result<DefragStats> {
    let mf = Multifile::open(vfs_in, base)?;
    let ntasks = mf.ntasks();
    let flags = mf.flags();
    // Each rank's location is fetched once, by the sizing pass, and handed
    // to the copy: a second lookup would read the rank's chunk-index slice
    // again. No full `Locations` is ever materialized. One chunk per task,
    // sized to exactly its stored data.
    let locs = (0..ntasks)
        .map(|rank| mf.location(rank))
        .collect::<Result<Vec<_>>>()?;
    let chunksizes: Vec<u64> = locs.iter().map(|t| t.stored_bytes.max(1)).collect();
    // Write-through: a lent run (at most one MemFs extent, so at most one FS
    // block) reaches the output as one write of its lease instead of being
    // copied into a write-behind buffer.
    let mut params = SionParams::new(0).with_nfiles(nfiles).with_write_buffer(0);
    if !flags.contains(SionFlags::ALIGNED) {
        params = params.with_alignment(sion::Alignment::None);
    }
    params.rescue = flags.contains(SionFlags::RESCUE);
    // Copy stored bytes verbatim: the writer itself runs uncompressed, but
    // the recorded flags keep the COMPRESSED bit for readers.
    let mut writer =
        SerialWriter::create_with_flags(vfs_out, out_base, &chunksizes, &params, flags)?;
    let parts = over_ranks(workers, &mut writer.rank_writers(), |ranks, writers| {
        copy_ranks(&mf, &locs[ranks], writers)
    })?;
    writer.close()?;
    let mut stats = DefragStats {
        ntasks,
        blocks_before: mf.max_blocks(),
        stored_bytes: 0,
        io: IoCounters::default(),
    };
    for (stored, io) in parts {
        stats.stored_bytes += stored;
        stats.io += io;
    }
    Ok(stats)
}

/// [`defrag`]'s copy of the ranks located by `locs`, `writers[i]` being
/// `locs[i]`'s output stream: the stored bytes copied and the readers'
/// counters.
fn copy_ranks(
    mf: &Multifile,
    locs: &[TaskLocation],
    writers: &mut [RankWriter<'_>],
) -> Result<(u64, IoCounters)> {
    let (mut stored, mut io) = (0u64, IoCounters::default());
    for (t, out) in locs.iter().zip(writers) {
        let mut reader = mf.stored_reader_at(t);
        // Each run goes on with the lease it came in. The sink cannot fail,
        // so the first write error waits for the scan to end.
        let mut written = Ok(());
        let copied = reader.scan_runs(&mut |run, lease| {
            if written.is_ok() {
                written = out.write_run(run, lease);
            }
        })?;
        written?;
        if copied != t.stored_bytes {
            return Err(SionError::Format(format!(
                "rank {} ended early: {copied} of {} stored bytes",
                t.global_rank, t.stored_bytes
            )));
        }
        stored += copied;
        io += reader.io_counters();
    }
    Ok((stored, io))
}

/// The threads a tool spreads its ranks over: one per core.
fn host_workers() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Run `job` over the ranks in contiguous ranges, at most `workers` of them
/// at once. `per_rank` holds one item per rank, and each range gets its
/// items to itself (`&mut`) — for `defrag`, the ranks' output streams.
/// The calling thread takes the first range itself, as in the task
/// executor: a process then never has more threads alive than cores, and
/// later thread pools find the malloc arenas they left. Results come back
/// in rank order; if any range failed, the first failing one's error —
/// each range stops at its first failing rank, so that is the lowest
/// failing rank's.
fn over_ranks<S: Send, T: Send>(
    workers: usize,
    per_rank: &mut [S],
    job: impl Fn(Range<usize>, &mut [S]) -> Result<T> + Sync,
) -> Result<Vec<T>> {
    let share = per_rank.len().div_ceil(workers.max(1)).max(1);
    let job = &job;
    std::thread::scope(|s| {
        let mut ranges = per_rank.chunks_mut(share).enumerate().map(|(w, items)| {
            let start = w * share;
            (start..start + items.len(), items)
        });
        let first = ranges.next();
        let spawned: Vec<_> = ranges
            .map(|(ranks, items)| s.spawn(move || job(ranks, items)))
            .collect();
        let first = first.map(|(ranks, items)| job(ranks, items));
        let joined = spawned
            .into_iter()
            .map(|worker| worker.join().expect("a tool worker panicked"));
        first.into_iter().chain(joined).collect()
    })
}

/// Accounting of one [`cat_into`] pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CatStats {
    /// Logical bytes streamed into the sink.
    pub bytes: u64,
    /// The reader's I/O counters: on a leasing VFS (MemFs) an uncompressed
    /// cat keeps `bytes_copied` at zero — extents flow from the backing
    /// store straight through the sink.
    pub io: sion::IoCounters,
}

/// Stream one rank's logical content through `sink` (the `sioncat`
/// engine): one borrow-based
/// [`scan_remaining`](sion::RankReader::scan_remaining) pass, compressed or
/// not. A plain stream's runs come straight from extent leases when the
/// backend has them, a compressed stream's frames from the decoder's one
/// reused buffer; nothing is staged in between.
pub fn cat_into(
    vfs: &dyn Vfs,
    base: &str,
    rank: usize,
    sink: &mut dyn FnMut(&[u8]),
) -> Result<CatStats> {
    let mf = Multifile::open(vfs, base)?;
    let mut reader = mf.rank_reader(rank)?;
    let bytes = reader.scan_remaining(sink)?;
    Ok(CatStats {
        bytes,
        io: reader.io_counters(),
    })
}

/// Stream one rank's logical (decompressed) content (the `sioncat` tool).
pub fn cat(vfs: &dyn Vfs, base: &str, rank: usize) -> Result<Vec<u8>> {
    let mut data = Vec::new();
    cat_into(vfs, base, rank, &mut |run| data.extend_from_slice(run))?;
    Ok(data)
}

/// Findings of a [`verify`] pass.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct VerifyReport {
    /// Tasks whose logical streams were fully readable.
    pub tasks_ok: usize,
    /// Human-readable problems found (empty = clean).
    pub problems: Vec<String>,
}

impl VerifyReport {
    /// Whether the multifile passed every check.
    pub fn is_clean(&self) -> bool {
        self.problems.is_empty()
    }
}

/// Integrity-check a multifile (the `sionverify` tool): the metadata is
/// what [`sion::check_metadata`] accepts, every logical stream is readable
/// end to end (which exercises decompression), and — if rescue headers are
/// present — they agree with the metadata.
///
/// When the judge finds problems they are the report, and `tasks_ok` stays
/// 0: without metadata every reader agrees on, no stream can be certified.
///
/// Still a serial program — one process, no communicator — but ranks are
/// independent, so they are certified in contiguous ranges by at most
/// [`available_parallelism`](std::thread::available_parallelism) scoped
/// threads (`over_ranks`) and the findings merged in rank order: the
/// report is the one a single loop over the ranks writes, whatever the
/// thread count.
pub fn verify(vfs: &dyn Vfs, base: &str) -> Result<VerifyReport> {
    let problems: Vec<String> = sion::check_metadata(vfs, base)?
        .into_iter()
        .flat_map(|file| file.head.into_iter().chain(file.tail))
        .collect();
    if !problems.is_empty() {
        return Ok(VerifyReport {
            tasks_ok: 0,
            problems,
        });
    }
    let mf = Multifile::open(vfs, base)?;
    // Per-file handles for the rescue cross-check.
    let files = if mf.flags().contains(SionFlags::RESCUE) {
        (0..mf.nfiles())
            .map(|k| vfs.open(&sion::physical_name(base, k)))
            .collect::<std::io::Result<Vec<_>>>()?
    } else {
        Vec::new()
    };
    // Verify keeps nothing per rank: its ranges need no items of their own.
    let parts = over_ranks(host_workers(), &mut vec![(); mf.ntasks()], |ranks, _| {
        verify_ranks(&mf, &files, ranks)
    })?;
    let mut report = VerifyReport::default();
    for part in parts {
        report.tasks_ok += part.tasks_ok;
        report.problems.extend(part.problems);
    }
    Ok(report)
}

/// [`verify`]'s findings for `ranks`, in rank order; `Err` is the first
/// per-rank metadata fetch that failed. `files` holds one handle per
/// physical file if the multifile carries rescue headers.
fn verify_ranks(
    mf: &Multifile,
    files: &[Arc<dyn vfs::VfsFile>],
    ranks: Range<usize>,
) -> Result<VerifyReport> {
    let mut report = VerifyReport::default();
    // Metadata streams one rank at a time — a 64Ki-task multifile is
    // verified without ever materializing the full `Locations`.
    for rank in ranks {
        let t = mf.location(rank)?;
        // Certify the logical stream readable end to end with the
        // borrow-based scan: a plain stream's runs are inspected in place
        // (on a leasing VFS nothing is copied), a compressed stream's
        // frames are decoded and checked one at a time, none kept.
        match mf.reader_at(&t).scan_remaining(&mut |_run| {}) {
            Ok(_) => report.tasks_ok += 1,
            Err(SionError::Compression(sion::SzipError::Truncated)) => report
                .problems
                .push(format!("rank {rank}: stream ends inside a frame")),
            Err(e) => report
                .problems
                .push(format!("rank {rank}: stream unreadable: {e}")),
        }

        // Rescue-header cross-check, on the same pass.
        if let Some(file) = files.get(t.file as usize) {
            for c in t.chunks.iter().filter(|c| c.used > 0) {
                let found = sion::rescue::chunk_used(file.as_ref(), c.offset, rank as u64, c.block);
                let problem = match found {
                    Ok(Some(used)) if used == c.used => continue,
                    Ok(Some(used)) => {
                        format!("rescue header counts {used} bytes, the metadata {}", c.used)
                    }
                    Ok(None) => "rescue header missing".to_string(),
                    Err(e) => e,
                };
                report
                    .problems
                    .push(format!("rank {rank} block {}: {problem}", c.block));
            }
        }
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use simmpi::TaskWorld;
    use sion::paropen_write_co;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use vfs::{BlockGuard, FaultKind, FaultRule, Faults, MemFs, Next, Op, OpKind, Tap, TapFs};

    fn payload(rank: usize, len: usize) -> Vec<u8> {
        (0..len)
            .map(|i| ((i * 11 + rank * 73 + 5) % 241) as u8)
            .collect()
    }

    fn sample_multifile(fs: &MemFs, params: &SionParams, ntasks: usize) {
        multifile_of(fs, params, &vec![3000; ntasks]);
    }

    /// `in.sion` with `payload(rank, lens[rank])` for every rank.
    fn multifile_of(fs: &MemFs, params: &SionParams, lens: &[usize]) {
        TaskWorld::run(lens.len(), |comm| async move {
            let mut w = paropen_write_co(fs, "in.sion", params, &comm)
                .await
                .unwrap();
            // Multiple writes force several blocks when chunks are small.
            for piece in payload(comm.rank(), lens[comm.rank()]).chunks(700) {
                w.write(piece).unwrap();
            }
            w.close_co().await.unwrap();
        });
    }

    #[test]
    fn dump_reports_shape() {
        let fs = MemFs::with_block_size(512);
        sample_multifile(&fs, &SionParams::new(512).with_nfiles(2), 6);
        let text = dump(&fs, "in.sion").unwrap();
        assert!(text.contains("tasks:          6"));
        assert!(text.contains("physical files: 2"));
        assert!(text.contains("stored bytes:   18000"));
        // Every rank has a row.
        for rank in 0..6 {
            assert!(text
                .lines()
                .any(|l| l.trim_start().starts_with(&format!("{rank} "))));
        }
    }

    #[test]
    fn split_recreates_task_files_byte_identical() {
        let fs = MemFs::with_block_size(512);
        sample_multifile(&fs, &SionParams::new(512), 4);
        let out = MemFs::new();
        let created = split(&fs, "in.sion", &out, "task", None).unwrap();
        assert_eq!(created.len(), 4);
        for (rank, path) in created.iter().enumerate() {
            let f = out.open(path).unwrap();
            let mut got = vec![0u8; 3000];
            f.read_exact_at(&mut got, 0).unwrap();
            assert_eq!(f.len().unwrap(), 3000);
            assert_eq!(got, payload(rank, 3000));
        }
    }

    #[test]
    fn split_selected_ranks_only() {
        let fs = MemFs::with_block_size(512);
        sample_multifile(&fs, &SionParams::new(512), 5);
        let out = MemFs::new();
        let created = split(&fs, "in.sion", &out, "x", Some(&[1, 3])).unwrap();
        assert_eq!(
            created,
            vec!["x.000001".to_string(), "x.000003".to_string()]
        );
        assert!(split(&fs, "in.sion", &out, "x", Some(&[9])).is_err());
    }

    #[test]
    fn split_decompresses_compressed_multifiles() {
        let fs = MemFs::with_block_size(512);
        sample_multifile(&fs, &SionParams::new(512).with_compression(), 3);
        let out = MemFs::new();
        split(&fs, "in.sion", &out, "t", None).unwrap();
        for rank in 0..3 {
            let f = out.open(&format!("t.{rank:06}")).unwrap();
            let mut got = vec![0u8; 3000];
            f.read_exact_at(&mut got, 0).unwrap();
            assert_eq!(got, payload(rank, 3000));
        }
    }

    #[test]
    fn defrag_contracts_to_one_block_and_preserves_content() {
        let fs = MemFs::with_block_size(512);
        // 512-byte chunks, 3000 bytes/task → 6 blocks in the input.
        sample_multifile(&fs, &SionParams::new(512), 4);
        let before = Multifile::open(&fs, "in.sion").unwrap();
        assert!(before.max_blocks() > 1);
        drop(before);

        let out = MemFs::with_block_size(512);
        let stats = defrag(&fs, "in.sion", &out, "out.sion", 1).unwrap();
        assert_eq!(stats.ntasks, 4);
        assert_eq!(stats.stored_bytes, 12000);
        assert!(stats.blocks_before > 1);

        let mf = Multifile::open(&out, "out.sion").unwrap();
        assert_eq!(mf.max_blocks(), 1, "defragmented file must be one block");
        for rank in 0..4 {
            assert_eq!(mf.read_rank(rank).unwrap(), payload(rank, 3000));
        }
    }

    #[test]
    fn defrag_preserves_compression_verbatim() {
        let fs = MemFs::with_block_size(512);
        sample_multifile(&fs, &SionParams::new(512).with_compression(), 3);
        let stored_in = Multifile::open(&fs, "in.sion")
            .unwrap()
            .locations()
            .unwrap()
            .total_stored_bytes();

        let out = MemFs::with_block_size(512);
        let stats = defrag(&fs, "in.sion", &out, "out.sion", 1).unwrap();
        assert_eq!(
            stats.stored_bytes, stored_in,
            "stored (compressed) bytes copied verbatim"
        );

        let mf = Multifile::open(&out, "out.sion").unwrap();
        assert!(mf.compressed());
        for rank in 0..3 {
            assert_eq!(mf.read_rank(rank).unwrap(), payload(rank, 3000));
        }
    }

    #[test]
    fn defrag_removes_gap_storage() {
        // One busy task + idle tasks → gappy input; defrag output must be
        // dense.
        let fs = MemFs::with_block_size(512);
        TaskWorld::run(4, |comm| {
            let fs = &fs;
            async move {
                let params = SionParams::new(512);
                let mut w = paropen_write_co(fs, "gappy.sion", &params, &comm)
                    .await
                    .unwrap();
                if comm.rank() == 0 {
                    w.write(&payload(0, 20 * 512)).unwrap();
                }
                w.close_co().await.unwrap();
            }
        });
        let out = MemFs::with_block_size(512);
        defrag(&fs, "gappy.sion", &out, "dense.sion", 1).unwrap();
        let dense = Multifile::open(&out, "dense.sion").unwrap();
        assert_eq!(dense.read_rank(0).unwrap(), payload(0, 20 * 512));
        // Logical footprint shrinks: input spreads over 20 blocks x 4
        // chunks; output is one block with one task-sized chunk + 3 minimal.
        let in_len = fs.stats("gappy.sion").unwrap().len;
        let out_len = out.stats("dense.sion").unwrap().len;
        assert!(out_len < in_len / 2, "in {in_len} out {out_len}");
    }

    #[test]
    fn cat_streams_one_rank() {
        for params in [
            SionParams::new(512),
            SionParams::new(512).with_compression(),
        ] {
            let fs = MemFs::with_block_size(512);
            sample_multifile(&fs, &params, 3);
            assert_eq!(cat(&fs, "in.sion", 2).unwrap(), payload(2, 3000));
            assert!(cat(&fs, "in.sion", 7).is_err());
        }
    }

    #[test]
    fn cat_into_copies_nothing_on_a_leasing_backend() {
        // The lease-based scan hands MemFs pages straight to the sink:
        // 3000 bytes across six 512-byte chunks, zero memcpys inside the
        // read engine.
        let fs = MemFs::with_block_size(512);
        sample_multifile(&fs, &SionParams::new(512), 3);
        let mut got = Vec::new();
        let stats = cat_into(&fs, "in.sion", 1, &mut |run| got.extend_from_slice(run)).unwrap();
        assert_eq!(got, payload(1, 3000));
        assert_eq!(stats.bytes, 3000);
        assert_eq!(
            stats.io.bytes_copied, 0,
            "leases served the whole cat: {:?}",
            stats.io
        );
        assert_eq!(
            stats.io.allocs, 0,
            "no bounce buffer was needed: {:?}",
            stats.io
        );
    }

    #[test]
    fn verify_clean_multifile() {
        let fs = MemFs::with_block_size(512);
        sample_multifile(&fs, &SionParams::new(512).with_rescue(), 4);
        let report = verify(&fs, "in.sion").unwrap();
        assert!(report.is_clean(), "{:?}", report.problems);
        assert_eq!(report.tasks_ok, 4);
    }

    #[test]
    fn verify_clean_compressed_multifile() {
        let fs = MemFs::with_block_size(512);
        sample_multifile(
            &fs,
            &SionParams::new(512).with_compression().with_nfiles(2),
            4,
        );
        let report = verify(&fs, "in.sion").unwrap();
        assert!(report.is_clean(), "{:?}", report.problems);
    }

    /// Damage in ranks that fall to different workers comes back in rank
    /// order, and a stream that stops inside a frame is named as such.
    #[test]
    fn verify_reports_damaged_compressed_streams_in_rank_order() {
        let fs = MemFs::with_block_size(512);
        sample_multifile(&fs, &SionParams::new(512).with_compression(), 7);
        let mf = Multifile::open(&fs, "in.sion").unwrap();
        let first_chunk = |rank| mf.location(rank).unwrap().chunks[0].offset;
        let f = fs.open_rw("in.sion").unwrap();
        let flip = |at: u64| {
            let mut byte = [0u8];
            f.read_exact_at(&mut byte, at).unwrap();
            f.write_all_at(&[byte[0] ^ 0x10], at).unwrap();
        };
        // Rank 6: a payload byte. Rank 1: byte 7 of the frame header, which
        // grows `stored_len` past the stored data.
        flip(first_chunk(6) + 40);
        flip(first_chunk(1) + 7);
        drop(mf);
        let report = verify(&fs, "in.sion").unwrap();
        assert_eq!(report.tasks_ok, 5);
        assert_eq!(report.problems.len(), 2, "{:?}", report.problems);
        assert_eq!(report.problems[0], "rank 1: stream ends inside a frame");
        assert!(
            report.problems[1].starts_with("rank 6: stream unreadable: compressed stream error"),
            "{:?}",
            report.problems
        );
    }

    #[test]
    fn verify_detects_usage_overflow() {
        let fs = MemFs::with_block_size(512);
        sample_multifile(&fs, &SionParams::new(512), 2);
        // Corrupt metablock 2: blow up one task's used count. Find it via
        // the v2 trailer ([mb2_off, mb2_len, idx_off, idx_len, magic]).
        let f = fs.open_rw("in.sion").unwrap();
        let len = f.len().unwrap();
        let mut tr = [0u8; 40];
        f.read_exact_at(&mut tr, len - 40).unwrap();
        let mb2_off = u64::from_le_bytes(tr[0..8].try_into().unwrap());
        let idx_off = u64::from_le_bytes(tr[16..24].try_into().unwrap());
        // First usage word lives after magic(8)+nblocks(8)+ntasks(8).
        // 600 bytes exceed the 512-byte chunk capacity.
        f.write_all_at(&600u64.to_le_bytes(), mb2_off + 24).unwrap();
        // Smash the index magic too, so the lazy fetch degrades to the
        // linear metablock-2 path and meets the corrupted row.
        f.write_all_at(b"XXXXXXXX", idx_off).unwrap();
        // The strict per-rank fetch rejects this file, so verify must fall
        // back to the raw-metadata scan and name the overflowing chunk.
        let report = verify(&fs, "in.sion").unwrap();
        assert!(!report.is_clean());
        assert_eq!(report.tasks_ok, 0);
        assert!(
            report
                .problems
                .iter()
                .any(|p| p.contains("600") && p.contains("exceed")),
            "{:?}",
            report.problems
        );
    }

    #[test]
    fn verify_detects_clobbered_rescue_header() {
        let fs = MemFs::with_block_size(512);
        sample_multifile(&fs, &SionParams::new(512).with_rescue(), 2);
        let mf = Multifile::open(&fs, "in.sion").unwrap();
        let chunk0 = mf.location(0).unwrap().chunks[0].offset - sion::rescue::RESCUE_HEADER_LEN;
        drop(mf);
        let f = fs.open_rw("in.sion").unwrap();
        f.write_all_at(b"XXXXXXXX", chunk0).unwrap(); // smash the magic
        let report = verify(&fs, "in.sion").unwrap();
        assert!(!report.is_clean());
        assert!(
            report.problems.iter().any(|p| p.contains("rescue header")),
            "{report:?}"
        );
    }

    #[test]
    fn defrag_multifile_to_different_file_count() {
        let fs = MemFs::with_block_size(512);
        sample_multifile(&fs, &SionParams::new(512).with_nfiles(3), 6);
        let out = MemFs::with_block_size(512);
        defrag(&fs, "in.sion", &out, "two.sion", 2).unwrap();
        let mf = Multifile::open(&out, "two.sion").unwrap();
        assert_eq!(mf.nfiles(), 2);
        for rank in 0..6 {
            assert_eq!(mf.read_rank(rank).unwrap(), payload(rank, 3000));
        }
    }

    /// The oracle: `defrag` as it was until PR 25 — every stored byte
    /// bounced through a 256 KiB buffer by `Multifile::read_at` into a
    /// buffered `SerialWriter`, one rank after another.
    fn bounce_defrag(fs: &MemFs, out: &MemFs, nfiles: u32) {
        let mf = Multifile::open(fs, "in.sion").unwrap();
        let flags = mf.flags();
        let chunksizes: Vec<u64> = (0..mf.ntasks())
            .map(|r| mf.location(r).unwrap().stored_bytes.max(1))
            .collect();
        let mut params = SionParams::new(0).with_nfiles(nfiles);
        if !flags.contains(SionFlags::ALIGNED) {
            params = params.with_alignment(sion::Alignment::None);
        }
        params.rescue = flags.contains(SionFlags::RESCUE);
        let mut w =
            SerialWriter::create_with_flags(out, "out.sion", &chunksizes, &params, flags).unwrap();
        let mut buf = vec![0u8; 256 * 1024];
        for rank in 0..mf.ntasks() {
            w.select_rank(rank).unwrap();
            for c in &mf.location(rank).unwrap().chunks {
                let mut pos = 0u64;
                while pos < c.used {
                    let n = mf.read_at(rank, c.block, pos, &mut buf).unwrap();
                    w.write(&buf[..n]).unwrap();
                    pos += n as u64;
                }
            }
        }
        w.close().unwrap();
    }

    /// The bytes of every physical file of `out.sion`.
    fn out_files(fs: &MemFs, nfiles: u32) -> Vec<Vec<u8>> {
        (0..nfiles)
            .map(|k| {
                let f = fs.open(&sion::physical_name("out.sion", k)).unwrap();
                let mut bytes = vec![0u8; f.len().unwrap() as usize];
                f.read_exact_at(&mut bytes, 0).unwrap();
                bytes
            })
            .collect()
    }

    #[test]
    fn defrag_is_byte_identical_to_the_bounce_copy_at_any_thread_count() {
        let unaligned = SionParams::new(512).with_alignment(sion::Alignment::None);
        let shapes = [
            ("plain", SionParams::new(512), vec![3000; 4], 1),
            (
                "compressed",
                SionParams::new(512).with_compression(),
                vec![3000; 3],
                1,
            ),
            (
                "rescue",
                SionParams::new(512).with_rescue(),
                vec![3000; 4],
                1,
            ),
            ("unaligned", unaligned, vec![3000; 5], 1),
            (
                "3 files to 2",
                SionParams::new(512).with_nfiles(3),
                vec![3000; 6],
                2,
            ),
            (
                "one busy rank",
                SionParams::new(512),
                vec![20 * 512, 0, 0, 0],
                1,
            ),
            // Seven ranks split 4+3, 3+3+1 and 2+2+2+1 over 2, 3, 4 workers;
            // runs of several pages.
            (
                "7 ranks",
                SionParams::new(16384),
                (0..7).map(|r| 9000 + 4000 * r).collect(),
                1,
            ),
        ];
        for (shape, params, lens, nfiles) in shapes {
            let fs = MemFs::with_block_size(512);
            multifile_of(&fs, &params, &lens);
            let oracle = MemFs::with_block_size(512);
            bounce_defrag(&fs, &oracle, nfiles);
            let want = out_files(&oracle, nfiles);
            for workers in 1..=4 {
                let out = MemFs::with_block_size(512);
                defrag_on(workers, &fs, "in.sion", &out, "out.sion", nfiles).unwrap();
                assert!(
                    out_files(&out, nfiles) == want,
                    "{shape}, {workers} workers"
                );
            }
        }
    }

    #[test]
    fn defrag_copies_nothing_on_a_leasing_backend() {
        // The stored runs are MemFs pages lent to the output's writes: the
        // readers neither copy nor allocate, compressed or not.
        for params in [
            SionParams::new(512),
            SionParams::new(512).with_compression(),
        ] {
            let fs = MemFs::with_block_size(512);
            sample_multifile(&fs, &params, 3);
            let out = MemFs::with_block_size(512);
            let stats = defrag(&fs, "in.sion", &out, "out.sion", 1).unwrap();
            assert_eq!(stats.io.vfs_bytes, stats.stored_bytes, "{:?}", stats.io);
            assert_eq!(stats.io.bytes_copied, 0, "{:?}", stats.io);
            assert_eq!(stats.io.allocs, 0, "{:?}", stats.io);
        }
    }

    /// `len` stored bytes per rank in page-multiple chunks on 4 KiB FS
    /// blocks: every page of a stream lies on a page boundary of the input,
    /// and of a defragmented or split copy.
    fn paged_multifile(lens: &[usize]) -> MemFs {
        let fs = MemFs::with_block_size(4096);
        multifile_of(&fs, &SionParams::new(16384), lens);
        fs
    }

    /// The start of the page backing `at` of `f`.
    fn page_ptr(f: &Arc<dyn vfs::VfsFile>, at: u64) -> *const u8 {
        f.read_lease(at, 4096).unwrap().as_ptr()
    }

    #[test]
    fn defrag_adopts_every_full_page_on_memfs() {
        let lens = [5 * 4096 + 100, 3 * 4096, 40_000, 0, 9000];
        let fs = paged_multifile(&lens);
        let out = MemFs::with_block_size(4096);
        defrag(&fs, "in.sion", &out, "out.sion", 1).unwrap();
        let (input, output) = (
            Multifile::open(&fs, "in.sion").unwrap(),
            Multifile::open(&out, "out.sion").unwrap(),
        );
        let (fin, fout) = (
            fs.open_rw("in.sion").unwrap(),
            out.open("out.sion").unwrap(),
        );
        let mut shared = Vec::new();
        for rank in 0..lens.len() {
            let Some(&copy) = output.location(rank).unwrap().chunks.first() else {
                continue;
            };
            assert_eq!(copy.offset % 4096, 0, "rank {rank}");
            // The input pages holding each whole output page's bytes.
            let (mut pos, mut pages) = (0u64, 0u64);
            for c in &input.location(rank).unwrap().chunks {
                let end = c.offset + c.used;
                for at in (c.offset..end)
                    .step_by(4096)
                    .take_while(|at| at + 4096 <= end)
                {
                    let o = copy.offset + pos + (at - c.offset);
                    assert_eq!(
                        page_ptr(&fin, at),
                        page_ptr(&fout, o),
                        "rank {rank}: page at {o}"
                    );
                    shared.push(at);
                    pages += 1;
                }
                pos += c.used;
            }
            assert_eq!(
                pages,
                copy.used / 4096,
                "rank {rank}: every whole output page is shared"
            );
        }
        assert_eq!(shared.len(), 5 + 3 + 9 + 2);
        // Overwrite the input, partly and then wholly: the copy keeps its
        // bytes.
        for &at in &shared {
            fin.write_all_at(&[0xEE; 8], at + 100).unwrap();
        }
        fin.write_all_at(&vec![0xEE; fin.len().unwrap() as usize], 0)
            .unwrap();
        for (rank, &len) in lens.iter().enumerate() {
            assert!(
                output.read_rank(rank).unwrap() == payload(rank, len),
                "rank {rank}"
            );
        }
    }

    /// Records the offset of every write.
    #[derive(Default)]
    struct WritesAt(std::sync::Mutex<Vec<u64>>);

    impl Tap for WritesAt {
        fn around(&self, op: &Op<'_>, next: Next<'_>) -> std::io::Result<u64> {
            if op.kind == OpKind::Write {
                self.0.lock().unwrap().push(op.offset);
            }
            next(op.len)
        }
    }

    #[test]
    fn defrag_adopts_whole_extents_on_memfs() {
        // 64 KiB FS blocks, each written as one MemFs extent: defrag writes
        // each rank's stored bytes with one lease per input extent — at most
        // one per FS block and one for a last partial page — not one per
        // 4 KiB page, and the output shares every whole page with the input.
        const BLOCK: u64 = 64 << 10;
        let lens = [
            5 * BLOCK as usize + 100,
            3 * BLOCK as usize,
            200_000,
            0,
            9000,
        ];
        let fs = MemFs::with_block_size(BLOCK);
        multifile_of(&fs, &SionParams::new(1 << 20), &lens);
        let mem = Arc::new(MemFs::with_block_size(BLOCK));
        let tap = Arc::new(WritesAt::default());
        let out = TapFs::new(mem.clone(), vec![tap.clone()]);
        defrag(&fs, "in.sion", &out, "out.sion", 1).unwrap();
        let writes = tap.0.lock().unwrap().clone();
        let (input, output) = (
            Multifile::open(&fs, "in.sion").unwrap(),
            Multifile::open(&*mem, "out.sion").unwrap(),
        );
        let (fin, fout) = (fs.open("in.sion").unwrap(), mem.open("out.sion").unwrap());
        for (rank, &len) in lens.iter().enumerate() {
            assert!(
                output.read_rank(rank).unwrap() == payload(rank, len),
                "rank {rank}"
            );
            let Some(&copy) = output.location(rank).unwrap().chunks.first() else {
                continue;
            };
            let stored = copy.offset..copy.offset + copy.used;
            let n = writes.iter().filter(|at| stored.contains(at)).count() as u64;
            assert!(
                n <= copy.used.div_ceil(BLOCK) + 1,
                "rank {rank}: {n} data writes for {} bytes",
                copy.used
            );
            let [c] = input.location(rank).unwrap().chunks[..] else {
                panic!("rank {rank}: one input chunk");
            };
            for at in (0..c.used / 4096 * 4096).step_by(4096) {
                assert_eq!(
                    page_ptr(&fin, c.offset + at),
                    page_ptr(&fout, copy.offset + at),
                    "rank {rank}: page at {at}"
                );
            }
        }
    }

    #[test]
    fn split_is_cat_and_shares_the_input_pages() {
        let lens = [5 * 4096 + 100, 3 * 4096, 700];
        let fs = paged_multifile(&lens);
        let out = MemFs::new();
        split(&fs, "in.sion", &out, "task", None).unwrap();
        let input = Multifile::open(&fs, "in.sion").unwrap();
        let fin = fs.open("in.sion").unwrap();
        for (rank, &len) in lens.iter().enumerate() {
            let f = out.open(&format!("task.{rank:06}")).unwrap();
            let mut got = vec![0u8; f.len().unwrap() as usize];
            f.read_exact_at(&mut got, 0).unwrap();
            assert!(got == cat(&fs, "in.sion", rank).unwrap(), "rank {rank}");
            let first = input.location(rank).unwrap().chunks[0].offset;
            let same = page_ptr(&f, 0) == page_ptr(&fin, first);
            assert_eq!(
                same,
                len >= 4096,
                "rank {rank}: whole pages are shared, partial ones copied"
            );
        }
    }

    #[test]
    fn defrag_through_fault_and_block_taps_writes_the_bare_copy() {
        let fs = paged_multifile(&[5 * 4096 + 100, 3 * 4096, 40_000, 0]);
        let bare = MemFs::with_block_size(4096);
        defrag(&fs, "in.sion", &bare, "out.sion", 1).unwrap();
        let mem = Arc::new(MemFs::with_block_size(4096));
        let (faults, guard) = (Faults::new(), BlockGuard::new(4096));
        let tapped = TapFs::new(mem.clone(), vec![faults.clone(), guard.clone()]);
        defrag(&fs, "in.sion", &tapped, "out.sion", 1).unwrap();
        assert!(out_files(&mem, 1) == out_files(&bare, 1));
        assert!(guard.violations().is_empty());
        let log = faults.take_log();
        assert!(log.iter().all(|op| op.ok), "{log:?}");
        // The whole pages went through the taps as leases and were adopted.
        let (fin, fout) = (fs.open("in.sion").unwrap(), mem.open("out.sion").unwrap());
        let (chunk_in, chunk_out) = (
            Multifile::open(&fs, "in.sion")
                .unwrap()
                .location(2)
                .unwrap()
                .chunks[0]
                .offset,
            Multifile::open(&*mem, "out.sion")
                .unwrap()
                .location(2)
                .unwrap()
                .chunks[0]
                .offset,
        );
        assert_eq!(page_ptr(&fin, chunk_in), page_ptr(&fout, chunk_out));
    }

    /// `mem` behind a `Faults` tap that fails every read after the ones
    /// `defrag` makes for metadata (the header open and one chunk-index read
    /// per rank): every stored-byte read fails. No lease is served past a
    /// fault tap, so this is the owned-window path.
    fn failing_data_reads(mem: Arc<MemFs>) -> TapFs {
        let faults = Faults::new();
        let fs = TapFs::new(mem, vec![faults.clone()]);
        // Make the metadata reads once to count them; defrag repeats them.
        let mf = Multifile::open(&fs, "in.sion").unwrap();
        for rank in 0..mf.ntasks() {
            mf.location(rank).unwrap();
        }
        let meta = faults
            .take_log()
            .iter()
            .filter(|op| op.kind == FaultKind::Read)
            .count();
        faults.inject(FaultRule {
            kind: FaultKind::Read,
            from: 2 * meta as u64,
            count: u64::MAX,
        });
        fs
    }

    #[test]
    fn defrag_fails_cleanly_when_a_read_fails_in_any_workers_range() {
        // Two workers over four ranks: ranks 0–1 are the calling thread's,
        // 2–3 a spawned worker's, and only the busy rank reads stored bytes.
        for busy in [0, 3] {
            let mem = Arc::new(MemFs::with_block_size(512));
            let mut lens = vec![0; 4];
            lens[busy] = 20 * 512;
            multifile_of(&mem, &SionParams::new(512), &lens);
            let fs = failing_data_reads(mem);
            let out = MemFs::with_block_size(512);
            let err = defrag_on(2, &fs, "in.sion", &out, "out.sion", 1).unwrap_err();
            assert!(
                err.to_string().contains("injected fault"),
                "busy rank {busy}: {err}"
            );
            assert!(out.exists("out.sion"), "the metadata reads went through");
        }
    }

    /// Reads of `self.0` find nothing there, as if the file ended at its
    /// start; the metadata behind it still reads.
    struct BytesGone(Range<u64>);

    impl Tap for BytesGone {
        fn around(&self, op: &Op<'_>, next: Next<'_>) -> std::io::Result<u64> {
            let gone = &self.0;
            match op.offset {
                at if op.kind != OpKind::Read || at >= gone.end => next(op.len),
                at if at >= gone.start => next(0),
                at => next(op.len.min(gone.start - at)),
            }
        }
    }

    #[test]
    fn defrag_fails_cleanly_on_a_chunk_cut_below_its_used() {
        let mem = Arc::new(MemFs::with_block_size(512));
        sample_multifile(&mem, &SionParams::new(512), 3);
        let mf = Multifile::open(&*mem, "in.sion").unwrap();
        let c = *mf.location(1).unwrap().chunks.last().unwrap();
        drop(mf);
        let cut = c.offset + c.used / 2;
        // Lent pages stop at the cut, and the window read there comes back
        // empty: an error, not a short copy.
        let fs = TapFs::new(
            mem.clone(),
            vec![Arc::new(BytesGone(cut..c.offset + c.used))],
        );
        let out = MemFs::with_block_size(512);
        let err = defrag_on(2, &fs, "in.sion", &out, "out.sion", 1).unwrap_err();
        assert!(err.to_string().contains("end of file"), "{err}");
        assert!(out.exists("out.sion"), "the metadata reads went through");
        // Cut for real, the metadata no longer fits the file.
        mem.open_rw("in.sion").unwrap().set_len(cut).unwrap();
        assert!(defrag(&*mem, "in.sion", &out, "out.sion", 1).is_err());
    }

    /// Counts the reads that start inside `self.0`.
    struct ReadsIn(Range<u64>, AtomicUsize);

    impl Tap for ReadsIn {
        fn around(&self, op: &Op<'_>, next: Next<'_>) -> std::io::Result<u64> {
            if op.kind == OpKind::Read && self.0.contains(&op.offset) {
                self.1.fetch_add(1, Ordering::Relaxed);
            }
            next(op.len)
        }
    }

    #[test]
    fn defrag_reads_each_ranks_chunk_index_slice_once() {
        // Every lookup reads the file, so a second lookup of a rank would
        // read its index slice a second time.
        const RANKS: usize = 600;
        let mem = Arc::new(MemFs::with_block_size(512));
        let mut w =
            SerialWriter::create(&*mem, "in.sion", &[512; RANKS], &SionParams::new(512)).unwrap();
        for rank in 0..RANKS {
            w.select_rank(rank).unwrap();
            w.write(&payload(rank, 100 + rank % 700)).unwrap();
        }
        w.close().unwrap();
        let file = mem.open("in.sion").unwrap();
        let trailer = sion::format::Trailer::read_from(file.as_ref()).unwrap();
        let (idx_off, idx_len) = trailer.index.expect("a v2 file has a chunk index");
        // The per-rank slices, not the fixed header the open validates.
        let tap = Arc::new(ReadsIn(idx_off + 1..idx_off + idx_len, AtomicUsize::new(0)));
        let fs = TapFs::new(mem, vec![tap.clone()]);
        let out = MemFs::with_block_size(512);
        defrag_on(2, &fs, "in.sion", &out, "out.sion", 1).unwrap();
        assert_eq!(
            tap.1.load(Ordering::Relaxed),
            RANKS,
            "one chunk-index read per rank"
        );
    }

    #[test]
    fn defrag_of_a_rescue_multifile_verifies_clean() {
        // verify cross-checks every chunk's rescue header against
        // metablock 2, so a clean report means defrag wrote both to agree.
        let fs = MemFs::with_block_size(512);
        sample_multifile(&fs, &SionParams::new(512).with_rescue().with_nfiles(2), 5);
        let out = MemFs::with_block_size(512);
        defrag(&fs, "in.sion", &out, "out.sion", 2).unwrap();
        assert!(Multifile::open(&out, "out.sion")
            .unwrap()
            .flags()
            .contains(SionFlags::RESCUE));
        let report = verify(&out, "out.sion").unwrap();
        assert!(report.is_clean(), "{:?}", report.problems);
        assert_eq!(report.tasks_ok, 5);
    }
}
