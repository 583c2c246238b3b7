//! Serial API and rescue/repair integration tests: serial writer with
//! seek, global-view addressed reads, metadata introspection, and
//! reconstruction of lost metablocks from rescue headers.

use simmpi::World;
use sion::rescue::{repair, RESCUE_HEADER_LEN};
use sion::{
    paropen_write, Alignment, Multifile, SerialWriter, SionError, SionParams,
};
use vfs::{MemFs, Vfs};

fn payload(rank: usize, len: usize) -> Vec<u8> {
    (0..len).map(|i| ((i * 17 + rank * 97 + 3) % 253) as u8).collect()
}

#[test]
fn serial_writer_roundtrip() {
    let fs = MemFs::with_block_size(1024);
    let chunksizes = [500u64, 1500, 1000, 250];
    let params = SionParams::new(0).with_nfiles(2);
    let mut w = SerialWriter::create(&fs, "serial.sion", &chunksizes, &params).unwrap();
    for rank in 0..4 {
        w.select_rank(rank).unwrap();
        w.write(&payload(rank, 2000)).unwrap(); // spills over chunks
    }
    w.close().unwrap();

    let mf = Multifile::open(&fs, "serial.sion").unwrap();
    assert_eq!(mf.ntasks(), 4);
    assert_eq!(mf.locations().unwrap().nfiles, 2);
    for (rank, &req) in chunksizes.iter().enumerate() {
        assert_eq!(mf.read_rank(rank).unwrap(), payload(rank, 2000), "rank {rank}");
        assert_eq!(mf.locations().unwrap().tasks[rank].chunksize_req, req);
    }
}

#[test]
fn rank_reader_scan_is_zero_copy_on_memfs() {
    let fs = MemFs::with_block_size(1024);
    let chunksizes = [700u64, 300, 900];
    let params = SionParams::new(0);
    let mut w = SerialWriter::create(&fs, "scan.sion", &chunksizes, &params).unwrap();
    for rank in 0..3 {
        w.select_rank(rank).unwrap();
        w.write(&payload(rank, 1500)).unwrap();
    }
    w.close().unwrap();

    let mf = Multifile::open(&fs, "scan.sion").unwrap();
    for rank in 0..3 {
        let mut r = mf.rank_reader(rank).unwrap();
        let mut seen = Vec::new();
        let n = r.scan_remaining(&mut |piece| seen.extend_from_slice(piece)).unwrap();
        assert_eq!(n, 1500, "rank {rank}");
        assert_eq!(seen, payload(rank, 1500), "rank {rank}");
        let c = r.io_counters();
        assert_eq!(
            c.bytes_copied, 0,
            "rank {rank}: MemFs leases serve the whole scan without copying: {c:?}"
        );
    }
}

#[test]
fn serial_seek_positions_by_rank_chunk_pos() {
    let fs = MemFs::with_block_size(256);
    let params = SionParams::new(0).with_alignment(Alignment::None);
    let mut w = SerialWriter::create(&fs, "seek.sion", &[100, 100], &params).unwrap();
    // Paper Listing 3: seek to (rank, chunk, pos), then write.
    w.seek(1, 0, 10).unwrap();
    w.write_in_chunk(b"ten-in").unwrap();
    w.seek(0, 2, 0).unwrap();
    w.write_in_chunk(b"chunk2").unwrap();
    w.close().unwrap();

    let mf = Multifile::open(&fs, "seek.sion").unwrap();
    // Rank 1 block 0: 16 bytes used (high-water), first 10 are zeros.
    let binding = mf.locations().unwrap();
    let t1 = &binding.tasks[1];
    assert_eq!(t1.chunks[0].used, 16);
    let mut buf = vec![0u8; 16];
    assert_eq!(mf.read_at(1, 0, 0, &mut buf).unwrap(), 16);
    assert_eq!(&buf[..10], &[0u8; 10]);
    assert_eq!(&buf[10..], b"ten-in");
    // Rank 0 wrote only in chunk 2.
    let binding = mf.locations().unwrap();
    let t0 = &binding.tasks[0];
    assert_eq!(t0.chunks[0].used, 0);
    assert_eq!(t0.chunks[2].used, 6);
    let mut buf = vec![0u8; 6];
    assert_eq!(mf.read_at(0, 2, 0, &mut buf).unwrap(), 6);
    assert_eq!(&buf, b"chunk2");
    // Addressed read past the data is short.
    assert_eq!(mf.read_at(0, 2, 6, &mut buf).unwrap(), 0);
}

#[test]
fn locations_report_geometry() {
    let fs = MemFs::with_block_size(4096);
    World::run(6, |comm| {
        let params = SionParams::new(2000).with_nfiles(2);
        let mut w = paropen_write(&fs, "loc.sion", &params, comm).unwrap();
        w.write(&payload(comm.rank(), 100 * (comm.rank() + 1))).unwrap();
        w.close().unwrap();
    });
    let mf = Multifile::open(&fs, "loc.sion").unwrap();
    let loc = mf.locations().unwrap();
    assert_eq!(loc.ntasks, 6);
    assert_eq!(loc.nfiles, 2);
    assert_eq!(loc.fsblksize, 4096);
    let total: u64 = (1..=6).map(|k| 100 * k as u64).sum();
    assert_eq!(loc.total_stored_bytes(), total);
    for t in &loc.tasks {
        assert_eq!(t.capacity, 4096); // 2000 rounded up
        assert_eq!(t.stored_bytes, 100 * (t.global_rank as u64 + 1));
        // Chunk offsets must be block-aligned.
        for c in &t.chunks {
            assert_eq!(c.offset % 4096, 0);
        }
    }
}

#[test]
fn multifile_rejects_non_sion_files() {
    let fs = MemFs::new();
    let f = fs.create("junk").unwrap();
    f.write_all_at(b"this is not a multifile at all....", 0).unwrap();
    assert!(matches!(Multifile::open(&fs, "junk"), Err(SionError::Format(_))));
}

/// Simulate a crash: cut the file at the start of metablock 2, removing it
/// and the trailer (exactly what an interrupted close leaves behind).
fn truncate_metadata(fs: &MemFs, path: &str) {
    let f = fs.open_rw(path).unwrap();
    let len = f.len().unwrap();
    let mut trailer = [0u8; 24];
    f.read_exact_at(&mut trailer, len - 24).unwrap();
    let mb2_off = u64::from_le_bytes(trailer[0..8].try_into().unwrap());
    f.set_len(mb2_off).unwrap();
}

#[test]
fn repair_reconstructs_lost_metablock2() {
    let fs = MemFs::with_block_size(512);
    let ntasks = 6;
    World::run(ntasks, |comm| {
        let params = SionParams::new(512).with_rescue();
        let mut w = paropen_write(&fs, "crash.sion", &params, comm).unwrap();
        w.write(&payload(comm.rank(), 300 * (comm.rank() + 1))).unwrap();
        w.close().unwrap();
    });

    // Sanity: opens fine before the crash.
    let before = Multifile::open(&fs, "crash.sion").unwrap();
    let stored_before: Vec<u64> =
        before.locations().unwrap().tasks.iter().map(|t| t.stored_bytes).collect();
    drop(before);

    truncate_metadata(&fs, "crash.sion");
    assert!(Multifile::open(&fs, "crash.sion").is_err(), "truncation must break the file");

    let report = repair(&fs, "crash.sion", false).unwrap();
    assert_eq!(report.files_scanned, 1);
    assert_eq!(report.files_repaired, 1);
    assert!(report.chunks_recovered > 0);

    let after = Multifile::open(&fs, "crash.sion").unwrap();
    let stored_after: Vec<u64> = after.locations().unwrap().tasks.iter().map(|t| t.stored_bytes).collect();
    assert_eq!(stored_after, stored_before);
    for rank in 0..ntasks {
        assert_eq!(after.read_rank(rank).unwrap(), payload(rank, 300 * (rank + 1)));
    }
}

#[test]
fn repair_recovers_flushed_data_from_buffered_crash() {
    // A buffered writer crashes (handle dropped, never closed): everything
    // up to the last explicit flush must be recoverable from the rescue
    // headers, while bytes still sitting in the write-behind buffer are
    // gone. The rescue patch is deferred to flush points, so this pins
    // down that flush really durably patches the headers.
    let fs = MemFs::with_block_size(512);
    let ntasks = 4;
    World::run(ntasks, |comm| {
        let params = SionParams::new(512).with_rescue().with_write_buffer(4096);
        let mut w = paropen_write(&fs, "bcrash.sion", &params, comm).unwrap();
        w.write(&payload(comm.rank(), 700)).unwrap();
        w.flush().unwrap();
        // Unflushed tail, smaller than the buffer: lost in the "crash".
        w.write(&payload(comm.rank(), 100)).unwrap();
        drop(w); // no close → no metablock 2, no trailer
    });

    assert!(Multifile::open(&fs, "bcrash.sion").is_err(), "crashed file must not open");
    let report = repair(&fs, "bcrash.sion", false).unwrap();
    assert_eq!(report.files_repaired, 1);
    assert!(report.chunks_recovered > 0);

    let mf = Multifile::open(&fs, "bcrash.sion").unwrap();
    for rank in 0..ntasks {
        assert_eq!(mf.read_rank(rank).unwrap(), payload(rank, 700), "rank {rank}");
    }
}

#[test]
fn repair_multifile_with_mixed_damage() {
    let fs = MemFs::with_block_size(512);
    World::run(8, |comm| {
        let params = SionParams::new(512).with_nfiles(2).with_rescue();
        let mut w = paropen_write(&fs, "mixed.sion", &params, comm).unwrap();
        w.write(&payload(comm.rank(), 900)).unwrap();
        w.close().unwrap();
    });
    // Damage only the second physical file.
    truncate_metadata(&fs, "mixed.sion.000001");

    let report = repair(&fs, "mixed.sion", false).unwrap();
    assert_eq!(report.files_scanned, 2);
    assert_eq!(report.files_intact, 1);
    assert_eq!(report.files_repaired, 1);

    let mf = Multifile::open(&fs, "mixed.sion").unwrap();
    for rank in 0..8 {
        assert_eq!(mf.read_rank(rank).unwrap(), payload(rank, 900));
    }
}

#[test]
fn repair_requires_rescue_flag() {
    let fs = MemFs::with_block_size(512);
    World::run(2, |comm| {
        let params = SionParams::new(512); // no rescue
        let mut w = paropen_write(&fs, "norescue.sion", &params, comm).unwrap();
        w.write(b"data").unwrap();
        w.close().unwrap();
    });
    assert!(matches!(repair(&fs, "norescue.sion", false), Err(SionError::Rescue(_))));
}

#[test]
fn forced_repair_matches_collective_close() {
    // With force=true, the rescue reconstruction must agree byte-for-byte
    // with what the collective close wrote.
    let fs = MemFs::with_block_size(256);
    World::run(4, |comm| {
        let params = SionParams::new(256).with_rescue();
        let mut w = paropen_write(&fs, "force.sion", &params, comm).unwrap();
        w.write(&payload(comm.rank(), 700)).unwrap();
        w.close().unwrap();
    });
    let before = Multifile::open(&fs, "force.sion").unwrap().locations().unwrap();
    let report = repair(&fs, "force.sion", true).unwrap();
    assert_eq!(report.files_repaired, 1);
    let after = Multifile::open(&fs, "force.sion").unwrap().locations().unwrap();
    assert_eq!(before, after);
}

#[test]
fn repair_multifile_with_partial_metablock_loss_across_files() {
    // Three physical files; files 0 and 2 lose their metablock 2, file 1
    // stays intact. Repair must fix exactly the damaged ones and leave a
    // fully readable multifile.
    let fs = MemFs::with_block_size(512);
    World::run(9, |comm| {
        let params = SionParams::new(512).with_nfiles(3).with_rescue();
        let mut w = paropen_write(&fs, "part.sion", &params, comm).unwrap();
        w.write(&payload(comm.rank(), 1100)).unwrap();
        w.close().unwrap();
    });
    truncate_metadata(&fs, "part.sion");
    truncate_metadata(&fs, "part.sion.000002");

    let report = repair(&fs, "part.sion", false).unwrap();
    assert_eq!(report.files_scanned, 3);
    assert_eq!(report.files_intact, 1);
    assert_eq!(report.files_repaired, 2);
    assert!(report.is_clean(), "{:?}", report.problems);

    let mf = Multifile::open(&fs, "part.sion").unwrap();
    for rank in 0..9 {
        assert_eq!(mf.read_rank(rank).unwrap(), payload(rank, 1100), "rank {rank}");
    }
}

#[test]
fn forced_repair_of_multifile_matches_collective_close() {
    // force=true over several physical files: the reconstruction must
    // agree with the clean close's metadata on every file.
    let fs = MemFs::with_block_size(256);
    World::run(6, |comm| {
        let params = SionParams::new(256).with_nfiles(2).with_rescue();
        let mut w = paropen_write(&fs, "mforce.sion", &params, comm).unwrap();
        w.write(&payload(comm.rank(), 500 + 100 * comm.rank())).unwrap();
        w.close().unwrap();
    });
    let before = Multifile::open(&fs, "mforce.sion").unwrap().locations().unwrap();
    let report = repair(&fs, "mforce.sion", true).unwrap();
    assert_eq!(report.files_scanned, 2);
    assert_eq!(report.files_repaired, 2);
    assert_eq!(report.files_intact, 0);
    let after = Multifile::open(&fs, "mforce.sion").unwrap().locations().unwrap();
    assert_eq!(before, after);
}

/// Read a file's entire contents (for byte-identity comparisons).
fn file_bytes(fs: &MemFs, path: &str) -> Vec<u8> {
    let f = fs.open(path).unwrap();
    let len = f.len().unwrap() as usize;
    let mut buf = vec![0u8; len];
    f.read_exact_at(&mut buf, 0).unwrap();
    buf
}

#[test]
fn repair_after_clean_close_is_byte_identical() {
    // The canonical trailing-block convention: a chunk merely entered via
    // ensure_free_space (nothing stored) does not count toward nblocks, on
    // the writer path and the repair path alike. Force-repairing a cleanly
    // closed multifile must therefore reproduce the files bit for bit.
    let fs = MemFs::with_block_size(256);
    World::run(4, |comm| {
        let params = SionParams::new(256).with_rescue();
        let mut w = paropen_write(&fs, "ident.sion", &params, comm).unwrap();
        w.write(&payload(comm.rank(), 300)).unwrap();
        if comm.rank() == 1 {
            // Advance into a fresh trailing chunk without writing to it.
            w.ensure_free_space(200).unwrap();
        }
        w.close().unwrap();
    });
    let before = file_bytes(&fs, "ident.sion");
    let report = repair(&fs, "ident.sion", true).unwrap();
    assert_eq!(report.files_repaired, 1);
    assert!(report.is_clean(), "{:?}", report.problems);
    assert_eq!(file_bytes(&fs, "ident.sion"), before, "repair must be byte-identical");
}

#[test]
fn repair_skips_unopenable_file_but_fixes_the_rest() {
    // Losing one physical file entirely costs that file's data only: the
    // others still repair, and the loss is reported as a problem.
    let fs = MemFs::with_block_size(512);
    World::run(4, |comm| {
        let params = SionParams::new(512).with_nfiles(2).with_rescue();
        let mut w = paropen_write(&fs, "gone.sion", &params, comm).unwrap();
        w.write(&payload(comm.rank(), 900)).unwrap();
        w.close().unwrap();
    });
    truncate_metadata(&fs, "gone.sion");
    fs.remove("gone.sion.000001").unwrap();

    let report = repair(&fs, "gone.sion", false).unwrap();
    assert_eq!(report.files_repaired, 1);
    assert!(!report.is_clean());
    assert!(report.problems.iter().any(|p| p.contains("cannot open")), "{:?}", report.problems);
}

#[test]
fn rescue_headers_have_expected_layout_overhead() {
    let fs = MemFs::with_block_size(4096);
    World::run(2, |comm| {
        let params = SionParams::new(4096).with_rescue();
        let mut w = paropen_write(&fs, "ovh.sion", &params, comm).unwrap();
        w.write(&[1u8; 10]).unwrap();
        w.close().unwrap();
    });
    let mf = Multifile::open(&fs, "ovh.sion").unwrap();
    let binding = mf.locations().unwrap();
    for t in &binding.tasks {
        // 4096 + 32 rounds to 2 blocks.
        assert_eq!(t.capacity, 8192);
        assert_eq!(t.usable, 8192 - RESCUE_HEADER_LEN);
    }
}
