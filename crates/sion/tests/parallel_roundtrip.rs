//! End-to-end tests of the parallel API: rank tasks write a
//! multifile collectively, read it back in parallel and serially, across
//! the parameter space (file counts, alignments, compression, rescue,
//! mappings, uneven chunk sizes).

use simmpi::TaskWorld;
use sion::{paropen_read_co, paropen_write_co, Alignment, Mapping, Multifile, SionParams};
use std::sync::Arc;
use vfs::{FaultKind, Faults, MemFs, TapFs, Vfs};

/// Deterministic per-rank payload.
fn payload(rank: usize, len: usize) -> Vec<u8> {
    (0..len)
        .map(|i| ((i * 31 + rank * 131 + 7) % 251) as u8)
        .collect()
}

fn write_then_read_back(ntasks: usize, params: &SionParams, bytes_per_task: usize) {
    let fs = MemFs::with_block_size(4096);
    TaskWorld::run(ntasks, |comm| {
        let fs = &fs;
        async move {
            let data = payload(comm.rank(), bytes_per_task);
            let mut w = paropen_write_co(fs, "out/data.sion", params, &comm)
                .await
                .unwrap();
            // Write in uneven pieces to exercise chunk splitting.
            for piece in data.chunks(1000 + comm.rank() * 37 + 1) {
                w.write(piece).unwrap();
            }
            let stats = w.close_co().await.unwrap();
            assert_eq!(stats.user_bytes, bytes_per_task as u64);

            // Parallel read-back.
            let mut r = paropen_read_co(fs, "out/data.sion", &comm).await.unwrap();
            let mut back = vec![0u8; bytes_per_task];
            r.read_exact(&mut back).unwrap();
            assert_eq!(back, data, "rank {} read-back mismatch", comm.rank());
            assert!(r.feof());
            r.close_co().await.unwrap();
        }
    });

    // Serial global-view read-back.
    let mf = Multifile::open(&fs, "out/data.sion").unwrap();
    assert_eq!(mf.ntasks(), ntasks);
    for rank in 0..ntasks {
        assert_eq!(
            mf.read_rank(rank).unwrap(),
            payload(rank, bytes_per_task),
            "rank {rank}"
        );
    }

    // The file count on disk matches nfiles, not ntasks.
    let files = fs.list("out/").unwrap();
    assert_eq!(files.len(), params.nfiles as usize);
}

#[test]
fn single_file_aligned() {
    write_then_read_back(8, &SionParams::new(4096), 10_000);
}

#[test]
fn multiple_physical_files() {
    write_then_read_back(12, &SionParams::new(4096).with_nfiles(3), 9_001);
}

#[test]
fn unaligned_layout() {
    write_then_read_back(
        6,
        &SionParams::new(2000).with_alignment(Alignment::None),
        7_777,
    );
}

#[test]
fn round_robin_mapping() {
    write_then_read_back(
        10,
        &SionParams::new(4096)
            .with_nfiles(2)
            .with_mapping(Mapping::RoundRobin),
        5_000,
    );
}

#[test]
fn grouped_mapping() {
    write_then_read_back(
        16,
        &SionParams::new(4096)
            .with_nfiles(4)
            .with_mapping(Mapping::Grouped(4)),
        3_333,
    );
}

#[test]
fn with_rescue_headers() {
    write_then_read_back(6, &SionParams::new(3000).with_rescue(), 8_000);
}

#[test]
fn with_compression() {
    write_then_read_back(6, &SionParams::new(4096).with_compression(), 20_000);
}

#[test]
fn compression_and_rescue_together() {
    write_then_read_back(
        4,
        &SionParams::new(4096).with_compression().with_rescue(),
        15_000,
    );
}

#[test]
fn tiny_alignment_many_blocks() {
    // Chunks much smaller than the data force many blocks.
    write_then_read_back(
        5,
        &SionParams::new(512).with_alignment(Alignment::Fixed(512)),
        6_000,
    );
}

#[test]
fn single_task_world() {
    write_then_read_back(1, &SionParams::new(4096), 10_000);
}

#[test]
fn per_task_chunk_sizes_differ() {
    let fs = MemFs::with_block_size(4096);
    let ntasks = 6;
    TaskWorld::run(ntasks, |comm| {
        let fs = &fs;
        async move {
            // Every task asks for a different chunk size (paper: "which can be
            // individually chosen for each task").
            let mut params = SionParams::new(1024 * (comm.rank() as u64 + 1));
            params.nfiles = 2;
            let data = payload(comm.rank(), 5000 * (comm.rank() + 1));
            let mut w = paropen_write_co(fs, "uneven.sion", &params, &comm)
                .await
                .unwrap();
            w.write(&data).unwrap();
            w.close_co().await.unwrap();

            let mut r = paropen_read_co(fs, "uneven.sion", &comm).await.unwrap();
            let mut back = vec![0u8; data.len()];
            r.read_exact(&mut back).unwrap();
            assert_eq!(back, data);
            r.close_co().await.unwrap();
        }
    });
    let mf = Multifile::open(&fs, "uneven.sion").unwrap();
    for rank in 0..ntasks {
        assert_eq!(
            mf.locations().unwrap().tasks[rank].chunksize_req,
            1024 * (rank as u64 + 1)
        );
    }
}

#[test]
fn ensure_free_space_write_in_chunk_api() {
    // The paper's Listing 1 style: ensure_free_space + plain fwrite.
    let fs = MemFs::with_block_size(4096);
    TaskWorld::run(4, |comm| {
        let fs = &fs;
        async move {
            let params = SionParams::new(4096);
            let mut w = paropen_write_co(fs, "listing1.sion", &params, &comm)
                .await
                .unwrap();
            for round in 0..5u8 {
                let piece = vec![round ^ comm.rank() as u8; 3000];
                w.ensure_free_space(piece.len() as u64).unwrap();
                w.write_in_chunk(&piece).unwrap();
            }
            w.close_co().await.unwrap();

            // Listing 2 style read: bytes_avail_in_chunk + bounded reads.
            let mut r = paropen_read_co(fs, "listing1.sion", &comm).await.unwrap();
            let mut got = Vec::new();
            while !r.feof() {
                let avail = r.bytes_avail_in_chunk() as usize;
                assert!(avail > 0);
                let mut buf = vec![0u8; avail];
                r.read_exact(&mut buf).unwrap();
                got.extend_from_slice(&buf);
            }
            assert_eq!(got.len(), 15_000);
            for round in 0..5usize {
                assert!(got[round * 3000..(round + 1) * 3000]
                    .iter()
                    .all(|&b| b == (round as u8) ^ comm.rank() as u8));
            }
            r.close_co().await.unwrap();
        }
    });
}

#[test]
fn read_with_wrong_task_count_fails_everywhere() {
    let fs = MemFs::with_block_size(4096);
    TaskWorld::run(4, |comm| {
        let fs = &fs;
        async move {
            let params = SionParams::new(1024);
            let mut w = paropen_write_co(fs, "four.sion", &params, &comm)
                .await
                .unwrap();
            w.write(b"x").unwrap();
            w.close_co().await.unwrap();
        }
    });
    let results = TaskWorld::run(3, |comm| {
        let fs = &fs;
        async move { paropen_read_co(fs, "four.sion", &comm).await.is_err() }
    });
    assert!(results.iter().all(|&failed| failed));
}

#[test]
fn mismatched_params_fail_collectively() {
    let fs = MemFs::with_block_size(4096);
    let results = TaskWorld::run(4, |comm| {
        let fs = &fs;
        async move {
            // Rank 2 disagrees about the file count.
            let nfiles = if comm.rank() == 2 { 2 } else { 1 };
            let params = SionParams::new(1024).with_nfiles(nfiles);
            paropen_write_co(fs, "clash.sion", &params, &comm)
                .await
                .is_err()
        }
    });
    assert!(results.iter().all(|&failed| failed));
}

#[test]
fn empty_writers_produce_empty_streams() {
    let fs = MemFs::with_block_size(4096);
    TaskWorld::run(4, |comm| {
        let fs = &fs;
        async move {
            let params = SionParams::new(4096);
            let w = paropen_write_co(fs, "empty.sion", &params, &comm)
                .await
                .unwrap();
            let stats = w.close_co().await.unwrap();
            assert_eq!(stats.user_bytes, 0);

            let mut r = paropen_read_co(fs, "empty.sion", &comm).await.unwrap();
            assert!(r.feof());
            let mut buf = [0u8; 16];
            assert_eq!(r.read(&mut buf).unwrap(), 0);
            r.close_co().await.unwrap();
        }
    });
}

#[test]
fn sparse_chunks_stay_holes() {
    // One task writes a lot (many blocks), the rest write almost nothing:
    // the untouched chunks of the quiet tasks must not consume storage.
    let fs = MemFs::with_block_size(4096);
    let ntasks = 8;
    TaskWorld::run(ntasks, |comm| {
        let fs = &fs;
        async move {
            let params = SionParams::new(4096);
            let mut w = paropen_write_co(fs, "holey.sion", &params, &comm)
                .await
                .unwrap();
            if comm.rank() == 0 {
                w.write(&payload(0, 40 * 4096)).unwrap(); // 40 blocks
            } else {
                w.write(b"tiny").unwrap();
            }
            w.close_co().await.unwrap();
        }
    });
    let stats = fs.stats("holey.sion").unwrap();
    // Logical size covers 40 blocks x 8 tasks; physical must be near the
    // actually-written 40 + 7 chunks (plus metadata), far below logical.
    assert!(
        stats.allocated < stats.len / 3,
        "expected sparse file: allocated {} of {}",
        stats.allocated,
        stats.len
    );
    // And the data still reads back fine.
    let mf = Multifile::open(&fs, "holey.sion").unwrap();
    assert_eq!(mf.read_rank(0).unwrap(), payload(0, 40 * 4096));
    assert_eq!(mf.read_rank(3).unwrap(), b"tiny");
}

#[test]
fn functional_create_counts_match_paper_claim() {
    // The heart of Fig. 3: N tasks, task-local files = N creates; SIONlib
    // multifile = nfiles creates.
    let ntasks = 32;
    let faults = Faults::new();
    let fs = TapFs::new(Arc::new(MemFs::with_block_size(4096)), vec![faults.clone()]);
    // Creates in the fault tap's op log since the last call (it drains).
    let creates = || {
        faults
            .take_log()
            .iter()
            .filter(|r| r.kind == FaultKind::Create && r.ok)
            .count()
    };
    TaskWorld::run(ntasks, |comm| {
        let fs = &fs;
        async move {
            let params = SionParams::new(1024).with_nfiles(4);
            let mut w = paropen_write_co(fs, "few.sion", &params, &comm)
                .await
                .unwrap();
            w.write(b"payload").unwrap();
            w.close_co().await.unwrap();
        }
    });
    assert_eq!(creates(), 4);

    TaskWorld::run(ntasks, |comm| {
        let fs = &fs;
        async move {
            // Task-local baseline: every task creates its own file.
            let f = fs
                .create(&format!("taskloc/file.{:05}", comm.rank()))
                .unwrap();
            f.write_all_at(b"payload", 0).unwrap();
        }
    });
    assert_eq!(creates(), ntasks);
}

/// A multifile whose per-file rank tables are *not* ascending — legal on
/// disk, though this library never writes one — must hand every task the
/// chunks its own table entry names. The tables of a written multifile are
/// rotated by hand; the serial global view is the oracle.
#[test]
fn read_open_follows_non_ascending_rank_tables() {
    use sion::format::MetaBlock1;
    let fs = MemFs::with_block_size(4096);
    let (ntasks, per_file) = (6, 3);
    TaskWorld::run(ntasks, |comm| {
        let fs = &fs;
        async move {
            let params = SionParams::new(2048).with_nfiles(2);
            let mut w = paropen_write_co(fs, "rot.sion", &params, &comm)
                .await
                .unwrap();
            w.write(&payload(comm.rank(), 3000 + comm.rank())).unwrap();
            w.close_co().await.unwrap();
        }
    });
    for k in 0..2 {
        let file = fs.open_rw(&sion::physical_name("rot.sion", k)).unwrap();
        let mut mb1 = MetaBlock1::read_from(file.as_ref()).unwrap();
        mb1.global_ranks.rotate_left(1);
        file.write_all_at(&mb1.encode(), 0).unwrap();
    }
    // Local task i of each file now belongs to rank base + (i + 1) % 3, so
    // every rank finds what its left neighbour in the file wrote.
    let writer_of = |rank: usize| rank / per_file * per_file + (rank + per_file - 1) % per_file;
    let mf = Multifile::open(&fs, "rot.sion").unwrap();
    TaskWorld::run(ntasks, |comm| {
        let fs = &fs;
        let mf = &mf;
        async move {
            let want = payload(writer_of(comm.rank()), 3000 + writer_of(comm.rank()));
            assert_eq!(
                mf.read_rank(comm.rank()).unwrap(),
                want,
                "serial view, rank {}",
                comm.rank()
            );
            let mut r = paropen_read_co(fs, "rot.sion", &comm).await.unwrap();
            let mut back = vec![0u8; want.len()];
            r.read_exact(&mut back).unwrap();
            assert_eq!(
                back,
                want,
                "rank {} read another task's chunks",
                comm.rank()
            );
            assert!(r.feof());
            r.close_co().await.unwrap();
        }
    });
}

/// What the collective write open accepts, a reader opens: a 0-byte chunk
/// request without a rescue header fails the open on every rank, whether
/// all ranks ask for 0 bytes (a uniform open) or one does (a ragged one);
/// with rescue headers the same requests write a file that reads back.
#[test]
fn zero_chunk_request_round_trips_or_is_refused() {
    for rescue in [false, true] {
        for ragged in [false, true] {
            let fs = MemFs::with_block_size(4096);
            let opened = TaskWorld::run(2, |comm| {
                let fs = &fs;
                async move {
                    let req = if ragged { comm.rank() as u64 * 10 } else { 0 };
                    let mut params = SionParams::new(req).with_alignment(Alignment::None);
                    params.rescue = rescue;
                    let mut w = match paropen_write_co(fs, "zero.sion", &params, &comm).await {
                        Ok(w) => w,
                        Err(e) => return Err(e.to_string()),
                    };
                    w.write(&payload(comm.rank(), req as usize)).unwrap();
                    w.close_co().await.unwrap();
                    Ok(())
                }
            });
            let case = format!("rescue {rescue}, ragged {ragged}");
            if !rescue {
                // The master names the cause; every other rank learns it failed.
                assert!(opened.iter().all(Result::is_err), "{case}: {opened:?}");
                let err = opened[0].as_ref().unwrap_err();
                assert!(err.contains("zero chunk capacity"), "{case}: {err}");
                continue;
            }
            assert!(opened.iter().all(Result::is_ok), "{case}: {opened:?}");
            let mf = Multifile::open(&fs, "zero.sion").unwrap();
            for rank in 0..2 {
                let len = if ragged { rank * 10 } else { 0 };
                assert_eq!(mf.read_rank(rank).unwrap(), payload(rank, len), "{case}");
            }
        }
    }
}
