//! Metadata-format coverage for the chunk-index record and the lazy open:
//!
//! * **Golden backward compat**: a committed pre-index (v1) multifile —
//!   bytes pinned at the commit that introduced the v2 close — must still
//!   open, seek, read, and verify. A second test re-runs the golden
//!   workload through *today's* writer, downgrades the tail to v1 with
//!   [`MetaBlock2::write_to`], and byte-compares against the fixture, so
//!   any accidental change to the data region or to the v1 tail encoding
//!   shows up as a diff against committed bytes.
//! * **Index == linear walk**: for a spread of layouts (sparse seeks,
//!   empty ranks, multiple files) every seek answered through the v2
//!   chunk index must equal the same seek answered by the v1 linear path
//!   over the identical data region.
//! * **Torn-tail sweep**: the close writes `metablock 2 | index | trailer`
//!   as one tail; a crash can persist any prefix of it. Every such prefix
//!   must fail `Multifile::open` cleanly (the trailer is last, so a torn
//!   tail never looks closed), and a damaged index under an intact
//!   trailer must silently fall back to the linear metablock-2 path.
//! * **`max_blocks` semantics**: physical block count, trailing empty
//!   chunks included, equal to the metablock-2 `nblocks` header.

use sion::format::{MetaBlock2, Trailer, MAGIC_IDX};
use sion::{ChunkInfo, Locations, Multifile, SerialWriter, SionFlags, SionParams, TaskLocation};
use vfs::{MemFs, Vfs};

/// The golden fixture's payload generator (must not change: the fixture
/// bytes are committed).
fn golden_payload(rank: usize, len: usize) -> Vec<u8> {
    (0..len)
        .map(|i| ((i * 31 + rank * 131 + 7) % 251) as u8)
        .collect()
}

const GOLDEN: [(&str, &[u8]); 2] = [
    ("golden_v1.sion", include_bytes!("golden/golden_v1.sion")),
    (
        "golden_v1.sion.000001",
        include_bytes!("golden/golden_v1.sion.000001"),
    ),
];

/// Load the committed fixture into a fresh in-memory filesystem.
fn golden_fs() -> MemFs {
    let fs = MemFs::with_block_size(512);
    for (name, bytes) in GOLDEN {
        let f = fs.create(name).unwrap();
        f.write_all_at(bytes, 0).unwrap();
    }
    fs
}

/// Re-run the exact workload the fixture was generated from: 4 tasks over
/// 2 physical files, 64-byte chunks, payload lengths 40 + 70·rank written
/// round-robin in ≤ 30-byte pieces.
fn golden_workload(fs: &MemFs) {
    let params = SionParams::new(64).with_nfiles(2);
    let ntasks = 4;
    let mut w = SerialWriter::create(fs, "golden_v1.sion", &vec![64; ntasks], &params).unwrap();
    let payloads: Vec<Vec<u8>> = (0..ntasks)
        .map(|r| golden_payload(r, 40 + 70 * r))
        .collect();
    let mut off = vec![0usize; ntasks];
    loop {
        let mut progressed = false;
        for (r, p) in payloads.iter().enumerate() {
            let remaining = p.len() - off[r];
            if remaining == 0 {
                continue;
            }
            let take = remaining.min(30);
            w.select_rank(r).unwrap();
            w.write(&p[off[r]..off[r] + take]).unwrap();
            off[r] += take;
            progressed = true;
        }
        if !progressed {
            break;
        }
    }
    w.close().unwrap();
}

fn file_bytes(fs: &MemFs, name: &str) -> Vec<u8> {
    let f = fs.open(name).unwrap();
    let mut buf = vec![0u8; f.len().unwrap() as usize];
    f.read_exact_at(&mut buf, 0).unwrap();
    buf
}

/// Rewrite one physical file's tail as a v1 (index-less) close would have:
/// decode its metablock 2, then `write_to` puts back `mb2 | v1 trailer`
/// and truncates the index away.
fn downgrade_to_v1(fs: &MemFs, name: &str) {
    let f = fs.open_rw(name).unwrap();
    let tr = Trailer::read_from(f.as_ref()).unwrap();
    assert!(tr.index.is_some(), "expected a v2 file before downgrade");
    let mut hdr = [0u8; 24];
    f.read_exact_at(&mut hdr, tr.mb2_off).unwrap();
    let n = u64::from_le_bytes(hdr[16..24].try_into().unwrap()) as usize;
    let mb2 = MetaBlock2::read_at(f.as_ref(), &tr, n).unwrap();
    mb2.write_to(f.as_ref(), tr.mb2_off, n).unwrap();
}

#[test]
fn golden_v1_fixture_opens_seeks_and_verifies() {
    let fs = golden_fs();
    let mf = Multifile::open(&fs, "golden_v1.sion").unwrap();
    assert_eq!(mf.ntasks(), 4);
    assert_eq!(mf.nfiles(), 2);

    for rank in 0..4 {
        let want = golden_payload(rank, 40 + 70 * rank);
        assert_eq!(mf.read_rank(rank).unwrap(), want, "rank {rank} payload");

        // Lazy per-rank fetch agrees with the eager directory.
        let t = mf.location(rank).unwrap();
        assert_eq!(t.stored_bytes, want.len() as u64);

        // Seeks across chunk boundaries resolve correctly on the v1
        // (index-less) decode path.
        for pos in [0u64, 1, 39, 63, 64, 65, (want.len() - 1) as u64] {
            let pos = pos.min(want.len() as u64 - 1);
            let (chunk, off) = mf.seek_logical(rank, pos).unwrap().unwrap();
            let mut b = [0u8; 1];
            assert_eq!(mf.read_at(rank, chunk, off, &mut b).unwrap(), 1);
            assert_eq!(b[0], want[pos as usize], "rank {rank} pos {pos}");
        }
        assert!(mf.seek_logical(rank, want.len() as u64).unwrap().is_none());
    }

    let all = mf.locations().unwrap();
    assert_eq!(all.max_blocks(), mf.max_blocks());

    let vr = sion_tools::verify(&fs, "golden_v1.sion").unwrap();
    assert!(
        vr.is_clean(),
        "golden fixture must verify clean: {:?}",
        vr.problems
    );
    assert_eq!(vr.tasks_ok, 4);
}

#[test]
fn current_writer_downgraded_to_v1_matches_golden_bytes() {
    let fs = MemFs::with_block_size(512);
    golden_workload(&fs);

    // Today's close writes a v2 tail; the fixture predates the index. The
    // data region and metablock 2 must be unchanged, so downgrading the
    // tail must reproduce the fixture bit for bit.
    for (name, want) in GOLDEN {
        downgrade_to_v1(&fs, name);
        let got = file_bytes(&fs, name);
        assert_eq!(
            got.len(),
            want.len(),
            "{name}: length drifted from the golden fixture"
        );
        assert_eq!(got, want, "{name}: bytes drifted from the golden fixture");
    }
}

/// One layout of the equality sweep: write it, answer a spread of seeks
/// through the v2 index, downgrade the tail in place, answer the same
/// seeks through the v1 linear path, and require identical answers.
fn assert_indexed_seek_equals_linear(
    ntasks: usize,
    chunksize: u64,
    nfiles: u32,
    write: impl Fn(&mut SerialWriter),
) {
    let fs = MemFs::with_block_size(256);
    let params = SionParams::new(chunksize).with_nfiles(nfiles);
    let mut w = SerialWriter::create(&fs, "eq.sion", &vec![chunksize; ntasks], &params).unwrap();
    write(&mut w);
    w.close().unwrap();

    type Probe = (usize, u64, Option<(u64, u64)>);
    let seek_probe = |mf: &Multifile| -> Vec<Probe> {
        let mut probes = Vec::new();
        for rank in 0..ntasks {
            let total = mf.location(rank).unwrap().stored_bytes;
            // Probe boundaries, interiors, and one-past-the-end.
            let mut positions = vec![0, total / 3, total / 2, total.saturating_sub(1), total];
            for b in 1..=4u64 {
                positions.push(b * chunksize - 1);
                positions.push(b * chunksize);
            }
            positions.sort_unstable();
            positions.dedup();
            for pos in positions {
                probes.push((rank, pos, mf.seek_logical(rank, pos).unwrap()));
            }
        }
        probes
    };

    let mf = Multifile::open(&fs, "eq.sion").unwrap();
    let via_index = seek_probe(&mf);
    // The eager directory must agree with the lazy per-rank path too.
    let all = mf.locations().unwrap();
    for &(rank, pos, want) in &via_index {
        assert_eq!(
            all.tasks[rank].find_chunk(pos),
            want,
            "eager rank {rank} pos {pos}"
        );
    }
    let payloads: Vec<Vec<u8>> = (0..ntasks).map(|r| mf.read_rank(r).unwrap()).collect();
    drop(mf);

    for name in multifile_names(&fs, "eq.sion") {
        downgrade_to_v1(&fs, &name);
    }
    let mf = Multifile::open(&fs, "eq.sion").unwrap();
    let via_linear = seek_probe(&mf);
    assert_eq!(via_index, via_linear, "index and linear walk disagree");
    for (r, p) in payloads.iter().enumerate() {
        assert_eq!(
            &mf.read_rank(r).unwrap(),
            p,
            "payload changed across downgrade"
        );
    }
}

/// Physical file names of a multifile (base + numbered siblings).
fn multifile_names(fs: &MemFs, base: &str) -> Vec<String> {
    let mut names: Vec<String> = fs
        .list("")
        .unwrap()
        .into_iter()
        .filter(|n| n.contains(base))
        .collect();
    names.sort();
    names
}

#[test]
fn indexed_seek_equals_linear_walk_across_layouts() {
    // Dense round-robin, several blocks per task.
    assert_indexed_seek_equals_linear(6, 96, 2, |w| {
        for round in 0..5 {
            for r in 0..6 {
                w.select_rank(r).unwrap();
                w.write(&vec![r as u8; 40 + 13 * round]).unwrap();
            }
        }
    });
    // Skewed: one heavy task, one empty task, tiny chunks.
    assert_indexed_seek_equals_linear(4, 64, 1, |w| {
        w.select_rank(0).unwrap();
        w.write(&[7u8; 500]).unwrap();
        w.select_rank(2).unwrap();
        w.write(&[9u8; 30]).unwrap();
        // rank 1 and 3 never write
    });
    // Sparse seeks: holes inside a task's stream (zero-used middle chunk).
    assert_indexed_seek_equals_linear(3, 128, 2, |w| {
        w.seek(0, 0, 0).unwrap();
        w.write(&[1u8; 100]).unwrap();
        w.seek(0, 2, 0).unwrap(); // skip block 1 entirely
        w.write(&[2u8; 50]).unwrap();
        w.seek(1, 0, 0).unwrap();
        w.write(&[3u8; 300]).unwrap();
    });
    // Pseudo-random piecewise writes, many tasks in one file.
    assert_indexed_seek_equals_linear(9, 80, 1, |w| {
        let mut x = 0x5105_2009u64;
        for _ in 0..60 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let r = (x >> 33) as usize % 9;
            let len = 1 + ((x >> 17) as usize % 120);
            w.select_rank(r).unwrap();
            w.write(&vec![(x >> 7) as u8; len]).unwrap();
        }
    });
}

#[test]
fn every_torn_tail_prefix_fails_open_cleanly() {
    let fs = MemFs::with_block_size(256);
    let params = SionParams::new(64).with_nfiles(1);
    let mut w = SerialWriter::create(&fs, "torn.sion", &[64; 3], &params).unwrap();
    for r in 0..3 {
        w.select_rank(r).unwrap();
        w.write(&golden_payload(r, 120 + 40 * r)).unwrap();
    }
    w.close().unwrap();

    let clean = file_bytes(&fs, "torn.sion");
    let f = fs.open("torn.sion").unwrap();
    let tail_start = Trailer::read_from(f.as_ref()).unwrap().mb2_off as usize;
    drop(f);

    // A crash during the close persists `clean[..tail_start + k]` for some
    // k < tail length. No such prefix may look like a closed file: the
    // trailer comes last in the single tail write.
    for k in 0..clean.len() - tail_start {
        let tfs = MemFs::with_block_size(256);
        let tf = tfs.create("torn.sion").unwrap();
        tf.write_all_at(&clean[..tail_start + k], 0).unwrap();
        match Multifile::open(&tfs, "torn.sion") {
            Err(_) => {}
            Ok(_) => panic!(
                "torn tail (kept {k} of {} bytes) opened",
                clean.len() - tail_start
            ),
        }
    }

    // The complete tail opens and round-trips.
    let tfs = MemFs::with_block_size(256);
    let tf = tfs.create("torn.sion").unwrap();
    tf.write_all_at(&clean, 0).unwrap();
    let mf = Multifile::open(&tfs, "torn.sion").unwrap();
    for r in 0..3 {
        assert_eq!(mf.read_rank(r).unwrap(), golden_payload(r, 120 + 40 * r));
    }
}

#[test]
fn damaged_index_under_intact_trailer_falls_back_to_linear_path() {
    let fs = MemFs::with_block_size(256);
    let params = SionParams::new(64).with_nfiles(1);
    let mut w = SerialWriter::create(&fs, "dmg.sion", &[64; 4], &params).unwrap();
    for r in 0..4 {
        w.select_rank(r).unwrap();
        w.write(&golden_payload(r, 50 + 60 * r)).unwrap();
    }
    w.close().unwrap();

    let f = fs.open_rw("dmg.sion").unwrap();
    let tr = Trailer::read_from(f.as_ref()).unwrap();
    let (idx_off, _) = tr.index.expect("v2 close writes an index");
    // Sanity: the index magic really is where the trailer says.
    let mut magic = [0u8; 8];
    f.read_exact_at(&mut magic, idx_off).unwrap();
    assert_eq!(magic, MAGIC_IDX);
    // Smash it; the trailer stays valid.
    f.write_all_at(b"????????", idx_off).unwrap();
    drop(f);

    let mf = Multifile::open(&fs, "dmg.sion").unwrap();
    for r in 0..4 {
        let want = golden_payload(r, 50 + 60 * r);
        assert_eq!(
            mf.read_rank(r).unwrap(),
            want,
            "rank {r} via linear fallback"
        );
        let (chunk, off) = mf.seek_logical(r, want.len() as u64 - 1).unwrap().unwrap();
        let mut b = [0u8; 1];
        mf.read_at(r, chunk, off, &mut b).unwrap();
        assert_eq!(b[0], *want.last().unwrap());
    }
    let vr = sion_tools::verify(&fs, "dmg.sion").unwrap();
    assert!(
        vr.is_clean(),
        "fallback must verify clean: {:?}",
        vr.problems
    );
}

#[test]
fn max_blocks_counts_trailing_empty_chunks() {
    // File-level: a clean close where one task spans 3 blocks and another
    // only 1 leaves the short task with trailing zero-use chunks; the
    // physical block count must come back undiminished and must equal the
    // metablock-2 header on every API.
    // 64-byte fs blocks so the aligned chunk capacity stays exactly 64.
    let fs = MemFs::with_block_size(64);
    let params = SionParams::new(64).with_nfiles(1);
    let mut w = SerialWriter::create(&fs, "mb.sion", &[64; 2], &params).unwrap();
    w.select_rank(0).unwrap();
    w.write(&[1u8; 150]).unwrap(); // 3 blocks: 64 + 64 + 22
    w.select_rank(1).unwrap();
    w.write(&[2u8; 10]).unwrap(); // 1 block, then 2 trailing empty chunks
    w.close().unwrap();

    let mf = Multifile::open(&fs, "mb.sion").unwrap();
    assert_eq!(mf.max_blocks(), 3);
    let short = mf.location(1).unwrap();
    assert_eq!(short.chunks.len(), 3, "one ChunkInfo per physical block");
    assert_eq!(short.chunks[1].used, 0);
    assert_eq!(short.chunks[2].used, 0);
    let all = mf.locations().unwrap();
    assert_eq!(all.max_blocks(), 3, "trailing empty chunks count");
    assert_eq!(all.max_blocks(), mf.max_blocks());

    // Expression-level regression: the old implementation filtered
    // `used > 0`, so a directory whose deepest task ends in an empty chunk
    // reported one block too few.
    let loc = Locations {
        ntasks: 1,
        nfiles: 1,
        fsblksize: 256,
        flags: SionFlags::empty(),
        tasks: vec![TaskLocation {
            global_rank: 0,
            file: 0,
            ltask: 0,
            chunksize_req: 64,
            capacity: 64,
            usable: 64,
            chunks: vec![
                ChunkInfo {
                    block: 0,
                    offset: 0,
                    used: 64,
                },
                ChunkInfo {
                    block: 1,
                    offset: 64,
                    used: 0,
                },
            ],
            cum: vec![64, 64],
            stored_bytes: 64,
        }],
    };
    assert_eq!(loc.max_blocks(), 2, "trailing empty block must be visible");
}
