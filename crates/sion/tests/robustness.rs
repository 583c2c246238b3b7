//! Robustness of the on-disk format parsers: corrupted, truncated, and
//! random inputs must produce errors, never panics or bogus successes.

use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use simmpi::{TaskWorld, World};
use sion::format::{Trailer, IDX_FIXED_LEN, MB1_FIXED_LEN, MB2_FIXED_LEN};
use sion::{paropen_read, paropen_read_co, paropen_write, Alignment, Multifile, SionParams};
use vfs::{MemFs, Vfs};

fn valid_multifile(fs: &MemFs, rescue: bool) {
    World::run(4, |comm| {
        let mut params = SionParams::new(1024).with_nfiles(2);
        params.rescue = rescue;
        let mut w = paropen_write(fs, "v.sion", &params, comm).unwrap();
        w.write(&vec![comm.rank() as u8 + 1; 3000]).unwrap();
        w.close().unwrap();
    });
}

fn file_bytes(fs: &MemFs, path: &str) -> Vec<u8> {
    let f = fs.open(path).unwrap();
    let mut buf = vec![0u8; f.len().unwrap() as usize];
    f.read_exact_at(&mut buf, 0).unwrap();
    buf
}

fn write_file(fs: &MemFs, path: &str, bytes: &[u8]) {
    let f = fs.create(path).unwrap();
    f.write_all_at(bytes, 0).unwrap();
}

#[test]
fn every_single_byte_truncation_errors_cleanly() {
    let fs = MemFs::with_block_size(512);
    valid_multifile(&fs, false);
    let original = file_bytes(&fs, "v.sion");
    // Truncation at a sample of points across the file (every point would
    // be slow; step through).
    for cut in (0..original.len()).step_by(97) {
        let fs2 = MemFs::with_block_size(512);
        write_file(&fs2, "v.sion", &original[..cut]);
        write_file(&fs2, "v.sion.000001", &file_bytes(&fs, "v.sion.000001"));
        // Must not panic; almost always errors. (A cut at the very end can
        // leave a valid file only if it removes nothing.)
        let _ = Multifile::open(&fs2, "v.sion");
    }
}

#[test]
fn header_bit_flips_never_panic() {
    let fs = MemFs::with_block_size(512);
    valid_multifile(&fs, false);
    let original = file_bytes(&fs, "v.sion");
    let other = file_bytes(&fs, "v.sion.000001");
    // Flip every bit of the first 128 bytes (metablock 1 region) and a
    // sample through the rest; open + full read attempt must be panic-free.
    let mut points: Vec<usize> = (0..128.min(original.len())).collect();
    points.extend((128..original.len()).step_by(211));
    for at in points {
        for bit in [0u8, 3, 7] {
            let mut corrupted = original.clone();
            corrupted[at] ^= 1 << bit;
            let fs2 = MemFs::with_block_size(512);
            write_file(&fs2, "v.sion", &corrupted);
            write_file(&fs2, "v.sion.000001", &other);
            if let Ok(mf) = Multifile::open(&fs2, "v.sion") {
                for rank in 0..mf.ntasks().min(8) {
                    let _ = mf.read_rank(rank);
                }
            }
        }
    }
}

#[test]
fn trailer_corruption_is_detected() {
    let fs = MemFs::with_block_size(512);
    valid_multifile(&fs, false);
    let mut bytes = file_bytes(&fs, "v.sion");
    let len = bytes.len();
    // Point the trailer's metablock-2 offset somewhere bogus.
    bytes[len - 24..len - 16].copy_from_slice(&(u64::MAX / 2).to_le_bytes());
    let fs2 = MemFs::with_block_size(512);
    write_file(&fs2, "v.sion", &bytes);
    write_file(&fs2, "v.sion.000001", &file_bytes(&fs, "v.sion.000001"));
    assert!(Multifile::open(&fs2, "v.sion").is_err());
}

#[test]
fn mismatched_physical_files_rejected() {
    // File 0 of one multifile with file 1 of a *different* shape must not
    // silently combine.
    let fs_a = MemFs::with_block_size(512);
    valid_multifile(&fs_a, false);
    let fs_b = MemFs::with_block_size(512);
    World::run(6, |comm| {
        let params = SionParams::new(2048).with_nfiles(2);
        let mut w = paropen_write(&fs_b, "v.sion", &params, comm).unwrap();
        w.write(b"other shape").unwrap();
        w.close().unwrap();
    });
    let fs2 = MemFs::with_block_size(512);
    write_file(&fs2, "v.sion", &file_bytes(&fs_a, "v.sion"));
    write_file(&fs2, "v.sion.000001", &file_bytes(&fs_b, "v.sion.000001"));
    assert!(Multifile::open(&fs2, "v.sion").is_err());
}

#[test]
fn random_garbage_of_many_sizes_errors() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(0xFEED);
    for len in [0usize, 1, 7, 59, 60, 61, 500, 5000] {
        let bytes: Vec<u8> = (0..len).map(|_| rng.gen()).collect();
        let fs = MemFs::with_block_size(512);
        write_file(&fs, "junk", &bytes);
        assert!(Multifile::open(&fs, "junk").is_err(), "len {len} accepted?!");
    }
}

#[test]
fn repair_on_garbage_never_panics() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(0xBAD);
    for len in [100usize, 1000, 4096] {
        let bytes: Vec<u8> = (0..len).map(|_| rng.gen()).collect();
        let fs = MemFs::with_block_size(512);
        write_file(&fs, "junk", &bytes);
        assert!(sion::rescue::repair(&fs, "junk", false).is_err());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Arbitrary byte soup prefixed with the right magic still fails
    /// structural validation rather than being accepted or panicking.
    #[test]
    fn magic_prefixed_garbage_rejected(body in prop::collection::vec(any::<u8>(), 0..2000)) {
        let mut bytes = b"RSIONv1\0".to_vec();
        bytes.extend_from_slice(&body);
        let fs = MemFs::with_block_size(512);
        write_file(&fs, "g", &bytes);
        prop_assert!(Multifile::open(&fs, "g").is_err());
    }

    /// Random corruption of a valid multifile: open/read never panics, and
    /// when it succeeds the data lengths stay within the advertised sizes.
    #[test]
    fn random_corruption_survivable(
        seed in any::<u64>(),
        nflips in 1usize..20,
    ) {
        let fs = MemFs::with_block_size(512);
        valid_multifile(&fs, false);
        let mut bytes = file_bytes(&fs, "v.sion");
        let other = file_bytes(&fs, "v.sion.000001");
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        for _ in 0..nflips {
            let at = rng.gen_range(0..bytes.len());
            bytes[at] ^= 1 << rng.gen_range(0..8);
        }
        let fs2 = MemFs::with_block_size(512);
        write_file(&fs2, "v.sion", &bytes);
        write_file(&fs2, "v.sion.000001", &other);
        if let Ok(mf) = Multifile::open(&fs2, "v.sion") {
            for rank in 0..mf.ntasks().min(8) {
                if let Ok(data) = mf.read_rank(rank) {
                    prop_assert!(data.len() <= 1 << 20, "absurd read length");
                }
            }
        }
    }
}

/// One flipped stored byte of a compressed chunk fails the frame's token
/// or checksum check. The failing `read` must not be the only one that
/// notices: the half-decoded frame must not come back from the next call.
/// Nor may a stream that stops inside a frame pass for one that ended: a
/// flipped bit that grows a frame's `stored_len` past the stored data, or a
/// last chunk cut short (what a repaired crash leaves), is an error too.
#[test]
fn corrupt_compressed_chunk_never_serves_unverified_bytes() {
    let fs = MemFs::with_block_size(512);
    let payload: Vec<u8> = (0..60_000u32).flat_map(|i| (i / 7 % 500).to_le_bytes()).collect();
    World::run(2, |comm| {
        let params = SionParams::new(2048).with_compression();
        let mut w = paropen_write(&fs, "c.sion", &params, comm).unwrap();
        w.write(&payload).unwrap();
        w.close().unwrap();
    });
    let original = file_bytes(&fs, "c.sion");
    let loc = Multifile::open(&fs, "c.sion").unwrap().location(1).unwrap();
    let chunks: Vec<_> = loc.chunks.iter().filter(|c| c.used > 0).collect();
    assert!(chunks.len() >= 3, "the stream spans chunks: {chunks:?}");
    let (first, last) = (chunks[0], chunks[chunks.len() - 1]);

    // Rank 0 reads back whole; rank 1 serves a verified prefix, then fails
    // for good.
    let check = |bytes: &[u8], what: &str| {
        let fs2 = MemFs::with_block_size(512);
        write_file(&fs2, "c.sion", bytes);
        let mf = Multifile::open(&fs2, "c.sion").unwrap();
        assert_eq!(mf.read_rank(0).unwrap(), payload, "rank 0 is untouched");
        assert!(mf.read_rank(1).is_err(), "{what}");
        let mut r = mf.rank_reader(1).unwrap();
        let mut buf = [0u8; 64];
        let mut good = 0;
        let err = loop {
            match r.read_some(&mut buf) {
                Ok(0) => panic!("{what}: corruption went unnoticed"),
                Ok(n) => {
                    assert_eq!(buf[..n], payload[good..good + n], "{what}");
                    good += n;
                }
                Err(e) => break e,
            }
        };
        for _ in 0..4 {
            match r.read_some(&mut buf) {
                Ok(0) | Err(_) => {}
                Ok(n) => panic!("{what}: {n} bytes served after {err}"),
            }
        }
        err
    };

    // Past the 13-byte frame header, in the first and in the last chunk
    // (after which no stored byte is left to trip over).
    for at in [first.offset + 40, first.offset + first.used - 1, last.offset, last.offset + last.used - 1] {
        let mut bytes = original.clone();
        bytes[at as usize] ^= 0x10;
        let err = check(&bytes, &format!("flip at {at}"));
        assert!(matches!(err, sion::SionError::Compression(_)), "flip at {at}: {err}");
    }

    let truncated = |err: sion::SionError| {
        matches!(err, sion::SionError::Compression(sion::SzipError::Truncated))
    };
    // Byte 7 of the first frame header: `stored_len` grows by 1 MiB, and
    // the decoder is still waiting for the frame when the data runs out.
    let mut bytes = original.clone();
    bytes[first.offset as usize + 7] ^= 0x10;
    assert!(truncated(check(&bytes, "stored_len grown")));

    // The usage table says the last chunk holds three bytes fewer. Without
    // its index the lazy fetch reads that table.
    let mut bytes = original.clone();
    let word = |at: usize| u64::from_le_bytes(original[at..at + 8].try_into().unwrap()) as usize;
    let trailer = original.len() - 40;
    let (mb2_off, idx_off) = (word(trailer), word(trailer + 16));
    let row = mb2_off + 24 + (last.block as usize * 2 + loc.ltask) * 8;
    assert_eq!(word(row) as u64, last.used);
    bytes[row..row + 8].copy_from_slice(&(last.used - 3).to_le_bytes());
    bytes[idx_off..idx_off + 8].copy_from_slice(b"XXXXXXXX");
    assert!(truncated(check(&bytes, "last chunk cut")));
}

/// What a collective read open of `base` by `ntasks` tasks tells each rank,
/// errors as text — on the thread runtime and on the task runtime, which
/// must tell the same story. Returning at all is half the point: a rank that
/// deserted a collective would hang the others (run under `SIMCHECK=1`).
fn par_open_verdicts(fs: &MemFs, base: &str, ntasks: usize) -> Vec<Result<(), String>> {
    let threads = World::run(ntasks, |comm| {
        paropen_read(fs, base, comm).map(drop).map_err(|e| e.to_string())
    });
    let tasks = TaskWorld::run(ntasks, |c| async move {
        paropen_read_co(fs, base, &c).await.map(drop).map_err(|e| e.to_string())
    });
    assert_eq!(threads, tasks, "the runtimes disagree");
    threads
}

/// The collective open must fail on every rank, and the rank that read the
/// metadata must say what the serial open says.
fn assert_refused_everywhere(verdicts: &[Result<(), String>], family: &str, what: &str) {
    assert!(verdicts.iter().all(Result::is_err), "{what}: some rank opened: {verdicts:?}");
    assert!(
        verdicts.iter().any(|v| v.as_ref().is_err_and(|e| e.contains(family))),
        "{what}: nobody said \"{family}\": {verdicts:?}"
    );
}

/// A usage word above its chunk's capacity sends a reader on into the next
/// task's chunk. The serial open has always refused the row; the collective
/// read open used to decode metablock 2 by itself, without that check, and
/// served rank 1 a hundred bytes ending in rank 2's data.
#[test]
fn par_open_refuses_usage_beyond_the_chunk() {
    let fs = MemFs::with_block_size(512);
    World::run(4, |comm| {
        let params = SionParams::new(64).with_alignment(Alignment::None);
        let mut w = paropen_write(&fs, "u.sion", &params, comm).unwrap();
        w.write(&[comm.rank() as u8 + 1; 40]).unwrap();
        w.close().unwrap();
    });
    assert!(par_open_verdicts(&fs, "u.sion", 4).iter().all(Result::is_ok));

    // Block 0 of local task 1, in metablock 2 (block-major) and in the
    // chunk index (task-major prefix sums; the file has one block).
    let mut bytes = file_bytes(&fs, "u.sion");
    let trailer = Trailer::read_from(fs.open("u.sion").unwrap().as_ref()).unwrap();
    let (idx_off, _) = trailer.index.expect("a v2 close writes the index");
    for at in [trailer.mb2_off + MB2_FIXED_LEN + 8, idx_off + IDX_FIXED_LEN + 8] {
        let at = at as usize;
        assert_eq!(bytes[at..at + 8], 40u64.to_le_bytes());
        bytes[at..at + 8].copy_from_slice(&100u64.to_le_bytes());
    }
    let fs2 = MemFs::with_block_size(512);
    write_file(&fs2, "u.sion", &bytes);

    let family = "claims more bytes than its chunk holds";
    let mf = Multifile::open(&fs2, "u.sion").unwrap();
    assert!(mf.location(1).is_err_and(|e| e.to_string().contains(family)));
    assert!(mf.locations().is_err_and(|e| e.to_string().contains(family)));
    assert_eq!(mf.read_rank(2).unwrap(), [3u8; 40], "the other rows are fine");
    assert_refused_everywhere(&par_open_verdicts(&fs2, "u.sion", 4), family, "usage 100 of 64");
}

/// File 1 of a two-file multifile names another task count, or another file
/// number, than file 0 expects: `Multifile::open` compares the files, the
/// collective discovery used to take file 1 at its word. A global rank
/// listed twice in file 1's rank table was caught on both sides all along —
/// the control that sharing the decoder kept the check.
#[test]
fn par_open_refuses_what_the_serial_open_refuses() {
    let fs = MemFs::with_block_size(512);
    valid_multifile(&fs, false);
    assert!(par_open_verdicts(&fs, "v.sion", 4).iter().all(Result::is_ok));
    let file0 = file_bytes(&fs, "v.sion");
    let file1 = file_bytes(&fs, "v.sion.000001");

    let shape = "physical file 1 disagrees with file 0 about the multifile shape";
    let rank_twice = "global rank 2 duplicated or out of range in file 1";
    // Replace `old` by `new` at `at` in file 1's metablock 1; both opens
    // must refuse with `family`.
    let check = |what: &str, at: usize, old: &[u8], new: &[u8], family: &str| {
        let mut patched = file1.clone();
        assert_eq!(&patched[at..at + old.len()], old, "{what}");
        patched[at..at + new.len()].copy_from_slice(new);
        let fs2 = MemFs::with_block_size(512);
        write_file(&fs2, "v.sion", &file0);
        write_file(&fs2, "v.sion.000001", &patched);
        let serial = Multifile::open(&fs2, "v.sion").map(drop).map_err(|e| e.to_string());
        assert!(serial.is_err_and(|e| e.contains(family)), "{what}");
        assert_refused_everywhere(&par_open_verdicts(&fs2, "v.sion", 4), family, what);
    };
    check("ntasks_global 4 -> 5", 28, &4u64.to_le_bytes(), &5u64.to_le_bytes(), shape);
    check("filenum 1 -> 0", 40, &1u32.to_le_bytes(), &0u32.to_le_bytes(), shape);
    let at = MB1_FIXED_LEN as usize + 8;
    check("ranks [2, 3] -> [2, 2]", at, &3u64.to_le_bytes(), &2u64.to_le_bytes(), rank_twice);
}
