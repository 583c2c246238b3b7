//! Property tests: the write-behind buffer is invisible in the file.
//!
//! For random sequences of write sizes, a buffered writer and a
//! write-through writer must produce *byte-identical* physical files —
//! across plain/compressed and rescue on/off — and the result must read
//! back correctly through both the serial (`Multifile`) and parallel
//! (`SionParReader`) paths.
//!
//! The read side has the twin property: whether the backend lends its pages
//! or the reader has to fill a window of its own is invisible in the bytes
//! read, and shows in the copy counters exactly as documented.

use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use simmpi::TaskWorld;
use sion::{
    paropen_read_co, paropen_write_co, Alignment, Multifile, SerialWriter, SionParams,
    DEFAULT_READ_AHEAD,
};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use vfs::{Faults, LocalFs, MemFs, TapFs, Vfs};

/// Distinguishes the `LocalFs` roots of one test process's cases.
static DISK_CASE: AtomicUsize = AtomicUsize::new(0);

/// Deterministic payload for the `i`-th write of `rank`.
fn payload(rank: usize, i: usize, len: usize) -> Vec<u8> {
    (0..len)
        .map(|j| ((rank * 97 + i * 31 + j) % 251) as u8)
        .collect()
}

/// Every physical file of the multifile at `base`, as (name, bytes) pairs.
fn physical_bytes(fs: &MemFs, base: &str) -> Vec<(String, Vec<u8>)> {
    fs.list(base)
        .unwrap()
        .into_iter()
        .map(|name| {
            let f = fs.open(&name).unwrap();
            let mut buf = vec![0u8; f.len().unwrap() as usize];
            f.read_exact_at(&mut buf, 0).unwrap();
            (name, buf)
        })
        .collect()
}

/// Serially write `sizes`-shaped records for two ranks with the given
/// buffer capacity; returns the physical files.
fn serial_write(
    fs: &MemFs,
    sizes: &[usize],
    chunk: u64,
    compressed: bool,
    rescue: bool,
    write_buffer: u64,
) -> Vec<(String, Vec<u8>)> {
    let mut params = SionParams::new(0)
        .with_alignment(Alignment::Fixed(512))
        .with_write_buffer(write_buffer);
    params.compressed = compressed;
    params.rescue = rescue;
    let mut w = SerialWriter::create(fs, "mf.sion", &[chunk, chunk], &params).unwrap();
    for rank in 0..2 {
        w.select_rank(rank).unwrap();
        for (i, &len) in sizes.iter().enumerate() {
            w.write(&payload(rank, i, len)).unwrap();
        }
    }
    w.close().unwrap();
    physical_bytes(fs, "mf.sion")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Buffered and write-through serial writers emit identical physical
    /// files for every mode combination, and the buffered file reads back
    /// through the global serial view.
    #[test]
    fn buffered_serial_writes_are_byte_identical(
        sizes in prop::collection::vec(1usize..600, 1..25),
        chunk in 96u64..2048,
        write_buffer in 1u64..4096,
    ) {
        for compressed in [false, true] {
            for rescue in [false, true] {
                let fs_buf = MemFs::with_block_size(4096);
                let fs_thru = MemFs::with_block_size(4096);
                let buffered =
                    serial_write(&fs_buf, &sizes, chunk, compressed, rescue, write_buffer);
                let through = serial_write(&fs_thru, &sizes, chunk, compressed, rescue, 0);
                prop_assert_eq!(
                    &buffered, &through,
                    "mode compressed={} rescue={} diverged", compressed, rescue
                );

                // The buffered output must be a valid multifile whose
                // logical streams match what was written.
                let mf = Multifile::open(&fs_buf, "mf.sion").unwrap();
                for rank in 0..2 {
                    let logical = mf.read_rank(rank).unwrap();
                    let expect: Vec<u8> = sizes
                        .iter()
                        .enumerate()
                        .flat_map(|(i, &len)| payload(rank, i, len))
                        .collect();
                    prop_assert_eq!(&logical, &expect, "rank {} logical mismatch", rank);
                }
            }
        }
    }

    /// Same property through the collective path: parallel writers with
    /// per-task buffering produce the same physical files as write-through
    /// ones, and `SionParReader` recovers every task's stream.
    #[test]
    fn buffered_parallel_writes_are_byte_identical(
        sizes in prop::collection::vec(1usize..400, 1..15),
        rescue in any::<bool>(),
        write_buffer in 1u64..2048,
    ) {
        let ntasks = 3;
        let run = |buffer: u64| {
            let fs = MemFs::with_block_size(1024);
            let mut params = SionParams::new(1024).with_nfiles(2).with_write_buffer(buffer);
            params.rescue = rescue;
            TaskWorld::run(ntasks, |comm| {
let fs = &fs;
let params = &params;
let sizes = &sizes;
async move {
                let mut w = paropen_write_co(fs, "p.sion", params, &comm).await.unwrap();
                for (i, &len) in sizes.iter().enumerate() {
                    w.write(&payload(comm.rank(), i, len)).unwrap();
                }
                w.close_co().await.unwrap();
            }
});
            fs
        };
        let fs_buf = run(write_buffer);
        let fs_thru = run(0);
        prop_assert_eq!(
            physical_bytes(&fs_buf, "p.sion"),
            physical_bytes(&fs_thru, "p.sion")
        );

        // Read the buffered multifile back collectively.
        let expect_of = |rank: usize| -> Vec<u8> {
            sizes.iter().enumerate().flat_map(|(i, &len)| payload(rank, i, len)).collect()
        };
        TaskWorld::run(ntasks, |comm| {
let fs_buf = &fs_buf;
async move {
            let mut r = paropen_read_co(fs_buf, "p.sion", &comm).await.unwrap();
            let mut back = Vec::new();
            let mut buf = [0u8; 97];
            loop {
                let n = r.read(&mut buf).unwrap();
                if n == 0 {
                    break;
                }
                back.extend_from_slice(&buf[..n]);
            }
            assert_eq!(back, expect_of(comm.rank()), "rank {}", comm.rank());
            r.close_co().await.unwrap();
        }
});
    }

    /// Explicit flushes at arbitrary points must not change the final
    /// file either (flush only forces durability, never layout).
    #[test]
    fn interleaved_flushes_do_not_change_the_file(
        sizes in prop::collection::vec(1usize..300, 1..15),
        flush_every in 1usize..5,
        write_buffer in 1u64..2048,
    ) {
        // Flushes interact with the codec in compressed mode (they cut
        // codec blocks), so this property is about the plain stream.
        let run = |buffer: u64, flush: bool| {
            let fs = MemFs::with_block_size(4096);
            let mut params = SionParams::new(0).with_write_buffer(buffer);
            params.rescue = true;
            let mut w = SerialWriter::create(&fs, "f.sion", &[512], &params).unwrap();
            for (i, &len) in sizes.iter().enumerate() {
                w.write(&payload(0, i, len)).unwrap();
                if flush && i % flush_every == 0 {
                    w.flush().unwrap();
                }
            }
            w.close().unwrap();
            physical_bytes(&fs, "f.sion")
        };
        let flushed = run(write_buffer, true);
        let unflushed = run(write_buffer, false);
        let through = run(0, false);
        prop_assert_eq!(&flushed, &unflushed);
        prop_assert_eq!(&flushed, &through);
    }

    /// One multifile read through a backend that lends its pages (`MemFs`),
    /// through one that lends nothing although its bytes are the same (a
    /// `TapFs` whose `Faults` tap might inject, so it serves no lease) and
    /// from disk (`LocalFs`): `read` in random sizes up to twice the
    /// window, then `scan_remaining` from wherever that left the cursor.
    #[test]
    fn lending_and_leaseless_backends_read_the_same_bytes(
        total in 1usize..150_000,
        chunk in 100u64..1500,
        big_reads in any::<bool>(),
        seed in any::<u64>(),
    ) {
        const FS_BLOCK: u64 = 4096;
        let case = DISK_CASE.fetch_add(1, Ordering::Relaxed);
        let root = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"))
            .join(format!("read-equivalence-{}-{case}", std::process::id()));
        for compressed in [false, true] {
            // Sieving: two unaligned chunks per layout block, several layout
            // blocks per FS block. Otherwise: FS-block-aligned chunks.
            for sieving in [false, true] {
                let mem = Arc::new(MemFs::with_block_size(FS_BLOCK));
                let mut params = SionParams::new(0);
                if sieving {
                    params = params.with_alignment(Alignment::None);
                }
                params.compressed = compressed;
                let c = if sieving { chunk } else { chunk * 8 };
                let mut w = SerialWriter::create(&*mem, "r.sion", &[c, c], &params).unwrap();
                for rank in 0..2 {
                    w.select_rank(rank).unwrap();
                    w.write(&payload(rank, 0, total)).unwrap();
                }
                w.close().unwrap();

                let tapped = TapFs::new(mem.clone(), vec![Faults::new()]);
                let disk = LocalFs::with_block_size(&root, FS_BLOCK);
                for (name, bytes) in physical_bytes(&mem, "r.sion") {
                    disk.create(&name).unwrap().write_all_at(&bytes, 0).unwrap();
                }
                let backends: [(&str, &dyn Vfs, bool); 3] =
                    [("MemFs", &*mem, true), ("TapFs", &tapped, false), ("LocalFs", &disk, false)];
                for (name, fs, lends) in backends {
                    let mode = format!("{name} compressed={compressed} sieving={sieving}");
                    let mf = Multifile::open(fs, "r.sion").unwrap();
                    for rank in 0..2 {
                        let t = mf.location(rank).unwrap();
                        let stored = t.stored_bytes;
                        let window =
                            if sieving { FS_BLOCK } else { t.usable.min(DEFAULT_READ_AHEAD) };
                        let max_read =
                            if big_reads { 2 * window as usize } else { window as usize - 1 };
                        // The same requests on every backend.
                        let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ rank as u64);
                        let stop = rng.gen_range(0..total + 1);
                        let mut r = mf.reader_at(&t);
                        let mut back = Vec::with_capacity(total);
                        let mut buf = vec![0u8; max_read];
                        while back.len() < stop {
                            let want = rng.gen_range(1..max_read + 1);
                            let n = r.read_some(&mut buf[..want]).unwrap();
                            prop_assert_eq!(n, want.min(total - back.len()), "{}", &mode);
                            back.extend_from_slice(&buf[..n]);
                        }
                        let returned = back.len() as u64;
                        let read = r.io_counters();
                        let scanned =
                            r.scan_remaining(&mut |run| back.extend_from_slice(run)).unwrap();
                        let all = r.io_counters();
                        prop_assert!(back == payload(rank, 0, total), "{}: other bytes", &mode);
                        prop_assert_eq!(returned + scanned, total as u64, "{}", &mode);
                        prop_assert!(r.feof(), "{}", &mode);
                        prop_assert_eq!(r.read_some(&mut buf).unwrap(), 0, "{}", &mode);

                        // What the decoder may keep: frames that straddle runs.
                        let kept = if compressed { stored } else { 0 };
                        if lends {
                            // Lent runs cost the copy to `read`'s caller and
                            // nothing else; a scan lends them on.
                            prop_assert!(
                                read.bytes_copied <= kept + returned,
                                "{} {:?}", &mode, read
                            );
                            if !compressed {
                                // Requests of a window or more go around it,
                                // straight into the caller's buffer.
                                let direct = big_reads && !sieving;
                                prop_assert!(
                                    direct || read.bytes_copied == returned,
                                    "{} {:?}", &mode, read
                                );
                                prop_assert_eq!(all.bytes_copied, read.bytes_copied, "{}", &mode);
                            }
                            prop_assert!(
                                all.bytes_copied <= kept + returned,
                                "{} {:?}", &mode, all
                            );
                            prop_assert_eq!(all.allocs, 0, "{}", &mode);
                        } else {
                            // Window fill plus caller copy, never more.
                            prop_assert!(
                                all.bytes_copied <= all.vfs_bytes + kept + returned,
                                "{} {:?}", &mode, all
                            );
                        }
                        if !sieving {
                            // No stored byte is fetched twice.
                            prop_assert_eq!(all.vfs_bytes, stored, "{} {:?}", &mode, all);
                        }
                    }
                }
            }
        }
        std::fs::remove_dir_all(&root).unwrap();
    }
}
