//! Threads sharing ONE `MemFs` file, the SIONlib multifile access pattern.
//!
//! `MemFs` locks a file per FS block, so writers of block-aligned regions
//! run side by side and writers sharing a block serialise on it. Either way
//! no byte may be lost or torn and `allocated` stays page-exact. `ci.sh`
//! runs this in `--release`: a debug build is too slow for the threads'
//! writes to overlap much.

use std::sync::mpsc;
use std::sync::Barrier;
use std::thread;
use vfs::{IoSlice, MemFs, Vfs};

const BLOCK: u64 = 64 << 10;
const REGION: usize = 1 << 20;
const WRITERS: usize = 4;
const ROUNDS: usize = 4;

/// What region `r` of the file must hold.
fn region_bytes(r: usize) -> Vec<u8> {
    (0..REGION)
        .map(|i| (i.wrapping_mul(2_654_435_761) >> 7) as u8 ^ r as u8)
        .collect()
}

#[test]
fn block_aligned_regions_written_side_by_side() {
    let fs = MemFs::with_block_size(BLOCK);
    let file = fs.create("shared").unwrap();
    let start = Barrier::new(WRITERS + 1);
    let (finished, finished_rx) = mpsc::channel::<usize>();

    thread::scope(|s| {
        for w in 0..WRITERS {
            let (file, start, finished) = (&file, &start, finished.clone());
            s.spawn(move || {
                start.wait();
                for round in 0..ROUNDS {
                    let r = round * WRITERS + w;
                    let data = region_bytes(r);
                    let base = (r * REGION) as u64;
                    if w % 2 == 0 {
                        for (i, piece) in data.chunks(4096).enumerate() {
                            file.write_all_at(piece, base + (i * 4096) as u64).unwrap();
                        }
                    } else {
                        // 128 KiB per call = two FS blocks, as an iovec
                        // whose slices end off every page boundary.
                        for (i, piece) in data.chunks(128 << 10).enumerate() {
                            let (a, rest) = piece.split_at(1000);
                            let (b, c) = rest.split_at(70_000);
                            let iov = [IoSlice::new(a), IoSlice::new(b), IoSlice::new(c)];
                            file.write_vectored_at(&iov, base + (i * (128 << 10)) as u64)
                                .unwrap();
                        }
                    }
                    finished.send(r).unwrap();
                }
            });
        }
        drop(finished);

        // Meanwhile: lease and read every region as soon as its writer
        // reports it, while the others are still being written.
        let file = &file;
        let start = &start;
        s.spawn(move || {
            start.wait();
            for r in finished_rx {
                let want = region_bytes(r);
                let base = (r * REGION) as u64;
                let mut at = 0;
                while at < REGION {
                    let lease = file
                        .read_lease(base + at as u64, REGION - at)
                        .expect("written page");
                    assert!(
                        lease[..] == want[at..at + lease.len()],
                        "lease of region {r} at {at}"
                    );
                    at += lease.len();
                }
                let mut buf = vec![0u8; 100_000];
                for (i, piece) in want.chunks(100_000).enumerate() {
                    file.read_exact_at(&mut buf[..piece.len()], base + (i * 100_000) as u64)
                        .unwrap();
                    assert!(
                        buf[..piece.len()] == *piece,
                        "read of region {r}, piece {i}"
                    );
                }
            }
        });
    });

    let total = WRITERS * ROUNDS * REGION;
    let st = fs.stats("shared").unwrap();
    assert_eq!((st.len, st.allocated), (total as u64, total as u64));
    let mut image = vec![0u8; total];
    file.read_exact_at(&mut image, 0).unwrap();
    for (r, got) in image.chunks(REGION).enumerate() {
        assert!(
            got == region_bytes(r),
            "region {r} differs after all writers finished"
        );
    }
}

/// The misaligned case `BlockGuard` exists to flag: two tasks own the two
/// halves of every FS block, split in the middle of a page. Slower is fine;
/// a lost update on the shared page or block is not.
#[test]
fn two_writers_sharing_every_block_lose_nothing() {
    const BLOCKS: usize = 64;
    const SPLIT: usize = (BLOCK as usize) / 2 + 100;
    let fs = MemFs::with_block_size(BLOCK);
    let file = fs.create("halves").unwrap();
    let start = Barrier::new(2);
    let byte = |who: usize, b: usize, i: usize| (who * 101 + b * 7 + i) as u8 | 1;

    thread::scope(|s| {
        for who in 0..2 {
            let (file, start) = (&file, &start);
            s.spawn(move || {
                let (from, to) = if who == 0 {
                    (0, SPLIT)
                } else {
                    (SPLIT, BLOCK as usize)
                };
                let mine: Vec<Vec<u8>> = (0..BLOCKS)
                    .map(|b| (from..to).map(|i| byte(who, b, i)).collect())
                    .collect();
                start.wait();
                for (b, half) in mine.iter().enumerate() {
                    for (k, piece) in half.chunks(1000).enumerate() {
                        let at = b * BLOCK as usize + from + k * 1000;
                        file.write_all_at(piece, at as u64).unwrap();
                    }
                }
            });
        }
    });

    let total = BLOCKS * BLOCK as usize;
    let st = fs.stats("halves").unwrap();
    assert_eq!((st.len, st.allocated), (total as u64, total as u64));
    let mut image = vec![0u8; total];
    file.read_exact_at(&mut image, 0).unwrap();
    for (b, block) in image.chunks(BLOCK as usize).enumerate() {
        let want = |i| byte((i >= SPLIT) as usize, b, i);
        let torn = block
            .iter()
            .enumerate()
            .position(|(i, &got)| got != want(i));
        assert_eq!(torn, None, "block {b}");
    }
}
