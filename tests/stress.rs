//! Stress tests: larger worlds and payloads than the unit suites use, to
//! shake out scaling assumptions (these still run in seconds on MemFs).

use simmpi::{ReduceOp, TaskWorld};
use sionlib::{sion, vfs};
use vfs::MemFs;

#[test]
fn sixty_four_tasks_multi_megabyte_roundtrip() {
    let fs = MemFs::with_block_size(64 * 1024);
    let ntasks = 64;
    let bytes_per_task = 1 << 20; // 1 MiB each, 64 MiB total
    TaskWorld::run(ntasks, |comm| {
        let fs = &fs;
        async move {
            let params = sion::SionParams::new(256 * 1024).with_nfiles(8);
            let payload: Vec<u8> = (0..bytes_per_task)
                .map(|i| ((i * 131 + comm.rank() * 17) % 251) as u8)
                .collect();
            let mut w = sion::paropen_write_co(fs, "big.sion", &params, &comm)
                .await
                .unwrap();
            for piece in payload.chunks(100_000) {
                w.write(piece).unwrap();
            }
            let stats = w.close_co().await.unwrap();
            assert_eq!(stats.user_bytes, bytes_per_task as u64);

            let mut r = sion::paropen_read_co(fs, "big.sion", &comm).await.unwrap();
            let mut back = vec![0u8; bytes_per_task];
            r.read_exact(&mut back).unwrap();
            assert_eq!(back, payload);
            r.close_co().await.unwrap();
        }
    });
    // 8 physical files, not 64.
    assert_eq!(vfs::Vfs::list(&fs, "big.sion").unwrap().len(), 8);
}

#[test]
fn many_collective_rounds_do_not_wedge() {
    // Hammers the collective slot reuse (the bug class behind an early
    // race: post-barrier slot clears clobbering the next collective).
    let out = TaskWorld::run(16, |comm| async move {
        let mut acc = 0u64;
        for round in 0..200u64 {
            match round % 5 {
                0 => {
                    acc ^= comm
                        .allreduce_u64(round + comm.rank() as u64, ReduceOp::Sum)
                        .await
                }
                1 => {
                    let got = comm.bcast_u64((comm.rank() == 3).then_some(round), 3).await;
                    acc = acc.wrapping_add(got);
                }
                2 => {
                    let gathered = comm.gather_u64(round, (round % 16) as usize).await;
                    if let Some(v) = gathered {
                        acc = acc.wrapping_add(v.iter().sum::<u64>());
                    }
                }
                3 => {
                    let parts = (comm.rank() == 0)
                        .then(|| (0..comm.size()).map(|i| vec![i as u8; 8]).collect());
                    let mine = comm.scatter(parts, 0).await;
                    acc = acc.wrapping_add(mine[0] as u64);
                }
                _ => {
                    // Inclusive prefix sum over the ranks.
                    let all = comm.allgather_u64(1).await;
                    acc = acc.wrapping_add(all[..=comm.rank()].iter().sum::<u64>());
                }
            }
        }
        acc
    });
    // Deterministic: every rank ran the same number of rounds; accumulators
    // differ per rank (scan, scatter) but rounds 0 and 1 are rank-uniform.
    assert_eq!(out.len(), 16);
}

#[test]
fn deep_block_chains_with_tiny_chunks() {
    // 1 KiB chunks, 256 KiB per task: 256 blocks per task.
    let fs = MemFs::with_block_size(1024);
    TaskWorld::run(4, |comm| {
        let fs = &fs;
        async move {
            let params = sion::SionParams::new(1024);
            let payload = vec![comm.rank() as u8 + 1; 256 * 1024];
            let mut w = sion::paropen_write_co(fs, "deep.sion", &params, &comm)
                .await
                .unwrap();
            w.write(&payload).unwrap();
            let stats = w.close_co().await.unwrap();
            assert_eq!(stats.blocks, 256);
        }
    });
    let mf = sion::Multifile::open(&fs, "deep.sion").unwrap();
    assert_eq!(mf.max_blocks(), 256);
    for rank in 0..4 {
        let data = mf.read_rank(rank).unwrap();
        assert_eq!(data.len(), 256 * 1024);
        assert!(data.iter().all(|&b| b == rank as u8 + 1));
    }
}

#[test]
fn repeated_open_close_cycles() {
    // The paper's motivation mentions files "periodically opened and
    // closed during the same run" — make sure nothing leaks or wedges.
    let fs = MemFs::with_block_size(4096);
    TaskWorld::run(8, |comm| {
        let fs = &fs;
        async move {
            for cycle in 0..20u8 {
                let params = sion::SionParams::new(4096);
                let name = format!("cycle.{:02}.sion", cycle % 3); // re-create some names
                let mut w = sion::paropen_write_co(fs, &name, &params, &comm)
                    .await
                    .unwrap();
                w.write(&[cycle; 100]).unwrap();
                w.close_co().await.unwrap();
                let mut r = sion::paropen_read_co(fs, &name, &comm).await.unwrap();
                let mut buf = [0u8; 100];
                r.read_exact(&mut buf).unwrap();
                assert_eq!(buf, [cycle; 100]);
                r.close_co().await.unwrap();
            }
        }
    });
}
