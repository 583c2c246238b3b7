//! A reader can leave without hanging anyone: one task drops its
//! `SionParReader` without closing it and returns, while its peers read
//! their logical files to the end and close. The read close is local — a
//! reader wrote no metadata, so nobody waits for the one that left.
//!
//! Run on the work-stealing task executor and on the serial task executor
//! across `simcheck`'s seeded schedules, whose deadlock verdict is exact.

use simcheck::{schedules, seed_budget, CheckedTaskWorld};
use simmpi::{CoComm, TaskWorld};
use sion::{paropen_read_co, paropen_write_co, SionParams};
use vfs::MemFs;

const NTASKS: usize = 6;
const BASE: &str = "leave.sion";

fn payload(rank: usize) -> Vec<u8> {
    (0..700 + 90 * rank).map(|i| (i * 7 + rank) as u8).collect()
}

/// A two-file multifile holding every rank's payload.
fn written() -> MemFs {
    let fs = MemFs::with_block_size(512);
    TaskWorld::run(NTASKS, |comm| {
        let fs = &fs;
        async move {
            let params = SionParams::new(512).with_nfiles(2);
            let mut w = paropen_write_co(fs, BASE, &params, &comm).await.unwrap();
            w.write(&payload(comm.rank())).unwrap();
            w.close_co().await.unwrap();
        }
    });
    fs
}

/// What this rank read back; the deserter reads nothing and never closes.
async fn read_or_leave(fs: &MemFs, c: &CoComm, deserter: usize) -> Vec<u8> {
    let mut r = paropen_read_co(fs, BASE, c).await.unwrap();
    if c.rank() == deserter {
        drop(r);
        return Vec::new();
    }
    let mut back = vec![0u8; payload(c.rank()).len()];
    r.read_exact(&mut back).unwrap();
    assert!(r.feof(), "rank {}: bytes past its payload", c.rank());
    r.close_co().await.unwrap();
    back
}

fn check(got: &[Vec<u8>], deserter: usize, runtime: &str) {
    assert_eq!(got.len(), NTASKS, "{runtime}: a rank did not return");
    for (rank, back) in got.iter().enumerate() {
        let want = if rank == deserter {
            Vec::new()
        } else {
            payload(rank)
        };
        assert_eq!(*back, want, "{runtime}, deserter {deserter}: rank {rank}");
    }
}

#[test]
fn a_reader_leaves_without_closing_on_tasks() {
    let fs = written();
    for deserter in [0, 4] {
        let got = TaskWorld::run(NTASKS, |c| {
            let fs = &fs;
            async move { read_or_leave(fs, &c, deserter).await }
        });
        check(&got, deserter, "TaskWorld");
    }
}

#[test]
fn a_reader_leaves_without_closing_across_schedules() {
    let fs = written();
    for deserter in [0, 4] {
        for cfg in schedules(seed_budget().min(4), &[0, 2]) {
            let got = CheckedTaskWorld::run(NTASKS, cfg, |c| {
                let fs = &fs;
                async move { read_or_leave(fs, &c, deserter).await }
            })
            .unwrap_or_else(|fail| panic!("deserter {deserter} flagged ({cfg}):\n{fail}"));
            check(&got, deserter, "CheckedTaskWorld");
        }
    }
}
