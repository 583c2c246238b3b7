//! One task passes a different multifile shape to the collective write
//! open. The file groups form without an exchange — each task computes its
//! own place from `(mapping, nfiles)` — so a task that disagrees about
//! either would claim a place its peers do not expect it in. The agreement
//! round ahead of the splits must catch it: every task gets the collective
//! error, nobody hangs, nobody panics in `split_local`, nothing is created.
//!
//! Run on the thread driver, the work-stealing task executor, and the
//! serial task executor across `simcheck`'s seeded schedules.

use simcheck::{schedules, seed_budget, CheckedTaskWorld};
use simmpi::{drive_ready, CoComm, TaskWorld, World};
use sion::{paropen_write_co, Mapping, SionError, SionParams};
use vfs::{MemFs, Vfs};

const NTASKS: usize = 6;

#[derive(Debug, Clone, Copy, PartialEq)]
enum Shape {
    /// The deviant asks for 3 physical files, its peers for 2.
    Nfiles,
    /// The deviant deals ranks round-robin, its peers in blocks.
    Mapping,
    /// The deviant asks for more files than there are tasks: different
    /// from its peers *and* invalid on its own.
    TooManyFiles,
}

#[derive(Debug, PartialEq)]
enum Outcome {
    Opened,
    Mismatch,
    InvalidArg,
    Other(String),
}

/// Every `(shape, deviant rank)` case: rank 0's fingerprint is the
/// reference the others compare with, so it is tried as the deviant too.
fn cases() -> impl Iterator<Item = (Shape, usize)> {
    [Shape::Nfiles, Shape::Mapping, Shape::TooManyFiles]
        .into_iter()
        .flat_map(|shape| [0, 4].map(|deviant| (shape, deviant)))
}

async fn open_outcome(fs: &dyn Vfs, c: &dyn CoComm, shape: Shape, deviant: usize) -> Outcome {
    let agreed = SionParams::new(1024).with_nfiles(2);
    let params = match shape {
        _ if c.rank() != deviant => agreed,
        Shape::Nfiles => agreed.with_nfiles(3),
        Shape::Mapping => agreed.with_mapping(Mapping::RoundRobin),
        Shape::TooManyFiles => agreed.with_nfiles(NTASKS as u32 + 1),
    };
    match paropen_write_co(fs, "clash.sion", &params, c).await {
        Ok(w) => {
            let _ = w.close_co().await;
            Outcome::Opened
        }
        Err(SionError::CollectiveMismatch(why))
            if why.contains("different multifile parameters") =>
        {
            Outcome::Mismatch
        }
        Err(SionError::InvalidArg(_)) => Outcome::InvalidArg,
        Err(e) => Outcome::Other(e.to_string()),
    }
}

/// Every task reports the mismatch, except that a task whose own
/// parameters are invalid reports that instead; no file exists afterwards.
fn check(fs: &MemFs, outcomes: Vec<Outcome>, shape: Shape, deviant: usize, runtime: &str) {
    for (rank, got) in outcomes.iter().enumerate() {
        let want = if shape == Shape::TooManyFiles && rank == deviant {
            Outcome::InvalidArg
        } else {
            Outcome::Mismatch
        };
        assert_eq!(*got, want, "{runtime}, {shape:?} at rank {deviant}: rank {rank}");
    }
    assert!(fs.list("").unwrap().is_empty(), "{runtime}, {shape:?}: a rejected open created files");
}

#[test]
fn mismatched_shape_fails_collectively_on_threads() {
    for (shape, deviant) in cases() {
        let fs = MemFs::with_block_size(4096);
        let out =
            World::run(NTASKS, |c| drive_ready(open_outcome(&fs, c.co(), shape, deviant)));
        check(&fs, out, shape, deviant, "World");
    }
}

#[test]
fn mismatched_shape_fails_collectively_on_tasks() {
    for (shape, deviant) in cases() {
        let fs = MemFs::with_block_size(4096);
        let out = TaskWorld::run(NTASKS, |c| {
            let fs = &fs;
            async move { open_outcome(fs, &c, shape, deviant).await }
        });
        check(&fs, out, shape, deviant, "TaskWorld");
    }
}

#[test]
fn mismatched_shape_fails_collectively_across_schedules() {
    for (shape, deviant) in cases() {
        for cfg in schedules(seed_budget().min(4), &[0, 2]) {
            let fs = MemFs::with_block_size(4096);
            let out = CheckedTaskWorld::run(NTASKS, cfg, |c| {
                let fs = &fs;
                async move { open_outcome(fs, &c, shape, deviant).await }
            })
            .unwrap_or_else(|fail| panic!("{shape:?} at rank {deviant} flagged ({cfg}):\n{fail}"));
            check(&fs, out, shape, deviant, "CheckedTaskWorld");
        }
    }
}

/// All tasks agree on a shape that is invalid: each reports its own
/// validation error.
#[test]
fn agreed_invalid_shape_is_every_tasks_own_error() {
    let fs = MemFs::with_block_size(4096);
    let out = TaskWorld::run(NTASKS, |c| {
        let fs = &fs;
        async move {
            let params = SionParams::new(1024).with_nfiles(NTASKS as u32 + 1);
            matches!(
                paropen_write_co(fs, "bad.sion", &params, &c).await,
                Err(SionError::InvalidArg(_))
            )
        }
    });
    assert!(out.iter().all(|&invalid| invalid), "{out:?}");
}
