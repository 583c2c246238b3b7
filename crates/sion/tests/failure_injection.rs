//! Failure injection: storage errors during collective operations must
//! surface as clean errors on every task — never hangs, never partial
//! multifiles accepted as valid.

use simmpi::TaskWorld;
use sion::{
    paropen_read_co, paropen_write_co, physical_name, IoMode, Multifile, SionError, SionParams,
};
use std::io;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use vfs::{FaultKind, FaultRule, Faults, MemFs, Next, Op, OpKind, Tap, TapFs};

/// A `MemFs` behind a fault tap, and the handle that arms it.
fn faulty(block_size: u64) -> (TapFs, Arc<Faults>) {
    let faults = Faults::new();
    (
        TapFs::new(
            Arc::new(MemFs::with_block_size(block_size)),
            vec![faults.clone()],
        ),
        faults,
    )
}

#[test]
fn master_create_failure_fails_every_task() {
    let (fs, faults) = faulty(1024);
    faults.inject(FaultRule {
        kind: FaultKind::Create,
        from: 0,
        count: u64::MAX,
    });
    let results = TaskWorld::run(6, |comm| {
        let fs = &fs;
        async move {
            let params = SionParams::new(1024).with_nfiles(2);
            paropen_write_co(fs, "f.sion", &params, &comm)
                .await
                .is_err()
        }
    });
    assert!(
        results.iter().all(|&failed| failed),
        "every task must see the failure"
    );
}

#[test]
fn one_of_two_masters_failing_fails_all() {
    // Only the second physical file's create fails: the tasks of the first
    // file group must fail too (the open is globally collective).
    let (fs, faults) = faulty(1024);
    faults.inject(FaultRule {
        kind: FaultKind::Create,
        from: 1,
        count: 1,
    });
    let results = TaskWorld::run(6, |comm| {
        let fs = &fs;
        async move {
            let params = SionParams::new(1024).with_nfiles(2);
            paropen_write_co(fs, "g.sion", &params, &comm)
                .await
                .is_err()
        }
    });
    // The open is all-or-nothing across file groups: every task fails.
    assert!(results.iter().all(|&failed| failed), "{results:?}");
}

#[test]
fn metadata_write_failure_fails_open() {
    let (fs, faults) = faulty(1024);
    // First write is metablock 1.
    faults.inject(FaultRule {
        kind: FaultKind::Write,
        from: 0,
        count: 1,
    });
    let results = TaskWorld::run(4, |comm| {
        let fs = &fs;
        async move {
            let params = SionParams::new(1024);
            paropen_write_co(fs, "h.sion", &params, &comm)
                .await
                .is_err()
        }
    });
    assert!(results.iter().all(|&failed| failed));
}

#[test]
fn open_failure_during_read_discovery_fails_everyone() {
    // Build a valid multifile, then make all opens fail.
    let (fs, faults) = faulty(1024);
    TaskWorld::run(4, |comm| {
        let fs = &fs;
        async move {
            let params = SionParams::new(1024);
            let mut w = paropen_write_co(fs, "r.sion", &params, &comm)
                .await
                .unwrap();
            w.write(b"payload").unwrap();
            w.close_co().await.unwrap();
        }
    });
    faults.inject(FaultRule {
        kind: FaultKind::Open,
        from: 0,
        count: u64::MAX,
    });
    let results = TaskWorld::run(4, |comm| {
        let fs = &fs;
        async move { paropen_read_co(fs, "r.sion", &comm).await.is_err() }
    });
    assert!(results.iter().all(|&failed| failed));
}

#[test]
fn data_write_failures_surface_to_the_caller() {
    let (fs, faults) = faulty(1024);
    let results = TaskWorld::run(2, |comm| {
        let faults = &faults;
        let fs = &fs;
        async move {
            let params = SionParams::new(1024);
            let mut w = paropen_write_co(fs, "d.sion", &params, &comm)
                .await
                .unwrap();
            // Fail all writes from now on (metablock 1 was already written).
            if comm.rank() == 0 {
                faults.inject(FaultRule {
                    kind: FaultKind::Write,
                    from: 0,
                    count: u64::MAX,
                });
            }
            comm.barrier().await;
            let write_failed = w.write(&vec![9u8; 5000]).is_err();
            // Synchronize the error before the collective close, as an
            // application must (see mp2c::checkpoint::collective_check).
            let any_failed = comm
                .allreduce_u64(write_failed as u64, simmpi::ReduceOp::Max)
                .await
                == 1;
            (write_failed, any_failed)
        }
    });
    // All writes went through the shared fault counter, so both ranks fail;
    // the essential assertion is that the error reached the caller and the
    // world terminated (no hang).
    assert!(results.iter().all(|&(_, any)| any));
    assert!(results.iter().any(|&(failed, _)| failed));
}

#[test]
fn read_failures_surface_in_serial_view() {
    let (fs, faults) = faulty(1024);
    TaskWorld::run(3, |comm| {
        let fs = &fs;
        async move {
            let params = SionParams::new(1024);
            let mut w = paropen_write_co(fs, "s.sion", &params, &comm)
                .await
                .unwrap();
            w.write(&vec![comm.rank() as u8; 2000]).unwrap();
            w.close_co().await.unwrap();
        }
    });
    // Let the metadata reads through (open + mb1 + mb2 per file), then cut.
    let mf = Multifile::open(&fs, "s.sion").unwrap();
    faults.inject(FaultRule {
        kind: FaultKind::Read,
        from: 0,
        count: u64::MAX,
    });
    assert!(mf.read_rank(0).is_err(), "data reads must fail");
    faults.clear();
    assert_eq!(mf.read_rank(0).unwrap(), vec![0u8; 2000]);
}

#[test]
fn quota_kill_mid_write_is_recoverable_up_to_last_flush() {
    // The paper's "file quota violation" failure: the byte budget runs out
    // mid-write, the job dies, and repair brings back everything flushed
    // before the cut.
    let (fs, faults) = faulty(512);
    TaskWorld::run(2, |comm| {
        let faults = &faults;
        let fs = &fs;
        async move {
            let params = SionParams::new(512).with_rescue().with_write_buffer(0);
            let Ok(mut w) = paropen_write_co(fs, "q.sion", &params, &comm).await else {
                return;
            };
            let _ = w.write(&vec![comm.rank() as u8 + 1; 400]);
            let _ = w.flush();
            comm.barrier().await;
            if comm.rank() == 0 {
                // Budget exhausted from here on: the very next write is cut.
                faults.set_quota(faults.bytes_written());
            }
            comm.barrier().await;
            let failed = w.write(&vec![9u8; 400]).is_err() || w.flush().is_err();
            assert!(failed, "writes past the quota must fail");
            // Job dies: no close.
        }
    });
    faults.clear();
    let report = sion::rescue::repair(&fs, "q.sion", false).unwrap();
    assert!(report.is_clean(), "{:?}", report.problems);
    let mf = Multifile::open(&fs, "q.sion").unwrap();
    for rank in 0..2 {
        let got = mf.read_rank(rank).unwrap();
        let full = vec![rank as u8 + 1; 400];
        assert!(
            got.len() <= full.len() && got[..] == full[..got.len()],
            "rank {rank}: recovered bytes must be a prefix of the flushed payload"
        );
    }
}

#[test]
fn transient_write_fault_is_survivable_by_retrying_flush() {
    // A transient EIO during flush must leave the writer retryable: the
    // write-behind buffer is kept, and a later flush lands the same bytes.
    let (fs, faults) = faulty(1024);
    TaskWorld::run(1, |comm| {
        let faults = &faults;
        let fs = &fs;
        async move {
            let params = SionParams::new(1024).with_rescue().with_write_buffer(4096);
            let mut w = paropen_write_co(fs, "t.sion", &params, &comm)
                .await
                .unwrap();
            w.write(&vec![7u8; 600]).unwrap(); // buffered
            faults.inject(FaultRule {
                kind: FaultKind::Write,
                from: 0,
                count: u64::MAX,
            });
            assert!(w.flush().is_err(), "flush must surface the storage error");
            faults.clear(); // the outage passes
            w.flush().unwrap();
            w.close_co().await.unwrap();
        }
    });
    let mf = Multifile::open(&fs, "t.sion").unwrap();
    assert_eq!(mf.read_rank(0).unwrap(), vec![7u8; 600]);
}

#[test]
fn repair_with_failing_reads_errors_not_panics() {
    let (fs, faults) = faulty(512);
    TaskWorld::run(2, |comm| {
        let fs = &fs;
        async move {
            let params = SionParams::new(512).with_rescue();
            let mut w = paropen_write_co(fs, "rr.sion", &params, &comm)
                .await
                .unwrap();
            w.write(&vec![5u8; 900]).unwrap();
            w.close_co().await.unwrap();
        }
    });
    faults.inject(FaultRule {
        kind: FaultKind::Read,
        from: 2,
        count: u64::MAX,
    });
    // Depending on where the reads die, repair errors or reports zero
    // recovery — it must not panic or hang.
    let _ = sion::rescue::repair(&fs, "rr.sion", true);
}

#[test]
fn a_failed_apply_shows_at_the_members_next_ship_and_at_close() {
    // One neighborhood of two: rank 0 aggregates, rank 1 ships. The file
    // fails every write once the first frame is in rank 0's mailbox, so
    // applying it fails and its ack carries the failure back.
    let (fs, faults) = faulty(4096);
    let params = SionParams::new(4096).with_io_mode(IoMode::Aggregated {
        tasks_per_aggregator: 2,
    });
    let results = TaskWorld::run(2, |comm| {
        let faults = &faults;
        let fs = &fs;
        let params = &params;
        async move {
            let mut w = paropen_write_co(fs, "apply.sion", params, &comm)
                .await
                .unwrap();
            if comm.rank() == 1 {
                w.write(&[1u8; 100]).unwrap();
                w.flush().unwrap();
            }
            comm.barrier().await;
            if comm.rank() == 0 {
                faults.inject(FaultRule {
                    kind: FaultKind::Write,
                    from: 0,
                    count: u64::MAX,
                });
                // Nothing of its own to write: this flush only applies the
                // member's frame, which fails.
                w.flush().unwrap();
            }
            comm.barrier().await;
            let mut failed = Vec::new();
            if comm.rank() == 1 {
                // The failing ack has arrived, but writes that ship nothing
                // do not poll for it; the next ship collects it, and from then
                // on every op fails.
                for _ in 0..2 {
                    failed.push(w.write(&[2u8; 100]).is_err());
                }
                failed.push(w.flush().is_err());
                failed.push(w.write(&[3u8; 100]).is_err());
            }
            failed.push(w.close_co().await.is_err());
            failed
        }
    });
    assert_eq!(
        results,
        vec![vec![true], vec![false, false, true, true, true]]
    );
}

/// Refuses every write to one path once armed. Armed after the data is
/// flushed, the one write it refuses is the close's metablock 2.
struct RefuseWritesTo {
    path: String,
    armed: AtomicBool,
}

impl Tap for RefuseWritesTo {
    fn around(&self, op: &Op<'_>, next: Next<'_>) -> io::Result<u64> {
        if op.kind == OpKind::Write && op.path == self.path && self.armed.load(Ordering::SeqCst) {
            return Err(io::Error::other("metablock 2 refused"));
        }
        next(op.len)
    }

    fn injects(&self) -> bool {
        true
    }
}

/// A file system that refuses writes to file 1 of `base` once armed.
fn refusing_file_1(base: &str) -> (TapFs, Arc<RefuseWritesTo>) {
    let tap = Arc::new(RefuseWritesTo {
        path: physical_name(base, 1),
        armed: AtomicBool::new(false),
    });
    let fs = TapFs::new(Arc::new(MemFs::with_block_size(1024)), vec![tap.clone()]);
    (fs, tap)
}

/// Every task's close failed; only rank 2, file 1's master, saw the refused
/// write itself.
fn assert_one_verdict(errors: &[Option<SionError>], runtime: &str) {
    for (rank, e) in errors.iter().enumerate() {
        let e = e
            .as_ref()
            .unwrap_or_else(|| panic!("{runtime}: rank {rank} closed Ok"));
        assert_eq!(
            matches!(e, SionError::CollectiveMismatch(_)),
            rank != 2,
            "{runtime}: rank {rank}: {e}"
        );
    }
}

#[test]
fn a_failed_metablock_2_fails_the_close_on_every_task() {
    // File 0's master writes its metablock 2, file 1's master cannot. The
    // close is all-or-nothing: file 0's tasks fail too, and the multifile
    // does not open.
    let params = SionParams::new(1024).with_nfiles(2);
    let (fs, tap) = refusing_file_1("t.sion");
    let results = TaskWorld::run(4, |c| {
        let (fs, tap, params) = (&fs, &tap, &params);
        async move {
            let mut w = paropen_write_co(fs, "t.sion", params, &c).await.unwrap();
            w.write(&[c.rank() as u8; 100]).unwrap();
            w.flush().unwrap();
            c.barrier().await;
            tap.armed.store(true, Ordering::SeqCst);
            w.close_co().await.err()
        }
    });
    assert_one_verdict(&results, "task world");
    assert!(Multifile::open(&fs, "t.sion").is_err());
}
