//! Failure injection: storage errors during collective operations must
//! surface as clean errors on every task — never hangs, never partial
//! multifiles accepted as valid.

use simmpi::World;
use sion::{paropen_read, paropen_write, Multifile, SionParams};
use std::sync::Arc;
use vfs::{FaultKind, FaultRule, Faults, MemFs, TapFs};

/// A `MemFs` behind a fault tap, and the handle that arms it.
fn faulty(block_size: u64) -> (TapFs, Arc<Faults>) {
    let faults = Faults::new();
    (TapFs::new(Arc::new(MemFs::with_block_size(block_size)), vec![faults.clone()]), faults)
}

#[test]
fn master_create_failure_fails_every_task() {
    let (fs, faults) = faulty(1024);
    faults.inject(FaultRule { kind: FaultKind::Create, from: 0, count: u64::MAX });
    let results = World::run(6, |comm| {
        let params = SionParams::new(1024).with_nfiles(2);
        paropen_write(&fs, "f.sion", &params, comm).is_err()
    });
    assert!(results.iter().all(|&failed| failed), "every task must see the failure");
}

#[test]
fn one_of_two_masters_failing_fails_all() {
    // Only the second physical file's create fails: the tasks of the first
    // file group must fail too (the open is globally collective).
    let (fs, faults) = faulty(1024);
    faults.inject(FaultRule { kind: FaultKind::Create, from: 1, count: 1 });
    let results = World::run(6, |comm| {
        let params = SionParams::new(1024).with_nfiles(2);
        paropen_write(&fs, "g.sion", &params, comm).is_err()
    });
    // The open is all-or-nothing across file groups: every task fails.
    assert!(results.iter().all(|&failed| failed), "{results:?}");
}

#[test]
fn metadata_write_failure_fails_open() {
    let (fs, faults) = faulty(1024);
    // First write is metablock 1.
    faults.inject(FaultRule { kind: FaultKind::Write, from: 0, count: 1 });
    let results = World::run(4, |comm| {
        let params = SionParams::new(1024);
        paropen_write(&fs, "h.sion", &params, comm).is_err()
    });
    assert!(results.iter().all(|&failed| failed));
}

#[test]
fn open_failure_during_read_discovery_fails_everyone() {
    // Build a valid multifile, then make all opens fail.
    let (fs, faults) = faulty(1024);
    World::run(4, |comm| {
        let params = SionParams::new(1024);
        let mut w = paropen_write(&fs, "r.sion", &params, comm).unwrap();
        w.write(b"payload").unwrap();
        w.close().unwrap();
    });
    faults.inject(FaultRule { kind: FaultKind::Open, from: 0, count: u64::MAX });
    let results = World::run(4, |comm| paropen_read(&fs, "r.sion", comm).is_err());
    assert!(results.iter().all(|&failed| failed));
}

#[test]
fn data_write_failures_surface_to_the_caller() {
    let (fs, faults) = faulty(1024);
    let results = World::run(2, |comm| {
        let params = SionParams::new(1024);
        let mut w = paropen_write(&fs, "d.sion", &params, comm).unwrap();
        // Fail all writes from now on (metablock 1 was already written).
        if comm.rank() == 0 {
            faults.inject(FaultRule { kind: FaultKind::Write, from: 0, count: u64::MAX });
        }
        comm.barrier();
        let write_failed = w.write(&vec![9u8; 5000]).is_err();
        // Synchronize the error before the collective close, as an
        // application must (see mp2c::checkpoint::collective_check).
        let any_failed =
            comm.allreduce_u64(write_failed as u64, simmpi::ReduceOp::Max) == 1;
        (write_failed, any_failed)
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
    World::run(3, |comm| {
        let params = SionParams::new(1024);
        let mut w = paropen_write(&fs, "s.sion", &params, comm).unwrap();
        w.write(&vec![comm.rank() as u8; 2000]).unwrap();
        w.close().unwrap();
    });
    // Let the metadata reads through (open + mb1 + mb2 per file), then cut.
    let mf = Multifile::open(&fs, "s.sion").unwrap();
    faults.inject(FaultRule { kind: FaultKind::Read, from: 0, count: u64::MAX });
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
    World::run(2, |comm| {
        let params = SionParams::new(512).with_rescue().with_write_buffer(0);
        let Ok(mut w) = paropen_write(&fs, "q.sion", &params, comm) else { return };
        let _ = w.write(&vec![comm.rank() as u8 + 1; 400]);
        let _ = w.flush();
        comm.barrier();
        if comm.rank() == 0 {
            // Budget exhausted from here on: the very next write is cut.
            faults.set_quota(faults.bytes_written());
        }
        comm.barrier();
        let failed = w.write(&vec![9u8; 400]).is_err() || w.flush().is_err();
        assert!(failed, "writes past the quota must fail");
        // Job dies: no close.
    });
    faults.clear();
    let report = sion::rescue::repair(&fs, "q.sion", false).unwrap();
    assert!(report.is_clean(), "{:?}", report.problems);
    let mf = Multifile::open(&fs, "q.sion").unwrap();
    for rank in 0..2 {
        let got = mf.read_rank(rank).unwrap();
        let full = vec![rank as u8 + 1; 400];
        assert!(got.len() <= full.len() && got[..] == full[..got.len()],
            "rank {rank}: recovered bytes must be a prefix of the flushed payload");
    }
}

#[test]
fn transient_write_fault_is_survivable_by_retrying_flush() {
    // A transient EIO during flush must leave the writer retryable: the
    // write-behind buffer is kept, and a later flush lands the same bytes.
    let (fs, faults) = faulty(1024);
    World::run(1, |comm| {
        let params = SionParams::new(1024).with_rescue().with_write_buffer(4096);
        let mut w = paropen_write(&fs, "t.sion", &params, comm).unwrap();
        w.write(&vec![7u8; 600]).unwrap(); // buffered
        faults.inject(FaultRule { kind: FaultKind::Write, from: 0, count: u64::MAX });
        assert!(w.flush().is_err(), "flush must surface the storage error");
        faults.clear(); // the outage passes
        w.flush().unwrap();
        w.close().unwrap();
    });
    let mf = Multifile::open(&fs, "t.sion").unwrap();
    assert_eq!(mf.read_rank(0).unwrap(), vec![7u8; 600]);
}

#[test]
fn repair_with_failing_reads_errors_not_panics() {
    let (fs, faults) = faulty(512);
    World::run(2, |comm| {
        let params = SionParams::new(512).with_rescue();
        let mut w = paropen_write(&fs, "rr.sion", &params, comm).unwrap();
        w.write(&vec![5u8; 900]).unwrap();
        w.close().unwrap();
    });
    faults.inject(FaultRule { kind: FaultKind::Read, from: 2, count: u64::MAX });
    // Depending on where the reads die, repair errors or reports zero
    // recovery — it must not panic or hang.
    let _ = sion::rescue::repair(&fs, "rr.sion", true);
}
