//! Unmutated workloads must pass the checker clean: the real SION parallel
//! open/write/close/read path and a crash-consistency-style workload, run
//! under [`CheckedWorld`] across a sweep of schedules, with the
//! block-contention sanitizer watching the filesystem.

use simcheck::{
    schedules, seed_budget, BlockGuard, CheckFailure, CheckedWorld, ScheduleCfg, TapFs,
};
use simmpi::Comm;
use sion::{paropen_read, paropen_write, IoMode, Multifile, SionParams};
use std::sync::Arc;
use vfs::{Faults, MemFs, Vfs};

/// Deterministic per-rank payload.
fn payload(rank: usize, len: usize) -> Vec<u8> {
    (0..len).map(|i| ((i * 31 + rank * 131 + 7) % 251) as u8).collect()
}

#[test]
fn parallel_roundtrip_clean_across_schedules() {
    let ntasks = 4;
    let len = 3_000;
    // FS-block-aligned params: the §3.2 invariant must hold, so the
    // block-contention sanitizer must stay silent.
    let params = SionParams::new(4096).with_nfiles(2);
    let guard = BlockGuard::new(4096);
    let fs = TapFs::new(Arc::new(MemFs::with_block_size(4096)), vec![guard.clone()]);
    let cfgs = schedules(seed_budget().min(8), &[0, 2]);
    let explored = CheckedWorld::explore(ntasks, cfgs, |comm| {
        let fs: &dyn Vfs = &fs;
        let data = payload(comm.rank(), len);
        let mut w = paropen_write(fs, "out/data.sion", &params, comm).unwrap();
        for piece in data.chunks(700 + comm.rank() * 13 + 1) {
            w.write(piece).unwrap();
        }
        let stats = w.close().unwrap();
        assert_eq!(stats.user_bytes, len as u64);

        let mut r = paropen_read(fs, "out/data.sion", comm).unwrap();
        let mut back = vec![0u8; len];
        r.read_exact(&mut back).unwrap();
        assert_eq!(back, data, "rank {} read-back mismatch", comm.rank());
        r.close().unwrap();
    })
    .unwrap_or_else(|fail| panic!("clean workload flagged:\n{fail}"));
    assert!(explored >= 2, "schedule sweep too small: {explored}");

    // No two tasks ever touched the same FS block (§3.2).
    guard.assert_exclusive();

    // The image is valid after all those interleavings.
    let mf = Multifile::open(&fs, "out/data.sion").unwrap();
    for rank in 0..ntasks {
        assert_eq!(mf.read_rank(rank).unwrap(), payload(rank, len), "rank {rank}");
    }
}

/// The aggregated write path: aggregators drain member shipments with
/// `try_recv` polls between their own writes, so under the scheduler the
/// polls see whatever the chosen interleaving has delivered so far. Every
/// schedule must still come out clean (no leaked shipment or ack, no
/// deadlock) and produce the same multifile.
#[test]
fn aggregated_roundtrip_clean_across_schedules() {
    let ntasks = 4;
    let len = 3_000;
    let params = SionParams::new(4096)
        .with_io_mode(IoMode::Aggregated { tasks_per_aggregator: 2 });
    let fs = MemFs::with_block_size(4096);
    let cfgs = schedules(seed_budget().min(8), &[0, 2]);
    let explored = CheckedWorld::explore(ntasks, cfgs, |comm| {
        let data = payload(comm.rank(), len);
        let mut w = paropen_write(&fs, "out/agg.sion", &params, comm).unwrap();
        for piece in data.chunks(700 + comm.rank() * 13 + 1) {
            w.write(piece).unwrap();
        }
        let stats = w.close().unwrap();
        assert_eq!(stats.user_bytes, len as u64);
    })
    .unwrap_or_else(|fail| panic!("clean aggregated workload flagged:\n{fail}"));
    assert!(explored >= 2, "schedule sweep too small: {explored}");

    let mf = Multifile::open(&fs, "out/agg.sion").unwrap();
    for rank in 0..ntasks {
        assert_eq!(mf.read_rank(rank).unwrap(), payload(rank, len), "rank {rank}");
    }
}

/// Crash-consistency-style workload (buffered rescue-enabled write, kill
/// switch armed mid-run, writers dropped without close — a crash never
/// closes): the checker must not produce false positives. Every error is
/// swallowed by the workload exactly like `sion`'s crash sweep does, so
/// there is no mismatch, no leak and no deadlock to report.
#[test]
fn crash_workload_clean_under_checker() {
    let ntasks = 4;
    let params = SionParams::new(256).with_nfiles(2).with_rescue().with_write_buffer(128);

    fn crashy_run(
        ntasks: usize,
        fs: &TapFs,
        params: &SionParams,
        cfg: ScheduleCfg,
    ) -> Result<Vec<()>, Box<CheckFailure>> {
        CheckedWorld::run(ntasks, cfg, |comm| {
            let Ok(mut w) = paropen_write(fs, "crash.sion", params, comm) else {
                return;
            };
            for piece in payload(comm.rank(), 700).chunks(100) {
                if w.write(piece).is_err() {
                    return;
                }
            }
            let _ = w.flush();
        })
    }

    // Probe run: learn the op count so the kill switch lands mid-write.
    let faulty = || {
        let faults = Faults::new();
        (TapFs::new(Arc::new(MemFs::with_block_size(256)), vec![faults.clone()]), faults)
    };
    let (probe, probe_faults) = faulty();
    let cfg = ScheduleCfg::Seeded { seed: 1, preemption_bound: 2 };
    crashy_run(ntasks, &probe, &params, cfg)
        .unwrap_or_else(|fail| panic!("probe run flagged:\n{fail}"));
    let total_ops = probe_faults.op_count();
    assert!(total_ops > 20, "workload too small: {total_ops} ops");

    // Crash at a mid-write point, across several schedules.
    for cfg in schedules(seed_budget().min(4), &[0, 2]) {
        let (fs, faults) = faulty();
        faults.crash_after_ops(total_ops / 2);
        crashy_run(ntasks, &fs, &params, cfg)
            .unwrap_or_else(|fail| panic!("crashed workload flagged ({cfg}):\n{fail}"));
        // The torn image must still be repairable, as in the crash sweep.
        faults.clear();
        let report = sion::rescue::repair(&fs, "crash.sion", false).unwrap();
        assert!(report.is_clean(), "repair not clean at {cfg}: {report:?}");
    }
}
