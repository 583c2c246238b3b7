//! Unmutated workloads must pass the checker clean: the real SION parallel
//! open/write/close/read path, the aggregated ship/ack path and a
//! crash-consistency-style workload, run as rank tasks under
//! [`CheckedTaskWorld`] across a sweep of schedules, with the
//! block-contention sanitizer watching the filesystem.

use simcheck::{
    schedules, seed_budget, BlockGuard, CheckFailure, CheckedTaskWorld, ScheduleCfg, TapFs,
};
use simmpi::CoComm;
use sion::{paropen_read_co, paropen_write_co, IoMode, Multifile, SionParams};
use std::sync::Arc;
use vfs::{Faults, MemFs};

/// Deterministic per-rank payload.
fn payload(rank: usize, len: usize) -> Vec<u8> {
    (0..len)
        .map(|i| ((i * 31 + rank * 131 + 7) % 251) as u8)
        .collect()
}

/// Collective open, this rank's payload in uneven pieces, collective close.
async fn write_payload(fs: &TapFs, path: &str, params: &SionParams, c: &dyn CoComm, len: usize) {
    let mut w = paropen_write_co(fs, path, params, c).await.unwrap();
    for piece in payload(c.rank(), len).chunks(700 + c.rank() * 13 + 1) {
        w.write(piece).unwrap();
    }
    let stats = w.close_co().await.unwrap();
    assert_eq!(stats.user_bytes, len as u64);
}

/// The full SION parallel protocol across a schedule sweep (including
/// tight preemption bounds): zero findings, and after every schedule no
/// two tasks touched the same FS block (§3.2) and the image is valid.
#[test]
fn parallel_roundtrip_clean_across_schedules() {
    let ntasks = 4;
    let len = 3_000;
    // FS-block-aligned params: the §3.2 invariant must hold, so the
    // block-contention sanitizer must stay silent.
    let params = SionParams::new(4096).with_nfiles(2);
    let cfgs = schedules(seed_budget().min(8), &[0, 2]);
    for cfg in cfgs {
        let guard = BlockGuard::new(4096);
        let fs = TapFs::new(Arc::new(MemFs::with_block_size(4096)), vec![guard.clone()]);
        CheckedTaskWorld::run(ntasks, cfg, |c| {
            let fs = &fs;
            let params = &params;
            async move {
                write_payload(fs, "out/data.sion", params, &c, len).await;

                let mut r = paropen_read_co(fs, "out/data.sion", &c).await.unwrap();
                let mut back = vec![0u8; len];
                r.read_exact(&mut back).unwrap();
                assert_eq!(
                    back,
                    payload(c.rank(), len),
                    "rank {} read-back mismatch",
                    c.rank()
                );
                r.close_co().await.unwrap();
            }
        })
        .unwrap_or_else(|fail| panic!("clean workload flagged:\n{fail}"));
        guard.assert_exclusive();

        let mf = Multifile::open(&fs, "out/data.sion").unwrap();
        for rank in 0..ntasks {
            assert_eq!(
                mf.read_rank(rank).unwrap(),
                payload(rank, len),
                "rank {rank} at {cfg}"
            );
        }
    }
}

/// The aggregated write path: aggregators drain member shipments with
/// `try_recv` polls between their own writes, so the polls see whatever
/// the chosen interleaving has delivered so far. Every schedule must still
/// come out clean (no leaked shipment or ack, no deadlock), keep the
/// aggregators' replayed writes block-exclusive, and produce the same
/// multifile. Tap order as in `crash_consistency.rs`: the (unarmed) fault
/// tap outermost, the checker after it.
#[test]
fn aggregated_roundtrip_clean_across_schedules() {
    let ntasks = 4;
    let len = 3_000;
    let params = SionParams::new(4096).with_io_mode(IoMode::Aggregated {
        tasks_per_aggregator: 2,
    });
    let cfgs = schedules(seed_budget().min(8), &[0, 2]);
    for cfg in cfgs {
        let guard = BlockGuard::new(4096);
        let fs = TapFs::new(
            Arc::new(MemFs::with_block_size(4096)),
            vec![Faults::new(), guard.clone()],
        );
        CheckedTaskWorld::run(ntasks, cfg, |c| {
            let fs = &fs;
            let params = &params;
            async move { write_payload(fs, "out/agg.sion", params, &c, len).await }
        })
        .unwrap_or_else(|fail| panic!("clean aggregated workload flagged:\n{fail}"));
        guard.assert_exclusive();

        let mf = Multifile::open(&fs, "out/agg.sion").unwrap();
        for rank in 0..ntasks {
            assert_eq!(
                mf.read_rank(rank).unwrap(),
                payload(rank, len),
                "rank {rank} at {cfg}"
            );
        }
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
    let params = SionParams::new(256)
        .with_nfiles(2)
        .with_rescue()
        .with_write_buffer(128);

    fn crashy_run(
        ntasks: usize,
        fs: &TapFs,
        params: &SionParams,
        cfg: ScheduleCfg,
    ) -> Result<Vec<()>, Box<CheckFailure>> {
        CheckedTaskWorld::run(ntasks, cfg, |c| async move {
            let Ok(mut w) = paropen_write_co(fs, "crash.sion", params, &c).await else {
                return;
            };
            for piece in payload(c.rank(), 700).chunks(100) {
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
        (
            TapFs::new(Arc::new(MemFs::with_block_size(256)), vec![faults.clone()]),
            faults,
        )
    };
    let (probe, probe_faults) = faulty();
    let cfg = ScheduleCfg::Seeded {
        seed: 1,
        preemption_bound: 2,
    };
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
