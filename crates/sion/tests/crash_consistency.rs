//! Crash-consistency harness: for *every* crash point during a buffered
//! parallel rescue-enabled write, `rescue::repair` on the truncated/torn
//! image must yield a multifile in which every recovered chunk's bytes are
//! a prefix of what the task wrote, and `sion_tools::verify` must be clean
//! afterwards.
//!
//! The sweep is exhaustive, not sampled: a clean instrumented run against
//! an unarmed [`Faults`] tap measures the workload's total operation count,
//! then the whole workload is re-run once per possible crash point with the
//! kill switch armed there. A real crash never calls the collective
//! `close()` (the process is simply gone), so the crashed runs drop their
//! writers; crash points inside `close` are covered separately by the
//! hang-freedom test below and by `failure_injection.rs`.
//!
//! Why the prefix property holds (and what these tests pin down):
//! `TaskWriter::flush_pending` writes data strictly before patching the
//! rescue header's `used` field, and skips the patch when the data write
//! failed — so a header never claims bytes that are not on disk. Because
//! `used` only grows, even a *torn* 8-byte little-endian patch cannot
//! overstate: any mix of old high bytes and new low bytes is ≤ the new
//! value. The op-log test at the bottom asserts the ordering directly.
//!
//! The payloads are generated from [`SEED`] (override with the
//! `CRASH_SEED` environment variable to diversify CI runs); every failure
//! message includes the crash point and seed needed to reproduce it.

use simmpi::TaskWorld;
use sion::rescue::repair;
use sion::{paropen_write_co, IoMode, Multifile, SionParams};
use std::sync::Arc;
use vfs::{BlockGuard, FaultKind, FaultRule, Faults, MemFs, TapFs, Vfs};

/// The file system under every sweep: a 256-byte-block `MemFs` behind the
/// tap list `[faults, block_guard]`. The guard is listed after the fault
/// tap, so it is charged with what physically reached the file — of a torn
/// write, the persisted prefix — and every crash point also checks the
/// paper's other invariant, that no two tasks wrote one FS block.
struct CrashFs {
    fs: TapFs,
    faults: Arc<Faults>,
    guard: Arc<BlockGuard>,
}

fn crash_fs() -> CrashFs {
    let (faults, guard) = (Faults::new(), BlockGuard::new(256));
    let mem = Arc::new(MemFs::with_block_size(256));
    CrashFs {
        fs: TapFs::new(mem, vec![faults.clone(), guard.clone()]),
        faults,
        guard,
    }
}

/// Fixed default seed: CI runs are reproducible bit-for-bit.
const SEED: u64 = 0x510a_2009;

fn seed() -> u64 {
    std::env::var("CRASH_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(SEED)
}

/// Deterministic per-rank payload derived from the seed (splitmix64).
fn payload(seed: u64, rank: usize, len: usize) -> Vec<u8> {
    let mut x = seed ^ (rank as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    (0..len)
        .map(|_| {
            x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = x;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            (z ^ (z >> 31)) as u8
        })
        .collect()
}

const NTASKS: usize = 4;
const NFILES: u32 = 2;
const PAYLOAD_LEN: usize = 700;

fn params() -> SionParams {
    // Small chunks + small buffer → many flush points and several blocks
    // per task, so crash points land in every phase of the write path.
    SionParams::new(256)
        .with_nfiles(NFILES)
        .with_rescue()
        .with_write_buffer(128)
}

/// [`params`] in two-phase aggregated mode: with two tasks per file and a
/// two-task neighborhood target, each file group elects its first task as
/// the aggregator of the other — every physical data write in the sweep
/// goes through the shipment protocol.
fn agg_params() -> SionParams {
    params().with_io_mode(IoMode::Aggregated {
        tasks_per_aggregator: 2,
    })
}

/// The workload of the sweep: collective open, per-task piecewise writes,
/// one explicit flush, writers dropped (never closed — a crash does not
/// close). Every error is swallowed: under an armed kill switch each task
/// simply stops making progress, like a dying process.
fn crashy_workload_with(fs: &dyn Vfs, base: &str, seed: u64, params: &SionParams) {
    TaskWorld::run(NTASKS, |comm| async move {
        let Ok(mut w) = paropen_write_co(fs, base, params, &comm).await else {
            return;
        };
        for piece in payload(seed, comm.rank(), PAYLOAD_LEN).chunks(100) {
            if w.write(piece).is_err() {
                return;
            }
        }
        let _ = w.flush();
    });
}

fn crashy_workload(fs: &dyn Vfs, base: &str, seed: u64) {
    crashy_workload_with(fs, base, seed, &params());
}

/// What the recovered image must satisfy for one rank.
fn assert_rank_prefix(mf: &Multifile, rank: usize, seed: u64, ctx: &str) {
    let full = payload(seed, rank, PAYLOAD_LEN);
    let got = mf
        .read_rank(rank)
        .unwrap_or_else(|e| panic!("{ctx}: rank {rank} unreadable: {e}"));
    assert!(
        got.len() <= full.len() && got == full[..got.len()],
        "{ctx}: rank {rank} recovered {} bytes that are not a prefix of its payload",
        got.len()
    );
}

/// Run repair + full validation of the crashed image at one crash point.
/// Returns the number of fully validated ranks, or `None` when the image
/// was structurally unrecoverable (metablock 1 of some file never became
/// durable) — which repair must report, not panic over.
fn check_crash_point(cfs: &CrashFs, base: &str, seed: u64, ctx: &str) -> Option<usize> {
    cfs.faults.clear(); // recovery runs on the dead image without injection
    cfs.guard.assert_exclusive();
    let fs = &cfs.fs;
    let report = match repair(fs, base, false) {
        Ok(r) => r,
        Err(_) => return None, // e.g. metablock 1 never written
    };
    if !report.is_clean() || report.files_intact + report.files_repaired < NFILES {
        // Some file's skeleton was missing or torn; repair degraded
        // gracefully and said so. Nothing more to certify.
        return None;
    }
    let mf = Multifile::open(fs, base)
        .unwrap_or_else(|e| panic!("{ctx}: clean repair but open failed: {e}"));
    for rank in 0..NTASKS {
        assert_rank_prefix(&mf, rank, seed, ctx);
    }
    drop(mf);
    let vr = sion_tools::verify(fs, base)
        .unwrap_or_else(|e| panic!("{ctx}: verify errored after clean repair: {e}"));
    assert!(
        vr.is_clean(),
        "{ctx}: verify found problems after clean repair: {:?}",
        vr.problems
    );
    assert_eq!(vr.tasks_ok, NTASKS, "{ctx}");
    Some(vr.tasks_ok)
}

#[test]
fn every_crash_point_yields_a_repairable_prefix() {
    let seed = seed();
    // Clean instrumented run: learn the workload's op count.
    let probe = crash_fs();
    crashy_workload(&probe.fs, "probe.sion", seed);
    let total_ops = probe.faults.op_count();
    assert!(
        total_ops > 20,
        "workload too small to be a meaningful sweep: {total_ops} ops"
    );

    let mut recovered_points = 0u64;
    let mut unrecoverable_points = 0u64;
    for n in 0..=total_ops {
        let cfs = crash_fs();
        cfs.faults.crash_after_ops(n);
        crashy_workload(&cfs.fs, "crash.sion", seed);
        let ctx = format!("crash point {n}/{total_ops} (seed {seed:#x})");
        match check_crash_point(&cfs, "crash.sion", seed, &ctx) {
            Some(_) => recovered_points += 1,
            None => unrecoverable_points += 1,
        }
    }
    // Sanity on the sweep shape: only the first few ops (creates and
    // metablock-1 writes still in flight) may be unrecoverable, and the
    // vast majority of crash points must fully recover.
    assert!(
        recovered_points > unrecoverable_points,
        "sweep recovered {recovered_points}, unrecoverable {unrecoverable_points} (seed {seed:#x})"
    );
    // A crash after the last op is no crash at all: that point must
    // recover everything written (full payloads).
    let cfs = crash_fs();
    cfs.faults.crash_after_ops(total_ops);
    crashy_workload(&cfs.fs, "crash.sion", seed);
    cfs.faults.clear();
    let report = repair(&cfs.fs, "crash.sion", false).unwrap();
    assert!(report.is_clean());
    let mf = Multifile::open(&cfs.fs, "crash.sion").unwrap();
    for rank in 0..NTASKS {
        assert_eq!(
            mf.read_rank(rank).unwrap(),
            payload(seed, rank, PAYLOAD_LEN),
            "no-op crash point must recover the complete payload of rank {rank}"
        );
    }
}

#[test]
fn torn_final_writes_still_recover_a_prefix() {
    let seed = seed();
    let probe = crash_fs();
    crashy_workload(&probe.fs, "probe.sion", seed);
    let total_ops = probe.faults.op_count();

    // Sweep a subsample of crash points with several tear lengths: the op
    // at the switch persists only a prefix of its buffer. Tears land in
    // data writes, 32-byte rescue headers, the 8-byte used patches, and
    // metablock 1 alike.
    for n in (0..total_ops).step_by(3) {
        for keep in [1u64, 7, 17] {
            let cfs = crash_fs();
            cfs.faults.crash_torn_write(n, keep);
            crashy_workload(&cfs.fs, "torn.sion", seed);
            let ctx = format!("torn op {n}/{total_ops} keep {keep} (seed {seed:#x})");
            check_crash_point(&cfs, "torn.sion", seed, &ctx);
        }
    }
}

#[test]
fn quota_kill_recovers_a_prefix() {
    let seed = seed();
    // The paper's second failure mode: "file quota violation". Sweep the
    // byte budget from nothing to more than the workload writes.
    let probe = crash_fs();
    crashy_workload(&probe.fs, "probe.sion", seed);
    let total_bytes = probe.faults.bytes_written();
    assert!(total_bytes > 0);

    let mut recovered = 0u64;
    for quota in (0..=total_bytes + 64).step_by(97) {
        let cfs = crash_fs();
        cfs.faults.set_quota(quota);
        crashy_workload(&cfs.fs, "quota.sion", seed);
        let ctx = format!("quota {quota}/{total_bytes} (seed {seed:#x})");
        if check_crash_point(&cfs, "quota.sion", seed, &ctx).is_some() {
            recovered += 1;
        }
    }
    assert!(recovered > 0, "no quota point recovered (seed {seed:#x})");
}

#[test]
fn clobbered_rescue_header_costs_one_chunk_not_the_repair() {
    // A single corrupted rescue header must degrade into a per-chunk
    // problem report; the remaining chunks and files still repair.
    let seed = seed();
    let fs = MemFs::with_block_size(256);
    TaskWorld::run(NTASKS, |comm| {
        let fs = &fs;
        async move {
            let mut w = paropen_write_co(fs, "clob.sion", &params(), &comm)
                .await
                .unwrap();
            w.write(&payload(seed, comm.rank(), PAYLOAD_LEN)).unwrap();
            w.close_co().await.unwrap();
        }
    });
    // Clobber the rescue header of rank 0's first chunk with a *valid*
    // header of the wrong (rank, block) — the hardest case to reject.
    let mf = Multifile::open(&fs, "clob.sion").unwrap();
    let c0 = mf.location(0).unwrap().chunks[0].offset - sion::rescue::RESCUE_HEADER_LEN;
    drop(mf);
    let f = fs.open_rw("clob.sion").unwrap();
    let bogus = sion::rescue::RescueHeader {
        global_rank: 999,
        block: 42,
        used: 10,
    };
    f.write_all_at(&bogus.encode(), c0).unwrap();

    let report = repair(&fs, "clob.sion", true).unwrap();
    assert!(!report.is_clean(), "the mismatch must be reported");
    assert!(
        report.problems.iter().any(|p| p.contains("mismatch")),
        "{:?}",
        report.problems
    );
    assert_eq!(report.files_repaired, NFILES, "both files still repaired");

    // Everything except rank 0's first chunk is recovered; rank 0's
    // stream restarts losing only that chunk's bytes, all other ranks are
    // complete.
    let mf = Multifile::open(&fs, "clob.sion").unwrap();
    for rank in 1..NTASKS {
        assert_eq!(
            mf.read_rank(rank).unwrap(),
            payload(seed, rank, PAYLOAD_LEN)
        );
    }
}

#[test]
fn failed_flush_is_never_followed_by_a_header_patch() {
    // The ordering invariant behind the whole prefix property, asserted on
    // the op log: when the data write of a flush fails, the rescue-header
    // patch for those bytes must not happen; after the fault clears, a
    // retried flush completes both in order.
    let seed = seed();
    let cfs = crash_fs();
    TaskWorld::run(1, |comm| {
        let cfs = &cfs;
        async move {
            let p = SionParams::new(256).with_rescue().with_write_buffer(4096);
            let mut w = paropen_write_co(&cfs.fs, "ord.sion", &p, &comm)
                .await
                .unwrap();
            w.write(&payload(seed, 0, 100)).unwrap(); // buffered, not yet on disk
            cfs.faults.take_log(); // look only at ops from here on
                                   // Occurrence counters are global (metablock 1 and the rescue
                                   // header already consumed write slots), so fail every write from
                                   // now on; clear() below ends the outage.
            cfs.faults.inject(FaultRule {
                kind: FaultKind::Write,
                from: 0,
                count: u64::MAX,
            });
            assert!(
                w.flush().is_err(),
                "injected data-write failure must surface"
            );

            let log = cfs.faults.take_log();
            let failed_write = log
                .iter()
                .find(|r| r.kind == FaultKind::Write && !r.ok)
                .expect("the failed data write is in the log");
            assert!(
                !log.iter().any(|r| {
                    r.seq > failed_write.seq && r.kind == FaultKind::Write && r.ok && r.len == 8
                }),
                "no 8-byte used-field patch may follow the failed data flush: {log:?}"
            );

            // Transient-EIO retry semantics: the buffer was kept, a second
            // flush persists data first, then the patch.
            cfs.faults.clear();
            w.flush().unwrap();
            let log = cfs.faults.take_log();
            let data = log
                .iter()
                .find(|r| r.kind == FaultKind::Write && r.ok && r.len == 100)
                .expect("retried data write");
            let patch = log
                .iter()
                .find(|r| r.kind == FaultKind::Write && r.ok && r.len == 8)
                .expect("rescue patch after retry");
            assert!(
                data.seq < patch.seq,
                "data must be durable before the header claims it: {log:?}"
            );
            w.close_co().await.unwrap();
        }
    });
    cfs.faults.clear();
    let mf = Multifile::open(&cfs.fs, "ord.sion").unwrap();
    assert_eq!(mf.read_rank(0).unwrap(), payload(seed, 0, 100));
}

#[test]
fn every_crash_point_on_the_aggregated_path_yields_a_repairable_prefix() {
    // The same exhaustive sweep over the two-phase aggregated transport:
    // every physical byte now reaches the file through an aggregator
    // replaying shipped frames, including the rescue headers and `used`
    // patches it maintains on its members' behalf. A crash at any point —
    // which kills aggregators mid-replay — must still leave every rank's
    // recovered bytes a prefix of what that rank (logically) wrote.
    // Members whose shipments were not yet applied simply lose those
    // bytes; they must never gain corrupt ones.
    let seed = seed();
    let probe = crash_fs();
    crashy_workload_with(&probe.fs, "probe.sion", seed, &agg_params());
    let total_ops = probe.faults.op_count();
    assert!(
        total_ops > 20,
        "workload too small to be a meaningful sweep: {total_ops} ops"
    );

    let mut recovered_points = 0u64;
    let mut unrecoverable_points = 0u64;
    for n in 0..=total_ops {
        let cfs = crash_fs();
        cfs.faults.crash_after_ops(n);
        crashy_workload_with(&cfs.fs, "crash.sion", seed, &agg_params());
        let ctx = format!("aggregated crash point {n}/{total_ops} (seed {seed:#x})");
        match check_crash_point(&cfs, "crash.sion", seed, &ctx) {
            Some(_) => recovered_points += 1,
            None => unrecoverable_points += 1,
        }
    }
    assert!(
        recovered_points > unrecoverable_points,
        "sweep recovered {recovered_points}, unrecoverable {unrecoverable_points} (seed {seed:#x})"
    );
    // A kill switch far beyond any reachable op count is no crash at all.
    // (Unlike the independent sweep, the aggregated op count is not a
    // stable constant: an aggregator applies delivered frames only at its
    // drain points — after one of its own ops that called the file, and
    // on its flush — so how many of its members' frames it has applied by
    // the time the writers are dropped depends on frame arrival timing.
    // The prefix property is interleaving-safe, the exact count is not.) The aggregators (ranks 0 and 2) flushed their
    // own streams directly, so their full payloads recover. The members
    // shipped their final flush but were dropped without the collective
    // close — the aggregator never drained those last frames, which is
    // exactly the crash model: unapplied shipments are lost, never
    // corrupted.
    let cfs = crash_fs();
    cfs.faults.crash_after_ops(total_ops * 4 + 1000);
    crashy_workload_with(&cfs.fs, "crash.sion", seed, &agg_params());
    cfs.faults.clear();
    let report = repair(&cfs.fs, "crash.sion", false).unwrap();
    assert!(report.is_clean());
    let mf = Multifile::open(&cfs.fs, "crash.sion").unwrap();
    for rank in [0, 2] {
        assert_eq!(
            mf.read_rank(rank).unwrap(),
            payload(seed, rank, PAYLOAD_LEN),
            "aggregator rank {rank} flushed directly; its payload must fully recover"
        );
    }
    for rank in [1, 3] {
        assert_rank_prefix(&mf, rank, seed, "uncrashed member");
    }
}

#[test]
fn torn_aggregated_writes_still_recover_a_prefix() {
    // Torn-write sweep over the aggregated transport: the dying op —
    // issued by an aggregator for one of its members — persists only a
    // prefix of its buffer.
    let seed = seed();
    let probe = crash_fs();
    crashy_workload_with(&probe.fs, "probe.sion", seed, &agg_params());
    let total_ops = probe.faults.op_count();

    for n in (0..total_ops).step_by(3) {
        for keep in [1u64, 7, 17] {
            let cfs = crash_fs();
            cfs.faults.crash_torn_write(n, keep);
            crashy_workload_with(&cfs.fs, "torn.sion", seed, &agg_params());
            let ctx = format!("aggregated torn op {n}/{total_ops} keep {keep} (seed {seed:#x})");
            check_crash_point(&cfs, "torn.sion", seed, &ctx);
        }
    }
}

#[test]
fn killed_aggregator_mid_shipment_fails_members_and_stays_repairable() {
    // Deterministic aggregator death between two shipment waves: frames
    // applied before the fault are durable, frames after it are refused
    // with a poisoned ack — so members see the failure at their next
    // operation or at close, the collective close fails on EVERY task
    // (metablock 2 is skipped), and repair recovers a per-rank prefix.
    let seed = seed();
    let cfs = crash_fs();
    let results = TaskWorld::run(NTASKS, |comm| {
        let cfs = &cfs;
        async move {
            let mut w = paropen_write_co(&cfs.fs, "kagg.sion", &agg_params(), &comm)
                .await
                .unwrap();
            w.write(&payload(seed, comm.rank(), PAYLOAD_LEN)).unwrap();
            w.flush().unwrap();
            // The fault rules are shared state; arm them only after every
            // task's pre-fault traffic is staged.
            comm.barrier().await;
            if comm.rank() == 0 {
                cfs.faults.inject(FaultRule {
                    kind: FaultKind::Write,
                    from: 0,
                    count: u64::MAX,
                });
                cfs.faults.inject(FaultRule {
                    kind: FaultKind::Sync,
                    from: 0,
                    count: u64::MAX,
                });
            }
            comm.barrier().await;
            // This wave can never become durable: the aggregators' replay
            // writes die. The member-side error may surface on a later write
            // (via a poisoned ack) or at the collective close.
            let late = w.write(&[0xAB; 64]);
            let closed = w.close_co().await;
            late.is_err() || closed.is_err()
        }
    });
    assert!(
        results.iter().all(|&failed| failed),
        "a dead aggregator must fail the collective close on every task: {results:?}"
    );
    cfs.faults.clear();
    let report = repair(&cfs.fs, "kagg.sion", false).unwrap();
    assert!(report.is_clean(), "{:?}", report.problems);
    let mf = Multifile::open(&cfs.fs, "kagg.sion").unwrap();
    for rank in 0..NTASKS {
        assert_rank_prefix(&mf, rank, seed, "killed aggregator");
    }
}

#[test]
fn crashed_task_cannot_hang_the_collective_close() {
    // A task whose flush dies mid-close must not desert the metadata
    // collectives: every task gets an error, nothing deadlocks, and the
    // un-finalized file stays repairable.
    let seed = seed();
    let cfs = crash_fs();
    let results = TaskWorld::run(NTASKS, |comm| {
        let cfs = &cfs;
        async move {
            let mut w = paropen_write_co(&cfs.fs, "hang.sion", &params(), &comm)
                .await
                .unwrap();
            w.write(&payload(seed, comm.rank(), PAYLOAD_LEN)).unwrap();
            w.flush().unwrap();
            // Everyone's payload is durable before any fault is armed — the
            // rules are shared state and must not race the flushes above.
            comm.barrier().await;
            if comm.rank() == 0 {
                // Everything from now on fails — including rank 0's part of
                // the close — while the other ranks' close I/O proceeds.
                cfs.faults.inject(FaultRule {
                    kind: FaultKind::Write,
                    from: 0,
                    count: u64::MAX,
                });
                cfs.faults.inject(FaultRule {
                    kind: FaultKind::Sync,
                    from: 0,
                    count: u64::MAX,
                });
            }
            comm.barrier().await;
            w.close_co().await.is_err()
        }
    });
    assert!(
        results.iter().all(|&failed| failed),
        "metablock 2 was skipped, so close must fail on every task: {results:?}"
    );
    cfs.faults.clear();
    // The flushed data is fully recoverable from the rescue headers.
    let report = repair(&cfs.fs, "hang.sion", false).unwrap();
    assert!(report.is_clean(), "{:?}", report.problems);
    let mf = Multifile::open(&cfs.fs, "hang.sion").unwrap();
    for rank in 0..NTASKS {
        assert_eq!(
            mf.read_rank(rank).unwrap(),
            payload(seed, rank, PAYLOAD_LEN)
        );
    }
}
