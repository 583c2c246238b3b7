//! Mutation tests: each seeded bug class — mismatched collective root or
//! kind, user tag colliding with the reserved namespace, misaligned chunk
//! start violating the §3.2 block-exclusivity invariant, a cyclic-receive
//! deadlock, a receive of an already-consumed message — must be flagged by
//! the checker, with a replayable [`ScheduleCfg`] and a byte-identical
//! report on replay. Programs are rank tasks under [`CheckedTaskWorld`],
//! the one schedule-exploring harness.

use simcheck::{
    seed_budget, BlockGuard, CheckFailure, CheckedTaskWorld, FindingKind, ScheduleCfg, TapFs,
    COLL_TAG_PREFIX,
};
use simmpi::CoComm;
use sion::{paropen_write_co, Alignment, FileLayout, SionParams};
use std::sync::Arc;
use vfs::MemFs;

const CFG: ScheduleCfg = ScheduleCfg::Seeded {
    seed: 11,
    preemption_bound: 2,
};

fn assert_replayable(a: &CheckFailure, b: &CheckFailure) {
    assert_eq!(
        a.stable_report(),
        b.stable_report(),
        "replay under the same ScheduleCfg must reproduce the byte-identical report"
    );
}

/// Golden-file pin of the exact report bytes (bless with SIMCHECK_BLESS=1
/// after an intentional diagnostic change).
fn assert_matches_golden(fail: &CheckFailure, file: &str) {
    let path = format!("{}/tests/golden/{file}", env!("CARGO_MANIFEST_DIR"));
    let got = fail.stable_report();
    if std::env::var_os("SIMCHECK_BLESS").is_some() {
        std::fs::write(&path, &got).unwrap();
    }
    let want = std::fs::read_to_string(&path)
        .expect("golden file missing — run once with SIMCHECK_BLESS=1");
    assert_eq!(got, want, "report drifted from tests/golden/{file}");
}

/// Bug class 1: ranks disagree on a collective's root.
#[test]
fn mismatched_root_is_flagged() {
    let run = || {
        CheckedTaskWorld::run(4, CFG, |c| async move {
            // Every rank names itself as the root: a classic index bug.
            c.bcast(Some(vec![1, 2, 3]), c.rank()).await;
        })
        .expect_err("mismatched bcast roots must not pass")
    };
    let fail = run();
    assert!(
        fail.findings
            .iter()
            .any(|f| f.kind == FindingKind::CollectiveMismatch),
        "expected a collective-mismatch finding:\n{fail}"
    );
    assert!(
        fail.findings
            .iter()
            .any(|f| f.message.contains("bcast(root=")),
        "finding must name the mismatching operations:\n{fail}"
    );
    assert_replayable(&fail, &run());
}

/// Bug class 1b: ranks disagree on *which* collective they are in.
#[test]
fn mismatched_kind_is_flagged() {
    let fail = CheckedTaskWorld::run(2, CFG, |c| async move {
        if c.rank() == 0 {
            c.barrier().await;
        } else {
            c.allgather(&[9]).await;
        }
    })
    .expect_err("barrier-vs-allgather must not pass");
    assert!(
        fail.findings
            .iter()
            .any(|f| f.kind == FindingKind::CollectiveMismatch),
        "expected a collective-mismatch finding:\n{fail}"
    );
}

/// Bug class 2: a user point-to-point tag colliding with the reserved
/// collective namespace (top byte 0xC3).
#[test]
fn reserved_tag_collision_is_flagged() {
    // Craft the exact wire tag of an internal barrier (kind 1, seq 0,
    // round 0) — the strongest possible collision.
    let crafted = COLL_TAG_PREFIX | (1u64 << 48);
    let run = || {
        CheckedTaskWorld::run(2, CFG, |c| async move {
            if c.rank() == 0 {
                c.send(1, crafted, b"oops");
            }
        })
        .expect_err("reserved-namespace tag must be rejected")
    };
    let fail = run();
    assert!(
        fail.findings
            .iter()
            .any(|f| f.kind == FindingKind::ReservedTag),
        "expected a reserved-tag finding:\n{fail}"
    );
    assert_replayable(&fail, &run());
}

/// One 600-byte write per rank through the real collective open/close on a
/// block-guarded `MemFs`, under [`CFG`]; returns the guard. The serial
/// executor interleaves the ranks on one thread, so a violation-free run
/// also shows every VFS write carried its own rank's task label.
fn guarded_write(ntasks: usize, fs_block: u64, params: &SionParams) -> Arc<BlockGuard> {
    let guard = BlockGuard::new(fs_block);
    let fs = TapFs::new(
        Arc::new(MemFs::with_block_size(fs_block)),
        vec![guard.clone()],
    );
    CheckedTaskWorld::run(ntasks, CFG, |c| {
        let fs = &fs;
        async move {
            let mut w = paropen_write_co(fs, "out/guarded.sion", params, &c)
                .await
                .unwrap();
            w.write(&vec![c.rank() as u8; 600]).unwrap();
            w.close_co().await.unwrap();
        }
    })
    .unwrap_or_else(|fail| panic!("protocol layer is fine, only blocks may overlap:\n{fail}"));
    guard
}

/// Bug class 3: misaligned chunk starts — an unaligned layout packs two
/// tasks' chunks into the same filesystem block, violating the invariant
/// (§3.2) that makes lock-free parallel writes safe. The block-contention
/// sanitizer must observe cross-task overlap, and the layout math must
/// agree that sharing exists.
#[test]
fn misaligned_chunks_trigger_block_contention() {
    const FS_BLOCK: u64 = 4096;
    let ntasks = 4;

    // The layout math predicts the overlap...
    let layout = FileLayout::compute(&vec![600; ntasks], FS_BLOCK, Alignment::None, false).unwrap();
    assert!(
        !layout.shared_fs_blocks(FS_BLOCK).is_empty(),
        "test premise broken: unaligned 600-byte chunks should share {FS_BLOCK}-byte FS blocks"
    );

    // ...and the sanitizer observes it happening on the wire: chunks far
    // smaller than an FS block, no alignment.
    let misaligned = SionParams::new(600).with_alignment(Alignment::None);
    let violations = guarded_write(ntasks, FS_BLOCK, &misaligned).violations();
    assert!(
        !violations.is_empty(),
        "expected cross-task FS-block overlap with unaligned chunks"
    );
    // Every report names two distinct tasks on one block.
    for v in &violations {
        assert_ne!(v.prev_task, v.task, "violation must be cross-task: {v}");
    }

    // The aligned control: same workload, aligned layout, zero violations.
    guarded_write(ntasks, FS_BLOCK, &SionParams::new(FS_BLOCK)).assert_exclusive();
}

/// Bug class 4: whole-world deadlock — both ranks receive first. The
/// executor's exact quiescence detection (no watchdog) must name each
/// rank's pending operation and produce a stable report that replays
/// byte-for-byte and matches the golden file.
#[test]
fn cyclic_recv_deadlocks_with_golden_report() {
    let run = || {
        CheckedTaskWorld::run(
            2,
            ScheduleCfg::Seeded {
                seed: 5,
                preemption_bound: 1,
            },
            |c| async move {
                // Both ranks recv before anyone sends: classic head-to-head.
                let _ = c.recv(1 - c.rank(), 7).await;
                c.send(1 - c.rank(), 7, b"late");
            },
        )
        .expect_err("cyclic receives must deadlock")
    };
    let fail = run();
    assert!(
        fail.findings
            .iter()
            .any(|f| f.kind == FindingKind::Deadlock),
        "expected a deadlock finding:\n{fail}"
    );
    let dl = fail
        .deadlock
        .as_ref()
        .expect("deadlock details must be present");
    assert_eq!(dl.pending.len(), 2, "both ranks are blocked:\n{fail}");
    for (rank, p) in dl.pending.iter().enumerate() {
        assert_eq!(p.task, rank, "pending ops are in stable rank order");
        assert!(
            p.op.contains("recv("),
            "pending op names the receive: {}",
            p.op
        );
    }
    // The poll trace that led here is part of the replayable evidence.
    assert!(
        !fail.trace.is_empty(),
        "decision trace must be recorded:\n{fail}"
    );

    assert_replayable(&fail, &run());

    assert_matches_golden(&fail, "deadlock_report.txt");
}

/// A real hang, not a seeded two-liner: 4 ranks write a 2-file multifile
/// and rank 2 returns without calling the collective close. The verdict
/// must be an exact deadlock, and — with no backtraces in the report — the
/// parked-rank lines alone must show where everyone is: the communicator
/// by its structural name, the rank in it, and the collective by kind and
/// sequence number rather than a raw `0xC3…` tag word.
#[test]
fn missing_close_deadlock_names_comm_and_collective() {
    let fs = MemFs::with_block_size(1024);
    let run = || {
        CheckedTaskWorld::run(
            4,
            ScheduleCfg::Seeded {
                seed: 5,
                preemption_bound: 1,
            },
            |c| {
                let fs = &fs;
                async move {
                    let params = SionParams::new(1024).with_nfiles(2);
                    let mut w = paropen_write_co(fs, "out/hang.sion", &params, &c)
                        .await
                        .unwrap();
                    w.write(&[c.rank() as u8; 100]).unwrap();
                    if c.rank() != 2 {
                        w.close_co().await.unwrap();
                    }
                }
            },
        )
        .expect_err("a close one rank never enters cannot complete")
    };
    let fail = run();
    let dl = fail
        .deadlock
        .as_ref()
        .unwrap_or_else(|| panic!("no deadlock verdict:\n{fail}"));
    let parked: Vec<usize> = dl.pending.iter().map(|p| p.task).collect();
    assert_eq!(
        parked,
        [0, 1, 3],
        "the three closing ranks are parked, rank 2 is gone:\n{fail}"
    );
    for p in &dl.pending {
        assert!(
            p.comm.starts_with("world"),
            "communicator named structurally: {p:?}"
        );
        assert!(
            p.op.contains("#") && !p.op.contains("0xc3"),
            "collective decoded, not hex: {p:?}"
        );
    }
    assert_replayable(&fail, &run());
    assert_matches_golden(&fail, "missing_close_report.txt");
}

/// `try_recv` polls the same mailbox queue as blocking receives, and a hit
/// takes the message out: a message taken by `try_recv` is gone. The
/// program takes message A that way and then receives A *again* — nothing
/// will ever wake that receive, so the executor must quiesce with exactly
/// rank 1 parked: a clean one-rank deadlock verdict and nothing else, which
/// must replay byte-for-byte.
#[test]
fn try_recv_hit_consumes_the_in_flight_message() {
    const A: u64 = 0xA;
    const B: u64 = 0xB;
    let run = |seed| {
        CheckedTaskWorld::run(
            2,
            ScheduleCfg::Seeded {
                seed,
                preemption_bound: 2,
            },
            |c| async move {
                if c.rank() == 0 {
                    c.send(1, A, b"first");
                    c.send(1, B, b"second");
                } else {
                    // B's blocking receive leaves the earlier A queued; FIFO
                    // delivery guarantees the poll below hits.
                    assert_eq!(c.recv(0, B).await, b"second");
                    assert_eq!(c.try_recv(0, A).as_deref(), Some(&b"first"[..]));
                    assert_eq!(c.try_recv(0, A), None, "A was consumed by the hit");
                    let _ = c.recv(0, A).await;
                }
            },
        )
        .expect_err("the second receive of A can never be satisfied")
    };
    for seed in 0..seed_budget().min(8) {
        let fail = run(seed);
        let dl = fail
            .deadlock
            .as_ref()
            .unwrap_or_else(|| panic!("no deadlock verdict:\n{fail}"));
        assert_eq!(dl.pending.len(), 1, "only rank 1 is blocked:\n{fail}");
        assert!(
            dl.pending[0].op.contains("recv(src=0, tag=0xa)"),
            "{}",
            dl.pending[0].op
        );
        assert_eq!(
            fail.findings.len(),
            1,
            "a deadlock and nothing else (no leak):\n{fail}"
        );
        assert_replayable(&fail, &run(seed));
    }
}

/// A preemption bound of zero is the strictest schedule — run each task
/// until it parks, never preempting a runnable one — and a correct
/// collective program must still complete under it.
#[test]
fn preemption_bound_zero_still_completes() {
    for seed in 0..4 {
        let cfg = ScheduleCfg::Seeded {
            seed,
            preemption_bound: 0,
        };
        let sums = CheckedTaskWorld::run(6, cfg, |c| async move {
            let all = c.allgather_u64(c.rank() as u64 * 3).await;
            c.barrier().await;
            all.iter().sum::<u64>()
        })
        .unwrap_or_else(|fail| panic!("bound-0 schedule flagged (seed {seed}):\n{fail}"));
        assert_eq!(sums, vec![45; 6], "seed {seed}");
    }
}
