//! Happens-before mutation suite for the aggregated write protocol.
//!
//! Two halves:
//!
//! * the **clean** protocol — a real 4-rank `Aggregated` open/write/close
//!   — must be race- and violation-free under the [`HbEngine`] +
//!   [`TapFs`] stack on both drivers of the runtime (thread per rank, and
//!   the task executor under eight seeded serial schedules);
//! * three **seeded mutations** of the ship/ack contract, each built as a
//!   minimal member/aggregator exchange over the reserved `0xA6`/`0xA7`
//!   namespace (under [`simmpi::enter_agg_protocol`], exactly like the
//!   real aggregator), must each be *detected* — and re-running the same
//!   seed must reproduce a byte-identical [`HbEngine::stable_report`],
//!   so every finding ships with a replayable schedule seed.
//!
//! One seeded race report is pinned as a golden file
//! (`tests/golden/hb_race_report.txt`, bless with `SIMCHECK_BLESS=1`).

use simcheck::{HbEngine, TapFs};
use simmpi::{
    CoComm, SchedPolicy, TaskComm, TaskWorld, World, AGG_ACK_TAG_PREFIX, AGG_SHIP_TAG_PREFIX,
};
use sion::{paropen_write, paropen_write_co, Alignment, IoMode, SionParams};
use std::future::Future;
use std::sync::Arc;
use vfs::{MemFs, Vfs};

const NTASKS: usize = 4;

fn agg_params() -> SionParams {
    SionParams::new(96)
        .with_alignment(Alignment::None)
        .with_io_mode(IoMode::Aggregated {
            tasks_per_aggregator: 2,
        })
}

fn guarded_fs() -> (Arc<HbEngine>, Arc<dyn Vfs>) {
    let engine = Arc::new(HbEngine::new());
    let fs: Arc<dyn Vfs> = Arc::new(TapFs::new(
        Arc::new(MemFs::with_block_size(4096)),
        vec![engine.clone()],
    ));
    (engine, fs)
}

/// The workload every clean-protocol run performs: open, two chunk-sized
/// writes (one in-chunk, one crossing), close.
fn payload(rank: usize, salt: u8) -> Vec<u8> {
    vec![rank as u8 + salt; 72]
}

// ---------------------------------------------------------------------
// Clean protocol: race-free on both drivers.
// ---------------------------------------------------------------------

#[test]
fn clean_protocol_is_race_free_on_thread_runtimes() {
    let (engine, fs) = guarded_fs();
    let results = World::run_checked(NTASKS, engine.clone(), |c| {
        let mut w = paropen_write(fs.as_ref(), "hb/clean.sion", &agg_params(), c).expect("open");
        w.write(&payload(c.rank(), 1)).expect("write");
        w.write(&payload(c.rank(), 129)).expect("write");
        w.close().expect("close");
    });
    for r in results {
        r.expect("rank must not panic");
    }
    engine.assert_race_free(&format!("clean aggregated protocol, {NTASKS} threads"));
}

#[test]
fn clean_protocol_is_race_free_on_task_runtime() {
    async fn prog(fs: Arc<dyn Vfs>, c: &dyn CoComm) {
        let mut w = paropen_write_co(fs.as_ref(), "hb/clean.sion", &agg_params(), c)
            .await
            .expect("open");
        w.write(&payload(c.rank(), 1)).expect("write");
        w.write(&payload(c.rank(), 129)).expect("write");
        w.close_co().await.expect("close");
    }
    for seed in 0..8 {
        let (engine, fs) = guarded_fs();
        let policy = SchedPolicy::Serial {
            seed,
            preemption_bound: 2,
        };
        let run = TaskWorld::run_checked(policy, NTASKS, engine.clone(), move |c| {
            let fs = fs.clone();
            async move { prog(fs, &c).await }
        });
        assert!(
            run.deadlock.is_none(),
            "seed {seed}: clean protocol must not deadlock"
        );
        for r in run.results {
            r.expect("rank must not panic");
        }
        engine.assert_race_free(&format!(
            "clean aggregated protocol, {NTASKS} tasks, seed {seed}"
        ));
    }
}

/// Two 4-rank halves of an 8-rank world (`split_local`), each writing an
/// aggregated multifile of its own. Messages and file writes carry one
/// task identity, the world rank the executor runs, so a half's local
/// ranks are never mistaken for the other half's: no ack is charged with
/// bytes another rank's aggregator owes.
#[test]
fn clean_protocol_is_race_free_on_sub_communicators() {
    async fn prog(fs: Arc<dyn Vfs>, c: TaskComm) {
        let half = c.rank() / NTASKS;
        let sub = c.split_local(half as u64, c.rank() % NTASKS, NTASKS).await;
        let path = format!("hb/half{half}.sion");
        let mut w = paropen_write_co(fs.as_ref(), &path, &agg_params(), sub.as_ref())
            .await
            .expect("open");
        w.write(&payload(sub.rank(), 1)).expect("write");
        w.write(&payload(sub.rank(), 129)).expect("write");
        w.close_co().await.expect("close");
    }
    for seed in 0..8 {
        let (engine, fs) = guarded_fs();
        let policy = SchedPolicy::Serial {
            seed,
            preemption_bound: 2,
        };
        let run =
            TaskWorld::run_checked(policy, 2 * NTASKS, engine.clone(), |c| prog(fs.clone(), c));
        assert!(
            run.deadlock.is_none(),
            "seed {seed}: clean protocol must not deadlock"
        );
        for r in run.results {
            r.expect("rank must not panic");
        }
        engine.assert_race_free(&format!("two aggregated halves of 8 tasks, seed {seed}"));
    }
}

// ---------------------------------------------------------------------
// Seeded mutations of the ship/ack contract.
// ---------------------------------------------------------------------

const SEED: u64 = 0x00AC_C1DE_0000_0001;

/// Run a two-task mutation program under the seeded serial scheduler,
/// twice with the same seed; asserts the engine's stable report is
/// byte-identical across the replays (the finding is replayable from the
/// seed alone) and returns the first run's engine and report.
fn detect<F, Fut>(seed: u64, prog: F) -> (Arc<HbEngine>, String)
where
    F: Fn(Arc<dyn Vfs>, TaskComm) -> Fut,
    Fut: Future<Output = ()> + Send,
{
    let run_once = || {
        let (engine, fs) = guarded_fs();
        let run = TaskWorld::run_checked(
            SchedPolicy::Serial {
                seed,
                preemption_bound: 2,
            },
            2,
            engine.clone(),
            |c| prog(fs.clone(), c),
        );
        assert!(run.deadlock.is_none(), "mutation program must not deadlock");
        for r in run.results {
            r.expect("mutation program must not panic");
        }
        let report = engine.stable_report(&format!("seed={seed:#018x}, preemption-bound=2"));
        (engine, report)
    };
    let (engine, first) = run_once();
    let (_, second) = run_once();
    assert_eq!(
        first, second,
        "same seed must replay a byte-identical report"
    );
    (engine, first)
}

/// Ship `data` under shipment `seq` the way `sion::agg` frames it: an
/// 8-byte little-endian sequence number, then the payload bytes.
fn ship_frame(seq: u64, data: &[u8]) -> Vec<u8> {
    let mut frame = seq.to_le_bytes().to_vec();
    frame.extend_from_slice(data);
    frame
}

/// A success ack for `seq`: `[u64 seq][u64 status == 0]`.
fn ok_ack(seq: u64) -> Vec<u8> {
    let mut ack = seq.to_le_bytes().to_vec();
    ack.extend_from_slice(&0u64.to_le_bytes());
    ack
}

/// Mutation 1: the aggregator acks a shipment whose bytes never reach the
/// VFS at all. The ack vouches for durability it does not have; the
/// engine must report the member's full shadow extent as missing.
#[test]
fn ack_before_vfs_write_is_detected() {
    let (engine, report) = detect(SEED, |fs, c| async move {
        if c.rank() == 1 {
            // Member: record the logical write, bind it to shipment 1.
            vfs::guard::set_task(1);
            let shadow = fs.create_shadow("hb/mut.dat").expect("shadow handle");
            shadow.write_at(&[7u8; 40], 0).expect("shadow write");
            let _protocol = simmpi::enter_agg_protocol();
            c.send(0, AGG_SHIP_TAG_PREFIX, &ship_frame(1, &[7u8; 40]));
            c.recv(0, AGG_ACK_TAG_PREFIX).await;
        } else {
            // Aggregator: MUTATION — ack without writing a single byte.
            vfs::guard::set_task(0);
            c.recv(1, AGG_SHIP_TAG_PREFIX).await;
            let _protocol = simmpi::enter_agg_protocol();
            c.send(1, AGG_ACK_TAG_PREFIX, &ok_ack(1));
        }
    });
    let violations = engine.ack_violations();
    assert_eq!(violations.len(), 1, "exactly one ack violation:\n{report}");
    assert_eq!(violations[0].seq, 1);
    assert_eq!(
        violations[0].missing,
        (0, 40),
        "the whole extent is missing"
    );
    assert!(
        engine.races().is_empty(),
        "no extent race in this mutation:\n{report}"
    );
}

/// Mutation 2: the aggregator applies only part of the frame before
/// acking — an extent cut short, so the tail of the obligation never
/// became durable. The engine must name the missing byte subrange.
#[test]
fn partial_write_before_ack_is_detected() {
    let (engine, report) = detect(SEED, |fs, c| async move {
        if c.rank() == 1 {
            vfs::guard::set_task(1);
            let shadow = fs.create_shadow("hb/mut.dat").expect("shadow handle");
            shadow.write_at(&[9u8; 40], 0).expect("shadow write");
            let _protocol = simmpi::enter_agg_protocol();
            c.send(0, AGG_SHIP_TAG_PREFIX, &ship_frame(1, &[9u8; 40]));
            c.recv(0, AGG_ACK_TAG_PREFIX).await;
        } else {
            vfs::guard::set_task(0);
            let frame = c.recv(1, AGG_SHIP_TAG_PREFIX).await;
            // MUTATION: replay only the first half of the shipped bytes.
            let file = fs.create("hb/mut.dat").expect("create");
            file.write_at(&frame[8..28], 0).expect("partial replay");
            let _protocol = simmpi::enter_agg_protocol();
            c.send(1, AGG_ACK_TAG_PREFIX, &ok_ack(1));
        }
    });
    let violations = engine.ack_violations();
    assert_eq!(violations.len(), 1, "exactly one ack violation:\n{report}");
    assert_eq!(
        violations[0].missing,
        (20, 40),
        "the unflushed tail is missing"
    );
}

/// Mutation 3: two members claim overlapping logical extents — both
/// shadow-write byte ranges that intersect, with no ordering between
/// them. The engine must report the pair as a race with both sites.
#[test]
fn overlapping_member_extents_are_detected() {
    let (engine, report) = detect(SEED, |fs, c| async move {
        vfs::guard::set_task(c.rank() as u64);
        let shadow = fs.create_shadow("hb/mut.dat").expect("shadow handle");
        // MUTATION: rank 0 claims [0, 40), rank 1 claims [20, 60).
        let offset = 20 * c.rank() as u64;
        shadow
            .write_at(&[c.rank() as u8 + 1; 40], offset)
            .expect("shadow write");
        c.barrier().await;
    });
    let races = engine.races();
    assert_eq!(races.len(), 1, "exactly one extent race:\n{report}");
    let race = &races[0];
    assert_ne!(
        race.a.access.task, race.b.access.task,
        "both sites are reported"
    );
    assert!(
        engine.ack_violations().is_empty(),
        "no ack violation in this mutation:\n{report}"
    );

    // Golden pin: the seeded race report replays byte-identically, so it
    // can be held to a fixed rendering. Bless with SIMCHECK_BLESS=1.
    let golden = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/golden/hb_race_report.txt"
    );
    if std::env::var_os("SIMCHECK_BLESS").is_some() {
        std::fs::write(golden, &report).expect("bless golden");
    } else {
        let want =
            std::fs::read_to_string(golden).expect("golden exists; SIMCHECK_BLESS=1 to create");
        assert_eq!(report, want, "seeded race report drifted from golden");
    }
}
