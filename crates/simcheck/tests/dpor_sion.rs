//! Exhaustive DPOR exploration of `sion::par` open/write/close.
//!
//! Small configurations of the real collective write protocol are run
//! under [`simcheck::Dpor`] on the driven serial task runtime, in both
//! I/O modes. Every run carries the full checker stack: the [`Sanitizer`]
//! (collective/tag/leak discipline), an [`HbEngine`] fed by a
//! [`TapFs`] (byte-extent races and ack durability), and the DPOR
//! recorder itself — so "explored exhaustively" means every inequivalent
//! schedule was deadlock-, finding-, race- and violation-free.
//!
//! The explored-schedule counts are pinned: a drift means the protocol's
//! visible-event structure changed, which is exactly what this suite
//! exists to notice (re-measure with `bench --bin dpor_stats`). The
//! first run's decision trace for the aggregated 3-rank case is pinned
//! as a golden file (bless with `SIMCHECK_BLESS=1`).
//!
//! Four ranks is where exhaustion ends inside a test budget: the 4-rank
//! *independent* space is 29 421 schedules (pinned below; it was 163 837
//! while the open still exchanged its splits), and one aggregator with
//! three members is 155 277 — exhaustible, but at ~20 s in a release build
//! it is measured by `dpor_stats` (`BENCH_dpor.json`) rather than run
//! here; nothing truncates silently.

use simcheck::{Dpor, DporOutcome, HbEngine, Sanitizer, TapFs};
use simmpi::{CheckHook, CoComm, TaskWorld};
use sion::{paropen_write_co, IoMode, SionParams};
use std::sync::Arc;
use vfs::MemFs;

/// Run the collective write protocol (open, two 40-byte writes, close)
/// under exhaustive DPOR with the full checker stack installed. Panics on
/// any sanitizer finding, deadlock, rank panic, race, ack violation, or
/// a capped exploration; returns the exploration report.
fn explore_par_write(ntasks: usize, io_mode: IoMode) -> DporOutcome {
    let out = Dpor {
        max_schedules: 50_000,
    }
    .explore(|h| {
        let engine = Arc::new(HbEngine::new());
        let san = Arc::new(Sanitizer::new());
        // Extents feed both the race checker and the DPOR footprint
        // recorder: file conflicts are schedule-relevant too.
        let mem = Arc::new(MemFs::with_block_size(256));
        let fs = Arc::new(TapFs::new(mem, vec![engine.clone(), h.sink()]));
        let hook: Arc<dyn CheckHook> = Arc::new(vec![h.recorder(), san.clone(), engine.clone()]);
        let params = SionParams::new(96)
            .with_alignment(sion::Alignment::None)
            .with_io_mode(io_mode);
        let run = TaskWorld::run_driven(ntasks, hook, h.driver(), |c| {
            let fs = fs.clone();
            let params = params.clone();
            async move {
                let rank = c.rank();
                let mut w = paropen_write_co(fs.as_ref(), "dpor/m.sion", &params, &c)
                    .await
                    .expect("collective open succeeds");
                w.write(&[rank as u8 + 1; 40]).expect("write succeeds");
                w.write(&[rank as u8 + 129; 40]).expect("write succeeds");
                w.close_co().await.expect("collective close succeeds")
            }
        });
        assert!(run.deadlock.is_none(), "deadlock under DPOR schedule");
        for r in run.results {
            r.unwrap_or_else(|p| {
                panic!(
                    "rank panicked under DPOR schedule: {:?}",
                    p.downcast_ref::<String>()
                )
            });
        }
        let findings = san.findings();
        assert!(
            findings.is_empty(),
            "sanitizer findings under DPOR schedule: {findings:?}"
        );
        // Runs once per explored schedule: no byte-extent race, and no ack
        // sent before its shipment's bytes were durable, in any of them.
        engine.assert_race_free(&format!("par write, {ntasks} ranks"));
        None
    });
    assert!(out.failure.is_none());
    assert!(
        !out.capped,
        "exploration hit the schedule cap: {}",
        out.summary()
    );
    out
}

#[test]
fn independent_mode_explores_exhaustively() {
    let two = explore_par_write(2, IoMode::Independent);
    let three = explore_par_write(3, IoMode::Independent);
    println!("independent 2 ranks: {}", two.summary());
    println!("independent 3 ranks: {}", three.summary());
    // Two ranks: one reversible pair, the protocol's very first message.
    // The open now starts with rank 0 *sending* (the fingerprint
    // broadcast) where it used to start with rank 0 *receiving* (the
    // split's gather): under the default lowest-id-first order task 0's
    // send runs while task 1, the receiver, is runnable and has not looked
    // yet, so "receiver polls first and parks" is a second, inequivalent
    // schedule (see `first_message_direction_decides_the_two_rank_count`).
    // Every later pair is order-forced, as before.
    assert_eq!(two.explored, 2, "{}", two.summary());
    // Three ranks: the tree's first interior choice appears. Fewer
    // schedules than with the exchanged splits (256): two three-message
    // split exchanges and their barriers are gone from every run.
    assert_eq!(three.explored, 160, "{}", three.summary());
    assert_eq!(three.pruned, 337, "{}", three.summary());
}

/// Four ranks — the first world whose binomial trees have an interior node
/// that both receives and forwards (rank 2) — is exhaustible since the
/// open stopped exchanging splits: 29 421 schedules where the old protocol
/// had 163 837.
#[test]
fn independent_mode_explores_four_ranks_exhaustively() {
    let four = explore_par_write(4, IoMode::Independent);
    println!("independent 4 ranks: {}", four.summary());
    assert_eq!(four.explored, 29_421, "{}", four.summary());
    assert_eq!(four.pruned, 232_713, "{}", four.summary());
}

/// The whole difference between the old and new 2-rank counts, isolated:
/// a first message that flows *down* from rank 0 can be overtaken by its
/// receiver, one that flows *up* to rank 0 cannot (task 0 parks on it
/// before task 1 has sent, leaving the scheduler no choice).
#[test]
fn first_message_direction_decides_the_two_rank_count() {
    let explore = |down: bool| {
        Dpor::default().explore(|h| {
            let san = Arc::new(Sanitizer::new());
            let hook: Arc<dyn CheckHook> = Arc::new(vec![h.recorder(), san.clone()]);
            let run = TaskWorld::run_driven(2, hook, h.driver(), |c| async move {
                if down {
                    c.bcast_u64((c.rank() == 0).then_some(7), 0).await
                } else {
                    c.reduce_u64(7, simmpi::ReduceOp::Max, 0).await.unwrap_or(7)
                }
            });
            assert!(run.deadlock.is_none() && san.findings().is_empty());
            assert!(run.results.into_iter().all(|r| r.is_ok_and(|v| v == 7)));
            None
        })
    };
    assert_eq!(explore(true).explored, 2);
    assert_eq!(explore(false).explored, 1);
}

#[test]
fn aggregated_mode_explores_exhaustively() {
    // Alignment::None leaves no FS-block-clean interior boundary, so the
    // election collapses to one aggregator per file regardless of
    // tasks_per_aggregator: these cases are one aggregator serving
    // (ranks - 1) remote members over the ship/ack protocol.
    let two = explore_par_write(
        2,
        IoMode::Aggregated {
            tasks_per_aggregator: 2,
        },
    );
    let three = explore_par_write(
        3,
        IoMode::Aggregated {
            tasks_per_aggregator: 3,
        },
    );
    println!("aggregated 2 ranks: {}", two.summary());
    println!("aggregated 3 ranks: {}", three.summary());
    // One remote member: ship, replay, ack happen under a schedule with
    // no reversible race left runnable — the open's first message is the
    // only reversible pair, exactly as in independent mode.
    assert_eq!(two.explored, 2, "{}", two.summary());
    // Two remote members racing their shipments into one aggregator.
    assert_eq!(three.explored, 440, "{}", three.summary());
    assert_eq!(three.pruned, 1405, "{}", three.summary());
}

/// The first (unforced) run's decision trace is a pure function of the
/// program — pin it. A drift here means the scheduler's default order or
/// the protocol's schedule-point structure changed.
#[test]
fn aggregated_decision_trace_matches_golden() {
    let out = explore_par_write(
        3,
        IoMode::Aggregated {
            tasks_per_aggregator: 3,
        },
    );
    let mut rendered = format!("{}\n", out.summary());
    rendered.push_str(&out.first_trace.join("\n"));
    rendered.push('\n');
    let golden = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/golden/dpor_trace_agg3.txt"
    );
    if std::env::var_os("SIMCHECK_BLESS").is_some() {
        std::fs::write(golden, &rendered).expect("bless golden");
    } else {
        let want =
            std::fs::read_to_string(golden).expect("golden exists; SIMCHECK_BLESS=1 to create");
        assert_eq!(rendered, want, "DPOR decision trace drifted from golden");
    }
}
