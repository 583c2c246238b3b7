//! `dpor_stats [--out FILE] [--cap N]` — DPOR state-space measurements
//! over the real `sion::par` open/write/close protocol.
//!
//! For each small configuration (ranks × I/O mode) the exhaustive
//! explorer ([`simcheck::Dpor`]) runs the collective write protocol on
//! the driven serial task runtime and reports how many inequivalent
//! schedules exist, how many backtrack candidates the sleep-set analogue
//! pruned, and the deepest decision sequence. The numbers are the "cost
//! of certainty" companion to the correctness suite: they say how big the
//! verified space actually is, and CI pins the counts in
//! `simcheck/tests/dpor_sion.rs` — this binary exists to regenerate and
//! eyeball them when the protocol's event structure changes.
//!
//! Writes a JSON report (default `BENCH_dpor.json`).

use simcheck::{Dpor, DporOutcome, HbEngine, Sanitizer, TapFs};
use simmpi::{CheckHook, CoComm, TaskWorld};
use sion::{paropen_write_co, IoMode, SionParams};
use std::sync::Arc;
use std::time::Instant;
use vfs::MemFs;

/// One measured configuration.
struct Case {
    label: &'static str,
    ranks: usize,
    io_mode: IoMode,
}

fn explore(case: &Case, cap: usize) -> DporOutcome {
    let ranks = case.ranks;
    let io_mode = case.io_mode;
    Dpor { max_schedules: cap }.explore(|h| {
        let engine = Arc::new(HbEngine::new());
        let san = Arc::new(Sanitizer::new());
        let mem = Arc::new(MemFs::with_block_size(256));
        let fs = Arc::new(TapFs::new(mem, vec![engine.clone(), h.sink()]));
        let hook: Arc<dyn CheckHook> = Arc::new(vec![h.recorder(), san.clone(), engine.clone()]);
        let params =
            SionParams::new(96).with_alignment(sion::Alignment::None).with_io_mode(io_mode);
        let run = TaskWorld::run_driven(ranks, hook, h.driver(), |c| {
            let fs = fs.clone();
            let params = params.clone();
            async move {
                let rank = c.rank();
                let mut w = paropen_write_co(fs.as_ref(), "dpor/m.sion", &params, &c)
                    .await
                    .expect("collective open");
                w.write(&[rank as u8 + 1; 40]).expect("write");
                w.write(&[rank as u8 + 129; 40]).expect("write");
                w.close_co().await.expect("collective close")
            }
        });
        assert!(run.deadlock.is_none(), "deadlock under DPOR schedule");
        for r in run.results {
            r.unwrap_or_else(|p| {
                panic!("rank panicked under DPOR: {:?}", p.downcast_ref::<String>())
            });
        }
        let findings = san.findings();
        assert!(findings.is_empty(), "sanitizer findings: {findings:?}");
        engine.assert_race_free(case.label);
        None
    })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let out = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1).cloned())
        .unwrap_or_else(|| "BENCH_dpor.json".to_string());
    let cap = args
        .iter()
        .position(|a| a == "--cap")
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(200_000);

    // With Alignment::None no interior chunk boundary is FS-block clean,
    // so election collapses to one aggregator per file regardless of
    // tasks_per_aggregator: the aggregated cases below are one aggregator
    // serving (ranks - 1) remote members. Three remote members
    // (aggregated-4) is the largest case that still finishes: 155 277
    // schedules, most of this binary's run time.
    let cases = [
        Case { label: "independent-2", ranks: 2, io_mode: IoMode::Independent },
        Case { label: "independent-3", ranks: 3, io_mode: IoMode::Independent },
        Case { label: "independent-4", ranks: 4, io_mode: IoMode::Independent },
        Case {
            label: "aggregated-2",
            ranks: 2,
            io_mode: IoMode::Aggregated { tasks_per_aggregator: 2 },
        },
        Case {
            label: "aggregated-3",
            ranks: 3,
            io_mode: IoMode::Aggregated { tasks_per_aggregator: 3 },
        },
        Case {
            label: "aggregated-4",
            ranks: 4,
            io_mode: IoMode::Aggregated { tasks_per_aggregator: 4 },
        },
    ];

    let mut j = String::from("{\n");
    j.push_str("  \"bench\": \"dpor_stats\",\n");
    j.push_str(&format!("  \"cap\": {cap},\n"));
    j.push_str(
        "  \"notes\": \"exhaustive DPOR over sion::par open/2x40B-write/close on the driven \
         serial task runtime; explored == schedules executed after partial-order reduction \
         (an upper bound on the inequivalent-schedule count) under the \
         channel/collective/extent dependence relation\",\n",
    );
    j.push_str("  \"results\": [\n");
    for (i, case) in cases.iter().enumerate() {
        let t = Instant::now();
        let outcome = explore(case, cap);
        let secs = t.elapsed().as_secs_f64();
        assert!(outcome.failure.is_none(), "{}: exploration found a failure", case.label);
        eprintln!("{:>14}: {} ({secs:.1}s)", case.label, outcome.summary());
        j.push_str(&format!(
            "    {{\"case\": \"{}\", \"ranks\": {}, \"explored\": {}, \"pruned\": {}, \
             \"branch_points\": {}, \"max_depth\": {}, \"capped\": {}, \"secs\": {:.3}}}{}\n",
            case.label,
            case.ranks,
            outcome.explored,
            outcome.pruned,
            outcome.branch_points,
            outcome.max_depth,
            outcome.capped,
            secs,
            if i + 1 < cases.len() { "," } else { "" }
        ));
    }
    j.push_str("  ]\n}\n");
    std::fs::write(&out, &j).unwrap_or_else(|e| panic!("write {out}: {e}"));
    eprintln!("wrote {out}");
}
