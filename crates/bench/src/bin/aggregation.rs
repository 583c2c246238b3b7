//! `aggregation [--quick] [--out <path>] [--budget-secs S]` — two-phase
//! aggregated writes vs independent task-local writes on the `parfs`
//! Jugene model (GPFS, 2 MiB blocks, block-granularity write locks).
//!
//! For each record size the same 64 Ki-task, 128-file multifile checkpoint
//! is scripted two ways:
//!
//! * **independent**: every task writes its own chunks; with compact
//!   (unaligned) layouts, `fsblksize / record` tasks share each FS block
//!   and pay the GPFS lock penalty `1 + w·log2(sharers)` (paper Table 1);
//! * **aggregated**: one elected aggregator per FS-block neighborhood
//!   (`tasks_per_aggregator` = the block span: with equal chunks the
//!   layout's clean boundaries recur every block span, and
//!   `FileLayout::aggregation_group` snaps each group out to them)
//!   receives members' records over the torus and issues block-exclusive
//!   writes (`sharers = 1`). Shipment overlaps the write-behind drain, so
//!   members appear only as a compute-phase class plus a one-frame
//!   pipeline-fill delay on the aggregator.
//!
//! Shipment deliberately does NOT use `IoOp::Gather`: the engine models
//! gather as all-to-one-master through the 40 MB/s collective-root NIC,
//! which is the single-file-sequential bottleneck — aggregator shipment is
//! many independent point-to-point streams over the torus, so it is
//! modelled as overlapped compute at the per-link torus bandwidth.
//!
//! Writes a JSON report (default `BENCH_aggregation.json`) with the sweep
//! and, in full mode, a `tasks_per_aggregator` sensitivity curve at 4 KiB
//! records showing why the election snaps to the full block span.
//! Acceptance gates (exit 3): aggregated ≥ 2× independent at every
//! ≤ 4 KiB record point with ≥ 64 tasks per FS block, and ≥ 0.9× (within
//! 10%) of independent at ≥ 1 MiB aligned records. `--budget-secs` bounds
//! wall clock (exit 2 on overrun) like the other benches.

use bench::arg;
use parfs::{simulate, FileRef, IoOp, Machine, ScriptClass, ScriptSet};
use std::time::Instant;

/// BG/P 3D-torus per-link payload bandwidth (bytes/s) carrying member →
/// aggregator shipment; distinct from the I/O-forwarding tree the write
/// path uses (`Machine::task_bw` / `client_group_bw`).
const TORUS_BW: f64 = 375.0e6;
/// One write-behind shipment frame: the pipeline-fill unit an aggregator
/// must receive before its first block write can start.
const FRAME_BYTES: u64 = 4 << 20;

/// Mean number of tasks whose chunks overlap one FS block: the block span
/// of a compact layout of equal chunks, clamped to the tasks actually in
/// the file (what `FileLayout::block_sharing` counts). Aligned layouts pad
/// every chunk to a block multiple, so nothing shares.
fn block_span(m: &Machine, record: u64, tasks_per_file: u64, aligned: bool) -> u64 {
    if aligned {
        1
    } else {
        (m.fsblksize / record).clamp(1, tasks_per_file)
    }
}

/// Independent mode: one class per multifile part, every task writing its
/// own chunks with the layout's block-sharing factor.
fn independent(ntasks: u64, nfiles: u32, per_task: u64, span: u64) -> ScriptSet {
    let tasks_per_file = ntasks / nfiles as u64;
    ScriptSet {
        ntasks,
        classes: (0..nfiles)
            .map(|k| ScriptClass {
                count: tasks_per_file,
                ops: vec![IoOp::Write {
                    file: FileRef::Shared(k),
                    bytes: per_task,
                    sharers: span as f64,
                }],
            })
            .collect(),
    }
}

/// Aggregated mode: per file, `tasks_per_file / tpa` aggregators write the
/// neighborhood's merged data; the remaining members only ship (modelled
/// as overlapped torus-bandwidth compute). `tpa < span` leaves
/// `span / tpa` aggregators sharing each block (a mis-snapped election);
/// `tpa ≥ span` is block-exclusive.
fn aggregated(ntasks: u64, nfiles: u32, per_task: u64, span: u64, tpa: u64) -> ScriptSet {
    let tasks_per_file = ntasks / nfiles as u64;
    let tpa = tpa.clamp(1, tasks_per_file);
    let aggs_per_file = tasks_per_file / tpa;
    let members_per_file = tasks_per_file - aggs_per_file;
    let residual = (span / tpa).max(1);
    let fill_secs = FRAME_BYTES.min((tpa - 1) * per_task) as f64 / TORUS_BW;
    let ship_secs = per_task as f64 / TORUS_BW;
    let mut classes = Vec::new();
    for k in 0..nfiles {
        let mut ops = Vec::new();
        if fill_secs > 0.0 {
            ops.push(IoOp::Compute { seconds: fill_secs });
        }
        ops.push(IoOp::Write {
            file: FileRef::Shared(k),
            bytes: per_task * tpa,
            sharers: residual as f64,
        });
        classes.push(ScriptClass { count: aggs_per_file, ops });
        if members_per_file > 0 {
            classes.push(ScriptClass {
                count: members_per_file,
                ops: vec![IoOp::Compute { seconds: ship_secs }],
            });
        }
    }
    ScriptSet { ntasks, classes }
}

fn run(m: &Machine, wl: &ScriptSet) -> f64 {
    wl.validate().expect("workload");
    simulate(m, wl).write_bandwidth(wl)
}

struct Sample {
    record: u64,
    aligned: bool,
    span: u64,
    tpa: u64,
    aggregators: u64,
    indep_gbps: f64,
    agg_gbps: f64,
    ratio: f64,
}

struct TpaPoint {
    tpa: u64,
    aggregators: u64,
    residual_sharers: u64,
    agg_gbps: f64,
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let budget_secs: u64 = arg(&args, "--budget-secs").unwrap_or(300);
    let out: String = arg(&args, "--out").unwrap_or_else(|| "BENCH_aggregation.json".to_string());

    let m = Machine::jugene();
    let ntasks: u64 = 65536;
    let nfiles: u32 = 128; // ≈ one multifile part per I/O node (paper §3)
    let per_task: u64 = 8 << 20;
    let tasks_per_file = ntasks / nfiles as u64;

    // (record bytes, aligned layout) sweep; the ≥ 1 MiB point uses the
    // aligned layout the gate names (chunks padded to block multiples).
    let points: &[(u64, bool)] = if quick {
        &[(4 << 10, false), (64 << 10, false), (1 << 20, true)]
    } else {
        &[
            (1 << 10, false),
            (4 << 10, false),
            (16 << 10, false),
            (64 << 10, false),
            (256 << 10, false),
            (1 << 20, true),
        ]
    };

    let t_all = Instant::now();
    let mut samples = Vec::new();
    for &(record, aligned) in points {
        let span = block_span(&m, record, tasks_per_file, aligned);
        // The election snaps to clean block boundaries, which equal chunks
        // place every block span, so the group size is the full span;
        // aligned layouts have no sharing to remove, and a small group
        // still demonstrates the shipment path.
        let tpa = span.max(4);
        let indep = independent(ntasks, nfiles, per_task, span);
        let agg = aggregated(ntasks, nfiles, per_task, span, tpa);
        let indep_gbps = run(&m, &indep) / 1e9;
        let agg_gbps = run(&m, &agg) / 1e9;
        let ratio = agg_gbps / indep_gbps;
        let aggregators = ntasks / tpa.clamp(1, tasks_per_file);
        eprintln!(
            "{record:>8}B records{}: {span:>4} tasks/block  {aggregators:>5} aggregators  \
             independent {indep_gbps:>6.3} GB/s  aggregated {agg_gbps:>6.3} GB/s  ({ratio:.2}x)",
            if aligned { " (aligned)" } else { "          " }
        );
        samples.push(Sample { record, aligned, span, tpa, aggregators, indep_gbps, agg_gbps, ratio });
    }

    // Sensitivity: vary tasks_per_aggregator at 4 KiB records. Groups
    // smaller than the block span leave several aggregators sharing each
    // block — the curve peaks at the full span, which is exactly the
    // boundary `FileLayout::aggregation_group` snaps to.
    let mut tpa_sweep = Vec::new();
    if !quick {
        let record = 4 << 10;
        let span = block_span(&m, record, tasks_per_file, false);
        let mut tpa = 32;
        while tpa <= tasks_per_file {
            let agg = aggregated(ntasks, nfiles, per_task, span, tpa);
            let agg_gbps = run(&m, &agg) / 1e9;
            let residual_sharers = (span / tpa).max(1);
            let aggregators = ntasks / tpa;
            eprintln!(
                "  tpa {tpa:>4}: {aggregators:>5} aggregators, {residual_sharers} sharers/block, \
                 {agg_gbps:.3} GB/s"
            );
            tpa_sweep.push(TpaPoint { tpa, aggregators, residual_sharers, agg_gbps });
            tpa *= 2;
        }
    }

    let mut j = String::from("{\n");
    j.push_str("  \"bench\": \"aggregation\",\n");
    j.push_str(&format!("  \"mode\": \"{}\",\n", if quick { "quick" } else { "full" }));
    j.push_str(&format!("  \"machine\": \"{}\",\n", m.name));
    j.push_str(&format!(
        "  \"ntasks\": {ntasks}, \"nfiles\": {nfiles}, \"per_task_bytes\": {per_task},\n"
    ));
    j.push_str(
        "  \"notes\": \"parfs Jugene model; independent = every task writes its own \
         compact-layout chunks (block-sharing lock penalty), aggregated = one elected \
         aggregator per FS-block neighborhood writes block-exclusively while members \
         ship over the torus, overlapped with the write-behind drain\",\n",
    );
    j.push_str("  \"results\": [\n");
    for (i, s) in samples.iter().enumerate() {
        j.push_str(&format!(
            "    {{\"record_bytes\": {}, \"aligned\": {}, \"tasks_per_block\": {}, \
             \"tasks_per_aggregator\": {}, \"aggregators\": {}, \
             \"independent_gbps\": {:.4}, \"aggregated_gbps\": {:.4}, \"ratio\": {:.3}}}{}\n",
            s.record,
            s.aligned,
            s.span,
            s.tpa,
            s.aggregators,
            s.indep_gbps,
            s.agg_gbps,
            s.ratio,
            if i + 1 == samples.len() { "" } else { "," }
        ));
    }
    j.push_str("  ],\n");
    j.push_str("  \"tpa_sweep_4k\": [\n");
    for (i, p) in tpa_sweep.iter().enumerate() {
        j.push_str(&format!(
            "    {{\"tasks_per_aggregator\": {}, \"aggregators\": {}, \
             \"residual_sharers\": {}, \"aggregated_gbps\": {:.4}}}{}\n",
            p.tpa,
            p.aggregators,
            p.residual_sharers,
            p.agg_gbps,
            if i + 1 == tpa_sweep.len() { "" } else { "," }
        ));
    }
    j.push_str("  ]\n}\n");
    std::fs::write(&out, &j).unwrap_or_else(|e| {
        eprintln!("aggregation: cannot write {out}: {e}");
        std::process::exit(1);
    });
    eprintln!("wrote {out}");

    let wall = t_all.elapsed();
    if wall.as_secs() >= budget_secs {
        eprintln!("aggregation: exceeded budget of {budget_secs}s");
        std::process::exit(2);
    }

    // Gate 1: at small records with heavy block sharing, aggregation must
    // at least double the independent-mode bandwidth.
    for s in samples.iter().filter(|s| s.record <= 4 << 10 && s.span >= 64) {
        if s.ratio < 2.0 {
            eprintln!(
                "WARNING: aggregated only {:.2}x independent at {}B records \
                 ({} tasks/block)",
                s.ratio, s.record, s.span
            );
            std::process::exit(3);
        }
    }
    // Gate 2: at large aligned records there is nothing to win — the
    // shipment detour must cost at most 10%.
    for s in samples.iter().filter(|s| s.record >= 1 << 20 && s.aligned) {
        if s.ratio < 0.9 {
            eprintln!(
                "WARNING: aggregated is {:.2}x independent at {}B aligned records",
                s.ratio, s.record
            );
            std::process::exit(3);
        }
    }
}
