//! `metadata_scaling [--quick] [--out <path>] [--budget-secs S]` — serial
//! metadata open+seek latency, lazy vs. eager, swept 256 → 64Ki ranks.
//!
//! For each rank count a multifile is written serially, then two ways of
//! answering the same question — "where is the last rank's byte at
//! logical position `pos`?" — are timed on fresh opens:
//!
//! * **eager**: `Multifile::open` + `locations()` (the full O(ranks·blocks)
//!   materialization every consumer paid before the lazy open existed) +
//!   the seek;
//! * **lazy**: `Multifile::open` (header-only) + `seek_logical` (one
//!   chunk-index fetch for the queried rank, binary search over its
//!   prefix sums).
//!
//! Writes a JSON report (default `BENCH_metadata.json`). Acceptance gate:
//! the lazy path must beat the eager walk by ≥ 10× at the largest swept
//! rank count ≥ 16Ki (exit 3 otherwise). `--budget-secs` bounds wall
//! clock like `par_smoke` (exit 2 on overrun), so the CI quick step
//! doubles as the 16Ki-rank lazy serial open+seek smoke.

use bench::arg;
use sion::{Multifile, SerialWriter, SionParams};
use std::time::Instant;
use vfs::MemFs;

/// Deterministic payload length per rank: 1–4 blocks of the 128-byte
/// chunks, so seeks cross block boundaries and the eager walk has real
/// per-rank chunk lists to build.
fn payload_len(rank: usize) -> usize {
    100 + (rank % 7) * 60
}

/// Build the test multifile: `ranks` tasks, 128-byte chunks, a few files.
fn build(fs: &MemFs, base: &str, ranks: usize) {
    let chunksizes = vec![128u64; ranks];
    let params = SionParams::new(128)
        .with_nfiles(if ranks >= 4096 { 8 } else { 2 })
        .with_write_buffer(512);
    let mut w = SerialWriter::create(fs, base, &chunksizes, &params).expect("create");
    for rank in 0..ranks {
        w.select_rank(rank).expect("select");
        let data: Vec<u8> =
            (0..payload_len(rank)).map(|i| ((i * 31 + rank * 131 + 7) % 251) as u8).collect();
        w.write(&data).expect("write");
    }
    w.close().expect("close");
}

/// One timed open+seek, minimum over `reps` fresh opens.
fn timed(reps: usize, mut f: impl FnMut() -> (u64, u64)) -> f64 {
    let mut best = f64::MAX;
    let mut witness: Option<(u64, u64)> = None;
    for _ in 0..reps {
        let t = Instant::now();
        let got = f();
        best = best.min(t.elapsed().as_secs_f64() * 1e6);
        // Keep the resolved (chunk, offset) observable so the work cannot
        // be optimized away, and check it is stable across fresh opens.
        match witness {
            None => witness = Some(got),
            Some(w) => assert_eq!(w, got, "seek result changed between reps"),
        }
    }
    best
}

struct Sample {
    ranks: usize,
    eager_us: f64,
    lazy_us: f64,
    speedup: f64,
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let budget_secs: u64 = arg(&args, "--budget-secs").unwrap_or(300);
    let out: String = arg(&args, "--out").unwrap_or_else(|| "BENCH_metadata.json".to_string());

    let ranks: &[usize] = if quick {
        &[1024, 16384]
    } else {
        &[256, 1024, 4096, 16384, 65536]
    };
    let t_all = Instant::now();

    let mut samples: Vec<Sample> = Vec::new();
    for &p in ranks {
        let fs = MemFs::with_block_size(4096);
        let base = format!("meta_{p}.sion");
        build(&fs, &base, p);
        let reps = if quick { 3 } else { 5 };
        // The query a tool like `sioncat --seek` actually asks: last rank
        // (worst case for any linear walk), a position past the first
        // chunk boundary.
        let rank = p - 1;
        let pos = 130u64.min(payload_len(rank) as u64 - 1);

        // Both paths must resolve the seek identically before we bother
        // timing them.
        {
            let mf = Multifile::open(&fs, &base).expect("open");
            let lazy = mf.seek_logical(rank, pos).expect("seek").expect("in range");
            let all = mf.locations().expect("locations");
            let eager = all.tasks[rank].find_chunk(pos).expect("in range");
            assert_eq!(lazy, eager, "lazy and eager seek disagree");
        }

        let eager_us = timed(reps, || {
            let mf = Multifile::open(&fs, &base).expect("open");
            let all = mf.locations().expect("locations");
            let t = &all.tasks[rank];
            let (c, off) = t.find_chunk(pos).expect("in range");
            (c, off)
        });
        let lazy_us = timed(reps, || {
            let mf = Multifile::open(&fs, &base).expect("open");
            let (c, off) = mf.seek_logical(rank, pos).expect("seek").expect("in range");
            (c, off)
        });

        let speedup = eager_us / lazy_us;
        eprintln!(
            "{p:>6} ranks: eager open+seek {eager_us:>10.1}us  lazy {lazy_us:>8.1}us  \
             ({speedup:.1}x)"
        );
        samples.push(Sample { ranks: p, eager_us, lazy_us, speedup });
    }

    let mut j = String::from("{\n");
    j.push_str("  \"bench\": \"metadata_scaling\",\n");
    j.push_str(&format!(
        "  \"mode\": \"{}\",\n",
        if quick { "quick" } else { "full" }
    ));
    j.push_str(
        "  \"notes\": \"open+first-seek at the last rank; eager = open + full \
         locations() materialization + seek, lazy = header open + per-rank \
         chunk-index fetch + binary-search seek; min over reps on MemFs\",\n",
    );
    j.push_str("  \"results\": [\n");
    for (i, s) in samples.iter().enumerate() {
        j.push_str(&format!(
            "    {{\"ranks\": {}, \"eager_open_seek_us\": {:.2}, \
             \"lazy_open_seek_us\": {:.2}, \"speedup\": {:.2}}}{}\n",
            s.ranks,
            s.eager_us,
            s.lazy_us,
            s.speedup,
            if i + 1 == samples.len() { "" } else { "," }
        ));
    }
    j.push_str("  ]\n}\n");
    std::fs::write(&out, &j).unwrap_or_else(|e| {
        eprintln!("metadata_scaling: cannot write {out}: {e}");
        std::process::exit(1);
    });
    eprintln!("wrote {out}");

    let wall = t_all.elapsed();
    if wall.as_secs() >= budget_secs {
        eprintln!("metadata_scaling: exceeded budget of {budget_secs}s");
        std::process::exit(2);
    }

    // Acceptance gate: ≥10× at the largest swept P that is ≥ 16Ki.
    if let Some(s) = samples.iter().rev().find(|s| s.ranks >= 16384) {
        if s.speedup < 10.0 {
            eprintln!(
                "WARNING: lazy open+seek only {:.1}x faster than eager at {} ranks",
                s.speedup, s.ranks
            );
            std::process::exit(3);
        }
    }
}
