//! `collective_scaling [--quick] [--out <path>]` — collective scaling
//! sweep across all three runtimes.
//!
//! For each rank count the same script runs on the tree engine under its
//! thread driver ([`World`]), the slot-and-barrier baseline
//! ([`FlatWorld`]), and the tree engine under its executor driver
//! ([`TaskWorld`]): raw collective micro-latencies (barrier, 32 B bcast,
//! 32 B gather, 16 B allgather) plus the end-to-end latency of the packed
//! `paropen_write`/`close` protocol, and the collective round count one
//! open+close costs on the file-group and global communicators (a
//! protocol constant, identical for every runtime — the point of the
//! packed exchange is that only the *latency per round* changes).
//!
//! Thread runtimes stop at [`MAX_THREAD_RANKS`] — beyond that, P OS
//! threads and their stacks are the bottleneck being replaced. The task
//! runtime sweeps to 64Ki ranks — the scale the SC'09 paper actually ran
//! at — on a handful of workers.
//!
//! Writes a JSON report (default `BENCH_collectives.json`); `--quick`
//! shrinks the sweep and repetition counts for CI.

use simmpi::{CoComm, Comm, FlatWorld, SchedPolicy, TaskWorld, World};
use sion::{paropen_write, paropen_write_co, SionParams};
use std::time::Instant;
use vfs::MemFs;

/// Thread-per-rank is only swept this far; past it, spawning P OS threads
/// dominates every measurement.
const MAX_THREAD_RANKS: usize = 512;

/// One (ranks, runtime) measurement.
struct Sample {
    ranks: usize,
    runtime: &'static str,
    barrier_us: f64,
    bcast_us: f64,
    gather_us: f64,
    allgather_us: f64,
    open_us: f64,
    close_us: f64,
    /// Collective rounds one open+close costs on lcom+gcom (protocol
    /// constant).
    open_close_rounds: u64,
    /// Bytes the runtime moved for those rounds (frames for the tree,
    /// slot deposits for flat).
    open_close_bytes: u64,
}

/// Raw per-rank measurements, before (ranks, runtime) labelling.
struct Raw {
    barrier_us: f64,
    bcast_us: f64,
    gather_us: f64,
    allgather_us: f64,
    open_us: f64,
    close_us: f64,
    rounds: u64,
    bytes: u64,
}

/// Bench parameters for the packed open/close measurement. A small write
/// buffer keeps 64Ki concurrent writers inside real memory (the default
/// 128 KiB buffer would be 8 GiB of buffers alone at that P).
fn bench_params() -> SionParams {
    SionParams::new(1024).with_nfiles(2).with_write_buffer(2048)
}

/// Per-rank body; returns `Some(measurements)` on rank 0 only. All ranks
/// execute identical collective sequences, so rank 0's wall-clock between
/// barriers is representative of the collective's completion latency.
fn body(c: &dyn Comm, fs: &MemFs, iters: usize, reps: usize) -> Option<Raw> {
    let me = c.rank() == 0;
    let payload = [7u8; 32];

    // Warm up mailboxes/slots once so first-touch allocation is excluded.
    c.barrier();
    let _ = c.bcast(me.then(|| payload.to_vec()), 0);

    let timed = |f: &mut dyn FnMut()| -> f64 {
        c.barrier();
        let t = Instant::now();
        for _ in 0..iters {
            f();
        }
        t.elapsed().as_secs_f64() * 1e6 / iters as f64
    };
    let barrier_us = timed(&mut || c.barrier());
    let bcast_us = timed(&mut || {
        let _ = c.bcast(me.then(|| payload.to_vec()), 0);
    });
    let gather_us = timed(&mut || {
        let _ = c.gather(&payload, 0);
    });
    let allgather_us = timed(&mut || {
        let _ = c.allgather(&payload[..16]);
    });

    // End-to-end packed open/close. Minimum over reps: collective latency
    // is a floor-bound quantity, scheduling noise only ever adds.
    let params = bench_params();
    let (mut open_us, mut close_us) = (f64::MAX, f64::MAX);
    let (mut rounds, mut bytes) = (0u64, 0u64);
    for rep in 0..reps {
        let name = format!("sweep_{}_{rep}.sion", c.size());
        c.barrier();
        let t = Instant::now();
        let mut w = paropen_write(fs, &name, &params, c).expect("bench open");
        open_us = open_us.min(t.elapsed().as_secs_f64() * 1e6);
        w.write(&payload).expect("bench write");
        let (l, g) = (w.local_comm_stats(), w.global_comm_stats());
        c.barrier();
        let t = Instant::now();
        w.close().expect("bench close");
        close_us = close_us.min(t.elapsed().as_secs_f64() * 1e6);
        if let (Some(l), Some(g)) = (l, g) {
            rounds = l.collectives() + g.collectives();
            bytes = l.bytes_sent() + g.bytes_sent();
        }
    }

    me.then_some(Raw {
        barrier_us,
        bcast_us,
        gather_us,
        allgather_us,
        open_us,
        close_us,
        rounds,
        bytes,
    })
}

/// The same measurement sequence as [`body`], written against [`CoComm`]
/// so the task runtime executes it as resumable coroutines (parking on
/// each collective round instead of blocking a thread).
async fn body_co(c: &dyn CoComm, fs: &MemFs, iters: usize, reps: usize) -> Option<Raw> {
    let me = c.rank() == 0;
    let payload = [7u8; 32];

    c.barrier().await;
    let _ = c.bcast(me.then(|| payload.to_vec()), 0).await;

    c.barrier().await;
    let t = Instant::now();
    for _ in 0..iters {
        c.barrier().await;
    }
    let barrier_us = t.elapsed().as_secs_f64() * 1e6 / iters as f64;

    c.barrier().await;
    let t = Instant::now();
    for _ in 0..iters {
        let _ = c.bcast(me.then(|| payload.to_vec()), 0).await;
    }
    let bcast_us = t.elapsed().as_secs_f64() * 1e6 / iters as f64;

    c.barrier().await;
    let t = Instant::now();
    for _ in 0..iters {
        let _ = c.gather(&payload, 0).await;
    }
    let gather_us = t.elapsed().as_secs_f64() * 1e6 / iters as f64;

    // The scan-shaped shared-frame allgather — the variant `paropen`
    // actually issues. (The classic `allgather` hands every rank its own
    // Vec<Vec<u8>>, whose O(P) allocations per rank would measure the
    // API's materialization cost, not the collective.)
    c.barrier().await;
    let t = Instant::now();
    for _ in 0..iters {
        let _ = c.allgather_shared(&payload[..16]).await;
    }
    let allgather_us = t.elapsed().as_secs_f64() * 1e6 / iters as f64;

    let params = bench_params();
    let (mut open_us, mut close_us) = (f64::MAX, f64::MAX);
    let (mut rounds, mut bytes) = (0u64, 0u64);
    for rep in 0..reps {
        let name = format!("sweep_{}_{rep}.sion", c.size());
        c.barrier().await;
        let t = Instant::now();
        let mut w = paropen_write_co(fs, &name, &params, c).await.expect("bench open");
        open_us = open_us.min(t.elapsed().as_secs_f64() * 1e6);
        w.write(&payload).expect("bench write");
        let (l, g) = (w.local_comm_stats(), w.global_comm_stats());
        c.barrier().await;
        let t = Instant::now();
        w.close_co().await.expect("bench close");
        close_us = close_us.min(t.elapsed().as_secs_f64() * 1e6);
        if let (Some(l), Some(g)) = (l, g) {
            rounds = l.collectives() + g.collectives();
            bytes = l.bytes_sent() + g.bytes_sent();
        }
    }

    me.then_some(Raw {
        barrier_us,
        bcast_us,
        gather_us,
        allgather_us,
        open_us,
        close_us,
        rounds,
        bytes,
    })
}

fn run_case(runtime: &'static str, ranks: usize, iters: usize, reps: usize) -> Sample {
    let fs = MemFs::with_block_size(512);
    let got = match runtime {
        "tree" => World::run(ranks, |c| body(c, &fs, iters, reps)),
        "flat" => FlatWorld::run(ranks, |c| body(c, &fs, iters, reps)),
        "task-tree" => {
            TaskWorld::run_with(SchedPolicy::host(), ranks, |c| {
                let fs = &fs;
                async move { body_co(&c, fs, iters, reps).await }
            })
            .0
        }
        other => panic!("unknown runtime {other}"),
    };
    let raw = got.into_iter().flatten().next().expect("rank 0 reports");
    Sample {
        ranks,
        runtime,
        barrier_us: raw.barrier_us,
        bcast_us: raw.bcast_us,
        gather_us: raw.gather_us,
        allgather_us: raw.allgather_us,
        open_us: raw.open_us,
        close_us: raw.close_us,
        open_close_rounds: raw.rounds,
        open_close_bytes: raw.bytes,
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let out = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1).cloned())
        .unwrap_or_else(|| "BENCH_collectives.json".to_string());

    // The task runtime sweeps to 64Ki ranks — the paper's scale. The
    // thread runtimes stop at MAX_THREAD_RANKS and stand as baselines.
    let ranks: &[usize] = if quick {
        &[4, 16, 64, 256, 1024]
    } else {
        &[
            4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096, 8192, 16384, 32768, 65536,
        ]
    };

    let mut samples: Vec<Sample> = Vec::new();
    for &p in ranks {
        // Amortize startup cost at small P, bound wall-clock at large.
        let iters = if quick { 4 } else { (2048 / p).clamp(1, 128) };
        let reps = match (quick, p) {
            (true, _) => 2,
            (false, p) if p > 1024 => 2,
            _ => 8,
        };
        let runtimes: &[&'static str] = if p <= MAX_THREAD_RANKS {
            &["flat", "tree", "task-tree"]
        } else {
            &["task-tree"]
        };
        for &rt in runtimes {
            let s = run_case(rt, p, iters, reps);
            eprintln!(
                "{:>5} ranks {:>9}: barrier {:>9.1}us bcast {:>9.1}us gather {:>9.1}us \
                 allgather {:>9.1}us open {:>10.1}us close {:>10.1}us ({} rounds)",
                s.ranks,
                s.runtime,
                s.barrier_us,
                s.bcast_us,
                s.gather_us,
                s.allgather_us,
                s.open_us,
                s.close_us,
                s.open_close_rounds
            );
            samples.push(s);
        }
    }

    // Where does the thread-driven tree beat the flat baseline on combined
    // open+close latency? Both sides pay a real thread wake-up per message
    // or rendezvous, which is the latency the tree's log-P round structure
    // is built to hide; the gate below holds the tree to it.
    let total = |samples: &[Sample], p: usize, rt: &str| {
        samples
            .iter()
            .find(|s| s.ranks == p && s.runtime == rt)
            .map(|s| s.open_us + s.close_us)
    };
    let mut tree_wins: Vec<usize> = Vec::new();
    let mut tree_losses: Vec<usize> = Vec::new();
    for &p in ranks {
        if let (Some(tt), Some(ff)) = (total(&samples, p, "tree"), total(&samples, p, "flat")) {
            if tt < ff {
                tree_wins.push(p);
            } else {
                tree_losses.push(p);
            }
        }
    }

    let mut j = String::from("{\n");
    j.push_str("  \"bench\": \"collective_scaling\",\n");
    j.push_str(&format!(
        "  \"mode\": \"{}\",\n",
        if quick { "quick" } else { "full" }
    ));
    j.push_str(&format!("  \"max_thread_ranks\": {MAX_THREAD_RANKS},\n"));
    j.push_str(
        "  \"notes\": \"the task runtime measures allgather via the shared-frame \
         allgather_shared (the variant paropen issues); thread runtimes use the \
         classic copying allgather\",\n",
    );
    j.push_str(&format!(
        "  \"ranks\": [{}],\n",
        ranks
            .iter()
            .map(|p| p.to_string())
            .collect::<Vec<_>>()
            .join(", ")
    ));
    j.push_str(&format!(
        "  \"thread_tree_wins_open_close_at\": [{}],\n",
        tree_wins
            .iter()
            .map(|p| p.to_string())
            .collect::<Vec<_>>()
            .join(", ")
    ));
    j.push_str("  \"results\": [\n");
    for (i, s) in samples.iter().enumerate() {
        j.push_str(&format!(
            "    {{\"ranks\": {}, \"runtime\": \"{}\", \"barrier_us\": {:.2}, \
             \"bcast_us\": {:.2}, \"gather_us\": {:.2}, \"allgather_us\": {:.2}, \
             \"open_us\": {:.2}, \"close_us\": {:.2}, \"open_close_rounds\": {}, \
             \"open_close_bytes\": {}}}{}\n",
            s.ranks,
            s.runtime,
            s.barrier_us,
            s.bcast_us,
            s.gather_us,
            s.allgather_us,
            s.open_us,
            s.close_us,
            s.open_close_rounds,
            s.open_close_bytes,
            if i + 1 == samples.len() { "" } else { "," }
        ));
    }
    j.push_str("  ]\n}\n");

    std::fs::write(&out, &j).unwrap_or_else(|e| {
        eprintln!("collective_scaling: cannot write {out}: {e}");
        std::process::exit(1);
    });
    eprintln!("wrote {out}");

    // Acceptance gate: at the largest P where both thread runtimes ran,
    // the tree must beat flat on open+close — which also guards the thread
    // driver against regressions. Smaller P are noise-bound (and
    // uninteresting — flat SHOULD win tiny runs).
    if let Some(&top) = tree_wins.iter().chain(tree_losses.iter()).max() {
        if tree_losses.contains(&top) {
            eprintln!("WARNING: tree did not beat flat open+close at P = {top}");
            std::process::exit(3);
        }
    }
}
