//! `par_smoke [--ranks N] [--budget-secs S]` — a real (non-scripted)
//! `sion::par` open/write/close run on the task runtime, at rank counts in
//! the tens of thousands.
//!
//! Every rank opens the shared multifile collectively, writes a
//! deterministic payload, and closes; the produced image is then verified
//! rank-by-rank through the serial global view. Wall clock is checked
//! against `--budget-secs` (exit 2 on overrun) so CI catches scheduler
//! regressions as time, not hangs. The summary line ends with the
//! process's peak resident set (`VmHWM`), in all and per rank, which
//! `ci.sh` bounds. With `SIMCHECK=1` in the environment
//! the run additionally executes under the passive sanitizer (use a
//! smaller `--ranks` there — the checks serialize some paths).

use bench::arg;
use simmpi::{SchedPolicy, TaskWorld};
use sion::{paropen_write_co, Multifile, SionParams};
use std::time::Instant;
use vfs::MemFs;

/// `VmHWM` of this process in KiB, read from `/proc/self/status`; 0 where
/// there is none.
fn peak_rss_kib() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let kib = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok());
    kib.unwrap_or(0)
}

/// Deterministic per-rank payload.
fn payload(rank: usize, len: usize) -> Vec<u8> {
    (0..len).map(|i| ((i * 31 + rank * 131 + 7) % 251) as u8).collect()
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let ranks: usize = arg(&args, "--ranks").unwrap_or(16384);
    let budget_secs: u64 = arg(&args, "--budget-secs").unwrap_or(120);
    let bytes_per_rank: usize = arg(&args, "--bytes").unwrap_or(512);
    let nfiles: u32 = arg(&args, "--nfiles").unwrap_or(16);

    // Small chunk and write buffer: at 16Ki+ concurrent writers the
    // default 128 KiB buffer alone would dwarf the data being written.
    let params = SionParams::new(1024)
        .with_nfiles(nfiles)
        .with_write_buffer(2048);
    let fs = MemFs::with_block_size(4096);

    let t = Instant::now();
    let (_, sched) = TaskWorld::run_with(SchedPolicy::host(), ranks, |c| {
        let fs = &fs;
        let params = &params;
        async move {
            // Rank 0 attributes wall clock to protocol phases; under
            // cooperative scheduling its await spans cover the whole
            // world's progress through each phase, so the three numbers
            // partition the run and pinpoint scaling regressions.
            let phases = c.rank() == 0;
            let data = payload(c.rank(), bytes_per_rank);
            let t = Instant::now();
            let mut w = paropen_write_co(fs, "smoke/out.sion", params, &c)
                .await
                .expect("collective open");
            let t_open = t.elapsed();
            for piece in data.chunks(192) {
                w.write(piece).expect("write");
            }
            let t_write = t.elapsed() - t_open;
            let stats = w.close_co().await.expect("collective close");
            if phases {
                eprintln!(
                    "par_smoke: rank0 phases: open {:.2}s, write {:.2}s, close {:.2}s",
                    t_open.as_secs_f64(),
                    t_write.as_secs_f64(),
                    (t.elapsed() - t_open - t_write).as_secs_f64(),
                );
            }
            assert_eq!(stats.user_bytes, bytes_per_rank as u64);
        }
    });
    let wall = t.elapsed();

    // Serial read-back: the image must be complete and correct.
    let mf = Multifile::open(&fs, "smoke/out.sion").expect("image opens");
    assert_eq!(mf.ntasks(), ranks, "all ranks present");
    let step = (ranks / 17).max(1);
    for rank in (0..ranks).step_by(step).chain([ranks - 1]) {
        assert_eq!(
            mf.read_rank(rank).expect("rank data"),
            payload(rank, bytes_per_rank),
            "rank {rank} read-back"
        );
    }

    let peak_kib = peak_rss_kib();
    eprintln!(
        "par_smoke: {ranks} ranks x {bytes_per_rank} B across {nfiles} file(s) in {:.2}s \
         ({} workers, {} polls, {} wakes, {} parks, {} steals, peak mailbox {} msgs / {} B, \
         peak RSS {peak_kib} KiB = {} B a rank)",
        wall.as_secs_f64(),
        sched.workers,
        sched.polls,
        sched.wakes,
        sched.parks,
        sched.steals,
        sched.peak_mailbox_msgs,
        sched.peak_mailbox_bytes,
        peak_kib * 1024 / ranks as u64,
    );

    if wall.as_secs() >= budget_secs {
        eprintln!("par_smoke: exceeded budget of {budget_secs}s");
        std::process::exit(2);
    }
}
