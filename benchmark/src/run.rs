//! One run of one workload: set-up, timed reps, metrics.

use crate::cycle::{Counts, Cycle, RepOut, Trace};
use crate::layers;
use crate::metrics::Measurements;
use crate::span::TraceLog;
use crate::stats::{median, Summary};
use crate::workload::{Payload, Spec};
use std::path::Path;
use std::time::{Duration, Instant};

/// Times an untraced run sets up from scratch (payload, file systems,
/// warm-up rep); `setup_s` is the median. A set-up either reuses the memory
/// its predecessor freed or faults it in again, whichever the allocator
/// decided, so the three differ by up to 3x on `bulk_4k`.
///
/// The timed reps all run on the last set-up: the first reps after a set-up
/// are still faulting pages in, so sharing the reps out among the set-ups
/// would time that instead of the steady state.
const SETUPS: usize = 3;
/// Fewest reps a timing is the median of, in an untraced run.
const MIN_REPS: usize = 3;
/// Fewest pairs of an untraced and a traced rep in a traced run.
const MIN_TRACED_PAIRS: usize = 3;

/// What one run measured.
pub struct Outcome {
    /// Every byte read back equalled the source, every tool check passed,
    /// and every `exact` count was the same in every rep.
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// End-to-end metrics (untraced run) or per-layer metrics (traced run).
    pub metrics: Measurements,
    /// Reps the timings are medians of.
    pub reps: usize,
    pub user_bytes: u64,
    pub workers: usize,
}

impl Outcome {
    /// The process exit code: non-zero unless the run was correct.
    pub fn exit_code(&self) -> u8 {
        !self.correct as u8
    }
}

/// Generate the payload, build both file systems and run the discarded
/// warm-up rep (rep 0), which lets page faults, allocator growth and lazy
/// initialisation finish before anything is timed.
fn set_up(spec: &Spec, seed: u64) -> (Cycle<'_>, RepOut) {
    let cycle = Cycle::new(spec, Payload::generate(spec, seed));
    let warm_up = cycle.rep(0, None);
    (cycle, warm_up)
}

/// Call `one` at least `min` times, then again while another call of
/// average length still fits into `budget`.
fn repeat<T>(min: usize, budget: Duration, mut one: impl FnMut(u32) -> T) -> Vec<T> {
    let start = Instant::now();
    let mut done = Vec::new();
    let fits = |n: u32| start.elapsed() / n * (n + 1) <= budget;
    while done.len() < min || fits(done.len() as u32) {
        done.push(one(done.len() as u32));
    }
    done
}

fn column(reps: &[RepOut], f: impl Fn(&RepOut) -> f64) -> Vec<f64> {
    reps.iter().map(f).collect()
}

/// `VmHWM` of this process in MiB.
fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let kib = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok());
    kib.expect("VmHWM in /proc/self/status") / 1024.0
}

fn tally(all: &[&RepOut]) -> (bool, u64, u64) {
    let attempted = all.iter().map(|r| r.attempted).sum();
    let failed: u64 = all.iter().map(|r| r.failed).sum();
    let counts_repeat = all.iter().all(|r| r.counts == all[0].counts);
    if !counts_repeat {
        eprintln!("sionbench: an exact count differed between reps of one run");
    }
    (failed == 0 && counts_repeat, attempted, failed)
}

/// The untraced run: end-to-end metrics.
pub fn end_to_end(spec: &Spec, seed: u64, seconds: f64) -> Outcome {
    let (mut setup_s, mut warm_ups) = (Vec::new(), Vec::new());
    let mut kept = None;
    for _ in 0..SETUPS {
        // Free the previous set-up first, so the peak is one set-up's.
        drop(kept.take());
        let start = Instant::now();
        let (cycle, warm_up) = set_up(spec, seed);
        setup_s.push(start.elapsed().as_secs_f64());
        warm_ups.push(warm_up);
        kept = Some(cycle);
    }
    let cycle = kept.expect("SETUPS > 0");
    let budget = Duration::from_secs_f64(seconds);
    let reps = repeat(MIN_REPS, budget, |i| cycle.rep(1 + i, None));
    let user_bytes = cycle.payload.user_bytes();

    let mut m = Measurements::default();
    m.samples("setup_s", &setup_s);
    m.samples("ckpt_s", &column(&reps, |r| r.ckpt_s));
    m.samples("restart_s", &column(&reps, |r| r.restart_s));
    m.samples("tool_s", &column(&reps, |r| r.tool_s));
    m.value(
        "stored_per_user_byte",
        reps[0].counts.stored_bytes as f64 / user_bytes as f64,
    );
    m.value("peak_rss_mib", peak_rss_mib());

    let all: Vec<&RepOut> = warm_ups.iter().chain(&reps).collect();
    let (correct, attempted, failed) = tally(&all);
    Outcome {
        correct,
        attempted,
        failed,
        metrics: m,
        reps: reps.len(),
        user_bytes,
        workers: reps[0].sched_ckpt.workers,
    }
}

/// The traced run: per-layer metrics, and the span file under `out_dir`.
///
/// Untraced and traced reps alternate for 60 % of `seconds`, so the tracing
/// overhead is measured inside the run that reports it and a drift of the
/// host hits both series alike; the rest of `seconds` is left for the
/// ceilings and micro-timings.
pub fn per_layer(spec: &Spec, seed: u64, seconds: f64, out_dir: &Path) -> Outcome {
    let (cycle, warm_up) = set_up(spec, seed);
    let budget = Duration::from_secs_f64(seconds * 0.6);
    let mut trace = Trace::default();
    let (plain, traced): (Vec<RepOut>, Vec<RepOut>) = repeat(MIN_TRACED_PAIRS, budget, |i| {
        let plain = cycle.rep(1 + 2 * i, None);
        (plain, cycle.rep(2 + 2 * i, Some(&mut trace)))
    })
    .into_iter()
    .unzip();

    let mut m = Measurements::default();
    let payload = &cycle.payload;
    let user_bytes = payload.user_bytes();
    let n = traced.len() as f64;
    let last = traced.last().expect("at least one rep");

    layers::vfs_ceilings(&mut m, &out_dir.join("localfs"));
    layers::simmpi_micro(&mut m, spec);
    layers::szip_direct(&mut m, payload);

    // vfs: everything that went through TimedFs, per traced rep (the two
    // serial extras of a traced tools pass included).
    let load =
        |a: &std::sync::atomic::AtomicU64| a.load(std::sync::atomic::Ordering::Relaxed) as f64;
    let v = &trace.vfs;
    m.value("vfs.write_calls", load(&v.write_calls) / n);
    m.value("vfs.write_bytes", load(&v.write_bytes) / n);
    m.value("vfs.write_busy_s", load(&v.write_ns) / 1e9 / n);
    m.value("vfs.read_calls", load(&v.read_calls) / n);
    m.value("vfs.read_bytes", load(&v.read_bytes) / n);
    m.value("vfs.read_busy_s", load(&v.read_ns) / 1e9 / n);
    m.value("vfs.lease_calls", load(&v.lease_calls) / n);
    m.value("vfs.namespace_calls", load(&v.namespace_calls) / n);
    m.value("vfs.namespace_busy_s", load(&v.namespace_ns) / 1e9 / n);
    m.value("vfs.errors", load(&v.errors));

    // stream: the write and read loops, summed over ranks, per rep.
    let log = &trace.log;
    let write_busy_s = log.busy_s("stream.write") / n;
    m.value("stream.write_busy_s", write_busy_s);
    m.value("stream.write_self_s", log.self_s("stream.write", None) / n);
    m.value("stream.read_busy_s", log.busy_s("stream.read") / n);
    m.value("stream.read_self_s", log.self_s("stream.read", None) / n);
    let Counts {
        write_io: w,
        read_io: r,
        agg,
        ..
    } = last.counts;
    m.value("stream.user_calls", w.user_calls as f64);
    m.value("stream.vfs_calls", w.vfs_calls as f64);
    m.value(
        "stream.coalescing",
        w.user_calls as f64 / w.vfs_calls as f64,
    );
    m.value(
        "stream.copied_per_byte",
        w.bytes_copied as f64 / user_bytes as f64,
    );
    m.value("stream.flushes", w.flushes as f64);
    m.value("stream.allocs", w.allocs as f64);
    m.value("stream.vectored_writes", w.vectored_writes as f64);
    let ceiling_gbps = m.median_of("vfs.memfs_write_1m_gbps");
    m.value(
        "stream.write_frac_of_ceiling",
        user_bytes as f64 / 1e9 / write_busy_s / ceiling_gbps,
    );
    m.value(
        "stream.read_coalescing",
        r.user_calls as f64 / r.vfs_calls as f64,
    );
    m.value(
        "stream.read_copied_per_byte",
        r.bytes_copied as f64 / user_bytes as f64,
    );

    // simmpi: scheduler counters vary with work stealing, so take medians;
    // communicator counters are exact.
    let sched = |f: &dyn Fn(&RepOut) -> u64| median(&column(&traced, |r| f(r) as f64));
    m.value("simmpi.polls", sched(&|r| r.sched_ckpt.polls));
    m.value("simmpi.parks", sched(&|r| r.sched_ckpt.parks));
    m.value("simmpi.wakes", sched(&|r| r.sched_ckpt.wakes));
    m.value("simmpi.steals", sched(&|r| r.sched_ckpt.steals));
    m.value(
        "simmpi.peak_mailbox_bytes",
        sched(&|r| r.sched_ckpt.peak_mailbox_bytes),
    );
    m.value("simmpi.frame_allocs", sched(&|r| r.sched_ckpt.frame_allocs));
    m.value("simmpi.frame_reuses", sched(&|r| r.sched_ckpt.frame_reuses));
    m.value("simmpi.polls_restart", sched(&|r| r.sched_restart.polls));
    m.value("simmpi.coll_ops", last.counts.coll_ops as f64);
    m.value("simmpi.p2p_msgs", last.counts.p2p_msgs as f64);
    m.value("simmpi.bytes_sent", last.counts.bytes_sent as f64);

    // par: rank 0's span of each collective call ends in a synchronising
    // step, so it covers the world.
    let ranks = spec.ranks as f64;
    for (metric, span) in [
        ("open", "par.open"),
        ("close", "par.close"),
        ("ropen", "par.ropen"),
        ("rclose", "par.rclose"),
    ] {
        m.samples(&format!("par.{metric}_s"), &rank0_per_rep(log, span));
    }
    // The fastest rank waited least for the others: the protocol's own cost.
    m.samples("par.open_min_s", &min_per_rep(log, "par.open"));
    m.samples("par.close_min_s", &min_per_rep(log, "par.close"));
    m.value("par.open_rank_mean_s", log.busy_s("par.open") / n / ranks);
    m.value("par.close_rank_mean_s", log.busy_s("par.close") / n / ranks);
    m.value("par.open_self_s", log.self_s("par.open", Some(0)) / n);
    m.value("par.close_self_s", log.self_s("par.close", Some(0)) / n);

    m.value("agg.shipments", agg.shipments as f64);
    m.value("agg.acked_shipments", agg.acked_shipments as f64);
    m.value("agg.shipped_bytes", agg.shipped_bytes as f64);
    m.value(
        "agg.ship_bytes_per_user_byte",
        agg.shipped_bytes as f64 / user_bytes as f64,
    );
    m.value("agg.aggregators", last.roles.aggregators as f64);
    m.value(
        "agg.member_close_mean_s",
        median(&column(&traced, |r| r.roles.member_close_mean_s)),
    );
    m.value(
        "agg.aggregator_close_mean_s",
        median(&column(&traced, |r| r.roles.aggregator_close_mean_s)),
    );

    m.value("serial.open_us", log.busy_s("serial.open") / n * 1e6);
    m.value(
        "serial.location_us",
        log.busy_s("serial.location") / n / ranks * 1e6,
    );
    let cat_ranks = [0, spec.ranks / 2, spec.ranks - 1];
    let read_bytes: u64 = cat_ranks.iter().map(|&r| payload.total[r]).sum();
    m.value(
        "serial.read_rank_gbps",
        read_bytes as f64 / 1e9 / (log.busy_s("serial.read_rank") / n),
    );
    for tool in ["verify", "defrag", "cat", "dump"] {
        m.value(
            &format!("tools.{tool}_s"),
            log.busy_s(&format!("tools.{tool}")) / n,
        );
    }

    let cycle_s = |reps: &[RepOut]| median(&column(reps, |r| r.ckpt_s + r.restart_s + r.tool_s));
    m.value(
        "bench.trace_overhead_pct",
        (cycle_s(&traced) / cycle_s(&plain) - 1.0) * 100.0,
    );
    let ckpt = Summary::of(&column(&plain, |r| r.ckpt_s)).expect("at least one rep");
    m.value("bench.rep_spread_pct", ckpt.spread() * 100.0);

    std::fs::create_dir_all(out_dir).expect("output directory");
    let trace_path = out_dir.join(format!("{}.trace.jsonl", spec.name));
    log.write_jsonl(&trace_path).expect("write the span file");

    let all: Vec<&RepOut> = std::iter::once(&warm_up)
        .chain(&plain)
        .chain(&traced)
        .collect();
    let (correct, attempted, failed) = tally(&all);
    Outcome {
        correct,
        attempted,
        failed,
        metrics: m,
        reps: traced.len(),
        user_bytes,
        workers: last.sched_ckpt.workers,
    }
}

/// The shortest span `name` of any rank, one value per rep.
fn min_per_rep(log: &TraceLog, name: &str) -> Vec<f64> {
    let mut mins = std::collections::BTreeMap::new();
    for s in log.spans().iter().filter(|s| s.name == name) {
        let secs = s.busy_ns as f64 / 1e9;
        mins.entry(s.rep)
            .and_modify(|m: &mut f64| *m = m.min(secs))
            .or_insert(secs);
    }
    mins.into_values().collect()
}

/// Rank 0's busy time in span `name`, one value per rep.
fn rank0_per_rep(log: &TraceLog, name: &str) -> Vec<f64> {
    log.spans()
        .iter()
        .filter(|s| s.name == name && s.rank == 0)
        .map(|s| s.busy_ns as f64 / 1e9)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::tests::tiny;
    use crate::workload::PayloadKind;

    #[test]
    fn a_failed_operation_or_a_drifting_count_makes_the_run_incorrect() {
        let spec = tiny(PayloadKind::Random);
        let clean = RepOut::start(&spec);
        assert_eq!(tally(&[&clean, &clean]), (true, 2 * clean.attempted, 0));

        let mut failed = clean.clone();
        failed.failed = 2;
        assert_eq!(tally(&[&clean, &failed]), (false, 2 * clean.attempted, 2));

        let mut drifted = clean.clone();
        drifted.counts.coll_ops += 1;
        assert!(!tally(&[&clean, &drifted]).0);
    }

    #[test]
    fn an_incorrect_run_exits_non_zero() {
        let outcome = |correct| Outcome {
            correct,
            attempted: 1,
            failed: !correct as u64,
            metrics: Measurements::default(),
            reps: 1,
            user_bytes: 1,
            workers: 1,
        };
        assert_eq!(
            (outcome(true).exit_code(), outcome(false).exit_code()),
            (0, 1)
        );
    }
}
