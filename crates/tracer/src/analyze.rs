//! Postmortem trace analysis in the spirit of Scalasca's wait-state
//! search (paper §5.2, Fig. 7).
//!
//! Scalasca loads the task-local traces into a parallel analyzer and
//! searches for inefficiency patterns. We implement the serial equivalent
//! over both storage back-ends: a per-region time profile (inclusive time,
//! visit counts) and the classic **late-sender** pattern — a receive that
//! completes after it began waiting because the matching send started
//! late. The analyzer reads multifile traces through the task-local-view
//! serial interface ([`sion::Multifile::rank_reader`]), exactly the access
//! mode the paper describes for the Scalasca integration.

use crate::backend::{task_local_path, TraceBackend};
use crate::event::Event;
use sion::{Multifile, Result, SionError};
use std::collections::HashMap;
use vfs::Vfs;

/// Aggregated statistics of one region across all ranks.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RegionStats {
    /// Number of times the region was entered.
    pub visits: u64,
    /// Total inclusive time spent in the region (ns, summed over ranks).
    pub inclusive_ns: u64,
    /// Exclusive time: inclusive minus the time spent in nested regions
    /// (Scalasca's "self" time).
    pub exclusive_ns: u64,
}

/// Result of a trace analysis.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AnalysisReport {
    /// Ranks analyzed.
    pub nranks: usize,
    /// Events processed.
    pub events: u64,
    /// Per-region profile.
    pub regions: HashMap<u32, RegionStats>,
    /// Number of matched point-to-point message pairs.
    pub messages_matched: u64,
    /// Messages whose send was recorded after the matching receive's
    /// predecessor event — the late-sender wait-state count.
    pub late_senders: u64,
    /// Total late-sender waiting time (ns).
    pub late_sender_wait_ns: u64,
}

/// Analyze the traces `backend` stored for `nranks` ranks: region profile
/// and late-sender search. A multifile knows its rank count and must hold
/// `nranks`; task-local files are found by the caller's count.
pub fn analyze(vfs: &dyn Vfs, backend: &TraceBackend, nranks: usize) -> Result<AnalysisReport> {
    match backend {
        TraceBackend::TaskLocal { prefix } => report_of((0..nranks).map(|rank| {
            let f = vfs.open(&task_local_path(prefix, rank))?;
            let mut buf = vec![0u8; f.len()? as usize];
            f.read_exact_at(&mut buf, 0)?;
            Ok(buf)
        })),
        TraceBackend::Sion { base, .. } => {
            let mf = Multifile::open(vfs, base)?;
            if mf.ntasks() != nranks {
                return Err(SionError::Format(format!(
                    "trace multifile {base} holds {} ranks, {nranks} expected",
                    mf.ntasks()
                )));
            }
            report_of((0..nranks).map(|rank| mf.read_rank(rank)))
        }
    }
}

/// The analysis of every rank's encoded event stream, rank 0 first.
fn report_of(streams: impl ExactSizeIterator<Item = Result<Vec<u8>>>) -> Result<AnalysisReport> {
    let mut report = AnalysisReport {
        nranks: streams.len(),
        ..Default::default()
    };
    // (src, dst, tag) -> FIFO of send times, matching MPI ordering.
    let mut sends: HashMap<(u32, u32, u32), Vec<u64>> = HashMap::new();
    // Collect receives to match after all sends are known (traces are
    // per-rank, so matching must be global).
    let mut recvs: Vec<(u32, u32, u32, u64, u64)> = Vec::new(); // (src, dst, tag, recv_time, wait_start)

    for (rank, bytes) in streams.enumerate() {
        let events = Event::decode_stream(&bytes?)
            .map_err(|e| SionError::Format(format!("rank {rank} trace: {e}")))?;
        report.events += events.len() as u64;
        // Stack frames carry (region, enter time, child inclusive time), so
        // exclusive time = inclusive - children.
        let mut stack: Vec<(u32, u64, u64)> = Vec::new();
        let mut prev_time = 0u64;
        for ev in &events {
            match *ev {
                Event::Enter { time, region } => stack.push((region, time, 0)),
                Event::Exit { time, region } => {
                    if let Some((r, t0, child_ns)) = stack.pop() {
                        if r == region {
                            let inclusive = time.saturating_sub(t0);
                            let st = report.regions.entry(region).or_default();
                            st.visits += 1;
                            st.inclusive_ns += inclusive;
                            st.exclusive_ns += inclusive.saturating_sub(child_ns);
                            if let Some(parent) = stack.last_mut() {
                                parent.2 += inclusive;
                            }
                        }
                    }
                }
                Event::Send {
                    time, peer, tag, ..
                } => {
                    sends
                        .entry((rank as u32, peer, tag))
                        .or_default()
                        .push(time);
                }
                Event::Recv {
                    time, peer, tag, ..
                } => {
                    // The wait began when the task finished its previous
                    // event (Scalasca's late-sender definition).
                    recvs.push((peer, rank as u32, tag, time, prev_time));
                }
            }
            prev_time = ev.time();
        }
    }

    // Sort receives by completion time so FIFO send matching is stable.
    recvs.sort_by_key(|&(.., time, _)| time);
    let mut cursors: HashMap<(u32, u32, u32), usize> = HashMap::new();
    for (src, dst, tag, recv_time, wait_start) in recvs {
        let key = (src, dst, tag);
        let Some(times) = sends.get(&key) else {
            continue;
        };
        let cur = cursors.entry(key).or_insert(0);
        if *cur >= times.len() {
            continue;
        }
        let send_time = times[*cur];
        *cur += 1;
        report.messages_matched += 1;
        if send_time > wait_start {
            report.late_senders += 1;
            report.late_sender_wait_ns += (send_time.min(recv_time)).saturating_sub(wait_start);
        }
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synth::{synthetic_events, SynthConfig, REGION_MAIN};
    use crate::Tracer;
    use simmpi::TaskWorld;
    use vfs::MemFs;

    fn task_local(prefix: &str) -> TraceBackend {
        TraceBackend::TaskLocal {
            prefix: prefix.into(),
        }
    }

    fn sion(base: &str, nfiles: u32, compressed: bool) -> TraceBackend {
        TraceBackend::Sion {
            base: base.into(),
            chunksize: 1 << 20,
            nfiles,
            compressed,
        }
    }

    fn record_run(backend: &TraceBackend, fs: &MemFs, ntasks: usize, cfg: &SynthConfig) {
        TaskWorld::run(ntasks, |comm| async move {
            let mut tracer = Tracer::new(comm.rank());
            for ev in synthetic_events(cfg, comm.rank(), comm.size()) {
                tracer.record(&ev);
            }
            let mut trace = backend.activate(fs, &comm).await.unwrap();
            tracer.finalize(&mut trace).unwrap();
            trace.finalize().await.unwrap();
        });
    }

    #[test]
    fn both_backends_yield_identical_analysis() {
        let cfg = SynthConfig::default();
        let ntasks = 8;

        let fs_a = MemFs::new();
        let tl = task_local("tr/run");
        record_run(&tl, &fs_a, ntasks, &cfg);
        let rep_a = analyze(&fs_a, &tl, ntasks).unwrap();

        let fs_b = MemFs::with_block_size(4096);
        let multi = sion("tr.sion", 2, false);
        record_run(&multi, &fs_b, ntasks, &cfg);
        let rep_b = analyze(&fs_b, &multi, ntasks).unwrap();

        // The storage layer must be invisible to the analysis.
        assert_eq!(rep_a, rep_b);
        assert_eq!(rep_a.nranks, ntasks);
        assert!(rep_a.events > 0);
        assert!(rep_a.messages_matched > 0);
        assert_eq!(rep_a.regions[&REGION_MAIN].visits, ntasks as u64);
    }

    #[test]
    fn compressed_multifile_analyzes_identically() {
        let cfg = SynthConfig::default();
        let fs1 = MemFs::with_block_size(4096);
        let p = sion("p.sion", 1, false);
        record_run(&p, &fs1, 4, &cfg);
        let plain = analyze(&fs1, &p, 4).unwrap();

        let fs2 = MemFs::with_block_size(4096);
        let c = sion("c.sion", 1, true);
        record_run(&c, &fs2, 4, &cfg);
        let compressed = analyze(&fs2, &c, 4).unwrap();
        assert_eq!(plain, compressed);
    }

    #[test]
    fn multifile_must_hold_the_callers_rank_count() {
        let fs = MemFs::with_block_size(4096);
        let multi = sion("n.sion", 1, false);
        record_run(&multi, &fs, 3, &SynthConfig::default());
        assert!(analyze(&fs, &multi, 3).is_ok());
        let err = analyze(&fs, &multi, 4).unwrap_err().to_string();
        assert!(err.contains("holds 3 ranks, 4 expected"), "{err}");
    }

    #[test]
    fn late_sender_detected_in_crafted_trace() {
        // Rank 1 receives at t=100 having been idle since t=10, but rank 0
        // only sends at t=80: 70 ns of late-sender waiting.
        let fs = MemFs::new();
        let tl = task_local("ls");
        TaskWorld::run(2, |comm| {
            let fs = &fs;
            let tl = &tl;
            async move {
                let mut tracer = Tracer::new(comm.rank());
                if comm.rank() == 0 {
                    tracer.record(&Event::Enter { time: 0, region: 1 });
                    tracer.record(&Event::Send {
                        time: 80,
                        peer: 1,
                        tag: 5,
                        bytes: 8,
                    });
                    tracer.record(&Event::Exit {
                        time: 90,
                        region: 1,
                    });
                } else {
                    tracer.record(&Event::Enter {
                        time: 10,
                        region: 1,
                    });
                    tracer.record(&Event::Recv {
                        time: 100,
                        peer: 0,
                        tag: 5,
                        bytes: 8,
                    });
                    tracer.record(&Event::Exit {
                        time: 110,
                        region: 1,
                    });
                }
                let mut trace = tl.activate(fs, &comm).await.unwrap();
                tracer.finalize(&mut trace).unwrap();
                trace.finalize().await.unwrap();
            }
        });
        let rep = analyze(&fs, &tl, 2).unwrap();
        assert_eq!(rep.messages_matched, 1);
        assert_eq!(rep.late_senders, 1);
        assert_eq!(rep.late_sender_wait_ns, 70);
    }

    #[test]
    fn region_profile_times_add_up() {
        let fs = MemFs::new();
        let tl = task_local("prof");
        TaskWorld::run(1, |comm| {
            let fs = &fs;
            let tl = &tl;
            async move {
                let mut tracer = Tracer::new(0);
                tracer.record(&Event::Enter { time: 0, region: 9 });
                tracer.record(&Event::Enter {
                    time: 10,
                    region: 8,
                });
                tracer.record(&Event::Exit {
                    time: 30,
                    region: 8,
                });
                tracer.record(&Event::Exit {
                    time: 100,
                    region: 9,
                });
                let mut trace = tl.activate(fs, &comm).await.unwrap();
                tracer.finalize(&mut trace).unwrap();
                trace.finalize().await.unwrap();
            }
        });
        let rep = analyze(&fs, &tl, 1).unwrap();
        assert_eq!(
            rep.regions[&9],
            RegionStats {
                visits: 1,
                inclusive_ns: 100,
                exclusive_ns: 80
            }
        );
        assert_eq!(
            rep.regions[&8],
            RegionStats {
                visits: 1,
                inclusive_ns: 20,
                exclusive_ns: 20
            }
        );
    }

    #[test]
    fn exclusive_times_sum_to_root_inclusive() {
        // For a single-rank trace with one root region, the sum of all
        // exclusive times equals the root's inclusive time.
        let fs = MemFs::new();
        let tl = task_local("sum");
        let cfg = SynthConfig::default();
        TaskWorld::run(1, |comm| {
            let fs = &fs;
            let tl = &tl;
            async move {
                let mut tracer = Tracer::new(0);
                for ev in synthetic_events(&cfg, 0, 1) {
                    tracer.record(&ev);
                }
                let mut trace = tl.activate(fs, &comm).await.unwrap();
                tracer.finalize(&mut trace).unwrap();
                trace.finalize().await.unwrap();
            }
        });
        let rep = analyze(&fs, &tl, 1).unwrap();
        let root = rep.regions[&crate::synth::REGION_MAIN];
        let total_exclusive: u64 = rep.regions.values().map(|s| s.exclusive_ns).sum();
        assert_eq!(total_exclusive, root.inclusive_ns);
        // And exclusive never exceeds inclusive anywhere.
        for st in rep.regions.values() {
            assert!(st.exclusive_ns <= st.inclusive_ns);
        }
    }
}
