//! The cycle every workload runs: checkpoint → restart → tools.
//!
//! Closed loop, one process: each phase starts when the previous one has
//! returned. Both world runs use `SchedPolicy::host()`, so the worker
//! count is the host's core count. The two `MemFs` instances are created
//! once and reused — every rep re-`create`s the same base name — because
//! first-touch page faults of a fresh file system would otherwise swamp
//! the tools pass.

use crate::span::{TraceLog, Tracer, HARNESS};
use crate::timedfs::{TimedFs, VfsTotals};
use crate::workload::{Payload, Spec};
use simmpi::{CoComm, CommStats, SchedPolicy, SchedStats, TaskWorld};
use sion::{paropen_read_co, paropen_write_co, physical_name, AggStats, IoCounters, Multifile};
use std::sync::Arc;
use std::time::Instant;
use vfs::{MemFs, Vfs};

/// Base name of the checkpoint multifile.
pub const BASE: &str = "ckpt/run.sion";
/// Base name of the defragmented copy, in the second `MemFs`.
pub const DEFRAG_BASE: &str = "defrag/run.sion";
/// Checks of the tools pass: open + every `location`, `verify`, `defrag`,
/// and `cat` of the first, middle and last rank.
pub const TOOL_CHECKS: u64 = 6;

/// Counts that must repeat exactly for a fixed seed.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Counts {
    /// Writers' stream counters, summed over ranks.
    pub write_io: IoCounters,
    /// Readers' stream counters, summed over ranks.
    pub read_io: IoCounters,
    /// Collectives the writers entered on their global and file-group
    /// communicators (open through close), summed over ranks.
    pub coll_ops: u64,
    /// Point-to-point sends on the same communicators.
    pub p2p_msgs: u64,
    /// Bytes those ranks pushed into the transport.
    pub bytes_sent: u64,
    /// Aggregated-mode shipment counters, summed over ranks.
    pub agg: AggStats,
    /// Σ `MemFs::stats(file).allocated` over the multifile's physical files.
    pub stored_bytes: u64,
}

/// What a traced rep knows beyond the spans (all zero in an untraced rep).
#[derive(Debug, Default, Clone, Copy)]
pub struct Roles {
    /// Ranks that replayed at least one member's shipment.
    pub aggregators: u64,
    pub member_close_mean_s: f64,
    pub aggregator_close_mean_s: f64,
}

/// One rep of the cycle.
#[derive(Debug, Clone)]
pub struct RepOut {
    pub ckpt_s: f64,
    pub restart_s: f64,
    pub tool_s: f64,
    /// Ranks whose open/write/close or open/read/compare failed, plus
    /// failed tool checks.
    pub failed: u64,
    /// 2 · ranks + [`TOOL_CHECKS`].
    pub attempted: u64,
    pub counts: Counts,
    pub sched_ckpt: SchedStats,
    pub sched_restart: SchedStats,
    pub roles: Roles,
}

impl RepOut {
    /// A rep of `spec` whose phases have yet to run.
    pub fn start(spec: &Spec) -> RepOut {
        RepOut {
            ckpt_s: 0.0,
            restart_s: 0.0,
            tool_s: 0.0,
            failed: 0,
            attempted: 2 * spec.ranks as u64 + TOOL_CHECKS,
            counts: Counts::default(),
            sched_ckpt: SchedStats::default(),
            sched_restart: SchedStats::default(),
            roles: Roles::default(),
        }
    }
}

/// Span log and VFS totals of a traced run.
#[derive(Default)]
pub struct Trace {
    pub log: TraceLog,
    pub vfs: Arc<VfsTotals>,
}

/// A workload's payload and its two file systems: one set-up.
pub struct Cycle<'a> {
    pub spec: &'a Spec,
    pub payload: Payload,
    /// Holds the checkpoint.
    pub mem: MemFs,
    /// Receives the defragmented copy.
    pub mem_out: MemFs,
}

struct RankCkpt {
    ok: bool,
    io: IoCounters,
    agg: AggStats,
    comm: [Option<Arc<CommStats>>; 2],
    tracer: Tracer,
}

struct RankRestart {
    ok: bool,
    io: IoCounters,
    tracer: Tracer,
}

fn add_io(sum: &mut IoCounters, x: &IoCounters) {
    sum.user_calls += x.user_calls;
    sum.vfs_calls += x.vfs_calls;
    sum.vfs_bytes += x.vfs_bytes;
    sum.flushes += x.flushes;
    sum.rescue_patches += x.rescue_patches;
    sum.bytes_copied += x.bytes_copied;
    sum.allocs += x.allocs;
    sum.vectored_writes += x.vectored_writes;
}

fn span_s(tracer: &Tracer, name: &str) -> f64 {
    tracer
        .spans()
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.busy_ns)
        .sum::<u64>() as f64
        / 1e9
}

fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

impl<'a> Cycle<'a> {
    pub fn new(spec: &'a Spec, payload: Payload) -> Cycle<'a> {
        Cycle {
            spec,
            payload,
            mem: MemFs::with_block_size(spec.fs_block),
            mem_out: MemFs::with_block_size(spec.fs_block),
        }
    }

    /// Run one rep. With `trace`, every call into a layer is spanned and
    /// all file-system traffic goes through [`TimedFs`].
    pub fn rep(&self, rep: u32, trace: Option<&mut Trace>) -> RepOut {
        match trace {
            None => self.rep_on(&self.mem, &self.mem_out, rep, None),
            Some(t) => {
                let fs = TimedFs::new(&self.mem, t.vfs.clone());
                let fs_out = TimedFs::new(&self.mem_out, t.vfs.clone());
                self.rep_on(&fs, &fs_out, rep, Some(&mut t.log))
            }
        }
    }

    fn rep_on(
        &self,
        fs: &dyn Vfs,
        fs_out: &dyn Vfs,
        rep: u32,
        mut log: Option<&mut TraceLog>,
    ) -> RepOut {
        let mut out = RepOut::start(self.spec);
        self.checkpoint(fs, rep, log.as_deref_mut(), &mut out);
        self.restart(fs, rep, log.as_deref_mut(), &mut out);
        self.tools(fs, fs_out, rep, log, &mut out);
        out
    }

    /// One world run: collective open, the write loop, flush, collective
    /// close.
    pub fn checkpoint(&self, fs: &dyn Vfs, rep: u32, log: Option<&mut TraceLog>, out: &mut RepOut) {
        let traced = log.is_some();
        let (spec, payload) = (self.spec, &self.payload);
        let mut harness = Tracer::new(traced, HARNESS, rep);
        let start = Instant::now();
        let (ranks, sched) = harness.sync("ckpt", || {
            TaskWorld::run_with(SchedPolicy::host(), spec.ranks, |c| async move {
                let rank = c.rank();
                let mut tracer = Tracer::new(traced, rank as i32, rep);
                let opened = tracer
                    .run("par.open", paropen_write_co(fs, BASE, &spec.params, &c))
                    .await;
                let Ok(mut w) = opened else {
                    let (io, agg) = Default::default();
                    return RankCkpt {
                        ok: false,
                        io,
                        agg,
                        comm: [None, None],
                        tracer,
                    };
                };
                // A rank whose write fails still joins the collective close.
                let wrote = tracer.sync("stream.write", || {
                    payload
                        .records(rank)
                        .try_for_each(|r| w.write(r))
                        .and_then(|()| w.flush())
                });
                let comm = [w.global_comm_stats(), w.local_comm_stats()];
                match tracer.run("par.close", w.close_co()).await {
                    Ok(stats) => RankCkpt {
                        ok: wrote.is_ok() && stats.user_bytes == payload.total[rank],
                        io: stats.write_io,
                        agg: stats.agg,
                        comm,
                        tracer,
                    },
                    Err(_) => {
                        let (io, agg) = Default::default();
                        RankCkpt {
                            ok: false,
                            io,
                            agg,
                            comm,
                            tracer,
                        }
                    }
                }
            })
        });
        out.ckpt_s = start.elapsed().as_secs_f64();
        out.sched_ckpt = sched;

        let (mut member_close, mut aggregator_close) = (Vec::new(), Vec::new());
        let counts = &mut out.counts;
        for r in &ranks {
            out.failed += !r.ok as u64;
            add_io(&mut counts.write_io, &r.io);
            counts.agg.shipments += r.agg.shipments;
            counts.agg.acked_shipments += r.agg.acked_shipments;
            counts.agg.shipped_bytes += r.agg.shipped_bytes;
            counts.agg.acked_bytes += r.agg.acked_bytes;
            for stats in r.comm.iter().flatten() {
                counts.coll_ops += stats.collectives();
                counts.p2p_msgs += stats.sends();
                counts.bytes_sent += stats.bytes_sent();
            }
            // Only a traced rep can tell the two roles apart: both count
            // shipments, but only a member opens a shadow handle.
            if r.tracer.opened_shadow {
                member_close.push(span_s(&r.tracer, "par.close"));
            } else if traced && r.agg.shipments > 0 {
                aggregator_close.push(span_s(&r.tracer, "par.close"));
            }
        }
        counts.stored_bytes = (0..spec.params.nfiles)
            .filter_map(|f| self.mem.stats(&physical_name(BASE, f)))
            .map(|s| s.allocated)
            .sum();
        out.roles = Roles {
            aggregators: aggregator_close.len() as u64,
            member_close_mean_s: mean(&member_close),
            aggregator_close_mean_s: mean(&aggregator_close),
        };
        absorb_world(log, harness, ranks.into_iter().map(|r| r.tracer));
    }

    /// A second world run: collective read open, read until end of file
    /// comparing every byte with the source, collective close.
    pub fn restart(&self, fs: &dyn Vfs, rep: u32, log: Option<&mut TraceLog>, out: &mut RepOut) {
        let traced = log.is_some();
        let (spec, payload) = (self.spec, &self.payload);
        let mut harness = Tracer::new(traced, HARNESS, rep);
        let start = Instant::now();
        let (ranks, sched) = harness.sync("restart", || {
            TaskWorld::run_with(SchedPolicy::host(), spec.ranks, |c| async move {
                let rank = c.rank();
                let mut tracer = Tracer::new(traced, rank as i32, rep);
                let opened = tracer.run("par.ropen", paropen_read_co(fs, BASE, &c)).await;
                let Ok(mut r) = opened else {
                    return RankRestart {
                        ok: false,
                        io: IoCounters::default(),
                        tracer,
                    };
                };
                let read_back = tracer.sync("stream.read", || {
                    let mut buf = vec![0u8; spec.record];
                    let mut pos = 0u64;
                    loop {
                        match r.read(&mut buf) {
                            Ok(0) => break pos == payload.total[rank],
                            Ok(n) if payload.matches(rank, pos, &buf[..n]) => pos += n as u64,
                            _ => break false,
                        }
                    }
                });
                let io = r.io_counters();
                let closed = tracer.run("par.rclose", r.close_co()).await;
                RankRestart {
                    ok: read_back && closed.is_ok(),
                    io,
                    tracer,
                }
            })
        });
        out.restart_s = start.elapsed().as_secs_f64();
        out.sched_restart = sched;
        for r in &ranks {
            out.failed += !r.ok as u64;
            add_io(&mut out.counts.read_io, &r.io);
        }
        absorb_world(log, harness, ranks.into_iter().map(|r| r.tracer));
    }

    /// The serial pass: global view, verify, defragment, cat.
    pub fn tools(
        &self,
        fs: &dyn Vfs,
        fs_out: &dyn Vfs,
        rep: u32,
        log: Option<&mut TraceLog>,
        out: &mut RepOut,
    ) {
        let traced = log.is_some();
        let (spec, payload) = (self.spec, &self.payload);
        let mut harness = Tracer::new(traced, HARNESS, rep);
        let mut t = Tracer::new(traced, HARNESS, rep);
        let start = Instant::now();
        let failed = harness.sync("tools", || {
            let mut failed = 0u64;
            let mf = t.sync("serial.open", || Multifile::open(fs, BASE));
            let located = mf.as_ref().is_ok_and(|mf| {
                mf.ntasks() == spec.ranks
                    && t.sync("serial.location", || {
                        (0..spec.ranks).all(|r| mf.location(r).is_ok())
                    })
            });
            failed += !located as u64;
            drop(mf);

            let verified = t.sync("tools.verify", || sion_tools::verify(fs, BASE));
            failed += !verified.is_ok_and(|report| report.is_clean()) as u64;

            let defragged = t.sync("tools.defrag", || {
                sion_tools::defrag(fs, BASE, fs_out, DEFRAG_BASE, 1)
            });
            failed += !defragged.is_ok_and(|stats| stats.ntasks == spec.ranks) as u64;

            for rank in [0, spec.ranks / 2, spec.ranks - 1] {
                // `cat_into` is the engine of `sion_tools::cat`; comparing in
                // the sink avoids materialising a 192 MiB stream per rank.
                let (mut pos, mut same) = (0u64, true);
                let streamed = t.sync("tools.cat", || {
                    sion_tools::cat_into(fs_out, DEFRAG_BASE, rank, &mut |run| {
                        same &= payload.matches(rank, pos, run);
                        pos += run.len() as u64;
                    })
                });
                failed += !(streamed.is_ok() && same && pos == payload.total[rank]) as u64;
            }
            failed
        });
        out.tool_s = start.elapsed().as_secs_f64();
        out.failed += failed;

        // Traced runs also time two serial paths the cycle does not use;
        // they are outside `tool_s` and outside the `tools` span.
        let mut extras = Tracer::new(traced, HARNESS, rep);
        if traced {
            let _ = extras.sync("tools.dump", || sion_tools::dump(fs, BASE));
            let _ = extras.sync("serial.read_rank", || {
                let mf = Multifile::open(fs, BASE)?;
                [0, spec.ranks / 2, spec.ranks - 1]
                    .iter()
                    .try_for_each(|&r| {
                        std::hint::black_box(mf.read_rank(r)?);
                        Ok::<(), sion::SionError>(())
                    })
            });
        }
        if let Some(log) = log {
            let parent = log.absorb(harness, None).start;
            log.absorb(t, Some(parent));
            log.absorb(extras, None);
        }
    }
}

/// File the world-run span, then every rank's spans under it.
fn absorb_world(log: Option<&mut TraceLog>, harness: Tracer, ranks: impl Iterator<Item = Tracer>) {
    if let Some(log) = log {
        let parent = log.absorb(harness, None).start;
        for tracer in ranks {
            log.absorb(tracer, Some(parent));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::tests::tiny;
    use crate::workload::PayloadKind;
    use sion::IoMode;

    fn cycle(spec: &Spec, seed: u64) -> Cycle<'_> {
        Cycle::new(spec, Payload::generate(spec, seed))
    }

    /// Every byte of every physical file of the checkpoint.
    fn image(c: &Cycle) -> Vec<Vec<u8>> {
        (0..c.spec.params.nfiles)
            .map(|f| {
                let file = c.mem.open(&physical_name(BASE, f)).unwrap();
                let mut bytes = vec![0u8; file.len().unwrap() as usize];
                file.read_exact_at(&mut bytes, 0).unwrap();
                bytes
            })
            .collect()
    }

    #[test]
    fn a_rep_is_clean_and_counts_every_operation() {
        for kind in [
            PayloadKind::Random,
            PayloadKind::Particles,
            PayloadKind::TraceEvents,
        ] {
            let mut spec = tiny(kind);
            if kind == PayloadKind::TraceEvents {
                spec.params = spec.params.with_compression();
            }
            let out = cycle(&spec, 1).rep(0, None);
            assert_eq!(
                (out.failed, out.attempted),
                (0, 2 * 16 + TOOL_CHECKS),
                "{kind:?}"
            );
            assert!(out.counts.stored_bytes > 0 && out.counts.write_io.user_calls > 16);
            assert!(out.counts.coll_ops > 0 && out.counts.bytes_sent > 0);
            assert_eq!(out.counts.agg, AggStats::default());
        }
    }

    #[test]
    fn the_multifile_is_byte_identical_with_and_without_timedfs() {
        for mode in [
            IoMode::Independent,
            IoMode::Aggregated {
                tasks_per_aggregator: 4,
            },
        ] {
            let mut spec = tiny(PayloadKind::Random);
            spec.params = spec.params.with_io_mode(mode);
            let (plain, timed) = (cycle(&spec, 5), cycle(&spec, 5));
            let plain_out = plain.rep(0, None);
            let mut trace = Trace::default();
            let timed_out = timed.rep(0, Some(&mut trace));
            assert_eq!(image(&plain), image(&timed), "{mode:?}");
            assert_eq!(plain_out.counts, timed_out.counts, "{mode:?}");
            assert_eq!((plain_out.failed, timed_out.failed), (0, 0));

            // Every rank left its four layer spans, under the world runs.
            let spans = trace.log.spans();
            for name in [
                "par.open",
                "stream.write",
                "par.close",
                "par.ropen",
                "stream.read",
                "par.rclose",
            ] {
                assert_eq!(
                    spans.iter().filter(|s| s.name == name).count(),
                    16,
                    "{name}"
                );
            }
            let world = spans.iter().find(|s| s.name == "ckpt").unwrap();
            let open0 = spans
                .iter()
                .find(|s| s.name == "par.open" && s.rank == 0)
                .unwrap();
            assert_eq!(open0.parent, Some(world.id));
            assert!(spans
                .iter()
                .any(|s| s.name == "vfs.write" && s.parent == Some(open0.id)));
            for tool in [
                "serial.open",
                "serial.location",
                "tools.verify",
                "tools.defrag",
                "tools.dump",
            ] {
                assert!(spans.iter().any(|s| s.name == tool), "{tool}");
            }
            assert_eq!(spans.iter().filter(|s| s.name == "tools.cat").count(), 3);

            let shipped = timed_out.counts.agg.shipments > 0;
            assert_eq!(shipped, mode != IoMode::Independent);
            assert_eq!(
                timed_out.roles.aggregators > 0,
                shipped,
                "members are told from aggregators"
            );
            assert_eq!(timed_out.roles.member_close_mean_s > 0.0, shipped);
        }
    }

    #[test]
    fn exact_counts_repeat_for_a_seed_and_another_seed_is_clean_too() {
        let spec = tiny(PayloadKind::Random);
        let a = cycle(&spec, 11);
        let (first, again) = (a.rep(0, None), a.rep(1, None));
        let same_seed = cycle(&spec, 11).rep(0, None);
        assert_eq!(first.counts, again.counts);
        assert_eq!(first.counts, same_seed.counts);

        let other = cycle(&spec, 12);
        assert_ne!(other.payload.source, a.payload.source);
        let other_out = other.rep(0, None);
        assert_eq!(other_out.failed, 0);
        assert_eq!(
            other_out.counts.coll_ops, first.counts.coll_ops,
            "same structure"
        );
    }

    #[test]
    fn one_corrupted_byte_is_a_failed_operation() {
        let spec = tiny(PayloadKind::Random);
        let c = cycle(&spec, 3);
        let mut out = RepOut::start(&spec);
        c.checkpoint(&c.mem, 0, None, &mut out);
        assert_eq!(out.failed, 0);

        // Flip the first data byte of rank 0 behind the library's back.
        let loc = Multifile::open(&c.mem, BASE).unwrap().location(0).unwrap();
        let file = c.mem.open_rw(&physical_name(BASE, loc.file)).unwrap();
        let at = loc.chunks[0].offset;
        let mut byte = [0u8];
        file.read_exact_at(&mut byte, at).unwrap();
        file.write_all_at(&[byte[0] ^ 0x40], at).unwrap();

        c.restart(&c.mem, 0, None, &mut out);
        assert_eq!(
            out.failed, 1,
            "rank 0's comparison fails, every other rank's holds"
        );
        c.tools(&c.mem, &c.mem_out, 0, None, &mut out);
        assert_eq!(
            out.failed, 2,
            "and so does cat of rank 0 from the defragmented copy"
        );
    }
}
