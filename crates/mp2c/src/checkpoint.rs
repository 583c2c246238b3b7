//! Checkpoint/restart through three interchangeable I/O strategies.
//!
//! MP2C's authors "had originally decided to follow the single-file
//! sequential approach … where one designated I/O task writes a single
//! file on behalf of all others", which capped production runs at ~10 M
//! particles on 1 Ki cores; switching ~50 lines to SIONlib enabled runs
//! beyond a billion particles (paper §5.1, Fig. 6). This module implements
//! both schemes plus the task-local-file baseline so the benchmark harness
//! can compare all three on the same simulation state.
//!
//! Per-task checkpoint stream: `step: u64 | count: u64 | count × 52-byte
//! particles | nsolutes: u64 | nsolutes × 60-byte solutes` — the
//! 52 B/particle solvent record of the paper, followed by the replicated
//! MD solute set (stored by every task so each restores independently).

use crate::particle::{Particle, PARTICLE_BYTES};
use crate::sim::{SimConfig, Simulation};
use crate::solute::{Solute, SOLUTE_BYTES};
use simmpi::{Comm, ReduceOp};
use sion::{paropen_read, paropen_write, Result, SionError, SionParams};
use vfs::Vfs;

/// How checkpoints are stored.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Strategy {
    /// A SIONlib multifile with the given number of physical files,
    /// optionally compressed.
    Sion {
        /// Underlying physical files.
        nfiles: u32,
        /// Transparent szip compression of the particle streams.
        compressed: bool,
    },
    /// One physical file per task (the multiple-file-parallel baseline).
    TaskLocal,
    /// A designated I/O task gathers everything and writes one file (the
    /// original MP2C scheme).
    SingleFileSequential,
}

fn encode_task_stream(sim: &Simulation) -> Vec<u8> {
    let mut out = Vec::with_capacity(
        24 + sim.particles.len() * PARTICLE_BYTES + sim.solutes.len() * SOLUTE_BYTES,
    );
    out.extend_from_slice(&sim.step_count.to_le_bytes());
    out.extend_from_slice(&(sim.particles.len() as u64).to_le_bytes());
    out.extend_from_slice(&Particle::encode_all(&sim.particles));
    out.extend_from_slice(&(sim.solutes.len() as u64).to_le_bytes());
    out.extend_from_slice(&Solute::encode_all(&sim.solutes));
    out
}

fn decode_task_stream(bytes: &[u8]) -> Result<(u64, Vec<Particle>, Vec<Solute>)> {
    if bytes.len() < 16 {
        return Err(SionError::Format("checkpoint stream too short".into()));
    }
    let step = u64::from_le_bytes(bytes[0..8].try_into().unwrap());
    let count = u64::from_le_bytes(bytes[8..16].try_into().unwrap());
    let particle_bytes = count
        .checked_mul(PARTICLE_BYTES as u64)
        .ok_or_else(|| SionError::Format("particle count overflow".into()))? as usize;
    if bytes.len() < 16 + particle_bytes {
        return Err(SionError::Format(format!(
            "checkpoint stream carries {} bytes for {count} particles",
            bytes.len() - 16
        )));
    }
    let particles = Particle::decode_all(&bytes[16..16 + particle_bytes])
        .ok_or_else(|| SionError::Format("ragged particle data".into()))?;
    // Solute tail (absent in minimal streams = no solutes).
    let rest = &bytes[16 + particle_bytes..];
    let solutes = if rest.is_empty() {
        Vec::new()
    } else {
        if rest.len() < 8 {
            return Err(SionError::Format("truncated solute header".into()));
        }
        let nsol = u64::from_le_bytes(rest[0..8].try_into().unwrap());
        let body = &rest[8..];
        if body.len() as u64 != nsol * SOLUTE_BYTES as u64 {
            return Err(SionError::Format(format!(
                "checkpoint stream carries {} bytes for {nsol} solutes",
                body.len()
            )));
        }
        Solute::decode_all(body).ok_or_else(|| SionError::Format("ragged solute data".into()))?
    };
    Ok((step, particles, solutes))
}

fn task_local_path(base: &str, rank: usize) -> String {
    format!("{base}.{rank:06}")
}

/// Synchronize error state across the communicator *before* the next
/// collective operation: if any rank failed locally, every rank returns an
/// error instead of some ranks blocking forever in a collective the failed
/// rank never reaches (the classic MPI error-path deadlock).
fn collective_check<T>(comm: &Comm, local: Result<T>) -> Result<T> {
    let failed = comm.allreduce_u64(local.is_err() as u64, ReduceOp::Max);
    match (failed, local) {
        (0, ok) => ok,
        (_, Err(e)) => Err(e),
        (_, Ok(_)) => Err(SionError::CollectiveMismatch(
            "another task failed during the checkpoint operation".into(),
        )),
    }
}

/// Collectively write a checkpoint of `sim` under `base`.
pub fn write_checkpoint(
    sim: &Simulation,
    vfs: &dyn Vfs,
    base: &str,
    strategy: Strategy,
    comm: &Comm,
) -> Result<()> {
    let stream = encode_task_stream(sim);
    match strategy {
        Strategy::Sion { nfiles, compressed } => {
            let mut params = SionParams::new(stream.len() as u64).with_nfiles(nfiles);
            if compressed {
                params = params.with_compression();
            }
            let mut w = paropen_write(vfs, base, &params, comm)?;
            let wrote = w.write(&stream);
            // The close is collective: agree on success first.
            collective_check(comm, wrote)?;
            w.close()?;
            Ok(())
        }
        Strategy::TaskLocal => {
            let wrote = (|| -> Result<()> {
                let f = vfs.create(&task_local_path(base, comm.rank()))?;
                f.write_all_at(&stream, 0)?;
                f.sync()?;
                Ok(())
            })();
            collective_check(comm, wrote)
        }
        Strategy::SingleFileSequential => {
            // Gather-and-write: rank 0 serializes everyone's stream into
            // one file with a rank directory up front.
            let gathered = comm.gather(&stream, 0);
            let wrote = if comm.rank() == 0 {
                (|| -> Result<()> {
                    let streams = gathered.expect("root receives gather");
                    let f = vfs.create(base)?;
                    let mut header = Vec::with_capacity(8 + streams.len() * 8);
                    header.extend_from_slice(&(streams.len() as u64).to_le_bytes());
                    for s in &streams {
                        header.extend_from_slice(&(s.len() as u64).to_le_bytes());
                    }
                    f.write_all_at(&header, 0)?;
                    let mut at = header.len() as u64;
                    for s in &streams {
                        f.write_all_at(s, at)?;
                        at += s.len() as u64;
                    }
                    f.sync()?;
                    Ok(())
                })()
            } else {
                Ok(())
            };
            collective_check(comm, wrote)
        }
    }
}

/// Collectively restore a simulation from the checkpoint at `base`. Every
/// task returns the same verdict: open, read and decode of each task's
/// stream end in one [`collective_check`], whichever strategy stored it.
pub fn read_checkpoint(
    config: SimConfig,
    vfs: &dyn Vfs,
    base: &str,
    strategy: Strategy,
    comm: &Comm,
) -> Result<Simulation> {
    let stream: Result<Vec<u8>> = match strategy {
        // The read open agrees by itself and the read close is local.
        Strategy::Sion { .. } => paropen_read(vfs, base, comm).and_then(|mut r| {
            let mut out = Vec::new();
            let mut buf = vec![0u8; 256 * 1024];
            loop {
                let n = r.read(&mut buf)?;
                if n == 0 {
                    break;
                }
                out.extend_from_slice(&buf[..n]);
            }
            r.close()?;
            Ok(out)
        }),
        Strategy::TaskLocal => (|| {
            let f = vfs.open(&task_local_path(base, comm.rank()))?;
            let mut out = vec![0u8; f.len()? as usize];
            f.read_exact_at(&mut out, 0)?;
            Ok(out)
        })(),
        Strategy::SingleFileSequential => {
            // Rank 0 reads and scatters the per-rank streams. If it cannot,
            // it scatters empty ones — no stream is empty — and keeps its
            // error for the check.
            let parts: Result<Vec<Vec<u8>>> = if comm.rank() == 0 {
                (|| {
                    let f = vfs.open(base)?;
                    let mut count = [0u8; 8];
                    f.read_exact_at(&mut count, 0)?;
                    let n = u64::from_le_bytes(count) as usize;
                    if n != comm.size() {
                        return Err(SionError::CollectiveMismatch(format!(
                            "checkpoint was written by {n} tasks, restored with {}",
                            comm.size()
                        )));
                    }
                    let mut lens = vec![0u8; 8 * n];
                    f.read_exact_at(&mut lens, 8)?;
                    let lens: Vec<u64> = lens
                        .chunks_exact(8)
                        .map(|c| u64::from_le_bytes(c.try_into().unwrap()))
                        .collect();
                    let mut at = 8 + 8 * n as u64;
                    let mut parts = Vec::with_capacity(n);
                    for len in lens {
                        let mut s = vec![0u8; len as usize];
                        f.read_exact_at(&mut s, at)?;
                        at += len;
                        parts.push(s);
                    }
                    Ok(parts)
                })()
            } else {
                Ok(Vec::new())
            };
            let (parts, failed) = match parts {
                Ok(parts) => (parts, None),
                Err(e) => (vec![Vec::new(); comm.size()], Some(e)),
            };
            let mine = comm.scatter((comm.rank() == 0).then_some(parts), 0);
            failed.map_or(Ok(mine), Err)
        }
    };
    let (step, particles, solutes) =
        collective_check(comm, stream.and_then(|s| decode_task_stream(&s)))?;
    Ok(Simulation::from_restart(config, particles, solutes, step, comm.rank(), comm.size()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use simmpi::World;
    use vfs::MemFs;

    fn roundtrip_strategy(strategy: Strategy) {
        let cfg = SimConfig::default();
        let ntasks = 4;
        let fs = MemFs::with_block_size(4096);
        let digests = World::run(ntasks, |comm| {
            // Run, checkpoint, run on; in parallel restore and run the same
            // number of steps — digests must match bit-for-bit.
            let mut sim = Simulation::new(cfg, comm.rank(), comm.size());
            for _ in 0..4 {
                sim.step(comm);
            }
            write_checkpoint(&sim, &fs, "ckpt", strategy, comm).unwrap();
            for _ in 0..3 {
                sim.step(comm);
            }
            let original = sim.global_digest(comm);

            let mut restored = read_checkpoint(cfg, &fs, "ckpt", strategy, comm).unwrap();
            assert_eq!(restored.step_count, 4);
            for _ in 0..3 {
                restored.step(comm);
            }
            (original, restored.global_digest(comm))
        });
        for (original, restored) in digests {
            assert_eq!(original, restored, "restart must continue bit-identically");
        }
    }

    #[test]
    fn sion_checkpoint_roundtrip() {
        roundtrip_strategy(Strategy::Sion { nfiles: 2, compressed: false });
    }

    #[test]
    fn sion_compressed_checkpoint_roundtrip() {
        roundtrip_strategy(Strategy::Sion { nfiles: 1, compressed: true });
    }

    #[test]
    fn task_local_checkpoint_roundtrip() {
        roundtrip_strategy(Strategy::TaskLocal);
    }

    #[test]
    fn single_file_sequential_checkpoint_roundtrip() {
        roundtrip_strategy(Strategy::SingleFileSequential);
    }

    #[test]
    fn strategies_store_equivalent_state() {
        // All three strategies must restore the same global state.
        let cfg = SimConfig::default();
        let fs = MemFs::with_block_size(4096);
        let out = World::run(3, |comm| {
            let mut sim = Simulation::new(cfg, comm.rank(), comm.size());
            for _ in 0..5 {
                sim.step(comm);
            }
            for (name, strat) in [
                ("a", Strategy::Sion { nfiles: 1, compressed: false }),
                ("b", Strategy::TaskLocal),
                ("c", Strategy::SingleFileSequential),
            ] {
                write_checkpoint(&sim, &fs, name, strat, comm).unwrap();
            }
            let da = read_checkpoint(cfg, &fs, "a", Strategy::Sion { nfiles: 1, compressed: false }, comm)
                .unwrap()
                .global_digest(comm);
            let db = read_checkpoint(cfg, &fs, "b", Strategy::TaskLocal, comm)
                .unwrap()
                .global_digest(comm);
            let dc = read_checkpoint(cfg, &fs, "c", Strategy::SingleFileSequential, comm)
                .unwrap()
                .global_digest(comm);
            (da, db, dc)
        });
        for (da, db, dc) in out {
            assert_eq!(da, db);
            assert_eq!(db, dc);
        }
    }

    #[test]
    fn file_counts_match_strategy() {
        let cfg = SimConfig::default();
        let fs = MemFs::with_block_size(4096);
        World::run(4, |comm| {
            let sim = Simulation::new(cfg, comm.rank(), comm.size());
            write_checkpoint(&sim, &fs, "s2/c", Strategy::Sion { nfiles: 2, compressed: false }, comm)
                .unwrap();
            write_checkpoint(&sim, &fs, "tl/c", Strategy::TaskLocal, comm).unwrap();
            write_checkpoint(&sim, &fs, "sf/c", Strategy::SingleFileSequential, comm).unwrap();
        });
        assert_eq!(fs.list("s2/").unwrap().len(), 2);
        assert_eq!(fs.list("tl/").unwrap().len(), 4);
        assert_eq!(fs.list("sf/").unwrap().len(), 1);
    }

    /// A damaged task-local checkpoint of one rank fails the restart on
    /// every rank, whether the rank's stream is cut short (a decode
    /// failure) or its file is gone (an open failure).
    #[test]
    fn damaged_task_local_restore_fails_on_every_rank() {
        let cfg = SimConfig::default();
        for cut in [true, false] {
            let fs = MemFs::with_block_size(4096);
            World::run(4, |comm| {
                let sim = Simulation::new(cfg, comm.rank(), comm.size());
                write_checkpoint(&sim, &fs, "tl", Strategy::TaskLocal, comm).unwrap();
            });
            let what = if cut {
                fs.open_rw("tl.000002").unwrap().set_len(10).unwrap();
                "rank 2's file cut to 10 bytes"
            } else {
                fs.remove("tl.000001").unwrap();
                "rank 1's file removed"
            };
            let failed = World::run(4, |comm| {
                read_checkpoint(cfg, &fs, "tl", Strategy::TaskLocal, comm).is_err()
            });
            assert_eq!(failed, [true; 4], "{what}");
        }
    }

    #[test]
    fn single_file_restore_rejects_wrong_world() {
        let cfg = SimConfig::default();
        let fs = MemFs::with_block_size(4096);
        World::run(4, |comm| {
            let sim = Simulation::new(cfg, comm.rank(), comm.size());
            write_checkpoint(&sim, &fs, "w4", Strategy::SingleFileSequential, comm).unwrap();
        });
        let fails = World::run(2, |comm| {
            read_checkpoint(cfg, &fs, "w4", Strategy::SingleFileSequential, comm).is_err()
        });
        assert!(fails.iter().all(|&f| f));
    }
}
