//! The paper's two applications at a world size of 4096 ranks, every rank a
//! task of one `TaskWorld`: the MP2C checkpoint (§5.1) written to a SIONlib
//! multifile and restored, and the Scalasca-style trace activation (§5.2)
//! through the multifile back-end, split back into task-local files.

use mp2c::checkpoint::{read_checkpoint, write_checkpoint, Strategy};
use mp2c::{Particle, SimConfig, Simulation};
use simmpi::TaskWorld;
use tracer::{synthetic_events, Event, SynthConfig, TraceBackend, Tracer};
use vfs::{MemFs, Vfs};

const RANKS: usize = 4096;

/// A few particles of `rank`'s own, deterministic in the rank. The slab
/// decomposition needs a domain at least as wide as the world to step, so
/// the state is built directly: a checkpoint stores what a rank holds,
/// whatever stepped it there.
fn state_of(config: SimConfig, rank: usize) -> Simulation {
    let particles = (0..3 + rank % 5)
        .map(|i| {
            let v = (rank * 7 + i) as f64;
            Particle {
                pos: [v * 0.5, v * 0.25, v * 0.125],
                vel: [v, -v, v / 3.0],
                id: (rank * 8 + i) as u32,
            }
        })
        .collect();
    Simulation::from_restart(config, particles, Vec::new(), 17, rank, RANKS)
}

#[test]
fn mp2c_checkpoint_and_restart_round_trip_on_4096_ranks() {
    let config = SimConfig::default();
    let fs = MemFs::with_block_size(4096);
    let strategy = Strategy::Sion {
        nfiles: 16,
        compressed: false,
    };
    let digests = TaskWorld::run(RANKS, |comm| {
        let fs = &fs;
        async move {
            let sim = state_of(config, comm.rank());
            write_checkpoint(&sim, fs, "ckpt", strategy, &comm)
                .await
                .unwrap();
            let restored = read_checkpoint(config, fs, "ckpt", strategy, &comm)
                .await
                .unwrap();
            assert_eq!(restored.step_count, 17);
            (
                sim.local_digest(),
                restored.local_digest(),
                restored.global_digest(&comm).await,
            )
        }
    });
    let global = digests
        .iter()
        .fold(0u64, |acc, &(mine, _, _)| acc.wrapping_add(mine));
    for (rank, &(written, restored, restored_global)) in digests.iter().enumerate() {
        assert_eq!(written, restored, "rank {rank}");
        assert_eq!(restored_global, global, "rank {rank}");
    }
    assert_eq!(fs.list("ckpt").unwrap().len(), 16);
}

#[test]
fn tracer_sion_backend_traces_split_and_decode_on_4096_ranks() {
    let fs = MemFs::with_block_size(4096);
    let cfg = SynthConfig {
        iterations: 1,
        levels: 2,
        neighbours: 2,
        ..SynthConfig::default()
    };
    let backend = TraceBackend::Sion {
        base: "tr.sion".into(),
        chunksize: 4096,
        nfiles: 16,
        compressed: false,
    };
    TaskWorld::run(RANKS, |comm| {
        let (fs, backend) = (&fs, &backend);
        async move {
            let mut tracer = Tracer::new(comm.rank());
            for ev in synthetic_events(&cfg, comm.rank(), comm.size()) {
                tracer.record(&ev);
            }
            let mut trace = backend.activate(fs, &comm).await.unwrap();
            tracer.finalize(&mut trace).unwrap();
            let stats = trace.finalize().await.unwrap().expect("multifile stats");
            assert!(stats.user_bytes > 0);
        }
    });
    let out = MemFs::new();
    let created = sion_tools::split(&fs, "tr.sion", &out, "t", None).unwrap();
    assert_eq!(created.len(), RANKS);
    for (rank, path) in created.iter().enumerate() {
        let f = out.open(path).unwrap();
        let mut buf = vec![0u8; f.len().unwrap() as usize];
        f.read_exact_at(&mut buf, 0).unwrap();
        let events = Event::decode_stream(&buf).unwrap();
        assert_eq!(events, synthetic_events(&cfg, rank, RANKS), "rank {rank}");
    }
}
