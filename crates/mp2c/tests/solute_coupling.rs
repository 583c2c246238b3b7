//! Integration tests of the MD-solute coupling (the "molecular dynamics"
//! half of MP2C) with the parallel solvent simulation and the checkpoint
//! strategies.

use mp2c::checkpoint::{read_checkpoint, write_checkpoint, Strategy};
use mp2c::{SimConfig, Simulation};
use simmpi::World;
use vfs::MemFs;

fn config_with_solutes() -> SimConfig {
    SimConfig { nsolutes: 6, solute_mass: 8.0, ..SimConfig::default() }
}

#[test]
fn solutes_replicated_identically_across_ranks() {
    let cfg = config_with_solutes();
    let out = World::run(4, |comm| {
        let mut sim = Simulation::new(cfg, comm.rank(), comm.size());
        assert_eq!(sim.solutes.len(), 6);
        for _ in 0..8 {
            sim.step(comm);
        }
        // Serialize the replica for cross-rank comparison.
        mp2c::Solute::encode_all(&sim.solutes)
    });
    for replica in &out[1..] {
        assert_eq!(replica, &out[0], "replicas must stay bit-identical");
    }
}

#[test]
fn coupled_dynamics_conserve_momentum_including_solutes() {
    let cfg = config_with_solutes();
    let out = World::run(4, |comm| {
        let mut sim = Simulation::new(cfg, comm.rank(), comm.size());
        let p0 = sim.total_momentum(comm);
        let n0 = sim.total_particles(comm);
        for _ in 0..10 {
            sim.step(comm);
        }
        (p0, sim.total_momentum(comm), n0, sim.total_particles(comm))
    });
    for (p0, p1, n0, n1) in out {
        assert_eq!(n0, n1);
        for k in 0..3 {
            assert!(
                (p0[k] - p1[k]).abs() < 1e-6 * (1.0 + p0[k].abs()),
                "momentum k={k}: {} vs {}",
                p0[k],
                p1[k]
            );
        }
    }
}

#[test]
fn solvent_and_solutes_exchange_momentum() {
    // The coupling is real: solute momentum must change over time (it
    // couldn't without solvent interaction, LJ alone conserves it).
    let cfg = SimConfig { nsolutes: 4, solute_mass: 8.0, ..SimConfig::default() };
    let changed = World::run(2, |comm| {
        let mut sim = Simulation::new(cfg, comm.rank(), comm.size());
        let before: Vec<[f64; 3]> = sim.solutes.iter().map(|s| s.vel).collect();
        for _ in 0..10 {
            sim.step(comm);
        }
        sim.solutes.iter().zip(&before).filter(|(s, b)| &&s.vel != b).count()
    });
    assert!(changed[0] > 0, "solute velocities must change through the coupling");
}

#[test]
fn checkpoint_roundtrip_with_solutes_bit_identical() {
    let cfg = config_with_solutes();
    let fs = MemFs::with_block_size(4096);
    for strategy in [
        Strategy::Sion { nfiles: 2, compressed: false },
        Strategy::Sion { nfiles: 1, compressed: true },
        Strategy::TaskLocal,
        Strategy::SingleFileSequential,
    ] {
        let digests = World::run(4, |comm| {
            let mut sim = Simulation::new(cfg, comm.rank(), comm.size());
            for _ in 0..4 {
                sim.step(comm);
            }
            write_checkpoint(&sim, &fs, "solute-ck", strategy, comm).unwrap();
            for _ in 0..3 {
                sim.step(comm);
            }
            let reference = sim.global_digest(comm);

            let mut restored =
                read_checkpoint(cfg, &fs, "solute-ck", strategy, comm).unwrap();
            assert_eq!(restored.solutes.len(), 6, "solutes must be restored");
            for _ in 0..3 {
                restored.step(comm);
            }
            (reference, restored.global_digest(comm))
        });
        for (reference, restored) in digests {
            assert_eq!(reference, restored, "strategy {strategy:?} diverged after restart");
        }
    }
}

#[test]
fn solute_free_checkpoints_still_decode() {
    // Format compatibility: a checkpoint without solutes has an explicit
    // zero-count tail and restores to an empty solute set.
    let cfg = SimConfig::default();
    assert_eq!(cfg.nsolutes, 0);
    let fs = MemFs::with_block_size(4096);
    World::run(2, |comm| {
        let sim = Simulation::new(cfg, comm.rank(), comm.size());
        write_checkpoint(
            &sim,
            &fs,
            "plain-ck",
            Strategy::Sion { nfiles: 1, compressed: false },
            comm,
        )
        .unwrap();
        let restored = read_checkpoint(
            cfg,
            &fs,
            "plain-ck",
            Strategy::Sion { nfiles: 1, compressed: false },
            comm,
        )
        .unwrap();
        assert!(restored.solutes.is_empty());
        assert_eq!(restored.particles.len(), sim.particles.len());
    });
}
