//! The parallel simulation driver: slab decomposition, particle
//! migration, and the stream/collide loop.

use crate::dynamics::{collide_with_extras, splitmix64, stream, u01, CellGrid};
use crate::particle::Particle;
use crate::solute::{verlet_step, LjParams, Solute};
use simmpi::{CoComm, ReduceOp};

/// Simulation parameters (identical on every rank).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimConfig {
    /// Domain extent in unit cells per dimension (cubic domain).
    pub domain: u32,
    /// Average solvent particles per cell at initialization.
    pub particles_per_cell: u32,
    /// Streaming time step. Must satisfy `dt * v_max <= slab width` so
    /// migration only crosses to neighbouring slabs.
    pub dt: f64,
    /// SRD rotation angle (radians); 130° is the textbook choice.
    pub alpha: f64,
    /// RNG seed for initialization and collisions.
    pub seed: u64,
    /// Number of heavy MD solute particles (replicated on every rank).
    pub nsolutes: u32,
    /// Solute mass (solvent particles have mass 1).
    pub solute_mass: f64,
    /// Lennard-Jones parameters for solute–solute interactions.
    pub lj: LjParams,
    /// Velocity-Verlet sub-steps per SRD step.
    pub md_substeps: u32,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            domain: 8,
            particles_per_cell: 5,
            dt: 0.5,
            alpha: 130.0f64.to_radians(),
            seed: 2009,
            nsolutes: 0,
            solute_mass: 10.0,
            lj: LjParams::default(),
            md_substeps: 4,
        }
    }
}

/// The per-rank simulation state.
pub struct Simulation {
    /// Shared configuration.
    pub config: SimConfig,
    /// This rank's slab.
    pub grid: CellGrid,
    /// Particles currently owned by this rank.
    pub particles: Vec<Particle>,
    /// Heavy MD solutes, replicated identically on every rank.
    pub solutes: Vec<Solute>,
    /// Completed steps.
    pub step_count: u64,
    rank: usize,
    nranks: usize,
}

impl Simulation {
    /// Slab bounds `[lo, hi)` along x of `rank` out of `nranks` (cells are
    /// distributed as evenly as possible).
    pub fn slab_bounds(domain: u32, rank: usize, nranks: usize) -> (u32, u32) {
        let base = domain / nranks as u32;
        let rem = domain % nranks as u32;
        let lo = rank as u32 * base + (rank as u32).min(rem);
        let width = base + u32::from((rank as u32) < rem);
        (lo, lo + width)
    }

    /// Rank owning position `x` (cells).
    pub fn owner_of(x: f64, domain: u32, nranks: usize) -> usize {
        // Invert slab_bounds by scanning; nranks is small in tests and the
        // arithmetic stays obviously consistent with slab_bounds.
        let cx = (x.floor() as u32).min(domain - 1);
        for r in 0..nranks {
            let (lo, hi) = Self::slab_bounds(domain, r, nranks);
            if cx >= lo && cx < hi {
                return r;
            }
        }
        unreachable!("cell {cx} not covered by any slab")
    }

    /// Initialize this rank's slab with `particles_per_cell` particles per
    /// cell, deterministically from the seed.
    pub fn new(config: SimConfig, rank: usize, nranks: usize) -> Simulation {
        assert!(nranks as u32 <= config.domain, "more ranks than slabs");
        let (x_lo, x_hi) = Self::slab_bounds(config.domain, rank, nranks);
        let grid = CellGrid {
            x_lo,
            x_hi,
            ly: config.domain,
            lz: config.domain,
        };
        let mut particles = Vec::new();
        let per_x = (config.domain * config.domain) as u64;
        for ix in x_lo..x_hi {
            for iy in 0..config.domain {
                for iz in 0..config.domain {
                    let cell = ix as u64 * per_x + (iy * config.domain + iz) as u64;
                    for j in 0..config.particles_per_cell {
                        let c = splitmix64(config.seed ^ cell.wrapping_mul(7919) ^ j as u64);
                        let id = (cell * config.particles_per_cell as u64 + j as u64) as u32;
                        particles.push(Particle {
                            pos: [
                                ix as f64 + u01(c),
                                iy as f64 + u01(c + 1),
                                iz as f64 + u01(c + 2),
                            ],
                            vel: [u01(c + 3) - 0.5, u01(c + 4) - 0.5, u01(c + 5) - 0.5],
                            id,
                        });
                    }
                }
            }
        }
        // Solutes: deterministic positions spread through the whole domain,
        // identical on every rank (they are replicated).
        let l = config.domain as f64;
        let solutes = (0..config.nsolutes)
            .map(|i| {
                let c = splitmix64(config.seed ^ 0x5017E5 ^ (i as u64).wrapping_mul(0x51_7C_C1));
                Solute {
                    pos: [u01(c) * l, u01(c + 1) * l, u01(c + 2) * l],
                    vel: [
                        (u01(c + 3) - 0.5) * 0.2,
                        (u01(c + 4) - 0.5) * 0.2,
                        (u01(c + 5) - 0.5) * 0.2,
                    ],
                    mass: config.solute_mass,
                    id: i,
                }
            })
            .collect();
        Simulation {
            config,
            grid,
            particles,
            solutes,
            step_count: 0,
            rank,
            nranks,
        }
    }

    /// Rebuild a rank's state from restart data.
    pub fn from_restart(
        config: SimConfig,
        particles: Vec<Particle>,
        solutes: Vec<Solute>,
        step_count: u64,
        rank: usize,
        nranks: usize,
    ) -> Simulation {
        let (x_lo, x_hi) = Self::slab_bounds(config.domain, rank, nranks);
        let grid = CellGrid {
            x_lo,
            x_hi,
            ly: config.domain,
            lz: config.domain,
        };
        Simulation {
            config,
            grid,
            particles,
            solutes,
            step_count,
            rank,
            nranks,
        }
    }

    /// This rank.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// World size.
    pub fn nranks(&self) -> usize {
        self.nranks
    }

    /// One full MPC step: solvent streaming + migration, MD sub-steps for
    /// the solutes, then the coupled SRD collision.
    pub async fn step(&mut self, comm: &CoComm) {
        let l = self.config.domain as f64;
        stream(&mut self.particles, self.config.dt, [l, l, l]);
        self.migrate(comm).await;
        // Replicated MD: every rank advances the identical solute set with
        // identical arithmetic, so no communication is needed here.
        if !self.solutes.is_empty() {
            let sub_dt = self.config.dt / self.config.md_substeps.max(1) as f64;
            for _ in 0..self.config.md_substeps.max(1) {
                verlet_step(&mut self.solutes, &self.config.lj, sub_dt, l);
            }
        }
        collide_with_extras(
            &mut self.particles,
            &mut self.solutes,
            &self.grid,
            self.config.alpha,
            self.config.seed,
            self.step_count,
        );
        if !self.solutes.is_empty() {
            self.sync_solutes(comm).await;
        }
        self.step_count += 1;
    }

    /// Re-replicate the solutes after the coupled collision: each slab's
    /// owner updated the velocities of the solutes inside it, so owners
    /// exchange their post-collision copies and everyone merges by id.
    async fn sync_solutes(&mut self, comm: &CoComm) {
        if self.nranks == 1 {
            return;
        }
        let mine: Vec<u8> = Solute::encode_all(
            &self
                .solutes
                .iter()
                .filter(|s| self.grid.cell_of(&s.pos).is_some())
                .copied()
                .collect::<Vec<_>>(),
        );
        for bytes in comm.allgather(&mine).await {
            for updated in Solute::decode_all(&bytes).expect("well-formed solute payload") {
                if let Some(slot) = self.solutes.iter_mut().find(|s| s.id == updated.id) {
                    *slot = updated;
                }
            }
        }
    }

    /// Exchange particles that streamed out of the slab with the left and
    /// right neighbours (periodic).
    async fn migrate(&mut self, comm: &CoComm) {
        if self.nranks == 1 {
            return;
        }
        let left = (self.rank + self.nranks - 1) % self.nranks;
        let right = (self.rank + 1) % self.nranks;
        let mut to_left = Vec::new();
        let mut to_right = Vec::new();
        let mut keep = Vec::with_capacity(self.particles.len());
        for p in self.particles.drain(..) {
            let owner = Self::owner_of(p.pos[0], self.config.domain, self.nranks);
            if owner == self.rank {
                keep.push(p);
            } else if owner == left {
                to_left.push(p);
            } else if owner == right {
                to_right.push(p);
            } else {
                panic!(
                    "particle {} jumped past a neighbour slab (dt too large: owner {owner}, \
                     rank {})",
                    p.id, self.rank
                );
            }
        }
        self.particles = keep;
        const TAG_MIGRATE_RIGHT: u64 = 0xA1;
        const TAG_MIGRATE_LEFT: u64 = 0xA2;
        comm.send_vec(right, TAG_MIGRATE_RIGHT, Particle::encode_all(&to_right));
        comm.send_vec(left, TAG_MIGRATE_LEFT, Particle::encode_all(&to_left));
        let from_left = comm.recv(left, TAG_MIGRATE_RIGHT).await;
        let from_right = comm.recv(right, TAG_MIGRATE_LEFT).await;
        for bytes in [from_left, from_right] {
            self.particles
                .extend(Particle::decode_all(&bytes).expect("well-formed migration payload"));
        }
    }

    /// Global particle count.
    pub async fn total_particles(&self, comm: &CoComm) -> u64 {
        comm.allreduce_u64(self.particles.len() as u64, ReduceOp::Sum)
            .await
    }

    /// Global momentum (solvent plus, on top of every rank's identical
    /// replica, the solute contribution counted once).
    pub async fn total_momentum(&self, comm: &CoComm) -> [f64; 3] {
        let mut out = [0.0f64; 3];
        for (k, o) in out.iter_mut().enumerate() {
            let local: f64 = self.particles.iter().map(|p| p.vel[k]).sum();
            let solute: f64 = self.solutes.iter().map(|s| s.mass * s.vel[k]).sum();
            *o = comm.allreduce_f64(local, ReduceOp::Sum).await + solute;
        }
        out
    }

    /// Order-independent bitwise digest of this rank's particles; combined
    /// across ranks (sum) it identifies the *global* state regardless of
    /// which rank holds which particle.
    pub fn local_digest(&self) -> u64 {
        let particles = self
            .particles
            .iter()
            .map(|p| {
                let mut h = splitmix64(p.id as u64);
                for v in p.pos.iter().chain(p.vel.iter()) {
                    h = splitmix64(h ^ v.to_bits());
                }
                h
            })
            .fold(0u64, u64::wrapping_add);
        // Solutes are replicated; fold them in per rank (identical replicas
        // keep cross-rank digests comparable).
        let solutes = self
            .solutes
            .iter()
            .map(|s| {
                let mut h = splitmix64(0x0501_u64 ^ s.id as u64);
                for v in s.pos.iter().chain(s.vel.iter()) {
                    h = splitmix64(h ^ v.to_bits());
                }
                h
            })
            .fold(0u64, u64::wrapping_add);
        particles.wrapping_add(solutes)
    }

    /// Global state digest (equal iff the global particle sets are
    /// bit-identical).
    pub async fn global_digest(&self, comm: &CoComm) -> u64 {
        comm.allgather_u64(self.local_digest())
            .await
            .into_iter()
            .fold(0u64, u64::wrapping_add)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simmpi::TaskWorld;

    #[test]
    fn slab_bounds_partition_domain() {
        for nranks in 1..=7usize {
            let mut covered = 0;
            let mut prev_hi = 0;
            for r in 0..nranks {
                let (lo, hi) = Simulation::slab_bounds(13, r, nranks);
                assert_eq!(lo, prev_hi, "slabs must be contiguous");
                assert!(hi > lo, "every slab non-empty");
                covered += hi - lo;
                prev_hi = hi;
            }
            assert_eq!(covered, 13);
        }
    }

    #[test]
    fn owner_matches_slab_bounds() {
        for r in 0..4usize {
            let (lo, hi) = Simulation::slab_bounds(16, r, 4);
            assert_eq!(Simulation::owner_of(lo as f64 + 0.5, 16, 4), r);
            assert_eq!(Simulation::owner_of(hi as f64 - 0.01, 16, 4), r);
        }
    }

    #[test]
    fn initialization_is_deterministic_and_complete() {
        let cfg = SimConfig::default();
        let a = Simulation::new(cfg, 1, 4);
        let b = Simulation::new(cfg, 1, 4);
        assert_eq!(a.particles, b.particles);
        // All ranks together hold domain^3 * ppc particles with unique ids.
        let mut ids = std::collections::HashSet::new();
        let mut total = 0usize;
        for r in 0..4 {
            let s = Simulation::new(cfg, r, 4);
            total += s.particles.len();
            for p in &s.particles {
                assert!(ids.insert(p.id), "duplicate id {}", p.id);
                assert!(
                    s.grid.cell_of(&p.pos).is_some(),
                    "particle outside its slab"
                );
            }
        }
        assert_eq!(total, (cfg.domain.pow(3) * cfg.particles_per_cell) as usize);
    }

    #[test]
    fn stepping_conserves_particles_and_momentum() {
        let cfg = SimConfig::default();
        let reports = TaskWorld::run(4, |comm| async move {
            let mut sim = Simulation::new(cfg, comm.rank(), comm.size());
            let n0 = sim.total_particles(&comm).await;
            let p0 = sim.total_momentum(&comm).await;
            for _ in 0..10 {
                sim.step(&comm).await;
            }
            let n1 = sim.total_particles(&comm).await;
            let p1 = sim.total_momentum(&comm).await;
            (n0, n1, p0, p1)
        });
        for (n0, n1, p0, p1) in reports {
            assert_eq!(n0, n1, "particle count must be conserved");
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
    fn migration_moves_particles_between_ranks() {
        let cfg = SimConfig {
            dt: 0.9,
            ..SimConfig::default()
        };
        let moved = TaskWorld::run(4, |comm| async move {
            let mut sim = Simulation::new(cfg, comm.rank(), comm.size());
            let my_ids: std::collections::HashSet<u32> =
                sim.particles.iter().map(|p| p.id).collect();
            for _ in 0..5 {
                sim.step(&comm).await;
            }
            sim.particles
                .iter()
                .filter(|p| !my_ids.contains(&p.id))
                .count()
        });
        assert!(
            moved.iter().sum::<usize>() > 0,
            "some particles must migrate"
        );
    }

    #[test]
    fn same_world_size_reproduces_digest() {
        let cfg = SimConfig::default();
        let run = || {
            TaskWorld::run(3, |comm| async move {
                let mut sim = Simulation::new(cfg, comm.rank(), comm.size());
                for _ in 0..8 {
                    sim.step(&comm).await;
                }
                sim.global_digest(&comm).await
            })
        };
        let a = run();
        let b = run();
        assert_eq!(a, b);
        assert!(
            a.iter().all(|&d| d == a[0]),
            "digest must agree across ranks"
        );
    }
}
