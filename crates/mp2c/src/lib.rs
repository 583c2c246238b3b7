//! `mp2c` — a multi-particle collision dynamics mini-app.
//!
//! The paper's first use case (§5.1) is MP2C, a mesoscopic particle
//! simulation coupling multi-particle collision dynamics (MPC/SRD) with
//! molecular dynamics, parallelized by domain decomposition. Its original
//! single-file-sequential checkpointing limited runs on 1 Ki Jugene cores
//! to ~10 M particles; with SIONlib it reached beyond a billion (Fig. 6).
//!
//! This crate is the reproduction's stand-in: a real (small) SRD solvent
//! simulation with
//!
//! * slab domain decomposition and particle migration over the
//!   message-passing runtime ([`simmpi`]),
//! * streaming + stochastic-rotation collision steps with counter-based
//!   (stateless) randomness, so a restarted run is bit-identical to an
//!   uninterrupted one,
//! * checkpoint/restart through three interchangeable I/O strategies
//!   ([`checkpoint`]): a SIONlib multifile, task-local files, and the
//!   single-file-sequential scheme MP2C originally used — with the same
//!   52 bytes per particle the paper reports.

pub mod checkpoint;
mod dynamics;
mod particle;
mod sim;
mod solute;

pub use dynamics::{collide, stream, CellGrid};
pub use particle::{Particle, PARTICLE_BYTES};
pub use sim::{SimConfig, Simulation};
pub use solute::{LjParams, Solute};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn particle_record_is_52_bytes_like_the_paper() {
        assert_eq!(PARTICLE_BYTES, 52);
    }
}
