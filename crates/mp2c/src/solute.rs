//! Molecular-dynamics solutes coupled to the SRD solvent.
//!
//! MP2C "couples multiple-particle collision dynamics … with molecular
//! dynamics" (paper §5.1) to study colloids and polymers. This module
//! implements the standard Malevanets–Kapral coupling: heavy Lennard-Jones
//! solute particles are integrated with velocity Verlet between solvent
//! streaming steps and *participate in the SRD cell collisions* with their
//! mass, which exchanges momentum between solute and solvent (and is the
//! entire solute–solvent interaction).
//!
//! Solutes are dilute and replicated on every rank (a common strategy):
//! each rank holds the full solute set and advances it with identical,
//! deterministic arithmetic, so no solute communication is needed and a
//! restart stays bit-identical.


/// Bytes per solute record in a checkpoint: 7×f64 + u32.
pub(crate) const SOLUTE_BYTES: usize = 60;

/// A heavy MD particle.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Solute {
    /// Position.
    pub pos: [f64; 3],
    /// Velocity.
    pub vel: [f64; 3],
    /// Mass (solvent particles have mass 1).
    pub mass: f64,
    /// Solute id.
    pub id: u32,
}

impl Solute {
    /// Append the checkpoint encoding to `out`.
    pub fn encode(&self, out: &mut Vec<u8>) {
        for v in self.pos.iter().chain(self.vel.iter()) {
            out.extend_from_slice(&v.to_le_bytes());
        }
        out.extend_from_slice(&self.mass.to_le_bytes());
        out.extend_from_slice(&self.id.to_le_bytes());
    }

    /// Decode one solute from exactly `SOLUTE_BYTES` bytes.
    pub fn decode(bytes: &[u8]) -> Option<Solute> {
        if bytes.len() < SOLUTE_BYTES {
            return None;
        }
        let f = |i: usize| f64::from_le_bytes(bytes[i..i + 8].try_into().unwrap());
        Some(Solute {
            pos: [f(0), f(8), f(16)],
            vel: [f(24), f(32), f(40)],
            mass: f(48),
            id: u32::from_le_bytes(bytes[56..60].try_into().unwrap()),
        })
    }

    /// Encode a slice of solutes.
    pub fn encode_all(solutes: &[Solute]) -> Vec<u8> {
        let mut out = Vec::with_capacity(solutes.len() * SOLUTE_BYTES);
        for s in solutes {
            s.encode(&mut out);
        }
        out
    }

    /// Decode a byte stream of solutes.
    pub fn decode_all(bytes: &[u8]) -> Option<Vec<Solute>> {
        if !bytes.len().is_multiple_of(SOLUTE_BYTES) {
            return None;
        }
        Some(bytes.chunks_exact(SOLUTE_BYTES).map(|c| Solute::decode(c).unwrap()).collect())
    }
}

/// Lennard-Jones parameters for solute–solute interactions.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LjParams {
    /// Well depth.
    pub epsilon: f64,
    /// Zero-crossing distance (cells).
    pub sigma: f64,
    /// Interaction cutoff (cells).
    pub cutoff: f64,
}

impl Default for LjParams {
    fn default() -> Self {
        LjParams { epsilon: 1.0, sigma: 0.8, cutoff: 2.0 }
    }
}

/// Minimum-image displacement in a periodic cube of extent `l`.
fn min_image(mut d: f64, l: f64) -> f64 {
    if d > l / 2.0 {
        d -= l;
    } else if d < -l / 2.0 {
        d += l;
    }
    d
}

/// Pairwise Lennard-Jones forces with minimum-image convention; returns
/// the potential energy. Forces are accumulated into `force` (must be
/// zeroed by the caller).
pub(crate) fn lj_forces(solutes: &[Solute], lj: &LjParams, l: f64, force: &mut [[f64; 3]]) -> f64 {
    assert_eq!(force.len(), solutes.len());
    let rc2 = lj.cutoff * lj.cutoff;
    let mut energy = 0.0;
    for i in 0..solutes.len() {
        for j in (i + 1)..solutes.len() {
            let d = [
                min_image(solutes[i].pos[0] - solutes[j].pos[0], l),
                min_image(solutes[i].pos[1] - solutes[j].pos[1], l),
                min_image(solutes[i].pos[2] - solutes[j].pos[2], l),
            ];
            let r2 = d[0] * d[0] + d[1] * d[1] + d[2] * d[2];
            if r2 >= rc2 || r2 == 0.0 {
                continue;
            }
            let s2 = lj.sigma * lj.sigma / r2;
            let s6 = s2 * s2 * s2;
            let s12 = s6 * s6;
            energy += 4.0 * lj.epsilon * (s12 - s6);
            // F = 24 ε (2 s¹² − s⁶) / r² · d
            let f_over_r2 = 24.0 * lj.epsilon * (2.0 * s12 - s6) / r2;
            for k in 0..3 {
                force[i][k] += f_over_r2 * d[k];
                force[j][k] -= f_over_r2 * d[k];
            }
        }
    }
    energy
}

/// One velocity-Verlet step of the solute system (periodic cube of extent
/// `l`). Returns the LJ potential energy after the step.
pub(crate) fn verlet_step(solutes: &mut [Solute], lj: &LjParams, dt: f64, l: f64) -> f64 {
    let n = solutes.len();
    if n == 0 {
        return 0.0;
    }
    let mut force = vec![[0.0f64; 3]; n];
    lj_forces(solutes, lj, l, &mut force);
    // Half kick + drift.
    for (s, f) in solutes.iter_mut().zip(&force) {
        for (k, fk) in f.iter().enumerate() {
            s.vel[k] += 0.5 * dt * fk / s.mass;
            s.pos[k] = (s.pos[k] + dt * s.vel[k]).rem_euclid(l);
        }
    }
    // New forces + half kick.
    let mut force2 = vec![[0.0f64; 3]; n];
    let energy = lj_forces(solutes, lj, l, &mut force2);
    for (s, f) in solutes.iter_mut().zip(&force2) {
        for (k, fk) in f.iter().enumerate() {
            s.vel[k] += 0.5 * dt * fk / s.mass;
        }
    }
    energy
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Kinetic energy of the solutes.
    fn kinetic_energy(solutes: &[Solute]) -> f64 {
        solutes
            .iter()
            .map(|s| 0.5 * s.mass * s.vel.iter().map(|v| v * v).sum::<f64>())
            .sum()
    }

    fn pair(r: f64) -> Vec<Solute> {
        vec![
            Solute { pos: [1.0, 1.0, 1.0], vel: [0.0; 3], mass: 5.0, id: 0 },
            Solute { pos: [1.0 + r, 1.0, 1.0], vel: [0.0; 3], mass: 5.0, id: 1 },
        ]
    }

    #[test]
    fn encode_roundtrip() {
        let s = Solute { pos: [1.5, -2.0, 3.25], vel: [0.1, 0.2, -0.3], mass: 7.5, id: 42 };
        let mut buf = Vec::new();
        s.encode(&mut buf);
        assert_eq!(buf.len(), SOLUTE_BYTES);
        assert_eq!(Solute::decode(&buf), Some(s));
        assert!(Solute::decode_all(&buf[..SOLUTE_BYTES - 1]).is_none());
    }

    #[test]
    fn lj_repulsive_inside_attractive_outside() {
        let lj = LjParams::default();
        // r < sigma: repulsion pushes apart (force on i along +d = +x for i
        // at larger x? i=0 at x=1, j=1 at x=1+r → d = pos0-pos1 = -r).
        let mut force = vec![[0.0; 3]; 2];
        lj_forces(&pair(0.6), &lj, 16.0, &mut force);
        assert!(force[0][0] < 0.0 && force[1][0] > 0.0, "repulsion: {force:?}");
        // sigma < r < cutoff with r beyond the minimum 2^(1/6) σ ≈ 0.898:
        // attraction pulls together.
        let mut force = vec![[0.0; 3]; 2];
        lj_forces(&pair(1.2), &lj, 16.0, &mut force);
        assert!(force[0][0] > 0.0 && force[1][0] < 0.0, "attraction: {force:?}");
        // Beyond cutoff: nothing.
        let mut force = vec![[0.0; 3]; 2];
        let e = lj_forces(&pair(3.0), &lj, 16.0, &mut force);
        assert_eq!(e, 0.0);
        assert_eq!(force, vec![[0.0; 3]; 2]);
    }

    #[test]
    fn forces_respect_newtons_third_law_and_minimum_image() {
        let lj = LjParams::default();
        // A pair straddling the periodic boundary interacts via the image.
        let solutes = vec![
            Solute { pos: [0.2, 4.0, 4.0], vel: [0.0; 3], mass: 2.0, id: 0 },
            Solute { pos: [7.8, 4.0, 4.0], vel: [0.0; 3], mass: 2.0, id: 1 },
        ];
        let mut force = vec![[0.0; 3]; 2];
        let e = lj_forces(&solutes, &lj, 8.0, &mut force);
        assert!(e != 0.0, "0.4 apart through the boundary must interact");
        for (f0, f1) in force[0].iter().zip(&force[1]) {
            assert!((f0 + f1).abs() < 1e-12);
        }
    }

    #[test]
    fn verlet_conserves_energy_reasonably() {
        let lj = LjParams::default();
        let mut solutes = vec![
            Solute { pos: [3.0, 4.0, 4.0], vel: [0.05, 0.0, 0.0], mass: 5.0, id: 0 },
            Solute { pos: [4.2, 4.0, 4.0], vel: [-0.05, 0.0, 0.0], mass: 5.0, id: 1 },
            Solute { pos: [4.0, 5.1, 4.0], vel: [0.0, -0.02, 0.0], mass: 5.0, id: 2 },
        ];
        let mut f0 = vec![[0.0; 3]; 3];
        let e0 = lj_forces(&solutes, &lj, 8.0, &mut f0) + kinetic_energy(&solutes);
        let mut last_pot = 0.0;
        for _ in 0..200 {
            last_pot = verlet_step(&mut solutes, &lj, 0.005, 8.0);
        }
        let e1 = last_pot + kinetic_energy(&solutes);
        assert!(
            (e0 - e1).abs() < 0.02 * (1.0 + e0.abs()),
            "energy drift too large: {e0} -> {e1}"
        );
    }

    #[test]
    fn verlet_is_deterministic() {
        let lj = LjParams::default();
        let init = pair(1.1);
        let mut a = init.clone();
        let mut b = init.clone();
        for _ in 0..50 {
            verlet_step(&mut a, &lj, 0.01, 8.0);
            verlet_step(&mut b, &lj, 0.01, 8.0);
        }
        assert_eq!(a, b);
    }

    proptest! {
        /// Momentum is conserved by the LJ + Verlet dynamics.
        #[test]
        fn verlet_conserves_momentum(
            seeds in prop::collection::vec((0.5f64..7.5, 0.5f64..7.5, 0.5f64..7.5), 2..6)
        ) {
            let lj = LjParams::default();
            let mut solutes: Vec<Solute> = seeds
                .iter()
                .enumerate()
                .map(|(i, &(x, y, z))| Solute {
                    pos: [x, y, z],
                    vel: [0.01 * i as f64, -0.02, 0.005],
                    mass: 3.0,
                    id: i as u32,
                })
                .collect();
            // Nearly-overlapping pairs produce astronomically large LJ
            // forces whose floating-point cancellation noise dwarfs any
            // fixed tolerance; physical initial conditions keep a minimum
            // separation.
            for i in 0..solutes.len() {
                for j in (i + 1)..solutes.len() {
                    let d2: f64 = (0..3)
                        .map(|k| {
                            let d = solutes[i].pos[k] - solutes[j].pos[k];
                            d * d
                        })
                        .sum();
                    prop_assume!(d2 > 0.45);
                }
            }
            let p0: Vec<f64> = (0..3)
                .map(|k| solutes.iter().map(|s| s.mass * s.vel[k]).sum())
                .collect();
            for _ in 0..20 {
                verlet_step(&mut solutes, &lj, 0.002, 8.0);
            }
            for (k, p0k) in p0.iter().enumerate() {
                let p1: f64 = solutes.iter().map(|s| s.mass * s.vel[k]).sum();
                prop_assert!((p0k - p1).abs() < 1e-9 * (1.0 + p0k.abs()));
            }
        }
    }
}
