//! SRD dynamics: streaming and stochastic-rotation collisions.
//!
//! Multi-particle collision dynamics (Malevanets & Kapral; the method MP2C
//! implements) alternates two steps:
//!
//! 1. **Streaming** — ballistic motion `x += v·dt` with periodic wrapping;
//! 2. **Collision** — particles are binned into unit cells; within each
//!    cell, velocities are rotated around a random axis relative to the
//!    cell's centre-of-mass velocity. Momentum per cell is conserved
//!    exactly; kinetic energy is conserved by the rotation.
//!
//! All randomness is *counter-based* (a hash of `(seed, step, cell)`), so
//! the dynamics are a pure function of the initial state — which is what
//! lets the checkpoint tests demand bit-identical continuation after a
//! restart.

use crate::particle::Particle;

/// Cell binning of a slab `[x_lo, x_hi) × [0, ly) × [0, lz)` in unit cells.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CellGrid {
    /// Slab lower bound along x (inclusive), in cell units.
    pub x_lo: u32,
    /// Slab upper bound along x (exclusive), in cell units.
    pub x_hi: u32,
    /// Domain extent along y in cells.
    pub ly: u32,
    /// Domain extent along z in cells.
    pub lz: u32,
}

impl CellGrid {
    /// Number of cells in the slab.
    pub fn ncells(&self) -> usize {
        ((self.x_hi - self.x_lo) as usize) * self.ly as usize * self.lz as usize
    }

    /// Cell index of a position inside the slab, or `None` if it lies
    /// outside (it must migrate first).
    pub fn cell_of(&self, pos: &[f64; 3]) -> Option<usize> {
        let cx = pos[0].floor();
        let cy = pos[1].floor();
        let cz = pos[2].floor();
        if cx < self.x_lo as f64
            || cx >= self.x_hi as f64
            || !(0.0..self.ly as f64).contains(&cy)
            || !(0.0..self.lz as f64).contains(&cz)
        {
            return None;
        }
        let ix = cx as usize - self.x_lo as usize;
        let iy = cy as usize;
        let iz = cz as usize;
        Some((ix * self.ly as usize + iy) * self.lz as usize + iz)
    }

    /// Globally unique id of local cell `local` (for counter-based RNG).
    pub fn global_cell_id(&self, local: usize) -> u64 {
        let per_x = self.ly as usize * self.lz as usize;
        let ix = local / per_x;
        (self.x_lo as u64 + ix as u64) * per_x as u64 + (local % per_x) as u64
    }
}

/// Ballistic streaming with periodic wrapping in a cubic domain of extent
/// `l` cells per dimension.
pub fn stream(particles: &mut [Particle], dt: f64, l: [f64; 3]) {
    for p in particles.iter_mut() {
        for (k, &lk) in l.iter().enumerate() {
            p.pos[k] += p.vel[k] * dt;
            // Periodic wrap; rem_euclid keeps positions in [0, l).
            p.pos[k] = p.pos[k].rem_euclid(lk);
        }
    }
}

/// SplitMix64 — the counter-based generator behind all collision noise and
/// the initial state.
pub(crate) fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Uniform f64 in [0, 1) from a counter.
pub(crate) fn u01(counter: u64) -> f64 {
    (splitmix64(counter) >> 11) as f64 / (1u64 << 53) as f64
}

/// A deterministic unit vector for `(seed, step, cell)`.
fn random_axis(seed: u64, step: u64, cell: u64) -> [f64; 3] {
    let base = splitmix64(seed ^ splitmix64(step) ^ splitmix64(cell.wrapping_mul(3)));
    // Marsaglia: uniform on the sphere via z and angle.
    let z = 2.0 * u01(base) - 1.0;
    let phi = 2.0 * std::f64::consts::PI * u01(base.wrapping_add(1));
    let r = (1.0 - z * z).max(0.0).sqrt();
    [r * phi.cos(), r * phi.sin(), z]
}

/// Rotate `v` by angle `alpha` around unit axis `n` (Rodrigues).
fn rotate(v: [f64; 3], n: [f64; 3], alpha: f64) -> [f64; 3] {
    let (s, c) = alpha.sin_cos();
    let dot = v[0] * n[0] + v[1] * n[1] + v[2] * n[2];
    let cross = [
        n[1] * v[2] - n[2] * v[1],
        n[2] * v[0] - n[0] * v[2],
        n[0] * v[1] - n[1] * v[0],
    ];
    [
        v[0] * c + cross[0] * s + n[0] * dot * (1.0 - c),
        v[1] * c + cross[1] * s + n[1] * dot * (1.0 - c),
        v[2] * c + cross[2] * s + n[2] * dot * (1.0 - c),
    ]
}

/// One SRD collision step over the slab: bin particles into cells, rotate
/// velocities relative to each cell's centre of mass by `alpha` around a
/// per-(step, cell) random axis.
pub fn collide(particles: &mut [Particle], grid: &CellGrid, alpha: f64, seed: u64, step: u64) {
    collide_with_extras(particles, &mut [], grid, alpha, seed, step);
}

/// SRD collision with heavy MD solutes participating: the cell's centre of
/// mass is mass-weighted (solvent mass 1, solute masses as given) and
/// every member's velocity rotates around the same axis — the standard
/// Malevanets–Kapral solute–solvent coupling. Conserves each cell's
/// momentum and kinetic energy exactly.
pub(crate) fn collide_with_extras(
    particles: &mut [Particle],
    solutes: &mut [crate::solute::Solute],
    grid: &CellGrid,
    alpha: f64,
    seed: u64,
    step: u64,
) {
    let ncells = grid.ncells();
    // Bucket solvent particles by cell (counting sort keeps this
    // allocation-light even for millions of particles).
    let mut cell_idx = vec![usize::MAX; particles.len()];
    let mut counts = vec![0u32; ncells];
    for (i, p) in particles.iter().enumerate() {
        if let Some(c) = grid.cell_of(&p.pos) {
            cell_idx[i] = c;
            counts[c] += 1;
        }
    }
    let mut starts = vec![0usize; ncells + 1];
    for c in 0..ncells {
        starts[c + 1] = starts[c] + counts[c] as usize;
    }
    let mut order = vec![0usize; starts[ncells]];
    let mut cursor = starts.clone();
    for (i, &c) in cell_idx.iter().enumerate() {
        if c != usize::MAX {
            order[cursor[c]] = i;
            cursor[c] += 1;
        }
    }
    // Solutes are dilute: a simple per-cell list is cheap.
    let mut solutes_in: Vec<Vec<usize>> =
        vec![Vec::new(); if solutes.is_empty() { 0 } else { ncells }];
    for (i, s) in solutes.iter().enumerate() {
        if let Some(c) = grid.cell_of(&s.pos) {
            solutes_in[c].push(i);
        }
    }

    for c in 0..ncells {
        let members = &order[starts[c]..starts[c + 1]];
        let cell_solutes: &[usize] = if solutes_in.is_empty() {
            &[]
        } else {
            &solutes_in[c]
        };
        if members.len() + cell_solutes.len() < 2 {
            continue; // no collision partner
        }
        // Mass-weighted centre-of-mass velocity (solvent mass = 1).
        let mut vcm = [0.0f64; 3];
        let mut mass = 0.0f64;
        for &i in members {
            for (k, v) in vcm.iter_mut().enumerate() {
                *v += particles[i].vel[k];
            }
            mass += 1.0;
        }
        for &i in cell_solutes {
            for (k, v) in vcm.iter_mut().enumerate() {
                *v += solutes[i].mass * solutes[i].vel[k];
            }
            mass += solutes[i].mass;
        }
        for v in vcm.iter_mut() {
            *v /= mass;
        }
        let axis = random_axis(seed, step, grid.global_cell_id(c));
        for &i in members {
            let rel = [
                particles[i].vel[0] - vcm[0],
                particles[i].vel[1] - vcm[1],
                particles[i].vel[2] - vcm[2],
            ];
            let rot = rotate(rel, axis, alpha);
            for k in 0..3 {
                particles[i].vel[k] = vcm[k] + rot[k];
            }
        }
        for &i in cell_solutes {
            let rel = [
                solutes[i].vel[0] - vcm[0],
                solutes[i].vel[1] - vcm[1],
                solutes[i].vel[2] - vcm[2],
            ];
            let rot = rotate(rel, axis, alpha);
            for k in 0..3 {
                solutes[i].vel[k] = vcm[k] + rot[k];
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn sample_particles(n: usize, grid: &CellGrid) -> Vec<Particle> {
        (0..n)
            .map(|i| Particle {
                pos: [
                    grid.x_lo as f64 + (i as f64 * 0.37) % (grid.x_hi - grid.x_lo) as f64,
                    (i as f64 * 0.73) % grid.ly as f64,
                    (i as f64 * 1.39) % grid.lz as f64,
                ],
                vel: [
                    (i as f64 * 0.11).sin(),
                    (i as f64 * 0.23).cos(),
                    (i as f64 * 0.31).sin() * 0.5,
                ],
                id: i as u32,
            })
            .collect()
    }

    #[test]
    fn streaming_wraps_periodically() {
        let mut ps = vec![Particle {
            pos: [7.5, 0.5, 0.5],
            vel: [1.0, -2.0, 0.0],
            id: 0,
        }];
        stream(&mut ps, 1.0, [8.0, 8.0, 8.0]);
        assert!((ps[0].pos[0] - 0.5).abs() < 1e-12);
        assert!((ps[0].pos[1] - 6.5).abs() < 1e-12);
    }

    #[test]
    fn collision_conserves_momentum_and_energy() {
        let grid = CellGrid {
            x_lo: 0,
            x_hi: 4,
            ly: 4,
            lz: 4,
        };
        let mut ps = sample_particles(500, &grid);
        let (p0, e0) = totals(&ps);
        collide(&mut ps, &grid, 2.0, 99, 3);
        let (p1, e1) = totals(&ps);
        for k in 0..3 {
            assert!(
                (p0[k] - p1[k]).abs() < 1e-9,
                "momentum k={k}: {} vs {}",
                p0[k],
                p1[k]
            );
        }
        assert!((e0 - e1).abs() < 1e-9, "energy: {e0} vs {e1}");
        // And something actually happened.
        let moved = ps
            .iter()
            .zip(sample_particles(500, &grid))
            .filter(|(a, b)| a.vel != b.vel)
            .count();
        assert!(
            moved > 100,
            "collision should change most velocities, changed {moved}"
        );
    }

    fn totals(ps: &[Particle]) -> ([f64; 3], f64) {
        let mut p = [0.0f64; 3];
        let mut e = 0.0f64;
        for part in ps {
            for (k, pk) in p.iter_mut().enumerate() {
                *pk += part.vel[k];
                e += part.vel[k] * part.vel[k];
            }
        }
        (p, e)
    }

    #[test]
    fn collisions_are_deterministic_in_inputs() {
        let grid = CellGrid {
            x_lo: 2,
            x_hi: 6,
            ly: 4,
            lz: 4,
        };
        let base: Vec<Particle> = sample_particles(200, &grid);
        let mut a = base.clone();
        let mut b = base.clone();
        collide(&mut a, &grid, 2.0, 7, 42);
        collide(&mut b, &grid, 2.0, 7, 42);
        assert_eq!(a, b);
        let mut c = base.clone();
        collide(&mut c, &grid, 2.0, 7, 43); // different step -> different axes
        assert_ne!(a, c);
    }

    #[test]
    fn cell_of_rejects_out_of_slab() {
        let grid = CellGrid {
            x_lo: 4,
            x_hi: 8,
            ly: 8,
            lz: 8,
        };
        assert!(grid.cell_of(&[3.9, 0.0, 0.0]).is_none());
        assert!(grid.cell_of(&[8.0, 0.0, 0.0]).is_none());
        assert!(grid.cell_of(&[4.0, 0.0, 0.0]).is_some());
        assert!(grid.cell_of(&[7.999, 7.999, 7.999]).is_some());
    }

    #[test]
    fn global_cell_ids_disjoint_across_slabs() {
        let a = CellGrid {
            x_lo: 0,
            x_hi: 4,
            ly: 4,
            lz: 4,
        };
        let b = CellGrid {
            x_lo: 4,
            x_hi: 8,
            ly: 4,
            lz: 4,
        };
        let ids_a: std::collections::HashSet<u64> =
            (0..a.ncells()).map(|c| a.global_cell_id(c)).collect();
        let ids_b: std::collections::HashSet<u64> =
            (0..b.ncells()).map(|c| b.global_cell_id(c)).collect();
        assert_eq!(ids_a.len(), a.ncells());
        assert!(ids_a.is_disjoint(&ids_b));
    }

    proptest! {
        /// Rotation preserves vector length for any axis/angle.
        #[test]
        fn rotation_is_isometric(
            v in (-10.0f64..10.0, -10.0f64..10.0, -10.0f64..10.0),
            seed in any::<u64>(),
            alpha in 0.0f64..6.3,
        ) {
            let axis = random_axis(seed, 0, 0);
            let v = [v.0, v.1, v.2];
            let r = rotate(v, axis, alpha);
            let n0 = v.iter().map(|x| x * x).sum::<f64>().sqrt();
            let n1 = r.iter().map(|x| x * x).sum::<f64>().sqrt();
            prop_assert!((n0 - n1).abs() < 1e-9 * (1.0 + n0));
        }

        /// Random axes are unit length.
        #[test]
        fn axes_are_unit(seed in any::<u64>(), step in any::<u64>(), cell in any::<u64>()) {
            let a = random_axis(seed, step, cell);
            let n = a.iter().map(|x| x * x).sum::<f64>().sqrt();
            prop_assert!((n - 1.0).abs() < 1e-12);
        }
    }
}
