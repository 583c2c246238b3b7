//! Synthetic SMG2000-like event workload.
//!
//! The paper's Table 2 traces a fully instrumented run of the ASC SMG2000
//! benchmark (a semicoarsening multigrid solver) on 32 Ki cores. We cannot
//! run SMG2000 itself, so this module produces event streams with the same
//! *shape*: deeply nested solver regions, per-iteration halo exchanges
//! with a small set of neighbour ranks, and mildly rank-dependent timing
//! jitter (which is what makes wait states worth tracing in the first
//! place).

use crate::event::Event;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Shape of the synthetic workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SynthConfig {
    /// Number of solver iterations.
    pub iterations: u32,
    /// Multigrid levels (nesting depth per iteration).
    pub levels: u32,
    /// Neighbours each rank exchanges halos with per level.
    pub neighbours: u32,
    /// Mean halo message size in bytes.
    pub halo_bytes: u32,
    /// RNG seed (per-run; the rank is mixed in separately).
    pub seed: u64,
}

impl Default for SynthConfig {
    fn default() -> Self {
        SynthConfig {
            iterations: 10,
            levels: 4,
            neighbours: 4,
            halo_bytes: 4096,
            seed: 42,
        }
    }
}

/// Region ids used by the generator.
pub(crate) const REGION_MAIN: u32 = 0;
/// Region id of one solver iteration.
pub(crate) const REGION_ITERATION: u32 = 1;
/// Region ids of multigrid levels start here (level `l` = `REGION_LEVEL0 + l`).
pub(crate) const REGION_LEVEL0: u32 = 10;

/// Generate `rank`'s event stream for an SMG2000-like run of `nranks`
/// tasks. Deterministic in `(config, rank, nranks)`.
pub fn synthetic_events(config: &SynthConfig, rank: usize, nranks: usize) -> Vec<Event> {
    let mut rng =
        StdRng::seed_from_u64(config.seed ^ (rank as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let mut events = Vec::new();
    let mut t = 0u64;
    events.push(Event::Enter {
        time: t,
        region: REGION_MAIN,
    });
    for _ in 0..config.iterations {
        t += rng.gen_range(100..200);
        events.push(Event::Enter {
            time: t,
            region: REGION_ITERATION,
        });
        for level in 0..config.levels {
            t += rng.gen_range(50..150);
            events.push(Event::Enter {
                time: t,
                region: REGION_LEVEL0 + level,
            });
            // Halo exchange: sends then receives, like a nearest-neighbour
            // stencil. Neighbour ranks are ±1, ±2, ... with wraparound.
            for n in 0..config.neighbours {
                let offset = (n / 2 + 1) as isize * if n % 2 == 0 { 1 } else { -1 };
                let peer = (rank as isize + offset).rem_euclid(nranks as isize) as u32;
                let bytes = config.halo_bytes / 2 + rng.gen_range(0..config.halo_bytes);
                t += rng.gen_range(1..20);
                events.push(Event::Send {
                    time: t,
                    peer,
                    tag: level,
                    bytes,
                });
            }
            for n in 0..config.neighbours {
                let offset = (n / 2 + 1) as isize * if n % 2 == 0 { -1 } else { 1 };
                let peer = (rank as isize + offset).rem_euclid(nranks as isize) as u32;
                let bytes = config.halo_bytes / 2 + rng.gen_range(0..config.halo_bytes);
                // Rank-dependent jitter produces late senders.
                t += rng.gen_range(1..40) + (rank as u64 % 7) * 3;
                events.push(Event::Recv {
                    time: t,
                    peer,
                    tag: level,
                    bytes,
                });
            }
            // Smoothing work on this level.
            t += rng.gen_range(200..400) >> level.min(4);
            events.push(Event::Exit {
                time: t,
                region: REGION_LEVEL0 + level,
            });
        }
        t += rng.gen_range(20..60);
        events.push(Event::Exit {
            time: t,
            region: REGION_ITERATION,
        });
    }
    t += 50;
    events.push(Event::Exit {
        time: t,
        region: REGION_MAIN,
    });
    events
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_per_rank() {
        let c = SynthConfig::default();
        assert_eq!(synthetic_events(&c, 3, 16), synthetic_events(&c, 3, 16));
        assert_ne!(synthetic_events(&c, 3, 16), synthetic_events(&c, 4, 16));
    }

    #[test]
    fn timestamps_monotone_and_regions_balanced() {
        let c = SynthConfig::default();
        for rank in [0usize, 7, 15] {
            let evs = synthetic_events(&c, rank, 16);
            let mut last = 0u64;
            let mut depth = 0i64;
            for ev in &evs {
                assert!(ev.time() >= last, "timestamps must be monotone");
                last = ev.time();
                match ev {
                    Event::Enter { .. } => depth += 1,
                    Event::Exit { .. } => depth -= 1,
                    _ => {}
                }
                assert!(depth >= 0, "exit without enter");
            }
            assert_eq!(depth, 0, "unbalanced enters/exits");
        }
    }

    #[test]
    fn event_count_scales_with_config() {
        let small = SynthConfig {
            iterations: 2,
            ..SynthConfig::default()
        };
        let big = SynthConfig {
            iterations: 20,
            ..SynthConfig::default()
        };
        let n_small = synthetic_events(&small, 0, 8).len();
        let n_big = synthetic_events(&big, 0, 8).len();
        assert!(n_big > 8 * n_small);
    }

    #[test]
    fn peers_in_range() {
        let c = SynthConfig {
            neighbours: 6,
            ..SynthConfig::default()
        };
        for ev in synthetic_events(&c, 0, 4) {
            if let Event::Send { peer, .. } | Event::Recv { peer, .. } = ev {
                assert!(peer < 4);
            }
        }
    }
}
