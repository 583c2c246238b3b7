//! The particle record and its 52-byte checkpoint encoding.

/// Bytes one particle occupies in a checkpoint: 3×f64 position, 3×f64
/// velocity, u32 id — the "52 bytes per particle" of the paper's §5.1.
pub const PARTICLE_BYTES: usize = 52;

/// One solvent particle.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Particle {
    /// Position in the global domain.
    pub pos: [f64; 3],
    /// Velocity.
    pub vel: [f64; 3],
    /// Global particle id.
    pub id: u32,
}

impl Particle {
    /// Append the checkpoint encoding to `out`.
    pub fn encode(&self, out: &mut Vec<u8>) {
        for v in self.pos.iter().chain(self.vel.iter()) {
            out.extend_from_slice(&v.to_le_bytes());
        }
        out.extend_from_slice(&self.id.to_le_bytes());
    }

    /// Decode one particle from exactly [`PARTICLE_BYTES`] bytes.
    pub fn decode(bytes: &[u8]) -> Option<Particle> {
        if bytes.len() < PARTICLE_BYTES {
            return None;
        }
        let f = |i: usize| f64::from_le_bytes(bytes[i..i + 8].try_into().unwrap());
        Some(Particle {
            pos: [f(0), f(8), f(16)],
            vel: [f(24), f(32), f(40)],
            id: u32::from_le_bytes(bytes[48..52].try_into().unwrap()),
        })
    }

    /// Encode a whole slice of particles.
    pub fn encode_all(particles: &[Particle]) -> Vec<u8> {
        let mut out = Vec::with_capacity(particles.len() * PARTICLE_BYTES);
        for p in particles {
            p.encode(&mut out);
        }
        out
    }

    /// Decode a byte stream into particles (length must be a multiple of
    /// [`PARTICLE_BYTES`]).
    pub fn decode_all(bytes: &[u8]) -> Option<Vec<Particle>> {
        if !bytes.len().is_multiple_of(PARTICLE_BYTES) {
            return None;
        }
        Some(
            bytes
                .chunks_exact(PARTICLE_BYTES)
                .map(|c| Particle::decode(c).expect("exact chunk"))
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn encode_is_52_bytes() {
        let p = Particle {
            pos: [1.0, 2.0, 3.0],
            vel: [-0.5, 0.25, 0.0],
            id: 77,
        };
        let mut buf = Vec::new();
        p.encode(&mut buf);
        assert_eq!(buf.len(), PARTICLE_BYTES);
        assert_eq!(Particle::decode(&buf), Some(p));
    }

    #[test]
    fn decode_all_rejects_ragged_input() {
        assert!(Particle::decode_all(&[0u8; 53]).is_none());
        assert_eq!(Particle::decode_all(&[]).unwrap().len(), 0);
    }

    proptest! {
        #[test]
        fn roundtrip_many(
            raw in prop::collection::vec((any::<[f64; 3]>(), any::<[f64; 3]>(), any::<u32>()), 0..50)
        ) {
            let particles: Vec<Particle> = raw
                .iter()
                .map(|&(pos, vel, id)| Particle { pos, vel, id })
                .collect();
            let bytes = Particle::encode_all(&particles);
            prop_assert_eq!(bytes.len(), particles.len() * PARTICLE_BYTES);
            let back = Particle::decode_all(&bytes).unwrap();
            // Compare bitwise (NaN-safe).
            prop_assert_eq!(back.len(), particles.len());
            for (a, b) in back.iter().zip(&particles) {
                for k in 0..3 {
                    prop_assert_eq!(a.pos[k].to_bits(), b.pos[k].to_bits());
                    prop_assert_eq!(a.vel[k].to_bits(), b.vel[k].to_bits());
                }
                prop_assert_eq!(a.id, b.id);
            }
        }
    }
}
