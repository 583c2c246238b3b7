//! The four workloads and their seeded payloads.
//!
//! Names and shapes are fixed: later changes cite them. A workload may be
//! resized only by the sizing rule in the README (bytes per rank, once).

use mp2c::{Particle, PARTICLE_BYTES};
use sion::{IoMode, SionParams};
use tracer::{synthetic_events, SynthConfig};

/// Largest per-rank source buffer; longer streams cycle through it.
const SOURCE_CAP: usize = 8 << 20;

/// How many bytes each rank writes.
#[derive(Debug, Clone, Copy)]
pub enum RankBytes {
    Fixed(u64),
    /// Seeded, uniform in `lo..=hi`.
    Uniform {
        lo: u64,
        hi: u64,
    },
}

/// What the bytes are.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PayloadKind {
    /// Seeded random bytes.
    Random,
    /// `mp2c::Particle::encode_all` of seeded particles (52 B each).
    Particles,
    /// `tracer::Event::encode` of a seeded synthetic SMG2000-like trace.
    TraceEvents,
}

/// One workload's shape.
#[derive(Debug, Clone)]
pub struct Spec {
    pub name: &'static str,
    /// Which layers do the work here, and which optimisations only this
    /// workload can show.
    pub why: &'static str,
    pub ranks: usize,
    pub bytes: RankBytes,
    /// Size of each `write` call, and of the `read` buffer on restart.
    pub record: usize,
    pub payload: PayloadKind,
    pub params: SionParams,
    /// Block size the `MemFs` advertises.
    pub fs_block: u64,
}

/// Every workload, in reporting order.
pub fn specs() -> Vec<Spec> {
    vec![
        Spec {
            name: "wide_8k",
            why: "8192 ranks x ~512 B: collective open/close and the scheduler are >90% of the wall, data path ~0",
            ranks: 8192,
            bytes: RankBytes::Uniform { lo: 256, hi: 768 },
            record: 192,
            payload: PayloadKind::Random,
            params: SionParams::new(1024).with_nfiles(16).with_write_buffer(2048),
            fs_block: 4096,
        },
        Spec {
            name: "bulk_4k",
            why: "4 ranks x 192 MiB in 4 KiB records: sion::stream and vfs do all the work, collectives <1%",
            ranks: 4,
            bytes: RankBytes::Fixed(192 << 20),
            record: 4096,
            payload: PayloadKind::Particles,
            params: SionParams::new(16 << 20),
            fs_block: 64 << 10,
        },
        Spec {
            name: "agg_1k",
            why: "1024 ranks x 512 KiB, aggregated mode: members ship/ack over simmpi p2p instead of writing",
            ranks: 1024,
            bytes: RankBytes::Fixed(512 << 10),
            record: 1024,
            payload: PayloadKind::Random,
            params: SionParams::new(64 << 10)
                .with_nfiles(4)
                .with_io_mode(IoMode::Aggregated { tasks_per_aggregator: 32 }),
            fs_block: 2 << 20,
        },
        Spec {
            name: "trace_szip",
            why: "256 ranks x 1 MiB of encoded trace events, 64 B records, compressed: szip is ~95% of checkpoint",
            ranks: 256,
            bytes: RankBytes::Fixed(1 << 20),
            record: 64,
            payload: PayloadKind::TraceEvents,
            params: SionParams::new(256 << 10).with_nfiles(4).with_compression(),
            fs_block: 64 << 10,
        },
    ]
}

/// The workload called `name`.
pub fn spec(name: &str) -> Option<Spec> {
    specs().into_iter().find(|s| s.name == name)
}

/// splitmix64: the benchmark's only random source, so payloads depend on
/// the seed and on nothing else.
pub struct SplitMix(pub u64);

impl SplitMix {
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Per-rank source buffers and stream lengths of one workload and seed.
pub struct Payload {
    /// What rank `r` writes is `source[r]`, cycled up to `total[r]` bytes.
    pub source: Vec<Vec<u8>>,
    pub total: Vec<u64>,
    pub record: usize,
}

impl Payload {
    /// Generate the payload of `spec` from `seed`.
    pub fn generate(spec: &Spec, seed: u64) -> Payload {
        let mut sizes = SplitMix(seed ^ 0x0051_57E5);
        let total: Vec<u64> = (0..spec.ranks)
            .map(|_| match spec.bytes {
                RankBytes::Fixed(n) => n,
                RankBytes::Uniform { lo, hi } => lo + sizes.next_u64() % (hi - lo + 1),
            })
            .collect();
        let source = total
            .iter()
            .enumerate()
            .map(|(rank, &total)| {
                let len = source_len(total, spec.record);
                let mut rng =
                    SplitMix(seed ^ (rank as u64 + 1).wrapping_mul(0xA076_1D64_78BD_642F));
                let mut buf = match spec.payload {
                    PayloadKind::Random => random_bytes(&mut rng, len),
                    PayloadKind::Particles => particle_bytes(&mut rng, len),
                    PayloadKind::TraceEvents => trace_bytes(&mut rng, len, rank, spec.ranks),
                };
                buf.truncate(len);
                assert_eq!(buf.len(), len, "generators return at least `len` bytes");
                buf
            })
            .collect();
        Payload {
            source,
            total,
            record: spec.record,
        }
    }

    /// Bytes the whole world writes in one checkpoint.
    pub fn user_bytes(&self) -> u64 {
        self.total.iter().sum()
    }

    /// The records rank `rank` writes, in order. Each is a contiguous
    /// slice of the source buffer: a cycled source is a whole number of
    /// records long.
    pub fn records(&self, rank: usize) -> impl Iterator<Item = &[u8]> {
        let src = &self.source[rank];
        let total = self.total[rank];
        (0..total).step_by(self.record).map(move |pos| {
            let at = (pos % src.len() as u64) as usize;
            let n = (self.record as u64).min(total - pos) as usize;
            &src[at..at + n]
        })
    }

    /// Whether `got` is what rank `rank`'s stream holds at `pos`.
    pub fn matches(&self, rank: usize, pos: u64, got: &[u8]) -> bool {
        let src = &self.source[rank];
        if pos + got.len() as u64 > self.total[rank] {
            return false;
        }
        let mut at = (pos % src.len() as u64) as usize;
        let mut got = got;
        while !got.is_empty() {
            let n = got.len().min(src.len() - at);
            if got[..n] != src[at..at + n] {
                return false;
            }
            got = &got[n..];
            at = 0;
        }
        true
    }
}

/// Source buffer length for a stream of `total` bytes: the whole stream
/// when it fits under the cap, else the largest whole number of records
/// under it.
fn source_len(total: u64, record: usize) -> usize {
    if total <= SOURCE_CAP as u64 {
        total as usize
    } else {
        SOURCE_CAP / record * record
    }
}

fn random_bytes(rng: &mut SplitMix, len: usize) -> Vec<u8> {
    let mut buf = Vec::with_capacity(len + 8);
    while buf.len() < len {
        buf.extend_from_slice(&rng.next_u64().to_le_bytes());
    }
    buf
}

fn particle_bytes(rng: &mut SplitMix, len: usize) -> Vec<u8> {
    let particles: Vec<Particle> = (0..len.div_ceil(PARTICLE_BYTES) as u32)
        .map(|id| Particle {
            pos: std::array::from_fn(|_| rng.unit_f64() * 64.0),
            vel: std::array::from_fn(|_| rng.unit_f64() - 0.5),
            id,
        })
        .collect();
    Particle::encode_all(&particles)
}

fn trace_bytes(rng: &mut SplitMix, len: usize, rank: usize, nranks: usize) -> Vec<u8> {
    let mut buf = Vec::with_capacity(len + 4096);
    // One solver iteration encodes to ~1 KiB; generate in slabs (each with
    // a fresh seed) until the stream is long enough.
    while buf.len() < len {
        let config = SynthConfig {
            iterations: 256,
            seed: rng.next_u64(),
            ..SynthConfig::default()
        };
        for ev in synthetic_events(&config, rank, nranks) {
            ev.encode(&mut buf);
        }
    }
    buf
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// A 16-rank miniature of `wide_8k` for tests.
    pub fn tiny(payload: PayloadKind) -> Spec {
        Spec {
            name: "tiny",
            why: "test",
            ranks: 16,
            bytes: RankBytes::Uniform { lo: 1000, hi: 5000 },
            record: 192,
            payload,
            params: SionParams::new(2048).with_nfiles(2).with_write_buffer(1024),
            fs_block: 512,
        }
    }

    #[test]
    fn same_seed_same_payload_other_seed_other_payload() {
        for kind in [
            PayloadKind::Random,
            PayloadKind::Particles,
            PayloadKind::TraceEvents,
        ] {
            let spec = tiny(kind);
            let a = Payload::generate(&spec, 7);
            let b = Payload::generate(&spec, 7);
            let c = Payload::generate(&spec, 8);
            assert_eq!(a.source, b.source, "{kind:?}");
            assert_eq!(a.total, b.total);
            assert_ne!(a.source, c.source, "{kind:?}");
            assert!(a.total.iter().all(|t| (1000..=5000).contains(t)));
        }
    }

    #[test]
    fn records_concatenate_to_the_stream_and_match_checks_it() {
        let mut spec = tiny(PayloadKind::Random);
        spec.bytes = RankBytes::Fixed(1000);
        let mut p = Payload::generate(&spec, 1);
        // Force cycling: a 384-byte source (two records) for a 1000-byte stream.
        p.source[0].truncate(384);
        let stream: Vec<u8> = p.records(0).flatten().copied().collect();
        assert_eq!(stream.len(), 1000);
        assert_eq!(p.records(0).count(), 6);
        assert_eq!(stream[384..768], p.source[0][..]);
        assert!(p.matches(0, 0, &stream));
        assert!(p.matches(0, 300, &stream[300..900]));
        assert!(!p.matches(0, 301, &stream[300..900]));
        assert!(!p.matches(0, 990, &[0; 11]), "past the end of the stream");
        let mut bad = stream.clone();
        bad[500] ^= 1;
        assert!(!p.matches(0, 0, &bad));
    }

    #[test]
    fn cycled_sources_are_whole_records() {
        assert_eq!(source_len(1000, 192), 1000);
        assert_eq!(source_len(192 << 20, 4096), 8 << 20);
        assert_eq!(source_len(64 << 20, 192) % 192, 0);
    }

    #[test]
    fn the_four_workloads_are_named_as_the_issue_names_them() {
        let names: Vec<_> = specs().iter().map(|s| s.name).collect();
        assert_eq!(names, ["wide_8k", "bulk_4k", "agg_1k", "trace_szip"]);
        assert!(spec("agg_1k").is_some() && spec("nope").is_none());
    }
}
