//! What the encoder must achieve on the payloads this repository really
//! compresses, so that the matcher is not tuned to one of them — and that
//! its output is a function of its input, whatever its reused tables hold —
//! and how much faster than its predecessor the decoder must stay.

mod common;

use common::v1;
use mp2c::Particle;
use szip::{compress, decompress, FRAME_RAW_MAX};
use tracer::{synthetic_events, SynthConfig};

/// 1 MiB of one rank's encoded solver trace, as `sionbench`'s `trace_szip`
/// builds it.
fn trace_events(seed: u64) -> Vec<u8> {
    let mut rng = common::SplitMix(seed);
    let mut buf = Vec::new();
    while buf.len() < 1 << 20 {
        let config = SynthConfig {
            iterations: 256,
            seed: rng.next_u64(),
            ..SynthConfig::default()
        };
        for ev in synthetic_events(&config, 3, 256) {
            ev.encode(&mut buf);
        }
    }
    buf.truncate(1 << 20);
    buf
}

/// `mp2c::checkpoint`'s payload: `f64` positions and velocities.
fn particles(seed: u64) -> Vec<u8> {
    let mut rng = common::SplitMix(seed);
    let mut unit = || (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
    let all: Vec<Particle> = (0..12_000)
        .map(|id| Particle {
            pos: std::array::from_fn(|_| unit() * 64.0),
            vel: std::array::from_fn(|_| unit() - 0.5),
            id,
        })
        .collect();
    Particle::encode_all(&all)
}

#[test]
fn ratio_floors() {
    // `None`: incompressible, must be stored at no more than 16 B a frame.
    // The v1 hash-chain matcher (64 probes a position) reached 2.05 on the
    // trace events and 4.76 on the word mix; `sionbench`'s
    // `stored_per_user_byte` bound on `trace_szip` is 1.98 here.
    let cases: [(&str, Vec<u8>, Option<f64>); 4] = [
        ("trace events", trace_events(1), Some(2.2)),
        ("word mix", common::word_mix(5, 1 << 20), Some(4.3)),
        ("mp2c particles", particles(9), None),
        ("random bytes", common::random_bytes(7, 600_000), None),
    ];
    for (name, raw, floor) in cases {
        let packed = compress(&raw);
        assert_eq!(decompress(&packed).unwrap(), raw, "{name}");
        let ratio = raw.len() as f64 / packed.len() as f64;
        match floor {
            Some(floor) => assert!(ratio >= floor, "{name}: ratio {ratio:.3} under {floor}"),
            None => {
                let frames = raw.len().div_ceil(FRAME_RAW_MAX);
                assert!(
                    packed.len() <= raw.len() + 16 * frames,
                    "{name}: {} -> {}",
                    raw.len(),
                    packed.len()
                );
            }
        }
    }
}

/// Framed decoding against what it replaced, on the same frames in the same
/// process, so the floor is a ratio and no host's speed: the push decoder
/// and FNV-1a over its output (`common::v1`, frozen) must take at least
/// twice as long as `decompress`. Both sides grow one 16 MiB `Vec`. Only an
/// optimised build says anything about speed; `ci.sh` runs this in release.
#[test]
fn decode_floor() {
    if cfg!(debug_assertions) {
        return;
    }
    let raw = common::trace_like(11, 16 << 20);
    let packed = compress(&raw);
    let starts = common::frame_starts(&packed);
    let old_reader = || {
        let mut out = Vec::new();
        let mut checks = 0u32;
        for (i, &at) in starts.iter().enumerate() {
            let end = starts.get(i + 1).copied().unwrap_or(packed.len());
            let raw_len = u32::from_le_bytes(packed[at + 1..at + 5].try_into().unwrap()) as usize;
            assert_eq!(packed[at], 3, "trace-like data compresses");
            let before = out.len();
            v1::decompress_block(&packed[at + v1::HEADER..end], raw_len, &mut out).unwrap();
            checks ^= v1::fnv1a(&out[before..]);
        }
        std::hint::black_box(checks);
        out
    };
    let best = |f: &dyn Fn() -> Vec<u8>| {
        (0..5)
            .map(|_| {
                let start = std::time::Instant::now();
                let out = f();
                let took = start.elapsed().as_secs_f64();
                assert!(out == raw);
                took
            })
            .fold(f64::MAX, f64::min)
    };
    let old = best(&old_reader);
    let new = best(&|| decompress(&packed).unwrap());
    assert!(
        old >= 2.0 * new,
        "decode floor: v1 reader {:.3} GB/s, decompress {:.3} GB/s, {:.2}x",
        raw.len() as f64 / 1e9 / old,
        raw.len() as f64 / 1e9 / new,
        old / new
    );
    println!("decode floor: {:.2}x ({:.3} s against {:.3} s)", old / new, old, new);
}

/// The tables are per thread and reused: A after B, A on a fresh thread and
/// the first A must be the same bytes (`stored_per_user_byte` being exact
/// for a seed, and a member's stream matching what its aggregator stores,
/// rest on this).
#[test]
fn output_is_a_function_of_the_input() {
    let a = trace_events(2);
    let b = common::word_mix(3, 700_000);
    let first = compress(&a);
    compress(&b);
    assert!(compress(&a) == first, "A after B differs from the first A");
    let elsewhere = std::thread::scope(|s| s.spawn(|| compress(&a)).join().expect("thread ran"));
    assert!(elsewhere == first, "A on a fresh thread differs");
}
