//! What the szip encoder must achieve on the payloads the applications
//! really compress — `tracer`'s encoded solver trace and `mp2c`'s
//! particles — and that its output is a function of its input on the
//! trace. Kept here, in the root package, so that `sion-szip` depends on
//! neither application crate. The synthetic inputs of `sion-szip`'s own
//! tests (`crates/szip/tests/common`) seed the payloads.

#[path = "../crates/szip/tests/common/mod.rs"]
mod common;

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
fn ratio_floors_on_application_payloads() {
    // The v1 hash-chain matcher (64 probes a position) reached 2.05 on the
    // trace events; `sionbench`'s `stored_per_user_byte` bound on
    // `trace_szip` is 1.98 here. The particles are incompressible and must
    // be stored at no more than 16 B a frame.
    let trace = trace_events(1);
    let packed = compress(&trace);
    assert_eq!(decompress(&packed).unwrap(), trace, "trace events");
    let ratio = trace.len() as f64 / packed.len() as f64;
    assert!(ratio >= 2.2, "trace events: ratio {ratio:.3} under 2.2");

    let raw = particles(9);
    let packed = compress(&raw);
    assert_eq!(decompress(&packed).unwrap(), raw, "mp2c particles");
    let frames = raw.len().div_ceil(FRAME_RAW_MAX);
    assert!(
        packed.len() <= raw.len() + 16 * frames,
        "mp2c particles: {} -> {}",
        raw.len(),
        packed.len()
    );
}

/// The encoder's tables are per thread and reused: a trace after another
/// payload, on a fresh thread and the first time must be the same bytes
/// (`stored_per_user_byte` being exact for a seed, and a member's stream
/// matching what its aggregator stores, rest on this).
#[test]
fn trace_compression_is_a_function_of_the_input() {
    let a = trace_events(2);
    let b = common::word_mix(3, 700_000);
    let first = compress(&a);
    compress(&b);
    assert!(compress(&a) == first, "A after B differs from the first A");
    let elsewhere = std::thread::scope(|s| s.spawn(|| compress(&a)).join().expect("thread ran"));
    assert!(elsewhere == first, "A on a fresh thread differs");
}
