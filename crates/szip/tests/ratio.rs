//! What the encoder must achieve on text and on noise — and that its
//! output is a function of its input, whatever its reused tables hold —
//! and how much faster than its predecessor the decoder must stay. The
//! floors on the applications' own payloads (`tracer` events, `mp2c`
//! particles) are the root package's `tests/szip_payloads.rs`, so that this
//! crate depends on neither.

mod common;

use common::{old_encoder, v1};
use std::sync::Mutex;
use szip::{compress, decompress, FRAME_RAW_MAX};

/// Held by every test of this file, so that the harness's threads run them
/// one at a time: a timed floor compares two codecs in one thread, and a
/// test compressing or timing beside it on a host with few cores moves the
/// ratio it reads.
static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

fn alone() -> std::sync::MutexGuard<'static, ()> {
    ONE_AT_A_TIME
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

#[test]
fn ratio_floors() {
    let _alone = alone();
    // `None`: incompressible, must be stored at no more than 16 B a frame.
    // The v1 hash-chain matcher (64 probes a position) reached 4.76 on the
    // word mix.
    let cases: [(&str, Vec<u8>, Option<f64>); 2] = [
        ("word mix", common::word_mix(5, 1 << 20), Some(4.3)),
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
    let _alone = alone();
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
    println!(
        "decode floor: {:.2}x ({:.3} s against {:.3} s)",
        old / new,
        old,
        new
    );
}

/// The block decoder alone against the frozen v1 block decoder, on the
/// same blocks in the same process, with no check on either side: the
/// framed floor above is mostly v1's FNV-1a and cannot see a change to the
/// block decoder. The blocks are 16 MiB of trace-like records, each timed
/// at its best of 5 passes. The floor, 2.0×, lies between the ratio of the
/// decoder that indexed the whole block for every token (1.7–1.8×) and
/// that of the one that reads each group through fixed windows (2.2–2.4×;
/// EXPERIMENTS.md has both). Release only, like `decode_floor`.
#[test]
fn block_decode_floor() {
    if cfg!(debug_assertions) {
        return;
    }
    let _alone = alone();
    let raw = common::trace_like(11, 16 << 20);
    let packed = compress(&raw);
    let starts = common::frame_starts(&packed);
    let blocks: Vec<(&[u8], usize)> = starts
        .iter()
        .enumerate()
        .map(|(i, &at)| {
            let end = starts.get(i + 1).copied().unwrap_or(packed.len());
            let raw_len = u32::from_le_bytes(packed[at + 1..at + 5].try_into().unwrap()) as usize;
            assert_eq!(packed[at], 3, "trace-like data compresses");
            (&packed[at + v1::HEADER..end], raw_len)
        })
        .collect();
    // Five passes over the blocks, the two decoders alternating block by
    // block, each into its own `Vec`; a block's time is its best of the
    // five, so a slow stretch of the host costs neither side.
    let (mut old, mut new) = (vec![f64::MAX; blocks.len()], vec![f64::MAX; blocks.len()]);
    let (mut old_out, mut new_out) = (Vec::with_capacity(raw.len()), Vec::with_capacity(raw.len()));
    for _ in 0..5 {
        old_out.clear();
        new_out.clear();
        for (i, &(block, raw_len)) in blocks.iter().enumerate() {
            let start = std::time::Instant::now();
            v1::decompress_block(block, raw_len, &mut old_out).unwrap();
            old[i] = old[i].min(start.elapsed().as_secs_f64());
            let start = std::time::Instant::now();
            szip::decompress_block(block, raw_len, &mut new_out).unwrap();
            new[i] = new[i].min(start.elapsed().as_secs_f64());
        }
        assert!(old_out == raw && new_out == raw);
    }
    let (old, new) = (old.iter().sum::<f64>(), new.iter().sum::<f64>());
    let gbps = |s: f64| raw.len() as f64 / 1e9 / s;
    assert!(
        old >= 2.0 * new,
        "block decode floor: v1 {:.3} GB/s, decompress_block {:.3} GB/s, {:.2}x",
        gbps(old),
        gbps(new),
        old / new
    );
    println!(
        "block decode floor: {:.2}x ({:.3} GB/s against {:.3} GB/s)",
        old / new,
        gbps(new),
        gbps(old)
    );
}

/// The block encoder against the frozen one of `common::old_encoder`, on
/// the same blocks in the same process: 16 MiB of trace-like records in
/// blocks of `FRAME_RAW_MAX`, the two encoders alternating block by block,
/// each block timed at its best of 5 passes. The encoder reads 1.21–1.35×
/// here (lowest on a busy host) and about 1.3× on the benchmark's trace
/// payload; the parent's encoder reads 0.98×. No block may be stored
/// larger. Release only, like `decode_floor`.
#[test]
fn block_compress_floor() {
    if cfg!(debug_assertions) {
        return;
    }
    let _alone = alone();
    let raw = common::trace_like(11, 16 << 20);
    let blocks: Vec<&[u8]> = raw.chunks(FRAME_RAW_MAX).collect();
    let (mut old, mut new) = (vec![f64::MAX; blocks.len()], vec![f64::MAX; blocks.len()]);
    let (mut old_out, mut new_out) = (Vec::with_capacity(raw.len()), Vec::with_capacity(raw.len()));
    for _ in 0..5 {
        for (i, block) in blocks.iter().enumerate() {
            old_out.clear();
            new_out.clear();
            let start = std::time::Instant::now();
            old_encoder::compress_block(block, &mut old_out);
            old[i] = old[i].min(start.elapsed().as_secs_f64());
            let start = std::time::Instant::now();
            szip::compress_block(block, &mut new_out);
            new[i] = new[i].min(start.elapsed().as_secs_f64());
            assert!(
                new_out.len() <= old_out.len(),
                "block {i}: stored {} B, old encoder {} B",
                new_out.len(),
                old_out.len()
            );
        }
    }
    let mut out = Vec::new();
    for block in &blocks {
        new_out.clear();
        szip::compress_block(block, &mut new_out);
        szip::decompress_block(&new_out, block.len(), &mut out).unwrap();
    }
    assert!(out == raw);
    let (old, new) = (old.iter().sum::<f64>(), new.iter().sum::<f64>());
    let gbps = |s: f64| raw.len() as f64 / 1e9 / s;
    assert!(
        old >= 1.15 * new,
        "block compress floor: old encoder {:.3} GB/s, compress_block {:.3} GB/s, {:.2}x",
        gbps(old),
        gbps(new),
        old / new
    );
    println!(
        "block compress floor: {:.2}x ({:.3} GB/s against {:.3} GB/s)",
        old / new,
        gbps(new),
        gbps(old)
    );
}

/// The tables are per thread and reused: A after B, A on a fresh thread and
/// the first A must be the same bytes (`stored_per_user_byte` being exact
/// for a seed, and a member's stream matching what its aggregator stores,
/// rest on this).
#[test]
fn output_is_a_function_of_the_input() {
    let _alone = alone();
    let a = common::trace_like(2, 1 << 20);
    let b = common::word_mix(3, 700_000);
    let first = compress(&a);
    compress(&b);
    assert!(compress(&a) == first, "A after B differs from the first A");
    let elsewhere = std::thread::scope(|s| s.spawn(|| compress(&a)).join().expect("thread ran"));
    assert!(elsewhere == first, "A on a fresh thread differs");
}
