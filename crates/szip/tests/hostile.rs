//! Hostile bytes on the decode path: a valid stream with a bit flipped, cut
//! short, or with frames spliced into it must never panic, never hand out
//! more than its frames can declare, and never hand out bytes that failed
//! their checks.

mod common;

use proptest::prelude::*;
use std::sync::OnceLock;
use szip::{decompress, FrameDecoder, FrameEncoder, FRAME_RAW_MAX};

/// A few short frames of differently compressible content, and where each
/// starts.
fn valid_stream(seed: u64) -> (Vec<u8>, Vec<usize>, Vec<u8>) {
    let mut rng = common::SplitMix(seed);
    let mut enc = FrameEncoder::new();
    let (mut packed, mut starts, mut raw) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..2 + rng.next_u64() % 3 {
        let len = 1 + (rng.next_u64() % 3000) as usize;
        let piece = match rng.next_u64() % 4 {
            0 => common::trace_like(rng.next_u64(), len),
            1 => common::word_mix(rng.next_u64(), len),
            2 => vec![rng.next_u64() as u8; len],
            _ => common::random_bytes(rng.next_u64(), len),
        };
        enc.write(&piece);
        enc.flush();
        starts.push(packed.len());
        packed.extend_from_slice(&enc.take_output());
        raw.extend_from_slice(&piece);
    }
    (packed, starts, raw)
}

/// One mutation of `valid` (frames starting at `starts`, decoding to
/// `raw`): a flipped bit, a cut, or a whole frame copied to an arbitrary
/// place, frame boundary or not.
fn check_mutation(
    (valid, starts, raw): &(Vec<u8>, Vec<usize>, Vec<u8>),
    (kind, a, b, bit): (u8, u32, u32, u8),
) -> Result<(), TestCaseError> {
    let at = a as usize % valid.len();
    let mut mutated = valid.clone();
    match kind {
        0 => mutated[at] ^= 1 << bit,
        1 => mutated.truncate(at),
        _ => {
            let i = b as usize % starts.len();
            let end = starts.get(i + 1).copied().unwrap_or(valid.len());
            mutated.splice(at..at, valid[starts[i]..end].iter().copied());
        }
    }

    let mut dec = FrameDecoder::new();
    dec.feed(&mutated);
    let mut out = Vec::new();
    let drained = dec.drain_into(&mut out);
    // A frame costs at least its 13-byte header.
    prop_assert!(out.len() <= mutated.len() / 13 * FRAME_RAW_MAX);
    prop_assert_eq!(out.len() as u64, dec.raw_bytes());

    match decompress(&mutated) {
        Ok(all) => {
            prop_assert!(drained.is_ok() && all == out);
            // A flipped bit is caught by the header checks or the
            // checksum; a cut is a cut, unless it fell on a boundary.
            prop_assert!(kind == 2 || &all == raw || (kind == 1 && raw.starts_with(&all)));
        }
        // Whatever was handed out before the bad frame is verified
        // content: with a flip or a cut, a prefix of the original.
        Err(_) => prop_assert!(kind == 2 || raw.starts_with(&out)),
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3000))]

    /// Streams of today's encoder: frame methods 2/3, the v2 check.
    #[test]
    fn mutated_streams_never_panic_or_balloon(
        seed in any::<u64>(),
        mutation in (0u8..3, any::<u32>(), any::<u32>(), 0u8..8),
    ) {
        check_mutation(&valid_stream(seed), mutation)?;
    }

    /// The v1 golden stream: methods 0/1, FNV-1a — the arm no encoder
    /// exercises any more.
    #[test]
    fn mutated_v1_stream_never_panics_or_balloons(
        mutation in (0u8..3, any::<u32>(), any::<u32>(), 0u8..8),
    ) {
        static GOLDEN: OnceLock<(Vec<u8>, Vec<usize>, Vec<u8>)> = OnceLock::new();
        let golden = GOLDEN.get_or_init(|| {
            let v1 = include_bytes!("golden/v1_stream.szip").to_vec();
            let raw = common::fixture_inputs().into_iter().flat_map(|(_, input)| input).collect();
            (v1.clone(), common::frame_starts(&v1), raw)
        });
        check_mutation(golden, mutation)?;
    }
}
