//! Format compatibility: a stream written by the v1 encoder (hash-chain
//! matcher, 32 KiB window, 3-byte minimum match) still decodes, and what
//! today's encoder writes stays inside what every decoder since v1 reads.

mod common;

use szip::{compress_block, decompress, decompress_block};

/// `FrameEncoder::write` + `flush` of each `common::fixture_inputs()` entry
/// in turn, produced by the encoder as of the commit before the matcher was
/// replaced. Never regenerate it with a newer encoder.
const V1_STREAM: &[u8] = include_bytes!("golden/v1_stream.szip");

#[test]
fn v1_stream_decodes_to_its_input() {
    let want: Vec<u8> = common::fixture_inputs()
        .into_iter()
        .flat_map(|(_, input)| input)
        .collect();
    assert_eq!(decompress(V1_STREAM).expect("v1 stream decodes"), want);

    // Frame by frame, so that the fixture is known to hold what it claims:
    // four frames, the last one stored.
    let mut methods = Vec::new();
    let mut at = 0;
    for (name, input) in common::fixture_inputs() {
        let stored = u32::from_le_bytes(V1_STREAM[at + 5..at + 9].try_into().unwrap()) as usize;
        let frame = &V1_STREAM[at..at + 13 + stored];
        assert_eq!(
            decompress(frame).expect("frame decodes alone"),
            input,
            "{name}"
        );
        methods.push(frame[0]);
        at += frame.len();
    }
    assert_eq!(at, V1_STREAM.len());
    assert_eq!(methods, [1, 1, 1, 0]);
}

/// Every token of a block: literals are skipped, matches are checked
/// against the limits of the token layout (`u16` distance, `u8` length
/// code) and of this encoder (nothing shorter than 4).
#[test]
fn emitted_tokens_stay_inside_the_format() {
    for (name, input) in common::fixture_inputs() {
        let mut block = Vec::new();
        let n = compress_block(&input, &mut block);
        assert_eq!(n, block.len());

        let (mut ip, mut produced, mut matches) = (0, 0usize, 0);
        while ip < block.len() {
            let flags = block[ip];
            ip += 1;
            for bit in 0..8 {
                if ip == block.len() {
                    break;
                }
                if flags & (1 << bit) == 0 {
                    ip += 1;
                    produced += 1;
                    continue;
                }
                let dist = u16::from_le_bytes([block[ip], block[ip + 1]]) as usize + 1;
                let len = block[ip + 2] as usize + 3;
                assert!(
                    dist <= 65_536 && dist <= produced,
                    "{name}: distance {dist} at {produced}"
                );
                assert!((4..=258).contains(&len), "{name}: length {len}");
                ip += 3;
                produced += len;
                matches += 1;
            }
        }
        assert_eq!(produced, input.len(), "{name}");
        assert_eq!(matches > 0, name != "random", "{name}: {matches} matches");

        let mut out = Vec::new();
        decompress_block(&block, input.len(), &mut out).expect("block decodes");
        assert_eq!(out, input, "{name}");
    }
}
