//! Format compatibility: a stream written by the v1 encoder (hash-chain
//! matcher, 32 KiB window, 3-byte minimum match, FNV-1a frame check) still
//! decodes, so does the first stream written with the v2 frame check, the
//! two mix freely, and what today's encoder writes stays inside what every
//! decoder since v1 reads — token for token; frame for frame an old reader
//! stops at the first method it does not know.

mod common;

use common::v1;
use szip::{compress, compress_block, decompress, decompress_block, SzipError};

/// `FrameEncoder::write` + `flush` of each `common::fixture_inputs()` entry
/// in turn, produced by the encoder as of the commit before the matcher was
/// replaced. Never regenerate it with a newer encoder.
const V1_STREAM: &[u8] = include_bytes!("golden/v1_stream.szip");

/// The same, produced by the first encoder that wrote frame methods 2/3.
/// Never regenerate it either.
const V2_STREAM: &[u8] = include_bytes!("golden/v2_stream.szip");

fn fixture() -> Vec<u8> {
    common::fixture_inputs()
        .into_iter()
        .flat_map(|(_, input)| input)
        .collect()
}

/// Frame by frame, so that a fixture is known to hold what it claims: four
/// frames with `methods`, each decoding alone to its input.
fn check_frames(stream: &[u8], methods: [u8; 4]) {
    let starts = common::frame_starts(stream);
    assert_eq!(starts.len(), 4);
    for (i, (name, input)) in common::fixture_inputs().into_iter().enumerate() {
        let end = starts.get(i + 1).copied().unwrap_or(stream.len());
        let frame = &stream[starts[i]..end];
        assert_eq!(
            decompress(frame).expect("frame decodes alone"),
            input,
            "{name}"
        );
        assert_eq!(frame[0], methods[i], "{name}");
    }
}

#[test]
fn v1_stream_decodes_to_its_input() {
    assert_eq!(decompress(V1_STREAM).expect("v1 stream decodes"), fixture());
    // The last frame is stored.
    check_frames(V1_STREAM, [1, 1, 1, 0]);
    // The reader of that time and today's agree on it.
    assert_eq!(v1::decompress(V1_STREAM).expect("v1 reader"), fixture());
}

#[test]
fn v2_stream_decodes_to_its_input() {
    assert_eq!(decompress(V2_STREAM).expect("v2 stream decodes"), fixture());
    check_frames(V2_STREAM, [3, 3, 3, 2]);
}

#[test]
fn v1_and_v2_frames_splice() {
    let (s1, s2) = (
        common::frame_starts(V1_STREAM),
        common::frame_starts(V2_STREAM),
    );
    let inputs = common::fixture_inputs();
    // trace (v2), words (v1), zeros (v2), random (v1), then all of v1 again.
    let mut spliced = Vec::new();
    let mut want = Vec::new();
    for (i, (_, input)) in inputs.iter().enumerate() {
        let (stream, starts) = if i % 2 == 0 {
            (V2_STREAM, &s2)
        } else {
            (V1_STREAM, &s1)
        };
        let end = starts.get(i + 1).copied().unwrap_or(stream.len());
        spliced.extend_from_slice(&stream[starts[i]..end]);
        want.extend_from_slice(input);
    }
    spliced.extend_from_slice(V1_STREAM);
    want.extend_from_slice(&fixture());
    assert_eq!(decompress(&spliced).expect("mixed stream decodes"), want);
}

/// A reader from before methods 2/3 meets them as `BadMethod`: no panic, no
/// bytes, and nothing of a mixed stream past its v1 prefix.
#[test]
fn old_reader_rejects_v2_frames_cleanly() {
    assert_eq!(v1::decompress(V2_STREAM), Err(SzipError::BadMethod(3)));
    let stored = compress(&common::random_bytes(1, 500));
    assert_eq!(stored[0], 2);
    assert_eq!(v1::decompress(&stored), Err(SzipError::BadMethod(2)));
    let mut mixed = V1_STREAM.to_vec();
    mixed.extend_from_slice(V2_STREAM);
    assert_eq!(v1::decompress(&mixed), Err(SzipError::BadMethod(3)));
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

/// 64-bit FNV-1a, a digest of stored bytes for [`encoder_output_is_pinned`].
fn digest(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0100_0000_01b3)
    })
}

/// The bytes today's encoder stores, pinned: `compress` of each fixture
/// input and of 1 MiB of trace-like records (four full frames). Decoders
/// are held to golden streams; this holds the encoder, so no refactor
/// changes what is stored without changing this table. A row may only
/// move to fewer bytes: the split 2¹⁷/2¹⁶ tables took trace 36 002 →
/// 35 978, words 6 528 → 6 524 and trace 1 MiB 456 744 → 456 349.
#[test]
fn encoder_output_is_pinned() {
    let mut inputs: Vec<(&str, Vec<u8>)> = common::fixture_inputs().into();
    inputs.push(("trace 1 MiB", common::trace_like(0x51_11, 1 << 20)));
    let got: Vec<(&str, usize, u64)> = inputs
        .iter()
        .map(|(name, input)| {
            let packed = compress(input);
            (*name, packed.len(), digest(&packed))
        })
        .collect();
    let want: [(&str, usize, u64); 5] = [
        ("trace", 35978, 0x7a51_ebc4_a3a6_fd61),
        ("words", 6524, 0x1a64_0dc2_bd59_b94a),
        ("zeros", 265, 0x07b3_4939_f337_b30b),
        ("random", 6157, 0x68b4_3684_29b9_6817),
        ("trace 1 MiB", 456349, 0xfcde_686c_94c7_1a2b),
    ];
    assert_eq!(got, want);
}
