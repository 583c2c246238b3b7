//! The block decoder against the one it replaced (`common::v1`, frozen):
//! the same bytes on every block that decodes, the same error text on
//! every block that does not — on encoder output, on hand-built token
//! streams around every overlapping-run shape, on both sides of the
//! boundary where the fast groups hand over to the exact ones, and on
//! damaged blocks.

mod common;

use common::v1;
use proptest::prelude::*;
use szip::{compress_block, decompress_block};

#[derive(Clone, Copy)]
enum Token {
    Lit(u8),
    Match { dist: usize, len: usize },
}

/// The token stream of `tokens`: a flag byte ahead of every eight.
fn encode(tokens: &[Token]) -> Vec<u8> {
    let mut block = Vec::new();
    for group in tokens.chunks(8) {
        let flags_at = block.len();
        block.push(0);
        for (bit, token) in group.iter().enumerate() {
            match *token {
                Token::Lit(b) => block.push(b),
                Token::Match { dist, len } => {
                    block[flags_at] |= 1 << bit;
                    block.extend_from_slice(&((dist - 1) as u16).to_le_bytes());
                    block.push((len - 3) as u8);
                }
            }
        }
    }
    block
}

/// Both decoders on `block`; their common verdict.
fn agree(block: &[u8], raw_len: usize) -> Result<Vec<u8>, &'static str> {
    let mut old = b"kept".to_vec();
    let want = v1::decompress_block(block, raw_len, &mut old).map(|()| old[4..].to_vec());
    let mut new = b"kept".to_vec();
    let got = decompress_block(block, raw_len, &mut new).map(|()| new[4..].to_vec());
    assert_eq!(got, want, "raw_len {raw_len}, block of {}", block.len());
    assert_eq!(&new[..4], b"kept");
    if got.is_err() {
        assert_eq!(new.len(), 4, "a failed block leaves `out` as it was");
    }
    got
}

/// Every `dist` 1..=32 × `len` 3..=258 — all the ways a match can overlap
/// what it writes, and all three copy widths — followed by 0..=2 100 bytes
/// of literals, so that the match lands in a fast group, in the last fast
/// group, and in the exact tail.
#[test]
fn every_overlap_shape_on_both_sides_of_the_slack_boundary() {
    let prefix: Vec<Token> = (0..40u8)
        .map(|i| Token::Lit(i.wrapping_mul(37) ^ 0x5A))
        .collect();
    for tail in [0usize, 1, 15, 16, 40, 2063, 2064, 2079, 2080, 2081, 2100] {
        for dist in 1..=32 {
            for len in 3..=258 {
                let mut tokens = prefix.clone();
                tokens.push(Token::Match { dist, len });
                tokens.extend((0..tail).map(|i| Token::Lit((i % 251) as u8)));
                let raw_len = 40 + len + tail;
                let out = agree(&encode(&tokens), raw_len).expect("a valid block");
                // What a match means, spelled out byte by byte.
                for i in 40..40 + len {
                    assert_eq!(out[i], out[i - dist], "dist {dist} len {len} tail {tail}");
                }
            }
        }
    }
}

/// Groups of nothing but long matches fill the output fastest for the
/// input they take: the output-slack side of the boundary.
#[test]
fn match_only_groups_up_to_the_last_byte() {
    for from_end in (0..=2100).step_by(7) {
        let mut tokens: Vec<Token> = b"seed-bytes:0123456789abcdef"
            .iter()
            .map(|&b| Token::Lit(b))
            .collect();
        let mut raw_len = tokens.len();
        for i in 0..40 {
            let (dist, len) = ([1, 5, 8, 9, 16, 27][i % 6], [258, 3, 200, 17][i % 4]);
            tokens.push(Token::Match { dist, len });
            raw_len += len;
        }
        tokens.extend((0..from_end).map(|i| Token::Lit(i as u8)));
        agree(&encode(&tokens), raw_len + from_end).expect("a valid block");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(400))]

    /// Encoder output decodes alike; so does the same block under a wrong
    /// declared length.
    #[test]
    fn encoder_output(seed in any::<u64>(), kind in 0u8..4, len in 0usize..40_000, delta in -3i64..4) {
        let data = match kind {
            0 => common::trace_like(seed, len),
            1 => common::word_mix(seed, len),
            2 => common::random_bytes(seed, len),
            _ => {
                let unit = common::random_bytes(seed, 1 + (seed % 9) as usize);
                unit.iter().cycle().take(len).copied().collect()
            }
        };
        let mut block = Vec::new();
        compress_block(&data, &mut block);
        prop_assert_eq!(agree(&block, data.len()), Ok(data.clone()));
        let wrong = (data.len() as i64 + delta).max(0) as usize;
        let _ = agree(&block, wrong);
    }

    /// A valid block with a bit flipped or its end cut off, and plain
    /// noise, under any declared length: the two decoders fail (or not) in
    /// the same way.
    #[test]
    fn damaged_blocks(
        seed in any::<u64>(),
        len in 1usize..12_000,
        kind in 0u8..3,
        at in any::<u32>(),
        bit in 0u8..8,
        raw_len in 0usize..14_000,
    ) {
        let data = common::trace_like(seed, len);
        let mut block = Vec::new();
        compress_block(&data, &mut block);
        let at = at as usize % block.len();
        match kind {
            0 => block[at] ^= 1 << bit,
            1 => block.truncate(at),
            _ => block = common::random_bytes(seed, len),
        }
        let _ = agree(&block, data.len());
        let _ = agree(&block, raw_len);
    }
}
