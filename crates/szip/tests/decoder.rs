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

/// The bytes `tokens` expand to.
fn decoded_len(tokens: &[Token]) -> usize {
    tokens
        .iter()
        .map(|token| match *token {
            Token::Lit(_) => 1,
            Token::Match { len, .. } => len,
        })
        .sum()
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
/// what it writes, and all three copy widths — behind 40 literals and
/// ahead of a literal tail. With a short tail (0..=40 bytes) the block is
/// shorter than a fast group's output window (4 096 + 16 bytes in
/// `lzss.rs`), so the match decodes in the exact loop. With 3 990 or
/// 4 109 bytes, `len + tail` crosses 4 112 as `len` runs, so that a shape
/// lands in a fast group, in the last fast group, or in the exact tail.
#[test]
fn every_overlap_shape_on_both_sides_of_the_output_window() {
    let prefix: Vec<Token> = (0..40u8)
        .map(|i| Token::Lit(i.wrapping_mul(37) ^ 0x5A))
        .collect();
    for tail in [0usize, 1, 15, 16, 40, 3990, 4109] {
        for dist in 1..=32 {
            for len in 3..=258 {
                let mut tokens = prefix.clone();
                tokens.push(Token::Match { dist, len });
                tokens.extend((0..tail).map(|i| Token::Lit((i % 251) as u8)));
                let out = agree(&encode(&tokens), 40 + len + tail).expect("a valid block");
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

/// The input side of the boundary at the width of a fast group's input
/// window (40 bytes in `lzss.rs`). Groups of long matches keep the
/// output slack wide, so the token stream is what runs out; behind them
/// come 0..=80 bytes of literals, or of 3-byte match tokens, and each
/// block is also cut at every byte of that tail. Every block is decoded
/// under its own length and under one an output window (4 096 + 16 bytes
/// in `lzss.rs`) longer, which leaves the input as the only bound.
#[test]
fn token_tails_across_the_input_slack_boundary() {
    const WINDOW: usize = 40;
    let mut body: Vec<Token> = (0..16u8)
        .map(|i| Token::Lit(i.wrapping_mul(29) ^ 0xA5))
        .collect();
    body.extend((0..48).map(|i| Token::Match {
        dist: [1, 7, 16, 24, 31, 9][i % 6],
        len: [258, 258, 16, 258][i % 4],
    }));
    let body_bytes = encode(&body).len();
    let tail_tokens: [fn(usize) -> Token; 2] = [
        |i| Token::Lit((i * 13 % 251) as u8),
        |i| {
            let (dist, len) = [(16, 16), (40, 258), (300, 5), (3, 258), (17, 9)][i % 5];
            Token::Match { dist, len }
        },
    ];
    for tail_token in tail_tokens {
        for n in 0.. {
            let mut tokens = body.clone();
            tokens.extend((0..n).map(tail_token));
            let block = encode(&tokens);
            let tail_bytes = block.len() - body_bytes;
            if tail_bytes > 2 * WINDOW {
                break;
            }
            let raw_len = decoded_len(&tokens);
            agree(&block, raw_len).expect("a valid block");
            for cut in 0..=tail_bytes {
                let cut_block = &block[..block.len() - cut];
                let _ = agree(cut_block, raw_len);
                let _ = agree(cut_block, raw_len + 4096 + 16);
            }
        }
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
