//! `szip` — a from-scratch LZSS streaming codec.
//!
//! The SIONlib paper (§6) plans "the addition of transparent file
//! compression to SIONlib (e.g., via integrating zlib)". We have no zlib in
//! this reproduction, so `szip` provides the substrate: a deterministic,
//! dependency-free streaming compressor with the properties that matter for
//! the integration — a framed format that can be cut at arbitrary points
//! (chunk boundaries), incremental encode/decode, and a stored-block
//! fallback so incompressible data never expands beyond a small constant
//! per frame.
//!
//! The algorithm is LZSS — structurally the LZ77 half of DEFLATE without
//! the entropy stage — over a 64 KiB window, matches of 4..=258 bytes, and
//! a per-frame stored/compressed decision. The token format is that of the
//! first version (32 KiB window, 3-byte minimum, hash-chain matcher): the
//! `u16` distance field always admitted 65 536. The 13-byte frame header
//! is the first version's too, but its method byte now also names the
//! frame's check: methods 0/1 (FNV-1a, a byte per dependent multiply) are
//! read for ever and written no more, methods 2/3 carry a word-wise check
//! that runs at memory speed. Every stream ever written decodes
//! (`tests/golden/v1_stream.szip`, `tests/golden/v2_stream.szip`); a
//! reader from before methods 2/3 stops at them with
//! [`SzipError::BadMethod`].
//!
//! # Decoding
//!
//! Reading is meant to cost what decoding costs. The block decoder writes
//! into a pre-sized slice. While a group of eight tokens has slack at both
//! ends, it reads the group from one fixed-size window of the block, taken
//! once, and writes it through one fixed-size window of the output, so no
//! token pays a bounds check of its own (a match's distance is still
//! checked); a literal run is one 8-byte copy, and a match of distance
//! ≥ 16 and length ≤ 16 — nearly every match in record data — one 16-byte
//! copy. Only the last groups are decoded token by token with every check
//! (`lzss::decompress_into`). On trace-like records in 256 KiB blocks that
//! is 1.3 GB/s per core, 1.2 GB/s with the frame check, against 1.0 and
//! 0.9 before the windows (2-core Xeon host).
//! [`FrameDecoder::decode_next`] decodes a frame where its packed bytes
//! lie and lends the result from one reused buffer, so a reader can walk a
//! stream without materialising it.
//!
//! # The match finder
//!
//! Two hash tables, because this repository's compressible payload is
//! fixed-layout records (`tracer` events, `sionbench`'s `trace_szip`): the
//! record of solver iteration *k* repeats most of the same record of
//! iteration *k − 1* about 1 KiB back, but every record also holds
//! `00 00 00 00`, and a table keyed by 3 or 4 bytes puts all of those into
//! one bucket that has to be walked ~60 candidates deep to reach the good
//! one — 0.05 GB/s. A table keyed by the next **8** bytes has the
//! record-to-record match at the top of its bucket; a second one keyed by
//! the next **4** bytes supplies the short matches between the fields
//! that differ (a 6- or 7-byte long key lost 4–8 % of the ratio).
//!
//! * An ordinary position reads one candidate of each table and no chain
//!   link: the 8-byte one wins if its 8 bytes are equal, otherwise the
//!   4-byte one's length is one XOR and `trailing_zeros`, extended further
//!   only when all 8 bytes are equal.
//! * The 8-byte table has 2¹⁷ buckets, twice the window, and the 4-byte
//!   one 2¹⁶: with 2¹⁵ each, positions of other keys crowded the 8-byte
//!   chains (28 % more candidates read on trace events for the same
//!   matches). With the one-candidate search this runs 1.2–1.3× the
//!   encoder before both on trace events, and stores no more.
//! * A match shorter than 8 (it came from the 4-byte table) buys one lazy
//!   step: the next position is searched up to six candidates down the
//!   8-byte table's chain — a `WINDOW`-sized ring of previous positions —
//!   and wins if it is longer by more than the literal it costs. This is
//!   where the ratio comes from: one chain candidate there gives
//!   stored/raw 0.495 on trace events, four 0.475, six 0.444, at the same
//!   speed, against 0.489 for the old 64-deep walk.
//! * Positions covered by a match are not entered into the tables (on
//!   record data they only crowd the chains), matches are extended a
//!   `u64` at a time, and the emitted minimum is 4: a 3-byte match costs
//!   3⅛ bytes against 3⅜ as literals.
//! * Incompressible input: after 32 misses in a row the scan step starts
//!   to grow (to 32 at most), literals are emitted in bulk, and any hit
//!   resets it — `f64` particle checkpoints and random bytes pass at over
//!   2 GB/s and are then stored.
//! * Tokens go into a buffer sized for the worst case, so that a short
//!   literal run is one 8-byte copy and a match one 4-byte store, each
//!   free to write past its end into bytes the next token overwrites.
//! * The tables (1 MiB) and that buffer belong to the thread, not to the
//!   encoder, and are never cleared between blocks: entries are
//!   `base + position` with `base` moved past each block, so leftovers
//!   read as empty and the output depends on the input alone.
//!
//! ```
//! let data = b"abcabcabcabcabcabc".repeat(10);
//! let packed = szip::compress(&data);
//! assert!(packed.len() < data.len());
//! assert_eq!(szip::decompress(&packed).unwrap(), data);
//! ```

mod frame;
mod lzss;

pub use frame::{decompress, FrameDecoder, FrameEncoder, FRAME_RAW_MAX};
pub use lzss::{compress_block, decompress_block};

use std::fmt;

/// Errors produced while decoding an `szip` stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SzipError {
    /// The stream ended in the middle of a frame header or payload.
    Truncated,
    /// A frame header carried an unknown method byte.
    BadMethod(u8),
    /// A frame failed its structural checks (bad lengths, offsets past the
    /// window, checksum mismatch).
    Corrupt(&'static str),
}

impl fmt::Display for SzipError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SzipError::Truncated => write!(f, "szip stream truncated"),
            SzipError::BadMethod(m) => write!(f, "szip frame with unknown method {m}"),
            SzipError::Corrupt(why) => write!(f, "szip frame corrupt: {why}"),
        }
    }
}

impl std::error::Error for SzipError {}

/// One-shot compression: frames `data` and returns the packed stream.
pub fn compress(data: &[u8]) -> Vec<u8> {
    let mut enc = FrameEncoder::new();
    enc.write(data);
    enc.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::{Rng, SeedableRng};

    #[test]
    fn empty_roundtrip() {
        let packed = compress(&[]);
        assert_eq!(decompress(&packed).unwrap(), Vec::<u8>::new());
    }

    #[test]
    fn tiny_roundtrip() {
        for len in 1..40 {
            let data: Vec<u8> = (0..len).map(|i| (i * 7) as u8).collect();
            assert_eq!(decompress(&compress(&data)).unwrap(), data, "len={len}");
        }
    }

    #[test]
    fn compressible_data_shrinks() {
        let data = b"the quick brown fox jumps over the lazy dog. ".repeat(200);
        let packed = compress(&data);
        assert!(
            packed.len() < data.len() / 3,
            "expected strong compression: {} -> {}",
            data.len(),
            packed.len()
        );
    }

    #[test]
    fn random_data_expands_only_by_frame_overhead() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let data: Vec<u8> = (0..(FRAME_RAW_MAX * 2 + 123)).map(|_| rng.gen()).collect();
        let packed = compress(&data);
        // 3 frames, small constant header each.
        assert!(packed.len() <= data.len() + 3 * 16);
        assert_eq!(decompress(&packed).unwrap(), data);
    }

    #[test]
    fn multi_frame_roundtrip() {
        let pattern = b"block-of-checkpoint-data:0123456789";
        let data: Vec<u8> = pattern
            .iter()
            .cycle()
            .take(FRAME_RAW_MAX * 3 + 17)
            .copied()
            .collect();
        assert_eq!(decompress(&compress(&data)).unwrap(), data);
    }

    #[test]
    fn truncated_stream_detected() {
        let data = b"hello hello hello hello".repeat(50);
        let packed = compress(&data);
        for cut in [1, packed.len() / 2, packed.len() - 1] {
            let r = decompress(&packed[..cut]);
            assert!(r.is_err(), "cut at {cut} should fail");
        }
    }

    #[test]
    fn corrupt_method_detected() {
        let mut packed = compress(b"abcdefgh");
        packed[0] = 0xEE; // method byte of first frame
        assert_eq!(decompress(&packed).unwrap_err(), SzipError::BadMethod(0xEE));
    }

    #[test]
    fn concatenated_streams_decode_as_concatenation() {
        // Frames are self-delimiting, so streams concatenate — this is what
        // lets sion write compressed pieces back-to-back into a chunk.
        let a = b"first piece ".repeat(30);
        let b = b"second piece".repeat(30);
        let mut packed = compress(&a);
        packed.extend_from_slice(&compress(&b));
        let mut want = a.clone();
        want.extend_from_slice(&b);
        assert_eq!(decompress(&packed).unwrap(), want);
    }

    proptest! {
        #[test]
        fn roundtrip_arbitrary(data in prop::collection::vec(any::<u8>(), 0..20_000)) {
            prop_assert_eq!(decompress(&compress(&data)).unwrap(), data);
        }

        #[test]
        fn roundtrip_lowentropy(
            seed in any::<u64>(),
            len in 0usize..30_000,
            alphabet in 1u8..5
        ) {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let data: Vec<u8> = (0..len).map(|_| rng.gen_range(0..alphabet)).collect();
            prop_assert_eq!(decompress(&compress(&data)).unwrap(), data);
        }

        /// Handing the decoder the stream in arbitrary-sized increments
        /// produces the same output as one-shot decoding.
        #[test]
        fn incremental_decode_equals_oneshot(
            data in prop::collection::vec(any::<u8>(), 0..8_000),
            chunk in 1usize..500
        ) {
            let packed = compress(&data);
            let mut dec = FrameDecoder::new();
            let mut out = Vec::new();
            for mut piece in packed.chunks(chunk) {
                loop {
                    let (taken, decoded) = dec.decode_next(piece).unwrap();
                    piece = &piece[taken..];
                    if !decoded {
                        break;
                    }
                    out.extend_from_slice(dec.frame());
                }
            }
            prop_assert!(dec.is_frame_boundary());
            prop_assert_eq!(out, data);
        }
    }
}
