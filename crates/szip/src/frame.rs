//! Self-delimiting frame layer over the LZSS block codec.
//!
//! Frame wire format (little-endian):
//!
//! ```text
//! +--------+-----------+------------+----------+------------------+
//! | method | raw_len   | stored_len | check    | payload          |
//! | u8     | u32       | u32        | u32      | stored_len bytes |
//! +--------+-----------+------------+----------+------------------+
//! ```
//!
//! | method | payload                 | `check` over the raw bytes |
//! |--------|-------------------------|----------------------------|
//! | 0      | the raw bytes           | FNV-1a (v1)                |
//! | 1      | LZSS tokens → `raw_len` | FNV-1a (v1)                |
//! | 2      | the raw bytes           | [`check_v2`]               |
//! | 3      | LZSS tokens → `raw_len` | [`check_v2`]               |
//!
//! The encoder writes methods 2 and 3 only. The decoder reads all four:
//! FNV-1a takes its input a byte at a time (0.7 GB/s, less than the block
//! decoder it checks), so it stays for the streams already written and
//! nothing new is written with it. A reader from before methods 2/3 stops
//! at such a frame with [`SzipError::BadMethod`].
//!
//! Frames are independent: the LZSS window never crosses a frame boundary,
//! so a stream can be cut between frames and the parts decoded separately —
//! this is what lets SIONlib store compressed data per write-piece and seek
//! to chunk starts.

use crate::lzss::{compress_block, decompress_into};
use crate::SzipError;

/// Stored (uncompressed) payload, FNV-1a check. Decoded, never written.
const METHOD_STORE_V1: u8 = 0;
/// LZSS-compressed payload, FNV-1a check. Decoded, never written.
const METHOD_LZSS_V1: u8 = 1;
/// Stored (uncompressed) payload.
const METHOD_STORE: u8 = 2;
/// LZSS-compressed payload.
const METHOD_LZSS: u8 = 3;

/// Maximum raw bytes per frame. Bounds encoder memory and the damage a
/// corrupt frame can do.
pub const FRAME_RAW_MAX: usize = 256 * 1024;

const HEADER: usize = 1 + 4 + 4 + 4;

fn fnv1a(data: &[u8]) -> u32 {
    let mut h: u32 = 0x811c9dc5;
    for &b in data {
        h ^= b as u32;
        h = h.wrapping_mul(0x0100_0193);
    }
    h
}

/// Per-lane start values and multipliers of [`check_v2`] (odd, so a lane
/// step is a bijection of the lane for any word).
const LANE_SEED: [u64; 4] = [
    0x243F_6A88_85A3_08D3,
    0x1319_8A2E_0370_7344,
    0xA409_3822_299F_31D0,
    0x082E_FA98_EC4E_6C89,
];
const LANE_MUL: [u64; 4] = [
    0x9E37_79B9_7F4A_7C15,
    0xC2B2_AE3D_27D4_EB4F,
    0x1656_67B1_9E37_79F9,
    0xD6E8_FEB8_6659_FD93,
];
const FOLD_MUL: u64 = 0xBF58_476D_1CE4_E5B9;
const FINAL_MUL: u64 = 0x94D0_49BB_1331_11EB;

/// The frame check of methods 2 and 3: four independent multiply-xor lanes
/// over little-endian `u64` words, so the multiplies overlap and the loop
/// runs at memory speed.
///
/// The input is cut into 32-byte stripes, the last one zero-padded if it is
/// short (no stripe for empty input). Word `i` of a stripe goes to lane
/// `i`: `lane = (lane ^ word) * LANE_MUL[i]`, wrapping. The lanes are then
/// folded into `h = len * FOLD_MUL` by `h = (rotl(h, 27) ^ lane) *
/// FOLD_MUL`, lane 0 first — the length tells padding from data — and `h`
/// is finished by `h ^= h >> 29; h *= FINAL_MUL; h ^= h >> 32`, the check
/// being its low 32 bits.
fn check_v2(data: &[u8]) -> u32 {
    #[inline(always)]
    fn stripe(lanes: &mut [u64; 4], s: &[u8; 32]) {
        for i in 0..4 {
            let word = u64::from_le_bytes(s[8 * i..8 * i + 8].try_into().expect("8-byte slice"));
            lanes[i] = (lanes[i] ^ word).wrapping_mul(LANE_MUL[i]);
        }
    }
    let mut lanes = LANE_SEED;
    let mut stripes = data.chunks_exact(32);
    for s in &mut stripes {
        stripe(&mut lanes, s.try_into().expect("32-byte chunk"));
    }
    let tail = stripes.remainder();
    if !tail.is_empty() {
        let mut padded = [0u8; 32];
        padded[..tail.len()].copy_from_slice(tail);
        stripe(&mut lanes, &padded);
    }
    let mut h = (data.len() as u64).wrapping_mul(FOLD_MUL);
    for lane in lanes {
        h = (h.rotate_left(27) ^ lane).wrapping_mul(FOLD_MUL);
    }
    h ^= h >> 29;
    h = h.wrapping_mul(FINAL_MUL);
    h ^= h >> 32;
    h as u32
}

/// Streaming encoder: accepts raw bytes, emits complete frames.
///
/// Data is buffered until [`FRAME_RAW_MAX`] accumulates (or [`flush`] /
/// [`finish`] is called), then one frame is appended to the output buffer.
///
/// [`flush`]: FrameEncoder::flush
/// [`finish`]: FrameEncoder::finish
pub struct FrameEncoder {
    pending: Vec<u8>,
    out: Vec<u8>,
    raw_total: u64,
}

impl FrameEncoder {
    /// A fresh encoder with empty buffers.
    pub fn new() -> Self {
        Self {
            pending: Vec::new(),
            out: Vec::new(),
            raw_total: 0,
        }
    }

    /// Buffer `data`, emitting frames whenever a full frame's worth is
    /// available.
    pub fn write(&mut self, data: &[u8]) {
        self.raw_total += data.len() as u64;
        let mut rest = data;
        while !rest.is_empty() {
            let room = FRAME_RAW_MAX - self.pending.len();
            let take = room.min(rest.len());
            self.pending.extend_from_slice(&rest[..take]);
            rest = &rest[take..];
            if self.pending.len() == FRAME_RAW_MAX {
                self.emit_frame();
            }
        }
    }

    /// Force any buffered bytes out as a (possibly short) frame.
    pub fn flush(&mut self) {
        if !self.pending.is_empty() {
            self.emit_frame();
        }
    }

    /// Take the encoded bytes accumulated so far, leaving the encoder ready
    /// for more input. Buffered-but-unflushed raw bytes stay buffered.
    pub fn take_output(&mut self) -> Vec<u8> {
        std::mem::take(&mut self.out)
    }

    /// Hand back a buffer obtained from [`take_output`] once its bytes are
    /// written, so the next frames reuse its allocation instead of growing
    /// a new one from empty.
    ///
    /// [`take_output`]: FrameEncoder::take_output
    pub fn recycle(&mut self, mut buf: Vec<u8>) {
        if self.out.capacity() == 0 {
            buf.clear();
            self.out = buf;
        }
    }

    /// Total raw bytes accepted by [`write`](FrameEncoder::write).
    pub fn raw_bytes(&self) -> u64 {
        self.raw_total
    }

    /// Flush and return the complete encoded stream.
    pub fn finish(mut self) -> Vec<u8> {
        self.flush();
        self.out
    }

    fn emit_frame(&mut self) {
        let raw = &self.pending;
        let checksum = check_v2(raw);
        let header_at = self.out.len();
        self.out.extend_from_slice(&[0u8; HEADER]);
        let body_at = self.out.len();
        compress_block(raw, &mut self.out);
        let comp_len = self.out.len() - body_at;
        let (method, stored_len) = if comp_len < raw.len() {
            (METHOD_LZSS, comp_len)
        } else {
            // Compression did not pay off: replace with stored payload.
            self.out.truncate(body_at);
            self.out.extend_from_slice(raw);
            (METHOD_STORE, raw.len())
        };
        let h = &mut self.out[header_at..header_at + HEADER];
        h[0] = method;
        h[1..5].copy_from_slice(&(raw.len() as u32).to_le_bytes());
        h[5..9].copy_from_slice(&(stored_len as u32).to_le_bytes());
        h[9..13].copy_from_slice(&checksum.to_le_bytes());
        self.pending.clear();
    }
}

impl Default for FrameEncoder {
    fn default() -> Self {
        Self::new()
    }
}

/// One frame header, its fields checked as far as they can be alone.
struct Header {
    method: u8,
    raw_len: usize,
    stored_len: usize,
    check: u32,
}

impl Header {
    /// The header at the start of `avail`; `None` while it is incomplete.
    fn parse(avail: &[u8]) -> Result<Option<Header>, SzipError> {
        if avail.len() < HEADER {
            return Ok(None);
        }
        let word = |at: usize| u32::from_le_bytes(avail[at..at + 4].try_into().expect("4 bytes"));
        let h = Header {
            method: avail[0],
            raw_len: word(1) as usize,
            stored_len: word(5) as usize,
            check: word(9),
        };
        if h.method > METHOD_LZSS {
            return Err(SzipError::BadMethod(h.method));
        }
        if h.raw_len > FRAME_RAW_MAX {
            return Err(SzipError::Corrupt("frame raw length exceeds maximum"));
        }
        Ok(Some(h))
    }

    /// Header and payload.
    fn frame_len(&self) -> usize {
        HEADER + self.stored_len
    }

    /// Decode `payload` into `raw`, `raw_len` bytes long, and check it.
    fn decode(&self, payload: &[u8], raw: &mut [u8]) -> Result<(), SzipError> {
        match self.method {
            METHOD_STORE_V1 | METHOD_STORE => {
                if self.stored_len != self.raw_len {
                    return Err(SzipError::Corrupt("stored frame length mismatch"));
                }
                raw.copy_from_slice(payload);
            }
            _ => decompress_into(payload, raw).map_err(SzipError::Corrupt)?,
        }
        let check = match self.method {
            METHOD_STORE_V1 | METHOD_LZSS_V1 => fnv1a(raw),
            _ => check_v2(raw),
        };
        if check != self.check {
            return Err(SzipError::Corrupt("checksum mismatch"));
        }
        Ok(())
    }
}

/// One-shot decompression of a stream produced by [`crate::compress`] /
/// [`FrameEncoder`]: every frame decoded where it lies, straight into the
/// result.
pub fn decompress(packed: &[u8]) -> Result<Vec<u8>, SzipError> {
    let mut out = Vec::new();
    let mut rest = packed;
    while !rest.is_empty() {
        let h = match Header::parse(rest)? {
            Some(h) if rest.len() >= h.frame_len() => h,
            _ => return Err(SzipError::Truncated),
        };
        let at = out.len();
        out.resize(at + h.raw_len, 0);
        h.decode(&rest[HEADER..h.frame_len()], &mut out[at..])?;
        rest = &rest[h.frame_len()..];
    }
    Ok(out)
}

/// `frame[..raw_len]` for `h`. Grown, never shrunk: only the first frame
/// pays for zeroing.
fn frame_buf<'a>(frame: &'a mut Vec<u8>, h: &Header) -> &'a mut [u8] {
    if frame.len() < h.raw_len {
        frame.resize(h.raw_len, 0);
    }
    &mut frame[..h.raw_len]
}

/// Streaming decoder, one frame at a time: [`decode_next`] takes packed
/// bytes from wherever they are and leaves the decoded frame in
/// [`frame`].
///
/// [`decode_next`]: FrameDecoder::decode_next
/// [`frame`]: FrameDecoder::frame
#[derive(Default)]
pub struct FrameDecoder {
    /// Packed bytes held back: `buf[consumed..]` starts at a frame header.
    buf: Vec<u8>,
    consumed: usize,
    /// Every byte ever copied into `buf`.
    buffered_total: u64,
    raw_total: u64,
    /// The last decoded frame is `frame[..frame_len]`; reused.
    frame: Vec<u8>,
    frame_len: usize,
}

impl FrameDecoder {
    /// A fresh decoder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append more packed bytes to the internal buffer.
    fn feed(&mut self, packed: &[u8]) {
        // Compact occasionally so long streams don't grow without bound.
        if self.consumed > 0 && self.consumed >= self.buf.len() / 2 {
            self.buf.drain(..self.consumed);
            self.consumed = 0;
        }
        self.buf.extend_from_slice(packed);
        self.buffered_total += packed.len() as u64;
    }

    /// Decode the next frame of the stream `buffered bytes ++ input`.
    /// Returns how many bytes of `input` were taken and whether a frame was
    /// decoded; if so it is in [`frame`](Self::frame) until the next call.
    ///
    /// With nothing buffered the frame is decoded where it lies in `input`.
    /// Bytes are copied in only to complete a frame that began in an
    /// earlier input, or to keep the incomplete frame `input` ends with;
    /// then all of `input` is taken and `false` says more is needed.
    ///
    /// A frame that fails its token or check test is never handed out; it
    /// stays (or is put) in the buffer, so every later call fails the same
    /// way.
    pub fn decode_next(&mut self, input: &[u8]) -> Result<(usize, bool), SzipError> {
        self.frame_len = 0;
        let mut taken = 0;
        while !self.is_frame_boundary() {
            let have = self.buf.len() - self.consumed;
            let want = match Header::parse(&self.buf[self.consumed..])? {
                Some(h) if have >= h.frame_len() => {
                    let at = self.consumed + HEADER;
                    h.decode(
                        &self.buf[at..at + h.stored_len],
                        frame_buf(&mut self.frame, &h),
                    )?;
                    self.consumed += h.frame_len();
                    self.emit(&h);
                    return Ok((taken, true));
                }
                Some(h) => h.frame_len(),
                None => HEADER,
            };
            let top_up = (want - have).min(input.len() - taken);
            if top_up == 0 {
                return Ok((taken, false));
            }
            self.feed(&input[taken..taken + top_up]);
            taken += top_up;
        }
        let rest = &input[taken..];
        let res = match Header::parse(rest) {
            Ok(Some(h)) if rest.len() >= h.frame_len() => h
                .decode(&rest[HEADER..h.frame_len()], frame_buf(&mut self.frame, &h))
                .map(|()| {
                    self.emit(&h);
                    (taken + h.frame_len(), true)
                }),
            Ok(_) => Ok((input.len(), false)),
            Err(e) => Err(e),
        };
        // What was not decoded is kept: the start of a frame, or a bad one.
        if !matches!(res, Ok((_, true))) {
            self.feed(rest);
        }
        res
    }

    fn emit(&mut self, h: &Header) {
        self.frame_len = h.raw_len;
        self.raw_total += h.raw_len as u64;
    }

    /// The frame the last [`decode_next`](Self::decode_next) decoded; empty
    /// if it decoded none.
    pub fn frame(&self) -> &[u8] {
        &self.frame[..self.frame_len]
    }

    /// True when no partial frame is pending — i.e. every byte taken so
    /// far formed complete frames. A well-formed stream ends at a boundary.
    pub fn is_frame_boundary(&self) -> bool {
        self.consumed == self.buf.len()
    }

    /// Total raw bytes produced so far.
    pub fn raw_bytes(&self) -> u64 {
        self.raw_total
    }

    /// Total packed bytes copied into the internal buffer so far, by
    /// [`decode_next`](Self::decode_next) for a frame that straddles its
    /// inputs or a bad frame it keeps.
    pub fn buffered_bytes(&self) -> u64 {
        self.buffered_total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Decode every frame of `input` that completes, appending it to
    /// `out`; an incomplete last frame stays buffered for the next input.
    /// On error `out` ends with the last good frame.
    fn decode_all(
        dec: &mut FrameDecoder,
        mut input: &[u8],
        out: &mut Vec<u8>,
    ) -> Result<(), SzipError> {
        loop {
            let (taken, decoded) = dec.decode_next(input)?;
            input = &input[taken..];
            if !decoded {
                return Ok(());
            }
            out.extend_from_slice(dec.frame());
        }
    }

    #[test]
    fn flush_midstream_keeps_frames_independent() {
        let mut enc = FrameEncoder::new();
        enc.write(b"aaaaaaaaaaaaaaaaaaaaaaaaaaaaa");
        enc.flush();
        let first = enc.take_output();
        enc.write(b"bbbbbbbbbbbbbbbbbbbbbbbbbbbbb");
        let second = enc.finish();
        // Each part decodes on its own.
        let mut dec = FrameDecoder::new();
        let mut out = Vec::new();
        decode_all(&mut dec, &first, &mut out).unwrap();
        assert_eq!(out, b"aaaaaaaaaaaaaaaaaaaaaaaaaaaaa");
        let mut out2 = Vec::new();
        let mut dec2 = FrameDecoder::new();
        decode_all(&mut dec2, &second, &mut out2).unwrap();
        assert_eq!(out2, b"bbbbbbbbbbbbbbbbbbbbbbbbbbbbb");
    }

    #[test]
    fn recycled_buffer_is_reused_and_invisible() {
        let data = b"recycle me, recycle me, recycle me. ".repeat(100);
        let mut enc = FrameEncoder::new();
        enc.write(&data);
        enc.flush();
        let first = enc.take_output();
        let (ptr, cap) = (first.as_ptr(), first.capacity());
        enc.recycle(first);
        enc.write(&data);
        enc.flush();
        // Pending output is not traded for a buffer handed back late.
        enc.recycle(vec![0xAA; 64]);
        let second = enc.take_output();
        assert_eq!(
            second,
            crate::compress(&data),
            "no byte of the old frame survives"
        );
        assert_eq!((second.as_ptr(), second.capacity()), (ptr, cap));
    }

    #[test]
    fn failed_frame_leaves_nothing_behind() {
        let good = crate::compress(b"a good frame, a good frame, a good frame");
        let mut bad = crate::compress(&b"abcdefabcdefabcdef".repeat(10));
        for flip in [HEADER + 1, bad.len() - 1] {
            bad[flip] ^= 0x40;
            let mut dec = FrameDecoder::new();
            let mut out = b"kept:".to_vec();
            let both = [&good[..], &bad[..]].concat();
            assert!(matches!(
                decode_all(&mut dec, &both, &mut out),
                Err(SzipError::Corrupt(_))
            ));
            assert_eq!(out, b"kept:a good frame, a good frame, a good frame");
            // The bad frame is still there: no later call gets past it.
            assert!(decode_all(&mut dec, &good, &mut out).is_err());
            assert_eq!(out.len(), 5 + 40);
            bad[flip] ^= 0x40;
        }
    }

    #[test]
    fn checksum_catches_payload_corruption() {
        let packed = crate::compress(&b"abcdefabcdefabcdef".repeat(10));
        let mut bad = packed.clone();
        let last = bad.len() - 1;
        bad[last] ^= 0xFF;
        let err = crate::decompress(&bad).unwrap_err();
        assert!(matches!(err, SzipError::Corrupt(_)), "{err}");
    }

    #[test]
    fn raw_byte_accounting() {
        let mut enc = FrameEncoder::new();
        enc.write(&[1, 2, 3]);
        enc.write(&[4, 5]);
        assert_eq!(enc.raw_bytes(), 5);
        let packed = enc.finish();
        let mut dec = FrameDecoder::new();
        let mut out = Vec::new();
        decode_all(&mut dec, &packed, &mut out).unwrap();
        assert_eq!(dec.raw_bytes(), 5);
    }

    #[test]
    fn exact_frame_boundary_write() {
        let data = vec![0x5Au8; FRAME_RAW_MAX];
        let packed = crate::compress(&data);
        assert_eq!(crate::decompress(&packed).unwrap(), data);
    }

    /// Frames decoded where they lie: nothing is copied into the decoder
    /// unless a frame straddles two inputs, and then only that frame.
    #[test]
    fn decode_next_copies_only_straddling_frames() {
        let a = b"first frame, first frame, first frame. ".repeat(40);
        let b = b"second second second second second second".repeat(40);
        let mut packed = crate::compress(&a);
        let second_at = packed.len();
        packed.extend_from_slice(&crate::compress(&b));

        let mut dec = FrameDecoder::new();
        let (taken, decoded) = dec.decode_next(&packed).unwrap();
        assert!(decoded && taken == second_at);
        assert_eq!(dec.frame(), a);
        let (taken, decoded) = dec.decode_next(&packed[second_at..]).unwrap();
        assert!(decoded && second_at + taken == packed.len());
        assert_eq!(dec.frame(), b);
        assert_eq!(dec.decode_next(&[]).unwrap(), (0, false));
        assert!(dec.frame().is_empty() && dec.is_frame_boundary());
        assert_eq!(dec.buffered_bytes(), 0, "whole frames are decoded in place");
        assert_eq!(dec.raw_bytes(), (a.len() + b.len()) as u64);

        // Cut inside the second frame's header, then inside its payload:
        // the decoder keeps the pieces of that frame and of no other.
        for cut in [second_at + 5, second_at + HEADER + 9] {
            let mut dec = FrameDecoder::new();
            let (taken, decoded) = dec.decode_next(&packed[..cut]).unwrap();
            assert!(decoded && taken == second_at);
            let (taken, decoded) = dec.decode_next(&packed[second_at..cut]).unwrap();
            assert!(!decoded && taken == cut - second_at && !dec.is_frame_boundary());
            // More than the frame needs: only what completes it is taken.
            let mut rest = packed[cut..].to_vec();
            rest.extend_from_slice(&packed[..second_at]);
            let (taken, decoded) = dec.decode_next(&rest).unwrap();
            assert!(decoded && taken == packed.len() - cut, "cut {cut}");
            assert_eq!(dec.frame(), b);
            assert_eq!(dec.buffered_bytes(), (packed.len() - second_at) as u64);
            let (_, decoded) = dec.decode_next(&rest[taken..]).unwrap();
            assert!(decoded && dec.frame() == a);
        }
    }

    #[test]
    fn decode_next_keeps_failing_on_a_bad_frame() {
        let good = crate::compress(b"a good frame, a good frame, a good frame");
        let mut bad = crate::compress(&b"abcdefabcdefabcdef".repeat(10));
        let last = bad.len() - 1;
        bad[last] ^= 0x40;
        let mut dec = FrameDecoder::new();
        assert!(matches!(dec.decode_next(&bad), Err(SzipError::Corrupt(_))));
        assert!(dec.frame().is_empty());
        // Not even with good bytes on offer.
        assert!(matches!(dec.decode_next(&good), Err(SzipError::Corrupt(_))));
        assert!(dec.frame().is_empty());
        let mut out = Vec::new();
        assert!(decode_all(&mut dec, &[], &mut out).is_err() && out.is_empty());
    }

    /// What the v2 check must notice, on 4 KiB of noise: any one bit, any
    /// two neighbouring words changing places (they sit in different
    /// lanes), and how much of a zero tail is data.
    #[test]
    fn check_v2_quality() {
        let mut state = 0x1234_5678_9ABC_DEF0u64;
        let mut buf: Vec<u8> = (0..4096)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (state >> 56) as u8
            })
            .collect();
        let base = check_v2(&buf);
        for bit in 0..buf.len() * 8 {
            buf[bit / 8] ^= 1 << (bit % 8);
            assert_ne!(check_v2(&buf), base, "bit {bit}");
            buf[bit / 8] ^= 1 << (bit % 8);
        }
        for w in 0..buf.len() / 8 - 1 {
            let (a, b) = (w * 8, w * 8 + 8);
            let mut swapped = buf.clone();
            swapped.copy_within(a..b, b);
            swapped[a..b].copy_from_slice(&buf[b..b + 8]);
            assert_ne!(swapped, buf);
            assert_ne!(check_v2(&swapped), base, "words {w} and {}", w + 1);
        }
        // Zero-padding the last stripe must not make these collide.
        let mut seen = std::collections::HashSet::new();
        for len in 0..=100 {
            assert!(seen.insert(check_v2(&vec![0u8; len])), "{len} zeros");
            let mut data = buf[..40].to_vec();
            data.resize(40 + len, 0);
            assert!(seen.insert(check_v2(&data)), "40 bytes and {len} zeros");
        }
    }

    #[test]
    fn encoder_writes_v2_methods_only() {
        let mut packed = crate::compress(&b"compressible ".repeat(100));
        assert_eq!(packed[0], METHOD_LZSS);
        assert_eq!(crate::compress(&[0x9C, 0x01, 0x77])[0], METHOD_STORE);
        // The same payload under a v1 method byte fails the v1 check.
        packed[0] = METHOD_LZSS_V1;
        assert_eq!(
            crate::decompress(&packed),
            Err(SzipError::Corrupt("checksum mismatch"))
        );
    }
}
