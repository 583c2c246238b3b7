//! Self-delimiting frame layer over the LZSS block codec.
//!
//! Frame wire format (little-endian):
//!
//! ```text
//! +--------+-----------+------------+----------+------------------+
//! | method | raw_len   | stored_len | checksum | payload          |
//! | u8     | u32       | u32        | u32      | stored_len bytes |
//! +--------+-----------+------------+----------+------------------+
//! ```
//!
//! * `method` — [`METHOD_STORE`] (payload is raw bytes) or
//!   [`METHOD_LZSS`] (payload is an LZSS token stream expanding to
//!   `raw_len` bytes).
//! * `checksum` — FNV-1a over the *raw* bytes, verified on decode.
//!
//! Frames are independent: the LZSS window never crosses a frame boundary,
//! so a stream can be cut between frames and the parts decoded separately —
//! this is what lets SIONlib store compressed data per write-piece and seek
//! to chunk starts.

use crate::lzss::{compress_block, decompress_block};
use crate::SzipError;

/// Stored (uncompressed) payload.
pub const METHOD_STORE: u8 = 0;
/// LZSS-compressed payload.
pub const METHOD_LZSS: u8 = 1;

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
        Self { pending: Vec::new(), out: Vec::new(), raw_total: 0 }
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
        let checksum = fnv1a(raw);
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

/// Streaming decoder: feed arbitrary slices of the packed stream, drain
/// decoded raw bytes as frames complete.
pub struct FrameDecoder {
    buf: Vec<u8>,
    consumed: usize,
    raw_total: u64,
}

impl FrameDecoder {
    /// A fresh decoder.
    pub fn new() -> Self {
        Self { buf: Vec::new(), consumed: 0, raw_total: 0 }
    }

    /// Append more packed bytes to the internal buffer.
    pub fn feed(&mut self, packed: &[u8]) {
        // Compact occasionally so long streams don't grow without bound.
        if self.consumed > 0 && self.consumed >= self.buf.len() / 2 {
            self.buf.drain(..self.consumed);
            self.consumed = 0;
        }
        self.buf.extend_from_slice(packed);
    }

    /// Decode every complete frame currently buffered, appending raw bytes
    /// to `out`. Incomplete trailing frames stay buffered for later `feed`s.
    ///
    /// On error `out` ends with the last good frame: bytes of a frame that
    /// failed its token or checksum check are never handed out. The bad
    /// frame stays buffered, so every later call fails the same way.
    pub fn drain_into(&mut self, out: &mut Vec<u8>) -> Result<(), SzipError> {
        loop {
            let avail = &self.buf[self.consumed..];
            if avail.len() < HEADER {
                return Ok(());
            }
            let method = avail[0];
            let raw_len = u32::from_le_bytes(avail[1..5].try_into().unwrap()) as usize;
            let stored_len = u32::from_le_bytes(avail[5..9].try_into().unwrap()) as usize;
            let checksum = u32::from_le_bytes(avail[9..13].try_into().unwrap());
            if method != METHOD_STORE && method != METHOD_LZSS {
                return Err(SzipError::BadMethod(method));
            }
            if raw_len > FRAME_RAW_MAX {
                return Err(SzipError::Corrupt("frame raw length exceeds maximum"));
            }
            if avail.len() < HEADER + stored_len {
                return Ok(()); // wait for more input
            }
            let payload = &avail[HEADER..HEADER + stored_len];
            let before = out.len();
            match method {
                METHOD_STORE => {
                    if stored_len != raw_len {
                        return Err(SzipError::Corrupt("stored frame length mismatch"));
                    }
                    out.extend_from_slice(payload);
                }
                _ => {
                    if let Err(why) = decompress_block(payload, raw_len, out) {
                        out.truncate(before);
                        return Err(SzipError::Corrupt(why));
                    }
                }
            }
            if fnv1a(&out[before..]) != checksum {
                out.truncate(before);
                return Err(SzipError::Corrupt("checksum mismatch"));
            }
            self.raw_total += raw_len as u64;
            self.consumed += HEADER + stored_len;
        }
    }

    /// True when no partial frame is pending — i.e. every byte fed so far
    /// formed complete frames. A well-formed stream ends at a boundary.
    pub fn is_frame_boundary(&self) -> bool {
        self.consumed == self.buf.len()
    }

    /// Total raw bytes produced so far.
    pub fn raw_bytes(&self) -> u64 {
        self.raw_total
    }
}

impl Default for FrameDecoder {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        dec.feed(&first);
        dec.drain_into(&mut out).unwrap();
        assert_eq!(out, b"aaaaaaaaaaaaaaaaaaaaaaaaaaaaa");
        let mut out2 = Vec::new();
        let mut dec2 = FrameDecoder::new();
        dec2.feed(&second);
        dec2.drain_into(&mut out2).unwrap();
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
        assert_eq!(second, crate::compress(&data), "no byte of the old frame survives");
        assert_eq!((second.as_ptr(), second.capacity()), (ptr, cap));
    }

    #[test]
    fn failed_frame_leaves_nothing_behind() {
        let good = crate::compress(b"a good frame, a good frame, a good frame");
        let mut bad = crate::compress(&b"abcdefabcdefabcdef".repeat(10));
        for flip in [HEADER + 1, bad.len() - 1] {
            bad[flip] ^= 0x40;
            let mut dec = FrameDecoder::new();
            dec.feed(&good);
            dec.feed(&bad);
            let mut out = b"kept:".to_vec();
            assert!(matches!(dec.drain_into(&mut out), Err(SzipError::Corrupt(_))));
            assert_eq!(out, b"kept:a good frame, a good frame, a good frame");
            // The bad frame is still there: no later call gets past it.
            dec.feed(&good);
            assert!(dec.drain_into(&mut out).is_err());
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
        dec.feed(&packed);
        let mut out = Vec::new();
        dec.drain_into(&mut out).unwrap();
        assert_eq!(dec.raw_bytes(), 5);
    }

    #[test]
    fn exact_frame_boundary_write() {
        let data = vec![0x5Au8; FRAME_RAW_MAX];
        let packed = crate::compress(&data);
        assert_eq!(crate::decompress(&packed).unwrap(), data);
    }
}
