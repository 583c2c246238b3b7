//! Seeded inputs shared by the szip integration tests. Everything here is
//! self-contained (its own splitmix64, no `rand`), because
//! `golden/v1_stream.szip` and `golden/v2_stream.szip` were encoded from
//! these exact bytes: changing a generator invalidates the fixtures.

#![allow(dead_code)]
#![allow(unreachable_pub)]

pub struct SplitMix(pub u64);

impl SplitMix {
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// Records laid out like `tracer::Event::encode` for a multigrid solver:
/// per iteration one Enter, then per level an Enter, four Sends, four
/// Recvs and an Exit — `[kind u8][time u64][region u32]` (13 B) or
/// `[kind u8][time u64][peer u32][tag u32][bytes u32]` (21 B), all
/// little-endian, time strictly increasing.
pub fn trace_like(seed: u64, len: usize) -> Vec<u8> {
    let mut rng = SplitMix(seed);
    let mut out = Vec::with_capacity(len + 64);
    let mut t = 0u64;
    let region = |out: &mut Vec<u8>, kind: u8, t: u64, region: u32| {
        out.push(kind);
        out.extend_from_slice(&t.to_le_bytes());
        out.extend_from_slice(&region.to_le_bytes());
    };
    while out.len() < len {
        t += 100 + rng.below(100);
        region(&mut out, 1, t, 1);
        for level in 0..4u32 {
            t += 50 + rng.below(100);
            region(&mut out, 1, t, 10 + level);
            for kind in [3u8, 4] {
                for peer in [18u32, 16, 19, 15] {
                    t += 1 + rng.below(19);
                    out.push(kind);
                    out.extend_from_slice(&t.to_le_bytes());
                    out.extend_from_slice(&peer.to_le_bytes());
                    out.extend_from_slice(&level.to_le_bytes());
                    out.extend_from_slice(&(2048 + rng.below(4096) as u32).to_le_bytes());
                }
            }
            t += 50 + rng.below(100);
            region(&mut out, 2, t, 10 + level);
        }
        t += 10 + rng.below(40);
        region(&mut out, 2, t, 1);
    }
    out.truncate(len);
    out
}

/// Log-like text: lines built from a few verbs, nouns and tails around
/// numeric fields, so phrases repeat but no line does.
pub fn word_mix(seed: u64, len: usize) -> Vec<u8> {
    const VERBS: [&str; 8] = [
        "wrote", "read", "flushed", "synced", "opened", "closed", "shipped", "acked",
    ];
    const NOUNS: [&str; 8] = [
        "chunk",
        "block",
        "frame",
        "extent",
        "metablock",
        "rescue header",
        "lease",
        "window",
    ];
    const TAILS: [&str; 8] = [
        "to the task-local file",
        "of the shared multifile",
        "at the file system block boundary",
        "before the collective close",
        "after the barrier",
        "in aggregated mode",
        "with compression on",
        "while the aggregator drained its queue",
    ];
    let mut rng = SplitMix(seed);
    let mut out = Vec::with_capacity(len + 128);
    let mut t = 0u64;
    while out.len() < len {
        let r = rng.next_u64();
        t += r % 97;
        let line = format!(
            "[{:>9}] rank {:>4} {} {} {} {}, {} bytes\n",
            t,
            (r >> 8) % 256,
            VERBS[(r >> 16) as usize % 8],
            NOUNS[(r >> 24) as usize % 8],
            (r >> 32) % 64,
            TAILS[(r >> 40) as usize % 8],
            4096 * (1 + (r >> 48) % 16),
        );
        out.extend_from_slice(line.as_bytes());
    }
    out.truncate(len);
    out
}

pub fn random_bytes(seed: u64, len: usize) -> Vec<u8> {
    let mut rng = SplitMix(seed);
    let mut out = Vec::with_capacity(len + 8);
    while out.len() < len {
        out.extend_from_slice(&rng.next_u64().to_le_bytes());
    }
    out.truncate(len);
    out
}

/// The four inputs of the compatibility fixture, each its own frame(s) of
/// the golden stream: trace-like records (reaching across the whole v1
/// window), a word mix, a zero run, random bytes (stored).
pub fn fixture_inputs() -> [(&'static str, Vec<u8>); 4] {
    [
        ("trace", trace_like(0x51_0E, 80 << 10)),
        ("words", word_mix(0x51_0F, 24 << 10)),
        ("zeros", vec![0u8; 20 << 10]),
        ("random", random_bytes(0x51_10, 6 << 10)),
    ]
}

/// The reader as it was before frame methods 2/3 and the slice decoder:
/// FNV-1a, the `Vec::push` block decoder and the frame decoder's header
/// checks, copied from that commit and frozen. It is the oracle the
/// block decoder is compared with, the "old reader" of the compatibility
/// tests and the baseline of the decode-speed floor. Never update it.
pub mod v1 {
    use szip::SzipError;

    pub const HEADER: usize = 13;
    const FRAME_RAW_MAX: usize = 256 * 1024;
    const MIN_MATCH: usize = 3;

    pub fn fnv1a(data: &[u8]) -> u32 {
        let mut h: u32 = 0x811c9dc5;
        for &b in data {
            h ^= b as u32;
            h = h.wrapping_mul(0x0100_0193);
        }
        h
    }

    pub fn decompress_block(
        block: &[u8],
        raw_len: usize,
        out: &mut Vec<u8>,
    ) -> Result<(), &'static str> {
        let base = out.len();
        out.reserve(raw_len);
        let mut ip = 0usize;
        while out.len() - base < raw_len {
            if ip >= block.len() {
                return Err("token stream ended early");
            }
            let flags = block[ip];
            ip += 1;
            for bit in 0..8 {
                if out.len() - base == raw_len {
                    break;
                }
                if flags & (1 << bit) != 0 {
                    if ip + 3 > block.len() {
                        return Err("match token truncated");
                    }
                    let dist = u16::from_le_bytes([block[ip], block[ip + 1]]) as usize + 1;
                    let len = block[ip + 2] as usize + MIN_MATCH;
                    ip += 3;
                    let produced = out.len() - base;
                    if dist > produced {
                        return Err("match distance reaches before block start");
                    }
                    if produced + len > raw_len {
                        return Err("match overruns declared raw length");
                    }
                    let start = out.len() - dist;
                    if dist >= len {
                        out.extend_from_within(start..start + len);
                    } else {
                        for src in start..start + len {
                            let b = out[src];
                            out.push(b);
                        }
                    }
                } else {
                    if ip >= block.len() {
                        return Err("literal token truncated");
                    }
                    out.push(block[ip]);
                    ip += 1;
                }
            }
        }
        if ip != block.len() {
            return Err("trailing bytes after final token");
        }
        Ok(())
    }

    /// `szip::decompress` of that commit: every frame of `packed`, or the
    /// first error.
    pub fn decompress(packed: &[u8]) -> Result<Vec<u8>, SzipError> {
        let mut out = Vec::new();
        let mut avail = packed;
        loop {
            if avail.len() < HEADER {
                break;
            }
            let method = avail[0];
            let raw_len = u32::from_le_bytes(avail[1..5].try_into().unwrap()) as usize;
            let stored_len = u32::from_le_bytes(avail[5..9].try_into().unwrap()) as usize;
            let checksum = u32::from_le_bytes(avail[9..13].try_into().unwrap());
            if method != 0 && method != 1 {
                return Err(SzipError::BadMethod(method));
            }
            if raw_len > FRAME_RAW_MAX {
                return Err(SzipError::Corrupt("frame raw length exceeds maximum"));
            }
            if avail.len() < HEADER + stored_len {
                break;
            }
            let payload = &avail[HEADER..HEADER + stored_len];
            let before = out.len();
            if method == 0 {
                if stored_len != raw_len {
                    return Err(SzipError::Corrupt("stored frame length mismatch"));
                }
                out.extend_from_slice(payload);
            } else {
                decompress_block(payload, raw_len, &mut out).map_err(SzipError::Corrupt)?;
            }
            if fnv1a(&out[before..]) != checksum {
                return Err(SzipError::Corrupt("checksum mismatch"));
            }
            avail = &avail[HEADER + stored_len..];
        }
        if !avail.is_empty() {
            return Err(SzipError::Truncated);
        }
        Ok(out)
    }
}

/// Where each frame of a well-formed stream starts, and the stream's length.
pub fn frame_starts(packed: &[u8]) -> Vec<usize> {
    let mut starts = Vec::new();
    let mut at = 0;
    while at < packed.len() {
        starts.push(at);
        at += v1::HEADER + u32::from_le_bytes(packed[at + 5..at + 9].try_into().unwrap()) as usize;
    }
    assert_eq!(at, packed.len(), "stream ends at a frame boundary");
    starts
}

/// The block encoder as it was before the one-candidate search and the
/// two table sizes: one `HASH_BITS = 15` for both tables, and the generic
/// chain walk at depth 1 at every ordinary position. Copied from that
/// commit and frozen, as [`v1`] froze the reader: it is the baseline of
/// the encode-speed floor. Never update it.
pub mod old_encoder {
    use std::cell::RefCell;

    const WINDOW: usize = 64 * 1024;
    const MIN_MATCH: usize = 3;
    const MAX_MATCH: usize = MIN_MATCH + 255;
    const MIN_EMIT: usize = 4;
    const HASH_BITS: u32 = 15;
    const DEPTH: usize = 1;
    const LAZY_DEPTH: usize = 6;
    const SKIP_SHIFT: u32 = 5;
    const MAX_SKIP: usize = 31;
    const EPOCH_LIMIT: u32 = u32::MAX / 2;
    const BLOCK_MAX: usize = 1 << 30;

    #[inline(always)]
    fn read8(d: &[u8], p: usize) -> u64 {
        u64::from_le_bytes(d[p..p + 8].try_into().expect("8-byte slice"))
    }

    #[inline(always)]
    fn hash8(v: u64) -> usize {
        (v.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (64 - HASH_BITS)) as usize
    }

    #[inline(always)]
    fn hash4(v: u32) -> usize {
        (v.wrapping_mul(0x9E37_79B1) >> (32 - HASH_BITS)) as usize
    }

    #[inline(always)]
    fn common_prefix(d: &[u8], a: usize, b: usize) -> usize {
        let (x, y) = (&d[a..], &d[b..]);
        let mut len = 0;
        for (wx, wy) in x.chunks_exact(8).zip(y.chunks_exact(8)) {
            let diff = u64::from_le_bytes(wx.try_into().expect("8-byte chunk"))
                ^ u64::from_le_bytes(wy.try_into().expect("8-byte chunk"));
            if diff != 0 {
                return len + (diff.trailing_zeros() / 8) as usize;
            }
            len += 8;
        }
        len + x[len..]
            .iter()
            .zip(&y[len..])
            .take_while(|(p, q)| p == q)
            .count()
    }

    struct Tokens<'a> {
        out: &'a mut Vec<u8>,
        flags_pos: usize,
        bit: u8,
    }

    impl Tokens<'_> {
        #[inline(always)]
        fn open_group(&mut self) {
            if self.bit == 8 {
                self.flags_pos = self.out.len();
                self.out.push(0);
                self.bit = 0;
            }
        }

        #[inline(always)]
        fn literals(&mut self, mut lits: &[u8]) {
            while !lits.is_empty() && self.bit != 8 {
                self.out.push(lits[0]);
                self.bit += 1;
                lits = &lits[1..];
            }
            while lits.len() >= 8 {
                self.out.push(0);
                self.out.extend_from_slice(&lits[..8]);
                lits = &lits[8..];
            }
            if !lits.is_empty() {
                self.open_group();
                self.out.extend_from_slice(lits);
                self.bit += lits.len() as u8;
            }
        }

        #[inline(always)]
        fn matched(&mut self, dist: usize, mut len: usize) {
            loop {
                let take = if len <= MAX_MATCH {
                    len
                } else if len - MAX_MATCH < MIN_EMIT {
                    len - MIN_EMIT
                } else {
                    MAX_MATCH
                };
                self.open_group();
                self.out[self.flags_pos] |= 1 << self.bit;
                self.bit += 1;
                let dist_code = (dist - 1) as u16;
                self.out.extend_from_slice(&dist_code.to_le_bytes());
                self.out.push((take - MIN_MATCH) as u8);
                len -= take;
                if len == 0 {
                    return;
                }
            }
        }
    }

    struct Matcher {
        base: u32,
        head8: Box<[u32; 1 << HASH_BITS]>,
        head4: Box<[u32; 1 << HASH_BITS]>,
        prev8: Box<[u32; WINDOW]>,
    }

    fn zeroed<const N: usize>() -> Box<[u32; N]> {
        vec![0u32; N]
            .into_boxed_slice()
            .try_into()
            .expect("length is N")
    }

    impl Matcher {
        fn new() -> Self {
            Matcher {
                base: WINDOW as u32,
                head8: zeroed(),
                head4: zeroed(),
                prev8: zeroed(),
            }
        }

        #[inline(always)]
        fn search<const N: usize>(&mut self, d: &[u8], pos: usize) -> (usize, usize) {
            let base = self.base;
            let abs = base + pos as u32;
            let floor = base.max(abs - WINDOW as u32);
            let v = read8(d, pos);
            let (h8, h4) = (hash8(v), hash4(v as u32));
            let mut c8 = self.head8[h8];
            let c4 = self.head4[h4];
            self.head8[h8] = abs;
            self.head4[h4] = abs;
            self.prev8[abs as usize % WINDOW] = c8;

            let mut best_len = MIN_EMIT - 1;
            let mut best_dist = 0;
            for _ in 0..N {
                if c8 < floor {
                    break;
                }
                let c = (c8 - base) as usize;
                if read8(d, c) == v && d.get(c + best_len) == d.get(pos + best_len) {
                    let len = 8 + common_prefix(d, c + 8, pos + 8);
                    if len > best_len {
                        best_len = len;
                        best_dist = pos - c;
                    }
                }
                let next = self.prev8[c8 as usize % WINDOW];
                if next >= c8 {
                    break;
                }
                c8 = next;
            }
            if best_len < 8 && c4 >= floor {
                let c = (c4 - base) as usize;
                if read8(d, c) as u32 == v as u32 {
                    let len = 4 + common_prefix(d, c + 4, pos + 4);
                    if len > best_len {
                        best_len = len;
                        best_dist = pos - c;
                    }
                }
            }
            if best_len >= MIN_EMIT {
                (best_len, best_dist)
            } else {
                (0, 0)
            }
        }

        fn compress(&mut self, d: &[u8], out: &mut Vec<u8>) {
            let mut tokens = Tokens {
                out,
                flags_pos: 0,
                bit: 8,
            };
            for piece in d.chunks(BLOCK_MAX) {
                self.compress_piece(piece, &mut tokens);
            }
        }

        fn compress_piece(&mut self, d: &[u8], tokens: &mut Tokens<'_>) {
            if self.base > EPOCH_LIMIT {
                self.head8.fill(0);
                self.head4.fill(0);
                self.prev8.fill(0);
                self.base = WINDOW as u32;
            }
            let mut anchor = 0;
            let mut pos = 0;
            let mut misses = 0usize;
            while pos + 8 <= d.len() {
                let (mut len, mut dist) = self.search::<DEPTH>(d, pos);
                if len == 0 {
                    misses += 1;
                    pos += 1 + (misses >> SKIP_SHIFT).min(MAX_SKIP);
                    continue;
                }
                misses = 0;
                if len < 8 && pos + 9 <= d.len() {
                    let (len1, dist1) = self.search::<LAZY_DEPTH>(d, pos + 1);
                    if len1 > len + 1 {
                        pos += 1;
                        len = len1;
                        dist = dist1;
                    }
                }
                tokens.literals(&d[anchor..pos]);
                tokens.matched(dist, len);
                pos += len;
                anchor = pos;
            }
            tokens.literals(&d[anchor..]);
            self.base += d.len() as u32;
        }
    }

    thread_local! {
        static MATCHER: RefCell<Matcher> = RefCell::new(Matcher::new());
    }

    /// `szip::compress_block` of that commit.
    pub fn compress_block(data: &[u8], out: &mut Vec<u8>) -> usize {
        let start_len = out.len();
        MATCHER.with(|m| m.borrow_mut().compress(data, out));
        out.len() - start_len
    }
}
