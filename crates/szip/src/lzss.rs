//! Block-level LZSS encoder/decoder.
//!
//! Token stream layout: groups of up to 8 tokens, each group preceded by a
//! flag byte (bit *i* set ⇒ token *i* is a match). A literal token is one
//! raw byte; a match token is three bytes: a little-endian `u16` backward
//! distance (1..=65536, stored as `distance - 1`) and a `u8` length code
//! (stored as `length - MIN_MATCH`, so lengths span 3..=258).
//!
//! The encoder finds matches with two hash tables over the block — one
//! keyed by the next 8 bytes, one by the next 4 — whose storage lives per
//! thread and is reused from block to block ([`Matcher`]). The decoder
//! ([`decompress_into`]) takes whole groups in wide copies while a group
//! cannot leave either buffer, and token by token with every check after.

use std::cell::RefCell;

/// Sliding-window size: the largest distance the `u16` field can carry.
pub(crate) const WINDOW: usize = 64 * 1024;
/// Shortest decodable match; the bias of the length code.
pub(crate) const MIN_MATCH: usize = 3;
/// Longest encodable match (`MIN_MATCH + 255`).
pub(crate) const MAX_MATCH: usize = MIN_MATCH + 255;

/// Shortest match the encoder emits: a 3-byte match costs 3⅛ bytes against
/// 3⅜ bytes as literals, which buys nothing.
const MIN_EMIT: usize = 4;
/// Buckets per hash table (log2).
const HASH_BITS: u32 = 15;
/// 8-byte-chain candidates tried at an ordinary position, and at the one
/// lazy step after a match too short to have come from that chain.
const DEPTH: usize = 1;
const LAZY_DEPTH: usize = 6;
/// The scan step grows by one for every `1 << SKIP_SHIFT` misses in a
/// row, up to `1 + MAX_SKIP`.
const SKIP_SHIFT: u32 = 5;
const MAX_SKIP: usize = 31;
/// Table entries are `base + position`; once `base` passes this the tables
/// are cleared and it starts over, so an entry never wraps.
const EPOCH_LIMIT: u32 = u32::MAX / 2;
/// Largest piece searched at once (keeps `base + position` in `u32`).
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

/// Length of the common prefix of `d[a..]` and `d[b..]`, `a < b`, a word
/// at a time.
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
    len + x[len..].iter().zip(&y[len..]).take_while(|(p, q)| p == q).count()
}

/// Token writer: a group's flag byte is reserved when its first token is
/// emitted and match bits are set in place.
struct Tokens<'a> {
    out: &'a mut Vec<u8>,
    flags_pos: usize,
    /// Tokens in the open group; 8 = none open.
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

    /// Fill the open group, then whole groups of 8 in bulk, then the rest.
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

    /// A match of any length ≥ `MIN_EMIT`, as tokens of `MIN_EMIT..=MAX_MATCH`.
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

/// The match finder's tables. `head8`/`head4` map the hash of the next 8
/// / 4 bytes to the latest position that had it; `prev8` is a
/// `WINDOW`-sized ring linking each position to the one before it in its
/// 8-byte bucket. Entries are `base + position` with `base` advanced past
/// every block, so whatever an earlier block left behind is `< base` and
/// reads as empty — nothing is cleared or allocated per block, and the
/// output depends on the block alone.
struct Matcher {
    base: u32,
    head8: Box<[u32; 1 << HASH_BITS]>,
    head4: Box<[u32; 1 << HASH_BITS]>,
    prev8: Box<[u32; WINDOW]>,
}

fn zeroed<const N: usize>() -> Box<[u32; N]> {
    vec![0u32; N].into_boxed_slice().try_into().expect("length is N")
}

impl Matcher {
    fn new() -> Self {
        Self::with_base(WINDOW as u32)
    }

    /// `base >= WINDOW`, so `base + position - WINDOW` cannot underflow and
    /// the tables' initial zeros are stale.
    fn with_base(base: u32) -> Self {
        assert!(base >= WINDOW as u32);
        Matcher { base, head8: zeroed(), head4: zeroed(), prev8: zeroed() }
    }

    /// Enter `pos` (8 readable bytes) into both tables and return the
    /// longest earlier match found as `(len, dist)`, `len == 0` if none
    /// reaches `MIN_EMIT`: up to `N` candidates of the 8-byte chain, and the
    /// 4-byte table's one candidate if those gave less than 8.
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
            // Worth extending only if it can beat the best so far.
            if read8(d, c) == v && d.get(c + best_len) == d.get(pos + best_len) {
                let len = 8 + common_prefix(d, c + 8, pos + 8);
                if len > best_len {
                    best_len = len;
                    best_dist = pos - c;
                }
            }
            // A slot the ring has since reused holds a later position.
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

    /// A block longer than [`BLOCK_MAX`] is searched in pieces of that size
    /// that share one token stream: a piece's matches stay inside it, so
    /// every distance is one the decoder has already produced.
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
        debug_assert!(d.len() <= BLOCK_MAX);
        if self.base > EPOCH_LIMIT {
            self.head8.fill(0);
            self.head4.fill(0);
            self.prev8.fill(0);
            self.base = WINDOW as u32;
        }
        // Everything in `anchor..pos` is literals not yet emitted.
        let mut anchor = 0;
        let mut pos = 0;
        let mut misses = 0usize;
        // The last 7 bytes are never searched (a match may still run into
        // them): `search` reads 8 bytes.
        while pos + 8 <= d.len() {
            let (mut len, mut dist) = self.search::<DEPTH>(d, pos);
            if len == 0 {
                // Incompressible stretch: scan ever more sparsely until
                // something matches again.
                misses += 1;
                pos += 1 + (misses >> SKIP_SHIFT).min(MAX_SKIP);
                continue;
            }
            misses = 0;
            // One lazy step, and only where it pays: a match this short
            // came from the 4-byte table, and on record data a long one
            // often starts a byte later, several candidates down its chain.
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
            // Positions a match covers are not entered: on record data they
            // only crowd the chains.
            pos += len;
            anchor = pos;
        }
        tokens.literals(&d[anchor..]);
        self.base += d.len() as u32;
    }
}

thread_local! {
    /// One set of tables per thread that compresses, not per encoder: a
    /// checkpoint keeps hundreds of [`crate::FrameEncoder`]s alive on a
    /// handful of threads.
    static MATCHER: RefCell<Matcher> = RefCell::new(Matcher::new());
}

/// Compress `data` as a single LZSS block, appending the token stream to
/// `out`. Returns the number of bytes appended.
///
/// The block must be independently decodable, so the window never reaches
/// back before `data[0]`. The output is a function of `data` alone.
pub fn compress_block(data: &[u8], out: &mut Vec<u8>) -> usize {
    let start_len = out.len();
    MATCHER.with(|m| m.borrow_mut().compress(data, out));
    out.len() - start_len
}

/// Decode one LZSS block that is known to expand to exactly `raw_len`
/// bytes, appending to `out`. Returns an error message on malformed input,
/// with `out` left as it was.
pub fn decompress_block(
    block: &[u8],
    raw_len: usize,
    out: &mut Vec<u8>,
) -> Result<(), &'static str> {
    let base = out.len();
    out.resize(base + raw_len, 0);
    let res = decompress_into(block, &mut out[base..]);
    if res.is_err() {
        out.truncate(base);
    }
    res
}

/// Input bytes a group can take — flag byte, eight 3-byte tokens — plus the
/// 8 the last literal copy may read past its run.
const GROUP_IN: usize = 1 + 8 * 3 + 8;
/// Output bytes a group can produce, plus the 16 the last match copy may
/// write past its length.
const GROUP_OUT: usize = 8 * MAX_MATCH + 16;

/// Eight literals in one copy; the caller advances by how many it wanted.
#[inline(always)]
fn copy_lits(block: &[u8], ip: usize, dst: &mut [u8], op: usize) {
    let word: [u8; 8] = block[ip..ip + 8].try_into().expect("8-byte slice");
    dst[op..op + 8].copy_from_slice(&word);
}

/// A match of distance at least `N`, copied `N` bytes at a time: up to
/// `N - 1` bytes past `op + len` are written too.
#[inline(always)]
fn copy_wide<const N: usize>(dst: &mut [u8], op: usize, dist: usize, len: usize) {
    let mut done = 0;
    while done < len {
        let from = op - dist + done;
        let word: [u8; N] = dst[from..from + N].try_into().expect("N-byte slice");
        dst[op + done..op + done + N].copy_from_slice(&word);
        done += N;
    }
}

/// `dst[op..op + len]` becomes a copy of what starts `dist` bytes before
/// it, byte-exact when the two overlap (`dist < len`: a run).
#[inline(always)]
fn copy_match(dst: &mut [u8], op: usize, dist: usize, len: usize) {
    if dist >= len {
        dst.copy_within(op - dist..op - dist + len, op);
    } else if dist == 1 {
        let b = dst[op - 1];
        dst[op..op + len].fill(b);
    } else {
        for i in op..op + len {
            dst[i] = dst[i - dist];
        }
    }
}

/// Decode `block` into `dst`, whose length is the block's declared raw
/// length. On an error `dst` holds garbage.
///
/// While a group has slack — [`GROUP_IN`] bytes of input and [`GROUP_OUT`]
/// bytes of output left — no token of it can be truncated or overrun
/// `dst`, whatever its bytes say, so literal runs are copied 8 bytes at a
/// time and matches in 8/16-byte steps that may write past their end (later
/// tokens overwrite the excess), and the only thing left to check is that a
/// distance stays inside what has been produced. The last groups take the
/// exact path with every check.
pub(crate) fn decompress_into(block: &[u8], dst: &mut [u8]) -> Result<(), &'static str> {
    let raw_len = dst.len();
    let (mut ip, mut op) = (0usize, 0usize);
    while ip + GROUP_IN <= block.len() && op + GROUP_OUT <= raw_len {
        let flags = block[ip];
        ip += 1;
        if flags == 0 {
            copy_lits(block, ip, dst, op);
            ip += 8;
            op += 8;
            continue;
        }
        // Bit 8 ends the group: below it, a run of zeros is a run of
        // literals and the one after it a match.
        let mut bits = flags as u32 | 0x100;
        loop {
            let run = bits.trailing_zeros() as usize;
            copy_lits(block, ip, dst, op);
            ip += run;
            op += run;
            bits >>= run;
            if bits == 1 {
                break;
            }
            bits >>= 1;
            let dist = u16::from_le_bytes([block[ip], block[ip + 1]]) as usize + 1;
            let len = block[ip + 2] as usize + MIN_MATCH;
            ip += 3;
            if dist > op {
                return Err("match distance reaches before block start");
            }
            if dist >= 16 {
                copy_wide::<16>(dst, op, dist, len);
            } else if dist >= 8 {
                copy_wide::<8>(dst, op, dist, len);
            } else {
                copy_match(dst, op, dist, len);
            }
            op += len;
        }
    }
    while op < raw_len {
        if ip >= block.len() {
            return Err("token stream ended early");
        }
        let flags = block[ip];
        ip += 1;
        for bit in 0..8 {
            if op == raw_len {
                break;
            }
            if flags & (1 << bit) != 0 {
                if ip + 3 > block.len() {
                    return Err("match token truncated");
                }
                let dist = u16::from_le_bytes([block[ip], block[ip + 1]]) as usize + 1;
                let len = block[ip + 2] as usize + MIN_MATCH;
                ip += 3;
                if dist > op {
                    return Err("match distance reaches before block start");
                }
                if op + len > raw_len {
                    return Err("match overruns declared raw length");
                }
                copy_match(dst, op, dist, len);
                op += len;
            } else {
                if ip >= block.len() {
                    return Err("literal token truncated");
                }
                dst[op] = block[ip];
                ip += 1;
                op += 1;
            }
        }
    }
    if ip != block.len() {
        return Err("trailing bytes after final token");
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn roundtrip(data: &[u8]) -> Vec<u8> {
        let mut packed = Vec::new();
        compress_block(data, &mut packed);
        let mut out = Vec::new();
        decompress_block(&packed, data.len(), &mut out).unwrap();
        out
    }

    #[test]
    fn empty_block() {
        assert_eq!(roundtrip(&[]), Vec::<u8>::new());
    }

    #[test]
    fn no_matches_all_literals() {
        let data: Vec<u8> = (0u8..=255).collect();
        assert_eq!(roundtrip(&data), data);
    }

    #[test]
    fn run_compresses_to_overlapping_matches() {
        let data = vec![0x41u8; 10_000];
        let mut packed = Vec::new();
        compress_block(&data, &mut packed);
        assert!(packed.len() < 200, "run should pack tightly, got {}", packed.len());
        let mut out = Vec::new();
        decompress_block(&packed, data.len(), &mut out).unwrap();
        assert_eq!(out, data);
    }

    #[test]
    fn max_match_length_boundary() {
        // Exactly MAX_MATCH repeat after a seed byte.
        let mut data = vec![7u8];
        data.extend(std::iter::repeat_n(7u8, MAX_MATCH));
        assert_eq!(roundtrip(&data), data);
    }

    /// `(distance, length)` of every match token in `block`.
    fn matches(block: &[u8]) -> Vec<(usize, usize)> {
        let mut found = Vec::new();
        let mut ip = 0;
        while ip < block.len() {
            let flags = block[ip];
            ip += 1;
            for bit in 0..8 {
                if ip == block.len() {
                    break;
                }
                if flags & (1 << bit) != 0 {
                    let dist = u16::from_le_bytes([block[ip], block[ip + 1]]) as usize + 1;
                    found.push((dist, block[ip + 2] as usize + MIN_MATCH));
                    ip += 3;
                } else {
                    ip += 1;
                }
            }
        }
        found
    }

    #[test]
    fn whole_window_is_reachable() {
        // A phrase, a zero run (one long distance-1 match), the phrase
        // again exactly WINDOW back.
        let phrase: Vec<u8> = (0..64).map(|i| (i * 13 % 251 + 1) as u8).collect();
        let mut data = phrase.clone();
        data.extend(std::iter::repeat_n(0, WINDOW - 64));
        data.extend_from_slice(&phrase);
        data.extend_from_slice(b"-tail-no-match");
        let mut packed = Vec::new();
        compress_block(&data, &mut packed);
        assert!(matches(&packed).contains(&(WINDOW, 64)), "{:?}", matches(&packed));
        assert_eq!(roundtrip(&data), data);
    }

    #[test]
    fn long_match_splits_into_emittable_tokens() {
        // Around the multiples of MAX_MATCH a naive split would leave a
        // remainder shorter than the encoder emits.
        for len in (MIN_EMIT..MAX_MATCH + 6).chain(2 * MAX_MATCH - 2..2 * MAX_MATCH + 6) {
            let mut packed = Vec::new();
            Tokens { out: &mut packed, flags_pos: 0, bit: 8 }.matched(7, len);
            let found = matches(&packed);
            assert_eq!(found.iter().map(|&(_, l)| l).sum::<usize>(), len, "len {len}: {found:?}");
            assert!(found.iter().all(|&(d, l)| d == 7 && (MIN_EMIT..=MAX_MATCH).contains(&l)));
        }
    }

    /// The tables outlive the block: what they hold from earlier blocks, and
    /// the epoch reset that clears them, must both be invisible.
    #[test]
    fn output_independent_of_table_history_and_epoch_wrap() {
        let a: Vec<u8> = (0..40_000u32).flat_map(|i| (i % 1000 / 3).to_le_bytes()).collect();
        let b: Vec<u8> = a.iter().rev().map(|x| x ^ 0x55).collect();
        let run = |m: &mut Matcher, data: &[u8]| {
            let mut out = Vec::new();
            m.compress(data, &mut out);
            out
        };
        let fresh = run(&mut Matcher::new(), &a);
        assert!(fresh.len() < a.len() / 4);

        // One block short of the limit: A lands just under it, B pushes
        // `base` past it, the second A triggers the reset.
        let mut m = Matcher::with_base(EPOCH_LIMIT - a.len() as u32);
        assert_eq!(run(&mut m, &a), fresh);
        assert_eq!(m.base, EPOCH_LIMIT);
        run(&mut m, &b);
        assert!(m.base > EPOCH_LIMIT);
        assert_eq!(run(&mut m, &a), fresh, "first block after the reset");
        assert_eq!(m.base, WINDOW as u32 + a.len() as u32, "tables were cleared and base restarted");
        run(&mut m, &b);
        assert_eq!(run(&mut m, &a), fresh, "stale entries of A and B in every bucket");
    }

    /// A block too long for one search is cut into pieces that share the
    /// token stream, mid-group included.
    #[test]
    fn pieces_share_one_token_stream() {
        let data: Vec<u8> = (0..30_000u32).flat_map(|i| (i % 700 / 3).to_le_bytes()).collect();
        for piece in [1, 13, 1000, 65_537] {
            let mut m = Matcher::new();
            let mut packed = Vec::new();
            let mut tokens = Tokens { out: &mut packed, flags_pos: 0, bit: 8 };
            for part in data.chunks(piece) {
                m.compress_piece(part, &mut tokens);
            }
            let mut out = Vec::new();
            decompress_block(&packed, data.len(), &mut out).unwrap();
            assert!(out == data, "pieces of {piece}");
        }
    }

    #[test]
    fn corrupt_distance_rejected() {
        // A match token whose distance points before the block start.
        // flags byte: token 0 is a match; distance 100 at produced=0.
        let block = [0b0000_0001u8, 99, 0, 0];
        let mut out = Vec::new();
        let err = decompress_block(&block, 3, &mut out).unwrap_err();
        assert!(err.contains("before block start"), "{err}");
    }

    #[test]
    fn overrun_rejected() {
        // One literal 'a', then a match of length 3 with raw_len 2.
        let mut packed = Vec::new();
        compress_block(b"aaaa", &mut packed);
        let mut out = Vec::new();
        assert!(decompress_block(&packed, 2, &mut out).is_err());
    }

    proptest! {
        #[test]
        fn roundtrip_arbitrary(data in prop::collection::vec(any::<u8>(), 0..4096)) {
            prop_assert_eq!(roundtrip(&data), data);
        }

        #[test]
        fn roundtrip_repetitive(
            unit in prop::collection::vec(any::<u8>(), 1..16),
            reps in 1usize..600
        ) {
            let data: Vec<u8> = unit.iter().cycle().take(unit.len() * reps).copied().collect();
            prop_assert_eq!(roundtrip(&data), data);
        }
    }
}
