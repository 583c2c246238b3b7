//! Block-level LZSS encoder/decoder.
//!
//! Token stream layout: groups of up to 8 tokens, each group preceded by a
//! flag byte (bit *i* set ⇒ token *i* is a match). A literal token is one
//! raw byte; a match token is three bytes: a little-endian `u16` backward
//! distance (1..=32768, stored as `distance - 1`) and a `u8` length code
//! (stored as `length - MIN_MATCH`, so lengths span 3..=258).

/// Sliding-window size. Distances never exceed this.
pub const WINDOW: usize = 32 * 1024;
/// Shortest encodable match; shorter repeats are emitted as literals.
pub const MIN_MATCH: usize = 3;
/// Longest encodable match (`MIN_MATCH + 255`).
pub const MAX_MATCH: usize = MIN_MATCH + 255;

/// Hash-chain match finder parameters.
const HASH_BITS: usize = 15;
const HASH_SIZE: usize = 1 << HASH_BITS;
const MAX_CHAIN: usize = 64;
const NIL: u32 = u32::MAX;

#[inline]
fn hash3(data: &[u8], pos: usize) -> usize {
    let h = (data[pos] as u32)
        .wrapping_mul(0x9E37)
        .wrapping_add((data[pos + 1] as u32).wrapping_mul(0x79B9))
        .wrapping_add((data[pos + 2] as u32).wrapping_mul(0x85EB));
    (h as usize) & (HASH_SIZE - 1)
}

/// Compress `data` as a single LZSS block, appending the token stream to
/// `out`. Returns the number of bytes appended.
///
/// The block must be independently decodable, so the window never reaches
/// back before `data[0]`.
pub fn compress_block(data: &[u8], out: &mut Vec<u8>) -> usize {
    let start_len = out.len();
    if data.is_empty() {
        return 0;
    }

    let mut head = vec![NIL; HASH_SIZE];
    let mut prev = vec![NIL; data.len()];

    // Flag-group state: a group's flag byte is reserved when its first
    // token is emitted and patched once the group closes (8 tokens or end
    // of block).
    let mut flags_pos = usize::MAX;
    let mut flag_bit = 0u8;
    let mut flags = 0u8;

    let mut pos = 0usize;
    let insert = |head: &mut [u32], prev: &mut [u32], data: &[u8], p: usize| {
        if p + MIN_MATCH <= data.len() {
            let h = hash3(data, p);
            prev[p] = head[h];
            head[h] = p as u32;
        }
    };

    while pos < data.len() {
        let mut best_len = 0usize;
        let mut best_dist = 0usize;
        if pos + MIN_MATCH <= data.len() {
            let h = hash3(data, pos);
            let mut cand = head[h];
            let limit = pos.saturating_sub(WINDOW);
            let max_len = (data.len() - pos).min(MAX_MATCH);
            let mut chain = 0;
            while cand != NIL && (cand as usize) >= limit && chain < MAX_CHAIN {
                let c = cand as usize;
                // Quick reject: compare at current best length first.
                if best_len == 0 || data.get(c + best_len) == data.get(pos + best_len) {
                    let mut l = 0usize;
                    while l < max_len && data[c + l] == data[pos + l] {
                        l += 1;
                    }
                    if l > best_len {
                        best_len = l;
                        best_dist = pos - c;
                        if l == max_len {
                            break;
                        }
                    }
                }
                cand = prev[c];
                chain += 1;
            }
        }

        if flag_bit == 0 {
            flags_pos = out.len();
            out.push(0);
        }

        if best_len >= MIN_MATCH {
            flags |= 1 << flag_bit;
            let dist_code = (best_dist - 1) as u16;
            out.extend_from_slice(&dist_code.to_le_bytes());
            out.push((best_len - MIN_MATCH) as u8);
            // Insert all covered positions so later matches can point into
            // this run.
            for p in pos..pos + best_len {
                insert(&mut head, &mut prev, data, p);
            }
            pos += best_len;
        } else {
            out.push(data[pos]);
            insert(&mut head, &mut prev, data, pos);
            pos += 1;
        }

        flag_bit += 1;
        if flag_bit == 8 {
            out[flags_pos] = flags;
            flags = 0;
            flag_bit = 0;
        }
    }

    // Patch the final partial flag group, if one is open.
    if flag_bit > 0 {
        out[flags_pos] = flags;
    }
    out.len() - start_len
}

/// Decode one LZSS block that is known to expand to exactly `raw_len`
/// bytes, appending to `out`. Returns an error message on malformed input.
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
                    // Source ends before the output grows into it (the
                    // common case): one block copy.
                    out.extend_from_within(start..start + len);
                } else {
                    // Overlapping run: each byte may be one just written.
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

    #[test]
    fn long_range_match_within_window() {
        let mut data = vec![0u8; 0];
        let phrase: Vec<u8> = (0..64).map(|i| (i * 13 % 251) as u8).collect();
        data.extend_from_slice(&phrase);
        data.extend(std::iter::repeat_n(0xEE, WINDOW - 1024));
        data.extend_from_slice(&phrase); // still within window
        assert_eq!(roundtrip(&data), data);
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
