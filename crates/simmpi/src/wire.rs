//! Edge framing of the tree collectives.
//!
//! A gather/scatter tree edge carries a whole subtree as framed
//! `(id, payload)` pairs, and an allgather result ([`crate::AllGathered`])
//! is one such frame scanned in place; the encoding lives here and nowhere
//! else.

/// Serialize (id, payload) pairs for one tree edge:
/// `[count][(id, len, bytes)...]`, all integers little-endian `u64`, into
/// one exactly sized allocation.
pub(crate) fn frame<'a, I>(entries: I) -> Vec<u8>
where
    I: Iterator<Item = (u64, &'a [u8])> + Clone,
{
    let (count, len) = entries
        .clone()
        .fold((0u64, 8), |(n, len), (_, p)| (n + 1, len + 16 + p.len()));
    let mut out = Vec::with_capacity(len);
    out.extend_from_slice(&count.to_le_bytes());
    for (id, payload) in entries {
        out.extend_from_slice(&id.to_le_bytes());
        out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        out.extend_from_slice(payload);
    }
    out
}

/// Inverse of [`frame`].
pub(crate) fn unframe(bytes: &[u8]) -> Vec<(u64, Vec<u8>)> {
    frame_iter(bytes).map(|(id, p)| (id, p.to_vec())).collect()
}

/// Zero-copy iterator over a [`frame`]'s `(id, payload)` entries — the
/// scan-in-place alternative to [`unframe`] for consumers that only need
/// to look at each payload once.
pub(crate) struct FrameIter<'a> {
    bytes: &'a [u8],
    at: usize,
    left: u64,
}

pub(crate) fn frame_iter(bytes: &[u8]) -> FrameIter<'_> {
    let count = read_u64(bytes, 0);
    FrameIter {
        bytes,
        at: 8,
        left: count,
    }
}

impl<'a> Iterator for FrameIter<'a> {
    type Item = (u64, &'a [u8]);

    fn next(&mut self) -> Option<(u64, &'a [u8])> {
        if self.left == 0 {
            return None;
        }
        self.left -= 1;
        let at = self.at;
        let id = read_u64(self.bytes, at);
        let len = read_u64(self.bytes, at + 8) as usize;
        let payload = &self.bytes[at + 16..at + 16 + len];
        self.at = at + 16 + len;
        Some((id, payload))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.left as usize, Some(self.left as usize))
    }
}

impl ExactSizeIterator for FrameIter<'_> {}

/// Number of vranks in the binomial subtree rooted at vrank `v` of a tree
/// over `size` vranks: `min(lowbit(v), size - v)` (the whole tree for the
/// root). Used to pre-size gather accumulators exactly.
pub(crate) fn subtree_size(v: usize, size: usize) -> usize {
    let span = if v == 0 {
        size.next_power_of_two()
    } else {
        v & v.wrapping_neg()
    };
    span.min(size - v)
}

/// A received scatter frame that a tree node cuts down edge by edge,
/// sending each child its subtree as byte ranges of the frame instead of
/// decoding and re-framing the entries.
///
/// The frame's entries form at most two runs of ascending ids: a scatter
/// lists its parts in real-rank order, which is vrank order rotated by the
/// root, and every edge keeps that order. So the ids at or above a cut
/// point are a suffix of each run, and a child's frame is one byte range
/// (two where the rotation wraps inside its subtree) behind a new count.
pub(crate) struct FrameCut {
    bytes: Vec<u8>,
    /// Byte range and entry count of each run still held.
    runs: [(std::ops::Range<usize>, u64); 2],
}

impl FrameCut {
    pub(crate) fn new(bytes: Vec<u8>) -> FrameCut {
        let mut runs = [(8..8, 0), (bytes.len()..bytes.len(), 0)];
        let (mut run, mut prev, mut at) = (0, 0u64, 8);
        for (id, payload) in frame_iter(&bytes) {
            if id < prev {
                assert_eq!(run, 0, "a scatter frame holds at most two ascending runs");
                run = 1;
                runs[1].0.start = at;
            }
            prev = id;
            at += 16 + payload.len();
            runs[run].0.end = at;
            runs[run].1 += 1;
        }
        FrameCut { bytes, runs }
    }

    /// Remove the entries whose id is `from` or above and return them as a
    /// frame of their own, in the order they were held.
    pub(crate) fn split_off(&mut self, from: u64) -> Vec<u8> {
        let bytes = &self.bytes;
        let mut count = 0;
        let mut given = [0..0, 0..0];
        for ((range, held), give) in self.runs.iter_mut().zip(&mut given) {
            // Walk the kept prefix to the first id at or above `from`.
            let (mut at, mut kept) = (range.start, 0);
            while kept < *held && read_u64(bytes, at) < from {
                at += 16 + read_u64(bytes, at + 8) as usize;
                kept += 1;
            }
            *give = at..range.end;
            count += *held - kept;
            (range.end, *held) = (at, kept);
        }
        let mut out = Vec::with_capacity(8 + given.iter().map(|g| g.len()).sum::<usize>());
        out.extend_from_slice(&count.to_le_bytes());
        for g in given {
            out.extend_from_slice(&bytes[g]);
        }
        out
    }

    /// The payload of the one entry left once every child has its share.
    pub(crate) fn into_single(self) -> Vec<u8> {
        let [(a, n), (b, m)] = &self.runs;
        debug_assert_eq!(n + m, 1, "one entry remains");
        let at = if *n == 1 { a.start } else { b.start };
        let len = read_u64(&self.bytes, at + 8) as usize;
        self.bytes[at + 16..at + 16 + len].to_vec()
    }
}

fn read_u64(bytes: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(bytes[at..at + 8].try_into().expect("frame word"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_roundtrip() {
        let entries: Vec<(u64, Vec<u8>)> =
            vec![(3, vec![1, 2, 3]), (0, Vec::new()), (7, vec![9; 40])];
        let framed = frame(entries.iter().map(|(i, p)| (*i, p.as_slice())));
        assert_eq!(unframe(&framed), entries);
    }

    #[test]
    fn frame_cut_splices_suffixes_of_both_runs_in_order() {
        // Ids 5 6 7 then 2 3 4: the rotated order of a non-zero root.
        let entries: Vec<(u64, Vec<u8>)> = [5u64, 6, 7, 2, 3, 4]
            .iter()
            .map(|&id| (id, vec![id as u8; id as usize]))
            .collect();
        let framed = frame(entries.iter().map(|(i, p)| (*i, p.as_slice())));
        let mut cut = FrameCut::new(framed);
        let pick = |ids: &[u64]| -> Vec<(u64, Vec<u8>)> {
            ids.iter()
                .map(|&id| entries.iter().find(|e| e.0 == id).unwrap().clone())
                .collect()
        };
        assert_eq!(unframe(&cut.split_off(6)), pick(&[6, 7]));
        assert_eq!(unframe(&cut.split_off(3)), pick(&[5, 3, 4]));
        assert_eq!(unframe(&cut.split_off(9)), pick(&[]));
        assert_eq!(cut.into_single(), vec![2u8; 2]);
    }

    #[test]
    fn subtree_sizes_partition_the_tree() {
        for size in 1..=70usize {
            // Root covers everything.
            assert_eq!(subtree_size(0, size), size);
            // Children of the root partition the non-root vranks.
            let mut covered = 0;
            let mut mask = size.next_power_of_two() >> 1;
            while mask > 0 {
                if mask < size {
                    covered += subtree_size(mask, size);
                }
                mask >>= 1;
            }
            assert_eq!(covered, size - 1, "size={size}");
        }
    }
}
