//! Edge framing of the tree collectives.
//!
//! A gather/scatter tree edge carries a whole subtree as framed
//! `(id, payload)` pairs, and an allgather result ([`crate::AllGathered`])
//! is one such frame scanned in place; the encoding lives here and nowhere
//! else.

/// Serialize (id, payload) pairs for one tree edge:
/// `[count][(id, len, bytes)...]`, all integers little-endian `u64`, into
/// one exactly sized allocation.
pub(crate) fn frame(entries: &[(u64, &[u8])]) -> Vec<u8> {
    let len = 8 + entries.iter().map(|(_, p)| p.len() + 16).sum::<usize>();
    let mut out = Vec::with_capacity(len);
    out.extend_from_slice(&(entries.len() as u64).to_le_bytes());
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
    let count = u64::from_le_bytes(bytes[..8].try_into().expect("frame header"));
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
        let id = u64::from_le_bytes(self.bytes[at..at + 8].try_into().expect("frame id"));
        let len =
            u64::from_le_bytes(self.bytes[at + 8..at + 16].try_into().expect("frame len")) as usize;
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_roundtrip() {
        let entries: Vec<(u64, Vec<u8>)> =
            vec![(3, vec![1, 2, 3]), (0, Vec::new()), (7, vec![9; 40])];
        let framed = frame(
            &entries
                .iter()
                .map(|(i, p)| (*i, p.as_slice()))
                .collect::<Vec<_>>(),
        );
        assert_eq!(unframe(&framed), entries);
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
