//! Edge framing of the tree collectives.
//!
//! A gather/scatter tree edge carries a whole subtree as framed
//! `(id, payload)` pairs, and an allgather result ([`crate::AllGathered`])
//! is one such frame scanned in place; the encoding lives here and nowhere
//! else. The ids are vranks; a scatter edge lists them as one ascending
//! run, which is what lets [`FrameCut`] hand each child a suffix.

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

/// A received scatter frame that a tree node cuts down edge by edge,
/// sending each child its subtree as a byte range of the frame instead of
/// decoding and re-framing the entries.
///
/// A scatter edge lists its entries as one ascending run of vranks, so the
/// ids at or above a cut point are a suffix of the frame, and a child's
/// frame is one byte range behind a new count.
pub(crate) struct FrameCut {
    bytes: Vec<u8>,
    /// End of the entries still held (they start at byte 8), and their
    /// count.
    end: usize,
    held: u64,
}

impl FrameCut {
    pub(crate) fn new(bytes: Vec<u8>) -> FrameCut {
        let held = read_u64(&bytes, 0);
        FrameCut {
            end: bytes.len(),
            bytes,
            held,
        }
    }

    /// Remove the entries whose id is `from` or above and return them as a
    /// frame of their own, in the order they were held.
    pub(crate) fn split_off(&mut self, from: u64) -> Vec<u8> {
        // Walk the kept prefix to the first id at or above `from`.
        let (mut at, mut kept) = (8, 0);
        while kept < self.held && read_u64(&self.bytes, at) < from {
            at += 16 + read_u64(&self.bytes, at + 8) as usize;
            kept += 1;
        }
        let mut out = Vec::with_capacity(8 + self.end - at);
        out.extend_from_slice(&(self.held - kept).to_le_bytes());
        out.extend_from_slice(&self.bytes[at..self.end]);
        (self.end, self.held) = (at, kept);
        out
    }

    /// The payload of the one entry left once every child has its share.
    pub(crate) fn into_single(self) -> Vec<u8> {
        debug_assert_eq!(self.held, 1, "one entry remains");
        let len = read_u64(&self.bytes, 16) as usize;
        self.bytes[24..24 + len].to_vec()
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
    fn frame_cut_splits_off_suffixes_in_order() {
        let entries: Vec<(u64, Vec<u8>)> = (2u64..8)
            .map(|id| (id, vec![id as u8; id as usize]))
            .collect();
        let framed = frame(entries.iter().map(|(i, p)| (*i, p.as_slice())));
        let mut cut = FrameCut::new(framed);
        let pick = |ids: std::ops::Range<usize>| entries[ids].to_vec();
        assert_eq!(unframe(&cut.split_off(6)), pick(4..6));
        assert_eq!(unframe(&cut.split_off(9)), pick(0..0));
        assert_eq!(unframe(&cut.split_off(4)), pick(2..4));
        assert_eq!(unframe(&cut.split_off(3)), pick(1..2));
        assert_eq!(cut.into_single(), vec![2u8; 2]);
    }
}
