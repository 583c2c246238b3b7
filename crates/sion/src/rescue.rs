//! Rescue metadata and crash recovery (paper §6 road map, implemented).
//!
//! "Failures, such as premature application termination or file quota
//! violation, may cause the second metadata block to be lost. To improve
//! SIONlib's robustness in such an event, we plan to add small pieces of
//! metadata to each chunk so that the full metadata can be restored if
//! needed."
//!
//! With [`SionFlags::RESCUE`](crate::SionFlags::RESCUE) enabled, every
//! chunk starts with a 32-byte [`RescueHeader`] carrying the owner's global
//! rank, the block number, and the running count of user bytes in the chunk
//! (kept current on every write). [`repair`] rebuilds a lost metablock 2 by
//! scanning these headers — metablock 1 is written before any data and is
//! assumed to survive.
//! Which tails are lost, [`check_metadata`] decides — for `sionverify` too;
//! a rescue header is read by [`chunk_used`], for both tools.

use crate::error::{Result, SionError};
use crate::format::{MetaBlock2, SionFlags};
use crate::layout::FileLayout;
use crate::physical_name;
use crate::serial::check_metadata;
use vfs::{Vfs, VfsFile};

/// Size of the per-chunk rescue header in bytes.
pub const RESCUE_HEADER_LEN: u64 = 32;

/// Magic prefixing every rescue header.
pub const RESCUE_MAGIC: [u8; 8] = *b"RSIONRSC";

/// The per-chunk rescue record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RescueHeader {
    /// Global rank of the task owning the chunk.
    pub global_rank: u64,
    /// Block number of the chunk.
    pub block: u64,
    /// User bytes currently stored in the chunk.
    pub used: u64,
}

impl RescueHeader {
    /// Byte offset of the `used` field within the encoded header (patched
    /// in place on every write).
    pub const USED_FIELD_OFFSET: u64 = 24;

    /// Serialize to the 32-byte wire format.
    pub fn encode(&self) -> [u8; RESCUE_HEADER_LEN as usize] {
        let mut out = [0u8; RESCUE_HEADER_LEN as usize];
        out[0..8].copy_from_slice(&RESCUE_MAGIC);
        out[8..16].copy_from_slice(&self.global_rank.to_le_bytes());
        out[16..24].copy_from_slice(&self.block.to_le_bytes());
        out[24..32].copy_from_slice(&self.used.to_le_bytes());
        out
    }

    /// Decode, returning `None` if the magic does not match (an untouched
    /// hole reads as zeros and is simply "no header").
    pub fn decode(bytes: &[u8]) -> Option<RescueHeader> {
        if bytes.len() < RESCUE_HEADER_LEN as usize || bytes[0..8] != RESCUE_MAGIC {
            return None;
        }
        Some(RescueHeader {
            global_rank: u64::from_le_bytes(bytes[8..16].try_into().unwrap()),
            block: u64::from_le_bytes(bytes[16..24].try_into().unwrap()),
            used: u64::from_le_bytes(bytes[24..32].try_into().unwrap()),
        })
    }
}

/// Outcome of a [`repair`] run over one multifile.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RepairReport {
    /// Physical files scanned.
    pub files_scanned: u32,
    /// Files whose metablock 2 was already valid (left untouched unless
    /// `force` was set).
    pub files_intact: u32,
    /// Files for which a metablock 2 was reconstructed and written.
    pub files_repaired: u32,
    /// Chunks recovered (with a valid rescue header and `used > 0`).
    pub chunks_recovered: u64,
    /// Total user bytes recovered.
    pub bytes_recovered: u64,
    /// Human-readable reports of damage encountered and skipped over:
    /// mismatched or unreadable rescue headers, files that could not be
    /// opened or repaired. Repair degrades gracefully — a clobbered chunk
    /// costs only that chunk, a clobbered file only that file — so an
    /// `Ok` report with non-empty `problems` means "recovered what was
    /// recoverable"; callers deciding whether to trust the result should
    /// check [`is_clean`](Self::is_clean).
    pub problems: Vec<String>,
}

impl RepairReport {
    /// Whether the scan completed without skipping any damaged chunk/file.
    pub fn is_clean(&self) -> bool {
        self.problems.is_empty()
    }
}

/// What the rescue header in front of the user data at `data_off` of `file`
/// says `rank` stored in block `block`: `Ok(None)` for no header (a hole
/// reads as zeros), `Err` for one unreadable or of another (rank, block).
pub fn chunk_used(
    file: &dyn VfsFile,
    data_off: u64,
    rank: u64,
    block: u64,
) -> std::result::Result<Option<u64>, String> {
    let mut hdr = [0u8; RESCUE_HEADER_LEN as usize];
    file.read_exact_at(&mut hdr, data_off - RESCUE_HEADER_LEN)
        .map_err(|e| format!("rescue header of (rank {rank}, block {block}) unreadable: {e}"))?;
    match RescueHeader::decode(&hdr) {
        None => Ok(None),
        Some(h) if h.global_rank == rank && h.block == block => Ok(Some(h.used)),
        Some(h) => Err(format!(
            "rescue header mismatch: found (rank {}, block {}) at chunk of (rank {rank}, \
             block {block})",
            h.global_rank, h.block
        )),
    }
}

/// Rebuild the tail of every physical file of the multifile at `base` that
/// [`check_metadata`] rejects, by scanning rescue headers; with `force`,
/// of every file whose head it accepts. "Intact" is what the judge accepts.
///
/// Damage encountered mid-scan does not abort the run: a chunk whose
/// rescue header is unreadable or belongs to a different (rank, block)
/// is skipped (counted as empty) and reported in
/// [`RepairReport::problems`], and a physical file that cannot be opened
/// or whose head the judge rejects is left alone and reported the same
/// way, so the remaining chunks and files are still recovered. Only
/// damage to the *first* file's metablock 1 is fatal — without it the
/// multifile's shape (`nfiles`, rescue flag) is unknown.
pub fn repair(vfs: &dyn Vfs, base: &str, force: bool) -> Result<RepairReport> {
    let checks = check_metadata(vfs, base)?;
    if !checks[0]
        .mb1
        .as_ref()
        .is_some_and(|m| m.flags.contains(SionFlags::RESCUE))
    {
        return Err(SionError::Rescue(
            "multifile was written without rescue headers; nothing to scan".into(),
        ));
    }

    let mut report = RepairReport {
        files_scanned: 0,
        files_intact: 0,
        files_repaired: 0,
        chunks_recovered: 0,
        bytes_recovered: 0,
        problems: Vec::new(),
    };

    for (k, check) in (0u32..).zip(checks) {
        let mb1 = match check.mb1 {
            Some(mb1) if check.head.is_empty() => mb1,
            _ => {
                report.problems.extend(check.head);
                continue;
            }
        };
        report.files_scanned += 1;
        if !force && check.tail.is_empty() {
            report.files_intact += 1;
            continue;
        }

        let name = physical_name(base, k);
        let file = match vfs.open_rw(&name) {
            Ok(f) => f,
            Err(e) => {
                report.problems.push(format!("{name}: cannot open: {e}"));
                continue;
            }
        };
        let layout = FileLayout::from_mb1(&mb1)?;
        let n = layout.ntasks();
        let file_len = file.len()?;
        // Upper bound on blocks that can physically exist in the file.
        let max_blocks = if file_len <= layout.data_start || layout.block_size == 0 {
            0
        } else {
            (file_len - layout.data_start).div_ceil(layout.block_size)
        };

        let mut rows: Vec<Vec<u64>> = Vec::new();
        for b in 0..max_blocks {
            let mut row = vec![0u64; n];
            for (t, slot) in row.iter_mut().enumerate() {
                let data_off = layout.chunk_start(t, b) + RESCUE_HEADER_LEN;
                if data_off > file_len {
                    continue;
                }
                // A header of a different (rank, block) means this spot is
                // inconsistent with the file's own layout — possibly a torn
                // header write. Treat the chunk as unrecoverable and move
                // on; the rest of the file is still worth saving.
                match chunk_used(file.as_ref(), data_off, mb1.global_ranks[t], b) {
                    Ok(None) => {}
                    Ok(Some(used)) => {
                        let used = used.min(layout.usable(t));
                        *slot = used;
                        if used > 0 {
                            report.chunks_recovered += 1;
                            report.bytes_recovered += used;
                        }
                    }
                    Err(e) => report.problems.push(format!("{name}: {e}; chunk skipped")),
                }
            }
            rows.push(row);
        }
        // Trim trailing all-zero blocks (interior zero rows must stay: they
        // keep later blocks at the right index).
        while rows.last().is_some_and(|r| r.iter().all(|&u| u == 0)) {
            rows.pop();
        }

        let nblocks = rows.len() as u64;
        let used: Vec<u64> = rows.into_iter().flatten().collect();
        let mb2 = MetaBlock2 { nblocks, used };
        // Same writer as the collective close: metablock 2 + chunk index +
        // v2 trailer in one write, so forced repair of a cleanly closed
        // file is byte-identical to the close it replays.
        if let Err(e) =
            crate::format::write_close_metadata(file.as_ref(), layout.mb2_offset(nblocks), &mb2, n)
        {
            report
                .problems
                .push(format!("{name}: cannot write rebuilt metablock 2: {e}"));
            continue;
        }
        report.files_repaired += 1;
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn header_roundtrip() {
        let h = RescueHeader {
            global_rank: 42,
            block: 7,
            used: 123456,
        };
        let bytes = h.encode();
        assert_eq!(RescueHeader::decode(&bytes), Some(h));
    }

    #[test]
    fn hole_decodes_as_no_header() {
        assert_eq!(RescueHeader::decode(&[0u8; 32]), None);
        assert_eq!(RescueHeader::decode(&[0u8; 10]), None);
    }

    #[test]
    fn used_field_offset_matches_encoding() {
        let h = RescueHeader {
            global_rank: 1,
            block: 2,
            used: 0xABCD,
        };
        let bytes = h.encode();
        let off = RescueHeader::USED_FIELD_OFFSET as usize;
        assert_eq!(
            u64::from_le_bytes(bytes[off..off + 8].try_into().unwrap()),
            0xABCD
        );
    }
}
