//! Chunk/block layout arithmetic (paper §3.1, Fig. 2).
//!
//! Everything here is a pure function of the open-time parameters, shared
//! by the parallel writer, the readers, the serial tools, *and* the timing
//! simulator's script generator — so the simulated access pattern can never
//! drift from what the library actually does.

use crate::error::{Result, SionError};
use crate::format::{MetaBlock1, SionFlags};
use crate::rescue::RESCUE_HEADER_LEN;

/// Chunk alignment policy (paper Fig. 2(c)).
///
/// Aligning chunks to file-system block boundaries guarantees that no two
/// tasks write to the same FS block — the file-system analogue of avoiding
/// false sharing of cache lines — at the price of rounding every chunk up
/// to a block multiple.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Alignment {
    /// Align to the file system's block size (discovered via the VFS,
    /// mirroring SIONlib's `fstat()` probe). The default.
    FsBlock,
    /// Align to an explicit unit in bytes. The paper's Table 1 experiment
    /// configures SIONlib with a 16 KiB unit on a 2 MiB-block file system
    /// to demonstrate the cost of *mis*alignment.
    Fixed(u64),
    /// No alignment: chunks are packed back to back (Fig. 2(a)/(b)).
    None,
}

impl Alignment {
    /// The effective alignment unit given the file system's block size.
    pub fn unit(self, fsblksize: u64) -> u64 {
        match self {
            Alignment::FsBlock => fsblksize,
            Alignment::Fixed(a) => a.max(1),
            Alignment::None => 1,
        }
    }
}

/// Round `x` up to the next multiple of `unit` (`unit >= 1`).
pub(crate) fn align_up(x: u64, unit: u64) -> u64 {
    debug_assert!(unit >= 1);
    x.div_ceil(unit) * unit
}

/// The complete chunk geometry of one physical file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FileLayout {
    /// File-system block size used for alignment decisions.
    pub fsblksize: u64,
    /// Effective alignment unit (1 = unaligned).
    pub unit: u64,
    /// Per-chunk rescue-header overhead (0 or [`RESCUE_HEADER_LEN`]).
    pub rescue_overhead: u64,
    /// Chunk capacity per local task, including rescue overhead.
    pub cap: Vec<u64>,
    /// Offset of each local task's chunk within a block (exclusive prefix
    /// sums of `cap`).
    pub chunk_off: Vec<u64>,
    /// Total size of one block (sum of capacities).
    pub block_size: u64,
    /// Offset of block 0.
    pub data_start: u64,
}

impl FileLayout {
    /// Compute the layout for one physical file.
    ///
    /// `reqs` holds the chunk-size request of each local task. With
    /// `rescue`, every chunk is enlarged by the rescue-header overhead; with
    /// alignment, capacities and the data start are rounded up to the unit,
    /// "and not to waste any space without necessity, the chunk size is
    /// chosen to be a multiple of the file-system block size".
    pub fn compute(
        reqs: &[u64],
        fsblksize: u64,
        alignment: Alignment,
        rescue: bool,
    ) -> Result<FileLayout> {
        if reqs.is_empty() {
            return Err(SionError::InvalidArg(
                "layout needs at least one task".into(),
            ));
        }
        if fsblksize == 0 {
            return Err(SionError::InvalidArg(
                "file-system block size must be positive".into(),
            ));
        }
        let unit = alignment.unit(fsblksize);
        let rescue_overhead = if rescue { RESCUE_HEADER_LEN } else { 0 };
        let mut cap = Vec::with_capacity(reqs.len());
        let mut chunk_off = Vec::with_capacity(reqs.len());
        let mut acc = 0u64;
        for &req in reqs {
            let c = align_up(req + rescue_overhead, unit);
            chunk_off.push(acc);
            acc = acc
                .checked_add(c)
                .ok_or_else(|| SionError::InvalidArg("block size overflows u64".into()))?;
            cap.push(c);
        }
        let mb1_len = MetaBlock1::encoded_len(reqs.len());
        let data_start = align_up(mb1_len, unit);
        Ok(FileLayout {
            fsblksize,
            unit,
            rescue_overhead,
            cap,
            chunk_off,
            block_size: acc,
            data_start,
        })
    }

    /// Rebuild the layout of an existing file from its metablock 1.
    pub fn from_mb1(mb1: &MetaBlock1) -> FileLayout {
        let mut chunk_off = Vec::with_capacity(mb1.chunk_cap.len());
        let mut acc = 0u64;
        for &c in &mb1.chunk_cap {
            chunk_off.push(acc);
            acc += c;
        }
        let rescue_overhead = if mb1.flags.contains(SionFlags::RESCUE) {
            RESCUE_HEADER_LEN
        } else {
            0
        };
        let unit = if mb1.flags.contains(SionFlags::ALIGNED) {
            // The original unit is recoverable only approximately; all
            // address arithmetic uses the stored capacities, so the unit is
            // informational for readers.
            mb1.fsblksize
        } else {
            1
        };
        FileLayout {
            fsblksize: mb1.fsblksize,
            unit,
            rescue_overhead,
            cap: mb1.chunk_cap.clone(),
            chunk_off,
            block_size: acc,
            data_start: mb1.data_start,
        }
    }

    /// Number of local tasks.
    pub fn ntasks(&self) -> usize {
        self.cap.len()
    }

    /// File offset of the start of task `ltask`'s chunk in block `block`
    /// (including the rescue header, if any).
    pub fn chunk_start(&self, ltask: usize, block: u64) -> u64 {
        self.data_start + block * self.block_size + self.chunk_off[ltask]
    }

    /// File offset where task `ltask`'s *user data* starts in block `block`.
    pub fn data_offset(&self, ltask: usize, block: u64) -> u64 {
        self.chunk_start(ltask, block) + self.rescue_overhead
    }

    /// Bytes of user data one chunk of task `ltask` can hold.
    pub fn usable(&self, ltask: usize) -> u64 {
        self.cap[ltask] - self.rescue_overhead
    }

    /// Offset where metablock 2 goes when the file holds `nblocks` blocks.
    pub fn mb2_offset(&self, nblocks: u64) -> u64 {
        self.data_start + nblocks * self.block_size
    }

    /// Validate that `nblocks` blocks of this layout fit inside a file of
    /// `file_len` bytes without address-arithmetic overflow — the guard
    /// between untrusted metadata and the chunk address computations.
    pub fn validate_extent(&self, nblocks: u64, file_len: u64) -> Result<()> {
        let end = nblocks
            .checked_mul(self.block_size)
            .and_then(|v| v.checked_add(self.data_start))
            .ok_or_else(|| SionError::Format("block extent overflows address arithmetic".into()))?;
        if end > file_len {
            return Err(SionError::Format(format!(
                "metadata claims {nblocks} blocks ending at {end}, but the file has only \
                 {file_len} bytes"
            )));
        }
        Ok(())
    }

    /// Statistics on how many distinct tasks touch each *real* file-system
    /// block within one layout block — the contention the paper's Table 1
    /// quantifies. With proper alignment the maximum is 1; with chunks
    /// smaller than the real block size, many tasks share each block.
    pub fn block_sharing(&self, real_block: u64) -> SharingStats {
        assert!(real_block >= 1);
        let nblocks_fs = self.block_size.div_ceil(real_block).max(1);
        let mut sharers = vec![0u32; nblocks_fs as usize];
        for (t, &off) in self.chunk_off.iter().enumerate() {
            if self.cap[t] == 0 {
                continue;
            }
            let first = off / real_block;
            let last = (off + self.cap[t] - 1) / real_block;
            for b in first..=last {
                sharers[b as usize] += 1;
            }
        }
        let occupied: Vec<u32> = sharers.into_iter().filter(|&s| s > 0).collect();
        let max = occupied.iter().copied().max().unwrap_or(0);
        let mean = if occupied.is_empty() {
            0.0
        } else {
            occupied.iter().map(|&s| s as f64).sum::<f64>() / occupied.len() as f64
        };
        SharingStats {
            max_sharers: max,
            mean_sharers: mean,
        }
    }

    /// Whether a group boundary *before* local task `t` is FS-block clean:
    /// task `t`'s chunk starts exactly on a real FS-block boundary in
    /// **every** layout block, so writers on either side of the boundary
    /// can never touch the same FS block. This requires the block stride
    /// to preserve alignment (`block_size % fsblksize == 0`) on top of the
    /// chunk start being aligned in block 0.
    pub fn clean_boundary(&self, t: usize) -> bool {
        self.block_size.is_multiple_of(self.fsblksize)
            && (self.data_start + self.chunk_off[t]).is_multiple_of(self.fsblksize)
    }

    /// Aggregator election for two-phase collective writes: pack
    /// consecutive local tasks into neighborhoods of at least
    /// `tasks_per_aggregator`, placing boundaries only where they are
    /// [clean](Self::clean_boundary). Returns the first local task of each
    /// group, sorted, starting with 0 — that task is the group's
    /// aggregator. On a layout with no clean internal boundary (unaligned
    /// chunks), the whole file degenerates to one group: a single writer
    /// trivially never shares an FS block with another.
    pub fn aggregation_groups(&self, tasks_per_aggregator: usize) -> Vec<usize> {
        let target = tasks_per_aggregator.max(1);
        let mut starts = vec![0usize];
        let mut last = 0usize;
        for t in 1..self.ntasks() {
            if t - last >= target && self.clean_boundary(t) {
                starts.push(t);
                last = t;
            }
        }
        starts
    }

    /// The real FS-block indices (relative to the start of one layout
    /// block) that more than one task's chunk overlaps — the static
    /// prediction the runtime block-contention sanitizer
    /// (`vfs::BlockGuard`) must agree with when every task writes its
    /// full chunk. Sorted, deterministic.
    pub fn shared_fs_blocks(&self, real_block: u64) -> Vec<u64> {
        assert!(real_block >= 1);
        let nblocks_fs = self.block_size.div_ceil(real_block).max(1);
        let mut sharers = vec![0u32; nblocks_fs as usize];
        for (t, &off) in self.chunk_off.iter().enumerate() {
            if self.cap[t] == 0 {
                continue;
            }
            let first = off / real_block;
            let last = (off + self.cap[t] - 1) / real_block;
            for b in first..=last {
                sharers[b as usize] += 1;
            }
        }
        sharers
            .into_iter()
            .enumerate()
            .filter_map(|(b, s)| (s > 1).then_some(b as u64))
            .collect()
    }
}

/// Result of [`FileLayout::block_sharing`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SharingStats {
    /// Largest number of tasks whose chunks overlap one real FS block.
    pub max_sharers: u32,
    /// Mean over occupied FS blocks.
    pub mean_sharers: f64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn align_up_basics() {
        assert_eq!(align_up(0, 4), 0);
        assert_eq!(align_up(1, 4), 4);
        assert_eq!(align_up(4, 4), 4);
        assert_eq!(align_up(5, 4), 8);
        assert_eq!(align_up(7, 1), 7);
    }

    #[test]
    fn aligned_layout_rounds_capacities() {
        let l = FileLayout::compute(&[100, 4096, 5000], 4096, Alignment::FsBlock, false).unwrap();
        assert_eq!(l.cap, vec![4096, 4096, 8192]);
        assert_eq!(l.chunk_off, vec![0, 4096, 8192]);
        assert_eq!(l.block_size, 16384);
        assert_eq!(l.data_start % 4096, 0);
        assert!(l.data_start >= MetaBlock1::encoded_len(3));
    }

    #[test]
    fn unaligned_layout_packs_tightly() {
        let l = FileLayout::compute(&[100, 200, 300], 4096, Alignment::None, false).unwrap();
        assert_eq!(l.cap, vec![100, 200, 300]);
        assert_eq!(l.block_size, 600);
        assert_eq!(l.data_start, MetaBlock1::encoded_len(3));
    }

    #[test]
    fn fixed_alignment_unit() {
        let l = FileLayout::compute(&[1], 2 << 20, Alignment::Fixed(16 << 10), false).unwrap();
        assert_eq!(l.cap, vec![16 << 10]);
        assert_eq!(l.unit, 16 << 10);
    }

    #[test]
    fn rescue_overhead_is_added_before_alignment() {
        let l = FileLayout::compute(&[4096], 4096, Alignment::FsBlock, true).unwrap();
        // 4096 + 32 rounds up to two blocks.
        assert_eq!(l.cap, vec![8192]);
        assert_eq!(l.usable(0), 8192 - RESCUE_HEADER_LEN);
        assert_eq!(l.data_offset(0, 0), l.chunk_start(0, 0) + RESCUE_HEADER_LEN);
    }

    #[test]
    fn chunk_addresses_advance_by_block_size() {
        let l = FileLayout::compute(&[10, 20], 64, Alignment::FsBlock, false).unwrap();
        for t in 0..2 {
            for b in 0..5u64 {
                assert_eq!(l.chunk_start(t, b + 1) - l.chunk_start(t, b), l.block_size);
            }
        }
        assert_eq!(l.mb2_offset(3), l.data_start + 3 * l.block_size);
    }

    #[test]
    fn aligned_blocks_never_shared() {
        let l =
            FileLayout::compute(&[100, 5000, 12345, 1], 4096, Alignment::FsBlock, false).unwrap();
        let s = l.block_sharing(4096);
        assert_eq!(s.max_sharers, 1);
        assert_eq!(s.mean_sharers, 1.0);
    }

    #[test]
    fn misaligned_blocks_heavily_shared() {
        // Table 1 scenario in miniature: 16 KiB chunks on 2 MiB real blocks
        // means up to 128 tasks per block.
        let reqs = vec![16 << 10; 256];
        let l = FileLayout::compute(&reqs, 2 << 20, Alignment::Fixed(16 << 10), false).unwrap();
        let s = l.block_sharing(2 << 20);
        assert!(
            s.max_sharers >= 128,
            "expected heavy sharing, got {}",
            s.max_sharers
        );
    }

    #[test]
    fn aggregation_groups_follow_clean_boundaries() {
        // Fully aligned: every task boundary is clean, groups are exact.
        let l = FileLayout::compute(&[100; 8], 4096, Alignment::FsBlock, false).unwrap();
        assert_eq!(l.aggregation_groups(2), vec![0, 2, 4, 6]);
        assert_eq!(l.aggregation_groups(3), vec![0, 3, 6]);
        assert_eq!(l.aggregation_groups(100), vec![0]);
        // Unaligned: no clean internal boundary, one group for the file.
        let l = FileLayout::compute(&[100; 8], 4096, Alignment::None, false).unwrap();
        assert_eq!(l.aggregation_groups(2), vec![0]);
    }

    #[test]
    fn aggregation_groups_snap_to_fs_block_neighborhoods() {
        // Table 1 scenario: 16 KiB chunks on 2 MiB FS blocks. Boundaries
        // are clean only where a chunk starts a fresh 2 MiB block, so a
        // requested group of 4 snaps out to 128-task neighborhoods.
        let reqs = vec![16 << 10; 512];
        let l = FileLayout::compute(&reqs, 2 << 20, Alignment::Fixed(16 << 10), false).unwrap();
        let groups = l.aggregation_groups(4);
        assert!(groups.len() > 1, "clean boundaries exist in this layout");
        for &g in &groups[1..] {
            assert!(l.clean_boundary(g), "boundary before task {g} is clean");
        }
        // Interior boundaries are 128 tasks (one 2 MiB block) apart; only
        // the first group may be ragged (it absorbs the metadata offset).
        for w in groups[1..].windows(2) {
            assert_eq!((w[1] - w[0]) % 128, 0, "boundaries land on 2 MiB edges");
        }
    }

    #[test]
    fn zero_request_allowed_without_alignment() {
        let l = FileLayout::compute(&[0, 10], 4096, Alignment::None, false).unwrap();
        assert_eq!(l.cap[0], 0);
        assert_eq!(l.usable(0), 0);
        assert_eq!(l.chunk_off, vec![0, 0]);
    }

    #[test]
    fn empty_task_list_rejected() {
        assert!(FileLayout::compute(&[], 4096, Alignment::FsBlock, false).is_err());
        assert!(FileLayout::compute(&[1], 0, Alignment::FsBlock, false).is_err());
    }

    #[test]
    fn from_mb1_reconstructs_addresses() {
        let l = FileLayout::compute(&[100, 200, 3000], 512, Alignment::FsBlock, true).unwrap();
        let mb1 = MetaBlock1 {
            version: crate::format::VERSION,
            flags: SionFlags::ALIGNED | SionFlags::RESCUE,
            fsblksize: 512,
            ntasks_global: 3,
            nfiles: 1,
            filenum: 0,
            data_start: l.data_start,
            global_ranks: vec![0, 1, 2],
            chunksize_req: vec![100, 200, 3000],
            chunk_cap: l.cap.clone(),
        };
        let l2 = FileLayout::from_mb1(&mb1);
        assert_eq!(l2.cap, l.cap);
        assert_eq!(l2.chunk_off, l.chunk_off);
        assert_eq!(l2.block_size, l.block_size);
        assert_eq!(l2.data_start, l.data_start);
        assert_eq!(l2.rescue_overhead, l.rescue_overhead);
        for t in 0..3 {
            for b in 0..3 {
                assert_eq!(l2.chunk_start(t, b), l.chunk_start(t, b));
            }
        }
    }

    proptest! {
        /// Core invariants: chunks are disjoint, ordered, inside the block,
        /// capacities cover requests, and alignment holds.
        #[test]
        fn layout_invariants(
            reqs in prop::collection::vec(0u64..100_000, 1..64),
            blk in prop::sample::select(vec![1u64, 512, 4096, 65536]),
            align in prop::sample::select(vec![0usize, 1, 2]),
            rescue in any::<bool>(),
        ) {
            let alignment = match align {
                0 => Alignment::FsBlock,
                1 => Alignment::None,
                _ => Alignment::Fixed(1024),
            };
            let l = FileLayout::compute(&reqs, blk, alignment, rescue).unwrap();
            let unit = alignment.unit(blk);
            let overhead = if rescue { RESCUE_HEADER_LEN } else { 0 };
            let mut expect_off = 0u64;
            for (t, &req) in reqs.iter().enumerate() {
                prop_assert_eq!(l.chunk_off[t], expect_off);
                prop_assert!(l.cap[t] >= req + overhead);
                prop_assert!(l.cap[t] < req + overhead + unit); // minimal rounding
                prop_assert_eq!(l.cap[t] % unit, 0);
                prop_assert_eq!(l.usable(t), l.cap[t] - overhead);
                expect_off += l.cap[t];
            }
            prop_assert_eq!(l.block_size, expect_off);
            prop_assert_eq!(l.data_start % unit, 0);
            prop_assert!(l.data_start >= MetaBlock1::encoded_len(reqs.len()));
            // Chunks are disjoint and ordered: each ends where the next
            // begins, and the last chunk of block 0 ends where block 1
            // begins.
            for t in 0..reqs.len() {
                let end_t = l.chunk_start(t, 0) + l.cap[t];
                if t + 1 < reqs.len() {
                    prop_assert_eq!(end_t, l.chunk_start(t + 1, 0));
                } else {
                    prop_assert_eq!(end_t, l.chunk_start(0, 1));
                }
            }
        }

        /// With FS-block alignment, no real block is ever shared.
        #[test]
        fn aligned_implies_exclusive_blocks(
            reqs in prop::collection::vec(1u64..50_000, 1..48),
            blk in prop::sample::select(vec![512u64, 4096, 65536]),
        ) {
            let l = FileLayout::compute(&reqs, blk, Alignment::FsBlock, false).unwrap();
            prop_assert!(l.block_sharing(blk).max_sharers <= 1);
        }
    }
}
