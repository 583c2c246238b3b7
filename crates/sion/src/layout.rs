//! Chunk/block layout arithmetic (paper §3.1, Fig. 2).
//!
//! Everything here is a pure function of the open-time parameters, shared
//! by the parallel writer, the readers, the serial tools, *and* the timing
//! simulator's script generator — so the simulated access pattern can never
//! drift from what the library actually does.

use crate::error::{Result, SionError};
use crate::format::{MetaBlock1, SionFlags};
use crate::rescue::RESCUE_HEADER_LEN;
use crate::stream::ChunkGeom;

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

/// The checks every layout makes, and what they fix for all its chunks:
/// the alignment unit and the per-chunk rescue overhead.
fn layout_rules(
    ntasks: usize,
    fsblksize: u64,
    alignment: Alignment,
    rescue: bool,
) -> Result<(u64, u64)> {
    if ntasks == 0 {
        return Err(SionError::InvalidArg(
            "layout needs at least one task".into(),
        ));
    }
    if fsblksize == 0 {
        return Err(SionError::InvalidArg(
            "file-system block size must be positive".into(),
        ));
    }
    let rescue_overhead = if rescue { RESCUE_HEADER_LEN } else { 0 };
    Ok((alignment.unit(fsblksize), rescue_overhead))
}

/// One chunk's capacity: the request plus the rescue header, rounded up to
/// the unit.
fn chunk_cap(req: u64, unit: u64, rescue_overhead: u64) -> Result<u64> {
    req.checked_add(rescue_overhead)
        .and_then(|c| c.div_ceil(unit).checked_mul(unit))
        .ok_or_else(overflow)
}

/// Offset of block 0: metablock 1 of `ntasks` tasks, rounded up to the
/// unit.
fn data_start(ntasks: usize, unit: u64) -> Result<u64> {
    MetaBlock1::encoded_len(ntasks)
        .div_ceil(unit)
        .checked_mul(unit)
        .ok_or_else(overflow)
}

fn overflow() -> SionError {
    SionError::InvalidArg("block size overflows u64".into())
}

/// The complete chunk geometry of one physical file.
///
/// Equal chunk capacities are held as one `(ntasks, cap)` pair that answers
/// every question in O(1), for a uniform open's tasks and a uniform file's
/// readers alike; unequal ones as per-task offsets.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FileLayout {
    /// File-system block size used for alignment decisions.
    pub fsblksize: u64,
    /// Per-chunk rescue-header overhead (0 or [`RESCUE_HEADER_LEN`]).
    pub rescue_overhead: u64,
    caps: Caps,
    /// Total size of one block (sum of capacities).
    pub block_size: u64,
    /// Offset of block 0.
    pub data_start: u64,
}

/// The chunk capacities of a file's local tasks, including rescue overhead.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Caps {
    /// `n` chunks of `cap` bytes; task `t`'s starts `t·cap` into a block.
    Uniform { n: usize, cap: u64 },
    /// Where each task's chunk starts within a block, then the block's
    /// end: the prefix sums of the capacities.
    Ragged(Vec<u64>),
}

impl Caps {
    /// The capacities `caps` (at least one), held as one if all are equal.
    fn of(caps: &[u64]) -> Result<Caps> {
        let (n, cap) = (caps.len(), caps[0]);
        if caps.iter().any(|&c| c != cap) {
            return Caps::ragged(caps);
        }
        Ok(Caps::Uniform { n, cap })
    }

    /// The per-task form of the capacities `cap`, equal or not.
    fn ragged(cap: &[u64]) -> Result<Caps> {
        let mut off = vec![0u64];
        for &c in cap {
            off.push(off[off.len() - 1].checked_add(c).ok_or_else(overflow)?);
        }
        Ok(Caps::Ragged(off))
    }
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
        let (unit, overhead) = layout_rules(reqs.len(), fsblksize, alignment, rescue)?;
        let cap = reqs
            .iter()
            .map(|&req| chunk_cap(req, unit, overhead))
            .collect::<Result<Vec<u64>>>()?;
        let caps = Caps::of(&cap)?;
        FileLayout::new(caps, fsblksize, overhead, data_start(reqs.len(), unit)?)
    }

    /// [`compute`](Self::compute) of `n` requests of `req` bytes, in O(1):
    /// the layout every task of a uniform write open derives itself.
    pub(crate) fn uniform(
        n: usize,
        req: u64,
        fsblksize: u64,
        alignment: Alignment,
        rescue: bool,
    ) -> Result<FileLayout> {
        let (unit, overhead) = layout_rules(n, fsblksize, alignment, rescue)?;
        let cap = chunk_cap(req, unit, overhead)?;
        let caps = Caps::Uniform { n, cap };
        FileLayout::new(caps, fsblksize, overhead, data_start(n, unit)?)
    }

    /// Rebuild the layout of an existing file from its metablock 1, whose
    /// capacities are stored already aligned.
    pub fn from_mb1(mb1: &MetaBlock1) -> Result<FileLayout> {
        let rescue = mb1.flags.contains(SionFlags::RESCUE);
        let n = mb1.chunk_cap.len();
        let (_, overhead) = layout_rules(n, mb1.fsblksize, Alignment::None, rescue)?;
        let caps = Caps::of(&mb1.chunk_cap)?;
        FileLayout::new(caps, mb1.fsblksize, overhead, mb1.data_start)
    }

    /// The one constructor: `caps`' block size, with checked arithmetic.
    /// Every chunk holds at least one byte: a reader rejects a file with a
    /// zero capacity, so no writer may lay one out.
    fn new(caps: Caps, fsblksize: u64, rescue_overhead: u64, data_start: u64) -> Result<Self> {
        let (block_size, zero_cap) = match &caps {
            Caps::Uniform { n, cap } => {
                (cap.checked_mul(*n as u64).ok_or_else(overflow)?, *cap == 0)
            }
            Caps::Ragged(off) => (off[off.len() - 1], off.windows(2).any(|w| w[0] == w[1])),
        };
        if zero_cap {
            return Err(SionError::InvalidArg(
                "zero chunk capacity (a 0-byte chunk request)".into(),
            ));
        }
        // Block 0 ends inside `u64`: a one-block file's metablock 2 goes there.
        data_start.checked_add(block_size).ok_or_else(overflow)?;
        Ok(FileLayout {
            fsblksize,
            rescue_overhead,
            caps,
            block_size,
            data_start,
        })
    }

    /// Number of local tasks.
    pub fn ntasks(&self) -> usize {
        match &self.caps {
            Caps::Uniform { n, .. } => *n,
            Caps::Ragged(off) => off.len() - 1,
        }
    }

    /// Local task `ltask`'s chunk within a block: `(offset, capacity)`.
    fn chunk(&self, ltask: usize) -> (u64, u64) {
        match &self.caps {
            Caps::Uniform { n, cap } => {
                assert!(ltask < *n, "local task {ltask} of {n}");
                // At most `block_size`, which did not overflow.
                (ltask as u64 * cap, *cap)
            }
            Caps::Ragged(off) => (off[ltask], off[ltask + 1] - off[ltask]),
        }
    }

    /// Chunk capacity of local task `ltask`, including rescue overhead.
    pub(crate) fn cap(&self, ltask: usize) -> u64 {
        self.chunk(ltask).1
    }

    /// Local task `ltask`'s chunk geometry, what its stream engine needs.
    pub(crate) fn geom(&self, ltask: usize, global_rank: u64) -> ChunkGeom {
        let (chunk_off, cap) = self.chunk(ltask);
        ChunkGeom {
            data_start: self.data_start,
            block_size: self.block_size,
            chunk_off,
            cap,
            rescue_overhead: self.rescue_overhead,
            global_rank,
            fsblksize: self.fsblksize,
        }
    }

    /// File offset of the start of task `ltask`'s chunk in block `block`
    /// (including the rescue header, if any).
    pub fn chunk_start(&self, ltask: usize, block: u64) -> u64 {
        self.data_start + block * self.block_size + self.chunk(ltask).0
    }

    /// File offset where task `ltask`'s *user data* starts in block `block`.
    pub fn data_offset(&self, ltask: usize, block: u64) -> u64 {
        self.chunk_start(ltask, block) + self.rescue_overhead
    }

    /// Bytes of user data one chunk of task `ltask` can hold.
    pub fn usable(&self, ltask: usize) -> u64 {
        self.cap(ltask) - self.rescue_overhead
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

    /// How many tasks' chunks overlap each occupied *real* FS block of one
    /// layout block, run-length encoded as `(first FS block, FS blocks,
    /// sharers)` in block order: O(tasks), however large the chunks.
    fn sharers(&self, real_block: u64) -> Vec<(u64, u64, u32)> {
        assert!(real_block >= 1);
        let mut runs: Vec<(u64, u64, u32)> = Vec::new();
        for (off, cap) in (0..self.ntasks()).map(|t| self.chunk(t)) {
            let (mut first, last) = (off / real_block, (off + cap - 1) / real_block);
            // The FS block the previous chunk ended in may be this one's first.
            if let Some(run) = runs.last_mut().filter(|r| r.0 + r.1 - 1 == first) {
                let sharers = run.2 + 1;
                run.1 -= 1;
                if run.1 == 0 {
                    runs.pop();
                }
                runs.push((first, 1, sharers));
                first += 1;
            }
            if first <= last {
                runs.push((first, last - first + 1, 1));
            }
        }
        runs
    }

    /// Statistics on how many distinct tasks touch each *real* file-system
    /// block within one layout block — the contention the paper's Table 1
    /// quantifies. With proper alignment the maximum is 1; with chunks
    /// smaller than the real block size, many tasks share each block.
    pub fn block_sharing(&self, real_block: u64) -> SharingStats {
        let runs = self.sharers(real_block);
        let occupied: u128 = runs.iter().map(|r| r.1 as u128).sum();
        let touches: u128 = runs.iter().map(|r| r.1 as u128 * r.2 as u128).sum();
        SharingStats {
            max_sharers: runs.iter().map(|r| r.2).max().unwrap_or(0),
            mean_sharers: touches as f64 / occupied.max(1) as f64,
        }
    }

    /// The real FS-block indices (relative to the start of one layout
    /// block) that more than one task's chunk overlaps — the static
    /// prediction the runtime block-contention sanitizer
    /// (`vfs::BlockGuard`) must agree with when every task writes its
    /// full chunk. Sorted, deterministic.
    pub fn shared_fs_blocks(&self, real_block: u64) -> Vec<u64> {
        let runs = self.sharers(real_block);
        runs.iter().filter(|r| r.2 > 1).map(|r| r.0).collect()
    }

    /// Whether a group boundary *before* local task `t` is FS-block clean:
    /// task `t`'s chunk starts exactly on a real FS-block boundary in
    /// **every** layout block, so writers on either side of the boundary
    /// can never touch the same FS block. This requires the block stride
    /// to preserve alignment (`block_size % fsblksize == 0`) on top of the
    /// chunk start being aligned in block 0.
    pub fn clean_boundary(&self, t: usize) -> bool {
        self.block_size.is_multiple_of(self.fsblksize)
            && (self.data_start + self.chunk(t).0).is_multiple_of(self.fsblksize)
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

    /// Local task `ltask`'s aggregation neighbourhood `[aggregator, end)`:
    /// the group of [`aggregation_groups`](Self::aggregation_groups) that
    /// holds it — looked up in the list for per-task capacities, and
    /// without listing the groups for equal ones.
    ///
    /// With equal capacities the boundary before task `t` is clean when the
    /// block stride keeps FS-block alignment and `data_start + t·cap` is a
    /// multiple of the FS block `b` — for `t` in one residue class
    /// `t0 mod p`, `p = b / gcd(cap, b)`, or for no `t` at all. The greedy
    /// election then takes the first clean `t ≥ target` and every
    /// `⌈target / p⌉·p` tasks after it.
    pub(crate) fn aggregation_group(
        &self,
        ltask: usize,
        tasks_per_aggregator: usize,
    ) -> (usize, usize) {
        let Caps::Uniform { n, cap } = self.caps else {
            let starts = self.aggregation_groups(tasks_per_aggregator);
            return group_of(&starts, ltask, self.ntasks());
        };
        let (n, target) = (n as u128, tasks_per_aggregator.max(1) as u128);
        let b = self.fsblksize as u128;
        let clean = if self.block_size.is_multiple_of(self.fsblksize) {
            clean_residue(self.data_start as u128 % b, cap as u128 % b, b)
        } else {
            None
        };
        let Some((t0, p)) = clean else {
            return (0, n as usize);
        };
        let first = target + (t0 + p - target % p) % p;
        let step = target.div_ceil(p) * p;
        let t = ltask as u128;
        let (agg, end) = if first >= n {
            (0, n)
        } else if t < first {
            (0, first)
        } else {
            let agg = first + (t - first) / step * step;
            (agg, n.min(agg + step))
        };
        (agg as usize, end as usize)
    }
}

/// The group `[aggregator, end)` that holds local task `t` of `n`, given
/// the sorted first tasks of the groups
/// ([`FileLayout::aggregation_groups`]).
pub(crate) fn group_of(starts: &[usize], t: usize, n: usize) -> (usize, usize) {
    let gi = starts.partition_point(|&s| s <= t) - 1;
    (starts[gi], starts.get(gi + 1).copied().unwrap_or(n))
}

/// The `t ≥ 0` with `(d + t·c) mod b == 0`, for `d, c < b`: the residue
/// class `(t0, p)` of all of them, or `None` when there is none.
fn clean_residue(d: u128, c: u128, b: u128) -> Option<(u128, u128)> {
    // Extended Euclid on (c, b): g = gcd(c, b) = x·c + y·b.
    let (mut r0, mut r1, mut x0, mut x1) = (b as i128, c as i128, 0i128, 1i128);
    while r1 != 0 {
        let q = r0 / r1;
        (r0, r1) = (r1, r0 - q * r1);
        (x0, x1) = (x1, x0 - q * x1);
    }
    let (g, inv) = (r0 as u128, x0);
    let need = (b - d) % b;
    if !need.is_multiple_of(g) {
        return None;
    }
    let p = b / g;
    // `inv·c ≡ g (mod b)`, so `t0 = inv · need/g` solves `t0·c ≡ need`.
    let inv = inv.rem_euclid(p as i128) as u128;
    Some((inv * (need / g) % p, p))
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

    /// Every chunk of `l` as `(offset, capacity)`.
    fn chunks(l: &FileLayout) -> Vec<(u64, u64)> {
        (0..l.ntasks()).map(|t| l.chunk(t)).collect()
    }

    /// [`FileLayout::compute`] that keeps per-task capacities even where
    /// they are all equal: the other representation of the same requests.
    fn compute_ragged(
        reqs: &[u64],
        fsblksize: u64,
        alignment: Alignment,
        rescue: bool,
    ) -> Result<FileLayout> {
        let (unit, rescue_overhead) = layout_rules(reqs.len(), fsblksize, alignment, rescue)?;
        let cap = reqs
            .iter()
            .map(|&req| chunk_cap(req, unit, rescue_overhead))
            .collect::<Result<Vec<u64>>>()?;
        let data_start = data_start(reqs.len(), unit)?;
        FileLayout::new(Caps::ragged(&cap)?, fsblksize, rescue_overhead, data_start)
    }

    #[test]
    fn aligned_layout_rounds_capacities() {
        let l = FileLayout::compute(&[100, 4096, 5000], 4096, Alignment::FsBlock, false).unwrap();
        assert_eq!(chunks(&l), vec![(0, 4096), (4096, 4096), (8192, 8192)]);
        assert_eq!(l.block_size, 16384);
        assert_eq!(l.data_start % 4096, 0);
        assert!(l.data_start >= MetaBlock1::encoded_len(3));
    }

    #[test]
    fn unaligned_layout_packs_tightly() {
        let l = FileLayout::compute(&[100, 200, 300], 4096, Alignment::None, false).unwrap();
        assert_eq!(chunks(&l), vec![(0, 100), (100, 200), (300, 300)]);
        assert_eq!(l.block_size, 600);
        assert_eq!(l.data_start, MetaBlock1::encoded_len(3));
    }

    #[test]
    fn fixed_alignment_unit() {
        let l = FileLayout::compute(&[1], 2 << 20, Alignment::Fixed(16 << 10), false).unwrap();
        assert_eq!(l.cap(0), 16 << 10);
        assert_eq!(l.data_start, 16 << 10);
    }

    #[test]
    fn equal_capacities_are_held_as_one() {
        let l = FileLayout::compute(&[100, 4000, 4096], 4096, Alignment::FsBlock, false).unwrap();
        assert_eq!(l.caps, Caps::Uniform { n: 3, cap: 4096 });
        let l = FileLayout::compute(&[100, 4097], 4096, Alignment::FsBlock, false).unwrap();
        assert_eq!(l.caps, Caps::Ragged(vec![0, 4096, 12288]));
    }

    #[test]
    fn rescue_overhead_is_added_before_alignment() {
        let l = FileLayout::compute(&[4096], 4096, Alignment::FsBlock, true).unwrap();
        // 4096 + 32 rounds up to two blocks.
        assert_eq!(l.cap(0), 8192);
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
    fn sharers_count_every_task_in_an_fs_block() {
        // Chunks of 100, 300, 50, 50, 700 bytes on 256-byte FS blocks:
        // [0,100) [100,400) [400,450) [450,500) [500,1200).
        let l = FileLayout::compute(&[100, 300, 50, 50, 700], 256, Alignment::None, false).unwrap();
        // Block 0 holds tasks 0 and 1, block 1 tasks 1 to 4, blocks 2 to 3
        // task 4 only, block 4 task 4 alone.
        assert_eq!(l.sharers(256), vec![(0, 1, 2), (1, 1, 4), (2, 3, 1)]);
        assert_eq!(l.shared_fs_blocks(256), vec![0, 1]);
        let s = l.block_sharing(256);
        assert_eq!(s.max_sharers, 4);
        assert_eq!(s.mean_sharers, 9.0 / 5.0);
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
    fn zero_capacity_rejected() {
        for alignment in [Alignment::None, Alignment::FsBlock, Alignment::Fixed(512)] {
            let err = FileLayout::compute(&[0, 10], 4096, alignment, false).unwrap_err();
            assert!(err.to_string().contains("zero chunk capacity"), "{err}");
            assert!(FileLayout::uniform(2, 0, 4096, alignment, false).is_err());
        }
        // A rescue header alone fills a chunk: capacity, but nothing usable.
        let l = FileLayout::compute(&[0, 10], 4096, Alignment::None, true).unwrap();
        assert_eq!(l.cap(0), RESCUE_HEADER_LEN);
        assert_eq!(l.usable(0), 0);
    }

    #[test]
    fn empty_task_list_rejected() {
        assert!(FileLayout::compute(&[], 4096, Alignment::FsBlock, false).is_err());
        assert!(FileLayout::compute(&[1], 0, Alignment::FsBlock, false).is_err());
        assert!(FileLayout::uniform(0, 1, 4096, Alignment::FsBlock, false).is_err());
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
            chunk_cap: chunks(&l).into_iter().map(|(_, c)| c).collect(),
        };
        let l2 = FileLayout::from_mb1(&mb1).unwrap();
        assert_eq!(l2, l);
        for t in 0..3 {
            for b in 0..3 {
                assert_eq!(l2.chunk_start(t, b), l.chunk_start(t, b));
            }
        }
    }

    #[test]
    fn block_zero_must_end_inside_u64() {
        // One chunk of nearly `u64::MAX` bytes behind an 84-byte metablock
        // 1: the block fits `u64`, its end does not.
        let req = u64::MAX - 10;
        let err = FileLayout::compute(&[req], 4096, Alignment::None, false).unwrap_err();
        assert_eq!(err.to_string(), overflow().to_string());
        assert!(FileLayout::uniform(1, req, 4096, Alignment::None, false).is_err());
        let fits = u64::MAX - MetaBlock1::encoded_len(1);
        let l = FileLayout::compute(&[fits], 4096, Alignment::None, false).unwrap();
        assert_eq!(l.mb2_offset(1), u64::MAX);
    }

    #[test]
    fn from_mb1_rejects_capacities_that_overflow() {
        let mb1 = MetaBlock1 {
            version: crate::format::VERSION,
            flags: SionFlags::empty(),
            fsblksize: 512,
            ntasks_global: 2,
            nfiles: 1,
            filenum: 0,
            data_start: 4096,
            global_ranks: vec![0, 1],
            chunksize_req: vec![1, 1],
            chunk_cap: vec![u64::MAX, 1],
        };
        let err = FileLayout::from_mb1(&mb1).unwrap_err();
        assert_eq!(err.to_string(), overflow().to_string());
        let mb1 = MetaBlock1 {
            chunk_cap: vec![u64::MAX / 2 + 1; 2],
            ..mb1
        };
        assert!(FileLayout::from_mb1(&mb1).is_err());
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
            let Ok(l) = FileLayout::compute(&reqs, blk, alignment, rescue) else {
                // Only a 0-byte request without a rescue header has no room.
                prop_assert!(reqs.contains(&0) && !rescue);
                return Ok(());
            };
            let unit = alignment.unit(blk);
            let overhead = if rescue { RESCUE_HEADER_LEN } else { 0 };
            let mut expect_off = 0u64;
            for (t, &req) in reqs.iter().enumerate() {
                let (off, cap) = l.chunk(t);
                prop_assert_eq!(off, expect_off);
                prop_assert!(cap >= req + overhead);
                prop_assert!(cap < req + overhead + unit); // minimal rounding
                prop_assert_eq!(cap % unit, 0);
                prop_assert_eq!(l.usable(t), cap - overhead);
                expect_off += cap;
            }
            prop_assert_eq!(l.block_size, expect_off);
            prop_assert_eq!(l.data_start % unit, 0);
            prop_assert!(l.data_start >= MetaBlock1::encoded_len(reqs.len()));
            // Chunks are disjoint and ordered: each ends where the next
            // begins, and the last chunk of block 0 ends where block 1
            // begins.
            for t in 0..reqs.len() {
                let end_t = l.chunk_start(t, 0) + l.cap(t);
                if t + 1 < reqs.len() {
                    prop_assert_eq!(end_t, l.chunk_start(t + 1, 0));
                } else {
                    prop_assert_eq!(end_t, l.chunk_start(0, 1));
                }
            }
        }

        /// The run-length sharer histogram is the per-FS-block count of the
        /// chunks that overlap each block, over ragged requests.
        #[test]
        fn sharers_match_a_per_block_count(
            reqs in prop::collection::vec(0u64..5_000, 1..48),
            real in 1u64..3_000,
            align in 0usize..2,
        ) {
            let alignment = if align == 0 { Alignment::None } else { Alignment::Fixed(100) };
            let Ok(l) = FileLayout::compute(&reqs, 4096, alignment, false) else {
                prop_assert!(reqs.contains(&0));
                return Ok(());
            };
            let mut count = vec![0u32; l.block_size.div_ceil(real) as usize];
            for (off, cap) in chunks(&l).into_iter().filter(|&(_, c)| c > 0) {
                for b in off / real..=(off + cap - 1) / real {
                    count[b as usize] += 1;
                }
            }
            let expanded: Vec<u32> = l
                .sharers(real)
                .into_iter()
                .flat_map(|(_, len, s)| std::iter::repeat_n(s, len as usize))
                .collect();
            let runs = l.sharers(real);
            prop_assert!(runs.windows(2).all(|w| w[0].0 + w[0].1 <= w[1].0));
            let occupied: Vec<u32> = count.iter().copied().filter(|&s| s > 0).collect();
            prop_assert_eq!(expanded, occupied);
            let shared: Vec<u64> = (0u64..).zip(&count).filter(|(_, &s)| s > 1).map(|(b, _)| b).collect();
            prop_assert_eq!(l.shared_fs_blocks(real), shared);
        }

        /// Writer and reader hold the same layout: `from_mb1` of the
        /// metablock 1 that `create_file` writes equals the layout the
        /// writer laid the chunks out with, for equal and for ragged
        /// requests, every alignment, with and without rescue headers.
        #[test]
        fn from_mb1_of_the_written_head_is_the_writers_layout(
            reqs in prop::collection::vec(1u64..20_000, 1..24),
            uniform in any::<bool>(),
            align in 0usize..3,
            rescue in any::<bool>(),
        ) {
            use vfs::{MemFs, Vfs};
            let reqs = if uniform { vec![reqs[0]; reqs.len()] } else { reqs };
            let alignment = [Alignment::FsBlock, Alignment::None, Alignment::Fixed(1000)][align];
            let mut params = crate::SionParams::new(1).with_alignment(alignment);
            params.rescue = rescue;
            let fs = MemFs::with_block_size(512);
            let (written, _) = crate::serial::create_file(
                &fs, "l.sion", &params, params.flags(), 0, reqs.len(), &reqs,
            )
            .unwrap();
            let mb1 = MetaBlock1::read_from(fs.open("l.sion").unwrap().as_ref()).unwrap();
            let read = FileLayout::from_mb1(&mb1).unwrap();
            prop_assert_eq!(&read, &written);
            let held_as_one = matches!(read.caps, Caps::Uniform { .. });
            prop_assert!(held_as_one || !uniform);
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

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// One layout, two representations: `uniform` (and `compute`, which
        /// picks it for equal requests) holds `n` equal requests as one
        /// capacity, `compute_ragged` as per-task vectors. They answer every
        /// query alike — chunk addresses, geometry, block size and data
        /// start, the aggregation neighbourhood (the closed form against
        /// the greedy election), the shared FS blocks and the sharing
        /// statistics — and where either fails, both fail with the same
        /// error and without a panic: over FS blocks that are and are not
        /// powers of two, every alignment, rescue, and requests and units
        /// near `u64::MAX`.
        #[test]
        fn both_representations_answer_alike(
            n in prop_oneof![1usize..17, 1usize..4097],
            req in prop_oneof![
                0u64..100_000,
                u64::MAX / 32..u64::MAX,
                prop::sample::select(vec![u64::MAX, u64::MAX - 31, u64::MAX - 32]),
            ],
            blk in prop_oneof![
                1u64..65,
                1u64..70_001,
                prop::sample::select(vec![512u64, 4096, 2 << 20]),
            ],
            align in 0usize..3,
            fixed in prop_oneof![1u64..20_001, u64::MAX / 4..u64::MAX],
            rescue in any::<bool>(),
            k in 1usize..65,
            real in prop_oneof![Just(0u64), 1u64..70_001],
        ) {
            let alignment = match align {
                0 => Alignment::FsBlock,
                1 => Alignment::None,
                _ => Alignment::Fixed(fixed),
            };
            let reqs = vec![req; n];
            let uniform = FileLayout::uniform(n, req, blk, alignment, rescue);
            let ragged = compute_ragged(&reqs, blk, alignment, rescue);
            let picked = FileLayout::compute(&reqs, blk, alignment, rescue);
            let (u, r) = match (uniform, ragged) {
                (Ok(u), Ok(r)) => (u, r),
                (u, r) => {
                    let err = |l: Result<FileLayout>| l.map_err(|e| e.to_string()).err();
                    let (eu, er) = (err(u), err(r));
                    prop_assert!(eu.is_some() && eu == er, "{:?} / {:?}", eu, er);
                    prop_assert_eq!(err(picked), eu);
                    return Ok(());
                }
            };
            let forms = (&u.caps, &r.caps);
            prop_assert!(matches!(forms, (Caps::Uniform { .. }, Caps::Ragged(_))), "{:?}", forms);
            prop_assert_eq!(picked.unwrap(), u.clone());
            prop_assert_eq!(
                (u.ntasks(), u.block_size, u.data_start),
                (r.ntasks(), r.block_size, r.data_start)
            );
            let starts = r.aggregation_groups(k);
            for t in 0..n {
                prop_assert_eq!(u.geom(t, 7), r.geom(t, 7));
                prop_assert_eq!(u.usable(t), r.usable(t));
                prop_assert_eq!(u.chunk_start(t, 0), r.chunk_start(t, 0));
                prop_assert_eq!(u.data_offset(t, 0), r.data_offset(t, 0));
                let group = group_of(&starts, t, n);
                prop_assert_eq!(u.aggregation_group(t, k), group, "task {}", t);
                // O(n) a call on the per-task form: a sample of the tasks.
                if t % 64 == 0 || t + 1 == n {
                    prop_assert_eq!(r.aggregation_group(t, k), group, "task {}", t);
                }
            }
            prop_assert_eq!(u.aggregation_groups(k), starts);
            let real = if real == 0 { blk } else { real };
            prop_assert_eq!(u.shared_fs_blocks(real), r.shared_fs_blocks(real));
            prop_assert_eq!(u.block_sharing(real), r.block_sharing(real));
        }
    }
}
