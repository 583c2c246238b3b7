//! On-disk multifile format (paper §3.1, Fig. 2).
//!
//! Each physical file of a multifile is laid out as
//!
//! ```text
//! +------------+---------+     +---------+------------+-------------+---------+
//! | metablock1 | block 0 | ... | block B | metablock2 | chunk index | trailer |
//! +------------+---------+     +---------+------------+-------------+---------+
//! ```
//!
//! * **Metablock 1** — written by the master task at collective open:
//!   identity, flags, FS block size, global/local task counts, per-task
//!   global ranks, requested chunk sizes and (aligned) chunk capacities,
//!   and the offset of block 0.
//! * **Blocks** — each block holds one chunk per local task, at fixed
//!   offsets (`layout` module). A task that exhausts its chunk continues in
//!   the equally-sized chunk of the next block; untouched chunks remain
//!   file-system holes.
//! * **Metablock 2** — written at collective close: number of blocks and
//!   the bytes actually used in every (block, task) chunk, row-major
//!   `[block][task]`.
//! * **Chunk index** ([`ChunkIndex`], v2 closes) — the task-major transpose
//!   of metablock 2 as inclusive per-block prefix sums, so a lazy serial
//!   open fetches one task's complete seek index with a single contiguous
//!   read and resolves logical positions by binary search. Redundant with
//!   metablock 2: a torn or corrupt index degrades to the linear path.
//! * **Trailer** ([`Trailer`]) — fixed-size pointer to metablock 2 (and,
//!   since v2, the chunk index); the last 8 bytes dispatch the trailer
//!   version, so pre-index files keep decoding unchanged.
//!
//! All integers are little-endian. Arrays are stored contiguously.

use crate::error::{Result, SionError};
use std::ops::{BitOr, BitOrAssign};
use vfs::{IoSlice, VfsFile};

/// Magic at offset 0 of every physical file.
pub const MAGIC1: [u8; 8] = *b"RSIONv1\0";
/// Magic prefixing metablock 2.
pub const MAGIC2: [u8; 8] = *b"RSIONMB2";
/// Magic terminating the 24-byte v1 trailer (last 8 bytes of the file).
pub const MAGIC_EOF: [u8; 8] = *b"RSIONEOF";
/// Magic terminating the 40-byte v2 trailer, which additionally locates
/// the per-task chunk-index record.
pub const MAGIC_EOF2: [u8; 8] = *b"RSIONEO2";
/// Magic prefixing the per-task chunk-index record (v2 closes).
pub const MAGIC_IDX: [u8; 8] = *b"RSIONIDX";
/// Current format version.
pub const VERSION: u32 = 1;

/// Upper bound on task counts accepted from on-disk metadata — a sanity
/// limit against corrupted headers demanding absurd allocations (the paper
/// scales to 64 Ki tasks; this allows three orders of magnitude more).
pub const MAX_TASKS: u64 = 1 << 26;

/// Fixed-size portion of metablock 1, preceding the per-task arrays.
pub const MB1_FIXED_LEN: u64 = 8 + 4 + 8 + 8 + 8 + 4 + 4 + 8 + 8;
/// Fixed-size portion of metablock 2, preceding the usage matrix.
pub const MB2_FIXED_LEN: u64 = 8 + 8 + 8;
/// v1 trailer length: metablock-2 offset + length + magic.
pub const TRAILER_LEN: u64 = 8 + 8 + 8;
/// v2 trailer length: metablock-2 offset + length, index offset + length,
/// magic.
pub const TRAILER2_LEN: u64 = 8 + 8 + 8 + 8 + 8;
/// Fixed-size portion of the chunk-index record, preceding the prefix sums.
pub const IDX_FIXED_LEN: u64 = 8 + 8 + 8;

/// Feature flags stored in metablock 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SionFlags(u64);

impl SionFlags {
    /// Chunks are aligned to file-system block boundaries (Fig. 2(c)).
    pub const ALIGNED: SionFlags = SionFlags(1);
    /// Logical streams are szip-compressed (extension, paper §6).
    pub const COMPRESSED: SionFlags = SionFlags(2);
    /// Chunks carry rescue headers (extension, paper §6).
    pub const RESCUE: SionFlags = SionFlags(4);

    /// No flags set.
    pub fn empty() -> Self {
        SionFlags(0)
    }

    /// Whether every flag in `other` is set in `self`.
    pub fn contains(self, other: SionFlags) -> bool {
        self.0 & other.0 == other.0
    }

    /// Raw bit representation.
    pub fn bits(self) -> u64 {
        self.0
    }

    /// Rebuild from raw bits, rejecting unknown flags.
    pub fn from_bits(bits: u64) -> Result<Self> {
        if bits & !0b111 != 0 {
            return Err(SionError::Format(format!("unknown flag bits {bits:#x}")));
        }
        Ok(SionFlags(bits))
    }
}

impl BitOr for SionFlags {
    type Output = SionFlags;
    fn bitor(self, rhs: SionFlags) -> SionFlags {
        SionFlags(self.0 | rhs.0)
    }
}

impl BitOrAssign for SionFlags {
    fn bitor_assign(&mut self, rhs: SionFlags) {
        self.0 |= rhs.0;
    }
}

/// Metablock 1: layout metadata written once at collective open.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetaBlock1 {
    /// Format version (currently [`VERSION`]).
    pub version: u32,
    /// Feature flags.
    pub flags: SionFlags,
    /// File-system block size the layout was aligned to.
    pub fsblksize: u64,
    /// Total number of tasks across all physical files of the multifile.
    pub ntasks_global: u64,
    /// Number of physical files in the multifile.
    pub nfiles: u32,
    /// Index of this physical file within the multifile.
    pub filenum: u32,
    /// Offset of block 0 (end of metablock 1, aligned if `ALIGNED`).
    pub data_start: u64,
    /// Global rank of each local task (length = local task count).
    pub global_ranks: Vec<u64>,
    /// Requested chunk size per local task.
    pub chunksize_req: Vec<u64>,
    /// Chunk capacity per local task (request plus rescue overhead, rounded
    /// up to the alignment).
    pub chunk_cap: Vec<u64>,
}

impl MetaBlock1 {
    /// Number of tasks stored in this physical file.
    pub fn ntasks_local(&self) -> usize {
        self.global_ranks.len()
    }

    /// Encoded size of a metablock 1 for `ntasks_local` tasks.
    pub fn encoded_len(ntasks_local: usize) -> u64 {
        MB1_FIXED_LEN + 3 * 8 * ntasks_local as u64
    }

    /// Serialize to bytes.
    pub fn encode(&self) -> Vec<u8> {
        let n = self.ntasks_local();
        assert_eq!(self.chunksize_req.len(), n, "array lengths must agree");
        assert_eq!(self.chunk_cap.len(), n, "array lengths must agree");
        let mut out = Vec::with_capacity(Self::encoded_len(n) as usize);
        out.extend_from_slice(&MAGIC1);
        out.extend_from_slice(&self.version.to_le_bytes());
        out.extend_from_slice(&self.flags.bits().to_le_bytes());
        out.extend_from_slice(&self.fsblksize.to_le_bytes());
        out.extend_from_slice(&self.ntasks_global.to_le_bytes());
        out.extend_from_slice(&self.nfiles.to_le_bytes());
        out.extend_from_slice(&self.filenum.to_le_bytes());
        out.extend_from_slice(&(n as u64).to_le_bytes());
        out.extend_from_slice(&self.data_start.to_le_bytes());
        for arr in [&self.global_ranks, &self.chunksize_req, &self.chunk_cap] {
            for v in arr.iter() {
                out.extend_from_slice(&v.to_le_bytes());
            }
        }
        debug_assert_eq!(out.len() as u64, Self::encoded_len(n));
        out
    }

    /// Read and validate a metablock 1 from the start of `file`.
    pub fn read_from(file: &dyn VfsFile) -> Result<Self> {
        let mut fixed = [0u8; MB1_FIXED_LEN as usize];
        file.read_exact_at(&mut fixed, 0)
            .map_err(|_| SionError::Format("file too short for metablock 1".into()))?;
        if fixed[0..8] != MAGIC1 {
            return Err(SionError::Format("bad magic (not a sion multifile)".into()));
        }
        let version = u32::from_le_bytes(fixed[8..12].try_into().unwrap());
        if version != VERSION {
            return Err(SionError::Format(format!("unsupported version {version}")));
        }
        let flags = SionFlags::from_bits(u64::from_le_bytes(fixed[12..20].try_into().unwrap()))?;
        let fsblksize = u64::from_le_bytes(fixed[20..28].try_into().unwrap());
        let ntasks_global = u64::from_le_bytes(fixed[28..36].try_into().unwrap());
        let nfiles = u32::from_le_bytes(fixed[36..40].try_into().unwrap());
        let filenum = u32::from_le_bytes(fixed[40..44].try_into().unwrap());
        let ntasks_local = u64::from_le_bytes(fixed[44..52].try_into().unwrap());
        let data_start = u64::from_le_bytes(fixed[52..60].try_into().unwrap());
        if fsblksize == 0 {
            return Err(SionError::Format("zero file-system block size".into()));
        }
        if ntasks_local == 0 || ntasks_local > ntasks_global {
            return Err(SionError::Format(format!(
                "implausible local task count {ntasks_local} (global {ntasks_global})"
            )));
        }
        if ntasks_global > MAX_TASKS {
            return Err(SionError::Format(format!(
                "task count {ntasks_global} exceeds the sanity limit"
            )));
        }
        // The per-task arrays must physically fit in the file before we
        // allocate buffers for them.
        let file_len = file.len()?;
        if Self::encoded_len(ntasks_local as usize) > file_len {
            return Err(SionError::Format(
                "metablock 1 arrays extend past the end of the file".into(),
            ));
        }
        if filenum >= nfiles {
            return Err(SionError::Format(format!("file number {filenum} >= nfiles {nfiles}")));
        }
        let n = ntasks_local as usize;
        let mut arrays = vec![0u8; 3 * 8 * n];
        file.read_exact_at(&mut arrays, MB1_FIXED_LEN)
            .map_err(|_| SionError::Format("file too short for metablock 1 arrays".into()))?;
        let take = |i: usize| -> Vec<u64> {
            arrays[i * 8 * n..(i + 1) * 8 * n]
                .chunks_exact(8)
                .map(|c| u64::from_le_bytes(c.try_into().unwrap()))
                .collect()
        };
        let mb1 = MetaBlock1 {
            version,
            flags,
            fsblksize,
            ntasks_global,
            nfiles,
            filenum,
            data_start,
            global_ranks: take(0),
            chunksize_req: take(1),
            chunk_cap: take(2),
        };
        if mb1.data_start < Self::encoded_len(n) {
            return Err(SionError::Format("data start overlaps metablock 1".into()));
        }
        if mb1.chunk_cap.contains(&0) {
            return Err(SionError::Format("zero chunk capacity".into()));
        }
        // Capacities must sum without overflow (the block size) — corrupted
        // headers must not push later address arithmetic past u64.
        let mut block_size: u64 = 0;
        for &c in &mb1.chunk_cap {
            block_size = block_size
                .checked_add(c)
                .ok_or_else(|| SionError::Format("chunk capacities overflow".into()))?;
        }
        if block_size > (1 << 56) {
            return Err(SionError::Format("block size exceeds the sanity limit".into()));
        }
        if mb1.data_start > (1 << 56) {
            return Err(SionError::Format("data start exceeds the sanity limit".into()));
        }
        Ok(mb1)
    }
}

/// Metablock 2: usage metadata written once at collective close.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetaBlock2 {
    /// Number of blocks present in the file (0 if nothing was written).
    pub nblocks: u64,
    /// Bytes of user data in each chunk, row-major `[block][local task]`.
    pub used: Vec<u64>,
}

impl MetaBlock2 {
    /// Bytes used by task `ltask` in block `b`.
    pub fn used_in(&self, b: u64, ltask: usize, ntasks_local: usize) -> u64 {
        self.used[b as usize * ntasks_local + ltask]
    }

    /// Per-block usage vector for one local task.
    pub fn task_usage(&self, ltask: usize, ntasks_local: usize) -> Vec<u64> {
        (0..self.nblocks).map(|b| self.used_in(b, ltask, ntasks_local)).collect()
    }

    /// Serialize to bytes (including the local task count for validation).
    pub fn encode(&self, ntasks_local: usize) -> Vec<u8> {
        assert_eq!(self.used.len() as u64, self.nblocks * ntasks_local as u64);
        let mut out =
            Vec::with_capacity(MB2_FIXED_LEN as usize + 8 * self.used.len());
        out.extend_from_slice(&MAGIC2);
        out.extend_from_slice(&self.nblocks.to_le_bytes());
        out.extend_from_slice(&(ntasks_local as u64).to_le_bytes());
        for v in &self.used {
            out.extend_from_slice(&v.to_le_bytes());
        }
        out
    }

    /// Decode from bytes, validating against the expected task count.
    pub fn decode(bytes: &[u8], expect_ntasks_local: usize) -> Result<Self> {
        if bytes.len() < MB2_FIXED_LEN as usize {
            return Err(SionError::Format("metablock 2 too short".into()));
        }
        if bytes[0..8] != MAGIC2 {
            return Err(SionError::Format("bad metablock 2 magic".into()));
        }
        let nblocks = u64::from_le_bytes(bytes[8..16].try_into().unwrap());
        let ntasks = u64::from_le_bytes(bytes[16..24].try_into().unwrap());
        if nblocks > (1 << 32) {
            return Err(SionError::Format(format!(
                "block count {nblocks} exceeds the sanity limit"
            )));
        }
        if ntasks != expect_ntasks_local as u64 {
            return Err(SionError::Format(format!(
                "metablock 2 task count {ntasks} != metablock 1 task count {expect_ntasks_local}"
            )));
        }
        let want = nblocks
            .checked_mul(ntasks)
            .and_then(|c| c.checked_mul(8))
            .ok_or_else(|| SionError::Format("metablock 2 size overflow".into()))?;
        if bytes.len() as u64 != MB2_FIXED_LEN + want {
            return Err(SionError::Format("metablock 2 length mismatch".into()));
        }
        let used = bytes[MB2_FIXED_LEN as usize..]
            .chunks_exact(8)
            .map(|c| u64::from_le_bytes(c.try_into().unwrap()))
            .collect();
        Ok(MetaBlock2 { nblocks, used })
    }

    /// Read a metablock 2 via the trailer at the end of `file` (either
    /// trailer version).
    pub fn read_from(file: &dyn VfsFile, ntasks_local: usize) -> Result<Self> {
        let trailer = Trailer::read_from(file)?;
        Self::read_at(file, &trailer, ntasks_local)
    }

    /// Read a metablock 2 at the position an already-read trailer names.
    pub fn read_at(file: &dyn VfsFile, trailer: &Trailer, ntasks_local: usize) -> Result<Self> {
        let mut bytes = vec![0u8; trailer.mb2_len as usize];
        file.read_exact_at(&mut bytes, trailer.mb2_off)?;
        Self::decode(&bytes, ntasks_local)
    }

    /// Read only the fixed header of metablock 2 (magic, block count, task
    /// count) without materializing the usage matrix — the cheap open path.
    /// Validates the task count and that the trailer's length matches the
    /// matrix the header claims.
    pub fn read_header(
        file: &dyn VfsFile,
        trailer: &Trailer,
        expect_ntasks_local: usize,
    ) -> Result<u64> {
        let mut fixed = [0u8; MB2_FIXED_LEN as usize];
        file.read_exact_at(&mut fixed, trailer.mb2_off)
            .map_err(|_| SionError::Format("file too short for metablock 2".into()))?;
        if fixed[0..8] != MAGIC2 {
            return Err(SionError::Format("bad metablock 2 magic".into()));
        }
        let nblocks = u64::from_le_bytes(fixed[8..16].try_into().unwrap());
        let ntasks = u64::from_le_bytes(fixed[16..24].try_into().unwrap());
        if nblocks > (1 << 32) {
            return Err(SionError::Format(format!(
                "block count {nblocks} exceeds the sanity limit"
            )));
        }
        if ntasks != expect_ntasks_local as u64 {
            return Err(SionError::Format(format!(
                "metablock 2 task count {ntasks} != metablock 1 task count {expect_ntasks_local}"
            )));
        }
        let want = nblocks
            .checked_mul(ntasks)
            .and_then(|c| c.checked_mul(8))
            .and_then(|c| c.checked_add(MB2_FIXED_LEN))
            .ok_or_else(|| SionError::Format("metablock 2 size overflow".into()))?;
        if trailer.mb2_len != want {
            return Err(SionError::Format("metablock 2 length mismatch".into()));
        }
        Ok(nblocks)
    }

    /// Write the metablock and a **v1** (index-less) trailer at `offset`,
    /// finishing the file. Production closes go through
    /// [`write_close_metadata`]; this survives for unit tests and for
    /// constructing pre-index images (compat fixtures).
    pub fn write_to(&self, file: &dyn VfsFile, offset: u64, ntasks_local: usize) -> Result<()> {
        let body = self.encode(ntasks_local);
        let mut tail = Vec::with_capacity(body.len() + TRAILER_LEN as usize);
        tail.extend_from_slice(&body);
        tail.extend_from_slice(&offset.to_le_bytes());
        tail.extend_from_slice(&(body.len() as u64).to_le_bytes());
        tail.extend_from_slice(&MAGIC_EOF);
        file.write_all_at(&tail, offset)?;
        // Make the trailer the authoritative end of file even if earlier
        // sparse writes extended it further (they cannot: chunks precede
        // the metablock), and drop any stale bytes from a previous longer
        // close when rewriting in place.
        file.set_len(offset + body.len() as u64 + TRAILER_LEN)?;
        Ok(())
    }
}

/// Decoded end-of-file trailer: where metablock 2 lives, and — for files
/// closed by an index-writing (v2) close — where the per-task chunk-index
/// record lives.
///
/// The last 8 bytes of the file dispatch the version: [`MAGIC_EOF`] names
/// the original 24-byte trailer (`[mb2_off, mb2_len, magic]`),
/// [`MAGIC_EOF2`] the 40-byte trailer
/// (`[mb2_off, mb2_len, idx_off, idx_len, magic]`). Both versions keep the
/// full metablock 2, so every v2 file also decodes down the v1 path — the
/// index is a redundant, read-optimized transpose, not the only truth.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Trailer {
    /// Offset of metablock 2.
    pub mb2_off: u64,
    /// Encoded length of metablock 2.
    pub mb2_len: u64,
    /// `(offset, length)` of the chunk-index record, when present.
    pub index: Option<(u64, u64)>,
}

impl Trailer {
    /// Read and validate the trailer at the end of `file`.
    pub fn read_from(file: &dyn VfsFile) -> Result<Trailer> {
        let len = file.len()?;
        if len < TRAILER_LEN {
            return Err(SionError::Format("file too short for trailer".into()));
        }
        let mut tr = [0u8; TRAILER_LEN as usize];
        file.read_exact_at(&mut tr, len - TRAILER_LEN)?;
        if tr[16..24] == MAGIC_EOF {
            let mb2_off = u64::from_le_bytes(tr[0..8].try_into().unwrap());
            let mb2_len = u64::from_le_bytes(tr[8..16].try_into().unwrap());
            let end = mb2_off
                .checked_add(mb2_len)
                .and_then(|v| v.checked_add(TRAILER_LEN))
                .ok_or_else(|| SionError::Format("trailer offsets overflow".into()))?;
            if end != len {
                return Err(SionError::Format("trailer does not point at metablock 2".into()));
            }
            return Ok(Trailer { mb2_off, mb2_len, index: None });
        }
        if tr[16..24] == MAGIC_EOF2 {
            if len < TRAILER2_LEN {
                return Err(SionError::Format("file too short for v2 trailer".into()));
            }
            let mut tr = [0u8; TRAILER2_LEN as usize];
            file.read_exact_at(&mut tr, len - TRAILER2_LEN)?;
            let word = |i: usize| u64::from_le_bytes(tr[i * 8..i * 8 + 8].try_into().unwrap());
            let (mb2_off, mb2_len, idx_off, idx_len) = (word(0), word(1), word(2), word(3));
            // The index record sits immediately after metablock 2 and the
            // trailer immediately after the index; both seams must be exact
            // or the tail is torn.
            if mb2_off.checked_add(mb2_len) != Some(idx_off) {
                return Err(SionError::Format(
                    "v2 trailer: index does not follow metablock 2".into(),
                ));
            }
            let end = idx_off
                .checked_add(idx_len)
                .and_then(|v| v.checked_add(TRAILER2_LEN))
                .ok_or_else(|| SionError::Format("trailer offsets overflow".into()))?;
            if end != len {
                return Err(SionError::Format("v2 trailer does not point at the file tail".into()));
            }
            return Ok(Trailer { mb2_off, mb2_len, index: Some((idx_off, idx_len)) });
        }
        Err(SionError::Format("missing end-of-file trailer (file not closed?)".into()))
    }
}

/// Per-task chunk index: the read-optimized transpose of metablock 2,
/// written by v2 closes immediately after it.
///
/// Layout: `MAGIC_IDX | nblocks | ntasks_local |` then, **task-major**, the
/// inclusive per-block prefix sums of each local task's `used` bytes
/// (`nblocks` little-endian `u64` per task). Task-major order makes one
/// task's whole seek index a single contiguous read of `8·nblocks` bytes,
/// and the prefix sums make `seek(rank, logical_pos)` a binary search.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChunkIndex {
    /// Number of blocks in the file (mirror of `MetaBlock2::nblocks`).
    pub nblocks: u64,
    /// Inclusive prefix sums, task-major: entry `t * nblocks + b` is the
    /// total bytes task `t` stored in blocks `0..=b`.
    pub cum: Vec<u64>,
}

impl ChunkIndex {
    /// Encoded size of an index for `nblocks` blocks and `n` local tasks.
    pub fn encoded_len(nblocks: u64, ntasks_local: usize) -> u64 {
        IDX_FIXED_LEN + 8 * nblocks * ntasks_local as u64
    }

    /// Build the index from a decoded metablock 2 (transpose + prefix sum).
    pub fn from_mb2(mb2: &MetaBlock2, ntasks_local: usize) -> ChunkIndex {
        let nblocks = mb2.nblocks;
        let mut cum = Vec::with_capacity((nblocks as usize) * ntasks_local);
        for t in 0..ntasks_local {
            let mut acc = 0u64;
            for b in 0..nblocks {
                acc += mb2.used_in(b, t, ntasks_local);
                cum.push(acc);
            }
        }
        ChunkIndex { nblocks, cum }
    }

    /// Serialize header + prefix sums.
    pub fn encode(&self, ntasks_local: usize) -> Vec<u8> {
        assert_eq!(self.cum.len() as u64, self.nblocks * ntasks_local as u64);
        let mut out = Vec::with_capacity(Self::encoded_len(self.nblocks, ntasks_local) as usize);
        out.extend_from_slice(&MAGIC_IDX);
        out.extend_from_slice(&self.nblocks.to_le_bytes());
        out.extend_from_slice(&(ntasks_local as u64).to_le_bytes());
        for v in &self.cum {
            out.extend_from_slice(&v.to_le_bytes());
        }
        out
    }

    /// Validate the index record a trailer points at against the file's
    /// metablock geometry. Returns an error when the record is torn or
    /// disagrees — callers then fall back to the linear metablock-2 path.
    pub fn validate_header(
        file: &dyn VfsFile,
        idx: (u64, u64),
        nblocks: u64,
        ntasks_local: usize,
    ) -> Result<()> {
        let (idx_off, idx_len) = idx;
        if idx_len != Self::encoded_len(nblocks, ntasks_local) {
            return Err(SionError::Format("chunk index length mismatch".into()));
        }
        let mut fixed = [0u8; IDX_FIXED_LEN as usize];
        file.read_exact_at(&mut fixed, idx_off)
            .map_err(|_| SionError::Format("file too short for chunk index".into()))?;
        if fixed[0..8] != MAGIC_IDX {
            return Err(SionError::Format("bad chunk index magic".into()));
        }
        let idx_nblocks = u64::from_le_bytes(fixed[8..16].try_into().unwrap());
        let idx_ntasks = u64::from_le_bytes(fixed[16..24].try_into().unwrap());
        if idx_nblocks != nblocks || idx_ntasks != ntasks_local as u64 {
            return Err(SionError::Format(format!(
                "chunk index header ({idx_nblocks} blocks, {idx_ntasks} tasks) disagrees with \
                 metablock 2 ({nblocks} blocks, {ntasks_local} tasks)"
            )));
        }
        Ok(())
    }

    /// Read one task's inclusive prefix sums — a single contiguous
    /// `8·nblocks`-byte read at a computed offset; this is the whole
    /// per-rank metadata fetch of a lazy open.
    pub fn read_task_cum(
        file: &dyn VfsFile,
        idx_off: u64,
        nblocks: u64,
        ltask: usize,
    ) -> Result<Vec<u64>> {
        let mut bytes = vec![0u8; nblocks as usize * 8];
        let off = idx_off + IDX_FIXED_LEN + 8 * nblocks * ltask as u64;
        file.read_exact_at(&mut bytes, off)
            .map_err(|_| SionError::Format("file too short for chunk index slice".into()))?;
        Ok(bytes
            .chunks_exact(8)
            .map(|c| u64::from_le_bytes(c.try_into().unwrap()))
            .collect())
    }
}

/// Write the complete close-time metadata tail — metablock 2, its chunk
/// index, and the v2 trailer — as **one** vectored submission at `offset`
/// (`[body, index, trailer]` slices, no concatenation copy), then truncate
/// the file there.
///
/// Every writer of finished files (serial close, collective close, rescue
/// repair) goes through this function, so a forced repair of a cleanly
/// closed file reproduces it byte for byte. The iovec's in-order prefix
/// guarantee keeps the crash model of the v1 close: the trailer is the
/// last slice, so a torn tail — whether cut mid-slice or between slices —
/// has no valid trailer and the file stays in the "never closed" state
/// that repair handles.
pub fn write_close_metadata(
    file: &dyn VfsFile,
    offset: u64,
    mb2: &MetaBlock2,
    ntasks_local: usize,
) -> Result<()> {
    let body = mb2.encode(ntasks_local);
    let index = ChunkIndex::from_mb2(mb2, ntasks_local).encode(ntasks_local);
    let idx_off = offset + body.len() as u64;
    let mut trailer = Vec::with_capacity(TRAILER2_LEN as usize);
    trailer.extend_from_slice(&offset.to_le_bytes());
    trailer.extend_from_slice(&(body.len() as u64).to_le_bytes());
    trailer.extend_from_slice(&idx_off.to_le_bytes());
    trailer.extend_from_slice(&(index.len() as u64).to_le_bytes());
    trailer.extend_from_slice(&MAGIC_EOF2);
    let total = body.len() as u64 + index.len() as u64 + TRAILER2_LEN;
    file.write_vectored_at(
        &[IoSlice::new(&body), IoSlice::new(&index), IoSlice::new(&trailer)],
        offset,
    )?;
    // Make the trailer the authoritative end of file even if earlier sparse
    // writes extended it further, and drop stale bytes from a previous
    // longer close when rewriting in place.
    file.set_len(offset + total)?;
    Ok(())
}

// ---------------------------------------------------------------------
// Packed collective-metadata records (wire format, not on-disk).
// ---------------------------------------------------------------------

/// Everything one task contributes to the collective *open*, packed into a
/// single fixed-layout record so the whole exchange is **one** gather at
/// the file master (instead of one sequential collective round per field).
/// Parameter agreement and local validity are settled before the file
/// groups form, so the record carries per-task values only.
///
/// Layout: 2 little-endian `u64` words — `[chunksize, global rank]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpenRecord {
    /// This task's chunk-size request (the one per-task open parameter).
    pub chunksize: u64,
    /// This task's rank in the global communicator.
    pub grank: u64,
}

impl OpenRecord {
    /// Encoded size in bytes.
    pub const LEN: usize = 16;

    /// Serialize to the fixed 16-byte wire layout.
    pub fn encode(&self) -> [u8; Self::LEN] {
        let mut out = [0u8; Self::LEN];
        out[..8].copy_from_slice(&self.chunksize.to_le_bytes());
        out[8..].copy_from_slice(&self.grank.to_le_bytes());
        out
    }

    /// Inverse of [`encode`](Self::encode).
    pub fn decode(bytes: &[u8]) -> Result<Self> {
        if bytes.len() != Self::LEN {
            return Err(SionError::Format(format!(
                "open record must be {} bytes, got {}",
                Self::LEN,
                bytes.len()
            )));
        }
        let word = |i: usize| u64::from_le_bytes(bytes[i * 8..i * 8 + 8].try_into().unwrap());
        Ok(OpenRecord { chunksize: word(0), grank: word(1) })
    }
}

/// Everything one task contributes to the collective *close*, packed so
/// the whole exchange is **one** gather at the file master: the error flag
/// rides along with the per-block usage instead of costing a separate
/// allgather round.
///
/// Layout: `[status, nblocks, used[0], ..., used[nblocks-1]]`, little-endian
/// `u64` words.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CloseRecord {
    /// `0` when this task's stream finished cleanly; nonzero when its final
    /// flush/sync failed (the group then skips writing metablock 2).
    pub status: u64,
    /// Bytes effectively stored per block this task touched.
    pub used: Vec<u64>,
}

impl CloseRecord {
    /// `status` of a task whose stream finished cleanly.
    pub const STATUS_OK: u64 = 0;
    /// `status` bit of a task whose final flush failed.
    pub const STATUS_FLUSH_FAILED: u64 = 1;

    /// Serialize to the variable-length wire layout.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(16 + self.used.len() * 8);
        out.extend_from_slice(&self.status.to_le_bytes());
        out.extend_from_slice(&(self.used.len() as u64).to_le_bytes());
        for u in &self.used {
            out.extend_from_slice(&u.to_le_bytes());
        }
        out
    }

    /// Inverse of [`encode`](Self::encode).
    pub fn decode(bytes: &[u8]) -> Result<Self> {
        if bytes.len() < 16 || !bytes.len().is_multiple_of(8) {
            return Err(SionError::Format("truncated close record".into()));
        }
        let status = u64::from_le_bytes(bytes[..8].try_into().unwrap());
        let nblocks = u64::from_le_bytes(bytes[8..16].try_into().unwrap()) as usize;
        if bytes.len() != 16 + nblocks * 8 {
            return Err(SionError::Format(format!(
                "close record claims {nblocks} blocks but carries {} payload bytes",
                bytes.len() - 16
            )));
        }
        let used = bytes[16..]
            .chunks_exact(8)
            .map(|c| u64::from_le_bytes(c.try_into().unwrap()))
            .collect();
        Ok(CloseRecord { status, used })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vfs::{MemFs, Vfs};

    fn sample_mb1() -> MetaBlock1 {
        MetaBlock1 {
            version: VERSION,
            flags: SionFlags::ALIGNED | SionFlags::RESCUE,
            fsblksize: 65536,
            ntasks_global: 16,
            nfiles: 4,
            filenum: 2,
            data_start: 65536,
            global_ranks: vec![8, 9, 10, 11],
            chunksize_req: vec![100, 200, 300, 400],
            chunk_cap: vec![65536, 65536, 65536, 65536],
        }
    }

    #[test]
    fn mb1_roundtrip_via_file() {
        let fs = MemFs::new();
        let f = fs.create("m").unwrap();
        let mb1 = sample_mb1();
        f.write_all_at(&mb1.encode(), 0).unwrap();
        let back = MetaBlock1::read_from(f.as_ref()).unwrap();
        assert_eq!(back, mb1);
    }

    #[test]
    fn mb1_encoded_len_matches() {
        let mb1 = sample_mb1();
        assert_eq!(mb1.encode().len() as u64, MetaBlock1::encoded_len(4));
    }

    #[test]
    fn mb1_rejects_bad_magic_and_version() {
        let fs = MemFs::new();
        let f = fs.create("m").unwrap();
        let mut bytes = sample_mb1().encode();
        bytes[0] = b'X';
        f.write_all_at(&bytes, 0).unwrap();
        assert!(matches!(MetaBlock1::read_from(f.as_ref()), Err(SionError::Format(_))));

        let mut bytes = sample_mb1().encode();
        bytes[8] = 99; // version
        f.write_all_at(&bytes, 0).unwrap();
        assert!(matches!(MetaBlock1::read_from(f.as_ref()), Err(SionError::Format(_))));
    }

    #[test]
    fn mb1_rejects_truncation() {
        let fs = MemFs::new();
        let f = fs.create("m").unwrap();
        let bytes = sample_mb1().encode();
        f.write_all_at(&bytes[..bytes.len() - 10], 0).unwrap();
        assert!(MetaBlock1::read_from(f.as_ref()).is_err());
    }

    #[test]
    fn mb2_roundtrip_via_file() {
        let fs = MemFs::new();
        let f = fs.create("m").unwrap();
        let mb2 = MetaBlock2 { nblocks: 3, used: (0..12).map(|i| i * 11).collect() };
        mb2.write_to(f.as_ref(), 5000, 4).unwrap();
        let back = MetaBlock2::read_from(f.as_ref(), 4).unwrap();
        assert_eq!(back, mb2);
        assert_eq!(back.used_in(2, 1, 4), 9 * 11);
        assert_eq!(back.task_usage(1, 4), vec![11, 55, 99]);
    }

    #[test]
    fn mb2_task_count_mismatch_rejected() {
        let fs = MemFs::new();
        let f = fs.create("m").unwrap();
        let mb2 = MetaBlock2 { nblocks: 1, used: vec![1, 2, 3, 4] };
        mb2.write_to(f.as_ref(), 0, 4).unwrap();
        assert!(MetaBlock2::read_from(f.as_ref(), 5).is_err());
    }

    #[test]
    fn missing_trailer_detected() {
        let fs = MemFs::new();
        let f = fs.create("m").unwrap();
        f.write_all_at(&[0u8; 100], 0).unwrap();
        let err = MetaBlock2::read_from(f.as_ref(), 1).unwrap_err();
        assert!(err.to_string().contains("trailer"), "{err}");
    }

    #[test]
    fn empty_mb2_zero_blocks() {
        let fs = MemFs::new();
        let f = fs.create("m").unwrap();
        let mb2 = MetaBlock2 { nblocks: 0, used: vec![] };
        mb2.write_to(f.as_ref(), 128, 7).unwrap();
        let back = MetaBlock2::read_from(f.as_ref(), 7).unwrap();
        assert_eq!(back.nblocks, 0);
    }

    #[test]
    fn v2_close_metadata_roundtrip() {
        let fs = MemFs::new();
        let f = fs.create("m").unwrap();
        let mb2 = MetaBlock2 { nblocks: 3, used: (0..12).map(|i| i * 11).collect() };
        write_close_metadata(f.as_ref(), 5000, &mb2, 4).unwrap();

        let trailer = Trailer::read_from(f.as_ref()).unwrap();
        assert_eq!(trailer.mb2_off, 5000);
        let (idx_off, idx_len) = trailer.index.expect("v2 close carries an index");
        assert_eq!(idx_off, 5000 + trailer.mb2_len);
        assert_eq!(idx_len, ChunkIndex::encoded_len(3, 4));

        // Both decode paths see the same metadata.
        assert_eq!(MetaBlock2::read_from(f.as_ref(), 4).unwrap(), mb2);
        assert_eq!(MetaBlock2::read_header(f.as_ref(), &trailer, 4).unwrap(), 3);
        ChunkIndex::validate_header(f.as_ref(), (idx_off, idx_len), 3, 4).unwrap();
        for t in 0..4usize {
            let cum = ChunkIndex::read_task_cum(f.as_ref(), idx_off, 3, t).unwrap();
            let used = mb2.task_usage(t, 4);
            let mut acc = 0;
            for (b, &u) in used.iter().enumerate() {
                acc += u;
                assert_eq!(cum[b], acc, "task {t} block {b}");
            }
        }
    }

    #[test]
    fn chunk_index_is_task_major_prefix_sums() {
        let mb2 = MetaBlock2 { nblocks: 2, used: vec![5, 0, 7, 3] };
        let idx = ChunkIndex::from_mb2(&mb2, 2);
        assert_eq!(idx.cum, vec![5, 12, 0, 3]);
        assert_eq!(idx.encode(2).len() as u64, ChunkIndex::encoded_len(2, 2));
    }

    #[test]
    fn torn_index_is_detected_but_mb2_survives() {
        let fs = MemFs::new();
        let f = fs.create("m").unwrap();
        let mb2 = MetaBlock2 { nblocks: 1, used: vec![9, 8] };
        write_close_metadata(f.as_ref(), 200, &mb2, 2).unwrap();
        let trailer = Trailer::read_from(f.as_ref()).unwrap();
        let idx = trailer.index.unwrap();
        // Clobber the index magic: validation fails, the linear path works.
        f.write_all_at(b"XXXXXXXX", idx.0).unwrap();
        assert!(ChunkIndex::validate_header(f.as_ref(), idx, 1, 2).is_err());
        assert_eq!(MetaBlock2::read_from(f.as_ref(), 2).unwrap(), mb2);
        // Mismatched geometry is also rejected.
        write_close_metadata(f.as_ref(), 200, &mb2, 2).unwrap();
        assert!(ChunkIndex::validate_header(f.as_ref(), idx, 2, 2).is_err());
    }

    #[test]
    fn v1_trailer_still_decodes() {
        let fs = MemFs::new();
        let f = fs.create("m").unwrap();
        let mb2 = MetaBlock2 { nblocks: 1, used: vec![3] };
        mb2.write_to(f.as_ref(), 64, 1).unwrap();
        let trailer = Trailer::read_from(f.as_ref()).unwrap();
        assert_eq!(trailer.index, None);
        assert_eq!(MetaBlock2::read_header(f.as_ref(), &trailer, 1).unwrap(), 1);
        assert_eq!(MetaBlock2::read_at(f.as_ref(), &trailer, 1).unwrap(), mb2);
    }

    #[test]
    fn flags_reject_unknown_bits() {
        assert!(SionFlags::from_bits(0b1000).is_err());
        assert!(SionFlags::from_bits(0b111).is_ok());
    }

    #[test]
    fn open_record_round_trip() {
        let rec = OpenRecord { chunksize: 1 << 33, grank: 4093 };
        let bytes = rec.encode();
        assert_eq!(bytes.len(), OpenRecord::LEN);
        assert_eq!(OpenRecord::decode(&bytes).unwrap(), rec);
        assert!(OpenRecord::decode(&bytes[..8]).is_err());
        assert!(OpenRecord::decode(&[]).is_err());
    }

    #[test]
    fn close_record_round_trip() {
        for used in [vec![], vec![17u64], vec![0, 0, 5, 1 << 40]] {
            let rec = CloseRecord { status: CloseRecord::STATUS_OK, used };
            assert_eq!(CloseRecord::decode(&rec.encode()).unwrap(), rec);
        }
        let rec = CloseRecord { status: CloseRecord::STATUS_FLUSH_FAILED, used: vec![9] };
        let mut bytes = rec.encode();
        assert_eq!(CloseRecord::decode(&bytes).unwrap(), rec);
        // Truncated payload and inconsistent block count must be rejected.
        assert!(CloseRecord::decode(&bytes[..bytes.len() - 8]).is_err());
        bytes[8] = 7;
        assert!(CloseRecord::decode(&bytes).is_err());
        assert!(CloseRecord::decode(&[0u8; 8]).is_err());
    }
}
