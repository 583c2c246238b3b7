//! # sion — scalable massively parallel I/O to task-local files
//!
//! A from-scratch Rust reproduction of **SIONlib** (Frings, Wolf, Petkov:
//! *Scalable Massively Parallel I/O to Task-Local Files*, SC 2009).
//!
//! Parallel applications often write one file per task — checkpoints,
//! scratch data, event traces. At tens of thousands of tasks this collapses:
//! creating 64 K files in one directory serializes on directory metadata
//! (minutes of wall clock), and the resulting file zoo is unmanageable.
//! `sion` maps a large number of *logical task-local files* onto one or a
//! few *physical files* (a **multifile**):
//!
//! * file creation becomes a handful of creates plus a small collective
//!   metadata exchange — orders of magnitude faster;
//! * each task's data lives in per-task **chunks** aligned to file-system
//!   block boundaries, so no two tasks ever contend for the same FS block
//!   and read/write bandwidth is not penalized;
//! * the multifile can be inspected, split back into physical task files,
//!   and defragmented by serial tools.
//!
//! ## Access modes (paper §3.2)
//!
//! | Paper                 | Here |
//! |-----------------------|------|
//! | `sion_paropen_mpi` (write) | [`paropen_write_co`] → [`SionParWriter`] |
//! | `sion_ensure_free_space` + `fwrite` | [`SionParWriter::ensure_free_space`] + [`SionParWriter::write_in_chunk`] |
//! | `sion_fwrite`          | [`SionParWriter::write`] |
//! | `sion_paropen_mpi` (read) | [`paropen_read_co`] → [`SionParReader`] |
//! | `sion_feof` / `sion_bytes_avail_in_chunk` / `sion_fread` | [`SionParReader::feof`] / [`bytes_avail_in_chunk`](SionParReader::bytes_avail_in_chunk) / [`read`](SionParReader::read) |
//! | `sion_open` (serial write) | [`SerialWriter`] |
//! | `sion_open` / `sion_open_rank` (serial read) | [`Multifile`] / [`Multifile::rank_reader`] |
//! | `sion_get_locations`   | [`Multifile::locations`] |
//! | `sion_seek`            | [`Multifile::read_at`] / [`SerialWriter::seek`] |
//!
//! ## Extensions beyond the SC09 paper (its §6 road map)
//!
//! * **Rescue metadata** ([`SionFlags::RESCUE`]): a small header at the start
//!   of every chunk lets [`rescue::repair`] rebuild the final metadata block
//!   after a crash or quota kill.
//! * **Transparent compression** ([`SionFlags::COMPRESSED`]): logical
//!   streams are compressed with the `szip` LZSS codec below the chunking
//!   layer.
//!
//! ## Buffering & coalescing
//!
//! Each task's stream keeps a chunk-aligned **write-behind buffer**
//! ([`SionParams::write_buffer`], default [`DEFAULT_WRITE_BUFFER`] =
//! 128 KiB; `0` = write-through): consecutive small writes are coalesced
//! into one VFS write per touched chunk segment, and the rescue header is
//! patched once per flush instead of once per write. The buffer never
//! spans a chunk boundary, so the bytes in the file are identical to an
//! unbuffered run. Buffered data reaches the VFS at these *flush points*:
//!
//! * the buffer fills up,
//! * the stream leaves the current chunk (boundary crossing or seek),
//! * an explicit [`SionParWriter::flush`] / [`SerialWriter::flush`],
//! * [`SionParWriter::close_co`] / [`SerialWriter::close`].
//!
//! After a crash, everything up to the last flush point is recoverable by
//! [`rescue::repair`]; bytes still in the buffer are lost. Readers keep one
//! **window** on the stored bytes at their cursor: the run a lending
//! backend offers there (a `MemFs` page, nothing copied), else a
//! read-ahead buffer of their own ([`DEFAULT_READ_AHEAD`]) filled by one
//! read. Small reads, borrow-based scans and the decompressor are all
//! served from it; a read of at least a window's worth with nothing held
//! at the cursor goes straight into the caller's buffer. Both sides count
//! their work in [`IoCounters`] (user-level calls vs VFS calls, bytes,
//! flushes, rescue patches),
//! available from [`CloseStats::write_io`] and the readers'
//! `io_counters()`. `write_buffer` is a local knob — tasks of one
//! multifile may use different values (it is excluded from the collective
//! open's parameter fingerprint).
//!
//! ## Quick start
//!
//! ```
//! use simmpi::TaskWorld;
//! use vfs::MemFs;
//!
//! let fs = MemFs::new();
//! let params = sion::SionParams::new(64 * 1024).with_nfiles(2);
//! // Each rank is a task; `comm` is its communicator, and the collective
//! // calls suspend the task while they wait for peers.
//! TaskWorld::run(8, |comm| {
//!     let (fs, params) = (&fs, &params);
//!     async move {
//!         let mut w = sion::paropen_write_co(fs, "run/ckpt.sion", params, &comm)
//!             .await
//!             .unwrap();
//!         let payload = vec![comm.rank() as u8; 1000];
//!         w.write(&payload).unwrap();
//!         w.close_co().await.unwrap();
//!
//!         let mut r = sion::paropen_read_co(fs, "run/ckpt.sion", &comm).await.unwrap();
//!         let mut back = Vec::new();
//!         while !r.feof() {
//!             let mut buf = vec![0u8; r.bytes_avail_in_chunk() as usize];
//!             r.read_exact(&mut buf).unwrap();
//!             back.extend_from_slice(&buf);
//!         }
//!         assert_eq!(back, payload);
//!         r.close_co().await.unwrap();
//!     }
//! });
//! ```

mod agg;
mod error;
pub mod format;
mod layout;
mod mapping;
mod par;
pub mod rescue;
pub mod script;
mod serial;
mod stream;

pub use agg::AggStats;
pub use error::{Result, SionError};
pub use format::SionFlags;
pub use layout::{Alignment, FileLayout};
pub use mapping::Mapping;
pub use par::{
    all_or_nothing, paropen_read_co, paropen_write_co, CloseStats, SionParReader, SionParWriter,
};
pub use serial::{
    check_metadata, ChunkInfo, FileCheck, Locations, Multifile, RankReader, RankWriter,
    SerialWriter, TaskLocation,
};
pub use stream::{IoCounters, DEFAULT_READ_AHEAD, DEFAULT_WRITE_BUFFER};
/// The payload of [`SionError::Compression`].
pub use szip::SzipError;

/// How tasks issue their chunk writes in a collective open (two-phase
/// aggregated I/O goes beyond the paper; DESIGN.md §4f).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IoMode {
    /// Every task writes its own chunks directly — the paper's model.
    Independent,
    /// Two-phase collective writes: within each file group, neighborhoods
    /// of up to `tasks_per_aggregator` consecutive tasks elect one
    /// *aggregator* (the lowest local rank whose extent starts a fresh FS
    /// block). Members run the stream engine against a shadow handle and
    /// ship each write it issues, as `(offset, bytes)`, to the aggregator
    /// over point-to-point messages; the aggregator applies them, so each
    /// FS-block neighborhood is written by a single task.
    /// The on-disk multifile is byte-identical to `Independent` mode.
    Aggregated {
        /// Target neighborhood size; group boundaries snap outward to the
        /// next FS-block-clean task boundary (a whole file group becomes
        /// one neighborhood when the layout is unaligned).
        tasks_per_aggregator: usize,
    },
}

/// Parameters of a multifile, chosen at creation time (paper §3.1/§3.2).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SionParams {
    /// Per-task chunk size request: the maximum number of bytes this task
    /// expects to write "in one piece". May differ between tasks.
    pub chunksize: u64,
    /// Number of underlying physical files (paper Fig. 2(d)).
    pub nfiles: u32,
    /// Chunk alignment policy (paper Fig. 2(c)).
    pub alignment: Alignment,
    /// Task → physical file mapping.
    pub mapping: Mapping,
    /// Transparent compression of logical streams (extension).
    pub compressed: bool,
    /// Per-chunk rescue headers for crash recovery (extension).
    pub rescue: bool,
    /// Write-behind buffer capacity in bytes (0 disables coalescing). A
    /// purely local knob: it shapes *how* this task issues its writes, not
    /// what ends up in the file, so tasks may disagree on it and it is not
    /// part of the collective-open fingerprint.
    pub write_buffer: u64,
    /// Independent (paper) vs two-phase aggregated writes. Part of the
    /// collective-open fingerprint: all tasks must agree, since the modes
    /// follow different communication protocols.
    pub io_mode: IoMode,
}

impl SionParams {
    /// Defaults: a single physical file, automatic FS-block alignment, no
    /// compression, no rescue headers.
    pub fn new(chunksize: u64) -> Self {
        SionParams {
            chunksize,
            nfiles: 1,
            alignment: Alignment::FsBlock,
            mapping: Mapping::Blocked,
            compressed: false,
            rescue: false,
            write_buffer: DEFAULT_WRITE_BUFFER,
            io_mode: IoMode::Independent,
        }
    }

    /// Set the number of underlying physical files.
    pub fn with_nfiles(mut self, nfiles: u32) -> Self {
        self.nfiles = nfiles;
        self
    }

    /// Set the alignment policy.
    pub fn with_alignment(mut self, alignment: Alignment) -> Self {
        self.alignment = alignment;
        self
    }

    /// Set the task→file mapping.
    pub fn with_mapping(mut self, mapping: Mapping) -> Self {
        self.mapping = mapping;
        self
    }

    /// Enable transparent compression.
    pub fn with_compression(mut self) -> Self {
        self.compressed = true;
        self
    }

    /// Enable rescue headers.
    pub fn with_rescue(mut self) -> Self {
        self.rescue = true;
        self
    }

    /// Set the write-behind buffer capacity (0 = write-through).
    pub fn with_write_buffer(mut self, bytes: u64) -> Self {
        self.write_buffer = bytes;
        self
    }

    /// Select the write I/O mode (see [`IoMode`]).
    pub fn with_io_mode(mut self, io_mode: IoMode) -> Self {
        self.io_mode = io_mode;
        self
    }

    pub(crate) fn flags(&self) -> SionFlags {
        let mut f = SionFlags::empty();
        if !matches!(self.alignment, Alignment::None) {
            f |= SionFlags::ALIGNED;
        }
        if self.compressed {
            f |= SionFlags::COMPRESSED;
        }
        if self.rescue {
            f |= SionFlags::RESCUE;
        }
        f
    }
}

/// Name of physical file `filenum` of a multifile with base name `base`.
///
/// File 0 keeps the base name (so single-file multifiles look like plain
/// files); further files get a `.NNNNNN` suffix, mirroring SIONlib.
pub fn physical_name(base: &str, filenum: u32) -> String {
    if filenum == 0 {
        base.to_string()
    } else {
        format!("{base}.{filenum:06}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn physical_names() {
        assert_eq!(physical_name("a/b.sion", 0), "a/b.sion");
        assert_eq!(physical_name("a/b.sion", 1), "a/b.sion.000001");
        assert_eq!(physical_name("a/b.sion", 123456), "a/b.sion.123456");
    }

    #[test]
    fn params_flags_roundtrip() {
        let p = SionParams::new(1024);
        assert!(p.flags().contains(SionFlags::ALIGNED));
        assert!(!p.flags().contains(SionFlags::COMPRESSED));
        let p = p
            .with_alignment(Alignment::None)
            .with_compression()
            .with_rescue();
        assert!(!p.flags().contains(SionFlags::ALIGNED));
        assert!(p.flags().contains(SionFlags::COMPRESSED));
        assert!(p.flags().contains(SionFlags::RESCUE));
    }
}
