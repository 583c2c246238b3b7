//! Per-task chunk stream engine.
//!
//! A task's logical file is a byte stream laid across its chunks in blocks
//! 0, 1, 2, … of one physical file. [`TaskWriter`] and [`TaskReader`]
//! implement that stream — including the chunk-splitting `sion_fwrite` /
//! `sion_fread` semantics, optional transparent compression (the encoded
//! stream is what lives in the chunks), and rescue headers. Both the
//! parallel API (`par`) and the serial API (`serial`) are thin wrappers
//! over this module, so every access mode shares one engine.

use crate::agg;
use crate::error::{Result, SionError};
use crate::rescue::{RescueHeader, RESCUE_HEADER_LEN};
use std::sync::Arc;
use szip::{FrameDecoder, FrameEncoder};
use vfs::{ByteLease, IoSlice, VfsFile};

/// The chunk geometry of a single task within one physical file — the
/// minimal slice of a [`FileLayout`](crate::FileLayout) a task needs to
/// address its chunks ([`FileLayout::geom`](crate::FileLayout::geom)).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct ChunkGeom {
    /// Offset of block 0 in the physical file.
    pub data_start: u64,
    /// Size of one block (sum of all local chunk capacities).
    pub block_size: u64,
    /// Offset of this task's chunk within a block.
    pub chunk_off: u64,
    /// This task's chunk capacity (including rescue overhead).
    pub cap: u64,
    /// Rescue-header bytes at the start of each chunk (0 or 32).
    pub rescue_overhead: u64,
    /// Global rank (recorded in rescue headers).
    pub global_rank: u64,
    /// Real file-system block size — lets readers size their data-sieving
    /// window to whole FS blocks (1 disables sieving).
    pub fsblksize: u64,
}

impl ChunkGeom {
    /// File offset of this task's chunk in `block` (including header).
    pub(crate) fn chunk_start(&self, block: u64) -> u64 {
        self.data_start + block * self.block_size + self.chunk_off
    }

    /// File offset of user data in `block`.
    pub(crate) fn data_offset(&self, block: u64) -> u64 {
        self.chunk_start(block) + self.rescue_overhead
    }

    /// User-data capacity of one chunk.
    pub(crate) fn usable(&self) -> u64 {
        self.cap - self.rescue_overhead
    }

    /// Words in the `u64` wire format of [`encode`](Self::encode).
    pub(crate) const ENCODED_WORDS: usize = 7;

    /// Pack into a `u64` wire format for master→task scatter.
    pub(crate) fn encode(&self) -> Vec<u64> {
        vec![
            self.data_start,
            self.block_size,
            self.chunk_off,
            self.cap,
            self.rescue_overhead,
            self.global_rank,
            self.fsblksize,
        ]
    }

    /// Inverse of [`encode`](Self::encode).
    pub(crate) fn decode(words: &[u64]) -> Result<Self> {
        if words.len() < Self::ENCODED_WORDS {
            return Err(SionError::Format("truncated chunk geometry".into()));
        }
        Ok(ChunkGeom {
            data_start: words[0],
            block_size: words[1],
            chunk_off: words[2],
            cap: words[3],
            rescue_overhead: words[4],
            global_rank: words[5],
            fsblksize: words[6].max(1),
        })
    }
}

/// Per-handle I/O accounting: how many calls the user made vs how many
/// (and how large) the VFS actually saw. The ratio `user_calls /
/// vfs_calls` is the coalescing factor of the write-behind / read-ahead
/// buffers.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct IoCounters {
    /// User-level calls (`write`/`write_in_chunk`, or `read`).
    pub user_calls: u64,
    /// Calls issued to the underlying VFS handle (data + headers).
    pub vfs_calls: u64,
    /// Bytes moved through the VFS handle.
    pub vfs_bytes: u64,
    /// Write-behind buffer flushes that actually wrote data.
    pub flushes: u64,
    /// Rescue-header `used`-field patches written.
    pub rescue_patches: u64,
    /// Payload bytes memcpy'd through an engine-owned staging buffer
    /// (write-behind coalescing, fills of a reader's owned window, bytes
    /// `read` copies out of the window to its caller; in compressed mode
    /// also stored bytes the decoder had to keep because their frame
    /// straddles two runs, and decoded bytes copied out to a `read`
    /// caller). Zero-copy paths — vectored submits of caller slices, extent
    /// leases, a window or a decoded frame lent to a scan's sink — move
    /// bytes without touching this counter, so tests can assert the
    /// engine's copy discipline, not just its call counts.
    pub bytes_copied: u64,
    /// Transient heap buffers allocated on the hot path (staging buffers,
    /// a reader's owned window). A buffer that grows counts once per
    /// growth; steady-state reuse counts zero. A write-behind buffer the
    /// file adopted is replaced uncounted: the replacement takes the place
    /// of the copy a backend that does not adopt allocates, so the count
    /// is the same on every backend.
    pub allocs: u64,
    /// Submissions issued via `write_vectored_at` (each also counted once
    /// in `vfs_calls`, however many slices it carried).
    pub vectored_writes: u64,
}

/// Summing streams' counters, e.g. over the ranks a tool read.
impl std::ops::AddAssign for IoCounters {
    fn add_assign(&mut self, x: IoCounters) {
        self.user_calls += x.user_calls;
        self.vfs_calls += x.vfs_calls;
        self.vfs_bytes += x.vfs_bytes;
        self.flushes += x.flushes;
        self.rescue_patches += x.rescue_patches;
        self.bytes_copied += x.bytes_copied;
        self.allocs += x.allocs;
        self.vectored_writes += x.vectored_writes;
    }
}

/// Default write-behind buffer size (bytes); see `SionParams::write_buffer`.
pub const DEFAULT_WRITE_BUFFER: u64 = 128 * 1024;

/// Default read-ahead window (bytes) for readers.
pub const DEFAULT_READ_AHEAD: u64 = 128 * 1024;

/// The VFS call [`TaskWriter::submit`] makes.
#[derive(Clone, Copy)]
enum Submit<'a> {
    /// `write_all_at` of the one slice.
    Scalar,
    /// `write_vectored_at` of the slices.
    Vectored,
    /// `write_lease_at` of the lease the one slice is all of.
    Lease(&'a ByteLease),
}

/// Writer for one task's logical file.
pub(crate) struct TaskWriter {
    file: Arc<dyn VfsFile>,
    geom: ChunkGeom,
    /// Current block number.
    block: u64,
    /// User bytes written into the current chunk (including bytes still
    /// pending in the write-behind buffer).
    off: u64,
    /// Bytes used per block so far (index = block number).
    used: Vec<u64>,
    /// Whether each block's rescue header has been written.
    entered: Vec<bool>,
    /// Streaming compressor (compressed mode only).
    enc: Option<FrameEncoder>,
    /// Total user bytes accepted (pre-compression).
    user_bytes: u64,
    /// Write-behind buffer. Its bytes from `run` on are the staged run:
    /// pending stored bytes covering `[wbuf_start, off)` of the current
    /// chunk, always flushed before the cursor leaves the chunk, so it never
    /// spans blocks. On an independent writer `run` is 0 and a flush empties
    /// the buffer. On an aggregated-mode member the buffer is the ship frame
    /// ([`crate::agg`]): every write this engine issues is an extent in it,
    /// so what the aggregator applies is exactly what this writer wrote to
    /// its shadow handle. The staged run sits behind its open extent header
    /// and stays where it is when flushed; other writes are copied in.
    wbuf: Vec<u8>,
    /// Where the staged run begins in `wbuf`; `wbuf.len()` when none is.
    run: usize,
    /// Chunk offset of the staged run's first byte.
    wbuf_start: u64,
    /// Staged-run capacity; 0 = write-through (no coalescing).
    wbuf_cap: usize,
    /// Aggregated-mode member only: `wbuf` is the ship frame, and no frame
    /// is sized for more than this many bytes of extents (the ship
    /// capacity).
    ship_cap: Option<usize>,
    /// The rescue header's `used` field is stale and needs a patch at the
    /// next flush point (deferred even in write-through mode).
    rescue_dirty: bool,
    /// Coalescing counters for `CloseStats`/tracing.
    counters: IoCounters,
}

impl TaskWriter {
    pub(crate) fn new(
        file: Arc<dyn VfsFile>,
        geom: ChunkGeom,
        compressed: bool,
        write_buffer: u64,
    ) -> Self {
        // A buffer larger than the chunk never helps: the buffer is flushed
        // at every chunk boundary anyway.
        let wbuf_cap = write_buffer.min(geom.usable()) as usize;
        TaskWriter {
            file,
            geom,
            block: 0,
            off: 0,
            used: vec![0],
            entered: vec![false],
            enc: compressed.then(FrameEncoder::new),
            user_bytes: 0,
            wbuf: Vec::with_capacity(wbuf_cap),
            run: 0,
            wbuf_start: 0,
            wbuf_cap,
            ship_cap: None,
            rescue_dirty: false,
            counters: IoCounters {
                allocs: (wbuf_cap > 0) as u64,
                ..IoCounters::default()
            },
        }
    }

    /// Make this an aggregated-mode member's writer: its write-behind
    /// buffer becomes a ship frame for `ship_cap` bytes of extents. Its
    /// [`IoCounters`] stay an independent writer's.
    pub(crate) fn into_member(mut self, ship_cap: usize) -> Self {
        self.wbuf = agg::new_frame(ship_cap);
        self.run = self.wbuf.len();
        self.ship_cap = Some(ship_cap);
        self
    }

    /// The staged run: accepted bytes no VFS call has written yet.
    fn staged(&self) -> &[u8] {
        &self.wbuf[self.run..]
    }

    /// Where the frame's recorded extents end: before the staged run's
    /// header, whose bytes have had no shadow write yet.
    fn frame_cut(&self) -> usize {
        if self.staged().is_empty() {
            self.wbuf.len()
        } else {
            self.run - agg::EXTENT_HEADER
        }
    }

    /// Member only: bytes of recorded extents in the frame.
    pub(crate) fn recorded(&self) -> usize {
        self.frame_cut() - agg::SEQ_LEN
    }

    /// Member only: hand out the frame's recorded extents to ship, by move.
    /// With `next`, a new frame takes over and the staged run — at most one
    /// record's tail — is carried into it, header and bytes. The last frame
    /// (at close) gets no successor; whatever is still staged then was
    /// never written (a failed flush) and is dropped.
    pub(crate) fn take_frame(&mut self, next: bool) -> Vec<u8> {
        let cut = self.frame_cut();
        let staged = self.staged().len();
        let mut successor = Vec::new();
        if next {
            // Sized like the frame it follows, up to the ship capacity: a
            // stream's frames are alike, and a full-size frame for a few
            // bytes costs the allocator a fresh heap block at every ship.
            let cap = self.ship_cap.expect("a member's writer");
            let payload = (cut - agg::SEQ_LEN).min(cap);
            successor = agg::new_frame(payload + self.wbuf.len() - cut);
            successor.extend_from_slice(&self.wbuf[cut..]);
        }
        let mut shipped = std::mem::replace(&mut self.wbuf, successor);
        shipped.truncate(cut);
        // A carried run ends the successor; the last frame has none.
        self.run = self.wbuf.len().saturating_sub(staged);
        shipped
    }

    /// Coalescing counters accumulated so far.
    pub(crate) fn io_counters(&self) -> IoCounters {
        self.counters
    }

    /// Bytes still free in the current chunk (stored-byte granularity).
    pub(crate) fn bytes_avail_in_chunk(&self) -> u64 {
        self.geom.usable() - self.off
    }

    /// Current block number (0-based).
    #[cfg(test)]
    pub(crate) fn current_block(&self) -> u64 {
        self.block
    }

    /// Total user bytes accepted so far.
    pub(crate) fn user_bytes(&self) -> u64 {
        self.user_bytes
    }

    /// The underlying physical-file handle.
    pub(crate) fn file(&self) -> &dyn VfsFile {
        self.file.as_ref()
    }

    /// Offset where metablock 2 goes when the file holds `nblocks` blocks
    /// (derived from this task's geometry; identical for every local task).
    pub(crate) fn mb2_offset(&self, nblocks: u64) -> u64 {
        self.geom.data_start + nblocks * self.geom.block_size
    }

    /// `sion_ensure_free_space`: guarantee that `nbytes` can be written
    /// contiguously into the current chunk, advancing to the next block's
    /// chunk if necessary. Fails if a single chunk cannot hold `nbytes`
    /// (use [`write`](Self::write) instead) or in compressed mode (where
    /// stored sizes are not knowable in advance).
    pub(crate) fn ensure_free_space(&mut self, nbytes: u64) -> Result<()> {
        if self.enc.is_some() {
            return Err(SionError::InvalidArg(
                "ensure_free_space is unavailable in compressed mode; use write()".into(),
            ));
        }
        if nbytes > self.geom.usable() {
            return Err(SionError::PieceTooLarge {
                requested: nbytes,
                capacity: self.geom.usable(),
            });
        }
        if nbytes > self.bytes_avail_in_chunk() {
            self.advance_chunk()?;
        }
        Ok(())
    }

    /// Plain `fwrite` into the current chunk: the data must fit in the
    /// remaining chunk space (call [`ensure_free_space`] first).
    pub(crate) fn write_in_chunk(&mut self, data: &[u8]) -> Result<()> {
        if self.enc.is_some() {
            return Err(SionError::InvalidArg(
                "write_in_chunk is unavailable in compressed mode; use write()".into(),
            ));
        }
        if data.len() as u64 > self.bytes_avail_in_chunk() {
            return Err(SionError::PieceTooLarge {
                requested: data.len() as u64,
                capacity: self.bytes_avail_in_chunk(),
            });
        }
        self.counters.user_calls += 1;
        self.put(data, None)?;
        self.user_bytes += data.len() as u64;
        Ok(())
    }

    /// `sion_fwrite`: write arbitrarily large data, transparently split
    /// across chunk boundaries (and compressed, in compressed mode).
    pub(crate) fn write(&mut self, data: &[u8]) -> Result<()> {
        self.write_run(data, None)
    }

    /// [`write`](Self::write) of a run a reader lent, with the lease it is
    /// all of, if it is one ([`TaskReader::scan_runs`]). A write-through
    /// plain writer hands a lease that fits the current chunk to its file
    /// as it is ([`VfsFile::write_lease_at`]: `MemFs` adopts runs of whole
    /// pages at a page boundary);
    /// every other writer writes the bytes, exactly as `write` does. A
    /// lease that is not exactly `data` (same start, same length) is
    /// ignored: what is written is always `data`.
    pub(crate) fn write_run(&mut self, data: &[u8], lease: Option<&ByteLease>) -> Result<()> {
        let lease = lease.filter(|l| l.as_ptr() == data.as_ptr() && l.len() == data.len());
        self.counters.user_calls += 1;
        self.user_bytes += data.len() as u64;
        if let Some(enc) = self.enc.as_mut() {
            enc.write(data);
            return self.forward_frames();
        }
        self.put_split(data, lease)
    }

    /// Compressed mode: write out the frames the encoder has completed, if
    /// any (a 64 B record rarely completes one), and hand the buffer back
    /// — empty or not — so the encoder does not regrow one for every frame.
    fn forward_frames(&mut self) -> Result<()> {
        let Some(enc) = self.enc.as_mut() else {
            return Ok(());
        };
        let stored = enc.take_output();
        if stored.is_empty() {
            enc.recycle(stored);
            return Ok(());
        }
        let res = self.put_split(&stored, None);
        if let Some(enc) = self.enc.as_mut() {
            enc.recycle(stored);
        }
        res
    }

    /// Write `data` into chunks, advancing blocks as needed. `lease`, if
    /// any, is all of `data` and goes on only if one chunk takes all of it.
    fn put_split(&mut self, data: &[u8], lease: Option<&ByteLease>) -> Result<()> {
        let mut rest = data;
        while !rest.is_empty() {
            let avail = self.bytes_avail_in_chunk();
            if avail == 0 {
                if self.geom.usable() == 0 {
                    return Err(SionError::PieceTooLarge {
                        requested: rest.len() as u64,
                        capacity: 0,
                    });
                }
                self.advance_chunk()?;
                continue;
            }
            let take = (avail as usize).min(rest.len());
            self.put(&rest[..take], lease.filter(|_| take == data.len()))?;
            rest = &rest[take..];
        }
        Ok(())
    }

    /// Low-level write of `data` at the current position (must fit). With
    /// a write-behind buffer, records smaller than the buffer append to it
    /// (the VFS sees one write per filled buffer / flush point instead of
    /// one per call), while records that would fill the buffer anyway skip
    /// it entirely: the caller's slice is submitted directly, together
    /// with any pending buffered bytes, as one vectored write
    /// ([`put_vectored`](Self::put_vectored)) — no memcpy of the payload.
    /// In write-through mode (`wbuf_cap == 0`) data goes straight to the
    /// VFS — as `lease` itself, when there is one (it is all of `data`) —
    /// but the rescue patch is still deferred to flush points.
    fn put(&mut self, data: &[u8], lease: Option<&ByteLease>) -> Result<()> {
        debug_assert!(data.len() as u64 <= self.bytes_avail_in_chunk());
        if data.is_empty() {
            return Ok(());
        }
        if self.wbuf_cap > 0 && data.len() >= self.wbuf_cap {
            return self.put_vectored(data);
        }
        self.enter_chunk()?;
        if self.wbuf_cap == 0 {
            let at = self.geom.data_offset(self.block) + self.off;
            let how = lease.map_or(Submit::Scalar, Submit::Lease);
            self.submit(&[IoSlice::new(data)], at, how)?;
            self.off += data.len() as u64;
        } else {
            let mut rest = data;
            while !rest.is_empty() {
                if self.staged().is_empty() {
                    self.wbuf_start = self.off;
                    if self.ship_cap.is_some() {
                        let at = self.geom.data_offset(self.block) + self.off;
                        self.run = agg::open_extent(&mut self.wbuf, at);
                    }
                }
                let room = self.wbuf_cap - self.staged().len();
                let take = room.min(rest.len());
                self.wbuf.extend_from_slice(&rest[..take]);
                self.counters.bytes_copied += take as u64;
                self.off += take as u64;
                rest = &rest[take..];
                if self.staged().len() == self.wbuf_cap {
                    self.flush_pending()?;
                }
            }
        }
        // High-water mark: a seek backwards must not shrink the chunk.
        let b = self.block as usize;
        self.used[b] = self.used[b].max(self.off);
        self.rescue_dirty = true;
        Ok(())
    }

    /// Large-record zero-copy flush: submit (rescue header on first chunk
    /// touch) + (pending write-behind bytes) + (the caller's payload) as
    /// ONE vectored VFS write. The payload never passes through the
    /// write-behind buffer — the slices are handed to the backend as an
    /// iovec and land contiguously at the current position.
    ///
    /// The same crash-consistency invariant as [`flush_pending`] holds:
    /// the header slice (when present) carries `used = 0`, so nothing in
    /// this submission claims bytes beyond what the write itself persists,
    /// and the `used`-field patch still only happens at a *later* flush
    /// point, strictly after this data write succeeded. On error the
    /// pending buffer is left intact (nothing was consumed), so a retry
    /// remains possible.
    fn put_vectored(&mut self, data: &[u8]) -> Result<()> {
        let b = self.block as usize;
        if self.staged().is_empty() {
            // First touch of the chunk with the data run starting right
            // after the header slot: the header rides along as the leading
            // slice.
            let lead_header = !self.entered[b] && self.geom.rescue_overhead > 0 && self.off == 0;
            if !lead_header {
                self.enter_chunk()?;
            }
            let header = RescueHeader {
                global_rank: self.geom.global_rank,
                block: self.block,
                used: 0,
            }
            .encode();
            let slices = [IoSlice::new(&header), IoSlice::new(data)];
            let (slices, at) = if lead_header {
                (&slices[..], self.geom.chunk_start(self.block))
            } else {
                (&slices[1..], self.geom.data_offset(self.block) + self.off)
            };
            self.submit(slices, at, Submit::Vectored)?;
            self.entered[b] = true;
        } else {
            // Pending bytes imply the chunk was already entered: they lead.
            self.flush_run(data)?;
            self.counters.flushes += 1;
        }
        self.off += data.len() as u64;
        self.wbuf_start = self.off;
        self.used[b] = self.used[b].max(self.off);
        self.rescue_dirty = true;
        Ok(())
    }

    /// Write pending buffered data (one VFS call) and bring the rescue
    /// header up to date. Called whenever the cursor leaves the chunk
    /// (chunk advance, seek), on explicit [`flush`](Self::flush), and at
    /// [`finish`](Self::finish) — the points where data becomes durable in
    /// the VFS.
    ///
    /// Crash-consistency invariant: the data write strictly precedes the
    /// rescue-header patch, and on a data-write error the patch is *not*
    /// attempted (the buffer is restored instead, keeping retry possible).
    /// A rescue header therefore never claims bytes that are not on disk —
    /// after a crash anywhere in this sequence, `used` in the header
    /// understates at worst, and `rescue::repair` recovers a prefix of
    /// what the task wrote. The crash_consistency integration tests pin
    /// this ordering via the `vfs::Faults` op log.
    fn flush_pending(&mut self) -> Result<()> {
        if !self.staged().is_empty() {
            self.flush_run(&[])?;
            self.wbuf_start = self.off;
            self.counters.flushes += 1;
        }
        if self.rescue_dirty {
            // `used` already covers everything just flushed: the pending
            // buffer never extends past `off`, whose high-water is `used`.
            self.patch_rescue()?;
            self.rescue_dirty = false;
        }
        Ok(())
    }

    /// Make all accepted data visible to the VFS and patch the rescue
    /// header. In compressed mode this also ends the current frame.
    pub(crate) fn flush(&mut self) -> Result<()> {
        if let Some(enc) = self.enc.as_mut() {
            enc.flush();
        }
        self.forward_frames()?;
        self.flush_pending()
    }

    /// Write the staged run, then `tail` if any (a large record riding out
    /// behind it), as ONE VFS call at the run's offset — scalar alone,
    /// vectored with a tail — and retire the run. An independent writer
    /// empties its buffer. On a member's writer the run already sits in the
    /// frame behind its open extent header: the tail is appended and the
    /// length filled in, so the staged bytes are never copied again. On
    /// error nothing is retired, so a retry remains possible.
    ///
    /// An independent writer whose run alone fills its buffer hands the
    /// buffer itself to the file ([`ByteLease::from_vec`]). A backend that
    /// adopts it keeps it as the file's storage — each byte was copied
    /// once, into this buffer — and the writer allocates a fresh one in
    /// place of the extent the backend did not allocate (not counted in
    /// [`IoCounters::allocs`], which stay the same on every backend); a
    /// backend that copies gives it back. Only a full buffer goes: a partly
    /// filled one would pin its unused capacity in the file.
    fn flush_run(&mut self, tail: &[u8]) -> Result<()> {
        let at = self.geom.data_offset(self.block) + self.wbuf_start;
        let buf = std::mem::take(&mut self.wbuf);
        if self.ship_cap.is_none() && tail.is_empty() && buf.len() == buf.capacity() {
            let lease = ByteLease::from_vec(buf);
            let res = self.issue(&[IoSlice::new(&lease)], at, Submit::Lease(&lease));
            self.wbuf = lease.into_vec().unwrap_or_else(|kept| {
                let mut fresh = Vec::with_capacity(self.wbuf_cap);
                if res.is_err() {
                    fresh.extend_from_slice(&kept);
                }
                fresh
            });
            res?;
            self.wbuf.clear();
            return Ok(());
        }
        let slices = [IoSlice::new(&buf[self.run..]), IoSlice::new(tail)];
        let res = if tail.is_empty() {
            self.issue(&slices[..1], at, Submit::Scalar)
        } else {
            self.issue(&slices, at, Submit::Vectored)
        };
        self.wbuf = buf;
        res?;
        if self.ship_cap.is_some() {
            agg::close_extent(&mut self.wbuf, self.run, tail);
            self.run = self.wbuf.len();
        } else {
            self.wbuf.clear();
        }
        Ok(())
    }

    /// [`issue`](Self::issue) a write of bytes the frame does not hold:
    /// everything but the staged run, which [`flush_run`](Self::flush_run)
    /// writes. On a member's writer the write is recorded as an extent
    /// behind the ones before it — a copy, the one these bytes take on
    /// their way to the aggregator. A failed write records nothing.
    fn submit(&mut self, slices: &[IoSlice<'_>], at: u64, how: Submit<'_>) -> Result<()> {
        self.issue(slices, at, how)?;
        if self.ship_cap.is_some() {
            debug_assert!(
                self.staged().is_empty(),
                "an extent recorded behind a staged run"
            );
            agg::push_extent(&mut self.wbuf, at, slices);
            self.run = self.wbuf.len();
        }
        Ok(())
    }

    /// The one place this writer calls its file: every data run, rescue
    /// header and `used` patch is issued here — the one VFS call `how`
    /// names and its [`IoCounters`] bookkeeping.
    fn issue(&mut self, slices: &[IoSlice<'_>], at: u64, how: Submit<'_>) -> Result<()> {
        match how {
            Submit::Vectored => self.file.write_vectored_at(slices, at)?,
            Submit::Scalar => self.file.write_all_at(&slices[0], at)?,
            Submit::Lease(lease) => self.file.write_lease_at(lease, at)?,
        }
        debug_assert!(matches!(how, Submit::Vectored) || slices.len() == 1);
        self.counters.vfs_calls += 1;
        self.counters.vectored_writes += matches!(how, Submit::Vectored) as u64;
        self.counters.vfs_bytes += slices.iter().map(|s| s.len() as u64).sum::<u64>();
        Ok(())
    }

    /// Write the rescue header on first touch of a chunk.
    fn enter_chunk(&mut self) -> Result<()> {
        let b = self.block as usize;
        if self.entered[b] || self.geom.rescue_overhead == 0 {
            self.entered[b] = true;
            return Ok(());
        }
        let hdr = RescueHeader {
            global_rank: self.geom.global_rank,
            block: self.block,
            used: 0,
        };
        let at = self.geom.chunk_start(self.block);
        self.submit(&[IoSlice::new(&hdr.encode())], at, Submit::Scalar)?;
        self.entered[b] = true;
        Ok(())
    }

    /// Bring the rescue header's byte count current (at flush points only;
    /// one patch per flush instead of one per put).
    fn patch_rescue(&mut self) -> Result<()> {
        if self.geom.rescue_overhead == 0 {
            return Ok(());
        }
        debug_assert_eq!(self.geom.rescue_overhead, RESCUE_HEADER_LEN);
        let used = self.used[self.block as usize].to_le_bytes();
        let at = self.geom.chunk_start(self.block) + RescueHeader::USED_FIELD_OFFSET;
        self.submit(&[IoSlice::new(&used)], at, Submit::Scalar)?;
        self.counters.rescue_patches += 1;
        Ok(())
    }

    /// Move to this task's chunk in the next block.
    fn advance_chunk(&mut self) -> Result<()> {
        self.seek_stored(self.block + 1, 0)
    }

    /// Position the write cursor at (`block`, `pos`) — the serial API's
    /// `sion_seek`. Unavailable in compressed mode (stored positions are
    /// not meaningful to callers there).
    pub(crate) fn seek(&mut self, block: u64, pos: u64) -> Result<()> {
        if self.enc.is_some() {
            return Err(SionError::InvalidArg(
                "seek is unavailable in compressed mode".into(),
            ));
        }
        self.seek_stored(block, pos)
    }

    /// Seek in stored-byte coordinates (internal: also used for chunk
    /// advances in compressed mode). Flushes pending data first — the
    /// write-behind buffer never spans a reposition.
    fn seek_stored(&mut self, block: u64, pos: u64) -> Result<()> {
        if pos > self.geom.usable() {
            return Err(SionError::InvalidArg(format!(
                "seek position {pos} beyond chunk capacity {}",
                self.geom.usable()
            )));
        }
        self.flush_pending()?;
        while (self.used.len() as u64) <= block {
            self.used.push(0);
            self.entered.push(false);
        }
        self.block = block;
        self.off = pos;
        self.wbuf_start = pos;
        Ok(())
    }

    /// Flush (buffer and, in compressed mode, encoder) and return the
    /// per-block usage vector.
    ///
    /// Trailing blocks with zero stored bytes are trimmed: a chunk merely
    /// *entered* (e.g. via `ensure_free_space`, rescue header written,
    /// nothing stored) does not extend the block count. This is the
    /// canonical convention shared with [`rescue::repair`], which trims
    /// trailing all-zero rows the same way — so metadata rebuilt after a
    /// crash agrees exactly with what a clean close writes.
    pub(crate) fn finish(&mut self) -> Result<Vec<u64>> {
        if let Some(enc) = self.enc.as_mut() {
            enc.flush();
        }
        self.forward_frames()?;
        self.enc = None;
        self.flush_pending()?;
        self.file.sync()?;
        let mut used = self.used.clone();
        while used.last() == Some(&0) {
            used.pop();
        }
        Ok(used)
    }
}

/// Reader for one task's logical file.
pub(crate) struct TaskReader {
    file: Arc<dyn VfsFile>,
    geom: ChunkGeom,
    /// Stored bytes per block (from metablock 2).
    used: Vec<u64>,
    /// Current block index into `used`.
    block: usize,
    /// Stored bytes consumed in the current chunk.
    off: u64,
    /// Streaming decompressor (compressed mode only). It holds the one
    /// decoded frame not yet fully handed to the caller, which has had
    /// `decoded_pos` bytes of it.
    dec: Option<FrameDecoder>,
    decoded_pos: usize,
    /// The stored stream failed to decode, or ended inside a frame: every
    /// later read fails the same way instead of resuming somewhere else.
    dec_failed: Option<szip::SzipError>,
    /// The window: stored file bytes starting at *absolute* file offset
    /// `win_start`, either lent by the backend (`rlease`, a zero-copy
    /// [`vfs::ByteLease`] over however long a run it had at the cursor) or,
    /// from a backend that lends nothing, owned (`rbuf`, filled by one
    /// copying VFS read; empty while a lease is held). Addressing the
    /// window by file offset (not chunk offset) lets one fetch serve
    /// noncontiguous chunk segments that happen to be file-adjacent.
    rbuf: Vec<u8>,
    rlease: Option<vfs::ByteLease>,
    win_start: u64,
    /// Size of the owned window, at least 1: a read-ahead of 0 leaves a
    /// one-byte window, which every `read` bypasses (one VFS read per
    /// request segment, the pre-buffering behaviour).
    ra_cap: usize,
    /// Data-sieving unit (Thakur/Gropp/Lusk): when > 0, a fetch reaches to
    /// the end of the FS block containing the position, so all of this
    /// task's chunk segments inside that block — across *layout* blocks —
    /// are served by one VFS read instead of one per segment. Enabled when
    /// whole FS blocks fit in the read-ahead budget.
    sieve: u64,
    /// File length, fetched lazily for clipping sieve windows at EOF.
    flen: Option<u64>,
    /// Coalescing counters (user reads vs VFS reads).
    counters: IoCounters,
}

impl TaskReader {
    pub(crate) fn new(
        file: Arc<dyn VfsFile>,
        geom: ChunkGeom,
        used: Vec<u64>,
        compressed: bool,
        read_ahead: u64,
    ) -> Self {
        let ra_cap = read_ahead.min(geom.usable()).max(1) as usize;
        // Sieve when an FS block fits the read-ahead budget and sieving
        // can actually coalesce anything (several layout blocks per FS
        // block, i.e. small unaligned chunks).
        let sieve = if geom.fsblksize > 1
            && geom.fsblksize <= read_ahead
            && geom.block_size < geom.fsblksize
        {
            geom.fsblksize
        } else {
            0
        };
        let mut r = TaskReader {
            file,
            geom,
            used,
            block: 0,
            off: 0,
            dec: compressed.then(FrameDecoder::new),
            decoded_pos: 0,
            dec_failed: None,
            rbuf: Vec::new(),
            rlease: None,
            win_start: 0,
            ra_cap,
            sieve,
            flen: None,
            counters: IoCounters::default(),
        };
        r.skip_empty_blocks();
        r
    }

    /// Coalescing counters accumulated so far.
    pub(crate) fn io_counters(&self) -> IoCounters {
        self.counters
    }

    fn skip_empty_blocks(&mut self) {
        while self.block < self.used.len() && self.off >= self.used[self.block] {
            self.block += 1;
            self.off = 0;
        }
    }

    /// Stored bytes still unread in the current chunk
    /// (`sion_bytes_avail_in_chunk`). In compressed mode this counts
    /// *stored* (compressed) bytes.
    pub(crate) fn bytes_avail_in_chunk(&self) -> u64 {
        if self.block >= self.used.len() {
            0
        } else {
            self.used[self.block] - self.off
        }
    }

    /// Whether the logical stream is exhausted (`sion_feof`).
    pub(crate) fn feof(&mut self) -> bool {
        if self
            .dec
            .as_ref()
            .is_some_and(|dec| self.decoded_pos < dec.frame().len())
        {
            return false;
        }
        self.skip_empty_blocks();
        self.block >= self.used.len()
    }

    /// Move the cursor to the next stored byte: its absolute file offset
    /// and how many stored bytes its chunk holds from there on. `None` at
    /// the end of the stream.
    fn cursor(&mut self) -> Option<(u64, u64)> {
        self.skip_empty_blocks();
        (self.block < self.used.len()).then(|| {
            (
                self.geom.data_offset(self.block as u64) + self.off,
                self.used[self.block] - self.off,
            )
        })
    }

    /// The window's bytes, lent or owned.
    fn window<'a>(rlease: &'a Option<vfs::ByteLease>, rbuf: &'a [u8]) -> &'a [u8] {
        match rlease {
            Some(lease) => lease,
            None => rbuf,
        }
    }

    /// Whether the window holds the byte at absolute file offset `at`.
    fn holds(&self, at: u64) -> bool {
        let len = Self::window(&self.rlease, &self.rbuf).len() as u64;
        at >= self.win_start && at - self.win_start < len
    }

    /// The one place the reader asks its file for stream data: make the
    /// window hold the stored byte at the cursor. Returns the part of the
    /// window that is the run from there: stored bytes of the current chunk
    /// only, as many as the window has. `None` at the end of the stream.
    ///
    /// A window that holds the cursor is kept. Otherwise the backend is
    /// asked to lend the rest of the chunk's stored bytes — with sieving,
    /// the rest of the FS block, which also holds this task's segments of
    /// *later layout blocks* — and whatever contiguous run it offers there,
    /// however short, is the window, with no copy. A backend that lends
    /// nothing fills the owned window with one read of at most `ra_cap`
    /// bytes (the rest of the FS block when sieving).
    fn fetch(&mut self) -> Result<Option<std::ops::Range<usize>>> {
        let Some((at, avail)) = self.cursor() else {
            return Ok(None);
        };
        if !self.holds(at) {
            let want = if self.sieve > 0 {
                self.sieve - at % self.sieve
            } else {
                avail
            };
            self.rlease = self.file.read_lease(at, want as usize);
            let len = match &self.rlease {
                Some(lease) => {
                    self.rbuf.clear();
                    lease.len()
                }
                None => {
                    let len = if self.sieve > 0 {
                        let flen = match self.flen {
                            Some(l) => l,
                            None => *self.flen.insert(self.file.len()?),
                        };
                        // Clipped at end of file, but not to nothing: a
                        // cursor beyond it is for the read to report.
                        want.min(flen.saturating_sub(at).max(1)) as usize
                    } else {
                        (want as usize).min(self.ra_cap)
                    };
                    if len > self.rbuf.capacity() {
                        self.counters.allocs += 1;
                    }
                    self.rbuf.resize(len, 0);
                    if let Err(e) = self.file.read_exact_at(&mut self.rbuf, at) {
                        // Whatever the failed read left must not be served.
                        self.rbuf.clear();
                        return Err(e.into());
                    }
                    self.counters.bytes_copied += len as u64;
                    len
                }
            };
            self.counters.vfs_calls += 1;
            self.counters.vfs_bytes += len as u64;
            self.win_start = at;
        }
        let pos = (at - self.win_start) as usize;
        let held = Self::window(&self.rlease, &self.rbuf).len() - pos;
        Ok(Some(pos..pos + (held as u64).min(avail) as usize))
    }

    /// Lend `to` the next run of the logical stream, at most `limit` bytes
    /// of it, and step past them: the rest of the decoded frame in
    /// compressed mode, the stored run at the cursor otherwise. When the
    /// run is all of a lease the backend lent, `to` gets that lease too, so
    /// a writer can hand the backing storage on instead of its bytes.
    /// Returns the length lent, `None` at the end of the stream.
    fn lend(
        &mut self,
        limit: usize,
        to: impl FnOnce(&[u8], Option<&ByteLease>),
    ) -> Result<Option<usize>> {
        if self.dec.is_some() {
            while self.decoded_pos == self.dec.as_ref().expect("compressed mode").frame().len() {
                if !self.next_frame()? {
                    return Ok(None);
                }
            }
            let frame = self.dec.as_ref().expect("compressed mode").frame();
            let n = (frame.len() - self.decoded_pos).min(limit);
            to(&frame[self.decoded_pos..self.decoded_pos + n], None);
            self.decoded_pos += n;
            return Ok(Some(n));
        }
        let Some(run) = self.fetch()? else {
            return Ok(None);
        };
        let n = run.len().min(limit);
        let whole = self
            .rlease
            .as_ref()
            .filter(|lease| run.start == 0 && n == lease.len());
        to(
            &Self::window(&self.rlease, &self.rbuf)[run.start..run.start + n],
            whole,
        );
        self.off += n as u64;
        Ok(Some(n))
    }

    /// `read`'s way around the window, the only one-copy path a backend
    /// without leases has: a plain request for at least a window's worth of
    /// the current chunk, with nothing held at the cursor and no sieving,
    /// goes straight into the caller's buffer. Returns the bytes read, 0
    /// when the request is for the window to serve.
    fn read_direct(&mut self, buf: &mut [u8]) -> Result<usize> {
        if self.dec.is_some() || self.sieve > 0 {
            return Ok(0);
        }
        let Some((at, avail)) = self.cursor() else {
            return Ok(0);
        };
        let take = (avail as usize).min(buf.len());
        if take < self.ra_cap || self.holds(at) {
            return Ok(0);
        }
        self.file.read_exact_at(&mut buf[..take], at)?;
        self.counters.vfs_calls += 1;
        self.counters.vfs_bytes += take as u64;
        self.off += take as u64;
        Ok(take)
    }

    /// `sion_fread`: read up to `buf.len()` bytes of the logical stream
    /// (decompressed in compressed mode), crossing chunk boundaries.
    /// Returns the number of bytes read; 0 signals end of stream.
    pub(crate) fn read(&mut self, buf: &mut [u8]) -> Result<usize> {
        self.counters.user_calls += 1;
        let mut done = 0;
        while done < buf.len() {
            let rest = &mut buf[done..];
            let direct = self.read_direct(rest)?;
            if direct > 0 {
                done += direct;
                continue;
            }
            match self.lend(rest.len(), |run, _| rest[..run.len()].copy_from_slice(run)) {
                Ok(Some(n)) => {
                    self.counters.bytes_copied += n as u64;
                    done += n;
                }
                Ok(None) => break,
                // Verified bytes are served first; a decode failure is
                // sticky, so the next call reports it.
                Err(SionError::Compression(_)) if done > 0 => break,
                Err(e) => return Err(e),
            }
        }
        Ok(done)
    }

    /// Borrow-based streaming pass over the rest of the logical stream;
    /// returns the bytes handed to `sink`.
    ///
    /// Plain mode: each stored run goes to `sink` straight from the window
    /// — lent extents on a backend with leases (zero bytes copied:
    /// `sionverify`'s inspection pass runs this over `MemFs` without a
    /// single memcpy), the owned window elsewhere.
    ///
    /// Compressed mode: each frame is decoded into the decoder's one reused
    /// buffer and lent to `sink` from there, so nothing is materialised;
    /// stored bytes are decoded where the window holds them.
    pub(crate) fn scan_remaining(&mut self, sink: &mut dyn FnMut(&[u8])) -> Result<u64> {
        self.scan_runs(&mut |run, _| sink(run))
    }

    /// [`scan_remaining`](Self::scan_remaining), handing `sink` each run
    /// together with the lease it is all of, if it is one: what a copy
    /// passes to [`TaskWriter::write_run`].
    pub(crate) fn scan_runs(
        &mut self,
        sink: &mut dyn FnMut(&[u8], Option<&ByteLease>),
    ) -> Result<u64> {
        self.counters.user_calls += 1;
        let mut total = 0u64;
        while let Some(n) = self.lend(usize::MAX, &mut *sink)? {
            total += n as u64;
        }
        Ok(total)
    }

    /// Read exactly `buf.len()` bytes or fail.
    pub(crate) fn read_exact(&mut self, buf: &mut [u8]) -> Result<()> {
        let n = self.read(buf)?;
        if n != buf.len() {
            // Not an ordinary end of stream if the stream is broken there.
            if let Some(e) = &self.dec_failed {
                return Err(e.clone().into());
            }
            return Err(SionError::Io(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                format!("logical stream ended after {n} of {} bytes", buf.len()),
            )));
        }
        Ok(())
    }

    /// Compressed mode: decode the next frame of the stored stream into the
    /// decoder's frame buffer. `Ok(false)` at the end of the stream — which
    /// must be a frame boundary: stored data that stops inside a frame is
    /// [`szip::SzipError::Truncated`], not an early end.
    fn next_frame(&mut self) -> Result<bool> {
        if let Some(e) = &self.dec_failed {
            return Err(e.clone().into());
        }
        let res = self.pull_frame();
        if let Err(SionError::Compression(e)) = &res {
            self.dec_failed = Some(e.clone());
        }
        res
    }

    fn pull_frame(&mut self) -> Result<bool> {
        loop {
            let Some(run) = self.fetch()? else {
                let dec = self.dec.as_ref().expect("compressed mode");
                return if dec.is_frame_boundary() {
                    Ok(false)
                } else {
                    Err(szip::SzipError::Truncated.into())
                };
            };
            // The run is decoded where the window holds it: only a frame
            // that straddles two runs is copied (into the decoder, to be
            // completed there).
            let dec = self.dec.as_mut().expect("compressed mode");
            let buffered = dec.buffered_bytes();
            // The call drops the frame the caller has finished with.
            self.decoded_pos = 0;
            let (taken, decoded) = dec.decode_next(&Self::window(&self.rlease, &self.rbuf)[run])?;
            self.counters.bytes_copied += dec.buffered_bytes() - buffered;
            self.off += taken as u64;
            if decoded {
                return Ok(true);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::{Alignment, FileLayout};
    use vfs::{MemFs, Vfs};

    fn setup(reqs: &[u64], align: Alignment, rescue: bool) -> (MemFs, FileLayout) {
        let fs = MemFs::with_block_size(256);
        let layout = FileLayout::compute(reqs, 256, align, rescue).unwrap();
        (fs, layout)
    }

    fn writer(fs: &MemFs, layout: &FileLayout, ltask: usize, compressed: bool) -> TaskWriter {
        writer_buffered(fs, layout, ltask, compressed, DEFAULT_WRITE_BUFFER)
    }

    fn writer_buffered(
        fs: &MemFs,
        layout: &FileLayout,
        ltask: usize,
        compressed: bool,
        write_buffer: u64,
    ) -> TaskWriter {
        let file = if fs.exists("f") {
            fs.open_rw("f").unwrap()
        } else {
            fs.create("f").unwrap()
        };
        TaskWriter::new(
            file,
            layout.geom(ltask, ltask as u64),
            compressed,
            write_buffer,
        )
    }

    fn reader(
        file: Arc<dyn VfsFile>,
        geom: ChunkGeom,
        used: Vec<u64>,
        compressed: bool,
    ) -> TaskReader {
        TaskReader::new(file, geom, used, compressed, DEFAULT_READ_AHEAD)
    }

    #[test]
    fn single_chunk_write_read() {
        let (fs, layout) = setup(&[100], Alignment::None, false);
        let mut w = writer(&fs, &layout, 0, false);
        w.ensure_free_space(50).unwrap();
        w.write_in_chunk(b"hello chunk").unwrap();
        let used = w.finish().unwrap();
        assert_eq!(used, vec![11]);

        let file = fs.open("f").unwrap();
        let mut r = reader(file, layout.geom(0, 0), used, false);
        assert!(!r.feof());
        assert_eq!(r.bytes_avail_in_chunk(), 11);
        let mut buf = vec![0u8; 11];
        r.read_exact(&mut buf).unwrap();
        assert_eq!(&buf, b"hello chunk");
        assert!(r.feof());
        assert_eq!(r.read(&mut buf).unwrap(), 0);
    }

    #[test]
    fn fwrite_splits_across_blocks() {
        let (fs, layout) = setup(&[256], Alignment::FsBlock, false);
        let mut w = writer(&fs, &layout, 0, false);
        let data: Vec<u8> = (0..1000).map(|i| (i % 251) as u8).collect();
        w.write(&data).unwrap();
        let used = w.finish().unwrap();
        assert_eq!(used, vec![256, 256, 256, 232]);
        assert_eq!(w.current_block(), 3);

        let file = fs.open("f").unwrap();
        let mut r = reader(file, layout.geom(0, 0), used, false);
        let mut back = vec![0u8; 1000];
        r.read_exact(&mut back).unwrap();
        assert_eq!(back, data);
        assert!(r.feof());
    }

    #[test]
    fn ensure_free_space_advances_and_leaves_gap() {
        let (fs, layout) = setup(&[100], Alignment::None, false);
        let mut w = writer(&fs, &layout, 0, false);
        w.ensure_free_space(60).unwrap();
        w.write_in_chunk(&[1u8; 60]).unwrap();
        // 40 left; asking for 50 must jump to block 1.
        w.ensure_free_space(50).unwrap();
        assert_eq!(w.current_block(), 1);
        w.write_in_chunk(&[2u8; 50]).unwrap();
        let used = w.finish().unwrap();
        assert_eq!(used, vec![60, 50]);

        let file = fs.open("f").unwrap();
        let mut r = reader(file, layout.geom(0, 0), used, false);
        let mut all = vec![0u8; 110];
        r.read_exact(&mut all).unwrap();
        assert_eq!(&all[..60], &[1u8; 60][..]);
        assert_eq!(&all[60..], &[2u8; 50][..]);
    }

    #[test]
    fn piece_larger_than_chunk_rejected_by_ensure() {
        let (fs, layout) = setup(&[100], Alignment::None, false);
        let mut w = writer(&fs, &layout, 0, false);
        assert!(matches!(
            w.ensure_free_space(101),
            Err(SionError::PieceTooLarge {
                requested: 101,
                capacity: 100
            })
        ));
        // But the splitting write handles it fine.
        w.write(&[9u8; 350]).unwrap();
        assert_eq!(w.finish().unwrap(), vec![100, 100, 100, 50]);
    }

    #[test]
    fn interleaved_tasks_do_not_collide() {
        let (fs, layout) = setup(&[64, 64, 64], Alignment::FsBlock, false);
        let mut ws: Vec<TaskWriter> = (0..3).map(|t| writer(&fs, &layout, t, false)).collect();
        for round in 0..4u8 {
            for (t, w) in ws.iter_mut().enumerate() {
                w.write(&[t as u8 * 16 + round; 100]).unwrap();
            }
        }
        let useds: Vec<Vec<u64>> = ws.iter_mut().map(|w| w.finish().unwrap()).collect();
        for (t, used) in useds.iter().enumerate() {
            let file = fs.open("f").unwrap();
            let mut r = reader(file, layout.geom(t, t as u64), used.clone(), false);
            let mut back = vec![0u8; 400];
            r.read_exact(&mut back).unwrap();
            for round in 0..4 {
                assert!(
                    back[round * 100..(round + 1) * 100]
                        .iter()
                        .all(|&b| b == t as u8 * 16 + round as u8),
                    "task {t} round {round} corrupted"
                );
            }
            assert!(r.feof());
        }
    }

    #[test]
    fn compressed_stream_roundtrip() {
        let (fs, layout) = setup(&[256], Alignment::FsBlock, false);
        let mut w = writer(&fs, &layout, 0, true);
        let data = b"compressible compressible compressible ".repeat(100);
        w.write(&data).unwrap();
        let used = w.finish().unwrap();
        let stored: u64 = used.iter().sum();
        assert!(
            stored < data.len() as u64 / 2,
            "stored {stored} of {}",
            data.len()
        );

        let file = fs.open("f").unwrap();
        let mut r = reader(file, layout.geom(0, 0), used, true);
        assert!(!r.feof());
        let mut back = vec![0u8; data.len()];
        r.read_exact(&mut back).unwrap();
        assert_eq!(back, data);
        assert!(r.feof());
    }

    #[test]
    fn compressed_mode_rejects_raw_calls() {
        let (fs, layout) = setup(&[256], Alignment::FsBlock, false);
        let mut w = writer(&fs, &layout, 0, true);
        assert!(w.ensure_free_space(10).is_err());
        assert!(w.write_in_chunk(b"x").is_err());
    }

    #[test]
    fn rescue_headers_written_and_patched() {
        let (fs, layout) = setup(&[200], Alignment::FsBlock, true);
        let mut w = writer(&fs, &layout, 0, false);
        w.write(&vec![7u8; 300]).unwrap(); // spans two chunks
        let used = w.finish().unwrap();
        assert_eq!(used.len(), 2);

        let file = fs.open("f").unwrap();
        for (b, &u) in used.iter().enumerate() {
            let mut hdr = [0u8; RESCUE_HEADER_LEN as usize];
            file.read_exact_at(&mut hdr, layout.chunk_start(0, b as u64))
                .unwrap();
            let h = RescueHeader::decode(&hdr).unwrap();
            assert_eq!(h.global_rank, 0);
            assert_eq!(h.block, b as u64);
            assert_eq!(h.used, u);
        }
        // Data reads back despite the headers.
        let mut r = reader(fs.open("f").unwrap(), layout.geom(0, 0), used, false);
        let mut back = vec![0u8; 300];
        r.read_exact(&mut back).unwrap();
        assert_eq!(back, vec![7u8; 300]);
    }

    #[test]
    fn reader_skips_zero_use_blocks() {
        let (fs, layout) = setup(&[100], Alignment::None, false);
        let mut w = writer(&fs, &layout, 0, false);
        w.ensure_free_space(100).unwrap();
        w.write_in_chunk(&[1u8; 100]).unwrap();
        // Jump straight to block 2, leaving block 1 untouched.
        w.seek(2, 0).unwrap();
        w.write_in_chunk(&[2u8; 10]).unwrap();
        let used = w.finish().unwrap();
        assert_eq!(used, vec![100, 0, 10]);

        let mut r = reader(fs.open("f").unwrap(), layout.geom(0, 0), used, false);
        let mut back = vec![0u8; 110];
        r.read_exact(&mut back).unwrap();
        assert_eq!(&back[..100], &[1u8; 100][..]);
        assert_eq!(&back[100..], &[2u8; 10][..]);
        assert!(r.feof());
    }

    #[test]
    fn empty_stream_is_immediately_eof() {
        let (fs, layout) = setup(&[100], Alignment::None, false);
        let mut w = writer(&fs, &layout, 0, false);
        let used = w.finish().unwrap();
        // Never-written trailing blocks are trimmed away entirely.
        assert_eq!(used, Vec::<u64>::new());
        let mut r = reader(fs.open("f").unwrap(), layout.geom(0, 0), used, false);
        assert!(r.feof());
    }

    #[test]
    fn small_records_coalesce_into_few_vfs_writes() {
        let (fs, layout) = setup(&[4096], Alignment::None, false);
        let mut w = writer_buffered(&fs, &layout, 0, false, 4096);
        for i in 0..64u8 {
            w.write(&[i; 64]).unwrap();
        }
        let used = w.finish().unwrap();
        let c = w.io_counters();
        assert_eq!(c.user_calls, 64);
        // 64 × 64 B = 4096 B = exactly one buffer fill → one VFS write.
        assert_eq!(c.vfs_calls, 1, "{c:?}");
        assert_eq!(c.vfs_bytes, 4096);
        assert_eq!(c.flushes, 1);

        let mut r = reader(fs.open("f").unwrap(), layout.geom(0, 0), used, false);
        let mut back = vec![0u8; 4096];
        r.read_exact(&mut back).unwrap();
        for i in 0..64usize {
            assert!(back[i * 64..(i + 1) * 64].iter().all(|&b| b == i as u8));
        }
        // 64 user read segments served by one read-ahead fetch.
        let rc = r.io_counters();
        assert_eq!(rc.vfs_calls, 1, "{rc:?}");
    }

    #[test]
    fn buffered_and_unbuffered_files_are_identical() {
        for rescue in [false, true] {
            let mk = |buffer: u64| {
                let fs = MemFs::with_block_size(256);
                let layout = FileLayout::compute(&[200], 256, Alignment::None, rescue).unwrap();
                let mut w = writer_buffered(&fs, &layout, 0, false, buffer);
                for i in 0..40u16 {
                    w.write(&[i as u8; 37]).unwrap();
                }
                let used = w.finish().unwrap();
                let f = fs.open("f").unwrap();
                let mut all = vec![0u8; f.len().unwrap() as usize];
                f.read_exact_at(&mut all, 0).unwrap();
                (used, all)
            };
            let (used_buf, bytes_buf) = mk(1024);
            let (used_raw, bytes_raw) = mk(0);
            assert_eq!(used_buf, used_raw, "rescue={rescue}");
            assert_eq!(bytes_buf, bytes_raw, "rescue={rescue}");
        }
    }

    #[test]
    fn write_through_defers_rescue_patch_to_flush_points() {
        let (fs, layout) = setup(&[200], Alignment::FsBlock, true);
        let mut w = writer_buffered(&fs, &layout, 0, false, 0);
        w.write(&[3u8; 50]).unwrap();
        w.write(&[4u8; 50]).unwrap();
        // Header exists (written on chunk entry) but `used` is still 0:
        // patches happen at flush points, not per put.
        let file = fs.open("f").unwrap();
        let mut hdr = [0u8; RESCUE_HEADER_LEN as usize];
        file.read_exact_at(&mut hdr, layout.chunk_start(0, 0))
            .unwrap();
        assert_eq!(RescueHeader::decode(&hdr).unwrap().used, 0);

        w.flush().unwrap();
        file.read_exact_at(&mut hdr, layout.chunk_start(0, 0))
            .unwrap();
        assert_eq!(RescueHeader::decode(&hdr).unwrap().used, 100);
        assert_eq!(w.io_counters().rescue_patches, 1);

        // Nothing new was written since the flush: finish patches nothing.
        w.finish().unwrap();
        assert_eq!(w.io_counters().rescue_patches, 1);
        w.write(&[5u8; 10]).unwrap();
        w.finish().unwrap();
        assert_eq!(w.io_counters().rescue_patches, 2);
    }

    #[test]
    fn explicit_flush_makes_buffered_data_durable() {
        let (fs, layout) = setup(&[100], Alignment::None, false);
        let mut w = writer_buffered(&fs, &layout, 0, false, 64);
        w.write(b"pending").unwrap();
        // Not yet flushed: nothing at the data offset.
        let file = fs.open("f").unwrap();
        let mut probe = [0u8; 7];
        let at = layout.data_start + layout.rescue_overhead;
        let _ = file.read_at(&mut probe, at);
        assert_ne!(&probe, b"pending", "write must still be buffered");
        w.flush().unwrap();
        file.read_exact_at(&mut probe, at).unwrap();
        assert_eq!(&probe, b"pending");
        assert_eq!(w.io_counters().flushes, 1);
    }

    #[test]
    fn buffered_writer_handles_seeks_and_rewrites() {
        let (fs, layout) = setup(&[100], Alignment::None, false);
        let mut w = writer_buffered(&fs, &layout, 0, false, 32);
        w.write(&[1u8; 60]).unwrap();
        w.seek(0, 10).unwrap();
        w.write(&[2u8; 20]).unwrap();
        w.seek(1, 0).unwrap();
        w.write(&[3u8; 5]).unwrap();
        let used = w.finish().unwrap();
        assert_eq!(used, vec![60, 5]);

        let mut r = reader(fs.open("f").unwrap(), layout.geom(0, 0), used, false);
        let mut back = vec![0u8; 65];
        r.read_exact(&mut back).unwrap();
        assert_eq!(&back[..10], &[1u8; 10][..]);
        assert_eq!(&back[10..30], &[2u8; 20][..]);
        assert_eq!(&back[30..60], &[1u8; 30][..]);
        assert_eq!(&back[60..], &[3u8; 5][..]);
    }

    #[test]
    fn large_records_bypass_buffer_as_one_vectored_write() {
        // (write buffer, staged small record, large record, large records)
        let inputs = [
            // The large record rides out in ONE vectored submission together
            // with the pending small one, never touching the buffer itself.
            (32, 10usize, 100usize, 1u64),
            // 1 MiB records through the default buffer stage nothing at all.
            (DEFAULT_WRITE_BUFFER, 0, 1 << 20, 4),
        ];
        for (write_buffer, small, large, n_large) in inputs {
            let total = small as u64 + n_large * large as u64;
            let (fs, layout) = setup(&[total], Alignment::None, false);
            let mut w = writer_buffered(&fs, &layout, 0, false, write_buffer);
            w.write(&vec![1u8; small]).unwrap();
            let record = vec![2u8; large];
            for _ in 0..n_large {
                w.write(&record).unwrap();
            }
            let c = w.io_counters();
            assert_eq!(c.vectored_writes, n_large, "{c:?}");
            assert_eq!(c.vfs_calls, n_large, "{c:?}");
            assert_eq!(c.vfs_bytes, total);
            assert_eq!(
                c.bytes_copied, small as u64,
                "only the small record was staged: {c:?}"
            );
            let used = w.finish().unwrap();
            assert_eq!(used, vec![total]);
            let mut r = reader(fs.open("f").unwrap(), layout.geom(0, 0), used, false);
            let mut back = vec![0u8; total as usize];
            r.read_exact(&mut back).unwrap();
            assert!(back[..small].iter().all(|&b| b == 1));
            assert!(back[small..].iter().all(|&b| b == 2));
        }
    }

    #[test]
    fn rescue_header_rides_along_in_the_vectored_submit() {
        let (fs, layout) = setup(&[200], Alignment::FsBlock, true);
        let usable = layout.usable(0);
        // A recording writer (what an aggregated-mode member runs): the
        // submit funnel logs each VFS write as `[u64 at][u64 len][bytes]`
        // behind the frame's 8-byte sequence slot.
        let mut w = writer_buffered(&fs, &layout, 0, false, 32).into_member(0);
        let extents = |w: &TaskWriter| frame_extents(&w.wbuf[..w.frame_cut()]);
        // First touch of the chunk with a large record: header slice +
        // payload slice land in one vectored write.
        w.write(&vec![9u8; usable as usize]).unwrap();
        let c = w.io_counters();
        assert_eq!(c.vectored_writes, 1, "{c:?}");
        assert_eq!(c.vfs_calls, 1, "header was not a separate write: {c:?}");
        assert_eq!(c.vfs_bytes, RESCUE_HEADER_LEN + usable);
        // ... logged as ONE extent at the chunk start: the slices end to end.
        let header = RescueHeader {
            global_rank: 0,
            block: 0,
            used: 0,
        }
        .encode();
        let submitted = [&header[..], &vec![9u8; usable as usize]].concat();
        assert_eq!(
            extents(&w),
            vec![(layout.chunk_start(0, 0), submitted.clone())]
        );
        let used = w.finish().unwrap();
        assert_eq!(used, vec![usable]);
        // The later `used` patch is a second, 8-byte extent.
        let patch_at = layout.chunk_start(0, 0) + RescueHeader::USED_FIELD_OFFSET;
        assert_eq!(
            extents(&w),
            vec![
                (layout.chunk_start(0, 0), submitted),
                (patch_at, usable.to_le_bytes().to_vec())
            ]
        );
        let file = fs.open("f").unwrap();
        let mut hdr = [0u8; RESCUE_HEADER_LEN as usize];
        file.read_exact_at(&mut hdr, layout.chunk_start(0, 0))
            .unwrap();
        let h = RescueHeader::decode(&hdr).unwrap();
        assert_eq!((h.global_rank, h.block, h.used), (0, 0, usable));
    }

    /// The extents `(at, bytes)` of a frame, behind its sequence slot.
    fn frame_extents(frame: &[u8]) -> Vec<(u64, Vec<u8>)> {
        let word = |p: usize| u64::from_le_bytes(frame[p..p + 8].try_into().unwrap());
        let mut out = Vec::new();
        let mut p = agg::SEQ_LEN;
        while p < frame.len() {
            let len = word(p + 8) as usize;
            out.push((word(p), frame[p + 16..p + 16 + len].to_vec()));
            p += 16 + len;
        }
        out
    }

    #[test]
    fn member_frames_carry_exactly_the_shadow_writes() {
        // (write buffer, record sizes): 700 B records through a 1 KiB
        // buffer leave a staged tail to carry into the next frame at every
        // ship; write-through; records at or above the buffer size, with
        // and without staged bytes ahead of them; 1 B records.
        let cases: [(u64, Vec<usize>); 4] = [
            (1024, vec![700; 9]),
            (0, vec![700; 9]),
            (256, vec![300, 1000, 50, 256, 256, 10, 700]),
            (1024, vec![1; 3000]),
        ];
        for rescue in [false, true] {
            for (write_buffer, records) in &cases {
                let (fs, layout) = setup(&[2000], Alignment::FsBlock, rescue);
                let ship_cap = *write_buffer as usize;
                let mut w =
                    writer_buffered(&fs, &layout, 0, false, *write_buffer).into_member(ship_cap);
                let m = agg::MemberState::new(0, ship_cap);
                let file = fs.open("f").unwrap();
                let contents = || {
                    let mut buf = vec![0u8; file.len().unwrap() as usize];
                    file.read_exact_at(&mut buf, 0).unwrap();
                    buf
                };
                // What an aggregator makes of the frames shipped so far.
                let (mut image, mut extents, mut bytes, mut frames) = (Vec::new(), 0, 0, 0);
                let mut apply = |frame: Vec<u8>| {
                    frames += 1;
                    for (at, data) in frame_extents(&frame) {
                        let end = at as usize + data.len();
                        image.resize(image.len().max(end), 0);
                        image[at as usize..end].copy_from_slice(&data);
                        extents += 1;
                        bytes += data.len() as u64;
                    }
                    image.clone()
                };
                let record = |i: usize, n: usize| vec![(i % 251) as u8 + 1; n];
                for (i, &n) in records.iter().enumerate() {
                    w.write(&record(i, n)).unwrap();
                    if m.due(w.recorded(), false) {
                        // Every write issued so far ships, staged bytes do not.
                        assert_eq!(apply(w.take_frame(true)), contents(), "{write_buffer} {i}");
                    }
                }
                w.finish().unwrap();
                assert_eq!(apply(w.take_frame(false)), contents(), "{write_buffer}");
                let c = w.io_counters();
                assert!(frames > 2, "{write_buffer}: {frames} frames");
                assert_eq!(
                    (extents, bytes),
                    (c.vfs_calls, c.vfs_bytes),
                    "one extent per write"
                );
                // A member's counters are an independent writer's.
                let (fs, layout) = setup(&[2000], Alignment::FsBlock, rescue);
                let mut plain = writer_buffered(&fs, &layout, 0, false, *write_buffer);
                for (i, &n) in records.iter().enumerate() {
                    plain.write(&record(i, n)).unwrap();
                }
                plain.finish().unwrap();
                assert_eq!(plain.io_counters(), c);
            }
        }
    }

    #[test]
    fn a_member_ships_its_staged_bytes_in_the_allocation_they_were_staged_into() {
        let start = setup(&[4096], Alignment::None, false).1.chunk_start(0, 0);
        let got = simmpi::TaskWorld::run(2, |c| async move {
            if c.rank() == 0 {
                let frame = c.recv(1, simmpi::AGG_SHIP_TAG_PREFIX).await;
                return (frame.as_ptr() as usize, frame_extents(&frame));
            }
            let (fs, layout) = setup(&[4096], Alignment::None, false);
            let mut w = writer_buffered(&fs, &layout, 0, false, 1024).into_member(1024);
            w.write(&[7u8; 256]).unwrap();
            let staged_at = w.staged().as_ptr() as usize;
            // The fourth record fills the run: it is flushed in place.
            for _ in 0..3 {
                w.write(&[7u8; 256]).unwrap();
            }
            let frame = w.take_frame(true);
            let data_at = frame[agg::SEQ_LEN + agg::EXTENT_HEADER..].as_ptr() as usize;
            assert_eq!(data_at, staged_at, "the flush copied the staged run");
            let mut m = agg::MemberState::new(0, 1024);
            m.ship(frame, &c);
            (staged_at - agg::SEQ_LEN - agg::EXTENT_HEADER, Vec::new())
        });
        assert_eq!(got[0].0, got[1].0, "the mailbox copied the frame");
        assert_eq!(got[0].1, vec![(start, vec![7u8; 1024])]);
    }

    /// A plain writer over `file` with an 8 KiB buffer and the 4 KiB-aligned
    /// chunk geometry of a 4 KiB-block file system, with or without rescue
    /// headers (which put the first run 32 bytes past the block start).
    fn writer_8k(file: Arc<dyn VfsFile>, rescue: bool) -> (TaskWriter, u64) {
        let layout = FileLayout::compute(&[1 << 16], 4096, Alignment::FsBlock, rescue).unwrap();
        let geom = layout.geom(0, 0);
        assert_eq!(geom.chunk_start(0) % 4096, 0);
        (
            TaskWriter::new(file, geom, false, 8192),
            geom.data_offset(0),
        )
    }

    #[test]
    fn a_full_buffer_is_adopted_by_memfs_and_the_counters_do_not_tell() {
        let fs = MemFs::with_block_size(4096);
        let (mut w, at) = writer_8k(fs.create("f").unwrap(), false);
        w.write(&[1u8; 4096]).unwrap();
        let staged_at = w.staged().as_ptr();
        // The second record fills the buffer: the flush hands it over.
        w.write(&[2u8; 4096]).unwrap();
        // One extent per FS block, both in the staged buffer.
        let f = fs.open("f").unwrap();
        let second = f.read_lease(at + 4096, 4096).unwrap();
        assert_eq!(f.read_lease(at, 4096).unwrap().as_ptr(), staged_at);
        assert_eq!(second.as_ptr(), staged_at.wrapping_add(4096));
        assert!(second.iter().all(|&b| b == 2));
        w.write(&[3u8; 64]).unwrap();
        assert_ne!(w.staged().as_ptr(), staged_at, "a fresh buffer");
        w.finish().unwrap();
        // The same writes through a backend that copies count the same.
        let (mut copied, _) = writer_8k(Arc::new(vfs::NullFile::new()), false);
        for record in [&[1u8; 4096][..], &[2u8; 4096], &[3u8; 64]] {
            copied.write(record).unwrap();
        }
        copied.finish().unwrap();
        assert_eq!(w.io_counters(), copied.io_counters());
        assert_eq!(w.io_counters().allocs, 1, "{:?}", w.io_counters());
    }

    #[test]
    fn a_buffer_the_backend_copies_comes_back_to_its_writer() {
        // A backend that copies every lease, and a MemFs run that is not at
        // a page boundary (behind a rescue header): the writer reuses its
        // one buffer.
        let fs = MemFs::with_block_size(4096);
        for (file, rescue) in [
            (Arc::new(vfs::NullFile::new()) as Arc<dyn VfsFile>, false),
            (fs.create("f").unwrap(), true),
        ] {
            let (mut w, _) = writer_8k(file, rescue);
            w.write(&[1u8; 64]).unwrap();
            let staged_at = w.staged().as_ptr();
            for _ in 0..3 {
                w.write(&[2u8; 8192 - 64]).unwrap();
                w.write(&[3u8; 64]).unwrap();
            }
            assert!(w.io_counters().flushes >= 2, "rescue {rescue}");
            assert_eq!(w.staged().as_ptr(), staged_at, "rescue {rescue}");
            assert_eq!(w.io_counters().allocs, 1, "rescue {rescue}");
            w.finish().unwrap();
        }
    }

    #[test]
    fn a_record_that_completes_no_frame_keeps_the_encoders_output_buffer() {
        let (fs, layout) = setup(&[1 << 20], Alignment::None, false);
        let mut w = writer(&fs, &layout, 0, true);
        let record: Vec<u8> = (0..szip::FRAME_RAW_MAX).map(|i| (i % 7) as u8).collect();
        w.write(&record).unwrap();
        let out = |w: &mut TaskWriter| {
            let enc = w.enc.as_mut().unwrap();
            let out = enc.take_output();
            let cap = out.capacity();
            enc.recycle(out);
            cap
        };
        let cap = out(&mut w);
        assert!(cap > 0, "a frame was forwarded and its buffer handed back");
        w.write(&[5u8; 64]).unwrap();
        assert_eq!(out(&mut w), cap, "the 64 B record dropped the buffer");
        w.finish().unwrap();
    }

    #[test]
    fn borrow_scan_copies_nothing_on_memfs() {
        // A full-page borrow-read: 4096 bytes written, scanned back via
        // page leases — the engine moves every byte with zero memcpys.
        let (fs, layout) = setup(&[4096], Alignment::None, false);
        let mut w = writer_buffered(&fs, &layout, 0, false, 0);
        let data: Vec<u8> = (0..4096).map(|i| (i % 239) as u8).collect();
        w.write(&data).unwrap();
        let used = w.finish().unwrap();

        let mut r = reader(fs.open("f").unwrap(), layout.geom(0, 0), used, false);
        let mut back = Vec::new();
        let n = r
            .scan_remaining(&mut |piece| back.extend_from_slice(piece))
            .unwrap();
        assert_eq!(n, 4096);
        assert_eq!(back, data);
        let c = r.io_counters();
        assert_eq!(c.bytes_copied, 0, "leases served the whole scan: {c:?}");
        assert_eq!(c.allocs, 0, "no bounce buffer was needed: {c:?}");
        assert!(r.feof());
    }

    #[test]
    fn scan_runs_hands_on_a_lease_only_when_the_run_is_all_of_it() {
        // Sieved 100-byte chunks: a page lease at the cursor also holds the
        // other tasks' segments, so no run is a whole lease. Page-multiple
        // chunks: every run is one.
        for (chunk, align) in [(100u64, Alignment::None), (8192, Alignment::FsBlock)] {
            let fs = MemFs::with_block_size(4096);
            let layout = FileLayout::compute(&[chunk; 4], 4096, align, false).unwrap();
            let data: Vec<u8> = (0..3 * chunk as usize).map(|i| (i % 251) as u8).collect();
            let mut used = Vec::new();
            for t in 0..4 {
                let mut w = writer(&fs, &layout, t, false);
                w.write(&data).unwrap();
                used = w.finish().unwrap();
            }
            let geom = layout.geom(3, 3);
            let mut r = reader(fs.open("f").unwrap(), geom, used, false);
            let (mut back, mut lent, mut runs) = (Vec::new(), 0, 0);
            r.scan_runs(&mut |run, lease| {
                back.extend_from_slice(run);
                runs += 1;
                if let Some(lease) = lease {
                    assert_eq!((lease.as_ptr(), lease.len()), (run.as_ptr(), run.len()));
                    lent += 1;
                }
            })
            .unwrap();
            assert_eq!(back, data);
            assert_eq!(
                lent,
                if chunk == 100 { 0 } else { runs },
                "chunk {chunk}: {runs} runs"
            );
        }
    }

    #[test]
    fn write_run_hands_on_a_lease_only_when_writing_through_plain() {
        let src = MemFs::new();
        let page: Vec<u8> = (0..4096).map(|i| (i % 233) as u8).collect();
        let s = src.create("page").unwrap();
        s.write_all_at(&page, 0).unwrap();
        let lease = s.read_lease(0, 4096).unwrap();
        // (chunk request, write buffer, compressed, bytes written first,
        // adopted): write-through, buffered, compressed, and a lease the
        // rest of one chunk cannot take.
        let cases = [
            (8192, 0, false, 0, true),
            (8192, 4096, false, 0, false),
            (8192, 0, true, 0, false),
            (4096, 0, false, 100, false),
        ];
        for (req, buffer, compressed, lead, adopted) in cases {
            let layout = FileLayout::compute(&[req], 4096, Alignment::FsBlock, false).unwrap();
            let run = |with_lease: bool| {
                let fs = MemFs::with_block_size(4096);
                let mut w = writer_buffered(&fs, &layout, 0, compressed, buffer);
                w.write(&page[..lead]).unwrap();
                w.write_run(&lease, Some(&lease).filter(|_| with_lease))
                    .unwrap();
                let used = w.finish().unwrap();
                let f = fs.open("f").unwrap();
                let mut bytes = vec![0u8; f.len().unwrap() as usize];
                f.read_exact_at(&mut bytes, 0).unwrap();
                (fs, used, bytes, w.io_counters())
            };
            let (fs, used, bytes, counters) = run(true);
            let (_, used_w, bytes_w, counters_w) = run(false);
            let case = format!("chunk {req}, buffer {buffer}, compressed {compressed}");
            assert_eq!(
                (&used, counters),
                (&used_w, counters_w),
                "{case}: as `write` counts"
            );
            assert!(bytes == bytes_w, "{case}: the bytes `write` writes");
            assert_eq!(used.len(), 1 + (lead > 0) as usize, "{case}");
            let geom = layout.geom(0, 0);
            let f = fs.open("f").unwrap();
            let first = f.read_lease(geom.data_offset(0), 4096).unwrap();
            assert_eq!(first.as_ptr() == lease.as_ptr(), adopted, "{case}");
            let mut back = vec![0u8; lead + 4096];
            reader(f, geom, used, compressed)
                .read_exact(&mut back)
                .unwrap();
            assert!(back == [&page[..lead], &page[..]].concat(), "{case}");
        }
        // A lease that is not the run: the run is written, not the lease.
        let layout = FileLayout::compute(&[8192], 4096, Alignment::FsBlock, false).unwrap();
        let other = vec![7u8; 4096];
        for data in [&other[..], &lease[..4095], &lease[1..]] {
            let fs = MemFs::with_block_size(4096);
            let mut w = writer_buffered(&fs, &layout, 0, false, 0);
            w.write_run(data, Some(&lease)).unwrap();
            let used = w.finish().unwrap();
            let f = fs.open("f").unwrap();
            let geom = layout.geom(0, 0);
            let stored = f.read_lease(geom.data_offset(0), data.len()).unwrap();
            assert!(stored.as_ptr() != lease.as_ptr());
            let mut back = vec![0u8; data.len()];
            reader(f, geom, used, false).read_exact(&mut back).unwrap();
            assert!(back == data);
        }
    }

    #[test]
    fn compressed_scan_decodes_in_place_and_counts_its_copies() {
        let write = |fs: &MemFs, layout: &FileLayout, data: &[u8]| {
            let mut w = writer(fs, layout, 0, true);
            w.write(data).unwrap();
            w.finish().unwrap()
        };

        // The whole stored stream in one chunk inside one MemFs page: the
        // lease covers it, the frame is decoded where the page holds it and
        // lent to the sink from the decoder — no byte, stored or logical,
        // is copied by the engine.
        let data = b"decoded where the page holds it, ".repeat(1200);
        let (fs, layout) = setup(&[3000], Alignment::None, false);
        let used = write(&fs, &layout, &data);
        let stored: u64 = used.iter().sum();
        assert!(
            used.len() == 1 && layout.data_start + stored < 4096,
            "{used:?}"
        );
        let geom = layout.geom(0, 0);
        let mut r = reader(fs.open("f").unwrap(), geom, used.clone(), true);
        let mut back = Vec::new();
        let n = r
            .scan_remaining(&mut |frame| back.extend_from_slice(frame))
            .unwrap();
        assert_eq!((n, &back), (data.len() as u64, &data));
        let c = r.io_counters();
        assert_eq!((c.bytes_copied, c.allocs), (0, 0), "{c:?}");
        assert_eq!((c.vfs_calls, c.vfs_bytes), (1, stored), "{c:?}");
        assert!(r.feof());
        assert_eq!(
            r.scan_remaining(&mut |_| panic!("nothing is left"))
                .unwrap(),
            0
        );

        // `read` pays for the copy to the caller, and says so.
        let mut r = reader(fs.open("f").unwrap(), geom, used, true);
        let mut head = vec![0u8; 1000];
        r.read_exact(&mut head).unwrap();
        assert_eq!(r.io_counters().bytes_copied, 1000);
        // A scan picks up in the middle of the frame `read` left.
        let mut rest = Vec::new();
        r.scan_remaining(&mut |frame| rest.extend_from_slice(frame))
            .unwrap();
        assert_eq!([head, rest].concat(), data);
        assert_eq!(r.io_counters().bytes_copied, 1000);

        // Either way the stored bytes are lent, a page's worth at most per
        // VFS call, and nothing is allocated: the only copy is into the
        // decoder, of a frame that straddles two runs — every stored byte
        // where a chunk is smaller than a frame, fewer where a chunk holds
        // whole frames inside one page.
        let data: Vec<u8> = (0..160_000u32)
            .flat_map(|i| (i / 5 % 300).to_le_bytes())
            .collect();
        for chunk in [256u64, 8192] {
            let (fs, layout) = setup(&[chunk], Alignment::FsBlock, false);
            let used = write(&fs, &layout, &data);
            let stored: u64 = used.iter().sum();
            assert!(used.len() > 2, "{used:?}");
            let geom = layout.geom(0, 0);
            let mut r = reader(fs.open("f").unwrap(), geom, used.clone(), true);
            let mut back = Vec::new();
            r.scan_remaining(&mut |frame| back.extend_from_slice(frame))
                .unwrap();
            assert!(back == data);
            let c = r.io_counters();
            assert_eq!(c.allocs, 0, "{c:?}");
            if chunk == 256 {
                assert_eq!(
                    (c.vfs_calls, c.bytes_copied),
                    (used.len() as u64, stored),
                    "{c:?}"
                );
            } else {
                let pages: u64 = (0u64..)
                    .zip(&used)
                    .map(|(b, u)| {
                        let at = geom.data_offset(b);
                        (at + u).div_ceil(4096) - at / 4096
                    })
                    .sum();
                assert_eq!(c.vfs_calls, pages, "one lease per page touched: {c:?}");
                assert!(c.bytes_copied <= stored, "{c:?}");
            }
        }
    }

    #[test]
    fn a_plain_read_takes_one_lease_per_fs_block() {
        // 4 KiB records through the write-behind buffer on 64 KiB FS blocks,
        // as sionbench `bulk_4k` writes them: each FS block is one MemFs
        // extent, and a reader takes one lease per block, whether it scans
        // or reads record by record.
        const BLOCK: u64 = 64 << 10;
        let layout = FileLayout::compute(&[8 * BLOCK], BLOCK, Alignment::FsBlock, false).unwrap();
        let data: Vec<u8> = (0..5 * BLOCK as usize).map(|i| (i % 251) as u8).collect();
        let fs = MemFs::with_block_size(BLOCK);
        let mut w = writer(&fs, &layout, 0, false);
        for record in data.chunks(4096) {
            w.write(record).unwrap();
        }
        let used = w.finish().unwrap();
        let geom = layout.geom(0, 0);
        for scan in [true, false] {
            let mut r = reader(fs.open("f").unwrap(), geom, used.clone(), false);
            let mut back = vec![0u8; data.len()];
            if scan {
                back.clear();
                r.scan_remaining(&mut |run| back.extend_from_slice(run))
                    .unwrap();
            } else {
                for record in back.chunks_mut(4096) {
                    r.read_exact(record).unwrap();
                }
            }
            assert!(back == data, "scan {scan}");
            let c = r.io_counters();
            assert_eq!(c.vfs_calls, 5, "scan {scan}: one lease per FS block: {c:?}");
            assert_eq!(
                c.bytes_copied,
                if scan { 0 } else { data.len() as u64 },
                "{c:?}"
            );
        }
    }

    /// Stored bytes that stop inside a frame are an error, not an early end
    /// of the stream — whether the usage table was cut or a frame header
    /// claims more than was ever written.
    #[test]
    fn compressed_stream_ending_inside_a_frame_is_truncated() {
        let (fs, layout) = setup(&[4096], Alignment::None, false);
        let mut w = writer(&fs, &layout, 0, true);
        let first = b"the first frame is whole. ".repeat(30);
        w.write(&first).unwrap();
        w.flush().unwrap();
        w.write(&b"the second frame will be cut short. ".repeat(30))
            .unwrap();
        let used = w.finish().unwrap();
        let cut = vec![used[0] - 5];
        let truncated =
            |r: Result<usize>| matches!(r, Err(SionError::Compression(szip::SzipError::Truncated)));

        let geom = layout.geom(0, 0);
        let mut r = reader(fs.open("f").unwrap(), geom, cut.clone(), true);
        let mut buf = vec![0u8; 4000];
        // The whole frame is served first, then the error, every time.
        assert_eq!(r.read(&mut buf).unwrap(), first.len());
        assert_eq!(buf[..first.len()], first[..]);
        assert!(truncated(r.read(&mut buf)));
        assert!(truncated(r.read(&mut buf)));
        assert!(truncated(
            r.scan_remaining(&mut |_| panic!("no frame is left"))
                .map(|n| n as usize)
        ));

        let mut r = reader(fs.open("f").unwrap(), geom, cut, true);
        let mut seen = Vec::new();
        let scanned = r.scan_remaining(&mut |frame| seen.extend_from_slice(frame));
        assert!(truncated(scanned.map(|n| n as usize)));
        assert_eq!(seen, first);
        let mut exact = vec![0u8; 10];
        assert!(
            matches!(r.read_exact(&mut exact), Err(SionError::Compression(_))),
            "not an UnexpectedEof"
        );
    }

    #[test]
    fn tiny_reads_served_from_read_ahead_window() {
        let (fs, layout) = setup(&[256], Alignment::FsBlock, false);
        let mut w = writer(&fs, &layout, 0, false);
        let data: Vec<u8> = (0..600).map(|i| (i % 241) as u8).collect();
        w.write(&data).unwrap();
        let used = w.finish().unwrap();

        let mut r = TaskReader::new(fs.open("f").unwrap(), layout.geom(0, 0), used, false, 64);
        let mut back = Vec::new();
        let mut byte = [0u8; 7];
        loop {
            let n = r.read(&mut byte).unwrap();
            if n == 0 {
                break;
            }
            back.extend_from_slice(&byte[..n]);
        }
        assert_eq!(back, data);
        let c = r.io_counters();
        // 600 bytes in 7-byte reads = 86 user calls; windows of ≤64 bytes
        // per block of 256 → 4 fetches per block × 3 blocks (ceil).
        assert!(c.user_calls >= 86, "{c:?}");
        assert!(c.vfs_calls <= 12, "{c:?}");
    }

    #[test]
    fn data_sieving_coalesces_cross_block_segments() {
        // Small unaligned chunks: the layout block stride (4 × 24 bytes)
        // is well under the 256-byte FS block, so one task's chunk
        // segments from *several layout blocks* share each FS block.
        // Sieving must serve them all from one block-sized fetch.
        let (fs, layout) = setup(&[24, 24, 24, 24], Alignment::None, false);
        let data: Vec<u8> = (0..120).map(|i| (i % 211) as u8).collect();
        let mut used = Vec::new();
        for t in 0..4 {
            let mut w = writer(&fs, &layout, t, false);
            for piece in data.chunks(24) {
                w.write(piece).unwrap();
            }
            used = w.finish().unwrap();
        }
        assert_eq!(used, vec![24; 5]);
        let read_all = |read_ahead: u64| {
            let mut r = TaskReader::new(
                fs.open("f").unwrap(),
                layout.geom(1, 1),
                used.clone(),
                false,
                read_ahead,
            );
            let mut back = vec![0u8; 120];
            r.read_exact(&mut back).unwrap();
            assert_eq!(back, data);
            r.io_counters()
        };
        // 5 segments spread over at most 3 FS blocks (480 file bytes plus
        // the metadata offset): sieving needs one fetch per FS block, not
        // one per segment.
        let sieved = read_all(DEFAULT_READ_AHEAD);
        assert!(sieved.vfs_calls <= 3, "{sieved:?}");
        // A read-ahead budget too small for an FS block disables sieving:
        // every 24-byte segment bypasses the 16-byte window separately.
        let plain = read_all(16);
        assert!(plain.vfs_calls >= 5, "{plain:?}");
    }

    #[test]
    fn geom_encode_decode_roundtrip() {
        let g = ChunkGeom {
            data_start: 1,
            block_size: 2,
            chunk_off: 3,
            cap: 4,
            rescue_overhead: 32,
            global_rank: 6,
            fsblksize: 7,
        };
        assert_eq!(ChunkGeom::decode(&g.encode()).unwrap(), g);
        assert!(ChunkGeom::decode(&[1, 2, 3]).is_err());
    }
}
