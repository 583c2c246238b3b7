//! [`MemFs`]: a thread-safe, sparse, in-memory file system.
//!
//! Files are stored as maps of extents, runs of 4 KiB pages; ranges never
//! written are *holes* that consume no memory and read back as zeros. This
//! mirrors the sparse-allocation behaviour of GPFS/Lustre that SIONlib's
//! block-per-task layout depends on ("file systems tend not to physically
//! allocate the empty blocks"), and lets tests assert on *physically
//! allocated* bytes (e.g. that `siondefrag` removes gaps).
//!
//! The FS model counts whole pages ([`MemFsStats::allocated`]); the host
//! memory behind a page holds only the bytes written to it. A write into a
//! hole page stores the page up to the last byte it writes, and the rest of
//! the page reads as zeros, as a hole does; a later write past that point
//! copies the page once into a buffer of twice its stored bytes (at least
//! what the write needs, at most a page), so the copies one page ever takes
//! add up to less than a page ([`MemFsStats::resident`],
//! [`MemFsStats::extended`]). A task's chunk of a few hundred bytes at the
//! start of an FS block costs those bytes, not a page.
//!
//! # Locking: per FS block, not per file
//!
//! A file's extent table is split by FS block (`offset / block_size`, the
//! value [`Vfs::block_size`] advertises) over [`STRIPES`] independently
//! locked maps, as a parallel file system hands out block locks. Tasks
//! whose chunks the layout aligned to FS blocks therefore never wait for
//! each other while sharing one physical file; tasks that do share a block
//! (what [`crate::BlockGuard`] flags) serialise on its lock.
//!
//! Every data operation walks its byte range one FS block at a time and
//! holds that block's lock only, across the copy of that block's bytes —
//! one lock for an operation inside one block. So a write is **atomic per
//! FS block, not per call**: a concurrent reader of a multi-block write may
//! see the leading blocks without the trailing ones, never a torn block.
//! [`VfsFile::set_len`] takes every stripe's lock and so excludes all data
//! operations. The file length is an atomic high-water mark, raised under
//! the lock of the block whose write reached it.
//!
//! # A written byte is copied once
//!
//! An extent is a run of whole pages inside one FS block, backed by one
//! buffer. The whole pages one source slice covers in one FS block become
//! one extent built by copying them: one `Arc<[u8]>`, refcounts and bytes
//! in one heap block — one allocation and one copy, and dropping it one
//! free, however many pages it holds. A writer that staged its bytes in a
//! buffer of its own can skip that copy: [`VfsFile::write_lease_at`] of a
//! [`ByteLease::from_vec`] lease of a whole number of pages at a page
//! boundary makes the writer's buffer itself the file's storage, one
//! extent per FS block it lands in, so each byte was copied once, into the
//! buffer the file adopted. A [`ByteLease`] of a file holds its extent's
//! buffer and runs to the end of the extent, and the same
//! `write_lease_at` puts that buffer into another file (or another place
//! of this one) without copying it. A buffer held twice is never written
//! in place: a write of whole pages replaces them, a partial write and
//! `set_len` copy out the one page they touch first, and the pieces of the
//! extent around it keep sharing the old allocation, so files sharing an
//! extent stay independent.

use crate::{normalize_path, write_end, Backing, ByteLease, IoSlice, Vfs, VfsFile};
use parking_lot::{Mutex, RwLock};
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap, HashMap};
use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Page granularity of the sparse store. Small enough that per-task chunks
/// in tests exercise multi-page paths, large enough to stay fast.
const PAGE: usize = 4096;

/// Number of lock stripes a file's extent table is split into (a power of
/// two). Fixed per file, so the overhead does not grow with the blocks
/// touched; two blocks in flight at once share a stripe with probability
/// 1/64 and then wait for one block's copy at most.
const STRIPES: usize = 64;

/// A run of pages of one FS block: `pages` pages of `buf` from byte `start`
/// on, where the buffer may end inside the last page: that page is *short*,
/// and its unstored end reads as zeros. Every other page is whole. The
/// buffer is one this file built by copying, or one a writer handed over
/// ([`ByteLease::from_vec`]) — always whole pages;
/// [`VfsFile::read_lease`] hands out the buffer itself, and pieces cut from
/// an extent keep sharing it. Writers never change a buffer something else
/// holds, so leases observe a consistent snapshot.
#[derive(Clone)]
struct Extent {
    buf: Backing,
    start: usize,
    pages: u64,
}

impl Extent {
    /// All of `buf`: whole pages, and a short last one if its length is
    /// not a multiple of a page.
    fn whole(buf: Arc<[u8]>) -> Extent {
        let pages = buf.len().div_ceil(PAGE) as u64;
        Extent {
            buf: Backing::Built(buf),
            start: 0,
            pages,
        }
    }

    /// Its pages `from..to`, sharing its allocation.
    fn slice(&self, from: u64, to: u64) -> Extent {
        Extent {
            buf: self.buf.clone(),
            start: self.start + from as usize * PAGE,
            pages: to - from,
        }
    }

    /// The bytes it stores: all of its pages but the unstored end of a
    /// short last page.
    fn bytes(&self) -> &[u8] {
        let buf = self.buf.bytes();
        &buf[self.start..buf.len().min(self.start + self.pages as usize * PAGE)]
    }

    /// The bytes it stores of its page `page`, counted from `first`.
    fn page(&self, first: u64, page: u64) -> &[u8] {
        let from = &self.bytes()[(page - first) as usize * PAGE..];
        &from[..from.len().min(PAGE)]
    }
}

/// first page index -> the extent starting there
type ExtentMap = BTreeMap<u64, Extent>;

/// The extent holding page `page`, and its first page.
fn extent_at(map: &ExtentMap, page: u64) -> Option<(u64, &Extent)> {
    let (&first, ext) = map.range(..=page).next_back()?;
    (page < first + ext.pages).then_some((first, ext))
}

/// Unmap pages `from..to` of one FS block. An extent reaching into the
/// range keeps its pages outside it, still sharing its allocation.
fn unmap(map: &mut ExtentMap, from: u64, to: u64) {
    // The overlapping extents, last first: one lookup when there is none.
    while let Some((&first, ext)) = map.range_mut(..to).next_back() {
        let end = first + ext.pages;
        if end <= from {
            return;
        }
        let tail = (end > to).then(|| ext.slice(to - first, end - first));
        let head = first < from;
        if head {
            ext.pages = from - first;
        } else {
            map.remove(&first);
        }
        if let Some(tail) = tail {
            map.insert(to, tail);
        }
        if head {
            return;
        }
    }
}

/// The stored bytes of page `page`, at least its first `need`, writable in
/// place. A hole becomes a short page of `need` zeros; a page storing fewer
/// than `need` bytes is copied into one of twice its stored bytes (at least
/// `need`, at most a page), and the bytes copied again are added to
/// `extended`; a page whose allocation anything else holds (a lease, another
/// file, another piece of its extent) is copied out into a one-page extent
/// of its own.
fn page_mut<'m>(
    map: &'m mut ExtentMap,
    page: u64,
    need: usize,
    extended: &AtomicU64,
) -> &'m mut [u8] {
    let (first, ext) = match extent_at(map, page) {
        Some((first, ext)) if ext.buf.unshared() && ext.page(first, page).len() >= need => {
            (first, map.get_mut(&first).expect("found above"))
        }
        found => {
            let old = found.map_or(&[][..], |(first, ext)| ext.page(first, page));
            let len = match old.len() {
                0 => need,
                n if n < need => {
                    extended.fetch_add(n as u64, Ordering::Relaxed);
                    need.max(2 * n).min(PAGE)
                }
                n => n,
            };
            let mut copy = zeroed(len);
            Arc::get_mut(&mut copy).expect("just built")[..old.len()].copy_from_slice(old);
            if found.is_some() {
                unmap(map, page, page + 1);
            }
            (page, map.entry(page).or_insert(Extent::whole(copy)))
        }
    };
    let at = ext.start + (page - first) as usize * PAGE;
    let buf = ext.buf.get_mut().expect("held by this map only");
    let end = buf.len().min(at + PAGE);
    &mut buf[at..end]
}

/// `len` (at most a page) zeros: one allocation, filled from a static zero
/// page.
fn zeroed(len: usize) -> Arc<[u8]> {
    static ZEROS: [u8; PAGE] = [0; PAGE];
    Arc::from(&ZEROS[..len])
}

/// Read cursor over an iovec laid end to end.
struct Gather<'a, 'b> {
    bufs: &'a [IoSlice<'b>],
    idx: usize,
    at: usize,
}

impl<'a> Gather<'a, '_> {
    /// The unread rest of the current slice, after stepping over exhausted
    /// and empty ones. At least one source byte must be left.
    fn rest(&mut self) -> &'a [u8] {
        let bufs = self.bufs;
        while self.at == bufs[self.idx].len() {
            self.idx += 1;
            self.at = 0;
        }
        &bufs[self.idx][self.at..]
    }

    /// The longest run of whole pages, at most `max` bytes, that the current
    /// slice holds from the cursor on, and the cursor moves past it; `None`
    /// if the slice holds less than a page.
    fn pages(&mut self, max: usize) -> Option<&'a [u8]> {
        let rest = self.rest();
        let n = rest.len().min(max) / PAGE * PAGE;
        (n > 0).then(|| {
            self.at += n;
            &rest[..n]
        })
    }

    /// Hand the next `n` source bytes to `sink`, in order, one contiguous
    /// piece at a time, and advance past them.
    fn take(&mut self, mut n: usize, mut sink: impl FnMut(&[u8])) {
        while n > 0 {
            let rest = self.rest();
            let k = rest.len().min(n);
            sink(&rest[..k]);
            self.at += k;
            n -= k;
        }
    }
}

struct FileData {
    /// The extent table: all extents of one FS block live in one stripe.
    stripes: [RwLock<ExtentMap>; STRIPES],
    /// Logical length. Raised by `fetch_max(Release)` under the lock of the
    /// block just written and stored under every lock by `set_len`; the
    /// `Acquire` loads in `read_at`/`len` pair with both, so whoever sees a
    /// length also sees the pages written before it was published.
    len: AtomicU64,
    /// Lock granule in pages: the FS block, or one page where the block is
    /// smaller than the unit of storage. No extent is longer.
    pages_per_block: u64,
    /// Bytes of short pages copied again because a write reached past
    /// their stored end ([`MemFsStats::extended`]).
    extended: AtomicU64,
}

impl FileData {
    fn new(block_size: u64) -> Self {
        FileData {
            stripes: std::array::from_fn(|_| RwLock::new(ExtentMap::new())),
            len: AtomicU64::new(0),
            pages_per_block: (block_size / PAGE as u64).max(1),
            extended: AtomicU64::new(0),
        }
    }

    /// Index of the stripe holding page `page_idx`. Fibonacci hashing of
    /// the block number, not `block % STRIPES`: chunk sizes are power-of-two
    /// multiples of the block size, so under a plain modulus tasks at the
    /// same position of their own chunks would always meet in one stripe.
    fn stripe_index(&self, page_idx: u64) -> usize {
        let block = page_idx / self.pages_per_block;
        let hash = block.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        (hash >> (u64::BITS - STRIPES.trailing_zeros())) as usize
    }

    fn stripe(&self, page_idx: u64) -> &RwLock<ExtentMap> {
        &self.stripes[self.stripe_index(page_idx)]
    }

    /// First byte past the FS block (lock granule) that contains `pos`.
    fn block_end(&self, pos: u64) -> u64 {
        let granule = self.pages_per_block * PAGE as u64;
        (pos / granule + 1).saturating_mul(granule)
    }

    /// The bytes of the pages this file maps, and the bytes they store.
    fn footprint(&self) -> (u64, u64) {
        let (mut pages, mut stored) = (0, 0);
        for stripe in &self.stripes {
            for ext in stripe.read().values() {
                pages += ext.pages;
                stored += ext.bytes().len() as u64;
            }
        }
        (pages * PAGE as u64, stored)
    }

    fn read_at(&self, buf: &mut [u8], offset: u64) -> usize {
        let len = self.len.load(Ordering::Acquire);
        if offset >= len {
            return 0;
        }
        let n = buf.len().min((len - offset) as usize);
        let mut done = 0;
        while done < n {
            let pos = offset + done as u64;
            let block_stop = done + (self.block_end(pos) - pos).min((n - done) as u64) as usize;
            let map = self.stripe(pos / PAGE as u64).read();
            while done < block_stop {
                let pos = offset + done as u64;
                let page = pos / PAGE as u64;
                let room = block_stop - done;
                // One copy per extent, one fill per hole or unstored end of
                // a short page.
                let take = match extent_at(&map, page) {
                    Some((first, ext)) => {
                        let at = (pos - first * PAGE as u64) as usize;
                        let stored = ext.bytes();
                        if at < stored.len() {
                            let take = (stored.len() - at).min(room);
                            buf[done..done + take].copy_from_slice(&stored[at..at + take]);
                            take
                        } else {
                            let take = (ext.pages as usize * PAGE - at).min(room);
                            buf[done..done + take].fill(0);
                            take
                        }
                    }
                    None => {
                        let next = map.range(page..).next();
                        let hole = next.map_or(u64::MAX, |(&first, _)| first * PAGE as u64 - pos);
                        let take = hole.min(room as u64) as usize;
                        buf[done..done + take].fill(0);
                        take
                    }
                };
                done += take;
            }
        }
        n
    }

    /// Write `bufs`, laid end to end, at `offset`, one FS block at a time.
    /// A write that would pass `u64::MAX` is refused whole.
    fn write(&self, bufs: &[IoSlice<'_>], offset: u64) -> io::Result<()> {
        let total: u64 = bufs.iter().map(|b| b.len() as u64).sum();
        let end = write_end(offset, total)?;
        let mut src = Gather {
            bufs,
            idx: 0,
            at: 0,
        };
        let mut pos = offset;
        while pos < end {
            let block_stop = self.block_end(pos).min(end);
            let mut map = self.stripe(pos / PAGE as u64).write();
            while pos < block_stop {
                let page = pos / PAGE as u64;
                let in_page = (pos % PAGE as u64) as usize;
                let room = (block_stop - pos) as usize;
                let run = if in_page == 0 { src.pages(room) } else { None };
                match run {
                    // The whole pages one source slice covers in this block:
                    // one extent, built straight from it with one allocation
                    // and one copy. Outstanding leases keep the old
                    // extents alive unchanged.
                    Some(run) => {
                        let pages = (run.len() / PAGE) as u64;
                        unmap(&mut map, page, page + pages);
                        map.insert(page, Extent::whole(Arc::from(run)));
                        pos += run.len() as u64;
                    }
                    // A partial page, or one gathered from several slices,
                    // is written in place, copied first only when anything
                    // else holds its allocation or it stores too few bytes.
                    None => {
                        let take = (PAGE - in_page).min(room);
                        let bytes = page_mut(&mut map, page, in_page + take, &self.extended);
                        let mut at = in_page;
                        src.take(take, |piece| {
                            bytes[at..at + piece.len()].copy_from_slice(piece);
                            at += piece.len();
                        });
                        pos += take as u64;
                    }
                }
            }
            self.len.fetch_max(block_stop, Ordering::Release);
        }
        Ok(())
    }

    fn read_lease(&self, offset: u64, max_len: usize) -> Option<ByteLease> {
        if max_len == 0 {
            return None;
        }
        let page = offset / PAGE as u64;
        let map = self.stripe(page).read();
        // Under the lock: a `set_len` cannot slip between the two checks.
        let len = self.len.load(Ordering::Acquire);
        if offset >= len {
            return None;
        }
        let (first, ext) = extent_at(&map, page)?;
        let at = (offset - first * PAGE as u64) as usize;
        let stored = ext.bytes().len();
        if at >= stored {
            return None;
        }
        let left = (len - offset).min(max_len as u64) as usize;
        let take = (stored - at).min(left);
        Some(ByteLease::new(ext.buf.clone(), ext.start + at, take))
    }

    /// Write `lease` at `offset`: a whole number of pages at a page
    /// boundary becomes this file's extents as it is, one per FS block it
    /// lands in, each a clone of the lent buffer's `Arc`; anything else is
    /// copied by [`write`](Self::write).
    fn write_lease(&self, lease: &ByteLease, offset: u64) -> io::Result<()> {
        let aligned = |n: u64| n.is_multiple_of(PAGE as u64);
        if !aligned(lease.len() as u64) || !aligned(offset) {
            return self.write(&[IoSlice::new(lease)], offset);
        }
        let end = write_end(offset, lease.len() as u64)?;
        let (buf, start) = lease.parts();
        let lent = Extent {
            buf: buf.clone(),
            start,
            pages: (lease.len() / PAGE) as u64,
        };
        let first = offset / PAGE as u64;
        let mut pos = offset;
        while pos < end {
            let block_stop = self.block_end(pos).min(end);
            let (from, to) = (pos / PAGE as u64, block_stop / PAGE as u64);
            let mut map = self.stripe(from).write();
            unmap(&mut map, from, to);
            map.insert(from, lent.slice(from - first, to - first));
            self.len.fetch_max(block_stop, Ordering::Release);
            pos = block_stop;
        }
        Ok(())
    }

    fn set_len(&self, len: u64) {
        // Every stripe, in index order: excludes all data operations, and
        // two concurrent `set_len`s cannot deadlock.
        let mut stripes: Vec<_> = self.stripes.iter().map(|s| s.write()).collect();
        if len < self.len.load(Ordering::Acquire) {
            // Drop pages fully past the new end — extents starting there, and
            // the tail of the one extent reaching across it — and cut the
            // boundary page short at the new end, so re-extending reads back
            // zeros (POSIX).
            let first_dropped = len.div_ceil(PAGE as u64);
            for map in &mut stripes {
                map.split_off(&first_dropped);
            }
            let holder = &mut stripes[self.stripe_index(first_dropped)];
            if let Some((&first, ext)) = holder.range_mut(..first_dropped).next_back() {
                ext.pages = ext.pages.min(first_dropped - first);
            }
            let keep_into_boundary = (len % PAGE as u64) as usize;
            if keep_into_boundary > 0 {
                let boundary = len / PAGE as u64;
                let holder = &mut stripes[self.stripe_index(boundary)];
                let kept = extent_at(holder, boundary)
                    .map(|(first, ext)| ext.page(first, boundary))
                    .filter(|page| page.len() > keep_into_boundary)
                    .map(|page| Extent::whole(Arc::from(&page[..keep_into_boundary])));
                if let Some(kept) = kept {
                    unmap(holder, boundary, boundary + 1);
                    holder.insert(boundary, kept);
                }
            }
        }
        self.len.store(len, Ordering::Release);
    }
}

impl Drop for FileData {
    /// Free the extents in file order, not stripe by stripe. File order is
    /// roughly the order they were allocated in, so the allocator gets
    /// neighbouring chunks back one after the other and hands them out in
    /// that order again; freeing stripe by stripe cost the next checkpoint
    /// of sionbench `bulk_4k` 11 % (`ckpt_s` 0.233 s against 0.207 s).
    fn drop(&mut self) {
        // A merge by block: every stripe holds its blocks in file order.
        let mut runs: Vec<_> = self
            .stripes
            .iter_mut()
            .map(|s| std::mem::take(s.get_mut()).into_iter().peekable())
            .collect();
        let mut next_block: BinaryHeap<Reverse<(u64, usize)>> = runs
            .iter_mut()
            .enumerate()
            .filter_map(|(i, run)| Some(Reverse((run.peek()?.0, i))))
            .collect();
        while let Some(Reverse((first, i))) = next_block.pop() {
            let block_stop = (first / self.pages_per_block + 1) * self.pages_per_block;
            while runs[i].next_if(|&(page, _)| page < block_stop).is_some() {}
            if let Some(&(page, _)) = runs[i].peek() {
                next_block.push(Reverse((page, i)));
            }
        }
    }
}

struct MemFile {
    data: Arc<FileData>,
}

impl VfsFile for MemFile {
    fn read_at(&self, buf: &mut [u8], offset: u64) -> io::Result<usize> {
        Ok(self.data.read_at(buf, offset))
    }

    fn write_at(&self, buf: &[u8], offset: u64) -> io::Result<usize> {
        self.data.write(&[IoSlice::new(buf)], offset)?;
        Ok(buf.len())
    }

    /// Native vectored write: the iovec is applied as one byte run, so a
    /// page that several slices cover together is still built once, and an
    /// FS block is written under one lock acquisition, instead of one lock
    /// round-trip per slice.
    fn write_vectored_at(&self, bufs: &[IoSlice<'_>], offset: u64) -> io::Result<()> {
        self.data.write(bufs, offset)
    }

    /// Zero-copy borrow of the backing extent: the lease is a clone of the
    /// extent's buffer handle plus a range — no byte is copied. A lease runs
    /// from `offset` to the last byte the extent holding it stores (never
    /// past the FS block), clipped at end of file and at `max_len`; at a
    /// hole, or past the stored end of a short page, it is `None` (there is
    /// no backing storage to borrow; callers fall back to `read_at`, which
    /// yields zeros).
    fn read_lease(&self, offset: u64, max_len: usize) -> Option<ByteLease> {
        self.data.read_lease(offset, max_len)
    }

    /// Adopts a lent run instead of copying it: a lease of a whole number
    /// of pages written at a page-aligned offset — wherever it starts in
    /// its buffer — becomes extents of this file that share the lent
    /// allocation with the file or the writer it came from, one per FS
    /// block it lands in. Neither side can change the other's bytes: a
    /// write of whole pages replaces them, a partial write and `set_len`
    /// copy out the page they touch first. Every other lease is copied.
    fn write_lease_at(&self, lease: &ByteLease, offset: u64) -> io::Result<()> {
        self.data.write_lease(lease, offset)
    }

    fn set_len(&self, len: u64) -> io::Result<()> {
        self.data.set_len(len);
        Ok(())
    }

    fn len(&self) -> io::Result<u64> {
        Ok(self.data.len.load(Ordering::Acquire))
    }

    fn sync(&self) -> io::Result<()> {
        Ok(())
    }
}

/// Per-file accounting exposed by [`MemFs::stats`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MemFsStats {
    /// Logical file size in bytes.
    pub len: u64,
    /// Bytes of the pages this file maps (hole-free footprint), page-exact:
    /// the file-system model, in which a written page takes a whole page
    /// however few of its bytes were written. A per-file figure, as `du`
    /// reports reflinked files: a page this file shares with another
    /// ([`VfsFile::write_lease_at`]) counts in both.
    pub allocated: u64,
    /// Bytes the mapped pages store: whole pages, and a short page's bytes
    /// up to its stored end (the last byte written to it, or twice what it
    /// stored before a later write reached past that, at most a page).
    /// At most `allocated`, and per file like it. It counts mapped bytes,
    /// not allocations: a page copied out of an extent (a partial write,
    /// `set_len`) or an extent cut short leaves the rest of that extent
    /// holding its whole allocation, so host memory can exceed `resident`
    /// until every piece is gone.
    pub resident: u64,
    /// Bytes copied again since the file was created because a write
    /// reached past the stored end of a short page.
    pub extended: u64,
}

/// Number of independent lock shards the namespace is split into. Tasks of
/// a multifile run open distinct physical files concurrently; hashing paths
/// across shards keeps those opens from serializing on one namespace lock.
const NAMESPACE_SHARDS: usize = 16;

/// A sparse in-memory [`Vfs`].
///
/// The path → file map is sharded across `NAMESPACE_SHARDS` (16)
/// independently locked hash maps keyed by a path hash, so concurrent
/// create/open/stat traffic from many simulated tasks does not contend on a
/// single mutex.
/// Per-file data is locked per FS block (see the module docs), so a
/// namespace lock is never held while file contents are read, written or
/// freed.
pub struct MemFs {
    shards: [Mutex<HashMap<String, Arc<FileData>>>; NAMESPACE_SHARDS],
    block_size: u64,
}

/// FNV-1a over the normalized path, reduced to a shard index.
fn shard_index(path: &str) -> usize {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in path.as_bytes() {
        h ^= *b as u64;
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    (h % NAMESPACE_SHARDS as u64) as usize
}

impl MemFs {
    /// An empty in-memory FS advertising a 64 KiB block size (small enough
    /// that alignment paths get exercised by modest test data).
    pub fn new() -> Self {
        Self::with_block_size(64 * 1024)
    }

    /// An empty in-memory FS advertising the given block size.
    pub fn with_block_size(block_size: u64) -> Self {
        assert!(block_size > 0, "block size must be positive");
        Self {
            shards: std::array::from_fn(|_| Mutex::new(HashMap::new())),
            block_size,
        }
    }

    /// The shard holding `path` (already normalized).
    fn shard(&self, path: &str) -> &Mutex<HashMap<String, Arc<FileData>>> {
        &self.shards[shard_index(path)]
    }

    /// Logical and physically-allocated sizes of `path`.
    pub fn stats(&self, path: &str) -> Option<MemFsStats> {
        let path = normalize_path(path);
        let data = self.shard(&path).lock().get(&path)?.clone();
        let len = data.len.load(Ordering::Acquire);
        let (allocated, resident) = data.footprint();
        Some(MemFsStats {
            len,
            allocated,
            resident,
            extended: data.extended.load(Ordering::Relaxed),
        })
    }

    /// Number of files in the namespace.
    pub fn file_count(&self) -> usize {
        self.shards.iter().map(|s| s.lock().len()).sum()
    }
}

impl Default for MemFs {
    fn default() -> Self {
        Self::new()
    }
}

impl Vfs for MemFs {
    fn create(&self, path: &str) -> io::Result<Arc<dyn VfsFile>> {
        let path = normalize_path(path);
        let data = Arc::new(FileData::new(self.block_size));
        // Freeing a replaced file's pages can take milliseconds: take the
        // old entry out under the shard lock, drop it after the guard.
        let replaced = self.shard(&path).lock().insert(path, data.clone());
        drop(replaced);
        Ok(Arc::new(MemFile { data }))
    }

    fn open(&self, path: &str) -> io::Result<Arc<dyn VfsFile>> {
        self.open_rw(path)
    }

    fn open_rw(&self, path: &str) -> io::Result<Arc<dyn VfsFile>> {
        let norm = normalize_path(path);
        let files = self.shard(&norm).lock();
        let data = files.get(&norm).ok_or_else(|| {
            io::Error::new(io::ErrorKind::NotFound, format!("no such file: {path}"))
        })?;
        Ok(Arc::new(MemFile { data: data.clone() }))
    }

    fn remove(&self, path: &str) -> io::Result<()> {
        let norm = normalize_path(path);
        // As in `create`: the pages are freed after the shard guard is gone.
        let removed = self.shard(&norm).lock().remove(&norm);
        removed
            .map(drop)
            .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, format!("no such file: {path}")))
    }

    fn exists(&self, path: &str) -> bool {
        let norm = normalize_path(path);
        self.shard(&norm).lock().contains_key(&norm)
    }

    fn block_size(&self) -> u64 {
        self.block_size
    }

    fn list(&self, prefix: &str) -> io::Result<Vec<String>> {
        let prefix = normalize_path(prefix);
        let mut out: Vec<String> = Vec::new();
        for shard in &self.shards {
            out.extend(
                shard
                    .lock()
                    .keys()
                    .filter(|k| k.starts_with(&prefix))
                    .cloned(),
            );
        }
        out.sort();
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn sparse_holes_read_zero_and_cost_nothing() {
        let fs = MemFs::new();
        let f = fs.create("big").unwrap();
        // Write 8 bytes at a 10 MiB offset: only one page allocated.
        f.write_all_at(b"deadbeef", 10 * 1024 * 1024).unwrap();
        let st = fs.stats("big").unwrap();
        assert_eq!(st.len, 10 * 1024 * 1024 + 8);
        assert_eq!(st.allocated, PAGE as u64);
        let mut buf = [1u8; 16];
        f.read_exact_at(&mut buf, 4096).unwrap();
        assert_eq!(buf, [0u8; 16]);
    }

    #[test]
    fn a_page_stores_the_bytes_written_to_it_and_doubles_to_grow() {
        let fs = MemFs::new();
        let f = fs.create("short").unwrap();
        let footprint = || {
            let st = fs.stats("short").unwrap();
            (st.allocated, st.resident, st.extended)
        };
        let page = PAGE as u64;
        // A hole page stores up to the last byte written, zeros before it.
        f.write_all_at(&[7; 100], 200).unwrap();
        assert_eq!(footprint(), (page, 300, 0));
        assert_eq!(f.read_lease(250, PAGE).unwrap().len(), 50);
        assert_eq!(f.read_lease(0, 10).unwrap()[..], [0; 10]);
        // Past the stored end: no lease, and reads of zeros as in a hole.
        f.write_all_at(b"z", 2 * page).unwrap();
        assert!(f.read_lease(300, 10).is_none());
        let mut back = vec![1u8; PAGE];
        f.read_exact_at(&mut back, 0).unwrap();
        assert!(back[..200].iter().chain(&back[300..]).all(|&b| b == 0));
        assert!(back[200..300].iter().all(|&b| b == 7));
        // A write past the stored end copies the page once into twice its
        // stored bytes, or what the write needs, at most a page: the copies
        // add up to less than a page.
        for (at, resident, extended) in [(400, 600, 300), (3000, 3006, 900), (4090, 4096, 3906)] {
            f.write_all_at(&[9; 6], at).unwrap();
            assert_eq!(
                footprint(),
                (2 * page, resident + 1, extended),
                "write at {at}"
            );
        }
        // Inside the stored bytes: in place.
        f.write_all_at(&[5; 10], 1000).unwrap();
        assert_eq!(footprint(), (2 * page, 4097, 3906));
        // `set_len` cuts a page short at the new end.
        f.set_len(150).unwrap();
        assert_eq!(footprint(), (page, 150, 3906));
        f.set_len(page).unwrap();
        assert_eq!(f.read_lease(0, PAGE).unwrap().len(), 150);
        f.read_exact_at(&mut back, 0).unwrap();
        assert!(back.iter().all(|&b| b == 0));
    }

    #[test]
    fn cross_page_write_read() {
        let fs = MemFs::new();
        let f = fs.create("x").unwrap();
        let data: Vec<u8> = (0..PAGE * 3 + 17).map(|i| (i % 251) as u8).collect();
        f.write_all_at(&data, PAGE as u64 - 7).unwrap();
        let mut back = vec![0u8; data.len()];
        f.read_exact_at(&mut back, PAGE as u64 - 7).unwrap();
        assert_eq!(back, data);
    }

    #[test]
    fn truncate_then_extend_zeroes() {
        let fs = MemFs::new();
        let f = fs.create("t").unwrap();
        f.write_all_at(&[0xAB; 100], 0).unwrap();
        f.set_len(10).unwrap();
        f.set_len(100).unwrap();
        let mut buf = [0xCD; 90];
        f.read_exact_at(&mut buf, 10).unwrap();
        assert_eq!(buf, [0u8; 90]);
    }

    #[test]
    fn handles_share_state() {
        let fs = MemFs::new();
        fs.create("s").unwrap();
        let a = fs.open_rw("s").unwrap();
        let b = fs.open_rw("s").unwrap();
        a.write_all_at(b"from-a", 0).unwrap();
        let mut buf = [0u8; 6];
        b.read_exact_at(&mut buf, 0).unwrap();
        assert_eq!(&buf, b"from-a");
    }

    #[test]
    fn list_and_remove() {
        let fs = MemFs::new();
        fs.create("d/a").unwrap();
        fs.create("d/b").unwrap();
        fs.create("e/c").unwrap();
        assert_eq!(
            fs.list("d/").unwrap(),
            vec!["d/a".to_string(), "d/b".to_string()]
        );
        assert_eq!(fs.file_count(), 3);
        fs.remove("d/a").unwrap();
        assert!(!fs.exists("d/a"));
        assert!(fs.remove("d/a").is_err());
    }

    #[test]
    fn full_page_aligned_write_allocates_and_roundtrips() {
        let fs = MemFs::new();
        let f = fs.create("fp").unwrap();
        // Exactly two aligned pages: takes the direct-construction path.
        let data: Vec<u8> = (0..2 * PAGE).map(|i| (i % 253) as u8).collect();
        f.write_all_at(&data, 0).unwrap();
        assert_eq!(fs.stats("fp").unwrap().allocated, 2 * PAGE as u64);
        let mut back = vec![0u8; data.len()];
        f.read_exact_at(&mut back, 0).unwrap();
        assert_eq!(back, data);
        // Overwriting a full page replaces it wholesale.
        let page2: Vec<u8> = vec![0xEE; PAGE];
        f.write_all_at(&page2, PAGE as u64).unwrap();
        f.read_exact_at(&mut back, 0).unwrap();
        assert_eq!(&back[..PAGE], &data[..PAGE]);
        assert_eq!(&back[PAGE..], &page2[..]);
    }

    #[test]
    fn namespace_ops_work_across_shards() {
        // Enough files that every shard sees traffic (paths hash ~uniformly).
        let fs = MemFs::new();
        let names: Vec<String> = (0..200).map(|i| format!("dir/f{i:04}")).collect();
        for n in &names {
            fs.create(n).unwrap();
        }
        assert_eq!(fs.file_count(), 200);
        let mut listed = fs.list("dir/").unwrap();
        let mut expect = names.clone();
        listed.sort();
        expect.sort();
        assert_eq!(listed, expect);
        for n in &names {
            assert!(fs.exists(n));
            fs.remove(n).unwrap();
        }
        assert_eq!(fs.file_count(), 0);
    }

    #[test]
    fn concurrent_creates_land_in_their_shards() {
        let fs = std::sync::Arc::new(MemFs::new());
        let handles: Vec<_> = (0..8)
            .map(|t| {
                let fs = fs.clone();
                std::thread::spawn(move || {
                    for i in 0..50 {
                        let name = format!("run/t{t}/file{i}");
                        let f = fs.create(&name).unwrap();
                        f.write_all_at(&[t as u8; 16], 0).unwrap();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(fs.file_count(), 8 * 50);
        let mut buf = [0u8; 16];
        let f = fs.open("run/t3/file7").unwrap();
        f.read_exact_at(&mut buf, 0).unwrap();
        assert_eq!(buf, [3u8; 16]);
    }

    #[test]
    fn lease_borrows_page_without_copy() {
        let fs = MemFs::new();
        let f = fs.create("l").unwrap();
        let data: Vec<u8> = (0..PAGE).map(|i| (i % 241) as u8).collect();
        f.write_all_at(&data, 0).unwrap();
        // Full-page lease: same bytes, and zero-copy (the lease aliases the
        // live page — dropping the read lock first proves no clone happened).
        let lease = f.read_lease(0, PAGE).unwrap();
        assert_eq!(lease.len(), PAGE);
        assert_eq!(&lease[..], &data[..]);
        // A lease ends with its extent, here the one page; a mid-page start
        // clamps.
        let lease = f.read_lease(100, PAGE).unwrap();
        assert_eq!(lease.len(), PAGE - 100);
        assert_eq!(&lease[..], &data[100..]);
    }

    #[test]
    fn lease_clamps_to_eof_and_skips_holes() {
        let fs = MemFs::new();
        let f = fs.create("l2").unwrap();
        f.write_all_at(b"abcdef", 0).unwrap();
        // Clamped at end of file.
        let lease = f.read_lease(2, 100).unwrap();
        assert_eq!(&lease[..], b"cdef");
        // At/past EOF: no lease.
        assert!(f.read_lease(6, 10).is_none());
        assert!(f.read_lease(600, 10).is_none());
        assert!(f.read_lease(0, 0).is_none());
        // Holes have no backing page to borrow: callers fall back to
        // read_at, which yields zeros.
        f.write_all_at(b"z", 3 * PAGE as u64).unwrap();
        assert!(f.read_lease(PAGE as u64, 10).is_none());
    }

    #[test]
    fn lease_survives_overwrite_copy_on_write() {
        let fs = MemFs::new();
        let f = fs.create("cow").unwrap();
        f.write_all_at(&[0x11; PAGE], 0).unwrap();
        let lease = f.read_lease(0, PAGE).unwrap();
        // Partial overwrite forces COW; full-page overwrite replaces the Arc.
        f.write_all_at(&[0x22; 8], 100).unwrap();
        f.write_all_at(&[0x33; PAGE], 0).unwrap();
        // The lease still sees the snapshot it borrowed.
        assert!(lease.iter().all(|&b| b == 0x11));
        let mut now = [0u8; 8];
        f.read_exact_at(&mut now, 100).unwrap();
        assert_eq!(now, [0x33; 8]);
    }

    #[test]
    fn a_page_split_across_slices_is_the_page_one_slice_writes() {
        let fs = MemFs::new();
        let data: Vec<u8> = (0..PAGE).map(|i| (i % 239) as u8).collect();
        fs.create("one")
            .unwrap()
            .write_all_at(&data, PAGE as u64)
            .unwrap();
        let (head, tail) = data.split_at(1000);
        let iov = [IoSlice::new(&[]), IoSlice::new(head), IoSlice::new(tail)];
        fs.create("split")
            .unwrap()
            .write_vectored_at(&iov, PAGE as u64)
            .unwrap();
        for name in ["one", "split"] {
            let mut back = vec![0u8; 2 * PAGE];
            fs.open(name).unwrap().read_exact_at(&mut back, 0).unwrap();
            assert!(
                back[..PAGE].iter().all(|&b| b == 0),
                "{name}: the hole before the page"
            );
            assert_eq!(&back[PAGE..], &data[..], "{name}");
            assert_eq!(fs.stats(name).unwrap().allocated, PAGE as u64, "{name}");
        }
    }

    #[test]
    fn leases_of_one_page_alias_its_storage() {
        let fs = MemFs::new();
        let f = fs.create("alias").unwrap();
        f.write_all_at(&[0x5A; PAGE], 0).unwrap();
        let (a, b) = (f.read_lease(0, PAGE).unwrap(), f.read_lease(0, 64).unwrap());
        assert_eq!(
            a.as_ptr(),
            b.as_ptr(),
            "two leases of one page share its bytes"
        );
        let mid = f.read_lease(100, 8).unwrap();
        assert_eq!(a[100..].as_ptr(), mid.as_ptr());
    }

    #[test]
    fn earlier_leases_keep_their_snapshots() {
        let fs = MemFs::new();
        let f = fs.create("snap").unwrap();
        let page0 = || {
            let mut back = vec![0u8; PAGE];
            f.read_exact_at(&mut back, 0).unwrap();
            back
        };
        f.write_all_at(&[0x11; 2 * PAGE], 0).unwrap();
        let mut leases = vec![(f.read_lease(0, PAGE).unwrap(), vec![0x11; PAGE])];
        // A full-page overwrite replaces the page.
        f.write_all_at(&[0x22; PAGE], 0).unwrap();
        assert_eq!(page0(), vec![0x22; PAGE]);
        leases.push((f.read_lease(0, PAGE).unwrap(), page0()));
        // A partial overwrite clones the leased page first.
        f.write_all_at(&[0x33; 8], 100).unwrap();
        let mut now = vec![0x22; PAGE];
        now[100..108].fill(0x33);
        assert_eq!(page0(), now);
        leases.push((f.read_lease(0, PAGE).unwrap(), page0()));
        // A `set_len` into the leased page zeroes the file's tail only.
        f.set_len(104).unwrap();
        f.set_len(PAGE as u64).unwrap();
        now[104..].fill(0);
        assert_eq!(page0(), now);
        for (i, (lease, snapshot)) in leases.iter().enumerate() {
            assert_eq!(&lease[..], &snapshot[..], "lease {i}");
        }
    }

    /// The first `len` bytes of `f`.
    fn image_of(f: &Arc<dyn VfsFile>, len: usize) -> Vec<u8> {
        let mut back = vec![0u8; len];
        f.read_exact_at(&mut back, 0).unwrap();
        back
    }

    #[test]
    fn an_adopted_page_is_shared_and_copied_on_write_both_ways() {
        let fs = MemFs::new();
        let (a, b) = (fs.create("a").unwrap(), fs.create("b").unwrap());
        let page: Vec<u8> = (0..PAGE).map(|i| (i % 251) as u8).collect();
        a.write_all_at(&page, 0).unwrap();
        let adopt = || {
            b.write_lease_at(&a.read_lease(0, PAGE).unwrap(), 2 * PAGE as u64)
                .unwrap();
            let shared = b.read_lease(2 * PAGE as u64, PAGE).unwrap();
            let source = a.read_lease(0, PAGE).unwrap();
            assert_eq!(shared.as_ptr(), source.as_ptr(), "adopted, not copied");
        };
        adopt();
        assert_eq!(b.len().unwrap(), 3 * PAGE as u64);
        // Both files count the page: a per-file footprint.
        assert_eq!(fs.stats("a").unwrap().allocated, PAGE as u64);
        assert_eq!(fs.stats("b").unwrap().allocated, PAGE as u64);
        let b_now = || image_of(&b, 3 * PAGE)[2 * PAGE..].to_vec();

        // A full-page overwrite in A leaves B's bytes alone, and so does a
        // partial one.
        a.write_all_at(&[0x11; PAGE], 0).unwrap();
        assert_eq!(b_now(), page);
        a.write_all_at(&page, 0).unwrap();
        adopt();
        a.write_all_at(&[0x22; 8], 100).unwrap();
        assert_eq!(b_now(), page);
        let mut a_page = page.clone();
        a_page[100..108].fill(0x22);
        assert_eq!(image_of(&a, PAGE), a_page);

        // A `set_len` into B's adopted page leaves A's bytes alone.
        a.write_all_at(&page, 0).unwrap();
        adopt();
        b.set_len(2 * PAGE as u64 + 10).unwrap();
        b.set_len(3 * PAGE as u64).unwrap();
        assert_eq!(image_of(&a, PAGE), page);
        let mut b_page = page.clone();
        b_page[10..].fill(0);
        assert_eq!(b_now(), b_page);

        // The page outlives the file it came from.
        b.write_lease_at(&a.read_lease(0, PAGE).unwrap(), 0)
            .unwrap();
        fs.remove("a").unwrap();
        drop(a);
        assert_eq!(image_of(&b, PAGE), page);
    }

    #[test]
    fn leases_that_are_not_whole_pages_at_a_page_boundary_are_copied() {
        let fs = MemFs::new();
        let src = fs.create("src").unwrap();
        let data: Vec<u8> = (0..2 * PAGE + 100).map(|i| (i % 247) as u8).collect();
        src.write_all_at(&data, 0).unwrap();
        let dst = fs.create("dst").unwrap();
        // (lease offset, lease length, destination offset, adopted): whole
        // pages at a page boundary, wherever they start in their source, are
        // adopted; a partial-page length, the end-of-file page and a whole
        // page at a misaligned offset are copied.
        for (from, max, to, adopted) in [
            (0, 2 * PAGE, 4 * PAGE, true),
            (100, PAGE, 0, true),
            (100, 2 * PAGE, 8 * PAGE, false),
            (2 * PAGE, PAGE, 12 * PAGE, false),
            (PAGE, PAGE, 16 * PAGE + 7, false),
        ] {
            let lease = src.read_lease(from as u64, max).unwrap();
            dst.write_lease_at(&lease, to as u64).unwrap();
            let copy = dst.read_lease(to as u64, lease.len()).unwrap();
            assert_eq!(&copy[..], &data[from..from + copy.len()], "lease at {from}");
            assert_eq!(copy.as_ptr() == lease.as_ptr(), adopted, "lease at {from}");
        }
    }

    #[test]
    fn a_writers_buffer_of_whole_pages_is_adopted_and_any_other_is_copied() {
        let fs = MemFs::with_block_size(2 * PAGE as u64);
        let f = fs.create("own").unwrap();
        let data: Vec<u8> = (0..3 * PAGE).map(|i| (i % 251) as u8).collect();
        let buf = data.clone();
        let ptr = buf.as_ptr();
        let lease = ByteLease::from_vec(buf);
        f.write_lease_at(&lease, PAGE as u64).unwrap();
        // Adopted across an FS-block boundary: one extent per block, both
        // in the writer's allocation, which the file now keeps.
        assert_eq!(f.read_lease(PAGE as u64, 3 * PAGE).unwrap().as_ptr(), ptr);
        assert_eq!(
            f.read_lease(2 * PAGE as u64, 2 * PAGE).unwrap().as_ptr(),
            ptr.wrapping_add(PAGE)
        );
        assert!(lease.into_vec().is_err(), "the file holds the buffer");
        assert_eq!(&image_of(&f, 4 * PAGE)[PAGE..], &data[..]);

        // Not whole pages, or not at a page boundary: copied, and the
        // buffer comes back to its writer.
        for (len, at) in [(PAGE + 100, 8 * PAGE), (2 * PAGE, 12 * PAGE + 5)] {
            let buf = data[..len].to_vec();
            let ptr = buf.as_ptr();
            let lease = ByteLease::from_vec(buf);
            f.write_lease_at(&lease, at as u64).unwrap();
            assert_ne!(f.read_lease(at as u64, len).unwrap().as_ptr(), ptr);
            let Ok(back) = lease.into_vec() else {
                panic!("copied: nothing else holds it")
            };
            assert_eq!((back.as_ptr(), &back[..]), (ptr, &data[..len]));
            assert_eq!(&image_of(&f, at + len)[at..], &data[..len]);
        }
    }

    #[test]
    fn a_slice_of_a_writers_buffer_is_adopted_where_it_starts() {
        let fs = MemFs::new();
        let f = fs.create("slice").unwrap();
        let buf: Vec<u8> = (0..2 * PAGE + 16).map(|i| (i % 241) as u8).collect();
        let ptr = buf.as_ptr();
        let whole = ByteLease::from_vec(buf);
        let part = whole.slice(16, 2 * PAGE);
        assert_eq!(
            (part.as_ptr(), part.len()),
            (ptr.wrapping_add(16), 2 * PAGE)
        );
        f.write_lease_at(&part, 0).unwrap();
        assert_eq!(
            f.read_lease(0, PAGE).unwrap().as_ptr(),
            ptr.wrapping_add(16)
        );
        drop(part);
        assert!(whole.into_vec().is_err(), "the file holds the buffer");
    }

    #[test]
    fn a_partial_write_copies_out_an_adopted_page_a_reader_still_leases() {
        let fs = MemFs::new();
        let f = fs.create("own_cow").unwrap();
        let data: Vec<u8> = (0..2 * PAGE).map(|i| (i % 239) as u8).collect();
        let buf = data.clone();
        let ptr = buf.as_ptr();
        f.write_lease_at(&ByteLease::from_vec(buf), 0).unwrap();
        let held = f.read_lease(0, 2 * PAGE).unwrap();
        f.write_all_at(&[0xA5; 8], 100).unwrap();
        assert_eq!(&held[..], &data[..], "the reader keeps its snapshot");
        assert_ne!(f.read_lease(0, PAGE).unwrap().as_ptr(), ptr);
        assert_eq!(
            f.read_lease(PAGE as u64, PAGE).unwrap().as_ptr(),
            ptr.wrapping_add(PAGE)
        );
        // With the reader gone, the file alone holds the writer's buffer:
        // a partial write of its other page goes in place.
        drop(held);
        f.write_all_at(&[0x11; 8], PAGE as u64 + 200).unwrap();
        assert_eq!(
            f.read_lease(PAGE as u64, PAGE).unwrap().as_ptr(),
            ptr.wrapping_add(PAGE)
        );
        let mut now = data.clone();
        now[100..108].fill(0xA5);
        now[PAGE + 200..PAGE + 208].fill(0x11);
        assert_eq!(image_of(&f, 2 * PAGE), now);
    }

    /// 16 pages: one 64 KiB FS block.
    const BLOCK: usize = 16 * PAGE;

    /// A 64 KiB-block file system with `n` bytes of a pattern written to
    /// "x" at 0 in one call.
    fn blocks_fs(n: usize) -> (MemFs, Arc<dyn VfsFile>, Vec<u8>) {
        let fs = MemFs::with_block_size(BLOCK as u64);
        let f = fs.create("x").unwrap();
        let data: Vec<u8> = (0..n).map(|i| (i % 251) as u8).collect();
        f.write_all_at(&data, 0).unwrap();
        (fs, f, data)
    }

    /// The lease from the start of page `page` of `f` to the end of its
    /// extent.
    fn lease_at(f: &Arc<dyn VfsFile>, page: usize) -> ByteLease {
        f.read_lease((page * PAGE) as u64, usize::MAX).unwrap()
    }

    #[test]
    fn whole_pages_written_in_one_call_are_one_extent_per_fs_block() {
        let (fs, f, data) = blocks_fs(3 * BLOCK);
        for b in 0..3 {
            let whole = lease_at(&f, b * 16);
            assert_eq!(&whole[..], &data[b * BLOCK..(b + 1) * BLOCK], "block {b}");
            let next = lease_at(&f, b * 16 + 1);
            assert_eq!(
                next.as_ptr(),
                whole[PAGE..].as_ptr(),
                "block {b}: one allocation"
            );
            assert_eq!(next.len(), BLOCK - PAGE, "block {b}");
        }
        assert_eq!(fs.stats("x").unwrap().allocated, 3 * BLOCK as u64);
    }

    #[test]
    fn a_partial_write_copies_out_only_the_page_it_touches() {
        let (fs, f, data) = blocks_fs(BLOCK);
        let before = lease_at(&f, 0);
        f.write_all_at(&[0xEE; 8], 5 * PAGE as u64 + 100).unwrap();
        assert_eq!(
            &before[..],
            &data[..],
            "the earlier lease keeps its snapshot"
        );
        assert_eq!(
            (lease_at(&f, 0).as_ptr(), lease_at(&f, 0).len()),
            (before.as_ptr(), 5 * PAGE)
        );
        assert_eq!(lease_at(&f, 6).as_ptr(), before[6 * PAGE..].as_ptr());
        assert_eq!(lease_at(&f, 5).len(), PAGE);
        assert_ne!(lease_at(&f, 5).as_ptr(), before[5 * PAGE..].as_ptr());
        let mut now = data.clone();
        now[5 * PAGE + 100..5 * PAGE + 108].fill(0xEE);
        assert_eq!(image_of(&f, BLOCK), now);
        assert_eq!(fs.stats("x").unwrap().allocated, BLOCK as u64);
    }

    #[test]
    fn set_len_inside_an_extent_drops_its_tail_and_keeps_its_head_shared() {
        let (fs, f, data) = blocks_fs(BLOCK);
        let before = lease_at(&f, 0);
        f.set_len(5 * PAGE as u64 + 10).unwrap();
        assert_eq!(fs.stats("x").unwrap().allocated, 6 * PAGE as u64);
        f.set_len(BLOCK as u64).unwrap();
        let mut now = data.clone();
        now[5 * PAGE + 10..].fill(0);
        assert_eq!(image_of(&f, BLOCK), now);
        assert_eq!(
            &before[..],
            &data[..],
            "the earlier lease keeps its snapshot"
        );
        assert_eq!(
            (lease_at(&f, 0).as_ptr(), lease_at(&f, 0).len()),
            (before.as_ptr(), 5 * PAGE)
        );
        assert_ne!(lease_at(&f, 5).as_ptr(), before[5 * PAGE..].as_ptr());
        assert!(f.read_lease(6 * PAGE as u64, 1).is_none(), "a hole");
    }

    #[test]
    fn an_adopted_extent_is_shared_until_a_partial_write_copies_one_page() {
        let (fs, a, data) = blocks_fs(BLOCK);
        let b = fs.create("b").unwrap();
        let lent = lease_at(&a, 0);
        b.write_lease_at(&lent, BLOCK as u64).unwrap();
        assert_eq!(
            (lease_at(&b, 16).as_ptr(), lease_at(&b, 16).len()),
            (lent.as_ptr(), BLOCK)
        );
        assert_eq!(fs.stats("x").unwrap().allocated, BLOCK as u64);
        assert_eq!(fs.stats("b").unwrap().allocated, BLOCK as u64);
        drop(lent);
        a.write_all_at(&[1; 8], 3 * PAGE as u64 + 5).unwrap();
        b.write_all_at(&[2; 8], (BLOCK + 9 * PAGE + 5) as u64)
            .unwrap();
        let (mut a_now, mut b_now) = (data.clone(), data.clone());
        a_now[3 * PAGE + 5..3 * PAGE + 13].fill(1);
        b_now[9 * PAGE + 5..9 * PAGE + 13].fill(2);
        assert_eq!(image_of(&a, BLOCK), a_now);
        assert_eq!(&image_of(&b, 2 * BLOCK)[BLOCK..], &b_now[..]);
        // Each write copied out one page; every other page is still shared.
        for page in 0..16 {
            let shared = lease_at(&a, page).as_ptr() == lease_at(&b, 16 + page).as_ptr();
            assert_eq!(shared, page != 3 && page != 9, "page {page}");
        }
        assert_eq!(fs.stats("x").unwrap().allocated, BLOCK as u64);
        assert_eq!(fs.stats("b").unwrap().allocated, BLOCK as u64);
        // Adopted across an FS-block boundary: one extent per block.
        let c = fs.create("c").unwrap();
        c.write_lease_at(&lease_at(&b, 16), (BLOCK + 8 * PAGE) as u64)
            .unwrap();
        assert_eq!(lease_at(&c, 24).len(), 8 * PAGE);
        assert_eq!(lease_at(&c, 32).as_ptr(), lease_at(&b, 24).as_ptr());
    }

    #[test]
    fn vectored_write_matches_concatenated_scalar() {
        let fs = MemFs::new();
        let f = fs.create("v").unwrap();
        let a = vec![1u8; 17];
        let b = vec![2u8; PAGE];
        let c = vec![3u8; PAGE / 2];
        f.write_vectored_at(
            &[IoSlice::new(&a), IoSlice::new(&b), IoSlice::new(&c)],
            PAGE as u64 - 5,
        )
        .unwrap();
        let mut flat = a.clone();
        flat.extend_from_slice(&b);
        flat.extend_from_slice(&c);
        assert_eq!(f.len().unwrap(), PAGE as u64 - 5 + flat.len() as u64);
        let mut back = vec![0u8; flat.len()];
        f.read_exact_at(&mut back, PAGE as u64 - 5).unwrap();
        assert_eq!(back, flat);
    }

    #[test]
    fn read_past_eof_is_short() {
        let fs = MemFs::new();
        let f = fs.create("f").unwrap();
        f.write_all_at(b"abc", 0).unwrap();
        let mut buf = [0u8; 10];
        assert_eq!(f.read_at(&mut buf, 0).unwrap(), 3);
        assert_eq!(f.read_at(&mut buf, 3).unwrap(), 0);
        assert_eq!(f.read_at(&mut buf, 100).unwrap(), 0);
    }

    /// One step of [`file_matches_flat_model`]. Positions are `(unit, k,
    /// jitter)`: within 300 bytes of the `k`-th page boundary (`unit`
    /// false) or FS-block boundary (`unit` true).
    #[derive(Debug, Clone)]
    enum Op {
        /// One length: `write_at`; several: `write_vectored_at`.
        Write(Pos, Vec<usize>),
        SetLen(Pos),
        Read(Pos, usize),
        Lease(Pos, usize),
        /// A lease of the source file at the offset, at most so many bytes,
        /// written with `write_lease_at`.
        Adopt(u64, usize, Pos),
        /// A writer's buffer handed over with `ByteLease::from_vec`: the
        /// lease of its bytes from the first number on, so many of them,
        /// written with `write_lease_at`.
        Own(usize, usize, Pos),
    }
    type Pos = (bool, u64, u64);

    /// The source file of `Op::Adopt`: whole pages, then a partial one.
    const SRC_LEN: usize = 4 * PAGE + 100;

    fn pos() -> impl Strategy<Value = Pos> {
        (any::<bool>(), 0u64..4, 0u64..600)
    }

    fn span() -> impl Strategy<Value = usize> {
        prop_oneof![1usize..600, PAGE - 64..PAGE + 64, 1usize..5 * PAGE + 200]
    }

    fn op() -> impl Strategy<Value = Op> {
        prop_oneof![
            (pos(), prop::collection::vec(span(), 1..2)).prop_map(|(p, l)| Op::Write(p, l)),
            (pos(), prop::collection::vec(span(), 2..5)).prop_map(|(p, l)| Op::Write(p, l)),
            pos().prop_map(Op::SetLen),
            (pos(), span()).prop_map(|(p, n)| Op::Read(p, n)),
            (pos(), span()).prop_map(|(p, n)| Op::Lease(p, n)),
            (
                prop_oneof![(0..5u64).prop_map(|k| k * PAGE as u64), 0..5 * PAGE as u64],
                prop_oneof![Just(PAGE), span()],
                // A jitter of 300 is the page boundary itself.
                prop_oneof![(0..8u64).prop_map(|k| (false, k, 300)), pos()],
            )
                .prop_map(|(from, max, to)| Op::Adopt(from, max, to)),
            (
                prop_oneof![Just(0usize), 0..2 * PAGE],
                prop_oneof![(1..6usize).prop_map(|k| k * PAGE), span()],
                prop_oneof![(0..8u64).prop_map(|k| (false, k, 300)), pos()],
            )
                .prop_map(|(from, len, to)| Op::Own(from, len, to)),
        ]
    }

    /// The reference: a flat byte vector plus, for each page written and
    /// still inside the file, its written end — one past the highest
    /// in-page offset written to it, cut by `set_len`. `allocated` must
    /// count these pages, and `resident` store at least their written ends.
    #[derive(Default)]
    struct Model {
        bytes: Vec<u8>,
        ends: BTreeMap<u64, usize>,
    }

    impl Model {
        fn write(&mut self, at: usize, data: &[u8]) {
            let end = at + data.len();
            if self.bytes.len() < end {
                self.bytes.resize(end, 0);
            }
            self.bytes[at..end].copy_from_slice(data);
            for page in at / PAGE..=(end - 1) / PAGE {
                let written = (end - page * PAGE).min(PAGE);
                let e = self.ends.entry(page as u64).or_default();
                *e = (*e).max(written);
            }
        }

        fn set_len(&mut self, len: usize) {
            self.bytes.resize(len, 0);
            self.ends.retain(|&page, e| {
                let from = page as usize * PAGE;
                *e = (*e).min(len.saturating_sub(from));
                from < len
            });
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Random writes (scalar, vectored, of another file's leases and of
        /// writers' own buffers),
        /// truncations, reads and leases around page and FS-block
        /// boundaries, at block sizes from below one page to 2 MiB: bytes,
        /// `len` and the page-exact `allocated` equal the flat model after
        /// every step, `resident` lies between the pages' written ends and
        /// `allocated`, a lease reaches at least to its page's written end,
        /// every lease still shows the bytes it was taken over, and the file
        /// whose pages were adopted is unchanged.
        #[test]
        fn file_matches_flat_model(
            block in prop::sample::select(vec![512u64, 4096, 3 * 4096, 64 << 10, 2 << 20]),
            ops in prop::collection::vec(op(), 1..40),
        ) {
            let at = |(unit, k, jitter): Pos| {
                ((if unit { block } else { PAGE as u64 }) * k + jitter).saturating_sub(300)
            };
            let fs = MemFs::with_block_size(block);
            let src_bytes: Vec<u8> = (0..SRC_LEN).map(|i| (i % 253) as u8 | 0x80).collect();
            let src = fs.create("src").unwrap();
            src.write_all_at(&src_bytes, 0).unwrap();
            let f = fs.create("m").unwrap();
            let mut model = Model::default();
            let mut leases: Vec<(ByteLease, Vec<u8>)> = Vec::new();
            for (step, op) in ops.iter().enumerate() {
                match op {
                    Op::Write(p, lens) => {
                        let data: Vec<Vec<u8>> = lens
                            .iter()
                            .enumerate()
                            .map(|(i, &n)| (0..n).map(|j| (step * 31 + i * 7 + j) as u8 | 1).collect())
                            .collect();
                        if let [one] = &data[..] {
                            f.write_all_at(one, at(*p)).unwrap();
                        } else {
                            let iov: Vec<IoSlice<'_>> = data.iter().map(|d| IoSlice::new(d)).collect();
                            f.write_vectored_at(&iov, at(*p)).unwrap();
                        }
                        model.write(at(*p) as usize, &data.concat());
                    }
                    Op::SetLen(p) => {
                        f.set_len(at(*p)).unwrap();
                        model.set_len(at(*p) as usize);
                    }
                    Op::Read(p, n) => {
                        let start = (at(*p) as usize).min(model.bytes.len());
                        let expect = &model.bytes[start..(start + n).min(model.bytes.len())];
                        let mut buf = vec![0xA5u8; *n];
                        let got = f.read_at(&mut buf, at(*p)).unwrap();
                        prop_assert_eq!(&buf[..got], expect);
                    }
                    Op::Lease(p, max) => {
                        let start = at(*p) as usize;
                        let inside = start < model.bytes.len();
                        let end = model.ends.get(&(start as u64 / PAGE as u64)).copied();
                        let backed = inside && end.is_some_and(|end| start % PAGE < end);
                        match f.read_lease(start as u64, *max) {
                            Some(lease) => {
                                prop_assert!(inside && end.is_some());
                                let granule = (block as usize / PAGE).max(1) * PAGE;
                                let most = (*max).min(granule - start % granule).min(model.bytes.len() - start);
                                let written = end.unwrap_or(0).saturating_sub(start % PAGE);
                                let n = lease.len();
                                prop_assert!(n >= most.min(written) && n <= most);
                                prop_assert_eq!(&lease[..], &model.bytes[start..start + n]);
                                let snapshot = lease.to_vec();
                                leases.push((lease, snapshot));
                            }
                            None => prop_assert!(!backed),
                        }
                    }
                    Op::Adopt(from, max, to) => {
                        if let Some(lease) = src.read_lease(*from, *max) {
                            f.write_lease_at(&lease, at(*to)).unwrap();
                            model.write(at(*to) as usize, &lease);
                        }
                    }
                    Op::Own(from, len, to) => {
                        let buf: Vec<u8> = (0..from + len).map(|j| (step * 13 + j) as u8 | 0x40).collect();
                        let lease = ByteLease::from_vec(buf).slice(*from, *len);
                        f.write_lease_at(&lease, at(*to)).unwrap();
                        model.write(at(*to) as usize, &lease);
                    }
                }
                let st = fs.stats("m").unwrap();
                prop_assert_eq!(st.len, model.bytes.len() as u64);
                prop_assert_eq!(st.allocated, (model.ends.len() * PAGE) as u64);
                let ends: usize = model.ends.values().sum();
                prop_assert!(ends as u64 <= st.resident && st.resident <= st.allocated);
                prop_assert!(
                    image_of(&f, model.bytes.len()) == model.bytes,
                    "file image differs from the model after step {}", step
                );
            }
            for (lease, snapshot) in &leases {
                prop_assert_eq!(&lease[..], &snapshot[..]);
            }
            prop_assert!(image_of(&src, SRC_LEN) == src_bytes, "an adopted page changed its source");
        }
    }

    proptest! {
        /// Arbitrary interleavings of positioned writes read back exactly
        /// like a reference flat buffer.
        #[test]
        fn writes_match_reference_model(
            ops in prop::collection::vec(
                (0u64..3 * PAGE as u64, prop::collection::vec(any::<u8>(), 1..200)),
                1..40
            )
        ) {
            let fs = MemFs::new();
            let f = fs.create("p").unwrap();
            let mut model: Vec<u8> = Vec::new();
            for (off, data) in &ops {
                f.write_all_at(data, *off).unwrap();
                let end = *off as usize + data.len();
                if model.len() < end { model.resize(end, 0); }
                model[*off as usize..end].copy_from_slice(data);
            }
            prop_assert_eq!(f.len().unwrap(), model.len() as u64);
            let mut back = vec![0u8; model.len()];
            if !back.is_empty() {
                f.read_exact_at(&mut back, 0).unwrap();
            }
            prop_assert_eq!(back, model);
        }

        /// set_len never corrupts surviving data.
        #[test]
        fn truncate_preserves_prefix(len1 in 1usize..5000, cut in 0u64..6000) {
            let fs = MemFs::new();
            let f = fs.create("q").unwrap();
            let data: Vec<u8> = (0..len1).map(|i| (i % 256) as u8).collect();
            f.write_all_at(&data, 0).unwrap();
            f.set_len(cut).unwrap();
            let keep = (cut as usize).min(len1);
            let mut back = vec![0u8; keep];
            if keep > 0 {
                f.read_exact_at(&mut back, 0).unwrap();
            }
            prop_assert_eq!(&back[..], &data[..keep]);
        }
    }
}
