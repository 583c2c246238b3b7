//! Virtual file-system abstraction for the SIONlib reproduction.
//!
//! SIONlib sits between a parallel application and the underlying (parallel)
//! file system. To keep the library storage-agnostic — and to let the test
//! suite and the timing simulator exercise the exact same code paths as real
//! disks — every component accesses storage through the [`Vfs`] and
//! [`VfsFile`] traits defined here.
//!
//! Two backends exist:
//!
//! * [`LocalFs`] — thin wrapper over `std::fs`, positioned I/O via
//!   `FileExt::{read_at, write_at}`. Used by the examples and CLI tools.
//! * [`MemFs`] — a thread-safe, *sparse* in-memory file system. Holes (file
//!   ranges never written) consume no memory, mirroring how GPFS/Lustre do
//!   not materialize untouched blocks, which SIONlib's block-per-task layout
//!   relies on. Used throughout the test suite.
//!
//! and one interposer: [`TapFs`] passes every operation on a backend
//! through an ordered list of [`Tap`]s (outermost first; checkers go after
//! the fault tap). Fault injection ([`Faults`]), the FS-block exclusivity
//! check ([`BlockGuard`]) and the extent recorders of the happens-before
//! engine ([`AccessSink`]) are taps — nothing else forwards the
//! [`Vfs`]/[`VfsFile`] surface.
//!
//! All offsets and lengths are `u64`; positioned reads of holes yield zero
//! bytes, as POSIX sparse files do.

mod fault;
pub mod guard;
mod local;
mod mem;
mod null;
mod order_guard;
mod tap;

pub use fault::{FaultKind, FaultRule, Faults, OpRecord};
pub use guard::{BlockGuard, BlockViolation};
pub use local::LocalFs;
pub use mem::{MemFs, MemFsStats};
pub use null::NullFile;
pub use order_guard::{AccessKind, AccessSink, FileAccess};
pub use tap::{Next, Op, OpKind, Tap, TapFs};

use std::io;
pub use std::io::IoSlice;
use std::sync::Arc;

/// A zero-copy lease: a refcounted borrow of a contiguous run of bytes,
/// handed out by [`VfsFile::read_lease`] and taken by
/// [`VfsFile::write_lease_at`].
///
/// The lease holds its buffer itself plus a range. The buffer is one of
/// two kinds: one a backend copied bytes into — for [`MemFs`] the extent's,
/// an `Arc<[u8]>` whose refcounts and bytes share one allocation — or a
/// writer's own `Vec`, handed over whole by [`from_vec`](Self::from_vec)
/// so that a backend can keep it as the file's storage instead of copying
/// it. Either way the lease keeps the buffer alive and its contents frozen
/// from the lease holder's point of view (writers copy out or replace
/// leased pages rather than mutating them), so consumers can inspect file
/// bytes without a memcpy into a caller-owned buffer.
pub struct ByteLease {
    buf: Backing,
    start: usize,
    len: usize,
}

/// The buffer behind a [`ByteLease`] and a [`MemFs`] extent.
#[derive(Clone)]
pub(crate) enum Backing {
    /// Bytes a backend copied: refcounts and bytes in one allocation.
    Built(Arc<[u8]>),
    /// A writer's buffer, handed over whole ([`ByteLease::from_vec`]).
    Owned(Arc<Vec<u8>>),
}

impl Backing {
    pub(crate) fn bytes(&self) -> &[u8] {
        match self {
            Backing::Built(b) => b,
            Backing::Owned(v) => v,
        }
    }

    /// Whether nothing but this handle holds the buffer.
    pub(crate) fn unshared(&self) -> bool {
        match self {
            Backing::Built(b) => Arc::strong_count(b) == 1,
            Backing::Owned(v) => Arc::strong_count(v) == 1,
        }
    }

    /// The bytes, writable in place — `None` while anything else holds the
    /// buffer.
    pub(crate) fn get_mut(&mut self) -> Option<&mut [u8]> {
        match self {
            Backing::Built(b) => Arc::get_mut(b),
            Backing::Owned(v) => Arc::get_mut(v).map(|v| &mut v[..]),
        }
    }
}

impl ByteLease {
    /// Lease `buf[start..start + len]`. Panics if the range is out of
    /// bounds — backends construct leases from ranges they just validated.
    pub(crate) fn new(buf: Backing, start: usize, len: usize) -> ByteLease {
        assert!(
            start
                .checked_add(len)
                .is_some_and(|end| end <= buf.bytes().len()),
            "lease range out of bounds"
        );
        ByteLease { buf, start, len }
    }

    /// Lease all of `buf` without copying it: a writer hands over the
    /// buffer it filled, and a backend that shares storage keeps it as the
    /// file's bytes ([`MemFs`] does for whole pages at a page boundary).
    /// [`into_vec`](Self::into_vec) gives it back if nothing kept it.
    pub fn from_vec(buf: Vec<u8>) -> ByteLease {
        let len = buf.len();
        ByteLease::new(Backing::Owned(Arc::new(buf)), 0, len)
    }

    /// The `len` bytes from `start` on of this lease, sharing its buffer.
    /// Panics if the range is out of bounds.
    pub fn slice(&self, start: usize, len: usize) -> ByteLease {
        assert!(
            start.checked_add(len).is_some_and(|end| end <= self.len),
            "lease slice out of bounds"
        );
        ByteLease::new(self.buf.clone(), self.start + start, len)
    }

    /// The whole buffer [`from_vec`](Self::from_vec) lent, if nothing else
    /// holds it any more — no backend kept it and no other lease of it is
    /// alive. Otherwise, or for a backend's buffer, the lease comes back.
    pub fn into_vec(self) -> Result<Vec<u8>, ByteLease> {
        let ByteLease { buf, start, len } = self;
        let buf = match buf {
            Backing::Owned(v) => match Arc::try_unwrap(v) {
                Ok(v) => return Ok(v),
                Err(v) => Backing::Owned(v),
            },
            built => built,
        };
        Err(ByteLease { buf, start, len })
    }

    /// The leased bytes.
    pub fn bytes(&self) -> &[u8] {
        &self.buf.bytes()[self.start..self.start + self.len]
    }

    /// Length of the leased run.
    #[allow(clippy::len_without_is_empty)]
    pub fn len(&self) -> usize {
        self.len
    }

    /// The backing buffer and where in it the leased bytes start: what a
    /// backend can adopt by refcount instead of copying.
    pub(crate) fn parts(&self) -> (&Backing, usize) {
        (&self.buf, self.start)
    }
}

impl std::ops::Deref for ByteLease {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        self.bytes()
    }
}

/// A handle to an open file supporting positioned (pread/pwrite-style) I/O.
///
/// Handles are cheap to open and independent: several tasks may hold handles
/// to the *same* physical file and write disjoint regions concurrently —
/// this is exactly the SIONlib multifile access pattern.
pub trait VfsFile: Send + Sync {
    /// Read up to `buf.len()` bytes starting at `offset`. Reading past the
    /// end of the file returns fewer bytes (possibly zero); reading a hole
    /// inside the file yields zero bytes.
    fn read_at(&self, buf: &mut [u8], offset: u64) -> io::Result<usize>;

    /// Write all of `buf` at `offset`, extending the file if needed.
    fn write_at(&self, buf: &[u8], offset: u64) -> io::Result<usize>;

    /// Truncate or extend (with a hole) the file to `len` bytes.
    fn set_len(&self, len: u64) -> io::Result<()>;

    /// Current file size in bytes (highest written/truncated extent).
    fn len(&self) -> io::Result<u64>;

    /// Whether the file is empty (zero length).
    fn is_empty(&self) -> io::Result<bool> {
        Ok(self.len()? == 0)
    }

    /// Flush buffered data to the backing store.
    fn sync(&self) -> io::Result<()>;

    /// Read exactly `buf.len()` bytes at `offset`, failing on short reads.
    fn read_exact_at(&self, buf: &mut [u8], offset: u64) -> io::Result<()> {
        let mut done = 0;
        while done < buf.len() {
            let n = self.read_at(&mut buf[done..], offset + done as u64)?;
            if n == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "read_exact_at: unexpected end of file",
                ));
            }
            done += n;
        }
        Ok(())
    }

    /// Write all of `bufs`, laid end to end, starting at `offset` — the
    /// positioned `pwritev`: one submission for a whole iovec instead of
    /// one call per slice.
    ///
    /// Error semantics match the scalar default below on every backend:
    /// slices persist **in order**, so on failure the file holds some
    /// prefix of the iovec (possibly cut mid-slice) and nothing beyond it.
    /// The crash-consistency harness relies on this prefix guarantee.
    ///
    /// The provided default loops [`write_all_at`](Self::write_all_at) per
    /// slice — correct everywhere; backends override it to batch the
    /// submission ([`MemFs`] applies the iovec as one byte run, [`LocalFs`]
    /// coalesces into a single syscall).
    ///
    /// Concurrent readers get what a parallel file system gives: the write
    /// is atomic **per FS block** ([`Vfs::block_size`]), not per call. A
    /// reader may see the leading blocks of an iovec without the trailing
    /// ones, never a torn block. Tasks that need more must not share
    /// blocks, which is what [`BlockGuard`] checks.
    fn write_vectored_at(&self, bufs: &[IoSlice<'_>], offset: u64) -> io::Result<()> {
        let mut at = offset;
        for b in bufs {
            self.write_all_at(b, at)?;
            at += b.len() as u64;
        }
        Ok(())
    }

    /// Borrow up to `max_len` bytes at `offset` straight from the file's
    /// backing storage, without copying. Returns a lease over **at most**
    /// `max_len` bytes — however much of the range one contiguous backing
    /// run can serve (at least one byte) — or `None` when the backend has
    /// no shareable backing storage for the range (real disks, holes, or
    /// `offset` at/past end of file). Callers must treat `None` and short
    /// leases as a cue to fall back to [`read_at`](Self::read_at); the two
    /// paths observe identical bytes.
    fn read_lease(&self, offset: u64, max_len: usize) -> Option<ByteLease> {
        let _ = (offset, max_len);
        None
    }

    /// Write the leased bytes at `offset` — the write twin of
    /// [`read_lease`](Self::read_lease). A backend that can share storage
    /// takes the lent buffer itself, by refcount, as `copy_file_range` or a
    /// reflink lets a real file system share extents instead of moving the
    /// bytes through the client; neither file can then change the other's
    /// bytes (copy-on-write both ways). The file ends up exactly as after
    /// [`write_all_at`](Self::write_all_at) of the same bytes, and fails
    /// the same way.
    ///
    /// The lent buffer may be another file's ([`read_lease`](Self::read_lease))
    /// or a writer's own ([`ByteLease::from_vec`]): a writer that hands over
    /// the buffer it staged its bytes in has copied each byte once, into
    /// storage the file keeps.
    ///
    /// The default is that copy. [`MemFs`] adopts a lease of a whole number
    /// of pages at a page-aligned offset; [`LocalFs`] keeps the default,
    /// because a positioned `copy_file_range` needs `unsafe`/`libc`.
    fn write_lease_at(&self, lease: &ByteLease, offset: u64) -> io::Result<()> {
        self.write_all_at(lease, offset)
    }

    /// Write all of `buf` at `offset`, failing on short writes.
    fn write_all_at(&self, buf: &[u8], offset: u64) -> io::Result<()> {
        let mut done = 0;
        while done < buf.len() {
            let n = self.write_at(&buf[done..], offset + done as u64)?;
            if n == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::WriteZero,
                    "write_all_at: wrote zero bytes",
                ));
            }
            done += n;
        }
        Ok(())
    }
}

/// A file namespace: create/open/remove files, query file-system properties.
///
/// Paths are plain `/`-separated strings; implementations normalize them but
/// do not interpret `..`. Directories are implicit (created on demand).
pub trait Vfs: Send + Sync {
    /// Create (or truncate) a file and open it read-write.
    fn create(&self, path: &str) -> io::Result<Arc<dyn VfsFile>>;

    /// Open an existing file read-only.
    fn open(&self, path: &str) -> io::Result<Arc<dyn VfsFile>>;

    /// Open an existing file read-write without truncating.
    fn open_rw(&self, path: &str) -> io::Result<Arc<dyn VfsFile>>;

    /// Remove a file.
    fn remove(&self, path: &str) -> io::Result<()>;

    /// Whether a file exists at `path`.
    fn exists(&self, path: &str) -> bool;

    /// The file system's block size in bytes — what SIONlib discovers via
    /// `fstat()` and aligns chunks to. (GPFS on Jugene: 2 MiB.)
    fn block_size(&self) -> u64;

    /// List files whose path starts with `prefix`, in sorted order.
    fn list(&self, prefix: &str) -> io::Result<Vec<String>>;

    /// Open a *shadow* handle for `path`: a sink a task writes into when
    /// another task owns the physical bytes of `path` (the aggregated-I/O
    /// member side runs its chunk arithmetic against one of these while the
    /// elected aggregator replays the ops against the real file). The
    /// default discards the bytes ([`NullFile`]); [`TapFs`] marks every op
    /// on one as a shadow op, which an [`AccessSink`] records as a
    /// *durability obligation* — bytes the owner must persist before
    /// acknowledging.
    fn create_shadow(&self, path: &str) -> io::Result<Arc<dyn VfsFile>> {
        let _ = path;
        Ok(Arc::new(NullFile::new()))
    }
}

/// The end of a `len`-byte write at `offset`, or `InvalidInput` when it
/// would pass `u64::MAX` — the error `pwrite` gives on a real disk, so no
/// backend reports such a write as done.
pub(crate) fn write_end(offset: u64, len: u64) -> io::Result<u64> {
    offset.checked_add(len).ok_or_else(|| {
        let msg = format!("write of {len} bytes at offset {offset} passes the largest file offset");
        io::Error::new(io::ErrorKind::InvalidInput, msg)
    })
}

/// Normalize a path: collapse duplicate slashes, strip a leading `./` and a
/// trailing slash. Keeps the path otherwise verbatim.
pub fn normalize_path(path: &str) -> String {
    let mut out = String::with_capacity(path.len());
    let trimmed = path.strip_prefix("./").unwrap_or(path);
    let mut last_slash = false;
    for c in trimmed.chars() {
        if c == '/' {
            if !last_slash && !out.is_empty() {
                out.push('/');
            }
            last_slash = true;
        } else {
            out.push(c);
            last_slash = false;
        }
    }
    if out.ends_with('/') {
        out.pop();
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalize_collapses_slashes() {
        assert_eq!(normalize_path("a//b///c"), "a/b/c");
        assert_eq!(normalize_path("./x/y"), "x/y");
        assert_eq!(normalize_path("x/y/"), "x/y");
        assert_eq!(normalize_path("plain"), "plain");
    }

    #[test]
    fn normalize_keeps_absolute_paths_rooted() {
        // Leading slash collapses (we treat namespaces as rootless), but the
        // remainder is intact.
        assert_eq!(normalize_path("/tmp//f"), "tmp/f");
    }
}
