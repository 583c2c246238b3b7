//! `TimedFs`: a `Vfs` wrapper that counts and times every operation.
//!
//! Used in traced runs only. Each operation is forwarded unchanged to the
//! wrapped file system, added to the wrapper's totals, and attributed to
//! the span the calling thread currently runs in (see [`crate::span`]).
//! Page leases are counted but not timed: a lease is an `Arc` clone, and
//! two clock reads around it would cost more than the operation.

use crate::span::{self, now_ns, VfsOp};
use std::io::{self, IoSlice};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;
use vfs::{ByteLease, Vfs, VfsFile};

/// Totals over every operation that went through one `TimedFs`.
#[derive(Debug, Default)]
pub struct VfsTotals {
    pub write_calls: AtomicU64,
    pub write_bytes: AtomicU64,
    pub write_ns: AtomicU64,
    pub read_calls: AtomicU64,
    pub read_bytes: AtomicU64,
    pub read_ns: AtomicU64,
    pub lease_calls: AtomicU64,
    pub namespace_calls: AtomicU64,
    pub namespace_ns: AtomicU64,
    pub errors: AtomicU64,
}

impl VfsTotals {
    /// Time `f`, add it to the totals of `op` and to the current span.
    /// `bytes` maps the result to the bytes it moved.
    fn timed<T>(
        &self,
        op: VfsOp,
        f: impl FnOnce() -> io::Result<T>,
        bytes: impl FnOnce(&T) -> u64,
    ) -> io::Result<T> {
        let start = now_ns();
        let out = f();
        let end = now_ns();
        let moved = match &out {
            Ok(v) => bytes(v),
            Err(_) => {
                self.errors.fetch_add(1, Relaxed);
                0
            }
        };
        let (calls, total_bytes, ns) = match op {
            VfsOp::Write => (&self.write_calls, Some(&self.write_bytes), &self.write_ns),
            VfsOp::Read => (&self.read_calls, Some(&self.read_bytes), &self.read_ns),
            VfsOp::Namespace => (&self.namespace_calls, None, &self.namespace_ns),
            VfsOp::Lease => unreachable!("leases are counted, not timed"),
        };
        calls.fetch_add(1, Relaxed);
        if let Some(b) = total_bytes {
            b.fetch_add(moved, Relaxed);
        }
        ns.fetch_add(end - start, Relaxed);
        span::record_vfs(op, moved, Some((start, end)));
        out
    }

    fn namespace<T>(&self, f: impl FnOnce() -> io::Result<T>) -> io::Result<T> {
        self.timed(VfsOp::Namespace, f, |_| 0)
    }
}

/// A counting, timing view of `inner`.
pub struct TimedFs<'a> {
    inner: &'a dyn Vfs,
    totals: Arc<VfsTotals>,
}

impl<'a> TimedFs<'a> {
    /// Operations are added to `totals`, which several views may share.
    pub fn new(inner: &'a dyn Vfs, totals: Arc<VfsTotals>) -> TimedFs<'a> {
        TimedFs { inner, totals }
    }

    fn wrap(&self, file: Arc<dyn VfsFile>) -> Arc<dyn VfsFile> {
        Arc::new(TimedFile {
            inner: file,
            totals: self.totals.clone(),
        })
    }
}

impl Vfs for TimedFs<'_> {
    fn create(&self, path: &str) -> io::Result<Arc<dyn VfsFile>> {
        self.totals
            .namespace(|| self.inner.create(path))
            .map(|f| self.wrap(f))
    }

    fn open(&self, path: &str) -> io::Result<Arc<dyn VfsFile>> {
        self.totals
            .namespace(|| self.inner.open(path))
            .map(|f| self.wrap(f))
    }

    fn open_rw(&self, path: &str) -> io::Result<Arc<dyn VfsFile>> {
        self.totals
            .namespace(|| self.inner.open_rw(path))
            .map(|f| self.wrap(f))
    }

    fn remove(&self, path: &str) -> io::Result<()> {
        self.totals.namespace(|| self.inner.remove(path))
    }

    fn exists(&self, path: &str) -> bool {
        self.totals
            .namespace(|| Ok(self.inner.exists(path)))
            .unwrap_or(false)
    }

    fn block_size(&self) -> u64 {
        self.inner.block_size()
    }

    fn list(&self, prefix: &str) -> io::Result<Vec<String>> {
        self.totals.namespace(|| self.inner.list(prefix))
    }

    fn create_shadow(&self, path: &str) -> io::Result<Arc<dyn VfsFile>> {
        span::note_shadow_open();
        self.totals
            .namespace(|| self.inner.create_shadow(path))
            .map(|f| self.wrap(f))
    }
}

struct TimedFile {
    inner: Arc<dyn VfsFile>,
    totals: Arc<VfsTotals>,
}

impl VfsFile for TimedFile {
    fn read_at(&self, buf: &mut [u8], offset: u64) -> io::Result<usize> {
        self.totals.timed(
            VfsOp::Read,
            || self.inner.read_at(buf, offset),
            |n| *n as u64,
        )
    }

    fn write_at(&self, buf: &[u8], offset: u64) -> io::Result<usize> {
        self.totals.timed(
            VfsOp::Write,
            || self.inner.write_at(buf, offset),
            |n| *n as u64,
        )
    }

    fn set_len(&self, len: u64) -> io::Result<()> {
        self.totals.namespace(|| self.inner.set_len(len))
    }

    fn len(&self) -> io::Result<u64> {
        self.totals.namespace(|| self.inner.len())
    }

    fn is_empty(&self) -> io::Result<bool> {
        self.totals.namespace(|| self.inner.is_empty())
    }

    fn sync(&self) -> io::Result<()> {
        self.totals.namespace(|| self.inner.sync())
    }

    fn read_exact_at(&self, buf: &mut [u8], offset: u64) -> io::Result<()> {
        let len = buf.len() as u64;
        self.totals.timed(
            VfsOp::Read,
            || self.inner.read_exact_at(buf, offset),
            |()| len,
        )
    }

    fn write_vectored_at(&self, bufs: &[IoSlice<'_>], offset: u64) -> io::Result<()> {
        let len: u64 = bufs.iter().map(|b| b.len() as u64).sum();
        self.totals.timed(
            VfsOp::Write,
            || self.inner.write_vectored_at(bufs, offset),
            |()| len,
        )
    }

    fn read_lease(&self, offset: u64, max_len: usize) -> Option<ByteLease> {
        self.totals.lease_calls.fetch_add(1, Relaxed);
        let lease = self.inner.read_lease(offset, max_len);
        span::record_vfs(
            VfsOp::Lease,
            lease.as_ref().map_or(0, |l| l.len() as u64),
            None,
        );
        lease
    }

    fn write_all_at(&self, buf: &[u8], offset: u64) -> io::Result<()> {
        let len = buf.len() as u64;
        self.totals.timed(
            VfsOp::Write,
            || self.inner.write_all_at(buf, offset),
            |()| len,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vfs::MemFs;

    /// Drive every `Vfs` and `VfsFile` method once and return what the
    /// file system holds afterwards.
    fn exercise(fs: &dyn Vfs) -> (Vec<u8>, Vec<String>) {
        let f = fs.create("d/a").unwrap();
        assert!(f.is_empty().unwrap());
        assert_eq!(f.write_at(b"hello", 0).unwrap(), 5);
        f.write_all_at(b"world", 5).unwrap();
        f.write_vectored_at(&[IoSlice::new(b"ab"), IoSlice::new(b"cde")], 10)
            .unwrap();
        f.set_len(20).unwrap();
        f.sync().unwrap();
        assert_eq!(f.len().unwrap(), 20);

        let g = fs.open("d/a").unwrap();
        let mut some = [0u8; 4];
        assert_eq!(g.read_at(&mut some, 3).unwrap(), 4);
        assert_eq!(&some, b"lowo");
        let lease = g.read_lease(5, 100).expect("MemFs leases written pages");
        assert_eq!(&lease[..5], b"world");
        assert!(g.read_lease(1 << 20, 1).is_none());
        assert!(g.read_exact_at(&mut [0u8; 8], 16).is_err(), "past the end");

        fs.open_rw("d/a").unwrap().write_all_at(b"!", 19).unwrap();
        assert!(fs.open("d/missing").is_err());
        assert!(fs.exists("d/a") && !fs.exists("d/b"));
        fs.create("d/b").unwrap();
        let listed = fs.list("d/").unwrap();
        fs.remove("d/b").unwrap();
        assert!(!fs.exists("d/b"));
        // The default shadow handle swallows writes.
        fs.create_shadow("d/a")
            .unwrap()
            .write_all_at(b"shadow", 0)
            .unwrap();
        assert_eq!(fs.block_size(), 512);

        let mut all = vec![0u8; 20];
        fs.open("d/a").unwrap().read_exact_at(&mut all, 0).unwrap();
        (all, listed)
    }

    #[test]
    fn every_method_is_forwarded_unchanged_and_counted() {
        let plain = MemFs::with_block_size(512);
        let wrapped = MemFs::with_block_size(512);
        let totals = Arc::new(VfsTotals::default());
        let timed = TimedFs::new(&wrapped, totals.clone());

        let expect = exercise(&plain);
        assert_eq!(exercise(&timed), expect);
        assert_eq!(expect.0, b"helloworldabcde\0\0\0\0!");

        let n = |a: &AtomicU64| a.load(Relaxed);
        assert_eq!(
            (n(&totals.write_calls), n(&totals.write_bytes)),
            (5, 5 + 5 + 5 + 1 + 6)
        );
        assert_eq!((n(&totals.read_calls), n(&totals.read_bytes)), (3, 4 + 20));
        assert_eq!(n(&totals.lease_calls), 2);
        assert_eq!(
            n(&totals.errors),
            2,
            "the short read_exact_at and the missing file"
        );
        // create x2, open x3, open_rw, exists x3, list, remove, create_shadow,
        // is_empty, set_len, sync, len.
        assert_eq!(n(&totals.namespace_calls), 16);
    }
}
