//! [`TapFs`]: the one VFS interposer.
//!
//! Everything in this workspace that watches or perturbs file I/O — fault
//! injection ([`Faults`](crate::Faults)), the FS-block exclusivity check
//! ([`BlockGuard`](crate::BlockGuard)), the byte-extent recorders behind
//! the happens-before engine ([`AccessSink`](crate::AccessSink)) — is a
//! [`Tap`]: one hook that sees each operation described once as an [`Op`].
//! `TapFs` wraps a backend with an ordered list of taps and is the only
//! code that forwards the [`Vfs`]/[`VfsFile`] surface.
//!
//! ## List order
//!
//! Taps run outermost first: `taps[0]` sees the op as the caller issued
//! it, and its `next` runs `taps[1..]` and then the backend. A tap that
//! cuts an op short hands the *prefix* down the list, so **checkers go
//! after the fault tap**: listed there they see what physically reached
//! the file system (a torn write's persisted prefix, attributed to its
//! writer), not what the caller asked for.
//!
//! ## Three fixed rules
//!
//! * **Vectored writes.** If any tap [`injects`](Tap::injects), every
//!   slice of the iovec is its own op — own pass through the list, own
//!   backend write — so a crash switch or quota cuts the iovec mid-stream
//!   and the file keeps exactly the prefix the trait promises. Otherwise
//!   the iovec reaches the backend in one submission and the taps then see
//!   each slice's own extent.
//! * **Lease writes.** [`VfsFile::write_lease_at`] is one `Write` op over
//!   the lease's extent. The backend gets the lease only if every tap let
//!   all of it through; a prefix a tap cut it to reaches the backend as a
//!   plain write of those bytes.
//! * **Shadows.** [`Vfs::create_shadow`] forwards to the backend's shadow,
//!   wraps it, and marks every op on it [`shadow`](Op::shadow). Opening a
//!   shadow is not itself an op.
//!
//! `len`, `exists`, `list`, `remove` and `block_size` are not ops: no tap
//! counts, faults or checks them, so recovery tooling can size and list
//! files without perturbing op numbering.

use crate::guard::current_writer;
use crate::{normalize_path, ByteLease, IoSlice, Vfs, VfsFile};
use std::io;
use std::sync::Arc;

/// What an [`Op`] does. ([`FaultKind`](crate::FaultKind) is this enum under
/// the name fault rules use.)
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    /// File creations.
    Create,
    /// Opens (read-only and read-write).
    Open,
    /// Positioned writes.
    Write,
    /// Positioned reads, copied or leased.
    Read,
    /// Durability barriers (`sync`).
    Sync,
    /// Truncations/extensions (`set_len`).
    SetLen,
}

/// One file-system operation as every tap sees it.
#[derive(Debug, Clone, Copy)]
pub struct Op<'a> {
    /// What the operation does.
    pub kind: OpKind,
    /// Normalized path of the file (for a shadow: of the shadowed file).
    pub path: &'a str,
    /// Issued on a [`Vfs::create_shadow`] handle: a logical access whose
    /// bytes never reach the file at `path`.
    pub shadow: bool,
    /// Label of the issuing thread: the world rank the runtime runs on it
    /// ([`guard`](crate::guard)).
    pub task: Option<u64>,
    /// Byte offset (the new length for `SetLen`; 0 for `Create`, `Open`,
    /// `Sync`).
    pub offset: u64,
    /// Bytes requested (reads and writes; 0 otherwise).
    pub len: u64,
}

/// The rest of the tap list and the backend: `next(n)` carries out the
/// first `n` bytes of the op and returns the bytes actually transferred.
pub type Next<'a> = &'a mut dyn FnMut(u64) -> io::Result<u64>;

/// One interposer in a [`TapFs`] list.
pub trait Tap: Send + Sync {
    /// The single hook. Let the op through with `next(op.len)`, veto it by
    /// returning `Err` without calling `next`, or let only a prefix
    /// through with `next(k)` for `k < op.len`; `next`'s result is the
    /// outcome and the bytes transferred. Returning `Ok` without having
    /// called `next` is a bug in the tap.
    fn around(&self, op: &Op<'_>, next: Next<'_>) -> io::Result<u64>;

    /// Whether this tap can fail an op or cut it short. `TapFs` picks the
    /// vectored-write rule (module docs) from it, and serves no read
    /// leases past an injecting tap, so every read stays faultable.
    fn injects(&self) -> bool {
        false
    }
}

/// Run `op` through `taps` in order, then `backend`.
fn pass(taps: &[Arc<dyn Tap>], op: &Op<'_>, backend: Next<'_>) -> io::Result<u64> {
    match taps.split_first() {
        None => backend(op.len),
        Some((tap, rest)) => tap.around(op, &mut |n| {
            pass(
                rest,
                &Op {
                    len: n.min(op.len),
                    ..*op
                },
                backend,
            )
        }),
    }
}

/// A [`Vfs`] that passes every operation on `inner` through an ordered
/// list of [`Tap`]s; see the module docs. Callers keep an `Arc` to each
/// tap they configure or query and hand the `TapFs` to whatever takes a
/// `&dyn Vfs`.
pub struct TapFs {
    inner: Arc<dyn Vfs>,
    taps: Arc<[Arc<dyn Tap>]>,
    /// Some tap in `taps` injects.
    injects: bool,
}

impl TapFs {
    /// Interpose `taps`, outermost first, on `inner`.
    pub fn new(inner: Arc<dyn Vfs>, taps: Vec<Arc<dyn Tap>>) -> TapFs {
        TapFs {
            inner,
            injects: taps.iter().any(|t| t.injects()),
            taps: taps.into(),
        }
    }

    fn wrap(&self, path: String, shadow: bool, inner: Arc<dyn VfsFile>) -> Arc<dyn VfsFile> {
        let (injects, taps) = (self.injects, self.taps.clone());
        Arc::new(TapFile {
            inner,
            path,
            shadow,
            injects,
            taps,
        })
    }

    fn open_op(
        &self,
        kind: OpKind,
        path: &str,
        open: &dyn Fn() -> io::Result<Arc<dyn VfsFile>>,
    ) -> io::Result<Arc<dyn VfsFile>> {
        let path = normalize_path(path);
        let op = Op {
            kind,
            path: &path,
            shadow: false,
            task: current_writer(),
            offset: 0,
            len: 0,
        };
        let mut file = None;
        pass(&self.taps, &op, &mut |_| {
            file = Some(open()?);
            Ok(0)
        })?;
        Ok(self.wrap(
            path,
            false,
            file.expect("a tap returned Ok without running the op"),
        ))
    }
}

impl Vfs for TapFs {
    fn create(&self, path: &str) -> io::Result<Arc<dyn VfsFile>> {
        self.open_op(OpKind::Create, path, &|| self.inner.create(path))
    }

    fn open(&self, path: &str) -> io::Result<Arc<dyn VfsFile>> {
        self.open_op(OpKind::Open, path, &|| self.inner.open(path))
    }

    fn open_rw(&self, path: &str) -> io::Result<Arc<dyn VfsFile>> {
        self.open_op(OpKind::Open, path, &|| self.inner.open_rw(path))
    }

    fn remove(&self, path: &str) -> io::Result<()> {
        self.inner.remove(path)
    }

    fn exists(&self, path: &str) -> bool {
        self.inner.exists(path)
    }

    fn block_size(&self) -> u64 {
        self.inner.block_size()
    }

    fn list(&self, prefix: &str) -> io::Result<Vec<String>> {
        self.inner.list(prefix)
    }

    fn create_shadow(&self, path: &str) -> io::Result<Arc<dyn VfsFile>> {
        Ok(self.wrap(normalize_path(path), true, self.inner.create_shadow(path)?))
    }
}

struct TapFile {
    inner: Arc<dyn VfsFile>,
    path: String,
    shadow: bool,
    injects: bool,
    taps: Arc<[Arc<dyn Tap>]>,
}

impl TapFile {
    fn run(&self, kind: OpKind, offset: u64, len: usize, backend: Next<'_>) -> io::Result<usize> {
        let op = Op {
            kind,
            path: &self.path,
            shadow: self.shadow,
            task: current_writer(),
            offset,
            len: len as u64,
        };
        pass(&self.taps, &op, backend).map(|n| n as usize)
    }
}

impl VfsFile for TapFile {
    fn read_at(&self, buf: &mut [u8], offset: u64) -> io::Result<usize> {
        self.run(OpKind::Read, offset, buf.len(), &mut |n| {
            self.inner
                .read_at(&mut buf[..n as usize], offset)
                .map(|n| n as u64)
        })
    }

    fn write_at(&self, buf: &[u8], offset: u64) -> io::Result<usize> {
        self.run(OpKind::Write, offset, buf.len(), &mut |n| {
            self.inner
                .write_at(&buf[..n as usize], offset)
                .map(|n| n as u64)
        })
    }

    fn write_vectored_at(&self, bufs: &[IoSlice<'_>], offset: u64) -> io::Result<()> {
        let mut at = offset;
        if self.injects {
            for b in bufs {
                self.write_all_at(b, at)?;
                at += b.len() as u64;
            }
        } else {
            self.inner.write_vectored_at(bufs, offset)?;
            // Persisted in one submission; the taps learn each slice's extent.
            for b in bufs {
                self.run(OpKind::Write, at, b.len(), &mut Ok)?;
                at += b.len() as u64;
            }
        }
        Ok(())
    }

    fn read_lease(&self, offset: u64, max_len: usize) -> Option<ByteLease> {
        if self.injects {
            return None;
        }
        let mut lease = None;
        self.run(OpKind::Read, offset, max_len, &mut |n| {
            lease = self.inner.read_lease(offset, n as usize);
            let served = lease.as_ref().ok_or(io::ErrorKind::Unsupported)?;
            Ok(served.len() as u64)
        })
        .ok()?;
        lease
    }

    /// One `Write` op over the lease's extent. Let through whole, the
    /// backend gets the lease; cut to a prefix, it gets those bytes as a
    /// plain write — taps see exactly what a scalar write shows them.
    fn write_lease_at(&self, lease: &ByteLease, offset: u64) -> io::Result<()> {
        let done = self.run(OpKind::Write, offset, lease.len(), &mut |n| {
            if n as usize == lease.len() {
                self.inner.write_lease_at(lease, offset)?;
            } else {
                self.inner.write_all_at(&lease[..n as usize], offset)?;
            }
            Ok(n)
        })?;
        // A tap that cut the write without failing it: what `write_all_at`
        // does after a short `write_at`.
        match done {
            0 if !lease.is_empty() => Err(io::ErrorKind::WriteZero.into()),
            _ => self.write_all_at(&lease[done..], offset + done as u64),
        }
    }

    fn set_len(&self, len: u64) -> io::Result<()> {
        self.run(OpKind::SetLen, len, 0, &mut |_| {
            self.inner.set_len(len).map(|()| 0)
        })?;
        Ok(())
    }

    fn len(&self) -> io::Result<u64> {
        self.inner.len()
    }

    fn sync(&self) -> io::Result<()> {
        self.run(OpKind::Sync, 0, 0, &mut |_| self.inner.sync().map(|()| 0))?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::guard::{clear_task, set_task};
    use crate::{BlockGuard, Faults, MemFs};

    /// Task 1 tears a 40-byte write into task 0's block after `keep` bytes.
    /// Returns the guard's findings with the tap list in the given order.
    fn torn_write_into_foreign_block(guard_after_faults: bool) -> Vec<crate::BlockViolation> {
        let (faults, guard) = (Faults::new(), BlockGuard::new(64));
        let taps: Vec<Arc<dyn Tap>> = if guard_after_faults {
            vec![faults.clone(), guard.clone()]
        } else {
            vec![guard.clone(), faults.clone()]
        };
        let mem = Arc::new(MemFs::with_block_size(64));
        let fs = TapFs::new(mem.clone(), taps);
        let f = fs.create("a").unwrap(); // op 0
        set_task(0);
        f.write_all_at(&[1u8; 64], 0).unwrap(); // op 1
        set_task(1);
        faults.crash_torn_write(2, 5);
        assert!(f.write_all_at(&[2u8; 40], 16).is_err()); // op 2, torn
        clear_task();
        let mut back = [0u8; 8];
        mem.open("a").unwrap().read_exact_at(&mut back, 16).unwrap();
        assert_eq!(
            back,
            [2, 2, 2, 2, 2, 1, 1, 1],
            "exactly the torn prefix persisted"
        );
        guard.violations()
    }

    /// Task 0 writes page 0 of a source file at offset 0 of `dst`, then
    /// task 1 tears a write of page 1 over it after 100 bytes — as leases
    /// (`lease`) or as the same bytes written with `write_all_at`. Returns
    /// the file image, the fault tap's log and the guard's findings.
    fn torn_page_write(lease: bool) -> (Vec<u8>, Vec<crate::OpRecord>, Vec<crate::BlockViolation>) {
        let mem = Arc::new(MemFs::with_block_size(4096));
        let src = mem.create("src").unwrap();
        let pages: Vec<u8> = (0..8192).map(|i| (i % 251) as u8).collect();
        src.write_all_at(&pages, 0).unwrap();
        let (faults, guard) = (Faults::new(), BlockGuard::new(4096));
        let fs = TapFs::new(mem.clone(), vec![faults.clone(), guard.clone()]);
        let f = fs.create("dst").unwrap(); // op 0
        let write = |page: u64| {
            let l = src.read_lease(page * 4096, 4096).unwrap();
            if lease {
                f.write_lease_at(&l, 0)
            } else {
                f.write_all_at(&l, 0)
            }
        };
        set_task(0);
        write(0).unwrap(); // op 1
        if lease {
            let adopted = mem.open("dst").unwrap().read_lease(0, 4096).unwrap();
            assert_eq!(adopted.as_ptr(), src.read_lease(0, 1).unwrap().as_ptr());
        }
        set_task(1);
        faults.crash_torn_write(2, 100);
        assert!(write(1).is_err()); // op 2, torn
        clear_task();
        let mut image = vec![0u8; 4096];
        mem.open("dst")
            .unwrap()
            .read_exact_at(&mut image, 0)
            .unwrap();
        let mut src_now = vec![0u8; 8192];
        src.read_exact_at(&mut src_now, 0).unwrap();
        assert!(
            src_now == pages,
            "the torn write reached the adopted page's source"
        );
        (image, faults.take_log(), guard.violations())
    }

    #[test]
    fn a_lease_write_is_one_write_op_and_tears_like_a_scalar_one() {
        let (image, log, violations) = torn_page_write(true);
        let pages: Vec<u8> = (0..8192).map(|i| (i % 251) as u8).collect();
        let mut want = pages[..4096].to_vec();
        want[..100].copy_from_slice(&pages[4096..4196]);
        assert!(
            image == want,
            "exactly the torn prefix persisted over the adopted page"
        );
        let writes: Vec<_> = log
            .iter()
            .map(|r| (r.kind, r.len, r.persisted, r.ok))
            .collect();
        let want_log = [
            (OpKind::Create, 0, 0, true),
            (OpKind::Write, 4096, 4096, true),
            (OpKind::Write, 4096, 100, false),
        ];
        assert_eq!(writes, want_log);
        assert_eq!(violations.len(), 1, "{violations:?}");
        assert_eq!((violations[0].offset, violations[0].len), (0, 100));
        assert_eq!(
            (image, log, violations),
            torn_page_write(false),
            "what a scalar write shows"
        );
    }

    #[test]
    fn writes_past_the_largest_offset_fail_and_change_nothing() {
        let mem = Arc::new(MemFs::new());
        let (faults, guard) = (Faults::new(), BlockGuard::new(mem.block_size()));
        let tapped = TapFs::new(mem.clone(), vec![faults.clone(), guard.clone()]);
        let files: [(&str, Arc<dyn VfsFile>); 3] = [
            ("MemFs", mem.create("m").unwrap()),
            ("NullFile", Arc::new(crate::NullFile::new())),
            ("TapFs[Faults, BlockGuard]", tapped.create("t").unwrap()),
        ];
        let at = u64::MAX - 5;
        let (a, b) = ([7u8; 50], [8u8; 50]);
        // A whole page, written at the last page boundary: `MemFs` would
        // adopt it.
        let page = mem.create("page").unwrap();
        page.write_all_at(&[9u8; 4096], 0).unwrap();
        let lease = page.read_lease(0, 4096).unwrap();
        set_task(0);
        for (name, f) in &files {
            f.write_all_at(b"kept", 0).unwrap();
            let scalar = f.write_at(&[7u8; 100], at).unwrap_err();
            let iov = [IoSlice::new(&[]), IoSlice::new(&a), IoSlice::new(&b)];
            let vectored = f.write_vectored_at(&iov, at).unwrap_err();
            let leased = f.write_lease_at(&lease, u64::MAX - 4095).unwrap_err();
            for err in [scalar, vectored, leased] {
                assert_eq!(err.kind(), io::ErrorKind::InvalidInput, "{name}: {err}");
            }
            assert_eq!(f.len().unwrap(), 4, "{name}");
            let mut back = [0u8; 4];
            f.read_exact_at(&mut back, 0).unwrap();
            if *name != "NullFile" {
                assert_eq!(&back, b"kept", "{name}");
            }
        }
        clear_task();
        for path in ["m", "t"] {
            assert_eq!(
                mem.stats(path).unwrap().allocated,
                4096,
                "{path}: the page of \"kept\""
            );
        }
        assert!(guard.violations().is_empty());
        let refused: Vec<_> = faults.take_log().into_iter().filter(|r| !r.ok).collect();
        // Scalar, vectored, lease — in that order.
        let offsets: Vec<_> = refused.iter().map(|r| r.offset).collect();
        assert_eq!(offsets, [at, at, u64::MAX - 4095], "{refused:?}");
        assert!(refused.iter().all(|r| r.persisted == 0), "{refused:?}");
    }

    #[test]
    fn taps_after_the_fault_tap_see_what_reached_the_file() {
        // Listed after the fault tap, the guard is handed the persisted
        // prefix and attributes it to its writer.
        let v = torn_write_into_foreign_block(true);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!((v[0].prev_task, v[0].task, v[0].block), (0, 1, 0));
        assert_eq!(
            (v[0].offset, v[0].len),
            (16, 5),
            "len is the bytes kept, not the bytes asked"
        );
        // Listed before it, the guard only learns that the op failed: the
        // five foreign bytes in task 0's block go unnoticed.
        assert!(torn_write_into_foreign_block(false).is_empty());
    }
}
