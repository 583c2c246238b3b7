//! [`AccessSink`]: byte-extent access recording for happens-before
//! checking.
//!
//! [`BlockGuard`](crate::BlockGuard) checks the paper's §3.2 invariant in
//! its strongest static form — one writer per FS block, ever. The
//! aggregated I/O mode is correct under a weaker, *ordering* form: several
//! logical writers may touch the same file (an aggregator replays every
//! member's stream), as long as all conflicting byte-extent accesses are
//! happens-before ordered by the protocol's messages. Whether they are is
//! not a property a file-system tap can decide on its own — it depends on
//! the send/recv edges of the run — so this module does the recording half
//! only: every [`AccessSink`] is a [`Tap`], and listed in a
//! [`TapFs`](crate::TapFs) it is told every read, write, and shadow write
//! (the `simcheck` crate's vector-clock engine is one), attributed to the
//! task labeled on the issuing thread — the world rank the `simmpi`
//! runtime runs there ([`guard`](crate::guard)).
//!
//! Three access kinds are distinguished:
//!
//! * [`AccessKind::Write`] — bytes physically persisted at the path.
//! * [`AccessKind::Read`] — bytes observed from the path, copied or leased.
//! * [`AccessKind::ShadowWrite`] — bytes a task wrote through a
//!   [`Vfs::create_shadow`](crate::Vfs::create_shadow) handle: *logical*
//!   writes whose physical persistence is another task's obligation (the
//!   aggregated-mode member side). The sink receives them against the
//!   shadowed path, so it can pair each member's logical extents with the
//!   aggregator's physical replay of them. Shadow reads observe nothing
//!   real and are not reported.
//!
//! Accesses from unlabeled threads are not reported, mirroring
//! [`BlockGuard`](crate::BlockGuard): test scaffolding and serial tools
//! stay invisible.

use crate::tap::{Next, Op, OpKind, Tap};
use std::fmt;
use std::io;

/// How a recorded access touched the file. Ordered so access lists sort
/// deterministically.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum AccessKind {
    /// Bytes observed from the file.
    Read,
    /// Bytes physically persisted to the file.
    Write,
    /// Bytes logically written through a shadow handle — persisting them
    /// is some other task's obligation.
    ShadowWrite,
}

impl AccessKind {
    /// Stable lowercase label used in rendered reports.
    pub fn label(self) -> &'static str {
        match self {
            AccessKind::Read => "read",
            AccessKind::Write => "write",
            AccessKind::ShadowWrite => "shadow-write",
        }
    }
}

/// One recorded byte-extent access.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct FileAccess {
    /// Normalized path of the (shadowed) file.
    pub path: String,
    /// What the access did.
    pub kind: AccessKind,
    /// Logical task the issuing thread was labeled with.
    pub task: u64,
    /// Byte offset of the extent.
    pub offset: u64,
    /// Length of the extent in bytes (never zero).
    pub len: u64,
}

impl FileAccess {
    /// Whether two accesses touch overlapping byte ranges of the same
    /// path.
    pub fn overlaps(&self, other: &FileAccess) -> bool {
        self.path == other.path
            && self.offset < other.offset + other.len
            && other.offset < self.offset + self.len
    }

    /// Whether the two accesses conflict when different tasks issue them:
    /// they overlap, at least one writes, and a shadow write meets only
    /// another shadow write (it lands in a per-task shadow, not in the
    /// physical bytes; two on the same bytes mean two owners).
    pub fn conflicts(&self, other: &FileAccess) -> bool {
        let shadow = |a: &FileAccess| a.kind == AccessKind::ShadowWrite;
        self.overlaps(other)
            && (self.kind != AccessKind::Read || other.kind != AccessKind::Read)
            && shadow(self) == shadow(other)
    }
}

impl fmt::Display for FileAccess {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "task {} {} [{}, {}) of \"{}\"",
            self.task,
            self.kind.label(),
            self.offset,
            self.offset + self.len,
            self.path
        )
    }
}

/// Consumer of the access stream (the `simcheck` happens-before engine).
/// Called synchronously on the accessing thread, after the rest of the tap
/// list and the backend succeeded, so the sink observes accesses in each
/// task's program order with the byte count that was transferred.
pub trait AccessSink: Send + Sync {
    /// One labeled, non-empty access flowed through the [`TapFs`](crate::TapFs).
    fn on_access(&self, access: &FileAccess);
}

impl<S: AccessSink> Tap for S {
    fn around(&self, op: &Op<'_>, next: Next<'_>) -> io::Result<u64> {
        let len = next(op.len)?;
        let kind = match (op.kind, op.shadow) {
            (OpKind::Read, false) => AccessKind::Read,
            (OpKind::Write, false) => AccessKind::Write,
            (OpKind::Write, true) => AccessKind::ShadowWrite,
            _ => return Ok(len),
        };
        if let (Some(task), true) = (op.task, len > 0) {
            let path = op.path.to_string();
            self.on_access(&FileAccess {
                path,
                kind,
                task,
                offset: op.offset,
                len,
            });
        }
        Ok(len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::guard::{clear_task, set_task};
    use crate::{IoSlice, MemFs, TapFs, Vfs};
    use parking_lot::Mutex;
    use std::sync::Arc;

    #[derive(Default)]
    struct Log(Mutex<Vec<FileAccess>>);

    impl AccessSink for Log {
        fn on_access(&self, access: &FileAccess) {
            self.0.lock().push(access.clone());
        }
    }

    fn guarded() -> (TapFs, Arc<Log>) {
        let log = Arc::new(Log::default());
        (TapFs::new(Arc::new(MemFs::new()), vec![log.clone()]), log)
    }

    #[test]
    fn labeled_reads_and_writes_are_reported_in_order() {
        let (fs, log) = guarded();
        let f = fs.create("dir/a").unwrap();
        set_task(3);
        f.write_all_at(&[1u8; 10], 5).unwrap();
        let mut buf = [0u8; 4];
        f.read_at(&mut buf, 7).unwrap();
        clear_task();
        let got = log.0.lock().clone();
        assert_eq!(
            got,
            vec![
                FileAccess {
                    path: "dir/a".into(),
                    kind: AccessKind::Write,
                    task: 3,
                    offset: 5,
                    len: 10
                },
                FileAccess {
                    path: "dir/a".into(),
                    kind: AccessKind::Read,
                    task: 3,
                    offset: 7,
                    len: 4
                },
            ]
        );
    }

    #[test]
    fn unlabeled_and_empty_accesses_are_invisible() {
        let (fs, log) = guarded();
        let f = fs.create("a").unwrap();
        clear_task();
        f.write_all_at(&[1u8; 8], 0).unwrap();
        set_task(0);
        f.write_all_at(&[], 0).unwrap();
        clear_task();
        assert!(log.0.lock().is_empty());
    }

    #[test]
    fn shadow_writes_report_against_the_real_path_and_discard_bytes() {
        let (fs, log) = guarded();
        fs.create("real").unwrap();
        let sh = fs.create_shadow("real").unwrap();
        set_task(9);
        sh.write_all_at(&[7u8; 16], 32).unwrap();
        let mut buf = [1u8; 4];
        sh.read_at(&mut buf, 32).unwrap();
        clear_task();
        let got = log.0.lock().clone();
        // The read reported nothing; the write reported as a shadow write.
        assert_eq!(
            got,
            vec![FileAccess {
                path: "real".into(),
                kind: AccessKind::ShadowWrite,
                task: 9,
                offset: 32,
                len: 16
            }]
        );
        // Shadow bytes never reached the real file.
        assert_eq!(fs.open("real").unwrap().len().unwrap(), 0);
        // NullFile reads yield zeros.
        assert_eq!(buf, [0u8; 4]);
    }

    #[test]
    fn vectored_slices_report_like_scalar_writes() {
        let (fs, log) = guarded();
        let f = fs.create("a").unwrap();
        set_task(1);
        f.write_vectored_at(&[IoSlice::new(&[2u8; 8]), IoSlice::new(&[3u8; 4])], 100)
            .unwrap();
        clear_task();
        let got = log.0.lock().clone();
        assert_eq!(got.len(), 2);
        assert_eq!((got[0].offset, got[0].len), (100, 8));
        assert_eq!((got[1].offset, got[1].len), (108, 4));
    }

    #[test]
    fn overlap_predicate_matches_half_open_extents() {
        let a = FileAccess {
            path: "p".into(),
            kind: AccessKind::Write,
            task: 0,
            offset: 0,
            len: 10,
        };
        let b = FileAccess {
            offset: 9,
            len: 1,
            task: 1,
            ..a.clone()
        };
        let c = FileAccess {
            offset: 10,
            len: 1,
            task: 1,
            ..a.clone()
        };
        let d = FileAccess {
            path: "q".into(),
            offset: 0,
            len: 10,
            task: 1,
            kind: AccessKind::Write,
        };
        assert!(a.overlaps(&b) && b.overlaps(&a));
        assert!(!a.overlaps(&c));
        assert!(!a.overlaps(&d));
    }

    #[test]
    fn conflicts_need_overlap_a_write_and_matching_shadowness() {
        use AccessKind::*;
        let at = |kind, offset| FileAccess {
            path: "p".into(),
            kind,
            task: 0,
            offset,
            len: 10,
        };
        let kinds = [Read, Write, ShadowWrite];
        let conflicts = [
            (Write, Write),
            (Read, Write),
            (Write, Read),
            (ShadowWrite, ShadowWrite),
        ];
        for (a, b) in kinds.into_iter().flat_map(|a| kinds.map(|b| (a, b))) {
            let want = conflicts.contains(&(a, b));
            assert_eq!(at(a, 0).conflicts(&at(b, 5)), want, "{a:?}/{b:?}");
            assert!(!at(a, 0).conflicts(&at(b, 10)), "disjoint {a:?}/{b:?}");
        }
    }
}
