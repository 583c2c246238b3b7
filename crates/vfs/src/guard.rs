//! [`BlockGuard`]: a file-system-block contention sanitizer.
//!
//! The paper's §3.2 alignment argument is that aligning each task's chunk
//! to file-system block boundaries guarantees *no two tasks ever write the
//! same FS block*, which is what makes task-local writes into one shared
//! file contention-free (no block ping-pong between GPFS/Lustre lock
//! managers). This [`Tap`] turns that argument into a checked property: it
//! tracks, per FS-block-sized extent of every file, which *logical writer*
//! last touched it. A write by one writer to a block previously written by
//! a different writer is recorded as a [`BlockViolation`]. Listed after a
//! [`Faults`](crate::Faults) tap it is charged with the bytes that reached
//! the file, so a torn write owns only the blocks of its persisted prefix.
//!
//! Logical writer identity is a per-thread label, the one task identity
//! of a run: the `simmpi` runtime sets it with [`set_task`] to the world
//! rank it runs on the thread, around every poll of the task executor —
//! so every physical `write_at`
//! a rank issues is attributed to it (including the coalesced flushes of
//! the buffered stream engine, and on sub-communicators too), without the
//! I/O library labelling anything. Every [`TapFs`](crate::TapFs) op
//! carries the label; writes from unlabeled threads (test setup, serial
//! tools) are not tracked. Tests that drive a tap from a plain thread
//! label it themselves.
//!
//! Violation reports are deterministic: they are kept in insertion order
//! per file and sorted by (path, block, tasks) before rendering, so a
//! failing seed reproduces byte-identical output.

use crate::tap::{Next, Op, OpKind, Tap};
use parking_lot::Mutex;
use std::cell::Cell;
use std::collections::BTreeMap;
use std::fmt;
use std::io;
use std::sync::Arc;

thread_local! {
    static WRITER_TASK: Cell<Option<u64>> = const { Cell::new(None) };
}

/// Label the current thread's writes with a logical writer id (a rank).
/// Subsequent operations through any [`TapFs`](crate::TapFs) are attributed
/// to this writer until [`clear_task`] or a new [`set_task`].
pub fn set_task(task: u64) {
    WRITER_TASK.with(|c| c.set(Some(task)));
}

/// Remove the current thread's writer label; its operations are no longer
/// attributed to a task.
pub fn clear_task() {
    WRITER_TASK.with(|c| c.set(None));
}

/// The current thread's writer label, if any.
pub fn current_writer() -> Option<u64> {
    WRITER_TASK.with(|c| c.get())
}

/// One cross-writer FS-block overlap detected by [`BlockGuard`].
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct BlockViolation {
    /// File the overlap happened in.
    pub path: String,
    /// FS block index (offset / block size) both writers touched.
    pub block: u64,
    /// Writer that previously owned the block.
    pub prev_task: u64,
    /// Writer whose write overlapped it.
    pub task: u64,
    /// Byte offset of the offending write.
    pub offset: u64,
    /// Length of the offending write.
    pub len: u64,
}

impl fmt::Display for BlockViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "task {} wrote {} bytes at offset {} of \"{}\", touching FS block {} last \
             written by task {}",
            self.task, self.len, self.offset, self.path, self.block, self.prev_task
        )
    }
}

/// Tap recording FS-block write ownership; see the module docs.
pub struct BlockGuard {
    block_size: u64,
    /// path → (block index → last labeled writer).
    owners: Mutex<BTreeMap<String, BTreeMap<u64, u64>>>,
    violations: Mutex<Vec<BlockViolation>>,
}

impl BlockGuard {
    /// Track write ownership at `block_size` granularity — the guarded
    /// file system's [`Vfs::block_size`](crate::Vfs::block_size).
    pub fn new(block_size: u64) -> Arc<BlockGuard> {
        Arc::new(BlockGuard {
            block_size: block_size.max(1),
            owners: Mutex::default(),
            violations: Mutex::default(),
        })
    }

    fn record_write(&self, task: u64, path: &str, offset: u64, len: u64) {
        if len == 0 {
            return;
        }
        let first = offset / self.block_size;
        let last = offset.saturating_add(len - 1) / self.block_size;
        let mut owners = self.owners.lock();
        let file = owners.entry(path.to_string()).or_default();
        for block in first..=last {
            match file.insert(block, task) {
                Some(prev) if prev != task => {
                    self.violations.lock().push(BlockViolation {
                        path: path.to_string(),
                        block,
                        prev_task: prev,
                        task,
                        offset,
                        len,
                    });
                }
                _ => {}
            }
        }
    }

    /// All violations recorded so far, in deterministic (sorted) order.
    pub fn violations(&self) -> Vec<BlockViolation> {
        let mut v = self.violations.lock().clone();
        v.sort();
        v
    }

    /// Panic with a deterministic multi-line report if any cross-writer
    /// block overlap was recorded — the checked form of the paper's §3.2
    /// "no two tasks share an FS block" invariant.
    pub fn assert_exclusive(&self) {
        let v = self.violations();
        if !v.is_empty() {
            let lines: Vec<String> = v.iter().map(|x| format!("  {x}")).collect();
            panic!(
                "simcheck: [block-contention] {} cross-task FS-block overlap(s):\n{}",
                v.len(),
                lines.join("\n")
            );
        }
    }
}

impl Tap for BlockGuard {
    fn around(&self, op: &Op<'_>, next: Next<'_>) -> io::Result<u64> {
        let n = next(op.len)?;
        // Shadow bytes never reach the file: they claim no block.
        match (op.kind, op.task) {
            _ if op.shadow => {}
            // Creation truncates: previous ownership of its blocks is void.
            (OpKind::Create, _) => drop(self.owners.lock().remove(op.path)),
            (OpKind::Write, Some(task)) => self.record_write(task, op.path, op.offset, n),
            _ => {}
        }
        Ok(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{IoSlice, MemFs, TapFs, Vfs};

    fn guarded() -> (TapFs, Arc<BlockGuard>) {
        let guard = BlockGuard::new(64);
        (
            TapFs::new(Arc::new(MemFs::with_block_size(64)), vec![guard.clone()]),
            guard,
        )
    }

    #[test]
    fn same_task_rewrites_are_fine() {
        let (fs, guard) = guarded();
        let f = fs.create("a").unwrap();
        set_task(0);
        f.write_all_at(&[1u8; 100], 0).unwrap();
        f.write_all_at(&[2u8; 100], 0).unwrap();
        clear_task();
        assert!(guard.violations().is_empty());
        guard.assert_exclusive();
    }

    #[test]
    fn disjoint_blocks_are_fine() {
        let (fs, guard) = guarded();
        let f = fs.create("a").unwrap();
        set_task(0);
        f.write_all_at(&[1u8; 64], 0).unwrap();
        set_task(1);
        f.write_all_at(&[2u8; 64], 64).unwrap();
        clear_task();
        assert!(guard.violations().is_empty());
    }

    #[test]
    fn cross_task_overlap_is_flagged() {
        let (fs, guard) = guarded();
        let f = fs.create("a").unwrap();
        set_task(0);
        f.write_all_at(&[1u8; 64], 0).unwrap();
        set_task(1);
        // Straddles blocks 0 (owned by task 0) and 1.
        f.write_all_at(&[2u8; 64], 32).unwrap();
        clear_task();
        let v = guard.violations();
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!((v[0].block, v[0].prev_task, v[0].task), (0, 0, 1));
        let err =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| guard.assert_exclusive()))
                .unwrap_err();
        let msg = err.downcast_ref::<String>().unwrap();
        assert!(msg.contains("[block-contention]"), "{msg}");
        assert!(msg.contains("FS block 0"), "{msg}");
    }

    #[test]
    fn vectored_slices_are_attributed_like_scalar_writes() {
        let (fs, guard) = guarded();
        let f = fs.create("a").unwrap();
        set_task(0);
        f.write_all_at(&[1u8; 64], 0).unwrap();
        set_task(1);
        // Slice 1 tail-ends block 0 (owned by task 0) — flagged; slice 2
        // continues into block 1, which is untouched — fine.
        f.write_vectored_at(&[IoSlice::new(&[2u8; 8]), IoSlice::new(&[3u8; 8])], 56)
            .unwrap();
        clear_task();
        let v = guard.violations();
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!((v[0].block, v[0].prev_task, v[0].task), (0, 0, 1));
        assert_eq!(
            v[0].offset, 56,
            "violation is attributed to the slice's own offset"
        );
    }

    #[test]
    fn unlabeled_writes_are_ignored() {
        let (fs, guard) = guarded();
        let f = fs.create("a").unwrap();
        clear_task();
        f.write_all_at(&[1u8; 256], 0).unwrap();
        set_task(7);
        f.write_all_at(&[2u8; 256], 0).unwrap();
        clear_task();
        assert!(guard.violations().is_empty());
    }

    #[test]
    fn create_truncation_voids_ownership() {
        let (fs, guard) = guarded();
        let f = fs.create("a").unwrap();
        set_task(0);
        f.write_all_at(&[1u8; 64], 0).unwrap();
        drop(f);
        let f = fs.create("a").unwrap();
        set_task(1);
        f.write_all_at(&[2u8; 64], 0).unwrap();
        clear_task();
        assert!(guard.violations().is_empty());
    }

    #[test]
    fn reports_are_sorted_and_deterministic() {
        let (fs, guard) = guarded();
        let f = fs.create("z").unwrap();
        let g = fs.create("a").unwrap();
        set_task(0);
        f.write_all_at(&[1u8; 64], 0).unwrap();
        g.write_all_at(&[1u8; 64], 0).unwrap();
        set_task(1);
        f.write_all_at(&[2u8; 8], 0).unwrap();
        g.write_all_at(&[2u8; 8], 0).unwrap();
        clear_task();
        let v = guard.violations();
        assert_eq!(v.len(), 2);
        assert_eq!(v[0].path, "a");
        assert_eq!(v[1].path, "z");
        assert_eq!(guard.violations(), v);
    }
}
