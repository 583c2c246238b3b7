//! Each rank's exact verdict when one task or one file master fails in a
//! collective phase: the failing task reports its own error, the tasks that
//! waited on a failed master say so, and every other task names the phase
//! a peer failed in. The open's scatters and the close's gather carry these
//! verdicts; the texts are what callers see.

use simmpi::TaskWorld;
use sion::{paropen_read_co, paropen_write_co, physical_name, Result, SionParams};
use std::io;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use vfs::{MemFs, Next, Op, OpKind, Tap, TapFs};

/// Refuses every op `hit` selects once armed.
struct Refuse {
    hit: Box<dyn Fn(&Op<'_>) -> bool + Send + Sync>,
    armed: AtomicBool,
}

impl Tap for Refuse {
    fn around(&self, op: &Op<'_>, next: Next<'_>) -> io::Result<u64> {
        if self.armed.load(Ordering::SeqCst) && (self.hit)(op) {
            return Err(io::Error::other("refused"));
        }
        next(op.len)
    }

    fn injects(&self) -> bool {
        true
    }
}

/// A `MemFs` behind a [`Refuse`] tap, armed or not.
fn refusing(
    armed: bool,
    hit: impl Fn(&Op<'_>) -> bool + Send + Sync + 'static,
) -> (TapFs, Arc<Refuse>) {
    let tap = Arc::new(Refuse {
        hit: Box::new(hit),
        armed: AtomicBool::new(armed),
    });
    let fs = TapFs::new(Arc::new(MemFs::with_block_size(1024)), vec![tap.clone()]);
    (fs, tap)
}

/// A rank's verdict as its caller prints it.
fn verdict<T>(r: Result<T>) -> String {
    r.map_or_else(|e| e.to_string(), |_| "ok".into())
}

const IO: &str = "I/O error: refused";
const MASTER_FAILED: &str =
    "collective parameter mismatch: master task failed during collective open";
const GROUP_FAILED: &str =
    "collective parameter mismatch: another file group failed during the collective open";

#[test]
fn a_failed_create_in_a_ragged_open_reaches_every_rank_by_role() {
    // Six ranks, two files (ranks 0–2 and 3–5), a chunk size per rank: the
    // ragged open. Only file 1's create fails, so rank 3, its master, sees
    // the refusal, ranks 4 and 5 their master's failure, and file 0's
    // ranks the other group's.
    let path = physical_name("v.sion", 1);
    let (fs, _) = refusing(true, move |op| op.kind == OpKind::Create && op.path == path);
    let verdicts = TaskWorld::run(6, |c| {
        let fs = &fs;
        async move {
            let params = SionParams::new(1024 + 64 * c.rank() as u64).with_nfiles(2);
            verdict(paropen_write_co(fs, "v.sion", &params, &c).await)
        }
    });
    assert_eq!(
        verdicts,
        [
            GROUP_FAILED,
            GROUP_FAILED,
            GROUP_FAILED,
            IO,
            MASTER_FAILED,
            MASTER_FAILED
        ]
    );
}

#[test]
fn a_read_open_with_the_wrong_task_count_fails_every_rank() {
    let fs = MemFs::new();
    TaskWorld::run(4, |c| {
        let fs = &fs;
        async move {
            let params = SionParams::new(1024);
            let mut w = paropen_write_co(fs, "n.sion", &params, &c).await.unwrap();
            w.write(b"payload").unwrap();
            w.close_co().await.unwrap();
        }
    });
    let verdicts = TaskWorld::run(3, |c| {
        let fs = &fs;
        async move { verdict(paropen_read_co(fs, "n.sion", &c).await) }
    });
    assert_eq!(
        verdicts,
        [
            "collective parameter mismatch: multifile was written by 4 tasks, read with 3",
            "collective parameter mismatch: master failed during read open",
            "collective parameter mismatch: master failed during read open",
        ]
    );
}

#[test]
fn a_failed_final_flush_reaches_every_rank_by_role() {
    // Four ranks, two files (ranks 0–1 and 2–3). Rank 1's buffered bytes
    // are refused at its final flush: rank 1 sees the refusal, rank 0, its
    // master, gathers the failed record and writes no metablock 2, and
    // file 1's ranks learn it from the closing reduction.
    let (fs, tap) = refusing(false, |op| op.task == Some(1));
    let verdicts = TaskWorld::run(4, |c| {
        let (fs, tap) = (&fs, &tap);
        async move {
            let params = SionParams::new(1024).with_nfiles(2);
            let mut w = paropen_write_co(fs, "c.sion", &params, &c).await.unwrap();
            w.write(&[c.rank() as u8; 100]).unwrap();
            c.barrier().await;
            tap.armed.store(true, Ordering::SeqCst);
            verdict(w.close_co().await)
        }
    });
    let peer = "collective parameter mismatch: another task failed during the collective close";
    assert_eq!(
        verdicts,
        [
            "collective parameter mismatch: a task failed to flush; metablock 2 not written",
            IO,
            peer,
            peer,
        ]
    );
}
