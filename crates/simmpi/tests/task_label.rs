//! The runtime is the one writer of a thread's task label: the executor
//! labels each poll with the world rank it runs, so a rank's file writes
//! are attributed without the program labelling anything.

use simmpi::{SchedPolicy, TaskWorld};
use std::sync::Arc;
use vfs::{BlockGuard, MemFs, TapFs, Vfs};

const BLOCK: u64 = 4096;

fn guarded_fs() -> (Arc<BlockGuard>, TapFs) {
    let guard = BlockGuard::new(BLOCK);
    let fs = TapFs::new(Arc::new(MemFs::with_block_size(BLOCK)), vec![guard.clone()]);
    fs.create("shared.dat").expect("create");
    (guard, fs)
}

/// Each of two ranks writes 16 bytes of its own into FS block 0.
fn write_own_bytes(fs: &TapFs, rank: usize) {
    let file = fs.open_rw("shared.dat").expect("open");
    file.write_at(&[rank as u8; 16], 16 * rank as u64)
        .expect("write");
}

fn assert_one_shared_block(guard: &BlockGuard) {
    let v = guard.violations();
    assert_eq!(v.len(), 1, "{v:?}");
    assert_eq!(v[0].block, 0);
    assert_eq!(
        [v[0].prev_task.min(v[0].task), v[0].prev_task.max(v[0].task)],
        [0, 1]
    );
}

#[test]
fn task_world_writes_are_charged_to_their_ranks() {
    // Serially, and with two workers running the ranks at once.
    for policy in [
        SchedPolicy::Serial {
            seed: 1,
            preemption_bound: 2,
        },
        SchedPolicy::WorkSteal { workers: 2 },
    ] {
        let (guard, fs) = guarded_fs();
        TaskWorld::run_with(policy, 2, |c| {
            let fs = &fs;
            async move { write_own_bytes(fs, c.rank()) }
        });
        assert_one_shared_block(&guard);
    }
}
