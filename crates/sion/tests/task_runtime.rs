//! End-to-end `sion::par` on the task runtime: the collective
//! open/write/close protocol driven as resumable rank tasks
//! (`paropen_write_co` / `paropen_read_co` inside a `TaskWorld`), including
//! byte-identity of the produced multifile across worker counts and
//! schedules, and a four-digit-rank smoke run.

use simmpi::{drive_ready, SchedPolicy, TaskWorld};
use sion::{
    paropen_read_co, paropen_write_co, Mapping, Multifile, SionParReader, SionParWriter, SionParams,
};
use vfs::{MemFs, Vfs};

/// Deterministic per-rank payload.
fn payload(rank: usize, len: usize) -> Vec<u8> {
    (0..len)
        .map(|i| ((i * 31 + rank * 131 + 7) % 251) as u8)
        .collect()
}

/// Read back every physical file under `prefix` as raw bytes.
fn dump(fs: &dyn Vfs, prefix: &str) -> Vec<(String, Vec<u8>)> {
    fs.list(prefix)
        .unwrap()
        .into_iter()
        .map(|path| {
            let f = fs.open(&path).unwrap();
            let mut buf = vec![0u8; f.len().unwrap() as usize];
            f.read_exact_at(&mut buf, 0).unwrap();
            (path, buf)
        })
        .collect()
}

#[test]
fn task_world_collective_roundtrip() {
    let fs = MemFs::with_block_size(4096);
    let ntasks = 96;
    let bytes_per_task = 9_000;
    let params = SionParams::new(4096).with_nfiles(4);
    TaskWorld::run(ntasks, |c| {
        let fs = &fs;
        let params = &params;
        async move {
            let data = payload(c.rank(), bytes_per_task);
            let mut w = paropen_write_co(fs, "out/data.sion", params, &c)
                .await
                .unwrap();
            for piece in data.chunks(1000 + c.rank() * 37 + 1) {
                w.write(piece).unwrap();
            }
            let stats = w.close_co().await.unwrap();
            assert_eq!(stats.user_bytes, bytes_per_task as u64);

            let mut r = paropen_read_co(fs, "out/data.sion", &c).await.unwrap();
            let mut back = vec![0u8; bytes_per_task];
            r.read_exact(&mut back).unwrap();
            assert_eq!(back, data, "rank {} read-back mismatch", r.rank());
            assert!(r.feof());
            r.close_co().await.unwrap();
        }
    });

    // Serial global-view read-back sees every rank's data.
    let mf = Multifile::open(&fs, "out/data.sion").unwrap();
    assert_eq!(mf.ntasks(), ntasks);
    for rank in 0..ntasks {
        assert_eq!(
            mf.read_rank(rank).unwrap(),
            payload(rank, bytes_per_task),
            "rank {rank}"
        );
    }
    assert_eq!(fs.list("out/").unwrap().len(), 4);
}

/// The collective entry points return `Send` futures, so a rank that
/// awaits them can run on a work-stealing world: checked where each future
/// is built, not where a world first spawns a rank that holds it.
#[test]
fn collective_entry_point_futures_are_send() {
    fn assert_send<T: Send>(_: &T) {}
    let fs = MemFs::new();
    let params = SionParams::new(4096);
    TaskWorld::run(2, |c| {
        let (fs, params) = (&fs, &params);
        async move {
            let open = paropen_write_co(fs, "send/f.sion", params, &c);
            assert_send(&open);
            let mut w = open.await.unwrap();
            w.write(&payload(c.rank(), 100)).unwrap();
            let close = w.close_co();
            assert_send(&close);
            close.await.unwrap();
            let open = paropen_read_co(fs, "send/f.sion", &c);
            assert_send(&open);
            open.await.unwrap().close_co().await.unwrap();
        }
    });
}

/// A rank parked in a close holds its handle once: each close future is
/// smaller than two of the handles it consumes. (An `async fn` whose
/// receiver is `mut self` stores the receiver twice, and every rank parked
/// in the close gather pays for the copy.)
#[test]
fn close_futures_hold_their_handle_once() {
    use std::mem::{size_of, size_of_val};
    let fs = MemFs::new();
    let params = SionParams::new(4096);
    TaskWorld::run(2, |c| {
        let (fs, params) = (&fs, &params);
        async move {
            let mut w = paropen_write_co(fs, "size/f.sion", params, &c)
                .await
                .unwrap();
            w.write(&payload(c.rank(), 100)).unwrap();
            let close = w.close_co();
            let (future, handle) = (size_of_val(&close), size_of::<SionParWriter>());
            assert!(
                future < 2 * handle,
                "write close {future} B, writer {handle} B"
            );
            close.await.unwrap();
            let r = paropen_read_co(fs, "size/f.sion", &c).await.unwrap();
            let close = r.close_co();
            let (future, handle) = (size_of_val(&close), size_of::<SionParReader>());
            assert!(
                future < 2 * handle,
                "read close {future} B, reader {handle} B"
            );
            close.await.unwrap();
        }
    });
}

#[test]
fn one_and_four_workers_write_identical_multifiles() {
    let params = SionParams::new(2048)
        .with_nfiles(3)
        .with_mapping(Mapping::RoundRobin);
    let ntasks = 24;
    let bytes_per_task = 5_000;
    let written = |workers| {
        let fs = MemFs::with_block_size(4096);
        TaskWorld::run_with(SchedPolicy::WorkSteal { workers }, ntasks, |c| {
            let (fs, params) = (&fs, &params);
            async move {
                let data = payload(c.rank(), bytes_per_task);
                let mut w = paropen_write_co(fs, "m.sion", params, &c).await.unwrap();
                w.write(&data).unwrap();
                w.close_co().await.unwrap();
            }
        });
        dump(&fs, "")
    };
    // The multifile on disk is byte-identical, physical file by physical
    // file — the scheduling changes, not one bit of output.
    assert_eq!(written(1), written(4));
}

#[test]
fn serial_schedules_produce_the_same_multifile() {
    let params = SionParams::new(1024).with_nfiles(2);
    let run = |policy| {
        let fs = MemFs::with_block_size(4096);
        TaskWorld::run_with(policy, 12, |c| {
            let fs = &fs;
            let params = &params;
            async move {
                let mut w = paropen_write_co(fs, "s.sion", params, &c).await.unwrap();
                w.write(&payload(c.rank(), 2_000)).unwrap();
                w.close_co().await.unwrap();
            }
        });
        dump(&fs, "")
    };
    let baseline = run(SchedPolicy::WorkSteal { workers: 4 });
    for seed in 0..4 {
        let serial = SchedPolicy::Serial {
            seed,
            preemption_bound: usize::MAX,
        };
        assert_eq!(run(serial), baseline, "seed {seed}");
    }
}

/// The executor labels its thread with a rank only while it polls that
/// rank: once a world returns, the caller's thread (worker 0) carries no
/// label its later file writes would be charged to.
#[test]
fn a_task_world_leaves_no_task_label_on_the_calling_thread() {
    let fs = MemFs::with_block_size(4096);
    let params = SionParams::new(4096);
    let policy = SchedPolicy::Serial {
        seed: 3,
        preemption_bound: 2,
    };
    TaskWorld::run_with(policy, 4, |c| {
        let (fs, params) = (&fs, &params);
        async move {
            let mut w = paropen_write_co(fs, "label/data.sion", params, &c)
                .await
                .unwrap();
            w.write(&payload(c.rank(), 100)).unwrap();
            w.close_co().await.unwrap();
        }
    });
    assert_eq!(vfs::guard::current_writer(), None);
}

#[test]
fn mismatched_params_fail_collectively_on_task_runtime() {
    let fs = MemFs::with_block_size(4096);
    let results = TaskWorld::run(8, |c| {
        let fs = &fs;
        async move {
            // Rank 5 disagrees about the file count.
            let nfiles = if c.rank() == 5 { 2 } else { 1 };
            let params = SionParams::new(1024).with_nfiles(nfiles);
            paropen_write_co(fs, "clash.sion", &params, &c)
                .await
                .is_err()
        }
    });
    assert!(results.iter().all(|&failed| failed));
}

#[test]
fn driving_a_close_to_completion_in_one_poll_panics_instead_of_parking() {
    // On a task-world worker thread the close's collective rounds park, and
    // `drive_ready` must refuse with its misuse message instead of holding
    // the worker thread forever.
    let fs = MemFs::with_block_size(4096);
    let params = SionParams::new(1024);
    let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        TaskWorld::run(2, |c| {
            let fs = &fs;
            let params = &params;
            async move {
                let w = paropen_write_co(fs, "misuse.sion", params, &c)
                    .await
                    .unwrap();
                drive_ready(w.close_co()).is_ok()
            }
        })
    }))
    .expect_err("a close driven in one poll on a task-world rank must panic");
    let text = err
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| err.downcast_ref::<String>().cloned())
        .unwrap_or_default();
    assert!(text.contains("drive_ready: future parked"), "{text:?}");
}

#[test]
fn four_digit_rank_open_write_close() {
    // 2048 resumable rank tasks on a handful of workers.
    let fs = MemFs::with_block_size(4096);
    let ntasks = 2048;
    let params = SionParams::new(512).with_nfiles(8).with_write_buffer(4096);
    let (_, sched) = TaskWorld::run_with(SchedPolicy::WorkSteal { workers: 4 }, ntasks, |c| {
        let fs = &fs;
        let params = &params;
        async move {
            let data = payload(c.rank(), 256);
            let mut w = paropen_write_co(fs, "big/huge.sion", params, &c)
                .await
                .unwrap();
            w.write(&data).unwrap();
            let stats = w.close_co().await.unwrap();
            assert_eq!(stats.user_bytes, 256);
        }
    });
    // Tree fan-in keeps every mailbox logarithmic even at 2Ki ranks.
    assert!(
        sched.peak_mailbox_msgs <= 16,
        "mailboxes must stay O(log P): {sched:?}"
    );
    assert_eq!(fs.list("big/").unwrap().len(), 8);
    let mf = Multifile::open(&fs, "big/huge.sion").unwrap();
    assert_eq!(mf.ntasks(), ntasks);
    for rank in [0, 1, 1023, 2047] {
        assert_eq!(
            mf.read_rank(rank).unwrap(),
            payload(rank, 256),
            "rank {rank}"
        );
    }
}
