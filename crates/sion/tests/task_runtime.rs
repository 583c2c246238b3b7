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

/// The sizes of a rank's four collective futures, `[write open, write
/// close, read open, read close]`, as a rank of a two-rank world builds
/// them (every rank's are the same).
fn collective_future_sizes() -> [usize; 4] {
    use std::mem::size_of_val;
    let fs = MemFs::new();
    let params = SionParams::new(4096);
    let sizes = TaskWorld::run(2, |c| {
        let (fs, params) = (&fs, &params);
        async move {
            let open = paropen_write_co(fs, "size/f.sion", params, &c);
            let write_open = size_of_val(&open);
            let mut w = open.await.unwrap();
            w.write(&payload(c.rank(), 100)).unwrap();
            let close = w.close_co();
            let write_close = size_of_val(&close);
            close.await.unwrap();
            let open = paropen_read_co(fs, "size/f.sion", &c);
            let read_open = size_of_val(&open);
            let close = open.await.unwrap().close_co();
            let read_close = size_of_val(&close);
            close.await.unwrap();
            [write_open, write_close, read_open, read_close]
        }
    });
    sizes[0]
}

/// Ceiling on a parked write open's future (696 B before the handles were
/// boxed).
const WRITE_OPEN_CEILING: usize = 360;
/// Ceiling on a parked write close's future (1 032 B before).
const WRITE_CLOSE_CEILING: usize = 248;
/// Ceiling on a parked read open's future (840 B before, 320 B while it was
/// an `async fn`, which keeps its three arguments twice).
const READ_OPEN_CEILING: usize = 280;
/// Ceiling on the read close's future: the handle and the state word
/// (408 B before).
const READ_CLOSE_CEILING: usize = 16;

/// What a rank parked in the collective open or close owns: a one-word
/// handle (544 B for a writer and 400 B for a reader before), whose box
/// holds the stream, the aggregation role and the two communicators; a
/// communicator handle of at most six words; and a future per entry point
/// that keeps only word-sized state across its `.await`s. Ceilings, not
/// exact sizes: a future's layout varies with rustc.
#[test]
fn a_parked_rank_owns_one_word_handles_and_lean_futures() {
    use std::mem::size_of;
    assert_eq!(size_of::<SionParWriter>(), size_of::<usize>());
    assert_eq!(size_of::<SionParReader>(), size_of::<usize>());
    assert!(size_of::<simmpi::CoComm>() <= 48, "CoComm");
    let sizes = collective_future_sizes();
    let ceilings = [
        WRITE_OPEN_CEILING,
        WRITE_CLOSE_CEILING,
        READ_OPEN_CEILING,
        READ_CLOSE_CEILING,
    ];
    assert!(
        sizes
            .iter()
            .zip(ceilings)
            .all(|(&size, ceiling)| size <= ceiling),
        "[write open, write close, read open, read close] futures: {sizes:?} B, \
         ceilings {ceilings:?} B"
    );
}

/// A rank parked in a close holds its handle once: the write close's
/// future stays under an absolute ceiling (1 032 B when it held a 544 B
/// writer beside its moved-out role; an `async fn` with a `mut self`
/// receiver stored the writer twice, 1 592 B), and the read close's future
/// is its one-word handle and a state word.
#[test]
fn close_futures_hold_their_handle_once() {
    let [_, write_close, _, read_close] = collective_future_sizes();
    assert!(
        write_close <= WRITE_CLOSE_CEILING,
        "write close {write_close} B"
    );
    assert!(
        read_close <= READ_CLOSE_CEILING,
        "read close {read_close} B"
    );
}

/// A rank parked in an open holds one future per open, so the open futures
/// stay small: at most [`WRITE_OPEN_CEILING`] and [`READ_OPEN_CEILING`]
/// (the bound was 1 KiB, over 696 B for the write open and 840 B for the
/// read open). An `async fn` that keeps a by-value argument across an
/// `.await` stores it twice; `sion::all_or_nothing` written that way grew
/// the read open to 1 248 B.
#[test]
fn open_futures_stay_under_a_kibibyte() {
    let [write_open, _, read_open, _] = collective_future_sizes();
    assert!(
        write_open <= WRITE_OPEN_CEILING,
        "write open future {write_open} B"
    );
    assert!(
        read_open <= READ_OPEN_CEILING,
        "read open future {read_open} B"
    );
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
