//! Two-phase aggregated I/O (`IoMode::Aggregated`): byte-identity with
//! independent mode across layout families and runtimes, shipment
//! accounting, FS-block exclusivity of the elected aggregators, and
//! rescue/verify behaviour of aggregated multifiles.

use std::sync::{Arc, Mutex};

use proptest::prelude::*;
use simmpi::{SchedPolicy, TaskWorld};
use sion::{paropen_read_co, paropen_write_co, Alignment, IoMode, Multifile, SionParams};
use vfs::{AccessKind, AccessSink, BlockGuard, FileAccess, MemFs, TapFs, Vfs};

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

/// A write pattern that exercises the whole member-side surface: a small
/// in-chunk record (uncompressed layouts), ragged `write` pieces crossing
/// chunk boundaries, and an explicit mid-stream flush.
fn write_workload(w: &mut sion::SionParWriter, rank: usize, data: &[u8], in_chunk: bool) {
    let mut pieces = data.chunks(257 + rank * 41 + 1);
    if in_chunk {
        let first = pieces.next().unwrap();
        w.ensure_free_space(first.len() as u64).unwrap();
        w.write_in_chunk(first).unwrap();
    }
    for (i, piece) in pieces.enumerate() {
        w.write(piece).unwrap();
        if i == 2 {
            w.flush().unwrap();
        }
    }
}

/// Write the same workload under `params` with the given `io_mode` and
/// return the resulting multifile's raw bytes.
fn run_mode(
    params: &SionParams,
    io_mode: IoMode,
    ntasks: usize,
    bytes_per_task: usize,
) -> Vec<(String, Vec<u8>)> {
    let fs = MemFs::with_block_size(4096);
    let params = params.clone().with_io_mode(io_mode);
    let in_chunk = !params.compressed;
    TaskWorld::run(ntasks, |c| {
        let fs = &fs;
        let params = &params;
        async move {
            let data = payload(c.rank(), bytes_per_task);
            let mut w = paropen_write_co(fs, "agg/m.sion", params, &c)
                .await
                .unwrap();
            write_workload(&mut w, c.rank(), &data, in_chunk);
            let stats = w.close_co().await.unwrap();
            assert_eq!(stats.user_bytes, bytes_per_task as u64);
        }
    });
    // Whatever the transport, the data must round-trip.
    let mf = Multifile::open(&fs, "agg/m.sion").unwrap();
    for rank in 0..ntasks {
        assert_eq!(
            mf.read_rank(rank).unwrap(),
            payload(rank, bytes_per_task),
            "rank {rank}"
        );
    }
    dump(&fs, "")
}

#[test]
fn aggregated_bytes_identical_to_independent_across_layout_families() {
    // (name, params, ntasks, bytes/task, tasks_per_aggregator)
    let families: Vec<(&str, SionParams, usize, usize, usize)> = vec![
        (
            "aligned",
            SionParams::new(4096).with_nfiles(2),
            32,
            9_000,
            4,
        ),
        (
            "unaligned",
            SionParams::new(1000).with_alignment(Alignment::None),
            16,
            2_500,
            4,
        ),
        (
            "fixed+rescue",
            SionParams::new(2000)
                .with_alignment(Alignment::Fixed(2048))
                .with_rescue(),
            24,
            5_000,
            8,
        ),
        (
            "compressed+rescue",
            SionParams::new(4096).with_compression().with_rescue(),
            16,
            10_000,
            4,
        ),
    ];
    for (name, params, ntasks, bytes, tpa) in families {
        let independent = run_mode(&params, IoMode::Independent, ntasks, bytes);
        let aggregated = run_mode(
            &params,
            IoMode::Aggregated {
                tasks_per_aggregator: tpa,
            },
            ntasks,
            bytes,
        );
        assert_eq!(
            aggregated, independent,
            "family {name}: on-disk bytes must not depend on the transport"
        );
    }
}

/// A seeded serial schedule of the task runtime: a second interleaving of
/// the same ranks, replayable from its seed.
fn serial(seed: u64) -> SchedPolicy {
    SchedPolicy::Serial {
        seed,
        preemption_bound: 2,
    }
}

#[test]
fn every_schedule_produces_identical_aggregated_multifiles() {
    let ntasks = 24;
    let bytes_per_task = 5_000;
    let params = SionParams::new(2048)
        .with_nfiles(2)
        .with_io_mode(IoMode::Aggregated {
            tasks_per_aggregator: 4,
        });

    // One worker: ranks run in the executor's FIFO order.
    let fs_world = MemFs::with_block_size(4096);
    TaskWorld::run_with(SchedPolicy::WorkSteal { workers: 1 }, ntasks, |c| {
        let fs_world = &fs_world;
        let params = &params;
        async move {
            let mut w = paropen_write_co(fs_world, "m.sion", params, &c)
                .await
                .unwrap();
            w.write(&payload(c.rank(), bytes_per_task)).unwrap();
            w.close_co().await.unwrap();
        }
    });
    let baseline = dump(&fs_world, "");

    // The host's workers, and four seeded serial schedules: other message
    // orders than the single worker's.
    for policy in [SchedPolicy::host()].into_iter().chain((0..4).map(serial)) {
        let fs_task = MemFs::with_block_size(4096);
        TaskWorld::run_with(policy, ntasks, |c| {
            let fs = &fs_task;
            let params = &params;
            async move {
                let mut w = paropen_write_co(fs, "m.sion", params, &c).await.unwrap();
                w.write(&payload(c.rank(), bytes_per_task)).unwrap();
                w.close_co().await.unwrap();
            }
        });
        assert_eq!(dump(&fs_task, ""), baseline, "task runtime, {policy:?}");
    }
}

#[test]
fn shipment_stats_account_for_every_frame() {
    // 16 aligned tasks, one file, neighborhoods of 4: the election is
    // deterministic — aggregators are exactly ranks 0, 4, 8, 12.
    let ntasks = 16;
    let params = SionParams::new(4096).with_io_mode(IoMode::Aggregated {
        tasks_per_aggregator: 4,
    });
    let fs = MemFs::with_block_size(4096);
    let stats: Vec<sion::CloseStats> = TaskWorld::run(ntasks, |c| {
        let fs = &fs;
        let params = &params;
        async move {
            let data = payload(c.rank(), 6_000);
            let mut w = paropen_write_co(fs, "s.sion", params, &c).await.unwrap();
            for piece in data.chunks(500) {
                w.write(piece).unwrap();
            }
            w.flush().unwrap();
            w.write(&[0xEE; 100]).unwrap();

            // The read side is mode-agnostic: the same collective read works
            // on the aggregated file while the writer world is still up.
            let stats = w.close_co().await.unwrap();
            let mut r = paropen_read_co(fs, "s.sion", &c).await.unwrap();
            let mut back = vec![0u8; 6_000];
            r.read_exact(&mut back).unwrap();
            assert_eq!(back, data);
            r.close_co().await.unwrap();
            stats
        }
    });

    let is_aggregator = |rank: usize| rank.is_multiple_of(4);
    let mut shipped = (0u64, 0u64);
    let mut received = (0u64, 0u64);
    for (rank, s) in stats.iter().enumerate() {
        assert_eq!(s.user_bytes, 6_100, "rank {rank}");
        let a = s.agg;
        assert_eq!(
            a.shipments, a.acked_shipments,
            "rank {rank}: close drains every frame: {a:?}"
        );
        assert_eq!(a.shipped_bytes, a.acked_bytes, "rank {rank}: {a:?}");
        if is_aggregator(rank) {
            // Each aggregator serves 3 members; every member ships at
            // least HELLO/data and FINISH frames.
            assert!(
                a.shipments >= 3,
                "rank {rank} received too few frames: {a:?}"
            );
            received.0 += a.shipments;
            received.1 += a.shipped_bytes;
        } else {
            assert!(
                a.shipments >= 2,
                "rank {rank} shipped too few frames: {a:?}"
            );
            assert!(
                a.shipped_bytes > 6_000,
                "rank {rank} ships its payload: {a:?}"
            );
            shipped.0 += a.shipments;
            shipped.1 += a.shipped_bytes;
        }
    }
    assert_eq!(
        shipped, received,
        "every shipped frame is received and acked exactly once"
    );
}

#[test]
fn compressed_members_compress_once_and_ship_stored_bytes() {
    // A stream is computed once, by the task that owns it: a compressed
    // member ships what its own encoder produced and the aggregator only
    // places those bytes. A repetitive payload makes that visible in the
    // frame sizes — and the file must not notice.
    let ntasks = 8;
    let bytes_per_task = 40_000;
    let base = SionParams::new(8192).with_compression();
    let data = |rank: usize| vec![rank as u8; bytes_per_task];
    let run = |io_mode: IoMode| {
        let fs = MemFs::with_block_size(4096);
        let params = base.clone().with_io_mode(io_mode);
        let stats = TaskWorld::run(ntasks, |c| {
            let fs = &fs;
            let params = &params;
            async move {
                let mut w = paropen_write_co(fs, "z.sion", params, &c).await.unwrap();
                for piece in data(c.rank()).chunks(1000) {
                    w.write(piece).unwrap();
                }
                w.close_co().await.unwrap()
            }
        });
        (stats, dump(&fs, ""))
    };
    let (independent_stats, independent) = run(IoMode::Independent);
    let (stats, aggregated) = run(IoMode::Aggregated {
        tasks_per_aggregator: 4,
    });
    assert_eq!(
        aggregated, independent,
        "compressing on the member must not change the file"
    );
    for (rank, s) in stats.iter().enumerate() {
        assert_eq!(s.user_bytes, bytes_per_task as u64, "rank {rank}");
        // The member's accounting is the independent run's, field for field.
        let ind = &independent_stats[rank];
        assert_eq!(
            (s.user_bytes, s.stored_bytes, s.blocks, s.write_io),
            (ind.user_bytes, ind.stored_bytes, ind.blocks, ind.write_io),
            "rank {rank}"
        );
        if !rank.is_multiple_of(4) {
            assert!(s.agg.shipments >= 1, "rank {rank} is a member: {:?}", s.agg);
            assert!(
                s.agg.shipped_bytes < s.user_bytes / 2,
                "rank {rank} shipped {} frame bytes for {} user bytes: frames must carry \
                 stored (compressed) bytes",
                s.agg.shipped_bytes,
                s.user_bytes
            );
        }
    }
}

/// Records every labelled extent that flows through a `TapFs`.
#[derive(Default)]
struct ExtentLog(Mutex<Vec<FileAccess>>);

impl AccessSink for ExtentLog {
    fn on_access(&self, access: &FileAccess) {
        self.0.lock().unwrap().push(access.clone());
    }
}

impl ExtentLog {
    /// `(path, offset, len)` of every `kind` access by `task`, in issue order.
    fn extents(&self, kind: AccessKind, task: usize) -> Vec<(String, u64, u64)> {
        let log = self.0.lock().unwrap();
        log.iter()
            .filter(|a| a.kind == kind && a.task == task as u64)
            .map(|a| (a.path.clone(), a.offset, a.len))
            .collect()
    }
}

#[test]
fn aggregators_apply_their_members_writes_extent_for_extent() {
    // 2 files x 4 tasks, neighborhoods of 4: global ranks 0 and 4 are the
    // aggregators, 1..=3 and 5..=7 their members. Rescue on, 700-byte
    // records through a 1 KiB write buffer (so the 6th record crosses a
    // chunk boundary), one explicit flush. Records stay below the buffer
    // size: a vectored submit would reach the taps one slice at a time.
    let ntasks = 8;
    let params = SionParams::new(4096)
        .with_nfiles(2)
        .with_rescue()
        .with_write_buffer(1024);
    let workload = |w: &mut sion::SionParWriter, rank: usize| {
        for i in 0..8 {
            w.write(&record(rank, i, 700)).unwrap();
            if i == 2 {
                w.flush().unwrap();
            }
        }
    };
    let run = |io_mode: IoMode| {
        let log = Arc::new(ExtentLog::default());
        let mem = Arc::new(MemFs::with_block_size(4096));
        let fs = TapFs::new(mem.clone(), vec![log.clone()]);
        let params = params.clone().with_io_mode(io_mode);
        TaskWorld::run(ntasks, |c| {
            let fs = &fs;
            let params = &params;
            async move {
                let mut w = paropen_write_co(fs, "x.sion", params, &c).await.unwrap();
                workload(&mut w, c.rank());
                w.close_co().await.unwrap();
            }
        });
        (log, mem)
    };
    let (independent, _) = run(IoMode::Independent);
    let (log, mem) = run(IoMode::Aggregated {
        tasks_per_aggregator: 4,
    });

    let mf = Multifile::open(mem.as_ref(), "x.sion").unwrap();
    let loc = mf.locations().unwrap();
    // `rank`'s chunks as `[start, end)` file ranges, rescue header included.
    let chunks = |rank: usize| {
        let t = &loc.tasks[rank];
        let header = t.capacity - t.usable;
        t.chunks
            .iter()
            .map(move |c| (c.offset - header, c.offset - header + t.capacity))
    };
    let inside = |rank: usize, (_, offset, len): &(String, u64, u64)| {
        chunks(rank).any(|(start, end)| *offset >= start && offset + len <= end)
    };
    for agg in [0, 4] {
        let physical = log.extents(AccessKind::Write, agg);
        assert!(
            log.extents(AccessKind::ShadowWrite, agg).is_empty(),
            "aggregator {agg}"
        );
        let mut accounted = physical.iter().filter(|e| inside(agg, e)).count();
        for member in agg + 1..agg + 4 {
            assert!(
                log.extents(AccessKind::Write, member).is_empty(),
                "member {member} must not touch the physical file"
            );
            let shadow = log.extents(AccessKind::ShadowWrite, member);
            assert!(shadow.len() >= 8, "member {member}: {shadow:?}");
            // Every write the member's engine issued, applied once, as
            // issued, in the order issued, under the aggregator's label ...
            let applied: Vec<_> = physical
                .iter()
                .filter(|e| inside(member, e))
                .cloned()
                .collect();
            assert_eq!(applied, shadow, "member {member} via aggregator {agg}");
            // ... and those are the writes an independent task issues.
            assert_eq!(
                shadow,
                independent.extents(AccessKind::Write, member),
                "member {member}: the transport must not re-cut the stream"
            );
            accounted += applied.len();
        }
        // What is left is the metadata the file master writes around the
        // data blocks — nothing lands in any other task's chunk.
        let data_start = chunks(agg).map(|(start, _)| start).min().unwrap();
        let data_end = (agg..agg + 4)
            .flat_map(chunks)
            .map(|(_, end)| end)
            .max()
            .unwrap();
        let metadata = physical
            .iter()
            .filter(|(_, offset, len)| offset + len <= data_start || *offset >= data_end)
            .count();
        assert_eq!(
            accounted + metadata,
            physical.len(),
            "aggregator {agg}: {physical:?}"
        );
    }
}

#[test]
fn aggregators_never_share_an_fs_block() {
    // The paper's §3.2 invariant, checked mechanically: in aggregated mode
    // only elected aggregators (and the metadata master) touch the file,
    // and the election snaps neighborhoods to FS-block-clean boundaries.
    for (params, ntasks) in [
        // Aligned, multiple files, several neighborhoods per file.
        (
            SionParams::new(4096)
                .with_nfiles(2)
                .with_io_mode(IoMode::Aggregated {
                    tasks_per_aggregator: 4,
                }),
            32,
        ),
        // Unaligned: no clean internal boundary, so each file group
        // degenerates to a single writer.
        (
            SionParams::new(1024)
                .with_alignment(Alignment::None)
                .with_io_mode(IoMode::Aggregated {
                    tasks_per_aggregator: 2,
                }),
            12,
        ),
    ] {
        let guard = BlockGuard::new(4096);
        let fs = TapFs::new(Arc::new(MemFs::with_block_size(4096)), vec![guard.clone()]);
        TaskWorld::run(ntasks, |c| {
            let fs = &fs;
            let params = &params;
            async move {
                let data = payload(c.rank(), 5_000);
                let mut w = paropen_write_co(fs, "g.sion", params, &c).await.unwrap();
                write_workload(&mut w, c.rank(), &data, true);
                w.close_co().await.unwrap();
            }
        });
        guard.assert_exclusive();
    }
}

#[test]
fn aggregated_rescue_files_verify_and_force_repair_byte_identically() {
    let ntasks = 20;
    let params = SionParams::new(3000)
        .with_nfiles(2)
        .with_rescue()
        .with_io_mode(IoMode::Aggregated {
            tasks_per_aggregator: 4,
        });
    let fs = MemFs::with_block_size(4096);
    TaskWorld::run(ntasks, |c| {
        let fs = &fs;
        let params = &params;
        async move {
            let mut w = paropen_write_co(fs, "r.sion", params, &c).await.unwrap();
            w.write(&payload(c.rank(), 7_000)).unwrap();
            w.close_co().await.unwrap();
        }
    });

    let report = sion_tools::verify(&fs, "r.sion").unwrap();
    assert!(report.is_clean(), "{report:?}");
    assert_eq!(report.tasks_ok, ntasks);

    // Forced repair rebuilds metablock 2 from the rescue headers the
    // aggregators wrote on their members' behalf. If a single header were
    // missing or stale, the rebuilt bytes would differ.
    let before = dump(&fs, "");
    sion::rescue::repair(&fs, "r.sion", true).unwrap();
    assert_eq!(
        dump(&fs, ""),
        before,
        "repair from rescue headers reproduces the closed file"
    );
    assert!(sion_tools::verify(&fs, "r.sion").unwrap().is_clean());
}

#[test]
fn io_mode_mismatch_fails_collectively() {
    let fs = MemFs::with_block_size(4096);
    let results = TaskWorld::run(8, |c| {
        let fs = &fs;
        async move {
            // Rank 3 disagrees about the transport. The mode changes the
            // communication protocol, so a split-brain open must fail on
            // EVERY task, not deadlock or limp along.
            let io_mode = if c.rank() == 3 {
                IoMode::Independent
            } else {
                IoMode::Aggregated {
                    tasks_per_aggregator: 4,
                }
            };
            let params = SionParams::new(1024).with_io_mode(io_mode);
            paropen_write_co(fs, "clash.sion", &params, &c)
                .await
                .is_err()
        }
    });
    assert!(results.iter().all(|&failed| failed));
}

/// Deterministic payload for the `i`-th record of `rank`.
fn record(rank: usize, i: usize, len: usize) -> Vec<u8> {
    (0..len)
        .map(|j| ((rank * 97 + i * 31 + j) % 251) as u8)
        .collect()
}

fn write_records(w: &mut sion::SionParWriter, rank: usize, sizes: &[usize]) {
    for (i, &len) in sizes.iter().enumerate() {
        w.write(&record(rank, i, len)).unwrap();
    }
}

/// Run the write workload under `params` on the runtime selected by
/// `runtime` (0 = one work-stealing worker, 1 = four seeded serial
/// schedules, which must agree, 2 = the host's workers) and return the
/// multifile's raw bytes.
fn run_on_runtime(
    runtime: usize,
    params: &SionParams,
    ntasks: usize,
    sizes: &[usize],
) -> Vec<(String, Vec<u8>)> {
    let on_tasks = |policy| {
        let fs = MemFs::with_block_size(4096);
        TaskWorld::run_with(policy, ntasks, |c| {
            let (fs, params) = (&fs, params);
            async move {
                let mut w = paropen_write_co(fs, "p.sion", params, &c).await.unwrap();
                write_records(&mut w, c.rank(), sizes);
                w.close_co().await.unwrap();
            }
        });
        dump(&fs, "")
    };
    match runtime {
        0 => on_tasks(SchedPolicy::WorkSteal { workers: 1 }),
        1 => {
            let first = on_tasks(serial(0));
            for seed in 1..4 {
                assert!(
                    on_tasks(serial(seed)) == first,
                    "the multifile depends on the serial schedule (seed {seed})"
                );
            }
            first
        }
        _ => on_tasks(SchedPolicy::host()),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// For random record shapes, buffer capacities, neighborhood targets
    /// and runtimes, every layout family decodes an aggregated multifile
    /// exactly like its independent twin — and the files are bitwise
    /// equal to begin with.
    #[test]
    fn aggregated_multifiles_decode_identically_for_random_workloads(
        sizes in prop::collection::vec(1usize..700, 1..12),
        tpa in 1usize..6,
        write_buffer in 0u64..2048,
        runtime in 0usize..3,
    ) {
        let ntasks = 8;
        for (family, base) in [
            SionParams::new(1024).with_nfiles(2),
            SionParams::new(777).with_alignment(Alignment::None),
            SionParams::new(1000).with_alignment(Alignment::Fixed(1024)).with_rescue(),
            SionParams::new(1024).with_compression().with_rescue(),
        ]
        .into_iter()
        .enumerate()
        {
            let base = base.with_write_buffer(write_buffer);
            let independent =
                run_on_runtime(0, &base.clone(), ntasks, &sizes);
            let agg_params = base.with_io_mode(IoMode::Aggregated { tasks_per_aggregator: tpa });
            let aggregated = run_on_runtime(runtime, &agg_params, ntasks, &sizes);
            prop_assert_eq!(
                &aggregated, &independent,
                "family {} runtime {} tpa {} diverged", family, runtime, tpa
            );

            // And the aggregated image decodes to what each rank wrote.
            let fs = MemFs::with_block_size(4096);
            for (name, bytes) in &aggregated {
                let f = fs.create(name).unwrap();
                f.write_all_at(bytes, 0).unwrap();
            }
            let mf = Multifile::open(&fs, "p.sion").unwrap();
            for rank in 0..ntasks {
                let expect: Vec<u8> = sizes
                    .iter()
                    .enumerate()
                    .flat_map(|(i, &len)| record(rank, i, len))
                    .collect();
                prop_assert_eq!(
                    mf.read_rank(rank).unwrap(), expect,
                    "family {} rank {} decode mismatch", family, rank
                );
            }
        }
    }
}

#[test]
fn single_task_neighborhoods_degenerate_to_independent_writes() {
    // tasks_per_aggregator = 1 on an aligned layout: every task is its
    // own aggregator with an empty neighborhood, i.e. plain independent
    // mode — no shipments anywhere, same bytes.
    let ntasks = 8;
    let base = SionParams::new(4096);
    let independent = run_mode(&base, IoMode::Independent, ntasks, 5_000);
    let fs = MemFs::with_block_size(4096);
    let params = base.with_io_mode(IoMode::Aggregated {
        tasks_per_aggregator: 1,
    });
    let stats = TaskWorld::run(ntasks, |c| {
        let fs = &fs;
        let params = &params;
        async move {
            let data = payload(c.rank(), 5_000);
            let mut w = paropen_write_co(fs, "agg/m.sion", params, &c)
                .await
                .unwrap();
            write_workload(&mut w, c.rank(), &data, true);
            w.close_co().await.unwrap()
        }
    });
    for (rank, s) in stats.iter().enumerate() {
        assert_eq!(
            s.agg,
            sion::AggStats::default(),
            "rank {rank} must not ship: {:?}",
            s.agg
        );
    }
    assert_eq!(dump(&fs, ""), independent);
}
