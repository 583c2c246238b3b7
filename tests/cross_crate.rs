//! Cross-crate integration tests: the full pipeline from parallel
//! applications (mp2c, tracer) through the sion library, the serial tool
//! suite, and back — over the in-memory and counting file systems.

use simmpi::TaskWorld;
use sionlib::{mp2c, sion, sion_tools, tracer, vfs};
use std::sync::Arc;
use vfs::{FaultKind, Faults, MemFs, TapFs, Vfs};

/// A 4 KiB-block `MemFs` behind an unarmed fault tap, whose op log and
/// byte count say what I/O a run performed.
fn logged_fs() -> (TapFs, Arc<Faults>) {
    let faults = Faults::new();
    (TapFs::new(Arc::new(MemFs::with_block_size(4096)), vec![faults.clone()]), faults)
}

fn creates(faults: &Faults) -> u64 {
    faults.take_log().iter().filter(|r| r.kind == FaultKind::Create && r.ok).count() as u64
}

#[test]
fn checkpoint_then_tools_pipeline() {
    // mp2c writes a sion checkpoint; the tools dump, split, and defragment
    // it; a restart from the defragmented copy continues identically.
    let cfg = mp2c::SimConfig::default();
    let fs = MemFs::with_block_size(4096);
    let strategy = mp2c::checkpoint::Strategy::Sion { nfiles: 2, compressed: false };

    let reference = TaskWorld::run(4, |comm| {
        let fs = &fs;
        async move {
            let mut sim = mp2c::Simulation::new(cfg, comm.rank(), comm.size());
            for _ in 0..6 {
                sim.step(&comm).await;
            }
            mp2c::checkpoint::write_checkpoint(&sim, fs, "ck.sion", strategy, &comm)
                .await
                .unwrap();
            for _ in 0..4 {
                sim.step(&comm).await;
            }
            sim.global_digest(&comm).await
        }
    })[0];

    // Tool pass: dump mentions 4 tasks; defrag to a single physical file.
    let dump = sion_tools::dump(&fs, "ck.sion").unwrap();
    assert!(dump.contains("tasks:          4"));
    let out = MemFs::with_block_size(4096);
    sion_tools::defrag(&fs, "ck.sion", &out, "ck-dense.sion", 1).unwrap();

    // Restart from the defragmented checkpoint.
    let restarted = TaskWorld::run(4, |comm| {
        let out = &out;
        async move {
            let mut sim = mp2c::checkpoint::read_checkpoint(
                cfg,
                out,
                "ck-dense.sion",
                mp2c::checkpoint::Strategy::Sion {
                    nfiles: 1,
                    compressed: false,
                },
                &comm,
            )
            .await
            .unwrap();
            for _ in 0..4 {
                sim.step(&comm).await;
            }
            sim.global_digest(&comm).await
        }
    })[0];
    assert_eq!(
        reference, restarted,
        "defragmented checkpoint must restart identically"
    );
}

#[test]
fn trace_split_files_decode_as_event_streams() {
    // Traces written through the sion back-end, extracted by sionsplit,
    // must decode as the original task-local trace files would.
    let fs = MemFs::with_block_size(4096);
    let cfg = tracer::SynthConfig::default();
    let backend = tracer::TraceBackend::Sion {
        base: "tr.sion".into(),
        chunksize: 1 << 20,
        nfiles: 2,
        compressed: false,
    };
    TaskWorld::run(6, |comm| {
        let backend = &backend;
        let fs = &fs;
        async move {
            let mut t = tracer::Tracer::new(comm.rank());
            for ev in tracer::synthetic_events(&cfg, comm.rank(), comm.size()) {
                t.record(&ev);
            }
            let mut trace = backend.activate(fs, &comm).await.unwrap();
            t.finalize(&mut trace).unwrap();
            trace.finalize().await.unwrap();
        }
    });

    let out = MemFs::new();
    let created = sion_tools::split(&fs, "tr.sion", &out, "t", None).unwrap();
    assert_eq!(created.len(), 6);
    for (rank, path) in created.iter().enumerate() {
        let f = out.open(path).unwrap();
        let mut buf = vec![0u8; f.len().unwrap() as usize];
        f.read_exact_at(&mut buf, 0).unwrap();
        let events = tracer::Event::decode_stream(&buf).unwrap();
        assert_eq!(events, tracer::synthetic_events(&cfg, rank, 6), "rank {rank}");
    }
}

#[test]
fn op_log_counts_the_metadata_story() {
    // The paper's headline claim as a functional assertion: with N tasks
    // and F physical files, the sion path costs F creates where the
    // task-local path costs N — and both store the same bytes.
    let ntasks = 24;
    let nfiles = 3;
    let payload_len = 5_000;

    let (fs, sion_log) = logged_fs();
    TaskWorld::run(ntasks, |comm| {
        let fs = &fs;
        async move {
            let params = sion::SionParams::new(4096).with_nfiles(nfiles);
            let mut w = sion::paropen_write_co(fs, "multi.sion", &params, &comm)
                .await
                .unwrap();
            w.write(&vec![comm.rank() as u8; payload_len]).unwrap();
            w.close_co().await.unwrap();
        }
    });
    assert_eq!(creates(&sion_log), nfiles as u64);

    let (fs2, local_log) = logged_fs();
    TaskWorld::run(ntasks, |comm| {
        let fs2 = &fs2;
        async move {
            let f = fs2.create(&format!("task.{:06}", comm.rank())).unwrap();
            f.write_all_at(&vec![comm.rank() as u8; payload_len], 0)
                .unwrap();
        }
    });
    assert_eq!(creates(&local_log), ntasks as u64);

    // Same user payload either way.
    assert!(sion_log.bytes_written() >= local_log.bytes_written());
    assert_eq!(local_log.bytes_written(), (ntasks * payload_len) as u64);
}

#[test]
fn compressed_checkpoint_smaller_than_plain() {
    let cfg = mp2c::SimConfig { domain: 8, particles_per_cell: 6, ..Default::default() };
    let fs = MemFs::with_block_size(4096);
    TaskWorld::run(4, |comm| {
        let fs = &fs;
        async move {
            let sim = mp2c::Simulation::new(cfg, comm.rank(), comm.size());
            for (base, compressed) in [("plain.sion", false), ("packed.sion", true)] {
                mp2c::checkpoint::write_checkpoint(
                    &sim,
                    fs,
                    base,
                    mp2c::checkpoint::Strategy::Sion {
                        nfiles: 1,
                        compressed,
                    },
                    &comm,
                )
                .await
                .unwrap();
            }
        }
    });
    let plain = sion::Multifile::open(&fs, "plain.sion")
        .unwrap()
        .locations()
        .unwrap()
        .total_stored_bytes();
    let packed = sion::Multifile::open(&fs, "packed.sion")
        .unwrap()
        .locations()
        .unwrap()
        .total_stored_bytes();
    // Double-precision particle data is mostly mantissa noise, so the LZSS
    // codec cannot shrink it much — but the stored-block fallback bounds
    // the expansion to the per-frame overhead (the transparency guarantee).
    assert!(
        packed <= plain + plain / 50 + 1024,
        "compression must never blow up storage: {packed} vs {plain}"
    );
}

#[test]
fn simulated_experiments_agree_with_functional_counts() {
    // The timing simulator's workload for a sion create has exactly as many
    // Create ops as the functional run issues creates.
    let ntasks = 32u64;
    let nfiles = 4u32;
    let spec = sion::script::SimSpec::aligned(ntasks, nfiles, 0, 4096);
    let wl = sion::script::sion_create(&spec);
    let script_creates: u64 = wl
        .classes
        .iter()
        .map(|c| {
            c.count
                * c.ops.iter().filter(|o| matches!(o, parfs::IoOp::Create(_))).count() as u64
        })
        .sum();

    let (fs, log) = logged_fs();
    TaskWorld::run(ntasks as usize, |comm| {
        let fs = &fs;
        async move {
            let params = sion::SionParams::new(1).with_nfiles(nfiles);
            let w = sion::paropen_write_co(fs, "x.sion", &params, &comm)
                .await
                .unwrap();
            w.close_co().await.unwrap();
        }
    });
    assert_eq!(script_creates, creates(&log));
}
