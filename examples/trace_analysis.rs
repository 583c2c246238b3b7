//! Performance tracing with multifile storage (the paper's Scalasca use
//! case, §5.2): 16 tasks run a synthetic SMG2000-like solver, record event
//! traces, flush them through both storage back-ends, and a postmortem
//! analysis searches for late-sender wait states — with identical results
//! regardless of how the traces were stored.
//!
//! ```sh
//! cargo run --example trace_analysis
//! ```

use simmpi::TaskWorld;
use tracer::{analyze, synthetic_events, SynthConfig, TraceBackend, Tracer};
use vfs::{LocalFs, Vfs};

fn main() {
    let dir = std::env::temp_dir().join(format!("sion-traces-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    let fs = LocalFs::with_block_size(&dir, 64 * 1024);

    let ntasks = 16;
    let workload = SynthConfig {
        iterations: 30,
        levels: 5,
        neighbours: 4,
        ..Default::default()
    };

    let task_local = TraceBackend::TaskLocal {
        prefix: "traces/run".into(),
    };
    let multifile = TraceBackend::Sion {
        base: "traces.sion".into(),
        chunksize: 1 << 20,
        nfiles: 2,
        compressed: true,
    };

    println!("tracing a synthetic SMG2000-like run on {ntasks} tasks ...");
    for backend in [&task_local, &multifile] {
        TaskWorld::run(ntasks, |comm| {
            let fs = &fs;
            async move {
                let mut tracer = Tracer::new(comm.rank());
                for ev in synthetic_events(&workload, comm.rank(), comm.size()) {
                    tracer.record(&ev);
                }
                // Measurement activation + finalization (what Table 2 times).
                let mut trace = backend.activate(fs, &comm).await.unwrap();
                tracer.finalize(&mut trace).unwrap();
                trace.finalize().await.unwrap();
            }
        });
        println!("  flushed to {}", backend.describe());
    }

    println!(
        "files on disk: {} task-local vs {} multifile parts",
        fs.list("traces/").unwrap().len(),
        fs.list("traces.sion").unwrap().len()
    );

    // Postmortem analysis over both stores.
    let rep_local = analyze(&fs, &task_local, ntasks).unwrap();
    let rep_sion = analyze(&fs, &multifile, ntasks).unwrap();
    assert_eq!(
        rep_local, rep_sion,
        "storage must be invisible to the analysis"
    );

    println!(
        "analyzed {} events from {} ranks: {} messages matched, {} late senders \
         ({} ns of waiting)",
        rep_sion.events,
        rep_sion.nranks,
        rep_sion.messages_matched,
        rep_sion.late_senders,
        rep_sion.late_sender_wait_ns
    );
    let mut regions: Vec<_> = rep_sion.regions.iter().collect();
    regions.sort_by_key(|(_, st)| std::cmp::Reverse(st.inclusive_ns));
    println!("top regions by inclusive time:");
    for (region, st) in regions.iter().take(5) {
        println!(
            "  region {:>3}: {:>10} ns over {:>5} visits",
            region, st.inclusive_ns, st.visits
        );
    }

    // The compressed multifile is also much smaller on disk.
    let mf = sion::Multifile::open(&fs, "traces.sion").unwrap();
    let logical: u64 = (0..ntasks)
        .map(|r| mf.read_rank(r).unwrap().len() as u64)
        .sum();
    let stored = mf.locations().unwrap().total_stored_bytes();
    println!("trace data: {logical} bytes logical, {stored} bytes stored (compressed)");

    std::fs::remove_dir_all(&dir).ok();
    println!("done.");
}
