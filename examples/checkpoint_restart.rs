//! Checkpoint/restart of a multi-particle collision simulation (the
//! paper's MP2C use case, §5.1): run the solvent dynamics on 8 tasks,
//! checkpoint through all three I/O strategies, compare their file
//! footprint and timing, and verify that a restarted run continues
//! bit-identically.
//!
//! ```sh
//! cargo run --release --example checkpoint_restart
//! ```

use mp2c::checkpoint::{read_checkpoint, write_checkpoint, Strategy};
use mp2c::{SimConfig, Simulation};
use simmpi::TaskWorld;
use std::time::Instant;
use vfs::{LocalFs, Vfs};

fn main() {
    let dir = std::env::temp_dir().join(format!("sion-mp2c-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    let fs = LocalFs::with_block_size(&dir, 64 * 1024);

    let ntasks = 8;
    let config = SimConfig {
        domain: 16,
        particles_per_cell: 8,
        ..SimConfig::default()
    };
    let nparticles = config.domain.pow(3) * config.particles_per_cell;
    println!("simulating {nparticles} particles on {ntasks} tasks ...");

    let strategies = [
        ("sion multifile", "ck_sion", Strategy::Sion { nfiles: 2, compressed: false }),
        ("sion compressed", "ck_zip", Strategy::Sion { nfiles: 2, compressed: true }),
        ("task-local files", "ck_local", Strategy::TaskLocal),
        ("single-file sequential", "ck_seq", Strategy::SingleFileSequential),
    ];

    let digests = TaskWorld::run(ntasks, |comm| {
        let fs = &fs;
        async move {
            let mut sim = Simulation::new(config, comm.rank(), comm.size());
            for _ in 0..10 {
                sim.step(&comm).await;
            }

            for (name, base, strategy) in strategies {
                let t0 = Instant::now();
                write_checkpoint(&sim, fs, base, strategy, &comm)
                    .await
                    .unwrap();
                comm.barrier().await;
                if comm.rank() == 0 {
                    println!("  wrote {name:<24} in {:>8.2?}", t0.elapsed());
                }
            }

            // Continue the original run.
            for _ in 0..5 {
                sim.step(&comm).await;
            }
            let reference = sim.global_digest(&comm).await;

            // Restart from each checkpoint and replay the same steps.
            let mut digests = vec![reference];
            for (_, base, strategy) in strategies {
                let mut restored = read_checkpoint(config, fs, base, strategy, &comm)
                    .await
                    .unwrap();
                assert_eq!(restored.step_count, 10);
                for _ in 0..5 {
                    restored.step(&comm).await;
                }
                digests.push(restored.global_digest(&comm).await);
            }
            digests
        }
    });

    // All restarts on all ranks must agree with the uninterrupted run.
    let reference = digests[0][0];
    for per_rank in &digests {
        assert!(per_rank.iter().all(|&d| d == reference), "restart diverged!");
    }
    println!("all restarts continue bit-identically (digest {reference:#018x})");

    // File-count comparison: the management burden the paper talks about.
    for (name, base, _) in strategies {
        let count = fs.list(base).unwrap().len();
        println!("  {name:<24} -> {count} file(s) on disk");
    }

    std::fs::remove_dir_all(&dir).ok();
    println!("done.");
}
