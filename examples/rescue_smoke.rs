//! Build a *crashed* rescue-enabled multifile on the real file system, for
//! the `sionrepair` → `sionverify` smoke run in CI.
//!
//! A parallel job writes through a fault-injecting VFS whose kill switch
//! is armed mid-workload: every operation from that point on fails, as if
//! the job had been killed. The half-written multifile lands in
//! `target/smoke/crash.sion` (no metablock 2, no trailer — unopenable),
//! ready for the tools binaries to repair and verify:
//!
//! ```sh
//! cargo run --release --example rescue_smoke
//! ./target/release/sionrepair target/smoke/crash.sion
//! ./target/release/sionverify target/smoke/crash.sion
//! ```

use simmpi::TaskWorld;
use sionlib::{sion, vfs};
use std::sync::Arc;
use vfs::{Faults, LocalFs, MemFs, TapFs, Vfs};

const SMOKE_DIR: &str = "target/smoke";
const NTASKS: usize = 4;
const PAYLOAD_LEN: usize = 700;

/// Same generator as the crash-consistency harness (fixed seed).
fn payload(rank: usize, len: usize) -> Vec<u8> {
    let mut x = 0x510a_2009_u64 ^ (rank as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    (0..len)
        .map(|_| {
            x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = x;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            (z ^ (z >> 31)) as u8
        })
        .collect()
}

fn workload(fs: &dyn Vfs) {
    TaskWorld::run(NTASKS, |comm| async move {
        let params = sion::SionParams::new(256).with_rescue().with_write_buffer(128);
        let Ok(mut w) = sion::paropen_write_co(fs, "crash.sion", &params, &comm).await else {
            return;
        };
        for piece in payload(comm.rank(), PAYLOAD_LEN).chunks(100) {
            if w.write(piece).is_err() {
                return;
            }
        }
        let _ = w.flush();
        // The job "dies" here: close() is never reached.
    });
}

fn main() {
    // Probe run (in memory): learn the workload's operation count, then
    // arm the kill switch deep enough that metadata and most data landed.
    let probe = Faults::new();
    workload(&TapFs::new(Arc::new(MemFs::with_block_size(256)), vec![probe.clone()]));
    let total_ops = probe.op_count();
    let crash_at = total_ops * 3 / 4;

    std::fs::create_dir_all(SMOKE_DIR).expect("create target/smoke");
    let disk = Arc::new(LocalFs::with_block_size(SMOKE_DIR, 256));
    let faults = Faults::new();
    faults.crash_after_ops(crash_at);
    workload(&TapFs::new(disk.clone(), vec![faults]));

    println!(
        "crashed multifile written: {SMOKE_DIR}/crash.sion (killed at op {crash_at}/{total_ops})"
    );
    match sion::Multifile::open(disk.as_ref(), "crash.sion") {
        Ok(_) => {
            eprintln!("unexpected: the crashed multifile opens cleanly");
            std::process::exit(1);
        }
        Err(e) => println!("as expected, it does not open: {e}"),
    }
    println!("now run: sionrepair {SMOKE_DIR}/crash.sion && sionverify {SMOKE_DIR}/crash.sion");
}
