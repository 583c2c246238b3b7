//! Per-layer measurements taken beside the cycle: raw backend ceilings,
//! collective micro-timings and the codec on its own. Each is a plain loop
//! over one layer's public functions, with no `sion` in the way, so every
//! number from the cycle can be read as a share of what the layer below
//! could do.

use crate::metrics::Measurements;
use crate::stats::median;
use crate::workload::{Payload, Spec};
use simmpi::{CoComm, SchedPolicy, TaskWorld};
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;
use vfs::{LocalFs, MemFs, Vfs, VfsFile};

/// Bytes each ceiling loop moves per pass.
pub const CEILING_BYTES: usize = 256 << 20;
/// Timed passes per ceiling (after one untimed pass), samples per
/// collective, and empty world runs.
const PASSES: usize = 3;
const COLLECTIVE_SAMPLES: usize = 20;
/// The codec is timed on at most this many payload bytes and its seconds
/// scaled to the whole checkpoint.
const SZIP_SAMPLE_BYTES: usize = 64 << 20;

fn gbps(bytes: usize, secs: f64) -> f64 {
    bytes as f64 / 1e9 / secs
}

/// Median GB/s of `PASSES` timed passes of `pass` after one warm-up pass.
fn ceiling(mut pass: impl FnMut()) -> f64 {
    pass();
    let samples: Vec<f64> = (0..PASSES)
        .map(|_| {
            let start = Instant::now();
            pass();
            gbps(CEILING_BYTES, start.elapsed().as_secs_f64())
        })
        .collect();
    median(&samples)
}

fn write_pass(file: &dyn VfsFile, src: &[u8], piece: usize) {
    for (i, chunk) in src.chunks(piece).enumerate() {
        file.write_all_at(chunk, (i * piece) as u64)
            .expect("ceiling write");
    }
}

/// Raw backend ceilings. `scratch` must be a directory inside the checkout;
/// the `LocalFs` file is removed afterwards. Writes are not synced, so the
/// `localfs` numbers are the page cache's, not a device's.
pub fn vfs_ceilings(m: &mut Measurements, scratch: &Path) {
    let src: Vec<u8> = (0..CEILING_BYTES)
        .map(|i| (i as u32).wrapping_mul(2_654_435_761) as u8)
        .collect();
    let mut dst = vec![0u8; CEILING_BYTES];
    m.value(
        "vfs.memcpy_gbps",
        ceiling(|| dst.copy_from_slice(black_box(&src))),
    );
    black_box(&dst);
    drop(dst);

    let mem = MemFs::new();
    let file = mem.create("ceiling").expect("MemFs create");
    m.value(
        "vfs.memfs_write_1m_gbps",
        ceiling(|| write_pass(&*file, &src, 1 << 20)),
    );
    m.value(
        "vfs.memfs_write_4k_gbps",
        ceiling(|| write_pass(&*file, &src, 4096)),
    );
    m.value(
        "vfs.memfs_lease_read_gbps",
        ceiling(|| {
            let mut at = 0;
            while at < CEILING_BYTES {
                let lease = file
                    .read_lease(at as u64, 1 << 20)
                    .expect("MemFs leases written pages");
                // Touch every byte, as restart's comparison does.
                assert!(lease[..] == src[at..at + lease.len()]);
                at += lease.len();
            }
        }),
    );
    drop((file, mem));

    std::fs::create_dir_all(scratch).expect("scratch directory");
    let local = LocalFs::new(scratch);
    let file = local.create("ceiling.bin").expect("LocalFs create");
    m.value(
        "vfs.localfs_write_1m_gbps",
        ceiling(|| write_pass(&*file, &src, 1 << 20)),
    );
    let mut buf = vec![0u8; 1 << 20];
    m.value(
        "vfs.localfs_read_1m_gbps",
        ceiling(|| {
            for at in (0..CEILING_BYTES).step_by(1 << 20) {
                file.read_exact_at(&mut buf, at as u64)
                    .expect("ceiling read");
                black_box(&buf);
            }
        }),
    );
    drop(file);
    local.remove("ceiling.bin").expect("remove ceiling file");
}

/// Collective micro-timings inside a `TaskWorld` of the workload's rank
/// count, as rank 0 sees them. Every timed operation ends in a
/// synchronising step, so rank 0's interval covers the world: `bcast`
/// alone would return at the root at once, so it is timed together with a
/// closing barrier.
pub fn simmpi_micro(m: &mut Measurements, spec: &Spec) {
    let colours = spec.params.nfiles as usize;
    let (mut timings, _) = TaskWorld::run_with(SchedPolicy::host(), spec.ranks, |c| async move {
        let (rank, size) = (c.rank(), c.size());
        let mut us: [Vec<f64>; 6] = Default::default();
        let mut lap =
            |slot: usize, start: Instant| us[slot].push(start.elapsed().as_secs_f64() * 1e6);
        for _ in 0..COLLECTIVE_SAMPLES {
            c.barrier().await;
            let t = Instant::now();
            c.barrier().await;
            lap(0, t);

            let t = Instant::now();
            let data = (rank == 0).then(|| vec![0u8; 16]);
            c.recycle(c.bcast(data, 0).await);
            c.barrier().await;
            lap(1, t);

            let t = Instant::now();
            black_box(c.gather(&[0u8; 16], 0).await);
            lap(2, t);

            let t = Instant::now();
            black_box(c.allgather_shared(&[0u8; 16]).await.len());
            lap(3, t);

            let t = Instant::now();
            drop(c.split((rank * colours / size) as u64, rank as u64).await);
            lap(4, t);

            let t = Instant::now();
            match rank {
                0 if size > 1 => {
                    c.send(1, 7, &[0u8; 8]);
                    c.recycle(c.recv(1, 7).await);
                }
                1 => {
                    c.recycle(c.recv(0, 7).await);
                    c.send(0, 7, &[0u8; 8]);
                }
                _ => {}
            }
            lap(5, t);
        }
        us
    });
    let rank0 = timings.swap_remove(0);
    let names = [
        "barrier_us",
        "bcast_us",
        "gather_us",
        "allgather_shared_us",
        "split_us",
        "pingpong_us",
    ];
    for (name, samples) in names.iter().zip(&rank0) {
        m.samples(&format!("simmpi.{name}"), samples);
    }

    let spawns: Vec<f64> = (0..PASSES)
        .map(|_| {
            let start = Instant::now();
            TaskWorld::run_with(SchedPolicy::host(), spec.ranks, |_c| async {});
            start.elapsed().as_secs_f64()
        })
        .collect();
    m.samples("simmpi.world_spawn_s", &spawns);
}

/// `szip::compress`/`decompress` straight over the workload's per-rank
/// source buffers (the first [`SZIP_SAMPLE_BYTES`] of them). The two `_s`
/// metrics scale the measured time to one checkpoint's user bytes, so they
/// can be set beside `ckpt_s` and `restart_s`.
pub fn szip_direct(m: &mut Measurements, payload: &Payload) {
    let (mut raw, mut packed_len) = (0usize, 0usize);
    let (mut compress_s, mut decompress_s) = (0.0, 0.0);
    for source in &payload.source {
        if raw >= SZIP_SAMPLE_BYTES {
            break;
        }
        let start = Instant::now();
        let packed = szip::compress(black_box(source));
        compress_s += start.elapsed().as_secs_f64();
        let start = Instant::now();
        let unpacked = szip::decompress(black_box(&packed)).expect("szip round trip");
        decompress_s += start.elapsed().as_secs_f64();
        assert!(unpacked == *source, "szip round trip");
        raw += source.len();
        packed_len += packed.len();
    }
    let scale = payload.user_bytes() as f64 / raw as f64;
    m.value("szip.compress_gbps", gbps(raw, compress_s));
    m.value("szip.decompress_gbps", gbps(raw, decompress_s));
    m.value("szip.compress_s", compress_s * scale);
    m.value("szip.decompress_s", decompress_s * scale);
    m.value("szip.ratio", raw as f64 / packed_len as f64);
}
