//! The uniform write open: every task asks for the same chunk size, so each
//! computes its own chunk geometry and aggregation neighbourhood, and the
//! file master creates the file without gathering anything. What it writes
//! must be what `SerialWriter` writes for the same requests, and where the
//! master's layout fails every task must fail, without a panic.

use simmpi::{CoComm, TaskWorld};
use sion::{
    paropen_write_co, physical_name, Alignment, IoMode, Mapping, SerialWriter, SionError,
    SionParams,
};
use vfs::{MemFs, Vfs};

/// Open with `params` on every task; the master's error or the others'.
async fn open_outcome(fs: &MemFs, params: &SionParams, c: &CoComm) -> SionError {
    match paropen_write_co(fs, "ovf.sion", params, c).await {
        Ok(_) => panic!("rank {}: an overflowing layout opened", c.rank()),
        Err(e) => e,
    }
}

/// A request whose chunk capacity overflows `u64` (rescue header added,
/// then aligned): the file master fails its layout with `InvalidArg`, its
/// status word tells the others, who fail with `CollectiveMismatch` — in a
/// debug build, on both runtimes, and no file is created.
#[test]
fn an_overflowing_uniform_request_fails_every_task_without_a_panic() {
    for nfiles in [1, 2] {
        for chunksize in [u64::MAX, u64::MAX - 16, u64::MAX / 2] {
            let params = SionParams::new(chunksize).with_rescue().with_nfiles(nfiles);
            let check = |errors: Vec<SionError>, runtime: &str| {
                for (rank, e) in errors.iter().enumerate() {
                    let master = Mapping::Blocked.group_of(rank, 4, nfiles).1 == 0;
                    let ok = if master {
                        matches!(e, SionError::InvalidArg(_))
                    } else {
                        matches!(e, SionError::CollectiveMismatch(_))
                    };
                    assert!(
                        ok,
                        "{runtime}, {nfiles} files, {chunksize}: rank {rank}: {e}"
                    );
                }
            };
            let fs = MemFs::with_block_size(512);
            check(
                TaskWorld::run(4, |c| {
                    let (fs, params) = (&fs, &params);
                    async move { open_outcome(fs, params, &c).await }
                }),
                "tasks",
            );
            assert!(fs.list("ovf.sion").unwrap().is_empty());
        }
    }
}

/// The bytes of every physical file of `base`, in file order.
fn dump(fs: &MemFs, base: &str, nfiles: u32) -> Vec<Vec<u8>> {
    (0..nfiles)
        .map(|k| {
            let f = fs.open(&physical_name(base, k)).unwrap();
            let mut buf = vec![0u8; f.len().unwrap() as usize];
            f.read_exact_at(&mut buf, 0).unwrap();
            buf
        })
        .collect()
}

/// Rank `r`'s stream: a few chunks' worth for some ranks, nothing for one.
fn stream(rank: usize) -> Vec<u8> {
    let len = [700, 0, 2500, 90, 1300][rank % 5];
    (0..len).map(|i| (i * 7 + rank * 13) as u8).collect()
}

/// A uniform open computes each task's geometry and neighbourhood instead
/// of receiving them; the files are byte-identical to `SerialWriter`'s
/// over every mapping, both I/O modes, aligned and unaligned chunks,
/// rescue headers, and a group size the neighbourhoods do not divide.
#[test]
fn a_uniform_open_writes_the_serial_writers_bytes() {
    const N: usize = 11;
    for mapping in [Mapping::Blocked, Mapping::RoundRobin, Mapping::Grouped(4)] {
        for (io_mode, alignment, rescue) in [
            (IoMode::Independent, Alignment::FsBlock, false),
            (IoMode::Independent, Alignment::None, true),
            (
                IoMode::Aggregated {
                    tasks_per_aggregator: 2,
                },
                Alignment::FsBlock,
                true,
            ),
            (
                IoMode::Aggregated {
                    tasks_per_aggregator: 3,
                },
                Alignment::Fixed(96),
                false,
            ),
        ] {
            let params = SionParams {
                rescue,
                ..SionParams::new(600)
                    .with_nfiles(3)
                    .with_mapping(mapping)
                    .with_io_mode(io_mode)
                    .with_alignment(alignment)
            };
            let fs = MemFs::with_block_size(256);
            TaskWorld::run(N, |c| {
                let (fs, params) = (&fs, &params);
                async move {
                    let mut w = paropen_write_co(fs, "u.sion", params, &c).await.unwrap();
                    assert_eq!(w.local_comm_stats().unwrap().scatters(), 0);
                    w.write(&stream(c.rank())).unwrap();
                    w.close_co().await.unwrap();
                }
            });
            let serial = MemFs::with_block_size(256);
            let mut w = SerialWriter::create(&serial, "u.sion", &[600; N], &params).unwrap();
            for rank in 0..N {
                w.select_rank(rank).unwrap();
                w.write(&stream(rank)).unwrap();
            }
            w.close().unwrap();
            assert!(
                dump(&fs, "u.sion", 3) == dump(&serial, "u.sion", 3),
                "{mapping:?}, {io_mode:?}, {alignment:?}, rescue {rescue}"
            );
        }
    }
}
