//! One writer of a file's head and tail: the same per-rank streams written
//! through [`SerialWriter`] and through the collective `paropen_write_co` /
//! `close_co` (task runtime) must produce byte-identical physical files, at
//! every file-group size — and a group whose close cannot be finalized must
//! say so on every task and leave no trailer behind.

use simmpi::TaskWorld;
use sion::format::Trailer;
use sion::{paropen_write_co, Alignment, SerialWriter, SionError, SionParams};
use std::io;
use std::sync::Arc;
use vfs::{MemFs, Next, Op, OpKind, Tap, TapFs, Vfs};

const FS_BLOCK: u64 = 512;

/// Per-rank chunk-size request: three sizes, so chunk offsets are ragged.
fn chunksize(rank: usize) -> u64 {
    256 + 128 * (rank % 3) as u64
}

/// Per-rank stream: rank 1 writes nothing, rank 2 spills over several
/// blocks, everybody else stays inside the first chunk.
fn stream(rank: usize) -> Vec<u8> {
    let len = match rank {
        1 => 0,
        2 => 3 * chunksize(2) as usize + 17,
        r => 40 + (r * 37) % 200,
    };
    (0..len)
        .map(|i| ((i * 31 + rank * 131 + 7) % 251) as u8)
        .collect()
}

/// Read back every physical file under `prefix` as raw bytes.
fn dump(fs: &dyn Vfs, prefix: &str) -> Vec<(String, Vec<u8>)> {
    let mut files: Vec<(String, Vec<u8>)> = fs
        .list(prefix)
        .unwrap()
        .into_iter()
        .map(|path| {
            let f = fs.open(&path).unwrap();
            let mut buf = vec![0u8; f.len().unwrap() as usize];
            f.read_exact_at(&mut buf, 0).unwrap();
            (path, buf)
        })
        .collect();
    files.sort();
    files
}

fn written_serially(params: &SionParams, ntasks: usize) -> Vec<(String, Vec<u8>)> {
    let fs = MemFs::with_block_size(FS_BLOCK);
    let sizes: Vec<u64> = (0..ntasks).map(chunksize).collect();
    let mut w = SerialWriter::create(&fs, "id.sion", &sizes, params).unwrap();
    for rank in 0..ntasks {
        w.select_rank(rank).unwrap();
        w.write(&stream(rank)).unwrap();
    }
    w.close().unwrap();
    dump(&fs, "id.sion")
}

fn written_collectively(params: &SionParams, ntasks: usize) -> Vec<(String, Vec<u8>)> {
    let fs = MemFs::with_block_size(FS_BLOCK);
    TaskWorld::run(ntasks, |c| {
        let fs = &fs;
        let params = SionParams {
            chunksize: chunksize(c.rank()),
            ..params.clone()
        };
        async move {
            let mut w = paropen_write_co(fs, "id.sion", &params, &c).await.unwrap();
            w.write(&stream(c.rank())).unwrap();
            w.close_co().await.unwrap();
        }
    });
    dump(&fs, "id.sion")
}

fn assert_identical(params: &SionParams, ntasks: usize) {
    let serial = written_serially(params, ntasks);
    let collective = written_collectively(params, ntasks);
    assert_eq!(serial.len(), params.nfiles as usize, "{params:?}");
    assert_eq!(serial.len(), collective.len(), "{params:?}");
    for ((sname, sbytes), (cname, cbytes)) in serial.iter().zip(&collective) {
        assert_eq!(sname, cname);
        assert!(
            sbytes == cbytes,
            "{sname} differs between the two writers ({ntasks} tasks, {params:?})"
        );
    }
}

#[test]
fn serial_and_collective_writers_produce_identical_files() {
    for nfiles in [1, 3] {
        for alignment in [Alignment::FsBlock, Alignment::None] {
            for rescue in [false, true] {
                let mut params = SionParams::new(0)
                    .with_nfiles(nfiles)
                    .with_alignment(alignment);
                params.rescue = rescue;
                assert_identical(&params, 10);
            }
        }
    }
}

/// One file group of four-digit width.
const BIG_GROUP: usize = 1536;

#[test]
fn a_1536_task_file_group_closes_to_the_serial_writers_bytes() {
    assert_identical(&SionParams::new(0).with_rescue(), BIG_GROUP);
}

/// Fails every write issued under one task's label.
struct FailWritesOf(u64);

impl Tap for FailWritesOf {
    fn around(&self, op: &Op<'_>, next: Next<'_>) -> io::Result<u64> {
        if op.kind == OpKind::Write && op.task == Some(self.0) {
            return Err(io::Error::other("injected write failure"));
        }
        next(op.len)
    }

    fn injects(&self) -> bool {
        true
    }
}

#[test]
fn one_failed_flush_in_a_1536_task_group_fails_every_task_and_writes_no_trailer() {
    const VICTIM: usize = 700;
    let fs = TapFs::new(
        Arc::new(MemFs::with_block_size(FS_BLOCK)),
        vec![Arc::new(FailWritesOf(VICTIM as u64))],
    );
    let errors = TaskWorld::run(BIG_GROUP, |c| {
        let fs = &fs;
        let params = SionParams::new(chunksize(c.rank()));
        async move {
            let mut w = paropen_write_co(fs, "fail.sion", &params, &c)
                .await
                .unwrap();
            // Buffered: the victim's only write to the file is its close-time flush.
            w.write(&stream(c.rank())).unwrap();
            w.close_co().await.unwrap_err()
        }
    });
    for (rank, e) in errors.iter().enumerate() {
        // The victim reports its own flush error, everybody else the group's verdict.
        assert_eq!(
            matches!(e, SionError::CollectiveMismatch(_)),
            rank != VICTIM,
            "rank {rank}: {e}"
        );
    }
    let file = fs.open("fail.sion").unwrap();
    let no_trailer = Trailer::read_from(file.as_ref()).unwrap_err();
    assert!(no_trailer.to_string().contains("trailer"), "{no_trailer}");
}
