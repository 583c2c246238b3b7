//! What a serial lookup reads: every `Multifile::location` and `locations`
//! call reads its rows from the file, and reads no more than it needs —
//! one chunk-index slice per rank, one word per block of metablock 2 when
//! the index is unusable, one metablock 2 per physical file for all ranks.

use sion::format::{Trailer, MAGIC_IDX};
use sion::{physical_name, Multifile, SerialWriter, SionParams};
use sionlib::{sion, vfs};
use std::sync::{Arc, Mutex};
use vfs::{MemFs, Next, Op, OpKind, Tap, TapFs, Vfs};

const RANKS: usize = 6;
const NFILES: u32 = 2;

/// Records the length of every read.
#[derive(Default)]
struct ReadLog(Mutex<Vec<u64>>);

impl ReadLog {
    fn take(&self) -> Vec<u64> {
        std::mem::take(&mut self.0.lock().unwrap())
    }
}

impl Tap for ReadLog {
    fn around(&self, op: &Op<'_>, next: Next<'_>) -> std::io::Result<u64> {
        if op.kind == OpKind::Read {
            self.0.lock().unwrap().push(op.len);
        }
        next(op.len)
    }
}

/// A two-file multifile whose ranks fill different numbers of chunks, so
/// the files end with different block counts, each more than one.
fn written() -> Arc<MemFs> {
    let mem = Arc::new(MemFs::with_block_size(256));
    let params = SionParams::new(64).with_nfiles(NFILES);
    let mut w = SerialWriter::create(&*mem, "r.sion", &[64; RANKS], &params).unwrap();
    for rank in 0..RANKS {
        w.select_rank(rank).unwrap();
        w.write(&vec![rank as u8; 40 + 200 * rank]).unwrap();
    }
    w.close().unwrap();
    mem
}

/// Each rank's block count, from a lookup outside the tap.
fn nblocks(mem: &MemFs) -> Vec<u64> {
    let mf = Multifile::open(mem, "r.sion").unwrap();
    (0..RANKS)
        .map(|r| mf.location(r).unwrap().chunks.len() as u64)
        .collect()
}

/// `mem` opened behind a read log, the log emptied of the open's reads.
fn opened(mem: &Arc<MemFs>) -> (Multifile, Arc<ReadLog>) {
    let log = Arc::new(ReadLog::default());
    let fs = TapFs::new(mem.clone(), vec![log.clone()]);
    let mf = Multifile::open(&fs, "r.sion").unwrap();
    log.take();
    (mf, log)
}

#[test]
fn an_indexed_lookup_is_one_index_slice_read_every_time() {
    let mem = written();
    let blocks = nblocks(&mem);
    assert!(blocks.iter().all(|&b| b > 1), "{blocks:?}");
    assert_ne!(blocks[0], blocks[RANKS - 1], "{blocks:?}");
    let (mf, log) = opened(&mem);
    for pass in 0..2 {
        for (r, &b) in blocks.iter().enumerate() {
            mf.location(r).unwrap();
            assert_eq!(log.take(), [8 * b], "rank {r}, pass {pass}");
        }
    }
}

#[test]
fn a_lookup_without_an_index_reads_one_word_per_block() {
    let mem = written();
    for k in 0..NFILES {
        let f = mem.open_rw(&physical_name("r.sion", k)).unwrap();
        let (idx_off, _) = Trailer::read_from(f.as_ref()).unwrap().index.unwrap();
        let mut magic = [0u8; 8];
        f.read_exact_at(&mut magic, idx_off).unwrap();
        assert_eq!(magic, MAGIC_IDX);
        f.write_all_at(b"????????", idx_off).unwrap();
    }
    let blocks = nblocks(&mem);
    let (mf, log) = opened(&mem);
    for pass in 0..2 {
        for (r, &b) in blocks.iter().enumerate() {
            mf.location(r).unwrap();
            assert_eq!(log.take(), vec![8; b as usize], "rank {r}, pass {pass}");
        }
    }
}

#[test]
fn all_locations_are_one_read_per_physical_file_every_time() {
    let mem = written();
    let (mf, log) = opened(&mem);
    for pass in 0..2 {
        assert_eq!(mf.locations().unwrap().tasks.len(), RANKS);
        assert_eq!(log.take().len(), NFILES as usize, "pass {pass}");
    }
}
