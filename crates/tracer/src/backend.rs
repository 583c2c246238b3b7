//! Trace storage back-ends: task-local physical files vs a SIONlib
//! multifile.
//!
//! *Activation* (paper §5.2) is the creation of the trace files plus
//! library initialization — the step Table 2 measures. Both back-ends
//! separate activation ([`TraceBackend::activate`], collective) from the
//! flush at finalization ([`ActiveTrace::write_events`]), mirroring how
//! Scalasca creates its files up front and writes buffers at the end of
//! the measurement.

use simmpi::Comm;
use sion::{paropen_write, CloseStats, Result, SionParams, SionParWriter};
use std::sync::Arc;
use vfs::{Vfs, VfsFile};

/// An activated (open) trace one task can flush its buffer into.
pub trait ActiveTrace {
    /// Append encoded events to this task's trace.
    fn write_events(&mut self, data: &[u8]) -> Result<()>;

    /// Finish the trace. Collective for the multifile back-end, which also
    /// reports its close statistics (bytes, blocks, write coalescing
    /// counters); the task-local back-end has none to report.
    fn finalize(self: Box<Self>) -> Result<Option<CloseStats>>;
}

/// Strategy for storing per-task traces.
pub trait TraceBackend: Send + Sync {
    /// Collectively create/initialize this task's trace storage.
    fn activate(&self, vfs: &dyn Vfs, comm: &Comm) -> Result<Box<dyn ActiveTrace>>;

    /// Path prefix (for reporting).
    fn describe(&self) -> String;
}

/// One physical file per task: `"{prefix}.{rank:06}"` — the
/// multiple-file-parallel scheme Scalasca originally used.
pub struct TaskLocalBackend {
    /// Path prefix for the per-task files.
    pub prefix: String,
}

impl TaskLocalBackend {
    /// Back-end writing `"{prefix}.{rank:06}"` files.
    pub fn new(prefix: impl Into<String>) -> Self {
        TaskLocalBackend { prefix: prefix.into() }
    }

    /// The trace file path of `rank`.
    pub fn path_of(&self, rank: usize) -> String {
        format!("{}.{rank:06}", self.prefix)
    }
}

struct TaskLocalActive {
    file: Arc<dyn VfsFile>,
    at: u64,
}

impl ActiveTrace for TaskLocalActive {
    fn write_events(&mut self, data: &[u8]) -> Result<()> {
        self.file.write_all_at(data, self.at)?;
        self.at += data.len() as u64;
        Ok(())
    }

    fn finalize(self: Box<Self>) -> Result<Option<CloseStats>> {
        self.file.sync()?;
        Ok(None)
    }
}

impl TraceBackend for TaskLocalBackend {
    fn activate(&self, vfs: &dyn Vfs, comm: &Comm) -> Result<Box<dyn ActiveTrace>> {
        // Every task creates its own file — the contention the paper's
        // Fig. 3 and Table 2 quantify.
        let file = vfs.create(&self.path_of(comm.rank()))?;
        Ok(Box::new(TaskLocalActive { file, at: 0 }))
    }

    fn describe(&self) -> String {
        format!("task-local files at {}.*", self.prefix)
    }
}

/// All traces in one SIONlib multifile (the paper's integration): a chunk
/// size equal to the expected buffer size means a single block of chunks,
/// exactly as §5.2 describes for the zlib-compressed Scalasca buffers.
pub struct SionBackend {
    /// Multifile base name.
    pub base: String,
    /// Expected (maximum) per-task buffer size — the chunk request.
    pub chunksize: u64,
    /// Number of underlying physical files (the paper used 16 for the
    /// 1470 GB SMG2000 trace).
    pub nfiles: u32,
    /// Transparent compression (paper §6 road map).
    pub compressed: bool,
}

impl SionBackend {
    /// Multifile back-end with the given base name and chunk request.
    pub fn new(base: impl Into<String>, chunksize: u64, nfiles: u32) -> Self {
        SionBackend { base: base.into(), chunksize, nfiles, compressed: false }
    }

    /// Enable transparent compression of the trace streams.
    pub fn with_compression(mut self) -> Self {
        self.compressed = true;
        self
    }
}

struct SionActive {
    writer: SionParWriter,
}

impl ActiveTrace for SionActive {
    fn write_events(&mut self, data: &[u8]) -> Result<()> {
        self.writer.write(data)
    }

    fn finalize(self: Box<Self>) -> Result<Option<CloseStats>> {
        Ok(Some(self.writer.close()?))
    }
}

impl TraceBackend for SionBackend {
    fn activate(&self, vfs: &dyn Vfs, comm: &Comm) -> Result<Box<dyn ActiveTrace>> {
        let mut params = SionParams::new(self.chunksize).with_nfiles(self.nfiles);
        if self.compressed {
            params = params.with_compression();
        }
        let writer = paropen_write(vfs, &self.base, &params, comm)?;
        Ok(Box::new(SionActive { writer }))
    }

    fn describe(&self) -> String {
        format!(
            "sion multifile at {} ({} physical files{})",
            self.base,
            self.nfiles,
            if self.compressed { ", compressed" } else { "" }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Event;
    use crate::Tracer;
    use simmpi::World;
    use vfs::MemFs;

    fn run_measurement(backend: &dyn TraceBackend, fs: &MemFs, ntasks: usize) {
        World::run(ntasks, |comm| {
            let mut tracer = Tracer::new(comm.rank());
            for i in 0..50u64 {
                tracer.record(&Event::Enter { time: i * 10, region: comm.rank() as u32 });
                tracer.record(&Event::Exit { time: i * 10 + 5, region: comm.rank() as u32 });
            }
            let mut trace = backend.activate(fs, comm).unwrap();
            tracer.finalize(trace.as_mut()).unwrap();
            trace.finalize().unwrap();
        });
    }

    #[test]
    fn task_local_backend_one_file_per_task() {
        let fs = MemFs::new();
        run_measurement(&TaskLocalBackend::new("traces/run"), &fs, 4);
        assert_eq!(fs.list("traces/").unwrap().len(), 4);
        let f = fs.open("traces/run.000002").unwrap();
        let mut buf = vec![0u8; f.len().unwrap() as usize];
        f.read_exact_at(&mut buf, 0).unwrap();
        let evs = Event::decode_stream(&buf).unwrap();
        assert_eq!(evs.len(), 100);
        assert!(matches!(evs[0], Event::Enter { region: 2, .. }));
    }

    #[test]
    fn sion_backend_single_multifile() {
        let fs = MemFs::with_block_size(1024);
        run_measurement(&SionBackend::new("traces.sion", 64 * 1024, 2), &fs, 6);
        assert_eq!(fs.list("traces.sion").unwrap().len(), 2);
        let mf = sion::Multifile::open(&fs, "traces.sion").unwrap();
        for rank in 0..6 {
            let evs = Event::decode_stream(&mf.read_rank(rank).unwrap()).unwrap();
            assert_eq!(evs.len(), 100, "rank {rank}");
        }
    }

    #[test]
    fn compressed_sion_backend_roundtrip_and_shrinks() {
        let fs = MemFs::with_block_size(1024);
        run_measurement(&SionBackend::new("c.sion", 64 * 1024, 1).with_compression(), &fs, 3);
        let mf = sion::Multifile::open(&fs, "c.sion").unwrap();
        assert!(mf.compressed());
        let logical = mf.read_rank(0).unwrap();
        let evs = Event::decode_stream(&logical).unwrap();
        assert_eq!(evs.len(), 100);
        // Repetitive event streams compress well.
        let stored = mf.location(0).unwrap().stored_bytes;
        assert!(stored < logical.len() as u64 / 2, "stored {stored} logical {}", logical.len());
    }

    #[test]
    fn sion_backend_reports_coalesced_close_stats() {
        let fs = MemFs::with_block_size(1024);
        let backend = SionBackend::new("stats.sion", 64 * 1024, 1);
        World::run(2, |comm| {
            let mut trace = backend.activate(&fs, comm).unwrap();
            // Many small event flushes: the stream engine should coalesce
            // them into far fewer VFS writes.
            for _ in 0..64 {
                trace.write_events(&[comm.rank() as u8; 64]).unwrap();
            }
            let stats = trace.finalize().unwrap().expect("multifile reports stats");
            assert_eq!(stats.user_bytes, 64 * 64);
            assert_eq!(stats.write_io.user_calls, 64);
            assert!(
                stats.write_io.vfs_calls * 5 <= stats.write_io.user_calls,
                "expected ≥5× coalescing, got {:?}",
                stats.write_io
            );
        });
        // Task-local backend reports no stats.
        let local = TaskLocalBackend::new("tl/run");
        World::run(1, |comm| {
            let mut trace = local.activate(&fs, comm).unwrap();
            trace.write_events(b"x").unwrap();
            assert!(trace.finalize().unwrap().is_none());
        });
    }

    #[test]
    fn describe_strings() {
        assert!(TaskLocalBackend::new("p").describe().contains("task-local"));
        assert!(SionBackend::new("b", 1, 4).describe().contains("4 physical"));
        assert!(SionBackend::new("b", 1, 4).with_compression().describe().contains("compressed"));
    }
}
