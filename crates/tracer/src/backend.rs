//! Trace storage back-ends: task-local physical files vs a SIONlib
//! multifile.
//!
//! *Activation* (paper §5.2) is the creation of the trace files plus
//! library initialization — the step Table 2 measures. Both back-ends
//! separate activation ([`TraceBackend::activate`], collective) from the
//! flush at finalization ([`ActiveTrace::write_events`]), mirroring how
//! Scalasca creates its files up front and writes buffers at the end of
//! the measurement.

use simmpi::CoComm;
use sion::{paropen_write_co, CloseStats, Result, SionParWriter, SionParams};
use std::future::Future;
use std::sync::Arc;
use vfs::{Vfs, VfsFile};

/// Where per-task traces are stored.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceBackend {
    /// One physical file per task: `"{prefix}.{rank:06}"` — the
    /// multiple-file-parallel scheme Scalasca originally used.
    TaskLocal {
        /// Path prefix for the per-task files.
        prefix: String,
    },
    /// All traces in one SIONlib multifile (the paper's integration): a
    /// chunk size equal to the expected buffer size means a single block
    /// of chunks, exactly as §5.2 describes for the zlib-compressed
    /// Scalasca buffers.
    Sion {
        /// Multifile base name.
        base: String,
        /// Expected (maximum) per-task buffer size — the chunk request.
        chunksize: u64,
        /// Number of underlying physical files (the paper used 16 for the
        /// 1470 GB SMG2000 trace).
        nfiles: u32,
        /// Transparent compression (paper §6 road map).
        compressed: bool,
    },
}

/// The trace file path of `rank` under the task-local `prefix`.
pub(crate) fn task_local_path(prefix: &str, rank: usize) -> String {
    format!("{prefix}.{rank:06}")
}

impl TraceBackend {
    /// Collectively create/initialize this task's trace storage.
    pub async fn activate(&self, vfs: &dyn Vfs, comm: &CoComm) -> Result<ActiveTrace> {
        match self {
            // Every task creates its own file — the contention the paper's
            // Fig. 3 and Table 2 quantify.
            TraceBackend::TaskLocal { prefix } => Ok(ActiveTrace::TaskLocal {
                file: vfs.create(&task_local_path(prefix, comm.rank()))?,
                at: 0,
            }),
            TraceBackend::Sion {
                base,
                chunksize,
                nfiles,
                compressed,
            } => {
                let mut params = SionParams::new(*chunksize).with_nfiles(*nfiles);
                if *compressed {
                    params = params.with_compression();
                }
                let writer = paropen_write_co(vfs, base, &params, comm).await?;
                Ok(ActiveTrace::Sion(Box::new(writer)))
            }
        }
    }

    /// Where the traces go (for reporting).
    pub fn describe(&self) -> String {
        match self {
            TraceBackend::TaskLocal { prefix } => format!("task-local files at {prefix}.*"),
            TraceBackend::Sion {
                base,
                nfiles,
                compressed,
                ..
            } => format!(
                "sion multifile at {base} ({nfiles} physical files{})",
                if *compressed { ", compressed" } else { "" }
            ),
        }
    }
}

/// An activated (open) trace one task flushes its buffer into.
pub enum ActiveTrace {
    /// This task's own file and the offset of its next write.
    TaskLocal {
        /// The task's trace file.
        file: Arc<dyn VfsFile>,
        /// Bytes written so far.
        at: u64,
    },
    /// This task's stream of the multifile (boxed: a writer is large, a
    /// file handle is not).
    Sion(Box<SionParWriter>),
}

impl ActiveTrace {
    /// Append encoded events to this task's trace.
    pub fn write_events(&mut self, data: &[u8]) -> Result<()> {
        match self {
            ActiveTrace::TaskLocal { file, at } => {
                file.write_all_at(data, *at)?;
                *at += data.len() as u64;
                Ok(())
            }
            ActiveTrace::Sion(writer) => writer.write(data),
        }
    }

    /// Finish the trace. Collective for the multifile back-end, which also
    /// reports its close statistics (bytes, blocks, write coalescing
    /// counters); the task-local back-end has none to report.
    ///
    /// Not an `async fn`: one that matches on its `self` keeps the trace
    /// twice in its future, beside the close's future that every task
    /// parked in the close gather holds.
    #[allow(clippy::manual_async_fn)] // see above: an `async fn` stores `self` twice
    pub fn finalize(self) -> impl Future<Output = Result<Option<CloseStats>>> + Send {
        async move {
            match self {
                ActiveTrace::TaskLocal { file, .. } => {
                    file.sync()?;
                    Ok(None)
                }
                ActiveTrace::Sion(writer) => Ok(Some(writer.close_co().await?)),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Event;
    use crate::Tracer;
    use simmpi::TaskWorld;
    use vfs::MemFs;

    fn sion(base: &str, chunksize: u64, nfiles: u32, compressed: bool) -> TraceBackend {
        TraceBackend::Sion {
            base: base.into(),
            chunksize,
            nfiles,
            compressed,
        }
    }

    fn run_measurement(backend: &TraceBackend, fs: &MemFs, ntasks: usize) {
        TaskWorld::run(ntasks, |comm| async move {
            let mut tracer = Tracer::new(comm.rank());
            for i in 0..50u64 {
                tracer.record(&Event::Enter {
                    time: i * 10,
                    region: comm.rank() as u32,
                });
                tracer.record(&Event::Exit {
                    time: i * 10 + 5,
                    region: comm.rank() as u32,
                });
            }
            let mut trace = backend.activate(fs, &comm).await.unwrap();
            tracer.finalize(&mut trace).unwrap();
            trace.finalize().await.unwrap();
        });
    }

    #[test]
    fn task_local_backend_one_file_per_task() {
        let fs = MemFs::new();
        let backend = TraceBackend::TaskLocal {
            prefix: "traces/run".into(),
        };
        run_measurement(&backend, &fs, 4);
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
        run_measurement(&sion("traces.sion", 64 * 1024, 2, false), &fs, 6);
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
        run_measurement(&sion("c.sion", 64 * 1024, 1, true), &fs, 3);
        let mf = sion::Multifile::open(&fs, "c.sion").unwrap();
        assert!(mf.compressed());
        let logical = mf.read_rank(0).unwrap();
        let evs = Event::decode_stream(&logical).unwrap();
        assert_eq!(evs.len(), 100);
        // Repetitive event streams compress well.
        let stored = mf.location(0).unwrap().stored_bytes;
        assert!(
            stored < logical.len() as u64 / 2,
            "stored {stored} logical {}",
            logical.len()
        );
    }

    #[test]
    fn sion_backend_reports_coalesced_close_stats() {
        let fs = MemFs::with_block_size(1024);
        let backend = sion("stats.sion", 64 * 1024, 1, false);
        TaskWorld::run(2, |comm| {
            let backend = &backend;
            let fs = &fs;
            async move {
                let mut trace = backend.activate(fs, &comm).await.unwrap();
                // Many small event flushes: the stream engine should coalesce
                // them into far fewer VFS writes.
                for _ in 0..64 {
                    trace.write_events(&[comm.rank() as u8; 64]).unwrap();
                }
                let stats = trace
                    .finalize()
                    .await
                    .unwrap()
                    .expect("multifile reports stats");
                assert_eq!(stats.user_bytes, 64 * 64);
                assert_eq!(stats.write_io.user_calls, 64);
                assert!(
                    stats.write_io.vfs_calls * 5 <= stats.write_io.user_calls,
                    "expected ≥5× coalescing, got {:?}",
                    stats.write_io
                );
            }
        });
        // Task-local backend reports no stats.
        let local = TraceBackend::TaskLocal {
            prefix: "tl/run".into(),
        };
        TaskWorld::run(1, |comm| {
            let fs = &fs;
            let local = &local;
            async move {
                let mut trace = local.activate(fs, &comm).await.unwrap();
                trace.write_events(b"x").unwrap();
                assert!(trace.finalize().await.unwrap().is_none());
            }
        });
    }

    /// Both back-ends' futures are `Send`, so a rank that awaits one can
    /// run on a work-stealing world: checked where each future is built.
    /// The futures are dropped unpolled.
    #[test]
    fn activate_and_finalize_futures_are_send() {
        fn assert_send<T: Send>(_: &T) {}
        let fs = MemFs::with_block_size(1024);
        let local = TraceBackend::TaskLocal {
            prefix: "send/run".into(),
        };
        let multi = sion("send.sion", 1024, 1, false);
        TaskWorld::run(1, |comm| {
            let (fs, local, multi) = (&fs, &local, &multi);
            async move {
                assert_send(&local.activate(fs, &comm));
                assert_send(&multi.activate(fs, &comm));
                for backend in [local, multi] {
                    let trace = backend.activate(fs, &comm).await.unwrap();
                    let done = trace.finalize();
                    assert_send(&done);
                    assert!(done.await.is_ok());
                }
            }
        });
    }

    /// A task parked in a multifile trace's finalize holds its writer once:
    /// the future is smaller than two writers (the close's future inside it
    /// holds one).
    #[test]
    fn finalize_future_holds_its_writer_once() {
        use std::mem::{size_of, size_of_val};
        let fs = MemFs::with_block_size(1024);
        let multi = sion("size.sion", 1024, 1, false);
        TaskWorld::run(1, |comm| {
            let (fs, multi) = (&fs, &multi);
            async move {
                let trace = multi.activate(fs, &comm).await.unwrap();
                let done = trace.finalize();
                let (future, writer) = (size_of_val(&done), size_of::<SionParWriter>());
                assert!(
                    future < 2 * writer,
                    "finalize {future} B, writer {writer} B"
                );
                assert!(done.await.is_ok());
            }
        });
    }

    #[test]
    fn describe_strings() {
        let local = TraceBackend::TaskLocal { prefix: "p".into() };
        assert!(local.describe().contains("task-local"));
        assert!(sion("b", 1, 4, false).describe().contains("4 physical"));
        assert!(sion("b", 1, 4, true).describe().contains("compressed"));
    }
}
