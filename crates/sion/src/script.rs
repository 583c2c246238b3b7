//! I/O-script generation for the timing simulator.
//!
//! The paper's timing experiments run at up to 64 Ki tasks — far beyond
//! what we can execute as real threads. This module writes `parfs`
//! workloads ([`ScriptSet`]) for them: chunk capacities, block sharing and
//! metadata sizes come from the production code (`layout.rs`,
//! [`MetaBlock1`] and the `ChunkGeom` words), while
//! the collective open/close message pattern of `par.rs` and the
//! baseline access patterns the paper compares against (one-file-per-task
//! and single-file-sequential) are written by hand.
//! `tests/collective_rounds.rs` holds the hand-written pattern to the
//! implementation: per task class, the number of collectives of each kind
//! equals what an executed 8-rank run counts in its
//! [`CommStats`](simmpi::CommStats). `parfs` has no reduction op, so a
//! one-word allreduce is a `Gather` plus a `Bcast` of 8 bytes; `parfs` times
//! every collective over all tasks, whichever communicator `par.rs` runs it
//! on. Replacing the scripts with ones recorded from an executed run is
//! ROADMAP item 12.
//!
//! All generators produce symmetric task *classes* (e.g. "file masters"
//! and "workers"), which is what keeps 64 Ki-task simulations cheap.

use crate::format::{ChunkIndex, MetaBlock1, MB2_FIXED_LEN, TRAILER2_LEN};
use crate::layout::{align_up, Alignment, FileLayout};
use crate::par::AGREEMENT_WORDS;
use crate::stream::ChunkGeom;
use parfs::{FileRef, IoOp, ScriptClass, ScriptSet};

/// Parameters of a simulated multifile experiment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimSpec {
    /// Total number of application tasks.
    pub ntasks: u64,
    /// Number of physical files of the multifile.
    pub nfiles: u32,
    /// Per-task chunk-size request (bytes).
    pub chunk_req: u64,
    /// User bytes each task writes/reads.
    pub bytes_per_task: u64,
    /// Alignment unit SIONlib is configured with (its `fsblksize`
    /// parameter). Equal to `real_fsblk` when correctly configured; the
    /// paper's Table 1 deliberately sets 16 KiB on a 2 MiB file system.
    pub align_unit: u64,
    /// The file system's real block size (write-lock granularity).
    pub real_fsblk: u64,
}

impl SimSpec {
    /// A correctly-aligned spec writing `bytes_per_task` with one chunk per
    /// task on a machine with block size `real_fsblk`.
    pub fn aligned(ntasks: u64, nfiles: u32, bytes_per_task: u64, real_fsblk: u64) -> SimSpec {
        SimSpec {
            ntasks,
            nfiles,
            chunk_req: bytes_per_task.max(1),
            bytes_per_task,
            align_unit: real_fsblk,
            real_fsblk,
        }
    }

    /// Tasks mapped to the first (largest) physical file under the blocked
    /// mapping.
    fn ntasks_local(&self) -> u64 {
        self.ntasks.div_ceil(self.nfiles as u64)
    }

    /// The chunk layout of one physical file, computed with the real
    /// production layout code.
    pub fn layout(&self) -> FileLayout {
        let reqs = vec![self.chunk_req.max(1); self.ntasks_local() as usize];
        FileLayout::compute(
            &reqs,
            self.real_fsblk,
            Alignment::Fixed(self.align_unit),
            false,
        )
        .expect("valid spec")
    }

    /// Mean number of tasks sharing each real FS block (1.0 when aligned).
    pub fn sharers(&self) -> f64 {
        self.layout().block_sharing(self.real_fsblk).mean_sharers
    }

    /// Stored bytes a task's data occupies on disk, including the
    /// block-allocation floor: with block-aligned chunks, a file system
    /// materializes whole blocks, so even tiny per-task data costs one
    /// block (the MP2C effect in the paper's Fig. 6).
    fn effective_bytes(&self) -> u64 {
        if self.bytes_per_task == 0 {
            return 0;
        }
        if self.align_unit.is_multiple_of(self.real_fsblk) {
            align_up(self.bytes_per_task, self.real_fsblk)
        } else {
            self.bytes_per_task
        }
    }

    /// Size of metablock 1 for one physical file.
    fn mb1_bytes(&self) -> u64 {
        MetaBlock1::encoded_len(self.ntasks_local() as usize)
    }

    /// Size of metablock 2 for one physical file holding `nblocks` blocks.
    fn mb2_body_bytes(&self, nblocks: u64) -> u64 {
        MB2_FIXED_LEN + 8 * nblocks * self.ntasks_local()
    }

    /// Bytes the close writes at the end of one physical file holding
    /// `nblocks` blocks ([`crate::format::write_close_metadata`]):
    /// metablock 2, its chunk index and the v2 trailer.
    fn mb2_bytes(&self, nblocks: u64) -> u64 {
        self.mb2_body_bytes(nblocks)
            + ChunkIndex::encoded_len(nblocks, self.ntasks_local() as usize)
            + TRAILER2_LEN
    }

    /// Number of blocks a task needs for its data.
    pub fn nblocks(&self) -> u64 {
        if self.bytes_per_task == 0 {
            1
        } else {
            self.bytes_per_task.div_ceil(self.layout().usable(0).max(1))
        }
    }
}

/// One status or verdict word.
const WORD: u64 = 8;
/// A task's chunk geometry as the file master scatters it.
const GEOM_BYTES: u64 = 8 * ChunkGeom::ENCODED_WORDS as u64;

/// A one-word allreduce, as `parfs` can say it: up, then down.
fn allreduce_word() -> [IoOp; 2] {
    [IoOp::Gather { bytes: WORD }, IoOp::Bcast { bytes: WORD }]
}

/// Ops of the collective open in write mode, from the perspective of a
/// file master / a worker (mirrors [`crate::paropen_write_co`]). A
/// spec asks every task for the same chunk size, so this is the uniform
/// open: no request gather, no geometry scatter.
fn open_write_ops(spec: &SimSpec, file: u32, master: bool) -> Vec<IoOp> {
    // Agreement round: every task's five words reduced, rank 0's verdict
    // back. The file groups form without an exchange.
    let mut ops = vec![
        IoOp::Gather {
            bytes: AGREEMENT_WORDS as u64 * WORD,
        },
        IoOp::Bcast { bytes: WORD },
    ];
    if master {
        ops.push(IoOp::Create(FileRef::Shared(file)));
        ops.push(IoOp::Write {
            file: FileRef::Shared(file),
            bytes: spec.mb1_bytes(),
            sharers: 1.0,
        });
    }
    // The master's status word; every task computes its own geometry.
    ops.push(IoOp::Bcast { bytes: WORD });
    if !master {
        ops.push(IoOp::Open(FileRef::Shared(file)));
    }
    // All-or-nothing agreement across file groups.
    ops.extend(allreduce_word());
    ops
}

/// Ops of the collective close (mirrors `SionParWriter::close_co`): each
/// task's close record is a status word, a block count and the usage row;
/// the master writes the file's tail, and one allreduce makes the close
/// all-or-nothing.
fn close_ops(spec: &SimSpec, file: u32, master: bool, nblocks: u64) -> Vec<IoOp> {
    let mut ops = vec![IoOp::Gather {
        bytes: 2 * WORD + 8 * nblocks,
    }];
    if master {
        ops.push(IoOp::Write {
            file: FileRef::Shared(file),
            bytes: spec.mb2_bytes(nblocks),
            sharers: 1.0,
        });
    }
    ops.extend(allreduce_word());
    ops
}

/// Build per-file master/worker classes for a multifile workload. `mid`
/// produces the data-phase ops each task runs against its own physical
/// file. One master class (count 1) and one worker class (count
/// `local - 1`) are emitted per physical file, so per-file striping and
/// client-sharing effects are simulated per file (the paper's Fig. 4
/// depends on exactly this).
fn multifile_classes(
    spec: &SimSpec,
    write_mode: bool,
    mid: impl Fn(u32) -> Vec<IoOp>,
) -> ScriptSet {
    let nb = spec.nblocks();
    let nfiles = (spec.nfiles as u64).min(spec.ntasks) as u32;
    let mk = |file: u32, master: bool| {
        let mut ops = if write_mode {
            open_write_ops(spec, file, master)
        } else {
            open_read_ops(spec, file, master)
        };
        ops.extend(mid(file));
        // The read close is local.
        if write_mode {
            ops.extend(close_ops(spec, file, master, nb));
        }
        ops
    };
    // Blocked mapping: the first `rem` files hold one extra task.
    let base = spec.ntasks / nfiles as u64;
    let rem = spec.ntasks % nfiles as u64;
    let mut classes = Vec::with_capacity(2 * nfiles as usize);
    for k in 0..nfiles {
        let local = base + if (k as u64) < rem { 1 } else { 0 };
        classes.push(ScriptClass {
            count: 1,
            ops: mk(k, true),
        });
        if local > 1 {
            classes.push(ScriptClass {
                count: local - 1,
                ops: mk(k, false),
            });
        }
    }
    ScriptSet {
        ntasks: spec.ntasks,
        classes,
    }
}

/// Ops of the collective open in read mode (mirrors
/// [`crate::paropen_read_co`]): file 0's master — global rank 0 —
/// reads every file's metablock 1, metablock 2 and trailer (not the chunk
/// index) and scatters each task its status,
/// flags, file, geometry and usage row; every task opens its file, and one
/// allreduce makes the open all-or-nothing.
fn open_read_ops(spec: &SimSpec, file: u32, master: bool) -> Vec<IoOp> {
    let mut ops = Vec::new();
    if master && file == 0 {
        for k in 0..(spec.nfiles as u64).min(spec.ntasks) as u32 {
            ops.push(IoOp::Open(FileRef::Shared(k)));
            ops.push(IoOp::Read {
                file: FileRef::Shared(k),
                bytes: spec.mb1_bytes(),
                sharers: 1.0,
            });
            ops.push(IoOp::Read {
                file: FileRef::Shared(k),
                bytes: spec.mb2_body_bytes(spec.nblocks()) + TRAILER2_LEN,
                sharers: 1.0,
            });
        }
    }
    ops.push(IoOp::Scatter {
        bytes: 3 * WORD + GEOM_BYTES + 8 * spec.nblocks(),
    });
    ops.push(IoOp::Open(FileRef::Shared(file)));
    ops.extend(allreduce_word());
    ops
}

/// SIONlib parallel write: collective open, every task writes its data,
/// collective close. The data op's `sharers` comes from the real layout.
pub fn sion_par_write(spec: &SimSpec) -> ScriptSet {
    let (bytes, sharers) = (spec.effective_bytes(), spec.sharers());
    multifile_classes(spec, true, move |file| {
        if bytes > 0 {
            vec![IoOp::Write {
                file: FileRef::Shared(file),
                bytes,
                sharers,
            }]
        } else {
            Vec::new()
        }
    })
}

/// SIONlib parallel read of the same multifile.
pub fn sion_par_read(spec: &SimSpec) -> ScriptSet {
    let (bytes, sharers) = (spec.effective_bytes(), spec.sharers());
    multifile_classes(spec, false, move |file| {
        if bytes > 0 {
            vec![IoOp::Read {
                file: FileRef::Shared(file),
                bytes,
                sharers,
            }]
        } else {
            Vec::new()
        }
    })
}

/// SIONlib multifile creation only (open + close without data) — the
/// "SION create files" series of the paper's Fig. 3.
pub fn sion_create(spec: &SimSpec) -> ScriptSet {
    let mut s = *spec;
    s.bytes_per_task = 0;
    multifile_classes(&s, true, |_| Vec::new())
}

/// The multiple-file-parallel baseline: every task creates its own file in
/// one shared directory (Fig. 3 "create files").
pub fn task_local_create(ntasks: u64) -> ScriptSet {
    ScriptSet {
        ntasks,
        classes: vec![ScriptClass {
            count: ntasks,
            ops: vec![IoOp::Create(FileRef::Own)],
        }],
    }
}

/// Opening pre-existing task-local files in parallel (Fig. 3 "open
/// existing files").
pub fn task_local_open(ntasks: u64) -> ScriptSet {
    ScriptSet {
        ntasks,
        classes: vec![ScriptClass {
            count: ntasks,
            ops: vec![IoOp::Open(FileRef::Own)],
        }],
    }
}

/// Task-local-file write: create own file, write the payload.
pub fn task_local_write(ntasks: u64, bytes_per_task: u64, real_fsblk: u64) -> ScriptSet {
    ScriptSet {
        ntasks,
        classes: vec![ScriptClass {
            count: ntasks,
            ops: vec![
                IoOp::Create(FileRef::Own),
                IoOp::Write {
                    file: FileRef::Own,
                    bytes: align_up(bytes_per_task.max(1), real_fsblk),
                    sharers: 1.0,
                },
            ],
        }],
    }
}

/// Task-local-file read: open own file, read the payload.
pub fn task_local_read(ntasks: u64, bytes_per_task: u64, real_fsblk: u64) -> ScriptSet {
    ScriptSet {
        ntasks,
        classes: vec![ScriptClass {
            count: ntasks,
            ops: vec![
                IoOp::Open(FileRef::Own),
                IoOp::Read {
                    file: FileRef::Own,
                    bytes: align_up(bytes_per_task.max(1), real_fsblk),
                    sharers: 1.0,
                },
            ],
        }],
    }
}

/// The single-file-sequential baseline (paper §1; MP2C's original
/// checkpoint path): a designated I/O task gathers all data in
/// buffer-limited rounds and writes it serially to one file.
pub fn single_file_seq_write(ntasks: u64, bytes_per_task: u64, master_buffer: u64) -> ScriptSet {
    let total = ntasks * bytes_per_task;
    let rounds = total.div_ceil(master_buffer).max(1);
    let per_round = bytes_per_task.div_ceil(rounds);
    let mut master = vec![IoOp::Create(FileRef::Shared(0))];
    let mut worker = Vec::new();
    for _ in 0..rounds {
        master.push(IoOp::Gather { bytes: per_round });
        master.push(IoOp::Write {
            file: FileRef::Shared(0),
            bytes: per_round * ntasks,
            sharers: 1.0,
        });
        worker.push(IoOp::Gather { bytes: per_round });
    }
    master.push(IoOp::Barrier);
    worker.push(IoOp::Barrier);
    ScriptSet {
        ntasks,
        classes: vec![
            ScriptClass {
                count: 1,
                ops: master,
            },
            ScriptClass {
                count: ntasks - 1,
                ops: worker,
            },
        ],
    }
}

/// Single-file-sequential read: the designated task reads rounds and
/// scatters them back out.
pub fn single_file_seq_read(ntasks: u64, bytes_per_task: u64, master_buffer: u64) -> ScriptSet {
    let total = ntasks * bytes_per_task;
    let rounds = total.div_ceil(master_buffer).max(1);
    let per_round = bytes_per_task.div_ceil(rounds);
    let mut master = vec![IoOp::Open(FileRef::Shared(0))];
    let mut worker = Vec::new();
    for _ in 0..rounds {
        master.push(IoOp::Read {
            file: FileRef::Shared(0),
            bytes: per_round * ntasks,
            sharers: 1.0,
        });
        master.push(IoOp::Scatter { bytes: per_round });
        worker.push(IoOp::Scatter { bytes: per_round });
    }
    master.push(IoOp::Barrier);
    worker.push(IoOp::Barrier);
    ScriptSet {
        ntasks,
        classes: vec![
            ScriptClass {
                count: 1,
                ops: master,
            },
            ScriptClass {
                count: ntasks - 1,
                ops: worker,
            },
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_generators_validate() {
        let spec = SimSpec::aligned(1024, 16, 8 << 20, 2 << 20);
        for wl in [
            sion_par_write(&spec),
            sion_par_read(&spec),
            sion_create(&spec),
            task_local_create(1024),
            task_local_open(1024),
            task_local_write(1024, 8 << 20, 2 << 20),
            task_local_read(1024, 8 << 20, 2 << 20),
            single_file_seq_write(1024, 8 << 20, 512 << 20),
            single_file_seq_read(1024, 8 << 20, 512 << 20),
        ] {
            wl.validate().expect("generated workload must validate");
        }
    }

    #[test]
    fn aligned_spec_has_no_sharing() {
        let spec = SimSpec::aligned(256, 4, 4 << 20, 2 << 20);
        assert!((spec.sharers() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn table1_spec_shares_heavily() {
        // 16 KiB chunks on a 2 MiB file system: up to 128 tasks per block.
        let spec = SimSpec {
            ntasks: 32768,
            nfiles: 16,
            chunk_req: 16 << 10,
            bytes_per_task: 8 << 20,
            align_unit: 16 << 10,
            real_fsblk: 2 << 20,
        };
        let s = spec.sharers();
        assert!(s > 50.0, "expected heavy sharing, got {s}");
    }

    #[test]
    fn effective_bytes_has_block_floor() {
        // 52 KB of particle data still costs one 2 MiB block (Fig. 6).
        let spec = SimSpec::aligned(1000, 1, 52_000, 2 << 20);
        assert_eq!(spec.effective_bytes(), 2 << 20);
        // Large data rounds to the next block only.
        let spec = SimSpec::aligned(1000, 1, (512 << 20) + 5, 2 << 20);
        assert_eq!(spec.effective_bytes(), (512 << 20) + (2 << 20));
    }

    #[test]
    fn sion_create_issues_nfiles_creates_only() {
        let spec = SimSpec::aligned(4096, 8, 1 << 20, 2 << 20);
        let wl = sion_create(&spec);
        let creates: u64 = wl
            .classes
            .iter()
            .map(|c| {
                c.count
                    * c.ops
                        .iter()
                        .filter(|o| matches!(o, IoOp::Create(_)))
                        .count() as u64
            })
            .sum();
        assert_eq!(creates, 8);
        // Workers open the file instead.
        let opens: u64 = wl
            .classes
            .iter()
            .map(|c| c.count * c.ops.iter().filter(|o| matches!(o, IoOp::Open(_))).count() as u64)
            .sum();
        assert_eq!(opens, 4096 - 8);
    }

    #[test]
    fn task_local_create_issues_one_create_per_task() {
        let wl = task_local_create(65536);
        assert_eq!(wl.ntasks, 65536);
        assert_eq!(wl.classes.len(), 1);
        assert_eq!(wl.classes[0].ops, vec![IoOp::Create(FileRef::Own)]);
    }

    #[test]
    fn single_file_seq_rounds_respect_buffer() {
        // 1000 tasks x 1 MB = 1 GB total with a 256 MB buffer: 4 rounds.
        let wl = single_file_seq_write(1000, 1 << 20, 256 << 20);
        let master = &wl.classes[0];
        let gathers = master
            .ops
            .iter()
            .filter(|o| matches!(o, IoOp::Gather { .. }))
            .count();
        assert_eq!(gathers, 4);
        // Total written equals (rounded-up) total data.
        assert!(wl.total_write_bytes() >= 1000 * (1 << 20));
    }

    #[test]
    fn nblocks_counts_chunk_spill() {
        let spec = SimSpec {
            ntasks: 64,
            nfiles: 1,
            chunk_req: 2 << 20,
            bytes_per_task: 5 << 20,
            align_unit: 2 << 20,
            real_fsblk: 2 << 20,
        };
        assert_eq!(spec.nblocks(), 3); // 5 MiB over 2 MiB chunks
    }
}
