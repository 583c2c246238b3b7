//! Collective round-count accounting: the packed metadata protocol must
//! cost exactly the constant number of rounds §"Collective round
//! structure" in `par.rs` promises, independent of how many metadata
//! fields move. Asserted per communicator through the runtime's
//! [`CommStats`](simmpi::CommStats) counters, whose handles keep counting
//! after `close()` consumes the writer. The hand-written `parfs` scripts of
//! `sion::script` are held to the same counts.

use parfs::IoOp;
use simmpi::{CoComm, CommStats, SchedPolicy, TaskWorld};
use sion::script::{sion_par_read, sion_par_write, SimSpec};
use sion::{paropen_read_co, paropen_write_co, SionParams};
use vfs::MemFs;

/// Open, write two blocks, close — asserting the per-communicator round
/// counts after the open and after the close.
async fn write_rounds(fs: &MemFs, params: &SionParams, comm: &CoComm) {
    let mut w = paropen_write_co(fs, "mf.sion", params, comm).await.unwrap();

    let lcom = w.local_comm_stats().expect("runtime tracks stats");
    let gcom = w.global_comm_stats().expect("runtime tracks stats");
    let parent = comm.stats();

    // Open, every task asking for the same chunk size: ONE broadcast of the
    // master's status word on the file-group communicator — nothing else.
    // Each task computes its geometry; nobody gathers or scatters it.
    assert_eq!(lcom.gathers(), 0, "no request gather");
    assert_eq!(lcom.bcasts(), 1, "the master's status word");
    assert_eq!(lcom.scatters(), 0, "no geometry scatter");
    assert_eq!(lcom.allgathers(), 0);
    assert_eq!(lcom.barriers(), 0);
    assert_eq!(lcom.reduces(), 0);
    // ONE global allreduce of the failed flag (a reduction and a
    // broadcast of one word) on the duplicated global communicator.
    assert_eq!(gcom.reduces(), 1, "open failure agreement, up");
    assert_eq!(gcom.bcasts(), 1, "open failure agreement, down");
    assert_eq!(gcom.allgathers(), 0);
    assert_eq!(gcom.barriers(), 0);
    assert_eq!(gcom.gathers(), 0);
    // The parent communicator pays the agreement round — every task's
    // words reduced, rank 0's verdict broadcast — and no exchanged split:
    // the file groups form locally.
    assert_eq!(parent.splits(), 0);
    assert_eq!(parent.bcasts(), 1, "verdict broadcast");
    assert_eq!(parent.reduces(), 1, "agreement reduction");
    assert_eq!(parent.collectives(), 2);

    // Touch two blocks so close gathers a non-trivial usage vector.
    w.write(&vec![comm.rank() as u8; 3000]).unwrap();

    let c = w.close_co().await.unwrap();
    assert!(c.stored_bytes >= 3000);

    // Close: ONE packed usage gather on the file group, ONE allreduce of
    // the failed flag on the global communicator — nothing else, and no
    // further parent-communicator traffic.
    assert_eq!(lcom.gathers(), 1, "close usage gather");
    assert_eq!(lcom.bcasts(), 1);
    assert_eq!(lcom.scatters(), 0);
    assert_eq!(lcom.allgathers(), 0);
    assert_eq!(lcom.barriers(), 0);
    assert_eq!(lcom.collectives(), 2);
    assert_eq!(gcom.reduces(), 2, "close failure agreement, up");
    assert_eq!(gcom.bcasts(), 2, "close failure agreement, down");
    assert_eq!(gcom.barriers(), 0);
    assert_eq!(gcom.collectives(), 4);
    assert_eq!(parent.collectives(), 2);
}

/// The round structure is the same constant at every group size: an 8-task
/// world in two file groups, and a single 600-task file group.
#[test]
fn write_open_and_close_cost_one_gather_each() {
    let fs = MemFs::with_block_size(512);
    let params = SionParams::new(2048).with_nfiles(2);
    TaskWorld::run(8, |comm| {
        let fs = &fs;
        let params = &params;
        async move { write_rounds(fs, params, &comm).await }
    });

    let fs = MemFs::with_block_size(512);
    let params = SionParams::new(2048);
    TaskWorld::run(600, |c| {
        let (fs, params) = (&fs, &params);
        async move { write_rounds(fs, params, &c).await }
    });
}

/// Where the requests differ — here only rank `odd` asks for another
/// chunk size — the open takes the ragged path: ONE request gather and ONE
/// geometry scatter on the file group, no status broadcast, and the parent
/// and global rounds of the uniform open. The bytes are `SerialWriter`'s.
#[test]
fn a_ragged_open_gathers_and_scatters_the_geometry() {
    let stream = |rank: usize| vec![rank as u8 + 1; 700 + 300 * rank];
    for (ntasks, odd) in [(4, 3), (4, 2), (8, 7)] {
        let req = |rank: usize| if rank == odd { 1000 } else { 600 };
        let params = SionParams::new(0).with_nfiles(2);
        let fs = MemFs::with_block_size(512);
        TaskWorld::run(ntasks, |comm| {
            let fs = &fs;
            let params = &params;
            async move {
                let params = SionParams {
                    chunksize: req(comm.rank()),
                    ..params.clone()
                };
                let parent = comm.stats();
                let mut w = paropen_write_co(fs, "rag.sion", &params, &comm)
                    .await
                    .unwrap();
                let lcom = w.local_comm_stats().expect("runtime tracks stats");
                let gcom = w.global_comm_stats().expect("runtime tracks stats");
                assert_eq!(
                    [
                        lcom.gathers(),
                        lcom.scatters(),
                        lcom.bcasts(),
                        lcom.collectives()
                    ],
                    [1, 1, 0, 2],
                    "ragged open on the file group: [gathers, scatters, bcasts, all]"
                );
                assert_eq!(
                    [gcom.reduces(), gcom.bcasts(), gcom.collectives()],
                    [1, 1, 2]
                );
                assert_eq!(
                    [parent.reduces(), parent.bcasts(), parent.collectives()],
                    [1, 1, 2]
                );
                w.write(&stream(comm.rank())).unwrap();
                w.close_co().await.unwrap();
            }
        });

        let serial = MemFs::with_block_size(512);
        let reqs: Vec<u64> = (0..ntasks).map(req).collect();
        let mut w = sion::SerialWriter::create(&serial, "rag.sion", &reqs, &params).unwrap();
        for rank in 0..ntasks {
            w.select_rank(rank).unwrap();
            w.write(&stream(rank)).unwrap();
        }
        w.close().unwrap();
        for file in 0..2 {
            let name = sion::physical_name("rag.sion", file);
            assert_eq!(
                contents(&fs, &name),
                contents(&serial, &name),
                "{ntasks} ranks, rank {odd} ragged: {name}"
            );
        }
    }
}

/// The bytes of one physical file.
fn contents(fs: &MemFs, path: &str) -> Vec<u8> {
    use vfs::Vfs;
    let f = fs.open(path).unwrap();
    let mut buf = vec![0u8; f.len().unwrap() as usize];
    f.read_exact_at(&mut buf, 0).unwrap();
    buf
}

/// Write a small multifile, then read-open and close it, asserting what the
/// read side costs on the parent communicator — it owns no other.
async fn read_rounds(fs: &MemFs, params: &SionParams, comm: &CoComm) {
    let w = paropen_write_co(fs, "r.sion", params, comm).await.unwrap();
    w.close_co().await.unwrap();

    let parent = comm.stats();
    let count = || {
        [
            parent.scatters(),
            parent.reduces(),
            parent.bcasts(),
            parent.splits(),
            parent.collectives(),
        ]
    };
    let before = count();
    let r = paropen_read_co(fs, "r.sion", comm).await.unwrap();
    let open: Vec<u64> = count().iter().zip(before).map(|(a, b)| a - b).collect();
    // ONE scatter of each task's whole part, ONE allreduce of the failed
    // flag (a reduction and a broadcast of one word), no split.
    assert_eq!(
        open,
        [1, 1, 1, 0, 3],
        "[scatters, reduces, bcasts, splits, all]"
    );

    // The close is local.
    let after_open = count();
    r.close_co().await.unwrap();
    assert_eq!(count(), after_open, "read close");
}

#[test]
fn read_open_costs_one_scatter_on_the_parent() {
    let fs = MemFs::with_block_size(512);
    let params = SionParams::new(1024).with_nfiles(3);
    TaskWorld::run(6, |comm| {
        let fs = &fs;
        let params = &params;
        async move { read_rounds(fs, params, &comm).await }
    });
}

/// The read twin of `write_open_and_close_cost_one_gather_each`: the same
/// counts in an 8-task world of two files and in a single 600-task file.
#[test]
fn read_open_costs_the_same_at_every_group_size() {
    let fs = MemFs::with_block_size(512);
    let params = SionParams::new(2048).with_nfiles(2);
    TaskWorld::run(8, |comm| {
        let fs = &fs;
        let params = &params;
        async move { read_rounds(fs, params, &comm).await }
    });

    let fs = MemFs::with_block_size(512);
    let params = SionParams::new(2048);
    TaskWorld::run(600, |c| {
        let (fs, params) = (&fs, &params);
        async move { read_rounds(fs, params, &c).await }
    });
}

/// No payload that grows with the number of tasks crosses the caller's or
/// the global communicator, save the read open's scatter of each task's own
/// part: per rank, the rest of open and close sends a few words per tree
/// level. At 256 ranks a single P-word frame (2 KiB) would break every
/// bound below.
#[test]
fn parent_and_global_traffic_stays_logarithmic_per_rank() {
    const P: usize = 256;
    const LOG_P: u64 = 8;
    let fs = MemFs::with_block_size(512);
    let params = SionParams::new(512).with_nfiles(4);
    let policy = SchedPolicy::WorkSteal { workers: 4 };
    let (sent, _) = TaskWorld::run_with(policy, P, |c| {
        let (fs, params) = (&fs, &params);
        async move {
            let parent = c.stats();
            let mut w = paropen_write_co(fs, "log.sion", params, &c).await.unwrap();
            let wglobal = w.global_comm_stats().expect("runtime tracks stats");
            w.write(&[c.rank() as u8; 100]).unwrap();
            w.close_co().await.unwrap();
            let write_parent = parent.bytes_sent();

            let r = paropen_read_co(fs, "log.sion", &c).await.unwrap();
            r.close_co().await.unwrap();
            let read_parent = parent.bytes_sent() - write_parent;
            (write_parent, wglobal.bytes_sent(), read_parent)
        }
    });
    // A one-word broadcast costs its root one word per tree level; a
    // reduction costs every rank at most one partial result, five words
    // for the write open's agreement.
    let word_bcast = 8 * LOG_P;
    // A read-open part is [status, flags, file], 7 geometry words and a
    // one-block usage row, framed with 16 B of id and length.
    let part = 8 * (10 + 1) + 16;
    for (rank, &(write_parent, wglobal, read_parent)) in sent.iter().enumerate() {
        assert!(
            write_parent <= word_bcast + 5 * 8,
            "rank {rank}: {write_parent} B on the parent"
        );
        // Two one-word allreduces: the open's and the close's.
        assert!(
            wglobal <= 2 * (word_bcast + 8),
            "rank {rank}: {wglobal} B on the write gcom"
        );
        // The binomial scatter tree: rank r holds the parts of its subtree,
        // lsb(r) ranks (all P at the root), and forwards all but its own in
        // one message per level below it, each with an 8-byte count.
        let held = if rank == 0 {
            P
        } else {
            rank & rank.wrapping_neg()
        } as u64;
        let forwarded = (held - 1) * part + 8 * held.ilog2() as u64;
        assert!(
            read_parent <= forwarded + word_bcast + 8,
            "rank {rank}: {read_parent} B on the parent at the read open"
        );
    }
    // In all, the one scatter moves each part down at most log P tree
    // levels, half the parts per level, plus a count per message; the
    // allreduce one word up and one down per tree edge.
    let read_total: u64 = sent.iter().map(|s| s.2).sum();
    assert!(
        read_total <= (P as u64 / 2) * LOG_P * part + 8 * P as u64 + 16 * P as u64,
        "the read open moved {read_total} B in total"
    );
}

/// `[gathers, bcasts, scatters, barriers]` one rank executed, summed over its
/// communicators. A reduction is what the `parfs` scripts spell as a gather.
fn executed(comms: &[&CommStats]) -> [u64; 4] {
    let sum = |pick: fn(&CommStats) -> u64| comms.iter().map(|c| pick(c)).sum::<u64>();
    assert_eq!(
        sum(|c| c.allgathers() + c.splits()),
        0,
        "nothing the scripts cannot say"
    );
    [
        sum(|c| c.gathers() + c.reduces()),
        sum(CommStats::bcasts),
        sum(CommStats::scatters),
        sum(CommStats::barriers),
    ]
}

/// The same four counts of a scripted op list.
fn scripted(ops: &[IoOp]) -> [u64; 4] {
    let count = |pick: fn(&IoOp) -> bool| ops.iter().filter(|o| pick(o)).count() as u64;
    [
        count(|o| matches!(o, IoOp::Gather { .. })),
        count(|o| matches!(o, IoOp::Bcast { .. })),
        count(|o| matches!(o, IoOp::Scatter { .. })),
        count(|o| matches!(o, IoOp::Barrier)),
    ]
}

/// `sion::script` writes the protocol's collectives by hand for the timing
/// simulator: every task class must issue as many of each kind as a rank of
/// an executed run counts.
#[test]
fn scripted_collectives_match_an_executed_run() {
    let fs = MemFs::with_block_size(512);
    let params = SionParams::new(2048).with_nfiles(2);
    let runs = TaskWorld::run(8, |comm| {
        let fs = &fs;
        let params = &params;
        async move {
            let parent = comm.stats();
            let mut w = paropen_write_co(fs, "s.sion", params, &comm).await.unwrap();
            let (lcom, gcom) = (
                w.local_comm_stats().unwrap(),
                w.global_comm_stats().unwrap(),
            );
            w.write(&vec![comm.rank() as u8; 3000]).unwrap();
            w.close_co().await.unwrap();
            let write = executed(&[&parent, &lcom, &gcom]);

            let before = executed(&[&parent]);
            let r = paropen_read_co(fs, "s.sion", &comm).await.unwrap();
            r.close_co().await.unwrap();
            let after = executed(&[&parent]);
            (write, std::array::from_fn(|i| after[i] - before[i]))
        }
    });
    let spec = SimSpec::aligned(8, 2, 3000, 512);
    let (write, read) = (sion_par_write(&spec), sion_par_read(&spec));
    assert_eq!(
        write.classes.len(),
        4,
        "a master and a worker class per file"
    );
    for (rank, (w, r)) in runs.iter().enumerate() {
        for class in &write.classes {
            assert_eq!(scripted(&class.ops), *w, "write, rank {rank}");
        }
        for class in &read.classes {
            assert_eq!(scripted(&class.ops), *r, "read, rank {rank}");
        }
    }
}
