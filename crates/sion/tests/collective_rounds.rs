//! Collective round-count accounting: the packed metadata protocol must
//! cost exactly the constant number of rounds §"Collective round
//! structure" in `par.rs` promises, independent of how many metadata
//! fields move. Asserted per communicator through the runtime's
//! [`CommStats`](simmpi::CommStats) counters, whose handles keep counting
//! after `close()` consumes the writer. The hand-written `parfs` scripts of
//! `sion::script` are held to the same counts.

use parfs::IoOp;
use simmpi::{drive_ready, CoComm, CommStats, SchedPolicy, TaskWorld, World};
use sion::script::{sion_par_read, sion_par_write, SimSpec};
use sion::{paropen_read, paropen_read_co, paropen_write, paropen_write_co, SionParams};
use vfs::MemFs;

/// Open, write two blocks, close — asserting the per-communicator round
/// counts after the open and after the close.
async fn write_rounds(fs: &MemFs, params: &SionParams, comm: &dyn CoComm) {
    let mut w = paropen_write_co(fs, "mf.sion", params, comm).await.unwrap();

    let lcom = w.local_comm_stats().expect("runtime tracks stats");
    let gcom = w.global_comm_stats().expect("runtime tracks stats");
    let parent = comm.stats().expect("runtime tracks stats");

    // Open: ONE packed metadata gather + ONE status broadcast + ONE
    // geometry scatter on the file-group communicator — nothing else.
    assert_eq!(lcom.gathers(), 1, "open metadata gather");
    assert_eq!(lcom.bcasts(), 1, "open status broadcast");
    assert_eq!(lcom.scatters(), 1, "open geometry scatter");
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
    // The parent communicator pays the agreement round — rank 0's
    // fingerprint down, the verdict allreduce — and no exchanged split:
    // the file groups form locally.
    assert_eq!(parent.splits(), 0);
    assert_eq!(parent.bcasts(), 2, "fingerprint + verdict broadcasts");
    assert_eq!(parent.reduces(), 1, "verdict reduction");
    assert_eq!(parent.collectives(), 3);

    // Touch two blocks so close gathers a non-trivial usage vector.
    w.write(&vec![comm.rank() as u8; 3000]).unwrap();

    let c = w.close_co().await.unwrap();
    assert!(c.stored_bytes >= 3000);

    // Close: ONE packed usage gather + ONE status broadcast on the
    // file group, ONE barrier on the global communicator — nothing
    // else, and no further parent-communicator traffic.
    assert_eq!(lcom.gathers(), 2, "close usage gather");
    assert_eq!(lcom.bcasts(), 2, "close status broadcast");
    assert_eq!(lcom.scatters(), 1);
    assert_eq!(lcom.allgathers(), 0);
    assert_eq!(lcom.barriers(), 0);
    assert_eq!(lcom.collectives(), 5);
    assert_eq!(gcom.barriers(), 1, "close global barrier");
    assert_eq!(gcom.collectives(), 3);
    assert_eq!(parent.collectives(), 3);
}

/// The round structure is the same constant at every group size: an 8-task
/// world in two file groups on the thread runtime, and a single 600-task
/// file group on the task runtime.
#[test]
fn write_open_and_close_cost_one_gather_each() {
    let fs = MemFs::with_block_size(512);
    let params = SionParams::new(2048).with_nfiles(2);
    World::run(8, |comm| drive_ready(write_rounds(&fs, &params, comm.co())));

    let fs = MemFs::with_block_size(512);
    let params = SionParams::new(2048);
    TaskWorld::run(600, |c| {
        let (fs, params) = (&fs, &params);
        async move { write_rounds(fs, params, &c).await }
    });
}

#[test]
fn read_open_costs_one_scatter_on_the_parent() {
    let fs = MemFs::with_block_size(512);
    let n = 6;
    World::run(n, |comm| {
        let params = SionParams::new(1024).with_nfiles(3);
        let mut w = paropen_write(&fs, "r.sion", &params, comm).unwrap();
        w.write(b"payload").unwrap();
        w.close().unwrap();

        let before = comm.stats().expect("runtime tracks stats").collectives();
        let r = paropen_read(&fs, "r.sion", comm).unwrap();
        let parent = comm.stats().expect("runtime tracks stats");

        // Read open on the parent communicator: ONE scatter handing each
        // task its status and place, and no exchanged split.
        assert_eq!(parent.scatters(), 1, "discovery scatter");
        assert_eq!(parent.splits(), 0);
        assert_eq!(parent.collectives() - before, 1);

        // File group: ONE status broadcast + ONE geometry scatter.
        let lcom = r.local_comm_stats().expect("runtime tracks stats");
        assert_eq!(lcom.bcasts(), 1);
        assert_eq!(lcom.scatters(), 1);
        assert_eq!(lcom.gathers(), 0);
        // Global duplicate: ONE failure-agreement allreduce.
        let gcom = r.global_comm_stats().expect("runtime tracks stats");
        assert_eq!(gcom.reduces(), 1);
        assert_eq!(gcom.bcasts(), 1);
        assert_eq!(gcom.allgathers(), 0);

        r.close().unwrap();
        assert_eq!(gcom.barriers(), 1);
    });
}

/// No payload that grows with the number of tasks crosses the caller's or
/// the global communicator: per rank, open and close send a few words per
/// tree level there. At 256 ranks a single P-word frame (2 KiB) would
/// break every bound below.
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
            let parent = c.stats().expect("runtime tracks stats");
            let mut w = paropen_write_co(fs, "log.sion", params, &c).await.unwrap();
            let wglobal = w.global_comm_stats().expect("runtime tracks stats");
            w.write(&[c.rank() as u8; 100]).unwrap();
            w.close_co().await.unwrap();
            let write_parent = parent.bytes_sent();

            let r = paropen_read_co(fs, "log.sion", &c).await.unwrap();
            let rglobal = r.global_comm_stats().expect("runtime tracks stats");
            r.close_co().await.unwrap();
            let read_parent = parent.bytes_sent() - write_parent;
            (
                write_parent,
                wglobal.bytes_sent(),
                read_parent,
                rglobal.bytes_sent(),
            )
        }
    });
    // A one-word broadcast costs its root one word per tree level; a
    // one-word reduction costs every rank at most one word.
    let word_bcast = 8 * LOG_P;
    for (rank, &(write_parent, wglobal, _, rglobal)) in sent.iter().enumerate() {
        assert!(
            write_parent <= 2 * word_bcast + 8,
            "rank {rank}: {write_parent} B on the parent"
        );
        assert!(
            wglobal <= word_bcast + 8,
            "rank {rank}: {wglobal} B on the write gcom"
        );
        assert!(
            rglobal <= word_bcast + 8,
            "rank {rank}: {rglobal} B on the read gcom"
        );
    }
    // The read open's one scatter moves each task's 4-word part (framed:
    // 16 B of id and length) down at most log P tree levels, half the
    // parts per level, plus an 8-byte count per message.
    let scatter_total: u64 = sent.iter().map(|s| s.2).sum();
    assert!(
        scatter_total <= (P as u64 / 2) * LOG_P * (32 + 16) + 8 * P as u64,
        "read-open scatter moved {scatter_total} B in total"
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
    let runs = World::run(8, |comm| {
        let parent = comm.stats().expect("runtime tracks stats");
        let mut w = paropen_write(&fs, "s.sion", &params, comm).unwrap();
        let (lcom, gcom) = (
            w.local_comm_stats().unwrap(),
            w.global_comm_stats().unwrap(),
        );
        w.write(&vec![comm.rank() as u8; 3000]).unwrap();
        w.close().unwrap();
        let write = executed(&[&parent, &lcom, &gcom]);

        let before = executed(&[&parent]);
        let r = paropen_read(&fs, "s.sion", comm).unwrap();
        let (lcom, gcom) = (
            r.local_comm_stats().unwrap(),
            r.global_comm_stats().unwrap(),
        );
        r.close().unwrap();
        let after = executed(&[&parent, &lcom, &gcom]);
        (write, std::array::from_fn(|i| after[i] - before[i]))
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
