//! Collective round-count accounting: the packed metadata protocol must
//! cost exactly the constant number of rounds §"Collective round
//! structure" in `par.rs` promises, independent of how many metadata
//! fields move. Asserted per communicator through the runtime's
//! [`CommStats`](simmpi::CommStats) counters, whose handles keep counting
//! after `close()` consumes the writer.

use simmpi::{CoComm, Comm, SchedPolicy, TaskWorld, World};
use sion::{paropen_read, paropen_read_co, paropen_write, paropen_write_co, SionParams};
use vfs::MemFs;

#[test]
fn write_open_and_close_cost_one_gather_each() {
    let fs = MemFs::with_block_size(512);
    let n = 8;
    World::run(n, |comm| {
        let params = SionParams::new(2048).with_nfiles(2);
        let mut w = paropen_write(&fs, "mf.sion", &params, comm).unwrap();

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

        let c = w.close().unwrap();
        assert!(c.stored_bytes >= 3000);

        // Close: ONE packed usage gather + ONE status broadcast on the
        // file group, ONE barrier on the global communicator — nothing
        // else, and no further parent-communicator traffic.
        assert_eq!(lcom.gathers(), 2, "close usage gather");
        assert_eq!(lcom.bcasts(), 2, "close status broadcast");
        assert_eq!(lcom.scatters(), 1);
        assert_eq!(lcom.allgathers(), 0);
        assert_eq!(lcom.barriers(), 0);
        assert_eq!(gcom.barriers(), 1, "close global barrier");
        assert_eq!(gcom.collectives(), 3);
        assert_eq!(parent.collectives(), 3);
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
            (write_parent, wglobal.bytes_sent(), read_parent, rglobal.bytes_sent())
        }
    });
    // A one-word broadcast costs its root one word per tree level; a
    // one-word reduction costs every rank at most one word.
    let word_bcast = 8 * LOG_P;
    for (rank, &(write_parent, wglobal, _, rglobal)) in sent.iter().enumerate() {
        assert!(write_parent <= 2 * word_bcast + 8, "rank {rank}: {write_parent} B on the parent");
        assert!(wglobal <= word_bcast + 8, "rank {rank}: {wglobal} B on the write gcom");
        assert!(rglobal <= word_bcast + 8, "rank {rank}: {rglobal} B on the read gcom");
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
