//! `simmpi` — an in-process MPI-subset runtime.
//!
//! The paper's SIONlib "uses MPI for internal metadata exchange". This crate
//! is that substrate for the Rust reproduction: SPMD execution of N tasks,
//! communicators with `split`, the collectives SIONlib needs (barrier,
//! gather(v), scatter(v), broadcast, allgather, reductions) and
//! point-to-point messaging with MPI-style (source, tag) matching for the
//! mini-apps.
//!
//! [`CoComm`] is the one communicator contract the `sion` crate programs
//! against — mirroring how SIONlib is "by design not tied to a specific
//! parallel programming interface". It has one implementation, the
//! tree-collective engine [`TaskComm`]: log-P binomial trees over per-rank
//! mailboxes, with per-rank op/byte counters exposed as [`CommStats`]. Two
//! drivers run it: [`TaskWorld`] with ranks as futures on a work-stealing
//! (or seeded serial) executor, 16Ki–64Ki ranks; [`World`] with one OS
//! thread per rank, each rank's blocking [`Comm`] handle polling the same
//! futures through [`drive_ready`].
//!
//! What the engine must compute is stated once, outside it: the property
//! tests (`tests/properties.rs`) compare both drivers against an executable
//! specification (`tests/spec/mod.rs`) that gives each collective's output
//! on every rank as a pure function of every rank's input.
//!
//! # Example
//!
//! ```
//! use simmpi::World;
//!
//! let sums = World::run(4, |comm| {
//!     let mine = (comm.rank() as u64 + 1).to_le_bytes().to_vec();
//!     let all = comm.allgather(&mine);
//!     all.iter()
//!         .map(|b| u64::from_le_bytes(b[..8].try_into().unwrap()))
//!         .sum::<u64>()
//! });
//! assert_eq!(sums, vec![10, 10, 10, 10]);
//! ```

mod co;
mod comm;
mod hook;
mod sanitize;
mod task;
mod wire;
mod world;

pub use co::{AllGathered, BoxFut, CoComm};
pub use comm::{Comm, CommStats, ReduceOp};
pub use hook::{
    decode_coll_tag, describe_tag, enter_agg_protocol, is_agg_tag, is_reserved_tag,
    simcheck_env_enabled, Aborted, AggProtocolScope, CheckHook, CollKind, CommCtx, HookEvent,
    LeakedMsg, AGG_ACK_TAG_PREFIX, AGG_SHIP_TAG_PREFIX, COLL_TAG_MASK, COLL_TAG_PREFIX,
};
pub use sanitize::{Finding, FindingKind, Sanitizer};
pub use task::{
    DeadlockReport, ParkedOp, SchedPolicy, SchedStats, ScheduleDriver, TaskComm, TaskRun, TaskWorld,
};
pub use world::{drive_ready, World};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn world_runs_all_ranks() {
        let out = World::run(8, |c| (c.rank(), c.size()));
        assert_eq!(out, (0..8).map(|r| (r, 8)).collect::<Vec<_>>());
    }
}
