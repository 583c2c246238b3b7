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
//! parallel programming interface". There is one tree-collective engine,
//! two drivers of it, and one independent reference:
//!
//! * [`TaskComm`] — the engine: log-P binomial trees over per-rank
//!   mailboxes, with per-rank op/byte counters exposed as [`CommStats`].
//!   [`TaskWorld`] drives it with ranks as futures on a work-stealing
//!   executor (16Ki–64Ki ranks); [`World`] drives it with one OS thread per
//!   rank, each rank's blocking [`Comm`] handle polling the same futures
//!   through [`drive_ready`].
//! * The flat oracle — the original O(P) slot-and-barrier collectives,
//!   sharing no collective code with the engine; kept only as the
//!   reference the property tests compare the engine against, and reached
//!   only through [`FlatWorld`].
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
mod flat;
mod hook;
mod sanitize;
mod task;
mod wire;
mod world;

pub use co::{AllGathered, BoxFut, CoComm};
pub use comm::{Comm, CommStats, ReduceOp};
pub use flat::FlatWorld;
pub use hook::{
    current_task, decode_coll_tag, describe_tag, enter_agg_protocol, is_agg_tag, is_reserved_tag,
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
