//! `simmpi` — an in-process MPI-subset runtime.
//!
//! The paper's SIONlib "uses MPI for internal metadata exchange". This crate
//! is that substrate for the Rust reproduction: SPMD execution of N tasks,
//! communicators with `split`, the collectives SIONlib needs (barrier,
//! gather(v), scatter(v), broadcast, allgather, reductions) and
//! point-to-point messaging with MPI-style (source, tag) matching for the
//! mini-apps.
//!
//! [`CoComm`] is the one communicator the `sion` crate programs against —
//! SIONlib is "by design not tied to a specific parallel programming
//! interface", and here the interface is this one concrete type, not a
//! trait: the tree-collective engine, log-P binomial trees over per-rank
//! mailboxes, with per-rank op/byte counters exposed as [`CommStats`]. Its
//! waiting operations return concrete, unboxed futures. One
//! driver runs it: [`TaskWorld`], with ranks as futures on a work-stealing
//! (or seeded serial) executor, from one rank to 64Ki and beyond. A rank
//! that waits for a peer suspends its task, never a thread.
//!
//! What the engine must compute is stated once, outside it: the property
//! tests (`tests/properties.rs`) run the engine under work stealing and
//! under seeded serial schedules against an executable specification
//! (`tests/spec/mod.rs`) that gives each collective's output on every rank
//! as a pure function of every rank's input.
//!
//! # Example
//!
//! ```
//! use simmpi::TaskWorld;
//!
//! let sums = TaskWorld::run(4, |comm| async move {
//!     let mine = (comm.rank() as u64 + 1).to_le_bytes().to_vec();
//!     let all = comm.allgather(&mine).await;
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

pub use co::{drive_ready, AllGathered};
pub use comm::{CommStats, ReduceOp};
pub use hook::{
    decode_coll_tag, describe_tag, enter_agg_protocol, is_agg_tag, is_reserved_tag,
    simcheck_env_enabled, Aborted, AggProtocolScope, CheckHook, CollKind, CommCtx, HookEvent,
    LeakedMsg, AGG_ACK_TAG_PREFIX, AGG_SHIP_TAG_PREFIX, COLL_TAG_MASK, COLL_TAG_PREFIX,
};
pub use sanitize::{Finding, FindingKind, RunFailure, Sanitizer};
pub use task::{
    CoComm, DeadlockReport, ParkedOp, SchedPolicy, SchedStats, ScheduleDriver, TaskRun, TaskWorld,
};
