//! `simcheck` — deterministic model checking and runtime sanitizers for
//! the `simmpi`/`sion` stack.
//!
//! Parallel SIONlib code has three classic failure classes, all mapped to
//! invariants of the SC'09 paper:
//!
//! * **protocol bugs** — mismatched collectives (one rank calls `bcast`
//!   while another calls `barrier`, or roots disagree), user point-to-point
//!   sends into the reserved collective tag namespace, and messages still
//!   sitting in a mailbox at teardown (§3.1 requires the metadata exchange
//!   to be deadlock- and mismatch-free);
//! * **deadlocks** — every rank blocked in a receive that nothing will
//!   satisfy;
//! * **layout bugs** — two tasks writing into the same filesystem block
//!   during a parallel SION write, violating the §3.2 alignment invariant
//!   that makes lock-free parallel writes safe.
//!
//! This crate provides two ways to catch them:
//!
//! 1. **[`CheckedTaskWorld`]** — the schedule-exploring harness. It runs
//!    a `simmpi` program as rank tasks on the serial task executor, which
//!    polls one rank at a time and chooses the next from a seeded,
//!    preemption-bounded stream ([`ScheduleCfg::Seeded`]) or lets the
//!    [`dpor`] explorer enumerate every inequivalent order
//!    ([`ScheduleCfg::Dpor`]). Failures come back as a [`CheckFailure`]
//!    carrying the findings, the exact whole-world deadlock verdict (each
//!    parked rank's pending receive: communicator, source, decoded tag),
//!    and the full decision trace; re-running the same [`ScheduleCfg`]
//!    replays the failure with a byte-identical
//!    [`CheckFailure::stable_report`]. Sweep the space with
//!    [`CheckedTaskWorld::explore`] over [`schedules`]. Interleaving
//!    control lives in the executor only: hooks observe, they never park
//!    a rank.
//!
//! 2. **`SIMCHECK=1`** — zero-code-change passive mode. With the
//!    environment variable set, `TaskWorld::run` installs a [`Sanitizer`]
//!    that performs the same collective/tag/leak checks under work
//!    stealing. Production runs without the variable pay one `Option`
//!    branch per operation.
//!
//! Both modes reach one verdict: `simmpi`'s `TaskRun::verdict` classifies
//! a finished run's per-rank outcomes and builds the deadlock finding from
//! the executor's [`DeadlockReport`](simmpi::DeadlockReport). `SIMCHECK=1`
//! raises it; a [`CheckFailure`] is it under its [`ScheduleCfg`].
//!
//! Every checker is a [`CheckHook`] (several share a run as a
//! `Vec<Arc<dyn CheckHook>>`), and ordering comes from one place, [`hb`]'s
//! vector-clock core: the [`HbEngine`] race checker makes each event an
//! epoch, the [`dpor`] recorder each scheduled step, and both judge file
//! extents by one rule, [`FileAccess::conflicts`].
//!
//! The filesystem-level check is independent of both: list a
//! [`BlockGuard`] in the [`TapFs`] around any [`vfs::Vfs`] and every FS
//! block that two different labeled tasks write is reported as a
//! [`BlockViolation`] ([`BlockGuard::assert_exclusive`] panics with the
//! sorted list).
//! The runtime labels each rank's writes: the task executor sets
//! [`vfs::guard`]'s label to the world rank it polls, the one task
//! identity the block guard and the [`HbEngine`] both read.
//!
//! All diagnostics are deterministic — stable rank ordering, no hash-map
//! iteration — so failing reports can be golden-file tested.

pub mod dpor;
pub mod hb;
mod report;
mod sched;

pub use dpor::{Dpor, DporOutcome};
pub use hb::HbEngine;
pub use report::{CheckFailure, ScheduleCfg};
pub use sched::{schedules, seed_budget, CheckedTaskWorld};

pub use simmpi::{
    decode_coll_tag, describe_tag, is_agg_tag, is_reserved_tag, simcheck_env_enabled, Aborted,
    CheckHook, CollKind, CommCtx, Finding, FindingKind, LeakedMsg, Sanitizer, AGG_ACK_TAG_PREFIX,
    AGG_SHIP_TAG_PREFIX, COLL_TAG_MASK, COLL_TAG_PREFIX,
};
pub use vfs::{AccessKind, AccessSink, BlockGuard, BlockViolation, FileAccess, Tap, TapFs};
