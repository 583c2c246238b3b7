//! The schedule-exploring harness.
//!
//! [`CheckedTaskWorld::run`] executes a `simmpi` program as rank tasks on
//! the serial task executor, which owns the interleaving: it polls exactly
//! one rank at a time and chooses the next from the runnable set, so the
//! whole run is a pure function of [`ScheduleCfg`] and the program.
//!
//! * **seeded choice, bounded preemption** — [`ScheduleCfg::Seeded`] maps
//!   to [`simmpi::SchedPolicy::Serial`]: a seeded stream picks among the
//!   runnable ranks, and at most `preemption_bound` decisions may switch
//!   away from a rank that could have continued. Sweeping seeds at small
//!   bounds ([`schedules`]) covers the orderings most likely to expose
//!   protocol bugs;
//! * **systematic exploration** — [`ScheduleCfg::Dpor`] hands every
//!   decision to the [`crate::dpor`] explorer through a
//!   [`simmpi::ScheduleDriver`];
//! * **exact deadlock verdict** — a receive that nothing will satisfy never
//!   wakes, so "every live rank parked, none runnable" is the executor's
//!   quiescence count, not a watchdog; each parked rank's pending receive
//!   (communicator, source, decoded tag) comes from the engine's pending
//!   table;
//! * **replay** — re-running the same program under the failing
//!   [`ScheduleCfg`] reproduces the identical decision trace and the
//!   byte-identical [`stable_report`](crate::CheckFailure::stable_report).
//!
//! Protocol checks (collective matching, reserved tags, teardown leaks) are
//! the same passive [`Sanitizer`] the `SIMCHECK=1` env mode installs on a
//! work-stealing run, so diagnoses read the same everywhere.

use crate::report::{CheckFailure, ScheduleCfg};
use simmpi::Sanitizer;
use std::sync::Arc;

/// Launcher executing `simmpi` programs, written as rank tasks for
/// [`simmpi::TaskWorld`], under explored schedules — the one harness for
/// seeded and systematic ([`ScheduleCfg::Dpor`]) exploration alike.
pub struct CheckedTaskWorld;

impl CheckedTaskWorld {
    /// Run `f` as an `ntasks` task world under the schedule defined by
    /// `cfg` (seed + preemption bound, both honored by the serial policy).
    /// On success returns per-rank results; on any finding returns the
    /// [`CheckFailure`], replayable by re-running with the same `cfg`.
    pub fn run<T, F, Fut>(
        ntasks: usize,
        cfg: ScheduleCfg,
        f: F,
    ) -> Result<Vec<T>, Box<CheckFailure>>
    where
        T: Send,
        F: Fn(simmpi::CoComm) -> Fut,
        Fut: std::future::Future<Output = T> + Send,
    {
        match cfg {
            ScheduleCfg::Seeded {
                seed,
                preemption_bound,
            } => {
                let san = Arc::new(Sanitizer::new());
                let policy = simmpi::SchedPolicy::Serial {
                    seed,
                    preemption_bound,
                };
                simmpi::TaskWorld::run_checked(policy, ntasks, san.clone(), f)
                    .verdict(Some(&san))
                    .map_err(|failure| CheckFailure::new(cfg, failure))
            }
            ScheduleCfg::Dpor => {
                let mut vals = None;
                let outcome = crate::dpor::Dpor::default()
                    .explore(|h| h.run_sanitized(ntasks, &f, &mut vals));
                match outcome.failure {
                    Some(e) => Err(e),
                    None => Ok(vals.expect("dpor explores at least one schedule")),
                }
            }
        }
    }

    /// Run `f` once per configuration, stopping at the first failure (whose
    /// [`CheckFailure::cfg`] replays it). Returns the number of schedules
    /// explored.
    pub fn explore<T, F, Fut>(
        ntasks: usize,
        cfgs: impl IntoIterator<Item = ScheduleCfg>,
        f: F,
    ) -> Result<usize, Box<CheckFailure>>
    where
        T: Send,
        F: Fn(simmpi::CoComm) -> Fut,
        Fut: std::future::Future<Output = T> + Send,
    {
        let mut explored = 0;
        for cfg in cfgs {
            Self::run(ntasks, cfg, &f)?;
            explored += 1;
        }
        Ok(explored)
    }
}

/// The standard schedule sweep: `seeds` seeds at each preemption bound
/// (iterative context bounding — low bounds first, where most concurrency
/// bugs live).
pub fn schedules(seeds: u64, bounds: &[usize]) -> Vec<ScheduleCfg> {
    let mut out = Vec::new();
    for &preemption_bound in bounds {
        for seed in 0..seeds {
            out.push(ScheduleCfg::Seeded {
                seed,
                preemption_bound,
            });
        }
    }
    out
}

/// Seed budget for exploration sweeps: `SIMCHECK_SEEDS` in the environment
/// (CI's `--quick` budget sets it low), default 16. Panics on a value that
/// is zero or not a number — a sweep over no seeds passes having explored
/// nothing.
pub fn seed_budget() -> u64 {
    let var = std::env::var("SIMCHECK_SEEDS").ok();
    parse_seed_budget(var.as_deref()).unwrap_or_else(|e| panic!("{e}"))
}

fn parse_seed_budget(var: Option<&str>) -> Result<u64, String> {
    match var.map(str::parse::<u64>) {
        None => Ok(16),
        Some(Ok(n)) if n > 0 => Ok(n),
        _ => Err(format!(
            "SIMCHECK_SEEDS={:?}: expected a positive seed count",
            var.unwrap_or_default()
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::parse_seed_budget;

    #[test]
    fn seed_budget_rejects_what_would_make_a_sweep_vacuous() {
        assert_eq!(parse_seed_budget(None), Ok(16));
        assert_eq!(parse_seed_budget(Some("4")), Ok(4));
        for bad in ["0", "4x", "4 ", ""] {
            let err = parse_seed_budget(Some(bad)).expect_err(bad);
            assert!(
                err.contains("SIMCHECK_SEEDS") && err.contains(&format!("{bad:?}")),
                "{err}"
            );
        }
    }
}
