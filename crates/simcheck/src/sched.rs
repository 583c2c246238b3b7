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
//! the same passive [`Sanitizer`] the `SIMCHECK=1` env mode installs on the
//! thread driver, so diagnoses read the same everywhere.

use crate::report::{CheckFailure, DeadlockInfo, PendingOp, ScheduleCfg, TraceEv};
use simmpi::Aborted;
use simmpi::{Finding, FindingKind, Sanitizer};
use std::sync::Arc;

fn panic_message(p: &(dyn std::any::Any + Send)) -> String {
    p.downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| p.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "<non-string panic payload>".to_string())
}

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
        F: Fn(simmpi::TaskComm) -> Fut,
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
                let run = simmpi::TaskWorld::run_checked(policy, ntasks, san.clone(), f);
                digest_task_run(ntasks, cfg, &san, run)
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
        F: Fn(simmpi::TaskComm) -> Fut,
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

/// Turn a finished task-runtime run into the checked verdict: sanitizer
/// findings + deadlock verdict + per-rank panics, or the per-rank values
/// when clean. Shared by the seeded path, the DPOR explorer, and DPOR
/// replay; for [`ScheduleCfg::Dpor`] the decision trace doubles as the
/// replay [`CheckFailure::schedule`].
pub(crate) fn digest_task_run<T: Send>(
    ntasks: usize,
    cfg: ScheduleCfg,
    san: &Sanitizer,
    run: simmpi::TaskRun<T>,
) -> Result<Vec<T>, Box<CheckFailure>> {
    let deadlock = run.deadlock.map(|d| {
        san.record_deadlock(format!(
            "whole-world deadlock: {} task(s) parked with no runnable peer",
            d.parked.len()
        ));
        DeadlockInfo {
            pending: d
                .parked
                .into_iter()
                .map(|p| PendingOp {
                    task: p.world_rank,
                    comm: p.comm,
                    op: p.op,
                })
                .collect(),
        }
    });
    let mut findings = san.findings();
    let mut vals = Vec::new();
    for (rank, r) in run.results.into_iter().enumerate() {
        match r {
            Ok(v) => vals.push(v),
            Err(p) if p.is::<Aborted>() => {}
            Err(p) => {
                let msg = panic_message(p.as_ref());
                if !msg.starts_with("simcheck:") {
                    findings.push(Finding {
                        kind: FindingKind::Panic,
                        message: format!("rank {rank} panicked: {msg}"),
                    });
                }
            }
        }
    }
    findings.extend(san.incomplete_collectives());
    if findings.is_empty() && vals.len() != ntasks {
        findings.push(Finding {
            kind: FindingKind::Panic,
            message: format!(
                "{} of {ntasks} rank(s) unwound without a recorded finding",
                ntasks - vals.len()
            ),
        });
    }
    if findings.is_empty() {
        return Ok(vals);
    }
    let schedule = if matches!(cfg, ScheduleCfg::Dpor) {
        run.trace.clone()
    } else {
        Vec::new()
    };
    Err(Box::new(CheckFailure {
        cfg,
        findings,
        deadlock,
        trace: run
            .trace
            .into_iter()
            .enumerate()
            .map(|(step, task)| TraceEv { step, task })
            .collect(),
        schedule,
    }))
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
