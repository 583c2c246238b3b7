//! Deterministic failure reports for checked runs.
//!
//! Everything rendered here must be byte-identical between a failing run
//! and its replay (same [`ScheduleCfg`]): reports are built from sorted or
//! insertion-ordered state only — no map iteration order, no addresses, no
//! timestamps.

use simmpi::Finding;
use std::fmt;

/// One point of the schedule space: the interleaving is a pure function of
/// this configuration and the program.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScheduleCfg {
    /// Seeded random exploration (CHESS-style iterative context bounding).
    Seeded {
        /// Seed of the scheduler's pseudo-random choice stream.
        seed: u64,
        /// Maximum number of *preemptions* — decisions that switch away
        /// from a task that could have kept running. Once exhausted the
        /// scheduler always continues the last task while it remains
        /// runnable.
        preemption_bound: usize,
    },
    /// Systematic dynamic-partial-order-reduced exploration of the serial
    /// task scheduler: every schedule distinct up to independent-step
    /// commutation is run exactly once (see [`crate::dpor`]). A failure
    /// found this way replays from [`CheckFailure::schedule`], not from a
    /// seed.
    Dpor,
}

impl fmt::Display for ScheduleCfg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            ScheduleCfg::Seeded {
                seed,
                preemption_bound,
            } => {
                write!(f, "seed={seed:#018x}, preemption-bound={preemption_bound}")
            }
            ScheduleCfg::Dpor => write!(f, "dpor"),
        }
    }
}

/// One scheduling decision of a checked run: the executor polled `task`
/// until it parked or finished.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEv {
    /// Decision ordinal (0-based).
    pub step: usize,
    /// World task chosen to run.
    pub task: usize,
}

/// One rank's pending operation at deadlock time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PendingOp {
    /// World task id.
    pub task: usize,
    /// Structural name of the communicator the operation is on.
    pub comm: String,
    /// Description of the blocked operation (decoded tag included).
    pub op: String,
}

/// A whole-world deadlock verdict: every live rank blocked in a receive
/// with no deliverable message. Rank tasks park by returning `Pending`, so
/// there is no stack to walk — the pending-op table carries the diagnosis.
#[derive(Debug, Clone, Default)]
pub struct DeadlockInfo {
    /// Blocked ranks in ascending task order.
    pub pending: Vec<PendingOp>,
}

/// Everything known about a failed checked run: the findings, the deadlock
/// verdict if there was one, and the full decision trace that reproduces it.
#[derive(Debug)]
pub struct CheckFailure {
    /// The schedule point that produced the failure; re-running the same
    /// program under this configuration replays it exactly.
    pub cfg: ScheduleCfg,
    /// All sanitizer findings, in (deterministic) detection order.
    pub findings: Vec<Finding>,
    /// Present when the failure was a whole-world deadlock.
    pub deadlock: Option<DeadlockInfo>,
    /// Every scheduling decision of the run, in order.
    pub trace: Vec<TraceEv>,
    /// For [`ScheduleCfg::Dpor`] failures: the full decision sequence
    /// (chosen task per step) of the failing run. Forcing it as the
    /// decision prefix of a driven serial run replays the failure exactly.
    /// Empty for seeded failures (the seed is the replay handle there).
    pub schedule: Vec<usize>,
}

impl CheckFailure {
    /// Deterministic rendering: byte-identical between a failing seed and
    /// its replay, suitable for golden-file comparison.
    pub fn stable_report(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("simcheck failure ({})\n", self.cfg));
        if !self.schedule.is_empty() {
            out.push_str(&format!("replay schedule: {:?}\n", self.schedule));
        }
        out.push_str(&format!("findings ({}):\n", self.findings.len()));
        for f in &self.findings {
            out.push_str(&format!("  {f}\n"));
        }
        if let Some(d) = &self.deadlock {
            out.push_str(&format!(
                "deadlock: {} rank(s) blocked with no deliverable message:\n",
                d.pending.len()
            ));
            for p in &d.pending {
                out.push_str(&format!("  rank {}: {} on \"{}\"\n", p.task, p.op, p.comm));
            }
        }
        out.push_str(&format!("trace ({} decisions):\n", self.trace.len()));
        for ev in &self.trace {
            out.push_str(&format!("  #{} task {}\n", ev.step, ev.task));
        }
        out
    }
}

impl fmt::Display for CheckFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.stable_report())
    }
}

impl std::error::Error for CheckFailure {}

#[cfg(test)]
mod tests {
    use super::*;
    use simmpi::FindingKind;

    #[test]
    fn stable_report_is_reproducible_text() {
        let fail = CheckFailure {
            cfg: ScheduleCfg::Seeded {
                seed: 7,
                preemption_bound: 2,
            },
            findings: vec![Finding {
                kind: FindingKind::Deadlock,
                message: "whole-world deadlock: 2 task(s) blocked".into(),
            }],
            deadlock: Some(DeadlockInfo {
                pending: vec![PendingOp {
                    task: 0,
                    comm: "world".into(),
                    op: "recv(src=1, tag=0x2)".into(),
                }],
            }),
            trace: vec![TraceEv { step: 0, task: 1 }],
            schedule: Vec::new(),
        };
        let a = fail.stable_report();
        let b = fail.stable_report();
        assert_eq!(a, b);
        assert!(a.contains("seed=0x0000000000000007"), "{a}");
        assert!(
            !a.contains("replay schedule"),
            "seeded failures have no forced schedule: {a}"
        );
        assert!(a.contains("#0 task 1\n"), "{a}");
        assert_eq!(fail.to_string(), a);
    }
}
