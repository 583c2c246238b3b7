//! Runtime MPI-usage sanitizers (passive check hooks).
//!
//! [`Sanitizer`] is a [`CheckHook`]: like every hook it never influences
//! scheduling, it only matches the [`HookEvent`]s that show these protocol
//! violations and reports them:
//!
//! * **collective mismatch** — on each communicator, collective calls are
//!   ordered, so the N-th collective entered by one rank must be the same
//!   operation (and the same root) as the N-th collective entered by every
//!   other rank. The first divergent entry is diagnosed immediately — long
//!   before the mismatch would manifest as a hang or as garbage data.
//! * **incomplete collectives** — a collective entered by some but not all
//!   ranks by the time the world ends (e.g. one rank ran an extra
//!   broadcast) is reported at teardown.
//! * **reserved-tag discipline** — user sends into the `0xC3` collective
//!   namespace, or into the `0xA6`/`0xA7` aggregation ship/ack namespaces
//!   from outside the aggregation protocol, are rejected with a diagnostic
//!   naming the offending rank.
//! * **message leaks** — unconsumed messages found when a communicator
//!   handle is dropped.
//! * **suspected deadlock** — a receive blocked past the watchdog (see
//!   `SIMCHECK_TIMEOUT_MS`). The precise whole-world deadlock verdict
//!   is the task executor's quiescence detection (what `simcheck`'s
//!   schedule-exploring harness reports); the watchdog is the budget
//!   version for the thread driver that still turns a silent hang into a
//!   diagnosed failure.
//!
//! Findings panic on the offending rank (with the diagnosis as the panic
//! message) and raise the abort flag so ranks blocked in receives unwind
//! too instead of hanging the test run. All report text is deterministic:
//! state lives in `BTreeMap`s and leak lists are sorted before reporting.

use crate::hook::{
    describe_tag, is_agg_tag, reserved_tag_panic_text, Aborted, CheckHook, CollKind, CommCtx,
    HookEvent, LeakedMsg,
};
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

/// Classification of a sanitizer (or schedule-harness) finding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FindingKind {
    /// Ranks entered different collectives (or the same with different
    /// roots) at the same ordinal position.
    CollectiveMismatch,
    /// A collective was entered by some but not all ranks.
    IncompleteCollective,
    /// A user send used a tag in a reserved namespace (`0xC3`
    /// collectives, or `0xA6`/`0xA7` aggregation ship/ack from outside the
    /// aggregation protocol).
    ReservedTag,
    /// Messages were never consumed before communicator teardown.
    MessageLeak,
    /// All live ranks parked with no runnable peer (schedule-exploring
    /// harness), or a single receive exceeded the passive watchdog.
    Deadlock,
    /// A rank's closure panicked (recorded by the schedule-exploring
    /// harness).
    Panic,
}

impl FindingKind {
    /// Stable lowercase label used in rendered reports.
    pub fn label(self) -> &'static str {
        match self {
            FindingKind::CollectiveMismatch => "collective-mismatch",
            FindingKind::IncompleteCollective => "incomplete-collective",
            FindingKind::ReservedTag => "reserved-tag",
            FindingKind::MessageLeak => "message-leak",
            FindingKind::Deadlock => "deadlock",
            FindingKind::Panic => "panic",
        }
    }
}

/// One diagnosed violation.
#[derive(Debug, Clone)]
pub struct Finding {
    /// What class of bug this is.
    pub kind: FindingKind,
    /// Full deterministic diagnosis.
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] {}", self.kind.label(), self.message)
    }
}

/// Record of the first rank to enter a given collective ordinal.
#[derive(Debug)]
struct CollEntry {
    kind: CollKind,
    root: Option<usize>,
    first_rank: usize,
    entered: Vec<usize>,
    comm_name: Arc<str>,
    comm_size: usize,
}

fn fmt_op(kind: CollKind, root: Option<usize>) -> String {
    match root {
        Some(r) => format!("{}(root={r})", kind.name()),
        None => kind.name().to_string(),
    }
}

/// Passive MPI-usage sanitizer; see the module docs. One instance checks
/// one world (state is keyed by communicator identity, which repeats
/// between worlds).
#[derive(Debug, Default)]
pub struct Sanitizer {
    entries: Mutex<BTreeMap<(u64, u64), CollEntry>>,
    findings: Mutex<Vec<Finding>>,
    abort: Mutex<Option<String>>,
}

impl Sanitizer {
    /// Fresh sanitizer with no recorded state.
    pub fn new() -> Sanitizer {
        Sanitizer::default()
    }

    /// Findings recorded so far (in detection order, which is deterministic
    /// under a serial schedule).
    pub fn findings(&self) -> Vec<Finding> {
        self.findings.lock().clone()
    }

    fn record(&self, kind: FindingKind, message: String) -> Finding {
        let f = Finding { kind, message };
        self.findings.lock().push(f.clone());
        let mut abort = self.abort.lock();
        if abort.is_none() {
            *abort = Some(f.to_string());
        }
        f
    }

    /// Check one collective entry; returns the finding on divergence. Pure
    /// bookkeeping — the caller decides how to fail (the hook impl below
    /// panics).
    fn check_collective(
        &self,
        comm: &CommCtx,
        rank: usize,
        seq: u64,
        kind: CollKind,
        root: Option<usize>,
    ) -> Option<Finding> {
        let mut entries = self.entries.lock();
        match entries.get_mut(&(comm.id, seq)) {
            None => {
                // A size-1 communicator's entry is complete on arrival.
                if comm.size == 1 {
                    return None;
                }
                entries.insert(
                    (comm.id, seq),
                    CollEntry {
                        kind,
                        root,
                        first_rank: rank,
                        entered: vec![rank],
                        comm_name: comm.name.clone(),
                        comm_size: comm.size,
                    },
                );
                None
            }
            Some(e) => {
                if e.kind != kind || e.root != root {
                    let msg = format!(
                        "collective #{seq} on comm \"{}\": rank {rank} entered {} but rank {} \
                         entered {}",
                        comm.name,
                        fmt_op(kind, root),
                        e.first_rank,
                        fmt_op(e.kind, e.root),
                    );
                    drop(entries);
                    return Some(self.record(FindingKind::CollectiveMismatch, msg));
                }
                e.entered.push(rank);
                if e.entered.len() == e.comm_size {
                    entries.remove(&(comm.id, seq));
                }
                None
            }
        }
    }

    /// Build the reserved-tag finding for a crafted user send into a
    /// reserved namespace (`0xC3` collectives, or the `0xA6`/`0xA7`
    /// aggregation ship/ack namespaces from outside the protocol).
    fn check_reserved_tag(&self, comm: &CommCtx, rank: usize, dest: usize, tag: u64) -> Finding {
        let namespace = if is_agg_tag(tag) {
            "0xA6/0xA7 namespace reserved for the aggregation ship/ack protocol"
        } else {
            "0xC3 namespace reserved for internal collectives"
        };
        let msg = format!(
            "rank {rank} sent a user message to rank {dest} on comm \"{}\" with tag \
             {tag:#018x}, which lies in the {namespace} ({})",
            comm.name,
            describe_tag(tag),
        );
        self.record(FindingKind::ReservedTag, msg)
    }

    /// Build the leak finding for unconsumed messages at teardown.
    fn check_teardown(&self, comm: &CommCtx, rank: usize, leaked: &[LeakedMsg]) -> Finding {
        let mut sorted = leaked.to_vec();
        sorted.sort();
        let list: Vec<String> = sorted
            .iter()
            .map(|m| {
                format!(
                    "from rank {} tag {} ({} bytes)",
                    m.from,
                    describe_tag(m.tag),
                    m.len
                )
            })
            .collect();
        self.record(
            FindingKind::MessageLeak,
            format!(
                "rank {rank} dropped comm \"{}\" with {} unmatched message(s): {}",
                comm.name,
                sorted.len(),
                list.join("; "),
            ),
        )
    }

    /// Collectives left incomplete once the world has ended. Deterministic
    /// order (sorted by communicator id, then sequence number).
    pub fn incomplete_collectives(&self) -> Vec<Finding> {
        let entries = self.entries.lock();
        entries
            .values()
            .map(|e| {
                let mut ranks = e.entered.clone();
                ranks.sort_unstable();
                Finding {
                    kind: FindingKind::IncompleteCollective,
                    message: format!(
                        "collective {} on comm \"{}\" was entered by only {} of {} ranks \
                         ({:?}) before the world ended",
                        fmt_op(e.kind, e.root),
                        e.comm_name,
                        e.entered.len(),
                        e.comm_size,
                        ranks,
                    ),
                }
            })
            .collect()
    }

    /// Record a deadlock-class finding (used by the passive watchdog and by
    /// the schedule-exploring harness for its whole-world verdict).
    pub fn record_deadlock(&self, message: String) -> Finding {
        self.record(FindingKind::Deadlock, message)
    }
}

/// Collapse the per-rank results of an env-gated (`SIMCHECK=1`) checked run
/// back into the plain `run` contract: re-panic with the primary diagnosis
/// (preferring a real finding over the secondary [`Aborted`] unwinds of
/// ranks released from blocked receives), then fail on collectives the
/// world left incomplete.
pub(crate) fn finalize_env_checked<T>(
    results: Vec<std::thread::Result<T>>,
    san: &Sanitizer,
) -> Vec<T> {
    let ntasks = results.len();
    let vals = crate::task::propagate_panics(results);
    // No real panic, yet some rank did not finish: it was released from a
    // blocked receive by the abort flag.
    if vals.len() < ntasks {
        let reason = san
            .abort
            .lock()
            .clone()
            .unwrap_or_else(|| "no reason recorded".into());
        panic!("simcheck: world aborted: {reason}");
    }
    let incomplete = san.incomplete_collectives();
    if !incomplete.is_empty() {
        let msgs: Vec<String> = incomplete.iter().map(|f| f.to_string()).collect();
        panic!("simcheck: {}", msgs.join("; "));
    }
    vals
}

impl CheckHook for Sanitizer {
    fn on_event(&self, ev: &HookEvent<'_>) {
        match *ev {
            HookEvent::Collective {
                comm,
                rank,
                seq,
                kind,
                root,
            } => {
                if let Some(f) = self.check_collective(comm, rank, seq, kind, root) {
                    panic!("simcheck: {f}");
                }
            }
            HookEvent::ReservedTag {
                comm,
                rank,
                dest,
                tag,
            } => {
                let f = self.check_reserved_tag(comm, rank, dest, tag);
                // Keep the historical 0xC3 wording so callers matching on the
                // plain runtime's panic message see the same contract; the
                // aggregation namespaces get the matching runtime wording too.
                panic!("simcheck: {f} — {}", reserved_tag_panic_text(tag));
            }
            HookEvent::Teardown { comm, rank, leaked } => {
                let f = self.check_teardown(comm, rank, leaked);
                // During an unwind (this rank already failed, or the world is
                // aborting) a second panic would abort the process; the
                // finding is recorded either way.
                if !std::thread::panicking() {
                    panic!("simcheck: {f}");
                }
            }
            HookEvent::Stuck {
                comm,
                rank,
                src,
                tag,
                waited,
            } => {
                let f = self.record_deadlock(format!(
                    "suspected deadlock: rank {rank} on comm \"{}\" blocked in recv(src={src}, \
                     tag={}) for {:?} with no message arriving",
                    comm.name,
                    describe_tag(tag),
                    waited,
                ));
                std::panic::panic_any(Aborted(format!("simcheck: {f}")));
            }
            _ => {}
        }
    }

    fn should_abort(&self) -> Option<String> {
        self.abort.lock().clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx(name: &str, size: usize) -> CommCtx {
        CommCtx::new(name.to_string(), size)
    }

    #[test]
    fn matching_collectives_retire_their_entries() {
        let s = Sanitizer::new();
        let c = ctx("world", 3);
        for rank in 0..3 {
            assert!(s
                .check_collective(&c, rank, 0, CollKind::Bcast, Some(1))
                .is_none());
        }
        assert!(s.incomplete_collectives().is_empty());
        assert!(s.findings().is_empty());
    }

    #[test]
    fn root_mismatch_is_diagnosed_on_second_entry() {
        let s = Sanitizer::new();
        let c = ctx("world", 2);
        assert!(s
            .check_collective(&c, 0, 0, CollKind::Bcast, Some(0))
            .is_none());
        let f = s
            .check_collective(&c, 1, 0, CollKind::Bcast, Some(1))
            .expect("mismatch");
        assert_eq!(f.kind, FindingKind::CollectiveMismatch);
        assert!(
            f.message.contains("rank 1 entered bcast(root=1)"),
            "{}",
            f.message
        );
        assert!(
            f.message.contains("rank 0 entered bcast(root=0)"),
            "{}",
            f.message
        );
        assert!(s.should_abort().is_some());
    }

    #[test]
    fn kind_mismatch_is_diagnosed() {
        let s = Sanitizer::new();
        let c = ctx("world", 2);
        assert!(s
            .check_collective(&c, 1, 4, CollKind::Gather, Some(0))
            .is_none());
        let f = s
            .check_collective(&c, 0, 4, CollKind::Barrier, None)
            .expect("mismatch");
        assert!(f.message.contains("barrier"), "{}", f.message);
        assert!(f.message.contains("gather(root=0)"), "{}", f.message);
    }

    #[test]
    fn incomplete_collective_reported_at_end() {
        let s = Sanitizer::new();
        let c = ctx("world", 4);
        assert!(s
            .check_collective(&c, 2, 9, CollKind::Allgather, None)
            .is_none());
        let inc = s.incomplete_collectives();
        assert_eq!(inc.len(), 1);
        assert_eq!(inc[0].kind, FindingKind::IncompleteCollective);
        assert!(
            inc[0].message.contains("only 1 of 4 ranks"),
            "{}",
            inc[0].message
        );
    }

    #[test]
    fn leak_report_is_sorted_and_deterministic() {
        let s = Sanitizer::new();
        let c = ctx("world", 2);
        let leaked = vec![
            LeakedMsg {
                from: 1,
                tag: 9,
                len: 3,
            },
            LeakedMsg {
                from: 0,
                tag: 5,
                len: 10,
            },
        ];
        let f = s.check_teardown(&c, 0, &leaked);
        let lo = f.message.find("from rank 0").expect("rank 0 listed");
        let hi = f.message.find("from rank 1").expect("rank 1 listed");
        assert!(lo < hi, "{}", f.message);
    }
}
