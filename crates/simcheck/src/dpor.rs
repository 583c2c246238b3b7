//! Dynamic partial-order reduction over the serial task scheduler.
//!
//! [`ScheduleCfg::Seeded`](crate::ScheduleCfg) samples the schedule space;
//! this module *enumerates* it. A [`Dpor`] explorer repeatedly runs the
//! program under a driven serial schedule ([`simmpi::ScheduleDriver`]),
//! recording for every decision the candidate set and the *footprint* of
//! the step that followed it — channel operations and byte-extent file
//! accesses (via [`AccessSink`]). Two steps are *dependent* when their
//! footprints touch a shared resource: the same channel key (except two
//! poll misses, which commute), or extents that conflict by the one rule
//! the race engine uses too ([`FileAccess::conflicts`]). Independent steps
//! commute, so schedules differing only in their order are equivalent and
//! only one representative needs running.
//!
//! The exploration is the classic race-reversal scheme with a
//! happens-before filter. The recorder orders the run as it goes, with the
//! same clock core as the race engine ([`crate::hb`]: program order,
//! send→receive edges, collective brackets), making every scheduled step
//! one epoch from the `choose` that starts it: step `i` happens before step
//! `j` iff `j`'s clock has seen `i`'s tick of its task. After each run, for
//! every step `j` find the latest earlier step `i` of a *different* task
//! whose footprint is dependent with `j`'s and whose order is not forced
//! through a third step. Reversing that pair may
//! expose new behaviour, so the prefix `decisions[..i]` extended with
//! `j`'s task (or, when `j`'s task was not runnable at `i`, with every
//! other candidate — the conservative fallback) is queued as a backtrack
//! point. A prefix-memoization set plays the role of sleep sets: a branch
//! already dispatched at a node is never dispatched twice, and the hits
//! are reported as [`DporOutcome::pruned`]. Beyond the forced prefix the
//! driver always continues the lowest runnable task id, so every run is a
//! pure function of its prefix and exploration is deterministic —
//! explored-schedule counts and decision traces can be pinned in golden
//! files.
//!
//! Failures surface as ordinary [`CheckFailure`]s with
//! [`CheckFailure::schedule`] carrying the failing run's full decision
//! sequence; [`Dpor::replay`] forces that sequence as the prefix and
//! reproduces the failure exactly.
//!
//! Driven schedules need the executor's serial policy: it polls one rank
//! at a time, so each decision can be handed to a driver. A work-stealing
//! run executes the same futures with the workers racing, so DPOR
//! coverage of the protocol transfers to it.

use crate::hb::{Chan, ClockCore, Edge, VClock};
use crate::report::{CheckFailure, ScheduleCfg};
use simmpi::{CheckHook, HookEvent, Sanitizer, ScheduleDriver};
use std::collections::BTreeSet;
use std::sync::{Arc, Mutex};
use vfs::{AccessSink, FileAccess, Tap};

/// What a channel footprint entry did on its mailbox key.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ChanOp {
    /// Pushed a message (FIFO per key).
    Send,
    /// Consumed a matched message (blocking receive or a `try_recv` hit).
    Recv,
    /// A `try_recv` miss: observed the key empty, consumed nothing.
    Poll,
}

/// One resource touched by a scheduled step.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Res {
    /// A message-channel operation on a `(comm, from, to, tag)` mailbox key.
    Chan(Chan, ChanOp),
    /// A byte-extent file access.
    Extent(FileAccess),
}

impl Res {
    fn conflicts(&self, other: &Res) -> bool {
        match (self, other) {
            // Two misses both observe "empty" — they commute. Any other
            // same-key pair does not: send/send changes FIFO order,
            // send/recv and send/poll flip what is observable, recv/recv
            // changes who gets which message.
            (Res::Chan(a, oa), Res::Chan(b, ob)) => {
                a == b && !(*oa == ChanOp::Poll && *ob == ChanOp::Poll)
            }
            (Res::Extent(a), Res::Extent(b)) => a.conflicts(b),
            _ => false,
        }
    }
}

/// One scheduling decision with everything the analysis needs: who ran,
/// who *could* have run, what the step touched, and where it sits in the
/// run's happens-before order.
#[derive(Debug, Clone, Default)]
struct StepRec {
    chosen: usize,
    candidates: Vec<usize>,
    fp: Vec<Res>,
    /// The step's happens-before edges, applied as one epoch when it ends.
    edges: Vec<Edge>,
    /// The chosen task's clock after that epoch.
    clock: VClock,
}

impl StepRec {
    fn dependent(&self, other: &StepRec) -> bool {
        self.fp
            .iter()
            .any(|a| other.fp.iter().any(|b| a.conflicts(b)))
    }

    /// Whether this step happens before the `later` one: `later` has seen
    /// this step's tick of its task.
    fn happens_before(&self, later: &StepRec) -> bool {
        let t = self.chosen as u64;
        later.clock.get(t) >= self.clock.get(t)
    }
}

/// Is the dependent pair `(i, j)` a *reversible* race — ordered by no third
/// step `z` with `i → z → j`? A pair ordered only by its own direct edge (a
/// send and the receive/poll that consumed it) still swaps to a legal
/// schedule in which the consumer runs first and misses; a pair ordered
/// through an intermediate step can never be reversed by any legal schedule,
/// so queueing a backtrack point for it is pure waste — this filter is what
/// keeps the aggregation protocol's exploration finite.
fn reversible(steps: &[StepRec], i: usize, j: usize) -> bool {
    !(i + 1..j).any(|z| steps[i].happens_before(&steps[z]) && steps[z].happens_before(&steps[j]))
}

#[derive(Default)]
struct RecState {
    prefix: Vec<usize>,
    steps: Vec<StepRec>,
    /// The run's happens-before clocks, one epoch per step.
    clocks: ClockCore,
}

impl RecState {
    /// End the open step: its edges become one epoch of its task.
    fn close_step(&mut self) {
        if let Some(s) = self.steps.last_mut() {
            let edges = std::mem::take(&mut s.edges);
            s.clock = self.clocks.epoch(s.chosen as u64, &edges).clone();
        }
    }
}

/// The per-run instrument: schedule driver (forces the current prefix,
/// then lowest-candidate), passive hook (channel footprints and
/// happens-before edges) and access sink (extent footprints) in one object.
#[derive(Default)]
struct Recorder {
    st: Mutex<RecState>,
}

impl Recorder {
    fn lock(&self) -> std::sync::MutexGuard<'_, RecState> {
        self.st.lock().expect("recorder lock")
    }

    fn reset(&self, prefix: Vec<usize>) {
        *self.lock() = RecState {
            prefix,
            ..RecState::default()
        };
    }

    fn take(&self) -> Vec<StepRec> {
        let mut g = self.lock();
        g.close_step();
        std::mem::take(&mut g.steps)
    }

    /// Add to the open step's footprint and edges (nothing runs outside a
    /// step).
    fn touch(&self, res: Option<Res>, edge: Option<Edge>) {
        if let Some(s) = self.lock().steps.last_mut() {
            s.fp.extend(res);
            s.edges.extend(edge);
        }
    }
}

impl ScheduleDriver for Recorder {
    fn choose(&self, step: usize, candidates: &[usize]) -> usize {
        let mut g = self.lock();
        debug_assert_eq!(step, g.steps.len(), "driver calls arrive in step order");
        g.close_step();
        let chosen = g
            .prefix
            .get(step)
            .copied()
            .filter(|c| candidates.contains(c))
            .unwrap_or(candidates[0]);
        g.steps.push(StepRec {
            chosen,
            candidates: candidates.to_vec(),
            ..StepRec::default()
        });
        chosen
    }
}

impl CheckHook for Recorder {
    fn on_event(&self, ev: &HookEvent<'_>) {
        // A collective is its tree messages: they arrive here as sends and
        // receives. A `try_recv` hit is followed by `RecvDone`, which
        // records the consume; only the miss needs its own entry (it is
        // still dependent with the send that would have satisfied it —
        // reordering them flips the poll's outcome — but two misses
        // commute).
        let edge = Edge::of(ev);
        let res = match (edge, *ev) {
            (Some(Edge::Send(chan)), _) => Some(Res::Chan(chan, ChanOp::Send)),
            (Some(Edge::Recv(chan)), _) => Some(Res::Chan(chan, ChanOp::Recv)),
            (
                _,
                HookEvent::TryRecv {
                    comm,
                    rank,
                    src,
                    tag,
                    hit: false,
                },
            ) => Some(Res::Chan((comm.id, src, rank, tag), ChanOp::Poll)),
            _ => None,
        };
        if res.is_some() {
            self.touch(res, edge);
        }
    }
}

impl AccessSink for Recorder {
    fn on_access(&self, access: &FileAccess) {
        self.touch(Some(Res::Extent(access.clone())), None);
    }
}

/// Handle passed to the per-run closure: the three faces of the run's one
/// recorder, ready to wire into `run_driven`, a hook list, and a
/// [`TapFs`](vfs::TapFs) tap list.
pub struct DporHarness {
    rec: Arc<Recorder>,
}

impl DporHarness {
    /// The schedule driver for `TaskWorld::run_driven`.
    pub fn driver(&self) -> Arc<dyn ScheduleDriver> {
        self.rec.clone()
    }

    /// The footprint-recording hook; list it with a fresh [`Sanitizer`]
    /// (and any other passive hook) in a `Vec<Arc<dyn CheckHook>>`.
    pub fn recorder(&self) -> Arc<dyn CheckHook> {
        self.rec.clone()
    }

    /// The extent sink, for the `TapFs` tap list when the program does
    /// file I/O.
    pub fn sink(&self) -> Arc<dyn Tap> {
        self.rec.clone()
    }

    /// One driven run of a plain `TaskWorld` program with a fresh
    /// [`Sanitizer`] beside the recorder: its values land in `vals`, a
    /// finding comes back as the run's failure.
    pub(crate) fn run_sanitized<T, F, Fut>(
        &self,
        ntasks: usize,
        f: F,
        vals: &mut Option<Vec<T>>,
    ) -> Option<Box<CheckFailure>>
    where
        T: Send,
        F: Fn(simmpi::CoComm) -> Fut,
        Fut: std::future::Future<Output = T> + Send,
    {
        let san = Arc::new(Sanitizer::new());
        let hook: Arc<dyn CheckHook> = Arc::new(vec![self.recorder(), san.clone()]);
        simmpi::TaskWorld::run_driven(ntasks, hook, self.driver(), f)
            .verdict(Some(&san))
            .map(|v| *vals = Some(v))
            .map_err(|failure| CheckFailure::new(ScheduleCfg::Dpor, failure))
            .err()
    }
}

/// What an exploration did: how many inequivalent schedules ran, how much
/// of the naive tree the reductions cut, and the first failure if any.
#[derive(Debug, Default)]
pub struct DporOutcome {
    /// Schedules actually executed.
    pub explored: usize,
    /// Backtrack prefixes skipped because an identical prefix was already
    /// dispatched (the sleep-set analogue).
    pub pruned: usize,
    /// Backtrack points queued across all runs.
    pub branch_points: usize,
    /// Length of the longest decision sequence seen.
    pub max_depth: usize,
    /// Exploration stopped at [`Dpor::max_schedules`] with work remaining.
    pub capped: bool,
    /// Decision trace of the first (unforced) run, one rendered line per
    /// step — the golden-file anchor for scheduler determinism.
    pub first_trace: Vec<String>,
    /// First failing run; its [`CheckFailure::schedule`] replays it.
    pub failure: Option<Box<CheckFailure>>,
}

impl DporOutcome {
    /// One-line deterministic summary, suitable for golden files.
    pub fn summary(&self) -> String {
        format!(
            "dpor: explored {} schedule(s), pruned {}, {} branch point(s), max depth {}{}",
            self.explored,
            self.pruned,
            self.branch_points,
            self.max_depth,
            if self.capped { " (capped)" } else { "" }
        )
    }
}

/// The exhaustive explorer. See the module docs for the algorithm.
pub struct Dpor {
    /// Hard cap on executed schedules; hitting it sets
    /// [`DporOutcome::capped`] instead of looping forever on a state space
    /// larger than the reductions can collapse.
    pub max_schedules: usize,
}

impl Default for Dpor {
    fn default() -> Self {
        Dpor {
            max_schedules: 10_000,
        }
    }
}

impl Dpor {
    /// Run `run_once` under every inequivalent schedule. The closure must
    /// wire the harness's driver **and** recorder into a driven serial run
    /// (plus the sink, when file I/O matters), perform exactly one run,
    /// and return its failure verdict; exploration stops at the first
    /// failure or when no unexplored backtrack point remains.
    pub fn explore(
        &self,
        mut run_once: impl FnMut(&DporHarness) -> Option<Box<CheckFailure>>,
    ) -> DporOutcome {
        let h = DporHarness {
            rec: Arc::new(Recorder::default()),
        };
        let mut out = DporOutcome::default();
        let mut seen: BTreeSet<Vec<usize>> = BTreeSet::new();
        seen.insert(Vec::new());
        let mut stack: Vec<Vec<usize>> = vec![Vec::new()];
        while let Some(prefix) = stack.pop() {
            if out.explored >= self.max_schedules {
                out.capped = true;
                break;
            }
            h.rec.reset(prefix);
            let failure = run_once(&h);
            let steps = h.rec.take();
            out.explored += 1;
            out.max_depth = out.max_depth.max(steps.len());
            if out.explored == 1 {
                out.first_trace = steps
                    .iter()
                    .enumerate()
                    .map(|(i, s)| format!("#{i} task {} of {:?}", s.chosen, s.candidates))
                    .collect();
            }
            if failure.is_some() {
                out.failure = failure;
                break;
            }
            for j in 0..steps.len() {
                // Latest earlier dependent step of a different task whose
                // order is actually reversible: the race to reverse.
                // (Same-task pairs are program-ordered; pairs ordered
                // through a third step are frozen in every schedule.)
                let Some(i) = (0..j).rev().find(|&i| {
                    steps[i].chosen != steps[j].chosen
                        && steps[i].dependent(&steps[j])
                        && reversible(&steps, i, j)
                }) else {
                    continue;
                };
                let base: Vec<usize> = steps[..i].iter().map(|s| s.chosen).collect();
                let alts: Vec<usize> = if steps[i].candidates.contains(&steps[j].chosen) {
                    vec![steps[j].chosen]
                } else {
                    // `j`'s task was not yet runnable at `i`; conservative
                    // fallback — try every other choice at that point.
                    steps[i].candidates.clone()
                };
                for alt in alts {
                    if alt == steps[i].chosen {
                        continue;
                    }
                    let mut p = base.clone();
                    p.push(alt);
                    if seen.insert(p.clone()) {
                        out.branch_points += 1;
                        stack.push(p);
                    } else {
                        out.pruned += 1;
                    }
                }
            }
        }
        out
    }

    /// Run `run_once` exactly once with `schedule` forced as the decision
    /// prefix — the replay side of [`CheckFailure::schedule`]. Returns the
    /// run's verdict; a faithfully replayed failure returns `Some` with an
    /// identical stable report.
    pub fn replay(
        schedule: &[usize],
        run_once: impl FnOnce(&DporHarness) -> Option<Box<CheckFailure>>,
    ) -> Option<Box<CheckFailure>> {
        let h = DporHarness {
            rec: Arc::new(Recorder::default()),
        };
        h.rec.reset(schedule.to_vec());
        run_once(&h)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CheckedTaskWorld, ScheduleCfg};

    /// Two tasks each do one barrier: the only decisions are which task
    /// polls first at each quiescent point, and all of them commute except
    /// the collective entries. The count must be stable run over run.
    #[test]
    fn exploration_is_deterministic() {
        let count = |_| {
            let r = CheckedTaskWorld::run(2, ScheduleCfg::Dpor, |c| async move {
                c.barrier().await;
                c.rank()
            })
            .expect("barrier world is clean");
            r
        };
        assert_eq!(count(()), count(()));
        assert_eq!(count(()), vec![0, 1]);
    }

    /// An order-dependent program: rank 1's value depends on whether rank
    /// 0's send landed before its poll. DPOR must execute both outcomes.
    #[test]
    fn dpor_explores_both_sides_of_a_poll_race() {
        use std::collections::BTreeSet;
        use std::sync::Mutex;
        let outcomes: Mutex<BTreeSet<bool>> = Mutex::new(BTreeSet::new());
        let out = Dpor::default().explore(|h| {
            let san = Arc::new(Sanitizer::new());
            let hook: Arc<dyn CheckHook> = Arc::new(vec![h.recorder(), san.clone()]);
            let run = simmpi::TaskWorld::run_driven(2, hook, h.driver(), |c| async move {
                if c.rank() == 0 {
                    c.send(1, 7, b"x");
                    true
                } else {
                    let hit = c.try_recv(0, 7).is_some();
                    if !hit {
                        // Drain the message either way: no leaks.
                        c.recv(0, 7).await;
                    }
                    hit
                }
            });
            let vals = run.verdict(Some(&san)).expect("clean program");
            outcomes.lock().unwrap().insert(vals[1]);
            None
        });
        assert!(out.failure.is_none());
        assert!(out.explored >= 2, "{}", out.summary());
        assert_eq!(
            *outcomes.lock().unwrap(),
            BTreeSet::from([false, true]),
            "both poll outcomes must be scheduled: {}",
            out.summary()
        );
    }

    /// A failure found by exploration replays exactly from its recorded
    /// schedule.
    #[test]
    fn failures_carry_a_replayable_schedule() {
        let prog = |c: simmpi::CoComm| async move {
            if c.rank() == 0 {
                c.send(1, 7, b"x");
            } else {
                // Racy: losing the poll race is a panic finding (and the
                // unreceived message then leaks on teardown).
                assert!(c.try_recv(0, 7).is_some(), "lost the poll race");
            }
            c.rank()
        };
        let err = match CheckedTaskWorld::run(2, ScheduleCfg::Dpor, prog) {
            Err(e) => e,
            Ok(_) => panic!("the leaky interleaving must be found"),
        };
        assert!(!err.schedule().is_empty());
        assert_eq!(err.cfg, ScheduleCfg::Dpor);
        let mut vals = None;
        let replayed = Dpor::replay(err.schedule(), |h| h.run_sanitized(2, prog, &mut vals))
            .expect("forced schedule reproduces the failure");
        assert!(vals.is_none(), "a failed replay returns no values");
        assert_eq!(replayed.stable_report(), err.stable_report());
    }
}
