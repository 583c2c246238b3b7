//! Dynamic partial-order reduction over the serial task scheduler.
//!
//! [`ScheduleCfg::Seeded`](crate::ScheduleCfg) samples the schedule space;
//! this module *enumerates* it. A [`Dpor`] explorer repeatedly runs the
//! program under a driven serial schedule ([`simmpi::ScheduleDriver`]),
//! recording for every decision the candidate set and the *footprint* of
//! the step that followed it — channel operations, collective rounds, and
//! byte-extent file accesses (via [`AccessSink`]). Two steps are
//! *dependent* when their footprints touch a shared resource (same channel
//! key — except two poll misses, which commute — or overlapping extents
//! with at least one write); independent steps commute, so schedules
//! differing only in their order are equivalent and only one
//! representative needs running.
//!
//! The exploration is the classic race-reversal scheme with a
//! happens-before filter: after each run, build the trace's causal order
//! ([`TraceHb`]: program order, send→receive edges, collective brackets),
//! then for every step `j` find the latest earlier step `i` of a
//! *different* task whose footprint is dependent with `j`'s and whose
//! order is not forced through a third step. Reversing that pair may
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
//! Driven schedules exist on the task executor only: it polls one rank at
//! a time, so each decision can be handed to a driver. The thread driver
//! (`simmpi::World`) runs the same `TaskComm` engine and the same
//! `sion::par` protocol with the operating system choosing the
//! interleaving, so DPOR coverage of the protocol transfers to it.

use crate::report::{CheckFailure, ScheduleCfg};
use crate::sched::digest_task_run;
use simmpi::{CheckHook, CollKind, CommCtx, LeakedMsg};
use simmpi::{Sanitizer, ScheduleDriver};
use std::collections::BTreeSet;
use std::sync::{Arc, Mutex};
use std::time::Duration;
use vfs::{AccessKind, AccessSink, FileAccess, Tap};

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
    /// A message-channel operation on the `(comm, from, to, tag)` mailbox
    /// key.
    Chan { comm: u64, from: usize, to: usize, tag: u64, op: ChanOp },
    /// A collective bracket event on `(comm, seq)` — never a *conflict*
    /// (entries commute, and no scheduler can move an exit before an
    /// entry), but the entry→exit edges feed the happens-before filter.
    Coll { comm: u64, seq: u64, exit: bool },
    /// A byte-extent file access. `shadow` marks writes that land in a
    /// per-task shadow stream rather than the shared physical file.
    Extent { path: String, offset: u64, len: u64, write: bool, shadow: bool },
}

impl Res {
    fn conflicts(&self, other: &Res) -> bool {
        match (self, other) {
            (
                Res::Chan { comm: ca, from: fa, to: ta, tag: ga, op: oa },
                Res::Chan { comm: cb, from: fb, to: tb, tag: gb, op: ob },
            ) => {
                // Two misses both observe "empty" — they commute. Any
                // other same-key pair does not: send/send changes FIFO
                // order, send/recv and send/poll flip what is observable,
                // recv/recv changes who gets which message.
                (ca, fa, ta, ga) == (cb, fb, tb, gb)
                    && !(*oa == ChanOp::Poll && *ob == ChanOp::Poll)
            }
            (
                Res::Extent { path: pa, offset: oa, len: la, write: wa, shadow: sa },
                Res::Extent { path: pb, offset: ob, len: lb, write: wb, shadow: sb },
            ) => {
                // A shadow write touches a private buffer, not the shared
                // file — it can only interfere with another shadow access,
                // never with the physical bytes (mirrors the HbEngine's
                // shadow-vs-physical exemption).
                sa == sb && (*wa || *wb) && pa == pb && oa < &(ob + lb) && ob < &(oa + la)
            }
            _ => false,
        }
    }
}

/// One scheduling decision with everything the analysis needs: who ran,
/// who *could* have run, and what the step touched.
#[derive(Debug, Clone)]
struct StepRec {
    chosen: usize,
    candidates: Vec<usize>,
    fp: Vec<Res>,
}

impl StepRec {
    fn dependent(&self, other: &StepRec) -> bool {
        self.fp.iter().any(|a| other.fp.iter().any(|b| a.conflicts(b)))
    }
}

#[derive(Default)]
struct RecState {
    prefix: Vec<usize>,
    steps: Vec<StepRec>,
}

/// The per-run instrument: schedule driver (forces the current prefix,
/// then lowest-candidate), passive hook (channel/collective footprints)
/// and access sink (extent footprints) in one object.
#[derive(Default)]
pub struct Recorder {
    st: Mutex<RecState>,
}

impl Recorder {
    fn reset(&self, prefix: Vec<usize>) {
        let mut g = self.st.lock().expect("recorder lock");
        g.prefix = prefix;
        g.steps.clear();
    }

    fn take(&self) -> Vec<StepRec> {
        std::mem::take(&mut self.st.lock().expect("recorder lock").steps)
    }

    fn touch(&self, r: Res) {
        let mut g = self.st.lock().expect("recorder lock");
        if let Some(s) = g.steps.last_mut() {
            s.fp.push(r);
        }
    }
}

impl ScheduleDriver for Recorder {
    fn choose(&self, step: usize, candidates: &[usize]) -> usize {
        let mut g = self.st.lock().expect("recorder lock");
        debug_assert_eq!(step, g.steps.len(), "driver calls arrive in step order");
        let chosen = g
            .prefix
            .get(step)
            .copied()
            .filter(|c| candidates.contains(c))
            .unwrap_or(candidates[0]);
        g.steps.push(StepRec { chosen, candidates: candidates.to_vec(), fp: Vec::new() });
        chosen
    }
}

impl CheckHook for Recorder {
    fn on_send(&self, comm: &CommCtx, from: usize, to: usize, tag: u64, _payload: &[u8]) {
        self.touch(Res::Chan { comm: comm.id, from, to, tag, op: ChanOp::Send });
    }

    fn on_recv_done(&self, comm: &CommCtx, rank: usize, src: usize, tag: u64, _payload: &[u8]) {
        self.touch(Res::Chan { comm: comm.id, from: src, to: rank, tag, op: ChanOp::Recv });
    }

    fn on_try_recv(&self, comm: &CommCtx, rank: usize, src: usize, tag: u64, hit: bool) {
        // A hit is followed by `on_recv_done`, which records the consume;
        // only the miss needs its own entry (it is still dependent with
        // the send that would have satisfied it — reordering them flips
        // the poll's outcome — but two misses commute).
        if !hit {
            self.touch(Res::Chan { comm: comm.id, from: src, to: rank, tag, op: ChanOp::Poll });
        }
    }

    fn on_collective(
        &self,
        comm: &CommCtx,
        _rank: usize,
        seq: u64,
        _kind: CollKind,
        _root: Option<usize>,
    ) {
        self.touch(Res::Coll { comm: comm.id, seq, exit: false });
    }

    fn on_collective_done(&self, comm: &CommCtx, _rank: usize, seq: u64) {
        self.touch(Res::Coll { comm: comm.id, seq, exit: true });
    }
}

impl AccessSink for Recorder {
    fn on_access(&self, access: &FileAccess) {
        self.touch(Res::Extent {
            path: access.path.clone(),
            offset: access.offset,
            len: access.len,
            write: !matches!(access.kind, AccessKind::Read),
            shadow: matches!(access.kind, AccessKind::ShadowWrite),
        });
    }
}

/// The happens-before relation of one executed trace: program order,
/// send→receive message edges (FIFO per channel key) and collective
/// entry→exit barriers, transitively closed with vector clocks. A
/// dependent pair already ordered *through a third step* can never be
/// reversed by any legal schedule, so queueing a backtrack point for it is
/// pure waste — this filter is what keeps the aggregation protocol's
/// exploration finite.
struct TraceHb {
    /// `ordered[i][j]` (for `i < j`): step `i` happens-before step `j`.
    ordered: Vec<Vec<bool>>,
}

type Clock = std::collections::BTreeMap<usize, usize>;

fn join(into: &mut Clock, other: &Clock) {
    for (t, k) in other {
        let e = into.entry(*t).or_default();
        *e = (*e).max(*k);
    }
}

impl TraceHb {
    fn build(steps: &[StepRec]) -> TraceHb {
        use std::collections::{BTreeMap, VecDeque};
        let mut task_clock: BTreeMap<usize, Clock> = BTreeMap::new();
        let mut sends: BTreeMap<(u64, usize, usize, u64), VecDeque<Clock>> = BTreeMap::new();
        let mut coll_entries: BTreeMap<(u64, u64), Clock> = BTreeMap::new();
        let mut clocks: Vec<Clock> = Vec::with_capacity(steps.len());
        // Step `s` is the `nth[s]`-th step (1-based) of its task.
        let mut nth: Vec<usize> = Vec::with_capacity(steps.len());
        for s in steps {
            let mut c = task_clock.get(&s.chosen).cloned().unwrap_or_default();
            for r in &s.fp {
                match r {
                    Res::Chan { comm, from, to, tag, op: ChanOp::Recv } => {
                        // FIFO per key: this receive consumed the oldest
                        // unconsumed send, inheriting its clock.
                        if let Some(sc) =
                            sends.get_mut(&(*comm, *from, *to, *tag)).and_then(VecDeque::pop_front)
                        {
                            join(&mut c, &sc);
                        }
                    }
                    Res::Coll { comm, seq, exit: true } => {
                        // A collective exit is ordered after every entry of
                        // the same round.
                        if let Some(e) = coll_entries.get(&(*comm, *seq)) {
                            join(&mut c, e);
                        }
                    }
                    _ => {}
                }
            }
            *c.entry(s.chosen).or_default() += 1;
            for r in &s.fp {
                match r {
                    Res::Chan { comm, from, to, tag, op: ChanOp::Send } => {
                        sends.entry((*comm, *from, *to, *tag)).or_default().push_back(c.clone());
                    }
                    Res::Coll { comm, seq, exit: false } => {
                        join(coll_entries.entry((*comm, *seq)).or_default(), &c);
                    }
                    _ => {}
                }
            }
            nth.push(c[&s.chosen]);
            clocks.push(c.clone());
            task_clock.insert(s.chosen, c);
        }
        let n = steps.len();
        let mut ordered = vec![vec![false; n]; n];
        for j in 0..n {
            for i in 0..j {
                ordered[i][j] = clocks[j].get(&steps[i].chosen).copied().unwrap_or(0) >= nth[i];
            }
        }
        TraceHb { ordered }
    }

    /// Is the dependent pair `(i, j)` a *reversible* race — ordered by no
    /// third step `z` with `i → z → j`? A pair ordered only by its own
    /// direct edge (a send and the receive/poll that consumed it) still
    /// swaps to a legal schedule in which the consumer runs first and
    /// misses; a pair ordered through an intermediate step cannot be
    /// reversed at all.
    fn reversible(&self, i: usize, j: usize) -> bool {
        !(i + 1..j).any(|z| self.ordered[i][z] && self.ordered[z][j])
    }
}

/// Handle passed to the per-run closure: the three faces of the shared
/// [`Recorder`], ready to wire into `run_driven`, a [`HookChain`], and a
/// [`TapFs`](vfs::TapFs) tap list.
pub struct DporHarness {
    rec: Arc<Recorder>,
}

impl DporHarness {
    /// The schedule driver for `TaskWorld::run_driven`.
    pub fn driver(&self) -> Arc<dyn ScheduleDriver> {
        self.rec.clone()
    }

    /// The footprint-recording hook; chain it with a fresh [`Sanitizer`]
    /// (and any other passive hook) via [`HookChain`].
    pub fn recorder(&self) -> Arc<dyn CheckHook> {
        self.rec.clone()
    }

    /// The extent sink, for the `TapFs` tap list when the program does
    /// file I/O.
    pub fn sink(&self) -> Arc<dyn Tap> {
        self.rec.clone()
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
    /// First failing run, with [`CheckFailure::schedule`] set for replay.
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
        Dpor { max_schedules: 10_000 }
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
        let h = DporHarness { rec: Arc::new(Recorder::default()) };
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
            if let Some(mut f) = failure {
                f.schedule = steps.iter().map(|s| s.chosen).collect();
                out.failure = Some(f);
                break;
            }
            let hb = TraceHb::build(&steps);
            for j in 0..steps.len() {
                // Latest earlier dependent step of a different task whose
                // order is actually reversible: the race to reverse.
                // (Same-task pairs are program-ordered; pairs ordered
                // through a third step are frozen in every schedule.)
                let Some(i) = (0..j).rev().find(|&i| {
                    steps[i].chosen != steps[j].chosen
                        && steps[i].dependent(&steps[j])
                        && hb.reversible(i, j)
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
        let h = DporHarness { rec: Arc::new(Recorder::default()) };
        h.rec.reset(schedule.to_vec());
        let mut failure = run_once(&h);
        if let Some(f) = &mut failure {
            f.schedule = h.rec.take().iter().map(|s| s.chosen).collect();
        }
        failure
    }

    /// [`Dpor::replay`] specialized to a plain `TaskWorld` program with a
    /// fresh [`Sanitizer`]: the one-call replay for failures found by
    /// [`CheckedTaskWorld::run`](crate::CheckedTaskWorld) under
    /// [`ScheduleCfg::Dpor`].
    pub fn replay_task_world<T, F, Fut>(
        ntasks: usize,
        schedule: &[usize],
        f: F,
    ) -> Result<Vec<T>, Box<CheckFailure>>
    where
        T: Send,
        F: Fn(simmpi::TaskComm) -> Fut,
        Fut: std::future::Future<Output = T> + Send,
    {
        let mut vals = None;
        let failure = Self::replay(schedule, |h| {
            let san = Arc::new(Sanitizer::new());
            let hook: Arc<dyn CheckHook> = Arc::new(HookChain::new(vec![h.recorder(), san.clone()]));
            let run = simmpi::TaskWorld::run_driven(ntasks, hook, h.driver(), &f);
            match digest_task_run(ntasks, ScheduleCfg::Dpor, &san, run) {
                Ok(v) => {
                    vals = Some(v);
                    None
                }
                Err(e) => Some(e),
            }
        });
        match failure {
            Some(e) => Err(e),
            None => Ok(vals.expect("replay ran exactly once")),
        }
    }
}

/// Fan-out of one runtime hook slot to several hooks — the driven
/// runs need the [`Recorder`]'s footprints *and* the [`Sanitizer`]'s
/// diagnoses (and, under `SIMCHECK`, an `HbEngine`) from the same run.
pub struct HookChain(Vec<Arc<dyn CheckHook>>);

impl HookChain {
    /// Chain `hooks`; every event is forwarded to each in order.
    pub fn new(hooks: Vec<Arc<dyn CheckHook>>) -> Self {
        HookChain(hooks)
    }
}

impl CheckHook for HookChain {
    fn on_collective(
        &self,
        comm: &CommCtx,
        rank: usize,
        seq: u64,
        kind: CollKind,
        root: Option<usize>,
    ) {
        for h in &self.0 {
            h.on_collective(comm, rank, seq, kind, root);
        }
    }

    fn on_collective_done(&self, comm: &CommCtx, rank: usize, seq: u64) {
        for h in &self.0 {
            h.on_collective_done(comm, rank, seq);
        }
    }

    fn on_send(&self, comm: &CommCtx, from: usize, to: usize, tag: u64, payload: &[u8]) {
        for h in &self.0 {
            h.on_send(comm, from, to, tag, payload);
        }
    }

    fn on_recv_done(&self, comm: &CommCtx, rank: usize, src: usize, tag: u64, payload: &[u8]) {
        for h in &self.0 {
            h.on_recv_done(comm, rank, src, tag, payload);
        }
    }

    fn on_try_recv(&self, comm: &CommCtx, rank: usize, src: usize, tag: u64, hit: bool) {
        for h in &self.0 {
            h.on_try_recv(comm, rank, src, tag, hit);
        }
    }

    fn on_reserved_tag(&self, comm: &CommCtx, rank: usize, dest: usize, tag: u64) {
        for h in &self.0 {
            h.on_reserved_tag(comm, rank, dest, tag);
        }
    }

    fn on_teardown(&self, comm: &CommCtx, rank: usize, leaked: &[LeakedMsg]) {
        for h in &self.0 {
            h.on_teardown(comm, rank, leaked);
        }
    }

    fn should_abort(&self) -> Option<String> {
        self.0.iter().find_map(|h| h.should_abort())
    }

    fn on_stuck(&self, comm: &CommCtx, rank: usize, src: usize, tag: u64, waited: Duration) {
        for h in &self.0 {
            h.on_stuck(comm, rank, src, tag, waited);
        }
    }

    fn on_task_finish(&self, task: usize, panicked: bool) {
        for h in &self.0 {
            h.on_task_finish(task, panicked);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CheckedTaskWorld, ScheduleCfg};
    use simmpi::CoComm;

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
            let hook: Arc<dyn CheckHook> =
                Arc::new(HookChain::new(vec![h.recorder(), san.clone()]));
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
            let vals =
                digest_task_run(2, ScheduleCfg::Dpor, &san, run).expect("clean program");
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
        let prog = |c: simmpi::TaskComm| async move {
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
        assert!(!err.schedule.is_empty());
        assert_eq!(err.cfg, ScheduleCfg::Dpor);
        let replayed = Dpor::replay_task_world(2, &err.schedule, prog)
            .expect_err("forced schedule reproduces the failure");
        assert_eq!(replayed.stable_report(), err.stable_report());
    }
}
