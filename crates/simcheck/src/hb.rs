//! The happens-before relation: one vector-clock core, and the race engine
//! built on it.
//!
//! `ClockCore` keeps one [`VClock`] per world task, a FIFO of send
//! snapshots per `(comm, from, to, tag)` channel (mailbox matching is FIFO
//! per channel, so each receive pairs with its true send) and the joined
//! entry clocks of every `(comm, seq)` collective. It advances in *epochs*:
//! an epoch of task `t` joins the oldest snapshot of every receive and the
//! entries of every collective exit, ticks `t` once, pushes the result for
//! every send and joins it into every collective entry, and stores it as
//! `t`'s clock. Every entry of a collective thus happens before every exit —
//! exact for a rendezvous such as the barrier, a superset for the tree's
//! rooted collectives, whose real edges the message rule already covers. [`HbEngine`]
//! makes every event and file access its own epoch; the DPOR recorder
//! ([`crate::dpor`]) makes every scheduled step one epoch, so a message sent
//! in a step carries what the step received after sending it.
//!
//! [`HbEngine`] is a **passive** [`CheckHook`] + [`AccessSink`] pair: two
//! conflicting ([`FileAccess::conflicts`]) extents of different tasks, as a
//! [`TapFs`](vfs::TapFs) reports them, with no happens-before path between
//! them are a data race — the ordering form of the paper's §3.2 invariant
//! that the aggregated I/O mode relies on (several logical writers per
//! file, serialized by the ship/ack edges rather than by block ownership).
//!
//! # Shadow writes and ack durability
//!
//! Aggregated-mode members write their chunk arithmetic through a
//! [`Vfs::create_shadow`](vfs::Vfs) handle; under a `TapFs` those
//! surface as [`AccessKind::ShadowWrite`] extents against the real path —
//! *logical* writes whose physical persistence is the elected aggregator's
//! obligation. The engine turns the ship/ack framing contract
//! ([`AGG_SHIP_TAG_PREFIX`]/[`AGG_ACK_TAG_PREFIX`]) into a durability
//! check: a member's pending shadow extents are bound to the shipment
//! sequence number the moment its `0xA6` frame is sent, and when the
//! aggregator sends the matching `0xA7` success ack, every bound extent
//! must already be covered by physical writes at that path. An aggregator
//! acking a shipment *before* its bytes reach the VFS is reported with the
//! member's shadow site and the uncovered byte range.
//!
//! Shadow-vs-physical overlaps do not conflict (they are ordered by the
//! ship edge and checked by the obligation rule instead); shadow-vs-shadow
//! overlaps between two members are a race — two members believe they own
//! the same logical bytes.

use simmpi::{CheckHook, HookEvent, AGG_ACK_TAG_PREFIX, AGG_SHIP_TAG_PREFIX, COLL_TAG_MASK};
use std::collections::{BTreeMap, VecDeque};
use std::fmt;
use std::sync::Mutex;
use vfs::{AccessKind, AccessSink, FileAccess};

/// A vector clock over world task ids. Sparse: absent components are zero.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct VClock(BTreeMap<u64, u64>);

impl VClock {
    /// This task's own component.
    pub fn get(&self, task: u64) -> u64 {
        self.0.get(&task).copied().unwrap_or(0)
    }

    fn tick(&mut self, task: u64) {
        *self.0.entry(task).or_insert(0) += 1;
    }

    fn join(&mut self, other: &VClock) {
        for (&t, &v) in &other.0 {
            let e = self.0.entry(t).or_insert(0);
            if *e < v {
                *e = v;
            }
        }
    }
}

impl fmt::Display for VClock {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, (t, v)) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{t}:{v}")?;
        }
        write!(f, "}}")
    }
}

/// A message channel, `(comm, from, to, tag)`: mailbox matching is FIFO
/// per channel.
pub(crate) type Chan = (u64, usize, usize, u64);

/// What one event contributes to the happens-before relation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Edge {
    /// Pushed a message: the epoch's clock is its snapshot.
    Send(Chan),
    /// Took a message: the epoch joins the channel's oldest snapshot.
    Recv(Chan),
    /// Entered collective `(comm, seq)`: the epoch's clock joins its entries.
    Enter(u64, u64),
    /// Left collective `(comm, seq)`: the epoch joins its entries so far.
    Exit(u64, u64),
}

impl Edge {
    /// The edge `ev` contributes, if it orders anything.
    pub(crate) fn of(ev: &HookEvent<'_>) -> Option<Edge> {
        Some(match *ev {
            HookEvent::Send {
                comm,
                from,
                to,
                tag,
                ..
            } => Edge::Send((comm.id, from, to, tag)),
            HookEvent::RecvDone {
                comm,
                rank,
                src,
                tag,
                ..
            } => Edge::Recv((comm.id, src, rank, tag)),
            HookEvent::Collective { comm, seq, .. } => Edge::Enter(comm.id, seq),
            HookEvent::CollectiveDone { comm, seq, .. } => Edge::Exit(comm.id, seq),
            _ => return None,
        })
    }
}

/// The vector-clock core; see the module docs.
#[derive(Default)]
pub(crate) struct ClockCore {
    /// Per world task vector clocks.
    tasks: BTreeMap<u64, VClock>,
    /// In-flight send snapshots, FIFO per channel.
    chans: BTreeMap<Chan, VecDeque<VClock>>,
    /// Accumulated entry clocks per `(comm, seq)` collective.
    colls: BTreeMap<(u64, u64), VClock>,
}

impl ClockCore {
    /// One epoch of `task` over `edges` (joins, one tick, publishes);
    /// returns the task's new clock.
    pub(crate) fn epoch(&mut self, task: u64, edges: &[Edge]) -> &VClock {
        let clock = self.tasks.entry(task).or_default();
        for edge in edges {
            match *edge {
                Edge::Recv(chan) => {
                    if let Some(snap) = self.chans.get_mut(&chan).and_then(VecDeque::pop_front) {
                        clock.join(&snap);
                    }
                }
                Edge::Exit(comm, seq) => {
                    if let Some(entries) = self.colls.get(&(comm, seq)) {
                        clock.join(entries);
                    }
                }
                Edge::Send(_) | Edge::Enter(..) => {}
            }
        }
        clock.tick(task);
        for edge in edges {
            match *edge {
                Edge::Send(chan) => self.chans.entry(chan).or_default().push_back(clock.clone()),
                Edge::Enter(comm, seq) => self.colls.entry((comm, seq)).or_default().join(clock),
                Edge::Recv(_) | Edge::Exit(..) => {}
            }
        }
        clock
    }
}

/// One side of a reported race: the access and the issuing task's clock at
/// the moment it happened.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RaceSite {
    /// The recorded access.
    pub access: FileAccess,
    /// The issuing task's vector clock when the access was recorded.
    pub clock: VClock,
}

impl fmt::Display for RaceSite {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} @ {}", self.access, self.clock)
    }
}

/// Two conflicting, overlapping byte-extent accesses with no
/// happens-before path between them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HbRace {
    /// The earlier-recorded access.
    pub a: RaceSite,
    /// The later-recorded access.
    pub b: RaceSite,
}

impl fmt::Display for HbRace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "unordered {}/{} overlap on \"{}\":\n  a: {}\n  b: {}",
            self.a.access.kind.label(),
            self.b.access.kind.label(),
            self.a.access.path,
            self.a,
            self.b
        )
    }
}

/// A `0xA7` success ack sent while some of the acked shipment's shadow
/// extents had not physically reached the VFS.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AckViolation {
    /// The member's shadow extent the ack vouched for.
    pub obligation: FileAccess,
    /// Shipment sequence number the member bound the extent to.
    pub seq: u64,
    /// Acking task (the aggregator), if the event carried one.
    pub acker: Option<u64>,
    /// First unwritten byte range inside the obligated extent.
    pub missing: (u64, u64),
}

impl fmt::Display for AckViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let acker = match self.acker {
            Some(t) => format!("task {t}"),
            None => "<unlabeled>".to_string(),
        };
        write!(
            f,
            "ack for shipment seq {} sent by {} before bytes [{}, {}) of \"{}\" reached the \
             VFS (obligation: {})",
            self.seq, acker, self.missing.0, self.missing.1, self.obligation.path, self.obligation
        )
    }
}

/// Cap on retained races/violations — dense bugs repeat the same site;
/// the totals keep counting past the cap.
const KEEP: usize = 32;

#[derive(Default)]
struct HbState {
    /// The happens-before clocks, one epoch per event or access.
    core: ClockCore,
    /// Recorded accesses per path, in observation order.
    accesses: BTreeMap<String, Vec<RaceSite>>,
    /// Physically written byte intervals per path (start → end, merged).
    written: BTreeMap<String, BTreeMap<u64, u64>>,
    /// Shadow extents a task has written but not yet bound to a shipment.
    pending_shadow: BTreeMap<u64, Vec<FileAccess>>,
    /// Shipment obligations: `(comm, member local rank, seq)` → extents.
    obligations: BTreeMap<(u64, usize, u64), Vec<FileAccess>>,
    races: Vec<HbRace>,
    races_total: usize,
    acks: Vec<AckViolation>,
    acks_total: usize,
}

impl HbState {
    /// Record `[start, end)` as physically written at `path`, merging with
    /// adjacent/overlapping intervals.
    fn mark_written(&mut self, path: &str, start: u64, end: u64) {
        let iv = self.written.entry(path.to_string()).or_default();
        let mut s = start;
        let mut e = end;
        // Absorb every interval that overlaps or abuts [s, e).
        let keys: Vec<u64> = iv.range(..=e).map(|(&k, _)| k).collect();
        for k in keys {
            let ke = iv[&k];
            if ke >= s {
                s = s.min(k);
                e = e.max(ke);
                iv.remove(&k);
            }
        }
        iv.insert(s, e);
    }

    /// First sub-range of `[start, end)` at `path` not covered by physical
    /// writes, or `None` if fully covered.
    fn first_uncovered(&self, path: &str, start: u64, end: u64) -> Option<(u64, u64)> {
        let Some(iv) = self.written.get(path) else {
            return Some((start, end));
        };
        let mut at = start;
        while at < end {
            match iv.range(..=at).next_back() {
                Some((_, &ke)) if ke > at => at = ke,
                _ => {
                    let gap_end = iv.range(at..end).next().map(|(&k, _)| k).unwrap_or(end);
                    return Some((at, gap_end));
                }
            }
        }
        None
    }

    /// `task` sent `payload` on `chan`: a ship frame binds the member's
    /// pending shadow extents to its sequence number, a success ack checks
    /// that every bound extent is physically written.
    fn ship_or_ack(&mut self, task: u64, (comm, from, to, tag): Chan, payload: &[u8]) {
        let ns = tag & COLL_TAG_MASK;
        if ns == AGG_SHIP_TAG_PREFIX && payload.len() >= 8 {
            let seq = u64::from_le_bytes(payload[..8].try_into().expect("8 bytes"));
            let pending = self.pending_shadow.remove(&task).unwrap_or_default();
            self.obligations
                .entry((comm, from, seq))
                .or_default()
                .extend(pending);
        } else if ns == AGG_ACK_TAG_PREFIX && payload.len() >= 16 {
            let seq = u64::from_le_bytes(payload[..8].try_into().expect("8 bytes"));
            let status = u64::from_le_bytes(payload[8..16].try_into().expect("8 bytes"));
            // `to` is the member being acked; a failed channel (nonzero
            // status) promises no durability.
            let obligations = self
                .obligations
                .remove(&(comm, to, seq))
                .unwrap_or_default();
            for ob in obligations.into_iter().filter(|_| status == 0) {
                let missing = self.first_uncovered(&ob.path, ob.offset, ob.offset + ob.len);
                let Some(missing) = missing else { continue };
                self.acks_total += 1;
                if self.acks.len() < KEEP {
                    let v = AckViolation {
                        obligation: ob,
                        seq,
                        acker: Some(task),
                        missing,
                    };
                    self.acks.push(v);
                }
            }
        }
    }
}

/// The happens-before engine; see the module docs. Install the same
/// instance as (or among) the run's [`CheckHook`]s and as the tap in the
/// [`TapFs`](vfs::TapFs) the run does its I/O through.
#[derive(Default)]
pub struct HbEngine {
    inner: Mutex<HbState>,
}

impl HbEngine {
    pub fn new() -> HbEngine {
        HbEngine::default()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, HbState> {
        self.inner.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Races found so far, sorted for stable rendering.
    pub fn races(&self) -> Vec<HbRace> {
        let g = self.lock();
        let mut r = g.races.clone();
        r.sort_by(|x, y| (&x.a.access, &x.b.access).cmp(&(&y.a.access, &y.b.access)));
        r
    }

    /// Ack-durability violations found so far, sorted for stable rendering.
    pub fn ack_violations(&self) -> Vec<AckViolation> {
        let g = self.lock();
        let mut v = g.acks.clone();
        v.sort_by(|x, y| (&x.obligation, x.seq).cmp(&(&y.obligation, y.seq)));
        v
    }

    /// Whether any race or ack-durability violation was recorded.
    pub fn is_clean(&self) -> bool {
        let g = self.lock();
        g.races_total == 0 && g.acks_total == 0
    }

    /// Deterministic rendering of every finding. `ctx` names the run (the
    /// `ScheduleCfg` that replays it); byte-identical across replays of
    /// the same schedule.
    pub fn stable_report(&self, ctx: &str) -> String {
        let races = self.races();
        let acks = self.ack_violations();
        let g = self.lock();
        let mut out = String::new();
        out.push_str(&format!(
            "hb report ({ctx}): {} race(s), {} ack-durability violation(s)\n",
            g.races_total, g.acks_total
        ));
        drop(g);
        for (i, r) in races.iter().enumerate() {
            out.push_str(&format!("race {}: {r}\n", i + 1));
        }
        for (i, v) in acks.iter().enumerate() {
            out.push_str(&format!("violation {}: {v}\n", i + 1));
        }
        out
    }

    /// Panic with the [`stable_report`](Self::stable_report) unless the
    /// run was race- and violation-free.
    pub fn assert_race_free(&self, ctx: &str) {
        if !self.is_clean() {
            panic!("simcheck hb: {}", self.stable_report(ctx));
        }
    }
}

impl CheckHook for HbEngine {
    fn on_event(&self, ev: &HookEvent<'_>) {
        // A finish carries its task; every other event is the acting rank's.
        if let HookEvent::TaskFinish { task, .. } = *ev {
            self.lock().core.epoch(task as u64, &[]);
            return;
        }
        let Some(edge) = Edge::of(ev) else { return };
        let Some(task) = vfs::guard::current_writer() else {
            return;
        };
        let mut g = self.lock();
        g.core.epoch(task, &[edge]);
        if let (Edge::Send(chan), HookEvent::Send { payload, .. }) = (edge, *ev) {
            g.ship_or_ack(task, chan, payload);
        }
    }
}

impl AccessSink for HbEngine {
    fn on_access(&self, access: &FileAccess) {
        let task = access.task;
        let mut g = self.lock();
        let clock = g.core.epoch(task, &[]).clone();
        let site = RaceSite {
            access: access.clone(),
            clock,
        };
        match access.kind {
            AccessKind::Write => {
                g.mark_written(&access.path, access.offset, access.offset + access.len);
            }
            AccessKind::ShadowWrite => {
                g.pending_shadow
                    .entry(task)
                    .or_default()
                    .push(access.clone());
            }
            AccessKind::Read => {}
        }
        // Race check against every prior conflicting access of the path.
        // Prior sites were recorded (under this lock) before `site`, so the
        // only possible ordering is prior-happens-before-site; absent that
        // edge the pair is concurrent.
        let prior = g.accesses.entry(access.path.clone()).or_default();
        let mut found: Vec<HbRace> = Vec::new();
        for p in prior.iter() {
            if p.access.task != task
                && p.access.conflicts(&site.access)
                && p.clock.get(p.access.task) > site.clock.get(p.access.task)
            {
                found.push(HbRace {
                    a: p.clone(),
                    b: site.clone(),
                });
            }
        }
        prior.push(site);
        g.races_total += found.len();
        let room = KEEP.saturating_sub(g.races.len());
        g.races.extend(found.into_iter().take(room));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simmpi::{CollKind, CommCtx};
    use std::sync::Arc;

    fn ctx(name: &str, size: usize) -> CommCtx {
        CommCtx {
            id: 0x1000 + size as u64,
            name: name.into(),
            size,
        }
    }

    fn access(task: u64, kind: AccessKind, offset: u64, len: u64) -> FileAccess {
        FileAccess {
            path: "f".into(),
            kind,
            task,
            offset,
            len,
        }
    }

    /// Drive hook events as if `task` were the acting rank: the engine
    /// reads the thread's task label, which a runtime sets on the thread it
    /// runs a rank on.
    fn as_task<R>(task: u64, f: impl FnOnce() -> R) -> R {
        vfs::guard::set_task(task);
        let r = f();
        vfs::guard::clear_task();
        r
    }

    fn send(eng: &HbEngine, comm: &CommCtx, from: usize, to: usize, tag: u64, payload: &[u8]) {
        eng.on_event(&HookEvent::Send {
            comm,
            from,
            to,
            tag,
            payload,
        });
    }

    #[test]
    fn unordered_overlapping_writes_race() {
        let eng = Arc::new(HbEngine::new());
        eng.on_access(&access(0, AccessKind::Write, 0, 10));
        eng.on_access(&access(1, AccessKind::Write, 5, 10));
        let races = eng.races();
        assert_eq!(races.len(), 1, "{races:?}");
        assert_eq!(races[0].a.access.task, 0);
        assert_eq!(races[0].b.access.task, 1);
        assert!(!eng.is_clean());
        let report = eng.stable_report("test");
        assert!(report.contains("unordered write/write overlap"), "{report}");
        assert_eq!(report, eng.stable_report("test"));
    }

    #[test]
    fn disjoint_or_same_task_accesses_do_not_race() {
        let eng = HbEngine::new();
        eng.on_access(&access(0, AccessKind::Write, 0, 10));
        eng.on_access(&access(1, AccessKind::Write, 10, 10)); // adjacent, disjoint
        eng.on_access(&access(0, AccessKind::Write, 5, 5)); // same task
        eng.on_access(&access(2, AccessKind::Read, 40, 8));
        eng.on_access(&access(3, AccessKind::Read, 40, 8)); // read/read
        eng.assert_race_free("test");
    }

    #[test]
    fn a_message_edge_orders_the_writes() {
        let eng = Arc::new(HbEngine::new());
        let c = ctx("world", 2);
        eng.on_access(&access(0, AccessKind::Write, 0, 10));
        as_task(0, || send(&eng, &c, 0, 1, 7, b"go"));
        as_task(1, || {
            let (comm, payload) = (&c, b"go".as_slice());
            eng.on_event(&HookEvent::RecvDone {
                comm,
                rank: 1,
                src: 0,
                tag: 7,
                payload,
            })
        });
        eng.on_access(&access(1, AccessKind::Write, 5, 10));
        eng.assert_race_free("test");
        // ... but an access the sender makes *after* the send is not
        // ordered before the receiver's.
        eng.on_access(&access(0, AccessKind::Write, 100, 8));
        eng.on_access(&access(1, AccessKind::Write, 100, 8));
        assert_eq!(eng.races().len(), 1);
    }

    #[test]
    fn collective_brackets_order_across_the_barrier() {
        let eng = Arc::new(HbEngine::new());
        let c = ctx("world", 2);
        let (kind, comm) = (CollKind::Barrier, &c);
        let enter = |rank| {
            eng.on_event(&HookEvent::Collective {
                comm,
                rank,
                seq: 1,
                kind,
                root: None,
            })
        };
        let exit = |rank| eng.on_event(&HookEvent::CollectiveDone { comm, rank, seq: 1 });
        eng.on_access(&access(0, AccessKind::Write, 0, 10));
        as_task(0, || enter(0));
        as_task(1, || enter(1));
        as_task(0, || exit(0));
        as_task(1, || exit(1));
        eng.on_access(&access(1, AccessKind::Write, 0, 10));
        eng.assert_race_free("test");
    }

    #[test]
    fn shadow_vs_physical_is_exempt_but_shadow_vs_shadow_races() {
        let eng = HbEngine::new();
        eng.on_access(&access(1, AccessKind::ShadowWrite, 0, 64));
        eng.on_access(&access(0, AccessKind::Write, 0, 64)); // aggregator replay
        eng.assert_race_free("test");
        eng.on_access(&access(2, AccessKind::ShadowWrite, 32, 64)); // overlaps member 1
        assert_eq!(eng.races().len(), 1);
    }

    #[test]
    fn ack_before_physical_write_is_a_violation() {
        let eng = Arc::new(HbEngine::new());
        let c = ctx("lcom", 2);
        let mut ship = 5u64.to_le_bytes().to_vec(); // seq 5
        ship.extend_from_slice(b"ops");
        let ok_ack: Vec<u8> = [5u64.to_le_bytes(), 0u64.to_le_bytes()].concat();
        // Member (local rank 1) shadow-writes, ships; aggregator (local 0)
        // acks WITHOUT writing.
        eng.on_access(&access(1, AccessKind::ShadowWrite, 0, 64));
        as_task(1, || send(&eng, &c, 1, 0, AGG_SHIP_TAG_PREFIX | 1, &ship));
        as_task(0, || send(&eng, &c, 0, 1, AGG_ACK_TAG_PREFIX | 1, &ok_ack));
        let v = eng.ack_violations();
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].seq, 5);
        assert_eq!(v[0].missing, (0, 64));
        assert!(eng.stable_report("s").contains("before bytes [0, 64)"));
    }

    #[test]
    fn ack_after_covering_writes_is_clean_even_with_gappy_merging() {
        let eng = Arc::new(HbEngine::new());
        let c = ctx("lcom", 2);
        let ship = 0u64.to_le_bytes().to_vec();
        let ok_ack: Vec<u8> = [0u64.to_le_bytes(), 0u64.to_le_bytes()].concat();
        eng.on_access(&access(1, AccessKind::ShadowWrite, 10, 20));
        as_task(1, || send(&eng, &c, 1, 0, AGG_SHIP_TAG_PREFIX, &ship));
        // Aggregator covers [10, 30) in two out-of-order pieces.
        eng.on_access(&access(0, AccessKind::Write, 20, 10));
        eng.on_access(&access(0, AccessKind::Write, 5, 15));
        as_task(0, || send(&eng, &c, 0, 1, AGG_ACK_TAG_PREFIX, &ok_ack));
        assert!(eng.is_clean(), "{}", eng.stable_report("s"));
    }

    #[test]
    fn failed_channel_acks_promise_nothing() {
        let eng = Arc::new(HbEngine::new());
        let c = ctx("lcom", 2);
        let ship = 1u64.to_le_bytes().to_vec();
        let bad_ack: Vec<u8> = [1u64.to_le_bytes(), 9u64.to_le_bytes()].concat();
        eng.on_access(&access(1, AccessKind::ShadowWrite, 0, 8));
        as_task(1, || send(&eng, &c, 1, 0, AGG_SHIP_TAG_PREFIX, &ship));
        as_task(0, || send(&eng, &c, 0, 1, AGG_ACK_TAG_PREFIX, &bad_ack));
        assert!(eng.is_clean());
    }

    #[test]
    fn interval_merge_covers_exactly() {
        let mut st = HbState::default();
        st.mark_written("p", 0, 10);
        st.mark_written("p", 20, 30);
        assert_eq!(st.first_uncovered("p", 0, 30), Some((10, 20)));
        st.mark_written("p", 10, 20); // bridges the gap
        assert_eq!(st.first_uncovered("p", 0, 30), None);
        assert_eq!(st.first_uncovered("p", 29, 31), Some((30, 31)));
        assert_eq!(st.first_uncovered("q", 0, 1), Some((0, 1)));
    }

    /// Task C (2) sends `r` to A (0); in one step A sends `m` to B (1) and
    /// then receives `r`; later B receives `m`. As one step epoch, A's send
    /// carries what A received in the same step, so B is ordered after C's
    /// send; as one epoch per event, the send came before the receive and
    /// B is not. This is why DPOR and the race engine cut epochs
    /// differently over the same core.
    #[test]
    fn step_epochs_order_what_event_epochs_keep_apart() {
        let (a, b, c) = (0u64, 1u64, 2u64);
        let (r, m): (Chan, Chan) = ((9, 2, 0, 1), (9, 0, 1, 2));
        let mut steps = ClockCore::default();
        let sent = steps.epoch(c, &[Edge::Send(r)]).get(c);
        steps.epoch(a, &[Edge::Send(m), Edge::Recv(r)]);
        let b_clock = steps.epoch(b, &[Edge::Recv(m)]);
        assert!(
            b_clock.get(c) >= sent,
            "step epochs: B after C's send, {b_clock}"
        );

        let mut events = ClockCore::default();
        events.epoch(c, &[Edge::Send(r)]);
        events.epoch(a, &[Edge::Send(m)]);
        assert!(
            events.epoch(a, &[Edge::Recv(r)]).get(c) >= sent,
            "A is after C's send"
        );
        let b_clock = events.epoch(b, &[Edge::Recv(m)]);
        assert!(
            b_clock.get(c) < sent,
            "event epochs: B unordered with C, {b_clock}"
        );
    }
}
