//! [`Faults`]: deterministic failure injection, as a [`Tap`].
//!
//! Listed in a [`TapFs`](crate::TapFs) it injects failures on selected
//! operations of the wrapped file system. The SIONlib reproduction uses
//! this to verify that storage errors during collective operations surface
//! as clean errors on *every* task instead of deadlocks, and — via the
//! crash-consistency harness in `crates/sion/tests/crash_consistency.rs` —
//! that the rescue/repair path recovers a consistent prefix of every
//! task's data no matter where a crash lands.
//!
//! All mechanisms are deterministic: they trigger on operation *counters*
//! (global sequence numbers or per-kind occurrence numbers), never on time
//! or randomness, so a failing case is reproducible from its trigger point
//! alone. Harnesses that want randomized coverage derive trigger points
//! from their own seeded RNG and sweep them.
//!
//! ## Knobs
//!
//! * **Rules** ([`inject`](Faults::inject)): fail occurrences
//!   `from..from+count` of one [`FaultKind`] (counted per kind). With a
//!   small `count` this models *transient* `EIO`-style errors that a retry
//!   would get past; with `count = u64::MAX` it models a persistently
//!   broken operation.
//! * **Crash** ([`crash_after_ops`](Faults::crash_after_ops)): a kill
//!   switch at global operation sequence number N — every op from N on
//!   fails, simulating the process (or node) dying at that instant. Ops are
//!   atomic at the VFS-call boundary: the op *before* the switch completed
//!   fully, everything after persists nothing.
//! * **Torn write** ([`crash_torn_write`](Faults::crash_torn_write)): like
//!   the crash switch, but the write op *at* the switch persists only a
//!   prefix of its buffer before erroring — a torn/short write, the way a
//!   real crash can leave a partially persisted sector sequence.
//! * **Quota** ([`set_quota`](Faults::set_quota)): after K bytes have been
//!   persisted through writes, further writes fail; the write crossing the
//!   boundary persists exactly up to the quota (short write), mirroring how
//!   `EDQUOT` hits mid-`write(2)`. This is the paper's "file quota
//!   violation" failure.
//! * **Op log** ([`take_log`](Faults::take_log)): every operation —
//!   successful, failed, or torn, whether this tap or anything below it
//!   failed it — is recorded with its global sequence number, path,
//!   offset, length and persisted byte count. Tests use it to assert
//!   ordering invariants such as "no rescue-header patch after a failed
//!   data flush", and to count creates and bytes.
//!
//! [`clear`](Faults::clear) disarms everything (rules, crash switch,
//! quota) so a harness can stop injecting and run recovery over the same
//! image.
//!
//! Shadow ops are logical, not physical I/O: they pass through unnumbered
//! and unlogged. Every slice of a vectored write is its own op and no read
//! lease is served past this tap (see [`Tap::injects`]).

use crate::tap::{Next, Op, OpKind, Tap};
use parking_lot::Mutex;
use std::io;
use std::sync::atomic::{AtomicU64, Ordering::SeqCst};
use std::sync::Arc;

/// Which operations a fault rule applies to.
pub use crate::tap::OpKind as FaultKind;

/// A single injection rule: fail occurrences `from..from+count` (0-based,
/// counted per kind) of the given kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultRule {
    /// Operation kind the rule applies to.
    pub kind: FaultKind,
    /// First occurrence (per kind) to fail.
    pub from: u64,
    /// Number of consecutive occurrences to fail (`u64::MAX` = forever).
    pub count: u64,
}

/// One entry of the operation log: what was attempted and what happened.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OpRecord {
    /// Global sequence number of the operation (across all kinds).
    pub seq: u64,
    /// Operation kind.
    pub kind: FaultKind,
    /// Normalized path of the file the operation targeted.
    pub path: String,
    /// Byte offset (0 for namespace ops and `sync`; new length for
    /// `set_len`).
    pub offset: u64,
    /// Bytes requested (reads/writes; 0 otherwise).
    pub len: u64,
    /// Bytes actually persisted (writes only; `< len` for torn/quota-cut
    /// writes, 0 for clean failures).
    pub persisted: u64,
    /// Whether the operation succeeded.
    pub ok: bool,
}

/// Sentinel for "disarmed" in the crash/quota atomics.
const DISARMED: u64 = u64::MAX;

/// The failure-injecting tap. See the module docs for the available
/// knobs; one instance serves the namespace and every file opened through
/// it, so knobs armed after a file is opened still apply to it and
/// counters are global.
pub struct Faults {
    rules: Mutex<Vec<FaultRule>>,
    /// Occurrences seen per kind, indexed by `OpKind as usize`.
    seen: [AtomicU64; 6],
    /// Global operation sequence counter (all kinds).
    ops: AtomicU64,
    /// Global op number from which everything fails; [`DISARMED`] = off.
    crash_at: AtomicU64,
    /// Bytes the write op *at* `crash_at` persists before erroring
    /// ([`DISARMED`] = the op at the switch fails cleanly, persisting
    /// nothing).
    crash_keep: AtomicU64,
    /// Total write bytes allowed before quota failures; [`DISARMED`] = off.
    quota: AtomicU64,
    /// Write bytes persisted so far (quota accounting).
    written: AtomicU64,
    /// Serializes the quota check-then-write so a racing write cannot
    /// overshoot the quota.
    quota_lock: Mutex<()>,
    log: Mutex<Vec<OpRecord>>,
}

impl Faults {
    /// A fault tap with nothing armed.
    pub fn new() -> Arc<Faults> {
        Arc::new(Faults {
            rules: Mutex::default(),
            seen: Default::default(),
            ops: AtomicU64::new(0),
            crash_at: AtomicU64::new(DISARMED),
            crash_keep: AtomicU64::new(DISARMED),
            quota: AtomicU64::new(DISARMED),
            written: AtomicU64::new(0),
            quota_lock: Mutex::default(),
            log: Mutex::default(),
        })
    }

    /// Add an injection rule (transient or persistent per-kind failures).
    pub fn inject(&self, rule: FaultRule) {
        self.rules.lock().push(rule);
    }

    /// Disarm everything: rules, crash switch, quota. The op log and the
    /// counters are left intact (recovery code running afterwards keeps
    /// appending to the same log).
    pub fn clear(&self) {
        self.rules.lock().clear();
        self.crash_at.store(DISARMED, SeqCst);
        self.crash_keep.store(DISARMED, SeqCst);
        self.quota.store(DISARMED, SeqCst);
    }

    /// Arm the kill switch: every operation with global sequence number
    /// `>= n` fails, simulating a crash after exactly `n` completed ops.
    /// `crash_after_ops(0)` fails everything from now on.
    pub fn crash_after_ops(&self, n: u64) {
        self.crash_keep.store(DISARMED, SeqCst);
        self.crash_at.store(n, SeqCst);
    }

    /// Arm the kill switch with a torn final write: ops `> n` fail
    /// cleanly, and if op `n` is a write it persists only the first `keep`
    /// bytes of its buffer before erroring (a short/torn write). A non-write
    /// op at `n` fails cleanly.
    pub fn crash_torn_write(&self, n: u64, keep: u64) {
        self.crash_keep.store(keep, SeqCst);
        self.crash_at.store(n, SeqCst);
    }

    /// Arm the byte quota: once `bytes` have been persisted through writes
    /// (counted across the whole namespace since construction), further
    /// writes fail; the write crossing the boundary persists exactly up to
    /// the quota and then errors, like `EDQUOT` mid-write.
    pub fn set_quota(&self, bytes: u64) {
        self.quota.store(bytes, SeqCst);
    }

    /// Total operations seen so far (the next op gets this sequence
    /// number). Run a workload once with nothing armed to learn its op
    /// count, then sweep [`crash_after_ops`](Self::crash_after_ops) over
    /// `0..=op_count()`.
    pub fn op_count(&self) -> u64 {
        self.ops.load(SeqCst)
    }

    /// Bytes persisted through writes so far (the quota accounting).
    pub fn bytes_written(&self) -> u64 {
        self.written.load(SeqCst)
    }

    /// Drain and return the op log accumulated so far.
    pub fn take_log(&self) -> Vec<OpRecord> {
        std::mem::take(&mut *self.log.lock())
    }

    /// How many leading bytes of op `seq` (occurrence `nth` of its kind)
    /// may pass, and the error the op ends in if that is not all of it.
    fn verdict(&self, op: &Op<'_>, seq: u64, nth: u64, quota: u64) -> (u64, Option<io::Error>) {
        let refuse = |keep, msg| (keep, Some(io::Error::other(msg)));
        let crash_at = self.crash_at.load(SeqCst);
        if seq >= crash_at {
            let keep = self.crash_keep.load(SeqCst);
            if op.kind == OpKind::Write && seq == crash_at && keep != DISARMED {
                let (keep, of) = (keep.min(op.len), op.len);
                let msg =
                    format!("injected torn write: {keep} of {of} bytes persisted at op #{seq}");
                return refuse(keep, msg);
            }
            return refuse(
                0,
                format!("injected crash: op #{seq} (crash point {crash_at})"),
            );
        }
        let hit = |r: &FaultRule| r.kind == op.kind && nth >= r.from && nth - r.from < r.count;
        if self.rules.lock().iter().any(hit) {
            return refuse(0, format!("injected fault: {:?} #{nth}", op.kind));
        }
        if op.kind == OpKind::Write && quota != DISARMED {
            let room = quota.saturating_sub(self.written.load(SeqCst));
            if op.len > room {
                let of = op.len;
                let msg = format!(
                    "injected quota exceeded: {room} of {of} bytes persisted (quota {quota})"
                );
                return refuse(room, msg);
            }
        }
        (op.len, None)
    }
}

impl Tap for Faults {
    fn injects(&self) -> bool {
        true
    }

    fn around(&self, op: &Op<'_>, next: Next<'_>) -> io::Result<u64> {
        if op.shadow {
            return next(op.len);
        }
        let seq = self.ops.fetch_add(1, SeqCst);
        let nth = self.seen[op.kind as usize].fetch_add(1, SeqCst);
        let quota = self.quota.load(SeqCst);
        let _one_writer =
            (op.kind == OpKind::Write && quota != DISARMED).then(|| self.quota_lock.lock());
        let (allow, refusal) = self.verdict(op, seq, nth, quota);
        // A refused op still persists its allowed prefix (torn write,
        // quota); whatever happens below, the op leaves a log record.
        let moved = if refusal.is_some() && allow == 0 {
            Ok(0)
        } else {
            next(allow)
        };
        let persisted = match (op.kind, &moved) {
            (OpKind::Write, Ok(n)) => *n,
            _ => 0,
        };
        self.written.fetch_add(persisted, SeqCst);
        let result = moved.and_then(|n| refusal.map_or(Ok(n), Err));
        self.log.lock().push(OpRecord {
            seq,
            kind: op.kind,
            path: op.path.to_string(),
            offset: op.offset,
            len: op.len,
            persisted,
            ok: result.is_ok(),
        });
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{IoSlice, MemFs, TapFs, Vfs};

    fn faulty() -> (TapFs, Arc<Faults>) {
        let faults = Faults::new();
        (
            TapFs::new(Arc::new(MemFs::new()), vec![faults.clone()]),
            faults,
        )
    }

    #[test]
    fn create_faults_fire_at_the_right_occurrence() {
        let (fs, faults) = faulty();
        faults.inject(FaultRule {
            kind: FaultKind::Create,
            from: 1,
            count: 1,
        });
        assert!(fs.create("a").is_ok());
        assert!(fs.create("b").is_err()); // occurrence #1
        assert!(fs.create("c").is_ok());
    }

    #[test]
    fn write_faults_affect_open_files() {
        let (fs, faults) = faulty();
        faults.inject(FaultRule {
            kind: FaultKind::Write,
            from: 2,
            count: u64::MAX,
        });
        let f = fs.create("f").unwrap();
        assert!(f.write_at(b"one", 0).is_ok());
        assert!(f.write_at(b"two", 3).is_ok());
        assert!(f.write_at(b"three", 6).is_err());
        assert!(f.write_at(b"four", 6).is_err());
    }

    #[test]
    fn clear_stops_injection() {
        let (fs, faults) = faulty();
        faults.inject(FaultRule {
            kind: FaultKind::Open,
            from: 0,
            count: u64::MAX,
        });
        fs.create("x").unwrap();
        assert!(fs.open("x").is_err());
        faults.clear();
        assert!(fs.open("x").is_ok());
    }

    #[test]
    fn reads_fault_independently_of_writes() {
        let (fs, faults) = faulty();
        faults.inject(FaultRule {
            kind: FaultKind::Read,
            from: 0,
            count: 1,
        });
        let f = fs.create("r").unwrap();
        f.write_all_at(b"data", 0).unwrap();
        let mut buf = [0u8; 4];
        assert!(f.read_at(&mut buf, 0).is_err());
        assert!(f.read_at(&mut buf, 0).is_ok());
    }

    #[test]
    fn crash_switch_kills_everything_from_op_n() {
        let (fs, faults) = faulty();
        let f = fs.create("c").unwrap(); // op 0
        f.write_all_at(b"aaaa", 0).unwrap(); // op 1
        faults.crash_after_ops(faults.op_count() + 1); // one more op allowed
        f.write_all_at(b"bbbb", 4).unwrap(); // op 2 — last surviving op
        assert!(f.write_all_at(b"cccc", 8).is_err());
        assert!(f.sync().is_err());
        assert!(fs.open("c").is_err());
        let mut buf = [0u8; 4];
        assert!(f.read_at(&mut buf, 0).is_err());
        // The image holds exactly what completed before the switch.
        faults.clear();
        let g = fs.open("c").unwrap();
        let mut back = [0u8; 8];
        g.read_exact_at(&mut back, 0).unwrap();
        assert_eq!(&back, b"aaaabbbb");
    }

    #[test]
    fn torn_write_persists_prefix_then_errors() {
        let (fs, faults) = faulty();
        let f = fs.create("t").unwrap(); // op 0
        faults.crash_torn_write(1, 3); // op 1 is a torn write keeping 3 bytes
        assert!(f.write_all_at(b"abcdef", 0).is_err());
        assert!(f.write_all_at(b"x", 0).is_err(), "ops after the crash fail");
        faults.clear();
        let g = fs.open("t").unwrap();
        assert_eq!(g.len().unwrap(), 3, "only the torn prefix persisted");
        let mut back = [0u8; 3];
        g.read_exact_at(&mut back, 0).unwrap();
        assert_eq!(&back, b"abc");
    }

    #[test]
    fn quota_cuts_the_crossing_write_short() {
        let (fs, faults) = faulty();
        faults.set_quota(10);
        let f = fs.create("q").unwrap();
        f.write_all_at(b"12345678", 0).unwrap(); // 8 of 10
        let err = f.write_all_at(b"abcdef", 8).unwrap_err();
        assert!(err.to_string().contains("quota"), "{err}");
        assert_eq!(faults.bytes_written(), 10);
        // Subsequent writes fail too: the quota stays exhausted.
        assert!(f.write_all_at(b"z", 20).is_err());
        assert_eq!(f.len().unwrap(), 10, "exactly the quota persisted");
        let mut back = [0u8; 10];
        f.read_exact_at(&mut back, 0).unwrap();
        assert_eq!(&back, b"12345678ab");
    }

    #[test]
    fn vectored_write_logs_one_record_per_slice_and_tears_mid_iovec() {
        let (fs, faults) = faulty();
        let f = fs.create("vt").unwrap(); // op 0
                                          // Op 1 = slice "aaaa"; op 2 = slice "bbbb", torn after 2 bytes;
                                          // any later slice fails cleanly past the crash point.
        faults.crash_torn_write(2, 2);
        let err = f
            .write_vectored_at(
                &[
                    IoSlice::new(b"aaaa"),
                    IoSlice::new(b"bbbb"),
                    IoSlice::new(b"cccc"),
                ],
                0,
            )
            .unwrap_err();
        assert!(err.to_string().contains("torn"), "{err}");
        faults.clear();
        let g = fs.open("vt").unwrap();
        assert_eq!(g.len().unwrap(), 6, "first slice + torn prefix of second");
        let mut back = [0u8; 6];
        g.read_exact_at(&mut back, 0).unwrap();
        assert_eq!(&back, b"aaaabb");
        // One log record per submitted slice, at the slice's own offset.
        let log = faults.take_log();
        let writes: Vec<&OpRecord> = log.iter().filter(|r| r.kind == FaultKind::Write).collect();
        assert_eq!(writes.len(), 2, "third slice was never admitted as a write");
        assert_eq!(
            (writes[0].offset, writes[0].persisted, writes[0].ok),
            (0, 4, true)
        );
        assert_eq!(
            (writes[1].offset, writes[1].persisted, writes[1].ok),
            (4, 2, false)
        );
    }

    #[test]
    fn quota_cuts_vectored_write_mid_iovec() {
        let (fs, faults) = faulty();
        faults.set_quota(6);
        let f = fs.create("vq").unwrap();
        let err = f
            .write_vectored_at(&[IoSlice::new(b"1234"), IoSlice::new(b"5678")], 0)
            .unwrap_err();
        assert!(err.to_string().contains("quota"), "{err}");
        assert_eq!(f.len().unwrap(), 6, "exactly the quota persisted");
        let mut back = [0u8; 6];
        f.read_exact_at(&mut back, 0).unwrap();
        assert_eq!(&back, b"123456");
    }

    #[test]
    fn op_log_records_order_and_outcomes() {
        let (fs, faults) = faulty();
        let f = fs.create("log").unwrap();
        f.write_all_at(b"abc", 0).unwrap();
        faults.inject(FaultRule {
            kind: FaultKind::Write,
            from: 1,
            count: 1,
        });
        assert!(f.write_all_at(b"def", 3).is_err());
        f.sync().unwrap();
        let log = faults.take_log();
        let kinds: Vec<(FaultKind, bool)> = log.iter().map(|r| (r.kind, r.ok)).collect();
        assert_eq!(
            kinds,
            vec![
                (FaultKind::Create, true),
                (FaultKind::Write, true),
                (FaultKind::Write, false),
                (FaultKind::Sync, true),
            ]
        );
        // Sequence numbers are dense and ordered; the failed write
        // persisted nothing.
        assert!(log.windows(2).all(|w| w[0].seq < w[1].seq));
        assert_eq!(log[2].persisted, 0);
        assert_eq!(log[1].persisted, 3);
        assert_eq!(log[1].path, "log");
        // take_log drained it.
        assert!(faults.take_log().is_empty());
    }

    #[test]
    fn clear_disarms_crash_and_quota() {
        let (fs, faults) = faulty();
        faults.crash_after_ops(0);
        assert!(fs.create("x").is_err());
        faults.clear();
        let f = fs.create("x").unwrap();
        faults.set_quota(0);
        assert!(f.write_all_at(b"a", 0).is_err());
        faults.clear();
        f.write_all_at(b"a", 0).unwrap();
    }

    #[test]
    fn a_failure_below_the_tap_is_still_logged() {
        // Two fault taps stacked: the lower one fails write #0 while the
        // upper one has a quota armed. The upper op consumed a sequence
        // number, so it must leave a record although the error is not its own.
        let (upper, lower) = (Faults::new(), Faults::new());
        let fs = TapFs::new(Arc::new(MemFs::new()), vec![upper.clone(), lower.clone()]);
        lower.inject(FaultRule {
            kind: FaultKind::Write,
            from: 0,
            count: 1,
        });
        upper.set_quota(1 << 20);
        let f = fs.create("f").unwrap();
        assert!(f.write_at(b"abcd", 0).is_err());
        f.write_all_at(b"efgh", 4).unwrap();
        let log = upper.take_log();
        let seqs: Vec<u64> = log.iter().map(|r| r.seq).collect();
        assert_eq!(seqs, vec![0, 1, 2], "sequence numbers are dense: {log:?}");
        assert_eq!(
            (log[1].kind, log[1].ok, log[1].persisted),
            (FaultKind::Write, false, 0)
        );
        assert_eq!(
            (log[2].kind, log[2].ok, log[2].persisted),
            (FaultKind::Write, true, 4)
        );
        assert_eq!(upper.bytes_written(), 4);
        // The same holds for the prefix of a torn crash write.
        lower.inject(FaultRule {
            kind: FaultKind::Write,
            from: 2,
            count: 1,
        });
        upper.crash_torn_write(upper.op_count(), 2);
        assert!(f.write_at(b"ijkl", 8).is_err());
        let log = upper.take_log();
        assert_eq!(log.len(), 1, "{log:?}");
        assert_eq!((log[0].seq, log[0].ok, log[0].persisted), (3, false, 0));
    }

    #[test]
    fn unarmed_log_counts_metadata_and_data_ops() {
        // An unarmed tap is an op counter: creates, opens, bytes moved.
        let (fs, faults) = faulty();
        let f = fs.create("a").unwrap();
        f.write_all_at(b"hello", 0).unwrap();
        let g = fs.open("a").unwrap();
        let mut buf = [0u8; 5];
        g.read_exact_at(&mut buf, 0).unwrap();
        fs.remove("a").unwrap(); // not an op
        let log = faults.take_log();
        let of = |kind| {
            log.iter()
                .filter(|r| r.kind == kind && r.ok)
                .collect::<Vec<_>>()
        };
        assert_eq!(of(FaultKind::Create).len(), 1);
        assert_eq!(of(FaultKind::Open).len(), 1);
        assert_eq!(
            of(FaultKind::Write)
                .iter()
                .map(|r| r.persisted)
                .collect::<Vec<_>>(),
            [5]
        );
        assert_eq!(
            of(FaultKind::Read)
                .iter()
                .map(|r| r.len)
                .collect::<Vec<_>>(),
            [5]
        );
        assert_eq!((log.len(), faults.bytes_written()), (4, 5));
    }

    #[test]
    fn tapped_writes_stay_sparse_in_the_backend() {
        let mem = Arc::new(MemFs::with_block_size(4096));
        let fs = TapFs::new(mem.clone(), vec![Faults::new()]);
        fs.create("sparse")
            .unwrap()
            .write_all_at(b"x", 1 << 20)
            .unwrap();
        let st = mem.stats("sparse").unwrap();
        assert!(st.allocated < st.len);
    }
}
