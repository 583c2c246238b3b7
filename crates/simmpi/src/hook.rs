//! Instrumentation points for correctness analysis.
//!
//! The runtime reports to an external checker (the `simcheck` crate)
//! through one value, [`HookEvent`], handed to one method,
//! [`CheckHook::on_event`]. A runtime builds the event only when a hook is
//! installed, so a communicator without one takes one `Option` branch per
//! operation and nothing else.
//!
//! Hooks are observation-only. Several share one runtime slot as a
//! `Vec<Arc<dyn CheckHook>>`, which hands every event to each in list
//! order. The built-in [`Sanitizer`](crate::sanitize::Sanitizer) is a hook;
//! [`TaskWorld::run`](crate::TaskWorld::run) installs it when `SIMCHECK=1`
//! is set in the environment. A hook never decides which rank runs next:
//! interleaving control belongs to the task executor
//! ([`SchedPolicy::Serial`](crate::SchedPolicy::Serial) for seeded
//! schedules, a [`ScheduleDriver`](crate::ScheduleDriver) for systematic
//! exploration), which polls one rank at a time and decides deadlock by
//! exact quiescence. A hook that panics fails its rank; peers left waiting
//! on it are released by the same quiescence verdict.
//!
//! The reserved collective tag namespace also lives here. A collective
//! message tag packs, from the top: the `0xC3` reserved prefix byte, one
//! *op-kind* byte identifying the collective ([`CollKind`]), a 40-bit
//! per-communicator sequence number, and an 8-bit round — so a checker can
//! decode, from a pending tag alone, exactly which collective a blocked
//! rank is stuck inside.

use std::cell::Cell;
use std::sync::{Arc, OnceLock};

/// Top byte of the reserved collective tag namespace. User point-to-point
/// tags must keep their top byte different from `0xC3`.
pub const COLL_TAG_PREFIX: u64 = 0xC3 << 56;
/// Mask selecting the tag's top (namespace) byte.
pub const COLL_TAG_MASK: u64 = 0xFF << 56;

/// Top byte of the aggregation *shipment* namespace: a member task sending
/// a record-stream frame to its elected aggregator. Reserved like `0xC3` —
/// user sends into this namespace are rejected unless they run inside an
/// [`enter_agg_protocol`] scope.
///
/// Frame contract (stable; checkers decode it without depending on the
/// `sion` crate): payload is `[u64 seq (LE)] extent* [u64 END_OF_STREAM]?`
/// — the sequence number of this shipment on that member's channel, then
/// the extents (`[u64 file offset] [u64 len] [len bytes]`) the aggregator
/// writes, and on the member's last frame an `END_OF_STREAM` (`u64::MAX`)
/// word in an offset slot.
pub const AGG_SHIP_TAG_PREFIX: u64 = 0xA6 << 56;
/// Top byte of the aggregation *acknowledgement* namespace: the aggregator
/// confirming a shipment is durably applied. Payload contract (stable):
/// `[u64 seq (LE)] [u64 status (LE)]` — the acked shipment's sequence
/// number and `0` for success / nonzero for a failed channel.
pub const AGG_ACK_TAG_PREFIX: u64 = 0xA7 << 56;

/// Whether `tag` lies in the aggregation ship/ack namespaces
/// (`0xA6`/`0xA7` top byte).
pub fn is_agg_tag(tag: u64) -> bool {
    let ns = tag & COLL_TAG_MASK;
    ns == AGG_SHIP_TAG_PREFIX || ns == AGG_ACK_TAG_PREFIX
}

/// The collective operation kinds carried in the op-kind byte of reserved
/// tags and reported to check hooks. The discriminant is the wire code,
/// nonzero so that an all-zero byte is never a valid kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub enum CollKind {
    /// `barrier()`.
    Barrier = 1,
    /// `bcast(root)`.
    Bcast,
    /// `gather(root)` (gatherv semantics).
    Gather,
    /// `scatter(root)` (scatterv semantics).
    Scatter,
    /// `allgather()` (internally gather + bcast, both tagged `Allgather`).
    Allgather,
    /// `reduce_u64(root)` combining tree.
    Reduce,
    /// `split(color, key)` (internally an allgather, tagged `Split`).
    Split,
}

impl CollKind {
    /// Every kind in wire-code order, with its diagnostic name.
    const ALL: [(CollKind, &'static str); 7] = [
        (CollKind::Barrier, "barrier"),
        (CollKind::Bcast, "bcast"),
        (CollKind::Gather, "gather"),
        (CollKind::Scatter, "scatter"),
        (CollKind::Allgather, "allgather"),
        (CollKind::Reduce, "reduce"),
        (CollKind::Split, "split"),
    ];

    /// Wire encoding of the op-kind byte.
    pub fn code(self) -> u8 {
        self as u8
    }

    /// Inverse of [`code`](Self::code).
    pub fn from_code(code: u8) -> Option<CollKind> {
        Self::ALL
            .get(usize::from(code).checked_sub(1)?)
            .map(|&(kind, _)| kind)
    }

    /// Human-readable name for diagnostics.
    pub fn name(self) -> &'static str {
        Self::ALL[self as usize - 1].1
    }
}

/// Tag of an internal collective message: reserved prefix byte, op-kind
/// byte, 40-bit per-communicator sequence number, 8-bit round within the
/// collective.
pub(crate) fn coll_tag(kind: CollKind, seq: u64, round: u32) -> u64 {
    debug_assert!(round < 256, "collective round fits one byte");
    COLL_TAG_PREFIX | ((kind.code() as u64) << 48) | ((seq & 0x00FF_FFFF_FFFF) << 8) | round as u64
}

/// Decode a reserved collective tag into (kind, sequence number, round).
/// Returns `None` for tags outside the reserved namespace or with an
/// unknown op-kind byte.
pub fn decode_coll_tag(tag: u64) -> Option<(CollKind, u64, u8)> {
    if tag & COLL_TAG_MASK != COLL_TAG_PREFIX {
        return None;
    }
    let kind = CollKind::from_code(((tag >> 48) & 0xFF) as u8)?;
    Some((kind, (tag >> 8) & 0x00FF_FFFF_FFFF, (tag & 0xFF) as u8))
}

/// Whether `tag` lies in a reserved namespace: the `0xC3` collective
/// namespace (regardless of whether its op-kind byte decodes) or the
/// `0xA6`/`0xA7` aggregation ship/ack namespaces.
pub fn is_reserved_tag(tag: u64) -> bool {
    tag & COLL_TAG_MASK == COLL_TAG_PREFIX || is_agg_tag(tag)
}

/// Render a tag for diagnostics: decoded collective tags show kind, seq and
/// round; aggregation ship/ack tags name their namespace; user tags show
/// hex.
pub fn describe_tag(tag: u64) -> String {
    match decode_coll_tag(tag) {
        Some((kind, seq, round)) => format!("{}#{}:r{}", kind.name(), seq, round),
        None if tag & COLL_TAG_MASK == AGG_SHIP_TAG_PREFIX => format!("agg-ship:{tag:#x}"),
        None if tag & COLL_TAG_MASK == AGG_ACK_TAG_PREFIX => format!("agg-ack:{tag:#x}"),
        None if is_reserved_tag(tag) => format!("reserved:{tag:#x}"),
        None => format!("{tag:#x}"),
    }
}

/// Diagnostic text for a user send into a reserved tag namespace, shared
/// by the runtimes' panic messages and the sanitizer's findings so the
/// wording never drifts between them. The `0xC3` wording is pinned by
/// long-standing tests; the aggregation namespaces get their own wording.
pub(crate) fn reserved_tag_panic_text(tag: u64) -> &'static str {
    if is_agg_tag(tag) {
        "tags with top byte 0xA6/0xA7 are reserved for the aggregation ship/ack protocol"
    } else {
        "tags with top byte 0xC3 are reserved for internal collectives"
    }
}

thread_local! {
    static AGG_PROTOCOL_DEPTH: Cell<u32> = const { Cell::new(0) };
}

/// RAII marker placed around the aggregation protocol's own sends so the
/// runtimes can tell a legitimate ship/ack frame from a crafted user send
/// into the reserved `0xA6`/`0xA7` namespace. Scopes nest; the thread is
/// back outside the protocol once every scope has dropped.
///
/// Public (not `pub(crate)`) so protocol-conformance tests can emit frames
/// in the real namespaces.
#[must_use = "the scope ends when this guard drops"]
pub struct AggProtocolScope(());

impl Drop for AggProtocolScope {
    fn drop(&mut self) {
        AGG_PROTOCOL_DEPTH.with(|d| d.set(d.get() - 1));
    }
}

/// Enter an aggregation-protocol send scope on this thread (see
/// [`AggProtocolScope`]).
pub fn enter_agg_protocol() -> AggProtocolScope {
    AGG_PROTOCOL_DEPTH.with(|d| d.set(d.get() + 1));
    AggProtocolScope(())
}

/// Whether this thread is currently inside an [`enter_agg_protocol`] scope.
pub(crate) fn in_agg_protocol() -> bool {
    AGG_PROTOCOL_DEPTH.with(|d| d.get() > 0)
}

/// Whether a user-level send with `tag` must be rejected on this thread:
/// reserved namespaces are always off-limits, except that the aggregation
/// ship/ack namespaces are legal from inside an [`enter_agg_protocol`]
/// scope.
pub(crate) fn rejected_user_tag(tag: u64) -> bool {
    is_reserved_tag(tag) && !(is_agg_tag(tag) && in_agg_protocol())
}

/// Deterministic identity of one communicator, identical on every rank and
/// across runs (no pointers, no global counters — the name is derived
/// structurally from the split history, e.g. `world/s1.c0` for color 0 of
/// the first split of the world communicator).
#[derive(Debug, Clone)]
pub struct CommCtx {
    /// FNV-1a hash of `name` — a compact map key for checkers.
    pub id: u64,
    /// Structural name of the communicator.
    pub name: Arc<str>,
    /// Number of ranks.
    pub size: usize,
}

impl CommCtx {
    pub(crate) fn new(name: String, size: usize) -> CommCtx {
        let mut id = 0xcbf2_9ce4_8422_2325u64;
        for b in name.as_bytes() {
            id ^= *b as u64;
            id = id.wrapping_mul(0x0000_0100_0000_01B3);
        }
        CommCtx {
            id,
            name: name.into(),
            size,
        }
    }

    /// Derive the child context produced by `split` number `split_no` with
    /// color `color`.
    pub(crate) fn child(&self, split_no: u64, color: u64, size: usize) -> CommCtx {
        CommCtx::new(format!("{}/s{}.c{}", self.name, split_no, color), size)
    }
}

/// One message left unconsumed when a communicator handle was dropped.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct LeakedMsg {
    /// Sending rank (communicator-local).
    pub from: usize,
    /// Message tag.
    pub tag: u64,
    /// Payload length in bytes.
    pub len: usize,
}

/// Error payload of a rank still parked when its task world was torn down
/// (a deadlock, or peers waiting on a rank that failed). A checker should
/// treat `Aborted` results as secondary: the primary diagnosis is recorded
/// where the failure was detected.
#[derive(Debug)]
pub struct Aborted(pub String);

/// One observation a communicator runtime reports to its [`CheckHook`].
/// Borrowed slices (payloads, leak lists) must not be retained past the
/// [`on_event`](CheckHook::on_event) call.
#[derive(Debug, Clone, Copy)]
pub enum HookEvent<'a> {
    /// A rank entered a collective: communicator, local rank, the ordinal
    /// sequence number of the collective on that communicator, the
    /// operation kind, and its root (`None` for unrooted collectives).
    Collective {
        comm: &'a CommCtx,
        rank: usize,
        seq: u64,
        kind: CollKind,
        root: Option<usize>,
    },
    /// A message (user or internal, including reserved-namespace frames)
    /// was pushed into `to`'s mailbox. The payload lets ordering checkers
    /// decode protocol frames (see [`AGG_SHIP_TAG_PREFIX`] for the ship/ack
    /// framing contract) without copying.
    Send {
        comm: &'a CommCtx,
        from: usize,
        to: usize,
        tag: u64,
        payload: &'a [u8],
    },
    /// A receive completed on `rank` with a matched message from `src`.
    /// Reported for blocking receives and for successful `try_recv`, on user
    /// and internal messages alike.
    RecvDone {
        comm: &'a CommCtx,
        rank: usize,
        src: usize,
        tag: u64,
        payload: &'a [u8],
    },
    /// A `try_recv` poll ran on `rank` for `(src, tag)` and either matched
    /// (`hit`, followed by [`RecvDone`](Self::RecvDone)) or found nothing.
    /// Makes polling drains visible as discrete events instead of opaque
    /// spins.
    TryRecv {
        comm: &'a CommCtx,
        rank: usize,
        src: usize,
        tag: u64,
        hit: bool,
    },
    /// A user-level send attempted to use a tag inside a reserved
    /// namespace. The runtime panics right after the hook returns; hooks
    /// may panic themselves with a richer diagnostic.
    ReservedTag {
        comm: &'a CommCtx,
        rank: usize,
        dest: usize,
        tag: u64,
    },
    /// A communicator handle was dropped with unconsumed messages.
    Teardown {
        comm: &'a CommCtx,
        rank: usize,
        leaked: &'a [LeakedMsg],
    },
    /// A task's closure returned (or panicked), reported after the task's
    /// world communicator was dropped.
    TaskFinish { task: usize, panicked: bool },
}

/// What the communicator runtime reports to: every observation arrives as
/// one [`HookEvent`]. A hook that detects a violation reports it by
/// panicking on the rank that caused the event (the runtime makes no
/// attempt to continue past a hook panic).
pub trait CheckHook: Send + Sync {
    /// One observation; a hook matches the kinds it checks and ignores the
    /// rest.
    fn on_event(&self, ev: &HookEvent<'_>);
}

/// Several hooks in one runtime slot (a schedule recorder, a sanitizer, a
/// happens-before engine): every event reaches each hook in list order.
impl CheckHook for Vec<Arc<dyn CheckHook>> {
    fn on_event(&self, ev: &HookEvent<'_>) {
        for h in self {
            h.on_event(ev);
        }
    }
}

/// Whether `SIMCHECK=1` (or any value other than `0`/empty) is set in the
/// environment. Read once per process.
pub fn simcheck_env_enabled() -> bool {
    static ENABLED: OnceLock<bool> = OnceLock::new();
    *ENABLED.get_or_init(|| {
        std::env::var("SIMCHECK")
            .map(|v| !v.is_empty() && v != "0")
            .unwrap_or(false)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coll_tags_roundtrip_and_stay_reserved() {
        for kind in [
            CollKind::Barrier,
            CollKind::Bcast,
            CollKind::Gather,
            CollKind::Scatter,
            CollKind::Allgather,
            CollKind::Reduce,
            CollKind::Split,
        ] {
            for seq in [0u64, 1, 0x00FF_FFFF_FFFF] {
                for round in [0u32, 1, 255] {
                    let tag = coll_tag(kind, seq, round);
                    assert!(is_reserved_tag(tag));
                    assert_eq!(decode_coll_tag(tag), Some((kind, seq, round as u8)));
                }
            }
        }
    }

    #[test]
    fn user_tags_do_not_decode() {
        assert_eq!(decode_coll_tag(0), None);
        assert_eq!(decode_coll_tag(0x0A11_70A1), None);
        assert_eq!(decode_coll_tag(!COLL_TAG_MASK), None);
        // Reserved prefix with a bogus kind byte: reserved but undecodable.
        assert!(is_reserved_tag(COLL_TAG_PREFIX));
        assert_eq!(decode_coll_tag(COLL_TAG_PREFIX), None);
    }

    #[test]
    fn comm_ctx_names_are_structural() {
        let w = CommCtx::new("world".into(), 4);
        let c = w.child(1, 0, 2);
        assert_eq!(&*c.name, "world/s1.c0");
        assert_eq!(c.size, 2);
        assert_ne!(c.id, w.id);
        // Same derivation on another rank gives the same identity.
        let c2 = w.child(1, 0, 2);
        assert_eq!(c2.id, c.id);
    }

    #[test]
    fn tag_description_decodes_collectives() {
        let t = coll_tag(CollKind::Gather, 7, 0);
        assert_eq!(describe_tag(t), "gather#7:r0");
        assert_eq!(describe_tag(0x2A), "0x2a");
    }

    #[test]
    fn agg_namespaces_are_reserved_and_described() {
        let ship = AGG_SHIP_TAG_PREFIX | 0x42;
        let ack = AGG_ACK_TAG_PREFIX | 0x42;
        assert!(is_agg_tag(ship) && is_agg_tag(ack));
        assert!(is_reserved_tag(ship) && is_reserved_tag(ack));
        assert!(!is_agg_tag(COLL_TAG_PREFIX));
        assert_eq!(decode_coll_tag(ship), None);
        assert_eq!(describe_tag(ship), format!("agg-ship:{ship:#x}"));
        assert_eq!(describe_tag(ack), format!("agg-ack:{ack:#x}"));
        // The 0xC3 wording is pinned; agg tags get their own.
        assert!(reserved_tag_panic_text(coll_tag(CollKind::Barrier, 0, 0)).contains("0xC3"));
        assert!(reserved_tag_panic_text(ship).contains("0xA6/0xA7"));
    }

    #[test]
    fn agg_protocol_scope_nests_and_gates_rejection() {
        let ship = AGG_SHIP_TAG_PREFIX | 1;
        assert!(rejected_user_tag(ship));
        assert!(rejected_user_tag(COLL_TAG_PREFIX | 1));
        {
            let _outer = enter_agg_protocol();
            assert!(in_agg_protocol());
            assert!(!rejected_user_tag(ship));
            // Collective namespace stays rejected even inside the scope.
            assert!(rejected_user_tag(COLL_TAG_PREFIX | 1));
            {
                let _inner = enter_agg_protocol();
                assert!(in_agg_protocol());
            }
            assert!(in_agg_protocol());
        }
        assert!(!in_agg_protocol());
        assert!(rejected_user_tag(ship));
    }
}
