//! Tag-discipline properties: the reserved namespaces (collectives, top
//! byte 0xC3; aggregation ship/ack, top bytes 0xA6/0xA7) and user tags can
//! never collide, the wire encoding round-trips, and the runtime rejects
//! crafted collisions.

use proptest::prelude::*;
use simcheck::{
    decode_coll_tag, describe_tag, is_agg_tag, is_reserved_tag, CollKind, AGG_ACK_TAG_PREFIX,
    AGG_SHIP_TAG_PREFIX, COLL_TAG_MASK, COLL_TAG_PREFIX,
};

/// Build a collective wire tag the way the runtime does: prefix, op-kind
/// byte, 40-bit sequence number, round byte.
fn make_coll_tag(kind: CollKind, seq: u64, round: u8) -> u64 {
    COLL_TAG_PREFIX | ((kind.code() as u64) << 48) | ((seq & 0xFF_FFFF_FFFF) << 8) | round as u64
}

const KINDS: [CollKind; 7] = [
    CollKind::Barrier,
    CollKind::Bcast,
    CollKind::Gather,
    CollKind::Scatter,
    CollKind::Allgather,
    CollKind::Reduce,
    CollKind::Split,
];

proptest! {
    /// A user tag outside the reserved namespace is never reserved, never
    /// decodes as a collective, and can never equal any collective tag.
    #[test]
    fn user_tags_cannot_collide(user in any::<u64>(), kind_sel in 0usize..7, seq in any::<u64>(), round in any::<u8>()) {
        prop_assume!(user & COLL_TAG_MASK != COLL_TAG_PREFIX && !is_agg_tag(user));
        prop_assert!(!is_reserved_tag(user));
        prop_assert!(decode_coll_tag(user).is_none());
        let coll = make_coll_tag(KINDS[kind_sel], seq, round);
        prop_assert!(is_reserved_tag(coll));
        // Disjoint namespaces cannot intersect.
        prop_assert_ne!(user, coll);
        // The ship/ack namespaces are reserved like 0xC3 but are not
        // collectives: they never decode, and they render by name (a leak
        // report must say "agg-ship", not raw hex).
        for ns in [AGG_SHIP_TAG_PREFIX, AGG_ACK_TAG_PREFIX] {
            let agg = ns | (user & !COLL_TAG_MASK);
            prop_assert!(is_agg_tag(agg) && is_reserved_tag(agg));
            prop_assert!(decode_coll_tag(agg).is_none());
            prop_assert_ne!(agg, coll);
            let shown = describe_tag(agg);
            prop_assert!(shown.starts_with("agg-ship:") || shown.starts_with("agg-ack:"), "{}", shown);
        }
    }

    /// The wire encoding round-trips through the decoder.
    #[test]
    fn coll_tag_roundtrips(kind_sel in 0usize..7, seq in any::<u64>(), round in any::<u8>()) {
        let kind = KINDS[kind_sel];
        let tag = make_coll_tag(kind, seq, round);
        let (k, s, r) = decode_coll_tag(tag).expect("crafted collective tag must decode");
        prop_assert_eq!(k, kind);
        prop_assert_eq!(s, seq & 0xFF_FFFF_FFFF);
        prop_assert_eq!(r, round);
        // The human-readable form names the op and round.
        let shown = describe_tag(tag);
        prop_assert!(shown.contains(kind.name()), "{}", shown);
    }
}

/// The runtime rejects a crafted collision outright, whatever collective
/// kind the tag names (the barrier case is also covered in mutations.rs).
#[test]
fn runtime_rejects_crafted_collision() {
    use simcheck::{CheckedTaskWorld, FindingKind, ScheduleCfg};
    use simmpi::CoComm;
    for kind in KINDS {
        let crafted = make_coll_tag(kind, 3, 1);
        let cfg = ScheduleCfg::Seeded {
            seed: 0,
            preemption_bound: 0,
        };
        let fail = CheckedTaskWorld::run(2, cfg, |c| async move {
            if c.rank() == 1 {
                c.send(0, crafted, &[1]);
            }
        })
        .expect_err("crafted collision must be rejected");
        assert!(
            fail.findings
                .iter()
                .any(|f| f.kind == FindingKind::ReservedTag),
            "kind {kind:?}: expected reserved-tag finding:\n{fail}"
        );
    }
}
