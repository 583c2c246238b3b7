//! Property tests: the binomial-tree collectives must be byte-identical
//! to the flat slot-and-barrier implementation they replaced.
//!
//! [`FlatWorld`] is kept in-tree precisely as an independent executable
//! reference: for random world sizes (1..=64 ranks), roots, and per-rank
//! payload lengths, both runtimes execute the same collective script and
//! their full per-rank outputs are compared — including on communicators
//! produced by `split`.

use proptest::prelude::*;
use simmpi::{Comm, FlatWorld, ReduceOp, World};

/// Splitmix-style generator so every rank's payload is a pure function of
/// (seed, rank) — both runtimes then see identical inputs by construction.
fn mix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Deterministic payload for one rank: pseudo-random length in
/// `0..=max_len` (length 0 included — empty contributions must survive the
/// framing), pseudo-random bytes.
fn payload(seed: u64, rank: usize, max_len: usize) -> Vec<u8> {
    let mut s = seed ^ (rank as u64).wrapping_mul(0x2545_F491_4F6C_DD1D);
    let len = (mix(&mut s) as usize) % (max_len + 1);
    (0..len).map(|_| mix(&mut s) as u8).collect()
}

fn u64s(seed: u64, rank: usize, max_len: usize) -> Vec<u64> {
    let mut s = seed ^ (rank as u64).wrapping_mul(0x6A09_E667_F3BC_C909);
    let len = (mix(&mut s) as usize) % (max_len + 1);
    (0..len).map(|_| mix(&mut s)).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// bcast: every rank of both runtimes receives the root's bytes.
    #[test]
    fn bcast_matches_flat_reference(n in 1usize..65, root_sel in any::<u64>(), seed in any::<u64>()) {
        let root = (root_sel as usize) % n;
        let script = move |c: &Comm| {
            let mine = (c.rank() == root).then(|| payload(seed, root, 96));
            c.bcast(mine, root)
        };
        let tree = World::run(n, |c| script(c));
        let flat = FlatWorld::run(n, |c| script(c));
        prop_assert_eq!(&tree, &flat);
        prop_assert!(tree.iter().all(|b| *b == payload(seed, root, 96)));
    }

    /// gather: the root's collected vector is identical across runtimes
    /// (rank order, lengths, bytes); non-roots get None in both.
    #[test]
    fn gather_matches_flat_reference(n in 1usize..65, root_sel in any::<u64>(), seed in any::<u64>()) {
        let root = (root_sel as usize) % n;
        let script = move |c: &Comm| c.gather(&payload(seed, c.rank(), 64), root);
        let tree = World::run(n, |c| script(c));
        let flat = FlatWorld::run(n, |c| script(c));
        prop_assert_eq!(&tree, &flat);
        let at_root = tree[root].as_ref().expect("root receives the gather");
        prop_assert_eq!(at_root.len(), n);
    }

    /// gather_u64s: variable-length word vectors (the close-time usage
    /// exchange shape) survive the tree framing exactly.
    #[test]
    fn gather_u64s_matches_flat_reference(n in 1usize..65, root_sel in any::<u64>(), seed in any::<u64>()) {
        let root = (root_sel as usize) % n;
        let script = move |c: &Comm| c.gather_u64s(&u64s(seed, c.rank(), 9), root);
        let tree = World::run(n, |c| script(c));
        let flat = FlatWorld::run(n, |c| script(c));
        prop_assert_eq!(&tree, &flat);
    }

    /// allgather_u64: every rank of both runtimes assembles the same
    /// rank-ordered vector (exercises the gather+bcast composition at
    /// non-powers of two).
    #[test]
    fn allgather_u64_matches_flat_reference(n in 1usize..65, seed in any::<u64>()) {
        let script = move |c: &Comm| {
            let mut s = seed ^ c.rank() as u64;
            c.allgather_u64(mix(&mut s))
        };
        let tree = World::run(n, |c| script(c));
        let flat = FlatWorld::run(n, |c| script(c));
        prop_assert_eq!(&tree, &flat);
        prop_assert!(tree.iter().all(|v| v == &tree[0]));
    }

    /// reduce: the combining fan-in agrees with the flat gather-and-fold
    /// for every op, root, and world size.
    #[test]
    fn reduce_matches_flat_reference(n in 1usize..65, root_sel in any::<u64>(), op_sel in any::<u64>(), seed in any::<u64>()) {
        let root = (root_sel as usize) % n;
        let op = [ReduceOp::Sum, ReduceOp::Max, ReduceOp::Min][(op_sel as usize) % 3];
        let script = move |c: &Comm| {
            let mut s = seed ^ c.rank() as u64;
            // Keep the values small enough that Sum cannot overflow.
            c.reduce_u64(mix(&mut s) >> 16, op, root)
        };
        let tree = World::run(n, |c| script(c));
        let flat = FlatWorld::run(n, |c| script(c));
        prop_assert_eq!(&tree, &flat);
        prop_assert!(tree[root].is_some());
    }

    /// After split: collectives on the sub-communicators agree between
    /// runtimes — the tree shapes rebuild correctly for every group size
    /// that color assignment produces.
    #[test]
    fn split_collectives_match_flat_reference(n in 1usize..65, ncolors in 1usize..5, seed in any::<u64>()) {
        let script = move |c: &Comm| {
            let sub = c.split((c.rank() % ncolors) as u64, c.rank() as u64);
            let gathered = sub.gather(&payload(seed, c.rank(), 48), 0);
            let bc = sub.bcast((sub.rank() == 0).then(|| payload(!seed, c.rank(), 32)), 0);
            let all = sub.allgather_u64(c.rank() as u64);
            let red = sub.reduce_u64(c.rank() as u64, ReduceOp::Max, 0);
            (sub.rank(), sub.size(), gathered, bc, all, red)
        };
        let tree = World::run(n, |c| script(c));
        let flat = FlatWorld::run(n, |c| script(c));
        prop_assert_eq!(&tree, &flat);
        // Sanity on the sub-allgather: each rank sees exactly its color's
        // members in ascending global-rank order.
        for (r, (_, _, _, _, all, _)) in tree.iter().enumerate() {
            let expect: Vec<u64> = (0..n as u64).filter(|x| x % ncolors as u64 == (r % ncolors) as u64).collect();
            prop_assert_eq!(all, &expect);
        }
    }
}
