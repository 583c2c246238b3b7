//! Property tests: the tree-collective engine against the executable
//! specification in `spec/mod.rs`.
//!
//! Every property runs one script, written once against [`CoComm`], on
//! [`TaskWorld`] twice — work stealing over four workers, and a seeded
//! serial schedule — asserts that the two agree rank by rank, and asserts
//! that both equal what the specification says each rank must hold,
//! computed from the same per-rank inputs. World sizes run from 1 to
//! 64 ranks, roots are random, payloads ragged (empty ones included).
//! Scheduling freedom (work stealing, seeded serial replay, preemption
//! bounds) must never change one bit of any rank's output.

mod spec;

use proptest::prelude::*;
use simmpi::{CoComm, ReduceOp, SchedPolicy, TaskWorld};

/// Splitmix-style generator so every rank's input is a pure function of
/// (seed, rank): both drivers and the specification see identical inputs
/// by construction.
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

/// Deterministic full-range words for one rank: `len` of them, or a
/// pseudo-random count in `0..=len` when `ragged`.
fn words(seed: u64, rank: usize, len: usize, ragged: bool) -> Vec<u64> {
    let mut s = seed ^ (rank as u64).wrapping_mul(0x6A09_E667_F3BC_C909);
    let len = if ragged {
        (mix(&mut s) as usize) % (len + 1)
    } else {
        len
    };
    (0..len).map(|_| mix(&mut s)).collect()
}

/// One small word per rank, small enough that a `Sum` of 64 cannot wrap.
fn small_word(seed: u64, rank: usize) -> u64 {
    let mut s = seed ^ rank as u64;
    mix(&mut s) >> 16
}

fn op_of(sel: u64) -> ReduceOp {
    [ReduceOp::Sum, ReduceOp::Max, ReduceOp::Min][(sel % 3) as usize]
}

const WS4: SchedPolicy = SchedPolicy::WorkSteal { workers: 4 };

/// Run `$body`, a future over `$c: &CoComm`, on every rank of an
/// `$n`-rank world twice: under work stealing and under the serial
/// schedule seeded by `$sched`; assert that the runs agree rank by rank and
/// yield the per-rank results.
macro_rules! on_two_schedules {
    ($n:expr, $sched:expr, |$c:ident| $body:expr) => {{
        let run = |policy| {
            TaskWorld::run_with(policy, $n, |$c| async move {
                let $c: &CoComm = &$c;
                $body.await
            })
            .0
        };
        let stealing = run(WS4);
        let serial = run(SchedPolicy::Serial {
            seed: $sched,
            preemption_bound: usize::MAX,
        });
        prop_assert_eq!(&stealing, &serial, "work stealing vs seeded serial");
        stealing
    }};
}

/// Split into `ncolors` round-robin groups keyed by rank, or against it
/// when `reverse`, then run four collectives on the group.
async fn split_collectives_script(
    c: &CoComm,
    seed: u64,
    ncolors: usize,
    reverse: bool,
) -> (
    usize,
    usize,
    Option<Vec<Vec<u8>>>,
    Vec<u8>,
    Vec<u64>,
    Option<u64>,
) {
    let (n, r) = (c.size(), c.rank());
    let key = if reverse { n - r } else { r };
    let sub = c.split((r % ncolors) as u64, key as u64).await;
    let gathered = sub.gather(&payload(seed, r, 48), 0).await;
    let bc = sub
        .bcast((sub.rank() == 0).then(|| payload(!seed, r, 32)), 0)
        .await;
    let all = sub.allgather_u64(r as u64).await;
    let red = sub.reduce_u64(r as u64, ReduceOp::Max, 0).await;
    (sub.rank(), sub.size(), gathered, bc, all, red)
}

/// The same grouping as [`split_collectives_script`], formed by the
/// exchanged [`CoComm::split`] or, when `local`, by
/// [`CoComm::split_local`] with each rank computing its own place; then a
/// gather at the group's last rank.
async fn split_script(
    c: &CoComm,
    seed: u64,
    ncolors: usize,
    reverse: bool,
    local: bool,
) -> (usize, usize, Option<Vec<Vec<u8>>>) {
    let (n, r) = (c.size(), c.rank());
    let color = r % ncolors;
    let size = n / ncolors + usize::from(color < n % ncolors);
    let place = if reverse {
        size - 1 - r / ncolors
    } else {
        r / ncolors
    };
    let sub = if local {
        c.split_local(color as u64, place, size).await
    } else {
        c.split(color as u64, if reverse { n - r } else { r } as u64)
            .await
    };
    let gathered = sub.gather(&payload(seed, r, 48), sub.size() - 1).await;
    (sub.rank(), sub.size(), gathered)
}

/// The `split` inputs of both split scripts: rank `r`'s `(colour, key)`.
fn split_inputs(n: usize, ncolors: usize, reverse: bool) -> Vec<(u64, u64)> {
    (0..n)
        .map(|r| ((r % ncolors) as u64, if reverse { n - r } else { r } as u64))
        .collect()
}

async fn allgather_barrier_script(c: &CoComm, seed: u64) -> Vec<Vec<Vec<u8>>> {
    let mut out = Vec::new();
    for round in 0..3u64 {
        let mine = payload(seed ^ round, c.rank(), 32);
        out.push(c.allgather(&mine).await);
        c.barrier().await;
    }
    out
}

type AllOps = (
    Vec<u8>,
    Option<Vec<Vec<u8>>>,
    Vec<u8>,
    Option<u64>,
    Vec<Vec<u8>>,
);

/// One pass over every collective in the §3.1 protocol's working set:
/// bcast, variable-length gather, variable-length scatter, reduce,
/// barrier, allgather.
async fn all_ops_script(c: &CoComm, seed: u64, root: usize) -> AllOps {
    let (n, r) = (c.size(), c.rank());
    let bc = c
        .bcast((r == root).then(|| payload(seed, root, 96)), root)
        .await;
    let mine = payload(seed ^ 1, r, 64);
    let gathered = c.gather(&mine, root).await;
    let parts = (r == root).then(|| (0..n).map(|i| payload(seed ^ 2, i, 48)).collect());
    let scattered = c.scatter(parts, root).await;
    let reduced = c.reduce_u64(small_word(seed, r), ReduceOp::Sum, root).await;
    c.barrier().await;
    let all = c.allgather(&mine).await;
    (bc, gathered, scattered, reduced, all)
}

/// [`all_ops_script`]'s output on every rank, composed from the spec.
fn all_ops_spec(n: usize, seed: u64, root: usize) -> Vec<AllOps> {
    let ranks = || 0..n;
    let bc = spec::bcast(
        &ranks()
            .map(|r| (r == root).then(|| payload(seed, r, 96)))
            .collect::<Vec<_>>(),
        root,
    );
    let mine: Vec<Vec<u8>> = ranks().map(|r| payload(seed ^ 1, r, 64)).collect();
    let gathered = spec::gather(&mine, root);
    let scattered = spec::scatter(
        &ranks()
            .map(|r| (r == root).then(|| ranks().map(|i| payload(seed ^ 2, i, 48)).collect()))
            .collect::<Vec<_>>(),
        root,
    );
    let reduced = spec::reduce_u64s(
        &ranks()
            .map(|r| vec![small_word(seed, r)])
            .collect::<Vec<_>>(),
        ReduceOp::Sum,
        root,
    );
    let all = spec::allgather(&mine);
    ranks()
        .map(|r| {
            (
                bc[r].clone(),
                gathered[r].clone(),
                scattered[r].clone(),
                reduced[r].as_ref().map(|w| w[0]),
                all[r].clone(),
            )
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// bcast: every rank receives the root's bytes.
    #[test]
    fn bcast_meets_spec(n in 1usize..65, root_sel in any::<u64>(), seed in any::<u64>()) {
        let root = (root_sel as usize) % n;
        let input = move |r: usize| (r == root).then(|| payload(seed, r, 96));
        let got = on_two_schedules!(n, seed, |c| c.bcast(input(c.rank()), root));
        let inputs: Vec<_> = (0..n).map(input).collect();
        prop_assert_eq!(got, spec::bcast(&inputs, root));
    }

    /// gatherv: the root collects every rank's bytes in rank order,
    /// lengths intact; the others get `None`.
    #[test]
    fn gatherv_meets_spec(n in 1usize..65, root_sel in any::<u64>(), seed in any::<u64>()) {
        let root = (root_sel as usize) % n;
        let input = move |r: usize| payload(seed, r, 64);
        let got = on_two_schedules!(n, seed, |c| c.gather(&input(c.rank()), root));
        let inputs: Vec<_> = (0..n).map(input).collect();
        prop_assert_eq!(got, spec::gather(&inputs, root));
    }

    /// scatterv: each rank receives exactly its part of the root's
    /// variable-length distribution.
    #[test]
    fn scatterv_meets_spec(n in 1usize..65, root_sel in any::<u64>(), seed in any::<u64>()) {
        let root = (root_sel as usize) % n;
        let input = move |r: usize| {
            (r == root).then(|| (0..n).map(|i| payload(seed, i, 48)).collect::<Vec<_>>())
        };
        let got = on_two_schedules!(n, seed, |c| c.scatter(input(c.rank()), root));
        let inputs: Vec<_> = (0..n).map(input).collect();
        prop_assert_eq!(got, spec::scatter(&inputs, root));
    }

    /// allgather_u64: every rank assembles the same rank-ordered vector
    /// (the gather+bcast composition at non-powers of two).
    #[test]
    fn allgather_u64_meets_spec(n in 1usize..65, seed in any::<u64>()) {
        let input = move |r: usize| words(seed, r, 1, false)[0];
        let got = on_two_schedules!(n, seed, |c| c.allgather_u64(input(c.rank())));
        let inputs: Vec<_> = (0..n).map(input).collect();
        prop_assert_eq!(got, spec::allgather(&inputs));
    }

    /// reduce_u64: the combining fan-in of one word, for every op, root
    /// and world size.
    #[test]
    fn reduce_meets_spec(n in 1usize..65, root_sel in any::<u64>(), op_sel in any::<u64>(), seed in any::<u64>()) {
        let (root, op) = ((root_sel as usize) % n, op_of(op_sel));
        let got = on_two_schedules!(n, seed, |c| c.reduce_u64(small_word(seed, c.rank()), op, root));
        let inputs: Vec<_> = (0..n).map(|r| vec![small_word(seed, r)]).collect();
        let want: Vec<_> = spec::reduce_u64s(&inputs, op, root)
            .into_iter()
            .map(|w| w.map(|w| w[0]))
            .collect();
        prop_assert_eq!(got, want);
    }

    /// reduce_u64s: word `i` of the result folds every rank's word `i`
    /// (full-range, so `Sum` wraps), for 1–8 words, and only the root
    /// holds it.
    #[test]
    fn reduce_u64s_meets_spec(n in 1usize..65, root_sel in any::<u64>(), op_sel in any::<u64>(), nwords in 1usize..9, seed in any::<u64>()) {
        let (root, op) = ((root_sel as usize) % n, op_of(op_sel));
        let input = move |r: usize| words(seed, r, nwords, false);
        let got = on_two_schedules!(n, seed, |c| c.reduce_u64s(&input(c.rank()), op, root));
        let inputs: Vec<_> = (0..n).map(input).collect();
        prop_assert_eq!(got, spec::reduce_u64s(&inputs, op, root));
    }

    /// After split: 1–5 colours, keys forward or reversed, and gather,
    /// bcast, allgather and reduce on every group, each as the spec
    /// composed over the group's inputs.
    #[test]
    fn split_collectives_meet_spec(n in 1usize..65, ncolors in 1usize..6, reverse in any::<bool>(), seed in any::<u64>()) {
        let got = on_two_schedules!(n, seed, |c| split_collectives_script(c, seed, ncolors, reverse));
        let places = spec::split(&split_inputs(n, ncolors, reverse));
        let gathered = spec::within(&places, |p| payload(seed, p, 48), |i| spec::gather(i, 0));
        let bc = spec::within(
            &places,
            |p| (places[p].rank == 0).then(|| payload(!seed, p, 32)),
            |i| spec::bcast(i, 0),
        );
        let all = spec::within(&places, |p| p as u64, spec::allgather);
        let red = spec::within(&places, |p| vec![p as u64], |i| spec::reduce_u64s(i, ReduceOp::Max, 0));
        let want: Vec<_> = (0..n)
            .map(|r| {
                let place = &places[r];
                (place.rank, place.size, gathered[r].clone(), bc[r].clone(), all[r].clone(), red[r].as_ref().map(|w| w[0]))
            })
            .collect();
        prop_assert_eq!(got, want);
    }

    /// split_local: a rank that names its own place lands where the spec's
    /// split puts it, exactly as the exchanged split does — same rank,
    /// same size, same bytes out of a gather on the result.
    #[test]
    fn split_local_matches_exchanged_split(n in 1usize..65, ncolors in 1usize..6, reverse in any::<bool>(), seed in any::<u64>()) {
        let places = spec::split(&split_inputs(n, ncolors, reverse));
        let gathered = spec::within(&places, |p| payload(seed, p, 48), |i| spec::gather(i, i.len() - 1));
        let want: Vec<_> = (0..n).map(|r| (places[r].rank, places[r].size, gathered[r].clone())).collect();
        let exchanged = on_two_schedules!(n, seed, |c| split_script(c, seed, ncolors, reverse, false));
        let local = on_two_schedules!(n, seed, |c| split_script(c, seed, ncolors, reverse, true));
        prop_assert_eq!(&exchanged, &want, "split vs spec");
        prop_assert_eq!(&local, &want, "split_local vs spec");
    }

    /// allgather + barrier rounds: three phases, each rank-ordered on
    /// every rank (the barrier separates rounds, so a broken one shows up
    /// as cross-round bleed).
    #[test]
    fn allgather_barrier_rounds_meet_spec(n in 1usize..65, seed in any::<u64>()) {
        let got = on_two_schedules!(n, seed, |c| allgather_barrier_script(c, seed));
        let rounds: Vec<_> = (0..3u64)
            .map(|round| spec::allgather(&(0..n).map(|r| payload(seed ^ round, r, 32)).collect::<Vec<_>>()))
            .collect();
        let want: Vec<Vec<_>> = (0..n)
            .map(|r| rounds.iter().map(|out| out[r].clone()).collect())
            .collect();
        prop_assert_eq!(got, want);
    }

    /// The whole working set in one pass, with the task side also driven
    /// by a random seeded serial schedule under a random preemption bound:
    /// scheduling choice must never leak into any rank's bytes.
    #[test]
    fn serial_schedules_meet_spec(n in 1usize..33, root_sel in any::<u64>(), seed in any::<u64>(), sched_seed in any::<u64>(), bound in 0usize..3) {
        let root = (root_sel as usize) % n;
        let serial = SchedPolicy::Serial { seed: sched_seed, preemption_bound: bound };
        let task = TaskWorld::run_with(serial, n, |c| async move {
            all_ops_script(&c, seed, root).await
        }).0;
        let both = on_two_schedules!(n, !sched_seed, |c| all_ops_script(c, seed, root));
        prop_assert_eq!(&task, &both, "bounded serial vs unbounded schedules");
        prop_assert_eq!(task, all_ops_spec(n, seed, root));
    }
}
