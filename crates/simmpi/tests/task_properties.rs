//! Property tests: both drivers of the tree-collective engine must be
//! byte-identical to each other and to the flat oracle, collective by
//! collective.
//!
//! Three executions of the same script are compared for random world
//! sizes, roots, and per-rank payload lengths:
//!
//! * [`TaskWorld`] — tree collectives as resumable tasks on the
//!   work-stealing executor;
//! * [`World`] — the same tree collectives polled thread-per-rank, each
//!   rank's thread driving the *same* async script through [`drive_ready`];
//! * [`FlatWorld`] — the independent flat slot-and-barrier oracle.
//!
//! Scheduling freedom (work stealing, seeded serial replay, preemption
//! bounds) must never change one bit of any rank's output.

use proptest::prelude::*;
use simmpi::{drive_ready, CoComm, FlatWorld, ReduceOp, SchedPolicy, TaskWorld, World};

/// Splitmix-style generator so every rank's payload is a pure function of
/// (seed, rank) — all three runtimes then see identical inputs by
/// construction.
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

const WS4: SchedPolicy = SchedPolicy::WorkSteal { workers: 4 };

// Each script is written once against `CoComm` and executed verbatim by
// all three runtimes (standalone `async fn`s: closures returning futures
// that borrow their argument cannot name the needed lifetime).

async fn bcast_script(c: &dyn CoComm, seed: u64, root: usize) -> Vec<u8> {
    c.bcast((c.rank() == root).then(|| payload(seed, root, 96)), root)
        .await
}

async fn gatherv_script(c: &dyn CoComm, seed: u64, root: usize) -> Option<Vec<Vec<u8>>> {
    let mine = payload(seed, c.rank(), 64);
    c.gather(&mine, root).await
}

async fn scatterv_script(c: &dyn CoComm, seed: u64, root: usize) -> Vec<u8> {
    let parts = (c.rank() == root).then(|| {
        (0..c.size())
            .map(|i| payload(seed, i, 48))
            .collect::<Vec<_>>()
    });
    c.scatter(parts, root).await
}

async fn reduce_script(c: &dyn CoComm, seed: u64, op: ReduceOp, root: usize) -> Option<u64> {
    let mut s = seed ^ c.rank() as u64;
    // Keep the values small enough that Sum cannot overflow.
    c.reduce_u64(mix(&mut s) >> 16, op, root).await
}

/// Rank `r`'s `words` reduction inputs: full-range values, so `Sum` wraps.
fn reduce_words(seed: u64, rank: usize, words: usize) -> Vec<u64> {
    let mut s = seed ^ (rank as u64).wrapping_mul(0x2545_F491_4F6C_DD1D);
    (0..words).map(|_| mix(&mut s)).collect()
}

async fn reduce_words_script(
    c: &dyn CoComm,
    seed: u64,
    words: usize,
    op: ReduceOp,
    root: usize,
) -> Option<Vec<u64>> {
    c.reduce_u64s(&reduce_words(seed, c.rank(), words), op, root)
        .await
}

async fn allgather_barrier_script(c: &dyn CoComm, seed: u64) -> Vec<Vec<Vec<u8>>> {
    let mut out = Vec::new();
    for round in 0..3u64 {
        let mine = payload(seed ^ round, c.rank(), 32);
        out.push(c.allgather(&mine).await);
        c.barrier().await;
    }
    out
}

/// One pass over every collective in the §3.1 protocol's working set:
/// bcast, variable-length gather, variable-length scatter, reduce,
/// barrier, allgather — written once against [`CoComm`] and executed
/// verbatim by all three runtimes.
async fn all_ops_script(
    c: &dyn CoComm,
    seed: u64,
    root: usize,
) -> (
    Vec<u8>,
    Option<Vec<Vec<u8>>>,
    Vec<u8>,
    Option<u64>,
    Vec<Vec<u8>>,
) {
    let n = c.size();
    let bc = c
        .bcast((c.rank() == root).then(|| payload(seed, root, 96)), root)
        .await;
    let mine = payload(seed ^ 1, c.rank(), 64);
    let gathered = c.gather(&mine, root).await;
    let parts =
        (c.rank() == root).then(|| (0..n).map(|i| payload(seed ^ 2, i, 48)).collect::<Vec<_>>());
    let scattered = c.scatter(parts, root).await;
    let mut s = seed ^ c.rank() as u64;
    // Keep the values small enough that Sum cannot overflow.
    let reduced = c.reduce_u64(mix(&mut s) >> 16, ReduceOp::Sum, root).await;
    c.barrier().await;
    let all = c.allgather(&mine).await;
    (bc, gathered, scattered, reduced, all)
}

/// Split into `ncolors` round-robin groups, ordered by rank or (when
/// `reverse`) against it, then gather on the sub-communicator. `local`
/// picks [`CoComm::split_local`], each rank computing its own place, over
/// the exchanged [`CoComm::split`] keyed to the same order.
async fn split_script(
    c: &dyn CoComm,
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// split_local: a rank that names its own place lands exactly where
    /// the exchanged split would have put it — same rank, same size, same
    /// bytes out of a gather on the result — on the task tree, the thread
    /// tree, and the flat oracle (whose `split_local` *is* the exchanged
    /// split plus an agreement assert).
    #[test]
    fn split_local_matches_exchanged_split(n in 1usize..65, ncolors in 1usize..6, reverse in any::<bool>(), seed in any::<u64>()) {
        let task = |local| TaskWorld::run_with(WS4, n, |c| async move {
            split_script(&c, seed, ncolors, reverse, local).await
        }).0;
        let thread = |local| World::run(n, |c| {
            drive_ready(split_script(c.co(), seed, ncolors, reverse, local))
        });
        let flat = |local| FlatWorld::run(n, |c| {
            drive_ready(split_script(c.co(), seed, ncolors, reverse, local))
        });
        let exchanged = flat(false);
        prop_assert_eq!(&task(true), &exchanged, "task split_local vs flat split");
        prop_assert_eq!(&task(false), &exchanged, "task split vs flat split");
        prop_assert_eq!(&thread(true), &exchanged, "thread split_local vs flat split");
        prop_assert_eq!(&thread(false), &exchanged, "thread split vs flat split");
        prop_assert_eq!(&flat(true), &exchanged, "flat split_local vs flat split");
    }

    /// bcast: every rank of every runtime receives the root's bytes.
    #[test]
    fn bcast_matches_thread_runtime(n in 1usize..65, root_sel in any::<u64>(), seed in any::<u64>()) {
        let root = (root_sel as usize) % n;
        let task = TaskWorld::run_with(WS4, n, |c| async move { bcast_script(&c, seed, root).await }).0;
        let thread = World::run(n, |c| drive_ready(bcast_script(c.co(), seed, root)));
        let flat = FlatWorld::run(n, |c| drive_ready(bcast_script(c.co(), seed, root)));
        prop_assert_eq!(&task, &thread, "task tree vs thread tree");
        prop_assert_eq!(&task, &flat, "task tree vs thread flat");
        prop_assert!(task.iter().all(|b| *b == payload(seed, root, 96)));
    }

    /// gatherv: the root's collected vector (rank order, lengths, bytes)
    /// is identical across runtimes; non-roots get None in all of them.
    #[test]
    fn gatherv_matches_thread_runtime(n in 1usize..65, root_sel in any::<u64>(), seed in any::<u64>()) {
        let root = (root_sel as usize) % n;
        let task = TaskWorld::run_with(WS4, n, |c| async move { gatherv_script(&c, seed, root).await }).0;
        let thread = World::run(n, |c| drive_ready(gatherv_script(c.co(), seed, root)));
        let flat = FlatWorld::run(n, |c| drive_ready(gatherv_script(c.co(), seed, root)));
        prop_assert_eq!(&task, &thread);
        prop_assert_eq!(&task, &flat);
        let at_root = task[root].as_ref().expect("root receives the gather");
        prop_assert_eq!(at_root.len(), n);
        for (r, part) in at_root.iter().enumerate() {
            prop_assert_eq!(part, &payload(seed, r, 64));
        }
    }

    /// scatterv: each rank receives exactly its part of the root's
    /// variable-length distribution, on every runtime.
    #[test]
    fn scatterv_matches_thread_runtime(n in 1usize..65, root_sel in any::<u64>(), seed in any::<u64>()) {
        let root = (root_sel as usize) % n;
        let task = TaskWorld::run_with(WS4, n, |c| async move { scatterv_script(&c, seed, root).await }).0;
        let thread = World::run(n, |c| drive_ready(scatterv_script(c.co(), seed, root)));
        let flat = FlatWorld::run(n, |c| drive_ready(scatterv_script(c.co(), seed, root)));
        prop_assert_eq!(&task, &thread);
        prop_assert_eq!(&task, &flat);
        for (r, part) in task.iter().enumerate() {
            prop_assert_eq!(part, &payload(seed, r, 48));
        }
    }

    /// reduce: the combining fan-in agrees for every op, root, and world
    /// size.
    #[test]
    fn reduce_matches_thread_runtime(n in 1usize..65, root_sel in any::<u64>(), op_sel in any::<u64>(), seed in any::<u64>()) {
        let root = (root_sel as usize) % n;
        let op = [ReduceOp::Sum, ReduceOp::Max, ReduceOp::Min][(op_sel as usize) % 3];
        let task = TaskWorld::run_with(WS4, n, |c| async move { reduce_script(&c, seed, op, root).await }).0;
        let thread = World::run(n, |c| drive_ready(reduce_script(c.co(), seed, op, root)));
        let flat = FlatWorld::run(n, |c| drive_ready(reduce_script(c.co(), seed, op, root)));
        prop_assert_eq!(&task, &thread);
        prop_assert_eq!(&task, &flat);
        prop_assert!(task[root].is_some());
    }

    /// reduce_u64s: word `i` of the result is the fold of every rank's
    /// word `i`, on all three runtimes, for every op, root, world size and
    /// slice length — and only the root holds it.
    #[test]
    fn reduce_u64s_matches_a_per_word_fold(n in 1usize..65, root_sel in any::<u64>(), op_sel in any::<u64>(), words in 1usize..9, seed in any::<u64>()) {
        let root = (root_sel as usize) % n;
        let op = [ReduceOp::Sum, ReduceOp::Max, ReduceOp::Min][(op_sel as usize) % 3];
        let fold = |a: u64, b: u64| match op {
            ReduceOp::Sum => a.wrapping_add(b),
            ReduceOp::Max => a.max(b),
            ReduceOp::Min => a.min(b),
        };
        let expect: Vec<u64> = (0..words)
            .map(|i| (0..n).map(|r| reduce_words(seed, r, words)[i]).reduce(fold).unwrap())
            .collect();
        let task = TaskWorld::run_with(WS4, n, |c| async move { reduce_words_script(&c, seed, words, op, root).await }).0;
        let thread = World::run(n, |c| drive_ready(reduce_words_script(c.co(), seed, words, op, root)));
        let flat = FlatWorld::run(n, |c| drive_ready(reduce_words_script(c.co(), seed, words, op, root)));
        prop_assert_eq!(&task, &thread);
        prop_assert_eq!(&task, &flat);
        for (r, got) in task.iter().enumerate() {
            prop_assert_eq!(got.as_ref(), (r == root).then_some(&expect));
        }
    }

    /// allgather + barrier rounds: repeated phases stay rank-ordered and
    /// identical across runtimes (the barrier is what separates rounds, so
    /// a broken one shows up as cross-round bleed in the sanitizer or as a
    /// mismatch here).
    #[test]
    fn allgather_barrier_rounds_match_thread_runtime(n in 1usize..65, seed in any::<u64>()) {
        let task = TaskWorld::run_with(WS4, n, |c| async move { allgather_barrier_script(&c, seed).await }).0;
        let thread = World::run(n, |c| drive_ready(allgather_barrier_script(c.co(), seed)));
        let flat = FlatWorld::run(n, |c| drive_ready(allgather_barrier_script(c.co(), seed)));
        prop_assert_eq!(&task, &thread);
        prop_assert_eq!(&task, &flat);
        prop_assert!(task.iter().all(|rounds| rounds == &task[0]));
    }

    /// The whole working set in one pass, with the task side driven by a
    /// random seeded serial schedule under a random preemption bound:
    /// scheduling choice must never leak into any rank's bytes.
    #[test]
    fn serial_schedules_match_thread_runtime(n in 1usize..33, root_sel in any::<u64>(), seed in any::<u64>(), sched_seed in any::<u64>(), bound in 0usize..3) {
        let root = (root_sel as usize) % n;
        let serial = SchedPolicy::Serial { seed: sched_seed, preemption_bound: bound };
        let task = TaskWorld::run_with(serial, n, |c| async move {
            all_ops_script(&c, seed, root).await
        }).0;
        let stolen = TaskWorld::run_with(WS4, n, |c| async move {
            all_ops_script(&c, seed, root).await
        }).0;
        let thread = World::run(n, |c| drive_ready(all_ops_script(c.co(), seed, root)));
        prop_assert_eq!(&task, &thread, "serial tasks vs threads");
        prop_assert_eq!(&task, &stolen, "serial vs work-stealing");
    }
}
