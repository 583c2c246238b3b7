//! The collectives, specified: what every rank ends up holding, as a pure
//! function of what every rank put in.
//!
//! Each function takes one input per rank (indexed by rank) and returns
//! one output per rank, the value the runtime must hand that rank. Nothing
//! here sends, waits or shares a line with the engine: a wrong tree, a
//! wrong rank order or a dropped subtree in `simmpi` cannot also be wrong
//! here. A script of several collectives, or one on the groups of a
//! `split`, is specified by composing these functions ([`within`]).

use simmpi::ReduceOp;

/// `bcast`: the root's value on every rank. Only the root supplies one.
pub(crate) fn bcast<T: Clone>(inputs: &[Option<T>], root: usize) -> Vec<T> {
    let value = inputs[root].as_ref().expect("the root supplies the data");
    vec![value.clone(); inputs.len()]
}

/// `gather`: every input in rank order at the root, `None` elsewhere.
pub(crate) fn gather<T: Clone>(inputs: &[T], root: usize) -> Vec<Option<Vec<T>>> {
    (0..inputs.len())
        .map(|r| (r == root).then(|| inputs.to_vec()))
        .collect()
}

/// `scatter`: rank `r` receives part `r` of the root's parts. Only the
/// root supplies them, one per rank.
pub(crate) fn scatter<T: Clone>(inputs: &[Option<Vec<T>>], root: usize) -> Vec<T> {
    let parts = inputs[root].as_ref().expect("the root supplies the parts");
    assert_eq!(parts.len(), inputs.len(), "one part per rank");
    parts.clone()
}

/// `allgather`: every input in rank order on every rank.
pub(crate) fn allgather<T: Clone>(inputs: &[T]) -> Vec<Vec<T>> {
    vec![inputs.to_vec(); inputs.len()]
}

/// `reduce_u64s`: word `i` of the result is word `i` of every rank's
/// input, folded in rank order; it lands at the root only.
pub(crate) fn reduce_u64s(inputs: &[Vec<u64>], op: ReduceOp, root: usize) -> Vec<Option<Vec<u64>>> {
    let fold = |a: u64, b: u64| match op {
        ReduceOp::Sum => a.wrapping_add(b),
        ReduceOp::Max => a.max(b),
        ReduceOp::Min => a.min(b),
    };
    let words = inputs[0].len();
    let result: Vec<u64> = (0..words)
        .map(|i| {
            inputs
                .iter()
                .map(|w| w[i])
                .reduce(fold)
                .expect("a world has a rank")
        })
        .collect();
    (0..inputs.len())
        .map(|r| (r == root).then(|| result.clone()))
        .collect()
}

/// One rank's place after a `split`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Place {
    /// Rank in the new communicator.
    pub(crate) rank: usize,
    /// Size of the new communicator.
    pub(crate) size: usize,
    /// The group's parent ranks, in new-rank order.
    pub(crate) members: Vec<usize>,
}

/// `split`: ranks sharing a colour form one group, ordered by
/// `(key, parent rank)`. Input `r` is rank `r`'s `(colour, key)`.
pub(crate) fn split(inputs: &[(u64, u64)]) -> Vec<Place> {
    (0..inputs.len())
        .map(|r| {
            let mut members: Vec<usize> = (0..inputs.len())
                .filter(|&p| inputs[p].0 == inputs[r].0)
                .collect();
            members.sort_by_key(|&p| (inputs[p].1, p));
            Place {
                rank: members
                    .iter()
                    .position(|&p| p == r)
                    .expect("a rank is in its group"),
                size: members.len(),
                members,
            }
        })
        .collect()
}

/// A collective run on the groups of a split: `spec` maps one group's
/// inputs (in new-rank order) to its outputs; `input(p)` is parent rank
/// `p`'s input. The result is indexed by parent rank.
pub(crate) fn within<I, O: Clone>(
    places: &[Place],
    input: impl Fn(usize) -> I,
    spec: impl Fn(&[I]) -> Vec<O>,
) -> Vec<O> {
    places
        .iter()
        .map(|place| {
            let inputs: Vec<I> = place.members.iter().map(|&p| input(p)).collect();
            spec(&inputs)[place.rank].clone()
        })
        .collect()
}
