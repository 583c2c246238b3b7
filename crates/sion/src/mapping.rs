//! Task → physical file mapping (paper §3.1, Fig. 2(d)).
//!
//! When a multifile is spread over several physical files, every task is
//! still mapped to exactly one physical file, but the user "can also
//! influence the exact mapping of application tasks to physical files, for
//! example, to allocate one physical file per I/O node on Blue Gene".

use crate::error::{Result, SionError};

/// How global ranks are distributed over the physical files.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mapping {
    /// Contiguous ranges of ranks per file (`[0..k)` → file 0, ...).
    /// On machines where consecutive ranks share I/O nodes, this is the
    /// "one physical file per I/O node" mapping. The default.
    Blocked,
    /// Ranks dealt round-robin over the files (`rank % nfiles`).
    RoundRobin,
    /// Explicit group size: `rank / group_size`, clamped to the last file.
    /// Models "one file per I/O node" when the I/O-node group size is known
    /// (e.g. 128 compute nodes per ION on Blue Gene/P).
    Grouped(u64),
}

impl Mapping {
    /// The physical file index for `rank` out of `ntasks` tasks mapped onto
    /// `nfiles` files.
    ///
    /// Total over the full argument space: degenerate inputs are clamped
    /// to the nearest meaningful value (`ntasks` to at least 1, `rank`
    /// into `0..ntasks`, `nfiles` into `1..=ntasks`) instead of panicking
    /// or dividing by zero. For arguments accepted by
    /// [`validate`](Self::validate) the clamping is the identity, so
    /// callers going through validation see no behaviour change; callers
    /// that reach this with unvalidated values (e.g. tooling probing a
    /// damaged multifile) get a well-defined file index `< nfiles.max(1)`.
    pub fn file_of(self, rank: usize, ntasks: usize, nfiles: u32) -> u32 {
        self.group_of(rank, ntasks, nfiles).0
    }

    /// Where `rank` lands: `(file, local rank, group size)` — its physical
    /// file, its position among the ranks mapped to that file (in rank
    /// order), and how many ranks that file holds. Closed form, so every
    /// task can compute its own file group without asking anyone; total
    /// over the full argument space with the clamping of
    /// [`file_of`](Self::file_of).
    pub fn group_of(self, rank: usize, ntasks: usize, nfiles: u32) -> (u32, usize, usize) {
        let ntasks = ntasks.max(1);
        let rank = rank.min(ntasks - 1);
        let nfiles = (nfiles as usize).clamp(1, ntasks);
        let (file, local, size) = match self {
            Mapping::Blocked => {
                // Split as evenly as possible: the first `rem` files get
                // one extra task. `nfiles <= ntasks` ensures `base >= 1`.
                let base = ntasks / nfiles;
                let rem = ntasks % nfiles;
                let big = (base + 1) * rem; // ranks covered by the larger files
                if rank < big {
                    (rank / (base + 1), rank % (base + 1), base + 1)
                } else {
                    (rem + (rank - big) / base, (rank - big) % base, base)
                }
            }
            Mapping::RoundRobin => {
                let file = rank % nfiles;
                (file, rank / nfiles, ntasks / nfiles + usize::from(file < ntasks % nfiles))
            }
            Mapping::Grouped(g) => {
                let g = g.max(1) as usize;
                let file = (rank / g).min(nfiles - 1);
                let start = file * g; // <= rank
                // The last file absorbs every rank beyond its own group.
                let end =
                    if file == nfiles - 1 { ntasks } else { ntasks.min(start.saturating_add(g)) };
                (file, rank - start, end - start)
            }
        };
        (file as u32, local, size)
    }

    /// Validate that this mapping populates every one of the `nfiles` files
    /// for a world of `ntasks` tasks (every physical file must hold at
    /// least one chunk).
    pub fn validate(self, ntasks: usize, nfiles: u32) -> Result<()> {
        if nfiles == 0 {
            return Err(SionError::InvalidArg("nfiles must be at least 1".into()));
        }
        if (nfiles as usize) > ntasks {
            return Err(SionError::InvalidArg(format!(
                "cannot spread {ntasks} tasks over {nfiles} physical files"
            )));
        }
        if let Mapping::Grouped(g) = self {
            let g = g.max(1) as usize;
            // Grouped mapping reaches file k only if ntasks > k*g.
            if ntasks.div_ceil(g) < nfiles as usize {
                return Err(SionError::InvalidArg(format!(
                    "group size {g} leaves some of the {nfiles} files empty for {ntasks} tasks"
                )));
            }
        }
        Ok(())
    }

}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn blocked_splits_evenly() {
        // 10 tasks over 3 files: 4, 3, 3.
        let m = Mapping::Blocked;
        let files: Vec<u32> = (0..10).map(|r| m.file_of(r, 10, 3)).collect();
        assert_eq!(files, vec![0, 0, 0, 0, 1, 1, 1, 2, 2, 2]);
    }

    #[test]
    fn round_robin_cycles() {
        let m = Mapping::RoundRobin;
        let files: Vec<u32> = (0..8).map(|r| m.file_of(r, 8, 3)).collect();
        assert_eq!(files, vec![0, 1, 2, 0, 1, 2, 0, 1]);
    }

    #[test]
    fn grouped_clamps_to_last_file() {
        let m = Mapping::Grouped(4);
        // 12 tasks, groups of 4, but only 2 files: ranks 8..12 clamp to 1.
        let files: Vec<u32> = (0..12).map(|r| m.file_of(r, 12, 2)).collect();
        assert_eq!(files, vec![0, 0, 0, 0, 1, 1, 1, 1, 1, 1, 1, 1]);
    }

    #[test]
    fn validation_rejects_empty_files() {
        assert!(Mapping::Blocked.validate(4, 8).is_err());
        assert!(Mapping::Blocked.validate(8, 8).is_ok());
        assert!(Mapping::Grouped(8).validate(16, 4).is_err()); // only 2 groups
        assert!(Mapping::Grouped(4).validate(16, 4).is_ok());
        assert!(Mapping::Blocked.validate(4, 0).is_err());
    }

    proptest! {
        /// Every mapping covers all files, and `group_of` numbers each
        /// file's ranks densely in rank order.
        #[test]
        fn mapping_partition_properties(
            ntasks in 1usize..300,
            nfiles_raw in 1u32..16,
            kind in 0usize..3,
            group in 1u64..40,
        ) {
            let nfiles = nfiles_raw.min(ntasks as u32);
            let m = match kind {
                0 => Mapping::Blocked,
                1 => Mapping::RoundRobin,
                _ => Mapping::Grouped(group),
            };
            if m.validate(ntasks, nfiles).is_err() {
                // Grouped mappings may legitimately fail validation; skip.
                return Ok(());
            }
            let mut per_file: Vec<Vec<usize>> = vec![Vec::new(); nfiles as usize];
            for r in 0..ntasks {
                let f = m.file_of(r, ntasks, nfiles);
                prop_assert!(f < nfiles);
                per_file[f as usize].push(r);
            }
            // Total partition and non-emptiness.
            prop_assert_eq!(per_file.iter().map(Vec::len).sum::<usize>(), ntasks);
            for (f, ranks) in per_file.iter().enumerate() {
                prop_assert!(!ranks.is_empty(), "file {f} empty");
                for (i, &r) in ranks.iter().enumerate() {
                    prop_assert_eq!(m.group_of(r, ntasks, nfiles), (f as u32, i, ranks.len()));
                }
            }
        }

        /// `group_of` against the brute-force definition — `file_of` over
        /// all ranks — on the *full* argument space: zero and oversized
        /// `nfiles`, zero `ntasks` and group size, remainders, the clamped
        /// last `Grouped` file, ranks at or beyond `ntasks`.
        #[test]
        fn group_of_matches_brute_force_over_full_domain(
            rank in 0usize..400,
            ntasks in 0usize..300,
            nfiles in 0u32..40,
            kind in 0usize..3,
            group in 0u64..40,
        ) {
            let m = match kind {
                0 => Mapping::Blocked,
                1 => Mapping::RoundRobin,
                _ => Mapping::Grouped(group),
            };
            let (file, local, size) = m.group_of(rank, ntasks, nfiles);
            let world = ntasks.max(1);
            let me = rank.min(world - 1);
            prop_assert_eq!(file, m.file_of(rank, ntasks, nfiles));
            let peers: Vec<usize> =
                (0..world).filter(|&r| m.file_of(r, ntasks, nfiles) == file).collect();
            prop_assert_eq!(size, peers.len());
            prop_assert_eq!(Some(local), peers.iter().position(|&r| r == me));
        }

        /// `file_of` is total: over the *full* argument space — including
        /// `ntasks == 0`, `nfiles == 0`, `nfiles > ntasks`, and ranks at
        /// or beyond `ntasks` — it never panics and always returns an
        /// index below `nfiles.max(1)`.
        #[test]
        fn file_of_is_total_over_full_domain(
            rank in 0usize..2000,
            ntasks in 0usize..1000,
            nfiles in 0u32..64,
            kind in 0usize..3,
            group in 0u64..40,
        ) {
            let m = match kind {
                0 => Mapping::Blocked,
                1 => Mapping::RoundRobin,
                _ => Mapping::Grouped(group),
            };
            let f = m.file_of(rank, ntasks, nfiles);
            let effective_nfiles = (nfiles as usize).clamp(1, ntasks.max(1)) as u32;
            prop_assert!(f < effective_nfiles.max(1));
            prop_assert!(f < nfiles.max(1));
            // On validated inputs, clamping is the identity: in-range
            // ranks agree with the documented per-variant formulas.
            if m.validate(ntasks, nfiles).is_ok() && rank < ntasks {
                match m {
                    Mapping::RoundRobin => prop_assert_eq!(f, (rank % nfiles as usize) as u32),
                    Mapping::Grouped(g) => {
                        let g = g.max(1) as usize;
                        prop_assert_eq!(f, ((rank / g).min(nfiles as usize - 1)) as u32);
                    }
                    Mapping::Blocked => {} // covered by mapping_partition_properties
                }
            }
        }
    }
}
