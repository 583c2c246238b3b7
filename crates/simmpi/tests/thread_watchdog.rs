//! The thread driver's deadlock watchdog: a blocking call that stays
//! pending past `SIMCHECK_TIMEOUT_MS` under a passive hook reports the
//! receive the rank is parked in — communicator, rank, source and tag read
//! from the engine's pending table, so a rank stuck *inside* a collective
//! is named by the collective's internal tree edge.
//!
//! Lives in its own test binary: the watchdog timeout is read from the
//! environment once per process, and this file's only test sets it before
//! any world runs.

use simmpi::{Comm, FindingKind, Sanitizer, World};
use std::sync::Arc;

fn stuck_findings(ntasks: usize, f: impl Fn(&Comm) + Send + Sync) -> Vec<String> {
    let san = Arc::new(Sanitizer::new());
    let results = World::run_checked(ntasks, san.clone(), |c| f(c));
    assert!(results.iter().any(|r| r.is_err()), "the stuck rank must unwind");
    san.findings()
        .into_iter()
        .filter(|f| f.kind == FindingKind::Deadlock)
        .map(|f| f.message)
        .collect()
}

#[test]
fn watchdog_names_the_parked_receive_from_the_pending_table() {
    std::env::set_var("SIMCHECK_TIMEOUT_MS", "300");

    // A user receive on a sub-communicator that nobody ever sends to.
    let found = stuck_findings(3, |c| {
        let sub = c.split((c.rank() % 2) as u64, 0);
        if c.rank() == 0 {
            sub.recv(1, 0x99);
        }
    });
    assert_eq!(found.len(), 1, "{found:?}");
    assert!(
        found[0].contains(r#"rank 0 on comm "world/s1.c0" blocked in recv(src=1, tag=0x99)"#),
        "{found:?}"
    );

    // A barrier only rank 0 enters: it is parked on the fan-in edge from
    // rank 1, which the report names by its decoded collective tag.
    let found = stuck_findings(2, |c| {
        if c.rank() == 0 {
            c.barrier();
        }
    });
    assert_eq!(found.len(), 1, "{found:?}");
    assert!(
        found[0].contains(r#"rank 0 on comm "world" blocked in recv(src=1, tag=barrier#0:r0)"#),
        "{found:?}"
    );
}
