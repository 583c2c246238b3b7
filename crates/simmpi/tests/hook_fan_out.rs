//! A hook list is one hook: a `Vec<Arc<dyn CheckHook>>` hands every event a
//! run reports to each listed hook, in list order.

use simmpi::{CheckHook, HookEvent, SchedPolicy, TaskWorld};
use std::sync::{Arc, Mutex};

/// Logs every event it sees under its own id.
struct Probe {
    id: usize,
    log: Arc<Mutex<Vec<(usize, String)>>>,
}

impl CheckHook for Probe {
    fn on_event(&self, ev: &HookEvent<'_>) {
        self.log.lock().unwrap().push((self.id, format!("{ev:?}")));
    }
}

#[test]
fn every_hook_in_a_list_sees_every_event_in_list_order() {
    let log = Arc::new(Mutex::new(Vec::new()));
    let probe = |id| -> Arc<dyn CheckHook> {
        Arc::new(Probe {
            id,
            log: log.clone(),
        })
    };
    let hooks: Vec<Arc<dyn CheckHook>> = vec![probe(0), probe(1), probe(2)];
    // One worker: each event's fan-out runs to the end before the next.
    let policy = SchedPolicy::Serial {
        seed: 1,
        preemption_bound: 2,
    };
    let run = TaskWorld::run_checked(policy, 2, Arc::new(hooks), |c| async move {
        if c.rank() == 0 {
            c.send(1, 7, b"x");
        } else {
            c.recv(0, 7).await;
        }
        c.barrier().await;
    });
    assert!(run.results.iter().all(Result::is_ok));
    let log = log.lock().unwrap();
    assert!(!log.is_empty() && log.len() % 3 == 0, "{log:?}");
    for (i, seen) in log.chunks(3).enumerate() {
        let ids: Vec<usize> = seen.iter().map(|(id, _)| *id).collect();
        assert_eq!(ids, [0, 1, 2], "event {i}");
        assert!(
            seen.iter().all(|(_, ev)| *ev == seen[0].1),
            "event {i}: {seen:?}"
        );
    }
    for kind in ["Send {", "RecvDone {", "Collective {", "TaskFinish {"] {
        assert!(
            log.iter().any(|(_, ev)| ev.starts_with(kind)),
            "no {kind} event: {log:?}"
        );
    }
}
