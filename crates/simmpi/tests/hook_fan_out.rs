//! A hook list is one hook: a `Vec<Arc<dyn CheckHook>>` hands every event a
//! run reports to each listed hook, in list order, and its abort query
//! answers with the first hook's reason.

use simmpi::{CheckHook, CoComm, HookEvent, SchedPolicy, TaskWorld};
use std::sync::{Arc, Mutex};

/// Logs every event it sees under its own id; aborts with `reason`.
struct Probe {
    id: usize,
    log: Arc<Mutex<Vec<(usize, String)>>>,
    reason: Option<&'static str>,
}

impl CheckHook for Probe {
    fn on_event(&self, ev: &HookEvent<'_>) {
        self.log.lock().unwrap().push((self.id, format!("{ev:?}")));
    }

    fn should_abort(&self) -> Option<String> {
        self.reason.map(str::to_string)
    }
}

#[test]
fn every_hook_in_a_list_sees_every_event_in_list_order() {
    let log = Arc::new(Mutex::new(Vec::new()));
    let probe = |id, reason| -> Arc<dyn CheckHook> {
        Arc::new(Probe {
            id,
            log: log.clone(),
            reason,
        })
    };
    let hooks: Vec<Arc<dyn CheckHook>> = vec![probe(0, None), probe(1, None), probe(2, None)];
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
    for kind in [
        "Send {",
        "RecvDone {",
        "Collective {",
        "CollectiveDone {",
        "TaskFinish {",
    ] {
        assert!(
            log.iter().any(|(_, ev)| ev.starts_with(kind)),
            "no {kind} event: {log:?}"
        );
    }
}

#[test]
fn a_hook_list_aborts_with_the_first_reason() {
    let log = Arc::new(Mutex::new(Vec::new()));
    let probe = |id, reason| -> Arc<dyn CheckHook> {
        Arc::new(Probe {
            id,
            log: log.clone(),
            reason,
        })
    };
    let hooks: Vec<Arc<dyn CheckHook>> = vec![
        probe(0, None),
        probe(1, Some("first")),
        probe(2, Some("second")),
    ];
    assert_eq!(hooks.should_abort().as_deref(), Some("first"));
    assert_eq!(hooks[..1].to_vec().should_abort(), None);
    assert_eq!(Vec::<Arc<dyn CheckHook>>::new().should_abort(), None);
}
