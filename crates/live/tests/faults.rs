//! Fault injection on the WAL syscall paths (`live.wal.append`, `live.wal.fsync`,
//! `live.wal.read` via `P2H_FAULTS`-style rules): transient EINTR is absorbed,
//! permanent failures surface as typed errors with the mutation **not acknowledged
//! and not applied**, and a failed append rolls the segment back so a retry cannot
//! produce duplicate-id corruption.

use std::sync::{Mutex, MutexGuard};

use p2h_live::{LiveError, LiveIndex};
use p2h_obs::fault::{set_rules, FaultRule};
use p2h_obs::FaultKind;
use p2h_store::Store;

#[path = "../../store/tests/common/mod.rs"]
mod test_dir;

use test_dir::TestDir;

/// The fault rule set is process-global; serialize the tests that mutate it.
static FAULT_LOCK: Mutex<()> = Mutex::new(());

fn lock() -> MutexGuard<'static, ()> {
    FAULT_LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn temp_store(tag: &str) -> (TestDir, Store) {
    let dir = TestDir::new(tag);
    let store = Store::create(&dir).expect("create store");
    (dir, store)
}

fn point(id: u32) -> Vec<f32> {
    vec![id as f32, 0.5, -0.25]
}

#[test]
fn transient_eintr_is_absorbed_on_append_and_fsync() {
    let _guard = lock();
    let (_dir, store) = temp_store("eintr");
    let live = LiveIndex::create(&store, "s", 4).expect("create");
    set_rules(vec![
        FaultRule::new("live.wal.append", FaultKind::Eintr, 0.5, 7),
        FaultRule::new("live.wal.fsync", FaultKind::Eintr, 0.5, 11),
    ]);
    for id in 0..20 {
        assert_eq!(live.insert(&point(id)).expect("insert absorbs EINTR"), id);
    }
    live.delete(3).expect("delete absorbs EINTR");
    set_rules(Vec::new());
    assert_eq!(live.len(), 19);

    // Everything acknowledged under injection replays cleanly.
    drop(live);
    let reopened = LiveIndex::open(&store, "s").expect("reopen");
    assert_eq!(reopened.len(), 19);
    assert!(!reopened.is_live(3));
}

#[test]
fn permanent_append_failure_is_typed_and_not_applied() {
    let _guard = lock();
    let (_dir, store) = temp_store("refuse");
    let live = LiveIndex::create(&store, "s", 4).expect("create");
    for id in 0..3 {
        live.insert(&point(id)).expect("insert");
    }
    set_rules(vec![FaultRule::new("live.wal.append", FaultKind::Refuse, 1.0, 1)]);
    // The failed insert is not acknowledged: no id is consumed, nothing is live.
    assert!(matches!(live.insert(&point(3)), Err(LiveError::Store(_))));
    assert_eq!(live.next_id(), 3);
    assert_eq!(live.len(), 3);
    // The failed delete leaves its target live.
    assert!(matches!(live.delete(1), Err(LiveError::Store(_))));
    assert!(live.is_live(1));
    set_rules(Vec::new());

    // Retrying after the fault clears succeeds with the same id.
    assert_eq!(live.insert(&point(3)).expect("retry"), 3);
    drop(live);
    let reopened = LiveIndex::open(&store, "s").expect("reopen");
    assert_eq!(reopened.len(), 4);
}

#[test]
fn failed_fsync_rolls_the_segment_back_so_a_retry_cannot_corrupt() {
    let _guard = lock();
    let (_dir, store) = temp_store("rollback");
    let live = LiveIndex::create(&store, "s", 4).expect("create");
    live.insert(&point(0)).expect("insert");
    // write(2) lands the frame bytes; the injected fsync failure must roll them
    // back, otherwise the retried (unacknowledged) insert re-appends the same id
    // after the orphaned frame and replay refuses the segment as corrupt.
    set_rules(vec![FaultRule::new("live.wal.fsync", FaultKind::Refuse, 1.0, 1)]);
    assert!(matches!(live.insert(&point(1)), Err(LiveError::Store(_))));
    set_rules(Vec::new());
    assert_eq!(live.insert(&point(1)).expect("retry after rollback"), 1);

    drop(live);
    let reopened = LiveIndex::open(&store, "s").expect("replay accepts the segment");
    assert_eq!(reopened.len(), 2);
    assert_eq!(reopened.next_id(), 2);
}

#[test]
fn replay_read_failure_is_a_typed_error_not_a_panic() {
    let _guard = lock();
    let (_dir, store) = temp_store("read");
    {
        let live = LiveIndex::create(&store, "s", 4).expect("create");
        live.insert(&point(0)).expect("insert");
    }
    set_rules(vec![FaultRule::new("live.wal.read", FaultKind::Refuse, 1.0, 1)]);
    assert!(LiveIndex::open(&store, "s").is_err());
    set_rules(Vec::new());
    let reopened = LiveIndex::open(&store, "s").expect("reopen after fault clears");
    assert_eq!(reopened.len(), 1);
}
