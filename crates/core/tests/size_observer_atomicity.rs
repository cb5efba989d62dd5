//! A commit handler applies a map's buffered writes one backend operation
//! at a time, so a concurrent `size()` can read the size between two of
//! them. A commit whose net size change is zero must still doom such an
//! observer, or it commits with a size no serial order produces.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Barrier};
use stm::{atomic, Txn};
use txcollections::{MapApplyOps, MapReadOps, MapUndo, TransactionalMap};
use txstruct::TxHashMap;

/// A TVar map that, once armed, pauses after its next applied mutation
/// until the test lets it continue (two barrier waits).
struct PausingMap {
    inner: TxHashMap<u32, u64>,
    armed: Arc<AtomicBool>,
    pause: Arc<Barrier>,
}

impl PausingMap {
    fn after_apply(&self) {
        if self.armed.swap(false, Ordering::SeqCst) {
            self.pause.wait(); // the first apply is published
            self.pause.wait(); // the observer has read: continue
        }
    }
}

impl MapReadOps<u32, u64> for PausingMap {
    fn get(&self, tx: &mut Txn, key: &u32) -> Option<u64> {
        self.inner.get(tx, key)
    }
    fn contains_key(&self, tx: &mut Txn, key: &u32) -> bool {
        self.inner.contains_key(tx, key)
    }
    fn len(&self, tx: &mut Txn) -> usize {
        self.inner.len(tx)
    }
    fn entries(&self, tx: &mut Txn) -> Vec<(u32, u64)> {
        self.inner.entries(tx)
    }
}

impl MapApplyOps<u32, u64> for PausingMap {
    fn insert(&self, tx: &mut Txn, key: u32, value: u64) -> Option<u64> {
        let old = tx.write_group(|tx| self.inner.insert(tx, key, value));
        self.after_apply();
        old
    }
    fn remove(&self, tx: &mut Txn, key: &u32) -> Option<u64> {
        let old = tx.write_group(|tx| self.inner.remove(tx, key));
        self.after_apply();
        old
    }
}

impl MapUndo<u32, u64> for PausingMap {}

/// The writer removes key 1 and adds key 2 (size 1 before and after) and
/// pauses between the two applies; the observer reads `size()` during the
/// pause and can only commit after the writer. Its committed answer must be
/// the writer's final size.
#[test]
fn size_read_between_applies_of_a_net_zero_commit_is_doomed() {
    let armed = Arc::new(AtomicBool::new(false));
    let pause = Arc::new(Barrier::new(2));
    let map = TransactionalMap::wrap(PausingMap {
        inner: TxHashMap::new(),
        armed: Arc::clone(&armed),
        pause: Arc::clone(&pause),
    });
    atomic(|tx| map.put_discard(tx, 1, 10));

    let (read_tx, read_rx) = mpsc::channel();
    std::thread::scope(|s| {
        armed.store(true, Ordering::SeqCst);
        let writer = map.clone();
        s.spawn(move || {
            atomic(|tx| {
                let _ = writer.remove(tx, &1);
                writer.put_discard(tx, 2, 20);
            })
        });
        pause.wait(); // the writer's handler is between its two applies

        let observer = map.clone();
        let seen = s.spawn(move || {
            atomic(|tx| {
                let n = observer.size(tx);
                // Signals every attempt's read, aborted ones included.
                let _ = read_tx.send(()); // txlint: allow(TX001)
                n
            })
        });
        read_rx.recv().expect("observer read the size");
        pause.wait(); // let the writer finish its commit

        let n = seen.join().expect("observer thread");
        assert_eq!(
            n, 1,
            "observer committed a size from the middle of a commit"
        );
    });
    assert_eq!(atomic(|tx| map.size(tx)), 1);
}
