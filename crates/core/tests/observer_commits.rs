//! Observer-only commits: a transaction whose handlers only release its
//! semantic locks commits without the handler lane — unless a handler that
//! changes state is running, in which case it waits that handler out. These
//! tests pin down the second half, which is what keeps an observer from
//! committing a state no serial order produces (docs/PROTOCOL.md,
//! "Observer-only commits"), and check that a soak of lane-free observers
//! against multi-key writers leaves nothing behind.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Barrier};
use std::time::Duration;
use stm::{atomic, global_stats, Txn};
use txcollections::{
    EagerPolicy, EagerTransactionalMap, MapApplyOps, MapReadOps, MapUndo, TransactionalMap,
};
use txstruct::{BoostedHashMap, TxHashMap};

const STRIPES: [usize; 3] = [1, 2, 16];

/// A TVar map whose `len()` pauses, once armed, until the test lets it
/// continue (two barrier waits). A map commit whose size varied reads
/// `len()` once after its key applies — outside every stripe hold — so the
/// pause sits between this map's applies and the next class's.
struct PausingMap {
    inner: TxHashMap<u32, u64>,
    armed: Arc<AtomicBool>,
    pause: Arc<Barrier>,
}

impl MapReadOps<u32, u64> for PausingMap {
    fn get(&self, tx: &mut Txn, key: &u32) -> Option<u64> {
        self.inner.get(tx, key)
    }
    fn contains_key(&self, tx: &mut Txn, key: &u32) -> bool {
        self.inner.contains_key(tx, key)
    }
    fn len(&self, tx: &mut Txn) -> usize {
        if self.armed.swap(false, Ordering::SeqCst) {
            self.pause.wait(); // this map's applies are published
            self.pause.wait(); // the observer has read: continue
        }
        self.inner.len(tx)
    }
    fn entries(&self, tx: &mut Txn) -> Vec<(u32, u64)> {
        self.inner.entries(tx)
    }
}

impl MapApplyOps<u32, u64> for PausingMap {
    fn insert(&self, tx: &mut Txn, key: u32, value: u64) -> Option<u64> {
        tx.write_group(|tx| self.inner.insert(tx, key, value))
    }
    fn remove(&self, tx: &mut Txn, key: &u32) -> Option<u64> {
        tx.write_group(|tx| self.inner.remove(tx, key))
    }
}

impl MapUndo<u32, u64> for PausingMap {}

/// The counterexample to "observers never need the lane". Writer W sets
/// `a[1]` and `b[2]` to 1 in one transaction; its handler for `a` has
/// applied and pauses before the handler for `b` runs. Observer R reads the
/// new `a[1]`, then the old `b[2]` — holding the `b[2]` lock, so W's `b`
/// apply will doom it. If R could commit before that doom lands it would
/// commit `(1, 0)`, a state no serial order produces. R must instead wait
/// for W (an updating holder is inside the lane), be doomed, and retry.
fn observer_between_two_handlers_is_doomed(stripes: usize) {
    let armed = Arc::new(AtomicBool::new(false));
    let pause = Arc::new(Barrier::new(2));
    let a = TransactionalMap::wrap_with_stripes(
        PausingMap {
            inner: TxHashMap::new(),
            armed: Arc::clone(&armed),
            pause: Arc::clone(&pause),
        },
        stripes,
    );
    let b: TransactionalMap<u32, u64> = TransactionalMap::with_stripes(stripes);
    atomic(|tx| b.put_discard(tx, 2, 0));

    let (read_tx, read_rx) = mpsc::channel();
    let (done_tx, done_rx) = mpsc::channel();
    std::thread::scope(|s| {
        armed.store(true, Ordering::SeqCst);
        let (wa, wb) = (a.clone(), b.clone());
        s.spawn(move || {
            atomic(|tx| {
                // `a` first: its handler runs first, and `a[1]` is a new
                // key, so its size varies and it reads `len()`.
                wa.put_discard(tx, 1, 1);
                wb.put_discard(tx, 2, 1);
            })
        });
        pause.wait(); // W is between its `a` and `b` handlers

        let (ra, rb) = (a.clone(), b.clone());
        s.spawn(move || {
            let seen = atomic(|tx| {
                let x = ra.get(tx, &1);
                let y = rb.get(tx, &2);
                // Signals every attempt's reads, aborted ones included.
                let _ = read_tx.send(()); // txlint: allow(TX001)
                (x, y)
            });
            done_tx.send(seen).unwrap();
        });
        read_rx.recv().expect("observer read both keys");
        // An observer that skips the lane commits here, while W is still
        // paused; one that waits for the lane cannot finish yet.
        let early = done_rx.recv_timeout(Duration::from_millis(300)).ok();
        pause.wait(); // let W finish: its `b` apply dooms the observer
        let seen = early.unwrap_or_else(|| done_rx.recv().expect("observer committed"));
        assert_eq!(
            seen,
            (Some(1), Some(1)),
            "observer committed a state from between two commit handlers \
             ({stripes} stripes)"
        );
    });
}

#[test]
fn observer_between_two_handlers_is_doomed_1_stripe() {
    observer_between_two_handlers_is_doomed(1);
}

#[test]
fn observer_between_two_handlers_is_doomed_2_stripes() {
    observer_between_two_handlers_is_doomed(2);
}

#[test]
fn observer_between_two_handlers_is_doomed_16_stripes() {
    observer_between_two_handlers_is_doomed(16);
}

// ----------------------------------------------------------------------
// Soak: lane-free observers against multi-key writers
// ----------------------------------------------------------------------

const ACCOUNTS: u32 = 8;
const START: u64 = 100;
const TOTAL: u64 = START * ACCOUNTS as u64;
const WRITERS: u64 = 2;
const OBSERVERS: u64 = 2;
#[cfg(debug_assertions)]
const TXNS: u64 = 400;
#[cfg(not(debug_assertions))]
const TXNS: u64 = 4_000;

/// The map surface the soak drives, plus its quiescence diagnostics.
trait Accounts: Sync {
    fn read(&self, tx: &mut Txn, k: u32) -> u64;
    fn write(&self, tx: &mut Txn, k: u32, v: u64);
    fn size(&self, tx: &mut Txn) -> usize;
    /// `(locked keys, resident locals, resident undo logs)`.
    fn residue(&self) -> (usize, usize, usize);
}

impl Accounts for TransactionalMap<u32, u64, BoostedHashMap<u32, u64>> {
    fn read(&self, tx: &mut Txn, k: u32) -> u64 {
        self.get(tx, &k).expect("account exists")
    }
    fn write(&self, tx: &mut Txn, k: u32, v: u64) {
        self.put_discard(tx, k, v);
    }
    fn size(&self, tx: &mut Txn) -> usize {
        TransactionalMap::size(self, tx)
    }
    fn residue(&self) -> (usize, usize, usize) {
        (
            self.locked_key_count(),
            self.resident_local_count(),
            self.resident_undo_log_count(),
        )
    }
}

impl Accounts for EagerTransactionalMap<u32, u64, BoostedHashMap<u32, u64>> {
    fn read(&self, tx: &mut Txn, k: u32) -> u64 {
        self.get(tx, &k).expect("account exists")
    }
    fn write(&self, tx: &mut Txn, k: u32, v: u64) {
        let _ = self.put(tx, k, v);
    }
    fn size(&self, tx: &mut Txn) -> usize {
        EagerTransactionalMap::size(self, tx)
    }
    fn residue(&self) -> (usize, usize, usize) {
        (
            self.locked_key_count(),
            self.resident_local_count(),
            self.resident_undo_log_count(),
        )
    }
}

/// xorshift64: deterministic per-thread key choices.
fn next(state: &mut u64) -> u64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    *state
}

/// Writers move amounts between two accounts (sum invariant); observers
/// alternate single-key reads, whole-ledger sums and size reads. Every
/// committed observation must satisfy the invariant, and afterwards no
/// lock, local entry or undo log may remain.
fn soak(map: &impl Accounts) {
    atomic(|tx| {
        for k in 0..ACCOUNTS {
            map.write(tx, k, START);
        }
    });
    let before = global_stats();
    std::thread::scope(|s| {
        for w in 0..WRITERS {
            s.spawn(move || {
                let mut rng = 0x9e37_79b9_7f4a_7c15 ^ (w + 1);
                for _ in 0..TXNS {
                    let i = (next(&mut rng) % ACCOUNTS as u64) as u32;
                    let j = (i + 1 + (next(&mut rng) % (ACCOUNTS as u64 - 1)) as u32) % ACCOUNTS;
                    let amount = next(&mut rng) % 10;
                    atomic(|tx| {
                        let (x, y) = (map.read(tx, i), map.read(tx, j));
                        let moved = amount.min(x);
                        map.write(tx, i, x - moved);
                        map.write(tx, j, y + moved);
                    });
                }
            });
        }
        for o in 0..OBSERVERS {
            s.spawn(move || {
                let mut rng = 0x2545_f491_4f6c_dd1d ^ (o + 1);
                for n in 0..TXNS {
                    match n % 3 {
                        0 => {
                            let k = (next(&mut rng) % ACCOUNTS as u64) as u32;
                            let v = atomic(|tx| map.read(tx, k));
                            assert!(v <= TOTAL, "account {k} holds {v} > {TOTAL}");
                        }
                        1 => {
                            let sum: u64 =
                                atomic(|tx| (0..ACCOUNTS).map(|k| map.read(tx, k)).sum());
                            assert_eq!(sum, TOTAL, "observer committed a torn ledger");
                        }
                        _ => {
                            let size = atomic(|tx| map.size(tx));
                            assert_eq!(size, ACCOUNTS as usize);
                        }
                    }
                }
            });
        }
    });
    let d = global_stats().diff(&before);
    assert!(
        d.lane_free_commits > 0,
        "no observer committed without the lane"
    );
    let sum: u64 = atomic(|tx| (0..ACCOUNTS).map(|k| map.read(tx, k)).sum());
    assert_eq!(sum, TOTAL);
    assert_eq!(map.residue(), (0, 0, 0), "(locked keys, locals, undo logs)");
}

#[test]
fn observer_soak_buffered_map() {
    for stripes in STRIPES {
        let map: TransactionalMap<u32, u64, BoostedHashMap<u32, u64>> =
            TransactionalMap::boosted_with_stripes(stripes);
        soak(&map);
    }
}

#[test]
fn observer_soak_eager_map() {
    for stripes in STRIPES {
        let map: EagerTransactionalMap<u32, u64, BoostedHashMap<u32, u64>> =
            EagerTransactionalMap::boosted_with_stripes(EagerPolicy::DoomReaders, stripes);
        soak(&map);
    }
}
