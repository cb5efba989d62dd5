//! Tests of the paper's headline claim: long-running transactions can share
//! collections **without unnecessary conflicts** — memory-level artifacts
//! (size fields, tree rebalancing) no longer abort logically independent
//! transactions, while real semantic conflicts are still caught.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Sets the flag on drop so writer loops terminate even if the asserting
/// thread panics (otherwise the thread scope hangs forever).
struct StopOnDrop(Arc<AtomicU64>);
impl Drop for StopOnDrop {
    fn drop(&mut self) {
        self.0.store(1, Ordering::SeqCst);
    }
}
use stm::atomic;
use txcollections::{Channel, TransactionalMap, TransactionalQueue, TransactionalSortedMap};
use txstruct::TxHashMap;

/// The Figure-1 contrast, as a correctness assertion: disjoint-key inserts
/// through a plain transactional hash map conflict (size field); through a
/// TransactionalMap they do not.
#[test]
fn disjoint_inserts_do_not_conflict_through_wrapper() {
    let wrapped: Arc<TransactionalMap<u64, u64>> = Arc::new(TransactionalMap::new());
    std::thread::scope(|s| {
        for t in 0..4u64 {
            let m = wrapped.clone();
            s.spawn(move || {
                for i in 0..100u64 {
                    let k = t * 1_000 + i; // disjoint key ranges
                    atomic(|tx| {
                        m.put_discard(tx, k, i);
                        // long transaction: more independent ops
                        m.put_discard(tx, k + 500, i);
                        let _ = m.get(tx, &k);
                    });
                }
            });
        }
    });
    // Per-instance counters are precise (global stats would be polluted by
    // tests running in parallel in this binary).
    assert_eq!(
        wrapped.semantic_stats().total(),
        0,
        "no semantic conflicts should be detected for disjoint keys"
    );
    // And the wrapper leaves no shared memory footprint in the parent: two
    // disjoint-key transactions have non-intersecting read/write sets.
    let m1 = wrapped.clone();
    let (_, t1) = stm::speculate(
        move |tx| {
            m1.put_discard(tx, 777_001, 1);
            let _ = m1.get(tx, &777_002);
        },
        0,
    )
    .unwrap();
    let m2 = wrapped.clone();
    let (_, t2) = stm::speculate(
        move |tx| {
            m2.put_discard(tx, 888_001, 1);
            let _ = m2.get(tx, &888_002);
        },
        0,
    )
    .unwrap();
    let r1: std::collections::HashSet<_> = t1.read_set().into_iter().collect();
    let w2: std::collections::HashSet<_> = t2.write_set().into_iter().collect();
    assert!(
        r1.intersection(&w2).count() == 0,
        "wrapper leaked memory-level dependencies between disjoint transactions"
    );
    t1.abort(stm::AbortCause::Explicit);
    t2.abort(stm::AbortCause::Explicit);
    // Sanity: all data arrived.
    let n = atomic(|tx| wrapped.size(tx));
    assert_eq!(n, 4 * 100 * 2);
}

/// Control experiment: the same workload through the bare TxHashMap aborts
/// due to the size field (the conflict the wrapper exists to remove).
#[test]
fn disjoint_inserts_conflict_through_bare_map() {
    use std::sync::atomic::AtomicU64;
    use std::sync::Barrier;
    // A conflict is a *probabilistic* event — it needs two commits to
    // actually overlap. One round can legitimately see none if the
    // scheduler serializes the threads, so run bounded rounds (barrier-
    // released to maximize overlap) until at least one retry is observed.
    let mut commits = 0u64;
    let mut total = 0u64;
    for _round in 0..8 {
        let bare: Arc<TxHashMap<u64, u64>> = Arc::new(TxHashMap::with_capacity(8192));
        let attempts = Arc::new(AtomicU64::new(0));
        let start = Arc::new(Barrier::new(4));
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let m = bare.clone();
                let attempts = attempts.clone();
                let start = start.clone();
                s.spawn(move || {
                    start.wait();
                    for i in 0..150u64 {
                        let k = t * 1_000 + i;
                        atomic(|tx| {
                            attempts.fetch_add(1, Ordering::Relaxed);
                            m.insert(tx, k, i);
                            // Widen the conflict window so threads overlap.
                            std::hint::black_box(fib(12));
                            m.insert(tx, k + 500, i);
                        });
                    }
                });
            }
        });
        commits += 4 * 150;
        total += attempts.load(Ordering::Relaxed);
        if total > commits {
            break;
        }
    }
    assert!(
        total > commits,
        "bare TxHashMap should conflict on its header under concurrency \
         ({total} attempts for {commits} commits)"
    );
}

fn fib(n: u64) -> u64 {
    if n < 2 {
        n
    } else {
        fib(n - 1) + fib(n - 2)
    }
}

/// Figure-3's point as a correctness property: compound operations compose
/// atomically. Concurrent check-then-act transfers over a shared map never
/// lose or create money.
#[test]
fn compound_operations_are_atomic() {
    let accounts: Arc<TransactionalMap<u32, i64>> = Arc::new(TransactionalMap::new());
    let n_accounts = 16u32;
    atomic(|tx| {
        for a in 0..n_accounts {
            accounts.put_discard(tx, a, 1_000);
        }
    });
    std::thread::scope(|s| {
        for t in 0..4u32 {
            let m = accounts.clone();
            s.spawn(move || {
                let mut x = 0x9E3779B9u64.wrapping_add(t as u64);
                let mut rng = move || {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    x
                };
                for _ in 0..300 {
                    let from = (rng() % n_accounts as u64) as u32;
                    let to = (rng() % n_accounts as u64) as u32;
                    if from == to {
                        continue;
                    }
                    let amt = (rng() % 100) as i64;
                    atomic(|tx| {
                        let f = m.get(tx, &from).unwrap();
                        if f >= amt {
                            let t_ = m.get(tx, &to).unwrap();
                            m.put(tx, from, f - amt);
                            m.put(tx, to, t_ + amt);
                        }
                    });
                }
            });
        }
    });
    let total: i64 = atomic(|tx| accounts.entries(tx).iter().map(|(_, v)| *v).sum());
    assert_eq!(total, 1_000 * n_accounts as i64, "money not conserved");
    let negative = atomic(|tx| accounts.entries(tx).iter().any(|(_, v)| *v < 0));
    assert!(
        !negative,
        "balance went negative: check-then-act not atomic"
    );
}

/// A long audit transaction (full iteration) runs concurrently with
/// transfers; whenever it commits, the sum it observed must be the invariant
/// total — iteration is serializable.
#[test]
fn full_iteration_is_serializable_against_writers() {
    let accounts: Arc<TransactionalMap<u32, i64>> = Arc::new(TransactionalMap::new());
    let n_accounts = 8u32;
    atomic(|tx| {
        for a in 0..n_accounts {
            accounts.put_discard(tx, a, 100);
        }
    });
    let stop = Arc::new(AtomicU64::new(0));
    let audits_done = Arc::new(AtomicU64::new(0));
    std::thread::scope(|s| {
        // Writers: value-preserving transfers.
        for t in 0..2u32 {
            let m = accounts.clone();
            let stop = stop.clone();
            s.spawn(move || {
                let mut i = 0u32;
                while stop.load(Ordering::SeqCst) == 0 {
                    let from = (i + t) % n_accounts;
                    let to = (i + t + 3) % n_accounts;
                    if from != to {
                        atomic(|tx| {
                            let f = m.get(tx, &from).unwrap();
                            let v = m.get(tx, &to).unwrap();
                            m.put(tx, from, f - 1);
                            m.put(tx, to, v + 1);
                        });
                    }
                    i = i.wrapping_add(1);
                    // Throttle so the long audit transaction gets commit
                    // windows — unthrottled short writers livelock the long
                    // reader, exactly the optimistic-CC hazard of §5.1.
                    std::thread::sleep(std::time::Duration::from_micros(200));
                }
            });
        }
        // Auditor: long full-iteration transactions.
        let m = accounts.clone();
        let stop2 = stop.clone();
        let audits = audits_done.clone();
        s.spawn(move || {
            let _stop_guard = StopOnDrop(stop2);
            for _ in 0..30 {
                let sum: i64 = atomic(|tx| m.entries(tx).iter().map(|(_, v)| *v).sum());
                assert_eq!(sum, 100 * n_accounts as i64, "audit saw torn state");
                audits.fetch_add(1, Ordering::SeqCst);
            }
        });
    });
    assert_eq!(audits_done.load(Ordering::SeqCst), 30);
}

/// Same property for ordered iteration over the sorted map, concurrent with
/// endpoint-moving writers.
#[test]
fn sorted_iteration_is_serializable_against_writers() {
    let m: Arc<TransactionalSortedMap<i64, i64>> = Arc::new(TransactionalSortedMap::new());
    atomic(|tx| {
        for k in 0..20 {
            m.put_discard(tx, k, 1);
        }
    });
    let stop = Arc::new(AtomicU64::new(0));
    std::thread::scope(|s| {
        // Writer: moves a matched pair in/out (total count invariant 20).
        {
            let m = m.clone();
            let stop = stop.clone();
            s.spawn(move || {
                // Slide a window of exactly 20 keys: insert `i`, remove
                // `i - 20` (which always exists), so the count is invariant.
                let mut i = 20i64;
                while stop.load(Ordering::SeqCst) == 0 {
                    atomic(|tx| {
                        m.put(tx, i, 1);
                        m.remove(tx, &(i - 20));
                    });
                    i += 1;
                    // Give the long ordered audit commit windows (see above).
                    std::thread::sleep(std::time::Duration::from_micros(200));
                }
            });
        }
        {
            let m = m.clone();
            let stop = stop.clone();
            s.spawn(move || {
                let _stop_guard = StopOnDrop(stop);
                for _ in 0..25 {
                    let entries = atomic(|tx| m.entries(tx));
                    assert_eq!(entries.len(), 20, "ordered audit saw torn state");
                    let keys: Vec<i64> = entries.iter().map(|(k, _)| *k).collect();
                    let mut sorted = keys.clone();
                    sorted.sort_unstable();
                    assert_eq!(keys, sorted, "iteration out of order");
                }
            });
        }
    });
}

/// The Delaunay pattern end to end: a work queue refined by concurrent
/// workers that both consume and produce, with injected aborts; every unit
/// of work is processed exactly once.
#[test]
fn work_queue_refinement_processes_each_item_once() {
    let q: Arc<TransactionalQueue<u64>> = Arc::new(TransactionalQueue::new());
    // Seed items 1..=50; items divisible by 10 spawn two children (i*100+1,
    // i*100+2) when processed.
    atomic(|tx| {
        for i in 1..=50u64 {
            q.put(tx, i);
        }
    });
    let processed = Arc::new(parking_lot::Mutex::new(Vec::<u64>::new()));
    std::thread::scope(|s| {
        for _ in 0..4 {
            let q = q.clone();
            let processed = processed.clone();
            s.spawn(move || {
                let mut idle = 0;
                while idle < 100 {
                    let item = atomic(|tx| {
                        let item = q.poll(tx);
                        if let Some(i) = item {
                            if i % 10 == 0 && i <= 50 {
                                q.put(tx, i * 100 + 1);
                                q.put(tx, i * 100 + 2);
                            }
                        }
                        item
                    });
                    match item {
                        Some(i) => {
                            processed.lock().push(i);
                            idle = 0;
                        }
                        None => {
                            idle += 1;
                            std::thread::yield_now();
                        }
                    }
                }
            });
        }
    });
    let mut got = processed.lock().clone();
    got.sort_unstable();
    let mut expect: Vec<u64> = (1..=50).collect();
    for i in (10..=50).step_by(10) {
        expect.push(i * 100 + 1);
        expect.push(i * 100 + 2);
    }
    expect.sort_unstable();
    assert_eq!(got, expect, "work lost, duplicated, or phantom");
}

/// UID generation in long transactions: open-nested draws never conflict,
/// and ids stay unique even across aborts (with gaps).
#[test]
fn uid_generator_scales_and_stays_unique() {
    use txcollections::UidGenerator;
    let gen = Arc::new(UidGenerator::starting_at(0));
    let before = stm::global_stats();
    let ids = Arc::new(parking_lot::Mutex::new(Vec::<i64>::new()));
    std::thread::scope(|s| {
        for _ in 0..4 {
            let g = gen.clone();
            let ids = ids.clone();
            s.spawn(move || {
                for _ in 0..250 {
                    let id = atomic(|tx| g.next(tx));
                    ids.lock().push(id);
                }
            });
        }
    });
    let diff = stm::global_stats().diff(&before);
    let mut v = ids.lock().clone();
    v.sort_unstable();
    v.dedup();
    assert_eq!(v.len(), 1000, "duplicate ids");
    // The parent transactions carry no dependency on the counter; aborts can
    // only come from the open-nested child retry, never the parents.
    assert_eq!(
        diff.aborts_read_invalid, 0,
        "UID parents conflicted: {diff:?}"
    );
}
