//! Lifecycle of the per-thread observability shards: exited threads hand
//! their shard to the next thread without losing a count, and nothing
//! allocates a slab or a trace ring while no guard is live.
//!
//! Both tests read process-wide state, so they serialize on a file-local
//! mutex; no test here enables recording.

use std::sync::{Barrier, Mutex};
use stm::obs::{self, HistKind, LockKind, Sym};
use stm::{atomic, global_stats, TVar};

static SERIAL: Mutex<()> = Mutex::new(());

fn serialize() -> std::sync::MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

/// 1,000 short-lived threads, one after another, each committing one
/// transaction: every commit is counted, and the registry stays at the
/// peak number of live threads instead of growing per thread.
#[test]
fn short_lived_threads_reuse_shards_and_keep_their_counts() {
    let _g = serialize();
    let before = global_stats();
    let (shards_before, _) = obs::shard_census();
    let var = TVar::new(0u64);
    for _ in 0..1000 {
        let var = var.clone();
        std::thread::spawn(move || {
            atomic(|tx| {
                let x = var.read(tx);
                var.write(tx, x + 1);
            })
        })
        .join()
        .unwrap();
    }
    assert_eq!(global_stats().diff(&before).commits, 1000);
    assert_eq!(var.read_committed(), 1000);
    let (shards, _) = obs::shard_census();
    assert!(
        shards <= shards_before + 2,
        "thread churn grew the registry from {shards_before} to {shards} shards"
    );
}

/// With no guard live, threads that claim fresh shards and run every kind
/// of emission allocate no slab and no ring.
#[test]
fn no_guard_means_no_slab_or_ring() {
    let _g = serialize();
    assert!(!obs::enabled());
    let (shards_before, _) = obs::shard_census();
    // More concurrently live threads than shards: some must claim fresh ones.
    let n = shards_before + 2;
    let barrier = Barrier::new(n);
    let var = TVar::new(0u64);
    std::thread::scope(|s| {
        for _ in 0..n {
            s.spawn(|| {
                barrier.wait();
                atomic(|tx| {
                    let x = var.read(tx);
                    var.write(tx, x + 1);
                });
                let class = Sym::UNKNOWN;
                obs::doom_edge(1, 2, class, LockKind::Key, 0, 0, 0, 0, false);
                obs::hist_elapsed(HistKind::SemLockWait, obs::sem_lock_blocked(class, 0));
                obs::lock_cache_hit(1, class, LockKind::Key, 0);
                obs::hist_record_ns(HistKind::CommitLatency, 1);
                barrier.wait();
            });
        }
    });
    let (shards, live) = obs::shard_census();
    assert!(shards > shards_before, "no fresh shard was claimed");
    assert_eq!(
        live, 0,
        "a shard allocated its slab or ring with no guard live"
    );
}
