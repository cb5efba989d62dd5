//! Observability-overhead microbench: the `stm::obs` pipeline off vs on,
//! and proof that enabled emission allocates nothing.
//!
//! Three sections:
//!
//! * **off vs on** — disjoint single-var read-modify-writes at 1/2/4/8
//!   threads, best of 3 (`commit_scaling`'s sharded configuration). Off,
//!   each event is a thread-local counter bump plus one relaxed load; on,
//!   it also fills the slab, the histograms and the trace ring. ns/txn is
//!   reported; the gated signal is the summed on/off ratio under a
//!   generous noise-absorbing ceiling (1-CPU wall-clock carries up to ~38%
//!   run-to-run spread).
//! * **allocation count** — a counting `#[global_allocator]` wraps a warm
//!   single-threaded loop over every public emitter and both histogram
//!   entry points, enough records to overflow the ring. The loop must
//!   allocate **zero** times (`metrics_alloc_count`, ceiling-gated at 0 by
//!   benchdiff).
//! * **commit latency per backend** — with recording on, the
//!   commit-latency histogram's p50/p99/max per backend (plain TVar
//!   read-modify-write vs a boosted `TransactionalMap`).
//!
//! Run via `scripts/bench.sh`, which captures the report as
//! `BENCH_PR12.json` and gates it with benchdiff.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;
use stm::obs::{self, HistKind, LockKind};
use stm::{atomic, global_stats, TVar};
use txcollections::TransactionalMap;

// ----------------------------------------------------------------------
// Counting allocator
// ----------------------------------------------------------------------

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);

struct CountingAlloc;

// SAFETY: delegates every operation to `System`; the counter is a relaxed
// side effect with no influence on the returned memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

// ----------------------------------------------------------------------
// Off/on overhead on the disjoint-RMW workload
// ----------------------------------------------------------------------

const TXNS_PER_THREAD: u64 = 2000;
const SAMPLES: usize = 3;

/// ns/txn, best of [`SAMPLES`], for `threads` workers committing disjoint
/// single-var read-modify-writes with recording off or on.
fn run(threads: usize, on: bool) -> f64 {
    let guard = on.then(obs::enable);
    let mut best = f64::INFINITY;
    for _ in 0..SAMPLES {
        let vars: Vec<TVar<u64>> = (0..threads).map(|_| TVar::new(0)).collect();
        let start = Instant::now();
        std::thread::scope(|s| {
            for v in &vars {
                s.spawn(move || {
                    for _ in 0..TXNS_PER_THREAD {
                        atomic(|tx| {
                            let x = v.read(tx);
                            v.write(tx, x + 1);
                        });
                    }
                });
            }
        });
        let elapsed = start.elapsed().as_nanos() as f64;
        for v in &vars {
            assert_eq!(v.read_committed(), TXNS_PER_THREAD, "lost update");
        }
        best = best.min(elapsed / (threads as u64 * TXNS_PER_THREAD) as f64);
    }
    drop(guard);
    best
}

// ----------------------------------------------------------------------
// Allocation-free emission
// ----------------------------------------------------------------------

const EMISSION_ITERS: u64 = 10_000;

/// One pass over every public emitter and both histogram entry points.
fn emit_all(class: obs::Sym, i: u64) {
    obs::doom_edge(i, i + 1, class, LockKind::Key, i, i % 16, 0, 0, false);
    let wait = obs::sem_lock_blocked(class, i % 16);
    obs::hist_elapsed(HistKind::SemLockWait, wait);
    obs::global_stripe_entry();
    obs::lock_cache_hit(i, class, LockKind::Key, i);
    obs::sem_lock_acquired(i, class, LockKind::Size, 0);
    obs::sem_lock_released(i, class, LockKind::Size, 1);
    obs::hist_record_ns(HistKind::CommitLatency, i);
}

/// Allocations observed inside a warm emission loop. Must be zero: every
/// record is a fixed-key slab increment, a fixed-array histogram bump or a
/// fixed-width ring write.
fn emission_alloc_count() -> u64 {
    let guard = obs::enable();
    // Warm outside the counting window: interning takes the symbol-table
    // mutex and allocates (sanctioned, once per class), and the first
    // enabled emission on a thread allocates its shard's slab and ring.
    let class = obs::intern("alloc-probe");
    emit_all(class, 0);

    let before = ALLOCS.load(Ordering::Relaxed);
    COUNTING.store(true, Ordering::SeqCst);
    for i in 0..EMISSION_ITERS {
        emit_all(class, i);
    }
    COUNTING.store(false, Ordering::SeqCst);
    let count = ALLOCS.load(Ordering::Relaxed) - before;
    drop(guard);
    count
}

// ----------------------------------------------------------------------
// Commit-latency percentiles per backend
// ----------------------------------------------------------------------

const LATENCY_THREADS: u64 = 2;

/// One report row: run `workload` with recording on and read the
/// commit-latency percentiles out of the closed window.
fn latency_row(backend: &str, workload: impl FnOnce()) -> String {
    let guard = obs::enable();
    let before = obs::window();
    workload();
    let w = obs::window().diff(&before);
    drop(guard);
    let h = w.histogram(HistKind::CommitLatency);
    format!(
        "    {{\"backend\": \"{backend}\", \"commit_count\": {}, \
         \"commit_p50_ns\": {}, \"commit_p99_ns\": {}, \"commit_max_ns\": {}}}",
        h.count(),
        h.p50(),
        h.p99(),
        h.max
    )
}

fn tvar_workload() {
    let vars: Vec<TVar<u64>> = (0..LATENCY_THREADS).map(|_| TVar::new(0)).collect();
    std::thread::scope(|s| {
        for v in &vars {
            s.spawn(move || {
                for _ in 0..TXNS_PER_THREAD {
                    atomic(|tx| {
                        let x = v.read(tx);
                        v.write(tx, x + 1);
                    });
                }
            });
        }
    });
}

fn map_workload() {
    let map: TransactionalMap<u64, u64> = TransactionalMap::new();
    std::thread::scope(|s| {
        for t in 0..LATENCY_THREADS {
            let map = map.clone();
            s.spawn(move || {
                for i in 0..TXNS_PER_THREAD {
                    let k = t * TXNS_PER_THREAD + i;
                    atomic(|tx| map.put_discard(tx, k, i));
                }
            });
        }
    });
}

fn main() {
    let cpus = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);

    // Warm-up (first-touch allocation, lazy statics, shard registration).
    let _ = run(2, false);
    let _ = run(2, true);

    let before = global_stats();
    let mut rows = Vec::new();
    for &t in &[1usize, 2, 4, 8] {
        let off = run(t, false);
        let on = run(t, true);
        rows.push(format!(
            "    {{\"threads\": {t}, \"off_ns_per_txn\": {off:.1}, \
             \"on_ns_per_txn\": {on:.1}, \"metrics_on_off_ratio\": {:.3}}}",
            on / off
        ));
    }
    let dropped = global_stats().diff(&before).trace_events_dropped;

    let alloc_count = emission_alloc_count();
    let latency_rows = [
        latency_row("tvar_rmw", tvar_workload),
        latency_row("boosted_map", map_workload),
    ];

    println!("{{");
    println!("  \"pr\": 12,");
    println!("  \"bench\": \"obs_overhead\",");
    println!("  \"cpus\": {cpus},");
    println!(
        "  \"caveat\": \"thread counts above the CPU count measure scheduler interleaving, \
         not parallelism, and ns/txn carries up to ~38% run-to-run spread on 1-CPU hosts — \
         the gated signals are metrics_alloc_count (exactly 0 by construction) and the \
         summed metrics_on_off_ratio with a generous noise ceiling; latency percentiles \
         are log2 bucket upper bounds, reported not gated\","
    );
    println!(
        "  \"claim\": \"with no guard live an event costs a thread-local counter bump and \
         one relaxed load; enabled, the hot path allocates nothing: slab increments, \
         fixed-array histograms and fixed-width ring records\","
    );
    println!("  \"txns_per_thread\": {TXNS_PER_THREAD},");
    println!("  \"samples\": {SAMPLES},");
    println!(
        "  \"workload\": \"disjoint single-var read-modify-write (commit_scaling's sharded \
         config); latency rows add a boosted TransactionalMap put workload at \
         {LATENCY_THREADS} threads\","
    );
    println!("  \"results\": [");
    println!("{}", rows.join(",\n"));
    println!("  ],");
    println!("  \"trace_events_dropped\": {dropped},");
    println!("  \"commit_latency_by_backend\": [");
    println!("{}", latency_rows.join(",\n"));
    println!("  ],");
    println!("  \"emission_iters\": {EMISSION_ITERS},");
    println!("  \"metrics_alloc_count\": {alloc_count}");
    println!("}}");
}
