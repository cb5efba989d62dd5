//! Snapshot vs validated reads (PR 9): the same read-only workload on one
//! shared `TransactionalMap` run under ordinary validated transactions
//! (`stm::atomic`) and under never-aborting snapshot transactions
//! (`stm::atomic_read`), at 1/2/4/8 threads — plus a **mixed** cell that
//! measures the abort-rate delta the snapshot mode exists to deliver: a
//! size-changing writer racing whole-map observers dooms validated readers
//! (the paper's §5.1 size pain point) and dooms nobody once the observers
//! run as snapshots.
//!
//! Ceiling-gated leaves (benchdiff, NEW file only):
//! * `snapshot_abort_count` — aborts inside the snapshot windows; the
//!   design guarantee is **zero by construction**, so the ceiling is 0.
//! * `snapshot_lock_acquisitions` — semantic-lock acquisitions by snapshot
//!   readers; the kernel's snapshot skip makes this exactly 0.
//! * `snapshot_fallback_rate` — chain-truncation fallbacks per snapshot
//!   transaction; bounded, not zero, because a pinned reader racing a fast
//!   writer can legitimately outlive the depth-bounded chain.
//!
//! **Read ns/op together with `cpus`.** On a single-CPU host thread counts
//! above 1 measure scheduler interleaving, not parallelism; counters are
//! the comparable signal, ns/op is a trend line.

use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;
use stm::{atomic, atomic_read, global_stats, StatsSnapshot};
use txcollections::TransactionalMap;

const TXNS_PER_THREAD: u64 = 300;
const OPS_PER_TXN: u64 = 16;
const KEYS: u64 = 256;
const SAMPLES: usize = 5;
const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];
const MIXED_READERS: usize = 4;
const MIXED_WRITER_TXNS: u64 = 400;

fn seeded_map() -> Arc<TransactionalMap<u64, u64>> {
    let map = Arc::new(TransactionalMap::<u64, u64>::with_stripes(16));
    let m = map.clone();
    atomic(move |tx| {
        for k in 0..KEYS {
            m.put_discard(tx, k, k);
        }
    });
    map
}

/// One timed run: `threads` readers over the shared keyspace, validated or
/// snapshot. Returns ns per collection op.
fn run_read(map: &Arc<TransactionalMap<u64, u64>>, threads: usize, snapshot: bool) -> f64 {
    let start = Instant::now();
    std::thread::scope(|s| {
        for t in 0..threads as u64 {
            let map = map.clone();
            s.spawn(move || {
                for i in 0..TXNS_PER_THREAD {
                    let body = |tx: &mut stm::Txn| {
                        for j in 0..OPS_PER_TXN {
                            let k = (t * 7 + i * OPS_PER_TXN + j) % KEYS;
                            let _ = map.get(tx, &k);
                        }
                    };
                    if snapshot {
                        atomic_read(body);
                    } else {
                        atomic(body);
                    }
                }
            });
        }
    });
    start.elapsed().as_nanos() as f64 / (threads as u64 * TXNS_PER_THREAD * OPS_PER_TXN) as f64
}

/// The mixed cell: one size-changing writer (insert a fresh key, then
/// remove it) racing `MIXED_READERS` whole-map observers (`size` plus a few
/// gets). Validated observers hold the size lock in observe mode and the
/// writer's commit dooms them; snapshot observers touch no lock at all.
fn run_mixed(map: &Arc<TransactionalMap<u64, u64>>, snapshot: bool) {
    // Start barrier + a paced writer: without them the writer burns through
    // its txns before the reader threads even get scheduled on a 1-CPU
    // host, and the race being measured never overlaps.
    let barrier = Arc::new(std::sync::Barrier::new(MIXED_READERS + 1));
    std::thread::scope(|s| {
        {
            let map = map.clone();
            let barrier = barrier.clone();
            s.spawn(move || {
                barrier.wait();
                for i in 0..MIXED_WRITER_TXNS {
                    let k = 10_000_000 + i;
                    atomic(|tx| {
                        map.put_discard(tx, k, i);
                    });
                    atomic(|tx| {
                        map.remove_discard(tx, &k);
                    });
                    std::thread::sleep(std::time::Duration::from_micros(100));
                }
            });
        }
        for t in 0..MIXED_READERS as u64 {
            let map = map.clone();
            let barrier = barrier.clone();
            s.spawn(move || {
                barrier.wait();
                for i in 0..TXNS_PER_THREAD {
                    let body = |tx: &mut stm::Txn| {
                        let _ = map.size(tx);
                        // Hold the observation open long enough for the
                        // writer to commit against it (the paper's
                        // long-running observer): on a 1-CPU host a short
                        // reader transaction is never preempted mid-body,
                        // so without this the doom race the cell exists to
                        // measure does not occur at all. Both modes pay the
                        // same pause, so the abort delta stays comparable.
                        std::thread::sleep(std::time::Duration::from_micros(200));
                        for j in 0..4 {
                            let _ = map.get(tx, &((t + i + j) % KEYS));
                        }
                    };
                    if snapshot {
                        atomic_read(body);
                    } else {
                        atomic(body);
                    }
                }
            });
        }
    });
}

fn median(xs: &mut [f64]) -> f64 {
    xs.sort_unstable_by(|a, b| a.partial_cmp(b).unwrap());
    xs[xs.len() / 2]
}

struct Window {
    ns_per_op: f64,
    commits: u64,
    aborts: u64,
    snapshot_reads: u64,
    snapshot_fallbacks: u64,
    lock_acquisitions: u64,
}

/// Measure both modes at `threads`, alternating order across samples so
/// host drift hits both equally. Lock acquisitions come from the map's own
/// semantic stats (windowed), everything else from the global stm stats.
fn run_pair(threads: usize) -> (Window, Window) {
    let map = seeded_map();
    let (mut val_ns, mut snap_ns) = (Vec::new(), Vec::new());
    let mut windows = [(0u64, 0u64, 0u64, 0u64, 0u64), (0, 0, 0, 0, 0)]; // [validated, snapshot]
    for round in 0..SAMPLES {
        for &snapshot in &[round % 2 == 1, round % 2 == 0] {
            let sem = map.semantic_stats();
            let acq0 = sem.lock_acquisitions.load(Ordering::Relaxed);
            let before = global_stats();
            let ns = run_read(&map, threads, snapshot);
            let d = global_stats().diff(&before);
            let acq = sem.lock_acquisitions.load(Ordering::Relaxed) - acq0;
            let w = &mut windows[usize::from(snapshot)];
            w.0 += d.commits;
            w.1 += d.aborts();
            w.2 += d.snapshot_reads;
            w.3 += d.snapshot_fallbacks;
            w.4 += acq;
            if snapshot {
                snap_ns.push(ns);
            } else {
                val_ns.push(ns);
            }
        }
    }
    let mk = |ns: &mut Vec<f64>, w: (u64, u64, u64, u64, u64)| Window {
        ns_per_op: median(ns),
        commits: w.0,
        aborts: w.1,
        snapshot_reads: w.2,
        snapshot_fallbacks: w.3,
        lock_acquisitions: w.4,
    };
    (mk(&mut val_ns, windows[0]), mk(&mut snap_ns, windows[1]))
}

fn window_json(w: &Window) -> String {
    format!(
        "{{\"commits\": {}, \"aborts\": {}, \"snapshot_reads\": {}, \
         \"snapshot_fallbacks\": {}, \"lock_acquisitions\": {}}}",
        w.commits, w.aborts, w.snapshot_reads, w.snapshot_fallbacks, w.lock_acquisitions
    )
}

fn main() {
    let cpus = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);

    // Warm-up: lazy statics, first-touch allocation, both modes.
    {
        let map = seeded_map();
        let _ = run_read(&map, 2, false);
        let _ = run_read(&map, 2, true);
    }

    let mut rows = Vec::new();
    let mut snapshot_aborts_total = 0u64;
    let mut snapshot_acq_total = 0u64;
    let mut snapshot_txns_total = 0u64;
    let mut snapshot_fallbacks_total = 0u64;
    for &t in &THREAD_COUNTS {
        let (val, snap) = run_pair(t);
        snapshot_aborts_total += snap.aborts;
        snapshot_acq_total += snap.lock_acquisitions;
        snapshot_fallbacks_total += snap.snapshot_fallbacks;
        snapshot_txns_total += SAMPLES as u64 * t as u64 * TXNS_PER_THREAD;
        rows.push(format!(
            "    {{\"threads\": {t}, \"validated_ns_per_op\": {:.1}, \
             \"snapshot_ns_per_op\": {:.1}, \"snapshot_over_validated\": {:.3}, \
             \"validated_counters\": {}, \"snapshot_counters\": {}}}",
            val.ns_per_op,
            snap.ns_per_op,
            snap.ns_per_op / val.ns_per_op,
            window_json(&val),
            window_json(&snap),
        ));
    }

    // Mixed cell: same racing workload, observers validated vs snapshot.
    let mixed = {
        let map = seeded_map();
        let before = global_stats();
        run_mixed(&map, false);
        let val: StatsSnapshot = global_stats().diff(&before);
        let map = seeded_map();
        let before = global_stats();
        run_mixed(&map, true);
        let snap = global_stats().diff(&before);
        snapshot_aborts_total += snap.aborts();
        snapshot_fallbacks_total += snap.snapshot_fallbacks;
        snapshot_txns_total += (MIXED_READERS as u64) * TXNS_PER_THREAD;
        format!(
            "    {{\"mixed_validated_aborts\": {}, \"mixed_validated_dooms\": {}, \
             \"mixed_snapshot_aborts\": {}, \"mixed_snapshot_fallbacks\": {}, \
             \"mixed_abort_delta\": {}}}",
            val.aborts(),
            val.dooms_issued,
            snap.aborts(),
            snap.snapshot_fallbacks,
            val.aborts() as i64 - snap.aborts() as i64,
        )
    };

    let fallback_rate = snapshot_fallbacks_total as f64 / snapshot_txns_total as f64;

    println!("{{");
    println!("  \"pr\": 9,");
    println!("  \"bench\": \"snapshot_reads\",");
    println!("  \"cpus\": {cpus},");
    println!(
        "  \"caveat\": \"single-CPU container: thread counts above 1 measure scheduler \
         interleaving, not parallelism, and ns/op carries host noise — the gated signals are \
         the windowed counters (snapshot_abort_count, snapshot_lock_acquisitions, \
         snapshot_fallback_rate), which are deterministic for the workload shape\","
    );
    println!(
        "  \"claim\": \"snapshot transactions execute zero aborts and zero semantic-lock \
         acquisitions at every thread count, and the mixed cell's abort-rate delta shows the \
         point of the mode: validated whole-map observers racing a size-changing writer absorb \
         dooms, snapshot observers absorb none\","
    );
    println!("  \"txns_per_thread\": {TXNS_PER_THREAD},");
    println!("  \"ops_per_txn\": {OPS_PER_TXN},");
    println!("  \"samples\": {SAMPLES},");
    println!(
        "  \"workload\": \"read-only txns of {OPS_PER_TXN} gets over {KEYS} shared keys, \
         validated vs snapshot, at 1/2/4/8 threads; mixed cell is 1 insert+remove writer vs \
         {MIXED_READERS} size+get observers\","
    );
    println!("  \"results\": [");
    println!("{}", rows.join(",\n"));
    println!("  ],");
    println!("  \"mixed\": [");
    println!("{mixed}");
    println!("  ],");
    println!("  \"snapshot_abort_count\": {snapshot_aborts_total},");
    println!("  \"snapshot_lock_acquisitions\": {snapshot_acq_total},");
    println!("  \"snapshot_fallback_rate\": {fallback_rate:.4}");
    println!("}}");
}
