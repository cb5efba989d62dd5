//! Commit-path scaling microbench: disjoint-write transactions at 1/2/4/8
//! threads, sharded commit (per-TVar versioned locks, no global serialization
//! for handler-free transactions) versus a reconstructed serialized baseline
//! (a process-global mutex around every transaction — the critical section
//! the removed global commit mutex imposed; the transaction bodies here are
//! a single read-modify-write, so body time is commit-dominated).
//!
//! Run via `scripts/bench.sh`, which captures the JSON report as
//! `BENCH_PR2.json`. The report includes the host CPU count: on a single
//! hardware thread the sharded path shows up as avoided lock handoffs rather
//! than true parallel commits, so interpret `throughput_ratio` together with
//! `cpus`.

use parking_lot::Mutex;
use std::time::Instant;
use stm::{atomic, global_stats, TVar};

/// Stand-in for the retired global commit mutex.
static SERIAL: Mutex<()> = Mutex::new(());

const TXNS_PER_THREAD: u64 = 2000;
const SAMPLES: usize = 3;

/// Run `threads` workers, each committing [`TXNS_PER_THREAD`] disjoint
/// single-var read-modify-writes; returns ns/txn (best of [`SAMPLES`]).
fn run(threads: usize, serialized: bool) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..SAMPLES {
        let vars: Vec<TVar<u64>> = (0..threads).map(|_| TVar::new(0)).collect();
        let start = Instant::now();
        std::thread::scope(|s| {
            for v in &vars {
                s.spawn(move || {
                    for _ in 0..TXNS_PER_THREAD {
                        let _serial_section = serialized.then(|| SERIAL.lock());
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
    best
}

fn main() {
    let cpus = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);

    // Warm up both paths (first-touch allocation, lazy statics).
    let _ = run(2, false);
    let _ = run(2, true);

    let before = global_stats();
    let mut rows = Vec::new();
    for &t in &[1usize, 2, 4, 8] {
        let ser = run(t, true);
        let sh = run(t, false);
        rows.push(format!(
            "    {{\"threads\": {t}, \"serialized_ns_per_txn\": {ser:.1}, \
             \"sharded_ns_per_txn\": {sh:.1}, \"throughput_ratio\": {:.3}}}",
            ser / sh
        ));
    }
    let d = global_stats().diff(&before);

    println!("{{");
    println!("  \"bench\": \"commit_scaling\",");
    println!("  \"cpus\": {cpus},");
    println!("  \"txns_per_thread\": {TXNS_PER_THREAD},");
    println!("  \"samples\": {SAMPLES},");
    println!("  \"workload\": \"disjoint single-var read-modify-write\",");
    println!("  \"baseline\": \"global mutex held across each transaction\",");
    println!("  \"results\": [");
    println!("{}", rows.join(",\n"));
    println!("  ],");
    println!("  \"lane_free_commits\": {},", d.lane_free_commits);
    println!("  \"lane_entries\": {},", d.lane_entries);
    println!("  \"var_lock_spins\": {}", d.var_lock_spins);
    println!("}}");
}
