#!/usr/bin/env bash
# Checked-in scaling benches. Each writes its JSON report to the repo root
# (checked in alongside the code so the numbers travel with the PR):
#   BENCH_PR2.json — commit-path scaling (PR 2): sharded per-TVar commit vs
#                    the reconstructed serialized baseline.
#   BENCH_PR3.json — collection hot-path scaling (PR 3): striped semantic
#                    lock tables vs the single-table baseline.
#   BENCH_PR5.json — tracing overhead (PR 5): the conflict-provenance trace
#                    layer off vs on vs on-with-overflowing-rings. No longer
#                    regenerated: its bench was merged into obs_overhead.
#   BENCH_PR8.json — boosted vs TVar map backends + amortization sweep
#                    (PR 8): the PR 7 uncontended workloads plus read-only
#                    transactions at ops_per_txn 1/16/64 with repeat vs
#                    distinct keys, reporting per-txn open-commit, flattened-
#                    read, stripe-acquisition, and lock-cache counters.
#   BENCH_PR9.json — snapshot vs validated reads (PR 9): the same read-only
#                    workload under atomic_read and atomic at 1/2/4/8
#                    threads, plus the mixed abort-rate-delta cell (size-
#                    changing writer vs whole-map observers). Ceiling-gated:
#                    snapshot_abort_count = 0, snapshot_lock_acquisitions
#                    = 0, snapshot_fallback_rate bounded.
#   BENCH_PR10.json — dimensional metrics overhead (PR 10): disjoint-RMW
#                    ns/txn with metrics off vs on at 1/2/4/8 threads, a
#                    counting-allocator emission loop, and p50/p99 commit
#                    latency per backend (TVar RMW vs boosted map) from the
#                    enabled commit-latency histogram. Ceiling-gated:
#                    metrics_alloc_count = 0 and the summed on/off ratio.
#                    No longer regenerated: its bench became obs_overhead.
#                    As everywhere in this file: 1-CPU container, ns/op
#                    medians carry ~38% run-to-run noise — counters and
#                    percentile bucket bounds are the stable signals,
#                    wall-clock is context.
#   BENCH_PR12.json — observability pipeline overhead (PR 12): disjoint-RMW
#                    ns/txn with the stm::obs guard off vs on at 1/2/4/8
#                    threads, a counting-allocator loop over every public
#                    emitter, and p50/p99 commit latency per backend.
#                    Ceiling-gated like PR 10: metrics_alloc_count = 0 and
#                    the summed metrics_on_off_ratio. BENCH_PR5.json (trace
#                    layer) and BENCH_PR10.json (metrics layer) stay checked
#                    in as the measurements of the layers it replaced.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo bench -q -p bench --bench commit_scaling >BENCH_PR2.json
cat BENCH_PR2.json

cargo bench -q -p bench --bench collection_scaling >BENCH_PR3.json
cat BENCH_PR3.json

cargo bench -q -p bench --bench boosted_vs_tvar >BENCH_PR8.json
cat BENCH_PR8.json

cargo bench -q -p bench --bench snapshot_reads >BENCH_PR9.json
cat BENCH_PR9.json

cargo bench -q -p bench --bench obs_overhead >BENCH_PR12.json
cat BENCH_PR12.json

# Counter-based regression gate: the new report's protocol counters may not
# blow past the previous PR's where the two are comparable, and the
# amortization sweep's repeat_* per-txn leaves must stay under their
# absolute ceilings (ns/op is never gated — 1-CPU hosts are too noisy for
# wall-clock gates).
cargo run -q --release -p bench --bin benchdiff -- BENCH_PR7.json BENCH_PR8.json
cargo run -q --release -p bench --bin benchdiff -- BENCH_PR8.json BENCH_PR9.json
cargo run -q --release -p bench --bin benchdiff -- BENCH_PR9.json BENCH_PR10.json
cargo run -q --release -p bench --bin benchdiff -- BENCH_PR10.json BENCH_PR12.json

# Smoke the reporter end to end: an armed contended-map soak (provenance
# report, windowed metrics, flight recorder, and two Prometheus scrapes that
# must parse and stay monotone), export, then re-parse and structurally
# validate the exported trace. The second soak repeats one key per
# transaction so the txn-local lock cache is exercised under contention.
cargo build -q --release -p bench --bin txtop
./target/release/txtop --soak --threads 4 --txns 300 --export-json target/txtop_trace.json
./target/release/txtop --validate target/txtop_trace.json
./target/release/txtop --soak --threads 4 --txns 300 --repeat-keys --export-json target/txtop_repeat_trace.json
./target/release/txtop --validate target/txtop_repeat_trace.json
