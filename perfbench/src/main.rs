//! The repository's benchmark: closed-loop workloads over the transactional
//! collection classes, reporting end-to-end latency and throughput, or, with
//! `--trace 1`, per-layer figures from an outside-in span trace.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload map_point --seed 1 --seconds 10 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. Metric names and units are
//! listed in `E2E` and `PER_LAYER` below and in `BENCHMARK.json`.

mod closed_loop;
mod hist;
mod jbb_warehouse;
mod map_point;
mod sorted_snapshot;
mod trace;
mod warm;

use closed_loop::{run_workload, Workload};
use std::fmt::Write as _;
use std::process::ExitCode;

/// End-to-end metrics, reported with `--trace 0`.
const E2E: [(&str, &str); 7] = [
    ("txn_per_s", "1/s"),
    ("read_txn_p50_us", "us"),
    ("read_txn_p99_us", "us"),
    ("write_txn_p50_us", "us"),
    ("write_txn_p99_us", "us"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, reported with `--trace 1`. A metric whose layer the
/// workload does not exercise reads 0.
const PER_LAYER: [(&str, &str); 39] = [
    ("stm.begin_ns", "ns"),
    ("stm.commit_ns", "ns"),
    ("stm.commit_ns_p99", "ns"),
    ("stm.self_ns_per_txn", "ns"),
    ("stm.lane_entries_per_txn", "1/txn"),
    ("stm.handler_runs_per_txn", "1/txn"),
    ("stm.open_commits_per_txn", "1/txn"),
    ("stm.var_lock_spins_per_ktxn", "1/ktxn"),
    ("stm.attempts_per_txn", "1/txn"),
    ("stm.wasted_ns_per_txn", "ns"),
    ("stm.aborts_read_invalid_per_ktxn", "1/ktxn"),
    ("stm.aborts_doomed_per_ktxn", "1/ktxn"),
    ("stm.snapshot_reads_per_read_txn", "1/txn"),
    ("stm.snapshot_fallbacks_per_read_txn", "1/txn"),
    ("stm.chain_reclaimed_per_write_txn", "1/txn"),
    ("core.get_ns", "ns"),
    ("core.put_ns", "ns"),
    ("core.range_entries_ns", "ns"),
    ("core.self_ns_per_txn", "ns"),
    ("core.lock_acquisitions_per_txn", "1/txn"),
    ("core.lock_cache_hits_per_txn", "1/txn"),
    ("core.global_stripe_entries_per_txn", "1/txn"),
    ("core.stripe_lock_spins_per_ktxn", "1/ktxn"),
    ("core.semantic_conflicts_per_ktxn", "1/ktxn"),
    ("core.over_raw", "ratio"),
    ("core.split_pair_scans_per_mscan", "1/Mscan"),
    ("txstruct.get_ns", "ns"),
    ("jbb.new_order_us", "us"),
    ("jbb.payment_us", "us"),
    ("jbb.order_status_us", "us"),
    ("jbb.delivery_us", "us"),
    ("jbb.stock_level_us", "us"),
    ("jbb.new_order_attempts", "1/txn"),
    ("jbb.payment_attempts", "1/txn"),
    ("jbb.order_status_attempts", "1/txn"),
    ("jbb.delivery_attempts", "1/txn"),
    ("jbb.stock_level_attempts", "1/txn"),
    ("jbb.self_ns_per_txn", "ns"),
    ("trace_overhead", "ratio"),
];

/// Runs one workload for a configuration.
type RunFn = fn(&Config) -> Outcome;

const WORKLOADS: [(&str, RunFn); 3] = [
    (map_point::MapPoint::NAME, |cfg| {
        run_workload(
            &map_point::MapPoint {
                keys: map_point::KEYS,
            },
            cfg,
        )
    }),
    (jbb_warehouse::JbbWarehouse::NAME, |cfg| {
        run_workload(&jbb_warehouse::JbbWarehouse, cfg)
    }),
    (sorted_snapshot::SortedSnapshot::NAME, |cfg| {
        run_workload(&sorted_snapshot::SortedSnapshot::default(), cfg)
    }),
];

pub struct Config {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Every output check passed.
    pub correct: bool,
    pub metrics: closed_loop::Metrics,
    /// Human-readable lines printed before the result.
    pub info: Vec<String>,
}

const USAGE: &str =
    "usage: perfbench --workload <map_point|jbb_warehouse|sorted_snapshot> --seed <n> \
     --seconds <n> --trace <0|1>";

fn parse_args(args: &[String]) -> Result<(RunFn, Config), String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => {
                let run = WORKLOADS
                    .iter()
                    .find(|(name, _)| name == value)
                    .ok_or(format!("unknown workload {value}"))?
                    .1;
                workload = Some(run);
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(bad)?),
            "--seconds" => {
                let s = value.parse::<u64>().map_err(bad)?;
                if !(1..=600).contains(&s) {
                    return Err(format!("--seconds must be 1..=600, got {s}"));
                }
                seconds = Some(s as f64);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let missing = |f: &str| format!("missing {f}");
    Ok((
        workload.ok_or(missing("--workload"))?,
        Config {
            seed: seed.ok_or(missing("--seed"))?,
            seconds: seconds.ok_or(missing("--seconds"))?,
            trace: trace.ok_or(missing("--trace"))?,
        },
    ))
}

/// The result line: every metric of the catalog, in catalog order.
fn result_json(out: &Outcome, catalog: &[(&str, &str)]) -> String {
    let mut s = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        out.correct, out.attempted, out.failed
    );
    for (i, (name, unit)) in catalog.iter().enumerate() {
        let value = out
            .metrics
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0.0, |&(_, v)| v);
        let value = if value.is_finite() { value } else { 0.0 };
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            s,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    s.push_str("}}");
    s
}

/// Write the traced run's span dump next to the benchmark's sources, as
/// `out/spans-<workload>.jsonl`.
pub fn write_dump(workload: &str, tracers: &[trace::Tracer]) {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let text: String = tracers.iter().map(|t| trace::dump_jsonl(&t.dump)).collect();
    let path = dir.join(format!("spans-{workload}.jsonl"));
    if let Err(e) = std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, text)) {
        eprintln!("perfbench: cannot write {}: {e}", path.display());
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (run, cfg) = match parse_args(&args) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let out = run(&cfg);
    let catalog: &[(&str, &str)] = if cfg.trace { &PER_LAYER } else { &E2E };
    for line in &out.info {
        println!("# {line}");
    }
    for (name, unit) in catalog {
        if let Some((_, v)) = out.metrics.iter().find(|(n, _)| n == name) {
            println!("# {name} = {v} {unit}");
        }
    }
    if !out.correct {
        eprintln!(
            "perfbench: output checks failed: {} of {}",
            out.failed, out.attempted
        );
    }
    println!("{}", result_json(&out, catalog));
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The catalogs here and the metric lists in `BENCHMARK.json` name the
    /// same metrics with the same units.
    #[test]
    fn catalogs_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        for (name, unit) in E2E.iter().chain(PER_LAYER.iter()) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(text.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let listed = text.matches("\"unit\":").count();
        assert_eq!(
            listed,
            E2E.len() + PER_LAYER.len(),
            "extra metrics in BENCHMARK.json"
        );
    }

    #[test]
    fn args_are_checked() {
        let args = |s: &str| s.split(' ').map(String::from).collect::<Vec<_>>();
        let (_, cfg) = parse_args(&args(
            "--workload map_point --seed 3 --seconds 10 --trace 1",
        ))
        .expect("valid");
        assert_eq!((cfg.seed, cfg.seconds, cfg.trace), (3, 10.0, true));
        assert!(parse_args(&args("--workload nope --seed 3 --seconds 10 --trace 1")).is_err());
        assert!(parse_args(&args("--workload map_point --seed 3 --seconds 0 --trace 1")).is_err());
        assert!(parse_args(&args("--workload map_point --seed 3 --trace 1")).is_err());
    }

    #[test]
    fn result_line_lists_every_catalog_metric() {
        let out = Outcome {
            attempted: 4,
            failed: 1,
            correct: false,
            metrics: vec![("setup_s", 0.5), ("txn_per_s", f64::NAN)],
            info: vec![],
        };
        let line = result_json(&out, &E2E);
        assert!(line.starts_with("{\"correct\": false, \"attempted\": 4, \"failed\": 1,"));
        assert!(line.contains("\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}"));
        assert!(line.contains("\"txn_per_s\": {\"value\": 0, \"unit\": \"1/s\"}"));
        assert_eq!(line.matches("\"unit\"").count(), E2E.len());
    }
}
