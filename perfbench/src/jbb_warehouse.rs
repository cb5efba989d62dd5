//! `jbb_warehouse`: the §6.3 SPECjbb warehouse in its transactional
//! configuration, one `run_op` per `stm::atomic`. Compound multi-collection
//! transactions exercise sorted-map endpoint and range locks, dooms, TVar
//! read-invalid aborts, open-nested counters and commit-handler sweeps.
//!
//! The tables grow with every NewOrder and Payment, so a run does fixed
//! work: `ROUNDS_PER_SECOND` rounds per second of `--seconds`, each building
//! a fresh warehouse and issuing exactly `ROUND_TXNS` transactions per
//! client. A faster program finishes the same rounds sooner; it never gets
//! longer tables, more rounds or a higher memory peak for being fast.

use crate::closed_loop::{Client, Metrics, Plan, SemCounts, Stop, Workload, CLIENTS};
use crate::trace::{Layer, Probe, TraceAgg};
use jbb::{op_for, JMap, JSorted, OpKind, TmConfig, TmWarehouse, TxnRng, DEFAULT_THINK};
use std::time::Duration;
use stm::{atomic, StatsSnapshot};
use txcollections::SemanticStats;

/// Transactions each client issues per round.
pub const ROUND_TXNS: u64 = 8_000;
/// Single-client transactions run on a fresh warehouse before a round.
const WARMUP_TXNS: usize = 1_000;
/// Rounds per second of `--seconds` (a round takes about 0.3 s here).
const ROUNDS_PER_SECOND: f64 = 3.0;

/// Each operation kind with its span name and its two per-layer metrics.
const KINDS: [(OpKind, &str, &str, &str); 5] = [
    (
        OpKind::NewOrder,
        "new_order",
        "jbb.new_order_us",
        "jbb.new_order_attempts",
    ),
    (
        OpKind::Payment,
        "payment",
        "jbb.payment_us",
        "jbb.payment_attempts",
    ),
    (
        OpKind::OrderStatus,
        "order_status",
        "jbb.order_status_us",
        "jbb.order_status_attempts",
    ),
    (
        OpKind::Delivery,
        "delivery",
        "jbb.delivery_us",
        "jbb.delivery_attempts",
    ),
    (
        OpKind::StockLevel,
        "stock_level",
        "jbb.stock_level_us",
        "jbb.stock_level_attempts",
    ),
];

fn kind_name(k: OpKind) -> &'static str {
    KINDS
        .iter()
        .find(|(kind, ..)| *kind == k)
        .map(|(_, name, ..)| *name)
        .expect("every kind is listed")
}

fn is_read(k: OpKind) -> bool {
    matches!(k, OpKind::OrderStatus | OpKind::StockLevel)
}

pub struct JbbClient<'a> {
    w: &'a TmWarehouse,
    seed: u64,
    cpu: usize,
    seq: usize,
}

impl Client for JbbClient<'_> {
    fn step<P: Probe>(&mut self, p: &mut P) -> bool {
        let rng = TxnRng::new(self.seed, self.cpu, self.seq);
        self.seq += 1;
        let kind = op_for(rng.clone().next());
        let name = kind_name(kind);
        let w = self.w;
        p.txn_start();
        atomic(|tx| {
            p.attempt();
            let mut r = rng.clone();
            p.call(Layer::Jbb, name, || w.run_op(tx, &mut r, DEFAULT_THINK));
            p.attempt_end();
        });
        p.txn_end(name);
        is_read(kind)
    }
}

/// Semantic-lock counters over every wrapped collection of the warehouse.
fn warehouse_sem(w: &TmWarehouse) -> SemCounts {
    let mut stats: Vec<&SemanticStats> = Vec::new();
    if let JMap::Wrapped(m) = &w.customer_index {
        stats.push(m.semantic_stats());
    }
    if let JMap::Wrapped(m) = &w.history_table {
        stats.push(m.semantic_stats());
    }
    for d in &w.districts {
        if let JSorted::Wrapped(m) = &d.order_table {
            stats.push(m.semantic_stats());
        }
        if let JSorted::Wrapped(m) = &d.new_order_table {
            stats.push(m.semantic_stats());
        }
    }
    SemCounts::of(stats)
}

/// Failures a round's output shows: commits that do not match the
/// transactions issued, and every transaction of a round whose warehouse
/// breaks its invariants.
pub fn round_failures(issued: u64, commits: u64, invariants: &Result<(), String>) -> u64 {
    let mut failed = issued.abs_diff(commits);
    if let Err(e) = invariants {
        eprintln!("jbb_warehouse: invariant violated: {e}");
        failed = issued;
    }
    failed
}

pub struct JbbWarehouse;

impl Workload for JbbWarehouse {
    const NAME: &'static str = "jbb_warehouse";
    type State = TmWarehouse;
    type Client<'a> = JbbClient<'a>;

    fn describe(&self) -> String {
        format!(
            "jbb_warehouse: rounds of {ROUND_TXNS} transactions per client on a fresh \
             warehouse, {CLIENTS} closed-loop clients, TmConfig::Transactional"
        )
    }

    fn plan(&self, measure: Duration) -> Plan {
        Plan {
            stop: Stop::Txns(ROUND_TXNS),
            windows: 1,
            reps: (measure.as_secs_f64() * ROUNDS_PER_SECOND).round().max(3.0) as usize,
        }
    }

    fn setup(&self, seed: u64) -> TmWarehouse {
        let w = TmWarehouse::new(TmConfig::Transactional);
        for seq in 0..WARMUP_TXNS {
            let rng = TxnRng::new(seed, CLIENTS, seq);
            atomic(|tx| w.run_op(tx, &mut rng.clone(), DEFAULT_THINK));
        }
        w
    }

    fn clients<'a>(&'a self, w: &'a TmWarehouse, seed: u64) -> Vec<JbbClient<'a>> {
        (0..CLIENTS)
            .map(|cpu| JbbClient {
                w,
                seed,
                cpu,
                seq: 0,
            })
            .collect()
    }

    fn check(
        &self,
        w: &TmWarehouse,
        clients: Vec<JbbClient<'_>>,
        stm: &StatsSnapshot,
    ) -> (u64, u64) {
        let issued = clients.iter().map(|c| c.seq as u64).sum();
        (
            issued,
            round_failures(issued, stm.commits, &w.check_invariants()),
        )
    }

    fn sem(&self, w: &TmWarehouse) -> SemCounts {
        warehouse_sem(w)
    }

    /// Per kind: the p50 of the `run_op` span and attempts per transaction.
    fn layer_extras(&self, agg: &TraceAgg, _: u64, _: Duration) -> Metrics {
        let mut m = Metrics::new();
        for (_, name, us_metric, attempts_metric) in KINDS {
            let us = agg
                .call(Layer::Jbb, name)
                .map_or(0.0, |h| h.quantile(0.5) / 1e3);
            let attempts = agg
                .kind(name)
                .map_or(0.0, |a| a.attempts as f64 / a.txns.max(1) as f64);
            m.push((us_metric, us));
            m.push((attempts_metric, attempts));
        }
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_check_rejects_lost_commits_and_broken_invariants() {
        assert_eq!(round_failures(100, 100, &Ok(())), 0);
        assert_eq!(round_failures(100, 98, &Ok(())), 2);
        assert_eq!(round_failures(100, 100, &Err("stock".into())), 100);
    }

    #[test]
    fn corrupted_warehouse_fails_its_invariants() {
        let w = TmWarehouse::new(TmConfig::Transactional);
        for seq in 0..200 {
            let rng = TxnRng::new(3, 0, seq);
            atomic(|tx| w.run_op(tx, &mut rng.clone(), DEFAULT_THINK));
        }
        assert!(w.check_invariants().is_ok());
        // Stock that no order line accounts for.
        atomic(|tx| w.stock.insert(tx, 0, 1));
        let inv = w.check_invariants();
        assert!(inv.is_err());
        assert_eq!(round_failures(200, 200, &inv), 200);
    }
}
