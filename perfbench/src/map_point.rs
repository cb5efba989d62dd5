//! `map_point`: single-operation transactions on a pre-populated boosted
//! `TransactionalMap` whose key space is far larger than L2. About 90% are a
//! single `get`, the rest a single `put_discard`, on uniform keys. Each
//! client writes only its own key partition, so there are almost no
//! conflicts: the time goes to the transaction shell, the kernel, the
//! semantic-lock path and the handler lane.

use crate::closed_loop::{drive, Client, Metrics, Plan, Rng, SemCounts, Stop, Workload, CLIENTS};
use crate::hist::Hist;
use crate::trace::{Layer, NoProbe, Probe, TraceAgg};
use std::time::{Duration, Instant};
use stm::{atomic, StatsSnapshot};
use txcollections::TransactionalMap;
use txstruct::BoostedHashMap;

/// Keys in the map: 2^19 entries, about 25 MB, far beyond L2.
pub const KEYS: u64 = 1 << 19;
const READ_PCT: u64 = 90;
const POP_BATCH: u64 = 1024;
/// Closed-loop `get`s per client after population, so the measured reps
/// start from the contended steady state rather than a cold one.
const WARMUP_TXNS: u64 = 100_000;
const REP: Duration = Duration::from_secs(2);
const WINDOWS_PER_REP: usize = 2;

type Map = TransactionalMap<u64, u64, BoostedHashMap<u64, u64>>;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Op {
    Get(u64),
    Put(u64, u64),
}

/// A value carries its key in the high half and a version in the low half:
/// 0 for the initial value, otherwise `(seq + 1) * CLIENTS + client`.
fn initial(key: u64) -> u64 {
    key << 32
}

fn written(key: u64, client: u64, seq: u64) -> u64 {
    key << 32 | ((seq + 1) * CLIENTS as u64 + client)
}

fn client_rng(seed: u64, client: u64) -> Rng {
    Rng::new(seed, 1 + client)
}

/// Client `client`'s op number `seq`: reads any key, writes only keys of its
/// own partition (`key % CLIENTS == client`).
fn next_op(rng: &mut Rng, keys: u64, client: u64, seq: u64) -> Op {
    if rng.below(100) < READ_PCT {
        Op::Get(rng.below(keys))
    } else {
        let key = rng.below(keys / CLIENTS as u64) * CLIENTS as u64 + client;
        Op::Put(key, written(key, client, seq))
    }
}

/// A `get(key)` result is valid if it is the key's initial value or a value
/// the key's owning client wrote to that key.
pub fn valid_read(key: u64, v: Option<u64>) -> bool {
    let Some(v) = v else { return false };
    let version = v & 0xffff_ffff;
    v >> 32 == key && (version == 0 || version % CLIENTS as u64 == key % CLIENTS as u64)
}

/// Number of keys whose final value (`actual[key]`) differs from a replay of
/// each client's first `issued[client]` ops.
pub fn final_mismatches(actual: &[u64], seed: u64, issued: &[u64]) -> u64 {
    let keys = actual.len() as u64;
    let mut expect: Vec<u64> = (0..keys).map(initial).collect();
    for (c, &n) in issued.iter().enumerate() {
        let mut rng = client_rng(seed, c as u64);
        for seq in 0..n {
            if let Op::Put(k, v) = next_op(&mut rng, keys, c as u64, seq) {
                expect[k as usize] = v;
            }
        }
    }
    actual.iter().zip(&expect).filter(|(a, e)| a != e).count() as u64
}

pub struct MapClient<'a> {
    map: &'a Map,
    keys: u64,
    id: u64,
    seed: u64,
    rng: Rng,
    seq: u64,
    failed: u64,
}

impl Client for MapClient<'_> {
    fn step<P: Probe>(&mut self, p: &mut P) -> bool {
        let op = next_op(&mut self.rng, self.keys, self.id, self.seq);
        self.seq += 1;
        let map = self.map;
        p.txn_start();
        match op {
            Op::Get(k) => {
                let v = atomic(|tx| {
                    p.attempt();
                    let v = p.call(Layer::Core, "get", || map.get(tx, &k));
                    p.attempt_end();
                    v
                });
                p.txn_end("get");
                if !valid_read(k, v) {
                    self.failed += 1;
                }
                true
            }
            Op::Put(k, v) => {
                atomic(|tx| {
                    p.attempt();
                    p.call(Layer::Core, "put_discard", || map.put_discard(tx, k, v));
                    p.attempt_end();
                });
                p.txn_end("put");
                false
            }
        }
    }
}

/// Closed-loop `get`s only: the warm-up, and the raw-map comparison.
struct GetClient<'a, F: Fn(u64) -> Option<u64>> {
    get: &'a F,
    keys: u64,
    id: u64,
    rng: Rng,
    seq: u64,
    get_ns: Hist,
}

impl<F: Fn(u64) -> Option<u64> + Sync> Client for GetClient<'_, F> {
    /// Skips the stream's writes, so the keys are the read keys of the
    /// `MapClient` with the same seed; times each call on its own.
    fn step<P: Probe>(&mut self, _: &mut P) -> bool {
        loop {
            let op = next_op(&mut self.rng, self.keys, self.id, self.seq);
            self.seq += 1;
            if let Op::Get(k) = op {
                let t0 = Instant::now();
                std::hint::black_box((self.get)(k));
                self.get_ns.record(t0.elapsed().as_nanos() as u64);
                return true;
            }
        }
    }
}

/// Drive `CLIENTS` closed-loop readers over `get` until `stop`; returns the
/// per-call latency histogram.
fn closed_loop_gets<F: Fn(u64) -> Option<u64> + Sync>(
    get: &F,
    keys: u64,
    seed: u64,
    stop: &Stop,
) -> Hist {
    let mut clients: Vec<GetClient<F>> = (0..CLIENTS as u64)
        .map(|c| GetClient {
            get,
            keys,
            id: c,
            rng: client_rng(seed, c),
            seq: 0,
            get_ns: Hist::default(),
        })
        .collect();
    drive(&mut clients, &mut [NoProbe, NoProbe], stop, 1);
    let mut h = Hist::default();
    for c in &clients {
        h.merge(&c.get_ns);
    }
    h
}

fn read_all(map: &Map, keys: u64) -> Vec<u64> {
    let mut out = Vec::with_capacity(keys as usize);
    for lo in (0..keys).step_by(4096) {
        let hi = (lo + 4096).min(keys);
        out.extend(atomic(|tx| {
            (lo..hi)
                .map(|k| map.get(tx, &k).unwrap_or(u64::MAX))
                .collect::<Vec<_>>()
        }));
    }
    out
}

pub struct MapPoint {
    pub keys: u64,
}

impl Workload for MapPoint {
    const NAME: &'static str = "map_point";
    type State = Map;
    type Client<'a> = MapClient<'a>;

    fn describe(&self) -> String {
        format!(
            "map_point: {} keys, {CLIENTS} closed-loop clients, {READ_PCT}% get / {}% put_discard",
            self.keys,
            100 - READ_PCT
        )
    }

    fn plan(&self, measure: Duration) -> Plan {
        Plan::timed(measure, REP, WINDOWS_PER_REP)
    }

    fn setup(&self, seed: u64) -> Map {
        let map = Map::boosted();
        for lo in (0..self.keys).step_by(POP_BATCH as usize) {
            let hi = (lo + POP_BATCH).min(self.keys);
            atomic(|tx| {
                for k in lo..hi {
                    map.put_discard(tx, k, initial(k));
                }
            });
        }
        let get = |k: u64| atomic(|tx| map.get(tx, &k));
        closed_loop_gets(&get, self.keys, !seed, &Stop::Txns(WARMUP_TXNS));
        map
    }

    fn clients<'a>(&'a self, map: &'a Map, seed: u64) -> Vec<MapClient<'a>> {
        (0..CLIENTS as u64)
            .map(|id| MapClient {
                map,
                keys: self.keys,
                id,
                seed,
                rng: client_rng(seed, id),
                seq: 0,
                failed: 0,
            })
            .collect()
    }

    fn check(&self, map: &Map, clients: Vec<MapClient<'_>>, _: &StatsSnapshot) -> (u64, u64) {
        let issued: Vec<u64> = clients.iter().map(|c| c.seq).collect();
        let read_failures: u64 = clients.iter().map(|c| c.failed).sum();
        let seed = clients.first().map_or(0, |c| c.seed);
        let mismatches = final_mismatches(&read_all(map, self.keys), seed, &issued);
        (issued.iter().sum(), read_failures + mismatches)
    }

    fn sem(&self, map: &Map) -> SemCounts {
        SemCounts::of([map.semantic_stats()])
    }

    /// `txstruct.get_ns`: a raw `BoostedHashMap::get` on a map populated
    /// like the transactional one, over the same read-key stream, timed per
    /// call like the `core.get` spans; and `core.over_raw`, their ratio.
    fn layer_extras(&self, agg: &TraceAgg, seed: u64, measure: Duration) -> Metrics {
        let raw = BoostedHashMap::new();
        for k in 0..self.keys {
            raw.insert(k, initial(k));
        }
        let get = |k: u64| raw.get(&k);
        let raw_ns = closed_loop_gets(&get, self.keys, seed, &Stop::For(measure / 2)).quantile(0.5);
        let core_ns = agg
            .call(Layer::Core, "get")
            .map_or(0.0, |h| h.quantile(0.5));
        vec![
            ("txstruct.get_ns", raw_ns),
            ("core.over_raw", core_ns / raw_ns),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_must_be_initial_or_written_by_the_owner() {
        assert!(valid_read(5, Some(initial(5))));
        assert!(valid_read(5, Some(written(5, 1, 9))));
        assert!(!valid_read(5, None));
        assert!(!valid_read(5, Some(initial(6))));
        assert!(!valid_read(5, Some(written(5, 0, 9))), "wrong partition");
    }

    #[test]
    fn final_check_accepts_a_true_run_and_rejects_a_corrupted_one() {
        let w = MapPoint { keys: 256 };
        let seed = 11;
        let map = w.setup(seed);
        let mut clients = w.clients(&map, seed);
        drive(&mut clients, &mut [NoProbe, NoProbe], &Stop::Txns(500), 1);
        let issued: Vec<u64> = clients.iter().map(|c| c.seq).collect();
        assert_eq!(w.check(&map, clients, &StatsSnapshot::default()), (1000, 0));
        let mut actual = read_all(&map, w.keys);
        assert_eq!(final_mismatches(&actual, seed, &issued), 0);
        // A lost write: one key reverts to its initial value.
        let k = actual
            .iter()
            .position(|&v| v & 0xffff_ffff != 0)
            .expect("a write");
        actual[k] = initial(k as u64);
        assert_eq!(final_mismatches(&actual, seed, &issued), 1);
        // A replay that leaves out client 1's writes no longer matches.
        assert!(final_mismatches(&read_all(&map, w.keys), seed, &[issued[0], 0]) > 0);
    }
}
