//! `sorted_snapshot`: a TVar-backed `TransactionalSortedMap` with a fixed key
//! set. Half the transactions are `atomic_read` range scans of 32 keys; the
//! other half are `atomic` writers that stamp both keys of an adjacent pair
//! `(2p, 2p + 1)` with one value. Readers stay pinned while writers push
//! version-chain entries, so epoch pins, version chains, reclamation and the
//! range iterator all carry load.
//!
//! A pair write is one semantic commit, but the sorted map's commit handler
//! publishes it as one direct write per key, each at its own clock version,
//! so a snapshot may fall between the two (`docs/PROTOCOL.md`, "What a
//! snapshot cut is"). The handler lane runs one commit handler at a time, so
//! a scan may see at most one pair split that way; such scans are counted and
//! reported. A scan with two or more split pairs has read a torn snapshot, and
//! so has one that shows a client's write but misses an earlier write of the
//! same client (see [`Replay`]).

use crate::closed_loop::{Client, Metrics, Plan, Rng, SemCounts, Workload, CLIENTS};
use crate::trace::{Layer, Probe, TraceAgg};
use std::ops::Bound::{Excluded, Included};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::time::Duration;
use stm::{atomic, atomic_read, StatsSnapshot};
use txcollections::TransactionalSortedMap;

/// Keys in the map (an even number: every key belongs to one pair).
pub const KEYS: u64 = 1 << 14;
/// Keys per range scan.
pub const SCAN: u64 = 32;
/// Split pairs one scan may see: the handler lane serializes commit
/// handlers, so at most one pair write is half published at any version.
pub const MAX_SPLIT: usize = 1;
const POP_BATCH: u64 = 256;
const WARMUP_SCANS: u64 = 500;
const REP: Duration = Duration::from_secs(2);
const WINDOWS_PER_REP: usize = 2;

type SMap = TransactionalSortedMap<u64, u64>;

enum Op {
    /// Scan `[lo, lo + SCAN)`.
    Scan(u64),
    /// Stamp pair `p` (keys `2p` and `2p + 1`) with a value.
    Pair(u64, u64),
}

/// Stamps name their writer in the high bits: `(client + 1) << 40 | (seq + 1)`.
/// The initial value of every key is stamp 0.
fn stamp(client: u64, seq: u64) -> u64 {
    (client + 1) << 40 | (seq + 1)
}

/// The op number of a stamp written by `client`, if it is one.
fn seq_of(v: u64, client: u64) -> Option<u64> {
    (v != 0 && v >> 40 == client + 1).then(|| (v & ((1 << 40) - 1)) - 1)
}

fn valid_stamp(v: u64) -> bool {
    v == 0 || (1..=CLIENTS as u64).contains(&(v >> 40))
}

fn client_rng(seed: u64, client: u64) -> Rng {
    Rng::new(seed, 1 + client)
}

fn next_op(rng: &mut Rng, keys: u64, client: u64, seq: u64) -> Op {
    if rng.below(2) == 0 {
        Op::Scan(rng.below(keys - SCAN + 1))
    } else {
        Op::Pair(rng.below(keys / 2), stamp(client, seq))
    }
}

/// The pair writes of one client, replayed from its seeded op stream as far
/// as a check needs them. Ops never depend on results, so the replay is
/// exactly what the client issued.
pub struct Replay {
    rng: Rng,
    keys: u64,
    client: u64,
    next: u64,
    /// Op numbers at which the client wrote each pair, ascending.
    writes: Vec<Vec<u64>>,
}

impl Replay {
    pub fn new(seed: u64, client: u64, keys: u64) -> Self {
        Replay {
            rng: client_rng(seed, client),
            keys,
            client,
            next: 0,
            writes: vec![Vec::new(); (keys / 2) as usize],
        }
    }

    /// The client's last write to `pair` before its op `seq`.
    fn last_write_before(&mut self, pair: u64, seq: u64) -> Option<u64> {
        while self.next < seq {
            if let Op::Pair(p, _) = next_op(&mut self.rng, self.keys, self.client, self.next) {
                self.writes[p as usize].push(self.next);
            }
            self.next += 1;
        }
        let w = &self.writes[pair as usize];
        w[..w.partition_point(|&n| n < seq)].last().copied()
    }

    /// Whether `entries` is a consistent cut of this client's writes. The
    /// client runs one transaction at a time, so if the scan shows its op
    /// `m`, every earlier write it made had fully committed before `m`
    /// began: each key in range must show that write, a later write of the
    /// same client, or another client's stamp, never an older one.
    fn consistent(&mut self, entries: &[(u64, u64)]) -> bool {
        let Some(m) = entries
            .iter()
            .filter_map(|&(_, v)| seq_of(v, self.client))
            .max()
        else {
            return true;
        };
        entries.iter().all(|&(k, v)| {
            self.last_write_before(k / 2, m)
                .is_none_or(|n| v != 0 && seq_of(v, self.client).is_none_or(|seen| seen >= n))
        })
    }
}

/// Check a scan of `[lo, lo + SCAN)`: it must return exactly those keys in
/// order, each with a well-formed stamp, as a consistent cut of every
/// client's writes (`replays`). Returns the number of pairs inside the range
/// whose halves carry different stamps, or `None` if the scan fails.
pub fn check_scan(lo: u64, entries: &[(u64, u64)], replays: &mut [Replay]) -> Option<usize> {
    let ok = entries.len() as u64 == SCAN
        && entries
            .iter()
            .zip(lo..)
            .all(|(&(k, v), want)| k == want && valid_stamp(v))
        && replays.iter_mut().all(|r| r.consistent(entries));
    ok.then(|| {
        entries
            .windows(2)
            .filter(|w| w[0].0 % 2 == 0 && w[0].1 != w[1].1)
            .count()
    })
}

/// Number of pairs whose final state is wrong: halves differ, or the stamp is
/// not the last one some client wrote to that pair (0 if none did).
/// `last[c][p]` is client `c`'s last committed stamp on pair `p`.
pub fn final_mismatches(actual: &[(u64, u64)], last: &[Vec<u64>]) -> u64 {
    let pairs = last.first().map_or(0, Vec::len);
    if actual.len() != 2 * pairs {
        return actual.len().abs_diff(2 * pairs) as u64;
    }
    let mut bad = 0;
    for (p, pair) in actual.chunks(2).enumerate() {
        let ((k0, a), (k1, b)) = (pair[0], pair[1]);
        let lasts: Vec<u64> = last.iter().map(|l| l[p]).filter(|&s| s != 0).collect();
        let allowed = if lasts.is_empty() {
            a == 0
        } else {
            lasts.contains(&a)
        };
        if k0 != 2 * p as u64 || k1 != k0 + 1 || a != b || !allowed {
            bad += 1;
        }
    }
    bad
}

pub struct ScanClient<'a> {
    map: &'a SMap,
    keys: u64,
    id: u64,
    rng: Rng,
    seq: u64,
    failed: u64,
    scans: u64,
    /// Scans that saw one pair split by a commit still publishing.
    split_scans: u64,
    /// Every client's writes, for the scan check.
    replays: Vec<Replay>,
    /// Last committed stamp per pair.
    last: Vec<u64>,
}

impl Client for ScanClient<'_> {
    fn step<P: Probe>(&mut self, p: &mut P) -> bool {
        let op = next_op(&mut self.rng, self.keys, self.id, self.seq);
        self.seq += 1;
        let map = self.map;
        p.txn_start();
        match op {
            Op::Scan(lo) => {
                let entries = atomic_read(|tx| {
                    p.attempt();
                    let e = p.call(Layer::Core, "range_entries", || {
                        map.range_entries(tx, Included(lo), Excluded(lo + SCAN))
                    });
                    p.attempt_end();
                    e
                });
                p.txn_end("scan");
                self.scans += 1;
                match check_scan(lo, &entries, &mut self.replays) {
                    Some(0) => {}
                    Some(n) if n <= MAX_SPLIT => self.split_scans += 1,
                    _ => {
                        if self.failed < 3 {
                            eprintln!(
                                "sorted_snapshot: bad scan of [{lo}, {}): {entries:?}",
                                lo + SCAN
                            );
                        }
                        self.failed += 1;
                    }
                }
                true
            }
            Op::Pair(pair, s) => {
                atomic(|tx| {
                    p.attempt();
                    p.call(Layer::Core, "put_discard", || {
                        map.put_discard(tx, 2 * pair, s)
                    });
                    p.call(Layer::Core, "put_discard", || {
                        map.put_discard(tx, 2 * pair + 1, s)
                    });
                    p.attempt_end();
                });
                p.txn_end("pair");
                self.last[pair as usize] = s;
                false
            }
        }
    }
}

#[derive(Default)]
pub struct SortedSnapshot {
    /// Scans, and scans that saw a split pair, over every rep of the run.
    scans: AtomicU64,
    split_scans: AtomicU64,
}

impl Workload for SortedSnapshot {
    const NAME: &'static str = "sorted_snapshot";
    type State = SMap;
    type Client<'a> = ScanClient<'a>;

    fn describe(&self) -> String {
        format!(
            "sorted_snapshot: {KEYS} keys, {CLIENTS} closed-loop clients, 50% {SCAN}-key \
             atomic_read scans / 50% two-key stamped writers"
        )
    }

    fn plan(&self, measure: Duration) -> Plan {
        Plan::timed(measure, REP, WINDOWS_PER_REP)
    }

    fn setup(&self, seed: u64) -> SMap {
        let map = SMap::new();
        for lo in (0..KEYS).step_by(POP_BATCH as usize) {
            let hi = (lo + POP_BATCH).min(KEYS);
            atomic(|tx| {
                for k in lo..hi {
                    map.put_discard(tx, k, 0);
                }
            });
        }
        let mut rng = Rng::new(!seed, 0);
        for _ in 0..WARMUP_SCANS {
            let lo = rng.below(KEYS - SCAN + 1);
            std::hint::black_box(atomic_read(|tx| {
                map.range_entries(tx, Included(lo), Excluded(lo + SCAN))
            }));
        }
        map
    }

    fn clients<'a>(&'a self, map: &'a SMap, seed: u64) -> Vec<ScanClient<'a>> {
        (0..CLIENTS as u64)
            .map(|id| ScanClient {
                map,
                keys: KEYS,
                id,
                rng: client_rng(seed, id),
                seq: 0,
                failed: 0,
                scans: 0,
                split_scans: 0,
                replays: (0..CLIENTS as u64)
                    .map(|c| Replay::new(seed, c, KEYS))
                    .collect(),
                last: vec![0; (KEYS / 2) as usize],
            })
            .collect()
    }

    fn check(&self, map: &SMap, clients: Vec<ScanClient<'_>>, _: &StatsSnapshot) -> (u64, u64) {
        let attempted = clients.iter().map(|c| c.seq).sum();
        let scan_failures: u64 = clients.iter().map(|c| c.failed).sum();
        for c in &clients {
            self.scans.fetch_add(c.scans, Relaxed);
            self.split_scans.fetch_add(c.split_scans, Relaxed);
        }
        let last: Vec<Vec<u64>> = clients.into_iter().map(|c| c.last).collect();
        let mismatches = final_mismatches(&atomic(|tx| map.entries(tx)), &last);
        (attempted, scan_failures + mismatches)
    }

    fn sem(&self, map: &SMap) -> SemCounts {
        SemCounts::of([map.semantic_stats()])
    }

    fn note(&self) -> Option<String> {
        Some(format!(
            "{} of {} scans saw one pair split by a commit still publishing",
            self.split_scans.load(Relaxed),
            self.scans.load(Relaxed)
        ))
    }

    /// Split-pair scans per million scans, over both halves of the run.
    fn layer_extras(&self, _: &TraceAgg, _: u64, _: Duration) -> Metrics {
        let scans = self.scans.load(Relaxed).max(1) as f64;
        vec![(
            "core.split_pair_scans_per_mscan",
            self.split_scans.load(Relaxed) as f64 * 1e6 / scans,
        )]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::closed_loop::{drive, Stop};
    use crate::trace::NoProbe;

    fn scan(lo: u64, stamps: impl Fn(u64) -> u64) -> Vec<(u64, u64)> {
        (lo..lo + SCAN).map(|k| (k, stamps(k / 2))).collect()
    }

    #[test]
    fn scan_check_counts_split_pairs_and_rejects_malformed_scans() {
        let good = scan(3, |p| stamp(p % 2, p));
        assert_eq!(check_scan(3, &good, &mut []), Some(0));
        // One pair split by an in-flight commit: keys 4 and 5 differ.
        let mut split = good.clone();
        split[2].1 = stamp(1, 999);
        assert_eq!(check_scan(3, &split, &mut []), Some(MAX_SPLIT));
        // A torn snapshot: a second pair split as well. Key 3's partner,
        // key 2, is outside the range, so key 3 alone never counts.
        let mut torn = split.clone();
        torn[0].1 = stamp(0, 998);
        assert_eq!(check_scan(3, &torn, &mut []), Some(MAX_SPLIT));
        torn[8].1 = stamp(0, 997);
        assert_eq!(check_scan(3, &torn, &mut []), Some(2));
        // Out of order.
        let mut swapped = good.clone();
        swapped.swap(5, 6);
        assert_eq!(check_scan(3, &swapped, &mut []), None);
        // Out of bounds (one key short, one key past the end).
        assert_eq!(check_scan(3, &good[1..], &mut []), None);
        assert_eq!(check_scan(2, &good, &mut []), None);
        // A value no writer could have produced.
        let mut forged = scan(4, |_| 0);
        forged[0].1 = 7 << 40;
        forged[1].1 = 7 << 40;
        assert_eq!(check_scan(4, &forged, &mut []), None);
    }

    /// A map of `SCAN` keys, so every pair a client writes lies in the one
    /// possible scan, with client 0's first `upto` ops applied.
    fn replayed(seed: u64, upto: u64) -> Vec<(u64, u64)> {
        let mut state = scan(0, |_| 0);
        let mut rng = client_rng(seed, 0);
        for seq in 0..upto {
            if let Op::Pair(p, s) = next_op(&mut rng, SCAN, 0, seq) {
                state[2 * p as usize].1 = s;
                state[2 * p as usize + 1].1 = s;
            }
        }
        state
    }

    #[test]
    fn scan_check_rejects_a_cut_missing_an_earlier_write() {
        let seed = 11;
        let replays = || vec![Replay::new(seed, 0, SCAN), Replay::new(seed, 1, SCAN)];
        let cut = replayed(seed, 128);
        assert_eq!(check_scan(0, &cut, &mut replays()), Some(0));
        // A pair client 0 wrote twice before the newest write the cut shows,
        // and still showing the second of those writes.
        let newest = cut.iter().filter_map(|&(_, v)| seq_of(v, 0)).max();
        let mut r = Replay::new(seed, 0, SCAN);
        let (p, older) = (0..SCAN / 2)
            .find_map(|p| {
                let last = r.last_write_before(p, newest?)?;
                let older = r.last_write_before(p, last)?;
                (cut[2 * p as usize].1 == stamp(0, last)).then_some((p, older))
            })
            .expect("client 0 rewrote a pair");
        let with_pair = |v: u64| {
            let mut c = cut.clone();
            c[2 * p as usize].1 = v;
            c[2 * p as usize + 1].1 = v;
            c
        };
        // Rolled back to an older write of the same client, or to the
        // initial stamp: the cut misses a write committed before one it shows.
        assert_eq!(
            check_scan(0, &with_pair(stamp(0, older)), &mut replays()),
            None
        );
        assert_eq!(check_scan(0, &with_pair(0), &mut replays()), None);
        // Another client's stamp there is a later overwrite, not a tear.
        assert_eq!(
            check_scan(0, &with_pair(stamp(1, 0)), &mut replays()),
            Some(0)
        );
    }

    #[test]
    fn final_check_rejects_split_and_stale_pairs() {
        let seed = 5;
        let w = SortedSnapshot::default();
        let map = w.setup(seed);
        let mut clients = w.clients(&map, seed);
        drive(&mut clients, &mut [NoProbe, NoProbe], &Stop::Txns(200), 1);
        let last: Vec<Vec<u64>> = clients.into_iter().map(|c| c.last).collect();
        let mut actual = atomic(|tx| map.entries(tx));
        assert_eq!(final_mismatches(&actual, &last), 0);
        // Split one written pair.
        let p = last[0]
            .iter()
            .position(|&s| s != 0)
            .expect("client 0 wrote");
        actual[2 * p + 1].1 = 0;
        assert_eq!(final_mismatches(&actual, &last), 1);
        // A stale but consistent pair: back to the initial stamp.
        actual[2 * p].1 = 0;
        assert_eq!(final_mismatches(&actual, &last), 1);
    }
}
