//! Closed-loop clients, seeded input streams, windowed summaries and the
//! counter readings shared by the three workloads.

use crate::hist::Hist;
use crate::trace::{Layer, NoProbe, Probe, TraceAgg, Tracer};
use std::sync::Barrier;
use std::time::{Duration, Instant};
use stm::StatsSnapshot;
use txcollections::SemanticStats;

/// Closed-loop clients per workload, each on its own thread.
pub const CLIENTS: usize = 2;

/// SplitMix64 input generator. Streams are independent of the program under
/// test: the same `(seed, stream)` always yields the same keys and rolls.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03));
        r.next();
        r
    }

    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, n)`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// One closed-loop client: issues a transaction, waits for it, repeats.
pub trait Client: Send {
    /// Issue one transaction through `probe`; returns whether it was
    /// read-only.
    fn step<P: Probe>(&mut self, probe: &mut P) -> bool;
}

pub enum Stop {
    /// Run for this long, split into equal windows.
    For(Duration),
    /// Each client issues exactly this many transactions (one window).
    Txns(u64),
}

/// Latencies (ns, entry to return of the transaction, retries included) of
/// one window, both clients merged.
#[derive(Clone, Default)]
pub struct Window {
    pub read: Hist,
    pub write: Hist,
    pub secs: f64,
}

impl Window {
    pub fn txns(&self) -> u64 {
        self.read.count() + self.write.count()
    }
}

/// Run `clients[i]` through `probes[i]` on one thread each until `stop`,
/// with every CPU kept warm, and return the windows with both clients
/// merged.
pub fn drive<C: Client, P: Probe + Send>(
    clients: &mut [C],
    probes: &mut [P],
    stop: &Stop,
    windows: usize,
) -> Vec<Window> {
    let nwin = match stop {
        Stop::For(_) => windows.max(1),
        Stop::Txns(_) => 1,
    };
    let barrier = Barrier::new(clients.len());
    let per_client: Vec<(Vec<Window>, Duration)> = crate::warm::with_warm_cpus(|| {
        std::thread::scope(|s| {
            let handles: Vec<_> = clients
                .iter_mut()
                .zip(probes.iter_mut())
                .map(|(c, p)| s.spawn(|| run_client(c, p, stop, nwin, &barrier)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("benchmark client panicked"))
                .collect()
        })
    });
    let secs = match stop {
        Stop::For(d) => d.as_secs_f64() / nwin as f64,
        Stop::Txns(_) => per_client
            .iter()
            .map(|(_, e)| e.as_secs_f64())
            .fold(0.0, f64::max),
    };
    let mut out: Vec<Window> = (0..nwin)
        .map(|_| Window {
            secs,
            ..Window::default()
        })
        .collect();
    for (ws, _) in &per_client {
        for (acc, w) in out.iter_mut().zip(ws) {
            acc.read.merge(&w.read);
            acc.write.merge(&w.write);
        }
    }
    out
}

fn run_client<C: Client, P: Probe>(
    client: &mut C,
    probe: &mut P,
    stop: &Stop,
    nwin: usize,
    barrier: &Barrier,
) -> (Vec<Window>, Duration) {
    let mut ws: Vec<Window> = (0..nwin).map(|_| Window::default()).collect();
    barrier.wait();
    let start = Instant::now();
    let mut issued = 0u64;
    loop {
        let t0 = Instant::now();
        let w = match stop {
            Stop::For(d) => {
                let e = t0 - start;
                if e >= *d {
                    break;
                }
                (e.as_nanos() * nwin as u128 / d.as_nanos()) as usize
            }
            Stop::Txns(n) => {
                if issued == *n {
                    break;
                }
                0
            }
        };
        let read = client.step(probe);
        let ns = t0.elapsed().as_nanos() as u64;
        if read {
            ws[w].read.record(ns);
        } else {
            ws[w].write.record(ns);
        }
        issued += 1;
    }
    (ws, start.elapsed())
}

/// The `q`-quantile of `values`, interpolating linearly between order
/// statistics; 0 when empty.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return 0.0;
    }
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Total throughput over a set of windows (for the trace overhead ratio).
pub fn throughput(windows: &[Window]) -> f64 {
    let txns: u64 = windows.iter().map(Window::txns).sum();
    let secs: f64 = windows.iter().map(|w| w.secs).sum();
    txns as f64 / secs
}

pub fn count_txns(windows: &[Window]) -> (u64, u64) {
    windows.iter().fold((0, 0), |(r, w), win| {
        (r + win.read.count(), w + win.write.count())
    })
}

/// Process high-water resident set size, in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Semantic-lock counters summed over a set of collections.
#[derive(Clone, Copy, Default)]
pub struct SemCounts {
    pub lock_acquisitions: u64,
    pub lock_cache_hits: u64,
    pub global_stripe_entries: u64,
    pub stripe_lock_spins: u64,
    pub conflicts: u64,
}

impl SemCounts {
    pub fn of<'a>(stats: impl IntoIterator<Item = &'a SemanticStats>) -> Self {
        use std::sync::atomic::Ordering::Relaxed;
        stats
            .into_iter()
            .fold(SemCounts::default(), |acc, s| SemCounts {
                lock_acquisitions: acc.lock_acquisitions + s.lock_acquisitions.load(Relaxed),
                lock_cache_hits: acc.lock_cache_hits + s.lock_cache_hits.load(Relaxed),
                global_stripe_entries: acc.global_stripe_entries
                    + s.global_stripe_entries.load(Relaxed),
                stripe_lock_spins: acc.stripe_lock_spins + s.stripe_lock_spins.load(Relaxed),
                conflicts: acc.conflicts + s.total(),
            })
    }

    #[must_use]
    pub fn diff(&self, earlier: &SemCounts) -> SemCounts {
        SemCounts {
            lock_acquisitions: self.lock_acquisitions - earlier.lock_acquisitions,
            lock_cache_hits: self.lock_cache_hits - earlier.lock_cache_hits,
            global_stripe_entries: self.global_stripe_entries - earlier.global_stripe_entries,
            stripe_lock_spins: self.stripe_lock_spins - earlier.stripe_lock_spins,
            conflicts: self.conflicts - earlier.conflicts,
        }
    }

    pub fn add(&mut self, other: &SemCounts) {
        self.lock_acquisitions += other.lock_acquisitions;
        self.lock_cache_hits += other.lock_cache_hits;
        self.global_stripe_entries += other.global_stripe_entries;
        self.stripe_lock_spins += other.stripe_lock_spins;
        self.conflicts += other.conflicts;
    }
}

/// Metrics as `(name, value)`; units live in the catalog in `main.rs`.
pub type Metrics = Vec<(&'static str, f64)>;

/// How a run is split into reps. Each rep sets up fresh state (timed as
/// set-up), drives the clients until `stop`, and checks their outputs.
/// Fresh state per rep averages out what one allocation layout or one
/// host episode does to a run.
pub struct Plan {
    pub stop: Stop,
    /// Windows per rep.
    pub windows: usize,
    pub reps: usize,
}

impl Plan {
    /// Reps of about `rep` each, together lasting `measure`.
    pub fn timed(measure: Duration, rep: Duration, windows: usize) -> Plan {
        let reps = (measure.as_secs_f64() / rep.as_secs_f64()).round().max(1.0) as usize;
        Plan {
            stop: Stop::For(measure / reps as u32),
            windows,
            reps,
        }
    }
}

/// One workload: its state, its clients and the checks on what they did.
pub trait Workload {
    /// The `--workload` name.
    const NAME: &'static str;
    type State: Sync;
    type Client<'a>: Client
    where
        Self: 'a;

    /// One line naming the workload and its input size.
    fn describe(&self) -> String;
    fn plan(&self, measure: Duration) -> Plan;
    /// Populate and warm up; this is what `setup_s` times.
    fn setup(&self, seed: u64) -> Self::State;
    fn clients<'a>(&'a self, state: &'a Self::State, seed: u64) -> Vec<Self::Client<'a>>;
    /// Check the clients' outputs and the final state, given the stm counter
    /// window of the rep; returns the transactions attempted and how many of
    /// them failed a check.
    fn check(
        &self,
        state: &Self::State,
        clients: Vec<Self::Client<'_>>,
        stm: &StatsSnapshot,
    ) -> (u64, u64);
    /// Semantic-lock counters of the collections in `state`.
    fn sem(&self, state: &Self::State) -> SemCounts;
    /// A line on what the checks saw, printed with the result.
    fn note(&self) -> Option<String> {
        None
    }
    /// Per-layer metrics only this workload has, from its traced phase
    /// (`seed` is that of its first rep).
    fn layer_extras(&self, _agg: &TraceAgg, _seed: u64, _measure: Duration) -> Metrics {
        Vec::new()
    }
}

#[derive(Default)]
struct Reps {
    windows: Vec<Window>,
    setups: Vec<f64>,
    attempted: u64,
    failed: u64,
    stm: StatsSnapshot,
    sem: SemCounts,
}

fn add_stats(acc: &mut StatsSnapshot, d: &StatsSnapshot) {
    acc.aborts_read_invalid += d.aborts_read_invalid;
    acc.aborts_doomed += d.aborts_doomed;
    acc.open_commits += d.open_commits;
    acc.handler_runs += d.handler_runs;
    acc.var_lock_spins += d.var_lock_spins;
    acc.lane_entries += d.lane_entries;
    acc.snapshot_reads += d.snapshot_reads;
    acc.snapshot_fallbacks += d.snapshot_fallbacks;
    acc.chain_entries_reclaimed += d.chain_entries_reclaimed;
}

/// The seed rep number `index` of a run draws its inputs from.
fn rep_seed(seed: u64, index: u64) -> u64 {
    Rng::new(seed, 1000 + index).next()
}

/// Run reps of `w` per `plan`, numbered from `first`.
fn run_reps<W: Workload, P: Probe + Send>(
    w: &W,
    seed: u64,
    first: u64,
    measure: Duration,
    probes: &mut [P],
) -> Reps {
    let plan = w.plan(measure);
    let mut out = Reps::default();
    for rep in 0..plan.reps {
        let seed = rep_seed(seed, first + rep as u64);
        let t = Instant::now();
        let state = w.setup(seed);
        out.setups.push(t.elapsed().as_secs_f64());
        let mut clients = w.clients(&state, seed);
        let stm0 = stm::global_stats();
        let sem0 = w.sem(&state);
        let windows = drive(&mut clients, probes, &plan.stop, plan.windows);
        let stm_d = stm::global_stats().diff(&stm0);
        add_stats(&mut out.stm, &stm_d);
        out.sem.add(&w.sem(&state).diff(&sem0));
        let (attempted, failed) = w.check(&state, clients, &stm_d);
        out.attempted += attempted;
        out.failed += failed;
        out.windows.extend(windows);
    }
    out
}

/// Run `w` for `cfg`: with tracing off, the end-to-end metrics; with it on,
/// an untraced and a traced half and the per-layer metrics.
pub fn run_workload<W: Workload>(w: &W, cfg: &crate::Config) -> crate::Outcome {
    let secs = Duration::from_secs_f64(cfg.seconds);
    let (metrics, runs) = if cfg.trace {
        let plain = run_reps(w, cfg.seed, 0, secs / 2, &mut [NoProbe, NoProbe]);
        let epoch = Instant::now();
        let mut tracers: Vec<Tracer> = (0..CLIENTS).map(|c| Tracer::new(epoch, c)).collect();
        let first = plain.setups.len() as u64;
        let traced = run_reps(w, cfg.seed, first, secs / 2, &mut tracers);
        let mut agg = TraceAgg::default();
        for t in &tracers {
            agg.merge(&t.agg);
        }
        let (reads, writes) = count_txns(&traced.windows);
        let mut m = layer_metrics(&agg, &traced.stm, &traced.sem, reads, writes);
        m.push((
            "trace_overhead",
            throughput(&plain.windows) / throughput(&traced.windows),
        ));
        m.extend(w.layer_extras(&agg, rep_seed(cfg.seed, first), secs / 2));
        crate::write_dump(W::NAME, &tracers);
        (m, [plain, traced])
    } else {
        let reps = run_reps(w, cfg.seed, 0, secs, &mut [NoProbe, NoProbe]);
        // Per-window figures are summarized by the quartile on the good side
        // (25th percentile of latencies, 75th of throughput): a window hit
        // by host interference (vCPU steal, a slow wake-up) cannot decide
        // the figure, while a change that slows every window moves it fully.
        let over = |q: f64, f: &dyn Fn(&Window) -> f64| {
            quantile(&reps.windows.iter().map(f).collect::<Vec<_>>(), q)
        };
        let m = vec![
            ("txn_per_s", over(0.75, &|w| w.txns() as f64 / w.secs)),
            (
                "read_txn_p50_us",
                over(0.25, &|w| w.read.quantile(0.50) / 1e3),
            ),
            (
                "read_txn_p99_us",
                over(0.25, &|w| w.read.quantile(0.99) / 1e3),
            ),
            (
                "write_txn_p50_us",
                over(0.25, &|w| w.write.quantile(0.50) / 1e3),
            ),
            (
                "write_txn_p99_us",
                over(0.25, &|w| w.write.quantile(0.99) / 1e3),
            ),
            ("setup_s", quantile(&reps.setups, 0.5)),
            ("peak_rss_mb", peak_rss_mb()),
        ];
        (m, [reps, Reps::default()])
    };
    let attempted = runs.iter().map(|r| r.attempted).sum();
    let failed = runs.iter().map(|r| r.failed).sum();
    crate::Outcome {
        attempted,
        failed,
        correct: failed == 0,
        metrics,
        info: [format!(
            "{}; {} reps",
            w.describe(),
            runs.iter().map(|r| r.setups.len()).sum::<usize>()
        )]
        .into_iter()
        .chain(w.note())
        .collect(),
    }
}

/// The per-layer metrics every workload reports from its traced phase;
/// ratios are per transaction of that phase.
fn layer_metrics(
    agg: &TraceAgg,
    s: &StatsSnapshot,
    sem: &SemCounts,
    reads: u64,
    writes: u64,
) -> Metrics {
    let txns = (reads + writes).max(1) as f64;
    let per = |x: u64| x as f64 / txns;
    let per_k = |x: u64| x as f64 * 1e3 / txns;
    let call_p50 = |l: Layer, n: &str| agg.call(l, n).map_or(0.0, |h| h.quantile(0.5));
    let self_per = |l: Layer| agg.self_ns[l as usize] as f64 / txns;
    vec![
        ("stm.begin_ns", agg.begin.quantile(0.5)),
        ("stm.commit_ns", agg.commit.quantile(0.5)),
        ("stm.commit_ns_p99", agg.commit.quantile(0.99)),
        ("stm.self_ns_per_txn", self_per(Layer::Stm)),
        ("stm.lane_entries_per_txn", per(s.lane_entries)),
        ("stm.handler_runs_per_txn", per(s.handler_runs)),
        ("stm.open_commits_per_txn", per(s.open_commits)),
        ("stm.var_lock_spins_per_ktxn", per_k(s.var_lock_spins)),
        ("stm.attempts_per_txn", agg.attempts as f64 / txns),
        ("stm.wasted_ns_per_txn", agg.wasted_ns as f64 / txns),
        (
            "stm.aborts_read_invalid_per_ktxn",
            per_k(s.aborts_read_invalid),
        ),
        ("stm.aborts_doomed_per_ktxn", per_k(s.aborts_doomed)),
        (
            "stm.snapshot_reads_per_read_txn",
            s.snapshot_reads as f64 / reads.max(1) as f64,
        ),
        (
            "stm.snapshot_fallbacks_per_read_txn",
            s.snapshot_fallbacks as f64 / reads.max(1) as f64,
        ),
        (
            "stm.chain_reclaimed_per_write_txn",
            s.chain_entries_reclaimed as f64 / writes.max(1) as f64,
        ),
        ("core.get_ns", call_p50(Layer::Core, "get")),
        ("core.put_ns", call_p50(Layer::Core, "put_discard")),
        (
            "core.range_entries_ns",
            call_p50(Layer::Core, "range_entries"),
        ),
        ("core.self_ns_per_txn", self_per(Layer::Core)),
        ("core.lock_acquisitions_per_txn", per(sem.lock_acquisitions)),
        ("core.lock_cache_hits_per_txn", per(sem.lock_cache_hits)),
        (
            "core.global_stripe_entries_per_txn",
            per(sem.global_stripe_entries),
        ),
        (
            "core.stripe_lock_spins_per_ktxn",
            per_k(sem.stripe_lock_spins),
        ),
        ("core.semantic_conflicts_per_ktxn", per_k(sem.conflicts)),
        ("jbb.self_ns_per_txn", self_per(Layer::Jbb)),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rng_streams_are_seeded_and_distinct() {
        let a: Vec<u64> = (0..4)
            .map({
                let mut r = Rng::new(7, 1);
                move |_| r.next()
            })
            .collect();
        let b: Vec<u64> = (0..4)
            .map({
                let mut r = Rng::new(7, 1);
                move |_| r.next()
            })
            .collect();
        let c = Rng::new(7, 2).next();
        assert_eq!(a, b);
        assert_ne!(a[0], c);
    }

    #[test]
    fn quantiles_interpolate_between_order_statistics() {
        assert_eq!(quantile(&[3.0, 1.0, 2.0], 0.5), 2.0);
        assert_eq!(quantile(&[4.0, 1.0, 2.0, 3.0], 0.5), 2.5);
        assert_eq!(quantile(&[4.0, 1.0, 2.0, 3.0, 5.0], 0.25), 2.0);
        assert_eq!(quantile(&[1.0, 2.0], 0.75), 1.75);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }
}
