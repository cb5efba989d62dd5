//! Outside-in span recorder for the traced run.
//!
//! Every transaction the benchmark issues gets one `txn` span (entry to
//! return of `stm::atomic`/`stm::atomic_read`), one `attempt` span per run
//! of the transaction body, and one span per call the body makes into a
//! layer's public functions. A non-final attempt lasts until the next
//! attempt starts, so it covers the failed commit, the abort path and the
//! back-off: the work that was wasted. A call cut short by a retry unwinds
//! out of the body and is closed at the same point.
//!
//! A layer's self time is the part of its spans not covered by child spans.
//! Aggregates cover every traced transaction; the first few hundred
//! transactions of each client are also kept whole and written out as a span
//! dump at the end.

use crate::hist::Hist;
use std::fmt::Write as _;
use std::time::Instant;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Layer {
    Stm,
    Core,
    Jbb,
}

pub const LAYERS: [Layer; 3] = [Layer::Stm, Layer::Core, Layer::Jbb];

impl Layer {
    pub fn name(self) -> &'static str {
        match self {
            Layer::Stm => "stm",
            Layer::Core => "core",
            Layer::Jbb => "jbb",
        }
    }
}

#[derive(Clone, Copy, Debug)]
pub struct Span {
    /// Index of the parent span within the same transaction.
    pub parent: Option<usize>,
    pub layer: Layer,
    pub name: &'static str,
    pub start: u64,
    pub end: u64,
    /// The span ran to its own end rather than being cut by a retry.
    pub completed: bool,
}

/// Self time of every span: its duration minus the union of its children's
/// intervals (clipped to the span).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    spans
        .iter()
        .enumerate()
        .map(|(i, s)| {
            let mut kids: Vec<(u64, u64)> = spans
                .iter()
                .filter(|c| c.parent == Some(i))
                .map(|c| (c.start.max(s.start), c.end.min(s.end)))
                .filter(|(a, b)| a < b)
                .collect();
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start;
            for (a, b) in kids {
                let a = a.max(reach);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            (s.end - s.start).saturating_sub(covered)
        })
        .collect()
}

/// Per-layer sums of [`self_times`].
pub fn layer_self_times(spans: &[Span]) -> [u64; LAYERS.len()] {
    let mut out = [0; LAYERS.len()];
    for (s, t) in spans.iter().zip(self_times(spans)) {
        out[s.layer as usize] += t;
    }
    out
}

/// Hooks the benchmark calls around each transaction. [`NoProbe`] compiles
/// them away for the untraced run.
pub trait Probe {
    fn txn_start(&mut self) {}
    fn attempt(&mut self) {}
    #[inline(always)]
    fn call<R>(&mut self, _layer: Layer, _name: &'static str, f: impl FnOnce() -> R) -> R {
        f()
    }
    fn attempt_end(&mut self) {}
    fn txn_end(&mut self, _kind: &'static str) {}
}

pub struct NoProbe;

impl Probe for NoProbe {}

#[derive(Default)]
pub struct KindAgg {
    pub txns: u64,
    pub attempts: u64,
}

/// Aggregates over every traced transaction of one client (or, merged, of
/// all clients).
#[derive(Default)]
pub struct TraceAgg {
    pub txns: u64,
    pub attempts: u64,
    pub wasted_ns: u128,
    /// `stm::atomic` entry to the first body entry.
    pub begin: Hist,
    /// Last body return to `stm::atomic` return.
    pub commit: Hist,
    pub self_ns: [u128; LAYERS.len()],
    /// Durations of completed call spans, by layer and name.
    pub calls: Vec<((Layer, &'static str), Hist)>,
    pub kinds: Vec<(&'static str, KindAgg)>,
}

impl TraceAgg {
    pub fn call(&self, layer: Layer, name: &str) -> Option<&Hist> {
        self.calls
            .iter()
            .find(|((l, n), _)| *l == layer && *n == name)
            .map(|(_, h)| h)
    }

    fn call_mut(&mut self, layer: Layer, name: &'static str) -> &mut Hist {
        let i = match self
            .calls
            .iter()
            .position(|((l, n), _)| *l == layer && *n == name)
        {
            Some(i) => i,
            None => {
                self.calls.push(((layer, name), Hist::default()));
                self.calls.len() - 1
            }
        };
        &mut self.calls[i].1
    }

    pub fn kind(&self, name: &str) -> Option<&KindAgg> {
        self.kinds.iter().find(|(n, _)| *n == name).map(|(_, k)| k)
    }

    fn kind_mut(&mut self, name: &'static str) -> &mut KindAgg {
        let i = match self.kinds.iter().position(|(n, _)| *n == name) {
            Some(i) => i,
            None => {
                self.kinds.push((name, KindAgg::default()));
                self.kinds.len() - 1
            }
        };
        &mut self.kinds[i].1
    }

    /// Fold one finished transaction's spans in; returns its per-layer self
    /// times. `spans[0]` is the txn span and its children are the attempts.
    pub fn add_txn(&mut self, kind: &'static str, spans: &[Span]) -> [u64; LAYERS.len()] {
        let attempts: Vec<&Span> = spans.iter().filter(|s| s.parent == Some(0)).collect();
        let txn = &spans[0];
        if let (Some(first), Some(last)) = (attempts.first(), attempts.last()) {
            self.begin.record(first.start - txn.start);
            self.commit.record(txn.end - last.end);
            let wasted: u64 = attempts[..attempts.len() - 1]
                .iter()
                .map(|a| a.end - a.start)
                .sum();
            self.wasted_ns += u128::from(wasted);
        }
        self.txns += 1;
        self.attempts += attempts.len() as u64;
        let k = self.kind_mut(kind);
        k.txns += 1;
        k.attempts += attempts.len() as u64;
        for s in spans
            .iter()
            .filter(|s| s.completed && s.layer != Layer::Stm)
        {
            self.call_mut(s.layer, s.name).record(s.end - s.start);
        }
        let selfs = layer_self_times(spans);
        for (acc, t) in self.self_ns.iter_mut().zip(selfs) {
            *acc += u128::from(t);
        }
        selfs
    }

    pub fn merge(&mut self, other: &TraceAgg) {
        self.txns += other.txns;
        self.attempts += other.attempts;
        self.wasted_ns += other.wasted_ns;
        self.begin.merge(&other.begin);
        self.commit.merge(&other.commit);
        for (acc, t) in self.self_ns.iter_mut().zip(other.self_ns) {
            *acc += t;
        }
        for ((layer, name), h) in &other.calls {
            self.call_mut(*layer, name).merge(h);
        }
        for (name, k) in &other.kinds {
            let acc = self.kind_mut(name);
            acc.txns += k.txns;
            acc.attempts += k.attempts;
        }
    }
}

/// One transaction kept whole for the span dump.
pub struct TxnRecord {
    pub id: u64,
    pub kind: &'static str,
    pub spans: Vec<Span>,
}

/// Transactions per client kept whole for the span dump.
const DUMP_TXNS: usize = 256;

/// The traced run's [`Probe`]: records spans of the current transaction and
/// folds them into [`TraceAgg`] when it ends.
pub struct Tracer {
    epoch: Instant,
    next_id: u64,
    spans: Vec<Span>,
    attempt: Option<usize>,
    call: Option<usize>,
    pub agg: TraceAgg,
    pub dump: Vec<TxnRecord>,
}

impl Tracer {
    /// `epoch` is shared by all clients so dumped timestamps line up.
    pub fn new(epoch: Instant, client: usize) -> Self {
        Tracer {
            epoch,
            next_id: (client as u64) << 48,
            spans: Vec::with_capacity(16),
            attempt: None,
            call: None,
            agg: TraceAgg::default(),
            dump: Vec::with_capacity(DUMP_TXNS),
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Close a call cut short by a retry unwinding out of the body.
    fn close_call(&mut self, t: u64) {
        if let Some(i) = self.call.take() {
            self.spans[i].end = t;
        }
    }
}

impl Probe for Tracer {
    fn txn_start(&mut self) {
        self.spans.clear();
        self.attempt = None;
        self.call = None;
        let t = self.now();
        self.spans.push(Span {
            parent: None,
            layer: Layer::Stm,
            name: "txn",
            start: t,
            end: t,
            completed: false,
        });
    }

    fn attempt(&mut self) {
        let t = self.now();
        self.close_call(t);
        if let Some(i) = self.attempt {
            self.spans[i].end = t;
        }
        self.attempt = Some(self.spans.len());
        self.spans.push(Span {
            parent: Some(0),
            layer: Layer::Stm,
            name: "attempt",
            start: t,
            end: t,
            completed: false,
        });
    }

    fn call<R>(&mut self, layer: Layer, name: &'static str, f: impl FnOnce() -> R) -> R {
        let i = self.spans.len();
        self.call = Some(i);
        let start = self.now();
        self.spans.push(Span {
            parent: self.attempt,
            layer,
            name,
            start,
            end: start,
            completed: false,
        });
        let r = f();
        let end = self.now();
        self.call = None;
        let s = &mut self.spans[i];
        s.end = end;
        s.completed = true;
        r
    }

    fn attempt_end(&mut self) {
        let t = self.now();
        if let Some(i) = self.attempt {
            self.spans[i].end = t;
            self.spans[i].completed = true;
        }
    }

    fn txn_end(&mut self, kind: &'static str) {
        let t = self.now();
        self.close_call(t);
        self.spans[0].end = t;
        self.spans[0].completed = true;
        self.agg.add_txn(kind, &self.spans);
        if self.dump.len() < DUMP_TXNS {
            self.dump.push(TxnRecord {
                id: self.next_id,
                kind,
                spans: self.spans.clone(),
            });
        }
        self.next_id += 1;
    }
}

/// The span dump as JSON lines: one transaction per line, naming its
/// per-layer self times and every span with its parent and self time.
pub fn dump_jsonl(records: &[TxnRecord]) -> String {
    let mut out = String::new();
    for r in records {
        let selfs = self_times(&r.spans);
        let layers = layer_self_times(&r.spans);
        let _ = write!(
            out,
            "{{\"txn\":{},\"kind\":\"{}\",\"self_ns\":{{",
            r.id, r.kind
        );
        for (i, l) in LAYERS.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(out, "{sep}\"{}\":{}", l.name(), layers[i]);
        }
        out.push_str("},\"spans\":[");
        for (i, s) in r.spans.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{sep}{{\"id\":{i},\"parent\":{parent},\"layer\":\"{}\",\"name\":\"{}\",\
                 \"start_ns\":{},\"end_ns\":{},\"self_ns\":{},\"completed\":{}}}",
                s.layer.name(),
                s.name,
                s.start,
                s.end,
                selfs[i],
                s.completed
            );
        }
        out.push_str("]}\n");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(parent: Option<usize>, layer: Layer, name: &'static str, start: u64, end: u64) -> Span {
        Span {
            parent,
            layer,
            name,
            start,
            end,
            completed: true,
        }
    }

    /// A transaction that aborted once: txn [0,100), attempt 1 [10,40) with
    /// a cut-short call [15,40), attempt 2 [40,90) with calls [45,60) and
    /// [55,70) (overlapping, so their union counts once), commit [90,100).
    fn retried_txn() -> Vec<Span> {
        let mut cut = span(Some(1), Layer::Core, "get", 15, 40);
        cut.completed = false;
        vec![
            span(None, Layer::Stm, "txn", 0, 100),
            span(Some(0), Layer::Stm, "attempt", 10, 40),
            cut,
            span(Some(0), Layer::Stm, "attempt", 40, 90),
            span(Some(3), Layer::Core, "get", 45, 60),
            span(Some(3), Layer::Jbb, "new_order", 55, 70),
        ]
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = retried_txn();
        assert_eq!(self_times(&spans), vec![20, 5, 25, 25, 15, 15]);
        // stm = 20 + 5 + 25, core = 25 + 15, jbb = 15. Overlapping siblings
        // each keep their own self time, so the layers exceed the 100 ns txn
        // span by exactly the 5 ns overlap.
        assert_eq!(layer_self_times(&spans), [50, 40, 15]);
        assert_eq!(layer_self_times(&spans).iter().sum::<u64>(), 100 + 5);
    }

    #[test]
    fn aggregates_count_attempts_waste_begin_and_commit() {
        let mut agg = TraceAgg::default();
        agg.add_txn("get", &retried_txn());
        assert_eq!(agg.txns, 1);
        assert_eq!(agg.attempts, 2);
        assert_eq!(agg.wasted_ns, 30);
        assert_eq!(agg.begin.quantile(1.0), 11.0);
        assert_eq!(agg.commit.quantile(1.0), 11.0);
        // Only the completed call is timed.
        assert_eq!(agg.call(Layer::Core, "get").map(Hist::count), Some(1));
        assert_eq!(agg.kind("get").map(|k| k.attempts), Some(2));
    }

    #[test]
    fn tracer_closes_spans_cut_by_a_retry() {
        let mut t = Tracer::new(Instant::now(), 0);
        t.txn_start();
        t.attempt();
        // A call that unwound: opened, never closed by `call` itself.
        t.call = Some(t.spans.len());
        t.spans.push(span(Some(1), Layer::Core, "get", t.now(), 0));
        t.spans[2].completed = false;
        t.attempt();
        let v = t.call(Layer::Core, "get", || 7);
        t.attempt_end();
        t.txn_end("get");
        assert_eq!(v, 7);
        let spans = &t.dump[0].spans;
        assert_eq!(spans.len(), 5);
        assert!(spans[2].end >= spans[2].start && !spans[2].completed);
        assert_eq!(spans[1].end, spans[3].start);
        assert_eq!(t.agg.attempts, 2);
        assert!(dump_jsonl(&t.dump).contains("\"self_ns\":{\"stm\":"));
    }
}
