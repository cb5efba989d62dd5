//! The observability pipeline: one per-thread event sink behind the
//! counters, the dimensional metrics, the latency histograms and the
//! conflict-provenance trace.
//!
//! txlint: metrics — emission sites in this file and in every other file
//! carrying this marker must not allocate or format inside emitter
//! argument spans (TX014; TX009 checks the trace-record emitters in every
//! file).
//!
//! Every protocol event has **exactly one emission function** here. It
//! always bumps the event's counter in the calling thread's **shard** and,
//! while an [`ObsGuard`] is live, also bumps the `(class, stripe, kind)`
//! slab or a latency histogram and pushes a fixed-width record into the
//! shard's trace ring. The three read sides all merge the same shards:
//!
//! * [`global_stats`] sums the always-on counters into a [`StatsSnapshot`]
//!   — *how many* commits, aborts by cause, lane entries, dooms issued;
//! * [`snapshot`] decodes every ring into [`TraceEvent`]s — *why this one*
//!   aborted and *who* doomed it through *which* semantic lock;
//! * [`window`] merges slabs, histograms and counters into a
//!   [`MetricsWindow`] — *which class, which stripe, at what rate and what
//!   latency*, windowed by [`MetricsWindow::diff`], exported as Prometheus
//!   text or JSON, and watched by the [`FlightRecorder`].
//!
//! # Shards
//!
//! A thread claims a shard on its first emission and is its only writer, so
//! a counter bump is a relaxed load and store on a line no other thread
//! writes. At thread exit the shard goes on a free list for the next thread
//! to reuse (the pattern of the epoch pin slots in `epoch.rs`): counts are
//! never lost, and the registry never outgrows the peak number of live
//! threads. A shard's slab, histograms and ring are allocated on its first
//! emission *while enabled*; a process that never enables never allocates
//! them.
//!
//! # Off cost
//!
//! With no guard live, a counted event is one thread-local counter bump
//! plus one relaxed load of the enable count; a trace-only event is the
//! load alone. Timing sites use [`timer`], which returns `None` while
//! disabled so `Instant::now()` itself is skipped. Enabled, nothing on the
//! emission path allocates after the shard's first enabled emission
//! (txlint TX009/TX014 reject `format!`/`String` in emitter arguments).
//!
//! # Usage
//!
//! ```
//! let guard = stm::obs::enable();
//! stm::atomic(|_tx| { /* traced work */ });
//! let snap = stm::obs::snapshot();
//! assert!(snap.events.iter().any(|e| matches!(e, stm::obs::TraceEvent::TxnCommit { .. })));
//! assert!(stm::obs::window().kind_total(stm::obs::MetricKind::Commit) > 0);
//! drop(guard);
//! ```

use crate::interrupt::AbortCause;
use parking_lot::Mutex;
use std::cell::Cell;
use std::collections::BTreeMap;
use std::io::Write as _;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering::*};
use std::sync::OnceLock;
use std::time::Instant;

// ----------------------------------------------------------------------
// Symbols and vocabulary
// ----------------------------------------------------------------------

/// An interned `&'static str` — the no-alloc way to put a class name into a
/// fixed-width event. `Sym(0)` is the reserved "unknown" symbol.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Sym(pub u16);

impl Sym {
    /// The reserved "unknown" symbol (instances that never set a name).
    pub const UNKNOWN: Sym = Sym(0);

    /// Resolve back to the interned string (`"?"` for [`Sym::UNKNOWN`] or a
    /// symbol from another process's trace).
    pub fn name(self) -> &'static str {
        sym_name(self)
    }
}

static SYMS: Mutex<Vec<&'static str>> = Mutex::new(Vec::new());

/// Intern a static string, returning a stable [`Sym`] for event encoding.
/// Call once per class at construction time, never on the emission path.
pub fn intern(name: &'static str) -> Sym {
    let mut syms = SYMS.lock();
    if let Some(i) = syms.iter().position(|&s| s == name) {
        return Sym((i + 1) as u16);
    }
    assert!(syms.len() < u16::MAX as usize - 1, "symbol table exhausted");
    syms.push(name);
    Sym(syms.len() as u16)
}

/// Resolve a [`Sym`] to its interned string (`"?"` if unknown).
pub fn sym_name(sym: Sym) -> &'static str {
    if sym.0 == 0 {
        return "?";
    }
    SYMS.lock().get(sym.0 as usize - 1).copied().unwrap_or("?")
}

/// The kind of semantic lock an event refers to (the collection layer's
/// lock taxonomy: per-key locks, whole-collection point locks, sorted-map
/// endpoint and range locks, and the bounded queue's fullness lock).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum LockKind {
    /// A per-key read lock.
    Key = 0,
    /// The size point lock.
    Size = 1,
    /// The zero-crossing emptiness lock.
    Empty = 2,
    /// A sorted-map endpoint lock (first/last key).
    Endpoint = 3,
    /// A sorted-map range lock.
    Range = 4,
    /// A bounded queue's fullness lock.
    Full = 5,
}

impl LockKind {
    /// Decode from the wire byte (unknown values map to [`LockKind::Key`]).
    pub fn from_u8(b: u8) -> LockKind {
        match b {
            1 => LockKind::Size,
            2 => LockKind::Empty,
            3 => LockKind::Endpoint,
            4 => LockKind::Range,
            5 => LockKind::Full,
            _ => LockKind::Key,
        }
    }

    /// Lower-case name used by the JSON exporter and `txtop`.
    pub fn name(self) -> &'static str {
        match self {
            LockKind::Key => "key",
            LockKind::Size => "size",
            LockKind::Empty => "empty",
            LockKind::Endpoint => "endpoint",
            LockKind::Range => "range",
            LockKind::Full => "full",
        }
    }
}

/// Names of the collection layer's observation modes, indexed by the mode
/// code carried in [`TraceEvent::DoomEdge`] (`txcollections::ObsMode` order).
pub const OBS_NAMES: [&str; 7] = ["Key", "Size", "Empty", "First", "Last", "Range", "Full"];

/// Names of the collection layer's update effects, indexed by the effect
/// code in [`TraceEvent::DoomEdge`] (`txcollections::UpdateEffect` order).
pub const EFFECT_NAMES: [&str; 6] = [
    "KeyWrite",
    "SizeChange",
    "ZeroCross",
    "FirstChange",
    "LastChange",
    "Consume",
];

/// Name of an observation-mode code (`"?"` when out of range).
pub fn obs_name(code: u8) -> &'static str {
    OBS_NAMES.get(code as usize).copied().unwrap_or("?")
}

/// Name of an update-effect code (`"?"` when out of range).
pub fn effect_name(code: u8) -> &'static str {
    EFFECT_NAMES.get(code as usize).copied().unwrap_or("?")
}

/// Lower-case abort-cause name used by the JSON exporter and `txtop`.
pub fn cause_name(cause: AbortCause) -> &'static str {
    match cause {
        AbortCause::ReadInvalid => "read_invalid",
        AbortCause::Doomed => "doomed",
        AbortCause::Explicit => "explicit",
    }
}

// ----------------------------------------------------------------------
// Dimensions
// ----------------------------------------------------------------------

/// Stripe dimension value for events on a collection's **global stripe**
/// (point locks: size/empty/endpoint/range), mirroring the trace's
/// `u64::MAX` convention.
pub const STRIPE_GLOBAL: u16 = 0xFFFF;

/// Stripe dimension value for events with **no stripe axis** (process-level
/// events: commits, aborts, lane entries, epoch pins, snapshot fallbacks).
pub const STRIPE_NONE: u16 = 0xFFFE;

/// Largest representable real stripe index; higher indices clamp here (the
/// dimensional grid is u16, real tables are never near this wide).
pub const STRIPE_MAX: u16 = 0xFFFD;

/// Map a raw stripe index (the trace convention: `u64::MAX` = global
/// stripe) onto the u16 metrics dimension.
pub fn stripe_dim(stripe: u64) -> u16 {
    if stripe == u64::MAX {
        STRIPE_GLOBAL
    } else {
        stripe.min(STRIPE_MAX as u64) as u16
    }
}

/// Render a stripe dimension value for human/exporter output.
pub fn stripe_label(stripe: u16) -> String {
    match stripe {
        STRIPE_GLOBAL => "global".to_string(),
        STRIPE_NONE => "-".to_string(),
        s => s.to_string(),
    }
}

/// What a dimensional counter counts. `Doom`, `StripeBlocked`, `CacheHit`
/// and `EpochPin` live in the `(class, stripe, kind)` slab; the other kinds
/// have no class or stripe axis and are read from the always-on counters
/// (under [`Sym::UNKNOWN`] / [`STRIPE_NONE`]), so they are never recorded
/// twice.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u16)]
pub enum MetricKind {
    /// A semantic doom landed against a victim holding a lock of this
    /// class, attributed to the stripe the conflicting lock lives in (key
    /// dooms: the key's default-grid stripe bucket; point/range dooms: the
    /// global stripe).
    Doom = 0,
    /// A semantic stripe acquisition (key stripe or global stripe) found
    /// the mutex held and had to block.
    StripeBlocked = 1,
    /// A `(kind, key)` acquisition served from the kernel's txn-local lock
    /// cache (no stripe round trip).
    CacheHit = 2,
    /// A handler-lane acquisition (counter `lane_entries`).
    LaneEntry = 3,
    /// A top-level commit (counter `commits`).
    Commit = 4,
    /// An abort whose cause was memory-level read invalidation.
    AbortReadInvalid = 5,
    /// An abort whose cause was a semantic doom.
    AbortDoomed = 6,
    /// An abort requested by the program.
    AbortExplicit = 7,
    /// A snapshot transaction abandoning to the validated path.
    SnapshotFallback = 8,
    /// An epoch pin taken by a snapshot transaction.
    EpochPin = 9,
}

/// Every [`MetricKind`], for exporters and table renderers.
pub const ALL_KINDS: [MetricKind; 10] = [
    MetricKind::Doom,
    MetricKind::StripeBlocked,
    MetricKind::CacheHit,
    MetricKind::LaneEntry,
    MetricKind::Commit,
    MetricKind::AbortReadInvalid,
    MetricKind::AbortDoomed,
    MetricKind::AbortExplicit,
    MetricKind::SnapshotFallback,
    MetricKind::EpochPin,
];

impl MetricKind {
    /// Stable lowercase label (the Prometheus `kind` label value).
    pub fn name(self) -> &'static str {
        match self {
            MetricKind::Doom => "doom",
            MetricKind::StripeBlocked => "stripe_blocked",
            MetricKind::CacheHit => "cache_hit",
            MetricKind::LaneEntry => "lane_entry",
            MetricKind::Commit => "commit",
            MetricKind::AbortReadInvalid => "abort_read_invalid",
            MetricKind::AbortDoomed => "abort_doomed",
            MetricKind::AbortExplicit => "abort_explicit",
            MetricKind::SnapshotFallback => "snapshot_fallback",
            MetricKind::EpochPin => "epoch_pin",
        }
    }

    /// The always-on counter a non-dimensional kind reads; `None` for the
    /// slab kinds.
    fn stat(self, s: &StatsSnapshot) -> Option<u64> {
        Some(match self {
            MetricKind::LaneEntry => s.lane_entries,
            MetricKind::Commit => s.commits,
            MetricKind::AbortReadInvalid => s.aborts_read_invalid,
            MetricKind::AbortDoomed => s.aborts_doomed,
            MetricKind::AbortExplicit => s.aborts_explicit,
            MetricKind::SnapshotFallback => s.snapshot_fallbacks,
            _ => return None,
        })
    }
}

/// Which latency distribution a timing sample belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum HistKind {
    /// Top-level commit latency: entry of `try_commit_top` to post-publish.
    CommitLatency = 0,
    /// Time blocked acquiring a contended semantic stripe (key or global).
    SemLockWait = 1,
    /// Transaction wall time across all retry attempts (`atomic_with`
    /// entry to committed return).
    TxnWall = 2,
    /// Snapshot (`atomic_read`) wall time, successful snapshot path only.
    SnapshotRead = 3,
}

/// Number of histogram kinds (shard array width).
pub const HIST_KINDS: usize = 4;

/// Every [`HistKind`], for exporters and table renderers.
pub const ALL_HISTS: [HistKind; HIST_KINDS] = [
    HistKind::CommitLatency,
    HistKind::SemLockWait,
    HistKind::TxnWall,
    HistKind::SnapshotRead,
];

impl HistKind {
    /// Stable metric name (Prometheus series prefix; unit is nanoseconds).
    pub fn name(self) -> &'static str {
        match self {
            HistKind::CommitLatency => "stm_commit_latency_ns",
            HistKind::SemLockWait => "stm_sem_lock_wait_ns",
            HistKind::TxnWall => "stm_txn_wall_ns",
            HistKind::SnapshotRead => "stm_snapshot_read_ns",
        }
    }
}

// ----------------------------------------------------------------------
// Always-on counters
// ----------------------------------------------------------------------

/// Declares the per-shard counters once: the private index enum and the
/// public [`StatsSnapshot`] with one `u64` field per counter.
macro_rules! counters {
    ($($(#[$doc:meta])* $name:ident,)*) => {
        /// Index of a counter in a shard's counter array.
        #[allow(non_camel_case_types)]
        #[derive(Clone, Copy)]
        enum Ctr { $($name,)* Len }

        /// Every thread's counters summed at one point in time. The harness
        /// idiom is snapshot-before, run, snapshot-after,
        /// `after.diff(&before)`.
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        pub struct StatsSnapshot {
            $($(#[$doc])* pub $name: u64,)*
        }

        impl StatsSnapshot {
            fn from_counts(c: &[u64; Ctr::Len as usize]) -> StatsSnapshot {
                StatsSnapshot { $($name: c[Ctr::$name as usize],)* }
            }

            /// Counter-wise difference (`self - earlier`), saturating.
            #[must_use]
            pub fn diff(&self, earlier: &StatsSnapshot) -> StatsSnapshot {
                StatsSnapshot { $($name: self.$name.saturating_sub(earlier.$name),)* }
            }
        }
    };
}

counters! {
    /// Top-level commits.
    commits,
    /// Aborts from read-set invalidation (memory-level conflicts).
    aborts_read_invalid,
    /// Aborts from program-directed abort (semantic conflicts).
    aborts_doomed,
    /// Aborts requested by the program itself.
    aborts_explicit,
    /// Open-nested child commits.
    open_commits,
    /// Open-nested child re-executions.
    open_retries,
    /// Flattened read-only opens: protocol-equivalent `open` calls served
    /// with no child transaction (direct validated reads) — each one is an
    /// open commit that did not have to happen.
    open_flattened,
    /// Txn-local semantic-lock cache hits: `(kind, key)` acquisitions the
    /// kernel satisfied from the transaction's own cache with zero
    /// shared-memory traffic.
    lock_cache_hits,
    /// Closed-nested partial rollbacks (frame re-executions).
    frame_retries,
    /// Commit/abort handler invocations.
    handler_runs,
    /// Commit-path contention: per-var commit-lock acquisitions that found
    /// the lock held and had to spin.
    var_lock_spins,
    /// Handler-lane acquisitions (updating handler execution, writing
    /// open-nested commits, and observer-only commits waiting out an
    /// updater).
    lane_entries,
    /// Top-level commits that never touched the handler lane — handler-free
    /// commits and observer-only commits (release-only handlers run
    /// lane-free).
    lane_free_commits,
    /// Semantic-table contention: stripe acquisitions (key stripe or global
    /// stripe) that found the mutex held and had to block.
    stripe_lock_spins,
    /// Acquisitions of a collection's global stripe (size/empty/endpoint/
    /// range point locks) — the serialized residue of semantic locking.
    global_stripe_entries,
    /// Program-directed dooms *issued*: successful [`crate::TxHandle::doom`]
    /// calls that transitioned a victim to the doomed state. Cross-checks
    /// against `aborts_doomed` (dooms *absorbed*) and the trace's
    /// `DoomEdge` events — issued ≥ absorbed, because a doomed attempt
    /// observes its doom exactly once but may be doomed by several commits.
    dooms_issued,
    /// Trace records lost to ring overflow (drop-oldest). Zero whenever
    /// no guard is live.
    trace_events_dropped,
    /// Variable reads served by snapshot ([`crate::atomic_read`])
    /// transactions out of the multi-version chain — reads with no read-set
    /// entry, no validation, and no semantic locks.
    snapshot_reads,
    /// Snapshot transactions that abandoned to the validated path because a
    /// version chain had been truncated past their snapshot (the counted,
    /// never-silent escape hatch of the wait-free read design).
    snapshot_fallbacks,
    /// Version-chain entries reclaimed: dropped past the epoch horizon or
    /// the depth bound, or cleared when no snapshot reader was pinned.
    chain_entries_reclaimed,
}

impl StatsSnapshot {
    /// Total aborts of top-level attempts.
    pub fn aborts(&self) -> u64 {
        self.aborts_read_invalid + self.aborts_doomed + self.aborts_explicit
    }

    /// Program-directed dooms *absorbed*: top-level aborts whose cause was a
    /// doom. Alias of `aborts_doomed`, named to pair with
    /// [`StatsSnapshot::dooms_issued`] for counter/trace cross-checks.
    pub fn dooms_absorbed(&self) -> u64 {
        self.aborts_doomed
    }
}

// ----------------------------------------------------------------------
// Shards and the registry
// ----------------------------------------------------------------------

/// Trace-ring capacity of every shard (records; power of two).
pub const RING_SLOTS: usize = 1 << 16;

/// Dimensional-slab capacity of every shard (slots; power of two).
pub const SLAB_SLOTS: usize = 512;

const WORDS: usize = 5;

/// One dimensional-counter slot: `key == 0` means empty. Written only by
/// the owning thread; scanned concurrently by [`window`].
#[derive(Default)]
struct SlabSlot {
    key: AtomicU64,
    count: AtomicU64,
}

/// One trace record: a per-slot seqlock version (odd while the owner is
/// writing) and the five packed words.
#[derive(Default)]
struct RingSlot {
    seq: AtomicU64,
    words: [AtomicU64; WORDS],
}

/// One per-kind histogram shard: 64 log2 buckets (bucket *b* holds samples
/// with `floor(log2(max(v,1))) == b`), plus the exact running sum and max.
struct HistShard {
    buckets: [AtomicU64; 64],
    sum: AtomicU64,
    max: AtomicU64,
}

impl HistShard {
    fn record(&self, v: u64) {
        bump(&self.buckets[63 - v.max(1).leading_zeros() as usize], 1);
        bump(&self.sum, v);
        if v > self.max.load(Relaxed) {
            self.max.store(v, Relaxed);
        }
    }

    fn load(&self) -> Histogram {
        Histogram {
            buckets: std::array::from_fn(|b| self.buckets[b].load(Relaxed)),
            sum: self.sum.load(Relaxed),
            max: self.max.load(Relaxed),
        }
    }
}

/// A shard's enabled-mode state: the dimensional slab, the histograms and
/// the trace ring. Allocated on the shard's first emission while enabled,
/// zeroed by every outermost [`enable`], kept when the shard is reused.
struct Live {
    slab: Box<[SlabSlot]>,
    hists: [HistShard; HIST_KINDS],
    /// Records written since the last outermost enable (next logical
    /// index); records below `head - RING_SLOTS` were overwritten.
    head: AtomicU64,
    ring: Box<[RingSlot]>,
}

impl Live {
    fn new() -> Live {
        Live {
            slab: (0..SLAB_SLOTS).map(|_| SlabSlot::default()).collect(),
            hists: std::array::from_fn(|_| HistShard {
                buckets: std::array::from_fn(|_| AtomicU64::new(0)),
                sum: AtomicU64::new(0),
                max: AtomicU64::new(0),
            }),
            head: AtomicU64::new(0),
            ring: (0..RING_SLOTS).map(|_| RingSlot::default()).collect(),
        }
    }

    fn reset(&self) {
        for s in self.slab.iter() {
            s.key.store(0, Relaxed);
            s.count.store(0, Relaxed);
        }
        for h in &self.hists {
            h.buckets
                .iter()
                .chain([&h.sum, &h.max])
                .for_each(|a| a.store(0, Relaxed));
        }
        self.head.store(0, SeqCst);
    }

    /// Owner-thread increment of one dimensional key. Linear probe from the
    /// mixed slot; a full slab counts the increment as dropped.
    fn bump_key(&self, key: u64) {
        let mask = SLAB_SLOTS - 1;
        let mut idx = slot_mix(key) as usize & mask;
        for _ in 0..SLAB_SLOTS {
            let slot = &self.slab[idx];
            let k = slot.key.load(Relaxed);
            if k == 0 {
                // Single writer: no claim race. A concurrent window scan may
                // see the key before its count lands — a benign zero entry.
                slot.key.store(key, Relaxed);
            }
            if k == 0 || k == key {
                bump(&slot.count, 1);
                return;
            }
            idx = (idx + 1) & mask;
        }
        SLAB_DROPPED.fetch_add(1, Relaxed);
    }

    /// Owner-thread append. Seqlock discipline: bump the slot version to
    /// odd, store the payload, bump to even, then publish the new head.
    /// Returns whether the append overwrote (dropped) the oldest record.
    fn push(&self, words: [u64; WORDS]) -> bool {
        let h = self.head.load(Relaxed);
        let slot = &self.ring[h as usize % RING_SLOTS];
        let v = slot.seq.load(Relaxed);
        slot.seq.store(v + 1, SeqCst);
        for (w, val) in slot.words.iter().zip(words) {
            w.store(val, Relaxed);
        }
        slot.seq.store(v + 2, SeqCst);
        self.head.store(h + 1, Release);
        h >= RING_SLOTS as u64
    }

    /// Seqlock read of logical index `i` (must be in `[head-slots, head)`).
    fn read(&self, i: u64) -> Option<[u64; WORDS]> {
        let slot = &self.ring[i as usize % RING_SLOTS];
        for _ in 0..4 {
            let v1 = slot.seq.load(SeqCst);
            if v1 & 1 == 1 {
                std::hint::spin_loop();
                continue;
            }
            let out = std::array::from_fn(|w| slot.words[w].load(Relaxed));
            if slot.seq.load(SeqCst) == v1 {
                return Some(out);
            }
        }
        None
    }
}

/// One thread's sink: the always-on counters plus the lazily allocated
/// enabled-mode state. Exactly one thread owns a shard at a time; the
/// alignment keeps two threads' counters off a shared cache line pair.
#[repr(align(128))]
struct Shard {
    counts: [AtomicU64; Ctr::Len as usize],
    live: OnceLock<Live>,
}

impl Shard {
    #[inline]
    fn add(&self, c: Ctr, n: u64) {
        bump(&self.counts[c as usize], n);
    }

    fn live(&self) -> &Live {
        self.live.get_or_init(Live::new)
    }

    /// Push one trace record, counting an overflow drop.
    #[allow(clippy::too_many_arguments)]
    fn trace(&self, kind: u8, sym: Sym, aux: u8, aux2: u8, flags: u8, a: u64, b: u64, c: u64) {
        let seq = SEQ.fetch_add(1, Relaxed) + 1;
        let w0 = kind as u64
            | (sym.0 as u64) << 8
            | (aux as u64) << 24
            | (aux2 as u64) << 32
            | (flags as u64) << 40;
        if self.live().push([w0, seq, a, b, c]) {
            self.add(Ctr::trace_events_dropped, 1);
        }
    }
}

/// Single-writer increment: the owner is the only thread storing to `a`,
/// so a relaxed load and store replace a locked read-modify-write.
#[inline]
fn bump(a: &AtomicU64, n: u64) {
    a.store(a.load(Relaxed).wrapping_add(n), Relaxed);
}

/// Every shard ever created (never freed) and the ones no thread owns,
/// plus the counter sums at the outermost [`enable`], which [`window`]
/// reports its counter kinds relative to.
struct Registry {
    all: Vec<&'static Shard>,
    free: Vec<&'static Shard>,
    baseline: [u64; Ctr::Len as usize],
}

impl Registry {
    /// Sum every shard's always-on counters.
    fn sum(&self) -> [u64; Ctr::Len as usize] {
        let mut sum = [0u64; Ctr::Len as usize];
        for shard in &self.all {
            for (acc, c) in sum.iter_mut().zip(&shard.counts) {
                *acc += c.load(Relaxed);
            }
        }
        sum
    }

    fn claim(&mut self) -> &'static Shard {
        self.free.pop().unwrap_or_else(|| {
            let shard: &'static Shard = Box::leak(Box::new(Shard {
                counts: std::array::from_fn(|_| AtomicU64::new(0)),
                live: OnceLock::new(),
            }));
            self.all.push(shard);
            shard
        })
    }
}

static REGISTRY: Mutex<Registry> = Mutex::new(Registry {
    all: Vec::new(),
    free: Vec::new(),
    baseline: [0; Ctr::Len as usize],
});
static ENABLE_COUNT: AtomicU32 = AtomicU32::new(0);
/// Global trace order, drawn per record while enabled.
static SEQ: AtomicU64 = AtomicU64::new(0);
/// Slab increments lost to a full slab since the last outermost enable.
static SLAB_DROPPED: AtomicU64 = AtomicU64::new(0);
static START: OnceLock<Instant> = OnceLock::new();

/// The calling thread's shard, returned to the free list at thread exit.
struct Owned(Cell<Option<&'static Shard>>);

impl Drop for Owned {
    fn drop(&mut self) {
        if let Some(shard) = self.0.take() {
            REGISTRY.lock().free.push(shard);
        }
    }
}

thread_local! {
    static OWNED: Owned = const { Owned(Cell::new(None)) };
}

/// Run `f` on the calling thread's shard. During thread teardown (after
/// the thread-local is gone) `f` runs on a shard borrowed from the free
/// list under the registry lock, so the event is still counted.
#[inline]
fn with_shard(f: impl FnOnce(&Shard)) {
    let owned = OWNED.try_with(|o| match o.0.get() {
        Some(s) => s,
        None => {
            let s = REGISTRY.lock().claim();
            o.0.set(Some(s));
            s
        }
    });
    match owned {
        Ok(shard) => f(shard),
        Err(_) => {
            let mut reg = REGISTRY.lock();
            let shard = reg.claim();
            f(shard);
            reg.free.push(shard);
        }
    }
}

/// `(registered shards, shards with enabled-mode state allocated)` — a
/// diagnostic: the first tracks the peak number of live threads, the
/// second stays zero in a process that never enables.
pub fn shard_census() -> (usize, usize) {
    let reg = REGISTRY.lock();
    let live = reg.all.iter().filter(|s| s.live.get().is_some()).count();
    (reg.all.len(), live)
}

/// Sum every thread's always-on counters.
#[must_use]
pub fn global_stats() -> StatsSnapshot {
    StatsSnapshot::from_counts(&REGISTRY.lock().sum())
}

/// The calling thread's always-on counters: its own shard only, so a
/// diff of two reads counts exactly the events this thread emitted in
/// between, whatever other threads do. (A shard is reused after its
/// thread exits, so a single read is not a per-thread total: diff two.)
#[must_use]
pub fn thread_stats() -> StatsSnapshot {
    let mut counts = [0u64; Ctr::Len as usize];
    with_shard(|shard| {
        for (acc, c) in counts.iter_mut().zip(&shard.counts) {
            *acc = c.load(Relaxed);
        }
    });
    StatsSnapshot::from_counts(&counts)
}

// ----------------------------------------------------------------------
// The enable guard
// ----------------------------------------------------------------------

/// Is an [`ObsGuard`] live? One relaxed load.
#[inline]
pub fn enabled() -> bool {
    ENABLE_COUNT.load(Relaxed) != 0
}

/// Turn on the slab, histograms and trace ring for the lifetime of the
/// returned guard. Guards nest; the **outermost** enable zeroes every
/// shard's enabled-mode state and records the counter sums as the
/// baseline of [`window`], so a fresh guard starts a fresh trace and
/// windows whose every kind counts from zero. The always-on counters
/// themselves are never reset ([`global_stats`] is unaffected).
pub fn enable() -> ObsGuard {
    let mut reg = REGISTRY.lock();
    if ENABLE_COUNT.load(SeqCst) == 0 {
        for live in reg.all.iter().filter_map(|s| s.live.get()) {
            live.reset();
        }
        SLAB_DROPPED.store(0, Relaxed);
        reg.baseline = reg.sum();
    }
    ENABLE_COUNT.fetch_add(1, SeqCst);
    ObsGuard { _priv: () }
}

/// RAII guard returned by [`enable`]; recording stays on until every live
/// guard has dropped.
#[must_use = "recording stays enabled only while the guard is live"]
pub struct ObsGuard {
    _priv: (),
}

impl Drop for ObsGuard {
    fn drop(&mut self) {
        ENABLE_COUNT.fetch_sub(1, SeqCst);
    }
}

// ----------------------------------------------------------------------
// Emission (hot paths — no allocation, no formatting; TX009/TX014)
// ----------------------------------------------------------------------

// Trace record kind codes (word0 bits 0..8). word0 layout: kind(0..8) |
// sym(8..24) | aux(24..32) | aux2(32..40) | flags(40..48); words 1..5:
// seq, a, b, c.
const K_TXN_BEGIN: u8 = 0;
const K_TXN_COMMIT: u8 = 1;
const K_TXN_ABORT: u8 = 2;
const K_FRAME_RETRY: u8 = 3;
const K_OPEN_COMMIT: u8 = 4;
const K_OPEN_RETRY: u8 = 5;
const K_LANE_ENTER: u8 = 6;
const K_LANE_EXIT: u8 = 7;
const K_VAR_LOCK_SPIN: u8 = 8;
const K_SEM_BLOCKED: u8 = 9;
const K_SEM_ACQUIRED: u8 = 10;
const K_SEM_RELEASED: u8 = 11;
const K_DOOM_EDGE: u8 = 12;
const K_OPEN_FLAT: u8 = 13;
const K_CACHE_HIT: u8 = 14;
const K_SNAPSHOT_TXN: u8 = 15;
const K_SNAPSHOT_FALLBACK: u8 = 16;

/// `(class, stripe, kind)` packed into one u64 slab key. The kind field is
/// stored +1 so a fully-zero triple never packs to 0 — 0 is the slab's
/// empty-slot sentinel.
fn pack_key(class: Sym, stripe: u16, kind: MetricKind) -> u64 {
    ((class.0 as u64) << 32) | ((stripe as u64) << 16) | (kind as u64 + 1)
}

fn unpack_key(key: u64) -> Option<(Sym, u16, MetricKind)> {
    let kind = *ALL_KINDS.get(((key & 0xFFFF) as usize).checked_sub(1)?)?;
    Some((
        Sym(((key >> 32) & 0xFFFF) as u16),
        ((key >> 16) & 0xFFFF) as u16,
        kind,
    ))
}

/// Slot-index mixer for the open-addressed slab (golden-ratio multiply; the
/// packed key's entropy is in the low/mid bits).
fn slot_mix(key: u64) -> u64 {
    key.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_right(21)
}

#[inline]
fn now_ns() -> u64 {
    START.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// The common emitter shape: bump `ctr` and, while enabled, push a
/// lifecycle record `(kind, txn, ts)`.
#[inline]
fn count_and_trace(ctr: Ctr, kind: u8, txn: u64) {
    with_shard(|s| {
        s.add(ctr, 1);
        if enabled() {
            s.trace(kind, Sym::UNKNOWN, 0, 0, 0, txn, 0, now_ns());
        }
    });
}

/// A trace-only record `(kind, sym, aux, a, b, ts)`: nothing at all —
/// not even the timestamp — while disabled.
#[inline]
fn trace_only(kind: u8, sym: Sym, aux: u8, a: u64, b: u64) {
    if enabled() {
        with_shard(|s| s.trace(kind, sym, aux, 0, 0, a, b, now_ns()));
    }
}

/// A top-level attempt began executing.
#[inline]
pub(crate) fn txn_begin(txn: u64) {
    trace_only(K_TXN_BEGIN, Sym::UNKNOWN, 0, txn, 0);
}

/// A top-level attempt committed. `lane_free` says it never took the
/// handler lane; `t0` is its commit-latency [`timer`].
#[inline]
pub(crate) fn txn_commit(txn: u64, lane_free: bool, t0: Option<Instant>) {
    with_shard(|s| {
        s.add(Ctr::commits, 1);
        s.add(Ctr::lane_free_commits, lane_free as u64);
        if enabled() {
            if let Some(t0) = t0 {
                s.live().hists[HistKind::CommitLatency as usize]
                    .record(t0.elapsed().as_nanos() as u64);
            }
            s.trace(K_TXN_COMMIT, Sym::UNKNOWN, 0, 0, 0, txn, 0, now_ns());
        }
    });
}

/// A top-level attempt aborted; `culprit` is the dooming attempt's id for
/// a doom (0 when unattributed or not a doom).
#[inline]
pub(crate) fn txn_abort(txn: u64, cause: AbortCause, culprit: u64) {
    let ctr = match cause {
        AbortCause::ReadInvalid => Ctr::aborts_read_invalid,
        AbortCause::Doomed => Ctr::aborts_doomed,
        AbortCause::Explicit => Ctr::aborts_explicit,
    };
    with_shard(|s| {
        s.add(ctr, 1);
        if enabled() {
            s.trace(
                K_TXN_ABORT,
                Sym::UNKNOWN,
                cause as u8,
                0,
                0,
                txn,
                culprit,
                now_ns(),
            );
        }
    });
}

/// A snapshot attempt completed having served `reads` chain reads; `t0`
/// is its [`timer`] from `atomic_read` entry.
#[inline]
pub(crate) fn snapshot_commit(txn: u64, reads: u64, t0: Option<Instant>) {
    with_shard(|s| {
        s.add(Ctr::commits, 1);
        s.add(Ctr::snapshot_reads, reads);
        if enabled() {
            if let Some(t0) = t0 {
                s.live().hists[HistKind::SnapshotRead as usize]
                    .record(t0.elapsed().as_nanos() as u64);
            }
            let ts = now_ns();
            s.trace(K_SNAPSHOT_TXN, Sym::UNKNOWN, 0, 0, 0, txn, reads, ts);
            s.trace(K_TXN_COMMIT, Sym::UNKNOWN, 0, 0, 0, txn, 0, ts);
        }
    });
}

/// A snapshot attempt was abandoned after serving `reads` chain reads —
/// to the validated path when `fallback`, otherwise on misuse or a user
/// panic. Not an abort in [`StatsSnapshot`]: the attempt speculated
/// nothing, and `snapshot_fallbacks` is the signal that matters.
#[inline]
pub(crate) fn snapshot_abandoned(txn: u64, reads: u64, fallback: bool) {
    with_shard(|s| {
        s.add(Ctr::snapshot_reads, reads);
        s.add(Ctr::snapshot_fallbacks, fallback as u64);
        if enabled() {
            let ts = now_ns();
            if fallback {
                s.trace(K_SNAPSHOT_FALLBACK, Sym::UNKNOWN, 0, 0, 0, txn, 0, ts);
            }
            let explicit = AbortCause::Explicit as u8;
            s.trace(K_TXN_ABORT, Sym::UNKNOWN, explicit, 0, 0, txn, 0, ts);
        }
    });
}

/// A closed-nested frame rolled back and re-executes.
#[inline]
pub(crate) fn frame_retry(txn: u64) {
    count_and_trace(Ctr::frame_retries, K_FRAME_RETRY, txn);
}

/// An open-nested child of `txn` committed.
#[inline]
pub(crate) fn open_commit(txn: u64) {
    count_and_trace(Ctr::open_commits, K_OPEN_COMMIT, txn);
}

/// An open-nested child (or flattened open) of `txn` re-executes.
#[inline]
pub(crate) fn open_retry(txn: u64) {
    count_and_trace(Ctr::open_retries, K_OPEN_RETRY, txn);
}

/// A read-only open of `txn` was served flattened.
#[inline]
pub(crate) fn open_flattened(txn: u64) {
    count_and_trace(Ctr::open_flattened, K_OPEN_FLAT, txn);
}

/// `txn` acquired the handler lane.
#[inline]
pub(crate) fn lane_enter(txn: u64) {
    count_and_trace(Ctr::lane_entries, K_LANE_ENTER, txn);
}

/// `txn` released the handler lane.
#[inline]
pub(crate) fn lane_exit(txn: u64) {
    trace_only(K_LANE_EXIT, Sym::UNKNOWN, 0, txn, 0);
}

/// A per-`TVar` commit-lock acquisition found the lock held and spins.
#[inline]
pub(crate) fn var_lock_spin(var: u64) {
    count_and_trace(Ctr::var_lock_spins, K_VAR_LOCK_SPIN, var);
}

/// A commit or abort handler runs.
#[inline]
pub(crate) fn handler_run() {
    with_shard(|s| s.add(Ctr::handler_runs, 1));
}

/// A doom landed on an active transaction (issued; see `dooms_issued`).
#[inline]
pub(crate) fn doom_issued() {
    with_shard(|s| s.add(Ctr::dooms_issued, 1));
}

/// `n` version-chain entries were reclaimed.
#[inline]
pub(crate) fn chain_reclaimed(n: u64) {
    with_shard(|s| s.add(Ctr::chain_entries_reclaimed, n));
}

/// A snapshot transaction took an epoch pin.
#[inline]
pub(crate) fn epoch_pin() {
    if enabled() {
        with_shard(|s| {
            s.live()
                .bump_key(pack_key(Sym::UNKNOWN, STRIPE_NONE, MetricKind::EpochPin))
        });
    }
}

/// A semantic-lock acquisition by `txn` was served by its txn-local lock
/// cache. Public for the collection layer's kernel.
#[inline]
pub fn lock_cache_hit(txn: u64, class: Sym, kind: LockKind, key_hash: u64) {
    with_shard(|s| {
        s.add(Ctr::lock_cache_hits, 1);
        if enabled() {
            s.live()
                .bump_key(pack_key(class, STRIPE_NONE, MetricKind::CacheHit));
            s.trace(
                K_CACHE_HIT,
                class,
                kind as u8,
                0,
                0,
                txn,
                key_hash,
                now_ns(),
            );
        }
    });
}

/// A semantic-table stripe acquisition (`stripe`: the stripe index,
/// `u64::MAX` for the global stripe) found its mutex held. Returns the
/// wait [`timer`]; pass it to [`hist_elapsed`] with
/// [`HistKind::SemLockWait`] once the mutex is taken. Public for the
/// collection layer's lock tables.
#[inline]
pub fn sem_lock_blocked(class: Sym, stripe: u64) -> Option<Instant> {
    with_shard(|s| {
        s.add(Ctr::stripe_lock_spins, 1);
        if enabled() {
            s.live().bump_key(pack_key(
                class,
                stripe_dim(stripe),
                MetricKind::StripeBlocked,
            ));
            s.trace(K_SEM_BLOCKED, class, 0, 0, 0, stripe, 0, now_ns());
        }
    });
    timer()
}

/// A collection's global stripe was entered. Public for the collection
/// layer's lock tables.
#[inline]
pub fn global_stripe_entry() {
    with_shard(|s| s.add(Ctr::global_stripe_entries, 1));
}

/// `txn` acquired a semantic lock; `key_hash` is the key's stripe hash (0
/// for point locks). Public for the collection layer's lock tables.
#[inline]
pub fn sem_lock_acquired(txn: u64, class: Sym, kind: LockKind, key_hash: u64) {
    trace_only(K_SEM_ACQUIRED, class, kind as u8, txn, key_hash);
}

/// A commit/abort handler sweep released `count` semantic locks of one
/// kind held by `txn`. Public for the collection layer's lock tables.
#[inline]
pub fn sem_lock_released(txn: u64, class: Sym, kind: LockKind, count: u64) {
    if count > 0 {
        trace_only(K_SEM_RELEASED, class, kind as u8, txn, count);
    }
}

/// A doom landed: the edge `doomer → victim` over a semantic lock of
/// `kind` on `key_hash` in `stripe` (raw convention: `u64::MAX` = global
/// stripe), with the conflicting `(obs, effect)` mode-pair codes and the
/// `mode_compatible` verdict that justified it. Public for the collection
/// layer's doom protocol.
#[inline]
#[allow(clippy::too_many_arguments)]
pub fn doom_edge(
    doomer: u64,
    victim: u64,
    class: Sym,
    kind: LockKind,
    key_hash: u64,
    stripe: u64,
    obs: u8,
    effect: u8,
    compatible: bool,
) {
    if enabled() {
        with_shard(|s| {
            s.live()
                .bump_key(pack_key(class, stripe_dim(stripe), MetricKind::Doom));
            let modes = (obs << 4) | (effect & 0x0f);
            s.trace(
                K_DOOM_EDGE,
                class,
                kind as u8,
                modes,
                compatible as u8,
                doomer,
                victim,
                key_hash,
            );
        });
    }
}

/// Start a latency measurement: `Some(now)` while enabled, `None` (free)
/// otherwise. Pair with [`hist_elapsed`].
#[inline]
pub fn timer() -> Option<Instant> {
    enabled().then(Instant::now)
}

/// Record the time elapsed since a [`timer`] start into `kind`'s
/// histogram; a `None` start is free.
#[inline]
pub fn hist_elapsed(kind: HistKind, start: Option<Instant>) {
    if let Some(t0) = start {
        hist_record_ns(kind, t0.elapsed().as_nanos() as u64);
    }
}

/// Record one latency sample (nanoseconds) into `kind`'s histogram.
pub fn hist_record_ns(kind: HistKind, ns: u64) {
    if enabled() {
        with_shard(|s| s.live().hists[kind as usize].record(ns));
    }
}

// ----------------------------------------------------------------------
// Trace snapshot and JSON export
// ----------------------------------------------------------------------

/// One decoded trace event. `seq` is a process-global order (drawn from one
/// atomic counter at emission time); `ts` is nanoseconds since the first
/// event of the process (coarse wall-clock for occupancy estimates, absent
/// on doom edges, whose fifth word carries the key hash instead).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceEvent {
    /// A top-level transaction attempt began executing.
    TxnBegin {
        /// Global emission order.
        seq: u64,
        /// Attempt id ([`crate::TxHandle::id`]).
        txn: u64,
        /// Nanoseconds since trace start.
        ts: u64,
    },
    /// A top-level attempt committed (point of no return passed, writes
    /// published, handlers run).
    TxnCommit {
        /// Global emission order.
        seq: u64,
        /// Attempt id.
        txn: u64,
        /// Nanoseconds since trace start.
        ts: u64,
    },
    /// A top-level attempt aborted. When `cause` is [`AbortCause::Doomed`],
    /// `culprit` is the attempt id of the transaction whose commit issued
    /// the doom (0 if unattributed).
    TxnAbort {
        /// Global emission order.
        seq: u64,
        /// Attempt id.
        txn: u64,
        /// Why the attempt aborted.
        cause: AbortCause,
        /// Dooming attempt id (0 when not a doom or unattributed).
        culprit: u64,
        /// Nanoseconds since trace start.
        ts: u64,
    },
    /// A closed-nested frame rolled back and re-executed (partial rollback).
    FrameRetry {
        /// Global emission order.
        seq: u64,
        /// Attempt id.
        txn: u64,
        /// Nanoseconds since trace start.
        ts: u64,
    },
    /// An open-nested child committed.
    OpenCommit {
        /// Global emission order.
        seq: u64,
        /// Owning top-level attempt id.
        txn: u64,
        /// Nanoseconds since trace start.
        ts: u64,
    },
    /// An open-nested child failed validation and re-executed.
    OpenRetry {
        /// Global emission order.
        seq: u64,
        /// Owning top-level attempt id.
        txn: u64,
        /// Nanoseconds since trace start.
        ts: u64,
    },
    /// The handler lane was acquired (handler execution or a writing
    /// open-nested commit).
    LaneEnter {
        /// Global emission order.
        seq: u64,
        /// Attempt id holding the lane.
        txn: u64,
        /// Nanoseconds since trace start.
        ts: u64,
    },
    /// The handler lane was released.
    LaneExit {
        /// Global emission order.
        seq: u64,
        /// Attempt id that held the lane.
        txn: u64,
        /// Nanoseconds since trace start.
        ts: u64,
    },
    /// A per-`TVar` commit-lock acquisition found the lock held and spun.
    VarLockSpin {
        /// Global emission order.
        seq: u64,
        /// The contended var's id.
        var: u64,
        /// Nanoseconds since trace start.
        ts: u64,
    },
    /// A semantic-table stripe mutex was found held (a blocked semantic
    /// lock acquisition or handler sweep). `stripe` is the stripe index,
    /// `u64::MAX` for the global point-lock stripe.
    SemLockBlocked {
        /// Global emission order.
        seq: u64,
        /// Collection class name.
        class: Sym,
        /// Contended stripe index (`u64::MAX` = global stripe).
        stripe: u64,
        /// Nanoseconds since trace start.
        ts: u64,
    },
    /// A semantic lock was acquired by a transaction body.
    SemLockAcquired {
        /// Global emission order.
        seq: u64,
        /// Acquiring attempt id.
        txn: u64,
        /// Collection class name.
        class: Sym,
        /// Which lock table.
        kind: LockKind,
        /// Stripe-hash of the key (0 for point locks).
        key_hash: u64,
        /// Nanoseconds since trace start.
        ts: u64,
    },
    /// A transaction's semantic locks of one kind were released by its
    /// commit or abort handler (`count` locks at once).
    SemLockReleased {
        /// Global emission order.
        seq: u64,
        /// Releasing attempt id.
        txn: u64,
        /// Collection class name.
        class: Sym,
        /// Which lock table.
        kind: LockKind,
        /// How many locks this release covered.
        count: u64,
        /// Nanoseconds since trace start.
        ts: u64,
    },
    /// A committing transaction doomed a semantic lock holder: the edge
    /// `doomer → victim`, with the conflicting `(obs, effect)` mode pair.
    /// `compatible` is `mode_compatible(obs, effect, overlap)` as evaluated
    /// by the doom protocol — always `false` for an edge that landed.
    DoomEdge {
        /// Global emission order.
        seq: u64,
        /// Committing attempt that issued the doom.
        doomer: u64,
        /// Attempt that absorbed it.
        victim: u64,
        /// Collection class name.
        class: Sym,
        /// Which lock table the conflict was found in.
        kind: LockKind,
        /// Stripe-hash of the conflicting key (0 for point locks).
        key_hash: u64,
        /// Observation-mode code of the victim's lock (see [`obs_name`]).
        obs: u8,
        /// Update-effect code of the doomer's write (see [`effect_name`]).
        effect: u8,
        /// The `mode_compatible` verdict for the pair (false = conflict).
        compatible: bool,
    },
    /// A read-only open was served flattened: no child transaction, the
    /// reads validated inline against per-var stamps (or, for boosted
    /// backends, performed directly under an already-held semantic lock).
    OpenFlattened {
        /// Global emission order.
        seq: u64,
        /// Owning top-level attempt id.
        txn: u64,
        /// Nanoseconds since trace start.
        ts: u64,
    },
    /// A semantic-lock acquisition was satisfied by the transaction's own
    /// lock cache — the `(kind, key)` lock was already held, so no stripe
    /// was touched.
    LockCacheHit {
        /// Global emission order.
        seq: u64,
        /// Attempt id whose cache hit.
        txn: u64,
        /// Collection class name.
        class: Sym,
        /// Which lock table the cached lock belongs to.
        kind: LockKind,
        /// Stripe-hash of the key (0 for point locks).
        key_hash: u64,
        /// Nanoseconds since trace start.
        ts: u64,
    },
    /// A snapshot ([`crate::atomic_read`]) transaction completed, having
    /// served `reads` variable reads from the version chains with no
    /// read-set, no validation, and no semantic locks. Emitted just before
    /// the attempt's [`TraceEvent::TxnCommit`].
    SnapshotTxn {
        /// Global emission order.
        seq: u64,
        /// Attempt id.
        txn: u64,
        /// Chain reads served by the attempt.
        reads: u64,
        /// Nanoseconds since trace start.
        ts: u64,
    },
    /// A snapshot attempt abandoned to the validated path (a version chain
    /// was truncated past its snapshot). Emitted just before the attempt's
    /// closing [`TraceEvent::TxnAbort`]; the re-run appears as a fresh
    /// ordinary transaction.
    SnapshotFallback {
        /// Global emission order.
        seq: u64,
        /// Attempt id of the abandoned snapshot attempt.
        txn: u64,
        /// Nanoseconds since trace start.
        ts: u64,
    },
}

impl TraceEvent {
    /// Global emission order of this event.
    pub fn seq(&self) -> u64 {
        match self {
            TraceEvent::TxnBegin { seq, .. }
            | TraceEvent::TxnCommit { seq, .. }
            | TraceEvent::TxnAbort { seq, .. }
            | TraceEvent::FrameRetry { seq, .. }
            | TraceEvent::OpenCommit { seq, .. }
            | TraceEvent::OpenRetry { seq, .. }
            | TraceEvent::LaneEnter { seq, .. }
            | TraceEvent::LaneExit { seq, .. }
            | TraceEvent::VarLockSpin { seq, .. }
            | TraceEvent::SemLockBlocked { seq, .. }
            | TraceEvent::SemLockAcquired { seq, .. }
            | TraceEvent::SemLockReleased { seq, .. }
            | TraceEvent::DoomEdge { seq, .. }
            | TraceEvent::OpenFlattened { seq, .. }
            | TraceEvent::LockCacheHit { seq, .. }
            | TraceEvent::SnapshotTxn { seq, .. }
            | TraceEvent::SnapshotFallback { seq, .. } => *seq,
        }
    }

    /// The `"kind"` tag of the JSON export.
    pub fn name(&self) -> &'static str {
        match self {
            TraceEvent::TxnBegin { .. } => "txn_begin",
            TraceEvent::TxnCommit { .. } => "txn_commit",
            TraceEvent::TxnAbort { .. } => "txn_abort",
            TraceEvent::FrameRetry { .. } => "frame_retry",
            TraceEvent::OpenCommit { .. } => "open_commit",
            TraceEvent::OpenRetry { .. } => "open_retry",
            TraceEvent::LaneEnter { .. } => "lane_enter",
            TraceEvent::LaneExit { .. } => "lane_exit",
            TraceEvent::VarLockSpin { .. } => "var_lock_spin",
            TraceEvent::SemLockBlocked { .. } => "sem_lock_blocked",
            TraceEvent::SemLockAcquired { .. } => "sem_lock_acquired",
            TraceEvent::SemLockReleased { .. } => "sem_lock_released",
            TraceEvent::DoomEdge { .. } => "doom_edge",
            TraceEvent::OpenFlattened { .. } => "open_flattened",
            TraceEvent::LockCacheHit { .. } => "lock_cache_hit",
            TraceEvent::SnapshotTxn { .. } => "snapshot_txn",
            TraceEvent::SnapshotFallback { .. } => "snapshot_fallback",
        }
    }

    fn decode(w: [u64; WORDS]) -> Option<TraceEvent> {
        let kind = (w[0] & 0xff) as u8;
        let class = Sym(((w[0] >> 8) & 0xffff) as u16);
        let aux = ((w[0] >> 24) & 0xff) as u8;
        let aux2 = ((w[0] >> 32) & 0xff) as u8;
        let flags = ((w[0] >> 40) & 0xff) as u8;
        let (seq, txn, b, ts) = (w[1], w[2], w[3], w[4]);
        let lock = LockKind::from_u8(aux);
        Some(match kind {
            K_TXN_BEGIN => TraceEvent::TxnBegin { seq, txn, ts },
            K_TXN_COMMIT => TraceEvent::TxnCommit { seq, txn, ts },
            K_TXN_ABORT => TraceEvent::TxnAbort {
                seq,
                txn,
                cause: match aux {
                    1 => AbortCause::Doomed,
                    2 => AbortCause::Explicit,
                    _ => AbortCause::ReadInvalid,
                },
                culprit: b,
                ts,
            },
            K_FRAME_RETRY => TraceEvent::FrameRetry { seq, txn, ts },
            K_OPEN_COMMIT => TraceEvent::OpenCommit { seq, txn, ts },
            K_OPEN_RETRY => TraceEvent::OpenRetry { seq, txn, ts },
            K_LANE_ENTER => TraceEvent::LaneEnter { seq, txn, ts },
            K_LANE_EXIT => TraceEvent::LaneExit { seq, txn, ts },
            K_VAR_LOCK_SPIN => TraceEvent::VarLockSpin { seq, var: txn, ts },
            K_SEM_BLOCKED => TraceEvent::SemLockBlocked {
                seq,
                class,
                stripe: txn,
                ts,
            },
            K_SEM_ACQUIRED => TraceEvent::SemLockAcquired {
                seq,
                txn,
                class,
                kind: lock,
                key_hash: b,
                ts,
            },
            K_SEM_RELEASED => TraceEvent::SemLockReleased {
                seq,
                txn,
                class,
                kind: lock,
                count: b,
                ts,
            },
            K_DOOM_EDGE => TraceEvent::DoomEdge {
                seq,
                doomer: txn,
                victim: b,
                class,
                kind: lock,
                key_hash: ts,
                obs: aux2 >> 4,
                effect: aux2 & 0x0f,
                compatible: flags & 1 != 0,
            },
            K_OPEN_FLAT => TraceEvent::OpenFlattened { seq, txn, ts },
            K_CACHE_HIT => TraceEvent::LockCacheHit {
                seq,
                txn,
                class,
                kind: lock,
                key_hash: b,
                ts,
            },
            K_SNAPSHOT_TXN => TraceEvent::SnapshotTxn {
                seq,
                txn,
                reads: b,
                ts,
            },
            K_SNAPSHOT_FALLBACK => TraceEvent::SnapshotFallback { seq, txn, ts },
            _ => return None,
        })
    }
}

/// A point-in-time copy of every thread's ring, decoded and ordered by
/// global sequence number.
#[derive(Debug, Clone, Default)]
pub struct TraceSnapshot {
    /// Decoded events, ascending `seq`.
    pub events: Vec<TraceEvent>,
    /// Records lost to ring overflow (drop-oldest) since the outermost
    /// enable.
    pub dropped: u64,
}

/// Collect and decode the current contents of every thread's ring. Safe to
/// call while recording is live (torn slots are detected and skipped), but
/// meant to be called after the traced workload quiesces.
pub fn snapshot() -> TraceSnapshot {
    let lives: Vec<&'static Live> = REGISTRY
        .lock()
        .all
        .iter()
        .filter_map(|s| s.live.get())
        .collect();
    let mut events = Vec::new();
    let mut dropped = 0;
    for live in lives {
        let head = live.head.load(Acquire);
        let lo = head.saturating_sub(RING_SLOTS as u64);
        dropped += lo;
        events.extend((lo..head).filter_map(|i| live.read(i).and_then(TraceEvent::decode)));
    }
    events.sort_by_key(|e| e.seq());
    TraceSnapshot { events, dropped }
}

impl TraceSnapshot {
    /// Export as JSON: `{"version":1,"dropped":N,"events":[...]}`. Each
    /// event object carries a `"kind"` tag plus its fields; symbols and
    /// mode codes are resolved to names. Hand-rolled (no serde — the
    /// exporter runs outside transactions, so allocation is fine here).
    pub fn to_json(&self) -> String {
        use std::fmt::Write;
        let mut s = String::with_capacity(64 + self.events.len() * 96);
        let _ = write!(
            s,
            "{{\"version\":1,\"dropped\":{},\"events\":[",
            self.dropped
        );
        for (i, e) in self.events.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(s, "{{\"kind\":\"{}\",\"seq\":{}", e.name(), e.seq());
            let _ = match e {
                TraceEvent::TxnBegin { txn, ts, .. }
                | TraceEvent::TxnCommit { txn, ts, .. }
                | TraceEvent::FrameRetry { txn, ts, .. }
                | TraceEvent::OpenCommit { txn, ts, .. }
                | TraceEvent::OpenRetry { txn, ts, .. }
                | TraceEvent::LaneEnter { txn, ts, .. }
                | TraceEvent::LaneExit { txn, ts, .. }
                | TraceEvent::OpenFlattened { txn, ts, .. }
                | TraceEvent::SnapshotFallback { txn, ts, .. } => {
                    write!(s, ",\"txn\":{txn},\"ts\":{ts}}}")
                }
                TraceEvent::TxnAbort {
                    txn,
                    cause,
                    culprit,
                    ts,
                    ..
                } => write!(
                    s,
                    ",\"txn\":{txn},\"cause\":\"{}\",\"culprit\":{culprit},\"ts\":{ts}}}",
                    cause_name(*cause)
                ),
                TraceEvent::VarLockSpin { var, ts, .. } => {
                    write!(s, ",\"var\":{var},\"ts\":{ts}}}")
                }
                TraceEvent::SemLockBlocked {
                    class, stripe, ts, ..
                } => write!(
                    s,
                    ",\"class\":\"{}\",\"stripe\":{stripe},\"ts\":{ts}}}",
                    class.name()
                ),
                TraceEvent::SemLockAcquired {
                    txn,
                    class,
                    kind,
                    key_hash,
                    ts,
                    ..
                }
                | TraceEvent::LockCacheHit {
                    txn,
                    class,
                    kind,
                    key_hash,
                    ts,
                    ..
                } => write!(
                    s,
                    ",\"txn\":{txn},\"class\":\"{}\",\"lock\":\"{}\",\"key_hash\":{key_hash},\"ts\":{ts}}}",
                    class.name(),
                    kind.name()
                ),
                TraceEvent::SemLockReleased {
                    txn,
                    class,
                    kind,
                    count,
                    ts,
                    ..
                } => write!(
                    s,
                    ",\"txn\":{txn},\"class\":\"{}\",\"lock\":\"{}\",\"count\":{count},\"ts\":{ts}}}",
                    class.name(),
                    kind.name()
                ),
                TraceEvent::DoomEdge {
                    doomer,
                    victim,
                    class,
                    kind,
                    key_hash,
                    obs,
                    effect,
                    compatible,
                    ..
                } => write!(
                    s,
                    ",\"doomer\":{doomer},\"victim\":{victim},\"class\":\"{}\",\"lock\":\"{}\",\"key_hash\":{key_hash},\"obs\":\"{}\",\"effect\":\"{}\",\"compatible\":{compatible}}}",
                    class.name(),
                    kind.name(),
                    obs_name(*obs),
                    effect_name(*effect)
                ),
                TraceEvent::SnapshotTxn { txn, reads, ts, .. } => {
                    write!(s, ",\"txn\":{txn},\"reads\":{reads},\"ts\":{ts}}}")
                }
            };
        }
        s.push_str("]}");
        s
    }
}

// ----------------------------------------------------------------------
// Merged histograms
// ----------------------------------------------------------------------

/// A merged (or windowed) log2 histogram: bucket *b* counts samples `v`
/// with `floor(log2(max(v,1))) == b`, i.e. `v` in `[2^b, 2^(b+1))`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Histogram {
    /// Per-bucket sample counts.
    pub buckets: [u64; 64],
    /// Exact sum of all recorded values.
    pub sum: u64,
    /// Largest recorded value **since enable** (maxima are not windowable;
    /// a diffed window carries the later snapshot's cumulative max).
    pub max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: [0; 64],
            sum: 0,
            max: 0,
        }
    }
}

/// Inclusive upper bound of log2 bucket `b` (the Prometheus `le` value).
pub fn bucket_upper(b: usize) -> u64 {
    if b >= 63 {
        u64::MAX
    } else {
        (1u64 << (b + 1)) - 1
    }
}

impl Histogram {
    /// Total number of recorded samples.
    pub fn count(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// The value at quantile `q` in `[0, 1]`, resolved to the inclusive
    /// upper bound of the bucket containing the target rank (log2
    /// resolution: at most 2x above the true sample). Zero when empty.
    pub fn percentile(&self, q: f64) -> u64 {
        let count = self.count();
        if count == 0 {
            return 0;
        }
        let target = ((q * count as f64).ceil() as u64).clamp(1, count);
        let mut acc = 0u64;
        for (b, &n) in self.buckets.iter().enumerate() {
            acc += n;
            if acc >= target {
                return bucket_upper(b);
            }
        }
        bucket_upper(63)
    }

    /// Median ([`Histogram::percentile`] at 0.50).
    pub fn p50(&self) -> u64 {
        self.percentile(0.50)
    }

    /// 90th percentile.
    pub fn p90(&self) -> u64 {
        self.percentile(0.90)
    }

    /// 99th percentile.
    pub fn p99(&self) -> u64 {
        self.percentile(0.99)
    }

    /// Merge another histogram into this one (bucket-wise add; max of
    /// maxes). Shard merging and cross-backend aggregation both use this.
    pub fn merge(&mut self, other: &Histogram) {
        for (b, n) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *b += n;
        }
        self.sum += other.sum;
        self.max = self.max.max(other.max);
    }

    /// Bucket-wise saturating difference (`self - earlier`); `max` stays
    /// the later (cumulative) max.
    #[must_use]
    pub fn diff(&self, earlier: &Histogram) -> Histogram {
        let mut out = *self;
        for (b, e) in out.buckets.iter_mut().zip(earlier.buckets.iter()) {
            *b = b.saturating_sub(*e);
        }
        out.sum = self.sum.saturating_sub(earlier.sum);
        out
    }
}

// ----------------------------------------------------------------------
// Windows
// ----------------------------------------------------------------------

/// A point-in-time merge of every thread's shard: the slab counters,
/// histograms and always-on counters, all counted since the outermost
/// enable.
/// Obtain with [`window`]; subtract two with [`MetricsWindow::diff`] to get
/// per-interval rates.
#[derive(Debug, Clone)]
pub struct MetricsWindow {
    stats: StatsSnapshot,
    counters: BTreeMap<u64, u64>,
    hists: [Histogram; HIST_KINDS],
    dropped: u64,
    taken: Option<Instant>,
    wall_ns: u64,
}

/// Merge every registered shard into a [`MetricsWindow`]. Concurrent
/// recording makes this a consistent-enough snapshot (each counter is read
/// once, monotone).
pub fn window() -> MetricsWindow {
    let mut counters: BTreeMap<u64, u64> = BTreeMap::new();
    let mut hists: [Histogram; HIST_KINDS] = Default::default();
    let reg = REGISTRY.lock();
    for live in reg.all.iter().filter_map(|s| s.live.get()) {
        for slot in live.slab.iter() {
            let (key, count) = (slot.key.load(Relaxed), slot.count.load(Relaxed));
            if key != 0 && count > 0 {
                *counters.entry(key).or_insert(0) += count;
            }
        }
        for (h, shard) in hists.iter_mut().zip(&live.hists) {
            h.merge(&shard.load());
        }
    }
    let baseline = StatsSnapshot::from_counts(&reg.baseline);
    MetricsWindow {
        stats: StatsSnapshot::from_counts(&reg.sum()).diff(&baseline),
        counters,
        hists,
        dropped: SLAB_DROPPED.load(Relaxed),
        taken: Some(Instant::now()),
        wall_ns: 0,
    }
}

impl MetricsWindow {
    /// Dimensional difference (`self - earlier`), saturating per key, with
    /// the elapsed wall time between the two snapshots recorded so callers
    /// can turn counts into rates.
    #[must_use]
    pub fn diff(&self, earlier: &MetricsWindow) -> MetricsWindow {
        let counters = self
            .counters
            .iter()
            .map(|(&key, &n)| {
                (
                    key,
                    n.saturating_sub(earlier.counters.get(&key).copied().unwrap_or(0)),
                )
            })
            .filter(|&(_, n)| n > 0)
            .collect();
        let wall_ns = match (self.taken, earlier.taken) {
            (Some(a), Some(b)) => a.saturating_duration_since(b).as_nanos() as u64,
            _ => 0,
        };
        MetricsWindow {
            stats: self.stats.diff(&earlier.stats),
            counters,
            hists: std::array::from_fn(|i| self.hists[i].diff(&earlier.hists[i])),
            dropped: self.dropped.saturating_sub(earlier.dropped),
            taken: self.taken,
            wall_ns,
        }
    }

    /// Wall time this window spans: nonzero only for [`MetricsWindow::diff`]
    /// results (a raw snapshot has no interval).
    pub fn wall_ns(&self) -> u64 {
        self.wall_ns
    }

    /// Slab increments lost to a full slab within this window.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// The count at one dimensional key. Counter-backed kinds exist only at
    /// `(Sym::UNKNOWN, STRIPE_NONE)`.
    pub fn counter(&self, class: Sym, stripe: u16, kind: MetricKind) -> u64 {
        match kind.stat(&self.stats) {
            Some(n) if class == Sym::UNKNOWN && stripe == STRIPE_NONE => n,
            Some(_) => 0,
            None => self
                .counters
                .get(&pack_key(class, stripe, kind))
                .copied()
                .unwrap_or(0),
        }
    }

    /// Every nonzero dimensional entry, in stable key order.
    pub fn entries(&self) -> impl Iterator<Item = (Sym, u16, MetricKind, u64)> + '_ {
        let stats = ALL_KINDS.into_iter().filter_map(|k| {
            let n = k.stat(&self.stats)?;
            (n > 0).then_some((Sym::UNKNOWN, STRIPE_NONE, k, n))
        });
        self.counters
            .iter()
            .filter_map(|(&key, &count)| unpack_key(key).map(|(c, s, k)| (c, s, k, count)))
            .chain(stats)
    }

    /// Total across all classes/stripes for one kind.
    pub fn kind_total(&self, kind: MetricKind) -> u64 {
        self.entries()
            .filter(|&(_, _, k, _)| k == kind)
            .map(|(_, _, _, n)| n)
            .sum()
    }

    /// `(class, stripe, count)` rows for one kind, hottest first.
    pub fn by_class_stripe(&self, kind: MetricKind) -> Vec<(Sym, u16, u64)> {
        let mut rows: Vec<(Sym, u16, u64)> = self
            .entries()
            .filter(|&(_, _, k, _)| k == kind)
            .map(|(c, s, _, n)| (c, s, n))
            .collect();
        rows.sort_by(|a, b| b.2.cmp(&a.2).then(a.0 .0.cmp(&b.0 .0)).then(a.1.cmp(&b.1)));
        rows
    }

    /// The merged histogram for one latency kind.
    pub fn histogram(&self, kind: HistKind) -> &Histogram {
        &self.hists[kind as usize]
    }

    /// Prometheus text exposition (version 0.0.4): one `stm_events_total`
    /// counter family carrying the `class`/`stripe`/`kind` labels, the
    /// overflow counter, and one histogram family per [`HistKind`] with
    /// cumulative `le` buckets. Scraping [`window`] snapshots (not diffs)
    /// keeps every series monotone, as the exposition format requires.
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        out.push_str(
            "# HELP stm_events_total Dimensional STM runtime events by class, stripe, and kind.\n",
        );
        out.push_str("# TYPE stm_events_total counter\n");
        for (class, stripe, kind, count) in self.entries() {
            out.push_str(&format!(
                "stm_events_total{{class=\"{}\",stripe=\"{}\",kind=\"{}\"}} {}\n",
                class.name(),
                stripe_label(stripe),
                kind.name(),
                count
            ));
        }
        out.push_str(
            "# HELP stm_metrics_dropped_total Increments lost to per-thread slab overflow.\n",
        );
        out.push_str("# TYPE stm_metrics_dropped_total counter\n");
        out.push_str(&format!("stm_metrics_dropped_total {}\n", self.dropped));
        for kind in ALL_HISTS {
            let h = self.histogram(kind);
            let name = kind.name();
            out.push_str(&format!(
                "# HELP {name} Log2-bucketed latency histogram (nanoseconds).\n"
            ));
            out.push_str(&format!("# TYPE {name} histogram\n"));
            let mut acc = 0u64;
            let top = h
                .buckets
                .iter()
                .rposition(|&n| n > 0)
                .map(|b| b + 1)
                .unwrap_or(0);
            for b in 0..top {
                acc += h.buckets[b];
                out.push_str(&format!(
                    "{name}_bucket{{le=\"{}\"}} {acc}\n",
                    bucket_upper(b)
                ));
            }
            out.push_str(&format!("{name}_bucket{{le=\"+Inf\"}} {}\n", h.count()));
            out.push_str(&format!("{name}_sum {}\n", h.sum));
            out.push_str(&format!("{name}_count {}\n", h.count()));
        }
        out
    }

    /// Hand-rolled JSON export, matching the repo's dependency-free style.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str(&format!("  \"wall_ns\": {},\n", self.wall_ns));
        out.push_str(&format!("  \"dropped\": {},\n", self.dropped));
        out.push_str("  \"counters\": [\n");
        let rows: Vec<String> = self
            .entries()
            .map(|(class, stripe, kind, count)| {
                format!(
                    "    {{\"class\": \"{}\", \"stripe\": \"{}\", \"kind\": \"{}\", \"count\": {}}}",
                    class.name(),
                    stripe_label(stripe),
                    kind.name(),
                    count
                )
            })
            .collect();
        out.push_str(&rows.join(",\n"));
        if !rows.is_empty() {
            out.push('\n');
        }
        out.push_str("  ],\n  \"histograms\": [\n");
        let hrows: Vec<String> = ALL_HISTS
            .iter()
            .map(|&kind| {
                let h = self.histogram(kind);
                let buckets: Vec<String> = h
                    .buckets
                    .iter()
                    .enumerate()
                    .filter(|&(_, &n)| n > 0)
                    .map(|(b, &n)| format!("{{\"le\": {}, \"n\": {}}}", bucket_upper(b), n))
                    .collect();
                format!(
                    "    {{\"kind\": \"{}\", \"count\": {}, \"sum\": {}, \"max\": {}, \"p50\": {}, \"p90\": {}, \"p99\": {}, \"buckets\": [{}]}}",
                    kind.name(),
                    h.count(),
                    h.sum,
                    h.max,
                    h.p50(),
                    h.p90(),
                    h.p99(),
                    buckets.join(", ")
                )
            })
            .collect();
        out.push_str(&hrows.join(",\n"));
        out.push_str("\n  ]\n}\n");
        out
    }
}

// ----------------------------------------------------------------------
// Flight recorder
// ----------------------------------------------------------------------

/// Filename sequence for flight-recorder dumps (process-wide, so repeated
/// triggers in one process never collide).
static DUMP_SEQ: AtomicU64 = AtomicU64::new(0);

/// Configuration for [`FlightRecorder::arm`].
#[derive(Debug, Clone)]
pub struct FlightRecorderConfig {
    /// Directory dumps are written into (created if absent).
    pub dir: std::path::PathBuf,
    /// Trigger: a poll window in which any `(class, stripe)` accumulates at
    /// least this many landed dooms fires a dump.
    pub doom_threshold: u64,
}

impl Default for FlightRecorderConfig {
    fn default() -> Self {
        FlightRecorderConfig {
            dir: std::env::temp_dir().join("stm-flightrec"),
            doom_threshold: 64,
        }
    }
}

/// The armed flight recorder: it keeps an [`ObsGuard`] live, so rings and
/// slabs record continuously; each [`FlightRecorder::poll`] closes a metrics
/// window, and a window in which some `(class, stripe)` crossed the doom
/// threshold dumps the trace-ring snapshot (which still holds the doom
/// edges that crossed it — drop-oldest permitting) plus the offending
/// window to disk as one JSON document.
pub struct FlightRecorder {
    cfg: FlightRecorderConfig,
    last: MetricsWindow,
    _guard: ObsGuard,
}

impl FlightRecorder {
    /// Enable recording and take the baseline window. Fails only on
    /// dump-directory creation.
    pub fn arm(cfg: FlightRecorderConfig) -> std::io::Result<FlightRecorder> {
        std::fs::create_dir_all(&cfg.dir)?;
        let guard = enable();
        Ok(FlightRecorder {
            cfg,
            last: window(),
            _guard: guard,
        })
    }

    /// Close the window since the previous poll (or arm). If any `(class,
    /// stripe)` accumulated `doom_threshold`+ landed dooms, dump and return
    /// the dump path; otherwise `None`. Call this off the hot path (a
    /// monitoring thread, the end of a soak round) — the dump itself does
    /// file I/O and allocation, by design.
    pub fn poll(&mut self) -> std::io::Result<Option<std::path::PathBuf>> {
        let now = window();
        let w = now.diff(&self.last);
        self.last = now;
        let triggers: Vec<(Sym, u16, u64)> = w
            .by_class_stripe(MetricKind::Doom)
            .into_iter()
            .filter(|&(_, _, n)| n >= self.cfg.doom_threshold)
            .collect();
        if triggers.is_empty() {
            return Ok(None);
        }
        let seq = DUMP_SEQ.fetch_add(1, Relaxed);
        let path = self.cfg.dir.join(format!("flightrec-{seq:04}.json"));
        let trows: Vec<String> = triggers
            .iter()
            .map(|&(class, stripe, dooms)| {
                format!(
                    "    {{\"class\": \"{}\", \"stripe\": \"{}\", \"dooms\": {}, \"threshold\": {}}}",
                    class.name(),
                    stripe_label(stripe),
                    dooms,
                    self.cfg.doom_threshold
                )
            })
            .collect();
        let mut file = std::fs::File::create(&path)?;
        writeln!(file, "{{")?;
        writeln!(file, "  \"triggers\": [")?;
        writeln!(file, "{}", trows.join(",\n"))?;
        writeln!(file, "  ],")?;
        writeln!(file, "  \"window\": {},", indent_block(&w.to_json(), 2))?;
        writeln!(
            file,
            "  \"trace\": {}",
            indent_block(&snapshot().to_json(), 2)
        )?;
        writeln!(file, "}}")?;
        file.sync_all()?;
        Ok(Some(path))
    }
}

/// Re-indent a JSON block for embedding (cosmetic only — the exporters emit
/// their own newlines).
fn indent_block(json: &str, by: usize) -> String {
    let pad = " ".repeat(by);
    json.trim_end()
        .lines()
        .enumerate()
        .map(|(i, l)| {
            if i == 0 {
                l.to_string()
            } else {
                format!("{pad}{l}")
            }
        })
        .collect::<Vec<_>>()
        .join("\n")
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Recording state is process-global; the tests here that enable it
    /// serialize on this lock so resets and snapshots do not interleave.
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn diff_is_fieldwise_and_saturating() {
        let earlier = StatsSnapshot {
            commits: 10,
            aborts_doomed: 2,
            dooms_issued: 3,
            ..StatsSnapshot::default()
        };
        let later = StatsSnapshot {
            commits: 15,
            aborts_doomed: 6,
            dooms_issued: 1, // went backwards: saturates to 0
            ..StatsSnapshot::default()
        };
        let d = later.diff(&earlier);
        assert_eq!(d.commits, 5);
        assert_eq!(d.aborts_doomed, 4);
        assert_eq!(d.dooms_absorbed(), 4);
        assert_eq!(d.dooms_issued, 0);
    }

    #[test]
    fn disabled_emission_is_inert() {
        let _g = TEST_LOCK.lock();
        assert!(!enabled());
        txn_begin(12345);
        doom_edge(1, 2, Sym::UNKNOWN, LockKind::Key, 0, 3, 0, 0, false);
        hist_record_ns(HistKind::CommitLatency, 100);
        assert!(timer().is_none());
        assert!(!snapshot()
            .events
            .iter()
            .any(|e| matches!(e, TraceEvent::TxnBegin { txn: 12345, .. })));
        // A fresh enable resets, so the window right after is empty.
        let _guard = enable();
        let w = window();
        assert_eq!(w.kind_total(MetricKind::Doom), 0);
        assert_eq!(w.histogram(HistKind::CommitLatency).count(), 0);
    }

    #[test]
    fn roundtrip_all_event_kinds() {
        let _g = TEST_LOCK.lock();
        let guard = enable();
        let sym = intern("probe-class");
        txn_begin(1);
        txn_commit(1, false, None);
        txn_abort(2, AbortCause::Doomed, 1);
        frame_retry(3);
        open_commit(3);
        open_retry(3);
        lane_enter(1);
        lane_exit(1);
        var_lock_spin(77);
        let _ = sem_lock_blocked(sym, u64::MAX);
        sem_lock_acquired(4, sym, LockKind::Key, 0xdead);
        sem_lock_released(4, sym, LockKind::Key, 3);
        doom_edge(1, 2, sym, LockKind::Size, 0, u64::MAX, 1, 1, false);
        let snap = snapshot();
        drop(guard);
        let find = |f: &dyn Fn(&TraceEvent) -> bool| snap.events.iter().any(f);
        assert!(find(&|e| matches!(e, TraceEvent::TxnBegin { txn: 1, .. })));
        assert!(find(&|e| matches!(
            e,
            TraceEvent::TxnAbort {
                txn: 2,
                cause: AbortCause::Doomed,
                culprit: 1,
                ..
            }
        )));
        assert!(find(&|e| matches!(
            e,
            TraceEvent::SemLockAcquired {
                txn: 4,
                kind: LockKind::Key,
                key_hash: 0xdead,
                ..
            }
        )));
        assert!(find(&|e| matches!(
            e,
            TraceEvent::DoomEdge {
                doomer: 1,
                victim: 2,
                kind: LockKind::Size,
                obs: 1,
                effect: 1,
                compatible: false,
                ..
            }
        )));
        // seq is strictly increasing in the snapshot.
        let seqs: Vec<u64> = snap.events.iter().map(|e| e.seq()).collect();
        let mut sorted = seqs.clone();
        sorted.sort_unstable();
        assert_eq!(seqs, sorted);
        // JSON export mentions the interned class name and the mode pair.
        let json = snap.to_json();
        assert!(json.contains("\"class\":\"probe-class\""));
        assert!(json.contains("\"obs\":\"Size\""));
        assert!(json.contains("\"effect\":\"SizeChange\""));
        assert!(json.starts_with("{\"version\":1,"));
    }

    #[test]
    fn ring_overflow_drops_oldest_and_counts() {
        let _g = TEST_LOCK.lock();
        let guard = enable();
        const BASE: u64 = 7_000_000;
        const N: u64 = RING_SLOTS as u64 + 24;
        std::thread::spawn(|| (0..N).for_each(|i| txn_begin(BASE + i)))
            .join()
            .unwrap();
        let snap = snapshot();
        drop(guard);
        let mine: Vec<u64> = snap
            .events
            .iter()
            .filter_map(|e| match e {
                TraceEvent::TxnBegin { txn, .. } if (BASE..BASE + N).contains(txn) => {
                    Some(*txn - BASE)
                }
                _ => None,
            })
            .collect();
        // Oldest dropped: only the final RING_SLOTS events survive.
        assert_eq!(mine, (24..N).collect::<Vec<u64>>());
        assert!(snap.dropped >= 24);
    }

    #[test]
    fn interning_is_stable_and_reversible() {
        let a = intern("alpha-table");
        let b = intern("beta-table");
        assert_ne!(a, b);
        assert_eq!(intern("alpha-table"), a);
        assert_eq!(a.name(), "alpha-table");
        assert_eq!(Sym::UNKNOWN.name(), "?");
    }

    #[test]
    fn key_packing_roundtrips() {
        for &stripe in &[0u16, 5, STRIPE_MAX, STRIPE_NONE, STRIPE_GLOBAL] {
            for kind in ALL_KINDS {
                let key = pack_key(Sym(7), stripe, kind);
                assert_ne!(key, 0);
                assert_eq!(unpack_key(key), Some((Sym(7), stripe, kind)));
            }
        }
        assert_eq!(stripe_dim(u64::MAX), STRIPE_GLOBAL);
        assert_eq!(stripe_dim(3), 3);
        assert_eq!(stripe_dim(1 << 40), STRIPE_MAX);
    }

    #[test]
    fn slab_overflow_is_counted_not_silent() {
        let _g = TEST_LOCK.lock();
        let _guard = enable();
        // SLAB_SLOTS slots cannot hold twice as many distinct doom keys.
        let keys = 2 * SLAB_SLOTS as u64;
        for stripe in 0..keys {
            doom_edge(0, 0, Sym(9), LockKind::Key, 0, stripe, 0, 0, false);
        }
        let w = window();
        let seen = w.kind_total(MetricKind::Doom);
        assert_eq!(seen + w.dropped(), keys, "overflow must be counted");
        assert!(w.dropped() > 0, "{keys} keys cannot fit {SLAB_SLOTS} slots");
    }

    #[test]
    fn histogram_percentiles_are_bucket_upper_bounds() {
        let mut h = Histogram::default();
        // 1..=1000 ns, one sample each: p50 ranks at value 500 (bucket
        // [256,511]), p99 at 990 (bucket [512,1023]).
        for v in 1..=1000u64 {
            let b = 63 - v.leading_zeros() as usize;
            h.buckets[b] += 1;
            h.sum += v;
            h.max = h.max.max(v);
        }
        assert_eq!(h.count(), 1000);
        assert_eq!(h.p50(), 511);
        assert_eq!(h.p90(), 1023);
        assert_eq!(h.p99(), 1023);
        assert_eq!(h.percentile(1.0), 1023);
        assert_eq!(h.max, 1000);
        assert_eq!(Histogram::default().p50(), 0);
    }

    #[test]
    fn window_diff_saturates_and_carries_wall() {
        let _g = TEST_LOCK.lock();
        let _guard = enable();
        let before = window();
        doom_edge(0, 0, Sym(3), LockKind::Key, 0, 1, 0, 0, false);
        doom_edge(0, 0, Sym(3), LockKind::Key, 0, 1, 0, 0, false);
        hist_record_ns(HistKind::SemLockWait, 700);
        let after = window();
        let w = after.diff(&before);
        assert_eq!(w.counter(Sym(3), 1, MetricKind::Doom), 2);
        assert_eq!(w.histogram(HistKind::SemLockWait).count(), 1);
        assert_eq!(w.histogram(HistKind::SemLockWait).sum, 700);
        // Backwards diff saturates to empty rather than fabricating.
        let back = before.diff(&after);
        assert_eq!(back.counter(Sym(3), 1, MetricKind::Doom), 0);
        assert_eq!(back.histogram(HistKind::SemLockWait).count(), 0);
    }

    #[test]
    fn counter_kinds_read_the_always_on_counters() {
        let _g = TEST_LOCK.lock();
        let _guard = enable();
        let before = window();
        std::thread::spawn(|| {
            txn_commit(1, true, None);
            txn_abort(2, AbortCause::Explicit, 0);
        })
        .join()
        .unwrap();
        let w = window().diff(&before);
        // Other tests in this binary commit concurrently: at least ours.
        assert!(w.kind_total(MetricKind::Commit) >= 1);
        assert!(w.counter(Sym::UNKNOWN, STRIPE_NONE, MetricKind::AbortExplicit) >= 1);
        assert_eq!(w.counter(Sym(3), STRIPE_NONE, MetricKind::Commit), 0);
    }

    #[test]
    fn counter_kinds_count_from_the_outermost_enable() {
        let _g = TEST_LOCK.lock();
        for id in 0..50 {
            txn_commit(id, true, None);
        }
        let _guard = enable();
        // The 50 commits above predate the enable, so no window shows them.
        let w = window();
        assert!(w.kind_total(MetricKind::Commit) + 50 <= global_stats().commits);
    }

    #[test]
    fn prometheus_exposition_shape() {
        let _g = TEST_LOCK.lock();
        let _guard = enable();
        doom_edge(0, 0, Sym::UNKNOWN, LockKind::Size, 0, u64::MAX, 1, 1, false);
        hist_record_ns(HistKind::CommitLatency, 300);
        let text = window().to_prometheus();
        assert!(text.contains("# TYPE stm_events_total counter"));
        assert!(text.contains("stm_events_total{class=\"?\",stripe=\"global\",kind=\"doom\"} 1"));
        assert!(text.contains("# TYPE stm_commit_latency_ns histogram"));
        assert!(text.contains("stm_commit_latency_ns_bucket{le=\"+Inf\"} 1"));
        assert!(text.contains("stm_commit_latency_ns_sum 300"));
        assert!(text.contains("stm_commit_latency_ns_count 1"));
        let json = window().to_json();
        assert!(json.contains("\"kind\": \"doom\""));
        assert!(json.contains("\"p99\""));
    }
}
