//! Structured cycle-level observability for the Free Atomics substrate.
//!
//! Cooperating pieces, all deterministic:
//!
//! * [`TraceEvent`] + [`TraceBuf`] — a compact structured event API.
//!   Components (cores, private caches, directory, NoC) record events
//!   into bounded per-component ring buffers with `(cycle, seq)`
//!   ordering. Recording is zero-cost when the mode is [`TraceMode::Off`]
//!   (a single enum compare; no allocation, no clock reads, and — by
//!   construction — no effect on simulated state in any mode).
//! * [`Hist`] — log-bucketed latency histograms with *fixed* bucket
//!   edges (powers of two), so histograms collected on different sweep
//!   workers merge element-wise into bit-identical totals regardless of
//!   merge order or thread count.
//! * [`chrome_trace`] — a Chrome-trace/Perfetto JSON exporter so a full
//!   run can be opened in `ui.perfetto.dev`, plus [`flight_json`] for
//!   dumping a crash flight-recorder tail.
//! * [`Json`] — the one JSON value, writer and reader every row, report,
//!   journal and trace of the simulator goes through.
//! * [`counters!`] — the stats registry: each counter block declared once,
//!   its merge, JSON writer and JSON reader ([`Counter`]) derived.
//!
//! The crate sits just above `fa-isa` (for the [`MemOrder`] annotations on
//! data events) and below everything else: no simulator types, only plain
//! integers, so both `fa-core` and `fa-mem` can depend on it without
//! layering cycles.

#![cfg_attr(not(test), deny(clippy::unwrap_used))]

mod json;
pub mod registry;

pub use fa_isa::MemOrder;
pub use json::Json;
pub use registry::Counter;
use std::collections::VecDeque;
use std::fmt;

/// How much event recording the simulator performs.
///
/// Latency histograms are *not* governed by this switch: they are plain
/// passive counters, always collected, and therefore identical whatever
/// the mode — the determinism tests pin that.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum TraceMode {
    /// No events recorded (default). `TraceBuf::record` returns after one
    /// enum compare.
    #[default]
    Off,
    /// Flight-recorder mode: each component keeps only the last
    /// `FLIGHT_RING` (128) events, drained into crash snapshots.
    Flight,
    /// Full mode: events retained (up to `FULL_CAP`, 2^20, per component) for
    /// timeline export.
    Full,
}

impl TraceMode {
    /// Lower-case name as accepted by `FA_TRACE`.
    pub fn name(self) -> &'static str {
        match self {
            TraceMode::Off => "off",
            TraceMode::Flight => "flight",
            TraceMode::Full => "full",
        }
    }

    /// Parses an `FA_TRACE` mode word.
    pub fn parse(v: &str) -> Option<TraceMode> {
        match v.trim() {
            "off" => Some(TraceMode::Off),
            "flight" => Some(TraceMode::Flight),
            "full" => Some(TraceMode::Full),
            _ => None,
        }
    }
}

/// Parses a full `FA_TRACE` setting: `off`, `flight`, or `full[:path]`.
///
/// # Errors
///
/// Returns a human-readable message on malformed values, for the loud
/// `sim::env` error path.
pub fn parse_trace_setting(v: &str) -> Result<(TraceMode, Option<String>), String> {
    let v = v.trim();
    let (word, path) = match v.split_once(':') {
        Some((w, p)) => (w, Some(p.to_string())),
        None => (v, None),
    };
    match (TraceMode::parse(word), &path) {
        (Some(m @ TraceMode::Full), _) => Ok((m, path)),
        (Some(m), None) => Ok((m, None)),
        (Some(m), Some(_)) => {
            Err(format!("a path is only meaningful with `full`, got {:?}", m.name()))
        }
        (None, _) => Err(format!("mode must be off|flight|full[:path], got {word:?}")),
    }
}

/// Flight-recorder ring capacity per component.
const FLIGHT_RING: usize = 128;

/// Retention cap per component in [`TraceMode::Full`]; the oldest events
/// are dropped (and counted) beyond this.
const FULL_CAP: usize = 1 << 20;

/// Per-component trace configuration. Lives inside `MemConfig`/`CoreConfig`
/// so the mode is plumbed by configuration, never read from the environment
/// inside the simulator.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TraceConfig {
    /// Recording mode.
    pub mode: TraceMode,
}

impl TraceConfig {
    /// A config with the given mode.
    pub fn with_mode(mode: TraceMode) -> TraceConfig {
        TraceConfig { mode }
    }
}

/// How much consistency checking the simulator performs (`FA_CHECK`).
///
/// Like tracing, the collection is strictly passive: with the checker on,
/// cores and the memory system append data events to side logs that the
/// axiomatic checker consumes after quiescence; no simulated state ever
/// reads them, so results are bit-identical in every mode.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum CheckMode {
    /// No data events collected, no end-of-run validation (default).
    #[default]
    Off,
    /// Collect per-access data events and validate the full execution
    /// against the x86-TSO + RMW-atomicity axioms at quiescence.
    Tso,
}

impl CheckMode {
    /// True when data-event collection and end-of-run checking are enabled.
    pub fn on(self) -> bool {
        self != CheckMode::Off
    }

    /// Lower-case name as accepted by `FA_CHECK`.
    pub fn name(self) -> &'static str {
        match self {
            CheckMode::Off => "off",
            CheckMode::Tso => "tso",
        }
    }

    /// Parses an `FA_CHECK` mode word.
    pub fn parse(v: &str) -> Option<CheckMode> {
        match v.trim() {
            "off" => Some(CheckMode::Off),
            "tso" => Some(CheckMode::Tso),
            _ => None,
        }
    }
}

/// Parses a full `FA_CHECK` setting: `off` or `tso`.
///
/// # Errors
///
/// Returns a human-readable message on malformed values, for the loud
/// `sim::env` error path.
pub fn parse_check_setting(v: &str) -> Result<CheckMode, String> {
    CheckMode::parse(v).ok_or_else(|| format!("mode must be off|tso, got {:?}", v.trim()))
}

/// Which memory consistency model the cores implement (`FA_MODEL`).
///
/// Under [`MemModel::Tso`] (the default) every access has TSO strength and
/// [`fa_isa::MemOrder`] annotations are semantically inert, so results are
/// bit-identical to builds that predate the annotations. Under
/// [`MemModel::Weak`] the frontend honours the annotations: relaxed loads
/// may reorder with older non-acquire loads, non-SC fences do not drain the
/// store buffer, and SC stores block younger loads until they drain. The
/// axiomatic checker and the litmus enumerator are parameterized by the
/// same value.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum MemModel {
    /// x86-TSO: total store order, annotations inert.
    #[default]
    Tso,
    /// ARM-like weak model: annotations select the ordering. The store
    /// buffer stays FIFO (W→W and R→W are always preserved); the model
    /// relaxes R→R for non-acquire loads and keeps the TSO W→R store-buffer
    /// relaxation unless an SC fence or SC store intervenes.
    Weak,
}

impl MemModel {
    /// Lower-case name as accepted by `FA_MODEL`.
    pub fn name(self) -> &'static str {
        match self {
            MemModel::Tso => "tso",
            MemModel::Weak => "weak",
        }
    }

    /// Parses an `FA_MODEL` word.
    pub fn parse(v: &str) -> Option<MemModel> {
        match v.trim() {
            "tso" => Some(MemModel::Tso),
            "weak" => Some(MemModel::Weak),
            _ => None,
        }
    }
}

/// Parses a full `FA_MODEL` setting: `tso` or `weak`.
///
/// # Errors
///
/// Returns a human-readable message on malformed values, for the loud
/// `sim::env` error path.
pub fn parse_model_setting(v: &str) -> Result<MemModel, String> {
    MemModel::parse(v).ok_or_else(|| format!("model must be tso|weak, got {:?}", v.trim()))
}

/// The write-id of initial memory (no store has written the word yet).
pub const WRITE_ID_INIT: u64 = 0;

/// Bits of a write-id reserved for the originating core's µop sequence
/// number. 48 bits of seq + 16 bits of core cover any realistic run.
const WRITE_ID_SEQ_BITS: u32 = 48;

/// Globally unique id of a committed store: `(core, µop seq)` packed into
/// one integer, with [`WRITE_ID_INIT`] = 0 reserved for initial memory
/// (the core field is stored off-by-one so core 0 is distinguishable).
pub fn write_id(core: u16, seq: u64) -> u64 {
    debug_assert!(seq < (1u64 << WRITE_ID_SEQ_BITS), "µop seq overflows the write-id");
    ((core as u64 + 1) << WRITE_ID_SEQ_BITS) | seq
}

/// Decodes a [`write_id`] back into `(core, seq)`; `None` for
/// [`WRITE_ID_INIT`].
pub fn write_id_parts(id: u64) -> Option<(u16, u64)> {
    let core = id >> WRITE_ID_SEQ_BITS;
    (core != 0).then(|| ((core - 1) as u16, id & ((1u64 << WRITE_ID_SEQ_BITS) - 1)))
}

/// One committed data access, logged by a core's commit path in program
/// order when [`CheckMode`] is on. The axiomatic checker reconstructs
/// `po` from the per-core event order, `rf` from the `writer` fields, and
/// `fr` from `rf` composed with the serialization order ([`SerEvent`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DataEvent {
    /// A committed plain load.
    Load {
        /// µop sequence number (per-core, strictly increasing).
        seq: u64,
        /// Byte address read.
        addr: u64,
        /// Value the load bound.
        value: u64,
        /// [`write_id`] of the store the value came from
        /// ([`WRITE_ID_INIT`] = initial memory).
        writer: u64,
        /// Ordering annotation (inert under [`MemModel::Tso`]).
        ord: MemOrder,
    },
    /// A committed `load_lock` (the read half of an atomic RMW).
    LoadLock {
        /// µop sequence number.
        seq: u64,
        /// Byte address read.
        addr: u64,
        /// Value the load bound.
        value: u64,
        /// [`write_id`] of the providing store.
        writer: u64,
    },
    /// A committed plain store (logged at commit; it performs later, at
    /// store-buffer drain, where the matching [`SerEvent`] is logged).
    Store {
        /// µop sequence number — `write_id(core, seq)` names this write.
        seq: u64,
        /// Byte address written.
        addr: u64,
        /// Value written.
        value: u64,
        /// Ordering annotation (inert under [`MemModel::Tso`]).
        ord: MemOrder,
    },
    /// A committed `store_unlock` (the write half of an atomic RMW; its
    /// `load_lock` is the entry with seq `seq - 2`).
    StoreUnlock {
        /// µop sequence number.
        seq: u64,
        /// Byte address written.
        addr: u64,
        /// Value written.
        value: u64,
    },
    /// A committed fence that was actually *enforced* (omitted atomic
    /// fences under the free policies are not logged — the RMW events
    /// themselves carry the ordering obligation).
    Fence {
        /// µop sequence number.
        seq: u64,
        /// Ordering annotation: `SeqCst` for `MFENCE` and the enforced
        /// atomic fences; weaker values only arise from annotated
        /// standalone fences.
        ord: MemOrder,
    },
}

impl DataEvent {
    /// The µop sequence number.
    pub fn seq(&self) -> u64 {
        match *self {
            DataEvent::Load { seq, .. }
            | DataEvent::LoadLock { seq, .. }
            | DataEvent::Store { seq, .. }
            | DataEvent::StoreUnlock { seq, .. }
            | DataEvent::Fence { seq, .. } => seq,
        }
    }

    /// The accessed byte address (`None` for fences).
    pub fn addr(&self) -> Option<u64> {
        match *self {
            DataEvent::Load { addr, .. }
            | DataEvent::LoadLock { addr, .. }
            | DataEvent::Store { addr, .. }
            | DataEvent::StoreUnlock { addr, .. } => Some(addr),
            DataEvent::Fence { .. } => None,
        }
    }

    /// True for the two store variants.
    pub fn is_write(&self) -> bool {
        matches!(self, DataEvent::Store { .. } | DataEvent::StoreUnlock { .. })
    }

    /// True for the two load variants.
    pub fn is_read(&self) -> bool {
        matches!(self, DataEvent::Load { .. } | DataEvent::LoadLock { .. })
    }

    /// Effective ordering strength of the event under the weak model.
    ///
    /// `LoadLock`/`StoreUnlock` are pinned to `SeqCst` (the RMW line-lock
    /// protocol); plain accesses and fences report their annotation.
    pub fn ord(&self) -> MemOrder {
        match *self {
            DataEvent::Load { ord, .. }
            | DataEvent::Store { ord, .. }
            | DataEvent::Fence { ord, .. } => ord,
            DataEvent::LoadLock { .. } | DataEvent::StoreUnlock { .. } => MemOrder::SeqCst,
        }
    }
}

/// One performed store in the memory system's global write-serialization
/// order, logged at the instant the backing store is written (the store's
/// *perform* — the single serialization point every coherence transfer
/// funnels through). The per-address subsequence of these events is the
/// coherence order `co`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SerEvent {
    /// Byte address written.
    pub addr: u64,
    /// [`write_id`] of the performing store.
    pub writer: u64,
    /// Value written.
    pub value: u64,
    /// The directory's per-line write-epoch (incremented on every
    /// exclusive grant) at perform time — must be non-decreasing along
    /// each line's serialization order.
    pub epoch: u64,
    /// The line was lock-pinned at the moment of the write (true for
    /// every `store_unlock`: the RMW's atomicity window).
    pub under_lock: bool,
}

/// Number of fixed log₂ buckets in a [`Hist`].
pub const HIST_BUCKETS: usize = 32;

/// A latency histogram with fixed power-of-two bucket edges.
///
/// Bucket 0 holds the value 0; bucket `k` (k ≥ 1) holds values in
/// `[2^(k-1), 2^k)`; the last bucket is unbounded above. Because the
/// edges are fixed at compile time, merging is element-wise addition and
/// therefore associative and commutative — sweep workers can merge in
/// any order and produce bit-identical results.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Hist {
    /// Samples recorded.
    pub count: u64,
    /// Sum of all samples (for exact means).
    pub sum: u64,
    /// Largest sample.
    pub max: u64,
    /// Log₂-bucketed counts.
    pub buckets: [u64; HIST_BUCKETS],
}

/// The bucket index for a sample.
fn bucket_of(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        ((64 - v.leading_zeros()) as usize).min(HIST_BUCKETS - 1)
    }
}

impl Hist {
    /// An empty histogram.
    pub fn new() -> Hist {
        Hist::default()
    }

    /// Records one sample.
    pub fn record(&mut self, v: u64) {
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        self.max = self.max.max(v);
        self.buckets[bucket_of(v)] += 1;
    }

    /// Element-wise merge; deterministic under any merge order. `sum`
    /// saturates, as in [`Hist::record`].
    pub fn merge(&mut self, other: &Hist) {
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.max = self.max.max(other.max);
        for (b, o) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *b += *o;
        }
    }

    /// Arithmetic mean of the samples (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

/// Number of leaves in the cycle-accounting taxonomy.
pub const CPI_LEAVES: usize = 12;

/// One leaf of the top-down cycle-accounting taxonomy: every core-cycle
/// is attributed to *exactly one* of these by the core's per-cycle
/// classifier (see `fa-core`), so the per-core leaf sums are conserved —
/// `sum(leaves) == CoreStats::cycles` exactly, jumped spans included.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CpiLeaf {
    /// At least one µop retired this cycle.
    Commit,
    /// ROB non-empty but nothing committed and no backend stall
    /// identified: the frontend/scheduler is the bottleneck.
    Issue,
    /// ROB empty: the core is starved for fetched work.
    FetchStarved,
    /// Fetch blocked because the ROB is full.
    RobFull,
    /// Fetch blocked on LSQ occupancy (or a full atomic queue).
    LsqFull,
    /// The oldest µop is a load waiting on a cache fill.
    LoadFill,
    /// Stalled draining the store buffer (baseline atomics wait for an
    /// empty SB before `load_lock` may issue or commit).
    SbDrain,
    /// A standalone fence at the ROB head waiting for the SB to drain.
    FenceDrain,
    /// The oldest µop is a `load_lock` waiting to acquire its cache-line
    /// lock (remote transfer or contention on the lock itself).
    AtomicLockWait,
    /// The oldest memory µop is stuck behind directory-entry allocation.
    DirAllocWait,
    /// The oldest memory µop is waiting while this core's interconnect
    /// links are backpressured.
    NocBackpressure,
    /// Asleep (MonitorWait), stepped or credited in a jumped span.
    Idle,
}

impl CpiLeaf {
    /// Every leaf, in stable emission order.
    pub const ALL: [CpiLeaf; CPI_LEAVES] = [
        CpiLeaf::Commit,
        CpiLeaf::Issue,
        CpiLeaf::FetchStarved,
        CpiLeaf::RobFull,
        CpiLeaf::LsqFull,
        CpiLeaf::LoadFill,
        CpiLeaf::SbDrain,
        CpiLeaf::FenceDrain,
        CpiLeaf::AtomicLockWait,
        CpiLeaf::DirAllocWait,
        CpiLeaf::NocBackpressure,
        CpiLeaf::Idle,
    ];

    /// Index into [`CpiStack::leaves`].
    pub fn index(self) -> usize {
        self as usize
    }

    /// Stable snake_case name (JSON key, report row label).
    pub fn name(self) -> &'static str {
        match self {
            CpiLeaf::Commit => "commit",
            CpiLeaf::Issue => "issue",
            CpiLeaf::FetchStarved => "fetch_starved",
            CpiLeaf::RobFull => "rob_full",
            CpiLeaf::LsqFull => "lsq_full",
            CpiLeaf::LoadFill => "load_fill",
            CpiLeaf::SbDrain => "sb_drain",
            CpiLeaf::FenceDrain => "fence_drain",
            CpiLeaf::AtomicLockWait => "atomic_lock_wait",
            CpiLeaf::DirAllocWait => "dir_alloc_wait",
            CpiLeaf::NocBackpressure => "noc_backpressure",
            CpiLeaf::Idle => "idle",
        }
    }
}

/// A CPI stack: one cycle counter per taxonomy leaf. Same merge
/// discipline as [`Hist`] — element-wise addition, associative and
/// commutative, so sweep workers can merge in any order and produce
/// bit-identical totals.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CpiStack {
    /// Cycles per leaf, indexed by [`CpiLeaf::index`].
    pub leaves: [u64; CPI_LEAVES],
}

impl CpiStack {
    /// An empty stack.
    pub fn new() -> CpiStack {
        CpiStack::default()
    }

    /// Attributes one cycle to `leaf`.
    pub fn record(&mut self, leaf: CpiLeaf) {
        self.leaves[leaf.index()] += 1;
    }

    /// Attributes `n` cycles to `leaf` (a span credited in bulk).
    pub fn add(&mut self, leaf: CpiLeaf, n: u64) {
        self.leaves[leaf.index()] += n;
    }

    /// Cycles attributed to `leaf`.
    pub fn get(&self, leaf: CpiLeaf) -> u64 {
        self.leaves[leaf.index()]
    }

    /// Element-wise merge; deterministic under any merge order.
    pub fn merge(&mut self, other: &CpiStack) {
        for (a, b) in self.leaves.iter_mut().zip(other.leaves.iter()) {
            *a += *b;
        }
    }

    /// Total attributed cycles — the conservation invariant compares this
    /// against the core's cycle count.
    pub fn total(&self) -> u64 {
        self.leaves.iter().sum()
    }
}

/// MESI state encoding for [`TraceEvent::Mesi`] (plus `MESI_NONE` for
/// not-present), kept as plain integers so this crate stays a leaf.
pub const MESI_I: u8 = 0;
/// Shared.
pub const MESI_S: u8 = 1;
/// Exclusive.
pub const MESI_E: u8 = 2;
/// Modified.
pub const MESI_M: u8 = 3;
/// Line not present (fills from / evictions to "nothing").
pub const MESI_NONE: u8 = 4;

/// Printable name for a MESI encoding.
pub fn mesi_name(s: u8) -> &'static str {
    match s {
        MESI_I => "I",
        MESI_S => "S",
        MESI_E => "E",
        MESI_M => "M",
        _ => "-",
    }
}

/// NoC message-kind encoding for [`TraceEvent::NocSend`]/[`NocDeliver`].
pub const NOC_TO_DIR: u8 = 0;
/// Directory → L1 coherence message.
pub const NOC_TO_L1: u8 = 1;
/// Data fill returning to a core.
pub const NOC_READ_DONE: u8 = 2;
/// Store-permission grant returning to a core.
pub const NOC_STORE_READY: u8 = 3;

/// Printable name for a NoC message-kind encoding.
pub fn noc_kind_name(k: u8) -> &'static str {
    match k {
        NOC_TO_DIR => "to_dir",
        NOC_TO_L1 => "to_l1",
        NOC_READ_DONE => "read_done",
        NOC_STORE_READY => "store_ready",
        _ => "?",
    }
}

/// One structured simulator event. Compact (`Copy`, integers only);
/// the component and time live in the enclosing [`TraceRecord`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TraceEvent {
    /// µop entered the ROB.
    UopDispatch {
        /// Global µop sequence number.
        seq: u64,
        /// Program counter.
        pc: u64,
    },
    /// µop left the scheduler for execution.
    UopIssue {
        /// Global µop sequence number.
        seq: u64,
        /// Program counter.
        pc: u64,
    },
    /// µop retired.
    UopCommit {
        /// Global µop sequence number.
        seq: u64,
        /// Program counter.
        pc: u64,
    },
    /// Pipeline flush from `seq` onward.
    Squash {
        /// First squashed µop.
        from_seq: u64,
        /// µops discarded.
        uops: u64,
    },
    /// `load_lock` issued to memory (`fwd` = satisfied by in-window
    /// forwarding instead of the cache); `drain` is the SB-drain wait the
    /// baseline policy paid, 0 under free atomics.
    AtomicLoadLock {
        /// µop sequence number.
        seq: u64,
        /// Byte address.
        addr: u64,
        /// SB-drain cycles paid before issue.
        drain: u64,
        /// Satisfied by store-to-load forwarding.
        fwd: bool,
    },
    /// `store_unlock` performed: the atomic's lock window closed after
    /// `exec` cycles (the paper's atomic execution latency).
    AtomicStoreUnlock {
        /// µop sequence number.
        seq: u64,
        /// Byte address.
        addr: u64,
        /// Cycles from `load_lock` issue to `store_unlock` perform.
        exec: u64,
    },
    /// Cache-line lock count rose (0→1 records the hold-window start).
    LockAcquire {
        /// Line address.
        line: u64,
        /// Nested lock count after acquisition.
        count: u32,
    },
    /// Cache-line lock count fell to 0; `held` is the hold duration.
    LockRelease {
        /// Line address.
        line: u64,
        /// Cycles the line stayed locked.
        held: u64,
    },
    /// An external coherence request parked behind a locked line.
    LockPark {
        /// Line address.
        line: u64,
    },
    /// MESI transition in a private cache ([`mesi_name`] encodings).
    Mesi {
        /// Line address.
        line: u64,
        /// State before ([`MESI_NONE`] = not present).
        from: u8,
        /// State after.
        to: u8,
    },
    /// A fill finally placed after stalling `waited` cycles with every
    /// candidate way locked.
    FillStall {
        /// Line address.
        line: u64,
        /// Cycles the fill waited.
        waited: u64,
    },
    /// Directory entry allocated.
    DirAlloc {
        /// Line address.
        line: u64,
    },
    /// Request parked behind a busy directory entry.
    DirPark {
        /// Line address.
        line: u64,
    },
    /// Starvation-rescue valve fired for this line's allocation.
    DirRescue {
        /// Line address.
        line: u64,
    },
    /// Directory entry evicted (back-invalidation begun).
    DirEvict {
        /// Line address.
        line: u64,
    },
    /// Message entered the interconnect.
    NocSend {
        /// [`noc_kind_name`] encoding.
        kind: u8,
        /// Source core (`u16::MAX` = directory).
        src: u16,
        /// Destination core (`u16::MAX` = directory).
        dst: u16,
    },
    /// Message left the interconnect; `lat` is its delivered latency.
    NocDeliver {
        /// [`noc_kind_name`] encoding.
        kind: u8,
        /// Destination core (`u16::MAX` = directory).
        dst: u16,
        /// Send-to-delivery cycles.
        lat: u64,
    },
}

impl TraceEvent {
    /// Short stable event name (Perfetto `name`, taxonomy key).
    pub fn kind(&self) -> &'static str {
        match self {
            TraceEvent::UopDispatch { .. } => "uop.dispatch",
            TraceEvent::UopIssue { .. } => "uop.issue",
            TraceEvent::UopCommit { .. } => "uop.commit",
            TraceEvent::Squash { .. } => "squash",
            TraceEvent::AtomicLoadLock { .. } => "atomic.load_lock",
            TraceEvent::AtomicStoreUnlock { .. } => "atomic.store_unlock",
            TraceEvent::LockAcquire { .. } => "lock.acquire",
            TraceEvent::LockRelease { .. } => "lock.release",
            TraceEvent::LockPark { .. } => "lock.park",
            TraceEvent::Mesi { .. } => "mesi",
            TraceEvent::FillStall { .. } => "fill.stall",
            TraceEvent::DirAlloc { .. } => "dir.alloc",
            TraceEvent::DirPark { .. } => "dir.park",
            TraceEvent::DirRescue { .. } => "dir.rescue",
            TraceEvent::DirEvict { .. } => "dir.evict",
            TraceEvent::NocSend { .. } => "noc.send",
            TraceEvent::NocDeliver { .. } => "noc.deliver",
        }
    }

    /// For events that close a time window: `(duration)`, so the exporter
    /// can draw them as Perfetto duration slices instead of instants.
    pub fn duration(&self) -> Option<u64> {
        match *self {
            TraceEvent::AtomicStoreUnlock { exec, .. } => Some(exec),
            TraceEvent::LockRelease { held, .. } => Some(held),
            TraceEvent::FillStall { waited, .. } => Some(waited),
            TraceEvent::NocDeliver { lat, .. } => Some(lat),
            _ => None,
        }
    }

    /// The event's fields in order: its Perfetto `args` members, and what
    /// `Display` prints after the kind.
    fn fields(&self) -> Vec<(&'static str, Json)> {
        match *self {
            TraceEvent::UopDispatch { seq, pc }
            | TraceEvent::UopIssue { seq, pc }
            | TraceEvent::UopCommit { seq, pc } => vec![("useq", seq.into()), ("pc", pc.into())],
            TraceEvent::Squash { from_seq, uops } => vec![("from_seq", from_seq.into()), ("uops", uops.into())],
            TraceEvent::AtomicLoadLock { seq, addr, drain, fwd } => {
                vec![("useq", seq.into()), ("addr", addr.into()), ("drain", drain.into()), ("fwd", fwd.into())]
            }
            TraceEvent::AtomicStoreUnlock { seq, addr, exec } => {
                vec![("useq", seq.into()), ("addr", addr.into()), ("exec", exec.into())]
            }
            TraceEvent::LockAcquire { line, count } => vec![("line", line.into()), ("count", count.into())],
            TraceEvent::LockRelease { line, held } => vec![("line", line.into()), ("held", held.into())],
            TraceEvent::LockPark { line }
            | TraceEvent::DirAlloc { line }
            | TraceEvent::DirPark { line }
            | TraceEvent::DirRescue { line }
            | TraceEvent::DirEvict { line } => vec![("line", line.into())],
            TraceEvent::Mesi { line, from, to } => {
                vec![("line", line.into()), ("from", mesi_name(from).into()), ("to", mesi_name(to).into())]
            }
            TraceEvent::FillStall { line, waited } => vec![("line", line.into()), ("waited", waited.into())],
            TraceEvent::NocSend { kind, src, dst } => {
                vec![("kind", noc_kind_name(kind).into()), ("src", src.into()), ("dst", dst.into())]
            }
            TraceEvent::NocDeliver { kind, dst, lat } => {
                vec![("kind", noc_kind_name(kind).into()), ("dst", dst.into()), ("lat", lat.into())]
            }
        }
    }
}

/// `kind k=v …`: lines, addresses and pcs in hex, a flag only when set.
impl fmt::Display for TraceEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.kind())?;
        for (k, v) in self.fields() {
            match (&v, v.as_u64()) {
                (_, Some(n)) if matches!(k, "line" | "addr" | "pc") => write!(f, " {k}={n:#x}")?,
                (Json::Str(s), _) => write!(f, " {k}={s}")?,
                (Json::Bool(false), _) => {}
                _ => write!(f, " {k}={v}")?,
            }
        }
        Ok(())
    }
}

/// One recorded event with its deterministic `(cycle, seq)` position.
/// `seq` is per-component and strictly increasing, so records sort
/// totally and reproducibly.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceRecord {
    /// Simulated cycle of the event.
    pub cycle: u64,
    /// Per-component record sequence number.
    pub seq: u64,
    /// The event.
    pub ev: TraceEvent,
}

/// A bounded per-component event ring. `Default` is an empty ring that
/// records nothing.
#[derive(Clone, Debug, Default)]
pub struct TraceBuf {
    mode: TraceMode,
    next_seq: u64,
    buf: VecDeque<TraceRecord>,
    dropped: u64,
}

impl TraceBuf {
    /// A buffer sized by `cfg`.
    pub fn new(cfg: &TraceConfig) -> TraceBuf {
        let mut t = TraceBuf::default();
        t.reset(cfg);
        t
    }

    /// Empties the ring and re-arms it for `cfg`, keeping its storage.
    pub fn reset(&mut self, cfg: &TraceConfig) {
        let TraceBuf { mode, next_seq, buf, dropped } = self;
        (*mode, *next_seq, *dropped) = (cfg.mode, 0, 0);
        buf.clear();
    }

    /// True when events are being recorded at all. Callers may use this
    /// to skip building expensive event payloads; the events here are
    /// plain `Copy` structs, so calling [`TraceBuf::record`] directly is
    /// also fine.
    pub fn on(&self) -> bool {
        self.mode != TraceMode::Off
    }

    /// The recording mode.
    pub fn mode(&self) -> TraceMode {
        self.mode
    }

    /// Records `ev` at `cycle`. No-op when the mode is `Off`.
    pub fn record(&mut self, cycle: u64, ev: TraceEvent) {
        let cap = match self.mode {
            TraceMode::Off => return,
            TraceMode::Flight => FLIGHT_RING,
            TraceMode::Full => FULL_CAP,
        };
        let seq = self.next_seq;
        self.next_seq += 1;
        if self.buf.len() == cap {
            self.buf.pop_front();
            self.dropped += 1;
        }
        self.buf.push_back(TraceRecord { cycle, seq, ev });
    }

    /// The last `n` retained records, oldest first; `usize::MAX` for all
    /// of them (non-destructive — crash snapshots take `&self`).
    pub fn tail(&self, n: usize) -> Vec<TraceRecord> {
        let skip = self.buf.len().saturating_sub(n);
        self.buf.iter().skip(skip).copied().collect()
    }

    /// Retained record count.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing is retained.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Records evicted from the ring since the start of the run.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }
}

/// A flight-recorder entry: one [`TraceRecord`] tagged with the
/// component it came from (`core3`, `l1c0`, `dir`, `noc`, ...).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FlightEntry {
    /// Component label.
    pub comp: String,
    /// Simulated cycle.
    pub cycle: u64,
    /// Per-component sequence number.
    pub seq: u64,
    /// The event.
    pub ev: TraceEvent,
}

impl fmt::Display for FlightEntry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cycle {:>8} [{:>6}] {}", self.cycle, self.comp, self.ev)
    }
}

/// A flight-recorder tail as a JSON array.
pub fn flight_json(entries: &[FlightEntry]) -> String {
    let entry = |e: &FlightEntry| {
        Json::obj([
            ("comp", e.comp.as_str().into()),
            ("cycle", e.cycle.into()),
            ("seq", e.seq.into()),
            ("name", e.ev.kind().into()),
            ("args", Json::obj(e.ev.fields())),
        ])
    };
    Json::arr(entries.iter().map(entry)).to_string()
}

/// Renders per-component record lists as Chrome-trace/Perfetto JSON
/// (one synthetic thread per component; duration events for closed time
/// windows, instants for everything else; `ts` is the simulated cycle), one
/// event per line.
pub fn chrome_trace(groups: &[(String, Vec<TraceRecord>)]) -> String {
    // Every record is `{"name":…,<phase fields>,"pid":0,"tid":…,"args":{…}}`.
    let event = |name: &str, phase: Vec<(&'static str, Json)>, tid: usize, args: Json| {
        let tail = [("pid", 0u64.into()), ("tid", tid.into()), ("args", args)];
        Json::obj([("name", name.into())].into_iter().chain(phase).chain(tail)).to_string()
    };
    let meta = |name: &str, tid: usize, label: &str| {
        event(name, vec![("ph", "M".into())], tid, Json::obj([("name", label.into())]))
    };
    let mut evs = vec![meta("process_name", 0, "fa-sim")];
    evs.extend(groups.iter().enumerate().map(|(tid, (comp, _))| meta("thread_name", tid, comp)));
    for (tid, (_, recs)) in groups.iter().enumerate() {
        for r in recs {
            let phase = match r.ev.duration() {
                Some(dur) => {
                    vec![("ph", "X".into()), ("ts", r.cycle.saturating_sub(dur).into()), ("dur", dur.max(1).into())]
                }
                None => vec![("ph", "i".into()), ("s", "t".into()), ("ts", r.cycle.into())],
            };
            // The record seq leads the args, for ordering.
            let args = Json::obj([("seq", r.seq.into())].into_iter().chain(r.ev.fields()));
            evs.push(event(r.ev.kind(), phase, tid, args));
        }
    }
    format!("{{\"traceEvents\":[\n{}\n],\"displayTimeUnit\":\"ns\"}}\n", evs.join(",\n"))
}

/// Validates Chrome-trace JSON by parsing it and walking `traceEvents`,
/// whose every record must carry a string `ph`. Returns the number of
/// simulator events: the `"M"` process/thread-name records are metadata.
///
/// # Errors
///
/// The parse error, or what is missing from the document.
pub fn validate_chrome_trace(s: &str) -> Result<usize, String> {
    let doc = Json::parse(s)?;
    let evs = doc.get("traceEvents").and_then(Json::as_arr).ok_or("no traceEvents array")?;
    evs.iter().try_fold(0, |n, e| match e.get("ph").and_then(Json::as_str) {
        Some("M") => Ok(n),
        Some(_) => Ok(n + 1),
        None => Err("a trace event without a ph".to_string()),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hist_bucket_edges_are_powers_of_two() {
        let mut h = Hist::new();
        for v in [0, 1, 2, 3, 4, 7, 8, 1 << 30, u64::MAX] {
            h.record(v);
        }
        assert_eq!(h.count, 9);
        assert_eq!(h.max, u64::MAX);
        assert_eq!(h.buckets[0], 1); // 0
        assert_eq!(h.buckets[1], 1); // 1
        assert_eq!(h.buckets[2], 2); // 2..3
        assert_eq!(h.buckets[3], 2); // 4..7
        assert_eq!(h.buckets[4], 1); // 8..15
        assert_eq!(h.buckets[HIST_BUCKETS - 1], 2); // >= 2^30
    }

    #[test]
    fn hist_merge_is_order_independent() {
        let mut a = Hist::new();
        let mut b = Hist::new();
        for v in [1, 5, 9] {
            a.record(v);
        }
        for v in [2, 1000] {
            b.record(v);
        }
        let mut ab = a;
        ab.merge(&b);
        let mut ba = b;
        ba.merge(&a);
        assert_eq!(ab, ba);
        assert_eq!(ab.count, 5);
    }

    #[test]
    fn hist_merge_saturates_like_record() {
        let mut a = Hist::new();
        a.record(u64::MAX);
        let b = a;
        a.merge(&b);
        assert_eq!((a.count, a.sum, a.max), (2, u64::MAX, u64::MAX));
    }

    #[test]
    fn hist_json_trims_trailing_zero_buckets() {
        let mut h = Hist::new();
        h.record(1);
        assert_eq!(h.to_json().to_string(), "{\"count\":1,\"sum\":1,\"max\":1,\"buckets\":[0,1]}");
        assert_eq!(Hist::new().to_json().to_string(), "{\"count\":0,\"sum\":0,\"max\":0,\"buckets\":[]}");
    }

    #[test]
    fn cpi_stack_merge_is_order_independent() {
        let mut a = CpiStack::new();
        a.record(CpiLeaf::Commit);
        a.add(CpiLeaf::Idle, 100);
        let mut b = CpiStack::new();
        b.record(CpiLeaf::FenceDrain);
        b.record(CpiLeaf::Commit);
        let mut ab = a;
        ab.merge(&b);
        let mut ba = b;
        ba.merge(&a);
        assert_eq!(ab, ba);
        assert_eq!(ab.total(), 103);
        assert_eq!(ab.get(CpiLeaf::Commit), 2);
    }

    #[test]
    fn cpi_stack_json_names_every_leaf() {
        let mut s = CpiStack::new();
        s.add(CpiLeaf::SbDrain, 7);
        let j = s.to_json().to_string();
        for leaf in CpiLeaf::ALL {
            assert!(j.contains(&format!("\"{}\":", leaf.name())), "missing {}", leaf.name());
        }
        assert!(j.contains("\"sb_drain\":7"));
        assert!(j.starts_with("{\"commit\":0,") && j.ends_with("\"idle\":0}"));
    }

    #[test]
    fn cpi_leaf_indices_match_emission_order() {
        for (i, leaf) in CpiLeaf::ALL.iter().enumerate() {
            assert_eq!(leaf.index(), i);
        }
    }

    #[test]
    fn ring_is_bounded_and_ordered() {
        let mut t = TraceBuf::new(&TraceConfig::with_mode(TraceMode::Flight));
        let n = FLIGHT_RING as u64 + 7;
        for i in 0..n {
            t.record(i, TraceEvent::DirAlloc { line: i });
        }
        assert_eq!(t.len(), FLIGHT_RING);
        assert_eq!(t.dropped(), 7);
        let tail = t.tail(2);
        assert_eq!(tail.len(), 2);
        assert_eq!((tail[0].cycle, tail[0].seq), (n - 2, n - 2));
        assert_eq!((tail[1].cycle, tail[1].seq), (n - 1, n - 1));
    }

    #[test]
    fn off_mode_records_nothing() {
        let mut t = TraceBuf::new(&TraceConfig::default());
        assert!(!t.on());
        t.record(1, TraceEvent::DirAlloc { line: 0 });
        assert!(t.is_empty());
        assert_eq!(t.dropped(), 0);
    }

    #[test]
    fn trace_setting_parses() {
        assert_eq!(parse_trace_setting("off"), Ok((TraceMode::Off, None)));
        assert_eq!(parse_trace_setting(" flight "), Ok((TraceMode::Flight, None)));
        assert_eq!(parse_trace_setting("full"), Ok((TraceMode::Full, None)));
        assert_eq!(
            parse_trace_setting("full:/tmp/t.json"),
            Ok((TraceMode::Full, Some("/tmp/t.json".to_string())))
        );
        assert!(parse_trace_setting("flight:/x").is_err());
        assert!(parse_trace_setting("verbose").is_err());
    }

    #[test]
    fn check_setting_parses() {
        assert_eq!(parse_check_setting("off"), Ok(CheckMode::Off));
        assert_eq!(parse_check_setting(" tso "), Ok(CheckMode::Tso));
        assert!(parse_check_setting("sc").is_err());
        assert!(CheckMode::Tso.on());
        assert!(!CheckMode::Off.on());
        assert_eq!(CheckMode::default(), CheckMode::Off);
        assert_eq!(CheckMode::Tso.name(), "tso");
    }

    #[test]
    fn write_ids_are_unique_and_decodable() {
        assert_eq!(write_id_parts(WRITE_ID_INIT), None);
        assert_eq!(write_id_parts(write_id(0, 0)), Some((0, 0)));
        assert_eq!(write_id_parts(write_id(7, 123_456)), Some((7, 123_456)));
        assert_ne!(write_id(0, 0), WRITE_ID_INIT);
        assert_ne!(write_id(0, 1), write_id(1, 0));
    }

    #[test]
    fn data_event_accessors() {
        let ld = DataEvent::Load { seq: 4, addr: 64, value: 9, writer: write_id(1, 2), ord: MemOrder::Relaxed };
        let st = DataEvent::Store { seq: 5, addr: 64, value: 10, ord: MemOrder::Relaxed };
        let fence = DataEvent::Fence { seq: 6, ord: MemOrder::SeqCst };
        assert!(ld.is_read() && !ld.is_write());
        assert!(st.is_write() && !st.is_read());
        assert_eq!((fence.seq(), fence.addr()), (6, None));
        assert_eq!((st.seq(), st.addr()), (5, Some(64)));
        let su = DataEvent::StoreUnlock { seq: 7, addr: 64, value: 11 };
        let ll = DataEvent::LoadLock { seq: 5, addr: 64, value: 10, writer: WRITE_ID_INIT };
        assert!(su.is_write() && ll.is_read());
    }

    #[test]
    fn chrome_trace_round_trips_validation() {
        let recs = vec![
            TraceRecord { cycle: 5, seq: 0, ev: TraceEvent::LockAcquire { line: 64, count: 1 } },
            TraceRecord { cycle: 9, seq: 1, ev: TraceEvent::LockRelease { line: 64, held: 4 } },
        ];
        let json = chrome_trace(&[("l1c0".to_string(), recs)]);
        let n = validate_chrome_trace(&json).expect("valid trace json");
        assert_eq!(n, 2, "the two metadata records are not events");
        assert!(json.contains(
            "{\"name\":\"lock.acquire\",\"ph\":\"i\",\"s\":\"t\",\"ts\":5,\"pid\":0,\"tid\":0,\
             \"args\":{\"seq\":0,\"line\":64,\"count\":1}},\n"
        ));
        assert!(json.contains("\"ph\":\"X\"")); // release renders as a slice
        assert_eq!(validate_chrome_trace(&chrome_trace(&[])), Ok(0));
        assert!(validate_chrome_trace("{\"traceEvents\":[}").is_err());
        assert!(validate_chrome_trace("[]").is_err());
        assert!(validate_chrome_trace("{\"traceEvents\":[{\"name\":\"x\"}]}").is_err());
    }

    #[test]
    fn events_print_as_kind_and_fields() {
        let shown = |ev: TraceEvent| ev.to_string();
        assert_eq!(shown(TraceEvent::UopCommit { seq: 4, pc: 16 }), "uop.commit useq=4 pc=0x10");
        assert_eq!(shown(TraceEvent::Squash { from_seq: 9, uops: 3 }), "squash from_seq=9 uops=3");
        assert_eq!(
            shown(TraceEvent::AtomicLoadLock { seq: 1, addr: 64, drain: 0, fwd: false }),
            "atomic.load_lock useq=1 addr=0x40 drain=0"
        );
        assert!(shown(TraceEvent::AtomicLoadLock { seq: 1, addr: 64, drain: 0, fwd: true })
            .ends_with(" drain=0 fwd=true"));
        assert_eq!(
            shown(TraceEvent::Mesi { line: 64, from: MESI_NONE, to: MESI_M }),
            "mesi line=0x40 from=- to=M"
        );
        assert_eq!(
            shown(TraceEvent::NocSend { kind: NOC_TO_DIR, src: 1, dst: u16::MAX }),
            "noc.send kind=to_dir src=1 dst=65535"
        );
    }

    #[test]
    fn flight_entries_render_and_dump() {
        let e = FlightEntry {
            comp: "core0".to_string(),
            cycle: 42,
            seq: 7,
            ev: TraceEvent::AtomicStoreUnlock { seq: 3, addr: 128, exec: 11 },
        };
        assert!(format!("{e}").contains("atomic.store_unlock useq=3"));
        let j = flight_json(std::slice::from_ref(&e));
        assert!(j.starts_with("[{\"comp\":\"core0\",\"cycle\":42,"));
        assert!(j.contains("\"name\":\"atomic.store_unlock\""));
    }
}
