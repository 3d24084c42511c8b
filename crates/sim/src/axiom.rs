//! Axiomatic x86-TSO + RMW-atomicity conformance checking of full
//! executions.
//!
//! The operational reference model ([`crate::tsoref`]) enumerates every
//! legal outcome of a tiny litmus program — exponential, so it caps out at
//! a handful of operations. This module takes the opposite approach,
//! following the axiomatic style of Owens et al. (x86-TSO) and Alglave et
//! al. (herding cats): given the *data events* of one complete execution —
//! per-core committed accesses with values and rf write-ids, plus the
//! memory system's global write-serialization order — it reconstructs the
//! program order `po`, reads-from `rf`, coherence `co`, and from-reads
//! `fr` relations and verifies the TSO axioms in near-linear time. Any
//! run of the detailed simulator, including full synthetic workloads
//! under fault injection and a contended interconnect, can be checked.
//!
//! Checked axioms, in order:
//!
//! 1. **rf-wf** — every load's write-id names a committed store to the
//!    same address carrying the same value (write-id 0 = initial memory).
//! 2. **co-wf** — the serialization log and the committed stores agree
//!    exactly (each committed store performs exactly once, with matching
//!    address and value); per-line directory write-epochs are
//!    non-decreasing along the serialization order; every `store_unlock`
//!    performs inside a lock window.
//! 3. **sc-per-location** — coherence per address: no CoWW, CoRW1,
//!    CoRW2, CoWR, or CoRR shape (uniproc condition).
//! 4. **rmw-atomicity** — a `load_lock`'s `store_unlock` is the
//!    *immediate* co-successor of the write the `load_lock` read from: no
//!    other write to the line lands inside the atomicity window.
//! 5. **tso-ghb** — the global-happens-before relation
//!    `po_tso ∪ rfe ∪ co ∪ fr` is acyclic, where `po_tso` keeps all
//!    program-order edges except W→R (the store-buffer relaxation), and
//!    fences and RMWs restore the W→R edges the buffer would hide.
//!
//! `po_tso` is built in compressed form — O(events) edges instead of
//! O(events²) — from two per-core chains:
//!
//! * an *out-ordering* node (load, load_lock, enforced fence, or
//!   store_unlock — the latter two act as full barriers on x86) orders
//!   everything po-after it: edge to its po-successor plus an edge to the
//!   next out-ordering node, which by induction reaches the rest;
//! * a plain store orders only later writes and later barriers: edge to
//!   the next write and to the next fence/load_lock (a load_lock may not
//!   commit while the store buffer is non-empty, so W→LL is enforced).
//!
//! On failure the checker extracts a shortest violating cycle (SCC
//! restriction + breadth-first search) and reports it edge by edge.
//!
//! Collection of the inputs is strictly passive (side logs gated by
//! [`fa_trace::CheckMode`]); `FA_CHECK=off|tso` produce bit-identical
//! simulation results, which `ci.sh` pins.

use fa_isa::line_of;
use fa_mem::{FxHashMap, FxHashSet};
use fa_trace::{write_id, write_id_parts, DataEvent, MemModel, SerEvent, WRITE_ID_INIT};
use std::fmt;

/// One complete execution's data events: per-core committed accesses in
/// program order plus the global write-serialization order.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Execution {
    /// Committed data events per core, in commit (= program) order.
    pub cores: Vec<Vec<DataEvent>>,
    /// Performed stores in global serialization order; the per-address
    /// subsequence is the coherence order `co`.
    pub ser: Vec<SerEvent>,
}

impl Execution {
    /// Total data events across all cores.
    pub fn events(&self) -> usize {
        self.cores.iter().map(Vec::len).sum()
    }
}

/// A refuted axiom, with enough detail to debug the offending execution.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Violation {
    /// Name of the violated axiom: `rf-wf`, `co-wf`, `sc-per-location`,
    /// `rmw-atomicity`, or `tso-ghb`.
    pub axiom: &'static str,
    /// Human-readable description (offending events, or the full cycle).
    pub detail: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "axiom {} violated: {}", self.axiom, self.detail)
    }
}

/// Sizes of the checked relations (for overhead reporting and logging).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CheckReport {
    /// Data events checked.
    pub events: usize,
    /// Committed stores (= serialization-order length).
    pub writes: usize,
    /// Edges in the compressed global-happens-before graph.
    pub ghb_edges: usize,
}

/// A committed store, keyed by its write-id.
struct WriteInfo {
    core: usize,
    addr: u64,
    value: u64,
    unlock: bool,
}

/// The coherence order: per-address write lists plus a write-id → (addr,
/// 1-based position) index. Position 0 is reserved for initial memory.
#[derive(Default)]
struct Co {
    /// Each address's write list, by its slot in `lists`.
    slot: FxHashMap<u64, usize>,
    /// The write lists, in the order their addresses were first
    /// serialized. The first `used` are this execution's; the rest are
    /// empty storage from earlier ones.
    lists: Vec<Vec<u64>>,
    used: usize,
    pos: FxHashMap<u64, usize>,
}

impl Co {
    fn clear(&mut self) {
        self.slot.clear();
        self.lists[..self.used].iter_mut().for_each(Vec::clear);
        self.used = 0;
        self.pos.clear();
    }

    /// Appends `writer` to `addr`'s write list; returns its 1-based
    /// position.
    fn push(&mut self, addr: u64, writer: u64) -> usize {
        let slot = *self.slot.entry(addr).or_insert(self.used);
        if slot == self.used {
            self.used += 1;
            if self.lists.len() < self.used {
                self.lists.push(Vec::new());
            }
        }
        let list = &mut self.lists[slot];
        list.push(writer);
        list.len()
    }

    /// `addr`'s writes in coherence order (empty when it has none).
    fn order(&self, addr: u64) -> &[u64] {
        self.slot.get(&addr).map_or(&[], |&s| &self.lists[s])
    }

    /// Every address's write list, in first-serialization order.
    fn orders(&self) -> &[Vec<u64>] {
        &self.lists[..self.used]
    }

    /// 1-based coherence position of the write a read observed
    /// (0 = initial memory). `None` for an unknown write-id.
    fn read_pos(&self, writer: u64) -> Option<usize> {
        if writer == WRITE_ID_INIT {
            Some(0)
        } else {
            self.pos.get(&writer).copied()
        }
    }
}

/// The checker's working storage: the maps and tables one check fills. A
/// machine keeps one across its runs, so that checking run after run
/// allocates only while they still grow. No map is iterated where the
/// order could reach a verdict or its text: lookups only, and the write
/// lists in first-serialization order.
#[derive(Default)]
pub(crate) struct Checker {
    writes: FxHashMap<u64, WriteInfo>,
    co: Co,
    /// Per line, the last write-epoch serialized.
    line_epoch: FxHashMap<u64, u64>,
    /// Per address, one core's running coherence maxima.
    maxima: FxHashMap<u64, (usize, usize)>,
    /// One core's event index by µop seq.
    by_seq: FxHashMap<u64, usize>,
    ghb: Ghb,
}

/// The global-happens-before graph's storage (see [`check_ghb`]).
#[derive(Default)]
struct Ghb {
    /// Each core's first node.
    base: Vec<usize>,
    /// Out-edges per node; the first `n` are this execution's.
    adj: Vec<Vec<(u32, u8)>>,
    indeg: Vec<u32>,
    node_of_wid: FxHashMap<u64, usize>,
    /// One core's next-index tables, built backwards, and its previous
    /// out-ordering node per event.
    next_out: Vec<usize>,
    next_store: Vec<usize>,
    next_barrier_r: Vec<usize>,
    next_barrier_w: Vec<usize>,
    prev_out: Vec<usize>,
    stack: Vec<usize>,
}

/// Refills `v` with `n` copies of `x`, keeping its storage.
fn refill<T: Clone>(v: &mut Vec<T>, n: usize, x: T) {
    v.clear();
    v.resize(n, x);
}

impl Checker {
    /// Checks one execution — each core's committed data events, in
    /// program order, and the serialization log — against the axioms of
    /// `model` (see [`check_model`]).
    pub(crate) fn check<'a, C>(
        &mut self,
        cores: C,
        ser: &[SerEvent],
        model: MemModel,
    ) -> Result<CheckReport, Violation>
    where
        C: Iterator<Item = &'a [DataEvent]> + Clone,
    {
        collect_writes(cores.clone(), &mut self.writes)?;
        check_co_wf(cores.clone(), ser, &self.writes, &mut self.co, &mut self.line_epoch)?;
        check_rf_wf(cores.clone(), &self.writes)?;
        check_sc_per_location(cores.clone(), &self.co, &mut self.maxima)?;
        check_rmw_atomicity(cores.clone(), &self.co, &mut self.by_seq)?;
        let ghb_edges = check_ghb(cores.clone(), &self.writes, &self.co, model, &mut self.ghb)?;
        let events = cores.map(<[DataEvent]>::len).sum();
        Ok(CheckReport { events, writes: self.writes.len(), ghb_edges })
    }
}

/// Checks one complete execution against the x86-TSO + RMW-atomicity
/// axioms.
///
/// # Errors
///
/// The first refuted axiom, with detail naming the offending events (or,
/// for `tso-ghb`, a shortest violating cycle).
pub fn check(x: &Execution) -> Result<CheckReport, Violation> {
    check_model(x, MemModel::Tso)
}

/// Checks one complete execution against the axioms of the given memory
/// model.
///
/// The well-formedness and per-location axioms (`rf-wf`, `co-wf`,
/// `sc-per-location`, `rmw-atomicity`) are model-independent — coherence
/// and RMW atomicity hold in both models. Only the global-happens-before
/// acyclicity axiom is parameterized: under [`MemModel::Tso`] every event
/// has TSO strength (`tso-ghb`); under [`MemModel::Weak`] the preserved
/// program order honours the per-event [`fa_isa::MemOrder`] annotations
/// (`weak-ghb`, see [`check_ghb`] for the exact edge rules).
///
/// # Errors
///
/// The first refuted axiom, with detail naming the offending events (or,
/// for the ghb axiom, a shortest violating cycle).
pub fn check_model(x: &Execution, model: MemModel) -> Result<CheckReport, Violation> {
    Checker::default().check(x.cores.iter().map(Vec::as_slice), &x.ser, model)
}

/// Renders an event for violation messages.
fn show(core: usize, ev: &DataEvent) -> String {
    let kind = match ev {
        DataEvent::Load { .. } => "Load",
        DataEvent::LoadLock { .. } => "LoadLock",
        DataEvent::Store { .. } => "Store",
        DataEvent::StoreUnlock { .. } => "StoreUnlock",
        DataEvent::Fence { .. } => "Fence",
    };
    match ev.addr() {
        Some(a) => format!("c{core}:{kind}@{a:#x}(seq {})", ev.seq()),
        None => format!("c{core}:{kind}(seq {})", ev.seq()),
    }
}

/// Renders a write-id for violation messages.
fn show_wid(w: u64) -> String {
    match write_id_parts(w) {
        Some((core, seq)) => format!("c{core}/seq {seq}"),
        None => "<init>".to_string(),
    }
}

/// The write-id of every committed store, in core then program order.
fn committed_writes<'a>(
    cores: impl Iterator<Item = &'a [DataEvent]>,
) -> impl Iterator<Item = (usize, &'a DataEvent, u64)> {
    cores.enumerate().flat_map(|(core, evs)| {
        evs.iter().filter(|ev| ev.is_write()).map(move |ev| (core, ev, write_id(core as u16, ev.seq())))
    })
}

fn collect_writes<'a>(
    cores: impl Iterator<Item = &'a [DataEvent]>,
    writes: &mut FxHashMap<u64, WriteInfo>,
) -> Result<(), Violation> {
    writes.clear();
    for (core, ev, wid) in committed_writes(cores) {
        let (addr, value, unlock) = match *ev {
            DataEvent::Store { addr, value, .. } => (addr, value, false),
            DataEvent::StoreUnlock { addr, value, .. } => (addr, value, true),
            _ => continue,
        };
        if writes.insert(wid, WriteInfo { core, addr, value, unlock }).is_some() {
            return Err(Violation {
                axiom: "co-wf",
                detail: format!("duplicate committed store {}", show(core, ev)),
            });
        }
    }
    Ok(())
}

/// Validates the serialization log against the committed stores and
/// builds the coherence order.
fn check_co_wf<'a>(
    cores: impl Iterator<Item = &'a [DataEvent]>,
    ser: &[SerEvent],
    writes: &FxHashMap<u64, WriteInfo>,
    co: &mut Co,
    line_epoch: &mut FxHashMap<u64, u64>,
) -> Result<(), Violation> {
    let fail = |detail: String| Violation { axiom: "co-wf", detail };
    co.clear();
    line_epoch.clear();
    for ev in ser {
        let Some(w) = writes.get(&ev.writer) else {
            return Err(fail(format!(
                "serialized write {} to {:#x} does not match any committed store",
                show_wid(ev.writer),
                ev.addr
            )));
        };
        if w.addr != ev.addr || w.value != ev.value {
            return Err(fail(format!(
                "serialized write {} performed ({:#x}, {}) but committed ({:#x}, {})",
                show_wid(ev.writer),
                ev.addr,
                ev.value,
                w.addr,
                w.value
            )));
        }
        if w.unlock && !ev.under_lock {
            return Err(fail(format!(
                "store_unlock {} performed outside its lock window",
                show_wid(ev.writer)
            )));
        }
        // Write-serialization cross-check: performs funnel through
        // directory exclusive grants, so per-line epochs only grow.
        let line = line_of(ev.addr);
        let last = line_epoch.entry(line).or_insert(0);
        if ev.epoch < *last {
            return Err(fail(format!(
                "write-epoch regressed on line {:#x}: {} after {} (write {})",
                line,
                ev.epoch,
                last,
                show_wid(ev.writer)
            )));
        }
        *last = ev.epoch;
        let at = co.push(ev.addr, ev.writer);
        if co.pos.insert(ev.writer, at).is_some() {
            return Err(fail(format!("write {} serialized twice", show_wid(ev.writer))));
        }
    }
    if co.pos.len() != writes.len() {
        // The first in core then program order.
        let missing = committed_writes(cores)
            .map(|(.., wid)| wid)
            .find(|w| !co.pos.contains_key(w))
            .unwrap_or(WRITE_ID_INIT);
        return Err(fail(format!("committed store {} never performed", show_wid(missing))));
    }
    Ok(())
}

/// Every load reads a committed store to the same address with the same
/// value. Reads of initial memory (write-id 0) skip the value check —
/// initial guest memory is mutated in place, so its original content is
/// not recoverable at check time.
fn check_rf_wf<'a>(
    cores: impl Iterator<Item = &'a [DataEvent]>,
    writes: &FxHashMap<u64, WriteInfo>,
) -> Result<(), Violation> {
    let fail = |detail: String| Violation { axiom: "rf-wf", detail };
    for (core, evs) in cores.enumerate() {
        for ev in evs {
            let (addr, value, writer) = match *ev {
                DataEvent::Load { addr, value, writer, .. }
                | DataEvent::LoadLock { addr, value, writer, .. } => (addr, value, writer),
                _ => continue,
            };
            if writer == WRITE_ID_INIT {
                continue;
            }
            let Some(w) = writes.get(&writer) else {
                return Err(fail(format!(
                    "{} reads from unknown write {}",
                    show(core, ev),
                    show_wid(writer)
                )));
            };
            if w.addr != addr {
                return Err(fail(format!(
                    "{} reads from write {} to a different address {:#x}",
                    show(core, ev),
                    show_wid(writer),
                    w.addr
                )));
            }
            if w.value != value {
                return Err(fail(format!(
                    "{} observed {} but its writer {} stored {}",
                    show(core, ev),
                    value,
                    show_wid(writer),
                    w.value
                )));
            }
        }
    }
    Ok(())
}

/// The uniproc condition: per core and address, coherence positions of
/// writes and of observed writers never move backwards. One linear pass
/// with running maxima detects all five classic shapes.
fn check_sc_per_location<'a>(
    cores: impl Iterator<Item = &'a [DataEvent]>,
    co: &Co,
    maxima: &mut FxHashMap<u64, (usize, usize)>,
) -> Result<(), Violation> {
    let fail = |shape: &str, detail: String| Violation {
        axiom: "sc-per-location",
        detail: format!("{shape}: {detail}"),
    };
    for (core, evs) in cores.enumerate() {
        // addr -> (max co-position of po-earlier writes, of observed
        // writers of po-earlier reads).
        maxima.clear();
        for ev in evs {
            match *ev {
                DataEvent::Store { addr, .. } | DataEvent::StoreUnlock { addr, .. } => {
                    let wid = write_id(core as u16, ev.seq());
                    let p = co.pos.get(&wid).copied().unwrap_or(0);
                    let (max_w, max_r) = maxima.entry(addr).or_insert((0, 0));
                    if p < *max_w {
                        return Err(fail(
                            "CoWW",
                            format!(
                                "{} serialized before a po-earlier write to the same address",
                                show(core, ev)
                            ),
                        ));
                    }
                    if p < *max_r {
                        return Err(fail(
                            "CoRW2",
                            format!(
                                "{} serialized before the write a po-earlier read observed",
                                show(core, ev)
                            ),
                        ));
                    }
                    *max_w = p;
                }
                DataEvent::Load { addr, writer, .. } | DataEvent::LoadLock { addr, writer, .. } => {
                    if let Some((wc, wseq)) = write_id_parts(writer) {
                        if wc as usize == core && wseq > ev.seq() {
                            return Err(fail(
                                "CoRW1",
                                format!(
                                    "{} reads from its own po-later store (seq {wseq})",
                                    show(core, ev)
                                ),
                            ));
                        }
                    }
                    let p = co.read_pos(writer).unwrap_or(0);
                    let (max_w, max_r) = maxima.entry(addr).or_insert((0, 0));
                    if p < *max_w {
                        return Err(fail(
                            "CoWR",
                            format!(
                                "{} observes {} although a po-earlier own store is co-later",
                                show(core, ev),
                                show_wid(writer)
                            ),
                        ));
                    }
                    if p < *max_r {
                        return Err(fail(
                            "CoRR",
                            format!(
                                "{} observes {}, co-older than what a po-earlier read saw",
                                show(core, ev),
                                show_wid(writer)
                            ),
                        ));
                    }
                    *max_r = (*max_r).max(p);
                }
                DataEvent::Fence { .. } => {}
            }
        }
    }
    Ok(())
}

/// RMW atomicity: the `store_unlock` must be the immediate co-successor
/// of the write its `load_lock` read — no foreign write inside the
/// window.
fn check_rmw_atomicity<'a>(
    cores: impl Iterator<Item = &'a [DataEvent]>,
    co: &Co,
    by_seq: &mut FxHashMap<u64, usize>,
) -> Result<(), Violation> {
    let fail = |detail: String| Violation { axiom: "rmw-atomicity", detail };
    for (core, evs) in cores.enumerate() {
        // seq -> event index, for pairing a load_lock (seq s) with its
        // store_unlock (the µop triple is consecutive: s, s+1, s+2).
        by_seq.clear();
        by_seq.extend(evs.iter().enumerate().map(|(i, e)| (e.seq(), i)));
        for ev in evs {
            let DataEvent::LoadLock { seq, addr, writer, .. } = *ev else { continue };
            let su = by_seq
                .get(&(seq + 2))
                .map(|&i| &evs[i])
                .and_then(|e| match e {
                    DataEvent::StoreUnlock { addr: a, .. } if *a == addr => Some(e),
                    _ => None,
                });
            let Some(su) = su else {
                return Err(fail(format!(
                    "{} committed without a matching store_unlock at seq {}",
                    show(core, ev),
                    seq + 2
                )));
            };
            let p = co.read_pos(writer).unwrap_or(0);
            let su_wid = write_id(core as u16, su.seq());
            let q = co.pos.get(&su_wid).copied().unwrap_or(0);
            if q != p + 1 {
                let interloper =
                    co.order(addr).get(p).map(|&w| show_wid(w)).unwrap_or_else(|| "<missing>".to_string());
                return Err(fail(format!(
                    "{} read {} (co position {p}) but its store_unlock serialized at \
                     position {q}; intervening write: {interloper}",
                    show(core, ev),
                    show_wid(writer)
                )));
            }
        }
    }
    Ok(())
}

/// Edge labels in the compressed global-happens-before graph.
const LABELS: [&str; 7] = ["po", "po-ww", "po-wb", "rfe", "co/fr", "po-rw", "po-rb"];
const L_PO: u8 = 0;
const L_PO_WW: u8 = 1;
const L_PO_WB: u8 = 2;
const L_RFE: u8 = 3;
const L_COFR: u8 = 4;
const L_PO_RW: u8 = 5;
const L_PO_RB: u8 = 6;

/// Acyclicity of `ppo ∪ rfe ∪ co ∪ fr` over all events, where the
/// preserved-program-order fragment depends on the model:
///
/// * **TSO** — every load, fence, `load_lock`, and `store_unlock` is
///   *out-ordering* (happens-before everything po-later); writes order
///   only to the next write (W→W) and the next fence/`load_lock`.
/// * **Weak** — out-ordering shrinks to acquire-class loads
///   (`acq`/`acq_rel`/`sc`), `load_lock`s, fences of any strength (every
///   logged fence is architecturally enforced), and `sc`-annotated plain
///   stores. Non-acquire loads keep R→W (to the next write, chained) and
///   R→F (to the next fence); same-address R→R is covered separately by
///   `sc-per-location`. Plain non-`sc` stores and `store_unlock`s keep
///   W→W plus edges into the next *SC* fence or `load_lock` (the two
///   barriers that drain the store buffer); a `store_unlock` is not
///   out-ordering under weak — the RMW's acquire side lives on its
///   `load_lock`.
fn check_ghb<'a, C>(
    cores: C,
    writes: &FxHashMap<u64, WriteInfo>,
    co: &Co,
    model: MemModel,
    g: &mut Ghb,
) -> Result<usize, Violation>
where
    C: Iterator<Item = &'a [DataEvent]> + Clone,
{
    // Global node numbering: per-core blocks.
    g.base.clear();
    let mut n = 0usize;
    for evs in cores.clone() {
        g.base.push(n);
        n += evs.len();
    }
    g.adj.iter_mut().take(n).for_each(Vec::clear);
    if g.adj.len() < n {
        g.adj.resize_with(n, Vec::new);
    }
    let (base, adj) = (&g.base, &mut g.adj[..n]);
    refill(&mut g.indeg, n, 0);
    let indeg = &mut g.indeg;
    let mut edges = 0usize;
    let mut push = |from: usize, to: usize, label: u8| {
        adj[from].push((to as u32, label));
        indeg[to] += 1;
        edges += 1;
    };

    // Event index of each committed store, for rfe/co/fr endpoints.
    let node_of_wid = &mut g.node_of_wid;
    node_of_wid.clear();
    node_of_wid.reserve(writes.len());
    for (core, evs) in cores.clone().enumerate() {
        for (i, ev) in evs.iter().enumerate() {
            if ev.is_write() {
                node_of_wid.insert(write_id(core as u16, ev.seq()), base[core] + i);
            }
        }
    }

    // Compressed per-core ppo edges (model-dependent classification).
    let weak = model == MemModel::Weak;
    let is_out_ordering = |e: &DataEvent| match e {
        DataEvent::LoadLock { .. } | DataEvent::Fence { .. } => true,
        DataEvent::Load { ord, .. } => !weak || ord.is_acquire(),
        DataEvent::Store { ord, .. } => weak && ord.is_sc(),
        DataEvent::StoreUnlock { .. } => !weak,
    };
    // Barrier a po-earlier *read* additionally orders into. Under TSO all
    // loads are out-ordering, so this table goes unused there.
    let is_barrier_in_r = |e: &DataEvent| matches!(e, DataEvent::Fence { .. });
    // Barrier a po-earlier *write* additionally orders into: anything that
    // waits for the store buffer to drain.
    let is_barrier_in_w = |e: &DataEvent| match e {
        DataEvent::LoadLock { .. } => true,
        DataEvent::Fence { ord, .. } => !weak || ord.is_sc(),
        _ => false,
    };
    for (core, evs) in cores.clone().enumerate() {
        let m = evs.len();
        // Next-index tables, built backwards.
        for table in [&mut g.next_out, &mut g.next_store, &mut g.next_barrier_r, &mut g.next_barrier_w] {
            refill(table, m, usize::MAX);
        }
        let (next_out, next_store) = (&mut g.next_out, &mut g.next_store);
        let (next_barrier_r, next_barrier_w) = (&mut g.next_barrier_r, &mut g.next_barrier_w);
        let (mut o, mut s, mut br, mut bw) =
            (usize::MAX, usize::MAX, usize::MAX, usize::MAX);
        for i in (0..m).rev() {
            next_out[i] = o;
            next_store[i] = s;
            next_barrier_r[i] = br;
            next_barrier_w[i] = bw;
            let e = &evs[i];
            if is_out_ordering(e) {
                o = i;
            }
            if e.is_write() {
                s = i;
            }
            if is_barrier_in_r(e) {
                br = i;
            }
            if is_barrier_in_w(e) {
                bw = i;
            }
        }
        // Under TSO every event is out-ordering or a write, so the
        // succ/next_out/W->W chains already reach everything po-later
        // from any out-ordering node. Under weak, relaxed loads are
        // neither, so a write run can strand them: give each non-out
        // event an explicit edge from its preceding out-ordering node
        // (one incoming edge per event — still linear).
        refill(&mut g.prev_out, m, usize::MAX);
        let prev_out = &mut g.prev_out;
        if weak {
            let mut p = usize::MAX;
            for i in 0..m {
                prev_out[i] = p;
                if is_out_ordering(&evs[i]) {
                    p = i;
                }
            }
        }
        for (i, e) in evs.iter().enumerate() {
            let from = base[core] + i;
            if is_out_ordering(e) {
                if i + 1 < m {
                    push(from, from + 1, L_PO);
                }
                if next_out[i] != usize::MAX && next_out[i] != i + 1 {
                    push(from, base[core] + next_out[i], L_PO);
                }
            } else {
                // Store-like residue: plain/`store_unlock` writes under
                // both models, plus non-acquire loads under weak. Both
                // keep an edge to the next write; the barrier differs.
                let is_read = matches!(e, DataEvent::Load { .. });
                let (ww, wb) = if is_read { (L_PO_RW, L_PO_RB) } else { (L_PO_WW, L_PO_WB) };
                let nb = if is_read { next_barrier_r[i] } else { next_barrier_w[i] };
                if next_store[i] != usize::MAX {
                    push(from, base[core] + next_store[i], ww);
                }
                if nb != usize::MAX {
                    push(from, base[core] + nb, wb);
                }
                if prev_out[i] != usize::MAX && prev_out[i] + 1 != i {
                    push(base[core] + prev_out[i], from, L_PO);
                }
            }
        }
    }

    // Cross-core edges: rfe, co adjacency, fr.
    for (core, evs) in cores.clone().enumerate() {
        for (i, ev) in evs.iter().enumerate() {
            let (addr, writer) = match *ev {
                DataEvent::Load { addr, writer, .. }
                | DataEvent::LoadLock { addr, writer, .. } => (addr, writer),
                _ => continue,
            };
            let to = base[core] + i;
            let external =
                writes.get(&writer).map(|w| w.core != core).unwrap_or(false);
            if external {
                if let Some(&wn) = node_of_wid.get(&writer) {
                    push(wn, to, L_RFE);
                }
            }
            // fr: the read happens-before the co-successor of its writer
            // (includes fri — sound, since a forwarded read's writer is
            // the forwarding store itself).
            let p = co.read_pos(writer).unwrap_or(0);
            if let Some(succ) = co.order(addr).get(p) {
                if let Some(&sn) = node_of_wid.get(succ) {
                    push(to, sn, L_COFR);
                }
            }
        }
    }
    // Each write gains at most one co edge, so the order the lists are
    // walked in reaches no node's edge order.
    for order in co.orders() {
        for w in order.windows(2) {
            if let (Some(&a), Some(&b)) = (node_of_wid.get(&w[0]), node_of_wid.get(&w[1])) {
                push(a, b, L_COFR);
            }
        }
    }

    // Kahn topological sort; leftovers contain a cycle.
    let stack = &mut g.stack;
    stack.clear();
    stack.extend((0..n).filter(|&v| indeg[v] == 0));
    let mut seen = 0usize;
    let indeg_left = indeg;
    while let Some(v) = stack.pop() {
        seen += 1;
        for &(w, _) in &adj[v] {
            indeg_left[w as usize] -= 1;
            if indeg_left[w as usize] == 0 {
                stack.push(w as usize);
            }
        }
    }
    if seen == n {
        return Ok(edges);
    }
    let remaining: Vec<usize> = (0..n).filter(|&v| indeg_left[v] > 0).collect();
    let cycle = shortest_cycle(adj, &remaining);
    let describe = |v: usize| {
        // Failure path only: linear scan for the owning core (robust to
        // empty cores sharing a base offset).
        for (core, evs) in cores.clone().enumerate() {
            if v >= base[core] && v < base[core] + evs.len() {
                return show(core, &evs[v - base[core]]);
            }
        }
        format!("node {v}")
    };
    let mut msg = String::from("global-happens-before cycle: ");
    for (k, &(v, label)) in cycle.iter().enumerate() {
        if k > 0 {
            msg.push_str(" -> ");
        }
        msg.push_str(&describe(v));
        msg.push_str(&format!(" [{}]", LABELS[label as usize]));
    }
    if let Some(&(first, _)) = cycle.first() {
        msg.push_str(&format!(" -> {}", describe(first)));
    }
    let axiom = if weak { "weak-ghb" } else { "tso-ghb" };
    Err(Violation { axiom, detail: msg })
}

/// A shortest cycle inside the cyclic remainder of the graph: restrict to
/// `remaining` (every Kahn leftover lies on or upstream of a cycle), then
/// BFS from candidate start nodes back to themselves. Each node is
/// annotated with the label of its outgoing edge in the cycle.
fn shortest_cycle(adj: &[Vec<(u32, u8)>], remaining: &[usize]) -> Vec<(usize, u8)> {
    let in_rem: FxHashSet<usize> = remaining.iter().copied().collect();
    let mut best: Vec<(usize, u8)> = Vec::new();
    for &start in remaining {
        // BFS over the remaining subgraph looking for a path back to start.
        let mut prev: FxHashMap<usize, (usize, u8)> = FxHashMap::default();
        let mut queue = std::collections::VecDeque::new();
        queue.push_back(start);
        let mut found = false;
        'bfs: while let Some(v) = queue.pop_front() {
            for &(w, label) in &adj[v] {
                let w = w as usize;
                if !in_rem.contains(&w) {
                    continue;
                }
                if w == start {
                    prev.insert(start, (v, label));
                    found = true;
                    break 'bfs;
                }
                if let std::collections::hash_map::Entry::Vacant(e) = prev.entry(w) {
                    e.insert((v, label));
                    queue.push_back(w);
                }
            }
        }
        if !found {
            continue;
        }
        // Walk predecessors from start back around the cycle.
        let mut cycle = Vec::new();
        let (mut v, mut label) = prev[&start];
        loop {
            cycle.push((v, label));
            if v == start {
                break;
            }
            let (pv, pl) = prev[&v];
            v = pv;
            label = pl;
        }
        cycle.reverse();
        if best.is_empty() || cycle.len() < best.len() {
            best = cycle;
        }
        if best.len() <= 2 {
            break; // cannot get shorter
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use fa_trace::MemOrder;

    const X: u64 = 0x1000;
    const Y: u64 = 0x1040;

    fn st(seq: u64, addr: u64, value: u64) -> DataEvent {
        st_ord(seq, addr, value, MemOrder::Relaxed)
    }
    fn st_ord(seq: u64, addr: u64, value: u64, ord: MemOrder) -> DataEvent {
        DataEvent::Store { seq, addr, value, ord }
    }
    fn ld(seq: u64, addr: u64, value: u64, writer: u64) -> DataEvent {
        ld_ord(seq, addr, value, writer, MemOrder::Relaxed)
    }
    fn ld_ord(seq: u64, addr: u64, value: u64, writer: u64, ord: MemOrder) -> DataEvent {
        DataEvent::Load { seq, addr, value, writer, ord }
    }
    fn ll(seq: u64, addr: u64, value: u64, writer: u64) -> DataEvent {
        DataEvent::LoadLock { seq, addr, value, writer }
    }
    fn su(seq: u64, addr: u64, value: u64) -> DataEvent {
        DataEvent::StoreUnlock { seq, addr, value }
    }
    fn fence(seq: u64) -> DataEvent {
        DataEvent::Fence { seq, ord: MemOrder::SeqCst }
    }
    fn fence_ord(seq: u64, ord: MemOrder) -> DataEvent {
        DataEvent::Fence { seq, ord }
    }
    /// Serialization event for `write_id(core, seq)`, plain store.
    fn ser(core: u16, seq: u64, addr: u64, value: u64) -> SerEvent {
        SerEvent { addr, writer: write_id(core, seq), value, epoch: 0, under_lock: false }
    }
    fn ser_unlock(core: u16, seq: u64, addr: u64, value: u64) -> SerEvent {
        SerEvent { addr, writer: write_id(core, seq), value, epoch: 0, under_lock: true }
    }

    #[test]
    fn trivial_single_core_accepted() {
        // St x 1; Ld x 1 (forwarded or after drain — writer is the store).
        let x = Execution {
            cores: vec![vec![st(1, X, 1), ld(2, X, 1, write_id(0, 1))]],
            ser: vec![ser(0, 1, X, 1)],
        };
        let r = check(&x).expect("accepted");
        assert_eq!(r.events, 2);
        assert_eq!(r.writes, 1);
    }

    #[test]
    fn sb_weak_outcome_accepted() {
        // Store buffering: both loads read initial memory — TSO-legal.
        let x = Execution {
            cores: vec![
                vec![st(1, X, 1), ld(2, Y, 0, WRITE_ID_INIT)],
                vec![st(1, Y, 1), ld(2, X, 0, WRITE_ID_INIT)],
            ],
            ser: vec![ser(0, 1, X, 1), ser(1, 1, Y, 1)],
        };
        check(&x).expect("SB weak outcome is TSO-legal");
    }

    #[test]
    fn sb_with_fences_forbidden_outcome_rejected() {
        // With fences between store and load, both-read-zero is illegal.
        let x = Execution {
            cores: vec![
                vec![st(1, X, 1), fence(2), ld(3, Y, 0, WRITE_ID_INIT)],
                vec![st(1, Y, 1), fence(2), ld(3, X, 0, WRITE_ID_INIT)],
            ],
            ser: vec![ser(0, 1, X, 1), ser(1, 1, Y, 1)],
        };
        let v = check(&x).expect_err("fenced SB weak outcome is illegal");
        assert_eq!(v.axiom, "tso-ghb");
        assert!(v.detail.contains("cycle"), "got: {}", v.detail);
    }

    #[test]
    fn sb_with_rmws_forbidden_outcome_rejected() {
        // The paper's Fig. 10 shape: the RMW acts as the fence. Core 0:
        // FetchAdd x; Ld y == 0. Core 1: FetchAdd y; Ld x == 0. Illegal.
        let x = Execution {
            cores: vec![
                vec![ll(1, X, 0, WRITE_ID_INIT), su(3, X, 1), ld(4, Y, 0, WRITE_ID_INIT)],
                vec![ll(1, Y, 0, WRITE_ID_INIT), su(3, Y, 1), ld(4, X, 0, WRITE_ID_INIT)],
            ],
            ser: vec![ser_unlock(0, 3, X, 1), ser_unlock(1, 3, Y, 1)],
        };
        let v = check(&x).expect_err("RMW-fenced SB weak outcome is illegal");
        assert_eq!(v.axiom, "tso-ghb");
    }

    #[test]
    fn mp_forbidden_outcome_rejected() {
        // Message passing: c1 sees the flag (y=1) but stale data (x=0),
        // with loads in po — illegal under TSO without any fence.
        let x = Execution {
            cores: vec![
                vec![st(1, X, 1), st(2, Y, 1)],
                vec![ld(1, Y, 1, write_id(0, 2)), ld(2, X, 0, WRITE_ID_INIT)],
            ],
            ser: vec![ser(0, 1, X, 1), ser(0, 2, Y, 1)],
        };
        let v = check(&x).expect_err("MP stale-data outcome is illegal");
        assert_eq!(v.axiom, "tso-ghb");
    }

    #[test]
    fn rf_value_mismatch_rejected() {
        let x = Execution {
            cores: vec![vec![st(1, X, 1), ld(2, X, 2, write_id(0, 1))]],
            ser: vec![ser(0, 1, X, 1)],
        };
        let v = check(&x).expect_err("value mismatch");
        assert_eq!(v.axiom, "rf-wf");
        assert!(v.detail.contains("observed 2"), "got: {}", v.detail);
    }

    #[test]
    fn rf_unknown_writer_rejected() {
        let x = Execution {
            cores: vec![vec![ld(1, X, 7, write_id(3, 9))]],
            ser: vec![],
        };
        let v = check(&x).expect_err("unknown writer");
        assert_eq!(v.axiom, "rf-wf");
    }

    #[test]
    fn co_missing_perform_rejected() {
        let x = Execution { cores: vec![vec![st(1, X, 1)]], ser: vec![] };
        let v = check(&x).expect_err("store never performed");
        assert_eq!(v.axiom, "co-wf");
        assert!(v.detail.contains("never performed"));
    }

    #[test]
    fn co_value_mismatch_rejected() {
        // The serialization log claims a different value than committed —
        // catches swapped store values even with no reader.
        let x = Execution { cores: vec![vec![st(1, X, 1)]], ser: vec![ser(0, 1, X, 9)] };
        let v = check(&x).expect_err("ser value mismatch");
        assert_eq!(v.axiom, "co-wf");
    }

    #[test]
    fn co_epoch_regression_rejected() {
        let mut s1 = ser(0, 1, X, 1);
        s1.epoch = 5;
        let s2 = ser(0, 2, X, 2); // epoch 0 < 5 on the same line
        let x = Execution { cores: vec![vec![st(1, X, 1), st(2, X, 2)]], ser: vec![s1, s2] };
        let v = check(&x).expect_err("epoch regression");
        assert_eq!(v.axiom, "co-wf");
        assert!(v.detail.contains("epoch"), "got: {}", v.detail);
    }

    #[test]
    fn unlock_outside_lock_window_rejected() {
        let x = Execution {
            cores: vec![vec![ll(1, X, 0, WRITE_ID_INIT), su(3, X, 1)]],
            // Logged as a plain (unlocked) perform: the atomicity window
            // was dropped.
            ser: vec![ser(0, 3, X, 1)],
        };
        let v = check(&x).expect_err("unlock outside window");
        assert_eq!(v.axiom, "co-wf");
        assert!(v.detail.contains("lock window"));
    }

    #[test]
    fn coww_rejected() {
        // Two po-ordered stores serialized in the opposite order.
        let x = Execution {
            cores: vec![vec![st(1, X, 1), st(2, X, 2)]],
            ser: vec![ser(0, 2, X, 2), ser(0, 1, X, 1)],
        };
        let v = check(&x).expect_err("CoWW");
        assert_eq!(v.axiom, "sc-per-location");
        assert!(v.detail.contains("CoWW"));
    }

    #[test]
    fn corr_rejected() {
        // Two po-ordered reads observing co in the wrong order.
        let x = Execution {
            cores: vec![
                vec![st(1, X, 1), st(2, X, 2)],
                vec![ld(1, X, 2, write_id(0, 2)), ld(2, X, 1, write_id(0, 1))],
            ],
            ser: vec![ser(0, 1, X, 1), ser(0, 2, X, 2)],
        };
        let v = check(&x).expect_err("CoRR");
        assert_eq!(v.axiom, "sc-per-location");
        assert!(v.detail.contains("CoRR"));
    }

    #[test]
    fn rmw_window_violation_rejected() {
        // A foreign store lands between the load_lock's read and its
        // store_unlock in co: atomicity broken.
        let x = Execution {
            cores: vec![
                vec![ll(1, X, 0, WRITE_ID_INIT), su(3, X, 1)],
                vec![st(1, X, 7)],
            ],
            // co(X): foreign write first, then the unlock — the LL read
            // initial memory (position 0) but its SU sits at position 2.
            ser: vec![ser(1, 1, X, 7), ser_unlock(0, 3, X, 1)],
        };
        let v = check(&x).expect_err("atomicity window violated");
        assert_eq!(v.axiom, "rmw-atomicity");
        assert!(v.detail.contains("intervening write"), "got: {}", v.detail);
    }

    #[test]
    fn rmw_interleaved_counter_accepted() {
        // Two cores each FetchAdd the same counter once; windows do not
        // overlap.
        let x = Execution {
            cores: vec![
                vec![ll(1, X, 0, WRITE_ID_INIT), su(3, X, 1)],
                vec![ll(1, X, 1, write_id(0, 3)), su(3, X, 2)],
            ],
            ser: vec![ser_unlock(0, 3, X, 1), ser_unlock(1, 3, X, 2)],
        };
        check(&x).expect("clean interleaving accepted");
    }

    #[test]
    fn violation_display_names_axiom() {
        let v = Violation { axiom: "tso-ghb", detail: "cycle".into() };
        assert_eq!(v.to_string(), "axiom tso-ghb violated: cycle");
    }

    // ---- weak-model parameterization ----

    /// MP with relaxed accesses everywhere: stale data is TSO-illegal but
    /// weak-legal (the reader's R→R is not preserved without acquire).
    fn mp_stale(reader_ord: MemOrder) -> Execution {
        Execution {
            cores: vec![
                vec![st(1, X, 1), st(2, Y, 1)],
                vec![
                    ld_ord(1, Y, 1, write_id(0, 2), reader_ord),
                    ld(2, X, 0, WRITE_ID_INIT),
                ],
            ],
            ser: vec![ser(0, 1, X, 1), ser(0, 2, Y, 1)],
        }
    }

    #[test]
    fn weak_allows_mp_relaxed_reorder() {
        let x = mp_stale(MemOrder::Relaxed);
        check(&x).expect_err("TSO forbids MP stale data");
        check_model(&x, MemModel::Weak).expect("weak allows it without acquire");
    }

    #[test]
    fn weak_rejects_mp_with_acquire_load() {
        let x = mp_stale(MemOrder::Acquire);
        let v = check_model(&x, MemModel::Weak).expect_err("acquire restores R->R");
        assert_eq!(v.axiom, "weak-ghb");
        assert!(v.detail.contains("cycle"), "got: {}", v.detail);
    }

    #[test]
    fn weak_rejects_mp_with_acquire_fence() {
        // Reader: Ld y=1; Fence.acq; Ld x=0. Every logged fence is
        // architecturally enforced, so even a non-SC fence restores R->R.
        let x = Execution {
            cores: vec![
                vec![st(1, X, 1), st(2, Y, 1)],
                vec![
                    ld(1, Y, 1, write_id(0, 2)),
                    fence_ord(2, MemOrder::Acquire),
                    ld(3, X, 0, WRITE_ID_INIT),
                ],
            ],
            ser: vec![ser(0, 1, X, 1), ser(0, 2, Y, 1)],
        };
        let v = check_model(&x, MemModel::Weak).expect_err("fence restores R->R");
        assert_eq!(v.axiom, "weak-ghb");
    }

    #[test]
    fn weak_keeps_write_write_order() {
        // The writer side of MP needs no release annotation: the FIFO
        // store buffer keeps W->W even for relaxed stores, so once the
        // reader uses acquire the stale-data outcome is forbidden with a
        // fully relaxed writer (release stores are architecturally free).
        let x = Execution {
            cores: vec![
                vec![st(1, X, 1), st(2, Y, 1)],
                vec![
                    ld_ord(1, Y, 1, write_id(0, 2), MemOrder::Acquire),
                    ld(2, X, 0, WRITE_ID_INIT),
                ],
            ],
            ser: vec![ser(0, 2, Y, 1), ser(0, 1, X, 1)],
        };
        let v = check_model(&x, MemModel::Weak).expect_err("W->W is kept");
        assert_eq!(v.axiom, "weak-ghb");
    }

    #[test]
    fn weak_allows_sb_without_sc() {
        // Store buffering, all relaxed: both-read-zero is weak-legal
        // (and TSO-legal — W->R is relaxed under both).
        let x = Execution {
            cores: vec![
                vec![st(1, X, 1), ld(2, Y, 0, WRITE_ID_INIT)],
                vec![st(1, Y, 1), ld(2, X, 0, WRITE_ID_INIT)],
            ],
            ser: vec![ser(0, 1, X, 1), ser(1, 1, Y, 1)],
        };
        check_model(&x, MemModel::Weak).expect("SB weak outcome allowed");
    }

    #[test]
    fn weak_rejects_sb_with_sc_fences() {
        let x = Execution {
            cores: vec![
                vec![st(1, X, 1), fence(2), ld(3, Y, 0, WRITE_ID_INIT)],
                vec![st(1, Y, 1), fence(2), ld(3, X, 0, WRITE_ID_INIT)],
            ],
            ser: vec![ser(0, 1, X, 1), ser(1, 1, Y, 1)],
        };
        let v = check_model(&x, MemModel::Weak).expect_err("SC fences restore W->R");
        assert_eq!(v.axiom, "weak-ghb");
    }

    #[test]
    fn weak_acquire_fence_does_not_restore_store_load() {
        // An acquire fence does not drain the store buffer: SB's
        // both-read-zero stays legal when the fences are only acquire.
        let x = Execution {
            cores: vec![
                vec![st(1, X, 1), fence_ord(2, MemOrder::Acquire), ld(3, Y, 0, WRITE_ID_INIT)],
                vec![st(1, Y, 1), fence_ord(2, MemOrder::Acquire), ld(3, X, 0, WRITE_ID_INIT)],
            ],
            ser: vec![ser(0, 1, X, 1), ser(1, 1, Y, 1)],
        };
        check_model(&x, MemModel::Weak).expect("acquire fence keeps W->R relaxed");
    }

    #[test]
    fn weak_rejects_sb_with_sc_stores() {
        // SC-annotated stores are out-ordering under weak: the store
        // happens-before the po-later load, so both-read-zero cycles.
        let x = Execution {
            cores: vec![
                vec![st_ord(1, X, 1, MemOrder::SeqCst), ld(2, Y, 0, WRITE_ID_INIT)],
                vec![st_ord(1, Y, 1, MemOrder::SeqCst), ld(2, X, 0, WRITE_ID_INIT)],
            ],
            ser: vec![ser(0, 1, X, 1), ser(1, 1, Y, 1)],
        };
        let v = check_model(&x, MemModel::Weak).expect_err("SC stores restore W->R");
        assert_eq!(v.axiom, "weak-ghb");
    }

    #[test]
    fn weak_rmw_store_unlock_not_out_ordering() {
        // The Fig. 10 SB-with-RMWs outcome: TSO-illegal, but the *weak
        // axioms* accept it — a `store_unlock` is not out-ordering under
        // weak (the RMW's acquire side lives on its `load_lock`), so no
        // SU->Ld edge closes the cycle. The weak checker is deliberately
        // looser here than both the hardware (whose SB-empty commit gate
        // never produces this outcome) and the enumerator; all
        // conformance assertions are one-directional, so looseness is
        // sound.
        let x = Execution {
            cores: vec![
                vec![ll(1, X, 0, WRITE_ID_INIT), su(3, X, 1), ld(4, Y, 0, WRITE_ID_INIT)],
                vec![ll(1, Y, 0, WRITE_ID_INIT), su(3, Y, 1), ld(4, X, 0, WRITE_ID_INIT)],
            ],
            ser: vec![ser_unlock(0, 3, X, 1), ser_unlock(1, 3, Y, 1)],
        };
        let v = check(&x).expect_err("TSO forbids SB-with-RMWs (0,0)");
        assert_eq!(v.axiom, "tso-ghb");
        check_model(&x, MemModel::Weak).expect("weak axioms accept it");
    }

    #[test]
    fn weak_relaxed_load_may_pass_later_rmw_read() {
        // A relaxed load is NOT ordered into a po-later load_lock: the
        // MP-stale shape with an intervening RMW on a disjoint address
        // stays weak-legal (C++ SC-RMW acquire semantics order later ops
        // after the RMW *read*, not earlier loads before it), while the
        // RMW's own acquire side still orders the po-later stale load —
        // which TSO turns into a cycle.
        const Z: u64 = 0x1080;
        let x = Execution {
            cores: vec![
                vec![st(1, X, 1), st(2, Y, 1)],
                vec![
                    ld(1, Y, 1, write_id(0, 2)),
                    ll(2, Z, 0, WRITE_ID_INIT),
                    su(4, Z, 1),
                    ld(5, X, 0, WRITE_ID_INIT),
                ],
            ],
            ser: vec![ser(0, 1, X, 1), ser(0, 2, Y, 1), ser_unlock(1, 4, Z, 1)],
        };
        check_model(&x, MemModel::Weak).expect("relaxed load passes later RMW read");
        check(&x).expect_err("TSO keeps R->R through the RMW");
    }

    #[test]
    fn weak_acquire_covers_nonadjacent_later_loads() {
        // Reader: Ld.acq y=1; St z; Ld x=0. The intervening store must
        // not strand the stale load outside the acquire's reach — pins
        // the prev-out coverage edge in the compressed weak encoding.
        const Z: u64 = 0x1080;
        let x = Execution {
            cores: vec![
                vec![st(1, X, 1), st(2, Y, 1)],
                vec![
                    ld_ord(1, Y, 1, write_id(0, 2), MemOrder::Acquire),
                    st(2, Z, 1),
                    ld(3, X, 0, WRITE_ID_INIT),
                ],
            ],
            ser: vec![ser(0, 1, X, 1), ser(0, 2, Y, 1), ser(1, 2, Z, 1)],
        };
        let v = check_model(&x, MemModel::Weak).expect_err("acquire orders all later loads");
        assert_eq!(v.axiom, "weak-ghb");
    }

    #[test]
    fn weak_model_leaves_uniproc_axioms_intact() {
        // Per-location coherence is model-independent: CoRR still rejected.
        let x = Execution {
            cores: vec![
                vec![st(1, X, 1), st(2, X, 2)],
                vec![ld(1, X, 2, write_id(0, 2)), ld(2, X, 1, write_id(0, 1))],
            ],
            ser: vec![ser(0, 1, X, 1), ser(0, 2, X, 2)],
        };
        let v = check_model(&x, MemModel::Weak).expect_err("CoRR is model-independent");
        assert_eq!(v.axiom, "sc-per-location");
    }
}
