//! Directory + shared LLC.
//!
//! A finite, **inclusive** directory of privately cached lines (Table 1:
//! "400 % coverage, 16 ways"). Per-line transactions serialize conflicting
//! requests; allocating an entry in a full set evicts a victim entry, which
//! back-invalidates every private copy — the source of the inclusion
//! deadlock the paper discusses in §3.2.5 (a parked back-invalidation stalls
//! the set until the locking core's watchdog intervenes).
//!
//! The LLC itself is a tag-only latency filter: a request whose line misses
//! pays the main-memory latency, otherwise the LLC latency.

use crate::msgs::{DirMsg, DirReq, DirReqKind, L1Msg, LatClass};
use crate::progress::ProgressGuard;
use crate::stats::DirStats;
use crate::tagarray::TagArray;
use crate::{CoreId, Cycle, FxHashMap, Line, MemConfig};
use fa_trace::{TraceBuf, TraceEvent};
use std::collections::VecDeque;
use std::num::NonZeroU32;

/// Consecutive failed allocation polls after which a request is promoted to
/// a *rescue reservation*: the next way freed in its set is held for it
/// alone. This is an anti-livelock valve, not a fairness policy — under
/// exactly periodic interconnect timing, a stream of fresh requests can win
/// every freed way forever while an older request polls every cycle. The
/// threshold sits far above anything a forward-progressing run produces
/// (whole golden runs accumulate < 2k waits *in total*), so normal timing
/// is untouched.
const ALLOC_RESCUE_THRESHOLD: u64 = 10_000;

/// Polls by *other* requests tolerated while a rescue reservation's owner
/// is absent before the reservation is dropped. Guards against wedging a
/// set on a reservation whose owner stopped retrying.
const ALLOC_RESCUE_ABANDON: u64 = 4_096;

/// An in-flight per-line transaction.
#[derive(Clone, Copy, Debug)]
struct Txn {
    /// Bitmask of cores whose ack is awaited.
    awaiting: u64,
    /// Request to grant when the acks complete (None for pure evictions);
    /// the third element is the park time the request accumulated behind
    /// this entry before processing began (attribution metadata only).
    grant: Option<(DirReq, LatClass, Cycle)>,
    /// True for inclusion evictions: free the entry on completion.
    free_after: bool,
    /// Grantee whose fill-completion Unblock is awaited. While set, the
    /// entry stays serialized: no invalidation for a later requester can
    /// overtake the grant in flight.
    awaiting_unblock: Option<CoreId>,
}

impl Txn {
    fn acks(awaiting: u64, grant: Option<(DirReq, LatClass, Cycle)>, free_after: bool) -> Txn {
        Txn { awaiting, grant, free_after, awaiting_unblock: None }
    }

    fn unblock_of(core: CoreId) -> Txn {
        Txn { awaiting: 0, grant: None, free_after: false, awaiting_unblock: Some(core) }
    }
}

/// Directory entry for one line: its stable state. A transaction in
/// flight, and the requests parked behind it, live in the directory's
/// [`TxnTable`], which the entry names while it has one.
#[derive(Clone, Copy, Debug, Default)]
struct DirEntry {
    /// Bitmask of (possibly stale) sharers.
    sharers: u64,
    /// Exclusive owner, if any (also set in `sharers`).
    excl: Option<CoreId>,
    /// The line's record in the transaction table; `None` while the line
    /// has no transaction in flight and no request parked.
    rec: Option<RecId>,
}

impl DirEntry {
    fn idle_unused(&self) -> bool {
        self.sharers == 0 && self.excl.is_none() && self.rec.is_none()
    }
}

/// A slot of the [`TxnTable`], plus one (so that `Option<RecId>` is
/// four bytes).
type RecId = NonZeroU32;

/// The transient state of one line.
#[derive(Debug, Default)]
struct TxnRecord {
    /// Serializing transaction.
    busy: Option<Txn>,
    /// Requests parked behind `busy`, each stamped with its arrival cycle
    /// so the eventual grant can report the park duration (the stamp is
    /// attribution metadata — protocol logic never reads it).
    parked: VecDeque<(DirReq, Cycle)>,
}

/// The directory's transaction records (gem5 Ruby's TBE table): a record
/// per line with a transaction in flight or requests parked, so a
/// resident line costs only its [`DirEntry`]. Records and their park
/// queues keep their storage when released, and across a reset.
#[derive(Debug, Default)]
struct TxnTable {
    recs: Vec<TxnRecord>,
    /// Released slots; the next record takes the last.
    free: Vec<u32>,
}

impl TxnTable {
    /// Releases every record, keeping their storage.
    fn reset(&mut self) {
        for r in &mut self.recs {
            r.busy = None;
            r.parked.clear();
        }
        self.free.clear();
        self.free.extend((0..self.recs.len() as u32).rev());
    }

    fn get(&self, e: &DirEntry) -> Option<&TxnRecord> {
        e.rec.map(|id| &self.recs[id.get() as usize - 1])
    }

    fn get_mut(&mut self, e: &DirEntry) -> Option<&mut TxnRecord> {
        e.rec.map(|id| &mut self.recs[id.get() as usize - 1])
    }

    /// The transaction in flight on `e`'s line.
    fn busy(&self, e: &DirEntry) -> Option<Txn> {
        self.get(e).and_then(|r| r.busy)
    }

    /// `e`'s record, taking a free one if the line has none.
    fn open(&mut self, e: &mut DirEntry) -> &mut TxnRecord {
        let id = *e.rec.get_or_insert_with(|| {
            let slot = self.free.pop().unwrap_or_else(|| {
                self.recs.push(TxnRecord::default());
                self.recs.len() as u32 - 1
            });
            RecId::MIN.saturating_add(slot)
        });
        &mut self.recs[id.get() as usize - 1]
    }

    /// Releases `e`'s record once it holds no transaction and no parked
    /// request.
    fn close_if_idle(&mut self, e: &mut DirEntry) {
        if self.get(e).is_some_and(|r| r.busy.is_none() && r.parked.is_empty()) {
            self.free.extend(e.rec.take().map(|id| id.get() - 1));
        }
    }
}

/// Actions the directory asks the system to carry out. `ToL1` actions are
/// routed onto the interconnect's response port ([`crate::noc`]): the
/// directory decides *what* to send and the access latency (`extra`); the
/// crossbar decides network latency, jitter and contention.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum DirAction {
    /// Send `msg` to core `core` after `extra` cycles of access time (the
    /// extra models directory/LLC/memory lookup) plus whatever network
    /// latency the interconnect charges.
    ToL1 { core: CoreId, msg: L1Msg, extra: Cycle },
    /// Re-inject a request into the directory next cycle (it is waiting for
    /// an entry allocation; the system polls it until a way frees up).
    Redispatch(DirReq),
}

fn bit(c: CoreId) -> u64 {
    1u64 << c.index()
}

/// The directory controller. `Default` is empty storage, which
/// [`Directory::reset`] makes a directory.
#[derive(Debug, Default)]
pub struct Directory {
    entries: TagArray<DirEntry>,
    /// Transaction records of the lines in `entries` that have one.
    txns: TxnTable,
    llc: TagArray<()>,
    dir_lat: Cycle,
    llc_lat: Cycle,
    mem_lat: Cycle,
    /// The directory's counters, as `MemStats` publishes them.
    pub(crate) stats: DirStats,
    /// Forward-progress guard for allocation polling (site `dir-alloc`):
    /// counts consecutive failed polls per starving request; the rescue
    /// valve fires at [`ALLOC_RESCUE_THRESHOLD`]. Keyed lookups only, so
    /// the guard never affects event ordering.
    pub(crate) alloc_guard: ProgressGuard<(CoreId, Line)>,
    /// Cores whose allocation wait ([`Directory::core_alloc_waiting`])
    /// began since the system last took the mask. A wait ends only where
    /// its request allocates, which grants to the requester in the same
    /// call.
    pub(crate) alloc_moved: u64,
    /// Active rescue reservation: the next way freed in this request's set
    /// is reserved for it alone. See [`ALLOC_RESCUE_THRESHOLD`].
    alloc_rescue: Option<(CoreId, Line)>,
    /// Polls by other requests in the rescued set since the reservation
    /// owner last polled.
    rescue_absent: u64,
    /// Current cycle, set by the system before dispatching messages
    /// (event timestamps only — never consulted by protocol logic).
    now: Cycle,
    /// Structured event ring for the directory.
    pub(crate) trace: TraceBuf,
    /// Conformance-check collection enabled (`cfg.check`).
    epochs_on: bool,
    /// Per-line write-epoch: bumped on every exclusive grant. Keyed
    /// outside the tag array so it survives entry eviction and keeps
    /// increasing for the line's whole lifetime. Empty while checking is
    /// off; never consulted by protocol logic.
    write_epochs: FxHashMap<Line, u64>,
}

impl Directory {
    /// Creates a directory per `cfg`.
    pub fn new(cfg: &MemConfig) -> Directory {
        let mut d = Directory::default();
        d.reset(cfg);
        d
    }

    /// Puts the directory in exactly the state [`new`](Self::new) builds,
    /// keeping the storage of its tag arrays, transaction table, epoch map
    /// and trace ring.
    pub fn reset(&mut self, cfg: &MemConfig) {
        let Directory {
            entries, txns, llc, dir_lat, llc_lat, mem_lat, stats, alloc_guard, alloc_moved, alloc_rescue,
            rescue_absent, now, trace, epochs_on, write_epochs,
        } = self;
        entries.reset(cfg.dir_sets, cfg.dir_ways);
        txns.reset();
        llc.reset(cfg.llc_sets, cfg.llc_ways);
        (*dir_lat, *llc_lat, *mem_lat) = (cfg.dir_lat, cfg.llc_lat, cfg.mem_lat);
        *stats = DirStats::default();
        alloc_guard.reset();
        (*alloc_moved, *alloc_rescue, *rescue_absent, *now) = (0, None, 0, 0);
        trace.reset(&cfg.trace);
        *epochs_on = cfg.check.on();
        write_epochs.clear();
    }

    /// Bumps the line's write-epoch (called at every exclusive grant).
    fn bump_write_epoch(&mut self, line: Line) {
        if self.epochs_on {
            *self.write_epochs.entry(line).or_insert(0) += 1;
        }
    }

    /// The line's current write-epoch. Must be non-decreasing along the
    /// line's write-serialization order — the conformance checker's
    /// cross-check that performs funnel through directory grants.
    pub(crate) fn write_epoch(&self, line: Line) -> u64 {
        self.write_epochs.get(&line).copied().unwrap_or(0)
    }

    /// Sets the directory clock (trace timestamps only).
    pub(crate) fn set_now(&mut self, now: Cycle) {
        self.now = now;
    }

    /// Handles a message addressed to the directory.
    pub(crate) fn handle(&mut self, msg: DirMsg, out: &mut Vec<DirAction>) {
        match msg {
            DirMsg::Req(req) => self.process_req(req, out),
            DirMsg::InvAck { from, line } => {
                let e = self.entries.peek_mut(line).expect("InvAck for absent entry");
                e.sharers &= !bit(from);
                if e.excl == Some(from) {
                    e.excl = None;
                }
                let rec = self.txns.get_mut(e);
                let txn = rec.and_then(|r| r.busy.as_mut()).expect("InvAck with no transaction");
                txn.awaiting &= !bit(from);
                if txn.awaiting == 0 {
                    self.complete_txn(line, out);
                }
            }
            DirMsg::DownAck { from, line, had_line } => {
                let e = self.entries.peek_mut(line).expect("DownAck for absent entry");
                if had_line {
                    // Owner keeps a shared copy.
                    e.sharers |= bit(from);
                } else {
                    e.sharers &= !bit(from);
                }
                if e.excl == Some(from) {
                    e.excl = None;
                }
                let rec = self.txns.get_mut(e);
                let txn = rec.and_then(|r| r.busy.as_mut()).expect("DownAck with no transaction");
                txn.awaiting &= !bit(from);
                if txn.awaiting == 0 {
                    self.complete_txn(line, out);
                }
            }
            DirMsg::Unblock { from, line } => {
                let e = self.entries.peek_mut(line).expect("Unblock for absent entry");
                let rec = self.txns.get_mut(e);
                let txn = rec.and_then(|r| r.busy.take()).expect("Unblock with no transaction");
                debug_assert_eq!(txn.awaiting_unblock, Some(from), "unexpected unblocker");
                self.pump_parked(line, out);
            }
        }
    }

    /// Processes parked requests until the entry blocks again, and
    /// releases its record if it drains.
    #[allow(clippy::while_let_loop)] // three distinct exit conditions
    fn pump_parked(&mut self, line: Line, out: &mut Vec<DirAction>) {
        loop {
            let Some(e) = self.entries.peek_mut(line) else { break };
            if self.txns.busy(e).is_some() {
                break;
            }
            let next = self.txns.get_mut(e).and_then(|r| r.parked.pop_front());
            let Some((req, since)) = next else {
                self.txns.close_if_idle(e);
                break;
            };
            let waited = self.now.saturating_sub(since);
            self.process_on_idle_entry(req, waited, out);
        }
    }

    fn process_req(&mut self, req: DirReq, out: &mut Vec<DirAction>) {
        if self.entries.peek(req.line).is_none() {
            // A fresh entry has no sharers: the grant is exclusive.
            if let Some(class) = self.try_allocate(req, out) {
                self.grant(req, class, 0, out);
            }
            return;
        }
        let now = self.now;
        let e = self.entries.peek_mut(req.line).expect("peeked non-absent above");
        if self.txns.busy(e).is_some() {
            self.txns.open(e).parked.push_back((req, now));
            self.trace.record(self.now, TraceEvent::DirPark { line: req.line });
            return;
        }
        self.process_on_idle_entry(req, 0, out);
    }

    /// Processes `req` against an existing, idle entry. `park` is how long
    /// the request already sat parked behind this entry (0 when served
    /// directly); it rides along on the eventual grant for attribution.
    fn process_on_idle_entry(&mut self, req: DirReq, park: Cycle, out: &mut Vec<DirAction>) {
        let dir_lat = self.dir_lat;
        // Callers guarantee the entry exists and is idle.
        let e = self.entries.peek_mut(req.line).expect("idle entry exists");
        debug_assert!(self.txns.busy(e).is_none());
        let others = e.sharers & !bit(req.from);
        match (req.kind, e.excl) {
            // Another core owns the line: downgrade it first.
            (DirReqKind::GetS, Some(owner)) if owner != req.from => {
                let grant = Some((req, LatClass::Remote, park));
                self.txns.open(e).busy = Some(Txn::acks(bit(owner), grant, false));
                out.push(DirAction::ToL1 {
                    core: owner,
                    msg: L1Msg::Downgrade { line: req.line },
                    extra: dir_lat,
                });
            }
            // Other copies must go before the write: invalidate them first.
            (DirReqKind::GetX, excl) if others != 0 => {
                let class = if excl.is_some() { LatClass::Remote } else { LatClass::Llc };
                self.txns.open(e).busy = Some(Txn::acks(others, Some((req, class, park)), false));
                for c in cores_in(others) {
                    out.push(DirAction::ToL1 {
                        core: c,
                        msg: L1Msg::Inv { line: req.line },
                        extra: dir_lat,
                    });
                }
            }
            // No conflicting copy (or only the requester's own, after a
            // silent eviction): grant now.
            _ => self.grant(req, LatClass::Llc, park, out),
        }
    }

    /// Grants `req` on its resident entry and holds the entry until the
    /// grantee's `Unblock`: exclusive when no other core shares the line,
    /// otherwise shared. `class` and `park` ride along on the grant.
    fn grant(&mut self, req: DirReq, class: LatClass, park: Cycle, out: &mut Vec<DirAction>) {
        let extra = self.dir_lat + self.class_extra(class);
        let e = self.entries.peek_mut(req.line).expect("granted entry resident");
        let exclusive = e.sharers & !bit(req.from) == 0;
        debug_assert!(exclusive || req.kind == DirReqKind::GetS, "GetX granted over sharers");
        self.txns.open(e).busy = Some(Txn::unblock_of(req.from));
        let line = req.line;
        let msg = if exclusive {
            e.excl = Some(req.from);
            e.sharers = bit(req.from);
            self.bump_write_epoch(line);
            L1Msg::GrantX { line, class, park }
        } else {
            e.excl = None;
            e.sharers |= bit(req.from);
            L1Msg::GrantS { line, class, park }
        };
        out.push(DirAction::ToL1 { core: req.from, msg, extra });
    }

    /// Allocates an entry (and an LLC tag) for `req.line`. Returns the
    /// latency class on success; on failure the request is emitted as a
    /// [`DirAction::Redispatch`], which the system replays next cycle —
    /// polling until an inclusion eviction frees a way.
    fn try_allocate(&mut self, req: DirReq, out: &mut Vec<DirAction>) -> Option<LatClass> {
        let key = (req.from, req.line);
        if let Some(rescue) = self.alloc_rescue {
            let same_set = self.entries.set_index(rescue.1) == self.entries.set_index(req.line);
            if same_set && rescue == key {
                self.rescue_absent = 0;
            } else if same_set {
                self.rescue_absent += 1;
                if self.rescue_absent > ALLOC_RESCUE_ABANDON {
                    // The reservation owner stopped retrying; drop the
                    // reservation rather than wedging the set.
                    self.alloc_rescue = None;
                } else {
                    // A starved request holds a reservation on this set's
                    // next freed way — don't compete for it.
                    out.push(DirAction::Redispatch(req));
                    return None;
                }
            }
        }
        let occupancy = self.entries.set_lines(req.line).count();
        if occupancy < self.entries.num_ways() {
            self.entries
                .insert(req.line, DirEntry::default(), |_| true)
                .expect("set not full");
            self.note_alloc_success(key);
            return Some(self.llc_class(req.line));
        }
        // Full set: free an unused entry if one exists.
        let reusable = self
            .entries
            .set_lines(req.line)
            .find(|(_, e)| e.idle_unused())
            .map(|(l, _)| l);
        if let Some(victim) = reusable {
            self.entries.remove(victim);
            self.entries
                .insert(req.line, DirEntry::default(), |_| true)
                .expect("way just freed");
            self.note_alloc_success(key);
            return Some(self.llc_class(req.line));
        }
        // Inclusion eviction: back-invalidate a victim's sharers, unless one
        // such eviction is already in flight for this set.
        let evicting = self
            .entries
            .set_lines(req.line)
            .any(|(_, e)| self.txns.busy(e).map(|t| t.free_after).unwrap_or(false));
        if !evicting {
            let victim = self
                .entries
                .set_lines(req.line)
                .find(|(_, e)| self.txns.busy(e).is_none())
                .map(|(l, _)| l);
            if let Some(vline) = victim {
                self.begin_back_inval(vline, out);
            }
            // If every entry is mid-transaction, simply wait for one to
            // finish — the poll below retries.
        }
        let polls = self.alloc_guard.note_attempt(key);
        if polls == 1 {
            self.alloc_moved |= bit(req.from);
        }
        if polls >= ALLOC_RESCUE_THRESHOLD && self.alloc_rescue.is_none() {
            self.alloc_rescue = Some(key);
            self.rescue_absent = 0;
            self.stats.alloc_rescues += 1;
            self.trace.record(self.now, TraceEvent::DirRescue { line: req.line });
        }
        out.push(DirAction::Redispatch(req));
        None
    }

    /// Clears starvation-valve state after `key` allocated its entry.
    fn note_alloc_success(&mut self, key: (CoreId, Line)) {
        self.trace.record(self.now, TraceEvent::DirAlloc { line: key.1 });
        self.alloc_guard.note_success(key);
        if self.alloc_rescue == Some(key) {
            self.alloc_rescue = None;
            self.rescue_absent = 0;
        }
    }

    /// Starts an inclusion eviction of `vline`: back-invalidate every
    /// (superset) sharer and free the entry once the acks collect.
    fn begin_back_inval(&mut self, vline: Line, out: &mut Vec<DirAction>) {
        self.stats.entry_evictions += 1;
        self.trace.record(self.now, TraceEvent::DirEvict { line: vline });
        let dir_lat = self.dir_lat;
        let e = self.entries.peek_mut(vline).expect("eviction victim resident");
        let targets = e.sharers;
        self.txns.open(e).busy = Some(Txn::acks(targets, None, true));
        for c in cores_in(targets) {
            out.push(DirAction::ToL1 {
                core: c,
                msg: L1Msg::Inv { line: vline },
                extra: dir_lat,
            });
        }
    }

    /// Fault injection: force inclusion evictions of up to `n` idle entries
    /// with live sharers (a back-invalidation storm). Reuses the ordinary
    /// `free_after` transaction path, so storms are protocol-
    /// indistinguishable from real directory-conflict evictions — including
    /// the §3.2.5 hazard of a back-invalidation parking on a locked line.
    /// Returns the number of evictions started.
    pub(crate) fn storm_evict(&mut self, n: u32, out: &mut Vec<DirAction>) -> u64 {
        let victims: Vec<Line> = self
            .entries
            .iter()
            .filter(|(_, e)| self.txns.busy(e).is_none() && e.sharers != 0)
            .map(|(l, _)| l)
            .take(n as usize)
            .collect();
        for &vline in &victims {
            self.begin_back_inval(vline, out);
        }
        victims.len() as u64
    }

    fn llc_class(&mut self, line: Line) -> LatClass {
        if self.llc.touch(line).is_some() {
            LatClass::Llc
        } else {
            // Fill the LLC tag; LLC evictions are silent (the LLC is not an
            // inclusion point — the directory is).
            let _ = self.llc.insert(line, (), |_| false);
            LatClass::Mem
        }
    }

    fn class_extra(&self, class: LatClass) -> Cycle {
        match class {
            LatClass::Mem => self.mem_lat,
            LatClass::Llc => self.llc_lat,
            _ => 0,
        }
    }

    fn complete_txn(&mut self, line: Line, out: &mut Vec<DirAction>) {
        let e = self.entries.peek_mut(line).expect("txn on absent entry");
        let txn = self.txns.get_mut(e).and_then(|r| r.busy.take()).expect("complete without txn");
        debug_assert_eq!(txn.awaiting, 0);
        if txn.free_after {
            // Parked requests restart from scratch via Redispatch; their
            // park stamps are dropped, so park attribution undercounts
            // across inclusion evictions (rare, and an undercount only).
            for (req, _) in self.txns.open(e).parked.drain(..) {
                out.push(DirAction::Redispatch(req));
            }
            self.txns.close_if_idle(e);
            self.entries.remove(line);
            return;
        }
        if let Some((req, class, park)) = txn.grant {
            // The acks removed every other copy a GetX waited on.
            self.grant(req, class, park, out);
        } else {
            // Pure ack-collection transactions (none today outside
            // evictions) fall through to pumping.
            self.pump_parked(line, out);
        }
    }

    /// Sharer bitmask for `line` (tests and invariant checks).
    pub fn sharers(&self, line: Line) -> u64 {
        self.entries.peek(line).map(|e| e.sharers).unwrap_or(0)
    }

    /// Exclusive owner for `line`, if tracked.
    pub fn owner(&self, line: Line) -> Option<CoreId> {
        self.entries.peek(line).and_then(|e| e.excl)
    }

    /// True if the directory tracks `line` at all.
    pub fn has_entry(&self, line: Line) -> bool {
        self.entries.peek(line).is_some()
    }

    /// True when `core` has a request polling for directory-entry
    /// allocation (an outstanding `dir-alloc` retry site). Pure read over
    /// the progress guard's attempt table — used by the cycle-accounting
    /// classifier, never by protocol logic.
    pub(crate) fn core_alloc_waiting(&self, core: CoreId) -> bool {
        self.alloc_guard.keys().any(|(c, _)| *c == core)
    }

    /// Lines whose entries have a transaction in flight, in deterministic
    /// set order (diagnostics).
    pub(crate) fn busy_lines(&self) -> impl Iterator<Item = Line> + '_ {
        self.entries.iter().filter(|(_, e)| self.txns.busy(e).is_some()).map(|(l, _)| l)
    }

    /// Requests parked behind transactions in flight (diagnostics).
    pub(crate) fn parked_requests(&self) -> usize {
        self.txns.recs.iter().map(|r| r.parked.len()).sum()
    }

    /// Test-only: forcibly drops the entry for `line`, bypassing the
    /// protocol. Exists solely to prove the inclusion audit fires.
    #[cfg(test)]
    pub(crate) fn force_drop_entry(&mut self, line: Line) {
        self.entries.remove(line);
    }

    #[cfg(test)]
    pub(crate) fn force_sharers(&mut self, line: Line, sharers: u64) {
        let entry = DirEntry { sharers, ..DirEntry::default() };
        self.entries.insert(line, entry, |_| false).expect("a free way");
    }
}

/// Iterates the core ids set in `mask`.
fn cores_in(mask: u64) -> impl Iterator<Item = CoreId> {
    (0..64u16).filter(move |i| mask & (1 << i) != 0).map(CoreId)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dir() -> Directory {
        Directory::new(&MemConfig::tiny())
    }

    /// True if the entry for `line` has a transaction in flight.
    fn busy(d: &Directory, line: Line) -> bool {
        d.entries.peek(line).is_some_and(|e| d.txns.busy(e).is_some())
    }

    fn gets(c: u16, line: Line) -> DirMsg {
        DirMsg::Req(DirReq { from: CoreId(c), line, kind: DirReqKind::GetS })
    }

    fn getx(c: u16, line: Line) -> DirMsg {
        DirMsg::Req(DirReq { from: CoreId(c), line, kind: DirReqKind::GetX })
    }

    fn unblock(d: &mut Directory, c: u16, line: Line, out: &mut Vec<DirAction>) {
        d.handle(DirMsg::Unblock { from: CoreId(c), line }, out);
    }

    fn down_ack(c: u16, line: Line, had: bool) -> DirMsg {
        DirMsg::DownAck { from: CoreId(c), line, had_line: had }
    }

    fn grants_x(out: &[DirAction], core: u16, line: Line) -> bool {
        out.iter().any(|a| {
            matches!(a, DirAction::ToL1 { core: c, msg: L1Msg::GrantX { line: l, .. }, .. }
                if c.0 == core && *l == line)
        })
    }

    fn grants_s(out: &[DirAction], core: u16, line: Line) -> bool {
        out.iter().any(|a| {
            matches!(a, DirAction::ToL1 { core: c, msg: L1Msg::GrantS { line: l, .. }, .. }
                if c.0 == core && *l == line)
        })
    }

    #[test]
    fn first_gets_is_granted_exclusive_and_blocks_until_unblock() {
        let mut d = dir();
        let mut out = Vec::new();
        d.handle(gets(0, 0x100), &mut out);
        assert!(grants_x(&out, 0, 0x100));
        assert_eq!(d.owner(0x100), Some(CoreId(0)));
        // A second request parks until the grantee unblocks.
        assert!(busy(&d, 0x100));
        out.clear();
        d.handle(gets(1, 0x100), &mut out);
        assert!(out.is_empty());
        unblock(&mut d, 0, 0x100, &mut out);
        // The parked GetS now triggers a downgrade of core 0.
        assert!(out.iter().any(|a| matches!(
            a,
            DirAction::ToL1 { core: CoreId(0), msg: L1Msg::Downgrade { .. }, .. }
        )));
    }

    #[test]
    fn second_gets_downgrades_owner_then_grants_shared() {
        let mut d = dir();
        let mut out = Vec::new();
        d.handle(gets(0, 0x100), &mut out);
        unblock(&mut d, 0, 0x100, &mut out);
        out.clear();
        d.handle(gets(1, 0x100), &mut out);
        assert!(out.iter().any(|a| matches!(
            a,
            DirAction::ToL1 { core: CoreId(0), msg: L1Msg::Downgrade { .. }, .. }
        )));
        assert!(busy(&d, 0x100));
        out.clear();
        d.handle(down_ack(0, 0x100, true), &mut out);
        assert!(grants_s(&out, 1, 0x100));
        assert_eq!(d.owner(0x100), None);
        assert_eq!(d.sharers(0x100).count_ones(), 2);
        // Still busy until core 1 unblocks.
        assert!(busy(&d, 0x100));
        out.clear();
        unblock(&mut d, 1, 0x100, &mut out);
        assert!(!busy(&d, 0x100));
    }

    #[test]
    fn downack_without_copy_grants_exclusive() {
        let mut d = dir();
        let mut out = Vec::new();
        d.handle(gets(0, 0x100), &mut out);
        unblock(&mut d, 0, 0x100, &mut out);
        d.handle(gets(1, 0x100), &mut out);
        out.clear();
        // Owner had silently evicted the line.
        d.handle(down_ack(0, 0x100, false), &mut out);
        assert!(grants_x(&out, 1, 0x100));
        assert_eq!(d.owner(0x100), Some(CoreId(1)));
    }

    #[test]
    fn getx_invalidates_sharers_before_granting() {
        let mut d = dir();
        let mut out = Vec::new();
        d.handle(gets(0, 0x100), &mut out);
        unblock(&mut d, 0, 0x100, &mut out);
        d.handle(gets(1, 0x100), &mut out);
        d.handle(down_ack(0, 0x100, true), &mut out);
        unblock(&mut d, 1, 0x100, &mut out);
        out.clear();
        d.handle(getx(2, 0x100), &mut out);
        let invs: Vec<_> = out
            .iter()
            .filter(|a| matches!(a, DirAction::ToL1 { msg: L1Msg::Inv { .. }, .. }))
            .collect();
        assert_eq!(invs.len(), 2);
        assert!(!grants_x(&out, 2, 0x100), "must wait for acks");
        out.clear();
        d.handle(DirMsg::InvAck { from: CoreId(0), line: 0x100 }, &mut out);
        assert!(out.is_empty());
        d.handle(DirMsg::InvAck { from: CoreId(1), line: 0x100 }, &mut out);
        assert!(grants_x(&out, 2, 0x100));
        assert_eq!(d.owner(0x100), Some(CoreId(2)));
    }

    #[test]
    fn requests_to_busy_line_park_and_drain_in_order() {
        let mut d = dir();
        let mut out = Vec::new();
        d.handle(gets(0, 0x100), &mut out);
        unblock(&mut d, 0, 0x100, &mut out);
        d.handle(getx(1, 0x100), &mut out); // busy: Inv to 0 outstanding
        d.handle(getx(2, 0x100), &mut out); // parks
        d.handle(gets(3, 0x100), &mut out); // parks
        out.clear();
        d.handle(DirMsg::InvAck { from: CoreId(0), line: 0x100 }, &mut out);
        // Grant to 1; the entry then waits for 1's unblock before serving 2.
        assert!(grants_x(&out, 1, 0x100));
        assert!(!out.iter().any(|a| matches!(a, DirAction::ToL1 { msg: L1Msg::Inv { .. }, .. })));
        out.clear();
        unblock(&mut d, 1, 0x100, &mut out);
        assert!(out.iter().any(|a| matches!(
            a,
            DirAction::ToL1 { core: CoreId(1), msg: L1Msg::Inv { .. }, .. }
        )));
        out.clear();
        d.handle(DirMsg::InvAck { from: CoreId(1), line: 0x100 }, &mut out);
        assert!(grants_x(&out, 2, 0x100));
        out.clear();
        unblock(&mut d, 2, 0x100, &mut out);
        // Parked GetS from 3 now triggers a downgrade of 2.
        assert!(out.iter().any(|a| matches!(
            a,
            DirAction::ToL1 { core: CoreId(2), msg: L1Msg::Downgrade { .. }, .. }
        )));
    }

    #[test]
    fn inclusion_eviction_back_invalidates_and_redispatches() {
        let mut cfg = MemConfig::tiny();
        cfg.dir_sets = 1;
        cfg.dir_ways = 2;
        let mut d = Directory::new(&cfg);
        let mut out = Vec::new();
        d.handle(gets(0, 0x000), &mut out);
        unblock(&mut d, 0, 0x000, &mut out);
        d.handle(gets(1, 0x040), &mut out);
        unblock(&mut d, 1, 0x040, &mut out);
        out.clear();
        // Third distinct line: full set, both entries held -> back-inval.
        d.handle(gets(2, 0x080), &mut out);
        let inv = out.iter().find_map(|a| match a {
            DirAction::ToL1 { core, msg: L1Msg::Inv { line }, .. } => Some((*core, *line)),
            _ => None,
        });
        let (victim_core, victim_line) = inv.expect("expected a back-invalidation");
        assert!(out.iter().all(|a| !matches!(
            a,
            DirAction::ToL1 { msg: L1Msg::GrantS { .. } | L1Msg::GrantX { .. }, .. }
        )));
        // The request polls via Redispatch until the eviction completes.
        let redis = out.iter().find_map(|a| match a {
            DirAction::Redispatch(r) => Some(*r),
            _ => None,
        });
        let req = redis.expect("expected redispatch");
        out.clear();
        d.handle(DirMsg::InvAck { from: victim_core, line: victim_line }, &mut out);
        out.clear();
        d.handle(DirMsg::Req(req), &mut out);
        assert!(grants_x(&out, 2, 0x080));
    }

    #[test]
    fn llc_miss_then_hit_classes() {
        let mut d = dir();
        let mut out = Vec::new();
        d.handle(gets(0, 0x100), &mut out);
        let first_class = out.iter().find_map(|a| match a {
            DirAction::ToL1 { msg: L1Msg::GrantX { class, .. }, .. } => Some(*class),
            _ => None,
        });
        assert_eq!(first_class, Some(LatClass::Mem));
    }

    #[test]
    fn a_directory_way_stays_within_40_bytes() {
        // A resident line costs its stable state; a transaction and its
        // park queue live in the table only while the line has one.
        let size = std::mem::size_of::<crate::tagarray::Way<DirEntry>>();
        assert!(size <= 40, "a directory way is {size} bytes");
    }

    #[test]
    fn a_reset_releases_every_transaction_record() {
        let mut d = dir();
        let mut out = Vec::new();
        d.handle(gets(0, 0x100), &mut out);
        d.handle(getx(1, 0x100), &mut out);
        d.handle(gets(2, 0x140), &mut out);
        assert_eq!((d.txns.recs.len(), d.parked_requests()), (2, 1));
        d.reset(&MemConfig::tiny());
        assert_eq!((d.txns.recs.len(), d.txns.free.len()), (2, 2));
        assert!(d.txns.recs.iter().all(|r| r.busy.is_none() && r.parked.is_empty()));
        // A record released by a drained queue is taken again.
        d.handle(gets(0, 0x100), &mut out);
        unblock(&mut d, 0, 0x100, &mut out);
        assert_eq!(d.txns.free.len(), 2);
        d.handle(gets(3, 0x180), &mut out);
        assert_eq!((d.txns.recs.len(), d.txns.free.len()), (2, 1));
    }

    #[test]
    fn cores_in_enumerates_mask() {
        let got: Vec<u16> = cores_in(0b1011).map(|c| c.0).collect();
        assert_eq!(got, vec![0, 1, 3]);
    }

    /// Builds a 1-set/1-way directory where core 0 holds line 0x000 and an
    /// eviction of it is in flight (InvAck withheld), then polls `getx(1,
    /// 0x040)` until the starvation valve promotes it to a rescue.
    fn starved_dir() -> (Directory, Vec<DirAction>) {
        let mut cfg = MemConfig::tiny();
        cfg.dir_sets = 1;
        cfg.dir_ways = 1;
        let mut d = Directory::new(&cfg);
        let mut out = Vec::new();
        d.handle(gets(0, 0x000), &mut out);
        unblock(&mut d, 0, 0x000, &mut out);
        for _ in 0..ALLOC_RESCUE_THRESHOLD {
            out.clear();
            d.handle(getx(1, 0x040), &mut out);
        }
        assert_eq!(d.stats.alloc_rescues, 1, "starvation threshold promotes a rescue");
        (d, out)
    }

    #[test]
    fn starved_allocation_is_rescued_with_a_reserved_way() {
        let (mut d, mut out) = starved_dir();
        // Complete the eviction; a competing request may not claim the
        // freed way while the reservation is pending.
        d.handle(DirMsg::InvAck { from: CoreId(0), line: 0x000 }, &mut out);
        out.clear();
        d.handle(getx(2, 0x080), &mut out);
        assert!(!grants_x(&out, 2, 0x080), "reserved way leaked to a competitor");
        assert!(out.iter().any(|a| matches!(a, DirAction::Redispatch(_))));
        out.clear();
        d.handle(getx(1, 0x040), &mut out);
        assert!(grants_x(&out, 1, 0x040), "rescued request gets the reserved way");
    }

    #[test]
    fn abandoned_rescue_reservation_is_dropped() {
        let (mut d, mut out) = starved_dir();
        d.handle(DirMsg::InvAck { from: CoreId(0), line: 0x000 }, &mut out);
        // The rescued request never retries; a competitor's polls
        // eventually clear the stale reservation and allocate.
        let mut granted = false;
        for _ in 0..=ALLOC_RESCUE_ABANDON + 1 {
            out.clear();
            d.handle(getx(2, 0x080), &mut out);
            if grants_x(&out, 2, 0x080) {
                granted = true;
                break;
            }
        }
        assert!(granted, "stale reservation wedged the set");
    }
}
