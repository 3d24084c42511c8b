//! The memory-system facade the cores talk to.
//!
//! Per simulated cycle the machine driver calls [`MemorySystem::tick`] first
//! (advancing time and processing due protocol events into per-core
//! inboxes), then ticks each core, which drains its inbox and issues new
//! requests. Same-cycle core commands (store performs, lock and
//! unlock transfers) apply to controller state immediately, which closes the
//! read-then-lock race window without transient protocol states.
//!
//! All message delivery — network messages *and* core-local completion
//! events — routes through the [`crate::noc`] interconnect, which owns the
//! event wheel, the latency/bandwidth model and the fault-injection engine.
//! This file is pure protocol glue: controllers emit actions, the system
//! translates them onto the crossbar ports.

use crate::audit::{AuditStats, AuditViolation};
use crate::chaos::ChaosEngine;
use crate::dir::{DirAction, Directory};
use crate::msgs::{CoreMsg, DirMsg, LatClass};
use crate::noc::{NocEv, Xbar};
use crate::privcache::{Action, PrivCache, ReqOutcome};
use crate::progress::{ProgressGuard, ProgressReport, ProgressStats};
use crate::stats::MemStats;
use crate::{CoreId, Cycle, FxHashMap, Line, MemConfig};
use fa_isa::interp::GuestMem;
use fa_isa::{Addr, Word};
use fa_trace::{write_id, SerEvent, TraceRecord};
use std::borrow::Cow;
use std::fmt;

/// A point-in-time snapshot of memory-system state, attached to timeout
/// reports so a hang names the locked lines and in-flight transactions
/// instead of dying silently.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MemDiag {
    /// `(core, line, lock count)` for every locked line, sorted.
    pub locked: Vec<(u16, Line, u32)>,
    /// Lines whose directory entry has a transaction in flight.
    pub busy_lines: Vec<Line>,
    /// Requests parked at the directory behind those transactions.
    pub parked: usize,
    /// `(core, line)` for fills stalled on all-ways-locked sets.
    pub stalled_fills: Vec<(u16, Line)>,
    /// Protocol events still in flight on the wheel.
    pub pending_events: usize,
    /// Cycle of the earliest in-flight event — a delivery time far beyond
    /// the snapshot cycle points at interconnect backlog, not a protocol
    /// deadlock.
    pub next_event_at: Option<Cycle>,
}

impl fmt::Display for MemDiag {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "  mem: {} events in flight", self.pending_events)?;
        if let Some(at) = self.next_event_at {
            write!(f, " (next at cycle {at})")?;
        }
        if !self.locked.is_empty() {
            write!(f, "\n  locked lines:")?;
            for (core, line, count) in &self.locked {
                write!(f, " c{core}:{line:#x}(x{count})")?;
            }
        }
        if !self.busy_lines.is_empty() {
            write!(f, "\n  busy directory lines:")?;
            for line in &self.busy_lines {
                write!(f, " {line:#x}")?;
            }
            if self.parked > 0 {
                write!(f, " ({} requests parked)", self.parked)?;
            }
        }
        if !self.stalled_fills.is_empty() {
            write!(f, "\n  stalled fills:")?;
            for (core, line) in &self.stalled_fills {
                write!(f, " c{core}:{line:#x}")?;
            }
        }
        Ok(())
    }
}

/// The full memory hierarchy for `n` cores plus the global backing store.
/// `Default` is empty storage, which [`MemorySystem::reset`] makes a
/// hierarchy.
#[derive(Debug, Default)]
pub struct MemorySystem {
    cfg: MemConfig,
    now: Cycle,
    /// The interconnect: owns the event wheel, the chaos engine and the
    /// `noc` trace ring.
    noc: Xbar,
    caches: Vec<PrivCache>,
    /// The caches of an earlier run on more cores.
    spare_caches: Vec<PrivCache>,
    dir: Directory,
    backing: GuestMem,
    /// What each core has been delivered and not yet drained, in delivery
    /// order.
    inbox: Vec<Vec<CoreMsg>>,
    /// Audit-sweep counters (the other `MemStats` blocks live with the
    /// controller that counts them).
    audit_stats: AuditStats,
    /// Set by every path that can change what a sweep reads (`with_cache`,
    /// `with_dir`); a sweep clears it unless a fill retry is due.
    changed_since_sweep: bool,
    /// One bit per core: set whenever the system changes what that core
    /// sees — a message queued in its inbox, a call into its cache, a send
    /// on its links, or the start of a directory-allocation wait for its
    /// request (the wait ends with a grant sent to it). The machine driver
    /// clears a core's bit when it visits the core
    /// ([`MemorySystem::untouch`]).
    touched: u64,
    /// One bit per cache whose stalled-fill retry an unlock made due
    /// ([`PrivCache::retry_due`]); the next tick calls exactly these.
    retry_due: u64,
    /// The cycle the oldest live lock trips the auditor's hold bound
    /// (audited only), recomputed when a hold opens or closes.
    leak_at: Option<Cycle>,
    /// Buffers every call reuses, so no access, cycle or sweep allocates:
    /// the actions a controller call emits (drained onto the interconnect
    /// before the call returns) and the audit's `(line, core, writable)`
    /// gather.
    acts: Vec<Action>,
    dout: Vec<DirAction>,
    audit_copies: Vec<(Line, CoreId, bool)>,
    /// Conformance-check collection enabled (`cfg.check`).
    check: bool,
    /// Last write-id per word address, sampled by read performs for the
    /// checker's rf edges. Empty while `check` is off.
    last_writer: FxHashMap<Addr, u64>,
    /// The global write-serialization order: one event per performed
    /// store, in perform order. Empty while `check` is off.
    ser: Vec<SerEvent>,
    /// Forward-progress guard for the LSQ retry path (site `lsq-retry`):
    /// consecutive [`ReqOutcome::Retry`] outcomes per core.
    lsq_guard: ProgressGuard<CoreId>,
    /// Largest in-flight interconnect event population observed, sampled
    /// at the top of every tick (site `noc-backlog`). Between core sends
    /// and deliveries the population is constant, so sampling only ticked
    /// cycles sees the same maximum whether or not the machine jumps.
    backlog_max: u64,
}

impl MemorySystem {
    /// Creates a memory system for `n_cores` cores over `backing`.
    pub fn new(cfg: MemConfig, n_cores: usize, backing: GuestMem) -> MemorySystem {
        let mut m = MemorySystem::default();
        m.reset(&cfg, n_cores, Cow::Owned(backing));
        m
    }

    /// Puts the system in exactly the state [`new`](Self::new) builds for
    /// `cfg` and `n_cores` over `backing`, keeping the storage of every
    /// controller (tag arrays, maps, queues, MSHR lists, trace rings), of
    /// the crossbar's heap and links, of the reused buffers, the check logs
    /// and the guest pages. An owned image moves in; a borrowed one is
    /// copied into the pages the system already has.
    pub fn reset(&mut self, cfg: &MemConfig, n_cores: usize, backing: Cow<'_, GuestMem>) {
        assert!(n_cores <= 64, "core masks are 64 bits wide: {n_cores} cores");
        let MemorySystem {
            cfg: my_cfg, now, noc, caches, spare_caches, dir, backing: my_backing, inbox,
            audit_stats, changed_since_sweep, touched, retry_due, leak_at, acts, dout, audit_copies,
            check, last_writer, ser, lsq_guard, backlog_max,
        } = self;
        my_cfg.clone_from(cfg);
        *now = 0;
        noc.reset(cfg, n_cores, ChaosEngine::new(cfg.chaos.clone()));
        // Fault injection may clamp the effective MSHR count.
        let cache_cfg = MemConfig { mshrs: noc.chaos.effective_mshrs(cfg.mshrs), ..cfg.clone() };
        crate::fit(caches, spare_caches, n_cores);
        for (i, c) in caches.iter_mut().enumerate() {
            c.reset(CoreId(i as u16), &cache_cfg);
        }
        dir.reset(cfg);
        match backing {
            Cow::Owned(image) => *my_backing = image,
            Cow::Borrowed(image) => my_backing.clone_from(image),
        }
        // Indexed by core only: the queues of cores beyond `n_cores` stay,
        // empty, for a later run on more cores.
        inbox.iter_mut().for_each(Vec::clear);
        inbox.resize_with(n_cores.max(inbox.len()), Vec::new);
        *audit_stats = AuditStats::default();
        (*changed_since_sweep, *touched, *retry_due, *leak_at) = (true, 0, 0, None);
        acts.clear();
        dout.clear();
        audit_copies.clear();
        *check = cfg.check.on();
        last_writer.clear();
        ser.clear();
        lsq_guard.reset();
        *backlog_max = 0;
    }

    /// Current cycle.
    pub fn now(&self) -> Cycle {
        self.now
    }

    /// The configuration in use.
    pub fn config(&self) -> &MemConfig {
        &self.cfg
    }

    /// Read access to guest memory (workload setup / result checking).
    pub fn backing(&self) -> &GuestMem {
        &self.backing
    }

    /// Advances one cycle and processes all protocol events now due.
    pub fn tick(&mut self) {
        self.now += 1;
        // Progress site `noc-backlog`: sample before this tick's deliveries
        // so the maximum is identical when the machine jumps spans (the
        // population only changes at ticked cycles).
        self.backlog_max = self.backlog_max.max(self.noc.pending() as u64);
        // Trace timestamps only — the directory's protocol logic is
        // event-driven and never reads the clock.
        self.dir.set_now(self.now);
        // Fault injection: periodic back-invalidation storms.
        if self.noc.chaos.enabled() {
            let burst = self.noc.chaos.storm_due(self.now);
            if burst > 0 {
                let evicted = self.with_dir(|dir, out| dir.storm_evict(burst, out));
                self.noc.chaos.stats.storm_evictions += evicted;
            }
        }
        // Retry fills stalled on all-ways-locked sets, in cache order, where
        // an unlock freed a way.
        let mut due = std::mem::take(&mut self.retry_due);
        while due != 0 {
            let i = due.trailing_zeros() as usize;
            due &= due - 1;
            self.with_cache(i, PrivCache::retry_stalled_fills);
        }
        while let Some((sent, ev)) = self.noc.pop_due(self.now) {
            self.process(sent, ev);
        }
    }

    fn process(&mut self, sent: Cycle, ev: NocEv) {
        match ev {
            NocEv::ToDir(msg) => self.with_dir(|dir, out| dir.handle(msg, out)),
            NocEv::ToL1(core, msg) => {
                self.with_cache(core.index(), |c, out| c.handle_ext(msg, out));
            }
            NocEv::Read(core, done) => {
                // Interconnect transfer cycles of the final fill leg:
                // injection stamp → delivery. Zero for local hits under a
                // quiet network (the stamp excludes the sender-side cache
                // pipeline delay).
                let xfer = self.now.saturating_sub(sent);
                let c = &mut self.caches[core.index()].stats;
                match done.class {
                    LatClass::L1 => c.l1_hits += 1,
                    LatClass::L2 => c.l2_hits += 1,
                    LatClass::Llc => c.llc_hits += 1,
                    LatClass::Mem => c.mem_accesses += 1,
                    LatClass::Remote => c.remote_transfers += 1,
                }
                c.fill_cycles_by_class[done.class.index()] += xfer;
                let value = self.backing.load(done.addr);
                // Value and rf writer are sampled at the same instant —
                // the read's perform point — so they always agree.
                let writer = if self.check {
                    self.last_writer.get(&done.addr).copied().unwrap_or(0)
                } else {
                    0
                };
                self.touched |= 1 << core.index();
                self.inbox[core.index()].push(CoreMsg::Read { done, value, writer, xfer });
            }
            NocEv::StoreReady { core, seq } => {
                self.touched |= 1 << core.index();
                self.inbox[core.index()].push(CoreMsg::StoreReady { seq });
            }
        }
    }

    /// Routes directory output onto the response ports. The `extra` delay
    /// (directory/LLC/memory access time) rides along so the interconnect
    /// can separate access latency from network latency. Grants,
    /// invalidations and downgrades are all per-line-serialized by the
    /// `Unblock` protocol, so network delay (jitter or contention) reorders
    /// only independent messages (requests arriving "early" park) — TSO
    /// outcomes stay legal under any interconnect configuration.
    fn apply_dir_actions(&mut self, actions: &mut Vec<DirAction>) {
        for a in actions.drain(..) {
            match a {
                DirAction::ToL1 { core, msg, extra } => {
                    self.touched |= 1 << core.index();
                    self.noc.send(self.now, extra, NocEv::ToL1(core, msg));
                }
                DirAction::Redispatch(req) => {
                    // Allocation polling, not a protocol message: delivered
                    // next cycle with no latency, jitter or contention.
                    self.noc.send_raw(self.now + 1, NocEv::ToDir(DirMsg::Req(req)));
                }
            }
        }
    }

    /// Routes private-cache output: completions onto the core-local port,
    /// directory requests onto the core's request egress port.
    fn apply_cache_actions(&mut self, core: usize, actions: &mut Vec<Action>) {
        for a in actions.drain(..) {
            match a {
                Action::Read { delay, done } => {
                    self.noc.send(self.now, delay, NocEv::Read(CoreId(core as u16), done));
                }
                Action::StoreReady { delay, seq } => {
                    let ev = NocEv::StoreReady { core: CoreId(core as u16), seq };
                    self.noc.send(self.now, delay, ev);
                }
                Action::ToDir(msg) => {
                    self.noc.send(self.now, 0, NocEv::ToDir(msg));
                }
                Action::LineLost { line } => {
                    self.inbox[core].push(CoreMsg::LineLost { line });
                }
            }
        }
    }

    /// Calls `f` on the directory with the (empty) action buffer and routes
    /// what it emitted.
    fn with_dir<R>(&mut self, f: impl FnOnce(&mut Directory, &mut Vec<DirAction>) -> R) -> R {
        self.changed_since_sweep = true;
        let mut out = std::mem::take(&mut self.dout);
        let r = f(&mut self.dir, &mut out);
        self.touched |= std::mem::take(&mut self.dir.alloc_moved);
        self.apply_dir_actions(&mut out);
        self.dout = out;
        r
    }

    /// Calls `f` on `core`'s cache controller, clocked to now, with the
    /// (empty) action buffer and routes what it emitted.
    fn with_cache<R>(
        &mut self,
        core: usize,
        f: impl FnOnce(&mut PrivCache, &mut Vec<Action>) -> R,
    ) -> R {
        self.changed_since_sweep = true;
        let mut out = std::mem::take(&mut self.acts);
        let r = f(self.cache(core), &mut out);
        self.apply_cache_actions(core, &mut out);
        self.acts = out;
        self.called(core);
        r
    }

    /// `core`'s cache, clocked to now, for a call that may change it.
    fn cache(&mut self, core: usize) -> &mut PrivCache {
        self.touched |= 1 << core;
        let c = &mut self.caches[core];
        c.set_now(self.now);
        c
    }

    /// After a call into `core`'s cache: notes a stalled-fill retry the
    /// call made due, and recomputes the lock-hold horizon if a hold
    /// opened or closed.
    fn called(&mut self, core: usize) {
        let c = &mut self.caches[core];
        if c.retry_due() {
            self.retry_due |= 1 << core;
        }
        if std::mem::take(&mut c.locks_moved) && self.cfg.audit.enabled {
            let opened =
                self.caches.iter().flat_map(|c| c.locks_iter().map(|(.., at)| at)).min();
            let bound = self.cfg.audit.max_lock_hold;
            self.leak_at = opened.map(|at| at.saturating_add(bound).saturating_add(1));
        }
    }

    // ---- Core-facing port (called during the core's tick) ----

    /// Issues a demand read. `lock` (the load_lock path) requests write
    /// permission and locks the line at perform time.
    pub fn read(&mut self, core: CoreId, seq: u64, addr: Addr, lock: bool) -> ReqOutcome {
        let r = self.with_cache(core.index(), |c, out| c.read(seq, addr, lock, out));
        self.note_lsq_outcome(core, r);
        r
    }

    /// Requests write permission for the store tagged `seq`.
    pub fn store_acquire(&mut self, core: CoreId, seq: u64, addr: Addr) -> ReqOutcome {
        let r = self.with_cache(core.index(), |c, out| c.store_acquire(seq, addr, out));
        self.note_lsq_outcome(core, r);
        r
    }

    /// Progress site `lsq-retry`: count consecutive structural-hazard
    /// retries per core, cleared the moment a request is accepted.
    fn note_lsq_outcome(&mut self, core: CoreId, r: ReqOutcome) {
        match r {
            ReqOutcome::Retry => {
                self.lsq_guard.note_attempt(core);
            }
            ReqOutcome::Accepted => self.lsq_guard.note_success(core),
        }
    }

    /// Attempts to perform a store this cycle: requires the private cache to
    /// hold write permission. On success the backing store is written
    /// immediately (this *is* the store's perform, and — with checking on —
    /// the point logged into the global write-serialization order under
    /// `write_id(core, seq)`). Locks are the core's business: it takes them
    /// with [`MemorySystem::lock_line`] and a draining store_unlock releases
    /// its lock with [`MemorySystem::unlock_line`] after this perform (§3.3).
    pub fn try_store_perform(&mut self, core: CoreId, seq: u64, addr: Addr, value: Word) -> bool {
        let info = self.with_cache(core.index(), |c, _| c.try_store_perform(addr));
        if let Some(info) = &info {
            self.backing.store(addr, value);
            self.caches[core.index()].stats.stores_performed += 1;
            if self.check {
                let w = write_id(core.0, seq);
                self.last_writer.insert(addr, w);
                self.ser.push(SerEvent {
                    addr,
                    writer: w,
                    value,
                    epoch: self.dir.write_epoch(fa_isa::line_of(addr)),
                    under_lock: info.under_lock,
                });
            }
        }
        info.is_some()
    }

    /// The global write-serialization order collected so far (empty while
    /// checking is off). The per-address subsequence is the coherence
    /// order `co` the axiomatic checker consumes.
    pub fn ser_events(&self) -> &[SerEvent] {
        &self.ser
    }

    /// Adds a lock count on `line` (load_lock performed on an
    /// already-present writable line, or a lock transfer during forwarding).
    /// The cache's lock record is all it changes, and the audit reads that
    /// every cycle, so it marks no sweep.
    pub fn lock_line(&mut self, core: CoreId, line: Line) {
        self.cache(core.index()).lock(line);
        self.called(core.index());
    }

    /// Releases one lock count on `line`; at zero, parked external requests
    /// replay (squash-driven unlock, store_unlock drain, or orphaned lock).
    ///
    /// # Panics
    ///
    /// Panics if the line is not locked by `core` — an AQ desync bug.
    pub fn unlock_line(&mut self, core: CoreId, line: Line) {
        self.with_cache(core.index(), |c, out| c.unlock(line, out));
    }

    /// Moves `core`'s inbox into `into`, replacing what it held. The two
    /// buffers trade places, so a caller that passes the same one every
    /// cycle never makes either reallocate.
    pub fn drain_inbox(&mut self, core: CoreId, into: &mut Vec<CoreMsg>) {
        into.clear();
        std::mem::swap(into, &mut self.inbox[core.index()]);
    }

    /// True if `core`'s private cache currently holds write permission.
    pub fn writable(&self, core: CoreId, line: Line) -> bool {
        self.caches[core.index()].writable(line)
    }

    /// True if `core` has `line` locked.
    pub fn is_locked(&self, core: CoreId, line: Line) -> bool {
        self.caches[core.index()].is_locked(line)
    }

    /// Lock count held by `core` on `line`.
    pub fn lock_count(&self, core: CoreId, line: Line) -> u32 {
        self.caches[core.index()].lock_count(line)
    }

    /// Number of protocol events still in flight (quiescence check).
    pub fn pending_events(&self) -> usize {
        self.noc.pending()
    }

    /// True when `core`'s inbox holds undelivered messages — a halted or
    /// sleeping core with traffic pending must still be ticked so it can
    /// drain them (and, for a sleeper, observe its wake condition).
    pub fn has_core_traffic(&self, core: CoreId) -> bool {
        !self.inbox[core.index()].is_empty()
    }

    /// The cores (bit `i` for core `i`) the system touched since the driver
    /// last [`untouch`](Self::untouch)ed them. Between a core's steps only
    /// a touch changes what the core reads of memory: its traffic, its
    /// cache, its link backpressure horizon and its directory-allocation
    /// wait.
    pub fn touched(&self) -> u64 {
        self.touched
    }

    /// Clears `core`'s touched bit (the driver has just visited it).
    pub fn untouch(&mut self, core: CoreId) {
        self.touched &= !(1 << core.index());
    }

    /// The earliest cycle at which the memory system acts on its own: an
    /// in-flight protocol event, the next back-invalidation storm, or —
    /// audited only — the cycle at which the longest-held lock would trip
    /// the lock-hold bound, one past the bound from the earliest open
    /// cycle the caches record. Between ticks nothing else changes what a
    /// tick or an audit would do.
    pub fn next_event_at(&self) -> Option<Cycle> {
        [self.noc.next_at(), self.noc.chaos.next_storm_after(self.now), self.leak_at]
            .into_iter()
            .flatten()
            .min()
    }

    /// True when ticking this memory system over a span of cycles before
    /// [`next_event_at`](Self::next_event_at) is a pure clock advance: no
    /// unlock has made a stalled-fill retry due at the next tick. The
    /// machine driver jumps `now` only while this holds.
    pub fn fast_forwardable(&self) -> bool {
        self.retry_due == 0
    }

    /// Jumps the clock to `cycle` without processing the intervening
    /// (empty) cycles. Callers must have established that the skip is a
    /// no-op: `cycle` precedes [`next_event_at`](Self::next_event_at), the
    /// system is [`fast_forwardable`](Self::fast_forwardable), and no core
    /// issues a request in the skipped span. With the auditor on, an audit
    /// of a skipped cycle would find what the last one found, with younger
    /// locks, so the caller's audit at `cycle` stands for them.
    pub fn skip_to(&mut self, cycle: Cycle) {
        debug_assert!(cycle > self.now, "skip_to must move the clock forward");
        debug_assert!(
            self.next_event_at().is_none_or(|at| at > cycle),
            "skip_to must not jump over a scheduled event"
        );
        debug_assert!(self.fast_forwardable(), "skip_to requires a pure clock advance");
        self.now = cycle;
        // Caches are clocked when called; the directory's trace clock is
        // kept in step.
        self.dir.set_now(cycle);
    }

    /// The first cycle at which none of `core`'s interconnect links is
    /// serializing queued traffic (0 on the ideal crossbar); the core is
    /// backpressured while `now` is below it. Only a send through one of
    /// `core`'s links moves it, so between sends "backpressured" changes at
    /// most once, here. Pure read for the cycle-accounting layer and the
    /// machine's jump — never perturbs the run.
    pub fn backpressure_ends(&self, core: CoreId) -> Cycle {
        self.noc.backpressure_ends(core.index())
    }

    /// True while `core` has a directory request waiting on entry
    /// allocation (the `dir-alloc` progress site). Pure read for the
    /// cycle-accounting layer — never perturbs the run.
    pub fn core_alloc_waiting(&self, core: CoreId) -> bool {
        self.dir.core_alloc_waiting(core)
    }

    /// Checks every memory-side forward-progress site against the
    /// configured [`ProgressConfig`](crate::ProgressConfig) thresholds and
    /// returns the first tripped site's minimal stuck-resource report, or
    /// `None` while everything is within bounds (always, when escalation
    /// is disabled). Pure reads — polling this never perturbs the run.
    pub fn progress_report(&self) -> Option<ProgressReport> {
        let p = &self.cfg.progress;
        if !p.enabled {
            return None;
        }
        let fill =
            self.caches.iter().map(|c| c.fill_guard.worst_outstanding()).max().unwrap_or(0);
        [
            ("dir-alloc", self.dir.alloc_guard.worst_outstanding(), p.max_attempts),
            ("cache-fill", fill, p.max_attempts),
            ("lsq-retry", self.lsq_guard.worst_outstanding(), p.max_attempts),
            ("noc-backlog", self.backlog_max, p.max_backlog),
        ]
        .into_iter()
        .find(|&(_, observed, threshold)| observed > threshold)
        .map(|(site, observed, threshold)| ProgressReport { site, observed, threshold })
    }

    /// Audits the current cycle. Free when `cfg.audit.enabled` is false;
    /// otherwise checks SWMR, directory–L1 inclusion and the lock-hold
    /// bound (see [`crate::audit`]), returning the first violation in a
    /// deterministic order.
    ///
    /// The full SWMR/inclusion sweep runs only after a cycle that may have
    /// changed what it reads (debug builds sweep a clean cycle too and
    /// assert it passes). The lock-hold bound is checked every cycle
    /// against each cache's own record of when every hold opened, so a
    /// line released and re-taken within one cycle starts a new hold.
    pub fn audit(&mut self) -> Result<(), AuditViolation> {
        if !self.cfg.audit.enabled {
            return Ok(());
        }
        if self.changed_since_sweep {
            self.sweep()?;
        } else if cfg!(debug_assertions) {
            let (now, verdict) = (self.now, self.sweep());
            assert_eq!(verdict, Ok(()), "a clean cycle broke an invariant at {now}");
        }
        // Lock-pairing bound: the longest hold feeds the statistic, and
        // the first violator in `(core, line)` order is reported.
        let (now, bound) = (self.now, self.cfg.audit.max_lock_hold);
        let mut leak: Option<(CoreId, Line, Cycle, u32)> = None;
        for (i, c) in self.caches.iter().enumerate() {
            let core = CoreId(i as u16);
            for (line, count, opened) in c.locks_iter() {
                let held_for = now - opened;
                self.audit_stats.max_lock_hold_seen =
                    self.audit_stats.max_lock_hold_seen.max(held_for);
                if held_for > bound && leak.is_none_or(|(c, l, ..)| (core, line) < (c, l)) {
                    leak = Some((core, line, held_for, count));
                }
            }
        }
        match leak {
            Some((core, line, held_for, count)) => {
                Err(AuditViolation::LockLeak { line, core, held_for, count })
            }
            None => Ok(()),
        }
    }

    /// The full sweep: inclusion, then SWMR.
    fn sweep(&mut self) -> Result<(), AuditViolation> {
        // Inclusion, while gathering every private copy in cache-then-set
        // order: each must be covered by a directory sharer bit (the
        // directory is a superset due to silent evictions, never a subset).
        self.audit_copies.clear();
        for (i, c) in self.caches.iter().enumerate() {
            let core = CoreId(i as u16);
            for (line, st) in c.resident_lines() {
                if self.dir.sharers(line) & (1u64 << i) == 0 {
                    return Err(AuditViolation::InclusionHole {
                        line,
                        core,
                        entry_missing: !self.dir.has_entry(line),
                    });
                }
                self.audit_copies.push((line, core, st.writable()));
            }
        }
        // SWMR, lowest line first: sorted, the copies of one line are a run.
        self.audit_copies.sort_unstable();
        for copies in self.audit_copies.chunk_by(|a, b| a.0 == b.0) {
            if copies.len() > 1 && copies.iter().any(|c| c.2) {
                return Err(AuditViolation::MultipleWriters {
                    line: copies[0].0,
                    writers: copies.iter().filter(|c| c.2).map(|c| c.1).collect(),
                    holders: copies.iter().map(|c| c.1).collect(),
                });
            }
        }
        // A fill retry an unlock made due changes a cache at the next tick.
        self.changed_since_sweep = self.retry_due != 0;
        Ok(())
    }

    /// Snapshot of the hang-relevant state for diagnostics.
    pub fn diag(&self) -> MemDiag {
        let mut locked: Vec<(u16, Line, u32)> = Vec::new();
        let mut stalled: Vec<(u16, Line)> = Vec::new();
        for (i, c) in self.caches.iter().enumerate() {
            for (line, count, _) in c.locks_iter() {
                locked.push((i as u16, line, count));
            }
            for line in c.stalled_fill_lines() {
                stalled.push((i as u16, line));
            }
        }
        locked.sort_unstable();
        stalled.sort_unstable();
        MemDiag {
            locked,
            busy_lines: self.dir.busy_lines().collect(),
            parked: self.dir.parked_requests(),
            stalled_fills: stalled,
            pending_events: self.noc.pending(),
            next_event_at: self.noc.next_at(),
        }
    }

    /// Snapshot of the statistics: each controller owns its block, this
    /// assembles them.
    pub fn stats(&self) -> MemStats {
        let noc = self.noc.stats(self.now);
        MemStats {
            cores: self.caches.iter().map(|c| c.stats.clone()).collect(),
            dir: self.dir.stats.clone(),
            messages: noc.net_messages,
            noc,
            chaos: self.noc.chaos.stats.clone(),
            audit: self.audit_stats.clone(),
            progress: ProgressStats {
                dir_rescues: self.dir.stats.alloc_rescues,
                dir_alloc_attempts_max: self.dir.alloc_guard.attempts_max,
                fill_attempts_max: self
                    .caches
                    .iter()
                    .map(|c| c.fill_guard.attempts_max)
                    .max()
                    .unwrap_or(0),
                lsq_attempts_max: self.lsq_guard.attempts_max,
                noc_backlog_max: self.backlog_max,
            },
        }
    }

    /// The last `n` trace records of every non-empty ring (`usize::MAX`
    /// for all of them) in a stable order: per-core cache controllers
    /// (`l1c{i}`), the directory (`dir`), then the interconnect (`noc`).
    /// Empty when tracing is off.
    pub fn trace_events(&self, n: usize) -> Vec<(String, Vec<TraceRecord>)> {
        let caches = self.caches.iter().enumerate().map(|(i, c)| (format!("l1c{i}"), &c.trace));
        caches
            .chain([("dir".to_string(), &self.dir.trace), ("noc".to_string(), &self.noc.trace)])
            .filter(|(_, t)| !t.is_empty())
            .map(|(name, t)| (name, t.tail(n)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::msgs::ReadDone;

    const C0: CoreId = CoreId(0);
    const C1: CoreId = CoreId(1);

    fn sys(n: usize) -> MemorySystem {
        MemorySystem::new(MemConfig::tiny(), n, GuestMem::new(1 << 16))
    }

    /// Drains `core`'s inbox, keeping the responses (reads and store
    /// permissions).
    fn responses(m: &mut MemorySystem, core: CoreId) -> Vec<CoreMsg> {
        let mut r = Vec::new();
        m.drain_inbox(core, &mut r);
        r.retain(|msg| !matches!(msg, CoreMsg::LineLost { .. }));
        r
    }

    /// Drains `core`'s inbox, keeping the lines it lost.
    fn lost_lines(m: &mut MemorySystem, core: CoreId) -> Vec<Line> {
        let mut r = Vec::new();
        m.drain_inbox(core, &mut r);
        let lost = |msg: &CoreMsg| match *msg {
            CoreMsg::LineLost { line } => Some(line),
            _ => None,
        };
        r.iter().filter_map(lost).collect()
    }

    /// Corrupts state behind the protocol's back, marking it changed as
    /// every real path does, to prove the auditor catches it.
    fn corrupt(m: &mut MemorySystem, f: impl FnOnce(&mut [PrivCache], &mut Directory)) {
        f(&mut m.caches, &mut m.dir);
        m.changed_since_sweep = true;
    }

    /// Ticks until `core` receives a response, with a safety bound.
    fn run_until_resp(m: &mut MemorySystem, core: CoreId, bound: u64) -> Vec<CoreMsg> {
        for _ in 0..bound {
            m.tick();
            let r = responses(m, core);
            if !r.is_empty() {
                return r;
            }
        }
        panic!("no response within {bound} cycles");
    }

    #[test]
    fn cold_read_round_trip_returns_value() {
        let mut m = sys(1);
        m.backing.store(0x100, 77);
        assert_eq!(m.read(C0, 1, 0x100, false), ReqOutcome::Accepted);
        let resps = run_until_resp(&mut m, C0, 1000);
        match resps[0] {
            CoreMsg::Read { done: ReadDone { seq: 1, class, .. }, value, .. } => {
                assert_eq!(value, 77);
                assert_eq!(class, LatClass::Mem);
            }
            ref other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn second_read_hits_l1_fast() {
        let mut m = sys(1);
        m.read(C0, 1, 0x100, false);
        run_until_resp(&mut m, C0, 1000);
        let t0 = m.now();
        m.read(C0, 2, 0x108, false);
        let resps = run_until_resp(&mut m, C0, 100);
        assert!(m.now() - t0 <= m.config().l1_lat + 1);
        assert!(matches!(
            resps[0],
            CoreMsg::Read { done: ReadDone { class: LatClass::L1, .. }, .. }
        ));
    }

    #[test]
    fn store_round_trip_and_perform() {
        let mut m = sys(1);
        assert_eq!(m.store_acquire(C0, 9, 0x200), ReqOutcome::Accepted);
        let resps = run_until_resp(&mut m, C0, 1000);
        assert!(matches!(resps[0], CoreMsg::StoreReady { seq: 9 }));
        assert!(m.try_store_perform(C0, 1, 0x200, 1234));
        assert_eq!(m.backing().load(0x200), 1234);
    }

    #[test]
    fn remote_write_invalidates_reader_with_notice() {
        let mut m = sys(2);
        // Core 0 reads the line.
        m.read(C0, 1, 0x100, false);
        run_until_resp(&mut m, C0, 1000);
        // Core 1 writes it.
        m.store_acquire(C1, 2, 0x100);
        run_until_resp(&mut m, C1, 2000);
        assert!(m.try_store_perform(C1, 1, 0x100, 5));
        let lost = lost_lines(&mut m, C0);
        assert!(lost.contains(&0x100), "got {lost:?}");
        // Core 0 re-reads and sees the new value.
        m.read(C0, 3, 0x100, false);
        let resps = run_until_resp(&mut m, C0, 2000);
        assert!(matches!(resps[0], CoreMsg::Read { value: 5, .. }));
    }

    #[test]
    fn locked_line_blocks_remote_getx_until_unlock() {
        let mut m = sys(2);
        // Core 0 takes the line with lock intent (a performing load_lock).
        m.read(C0, 1, 0x100, true);
        let r = run_until_resp(&mut m, C0, 1000);
        assert!(matches!(r[0], CoreMsg::Read { done: ReadDone { locked: true, .. }, .. }));
        assert!(m.is_locked(C0, 0x100));
        // Core 1 wants to write: its GetX parks at core 0.
        m.store_acquire(C1, 2, 0x100);
        for _ in 0..500 {
            m.tick();
        }
        assert!(
            responses(&mut m, C1).is_empty(),
            "store must not become ready while the line is locked"
        );
        // Unlock: parked Inv replays, core 1 gets permission.
        m.unlock_line(C0, 0x100);
        let r = run_until_resp(&mut m, C1, 1000);
        assert!(matches!(r[0], CoreMsg::StoreReady { seq: 2 }));
        // Core 0 lost the line.
        assert!(lost_lines(&mut m, C0).contains(&0x100));
    }

    #[test]
    fn read_lock_then_store_unlock_round_trip() {
        let mut m = sys(2);
        m.backing.store(0x300, 10);
        // Atomic on core 0: load_lock reads 10, store_unlock writes 11.
        m.read(C0, 1, 0x300, true);
        let r = run_until_resp(&mut m, C0, 1000);
        assert!(matches!(
            r[0],
            CoreMsg::Read { done: ReadDone { locked: true, .. }, value: 10, .. }
        ));
        assert!(m.try_store_perform(C0, 3, 0x300, 11));
        m.unlock_line(C0, 0x300);
        assert!(!m.is_locked(C0, 0x300));
        assert_eq!(m.backing().load(0x300), 11);
    }

    #[test]
    fn two_cores_reading_share_the_line() {
        let mut m = sys(2);
        m.read(C0, 1, 0x100, false);
        run_until_resp(&mut m, C0, 1000);
        m.read(C1, 2, 0x100, false);
        let r = run_until_resp(&mut m, C1, 2000);
        // Remote transfer: core 0 held it exclusively.
        assert!(matches!(
            r[0],
            CoreMsg::Read { done: ReadDone { class: LatClass::Remote, .. }, .. }
        ));
        // Neither core may now write without a request.
        assert!(!m.writable(C0, 0x100) || !m.writable(C1, 0x100));
    }

    #[test]
    fn store_perform_fails_after_losing_permission() {
        let mut m = sys(2);
        m.store_acquire(C0, 1, 0x100);
        run_until_resp(&mut m, C0, 1000);
        // Core 1 steals the line.
        m.store_acquire(C1, 2, 0x100);
        run_until_resp(&mut m, C1, 2000);
        assert!(!m.try_store_perform(C0, 1, 0x100, 1));
        assert!(m.try_store_perform(C1, 2, 0x100, 2));
        assert_eq!(m.backing().load(0x100), 2);
    }

    #[test]
    fn stats_track_hit_classes() {
        let mut m = sys(1);
        m.read(C0, 1, 0x100, false);
        run_until_resp(&mut m, C0, 1000);
        m.read(C0, 2, 0x100, false);
        run_until_resp(&mut m, C0, 100);
        let s = m.stats();
        assert_eq!(s.cores[0].mem_accesses, 1);
        assert_eq!(s.cores[0].l1_hits, 1);
        assert!(s.messages >= 2);
    }

    #[test]
    fn deadlock_shape_two_locked_lines_cross_getx() {
        // The RMW-RMW deadlock substrate (paper Figure 5): each core locks a
        // line and then requests the other's. Neither request completes; both
        // park. Progress requires an unlock — exactly what the core-level
        // watchdog provides.
        let mut m = sys(2);
        m.read(C0, 1, 0x100, true);
        run_until_resp(&mut m, C0, 1000);
        m.read(C1, 2, 0x200, true);
        run_until_resp(&mut m, C1, 1000);
        // Cross requests.
        m.read(C0, 3, 0x200, true);
        m.read(C1, 4, 0x100, true);
        for _ in 0..2000 {
            m.tick();
        }
        assert!(responses(&mut m, C0).is_empty());
        assert!(responses(&mut m, C1).is_empty());
        // Core 0 squashes its atomic (watchdog): unlock line 0x100.
        m.unlock_line(C0, 0x100);
        let r = run_until_resp(&mut m, C1, 2000);
        assert!(matches!(r[0], CoreMsg::Read { done: ReadDone { seq: 4, locked: true, .. }, .. }));
        // Core 1 finishes both atomics; core 0 then proceeds.
        assert!(m.try_store_perform(C1, 3, 0x100, 1));
        m.unlock_line(C1, 0x100);
        assert!(m.try_store_perform(C1, 5, 0x200, 1));
        m.unlock_line(C1, 0x200);
        let r = run_until_resp(&mut m, C0, 4000);
        assert!(matches!(r[0], CoreMsg::Read { done: ReadDone { seq: 3, locked: true, .. }, .. }));
    }

    // ---- Invariant auditor: clean runs pass, corruption is caught ----

    #[test]
    fn auditor_catches_forced_swmr_violation() {
        let mut cfg = MemConfig::tiny();
        cfg.audit = crate::AuditConfig::on();
        let mut m = MemorySystem::new(cfg, 2, GuestMem::new(1 << 16));
        m.read(C0, 1, 0x100, false);
        run_until_resp(&mut m, C0, 1000);
        m.read(C1, 2, 0x100, false);
        run_until_resp(&mut m, C1, 2000);
        m.audit().expect("legal sharing must pass the audit");
        // Corrupt the protocol: core 0 claims write permission while core 1
        // still holds a shared copy.
        corrupt(&mut m, |caches, _| caches[0].force_state(0x100, crate::privcache::Mesi::M));
        match m.audit() {
            Err(AuditViolation::MultipleWriters { line: 0x100, writers, holders }) => {
                assert_eq!(writers, vec![C0]);
                assert!(holders.contains(&C1));
            }
            other => panic!("expected MultipleWriters, got {other:?}"),
        }
    }

    #[test]
    fn auditor_catches_forced_inclusion_hole() {
        let mut cfg = MemConfig::tiny();
        cfg.audit = crate::AuditConfig::on();
        let mut m = MemorySystem::new(cfg, 1, GuestMem::new(1 << 16));
        m.read(C0, 1, 0x100, false);
        run_until_resp(&mut m, C0, 1000);
        m.audit().expect("covered copy must pass the audit");
        corrupt(&mut m, |_, dir| dir.force_drop_entry(0x100));
        match m.audit() {
            Err(AuditViolation::InclusionHole { line: 0x100, core, entry_missing: true }) => {
                assert_eq!(core, C0);
            }
            other => panic!("expected InclusionHole, got {other:?}"),
        }
    }

    #[test]
    fn auditor_catches_lock_leak() {
        let mut cfg = MemConfig::tiny();
        cfg.audit =
            crate::AuditConfig { max_lock_hold: 10, ..crate::AuditConfig::on() };
        let mut m = MemorySystem::new(cfg, 1, GuestMem::new(1 << 16));
        // A load_lock whose store_unlock never drains: the lock leaks.
        m.read(C0, 1, 0x100, true);
        run_until_resp(&mut m, C0, 1000);
        let mut leaked = None;
        for _ in 0..50 {
            m.tick();
            if let Err(v) = m.audit() {
                leaked = Some(v);
                break;
            }
        }
        match leaked {
            Some(AuditViolation::LockLeak { line: 0x100, core, held_for, count: 1 }) => {
                assert_eq!(core, C0);
                assert!(held_for > 10);
            }
            other => panic!("expected LockLeak, got {other:?}"),
        }
        assert!(m.stats().audit.max_lock_hold_seen > 10);
    }

    #[test]
    fn a_reset_re_arms_the_audit_sweep() {
        // A reset that kept the last sweep's verdict would skip the first
        // sweep of the next run: every violation below is planted behind
        // the protocol's back without marking the sweep, so only the mark
        // the reset sets makes the audit look.
        let mut cfg = MemConfig::tiny();
        cfg.audit = crate::AuditConfig::on();
        let blank = GuestMem::new(1 << 16);
        let mut m = MemorySystem::new(cfg.clone(), 2, blank.clone());
        let swmr = |m: &mut MemorySystem| {
            m.caches[0].force_state(0x200, crate::privcache::Mesi::M);
            m.caches[1].force_state(0x200, crate::privcache::Mesi::S);
            m.dir.force_sharers(0x200, 0b11);
        };
        let inclusion = |m: &mut MemorySystem| {
            m.caches[1].force_state(0x300, crate::privcache::Mesi::S);
        };
        let plants = [
            (swmr as fn(&mut MemorySystem), AuditViolation::MultipleWriters { line: 0x200, writers: vec![C0], holders: vec![C0, C1] }),
            (inclusion, AuditViolation::InclusionHole { line: 0x300, core: C1, entry_missing: true }),
        ];
        for (plant, violation) in plants {
            m.reset(&cfg, 2, Cow::Borrowed(&blank));
            m.read(C0, 1, 0x100, false);
            run_until_resp(&mut m, C0, 1000);
            while m.pending_events() > 0 {
                m.tick();
            }
            m.audit().expect("legal traffic passes the audit");
            assert!(!m.changed_since_sweep, "the clean sweep consumed the mark");
            m.reset(&cfg, 2, Cow::Borrowed(&blank));
            assert!(m.changed_since_sweep, "a reset arms the first sweep, as `new` does");
            plant(&mut m);
            assert_eq!(m.audit(), Err(violation));
        }
    }

    /// An audited system with a lock-hold bound of `bound`.
    fn audited(bound: Cycle, cfg: MemConfig) -> MemorySystem {
        let cfg = MemConfig {
            audit: crate::AuditConfig { max_lock_hold: bound, ..crate::AuditConfig::on() },
            ..cfg
        };
        MemorySystem::new(cfg, 1, GuestMem::new(1 << 16))
    }

    /// Ticks and audits until the audit trips, returning the cycle and the
    /// violation.
    fn tick_until_violation(m: &mut MemorySystem, bound: u64) -> (Cycle, AuditViolation) {
        for _ in 0..bound {
            m.tick();
            if let Err(v) = m.audit() {
                return (m.now(), v);
            }
        }
        panic!("no audit violation within {bound} cycles");
    }

    #[test]
    fn clean_cycles_age_locks_one_cycle_a_tick_and_trip_at_the_bound() {
        let bound = 20;
        let mut m = audited(bound, MemConfig::tiny());
        m.store_acquire(C0, 1, 0x100);
        run_until_resp(&mut m, C0, 1000);
        while m.pending_events() > 0 {
            m.tick();
        }
        m.audit().expect("nothing is locked");
        // A lock transfer onto the writable line: the only change.
        m.lock_line(C0, 0x100);
        m.audit().expect("a fresh lock is within the bound");
        assert_eq!(m.stats().audit.max_lock_hold_seen, 0);
        let since = m.now();
        for held in 1..=bound {
            m.tick();
            assert!(!m.changed_since_sweep, "no traffic, so no state change");
            m.audit().expect("within the bound");
            assert_eq!(m.stats().audit.max_lock_hold_seen, held, "one cycle older a tick");
        }
        let (cycle, v) = tick_until_violation(&mut m, 1);
        assert_eq!(cycle, since + bound + 1);
        let leak = AuditViolation::LockLeak { line: 0x100, core: C0, held_for: bound + 1, count: 1 };
        assert_eq!(v, leak);
    }

    #[test]
    fn a_lock_released_and_retaken_in_one_cycle_is_aged_from_the_retake() {
        let bound = 20;
        let mut m = audited(bound, MemConfig::tiny());
        m.store_acquire(C0, 1, 0x100);
        run_until_resp(&mut m, C0, 1000);
        while m.pending_events() > 0 {
            m.tick();
        }
        m.lock_line(C0, 0x100);
        for _ in 0..bound / 2 {
            m.tick();
            m.audit().expect("within the bound");
        }
        // A store_unlock drains and the next load_lock performs, no tick
        // in between: a new hold opens.
        m.unlock_line(C0, 0x100);
        m.lock_line(C0, 0x100);
        let retaken = m.now();
        assert_eq!(m.next_event_at(), Some(retaken + bound + 1));
        for _ in 0..bound {
            m.tick();
            m.audit().expect("the new hold is within the bound");
        }
        assert_eq!(m.stats().audit.max_lock_hold_seen, bound);
        let (cycle, v) = tick_until_violation(&mut m, 1);
        assert_eq!(cycle, retaken + bound + 1);
        let leak = AuditViolation::LockLeak { line: 0x100, core: C0, held_for: bound + 1, count: 1 };
        assert_eq!(v, leak);
    }

    #[test]
    fn a_stalled_fill_that_locks_on_retry_is_aged_from_the_retry() {
        // L2 of 2 sets x 2 ways, no prefetch: lines 0x0, 0x80 and 0x100
        // share set 0. Lock the first two, then a load_lock of the third
        // stalls until both unlock; its retry fills and locks the line on
        // the next tick, with no other traffic in that cycle.
        let bound = 2000;
        let mut cfg = MemConfig::tiny();
        (cfg.l1_sets, cfg.l1_ways, cfg.l2_sets, cfg.l2_ways) = (2, 2, 2, 2);
        let mut m = audited(bound, cfg);
        for (seq, line) in [(1, 0x0), (2, 0x80)] {
            m.read(C0, seq, line, true);
            run_until_resp(&mut m, C0, 1000);
        }
        m.read(C0, 3, 0x100, true);
        while m.diag().stalled_fills.is_empty() {
            assert!(m.now() < 1000, "the fill never stalled");
            m.tick();
            m.audit().expect("the two locks are within the bound");
        }
        assert_eq!(m.diag().stalled_fills, vec![(0, 0x100)]);
        m.unlock_line(C0, 0x0);
        m.unlock_line(C0, 0x80);
        m.audit().expect("no lock left");
        m.tick();
        assert!(m.is_locked(C0, 0x100), "the retry filled and locked the line");
        m.audit().expect("a fresh lock is within the bound");
        let retried = m.now();
        let (cycle, v) = tick_until_violation(&mut m, 2 * bound);
        assert_eq!(cycle, retried + bound + 1, "aged from the retry, got {v:?}");
    }

    #[test]
    fn diag_reports_locked_lines_and_busy_state() {
        let mut m = sys(2);
        m.read(C0, 1, 0x100, true);
        run_until_resp(&mut m, C0, 1000);
        // Remote GetX parks on the locked line; the dir entry stays busy.
        m.store_acquire(C1, 2, 0x100);
        for _ in 0..200 {
            m.tick();
        }
        let d = m.diag();
        assert_eq!(d.locked, vec![(0, 0x100, 1)]);
        assert!(d.busy_lines.contains(&0x100));
        let text = d.to_string();
        assert!(text.contains("0x100") && text.contains("c0"), "got: {text}");
    }

    // ---- Fault injection: invariants hold, schedules are reproducible ----

    /// A contended lock/unlock workload under the aggressive chaos preset,
    /// auditing every round. Returns (final cycle, final stats).
    fn chaos_run(seed: u64) -> (Cycle, MemStats) {
        chaos_run_on(seed, crate::NocConfig::default())
    }

    fn chaos_run_on(seed: u64, noc: crate::NocConfig) -> (Cycle, MemStats) {
        let mut cfg = MemConfig::tiny();
        cfg.chaos = crate::ChaosConfig::stress(seed);
        cfg.audit = crate::AuditConfig::on();
        cfg.noc = noc;
        let mut m = MemorySystem::new(cfg, 2, GuestMem::new(1 << 16));
        for round in 0..6u64 {
            let addr = 0x400 + round * 0x40;
            m.read(C0, round * 10 + 1, addr, true);
            run_until_resp(&mut m, C0, 100_000);
            m.read(C1, round * 10 + 2, 0x2000 + round * 0x40, false);
            run_until_resp(&mut m, C1, 100_000);
            assert!(
                m.try_store_perform(C0, round, addr, round),
                "locked line must stay writable under chaos"
            );
            m.unlock_line(C0, addr);
            m.audit().expect("invariants must hold under chaos");
        }
        for _ in 0..200_000 {
            if m.pending_events() == 0 {
                break;
            }
            m.tick();
            m.audit().expect("invariants must hold while draining");
        }
        assert_eq!(m.pending_events(), 0, "chaos must not wedge the protocol");
        (m.now(), m.stats())
    }

    #[test]
    fn chaos_stress_preserves_invariants_and_is_deterministic() {
        let (t1, s1) = chaos_run(42);
        let (t2, s2) = chaos_run(42);
        assert_eq!(t1, t2, "same seed must reproduce the same schedule");
        assert_eq!(s1, s2, "same seed must reproduce identical stats");
        assert!(s1.chaos.delayed_events > 0, "jitter must actually fire");
        assert!(s1.chaos.storms > 0, "storms must actually fire");
        assert!(s1.chaos.storm_evictions > 0, "storms must evict entries");
    }

    #[test]
    fn chaos_plus_contention_preserves_invariants_and_is_deterministic() {
        // Fault injection composed with bandwidth contention: the audit
        // runs every round inside chaos_run_on, so this is the SWMR/
        // inclusion regression for the chaos-in-the-NoC relocation.
        let noc = crate::NocConfig::contended(1);
        let (t1, s1) = chaos_run_on(42, noc);
        let (t2, s2) = chaos_run_on(42, noc);
        assert_eq!(t1, t2, "chaos + contention must reproduce the same schedule");
        assert_eq!(s1, s2, "chaos + contention must reproduce identical stats");
        assert!(s1.chaos.delayed_events > 0, "jitter must fire through the contended xbar");
        assert!(s1.noc.max_link_utilization() > 0.0, "links must report occupancy");
    }

    #[test]
    fn contended_interconnect_preserves_protocol_and_reports_stats() {
        let mut cfg = MemConfig::tiny();
        cfg.noc = crate::NocConfig::contended(1);
        let mut m = MemorySystem::new(cfg, 2, GuestMem::new(1 << 16));
        m.backing.store(0x100, 77);
        m.read(C0, 1, 0x100, false);
        let r = run_until_resp(&mut m, C0, 5000);
        assert!(matches!(r[0], CoreMsg::Read { value: 77, .. }));
        // Remote ownership transfer still works under contention.
        m.store_acquire(C1, 2, 0x100);
        run_until_resp(&mut m, C1, 5000);
        assert!(m.try_store_perform(C1, 1, 0x100, 5));
        let s = m.stats();
        assert_eq!(s.noc.policy, crate::XbarPolicy::Contended);
        assert_eq!(s.messages, s.noc.net_messages, "flat message count mirrors the NoC");
        assert!(s.noc.net_messages > 0);
        assert!(s.noc.local_deliveries > 0);
        assert!(s.noc.dir_ingress.messages > 0);
        assert!(s.noc.max_link_utilization() > 0.0);
    }

    #[test]
    fn contention_slows_cold_reads_monotonically() {
        let cold_read_cycles = |noc: crate::NocConfig| {
            let mut cfg = MemConfig::tiny();
            cfg.noc = noc;
            let mut m = MemorySystem::new(cfg, 1, GuestMem::new(1 << 16));
            m.read(C0, 1, 0x100, false);
            run_until_resp(&mut m, C0, 5000);
            m.now()
        };
        let ideal = cold_read_cycles(crate::NocConfig::default());
        let wide = cold_read_cycles(crate::NocConfig::contended(4));
        let narrow = cold_read_cycles(crate::NocConfig::contended(1));
        assert!(wide >= ideal, "serialization cannot beat the ideal xbar");
        assert!(narrow > wide, "bw=1 must pay more serialization than bw=4");
    }

    #[test]
    fn progress_report_names_the_first_tripped_site_in_escalation_order() {
        let mut cfg = MemConfig::tiny();
        cfg.progress.max_attempts = 2;
        let mut m = MemorySystem::new(cfg, 1, GuestMem::new(1 << 16));
        let tripped = |m: &MemorySystem| m.progress_report().map(|r| (r.site, r.observed));
        assert_eq!(tripped(&m), None, "no site is over its threshold");
        for _ in 0..3 {
            m.dir.alloc_guard.note_attempt((C0, 0x100));
            m.caches[0].fill_guard.note_attempt(0x100);
            m.lsq_guard.note_attempt(C0);
        }
        assert_eq!(tripped(&m), Some(("dir-alloc", 3)));
        m.dir.alloc_guard.note_success((C0, 0x100));
        assert_eq!(tripped(&m), Some(("cache-fill", 3)));
        m.caches[0].fill_guard.note_success(0x100);
        assert_eq!(tripped(&m), Some(("lsq-retry", 3)));
        m.cfg.progress = crate::ProgressConfig { max_attempts: 2, ..crate::ProgressConfig::off() };
        assert_eq!(tripped(&m), None, "escalation off reports nothing");
    }

    #[test]
    fn mshr_clamp_limits_outstanding_misses() {
        let mut cfg = MemConfig::tiny();
        cfg.chaos = crate::ChaosConfig {
            enabled: true,
            seed: 1,
            mshr_clamp: 2,
            ..crate::ChaosConfig::default()
        };
        let mut m = MemorySystem::new(cfg, 1, GuestMem::new(1 << 16));
        assert_eq!(m.read(C0, 1, 0x1000, false), ReqOutcome::Accepted);
        assert_eq!(m.read(C0, 2, 0x2000, false), ReqOutcome::Accepted);
        assert_eq!(
            m.read(C0, 3, 0x3000, false),
            ReqOutcome::Retry,
            "third miss must hit the clamped MSHR limit"
        );
    }
}
