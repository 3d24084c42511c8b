//! Per-core private cache controller.
//!
//! Owns the L1D presence array, the private L2 coherence array (the L1 is
//! inclusive in the L2), the MSHRs, the line lock table that mirrors the
//! core's Atomic Queue, and the queue of external requests parked on locked
//! lines.

use crate::config::PREFETCH_DEGREE;
use crate::msgs::{DirMsg, DirReq, DirReqKind, L1Msg, LatClass, ReadDone};
use crate::prefetch::StridePrefetcher;
use crate::progress::ProgressGuard;
use crate::stats::CoreMemStats;
use crate::tagarray::TagArray;
use crate::{CoreId, Cycle, FxHashMap, Line, MemConfig};
use fa_isa::{line_of, Addr};
use fa_trace::{TraceBuf, TraceEvent, MESI_NONE};
use std::collections::VecDeque;

/// MESI state of a privately cached line (`I` = not present).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mesi {
    /// Modified: exclusive, dirty.
    M,
    /// Exclusive: sole copy, clean.
    E,
    /// Shared.
    S,
}

impl Mesi {
    /// True when the state confers write permission.
    pub fn writable(self) -> bool {
        matches!(self, Mesi::M | Mesi::E)
    }

    /// Trace encoding ([`fa_trace::mesi_name`]).
    pub(crate) fn code(self) -> u8 {
        match self {
            Mesi::M => fa_trace::MESI_M,
            Mesi::E => fa_trace::MESI_E,
            Mesi::S => fa_trace::MESI_S,
        }
    }
}

/// Trace encoding of an optional MESI state (`None` = not present).
pub(crate) fn mesi_code(s: Option<Mesi>) -> u8 {
    s.map_or(MESI_NONE, Mesi::code)
}

/// Facts observed at a successful store perform, for the conformance
/// checker's serialization log.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PerformInfo {
    /// The line was lock-pinned at the instant of the write. The core
    /// releases a store_unlock's lock only after its perform, so this is
    /// true for every store_unlock, i.e. inside an RMW's atomicity window.
    pub under_lock: bool,
}

/// Outcome of presenting a request to the controller.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReqOutcome {
    /// The request was accepted (a response will arrive eventually).
    Accepted,
    /// Structural hazard (MSHRs full); retry next cycle.
    Retry,
}

/// A demand access waiting on an MSHR.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Pending {
    Read { seq: u64, addr: Addr, lock: bool },
    Store { seq: u64 },
    Prefetch,
}

#[derive(Debug)]
pub(crate) struct Mshr {
    pub pending: Vec<Pending>,
}

/// A grant that could not allocate because every way in the set was locked.
#[derive(Clone, Copy, Debug)]
pub(crate) struct StalledFill {
    pub line: Line,
    pub excl: bool,
    pub class: LatClass,
    /// Directory park time carried on the grant (attribution metadata,
    /// threaded through to the eventual [`ReadDone`]).
    pub park: u64,
    /// Cycle the fill first stalled (starvation accounting).
    pub since: Cycle,
}

/// Actions the controller asks the system to carry out (scheduling events,
/// delivering notices). Returned instead of taken directly to keep borrows
/// simple and the controller unit-testable. The system routes `ToDir` onto
/// this core's request egress port and completion events onto its local
/// delivery port (see [`crate::noc`]); the controller itself stays
/// network-agnostic.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Action {
    /// Deliver a read response to the core after `delay` cycles.
    Read { delay: Cycle, done: ReadDone },
    /// Deliver a store-ready response after `delay` cycles.
    StoreReady { delay: Cycle, seq: u64 },
    /// Send a message to the directory after the network latency.
    ToDir(DirMsg),
    /// Notify the core that `line` left the private cache.
    LineLost { line: Line },
}

/// The private cache controller for one core. `Default` is empty storage,
/// which [`PrivCache::reset`] makes a controller.
#[derive(Debug, Default)]
pub struct PrivCache {
    id: CoreId,
    l1: TagArray<()>,
    l2: TagArray<Mesi>,
    /// Each locked line's lock count and the cycle its outermost
    /// acquisition opened (hold-duration accounting).
    locks: FxHashMap<Line, (u32, Cycle)>,
    mshrs: FxHashMap<Line, Mshr>,
    /// Emptied `Mshr::pending` vectors, handed to the next MSHR.
    mshr_pool: Vec<Vec<Pending>>,
    parked_ext: FxHashMap<Line, VecDeque<L1Msg>>,
    stalled_fills: VecDeque<StalledFill>,
    /// The (empty) queue [`PrivCache::retry_stalled_fills`] collects the
    /// still-stalled fills into before it trades places with
    /// `stalled_fills`.
    still_stalled: VecDeque<StalledFill>,
    /// An unlock since the last retry may have freed a way for a stalled
    /// fill: only an unlock can, so the fills retry only then.
    retry_due: bool,
    /// Forward-progress guard for stalled fills (site `cache-fill`): counts
    /// consecutive failed retries per line.
    pub(crate) fill_guard: ProgressGuard<Line>,
    prefetcher: StridePrefetcher,
    prefetch_enabled: bool,
    mshr_cap: usize,
    l1_lat: Cycle,
    l2_lat: Cycle,
    /// Current cycle, set by the system each time it calls in (used for
    /// stall aging and hold windows).
    now: Cycle,
    /// A hold opened or closed since the system last took the flag: the
    /// auditor's lock-hold horizon moves only then.
    pub(crate) locks_moved: bool,
    /// Structured event ring for this controller.
    pub(crate) trace: TraceBuf,
    /// This core's counters and histograms, as `MemStats` publishes them
    /// (the system adds the read-class and store-perform tallies, which
    /// are counted at delivery).
    pub(crate) stats: CoreMemStats,
}

impl PrivCache {
    /// Creates the controller for core `id`.
    pub fn new(id: CoreId, cfg: &MemConfig) -> PrivCache {
        let mut c = PrivCache::default();
        c.reset(id, cfg);
        c
    }

    /// Puts the controller in exactly the state [`new`](Self::new) builds,
    /// keeping the storage of its tag arrays, maps, queues and trace ring
    /// (an MSHR's pending list goes back to the pool).
    pub fn reset(&mut self, id: CoreId, cfg: &MemConfig) {
        let PrivCache {
            id: my_id, l1, l2, locks, mshrs, mshr_pool, parked_ext, stalled_fills, still_stalled,
            retry_due, fill_guard, prefetcher, prefetch_enabled, mshr_cap, l1_lat, l2_lat, now,
            locks_moved, trace, stats,
        } = self;
        *my_id = id;
        l1.reset(cfg.l1_sets, cfg.l1_ways);
        l2.reset(cfg.l2_sets, cfg.l2_ways);
        locks.clear();
        mshr_pool.extend(mshrs.drain().map(|(_, mut m)| {
            m.pending.clear();
            m.pending
        }));
        mshrs.reserve(cfg.mshrs);
        parked_ext.clear();
        stalled_fills.clear();
        still_stalled.clear();
        fill_guard.reset();
        *prefetcher = StridePrefetcher::new(PREFETCH_DEGREE);
        (*prefetch_enabled, *mshr_cap) = (cfg.stride_prefetch, cfg.mshrs);
        (*l1_lat, *l2_lat, *now) = (cfg.l1_lat, cfg.l2_lat, 0);
        (*retry_due, *locks_moved) = (false, false);
        trace.reset(&cfg.trace);
        *stats = CoreMemStats::default();
    }

    /// Sets the controller clock (the system calls this before every call
    /// into the controller, so hold windows and event timestamps read the
    /// cycle of the call).
    pub(crate) fn set_now(&mut self, now: Cycle) {
        self.now = now;
    }

    /// Current MESI state of `line` (`None` = Invalid).
    pub fn state(&self, line: Line) -> Option<Mesi> {
        self.l2.peek(line).copied()
    }

    /// True if the private cache holds write permission for `line`.
    pub fn writable(&self, line: Line) -> bool {
        self.state(line).map(Mesi::writable).unwrap_or(false)
    }

    /// True if `line` is currently lock-pinned (lock count > 0).
    pub fn is_locked(&self, line: Line) -> bool {
        self.locks.contains_key(&line)
    }

    /// Lock count for `line`.
    pub fn lock_count(&self, line: Line) -> u32 {
        self.locks.get(&line).map_or(0, |l| l.0)
    }

    /// Handles a demand read from the core's LSU.
    ///
    /// `lock` (a load_lock) requests write permission and locks the line the
    /// moment permission is (or already is) held. Responses are emitted as
    /// [`Action::Read`].
    pub(crate) fn read(
        &mut self,
        seq: u64,
        addr: Addr,
        lock: bool,
        out: &mut Vec<Action>,
    ) -> ReqOutcome {
        let line = line_of(addr);
        let state = self.l2.touch(line).copied();
        let satisfied_locally = matches!(state, Some(s) if !lock || s.writable());
        if satisfied_locally {
            let had_wp = state.map(Mesi::writable).unwrap_or(false);
            if lock {
                self.lock(line);
            }
            let (delay, class) = if self.l1.touch(line).is_some() {
                (self.l1_lat, LatClass::L1)
            } else {
                self.fill_l1(line);
                (self.l2_lat, LatClass::L2)
            };
            let done =
                ReadDone { seq, addr, class, had_write_perm: had_wp, locked: lock, park: 0 };
            out.push(Action::Read { delay, done });
            return ReqOutcome::Accepted;
        }
        // Miss (or upgrade): route through an MSHR.
        self.miss(line, lock, Pending::Read { seq, addr, lock }, out)
    }

    /// Handles a write-permission request for the store at the SB head (or
    /// an at-commit store prefetch).
    pub(crate) fn store_acquire(
        &mut self,
        seq: u64,
        addr: Addr,
        out: &mut Vec<Action>,
    ) -> ReqOutcome {
        let line = line_of(addr);
        if self.l2.touch(line).map(|s| s.writable()).unwrap_or(false) {
            out.push(Action::StoreReady { delay: 1, seq });
            return ReqOutcome::Accepted;
        }
        self.miss(line, true, Pending::Store { seq }, out)
    }

    fn miss(
        &mut self,
        line: Line,
        exclusive: bool,
        pending: Pending,
        out: &mut Vec<Action>,
    ) -> ReqOutcome {
        if let Some(mshr) = self.mshrs.get_mut(&line) {
            // Merge into the outstanding request. Exactly one directory
            // request is in flight per MSHR at any time: if this merge needs
            // write permission but a GetS is outstanding, the fill logic
            // re-requests GetX for the leftovers once the S grant lands.
            mshr.pending.push(pending);
            return ReqOutcome::Accepted;
        }
        if self.mshrs.len() >= self.mshr_cap {
            return ReqOutcome::Retry;
        }
        let kind = if exclusive { DirReqKind::GetX } else { DirReqKind::GetS };
        self.open_mshr(line, pending);
        out.push(Action::ToDir(DirMsg::Req(DirReq { from: self.id, line, kind })));
        // Train the prefetcher on demand misses only.
        self.maybe_prefetch(line, out);
        ReqOutcome::Accepted
    }

    /// Opens the MSHR for `line` with `first` waiting on it.
    fn open_mshr(&mut self, line: Line, first: Pending) {
        let mut pending = self.mshr_pool.pop().unwrap_or_default();
        pending.push(first);
        self.mshrs.insert(line, Mshr { pending });
    }

    /// Issues stride prefetches for a demand miss on `line`.
    pub(crate) fn maybe_prefetch(&mut self, line: Line, out: &mut Vec<Action>) {
        if !self.prefetch_enabled {
            return;
        }
        for target in self.prefetcher.on_miss(line) {
            if self.l2.contains(target) || self.mshrs.contains_key(&target) {
                continue;
            }
            // Leave headroom for demand requests.
            if self.mshrs.len() + 2 >= self.mshr_cap {
                break;
            }
            self.open_mshr(target, Pending::Prefetch);
            out.push(Action::ToDir(DirMsg::Req(DirReq {
                from: self.id,
                line: target,
                kind: DirReqKind::GetS,
            })));
        }
    }

    /// Attempts to perform a store: requires write permission. Transitions
    /// the line to M and reports perform-time facts on success; the caller
    /// then writes the backing store. The core takes and releases the
    /// line's locks itself ([`PrivCache::lock`], [`PrivCache::unlock`]), so
    /// a draining store_unlock performs before its unlock, inside its
    /// atomicity window.
    pub(crate) fn try_store_perform(&mut self, addr: Addr) -> Option<PerformInfo> {
        let line = line_of(addr);
        match self.l2.touch(line) {
            Some(s) if s.writable() => {
                let was = *s;
                *s = Mesi::M;
                if was != Mesi::M {
                    self.trace.record(
                        self.now,
                        TraceEvent::Mesi { line, from: was.code(), to: Mesi::M.code() },
                    );
                }
                Some(PerformInfo { under_lock: self.locks.contains_key(&line) })
            }
            _ => None,
        }
    }

    /// Increments the lock count on `line` (load_lock performed on an
    /// already-writable line, or lock transfer during forwarding). The
    /// outermost acquisition opens the hold-duration window.
    pub(crate) fn lock(&mut self, line: Line) {
        let (cnt, _) = self.locks.entry(line).or_insert((0, self.now));
        *cnt += 1;
        let cnt = *cnt;
        if cnt == 1 {
            self.locks_moved = true;
        }
        self.trace.record(self.now, TraceEvent::LockAcquire { line, count: cnt });
    }

    /// Decrements the lock count on `line`; at zero the line unpins, any
    /// stalled fill retries on the next tick, and all parked external
    /// requests replay in arrival order.
    ///
    /// # Panics
    ///
    /// Panics if the line is not locked — an AQ/controller desync bug.
    pub(crate) fn unlock(&mut self, line: Line, out: &mut Vec<Action>) {
        let (cnt, since) = self.locks.get_mut(&line).expect("unlock of unlocked line");
        *cnt -= 1;
        if *cnt == 0 {
            let held = self.now.saturating_sub(*since);
            self.locks.remove(&line);
            self.locks_moved = true;
            self.stats.lock_hold_hist.record(held);
            self.trace.record(self.now, TraceEvent::LockRelease { line, held });
            // The freed way may be the one a stalled fill waits for.
            self.retry_due |= !self.stalled_fills.is_empty();
            if let Some(queue) = self.parked_ext.remove(&line) {
                for msg in queue {
                    self.handle_ext(msg, out);
                }
            }
        }
    }

    /// Handles an external (directory-initiated) message.
    pub(crate) fn handle_ext(&mut self, msg: L1Msg, out: &mut Vec<Action>) {
        match msg {
            // A locked line, or one whose fill is stalled, defers the
            // request until the unlock or the fill.
            L1Msg::Inv { line } | L1Msg::Downgrade { line }
                if self.is_locked(line) || self.fill_pending(line) =>
            {
                self.stats.parked_on_lock += 1;
                self.trace.record(self.now, TraceEvent::LockPark { line });
                self.parked_ext.entry(line).or_default().push_back(msg);
            }
            L1Msg::Inv { line } => {
                let was = self.l2.remove(line);
                let had = was.is_some();
                if had {
                    self.trace.record(
                        self.now,
                        TraceEvent::Mesi { line, from: mesi_code(was), to: fa_trace::MESI_I },
                    );
                    self.l1.remove(line);
                    out.push(Action::LineLost { line });
                }
                out.push(Action::ToDir(DirMsg::InvAck { from: self.id, line }));
            }
            L1Msg::Downgrade { line } => {
                let had = match self.l2.peek_mut(line) {
                    Some(s) => {
                        let was = s.code();
                        *s = Mesi::S;
                        if was != Mesi::S.code() {
                            self.trace.record(
                                self.now,
                                TraceEvent::Mesi { line, from: was, to: Mesi::S.code() },
                            );
                        }
                        true
                    }
                    None => false,
                };
                out.push(Action::ToDir(DirMsg::DownAck { from: self.id, line, had_line: had }));
            }
            L1Msg::GrantS { line, class, park } => self.on_grant(line, false, class, park, out),
            L1Msg::GrantX { line, class, park } => self.on_grant(line, true, class, park, out),
        }
    }

    fn fill_pending(&self, line: Line) -> bool {
        self.stalled_fills.iter().any(|f| f.line == line)
    }

    fn on_grant(&mut self, line: Line, excl: bool, class: LatClass, park: u64, out: &mut Vec<Action>) {
        if !self.try_fill(line, excl, class, park, out) {
            self.stats.fill_stalled_all_locked += 1;
            self.stalled_fills.push_back(StalledFill {
                line,
                excl,
                class,
                park,
                since: self.now,
            });
        }
    }

    /// Retries the fills stalled on all-ways-locked sets if an unlock since
    /// the last call may have freed a way. The system calls it on the tick
    /// after such an unlock ([`PrivCache::retry_due`]).
    ///
    /// A way in an all-locked set frees only on an unlock, so a retry at
    /// any other time would fail. The queue is serviced strictly
    /// oldest-first; the longest observed stall is tracked in
    /// `stats.max_fill_stall`.
    pub(crate) fn retry_stalled_fills(&mut self, out: &mut Vec<Action>) {
        let now = self.now;
        if !std::mem::take(&mut self.retry_due) {
            return;
        }
        let mut still_stalled = std::mem::take(&mut self.still_stalled);
        while let Some(f) = self.stalled_fills.pop_front() {
            self.stats.max_fill_stall = self.stats.max_fill_stall.max(now.saturating_sub(f.since));
            if self.try_fill(f.line, f.excl, f.class, f.park, out) {
                self.fill_guard.note_success(f.line);
                let waited = now.saturating_sub(f.since);
                self.stats.fill_stall_hist.record(waited);
                self.trace.record(now, TraceEvent::FillStall { line: f.line, waited });
                if let Some(queue) = self.parked_ext.remove(&f.line) {
                    // External requests parked behind the pending fill replay
                    // now (unless the fill locked the line — then they stay).
                    if self.is_locked(f.line) {
                        self.parked_ext.insert(f.line, queue);
                    } else {
                        for msg in queue {
                            self.handle_ext(msg, out);
                        }
                    }
                }
            } else {
                self.fill_guard.note_attempt(f.line);
                still_stalled.push_back(f);
            }
        }
        debug_assert!(self.stalled_fills.is_empty(), "a retry never stalls a new fill");
        self.still_stalled = std::mem::replace(&mut self.stalled_fills, still_stalled);
    }

    fn try_fill(
        &mut self,
        line: Line,
        excl: bool,
        class: LatClass,
        park: u64,
        out: &mut Vec<Action>,
    ) -> bool {
        if !self.l2.contains(line) {
            let filled = if excl { Mesi::E } else { Mesi::S };
            let locks = &self.locks;
            match self.l2.insert(line, filled, |l| locks.contains_key(&l)) {
                Ok(Some((victim, state))) => {
                    self.l1.remove(victim);
                    self.trace.record(
                        self.now,
                        TraceEvent::Mesi {
                            line: victim,
                            from: state.code(),
                            to: fa_trace::MESI_I,
                        },
                    );
                    out.push(Action::LineLost { line: victim });
                }
                Ok(None) => {}
                Err(_) => return false,
            }
            self.trace.record(
                self.now,
                TraceEvent::Mesi { line, from: MESI_NONE, to: filled.code() },
            );
        } else if excl {
            // Upgrade grant for a line we still hold in S. The `contains`
            // check above guarantees presence.
            *self.l2.peek_mut(line).expect("upgrade target resident") = Mesi::E;
            self.trace.record(
                self.now,
                TraceEvent::Mesi { line, from: Mesi::S.code(), to: Mesi::E.code() },
            );
        }
        self.fill_l1(line);
        // Fill complete: release the directory's serialization on the line.
        out.push(Action::ToDir(DirMsg::Unblock { from: self.id, line }));
        // Complete the MSHR.
        let Some(mut mshr) = self.mshrs.remove(&line) else {
            // Grant with no MSHR cannot happen: MSHRs are only removed here.
            unreachable!("grant for line {line:#x} with no MSHR");
        };
        let mut leftovers = self.mshr_pool.pop().unwrap_or_default();
        for p in mshr.pending.drain(..) {
            match p {
                Pending::Read { seq, addr, lock } => {
                    if lock && !excl {
                        leftovers.push(Pending::Read { seq, addr, lock });
                        continue;
                    }
                    if lock {
                        self.lock(line);
                    }
                    let done =
                        ReadDone { seq, addr, class, had_write_perm: false, locked: lock, park };
                    out.push(Action::Read { delay: self.l1_lat, done });
                }
                Pending::Store { seq } => {
                    if excl {
                        out.push(Action::StoreReady { delay: 1, seq });
                    } else {
                        leftovers.push(Pending::Store { seq });
                    }
                }
                Pending::Prefetch => {}
            }
        }
        self.mshr_pool.push(mshr.pending);
        if leftovers.is_empty() {
            self.mshr_pool.push(leftovers);
        } else {
            // The grant was S but someone needs X: re-request.
            self.mshrs.insert(line, Mshr { pending: leftovers });
            out.push(Action::ToDir(DirMsg::Req(DirReq {
                from: self.id,
                line,
                kind: DirReqKind::GetX,
            })));
        }
        true
    }

    fn fill_l1(&mut self, line: Line) {
        if self.l1.contains(line) {
            return;
        }
        let locks = &self.locks;
        match self.l1.insert(line, (), |l| locks.contains_key(&l)) {
            Ok(_) => {}
            Err(_) => {
                // L1 is only a latency filter; if every way is locked we
                // simply skip the L1 fill (the L2 keeps the line and the
                // locks stay precise).
            }
        }
    }

    /// All resident L2 lines with their MESI state, in deterministic set
    /// order (invariant auditing).
    pub(crate) fn resident_lines(&self) -> impl Iterator<Item = (Line, Mesi)> + '_ {
        self.l2.iter().map(|(l, s)| (l, *s))
    }

    /// All currently locked lines with their counts and the cycle each
    /// hold opened (auditing/diagnostics; order is unspecified — callers
    /// sort).
    pub(crate) fn locks_iter(&self) -> impl Iterator<Item = (Line, u32, Cycle)> + '_ {
        self.locks.iter().map(|(&l, &(count, opened))| (l, count, opened))
    }

    /// Lines whose fills are stalled on all-ways-locked sets (diagnostics).
    pub(crate) fn stalled_fill_lines(&self) -> impl Iterator<Item = Line> + '_ {
        self.stalled_fills.iter().map(|f| f.line)
    }

    /// True while an unlock has made a stalled-fill retry due at the next
    /// tick (so the clock cannot be fast-forwarded past it).
    pub(crate) fn retry_due(&self) -> bool {
        self.retry_due
    }

    /// Test-only: forcibly sets a line's MESI state, bypassing the protocol.
    /// Exists solely to prove the invariant auditor detects corruption.
    #[cfg(test)]
    pub(crate) fn force_state(&mut self, line: Line, st: Mesi) {
        if let Some(s) = self.l2.peek_mut(line) {
            *s = st;
        } else {
            let _ = self.l2.insert(line, st, |_| false);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cache() -> PrivCache {
        PrivCache::new(CoreId(0), &MemConfig::tiny())
    }

    fn grant(c: &mut PrivCache, line: Line, excl: bool, out: &mut Vec<Action>) {
        let msg = if excl {
            L1Msg::GrantX { line, class: LatClass::Mem, park: 0 }
        } else {
            L1Msg::GrantS { line, class: LatClass::Mem, park: 0 }
        };
        c.handle_ext(msg, out);
    }

    #[test]
    fn cold_read_misses_to_directory_then_hits() {
        let mut c = cache();
        let mut out = Vec::new();
        assert_eq!(c.read(1, 0x100, false, &mut out), ReqOutcome::Accepted);
        assert!(out.iter().any(|a| matches!(
            a,
            Action::ToDir(DirMsg::Req(DirReq { kind: DirReqKind::GetS, line: 0x100, .. }))
        )));
        out.clear();
        grant(&mut c, 0x100, false, &mut out);
        assert!(out.iter().any(|a| matches!(
            a,
            Action::Read { done: ReadDone { seq: 1, addr: 0x100, .. }, .. }
        )));
        // Second read is an L1 hit.
        out.clear();
        assert_eq!(c.read(2, 0x108, false, &mut out), ReqOutcome::Accepted);
        assert!(out.iter().any(|a| matches!(
            a,
            Action::Read { done: ReadDone { seq: 2, class: LatClass::L1, .. }, .. }
        )));
    }

    #[test]
    fn locking_read_locks_at_grant() {
        let mut c = cache();
        let mut out = Vec::new();
        c.read(1, 0x100, true, &mut out);
        assert!(!c.is_locked(0x100));
        out.clear();
        grant(&mut c, 0x100, true, &mut out);
        assert!(c.is_locked(0x100));
        assert!(out.iter().any(|a| matches!(
            a,
            Action::Read { done: ReadDone { locked: true, .. }, .. }
        )));
    }

    #[test]
    fn exclusive_read_on_shared_line_upgrades() {
        let mut c = cache();
        let mut out = Vec::new();
        c.read(1, 0x100, false, &mut out);
        out.clear();
        grant(&mut c, 0x100, false, &mut out); // now S
        assert_eq!(c.state(0x100), Some(Mesi::S));
        out.clear();
        c.read(2, 0x100, true, &mut out);
        assert!(out.iter().any(|a| matches!(
            a,
            Action::ToDir(DirMsg::Req(DirReq { kind: DirReqKind::GetX, .. }))
        )));
        out.clear();
        grant(&mut c, 0x100, true, &mut out);
        assert_eq!(c.state(0x100), Some(Mesi::E));
        assert!(c.is_locked(0x100));
    }

    #[test]
    fn inv_on_locked_line_parks_until_unlock() {
        let mut c = cache();
        let mut out = Vec::new();
        c.read(1, 0x100, true, &mut out);
        out.clear();
        grant(&mut c, 0x100, true, &mut out);
        out.clear();
        c.handle_ext(L1Msg::Inv { line: 0x100 }, &mut out);
        assert!(out.is_empty(), "Inv must be parked, got {out:?}");
        assert!(c.parked_ext.contains_key(&0x100));
        // Unlock replays the Inv: line leaves, ack goes out.
        c.unlock(0x100, &mut out);
        assert!(out.iter().any(|a| matches!(a, Action::ToDir(DirMsg::InvAck { .. }))));
        assert!(out.iter().any(|a| matches!(
            a,
            Action::LineLost { line: 0x100 }
        )));
        assert_eq!(c.state(0x100), None);
    }

    #[test]
    fn multiple_locks_require_multiple_unlocks() {
        let mut c = cache();
        let mut out = Vec::new();
        c.read(1, 0x100, true, &mut out);
        grant(&mut c, 0x100, true, &mut out);
        c.lock(0x100);
        assert_eq!(c.lock_count(0x100), 2);
        out.clear();
        c.handle_ext(L1Msg::Inv { line: 0x100 }, &mut out);
        c.unlock(0x100, &mut out);
        assert!(out.is_empty(), "still locked once");
        c.unlock(0x100, &mut out);
        assert!(out.iter().any(|a| matches!(a, Action::ToDir(DirMsg::InvAck { .. }))));
    }

    #[test]
    fn inv_on_absent_line_acks_immediately() {
        let mut c = cache();
        let mut out = Vec::new();
        c.handle_ext(L1Msg::Inv { line: 0x100 }, &mut out);
        assert_eq!(out.len(), 1);
        assert!(matches!(out[0], Action::ToDir(DirMsg::InvAck { line: 0x100, .. })));
    }

    #[test]
    fn downgrade_moves_m_to_s() {
        let mut c = cache();
        let mut out = Vec::new();
        c.store_acquire(1, 0x100, &mut out);
        grant(&mut c, 0x100, true, &mut out);
        assert!(c.try_store_perform(0x100).is_some());
        assert_eq!(c.state(0x100), Some(Mesi::M));
        out.clear();
        c.handle_ext(L1Msg::Downgrade { line: 0x100 }, &mut out);
        assert_eq!(c.state(0x100), Some(Mesi::S));
        assert!(matches!(
            out[0],
            Action::ToDir(DirMsg::DownAck { had_line: true, .. })
        ));
    }

    #[test]
    fn store_perform_requires_write_permission() {
        let mut c = cache();
        let mut out = Vec::new();
        assert!(c.try_store_perform(0x100).is_none());
        c.read(1, 0x100, false, &mut out);
        grant(&mut c, 0x100, false, &mut out); // S only
        assert!(c.try_store_perform(0x100).is_none());
        c.store_acquire(2, 0x100, &mut out);
        grant(&mut c, 0x100, true, &mut out);
        let info = c.try_store_perform(0x100).expect("M line performs");
        assert!(!info.under_lock);
    }

    #[test]
    fn store_perform_with_lock_and_unlock_responsibilities() {
        let mut c = cache();
        let mut out = Vec::new();
        c.store_acquire(1, 0x100, &mut out);
        grant(&mut c, 0x100, true, &mut out);
        // lock_on_access: an ordinary store performs, then the load_lock
        // that forwarded from it captures the line's lock.
        let info = c.try_store_perform(0x100).expect("performs");
        assert!(!info.under_lock);
        c.lock(0x100);
        // Its store_unlock drains: the write performs inside the lock
        // window, then the core unlocks.
        let info = c.try_store_perform(0x100).expect("performs");
        assert!(info.under_lock);
        c.unlock(0x100, &mut out);
        assert!(!c.is_locked(0x100));
    }

    #[test]
    fn locked_lines_survive_capacity_pressure() {
        // tiny(): L2 is 8 sets x 4 ways. Fill one set beyond capacity with a
        // locked line present: the locked line must never be the victim.
        let mut c = cache();
        let mut out = Vec::new();
        let set_stride = 8 * 64; // lines mapping to the same L2 set
        let locked_line = 0x0;
        c.read(0, locked_line, true, &mut out);
        grant(&mut c, locked_line, true, &mut out);
        assert!(c.is_locked(locked_line));
        for i in 1..=8u64 {
            let line = i * set_stride;
            c.read(i, line, false, &mut out);
            grant(&mut c, line, false, &mut out);
        }
        assert!(c.state(locked_line).is_some(), "locked line was evicted");
    }

    #[test]
    fn fill_stalls_when_all_ways_locked_and_retries_after_unlock() {
        let mut cfg = MemConfig::tiny();
        cfg.l2_ways = 2;
        cfg.l2_sets = 2;
        cfg.l1_sets = 2;
        cfg.l1_ways = 2;
        let mut c = PrivCache::new(CoreId(0), &cfg);
        let mut out = Vec::new();
        let stride = 2 * 64;
        // Lock both ways of set 0.
        for i in 0..2u64 {
            let line = i * stride;
            c.read(i, line, true, &mut out);
            grant(&mut c, line, true, &mut out);
            assert!(c.is_locked(line));
        }
        // Third line in the same set cannot fill.
        out.clear();
        c.read(9, 2 * stride, false, &mut out);
        grant(&mut c, 2 * stride, false, &mut out);
        assert!(
            !out.iter().any(|a| matches!(a, Action::Read { done: ReadDone { seq: 9, .. }, .. })),
            "fill should have stalled"
        );
        assert!(c.stats.fill_stalled_all_locked > 0);
        // Unlock one way; the retry succeeds.
        c.unlock(0, &mut out);
        out.clear();
        c.retry_stalled_fills(&mut out);
        assert!(out.iter().any(|a| matches!(
            a,
            Action::Read { done: ReadDone { seq: 9, .. }, .. }
        )));
    }

    #[test]
    fn stalled_fill_waits_for_an_unlock_then_fills_on_the_next_tick() {
        let mut cfg = MemConfig::tiny();
        cfg.l2_ways = 2;
        cfg.l2_sets = 2;
        cfg.l1_sets = 2;
        cfg.l1_ways = 2;
        let mut c = PrivCache::new(CoreId(0), &cfg);
        let mut out = Vec::new();
        let stride = 2 * 64;
        for i in 0..2u64 {
            let line = i * stride;
            c.read(i, line, true, &mut out);
            grant(&mut c, line, true, &mut out);
        }
        out.clear();
        c.read(9, 2 * stride, false, &mut out);
        grant(&mut c, 2 * stride, false, &mut out);
        assert_eq!(c.stats.fill_stalled_all_locked, 1);
        // 1000 cycles with the set still fully locked: nothing can free a
        // way, so nothing retries.
        for now in 1..=1000u64 {
            c.set_now(now);
            c.retry_stalled_fills(&mut out);
        }
        assert_eq!(c.fill_guard.attempts_max, 0, "no retry while the set stays locked");
        assert!(!c.retry_due());
        // The unlock makes the retry due; the fill lands on the next tick.
        c.unlock(0, &mut out);
        assert!(c.retry_due());
        out.clear();
        c.set_now(1001);
        c.retry_stalled_fills(&mut out);
        assert!(
            out.iter().any(|a| matches!(a, Action::Read { done: ReadDone { seq: 9, .. }, .. })),
            "freed way must be claimed on the tick after the unlock"
        );
        assert_eq!(c.fill_guard.attempts_max, 0, "the woken retry succeeded");
        assert_eq!(c.stats.max_fill_stall, 1001);
    }

    #[test]
    fn mshr_exhaustion_reports_retry() {
        let mut cfg = MemConfig::tiny();
        cfg.mshrs = 2;
        cfg.stride_prefetch = false;
        let mut c = PrivCache::new(CoreId(0), &cfg);
        let mut out = Vec::new();
        assert_eq!(c.read(1, 0x1000, false, &mut out), ReqOutcome::Accepted);
        assert_eq!(c.read(2, 0x2000, false, &mut out), ReqOutcome::Accepted);
        assert_eq!(c.read(3, 0x3000, false, &mut out), ReqOutcome::Retry);
        // Same-line requests merge instead.
        assert_eq!(c.read(4, 0x1008, false, &mut out), ReqOutcome::Accepted);
    }

    #[test]
    fn merged_exclusive_read_reissues_getx_after_s_grant() {
        let mut c = cache();
        let mut out = Vec::new();
        c.read(1, 0x100, false, &mut out); // GetS in flight
        c.read(2, 0x100, true, &mut out); // merges; no second request yet
        assert_eq!(
            out.iter()
                .filter(|a| matches!(a, Action::ToDir(DirMsg::Req(_))))
                .count(),
            1,
            "exactly one directory request may be in flight per line"
        );
        out.clear();
        grant(&mut c, 0x100, false, &mut out); // S grant satisfies read 1 only
        assert!(out.iter().any(|a| matches!(
            a,
            Action::Read { done: ReadDone { seq: 1, .. }, .. }
        )));
        assert!(!out.iter().any(|a| matches!(
            a,
            Action::Read { done: ReadDone { seq: 2, .. }, .. }
        )));
        // The leftover exclusive read re-requests GetX now.
        assert!(out.iter().any(|a| matches!(
            a,
            Action::ToDir(DirMsg::Req(DirReq { kind: DirReqKind::GetX, .. }))
        )));
        out.clear();
        grant(&mut c, 0x100, true, &mut out);
        assert!(out.iter().any(|a| matches!(
            a,
            Action::Read { done: ReadDone { seq: 2, locked: true, .. }, .. }
        )));
        assert!(c.is_locked(0x100));
    }
}
