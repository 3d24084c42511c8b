//! Scheduler indices: the event lists that let [`Core::tick`] touch only
//! the micro-ops something happened to, instead of walking the ROB.
//!
//! Every list holds [`Slot`] handles into the ROB and is kept in step with
//! it at the three places entries come and go: dispatch appends, commit
//! pops list fronts, squash truncates every list at the first dropped
//! sequence number.
//!
//! * **dependents** — per ROB position, the chain of `(consumer, operand)`
//!   pairs waiting on the producer there, linked through one node pool per
//!   core. A producer that becomes `done` posts one [`Completion`];
//!   [`Sched::wake`] hands its value to exactly those operands (in no
//!   particular order: the lists they are filed on are kept by age).
//! * **ready** — in age order, the unissued micro-ops whose issue function
//!   can do anything: ALU/branch with operands ready, stores with address
//!   and operands, loads/load_locks/monitors with an address.
//! * **blocked** — in age order, the loads among those that a core-local
//!   [`Blocker`] stopped, each with that blocker; an [`Unblock`] event
//!   files them on `ready` again.
//! * **agen** — memory micro-ops whose base operand became ready and whose
//!   address is generated at the next address stage.
//! * **inflight** — in age order, issued micro-ops whose latency has not
//!   expired, with their completion cycle; `next_expiry` is the earliest.
//! * **fences** — the fence list in age order, behind fence blocking. The
//!   load and store queues are the `lsq` module's.
//!
//! # Ordering rules
//!
//! The lists replace per-cycle ROB scans whose visiting order was program
//! order, and whose position in the tick decided what each saw. Five rules
//! keep every simulated statistic byte-identical to those scans:
//!
//! * **(a)** Issue walks `ready` oldest first and spends budget only on
//!   success, and a failed attempt changes nothing, so a load may leave
//!   `ready` for exactly the cycles in which an attempt must fail: while
//!   the state its [`Blocker`] read is untouched. Every event that touches
//!   it ([`Unblock`]) precedes the issue walk in the tick and re-files the
//!   load at its age position before that walk. What can change with no
//!   such event stays on `ready` and is attempted every cycle: a cache
//!   `Retry` (which the memory system counts in its `lsq-retry` guard), a
//!   StoreSet hold, the weak model's SC-store block, a refused `load_lock`
//!   forwarding.
//! * **(b)** A producer marked `done` by a memory response or a latency
//!   expiry (tick stages 2–3) wakes its consumers in stage 7 of the same
//!   tick; one marked `done` inside the address stage (a wrong-path load
//!   whose address is wild, `LoadState::Wild`) posts its completion after
//!   that drain and wakes them the next tick. Dispatch reads `done` directly and never waits on a
//!   posted completion.
//! * **(c)** Completions within a cycle resolve in ROB order: branch
//!   resolution trains the predictor in that order, and a mispredict
//!   squash drops the younger ones unresolved.
//! * **(d)** The address stage applies every pending address first, then
//!   runs the memory-order-violation checks of the newly resolved stores in
//!   age order, so each check sees every address of the cycle.
//! * **(e)** Sequence numbers are never recycled and squashes under a stuck
//!   head let the live sequence range grow far past the ROB length, so
//!   nothing is indexed by sequence number: handles carry a ring position
//!   and are tag-checked by [`Rob::at`].
//!
//! In debug builds [`Sched::check_scheduler_indices`] recomputes every list
//! from a full ROB scan, using the scan-era definitions, at the end of every
//! tick (`ready` and `blocked` merged by age are the scan's issuable set;
//! the core re-derives each blocker beside it, and `Lsq::check_indices`
//! the load and store queues).
//!
//! [`Core::tick`]: crate::Core::tick

use crate::config::CoreConfig;
use crate::rob::{Entry, Rob, Seq, Slot, SrcVal};
use fa_isa::{FenceKind, UopKind, Word};
use std::collections::VecDeque;

/// End of a dependents chain, and of the free chain.
const NIL: u32 = u32::MAX;

/// One operand of `consumer` waiting on a producer: a node of that
/// producer's chain, or of the free chain.
#[derive(Clone, Copy, Debug)]
struct Dep {
    consumer: Slot,
    src: u8,
    next: u32,
}

/// A producer became `done`; its dependents take `value` at the next wake.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Completion {
    producer: Slot,
    value: Word,
}

/// An issued micro-op completing at `done_at`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct InFlight {
    slot: Slot,
    done_at: u64,
}

/// A fence micro-op in the ROB.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct FenceRef {
    seq: Seq,
    /// Younger loads wait for it to commit: standalone fences always,
    /// atomic-post fences under the fenced policies.
    orders_loads: bool,
}

/// True when a fence of `kind` orders younger loads: standalone fences
/// always, atomic-post fences under the fenced policies (`fenced`).
fn orders_loads(kind: FenceKind, fenced: bool) -> bool {
    match kind {
        FenceKind::Standalone => true,
        FenceKind::AtomicPost => fenced,
        FenceKind::AtomicPre => false,
    }
}

/// Why an unissued load that has its address cannot issue, as far as the
/// core's own state says (`Lsq::load_blocker` reads it off).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Blocker {
    /// The youngest older fence that orders loads has not committed.
    Fence(Seq),
    /// Weak model: an older SC store is in the ROB or the store buffer.
    ScStore,
    /// The fenced policies' `load_lock` issue gate is shut.
    LoadLockGate,
    /// The youngest older store to the same address has no data yet.
    StoreData(Seq),
    /// The load's StoreSet names an older store without an address.
    StoreSet(Seq),
}

impl Blocker {
    /// The event without which the block cannot end, for the blockers that
    /// have one; a load stopped by another is attempted every cycle.
    pub fn ended_by(self) -> Option<Unblock> {
        match self {
            Blocker::Fence(_) => Some(Unblock::FenceCommit),
            Blocker::LoadLockGate => Some(Unblock::CommitOrDrain),
            Blocker::StoreData(_) => Some(Unblock::StoreResolved),
            // A younger store's dispatch overwrites the StoreSet's entry;
            // the SC-store block (weak model only) is simply left polled.
            Blocker::ScStore | Blocker::StoreSet(_) => None,
        }
    }
}

impl std::fmt::Display for Blocker {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Blocker::Fence(seq) => write!(f, "fence #{seq}"),
            Blocker::ScStore => write!(f, "SC store"),
            Blocker::LoadLockGate => write!(f, "load_lock gate"),
            Blocker::StoreData(seq) => write!(f, "store data #{seq}"),
            Blocker::StoreSet(seq) => write!(f, "store set #{seq}"),
        }
    }
}

/// What happened in the core since the last issue walk that can end a
/// [`Blocker`]; a bit of `Sched::events` each.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Unblock {
    /// A fence that orders loads committed.
    FenceCommit = 1,
    /// A micro-op committed or a store left the store buffer.
    CommitOrDrain = 2,
    /// A store-class micro-op took an operand or its address.
    StoreResolved = 4,
}

/// Scan-era issue candidate: an unissued micro-op the issue scan could act
/// on.
#[cfg(debug_assertions)]
pub(crate) fn issuable(e: &Entry) -> bool {
    let ready = match e.uop.kind {
        UopKind::Alu { .. } | UopKind::RmwAlu { .. } | UopKind::Branch { .. } => e.srcs_ready(),
        UopKind::Store { .. } | UopKind::StoreUnlock { .. } => e.addr.is_some() && e.srcs_ready(),
        UopKind::Load { .. } | UopKind::LoadLock { .. } | UopKind::MonitorWait { .. } => {
            e.addr.is_some()
        }
        _ => false,
    };
    !e.issued && !e.done && ready
}

/// Scan-era address generation: what the address scan would pick up.
#[cfg(debug_assertions)]
pub(crate) fn awaits_agen(e: &Entry) -> bool {
    let base = e.uop.address_operands().map(|(base, _)| base);
    e.addr.is_none() && base.is_some_and(|b| e.value_of(b).is_some())
}

/// Index of the first element of an age-ordered list with `seq >= from`.
fn cut<T>(list: &[T], seq_of: impl Fn(&T) -> Seq, from: Seq) -> usize {
    list.partition_point(|x| seq_of(x) < from)
}

/// Inserts `item` into an age-ordered list. Dispatch and in-order issue
/// mostly add the youngest, which skips the search.
fn insert_by_age<T>(list: &mut Vec<T>, item: T, seq_of: impl Fn(&T) -> Seq) {
    let seq = seq_of(&item);
    let i = match list.last() {
        Some(last) if seq_of(last) > seq => cut(list, &seq_of, seq),
        _ => list.len(),
    };
    debug_assert!(list.get(i).map(&seq_of) != Some(seq), "µop #{seq} filed twice");
    list.insert(i, item);
}

/// The scheduler indices of one core (see the module documentation).
#[derive(Debug, Default)]
pub(crate) struct Sched {
    /// Issue walks this oldest first and removes what it issues.
    pub ready: Vec<Slot>,
    /// Loads off `ready` until an event of their blocker's kind.
    pub blocked: Vec<(Slot, Blocker)>,
    /// [`Unblock`] events since the last [`Sched::refile_unblocked`].
    events: u8,
    agen: Vec<Slot>,
    inflight: Vec<InFlight>,
    /// The earliest `done_at` on `inflight`, `u64::MAX` when it is empty. A
    /// squash may leave it early, never late.
    next_expiry: u64,
    completed: Vec<Completion>,
    /// First dependent per ROB position, modulo the (power-of-two) length.
    heads: Vec<u32>,
    /// The nodes of every chain. Sized for the ROB; a squash storm under a
    /// stuck producer (whose chain keeps the squashed consumers until it
    /// wakes) grows it.
    deps: Vec<Dep>,
    /// First unused node.
    free: u32,
    fences: VecDeque<FenceRef>,
}

impl Sched {
    /// Empties every index, keeping its storage, and makes room for the
    /// queue sizes of `cfg`, so that the lists never grow (a squash storm
    /// aside, see `deps`). `Default` is the indices with no room at all.
    pub fn reset(&mut self, cfg: &CoreConfig) {
        let Sched {
            ready, blocked, events, agen, inflight, next_expiry, completed, heads, deps, free,
            fences,
        } = self;
        let rob = cfg.rob_size;
        (*events, *next_expiry, *free) = (0, u64::MAX, NIL);
        ready.clear();
        ready.reserve(rob);
        blocked.clear();
        blocked.reserve(cfg.lq_size);
        agen.clear();
        agen.reserve(rob);
        inflight.clear();
        inflight.reserve(rob);
        completed.clear();
        completed.reserve(rob);
        heads.clear();
        heads.resize(rob.next_power_of_two(), NIL);
        deps.clear();
        deps.reserve(rob);
        fences.clear();
    }

    fn deps_index(&self, producer: Slot) -> usize {
        producer.pos() as usize & (self.heads.len() - 1)
    }

    /// Detaches the chain at `heads[i]` and returns its first node.
    fn take_chain(&mut self, i: usize) -> u32 {
        std::mem::replace(&mut self.heads[i], NIL)
    }

    /// Returns node `n` to the free chain and steps to its successor.
    fn release(&mut self, n: u32) -> u32 {
        let next = std::mem::replace(&mut self.deps[n as usize].next, self.free);
        self.free = n;
        next
    }

    // ------------------------------------------------------------ dispatch

    /// A micro-op was pushed at `slot`: it starts with no dependents.
    pub fn open(&mut self, slot: Slot) {
        // What a squashed producer left here never woke.
        let mut n = self.take_chain(self.deps_index(slot));
        while n != NIL {
            n = self.release(n);
        }
    }

    /// Operand `src` of `consumer` waits for `producer` to complete.
    pub fn watch(&mut self, producer: Slot, consumer: Slot, src: usize) {
        let i = self.deps_index(producer);
        let dep = Dep { consumer, src: src as u8, next: self.heads[i] };
        self.heads[i] = match self.free {
            NIL => {
                self.deps.push(dep);
                (self.deps.len() - 1) as u32
            }
            n => {
                self.free = std::mem::replace(&mut self.deps[n as usize], dep).next;
                n
            }
        };
    }

    /// The fence `seq` of `kind` entered the ROB.
    pub fn push_fence(&mut self, seq: Seq, kind: FenceKind, fenced: bool) {
        self.fences.push_back(FenceRef { seq, orders_loads: orders_loads(kind, fenced) });
    }

    /// The oldest fence committed.
    pub fn pop_fence(&mut self, seq: Seq) {
        let f = self.fences.pop_front().expect("a committing fence is on the fence list");
        debug_assert_eq!(f.seq, seq);
        if f.orders_loads {
            self.unblock(Unblock::FenceCommit);
        }
    }

    /// Files `e` (at `slot`) on the list its operand state puts it on.
    /// Called when it dispatches and whenever one of its operands wakes.
    pub fn operands_changed(&mut self, slot: Slot, e: &Entry) {
        match e.uop.kind {
            UopKind::Alu { .. } | UopKind::RmwAlu { .. } | UopKind::Branch { .. }
                if e.srcs_ready() =>
            {
                self.insert_ready(slot);
            }
            _ => {
                let Some((base, _)) = e.uop.address_operands() else { return };
                if e.addr.is_none() {
                    if e.value_of(base).is_some() {
                        self.agen.push(slot);
                    }
                } else if e.uop.is_store_class() && e.srcs_ready() {
                    self.insert_ready(slot);
                }
            }
        }
    }

    // ---------------------------------------------------------------- wake

    /// `producer` became `done` with `value`.
    pub fn complete(&mut self, producer: Slot, value: Word) {
        self.completed.push(Completion { producer, value });
    }

    /// Hands every posted completion's value to the operands registered
    /// with its producer and files the consumers that became ready. The
    /// producer itself may have committed since it posted; its consumers
    /// are tag-checked, so ones squashed meanwhile are skipped.
    pub fn wake(&mut self, rob: &mut Rob) {
        for k in 0..self.completed.len() {
            let Completion { producer, value } = self.completed[k];
            let mut n = self.take_chain(self.deps_index(producer));
            while n != NIL {
                let d = self.deps[n as usize];
                n = self.release(n);
                let Some(c) = rob.at_mut(d.consumer) else { continue };
                debug_assert_eq!(c.srcs[d.src as usize], SrcVal::Wait { seq: producer.seq });
                c.srcs[d.src as usize] = SrcVal::Ready(value);
                if c.uop.is_store_class() {
                    self.unblock(Unblock::StoreResolved);
                }
                self.operands_changed(d.consumer, c);
            }
        }
        self.completed.clear();
    }

    // ------------------------------------------------------------- address

    /// Moves the micro-ops awaiting address generation into `out`, oldest
    /// first. (A store whose base and data name one register is filed once
    /// per operand; the duplicate is dropped here.)
    pub fn take_agen(&mut self, out: &mut Vec<Slot>) {
        out.clear();
        out.append(&mut self.agen);
        out.sort_unstable_by_key(|s| s.seq);
        out.dedup();
    }

    // --------------------------------------------------------------- issue

    /// Adds `slot` to the ready list at its age position.
    pub fn insert_ready(&mut self, slot: Slot) {
        insert_by_age(&mut self.ready, slot, |s| s.seq);
    }

    /// The load at `slot` failed to issue on `why` and leaves `ready`
    /// (the caller drops it there) until an event of `why`'s kind.
    pub fn block(&mut self, slot: Slot, why: Blocker) {
        debug_assert!(why.ended_by().is_some(), "{why} has no event to wait for");
        insert_by_age(&mut self.blocked, (slot, why), |b| b.0.seq);
    }

    /// `event` happened: the loads it can free are attempted again at the
    /// next issue walk. (With nothing blocked there is nothing to free: a
    /// load blocked later has seen the state the event left.)
    pub fn unblock(&mut self, event: Unblock) {
        if !self.blocked.is_empty() {
            self.events |= event as u8;
        }
    }

    /// Files the blocked loads an event since the last call can have freed
    /// on `ready` again, at their age positions. Runs before every issue
    /// walk, after the last stage that raises an event.
    pub fn refile_unblocked(&mut self) {
        let events = std::mem::take(&mut self.events);
        if events == 0 {
            return;
        }
        let mut kept = 0;
        for i in 0..self.blocked.len() {
            let (slot, why) = self.blocked[i];
            let came = why.ended_by().is_some_and(|e| e as u8 & events != 0);
            let freed = match why {
                // Fences commit in order: the load's own is gone once the
                // oldest left is younger.
                Blocker::Fence(seq) => self.fences.front().is_none_or(|f| f.seq > seq),
                _ => true,
            };
            if came && freed {
                self.insert_ready(slot);
            } else {
                self.blocked[kept] = (slot, why);
                kept += 1;
            }
        }
        self.blocked.truncate(kept);
    }

    /// True when no list holds anything a tick could act on before the
    /// next expiry: nothing to issue, to generate an address for or to
    /// wake. (Blocked loads wait for an event, which only a tick raises.)
    pub fn idle(&self) -> bool {
        self.ready.is_empty() && self.agen.is_empty() && self.completed.is_empty()
    }

    /// `slot` issued and completes at `done_at`.
    pub fn insert_inflight(&mut self, slot: Slot, done_at: u64) {
        self.next_expiry = self.next_expiry.min(done_at);
        insert_by_age(&mut self.inflight, InFlight { slot, done_at }, |x| x.slot.seq);
    }

    /// The earliest cycle at which [`Sched::take_expired`] may find
    /// anything; `u64::MAX` when nothing is in flight.
    pub fn next_expiry(&self) -> u64 {
        self.next_expiry
    }

    /// Moves the executions whose latency expired by `now` into `out`, in
    /// ROB order.
    pub fn take_expired(&mut self, now: u64, out: &mut Vec<Slot>) {
        out.clear();
        if now < self.next_expiry {
            return;
        }
        let mut next = u64::MAX;
        self.inflight.retain(|x| {
            let expired = x.done_at <= now;
            if expired {
                out.push(x.slot);
            } else {
                next = next.min(x.done_at);
            }
            !expired
        });
        self.next_expiry = next;
    }

    // ------------------------------------------------------------- fences

    /// Number of fences older than `seq`.
    pub fn fences_older_than(&self, seq: Seq) -> usize {
        self.fences.iter().take_while(|f| f.seq < seq).count()
    }

    /// The youngest older fence a load with sequence `seq` must wait
    /// behind, if any.
    pub fn blocked_by_fence(&self, seq: Seq) -> Option<Seq> {
        let older = self.fences.partition_point(|f| f.seq < seq);
        self.fences.range(..older).rev().find(|f| f.orders_loads).map(|f| f.seq)
    }

    // -------------------------------------------------------------- squash

    /// Drops every reference to a micro-op with `seq >= from`.
    pub fn squash(&mut self, from: Seq) {
        self.ready.truncate(cut(&self.ready, |s| s.seq, from));
        self.blocked.truncate(cut(&self.blocked, |b| b.0.seq, from));
        self.inflight.truncate(cut(&self.inflight, |x| x.slot.seq, from));
        self.agen.retain(|s| s.seq < from);
        // A dropped producer's position goes to the next dispatch: its
        // completion must not reach the newcomer's dependents.
        self.completed.retain(|c| c.producer.seq < from);
        while self.fences.back().is_some_and(|f| f.seq >= from) {
            self.fences.pop_back();
        }
    }

    /// Entries across all lists (dependents aside); zero once the ROB has
    /// drained.
    pub fn len(&self) -> usize {
        self.ready.len()
            + self.blocked.len()
            + self.agen.len()
            + self.inflight.len()
            + self.completed.len()
            + self.fences.len()
    }

    // -------------------------------------------------------------- oracle

    /// Re-derives every list from a full ROB scan with the definitions the
    /// scan-based scheduler used, and asserts the indices match: the scan
    /// must meet the entries of each age-ordered list in order and use
    /// them up. `fenced` is the atomic policy's `fenced()`.
    #[cfg(debug_assertions)]
    pub fn check_scheduler_indices(&self, rob: &Rob, fenced: bool) {
        let (mut inflight, mut fences) = (self.inflight.iter(), self.fences.iter());
        // The issue candidates are `ready` and `blocked` merged by age.
        let mut ready = self.ready.iter().peekable();
        let mut blocked = self.blocked.iter().map(|(slot, _)| slot).peekable();
        let mut next_candidate = || match (ready.peek(), blocked.peek()) {
            (Some(r), Some(b)) if b.seq < r.seq => blocked.next(),
            (None, _) => blocked.next(),
            _ => ready.next(),
        };
        for (slot, e) in rob.iter() {
            if issuable(e) {
                assert_eq!(next_candidate(), Some(&slot), "ready and blocked lists");
            }
            if awaits_agen(e) {
                assert!(self.agen.contains(&slot), "address-generation list lacks #{}", e.seq);
            }
            // Executions the finalize scan would poll.
            if let (Some(done_at), false) = (e.done_at, e.done) {
                let polled = InFlight { slot, done_at };
                assert_eq!(inflight.next(), Some(&polled), "in-flight executions");
            }
            if let UopKind::Fence(kind) = e.uop.kind {
                let fence = FenceRef { seq: e.seq, orders_loads: orders_loads(kind, fenced) };
                assert_eq!(fences.next(), Some(&fence), "fences");
            }
            // Every waiting operand is registered with a live producer that
            // has yet to wake it.
            for (i, src) in e.srcs[..e.nsrcs as usize].iter().enumerate() {
                let SrcVal::Wait { seq } = *src else { continue };
                let producer = rob.find(seq).expect("a waiting operand's producer is in the ROB");
                let p = rob.at(producer).expect("found");
                assert!(
                    !p.done || self.completed.iter().any(|c| c.producer == producer),
                    "µop #{} waits on #{seq}, which completed without a pending wake",
                    e.seq
                );
                let mut n = self.heads[self.deps_index(producer)];
                let mut chain = std::iter::from_fn(|| {
                    let d = self.deps.get(n as usize)?;
                    n = d.next;
                    Some(d)
                });
                assert!(
                    chain.any(|d| d.consumer == slot && d.src == i as u8),
                    "µop #{} operand {i} is not registered with its producer #{seq}",
                    e.seq
                );
            }
        }
        assert_eq!(next_candidate(), None, "ready and blocked lists");
        assert_eq!(inflight.next(), None, "in-flight executions");
        let soonest = self.inflight.iter().map(|x| x.done_at).min().unwrap_or(u64::MAX);
        assert!(self.next_expiry <= soonest, "next expiry is later than #{soonest}'s");
        assert_eq!(self.events, 0, "an unblock event outlived the issue walk");
        assert_eq!(fences.next(), None, "fences");
        for s in &self.agen {
            let live = rob.at(*s).is_some_and(awaits_agen);
            assert!(live, "address-generation list holds #{}, which awaits no address", s.seq);
        }
        for c in &self.completed {
            assert!(
                rob.at(c.producer).is_some_and(|p| p.done),
                "completion posted by #{} outlived it",
                c.producer.seq
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fa_isa::{decode, Instr};

    /// Indices over a ROB of five nops, #10..#14, with #11, #12 and #13
    /// filed as ready.
    fn three_ready() -> (Sched, Vec<Slot>) {
        let mut rob = Rob::new();
        let slots: Vec<Slot> =
            (10..15).map(|seq| rob.push(Entry::new(seq, decode(Instr::Nop, 0)[0]))).collect();
        let mut s = Sched::default();
        s.reset(&CoreConfig::default());
        for &slot in &slots[1..4] {
            s.insert_ready(slot);
        }
        (s, slots)
    }

    /// What the issue walk does with a load it could not issue on `why`.
    fn block(s: &mut Sched, slot: Slot, why: Blocker) {
        s.ready.retain(|r| *r != slot);
        s.block(slot, why);
    }

    #[test]
    fn a_blocked_load_waits_off_ready_for_an_event_of_its_kind() {
        let (mut s, slots) = three_ready();
        block(&mut s, slots[2], Blocker::StoreData(10));
        assert_eq!(s.ready, [slots[1], slots[3]]);
        assert_eq!(s.blocked, [(slots[2], Blocker::StoreData(10))]);
        assert_eq!(s.len(), 3, "len() counts the blocked list");
        // Another blocker's event leaves it where it is.
        s.unblock(Unblock::CommitOrDrain);
        s.unblock(Unblock::FenceCommit);
        s.refile_unblocked();
        assert_eq!(s.ready, [slots[1], slots[3]]);
        assert_eq!(s.blocked.len(), 1);
        // Its own files it between the older and the younger ready µop,
        // and is used up.
        s.unblock(Unblock::StoreResolved);
        s.refile_unblocked();
        assert_eq!(s.ready, slots[1..4]);
        assert!(s.blocked.is_empty());
        block(&mut s, slots[2], Blocker::StoreData(10));
        s.refile_unblocked();
        assert_eq!(s.blocked.len(), 1, "an event frees only what was blocked when it came");
    }

    #[test]
    fn a_load_behind_a_fence_waits_for_that_fence() {
        let (mut s, slots) = three_ready();
        s.push_fence(5, FenceKind::Standalone, false);
        s.push_fence(7, FenceKind::AtomicPost, false);
        s.push_fence(9, FenceKind::AtomicPost, true);
        assert_eq!(s.blocked_by_fence(8), Some(5));
        assert_eq!(s.blocked_by_fence(12), Some(9));
        block(&mut s, slots[1], Blocker::Fence(9));
        // The older fences commit: the load's own is still there.
        s.pop_fence(5);
        s.pop_fence(7);
        s.refile_unblocked();
        assert_eq!(s.blocked, [(slots[1], Blocker::Fence(9))]);
        s.pop_fence(9);
        s.refile_unblocked();
        assert_eq!(s.ready, slots[1..4]);
        assert_eq!(s.blocked_by_fence(12), None);
    }

    #[test]
    fn squash_drops_blocked_loads_with_the_other_lists() {
        let (mut s, slots) = three_ready();
        block(&mut s, slots[1], Blocker::LoadLockGate);
        block(&mut s, slots[3], Blocker::LoadLockGate);
        s.squash(12);
        assert_eq!(s.blocked, [(slots[1], Blocker::LoadLockGate)]);
        assert!(s.ready.is_empty());
        s.squash(0);
        assert_eq!(s.len(), 0);
    }

    #[test]
    fn nothing_is_taken_before_the_next_expiry() {
        let (mut s, slots) = three_ready();
        let mut out = vec![slots[0]];
        assert_eq!(s.next_expiry(), u64::MAX);
        s.insert_inflight(slots[1], 30);
        s.insert_inflight(slots[0], 20);
        assert_eq!(s.next_expiry(), 20);
        s.take_expired(19, &mut out);
        assert!(out.is_empty());
        s.take_expired(20, &mut out);
        assert_eq!(out, [slots[0]]);
        assert_eq!(s.next_expiry(), 30);
        s.take_expired(40, &mut out);
        assert_eq!((out.as_slice(), s.next_expiry()), (&slots[1..2], u64::MAX));
    }
}
