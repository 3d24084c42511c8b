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
//! * **ready** — in age order, exactly the unissued micro-ops whose issue
//!   function can do anything: ALU/branch with operands ready, stores with
//!   address and operands, loads/load_locks/monitors with an address.
//! * **agen** — memory micro-ops whose base operand became ready and whose
//!   address is generated at the next address stage.
//! * **inflight** — in age order, issued micro-ops whose latency has not
//!   expired, with their completion cycle.
//! * **lq / sq / fences** — the load queue, store queue and fence list in
//!   age order: the LSQ views behind fence blocking, store-to-load
//!   forwarding, memory-order-violation checks and invalidation squashes.
//!
//! # Ordering rules
//!
//! The lists replace per-cycle ROB scans whose visiting order was program
//! order, and whose position in the tick decided what each saw. Five rules
//! keep every simulated statistic byte-identical to those scans:
//!
//! * **(a)** Issue walks `ready` oldest first and spends budget only on
//!   success. A blocked load (fence, StoreSet wait, unresolved forwarding
//!   data, cache `Retry`) stays on the list and is re-attempted every
//!   cycle: the memory system counts each `Retry` in its `lsq-retry`
//!   progress guard, so skipping an attempt would move a statistic.
//! * **(b)** A producer marked `done` by a memory response or a latency
//!   expiry (tick stages 2–3) wakes its consumers in stage 7 of the same
//!   tick; one marked `done` inside the address stage (a poisoned
//!   wrong-path load) posts its completion after that drain and wakes them
//!   the next tick. Dispatch reads `done` directly and never waits on a
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
//! tick.
//!
//! [`Core::tick`]: crate::Core::tick

use crate::config::CoreConfig;
use crate::rob::{Entry, Rob, Seq, Slot, SrcVal};
use fa_isa::{UopKind, Word};
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
#[derive(Debug)]
pub(crate) struct Sched {
    /// Issue walks this oldest first and removes what it issues.
    pub ready: Vec<Slot>,
    agen: Vec<Slot>,
    inflight: Vec<InFlight>,
    completed: Vec<Completion>,
    /// First dependent per ROB position, modulo the (power-of-two) length.
    heads: Vec<u32>,
    /// The nodes of every chain. Sized for the ROB; a squash storm under a
    /// stuck producer (whose chain keeps the squashed consumers until it
    /// wakes) grows it.
    deps: Vec<Dep>,
    /// First unused node.
    free: u32,
    pub lq: VecDeque<Slot>,
    pub sq: VecDeque<Slot>,
    fences: VecDeque<FenceRef>,
}

impl Sched {
    /// Empty indices with room for the queue sizes of `cfg`, so that the
    /// lists never grow (a squash storm aside, see `deps`).
    pub fn new(cfg: &CoreConfig) -> Sched {
        let rob = cfg.rob_size;
        Sched {
            ready: Vec::with_capacity(rob),
            agen: Vec::with_capacity(rob),
            inflight: Vec::with_capacity(rob),
            completed: Vec::with_capacity(rob),
            heads: vec![NIL; rob.next_power_of_two()],
            deps: Vec::with_capacity(rob),
            free: NIL,
            lq: VecDeque::with_capacity(cfg.lq_size),
            sq: VecDeque::with_capacity(cfg.sq_size),
            fences: VecDeque::new(),
        }
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

    /// The fence `seq` entered the ROB.
    pub fn push_fence(&mut self, seq: Seq, orders_loads: bool) {
        self.fences.push_back(FenceRef { seq, orders_loads });
    }

    /// The oldest fence committed.
    pub fn pop_fence(&mut self, seq: Seq) {
        let f = self.fences.pop_front();
        debug_assert_eq!(f.map(|f| f.seq), Some(seq));
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

    /// `slot` issued and completes at `done_at`.
    pub fn insert_inflight(&mut self, slot: Slot, done_at: u64) {
        insert_by_age(&mut self.inflight, InFlight { slot, done_at }, |x| x.slot.seq);
    }

    /// Moves the executions whose latency expired by `now` into `out`, in
    /// ROB order.
    pub fn take_expired(&mut self, now: u64, out: &mut Vec<Slot>) {
        out.clear();
        self.inflight.retain(|x| {
            let expired = x.done_at <= now;
            if expired {
                out.push(x.slot);
            }
            !expired
        });
    }

    // ----------------------------------------------------------- LSQ views

    /// Number of fences older than `seq`.
    pub fn fences_older_than(&self, seq: Seq) -> usize {
        self.fences.iter().take_while(|f| f.seq < seq).count()
    }

    /// True when a load with sequence `seq` must wait behind an older
    /// fence.
    pub fn blocked_by_fence(&self, seq: Seq) -> bool {
        self.fences.iter().take_while(|f| f.seq < seq).any(|f| f.orders_loads)
    }

    /// The store-queue entries older than `seq`, oldest first.
    pub fn stores_older_than(&self, seq: Seq) -> impl DoubleEndedIterator<Item = Slot> + '_ {
        let n = self.sq.partition_point(|s| s.seq < seq);
        self.sq.range(..n).copied()
    }

    /// The load-queue entries older than `seq`, oldest first.
    pub fn loads_older_than(&self, seq: Seq) -> impl Iterator<Item = Slot> + '_ {
        self.lq.iter().copied().take_while(move |l| l.seq < seq)
    }

    /// The load-queue entries younger than `seq`, oldest first.
    pub fn loads_younger_than(&self, seq: Seq) -> impl Iterator<Item = Slot> + '_ {
        let n = self.lq.partition_point(|l| l.seq <= seq);
        self.lq.range(n..).copied()
    }

    // -------------------------------------------------------------- squash

    /// Drops every reference to a micro-op with `seq >= from`.
    pub fn squash(&mut self, from: Seq) {
        self.ready.truncate(cut(&self.ready, |s| s.seq, from));
        self.inflight.truncate(cut(&self.inflight, |x| x.slot.seq, from));
        self.agen.retain(|s| s.seq < from);
        // A dropped producer's position goes to the next dispatch: its
        // completion must not reach the newcomer's dependents.
        self.completed.retain(|c| c.producer.seq < from);
        for q in [&mut self.lq, &mut self.sq] {
            while q.back().is_some_and(|s| s.seq >= from) {
                q.pop_back();
            }
        }
        while self.fences.back().is_some_and(|f| f.seq >= from) {
            self.fences.pop_back();
        }
    }

    /// Entries across all lists (dependents aside); zero once the ROB has
    /// drained.
    pub fn len(&self) -> usize {
        self.ready.len()
            + self.agen.len()
            + self.inflight.len()
            + self.completed.len()
            + self.lq.len()
            + self.sq.len()
            + self.fences.len()
    }

    // -------------------------------------------------------------- oracle

    /// Re-derives every list from a full ROB scan with the definitions the
    /// scan-based scheduler used, and asserts the indices match: the scan
    /// must meet the entries of each age-ordered list in order and use
    /// them up. `fenced` is the atomic policy's `fenced()`.
    #[cfg(debug_assertions)]
    pub fn check_scheduler_indices(&self, rob: &Rob, fenced: bool) {
        use fa_isa::FenceKind;
        let (mut ready, mut inflight) = (self.ready.iter(), self.inflight.iter());
        let (mut lq, mut sq, mut fences) = (self.lq.iter(), self.sq.iter(), self.fences.iter());
        // Address generation: what the address scan would pick up.
        let awaits_agen = |e: &Entry| {
            let base = e.uop.address_operands().map(|(base, _)| base);
            e.addr.is_none() && base.is_some_and(|b| e.value_of(b).is_some())
        };
        for (slot, e) in rob.iter() {
            // Issue candidates: what the issue scan could act on.
            let issuable = match e.uop.kind {
                UopKind::Alu { .. } | UopKind::RmwAlu { .. } | UopKind::Branch { .. } => {
                    e.srcs_ready()
                }
                UopKind::Store { .. } | UopKind::StoreUnlock { .. } => {
                    e.addr.is_some() && e.srcs_ready()
                }
                UopKind::Load { .. } | UopKind::LoadLock { .. } | UopKind::MonitorWait { .. } => {
                    e.addr.is_some()
                }
                _ => false,
            };
            if !e.issued && !e.done && issuable {
                assert_eq!(ready.next(), Some(&slot), "ready list");
            }
            if awaits_agen(e) {
                assert!(self.agen.contains(&slot), "address-generation list lacks #{}", e.seq);
            }
            // Executions the finalize scan would poll.
            if let (Some(done_at), false) = (e.done_at, e.done) {
                let polled = InFlight { slot, done_at };
                assert_eq!(inflight.next(), Some(&polled), "in-flight executions");
            }
            // Class membership.
            if e.uop.is_load_class() || matches!(e.uop.kind, UopKind::MonitorWait { .. }) {
                assert_eq!(lq.next(), Some(&slot), "load queue");
            }
            if e.uop.is_store_class() {
                assert_eq!(sq.next(), Some(&slot), "store queue");
            }
            if let UopKind::Fence(kind) = e.uop.kind {
                let orders_loads = match kind {
                    FenceKind::Standalone => true,
                    FenceKind::AtomicPost => fenced,
                    FenceKind::AtomicPre => false,
                };
                assert_eq!(fences.next(), Some(&FenceRef { seq: e.seq, orders_loads }), "fences");
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
        assert_eq!(ready.next(), None, "ready list");
        assert_eq!(inflight.next(), None, "in-flight executions");
        assert_eq!(lq.next(), None, "load queue");
        assert_eq!(sq.next(), None, "store queue");
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
