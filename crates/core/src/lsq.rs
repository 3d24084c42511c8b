//! The load/store queue: the load queue, the store queue, the store buffer
//! and the fence list, and every memory-ordering rule that reads them — the
//! load-issue decision ([`Lsq::load_blocker`]), the store-buffer hold on
//! retirement ([`Lsq::held_by_sb`]), the fetch-time room check and the two
//! repairs ([`Lsq::mem_order_victim`], [`Lsq::inval_victim`]), which read
//! one per-state table ([`LoadState::stale_for`]). Dispatch pushes, commit
//! moves a store into the store buffer and pops a fence, the drain pops the
//! store buffer's head and a squash truncates.
//!
//! The store side is one age-ordered queue: its older, committed part is
//! the store buffer ([`SbEntry`]), its younger part ROB handles. So
//! `sq_size` bounds one count, forwarding is one youngest-first search and
//! the SC-store block one scan; a squash never reaches the store buffer.

use crate::config::{AtomicPolicy, CoreConfig};
use crate::predictor::StoreSets;
use crate::rob::{Entry, Rob, Seq, Slot};
use crate::sched::Blocker;
use fa_isa::{line_of, Addr, FenceKind, Uop, UopKind, Word};
use fa_mem::privcache::ReqOutcome;
use fa_mem::{CoreId, Line, MemorySystem};
use fa_trace::MemModel;
use std::collections::VecDeque;

/// How far a load-queue entry (load, `load_lock`, monitor) has bound its
/// value; other micro-ops stay `Unissued`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LoadState {
    /// Not sent anywhere yet.
    Unissued,
    /// Wrong-path access to an invalid address: never sent, never commits.
    Wild,
    /// The cache request is out; the value is sampled at delivery.
    InFlight,
    /// Bound from the cache (`writable`: Figure-13 locality).
    Cache { writable: bool },
    /// Forwarded from the older store `store` (`unlock`: Table 2's FbA).
    Forwarded { store: Seq, unlock: bool },
}

/// A repair that squashes a load an older store or another core made stale
/// before it commits.
#[derive(Clone, Copy, Debug)]
enum Repair {
    /// The memory-order check: the older store `0` took the load's address.
    MemOrder(Seq),
    /// §3.2.3's invalidation (load→load) squash: the core lost the line.
    Inval,
}

impl LoadState {
    /// DESIGN.md's load-ordering table: true when `repair` squashes a load in
    /// this state at the repaired address or line; each exemption is an arm.
    fn stale_for(self, repair: Repair) -> bool {
        match self {
            // No value yet: it searches the store queue when it issues.
            LoadState::Unissued => false,
            // It never commits.
            LoadState::Wild => false,
            // In flight too (DESIGN.md note 4): nothing snoops it later, yet
            // the value delivery samples may predate the resolving store's
            // perform (CoWR) or the write that took the line.
            LoadState::InFlight | LoadState::Cache { .. } => true,
            LoadState::Forwarded { store: from, .. } => match repair {
                // A store younger than the resolving one gave it its value.
                Repair::MemOrder(store) => from < store,
                // ROADMAP item 1's known hole: once the store drained and
                // another core overwrote it, this load holds a stale value.
                // Kept because either fix moves pinned benchmark rows, the
                // blunt one (`true` here) and the narrow one (exempt only
                // while the feeding store is still in the SQ or SB) alike.
                Repair::Inval => false,
            },
        }
    }
}

/// The weak model's filter on the invalidation repair: a load keeps its
/// value (R→R may reorder) unless it is a `load_lock`, which anchors its
/// RMW's window, or an older one of `loads` (the load queue) without a value
/// is a `load_lock`, acquire-class, on its line (CoRR) or without an address.
fn weak_needs_repair<'a>(victim: &Entry, loads: impl Iterator<Item = &'a Entry>) -> bool {
    matches!(victim.uop.kind, UopKind::LoadLock { .. })
        || loads.take_while(|e| e.seq < victim.seq).any(|e| {
            e.uop.is_load_class()
                && matches!(e.load, LoadState::Unissued | LoadState::InFlight)
                && (matches!(e.uop.kind, UopKind::LoadLock { .. })
                    || e.uop.ord.is_acquire()
                    || e.addr.is_none()
                    || e.addr.map(line_of) == victim.addr.map(line_of))
        })
}

/// A fence micro-op in the ROB.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct FenceRef {
    seq: Seq,
    /// Younger loads wait for it to commit ([`orders_loads`]).
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

/// True for the micro-ops that occupy a load-queue entry.
pub(crate) fn occupies_lq(u: &Uop) -> bool {
    u.is_load_class() || matches!(u.kind, UopKind::MonitorWait { .. })
}

/// True for an address no access may reach — misaligned, or past the
/// `mem_bytes` of guest memory: only a wrong-path access computes one.
pub(crate) fn wild_addr(addr: Addr, mem_bytes: u64) -> bool {
    !addr.is_multiple_of(8) || addr >= mem_bytes
}

/// True for a plain store with a `SeqCst` annotation: under the weak model
/// younger loads may not issue while it is in the store queue or buffer
/// (store_unlocks are governed by the atomic policy's fences instead).
fn sc_store(u: &Uop) -> bool {
    matches!(u.kind, UopKind::Store { .. }) && u.ord.is_sc()
}

/// The older store an issuing load forwards `value` from (`unlock`: a
/// store_unlock); a load with none to its address reads the cache.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Forward {
    pub store: Seq,
    pub value: Word,
    pub unlock: bool,
}

/// A committed store waiting to perform, in program order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct SbEntry {
    pub seq: Seq,
    pub addr: Addr,
    pub value: Word,
    /// This is a store_unlock draining (releases its atomic's lock unless
    /// forwarding transferred it).
    pub is_unlock: bool,
    /// A GetX for this entry is outstanding.
    acquire_pending: bool,
    /// An [`sc_store`].
    sc: bool,
}

impl SbEntry {
    /// Requests write permission for the entry's line; the request is out
    /// unless the cache asks for a retry.
    fn request_write(&mut self, id: CoreId, mem: &mut MemorySystem) {
        if let ReqOutcome::Accepted = mem.store_acquire(id, self.seq, self.addr) {
            self.acquire_pending = true;
        }
    }
}

/// One store-queue entry: a committed store in the store buffer, or an
/// uncommitted one in the ROB.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Store {
    Sb(SbEntry),
    Rob(Slot),
}

impl Store {
    fn seq(&self) -> Seq {
        match self {
            Store::Sb(s) => s.seq,
            Store::Rob(slot) => slot.seq,
        }
    }
}

/// The ROB entry a load- or store-queue handle names.
fn live(rob: &Rob, slot: Slot) -> &Entry {
    rob.at(slot).expect("the load and store queues hold live micro-ops")
}

/// The load/store queue of one core (see the module documentation).
#[derive(Debug, Default)]
pub(crate) struct Lsq {
    /// Load-queue entries (loads, `load_lock`s, monitors) in age order.
    lq: VecDeque<Slot>,
    /// The store queue in age order: the store buffer, then the ROB's
    /// stores.
    sq: VecDeque<Store>,
    /// The ROB's fences in age order, behind the fence block.
    fences: VecDeque<FenceRef>,
}

impl Lsq {
    /// Empties the queues, keeping their storage, with room for the queue
    /// sizes of `cfg`.
    pub fn reset(&mut self, cfg: &CoreConfig) {
        let Lsq { lq, sq, fences } = self;
        lq.clear();
        lq.reserve(cfg.lq_size);
        sq.clear();
        sq.reserve(cfg.sq_size);
        fences.clear();
    }

    /// True when the queues have room for `loads` more load-queue entries
    /// and `stores` more stores.
    pub fn has_room(&self, loads: usize, stores: usize, cfg: &CoreConfig) -> bool {
        self.lq.len() + loads <= cfg.lq_size && self.sq.len() + stores <= cfg.sq_size
    }

    /// The micro-op `uop` dispatched at `slot`; `fenced` is the atomic
    /// policy's `fenced()`.
    pub fn dispatch(&mut self, slot: Slot, uop: &Uop, fenced: bool) {
        if occupies_lq(uop) {
            self.lq.push_back(slot);
        }
        if uop.is_store_class() {
            self.sq.push_back(Store::Rob(slot));
        }
        if let UopKind::Fence(kind) = uop.kind {
            let orders_loads = orders_loads(kind, fenced);
            self.fences.push_back(FenceRef { seq: slot.seq, orders_loads });
        }
    }

    /// The oldest fence in the ROB.
    pub fn oldest_fence(&self) -> Option<Seq> {
        self.fences.front().map(|f| f.seq)
    }

    /// Number of fences older than `seq`.
    fn fences_older_than(&self, seq: Seq) -> usize {
        self.fences.partition_point(|f| f.seq < seq)
    }

    /// The youngest fence older than `seq` that orders loads, if any.
    fn blocked_by_fence(&self, seq: Seq) -> Option<Seq> {
        let older = self.fences_older_than(seq);
        self.fences.range(..older).rev().find(|f| f.orders_loads).map(|f| f.seq)
    }

    /// The store-queue entries older than `seq`, oldest first.
    fn stores_older_than(&self, seq: Seq) -> impl DoubleEndedIterator<Item = &Store> + '_ {
        self.sq.range(..self.sq.partition_point(|s| s.seq() < seq))
    }

    /// The core-local half of issuing the load at `slot`, which has its
    /// address: what stops it short of the cache, or else the store it
    /// forwards from (`None`: the cache). Read-only, so an attempt that
    /// ends here changed nothing. The blockers that wait for an event come
    /// before the StoreSet hold, so that no later training hides them while
    /// a load sits on the blocked list.
    pub fn load_blocker(
        &self,
        slot: Slot,
        rob: &Rob,
        ss: &StoreSets,
        cfg: &CoreConfig,
        mem_bytes: u64,
    ) -> Result<Option<Forward>, Blocker> {
        let seq = slot.seq;
        let e = live(rob, slot);
        debug_assert_eq!(e.load, LoadState::Unissued);
        let addr = e.addr.expect("a ready load has its address");

        // Fence ordering: younger loads wait on standalone fences always,
        // and on atomic-post fences under the fenced policies.
        if let Some(fence) = self.blocked_by_fence(seq) {
            return Err(Blocker::Fence(fence));
        }
        // Weak model: an SC store orders younger loads after its perform
        // (the W→R restoration that makes SC stores Dekker-safe); loads
        // wait while an older SC store is in flight or buffered.
        if cfg.model == MemModel::Weak && self.blocked_by_sc_store(seq, rob, mem_bytes) {
            return Err(Blocker::ScStore);
        }
        // Policy-specific load_lock issue conditions.
        if matches!(e.uop.kind, UopKind::LoadLock { .. })
            && !self.load_lock_may_issue(slot, rob, cfg.policy)
        {
            return Err(Blocker::LoadLockGate);
        }
        // The youngest older store to the address, if any, supplies the
        // value: an unknown older store address is speculated past (the
        // StoreSet check below holds back risky loads), and a match without
        // its data yet is a conflict that cannot forward yet.
        let source = self.forward_source(seq, addr, rob).transpose().map_err(Blocker::StoreData)?;
        // Memory-dependence prediction: wait on trained store sets.
        if let Some(wait_seq) = ss.load_should_wait(e.uop.pc) {
            if wait_seq < seq && rob.get(wait_seq).is_some_and(|s| s.addr.is_none()) {
                return Err(Blocker::StoreSet(wait_seq));
            }
        }
        Ok(source)
    }

    /// The youngest store older than `seq` to `addr`, searched across the
    /// whole store queue: what it forwards, or `Err` with its sequence
    /// number while its data is unknown.
    fn forward_source(&self, seq: Seq, addr: Addr, rob: &Rob) -> Option<Result<Forward, Seq>> {
        self.stores_older_than(seq).rev().find_map(|s| match s {
            Store::Sb(b) if b.addr == addr => {
                Some(Ok(Forward { store: b.seq, value: b.value, unlock: b.is_unlock }))
            }
            Store::Sb(_) => None,
            Store::Rob(slot) => {
                let e = live(rob, *slot);
                if e.addr != Some(addr) {
                    return None;
                }
                let (UopKind::Store { src, .. } | UopKind::StoreUnlock { src, .. }) = e.uop.kind
                else {
                    unreachable!("the store queue holds store-class micro-ops")
                };
                let unlock = matches!(e.uop.kind, UopKind::StoreUnlock { .. });
                let fwd = e.value_of(src).map(|value| Forward { store: e.seq, value, unlock });
                Some(fwd.ok_or(e.seq))
            }
        })
    }

    /// True when a store older than `seq` is an [`sc_store`] (weak model
    /// only); a wrong-path one to a wild address never performs.
    fn blocked_by_sc_store(&self, seq: Seq, rob: &Rob, mem_bytes: u64) -> bool {
        self.stores_older_than(seq).any(|s| match s {
            Store::Sb(b) => b.sc,
            Store::Rob(slot) => {
                let e = live(rob, *slot);
                sc_store(&e.uop) && !e.addr.is_some_and(|a| wild_addr(a, mem_bytes))
            }
        })
    }

    /// Policy gate for issuing the load_lock at `slot`.
    pub fn load_lock_may_issue(&self, slot: Slot, rob: &Rob, policy: AtomicPolicy) -> bool {
        match policy {
            AtomicPolicy::FencedBaseline => {
                // Only at the ROB head-of-instruction (everything older
                // committed — the AtomicPre fence commits as a nop ahead of
                // us, so every older entry must be a fence) and with the SB
                // drained.
                self.sb_head().is_none() && rob.rank(slot) == self.fences_older_than(slot.seq)
            }
            AtomicPolicy::FencedSpec => {
                // All older memory operations must have committed and the SB
                // drained — only *control* speculation is allowed (§3.1).
                let mut older_loads = self.lq.iter().take_while(|l| l.seq < slot.seq);
                self.stores_older_than(slot.seq).next().is_none()
                    && !older_loads.any(|&l| live(rob, l).uop.is_mem())
            }
            AtomicPolicy::Free | AtomicPolicy::FreeFwd => true,
        }
    }

    /// The memory-order repair: store `store` resolved its address to
    /// `addr`. The victim is the oldest younger load bound to a value the
    /// store should supply.
    pub fn mem_order_victim<'a>(&self, store: Seq, addr: Addr, rob: &'a Rob) -> Option<&'a Entry> {
        let younger = self.lq.partition_point(|l| l.seq <= store);
        self.lq.range(younger..).map(|&l| live(rob, l)).find(|e| {
            e.uop.is_load_class()
                && e.addr == Some(addr)
                && e.load.stale_for(Repair::MemOrder(store))
        })
    }

    /// The invalidation repair: the core lost `line`. The victim is the
    /// oldest load bound to a value from the line that `model` needs
    /// repaired.
    pub fn inval_victim<'a>(&self, line: Line, model: MemModel, rob: &'a Rob) -> Option<&'a Entry> {
        let loads = self.lq.iter().map(|&l| live(rob, l));
        loads.clone().find(|e| {
            e.uop.is_load_class()
                && e.addr.is_some_and(|a| line_of(a) == line)
                && e.load.stale_for(Repair::Inval)
                && (model == MemModel::Tso || weak_needs_repair(e, loads.clone()))
        })
    }

    /// True when `e` waits for the store buffer to drain before it may
    /// retire: store→RMW order (§3.2.3) holds an atomic until every older
    /// store has drained, and MFENCE orders store→load. Under the weak
    /// model only an SC fence restores W→R; weaker fences are pipeline
    /// reorder barriers that retire without waiting on the store buffer.
    pub fn held_by_sb(&self, e: &Entry, model: MemModel) -> bool {
        self.sb_head().is_some()
            && match e.uop.kind {
                UopKind::LoadLock { .. } => true,
                UopKind::Fence(FenceKind::Standalone) => {
                    model == MemModel::Tso || e.uop.ord.is_sc()
                }
                _ => false,
            }
    }

    /// The ROB head `e` commits: it leaves the load queue or the fence
    /// list, or, as a store, turns into the youngest store-buffer entry,
    /// whose write-permission request goes out at once; that entry is
    /// returned.
    pub fn commit(&mut self, e: &Entry, id: CoreId, mem: &mut MemorySystem) -> Option<SbEntry> {
        if occupies_lq(&e.uop) {
            let left = self.lq.pop_front();
            debug_assert_eq!(left.map(|l| l.seq), Some(e.seq));
        }
        if let UopKind::Fence(_) = e.uop.kind {
            let left = self.fences.pop_front();
            debug_assert_eq!(left.map(|f| f.seq), Some(e.seq));
        }
        let (UopKind::Store { src, .. } | UopKind::StoreUnlock { src, .. }) = e.uop.kind else {
            return None;
        };
        let i = self.sb_len();
        debug_assert_eq!(self.sq[i].seq(), e.seq);
        let mut sb = SbEntry {
            seq: e.seq,
            addr: e.addr.expect("store address ready at commit"),
            value: e.value_of(src).expect("store data ready at commit"),
            is_unlock: matches!(e.uop.kind, UopKind::StoreUnlock { .. }),
            acquire_pending: false,
            sc: sc_store(&e.uop),
        };
        sb.request_write(id, mem);
        self.sq[i] = Store::Sb(sb);
        Some(sb)
    }

    fn sb_head(&self) -> Option<&SbEntry> {
        match self.sq.front() {
            Some(Store::Sb(head)) => Some(head),
            _ => None,
        }
    }

    /// Committed stores waiting to perform.
    pub fn sb_len(&self) -> usize {
        self.sq.partition_point(|s| matches!(s, Store::Sb(_)))
    }

    /// True when a drain would do nothing: the store buffer is empty, or
    /// its head is parked — its write-permission request is out and its
    /// line is not writable yet. Only the memory system ticking can make
    /// the line writable, so `Core::due` reads this afresh each cycle and
    /// the drain performs the store on the tick the line turns writable.
    pub fn sb_waits_for_cache(&self, id: CoreId, mem: &MemorySystem) -> bool {
        self.sb_head().is_none_or(|h| h.acquire_pending && !mem.writable(id, line_of(h.addr)))
    }

    /// Performs the store-buffer head and pops it, when its line is
    /// writable; otherwise requests write permission if no request is out.
    pub fn drain(&mut self, id: CoreId, mem: &mut MemorySystem) -> Option<SbEntry> {
        let Some(Store::Sb(head)) = self.sq.front_mut() else { return None };
        if mem.writable(id, line_of(head.addr)) {
            let ok = mem.try_store_perform(id, head.seq, head.addr, head.value);
            assert!(ok, "writable line must accept the store");
            let head = *head;
            self.sq.pop_front();
            Some(head)
        } else {
            if !head.acquire_pending {
                head.request_write(id, mem);
            }
            None
        }
    }

    /// The write-permission request of the store-buffer entry `seq` was
    /// answered.
    pub fn store_ready(&mut self, seq: Seq) {
        if let Some(Store::Sb(s)) = self.sq.iter_mut().find(|s| s.seq() == seq) {
            s.acquire_pending = false;
        }
    }

    /// Drops every queue entry of a micro-op with `seq >= from`.
    pub fn squash(&mut self, from: Seq) {
        while self.lq.back().is_some_and(|l| l.seq >= from) {
            self.lq.pop_back();
        }
        while matches!(self.sq.back(), Some(Store::Rob(s)) if s.seq >= from) {
            self.sq.pop_back();
        }
        self.fences.truncate(self.fences_older_than(from));
    }

    /// Queue entries of ROB micro-ops: zero once the ROB has drained.
    pub fn len(&self) -> usize {
        self.lq.len() + self.sq.len() - self.sb_len() + self.fences.len()
    }

    /// Re-derives the queues from a full ROB scan and asserts they match:
    /// every load-queue micro-op in the load queue, every store behind the
    /// store buffer in the store queue and every fence in the fence list, in
    /// age order. `fenced` is the atomic policy's `fenced()`.
    #[cfg(debug_assertions)]
    pub fn check_indices(&self, rob: &Rob, fenced: bool) {
        let mut lq = self.lq.iter();
        let mut sq = self.sq.iter().skip(self.sb_len());
        let mut fences = self.fences.iter();
        for (slot, e) in rob.iter() {
            if occupies_lq(&e.uop) {
                assert_eq!(lq.next(), Some(&slot), "load queue");
            }
            if e.uop.is_store_class() {
                assert_eq!(sq.next(), Some(&Store::Rob(slot)), "store queue");
            }
            if let UopKind::Fence(kind) = e.uop.kind {
                let fence = FenceRef { seq: e.seq, orders_loads: orders_loads(kind, fenced) };
                assert_eq!(fences.next(), Some(&fence), "fences");
            }
        }
        assert_eq!(lq.next(), None, "load queue");
        assert_eq!(sq.next(), None, "store queue");
        assert_eq!(fences.next(), None, "fences");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rob::SrcVal;
    use fa_isa::interp::GuestMem;
    use fa_isa::{decode, Instr, MemOrder, Reg, RmwOp};
    use fa_mem::MemConfig;

    const MEM: u64 = 0x10000;
    const X: Addr = 0x1000;
    /// On another line.
    const Y: Addr = 0x2000;

    /// A ROB and the load/store queue beside it, with nothing else in the
    /// core (no StoreSet training), on a one-core memory system.
    struct Queues {
        rob: Rob,
        lsq: Lsq,
        ss: StoreSets,
        cfg: CoreConfig,
        memory: MemorySystem,
    }

    impl Queues {
        fn new(cfg: CoreConfig) -> Queues {
            let mut lsq = Lsq::default();
            lsq.reset(&cfg);
            let memory = MemorySystem::new(MemConfig::tiny(), 1, GuestMem::new(MEM));
            Queues { rob: Rob::new(), lsq, ss: StoreSets::default(), cfg, memory }
        }

        /// Dispatches `e`.
        fn push(&mut self, e: Entry) -> Slot {
            let uop = e.uop;
            let slot = self.rob.push(e);
            self.lsq.dispatch(slot, &uop, self.cfg.policy.fenced());
            slot
        }

        /// Dispatches the first micro-op `i` decodes to, at `addr`
        /// (if any) and in `state`.
        fn push_uop(&mut self, seq: Seq, i: Instr, addr: Option<Addr>, state: LoadState) -> Slot {
            let mut e = Entry::new(seq, decode(i, 0)[0]);
            e.addr = addr;
            e.load = state;
            self.push(e)
        }

        /// Dispatches a store of `data` (`None`: not ready) to `addr`.
        fn store(&mut self, seq: Seq, addr: Addr, data: Option<Word>, ord: MemOrder) -> Slot {
            let instr = Instr::Store { src: Reg::R1, base: Reg::R2, offset: 0, ord };
            let mut e = Entry::new(seq, decode(instr, 0)[0]);
            e.addr = Some(addr);
            e.src_regs[0] = Reg::R1;
            e.srcs[0] = data.map_or(SrcVal::Wait { seq: 0 }, SrcVal::Ready);
            e.nsrcs = 1;
            self.push(e)
        }

        /// Dispatches a load of `addr`.
        fn load(&mut self, seq: Seq, addr: Addr) -> Slot {
            self.push_uop(seq, load_instr(MemOrder::Relaxed), Some(addr), LoadState::Unissued)
        }

        /// Commits the ROB head, a store, into the store buffer.
        fn commit_store(&mut self) {
            let head = self.rob.pop_front().expect("a store at the head");
            let sb = self.lsq.commit(&head, CoreId(0), &mut self.memory).expect("a store");
            assert_eq!((sb.seq, sb.acquire_pending), (head.seq, true), "its GetX is out");
        }

        /// The load at `slot`'s blocker, or `(store, value)` it forwards.
        fn issue(&self, slot: Slot) -> Result<Option<(Seq, Word)>, Blocker> {
            let fwd = self.lsq.load_blocker(slot, &self.rob, &self.ss, &self.cfg, MEM)?;
            Ok(fwd.map(|f| (f.store, f.value)))
        }

        /// `Lsq::check_indices` under the queues' policy.
        fn check(&self) {
            self.lsq.check_indices(&self.rob, self.cfg.policy.fenced());
        }

        /// The memory-order repair's victim when store `store` resolves to
        /// `X`, and the invalidation repair's under `model` when the core
        /// loses `X`'s line.
        fn victims(&self, store: Seq, model: MemModel) -> (Option<Seq>, Option<Seq>) {
            let mem_order = self.lsq.mem_order_victim(store, X, &self.rob);
            let inval = self.lsq.inval_victim(line_of(X), model, &self.rob);
            (mem_order.map(|e| e.seq), inval.map(|e| e.seq))
        }
    }

    /// A load with the annotation `ord`.
    fn load_instr(ord: MemOrder) -> Instr {
        Instr::Load { dst: Reg::R3, base: Reg::R2, offset: 0, ord }
    }

    #[test]
    fn a_committing_store_frees_no_store_queue_room() {
        let mut q = Queues::new(CoreConfig { sq_size: 2, ..CoreConfig::default() });
        q.store(1, X, Some(7), MemOrder::Relaxed);
        q.store(2, X + 8, Some(8), MemOrder::Relaxed);
        assert!(!q.lsq.has_room(0, 1, &q.cfg));
        q.commit_store();
        assert_eq!((q.lsq.sb_len(), q.lsq.len()), (1, 1));
        assert!(!q.lsq.has_room(0, 1, &q.cfg), "the store buffer is part of the store queue");
        assert!(q.lsq.has_room(1, 0, &q.cfg));
        q.check();
        // Only the drain frees room, once the head's line is writable.
        while q.lsq.drain(CoreId(0), &mut q.memory).is_none() {
            q.memory.tick();
        }
        assert!(q.lsq.has_room(0, 1, &q.cfg));
    }

    /// Queues holding one buffered store of 7 to `X` (#1) and a ROB store
    /// to another address (#2).
    fn one_buffered_store() -> Queues {
        let mut q = Queues::new(CoreConfig::default());
        q.store(1, X, Some(7), MemOrder::Relaxed);
        q.commit_store();
        q.store(2, X + 8, Some(8), MemOrder::Relaxed);
        q
    }

    #[test]
    fn the_store_buffer_forwards_when_no_rob_store_matches() {
        let mut q = one_buffered_store();
        let ld = q.load(3, X);
        assert_eq!(q.issue(ld), Ok(Some((1, 7))));
        let other = q.load(4, X + 16);
        assert_eq!(q.issue(other), Ok(None), "no store to its address: the cache");
        q.check();
    }

    #[test]
    fn a_rob_store_shadows_an_older_buffered_store_to_its_address() {
        let mut q = one_buffered_store();
        let old = q.load(3, X);
        q.store(4, X, Some(9), MemOrder::Relaxed);
        let ld = q.load(5, X);
        assert_eq!(q.issue(ld), Ok(Some((4, 9))));
        assert_eq!(q.issue(old), Ok(Some((1, 7))), "an older load sees only older stores");
    }

    #[test]
    fn a_rob_store_without_data_blocks_though_the_buffer_holds_a_value() {
        let mut q = one_buffered_store();
        q.store(3, X, None, MemOrder::Relaxed);
        let ld = q.load(4, X);
        assert_eq!(q.issue(ld), Err(Blocker::StoreData(3)));
    }

    #[test]
    fn the_sc_store_block_sees_both_parts_but_not_a_wild_store() {
        let weak = CoreConfig { model: MemModel::Weak, ..CoreConfig::default() };
        // Buffered.
        let mut q = Queues::new(weak.clone());
        q.store(1, X, Some(7), MemOrder::SeqCst);
        q.commit_store();
        let ld = q.load(2, X + 8);
        assert_eq!(q.issue(ld), Err(Blocker::ScStore));
        // In the ROB; a younger one does not block.
        let mut q = Queues::new(weak.clone());
        let ld = q.load(1, X + 8);
        q.store(2, X, Some(7), MemOrder::SeqCst);
        assert_eq!(q.issue(ld), Ok(None));
        let ld = q.load(3, X + 8);
        assert_eq!(q.issue(ld), Err(Blocker::ScStore));
        // A wrong-path SC store to a wild address never performs.
        let mut q = Queues::new(weak);
        q.store(1, MEM, Some(7), MemOrder::SeqCst);
        q.store(2, X + 1, Some(7), MemOrder::SeqCst);
        let ld = q.load(3, X + 8);
        assert_eq!(q.issue(ld), Ok(None));
        // TSO has no SC-store block.
        let mut q = Queues::new(CoreConfig::default());
        q.store(1, X, Some(7), MemOrder::SeqCst);
        let ld = q.load(2, X + 8);
        assert_eq!(q.issue(ld), Ok(None));
    }

    #[test]
    fn a_squash_truncates_both_queues_and_never_the_store_buffer() {
        let mut q = Queues::new(CoreConfig::default());
        q.store(1, X, Some(7), MemOrder::Relaxed);
        q.commit_store();
        q.load(2, X);
        q.store(3, X, Some(8), MemOrder::Relaxed);
        q.load(4, X);
        q.store(5, X, Some(9), MemOrder::Relaxed);
        q.rob.squash_from(4, |_| {});
        q.lsq.squash(4);
        assert_eq!((q.lsq.len(), q.lsq.sb_len()), (2, 1));
        assert_eq!(q.lsq.lq.iter().map(|l| l.seq).collect::<Vec<_>>(), [2]);
        q.check();
        q.rob.squash_from(0, |_| {});
        q.lsq.squash(0);
        assert_eq!((q.lsq.len(), q.lsq.sb_len()), (0, 1));
        q.check();
    }

    #[test]
    fn the_fence_list_orders_loads_until_each_fence_commits() {
        let fence = |kind| Uop {
            kind: UopKind::Fence(kind),
            ..decode(Instr::Fence { ord: MemOrder::SeqCst }, 0)[0]
        };
        for fenced in [false, true] {
            let policy = if fenced { AtomicPolicy::FencedSpec } else { AtomicPolicy::Free };
            let mut q = Queues::new(CoreConfig::default().with_policy(policy));
            q.push(Entry::new(1, fence(FenceKind::Standalone)));
            q.push(Entry::new(2, fence(FenceKind::AtomicPre)));
            q.push(Entry::new(3, fence(FenceKind::AtomicPost)));
            let ld = q.load(4, X);
            // The blocker is the youngest older fence that orders loads: an
            // atomic-post fence only under the fenced policies.
            let youngest = if fenced { 3 } else { 1 };
            assert_eq!(q.issue(ld), Err(Blocker::Fence(youngest)), "fenced: {fenced}");
            assert_eq!((q.lsq.oldest_fence(), q.lsq.len()), (Some(1), 4));
            q.check();
            // Commit pops the fence list's front.
            let head = q.rob.pop_front().expect("the standalone fence");
            assert_eq!(q.lsq.commit(&head, CoreId(0), &mut q.memory), None);
            assert_eq!(q.lsq.oldest_fence(), Some(2));
            let blocker = if fenced { Err(Blocker::Fence(3)) } else { Ok(None) };
            assert_eq!(q.issue(ld), blocker);
            // A squash truncates it.
            q.rob.squash_from(3, |_| {});
            q.lsq.squash(3);
            assert_eq!(q.lsq.fences.iter().map(|f| f.seq).collect::<Vec<_>>(), [2]);
            q.check();
            let head = q.rob.pop_front().expect("the atomic-pre fence");
            q.lsq.commit(&head, CoreId(0), &mut q.memory);
            assert_eq!((q.rob.len(), q.lsq.len(), q.lsq.oldest_fence()), (0, 0, None));
        }
    }

    /// The resolving store's sequence number: the loads are younger.
    const STORE: Seq = 10;

    #[test]
    fn each_repair_selects_its_victims_by_load_state() {
        use LoadState::*;
        // (state, memory-order victim, invalidation victim) for a load at
        // the store's address; at another address neither repair selects.
        let (older, younger) = (STORE - 1, STORE + 1);
        let table = [
            (Unissued, false, false),
            (Wild, false, false),
            (InFlight, true, true),
            (Cache { writable: false }, true, true),
            (Cache { writable: true }, true, true),
            (Forwarded { store: older, unlock: false }, true, false),
            (Forwarded { store: older, unlock: true }, true, false),
            (Forwarded { store: younger, unlock: false }, false, false),
            (Forwarded { store: younger, unlock: true }, false, false),
        ];
        let selected = |addr, state| {
            let mut q = Queues::new(CoreConfig::default());
            q.push_uop(20, load_instr(MemOrder::Relaxed), Some(addr), state);
            let (mem_order, inval) = q.victims(STORE, MemModel::Tso);
            (mem_order.is_some(), inval.is_some())
        };
        for (state, mem_order, inval) in table {
            assert_eq!(selected(X, state), (mem_order, inval), "{state:?} at the store's address");
            assert_eq!(selected(Y, state), (false, false), "{state:?} at another address");
        }
        // A monitor in the load queue is never a victim.
        let mut q = Queues::new(CoreConfig::default());
        q.push_uop(20, Instr::MonitorWait { base: Reg::R2, offset: 0 }, Some(X), InFlight);
        assert_eq!(q.victims(STORE, MemModel::Tso), (None, None));
    }

    #[test]
    fn the_weak_model_repairs_only_loads_an_unbound_older_load_orders() {
        // The invalidation victim among `loads`, each `(seq, instr, addr,
        // state)` and dispatched oldest first.
        let weak = |loads: &[(Seq, Instr, Option<Addr>, LoadState)]| {
            let mut q = Queues::new(CoreConfig::default());
            for &(seq, instr, addr, state) in loads {
                q.push_uop(seq, instr, addr, state);
            }
            q.victims(STORE, MemModel::Weak).1
        };
        let relaxed = load_instr(MemOrder::Relaxed);
        let bound = (20, relaxed, Some(X), LoadState::Cache { writable: false });
        // A relaxed bound load alone keeps its value; behind an unbound
        // older load to its line, or one without an address, it does not.
        assert_eq!(weak(&[bound]), None);
        assert_eq!(weak(&[(19, relaxed, Some(Y), LoadState::InFlight), bound]), None);
        assert_eq!(weak(&[(19, relaxed, Some(X + 8), LoadState::InFlight), bound]), Some(20));
        assert_eq!(weak(&[(19, relaxed, None, LoadState::Unissued), bound]), Some(20));
        // An older acquire without its value orders it; a wild one does not.
        let acquire = load_instr(MemOrder::Acquire);
        assert_eq!(weak(&[(19, acquire, Some(Y), LoadState::Unissued), bound]), Some(20));
        assert_eq!(weak(&[(19, acquire, Some(Y), LoadState::Wild), bound]), None);
        // A load_lock anchors its RMW's window: always repaired.
        let rmw = Instr::Rmw {
            op: RmwOp::FetchAdd,
            dst: Reg::R1,
            base: Reg::R2,
            offset: 0,
            src: Reg::R3,
            cmp: Reg::R0,
            ord: MemOrder::SeqCst,
        };
        let uop = decode(rmw, 0).into_iter().find(|u| matches!(u.kind, UopKind::LoadLock { .. }));
        let mut q = Queues::new(CoreConfig::default());
        let mut e = Entry::new(20, uop.expect("an RMW decodes a load_lock"));
        e.addr = Some(X);
        e.load = LoadState::Cache { writable: false };
        q.push(e);
        assert_eq!(q.victims(STORE, MemModel::Weak).1, Some(20));
    }
}
