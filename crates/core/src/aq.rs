//! The Atomic Queue (AQ) — the paper's §4 hardware structure.
//!
//! One entry per in-flight atomic RMW, allocated when the `load_lock`
//! dispatches and deallocated when the `store_unlock` performs its write and
//! leaves the store queue. The entry records whether the atomic holds a
//! cache-line lock (`Locked`), is waiting to acquire one (`WaitLock`), or
//! obtained its data through store-to-load forwarding and therefore relies
//! on the forwarding store's responsibility (`Fwd`, §3.3).

use crate::rob::Seq;
use fa_mem::Line;
use std::collections::VecDeque;

/// The `load_lock` of the store_unlock `seq`, whose AQ entry is keyed by
/// it: an RMW decodes to `AtomicPre, load_lock, rmw_alu, store_unlock,
/// AtomicPost`, so the two are two micro-ops apart.
pub(crate) fn load_lock_of(store_unlock: Seq) -> Seq {
    store_unlock - 2
}

/// Lock state of one atomic's AQ entry.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AqState {
    /// load_lock dispatched but not performed.
    WaitLock,
    /// load_lock performed and holds a lock on `Line` (contributes one lock
    /// count at the private cache).
    Locked(Line),
    /// load_lock forwarded from the store with sequence `store_seq`
    /// (the paper's SQid field).
    Fwd { store_seq: Seq },
}

/// One AQ entry.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AqEntry {
    /// Sequence number of the owning load_lock.
    pub ll_seq: Seq,
    /// Lock state.
    pub state: AqState,
    /// Length of the forwarding chain ending at this atomic (§3.3.4).
    pub chain: u32,
    /// Cycle the load_lock issued (Figure-1 "Atomic" accounting; 0 = not
    /// yet issued).
    pub issued_at: u64,
    /// Cycle the atomic acquired its line lock (fill response arrived, or
    /// data forwarded); 0 = not yet acquired. Splits the exec window into
    /// acquire-side and local-execute-side for the atomic-lifetime
    /// attribution.
    pub acquired_at: u64,
    /// Acquire-side latency split of the issue→response window, staged
    /// here and folded into [`CoreStats`](crate::CoreStats) only when the
    /// atomic's store_unlock performs — squashed atomics contribute
    /// nothing, so the committed split sums exactly to the exec latency.
    /// Cache-lock acquire cycles (the window minus transfer and park).
    pub acquire: u64,
    /// Interconnect transfer cycles of the fill's final leg.
    pub xfer: u64,
    /// `LatClass::index()` of the fill, bucketing `xfer`.
    pub xfer_class: usize,
    /// Cycles the directory request sat parked behind a busy entry.
    pub park: u64,
}

/// The Atomic Queue, managed as a FIFO in program order.
#[derive(Clone, Debug, Default)]
pub struct AtomicQueue {
    entries: VecDeque<AqEntry>,
    cap: usize,
}

impl AtomicQueue {
    /// Creates an AQ with `cap` entries (the paper evaluates 4).
    pub fn new(cap: usize) -> AtomicQueue {
        let mut aq = AtomicQueue::default();
        aq.reset(cap);
        aq
    }

    /// Empties the AQ, keeping its storage, and resizes it to `cap`
    /// entries.
    pub fn reset(&mut self, cap: usize) {
        let AtomicQueue { entries, cap: c } = self;
        entries.clear();
        entries.reserve(cap);
        *c = cap;
    }

    /// True when no atomic can dispatch (front-end stall condition).
    pub fn is_full(&self) -> bool {
        self.entries.len() >= self.cap
    }

    /// Occupancy.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no atomics are in flight.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Allocates an entry for the load_lock `ll_seq`.
    ///
    /// # Panics
    ///
    /// Panics if full (the dispatch stage must check [`AtomicQueue::is_full`])
    /// or out of program order.
    pub fn alloc(&mut self, ll_seq: Seq) {
        assert!(!self.is_full(), "AQ overflow");
        debug_assert!(self.entries.back().map(|e| e.ll_seq < ll_seq).unwrap_or(true));
        self.entries.push_back(AqEntry {
            ll_seq,
            state: AqState::WaitLock,
            chain: 0,
            issued_at: 0,
            acquired_at: 0,
            acquire: 0,
            xfer: 0,
            xfer_class: 0,
            park: 0,
        });
    }

    /// Entry owned by load_lock `ll_seq`.
    pub fn get(&self, ll_seq: Seq) -> Option<&AqEntry> {
        self.entries.iter().find(|e| e.ll_seq == ll_seq)
    }

    /// Mutable entry owned by load_lock `ll_seq`.
    pub fn get_mut(&mut self, ll_seq: Seq) -> Option<&mut AqEntry> {
        self.entries.iter_mut().find(|e| e.ll_seq == ll_seq)
    }

    /// Releases the entry of `ll_seq` (its store_unlock performed).
    ///
    /// Returns the entry.
    ///
    /// # Panics
    ///
    /// Panics if absent — store_unlock perform without a matching atomic is
    /// an accounting bug.
    pub fn release(&mut self, ll_seq: Seq) -> AqEntry {
        let pos = self
            .entries
            .iter()
            .position(|e| e.ll_seq == ll_seq)
            .expect("release of absent AQ entry");
        self.entries.remove(pos).expect("position valid")
    }

    /// Removes all entries with `ll_seq >= from` (squash), handing each to
    /// `visit` youngest first.
    pub fn squash_from(&mut self, from: Seq, mut visit: impl FnMut(AqEntry)) {
        while self.entries.back().is_some_and(|e| e.ll_seq >= from) {
            self.entries.pop_back().map(&mut visit);
        }
    }

    /// Converts every `Fwd` entry referencing `store_seq` into a `Locked`
    /// holder of `line` (the performing store broadcast its SQid with the
    /// L1D set/way, §4.2). Returns how many entries converted — the caller
    /// adds that many lock counts at the private cache, net of the
    /// performing store's own unlock.
    pub fn capture_from_store(&mut self, store_seq: Seq, line: Line) -> u32 {
        let mut n = 0;
        for e in self.entries.iter_mut() {
            if let AqState::Fwd { store_seq: s } = e.state {
                if s == store_seq {
                    e.state = AqState::Locked(line);
                    n += 1;
                }
            }
        }
        n
    }

    /// Iterates over entries currently holding a lock.
    pub fn locked(&self) -> impl Iterator<Item = &AqEntry> + '_ {
        self.entries.iter().filter(|e| matches!(e.state, AqState::Locked(_)))
    }

    /// Oldest entry holding a lock (watchdog flush point).
    pub fn oldest_locked(&self) -> Option<&AqEntry> {
        self.locked().next()
    }

    /// True if any entry holds a lock.
    pub fn any_locked(&self) -> bool {
        self.oldest_locked().is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_alloc_release() {
        let mut aq = AtomicQueue::new(2);
        aq.alloc(10);
        aq.alloc(20);
        assert!(aq.is_full());
        let e = aq.release(10);
        assert_eq!(e.ll_seq, 10);
        assert_eq!(aq.len(), 1);
        assert!(!aq.is_full());
    }

    #[test]
    #[should_panic]
    fn alloc_past_capacity_panics() {
        let mut aq = AtomicQueue::new(1);
        aq.alloc(1);
        aq.alloc(2);
    }

    #[test]
    fn squash_removes_suffix() {
        let mut aq = AtomicQueue::new(4);
        for s in [1, 5, 9] {
            aq.alloc(s);
        }
        aq.get_mut(5).unwrap().state = AqState::Locked(0x40);
        let mut removed = Vec::new();
        aq.squash_from(5, |e| removed.push(e));
        assert_eq!(removed.len(), 2);
        assert_eq!(removed[0].ll_seq, 9);
        assert!(matches!(removed[1].state, AqState::Locked(0x40)));
        assert_eq!(aq.len(), 1);
    }

    #[test]
    fn capture_converts_matching_forwards() {
        let mut aq = AtomicQueue::new(4);
        aq.alloc(1);
        aq.alloc(2);
        aq.alloc(3);
        aq.get_mut(2).unwrap().state = AqState::Fwd { store_seq: 77 };
        aq.get_mut(3).unwrap().state = AqState::Fwd { store_seq: 88 };
        let n = aq.capture_from_store(77, 0x100);
        assert_eq!(n, 1);
        assert_eq!(aq.get(2).unwrap().state, AqState::Locked(0x100));
        assert!(matches!(aq.get(3).unwrap().state, AqState::Fwd { store_seq: 88 }));
    }

    #[test]
    fn oldest_locked_is_in_program_order() {
        let mut aq = AtomicQueue::new(4);
        aq.alloc(1);
        aq.alloc(2);
        aq.get_mut(2).unwrap().state = AqState::Locked(0x80);
        assert_eq!(aq.oldest_locked().unwrap().ll_seq, 2);
        aq.get_mut(1).unwrap().state = AqState::Locked(0x40);
        assert_eq!(aq.oldest_locked().unwrap().ll_seq, 1);
        assert!(aq.any_locked());
    }
}

/// Hardware cost of an Atomic Queue per the paper's §4.3 accounting.
///
/// Each entry stores a locked bit, an L1D set/way locator, a wrap-around
/// sequence number sized to the ROB, and an SQ pointer. For the paper's
/// Icelake-like design (4 entries, 48K 12-way L1D, 352-entry ROB, 72-entry
/// SQ) this reproduces the headline "15 bytes" (116 bits).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AqStorage {
    /// Bits per AQ entry.
    pub bits_per_entry: u32,
    /// Total bits across all entries.
    pub total_bits: u32,
    /// Total rounded up to bytes.
    pub total_bytes: u32,
}

/// Computes [`AqStorage`] for a given geometry.
///
/// `l1_sets`/`l1_ways` size the set/way locator, `rob_size` the sequence
/// number (plus 2 wrap bits, as the paper specifies for a ROB below 512),
/// and `sq_size` the SQ pointer.
pub fn aq_storage(
    aq_entries: u32,
    l1_sets: u32,
    l1_ways: u32,
    rob_size: u32,
    sq_size: u32,
) -> AqStorage {
    fn clog2(x: u32) -> u32 {
        32 - x.saturating_sub(1).leading_zeros()
    }
    let locked = 1;
    let set = clog2(l1_sets);
    let way = clog2(l1_ways);
    let seq = clog2(rob_size) + 2;
    let sqid = clog2(sq_size);
    let bits_per_entry = locked + set + way + seq + sqid;
    let total_bits = bits_per_entry * aq_entries;
    AqStorage { bits_per_entry, total_bits, total_bytes: total_bits.div_ceil(8) }
}

#[cfg(test)]
mod storage_tests {
    use super::*;

    #[test]
    fn paper_icelake_design_costs_15_bytes() {
        // §4.3: locked 1 + set/way 6+4 + seqnum 9+2 + SQid 7 = 29 bits per
        // entry; 4 entries = 116 bits = 15 bytes.
        let s = aq_storage(4, 64, 12, 352, 72);
        assert_eq!(s.bits_per_entry, 29);
        assert_eq!(s.total_bits, 116);
        assert_eq!(s.total_bytes, 15);
    }

    #[test]
    fn storage_scales_with_entries() {
        let four = aq_storage(4, 64, 12, 352, 72);
        let eight = aq_storage(8, 64, 12, 352, 72);
        assert_eq!(eight.total_bits, 2 * four.total_bits);
    }
}
