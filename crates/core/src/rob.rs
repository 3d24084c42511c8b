//! Reorder buffer: in-flight micro-op entries, addressed in O(1) by
//! [`Slot`] handle and — for callers that only hold a sequence number, such
//! as memory responses — by [`Rob::get`].

use crate::order::LoadState;
use fa_isa::{Addr, Reg, Uop, Word};
use std::collections::VecDeque;

/// Global (per-core) micro-op sequence number.
pub type Seq = u64;

/// One source operand of an in-flight micro-op.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SrcVal {
    /// Value available.
    Ready(Word),
    /// Waiting for the producer micro-op `seq`, which wakes this operand
    /// when it completes (the scheduler keeps the producer's dependents).
    Wait { seq: Seq },
}

/// O(1) handle to a ROB entry: its ring position plus the sequence number
/// that tags it.
///
/// A position is stable for as long as its entry lives, but a squash hands
/// the positions of the dropped suffix to whatever dispatches next, and
/// sequence numbers are never recycled — so the tag, not the position,
/// says whether a handle still names the micro-op it was taken for.
/// [`Rob::at`] resolves a stale handle to `None`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Slot {
    /// Sequence number of the entry the handle was taken for.
    pub seq: Seq,
    /// Entries retired from the head before this one was pushed, plus its
    /// distance from the head at that time.
    pos: u64,
}

impl Slot {
    /// The ring position (see [`Slot`]); side tables indexed by ROB entry
    /// use it modulo their capacity.
    pub fn pos(self) -> u64 {
        self.pos
    }
}

/// A reorder-buffer entry.
#[derive(Clone, Debug)]
pub struct Entry {
    /// Sequence number (unique, monotonically increasing).
    pub seq: Seq,
    /// The micro-op.
    pub uop: Uop,
    /// Source registers aligned with `srcs`.
    pub src_regs: [Reg; 3],
    /// Source operand states.
    pub srcs: [SrcVal; 3],
    /// Number of live sources.
    pub nsrcs: u8,
    /// Rename undo record: the mapping the destination register had before
    /// this micro-op renamed it (`None` for the architectural file, and for
    /// a micro-op with no destination).
    pub prev_map: Option<Slot>,
    /// Issued to a functional unit / the LSU.
    pub issued: bool,
    /// Result available; for memory ops, performed.
    pub done: bool,
    /// Cycle at which an in-flight execution completes.
    pub done_at: Option<u64>,
    /// Result value (dst payload; for stores, unused).
    pub result: Word,
    /// Effective address once computed.
    pub addr: Option<Addr>,
    /// For a load-queue entry: how far it has bound its value.
    pub load: LoadState,
    /// Branch: predicted direction.
    pub pred_taken: bool,
    /// Branch: history snapshot for predictor repair.
    pub bp_snapshot: u64,
    /// First cycle the micro-op's operands were ready (drain accounting).
    pub ready_since: Option<u64>,
    /// For a performed load: write-id of the store that produced the
    /// value (0 = initial memory). Only populated under `CheckMode::Tso`.
    pub writer: u64,
}

impl Entry {
    /// Creates a fresh entry for `uop` with sequence `seq`.
    pub fn new(seq: Seq, uop: Uop) -> Entry {
        Entry {
            seq,
            uop,
            src_regs: [Reg::R0; 3],
            srcs: [SrcVal::Ready(0); 3],
            nsrcs: 0,
            prev_map: None,
            issued: false,
            done: false,
            done_at: None,
            result: 0,
            addr: None,
            load: LoadState::Unissued,
            pred_taken: false,
            bp_snapshot: 0,
            ready_since: None,
            writer: 0,
        }
    }

    /// Resolved value of source register `r`, if ready. `R0` is always 0.
    pub fn value_of(&self, r: Reg) -> Option<Word> {
        if r.is_zero() {
            return Some(0);
        }
        for i in 0..self.nsrcs as usize {
            if self.src_regs[i] == r {
                return match self.srcs[i] {
                    SrcVal::Ready(v) => Some(v),
                    SrcVal::Wait { .. } => None,
                };
            }
        }
        // A register that is not a tracked source cannot be queried.
        None
    }

    /// True once every source operand is ready.
    pub fn srcs_ready(&self) -> bool {
        self.srcs[..self.nsrcs as usize]
            .iter()
            .all(|s| matches!(s, SrcVal::Ready(_)))
    }
}

/// The reorder buffer: a ring of entries in program order.
#[derive(Debug, Default)]
pub struct Rob {
    entries: VecDeque<Entry>,
    /// Entries retired from the head so far: the ring position of the
    /// current head.
    retired: u64,
}

impl Rob {
    /// Creates an empty ROB.
    pub fn new() -> Rob {
        Rob::default()
    }

    /// Empties the ROB, keeping its ring, and makes room for `cap`
    /// micro-ops.
    pub fn reset(&mut self, cap: usize) {
        let Rob { entries, retired } = self;
        entries.clear();
        entries.reserve(cap);
        *retired = 0;
    }

    /// Number of in-flight micro-ops.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing is in flight.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Sequence number of the oldest entry.
    pub fn head_seq(&self) -> Option<Seq> {
        self.entries.front().map(|e| e.seq)
    }

    fn slot_at(&self, index: usize, seq: Seq) -> Slot {
        Slot { seq, pos: self.retired + index as u64 }
    }

    /// Appends `e` and returns its handle with the entry where it now
    /// lives. Sequence numbers must increase monotonically but may have
    /// gaps (squashes never recycle sequence numbers — unique seqs are what
    /// make orphaned memory responses and stale handles detectable).
    fn place(&mut self, e: Entry) -> (Slot, &mut Entry) {
        debug_assert!(self.entries.back().map(|b| b.seq < e.seq).unwrap_or(true));
        let slot = self.slot_at(self.entries.len(), e.seq);
        self.entries.push_back(e);
        (slot, self.entries.back_mut().expect("just pushed"))
    }

    /// Appends a fresh entry for `uop`, built in the ring, for the caller
    /// to fill through the reference.
    pub fn push_new(&mut self, seq: Seq, uop: Uop) -> (Slot, &mut Entry) {
        self.place(Entry::new(seq, uop))
    }

    /// Appends the entry `e` and returns its handle.
    pub fn push(&mut self, e: Entry) -> Slot {
        self.place(e).0
    }

    /// Pops the oldest entry.
    pub fn pop_front(&mut self) -> Option<Entry> {
        let e = self.entries.pop_front()?;
        self.retired += 1;
        Some(e)
    }

    /// Drops the oldest entry without moving it out (commit, which read
    /// what it needs through [`Rob::front`]); a no-op on an empty ROB.
    pub fn retire_front(&mut self) {
        let _ = self.pop_front();
    }

    /// Entry by handle; `None` once it committed or was squashed.
    pub fn at(&self, slot: Slot) -> Option<&Entry> {
        let i = usize::try_from(slot.pos.checked_sub(self.retired)?).ok()?;
        self.entries.get(i).filter(|e| e.seq == slot.seq)
    }

    /// Mutable entry by handle; `None` once it committed or was squashed.
    pub fn at_mut(&mut self, slot: Slot) -> Option<&mut Entry> {
        let i = usize::try_from(slot.pos.checked_sub(self.retired)?).ok()?;
        self.entries.get_mut(i).filter(|e| e.seq == slot.seq)
    }

    /// Number of entries older than the live entry `slot`.
    pub fn rank(&self, slot: Slot) -> usize {
        debug_assert!(self.at(slot).is_some());
        (slot.pos - self.retired) as usize
    }

    /// Handle of the entry with sequence number `seq`. Sequence numbers
    /// are contiguous until a squash leaves a gap, so the distance from the
    /// head's is tried first; behind a gap the entry can only sit closer to
    /// the head, and a binary search finds it.
    pub fn find(&self, seq: Seq) -> Option<Slot> {
        let guess = usize::try_from(seq.checked_sub(self.head_seq()?)?).ok()?;
        let i = match self.entries.get(guess) {
            Some(e) if e.seq == seq => guess,
            _ => {
                let i = self.entries.partition_point(|e| e.seq < seq);
                if self.entries.get(i)?.seq != seq {
                    return None;
                }
                i
            }
        };
        Some(self.slot_at(i, seq))
    }

    /// Entry by sequence number.
    pub fn get(&self, seq: Seq) -> Option<&Entry> {
        self.at(self.find(seq)?)
    }

    /// Oldest entry.
    pub fn front(&self) -> Option<&Entry> {
        self.entries.front()
    }

    /// Handle of the oldest entry.
    pub fn front_slot(&self) -> Option<Slot> {
        self.entries.front().map(|e| self.slot_at(0, e.seq))
    }

    /// Iterates oldest → youngest with each entry's handle.
    pub fn iter(&self) -> impl DoubleEndedIterator<Item = (Slot, &Entry)> + '_ {
        self.entries.iter().enumerate().map(|(i, e)| (self.slot_at(i, e.seq), e))
    }

    /// Drops every entry with `seq >= from`, showing each to `visit`
    /// youngest first (squash order), and returns how many were dropped.
    pub fn squash_from(&mut self, from: Seq, mut visit: impl FnMut(&Entry)) -> usize {
        let keep = self.entries.partition_point(|e| e.seq < from);
        let dropped = self.entries.len() - keep;
        self.entries.range(keep..).rev().for_each(&mut visit);
        self.entries.truncate(keep);
        dropped
    }

    /// Counts in-flight micro-ops satisfying `pred`.
    pub fn count(&self, pred: impl Fn(&Entry) -> bool) -> usize {
        self.entries.iter().filter(|e| pred(e)).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fa_isa::{decode, Instr};

    fn entry(seq: Seq) -> Entry {
        Entry::new(seq, decode(Instr::Nop, 0)[0])
    }

    #[test]
    fn seq_addressing() {
        let mut r = Rob::new();
        for s in 5..10 {
            r.push(entry(s));
        }
        assert_eq!(r.head_seq(), Some(5));
        assert_eq!(r.get(7).map(|e| e.seq), Some(7));
        assert!(r.get(4).is_none());
        assert!(r.get(10).is_none());
        r.pop_front();
        assert!(r.get(5).is_none());
        assert_eq!(r.get(6).map(|e| e.seq), Some(6));
    }

    #[test]
    fn squash_from_drops_suffix_youngest_first() {
        let mut r = Rob::new();
        for s in 0..6 {
            r.push(entry(s));
        }
        let mut seen = Vec::new();
        assert_eq!(r.squash_from(3, |e| seen.push(e.seq)), 3);
        assert_eq!(seen, vec![5, 4, 3]);
        assert_eq!(r.len(), 3);
        assert!(r.get(3).is_none());
    }

    #[test]
    fn handles_are_tag_checked_across_squash_and_commit() {
        let mut r = Rob::new();
        let slots: Vec<Slot> = (10..14).map(|s| r.push(entry(s))).collect();
        assert_eq!(r.at(slots[2]).map(|e| e.seq), Some(12));
        assert_eq!(r.rank(slots[2]), 2);
        // A squash hands positions 2 and 3 to the next pushes: the old
        // handles must not resolve to the newcomers.
        r.squash_from(12, |_| {});
        let reused = r.push(entry(20));
        assert_eq!(reused.pos(), slots[2].pos());
        assert!(r.at(slots[2]).is_none());
        assert_eq!(r.at(reused).map(|e| e.seq), Some(20));
        // Commit moves the head; surviving handles keep resolving, the
        // popped one does not.
        r.pop_front();
        assert!(r.at(slots[0]).is_none());
        assert_eq!(r.at(slots[1]).map(|e| e.seq), Some(11));
        assert_eq!(r.rank(reused), 1);
        assert_eq!(r.front_slot(), Some(slots[1]));
        // Behind the seq gap the head-distance guess misses and the search
        // takes over.
        assert_eq!(r.find(20), Some(reused));
        assert_eq!(r.find(12), None);
        assert_eq!(r.find(21), None);
    }

    /// The entry is the hot struct of every ROB walk: it may shrink, not
    /// grow (224 bytes on x86-64 before its load state became one field,
    /// 216 before the rename undo record dropped its register, 208 since).
    #[test]
    fn an_entry_stays_within_224_bytes() {
        let size = std::mem::size_of::<Entry>();
        assert!(size <= 224, "Entry is {size} bytes");
    }

    #[test]
    fn value_of_handles_zero_and_missing() {
        let mut e = entry(0);
        e.src_regs[0] = Reg::R3;
        e.srcs[0] = SrcVal::Ready(42);
        e.nsrcs = 1;
        assert_eq!(e.value_of(Reg::R0), Some(0));
        assert_eq!(e.value_of(Reg::R3), Some(42));
        assert_eq!(e.value_of(Reg::R4), None);
        e.srcs[0] = SrcVal::Wait { seq: 9 };
        assert_eq!(e.value_of(Reg::R3), None);
        assert!(!e.srcs_ready());
    }
}
