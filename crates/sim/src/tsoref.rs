//! The bounded operational reference machine: x86-TSO and an ARM-like
//! weak baseline from one transition system, in two modes.
//!
//! [`enumerate`] returns *every* outcome a small concurrent program can
//! produce; [`walk`] takes one schedule through the same transitions and
//! records the history the way the detailed simulator logs it, for the
//! axiomatic checker. Both step one rule (`Rules::steps`: each transition
//! drains a thread's oldest buffered store or executes one ready op), so
//! the two modes cannot drift apart. The machine is that of Sewell et al.
//! ("x86-TSO: A Rigorous and Usable Programmer's Model"): one shared memory, per-thread
//! FIFO store buffers, loads that forward from the local buffer, atomic
//! RMWs that execute only with an empty local buffer and read-modify-write
//! memory in one step, stores and fences that wait for every
//! program-order predecessor. The [`MemModel`] switches three rules and
//! nothing else:
//!
//! | rule | `Tso` | `Weak` |
//! |---|---|---|
//! | a load may execute past undone older loads | never | when none of them is acquire-class or to the same address |
//! | a store's `sc` annotation is recorded in its buffer entry, and a buffered `sc` store blocks the thread's loads | no — annotations are inert | yes |
//! | a fence waits for an empty store buffer | every fence | only an `sc` fence |
//!
//! Everything else keeps its TSO strength under both models: the buffer
//! is FIFO (W→W preserved; release stores are architecturally free), R→W
//! is preserved, and RMWs are pinned to SeqCst strength.
//!
//! The litmus harness uses the resulting outcome sets as ground truth:
//! any outcome observed on the detailed simulator that the machine cannot
//! produce under the run's model is a consistency bug. The fuzzer asks
//! only that membership question, so it runs the same search with the
//! observed vector as a target (`Explorer::allows`): a step whose
//! observation contradicts the target is not taken, and the search stops
//! at the first terminal state that shows the target.

use crate::axiom::Execution;
use crate::litmus::loc;
use fa_isa::{MemOrder, Word};
use fa_mem::fxhash::FxHasher;
use fa_mem::FxHashSet;
use fa_trace::{write_id, DataEvent, MemModel, SerEvent, WRITE_ID_INIT};
use std::collections::HashSet;
use std::hash::{Hash, Hasher};

/// One litmus operation: what the reference machine steps and the litmus
/// harness compiles to guest code. Addresses and values are small integers; `out`
/// slots index the observation vector. Prefer the constructor helpers
/// ([`LOp::st`], [`LOp::ld`], [`LOp::fadd`], [`LOp::fence`] and their
/// `_ord` variants) over struct literals.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LOp {
    /// `mem[addr] = val`
    St { addr: u8, val: Word, ord: MemOrder },
    /// Observe `mem[addr]` into observation slot `out`.
    Ld { addr: u8, out: u8, ord: MemOrder },
    /// Observe `fetch_add(mem[addr], val)`'s old value into slot `out`.
    /// The annotation is recorded but inert — RMWs execute at SeqCst
    /// strength under both memory models.
    FetchAdd { addr: u8, val: Word, out: u8, ord: MemOrder },
    /// Standalone fence. Under TSO every fence drains the store buffer;
    /// under weak only `sc` fences do (weaker fences still pin the
    /// program order of everything around them).
    Fence { ord: MemOrder },
}

impl LOp {
    /// Relaxed store.
    pub fn st(addr: u8, val: Word) -> LOp {
        LOp::St { addr, val, ord: MemOrder::Relaxed }
    }
    /// Annotated store.
    pub fn st_ord(addr: u8, val: Word, ord: MemOrder) -> LOp {
        LOp::St { addr, val, ord }
    }
    /// Relaxed load.
    pub fn ld(addr: u8, out: u8) -> LOp {
        LOp::Ld { addr, out, ord: MemOrder::Relaxed }
    }
    /// Annotated load.
    pub fn ld_ord(addr: u8, out: u8, ord: MemOrder) -> LOp {
        LOp::Ld { addr, out, ord }
    }
    /// Fetch-add (SeqCst, as all RMWs effectively are).
    pub fn fadd(addr: u8, val: Word, out: u8) -> LOp {
        LOp::FetchAdd { addr, val, out, ord: MemOrder::SeqCst }
    }
    /// SeqCst fence (MFENCE).
    pub fn fence() -> LOp {
        LOp::Fence { ord: MemOrder::SeqCst }
    }
    /// Annotated fence.
    pub fn fence_ord(ord: MemOrder) -> LOp {
        LOp::Fence { ord }
    }
}

/// A store as its thread's buffer holds it. Stores execute in program
/// order and the buffer is FIFO, so a thread's buffer is always a
/// contiguous run of its `St` ops: the state keeps only how many have
/// drained, and the entries themselves are compiled once per program.
struct Buffered {
    /// Index of the `St` in its thread.
    at: usize,
    addr: u8,
    /// Compact index of the address's memory cell.
    cell: usize,
    val: Word,
    /// The `sc` annotation, recorded only under [`MemModel::Weak`].
    sc: bool,
}

/// One transition of a thread: drain its oldest buffered store, or
/// execute its op `i` (a load carries the buffer entry it forwards from).
#[derive(Clone, Copy)]
enum Step<'a> {
    Drain(&'a Buffered),
    Exec(usize, Option<&'a Buffered>),
}

/// The transition rule over one program. A state is one `[Word]` of fixed
/// length: a memory cell per distinct address, then the observation
/// slots, then one word per thread (low half: done-mask over its ops;
/// high half: how many of its stores have drained).
struct Rules<'a> {
    threads: &'a [Vec<LOp>],
    weak: bool,
    cell: [usize; 256],
    /// How many ops write each observation slot (saturating).
    writers: [u8; 256],
    stores: Vec<Vec<Buffered>>,
    outs_at: usize,
    threads_at: usize,
}

impl<'a> Rules<'a> {
    fn new(threads: &'a [Vec<LOp>], num_outs: usize, model: MemModel) -> Rules<'a> {
        assert!(
            threads.iter().all(|t| t.len() <= 32),
            "the reference machine supports at most 32 ops per thread"
        );
        let weak = model == MemModel::Weak;
        let mut cell = [usize::MAX; 256];
        let mut writers = [0u8; 256];
        let mut cells = 0;
        for op in threads.iter().flatten() {
            if let LOp::St { addr, .. } | LOp::Ld { addr, .. } | LOp::FetchAdd { addr, .. } = *op {
                if cell[addr as usize] == usize::MAX {
                    cell[addr as usize] = cells;
                    cells += 1;
                }
            }
            if let LOp::Ld { out, .. } | LOp::FetchAdd { out, .. } = *op {
                writers[out as usize] = writers[out as usize].saturating_add(1);
            }
        }
        let entry = |(at, op): (usize, &LOp)| match *op {
            LOp::St { addr, val, ord } => {
                Some(Buffered { at, addr, cell: cell[addr as usize], val, sc: weak && ord.is_sc() })
            }
            _ => None,
        };
        let stores =
            threads.iter().map(|ops| ops.iter().enumerate().filter_map(entry).collect()).collect();
        Rules { threads, weak, cell, writers, stores, outs_at: cells, threads_at: cells + num_outs }
    }

    /// Calls `f(thread, step)` for every transition enabled in state `s`.
    /// Only a terminal state (every op done, every buffer drained) has none.
    fn steps<'s>(&'s self, s: &[Word], mut f: impl FnMut(usize, Step<'s>)) {
        for (t, ops) in self.threads.iter().enumerate() {
            let w = s[self.threads_at + t];
            let (done, drained) = (w as u32, (w >> 32) as usize);
            let is_done = |i: usize| done >> i & 1 == 1;
            let executed = self.stores[t].iter().take_while(|b| is_done(b.at)).count();
            let buffer = &self.stores[t][drained..executed];
            // Drain the oldest buffered store (FIFO — W→W is preserved
            // even for relaxed stores).
            if let Some(b) = buffer.first() {
                f(t, Step::Drain(b));
            }
            // Execute any ready op. An op that is ready but gated on the
            // buffer (below) needs no transition of its own: draining is
            // always possible.
            let first = done.trailing_ones() as usize;
            for (i, &op) in ops.iter().enumerate().skip(first) {
                // Ready: every predecessor is done, or — weak only, the R→R
                // relaxation — the op is a load and every undone
                // predecessor is a non-acquire load to a different address
                // (the same-address guard preserves per-location coherence).
                let hoists = |addr: u8| {
                    self.weak
                        && (first..i).filter(|&j| !is_done(j)).all(|j| match ops[j] {
                            LOp::Ld { addr: a, ord, .. } => !ord.is_acquire() && a != addr,
                            _ => false,
                        })
                };
                let ready = !is_done(i)
                    && (i == first || matches!(op, LOp::Ld { addr, .. } if hoists(addr)));
                if !ready {
                    continue;
                }
                let fwd = match op {
                    LOp::St { .. } => None,
                    // A buffered `sc` store blocks every younger load (the
                    // store-load half of its SC fence); acquire annotations
                    // on the load itself need no gate — they only restrict
                    // what *later* ops may hoist past it. Otherwise forward
                    // from the youngest matching entry, else read memory.
                    LOp::Ld { addr, .. } if !buffer.iter().any(|b| b.sc) => {
                        let c = self.cell[addr as usize];
                        buffer.iter().rev().find(|b| b.cell == c)
                    }
                    // Atomic RMW, SeqCst strength in both models: only with
                    // an empty local buffer.
                    LOp::FetchAdd { .. } if buffer.is_empty() => None,
                    // Every fence pins program order around itself (the
                    // readiness rule enforces that); whether it also drains
                    // the buffer is the model's call.
                    LOp::Fence { ord } if buffer.is_empty() || (self.weak && !ord.is_sc()) => None,
                    LOp::Ld { .. } | LOp::FetchAdd { .. } | LOp::Fence { .. } => continue,
                };
                f(t, Step::Exec(i, fwd));
            }
        }
    }

    /// The observation slot thread `t`'s `step` writes in state `s`, and
    /// the value it writes there (`None` for a step that observes nothing).
    fn observes(&self, s: &[Word], t: usize, step: Step) -> Option<(usize, Word)> {
        let Step::Exec(i, fwd) = step else { return None };
        match self.threads[t][i] {
            LOp::Ld { addr, out, .. } => {
                Some((out as usize, fwd.map_or(s[self.cell[addr as usize]], |b| b.val)))
            }
            LOp::FetchAdd { addr, out, .. } => Some((out as usize, s[self.cell[addr as usize]])),
            LOp::St { .. } | LOp::Fence { .. } => None,
        }
    }

    /// Applies thread `t`'s `step` to state `s`.
    fn apply(&self, s: &mut [Word], t: usize, step: Step) {
        let me = self.threads_at + t;
        let i = match step {
            Step::Drain(b) => {
                s[b.cell] = b.val;
                s[me] += 1 << 32;
                return;
            }
            Step::Exec(i, _) => i,
        };
        if let Some((out, v)) = self.observes(s, t, step) {
            s[self.outs_at..self.threads_at][out] = v;
        }
        // The read-modify-write is one atomic step (cache locking).
        if let LOp::FetchAdd { addr, val, .. } = self.threads[t][i] {
            let c = self.cell[addr as usize];
            s[c] = s[c].wrapping_add(val);
        }
        s[me] |= 1 << i;
    }
}

/// Every state an enumeration has seen, packed back to back in one arena
/// and numbered in discovery order, with an open-addressed index over them:
/// a state costs its words, not an allocation.
#[derive(Default)]
struct States {
    /// Words per state.
    len: usize,
    arena: Vec<Word>,
    /// State number + 1 per slot, 0 for a free one; a power-of-two length,
    /// never more than half full.
    index: Vec<u32>,
}

impl States {
    fn clear(&mut self, len: usize) {
        self.len = len;
        self.arena.clear();
        self.index.clear();
    }

    fn get(&self, id: u32) -> &[Word] {
        &self.arena[id as usize * self.len..][..self.len]
    }

    fn count(&self) -> usize {
        self.arena.len() / self.len
    }

    /// The number of state `s` if seen, else the free slot it would take.
    fn find(&self, s: &[Word]) -> Result<u32, usize> {
        let mut h = FxHasher::default();
        s.hash(&mut h);
        let mask = self.index.len() - 1;
        let mut slot = h.finish() as usize & mask;
        loop {
            match self.index[slot] {
                0 => return Err(slot),
                id if self.get(id - 1) == s => return Ok(id - 1),
                _ => slot = (slot + 1) & mask,
            }
        }
    }

    /// Adds `s` unless it was seen; returns its number when it is new.
    fn insert(&mut self, s: &[Word]) -> Option<u32> {
        let id = self.count() as u32;
        assert!(id < 1_000_000, "litmus state space too large");
        if 2 * (id as usize + 1) > self.index.len() {
            let slots = (2 * self.index.len()).max(64);
            self.index.clear();
            self.index.resize(slots, 0);
            for old in 0..id {
                let Err(slot) = self.find(self.get(old)) else { unreachable!("states are distinct") };
                self.index[slot] = old + 1;
            }
        }
        let slot = self.find(s).err()?;
        self.index[slot] = id + 1;
        self.arena.extend_from_slice(s);
        Some(id)
    }
}

/// The reference machine's search storage. A campaign worker keeps one
/// across its programs, so that exploring one allocates only for its
/// outcomes and while the storage still grows.
#[derive(Default)]
pub(crate) struct Explorer {
    states: States,
    /// Discovered, unexpanded states, depth-first.
    work: Vec<u32>,
    cur: Vec<Word>,
    next: Vec<Word>,
}

impl Explorer {
    /// Fills `outcomes` with the set of reachable observation vectors for
    /// `threads` under `model`, as [`enumerate`] returns it.
    pub(crate) fn outcomes(
        &mut self,
        threads: &[Vec<LOp>],
        num_outs: usize,
        model: MemModel,
        outcomes: &mut FxHashSet<Vec<Word>>,
    ) {
        outcomes.clear();
        self.search(threads, num_outs, model, None, |outs| {
            if !outcomes.contains(outs) {
                outcomes.insert(outs.to_vec());
            }
            false
        });
    }

    /// True when `threads` under `model` can end with observation vector
    /// `target`: membership in the set [`outcomes`](Self::outcomes)
    /// fills, without enumerating it.
    pub(crate) fn allows(
        &mut self,
        threads: &[Vec<LOp>],
        num_outs: usize,
        model: MemModel,
        target: &[Word],
    ) -> bool {
        self.search(threads, num_outs, model, Some(target), |outs| outs == target)
    }

    /// Depth-first search over the states reachable from the initial one,
    /// each visited once, calling `found` on every terminal state's
    /// observation vector until it returns true (then so does the search).
    ///
    /// With a `target`, a step that writes an observation slot no other op
    /// writes, with a value other than the target's, is not taken: every
    /// terminal state past it differs from the target in that slot. The
    /// search then visits only states consistent with the target so far, a
    /// subset of what the full enumeration visits.
    fn search(
        &mut self,
        threads: &[Vec<LOp>],
        num_outs: usize,
        model: MemModel,
        target: Option<&[Word]>,
        mut found: impl FnMut(&[Word]) -> bool,
    ) -> bool {
        let rules = Rules::new(threads, num_outs, model);
        let len = rules.threads_at + threads.len();
        let Explorer { states, work, cur, next } = self;
        states.clear(len);
        work.clear();
        next.clear();
        next.resize(len, 0);
        cur.clone_from(next);
        work.extend(states.insert(next));
        while let Some(top) = work.pop() {
            cur.copy_from_slice(states.get(top));
            let mut terminal = true;
            rules.steps(cur, |t, step| {
                terminal = false;
                if let (Some(target), Some((out, v))) = (target, rules.observes(cur, t, step)) {
                    if rules.writers[out] == 1 && target.get(out) != Some(&v) {
                        return;
                    }
                }
                next.copy_from_slice(cur);
                rules.apply(next, t, step);
                work.extend(states.insert(next));
            });
            if terminal && found(&cur[rules.outs_at..rules.threads_at]) {
                return true;
            }
        }
        false
    }
}

/// Enumerates the set of reachable observation vectors for `threads`
/// under `model` (see the module docs for the machine and the three rules
/// the model switches).
///
/// Each thread is a straight-line list of [`LOp`]s (no branches — litmus
/// tests are loop-free). `num_outs` sizes the observation vector; unwritten
/// slots read as 0 in the result.
///
/// # Panics
///
/// Panics if any thread exceeds 32 ops or the state space exceeds an
/// internal safety bound (1e6 states) — keep litmus tests small.
pub fn enumerate(threads: &[Vec<LOp>], num_outs: usize, model: MemModel) -> HashSet<Vec<Word>> {
    let mut outcomes = FxHashSet::default();
    Explorer::default().outcomes(threads, num_outs, model, &mut outcomes);
    outcomes.into_iter().collect()
}

/// Runs `threads` once under `model`, taking transition `pick(n)` of the
/// `n` enabled at each step. Returns the observation vector and the history
/// in the detailed machine's event shape: addresses from `litmus::loc`,
/// writers `write_id(core, seq)` with seqs as a core numbers its µops, an
/// RMW a `LoadLock` at `s` plus a `StoreUnlock` at `s+2`, and each core's
/// events in program order. Panics as [`enumerate`] does, or if `pick(n)`
/// is not below `n`.
pub fn walk(
    threads: &[Vec<LOp>],
    num_outs: usize,
    model: MemModel,
    mut pick: impl FnMut(usize) -> usize,
) -> (Vec<Word>, Execution) {
    let rules = Rules::new(threads, num_outs, model);
    let mut s = vec![0; rules.threads_at + threads.len()];
    // The µop seq of thread `t`'s op `i`: an RMW is three µops.
    let rmw = |op: &&LOp| matches!(op, LOp::FetchAdd { .. });
    let seq_of =
        |t: usize, i: usize| (1 + i + 2 * threads[t][..i].iter().filter(rmw).count()) as u64;
    let mut last_writer = vec![WRITE_ID_INIT; rules.outs_at];
    let mut x = Execution { cores: vec![Vec::new(); threads.len()], ser: Vec::new() };
    let mut enabled = Vec::new();
    loop {
        enabled.clear();
        rules.steps(&s, |t, step| enabled.push((t, step)));
        if enabled.is_empty() {
            break;
        }
        let (t, step) = enabled[pick(enabled.len())];
        rules.apply(&mut s, t, step);
        let id = |at: usize| write_id(t as u16, seq_of(t, at));
        let (i, fwd) = match step {
            Step::Drain(b) => {
                let (addr, writer) = (loc(b.addr), id(b.at));
                x.ser.push(SerEvent { addr, writer, value: b.val, epoch: 0, under_lock: false });
                last_writer[b.cell] = writer;
                continue;
            }
            Step::Exec(i, fwd) => (i, fwd),
        };
        let (seq, outs) = (seq_of(t, i), &s[rules.outs_at..rules.threads_at]);
        let events = &mut x.cores[t];
        match threads[t][i] {
            LOp::St { addr, val, ord } => {
                events.push(DataEvent::Store { seq, addr: loc(addr), value: val, ord });
            }
            LOp::Ld { addr, out, ord } => {
                let writer = fwd.map_or(last_writer[rules.cell[addr as usize]], |b| id(b.at));
                let (addr, value) = (loc(addr), outs[out as usize]);
                events.push(DataEvent::Load { seq, addr, value, writer, ord });
            }
            LOp::FetchAdd { addr, out, .. } => {
                let (c, addr) = (rules.cell[addr as usize], loc(addr));
                let (value, writer) = (outs[out as usize], write_id(t as u16, seq + 2));
                events.push(DataEvent::LoadLock { seq, addr, value, writer: last_writer[c] });
                events.push(DataEvent::StoreUnlock { seq: seq + 2, addr, value: s[c] });
                x.ser.push(SerEvent { addr, writer, value: s[c], epoch: 0, under_lock: true });
                last_writer[c] = writer;
            }
            LOp::Fence { ord } => events.push(DataEvent::Fence { seq, ord }),
        }
    }
    // A weak load may act before older ops; the core still commits in order.
    x.cores.iter_mut().for_each(|events| events.sort_by_key(DataEvent::seq));
    (s[rules.outs_at..rules.threads_at].to_vec(), x)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tso(threads: &[Vec<LOp>], num_outs: usize) -> HashSet<Vec<Word>> {
        enumerate(threads, num_outs, MemModel::Tso)
    }

    fn weak(threads: &[Vec<LOp>], num_outs: usize) -> HashSet<Vec<Word>> {
        enumerate(threads, num_outs, MemModel::Weak)
    }

    #[test]
    fn sb_litmus_allows_both_zero() {
        // The classic store-buffering shape: both loads may read 0.
        let threads = vec![vec![LOp::st(0, 1), LOp::ld(1, 0)], vec![LOp::st(1, 1), LOp::ld(0, 1)]];
        let outs = tso(&threads, 2);
        assert!(outs.contains(&vec![0, 0]), "TSO must allow 0,0 for SB");
        assert!(outs.contains(&vec![1, 1]));
        assert!(outs.contains(&vec![0, 1]));
        assert!(outs.contains(&vec![1, 0]));
    }

    #[test]
    fn sb_with_fences_forbids_both_zero() {
        let threads = vec![
            vec![LOp::st(0, 1), LOp::fence(), LOp::ld(1, 0)],
            vec![LOp::st(1, 1), LOp::fence(), LOp::ld(0, 1)],
        ];
        let outs = tso(&threads, 2);
        assert!(!outs.contains(&vec![0, 0]), "MFENCE forbids 0,0");
        assert_eq!(outs.len(), 3);
    }

    #[test]
    fn sb_with_rmws_forbids_both_zero() {
        // Paper Figure 10: an atomic RMW between the store and the load acts
        // as a fence (type-1 atomicity).
        let threads = vec![
            vec![LOp::st(0, 1), LOp::fadd(2, 1, 2), LOp::ld(1, 0)],
            vec![LOp::st(1, 1), LOp::fadd(3, 1, 3), LOp::ld(0, 1)],
        ];
        let outs = tso(&threads, 4);
        assert!(
            !outs.iter().any(|o| o[0] == 0 && o[1] == 0),
            "type-1 RMWs forbid 0,0 (Dekker, paper §3.4)"
        );
    }

    #[test]
    fn message_passing_is_ordered() {
        let threads = vec![vec![LOp::st(0, 42), LOp::st(1, 1)], vec![LOp::ld(1, 0), LOp::ld(0, 1)]];
        let outs = tso(&threads, 2);
        // flag=1 but data=0 is forbidden under TSO.
        assert!(!outs.contains(&vec![1, 0]));
        assert!(outs.contains(&vec![1, 42]));
        assert!(outs.contains(&vec![0, 0]));
    }

    #[test]
    fn load_forwards_from_own_buffer() {
        let threads = vec![vec![LOp::st(0, 9), LOp::ld(0, 0)]];
        let outs = tso(&threads, 1);
        assert_eq!(outs, HashSet::from([vec![9]]));
    }

    #[test]
    fn rmw_pair_on_same_address_serializes() {
        let threads = vec![vec![LOp::fadd(0, 1, 0)], vec![LOp::fadd(0, 1, 1)]];
        let outs = tso(&threads, 2);
        // One sees 0, the other 1 — never both 0.
        assert_eq!(outs, HashSet::from([vec![0, 1], vec![1, 0]]));
    }

    #[test]
    fn tso_enumerator_ignores_annotations() {
        // MP with a fully relaxed reader: still ordered under TSO.
        let threads = vec![vec![LOp::st(0, 42), LOp::st(1, 1)], vec![LOp::ld(1, 0), LOp::ld(0, 1)]];
        let relaxed = tso(&threads, 2);
        let annotated = vec![
            vec![LOp::st_ord(0, 42, MemOrder::Release), LOp::st_ord(1, 1, MemOrder::SeqCst)],
            vec![LOp::ld_ord(1, 0, MemOrder::Acquire), LOp::ld_ord(0, 1, MemOrder::SeqCst)],
        ];
        assert_eq!(relaxed, tso(&annotated, 2));
    }

    // ---- weak model ----

    #[test]
    fn weak_mp_relaxed_allows_stale_data() {
        let threads = vec![vec![LOp::st(0, 42), LOp::st(1, 1)], vec![LOp::ld(1, 0), LOp::ld(0, 1)]];
        let outs = weak(&threads, 2);
        assert!(outs.contains(&vec![1, 0]), "weak allows flag-without-data");
        assert!(outs.contains(&vec![1, 42]));
        assert!(outs.contains(&vec![0, 0]));
    }

    #[test]
    fn weak_mp_acquire_restores_order() {
        // Reader's first load acquire: the stale-data outcome vanishes.
        // The writer needs no release annotation (FIFO store buffer).
        let threads = vec![
            vec![LOp::st(0, 42), LOp::st(1, 1)],
            vec![LOp::ld_ord(1, 0, MemOrder::Acquire), LOp::ld(0, 1)],
        ];
        let outs = weak(&threads, 2);
        assert!(!outs.contains(&vec![1, 0]));
        assert!(outs.contains(&vec![1, 42]));
    }

    #[test]
    fn weak_mp_acquire_fence_restores_order() {
        let threads = vec![
            vec![LOp::st(0, 42), LOp::st(1, 1)],
            vec![LOp::ld(1, 0), LOp::fence_ord(MemOrder::Acquire), LOp::ld(0, 1)],
        ];
        let outs = weak(&threads, 2);
        assert!(!outs.contains(&vec![1, 0]), "any fence pins R->R");
    }

    #[test]
    fn weak_sb_relaxed_allows_both_zero_and_sc_fence_forbids() {
        let relaxed = vec![vec![LOp::st(0, 1), LOp::ld(1, 0)], vec![LOp::st(1, 1), LOp::ld(0, 1)]];
        assert!(weak(&relaxed, 2).contains(&vec![0, 0]));
        let fenced = vec![
            vec![LOp::st(0, 1), LOp::fence(), LOp::ld(1, 0)],
            vec![LOp::st(1, 1), LOp::fence(), LOp::ld(0, 1)],
        ];
        assert!(!weak(&fenced, 2).contains(&vec![0, 0]));
        // An acquire fence does NOT drain the store buffer: 0,0 survives.
        let acq = vec![
            vec![LOp::st(0, 1), LOp::fence_ord(MemOrder::Acquire), LOp::ld(1, 0)],
            vec![LOp::st(1, 1), LOp::fence_ord(MemOrder::Acquire), LOp::ld(0, 1)],
        ];
        assert!(weak(&acq, 2).contains(&vec![0, 0]));
    }

    #[test]
    fn weak_sb_sc_stores_forbid_both_zero() {
        // No fences at all: the SC annotation on the stores alone blocks
        // the younger loads until the buffer drains.
        let threads = vec![
            vec![LOp::st_ord(0, 1, MemOrder::SeqCst), LOp::ld(1, 0)],
            vec![LOp::st_ord(1, 1, MemOrder::SeqCst), LOp::ld(0, 1)],
        ];
        assert!(!weak(&threads, 2).contains(&vec![0, 0]));
    }

    #[test]
    fn weak_rmws_keep_sc_strength() {
        let threads = vec![
            vec![LOp::st(0, 1), LOp::fadd(2, 1, 2), LOp::ld(1, 0)],
            vec![LOp::st(1, 1), LOp::fadd(3, 1, 3), LOp::ld(0, 1)],
        ];
        let outs = weak(&threads, 4);
        assert!(!outs.iter().any(|o| o[0] == 0 && o[1] == 0));
    }

    #[test]
    fn weak_same_address_loads_stay_coherent() {
        // CoRR: the R->R relaxation must not let two same-address loads
        // observe coherence out of order.
        let threads = vec![vec![LOp::st(0, 1)], vec![LOp::ld(0, 0), LOp::ld(0, 1)]];
        let outs = weak(&threads, 2);
        assert!(!outs.contains(&vec![1, 0]), "CoRR forbidden under weak too");
    }

    #[test]
    fn weak_outcomes_superset_of_tso() {
        // On every shape above, the weak outcome set contains the TSO set.
        let shapes: Vec<Vec<Vec<LOp>>> = vec![
            vec![vec![LOp::st(0, 42), LOp::st(1, 1)], vec![LOp::ld(1, 0), LOp::ld(0, 1)]],
            vec![vec![LOp::st(0, 1), LOp::ld(1, 0)], vec![LOp::st(1, 1), LOp::ld(0, 1)]],
            vec![vec![LOp::st(0, 1), LOp::fadd(2, 1, 2), LOp::ld(1, 0)], vec![LOp::st(1, 1), LOp::ld(0, 1)]],
            vec![vec![LOp::ld(0, 0), LOp::st(1, 1)], vec![LOp::ld(1, 1), LOp::st(0, 1)]],
        ];
        for threads in shapes {
            let n = 4;
            assert!(tso(&threads, n).is_subset(&weak(&threads, n)), "tso ⊄ weak for {threads:?}");
        }
    }

    #[test]
    fn the_target_search_is_the_enumerations_membership() {
        // Every enumerated outcome of the pinned corpus is found. On every
        // program with at most 4 slots, of the hand-written ones and of
        // every fourth generated one (all of them take about 8 s), every
        // vector over 0..8 gets the enumeration's answer.
        let [gallery, generated] = crate::fuzz::reference_corpus();
        let mut explorer = Explorer::default();
        let mut allowed = FxHashSet::default();
        let mut target = Vec::new();
        let every_fourth = generated.iter().enumerate().map(|(i, test)| (test, i % 4 == 0));
        for (test, every_vector) in gallery.iter().map(|test| (test, true)).chain(every_fourth) {
            let (threads, n) = (&test.threads, test.num_outs());
            for model in [MemModel::Tso, MemModel::Weak] {
                explorer.outcomes(threads, n, model, &mut allowed);
                for o in &allowed {
                    assert!(explorer.allows(threads, n, model, o), "{o:?} for {threads:?}");
                }
                if n > 4 || !every_vector {
                    continue;
                }
                for code in 0..1u64 << (3 * n) {
                    target.clear();
                    target.extend((0..n).map(|k| code >> (3 * k) & 7));
                    assert_eq!(
                        explorer.allows(threads, n, model, &target),
                        allowed.contains(&target),
                        "{target:?} under {} for {threads:?}",
                        model.name()
                    );
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "at most 32 ops per thread")]
    fn the_op_bound_guards_both_models() {
        tso(&[vec![LOp::fence(); 33]], 0);
    }

    #[test]
    fn weak_load_buffering_still_forbidden() {
        // LB: loads may not hoist past *stores* (R->W preserved), so 1,1
        // stays forbidden even under weak.
        let threads = vec![vec![LOp::ld(0, 0), LOp::st(1, 1)], vec![LOp::ld(1, 1), LOp::st(0, 1)]];
        assert!(!weak(&threads, 2).contains(&vec![1, 1]));
    }
}
