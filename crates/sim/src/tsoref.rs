//! Bounded operational reference models: x86-TSO and an ARM-like weak
//! baseline.
//!
//! [`enumerate_tso_outcomes`] enumerates *every* outcome a small concurrent
//! program can produce under the operational TSO model of Sewell et al.
//! ("x86-TSO: A Rigorous and Usable Programmer's Model"): per-thread FIFO
//! store buffers, loads that forward from the local buffer, atomic RMWs
//! that execute only with an empty local buffer and read-modify-write
//! memory in one step, and MFENCE draining the buffer. Ordering
//! annotations are ignored — under TSO they are inert.
//!
//! [`enumerate_weak_outcomes`] runs the same machine with one relaxation:
//! a load may *hoist* past program-order-earlier unexecuted loads when
//! none of them is acquire-class and none targets the same address (R→R
//! is not preserved for relaxed loads). Everything else keeps its TSO
//! strength — the store buffer stays FIFO (W→W preserved; release stores
//! are architecturally free), stores and fences wait for all predecessors
//! (R→W preserved), only *SC* fences drain the buffer, SC stores block
//! younger loads while buffered, and RMWs are pinned to SeqCst strength.
//!
//! The litmus harness uses the resulting outcome sets as ground truth:
//! any outcome observed on the detailed simulator that the matching
//! enumerator cannot produce is a consistency bug.

use fa_isa::{MemOrder, Word};
use std::collections::{BTreeMap, HashSet, VecDeque};

/// One litmus operation: what the enumerators step and the litmus harness
/// compiles to guest code. Addresses and values are small integers; `out`
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

#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
struct State {
    mem: BTreeMap<u8, Word>,
    pcs: Vec<u8>,
    sbs: Vec<VecDeque<(u8, Word)>>,
    outs: Vec<Option<Word>>,
}

/// Enumerates the set of reachable observation vectors for `threads`
/// under x86-TSO.
///
/// Each thread is a straight-line list of [`LOp`]s (no branches — litmus
/// tests are loop-free). `num_outs` sizes the observation vector; unwritten
/// slots read as 0 in the result.
///
/// # Panics
///
/// Panics if the state space exceeds an internal safety bound (1e6 states) —
/// keep litmus tests small.
pub fn enumerate_tso_outcomes(threads: &[Vec<LOp>], num_outs: usize) -> HashSet<Vec<Word>> {
    let n = threads.len();
    let init = State {
        mem: BTreeMap::new(),
        pcs: vec![0; n],
        sbs: vec![VecDeque::new(); n],
        outs: vec![None; num_outs],
    };
    let mut seen: HashSet<State> = HashSet::new();
    let mut work = vec![init];
    let mut outcomes = HashSet::new();
    while let Some(st) = work.pop() {
        if !seen.insert(st.clone()) {
            continue;
        }
        assert!(seen.len() <= 1_000_000, "litmus state space too large");
        let mut terminal = true;
        #[allow(clippy::needless_range_loop)] // t indexes parallel vectors
        for t in 0..n {
            // Transition 1: drain the oldest store-buffer entry.
            if let Some(&(a, v)) = st.sbs[t].front() {
                terminal = false;
                let mut next = st.clone();
                next.sbs[t].pop_front();
                next.mem.insert(a, v);
                work.push(next);
            }
            // Transition 2: execute the next instruction.
            let pc = st.pcs[t] as usize;
            let Some(&op) = threads[t].get(pc) else { continue };
            match op {
                LOp::St { addr, val, .. } => {
                    terminal = false;
                    let mut next = st.clone();
                    next.sbs[t].push_back((addr, val));
                    next.pcs[t] += 1;
                    work.push(next);
                }
                LOp::Ld { addr, out, .. } => {
                    terminal = false;
                    let mut next = st.clone();
                    // Forward from the youngest matching SB entry, else read
                    // memory.
                    let v = st.sbs[t]
                        .iter()
                        .rev()
                        .find(|&&(a, _)| a == addr)
                        .map(|&(_, v)| v)
                        .unwrap_or_else(|| st.mem.get(&addr).copied().unwrap_or(0));
                    next.outs[out as usize] = Some(v);
                    next.pcs[t] += 1;
                    work.push(next);
                }
                LOp::FetchAdd { addr, val, out, .. } => {
                    // Atomic RMW: only with an empty local store buffer;
                    // read-modify-write is one atomic step (cache locking).
                    if st.sbs[t].is_empty() {
                        terminal = false;
                        let mut next = st.clone();
                        let old = st.mem.get(&addr).copied().unwrap_or(0);
                        next.mem.insert(addr, old.wrapping_add(val));
                        next.outs[out as usize] = Some(old);
                        next.pcs[t] += 1;
                        work.push(next);
                    } else {
                        terminal = false; // draining is always possible
                    }
                }
                LOp::Fence { .. } => {
                    if st.sbs[t].is_empty() {
                        terminal = false;
                        let mut next = st.clone();
                        next.pcs[t] += 1;
                        work.push(next);
                    } else {
                        terminal = false;
                    }
                }
            }
        }
        if terminal {
            outcomes.insert(st.outs.iter().map(|o| o.unwrap_or(0)).collect());
        }
    }
    outcomes
}

/// Per-thread state for the weak enumerator: loads may complete out of
/// program order, so a done-bitmask replaces the program counter, and
/// store-buffer entries remember whether their store was `sc`-annotated.
#[derive(Clone, PartialEq, Eq, Hash)]
struct WeakState {
    mem: BTreeMap<u8, Word>,
    done: Vec<u32>,
    sbs: Vec<VecDeque<(u8, Word, bool)>>,
    outs: Vec<Option<Word>>,
}

/// True when op `i` of `ops` may execute given the thread's done-mask:
/// either every predecessor is done, or the op is a load and every
/// unexecuted predecessor is a non-acquire load to a different address
/// (the weak model's R→R relaxation; the same-address guard preserves
/// per-location coherence).
fn weak_ready(ops: &[LOp], done: u32, i: usize) -> bool {
    let undone = |j: usize| done & (1 << j) == 0;
    if (0..i).all(|j| !undone(j)) {
        return true;
    }
    let LOp::Ld { addr, .. } = ops[i] else { return false };
    (0..i).filter(|&j| undone(j)).all(|j| match ops[j] {
        LOp::Ld { addr: a, ord, .. } => !ord.is_acquire() && a != addr,
        _ => false,
    })
}

/// Enumerates the set of reachable observation vectors for `threads`
/// under the ARM-like weak baseline model (see the module docs for the
/// exact relaxations relative to TSO).
///
/// # Panics
///
/// Panics if any thread exceeds 32 ops or the state space exceeds an
/// internal safety bound (1e6 states) — keep litmus tests small.
pub fn enumerate_weak_outcomes(threads: &[Vec<LOp>], num_outs: usize) -> HashSet<Vec<Word>> {
    let n = threads.len();
    assert!(
        threads.iter().all(|t| t.len() <= 32),
        "weak enumerator supports at most 32 ops per thread"
    );
    let init = WeakState {
        mem: BTreeMap::new(),
        done: vec![0; n],
        sbs: vec![VecDeque::new(); n],
        outs: vec![None; num_outs],
    };
    let mut seen: HashSet<WeakState> = HashSet::new();
    let mut work = vec![init];
    let mut outcomes = HashSet::new();
    while let Some(st) = work.pop() {
        if !seen.insert(st.clone()) {
            continue;
        }
        assert!(seen.len() <= 1_000_000, "litmus state space too large");
        let mut terminal = true;
        #[allow(clippy::needless_range_loop)] // t indexes parallel vectors
        for t in 0..n {
            // Transition 1: drain the oldest store-buffer entry (FIFO —
            // W→W is preserved even for relaxed stores).
            if let Some(&(a, v, _)) = st.sbs[t].front() {
                terminal = false;
                let mut next = st.clone();
                next.sbs[t].pop_front();
                next.mem.insert(a, v);
                work.push(next);
            }
            // Transition 2: execute any ready op.
            for (i, &op) in threads[t].iter().enumerate() {
                if st.done[t] & (1 << i) != 0 || !weak_ready(&threads[t], st.done[t], i) {
                    continue;
                }
                match op {
                    LOp::St { addr, val, ord } => {
                        terminal = false;
                        let mut next = st.clone();
                        next.sbs[t].push_back((addr, val, ord.is_sc()));
                        next.done[t] |= 1 << i;
                        work.push(next);
                    }
                    LOp::Ld { addr, out, .. } => {
                        // An SC store waiting in the local buffer blocks
                        // every younger load (the store-load half of its
                        // SC fence); acquire annotations on the load
                        // itself need no gate — they only restrict what
                        // *later* ops may hoist past it.
                        if st.sbs[t].iter().any(|&(_, _, sc)| sc) {
                            terminal = false; // draining is always possible
                            continue;
                        }
                        terminal = false;
                        let mut next = st.clone();
                        let v = st.sbs[t]
                            .iter()
                            .rev()
                            .find(|&&(a, _, _)| a == addr)
                            .map(|&(_, v, _)| v)
                            .unwrap_or_else(|| st.mem.get(&addr).copied().unwrap_or(0));
                        next.outs[out as usize] = Some(v);
                        next.done[t] |= 1 << i;
                        work.push(next);
                    }
                    LOp::FetchAdd { addr, val, out, .. } => {
                        // SeqCst strength in both models: empty buffer,
                        // atomic step.
                        if st.sbs[t].is_empty() {
                            terminal = false;
                            let mut next = st.clone();
                            let old = st.mem.get(&addr).copied().unwrap_or(0);
                            next.mem.insert(addr, old.wrapping_add(val));
                            next.outs[out as usize] = Some(old);
                            next.done[t] |= 1 << i;
                            work.push(next);
                        } else {
                            terminal = false;
                        }
                    }
                    LOp::Fence { ord } => {
                        // Every fence pins program order around itself
                        // (weak_ready already enforces that); only an SC
                        // fence additionally drains the store buffer.
                        if !ord.is_sc() || st.sbs[t].is_empty() {
                            terminal = false;
                            let mut next = st.clone();
                            next.done[t] |= 1 << i;
                            work.push(next);
                        } else {
                            terminal = false;
                        }
                    }
                }
            }
        }
        if terminal {
            outcomes.insert(st.outs.iter().map(|o| o.unwrap_or(0)).collect());
        }
    }
    outcomes
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sb_litmus_allows_both_zero() {
        // The classic store-buffering shape: both loads may read 0.
        let threads = vec![vec![LOp::st(0, 1), LOp::ld(1, 0)], vec![LOp::st(1, 1), LOp::ld(0, 1)]];
        let outs = enumerate_tso_outcomes(&threads, 2);
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
        let outs = enumerate_tso_outcomes(&threads, 2);
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
        let outs = enumerate_tso_outcomes(&threads, 4);
        assert!(
            !outs.iter().any(|o| o[0] == 0 && o[1] == 0),
            "type-1 RMWs forbid 0,0 (Dekker, paper §3.4)"
        );
    }

    #[test]
    fn message_passing_is_ordered() {
        let threads = vec![vec![LOp::st(0, 42), LOp::st(1, 1)], vec![LOp::ld(1, 0), LOp::ld(0, 1)]];
        let outs = enumerate_tso_outcomes(&threads, 2);
        // flag=1 but data=0 is forbidden under TSO.
        assert!(!outs.contains(&vec![1, 0]));
        assert!(outs.contains(&vec![1, 42]));
        assert!(outs.contains(&vec![0, 0]));
    }

    #[test]
    fn load_forwards_from_own_buffer() {
        let threads = vec![vec![LOp::st(0, 9), LOp::ld(0, 0)]];
        let outs = enumerate_tso_outcomes(&threads, 1);
        assert_eq!(outs, HashSet::from([vec![9]]));
    }

    #[test]
    fn rmw_pair_on_same_address_serializes() {
        let threads = vec![vec![LOp::fadd(0, 1, 0)], vec![LOp::fadd(0, 1, 1)]];
        let outs = enumerate_tso_outcomes(&threads, 2);
        // One sees 0, the other 1 — never both 0.
        assert_eq!(outs, HashSet::from([vec![0, 1], vec![1, 0]]));
    }

    #[test]
    fn tso_enumerator_ignores_annotations() {
        // MP with a fully relaxed reader: still ordered under TSO.
        let threads = vec![vec![LOp::st(0, 42), LOp::st(1, 1)], vec![LOp::ld(1, 0), LOp::ld(0, 1)]];
        let relaxed = enumerate_tso_outcomes(&threads, 2);
        let annotated = vec![
            vec![LOp::st_ord(0, 42, MemOrder::Release), LOp::st_ord(1, 1, MemOrder::SeqCst)],
            vec![LOp::ld_ord(1, 0, MemOrder::Acquire), LOp::ld_ord(0, 1, MemOrder::SeqCst)],
        ];
        assert_eq!(relaxed, enumerate_tso_outcomes(&annotated, 2));
    }

    // ---- weak enumerator ----

    #[test]
    fn weak_mp_relaxed_allows_stale_data() {
        let threads = vec![vec![LOp::st(0, 42), LOp::st(1, 1)], vec![LOp::ld(1, 0), LOp::ld(0, 1)]];
        let outs = enumerate_weak_outcomes(&threads, 2);
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
        let outs = enumerate_weak_outcomes(&threads, 2);
        assert!(!outs.contains(&vec![1, 0]));
        assert!(outs.contains(&vec![1, 42]));
    }

    #[test]
    fn weak_mp_acquire_fence_restores_order() {
        let threads = vec![
            vec![LOp::st(0, 42), LOp::st(1, 1)],
            vec![LOp::ld(1, 0), LOp::fence_ord(MemOrder::Acquire), LOp::ld(0, 1)],
        ];
        let outs = enumerate_weak_outcomes(&threads, 2);
        assert!(!outs.contains(&vec![1, 0]), "any fence pins R->R");
    }

    #[test]
    fn weak_sb_relaxed_allows_both_zero_and_sc_fence_forbids() {
        let relaxed = vec![vec![LOp::st(0, 1), LOp::ld(1, 0)], vec![LOp::st(1, 1), LOp::ld(0, 1)]];
        assert!(enumerate_weak_outcomes(&relaxed, 2).contains(&vec![0, 0]));
        let fenced = vec![
            vec![LOp::st(0, 1), LOp::fence(), LOp::ld(1, 0)],
            vec![LOp::st(1, 1), LOp::fence(), LOp::ld(0, 1)],
        ];
        assert!(!enumerate_weak_outcomes(&fenced, 2).contains(&vec![0, 0]));
        // An acquire fence does NOT drain the store buffer: 0,0 survives.
        let acq = vec![
            vec![LOp::st(0, 1), LOp::fence_ord(MemOrder::Acquire), LOp::ld(1, 0)],
            vec![LOp::st(1, 1), LOp::fence_ord(MemOrder::Acquire), LOp::ld(0, 1)],
        ];
        assert!(enumerate_weak_outcomes(&acq, 2).contains(&vec![0, 0]));
    }

    #[test]
    fn weak_sb_sc_stores_forbid_both_zero() {
        // No fences at all: the SC annotation on the stores alone blocks
        // the younger loads until the buffer drains.
        let threads = vec![
            vec![LOp::st_ord(0, 1, MemOrder::SeqCst), LOp::ld(1, 0)],
            vec![LOp::st_ord(1, 1, MemOrder::SeqCst), LOp::ld(0, 1)],
        ];
        assert!(!enumerate_weak_outcomes(&threads, 2).contains(&vec![0, 0]));
    }

    #[test]
    fn weak_rmws_keep_sc_strength() {
        let threads = vec![
            vec![LOp::st(0, 1), LOp::fadd(2, 1, 2), LOp::ld(1, 0)],
            vec![LOp::st(1, 1), LOp::fadd(3, 1, 3), LOp::ld(0, 1)],
        ];
        let outs = enumerate_weak_outcomes(&threads, 4);
        assert!(!outs.iter().any(|o| o[0] == 0 && o[1] == 0));
    }

    #[test]
    fn weak_same_address_loads_stay_coherent() {
        // CoRR: the R->R relaxation must not let two same-address loads
        // observe coherence out of order.
        let threads = vec![vec![LOp::st(0, 1)], vec![LOp::ld(0, 0), LOp::ld(0, 1)]];
        let outs = enumerate_weak_outcomes(&threads, 2);
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
            let tso = enumerate_tso_outcomes(&threads, n);
            let weak = enumerate_weak_outcomes(&threads, n);
            assert!(tso.is_subset(&weak), "tso ⊄ weak for {threads:?}");
        }
    }

    #[test]
    fn weak_load_buffering_still_forbidden() {
        // LB: loads may not hoist past *stores* (R->W preserved), so 1,1
        // stays forbidden even under weak.
        let threads = vec![vec![LOp::ld(0, 0), LOp::st(1, 1)], vec![LOp::ld(1, 1), LOp::st(0, 1)]];
        assert!(!enumerate_weak_outcomes(&threads, 2).contains(&vec![1, 1]));
    }
}
