//! Reusable kernel templates the 26 workloads are assembled from.
//!
//! Most applications compile to one [`AppSpec`]: an outer loop combining an
//! inner compute loop (loads/stores/ALU over private or shared data), an
//! optional lock burst (acquire/critical-section/release repeated
//! back-to-back — the source of the paper's store-to-load forwarding to
//! atomics), and an optional periodic barrier. The write-intensive suite
//! additionally uses the dedicated TPCC / AS / CQ / canneal / RBT templates
//! matching §5.5's descriptions.

use crate::runtime::{
    emit_barrier, emit_rand_pow2, emit_release, emit_tas_acquire, emit_ticket_acquire,
    emit_ticket_release, WaitKind, RT3, TID,
};
use fa_isa::{Kasm, Reg};

/// Barrier control line.
pub const BARRIER_BASE: i64 = 0x1000;
/// Global shared counters region.
pub const COUNTER_BASE: i64 = 0x100;
/// Lock table: lock `i` occupies the line at `LOCK_BASE + i*64`.
pub const LOCK_BASE: i64 = 0x1_0000;
/// Per-lock data: record `i` at `DATA_BASE + i*64`.
pub const DATA_BASE: i64 = 0x10_0000;
/// Per-thread private regions: thread `t` owns 32 KiB at
/// `PRIVATE_BASE + t*PRIVATE_STRIDE`.
pub const PRIVATE_BASE: i64 = 0x20_0000;
/// Bytes between consecutive threads' private regions.
pub const PRIVATE_STRIDE: i64 = 0x8000;

// Template registers (R1-R14; the runtime owns R20+).
const I: Reg = Reg::R1;
const ADDR: Reg = Reg::R2;
const VAL: Reg = Reg::R3;
const TMP: Reg = Reg::R4;
const CD: Reg = Reg::R5;
const BASE: Reg = Reg::R6;
const LOCKA: Reg = Reg::R7;
const DATAA: Reg = Reg::R8;
const J: Reg = Reg::R9;
const LOCKB: Reg = Reg::R10;
const DATAB: Reg = Reg::R11;
const X2: Reg = Reg::R12;
const K2: Reg = Reg::R13;
const BAR: Reg = Reg::R14;

/// Inner compute loop parameters.
#[derive(Clone, Copy, Debug)]
pub struct ComputeInner {
    /// Inner iterations per outer iteration.
    pub iters: i64,
    /// Loads per inner iteration.
    pub loads: usize,
    /// Stores per inner iteration.
    pub stores: usize,
    /// Extra ALU ops per inner iteration.
    pub alu: usize,
    /// Byte stride between inner iterations (≥512 defeats the prefetcher
    /// and produces the long store-buffer drains of fft/radix in Figure 1).
    pub stride: i64,
    /// Region size in bytes (power of two).
    pub region_pow2: i64,
    /// Walk the shared `DATA_BASE` region instead of the private one.
    pub shared: bool,
}

/// Which lock implementation a lock part uses.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LockKind {
    /// Test-and-set spinlock: re-acquisition forwards from the *release
    /// store* (Table 2's FbS).
    Tas,
    /// Ticket lock: re-acquisition forwards from the previous ticket
    /// `fetch_add`'s store_unlock (Table 2's FbA).
    Ticket,
}

/// How a thread picks its lock each outer iteration.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LockChoice {
    /// Uniformly random over the table (TATP/PC-style).
    Random,
    /// Mostly the same lock as last iteration (barnes/fmm/radiosity-style
    /// temporal locality; re-picks with probability 1/8).
    Sticky,
    /// Mostly the thread-own lock, 1/16 random (fluidanimate-style
    /// fine-grained, uncontended locking).
    OwnMostly,
}

/// Lock burst parameters.
#[derive(Clone, Copy, Debug)]
pub struct LockPart {
    /// Lock-table size (power of two).
    pub locks_pow2: i64,
    /// Lock flavour.
    pub kind: LockKind,
    /// Selection pattern.
    pub choice: LockChoice,
    /// Load-increment-store triples inside each critical section.
    pub cs_work: usize,
    /// Back-to-back acquire/release repetitions per outer iteration (>1
    /// creates the same-line atomic chains that forward under FreeFwd).
    pub burst: usize,
}

/// One application loop: `outer_iters` × (compute; lock burst; barrier?).
#[derive(Clone, Copy, Debug)]
pub struct AppSpec {
    /// Outer iterations per thread.
    pub outer_iters: i64,
    /// Inner compute loop, if any.
    pub compute: Option<ComputeInner>,
    /// Lock burst, if any.
    pub locks: Option<LockPart>,
    /// Barrier every `n` outer iterations.
    pub barrier_every: Option<i64>,
    /// Waiter behaviour for locks and barriers.
    pub wait: WaitKind,
}

/// Emits `dst = table + off`: the slot `off` bytes into the table at
/// guest address `table`.
fn emit_slot_addr(k: &mut Kasm, dst: Reg, table: i64, off: Reg) {
    k.li(dst, table);
    k.add(dst, dst, off);
}

/// Emits an [`AppSpec`] loop for `nthreads` threads.
pub fn emit_app_loop(k: &mut Kasm, nthreads: usize, spec: &AppSpec) {
    if let Some(c) = &spec.compute {
        assert!((c.region_pow2 as u64).is_power_of_two());
        if c.shared {
            k.li(BASE, DATA_BASE);
        } else {
            k.li(BASE, PRIVATE_BASE);
            k.li(TMP, PRIVATE_STRIDE);
            k.mul(VAL, TID, TMP);
            k.add(BASE, BASE, VAL);
        }
    }
    k.li(BAR, BARRIER_BASE);
    k.li(I, 0);
    if let Some(p) = spec.barrier_every {
        k.li(CD, p);
    }
    let top = k.here_label();

    if let Some(c) = &spec.compute {
        // Inner compute loop.
        k.li(J, 0);
        let inner = k.here_label();
        // addr = base + ((j*stride + i*8 + tid*64) & mask)
        k.li(TMP, c.stride);
        k.mul(ADDR, J, TMP);
        k.shl(TMP, I, 3);
        k.add(ADDR, ADDR, TMP);
        k.shl(TMP, TID, 6);
        k.add(ADDR, ADDR, TMP);
        let span = 8 * c.loads.max(c.stores).max(1) as i64;
        k.and(ADDR, ADDR, c.region_pow2 - span);
        k.and(ADDR, ADDR, -8);
        k.add(ADDR, BASE, ADDR);
        for l in 0..c.loads {
            k.ld(VAL, ADDR, (l as i64) * 8);
        }
        for _ in 0..c.alu {
            k.alu(fa_isa::AluOp::Mul, VAL, VAL, fa_isa::Operand::Imm(0x9E3779B1));
            k.xor(VAL, VAL, J);
        }
        for s in 0..c.stores {
            k.st(VAL, ADDR, (s as i64) * 8);
        }
        k.addi(J, J, 1);
        k.blt_imm(J, c.iters, inner);
    }

    if let Some(l) = &spec.locks {
        assert!((l.locks_pow2 as u64).is_power_of_two());
        // Pick the lock index into X2 per the pattern. X2 persists across
        // iterations for Sticky.
        match l.choice {
            LockChoice::Random => emit_rand_pow2(k, X2, l.locks_pow2),
            LockChoice::Sticky => {
                let keep = k.new_label();
                emit_rand_pow2(k, TMP, 8);
                k.bne_imm(TMP, 0, keep);
                emit_rand_pow2(k, X2, l.locks_pow2);
                k.bind(keep);
            }
            LockChoice::OwnMostly => {
                let own = k.new_label();
                let picked = k.new_label();
                emit_rand_pow2(k, TMP, 16);
                k.bne_imm(TMP, 0, own);
                emit_rand_pow2(k, X2, l.locks_pow2);
                k.jump(picked);
                k.bind(own);
                k.and(X2, TID, l.locks_pow2 - 1);
                k.bind(picked);
            }
        }
        k.shl(TMP, X2, 6);
        emit_slot_addr(k, LOCKA, LOCK_BASE, TMP);
        emit_slot_addr(k, DATAA, DATA_BASE, TMP);
        for _ in 0..l.burst.max(1) {
            match l.kind {
                LockKind::Tas => emit_tas_acquire(k, LOCKA, spec.wait),
                LockKind::Ticket => emit_ticket_acquire(k, LOCKA, spec.wait),
            }
            for w in 0..l.cs_work {
                k.ld(TMP, DATAA, (w as i64 % 6) * 8);
                k.addi(TMP, TMP, 1);
                k.st(TMP, DATAA, (w as i64 % 6) * 8);
            }
            match l.kind {
                LockKind::Tas => emit_release(k, LOCKA),
                LockKind::Ticket => emit_ticket_release(k, LOCKA),
            }
        }
    }

    if let Some(p) = spec.barrier_every {
        let skip = k.new_label();
        k.addi(CD, CD, -1);
        k.bne_imm(CD, 0, skip);
        k.li(CD, p);
        emit_barrier(k, BAR, nthreads, spec.wait);
        k.bind(skip);
    }
    k.addi(I, I, 1);
    k.blt_imm(I, spec.outer_iters, top);
    emit_barrier(k, BAR, nthreads, spec.wait);
}

/// Emits a small think loop of `iters` iterations (~4 instructions each).
pub fn emit_think(k: &mut Kasm, iters: i64) {
    if iters <= 0 {
        return;
    }
    k.li(K2, iters);
    let t = k.here_label();
    k.alu(fa_isa::AluOp::Mul, TMP, K2, fa_isa::Operand::Imm(2654435761));
    k.xor(TMP, TMP, K2);
    k.addi(K2, K2, -1);
    k.bne_imm(K2, 0, t);
}

/// TPCC-style template: each iteration acquires a contiguous run of
/// `5 + rand(0..8)` locks in ascending order, touches each record,
/// releases in reverse, then thinks (§5.5: "creates a list of locks
/// (randomized between 5 and 15), acquires them and performs some
/// computations before unlocking").
pub fn emit_tpcc_loop(k: &mut Kasm, iters: i64, locks_pow2: i64, think: i64, wait: WaitKind) {
    assert!((locks_pow2 as u64).is_power_of_two());
    k.li(I, 0);
    let top = k.here_label();
    emit_rand_pow2(k, VAL, locks_pow2 / 2);
    emit_rand_pow2(k, X2, 8);
    k.addi(X2, X2, 5);
    k.li(J, 0);
    let acq = k.here_label();
    k.add(TMP, VAL, J);
    k.shl(TMP, TMP, 6);
    emit_slot_addr(k, LOCKA, LOCK_BASE, TMP);
    emit_tas_acquire(k, LOCKA, wait);
    emit_slot_addr(k, DATAA, DATA_BASE, TMP);
    k.ld(RT3, DATAA, 0);
    k.addi(RT3, RT3, 1);
    k.st(RT3, DATAA, 0);
    k.addi(J, J, 1);
    k.blt(J, X2, acq);
    emit_think(k, think);
    let rel = k.here_label();
    k.addi(J, J, -1);
    k.add(TMP, VAL, J);
    k.shl(TMP, TMP, 6);
    emit_slot_addr(k, LOCKA, LOCK_BASE, TMP);
    emit_release(k, LOCKA);
    k.bne_imm(J, 0, rel);
    k.addi(I, I, 1);
    k.blt_imm(I, iters, top);
}

/// AS-style template: pick two random records, lock both in index order,
/// swap their values, unlock (§5.5's description of AS).
pub fn emit_swap_loop(k: &mut Kasm, iters: i64, locks_pow2: i64, think: i64, wait: WaitKind) {
    assert!((locks_pow2 as u64).is_power_of_two());
    k.li(I, 0);
    let top = k.here_label();
    emit_rand_pow2(k, VAL, locks_pow2);
    emit_rand_pow2(k, X2, locks_pow2);
    let ordered = k.new_label();
    let same = k.new_label();
    k.beq(VAL, X2, same);
    k.blt(VAL, X2, ordered);
    k.xor(VAL, VAL, X2);
    k.xor(X2, VAL, X2);
    k.xor(VAL, VAL, X2);
    k.bind(ordered);
    k.shl(TMP, VAL, 6);
    emit_slot_addr(k, LOCKA, LOCK_BASE, TMP);
    emit_slot_addr(k, DATAA, DATA_BASE, TMP);
    k.shl(TMP, X2, 6);
    emit_slot_addr(k, LOCKB, LOCK_BASE, TMP);
    emit_slot_addr(k, DATAB, DATA_BASE, TMP);
    emit_tas_acquire(k, LOCKA, wait);
    emit_tas_acquire(k, LOCKB, wait);
    k.ld(TMP, DATAA, 0);
    k.ld(J, DATAB, 0);
    k.st(J, DATAA, 0);
    k.st(TMP, DATAB, 0);
    emit_release(k, LOCKB);
    emit_release(k, LOCKA);
    let next = k.new_label();
    k.jump(next);
    k.bind(same);
    k.shl(TMP, VAL, 6);
    emit_slot_addr(k, LOCKA, LOCK_BASE, TMP);
    emit_slot_addr(k, DATAA, DATA_BASE, TMP);
    emit_tas_acquire(k, LOCKA, wait);
    k.ld(TMP, DATAA, 0);
    k.addi(TMP, TMP, 1);
    k.st(TMP, DATAA, 0);
    emit_release(k, LOCKA);
    k.bind(next);
    emit_think(k, think);
    k.addi(I, I, 1);
    k.blt_imm(I, iters, top);
}

/// CQ-style template: a two-lock Michael–Scott-style MPMC ring queue (the
/// structure of the persistency suite's concurrent queue). Each end is
/// protected by a test-and-set lock — atomics never *block*, waiting
/// happens in spin loops — and per-slot ready flags pass items between
/// producers and consumers. Each iteration enqueues then dequeues one item.
///
/// Layout: enqueue lock + tail index on the `COUNTER_BASE` line; dequeue
/// lock + head index on `COUNTER_BASE + 64`; slot `s` on
/// `DATA_BASE + s*64`.
pub fn emit_queue_loop(k: &mut Kasm, iters: i64, slots_pow2: i64, think: i64) {
    assert!((slots_pow2 as u64).is_power_of_two());
    k.li(I, 0);
    let top = k.here_label();

    // ---- Enqueue ----
    k.li(LOCKA, COUNTER_BASE);
    emit_tas_acquire(k, LOCKA, WaitKind::Spin);
    k.ld(VAL, LOCKA, 8); // tail index
    k.and(TMP, VAL, slots_pow2 - 1);
    k.shl(TMP, TMP, 6);
    emit_slot_addr(k, DATAA, DATA_BASE, TMP);
    // Wait (inside the CS, as the two-lock queue does) until the slot is
    // free, then deposit payload + ready flag and bump the tail.
    let wait_empty = k.here_label();
    k.ld(TMP, DATAA, 0);
    let empty = k.new_label();
    k.beq_imm(TMP, 0, empty);
    k.pause();
    k.jump(wait_empty);
    k.bind(empty);
    k.st(I, DATAA, 8);
    k.li(TMP, 1);
    k.st(TMP, DATAA, 0);
    k.addi(VAL, VAL, 1);
    k.st(VAL, LOCKA, 8);
    emit_release(k, LOCKA);

    // ---- Dequeue ----
    k.li(LOCKB, COUNTER_BASE + 64);
    emit_tas_acquire(k, LOCKB, WaitKind::Spin);
    k.ld(VAL, LOCKB, 8); // head index
    k.and(TMP, VAL, slots_pow2 - 1);
    k.shl(TMP, TMP, 6);
    emit_slot_addr(k, DATAB, DATA_BASE, TMP);
    let wait_full = k.here_label();
    k.ld(TMP, DATAB, 0);
    let full = k.new_label();
    k.bne_imm(TMP, 0, full);
    k.pause();
    k.jump(wait_full);
    k.bind(full);
    k.ld(J, DATAB, 8);
    k.st(Reg::R0, DATAB, 0);
    k.addi(VAL, VAL, 1);
    k.st(VAL, LOCKB, 8);
    emit_release(k, LOCKB);

    emit_think(k, think);
    k.addi(I, I, 1);
    k.blt_imm(I, iters, top);
}

/// canneal-style template: pure-atomic synchronization — each iteration
/// rotates two random elements with three `Swap` RMWs plus evaluation
/// arithmetic.
pub fn emit_atomic_swap_loop(k: &mut Kasm, iters: i64, elems_pow2: i64, think: i64) {
    assert!((elems_pow2 as u64).is_power_of_two());
    k.li(I, 0);
    let top = k.here_label();
    emit_rand_pow2(k, VAL, elems_pow2);
    emit_rand_pow2(k, X2, elems_pow2);
    k.shl(VAL, VAL, 3);
    k.shl(X2, X2, 3);
    emit_slot_addr(k, DATAA, DATA_BASE, VAL);
    emit_slot_addr(k, DATAB, DATA_BASE, X2);
    k.swap(TMP, DATAA, 0, I);
    k.swap(J, DATAB, 0, TMP);
    k.swap(TMP, DATAA, 0, J);
    k.add(VAL, TMP, J);
    k.alu(fa_isa::AluOp::Mul, VAL, VAL, fa_isa::Operand::Imm(0x5851F42D));
    emit_think(k, think);
    k.addi(I, I, 1);
    k.blt_imm(I, iters, top);
}

/// RBT-style template: a global ticket lock protecting a binary-search
/// walk with node updates — long critical sections, few atomics.
pub fn emit_tree_update_loop(k: &mut Kasm, iters: i64, depth: usize, think: i64, wait: WaitKind) {
    k.li(I, 0);
    let top = k.here_label();
    k.li(LOCKA, LOCK_BASE);
    emit_ticket_acquire(k, LOCKA, wait);
    emit_rand_pow2(k, X2, 1 << depth);
    k.li(VAL, 1);
    for level in 0..depth {
        k.shr(TMP, X2, level as i64);
        k.and(TMP, TMP, 1);
        k.shl(VAL, VAL, 1);
        k.add(VAL, VAL, TMP);
        k.and(J, VAL, (1 << depth) - 1);
        k.shl(J, J, 3);
        emit_slot_addr(k, DATAA, DATA_BASE, J);
        k.ld(TMP, DATAA, 0);
        k.addi(TMP, TMP, 1);
        k.st(TMP, DATAA, 0);
    }
    emit_ticket_release(k, LOCKA);
    emit_think(k, think);
    k.addi(I, I, 1);
    k.blt_imm(I, iters, top);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::emit_prologue;
    use fa_isa::interp::McInterp;
    use fa_isa::Program;

    fn build(n: usize, body: impl Fn(&mut Kasm, usize)) -> Vec<Program> {
        (0..n)
            .map(|tid| {
                let mut k = Kasm::new();
                emit_prologue(&mut k, tid, 11);
                body(&mut k, tid);
                k.halt();
                k.finish().expect("valid kernel")
            })
            .collect()
    }

    fn run(progs: Vec<Program>, budget: u64) -> McInterp {
        let mut m = McInterp::new(progs, crate::WORKLOAD_MEM_BYTES, 5);
        m.run(budget).expect("kernel completes in budget");
        m
    }

    #[test]
    fn app_loop_compute_only_runs() {
        let spec = AppSpec {
            outer_iters: 20,
            compute: Some(ComputeInner { iters: 10, loads: 2, stores: 1, alu: 2, stride: 64, region_pow2: 0x4000, shared: false }),
            locks: None,
            barrier_every: None,
            wait: WaitKind::Mwait,
        };
        run(build(3, |k, _| emit_app_loop(k, 3, &spec)), 2_000_000);
    }

    #[test]
    fn app_loop_lock_counts_are_exact() {
        let spec = AppSpec {
            outer_iters: 30,
            compute: None,
            locks: Some(LockPart {
                locks_pow2: 8,
                kind: LockKind::Tas,
                choice: LockChoice::Random,
                cs_work: 2,
                burst: 2,
            }),
            barrier_every: None,
            wait: WaitKind::Spin,
        };
        let m = run(build(4, |k, _| emit_app_loop(k, 4, &spec)), 10_000_000);
        // burst=2 with cs_work=2 increments offsets 0 and 8 of the chosen
        // record twice per outer iteration.
        let total: u64 = (0..8).map(|i| m.mem().load((DATA_BASE + i * 64) as u64)).sum();
        assert_eq!(total, 4 * 30 * 2);
    }

    #[test]
    fn app_loop_ticket_sticky_runs() {
        let spec = AppSpec {
            outer_iters: 25,
            compute: Some(ComputeInner { iters: 5, loads: 1, stores: 1, alu: 1, stride: 8, region_pow2: 0x1000, shared: false }),
            locks: Some(LockPart {
                locks_pow2: 16,
                kind: LockKind::Ticket,
                choice: LockChoice::Sticky,
                cs_work: 1,
                burst: 3,
            }),
            barrier_every: Some(10),
            wait: WaitKind::Spin,
        };
        let m = run(build(3, |k, _| emit_app_loop(k, 3, &spec)), 20_000_000);
        let total: u64 = (0..16).map(|i| m.mem().load((DATA_BASE + i * 64) as u64)).sum();
        assert_eq!(total, 3 * 25 * 3);
    }

    #[test]
    fn tpcc_loop_is_deadlock_free_and_counts() {
        let m = run(build(4, |k, _| emit_tpcc_loop(k, 15, 64, 5, WaitKind::Spin)), 40_000_000);
        let total: u64 = (0..64).map(|i| m.mem().load((DATA_BASE + i * 64) as u64)).sum();
        assert!((4 * 15 * 5..=4 * 15 * 12).contains(&total), "total {total}");
        for i in 0..64 {
            assert_eq!(m.mem().load((LOCK_BASE + i * 64) as u64), 0);
        }
    }

    #[test]
    fn swap_loop_preserves_multiset() {
        let progs = build(4, |k, _| emit_swap_loop(k, 30, 16, 3, WaitKind::Spin));
        let mut m = McInterp::new(progs, crate::WORKLOAD_MEM_BYTES, 5);
        for i in 0..16u64 {
            m.mem_mut().store((DATA_BASE as u64) + i * 64, 1000 + i);
        }
        m.run(40_000_000).expect("completes");
        let sum: u64 = (0..16).map(|i| m.mem().load((DATA_BASE + i * 64) as u64)).sum();
        let base_sum: u64 = (0..16).map(|i| 1000 + i).sum();
        assert!(sum >= base_sum && sum <= base_sum + 120, "sum {sum} vs {base_sum}");
        for i in 0..16 {
            assert_eq!(m.mem().load((LOCK_BASE + i * 64) as u64), 0, "lock {i} leaked");
        }
    }

    #[test]
    fn queue_loop_conserves_items() {
        let n = 4;
        let iters = 25;
        let m = run(build(n, |k, _| emit_queue_loop(k, iters, 16, 2)), 40_000_000);
        // Tail and head indices match: every enqueue was dequeued.
        assert_eq!(m.mem().load((COUNTER_BASE + 8) as u64), (n as u64) * iters as u64);
        assert_eq!(m.mem().load((COUNTER_BASE + 64 + 8) as u64), (n as u64) * iters as u64);
        // Both end locks released and the ring empty.
        assert_eq!(m.mem().load(COUNTER_BASE as u64), 0);
        assert_eq!(m.mem().load((COUNTER_BASE + 64) as u64), 0);
        for s in 0..16 {
            assert_eq!(m.mem().load((DATA_BASE + s * 64) as u64), 0, "slot {s} not empty");
        }
    }

    #[test]
    fn atomic_swap_loop_runs() {
        run(build(4, |k, _| emit_atomic_swap_loop(k, 100, 256, 2)), 10_000_000);
    }

    #[test]
    fn tree_update_loop_counts_node_touches() {
        let n = 3;
        let iters = 20;
        let depth = 6;
        let m = run(
            build(n, |k, _| emit_tree_update_loop(k, iters, depth, 4, WaitKind::Spin)),
            40_000_000,
        );
        let total: u64 =
            (0..(1 << depth)).map(|i| m.mem().load((DATA_BASE + i * 8) as u64)).sum();
        assert_eq!(total, (n as u64) * (iters as u64) * (depth as u64));
    }
}
