//! Property-based validation of the detailed model.
//!
//! Five families:
//!
//! 1. **Golden-model equivalence** — random single-threaded programs must
//!    leave identical architectural state on the out-of-order machine and
//!    the sequential interpreter, under every atomic policy.
//! 2. **Atomicity** — random multi-core atomic mixes over a small set of
//!    shared counters must commute to the exact expected totals.
//! 3. **TSO soundness** — randomly generated litmus shapes run on the
//!    detailed machine must only ever produce outcomes the operational
//!    x86-TSO enumerator allows.
//! 4. **Oracle vs oracle** — synthetic executions produced by a
//!    schedule-driven operational TSO machine (explicit store buffers)
//!    must yield outcomes the enumerator allows AND histories the
//!    axiomatic checker accepts; corrupting one value in the history must
//!    flip the checker to reject.
//! 5. **Oracle vs oracle, weak** — the same agreement property under the
//!    ARM-like weak baseline: a schedule-driven weak operational machine
//!    (load hoisting, FIFO store buffers, SC-store load gates) against
//!    `tsoref::enumerate(.., Weak)` and `axiom::check_model(.., Weak)`, plus
//!    the corrupted-rf rejection case under the weak model.

use free_atomics::prelude::*;
use free_atomics::sim::{axiom, write_id, DataEvent, SerEvent, WRITE_ID_INIT};
use proptest::prelude::*;
use std::collections::{HashMap, VecDeque};

const MEM: u64 = 1 << 16;

// ---------------------------------------------------------------- family 1

/// A tiny structured program generator: a loop over random straight-line
/// bodies of ALU ops, loads, stores and RMWs on a private region.
#[derive(Clone, Debug)]
enum BodyOp {
    Alu(u8, u8, u8, i64),
    Load(u8, i64),
    Store(u8, i64),
    Rmw(u8, u8, i64),
    SkipIfOdd(u8),
}

fn reg(i: u8) -> Reg {
    Reg::new(1 + (i % 12))
}

fn alu_of(i: u8) -> AluOp {
    const OPS: [AluOp; 8] = [
        AluOp::Add,
        AluOp::Sub,
        AluOp::And,
        AluOp::Or,
        AluOp::Xor,
        AluOp::Mul,
        AluOp::Shl,
        AluOp::SltU,
    ];
    OPS[(i % 8) as usize]
}

fn body_op() -> impl Strategy<Value = BodyOp> {
    prop_oneof![
        (any::<u8>(), any::<u8>(), any::<u8>(), 0i64..64).prop_map(|(a, b, c, i)| BodyOp::Alu(a, b, c, i)),
        (any::<u8>(), 0i64..32).prop_map(|(r, s)| BodyOp::Load(r, s)),
        (any::<u8>(), 0i64..32).prop_map(|(r, s)| BodyOp::Store(r, s)),
        (any::<u8>(), any::<u8>(), 0i64..8).prop_map(|(d, s, a)| BodyOp::Rmw(d, s, a)),
        any::<u8>().prop_map(BodyOp::SkipIfOdd),
    ]
}

fn build_program(ops: &[BodyOp], loop_iters: i64) -> Program {
    let mut k = Kasm::new();
    let base = Reg::R14;
    let idx = Reg::R15;
    k.li(base, 0x4000);
    k.li(idx, 0);
    let top = k.here_label();
    for op in ops {
        match *op {
            BodyOp::Alu(a, b, c, imm) => {
                if imm % 2 == 0 {
                    k.alu(alu_of(a), reg(b), reg(c), Operand::Imm(imm));
                } else {
                    k.alu(alu_of(a), reg(b), reg(c), Operand::Reg(reg(a)));
                }
            }
            BodyOp::Load(r, slot) => {
                k.ld(reg(r), base, slot * 8);
            }
            BodyOp::Store(r, slot) => {
                k.st(reg(r), base, slot * 8);
            }
            BodyOp::Rmw(d, s, slot) => {
                // dst must differ from base (reg() never returns R14) and
                // from src (ISA validation rejects the alias).
                let d = if reg(d) == reg(s) { d.wrapping_add(1) } else { d };
                k.fetch_add(reg(d), base, 0x100 + slot * 8, reg(s));
            }
            BodyOp::SkipIfOdd(r) => {
                let skip = k.new_label();
                let tmp = Reg::R13;
                k.and(tmp, reg(r), 1);
                k.bne_imm(tmp, 0, skip);
                k.addi(reg(r), reg(r), 3);
                k.bind(skip);
            }
        }
    }
    k.addi(idx, idx, 1);
    k.blt_imm(idx, loop_iters, top);
    k.st(Reg::R1, base, 0x800);
    k.halt();
    k.finish().expect("generated programs are valid")
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, .. ProptestConfig::default() })]

    #[test]
    fn random_programs_match_golden_model(
        ops in prop::collection::vec(body_op(), 1..18),
        iters in 1i64..24,
        policy_idx in 0usize..4,
    ) {
        let prog = build_program(&ops, iters);
        let mut golden = Interp::new(prog.clone(), MEM);
        golden.run(4_000_000).expect("golden completes");

        let mut cfg = icelake_like();
        cfg.core.policy = AtomicPolicy::ALL[policy_idx];
        let mut m = Machine::new(cfg, vec![prog], GuestMem::new(MEM));
        let r = m.run(40_000_000).expect("detailed completes");

        // Full data-region equivalence.
        for slot in 0..0x120u64 {
            prop_assert_eq!(
                m.guest_mem().load(0x4000 + slot * 8),
                golden.mem().load(0x4000 + slot * 8),
                "slot {} diverged", slot
            );
        }
        prop_assert_eq!(r.instructions(), golden.executed);
    }
}

// ---------------------------------------------------------------- family 2

proptest! {
    #![proptest_config(ProptestConfig { cases: 10, .. ProptestConfig::default() })]

    #[test]
    fn random_atomic_mixes_are_exact(
        per_core_iters in prop::collection::vec(1i64..25, 2..5),
        counters in 1i64..4,
        policy_idx in 0usize..4,
        seed in any::<u64>(),
    ) {
        // Each core fetch-adds a per-core-chosen constant into round-robin
        // counters; expected totals are computable exactly.
        let n = per_core_iters.len();
        let progs: Vec<Program> = per_core_iters
            .iter()
            .enumerate()
            .map(|(tid, &iters)| {
                let mut k = Kasm::new();
                let (a, v, i) = (Reg::R1, Reg::R2, Reg::R3);
                k.li(v, (tid + 1) as i64);
                k.li(i, 0);
                let top = k.here_label();
                // counter index = i % counters (unrolled modulo via mask-free
                // subtract loop is overkill; use multiples of 8 addressing).
                for c in 0..counters {
                    let skip = k.new_label();
                    k.li(Reg::R5, counters);
                    k.alu(AluOp::Mul, Reg::R6, i, Operand::Imm(0)); // R6 = 0
                    let _ = seed;
                    k.li(a, 0x1000 + c * 64);
                    k.and(Reg::R6, i, (counters - 1).max(0));
                    k.bne_imm(Reg::R6, c, skip);
                    k.fetch_add(Reg::R4, a, 0, v);
                    k.bind(skip);
                }
                k.addi(i, i, 1);
                k.blt_imm(i, iters, top);
                k.halt();
                k.finish().unwrap()
            })
            .collect();
        let mut cfg = icelake_like();
        cfg.core.policy = AtomicPolicy::ALL[policy_idx];
        let mut m = Machine::new(cfg, progs, GuestMem::new(MEM));
        m.run(60_000_000).expect("quiesces");

        // Expected: for each counter c, sum over cores of (tid+1) * count of
        // i in [0,iters) with (i & (counters-1)) == c.
        for c in 0..counters {
            let mut expect = 0u64;
            for (tid, &iters) in per_core_iters.iter().enumerate() {
                let hits = (0..iters).filter(|i| i & (counters - 1) == c).count() as u64;
                expect += (tid as u64 + 1) * hits;
            }
            prop_assert_eq!(m.guest_mem().load((0x1000 + c * 64) as u64), expect);
        }
        let _ = n;
    }
}

// ---------------------------------------------------------------- family 3

fn litmus_op() -> impl Strategy<Value = (u8, u8, u8)> {
    // (kind, addr, value) — out slots are assigned post hoc.
    (0u8..3, 0u8..3, 1u8..4)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, .. ProptestConfig::default() })]

    #[test]
    fn random_litmus_shapes_are_tso_sound(
        t0 in prop::collection::vec(litmus_op(), 1..4),
        t1 in prop::collection::vec(litmus_op(), 1..4),
        policy_idx in 0usize..4,
        offset in 0u64..80,
    ) {
        let mut next_out = 0u8;
        let mut mk = |ops: &[(u8, u8, u8)]| -> Vec<LOp> {
            ops.iter()
                .map(|&(kind, addr, val)| match kind {
                    0 => LOp::st(addr, val as u64),
                    1 => {
                        let out = next_out;
                        next_out += 1;
                        LOp::ld(addr, out)
                    }
                    _ => {
                        let out = next_out;
                        next_out += 1;
                        LOp::fadd(addr, val as u64, out)
                    }
                })
                .collect()
        };
        let threads = vec![mk(&t0), mk(&t1)];
        let test = LitmusTest { name: "random", threads };
        let base = icelake_like();
        let offsets: [&[u64]; 2] = [&[], &[offset, 0]];
        test.verify_under(&base, AtomicPolicy::ALL[policy_idx], &offsets);
    }
}

// ---------------------------------------------------------------- family 4

/// Maps an abstract litmus location to a guest address (one line apart),
/// mirroring the harness's layout so events look like the real machine's.
fn f4_loc(a: u8) -> u64 {
    0x1000 + (a as u64) * 64
}

/// A small operational x86-TSO machine with explicit per-thread store
/// buffers, driven by an arbitrary schedule. Returns the outcome vector
/// plus the execution history in exactly the shape the detailed simulator
/// emits: per-core committed [`DataEvent`]s (RMW = `LoadLock` at seq `s`
/// plus `StoreUnlock` at `s+2`, store-buffer-forwarded loads reading
/// their own store's write-id) and the global write-serialization order.
fn run_operational_tso(
    threads: &[Vec<LOp>],
    schedule: &[u16],
    num_outs: usize,
) -> (Vec<u64>, free_atomics::sim::Execution) {
    struct Thread<'a> {
        ops: &'a [LOp],
        pc: usize,
        seq: u64,
        sb: VecDeque<(u64, u64, u64)>, // (seq, addr, value)
        events: Vec<DataEvent>,
    }
    let mut ts: Vec<Thread> = threads
        .iter()
        .map(|ops| Thread { ops, pc: 0, seq: 1, sb: VecDeque::new(), events: Vec::new() })
        .collect();
    let mut mem: HashMap<u64, u64> = HashMap::new();
    let mut last_writer: HashMap<u64, u64> = HashMap::new();
    let mut ser: Vec<SerEvent> = Vec::new();
    let mut outs = vec![0u64; num_outs];
    let mut step = 0usize;
    loop {
        // Enabled actions: (thread, is_drain). Executing a Fence or RMW
        // requires an empty store buffer (they drain first on x86);
        // draining requires a non-empty one — so some action is always
        // enabled until every thread is done and drained.
        let mut enabled: Vec<(usize, bool)> = Vec::new();
        for (i, t) in ts.iter().enumerate() {
            if t.pc < t.ops.len() {
                let needs_empty_sb =
                    matches!(t.ops[t.pc], LOp::Fence { .. } | LOp::FetchAdd { .. });
                if !needs_empty_sb || t.sb.is_empty() {
                    enabled.push((i, false));
                }
            }
            if !t.sb.is_empty() {
                enabled.push((i, true));
            }
        }
        if enabled.is_empty() {
            break;
        }
        let pick = schedule[step % schedule.len()] as usize % enabled.len();
        step += 1;
        let (i, drain) = enabled[pick];
        let core = i as u16;
        let t = &mut ts[i];
        if drain {
            let (sseq, addr, value) = t.sb.pop_front().expect("drain picked on non-empty SB");
            let wid = write_id(core, sseq);
            mem.insert(addr, value);
            last_writer.insert(addr, wid);
            ser.push(SerEvent { addr, writer: wid, value, epoch: 0, under_lock: false });
            continue;
        }
        match t.ops[t.pc] {
            LOp::St { addr, val, ord } => {
                let addr = f4_loc(addr);
                t.sb.push_back((t.seq, addr, val));
                t.events.push(DataEvent::Store { seq: t.seq, addr, value: val, ord });
                t.seq += 1;
            }
            LOp::Ld { addr, out, ord } => {
                let addr = f4_loc(addr);
                // Newest same-address store-buffer entry forwards; its
                // write-id is the rf source even before it performs.
                let (value, writer) = match t.sb.iter().rev().find(|e| e.1 == addr) {
                    Some(&(sseq, _, v)) => (v, write_id(core, sseq)),
                    None => (
                        mem.get(&addr).copied().unwrap_or(0),
                        last_writer.get(&addr).copied().unwrap_or(WRITE_ID_INIT),
                    ),
                };
                t.events.push(DataEvent::Load { seq: t.seq, addr, value, writer, ord });
                outs[out as usize] = value;
                t.seq += 1;
            }
            LOp::FetchAdd { addr, val, out, .. } => {
                let addr = f4_loc(addr);
                // SB is empty here; the read-modify-write is one atomic
                // step. The µop triple occupies seqs s, s+1, s+2.
                let old = mem.get(&addr).copied().unwrap_or(0);
                let writer = last_writer.get(&addr).copied().unwrap_or(WRITE_ID_INIT);
                let new = old.wrapping_add(val);
                let su_seq = t.seq + 2;
                let wid = write_id(core, su_seq);
                t.events.push(DataEvent::LoadLock { seq: t.seq, addr, value: old, writer });
                t.events.push(DataEvent::StoreUnlock { seq: su_seq, addr, value: new });
                mem.insert(addr, new);
                last_writer.insert(addr, wid);
                ser.push(SerEvent { addr, writer: wid, value: new, epoch: 0, under_lock: true });
                outs[out as usize] = old;
                t.seq += 3;
            }
            LOp::Fence { ord } => {
                t.events.push(DataEvent::Fence { seq: t.seq, ord });
                t.seq += 1;
            }
        }
        t.pc += 1;
    }
    let cores = ts.into_iter().map(|t| t.events).collect();
    (outs, free_atomics::sim::Execution { cores, ser })
}

fn family4_op() -> impl Strategy<Value = (u8, u8, u8, u8)> {
    // (kind: St/Ld/FetchAdd/Fence, addr, value, ordering index). Under
    // TSO the annotation is inert; under weak it selects the hardware
    // ordering strength.
    (0u8..4, 0u8..3, 1u8..4, 0u8..MemOrder::ALL.len() as u8)
}

/// Builds two litmus threads from raw generator tuples, assigning
/// observation slots in encounter order. Thread 0 is prefixed with a
/// plain store so the corruption step always has a write to mutate.
fn family4_threads(t0: &[(u8, u8, u8, u8)], t1: &[(u8, u8, u8, u8)]) -> Vec<Vec<LOp>> {
    let mut next_out = 0u8;
    let mut mk = |ops: &[(u8, u8, u8, u8)]| -> Vec<LOp> {
        ops.iter()
            .map(|&(kind, addr, val, ord)| {
                let ord = MemOrder::ALL[ord as usize];
                match kind {
                    0 => LOp::st_ord(addr, val as u64, ord),
                    1 => {
                        let out = next_out;
                        next_out += 1;
                        LOp::ld_ord(addr, out, ord)
                    }
                    2 => {
                        let out = next_out;
                        next_out += 1;
                        LOp::fadd(addr, val as u64, out)
                    }
                    _ => LOp::fence_ord(ord),
                }
            })
            .collect()
    };
    let mut first = vec![LOp::st(0, 7)];
    first.extend(mk(t0));
    vec![first, mk(t1)]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, .. ProptestConfig::default() })]

    #[test]
    fn synthetic_tso_histories_satisfy_both_oracles(
        t0 in prop::collection::vec(family4_op(), 1..4),
        t1 in prop::collection::vec(family4_op(), 1..4),
        schedule in prop::collection::vec(any::<u16>(), 8..32),
    ) {
        let threads = family4_threads(&t0, &t1);
        let test = LitmusTest { name: "family4", threads: threads.clone() };

        let (outs, x) = run_operational_tso(&threads, &schedule, test.num_outs());

        // Oracle 1: the operational enumerator allows this outcome.
        prop_assert!(
            test.allowed_outcomes().contains(&outs),
            "operational executor produced an outcome the enumerator forbids: {outs:?}"
        );
        // Oracle 2: the axiomatic checker accepts the full history.
        if let Err(v) = axiom::check(&x) {
            prop_assert!(false, "axiomatic checker rejected a TSO-valid history: {v}");
        }

        // Corrupted rf/co must be rejected by a well-formedness axiom.
        let v = axiom::check(&corrupt_history(&x)).expect_err("corrupted history must be rejected");
        prop_assert!(
            v.axiom == "rf-wf" || v.axiom == "co-wf",
            "corruption must trip a well-formedness axiom, got {}",
            v.axiom
        );
    }
}

/// Corrupts one value in a history: bumps a read-from-store value if any
/// load read a real write, else bumps a committed store's value. Either
/// way the result desynchronizes rf/co, which the checker must catch
/// with a well-formedness axiom under *any* memory model.
fn corrupt_history(x: &free_atomics::sim::Execution) -> free_atomics::sim::Execution {
    let mut bad = x.clone();
    let mut mutated = false;
    'outer: for evs in bad.cores.iter_mut() {
        for ev in evs.iter_mut() {
            match ev {
                DataEvent::Load { value, writer, .. }
                | DataEvent::LoadLock { value, writer, .. }
                    if *writer != WRITE_ID_INIT =>
                {
                    *value += 1;
                    mutated = true;
                    break 'outer;
                }
                _ => {}
            }
        }
    }
    if !mutated {
        'outer2: for evs in bad.cores.iter_mut() {
            for ev in evs.iter_mut() {
                if let DataEvent::Store { value, .. } | DataEvent::StoreUnlock { value, .. } = ev {
                    *value += 1;
                    break 'outer2;
                }
            }
        }
    }
    bad
}

// ---------------------------------------------------------------- family 5

/// A schedule-driven operational machine for the ARM-like weak baseline,
/// mirroring `tsoref::enumerate`'s weak transition system exactly: loads
/// may hoist over undone non-acquire loads to other addresses, stores
/// drain FIFO, an SC store in the local buffer blocks younger loads, SC
/// fences and RMWs require an empty buffer while weaker fences only pin
/// program order. Events are recorded per program position and emitted
/// in program order (hardware commits in order even when memory acts
/// out of order), in exactly the shape the detailed simulator emits.
fn run_operational_weak(
    threads: &[Vec<LOp>],
    schedule: &[u16],
    num_outs: usize,
) -> (Vec<u64>, free_atomics::sim::Execution) {
    struct Thread<'a> {
        ops: &'a [LOp],
        seqs: Vec<u64>,
        done: u32,
        sb: VecDeque<(u64, u64, u64, bool)>, // (seq, addr, value, sc)
        events: Vec<Vec<DataEvent>>,         // per program position
    }
    // Mirror of `tsoref::enumerate`'s readiness rule: op `i` may execute
    // when all its predecessors are done, or when it is a load and every
    // undone predecessor is a non-acquire load to a different address.
    fn ready(ops: &[LOp], done: u32, i: usize) -> bool {
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
    let mut ts: Vec<Thread> = threads
        .iter()
        .map(|ops| {
            let mut seq = 1u64;
            let seqs = ops
                .iter()
                .map(|op| {
                    let s = seq;
                    seq += if matches!(op, LOp::FetchAdd { .. }) { 3 } else { 1 };
                    s
                })
                .collect();
            Thread {
                ops,
                seqs,
                done: 0,
                sb: VecDeque::new(),
                events: vec![Vec::new(); ops.len()],
            }
        })
        .collect();
    let mut mem: HashMap<u64, u64> = HashMap::new();
    let mut last_writer: HashMap<u64, u64> = HashMap::new();
    let mut ser: Vec<SerEvent> = Vec::new();
    let mut outs = vec![0u64; num_outs];
    let mut step = 0usize;
    loop {
        // Enabled actions: (thread, Some(op index)) executes, (thread,
        // None) drains the oldest store-buffer entry.
        let mut enabled: Vec<(usize, Option<usize>)> = Vec::new();
        for (i, t) in ts.iter().enumerate() {
            for (j, op) in t.ops.iter().enumerate() {
                if t.done & (1 << j) != 0 || !ready(t.ops, t.done, j) {
                    continue;
                }
                let ok = match *op {
                    LOp::St { .. } => true,
                    // SC store pending locally: its store-load fence half
                    // holds younger loads back until it drains.
                    LOp::Ld { .. } => !t.sb.iter().any(|&(_, _, _, sc)| sc),
                    LOp::FetchAdd { .. } => t.sb.is_empty(),
                    LOp::Fence { ord } => !ord.is_sc() || t.sb.is_empty(),
                };
                if ok {
                    enabled.push((i, Some(j)));
                }
            }
            if !t.sb.is_empty() {
                enabled.push((i, None));
            }
        }
        if enabled.is_empty() {
            break;
        }
        let pick = schedule[step % schedule.len()] as usize % enabled.len();
        step += 1;
        let (i, act) = enabled[pick];
        let core = i as u16;
        let t = &mut ts[i];
        let Some(j) = act else {
            let (sseq, addr, value, _) = t.sb.pop_front().expect("drain picked on non-empty SB");
            let wid = write_id(core, sseq);
            mem.insert(addr, value);
            last_writer.insert(addr, wid);
            ser.push(SerEvent { addr, writer: wid, value, epoch: 0, under_lock: false });
            continue;
        };
        let seq = t.seqs[j];
        match t.ops[j] {
            LOp::St { addr, val, ord } => {
                let addr = f4_loc(addr);
                t.sb.push_back((seq, addr, val, ord.is_sc()));
                t.events[j].push(DataEvent::Store { seq, addr, value: val, ord });
            }
            LOp::Ld { addr, out, ord } => {
                let addr = f4_loc(addr);
                let (value, writer) = match t.sb.iter().rev().find(|e| e.1 == addr) {
                    Some(&(sseq, _, v, _)) => (v, write_id(core, sseq)),
                    None => (
                        mem.get(&addr).copied().unwrap_or(0),
                        last_writer.get(&addr).copied().unwrap_or(WRITE_ID_INIT),
                    ),
                };
                t.events[j].push(DataEvent::Load { seq, addr, value, writer, ord });
                outs[out as usize] = value;
            }
            LOp::FetchAdd { addr, val, out, .. } => {
                let addr = f4_loc(addr);
                let old = mem.get(&addr).copied().unwrap_or(0);
                let writer = last_writer.get(&addr).copied().unwrap_or(WRITE_ID_INIT);
                let new = old.wrapping_add(val);
                let su_seq = seq + 2;
                let wid = write_id(core, su_seq);
                t.events[j].push(DataEvent::LoadLock { seq, addr, value: old, writer });
                t.events[j].push(DataEvent::StoreUnlock { seq: su_seq, addr, value: new });
                mem.insert(addr, new);
                last_writer.insert(addr, wid);
                ser.push(SerEvent { addr, writer: wid, value: new, epoch: 0, under_lock: true });
                outs[out as usize] = old;
            }
            LOp::Fence { ord } => {
                t.events[j].push(DataEvent::Fence { seq, ord });
            }
        }
        t.done |= 1 << j;
    }
    let cores = ts
        .into_iter()
        .map(|t| t.events.into_iter().flatten().collect())
        .collect();
    (outs, free_atomics::sim::Execution { cores, ser })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, .. ProptestConfig::default() })]

    #[test]
    fn synthetic_weak_histories_satisfy_both_oracles(
        t0 in prop::collection::vec(family4_op(), 1..4),
        t1 in prop::collection::vec(family4_op(), 1..4),
        schedule in prop::collection::vec(any::<u16>(), 8..32),
    ) {
        let threads = family4_threads(&t0, &t1);
        let test = LitmusTest { name: "family5", threads: threads.clone() };

        let (outs, x) = run_operational_weak(&threads, &schedule, test.num_outs());

        // Oracle 1: the weak enumerator allows this outcome.
        prop_assert!(
            test.allowed_outcomes_under(MemModel::Weak).contains(&outs),
            "weak operational executor produced an outcome the enumerator forbids: {outs:?}"
        );
        // Oracle 2: the parameterized axiomatic checker accepts it.
        if let Err(v) = axiom::check_model(&x, MemModel::Weak) {
            prop_assert!(false, "axiomatic checker rejected a weak-valid history: {v}");
        }

        // Corrupted rf/co is rejected under the weak model too — the
        // well-formedness axioms are model-independent.
        let v = axiom::check_model(&corrupt_history(&x), MemModel::Weak)
            .expect_err("corrupted history must be rejected");
        prop_assert!(
            v.axiom == "rf-wf" || v.axiom == "co-wf",
            "corruption must trip a well-formedness axiom, got {}",
            v.axiom
        );
    }
}
