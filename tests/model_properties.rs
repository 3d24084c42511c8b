//! Property tests of the detailed model and its two oracles.
//!
//! Every family runs a fixed number of cases, case `n` drawing from
//! `SplitMix64::new(SEED + n)` with the family's own `SEED`. A failure
//! prints the seed, the case index and the generated program, so that one
//! line replays it. Five families:
//!
//! 1. **Golden-model equivalence** — random single-threaded programs must
//!    leave identical architectural state on the out-of-order machine and
//!    the sequential interpreter, under every atomic policy.
//! 2. **Atomicity** — random multi-core atomic mixes over a small set of
//!    shared counters must commute to the exact expected totals.
//! 3. **TSO soundness** — random litmus programs (`fuzz::gen_test`) run on
//!    the detailed machine must only ever produce outcomes the operational
//!    x86-TSO enumerator allows.
//! 4. **Oracle vs oracle** — random schedules through the reference
//!    machine (`tsoref::walk`) must yield outcomes its exhaustive mode
//!    (`tsoref::enumerate`) allows AND histories the axiomatic checker
//!    accepts; corrupting one value in the history must flip the checker
//!    to reject.
//! 5. **Oracle vs oracle, weak** — the same under the ARM-like weak
//!    baseline, against `axiom::check_model(.., Weak)`.
//!
//! A sixth test keeps families 4 and 5 from passing vacuously: on the 35
//! gallery programs, seeded walks must reach every outcome the enumerator
//! allows, under both models, and the checker must accept each history.

use free_atomics::mem::SplitMix64;
use free_atomics::prelude::*;
use free_atomics::sim::fuzz::{gen_test, FuzzConfig};
use free_atomics::sim::{axiom, tsoref, DataEvent, WRITE_ID_INIT};

const MEM: u64 = 1 << 16;

/// The streams of a family's `n` cases, each tagged with the seed and case
/// index that replay it.
fn cases(seed: u64, n: u64) -> impl Iterator<Item = (String, SplitMix64)> {
    (0..n).map(move |case| (format!("seed {seed:#x} case {case}"), SplitMix64::new(seed + case)))
}

fn any_policy(rng: &mut SplitMix64) -> AtomicPolicy {
    AtomicPolicy::ALL[rng.below(AtomicPolicy::ALL.len() as u64) as usize]
}

// ---------------------------------------------------------------- family 1

const GOLDEN_SEED: u64 = 0x601D_0001;

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

fn body_op(rng: &mut SplitMix64) -> BodyOp {
    let [a, b, c] = [(); 3].map(|_| rng.below(256) as u8);
    match rng.below(5) {
        0 => BodyOp::Alu(a, b, c, rng.below(64) as i64),
        1 => BodyOp::Load(a, rng.below(32) as i64),
        2 => BodyOp::Store(a, rng.below(32) as i64),
        3 => BodyOp::Rmw(a, b, rng.below(8) as i64),
        _ => BodyOp::SkipIfOdd(a),
    }
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

#[test]
fn random_programs_match_golden_model() {
    for (tag, mut rng) in cases(GOLDEN_SEED, 24) {
        let ops: Vec<BodyOp> = (0..1 + rng.below(17)).map(|_| body_op(&mut rng)).collect();
        let iters = 1 + rng.below(23) as i64;
        let policy = any_policy(&mut rng);
        let what = format!("{tag}: {ops:?} x{iters} under {policy:?}");
        let prog = build_program(&ops, iters);
        let mut golden = Interp::new(prog.clone(), MEM);
        golden.run(4_000_000).unwrap_or_else(|e| panic!("{what}: golden: {e:?}"));

        let mut cfg = icelake_like();
        cfg.core.policy = policy;
        let mut m = Machine::new(cfg, vec![prog], GuestMem::new(MEM));
        let r = m.run(40_000_000).unwrap_or_else(|e| panic!("{what}: detailed: {e}"));

        // Full data-region equivalence.
        for slot in 0..0x120u64 {
            let addr = 0x4000 + slot * 8;
            let (got, want) = (m.guest_mem().load(addr), golden.mem().load(addr));
            assert_eq!(got, want, "{what}: slot {slot} diverged");
        }
        assert_eq!(r.instructions(), golden.executed, "{what}: instruction count");
    }
}

// ---------------------------------------------------------------- family 2

const ATOMIC_SEED: u64 = 0xA70_0002;

#[test]
fn random_atomic_mixes_are_exact() {
    for (tag, mut rng) in cases(ATOMIC_SEED, 10) {
        let per_core_iters: Vec<i64> =
            (0..2 + rng.below(3)).map(|_| 1 + rng.below(24) as i64).collect();
        // Iteration `i` hits counter `i & (counters - 1)`, so `counters` is
        // a power of two: every counter is hit.
        let counters = [1, 2, 4][rng.below(3) as usize];
        let policy = any_policy(&mut rng);
        let what = format!(
            "{tag}: iterations {per_core_iters:?} over {counters} counters under {policy:?}"
        );
        // Each core fetch-adds its own constant (tid + 1) into the counter
        // its iteration selects; expected totals are computable exactly.
        let progs: Vec<Program> = per_core_iters
            .iter()
            .enumerate()
            .map(|(tid, &iters)| {
                let mut k = Kasm::new();
                let (a, v, i) = (Reg::R1, Reg::R2, Reg::R3);
                k.li(v, (tid + 1) as i64);
                k.li(i, 0);
                let top = k.here_label();
                for c in 0..counters {
                    let skip = k.new_label();
                    k.li(a, 0x1000 + c * 64);
                    k.and(Reg::R6, i, counters - 1);
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
        cfg.core.policy = policy;
        let mut m = Machine::new(cfg, progs, GuestMem::new(MEM));
        m.run(60_000_000).unwrap_or_else(|e| panic!("{what}: {e}"));

        for c in 0..counters {
            let expect: u64 = per_core_iters
                .iter()
                .enumerate()
                .map(|(tid, &iters)| {
                    let hits = (0..iters).filter(|i| i & (counters - 1) == c).count() as u64;
                    (tid as u64 + 1) * hits
                })
                .sum();
            let got = m.guest_mem().load((0x1000 + c * 64) as u64);
            assert_eq!(got, expect, "{what}: counter {c}");
        }
    }
}

// ---------------------------------------------------------------- family 3

const SOUND_SEED: u64 = 0x750_0003;

/// Two threads of 1–3 ops over three addresses: the shape families 3–5
/// draw from `fuzz::gen_test`.
fn two_threads() -> FuzzConfig {
    FuzzConfig { max_threads: 2, max_ops: 3, max_addrs: 3, ..FuzzConfig::default() }
}

#[test]
fn random_litmus_shapes_are_tso_sound() {
    for (tag, mut rng) in cases(SOUND_SEED, 16) {
        let test = gen_test(&mut rng, &two_threads());
        let policy = any_policy(&mut rng);
        let what = format!("{tag}: {:?} under {policy:?}", test.threads);
        let allowed = test.allowed_outcomes();
        let mut cfg = icelake_like();
        cfg.core.policy = policy;
        for offsets in [vec![], vec![rng.below(80), 0]] {
            let got = test
                .run_checked(&cfg, &offsets, 5_000_000)
                .unwrap_or_else(|e| panic!("{what}: offsets {offsets:?}: {e}"));
            assert!(
                allowed.contains(&got),
                "{what}: offsets {offsets:?}: TSO-forbidden outcome {got:?}"
            );
        }
    }
}

// ------------------------------------------------------------ families 4, 5

const TSO_WALK_SEED: u64 = 0x0A1C_0004;
const WEAK_WALK_SEED: u64 = 0x0A1C_0005;

/// Random walks through the reference machine must agree with both of its
/// oracles, and a corrupted history must trip a well-formedness axiom.
fn walks_satisfy_both_oracles(seed: u64, model: MemModel) {
    for (tag, mut rng) in cases(seed, 48) {
        let mut test = gen_test(&mut rng, &two_threads());
        // A leading plain store gives the corruption step a write to mutate.
        test.threads[0].insert(0, LOp::st(0, 7));
        let what = format!("{tag}: {:?} under {}", test.threads, model.name());
        let pick = |n: usize| rng.below(n as u64) as usize;
        let (outs, x) = tsoref::walk(&test.threads, test.num_outs(), model, pick);

        // Oracle 1: the exhaustive mode allows this outcome.
        let allowed = test.allowed_outcomes_under(model);
        assert!(
            allowed.contains(&outs),
            "{what}: the walk reached {outs:?}, which enumerate forbids"
        );
        // Oracle 2: the axiomatic checker accepts the full history.
        if let Err(v) = axiom::check_model(&x, model) {
            panic!("{what}: the checker rejected the walk's history: {v}");
        }
        // Corrupted rf/co must be rejected by a well-formedness axiom; those
        // axioms are model-independent.
        let Err(v) = axiom::check_model(&corrupt_history(&x), model) else {
            panic!("{what}: the checker accepted a corrupted history");
        };
        assert!(
            v.axiom == "rf-wf" || v.axiom == "co-wf",
            "{what}: corruption must trip a well-formedness axiom, got {}",
            v.axiom
        );
    }
}

#[test]
fn synthetic_tso_histories_satisfy_both_oracles() {
    walks_satisfy_both_oracles(TSO_WALK_SEED, MemModel::Tso);
}

#[test]
fn synthetic_weak_histories_satisfy_both_oracles() {
    walks_satisfy_both_oracles(WEAK_WALK_SEED, MemModel::Weak);
}

/// Corrupts one value in a history: bumps a read-from-store value if any
/// load read a real write, else bumps a committed store's value. Either
/// way the result desynchronizes rf/co, which the checker must catch
/// with a well-formedness axiom under *any* memory model.
fn corrupt_history(x: &Execution) -> Execution {
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

// ------------------------------------------------------------ walk coverage

const COVER_SEED: u64 = 0xC0E2_0006;

#[test]
fn walks_reach_every_outcome_the_enumerator_allows() {
    let mut gallery = LitmusTest::all();
    gallery.extend(LitmusTest::weak_gallery());
    for stripped in [false, true] {
        gallery.extend([
            LitmusTest::memlog_fence_atomic_acq_op(stripped),
            LitmusTest::memlog_atomic_fence_acq_fence(stripped),
            LitmusTest::memlog_fence_atomic_chain(stripped),
            LitmusTest::memlog_sb_sc_fence(stripped),
            LitmusTest::memlog_sb_sc_store(stripped),
            LitmusTest::memlog_mp_release_store(stripped),
        ]);
    }
    assert_eq!(gallery.len(), 35);
    let runs = gallery.iter().flat_map(|t| [MemModel::Tso, MemModel::Weak].map(|m| (t, m)));
    for ((tag, mut rng), (test, model)) in cases(COVER_SEED, 70).zip(runs) {
        let what = format!("{tag}: {} ({:?}) under {}", test.name, test.threads, model.name());
        let allowed = test.allowed_outcomes_under(model);
        let mut missing = allowed.clone();
        let mut walks = 0;
        while !missing.is_empty() && walks < 20_000 {
            let pick = |n: usize| rng.below(n as u64) as usize;
            let (outs, x) = tsoref::walk(&test.threads, test.num_outs(), model, pick);
            assert!(
                allowed.contains(&outs),
                "{what}: the walk reached {outs:?}, which enumerate forbids"
            );
            if let Err(v) = axiom::check_model(&x, model) {
                panic!("{what}: the checker rejected the history of a walk to {outs:?}: {v}");
            }
            missing.remove(&outs);
            walks += 1;
        }
        assert!(missing.is_empty(), "{what}: {walks} walks never reached {missing:?}");
    }
}
