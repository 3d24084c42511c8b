//! Acceptance tests for the fault-injection + invariant-audit layer.
//!
//! Two pillars: (1) a differential fuzzing campaign — hundreds of random
//! concurrent programs run under aggressive fault injection across atomic
//! policies, every outcome checked against the operational x86-TSO
//! enumerator with the invariant auditor sweeping every cycle; (2) strict
//! determinism — the same seed and fault configuration must reproduce
//! bit-identical final statistics, so any fuzz finding is a replayable
//! repro rather than a flake.

use fa_core::AtomicPolicy;
use fa_isa::interp::GuestMem;
use fa_isa::{Kasm, Program, Reg};
use fa_mem::{AuditConfig, ChaosConfig, NocConfig};
use fa_sim::fuzz::{fuzz_litmus, FuzzConfig};
use fa_sim::presets::tiny_machine;
use fa_sim::{CheckMode, DataEvent, Machine, SimError, WRITE_ID_INIT};

/// The issue's acceptance bar: ≥500 seeded cases across ≥2 atomic
/// policies with fault injection enabled, zero TSO violations and zero
/// audit failures.
#[test]
fn fuzz_campaign_500_cases_two_policies_clean() {
    let fcfg = FuzzConfig {
        cases: 500,
        policies: vec![AtomicPolicy::FencedBaseline, AtomicPolicy::FreeFwd],
        ..FuzzConfig::default()
    };
    assert!(fcfg.chaos.enabled, "campaign must run with fault injection on");
    let report = fuzz_litmus(&tiny_machine(), &fcfg);
    assert!(report.ok(), "{report}");
    assert_eq!(report.cases, 500);
    assert_eq!(report.runs, 1000);
    // Chaos exists to surface rare interleavings; a campaign this size
    // should observe a rich spread of distinct TSO-legal outcomes.
    assert!(report.distinct_outcomes >= 20, "{report}");
}

/// ROADMAP item 1 in one case: `FA_FUZZ_SEED=4054257868 FA_FUZZ_CASES=1
/// fa fuzz` fails at case 0 under FreeAtomics and FreeAtomics+Fwd with the
/// `rfe` cycle `Store@x [po-ww] → StoreUnlock@y [rfe] → Load@y [po] →
/// Load@x [co/fr]` — a load exempt from the invalidation squash because it
/// forwarded from its own core's store: the `LoadState::Forwarded` arm that
/// `Lsq::inval_victim` reads (`crates/core/src/lsq.rs`). Un-ignore with the
/// fix.
#[test]
#[ignore = "ROADMAP item 1: the Forwarded arm of Lsq::inval_victim"]
fn item_1_rfe_shape_is_clean_in_one_case() {
    let fcfg = FuzzConfig { cases: 1, seed: 0xF1A7_10CC, ..FuzzConfig::default() };
    let report = fuzz_litmus(&tiny_machine(), &fcfg);
    assert!(report.ok(), "{report}");
}

fn counter(iters: i64) -> Program {
    let mut k = Kasm::new();
    k.li(Reg::R1, 0x100);
    k.li(Reg::R2, 1);
    k.li(Reg::R3, 0);
    let top = k.here_label();
    k.fetch_add(Reg::R4, Reg::R1, 0, Reg::R2);
    k.addi(Reg::R3, Reg::R3, 1);
    k.blt_imm(Reg::R3, iters, top);
    k.halt();
    k.finish().unwrap()
}

/// Same seed + same fault configuration ⇒ bit-identical final stats (and
/// correct final memory), across two atomic policies. Compares the full
/// `Debug` rendering of every per-core and memory-system counter.
#[test]
fn chaos_runs_are_bit_identical_across_repeats() {
    for policy in [AtomicPolicy::FencedBaseline, AtomicPolicy::Free] {
        let run = || {
            let mut cfg = tiny_machine();
            cfg.core.policy = policy;
            cfg.mem.chaos = ChaosConfig::stress(0xDE7E_2025);
            cfg.mem.audit = AuditConfig::on();
            let mut m = Machine::new(cfg, vec![counter(40); 4], GuestMem::new(1 << 16));
            m.set_start_offsets(vec![0, 17, 31, 53]);
            let r = m.run(20_000_000).expect("quiesces under chaos");
            let total = m.guest_mem().load(0x100);
            let injected = r.mem.chaos.delayed_events;
            (r.cycles, format!("{:?}", r.per_core), format!("{:?}", r.mem), total, injected)
        };
        let a = run();
        let b = run();
        assert_eq!(a, b, "chaos run must replay bit-identically under {policy:?}");
        assert_eq!(a.3, 160, "4 cores x 40 increments under {policy:?}");
        // The fault injector must actually have fired, not idled.
        assert!(a.4 > 0, "no faults injected under {policy:?}");
    }
}

/// Fault injection stacked on crossbar contention: jitter now rides on
/// queued, bandwidth-limited links, so the two perturbation sources
/// compound. The per-cycle auditors (SWMR + inclusion) must stay clean,
/// the result must stay correct, and the replay must stay bit-identical.
#[test]
fn chaos_on_contended_crossbar_is_audited_and_deterministic() {
    for policy in [AtomicPolicy::FencedBaseline, AtomicPolicy::FreeFwd] {
        let run = || {
            let mut cfg = tiny_machine();
            cfg.core.policy = policy;
            cfg.mem.chaos = ChaosConfig::stress(0xC0_57ED);
            cfg.mem.audit = AuditConfig::on();
            cfg.mem.noc = NocConfig::contended(1);
            let mut m = Machine::new(cfg, vec![counter(40); 4], GuestMem::new(1 << 16));
            m.set_start_offsets(vec![0, 17, 31, 53]);
            let r = m.run(20_000_000).expect("quiesces under chaos + contention");
            (r.cycles, format!("{:?}", r.mem), m.guest_mem().load(0x100))
        };
        let a = run();
        let b = run();
        assert_eq!(a, b, "chaos+contention must replay bit-identically under {policy:?}");
        assert_eq!(a.2, 160, "4 cores x 40 increments under {policy:?}");
        // Contention must be real: the stats block records a queued network.
        assert!(a.1.contains("Contended"), "noc stats missing from {policy:?} run");
    }
}

/// The conformance checker must not be vacuous: corrupting a real
/// execution's history — swapping the values of two committed stores —
/// must produce a `SimError` naming the violated well-formedness axiom.
#[test]
fn injected_store_value_swap_is_caught_and_names_the_axiom() {
    let cfg = tiny_machine().with_check(CheckMode::Tso);
    let mut m = Machine::new(cfg, vec![counter(10); 2], GuestMem::new(1 << 16));
    m.run(20_000_000).expect("clean run quiesces");
    let mut x = m.execution();
    // Pick two committed RMW stores from core 0 (a counter only writes via
    // store_unlock) and swap their — necessarily distinct — values.
    let idx: Vec<usize> = x.cores[0]
        .iter()
        .enumerate()
        .filter(|(_, e)| matches!(e, DataEvent::StoreUnlock { .. }))
        .map(|(i, _)| i)
        .take(2)
        .collect();
    assert_eq!(idx.len(), 2, "counter must commit at least two stores");
    let grab = |e: &DataEvent| match e {
        DataEvent::StoreUnlock { value, .. } => *value,
        _ => unreachable!(),
    };
    let (va, vb) = (grab(&x.cores[0][idx[0]]), grab(&x.cores[0][idx[1]]));
    assert_ne!(va, vb, "counter stores strictly increasing values");
    let mut put = |i: usize, v: u64| match &mut x.cores[0][i] {
        DataEvent::StoreUnlock { value, .. } => *value = v,
        _ => unreachable!(),
    };
    put(idx[0], vb);
    put(idx[1], va);
    let err = m.check_execution(&x).expect_err("swapped store values must be rejected");
    let SimError::Tso { axiom, .. } = &err else {
        panic!("expected a TSO violation, got {err}");
    };
    assert!(
        *axiom == "rf-wf" || *axiom == "co-wf",
        "store-value swap must fail well-formedness, got {axiom}"
    );
    assert!(err.to_string().contains(axiom), "error must name the axiom: {err}");
}

/// Second injected violation: drop an RMW's atomicity window by retargeting
/// its load half one step back in the coherence order (the RMW then appears
/// to have read a value that another write overwrote before the RMW's own
/// store serialized). The checker must name `rmw-atomicity` specifically —
/// the history stays well-formed and sc-per-location clean.
#[test]
fn injected_rmw_window_drop_is_caught_and_names_rmw_atomicity() {
    let rmw_once = || {
        let mut k = Kasm::new();
        k.li(Reg::R1, 0x100);
        k.li(Reg::R2, 1);
        k.fetch_add(Reg::R4, Reg::R1, 0, Reg::R2);
        k.halt();
        k.finish().unwrap()
    };
    let two_stores = || {
        let mut k = Kasm::new();
        k.li(Reg::R1, 0x100);
        k.li(Reg::R2, 7);
        k.st(Reg::R2, Reg::R1, 0);
        k.li(Reg::R2, 9);
        k.st(Reg::R2, Reg::R1, 0);
        k.halt();
        k.finish().unwrap()
    };
    let cfg = tiny_machine().with_check(CheckMode::Tso);
    let mut m = Machine::new(cfg, vec![rmw_once(), two_stores()], GuestMem::new(1 << 16));
    // Start the RMW thread late so its load_lock reads a real write, not
    // the init value — the retargeting below needs a co-predecessor.
    m.set_start_offsets(vec![400, 0]);
    m.run(20_000_000).expect("clean run quiesces");
    let mut x = m.execution();
    // Coherence order at 0x100, from the write-serialization log.
    let co: Vec<(u64, u64)> =
        x.ser.iter().filter(|s| s.addr == 0x100).map(|s| (s.writer, s.value)).collect();
    let ll = x.cores[0]
        .iter_mut()
        .find(|e| matches!(e, DataEvent::LoadLock { addr: 0x100, .. }))
        .expect("the RMW committed a load_lock");
    let DataEvent::LoadLock { value, writer, .. } = ll else { unreachable!() };
    assert_ne!(*writer, WRITE_ID_INIT, "offset must make the RMW read a real write");
    let pos = co.iter().position(|(w, _)| w == writer).expect("reader's writer serialized");
    let (pw, pv) = if pos == 0 { (WRITE_ID_INIT, 0) } else { co[pos - 1] };
    *writer = pw;
    *value = pv;
    let err = m.check_execution(&x).expect_err("a non-adjacent RMW pair must be rejected");
    let SimError::Tso { axiom, .. } = &err else {
        panic!("expected a TSO violation, got {err}");
    };
    assert_eq!(*axiom, "rmw-atomicity", "window drop must be attributed precisely");
    assert!(err.to_string().contains("rmw-atomicity"), "error must name the axiom: {err}");
}

/// The full adversarial stack at once — fault injection, contended
/// crossbar, audit, and the axiomatic checker armed — must quiesce clean
/// with a correct result, and the checker must actually have had events to
/// chew on (non-vacuity of the in-run conformance gate).
#[test]
fn chaos_contended_checked_run_is_clean_and_non_vacuous() {
    let mut cfg = tiny_machine().with_check(CheckMode::Tso);
    cfg.core.policy = AtomicPolicy::FreeFwd;
    cfg.mem.chaos = ChaosConfig::stress(0x0DDB_A115);
    cfg.mem.audit = AuditConfig::on();
    cfg.mem.noc = NocConfig::contended(1);
    let mut m = Machine::new(cfg, vec![counter(40); 4], GuestMem::new(1 << 16));
    m.set_start_offsets(vec![0, 17, 31, 53]);
    m.run(20_000_000).expect("checked run quiesces under chaos + contention");
    assert_eq!(m.guest_mem().load(0x100), 160, "4 cores x 40 increments");
    let x = m.execution();
    assert!(x.cores.iter().all(|c| !c.is_empty()), "every core must have committed events");
    assert!(x.ser.iter().any(|s| s.under_lock), "RMW writes must appear in the ser log");
}

/// Different chaos seeds must actually perturb timing — otherwise the
/// determinism test above would pass vacuously.
#[test]
fn chaos_seed_changes_timing() {
    let run = |seed: u64| {
        let mut cfg = tiny_machine();
        cfg.mem.chaos = ChaosConfig::stress(seed);
        let mut m = Machine::new(cfg, vec![counter(40); 4], GuestMem::new(1 << 16));
        m.run(20_000_000).expect("quiesces").cycles
    };
    let cycles: Vec<u64> = (0..4).map(|s| run(0x5EED_0000 + s)).collect();
    assert!(
        cycles.windows(2).any(|w| w[0] != w[1]),
        "four different chaos seeds produced identical cycle counts: {cycles:?}"
    );
}
