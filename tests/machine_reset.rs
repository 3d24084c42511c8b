//! `Machine::reset` puts a machine that has run anything, on any number of
//! cores, into exactly the state `Machine::new` builds: one machine steps
//! through a mixed sequence of configurations, programs and guest images,
//! and every step must give the run result, guest memory, collected
//! execution and trace of a fresh machine, with the fast paths on and off.
//! A machine stopped with directory transactions in flight and requests
//! parked behind them resets as cleanly. The fuzz campaign runs every case
//! on one reset machine; its known TSO findings (ROADMAP item 1) must come
//! out of it exactly as a fresh machine per run reports them.

use fa_mem::{AuditConfig, ChaosConfig, NocConfig, SplitMix64};
use free_atomics::prelude::*;
use free_atomics::sim::fuzz::gen_test;
use free_atomics::sim::{fuzz_litmus, FuzzConfig, TraceMode};
use std::borrow::Cow;

/// One step of the sequence: what `Machine::new` is given, plus start
/// offsets.
struct Step {
    what: String,
    cfg: MachineConfig,
    programs: Vec<Program>,
    mem: GuestMem,
    offsets: Vec<u64>,
}

/// Everything a run leaves that a caller can read: the result, guest
/// memory, execution, trace, and the ticks the fast paths skipped (0 only
/// with them off).
type Seen = (String, GuestMem, Execution, String, u64);

/// Runs `m` from `offsets`; returns what it left and its memory-order
/// squashes.
fn observe(m: &mut Machine, offsets: &[u64], fast: bool) -> (Seen, u64) {
    m.set_start_offsets(offsets);
    if !fast {
        m.set_fast_paths(false);
    }
    let result = m.run(50_000_000);
    let squashes = result.as_ref().map_or(0, |r| r.aggregate().squashes_memorder);
    let trace = format!("{:?}", m.trace_events());
    let seen = (format!("{result:?}"), m.guest_mem().clone(), m.execution(), trace, m.skipped_core_ticks());
    (seen, squashes)
}

/// Asserts a reused machine left what a fresh one did.
fn assert_seen(got: &Seen, want: &Seen, what: &str) {
    assert_eq!(got.0, want.0, "{what}: run result");
    assert!(got.1 == want.1, "{what}: guest memory");
    assert_eq!(got.2, want.2, "{what}: execution");
    assert_eq!(got.3, want.3, "{what}: trace");
    assert_eq!(got.4, want.4, "{what}: ticks the fast paths skipped");
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
    k.finish().expect("a valid counter")
}

/// A loop whose store takes its address from a load the younger load to
/// the same address does not wait for: that load performs first, the
/// store's resolution squashes it, and the StoreSets train.
fn store_sets_trainer() -> (Vec<Program>, GuestMem) {
    let mut k = Kasm::new();
    k.li(Reg::R1, 0x1000);
    k.li(Reg::R5, 0x2000);
    k.li(Reg::R6, 0);
    let top = k.here_label();
    k.ld(Reg::R2, Reg::R1, 0);
    k.addi(Reg::R3, Reg::R6, 1);
    k.st(Reg::R3, Reg::R2, 0);
    k.ld(Reg::R4, Reg::R5, 0);
    k.addi(Reg::R6, Reg::R6, 1);
    k.blt_imm(Reg::R6, 20, top);
    k.halt();
    let mut mem = GuestMem::new(1 << 16);
    mem.store(0x1000, 0x2000);
    (vec![k.finish().expect("a valid loop"), counter(10)], mem)
}

/// A suite kernel at tiny scale on `cores` cores.
fn kernel(name: &str, cores: usize) -> (Vec<Program>, GuestMem) {
    let spec = suite::by_name(name).expect("a suite kernel");
    let w = spec.build(&WorkloadParams { cores, scale: 0.02, seed: 11 });
    (w.programs, w.mem)
}

/// The mixed sequence: 2, 3 and 4 cores, in an order that shrinks and
/// regrows the machine; the ideal crossbar and the contended one at every
/// sampled bandwidth; every policy; both memory models; chaos, the
/// auditor, the conformance check and the flight recorder each on and off;
/// a counter, litmus programs, a loop that trains the StoreSets and two
/// suite kernels — RBT (branchy: the predictor trains) and TATP
/// (atomic-heavy: the AQ fills).
fn sequence() -> Vec<Step> {
    let mut steps = Vec::new();
    let mut step = |what: &str, cfg: MachineConfig, (programs, mem): (Vec<Program>, GuestMem)| {
        let offsets = (0..programs.len() as u64).map(|i| i * 37 % 90).collect();
        steps.push(Step { what: what.to_string(), cfg, programs, mem, offsets });
    };
    let with = |base: MachineConfig,
                policy: AtomicPolicy,
                noc: NocConfig,
                model: MemModel,
                chaos: bool,
                audit: bool,
                check: CheckMode,
                trace: TraceMode| {
        let mut cfg = base.with_check(check).with_trace(trace);
        cfg.core.policy = policy;
        cfg.core.model = model;
        cfg.mem.noc = noc;
        if chaos {
            cfg.mem.chaos = ChaosConfig::stress(0x5EED);
        }
        if audit {
            cfg.mem.audit = AuditConfig::on();
        }
        cfg
    };
    let litmus = |t: LitmusTest| (t.to_programs(), GuestMem::new(1 << 16));
    let counters = |n: usize| (vec![counter(30); n], GuestMem::new(1 << 16));
    use AtomicPolicy::*;
    use MemModel::{Tso, Weak};
    let (off, flight) = (TraceMode::Off, TraceMode::Flight);
    let (ideal, bw1, bw2, bw4) =
        (NocConfig::default(), NocConfig::contended(1), NocConfig::contended(2), NocConfig::contended(4));
    step(
        "TATP x4",
        with(icelake_like(), FreeFwd, bw2, Tso, true, true, CheckMode::Tso, flight),
        kernel("TATP", 4),
    );
    step("counter x2", with(tiny_machine(), FencedBaseline, ideal, Tso, false, false, CheckMode::Off, off), counters(2));
    step(
        "RBT x3",
        with(icelake_like(), FencedSpec, bw4, Tso, false, true, CheckMode::Off, flight),
        kernel("RBT", 3),
    );
    step(
        "IRIW x4",
        with(tiny_machine(), Free, bw1, Weak, true, true, CheckMode::Tso, off),
        litmus(LitmusTest::iriw()),
    );
    step("SB x2", with(tiny_machine(), FreeFwd, ideal, Weak, false, false, CheckMode::Tso, flight), litmus(LitmusTest::sb()));
    step(
        "TATP x2 weak",
        with(tiny_machine(), Free, bw1, Weak, true, false, CheckMode::Tso, off),
        kernel("TATP", 2),
    );
    step("counter x3", with(icelake_like(), FencedSpec, bw4, Tso, true, true, CheckMode::Off, off), counters(3));
    step(
        "RBT x4 weak",
        with(tiny_machine(), FencedBaseline, bw2, Weak, false, false, CheckMode::Tso, flight),
        kernel("RBT", 4),
    );
    step("MP x2", with(tiny_machine(), Free, ideal, Tso, true, true, CheckMode::Tso, off), litmus(LitmusTest::mp()));
    step(
        "StoreSets x2",
        with(icelake_like(), FreeFwd, ideal, Tso, false, false, CheckMode::Tso, off),
        store_sets_trainer(),
    );
    steps
}

#[test]
fn a_reset_machine_runs_as_a_new_one() {
    let steps = sequence();
    let mut reused = Machine::default();
    let (mut memorder_squashes, mut skipped) = (0, 0);
    for fast in [true, false] {
        for s in &steps {
            let what = format!("{} fast={fast}", s.what);
            let mut fresh = Machine::new(s.cfg.clone(), s.programs.clone(), s.mem.clone());
            let (want, squashes) = observe(&mut fresh, &s.offsets, fast);
            reused.reset(&s.cfg, &s.programs, Cow::Borrowed(&s.mem));
            let (got, _) = observe(&mut reused, &s.offsets, fast);
            assert!(want.0.starts_with("Ok("), "{what}: {}", want.0);
            if s.cfg.core.trace.mode == TraceMode::Flight {
                let recorded = ["\"core0\"", "\"l1c0\"", "\"dir\""].map(|c| want.3.contains(c));
                assert_eq!(recorded, [true; 3], "{what}: the flight recorder records");
            }
            memorder_squashes += squashes;
            skipped += u64::from(fast) * want.4;
            assert_seen(&got, &want, &what);
        }
    }
    // The sequence exercised what a reset must forget, and a new machine
    // starts with the fast paths on.
    assert!(skipped > 0, "the fast paths skip ticks by default");
    assert!(memorder_squashes > 0, "a step trains the StoreSets");
}

/// Runs `m` one cycle further at a time until it stops with a directory
/// transaction in flight and requests parked behind it; returns that
/// cycle.
fn stop_mid_transaction(m: &mut Machine) -> u64 {
    for budget in 1..10_000 {
        let err = m.run(budget).expect_err("the run ends with no transaction caught");
        let diag = &err.snapshot().expect("a timeout carries a snapshot").mem;
        if !diag.busy_lines.is_empty() && diag.parked > 0 {
            return budget;
        }
    }
    panic!("no cycle with requests parked");
}

#[test]
fn a_reset_mid_transaction_runs_as_a_new_machine() {
    // Four cores increment one counter: every RMW's GetX serialises at the
    // directory and the others park. A reset that kept a transaction
    // record, a parked request or a stale free slot shows in the next
    // run's snapshot (busy lines, parked requests) or in its protocol.
    let mut cfg = tiny_machine().with_check(CheckMode::Tso).with_trace(TraceMode::Flight);
    cfg.core.policy = AtomicPolicy::FreeFwd;
    let (programs, mem) = (vec![counter(40); 4], GuestMem::new(1 << 16));
    let new = || Machine::new(cfg.clone(), programs.clone(), mem.clone());
    let mut reused = new();
    let stop = stop_mid_transaction(&mut reused);
    reused.reset(&cfg, &programs, Cow::Borrowed(&mem));
    let stopped = |m: &mut Machine| format!("{:?}", m.run(stop).expect_err("stopped"));
    assert_eq!(stopped(&mut reused), stopped(&mut new()), "stopped at cycle {stop}");
    reused.reset(&cfg, &programs, Cow::Borrowed(&mem));
    let offsets = [0; 4];
    let (want, _) = observe(&mut new(), &offsets, true);
    let (got, _) = observe(&mut reused, &offsets, true);
    assert!(want.0.starts_with("Ok("), "{}", want.0);
    assert_seen(&got, &want, "after the reset");
}

#[test]
fn the_known_tso_findings_survive_machine_reuse() {
    // Seed 103's two findings (ROADMAP item 1): the campaign's one reused
    // machine must report each exactly as a fresh machine per run does,
    // snapshot included. Each failing case is regenerated the way the
    // campaign draws it — program, start offsets, chaos seed, crossbar —
    // and replayed through `LitmusTest::run_checked`, a `Machine::new` run.
    let fcfg = FuzzConfig { cases: 1_000, seed: 103, threads: 1, ..FuzzConfig::default() };
    let base = tiny_machine();
    let report = fuzz_litmus(&base, &fcfg);
    assert_eq!(report.failures.len(), 2, "{report}");
    let mut rng = SplitMix64::new(fcfg.seed);
    let mut cases = Vec::new();
    for _ in 0..fcfg.cases {
        let test = gen_test(&mut rng, &fcfg);
        let offsets: Vec<u64> = (0..test.threads.len()).map(|_| rng.below(120)).collect();
        let chaos_seed = rng.next_u64();
        let noc = match rng.below(4) {
            0 => NocConfig::default(),
            b => NocConfig::contended(1 << (b - 1)),
        };
        cases.push((test, offsets, chaos_seed, noc));
    }
    for f in &report.failures {
        let (test, offsets, chaos_seed, noc) = &cases[f.case as usize];
        assert_eq!(test.threads, f.test.threads, "case {} regenerated", f.case);
        let mut cfg = base.clone().with_check(fcfg.check);
        cfg.core.policy = f.policy;
        cfg.core.model = fcfg.model;
        cfg.mem.chaos = ChaosConfig { seed: *chaos_seed, ..fcfg.chaos.clone() };
        cfg.mem.noc = *noc;
        cfg.mem.audit = AuditConfig::on();
        let err = test.run_checked(&cfg, offsets, fcfg.max_cycles).expect_err("the finding replays");
        let fresh = format!("case {} under {}: {err} (program {:?})", f.case, f.policy.label(), test.threads);
        assert_eq!(f.to_string(), fresh);
        assert!(fresh.contains("machine state at cycle"), "the text carries the snapshot");
    }
}
