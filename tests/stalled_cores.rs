//! A core is not stepped before its `Core::due` cycle, the machine jumps
//! over spans in which no core can act, and a load that cannot issue is
//! not asked again until something changed: all must be invisible. Every
//! run here is made twice, fast paths on (cycles before a core's `due` are
//! credited by `Core::skip`, one at a time or a jumped span at once) and
//! off (every core steps every cycle), and must agree on the cycle count,
//! every per-core and memory statistic and the final guest memory. Debug
//! builds also re-derive each credited stall from a ROB scan and each
//! blocked load's blocker.

use fa_mem::{AuditConfig, ChaosConfig, NocConfig, ProgressConfig};
use free_atomics::prelude::*;
use free_atomics::sim::{RunFailure, SimError};

/// Runs the machine to quiescence; returns the result, the final guest
/// memory and the number of core ticks skipped as stalled.
fn run(
    cfg: &MachineConfig,
    programs: &[Program],
    mem: &GuestMem,
    fast_paths: bool,
) -> (RunResult, GuestMem, u64) {
    let mut m = Machine::new(cfg.clone(), programs.to_vec(), mem.clone());
    m.set_fast_paths(fast_paths);
    let r = m.run(300_000_000).unwrap_or_else(|e| panic!("fast_paths={fast_paths}: {e}"));
    (r, m.guest_mem().clone(), m.skipped_core_ticks())
}

/// Both loops on one machine; returns the fast run's result and its
/// skipped-tick count.
fn assert_invisible(
    what: &str,
    cfg: &MachineConfig,
    programs: &[Program],
    mem: &GuestMem,
) -> (RunResult, u64) {
    let (fast, fast_mem, skipped) = run(cfg, programs, mem, true);
    let (slow, slow_mem, never) = run(cfg, programs, mem, false);
    assert_eq!(never, 0, "{what}: the always-tick loop skipped a tick");
    assert_eq!(fast.cycles, slow.cycles, "{what}");
    assert_eq!(fast.per_core, slow.per_core, "{what}");
    assert_eq!(fast.mem, slow.mem, "{what}");
    assert!(fast_mem == slow_mem, "{what}: final guest memory differs");
    (fast, skipped)
}

#[test]
fn stalled_ticks_are_invisible_on_the_suite() {
    for name in ["TATP", "CQ", "AS", "RBT", "fft"] {
        let spec = suite::by_name(name).expect("a suite workload");
        let w = spec.build(&WorkloadParams { cores: 4, scale: 0.03, seed: 0xABCD });
        for policy in AtomicPolicy::ALL {
            for contended in [false, true] {
                let mut cfg = icelake_like();
                cfg.core.policy = policy;
                if contended {
                    cfg.mem.noc = NocConfig::contended(1);
                }
                let what = format!("{name} {policy:?} contended={contended}");
                let (_, skipped) = assert_invisible(&what, &cfg, &w.programs, &w.mem);
                assert!(skipped > 0, "{what}: no tick was skipped as stalled");
            }
        }
    }
}

/// The litmus galleries, classic and weak.
fn gallery() -> Vec<LitmusTest> {
    LitmusTest::all().into_iter().chain(LitmusTest::weak_gallery()).collect()
}

/// The tiny machine under stress chaos with the auditor armed: storms,
/// jittered grants and the lock-hold bound are all clock events here.
fn audited_chaos(policy: AtomicPolicy, noc: NocConfig, model: MemModel) -> MachineConfig {
    let mut cfg = tiny_machine();
    cfg.core.policy = policy;
    cfg.core.model = model;
    cfg.mem.noc = noc;
    cfg.mem.chaos = ChaosConfig::stress(0x57A1_1ED0);
    cfg.mem.audit = AuditConfig::on();
    cfg
}

/// Audited chaos runs jump like any other: storms are scheduled, a store
/// waiting for write permission wakes on its cache, and the landing sweep
/// audits a jumped span. Each policy must skip ticks, or its comparison
/// says nothing.
#[test]
fn stalled_ticks_are_invisible_under_chaos_with_the_auditor_on() {
    let mem = GuestMem::new(1 << 16);
    let mut storms = 0;
    let mut skipped = [0; AtomicPolicy::ALL.len()];
    for t in gallery() {
        let programs = t.to_programs();
        for (p, policy) in AtomicPolicy::ALL.into_iter().enumerate() {
            for noc in [NocConfig::default(), NocConfig::contended(2)] {
                for model in [MemModel::Tso, MemModel::Weak] {
                    let cfg = audited_chaos(policy, noc, model);
                    let what = format!("{} {policy:?} {noc:?} {model:?}", t.name);
                    let (r, s) = assert_invisible(&what, &cfg, &programs, &mem);
                    storms += r.mem.chaos.storms;
                    skipped[p] += s;
                }
            }
        }
    }
    assert!(storms > 0, "no storm fired");
    for (policy, skipped) in AtomicPolicy::ALL.into_iter().zip(skipped) {
        assert!(skipped > 0, "{policy:?}: no tick was skipped as stalled");
    }
}

const A: i64 = 0x1000;
const B: i64 = 0x2000;

/// The crossed pair of `tests/deadlock_gallery.rs`: two fetch-adds a turn,
/// on A then B.
fn rmw_pair(first: i64, second: i64, iters: i64) -> Program {
    let mut k = Kasm::new();
    k.li(Reg::R1, first);
    k.li(Reg::R2, second);
    k.li(Reg::R3, 1);
    k.li(Reg::R4, 0);
    let top = k.here_label();
    k.fetch_add(Reg::R5, Reg::R1, 0, Reg::R3);
    k.fetch_add(Reg::R5, Reg::R2, 0, Reg::R3);
    k.addi(Reg::R4, Reg::R4, 1);
    k.blt_imm(Reg::R4, iters, top);
    k.halt();
    k.finish().unwrap()
}

/// Three loads: two onto the crossed pair's lines, then a miss elsewhere.
fn three_loads() -> Program {
    let mut k = Kasm::new();
    k.li(Reg::R1, A);
    k.li(Reg::R2, B);
    k.li(Reg::R3, 0x5000);
    k.ld(Reg::R4, Reg::R1, 0);
    k.ld(Reg::R5, Reg::R2, 0);
    k.ld(Reg::R6, Reg::R3, 0);
    k.halt();
    k.finish().unwrap()
}

/// The injected wedge of `tests/progress_regressions.rs`: on the tiny
/// machine, chaos-clamped MSHRs and a third core's loads tip the crossed
/// pair into a deadlock only the watchdog breaks. (On its own the pair
/// never forms one at this timing: its watchdog count is 0.)
fn wedge(threshold: u64) -> (MachineConfig, Vec<Program>) {
    let mut cfg = tiny_machine();
    cfg.core.policy = AtomicPolicy::FreeFwd;
    cfg.core.watchdog_threshold = threshold;
    cfg.mem.chaos = ChaosConfig { enabled: true, mshr_clamp: 2, ..ChaosConfig::default() };
    (cfg, vec![rmw_pair(A, B, 50), rmw_pair(B, A, 50), three_loads()])
}

/// The watchdog counts inside a stall span and flushes at the cycle the
/// always-tick loop flushes: the stall horizon ends where it would fire.
#[test]
fn the_watchdog_fires_at_the_same_cycle_from_inside_a_stall() {
    let mem = GuestMem::new(1 << 20);
    let (cfg, programs) = wedge(400);
    let (r, skipped) = assert_invisible("wedge", &cfg, &programs, &mem);
    assert!(r.aggregate().watchdog_fires > 100, "the wedge must keep deadlocking");
    assert!(skipped > r.cycles, "deadlocked cores must stall");
    // The gallery's plain pair, whatever its watchdog does.
    let mut cfg = icelake_like();
    cfg.core.policy = AtomicPolicy::FreeFwd;
    cfg.core.watchdog_threshold = 400;
    assert_invisible("crossed pair", &cfg, &programs[..2], &mem);
}

/// `progress_regressions.rs` welds the watchdog shut with `u64::MAX`: the
/// cycle it would fire at saturates instead of overflowing, the wedged
/// cores stall until traffic that never comes, and the timeout says so.
#[test]
fn a_welded_watchdog_does_not_overflow_the_stall_horizon() {
    let (mut cfg, programs) = wedge(u64::MAX);
    cfg.mem.progress = ProgressConfig::off();
    let timeout = |fast_paths: bool| {
        let mut m = Machine::new(cfg.clone(), programs.clone(), GuestMem::new(1 << 20));
        m.set_fast_paths(fast_paths);
        match m.run(30_000) {
            Err(SimError::Run { cause: RunFailure::Timeout { .. }, snapshot }) => {
                (snapshot, m.skipped_core_ticks())
            }
            other => panic!("fast_paths={fast_paths}: expected a timeout, got {other:?}"),
        }
    };
    let (fast, skipped) = timeout(true);
    let (slow, _) = timeout(false);
    assert!(skipped > 30_000, "two wedged cores must stall, skipped {skipped}");
    assert_eq!(fast.mem, slow.mem);
    assert_eq!(fast.cores, slow.cores);
    assert!(fast.cores[0].wd_counter > 20_000, "the watchdog counts through the stall");
    let text = fast.cores[0].to_string();
    assert!(text.contains("stalled until traffic"), "got: {text}");
}

/// Eight cores on the one-flit-per-cycle crossbar: jumped spans meet the
/// cores' link backpressure horizons, and must end there for the leaf
/// credited in bulk to be the one every cycle of the span takes. (Checked
/// on a scratch loop: with the horizon ignored, AS's CPI stacks move under
/// both policies at this size.)
#[test]
fn jumps_end_where_link_backpressure_does() {
    for name in ["RBT", "AS"] {
        let spec = suite::by_name(name).expect("a suite workload");
        let w = spec.build(&WorkloadParams { cores: 8, scale: 0.01, seed: 7 });
        for policy in [AtomicPolicy::FencedBaseline, AtomicPolicy::FreeFwd] {
            let mut cfg = icelake_like();
            cfg.core.policy = policy;
            cfg.mem.noc = NocConfig::contended(1);
            assert_invisible(&format!("{name} {policy:?}"), &cfg, &w.programs, &w.mem);
        }
    }
}

/// Private caches of two sets by two ways: a fill can find every way of its
/// set locked (AS's swaps do here) and wait for the unlock that frees one.
/// The machine jumps across those waits; the fill must still land on the
/// tick after the unlock, as in the always-tick loop.
#[test]
fn fills_stalled_on_locked_sets_wake_at_the_same_tick() {
    let mut stalled = 0;
    for name in ["TATP", "CQ", "AS"] {
        let spec = suite::by_name(name).expect("a suite workload");
        let w = spec.build(&WorkloadParams { cores: 4, scale: 0.03, seed: 0xABCD });
        for policy in [AtomicPolicy::Free, AtomicPolicy::FreeFwd] {
            let mut cfg = tiny_machine();
            cfg.core.policy = policy;
            (cfg.mem.l1_sets, cfg.mem.l1_ways, cfg.mem.l2_sets, cfg.mem.l2_ways) = (2, 2, 2, 2);
            let what = format!("{name} {policy:?}");
            let (r, _) = assert_invisible(&what, &cfg, &w.programs, &w.mem);
            stalled += r.mem.cores.iter().map(|c| c.fill_stalled_all_locked).sum::<u64>();
        }
    }
    assert!(stalled > 0, "no fill stalled on a locked set");
}

/// One-way caches of two sets: a core's RMW on `A` locks set 0 while an
/// older two-miss pointer chase holds up its commit, so its younger load of
/// a second set-0 line finds the set locked and its fill stalls. The
/// watchdog then squashes the RMW, which unlocks `A`, and the core waits
/// out its redirect penalty with nothing else due and one delivery in
/// flight, long after: only the stalled-fill retry the unlock made due
/// (`MemorySystem::fast_forwardable`) keeps the machine from jumping.
#[test]
fn a_fill_retry_an_unlock_made_due_stops_a_jump() {
    let (d, e, c) = (0x1040, 0x10C0, 0x1080);
    let mut k = Kasm::new();
    k.li(Reg::R1, d).li(Reg::R5, A).li(Reg::R6, c).li(Reg::R3, 1);
    k.ld(Reg::R2, Reg::R1, 0).ld(Reg::R2, Reg::R2, 0);
    k.fetch_add(Reg::R4, Reg::R5, 0, Reg::R3);
    k.ld(Reg::R7, Reg::R6, 0);
    k.halt();
    let programs = vec![k.finish().unwrap()];
    let mut mem = GuestMem::new(1 << 16);
    mem.store(d as u64, e);
    for policy in [AtomicPolicy::Free, AtomicPolicy::FreeFwd] {
        let mut cfg = icelake_like();
        cfg.core.policy = policy;
        cfg.core.watchdog_threshold = 50;
        (cfg.mem.l1_sets, cfg.mem.l1_ways, cfg.mem.l2_sets, cfg.mem.l2_ways) = (2, 1, 2, 1);
        let (r, _) = assert_invisible(&format!("{policy:?}"), &cfg, &programs, &mem);
        assert!(r.per_core[0].watchdog_fires > 0, "{policy:?}: the watchdog never fired");
        assert!(r.mem.cores[0].fill_stalled_all_locked > 0, "{policy:?}: no fill stalled");
    }
}

/// One load 50 000 cycles from memory: the core stalls with nothing due,
/// so the jump's only bound is the `core-commit` deadline, and the report
/// must come from the cycle, and the machine, the always-tick loop has —
/// whether the stall starts on a tick that commits nothing (the load's
/// address generation follows its base's commit) or on the tick an older
/// multiply chain commits, after the load has gone to memory.
#[test]
fn core_commit_trips_at_the_same_cycle_from_inside_a_jump() {
    let mut k = Kasm::new();
    k.li(Reg::R1, 0x5000);
    k.ld(Reg::R2, Reg::R1, 0);
    k.halt();
    let after_agen = k.finish().unwrap();
    let mut k = Kasm::new();
    k.li(Reg::R1, 0x5000);
    k.li(Reg::R3, 3);
    for _ in 0..3 {
        k.mul(Reg::R3, Reg::R3, Reg::R3);
    }
    k.ld(Reg::R2, Reg::R1, 0);
    k.halt();
    let on_a_commit = k.finish().unwrap();
    let mut cfg = icelake_like();
    cfg.mem.mem_lat = 50_000;
    cfg.mem.progress.stall_cycles = 1_000;
    for (what, program) in [("after agen", after_agen), ("on a commit", on_a_commit)] {
        let trip = |fast_paths: bool| {
            let mut m = Machine::new(cfg.clone(), vec![program.clone()], GuestMem::new(1 << 16));
            m.set_fast_paths(fast_paths);
            match m.run(1_000_000) {
                Err(SimError::Run { cause: RunFailure::NoProgress(r), snapshot })
                    if r.site == "core-commit" =>
                {
                    (r.observed, snapshot, m.skipped_core_ticks())
                }
                other => {
                    panic!("{what}, fast_paths={fast_paths}: expected core-commit, got {other:?}")
                }
            }
        };
        let (observed, fast, skipped) = trip(true);
        let (slow_observed, slow, _) = trip(false);
        assert_eq!(observed, 1_001, "{what}");
        assert_eq!(observed, slow_observed, "{what}");
        assert!(skipped >= 1_000, "{what}: the stalled load's cycles must be credited: {skipped}");
        assert_eq!(fast.cycle, slow.cycle, "{what}");
        assert_eq!(fast.cores, slow.cores, "{what}");
        assert_eq!(fast.mem, slow.mem, "{what}");
    }
}

/// The `core-commit` report's snapshot settles the cores the loop left
/// alone. Core 0's RMW on `A` performs and holds its lock behind a pointer
/// chase whose second load waits on a line core 1 holds in M, a transfer
/// twice as long as a fill from memory: the watchdog counts through the
/// jumped span in which the core trips, and the snapshot's count must be
/// the always-tick loop's.
#[test]
fn a_core_commit_snapshot_counts_the_watchdog_through_a_jump() {
    let (d, e) = (0x5000, 0x6000);
    let mut k = Kasm::new();
    k.li(Reg::R1, d).li(Reg::R5, A).li(Reg::R3, 1);
    k.ld(Reg::R2, Reg::R1, 0).ld(Reg::R2, Reg::R2, 0);
    k.fetch_add(Reg::R4, Reg::R5, 0, Reg::R3);
    k.halt();
    let chase = k.finish().unwrap();
    let mut k = Kasm::new();
    k.li(Reg::R1, e).li(Reg::R2, 1).st(Reg::R2, Reg::R1, 0).halt();
    let owner = k.finish().unwrap();
    let mut mem = GuestMem::new(1 << 16);
    mem.store(d as u64, e as u64);
    let mut cfg = icelake_like();
    cfg.core.policy = AtomicPolicy::Free;
    (cfg.mem.net_lat, cfg.mem.mem_lat) = (400, 10);
    cfg.mem.progress.stall_cycles = 1_000;
    let trip = |fast_paths: bool| {
        let mut m = Machine::new(cfg.clone(), vec![chase.clone(), owner.clone()], mem.clone());
        m.set_start_offsets(vec![1_000, 0]);
        m.set_fast_paths(fast_paths);
        match m.run(1_000_000) {
            Err(SimError::Run { cause: RunFailure::NoProgress(r), snapshot })
                if r.site == "core-commit" =>
            {
                (r.observed, snapshot, m.skipped_core_ticks())
            }
            other => panic!("fast_paths={fast_paths}: expected core-commit, got {other:?}"),
        }
    };
    let (observed, fast, skipped) = trip(true);
    let (slow_observed, slow, _) = trip(false);
    assert_eq!(observed, slow_observed);
    assert!(skipped >= 1_000, "the chase's cycles must be credited: {skipped}");
    assert!(fast.cores[0].wd_counter >= 900, "the lock is held: {}", fast.cores[0]);
    assert_eq!(fast.cycle, slow.cycle);
    assert_eq!(fast.cores, slow.cores);
    assert_eq!(fast.mem, slow.mem);
}

/// A lock held across a jumped span ages without a sweep seeing each cycle:
/// the jump must end before the cycle it trips the auditor's hold bound,
/// so the violation comes from the cycle, and with the `held_for`, the
/// always-tick loop reports. Bounds short enough that legal atomics under
/// stress chaos trip them.
#[test]
fn lock_leak_trips_at_the_same_cycle_from_inside_a_jump() {
    let mut trips = 0;
    for t in gallery() {
        let programs = t.to_programs();
        for policy in AtomicPolicy::ALL {
            for bound in [5, 10, 20, 40] {
                let mut cfg = audited_chaos(policy, NocConfig::default(), MemModel::Tso);
                cfg.mem.audit.max_lock_hold = bound;
                let what = format!("{} {policy:?} max_lock_hold={bound}", t.name);
                let run = |fast_paths: bool| {
                    let mut m = Machine::new(cfg.clone(), programs.clone(), GuestMem::new(1 << 16));
                    m.set_fast_paths(fast_paths);
                    match m.run(1_000_000) {
                        Ok(r) => Ok((r.cycles, r.per_core, r.mem)),
                        Err(e @ SimError::Run { cause: RunFailure::Audit(_), .. }) => Err(e),
                        Err(e) => panic!("{what}, fast_paths={fast_paths}: {e}"),
                    }
                };
                let fast = run(true);
                let slow = run(false);
                if let (Err(f), Err(s)) = (&fast, &slow) {
                    assert_eq!(f.to_string(), s.to_string(), "{what}");
                    trips += 1;
                }
                assert_eq!(fast, slow, "{what}");
            }
        }
    }
    assert!(trips > 0, "no run tripped the lock-hold bound");
}

/// A count that repeats exactly, so it can gate. Asking every blocked load
/// again each cycle, the parent commit made 117 697 issue attempts for this
/// cell's 15 646 issues (counted on a scratch build): 102 051 failures, 6.5
/// an issue. A load is now asked again only after an event that can have
/// freed it, which leaves 1 117 — cache and monitor retries, refused
/// `load_lock` forwarding, and loads an event moved from one blocker to the
/// next. The bound is one failure an issue.
#[test]
fn failed_issue_attempts_stay_below_issues() {
    let spec = suite::by_name("TATP").expect("a suite workload");
    let w = spec.build(&WorkloadParams { cores: 4, scale: 0.03, seed: 0xABCD });
    let mut cfg = icelake_like();
    cfg.core.policy = AtomicPolicy::FencedBaseline;
    let mut mem = MemorySystem::new(cfg.mem.clone(), w.programs.len(), w.mem.clone());
    let mut cores: Vec<Core> = w
        .programs
        .iter()
        .enumerate()
        .map(|(i, p)| Core::new(CoreId(i as u16), cfg.core.clone(), p.clone(), w.mem.size()))
        .collect();
    let mut now = 0;
    while !cores.iter().all(|c| c.halted() && c.sb_len() == 0) {
        now += 1;
        assert!(now < 50_000_000, "TATP did not quiesce");
        mem.tick();
        for c in cores.iter_mut() {
            c.tick(now, &mut mem);
        }
    }
    let (attempts, issues) =
        cores.iter().map(Core::issue_attempts).fold((0, 0), |a, c| (a.0 + c.0, a.1 + c.1));
    assert!(issues > 10_000, "TATP issued only {issues} micro-ops");
    assert!(
        attempts - issues <= issues,
        "{} failed attempts for {issues} issues",
        attempts - issues
    );
}

/// Core 1 stores to `A` and halts; core 0 starts once the line sits in core
/// 1's cache in M, stores to `A` and then runs `rest`: its store's GetX
/// waits for the invalidation of core 1's copy, and the head behind it
/// waits with it.
fn parked_store_then(rest: impl FnOnce(&mut Kasm)) -> Vec<Program> {
    let mut k = Kasm::new();
    k.li(Reg::R1, A).li(Reg::R2, 1).st(Reg::R2, Reg::R1, 0).halt();
    let owner = k.finish().unwrap();
    let mut k = Kasm::new();
    k.li(Reg::R1, A).li(Reg::R2, 2).st(Reg::R2, Reg::R1, 0);
    rest(&mut k);
    k.halt();
    vec![k.finish().unwrap(), owner]
}

/// A done RMW (store→RMW order; here its `load_lock` took its value from
/// the parked store) or an MFENCE at the ROB head, behind a store buffer
/// whose head waits for its cache, cannot retire: the core is stalled, so
/// those cycles are credited, not stepped, and charged to the drain leaf.
#[test]
fn a_head_held_behind_a_parked_store_buffer_is_credited() {
    use free_atomics::sim::CpiLeaf;
    let mem = GuestMem::new(1 << 16);
    let rmw = parked_store_then(|k| {
        k.li(Reg::R3, 1).fetch_add(Reg::R4, Reg::R1, 0, Reg::R3);
    });
    let fence = parked_store_then(|k| {
        k.fence();
    });
    for (what, programs, leaf, policies) in [
        ("RMW", rmw, CpiLeaf::SbDrain, &[AtomicPolicy::FreeFwd][..]),
        ("MFENCE", fence, CpiLeaf::FenceDrain, &AtomicPolicy::ALL[..]),
    ] {
        for &policy in policies {
            let mut cfg = icelake_like();
            cfg.core.policy = policy;
            cfg.mem.net_lat = 200;
            let run = |fast_paths: bool| {
                let mut m = Machine::new(cfg.clone(), programs.clone(), mem.clone());
                m.set_start_offsets(vec![2_000, 0]);
                m.set_fast_paths(fast_paths);
                let r = m.run(1_000_000).unwrap_or_else(|e| panic!("{what} {policy:?}: {e}"));
                (r, m.skipped_core_ticks())
            };
            let (fast, skipped) = run(true);
            let (slow, _) = run(false);
            assert_eq!(fast.cycles, slow.cycles, "{what} {policy:?}");
            assert_eq!(fast.per_core, slow.per_core, "{what} {policy:?}");
            assert_eq!(fast.mem, slow.mem, "{what} {policy:?}");
            let drain = fast.per_core[0].cpi.get(leaf);
            assert!(drain > 400, "{what} {policy:?}: {leaf:?} charged only {drain} cycles");
            assert!(skipped >= drain, "{what} {policy:?}: {skipped} credited of {drain} waiting");
        }
    }
}

/// Ticks credit the cores they leave alone only when they next visit them
/// or the machine settles: `tick()` a while, then `run()`, must give what
/// `run()` alone gives, with the fast paths on and off. Bare ticks do not
/// audit, so the auditor's own statistic counts only the run's cycles.
#[test]
fn ticks_then_a_run_match_a_run() {
    let ticked_then_run = |cfg: &MachineConfig, programs: &[Program], mem: &GuestMem, ticks| {
        let [fast, slow] = [true, false].map(|fast_paths| {
            let mut m = Machine::new(cfg.clone(), programs.to_vec(), mem.clone());
            m.set_fast_paths(fast_paths);
            for _ in 0..ticks {
                m.tick();
            }
            let r = m.run(300_000_000).unwrap_or_else(|e| panic!("fast_paths={fast_paths}: {e}"));
            (r.cycles, r.per_core, r.mem, m.guest_mem().clone())
        });
        assert!(fast == slow, "{ticks} ticks: the fast paths moved a result");
        fast
    };
    let litmus = LitmusTest::sb_rmw_mixed();
    let chaos = audited_chaos(AtomicPolicy::FreeFwd, NocConfig::contended(2), MemModel::Tso);
    let spec = suite::by_name("barnes").expect("a suite workload");
    let w = spec.build(&WorkloadParams { cores: 8, scale: 0.01, seed: 7 });
    let mut noc8 = icelake_like();
    noc8.core.policy = AtomicPolicy::FreeFwd;
    noc8.mem.noc = NocConfig::contended(1);
    for (what, cfg, programs, mem) in [
        ("SB+rmw+mfence", chaos, litmus.to_programs(), GuestMem::new(1 << 16)),
        ("barnes", noc8, w.programs, w.mem),
    ] {
        let (cycles, per_core, mem_stats, guest) = ticked_then_run(&cfg, &programs, &mem, 0);
        for ticks in [1, 37, 400] {
            assert!(ticks < cycles, "{what}: quiesced within {ticks} ticks");
            let (c, p, mut m, g) = ticked_then_run(&cfg, &programs, &mem, ticks);
            assert_eq!(c, cycles, "{what}: {ticks} ticks");
            assert_eq!(p, per_core, "{what}: {ticks} ticks");
            m.audit = mem_stats.audit.clone();
            assert_eq!(m, mem_stats, "{what}: {ticks} ticks");
            assert!(g == guest, "{what}: {ticks} ticks: final guest memory differs");
        }
    }
}
