//! End-to-end pipeline tests: single- and multi-core programs driven to
//! completion against the detailed memory system, checked against the
//! sequential golden model where the result is interleaving-independent.

use fa_core::{AtomicPolicy, Core, CoreConfig};
use fa_isa::interp::{GuestMem, Interp};
use fa_isa::{AluOp, Kasm, Operand, Program, Reg};
use fa_mem::{CoreId, MemConfig, MemorySystem};
use fa_trace::{TraceConfig, TraceEvent, TraceMode};

const MEM_BYTES: u64 = 1 << 16;

/// Runs `progs` (one per core) to completion; returns (machine, cores).
fn run(
    progs: Vec<Program>,
    policy: AtomicPolicy,
    mem_cfg: MemConfig,
    max_cycles: u64,
) -> (MemorySystem, Vec<Core>) {
    run_cfg(progs, CoreConfig::default().with_policy(policy), mem_cfg, max_cycles)
}

/// [`run`] with every core parameter under the caller's control.
fn run_cfg(
    progs: Vec<Program>,
    cfg: CoreConfig,
    mem_cfg: MemConfig,
    max_cycles: u64,
) -> (MemorySystem, Vec<Core>) {
    let mut mem = MemorySystem::new(mem_cfg, progs.len(), GuestMem::new(MEM_BYTES));
    let mut cores: Vec<Core> = progs
        .into_iter()
        .enumerate()
        .map(|(i, p)| Core::new(CoreId(i as u16), cfg.clone(), p, MEM_BYTES))
        .collect();
    for now in 1..=max_cycles {
        mem.tick();
        for c in cores.iter_mut() {
            c.tick(now, &mut mem);
        }
        if cores.iter().all(|c| c.halted() && c.sb_len() == 0) {
            return (mem, cores);
        }
    }
    panic!(
        "machine did not quiesce within {max_cycles} cycles (halted: {:?})",
        cores.iter().map(|c| c.halted()).collect::<Vec<_>>()
    );
}

fn run1(prog: Program, policy: AtomicPolicy) -> (MemorySystem, Core) {
    let (mem, mut cores) = run(vec![prog], policy, MemConfig::default(), 2_000_000);
    (mem, cores.remove(0))
}

/// A compute-heavy single-thread kernel with data-dependent branches: sums
/// f(i) over i in [0, n), storing intermediate results.
fn scalar_kernel(n: i64) -> Program {
    let mut k = Kasm::new();
    let (i, acc, tmp, base) = (Reg::R1, Reg::R2, Reg::R3, Reg::R4);
    k.li(i, 0);
    k.li(acc, 0);
    k.li(base, 0x800);
    let top = k.here_label();
    let skip = k.new_label();
    k.and(tmp, i, 3);
    k.bne_imm(tmp, 0, skip);
    k.alu(fa_isa::AluOp::Mul, tmp, i, fa_isa::Operand::Imm(7));
    k.add(acc, acc, tmp);
    k.bind(skip);
    k.addi(acc, acc, 1);
    k.and(tmp, i, 63);
    k.shl(tmp, tmp, 3);
    k.add(tmp, base, tmp);
    k.st(acc, tmp, 0);
    k.ld(tmp, tmp, 0);
    k.add(acc, acc, tmp);
    k.addi(i, i, 1);
    k.blt_imm(i, n, top);
    k.st(acc, base, 0x400);
    k.halt();
    k.finish().unwrap()
}

#[test]
fn single_core_matches_golden_model() {
    let prog = scalar_kernel(500);
    let mut golden = Interp::new(prog.clone(), MEM_BYTES);
    golden.run(1_000_000).unwrap();
    for policy in AtomicPolicy::ALL {
        let (mem, core) = run1(prog.clone(), policy);
        assert_eq!(
            mem.backing().load(0x800 + 0x400),
            golden.mem().load(0x800 + 0x400),
            "policy {policy:?} diverged from the golden model"
        );
        assert_eq!(core.stats.instructions, golden.executed);
    }
}

fn counter_prog(iters: i64, counter_addr: i64) -> Program {
    let mut k = Kasm::new();
    let (a, one, i, old) = (Reg::R1, Reg::R2, Reg::R3, Reg::R4);
    k.li(a, counter_addr);
    k.li(one, 1);
    k.li(i, 0);
    let top = k.here_label();
    k.fetch_add(old, a, 0, one);
    k.addi(i, i, 1);
    k.blt_imm(i, iters, top);
    k.halt();
    k.finish().unwrap()
}

#[test]
fn fetch_add_loop_counts_exactly_single_core() {
    for policy in AtomicPolicy::ALL {
        let (mem, core) = run1(counter_prog(200, 0x100), policy);
        assert_eq!(mem.backing().load(0x100), 200, "policy {policy:?}");
        assert_eq!(core.stats.atomics, 200, "policy {policy:?}");
    }
}

#[test]
fn contended_counter_is_exact_across_cores() {
    for policy in AtomicPolicy::ALL {
        let n = 4;
        let iters = 100;
        let progs = vec![counter_prog(iters, 0x100); n];
        let (mem, cores) = run(progs, policy, MemConfig::default(), 4_000_000);
        assert_eq!(
            mem.backing().load(0x100),
            (n as u64) * iters as u64,
            "atomicity violated under {policy:?}"
        );
        let total_atomics: u64 = cores.iter().map(|c| c.stats.atomics).sum();
        assert_eq!(total_atomics, (n as u64) * iters as u64);
    }
}

#[test]
fn contended_counter_with_tiny_caches() {
    // Small caches force evictions, inclusion victims and lock pressure.
    for policy in [AtomicPolicy::FencedBaseline, AtomicPolicy::Free, AtomicPolicy::FreeFwd] {
        let n = 4;
        let iters = 60;
        let progs = vec![counter_prog(iters, 0x100); n];
        let (mem, _) = run(progs, policy, MemConfig::tiny(), 8_000_000);
        assert_eq!(mem.backing().load(0x100), (n as u64) * iters as u64, "{policy:?}");
    }
}

/// Two cores lock two lines in opposite orders — the paper's Figure-5
/// RMW-RMW deadlock. Free policies need the watchdog to finish.
#[test]
fn rmw_rmw_deadlock_is_broken_by_watchdog() {
    fn prog(first: i64, second: i64, iters: i64) -> Program {
        let mut k = Kasm::new();
        let (a, b, one, i, old) = (Reg::R1, Reg::R2, Reg::R3, Reg::R4, Reg::R5);
        k.li(a, first);
        k.li(b, second);
        k.li(one, 1);
        k.li(i, 0);
        let top = k.here_label();
        k.fetch_add(old, a, 0, one);
        k.fetch_add(old, b, 0, one);
        k.addi(i, i, 1);
        k.blt_imm(i, iters, top);
        k.halt();
        k.finish().unwrap()
    }
    for policy in AtomicPolicy::ALL {
        let iters = 40;
        // Low threshold so the test runs fast.
        let mut cfg = CoreConfig::default().with_policy(policy);
        cfg.watchdog_threshold = 200;
        let mut mem =
            MemorySystem::new(MemConfig::default(), 2, GuestMem::new(MEM_BYTES));
        let mut cores = [
            Core::new(CoreId(0), cfg.clone(), prog(0x100, 0x200, iters), MEM_BYTES),
            Core::new(CoreId(1), cfg.clone(), prog(0x200, 0x100, iters), MEM_BYTES),
        ];
        let mut done = false;
        for now in 1..=6_000_000 {
            mem.tick();
            for c in cores.iter_mut() {
                c.tick(now, &mut mem);
            }
            if cores.iter().all(|c| c.halted() && c.sb_len() == 0) {
                done = true;
                break;
            }
        }
        assert!(done, "deadlocked under {policy:?}");
        assert_eq!(mem.backing().load(0x100), 2 * iters as u64, "{policy:?}");
        assert_eq!(mem.backing().load(0x200), 2 * iters as u64, "{policy:?}");
    }
}

/// Dekker's algorithm with RMWs as barriers (paper Figure 10): the outcome
/// r0 == 0 && r1 == 0 is forbidden under TSO with type-1 atomics.
#[test]
fn dekker_with_rmws_forbids_both_zero() {
    fn prog(mine: i64, theirs: i64, scratch: i64, out: i64) -> Program {
        let mut k = Kasm::new();
        let (m, t, one, old, r) = (Reg::R1, Reg::R2, Reg::R3, Reg::R4, Reg::R5);
        k.li(m, mine);
        k.li(t, theirs);
        k.li(one, 1);
        k.st(one, m, 0); // st mine, 1
        k.li(r, scratch);
        k.fetch_add(old, r, 0, one); // RMW to an unrelated address
        k.ld(r, t, 0); // ld theirs
        k.li(old, out);
        k.st(r, old, 0); // publish observation
        k.halt();
        k.finish().unwrap()
    }
    for policy in AtomicPolicy::ALL {
        for trial in 0..12 {
            let p0 = prog(0x100, 0x200, 0x300 + 64 * (trial % 3), 0x400);
            let p1 = prog(0x200, 0x100, 0x340 + 64 * (trial % 2), 0x440);
            let (mem, _) = run(vec![p0, p1], policy, MemConfig::default(), 2_000_000);
            let r0 = mem.backing().load(0x400);
            let r1 = mem.backing().load(0x440);
            assert!(
                !(r0 == 0 && r1 == 0),
                "store→RMW→load order violated under {policy:?} (trial {trial})"
            );
        }
    }
}

/// Plain Dekker with MFENCE: store→load order via the standalone fence.
#[test]
fn dekker_with_mfence_forbids_both_zero() {
    fn prog(mine: i64, theirs: i64, out: i64) -> Program {
        let mut k = Kasm::new();
        let (m, t, one, r, o) = (Reg::R1, Reg::R2, Reg::R3, Reg::R4, Reg::R5);
        k.li(m, mine);
        k.li(t, theirs);
        k.li(one, 1);
        k.st(one, m, 0);
        k.fence();
        k.ld(r, t, 0);
        k.li(o, out);
        k.st(r, o, 0);
        k.halt();
        k.finish().unwrap()
    }
    for policy in AtomicPolicy::ALL {
        let p0 = prog(0x100, 0x200, 0x400);
        let p1 = prog(0x200, 0x100, 0x440);
        let (mem, _) = run(vec![p0, p1], policy, MemConfig::default(), 2_000_000);
        let r0 = mem.backing().load(0x400);
        let r1 = mem.backing().load(0x440);
        assert!(!(r0 == 0 && r1 == 0), "MFENCE failed under {policy:?}");
    }
}

/// Without any fence, Dekker's forbidden outcome *should* be observable
/// (store buffers!). This guards against accidentally over-serializing the
/// model. We only check the machine completes; both-zero is permitted.
#[test]
fn dekker_unfenced_completes() {
    fn prog(mine: i64, theirs: i64, out: i64) -> Program {
        let mut k = Kasm::new();
        let (m, t, one, r, o) = (Reg::R1, Reg::R2, Reg::R3, Reg::R4, Reg::R5);
        k.li(m, mine);
        k.li(t, theirs);
        k.li(one, 1);
        k.st(one, m, 0);
        k.ld(r, t, 0);
        k.li(o, out);
        k.st(r, o, 0);
        k.halt();
        k.finish().unwrap()
    }
    let p0 = prog(0x100, 0x200, 0x400);
    let p1 = prog(0x200, 0x100, 0x440);
    let (mem, _) = run(vec![p0, p1], AtomicPolicy::FreeFwd, MemConfig::default(), 1_000_000);
    // Both observations are architecturally defined (0 or 1).
    assert!(mem.backing().load(0x400) <= 1);
    assert!(mem.backing().load(0x440) <= 1);
}

/// Message passing: core 0 writes data then flag; core 1 spins on the flag
/// and must observe the data (TSO store→store + load→load).
#[test]
fn message_passing_litmus() {
    let mut k = Kasm::new();
    let (d, f, v) = (Reg::R1, Reg::R2, Reg::R3);
    k.li(d, 0x100);
    k.li(f, 0x140);
    k.li(v, 42);
    k.st(v, d, 0);
    k.li(v, 1);
    k.st(v, f, 0);
    k.halt();
    let writer = k.finish().unwrap();

    let mut k = Kasm::new();
    let (d, f, v, o) = (Reg::R1, Reg::R2, Reg::R3, Reg::R4);
    k.li(d, 0x100);
    k.li(f, 0x140);
    let spin = k.here_label();
    k.ld(v, f, 0);
    k.beq_imm(v, 0, spin);
    k.ld(v, d, 0);
    k.li(o, 0x400);
    k.st(v, o, 0);
    k.halt();
    let reader = k.finish().unwrap();

    for policy in AtomicPolicy::ALL {
        let (mem, _) = run(
            vec![writer.clone(), reader.clone()],
            policy,
            MemConfig::default(),
            2_000_000,
        );
        assert_eq!(mem.backing().load(0x400), 42, "MP violated under {policy:?}");
    }
}

/// A test-and-set spinlock protecting a plain (non-atomic) counter.
#[test]
fn spinlock_protects_plain_counter() {
    fn prog(iters: i64) -> Program {
        let mut k = Kasm::new();
        let (lock, cnt, old, v, i) = (Reg::R1, Reg::R2, Reg::R3, Reg::R4, Reg::R5);
        k.li(lock, 0x100);
        k.li(cnt, 0x200);
        k.li(i, 0);
        let top = k.here_label();
        let acquire = k.here_label();
        k.test_set(old, lock, 0);
        k.bne_imm(old, 0, acquire);
        // Critical section: plain load/store increment.
        k.ld(v, cnt, 0);
        k.addi(v, v, 1);
        k.st(v, cnt, 0);
        // Release: plain store of zero.
        k.st(Reg::R0, lock, 0);
        k.addi(i, i, 1);
        k.blt_imm(i, iters, top);
        k.halt();
        k.finish().unwrap()
    }
    for policy in AtomicPolicy::ALL {
        let n = 4;
        let iters = 50;
        let progs = vec![prog(iters); n];
        let (mem, _) = run(progs, policy, MemConfig::default(), 8_000_000);
        assert_eq!(
            mem.backing().load(0x200),
            (n as u64) * iters as u64,
            "mutual exclusion violated under {policy:?}"
        );
        assert_eq!(mem.backing().load(0x100), 0, "lock must end released");
    }
}

/// CAS-based lock with MonitorWait sleeping (exercises sleep/wake).
#[test]
fn monitor_wait_wakes_on_remote_store() {
    // Core 0 sleeps on a flag; core 1 sets it after some busywork.
    let mut k = Kasm::new();
    let (f, v, o) = (Reg::R1, Reg::R2, Reg::R3);
    k.li(f, 0x100);
    let spin = k.here_label();
    k.ld(v, f, 0);
    let done = k.new_label();
    k.bne_imm(v, 0, done);
    k.monitor_wait(f, 0);
    k.jump(spin);
    k.bind(done);
    k.li(o, 0x400);
    k.st(v, o, 0);
    k.halt();
    let waiter = k.finish().unwrap();

    let mut k = Kasm::new();
    let (f, v, i) = (Reg::R1, Reg::R2, Reg::R3);
    k.li(i, 0);
    let top = k.here_label();
    k.addi(i, i, 1);
    k.blt_imm(i, 2000, top);
    k.li(f, 0x100);
    k.li(v, 7);
    k.st(v, f, 0);
    k.halt();
    let setter = k.finish().unwrap();

    let (mem, cores) = run(
        vec![waiter, setter],
        AtomicPolicy::FreeFwd,
        MemConfig::default(),
        2_000_000,
    );
    assert_eq!(mem.backing().load(0x400), 7);
    assert!(cores[0].stats.monitor_sleeps >= 1);
    assert!(cores[0].stats.sleep_cycles > 0);
}

/// Atomics on a speculative path that gets squashed must not corrupt
/// memory or leak locks.
#[test]
fn speculative_atomic_under_mispredicted_branch() {
    // if (data[i] & 1) fetch_add(counter) — with data all even, the atomic
    // only executes on wrong paths when mispredicted.
    fn prog(iters: i64) -> Program {
        let mut k = Kasm::new();
        let (c, one, i, v, t) = (Reg::R1, Reg::R2, Reg::R3, Reg::R4, Reg::R5);
        k.li(c, 0x100);
        k.li(one, 1);
        k.li(i, 0);
        let top = k.here_label();
        let skip = k.new_label();
        k.and(v, i, 7);
        k.bne_imm(v, 3, skip); // taken 7/8 of the time: mispredicts happen
        k.fetch_add(t, c, 0, one);
        k.bind(skip);
        k.addi(i, i, 1);
        k.blt_imm(i, iters, top);
        k.halt();
        k.finish().unwrap()
    }
    for policy in [AtomicPolicy::FencedSpec, AtomicPolicy::Free, AtomicPolicy::FreeFwd] {
        let iters = 400;
        let (mem, core) = run1(prog(iters), policy);
        // Exactly iters/8 atomics commit (i & 7 == 3).
        assert_eq!(mem.backing().load(0x100), (iters / 8) as u64, "{policy:?}");
        assert_eq!(core.stats.atomics, (iters / 8) as u64);
        assert!(core.stats.squashes_branch > 0, "expected some mispredictions");
    }
}

/// The Free policies must actually omit the atomic fences, and the fenced
/// ones must not.
#[test]
fn fence_omission_accounting() {
    let (_, core) = run1(counter_prog(50, 0x100), AtomicPolicy::FreeFwd);
    assert_eq!(core.stats.fences_omitted, 100); // 2 per atomic
    assert_eq!(core.stats.fences_enforced, 0);
    let (_, core) = run1(counter_prog(50, 0x100), AtomicPolicy::FencedBaseline);
    assert_eq!(core.stats.fences_omitted, 0);
    assert_eq!(core.stats.fences_enforced, 100);
}

/// Back-to-back atomics to the same address: under FreeFwd the younger
/// load_lock forwards from the older store_unlock (FbA in Table 2) and the
/// line lock is handed over without ever being released in between.
#[test]
fn atomic_chain_forwards_under_freefwd() {
    let (mem, core) = run1(counter_prog(100, 0x100), AtomicPolicy::FreeFwd);
    assert_eq!(mem.backing().load(0x100), 100);
    assert!(
        core.stats.atomics_fwd_from_atomic > 0,
        "expected store_unlock→load_lock forwarding, stats: {:?}",
        core.stats
    );
    // And under plain Free, no forwarding happens.
    let (_, core) = run1(counter_prog(100, 0x100), AtomicPolicy::Free);
    assert_eq!(core.stats.atomics_fwd_from_atomic, 0);
}

/// Forwarding from an ordinary store to a load_lock (FbS): store to X then
/// immediately RMW X.
#[test]
fn ordinary_store_forwards_to_load_lock() {
    let mut k = Kasm::new();
    let (a, v, one, old, i) = (Reg::R1, Reg::R2, Reg::R3, Reg::R4, Reg::R5);
    k.li(a, 0x100);
    k.li(one, 1);
    k.li(i, 0);
    let top = k.here_label();
    k.shl(v, i, 3);
    k.st(v, a, 0); // plain store
    k.fetch_add(old, a, 0, one); // immediately RMW the same address
    k.addi(i, i, 1);
    k.blt_imm(i, 100, top);
    k.halt();
    let prog = k.finish().unwrap();

    let (mem, core) = run1(prog.clone(), AtomicPolicy::FreeFwd);
    assert!(core.stats.atomics_fwd_from_store > 0, "stats: {:?}", core.stats);
    // Final value: last store wrote (99<<3), atomic added 1.
    assert_eq!(mem.backing().load(0x100), (99 << 3) + 1);

    // The same program must compute the same value under every policy.
    for policy in AtomicPolicy::ALL {
        let (mem, _) = run1(prog.clone(), policy);
        assert_eq!(mem.backing().load(0x100), (99 << 3) + 1, "{policy:?}");
    }
}

/// CAS success and failure paths.
#[test]
fn cas_semantics_under_all_policies() {
    let mut k = Kasm::new();
    let (a, exp, new, old, out) = (Reg::R1, Reg::R2, Reg::R3, Reg::R4, Reg::R5);
    k.li(a, 0x100);
    k.li(exp, 0);
    k.li(new, 5);
    k.cas(old, a, 0, exp, new); // succeeds: 0 -> 5
    k.li(exp, 99);
    k.li(new, 7);
    k.cas(out, a, 0, exp, new); // fails: stays 5
    k.li(exp, 0x400);
    k.st(old, exp, 0);
    k.li(exp, 0x440);
    k.st(out, exp, 0);
    k.halt();
    let prog = k.finish().unwrap();
    for policy in AtomicPolicy::ALL {
        let (mem, _) = run1(prog.clone(), policy);
        assert_eq!(mem.backing().load(0x100), 5, "{policy:?}");
        assert_eq!(mem.backing().load(0x400), 0, "{policy:?}: first CAS old");
        assert_eq!(mem.backing().load(0x440), 5, "{policy:?}: second CAS old");
    }
}

/// Figure-1 accounting: the fenced baseline pays Drain_SB cycles when
/// stores precede an atomic; Free atomics mostly do not.
#[test]
fn drain_accounting_shows_fence_cost() {
    fn prog(iters: i64) -> Program {
        let mut k = Kasm::new();
        let (a, b, one, old, i, v) = (Reg::R1, Reg::R2, Reg::R3, Reg::R4, Reg::R5, Reg::R6);
        k.li(a, 0x100);
        k.li(b, 0x4000); // stores go to a different region (cold lines)
        k.li(one, 1);
        k.li(i, 0);
        let top = k.here_label();
        k.shl(v, i, 3);
        k.and(v, v, 0xfff);
        k.add(v, b, v);
        k.st(one, v, 0); // store that must drain before a fenced atomic
        k.fetch_add(old, a, 0, one);
        k.addi(i, i, 1);
        k.blt_imm(i, iters, top);
        k.halt();
        k.finish().unwrap()
    }
    let (_, fenced) = run1(prog(100), AtomicPolicy::FencedBaseline);
    let (_, free) = run1(prog(100), AtomicPolicy::FreeFwd);
    let (fenced_drain, _) = fenced.stats.atomic_cost();
    let (free_drain, _) = free.stats.atomic_cost();
    assert!(
        fenced_drain > free_drain + 1.0,
        "fenced drain {fenced_drain:.1} should exceed free drain {free_drain:.1}"
    );
    // And the fenced run must be slower overall.
    assert!(fenced.stats.cycles > free.stats.cycles);
}

/// Memory-dependence violations are detected and recovered.
#[test]
fn store_load_violation_recovers() {
    // A store whose address depends on a slow chain, followed by a load to
    // the same address that will speculate past it.
    let mut k = Kasm::new();
    let (a, v, t, out) = (Reg::R1, Reg::R2, Reg::R3, Reg::R4);
    k.li(a, 0x100);
    k.li(v, 1);
    // Slow chain to delay the store's address.
    k.li(t, 0x100);
    for _ in 0..12 {
        k.alu(fa_isa::AluOp::Mul, t, t, fa_isa::Operand::Imm(1));
    }
    k.st(v, t, 0); // store 1 -> [0x100], address late
    k.ld(out, a, 0); // load [0x100] — speculates, must see 1
    k.li(t, 0x400);
    k.st(out, t, 0);
    k.halt();
    let prog = k.finish().unwrap();
    for policy in AtomicPolicy::ALL {
        let (mem, _) = run1(prog.clone(), policy);
        assert_eq!(mem.backing().load(0x400), 1, "{policy:?}: load bypassed store");
    }
}

/// A core config that records every pipeline event.
fn traced(policy: AtomicPolicy) -> CoreConfig {
    let mut cfg = CoreConfig::default().with_policy(policy);
    cfg.trace = TraceConfig::with_mode(TraceMode::Full);
    cfg
}

/// `(cycle, seq)` of every trace event of `core` that `pick` maps to a seq.
fn events(core: &Core, pick: impl Fn(TraceEvent) -> Option<u64>) -> Vec<(u64, u64)> {
    core.trace_tail(usize::MAX)
        .into_iter()
        .filter_map(|r| pick(r.ev).map(|seq| (r.cycle, seq)))
        .collect()
}

/// Squashes under a stuck ROB head: a load that misses to a very slow
/// memory holds the head while unpredictable branches — and, where atomics
/// speculate, the watchdog — keep squashing and refetching behind it, so
/// the live sequence-number range grows to many times the ROB length.
/// Anything that mapped sequence numbers onto ROB slots without a tag
/// would alias here.
#[test]
fn squash_storm_under_a_stuck_head_matches_golden_model() {
    const RESULT: i64 = 0x800;
    const COUNTER: i64 = 0x900;
    let mut k = Kasm::new();
    let (p, stuck, x, t, i, acc) = (Reg::R1, Reg::R2, Reg::R3, Reg::R4, Reg::R5, Reg::R6);
    // Warm the atomic's line, then miss on a line whose address waits for
    // that (so the two misses do not overlap).
    k.li(p, COUNTER);
    k.ld(t, p, 0);
    k.addi(p, t, 0x4000);
    k.ld(stuck, p, 0);
    let stuck_pc = (k.here() - 1) as u64;
    // An atomic right behind it: where atomics speculate, it takes its
    // lock but cannot commit, so the watchdog keeps flushing the window too.
    k.li(p, COUNTER);
    k.li(acc, 1);
    k.fetch_add(t, p, 0, acc);
    k.li(x, 88_172_645_463_325_252);
    k.li(i, 0);
    k.li(acc, 0);
    let top = k.here_label();
    let skip = k.new_label();
    // One LCG step; the branch tests a high bit of it, late (the multiply
    // chain) so each mispredict refetches a long wrong path.
    k.alu(AluOp::Mul, x, x, Operand::Imm(6_364_136_223_846_793_005));
    k.addi(x, x, 1_442_695_040_888_963_407);
    k.shr(t, x, 40);
    for _ in 0..4 {
        k.alu(AluOp::Mul, t, t, Operand::Imm(1));
    }
    k.and(t, t, 1);
    k.bne_imm(t, 0, skip);
    k.addi(acc, acc, 3);
    k.bind(skip);
    k.add(acc, acc, x);
    k.addi(i, i, 1);
    k.blt_imm(i, 300, top);
    k.add(acc, acc, stuck);
    k.li(p, RESULT);
    k.st(acc, p, 0);
    k.halt();
    let prog = k.finish().unwrap();

    let mut golden = Interp::new(prog.clone(), MEM_BYTES);
    golden.run(1_000_000).unwrap();
    let mem_cfg = MemConfig { mem_lat: 20_000, ..MemConfig::default() };
    for policy in AtomicPolicy::ALL {
        let mut cfg = traced(policy);
        cfg.watchdog_threshold = 200;
        let rob_size = cfg.rob_size as u64;
        let (mem, cores) = run_cfg(vec![prog.clone()], cfg, mem_cfg.clone(), 2_000_000);
        let core = &cores[0];
        for addr in [RESULT, COUNTER] {
            assert_eq!(
                mem.backing().load(addr as u64),
                golden.mem().load(addr as u64),
                "{policy:?}: [{addr:#x}] diverged from the golden model"
            );
        }
        assert_eq!(core.stats.instructions, golden.executed, "{policy:?}");
        assert_eq!(core.rob_len(), 0, "{policy:?}");
        assert_eq!(core.scheduler_len(), 0, "{policy:?}: scheduler lists must drain with the ROB");

        // The storm happened under the stuck head: by the time the load
        // committed, dispatch had run many ROB lengths ahead of it.
        let commits = events(core, |ev| match ev {
            TraceEvent::UopCommit { seq, pc } if pc == stuck_pc => Some(seq),
            _ => None,
        });
        let &[(stuck_commit, stuck_seq)] = commits.as_slice() else {
            panic!("{policy:?}: the stuck load commits exactly once, got {commits:?}");
        };
        let youngest = events(core, |ev| match ev {
            TraceEvent::UopDispatch { seq, .. } => Some(seq),
            _ => None,
        })
        .into_iter()
        .filter(|&(cycle, _)| cycle < stuck_commit)
        .map(|(_, seq)| seq)
        .max()
        .expect("something dispatched behind the load");
        // Mispredicts alone stop once the window holds only resolved
        // branches; the watchdog (speculative atomics only) never stops.
        let lengths = if policy.fenced() { 4 } else { 100 };
        assert!(
            youngest - stuck_seq > lengths * rob_size,
            "{policy:?}: live seq range {} is not {lengths} ROB lengths ({rob_size})",
            youngest - stuck_seq
        );
    }
}

/// A wrong-path load to a wild address never touches memory: it is
/// poisoned at address generation and pretends to perform, and the consumer
/// of its (garbage) result still wakes and issues before the mispredicted
/// branch resolves and flushes both.
#[test]
fn poisoned_wrong_path_load_wakes_its_consumer() {
    const TABLE: i64 = 0x100;
    const RESULT: i64 = 0x800;
    let mut k = Kasm::new();
    let (base, i, v, slow, ptr, t, acc) =
        (Reg::R1, Reg::R2, Reg::R3, Reg::R4, Reg::R5, Reg::R6, Reg::R7);
    k.li(base, TABLE);
    k.li(t, 5);
    k.st(t, base, 0);
    k.li(i, 0);
    k.li(acc, 0);
    let top = k.here_label();
    let skip = k.new_label();
    k.and(v, i, 7);
    // ptr = TABLE when v == 3, else unaligned and far out of range.
    k.alu(AluOp::Sub, ptr, v, Operand::Imm(3));
    k.alu(AluOp::Mul, ptr, ptr, Operand::Imm(0x1000_0001));
    k.add(ptr, ptr, base);
    // The guard resolves late, so a mispredicted fall-through runs ahead.
    k.mov(slow, v);
    for _ in 0..8 {
        k.alu(AluOp::Mul, slow, slow, Operand::Imm(1));
    }
    k.bne_imm(slow, 3, skip);
    k.ld(t, ptr, 0);
    k.add(acc, acc, t);
    let consumer_pc = (k.here() - 1) as u64;
    k.bind(skip);
    k.addi(i, i, 1);
    k.blt_imm(i, 200, top);
    k.li(ptr, RESULT);
    k.st(acc, ptr, 0);
    k.halt();
    let prog = k.finish().unwrap();

    let mut golden = Interp::new(prog.clone(), MEM_BYTES);
    golden.run(1_000_000).unwrap();
    assert_eq!(golden.mem().load(RESULT as u64), 5 * 25);
    for policy in AtomicPolicy::ALL {
        let (mem, cores) =
            run_cfg(vec![prog.clone()], traced(policy), MemConfig::default(), 2_000_000);
        let core = &cores[0];
        assert_eq!(mem.backing().load(RESULT as u64), 5 * 25, "{policy:?}");
        assert_eq!(core.stats.instructions, golden.executed, "{policy:?}");
        assert_eq!(core.scheduler_len(), 0, "{policy:?}");
        // Off the correct path (v != 3) the load's address is always wild,
        // so a consumer that issued without ever committing was fed by a
        // poisoned load.
        let issued = events(core, |ev| match ev {
            TraceEvent::UopIssue { seq, pc } if pc == consumer_pc => Some(seq),
            _ => None,
        });
        let committed = events(core, |ev| match ev {
            TraceEvent::UopCommit { seq, pc } if pc == consumer_pc => Some(seq),
            _ => None,
        });
        assert_eq!(committed.len(), 25, "{policy:?}");
        assert!(
            issued.len() > committed.len(),
            "{policy:?}: no wrong-path consumer issued ({} issues)",
            issued.len()
        );
    }
}

/// Issue is oldest-first and stops at `issue_width`: twelve consumers of
/// one missing load all become ready in the same cycle, and leave four per
/// cycle in program order.
#[test]
fn issue_is_oldest_first_and_bounded_by_issue_width() {
    let consumers: Vec<Reg> = (8..20).map(Reg::new).collect();
    let mut k = Kasm::new();
    let (p, x) = (Reg::R1, Reg::R2);
    k.li(p, 0x4000);
    k.ld(x, p, 0);
    let first_consumer_pc = k.here() as u64;
    for (n, &r) in consumers.iter().enumerate() {
        k.addi(r, x, n as i64);
    }
    k.halt();
    let prog = k.finish().unwrap();

    let mut cfg = traced(AtomicPolicy::FreeFwd);
    cfg.issue_width = 4;
    let (_, cores) = run_cfg(vec![prog], cfg, MemConfig::default(), 100_000);
    let last_consumer_pc = first_consumer_pc + consumers.len() as u64 - 1;
    let issues = events(&cores[0], |ev| match ev {
        TraceEvent::UopIssue { seq, pc } if (first_consumer_pc..=last_consumer_pc).contains(&pc) => {
            Some(seq)
        }
        _ => None,
    });
    // The trace ring is in issue order: seqs ascend, four to a cycle, on
    // three consecutive cycles.
    let seqs: Vec<u64> = issues.iter().map(|&(_, seq)| seq).collect();
    assert_eq!(seqs.len(), consumers.len());
    assert!(seqs.windows(2).all(|w| w[0] < w[1]), "not oldest-first: {issues:?}");
    let first_cycle = issues[0].0;
    let cycles: Vec<u64> = issues.iter().map(|&(cycle, _)| cycle - first_cycle).collect();
    assert_eq!(cycles, [0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2], "{issues:?}");
}

/// The cycle at which the first micro-op of the instruction at `pc` issued.
fn first_issue(core: &Core, pc: u64) -> u64 {
    let issues = events(core, |ev| match ev {
        TraceEvent::UopIssue { seq, pc: at } if at == pc => Some(seq),
        _ => None,
    });
    issues.first().expect("the instruction issued").0
}

/// A load that cannot issue waits for the event that frees it instead of
/// being asked every cycle; the cycle it issues at must not move. One
/// directed program per blocker that waits on an event, under every
/// policy, against the cycle the every-cycle retry issued it at (recorded
/// from the parent commit).
#[test]
fn blocked_loads_issue_at_the_cycle_polling_found() {
    let (p, q, v, x) = (Reg::R1, Reg::R2, Reg::R3, Reg::R4);
    let mut programs = Vec::new();

    // Behind a standalone fence, which commits once the store ahead of it
    // has drained — a cold miss.
    let mut k = Kasm::new();
    k.li(p, 0x4000).li(q, 0x5000).li(v, 7);
    k.st(v, p, 0);
    k.fence();
    let load_pc = k.here() as u64;
    k.ld(x, q, 0);
    k.halt();
    programs.push(("fence", k.finish().unwrap(), load_pc, [186; 4]));

    // Behind a store to the same address whose data hangs on a chain of
    // multiplies: the load forwards the cycle the data arrives.
    let mut k = Kasm::new();
    k.li(p, 0x4000).li(v, 3);
    for _ in 0..8 {
        k.alu(AluOp::Mul, v, v, Operand::Imm(1));
    }
    k.st(v, p, 0);
    let load_pc = k.here() as u64;
    k.ld(x, p, 0);
    k.halt();
    programs.push(("store data", k.finish().unwrap(), load_pc, [27; 4]));

    // A load_lock behind a draining store buffer: the fenced policies
    // hold it at the issue gate until the store has performed.
    let mut k = Kasm::new();
    k.li(p, 0x4000).li(q, 0x5000).li(v, 1);
    k.st(v, p, 0);
    let rmw_pc = k.here() as u64;
    k.fetch_add(x, q, 0, v);
    k.halt();
    programs.push(("load_lock gate", k.finish().unwrap(), rmw_pc, [185, 185, 3, 3]));

    for (what, prog, pc, want) in programs {
        for (policy, want) in AtomicPolicy::ALL.into_iter().zip(want) {
            let (_, cores) =
                run_cfg(vec![prog.clone()], traced(policy), MemConfig::default(), 100_000);
            assert_eq!(first_issue(&cores[0], pc), want, "{what} under {policy:?}");
            assert_eq!(cores[0].scheduler_len(), 0, "{what} under {policy:?}");
            // It waited some 25 to 180 cycles and was asked once or twice.
            let (attempts, issues) = cores[0].issue_attempts();
            assert!(attempts - issues <= 2, "{what} under {policy:?}: {attempts} attempts");
        }
    }
}

/// A timeout snapshot says what the ROB head waits for: here the fenced
/// baseline's load_lock, held at its issue gate while the store ahead of
/// it misses.
#[test]
fn the_diagnostic_names_the_head_loads_blocker() {
    let (p, q, v, x) = (Reg::R1, Reg::R2, Reg::R3, Reg::R4);
    let mut k = Kasm::new();
    k.li(p, 0x4000).li(q, 0x5000).li(v, 1);
    k.st(v, p, 0);
    k.fetch_add(x, q, 0, v);
    k.halt();
    let cfg = CoreConfig::default().with_policy(AtomicPolicy::FencedBaseline);
    let mut mem = MemorySystem::new(MemConfig::default(), 1, GuestMem::new(MEM_BYTES));
    let mut core = Core::new(CoreId(0), cfg, k.finish().unwrap(), MEM_BYTES);
    for now in 1..=60 {
        mem.tick();
        core.tick(now, &mut mem);
    }
    let diag = core.diag();
    assert_eq!(diag.head_blocked.as_deref(), Some("load_lock gate"), "{diag}");
    assert!(diag.to_string().contains(", blocked by load_lock gate"), "{diag}");
}
