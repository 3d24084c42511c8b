//! Injected-hang regressions for the unified forward-progress framework.
//!
//! The deadlock gallery (`tests/deadlock_gallery.rs`) proves the §3.2.5
//! rescue valves *resolve* every wedge; this suite welds those valves shut
//! and proves the progress layer *detects* each wedge instead — promptly,
//! at the right site, and with the structured `RunFailure::NoProgress`
//! stuck-resource report. One scenario per site:
//!
//! * `core-commit` — the crossed-RMW deadlock of Figure 5, tipped into a
//!   permanent wedge by chaos-clamped MSHRs and a third core's load
//!   interference, with the core watchdog disabled: cores stop committing.
//! * `dir-alloc` — a directory set whose every way is held by a remotely
//!   locked line, starving a third core's allocation polls (the inclusion
//!   wedge, with and without injected chaos).
//! * `lsq-retry` — the same deadlock, plus a late-starting core that parks
//!   both chaos-clamped MSHRs on the permanently locked lines; its third
//!   miss then retries forever at the LSQ.
//! * `noc-backlog` — the interconnect cannot wedge by construction
//!   (queued messages always drain), so the detector plumbing is pinned
//!   with an artificially tiny backlog bound under a contended crossbar.
//!
//! A final golden-cleanliness test pins the other direction: on healthy
//! runs the escalation thresholds never trip, no rescue fires, and
//! results are bit-identical with the progress config on or off.

use free_atomics::mem::{ChaosConfig, NocConfig, ProgressConfig, ProgressReport};
use free_atomics::prelude::*;
use free_atomics::sim::{RunFailure, SimError};

const A: i64 = 0x1000;
const B: i64 = 0x2000;
const MEM: u64 = 1 << 20;

/// Effectively-infinite threshold for the sites a test does *not* target.
const HUGE: u64 = u64::MAX / 2;

/// The crossed-RMW loop of Figure 5 (same shape as the deadlock gallery):
/// with the watchdog disabled, two of these against each other deadlock
/// with both lines locked forever.
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

/// Unwraps the expected escalation, or panics with whatever else happened.
fn expect_no_progress(r: Result<RunResult, SimError>) -> (&'static str, u64, u64) {
    match r {
        Err(SimError::Run {
            cause: RunFailure::NoProgress(ProgressReport { site, observed, threshold }),
            ..
        }) => (site, observed, threshold),
        Ok(r) => panic!("wedge resolved itself in {} cycles; nothing detected", r.cycles),
        Err(other) => panic!("expected NoProgress, got: {other}"),
    }
}

/// Three loads: two that interfere with (and, post-wedge, park on) the
/// crossed pair's lines, then a miss to an untouched third line.
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

/// The base injected wedge: on the tiny machine, chaos-clamped MSHRs plus
/// a third core's load interference tip the crossed-RMW pair of Figure 5
/// into a *permanent* deadlock (empirically: 50M cycles without
/// quiescing) — the speculative re-locks never untangle. The watchdog is
/// welded shut so only the progress layer can notice.
fn wedge_cfg() -> MachineConfig {
    let mut cfg = tiny_machine();
    cfg.core.policy = AtomicPolicy::FreeFwd;
    cfg.core.watchdog_threshold = u64::MAX;
    cfg.mem.chaos = ChaosConfig { enabled: true, mshr_clamp: 2, ..ChaosConfig::default() };
    cfg
}

#[test]
fn crossed_rmw_wedge_is_detected_at_the_core_commit_site() {
    let mut cfg = wedge_cfg();
    cfg.mem.progress = ProgressConfig {
        stall_cycles: 20_000,
        max_attempts: HUGE,
        max_backlog: HUGE,
    };
    let progs = vec![rmw_pair(A, B, 50), rmw_pair(B, A, 50), three_loads()];
    let mut m = Machine::new(cfg, progs, GuestMem::new(MEM));
    let err = m.run(50_000_000).unwrap_err();
    // The stuck-resource report must surface the site in the message.
    assert!(err.to_string().contains("core-commit"), "report: {err}");
    let (site, observed, threshold) = expect_no_progress(Err(err));
    assert_eq!(site, "core-commit");
    assert_eq!(threshold, 20_000);
    assert!(observed > threshold);
    // Detection within the threshold, not the 50M-cycle budget: the stall
    // counter is checked every loop iteration, so escalation fires almost
    // immediately after the threshold is crossed.
    assert!(observed < threshold + 10_000, "late detection: stalled {observed} cycles");
}

#[test]
fn locked_out_directory_set_is_detected_at_the_dir_alloc_site() {
    // With and without injected chaos: storms only evict *idle* directory
    // entries, so the wedge below survives fault injection unchanged.
    for chaos in [ChaosConfig::default(), ChaosConfig::stress(0xD1CE)] {
        let mut cfg = tiny_machine();
        cfg.core.policy = AtomicPolicy::FreeFwd;
        cfg.core.watchdog_threshold = u64::MAX;
        // One directory set, two ways: the crossed pair's permanently
        // locked lines (A and B) occupy both, and locked entries are
        // never eviction victims — core 2's allocation polls starve.
        cfg.mem.dir_sets = 1;
        cfg.mem.dir_ways = 2;
        cfg.mem.chaos = chaos.clone();
        // Escalate well below the §3.2.5 rescue threshold (10 000 polls),
        // so this trips before the directory's own valve would fire.
        cfg.mem.progress = ProgressConfig {
            stall_cycles: HUGE,
            max_attempts: 2_000,
            max_backlog: HUGE,
        };
        let mut starved = Kasm::new();
        starved.li(Reg::R1, 0x4000);
        starved.li(Reg::R3, 1);
        starved.li(Reg::R4, 0);
        let top = starved.here_label();
        starved.fetch_add(Reg::R5, Reg::R1, 0, Reg::R3);
        starved.beq_imm(Reg::R4, 0, top); // unconditional: hammer forever
        starved.halt();
        let progs =
            vec![rmw_pair(A, B, 50), rmw_pair(B, A, 50), starved.finish().unwrap()];
        let mut m = Machine::new(cfg, progs, GuestMem::new(MEM));
        let (site, observed, threshold) = expect_no_progress(m.run(50_000_000));
        assert_eq!(site, "dir-alloc", "chaos {:?}", chaos.enabled);
        assert_eq!(threshold, 2_000);
        assert!(observed > threshold);
        // Polled every 1024 driver iterations; anything far beyond that
        // slack means the counter kept climbing undetected.
        assert!(observed < 50_000, "late detection: {observed} polls");
    }
}

#[test]
fn mshr_clamp_starvation_is_detected_at_the_lsq_retry_site() {
    let mut cfg = wedge_cfg();
    cfg.mem.progress = ProgressConfig {
        stall_cycles: HUGE,
        max_attempts: 500,
        max_backlog: HUGE,
    };
    // Core 3 starts well after the deadlock has formed: its loads of A and
    // B park both chaos-clamped MSHRs forever (remote requests to locked
    // lines are deferred until an unlock that never comes), so its third
    // miss gets `Retry` at the LSQ every cycle from then on.
    let progs =
        vec![rmw_pair(A, B, 50), rmw_pair(B, A, 50), three_loads(), three_loads()];
    let mut m = Machine::new(cfg, progs, GuestMem::new(MEM));
    m.set_start_offsets(vec![0, 0, 0, 30_000]);
    let (site, observed, threshold) = expect_no_progress(m.run(50_000_000));
    assert_eq!(site, "lsq-retry");
    assert_eq!(threshold, 500);
    assert!(observed > threshold);
    assert!(observed < 50_000, "late detection: {observed} consecutive retries");
}

#[test]
fn contended_interconnect_pressure_trips_the_noc_backlog_bound() {
    // The crossbar drains every queued message eventually, so a genuine
    // unbounded NoC wedge is impossible by construction; this pins the
    // sampling + escalation plumbing with a deliberately tiny bound that
    // ordinary miss traffic must exceed.
    let mut cfg = icelake_like();
    cfg.mem.noc = NocConfig::contended(1);
    cfg.mem.progress = ProgressConfig {
        stall_cycles: HUGE,
        max_attempts: HUGE,
        max_backlog: 8,
    };
    // Eight cores streaming misses over disjoint line sets.
    fn streamer(base: i64) -> Program {
        let mut k = Kasm::new();
        k.li(Reg::R4, 0);
        let top = k.here_label();
        for i in 0..16 {
            k.li(Reg::R1, base + i * 64);
            k.ld(Reg::R5, Reg::R1, 0);
        }
        k.addi(Reg::R4, Reg::R4, 1);
        k.blt_imm(Reg::R4, 64, top);
        k.halt();
        k.finish().unwrap()
    }
    let progs: Vec<Program> = (0..8).map(|c| streamer(0x10000 + c * 0x4000)).collect();
    let mut m = Machine::new(cfg, progs, GuestMem::new(MEM));
    let (site, observed, threshold) = expect_no_progress(m.run(50_000_000));
    assert_eq!(site, "noc-backlog");
    assert_eq!(threshold, 8);
    assert!(observed > threshold);
}

/// The other direction: on healthy runs — including gallery scenarios the
/// watchdog rescues — the wedge-sized default thresholds never trip, the
/// directory's rescue valve never fires, and enabling escalation changes
/// nothing observable.
#[test]
fn golden_runs_are_untouched_by_the_progress_layer() {
    let run = |progress: ProgressConfig| {
        let mut cfg = icelake_like();
        cfg.core.policy = AtomicPolicy::FreeFwd;
        cfg.core.watchdog_threshold = 400; // rescue valve active, as shipped
        cfg.mem.progress = progress;
        let progs = vec![rmw_pair(A, B, 50), rmw_pair(B, A, 50)];
        let mut m = Machine::new(cfg, progs, GuestMem::new(MEM));
        let r = m.run(50_000_000).expect("healthy run must complete");
        (r.cycles, r.mem.progress, m.guest_mem().load(A as u64))
    };
    let (cycles_on, stats_on, mem_on) = run(ProgressConfig::default());
    let (cycles_off, stats_off, mem_off) = run(ProgressConfig::off());
    // Zero rescue firings across golden runs; retry counters are honest
    // (the gallery scenario *does* retry) but far below escalation.
    assert_eq!(stats_on.dir_rescues, 0, "no dir rescue may fire on a golden run");
    assert!(stats_on.lsq_attempts_max < ProgressConfig::default().max_attempts);
    assert!(stats_on.dir_alloc_attempts_max < ProgressConfig::default().max_attempts);
    // Escalation is pure observation: bit-identical results either way.
    assert_eq!(cycles_on, cycles_off);
    assert_eq!(stats_on, stats_off);
    assert_eq!(mem_on, mem_off);
    assert_eq!(mem_on, 100, "crossed pair must still produce exact counts");
}
