//! Host-allocation budgets: building a machine costs O(cores) allocations,
//! the cycle loop and the audit sweep allocate only while their pools and
//! slabs are still growing, a fuzz campaign's warm worker barely allocates
//! per run, the litmus enumerator pays per outcome, not per state, and a
//! run's live heap follows the lines it holds.
//!
//! Counts are per thread, so the tests of this file run in parallel without
//! seeing each other.

use free_atomics::prelude::*;
use free_atomics::sim::{fuzz_litmus, FuzzConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// `(allocations, bytes requested)` by this thread so far.
    static COUNTS: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
    /// `(live, peak)`: bytes this thread allocated less those it freed,
    /// and the most that has been since [`peak_live`] last started.
    static LIVE: Cell<(i64, i64)> = const { Cell::new((0, 0)) };
}

/// Forwards to the system allocator, counting each request and the live
/// bytes. `realloc` and `alloc_zeroed` keep their default bodies, which
/// call `alloc` and `dealloc`: growing a `Vec` counts as an allocation.
struct Counting;

// SAFETY: every request is passed unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counter is a `const`-initialised thread-local
// `Cell` with no destructor, so touching it here neither allocates nor
// outlives its thread.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = COUNTS.try_with(|c| {
            let (n, bytes) = c.get();
            c.set((n + 1, bytes + layout.size() as u64));
        });
        let _ = LIVE.try_with(|c| {
            let (live, peak) = c.get();
            let live = live + layout.size() as i64;
            c.set((live, peak.max(live)));
        });
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        let _ = LIVE.try_with(|c| {
            let (live, peak) = c.get();
            c.set((live - layout.size() as i64, peak));
        });
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// `(allocations, bytes)` made by this thread while `f` ran.
fn counted<T>(f: impl FnOnce() -> T) -> (T, u64, u64) {
    let (n0, b0) = COUNTS.with(Cell::get);
    let out = f();
    let (n1, b1) = COUNTS.with(Cell::get);
    (out, n1 - n0, b1 - b0)
}

/// The most bytes this thread held live while `f` ran, beyond what it
/// held when `f` started.
fn peak_live<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let start = LIVE.with(|c| {
        let (live, _) = c.get();
        c.set((live, live));
        live
    });
    let out = f();
    let (_, peak) = LIVE.with(Cell::get);
    (out, (peak - start) as u64)
}

/// A 4-core cell of the benchmark's `compute_grid` (its scale and policy
/// pair; `seed` is the `--seed` the driver documents).
fn compute_cell(kernel: &str) -> (MachineConfig, Vec<Program>, GuestMem) {
    let spec = suite::by_name(kernel).expect("a suite kernel");
    let w = spec.build(&WorkloadParams { cores: 4, scale: 0.135, seed: 7 });
    let mut cfg = icelake_like();
    cfg.core.policy = AtomicPolicy::FreeFwd;
    (cfg, w.programs, w.mem)
}

#[test]
fn machine_new_allocates_per_core_not_per_set() {
    let (cfg, programs, guest) = compute_cell("fft");
    let (m, allocs, bytes) = counted(|| Machine::new(cfg, programs, guest));
    eprintln!("Machine::new: {allocs} allocations, {bytes} bytes");
    drop(m);
    // The guest image is moved in, not copied. Here: 98 allocations
    // requesting 0.99 MB. Before the tag arrays became slabs: 51 515
    // requesting 65.2 MB, one `Vec` per configured cache set.
    assert!(allocs <= 256, "Machine::new made {allocs} allocations");
    assert!(bytes <= 4 << 20, "Machine::new requested {bytes} bytes");
}

#[test]
fn the_cycle_loop_stops_allocating_once_warm() {
    // Allocations over cycles 2001..=6000, counted in release builds (a
    // debug build of the parent adds ~90 000 from the scheduler oracle's
    // per-tick lists; here both profiles count the same):
    //
    //   kernel   parent   here   bound (twice the value first measured)
    //   fft      11 483     60   140
    //   radix    10 812     37    62
    //
    // What is left is growth by doubling: the tag-array slabs as sets
    // grow their blocks, the directory's transaction table and park
    // queues while more lines are contended at once than ever before, lock
    // tables, merged-miss lists; and the guest pages first stored to in
    // the window (fft 2, radix 1).
    for (kernel, parent, bound) in [("fft", 11_483, 140), ("radix", 10_812, 62)] {
        assert!(bound * 20 <= parent, "the bound must stay under 5 % of the parent's count");
        let (cfg, programs, guest) = compute_cell(kernel);
        let mut m = Machine::new(cfg, programs, guest);
        for _ in 0..2_000 {
            m.tick();
        }
        let ((), allocs, _) = counted(|| {
            for _ in 0..4_000 {
                m.tick();
            }
        });
        eprintln!("{kernel}: {allocs} allocations over cycles 2001..=6000");
        assert!(!m.quiesced(), "{kernel} must still be running at cycle 6000");
        assert!(allocs <= bound, "{kernel}: {allocs} allocations in 4 000 warm cycles");
    }
}

#[test]
fn the_audit_sweep_reuses_its_buffers() {
    let run = |audit: bool| {
        let mut cfg = tiny_machine();
        cfg.core.policy = AtomicPolicy::FreeFwd;
        if audit {
            cfg.mem.audit = free_atomics::mem::AuditConfig::on();
        }
        let test = LitmusTest::iriw();
        let (out, allocs, _) = counted(|| test.run_checked(&cfg, &[0, 30, 60, 90], 5_000_000));
        (out.expect("iriw quiesces"), allocs)
    };
    let (plain_out, plain) = run(false);
    let (audited_out, audited) = run(true);
    eprintln!("litmus run: {plain} allocations unaudited, {audited} audited");
    assert_eq!(plain_out, audited_out, "the audit is passive");
    // The sweep's one vector grows by doubling to the resident-line count,
    // and the lock-hold bound reads the caches' own lock records: 3
    // allocations here. A sweep that allocated per resident line would
    // add over a thousand.
    assert!(audited <= plain + 16, "audit added {} allocations", audited - plain);
}

#[test]
fn a_workload_image_costs_the_pages_it_touches() {
    // The benchmark's three shapes: `atomic_grid` and `compute_grid` on 4
    // cores, `noc8_grid` on 8. Each build reserves a 4 MiB guest image but
    // stores to a few dozen of its pages. Here: at most 111 296 bytes.
    // Parent: over 4.2 MB per build, the image zeroed whole.
    let mut most = 0;
    for (cores, scale) in [(4, 0.027), (4, 0.135), (8, 0.042)] {
        for spec in suite::all() {
            let params = WorkloadParams { cores, scale, seed: 7 };
            let (w, _, bytes) = counted(|| spec.build(&params));
            assert_eq!(w.mem.size(), free_atomics::workloads::WORKLOAD_MEM_BYTES);
            assert!(
                bytes <= 256 << 10,
                "{} on {cores} cores at scale {scale}: the build requested {bytes} bytes",
                spec.name
            );
            most = most.max(bytes);
        }
    }
    eprintln!("workload builds: at most {most} bytes requested");
}

#[test]
fn a_warm_campaign_worker_allocates_almost_nothing_per_run() {
    // One worker (`threads: 1`, inline on this thread) runs every case on
    // one machine. A 100-case campaign less a 1-case one of the same seed
    // leaves what cases 2..=100 cost once the first has warmed the worker
    // up: compiling each case, its allowed outcomes, and the runs. The
    // parent, a machine per run: about 211 allocations per run.
    let base = tiny_machine();
    let campaign = |cases| FuzzConfig { cases, threads: 1, seed: 7, ..FuzzConfig::default() };
    let (first, warm_up, _) = counted(|| fuzz_litmus(&base, &campaign(1)));
    let (report, total, _) = counted(|| fuzz_litmus(&base, &campaign(100)));
    assert!(first.ok() && report.ok(), "{report}");
    let runs = report.runs - first.runs;
    let per_run = (total - warm_up) as f64 / runs as f64;
    eprintln!("campaign: {warm_up} allocations for the first case, {per_run:.1} per later run");
    assert!(per_run <= 16.0, "{per_run:.1} allocations per warm run");
}

#[test]
fn the_enumerator_allocates_per_outcome_not_per_state() {
    // The explored states live in one arena: what is left is one vector
    // per outcome, the outcome sets and the arena's growth. The parent
    // boxed every state: 2+2W under the weak model made 391 allocations
    // for 9 outcomes.
    let mut gallery = LitmusTest::all();
    gallery.extend(LitmusTest::weak_gallery());
    assert_eq!(gallery.len(), 23);
    for test in &gallery {
        for model in [MemModel::Tso, MemModel::Weak] {
            let (outcomes, allocs, _) = counted(|| test.allowed_outcomes_under(model));
            let bound = 2 * outcomes.len() as u64 + 64;
            eprintln!("{} / {}: {allocs} allocations, {} outcomes", test.name, model.name(), outcomes.len());
            assert!(allocs <= bound, "{} / {}: {allocs} allocations", test.name, model.name());
        }
    }
}

#[test]
fn a_cell_holds_memory_per_resident_line() {
    // Each of `compute_grid`'s kernels, built and run to completion. A
    // directory or LLC line costs one way in a block sized to its set,
    // and a transaction costs a record only while it is in flight. Here:
    // at most 1.36 MB (fft); 4.4 MB when every touched set held all its
    // ways and every directory way a transaction and a park queue.
    for kernel in ["watersp", "ocean_cp", "lu_cb", "radix", "fft"] {
        let (result, peak) = peak_live(|| {
            let (cfg, programs, guest) = compute_cell(kernel);
            Machine::new(cfg, programs, guest).run(50_000_000).map(|r| r.cycles).map_err(|e| e.to_string())
        });
        let cycles = result.unwrap_or_else(|e| panic!("{kernel}: {e}"));
        eprintln!("{kernel}: peak {peak} live bytes over {cycles} cycles");
        assert!(peak <= 2 << 20, "{kernel}: {peak} bytes live at the peak");
    }
}
