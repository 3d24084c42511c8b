//! Golden-determinism regression for the interconnect layer.
//!
//! Two guarantees pinned here:
//!
//! 1. The default ideal crossbar reproduces the pre-interconnect sweep
//!    rows **byte-for-byte**. The literals below were captured from the
//!    fixed-latency message path before `mem::noc` existed, when a row
//!    ended after `instructions`; today's rows must start with them and
//!    continue with the `hists` block. If this test fails, the refactor
//!    has changed simulated behavior, not just code shape.
//! 2. The contended crossbar is bit-deterministic: the same grid at any
//!    worker-thread count emits identical rows, including the appended
//!    `net` stats block.

use fa_bench::sweep::{grid, run_grid_supervised, Preset, SupervisorOpts};
use fa_bench::{BenchOpts, MAX_CYCLES};
use fa_core::AtomicPolicy;
use fa_mem::NocConfig;
use fa_workloads::suite;

/// The mini-sweep sizing the goldens were captured with.
fn golden_opts(threads: usize, noc: NocConfig) -> BenchOpts {
    BenchOpts {
        cores: 2,
        scale: 0.05,
        runs: 2,
        drop_slowest: 0,
        seed: 0xF00D,
        threads,
        noc,
        trace: fa_sim::TraceMode::Off,
        check: fa_sim::CheckMode::Off,
        model: fa_sim::MemModel::Tso,
        max_cycles: MAX_CYCLES,
    }
}

fn golden_grid() -> Vec<fa_bench::sweep::SweepCell> {
    let ws = suite::select(&["TATP", "PC"]).expect("suite names");
    grid(&ws, &[AtomicPolicy::FencedBaseline, AtomicPolicy::FreeFwd], &[Preset::Tiny])
}

fn rows(opts: &BenchOpts) -> Vec<String> {
    let (outcome, _) =
        run_grid_supervised(opts, &SupervisorOpts::none(), &golden_grid()).expect("grid");
    assert!(outcome.quarantine.is_empty(), "{:?}", outcome.quarantine);
    outcome.row_lines
}

#[test]
fn ideal_crossbar_reproduces_pre_interconnect_goldens() {
    let got = rows(&golden_opts(1, NocConfig::default()));
    let want = [
        "{\"kernel\":\"TATP\",\"policy\":\"baseline\",\"preset\":\"tiny\",\"runs\":2,\
         \"mean_cycles\":11316.000000,\"rep_cycles\":11230,\"instructions\":12788}",
        "{\"kernel\":\"TATP\",\"policy\":\"FreeAtomics+Fwd\",\"preset\":\"tiny\",\"runs\":2,\
         \"mean_cycles\":8713.500000,\"rep_cycles\":8611,\"instructions\":12792}",
        "{\"kernel\":\"PC\",\"policy\":\"baseline\",\"preset\":\"tiny\",\"runs\":2,\
         \"mean_cycles\":7373.000000,\"rep_cycles\":7214,\"instructions\":13040}",
        "{\"kernel\":\"PC\",\"policy\":\"FreeAtomics+Fwd\",\"preset\":\"tiny\",\"runs\":2,\
         \"mean_cycles\":6709.000000,\"rep_cycles\":6550,\"instructions\":13044}",
    ];
    assert_eq!(got.len(), want.len());
    for (g, w) in got.iter().zip(want) {
        let prefix = &w[..w.len() - 1];
        assert!(
            g.starts_with(prefix) && g[prefix.len()..].starts_with(",\"hists\":{"),
            "ideal-crossbar row drifted from the pre-interconnect golden {w}: {g}"
        );
    }
}

#[test]
fn tso_model_keeps_golden_rows_at_any_thread_count() {
    // FA_MODEL=tso must be a strict no-op: the ordering-annotation and
    // model plumbing may not move a single byte of the historical rows,
    // serial or fanned across workers.
    let want = rows(&golden_opts(1, NocConfig::default()));
    for threads in [1, 8] {
        let mut opts = golden_opts(threads, NocConfig::default());
        opts.model = fa_sim::MemModel::Tso;
        assert_eq!(rows(&opts), want, "FA_MODEL=tso rows drifted at threads={threads}");
    }
}

#[test]
fn contended_crossbar_rows_are_bit_identical_across_thread_counts() {
    let serial = rows(&golden_opts(1, NocConfig::contended(2)));
    for threads in [2, 4] {
        let parallel = rows(&golden_opts(threads, NocConfig::contended(2)));
        assert_eq!(serial, parallel, "contended rows must not depend on FA_THREADS");
    }
    for r in &serial {
        assert!(
            r.contains("\"net\":{\"policy\":\"contended\",\"bw\":2"),
            "contended rows must carry network stats: {r}"
        );
    }
    // Contention must actually bite relative to the ideal goldens.
    assert!(serial[0].contains("\"rep_cycles\""));
    assert_ne!(serial[0], rows(&golden_opts(1, NocConfig::default()))[0]);
}
