//! Supervised sweep driver: measures a `(kernel, policy, preset)` grid on
//! the sweep engine under per-cell isolation, prints a status line
//! per cell, and writes the `BENCH_sweep.json` throughput report (wall
//! clock, simulated cycles/sec, simulated MIPS, any quarantined cells).
//!
//! Sized by the usual `FA_*` variables; additionally:
//!
//! | variable | default | meaning |
//! |---|---|---|
//! | `FA_POLICIES` | all four | comma-separated policy labels |
//! | `FA_PRESETS` | `icelake` | comma-separated preset names |
//! | `FA_THREADS` | 0 (auto) | sweep worker threads |
//! | `FA_BENCH_JSON` | `BENCH_sweep.json` | report destination |
//! | `FA_RETRIES` | 1 | failed-cell retries before quarantine |
//! | `FA_CELL_BUDGET` | unset | `<cycles>` or `<cycles>:<wall_secs>` per cell |
//! | `FA_CHECKPOINT` | unset | append-only journal for kill/resume |
//!
//! Rows are a pure function of the simulated cells, so re-running with a
//! different `FA_THREADS` — or killing the campaign and resuming it from
//! the `FA_CHECKPOINT` journal — must reproduce them byte-for-byte; only
//! the timing block changes.
//!
//! Exit status: 0 for a clean campaign, 1 for a configuration or I/O
//! failure, 2 when any cell was quarantined (the report is still written).

// Non-test code must justify every panic site.
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

use fa_bench::sweep::{
    grid, policies_from_env, presets_from_env, run_grid_supervised, SupervisorOpts, SweepReport,
};
use fa_bench::BenchOpts;

fn main() {
    let opts = BenchOpts::from_env();
    let sup = SupervisorOpts::from_env();
    let cells = grid(&opts.workloads(), &policies_from_env(), &presets_from_env());
    println!(
        "# sweep: {} cells (cores={}, scale={}, runs={}, drop={}, threads={}, noc={}, \
         retries={}, budget={:?}, checkpoint={:?})",
        cells.len(),
        opts.cores,
        opts.scale,
        opts.runs,
        opts.drop_slowest,
        opts.threads,
        opts.noc.policy.name(),
        sup.retries,
        sup.budget,
        sup.checkpoint,
    );
    let (outcome, timing) = match run_grid_supervised(&opts, &sup, &cells) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("sweep failed: {e}");
            std::process::exit(1);
        }
    };
    if outcome.resumed > 0 {
        println!("resumed {} completed cell(s) from the checkpoint journal", outcome.resumed);
    }
    let quarantined: Vec<String> = outcome.quarantine.iter().map(|q| q.cell.clone()).collect();
    for cell in &cells {
        let name = cell.name();
        let status = if quarantined.contains(&name) { "QUARANTINED" } else { "ok" };
        println!("{name}: {status}");
    }
    let report = SweepReport::from_outcome("sweep", &opts, outcome, timing);
    println!("\n{}", report.timing_line());
    match report.write() {
        Ok(path) => println!("wrote {}", path.display()),
        Err(e) => {
            eprintln!("sweep: could not write report: {e}");
            std::process::exit(1);
        }
    }
    if !report.quarantine.is_empty() {
        eprintln!("sweep: {} cell(s) quarantined:", report.quarantine.len());
        for q in &report.quarantine {
            let failure = q.failure.to_string();
            let first = failure.lines().next().unwrap_or("(no detail)");
            eprintln!("  {} after {} attempt(s): {first}", q.cell, q.attempts);
        }
        std::process::exit(2);
    }
}
