//! Ablation sweeps over the design parameters DESIGN.md calls out:
//!
//! * **AQ size** — the paper's §4.3 sensitivity analysis concludes 4
//!   entries suffice; sweep 1/2/4/8.
//! * **Watchdog threshold** — §3.2.5 picks 10 000 cycles to avoid
//!   unnecessary squashes; sweep 300/1 000/10 000/100 000.
//! * **Forwarding chain limit** — §3.3.4 caps chains at 32 against
//!   livelock; sweep 0/1/4/32.
//!
//! Uses a representative atomic-intensive subset to keep runtime sane;
//! select other workloads with `FA_WORKLOADS`. Each `(workload, value)`
//! cell is independent, so the grid fans across `FA_THREADS` sweep
//! workers; a failed cell is reported and the binary exits nonzero.

// Non-test code must justify every panic site.
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

use fa_bench::{fmt, row, run_once_checked, BenchOpts};
use fa_core::AtomicPolicy;
use fa_sim::machine::MachineConfig;
use fa_sim::presets::icelake_like;
use fa_workloads::suite;

fn subset(opts: &BenchOpts) -> Vec<fa_workloads::WorkloadSpec> {
    if fa_sim::env::var("FA_WORKLOADS").is_some() {
        return opts.workloads();
    }
    ["TATP", "AS", "barnes", "canneal"]
        .iter()
        .map(|n| suite::by_name(n).expect("known"))
        .collect()
}

/// Runs one ablation axis: every `(workload, value)` cell on the sweep
/// engine, rows normalized to the leftmost value. Returns false if any
/// cell failed.
fn sweep(
    title: &str,
    opts: &BenchOpts,
    values: &[u64],
    apply: impl Fn(&mut MachineConfig, u64) + Sync,
) -> bool {
    println!("\n## Ablation — {title}\n");
    let mut header = vec!["workload".to_string()];
    header.extend(values.iter().map(|v| v.to_string()));
    println!("{}", row(&header));
    let specs = subset(opts);
    let jobs: Vec<(fa_workloads::WorkloadSpec, u64)> = specs
        .iter()
        .flat_map(|&s| values.iter().map(move |&v| (s, v)))
        .collect();
    let results = fa_sim::run_cells(&jobs, opts.threads, |_, &(spec, v)| {
        let mut cfg = icelake_like();
        cfg.core.policy = AtomicPolicy::FreeFwd;
        apply(&mut cfg, v);
        run_once_checked(&spec, AtomicPolicy::FreeFwd, &cfg, opts)
    });
    let mut ok = true;
    for (spec, chunk) in specs.iter().zip(results.chunks(values.len())) {
        let mut cells = vec![spec.name.to_string()];
        let mut base = None;
        for (r, &v) in chunk.iter().zip(values) {
            match r {
                Ok(r) => {
                    let b = *base.get_or_insert(r.cycles as f64);
                    cells.push(fmt(r.cycles as f64 / b, 3));
                }
                Err(e) => {
                    ok = false;
                    eprintln!("{} at {title}={v}: {e}", spec.name);
                    cells.push("FAIL".to_string());
                }
            }
        }
        println!("{}", row(&cells));
    }
    ok
}

fn main() {
    let opts =
        BenchOpts::from_env_or(BenchOpts { scale: 0.15, cores: 4, ..BenchOpts::default() });
    println!("(cycles normalized to the leftmost configuration; lower is better)");
    let mut ok = true;
    ok &= sweep("Atomic Queue entries (paper: 4)", &opts, &[1, 2, 4, 8], |c, v| {
        c.core.aq_size = v as usize;
    });
    ok &= sweep(
        "watchdog threshold in cycles (paper: 10000)",
        &opts,
        &[300, 1_000, 10_000, 100_000],
        |c, v| {
            c.core.watchdog_threshold = v;
        },
    );
    ok &= sweep(
        "forwarding chain limit (paper: 32; 0 disables forwarding)",
        &opts,
        &[0, 1, 4, 32],
        |c, v| {
            c.core.fwd_chain_max = v as u32;
        },
    );
    if !ok {
        std::process::exit(1);
    }
}
