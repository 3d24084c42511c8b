//! Quick end-to-end smoke run: every workload on the detailed simulator
//! under two policies at a small scale, printing cycles / instructions /
//! APKI. Used during development and as a fast sanity gate.

// Non-test code must justify every panic site.
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

use fa_bench::{fmt, row, BenchOpts};
use fa_core::AtomicPolicy;
use fa_sim::presets::icelake_like;

fn main() {
    let opts =
        BenchOpts::from_env_or(BenchOpts { scale: 0.1, cores: 4, ..BenchOpts::default() });
    let base = icelake_like();
    println!(
        "{}",
        row(&["workload".into(), "policy".into(), "cycles".into(), "instrs".into(), "APKI".into()])
    );
    for spec in opts.workloads() {
        for policy in [AtomicPolicy::FencedBaseline, AtomicPolicy::FreeFwd] {
            let t0 = std::time::Instant::now();
            let r = match fa_bench::run_once_checked(&spec, policy, &base, &opts) {
                Ok(r) => r,
                Err(e) => {
                    eprintln!("{} under {}: {e}", spec.name, policy.label());
                    std::process::exit(1);
                }
            };
            println!(
                "{}  ({:.2}s wall)",
                row(&[
                    spec.name.into(),
                    policy.label().into(),
                    r.cycles.to_string(),
                    r.instructions().to_string(),
                    fmt(r.apki(), 2),
                ]),
                t0.elapsed().as_secs_f64()
            );
        }
    }
}
