//! Full-execution TSO conformance sweep.
//!
//! Runs the workload suite with the axiomatic x86-TSO + RMW-atomicity
//! checker armed on every run, across the grid
//! {baseline, free-atomics} × {ideal, contended crossbar} × {chaos off, on}:
//! every completed execution's data events and write-serialization log are
//! validated against the full axioms (`sc-per-location`, ghb acyclicity,
//! fence/RMW ordering, RMW atomicity), not just its architectural outputs.
//! Prints one line per cell and a violation summary; exits nonzero on any
//! violation or failed run.
//!
//! # Environment
//!
//! Sized by the usual `FA_CORES` / `FA_SCALE` / `FA_WORKLOADS` knobs (small
//! defaults: 4 cores, scale 0.1). `FA_CHECK` defaults to `tso` here —
//! setting it to `off` reduces the bin to a plain smoke run, which is only
//! useful for measuring checker overhead. `FA_MODEL=weak` runs the same
//! grid on the acquire/release-native machine with the parameterized weak
//! axioms armed instead of the TSO ones. Each cell runs under
//! [`fa_sim::supervise`] with the `FA_RETRIES` / `FA_CELL_BUDGET`
//! watchdogs, so a panicking or wedged cell is counted as a failure
//! instead of killing or hanging the sweep.

// Non-test code must justify every panic site.
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

use fa_bench::sweep::SupervisorOpts;
use fa_bench::{row, BenchOpts};
use fa_core::AtomicPolicy;
use fa_mem::{ChaosConfig, NocConfig};
use fa_sim::error::CellFailure;
use fa_sim::presets::icelake_like;
use fa_sim::{env, supervise, CheckMode, Machine};

fn main() {
    let mut opts =
        BenchOpts::from_env_or(BenchOpts { scale: 0.1, cores: 4, ..BenchOpts::default() });
    opts.check = env::check_setting_or(CheckMode::Tso);
    let sup = SupervisorOpts::from_env();
    let max_cycles = sup.budget.max_cycles.unwrap_or(400_000_000);
    let base = icelake_like();
    let params = opts.params();
    let policies = [AtomicPolicy::FencedBaseline, AtomicPolicy::FreeFwd];
    let nocs = [("ideal", NocConfig::default()), ("contended", NocConfig::contended(2))];
    let chaos = [("chaos=off", None), ("chaos=on", Some(opts.seed))];
    println!(
        "{}",
        row(&[
            "workload".into(),
            "policy".into(),
            "noc".into(),
            "chaos".into(),
            "cycles".into(),
            "check".into(),
        ])
    );
    let mut runs = 0u64;
    let mut violations = 0u64;
    let mut failures = 0u64;
    for spec in opts.workloads() {
        for policy in policies {
            for (noc_name, noc) in &nocs {
                for (chaos_name, chaos_seed) in &chaos {
                    let mut cfg = base.clone().with_check(opts.check);
                    cfg.core.policy = policy;
                    cfg.core.model = opts.model;
                    cfg.mem.noc = *noc;
                    cfg.mem.progress = opts.progress;
                    if let Some(seed) = chaos_seed {
                        cfg.mem.chaos = ChaosConfig::stress(*seed);
                    }
                    runs += 1;
                    // The closure's Err carries a machine snapshot; this
                    // cold-path size is fine.
                    #[allow(clippy::result_large_err)]
                    let outcome = supervise(sup.retries, sup.budget.wall, || {
                        let w = spec.build(&params);
                        Machine::new(cfg.clone(), w.programs, w.mem).run(max_cycles)
                    });
                    let status = match outcome {
                        Ok(r) => {
                            println!(
                                "{}",
                                row(&[
                                    spec.name.into(),
                                    policy.label().into(),
                                    (*noc_name).into(),
                                    (*chaos_name).into(),
                                    r.cycles.to_string(),
                                    opts.check.name().into(),
                                ])
                            );
                            continue;
                        }
                        Err(q) => match *q.failure {
                            CellFailure::Sim(e @ fa_sim::SimError::Tso { .. }) => {
                                violations += 1;
                                format!("VIOLATION: {e}")
                            }
                            f => {
                                failures += 1;
                                format!("FAILED (after {} attempt(s)): {f}", q.attempts)
                            }
                        },
                    };
                    println!(
                        "{} {status}",
                        row(&[
                            spec.name.into(),
                            policy.label().into(),
                            (*noc_name).into(),
                            (*chaos_name).into(),
                            "-".into(),
                            opts.check.name().into(),
                        ])
                    );
                }
            }
        }
    }
    println!("conformance: {runs} runs, violations: {violations}, other failures: {failures}");
    if violations > 0 || failures > 0 {
        std::process::exit(1);
    }
}
