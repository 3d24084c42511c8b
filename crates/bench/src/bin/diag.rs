//! Developer diagnostic: per-policy counter dump for selected workloads.

// Non-test code must justify every panic site.
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

use fa_bench::BenchOpts;
use fa_core::AtomicPolicy;
use fa_sim::presets::icelake_like;

fn main() {
    let opts =
        BenchOpts::from_env_or(BenchOpts { scale: 0.1, cores: 4, ..BenchOpts::default() });
    let mut failed = false;
    for spec in opts.workloads() {
        for policy in AtomicPolicy::ALL {
            // A failed run prints its diagnostic snapshot (per-core ROB
            // heads, locked lines, busy directory entries) and moves on, so
            // one wedged configuration doesn't hide the rest of the table.
            let r = match fa_bench::run_once_checked(&spec, policy, &icelake_like(), &opts) {
                Ok(r) => r,
                Err(e) => {
                    failed = true;
                    eprintln!("{:<14} {:<16} FAILED: {e}", spec.name, policy.label());
                    continue;
                }
            };
            let a = r.aggregate();
            println!(
                "{:<14} {:<16} cycles={:<8} atomics={:<6} wd={:<4} sq_br={:<5} sq_mdv={:<5} \
                 sq_inv={:<6} squop={:<8} fba={:<5} fbs={:<5} sleep={:<8} parked={}",
                spec.name,
                policy.label(),
                r.cycles,
                a.atomics,
                a.watchdog_fires,
                a.squashes_branch,
                a.squashes_memorder,
                a.squashes_inval,
                a.squashed_uops,
                a.atomics_fwd_from_atomic,
                a.atomics_fwd_from_store,
                a.sleep_cycles,
                r.mem.cores.iter().map(|c| c.parked_on_lock).sum::<u64>(),
            );
        }
    }
    if failed {
        std::process::exit(1);
    }
}
