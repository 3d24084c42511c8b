//! Regenerates one table or figure of the paper's evaluation:
//! `fig <name>`, with `<name>` an entry of [`fa_bench::figures::FIGURES`]
//! (`fig14_exec_time`, `table2_characterization`, `cpistack`, …). Sized by
//! the usual `FA_*` variables (see fa-bench's crate docs); the grid figures
//! run on the sweep engine (`FA_THREADS`) and write `BENCH_sweep.json`.
//!
//! Exit status: 0 on success, 1 for an unknown or missing name (the valid
//! names are printed) or a configuration, simulation or I/O failure.

// Non-test code must justify every panic site.
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

use fa_bench::figures::FIGURES;

fn main() {
    let arg = std::env::args().nth(1);
    let Some(&(name, figure)) = FIGURES.iter().find(|(name, _)| Some(*name) == arg.as_deref())
    else {
        let names: Vec<&str> = FIGURES.iter().map(|(name, _)| *name).collect();
        eprintln!("usage: fig <name>\nvalid names: {}", names.join(", "));
        std::process::exit(1);
    };
    if let Err(e) = figure(&fa_bench::BenchOpts::from_env()) {
        eprintln!("{name} failed: {e}");
        std::process::exit(1);
    }
}
