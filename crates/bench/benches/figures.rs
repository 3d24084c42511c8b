//! `cargo bench` entry point that regenerates every table and figure of
//! the paper's evaluation section (sized via FA_CORES / FA_SCALE /
//! FA_RUNS / FA_THREADS; see fa-bench's crate docs).

fn main() {
    // `cargo bench` passes --bench (and possibly filter args); ignore them.
    let opts = fa_bench::BenchOpts::from_env();
    println!("# Free Atomics — evaluation reproduction");
    println!(
        "(cores={}, scale={}, runs={}, drop={}, threads={})",
        opts.cores, opts.scale, opts.runs, opts.drop_slowest, opts.threads
    );
    for (name, figure) in fa_bench::figures::FIGURES {
        if let Err(e) = figure(&opts) {
            eprintln!("{name} failed: {e}");
            std::process::exit(1);
        }
    }
}
