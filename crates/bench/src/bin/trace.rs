//! Trace exporter and flight-recorder demo.
//!
//! Default mode runs one workload with full event tracing and writes the
//! timeline as Chrome-trace/Perfetto JSON — open it in `ui.perfetto.dev`.
//! The export is self-validated structurally before it is written, so a
//! malformed file fails the run instead of failing in the viewer.
//!
//! `trace --flight-demo` instead drives an audited machine into a
//! deliberate forward-progress violation (a legal memory round-trip under
//! an impossibly tight stall bound) and prints the crash flight recorder:
//! the last structured events per component, as text and as JSON.
//!
//! # Environment
//!
//! Sized by the usual `FA_*` variables (see fa-bench's crate docs). The
//! export path comes from `FA_TRACE=full:<path>` when given, else
//! `fa_trace.json`; the recording mode here is always `full` — this *is*
//! the trace exporter.

// Non-test code must justify every panic site.
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

use fa_bench::BenchOpts;
use fa_core::AtomicPolicy;
use fa_isa::interp::GuestMem;
use fa_isa::{Kasm, Reg};
use fa_sim::presets::{icelake_like, tiny_machine};
use fa_sim::{flight_json, validate_chrome_trace, Machine, TraceMode};

fn main() {
    if std::env::args().any(|a| a == "--flight-demo") {
        flight_demo();
        return;
    }
    export_timeline();
}

/// Runs the first selected workload in full-trace mode and writes the
/// Perfetto timeline.
fn export_timeline() {
    let opts = BenchOpts {
        trace: TraceMode::Full,
        ..BenchOpts::from_env_or(BenchOpts { scale: 0.05, cores: 2, ..BenchOpts::default() })
    };
    let path = fa_sim::env::trace_setting()
        .1
        .unwrap_or_else(|| "fa_trace.json".to_string());
    let spec = *opts.workloads().first().expect("workload suite is never empty");
    let cfg = opts.config_for(&icelake_like(), AtomicPolicy::FreeFwd);
    let w = spec.build(&opts.params());
    let mut m = Machine::new(cfg, w.programs, w.mem);
    let r = match m.run(400_000_000) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("trace: {} failed: {e}", spec.name);
            std::process::exit(1);
        }
    };
    let json = m.perfetto_trace();
    let events = match validate_chrome_trace(&json) {
        Ok(n) => n,
        Err(e) => {
            eprintln!("trace: export failed self-validation: {e}");
            std::process::exit(1);
        }
    };
    if let Err(e) = std::fs::write(&path, &json) {
        eprintln!("trace: could not write {path}: {e}");
        std::process::exit(1);
    }
    println!(
        "trace: {} on {} cores, {} cycles, {} instrs -> {} trace events in {path} \
         (open in ui.perfetto.dev)",
        spec.name,
        opts.cores,
        r.cycles,
        r.instructions(),
        events
    );
}

/// Forces a deterministic invariant-audit failure and shows the flight
/// recorder that rides on the resulting error.
fn flight_demo() {
    // A spin loop performing legal loads; an absurdly tight
    // forward-progress bound turns its first memory round-trip into an
    // audit violation — deliberately, to exercise the crash path.
    let mut k = Kasm::new();
    k.li(Reg::R1, 0x200);
    let top = k.here_label();
    k.ld(Reg::R2, Reg::R1, 0);
    k.beq_imm(Reg::R2, 0, top);
    k.halt();
    let spin = k.finish().expect("spin kernel assembles");
    let mut cfg = tiny_machine().with_trace(TraceMode::Flight);
    cfg.mem.audit =
        fa_mem::AuditConfig { enabled: true, max_core_stall: 2, ..fa_mem::AuditConfig::on() };
    let mut m = Machine::new(cfg, vec![spin], GuestMem::new(1 << 12));
    match m.run(100_000) {
        Ok(_) => {
            eprintln!("flight-demo: expected an audit violation, but the run quiesced");
            std::process::exit(1);
        }
        Err(e) => {
            println!("flight-demo: injected violation produced the expected error:\n");
            println!("{e}");
            let tail = e.snapshot().map(|s| s.trace_tail.clone()).unwrap_or_default();
            println!("\nflight recorder as JSON:\n{}", flight_json(&tail));
            if tail.is_empty() {
                eprintln!("flight-demo: flight recorder was empty");
                std::process::exit(1);
            }
        }
    }
}
