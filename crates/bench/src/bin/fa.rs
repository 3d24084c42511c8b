//! `fa` — the one driver binary: `fa <command> [args]`, with the commands
//! listed in [`COMMANDS`] (run `fa` alone to print them) and every `FA_*`
//! variable in `fa knobs`.
//!
//! Exit status, decided in one place ([`status`]): 0 for a clean run; 1 for
//! a configuration, I/O or simulation failure and for a fuzz or conformance
//! finding; 2 when the campaign completed but a cell was quarantined or
//! `report` found a regression (the report is still written).

// Non-test code must justify every panic site.
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

use fa_bench::figures::{self, Figure, ABLATION, FIGURES};
use fa_bench::report::{diff, parse_rows, CpiRow};
use fa_bench::sweep::{
    grid, policies_from_env, presets_from_env, run_grid_supervised, Preset, SupervisorOpts,
    SweepCell, SweepReport,
};
use fa_bench::{fmt, row, BenchOpts};
use fa_core::AtomicPolicy;
use fa_isa::interp::GuestMem;
use fa_isa::{Kasm, Reg};
use fa_mem::{CoreMemStats, NocConfig};
use fa_sim::error::{CellFailure, RunFailure, SimError};
use fa_sim::fuzz::{fuzz_litmus, FuzzConfig};
use fa_sim::machine::{MachineConfig, RunResult};
use fa_sim::presets::{icelake_like, tiny_machine};
use fa_sim::{
    env, flight_json, supervise, validate_chrome_trace, CheckMode, Counter, Machine, TraceMode,
};
use std::fmt::Write as _;
use std::process::ExitCode;

/// Why a command did not end clean. The text goes to stderr.
#[derive(Debug)]
enum Failure {
    /// A configuration, I/O or simulation failure, or a fuzz/conformance
    /// finding.
    Failed(String),
    /// The campaign ran to its end, but under supervision a cell (or the
    /// whole fuzz campaign) was quarantined.
    Quarantined(String),
    /// `report` compared the files and a cell regressed; the verdict is on
    /// stdout.
    Regressed,
}
use Failure::{Failed, Quarantined, Regressed};

type Outcome = Result<(), Failure>;

/// The exit contract.
fn status(outcome: &Outcome) -> u8 {
    match outcome {
        Ok(()) => 0,
        Err(Failed(_)) => 1,
        Err(Quarantined(_) | Regressed) => 2,
    }
}

/// One subcommand: what `fa` prints about it, what its unset sizing knobs
/// read as, and the function that runs it on the arguments after its name.
struct Command {
    name: &'static str,
    help: &'static str,
    /// `FA_CORES` when unset.
    cores: usize,
    /// `FA_SCALE` when unset.
    scale: f64,
    /// `FA_CHECK` when unset.
    check: CheckMode,
    run: fn(&Command, &[String]) -> Outcome,
}

impl Command {
    /// The environment's options over this command's defaults.
    fn opts(&self) -> BenchOpts {
        BenchOpts::from_env_or(BenchOpts {
            cores: self.cores,
            scale: self.scale,
            check: self.check,
            ..BenchOpts::default()
        })
    }
}

const fn command(
    name: &'static str,
    (cores, scale, check): (usize, f64, CheckMode),
    run: fn(&Command, &[String]) -> Outcome,
    help: &'static str,
) -> Command {
    Command { name, help, cores, scale, check, run }
}

/// The paper's sizing scaled to a workstation.
const FULL: (usize, f64, CheckMode) = (8, 0.25, CheckMode::Off);

const COMMANDS: &[Command] = &[
    command("sweep", FULL, sweep, "measure the FA_WORKLOADS x FA_POLICIES x FA_PRESETS grid under supervision and write the FA_BENCH_JSON report"),
    command("fig", FULL, fig, "fig <name|all>: regenerate one table or figure of the paper's evaluation (`fa fig` lists the names)"),
    command("report", FULL, report, "report <baseline.json> [current.json]: diff the cycle accounting of two sweep reports (current defaults to FA_BENCH_JSON)"),
    command("conformance", (4, 0.1, CheckMode::Tso), conformance, "run every workload x all four policies x {ideal, contended} x {chaos off, on} with the axiomatic checker armed"),
    command("fuzz", (8, 0.25, CheckMode::Tso), fuzz, "differential litmus fuzzing under fault injection against the x86-TSO enumerator (FA_FUZZ_*)"),
    command("ablation", (4, 0.15, CheckMode::Off), ablation, "sweep AQ size, watchdog threshold and forwarding-chain limit under FreeAtomics+Fwd"),
    command("trace", (2, 0.05, CheckMode::Off), trace, "trace [--flight-demo]: export the first workload's Perfetto timeline (FA_TRACE=full:<path>), or demo the crash flight recorder"),
    command("knobs", FULL, knobs, "print every FA_* variable: default, grammar, meaning"),
];

/// Every command with its help line, and its sizing where that is not
/// the `fa knobs` default.
fn usage() -> String {
    let mut s = String::from("usage: fa <command> [args]\n");
    for c in COMMANDS {
        let _ = write!(s, "  {:<12} {}", c.name, c.help);
        if (c.cores, c.scale, c.check) != FULL {
            let (cores, scale, check) = (c.cores, c.scale, c.check.name());
            let _ = write!(s, " [FA_CORES={cores} FA_SCALE={scale} FA_CHECK={check}]");
        }
        s.push('\n');
    }
    s
}

/// Runs the command `args` names.
fn dispatch(args: &[String]) -> Outcome {
    let cmd = args.first().and_then(|name| COMMANDS.iter().find(|c| c.name == name));
    match cmd {
        Some(cmd) => (cmd.run)(cmd, &args[1..]),
        None => Err(Failed(usage())),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = dispatch(&args);
    if let Err(Failed(text) | Quarantined(text)) = &outcome {
        eprintln!("{}", text.trim_end());
    }
    ExitCode::from(status(&outcome))
}

/// The knob table as markdown; README quotes it and ci.sh diffs the two.
fn knobs(_: &Command, _: &[String]) -> Outcome {
    println!("| variable | default | grammar | meaning |\n|---|---|---|---|");
    for k in env::KNOBS {
        println!("| `{}` | {} | {} | {} |", k.name, k.default, k.grammar, k.meaning);
    }
    Ok(())
}

/// One line of counters from a cell's representative run.
fn counters(r: &RunResult) -> String {
    let a = r.aggregate();
    format!(
        "cycles={:<8} instrs={:<9} apki={:<6} atomics={:<6} wd={:<4} sq_br={:<5} sq_mdv={:<5} \
         sq_inv={:<6} squop={:<8} fba={:<5} fbs={:<5} sleep={:<8} parked={}",
        r.cycles,
        r.instructions(),
        fmt(a.apki(), 2),
        a.atomics,
        a.watchdog_fires,
        a.squashes_branch,
        a.squashes_memorder,
        a.squashes_inval,
        a.squashed_uops,
        a.atomics_fwd_from_atomic,
        a.atomics_fwd_from_store,
        a.sleep_cycles,
        CoreMemStats::merged(&r.mem.cores).parked_on_lock,
    )
}

/// Rows are a pure function of the simulated cells, so re-running with a
/// different `FA_THREADS` — or killing the campaign and resuming it from the
/// `FA_CHECKPOINT` journal — reproduces them byte-for-byte; only the timing
/// block changes. Each cell prints its representative run's counters, or
/// `QUARANTINED`, or `resumed` when the journal already held it.
fn sweep(cmd: &Command, _: &[String]) -> Outcome {
    let opts = cmd.opts();
    let sup = SupervisorOpts { checkpoint: env::path("FA_CHECKPOINT") };
    let cells = grid(&opts.workloads(), &policies_from_env(), &presets_from_env());
    println!(
        "# sweep: {} cells (cores={}, scale={}, runs={}, drop={}, threads={}, noc={}, \
         max_cycles={}, checkpoint={:?})",
        cells.len(),
        opts.cores,
        opts.scale,
        opts.runs,
        opts.drop_slowest,
        opts.threads,
        opts.noc.policy.name(),
        opts.max_cycles,
        sup.checkpoint,
    );
    let (outcome, timing) = run_grid_supervised(&opts, &sup, &cells)
        .map_err(|e| Failed(format!("sweep failed: {e}")))?;
    if outcome.resumed > 0 {
        println!("resumed {} completed cell(s) from the checkpoint journal", outcome.resumed);
    }
    for (cell, result) in cells.iter().zip(&outcome.results) {
        let name = cell.name();
        let status = match result {
            Some(r) => counters(r.summary.representative()),
            None if outcome.quarantine.iter().any(|q| q.cell == name) => "QUARANTINED".into(),
            None => "resumed".into(),
        };
        println!("{name}: {status}");
    }
    let report = SweepReport::from_outcome("sweep", &opts, outcome, timing);
    println!("\n{}", report.timing_line());
    let path =
        report.write().map_err(|e| Failed(format!("sweep: could not write report: {e}")))?;
    println!("wrote {}", path.display());
    if report.quarantine.is_empty() {
        return Ok(());
    }
    let mut text = format!("sweep: {} cell(s) quarantined:", report.quarantine.len());
    for q in &report.quarantine {
        let failure = q.failure.to_string();
        let first = failure.lines().next().unwrap_or("(no detail)");
        let _ = write!(text, "\n  {}: {first}", q.cell);
    }
    Err(Quarantined(text))
}

/// The selected figures' distinct cells are one campaign on the sweep
/// engine, whose report goes to `FA_BENCH_JSON`; a failed cell is an error
/// naming the first selected figure that reads it, never a partial table.
fn fig(cmd: &Command, args: &[String]) -> Outcome {
    let wanted = args.first().map(String::as_str);
    let selected: Vec<&Figure> =
        FIGURES.iter().filter(|f| wanted == Some("all") || wanted == Some(f.name)).collect();
    if selected.is_empty() {
        let names: Vec<&str> = FIGURES.iter().map(|f| f.name).collect();
        return Err(Failed(format!("usage: fa fig <name|all>\nvalid names: {}", names.join(", "))));
    }
    let opts = cmd.opts();
    figures(&opts, &selected).map_err(|e| {
        let name = selected.iter().find(|f| f.fails_with(&opts, &e)).map_or("fig", |f| f.name);
        Failed(format!("{name} failed: {e}"))
    })
}

/// Runs `selected` ([`figures::run`]), then prints the campaign's timing
/// line and writes its report, if it ran one.
fn figures(opts: &BenchOpts, selected: &[&Figure]) -> Result<(), SimError> {
    if let Some(report) = figures::run(opts, selected)? {
        println!("\n{}", report.timing_line());
        match report.write() {
            Ok(path) => println!("wrote {}", path.display()),
            Err(e) => eprintln!("warning: could not write sweep report: {e}"),
        }
    }
    Ok(())
}

fn read_rows(path: &str) -> Result<Vec<CpiRow>, Failure> {
    let text =
        std::fs::read_to_string(path).map_err(|e| Failed(format!("report: {path}: {e}")))?;
    let rows = parse_rows(&text);
    if rows.is_empty() {
        return Err(Failed(format!(
            "report: {path}: no rows with a cpi block (not a sweep report written with cycle \
             accounting?)"
        )));
    }
    Ok(rows)
}

/// Total core cycles past the row threshold, or any taxonomy leaf past the
/// leaf threshold (see `fa_bench::report`), is a regression.
fn report(_: &Command, args: &[String]) -> Outcome {
    let (baseline, current) = match args {
        [b] => (b.clone(), SweepReport::default_path().display().to_string()),
        [b, c] => (b.clone(), c.clone()),
        _ => return Err(Failed("usage: fa report <baseline.json> [current.json]".into())),
    };
    println!("# report: {baseline} (baseline) vs {current} (current)\n");
    let d = diff(&read_rows(&baseline)?, &read_rows(&current)?)
        .map_err(|e| Failed(format!("report: {e}")))?;
    print!("{}", d.render());
    if d.regressed() {
        return Err(Regressed);
    }
    Ok(())
}

/// The cells of `fa conformance`: `FA_WORKLOADS` × all four policies on the
/// Icelake-like machine, on the ideal and the contended crossbar whatever
/// `FA_NOC` says, without and with fault injection seeded by the options'.
fn conformance_cells(opts: &BenchOpts) -> Vec<SweepCell> {
    let cells = grid(&opts.workloads(), &AtomicPolicy::ALL, &[Preset::Icelake]);
    let mut points = Vec::with_capacity(4 * cells.len());
    for noc in [NocConfig::default(), NocConfig::contended(2)] {
        for chaos in [None, Some(opts.seed)] {
            points.extend(cells.iter().map(|c| SweepCell { chaos, ..c.on_noc(opts, noc) }));
        }
    }
    points
}

/// Every completed execution's data events and write-serialization log are
/// validated against the full axioms of `FA_MODEL`, not just its outputs.
/// `FA_CHECK=off` reduces this to a plain smoke run, which is only useful
/// for measuring checker overhead. One campaign on the grid engine of one
/// run a cell, so a panicking or wedged cell is quarantined by the engine
/// and counted here instead of killing or hanging the grid.
fn conformance(cmd: &Command, _: &[String]) -> Outcome {
    let opts = BenchOpts { runs: 1, drop_slowest: 0, ..cmd.opts() };
    let cells = conformance_cells(&opts);
    let header = ["workload", "policy", "noc", "chaos", "cycles", "check"];
    println!("{}", row(&header.map(String::from)));
    let (outcome, _) = run_grid_supervised(&opts, &SupervisorOpts::none(), &cells)
        .map_err(|e| Failed(format!("conformance failed: {e}")))?;
    let (mut violations, mut failures) = (0u64, 0u64);
    let mut quarantined = outcome.quarantine.iter();
    for (cell, result) in cells.iter().zip(&outcome.results) {
        let line = |cycles: String| {
            row(&[
                cell.workload.name.into(),
                cell.policy.label().into(),
                cell.noc.unwrap_or(opts.noc).policy.name().into(),
                if cell.chaos.is_some() { "chaos=on" } else { "chaos=off" }.into(),
                cycles,
                opts.check.name().into(),
            ])
        };
        if let Some(r) = result {
            println!("{}", line(r.summary.representative().cycles.to_string()));
            continue;
        }
        let q = quarantined.next().expect("without a journal, no result means quarantined");
        let status = match &q.failure {
            CellFailure::Sim(e @ SimError::Run { cause: RunFailure::Tso(_), .. }) => {
                violations += 1;
                format!("VIOLATION: {e}")
            }
            f => {
                failures += 1;
                format!("FAILED: {f}")
            }
        };
        println!("{} {status}", line("-".into()));
    }
    let runs = cells.len();
    let summary =
        format!("conformance: {runs} runs, violations: {violations}, other failures: {failures}");
    println!("{summary}");
    if violations > 0 || failures > 0 {
        return Err(Failed(summary));
    }
    Ok(())
}

fn fuzz_config(opts: &BenchOpts) -> FuzzConfig {
    let base = FuzzConfig::default();
    FuzzConfig {
        cases: env::get("FA_FUZZ_CASES", str::parse).unwrap_or(100),
        seed: env::get("FA_FUZZ_SEED", str::parse).unwrap_or(base.seed),
        max_threads: env::get("FA_FUZZ_MAX_THREADS", str::parse).unwrap_or(base.max_threads),
        max_ops: env::get("FA_FUZZ_MAX_OPS", str::parse).unwrap_or(base.max_ops),
        threads: opts.threads,
        check: opts.check,
        model: opts.model,
        ..base
    }
}

/// The machine every fuzz case starts from. The campaign sets policy,
/// interconnect, fault injection and audit per case, so what the options
/// contribute is the trace mode.
fn fuzz_base(opts: &BenchOpts) -> MachineConfig {
    opts.config_for(&tiny_machine(), AtomicPolicy::FencedBaseline)
}

/// Case generation is serial and seeded, so the report is bit-identical at
/// any `FA_THREADS`; each failure prints with its replay identity (seed,
/// case index, policy). The whole campaign runs under [`supervise`]: a panic
/// anywhere in the fuzzer is caught and reported (exit 2) instead of
/// unwinding.
fn fuzz(cmd: &Command, _: &[String]) -> Outcome {
    let opts = cmd.opts();
    let fcfg = fuzz_config(&opts);
    let base = fuzz_base(&opts);
    println!(
        "# fuzz: {} cases (seed={}, shape={}x{}, model={}, check={}, trace={})",
        fcfg.cases,
        fcfg.seed,
        fcfg.max_threads,
        fcfg.max_ops,
        fcfg.model.name(),
        fcfg.check.name(),
        opts.trace.name(),
    );
    let report = supervise(|| Ok(fuzz_litmus(&base, &fcfg)))
        .map_err(|f| Quarantined(format!("fuzz campaign quarantined: {f}")))?;
    print!("{report}");
    if !report.ok() {
        return Err(Failed(format!("fuzz: {} finding(s)", report.failures.len())));
    }
    Ok(())
}

/// The ablation tables ([`ABLATION`]): one campaign on the grid engine, so
/// `FA_RUNS`/`FA_DROP` and the start offsets apply and a failed cell is an
/// error naming it.
fn ablation(cmd: &Command, _: &[String]) -> Outcome {
    figures(&cmd.opts(), &[&ABLATION]).map_err(|e| Failed(format!("ablation failed: {e}")))
}

fn trace(cmd: &Command, args: &[String]) -> Outcome {
    if args.iter().any(|a| a == "--flight-demo") {
        return flight_demo();
    }
    // The recording mode here is always `full` — this *is* the exporter.
    let opts = BenchOpts { trace: TraceMode::Full, ..cmd.opts() };
    let path = env::get("FA_TRACE", env::parse_trace_setting)
        .and_then(|(_, path)| path)
        .unwrap_or_else(|| "fa_trace.json".to_string());
    let spec = *opts.workloads().first().expect("workload suite is never empty");
    let cfg = opts.config_for(&icelake_like(), AtomicPolicy::FreeFwd);
    let w = spec.build(&opts.params());
    let mut m = Machine::new(cfg, w.programs, w.mem);
    let r = m
        .run(opts.max_cycles)
        .map_err(|e| Failed(format!("trace: {} failed: {e}", spec.name)))?;
    // Self-validated structurally before it is written, so a malformed
    // file fails the run instead of failing in the viewer.
    let json = m.perfetto_trace();
    let events = validate_chrome_trace(&json)
        .map_err(|e| Failed(format!("trace: export failed self-validation: {e}")))?;
    std::fs::write(&path, &json)
        .map_err(|e| Failed(format!("trace: could not write {path}: {e}")))?;
    println!(
        "trace: {} on {} cores, {} cycles, {} instrs -> {} trace events in {path} \
         (open in ui.perfetto.dev)",
        spec.name,
        opts.cores,
        r.cycles,
        r.instructions(),
        events
    );
    Ok(())
}

/// Forces a deterministic failure on an audited machine and shows the
/// flight recorder that rides on the resulting error: the last structured
/// events per component, as text and as JSON.
fn flight_demo() -> Outcome {
    // A spin loop performing legal loads; an absurdly tight no-commit
    // bound turns its first memory round-trip into a `core-commit`
    // progress failure — deliberately, to exercise the crash path.
    let mut k = Kasm::new();
    k.li(Reg::R1, 0x200);
    let top = k.here_label();
    k.ld(Reg::R2, Reg::R1, 0);
    k.beq_imm(Reg::R2, 0, top);
    k.halt();
    let spin = k.finish().expect("spin kernel assembles");
    let mut cfg = tiny_machine().with_trace(TraceMode::Flight);
    cfg.mem.audit = fa_mem::AuditConfig::on();
    cfg.mem.progress.stall_cycles = 2;
    let mut m = Machine::new(cfg, vec![spin], GuestMem::new(1 << 12));
    let Err(e) = m.run(100_000) else {
        return Err(Failed(
            "flight-demo: expected a progress failure, but the run quiesced".into(),
        ));
    };
    println!("flight-demo: injected failure produced the expected error:\n");
    println!("{e}");
    let tail = e.snapshot().map(|s| s.trace_tail.clone()).unwrap_or_default();
    println!("\nflight recorder as JSON:\n{}", flight_json(&tail));
    if tail.is_empty() {
        return Err(Failed("flight-demo: flight recorder was empty".into()));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use fa_mem::ChaosConfig;
    use fa_sim::MemModel;

    fn args(words: &[&str]) -> Vec<String> {
        words.iter().map(|w| w.to_string()).collect()
    }

    #[test]
    fn commands_are_unique_and_described() {
        for (i, c) in COMMANDS.iter().enumerate() {
            assert!(COMMANDS[..i].iter().all(|o| o.name != c.name), "{} listed twice", c.name);
            assert!(!c.help.is_empty(), "{} has no help text", c.name);
            assert!(c.cores > 0 && c.scale > 0.0, "{} has no sizing", c.name);
        }
    }

    #[test]
    fn unknown_or_missing_command_lists_the_commands_and_exits_1() {
        for bad in [args(&[]), args(&["fig14_exec_time"]), args(&["--help"])] {
            let outcome = dispatch(&bad);
            assert_eq!(status(&outcome), 1);
            let Err(Failed(text)) = outcome else { panic!("{outcome:?}") };
            for c in COMMANDS {
                assert!(text.contains(c.name), "{} missing from:\n{text}", c.name);
            }
        }
    }

    #[test]
    fn unknown_or_missing_figure_lists_the_figures_and_exits_1() {
        for bad in [args(&["fig"]), args(&["fig", "fig99"])] {
            let outcome = dispatch(&bad);
            assert_eq!(status(&outcome), 1);
            let Err(Failed(text)) = outcome else { panic!("{outcome:?}") };
            for f in FIGURES {
                assert!(text.contains(f.name), "{} missing from:\n{text}", f.name);
            }
        }
    }

    #[test]
    fn exit_contract() {
        assert_eq!(status(&Ok(())), 0);
        assert_eq!(status(&Err(Failed("config, I/O, simulation, finding".into()))), 1);
        assert_eq!(status(&Err(Quarantined("a cell".into()))), 2);
        assert_eq!(status(&Err(Regressed)), 2);
    }

    /// A file in the system's temp directory, removed on drop.
    struct Scratch(std::path::PathBuf);
    impl Scratch {
        fn new(name: &str, text: &str) -> Scratch {
            let path = std::env::temp_dir().join(format!("fa-{}-{name}", std::process::id()));
            std::fs::write(&path, text).expect("scratch file");
            Scratch(path)
        }
        fn path(&self) -> String {
            self.0.display().to_string()
        }
    }
    impl Drop for Scratch {
        fn drop(&mut self) {
            let _ = std::fs::remove_file(&self.0);
        }
    }

    fn report_row(kernel: &str, rob_full: u64) -> String {
        let stack = fa_sim::Json::obj(
            fa_sim::CpiLeaf::ALL
                .map(|l| (l.name(), if l.name() == "rob_full" { rob_full } else { 1000 }.into())),
        );
        let total = 11_000 + rob_full;
        format!(
            "{{\"kernel\":\"{kernel}\",\"policy\":\"baseline\",\"preset\":\"tiny\",\
             \"cpi\":{{\"core_cycles\":{total},\"stack\":{stack}}}}}\n"
        )
    }

    #[test]
    fn report_outcomes_follow_the_contract() {
        let base = Scratch::new("base.json", &report_row("TATP", 1000));
        let slow = Scratch::new("slow.json", &report_row("TATP", 5000));
        let twice = Scratch::new("twice.json", &(report_row("PC", 1000) + &report_row("PC", 1000)));
        let empty = Scratch::new("empty.json", "{}\n");
        let run = |words: &[&str]| dispatch(&args(words));
        assert_eq!(status(&run(&["report", &base.path(), &base.path()])), 0);
        assert!(matches!(run(&["report", &base.path(), &slow.path()]), Err(Regressed)));
        for bad in [
            vec!["report"],
            vec!["report", "a", "b", "c"],
            vec!["report", "/nonexistent/fa.json", &base.path()],
            vec!["report", &empty.path(), &base.path()],
            vec!["report", &twice.path(), &twice.path()],
        ] {
            let outcome = run(&bad);
            assert!(matches!(outcome, Err(Failed(_))), "{bad:?}: {outcome:?}");
            assert_eq!(status(&outcome), 1);
        }
    }

    #[test]
    fn model_and_trace_reach_the_fuzz_and_conformance_configs() {
        let opts =
            BenchOpts { model: MemModel::Weak, trace: TraceMode::Flight, ..BenchOpts::default() };
        assert_eq!(fuzz_config(&opts).model, MemModel::Weak);
        // A conformance cell: on the contended crossbar, under chaos.
        let cell = *conformance_cells(&opts).last().expect("cells");
        let point = cell.config(&opts);
        assert_eq!(point.mem.noc, NocConfig::contended(2));
        assert_eq!(point.mem.chaos, ChaosConfig::stress(opts.seed));
        for cfg in [fuzz_base(&opts), point] {
            assert_eq!(cfg.core.model, MemModel::Weak);
            assert_eq!(cfg.core.trace.mode, TraceMode::Flight);
            assert_eq!(cfg.mem.trace.mode, TraceMode::Flight);
        }
    }

    #[test]
    fn knob_table_defaults_are_the_typed_defaults() {
        let o = BenchOpts::default();
        let f = FuzzConfig::default();
        let noc = env::parse_noc;
        // What the drivers read while the variable is unset, as it is under
        // `cargo test` and ci.sh; a set variable is not the default's business.
        let unset = |name| env::get(name, |_| Ok::<_, String>(())).is_none();
        for k in env::KNOBS {
            let d = k.default;
            let agrees = match k.name {
                "FA_CORES" => env::parse_cores(d) == Some(FULL.0) && FULL.0 == o.cores,
                "FA_SCALE" => d == FULL.1.to_string() && FULL.1 == o.scale,
                "FA_RUNS" => d == o.runs.to_string(),
                "FA_DROP" => d == o.drop_slowest.to_string(),
                "FA_THREADS" => d == o.threads.to_string() && f.threads == o.threads,
                "FA_NOC" => noc(d) == Some(o.noc),
                "FA_TRACE" => env::parse_trace_setting(d) == Ok((o.trace, None)),
                "FA_CHECK" => env::parse_check_setting(d) == Ok(o.check) && o.check == FULL.2,
                "FA_MODEL" => env::parse_model_setting(d) == Ok(o.model) && o.model == f.model,
                "FA_FUZZ_CASES" => !unset(k.name) || d == fuzz_config(&o).cases.to_string(),
                "FA_BENCH_JSON" => !unset(k.name) || SweepReport::default_path().as_os_str() == d,
                "FA_FUZZ_SEED" => d == f.seed.to_string(),
                "FA_FUZZ_MAX_THREADS" => d == f.max_threads.to_string(),
                "FA_FUZZ_MAX_OPS" => d == f.max_ops.to_string(),
                "FA_WORKLOADS" | "FA_POLICIES" => d == "all",
                "FA_PRESETS" => d == fa_bench::sweep::Preset::Icelake.name(),
                "FA_CELL_BUDGET" => env::parse_cell_budget(d) == Some(o.max_cycles),
                "FA_CHECKPOINT" => d == "unset",
                other => panic!("{other}: no default to check the table against"),
            };
            assert!(agrees, "{}: the table says {d:?}", k.name);
        }
    }
}
