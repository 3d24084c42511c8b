//! Every reader of the files the simulator writes, and every parser of a
//! knob grammar, errs or skips on damaged input, never panics: byte-level
//! truncations, bit flips and insertions of a real sweep report, a real
//! checkpoint journal and a real Chrome trace, each fed to `Json::parse`,
//! `report::parse_rows`, `checkpoint::replay` and `validate_chrome_trace`,
//! and of a legal value of every `KNOBS` grammar, fed to every knob parser.
//! Seeded, so a failure replays exactly.

use fa_bench::checkpoint::replay;
use fa_bench::report::parse_rows;
use fa_bench::sweep::{
    campaign_fingerprint, grid, run_grid_supervised, Preset, SupervisorOpts, SweepCell, SweepReport,
};
use fa_bench::BenchOpts;
use fa_core::AtomicPolicy;
use fa_isa::interp::GuestMem;
use fa_isa::{Kasm, Reg};
use fa_mem::{NocConfig, SplitMix64};
use fa_sim::presets::tiny_machine;
use fa_sim::{env, validate_chrome_trace, CheckMode, Json, Machine, MemModel, TraceMode};

fn opts() -> BenchOpts {
    BenchOpts { cores: 2, scale: 0.05, runs: 1, drop_slowest: 0, threads: 1, ..BenchOpts::default() }
}

fn cells() -> Vec<SweepCell> {
    let ws = fa_workloads::suite::select(&["PC"]).expect("suite names");
    grid(&ws, &[AtomicPolicy::FreeFwd], &[Preset::Tiny])
}

/// Ideal, `contended:2`, weak and checked rows, then a quarantine block
/// from a cell whose cycle budget is far too small.
fn real_report() -> String {
    let o = opts();
    let campaigns = [
        o,
        BenchOpts { noc: NocConfig::contended(2), ..o },
        BenchOpts { model: MemModel::Weak, ..o },
        BenchOpts { check: CheckMode::Tso, ..o },
        BenchOpts { max_cycles: 200, ..o },
    ];
    let reports = campaigns.iter().map(|opts| {
        let (outcome, timing) =
            run_grid_supervised(opts, &SupervisorOpts::none(), &cells()).expect("grid");
        SweepReport::from_outcome("fuzz", opts, outcome, timing)
    });
    reports.reduce(SweepReport::merge).expect("five campaigns").json()
}

fn real_journal() -> String {
    let path = std::env::temp_dir().join(format!("fa-input-fuzz-{}", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let sup = SupervisorOpts { checkpoint: Some(path.clone()) };
    run_grid_supervised(&opts(), &sup, &cells()).expect("checkpointed grid");
    let text = std::fs::read_to_string(&path).expect("journal written");
    std::fs::remove_file(&path).expect("cleanup");
    text
}

fn real_trace() -> String {
    let mut k = Kasm::new();
    k.li(Reg::R1, 0x100).li(Reg::R2, 1).fetch_add(Reg::R3, Reg::R1, 0, Reg::R2).halt();
    let prog = k.finish().expect("assembles");
    let cfg = tiny_machine().with_trace(TraceMode::Full);
    let mut m = Machine::new(cfg, vec![prog; 2], GuestMem::new(1 << 12));
    m.run(100_000).expect("quiesces");
    m.perfetto_trace()
}

/// Bytes JSON cares about.
const JSON_BYTES: &[u8] = b"{}[]\",:\\-0e.nt\n\x01\xff";

/// One truncation, bit flip or insertion of a byte of `alphabet`.
fn mutate(rng: &mut SplitMix64, src: &[u8], alphabet: &[u8]) -> Vec<u8> {
    let mut b = src.to_vec();
    let at = rng.below(b.len() as u64 + 1) as usize;
    match rng.below(3) {
        0 => b.truncate(at),
        1 if at < b.len() => b[at] ^= 1 << rng.below(8),
        _ => b.insert(at, alphabet[rng.below(alphabet.len() as u64) as usize]),
    }
    b
}

/// Every reader over `text`; a panic in any fails the test.
fn read_all(text: &str, fingerprint: u64) {
    let _ = Json::parse(text);
    let _ = parse_rows(text);
    let _ = replay(text, fingerprint, cells().len());
    let _ = validate_chrome_trace(text);
}

#[test]
fn damaged_reports_journals_and_traces_error_and_never_panic() {
    let report = real_report();
    for block in ["\"net\":{", "\"model\":\"weak\"", "\"checked\":true", "\"quarantine\": [\n"] {
        assert!(report.contains(block), "{block} missing from {report}");
    }
    assert_eq!(parse_rows(&report).len(), 4);
    // What the writer emits reads back to the same bytes, line by line.
    let objects = report.lines().map(|l| l.trim().trim_end_matches(',')).filter(|l| l.len() > 1);
    for line in objects.filter(|l| l.starts_with('{')) {
        assert_eq!(Json::parse(line).expect(line).to_string(), line);
    }
    let fingerprint = campaign_fingerprint(&opts(), &cells());
    let journal = real_journal();
    let replayed = replay(&journal, fingerprint, 1).expect("its own campaign").expect("a header");
    assert_eq!(replayed.len(), 1);
    let trace = real_trace();
    assert!(validate_chrome_trace(&trace).expect("valid") > 0);

    let mut rng = SplitMix64::new(0x15EED);
    for src in [&report, &journal, &trace] {
        for _ in 0..1000 {
            let bytes = mutate(&mut rng, src.as_bytes(), JSON_BYTES);
            read_all(&String::from_utf8_lossy(&bytes), fingerprint);
        }
    }
    let deep = "[".repeat(100_000);
    read_all(&deep, fingerprint);
    assert!(Json::parse(&deep).is_err() && validate_chrome_trace(&deep).is_err());
}

/// Which of the knob parsers accept `v`: `FA_NOC`, `FA_CELL_BUDGET`,
/// `FA_CORES`, `FA_TRACE`, `FA_CHECK`, `FA_MODEL`, `FA_WORKLOADS` and
/// `FA_PRESETS`, in that order.
fn knob_parsers(v: &str) -> [bool; 8] {
    let items: Vec<&str> = env::items(v).collect();
    [
        env::parse_noc(v).is_some(),
        env::parse_cell_budget(v).is_some(),
        env::parse_cores(v).is_some(),
        env::parse_trace_setting(v).is_ok(),
        env::parse_check_setting(v).is_ok(),
        env::parse_model_setting(v).is_ok(),
        fa_workloads::suite::select(&items).is_ok(),
        items.iter().all(|p| Preset::by_name(p).is_some()),
    ]
}

#[test]
fn damaged_knob_values_are_refused_and_never_panic() {
    // A legal value of every grammar, each with the parser that takes it.
    let legal = [
        ("ideal", 0),
        ("contended:4", 0),
        ("1000", 1),
        ("32", 2),
        ("full:fa_trace.json", 3),
        ("flight", 3),
        ("tso", 4),
        ("weak", 5),
        ("TATP,PC,barnes", 6),
        ("icelake,skylake,tiny", 7),
    ];
    let mut refused = 0;
    let mut rng = SplitMix64::new(0x4B0B5);
    for (v, parser) in legal {
        assert!(knob_parsers(v)[parser], "{v} is legal");
        for _ in 0..300 {
            let bytes = mutate(&mut rng, v.as_bytes(), b":,.-+ 0123456789abcnoux\t\xff");
            refused += usize::from(!knob_parsers(&String::from_utf8_lossy(&bytes))[parser]);
        }
    }
    assert!(refused > legal.len() * 100, "most damage is refused: {refused}");
}
