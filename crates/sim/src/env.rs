//! The `FA_*` knob registry.
//!
//! [`KNOBS`] lists every environment variable the drivers read — name,
//! default, grammar, meaning — and [`get`] is the only reader: it takes
//! its panic text from the table and refuses a name the table does not
//! list, so a knob cannot exist without its documentation. `fa knobs`
//! prints the table.
//!
//! Policy: an *unset* variable reads as `None` (the caller applies the
//! default the table documents); a *set but malformed* variable panics,
//! naming the variable and its grammar. A set-but-empty (or
//! all-whitespace) value is treated as unset, so `FA_TRACE= fa sweep`
//! behaves like omitting the variable.

use std::fmt::Display;
use std::time::Duration;

pub use fa_trace::{parse_check_setting, parse_model_setting, parse_trace_setting};

/// One row of the knob table.
#[derive(Clone, Copy, Debug)]
pub struct Knob {
    /// The environment variable.
    pub name: &'static str,
    /// What an unset variable reads as (`unset` = no value).
    pub default: &'static str,
    /// The legal values, as the malformed-value panic words them.
    pub grammar: &'static str,
    /// What the knob controls.
    pub meaning: &'static str,
}

const fn knob(
    name: &'static str,
    default: &'static str,
    grammar: &'static str,
    meaning: &'static str,
) -> Knob {
    Knob { name, default, grammar, meaning }
}

/// Every `FA_*` variable the drivers read. The per-command defaults of
/// `FA_CORES`, `FA_SCALE` and `FA_CHECK` live in the `fa` binary's command
/// table; `fa` without arguments prints them.
pub const KNOBS: &[Knob] = &[
    knob("FA_CORES", "8", "an integer", "simulated cores (the paper uses 32); `fa` lists each command's own default"),
    knob("FA_SCALE", "0.25", "a number", "workload size multiplier; per-command default as for `FA_CORES`"),
    knob("FA_RUNS", "3", "an integer", "runs per configuration (paper: 10, drop 3)"),
    knob("FA_DROP", "1", "an integer", "slowest runs dropped"),
    knob("FA_THREADS", "0", "an integer", "campaign worker threads (0 = host parallelism); results are bit-identical at any value"),
    knob("FA_WORKLOADS", "all", "comma-separated workload names", "kernels to run (`ablation` defaults to TATP, AS, barnes, canneal)"),
    knob("FA_POLICIES", "all", "comma-separated policy labels: `baseline`, `baseline+Spec`, `FreeAtomics`, `FreeAtomics+Fwd`", "policy axis of `sweep`"),
    knob("FA_PRESETS", "icelake", "comma-separated preset names: `icelake`, `skylake`, `tiny`", "machine-preset axis of `sweep` and `fig16_network_sensitivity`"),
    knob("FA_NOC", "ideal", "`ideal`, `contended` or `contended:<bw>` with a positive integer", "interconnect model (`fuzz` and `conformance` sweep their own interconnect points)"),
    knob("FA_TRACE", "off", "`off`, `flight`, `full` or `full:<path>`", "event tracing; the path is where `trace` writes its timeline (default `fa_trace.json`)"),
    knob("FA_CHECK", "off", "`off` or `tso`", "axiomatic conformance checking of every run (`fuzz`, `conformance`: `tso`)"),
    knob("FA_MODEL", "tso", "`tso` or `weak`", "hardware memory model"),
    knob("FA_PROGRESS", "on", "`off`, `on` or `on:<stall_cycles>` with a positive integer", "forward-progress escalation"),
    knob("FA_RETRIES", "1", "a non-negative integer", "supervised-cell retries before quarantine (`sweep`, `conformance`, `fuzz`) or failure (`fig`, `ablation`)"),
    knob("FA_CELL_BUDGET", "unset", "`<cycles>` or `<cycles>:<wall_secs>`, both positive integers", "per-cell simulated-cycle cap and wall-clock watchdog (`sweep`, `conformance`, `fig`, `ablation`; `fuzz` arms only the wall clock)"),
    knob("FA_CHECKPOINT", "unset", "a path", "append-only sweep journal for kill/resume (`sweep` only)"),
    knob("FA_BENCH_JSON", "BENCH_sweep.json", "a path", "sweep-report destination, and `report`'s default current file"),
    knob("FA_FUZZ_CASES", "100", "an integer", "generated programs per fuzz campaign"),
    knob("FA_FUZZ_SEED", "265703616094242", "a decimal integer", "master campaign seed"),
    knob("FA_FUZZ_MAX_THREADS", "3", "an integer", "max threads per generated program"),
    knob("FA_FUZZ_MAX_OPS", "3", "an integer", "max ops per thread"),
];

/// Knob `name` parsed by `parse`; `None` when unset or blank.
///
/// # Panics
///
/// Panics when `name` is not in [`KNOBS`], and when the variable is set
/// but `parse` rejects it — naming the variable and the table's grammar.
pub fn get<T, E: Display>(name: &str, parse: impl FnOnce(&str) -> Result<T, E>) -> Option<T> {
    let knob = KNOBS
        .iter()
        .find(|k| k.name == name)
        .unwrap_or_else(|| panic!("{name}: not a knob — add it to fa_sim::env::KNOBS"));
    let v = std::env::var(name).ok()?;
    let v = v.trim();
    if v.is_empty() {
        return None;
    }
    Some(parse(v).unwrap_or_else(|e| {
        panic!("{name}: invalid value {v:?}: {e} (expected {})", knob.grammar)
    }))
}

/// The trimmed, non-empty items of a comma-separated knob value.
pub fn items(v: &str) -> impl Iterator<Item = &str> {
    v.split(',').map(str::trim).filter(|s| !s.is_empty())
}

/// A path knob's value: any non-blank string.
pub fn path(name: &str) -> Option<std::path::PathBuf> {
    get(name, |v| Ok::<_, std::convert::Infallible>(v.into()))
}

/// Parses one interconnect spec (the `FA_NOC` grammar).
pub fn parse_noc(v: &str) -> Option<fa_mem::NocConfig> {
    match v {
        "ideal" => Some(fa_mem::NocConfig::default()),
        "contended" => Some(fa_mem::NocConfig::contended(2)),
        other => {
            let bw: u64 = other.strip_prefix("contended:")?.parse().ok()?;
            (bw > 0).then(|| fa_mem::NocConfig::contended(bw))
        }
    }
}

/// Per-cell budget parsed from `FA_CELL_BUDGET`: a simulated-cycle cap and
/// an optional wall-clock watchdog. Both default to "no override".
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CellBudget {
    /// Simulated-cycle cap per run (overrides the methodology's
    /// `max_cycles` when set).
    pub max_cycles: Option<u64>,
    /// Wall-clock watchdog per cell attempt
    /// (armed via [`crate::machine::set_wall_deadline`]).
    pub wall: Option<Duration>,
}

/// Parses one `FA_CELL_BUDGET` spec: `<cycles>` or `<cycles>:<wall_secs>`,
/// both strictly positive.
pub fn parse_cell_budget(v: &str) -> Option<CellBudget> {
    let (cycles, wall) = match v.split_once(':') {
        Some((c, w)) => (c, Some(w)),
        None => (v, None),
    };
    let max_cycles: u64 = cycles.parse().ok()?;
    if max_cycles == 0 {
        return None;
    }
    let wall = match wall {
        Some(w) => {
            let secs: u64 = w.parse().ok()?;
            if secs == 0 {
                return None;
            }
            Some(Duration::from_secs(secs))
        }
        None => None,
    };
    Some(CellBudget { max_cycles: Some(max_cycles), wall })
}

/// Parses one `FA_PROGRESS` spec: `off`, `on` (default thresholds), or
/// `on:<n>` — escalation on with both the core-commit stall threshold and
/// the per-site retry threshold tightened to `n` cycles/attempts (the NoC
/// backlog threshold keeps its default: it counts events, not cycles).
pub fn parse_progress(v: &str) -> Option<fa_mem::ProgressConfig> {
    match v {
        "off" => Some(fa_mem::ProgressConfig::off()),
        "on" => Some(fa_mem::ProgressConfig::default()),
        other => {
            let n: u64 = other.strip_prefix("on:")?.parse().ok()?;
            if n == 0 {
                return None;
            }
            Some(fa_mem::ProgressConfig {
                enabled: true,
                stall_cycles: n,
                max_attempts: n,
                ..fa_mem::ProgressConfig::default()
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fa_trace::{CheckMode, MemModel, TraceMode};

    fn panic_text(f: impl FnOnce() + std::panic::UnwindSafe) -> String {
        let payload = std::panic::catch_unwind(f).expect_err("must panic");
        payload.downcast_ref::<String>().expect("formatted panic").clone()
    }

    /// The one test that touches the process environment (no other test in
    /// this crate reads it, so parallel test threads cannot race).
    #[test]
    fn every_knob_reads_by_the_table() {
        let echo = |v: &str| Ok::<_, String>(v.to_string());
        let reject = |_: &str| Err::<(), _>("rejected");
        for (i, k) in KNOBS.iter().enumerate() {
            assert!(KNOBS[..i].iter().all(|o| o.name != k.name), "{} listed twice", k.name);
            assert!(k.name.starts_with("FA_"), "{}", k.name);
            assert!(
                !k.default.is_empty() && !k.grammar.is_empty() && !k.meaning.is_empty(),
                "{}: every column is filled in",
                k.name
            );
            std::env::remove_var(k.name);
            assert_eq!(get(k.name, echo), None, "{}: unset reads as the default", k.name);
            std::env::set_var(k.name, "   ");
            assert_eq!(get(k.name, echo), None, "{}: blank reads as the default", k.name);
            std::env::set_var(k.name, "  some value ");
            assert_eq!(get(k.name, echo).as_deref(), Some("some value"), "{}: trimmed", k.name);
            let text = panic_text(|| {
                get(k.name, reject);
            });
            assert!(text.starts_with(k.name), "{text}");
            assert!(text.contains("\"some value\"") && text.contains(k.grammar), "{text}");
            std::env::remove_var(k.name);
        }
        assert!(panic_text(|| drop(get("FA_cores", echo))).contains("not a knob"));
    }

    #[test]
    fn lists_split_and_trim() {
        assert_eq!(items("a, b ,,c").collect::<Vec<_>>(), ["a", "b", "c"]);
        assert_eq!(items(" , ").count(), 0);
    }

    #[test]
    fn noc_grammar() {
        assert_eq!(parse_noc("ideal"), Some(fa_mem::NocConfig::default()));
        assert_eq!(parse_noc("contended"), Some(fa_mem::NocConfig::contended(2)));
        assert_eq!(fa_mem::NocConfig::contended(2).link_bw, fa_mem::NocConfig::default().link_bw);
        assert_eq!(parse_noc("contended:4"), Some(fa_mem::NocConfig::contended(4)));
        assert_eq!(parse_noc("mesh"), None);
        assert_eq!(parse_noc("contended:x"), None);
        assert_eq!(parse_noc("contended:0"), None, "a zero-bandwidth link is malformed");
    }

    #[test]
    fn check_and_model_grammar() {
        assert_eq!(parse_check_setting("tso"), Ok(CheckMode::Tso));
        assert!(parse_check_setting("strong").is_err());
        assert_eq!(parse_model_setting("weak"), Ok(MemModel::Weak));
        assert_eq!(parse_model_setting("tso"), Ok(MemModel::Tso));
        assert!(parse_model_setting("sc").is_err());
    }

    #[test]
    fn cell_budget_grammar() {
        assert_eq!(
            parse_cell_budget("5000000"),
            Some(CellBudget { max_cycles: Some(5_000_000), wall: None })
        );
        assert_eq!(
            parse_cell_budget("1000:30"),
            Some(CellBudget { max_cycles: Some(1000), wall: Some(Duration::from_secs(30)) })
        );
        assert_eq!(parse_cell_budget("0"), None, "zero-cycle budget is malformed");
        assert_eq!(parse_cell_budget("1000:0"), None, "zero-second watchdog is malformed");
        assert_eq!(parse_cell_budget("fast"), None);
        assert_eq!(parse_cell_budget("1000:30:9"), None);
    }

    #[test]
    fn progress_grammar() {
        assert_eq!(parse_progress("off"), Some(fa_mem::ProgressConfig::off()));
        assert_eq!(parse_progress("on"), Some(fa_mem::ProgressConfig::default()));
        let tight = parse_progress("on:50000").unwrap();
        assert!(tight.enabled);
        assert_eq!(tight.stall_cycles, 50_000);
        assert_eq!(tight.max_attempts, 50_000);
        assert_eq!(
            tight.max_backlog,
            fa_mem::ProgressConfig::default().max_backlog,
            "backlog threshold counts events, not cycles — untouched by on:<n>"
        );
        assert_eq!(parse_progress("on:0"), None);
        assert_eq!(parse_progress("always"), None);
    }

    #[test]
    fn trace_grammar() {
        assert_eq!(
            parse_trace_setting("full:/tmp/t.json"),
            Ok((TraceMode::Full, Some("/tmp/t.json".to_string())))
        );
        assert!(parse_trace_setting("flight:/tmp/t.json").is_err(), "a path needs `full`");
        assert!(parse_trace_setting("loud").is_err());
    }
}
