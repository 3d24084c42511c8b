//! Shared harness for the figure/table regeneration drivers.
//!
//! Every experiment of the paper's evaluation section (§5) is a named
//! entry of [`figures::FIGURES`], run by `fa fig <name>`; this module holds
//! the common machinery: environment-controlled sizing and table
//! formatting. `fa sweep`, `fa fig`, `fa ablation` and `fa conformance`
//! each make one campaign on the one engine, [`sweep::run_grid_supervised`]:
//! `FA_RUNS` runs a cell with random start offsets, the `FA_DROP` slowest
//! dropped (§5.1). A cell names its whole machine: on top of its preset, an
//! ablation override ([`sweep::Ablation`]) and its own interconnect, memory
//! model and fault-injection seed where they differ from the options.
//!
//! The `FA_*` variables are documented in one place, [`fa_sim::env::KNOBS`]
//! — run `fa knobs` to print it. All parsing goes through
//! [`fa_sim::env::get`], so a malformed value fails loudly with the
//! variable name and the expected grammar.

// Non-test code must justify every panic site; see the `expect` messages
// documenting each invariant. Tests keep plain unwrap for brevity.
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod checkpoint;
pub mod figures;
pub mod report;
pub mod sweep;

use fa_core::AtomicPolicy;
use fa_mem::{NocConfig, ProgressConfig};
use fa_sim::env;
use fa_sim::machine::MachineConfig;
use fa_sim::methodology::Methodology;
use fa_sim::{CheckMode, MemModel, TraceMode};
use fa_workloads::{suite, WorkloadParams, WorkloadSpec};

/// Simulated-cycle budget of one run, unless `FA_CELL_BUDGET` caps it lower.
pub const MAX_CYCLES: u64 = 400_000_000;

/// Experiment sizing, read from the environment.
#[derive(Clone, Copy, Debug)]
pub struct BenchOpts {
    /// Simulated cores.
    pub cores: usize,
    /// Workload scale factor.
    pub scale: f64,
    /// Runs per configuration.
    pub runs: usize,
    /// Slowest runs dropped.
    pub drop_slowest: usize,
    /// Base seed.
    pub seed: u64,
    /// Sweep worker threads (0 = host parallelism). Results are
    /// bit-identical at any value; this only trades wall clock.
    pub threads: usize,
    /// Interconnect model (`FA_NOC`), applied to every driver run. The
    /// default ideal crossbar reproduces the historical fixed-latency
    /// numbers bit-for-bit.
    pub noc: NocConfig,
    /// Event-trace mode (`FA_TRACE`), applied to every driver run. Off by
    /// default; any mode produces bit-identical simulation results —
    /// latency histograms are always-on counters and event recording is
    /// strictly passive.
    pub trace: TraceMode,
    /// Axiomatic TSO conformance checking (`FA_CHECK`), applied to every
    /// driver run. Off by default; when on, every completed run is
    /// validated against the full TSO + RMW-atomicity axioms, with
    /// bit-identical simulation statistics either way.
    pub check: CheckMode,
    /// Hardware memory model (`FA_MODEL`), applied to every driver run.
    /// TSO by default, which reproduces the historical rows bit-for-bit
    /// (ordering annotations are architecturally inert under TSO); `weak`
    /// selects the ARM-like acquire/release-native baseline.
    pub model: MemModel,
    /// Forward-progress escalation (`FA_PROGRESS`), applied to every
    /// driver run. On by default with wedge-sized thresholds: stall
    /// counters are unconditional passive statistics, and escalation never
    /// fires on healthy runs, so golden results are bit-identical with the
    /// framework on or off.
    pub progress: ProgressConfig,
}

impl Default for BenchOpts {
    fn default() -> BenchOpts {
        BenchOpts {
            cores: 8,
            scale: 0.25,
            runs: 3,
            drop_slowest: 1,
            seed: 0xF00D,
            threads: 0,
            noc: NocConfig::default(),
            trace: TraceMode::Off,
            check: CheckMode::Off,
            model: MemModel::Tso,
            progress: ProgressConfig::default(),
        }
    }
}

impl BenchOpts {
    /// Reads the options from the environment ([`fa_sim::env::KNOBS`]).
    ///
    /// # Panics
    ///
    /// Panics on any set-but-malformed `FA_*` variable, naming the
    /// variable and the expected grammar.
    pub fn from_env() -> BenchOpts {
        BenchOpts::from_env_or(BenchOpts::default())
    }

    /// [`BenchOpts::from_env`] for a driver with its own defaults: `d`
    /// supplies the value of every unset variable, and the seed.
    pub fn from_env_or(d: BenchOpts) -> BenchOpts {
        BenchOpts {
            cores: env::get("FA_CORES", str::parse).unwrap_or(d.cores),
            scale: env::get("FA_SCALE", str::parse).unwrap_or(d.scale),
            runs: env::get("FA_RUNS", str::parse).unwrap_or(d.runs),
            drop_slowest: env::get("FA_DROP", str::parse).unwrap_or(d.drop_slowest),
            seed: d.seed,
            threads: env::get("FA_THREADS", str::parse).unwrap_or(d.threads),
            noc: env::get("FA_NOC", |v| env::parse_noc(v).ok_or("no such interconnect"))
                .unwrap_or(d.noc),
            trace: env::get("FA_TRACE", env::parse_trace_setting).map_or(d.trace, |(mode, _)| mode),
            check: env::get("FA_CHECK", env::parse_check_setting).unwrap_or(d.check),
            model: env::get("FA_MODEL", env::parse_model_setting).unwrap_or(d.model),
            progress: env::get("FA_PROGRESS", |v| env::parse_progress(v).ok_or("no such setting"))
                .unwrap_or(d.progress),
        }
    }

    /// Workload parameters for these options.
    pub fn params(&self) -> WorkloadParams {
        WorkloadParams { cores: self.cores, scale: self.scale, seed: self.seed }
    }

    /// Measurement methodology for these options.
    pub fn methodology(&self) -> Methodology {
        Methodology {
            runs: self.runs,
            drop_slowest: self.drop_slowest,
            max_offset: 1500,
            seed: self.seed ^ 0xDEAD_BEEF,
            max_cycles: MAX_CYCLES,
        }
    }

    /// The workload subset selected via `FA_WORKLOADS`, or the full suite.
    ///
    /// # Panics
    ///
    /// As [`workloads_from_env`].
    pub fn workloads(&self) -> Vec<WorkloadSpec> {
        workloads_from_env().unwrap_or_else(suite::all)
    }

    /// `base` specialized for one run under these options: policy, NoC
    /// model, trace mode, conformance-check mode, memory model and
    /// forward-progress escalation applied; the base's fault injection is
    /// left as it is.
    pub fn config_for(&self, base: &MachineConfig, policy: AtomicPolicy) -> MachineConfig {
        let mut cfg = base.clone().with_trace(self.trace).with_check(self.check);
        cfg.core.policy = policy;
        cfg.core.model = self.model;
        cfg.mem.noc = self.noc;
        cfg.mem.progress = self.progress;
        cfg
    }
}

/// The workloads `FA_WORKLOADS` names, in the order given; `None` when
/// unset.
///
/// # Panics
///
/// Panics on an unknown name — a typo used to be silently dropped, turning
/// the sweep into a no-op.
pub fn workloads_from_env() -> Option<Vec<WorkloadSpec>> {
    env::get("FA_WORKLOADS", |v| suite::select(&env::items(v).collect::<Vec<_>>()))
}

/// Geometric-mean helper (the paper reports averages over normalized
/// values; we use arithmetic means of ratios like the paper's bars).
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Prints a markdown-style table row.
pub fn row(cells: &[String]) -> String {
    format!("| {} |", cells.join(" | "))
}

/// Formats `x` with `d` decimals.
pub fn fmt(x: f64, d: usize) -> String {
    format!("{x:.d$}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn opts_default_and_params() {
        let o = BenchOpts::default();
        assert_eq!(o.params().cores, 8);
        assert_eq!(o.methodology().runs, 3);
        assert_eq!(o.noc, NocConfig::default());
        assert_eq!(o.trace, TraceMode::Off);
    }

    #[test]
    fn config_for_applies_policy_noc_trace_and_check() {
        let opts = BenchOpts {
            noc: NocConfig::contended(4),
            trace: TraceMode::Flight,
            check: CheckMode::Tso,
            model: MemModel::Weak,
            ..BenchOpts::default()
        };
        let cfg = opts.config_for(&MachineConfig::default(), AtomicPolicy::FreeFwd);
        assert_eq!(cfg.core.policy, AtomicPolicy::FreeFwd);
        assert_eq!(cfg.core.model, MemModel::Weak);
        assert_eq!(cfg.mem.noc, NocConfig::contended(4));
        assert!(cfg.mem.progress.enabled, "progress escalation rides along by default");
        assert_eq!(cfg.core.trace.mode, TraceMode::Flight);
        assert_eq!(cfg.mem.trace.mode, TraceMode::Flight);
        assert_eq!(cfg.core.check, CheckMode::Tso);
        assert_eq!(cfg.mem.check, CheckMode::Tso);
        // Default opts keep checking off and the model TSO (golden stats
        // must not change).
        let off = BenchOpts::default().config_for(&MachineConfig::default(), AtomicPolicy::Free);
        assert_eq!(off.core.check, CheckMode::Off);
        assert_eq!(off.core.model, MemModel::Tso);
        // The base's fault injection is left as it was found.
        let mut base = MachineConfig::default();
        assert_eq!(BenchOpts::default().config_for(&base, AtomicPolicy::Free).mem.chaos, base.mem.chaos);
        base.mem.chaos = fa_mem::ChaosConfig::stress(3);
        assert_eq!(BenchOpts::default().config_for(&base, AtomicPolicy::Free).mem.chaos, base.mem.chaos);
    }

    #[test]
    fn mean_of_values() {
        assert_eq!(mean(&[1.0, 3.0]), 2.0);
        assert_eq!(mean(&[]), 0.0);
    }

    #[test]
    fn row_formatting() {
        assert_eq!(row(&["a".into(), "b".into()]), "| a | b |");
        assert_eq!(fmt(1.2345, 2), "1.23");
    }
}
