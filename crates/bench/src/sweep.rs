//! Grid campaigns over `(kernel, policy, preset)` cells — the one engine
//! ([`run_grid_supervised`]) every figure, table and sweep driver rides —
//! with wall-clock / simulated-MIPS accounting emitted as
//! `BENCH_sweep.json`.
//!
//! The cell is the unit of parallelism, budget, quarantine and journaling:
//! one job on [`fa_sim::sweep::run_cells_timed`] runs every methodology run
//! of its cell serially and summarizes them with [`Methodology::summarize`].
//! Each run derives its perturbations from its own `seed + run` stream, so
//! the per-cell summaries (and therefore the emitted rows) are
//! bit-identical at any worker-thread count; only the timing block
//! differs. The JSON keeps the scheduling-dependent wall-clock fields out
//! of `rows` so serial and parallel sweeps agree byte-for-byte there.

use crate::checkpoint::{fnv1a64, CellRecord, Journal};
use crate::BenchOpts;
use fa_core::AtomicPolicy;
use fa_mem::{ChaosConfig, CoreMemStats, NocConfig, ProgressStats, XbarPolicy};
use fa_sim::env;
use fa_sim::error::{CellFailure, SimError};
use fa_sim::machine::{MachineConfig, RunResult};
use fa_sim::methodology::{Methodology, MultiRun};
use fa_sim::sweep::{run_cells_timed, supervise, SweepTiming};
use fa_sim::{Counter, Json, MemModel};
use fa_workloads::{WorkloadParams, WorkloadSpec};
use std::fmt::Write as _;
use std::path::PathBuf;

/// A named machine preset — the grid's third axis, and the name recorded
/// in each emitted row.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Preset {
    /// The paper's Icelake-like Table-1 machine (352-entry ROB).
    Icelake,
    /// The Skylake-like variant (224-entry ROB).
    Skylake,
    /// The small audit-friendly machine used by tests and the fuzzer.
    Tiny,
}

impl Preset {
    /// The row label (also accepted by [`Preset::by_name`]).
    pub const fn name(self) -> &'static str {
        match self {
            Preset::Icelake => "icelake",
            Preset::Skylake => "skylake",
            Preset::Tiny => "tiny",
        }
    }

    /// The machine configuration this preset names.
    pub fn config(self) -> MachineConfig {
        match self {
            Preset::Icelake => fa_sim::presets::icelake_like(),
            Preset::Skylake => fa_sim::presets::skylake_like(),
            Preset::Tiny => fa_sim::presets::tiny_machine(),
        }
    }

    /// Parses a preset name (as printed by [`Preset::name`]).
    pub fn by_name(name: &str) -> Option<Preset> {
        [Preset::Icelake, Preset::Skylake, Preset::Tiny]
            .into_iter()
            .find(|p| p.name() == name)
    }
}

/// The policy axis selected via `FA_POLICIES` (comma-separated
/// [`AtomicPolicy::label`]s), or all four.
///
/// # Panics
///
/// Panics on an unknown policy label, listing the known ones.
pub fn policies_from_env() -> Vec<AtomicPolicy> {
    let by_label = |name: &str| {
        AtomicPolicy::ALL
            .into_iter()
            .find(|p| p.label() == name)
            .ok_or_else(|| format!("unknown policy {name:?}"))
    };
    env::get("FA_POLICIES", |v| env::items(v).map(by_label).collect())
        .unwrap_or_else(|| AtomicPolicy::ALL.to_vec())
}

/// The preset axis selected via `FA_PRESETS` (comma-separated
/// [`Preset::name`]s), or just `icelake`.
///
/// # Panics
///
/// Panics on an unknown preset name.
pub fn presets_from_env() -> Vec<Preset> {
    let by_name =
        |name: &str| Preset::by_name(name).ok_or_else(|| format!("unknown preset {name:?}"));
    env::get("FA_PRESETS", |v| env::items(v).map(by_name).collect())
        .unwrap_or_else(|| vec![Preset::Icelake])
}

/// One design parameter of the paper set on a cell's preset: the axes of
/// `fa ablation`. §4.3 concludes 4 Atomic Queue entries suffice, §3.2.5
/// picks a 10 000-cycle watchdog, §3.3.4 caps forwarding chains at 32.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Ablation {
    /// [`CoreConfig::aq_size`](fa_core::CoreConfig::aq_size).
    AqEntries(usize),
    /// [`CoreConfig::watchdog_threshold`](fa_core::CoreConfig::watchdog_threshold).
    WatchdogCycles(u64),
    /// [`CoreConfig::fwd_chain_max`](fa_core::CoreConfig::fwd_chain_max)
    /// (0 disables forwarding).
    FwdChainMax(u32),
}

impl Ablation {
    fn apply(self, cfg: &mut MachineConfig) {
        match self {
            Ablation::AqEntries(n) => cfg.core.aq_size = n,
            Ablation::WatchdogCycles(n) => cfg.core.watchdog_threshold = n,
            Ablation::FwdChainMax(n) => cfg.core.fwd_chain_max = n,
        }
    }
}

/// `aq=4`, `watchdog=10000`, `fwd_chain=32`: the last part of the cell's
/// name and its row's `ablation` field.
impl std::fmt::Display for Ablation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Ablation::AqEntries(n) => write!(f, "aq={n}"),
            Ablation::WatchdogCycles(n) => write!(f, "watchdog={n}"),
            Ablation::FwdChainMax(n) => write!(f, "fwd_chain={n}"),
        }
    }
}

/// One independent sweep cell: a kernel under a policy on a preset,
/// optionally with one design parameter overridden and with its own
/// interconnect, memory model or fault injection. The run-seed axis lives
/// inside the cell (its methodology runs). Every override is `None` in
/// every [`grid`] cell; a command sets one only where it differs from the
/// options, so two equal machines share one name.
#[derive(Clone, Copy, Debug)]
pub struct SweepCell {
    /// The workload (kernel) to run.
    pub workload: WorkloadSpec,
    /// The atomic policy under test.
    pub policy: AtomicPolicy,
    /// The machine preset.
    pub preset: Preset,
    /// The preset's value of one design parameter replaced.
    pub ablation: Option<Ablation>,
    /// The interconnect, in place of [`BenchOpts::noc`].
    pub noc: Option<NocConfig>,
    /// The memory model, in place of [`BenchOpts::model`].
    pub model: Option<MemModel>,
    /// Fault-injection seed: `Some(seed)` runs the cell under
    /// [`ChaosConfig::stress`]; `None` leaves the preset's chaos alone.
    pub chaos: Option<u64>,
}

impl SweepCell {
    /// The cell's stable identity, `kernel/policy/preset`, then
    /// `/<ablation>`, ` net=<xbar>:<bw>`, ` model=<name>` and
    /// ` chaos=<seed>` for each override it carries — used by quarantine
    /// reports, the campaign fingerprint and to measure a cell several
    /// tables read once. The `net` and `model` suffixes are the ones
    /// [`report`](crate::report) keys rows by.
    pub fn name(&self) -> String {
        let (w, p, s) = (self.workload.name, self.policy.label(), self.preset.name());
        let ablation = self.ablation.map_or(String::new(), |a| format!("/{a}"));
        let net = self.noc.map_or(String::new(), |n| format!(" net={}:{}", n.policy.name(), n.link_bw));
        let model = self.model.map_or(String::new(), |m| format!(" model={}", m.name()));
        let chaos = self.chaos.map_or(String::new(), |seed| format!(" chaos={seed}"));
        format!("{w}/{p}/{s}{ablation}{net}{model}{chaos}")
    }

    /// This cell on the interconnect `noc`, overridden only where `noc`
    /// differs from the options'.
    pub fn on_noc(self, opts: &BenchOpts, noc: NocConfig) -> SweepCell {
        SweepCell { noc: (noc != opts.noc).then_some(noc), ..self }
    }

    /// This cell under the memory model `model`, overridden only where
    /// `model` differs from the options'.
    pub fn under_model(self, opts: &BenchOpts, model: MemModel) -> SweepCell {
        SweepCell { model: (model != opts.model).then_some(model), ..self }
    }

    /// The machine one run of this cell simulates under `opts`: the preset,
    /// then the ablation, then [`BenchOpts::config_for`] under `opts` with
    /// the cell's interconnect and memory model in place, then the cell's
    /// fault injection.
    pub fn config(&self, opts: &BenchOpts) -> MachineConfig {
        let mut base = self.preset.config();
        if let Some(a) = self.ablation {
            a.apply(&mut base);
        }
        let (noc, model) = (self.noc.unwrap_or(opts.noc), self.model.unwrap_or(opts.model));
        let mut cfg = BenchOpts { noc, model, ..*opts }.config_for(&base, self.policy);
        if let Some(seed) = self.chaos {
            cfg.mem.chaos = ChaosConfig::stress(seed);
        }
        cfg
    }
}

/// The full cross product, in row-major `(workload, policy, preset)` order
/// — the canonical cell enumeration every driver shares so row order is
/// stable across bins.
pub fn grid(
    workloads: &[WorkloadSpec],
    policies: &[AtomicPolicy],
    presets: &[Preset],
) -> Vec<SweepCell> {
    let mut cells = Vec::with_capacity(workloads.len() * policies.len() * presets.len());
    for &workload in workloads {
        for &policy in policies {
            for &preset in presets {
                let (ablation, noc, model, chaos) = (None, None, None, None);
                cells.push(SweepCell { workload, policy, preset, ablation, noc, model, chaos });
            }
        }
    }
    cells
}

/// One measured cell: the cell identity plus its multi-run summary.
#[derive(Clone, Debug)]
pub struct CellResult {
    /// The cell that was measured.
    pub cell: SweepCell,
    /// Multi-run summary (mean over retained runs, fastest first); a
    /// campaign's result keeps only the fastest run, its representative.
    pub summary: MultiRun,
}

/// Supervision settings for a sweep campaign: the optional checkpoint
/// journal for kill/resume.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SupervisorOpts {
    /// Checkpoint journal path (`FA_CHECKPOINT`); `None` disables
    /// checkpointing.
    pub checkpoint: Option<PathBuf>,
}

impl SupervisorOpts {
    /// No checkpointing — supervision is pure isolation (panics still
    /// quarantine instead of unwinding). With [`SweepOutcome::take_results`]
    /// a failed cell becomes the caller's error.
    pub fn none() -> SupervisorOpts {
        SupervisorOpts::default()
    }
}

/// One quarantined cell, as recorded in the report's `quarantine` block:
/// the campaign completed without it after it failed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct QuarantinedCell {
    /// Cell identity (`kernel/policy/preset`).
    pub cell: String,
    /// Attempts made: always 1, as a cell is a pure function of its inputs
    /// and its failure would repeat. Kept for readers of the report's
    /// `quarantine` block; a later report-format change can delete it.
    pub attempts: u32,
    /// The cell's failure — for simulation errors this carries the
    /// machine snapshot with the flight-recorder tail.
    pub failure: CellFailure,
}

/// The outcome of a campaign: rows for every completed cell (in grid
/// order), the measured results behind the freshly run ones, quarantine
/// entries for the rest, and the resume count.
#[derive(Clone, Debug)]
pub struct SweepOutcome {
    /// Rendered `sweep_row` lines of completed cells, in grid order.
    /// Journal-resumed cells render their stored row, which reads back to
    /// the same bytes, so a killed-and-resumed campaign is byte-identical
    /// to an uninterrupted one.
    pub row_lines: Vec<String>,
    /// One entry per grid cell: the measured result of a cell run in this
    /// process, `None` for a journal-resumed or quarantined one.
    pub results: Vec<Option<CellResult>>,
    /// Cells that failed, in grid order.
    pub quarantine: Vec<QuarantinedCell>,
    /// Cells replayed from the checkpoint journal instead of re-run.
    pub resumed: usize,
    /// Forward-progress counters aggregated over every run of every
    /// completed cell (rescues summed, high-water marks maxed); journaled
    /// cells contribute their stored health, so a resumed campaign's
    /// summary matches an uninterrupted one.
    pub health: ProgressStats,
}

impl SweepOutcome {
    /// Moves the measured results out, one per cell of `cells` (the grid
    /// the campaign ran), for drivers that format tables from run
    /// statistics rather than from rows.
    ///
    /// # Errors
    ///
    /// [`SimError::CellFailed`] naming the first cell (in grid order)
    /// without a result — quarantined, with its failure, or replayed
    /// from the checkpoint journal — so no driver renders a partial table.
    pub fn take_results(&mut self, cells: &[SweepCell]) -> Result<Vec<CellResult>, SimError> {
        if let Some(i) = self.results.iter().position(Option::is_none) {
            let cell = cells[i].name();
            let cause = match self.quarantine.iter().find(|q| q.cell == cell) {
                Some(q) => q.failure.clone(),
                None => CellFailure::Resumed,
            };
            return Err(SimError::CellFailed { cell, cause: Box::new(cause) });
        }
        Ok(std::mem::take(&mut self.results).into_iter().flatten().collect())
    }
}

/// The campaign fingerprint for the checkpoint journal: an FNV-1a 64 hash
/// over everything that affects simulated rows — sizing, methodology,
/// seed, NoC, check mode, memory model, the cycle budget, and the cell
/// identities with their overrides — and nothing that does not
/// (worker-thread count, trace mode).
pub fn campaign_fingerprint(opts: &BenchOpts, cells: &[SweepCell]) -> u64 {
    let mut s = format!(
        "cores={} scale={:?} runs={} drop={} seed={} noc={:?} check={:?} model={:?} \
         max_cycles={};cells:",
        opts.cores, opts.scale, opts.runs, opts.drop_slowest, opts.seed, opts.noc, opts.check,
        opts.model, opts.max_cycles
    );
    for c in cells {
        s.push_str(&c.name());
        s.push(',');
    }
    fnv1a64(s.as_bytes())
}

/// Runs one whole cell — every methodology run, serially — and returns its
/// journal record (simulated totals and health over **all** runs, dropped
/// ones included, plus the emitted row line) with the measured result the
/// row was built from.
fn run_one_cell(
    opts: &BenchOpts,
    meth: &Methodology,
    params: &WorkloadParams,
    cell: &SweepCell,
) -> Result<(CellRecord, CellResult), SimError> {
    let cfg = cell.config(opts);
    let mut runs = Vec::with_capacity(meth.runs);
    let (mut cycles, mut instructions) = (0u64, 0u64);
    let mut health = ProgressStats::default();
    for run in 0..meth.runs {
        let w = cell.workload.build(params);
        let rr = meth.run_single(&cfg, run, w.programs, w.mem)?;
        cycles += rr.cycles;
        instructions += rr.instructions();
        health.merge(&rr.mem.progress);
        runs.push(rr);
    }
    let result = CellResult { cell: *cell, summary: meth.summarize(runs)? };
    let row = sweep_row(opts, &result);
    Ok((CellRecord { cycles, instructions, health, row }, result))
}

/// Runs the grid across `opts.threads` workers, each cell one isolated job
/// — panics caught, failed cells quarantined into the outcome after one
/// attempt instead of aborting the campaign — and, when `sup.checkpoint` is
/// set, every completed cell is journaled as it finishes so a killed
/// campaign resumes exactly where it stopped.
///
/// Completed rows are byte-identical at any worker-thread count, with or
/// without an intervening kill/resume.
///
/// # Errors
///
/// [`SimError::InvalidMethodology`] for a configuration retaining no runs.
/// Per-cell failures do not error — they quarantine.
///
/// # Panics
///
/// Panics when the checkpoint journal cannot be opened or appended to, or
/// belongs to a different campaign (fingerprint mismatch).
pub fn run_grid_supervised(
    opts: &BenchOpts,
    sup: &SupervisorOpts,
    cells: &[SweepCell],
) -> Result<(SweepOutcome, SweepTiming), SimError> {
    let meth = opts.methodology();
    meth.validate()?;
    let params = opts.params();
    let journal = sup.checkpoint.as_deref().map(|p| {
        let fp = campaign_fingerprint(opts, cells);
        Journal::open(p, fp, cells.len())
            .unwrap_or_else(|e| panic!("FA_CHECKPOINT {}: {e}", p.display()))
    });
    let done = |ci: &usize| journal.as_ref().is_some_and(|j| j.completed.contains_key(ci));
    let pending: Vec<usize> = (0..cells.len()).filter(|ci| !done(ci)).collect();
    let resumed = cells.len() - pending.len();
    let (results, mut timing) = run_cells_timed(
        &pending,
        opts.threads,
        |_, &ci| {
            let r = supervise(|| {
                // The row is rendered: keep the mean and the representative
                // run, all a table reads, so a campaign holds one run a cell.
                run_one_cell(opts, &meth, &params, &cells[ci]).map(|(rec, mut result)| {
                    result.summary.runs.truncate(1);
                    (rec, result)
                })
            });
            if let (Ok((rec, _)), Some(j)) = (&r, &journal) {
                // Journal the success before the worker moves on: a kill
                // after this point cannot lose the cell.
                j.record(ci, rec)
                    .unwrap_or_else(|e| panic!("FA_CHECKPOINT {}: {e}", j.path().display()));
            }
            r
        },
        |r| r.as_ref().map(|(rec, _)| (rec.cycles, rec.instructions)).unwrap_or((0, 0)),
    );
    timing.cells = cells.len();
    let mut row_lines = Vec::with_capacity(cells.len());
    let mut measured = Vec::with_capacity(cells.len());
    let mut quarantine = Vec::new();
    let mut health = ProgressStats::default();
    let mut fresh = results.into_iter();
    for (ci, cell) in cells.iter().enumerate() {
        if let Some(rec) = journal.as_ref().and_then(|j| j.completed.get(&ci)) {
            row_lines.push(rec.row.to_string());
            timing.sim_cycles += rec.cycles;
            timing.sim_instructions += rec.instructions;
            health.merge(&rec.health);
            measured.push(None);
            continue;
        }
        match fresh.next().expect("one supervised result per pending cell") {
            Ok((rec, result)) => {
                health.merge(&rec.health);
                row_lines.push(rec.row.to_string());
                measured.push(Some(result));
            }
            Err(failure) => {
                quarantine.push(QuarantinedCell { cell: cell.name(), attempts: 1, failure });
                measured.push(None);
            }
        }
    }
    Ok((SweepOutcome { row_lines, results: measured, quarantine, resumed, health }, timing))
}

/// The `hists` and `cpi` blocks of one sweep row, from the representative
/// run's per-core counters merged by the stats registry. `hists`: atomic
/// exec latency, the SB drain a `load_lock` paid (zero under the free
/// policies), fills stalled on all-locked sets, cache-lock hold windows,
/// and NoC delivered latency (empty when ideal). `cpi`: the merged CPI
/// stack, whose total `core_cycles` is the per-core cycle sum by the
/// conservation invariant; the atomic-lifetime split (acquire /
/// per-[`LatClass`](fa_mem::LatClass) transfer / directory park / local
/// execute, summing exactly to the committed atomics' exec latency); and
/// the memory side's fill latency by class. All are always-on passive
/// counters, so both blocks are bit-identical at any `FA_THREADS` value and
/// any `FA_TRACE` mode.
fn stat_blocks(r: &RunResult) -> [(&'static str, Json); 2] {
    let (c, m) = (r.aggregate(), CoreMemStats::merged(&r.mem.cores));
    let hists = Json::obj([
        ("atomic_exec", c.atomic_exec_hist.to_json()),
        ("atomic_drain", c.atomic_drain_hist.to_json()),
        ("fill_stall", m.fill_stall_hist.to_json()),
        ("lock_hold", m.lock_hold_hist.to_json()),
        ("noc_delivered", r.mem.noc.delivered_hist.to_json()),
    ]);
    let atomic = Json::obj([
        ("acquire", c.atomic_lock_acquire_cycles.into()),
        ("xfer", Json::arr(c.atomic_xfer_cycles)),
        ("dir_park", c.atomic_dir_park_cycles.into()),
        ("local", c.atomic_local_cycles.into()),
    ]);
    let cpi = Json::obj([
        ("core_cycles", c.cpi.total().into()),
        ("stack", c.cpi.to_json()),
        ("atomic", atomic),
        ("fill", Json::arr(m.fill_cycles_by_class)),
    ]);
    [("hists", hists), ("cpi", cpi)]
}

/// The emitted `BENCH_sweep.json` row of a cell measured under `opts`, in
/// a stable field order: the identity and cycle fields the
/// pre-interconnect goldens pin as the row's prefix (`mean_cycles` over the
/// retained runs, the rest from the representative, fastest retained, run),
/// with an `ablation` field after the preset only for an overridden cell;
/// a `net` block only for contended-crossbar rows, so ideal rows keep the
/// goldens' bytes; the `hists` and `cpi` blocks (`report` reads the latter
/// back); then `"checked":true` when every run passed the axiomatic checker
/// (`FA_CHECK=tso`) and `"model":"weak"` for rows whose cell runs the weak
/// model, so TSO rows stay untagged. No wall-clock quantity: serial and parallel sweeps emit
/// byte-identical rows.
pub(crate) fn sweep_row(opts: &BenchOpts, r: &CellResult) -> Json {
    let rep = r.summary.representative();
    let mut row: Vec<(&str, Json)> = vec![
        ("kernel", r.cell.workload.name.into()),
        ("policy", r.cell.policy.label().into()),
        ("preset", r.cell.preset.name().into()),
    ];
    if let Some(a) = r.cell.ablation {
        row.push(("ablation", a.to_string().into()));
    }
    row.extend([
        ("runs", opts.runs.into()),
        ("mean_cycles", Json::fixed(r.summary.mean_cycles, 6)),
        ("rep_cycles", rep.cycles.into()),
        ("instructions", rep.instructions().into()),
    ]);
    if rep.mem.noc.policy == XbarPolicy::Contended {
        row.push(("net", rep.mem.noc.json()));
    }
    row.extend(stat_blocks(rep));
    if opts.check.on() {
        row.push(("checked", true.into()));
    }
    let model = r.cell.model.unwrap_or(opts.model);
    if model != MemModel::Tso {
        row.push(("model", model.name().into()));
    }
    Json::obj(row)
}

/// A complete sweep report: row lines, any quarantined cells, and the
/// timing block.
#[derive(Clone, Debug)]
pub struct SweepReport {
    /// The driver that produced the report (e.g. `"sweep"`, `"fig14"`).
    pub bin: String,
    /// Runs per cell (for the human summary line).
    pub runs: usize,
    /// Emitted rows (rendered `sweep_row` lines), in grid (cell)
    /// order.
    pub row_lines: Vec<String>,
    /// Cells quarantined by the supervisor; the `quarantine` block is
    /// omitted from the JSON when empty so healthy reports stay
    /// byte-identical to the historical shape.
    pub quarantine: Vec<QuarantinedCell>,
    /// Forward-progress counters aggregated over every run of the
    /// campaign (directory rescues summed; dir-alloc / fill / LSQ attempt
    /// and NoC backlog high-water marks maxed) — surfaced on the human
    /// summary line.
    pub health: ProgressStats,
    /// Wall-clock / simulated-throughput accounting.
    pub timing: SweepTiming,
}

impl SweepReport {
    /// Summarizes a campaign under `bin`'s name, carrying its quarantine
    /// block and aggregated forward-progress health.
    pub fn from_outcome(bin: &str, opts: &BenchOpts, outcome: SweepOutcome, timing: SweepTiming) -> SweepReport {
        SweepReport {
            bin: bin.to_string(),
            runs: opts.runs,
            row_lines: outcome.row_lines,
            quarantine: outcome.quarantine,
            health: outcome.health,
            timing,
        }
    }

    /// Appends `other`'s campaign to this report — rows and quarantine in
    /// order, health and simulated totals folded, wall clocks summed — for
    /// campaigns that differ in what no cell carries (the check mode, the
    /// supervisor).
    pub fn merge(mut self, other: SweepReport) -> SweepReport {
        self.row_lines.extend(other.row_lines);
        self.quarantine.extend(other.quarantine);
        self.health.merge(&other.health);
        self.timing.cells += other.timing.cells;
        self.timing.threads = self.timing.threads.max(other.timing.threads);
        self.timing.wall += other.timing.wall;
        self.timing.sim_cycles += other.timing.sim_cycles;
        self.timing.sim_instructions += other.timing.sim_instructions;
        self
    }

    /// The whole report as pretty-stable JSON: a `fa-sweep-v1` header, the
    /// timing block, one row object per line, and — only when the
    /// supervisor quarantined cells — a `quarantine` block.
    pub fn json(&self) -> String {
        let t = &self.timing;
        let mut s = String::new();
        let _ = write!(
            s,
            "{{\n  \"schema\": \"fa-sweep-v1\",\n  \"bin\": \"{}\",\n  \"threads\": {},\n  \
             \"cells\": {},\n  \"wall_secs\": {:.6},\n  \"sim_cycles\": {},\n  \
             \"sim_instructions\": {},\n  \"cycles_per_sec\": {:.1},\n  \"mips\": {:.3},\n  \
             \"rows\": [\n",
            self.bin,
            t.threads,
            self.row_lines.len(),
            t.wall.as_secs_f64(),
            t.sim_cycles,
            t.sim_instructions,
            t.cycles_per_sec(),
            t.mips()
        );
        // One item a line, comma-separated.
        let list = |s: &mut String, items: &[String]| {
            for (i, item) in items.iter().enumerate() {
                let _ = writeln!(s, "    {item}{}", if i + 1 == items.len() { "" } else { "," });
            }
        };
        list(&mut s, &self.row_lines);
        if !self.quarantine.is_empty() {
            s.push_str("  ],\n  \"quarantine\": [\n");
            let entry = |q: &QuarantinedCell| {
                let failure = Json::Str(q.failure.to_string());
                Json::obj([("cell", q.cell.as_str().into()), ("attempts", q.attempts.into()), ("failure", failure)])
                    .to_string()
            };
            list(&mut s, &self.quarantine.iter().map(entry).collect::<Vec<_>>());
        }
        s.push_str("  ]\n}\n");
        s
    }

    /// The destination honoring `FA_BENCH_JSON` (default
    /// `BENCH_sweep.json` in the working directory).
    pub fn default_path() -> PathBuf {
        env::path("FA_BENCH_JSON").unwrap_or_else(|| PathBuf::from("BENCH_sweep.json"))
    }

    /// Writes the report to [`SweepReport::default_path`] and returns the
    /// path written.
    ///
    /// # Errors
    ///
    /// Any I/O error from writing the file.
    pub fn write(&self) -> std::io::Result<PathBuf> {
        let path = SweepReport::default_path();
        std::fs::write(&path, self.json())?;
        Ok(path)
    }

    /// One-line human summary of the timing block, the forward-progress
    /// health counters (directory rescues and the worst retry/backlog
    /// high-water marks), and any quarantine.
    pub fn timing_line(&self) -> String {
        let t = &self.timing;
        let h = &self.health;
        let mut line = format!(
            "sweep: {} cells x {} runs on {} thread(s): {:.2}s wall, {} sim cycles \
             ({:.2e} cyc/s), {} instrs ({:.2} MIPS), progress: {} dir rescue(s), \
             worst attempts dir={} fill={} lsq={}, noc backlog {}",
            self.row_lines.len(),
            self.runs,
            t.threads,
            t.wall.as_secs_f64(),
            t.sim_cycles,
            t.cycles_per_sec(),
            t.sim_instructions,
            t.mips(),
            h.dir_rescues,
            h.dir_alloc_attempts_max,
            h.fill_attempts_max,
            h.lsq_attempts_max,
            h.noc_backlog_max
        );
        if !self.quarantine.is_empty() {
            let _ = write!(line, ", {} cell(s) QUARANTINED", self.quarantine.len());
        }
        line
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fa_sim::CpiStack;
    use fa_workloads::suite;

    fn small_opts(threads: usize) -> BenchOpts {
        BenchOpts {
            cores: 2,
            scale: 0.05,
            runs: 3,
            drop_slowest: 1,
            seed: 0xF00D,
            threads,
            noc: fa_mem::NocConfig::default(),
            trace: fa_sim::TraceMode::Off,
            check: fa_sim::CheckMode::Off,
            model: fa_sim::MemModel::Tso,
            max_cycles: crate::MAX_CYCLES,
        }
    }

    fn small_grid() -> Vec<SweepCell> {
        let ws =
            suite::select(&["TATP", "PC"]).expect("suite names");
        grid(
            &ws,
            &[AtomicPolicy::FencedBaseline, AtomicPolicy::FreeFwd],
            &[Preset::Tiny],
        )
    }

    /// The grid on the one engine the way the figure drivers call it:
    /// unsupervised, every cell measured.
    fn run(opts: &BenchOpts, cells: &[SweepCell]) -> (Vec<CellResult>, SweepOutcome, SweepTiming) {
        let (mut out, timing) =
            run_grid_supervised(opts, &SupervisorOpts::none(), cells).expect("grid");
        let results = out.take_results(cells).expect("every cell measured");
        (results, out, timing)
    }

    #[test]
    fn preset_names_round_trip() {
        for p in [Preset::Icelake, Preset::Skylake, Preset::Tiny] {
            assert_eq!(Preset::by_name(p.name()), Some(p));
        }
        assert_eq!(Preset::by_name("epyc"), None);
    }

    #[test]
    fn grid_is_row_major_and_complete() {
        let cells = small_grid();
        assert_eq!(cells.len(), 4);
        assert_eq!(cells[0].workload.name, "TATP");
        assert_eq!(cells[0].policy, AtomicPolicy::FencedBaseline);
        assert_eq!(cells[1].policy, AtomicPolicy::FreeFwd);
        assert_eq!(cells[2].workload.name, "PC");
    }

    #[test]
    fn rows_are_byte_identical_at_any_thread_count() {
        let cells = small_grid();
        let o = small_opts(1);
        let (results, serial, _) = run(&o, &cells);
        // Every fresh cell's row line is exactly the row of its result.
        assert_eq!(results.len(), serial.row_lines.len());
        for (r, line) in results.iter().zip(&serial.row_lines) {
            assert_eq!(&sweep_row(&o, r).to_string(), line);
        }
        let base = SweepReport::from_outcome("test", &o, serial.clone(), sweep_timing_stub());
        for threads in [4, 8] {
            let (_, out, t) = run(&small_opts(threads), &cells);
            assert!(out.quarantine.is_empty());
            assert_eq!(out.resumed, 0);
            assert_eq!(out.row_lines, serial.row_lines, "threads={threads}");
            assert_eq!(out.health, serial.health, "threads={threads}");
            assert_eq!(t.cells, cells.len());
            assert!(t.sim_cycles > 0 && t.sim_instructions > 0);
            // The full reports differ only in the timing block.
            let rep = SweepReport::from_outcome("test", &o, out, sweep_timing_stub());
            assert_eq!(rep.json(), base.json());
        }
    }

    #[test]
    fn contended_rows_carry_net_block_ideal_rows_do_not() {
        let cells = small_grid()[..1].to_vec();
        let opts = small_opts(1);
        let (ideal, _, _) = run(&opts, &cells);
        let r = sweep_row(&opts, &ideal[0]);
        assert_eq!(r.get("net"), None, "ideal rows must match the goldens");

        let copts = BenchOpts { noc: fa_mem::NocConfig::contended(2), ..opts };
        let (contended, _, _) = run(&copts, &cells);
        let r = sweep_row(&copts, &contended[0]);
        let net = r.get("net").expect("contended rows surface network stats");
        assert!(net.get("net_messages").and_then(Json::as_u64) > Some(0));
        let j = r.to_string();
        let at = j.find(",\"net\":{\"policy\":\"contended\"").expect("net block");
        let instructions = contended[0].summary.representative().instructions();
        assert!(j[..at].ends_with(&format!("\"instructions\":{instructions}")), "{j}");
        assert!(j[at..].contains("},\"hists\":{"), "net sits between the prefix and hists: {j}");
    }

    fn sweep_timing_stub() -> SweepTiming {
        SweepTiming {
            cells: 4,
            threads: 1,
            wall: std::time::Duration::from_millis(10),
            sim_cycles: 100,
            sim_instructions: 50,
        }
    }

    #[test]
    fn report_rows_are_identical_across_trace_modes_and_threads() {
        // Satellite of the trace layer's tentpole invariant: the entire
        // emitted row array — including the histogram blocks — is a pure
        // function of the simulated cells, whatever the trace mode and
        // worker-thread count.
        use fa_sim::TraceMode;
        let cells = small_grid();
        let report_with = |threads: usize, trace: TraceMode| {
            let opts = BenchOpts { trace, ..small_opts(threads) };
            let (_, out, _) = run(&opts, &cells);
            SweepReport::from_outcome("det", &opts, out, sweep_timing_stub()).json()
        };
        let base_json = report_with(1, TraceMode::Off);
        for threads in [1usize, 4] {
            for trace in [TraceMode::Off, TraceMode::Flight, TraceMode::Full] {
                assert_eq!(
                    report_with(threads, trace),
                    base_json,
                    "rows must be byte-identical at threads={threads}, trace={trace:?}"
                );
            }
        }
        // The histogram block is actually populated in the emitted JSON.
        assert!(base_json.contains("\"hists\":{\"atomic_exec\":{\"count\":"), "{base_json}");
        assert!(base_json.contains("\"noc_delivered\":"), "{base_json}");
    }

    #[test]
    fn checked_sweep_flags_rows_without_perturbing_stats() {
        // FA_CHECK=tso must leave every simulated quantity bit-identical:
        // checked rows differ only by the appended `"checked":true` flag.
        use fa_sim::CheckMode;
        let cells = small_grid()[..2].to_vec();
        let off_opts = small_opts(1);
        let tso_opts = BenchOpts { check: CheckMode::Tso, ..off_opts };
        let (_, off, _) = run(&off_opts, &cells);
        let (_, tso, _) = run(&tso_opts, &cells);
        for (a, b) in off.row_lines.iter().zip(&tso.row_lines) {
            assert!(!a.contains("\"checked\""));
            assert!(b.ends_with(",\"checked\":true}"), "{b}");
            assert_eq!(*a, b.replace(",\"checked\":true", ""));
        }
    }

    #[test]
    fn an_ablated_cell_is_a_cell_of_its_own_and_leaves_the_rest_alone() {
        // Each override sets exactly its machine field.
        let tiny = Preset::Tiny.config();
        let set = |a: Ablation| {
            let mut cfg = tiny.clone();
            a.apply(&mut cfg);
            cfg
        };
        let mut want = tiny.clone();
        want.core.aq_size = 7;
        assert_eq!(set(Ablation::AqEntries(7)), want);
        let mut want = tiny.clone();
        want.core.watchdog_threshold = 1234;
        assert_eq!(set(Ablation::WatchdogCycles(1234)), want);
        let mut want = tiny.clone();
        want.core.fwd_chain_max = 3;
        assert_eq!(set(Ablation::FwdChainMax(3)), want);
        // The override is part of the cell's identity: its name, its
        // report key and the campaign fingerprint tell it apart.
        let plain = small_grid()[1];
        let same = SweepCell { ablation: Some(Ablation::AqEntries(tiny.core.aq_size)), ..plain };
        let one = SweepCell { ablation: Some(Ablation::AqEntries(1)), ..plain };
        assert_eq!(plain.name(), "TATP/FreeAtomics+Fwd/tiny");
        assert_eq!(one.name(), "TATP/FreeAtomics+Fwd/tiny/aq=1");
        let opts = small_opts(1);
        assert_ne!(
            campaign_fingerprint(&opts, &[plain]),
            campaign_fingerprint(&opts, &[same])
        );
        let (_, alone, _) = run(&opts, &[plain]);
        let (_, mixed, _) = run(&opts, &[plain, same, one]);
        // The cell without an override keeps its row bytes and carries no
        // `ablation` field; an override at the preset's own value is the
        // same machine, so its row differs by that field alone.
        assert_eq!(mixed.row_lines[0], alone.row_lines[0]);
        assert!(!alone.row_lines[0].contains("ablation"), "{}", alone.row_lines[0]);
        let field = format!(",\"ablation\":\"aq={}\"", tiny.core.aq_size);
        assert!(mixed.row_lines[1].contains(&field), "{}", mixed.row_lines[1]);
        assert_eq!(mixed.row_lines[1].replace(&field, ""), alone.row_lines[0]);
        let keys: Vec<String> = crate::report::parse_rows(&mixed.row_lines.join("\n"))
            .into_iter()
            .map(|r| r.key)
            .collect();
        assert_eq!(keys, [plain.name(), same.name(), one.name()]);
    }

    #[test]
    fn a_cell_config_is_its_preset_and_ablation_under_the_options_then_its_overrides() {
        use fa_sim::{CheckMode, TraceMode};
        let opts = BenchOpts { trace: TraceMode::Flight, check: CheckMode::Tso, ..small_opts(1) };
        let plain = SweepCell { ablation: Some(Ablation::AqEntries(3)), ..small_grid()[1] };
        let mut want = Preset::Tiny.config();
        want.core.aq_size = 3;
        let want = opts.config_for(&want, AtomicPolicy::FreeFwd);
        assert_eq!(plain.config(&opts), want, "no override: the options' machine");
        // `chaos: None` leaves the preset's fault injection as it found it.
        assert_eq!(plain.config(&opts).mem.chaos, Preset::Tiny.config().mem.chaos);
        let cell = SweepCell {
            noc: Some(fa_mem::NocConfig::contended(4)),
            model: Some(MemModel::Weak),
            chaos: Some(7),
            ..plain
        };
        let cfg = cell.config(&opts);
        assert_eq!(cfg.mem.noc, fa_mem::NocConfig::contended(4));
        assert_eq!(cfg.core.model, MemModel::Weak);
        assert_eq!(cfg.mem.chaos, ChaosConfig::stress(7));
        // The rest is the options' machine, the overrides undone.
        let mut undone = cfg.clone();
        (undone.mem.noc, undone.core.model, undone.mem.chaos) =
            (want.mem.noc, want.core.model, want.mem.chaos.clone());
        assert_eq!(undone, want);
        assert_eq!(
            cell.name(),
            "TATP/FreeAtomics+Fwd/tiny/aq=3 net=contended:4 model=weak chaos=7"
        );
        // A cell's row is tagged with its own memory model.
        let (results, _, _) = run(&small_opts(1), &[SweepCell { model: Some(MemModel::Weak), ..small_grid()[0] }]);
        assert!(sweep_row(&small_opts(1), &results[0]).to_string().ends_with(",\"model\":\"weak\"}"));
    }

    #[test]
    fn weak_sweep_tags_rows_and_tso_rows_stay_untagged() {
        // FA_MODEL=weak rows carry `"model":"weak"`; TSO rows (the
        // default) never grow a model field, so the goldens and the ci
        // transparency gate keep working unchanged.
        use fa_sim::MemModel;
        let cells = small_grid()[..2].to_vec();
        let tso_opts = small_opts(1);
        let weak_opts = BenchOpts { model: MemModel::Weak, ..tso_opts };
        let (_, tso, _) = run(&tso_opts, &cells);
        let (weak, weak_out, _) = run(&weak_opts, &cells);
        for (a, b) in tso.row_lines.iter().zip(&weak_out.row_lines) {
            assert!(!a.contains("\"model\""), "TSO rows must stay untagged: {a}");
            assert!(b.ends_with(",\"model\":\"weak\"}"), "{b}");
        }
        // The weak machine is a different campaign: resuming a TSO journal
        // under FA_MODEL=weak must be refused by the fingerprint.
        assert_ne!(
            campaign_fingerprint(&tso_opts, &cells),
            campaign_fingerprint(&weak_opts, &cells)
        );
        // Both models conserve every core cycle in the CPI stack.
        for r in &weak {
            conserved_stack(&weak_opts, r);
        }
    }

    /// The CPI stack of `r`'s row, read back from its `cpi` block once
    /// `core_cycles`, the stack's total and the representative run's
    /// per-core cycle sum are seen to agree.
    fn conserved_stack(opts: &BenchOpts, r: &CellResult) -> CpiStack {
        let row = sweep_row(opts, r);
        let cpi = row.get("cpi").expect("every row has a cpi block");
        let stack = cpi.get("stack").and_then(CpiStack::from_json).expect("every leaf");
        let cycles: u64 = r.summary.representative().per_core.iter().map(|c| c.cycles).sum();
        assert_eq!(cpi.get("core_cycles").and_then(Json::as_u64), Some(cycles), "{}", r.cell.name());
        assert_eq!(stack.total(), cycles, "{}: the CPI stack must conserve cycles", r.cell.name());
        stack
    }

    #[test]
    fn row_hists_populate() {
        let cells = small_grid();
        let opts = small_opts(1);
        let (results, _, _) = run(&opts, &cells);
        let r = sweep_row(&opts, &results[0]);
        let count = |h| r.get("hists").and_then(|hs| hs.get(h)?.get("count")?.as_u64());
        // Every kernel in the grid performs atomics, so the exec histogram
        // must have samples; the baseline policy also pays SB drains.
        assert!(count("atomic_exec") > Some(0));
        assert!(count("lock_hold") > Some(0), "atomics hold cache locks");
        assert_eq!(r.get("policy").and_then(Json::as_str), Some("baseline"));
        assert!(count("atomic_drain") > Some(0), "baseline pays drains");
        let j = r.to_string();
        assert!(j.contains(",\"hists\":{\"atomic_exec\":"), "{j}");
        assert!(j.ends_with("}}"));
    }

    #[test]
    fn cpi_block_conserves_cycles() {
        use fa_sim::CpiLeaf;
        let cells = small_grid();
        let opts = small_opts(1);
        let (results, _, _) = run(&opts, &cells);
        for r in &results {
            // Conservation: the merged stack accounts every core cycle of
            // the representative run, exactly.
            assert!(conserved_stack(&opts, r).get(CpiLeaf::Commit) > 0, "work commits in every cell");
            // The atomic-lifetime split sums exactly to the committed
            // atomics' exec latency.
            let a = r.summary.representative().aggregate();
            let split = a.atomic_lock_acquire_cycles
                + a.atomic_xfer_cycles.iter().sum::<u64>()
                + a.atomic_dir_park_cycles
                + a.atomic_local_cycles;
            assert_eq!(split, a.atomic_exec_cycles, "{}: atomic split must be exact", r.cell.name());
            let j = sweep_row(&opts, r).to_string();
            assert!(j.contains(",\"cpi\":{\"core_cycles\":"), "{j}");
            assert!(j.contains("\"stack\":{\"commit\":"), "{j}");
            assert!(j.contains("\"atomic\":{\"acquire\":"), "{j}");
        }
        // Baseline pays fence drains the free policies do not.
        let [base, free] = [&results[0], &results[1]].map(|r| conserved_stack(&opts, r));
        assert_eq!(results[0].cell.policy, AtomicPolicy::FencedBaseline);
        assert_eq!(results[1].cell.policy, AtomicPolicy::FreeFwd);
        assert!(
            base.get(CpiLeaf::SbDrain) > free.get(CpiLeaf::SbDrain),
            "the baseline's store-buffer drain leaf must dominate FreeFwd's \
             (base {} vs free {})",
            base.get(CpiLeaf::SbDrain),
            free.get(CpiLeaf::SbDrain)
        );
    }

    #[test]
    fn atomic_split_stays_exact_under_watchdog_storms() {
        // CQ and RBT drive heavy squash/reissue traffic (watchdog-recovered
        // lock deadlocks, long directory parks). A reissued load_lock merges
        // onto its first attempt's still-in-flight MSHR, so the response's
        // transfer/park stamps can predate the reissue — the staging clamp
        // must keep acquire + xfer + park + local == exec exact anyway.
        let ws = suite::select(&["CQ", "RBT"]).expect("suite names");
        let cells =
            grid(&ws, &[AtomicPolicy::FencedBaseline, AtomicPolicy::FreeFwd], &[Preset::Tiny]);
        let mut opts = small_opts(2);
        opts.cores = 4;
        let (meth, params) = (opts.methodology(), opts.params());
        let (campaign, _, _) = run(&opts, &cells);
        for (cell, kept) in cells.iter().zip(&campaign) {
            let r = run_one_cell(&opts, &meth, &params, cell).expect("cell").1;
            assert_eq!(r.summary.runs.len(), 2, "every retained run is checked");
            // The campaign keeps the mean and only the representative run.
            assert_eq!(kept.summary.mean_cycles, r.summary.mean_cycles);
            assert_eq!(kept.summary.runs.len(), 1);
            assert_eq!(kept.summary.representative().cycles, r.summary.representative().cycles);
            for run in &r.summary.runs {
                for (i, c) in run.per_core.iter().enumerate() {
                    let split = c.atomic_lock_acquire_cycles
                        + c.atomic_xfer_cycles.iter().sum::<u64>()
                        + c.atomic_dir_park_cycles
                        + c.atomic_local_cycles;
                    assert_eq!(
                        split, c.atomic_exec_cycles,
                        "{}/{} core {i}: split must stay exact under storms",
                        r.cell.workload.name,
                        r.cell.policy.label()
                    );
                    assert_eq!(
                        c.cpi.total(),
                        c.cycles,
                        "{}/{} core {i}: leaf sum != cycles",
                        r.cell.workload.name,
                        r.cell.policy.label()
                    );
                }
            }
        }
    }

    #[test]
    fn timing_line_surfaces_progress_health() {
        let cells = small_grid()[..1].to_vec();
        let opts = small_opts(1);
        let (_, out, timing) = run(&opts, &cells);
        let rep = SweepReport::from_outcome("health", &opts, out, timing);
        let line = rep.timing_line();
        assert!(line.contains(", progress: 0 dir rescue(s)"), "healthy runs never rescue: {line}");
        assert!(line.contains("worst attempts dir="), "{line}");
        assert!(line.contains("noc backlog"), "{line}");
        // Forward-progress counts sum, high-water marks max.
        let a = ProgressStats {
            dir_rescues: 2,
            dir_alloc_attempts_max: 5,
            fill_attempts_max: 1,
            lsq_attempts_max: 0,
            noc_backlog_max: 10,
        };
        let b = ProgressStats {
            dir_rescues: 1,
            dir_alloc_attempts_max: 3,
            fill_attempts_max: 4,
            lsq_attempts_max: 2,
            noc_backlog_max: 7,
        };
        assert_eq!(
            ProgressStats::merged([&a, &b]),
            ProgressStats {
                dir_rescues: 3,
                dir_alloc_attempts_max: 5,
                fill_attempts_max: 4,
                lsq_attempts_max: 2,
                noc_backlog_max: 10,
            }
        );
    }

    #[test]
    fn invalid_methodology_is_rejected_before_any_run() {
        let cells = small_grid();
        let opts = BenchOpts { runs: 2, drop_slowest: 2, ..small_opts(1) };
        let err = run_grid_supervised(&opts, &SupervisorOpts::none(), &cells)
            .expect_err("must reject");
        assert_eq!(err, SimError::InvalidMethodology { runs: 2, drop_slowest: 2 });
    }

    #[test]
    fn report_json_shape_and_merge() {
        let opts = small_opts(1);
        let cells = small_grid()[..1].to_vec();
        let (_, out, timing) = run(&opts, &cells);
        let rep = SweepReport::from_outcome("unit", &opts, out, timing);
        let j = rep.json();
        assert!(j.starts_with("{\n  \"schema\": \"fa-sweep-v1\""));
        assert!(j.contains("\"bin\": \"unit\""));
        assert!(j.contains("\"kernel\":\"TATP\""));
        assert!(j.contains("\"mips\":"));
        assert!(j.ends_with("  ]\n}\n"));
        assert!(!j.contains("\"quarantine\""), "healthy reports omit the quarantine block");
        assert!(!rep.timing_line().is_empty());
        // Merging appends rows in order and sums the accounting.
        let (row, cycles, wall) = (rep.row_lines[0].clone(), rep.timing.sim_cycles, rep.timing.wall);
        let both = rep.clone().merge(rep);
        assert_eq!(both.row_lines, [row.clone(), row]);
        assert_eq!(both.timing.cells, 2);
        assert_eq!(both.timing.sim_cycles, 2 * cycles);
        assert_eq!(both.timing.wall, 2 * wall);
    }

    fn tmp_journal(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("fa-sweep-journal-{name}-{}", std::process::id()));
        p
    }

    #[test]
    fn killed_and_resumed_campaign_is_byte_identical() {
        let cells = small_grid();
        let (_, reference, _) = run(&small_opts(1), &cells);
        // One full checkpointed campaign produces the journal to truncate.
        let jpath = tmp_journal("resume");
        let _ = std::fs::remove_file(&jpath);
        let sup = |threads: usize| {
            (
                BenchOpts { threads, ..small_opts(1) },
                SupervisorOpts { checkpoint: Some(jpath.clone()) },
            )
        };
        let (o, s) = sup(1);
        let (full, full_timing) = run_grid_supervised(&o, &s, &cells).expect("checkpointed run");
        assert_eq!(full.row_lines, reference.row_lines);
        let journal = std::fs::read(&jpath).expect("journal written");
        let newlines: Vec<usize> =
            journal.iter().enumerate().filter(|(_, &b)| b == b'\n').map(|(i, _)| i).collect();
        assert_eq!(newlines.len(), 1 + cells.len(), "header + one record per cell");
        // Kill points: mid-header, header only, after each of the first two
        // records, mid-record (torn write), and the complete journal.
        let cuts = [
            5,
            newlines[0] + 1,
            newlines[1] + 1,
            newlines[2] + 1,
            newlines[2] + 30, // torn third record
            journal.len(),
        ];
        for threads in [1usize, 8] {
            for &cut in &cuts {
                std::fs::write(&jpath, &journal[..cut]).expect("truncate journal");
                let (o, s) = sup(threads);
                let (mut resumed, t) = run_grid_supervised(&o, &s, &cells).expect("resumed run");
                assert_eq!(
                    resumed.row_lines, reference.row_lines,
                    "rows must be byte-identical after kill at byte {cut}, threads={threads}"
                );
                assert!(resumed.quarantine.is_empty());
                // Journaled cells carry no measured result; fresh ones do.
                let fresh = resumed.results.iter().filter(|r| r.is_some()).count();
                assert_eq!(fresh + resumed.resumed, cells.len(), "cut {cut}");
                // Health is identical however the work splits between
                // journal replay and fresh runs.
                assert_eq!(resumed.health, reference.health, "cut {cut}");
                // Simulated totals are identical however the work splits
                // between journal replay and fresh runs.
                assert_eq!(
                    t.sim_cycles, full_timing.sim_cycles,
                    "resumed timing must account journaled cells too (cut {cut})"
                );
                assert_eq!(t.sim_instructions, full_timing.sim_instructions);
                // A table driver must refuse a campaign with replayed
                // cells, naming the first one.
                if resumed.resumed > 0 {
                    let err = resumed.take_results(&cells).expect_err("replayed cells");
                    let want = cells[resumed.results.iter().position(Option::is_none).expect("one")];
                    assert!(
                        matches!(&err, SimError::CellFailed { cell, cause }
                            if *cell == want.name() && **cause == CellFailure::Resumed),
                        "{err}"
                    );
                }
            }
        }
        // After a complete campaign, every cell resumes from the journal.
        std::fs::write(&jpath, &journal).expect("restore journal");
        let (o, s) = sup(1);
        let (all_resumed, _) = run_grid_supervised(&o, &s, &cells).expect("full resume");
        assert_eq!(all_resumed.resumed, cells.len());
        assert!(all_resumed.results.iter().all(Option::is_none));
        assert_eq!(all_resumed.row_lines, reference.row_lines);
        std::fs::remove_file(&jpath).expect("cleanup");
    }

    #[test]
    #[should_panic(expected = "different campaign")]
    fn resuming_under_different_options_panics() {
        let cells = small_grid();
        let jpath = tmp_journal("mismatch");
        let _ = std::fs::remove_file(&jpath);
        let sup = SupervisorOpts { checkpoint: Some(jpath.clone()) };
        run_grid_supervised(&small_opts(1), &sup, &cells).expect("first campaign");
        // A different seed is a different campaign; replaying its rows
        // would corrupt the sweep, so the journal must refuse loudly.
        let other = BenchOpts { seed: 0xBEEF, ..small_opts(1) };
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run_grid_supervised(&other, &sup, &cells)
        }));
        std::fs::remove_file(&jpath).expect("cleanup");
        if let Err(p) = r {
            std::panic::resume_unwind(p);
        }
    }

    #[test]
    fn exhausted_cell_budget_quarantines_and_the_campaign_completes() {
        let cells = small_grid();
        // 200 cycles is far too few for any cell: it times out, and since
        // a cell is a pure function of its inputs it is quarantined after
        // one attempt — but the campaign still returns Ok with a
        // structured report per lost cell, the same at any thread count.
        let mut quarantine_json = Vec::new();
        for threads in [1, 4] {
            let opts = BenchOpts { max_cycles: 200, ..small_opts(threads) };
            let (mut out, _) =
                run_grid_supervised(&opts, &SupervisorOpts::none(), &cells).expect("campaign");
            assert!(out.row_lines.is_empty());
            assert!(out.results.iter().all(Option::is_none));
            assert_eq!(out.quarantine.len(), cells.len());
            let q = &out.quarantine[0];
            assert_eq!(q.cell, "TATP/baseline/tiny");
            assert_eq!(q.attempts, 1, "a cycle-budget timeout is not re-run");
            let failure = q.failure.to_string();
            assert!(failure.contains("did not quiesce within 200 cycles"), "{failure}");

            // A table driver gets an error naming the first lost cell and
            // its failure — never a partial result set.
            let err = out.take_results(&cells).expect_err("no cell has a result");
            assert!(
                matches!(&err, SimError::CellFailed { cell, .. } if cell == "TATP/baseline/tiny"),
                "{err}"
            );
            let text = err.to_string();
            assert!(text.starts_with("cell TATP/baseline/tiny failed: machine did not quiesce"));
            assert!(text.contains("did not quiesce within 200 cycles"), "{err}");

            // The report renders the quarantine block, flags the summary
            // line, and the JSON stays well-shaped.
            let rep = SweepReport::from_outcome("qtest", &opts, out, sweep_timing_stub());
            let j = rep.json();
            assert!(j.contains("\"quarantine\": [\n"), "{j}");
            assert!(j.contains("{\"cell\":\"TATP/baseline/tiny\",\"attempts\":1,\"failure\":\""));
            assert!(j.contains("did not quiesce"), "failure text is carried, escaped");
            assert!(!j.contains("\nsnapshot"), "newlines in failures must be escaped");
            assert!(j.ends_with("  ]\n}\n"));
            assert!(rep.timing_line().ends_with("4 cell(s) QUARANTINED"), "{}", rep.timing_line());
            let at = j.find("\"quarantine\"").expect("quarantine block");
            quarantine_json.push(j[at..].to_string());
        }
        assert_eq!(quarantine_json[0], quarantine_json[1], "quarantine differs between 1 and 4 threads");
    }

    #[test]
    fn campaign_fingerprint_tracks_results_affecting_knobs_only() {
        let cells = small_grid();
        let opts = small_opts(1);
        let fp = campaign_fingerprint(&opts, &cells);
        assert_eq!(fp, campaign_fingerprint(&BenchOpts { threads: 8, ..opts }, &cells));
        assert_eq!(
            fp,
            campaign_fingerprint(&BenchOpts { trace: fa_sim::TraceMode::Flight, ..opts }, &cells),
            "trace mode never perturbs rows, so it is not part of the campaign identity"
        );
        assert_ne!(fp, campaign_fingerprint(&BenchOpts { seed: 1, ..opts }, &cells));
        // A cell's own interconnect, memory model and fault injection are
        // part of its identity.
        let overridden = [
            SweepCell { chaos: Some(1), ..cells[0] },
            SweepCell { noc: Some(fa_mem::NocConfig::contended(2)), ..cells[0] },
            SweepCell { model: Some(MemModel::Weak), ..cells[0] },
        ];
        for cell in overridden {
            let mut other = cells.clone();
            other[0] = cell;
            assert_ne!(fp, campaign_fingerprint(&opts, &other), "{}", cell.name());
        }
        assert_ne!(fp, campaign_fingerprint(&BenchOpts { max_cycles: 1000, ..opts }, &cells));
        assert_ne!(fp, campaign_fingerprint(&opts, &cells[..3]));
    }
}
