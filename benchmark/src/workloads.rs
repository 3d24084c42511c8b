//! The four benchmark workloads: their cells, one pass over them, and the
//! checks every pass must hold.
//!
//! A workload is a closed loop on one host thread: one cell at a time, the
//! next one started only when the previous one has returned. Modelled
//! caches start empty in every cell.

use crate::json;
use crate::spans::Tracer;
use crate::splitloop::{SplitMachine, TickProfile};
use fa_bench::sweep::{run_grid_supervised, Preset, SupervisorOpts, SweepCell, SweepReport};
use fa_bench::BenchOpts;
use fa_core::AtomicPolicy;
use fa_isa::interp::GuestMem;
use fa_isa::Program;
use fa_mem::{NocConfig, SplitMix64};
use fa_sim::{
    fuzz_litmus, tiny_machine, FuzzConfig, LitmusTest, Machine, MachineConfig, RunResult,
};
use fa_workloads::kernels::{COUNTER_BASE, DATA_BASE, LOCK_BASE};
use fa_workloads::{suite, WorkloadParams, WorkloadSpec};
use std::time::Instant;

/// The seed `expected_rows.json` is pinned at.
pub const PINNED_SEED: u64 = 0xF00D;

/// Cycle budget of one suite cell, as `fa_bench` uses.
const SUITE_MAX_CYCLES: u64 = 400_000_000;
/// Cycle budget of one litmus cell, as `LitmusTest::run_detailed` uses.
const LITMUS_MAX_CYCLES: u64 = 5_000_000;
/// Guest memory of one litmus cell, as `LitmusTest::run_checked` uses.
const LITMUS_MEM_BYTES: u64 = 1 << 16;
/// Independent fuzz campaigns one `litmus_campaign` pass is split into.
const FUZZ_CHUNKS: usize = 8;
/// The fuzz campaigns a `litmus_campaign` pass draws its chunks from:
/// `FuzzConfig::seed` in `FUZZ_CORPUS_BASE..FUZZ_CORPUS_BASE + FUZZ_CORPUS`.
///
/// The benchmark must run on inputs on which no operation fails, and the
/// differential fuzzer does find a real conformance violation in the
/// simulator about once in 50 000 cases (README, "Findings"), so campaigns
/// seeded freely from `--seed` would fail one run in a few dozen. Every
/// campaign of this corpus is clean at `Sizing::FULL` at the commit that
/// adds the benchmark (a test holds that); `--seed` picks which of them a
/// run uses. A failure in one of them counts in `failed` like any other.
const FUZZ_CORPUS_BASE: u64 = 0xF1A7_0000;
const FUZZ_CORPUS: usize = 64;

/// The policy pair behind `freefwd_speedup`, the paper's Fig. 14 quantity.
pub const PAIR: [AtomicPolicy; 2] = [AtomicPolicy::FencedBaseline, AtomicPolicy::FreeFwd];

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WorkloadId {
    AtomicGrid,
    ComputeGrid,
    Noc8Grid,
    LitmusCampaign,
}

impl WorkloadId {
    pub const ALL: [WorkloadId; 4] = [
        WorkloadId::AtomicGrid,
        WorkloadId::ComputeGrid,
        WorkloadId::Noc8Grid,
        WorkloadId::LitmusCampaign,
    ];

    pub fn name(self) -> &'static str {
        match self {
            WorkloadId::AtomicGrid => "atomic_grid",
            WorkloadId::ComputeGrid => "compute_grid",
            WorkloadId::Noc8Grid => "noc8_grid",
            WorkloadId::LitmusCampaign => "litmus_campaign",
        }
    }

    pub fn by_name(name: &str) -> Option<WorkloadId> {
        WorkloadId::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// How large each workload is. `FULL` is the benchmark; `TINY` exists for
/// the crate's own tests only.
#[derive(Clone, Copy, Debug)]
pub struct Sizing {
    pub atomic_scale: f64,
    pub compute_scale: f64,
    pub noc8_scale: f64,
    /// Cases per fuzz chunk; a pass runs `FUZZ_CHUNKS` chunks.
    pub fuzz_chunk_cases: u64,
    /// Start-offset draws per litmus gallery test and policy.
    pub gallery_reps: usize,
    /// Scale of the fixed cells behind the workload-independent layer
    /// metrics (passive-layer table, sweep overhead, reference speed).
    pub fixed_scale: f64,
}

impl Sizing {
    pub const FULL: Sizing = Sizing {
        atomic_scale: 0.027,
        compute_scale: 0.135,
        noc8_scale: 0.042,
        fuzz_chunk_cases: 100,
        gallery_reps: 8,
        fixed_scale: 0.025,
    };
    #[cfg(test)]
    pub const TINY: Sizing = Sizing {
        atomic_scale: 0.01,
        compute_scale: 0.03,
        noc8_scale: 0.01,
        fuzz_chunk_cases: 1,
        gallery_reps: 1,
        fixed_scale: 0.01,
    };
}

enum Source {
    Suite(WorkloadSpec, WorkloadParams),
    Litmus(LitmusTest),
}

/// One simulated run: a kernel under a policy on a machine.
pub struct Cell {
    /// Unique within the workload, e.g. `CQ/baseline`.
    pub id: String,
    /// The group `freefwd_speedup` pairs policies within.
    pub kernel: String,
    pub policy: AtomicPolicy,
    pub cfg: MachineConfig,
    pub offsets: Vec<u64>,
    pub max_cycles: u64,
    source: Source,
}

impl Cell {
    pub fn build(&self) -> (Vec<Program>, GuestMem) {
        match &self.source {
            Source::Suite(spec, params) => {
                let w = spec.build(params);
                (w.programs, w.mem)
            }
            Source::Litmus(t) => (t.to_programs(), GuestMem::new(LITMUS_MEM_BYTES)),
        }
    }
}

/// `(cycles, instructions)` of one cell: the pair every pass must
/// reproduce bit for bit.
pub type Row = (u64, u64);

/// How a direct cell run drives the machine.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Engine {
    /// `Machine::new` + `Machine::run`: what users run.
    Machine,
    /// The benchmark's always-tick split loop, no timers.
    Split,
    /// The split loop with a timer around every tick.
    SplitTimed,
}

/// What one pass produced.
#[derive(Default)]
pub struct Pass {
    /// Wall time of the pass, set-up of each cell included.
    pub host_s: f64,
    /// Wall time of each step of the pass, in order: one per fuzz
    /// campaign chunk, then one per cell (on `atomic_grid`: the cell's
    /// supervised sweep and report). The same step does the same work in
    /// every pass of a plan.
    pub step_s: Vec<f64>,
    /// One row per cell of [`Plan::cells`], in order; `(0, 0)` for a cell
    /// that failed to run.
    pub rows: Vec<Row>,
    /// Full results of the cells (direct engines only).
    pub results: Vec<Option<RunResult>>,
    /// Cells plus litmus runs attempted.
    pub ops: u64,
    /// One line per failed check.
    pub failures: Vec<String>,
    /// Layer times of a `SplitTimed` pass.
    pub profile: TickProfile,
    /// `Machine::run` or split-loop time of each cell of a direct pass.
    pub loop_step_s: Vec<f64>,
}

/// The user-facing sweep path: one supervised sweep per cell, each with
/// its report written and read back. A sweep per cell and not one over the
/// grid, so that every cell is a timed step of its own (`measure.rs`).
struct SweepPlan {
    opts: BenchOpts,
    /// The sweep engine's view of `Plan::cells`, in the same order.
    cells: Vec<SweepCell>,
}

/// One workload instantiated for a seed.
pub struct Plan {
    pub id: WorkloadId,
    pub seed: u64,
    pub cells: Vec<Cell>,
    /// `atomic_grid` passes go through the user-facing supervised sweep.
    sweep: Option<SweepPlan>,
    /// `litmus_campaign` passes start with the fuzz campaign, run as
    /// independent chunks so each is a step of its own. Direct passes skip
    /// it: the engine under the cells never touches it.
    fuzz: Vec<FuzzConfig>,
}

/// A kernels × policies grid on the Icelake-like preset. `swept` grids
/// carry the start offsets the sweep engine's run 0 draws, so the direct
/// path and the sweep produce the same rows; the others start every core
/// at cycle 0.
fn suite_grid(
    seed: u64,
    cores: usize,
    scale: f64,
    noc: NocConfig,
    kernels: &[&str],
    policies: &[AtomicPolicy],
    swept: bool,
) -> (Vec<Cell>, SweepPlan) {
    let opts = BenchOpts {
        cores,
        scale,
        runs: 1,
        drop_slowest: 0,
        seed,
        threads: 1,
        noc,
        ..BenchOpts::default()
    };
    let specs = suite::select(kernels).expect("benchmark kernels are suite members");
    let sweep_cells = fa_bench::sweep::grid(&specs, policies, &[Preset::Icelake]);
    let offsets = if swept {
        opts.methodology().run_offsets(0, cores)
    } else {
        vec![0; cores]
    };
    let cells = sweep_cells
        .iter()
        .map(|c| Cell {
            id: format!("{}/{}", c.workload.name, c.policy.label()),
            kernel: c.workload.name.to_string(),
            policy: c.policy,
            cfg: opts.config_for(&c.preset.config(), c.policy),
            offsets: offsets.clone(),
            max_cycles: SUITE_MAX_CYCLES,
            source: Source::Suite(c.workload, opts.params()),
        })
        .collect();
    let sweep = SweepPlan {
        opts,
        cells: sweep_cells,
    };
    (cells, sweep)
}

/// The named litmus gallery on the tiny machine, each test under both
/// policies of [`PAIR`] at `reps` seeded start-offset draws.
fn gallery_cells(seed: u64, reps: usize) -> Vec<Cell> {
    let mut rng = SplitMix64::new(seed);
    let mut tests = LitmusTest::all();
    tests.extend(LitmusTest::weak_gallery());
    let mut cells = Vec::new();
    for t in tests {
        for rep in 0..reps {
            let offsets: Vec<u64> = (0..t.threads.len()).map(|_| rng.below(120)).collect();
            for policy in PAIR {
                let mut cfg = tiny_machine();
                cfg.core.policy = policy;
                cells.push(Cell {
                    id: format!("{}#{rep}/{}", t.name, policy.label()),
                    kernel: t.name.to_string(),
                    policy,
                    cfg,
                    offsets: offsets.clone(),
                    max_cycles: LITMUS_MAX_CYCLES,
                    source: Source::Litmus(t.clone()),
                });
            }
        }
    }
    cells
}

impl Plan {
    /// Generates the workload's inputs from `seed`.
    pub fn new(id: WorkloadId, seed: u64, size: &Sizing) -> Plan {
        let ideal = NocConfig::default();
        match id {
            WorkloadId::AtomicGrid => {
                let (cells, sweep) = suite_grid(
                    seed,
                    4,
                    size.atomic_scale,
                    ideal,
                    &["TATP", "PC", "CQ", "canneal"],
                    &AtomicPolicy::ALL,
                    true,
                );
                Plan {
                    id,
                    seed,
                    cells,
                    sweep: Some(sweep),
                    fuzz: Vec::new(),
                }
            }
            WorkloadId::ComputeGrid => {
                let kernels = ["watersp", "ocean_cp", "lu_cb", "radix", "fft"];
                let (cells, _) =
                    suite_grid(seed, 4, size.compute_scale, ideal, &kernels, &PAIR, false);
                Plan {
                    id,
                    seed,
                    cells,
                    sweep: None,
                    fuzz: Vec::new(),
                }
            }
            WorkloadId::Noc8Grid => {
                let kernels = ["RBT", "AS", "barnes", "volrend"];
                let (cells, _) = suite_grid(
                    seed,
                    8,
                    size.noc8_scale,
                    NocConfig::contended(1),
                    &kernels,
                    &PAIR,
                    false,
                );
                Plan {
                    id,
                    seed,
                    cells,
                    sweep: None,
                    fuzz: Vec::new(),
                }
            }
            WorkloadId::LitmusCampaign => {
                // `seed` shuffles the corpus; the first chunks are the run's.
                let mut rng = SplitMix64::new(seed);
                let mut corpus: Vec<u64> = (0..FUZZ_CORPUS as u64).collect();
                for i in 0..FUZZ_CHUNKS {
                    let j = i + rng.below((FUZZ_CORPUS - i) as u64) as usize;
                    corpus.swap(i, j);
                }
                let fuzz = corpus[..FUZZ_CHUNKS]
                    .iter()
                    .map(|k| FuzzConfig {
                        cases: size.fuzz_chunk_cases,
                        threads: 1,
                        seed: FUZZ_CORPUS_BASE + k,
                        ..FuzzConfig::default()
                    })
                    .collect();
                Plan {
                    id,
                    seed,
                    cells: gallery_cells(seed, size.gallery_reps),
                    sweep: None,
                    fuzz,
                }
            }
        }
    }

    /// The cells of the fixed part of a traced run: the `atomic_grid`
    /// kernels at `Sizing::fixed_scale`, with their sweep plan.
    pub fn fixed(seed: u64, size: &Sizing) -> Plan {
        Plan::new(
            WorkloadId::AtomicGrid,
            seed,
            &Sizing {
                atomic_scale: size.fixed_scale,
                ..*size
            },
        )
    }

    /// One pass the way a user runs the workload: `atomic_grid` through
    /// the supervised sweep and its report, the others cell by cell.
    pub fn pass(&self, tracer: &mut Tracer) -> Pass {
        self.pass_on(None, tracer)
    }

    /// One pass with every cell run directly (never through the sweep) on
    /// `engine`, and without the fuzz campaign.
    pub fn direct_pass(&self, engine: Engine, tracer: &mut Tracer) -> Pass {
        self.pass_on(Some(engine), tracer)
    }

    /// Index of the first step of a [`Plan::pass`] whose cells report
    /// cycles and instructions: the steps before it are fuzz chunks.
    pub fn sim_steps_from(&self) -> usize {
        self.fuzz.len()
    }

    fn pass_on(&self, direct: Option<Engine>, tracer: &mut Tracer) -> Pass {
        let mut p = Pass::default();
        let span = tracer.begin("bench.pass", None);
        let t0 = Instant::now();
        let mut last = t0;
        // Closes a step: everything since the previous step closed.
        let mut step = |p: &mut Pass| {
            let now = Instant::now();
            p.step_s.push((now - last).as_secs_f64());
            last = now;
        };
        let fuzz = if direct.is_none() {
            &self.fuzz[..]
        } else {
            &[]
        };
        for fcfg in fuzz {
            let report = tracer.scope("sim.fuzz_litmus", None, || {
                fuzz_litmus(&tiny_machine(), fcfg)
            });
            p.ops += report.runs;
            for f in &report.failures {
                p.failures.push(first_line(f));
            }
            step(&mut p);
        }
        p.ops += self.cells.len() as u64;
        match (&self.sweep, direct) {
            (Some(sweep), None) => {
                for (swept, cell) in sweep.cells.iter().zip(&self.cells) {
                    sweep_step(
                        &sweep.opts,
                        std::slice::from_ref(swept),
                        std::slice::from_ref(cell),
                        &mut p,
                        tracer,
                    );
                    step(&mut p);
                }
            }
            (_, engine) => {
                for cell in &self.cells {
                    let result = run_cell(cell, engine.unwrap_or(Engine::Machine), &mut p, tracer);
                    p.rows.push(
                        result
                            .as_ref()
                            .map_or((0, 0), |r| (r.cycles, r.instructions())),
                    );
                    p.results.push(result);
                    step(&mut p);
                }
            }
        }
        p.host_s = t0.elapsed().as_secs_f64();
        tracer.end(span);
        p
    }
}

/// One supervised sweep over `sweep_cells` (the sweep engine's view of
/// `cells`), its report written as JSON and read back; appends the rows.
fn sweep_step(
    opts: &BenchOpts,
    sweep_cells: &[SweepCell],
    cells: &[Cell],
    p: &mut Pass,
    tracer: &mut Tracer,
) {
    let swept = tracer.scope("bench.run_grid_supervised", None, || {
        run_grid_supervised(opts, &SupervisorOpts::none(), sweep_cells)
    });
    let (outcome, timing) = match swept {
        Ok(x) => x,
        Err(e) => {
            p.failures
                .push(format!("run_grid_supervised: {}", first_line(&e)));
            p.rows.extend(vec![(0, 0); cells.len()]);
            return;
        }
    };
    for q in &outcome.quarantine {
        p.failures.push(format!(
            "{} quarantined after {} attempts",
            q.cell, q.attempts
        ));
    }
    let text = tracer.scope("bench.report_json", None, || {
        SweepReport::from_outcome("benchmark", opts, outcome, timing).json()
    });
    let parsed = tracer.scope("bench.report_parse", None, || {
        fa_bench::report::parse_rows(&text).len()
    });
    if parsed != cells.len() {
        p.failures.push(format!(
            "report::parse_rows read {parsed} of {} rows",
            cells.len()
        ));
    }
    p.rows.extend(sweep_rows(&text, cells, &mut p.failures));
}

/// Reads each cell's row out of a sweep report and checks cycle-accounting
/// conservation on it.
fn sweep_rows(report: &str, cells: &[Cell], failures: &mut Vec<String>) -> Vec<Row> {
    let doc = match json::parse(report) {
        Ok(d) => d,
        Err(e) => {
            failures.push(format!("sweep report is not JSON: {e}"));
            return vec![(0, 0); cells.len()];
        }
    };
    let rows = doc.get("rows").as_arr();
    cells
        .iter()
        .map(|cell| {
            let found = rows.iter().find(|r| {
                r.get("kernel").as_str() == Some(&cell.kernel)
                    && r.get("policy").as_str() == Some(cell.policy.label())
            });
            let Some(r) = found else {
                failures.push(format!("{}: no row in the sweep report", cell.id));
                return (0, 0);
            };
            let cpi = r.get("cpi");
            let leaves: u64 = cpi
                .get("stack")
                .as_obj()
                .map_or(0, |m| m.values().filter_map(json::Value::as_u64).sum());
            if cpi.get("core_cycles").as_u64() != Some(leaves) {
                failures.push(format!(
                    "{}: cpi leaves sum to {leaves}, not core_cycles",
                    cell.id
                ));
            }
            match (r.get("rep_cycles").as_u64(), r.get("instructions").as_u64()) {
                (Some(c), Some(i)) => (c, i),
                _ => {
                    failures.push(format!("{}: row lacks rep_cycles/instructions", cell.id));
                    (0, 0)
                }
            }
        })
        .collect()
}

/// Builds, constructs and runs one cell on `engine`, checks it, and adds
/// its loop time (and tick profile) into `p`.
fn run_cell(cell: &Cell, engine: Engine, p: &mut Pass, tracer: &mut Tracer) -> Option<RunResult> {
    let idx = Some(tracer.cell(&cell.id));
    let cell_span = tracer.begin("bench.cell", idx);
    let (programs, guest) = tracer.scope("workloads.build", idx, || cell.build());
    let before = GuestSums::of(cell, &guest);

    let outcome: Result<(RunResult, GuestSums), String> = if engine == Engine::Machine {
        let mut m = tracer.scope("sim.machine_new", idx, || {
            let mut m = Machine::new(cell.cfg.clone(), programs, guest);
            m.set_start_offsets(cell.offsets.clone());
            m
        });
        let span = tracer.begin("sim.machine_run", idx);
        let t = Instant::now();
        let r = m.run(cell.max_cycles);
        p.loop_step_s.push(t.elapsed().as_secs_f64());
        tracer.end(span);
        r.map(|r| (r, GuestSums::of(cell, m.guest_mem())))
            .map_err(|e| first_line(&e))
    } else {
        let mut m = tracer.scope("bench.split_new", idx, || {
            SplitMachine::new(&cell.cfg, programs, guest)
        });
        let mut prof = TickProfile::default();
        let span = tracer.begin("sim.split_loop", idx);
        let t = Instant::now();
        let r = if engine == Engine::SplitTimed {
            m.run::<true>(&cell.offsets, cell.max_cycles, &mut prof)
        } else {
            m.run::<false>(&cell.offsets, cell.max_cycles, &mut prof)
        };
        p.loop_step_s.push(t.elapsed().as_secs_f64());
        if engine == Engine::SplitTimed {
            tracer.accumulated("mem.tick", prof.mem_ns, prof.mem_calls);
            tracer.accumulated("core.tick", prof.core_ns, prof.core_calls);
        }
        tracer.end(span);
        p.profile.add(&prof);
        r.map(|r| (r, GuestSums::of(cell, m.guest_mem())))
    };
    tracer.end(cell_span);

    match outcome {
        Ok((r, after)) => {
            for (i, c) in r.per_core.iter().enumerate() {
                if c.cpi.total() != c.cycles {
                    p.failures.push(format!(
                        "{}: core {i} cpi total {} != cycles {}",
                        cell.id,
                        c.cpi.total(),
                        c.cycles
                    ));
                }
            }
            before.check(&after, cell, &mut p.failures);
            Some(r)
        }
        Err(e) => {
            p.failures.push(format!("{}: {e}", cell.id));
            None
        }
    }
}

/// The first line of an error's text: `SimError` appends a machine
/// snapshot, which a failure line has no room for.
pub fn first_line(e: &dyn std::fmt::Display) -> String {
    e.to_string().lines().next().unwrap_or("").to_string()
}

/// The guest-memory words the conservation checks of
/// `tests/workload_correctness.rs` read, summed before and after a run.
#[derive(Default)]
struct GuestSums {
    /// Lock lines (of 256; every kernel's table fits) still held: a
    /// test-and-set word that is not 0, or a ticket lock whose next ticket
    /// (word 0) differs from now-serving (word 1, which a test-and-set
    /// lock never writes).
    held_locks: usize,
    /// Wrapping sum of the first 64 data records (AS, CQ).
    records: u64,
    /// Sum of the 256 tree nodes (RBT).
    nodes: u64,
    enqueued: u64,
    dequeued: u64,
}

impl GuestSums {
    fn of(cell: &Cell, g: &GuestMem) -> GuestSums {
        if matches!(cell.source, Source::Litmus(_)) {
            return GuestSums::default();
        }
        let sum = |base: i64, n: u64, stride: u64| {
            (0..n)
                .map(|i| g.load(base as u64 + i * stride))
                .fold(0u64, u64::wrapping_add)
        };
        GuestSums {
            held_locks: (0..256u64)
                .map(|i| LOCK_BASE as u64 + i * 64)
                .filter(|&lock| g.load(lock) != g.load(lock + 8))
                .count(),
            records: sum(DATA_BASE, 64, 64),
            nodes: sum(DATA_BASE, 256, 8),
            enqueued: g.load((COUNTER_BASE + 8) as u64),
            dequeued: g.load((COUNTER_BASE + 64 + 8) as u64),
        }
    }

    /// `self` is the state before the run, `after` the state at quiesce.
    fn check(&self, after: &GuestSums, cell: &Cell, failures: &mut Vec<String>) {
        let Source::Suite(_, params) = &cell.source else {
            return;
        };
        let mut fail = |what: String| failures.push(format!("{}: {what}", cell.id));
        // `suite::scaled`, which the crate keeps private.
        let iters = |base: f64| ((base * params.scale).round() as u64).max(2) * params.cores as u64;
        if after.held_locks != 0 {
            fail(format!("{} locks still held at quiesce", after.held_locks));
        }
        match cell.kernel.as_str() {
            "CQ" => {
                if after.enqueued != after.dequeued || after.enqueued != iters(250.0) {
                    fail(format!(
                        "{} enqueued, {} dequeued, {} expected",
                        after.enqueued,
                        after.dequeued,
                        iters(250.0)
                    ));
                }
                if after.records != 0 {
                    fail("queue slots not empty at quiesce".to_string());
                }
            }
            // Swaps preserve the wrapping sum; a rare same-index pick adds
            // one, at most once per iteration.
            "AS" if after.records.wrapping_sub(self.records) > iters(250.0) => {
                fail(format!(
                    "record sum moved by {}",
                    after.records.wrapping_sub(self.records)
                ));
            }
            "RBT" if after.nodes != iters(150.0) * 8 => {
                fail(format!(
                    "{} tree touches, {} expected",
                    after.nodes,
                    iters(150.0) * 8
                ));
            }
            _ => {}
        }
    }
}

/// Cells whose row differs between two passes, as failure lines.
pub fn row_mismatches(cells: &[Cell], reference: &[Row], got: &[Row], what: &str) -> Vec<String> {
    let mut out = Vec::new();
    if reference.len() != got.len() {
        out.push(format!(
            "{what}: {} rows, reference has {}",
            got.len(),
            reference.len()
        ));
    }
    for ((cell, a), b) in cells.iter().zip(reference).zip(got) {
        if a != b {
            out.push(format!("{}: {what} gave {b:?}, reference {a:?}", cell.id));
        }
    }
    out
}

/// Σ cycles over rows.
pub fn total_cycles(rows: &[Row]) -> u64 {
    rows.iter().map(|r| r.0).sum()
}

/// Σ instructions over rows.
pub fn total_instructions(rows: &[Row]) -> u64 {
    rows.iter().map(|r| r.1).sum()
}

/// Geometric mean over kernels of baseline cycles / FreeAtomics+Fwd
/// cycles, each summed over the kernel's cells.
pub fn freefwd_speedup(cells: &[Cell], rows: &[Row]) -> f64 {
    let mut kernels: Vec<&str> = cells.iter().map(|c| c.kernel.as_str()).collect();
    kernels.dedup();
    let cycles = |kernel: &str, policy: AtomicPolicy| -> f64 {
        cells
            .iter()
            .zip(rows)
            .filter(|(c, _)| c.kernel == kernel && c.policy == policy)
            .map(|(_, r)| r.0 as f64)
            .sum()
    };
    let log_sum: f64 = kernels
        .iter()
        .map(|k| (cycles(k, PAIR[0]) / cycles(k, PAIR[1])).ln())
        .sum();
    (log_sum / kernels.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `Machine::run` on one cell, with the fast paths on or off.
    fn machine_run(cell: &Cell, fast_paths: bool) -> RunResult {
        let (programs, guest) = cell.build();
        let mut m = Machine::new(cell.cfg.clone(), programs, guest);
        m.set_start_offsets(cell.offsets.clone());
        m.set_fast_paths(fast_paths);
        m.run(cell.max_cycles).expect("the cell quiesces")
    }

    #[test]
    fn split_loop_equals_machine_run_on_a_cell_of_every_workload() {
        for id in WorkloadId::ALL {
            let plan = Plan::new(id, 0xBEEF, &Sizing::TINY);
            // The last cell runs FreeAtomics+Fwd; the grids' first kernels
            // are the ones that sleep in MonitorWait.
            for cell in [&plan.cells[0], &plan.cells[plan.cells.len() - 1]] {
                let fast = machine_run(cell, true);
                let slow = machine_run(cell, false);
                let (programs, guest) = cell.build();
                let mut prof = TickProfile::default();
                let split = SplitMachine::new(&cell.cfg, programs, guest)
                    .run::<true>(&cell.offsets, cell.max_cycles, &mut prof)
                    .expect("the split loop quiesces");
                for (what, r) in [("fast paths off", &slow), ("split loop", &split)] {
                    assert_eq!(r.cycles, fast.cycles, "{} {what}", cell.id);
                    assert_eq!(r.instructions(), fast.instructions(), "{} {what}", cell.id);
                    assert_eq!(r.per_core, fast.per_core, "{} {what}", cell.id);
                    assert_eq!(r.mem, fast.mem, "{} {what}", cell.id);
                }
                assert_eq!(
                    prof.mem_calls, fast.cycles,
                    "{}: one MemorySystem::tick per cycle",
                    cell.id
                );
                assert_eq!(prof.core_calls, prof.rob_bin_calls.iter().sum::<u64>());
                assert_eq!(prof.core_ns, prof.rob_bin_ns.iter().sum::<u64>());
            }
        }
    }

    #[test]
    fn every_engine_and_the_sweep_give_the_same_rows_and_pass_the_checks() {
        for id in WorkloadId::ALL {
            let plan = Plan::new(id, 3, &Sizing::TINY);
            let user = plan.pass(&mut Tracer::off());
            assert!(
                user.failures.is_empty(),
                "{}: {:?}",
                id.name(),
                user.failures
            );
            assert_eq!(user.rows.len(), plan.cells.len());
            assert!(user.rows.iter().all(|r| r.0 > 0 && r.1 > 0));
            for engine in [Engine::Machine, Engine::Split, Engine::SplitTimed] {
                let p = plan.direct_pass(engine, &mut Tracer::off());
                assert!(
                    p.failures.is_empty(),
                    "{} {engine:?}: {:?}",
                    id.name(),
                    p.failures
                );
                assert!(
                    row_mismatches(&plan.cells, &user.rows, &p.rows, "engine").is_empty(),
                    "{} {engine:?}",
                    id.name()
                );
                assert_eq!(p.ops, plan.cells.len() as u64);
            }
            assert!(freefwd_speedup(&plan.cells, &user.rows) > 0.5);
        }
    }

    #[test]
    fn inputs_follow_the_seed_and_nothing_else() {
        for id in WorkloadId::ALL {
            let rows = |seed| {
                Plan::new(id, seed, &Sizing::TINY)
                    .direct_pass(Engine::Machine, &mut Tracer::off())
                    .rows
            };
            assert_eq!(rows(11), rows(11), "{}", id.name());
            assert_ne!(
                rows(11),
                rows(12),
                "{}: the seed must reach the inputs",
                id.name()
            );
        }
    }

    #[test]
    fn fuzz_chunks_are_distinct_corpus_campaigns_picked_by_the_seed() {
        let chunks = |seed| -> Vec<u64> {
            let plan = Plan::new(WorkloadId::LitmusCampaign, seed, &Sizing::TINY);
            plan.fuzz.iter().map(|f| f.seed).collect()
        };
        let corpus = FUZZ_CORPUS_BASE..FUZZ_CORPUS_BASE + FUZZ_CORPUS as u64;
        for seed in [0, 403, u64::MAX] {
            let mut picked = chunks(seed);
            assert_eq!(picked, chunks(seed));
            assert!(picked.iter().all(|s| corpus.contains(s)), "{picked:?}");
            picked.sort_unstable();
            picked.dedup();
            assert_eq!(picked.len(), FUZZ_CHUNKS);
        }
        assert_ne!(
            chunks(11),
            chunks(12),
            "the seed must reach the fuzz campaign"
        );
    }

    #[test]
    fn every_corpus_campaign_is_clean() {
        for seed in FUZZ_CORPUS_BASE..FUZZ_CORPUS_BASE + FUZZ_CORPUS as u64 {
            let report = fuzz_litmus(
                &tiny_machine(),
                &FuzzConfig {
                    cases: Sizing::FULL.fuzz_chunk_cases,
                    threads: 1,
                    seed,
                    ..FuzzConfig::default()
                },
            );
            assert!(report.ok(), "campaign {seed:#x}: {report}");
        }
    }

    #[test]
    fn a_wrong_row_and_a_held_lock_are_reported() {
        let plan = Plan::new(WorkloadId::Noc8Grid, 3, &Sizing::TINY);
        let p = plan.direct_pass(Engine::Machine, &mut Tracer::off());
        let mut moved = p.rows.clone();
        moved[2].0 += 1;
        let lines = row_mismatches(&plan.cells, &p.rows, &moved, "test");
        assert_eq!(lines.len(), 1);
        assert!(lines[0].starts_with(&plan.cells[2].id), "{lines:?}");

        let cell = &plan.cells[0];
        let (_, mut guest) = cell.build();
        let clean = GuestSums::of(cell, &guest);
        let mut failures = Vec::new();
        clean.check(&clean, cell, &mut failures);
        // RBT at quiesce must show its tree touches; a fresh image shows none.
        assert!(
            failures.iter().any(|f| f.contains("tree touches")),
            "{failures:?}"
        );
        guest.store(LOCK_BASE as u64 + 5 * 64, 1);
        failures.clear();
        clean.check(&GuestSums::of(cell, &guest), cell, &mut failures);
        assert!(
            failures.iter().any(|f| f.contains("1 locks still held")),
            "{failures:?}"
        );
    }
}
