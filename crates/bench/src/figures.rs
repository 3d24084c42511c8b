//! Regeneration of every table and figure in the paper's evaluation
//! section. Each table prints the same rows/series the paper reports;
//! EXPERIMENTS.md records the measured-vs-paper comparison.
//!
//! A figure is data, a [`Figure`]: the cells its table reads and the
//! function that prints the table from their results. [`run`] measures the
//! distinct cells of every selected figure as one [`run_grid_supervised`]
//! campaign — a cell several tables read (Figs. 14 and 15 and the CPI
//! stacks share one grid) runs once — and prints each table from its own
//! cells. A failed cell, an invariant-audit violation or an invalid
//! methodology is an error before any table prints, never a clean-looking
//! partial table. [`FIGURES`] names them all; `fa ablation`'s tables,
//! [`ABLATION`], are one more figure; only Table 1 reads no cell.

use crate::sweep::{
    grid, presets_from_env, run_grid_supervised, Ablation, CellResult, Preset, SupervisorOpts,
    SweepCell, SweepReport,
};
use crate::{fmt, mean, row, workloads_from_env, BenchOpts};
use fa_core::AtomicPolicy::{self, FencedBaseline, FreeFwd};
use fa_mem::NocConfig;
use fa_sim::energy::EnergyModel;
use fa_sim::error::SimError;
use fa_sim::presets::{icelake_like, skylake_like};
use fa_sim::{CpiLeaf, MemModel};
use fa_workloads::suite;
use std::collections::HashMap;
use Preset::{Icelake, Skylake};

/// One regenerated table or figure: the cells its table reads, and the
/// function that prints the table from their results, given in the same
/// order.
pub struct Figure {
    /// The name `fa fig` selects it by.
    pub name: &'static str,
    cells: fn(&BenchOpts) -> Vec<SweepCell>,
    print: fn(&BenchOpts, &[&CellResult]),
}

impl Figure {
    /// Whether this figure's table fails with `e`: it reads the cell `e`
    /// names, or, for an error that names no cell, any cell at all.
    pub fn fails_with(&self, opts: &BenchOpts, e: &SimError) -> bool {
        let cells = (self.cells)(opts);
        match e {
            SimError::CellFailed { cell, .. } => cells.iter().any(|c| c.name() == *cell),
            _ => !cells.is_empty(),
        }
    }
}

/// Every table and figure by name, in the paper's order — what `fig <name>`
/// selects from. A figure's cells are in grid order: each
/// `policies.len() * presets.len()` chunk is one workload.
pub const FIGURES: &[Figure] = &[
    Figure { name: "table1_config", cells: |_| Vec::new(), print: table1_config },
    Figure { name: "fig01_atomic_cost", cells: |o| grid(&o.workloads(), &[FencedBaseline], &[Skylake, Icelake]), print: fig01_atomic_cost },
    Figure { name: "fig12_apki", cells: |o| grid(&o.workloads(), &[FencedBaseline], &[Icelake]), print: fig12_apki },
    Figure { name: "table2_characterization", cells: |o| grid(&o.workloads(), &[FreeFwd], &[Icelake]), print: table2_characterization },
    Figure { name: "fig13_locality", cells: |o| grid(&o.workloads(), &PAIR, &[Icelake]), print: fig13_locality },
    Figure { name: "fig14_exec_time", cells: every_policy, print: fig14_exec_time },
    Figure { name: "fig15_energy", cells: every_policy, print: fig15_energy },
    Figure { name: "fig16_network_sensitivity", cells: fig16_cells, print: fig16_network_sensitivity },
    Figure { name: "fig_weak_baseline", cells: weak_baseline_cells, print: fig_weak_baseline },
    Figure { name: "cpistack", cells: every_policy, print: cpi_stacks },
];

/// `FA_WORKLOADS` × all four policies on the Icelake-like machine: the
/// grid of Figs. 14 and 15 and the CPI stacks.
fn every_policy(opts: &BenchOpts) -> Vec<SweepCell> {
    grid(&opts.workloads(), &AtomicPolicy::ALL, &[Icelake])
}

/// `fa ablation`'s tables.
pub const ABLATION: Figure = Figure { name: "ablation", cells: ablation_cells, print: ablation };

/// The fenced baseline and FreeAtomics+Fwd: the policies of Figs. 13 and
/// 16 and of the weak baseline.
const PAIR: [AtomicPolicy; 2] = [FencedBaseline, FreeFwd];

/// Measures the distinct cells of `figures` — deduplicated by
/// [`SweepCell::name`], in first-seen order — as one campaign, prints each
/// figure's table from its own cells, and returns the campaign's report:
/// one row per distinct cell. `None` when no figure reads a cell (Table 1
/// alone), as then no campaign runs.
///
/// # Errors
///
/// An invalid methodology, or [`SimError::CellFailed`] naming the first
/// cell without a result; either way no table has printed.
pub fn run(opts: &BenchOpts, sup: &SupervisorOpts, figures: &[&Figure]) -> Result<Option<SweepReport>, SimError> {
    let reads: Vec<Vec<SweepCell>> = figures.iter().map(|f| (f.cells)(opts)).collect();
    let (mut cells, mut index) = (Vec::new(), HashMap::new());
    for c in reads.iter().flatten() {
        index.entry(c.name()).or_insert_with(|| {
            cells.push(*c);
            cells.len() - 1
        });
    }
    let mut results = Vec::new();
    let mut report = None;
    if !cells.is_empty() {
        let (mut outcome, timing) = run_grid_supervised(opts, sup, &cells)?;
        results = outcome.take_results(&cells)?;
        let bin = figures.iter().map(|f| f.name).collect::<Vec<_>>().join("+");
        report = Some(SweepReport::from_outcome(&bin, opts, outcome, timing));
    }
    for (f, read) in figures.iter().zip(&reads) {
        (f.print)(opts, &read.iter().map(|c| &results[index[&c.name()]]).collect::<Vec<_>>());
    }
    Ok(report)
}

/// **Figure 1** — average cost (cycles) of a fenced atomic RMW, split into
/// Drain_SB and Atomic, on Skylake-like (224 ROB) and Icelake-like
/// (352 ROB) machines, from each cell's representative run.
fn fig01_atomic_cost(_: &BenchOpts, results: &[&CellResult]) {
    println!("\n## Figure 1 — cost of fenced atomic RMWs (cycles per atomic)\n");
    println!(
        "{}",
        row(&[
            "workload".into(),
            "skylake Drain_SB".into(),
            "skylake Atomic".into(),
            "icelake Drain_SB".into(),
            "icelake Atomic".into(),
        ])
    );
    let mut sky_tot = Vec::new();
    let mut ice_tot = Vec::new();
    for pair in results.chunks(2) {
        let (sd, sa) = pair[0].summary.representative().aggregate().atomic_cost();
        let (id, ia) = pair[1].summary.representative().aggregate().atomic_cost();
        sky_tot.push(sd + sa);
        ice_tot.push(id + ia);
        println!(
            "{}",
            row(&[pair[0].cell.workload.name.into(), fmt(sd, 1), fmt(sa, 1), fmt(id, 1), fmt(ia, 1)])
        );
    }
    println!(
        "\naverage total cost: skylake {:.1}, icelake {:.1} cycles/atomic \
         (paper: >100, growing with ROB size)",
        mean(&sky_tot),
        mean(&ice_tot)
    );
}

/// **Table 1** — the simulated system configuration.
fn table1_config(_: &BenchOpts, _: &[&CellResult]) {
    let m = icelake_like();
    println!("\n## Table 1 — system configuration (Icelake-like preset)\n");
    println!("Processor:");
    println!("  width        fetch/decode {} instr, issue/commit {} uops", m.core.fetch_width, m.core.issue_width);
    println!("  ROB, LQ, SQ  {}, {}, {} entries", m.core.rob_size, m.core.lq_size, m.core.sq_size);
    println!("  AQ           {} entries; watchdog {} cycles; fwd chain ≤ {}", m.core.aq_size, m.core.watchdog_threshold, m.core.fwd_chain_max);
    println!("  predictors   tournament gshare/bimodal ({} bits), StoreSets", m.core.bp_table_bits);
    println!("  store prefetch at commit: true");
    println!("Memory:");
    println!("  L1D  {} sets x {} ways ({} KB), {} cycles", m.mem.l1_sets, m.mem.l1_ways, m.mem.l1_sets * m.mem.l1_ways * 64 / 1024, m.mem.l1_lat);
    println!("  L2   {} sets x {} ways ({} KB), {} cycles", m.mem.l2_sets, m.mem.l2_ways, m.mem.l2_sets * m.mem.l2_ways * 64 / 1024, m.mem.l2_lat);
    println!("  LLC  {} sets x {} ways ({} MB), {} cycles", m.mem.llc_sets, m.mem.llc_ways, m.mem.llc_sets * m.mem.llc_ways * 64 / 1024 / 1024, m.mem.llc_lat);
    println!("  Dir  {} sets x {} ways (inclusive), {} cycles", m.mem.dir_sets, m.mem.dir_ways, m.mem.dir_lat);
    println!("  Mem  {} cycles; NoC hop {} cycles", m.mem.mem_lat, m.mem.net_lat);
    let aq = fa_core::aq_storage(
        m.core.aq_size as u32,
        m.mem.l1_sets as u32,
        m.mem.l1_ways as u32,
        m.core.rob_size as u32,
        m.core.sq_size as u32,
    );
    println!(
        "  AQ storage   {} bits/entry, {} bits total = {} bytes (paper §4.3: 29/116/15)",
        aq.bits_per_entry, aq.total_bits, aq.total_bytes
    );
    let s = skylake_like();
    println!("Skylake-like variant: ROB {}, LQ {}, SQ {}, L1D {} KB 8-way", s.core.rob_size, s.core.lq_size, s.core.sq_size, s.mem.l1_sets * s.mem.l1_ways * 64 / 1024);
}

/// **Figure 12** — committed atomics per kilo-instruction of each fenced
/// baseline cell's representative run.
fn fig12_apki(_: &BenchOpts, results: &[&CellResult]) {
    println!("\n## Figure 12 — atomic RMWs per kilo-instruction (APKI)\n");
    println!("{}", row(&["workload".into(), "APKI".into(), "class".into()]));
    for r in results {
        let spec = r.cell.workload;
        let apki = r.summary.representative().aggregate().apki();
        let cls = if spec.atomic_intensive { "atomic-intensive" } else { "non-atomic-intensive" };
        println!("{}", row(&[spec.name.into(), fmt(apki, 2), cls.into()]));
    }
    println!("\n(the paper draws the atomic-intensive threshold at 0.75 APKI)");
}

/// **Table 2** — characterization of Free atomics (FreeAtomics+Fwd on the
/// Icelake-like machine): omitted fences, watchdog timeouts, memory-
/// dependence-violation squashes, forwarding sources, from each cell's
/// representative run.
fn table2_characterization(_: &BenchOpts, results: &[&CellResult]) {
    println!("\n## Table 2 — characterization of Free atomics (FreeAtomics+Fwd)\n");
    println!(
        "{}",
        row(&[
            "workload".into(),
            "omitted fences %".into(),
            "timeouts".into(),
            "MDV (% squashes)".into(),
            "FbA (% atomics)".into(),
            "FbS (% atomics)".into(),
        ])
    );
    let (mut of, mut to, mut mdv, mut fba, mut fbs) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for r in results {
        let a = r.summary.representative().aggregate();
        let omitted = a.omitted_fence_ratio() * 100.0;
        let timeouts = a.watchdog_fires;
        let mdv_pct = if a.total_squashes() == 0 {
            0.0
        } else {
            a.squashes_memorder as f64 * 100.0 / a.total_squashes() as f64
        };
        let fba_pct = if a.atomics == 0 {
            0.0
        } else {
            a.atomics_fwd_from_atomic as f64 * 100.0 / a.atomics as f64
        };
        let fbs_pct = if a.atomics == 0 {
            0.0
        } else {
            a.atomics_fwd_from_store as f64 * 100.0 / a.atomics as f64
        };
        of.push(omitted);
        to.push(timeouts as f64);
        mdv.push(mdv_pct);
        fba.push(fba_pct);
        fbs.push(fbs_pct);
        println!(
            "{}",
            row(&[
                r.cell.workload.name.into(),
                fmt(omitted, 2),
                timeouts.to_string(),
                fmt(mdv_pct, 2),
                fmt(fba_pct, 2),
                fmt(fbs_pct, 3),
            ])
        );
    }
    println!(
        "\naverage: omitted {:.2}% (paper 97.58), timeouts {:.1} (paper 3.46), \
         MDV {:.2}% (paper 2.19), FbA {:.2}% (paper 11.81), FbS {:.2}% (paper 1.41)",
        mean(&of),
        mean(&to),
        mean(&mdv),
        mean(&fba),
        mean(&fbs)
    );
}

/// **Figure 13** — locality of atomics: fraction of load_locks whose data
/// was found locally (SQ forward or write-permission hit), baseline vs
/// FreeAtomics+Fwd, with the forwarded component split out, from each
/// cell's representative run.
fn fig13_locality(_: &BenchOpts, results: &[&CellResult]) {
    println!("\n## Figure 13 — locality of atomics (ratio of load_locks)\n");
    println!(
        "{}",
        row(&[
            "workload".into(),
            "baseline L1/L2".into(),
            "free L1/L2".into(),
            "free forwarded".into(),
            "free total".into(),
        ])
    );
    for pair in results.chunks(2) {
        let (b_tot, _) = pair[0].summary.representative().aggregate().atomic_locality();
        let (f_tot, f_fwd) = pair[1].summary.representative().aggregate().atomic_locality();
        println!(
            "{}",
            row(&[
                pair[0].cell.workload.name.into(),
                fmt(b_tot, 3),
                fmt(f_tot - f_fwd, 3),
                fmt(f_fwd, 3),
                fmt(f_tot, 3),
            ])
        );
    }
}

/// **Figure 14** — execution time of each policy normalized to the fenced
/// baseline, with the active/sleep split, plus the §5.5 headline averages.
fn fig14_exec_time(_: &BenchOpts, results: &[&CellResult]) {
    println!("\n## Figure 14 — normalized execution time (lower is better)\n");
    println!(
        "{}",
        row(&[
            "workload".into(),
            "baseline".into(),
            "baseline+Spec".into(),
            "FreeAtomics".into(),
            "FreeAtomics+Fwd".into(),
            "sleep frac (fwd)".into(),
        ])
    );
    let mut norm: Vec<Vec<f64>> = vec![Vec::new(); 4];
    let mut norm_ai: Vec<Vec<f64>> = vec![Vec::new(); 4];
    for runs in results.chunks(AtomicPolicy::ALL.len()) {
        let spec = runs[0].cell.workload;
        let base = runs[0].summary.mean_cycles;
        let mut cells = vec![spec.name.to_string()];
        for (i, r) in runs.iter().enumerate() {
            let n = r.summary.mean_cycles / base;
            norm[i].push(n);
            if spec.atomic_intensive {
                norm_ai[i].push(n);
            }
            cells.push(fmt(n, 3));
        }
        let rep = runs[3].summary.representative();
        let total_core_cycles = rep.cycles as f64 * rep.per_core.len() as f64;
        let sleep: f64 = rep.per_core.iter().map(|c| c.sleep_cycles as f64).sum();
        cells.push(fmt(sleep / total_core_cycles, 3));
        println!("{}", row(&cells));
    }
    println!("\naverages (all / atomic-intensive):");
    for (i, p) in AtomicPolicy::ALL.iter().enumerate() {
        println!(
            "  {:<16} {:.3} / {:.3}",
            p.label(),
            mean(&norm[i]),
            mean(&norm_ai[i])
        );
    }
    let full = 1.0 - mean(&norm[3]);
    let ai = 1.0 - mean(&norm_ai[3]);
    println!(
        "\nFreeAtomics+Fwd time reduction: {:.1}% all, {:.1}% atomic-intensive \
         (paper: 12.5% / 25.2% at 32 cores)",
        full * 100.0,
        ai * 100.0
    );
}

/// **CPI stacks** — the figure-14 grid re-rendered as top-down cycle
/// accounting: for every `(workload, policy)` cell, the percentage of all
/// core cycles attributed to each leaf of the fixed taxonomy (merged over
/// cores of the representative run; the leaves sum to 100% by the
/// conservation invariant), followed by the atomic-lifetime attribution
/// table splitting each policy's mean RMW exec latency into cache-lock
/// acquire, remote transfer, directory park and local execute. The rows of
/// its cells carry the `cpi` blocks the `report` bin diffs.
fn cpi_stacks(_: &BenchOpts, results: &[&CellResult]) {
    println!("\n## CPI stacks — top-down cycle accounting (% of core cycles)\n");
    let mut header = vec!["workload".to_string(), "policy".to_string()];
    header.extend(CpiLeaf::ALL.iter().map(|l| l.name().to_string()));
    println!("{}", row(&header));
    for r in results {
        let cpi = r.summary.representative().aggregate().cpi;
        let total = cpi.total().max(1) as f64;
        let mut cells = vec![r.cell.workload.name.to_string(), r.cell.policy.label().to_string()];
        cells.extend(CpiLeaf::ALL.iter().map(|&l| fmt(cpi.get(l) as f64 * 100.0 / total, 1)));
        println!("{}", row(&cells));
    }
    println!("\natomic-lifetime attribution (cycles per committed atomic, representative runs):\n");
    println!(
        "{}",
        row(&[
            "workload".into(),
            "policy".into(),
            "acquire".into(),
            "xfer".into(),
            "dir park".into(),
            "local".into(),
            "exec total".into(),
        ])
    );
    for r in results {
        let a = r.summary.representative().aggregate();
        let per = |v: u64| if a.atomics == 0 { 0.0 } else { v as f64 / a.atomics as f64 };
        println!(
            "{}",
            row(&[
                r.cell.workload.name.into(),
                r.cell.policy.label().into(),
                fmt(per(a.atomic_lock_acquire_cycles), 1),
                fmt(per(a.atomic_xfer_cycles.iter().sum()), 1),
                fmt(per(a.atomic_dir_park_cycles), 1),
                fmt(per(a.atomic_local_cycles), 1),
                fmt(per(a.atomic_exec_cycles), 1),
            ])
        );
    }
}

/// Figure 16's interconnect points, in table order: the ideal crossbar,
/// then the contended one at link bandwidth 1, 2 and 4 flits/cycle.
fn fig16_points() -> [(&'static str, NocConfig); 4] {
    [
        ("ideal", NocConfig::default()),
        ("bw=1", NocConfig::contended(1)),
        ("bw=2", NocConfig::contended(2)),
        ("bw=4", NocConfig::contended(4)),
    ]
}

/// `FA_WORKLOADS × PAIR × FA_PRESETS` at each Figure 16 point, point by
/// point.
fn fig16_cells(opts: &BenchOpts) -> Vec<SweepCell> {
    let cells = grid(&opts.workloads(), &PAIR, &presets_from_env());
    let at = |(_, noc): (&str, NocConfig)| cells.iter().map(move |c| c.on_noc(opts, noc));
    fig16_points().into_iter().flat_map(at).collect()
}

/// **Figure 16** — network sensitivity: fenced baseline vs FreeAtomics+Fwd
/// across interconnect models — the ideal fixed-latency crossbar and the
/// contended crossbar at link bandwidth 1, 2 and 4 flits/cycle. The paper
/// evaluates on a fixed network; this sweep checks that the Free-atomics
/// speedup survives (and how it shifts) when coherence traffic has to queue
/// for links. Per-point network detail (link utilization, queue depth,
/// grant latency) comes straight from the NoC stats of the representative
/// FreeAtomics+Fwd run. Every `(noc, kernel, policy, preset)` cell is a row
/// of the report; contended rows carry the `net` block.
fn fig16_network_sensitivity(_: &BenchOpts, results: &[&CellResult]) {
    println!("\n## Figure 16 — network sensitivity (speedup of FreeAtomics+Fwd)\n");
    let presets = presets_from_env();
    println!(
        "{}",
        row(&[
            "noc".into(),
            "workload".into(),
            "preset".into(),
            "baseline".into(),
            "free".into(),
            "speedup".into(),
            "max util".into(),
            "max queue".into(),
            "grant lat".into(),
        ])
    );
    let mut detail = Vec::new();
    let per_point = results.len() / fig16_points().len();
    for (pi, (label, _)) in fig16_points().into_iter().enumerate() {
        let point = &results[pi * per_point..(pi + 1) * per_point];
        // Grid order is (workload, policy, preset) row-major: within one
        // workload chunk, cell `policy * presets + preset`.
        for wchunk in point.chunks(PAIR.len() * presets.len()) {
            for (pi, preset) in presets.iter().enumerate() {
                let base = wchunk[pi];
                let free = wchunk[presets.len() + pi];
                let ns = &free.summary.representative().mem.noc;
                let contended = ns.policy == fa_mem::XbarPolicy::Contended;
                println!(
                    "{}",
                    row(&[
                        label.into(),
                        base.cell.workload.name.into(),
                        preset.name().into(),
                        fmt(base.summary.mean_cycles, 1),
                        fmt(free.summary.mean_cycles, 1),
                        fmt(base.summary.mean_cycles / free.summary.mean_cycles, 3),
                        if contended { fmt(ns.max_link_utilization(), 3) } else { "-".into() },
                        if contended { ns.max_queue().to_string() } else { "-".into() },
                        fmt(ns.avg_grant_latency(), 1),
                    ])
                );
                if contended {
                    detail.push(format!(
                        "{label} {}/{}: {ns}",
                        base.cell.workload.name,
                        preset.name()
                    ));
                }
            }
        }
    }
    println!("\nnetwork detail (representative FreeAtomics+Fwd runs):");
    for line in &detail {
        println!("  {line}");
    }
}

/// **Figure 15** — processor energy of each policy normalized to the
/// fenced baseline, split dynamic/static.
fn fig15_energy(_: &BenchOpts, results: &[&CellResult]) {
    println!("\n## Figure 15 — normalized energy (lower is better)\n");
    println!(
        "{}",
        row(&[
            "workload".into(),
            "baseline".into(),
            "baseline+Spec".into(),
            "FreeAtomics".into(),
            "FreeAtomics+Fwd".into(),
            "static frac (fwd)".into(),
        ])
    );
    let model = EnergyModel::default();
    let mut norm: Vec<Vec<f64>> = vec![Vec::new(); 4];
    let mut norm_ai: Vec<Vec<f64>> = vec![Vec::new(); 4];
    for runs in results.chunks(AtomicPolicy::ALL.len()) {
        let spec = runs[0].cell.workload;
        let energies: Vec<_> =
            runs.iter().map(|r| model.evaluate(r.summary.representative())).collect();
        let base = energies[0].total_nj();
        let mut cells = vec![spec.name.to_string()];
        for (i, e) in energies.iter().enumerate() {
            let n = e.total_nj() / base;
            norm[i].push(n);
            if spec.atomic_intensive {
                norm_ai[i].push(n);
            }
            cells.push(fmt(n, 3));
        }
        cells.push(fmt(energies[3].static_nj / energies[3].total_nj(), 3));
        println!("{}", row(&cells));
    }
    println!("\naverages (all / atomic-intensive):");
    for (i, p) in AtomicPolicy::ALL.iter().enumerate() {
        println!("  {:<16} {:.3} / {:.3}", p.label(), mean(&norm[i]), mean(&norm_ai[i]));
    }
    println!(
        "\nFreeAtomics+Fwd energy saving: {:.1}% all, {:.1}% atomic-intensive \
         (paper: 11% / 23%)",
        (1.0 - mean(&norm[3])) * 100.0,
        (1.0 - mean(&norm_ai[3])) * 100.0
    );
}

/// **Weak-baseline experiment** — FreeFwd's residual speedup over an
/// acquire/release-native baseline.
///
/// The paper evaluates free atomics against a fenced x86-TSO baseline,
/// where every RMW pays a full store-buffer drain. A natural question is
/// how much of the win survives on a weakly ordered machine whose ISA is
/// already acquire/release-native: plain accesses are relaxed, release
/// stores ride the FIFO store buffer for free, and only SC fences and the
/// RMWs themselves drain. This experiment measures the
/// `(workload × {baseline, FreeFwd} × {tso, weak})` grid and reports
/// FreeFwd's speedup under each hardware model — the weak column is the
/// residual benefit attributable to the atomic-fence elision itself rather
/// than to TSO's globally conservative ordering.
///
/// TSO rows are untagged (golden shape), weak rows tagged `"model":"weak"`.
fn fig_weak_baseline(opts: &BenchOpts, results: &[&CellResult]) {
    println!("\n## Weak baseline — FreeFwd residual speedup on acquire/release-native hardware\n");
    let (tso, weak) = results.split_at(results.len() / 2);
    println!(
        "{}",
        row(&[
            "workload".into(),
            "speedup (tso)".into(),
            "speedup (weak)".into(),
            "residual frac".into(),
        ])
    );
    let mut sp_tso = Vec::new();
    let mut sp_weak = Vec::new();
    for (i, spec) in opts.workloads().iter().enumerate() {
        let base_tso = tso[2 * i].summary.mean_cycles;
        let fwd_tso = tso[2 * i + 1].summary.mean_cycles;
        let base_weak = weak[2 * i].summary.mean_cycles;
        let fwd_weak = weak[2 * i + 1].summary.mean_cycles;
        let (st, sw) = (base_tso / fwd_tso, base_weak / fwd_weak);
        sp_tso.push(st);
        sp_weak.push(sw);
        // Fraction of the TSO-relative gain that survives against the
        // acquire/release-native baseline (1.0 = all of it; gains are
        // measured as speedup - 1, clamped for workloads with no gain).
        let residual = if st > 1.0 { ((sw - 1.0) / (st - 1.0)).max(0.0) } else { 1.0 };
        println!(
            "{}",
            row(&[spec.name.into(), fmt(st, 3), fmt(sw, 3), fmt(residual, 3)])
        );
    }
    println!(
        "\naverage FreeFwd speedup: {:.3} over the fenced TSO baseline, \
         {:.3} over the acquire/release-native weak baseline",
        mean(&sp_tso),
        mean(&sp_weak)
    );
}

/// `FA_WORKLOADS × PAIR` on the Icelake-like machine under TSO, then under
/// the weak model.
fn weak_baseline_cells(opts: &BenchOpts) -> Vec<SweepCell> {
    let cells = grid(&opts.workloads(), &PAIR, &[Icelake]);
    let under = |model| cells.iter().map(move |c| c.under_model(opts, model));
    [MemModel::Tso, MemModel::Weak].into_iter().flat_map(under).collect()
}

/// The ablation axes: a title and the four values of one design
/// parameter, leftmost first.
const ABLATION_AXES: [(&str, [Ablation; 4]); 3] = {
    use Ablation::{AqEntries, FwdChainMax, WatchdogCycles};
    [
        ("Atomic Queue entries (paper: 4)", [AqEntries(1), AqEntries(2), AqEntries(4), AqEntries(8)]),
        (
            "watchdog threshold in cycles (paper: 10000)",
            [WatchdogCycles(300), WatchdogCycles(1_000), WatchdogCycles(10_000), WatchdogCycles(100_000)],
        ),
        (
            "forwarding chain limit (paper: 32; 0 disables forwarding)",
            [FwdChainMax(0), FwdChainMax(1), FwdChainMax(4), FwdChainMax(32)],
        ),
    ]
};

/// Every `(axis, workload, value)` cell of the ablation under FreeAtomics+Fwd
/// on the Icelake-like machine, on a representative atomic-intensive subset
/// unless `FA_WORKLOADS` names another.
fn ablation_cells(_: &BenchOpts) -> Vec<SweepCell> {
    let specs = workloads_from_env().unwrap_or_else(|| {
        suite::select(&["TATP", "AS", "barnes", "canneal"]).expect("suite names")
    });
    let plain = grid(&specs, &[FreeFwd], &[Icelake]);
    let mut cells = Vec::new();
    for (_, values) in &ABLATION_AXES {
        for c in &plain {
            cells.extend(values.iter().map(|&a| SweepCell { ablation: Some(a), ..*c }));
        }
    }
    cells
}

/// **Ablation** — the design parameters DESIGN.md calls out, each swept
/// over four values under FreeAtomics+Fwd on the Icelake-like machine:
/// Atomic Queue size (§4.3 concludes 4 entries suffice), watchdog threshold
/// (§3.2.5 picks 10 000 cycles to avoid unnecessary squashes) and
/// forwarding-chain limit (§3.3.4 caps chains at 32 against livelock); each
/// row's mean cycles are normalized to its axis's leftmost value.
fn ablation(_: &BenchOpts, results: &[&CellResult]) {
    println!("(cycles normalized to the leftmost configuration; lower is better)");
    let per_axis = results.chunks(results.len() / ABLATION_AXES.len());
    for ((title, values), axis) in ABLATION_AXES.iter().zip(per_axis) {
        println!("\n## Ablation — {title}\n");
        let mut header = vec!["workload".to_string()];
        header.extend(values.iter().map(Ablation::to_string));
        println!("{}", row(&header));
        for runs in axis.chunks(values.len()) {
            let base = runs[0].summary.mean_cycles;
            let mut line = vec![runs[0].cell.workload.name.to_string()];
            line.extend(runs.iter().map(|r| fmt(r.summary.mean_cycles / base, 3)));
            println!("{}", row(&line));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn figure(name: &str) -> &'static Figure {
        FIGURES.iter().find(|f| f.name == name).expect("a figure of that name")
    }

    fn tiny() -> BenchOpts {
        BenchOpts { cores: 2, scale: 0.05, runs: 1, drop_slowest: 0, ..BenchOpts::default() }
    }

    #[test]
    fn a_failed_cell_fails_the_figure_naming_the_cell() {
        // One cycle is too few for any cell: figure 14 runs its grid under
        // the supervisor it is given, and must come back as an error naming
        // kernel/policy/preset, never as a partial table.
        let opts = tiny();
        let sup = SupervisorOpts { max_cycles: Some(1), ..SupervisorOpts::none() };
        let fig14 = figure("fig14_exec_time");
        let err = run(&opts, &sup, &[fig14]).expect_err("every cell times out");
        let first = opts.workloads()[0].name;
        assert!(
            matches!(&err, SimError::CellFailed { cell, .. }
                if *cell == format!("{first}/baseline/icelake")),
            "{err}"
        );
        assert!(err.to_string().contains("did not quiesce within 1 cycles"), "{err}");
        // `fa fig all` names the first figure that reads the failed cell.
        let reader = FIGURES.iter().find(|f| f.fails_with(&opts, &err)).expect("a reader");
        assert_eq!(reader.name, "fig01_atomic_cost");
    }

    #[test]
    fn every_measured_figure_rides_the_engine() {
        // A methodology retaining no runs is refused by the campaign engine
        // before any cell runs: every figure that measures, and the ablation
        // tables, must say so, not print a table from some other run path.
        let opts = BenchOpts { runs: 0, ..tiny() };
        let measured = FIGURES.iter().filter(|f| f.name != "table1_config");
        for f in measured.chain([&ABLATION]) {
            let err = run(&opts, &SupervisorOpts::none(), &[f]).expect_err(f.name);
            assert!(matches!(err, SimError::InvalidMethodology { runs: 0, .. }), "{}: {err}", f.name);
        }
        // Table 1 reads no cell, so it runs no campaign and has no report.
        let table1 = figure("table1_config");
        assert!(run(&opts, &SupervisorOpts::none(), &[table1]).expect("no campaign").is_none());
    }

    #[test]
    fn a_cell_read_by_several_tables_runs_once() {
        let opts = tiny();
        let sup = SupervisorOpts::none();
        let w = opts.workloads().len();
        let fig14 = figure("fig14_exec_time");
        let shared = [fig14, figure("fig15_energy"), figure("cpistack")];
        let all = run(&opts, &sup, &shared).expect("campaign").expect("a report");
        assert_eq!(all.row_lines.len(), 4 * w);
        assert_eq!(all.timing.cells, 4 * w);
        let alone = run(&opts, &sup, &[fig14]).expect("campaign").expect("a report");
        assert_eq!(all.row_lines, alone.row_lines);
    }

    /// The rows of one campaign over `cells`.
    fn rows(opts: &BenchOpts, cells: &[SweepCell]) -> Vec<String> {
        let (outcome, _) = run_grid_supervised(opts, &SupervisorOpts::none(), cells).expect("grid");
        assert!(outcome.quarantine.is_empty());
        outcome.row_lines
    }

    #[test]
    fn one_campaign_over_overridden_cells_rows_as_the_per_point_campaigns() {
        // Figure 16 and the weak baseline used to run one campaign per
        // interconnect point or memory model, with the options set to it;
        // their cells, restricted to one kernel, must row the same in point
        // order, whatever the options' own interconnect and model are.
        let on_pc = |cells: Vec<SweepCell>| -> Vec<SweepCell> {
            cells.into_iter().filter(|c| c.workload.name == "PC").collect()
        };
        let pc = suite::select(&["PC"]).expect("suite names");
        for opts in [tiny(), BenchOpts { noc: NocConfig::contended(2), model: MemModel::Weak, ..tiny() }] {
            let mut reference = Vec::new();
            for (_, noc) in fig16_points() {
                let cells = grid(&pc, &PAIR, &presets_from_env());
                reference.extend(rows(&BenchOpts { noc, ..opts }, &cells));
            }
            assert_eq!(rows(&opts, &on_pc(fig16_cells(&opts))), reference);
            let mut reference = Vec::new();
            for model in [MemModel::Tso, MemModel::Weak] {
                let cells = grid(&pc, &PAIR, &[Icelake]);
                reference.extend(rows(&BenchOpts { model, ..opts }, &cells));
            }
            assert_eq!(rows(&opts, &on_pc(weak_baseline_cells(&opts))), reference);
        }
        // Under the default options the ideal point and the TSO half are
        // plain cells: the very cells Figs. 13 and 14 read.
        let opts = tiny();
        let names = |cells: Vec<SweepCell>| cells.iter().map(SweepCell::name).collect::<Vec<_>>();
        let fig13 = names((figure("fig13_locality").cells)(&opts));
        assert_eq!(names(weak_baseline_cells(&opts))[..fig13.len()], fig13[..]);
    }
}
