//! Regeneration of every table and figure in the paper's evaluation
//! section. Each function prints the same rows/series the paper reports;
//! EXPERIMENTS.md records the measured-vs-paper comparison.
//!
//! Every function returns `Result` — a failed measure (timeout,
//! invariant-audit violation, invalid methodology) propagates so the `fig`
//! bin can exit nonzero instead of printing a clean-looking partial table.
//! Every measured figure is a table formatter over [`run_grid_supervised`]
//! campaigns (one each, one per NoC point for figure 16, one per memory
//! model for the weak baseline) and emits the `BENCH_sweep.json`
//! throughput report; only Table 1, which measures nothing, runs no cell.
//! [`FIGURES`] names them all; `fa ablation`'s tables, [`ablation`], are
//! one more such campaign.

use crate::sweep::{
    grid, presets_from_env, run_grid_supervised, Ablation, CellResult, Preset, SupervisorOpts,
    SweepCell, SweepReport,
};
use crate::{fmt, mean, row, workloads_from_env, BenchOpts};
use fa_core::AtomicPolicy;
use fa_mem::NocConfig;
use fa_sim::energy::EnergyModel;
use fa_sim::error::SimError;
use fa_sim::presets::{icelake_like, skylake_like};
use fa_sim::{CpiLeaf, MemModel};
use fa_workloads::suite;

/// One regenerated table or figure.
pub type Figure = fn(&BenchOpts, &SupervisorOpts) -> Result<(), SimError>;

/// Every table and figure by name, in the paper's order — what `fig <name>`
/// selects from and the `figures` bench target runs end to end.
pub const FIGURES: &[(&str, Figure)] = &[
    ("table1_config", table1_config),
    ("fig01_atomic_cost", fig01_atomic_cost),
    ("fig12_apki", fig12_apki),
    ("table2_characterization", table2_characterization),
    ("fig13_locality", fig13_locality),
    ("fig14_exec_time", fig14_exec_time),
    ("fig15_energy", fig15_energy),
    ("fig16_network_sensitivity", fig16_network_sensitivity),
    ("fig_weak_baseline", fig_weak_baseline),
    ("cpistack", cpi_stacks),
];

/// Measures `cells` as one campaign and returns every cell's result (in
/// grid order) plus the emitted sweep report.
///
/// # Errors
///
/// An invalid methodology, or [`SimError::CellFailed`] naming the first
/// cell without a result — a figure is never a partial table.
fn measured_grid(
    bin: &str,
    opts: &BenchOpts,
    sup: &SupervisorOpts,
    cells: &[SweepCell],
) -> Result<(Vec<CellResult>, SweepReport), SimError> {
    let (mut outcome, timing) = run_grid_supervised(opts, sup, cells)?;
    let results = outcome.take_results(cells)?;
    Ok((results, SweepReport::from_outcome(bin, opts, outcome, timing)))
}

/// [`measured_grid`] over `FA_WORKLOADS × policies × presets`: each
/// `policies.len() * presets.len()` chunk of the results is one workload,
/// in policy-then-preset order.
fn suite_grid(
    bin: &str,
    opts: &BenchOpts,
    sup: &SupervisorOpts,
    policies: &[AtomicPolicy],
    presets: &[Preset],
) -> Result<(Vec<CellResult>, SweepReport), SimError> {
    let cells = grid(&opts.workloads(), policies, presets);
    measured_grid(bin, opts, sup, &cells)
}

fn emit_report(report: &SweepReport) {
    println!("\n{}", report.timing_line());
    match report.write() {
        Ok(path) => println!("wrote {}", path.display()),
        Err(e) => eprintln!("warning: could not write sweep report: {e}"),
    }
}

/// **Figure 1** — average cost (cycles) of a fenced atomic RMW, split into
/// Drain_SB and Atomic, on Skylake-like (224 ROB) and Icelake-like
/// (352 ROB) machines, from each cell's representative run.
///
/// # Errors
///
/// The first failed cell.
pub fn fig01_atomic_cost(opts: &BenchOpts, sup: &SupervisorOpts) -> Result<(), SimError> {
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
    let (results, report) = suite_grid(
        "fig01_atomic_cost",
        opts,
        sup,
        &[AtomicPolicy::FencedBaseline],
        &[Preset::Skylake, Preset::Icelake],
    )?;
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
    emit_report(&report);
    Ok(())
}

/// **Table 1** — the simulated system configuration.
///
/// # Errors
///
/// None; the signature is [`Figure`]'s.
pub fn table1_config(_: &BenchOpts, _: &SupervisorOpts) -> Result<(), SimError> {
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
    Ok(())
}

/// **Figure 12** — committed atomics per kilo-instruction of each fenced
/// baseline cell's representative run.
///
/// # Errors
///
/// The first failed cell.
pub fn fig12_apki(opts: &BenchOpts, sup: &SupervisorOpts) -> Result<(), SimError> {
    println!("\n## Figure 12 — atomic RMWs per kilo-instruction (APKI)\n");
    println!("{}", row(&["workload".into(), "APKI".into(), "class".into()]));
    let (results, report) =
        suite_grid("fig12_apki", opts, sup, &[AtomicPolicy::FencedBaseline], &[Preset::Icelake])?;
    for r in &results {
        let spec = r.cell.workload;
        let apki = r.summary.representative().aggregate().apki();
        let cls = if spec.atomic_intensive { "atomic-intensive" } else { "non-atomic-intensive" };
        println!("{}", row(&[spec.name.into(), fmt(apki, 2), cls.into()]));
    }
    println!("\n(the paper draws the atomic-intensive threshold at 0.75 APKI)");
    emit_report(&report);
    Ok(())
}

/// **Table 2** — characterization of Free atomics (FreeAtomics+Fwd on the
/// Icelake-like machine): omitted fences, watchdog timeouts, memory-
/// dependence-violation squashes, forwarding sources, from each cell's
/// representative run.
///
/// # Errors
///
/// The first failed cell, in workload order.
pub fn table2_characterization(opts: &BenchOpts, sup: &SupervisorOpts) -> Result<(), SimError> {
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
    let (results, report) = suite_grid(
        "table2_characterization",
        opts,
        sup,
        &[AtomicPolicy::FreeFwd],
        &[Preset::Icelake],
    )?;
    let (mut of, mut to, mut mdv, mut fba, mut fbs) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for r in &results {
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
    emit_report(&report);
    Ok(())
}

/// **Figure 13** — locality of atomics: fraction of load_locks whose data
/// was found locally (SQ forward or write-permission hit), baseline vs
/// FreeAtomics+Fwd, with the forwarded component split out, from each
/// cell's representative run.
///
/// # Errors
///
/// The first failed cell.
pub fn fig13_locality(opts: &BenchOpts, sup: &SupervisorOpts) -> Result<(), SimError> {
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
    let (results, report) = suite_grid(
        "fig13_locality",
        opts,
        sup,
        &[AtomicPolicy::FencedBaseline, AtomicPolicy::FreeFwd],
        &[Preset::Icelake],
    )?;
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
    emit_report(&report);
    Ok(())
}

/// **Figure 14** — execution time of each policy normalized to the fenced
/// baseline, with the active/sleep split, plus the §5.5 headline averages.
/// Runs on the sweep engine and emits `BENCH_sweep.json`.
///
/// # Errors
///
/// The first failed cell.
pub fn fig14_exec_time(opts: &BenchOpts, sup: &SupervisorOpts) -> Result<(), SimError> {
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
    let (results, report) =
        suite_grid("fig14_exec_time", opts, sup, &AtomicPolicy::ALL, &[Preset::Icelake])?;
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
    emit_report(&report);
    Ok(())
}

/// **CPI stacks** — the figure-14 grid re-rendered as top-down cycle
/// accounting: for every `(workload, policy)` cell, the percentage of all
/// core cycles attributed to each leaf of the fixed taxonomy (merged over
/// cores of the representative run; the leaves sum to 100% by the
/// conservation invariant), followed by the atomic-lifetime attribution
/// table splitting each policy's mean RMW exec latency into cache-lock
/// acquire, remote transfer, directory park and local execute. Runs on
/// the sweep engine and emits `BENCH_sweep.json` with the `cpi` blocks
/// the `report` bin diffs.
///
/// # Errors
///
/// The first failed cell.
pub fn cpi_stacks(opts: &BenchOpts, sup: &SupervisorOpts) -> Result<(), SimError> {
    println!("\n## CPI stacks — top-down cycle accounting (% of core cycles)\n");
    let mut header = vec!["workload".to_string(), "policy".to_string()];
    header.extend(CpiLeaf::ALL.iter().map(|l| l.name().to_string()));
    println!("{}", row(&header));
    let (results, report) =
        suite_grid("cpistack", opts, sup, &AtomicPolicy::ALL, &[Preset::Icelake])?;
    for r in &results {
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
    for r in &results {
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
    emit_report(&report);
    Ok(())
}

/// **Figure 16** — network sensitivity: fenced baseline vs FreeAtomics+Fwd
/// across interconnect models — the ideal fixed-latency crossbar and the
/// contended crossbar at link bandwidth 1, 2 and 4 flits/cycle. The paper
/// evaluates on a fixed network; this sweep checks that the Free-atomics
/// speedup survives (and how it shifts) when coherence traffic has to queue
/// for links. Per-point network detail (link utilization, queue depth,
/// grant latency) comes straight from the NoC stats of the representative
/// FreeAtomics+Fwd run. Emits every `(noc, kernel, policy, preset)` row
/// into one merged `BENCH_sweep.json` report; contended rows carry the
/// `net` block.
///
/// # Errors
///
/// The first failed cell of any grid point.
pub fn fig16_network_sensitivity(opts: &BenchOpts, sup: &SupervisorOpts) -> Result<(), SimError> {
    println!("\n## Figure 16 — network sensitivity (speedup of FreeAtomics+Fwd)\n");
    let points: [(&str, NocConfig); 4] = [
        ("ideal", NocConfig::default()),
        ("bw=1", NocConfig::contended(1)),
        ("bw=2", NocConfig::contended(2)),
        ("bw=4", NocConfig::contended(4)),
    ];
    let policies = [AtomicPolicy::FencedBaseline, AtomicPolicy::FreeFwd];
    let workloads = opts.workloads();
    let presets = presets_from_env();
    let cells = grid(&workloads, &policies, &presets);
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
    let mut reports = Vec::new();
    let mut detail = Vec::new();
    for (label, noc) in points {
        let p_opts = BenchOpts { noc, ..*opts };
        let (results, part) =
            measured_grid("fig16_network_sensitivity", &p_opts, sup, &cells)?;
        reports.push(part);
        // Grid order is (workload, policy, preset) row-major: within one
        // workload chunk, cell `policy * presets + preset`.
        for wchunk in results.chunks(policies.len() * presets.len()) {
            for (pi, preset) in presets.iter().enumerate() {
                let base = &wchunk[pi];
                let free = &wchunk[presets.len() + pi];
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
    let report = reports.into_iter().reduce(SweepReport::merge).expect("four grid points");
    emit_report(&report);
    Ok(())
}

/// **Figure 15** — processor energy of each policy normalized to the
/// fenced baseline, split dynamic/static. Runs on the sweep engine and
/// emits `BENCH_sweep.json`.
///
/// # Errors
///
/// The first failed cell.
pub fn fig15_energy(opts: &BenchOpts, sup: &SupervisorOpts) -> Result<(), SimError> {
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
    let (results, report) =
        suite_grid("fig15_energy", opts, sup, &AtomicPolicy::ALL, &[Preset::Icelake])?;
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
    emit_report(&report);
    Ok(())
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
/// Emits a combined `BENCH_sweep.json`: TSO rows untagged (golden shape),
/// weak rows tagged `"model":"weak"`.
///
/// # Errors
///
/// The first failed cell of either grid.
pub fn fig_weak_baseline(opts: &BenchOpts, sup: &SupervisorOpts) -> Result<(), SimError> {
    println!("\n## Weak baseline — FreeFwd residual speedup on acquire/release-native hardware\n");
    let workloads = opts.workloads();
    let policies = [AtomicPolicy::FencedBaseline, AtomicPolicy::FreeFwd];
    let cells = grid(&workloads, &policies, &[Preset::Icelake]);
    let tso_opts = BenchOpts { model: MemModel::Tso, ..*opts };
    let weak_opts = BenchOpts { model: MemModel::Weak, ..*opts };
    let (tso, tso_report) = measured_grid("fig_weak_baseline", &tso_opts, sup, &cells)?;
    let (weak, weak_report) = measured_grid("fig_weak_baseline", &weak_opts, sup, &cells)?;
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
    for (i, spec) in workloads.iter().enumerate() {
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
    emit_report(&tso_report.merge(weak_report));
    Ok(())
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

/// **Ablation** — the design parameters DESIGN.md calls out, each swept
/// over four values under FreeAtomics+Fwd on the Icelake-like machine:
/// Atomic Queue size (§4.3 concludes 4 entries suffice), watchdog threshold
/// (§3.2.5 picks 10 000 cycles to avoid unnecessary squashes) and
/// forwarding-chain limit (§3.3.4 caps chains at 32 against livelock). One
/// campaign over every `(axis, workload, value)` cell, on a representative
/// atomic-intensive subset unless `FA_WORKLOADS` names another; each row's
/// mean cycles are normalized to its axis's leftmost value.
///
/// # Errors
///
/// The first failed cell.
pub fn ablation(opts: &BenchOpts, sup: &SupervisorOpts) -> Result<(), SimError> {
    let specs = workloads_from_env().unwrap_or_else(|| {
        suite::select(&["TATP", "AS", "barnes", "canneal"]).expect("suite names")
    });
    let mut cells = Vec::new();
    for (_, values) in &ABLATION_AXES {
        for &workload in &specs {
            cells.extend(values.iter().map(|&a| SweepCell {
                workload,
                policy: AtomicPolicy::FreeFwd,
                preset: Preset::Icelake,
                ablation: Some(a),
            }));
        }
    }
    let (results, report) = measured_grid("ablation", opts, sup, &cells)?;
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
    emit_report(&report);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_failed_cell_fails_the_figure_naming_the_cell() {
        // One cycle is too few for any cell: figure 14 runs its grid under
        // the supervisor it is given, and must come back as an error naming
        // kernel/policy/preset, never as a partial table.
        let opts = BenchOpts { cores: 2, scale: 0.05, runs: 1, drop_slowest: 0, ..BenchOpts::default() };
        let sup = SupervisorOpts { max_cycles: Some(1), ..SupervisorOpts::none() };
        let err = fig14_exec_time(&opts, &sup).expect_err("every cell times out");
        let first = opts.workloads()[0].name;
        assert!(
            matches!(&err, SimError::CellFailed { cell, .. }
                if *cell == format!("{first}/baseline/icelake")),
            "{err}"
        );
        assert!(err.to_string().contains("did not quiesce within 1 cycles"), "{err}");
    }

    #[test]
    fn every_measured_figure_rides_the_engine() {
        // A methodology retaining no runs is refused by the campaign engine
        // before any cell runs: every figure that measures, and the ablation
        // tables, must say so, not print a table from some other run path.
        let opts = BenchOpts { cores: 2, scale: 0.05, runs: 0, ..BenchOpts::default() };
        let measured = FIGURES.iter().filter(|(name, _)| *name != "table1_config");
        for (name, figure) in measured.chain([&("ablation", ablation as Figure)]) {
            let err = figure(&opts, &SupervisorOpts::none()).expect_err(name);
            assert!(matches!(err, SimError::InvalidMethodology { runs: 0, .. }), "{name}: {err}");
        }
    }
}
