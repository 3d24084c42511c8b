//! Differential bottleneck report: diffs two `BENCH_sweep.json` files
//! row-by-row on their cycle-accounting (`cpi`) blocks and renders
//! per-leaf deltas with a loud regression verdict.
//!
//! The comparison is keyed on cell identity — `kernel/policy/preset`, plus
//! the ablation override, the contended-crossbar point and the weak-model
//! tag where the row carries them, so the reports of
//! `fig16_network_sensitivity`, `fig_weak_baseline`, `fa fig all` and
//! `fa ablation` key every row apart — and the two reports may come
//! from different drivers or row orders; cells present in only one file are
//! listed, not diffed, and a key that occurs twice in one file is an error.
//! A **row regression**
//! is total core cycles growing by more than [`CYCLES_REL`] of the
//! baseline (and at least [`ABS_FLOOR`] cycles — sub-noise growth on tiny
//! cells is not a verdict). A **leaf regression** is any taxonomy leaf
//! growing by more than [`LEAF_REL`] of the baseline row's total cycles
//! (same absolute floor) — this catches a bottleneck shifting between
//! leaves even when the total barely moves.
//!
//! Each line of the report `sweep` writes goes through [`Json::parse`], as
//! the checkpoint journal's do, and only the fields this report needs are
//! read, by path: the cell identity and the `cpi` block.

use fa_sim::{Counter, CpiLeaf, CpiStack, Json, CPI_LEAVES};
use std::fmt::Write as _;

/// Row-regression threshold: total core cycles growing by more than this
/// fraction of the baseline.
pub const CYCLES_REL: f64 = 0.02;

/// Leaf-regression threshold: one leaf growing by more than this fraction
/// of the baseline row's **total** cycles.
pub const LEAF_REL: f64 = 0.05;

/// Absolute growth floor (cycles) below which neither rule fires —
/// scheduling-free noise on tiny cells is not a regression.
pub const ABS_FLOOR: u64 = 100;

/// One row recovered from a sweep report's `rows` array: the cell
/// identity plus its cycle-accounting block.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CpiRow {
    /// Cell identity: `kernel/policy/preset` (plus `/<ablation>` for an
    /// overridden cell, as [`SweepCell::name`](crate::sweep::SweepCell::name)
    /// writes it), then ` net=<policy>:<bw>` for a contended-crossbar row and
    /// ` model=<name>` for a tagged one.
    pub key: String,
    /// Total core cycles of the representative run (`cpi.core_cycles`).
    pub core_cycles: u64,
    /// Per-leaf cycle counts, indexed by [`CpiLeaf::index`].
    pub leaves: [u64; CPI_LEAVES],
}

/// Extracts every row carrying a `cpi` block from the text of a
/// `BENCH_sweep.json` report (or any stream of `sweep_row` lines).
/// Lines that are not a row with the block — the report's frame, rows
/// written before the cycle-accounting layer, anything malformed — are
/// skipped, so the caller can tell "no such file shape" (empty result).
pub fn parse_rows(text: &str) -> Vec<CpiRow> {
    let row = |line: &str| cpi_row(&Json::parse(line.trim().trim_end_matches(',')).ok()?);
    text.lines().filter_map(row).collect()
}

/// The cell identity and `cpi` block of one parsed row, read by path.
fn cpi_row(row: &Json) -> Option<CpiRow> {
    let cpi = row.get("cpi")?;
    let leaves = CpiStack::from_json(cpi.get("stack")?)?.leaves;
    let name = |k| row.get(k).and_then(Json::as_str);
    let mut key = format!("{}/{}/{}", name("kernel")?, name("policy")?, name("preset")?);
    if let Some(ablation) = row.get("ablation") {
        let _ = write!(key, "/{}", ablation.as_str()?);
    }
    if let Some(net) = row.get("net") {
        let (xbar, bw) = (net.get("policy")?.as_str()?, net.get("bw")?.as_u64()?);
        let _ = write!(key, " net={xbar}:{bw}");
    }
    if let Some(model) = row.get("model") {
        let _ = write!(key, " model={}", model.as_str()?);
    }
    Some(CpiRow { key, core_cycles: cpi.get("core_cycles")?.as_u64()?, leaves })
}

/// One compared cell: baseline and current cycle accounting plus the
/// verdict under the thresholds above.
#[derive(Clone, Debug, PartialEq)]
pub struct RowDiff {
    /// Cell identity.
    pub key: String,
    /// Baseline row.
    pub base: CpiRow,
    /// Current row.
    pub cur: CpiRow,
    /// Leaves that regressed (grew past [`LEAF_REL`] of the baseline
    /// total), by [`CpiLeaf::index`].
    pub regressed_leaves: Vec<usize>,
    /// Total core cycles regressed past [`CYCLES_REL`].
    pub cycles_regressed: bool,
}

impl RowDiff {
    /// True when either rule fired for this cell.
    pub fn regressed(&self) -> bool {
        self.cycles_regressed || !self.regressed_leaves.is_empty()
    }
}

/// A finished comparison: per-cell diffs (cells present in both reports,
/// baseline order) and the unmatched keys on each side.
#[derive(Clone, Debug, PartialEq)]
pub struct DiffReport {
    /// Cells compared, in baseline order.
    pub rows: Vec<RowDiff>,
    /// Baseline cells absent from the current report.
    pub missing: Vec<String>,
    /// Current cells absent from the baseline.
    pub added: Vec<String>,
}

impl DiffReport {
    /// True when any compared cell regressed — the `report` bin's
    /// exit-nonzero condition.
    pub fn regressed(&self) -> bool {
        self.rows.iter().any(RowDiff::regressed)
    }

    /// Renders the whole comparison as a human-readable report: one line
    /// per compared cell, per-leaf delta lines for every regressed leaf,
    /// the unmatched keys, and a final loud verdict line.
    pub fn render(&self) -> String {
        let mut s = String::new();
        for d in &self.rows {
            let (b, c) = (d.base.core_cycles, d.cur.core_cycles);
            let _ = writeln!(
                s,
                "{}: core cycles {b} -> {c} ({}{:.2}%){}",
                d.key,
                if c >= b { "+" } else { "-" },
                (c.abs_diff(b)) as f64 * 100.0 / (b.max(1)) as f64,
                if d.cycles_regressed { "  ** CYCLES REGRESSED **" } else { "" }
            );
            for &i in &d.regressed_leaves {
                let leaf = CpiLeaf::ALL[i];
                let _ = writeln!(
                    s,
                    "    leaf {}: {} -> {} (+{:.2}% of baseline total)  ** LEAF REGRESSED **",
                    leaf.name(),
                    d.base.leaves[i],
                    d.cur.leaves[i],
                    d.cur.leaves[i].saturating_sub(d.base.leaves[i]) as f64 * 100.0
                        / d.base.core_cycles.max(1) as f64
                );
            }
        }
        for k in &self.missing {
            let _ = writeln!(s, "{k}: in baseline only (not compared)");
        }
        for k in &self.added {
            let _ = writeln!(s, "{k}: in current only (not compared)");
        }
        let n = self.rows.iter().filter(|d| d.regressed()).count();
        let _ = if n == 0 {
            writeln!(s, "verdict: OK — {} cell(s) compared, no regressions", self.rows.len())
        } else {
            writeln!(s, "verdict: REGRESSED — {n} of {} cell(s) regressed", self.rows.len())
        };
        s
    }
}

/// Compares `current` against `baseline`, cell by cell.
///
/// # Errors
///
/// A key that occurs twice in one report: the rows cannot be told apart,
/// so there is no right one to diff against.
pub fn diff(baseline: &[CpiRow], current: &[CpiRow]) -> Result<DiffReport, String> {
    for (side, rows) in [("baseline", baseline), ("current", current)] {
        for (i, r) in rows.iter().enumerate() {
            if rows[..i].iter().any(|o| o.key == r.key) {
                return Err(format!("{side} report has two rows keyed {:?}", r.key));
            }
        }
    }
    let mut rows = Vec::new();
    let mut missing = Vec::new();
    for b in baseline {
        let Some(c) = current.iter().find(|c| c.key == b.key) else {
            missing.push(b.key.clone());
            continue;
        };
        let grew = c.core_cycles.saturating_sub(b.core_cycles);
        let cycles_regressed =
            grew >= ABS_FLOOR && grew as f64 > b.core_cycles as f64 * CYCLES_REL;
        let mut regressed_leaves = Vec::new();
        for i in 0..CPI_LEAVES {
            let grew = c.leaves[i].saturating_sub(b.leaves[i]);
            if grew >= ABS_FLOOR && grew as f64 > b.core_cycles as f64 * LEAF_REL {
                regressed_leaves.push(i);
            }
        }
        rows.push(RowDiff {
            key: b.key.clone(),
            base: b.clone(),
            cur: c.clone(),
            regressed_leaves,
            cycles_regressed,
        });
    }
    let added = current
        .iter()
        .filter(|c| !baseline.iter().any(|b| b.key == c.key))
        .map(|c| c.key.clone())
        .collect();
    Ok(DiffReport { rows, missing, added })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diff(baseline: &[CpiRow], current: &[CpiRow]) -> DiffReport {
        super::diff(baseline, current).expect("keys are unique within each report")
    }

    fn synthetic_report(rows: &[(&str, u64, u64, u64)]) -> String {
        // (key fields are kernel/policy/preset = k/p/r) with commit,
        // sb_drain and idle carrying the cycles; the rest zero.
        let mut s = String::from("{\n  \"schema\": \"fa-sweep-v1\",\n  \"rows\": [\n");
        for (i, (kernel, commit, sb, idle)) in rows.iter().enumerate() {
            let total = commit + sb + idle;
            let stack = Json::obj(CpiLeaf::ALL.map(|l| {
                let v = match l {
                    CpiLeaf::Commit => *commit,
                    CpiLeaf::SbDrain => *sb,
                    CpiLeaf::Idle => *idle,
                    _ => 0,
                };
                (l.name(), v.into())
            }));
            let sep = if i + 1 == rows.len() { "" } else { "," };
            let _ = writeln!(
                s,
                "    {{\"kernel\":\"{kernel}\",\"policy\":\"baseline\",\"preset\":\"tiny\",\
                 \"runs\":3,\"mean_cycles\":1.000000,\"rep_cycles\":{total},\
                 \"instructions\":10,\"hists\":{{}},\"cpi\":{{\"core_cycles\":{total},\
                 \"stack\":{stack},\"atomic\":{{\"acquire\":0,\"xfer\":[0,0,0,0,0],\
                 \"dir_park\":0,\"local\":0}},\"fill\":[0,0,0,0,0]}}}}{sep}"
            );
        }
        s.push_str("  ]\n}\n");
        s
    }

    #[test]
    fn parse_recovers_identity_and_leaves() {
        let text = synthetic_report(&[("TATP", 500, 300, 200), ("PC", 900, 0, 100)]);
        let rows = parse_rows(&text);
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].key, "TATP/baseline/tiny");
        assert_eq!(rows[0].core_cycles, 1000);
        assert_eq!(rows[0].leaves[CpiLeaf::Commit.index()], 500);
        assert_eq!(rows[0].leaves[CpiLeaf::SbDrain.index()], 300);
        assert_eq!(rows[0].leaves[CpiLeaf::Idle.index()], 200);
        assert_eq!(rows[0].leaves.iter().sum::<u64>(), rows[0].core_cycles);
        assert_eq!(rows[1].key, "PC/baseline/tiny");
        // A row whose stack misses a leaf is skipped.
        let short = parse_rows(&text.replacen(",\"idle\":200", "", 1));
        assert_eq!(short.iter().map(|r| r.key.as_str()).collect::<Vec<_>>(), ["PC/baseline/tiny"]);
        // Rows without a cpi block (pre-accounting reports) are skipped.
        assert!(parse_rows("{\"kernel\":\"X\",\"policy\":\"p\",\"preset\":\"t\"}").is_empty());
        assert!(parse_rows("not json at all").is_empty());
    }

    #[test]
    fn identical_reports_diff_clean() {
        let rows = parse_rows(&synthetic_report(&[("TATP", 5000, 3000, 2000)]));
        let d = diff(&rows, &rows);
        assert!(!d.regressed(), "a report must never regress against itself");
        assert!(d.missing.is_empty() && d.added.is_empty());
        let r = d.render();
        assert!(r.contains("verdict: OK"), "{r}");
        assert!(r.contains("core cycles 10000 -> 10000 (+0.00%)"), "{r}");
    }

    #[test]
    fn inflated_leaf_regresses_even_with_flat_total() {
        // sb_drain grows by 1000 (10% of baseline total) while commit
        // shrinks to match: the bottleneck moved, the total did not.
        let base = parse_rows(&synthetic_report(&[("TATP", 5000, 3000, 2000)]));
        let cur = parse_rows(&synthetic_report(&[("TATP", 4000, 4000, 2000)]));
        let d = diff(&base, &cur);
        assert!(d.regressed());
        assert!(!d.rows[0].cycles_regressed, "total is flat");
        assert_eq!(d.rows[0].regressed_leaves, vec![CpiLeaf::SbDrain.index()]);
        let r = d.render();
        assert!(r.contains("leaf sb_drain: 3000 -> 4000"), "{r}");
        assert!(r.contains("** LEAF REGRESSED **"), "{r}");
        assert!(r.contains("verdict: REGRESSED — 1 of 1 cell(s) regressed"), "{r}");
    }

    #[test]
    fn grown_total_regresses_and_small_jitter_does_not() {
        let base = parse_rows(&synthetic_report(&[("TATP", 5000, 3000, 2000)]));
        // +5% total, spread below the per-leaf threshold.
        let grown = parse_rows(&synthetic_report(&[("TATP", 5300, 3100, 2100)]));
        let d = diff(&base, &grown);
        assert!(d.rows[0].cycles_regressed);
        assert!(d.rows[0].regressed_leaves.is_empty());
        assert!(d.render().contains("** CYCLES REGRESSED **"));
        // +60 cycles on a tiny cell: relative growth is huge but below the
        // absolute floor — noise, not a verdict.
        let tiny_base = parse_rows(&synthetic_report(&[("PC", 50, 20, 30)]));
        let tiny_cur = parse_rows(&synthetic_report(&[("PC", 80, 50, 30)]));
        assert!(!diff(&tiny_base, &tiny_cur).regressed());
        // Improvements never regress.
        let faster = parse_rows(&synthetic_report(&[("TATP", 4000, 1000, 2000)]));
        assert!(!diff(&base, &faster).regressed());
    }

    #[test]
    fn unmatched_cells_are_listed_not_compared() {
        let base = parse_rows(&synthetic_report(&[("TATP", 5000, 3000, 2000)]));
        let cur = parse_rows(&synthetic_report(&[("PC", 900, 0, 100)]));
        let d = diff(&base, &cur);
        assert!(d.rows.is_empty());
        assert_eq!(d.missing, vec!["TATP/baseline/tiny"]);
        assert_eq!(d.added, vec!["PC/baseline/tiny"]);
        assert!(!d.regressed(), "unmatched cells alone are not a regression");
        let r = d.render();
        assert!(r.contains("in baseline only"), "{r}");
        assert!(r.contains("in current only"), "{r}");
    }

    fn small_opts() -> crate::BenchOpts {
        crate::BenchOpts {
            cores: 2,
            scale: 0.05,
            runs: 2,
            drop_slowest: 0,
            threads: 1,
            ..crate::BenchOpts::default()
        }
    }

    #[test]
    fn real_sweep_reports_round_trip_and_conserve() {
        // End to end: emit a real report, read it back, and check the
        // conservation invariant survives serialization; a self-diff of
        // real rows is clean and its rendered rows are bit-identical
        // across renders (passivity).
        let rows = parse_rows(&report_of(&pair("TATP")));
        assert_eq!(rows.len(), 2, "every emitted row parses back");
        for r in &rows {
            assert_eq!(
                r.leaves.iter().sum::<u64>(),
                r.core_cycles,
                "{}: conservation must survive the JSON round trip",
                r.key
            );
        }
        let d = diff(&rows, &rows);
        assert!(!d.regressed());
        assert_eq!(d.render(), diff(&rows, &rows).render(), "rendering is pure");
    }

    /// `kernel` x {baseline, FreeAtomics+Fwd} on the tiny preset.
    fn pair(kernel: &str) -> Vec<crate::sweep::SweepCell> {
        use crate::sweep::{grid, Preset};
        use fa_core::AtomicPolicy;
        let ws = fa_workloads::suite::select(&[kernel]).expect("suite names");
        grid(&ws, &[AtomicPolicy::FencedBaseline, AtomicPolicy::FreeFwd], &[Preset::Tiny])
    }

    /// The report of one campaign over `cells`.
    fn report_of(cells: &[crate::sweep::SweepCell]) -> String {
        use crate::sweep::{run_grid_supervised, SupervisorOpts, SweepReport};
        let opts = small_opts();
        let (outcome, timing) = run_grid_supervised(&opts, &SupervisorOpts::none(), cells).expect("grid");
        SweepReport::from_outcome("report-test", &opts, outcome, timing).json()
    }

    #[test]
    fn merged_reports_key_every_row_apart_and_self_diff_clean() {
        use fa_mem::NocConfig;
        let opts = small_opts();
        // fig16_network_sensitivity's four NoC points; fig_weak_baseline's
        // two memory models: the cells overridden where they differ from
        // the options, all points one campaign, as the figures run them.
        let pc = pair("PC");
        let fig16 = [NocConfig::default(), NocConfig::contended(1), NocConfig::contended(2), NocConfig::contended(4)]
            .map(|noc| pc.iter().map(|c| c.on_noc(&opts, noc)).collect::<Vec<_>>());
        let weak = [fa_sim::MemModel::Tso, fa_sim::MemModel::Weak]
            .map(|model| pc.iter().map(|c| c.under_model(&opts, model)).collect::<Vec<_>>());
        for variants in [&fig16[..], &weak[..]] {
            let rows = parse_rows(&report_of(&variants.concat()));
            assert_eq!(rows.len(), 2 * variants.len());
            let d = super::diff(&rows, &rows).expect("every row has its own key");
            assert_eq!(d.rows.len(), rows.len());
            assert!(d.rows.iter().all(|r| r.base == r.cur), "each row met itself");
            assert!(!d.regressed(), "{}", d.render());
        }
        let keys: Vec<String> =
            parse_rows(&report_of(&fig16[..2].concat())).into_iter().map(|r| r.key).collect();
        assert_eq!(
            keys,
            [
                "PC/baseline/tiny",
                "PC/FreeAtomics+Fwd/tiny",
                "PC/baseline/tiny net=contended:1",
                "PC/FreeAtomics+Fwd/tiny net=contended:1",
            ]
        );
        assert!(parse_rows(&report_of(&weak[1..].concat()))[0].key.ends_with("/tiny model=weak"));
    }

    #[test]
    fn a_key_duplicated_within_one_report_is_an_error() {
        let once = parse_rows(&synthetic_report(&[("TATP", 5000, 3000, 2000)]));
        let twice = [once.clone(), once.clone()].concat();
        let e = super::diff(&twice, &once).expect_err("ambiguous baseline");
        assert!(e.contains("baseline") && e.contains("TATP/baseline/tiny"), "{e}");
        let e = super::diff(&once, &twice).expect_err("ambiguous current");
        assert!(e.contains("current"), "{e}");
    }
}
