//! `benchmark compare A.json B.json`: the before/after check between two
//! result files written by `benchmark run`.

use crate::json::{self, Value};
use crate::metrics::{self, Better};
use std::fmt::Write as _;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    /// B is worse than A by more than the metric's bound.
    Worse,
    /// A run's own samples leave the value open by more than the bound,
    /// so neither "unchanged" nor "worse" can be told.
    Unresolved,
}

impl Verdict {
    fn name(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

pub struct Comparison {
    pub table: String,
    pub worse: usize,
    pub unresolved: usize,
}

/// How far a run's own samples leave one metric's value open, as a share
/// of it (`measure::Reading::spread`).
fn spread(entry: &Value) -> f64 {
    entry.get("spread").as_f64().unwrap_or(0.0)
}

/// Compares every workload × end-to-end metric of `b` against `a`, then
/// every exact count (`failed`, `model.*`).
///
/// # Errors
///
/// A message when either document is not a result file or the two do not
/// cover the same workloads, seed and number of timed passes.
pub fn compare(a: &str, b: &str) -> Result<Comparison, String> {
    let a = json::parse(a).map_err(|e| format!("A: {e}"))?;
    let b = json::parse(b).map_err(|e| format!("B: {e}"))?;
    let wa = a
        .get("workloads")
        .as_obj()
        .ok_or("A: no workloads object")?;
    let wb = b
        .get("workloads")
        .as_obj()
        .ok_or("B: no workloads object")?;
    if !wa.keys().eq(wb.keys()) {
        return Err("the two files cover different workloads".to_string());
    }
    if a.get("seed") != b.get("seed") {
        return Err(
            "the two files were run with different seeds; exact metrics cannot match".to_string(),
        );
    }
    let mut out = Comparison {
        table: String::new(),
        worse: 0,
        unresolved: 0,
    };
    let _ = writeln!(
        out.table,
        "{:<16} {:<18} {:>14} {:>14} {:>9} {:>6}  verdict",
        "workload", "metric", "A", "B", "rel", "bound"
    );
    let row = |out: &mut Comparison,
               w: &str,
               name: &str,
               va: f64,
               vb: f64,
               rel: f64,
               bound: f64,
               v: Verdict| {
        let _ = writeln!(
            out.table,
            "{w:<16} {name:<18} {va:>14.6} {vb:>14.6} {:>+8.2}% {:>5.0}%  {}",
            rel * 100.0,
            bound * 100.0,
            v.name()
        );
        match v {
            Verdict::Worse => out.worse += 1,
            Verdict::Unresolved => out.unresolved += 1,
            Verdict::Ok => {}
        }
    };
    for (w, ra) in wa {
        let rb = &wb[w];
        // A quiet time is a minimum over the passes: it compares only
        // between runs of the same number of passes.
        if ra.get("passes") != rb.get("passes") {
            return Err(format!(
                "{w}: the two runs timed different numbers of passes"
            ));
        }
        for m in &metrics::END_TO_END {
            let (ea, eb) = (
                ra.get("end_to_end").get(m.name),
                rb.get("end_to_end").get(m.name),
            );
            let (Some(va), Some(vb)) = (ea.get("value").as_f64(), eb.get("value").as_f64()) else {
                return Err(format!("{w}: metric {} missing", m.name));
            };
            // Positive when B is worse than A.
            let rel = match m.better {
                Better::Lower => (vb - va) / va,
                Better::Higher => (va - vb) / va,
            };
            let verdict = if spread(ea).max(spread(eb)) > m.bound {
                Verdict::Unresolved
            } else if rel > m.bound {
                Verdict::Worse
            } else {
                Verdict::Ok
            };
            row(&mut out, w, m.name, va, vb, rel, m.bound, verdict);
        }
        // Counts that a simulator-only change must leave identical.
        // (`attempted` is not one: it follows how many passes fit the time.)
        let mut exact = vec![(
            "failed".to_string(),
            ra.get("failed").as_f64(),
            rb.get("failed").as_f64(),
        )];
        if let (Some(la), Some(lb)) = (ra.get("per_layer").as_obj(), rb.get("per_layer").as_obj()) {
            for name in la.keys().filter(|k| k.starts_with("model.")) {
                exact.push((
                    name.clone(),
                    la[name].get("value").as_f64(),
                    lb.get(name).and_then(|e| e.get("value").as_f64()),
                ));
            }
        }
        for (name, va, vb) in exact {
            let (Some(va), Some(vb)) = (va, vb) else {
                return Err(format!("{w}: {name} missing"));
            };
            let rel = if va == 0.0 { 0.0 } else { (vb - va) / va };
            let verdict = if va == vb {
                Verdict::Ok
            } else {
                Verdict::Worse
            };
            row(&mut out, w, &name, va, vb, rel, 0.0, verdict);
        }
    }
    let _ = writeln!(
        out.table,
        "{} worse, {} unresolved",
        out.worse, out.unresolved
    );
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A one-workload result file with the given `host_s` value and
    /// spread, and `model.sim_cycles`.
    fn doc(host_s: f64, spread: f64, sim_cycles: u64) -> String {
        let steady = |name: &str, v: f64| {
            format!("\"{name}\":{{\"value\":{v},\"unit\":\"x\",\"spread\":0.01}}")
        };
        format!(
            "{{\"seed\":7,\"workloads\":{{\"compute_grid\":{{\"attempted\":10,\"failed\":0,\
             \"end_to_end\":{{\"host_s\":{{\"value\":{host_s},\"unit\":\"s\",\"spread\":{spread}}},{},{},{},{}}},\
             \"per_layer\":{{\"model.sim_cycles\":{{\"value\":{sim_cycles},\"unit\":\"cycles\"}},\
             \"core.tick_s\":{{\"value\":1.5,\"unit\":\"s\"}}}}}}}}}}",
            steady("ops_per_s", 5.0),
            steady("sim_mips", 0.4),
            steady("peak_rss_mb", 70.0),
            steady("setup_s", 1.7),
        )
    }

    #[test]
    fn a_file_against_itself_is_all_ok() {
        let a = doc(1.7, 0.02, 1000);
        let c = compare(&a, &a).expect("comparable");
        assert_eq!((c.worse, c.unresolved), (0, 0), "{}", c.table);
        assert_eq!(c.table.matches(" ok\n").count(), 5 + 2, "{}", c.table);
    }

    #[test]
    fn inflated_host_time_is_worse_and_small_drift_is_not() {
        let a = doc(1.7, 0.02, 1000);
        let c = compare(&a, &doc(2.2, 0.02, 1000)).expect("comparable");
        assert_eq!((c.worse, c.unresolved), (1, 0), "{}", c.table);
        assert!(
            c.table
                .lines()
                .any(|l| l.contains("host_s") && l.ends_with("worse")),
            "{}",
            c.table
        );
        let c = compare(&a, &doc(1.8, 0.02, 1000)).expect("comparable");
        assert_eq!(c.worse, 0, "+6% is inside the bound:\n{}", c.table);
        // Faster is never worse.
        assert_eq!(
            compare(&a, &doc(1.0, 0.02, 1000))
                .expect("comparable")
                .worse,
            0
        );
    }

    #[test]
    fn wide_spread_is_unresolved_and_model_drift_is_worse() {
        let a = doc(1.7, 0.02, 1000);
        let c = compare(&a, &doc(2.2, 0.45, 1000)).expect("comparable");
        assert_eq!((c.worse, c.unresolved), (0, 1), "{}", c.table);
        let c = compare(&a, &doc(1.7, 0.02, 1001)).expect("comparable");
        assert_eq!(c.worse, 1, "exact metrics must match exactly:\n{}", c.table);
    }

    #[test]
    fn mismatched_files_are_refused() {
        let a = doc(1.7, 0.02, 1000);
        assert!(compare(&a, "{}").is_err());
        assert!(compare(&a, &a.replace("\"seed\":7", "\"seed\":8")).is_err());
        assert!(compare(&a, &a.replace("compute_grid", "noc8_grid")).is_err());
        let passes = |n: u32| a.replace("\"failed\":0", &format!("\"failed\":0,\"passes\":{n}"));
        assert!(compare(&passes(13), &passes(13)).is_ok());
        assert!(compare(&passes(13), &passes(16)).is_err());
    }
}
