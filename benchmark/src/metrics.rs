//! The metric catalogue: every name the benchmark prints, with its unit,
//! direction and (for end-to-end metrics) regression bound.
//!
//! `BENCHMARK.json` at the repo root carries the same lists; a test holds
//! the two together.

use fa_sim::CpiLeaf;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Clone, Copy, Debug)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

/// What a user of the simulator sees, per workload: host times are quiet
/// times over the timed passes of a run (`measure.rs`). Simulated time is not among them: it follows the seed
/// (by a quarter on `noc8_grid`), and the acceptance rule compares runs of
/// different seeds. It is held by the per-layer `model.*` block, which is
/// exact for one commit and seed.
pub const END_TO_END: [EndToEnd; 5] = [
    EndToEnd {
        name: "host_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "ops_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "sim_mips",
        unit: "MIPS",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.10,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
];

#[derive(Clone, Debug)]
pub struct PerLayer {
    pub name: String,
    pub unit: &'static str,
    pub better: Better,
}

/// Every per-layer metric of a traced run, in print order.
pub fn per_layer() -> Vec<PerLayer> {
    use Better::{Higher, Lower};
    let fixed: [(&str, &'static str, Better); 59] = [
        // Split loop over the workload's cells.
        ("core.tick_s", "s", Lower),
        ("core.tick_calls", "count", Lower),
        ("core.tick_ns", "ns", Lower),
        ("core.tick_ns.rob_q1", "ns", Lower),
        ("core.tick_ns.rob_q2", "ns", Lower),
        ("core.tick_ns.rob_q3", "ns", Lower),
        ("core.tick_ns.rob_q4", "ns", Lower),
        ("mem.tick_s", "s", Lower),
        ("mem.tick_ns", "ns", Lower),
        ("sim.loop_other_s", "s", Lower),
        ("sim.always_tick_ratio", "ratio", Lower),
        ("sim.cycles_per_s", "cyc/s", Higher),
        ("bench.trace_overhead_ratio", "ratio", Lower),
        // Spans around public calls, direct pass over the workload's cells.
        ("workloads.build_ms", "ms", Lower),
        ("sim.machine_new_ms", "ms", Lower),
        ("sim.machine_run_s", "s", Lower),
        // Fixed cells: the supervised sweep against the direct path.
        ("bench.sweep_overhead_ratio", "ratio", Lower),
        ("bench.report_json_ms", "ms", Lower),
        ("bench.report_parse_ms", "ms", Lower),
        // Fixed cells: what each passive layer costs when on.
        ("trace.flight_ratio", "ratio", Lower),
        ("trace.full_ratio", "ratio", Lower),
        ("trace.full_rss_mb", "MB", Lower),
        ("trace.perfetto_export_ms", "ms", Lower),
        ("sim.check_tso_ratio", "ratio", Lower),
        ("mem.audit_ratio", "ratio", Lower),
        ("mem.progress_off_ratio", "ratio", Lower),
        // Oracles.
        ("sim.axiom.check_us_per_kevent", "us", Lower),
        ("sim.tsoref.tso_enum_us", "us", Lower),
        ("sim.tsoref.weak_enum_us", "us", Lower),
        ("sim.litmus.run_us", "us", Lower),
        // Reference speed and components.
        ("isa.mcinterp_mips", "MIPS", Higher),
        ("sim.detail_slowdown", "ratio", Lower),
        ("core.rob.push_pop_ns", "ns", Lower),
        ("core.rob.get_ns", "ns", Lower),
        ("core.rob.scan_ns", "ns", Lower),
        ("core.aq.alloc_release_ns", "ns", Lower),
        ("core.predictor.predict_resolve_ns", "ns", Lower),
        ("core.storesets.lookup_ns", "ns", Lower),
        ("core.new_us", "us", Lower),
        ("mem.tagarray.touch_hit_ns", "ns", Lower),
        ("mem.tagarray.insert_evict_ns", "ns", Lower),
        ("mem.wheel.schedule_pop_ns", "ns", Lower),
        ("mem.system_new_ms", "ms", Lower),
        ("mem.audit_sweep_us", "us", Lower),
        // The model: simulated, exact, from the workload's cells.
        ("model.sim_cycles", "cycles", Lower),
        ("model.freefwd_speedup", "ratio", Higher),
        ("model.ipc", "ipc", Higher),
        ("model.apki", "apki", Lower),
        ("model.squashed_uop_share", "share", Lower),
        ("model.atomic_exec_mean_cycles", "cycles", Lower),
        ("model.atomic_fwd_share", "share", Higher),
        ("model.sleep_cycle_share", "share", Lower),
        ("model.noc_msgs_per_kcycle", "1/kcyc", Lower),
        ("model.instructions", "count", Lower),
        ("model.rows_moved", "count", Lower),
        // The host.
        ("host.calib_ms", "ms", Lower),
        ("host.calib_iqr_ms", "ms", Lower),
        ("host.pass_min_s", "s", Lower),
        ("host.pass_iqr_s", "s", Lower),
    ];
    let mut out: Vec<PerLayer> = fixed
        .iter()
        .map(|&(name, unit, better)| PerLayer {
            name: name.to_string(),
            unit,
            better,
        })
        .collect();
    let at = out
        .iter()
        .position(|m| m.name == "model.ipc")
        .expect("model block exists");
    let leaves = CpiLeaf::ALL.iter().map(|l| PerLayer {
        name: format!("model.cpi.{}", l.name()),
        unit: "share",
        better: if matches!(l, CpiLeaf::Commit) {
            Higher
        } else {
            Lower
        },
    });
    out.splice(at..at, leaves);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;
    use crate::workloads::WorkloadId;
    use std::collections::BTreeSet;

    const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

    fn well_formed(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    #[test]
    fn catalogue_and_benchmark_json_agree() {
        let doc = json::parse(BENCHMARK_JSON).expect("BENCHMARK.json parses");
        let listed = |key: &str| -> Vec<(String, String, String, Option<f64>)> {
            doc.get(key)
                .as_arr()
                .iter()
                .map(|m| {
                    let field = |k: &str| m.get(k).as_str().unwrap_or("").to_string();
                    (
                        field("name"),
                        field("unit"),
                        field("better"),
                        m.get("bound").as_f64(),
                    )
                })
                .collect()
        };
        let ours: Vec<_> = END_TO_END
            .iter()
            .map(|m| {
                (
                    m.name.to_string(),
                    m.unit.to_string(),
                    m.better.name().to_string(),
                    Some(m.bound),
                )
            })
            .collect();
        assert_eq!(listed("end_to_end"), ours);
        let ours: Vec<_> = per_layer()
            .iter()
            .map(|m| {
                (
                    m.name.clone(),
                    m.unit.to_string(),
                    m.better.name().to_string(),
                    None,
                )
            })
            .collect();
        assert_eq!(listed("per_layer"), ours);
        let workloads: Vec<&str> = doc
            .get("workloads")
            .as_arr()
            .iter()
            .filter_map(|w| w.get("name").as_str())
            .collect();
        assert_eq!(workloads, WorkloadId::ALL.map(WorkloadId::name));
        assert!(doc
            .get("workloads")
            .as_arr()
            .iter()
            .all(|w| w.get("why").as_str().is_some_and(|s| s.len() <= 200)));
    }

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut names: Vec<String> = END_TO_END.iter().map(|m| m.name.to_string()).collect();
        names.extend(per_layer().into_iter().map(|m| m.name));
        names.extend(WorkloadId::ALL.map(|w| w.name().to_string()));
        assert!(names.iter().all(|n| well_formed(n)), "{names:?}");
        assert_eq!(
            names.iter().collect::<BTreeSet<_>>().len(),
            names.len(),
            "a name is used twice"
        );
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == Better::Lower));
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        assert!(per_layer().len() <= 128);
    }
}
