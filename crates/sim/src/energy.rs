//! Event-count energy model (the McPAT substitution).
//!
//! The paper integrates McPAT at 22 nm / 0.6 V to report processor energy
//! (Figure 15), split into dynamic and static. Figure 15's *claims* are
//! relative: dynamic energy falls with fewer committed+squashed micro-ops
//! (less spinning) and better locality; static energy is proportional to
//! execution time, discounted while cores sleep. An event-count model with
//! per-event energies in the McPAT ballpark preserves exactly that
//! structure, so relative comparisons between atomic policies are
//! meaningful; absolute joules are not calibrated.

use crate::machine::RunResult;

/// Per-event energies in nanojoules and static power per core.
#[derive(Clone, Debug, PartialEq)]
pub struct EnergyModel {
    /// Energy per committed micro-op (rename+issue+execute+commit).
    pub nj_per_uop: f64,
    /// Energy per squashed micro-op (work thrown away).
    pub nj_per_squashed_uop: f64,
    /// Energy per L1 access.
    pub nj_per_l1: f64,
    /// Energy per L2 access.
    pub nj_per_l2: f64,
    /// Energy per LLC access.
    pub nj_per_llc: f64,
    /// Energy per DRAM access.
    pub nj_per_mem: f64,
    /// Energy per coherence message.
    pub nj_per_msg: f64,
    /// Static (leakage) energy per core per cycle while awake.
    pub nj_static_per_cycle: f64,
    /// Fraction of static energy burnt while asleep (clock-gated).
    pub sleep_static_factor: f64,
}

impl Default for EnergyModel {
    /// 22 nm / 0.6 V ballpark figures.
    fn default() -> EnergyModel {
        EnergyModel {
            nj_per_uop: 0.12,
            nj_per_squashed_uop: 0.08,
            nj_per_l1: 0.05,
            nj_per_l2: 0.2,
            nj_per_llc: 1.2,
            nj_per_mem: 15.0,
            nj_per_msg: 0.25,
            // Leakage dominates at 0.6 V near-threshold operation (the
            // paper's McPAT point), so the static share is large.
            nj_static_per_cycle: 0.3,
            sleep_static_factor: 0.2,
        }
    }
}

/// Energy totals for one run.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct EnergyBreakdown {
    /// Dynamic energy in nanojoules.
    pub dynamic_nj: f64,
    /// Static energy in nanojoules.
    pub static_nj: f64,
}

impl EnergyBreakdown {
    /// Total energy.
    pub fn total_nj(&self) -> f64 {
        self.dynamic_nj + self.static_nj
    }
}

impl EnergyModel {
    /// Evaluates the model over a run.
    pub fn evaluate(&self, r: &RunResult) -> EnergyBreakdown {
        let agg = r.aggregate();
        let mut dynamic = 0.0;
        dynamic += agg.uops as f64 * self.nj_per_uop;
        dynamic += agg.squashed_uops as f64 * self.nj_per_squashed_uop;
        for c in &r.mem.cores {
            dynamic += (c.l1_hits + c.stores_performed) as f64 * self.nj_per_l1;
            dynamic += c.l2_hits as f64 * self.nj_per_l2;
            dynamic += (c.llc_hits + c.remote_transfers) as f64 * self.nj_per_llc;
            dynamic += c.mem_accesses as f64 * self.nj_per_mem;
        }
        dynamic += r.mem.messages as f64 * self.nj_per_msg;

        let cores = r.per_core.len() as f64;
        let total_core_cycles = r.cycles as f64 * cores;
        let sleep: f64 = r.per_core.iter().map(|c| c.sleep_cycles as f64).sum();
        let awake = (total_core_cycles - sleep).max(0.0);
        let static_nj = awake * self.nj_static_per_cycle
            + sleep * self.nj_static_per_cycle * self.sleep_static_factor;
        EnergyBreakdown { dynamic_nj: dynamic, static_nj }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fa_core::CoreStats;
    use fa_mem::MemStats;

    fn result(cycles: u64, uops: u64, sleep: u64) -> RunResult {
        let mut cs = CoreStats { cycles, uops, sleep_cycles: sleep, ..CoreStats::default() };
        cs.instructions = uops;
        RunResult { cycles, per_core: vec![cs], mem: MemStats::new(1) }
    }

    #[test]
    fn dynamic_scales_with_uops() {
        let m = EnergyModel::default();
        let a = m.evaluate(&result(1000, 100, 0));
        let b = m.evaluate(&result(1000, 200, 0));
        assert!(b.dynamic_nj > a.dynamic_nj);
        assert_eq!(a.static_nj, b.static_nj);
    }

    #[test]
    fn sleeping_discounts_static_energy() {
        let m = EnergyModel::default();
        let awake = m.evaluate(&result(1000, 100, 0));
        let asleep = m.evaluate(&result(1000, 100, 500));
        assert!(asleep.static_nj < awake.static_nj);
        assert!(asleep.total_nj() < awake.total_nj());
    }

    #[test]
    fn static_scales_with_time() {
        let m = EnergyModel::default();
        let short = m.evaluate(&result(1000, 100, 0));
        let long = m.evaluate(&result(2000, 100, 0));
        assert!(long.static_nj > short.static_nj);
    }
}
