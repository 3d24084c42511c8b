//! The paper's measurement methodology (§5.1): run each configuration
//! several times with randomized start perturbations, drop the slowest
//! outliers, and average the rest.
//!
//! Each run derives its perturbation stream independently from the base
//! seed (run `i` uses a SplitMix64 stream seeded with `seed + i`, the same
//! generator as [`fa_mem::chaos`]), so runs are replayable in isolation and
//! a cell's result does not depend on which [`crate::sweep`] worker ran it.
//! The grid engine (`fa_bench::sweep::run_grid_supervised`) composes the
//! three pieces here: [`Methodology::validate`], one
//! [`Methodology::run_single`] per run, then [`Methodology::summarize`].

use crate::error::SimError;
use crate::machine::{Machine, MachineConfig, RunResult};
use fa_isa::interp::GuestMem;
use fa_isa::Program;
use fa_mem::SplitMix64;

/// Multi-run settings. The paper uses 10 runs and drops the 3 slowest; the
/// default here is a faster 5-drop-1 with identical structure.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Methodology {
    /// Total runs. Must be nonzero.
    pub runs: usize,
    /// Slowest runs discarded. Must be less than `runs`.
    pub drop_slowest: usize,
    /// Maximum random start offset per core, in cycles.
    pub max_offset: u64,
    /// Base seed; run `i` uses a fresh SplitMix64 stream seeded `seed + i`.
    pub seed: u64,
    /// Per-run cycle budget.
    pub max_cycles: u64,
}

impl Default for Methodology {
    fn default() -> Methodology {
        Methodology { runs: 5, drop_slowest: 1, max_offset: 2000, seed: 0xF5EE_A706, max_cycles: 80_000_000 }
    }
}

impl Methodology {
    /// Checks that the configuration retains at least one run.
    ///
    /// # Errors
    ///
    /// [`SimError::InvalidMethodology`] when `runs == 0` (the mean would
    /// divide by zero) or `drop_slowest >= runs` (every run discarded).
    pub fn validate(&self) -> Result<(), SimError> {
        if self.runs == 0 || self.drop_slowest >= self.runs {
            return Err(SimError::InvalidMethodology {
                runs: self.runs,
                drop_slowest: self.drop_slowest,
            });
        }
        Ok(())
    }

    /// The start offsets run `run` applies to `cores` cores: drawn from a
    /// SplitMix64 stream seeded `seed + run`, uniformly in
    /// `[0, max_offset]`. Public so replay tooling (and the seeding
    /// regression tests) can reproduce a single run without the harness.
    pub fn run_offsets(&self, run: usize, cores: usize) -> Vec<u64> {
        let mut rng = SplitMix64::new(self.seed.wrapping_add(run as u64));
        (0..cores).map(|_| rng.below(self.max_offset.saturating_add(1))).collect()
    }

    /// Executes run `run` of this methodology in isolation: fresh machine,
    /// run `run`'s start offsets, run to quiescence.
    ///
    /// # Errors
    ///
    /// Any [`SimError`] the run raises.
    pub fn run_single(
        &self,
        cfg: &MachineConfig,
        run: usize,
        programs: Vec<Program>,
        mem: GuestMem,
    ) -> Result<RunResult, SimError> {
        let n = programs.len();
        let mut m = Machine::new(cfg.clone(), programs, mem);
        m.set_start_offsets(self.run_offsets(run, n));
        m.run(self.max_cycles)
    }

    /// Sorts, trims and averages per-run results collected in run order
    /// (fastest first; the `drop_slowest` tail discarded). Because the sort
    /// is stable over run-ordered input, the retained set is identical no
    /// matter where or in what order the runs executed.
    ///
    /// # Errors
    ///
    /// [`SimError::InvalidMethodology`] as [`Methodology::validate`], or if
    /// `results` does not hold exactly `runs` entries.
    pub fn summarize(&self, mut results: Vec<RunResult>) -> Result<MultiRun, SimError> {
        self.validate()?;
        if results.len() != self.runs {
            return Err(SimError::InvalidMethodology {
                runs: results.len(),
                drop_slowest: self.drop_slowest,
            });
        }
        results.sort_by_key(|r| r.cycles);
        results.truncate(self.runs - self.drop_slowest);
        let mean = results.iter().map(|r| r.cycles as f64).sum::<f64>() / results.len() as f64;
        Ok(MultiRun { mean_cycles: mean, runs: results })
    }
}

/// Summary over the retained runs.
#[derive(Clone, Debug)]
pub struct MultiRun {
    /// Mean cycles over retained runs.
    pub mean_cycles: f64,
    /// Every retained run, fastest first.
    pub runs: Vec<RunResult>,
}

impl MultiRun {
    /// The fastest retained run (used for detailed per-counter reporting).
    pub fn representative(&self) -> &RunResult {
        &self.runs[0]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fa_isa::{Kasm, Reg};

    fn counter(iters: i64) -> Program {
        let mut k = Kasm::new();
        k.li(Reg::R1, 0x100);
        k.li(Reg::R2, 1);
        k.li(Reg::R3, 0);
        let top = k.here_label();
        k.fetch_add(Reg::R4, Reg::R1, 0, Reg::R2);
        k.addi(Reg::R3, Reg::R3, 1);
        k.blt_imm(Reg::R3, iters, top);
        k.halt();
        k.finish().unwrap()
    }

    /// Every run of `meth`, in run order, through the public pieces the
    /// grid engine composes: `run_single` per run, then `summarize`.
    fn run_all(cfg: &MachineConfig, meth: &Methodology, prog: Program, cores: usize) -> MultiRun {
        let runs = (0..meth.runs)
            .map(|run| {
                meth.run_single(cfg, run, vec![prog.clone(); cores], GuestMem::new(1 << 16))
                    .expect("completes")
            })
            .collect();
        meth.summarize(runs).expect("valid methodology")
    }

    #[test]
    fn summarize_drops_slowest_and_averages() {
        let cfg = crate::presets::icelake_like();
        let meth = Methodology { runs: 4, drop_slowest: 1, max_offset: 300, ..Default::default() };
        let mr = run_all(&cfg, &meth, counter(30), 2);
        assert_eq!(mr.runs.len(), 3);
        assert!(mr.mean_cycles > 0.0);
        // Sorted fastest-first.
        assert!(mr.runs.windows(2).all(|w| w[0].cycles <= w[1].cycles));
        assert!(mr.representative().cycles <= mr.runs.last().unwrap().cycles);
    }

    #[test]
    fn zero_runs_and_drop_all_are_structured_errors() {
        for (runs, drop_slowest) in [(0, 0), (3, 3), (2, 5)] {
            let meth = Methodology { runs, drop_slowest, ..Default::default() };
            let want = SimError::InvalidMethodology { runs, drop_slowest };
            assert_eq!(meth.validate().expect_err("must reject"), want);
            assert_eq!(
                meth.summarize(Vec::new()).expect_err("summarize validates first"),
                want
            );
        }
        // A valid methodology still refuses a result set of the wrong size.
        let meth = Methodology { runs: 3, drop_slowest: 1, ..Default::default() };
        assert_eq!(
            meth.summarize(Vec::new()).expect_err("no runs collected"),
            SimError::InvalidMethodology { runs: 0, drop_slowest: 1 }
        );
    }

    #[test]
    fn per_run_streams_differ_even_for_seeds_differing_in_bit0() {
        // Regression: the old implementation threaded one xorshift stream
        // seeded `seed | 1`, so seeds differing only in bit 0 produced
        // identical perturbations and run i was not replayable from
        // `seed + i` as documented.
        let even = Methodology { seed: 0x1000, max_offset: 2000, ..Default::default() };
        let odd = Methodology { seed: 0x1001, ..even };
        assert_ne!(
            even.run_offsets(0, 8),
            odd.run_offsets(0, 8),
            "seeds differing in bit 0 must perturb differently"
        );
        // Runs draw from disjoint streams...
        assert_ne!(even.run_offsets(0, 8), even.run_offsets(1, 8));
        // ...and run i of seed s equals run 0 of seed s+i (replay-by-seed).
        let shifted = Methodology { seed: 0x1003, ..even };
        assert_eq!(even.run_offsets(3, 8), shifted.run_offsets(0, 8));
        // Offsets respect the configured bound.
        assert!(even.run_offsets(0, 64).iter().all(|&o| o <= even.max_offset));
    }
}
