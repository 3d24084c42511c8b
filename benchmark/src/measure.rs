//! The untraced measurement of one workload: set-ups, timed passes, and the
//! end-to-end metrics they yield.

use crate::host;
use crate::metrics::END_TO_END;
use crate::spans::Tracer;
use crate::stats::Summary;
use crate::workloads::{row_mismatches, total_instructions, Plan, Row, Sizing, WorkloadId};
use std::time::Instant;

/// Set-ups per run, spread evenly over it; `setup_s` is their median.
pub const SETUP_REPS: usize = 5;
/// Fewest timed passes per workload, whatever `--seconds` says.
pub const MIN_PASSES: usize = 5;
/// What one pass of any workload is sized to take on the sizing box
/// (`Sizing::FULL`), in seconds.
const NOMINAL_PASS_S: f64 = 1.25;

/// Timed passes of a run of `seconds`: as many nominal passes as fit.
///
/// The count follows `--seconds` and never the speed of the program. A
/// quiet time is a minimum, which falls as samples are added, so both
/// sides of a comparison must take it over the same number of passes.
pub fn passes_for(seconds: f64) -> usize {
    ((seconds / NOMINAL_PASS_S).ceil() as usize).max(MIN_PASSES)
}

/// One end-to-end metric of a run.
#[derive(Clone, Copy, Debug)]
pub struct Reading {
    /// What the run reports.
    pub value: f64,
    /// The same metric taken pass by pass (set-up by set-up for `setup_s`).
    pub passes: Summary,
    /// How far the run's own samples leave `value` open, as a share of it:
    /// for a quiet time the distance between the quiet times of the even
    /// and of the odd passes, for a median the quartile distance.
    pub spread: f64,
}

/// One workload being measured. Passes can be interleaved with those of
/// other workloads: each call times one pass.
pub struct Measurement {
    pub plan: Plan,
    size: Sizing,
    /// The warm-up pass's rows; every later pass must reproduce them.
    pub reference: Vec<Row>,
    setup_s: Vec<f64>,
    /// Step times of every timed pass: `step_s[pass][step]`.
    step_s: Vec<Vec<f64>>,
    pub calib_ms: Vec<f64>,
    peak_rss_mb: f64,
    ops_per_pass: u64,
    pub attempted: u64,
    pub failures: Vec<String>,
}

impl Measurement {
    /// Sets the workload up: generates its inputs from `seed` and runs the
    /// untimed warm-up pass, whose rows become the reference.
    pub fn setup(id: WorkloadId, seed: u64, size: &Sizing) -> Measurement {
        host::reset_peak_rss();
        let t = Instant::now();
        let plan = Plan::new(id, seed, size);
        let warm = plan.pass(&mut Tracer::off());
        let setup_s = t.elapsed().as_secs_f64();
        Measurement {
            plan,
            size: *size,
            reference: warm.rows,
            setup_s: vec![setup_s],
            step_s: Vec::new(),
            calib_ms: Vec::new(),
            peak_rss_mb: host::peak_rss_mb().unwrap_or(0.0),
            ops_per_pass: warm.ops,
            attempted: warm.ops,
            failures: warm.failures,
        }
    }

    /// Sets the workload up once more, for another sample of `setup_s`.
    fn setup_again(&mut self) {
        let t = Instant::now();
        let plan = Plan::new(self.plan.id, self.plan.seed, &self.size);
        let warm = plan.pass(&mut Tracer::off());
        self.setup_s.push(t.elapsed().as_secs_f64());
        self.attempted += warm.ops;
        self.failures.extend(warm.failures);
        self.failures.extend(row_mismatches(
            &plan.cells,
            &self.reference,
            &warm.rows,
            "repeated set-up",
        ));
    }

    /// Times the noise sentinel, then one pass, and checks the pass.
    fn timed_pass(&mut self) {
        self.calib_ms.push(host::calib_ms());
        host::reset_peak_rss();
        let p = self.plan.pass(&mut Tracer::off());
        if let Some(rss) = host::peak_rss_mb() {
            self.peak_rss_mb = self.peak_rss_mb.max(rss);
        }
        self.attempted += p.ops;
        self.failures.extend(p.failures);
        self.failures.extend(row_mismatches(
            &self.plan.cells,
            &self.reference,
            &p.rows,
            "timed pass",
        ));
        self.step_s.push(p.step_s);
    }

    pub fn passes(&self) -> usize {
        self.step_s.len()
    }

    /// Wall time of each timed pass from step `from` on.
    fn pass_s(&self, from: usize) -> Vec<f64> {
        self.step_s
            .iter()
            .map(|steps| steps[from..].iter().sum())
            .collect()
    }

    /// `(host.calib_ms, wall time)` of each timed pass, in order.
    pub fn pass_samples(&self) -> impl Iterator<Item = (f64, f64)> + '_ {
        self.calib_ms.iter().copied().zip(self.pass_s(0))
    }

    /// Timed-pass wall times, for the host block of a traced run.
    pub fn pass_times(&self) -> Summary {
        Summary::of(&self.pass_s(0))
    }

    /// Quiet time from step `from` on over all timed passes, and over the
    /// even and the odd ones alone.
    fn quiet(&self, from: usize) -> (f64, [f64; 2]) {
        let half = |parity: usize| {
            let passes: Vec<Vec<f64>> = self
                .step_s
                .iter()
                .skip(parity)
                .step_by(2)
                .cloned()
                .collect();
            quiet_s(&passes, from)
        };
        (quiet_s(&self.step_s, from), [half(0), half(1)])
    }

    /// Every end-to-end metric, in catalogue order.
    pub fn end_to_end(&self) -> Vec<Reading> {
        let instructions = total_instructions(&self.reference) as f64;
        let ops = self.ops_per_pass as f64;
        let sim_from = self.plan.sim_steps_from();
        // `amount` (1 for a time) over the quiet time from step `from` on.
        let quiet = |amount: Option<f64>, from: usize| {
            let of = |s: f64| amount.map_or(s, |a| a / s);
            let (all, [even, odd]) = self.quiet(from);
            let per_pass: Vec<f64> = self.pass_s(from).into_iter().map(of).collect();
            Reading {
                value: of(all),
                passes: Summary::of(&per_pass),
                spread: (of(even) - of(odd)).abs() / of(all),
            }
        };
        END_TO_END
            .iter()
            .map(|m| match m.name {
                "host_s" => quiet(None, 0),
                "ops_per_s" => quiet(Some(ops), 0),
                "sim_mips" => quiet(Some(instructions / 1e6), sim_from),
                "peak_rss_mb" => Reading {
                    value: self.peak_rss_mb,
                    passes: Summary::exact(self.peak_rss_mb),
                    spread: 0.0,
                },
                "setup_s" => {
                    let passes = Summary::of(&self.setup_s);
                    Reading {
                        value: passes.median,
                        passes,
                        spread: (passes.q3 - passes.q1) / passes.median,
                    }
                }
                other => unreachable!("end-to-end metric {other} has no measurement"),
            })
            .collect()
    }
}

/// Uncontended wall time of one pass from step `from` on: every step at
/// the fastest it ran in any of `passes` (`passes[pass][step]`).
///
/// The host is shared. Its noise only ever adds time, in bursts that
/// outlast a pass, so the median over a run's passes moves by a quarter
/// between back-to-back runs of the same program, and the fastest whole
/// pass by almost as much. A step is short enough to fall into a quiet
/// moment in some pass; README "Host noise" has the numbers.
pub fn quiet_s(passes: &[Vec<f64>], from: usize) -> f64 {
    let steps = passes.first().map_or(0, Vec::len);
    (from..steps)
        .map(|i| {
            passes
                .iter()
                .map(|pass| pass[i])
                .fold(f64::INFINITY, f64::min)
        })
        .sum()
}

/// Runs `passes` timed passes of every measurement round-robin, so host
/// drift hits all workloads alike, and sets each up again until it has
/// been set up `setups` times, at even distances over the run: a burst of
/// host noise then reaches one sample of `setup_s`, not all of them.
pub fn run_interleaved(ms: &mut [Measurement], passes: usize, setups: usize) {
    let mut done = 1;
    for pass in 0..passes {
        if done < setups && pass * setups >= done * passes {
            ms.iter_mut().for_each(Measurement::setup_again);
            done += 1;
        }
        ms.iter_mut().for_each(Measurement::timed_pass);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quiet_time_takes_each_step_at_its_fastest() {
        let passes = [
            vec![1.0, 5.0, 2.0],
            vec![3.0, 1.0, 2.5],
            vec![1.5, 4.0, 9.0],
        ];
        assert_eq!(quiet_s(&passes, 0), 1.0 + 1.0 + 2.0);
        assert_eq!(quiet_s(&passes, 1), 1.0 + 2.0);
        // No whole pass is that fast: the fastest took 6.5.
        assert!(passes
            .iter()
            .all(|p| p.iter().sum::<f64>() > quiet_s(&passes, 0)));
        assert_eq!(quiet_s(&[], 0), 0.0);
    }

    #[test]
    fn pass_count_follows_the_seconds_asked_for() {
        assert_eq!(passes_for(0.0), MIN_PASSES);
        assert_eq!(passes_for(15.0), 12);
        assert_eq!(passes_for(15.1), 13);
    }

    #[test]
    fn set_ups_are_spread_over_the_run_and_the_spread_reads_the_halves() {
        let mut m = [Measurement::setup(
            WorkloadId::ComputeGrid,
            9,
            &Sizing::TINY,
        )];
        run_interleaved(&mut m, 6, 3);
        let [mut m] = m;
        assert!(m.failures.is_empty(), "{:?}", m.failures);
        assert_eq!((m.passes(), m.setup_s.len()), (6, 3));
        // One set-up and six passes attempt the same cells each.
        assert_eq!(m.attempted, 9 * m.ops_per_pass);

        // Even passes take 1 s and 2 s a step at best, odd ones 3 s and 1 s.
        m.step_s = vec![
            vec![1.0, 2.0],
            vec![3.0, 1.0],
            vec![1.5, 2.5],
            vec![3.5, 1.5],
        ];
        let host_s = m.end_to_end()[0];
        assert_eq!(host_s.value, 2.0);
        assert_eq!(host_s.spread, (4.0 - 3.0) / 2.0);
    }
}
