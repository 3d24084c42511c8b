//! Differential litmus fuzzer.
//!
//! Generates small random concurrent programs, runs each under fault
//! injection ([`ChaosConfig`]) crossed with every requested
//! [`AtomicPolicy`], and checks every observed outcome against the
//! operational x86-TSO enumerator ([`crate::tsoref`]). The invariant
//! auditor runs on every cycle of every case, so a fuzzing campaign
//! simultaneously checks consistency (outcomes) and coherence/locking/
//! progress invariants (audit) — the empirical analogue of the paper's
//! §3.2.5 deadlock-avoidance argument, exercised under adversarial timing.
//!
//! Each case also samples an interconnect configuration ([`NocConfig`]):
//! the ideal fixed-latency crossbar or the contended crossbar at link
//! bandwidth 1, 2, or 4 flits/cycle. Bandwidth arbitration reorders
//! message *delivery* but never what is architecturally allowed, so TSO
//! legality and the invariant audit must hold on every sampled topology —
//! contention composing with chaos is exactly the §3.2.5 corner the
//! protocol must survive.
//!
//! Everything is seeded and deterministic: the same `FuzzConfig` replays
//! the same campaign bit-for-bit, so a reported case is a repro.

use crate::error::SimError;
use crate::litmus::{blank_image, LOp, LitmusTest};
use crate::machine::{Machine, MachineConfig};
use crate::tsoref::Explorer;
use fa_core::AtomicPolicy;
use fa_isa::interp::GuestMem;
use fa_isa::{MemOrder, Program, Word};
use fa_mem::{AuditConfig, ChaosConfig, FxHashSet, NocConfig, SplitMix64};
use fa_trace::{CheckMode, MemModel};
use std::borrow::Cow;
use std::fmt;

/// Campaign settings. Everything derives from `seed`, so a config is a
/// complete repro recipe.
#[derive(Clone, Debug)]
pub struct FuzzConfig {
    /// Number of generated programs.
    pub cases: u64,
    /// Master seed: drives program shape, start offsets, and per-case
    /// chaos seeds.
    pub seed: u64,
    /// Maximum threads per generated program (min 2).
    pub max_threads: usize,
    /// Maximum ops per thread (min 1).
    pub max_ops: usize,
    /// Distinct abstract addresses (small ⇒ more racing).
    pub max_addrs: usize,
    /// Policies every case is run under.
    pub policies: Vec<AtomicPolicy>,
    /// Fault-injection shape; its `seed` field is overridden per case.
    pub chaos: ChaosConfig,
    /// Per-run cycle budget (fault injection stretches runs).
    pub max_cycles: u64,
    /// Axiomatic conformance checking for every run (default: on — the
    /// fuzzer exists to find consistency bugs, so each execution is also
    /// validated against the full TSO + RMW-atomicity axioms, not just
    /// its final observation vector).
    pub check: CheckMode,
    /// Memory model the frontend runs under and the enumerator oracle
    /// checks against (default: TSO). Generated programs carry ordering
    /// annotations either way — under TSO they are inert.
    pub model: MemModel,
    /// Worker threads for the campaign (0 = host parallelism). Case
    /// generation stays serial (it threads one rng), so the report is
    /// bit-identical at any thread count.
    pub threads: usize,
}

impl Default for FuzzConfig {
    fn default() -> FuzzConfig {
        FuzzConfig {
            cases: 64,
            seed: 0xF1A7_F1A7_2022,
            max_threads: 3,
            max_ops: 3,
            max_addrs: 3,
            policies: AtomicPolicy::ALL.to_vec(),
            chaos: ChaosConfig::stress(0),
            max_cycles: 2_000_000,
            check: CheckMode::Tso,
            model: MemModel::Tso,
            threads: 0,
        }
    }
}

/// One failed run, with everything needed to replay it.
#[derive(Clone, Debug)]
pub struct FuzzFailure {
    /// Index of the generated case.
    pub case: u64,
    /// Policy the failing run used.
    pub policy: AtomicPolicy,
    /// The generated program.
    pub test: LitmusTest,
    /// What went wrong.
    pub kind: FailureKind,
}

/// Failure classification.
#[derive(Clone, Debug)]
pub enum FailureKind {
    /// The simulator produced an outcome the campaign model's reference
    /// enumerator cannot (named for the original TSO-only campaigns; the
    /// oracle follows [`FuzzConfig::model`]).
    TsoViolation {
        /// The forbidden observation vector.
        observed: Vec<Word>,
    },
    /// Audit violation or timeout, with full machine snapshot.
    Run(SimError),
}

impl fmt::Display for FuzzFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "case {} under {}: ", self.case, self.policy.label())?;
        match &self.kind {
            FailureKind::TsoViolation { observed } => {
                write!(f, "MODEL-FORBIDDEN outcome {observed:?} for {:?}", self.test.threads)
            }
            FailureKind::Run(e) => write!(f, "{e} (program {:?})", self.test.threads),
        }
    }
}

/// Campaign summary.
#[derive(Clone, Debug, Default)]
pub struct FuzzReport {
    /// Generated cases.
    pub cases: u64,
    /// Detailed-simulator runs (cases × policies).
    pub runs: u64,
    /// Distinct TSO-legal outcomes observed across the campaign — a
    /// coverage signal (chaos should surface many legal interleavings).
    pub distinct_outcomes: u64,
    /// Every failed run.
    pub failures: Vec<FuzzFailure>,
}

impl FuzzReport {
    /// True when the whole campaign passed.
    pub fn ok(&self) -> bool {
        self.failures.is_empty()
    }
}

impl fmt::Display for FuzzReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "fuzz: {} cases, {} runs, {} distinct legal outcomes, {} failures",
            self.cases,
            self.runs,
            self.distinct_outcomes,
            self.failures.len()
        )?;
        for fail in &self.failures {
            writeln!(f, "  {fail}")?;
        }
        Ok(())
    }
}

/// Generates one random straight-line litmus program.
///
/// Shape: 2..=`max_threads` threads, 1..=`max_ops` ops each, over
/// `max_addrs` addresses. Stores and loads dominate; fetch-adds and fences
/// are salted in. Every op draws an ordering annotation uniformly from
/// [`MemOrder::ALL`] — inert under TSO, load-bearing under the weak model.
/// Observation slots are assigned in generation order. A program with no
/// observer gets one appended — an outcome vector is the whole point.
pub fn gen_test(rng: &mut SplitMix64, cfg: &FuzzConfig) -> LitmusTest {
    let threads = 2 + rng.below(cfg.max_threads.max(2) as u64 - 1) as usize;
    let addrs = cfg.max_addrs.max(1) as u64;
    let mut out: u8 = 0;
    let mut body: Vec<Vec<LOp>> = Vec::with_capacity(threads);
    for _ in 0..threads {
        let ops = 1 + rng.below(cfg.max_ops.max(1) as u64) as usize;
        let mut tops = Vec::with_capacity(ops);
        for _ in 0..ops {
            let addr = rng.below(addrs) as u8;
            let ord = MemOrder::ALL[rng.below(MemOrder::ALL.len() as u64) as usize];
            let op = match rng.below(16) {
                0..=5 => LOp::St { addr, val: 1 + rng.below(3), ord },
                6..=11 => {
                    let o = out;
                    out += 1;
                    LOp::Ld { addr, out: o, ord }
                }
                12..=14 => {
                    let o = out;
                    out += 1;
                    LOp::FetchAdd { addr, val: 1 + rng.below(2), out: o, ord }
                }
                _ => LOp::Fence { ord },
            };
            tops.push(op);
        }
        body.push(tops);
    }
    if out == 0 {
        body[0].push(LOp::ld(0, 0));
    }
    LitmusTest { name: "fuzz", threads: body }
}

/// One pre-generated case: everything a worker needs to run it in
/// isolation. Generation is serial (the campaign threads one rng), running
/// is embarrassingly parallel.
struct FuzzCase {
    case: u64,
    test: LitmusTest,
    offsets: Vec<u64>,
    chaos_seed: u64,
    noc: NocConfig,
}

/// Serially generates the whole campaign from the master seed: program
/// shape, start offsets, per-case chaos seed, and the per-case
/// interconnect configuration (ideal, or contended at bw 1/2/4) all come
/// from the same rng stream, so the campaign is one replayable recipe.
fn gen_cases(fcfg: &FuzzConfig) -> Vec<FuzzCase> {
    let mut rng = SplitMix64::new(fcfg.seed);
    (0..fcfg.cases)
        .map(|case| {
            let test = gen_test(&mut rng, fcfg);
            let offsets: Vec<u64> =
                (0..test.threads.len()).map(|_| rng.below(120)).collect();
            let chaos_seed = rng.next_u64();
            let noc = match rng.below(4) {
                0 => NocConfig::default(),
                b => NocConfig::contended(1 << (b - 1)),
            };
            FuzzCase { case, test, offsets, chaos_seed, noc }
        })
        .collect()
}

/// What a campaign worker keeps from case to case: one machine, reset for
/// every run, the enumerator's storage, the current case's allowed
/// outcomes and the last run's observation vector.
#[derive(Default)]
struct Worker {
    machine: Machine,
    explorer: Explorer,
    allowed: FxHashSet<Vec<Word>>,
    outs: Vec<Word>,
}

impl Worker {
    /// Runs case `fc` on the machine, reset to `cfg` and the case's
    /// compiled `programs` over `blank` (a blank litmus image), and reads
    /// its observation vector into `outs`.
    fn run(
        &mut self,
        fc: &FuzzCase,
        cfg: &MachineConfig,
        programs: &[Program],
        blank: &GuestMem,
        max_cycles: u64,
    ) -> Result<(), SimError> {
        let m = &mut self.machine;
        m.reset(cfg, programs, Cow::Borrowed(blank));
        m.set_start_offsets(&fc.offsets);
        m.run_to_quiescence(max_cycles)?;
        self.outs.clear();
        self.outs.extend(fc.test.observations(m.guest_mem()));
        Ok(())
    }
}

/// Runs a differential fuzzing campaign: random programs × policies ×
/// fault injection × sampled interconnects, outcomes checked against the
/// TSO enumerator, the invariant auditor armed throughout. Never panics on a finding — every
/// failure is collected into the report with a replayable identity.
///
/// The case runs fan out across [`FuzzConfig::threads`] workers on the
/// [`crate::sweep`] engine. Each worker compiles a case once and runs all
/// its policies, and every later case, on one machine that
/// [`Machine::reset`] returns to the state a new one would have, so each
/// `(case, policy)` run is deterministic and independent; results merge
/// in case order, so the report — failures, run counts and the
/// distinct-outcome coverage set — is bit-identical to the serial
/// campaign at any thread count.
pub fn fuzz_litmus(base: &MachineConfig, fcfg: &FuzzConfig) -> FuzzReport {
    let cases = gen_cases(fcfg);
    let blank = blank_image();
    let per_case = crate::sweep::run_cells(&cases, fcfg.threads, Worker::default, |w, _, fc| {
        let test = &fc.test;
        w.explorer.outcomes(&test.threads, test.num_outs(), fcfg.model, &mut w.allowed);
        let programs = test.to_programs();
        let mut outcomes: Vec<Vec<Word>> = Vec::new();
        let mut failures = Vec::new();
        for &policy in &fcfg.policies {
            let mut cfg = base.clone().with_check(fcfg.check);
            cfg.core.policy = policy;
            cfg.core.model = fcfg.model;
            cfg.mem.chaos = ChaosConfig { seed: fc.chaos_seed, ..fcfg.chaos.clone() };
            cfg.mem.noc = fc.noc;
            cfg.mem.audit = AuditConfig::on();
            match w.run(fc, &cfg, &programs, &blank, fcfg.max_cycles) {
                Ok(()) if !w.allowed.contains(&w.outs) => failures.push(FuzzFailure {
                    case: fc.case,
                    policy,
                    test: test.clone(),
                    kind: FailureKind::TsoViolation { observed: w.outs.clone() },
                }),
                Ok(()) => {
                    if !outcomes.contains(&w.outs) {
                        outcomes.push(w.outs.clone());
                    }
                }
                Err(e) => failures.push(FuzzFailure {
                    case: fc.case,
                    policy,
                    test: test.clone(),
                    kind: FailureKind::Run(e),
                }),
            }
        }
        (outcomes, failures)
    });
    let mut report = FuzzReport::default();
    let mut outcomes = std::collections::HashSet::new();
    for (legal, failures) in per_case {
        report.cases += 1;
        report.runs += fcfg.policies.len() as u64;
        outcomes.extend(legal);
        report.failures.extend(failures);
    }
    report.distinct_outcomes = outcomes.len() as u64;
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic_and_bounded() {
        let fcfg = FuzzConfig::default();
        let mut a = SplitMix64::new(7);
        let mut b = SplitMix64::new(7);
        for _ in 0..50 {
            let ta = gen_test(&mut a, &fcfg);
            let tb = gen_test(&mut b, &fcfg);
            assert_eq!(ta.threads, tb.threads);
            assert!(ta.threads.len() >= 2 && ta.threads.len() <= fcfg.max_threads);
            for t in &ta.threads {
                assert!(t.len() <= fcfg.max_ops + 1); // +1 for the appended observer
            }
            assert!(ta.num_outs() >= 1);
        }
    }

    #[test]
    fn generation_covers_every_op_shape_and_thread_count() {
        // Coverage audit for gen_test over a 500-case campaign: every LOp
        // variant must appear, every thread count in 2..=max_threads must
        // appear, and — the historically doubted corner — a Fence must
        // appear in a thread's suffix *after* an RMW, since that is
        // exactly the redundant-ordering shape (RMW already fences) a
        // generation bug would silently stop exercising.
        let fcfg = FuzzConfig { cases: 500, ..FuzzConfig::default() };
        let cases = gen_cases(&fcfg);
        assert_eq!(cases.len(), 500);
        let mut st = 0u32;
        let mut ld = 0u32;
        let mut rmw = 0u32;
        let mut fence = 0u32;
        let mut fence_after_rmw = 0u32;
        let mut thread_counts = std::collections::HashSet::new();
        for fc in &cases {
            thread_counts.insert(fc.test.threads.len());
            for t in &fc.test.threads {
                let mut seen_rmw = false;
                for op in t {
                    match op {
                        LOp::St { .. } => st += 1,
                        LOp::Ld { .. } => ld += 1,
                        LOp::FetchAdd { .. } => {
                            rmw += 1;
                            seen_rmw = true;
                        }
                        LOp::Fence { .. } => {
                            fence += 1;
                            if seen_rmw {
                                fence_after_rmw += 1;
                            }
                        }
                    }
                }
            }
        }
        assert!(st > 0 && ld > 0 && rmw > 0 && fence > 0, "St {st}, Ld {ld}, FetchAdd {rmw}, Fence {fence}");
        assert!(
            fence_after_rmw > 0,
            "campaign must generate Fence po-after an RMW in some thread"
        );
        for n in 2..=fcfg.max_threads {
            assert!(thread_counts.contains(&n), "thread count {n} never generated");
        }
    }

    #[test]
    fn generation_covers_every_ordering_times_op_shape() {
        // Every MemOrder × op-shape pair must appear across a 500-case
        // campaign — the weak-model fuzzer is only as good as the
        // annotation coverage it generates.
        let fcfg = FuzzConfig { cases: 500, ..FuzzConfig::default() };
        let cases = gen_cases(&fcfg);
        let mut seen = std::collections::HashSet::new();
        for fc in &cases {
            for t in &fc.test.threads {
                for op in t {
                    let (shape, ord) = match *op {
                        LOp::St { ord, .. } => ("st", ord),
                        LOp::Ld { ord, .. } => ("ld", ord),
                        LOp::FetchAdd { ord, .. } => ("rmw", ord),
                        LOp::Fence { ord } => ("fence", ord),
                    };
                    seen.insert((shape, ord));
                }
            }
        }
        for shape in ["st", "ld", "rmw", "fence"] {
            for ord in MemOrder::ALL {
                assert!(
                    seen.contains(&(shape, ord)),
                    "{shape}.{ord} never generated in 500 cases"
                );
            }
        }
    }

    /// FNV-1a over each program's sorted outcome vectors, chained in
    /// program order — independent of `HashSet` iteration order.
    fn outcome_digest(tests: &[LitmusTest], model: MemModel) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut eat = |w: u64| {
            for b in w.to_le_bytes() {
                h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
            }
        };
        for t in tests {
            let mut outs: Vec<Vec<Word>> = t.allowed_outcomes_under(model).into_iter().collect();
            outs.sort();
            eat(outs.len() as u64);
            for o in outs {
                eat(o.len() as u64);
                o.into_iter().for_each(&mut eat);
            }
        }
        h
    }

    #[test]
    fn reference_outcome_sets_are_pinned() {
        // Computed with the two separate TSO / weak enumerators this
        // crate had before `tsoref::enumerate` replaced them: the merged
        // machine is held to their answers on the 35 hand-written tests
        // and on 4 400 generated programs (3×3 at two seeds, 4×4 at one).
        let mut gallery = LitmusTest::all();
        gallery.extend(LitmusTest::weak_gallery());
        for stripped in [false, true] {
            gallery.extend([
                LitmusTest::memlog_fence_atomic_acq_op(stripped),
                LitmusTest::memlog_atomic_fence_acq_fence(stripped),
                LitmusTest::memlog_fence_atomic_chain(stripped),
                LitmusTest::memlog_sb_sc_fence(stripped),
                LitmusTest::memlog_sb_sc_store(stripped),
                LitmusTest::memlog_mp_release_store(stripped),
            ]);
        }
        assert_eq!(gallery.len(), 35);
        let mut generated = Vec::new();
        for (seed, cases, shape) in [(1, 2000, 3), (103, 2000, 3), (7, 400, 4)] {
            let fcfg = FuzzConfig {
                cases,
                seed,
                max_threads: shape,
                max_ops: shape,
                ..FuzzConfig::default()
            };
            generated.extend(gen_cases(&fcfg).into_iter().map(|fc| fc.test));
        }
        let got = [&gallery, &generated]
            .map(|tests| [MemModel::Tso, MemModel::Weak].map(|m| outcome_digest(tests, m)));
        let pinned: [[u64; 2]; 2] = [
            [0x6de7_5efe_97b2_b16f, 0x3135_89a8_3655_523f],
            [0x728a_3b69_ec8a_51c2, 0x9307_83f2_a779_14b0],
        ];
        assert_eq!(got, pinned, "[gallery, generated] x [tso, weak]: {got:#x?}");
    }

    #[test]
    fn small_campaign_is_clean_and_deterministic() {
        let base = crate::presets::tiny_machine();
        let fcfg = FuzzConfig {
            cases: 12,
            policies: vec![AtomicPolicy::FencedBaseline, AtomicPolicy::FreeFwd],
            ..FuzzConfig::default()
        };
        let r1 = fuzz_litmus(&base, &fcfg);
        let r2 = fuzz_litmus(&base, &fcfg);
        assert!(r1.ok(), "{r1}");
        assert_eq!(r1.runs, 24);
        assert_eq!(r1.distinct_outcomes, r2.distinct_outcomes);
        assert_eq!(r1.runs, r2.runs);
    }

    #[test]
    fn small_weak_campaign_is_clean() {
        // Same seed, weak model: the frontend relaxations must stay
        // inside the weak enumerator's outcome set under chaos + NoC
        // sampling, with the weak axiomatic checker armed.
        let base = crate::presets::tiny_machine();
        let fcfg = FuzzConfig {
            cases: 12,
            model: MemModel::Weak,
            policies: vec![AtomicPolicy::FencedBaseline, AtomicPolicy::FreeFwd],
            ..FuzzConfig::default()
        };
        let r = fuzz_litmus(&base, &fcfg);
        assert!(r.ok(), "{r}");
        assert_eq!(r.runs, 24);
    }

    #[test]
    fn cases_sample_every_interconnect_point() {
        use fa_mem::XbarPolicy;
        let fcfg = FuzzConfig { cases: 64, ..FuzzConfig::default() };
        let cases = gen_cases(&fcfg);
        let again = gen_cases(&fcfg);
        for (a, b) in cases.iter().zip(&again) {
            assert_eq!(a.noc, b.noc, "noc sampling must be deterministic");
            assert_eq!(a.chaos_seed, b.chaos_seed);
        }
        let mut ideal = 0;
        let mut bws = std::collections::HashSet::new();
        for fc in &cases {
            match fc.noc.policy {
                XbarPolicy::Ideal => ideal += 1,
                XbarPolicy::Contended => {
                    assert!(matches!(fc.noc.link_bw, 1 | 2 | 4));
                    bws.insert(fc.noc.link_bw);
                }
            }
        }
        assert!(ideal > 0, "campaign must keep exercising the ideal crossbar");
        assert_eq!(bws.len(), 3, "campaign must hit bw 1, 2 and 4");
    }

    #[test]
    fn parallel_campaign_matches_serial_report() {
        let base = crate::presets::tiny_machine();
        let serial = FuzzConfig {
            cases: 10,
            threads: 1,
            policies: vec![AtomicPolicy::FencedBaseline, AtomicPolicy::FreeFwd],
            ..FuzzConfig::default()
        };
        let parallel = FuzzConfig { threads: 4, ..serial.clone() };
        let rs = fuzz_litmus(&base, &serial);
        let rp = fuzz_litmus(&base, &parallel);
        assert_eq!(rs.cases, rp.cases);
        assert_eq!(rs.runs, rp.runs);
        assert_eq!(rs.distinct_outcomes, rp.distinct_outcomes);
        assert_eq!(rs.to_string(), rp.to_string(), "reports must be bit-identical");
    }
}
