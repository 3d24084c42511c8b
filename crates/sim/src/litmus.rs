//! Litmus-test harness: run small concurrent shapes on the detailed
//! simulator and check every observed outcome against the matching
//! operational reference enumerator (x86-TSO or the ARM-like weak
//! baseline).

use crate::error::SimError;
use crate::machine::{Machine, MachineConfig};
use fa_core::AtomicPolicy;
use fa_isa::interp::GuestMem;
use fa_isa::{Kasm, MemOrder, Program, Reg, RmwOp, Word};
use fa_trace::MemModel;
use std::collections::HashSet;

pub use crate::tsoref::LOp;

/// A named litmus test: one op list per thread.
#[derive(Clone, Debug)]
pub struct LitmusTest {
    /// Human-readable name.
    pub name: &'static str,
    /// Per-thread straight-line programs.
    pub threads: Vec<Vec<LOp>>,
}

/// Base guest address of abstract location `a` (one cache line apart).
pub(crate) fn loc(a: u8) -> u64 {
    0x1000 + (a as u64) * 64
}

/// Base guest address of observation slot `s`.
fn out_slot(s: u8) -> i64 {
    0x4000 + (s as i64) * 64
}

const LITMUS_MEM: u64 = 1 << 16;

/// The guest image every litmus run starts from: zeroed, unpaged.
pub(crate) fn blank_image() -> GuestMem {
    GuestMem::new(LITMUS_MEM)
}

impl LitmusTest {
    /// Number of observation slots used.
    pub fn num_outs(&self) -> usize {
        self.threads
            .iter()
            .flatten()
            .filter_map(|op| match op {
                LOp::Ld { out, .. } | LOp::FetchAdd { out, .. } => Some(*out as usize + 1),
                _ => None,
            })
            .max()
            .unwrap_or(0)
    }

    /// Compiles each thread to a guest program, preserving the ordering
    /// annotations via the annotated `Kasm` emitters.
    pub fn to_programs(&self) -> Vec<Program> {
        self.threads
            .iter()
            .map(|ops| {
                let mut k = Kasm::new();
                for op in ops {
                    match *op {
                        LOp::St { addr, val, ord } => {
                            k.li(Reg::R1, loc(addr) as i64);
                            k.li(Reg::R2, val as i64);
                            k.st_ord(Reg::R2, Reg::R1, 0, ord);
                        }
                        LOp::Ld { addr, out, ord } => {
                            k.li(Reg::R1, loc(addr) as i64);
                            k.ld_ord(Reg::R2, Reg::R1, 0, ord);
                            k.li(Reg::R3, out_slot(out));
                            k.st(Reg::R2, Reg::R3, 0);
                        }
                        LOp::FetchAdd { addr, val, out, ord } => {
                            k.li(Reg::R1, loc(addr) as i64);
                            k.li(Reg::R2, val as i64);
                            k.rmw_ord(RmwOp::FetchAdd, Reg::R3, Reg::R1, 0, Reg::R2, ord);
                            k.li(Reg::R4, out_slot(out));
                            k.st(Reg::R3, Reg::R4, 0);
                        }
                        LOp::Fence { ord } => {
                            k.fence_ord(ord);
                        }
                    }
                }
                k.halt();
                k.finish().expect("litmus programs are straight-line and valid")
            })
            .collect()
    }

    /// All outcomes the x86-TSO reference model allows.
    pub fn allowed_outcomes(&self) -> HashSet<Vec<Word>> {
        self.allowed_outcomes_under(MemModel::Tso)
    }

    /// All outcomes the given memory model's reference enumerator allows.
    pub fn allowed_outcomes_under(&self, model: MemModel) -> HashSet<Vec<Word>> {
        crate::tsoref::enumerate(&self.threads, self.num_outs(), model)
    }

    /// Runs the test once on the detailed simulator and returns the
    /// observation vector.
    ///
    /// # Panics
    ///
    /// Panics if the machine fails to quiesce (forward-progress bug).
    pub fn run_detailed(
        &self,
        cfg: &MachineConfig,
        offsets: &[u64],
    ) -> Vec<Word> {
        self.run_checked(cfg, offsets, 5_000_000)
            .unwrap_or_else(|e| panic!("litmus {}: {e}", self.name))
    }

    /// Like [`run_detailed`](Self::run_detailed) but returns the failure
    /// (timeout or audit violation) instead of panicking — the entry point
    /// used by the differential fuzzer, which must keep going and report.
    ///
    /// # Errors
    ///
    /// Any [`SimError`] raised by the run.
    pub fn run_checked(
        &self,
        cfg: &MachineConfig,
        offsets: &[u64],
        max_cycles: u64,
    ) -> Result<Vec<Word>, SimError> {
        let mut m = Machine::new(cfg.clone(), self.to_programs(), blank_image());
        if !offsets.is_empty() {
            let mut o = offsets.to_vec();
            o.resize(self.threads.len(), 0);
            m.set_start_offsets(o);
        }
        m.run(max_cycles)?;
        Ok(self.observations(m.guest_mem()).collect())
    }

    /// The observation slots' values in `mem`, in slot order.
    pub(crate) fn observations<'a>(&self, mem: &'a GuestMem) -> impl Iterator<Item = Word> + 'a {
        (0..self.num_outs()).map(|s| mem.load(out_slot(s as u8) as u64))
    }

    /// Runs under `policy` with a spread of start offsets and asserts every
    /// observed outcome is TSO-allowed. Returns the set of observed
    /// outcomes (useful to additionally assert coverage).
    ///
    /// # Panics
    ///
    /// Panics on any TSO-forbidden observation — the core soundness check
    /// of this reproduction.
    pub fn verify_under(
        &self,
        base: &MachineConfig,
        policy: AtomicPolicy,
        offset_sets: &[&[u64]],
    ) -> HashSet<Vec<Word>> {
        self.verify_under_model(base, policy, MemModel::Tso, offset_sets)
    }

    /// Like [`verify_under`](Self::verify_under) but runs the core frontend
    /// under `model` and checks against that model's enumerator.
    ///
    /// # Panics
    ///
    /// Panics on any model-forbidden observation.
    pub fn verify_under_model(
        &self,
        base: &MachineConfig,
        policy: AtomicPolicy,
        model: MemModel,
        offset_sets: &[&[u64]],
    ) -> HashSet<Vec<Word>> {
        let allowed = self.allowed_outcomes_under(model);
        let mut cfg = base.clone();
        cfg.core.policy = policy;
        cfg.core.model = model;
        let mut observed = HashSet::new();
        for offs in offset_sets {
            let got = self.run_detailed(&cfg, offs);
            assert!(
                allowed.contains(&got),
                "litmus {}: outcome {:?} observed under {:?}/{} (offsets {:?}) is FORBIDDEN \
                 by the {} reference model; allowed: {:?}",
                self.name,
                got,
                policy,
                model.name(),
                offs,
                model.name(),
                allowed
            );
            observed.insert(got);
        }
        observed
    }

    // ---- The standard menagerie -------------------------------------

    /// Store buffering (Dekker) — `0,0` allowed without fences.
    pub fn sb() -> LitmusTest {
        LitmusTest {
            name: "SB",
            threads: vec![
                vec![LOp::st(0, 1), LOp::ld(1, 0)],
                vec![LOp::st(1, 1), LOp::ld(0, 1)],
            ],
        }
    }

    /// Store buffering with MFENCE — `0,0` forbidden.
    pub fn sb_fences() -> LitmusTest {
        LitmusTest {
            name: "SB+mfence",
            threads: vec![
                vec![LOp::st(0, 1), LOp::fence(), LOp::ld(1, 0)],
                vec![LOp::st(1, 1), LOp::fence(), LOp::ld(0, 1)],
            ],
        }
    }

    /// The paper's Figure 10: Dekker with atomic RMWs to unrelated
    /// addresses as the fences — `0,0` forbidden by type-1 atomicity.
    pub fn sb_rmws() -> LitmusTest {
        LitmusTest {
            name: "SB+rmw (paper Fig. 10)",
            threads: vec![
                vec![LOp::st(0, 1), LOp::fadd(2, 1, 2), LOp::ld(1, 0)],
                vec![LOp::st(1, 1), LOp::fadd(3, 1, 3), LOp::ld(0, 1)],
            ],
        }
    }

    /// Message passing: flag observed ⇒ data observed.
    pub fn mp() -> LitmusTest {
        LitmusTest {
            name: "MP",
            threads: vec![
                vec![LOp::st(0, 42), LOp::st(1, 1)],
                vec![LOp::ld(1, 0), LOp::ld(0, 1)],
            ],
        }
    }

    /// Load buffering shape — `1,1` forbidden under TSO (no load→store
    /// reordering).
    pub fn lb() -> LitmusTest {
        LitmusTest {
            name: "LB",
            threads: vec![
                vec![LOp::ld(0, 0), LOp::st(1, 1)],
                vec![LOp::ld(1, 1), LOp::st(0, 1)],
            ],
        }
    }

    /// Two RMWs racing on one location: strict serialization.
    pub fn rmw_race() -> LitmusTest {
        LitmusTest {
            name: "RMW-race",
            threads: vec![vec![LOp::fadd(0, 1, 0)], vec![LOp::fadd(0, 1, 1)]],
        }
    }

    /// Independent reads of independent writes (IRIW) with fences. TSO is
    /// multi-copy atomic, so the two readers must agree on the order.
    pub fn iriw_fences() -> LitmusTest {
        LitmusTest {
            name: "IRIW+mfence",
            threads: vec![
                vec![LOp::st(0, 1)],
                vec![LOp::st(1, 1)],
                vec![LOp::ld(0, 0), LOp::fence(), LOp::ld(1, 1)],
                vec![LOp::ld(1, 2), LOp::fence(), LOp::ld(0, 3)],
            ],
        }
    }

    /// Write-to-read causality (WRC): T0 writes, T1 observes and writes a
    /// flag, T2 observes the flag — it must then observe T0's write
    /// (TSO is multi-copy atomic).
    pub fn wrc() -> LitmusTest {
        LitmusTest {
            name: "WRC",
            threads: vec![
                vec![LOp::st(0, 1)],
                vec![LOp::ld(0, 0), LOp::fence(), LOp::st(1, 1)],
                vec![LOp::ld(1, 1), LOp::fence(), LOp::ld(0, 2)],
            ],
        }
    }

    /// Coherence read-read (CoRR): two loads of one location in program
    /// order may never observe writes out of coherence order.
    pub fn corr() -> LitmusTest {
        LitmusTest {
            name: "CoRR",
            threads: vec![
                vec![LOp::st(0, 1)],
                vec![LOp::ld(0, 0), LOp::ld(0, 1)],
            ],
        }
    }

    /// RMW-vs-store coherence: a store racing a fetch-add on the same
    /// location; the RMW's read and write must be adjacent in coherence
    /// order (no store may slip between them).
    pub fn rmw_store_race() -> LitmusTest {
        LitmusTest {
            name: "RMW-store-race",
            threads: vec![
                vec![LOp::st(0, 10)],
                vec![LOp::fadd(0, 1, 0), LOp::ld(0, 1)],
            ],
        }
    }

    // ---- The classic gallery (Alglave et al. naming) ----------------

    /// IRIW without fences. TSO keeps loads in order and stores
    /// multi-copy atomic, so the readers must agree on the writes' order
    /// even unfenced — `1,0,1,0` stays forbidden.
    pub fn iriw() -> LitmusTest {
        LitmusTest {
            name: "IRIW",
            threads: vec![
                vec![LOp::st(0, 1)],
                vec![LOp::st(1, 1)],
                vec![LOp::ld(0, 0), LOp::ld(1, 1)],
                vec![LOp::ld(1, 2), LOp::ld(0, 3)],
            ],
        }
    }

    /// WRC with the fences replaced by atomic RMWs to unrelated lines —
    /// the paper's claim that an RMW orders like a fence, in a causality
    /// chain.
    pub fn wrc_rmw() -> LitmusTest {
        LitmusTest {
            name: "WRC+rmw",
            threads: vec![
                vec![LOp::st(0, 1)],
                vec![LOp::ld(0, 0), LOp::fadd(2, 1, 3), LOp::st(1, 1)],
                vec![LOp::ld(1, 1), LOp::fadd(3, 1, 4), LOp::ld(0, 2)],
            ],
        }
    }

    /// Read-to-write causality (RWC): a reader between a write and a
    /// fenced writer-reader — `1,0,0` forbidden.
    pub fn rwc() -> LitmusTest {
        LitmusTest {
            name: "RWC",
            threads: vec![
                vec![LOp::st(0, 1)],
                vec![LOp::ld(0, 0), LOp::ld(1, 1)],
                vec![LOp::st(1, 1), LOp::fence(), LOp::ld(0, 2)],
            ],
        }
    }

    /// RWC with the fence replaced by an atomic RMW to an unrelated line.
    pub fn rwc_rmw() -> LitmusTest {
        LitmusTest {
            name: "RWC+rmw",
            threads: vec![
                vec![LOp::st(0, 1)],
                vec![LOp::ld(0, 0), LOp::ld(1, 1)],
                vec![LOp::st(1, 1), LOp::fadd(2, 1, 3), LOp::ld(0, 2)],
            ],
        }
    }

    /// Test R: write-write vs fenced write-read. The interesting forbidden
    /// outcome involves the *final* coherence order of `y`, which the
    /// axiomatic checker validates directly from the serialization log
    /// even though the architectural observation (`out0`) cannot see it.
    pub fn r() -> LitmusTest {
        LitmusTest {
            name: "R",
            threads: vec![
                vec![LOp::st(0, 1), LOp::st(1, 1)],
                vec![LOp::st(1, 2), LOp::fence(), LOp::ld(0, 0)],
            ],
        }
    }

    /// Test S: write-write vs read-write. Like [`R`](Self::r), the
    /// forbidden shape is a co ∪ po cycle that the axiomatic checker
    /// observes via the serialization log.
    pub fn s() -> LitmusTest {
        LitmusTest {
            name: "S",
            threads: vec![
                vec![LOp::st(0, 2), LOp::st(1, 1)],
                vec![LOp::ld(1, 0), LOp::st(0, 1)],
            ],
        }
    }

    /// 2+2W: two threads writing the same two locations in opposite
    /// orders, plus an observer. The co ∪ po-ww cycle (`x` and `y` both
    /// finally holding the *first* writes) is forbidden under TSO and
    /// caught by the checker from the serialization log.
    pub fn two_plus_two_w() -> LitmusTest {
        LitmusTest {
            name: "2+2W",
            threads: vec![
                vec![LOp::st(0, 1), LOp::st(1, 2)],
                vec![LOp::st(1, 1), LOp::st(0, 2)],
                vec![LOp::ld(0, 0), LOp::ld(1, 1)],
            ],
        }
    }

    /// SB with an atomic RMW replacing exactly one of the two fences —
    /// the mixed variant of the paper's Figure 10; `0,0` still forbidden.
    pub fn sb_rmw_mixed() -> LitmusTest {
        LitmusTest {
            name: "SB+rmw+mfence",
            threads: vec![
                vec![LOp::st(0, 1), LOp::fadd(2, 1, 2), LOp::ld(1, 0)],
                vec![LOp::st(1, 1), LOp::fence(), LOp::ld(0, 1)],
            ],
        }
    }

    /// Every test in the menagerie.
    pub fn all() -> Vec<LitmusTest> {
        vec![
            LitmusTest::sb(),
            LitmusTest::sb_fences(),
            LitmusTest::sb_rmws(),
            LitmusTest::mp(),
            LitmusTest::lb(),
            LitmusTest::rmw_race(),
            LitmusTest::iriw_fences(),
            LitmusTest::wrc(),
            LitmusTest::corr(),
            LitmusTest::rmw_store_race(),
            LitmusTest::iriw(),
            LitmusTest::wrc_rmw(),
            LitmusTest::rwc(),
            LitmusTest::rwc_rmw(),
            LitmusTest::r(),
            LitmusTest::s(),
            LitmusTest::two_plus_two_w(),
            LitmusTest::sb_rmw_mixed(),
        ]
    }

    // ---- The weak-model gallery -------------------------------------
    //
    // Ordering-annotated variants of the classics. Under TSO every
    // annotation is inert; under the weak model the stale-data/reorder
    // outcomes appear exactly when the acquire-side synchronization is
    // missing.

    /// MP with an acquire flag read — stale data forbidden under weak.
    /// The writer stays fully relaxed: the FIFO store buffer makes
    /// release stores architecturally free.
    pub fn mp_acq() -> LitmusTest {
        LitmusTest {
            name: "MP+acq",
            threads: vec![
                vec![LOp::st(0, 42), LOp::st(1, 1)],
                vec![LOp::ld_ord(1, 0, MemOrder::Acquire), LOp::ld(0, 1)],
            ],
        }
    }

    /// MP with a release-annotated flag store *and* an acquire flag read —
    /// the canonical C++ handoff, forbidden under both models.
    pub fn mp_rel_acq() -> LitmusTest {
        LitmusTest {
            name: "MP+rel+acq",
            threads: vec![
                vec![LOp::st(0, 42), LOp::st_ord(1, 1, MemOrder::Release)],
                vec![LOp::ld_ord(1, 0, MemOrder::Acquire), LOp::ld(0, 1)],
            ],
        }
    }

    /// SB with SC-annotated stores and no fences — `0,0` forbidden under
    /// both models (the annotation alone blocks younger loads).
    pub fn sb_sc_stores() -> LitmusTest {
        LitmusTest {
            name: "SB+sc-st",
            threads: vec![
                vec![LOp::st_ord(0, 1, MemOrder::SeqCst), LOp::ld(1, 0)],
                vec![LOp::st_ord(1, 1, MemOrder::SeqCst), LOp::ld(0, 1)],
            ],
        }
    }

    /// SB with acquire fences — too weak to forbid `0,0` under the weak
    /// model (no store-buffer drain), but TSO drains on every fence.
    pub fn sb_acq_fences() -> LitmusTest {
        LitmusTest {
            name: "SB+acq-fence",
            threads: vec![
                vec![LOp::st(0, 1), LOp::fence_ord(MemOrder::Acquire), LOp::ld(1, 0)],
                vec![LOp::st(1, 1), LOp::fence_ord(MemOrder::Acquire), LOp::ld(0, 1)],
            ],
        }
    }

    /// IRIW with acquire readers — our weak baseline is multi-copy atomic
    /// (single shared memory), so the readers still agree on the order.
    pub fn iriw_acq() -> LitmusTest {
        LitmusTest {
            name: "IRIW+acq",
            threads: vec![
                vec![LOp::st(0, 1)],
                vec![LOp::st(1, 1)],
                vec![LOp::ld_ord(0, 0, MemOrder::Acquire), LOp::ld_ord(1, 1, MemOrder::Acquire)],
                vec![LOp::ld_ord(1, 2, MemOrder::Acquire), LOp::ld_ord(0, 3, MemOrder::Acquire)],
            ],
        }
    }

    /// Every weak-gallery test.
    pub fn weak_gallery() -> Vec<LitmusTest> {
        vec![
            LitmusTest::mp_acq(),
            LitmusTest::mp_rel_acq(),
            LitmusTest::sb_sc_stores(),
            LitmusTest::sb_acq_fences(),
            LitmusTest::iriw_acq(),
        ]
    }

    // ---- The memlog-ported synchronization family --------------------
    //
    // Ported from temper's memlog fence-atomic / atomic-fence suites:
    // each shape pairs a *synchronizing* element on the writer side (a
    // release fence before the flag store) with one on the reader side
    // (an acquire load or an acquire fence). `stripped` removes the
    // reader-side acquire — the observable half: stripping the *release*
    // side alone is unobservable in this frontend because the FIFO store
    // buffer keeps W→W regardless (asserted as a documented invariant by
    // the conformance suite).

    /// memlog `fence_atomic` + acquire-op reader: writer `st data;
    /// fence.rel; st flag`, reader `ld.acq flag; ld data`.
    pub fn memlog_fence_atomic_acq_op(stripped: bool) -> LitmusTest {
        LitmusTest {
            name: if stripped { "memlog-fence-atomic-acq-op-stripped" } else { "memlog-fence-atomic-acq-op" },
            threads: vec![
                vec![LOp::st(0, 42), LOp::fence_ord(MemOrder::Release), LOp::st(1, 1)],
                vec![
                    if stripped { LOp::ld(1, 0) } else { LOp::ld_ord(1, 0, MemOrder::Acquire) },
                    LOp::ld(0, 1),
                ],
            ],
        }
    }

    /// memlog `atomic_fence` reader: writer as above, reader `ld flag;
    /// fence.acq; ld data`. `stripped` removes the acquire fence.
    pub fn memlog_atomic_fence_acq_fence(stripped: bool) -> LitmusTest {
        let mut reader = vec![LOp::ld(1, 0)];
        if !stripped {
            reader.push(LOp::fence_ord(MemOrder::Acquire));
        }
        reader.push(LOp::ld(0, 1));
        LitmusTest {
            name: if stripped { "memlog-atomic-fence-stripped" } else { "memlog-atomic-fence" },
            threads: vec![
                vec![LOp::st(0, 42), LOp::fence_ord(MemOrder::Release), LOp::st(1, 1)],
                reader,
            ],
        }
    }

    /// memlog release-chain: a three-thread handoff where the middle
    /// thread republishes under its own release fence. `stripped` removes
    /// both acquire sides.
    pub fn memlog_fence_atomic_chain(stripped: bool) -> LitmusTest {
        let acq = |addr: u8, out: u8| {
            if stripped { LOp::ld(addr, out) } else { LOp::ld_ord(addr, out, MemOrder::Acquire) }
        };
        LitmusTest {
            name: if stripped { "memlog-fence-atomic-chain-stripped" } else { "memlog-fence-atomic-chain" },
            threads: vec![
                vec![LOp::st(0, 42), LOp::fence_ord(MemOrder::Release), LOp::st(1, 1)],
                vec![acq(1, 0), LOp::fence_ord(MemOrder::Release), LOp::st(2, 1)],
                vec![acq(2, 1), LOp::ld(0, 2)],
            ],
        }
    }

    /// memlog SC-fence Dekker: `stripped` removes both fences, exposing
    /// the `0,0` outcome under both models.
    pub fn memlog_sb_sc_fence(stripped: bool) -> LitmusTest {
        if stripped {
            LitmusTest { name: "memlog-sb-sc-fence-stripped", ..LitmusTest::sb() }
        } else {
            LitmusTest { name: "memlog-sb-sc-fence", ..LitmusTest::sb_fences() }
        }
    }

    /// memlog SC-store Dekker: `stripped` relaxes the store annotations.
    pub fn memlog_sb_sc_store(stripped: bool) -> LitmusTest {
        if stripped {
            LitmusTest { name: "memlog-sb-sc-store-stripped", ..LitmusTest::sb() }
        } else {
            LitmusTest { name: "memlog-sb-sc-store", ..LitmusTest::sb_sc_stores() }
        }
    }

    /// memlog release-store handoff: writer `st data; st.rel flag`,
    /// reader acquire. `stripped` relaxes the *release* annotation only —
    /// the documented always-passes case (FIFO store buffer).
    pub fn memlog_mp_release_store(stripped: bool) -> LitmusTest {
        LitmusTest {
            name: if stripped { "memlog-mp-release-store-stripped" } else { "memlog-mp-release-store" },
            threads: vec![
                vec![
                    LOp::st(0, 42),
                    if stripped { LOp::st(1, 1) } else { LOp::st_ord(1, 1, MemOrder::Release) },
                ],
                vec![LOp::ld_ord(1, 0, MemOrder::Acquire), LOp::ld(0, 1)],
            ],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compilation_round_trip() {
        let t = LitmusTest::sb_rmws();
        assert_eq!(t.num_outs(), 4);
        let progs = t.to_programs();
        assert_eq!(progs.len(), 2);
        assert!(progs[0].len() > 4);
    }

    #[test]
    fn allowed_outcomes_match_reference_expectations() {
        assert!(LitmusTest::sb().allowed_outcomes().contains(&vec![0, 0]));
        assert!(!LitmusTest::sb_fences().allowed_outcomes().contains(&vec![0, 0]));
        let rmw = LitmusTest::sb_rmws().allowed_outcomes();
        assert!(!rmw.iter().any(|o| o[0] == 0 && o[1] == 0));
        // LB: 1,1 forbidden.
        assert!(!LitmusTest::lb().allowed_outcomes().contains(&vec![1, 1]));
    }

    #[test]
    fn new_shapes_have_expected_reference_outcomes() {
        // CoRR: out0=1, out1=0 (new-then-old) is coherence-forbidden.
        assert!(!LitmusTest::corr().allowed_outcomes().contains(&vec![1, 0]));
        // WRC: flag seen (out1=1) with cause chain (out0=1) forces out2=1.
        assert!(!LitmusTest::wrc()
            .allowed_outcomes()
            .iter()
            .any(|o| o[0] == 1 && o[1] == 1 && o[2] == 0));
        // RMW-store-race: the trailing load in the RMW's thread may never
        // observe a value older than the RMW's own write. If the RMW read 0
        // its write was 1; later writes (10) or their combination (11) are
        // fine, but the original 0 may never reappear.
        for o in LitmusTest::rmw_store_race().allowed_outcomes() {
            if o[0] == 0 {
                assert!(o[1] != 0, "{o:?}");
            }
        }
    }

    #[test]
    fn gallery_shapes_have_expected_reference_outcomes() {
        // IRIW unfenced: the readers may never disagree on the order of
        // the two independent writes (TSO is multi-copy atomic and loads
        // stay in program order).
        assert!(!LitmusTest::iriw().allowed_outcomes().contains(&vec![1, 0, 1, 0]));
        // RWC: seeing x=1 then missing y while the fenced writer misses x
        // is forbidden; the RMW variant forbids the same shape.
        assert!(!LitmusTest::rwc()
            .allowed_outcomes()
            .iter()
            .any(|o| o[0] == 1 && o[1] == 0 && o[2] == 0));
        assert!(!LitmusTest::rwc_rmw()
            .allowed_outcomes()
            .iter()
            .any(|o| o[0] == 1 && o[1] == 0 && o[2] == 0));
        // WRC+rmw: causality chain intact with RMWs as the fences.
        assert!(!LitmusTest::wrc_rmw()
            .allowed_outcomes()
            .iter()
            .any(|o| o[0] == 1 && o[1] == 1 && o[2] == 0));
        // SB with one RMW + one fence: 0,0 forbidden.
        assert!(!LitmusTest::sb_rmw_mixed()
            .allowed_outcomes()
            .iter()
            .any(|o| o[0] == 0 && o[1] == 0));
        // 2+2W observer: both locations finally holding the po-first
        // writes implies a co ∪ po-ww cycle — the observer may see the
        // transient 1,2 / 2,1 / etc., but the enumerator's outcomes must
        // all be reachable (sanity: set is non-empty and values bounded).
        let w22 = LitmusTest::two_plus_two_w().allowed_outcomes();
        assert!(!w22.is_empty());
        assert!(w22.iter().all(|o| o.iter().all(|&v| v <= 2)));
        // R and S compile and enumerate (their forbidden shapes live in
        // co, validated by the axiomatic checker, not in out-slots).
        assert_eq!(LitmusTest::r().num_outs(), 1);
        assert_eq!(LitmusTest::s().num_outs(), 1);
    }

    #[test]
    fn weak_gallery_reference_expectations() {
        use MemModel::{Tso, Weak};
        // Plain MP: stale data appears only under weak.
        let mp = LitmusTest::mp();
        assert!(!mp.allowed_outcomes_under(Tso).contains(&vec![1, 0]));
        assert!(mp.allowed_outcomes_under(Weak).contains(&vec![1, 0]));
        // Acquire flag read forbids it again (and is inert under TSO).
        for t in [LitmusTest::mp_acq(), LitmusTest::mp_rel_acq()] {
            assert!(!t.allowed_outcomes_under(Weak).contains(&vec![1, 0]), "{}", t.name);
            assert_eq!(
                t.allowed_outcomes_under(Tso),
                mp.allowed_outcomes_under(Tso),
                "{}: annotations must be inert under TSO",
                t.name
            );
        }
        // SC stores forbid SB's 0,0 under weak, but under TSO the store
        // annotation is inert and W->R stays TSO's defining relaxation.
        assert!(!LitmusTest::sb_sc_stores().allowed_outcomes_under(Weak).contains(&vec![0, 0]));
        assert!(LitmusTest::sb_sc_stores().allowed_outcomes_under(Tso).contains(&vec![0, 0]));
        assert!(LitmusTest::sb_acq_fences().allowed_outcomes_under(Weak).contains(&vec![0, 0]));
        assert!(!LitmusTest::sb_acq_fences().allowed_outcomes_under(Tso).contains(&vec![0, 0]));
        // IRIW with acquires: still multi-copy atomic.
        assert!(!LitmusTest::iriw_acq()
            .allowed_outcomes_under(Weak)
            .contains(&vec![1, 0, 1, 0]));
    }

    #[test]
    fn memlog_family_reference_expectations() {
        use MemModel::Weak;
        // Fenced variants forbid the stale outcome; stripping the
        // reader-side acquire exposes it.
        for (fenced, stripped) in [
            (
                LitmusTest::memlog_fence_atomic_acq_op(false),
                LitmusTest::memlog_fence_atomic_acq_op(true),
            ),
            (
                LitmusTest::memlog_atomic_fence_acq_fence(false),
                LitmusTest::memlog_atomic_fence_acq_fence(true),
            ),
        ] {
            assert!(!fenced.allowed_outcomes_under(Weak).contains(&vec![1, 0]), "{}", fenced.name);
            assert!(stripped.allowed_outcomes_under(Weak).contains(&vec![1, 0]), "{}", stripped.name);
        }
        // Chain: both-flags-seen with stale data forbidden when fenced.
        let chain = LitmusTest::memlog_fence_atomic_chain(false);
        assert!(!chain
            .allowed_outcomes_under(Weak)
            .iter()
            .any(|o| o[0] == 1 && o[1] == 1 && o[2] == 0));
        let chain_stripped = LitmusTest::memlog_fence_atomic_chain(true);
        assert!(chain_stripped
            .allowed_outcomes_under(Weak)
            .iter()
            .any(|o| o[0] == 1 && o[1] == 1 && o[2] == 0));
        // Dekker variants.
        assert!(!LitmusTest::memlog_sb_sc_fence(false).allowed_outcomes_under(Weak).contains(&vec![0, 0]));
        assert!(LitmusTest::memlog_sb_sc_fence(true).allowed_outcomes_under(Weak).contains(&vec![0, 0]));
        assert!(!LitmusTest::memlog_sb_sc_store(false).allowed_outcomes_under(Weak).contains(&vec![0, 0]));
        assert!(LitmusTest::memlog_sb_sc_store(true).allowed_outcomes_under(Weak).contains(&vec![0, 0]));
        // Release-store handoff: stripping the *release* side is
        // unobservable (FIFO store buffer keeps W->W) — both variants
        // forbid stale data. This is the documented always-pass case.
        assert!(!LitmusTest::memlog_mp_release_store(false)
            .allowed_outcomes_under(Weak)
            .contains(&vec![1, 0]));
        assert!(!LitmusTest::memlog_mp_release_store(true)
            .allowed_outcomes_under(Weak)
            .contains(&vec![1, 0]));
    }

    #[test]
    fn detailed_sim_respects_tso_on_quick_shapes() {
        let base = crate::presets::icelake_like();
        let offsets: [&[u64]; 3] = [&[], &[0, 40], &[40, 0]];
        for t in [LitmusTest::sb_rmws(), LitmusTest::mp()] {
            for policy in AtomicPolicy::ALL {
                t.verify_under(&base, policy, &offsets);
            }
        }
    }

    #[test]
    fn detailed_sim_respects_weak_model_on_quick_shapes() {
        let base = crate::presets::icelake_like();
        let offsets: [&[u64]; 3] = [&[], &[0, 40], &[40, 0]];
        for t in [LitmusTest::mp_acq(), LitmusTest::sb_sc_stores()] {
            for policy in [AtomicPolicy::FencedBaseline, AtomicPolicy::FreeFwd] {
                t.verify_under_model(&base, policy, MemModel::Weak, &offsets);
            }
        }
    }
}
