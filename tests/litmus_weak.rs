//! Weak-memory conformance: the memlog-ported synchronization suite.
//!
//! Ported from temper's memlog `fence_atomic` / `atomic_fence` families:
//! every case pairs a release-side synchronizer (release fence or release
//! store before the flag write) with a reader-side one (acquire load or
//! acquire fence), in both directions:
//!
//! - **fenced**: the synchronized variant — the stale outcome is forbidden
//!   by the weak enumerator, never observed on the detailed machine, and
//!   the corresponding stale *history* is rejected by the parameterized
//!   axiomatic checker with a named `weak-ghb` violation carrying a
//!   minimal happens-before cycle;
//! - **stripped**: the reader-side synchronizer removed — the stale
//!   outcome becomes enumerator-allowed and the stale history
//!   checker-accepted, proving the suite would catch a frontend that
//!   silently strengthened (or the checker a model that silently
//!   weakened).
//!
//! One family deliberately breaks the symmetry: stripping the *release*
//! annotation of `memlog_mp_release_store` is architecturally unobservable
//! in this frontend, because the FIFO store buffer preserves W→W order for
//! relaxed stores too. That direction is asserted as a documented
//! always-pass invariant rather than silently skipped.

use free_atomics::prelude::*;
use free_atomics::sim::{
    axiom, run_cells_timed, write_id, DataEvent, Execution, SerEvent, WRITE_ID_INIT,
};

fn offsets() -> [&'static [u64]; 6] {
    [&[], &[0, 40], &[40, 0], &[0, 90], &[90, 0], &[17, 43]]
}

/// One ported memlog family: the synchronized shape, the reader-stripped
/// shape, the stale observation vector the synchronization forbids, and
/// whether stripping is observable (false only for the release-store
/// family).
struct MemlogCase {
    fenced: LitmusTest,
    stripped: LitmusTest,
    stale: Vec<u64>,
    strip_observable: bool,
}

fn memlog_suite() -> Vec<MemlogCase> {
    vec![
        MemlogCase {
            fenced: LitmusTest::memlog_fence_atomic_acq_op(false),
            stripped: LitmusTest::memlog_fence_atomic_acq_op(true),
            stale: vec![1, 0],
            strip_observable: true,
        },
        MemlogCase {
            fenced: LitmusTest::memlog_atomic_fence_acq_fence(false),
            stripped: LitmusTest::memlog_atomic_fence_acq_fence(true),
            stale: vec![1, 0],
            strip_observable: true,
        },
        MemlogCase {
            fenced: LitmusTest::memlog_fence_atomic_chain(false),
            stripped: LitmusTest::memlog_fence_atomic_chain(true),
            stale: vec![1, 1, 0],
            strip_observable: true,
        },
        MemlogCase {
            fenced: LitmusTest::memlog_sb_sc_fence(false),
            stripped: LitmusTest::memlog_sb_sc_fence(true),
            stale: vec![0, 0],
            strip_observable: true,
        },
        MemlogCase {
            fenced: LitmusTest::memlog_sb_sc_store(false),
            stripped: LitmusTest::memlog_sb_sc_store(true),
            stale: vec![0, 0],
            strip_observable: true,
        },
        MemlogCase {
            fenced: LitmusTest::memlog_mp_release_store(false),
            stripped: LitmusTest::memlog_mp_release_store(true),
            stale: vec![1, 0],
            strip_observable: false,
        },
    ]
}

#[test]
fn memlog_enumerator_forbids_fenced_and_exposes_stripped() {
    for c in memlog_suite() {
        let fenced = c.fenced.allowed_outcomes_under(MemModel::Weak);
        assert!(
            !fenced.contains(&c.stale),
            "{}: synchronized variant must forbid {:?}",
            c.fenced.name,
            c.stale
        );
        let stripped = c.stripped.allowed_outcomes_under(MemModel::Weak);
        if c.strip_observable {
            assert!(
                stripped.contains(&c.stale),
                "{}: stripping the reader-side synchronizer must expose {:?}; \
                 allowed: {stripped:?}",
                c.stripped.name,
                c.stale
            );
        } else {
            // Documented always-pass invariant: the FIFO store buffer keeps
            // W->W order even for relaxed stores, so a stripped *release*
            // annotation changes nothing observable.
            assert!(
                !stripped.contains(&c.stale),
                "{}: release-side stripping must stay unobservable (FIFO SB)",
                c.stripped.name
            );
            assert_eq!(
                stripped,
                fenced,
                "{}: release-side stripping must not change the outcome set",
                c.stripped.name
            );
        }
    }
}

#[test]
fn memlog_suite_is_sound_on_weak_hardware_across_policies() {
    // Dual oracle on every run: verify_under_model asserts the observation
    // vector against the weak enumerator, and CheckMode::Tso arms the
    // full-execution conformance check inside Machine::run — which, with
    // cfg.core.model = Weak, validates the history against the weak
    // parameterized axioms before the outcome is even read.
    let base = icelake_like().with_check(CheckMode::Tso);
    for c in memlog_suite() {
        for t in [&c.fenced, &c.stripped] {
            for policy in AtomicPolicy::ALL {
                t.verify_under_model(&base, policy, MemModel::Weak, &offsets());
            }
        }
    }
}

#[test]
fn memlog_suite_is_sound_on_weak_hardware_across_nocs_and_presets() {
    // Timing variety (contended interconnect, tiny machine) must not
    // change soundness; the fenced/free extremes bound the policy space.
    let mut contended = icelake_like().with_check(CheckMode::Tso);
    contended.mem.noc = free_atomics::mem::NocConfig::contended(2);
    let tiny = tiny_machine().with_check(CheckMode::Tso);
    for base in [contended, tiny] {
        for c in memlog_suite() {
            for t in [&c.fenced, &c.stripped] {
                for policy in [AtomicPolicy::FencedBaseline, AtomicPolicy::FreeFwd] {
                    t.verify_under_model(&base, policy, MemModel::Weak, &offsets());
                }
            }
        }
    }
}

#[test]
fn memlog_hardware_outcomes_are_bit_identical_across_worker_threads() {
    // The acceptance bar: the whole suite's observation vectors, enumerated
    // over (case, variant, policy, offset set), are byte-identical whether
    // the grid fans across 1 or 8 sweep workers (the FA_THREADS axis).
    let suite = memlog_suite();
    let mut jobs: Vec<(usize, usize, usize, usize)> = Vec::new();
    for ci in 0..suite.len() {
        for variant in 0..2 {
            for (pi, _) in [AtomicPolicy::FencedBaseline, AtomicPolicy::FreeFwd]
                .iter()
                .enumerate()
            {
                for oi in 0..offsets().len() {
                    jobs.push((ci, variant, pi, oi));
                }
            }
        }
    }
    let run_all = |threads: usize| -> Vec<Vec<u64>> {
        let run = |_, &(ci, variant, pi, oi): &(usize, usize, usize, usize)| {
            let c = &suite[ci];
            let t = if variant == 0 { &c.fenced } else { &c.stripped };
            let policy = [AtomicPolicy::FencedBaseline, AtomicPolicy::FreeFwd][pi];
            let mut cfg = icelake_like();
            cfg.core.policy = policy;
            cfg.core.model = MemModel::Weak;
            t.run_detailed(&cfg, offsets()[oi])
        };
        run_cells_timed(&jobs, threads, run, |_| (0, 0)).0
    };
    let serial = run_all(1);
    let parallel = run_all(8);
    assert_eq!(
        serial, parallel,
        "memlog outcomes must be bit-identical at FA_THREADS=1 and FA_THREADS=8"
    );
}

// ---------------------------------------------------------- checker side

const DATA: u64 = 0x1000;
const FLAG: u64 = 0x1040;
const FLAG2: u64 = 0x1080;

/// The reader-side synchronizer of a synthetic stale-MP history.
#[derive(Clone, Copy, PartialEq)]
enum Sync {
    AcqLoad,
    AcqFence,
    None,
}

/// Builds the stale message-passing history: writer publishes `data=42`
/// then `flag=1` (with `writer_rel` annotating the flag store Release),
/// reader sees `flag=1` but stale `data=0` — exactly the execution the
/// detailed machine would log if it violated the synchronization.
fn stale_mp(sync: Sync, writer_rel: bool) -> Execution {
    let st_ord = if writer_rel { MemOrder::Release } else { MemOrder::Relaxed };
    let writer = vec![
        DataEvent::Store { seq: 1, addr: DATA, value: 42, ord: MemOrder::Relaxed },
        DataEvent::Store { seq: 2, addr: FLAG, value: 1, ord: st_ord },
    ];
    let flag_ord = if sync == Sync::AcqLoad { MemOrder::Acquire } else { MemOrder::Relaxed };
    let mut reader = vec![DataEvent::Load {
        seq: 1,
        addr: FLAG,
        value: 1,
        writer: write_id(0, 2),
        ord: flag_ord,
    }];
    if sync == Sync::AcqFence {
        reader.push(DataEvent::Fence { seq: 2, ord: MemOrder::Acquire });
    }
    reader.push(DataEvent::Load {
        seq: 3,
        addr: DATA,
        value: 0,
        writer: WRITE_ID_INIT,
        ord: MemOrder::Relaxed,
    });
    Execution {
        cores: vec![writer, reader],
        ser: vec![
            SerEvent { addr: DATA, writer: write_id(0, 1), value: 42, epoch: 0, under_lock: false },
            SerEvent { addr: FLAG, writer: write_id(0, 2), value: 1, epoch: 0, under_lock: false },
        ],
    }
}

/// Builds the stale Dekker history: both threads store 1 then read the
/// other's location as 0, with either SC fences between (`sc_fence`) or
/// SC store annotations (`sc_store`).
fn stale_sb(sc_fence: bool, sc_store: bool) -> Execution {
    let ord = if sc_store { MemOrder::SeqCst } else { MemOrder::Relaxed };
    let thread = |addr_w: u64, addr_r: u64| {
        let mut evs = vec![DataEvent::Store { seq: 1, addr: addr_w, value: 1, ord }];
        if sc_fence {
            evs.push(DataEvent::Fence { seq: 2, ord: MemOrder::SeqCst });
        }
        evs.push(DataEvent::Load {
            seq: 3,
            addr: addr_r,
            value: 0,
            writer: WRITE_ID_INIT,
            ord: MemOrder::Relaxed,
        });
        evs
    };
    Execution {
        cores: vec![thread(DATA, FLAG), thread(FLAG, DATA)],
        ser: vec![
            SerEvent { addr: DATA, writer: write_id(0, 1), value: 1, epoch: 0, under_lock: false },
            SerEvent { addr: FLAG, writer: write_id(1, 1), value: 1, epoch: 0, under_lock: false },
        ],
    }
}

/// Builds the stale release-chain history: T0 publishes data+flag, T1
/// consumes the flag and republishes flag2, T2 consumes flag2 but reads
/// stale data. `acq` annotates both consumer loads.
fn stale_chain(acq: bool) -> Execution {
    let ord = if acq { MemOrder::Acquire } else { MemOrder::Relaxed };
    Execution {
        cores: vec![
            vec![
                DataEvent::Store { seq: 1, addr: DATA, value: 42, ord: MemOrder::Relaxed },
                DataEvent::Store { seq: 2, addr: FLAG, value: 1, ord: MemOrder::Release },
            ],
            vec![
                DataEvent::Load { seq: 1, addr: FLAG, value: 1, writer: write_id(0, 2), ord },
                DataEvent::Store { seq: 2, addr: FLAG2, value: 1, ord: MemOrder::Release },
            ],
            vec![
                DataEvent::Load { seq: 1, addr: FLAG2, value: 1, writer: write_id(1, 2), ord },
                DataEvent::Load {
                    seq: 2,
                    addr: DATA,
                    value: 0,
                    writer: WRITE_ID_INIT,
                    ord: MemOrder::Relaxed,
                },
            ],
        ],
        ser: vec![
            SerEvent { addr: DATA, writer: write_id(0, 1), value: 42, epoch: 0, under_lock: false },
            SerEvent { addr: FLAG, writer: write_id(0, 2), value: 1, epoch: 0, under_lock: false },
            SerEvent { addr: FLAG2, writer: write_id(1, 2), value: 1, epoch: 0, under_lock: false },
        ],
    }
}

fn assert_weak_ghb_cycle(x: &Execution, what: &str) {
    let v = axiom::check_model(x, MemModel::Weak)
        .expect_err(&format!("{what}: stale history must be rejected"));
    assert_eq!(v.axiom, "weak-ghb", "{what}: the named axiom must be the weak ghb");
    assert!(
        v.detail.contains("global-happens-before cycle"),
        "{what}: the violation must carry the witnessing cycle: {}",
        v.detail
    );
    assert!(
        v.detail.contains("[rfe]"),
        "{what}: the stale-read cycle crosses cores via rfe: {}",
        v.detail
    );
}

#[test]
fn checker_witnesses_cycles_for_synchronized_stale_histories() {
    // Fenced direction: each family's stale history, with its
    // synchronization present, is rejected with a named weak-ghb cycle.
    assert_weak_ghb_cycle(&stale_mp(Sync::AcqLoad, false), "memlog-fence-atomic-acq-op");
    assert_weak_ghb_cycle(&stale_mp(Sync::AcqFence, false), "memlog-atomic-fence");
    assert_weak_ghb_cycle(&stale_mp(Sync::AcqLoad, true), "memlog-mp-release-store");
    assert_weak_ghb_cycle(&stale_chain(true), "memlog-fence-atomic-chain");
    // The Dekker shapes trip the cycle through po-wb / SC-store edges
    // rather than rfe — check them with the label they actually use.
    for (x, what, label) in [
        (stale_sb(true, false), "memlog-sb-sc-fence", "[po-wb]"),
        (stale_sb(false, true), "memlog-sb-sc-store", "[po]"),
    ] {
        let v = axiom::check_model(&x, MemModel::Weak)
            .expect_err(&format!("{what}: stale history must be rejected"));
        assert_eq!(v.axiom, "weak-ghb", "{what}");
        assert!(v.detail.contains("global-happens-before cycle"), "{what}: {}", v.detail);
        assert!(v.detail.contains(label), "{what} must cycle through {label}: {}", v.detail);
    }
}

#[test]
fn checker_accepts_stripped_stale_histories() {
    // Stripped direction: remove the reader-side synchronizer and the very
    // same stale values become weak-legal — the checker must accept, or it
    // would be enforcing more than the model.
    for (x, what) in [
        (stale_mp(Sync::None, false), "memlog-fence-atomic-acq-op-stripped"),
        (stale_mp(Sync::None, true), "memlog-mp-release-store reader-stripped"),
        (stale_chain(false), "memlog-fence-atomic-chain-stripped"),
        (stale_sb(false, false), "memlog-sb-stripped"),
    ] {
        if let Err(v) = axiom::check_model(&x, MemModel::Weak) {
            panic!("{what}: stripped stale history must be weak-legal, got {v}");
        }
    }
    // The stale MP histories are TSO-illegal even without annotations —
    // the parameterization is doing real work, not just renaming the
    // axiom — while the stale SB history is TSO-legal too, W->R being
    // TSO's own defining relaxation.
    for (x, what) in [
        (stale_mp(Sync::None, false), "mp"),
        (stale_mp(Sync::None, true), "mp-rel"),
        (stale_chain(false), "chain"),
    ] {
        let v = axiom::check_model(&x, MemModel::Tso)
            .expect_err("stale MP histories violate TSO regardless of annotations");
        assert_eq!(v.axiom, "tso-ghb", "{what}");
    }
    assert!(
        axiom::check_model(&stale_sb(false, false), MemModel::Tso).is_ok(),
        "the unfenced Dekker outcome is TSO-legal (store-buffer relaxation)"
    );
}

#[test]
fn release_side_stripping_is_unobservable_and_documented() {
    // The invariant in full: with the reader acquire kept, the stale
    // history is rejected whether or not the writer's release annotation
    // survives — W->W rides the FIFO store buffer — so release-side
    // stripping can never be caught by an outcome assertion, only by this
    // history-level one.
    assert_weak_ghb_cycle(&stale_mp(Sync::AcqLoad, true), "release kept");
    assert_weak_ghb_cycle(&stale_mp(Sync::AcqLoad, false), "release stripped");
    // And on hardware the stripped variant still never shows the stale
    // outcome, across the same offset spread the suite uses.
    let t = LitmusTest::memlog_mp_release_store(true);
    let mut cfg = icelake_like();
    cfg.core.policy = AtomicPolicy::FreeFwd;
    cfg.core.model = MemModel::Weak;
    for off in offsets() {
        let o = t.run_detailed(&cfg, off);
        assert!(
            !(o[0] == 1 && o[1] == 0),
            "release-side stripping must stay unobservable, saw {o:?}"
        );
    }
}
