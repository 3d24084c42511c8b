//! Workload-suite correctness on the detailed machine: every kernel must
//! quiesce under every atomic policy, and the kernels with checkable
//! architectural invariants must produce exact results.

use free_atomics::prelude::*;
use free_atomics::workloads::kernels::{DATA_BASE, LOCK_BASE};

fn run_suite_workload(name: &str, policy: AtomicPolicy, cores: usize, scale: f64) -> Machine {
    let spec = suite::by_name(name).unwrap_or_else(|| panic!("unknown workload {name}"));
    let w = spec.build(&WorkloadParams { cores, scale, seed: 0xABCD });
    let mut cfg = icelake_like();
    cfg.core.policy = policy;
    let mut m = Machine::new(cfg, w.programs, w.mem);
    m.run(300_000_000).unwrap_or_else(|e| panic!("{name} under {policy:?}: {e}"));
    m
}

#[test]
fn every_workload_quiesces_under_every_policy() {
    for spec in suite::all() {
        for policy in AtomicPolicy::ALL {
            run_suite_workload(spec.name, policy, 3, 0.05);
        }
    }
}

#[test]
fn tpcc_record_counts_are_conserved() {
    for policy in [AtomicPolicy::FencedBaseline, AtomicPolicy::FreeFwd] {
        let m = run_suite_workload("TPCC", policy, 4, 0.1);
        // All locks released.
        for i in 0..128u64 {
            assert_eq!(m.guest_mem().load(LOCK_BASE as u64 + i * 64), 0, "{policy:?} lock {i}");
        }
        // Record touches: between 5 and 12 per iteration per core.
        let total: u64 =
            (0..128u64).map(|i| m.guest_mem().load(DATA_BASE as u64 + i * 64)).sum();
        let iters = 4 * 10; // cores * scaled(100, 0.1)
        assert!((iters * 5..=iters * 12).contains(&total), "{policy:?}: total {total}");
    }
}

#[test]
fn as_swap_multiset_is_preserved() {
    for policy in [AtomicPolicy::FencedBaseline, AtomicPolicy::Free, AtomicPolicy::FreeFwd] {
        let spec = suite::by_name("AS").unwrap();
        let w = spec.build(&WorkloadParams { cores: 4, scale: 0.1, seed: 7 });
        let before = (0..64u64)
            .map(|i| w.mem.load(DATA_BASE as u64 + i * 64))
            .fold(0u64, u64::wrapping_add);
        let mut cfg = icelake_like();
        cfg.core.policy = policy;
        let mut m = Machine::new(cfg, w.programs, w.mem);
        m.run(300_000_000).unwrap_or_else(|e| panic!("AS {policy:?}: {e}"));
        let after = (0..64u64)
            .map(|i| m.guest_mem().load(DATA_BASE as u64 + i * 64))
            .fold(0u64, u64::wrapping_add);
        // Swaps preserve the (wrapping) sum; rare same-index picks add at
        // most cores*iters increments.
        let max_incr = 4 * 25;
        let delta = after.wrapping_sub(before);
        assert!(delta <= max_incr, "{policy:?}: wrapping delta {delta}");
        // Every lock released.
        for i in 0..64u64 {
            assert_eq!(m.guest_mem().load(LOCK_BASE as u64 + i * 64), 0);
        }
    }
}

#[test]
fn cq_queue_is_conserved_and_empty() {
    use free_atomics::workloads::kernels::COUNTER_BASE;
    for policy in [AtomicPolicy::FencedBaseline, AtomicPolicy::FreeFwd] {
        let m = run_suite_workload("CQ", policy, 4, 0.1);
        let enq = m.guest_mem().load((COUNTER_BASE + 8) as u64);
        let deq = m.guest_mem().load((COUNTER_BASE + 64 + 8) as u64);
        assert_eq!(enq, deq, "{policy:?}: {enq} enqueued vs {deq} dequeued");
        assert_eq!(enq, 4 * 25, "{policy:?}");
        for s in 0..64u64 {
            assert_eq!(m.guest_mem().load(DATA_BASE as u64 + s * 64), 0, "slot {s}");
        }
    }
}

#[test]
fn rbt_tree_touches_are_exact() {
    for policy in [AtomicPolicy::FencedBaseline, AtomicPolicy::FreeFwd] {
        let m = run_suite_workload("RBT", policy, 3, 0.1);
        let depth = 8u64;
        let total: u64 =
            (0..(1 << depth)).map(|i| m.guest_mem().load(DATA_BASE as u64 + i * 8)).sum();
        assert_eq!(total, 3 * 15 * depth, "{policy:?}");
    }
}

#[test]
fn workload_results_are_policy_independent_where_deterministic() {
    // RBT's total is checked above per policy; here compare full data
    // regions between baseline and FreeFwd for a kernel whose final state
    // is schedule-independent (every node increment commutes).
    let a = run_suite_workload("RBT", AtomicPolicy::FencedBaseline, 3, 0.1);
    let b = run_suite_workload("RBT", AtomicPolicy::FreeFwd, 3, 0.1);
    for i in 0..(1u64 << 8) {
        assert_eq!(
            a.guest_mem().load(DATA_BASE as u64 + i * 8),
            b.guest_mem().load(DATA_BASE as u64 + i * 8),
            "node {i} diverged between policies"
        );
    }
}

#[test]
fn runs_are_bit_deterministic() {
    let run = || {
        let spec = suite::by_name("canneal").unwrap();
        let w = spec.build(&WorkloadParams { cores: 4, scale: 0.05, seed: 99 });
        let mut cfg = icelake_like();
        cfg.core.policy = AtomicPolicy::FreeFwd;
        let mut m = Machine::new(cfg, w.programs, w.mem);
        let r = m.run(100_000_000).expect("quiesces");
        (r.cycles, r.instructions())
    };
    assert_eq!(run(), run(), "identical runs must be bit-identical");
}

/// FNV-1a 64 of one built workload: the `Debug` rendering of every
/// instruction of every thread, then every non-zero `(address, word)` of
/// the memory image.
fn program_hash(w: &Workload) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut feed = |text: String| {
        for b in text.bytes() {
            h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for (tid, program) in w.programs.iter().enumerate() {
        feed(format!("thread {tid}\n"));
        for instr in program.iter() {
            feed(format!("{instr:?}\n"));
        }
    }
    feed(format!("mem {}\n", w.mem.size()));
    for addr in (0..w.mem.size()).step_by(8) {
        let word = w.mem.load(addr);
        if word != 0 {
            feed(format!("{addr:#x}={word:#x}\n"));
        }
    }
    h
}

/// `(name, hash at cores 2 / scale 0.05 / seed 0xF00D, hash at cores 4 /
/// scale 0.1 / seed 7)`. A calibration change moves exactly the rows it
/// means to; the failure message prints the rows the code builds now.
const PINNED_PROGRAMS: [(&str, u64, u64); 26] = [
    ("watersp", 0x272efeb025a610cd, 0x8b890360c6a1b169),
    ("blackscholes", 0x103a7e9dfbc3ab49, 0x9948e6aa3b81d1cd),
    ("waternsq", 0x2da935c9258c8421, 0xa5859772f28e03a5),
    ("freqmine", 0xe129b77452c37ba5, 0xee9544fb86f890f5),
    ("facesim", 0x69cb5d82a57333e3, 0xdd5c332f123684af),
    ("fft", 0xe9d510fba3b8dd03, 0x3d79afbd24bb4145),
    ("raytrace", 0xc25002041c275159, 0x5714be6b27d8b1b9),
    ("lu_ncb", 0xe34f5280847d6009, 0x699be0d0d99f9c59),
    ("lu_cb", 0xaf4cc14aec6cba5d, 0xbe6249c44d57a6a1),
    ("radix", 0x6e3d0d5c5fd5f9d1, 0xd69b6364573c0a35),
    ("swaptions", 0xe48413f1502edffb, 0x317499cd8e6c18ab),
    ("ocean_ncp", 0x7ee964f86c3441c3, 0x13d378f8870e9d33),
    ("ocean_cp", 0xe4fda97af241ee13, 0x37347591829290ef),
    ("fmm", 0xd0638dd184956e6b, 0xf944d0cfb3c9a171),
    ("cholesky", 0x2b8a052e05d18403, 0x27fce13f367bd2ef),
    ("TATP", 0x9d7cd1b13abd3b83, 0xedb79c20840ab83f),
    ("PC", 0x2b6aeecbd53b56c7, 0x667ca6e267c68e1b),
    ("TPCC", 0x2504802ada011a43, 0xfd84be9e44348c61),
    ("AS", 0xc72dfe9ec025ecb0, 0x105a8fd9c8f6dda2),
    ("CQ", 0xe0717a2d7980071b, 0xdd8d40e3c1adc02f),
    ("barnes", 0xdb492cb02af42e9b, 0x4fea61ab94369fdf),
    ("volrend", 0x389973f50ddd795d, 0x47406d608b5622fb),
    ("radiosity", 0xf8956accfb9c56c5, 0xa049a269ea4474ef),
    ("fluidanimate", 0xecaa4c8547ad9cb3, 0x8c65fabfd1a9f24d),
    ("RBT", 0x410ad74894e8c767, 0x1bfe3bfb71445faf),
    ("canneal", 0x966de9e8805523f0, 0x5cdc07238b86ee03),
];

#[test]
fn every_program_and_memory_image_is_pinned() {
    let small = WorkloadParams { cores: 2, scale: 0.05, seed: 0xF00D };
    let large = WorkloadParams { cores: 4, scale: 0.1, seed: 7 };
    let built: Vec<(&str, u64, u64)> = suite::all()
        .iter()
        .map(|s| (s.name, program_hash(&s.build(&small)), program_hash(&s.build(&large))))
        .collect();
    let row = |(n, a, b): &(&str, u64, u64)| format!("    ({n:?}, {a:#018x}, {b:#018x}),\n");
    assert!(built == PINNED_PROGRAMS, "the suite now builds:\n{}", built.iter().map(row).collect::<String>());
}
