//! The 26-application suite (§5.1): SPLASH-3, PARSEC-3, and the
//! write-intensive benchmarks of Gogte et al. / Kolli et al., as one table.
//!
//! Each row of [`SUITE`] is a synthetic proxy assembled from the
//! [`crate::kernels`] templates, tuned to the application's
//! atomics-per-kilo-instruction profile (Figure 12), its synchronization
//! idiom (§5.2: canneal is purely atomic, fluidanimate uses millions of
//! uncontended locks, barnes and radiosity lock with strong temporal
//! locality, the write-intensive suite follows the §5.5 hotspot
//! descriptions) and its store-buffer pressure (Figure 1: fft/radix/ocean pay
//! hundreds of cycles per fenced atomic). [`Entry::build`] is the only
//! interpreter of a row.

use crate::kernels::{
    emit_app_loop, emit_atomic_swap_loop, emit_queue_loop, emit_swap_loop, emit_think,
    emit_tpcc_loop, emit_tree_update_loop, AppSpec, ComputeInner, LockChoice, LockKind, LockPart,
    DATA_BASE,
};
use crate::runtime::{emit_prologue, WaitKind};
use crate::{Workload, WorkloadParams, WorkloadSpec, WORKLOAD_MEM_BYTES};
use fa_isa::interp::GuestMem;
use fa_isa::Kasm;

/// One workload: a row of [`SUITE`].
#[derive(Clone, Copy, Debug)]
pub struct Entry {
    /// Application name as in the paper.
    pub name: &'static str,
    /// Paper classification (§5.2): ≥ 0.75 atomics per kilo-instruction.
    pub atomic_intensive: bool,
    /// Outer iterations per thread at scale 1.0.
    pub iters: i64,
    /// The loop every thread runs.
    pub kernel: Kernel,
    /// Initial guest memory.
    pub mem: Image,
}

/// The kernel template a workload instantiates, with its parameters. Lock
/// and barrier waiters sleep in `MonitorWait` (Figure 14's sleep cycles);
/// CQ's two end locks spin, as its template says.
#[derive(Clone, Copy, Debug)]
pub enum Kernel {
    /// [`emit_app_loop`]: compute, lock burst, barrier every `n` iterations.
    App { compute: Option<ComputeInner>, locks: Option<LockPart>, barrier_every: Option<i64> },
    /// [`emit_tpcc_loop`] over `locks_pow2` locks, `think` iterations apart.
    Tpcc { locks_pow2: i64, think: i64 },
    /// [`emit_swap_loop`] over `locks_pow2` locked records.
    Swap { locks_pow2: i64, think: i64 },
    /// [`emit_queue_loop`] on a ring of `slots_pow2` slots.
    Queue { slots_pow2: i64, think: i64 },
    /// [`emit_atomic_swap_loop`] over `elems_pow2` words.
    AtomicSwap { elems_pow2: i64, think: i64 },
    /// [`emit_tree_update_loop`] `depth` levels deep, then a `cooldown`
    /// think loop after the last unlock.
    Tree { depth: usize, think: i64, cooldown: i64 },
}

/// What guest memory holds before the first instruction.
#[derive(Clone, Copy, Debug)]
pub enum Image {
    /// All zero.
    Plain,
    /// `n` distinct seeded values `stride` bytes apart from `DATA_BASE`
    /// (swap-style kernels need a populated array).
    Records { n: u64, stride: u64 },
}

/// The full suite in the paper's Figure-1 presentation order.
pub const SUITE: [Entry; 26] = [
    // ------------------------------------------- below 0.75 APKI (Figure 12)
    Entry {
        name: "watersp", atomic_intensive: false, iters: 40, mem: Image::Plain,
        kernel: Kernel::App {
            compute: Some(ComputeInner { iters: 60, loads: 2, stores: 1, alu: 6, stride: 8, region_pow2: 0x8000, shared: false }),
            locks: None,
            barrier_every: None,
        },
    },
    Entry {
        name: "blackscholes", atomic_intensive: false, iters: 40, mem: Image::Plain,
        kernel: Kernel::App {
            compute: Some(ComputeInner { iters: 60, loads: 2, stores: 1, alu: 8, stride: 8, region_pow2: 0x8000, shared: false }),
            locks: None,
            barrier_every: None,
        },
    },
    Entry {
        name: "waternsq", atomic_intensive: false, iters: 40, mem: Image::Plain,
        kernel: Kernel::App {
            compute: Some(ComputeInner { iters: 50, loads: 2, stores: 1, alu: 5, stride: 8, region_pow2: 0x8000, shared: false }),
            locks: None,
            barrier_every: Some(8),
        },
    },
    Entry {
        name: "freqmine", atomic_intensive: false, iters: 50, mem: Image::Plain,
        kernel: Kernel::App {
            compute: Some(ComputeInner { iters: 250, loads: 2, stores: 1, alu: 4, stride: 8, region_pow2: 0x8000, shared: false }),
            locks: Some(LockPart { locks_pow2: 64, kind: LockKind::Tas, choice: LockChoice::Random, cs_work: 2, burst: 2 }),
            barrier_every: None,
        },
    },
    Entry {
        name: "facesim", atomic_intensive: false, iters: 50, mem: Image::Plain,
        kernel: Kernel::App {
            compute: Some(ComputeInner { iters: 120, loads: 2, stores: 3, alu: 3, stride: 256, region_pow2: 0x8000, shared: false }),
            locks: Some(LockPart { locks_pow2: 32, kind: LockKind::Tas, choice: LockChoice::Random, cs_work: 4, burst: 1 }),
            barrier_every: Some(16),
        },
    },
    Entry {
        name: "fft", atomic_intensive: false, iters: 25, mem: Image::Plain,
        kernel: Kernel::App {
            compute: Some(ComputeInner { iters: 200, loads: 1, stores: 4, alu: 2, stride: 576, region_pow2: 0x10000, shared: false }),
            locks: Some(LockPart { locks_pow2: 16, kind: LockKind::Tas, choice: LockChoice::Random, cs_work: 1, burst: 2 }),
            barrier_every: Some(4),
        },
    },
    Entry {
        name: "raytrace", atomic_intensive: false, iters: 40, mem: Image::Plain,
        kernel: Kernel::App {
            compute: Some(ComputeInner { iters: 200, loads: 3, stores: 0, alu: 6, stride: 64, region_pow2: 0x8000, shared: false }),
            locks: Some(LockPart { locks_pow2: 64, kind: LockKind::Ticket, choice: LockChoice::Sticky, cs_work: 2, burst: 2 }),
            barrier_every: None,
        },
    },
    Entry {
        name: "lu_ncb", atomic_intensive: false, iters: 30, mem: Image::Plain,
        kernel: Kernel::App {
            compute: Some(ComputeInner { iters: 180, loads: 3, stores: 1, alu: 5, stride: 8, region_pow2: 0x10000, shared: true }),
            locks: None,
            barrier_every: Some(2),
        },
    },
    Entry {
        name: "lu_cb", atomic_intensive: false, iters: 30, mem: Image::Plain,
        kernel: Kernel::App {
            compute: Some(ComputeInner { iters: 180, loads: 3, stores: 1, alu: 5, stride: 8, region_pow2: 0x10000, shared: false }),
            locks: None,
            barrier_every: Some(2),
        },
    },
    Entry {
        name: "radix", atomic_intensive: false, iters: 25, mem: Image::Plain,
        kernel: Kernel::App {
            compute: Some(ComputeInner { iters: 150, loads: 1, stores: 5, alu: 1, stride: 520, region_pow2: 0x10000, shared: true }),
            locks: None,
            barrier_every: Some(2),
        },
    },
    Entry {
        name: "swaptions", atomic_intensive: false, iters: 30, mem: Image::Plain,
        kernel: Kernel::App {
            compute: Some(ComputeInner { iters: 300, loads: 2, stores: 1, alu: 10, stride: 8, region_pow2: 0x8000, shared: false }),
            locks: None,
            barrier_every: None,
        },
    },
    Entry {
        name: "ocean_ncp", atomic_intensive: false, iters: 30, mem: Image::Plain,
        kernel: Kernel::App {
            compute: Some(ComputeInner { iters: 160, loads: 2, stores: 2, alu: 3, stride: 640, region_pow2: 0x20000, shared: true }),
            locks: None,
            barrier_every: Some(2),
        },
    },
    Entry {
        name: "ocean_cp", atomic_intensive: false, iters: 30, mem: Image::Plain,
        kernel: Kernel::App {
            compute: Some(ComputeInner { iters: 160, loads: 2, stores: 2, alu: 3, stride: 320, region_pow2: 0x20000, shared: false }),
            locks: None,
            barrier_every: Some(2),
        },
    },
    Entry {
        name: "fmm", atomic_intensive: false, iters: 40, mem: Image::Plain,
        kernel: Kernel::App {
            compute: Some(ComputeInner { iters: 250, loads: 2, stores: 1, alu: 4, stride: 8, region_pow2: 0x8000, shared: false }),
            locks: Some(LockPart { locks_pow2: 32, kind: LockKind::Ticket, choice: LockChoice::Sticky, cs_work: 3, burst: 3 }),
            barrier_every: None,
        },
    },
    Entry {
        name: "cholesky", atomic_intensive: false, iters: 40, mem: Image::Plain,
        kernel: Kernel::App {
            compute: Some(ComputeInner { iters: 150, loads: 3, stores: 1, alu: 5, stride: 8, region_pow2: 0x8000, shared: false }),
            locks: Some(LockPart { locks_pow2: 16, kind: LockKind::Ticket, choice: LockChoice::Sticky, cs_work: 2, burst: 2 }),
            barrier_every: Some(8),
        },
    },
    // ------------------------------------------------------ atomic-intensive
    Entry {
        name: "TATP", atomic_intensive: true, iters: 300, mem: Image::Plain,
        kernel: Kernel::App {
            compute: Some(ComputeInner { iters: 25, loads: 1, stores: 0, alu: 2, stride: 8, region_pow2: 0x2000, shared: false }),
            locks: Some(LockPart { locks_pow2: 256, kind: LockKind::Tas, choice: LockChoice::Random, cs_work: 2, burst: 1 }),
            barrier_every: None,
        },
    },
    Entry {
        // Iterations longer than the ROB (352 µops) keep consecutive
        // iterations' RMWs from overlapping in flight; the paper's PC
        // sees only a single watchdog timeout for the same reason.
        name: "PC", atomic_intensive: true, iters: 220, mem: Image::Plain,
        kernel: Kernel::App {
            compute: Some(ComputeInner { iters: 35, loads: 1, stores: 0, alu: 2, stride: 8, region_pow2: 0x2000, shared: false }),
            locks: Some(LockPart { locks_pow2: 8, kind: LockKind::Tas, choice: LockChoice::Random, cs_work: 4, burst: 1 }),
            barrier_every: None,
        },
    },
    Entry {
        name: "TPCC", atomic_intensive: true, iters: 100, mem: Image::Plain,
        kernel: Kernel::Tpcc { locks_pow2: 128, think: 800 },
    },
    Entry {
        name: "AS", atomic_intensive: true, iters: 250, mem: Image::Records { n: 64, stride: 64 },
        kernel: Kernel::Swap { locks_pow2: 64, think: 150 },
    },
    Entry {
        name: "CQ", atomic_intensive: true, iters: 250, mem: Image::Plain,
        kernel: Kernel::Queue { slots_pow2: 64, think: 30 },
    },
    Entry {
        name: "barnes", atomic_intensive: true, iters: 80, mem: Image::Plain,
        kernel: Kernel::App {
            compute: Some(ComputeInner { iters: 80, loads: 2, stores: 1, alu: 5, stride: 8, region_pow2: 0x8000, shared: false }),
            locks: Some(LockPart { locks_pow2: 64, kind: LockKind::Ticket, choice: LockChoice::Sticky, cs_work: 2, burst: 4 }),
            barrier_every: None,
        },
    },
    Entry {
        name: "volrend", atomic_intensive: true, iters: 100, mem: Image::Plain,
        kernel: Kernel::App {
            compute: Some(ComputeInner { iters: 60, loads: 2, stores: 1, alu: 3, stride: 8, region_pow2: 0x4000, shared: false }),
            locks: Some(LockPart { locks_pow2: 128, kind: LockKind::Ticket, choice: LockChoice::Random, cs_work: 2, burst: 2 }),
            barrier_every: Some(25),
        },
    },
    Entry {
        name: "radiosity", atomic_intensive: true, iters: 100, mem: Image::Plain,
        kernel: Kernel::App {
            compute: Some(ComputeInner { iters: 90, loads: 2, stores: 1, alu: 3, stride: 8, region_pow2: 0x4000, shared: false }),
            locks: Some(LockPart { locks_pow2: 32, kind: LockKind::Ticket, choice: LockChoice::Sticky, cs_work: 3, burst: 3 }),
            barrier_every: None,
        },
    },
    Entry {
        name: "fluidanimate", atomic_intensive: true, iters: 150, mem: Image::Plain,
        kernel: Kernel::App {
            compute: Some(ComputeInner { iters: 30, loads: 1, stores: 1, alu: 2, stride: 8, region_pow2: 0x2000, shared: false }),
            locks: Some(LockPart { locks_pow2: 64, kind: LockKind::Tas, choice: LockChoice::OwnMostly, cs_work: 1, burst: 3 }),
            barrier_every: Some(50),
        },
    },
    Entry {
        // A short cool-down compute tail keeps the last unlocker busy.
        name: "RBT", atomic_intensive: true, iters: 150, mem: Image::Plain,
        kernel: Kernel::Tree { depth: 8, think: 250, cooldown: 50 },
    },
    Entry {
        name: "canneal", atomic_intensive: true, iters: 400, mem: Image::Records { n: 4096, stride: 8 },
        kernel: Kernel::AtomicSwap { elems_pow2: 4096, think: 30 },
    },
];

impl Entry {
    /// Builds the workload: per thread the prologue, the kernel at
    /// `iters × scale` (at least 2) iterations, the trailing fence of the
    /// kernels that do not end in a barrier, `halt`.
    pub fn build(&self, params: &WorkloadParams) -> Workload {
        let iters = ((self.iters as f64 * params.scale).round() as i64).max(2);
        let wait = WaitKind::Mwait;
        let programs = (0..params.cores)
            .map(|tid| {
                let mut k = Kasm::new();
                emit_prologue(&mut k, tid, params.seed);
                match self.kernel {
                    Kernel::App { compute, locks, barrier_every } => {
                        let spec = AppSpec { outer_iters: iters, compute, locks, barrier_every, wait };
                        emit_app_loop(&mut k, params.cores, &spec);
                    }
                    Kernel::Tpcc { locks_pow2, think } => emit_tpcc_loop(&mut k, iters, locks_pow2, think, wait),
                    Kernel::Swap { locks_pow2, think } => emit_swap_loop(&mut k, iters, locks_pow2, think, wait),
                    Kernel::Queue { slots_pow2, think } => emit_queue_loop(&mut k, iters, slots_pow2, think),
                    Kernel::AtomicSwap { elems_pow2, think } => emit_atomic_swap_loop(&mut k, iters, elems_pow2, think),
                    Kernel::Tree { depth, think, .. } => emit_tree_update_loop(&mut k, iters, depth, think, wait),
                }
                if !matches!(self.kernel, Kernel::App { .. }) {
                    k.fence();
                }
                if let Kernel::Tree { cooldown, .. } = self.kernel {
                    emit_think(&mut k, cooldown);
                }
                k.halt();
                k.finish().expect("suite kernels are valid by construction")
            })
            .collect();
        let mut mem = GuestMem::new(WORKLOAD_MEM_BYTES);
        if let Image::Records { n, stride } = self.mem {
            let mut x = params.seed | 1;
            for i in 0..n {
                x ^= x >> 12;
                x ^= x << 25;
                x ^= x >> 27;
                mem.store(DATA_BASE as u64 + i * stride, x.wrapping_mul(0x2545_F491_4F6C_DD1D));
            }
        }
        Workload { programs, mem }
    }
}

/// The full suite, in [`SUITE`] order.
pub fn all() -> Vec<WorkloadSpec> {
    SUITE.iter().collect()
}

/// Looks a workload up by its paper name (case-sensitive).
pub fn by_name(name: &str) -> Option<WorkloadSpec> {
    SUITE.iter().find(|e| e.name == name)
}

/// A workload selection named something the suite does not contain.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct UnknownWorkload {
    /// The name that failed to resolve.
    pub name: String,
}

impl std::fmt::Display for UnknownWorkload {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let names: Vec<&str> = SUITE.iter().map(|e| e.name).collect();
        write!(f, "unknown workload {:?}; the suite contains: {}", self.name, names.join(", "))
    }
}

impl std::error::Error for UnknownWorkload {}

/// Resolves an explicit selection in the order given, erroring on the
/// first unknown name. Sweeps use this instead of silent filtering so a
/// typo fails the cell enumeration loudly rather than shrinking the grid.
///
/// # Errors
///
/// [`UnknownWorkload`] naming the first selection the suite lacks.
pub fn select(selection: &[&str]) -> Result<Vec<WorkloadSpec>, UnknownWorkload> {
    selection
        .iter()
        .map(|&name| by_name(name).ok_or_else(|| UnknownWorkload { name: name.to_string() }))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use fa_isa::interp::McInterp;

    #[test]
    fn suite_has_26_uniquely_named_entries_11_atomic_intensive() {
        assert_eq!(SUITE.len(), 26);
        assert_eq!(SUITE.iter().filter(|e| e.atomic_intensive).count(), 11);
        for (i, e) in SUITE.iter().enumerate() {
            assert!(SUITE[..i].iter().all(|o| o.name != e.name), "{} listed twice", e.name);
            assert_eq!(by_name(e.name).map(|s| s.name), Some(e.name));
        }
        assert!(by_name("nonesuch").is_none());
    }

    #[test]
    fn every_row_passes_the_emitters_range_checks() {
        // The emitters assert these when a program is built; checking the
        // table catches a bad row before any sweep reaches it.
        let pow2 = |e: &Entry, what: &str, v: i64| {
            assert!(v > 0 && v & (v - 1) == 0, "{}: {what} = {v} is not a power of two", e.name);
        };
        for e in &SUITE {
            assert!(e.iters >= 2, "{}: iters below the scaling floor", e.name);
            match e.kernel {
                Kernel::App { compute, locks, barrier_every } => {
                    if let Some(c) = compute {
                        pow2(e, "region_pow2", c.region_pow2);
                    }
                    if let Some(l) = locks {
                        pow2(e, "locks_pow2", l.locks_pow2);
                    }
                    assert!(barrier_every.is_none_or(|n| n > 0), "{}: barrier period", e.name);
                }
                // TPCC draws its first lock from the lower half of the table.
                Kernel::Tpcc { locks_pow2, .. } => pow2(e, "locks_pow2 / 2", locks_pow2 / 2),
                Kernel::Swap { locks_pow2, .. } => pow2(e, "locks_pow2", locks_pow2),
                Kernel::Queue { slots_pow2, .. } => pow2(e, "slots_pow2", slots_pow2),
                Kernel::AtomicSwap { elems_pow2, .. } => pow2(e, "elems_pow2", elems_pow2),
                Kernel::Tree { depth, .. } => assert!((1..32).contains(&depth), "{}: depth", e.name),
            }
            if let Image::Records { n, stride } = e.mem {
                assert!(stride % 8 == 0, "{}: records are word-aligned", e.name);
                assert!(DATA_BASE as u64 + n * stride <= WORKLOAD_MEM_BYTES, "{}: records fit", e.name);
            }
        }
    }

    #[test]
    fn every_workload_builds_and_completes_functionally() {
        // Functional smoke test under the SC golden interpreter at a small
        // scale: every kernel must terminate.
        let params = WorkloadParams { cores: 3, scale: 0.08, seed: 9 };
        for spec in all() {
            let w = spec.build(&params);
            assert_eq!(w.programs.len(), 3, "{}", spec.name);
            let mut m = McInterp::new(w.programs, w.mem.size(), 17);
            *m.mem_mut() = w.mem;
            m.run(80_000_000).unwrap_or_else(|e| panic!("{} did not finish: {e}", spec.name));
        }
    }

    #[test]
    fn all_is_the_table_in_paper_order() {
        let names: Vec<&str> = all().iter().map(|s| s.name).collect();
        assert_eq!(&names[..5], &["watersp", "blackscholes", "waternsq", "freqmine", "facesim"]);
        assert_eq!(names[25], "canneal");
        assert_eq!(names, SUITE.map(|e| e.name));
    }

    #[test]
    fn select_resolves_in_order_and_rejects_unknowns() {
        let picked = select(&["canneal", "fft"]).expect("both exist");
        assert_eq!(picked.len(), 2);
        assert_eq!(picked[0].name, "canneal");
        assert_eq!(picked[1].name, "fft");
        let err = select(&["fft", "nonesuch"]).expect_err("typo must fail loudly");
        assert_eq!(err.name, "nonesuch");
        assert!(err.to_string().contains("canneal"), "error lists valid names");
    }
}
