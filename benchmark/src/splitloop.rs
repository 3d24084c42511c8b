//! `Machine::run`'s cycle loop rewritten from public calls only, so the
//! benchmark can time each layer from outside.
//!
//! The loop always ticks every started core (no idle skip, no
//! fast-forward), which `Machine::tick` documents as bit-identical to its
//! own result; callers assert that on every cell. The loop never sweeps
//! the invariant audit and never runs the conformance check, so only a
//! plain configuration makes it `Machine::run`'s equal.

use fa_core::Core;
use fa_isa::interp::GuestMem;
use fa_isa::Program;
use fa_mem::{CoreId, MemorySystem};
use fa_sim::{MachineConfig, RunResult};
use std::time::Instant;

/// Host time spent in each layer of split-loop runs.
#[derive(Clone, Copy, Debug, Default)]
pub struct TickProfile {
    pub mem_ns: u64,
    pub mem_calls: u64,
    pub core_ns: u64,
    pub core_calls: u64,
    /// `Core::tick` time and calls binned by ROB occupancy at call time:
    /// bin `i` holds calls made with `rob_len()` in quartile `i` of
    /// `rob_size`.
    pub rob_bin_ns: [u64; 4],
    pub rob_bin_calls: [u64; 4],
    /// Loop time outside both ticks (quiescence test, loop control).
    pub other_ns: u64,
}

impl TickProfile {
    pub fn add(&mut self, o: &TickProfile) {
        self.mem_ns += o.mem_ns;
        self.mem_calls += o.mem_calls;
        self.core_ns += o.core_ns;
        self.core_calls += o.core_calls;
        self.other_ns += o.other_ns;
        for i in 0..4 {
            self.rob_bin_ns[i] += o.rob_bin_ns[i];
            self.rob_bin_calls[i] += o.rob_bin_calls[i];
        }
    }
}

/// N cores and one memory system, as `Machine::new` builds them.
pub struct SplitMachine {
    mem: MemorySystem,
    cores: Vec<Core>,
    rob_quarter: usize,
}

impl SplitMachine {
    pub fn new(cfg: &MachineConfig, programs: Vec<Program>, guest: GuestMem) -> SplitMachine {
        let mem_bytes = guest.size();
        let mem = MemorySystem::new(cfg.mem.clone(), programs.len(), guest);
        let cores = programs
            .into_iter()
            .enumerate()
            .map(|(i, p)| Core::new(CoreId(i as u16), cfg.core.clone(), p, mem_bytes))
            .collect();
        SplitMachine {
            mem,
            cores,
            rob_quarter: (cfg.core.rob_size / 4).max(1),
        }
    }

    pub fn guest_mem(&self) -> &GuestMem {
        self.mem.backing()
    }

    pub fn mem_mut(&mut self) -> &mut MemorySystem {
        &mut self.mem
    }

    /// Runs to quiescence. With `TIMED` the per-layer times are added into
    /// `prof`; without it the loop carries no timer at all.
    ///
    /// # Errors
    ///
    /// A message when the machine does not quiesce within `max_cycles`.
    pub fn run<const TIMED: bool>(
        &mut self,
        offsets: &[u64],
        max_cycles: u64,
        prof: &mut TickProfile,
    ) -> Result<RunResult, String> {
        let mut now = 0u64;
        let mut last = Instant::now();
        // Charges the time since the previous stamp to `slot`.
        let mut stamp = |slot: &mut u64| {
            let t = Instant::now();
            *slot += (t - last).as_nanos() as u64;
            last = t;
        };
        while now < max_cycles {
            now += 1;
            self.mem.tick();
            if TIMED {
                stamp(&mut prof.mem_ns);
                prof.mem_calls += 1;
            }
            for (i, c) in self.cores.iter_mut().enumerate() {
                if now <= offsets[i] {
                    continue;
                }
                let bin = (c.rob_len() / self.rob_quarter).min(3);
                c.tick(now, &mut self.mem);
                if TIMED {
                    let before = prof.core_ns;
                    stamp(&mut prof.core_ns);
                    prof.core_calls += 1;
                    prof.rob_bin_ns[bin] += prof.core_ns - before;
                    prof.rob_bin_calls[bin] += 1;
                }
            }
            let quiesced = self.cores.iter().all(|c| c.halted() && c.sb_len() == 0);
            if TIMED {
                stamp(&mut prof.other_ns);
            }
            if quiesced {
                for c in self.cores.iter_mut() {
                    c.finalize_stats();
                }
                return Ok(RunResult {
                    cycles: now,
                    per_core: self.cores.iter().map(|c| c.stats.clone()).collect(),
                    mem: self.mem.stats(),
                });
            }
        }
        Err(format!(
            "split loop did not quiesce within {max_cycles} cycles"
        ))
    }
}
