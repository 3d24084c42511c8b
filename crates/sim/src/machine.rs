//! The multicore machine: N cores + one memory system, one cycle loop.

use crate::axiom::{self, Execution};
use crate::error::{RunFailure, SimError};
use fa_core::{Core, CoreConfig, CoreDiag, CoreStats};
use fa_isa::interp::GuestMem;
use fa_isa::Program;
use fa_mem::{CoreId, MemConfig, MemDiag, MemStats, MemorySystem, ProgressReport};
use fa_trace::{
    chrome_trace, CheckMode, Counter, CpiLeaf, FlightEntry, MemModel, TraceMode, TraceRecord,
};
use std::borrow::Cow;
use std::fmt;

/// Events per component kept in a snapshot's flight-recorder tail.
const FLIGHT_TAIL: usize = 8;

/// Machine-level configuration: one core config (homogeneous) + the memory
/// hierarchy.
#[derive(Clone, Debug, PartialEq)]
#[derive(Default)]
pub struct MachineConfig {
    /// Core parameters (shared by every core).
    pub core: CoreConfig,
    /// Memory-hierarchy parameters.
    pub mem: MemConfig,
}

impl MachineConfig {
    /// Returns a copy with the given trace mode applied to both the core
    /// and memory layers (they are always configured together).
    pub fn with_trace(mut self, mode: TraceMode) -> MachineConfig {
        self.core.trace.mode = mode;
        self.mem.trace.mode = mode;
        self
    }

    /// Returns a copy with the given conformance-check mode applied to
    /// both the core and memory layers (the checker needs both the
    /// per-core data events and the serialization log, so the two are
    /// always configured together).
    pub fn with_check(mut self, mode: CheckMode) -> MachineConfig {
        self.core.check = mode;
        self.mem.check = mode;
        self
    }
}


/// A point-in-time snapshot of the whole machine, attached to errors so a
/// hang names the stuck micro-ops and locked lines instead of dying silent.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MachineSnapshot {
    /// Cycle the snapshot was taken.
    pub cycle: u64,
    /// Per-core pipeline state, indexed by core id.
    pub cores: Vec<CoreDiag>,
    /// Memory-system state (locked lines, busy directory entries, stalled
    /// fills, in-flight events).
    pub mem: MemDiag,
    /// Flight-recorder tail: the last few structured trace events per
    /// component, in `(cycle, seq)` order. Empty when tracing is off.
    pub trace_tail: Vec<FlightEntry>,
}

impl fmt::Display for MachineSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "machine state at cycle {}:", self.cycle)?;
        for (i, c) in self.cores.iter().enumerate() {
            writeln!(f, "  c{i}: {c}")?;
        }
        write!(f, "{}", self.mem)?;
        if !self.trace_tail.is_empty() {
            write!(f, "\n  flight recorder tail ({} events):", self.trace_tail.len())?;
            for e in &self.trace_tail {
                write!(f, "\n    {e}")?;
            }
        }
        Ok(())
    }
}

/// Results of a completed run.
#[derive(Clone, Debug)]
pub struct RunResult {
    /// Cycle at which the machine quiesced (execution time).
    pub cycles: u64,
    /// Per-core statistics.
    pub per_core: Vec<CoreStats>,
    /// Memory-system statistics.
    pub mem: MemStats,
}

impl RunResult {
    /// Roll-up of the per-core statistics (cycles = max across cores; the
    /// rest summed).
    pub fn aggregate(&self) -> CoreStats {
        CoreStats::merged(&self.per_core)
    }

    /// Total committed instructions.
    pub fn instructions(&self) -> u64 {
        self.per_core.iter().map(|c| c.instructions).sum()
    }
}

/// What the cycle loop keeps of one core between its visits.
#[derive(Clone, Copy, Debug)]
struct Lane {
    /// The cycle the core must be visited at even if memory does not touch
    /// it first: its first cycle, then the earlier of its [`Core::due`] and
    /// the end of its link backpressure (the next cycle with traffic
    /// queued, or with the fast paths off).
    wake: u64,
    /// The [`Core::stall_leaf`] read at the last visit, when the core was
    /// left to wait: every cycle before `wake` takes it.
    leaf: Option<CpiLeaf>,
    /// The last cycle the core was stepped at or credited for.
    settled: u64,
    /// Site `core-commit`: `(instructions, cycle)` at the core's last
    /// observed commit, or its first cycle, and the cycle it trips the
    /// no-commit bound at (never while halted or asleep).
    commit: (u64, u64),
    trips: u64,
}

impl Lane {
    fn new(offset: u64) -> Lane {
        Lane { wake: offset + 1, leaf: None, settled: offset, commit: (0, 0), trips: u64::MAX }
    }
}

/// A multicore machine ready to run one workload. `Default` is a machine
/// of no cores, which [`Machine::reset`] gives some.
#[derive(Default)]
pub struct Machine {
    mem: MemorySystem,
    cores: Vec<Core>,
    /// The cores of an earlier run on more cores.
    spare_cores: Vec<Core>,
    start_offsets: Vec<u64>,
    now: u64,
    /// Memory model the cores run under — the axiomatic checker follows it.
    model: MemModel,
    /// Crediting cycles with [`Core::skip`] instead of stepping (on by
    /// default; switched off only by differential tests proving it
    /// preserves results).
    fast_paths: bool,
    /// Cycles of stalled running cores credited by [`Core::skip`] so far
    /// (tests; not a statistic).
    skipped_core_ticks: u64,
    /// Per core, what the loop knows between visits.
    lanes: Vec<Lane>,
    /// Cores not yet halted with an empty store buffer.
    live: usize,
    /// A cycle no core trips `core-commit` before: the least `trips` when
    /// last computed, lowered as cores start waiting again.
    deadline: u64,
    /// The conformance checker's scratch, kept across runs.
    checker: axiom::Checker,
}

impl fmt::Debug for Machine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Machine")
            .field("cores", &self.cores.len())
            .field("now", &self.now)
            .finish()
    }
}

impl Machine {
    /// Builds a machine with one core per program over `guest_mem`: a
    /// [`reset`](Self::reset) of empty storage.
    pub fn new(cfg: MachineConfig, programs: Vec<Program>, guest_mem: GuestMem) -> Machine {
        let mut m = Machine::default();
        m.reset(&cfg, &programs, Cow::Owned(guest_mem));
        m
    }

    /// Puts the machine in exactly the state [`new`](Self::new) builds for
    /// `cfg`, one core per program and `guest_mem` — whatever it ran
    /// before, on however many cores — while keeping every buffer's
    /// storage: the cores' (and those of cores beyond `programs.len()`,
    /// for a later run on more), the memory system's, the checker's and
    /// the guest pages. An owned image moves in; a borrowed one is copied
    /// into the pages the machine already has.
    pub fn reset(&mut self, cfg: &MachineConfig, programs: &[Program], guest_mem: Cow<'_, GuestMem>) {
        let n = programs.len();
        assert!(n > 0, "at least one program required");
        let Machine {
            mem, cores, spare_cores, start_offsets, now, model, fast_paths, skipped_core_ticks,
            lanes, live, deadline, checker: _,
        } = self;
        // The conformance checker needs *both* the per-core data events
        // and the memory system's serialization log; if a caller set only
        // one side, enable both (a half-collected execution would raise
        // false co-wf violations).
        let mut cfg = cfg.clone();
        if cfg.core.check.on() || cfg.mem.check.on() {
            cfg = cfg.with_check(CheckMode::Tso);
        }
        let mem_bytes = guest_mem.size();
        mem.reset(&cfg.mem, n, guest_mem);
        fa_mem::fit(cores, spare_cores, n);
        for (i, (c, p)) in cores.iter_mut().zip(programs).enumerate() {
            c.reset(CoreId(i as u16), &cfg.core, p, mem_bytes);
        }
        start_offsets.clear();
        start_offsets.resize(n, 0);
        (*now, *model, *fast_paths, *skipped_core_ticks) = (0, cfg.core.model, true, 0);
        lanes.clear();
        lanes.resize(n, Lane::new(0));
        (*live, *deadline) = (n, u64::MAX);
    }

    /// Disables (or re-enables) the cycle-loop fast paths — crediting a
    /// core's cycles before its [`Core::due`] with [`Core::skip`], one at a
    /// time in [`Machine::tick`] and in bulk when [`Machine::run`] jumps.
    /// They are semantics-preserving (bit-identical results and
    /// statistics); with them off every started core steps every cycle, the
    /// reference the differential tests compare against.
    pub fn set_fast_paths(&mut self, on: bool) {
        self.settle();
        self.fast_paths = on;
        for (lane, &offset) in self.lanes.iter_mut().zip(&self.start_offsets) {
            lane.wake = offset.max(self.now) + 1;
        }
    }

    /// Delays each core's first cycle by the given offset — the analogue of
    /// the paper's "randomized sleep timer to alter the architectural
    /// state" (§5.1).
    pub fn set_start_offsets(&mut self, offsets: impl AsRef<[u64]>) {
        let offsets = offsets.as_ref();
        assert_eq!(offsets.len(), self.cores.len());
        assert_eq!(self.now, 0, "start offsets are set before the first cycle");
        self.lanes.clear();
        self.lanes.extend(offsets.iter().map(|&offset| Lane::new(offset)));
        self.start_offsets.clear();
        self.start_offsets.extend_from_slice(offsets);
    }

    /// Guest memory (to inspect results).
    pub fn guest_mem(&self) -> &GuestMem {
        self.mem.backing()
    }

    /// Current cycle.
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Cycles of stalled running cores credited instead of stepped (tests;
    /// sleepers' cycles are not counted): zero with the fast paths off.
    /// Counts the cycles of cores waiting to be credited too.
    pub fn skipped_core_ticks(&self) -> u64 {
        let waiting = self.cores.iter().zip(&self.lanes).map(|(c, lane)| {
            u64::from(!c.halted() && !c.sleeping()) * self.now.saturating_sub(lane.settled)
        });
        self.skipped_core_ticks + waiting.sum::<u64>()
    }

    /// True once every core has halted and every buffered store has
    /// performed.
    pub fn quiesced(&self) -> bool {
        self.live == 0
    }

    /// Advances exactly one cycle. With the fast paths on, a started core
    /// is visited only when memory touched it ([`MemorySystem::touched`])
    /// or its wake cycle came: then it is stepped, or credited one cycle by
    /// [`Core::skip`] while the cycle is before its [`Core::due`] and no
    /// memory traffic is queued for it. Every other core is left alone and
    /// credited in bulk, with the leaf its last visit read, when it is
    /// next visited or the machine settles, so the statistics stay
    /// bit-identical to the always-tick loop.
    pub fn tick(&mut self) {
        self.now += 1;
        self.mem.tick();
        for i in 0..self.cores.len() {
            if self.now < self.lanes[i].wake && self.mem.touched() & (1 << i) == 0 {
                #[cfg(debug_assertions)]
                self.check_left_alone(i);
                continue;
            }
            self.visit(i);
        }
    }

    /// Steps core `i` at `now`, or credits it the cycle when it can do
    /// nothing in it, after crediting the cycles it was left alone; then
    /// records its wake cycle and leaf, its part of the quiescence count
    /// and its `core-commit` trip cycle.
    fn visit(&mut self, i: usize) {
        let now = self.now;
        debug_assert!(now > self.start_offsets[i], "core {i} touched before its first cycle");
        self.credit(i, now - 1);
        let (c, lane) = (&mut self.cores[i], &mut self.lanes[i]);
        let id = c.id();
        let parked = c.halted() || c.sleeping();
        let was_live = !(c.halted() && c.sb_len() == 0);
        if self.fast_paths && now < c.due(&self.mem) && !self.mem.has_core_traffic(id) {
            self.skipped_core_ticks += u64::from(!parked);
            let leaf = c.stall_leaf(&self.mem);
            c.skip(1, leaf);
        } else {
            c.tick(now, &mut self.mem);
        }
        self.mem.untouch(id);
        lane.settled = now;
        lane.wake = if !self.fast_paths || self.mem.has_core_traffic(id) {
            now + 1
        } else {
            // The leaf reads `backpressure_ends > now`, which turns at the
            // end of the backpressure.
            let ends = self.mem.backpressure_ends(id);
            c.due(&self.mem).min(if ends > now { ends } else { u64::MAX })
        };
        lane.leaf = (lane.wake > now + 1).then(|| c.stall_leaf(&self.mem));
        self.live -= usize::from(was_live && c.halted() && c.sb_len() == 0);
        let instructions = c.stats.instructions;
        if c.halted() || c.sleeping() {
            lane.commit = (instructions, now);
            lane.trips = u64::MAX;
        } else {
            // A core that woke this cycle has waited since the last.
            if parked {
                lane.commit.1 = now - 1;
            }
            if instructions != lane.commit.0 {
                lane.commit = (instructions, now);
            }
            let stall_cycles = self.mem.config().progress.stall_cycles;
            lane.trips = lane.commit.1.saturating_add(stall_cycles).saturating_add(1);
            self.deadline = self.deadline.min(lane.trips);
        }
    }

    /// Credits core `i` every cycle after its last visit up to `upto` with
    /// the leaf that visit read.
    fn credit(&mut self, i: usize, upto: u64) {
        let lane = &mut self.lanes[i];
        let n = upto.saturating_sub(lane.settled);
        if n > 0 {
            let c = &mut self.cores[i];
            self.skipped_core_ticks += u64::from(!c.halted() && !c.sleeping()) * n;
            c.skip(n, lane.leaf.expect("a core left alone has a recorded leaf"));
            lane.settled = upto;
        }
    }

    /// Credits every core up to `now`, before a snapshot is taken or the
    /// loop changes.
    fn settle(&mut self) {
        for i in 0..self.cores.len() {
            self.credit(i, self.now);
        }
    }

    /// Debug builds: a core the loop leaves alone at `now` has no traffic
    /// queued, is not due, and its recorded leaf is the one a fresh read
    /// gives (which also re-derives, from a ROB scan, that a running core
    /// has nothing to do).
    #[cfg(debug_assertions)]
    fn check_left_alone(&self, i: usize) {
        let (c, now) = (&self.cores[i], self.now);
        if now <= self.start_offsets[i] {
            return;
        }
        assert!(!self.mem.has_core_traffic(c.id()), "core {i} left alone with traffic at {now}");
        assert!(now < c.due(&self.mem), "core {i} left alone past its due cycle at {now}");
        let fresh = c.stall_leaf(&self.mem);
        assert_eq!(self.lanes[i].leaf, Some(fresh), "core {i} left alone on a stale leaf at {now}");
    }

    /// Jumps over the cycles before the earliest at which anything can
    /// happen, and says whether it moved. `now` lands one cycle before the
    /// minimum of `limit`, the next memory event (a delivery, a chaos
    /// storm, or the cycle a held lock would trip the auditor's lock-hold
    /// bound) and every core's wake cycle — its first cycle, or the
    /// earlier of its `due` and the end of its link backpressure, the one
    /// memory-side input of a cycle's leaf that changes with no event — so
    /// each core's leaf holds across the span, and the cores are credited
    /// for it when next visited. Only with the fast paths on, a memory
    /// system that is a pure clock between events
    /// ([`fast_forwardable`](MemorySystem::fast_forwardable)).
    fn jump(&mut self, limit: u64) -> bool {
        // A core's step touches only the core itself, so a tick leaves no
        // core touched.
        debug_assert_eq!(self.mem.touched(), 0, "a core touched since its visit at {}", self.now);
        if !self.fast_paths || !self.mem.fast_forwardable() {
            return false;
        }
        let now = self.now;
        let mut target = limit.min(self.mem.next_event_at().unwrap_or(u64::MAX));
        for lane in &self.lanes {
            target = target.min(lane.wake);
            if target <= now + 1 {
                return false;
            }
        }
        self.now = target - 1;
        self.mem.skip_to(self.now);
        #[cfg(debug_assertions)]
        for i in 0..self.cores.len() {
            self.check_left_alone(i);
        }
        true
    }

    /// A copy of the collected execution — per-core committed data events
    /// plus the coherence layer's write-serialization log — for the
    /// axiomatic checker. Empty unless the machine was built with
    /// [`CheckMode::Tso`]. [`Machine::run`] checks the logs in place.
    pub fn execution(&self) -> Execution {
        Execution {
            cores: self.cores.iter().map(|c| c.data_events().to_vec()).collect(),
            ser: self.mem.ser_events().to_vec(),
        }
    }

    /// Runs the axiomatic TSO + RMW-atomicity checker over an execution,
    /// wrapping any violation in a [`RunFailure::Tso`] whose error carries
    /// the machine snapshot (with the flight-recorder tail when tracing is
    /// on). Public so injection tests can corrupt an execution and prove
    /// the checker is not vacuous.
    pub fn check_execution(&self, x: &Execution) -> Result<(), SimError> {
        axiom::check_model(x, self.model).map(drop).map_err(|v| self.failed(RunFailure::Tso(v)))
    }

    /// The run's error: `cause`, with a snapshot of the whole machine for
    /// diagnostics, taken once every core is settled.
    fn failed(&self, cause: RunFailure) -> SimError {
        let mut tail: Vec<FlightEntry> = Vec::new();
        for (comp, records) in self.trace_tail(FLIGHT_TAIL) {
            tail.extend(records.into_iter().map(|r| FlightEntry {
                comp: comp.clone(),
                cycle: r.cycle,
                seq: r.seq,
                ev: r.ev,
            }));
        }
        // Global order: time first; the per-component sequence and the
        // component name break same-cycle ties deterministically.
        tail.sort_by(|a, b| {
            (a.cycle, a.seq, &a.comp).cmp(&(b.cycle, b.seq, &b.comp))
        });
        let snapshot = Box::new(MachineSnapshot {
            cycle: self.now,
            cores: self.cores.iter().map(|c| c.diag()).collect(),
            mem: self.mem.diag(),
            trace_tail: tail,
        });
        SimError::Run { cause, snapshot }
    }

    /// Every non-empty trace ring in a stable component order: cores
    /// (`core{i}`), then the memory system's components (`l1c{i}`, `dir`,
    /// `noc`). Empty when tracing is off.
    pub fn trace_events(&self) -> Vec<(String, Vec<TraceRecord>)> {
        self.trace_tail(usize::MAX)
    }

    /// [`trace_events`](Self::trace_events) keeping only the last `n`
    /// records per component.
    fn trace_tail(&self, n: usize) -> Vec<(String, Vec<TraceRecord>)> {
        let cores = self.cores.iter().enumerate();
        cores
            .map(|(i, c)| (format!("core{i}"), c.trace_tail(n)))
            .filter(|(_, records)| !records.is_empty())
            .chain(self.mem.trace_events(n))
            .collect()
    }

    /// The recorded trace as Chrome-trace/Perfetto JSON (load it at
    /// `ui.perfetto.dev` or `chrome://tracing`). Contains only metadata
    /// when tracing is off.
    pub fn perfetto_trace(&self) -> String {
        chrome_trace(&self.trace_events())
    }

    /// Runs until quiescence.
    ///
    /// When `MemConfig::audit` is enabled, the invariant auditor audits the
    /// machine after every tick and every jump. Nothing an audit reads
    /// changes inside a jumped span but lock ages, and a jump ends before
    /// the cycle a lock would trip the hold bound, so the landing audit's
    /// verdict is every jumped cycle's. An audit sweeps SWMR and inclusion
    /// only after a cycle that changed cache or directory state, and
    /// checks every lock against the hold bound from the cycle its cache
    /// recorded it opening ([`MemorySystem::audit`]).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Run`], with a [`MachineSnapshot`], for every
    /// failure: [`RunFailure::Timeout`] if the machine does not quiesce
    /// within `max_cycles` — with the deadlock-avoidance watchdog active
    /// this indicates either an undersized budget or a genuine
    /// forward-progress bug, which is exactly what the deadlock test suite
    /// looks for — and [`RunFailure::Audit`] on an invariant violation.
    /// Under the `MemConfig::progress` thresholds, a wedged retry site or a
    /// core that stops committing raises [`RunFailure::NoProgress`] long
    /// before the cycle budget burns down.
    pub fn run(&mut self, max_cycles: u64) -> Result<RunResult, SimError> {
        self.run_to_quiescence(max_cycles)?;
        Ok(RunResult {
            cycles: self.now,
            per_core: self.cores.iter().map(|c| c.stats.clone()).collect(),
            mem: self.mem.stats(),
        })
    }

    /// [`run`](Self::run) without assembling the result, for a campaign
    /// that reads only guest memory.
    pub(crate) fn run_to_quiescence(&mut self, max_cycles: u64) -> Result<(), SimError> {
        let audit_on = self.mem.config().audit.enabled;
        let prog = self.mem.config().progress;
        // Site `core-commit`: every core waits from now, or its first
        // cycle; the visits keep each core's trip cycle, and the scan below
        // runs only when `now` reaches the least of them.
        self.deadline = u64::MAX;
        let cores = self.cores.iter().zip(&mut self.lanes).zip(&self.start_offsets);
        for ((c, lane), &offset) in cores {
            lane.commit = (c.stats.instructions, self.now.max(offset));
            lane.trips = if !c.halted() && !c.sleeping() {
                lane.commit.1.saturating_add(prog.stall_cycles).saturating_add(1)
            } else {
                u64::MAX
            };
            self.deadline = self.deadline.min(lane.trips);
        }
        let mut iters: u64 = 0;
        while self.now < max_cycles {
            // A jump ends where the always-tick loop would be after the
            // same cycle, so every check below sees the same machine.
            if !self.jump(max_cycles.min(self.deadline)) {
                self.tick();
            }
            iters += 1;
            if audit_on {
                if let Err(violation) = self.mem.audit() {
                    self.settle();
                    return Err(self.failed(RunFailure::Audit(violation)));
                }
            }
            if self.now >= self.deadline {
                self.deadline = self.lanes.iter().map(|l| l.trips).min().unwrap_or(u64::MAX);
                // The first core in index order that went `stall_cycles`
                // without a commit.
                if let Some(lane) = self.lanes.iter().find(|l| self.now >= l.trips) {
                    let observed = self.now - lane.commit.1;
                    let threshold = prog.stall_cycles;
                    let r = ProgressReport { site: "core-commit", observed, threshold };
                    self.settle();
                    return Err(self.failed(RunFailure::NoProgress(r)));
                }
            }
            // Memory-side progress sites are polled on an iteration cadence
            // (a pure read — cheap enough to leave always-on without
            // perturbing anything).
            if iters.is_multiple_of(1024) {
                if let Some(r) = self.mem.progress_report() {
                    self.settle();
                    return Err(self.failed(RunFailure::NoProgress(r)));
                }
            }
            // Every core has halted, and a halted core is credited nothing,
            // so the result needs no settling.
            if self.quiesced() {
                for c in self.cores.iter_mut() {
                    c.finalize_stats();
                }
                // Conformance check on the completed execution, read where
                // the cores and the memory system logged it. Gated on the
                // collected events being non-empty rather than on the
                // config so the gate and the collection can never disagree.
                if self.cores.iter().any(|c| !c.data_events().is_empty()) {
                    let cores = self.cores.iter().map(Core::data_events);
                    let verdict = self.checker.check(cores, self.mem.ser_events(), self.model);
                    verdict.map_err(|v| self.failed(RunFailure::Tso(v)))?;
                }
                return Ok(());
            }
        }
        self.settle();
        Err(self.failed(RunFailure::Timeout { max_cycles }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fa_core::AtomicPolicy;
    use fa_isa::{Kasm, Reg};

    fn counter_prog(iters: i64) -> Program {
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

    #[test]
    fn machine_runs_counter_to_completion() {
        let cfg = MachineConfig::default();
        let mut m = Machine::new(cfg, vec![counter_prog(50); 2], GuestMem::new(1 << 16));
        let r = m.run(2_000_000).expect("quiesce");
        assert_eq!(m.guest_mem().load(0x100), 100);
        assert!(r.cycles > 0);
        assert_eq!(r.instructions(), r.per_core.iter().map(|c| c.instructions).sum::<u64>());
        assert!(r.aggregate().apki() > 0.0);
    }

    #[test]
    fn start_offsets_shift_execution() {
        let cfg = MachineConfig {
            core: CoreConfig::default().with_policy(AtomicPolicy::FreeFwd),
            ..MachineConfig::default()
        };
        let mut a = Machine::new(cfg.clone(), vec![counter_prog(20); 2], GuestMem::new(1 << 16));
        let ra = a.run(1_000_000).unwrap();
        let mut b = Machine::new(cfg, vec![counter_prog(20); 2], GuestMem::new(1 << 16));
        b.set_start_offsets(vec![0, 500]);
        let rb = b.run(1_000_000).unwrap();
        assert_eq!(b.guest_mem().load(0x100), 40);
        assert!(rb.cycles >= ra.cycles, "offset run cannot be faster");
    }

    #[test]
    fn a_late_starting_core_has_not_stalled_before_its_first_cycle() {
        // The second core starts after more than `stall_cycles`: its
        // commit-stall baseline is its first cycle, not cycle 0.
        for fast in [false, true] {
            let mut cfg = crate::presets::icelake_like();
            cfg.mem.progress.stall_cycles = 1_000;
            let mut m = Machine::new(cfg, vec![counter_prog(20); 2], GuestMem::new(1 << 16));
            m.set_fast_paths(fast);
            m.set_start_offsets(vec![0, 1_500]);
            m.run(1_000_000).unwrap_or_else(|e| panic!("fast={fast}: {e}"));
            assert_eq!(m.guest_mem().load(0x100), 40);
        }
    }

    /// A spin that never ends: the thread waits on a flag nobody sets.
    fn spin_prog() -> Program {
        let mut k = Kasm::new();
        k.li(Reg::R1, 0x200);
        let top = k.here_label();
        k.ld(Reg::R2, Reg::R1, 0);
        k.beq_imm(Reg::R2, 0, top);
        k.halt();
        k.finish().unwrap()
    }

    #[test]
    fn timeout_reports_progress_and_snapshot() {
        let mut m =
            Machine::new(MachineConfig::default(), vec![spin_prog()], GuestMem::new(1 << 12));
        let err = m.run(10_000).unwrap_err();
        let SimError::Run { cause: RunFailure::Timeout { max_cycles: 10_000 }, snapshot } = &err
        else {
            panic!("expected timeout, got {err:?}")
        };
        // The halted count is derived from the snapshot's cores.
        let text = err.to_string();
        assert_eq!(
            text.lines().next(),
            Some("machine did not quiesce within 10000 cycles (0/1 cores halted)")
        );
        // The diagnostic snapshot names the spinning core's state.
        assert_eq!(snapshot.cycle, 10_000);
        assert_eq!(snapshot.cores.len(), 1);
        assert!(!snapshot.cores[0].halted);
        assert!(snapshot.cores[0].committed > 0, "the spin commits instructions");
        assert!(text.contains("machine state at cycle"));
    }

    #[test]
    fn progress_audit_flags_commitless_livelock() {
        // An endless spin on an audited machine whose no-commit bound is
        // tight enough that a legal memory round-trip exceeds it: the
        // `core-commit` site, not the auditor, converts the stall into a
        // structured report.
        let mut cfg = MachineConfig::default();
        cfg.mem.audit = fa_mem::AuditConfig::on();
        cfg.mem.progress.stall_cycles = 2;
        let mut m = Machine::new(cfg, vec![spin_prog()], GuestMem::new(1 << 12));
        let err = m.run(100_000).unwrap_err();
        match err {
            SimError::Run {
                cause:
                    RunFailure::NoProgress(ProgressReport {
                        site: "core-commit",
                        observed,
                        threshold: 2,
                    }),
                ..
            } => assert!(observed > 2),
            other => panic!("expected NoProgress, got {other:?}"),
        }
    }

    /// A two-core kernel with long quiescent-wait spans: core 0 sleeps in
    /// MonitorWait on a flag line until its monitor timeout or until core 1
    /// (delayed by a start offset) finally writes it, then both count.
    fn sleepy_pair() -> Vec<Program> {
        let mut waiter = Kasm::new();
        waiter.li(Reg::R1, 0x200);
        let top = waiter.here_label();
        waiter.monitor_wait(Reg::R1, 0);
        waiter.ld(Reg::R2, Reg::R1, 0);
        waiter.beq_imm(Reg::R2, 0, top);
        waiter.halt();
        let mut setter = Kasm::new();
        setter.li(Reg::R1, 0x200);
        setter.li(Reg::R2, 1);
        setter.st(Reg::R2, Reg::R1, 0);
        setter.halt();
        vec![waiter.finish().unwrap(), setter.finish().unwrap()]
    }

    /// Runs `programs` with the given offsets, fast paths on or off, and
    /// returns the full result plus the flag value.
    fn run_pair(fast: bool, offsets: Vec<u64>) -> (RunResult, fa_isa::Word) {
        let mut m =
            Machine::new(MachineConfig::default(), sleepy_pair(), GuestMem::new(1 << 12));
        m.set_fast_paths(fast);
        m.set_start_offsets(offsets);
        let r = m.run(2_000_000).expect("quiesce");
        (r, m.guest_mem().load(0x200))
    }

    #[test]
    fn fast_paths_preserve_results_bitwise() {
        // The setter starts 20k cycles late, so the waiter cycles through
        // several full MonitorWait sleep periods — exactly the spans the
        // jump elides.
        for offsets in [vec![0, 20_000], vec![0, 0], vec![300, 0]] {
            let (slow, slow_flag) = run_pair(false, offsets.clone());
            let (fast, fast_flag) = run_pair(true, offsets.clone());
            assert_eq!(slow.cycles, fast.cycles, "offsets {offsets:?}");
            assert_eq!(slow.per_core, fast.per_core, "offsets {offsets:?}");
            assert_eq!(slow.mem, fast.mem, "offsets {offsets:?}");
            assert_eq!(slow_flag, fast_flag);
            assert_eq!(fast_flag, 1);
        }
    }

    #[test]
    fn a_core_waking_from_sleep_has_waited_only_since_it_woke() {
        // The waiter sleeps for a whole monitor timeout (1 024 cycles) at a
        // time, over twice the no-commit bound: its wait restarts when it
        // wakes, not when it fell asleep.
        for fast in [false, true] {
            let mut cfg = MachineConfig::default();
            cfg.mem.progress.stall_cycles = 500;
            let mut m = Machine::new(cfg, sleepy_pair(), GuestMem::new(1 << 12));
            m.set_fast_paths(fast);
            m.set_start_offsets(vec![0, 5_000]);
            let r = m.run(2_000_000).unwrap_or_else(|e| panic!("fast={fast}: {e}"));
            assert!(r.per_core[0].monitor_sleeps > 2, "fast={fast}: the waiter must sleep");
        }
    }

    #[test]
    fn fast_paths_skip_sleep_heavy_wall_work() {
        // Not a timing assertion (CI boxes vary) — a structural one: the
        // sleep-heavy run must still account every sleep cycle while the
        // fast loop skips the ticks.
        let (fast, _) = run_pair(true, vec![0, 50_000]);
        let sleep: u64 = fast.per_core.iter().map(|c| c.sleep_cycles).sum();
        assert!(sleep > 10_000, "waiter must have slept through the delay, got {sleep}");
    }

    #[test]
    fn cpi_stack_conserves_cycles_across_policies_and_nocs() {
        // The one-leaf-per-cycle invariant: for every policy, on both
        // crossbar policies, every core's leaf sum equals its cycle count exactly.
        use fa_trace::CpiLeaf;
        for policy in [
            AtomicPolicy::FencedBaseline,
            AtomicPolicy::FencedSpec,
            AtomicPolicy::Free,
            AtomicPolicy::FreeFwd,
        ] {
            for contended in [false, true] {
                let mut cfg = MachineConfig {
                    core: CoreConfig::default().with_policy(policy),
                    ..MachineConfig::default()
                };
                if contended {
                    cfg.mem.noc = fa_mem::NocConfig::contended(1);
                }
                let mut m =
                    Machine::new(cfg, vec![counter_prog(30); 2], GuestMem::new(1 << 16));
                let r = m.run(2_000_000).expect("quiesce");
                for (i, c) in r.per_core.iter().enumerate() {
                    assert_eq!(
                        c.cpi.total(),
                        c.cycles,
                        "{policy:?} contended={contended} core {i}: leaf sum != cycles"
                    );
                    assert!(
                        c.cpi.get(CpiLeaf::Commit) > 0,
                        "{policy:?} contended={contended} core {i}: no commit cycles?"
                    );
                }
            }
        }
    }

    #[test]
    fn cpi_conservation_holds_through_fast_forwarded_sleep() {
        // Jumped sleep spans are credited to the idle leaf; the
        // invariant must hold bit-exactly with the fast paths on and off,
        // including the span the setter's 20k-cycle start offset creates.
        use fa_trace::CpiLeaf;
        for fast in [false, true] {
            let (r, flag) = run_pair(fast, vec![0, 20_000]);
            assert_eq!(flag, 1);
            for (i, c) in r.per_core.iter().enumerate() {
                assert_eq!(c.cpi.total(), c.cycles, "fast={fast} core {i}");
            }
            let idle = r.per_core[0].cpi.get(CpiLeaf::Idle);
            assert!(idle > 10_000, "waiter's sleep span must land on idle, got {idle}");
        }
    }

    #[test]
    fn atomic_latency_split_sums_to_exec_exactly() {
        // acquire + transfer + park + local == exec for committed atomics,
        // by construction (the split is staged on the AQ entry and folded
        // in only at store_unlock drain).
        for policy in [AtomicPolicy::FencedBaseline, AtomicPolicy::Free, AtomicPolicy::FreeFwd]
        {
            let cfg = MachineConfig {
                core: CoreConfig::default().with_policy(policy),
                ..MachineConfig::default()
            };
            let mut m = Machine::new(cfg, vec![counter_prog(50); 2], GuestMem::new(1 << 16));
            let r = m.run(2_000_000).expect("quiesce");
            let mut saw_atomics = false;
            for (i, c) in r.per_core.iter().enumerate() {
                let split = c.atomic_lock_acquire_cycles
                    + c.atomic_xfer_cycles.iter().sum::<u64>()
                    + c.atomic_dir_park_cycles
                    + c.atomic_local_cycles;
                assert_eq!(
                    split, c.atomic_exec_cycles,
                    "{policy:?} core {i}: split must sum to exec"
                );
                saw_atomics |= c.atomic_exec_cycles > 0;
            }
            assert!(saw_atomics, "{policy:?}: counter kernel must execute atomics");
        }
    }

    #[test]
    fn tracing_does_not_perturb_results() {
        // The tentpole invariant: FA_TRACE=off|flight|full must produce
        // bit-identical cycles, stats and guest memory — histograms are
        // always-on counters and event recording is strictly passive.
        let run_with = |mode: fa_trace::TraceMode| {
            let cfg = MachineConfig::default().with_trace(mode);
            let mut m = Machine::new(cfg, vec![counter_prog(40); 2], GuestMem::new(1 << 16));
            let r = m.run(2_000_000).expect("quiesce");
            (r, m.guest_mem().load(0x100), m.trace_events())
        };
        let (off, off_mem, off_events) = run_with(fa_trace::TraceMode::Off);
        let (flight, flight_mem, _) = run_with(fa_trace::TraceMode::Flight);
        let (full, full_mem, full_events) = run_with(fa_trace::TraceMode::Full);
        assert_eq!(off.cycles, flight.cycles);
        assert_eq!(off.cycles, full.cycles);
        assert_eq!(off.per_core, flight.per_core);
        assert_eq!(off.per_core, full.per_core);
        assert_eq!(off.mem, flight.mem);
        assert_eq!(off.mem, full.mem);
        assert_eq!(off_mem, flight_mem);
        assert_eq!(off_mem, full_mem);
        // Off records nothing; full records across component classes.
        assert!(off_events.is_empty());
        let comps: Vec<&str> = full_events.iter().map(|(c, _)| c.as_str()).collect();
        assert!(comps.contains(&"core0"), "got components {comps:?}");
        assert!(comps.contains(&"l1c0"), "got components {comps:?}");
        assert!(comps.contains(&"noc"), "got components {comps:?}");
        // The always-on histograms actually populated.
        let agg = full.aggregate();
        assert!(agg.atomic_exec_hist.count > 0, "atomics must record exec latency");
        assert_eq!(agg.atomic_exec_hist, off.aggregate().atomic_exec_hist);
    }

    #[test]
    fn checking_does_not_perturb_results() {
        // The checker's collection invariant: FA_CHECK=off|tso must produce
        // bit-identical cycles, stats and guest memory — event capture is
        // strictly passive, and the check itself runs only after quiescence.
        let run_with = |mode: CheckMode| {
            let cfg = MachineConfig::default().with_check(mode);
            let mut m = Machine::new(cfg, vec![counter_prog(40); 2], GuestMem::new(1 << 16));
            let r = m.run(2_000_000).expect("quiesce");
            let x = m.execution();
            (r, m.guest_mem().load(0x100), x)
        };
        let (off, off_mem, off_x) = run_with(CheckMode::Off);
        let (tso, tso_mem, tso_x) = run_with(CheckMode::Tso);
        assert_eq!(off.cycles, tso.cycles);
        assert_eq!(off.per_core, tso.per_core);
        assert_eq!(off.mem, tso.mem);
        assert_eq!(off_mem, tso_mem);
        // Off collects nothing; tso collects both sides of the execution.
        assert!(off_x.cores.iter().all(|c| c.is_empty()) && off_x.ser.is_empty());
        assert!(tso_x.cores.iter().all(|c| !c.is_empty()));
        assert!(!tso_x.ser.is_empty());
        // And the collected execution passes the checker standalone too.
        crate::axiom::check(&tso_x).expect("counter kernel must conform");
    }

    #[test]
    fn half_configured_check_is_normalized_to_both() {
        // Setting only one side of the check config would collect a
        // half-execution and raise false violations; Machine::new must
        // force both sides on.
        let mut cfg = MachineConfig::default();
        cfg.core.check = CheckMode::Tso;
        let mut m = Machine::new(cfg, vec![counter_prog(5)], GuestMem::new(1 << 16));
        m.run(2_000_000).expect("normalized run must pass the checker");
        let x = m.execution();
        assert!(!x.ser.is_empty(), "mem side must have been switched on");
    }

    #[test]
    fn checked_run_rejects_corrupted_execution() {
        // Machine::check_execution is the injection surface: corrupt one
        // committed store's value and the co-wf axiom must fire, wrapped in
        // a RunFailure::Tso carrying a snapshot.
        let cfg = MachineConfig::default().with_check(CheckMode::Tso);
        let mut m = Machine::new(cfg, vec![counter_prog(10); 2], GuestMem::new(1 << 16));
        m.run(2_000_000).expect("clean run");
        let mut x = m.execution();
        for ev in x.cores[0].iter_mut() {
            if let fa_trace::DataEvent::StoreUnlock { value, .. } = ev {
                *value += 1;
                break;
            }
        }
        let err = m.check_execution(&x).unwrap_err();
        let SimError::Run { cause: RunFailure::Tso(v), .. } = &err else {
            panic!("expected Tso, got {err:?}")
        };
        let axiom = v.axiom;
        assert!(
            axiom == "co-wf" || axiom == "rf-wf",
            "value corruption must trip a well-formedness axiom, got {axiom}"
        );
        assert!(err.snapshot().is_some());
    }

    #[test]
    fn audit_violation_carries_flight_recorder_tail() {
        // An injected failure on an audited machine (a no-commit bound
        // tight enough that a legal memory round-trip trips it) must
        // surface the last trace events per component inside the error's
        // snapshot.
        let mut cfg = MachineConfig::default().with_trace(fa_trace::TraceMode::Flight);
        cfg.mem.audit = fa_mem::AuditConfig::on();
        cfg.mem.progress.stall_cycles = 2;
        let mut m = Machine::new(cfg, vec![spin_prog()], GuestMem::new(1 << 12));
        let err = m.run(100_000).unwrap_err();
        let snapshot = err.snapshot().expect("progress errors carry a snapshot");
        assert!(
            !snapshot.trace_tail.is_empty(),
            "flight recorder must capture events leading up to the violation"
        );
        // Ordered by (cycle, seq, comp).
        for w in snapshot.trace_tail.windows(2) {
            assert!(
                (w[0].cycle, w[0].seq, &w[0].comp) <= (w[1].cycle, w[1].seq, &w[1].comp),
                "tail must be sorted"
            );
        }
        let text = err.to_string();
        assert!(text.contains("flight recorder tail"), "got: {text}");
        assert!(text.contains("uop.dispatch") || text.contains("noc."), "got: {text}");
        // The tail also exports as JSON.
        let json = fa_trace::flight_json(&snapshot.trace_tail);
        assert!(json.starts_with('[') && json.ends_with(']'));
        assert!(json.contains("\"comp\":"));
    }

    #[test]
    fn perfetto_export_has_chrome_trace_shape() {
        let cfg = MachineConfig::default().with_trace(fa_trace::TraceMode::Full);
        let mut m = Machine::new(cfg, vec![counter_prog(10); 2], GuestMem::new(1 << 16));
        m.run(2_000_000).expect("quiesce");
        let json = m.perfetto_trace();
        let events = fa_trace::validate_chrome_trace(&json).expect("valid chrome trace");
        assert!(events > 0, "a traced run must export events");
        assert!(json.contains("\"traceEvents\""));
        assert!(json.contains("atomic.load_lock"), "atomics must appear in the export");
    }

    #[test]
    fn untraced_export_validates_to_zero_events() {
        let mut m = Machine::new(MachineConfig::default(), vec![counter_prog(10); 2], GuestMem::new(1 << 16));
        m.run(2_000_000).expect("quiesce");
        assert_eq!(fa_trace::validate_chrome_trace(&m.perfetto_trace()), Ok(0));
    }

    #[test]
    fn audited_run_matches_unaudited_run() {
        // Auditing must observe, never perturb: identical results with the
        // auditor on and off.
        let cfg = MachineConfig::default();
        let mut a = Machine::new(cfg.clone(), vec![counter_prog(40); 2], GuestMem::new(1 << 16));
        let ra = a.run(2_000_000).expect("clean run");
        let mut audited_cfg = cfg;
        audited_cfg.mem.audit = fa_mem::AuditConfig::on();
        let mut b =
            Machine::new(audited_cfg, vec![counter_prog(40); 2], GuestMem::new(1 << 16));
        let rb = b.run(2_000_000).expect("audited run must pass");
        assert_eq!(ra.cycles, rb.cycles);
        assert_eq!(a.guest_mem().load(0x100), b.guest_mem().load(0x100));
        // Only audits measure lock holds: the audited run saw its
        // fetch_adds', each short of its release cycle.
        assert_eq!(ra.mem.audit.max_lock_hold_seen, 0);
        assert!(rb.mem.audit.max_lock_hold_seen > 0);
        let longest = fa_mem::CoreMemStats::merged(&rb.mem.cores).lock_hold_hist.max;
        let seen = rb.mem.audit.max_lock_hold_seen;
        assert!(seen < longest, "audit saw {seen}, longest hold {longest}");
    }

    #[test]
    fn back_to_back_rmws_on_one_line_are_separate_holds() {
        // Each store_unlock drains in the cycle the next load_lock
        // performs: the line is released and re-taken within one cycle,
        // which the lock-hold bound must see as two short holds. The
        // bound clears the longest real hold: 6 cycles, or ~170 under
        // FreeFwd, whose forwarding chains (up to `fwd_chain_max` RMWs)
        // keep the count above zero.
        for preset in [crate::presets::icelake_like(), crate::presets::tiny_machine()] {
            for policy in AtomicPolicy::ALL {
                let mut cfg = preset.clone();
                cfg.core = cfg.core.with_policy(policy);
                cfg.mem.audit =
                    fa_mem::AuditConfig { max_lock_hold: 200, ..fa_mem::AuditConfig::on() };
                let mut m = Machine::new(cfg, vec![counter_prog(2_000)], GuestMem::new(1 << 16));
                let r = m.run(10_000_000).unwrap_or_else(|e| panic!("{policy:?}: {e}"));
                assert_eq!(m.guest_mem().load(0x100), 2_000);
                let longest = fa_mem::CoreMemStats::merged(&r.mem.cores).lock_hold_hist.max;
                let seen = r.mem.audit.max_lock_hold_seen;
                assert!(seen < longest, "{policy:?}: audit saw {seen}, longest hold {longest}");
            }
        }
    }
}
