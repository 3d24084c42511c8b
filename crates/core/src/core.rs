//! The out-of-order core pipeline.
//!
//! A unified-ROB model: the program is decoded once into a micro-op table;
//! fetch/rename dispatch micro-ops from it into the ROB; an event-driven
//! scheduler (the `sched` module) wakes exactly the consumers of each
//! completing producer and issues from an age-ordered ready list, so no
//! stage walks the window; loads and stores go through the load/store queue
//! (the `lsq` module: disambiguation, StoreSet prediction and store-to-load
//! forwarding); commit retires in order, moving stores into the store
//! buffer, which drains to the memory system under TSO. Atomic
//! RMWs follow one of the four [`AtomicPolicy`] flavours; the Atomic Queue
//! tracks their cache-line locks and forwarding responsibilities, and the
//! watchdog breaks the deadlocks that fence-free execution can create
//! (§3.2.5 of the paper).

use crate::aq::{load_lock_of, AqState, AtomicQueue};
use crate::config::{
    AtomicPolicy, CoreConfig, ALU_LAT, FWD_LAT, MONITOR_TIMEOUT, MUL_LAT, PAUSE_LAT, REDIRECT_PENALTY,
};
use crate::lsq::{occupies_lq, wild_addr, Forward, LoadState, Lsq, SbEntry};
use crate::predictor::{BranchPredictor, StoreSets};
use crate::rob::{Entry, Rob, Seq, Slot, SrcVal};
use crate::sched::{Blocker, Sched, Unblock};
use crate::stats::{CoreStats, SquashCause};
use fa_isa::reg::NUM_REGS;
use fa_isa::uop::SrcRegs;
use fa_isa::{line_of, Instr, Program, Reg, Uop, UopKind, Word};
use fa_mem::privcache::ReqOutcome;
use fa_mem::{CoreId, CoreNotice, CoreResp, Line, MemorySystem};
use fa_trace::{write_id, CpiLeaf, DataEvent, MemOrder, TraceBuf, TraceEvent, TraceRecord};
use std::fmt;

/// A point-in-time snapshot of a core's hang-relevant pipeline state,
/// attached to timeout diagnostics by the machine driver.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CoreDiag {
    /// Terminal halt reached.
    pub halted: bool,
    /// Asleep in MonitorWait.
    pub sleeping: bool,
    /// Instructions committed so far.
    pub committed: u64,
    /// In-flight micro-ops.
    pub rob_len: usize,
    /// Committed stores waiting to perform.
    pub sb_len: usize,
    /// Consecutive cycles the oldest atomic has waited (watchdog input).
    pub wd_counter: u64,
    /// `(seq, pc, kind, issued, done)` of the ROB-head micro-op, if any.
    pub rob_head: Option<(u64, u32, String, bool, bool)>,
    /// What keeps the ROB head, an unissued load with its address, from
    /// issuing: the core-local blocker, else the store a `load_lock` may
    /// not forward from, else `cache retry`.
    pub head_blocked: Option<String>,
    /// The running core is stalled: its [`Core::due`] cycle, before which
    /// [`Core::skip`] stands in for every tick unless memory traffic
    /// arrives (`u64::MAX`: only traffic ends it).
    pub stalled_until: Option<u64>,
    /// Cache lines locked on behalf of this core's Atomic Queue.
    pub aq_locked: Vec<Line>,
}

impl fmt::Display for CoreDiag {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.halted {
            return write!(f, "halted after {} instructions", self.committed);
        }
        write!(
            f,
            "{}{} committed, rob {}, sb {}, wd {}",
            if self.sleeping { "sleeping, " } else { "" },
            self.committed,
            self.rob_len,
            self.sb_len,
            self.wd_counter
        )?;
        if let Some((seq, pc, kind, issued, done)) = &self.rob_head {
            write!(f, ", head µop #{seq} {kind} @pc {pc} (issued={issued} done={done})")?;
        }
        if let Some(why) = &self.head_blocked {
            write!(f, ", blocked by {why}")?;
        }
        match self.stalled_until {
            Some(u64::MAX) => write!(f, ", stalled until traffic")?,
            Some(cycle) => write!(f, ", stalled until {cycle}")?,
            None => {}
        }
        if !self.aq_locked.is_empty() {
            write!(f, ", locked:")?;
            for l in &self.aq_locked {
                write!(f, " {l:#x}")?;
            }
        }
        Ok(())
    }
}

/// Where a squash that refetches `e`'s instruction starts: the sequence
/// number of its first micro-op, and its pc.
fn refetch_point(e: &Entry) -> (Seq, u32) {
    (e.seq - e.uop.slot as u64, e.uop.pc)
}

/// Why the front-end stopped fetching.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum FetchBarrier {
    /// A `Halt` was fetched; nothing follows.
    Halt,
    /// A `MonitorWait` was fetched; fetch resumes at wake.
    Monitor,
}

/// The structural limit fetch stopped on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum FetchLimit {
    /// The ROB has no room for the next instruction.
    Rob,
    /// The load or store queue has no room for it.
    Lsq,
    /// It is an RMW and the Atomic Queue is full.
    Aq,
}

/// Execution state of the core.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum CoreState {
    /// Executing normally.
    Running,
    /// Asleep in MonitorWait.
    Sleeping { line: Line, wake_at: u64, resume_pc: u32 },
    /// Halted (terminal).
    Halted,
}

/// One instruction of the decoded program: the instruction itself, its
/// micro-ops' place in the table and the queue entries they need.
#[derive(Clone, Copy, Debug)]
struct DecodedInstr {
    instr: Instr,
    /// Index of the first micro-op in [`Core::uops`].
    first: u32,
    /// Number of micro-ops.
    len: u8,
    /// Load-queue entries needed (load-class micro-ops and MonitorWait).
    loads: u8,
    /// Store-queue entries needed.
    stores: u8,
}

/// One micro-op of the decoded program, its operands read off once.
#[derive(Clone, Copy, Debug)]
struct DecodedUop {
    uop: Uop,
    srcs: SrcRegs,
    /// The destination rename tracks: `None` for the zero register too.
    dst: Option<Reg>,
}

/// One simulated out-of-order core.
///
/// Drive it by calling [`Core::tick`] once per cycle with the shared
/// [`MemorySystem`]; query progress via [`Core::halted`] and
/// [`Core::stats`].
#[derive(Debug)]
pub struct Core {
    id: CoreId,
    cfg: CoreConfig,
    /// The program decoded once: per instruction, then the micro-ops back
    /// to back.
    decoded: Vec<DecodedInstr>,
    uops: Vec<DecodedUop>,
    mem_bytes: u64,

    // Front end.
    fetch_pc: u32,
    fetch_stall_until: u64,
    fetch_barrier: Option<FetchBarrier>,
    next_seq: Seq,

    // Rename + architectural state.
    rename: [Option<Slot>; NUM_REGS],
    arch_regs: [Word; NUM_REGS],

    // Back end.
    rob: Rob,
    sched: Sched,
    lsq: Lsq,
    aq: AtomicQueue,
    bp: BranchPredictor,
    ss: StoreSets,

    state: CoreState,
    wd_counter: u64,

    /// The structural limit fetch stopped on in the last full step, for
    /// cycle accounting.
    fetch_blocked: Option<FetchLimit>,
    /// While `now` is below this and no memory traffic arrives, a step
    /// would repeat the last one exactly ([`Core::skip`]); zero when the
    /// core can act.
    stalled_until: u64,
    /// Issue attempts and issues so far (tests; not a statistic).
    issue_attempts: (u64, u64),

    /// Buffers reused every tick, so the steady state allocates nothing:
    /// this cycle's memory notices and responses (swapped with the memory
    /// system's outboxes), and the scheduler's per-stage work lists; and
    /// one reused by every reset, the micro-ops of the instruction being
    /// decoded.
    notices: Vec<CoreNotice>,
    responses: Vec<CoreResp>,
    work: Vec<Slot>,
    resolved_stores: Vec<Slot>,
    decoding: Vec<Uop>,

    /// Statistics, live during the run.
    pub stats: CoreStats,
    /// Structured trace ring for pipeline events (µop lifecycle, atomic
    /// lock windows, squashes). A no-op unless `cfg.trace` enables it.
    trace: TraceBuf,
    /// Committed data accesses in program order, for the axiomatic
    /// conformance checker. Empty unless `cfg.check` is on; strictly
    /// passive — nothing in the pipeline reads it.
    dlog: Vec<DataEvent>,
}

/// Empty storage: a core with no program, which [`Core::reset`] makes a
/// core.
impl Default for Core {
    fn default() -> Core {
        Core {
            id: CoreId(0),
            cfg: CoreConfig::default(),
            decoded: Vec::new(),
            uops: Vec::new(),
            mem_bytes: 0,
            fetch_pc: 0,
            fetch_stall_until: 0,
            fetch_barrier: None,
            next_seq: 0,
            rename: [None; NUM_REGS],
            arch_regs: [0; NUM_REGS],
            rob: Rob::default(),
            sched: Sched::default(),
            lsq: Lsq::default(),
            aq: AtomicQueue::default(),
            bp: BranchPredictor::default(),
            ss: StoreSets::default(),
            state: CoreState::Running,
            wd_counter: 0,
            fetch_blocked: None,
            stalled_until: 0,
            issue_attempts: (0, 0),
            notices: Vec::new(),
            responses: Vec::new(),
            work: Vec::new(),
            resolved_stores: Vec::new(),
            decoding: Vec::new(),
            stats: CoreStats::default(),
            trace: TraceBuf::default(),
            dlog: Vec::new(),
        }
    }
}

impl Core {
    /// Creates a core executing `prog` against a guest memory of
    /// `mem_bytes` (used to detect wrong-path wild addresses): a
    /// [`reset`](Self::reset) of empty storage.
    pub fn new(id: CoreId, cfg: CoreConfig, prog: Program, mem_bytes: u64) -> Core {
        let mut core = Core::default();
        core.reset(id, &cfg, &prog, mem_bytes);
        core
    }

    /// Puts the core in exactly the state [`new`](Self::new) builds for
    /// these arguments, keeping the storage of every buffer and table: the
    /// decode tables, the ROB ring, the scheduler lists, the load/store
    /// queue, the AQ, the predictor tables, the trace ring and the data log.
    pub fn reset(&mut self, id: CoreId, cfg: &CoreConfig, prog: &Program, mem_bytes: u64) {
        let Core {
            id: my_id, cfg: my_cfg, decoded, uops, mem_bytes: my_mem_bytes, fetch_pc,
            fetch_stall_until, fetch_barrier, next_seq, rename, arch_regs, rob, sched, lsq, aq, bp,
            ss, state, wd_counter, fetch_blocked, stalled_until, issue_attempts, notices, responses,
            work, resolved_stores, decoding: of, stats, trace, dlog,
        } = self;
        (*my_id, *my_mem_bytes) = (id, mem_bytes);
        my_cfg.clone_from(cfg);
        decoded.clear();
        uops.clear();
        decoded.reserve(prog.len());
        uops.reserve(prog.len());
        for (pc, &instr) in prog.iter().enumerate() {
            of.clear();
            fa_isa::decode_into(instr, pc as u32, of);
            let count = |pred: fn(&Uop) -> bool| of.iter().filter(|u| pred(u)).count() as u8;
            decoded.push(DecodedInstr {
                instr,
                first: uops.len() as u32,
                len: of.len() as u8,
                loads: count(occupies_lq),
                stores: count(Uop::is_store_class),
            });
            uops.extend(of.iter().map(|&uop| DecodedUop {
                uop,
                srcs: uop.srcs(),
                dst: uop.dst().filter(|d| !d.is_zero()),
            }));
        }
        (*fetch_pc, *fetch_stall_until, *fetch_barrier, *next_seq) = (0, 0, None, 1);
        (*rename, *arch_regs) = ([None; NUM_REGS], [0; NUM_REGS]);
        rob.reset(cfg.rob_size);
        sched.reset(cfg);
        lsq.reset(cfg);
        aq.reset(cfg.aq_size);
        bp.reset(cfg.bp_table_bits, cfg.bp_history_bits);
        ss.reset(10);
        (*state, *wd_counter, *fetch_blocked) = (CoreState::Running, 0, None);
        (*stalled_until, *issue_attempts) = (0, (0, 0));
        notices.clear();
        responses.clear();
        work.clear();
        resolved_stores.clear();
        *stats = CoreStats::default();
        trace.reset(&cfg.trace);
        dlog.clear();
    }

    /// Committed data accesses in program order (empty unless
    /// `cfg.check` is on).
    pub fn data_events(&self) -> &[DataEvent] {
        &self.dlog
    }

    /// The last `n` records of this core's trace ring, `usize::MAX` for
    /// all of them (empty unless `cfg.trace` enables recording).
    pub fn trace_tail(&self, n: usize) -> Vec<TraceRecord> {
        self.trace.tail(n)
    }

    /// True once `Halt` has committed.
    pub fn halted(&self) -> bool {
        self.state == CoreState::Halted
    }

    /// True while the core sleeps in MonitorWait.
    pub fn sleeping(&self) -> bool {
        matches!(self.state, CoreState::Sleeping { .. })
    }

    /// The first cycle at which [`Core::tick`] must run if no memory
    /// traffic for the core arrives first: 0 while its store buffer can
    /// drain, else never for a halted core, the monitor timeout for a
    /// sleeper and the end of its stall for a running core (0 when it can
    /// act). A parked head's line turns writable with no traffic for the
    /// core, so the drain test comes first and reads the cache.
    pub fn due(&self, mem: &MemorySystem) -> u64 {
        match self.state {
            _ if !self.lsq.sb_waits_for_cache(self.id, mem) => 0,
            CoreState::Halted => u64::MAX,
            CoreState::Sleeping { wake_at, .. } => wake_at,
            CoreState::Running => self.stalled_until,
        }
    }

    /// The leaf a cycle before [`Core::due`] with no memory traffic for the
    /// core takes at `mem.now()`: the `cycle_leaf` of a cycle that commits
    /// nothing, which [`Core::skip`] credits. Its only memory-side inputs
    /// are the core's directory-allocation wait and its link backpressure,
    /// so it holds until one of those moves. Debug builds re-derive from a
    /// ROB scan that a running core's step would find nothing to do.
    pub fn stall_leaf(&self, mem: &MemorySystem) -> CpiLeaf {
        #[cfg(debug_assertions)]
        if self.state == CoreState::Running {
            let stalls = self.step_would_stall(mem.now(), mem);
            assert!(stalls, "core {} skipped with work at {}", self.id.0, mem.now());
        }
        self.cycle_leaf(false, mem)
    }

    /// Credits `n` cycles, each before [`Core::due`] with no memory traffic
    /// for the core and each taking `leaf` (its
    /// [`stall_leaf`](Self::stall_leaf)), exactly as `n` ticks would:
    /// nothing for a halted core; cycles and sleep cycles for a sleeper;
    /// cycles and the watchdog count for a stalled core. Nothing else the
    /// credit reads changes between steps, so a driver may credit a span
    /// when it next steps the core.
    pub fn skip(&mut self, n: u64, leaf: CpiLeaf) {
        match self.state {
            CoreState::Halted => return,
            CoreState::Sleeping { .. } => self.stats.sleep_cycles += n,
            CoreState::Running => {
                let fires = self.watchdog_counts(n);
                debug_assert!(!fires, "the stall horizon stops short of the watchdog");
            }
        }
        self.stats.cycles += n;
        self.stats.cpi.add(leaf, n);
    }

    /// The core's id.
    pub fn id(&self) -> CoreId {
        self.id
    }

    /// Finalizes predictor statistics into [`Core::stats`]. Call once at the
    /// end of a run.
    pub fn finalize_stats(&mut self) {
        self.stats.branch_lookups = self.bp.lookups;
        self.stats.branch_mispredicts = self.bp.mispredicts;
    }

    /// Advances the core one cycle.
    pub fn tick(&mut self, now: u64, mem: &mut MemorySystem) {
        let mut notices = std::mem::take(&mut self.notices);
        let mut responses = std::mem::take(&mut self.responses);
        mem.drain_notices(self.id, &mut notices);
        mem.drain_responses(self.id, &mut responses);
        self.step(now, mem, &notices, &responses);
        self.notices = notices;
        self.responses = responses;
        #[cfg(debug_assertions)]
        {
            self.sched.check_scheduler_indices(&self.rob);
            self.lsq.check_indices(&self.rob, self.cfg.policy.fenced());
            // Every event ran before the issue walk, so a load still on the
            // blocked list would fail a fresh attempt for the same reason.
            for &(slot, why) in &self.sched.blocked {
                let now = self.load_blocker(slot).err();
                assert_eq!(now, Some(why), "blocked load #{}", slot.seq);
            }
        }
    }

    /// Re-derives, from a ROB scan and the queue occupancies, that a step
    /// at `now` would find nothing to do ([`Core::skip`]'s debug check on a
    /// running core, once per credited span, at its last cycle).
    #[cfg(debug_assertions)]
    fn step_would_stall(&self, now: u64, mem: &MemorySystem) -> bool {
        let nothing_to_do = self.rob.iter().all(|(slot, e)| {
            let awaits_agen = crate::sched::awaits_agen(e);
            let expires = !e.done && e.done_at.is_some_and(|at| at <= now);
            // A load waiting for an event is no work; any other would reach
            // the cache or poll its blocker.
            let waits_for_event = |slot| {
                matches!(e.uop.kind, UopKind::Load { .. } | UopKind::LoadLock { .. })
                    && self.load_blocker(slot).err().and_then(Blocker::ended_by).is_some()
            };
            let issuable = crate::sched::issuable(e) && !waits_for_event(slot);
            // A done producer's consumers wake at the next step.
            let wakes = e.srcs[..e.nsrcs as usize].iter().any(|s| match *s {
                SrcVal::Wait { seq } => self.rob.get(seq).is_some_and(|p| p.done),
                SrcVal::Ready(_) => false,
            });
            !(awaits_agen || expires || issuable || wakes)
        });
        let fetch_stopped = self.fetch_barrier.is_some()
            || now < self.fetch_stall_until
            || self.fetch_limit(self.fetch_pc).is_some();
        let watchdog_due = self.watchdog_armed() && self.wd_counter >= self.cfg.watchdog_threshold;
        self.state == CoreState::Running
            && !mem.has_core_traffic(self.id)
            && nothing_to_do
            && self.lsq.sb_waits_for_cache(self.id, mem)
            && !self.head_retires()
            && fetch_stopped
            && !watchdog_due
    }

    /// One cycle, given the notices and responses the memory system
    /// delivered for it.
    fn step(
        &mut self,
        now: u64,
        mem: &mut MemorySystem,
        notices: &[CoreNotice],
        responses: &[CoreResp],
    ) {
        if self.state == CoreState::Halted {
            // The pipeline is dead but committed stores must still drain;
            // with the ROB empty every read response is an orphan.
            debug_assert!(self.rob.is_empty());
            self.handle_responses(responses, now, mem);
            self.drain_store_buffer(now, mem);
            return;
        }
        self.fetch_blocked = None;
        self.stalled_until = 0;

        // Sleeping: an idle cycle that drains the SB and watches for the
        // wake condition.
        if let CoreState::Sleeping { line, wake_at, resume_pc } = self.state {
            let leaf = self.stall_leaf(mem);
            self.skip(1, leaf);
            debug_assert!(self.rob.is_empty());
            self.handle_responses(responses, now, mem);
            self.drain_store_buffer(now, mem);
            let line_written = notices
                .iter()
                .any(|n| matches!(n, CoreNotice::LineLost { line: l, .. } if *l == line));
            if line_written || now >= wake_at {
                self.state = CoreState::Running;
                self.fetch_barrier = None;
                self.fetch_pc = resume_pc;
                self.fetch_stall_until = now + 1;
            }
            return;
        }
        self.stats.cycles += 1;

        // 1. Invalidation-driven squash of speculatively performed loads
        //    (the TSO load→load repair).
        for n in notices {
            let CoreNotice::LineLost { line, .. } = n;
            self.squash_inval_victim(*line, now, mem);
        }

        // 2. Memory responses.
        self.handle_responses(responses, now, mem);

        // 3. Finish executions whose latency expired (branches may squash).
        self.finalize_executions(now, mem);

        // 4. Deadlock watchdog.
        self.watchdog(now, mem);

        // 5. In-order commit.
        let uops_before = self.stats.uops;
        self.commit(now, mem);

        // 6. Store-buffer drain.
        self.drain_store_buffer(now, mem);

        // 7. Wakeup + issue.
        self.sched.wake(&mut self.rob);
        self.issue(now, mem);

        // 8. Fetch/decode/rename/dispatch.
        self.fetch(now);

        // 9. Cycle accounting: attribute this cycle to exactly one leaf.
        self.account_cycle(uops_before, mem);

        self.stalled_until = self.stall_horizon(now, mem);
    }

    /// After the step at `now`: the first cycle at which a step could
    /// differ from this one with no memory traffic in between, when this
    /// one left nothing to do — no list holds work (blocked loads wait for
    /// an event, which only such a step raises), the store buffer waits for
    /// its cache, the ROB head cannot retire and fetch cannot dispatch.
    /// Zero otherwise.
    fn stall_horizon(&self, now: u64, mem: &MemorySystem) -> u64 {
        let fetch_resumes = if self.fetch_barrier.is_some() || self.fetch_blocked.is_some() {
            u64::MAX
        } else if now + 1 < self.fetch_stall_until {
            self.fetch_stall_until
        } else {
            return 0;
        };
        if self.state != CoreState::Running
            || !self.sched.idle()
            || !self.lsq.sb_waits_for_cache(self.id, mem)
            || self.head_retires()
        {
            return 0;
        }
        let left = self.cfg.watchdog_threshold.saturating_sub(self.wd_counter);
        let watchdog_fires =
            if self.watchdog_armed() { (now + 1).saturating_add(left) } else { u64::MAX };
        fetch_resumes.min(self.sched.next_expiry()).min(watchdog_fires)
    }

    /// Attributes the cycle just simulated to its [`CpiLeaf`].
    fn account_cycle(&mut self, uops_before: u64, mem: &MemorySystem) {
        let leaf = self.cycle_leaf(self.stats.uops > uops_before, mem);
        self.stats.cpi.record(leaf);
    }

    /// The leaf of a cycle, top-down: a committing cycle is `Commit` no
    /// matter what else stalled; a sleeping core is `Idle`; an empty ROB is
    /// front-end starvation; otherwise the ROB head names the bottleneck
    /// (commit-blocking drains, then the memory wait — refined by the
    /// memory system's pure-read probes — then the structural back-pressure
    /// fetch recorded in the last step). Strictly passive: every input is
    /// state the pipeline already computed.
    fn cycle_leaf(&self, committed: bool, mem: &MemorySystem) -> CpiLeaf {
        if committed {
            CpiLeaf::Commit
        } else if self.sleeping() {
            CpiLeaf::Idle
        } else if self.rob.is_empty() {
            CpiLeaf::FetchStarved
        } else {
            let (slot, head) = self.rob.iter().next().expect("nonempty");
            let is_ll = matches!(head.uop.kind, UopKind::LoadLock { .. });
            if head.done && self.lsq.held_by_sb(head, self.cfg.model) {
                // store→RMW commit order (§3.2.3) or a draining fence.
                if is_ll {
                    CpiLeaf::SbDrain
                } else {
                    CpiLeaf::FenceDrain
                }
            } else if head.load == LoadState::InFlight {
                if mem.core_alloc_waiting(self.id) {
                    CpiLeaf::DirAllocWait
                } else if mem.backpressure_ends(self.id) > mem.now() {
                    CpiLeaf::NocBackpressure
                } else if is_ll {
                    CpiLeaf::AtomicLockWait
                } else {
                    CpiLeaf::LoadFill
                }
            } else if is_ll
                && !head.issued
                && head.addr.is_some()
                && !self.lsq.load_lock_may_issue(slot, &self.rob, self.cfg.policy)
            {
                // Fenced-policy issue gate: the head atomic may not issue
                // until the store buffer drains.
                CpiLeaf::SbDrain
            } else {
                match self.fetch_blocked {
                    Some(FetchLimit::Rob) => CpiLeaf::RobFull,
                    Some(FetchLimit::Lsq | FetchLimit::Aq) => CpiLeaf::LsqFull,
                    None => CpiLeaf::Issue,
                }
            }
        }
    }

    // ---------------------------------------------------------------- fetch

    fn fetch(&mut self, now: u64) {
        if self.state != CoreState::Running
            || self.fetch_barrier.is_some()
            || now < self.fetch_stall_until
        {
            return;
        }
        let mut fetched = 0;
        while fetched < self.cfg.fetch_width {
            let pc = self.fetch_pc;
            self.fetch_blocked = self.fetch_limit(pc);
            if self.fetch_blocked.is_some() {
                break;
            }
            let d = self.decoded[pc as usize];
            for i in d.first..d.first + u32::from(d.len) {
                self.dispatch_uop(self.uops[i as usize], now);
            }
            fetched += 1;
            match d.instr {
                Instr::Branch { .. } => {
                    // Direction was predicted inside dispatch_uop; it set
                    // fetch_pc already.
                }
                Instr::Jump { target } => self.fetch_pc = target,
                Instr::Halt => {
                    self.fetch_barrier = Some(FetchBarrier::Halt);
                    break;
                }
                Instr::MonitorWait { .. } => {
                    self.fetch_barrier = Some(FetchBarrier::Monitor);
                    break;
                }
                _ => self.fetch_pc = pc + 1,
            }
        }
    }

    /// The structural resource the whole instruction at `pc` lacks, if any.
    fn fetch_limit(&self, pc: u32) -> Option<FetchLimit> {
        let d = self.decoded.get(pc as usize).expect("fetch past program end");
        if self.rob.len() + d.len as usize > self.cfg.rob_size {
            Some(FetchLimit::Rob)
        } else if !self.lsq.has_room(d.loads as usize, d.stores as usize, &self.cfg) {
            Some(FetchLimit::Lsq)
        } else if d.instr.is_rmw() && self.aq.is_full() {
            Some(FetchLimit::Aq)
        } else {
            None
        }
    }

    fn dispatch_uop(&mut self, DecodedUop { uop, srcs, dst }: DecodedUop, now: u64) {
        let seq = self.next_seq;
        self.next_seq += 1;

        // Capture sources through the rename table. A producer that is
        // already done is read directly, whether or not its completion has
        // been handed out yet; one still executing will wake the operand.
        let mut src_regs = [Reg::R0; 3];
        let mut vals = [SrcVal::Ready(0); 3];
        let mut waits = [None; 3];
        let mut nsrcs = 0;
        for r in srcs.iter() {
            let producer = self.rename[r.index()];
            src_regs[nsrcs] = r;
            vals[nsrcs] = match producer.and_then(|p| self.rob.at(p)) {
                Some(p) if p.done => SrcVal::Ready(p.result),
                Some(p) => {
                    waits[nsrcs] = producer;
                    SrcVal::Wait { seq: p.seq }
                }
                None => SrcVal::Ready(self.arch_regs[r.index()]),
            };
            nsrcs += 1;
        }
        // The entry is built where it lives: a fresh one in the ring,
        // filled through the reference.
        let (slot, e) = self.rob.push_new(seq, uop);
        e.src_regs = src_regs;
        e.srcs = vals;
        e.nsrcs = nsrcs as u8;
        match uop.kind {
            UopKind::LoadLock { .. } => self.aq.alloc(seq),
            UopKind::Branch { target, .. } => {
                let (taken, snap) = self.bp.predict(uop.pc);
                e.pred_taken = taken;
                e.bp_snapshot = snap;
                self.fetch_pc = if taken { target } else { uop.pc + 1 };
            }
            UopKind::Jump { .. }
            | UopKind::Fence(_)
            | UopKind::Nop
            | UopKind::Halt => {
                e.done = true;
            }
            UopKind::Pause => {
                e.done_at = Some(now + PAUSE_LAT);
                e.issued = true;
            }
            _ => {}
        }
        // Rename the destination.
        if let Some(d) = dst {
            e.prev_map = self.rename[d.index()];
            self.rename[d.index()] = Some(slot);
        }
        // Scheduler and LSQ bookkeeping.
        self.sched.open(slot);
        for (i, producer) in waits.into_iter().enumerate() {
            if let Some(p) = producer {
                self.sched.watch(p, slot, i);
            }
        }
        self.lsq.dispatch(slot, &uop, self.cfg.policy.fenced());
        if uop.is_store_class() {
            self.ss.store_dispatched(uop.pc, seq);
        }
        match uop.kind {
            UopKind::Pause => self.sched.insert_inflight(slot, now + PAUSE_LAT),
            _ => self.sched.operands_changed(slot, e),
        }
        self.trace.record(now, TraceEvent::UopDispatch { seq, pc: uop.pc as u64 });
    }

    // --------------------------------------------------------------- issue

    fn issue(&mut self, now: u64, mem: &mut MemorySystem) {
        // Address generation + store resolution first (may trigger MDV
        // squashes), then issue.
        self.compute_addresses(now, mem);

        // Every event that can end a block is in by now.
        self.sched.refile_unblocked(self.lsq.oldest_fence());

        // Oldest first; budget is spent only on success. A load that a
        // core-local blocker stops waits on the blocked list for the event
        // that can end the block; anything else that does not issue keeps
        // its place and is attempted again next cycle.
        let mut budget = self.cfg.issue_width;
        let (mut visited, mut kept) = (0, 0);
        while visited < self.sched.ready.len() && budget > 0 {
            let slot = self.sched.ready[visited];
            visited += 1;
            let e = self.rob.at(slot).expect("the ready list holds live micro-ops");
            let pc = e.uop.pc;
            let mut blocked = None;
            self.issue_attempts.0 += 1;
            let issued = match e.uop.kind {
                // Operands (and, for stores, the address) are what filed
                // these as ready: they always issue.
                UopKind::Alu { .. } | UopKind::RmwAlu { .. } => {
                    self.issue_alu(slot, now);
                    true
                }
                UopKind::Branch { .. } => {
                    self.issue_branch(slot, now);
                    true
                }
                UopKind::Store { .. } | UopKind::StoreUnlock { .. } => {
                    self.issue_store(slot);
                    true
                }
                UopKind::Load { .. } | UopKind::LoadLock { .. } => match self.load_blocker(slot) {
                    Ok(fwd) => self.issue_load(slot, fwd, now, mem),
                    Err(why) => {
                        blocked = Some(why).filter(|why| why.ended_by().is_some());
                        false
                    }
                },
                UopKind::MonitorWait { .. } => self.issue_monitor(slot, mem),
                _ => unreachable!("only issuable micro-ops are filed as ready"),
            };
            if issued {
                budget -= 1;
                self.issue_attempts.1 += 1;
                self.trace.record(now, TraceEvent::UopIssue { seq: slot.seq, pc: pc as u64 });
            } else if let Some(why) = blocked {
                self.sched.block(slot, why);
            } else {
                self.sched.ready[kept] = slot;
                kept += 1;
            }
        }
        self.sched.ready.drain(kept..visited);
    }

    /// Starts the execution of the ready ALU-class micro-op at `slot`,
    /// which produces `result` after `lat` cycles.
    fn start_execution(&mut self, slot: Slot, result: Word, lat: u64, now: u64) {
        let e = self.rob.at_mut(slot).expect("entry exists");
        e.result = result;
        e.issued = true;
        e.done_at = Some(now + lat);
        self.sched.insert_inflight(slot, now + lat);
    }

    fn issue_alu(&mut self, slot: Slot, now: u64) {
        let e = self.rob.at(slot).expect("entry exists");
        let (result, lat) = match e.uop.kind {
            UopKind::Alu { op, a, b, .. } => {
                let av = e.value_of(a).expect("ready");
                let bv = match b {
                    fa_isa::Operand::Reg(r) => e.value_of(r).expect("ready"),
                    fa_isa::Operand::Imm(v) => v as u64,
                };
                let lat = if matches!(op, fa_isa::AluOp::Mul) {
                    MUL_LAT
                } else {
                    ALU_LAT
                };
                (op.eval(av, bv), lat)
            }
            UopKind::RmwAlu { op, old, src, cmp, .. } => {
                let ov = e.value_of(old).expect("ready");
                let sv = e.value_of(src).expect("ready");
                let cv = e.value_of(cmp).expect("ready");
                (op.store_value(ov, sv, cv), ALU_LAT)
            }
            _ => unreachable!(),
        };
        self.start_execution(slot, result, lat, now);
    }

    fn issue_branch(&mut self, slot: Slot, now: u64) {
        let e = self.rob.at(slot).expect("entry exists");
        let UopKind::Branch { cond, a, b, .. } = e.uop.kind else { unreachable!() };
        let av = e.value_of(a).expect("ready");
        let bv = match b {
            fa_isa::Operand::Reg(r) => e.value_of(r).expect("ready"),
            fa_isa::Operand::Imm(v) => v as u64,
        };
        let taken = cond.eval(av, bv);
        self.start_execution(slot, u64::from(taken), ALU_LAT, now);
    }

    fn issue_store(&mut self, slot: Slot) {
        // Stores "issue" once address and data are both known — which is
        // what files them as ready; the actual write happens at SB drain.
        let e = self.rob.at_mut(slot).expect("entry exists");
        debug_assert!(e.addr.is_some() && e.srcs_ready());
        e.issued = true;
        e.done = true;
    }

    fn issue_monitor(&mut self, slot: Slot, mem: &mut MemorySystem) -> bool {
        let e = self.rob.at_mut(slot).expect("entry exists");
        if e.load == LoadState::Wild {
            e.done = true;
            return true;
        }
        self.read_cache(slot, false, mem)
    }

    /// Computes effective addresses for the memory micro-ops whose base
    /// operand resolved since the last address stage; newly resolved store
    /// addresses run the memory-dependence violation check.
    fn compute_addresses(&mut self, now: u64, mem: &mut MemorySystem) {
        let mut pending = std::mem::take(&mut self.work);
        let mut resolved_stores = std::mem::take(&mut self.resolved_stores);
        self.sched.take_agen(&mut pending);
        resolved_stores.clear();
        // Every address first, so each violation check below sees all of
        // this cycle's addresses.
        for &slot in &pending {
            let e = self.rob.at_mut(slot).expect("squash drops pending address generation");
            let (base, offset) =
                e.uop.address_operands().expect("only memory micro-ops await an address");
            let bv = e.value_of(base).expect("base operand ready");
            let addr = bv.wrapping_add(offset as u64);
            let wild = wild_addr(addr, self.mem_bytes);
            e.addr = Some(addr);
            if e.ready_since.is_none() {
                e.ready_since = Some(now);
            }
            if wild && occupies_lq(&e.uop) {
                e.load = LoadState::Wild;
            }
            if wild && e.uop.is_load_class() {
                // A wild load pretends to perform now (a wild monitor when
                // it issues); its consumers wake next cycle.
                e.done = true;
                self.sched.complete(slot, e.result);
            } else if !e.uop.is_store_class() || e.srcs_ready() {
                self.sched.insert_ready(slot);
            }
            if e.uop.is_store_class() && !wild {
                resolved_stores.push(slot);
                // A younger load to this address forwards from here now.
                self.sched.unblock(Unblock::StoreResolved);
            }
        }
        for &store in &resolved_stores {
            // An older store's check may have squashed this one.
            let Some(s) = self.rob.at(store) else { continue };
            self.ss.store_resolved(s.uop.pc, store.seq);
            self.check_mem_order_violation(store, now, mem);
        }
        self.work = pending;
        self.resolved_stores = resolved_stores;
    }

    /// A store just resolved its address: squash from the younger load
    /// that bound a value it should have supplied
    /// ([`Lsq::mem_order_victim`]), and train the StoreSets.
    fn check_mem_order_violation(&mut self, store: Slot, now: u64, mem: &mut MemorySystem) {
        let s = self.rob.at(store).expect("store exists");
        let saddr = s.addr.expect("resolved");
        let spc = s.uop.pc;
        let victim = self.lsq.mem_order_victim(store.seq, saddr, &self.rob).map(refetch_point);
        if let Some((first, lpc)) = victim {
            self.ss.train_violation(lpc, spc);
            self.squash_from(first, lpc, SquashCause::MemOrder, now, mem);
        }
    }

    /// [`Lsq::load_blocker`] for the load at `slot`: the one issue rule,
    /// which the issue walk and the debug oracles all go through.
    fn load_blocker(&self, slot: Slot) -> Result<Option<Forward>, Blocker> {
        self.lsq.load_blocker(slot, &self.rob, &self.ss, &self.cfg, self.mem_bytes)
    }

    /// Issues the load at `slot`, forwarding from `fwd` or else reading the
    /// cache; false when the cache asks for a retry or forwarding to a
    /// `load_lock` is refused.
    fn issue_load(
        &mut self,
        slot: Slot,
        fwd: Option<Forward>,
        now: u64,
        mem: &mut MemorySystem,
    ) -> bool {
        let e = self.rob.at(slot).expect("entry exists");
        let is_ll = matches!(e.uop.kind, UopKind::LoadLock { .. });
        match fwd {
            Some(f) if is_ll => self.forward_to_load_lock(slot, f, now),
            Some(f) => {
                self.bind_forwarded(slot, f, now);
                true
            }
            None => {
                let issued = self.read_cache(slot, is_ll, mem);
                if issued && is_ll {
                    self.load_lock_issued(slot, false, now);
                }
                issued
            }
        }
    }

    /// Sends the load-queue entry at `slot` to the cache (`lock`: a
    /// `load_lock`); false when the cache asks for a retry.
    fn read_cache(&mut self, slot: Slot, lock: bool, mem: &mut MemorySystem) -> bool {
        let e = self.rob.at_mut(slot).expect("entry exists");
        let addr = e.addr.expect("a ready load has its address");
        let accepted = mem.read(self.id, slot.seq, addr, lock) == ReqOutcome::Accepted;
        if accepted {
            e.issued = true;
            e.load = LoadState::InFlight;
        }
        accepted
    }

    /// The `load_lock` at `slot` issued (`fwd`: bound by forwarding), which
    /// ends its Figure-1 drain time.
    fn load_lock_issued(&mut self, slot: Slot, fwd: bool, now: u64) {
        let e = self.rob.at(slot).expect("entry exists");
        let (seq, addr) = (slot.seq, e.addr.expect("an issued load_lock has its address"));
        let drain = now.saturating_sub(e.ready_since.unwrap_or(now));
        self.stats.atomic_drain_cycles += drain;
        self.stats.atomic_drain_hist.record(drain);
        if let Some(a) = self.aq.get_mut(seq) {
            a.issued_at = now;
        }
        self.trace.record(now, TraceEvent::AtomicLoadLock { seq, addr, drain, fwd });
    }

    /// Binds the load at `slot` to the value `f` forwards.
    fn bind_forwarded(&mut self, slot: Slot, f: Forward, now: u64) {
        let done_at = now + FWD_LAT;
        self.sched.insert_inflight(slot, done_at);
        let e = self.rob.at_mut(slot).expect("entry exists");
        e.result = f.value;
        e.load = LoadState::Forwarded { store: f.store, unlock: f.unlock };
        e.writer = write_id(self.id.0, f.store);
        e.issued = true;
        e.done_at = Some(done_at);
    }

    /// Applies store-to-load forwarding to a load_lock (§3.3), or refuses
    /// when the policy forbids it / the chain limit is hit (the load_lock
    /// then waits for the store to drain — "re-scheduling").
    fn forward_to_load_lock(&mut self, slot: Slot, f: Forward, now: u64) -> bool {
        if !self.cfg.policy.atomic_forwarding() {
            return false; // wait for the store to perform
        }
        // Chain length: forwarding from an atomic extends its chain.
        let chain = if f.unlock {
            self.aq.get(load_lock_of(f.store)).map(|a| a.chain + 1).unwrap_or(1)
        } else {
            1
        };
        if chain > self.cfg.fwd_chain_max {
            return false;
        }
        let aqe = self.aq.get_mut(slot.seq).expect("load_lock has an AQ entry");
        aqe.state = AqState::Fwd { store_seq: f.store };
        aqe.chain = chain;
        // Forwarded load_locks perform immediately: the whole lifetime is
        // local execute (acquire/transfer/park contribute nothing).
        aqe.acquired_at = now;
        self.bind_forwarded(slot, f, now);
        self.load_lock_issued(slot, true, now);
        // A forwarded load_lock performs immediately: reset the watchdog.
        self.wd_counter = 0;
        true
    }

    // ----------------------------------------------------------- responses

    fn handle_responses(&mut self, responses: &[CoreResp], now: u64, mem: &mut MemorySystem) {
        for r in responses {
            match *r {
                CoreResp::ReadResp {
                    seq,
                    addr,
                    value,
                    writer,
                    class,
                    had_write_perm,
                    locked,
                    xfer,
                    park,
                } => {
                    // The one lookup by sequence number: the memory system
                    // knows the requester by nothing else.
                    let requester = self.rob.find(seq).and_then(|slot| {
                        let e = self.rob.at_mut(slot)?;
                        (e.load == LoadState::InFlight).then_some((slot, e))
                    });
                    let Some((slot, e)) = requester else {
                        // Orphaned response (the requester was squashed).
                        if locked {
                            mem.unlock_line(self.id, line_of(addr));
                        }
                        continue;
                    };
                    e.result = value;
                    e.writer = writer;
                    e.load = LoadState::Cache { writable: had_write_perm };
                    e.done = true;
                    let is_ll = matches!(e.uop.kind, UopKind::LoadLock { .. });
                    self.sched.complete(slot, value);
                    if is_ll {
                        debug_assert!(locked, "load_lock response must lock");
                        let aqe = self.aq.get_mut(seq).expect("AQ entry");
                        aqe.state = AqState::Locked(line_of(addr));
                        aqe.acquired_at = now;
                        // Lifetime split: the issue→response window is
                        // directory park + interconnect transfer (both
                        // stamped by the memory system) + everything else,
                        // which is the cache-lock acquire path. Staged on
                        // the AQ entry; folded into stats only if the
                        // atomic commits (its store_unlock drains).
                        //
                        // A squash-reissued load_lock can merge onto the
                        // still-in-flight MSHR of its first attempt, so the
                        // response's transfer/park stamps may cover a window
                        // that started before this attempt issued. Only the
                        // portion inside this attempt's wait window is this
                        // atomic's exec latency — clamp transfer (the tail
                        // nearest the response) first, park to the rest —
                        // keeping acquire + xfer + park == wait exact.
                        let wait = now.saturating_sub(aqe.issued_at);
                        let xfer = xfer.min(wait);
                        let park = park.min(wait - xfer);
                        aqe.acquire = wait - xfer - park;
                        aqe.xfer = xfer;
                        aqe.xfer_class = class.index();
                        aqe.park = park;
                        // §3.2.5: the watchdog resets whenever a load_lock
                        // performs.
                        self.wd_counter = 0;
                    }
                }
                CoreResp::StoreReady { seq, .. } => self.lsq.store_ready(seq),
            }
        }
    }

    // ------------------------------------------------------------ finalize

    /// Completes executions whose latency expired, in ROB order; resolves
    /// branches.
    fn finalize_executions(&mut self, now: u64, mem: &mut MemorySystem) {
        let mut expired = std::mem::take(&mut self.work);
        self.sched.take_expired(now, &mut expired);
        for &slot in &expired {
            // An older branch resolving this cycle may have squashed it.
            let Some(e) = self.rob.at_mut(slot) else { continue };
            e.done = true;
            self.sched.complete(slot, e.result);
            if let UopKind::Branch { target, .. } = e.uop.kind {
                let taken = e.result != 0;
                let predicted = e.pred_taken;
                let snapshot = e.bp_snapshot;
                let pc = e.uop.pc;
                self.bp.resolve(pc, snapshot, predicted, taken);
                if taken != predicted {
                    let redirect = if taken { target } else { pc + 1 };
                    self.squash_from(slot.seq + 1, redirect, SquashCause::Branch, now, mem);
                }
            }
        }
        self.work = expired;
    }

    // -------------------------------------------------------------- commit

    /// The one retire rule, which commit, the stall horizon and the cycle
    /// leaf all read: the ROB head can retire when it is done and not held
    /// behind the store buffer.
    fn head_retires(&self) -> bool {
        self.rob.front().is_some_and(|head| head.done && !self.lsq.held_by_sb(head, self.cfg.model))
    }

    fn commit(&mut self, now: u64, mem: &mut MemorySystem) {
        let mut budget = self.cfg.commit_width;
        while budget > 0 && self.head_retires() {
            let head = self.rob.front().expect("a retiring head");
            let uop = head.uop;
            let seq = head.seq;
            assert!(
                !head.addr.is_some_and(|a| wild_addr(a, self.mem_bytes)),
                "core {:?}: wrong-path access to invalid address {:?} reached commit at pc {} — \
                 workload bug",
                self.id, head.addr, uop.pc
            );
            // Retire by reference: take what retirement reads and drop the
            // head where it lies. A store moves into the store buffer, and
            // its GetX goes out now, not when it reaches the SB head (Table
            // 1's at-commit store prefetch).
            let (result, addr, writer, load) = (head.result, head.addr, head.writer, head.load);
            let sb = self.lsq.commit(head, self.id, mem);
            self.rob.retire_front();
            // The load_lock gate reads the ROB rank and the queue fronts,
            // the fence block the fence list's front.
            self.sched.unblock(Unblock::CommitOrDrain);
            budget -= 1;
            self.stats.uops += 1;
            self.trace.record(now, TraceEvent::UopCommit { seq, pc: uop.pc as u64 });
            // Free the rename mapping and update architectural state.
            if let Some(d) = uop.dst() {
                if !d.is_zero() {
                    self.arch_regs[d.index()] = result;
                    if self.rename[d.index()].map(|p| p.seq) == Some(seq) {
                        self.rename[d.index()] = None;
                    }
                }
            }
            match uop.kind {
                UopKind::Load { .. } if self.cfg.check.on() => {
                    self.dlog.push(DataEvent::Load {
                        seq,
                        addr: addr.expect("performed load has an address"),
                        value: result,
                        writer,
                        ord: uop.ord,
                    });
                }
                UopKind::LoadLock { .. } => {
                    if self.cfg.check.on() {
                        self.dlog.push(DataEvent::LoadLock {
                            seq,
                            addr: addr.expect("performed load_lock has an address"),
                            value: result,
                            writer,
                        });
                    }
                    match load {
                        LoadState::Cache { writable: true } => self.stats.atomics_local_wp += 1,
                        LoadState::Forwarded { unlock: true, .. } => {
                            self.stats.atomics_fwd_from_atomic += 1
                        }
                        LoadState::Forwarded { unlock: false, .. } => {
                            self.stats.atomics_fwd_from_store += 1
                        }
                        _ => {}
                    }
                }
                UopKind::MonitorWait { .. } => {
                    let line = line_of(addr.expect("performed"));
                    self.state = CoreState::Sleeping {
                        line,
                        wake_at: now + MONITOR_TIMEOUT,
                        resume_pc: uop.pc + 1,
                    };
                    self.stats.monitor_sleeps += 1;
                    self.stats.instructions += 1;
                    return; // sleep starts immediately
                }
                UopKind::Store { .. } | UopKind::StoreUnlock { .. } if self.cfg.check.on() => {
                    let SbEntry { addr, value, is_unlock, .. } = sb.expect("a store commits");
                    self.dlog.push(if is_unlock {
                        DataEvent::StoreUnlock { seq, addr, value }
                    } else {
                        DataEvent::Store { seq, addr, value, ord: uop.ord }
                    });
                }
                UopKind::Fence(kind) => {
                    if kind.is_atomic_fence() && !self.cfg.policy.fenced() {
                        // Omitted fences carry no ordering: not logged —
                        // the RMW events themselves encode the obligation.
                        self.stats.fences_omitted += 1;
                    } else {
                        self.stats.fences_enforced += 1;
                        if self.cfg.check.on() {
                            // Enforced atomic fences are full barriers
                            // regardless of the RMW's annotation (RMWs are
                            // pinned to SC strength in both models).
                            let ord = if kind.is_atomic_fence() {
                                MemOrder::SeqCst
                            } else {
                                uop.ord
                            };
                            self.dlog.push(DataEvent::Fence { seq, ord });
                        }
                    }
                }
                UopKind::Halt => {
                    self.stats.instructions += 1;
                    self.state = CoreState::Halted;
                    return;
                }
                _ => {}
            }
            if uop.last {
                self.stats.instructions += 1;
                if self.decoded[uop.pc as usize].instr.is_rmw() {
                    self.stats.atomics += 1;
                    // §3.2.5: reset the watchdog when an atomic commits.
                    self.wd_counter = 0;
                }
            }
        }
    }

    // ------------------------------------------------------------ SB drain

    /// Performs the store-buffer head once its line is writable
    /// ([`Lsq::drain`]), with the Atomic Queue's part: the locks it hands to
    /// the `load_lock`s it fed and, for a store_unlock, its atomic's release.
    fn drain_store_buffer(&mut self, now: u64, mem: &mut MemorySystem) {
        let Some(head) = self.lsq.drain(self.id, mem) else { return };
        let line = line_of(head.addr);
        self.sched.unblock(Unblock::CommitOrDrain);
        // Lock transfer: forwarded load_locks capture the line now
        // (§4.2: the SQ broadcasts its SQid on perform).
        let captured = self.aq.capture_from_store(head.seq, line);
        for _ in 0..captured {
            mem.lock_line(self.id, line);
        }
        if head.is_unlock {
            let aqe = self.aq.release(load_lock_of(head.seq));
            match aqe.state {
                AqState::Locked(l) => {
                    debug_assert_eq!(l, line);
                    mem.unlock_line(self.id, l);
                }
                other => panic!(
                    "store_unlock performing while its AQ entry is {other:?}; \
                     the lock must be held by perform time"
                ),
            }
            let exec = now.saturating_sub(aqe.issued_at);
            self.stats.atomic_exec_cycles += exec;
            self.stats.atomic_exec_hist.record(exec);
            // Fold the staged acquire-side split plus the local-execute
            // remainder into stats, exactly once per committed atomic:
            // acquire + xfer + park + local == exec by construction.
            self.stats.atomic_lock_acquire_cycles += aqe.acquire;
            self.stats.atomic_xfer_cycles[aqe.xfer_class] += aqe.xfer;
            self.stats.atomic_dir_park_cycles += aqe.park;
            let local_since =
                if aqe.acquired_at > 0 { aqe.acquired_at } else { aqe.issued_at };
            self.stats.atomic_local_cycles += now.saturating_sub(local_since);
            self.trace.record(
                now,
                TraceEvent::AtomicStoreUnlock { seq: head.seq, addr: head.addr, exec },
            );
        }
    }

    // ------------------------------------------------------------ watchdog

    /// §3.2.5: a cycle counter reset whenever a load_lock performs or an
    /// atomic commits; at the threshold, flush from the oldest lock-holding
    /// atomic. Disabled under the non-speculative baseline, which cannot
    /// deadlock (and whose atomics must never be squashed).
    fn watchdog(&mut self, now: u64, mem: &mut MemorySystem) {
        if !self.watchdog_counts(1) {
            return;
        }
        // Flush from the oldest lock-holding atomic that is still squashable
        // (its load_lock has not committed). A partially committed atomic is
        // about to perform anyway — its store_unlock drains under the lock —
        // so skipping it is both safe and momentary.
        let victim = self
            .aq
            .locked()
            .map(|a| a.ll_seq)
            .find(|&ll| self.rob.get(ll).is_some());
        let Some(oldest) = victim else { return };
        self.wd_counter = 0;
        let (first, pc) = refetch_point(self.rob.get(oldest).expect("just found"));
        self.squash_from(first, pc, SquashCause::Watchdog, now, mem);
    }

    /// `n` cycles of the watchdog counter; true when it passed the
    /// threshold.
    fn watchdog_counts(&mut self, n: u64) -> bool {
        if !self.watchdog_armed() {
            self.wd_counter = 0;
            return false;
        }
        self.wd_counter += n;
        self.wd_counter > self.cfg.watchdog_threshold
    }

    /// True while the watchdog counts: an atomic holds a line lock, under
    /// any policy but the non-speculative baseline.
    fn watchdog_armed(&self) -> bool {
        self.cfg.policy != AtomicPolicy::FencedBaseline && self.aq.any_locked()
    }

    // -------------------------------------------------------------- squash

    /// Squashes every micro-op with `seq >= from`, restores the rename
    /// table, lifts speculatively taken cache-line locks
    /// (`unlock_on_squash`, §3.1), and redirects fetch to `redirect_pc`.
    fn squash_from(
        &mut self,
        from: Seq,
        redirect_pc: u32,
        cause: SquashCause,
        now: u64,
        mem: &mut MemorySystem,
    ) {
        let (rename, ss) = (&mut self.rename, &mut self.ss);
        let dropped = self.rob.squash_from(from, |e| {
            // Youngest-first restoration of the rename map.
            // Decode's filter: the micro-ops that renamed a register.
            if let Some(d) = e.uop.dst().filter(|d| !d.is_zero()) {
                rename[d.index()] = e.prev_map;
            }
            if e.uop.is_store_class() {
                ss.store_resolved(e.uop.pc, e.seq);
            }
        }) as u64;
        self.sched.squash(from);
        self.lsq.squash(from);
        self.stats.record_squash(cause, dropped);
        self.trace.record(now, TraceEvent::Squash { from_seq: from, uops: dropped });
        let id = self.id;
        self.aq.squash_from(from, |aqe| {
            if let AqState::Locked(line) = aqe.state {
                // unlock_on_squash: lift the lock the squashed load_lock
                // held (Figure 3).
                mem.unlock_line(id, line);
            }
            // Fwd entries carry no lock count; the forwarding store's
            // "responsibility" evaporates with the AQ entry (§3.3.3).
        });
        self.fetch_pc = redirect_pc;
        self.fetch_stall_until = now + REDIRECT_PENALTY;
        self.fetch_barrier = None;
    }

    /// Invalidation (or eviction) of `line`: squash from the oldest load
    /// bound on it that the model requires repaired
    /// ([`Lsq::inval_victim`]).
    fn squash_inval_victim(&mut self, line: Line, now: u64, mem: &mut MemorySystem) {
        let victim = self.lsq.inval_victim(line, self.cfg.model, &self.rob).map(refetch_point);
        if let Some((first, pc)) = victim {
            self.squash_from(first, pc, SquashCause::Inval, now, mem);
        }
    }

    // ------------------------------------------------------------- queries

    /// Store-buffer occupancy (tests).
    pub fn sb_len(&self) -> usize {
        self.lsq.sb_len()
    }

    /// In-flight micro-ops (tests).
    pub fn rob_len(&self) -> usize {
        self.rob.len()
    }

    /// Entries across the scheduler's index lists and the load/store queue
    /// (tests): zero whenever the ROB is empty.
    pub fn scheduler_len(&self) -> usize {
        self.sched.len() + self.lsq.len()
    }

    /// `(attempts, issues)` of the issue walk so far (tests): an attempt is
    /// a micro-op the walk asked to issue, an issue one that did.
    pub fn issue_attempts(&self) -> (u64, u64) {
        self.issue_attempts
    }

    /// Snapshot of the hang-relevant pipeline state for timeout reports.
    pub fn diag(&self) -> CoreDiag {
        let mut aq_locked: Vec<Line> = self
            .aq
            .locked()
            .filter_map(|e| match e.state {
                AqState::Locked(line) => Some(line),
                _ => None,
            })
            .collect();
        aq_locked.sort_unstable();
        CoreDiag {
            halted: self.halted(),
            sleeping: self.sleeping(),
            committed: self.stats.instructions,
            rob_len: self.rob.len(),
            sb_len: self.lsq.sb_len(),
            wd_counter: self.wd_counter,
            rob_head: self.rob.front().map(|e| {
                (e.seq, e.uop.pc, format!("{:?}", e.uop.kind), e.issued, e.done)
            }),
            head_blocked: self.rob.front_slot().and_then(|head| {
                let e = self.rob.at(head)?;
                let waits =
                    e.uop.is_load_class() && e.load == LoadState::Unissued && e.addr.is_some();
                waits.then(|| match self.load_blocker(head) {
                    Err(why) => why.to_string(),
                    // Only a load_lock refused forwarding waits on one.
                    Ok(Some(f)) => format!("store #{} to drain", f.store),
                    Ok(None) => "cache retry".to_string(),
                })
            }),
            stalled_until: Some(self.stalled_until).filter(|&until| until > 0),
            aq_locked,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fa_isa::interp::GuestMem;
    use fa_isa::{Kasm, Reg};
    use fa_mem::{MemConfig, MemorySystem};

    /// Store buffering with an RMW: `x = 1; r = y; fetch_add(z)` against its
    /// mirror. No conditional branch, and no load shares an address with an
    /// older store, so nothing can mispredict or violate a dependence.
    fn sb_with_rmw(mine: i64, theirs: i64) -> Program {
        let mut k = Kasm::new();
        let (a, b, z, one, r, old) = (Reg::R1, Reg::R2, Reg::R3, Reg::R4, Reg::R5, Reg::R6);
        k.li(a, mine).li(b, theirs).li(z, 0x2000).li(one, 1);
        k.st(one, a, 0).ld(r, b, 0).fetch_add(old, z, 0, one).halt();
        k.finish().expect("a valid program")
    }

    #[test]
    fn a_branch_free_litmus_run_never_builds_the_predictor_tables() {
        let mut mem = MemorySystem::new(MemConfig::tiny(), 2, GuestMem::new(1 << 16));
        let progs = [sb_with_rmw(0x1000, 0x1040), sb_with_rmw(0x1040, 0x1000)];
        let mut cores: Vec<Core> = (0..2)
            .map(|i| Core::new(CoreId(i as u16), CoreConfig::default(), progs[i].clone(), 1 << 16))
            .collect();
        for now in 1..=100_000 {
            mem.tick();
            cores.iter_mut().for_each(|c| c.tick(now, &mut mem));
            if cores.iter().all(|c| c.halted() && c.sb_len() == 0) {
                break;
            }
        }
        assert_eq!(mem.backing().load(0x2000), 2, "both runs completed");
        for c in &cores {
            assert!(c.halted());
            assert!(!c.bp.built() && !c.ss.built(), "core {} built a table", c.id().0);
        }
    }
}
