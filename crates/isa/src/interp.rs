//! Sequential golden-model interpreters.
//!
//! Two executors live here:
//!
//! * [`Interp`] — runs a single program to completion, one instruction at a
//!   time. Used as the reference model in property tests: any single-core
//!   execution of the detailed out-of-order pipeline must produce exactly the
//!   same architectural state.
//! * [`McInterp`] — runs several programs under a *sequentially consistent*
//!   interleaving chosen by a deterministic schedule. Useful as an oracle for
//!   programs whose result is interleaving-independent (e.g. all cores
//!   fetch-add a shared counter) and for computing expected outputs of
//!   data-parallel kernels.

use crate::instr::{Instr, Operand};
use crate::program::Program;
use crate::reg::{Reg, NUM_REGS};
use crate::{Addr, Word};
use std::fmt;

/// Words per guest page (4 KiB).
const PAGE_WORDS: usize = 512;

type Page = [Word; PAGE_WORDS];

/// Word-granular guest memory, paged on first store.
///
/// All guest accesses are 8 bytes wide and 8-byte aligned. The backing store
/// is a table of 4 KiB pages indexed by `addr / 8 / 512`: a page nobody has
/// stored to is absent and reads as zeros, so an image costs the pages its
/// program writes, not the size it was asked for. `Default` is an image of
/// no bytes.
#[derive(Debug, Default)]
pub struct GuestMem {
    pages: Vec<Option<Box<Page>>>,
    words: usize,
}

impl GuestMem {
    /// Reserves `bytes` of zeroed memory (rounded up to 8); no page is
    /// allocated until a store touches it.
    pub fn new(bytes: u64) -> GuestMem {
        let words = bytes.div_ceil(8) as usize;
        GuestMem { pages: vec![None; words.div_ceil(PAGE_WORDS)], words }
    }

    /// Size in bytes.
    pub fn size(&self) -> u64 {
        self.words as u64 * 8
    }

    fn index(&self, addr: Addr) -> usize {
        assert!(addr.is_multiple_of(8), "misaligned guest access at {addr:#x}");
        let idx = (addr / 8) as usize;
        assert!(idx < self.words, "guest access out of bounds at {addr:#x}");
        idx
    }

    /// Reads the 8-byte word at `addr`.
    ///
    /// # Panics
    ///
    /// Panics on misaligned or out-of-bounds access — both indicate a bug in
    /// a workload kernel, never a legal guest behaviour.
    #[inline]
    pub fn load(&self, addr: Addr) -> Word {
        let i = self.index(addr);
        self.pages[i / PAGE_WORDS].as_ref().map_or(0, |p| p[i % PAGE_WORDS])
    }

    /// Writes the 8-byte word at `addr`, allocating its page on first touch.
    ///
    /// # Panics
    ///
    /// Panics on misaligned or out-of-bounds access.
    #[inline]
    pub fn store(&mut self, addr: Addr, value: Word) {
        let i = self.index(addr);
        let page = self.pages[i / PAGE_WORDS].get_or_insert_with(|| Box::new([0; PAGE_WORDS]));
        page[i % PAGE_WORDS] = value;
    }

    /// True if `addr` names an in-bounds, aligned word.
    pub fn contains(&self, addr: Addr) -> bool {
        addr.is_multiple_of(8) && ((addr / 8) as usize) < self.words
    }
}

/// `clone_from` copies an image into the pages `self` already has: a page
/// the source lacks is zeroed in place rather than freed, so a machine
/// reset to the same image over and over allocates nothing.
impl Clone for GuestMem {
    fn clone(&self) -> GuestMem {
        let mut g = GuestMem::default();
        g.clone_from(self);
        g
    }

    fn clone_from(&mut self, src: &GuestMem) {
        self.words = src.words;
        self.pages.resize_with(src.pages.len(), || None);
        for (dst, src) in self.pages.iter_mut().zip(&src.pages) {
            match (dst.as_deref_mut(), src) {
                (Some(d), Some(s)) => *d = **s,
                (Some(d), None) => d.fill(0),
                (None, Some(s)) => *dst = Some(s.clone()),
                (None, None) => {}
            }
        }
    }
}

/// Contents, not layout: a page nobody stored to equals one whose words
/// were all stored as 0.
impl PartialEq for GuestMem {
    fn eq(&self, other: &GuestMem) -> bool {
        const ZERO: &Page = &[0; PAGE_WORDS];
        self.words == other.words
            && self.pages.iter().zip(&other.pages).all(|(a, b)| {
                a.as_deref().unwrap_or(ZERO) == b.as_deref().unwrap_or(ZERO)
            })
    }
}

impl Eq for GuestMem {}

/// Why an interpreter stopped before `Halt`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum InterpError {
    /// The step budget ran out before every thread halted.
    StepLimit,
}

impl fmt::Display for InterpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InterpError::StepLimit => write!(f, "step limit exceeded before halt"),
        }
    }
}

impl std::error::Error for InterpError {}

/// Architectural thread context: PC + register file.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ThreadCtx {
    /// Program counter (instruction index).
    pub pc: u32,
    /// Register file including decoder temporaries.
    pub regs: [Word; NUM_REGS],
    /// True once `Halt` has executed.
    pub halted: bool,
}

impl Default for ThreadCtx {
    fn default() -> ThreadCtx {
        ThreadCtx { pc: 0, regs: [0; NUM_REGS], halted: false }
    }
}

impl ThreadCtx {
    /// Reads a register (the zero register reads 0).
    #[inline]
    pub fn read(&self, r: Reg) -> Word {
        if r.is_zero() {
            0
        } else {
            self.regs[r.index()]
        }
    }

    /// Writes a register (writes to the zero register are discarded).
    #[inline]
    pub fn write(&mut self, r: Reg, v: Word) {
        if !r.is_zero() {
            self.regs[r.index()] = v;
        }
    }

    fn operand(&self, op: Operand) -> Word {
        match op {
            Operand::Reg(r) => self.read(r),
            Operand::Imm(v) => v as u64,
        }
    }
}

/// Executes one instruction of `prog` for thread `ctx` against `mem`.
///
/// Returns `true` if the thread is still running. `Fence`, `Pause` and
/// `MonitorWait` are no-ops here (the golden model is sequentially
/// consistent, so fences add nothing and sleeping is invisible).
pub fn step_thread(prog: &Program, ctx: &mut ThreadCtx, mem: &mut GuestMem) -> bool {
    if ctx.halted {
        return false;
    }
    let instr = *prog.get(ctx.pc as usize).expect("pc past validated program end");
    let mut next = ctx.pc + 1;
    match instr {
        Instr::Alu { op, dst, a, b } => {
            let v = op.eval(ctx.read(a), ctx.operand(b));
            ctx.write(dst, v);
        }
        Instr::Load { dst, base, offset, .. } => {
            let addr = ctx.read(base).wrapping_add(offset as u64);
            let v = mem.load(addr);
            ctx.write(dst, v);
        }
        Instr::Store { src, base, offset, .. } => {
            let addr = ctx.read(base).wrapping_add(offset as u64);
            mem.store(addr, ctx.read(src));
        }
        Instr::Rmw { op, dst, base, offset, src, cmp, .. } => {
            let addr = ctx.read(base).wrapping_add(offset as u64);
            let old = mem.load(addr);
            let newv = op.store_value(old, ctx.read(src), ctx.read(cmp));
            mem.store(addr, newv);
            ctx.write(dst, old);
        }
        Instr::Branch { cond, a, b, target } => {
            if cond.eval(ctx.read(a), ctx.operand(b)) {
                next = target;
            }
        }
        Instr::Jump { target } => next = target,
        Instr::Fence { .. } | Instr::Pause | Instr::MonitorWait { .. } | Instr::Nop => {}
        Instr::Halt => {
            ctx.halted = true;
            return false;
        }
    }
    ctx.pc = next;
    true
}

/// Single-thread golden-model interpreter.
#[derive(Clone, Debug)]
pub struct Interp {
    prog: Program,
    ctx: ThreadCtx,
    mem: GuestMem,
    /// Dynamic instructions executed so far.
    pub executed: u64,
}

impl Interp {
    /// Creates an interpreter over `prog` with `mem_bytes` of zeroed memory.
    pub fn new(prog: Program, mem_bytes: u64) -> Interp {
        Interp { prog, ctx: ThreadCtx::default(), mem: GuestMem::new(mem_bytes), executed: 0 }
    }

    /// Runs until `Halt` or until `max_steps` instructions have executed.
    ///
    /// # Errors
    ///
    /// Returns [`InterpError::StepLimit`] if the budget is exhausted first.
    pub fn run(&mut self, max_steps: u64) -> Result<(), InterpError> {
        for _ in 0..max_steps {
            if !step_thread(&self.prog, &mut self.ctx, &mut self.mem) {
                if self.ctx.halted {
                    // The Halt instruction itself executed.
                    self.executed += 1;
                }
                return Ok(());
            }
            self.executed += 1;
        }
        if self.ctx.halted {
            Ok(())
        } else {
            Err(InterpError::StepLimit)
        }
    }

    /// Final memory.
    pub fn mem(&self) -> &GuestMem {
        &self.mem
    }

    /// Mutable memory (for pre-run initialization).
    pub fn mem_mut(&mut self) -> &mut GuestMem {
        &mut self.mem
    }

    /// Thread context (registers, PC, halt flag).
    pub fn ctx(&self) -> &ThreadCtx {
        &self.ctx
    }
}

/// Multi-thread sequentially consistent interpreter.
///
/// Threads are interleaved by a deterministic schedule: thread `i` executes
/// `quantum` instructions, then the next runnable thread takes over, with a
/// seeded xorshift perturbation of the rotation order so different seeds
/// explore different interleavings.
#[derive(Clone, Debug)]
pub struct McInterp {
    progs: Vec<Program>,
    ctxs: Vec<ThreadCtx>,
    mem: GuestMem,
    quantum: u32,
    rng: u64,
    /// Total dynamic instructions executed across all threads.
    pub executed: u64,
}

impl McInterp {
    /// Creates a multicore interpreter with `mem_bytes` of zeroed memory.
    pub fn new(progs: Vec<Program>, mem_bytes: u64, seed: u64) -> McInterp {
        let n = progs.len();
        McInterp {
            progs,
            ctxs: vec![ThreadCtx::default(); n],
            mem: GuestMem::new(mem_bytes),
            quantum: 16,
            rng: seed | 1,
            executed: 0,
        }
    }

    fn next_rand(&mut self) -> u64 {
        // xorshift64*
        let mut x = self.rng;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.rng = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Mutable memory (for pre-run initialization).
    pub fn mem_mut(&mut self) -> &mut GuestMem {
        &mut self.mem
    }

    /// Final memory.
    pub fn mem(&self) -> &GuestMem {
        &self.mem
    }

    /// Thread contexts.
    pub fn ctxs(&self) -> &[ThreadCtx] {
        &self.ctxs
    }

    /// Runs until all threads halt or `max_steps` total instructions execute.
    ///
    /// # Errors
    ///
    /// Returns [`InterpError::StepLimit`] if the budget is exhausted first —
    /// including when remaining threads spin forever on a condition another
    /// (halted) thread will never satisfy.
    pub fn run(&mut self, max_steps: u64) -> Result<(), InterpError> {
        let n = self.progs.len();
        let mut budget = max_steps;
        while budget > 0 {
            if self.ctxs.iter().all(|c| c.halted) {
                return Ok(());
            }
            let start = (self.next_rand() as usize) % n;
            let mut progressed = false;
            for off in 0..n {
                let t = (start + off) % n;
                if self.ctxs[t].halted {
                    continue;
                }
                for _ in 0..self.quantum {
                    if budget == 0 {
                        break;
                    }
                    if !step_thread(&self.progs[t], &mut self.ctxs[t], &mut self.mem) {
                        // The thread was runnable, so this is a fresh Halt:
                        // count the Halt instruction itself.
                        self.executed += 1;
                        progressed = true;
                        break;
                    }
                    self.executed += 1;
                    budget -= 1;
                    progressed = true;
                }
            }
            if !progressed && self.ctxs.iter().all(|c| c.halted) {
                return Ok(());
            }
        }
        if self.ctxs.iter().all(|c| c.halted) {
            Ok(())
        } else {
            Err(InterpError::StepLimit)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::Kasm;
    use crate::instr::RmwOp;

    #[test]
    fn guest_mem_load_store() {
        let mut m = GuestMem::new(64);
        m.store(8, 0xdead_beef);
        assert_eq!(m.load(8), 0xdead_beef);
        assert_eq!(m.load(16), 0);
        assert_eq!(m.size(), 64);
        assert!(m.contains(56));
        assert!(!m.contains(64));
        assert!(!m.contains(7));
        // The size is the byte count asked for, not a whole number of pages.
        let m = GuestMem::new((1 << 12) + 8);
        assert_eq!(m.size(), (1 << 12) + 8);
        assert!(m.contains(1 << 12));
        assert!(!m.contains((1 << 12) + 8));
        assert!(!m.contains((2 << 12) - 8));
    }

    #[test]
    #[should_panic(expected = "misaligned guest access at 0x4")]
    fn guest_mem_rejects_misaligned() {
        let m = GuestMem::new(64);
        let _ = m.load(4);
    }

    #[test]
    #[should_panic(expected = "guest access out of bounds at 0x40")]
    fn the_first_word_past_the_end_panics() {
        let mut m = GuestMem::new(64);
        m.store(56, 1);
        m.store(64, 1);
    }

    #[test]
    #[should_panic(expected = "guest access out of bounds at 0x1008")]
    fn an_access_past_the_end_panics_inside_a_page_never_stored_to() {
        let _ = GuestMem::new((1 << 12) + 8).load((1 << 12) + 8);
    }

    #[test]
    fn an_untouched_page_reads_zero() {
        let mut m = GuestMem::new(3 << 12);
        m.store((1 << 12) + 8, 7);
        assert_eq!(m.load(0), 0);
        assert_eq!(m.load(1 << 12), 0);
        assert_eq!(m.load((1 << 12) + 8), 7);
        assert_eq!(m.load((3 << 12) - 8), 0);
    }

    #[test]
    fn an_untouched_page_equals_one_stored_to_zero() {
        let untouched = GuestMem::new(2 << 12);
        let mut zeroed = untouched.clone();
        zeroed.store(1 << 12, 0);
        assert_eq!(untouched, zeroed);
        assert_eq!(zeroed, untouched);
        zeroed.store((1 << 12) + 16, 1);
        assert_ne!(untouched, zeroed);
        assert_ne!(zeroed, untouched);
        assert_ne!(GuestMem::new(64), GuestMem::new(128));
    }

    #[test]
    fn a_clone_is_deep() {
        let mut original = GuestMem::new(2 << 12);
        original.store(8, 1);
        let mut copy = original.clone();
        copy.store(8, 2);
        copy.store(1 << 12, 3);
        assert_eq!(original.load(8), 1);
        assert_eq!(original.load(1 << 12), 0);
        assert_eq!(copy.load(8), 2);
    }

    #[test]
    fn countdown_loop_runs() {
        let mut k = Kasm::new();
        let done = k.new_label();
        k.li(Reg::R1, 100);
        let top = k.here_label();
        k.addi(Reg::R1, Reg::R1, -1);
        k.beq_imm(Reg::R1, 0, done);
        k.jump(top);
        k.bind(done);
        k.st(Reg::R1, Reg::R0, 0);
        k.halt();
        let mut i = Interp::new(k.finish().unwrap(), 64);
        i.run(10_000).unwrap();
        assert_eq!(i.ctx().read(Reg::R1), 0);
        assert!(i.ctx().halted);
    }

    #[test]
    fn step_limit_reported() {
        let mut k = Kasm::new();
        let top = k.here_label();
        k.jump(top);
        let mut i = Interp::new(k.finish().unwrap(), 8);
        assert_eq!(i.run(100), Err(InterpError::StepLimit));
    }

    #[test]
    fn rmw_semantics_in_interp() {
        let mut k = Kasm::new();
        k.li(Reg::R1, 8); // address
        k.li(Reg::R2, 5);
        k.rmw(RmwOp::FetchAdd, Reg::R3, Reg::R1, 0, Reg::R2);
        k.li(Reg::R4, 42);
        k.li(Reg::R5, 5); // expected (current value)
        k.cas(Reg::R6, Reg::R1, 0, Reg::R5, Reg::R4);
        k.halt();
        let mut i = Interp::new(k.finish().unwrap(), 64);
        i.run(100).unwrap();
        assert_eq!(i.ctx().read(Reg::R3), 0); // old value of fetch_add
        assert_eq!(i.ctx().read(Reg::R6), 5); // old value seen by CAS
        assert_eq!(i.mem().load(8), 42); // CAS succeeded
    }

    fn counter_prog(iters: i64) -> Program {
        let mut k = Kasm::new();
        k.li(Reg::R1, 0); // counter addr
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
    fn mc_interp_counter_is_exact() {
        let n = 4;
        let iters = 50;
        let progs = vec![counter_prog(iters); n];
        for seed in [1u64, 7, 99] {
            let mut m = McInterp::new(progs.clone(), 64, seed);
            m.run(1_000_000).unwrap();
            assert_eq!(m.mem().load(0), (n as u64) * iters as u64);
        }
    }

    #[test]
    fn mc_interp_detects_livelock_via_step_limit() {
        // Thread 1 spins on a flag nobody sets.
        let mut k = Kasm::new();
        let top = k.here_label();
        k.ld(Reg::R1, Reg::R0, 0);
        k.beq_imm(Reg::R1, 0, top);
        k.halt();
        let spin = k.finish().unwrap();
        let mut m = McInterp::new(vec![spin], 64, 3);
        assert_eq!(m.run(1000), Err(InterpError::StepLimit));
    }
}
