//! Guest ISA for the Free Atomics simulator.
//!
//! The paper ("Free Atomics: Hardware Atomic Operations without Fences",
//! ISCA 2022) studies a *micro-architectural* mechanism: executing atomic
//! read-modify-write (RMW) instructions without their surrounding memory
//! fences. The mechanism lives entirely at the micro-op / load-store-queue /
//! cache-lock level, so the guest ISA only needs to provide the same raw
//! material as the paper's x86 substrate:
//!
//! * 64-bit integer ALU operations,
//! * 8-byte loads and stores,
//! * conditional branches (so atomics can sit on speculative paths),
//! * atomic RMW instructions that decode into the canonical five micro-op
//!   sequence `mem_fence / load_lock / op / store_unlock / mem_fence`
//!   (Figure 2 of the paper), and
//! * a standalone `Fence` (x86 `MFENCE` analogue), `Pause` (spin hint),
//!   `MonitorWait` (MWAIT analogue used to model sleep cycles), and `Halt`.
//!
//! The crate also ships an assembler DSL ([`Kasm`]) used by the workload
//! suite, and a sequential golden-model interpreter ([`interp`]) used by the
//! property tests to validate the detailed out-of-order model.
//!
//! # Example
//!
//! ```
//! use fa_isa::{Kasm, Reg, RmwOp, interp::Interp};
//!
//! // A tiny kernel: fetch-and-add 1 to address 0x100, ten times.
//! let mut k = Kasm::new();
//! let counter = Reg::R1;
//! let one = Reg::R2;
//! let i = Reg::R3;
//! k.li(counter, 0x100);
//! k.li(one, 1);
//! k.li(i, 0);
//! let top = k.here_label();
//! k.rmw(RmwOp::FetchAdd, Reg::R4, counter, 0, one);
//! k.addi(i, i, 1);
//! k.blt_imm(i, 10, top);
//! k.halt();
//! let prog = k.finish().unwrap();
//!
//! let mut m = Interp::new(prog, 0x1000);
//! m.run(10_000).unwrap();
//! assert_eq!(m.mem().load(0x100), 10);
//! ```

pub mod asm;
pub mod instr;
pub mod interp;
pub mod order;
pub mod program;
pub mod reg;
pub mod uop;

pub use asm::{AsmError, Kasm, Label};
pub use instr::{AluOp, Cond, Instr, Operand, RmwOp};
pub use order::MemOrder;
pub use program::Program;
pub use reg::Reg;
pub use uop::{decode, decode_into, FenceKind, Uop, UopKind};

/// Machine word: every architectural value is a 64-bit integer.
pub type Word = u64;

/// Byte address into the guest's flat physical address space.
pub type Addr = u64;

/// Log2 of the cache line size; lines are 64 bytes everywhere in the model.
pub const LINE_SHIFT: u32 = 6;

/// Cache line size in bytes.
pub const LINE_BYTES: u64 = 1 << LINE_SHIFT;

/// Returns the line-aligned base address containing `addr`.
#[inline]
pub fn line_of(addr: Addr) -> Addr {
    addr & !(LINE_BYTES - 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_of_masks_low_bits() {
        assert_eq!(line_of(0), 0);
        assert_eq!(line_of(63), 0);
        assert_eq!(line_of(64), 64);
        assert_eq!(line_of(0x12345), 0x12340);
    }
}
