//! Instruction and register definitions.

use std::fmt;

/// An architectural register.
///
/// Identifiers 0–31 are integer registers, 32–63 floating-point registers.
/// `r0` is hardwired to zero; `r1` is the link register; `r2` the stack
/// pointer (by software convention).
///
/// # Examples
///
/// ```
/// use r3dla_isa::Reg;
/// let r = Reg::int(10);
/// assert!(r.is_int());
/// let f = Reg::fp(3);
/// assert!(f.is_fp());
/// assert_eq!(f.index(), 35);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Reg(u8);

impl Reg {
    /// The hardwired-zero register.
    pub const ZERO: Reg = Reg(0);
    /// The link (return-address) register.
    pub const RA: Reg = Reg(1);
    /// The stack pointer, by software convention.
    pub const SP: Reg = Reg(2);

    /// Number of architectural registers (32 int + 32 fp).
    pub const COUNT: usize = 64;

    /// Creates an integer register `r{n}`.
    ///
    /// # Panics
    ///
    /// Panics if `n >= 32`.
    pub const fn int(n: u8) -> Reg {
        assert!(n < 32, "integer register out of range");
        Reg(n)
    }

    /// Creates a floating-point register `f{n}`.
    ///
    /// # Panics
    ///
    /// Panics if `n >= 32`.
    pub const fn fp(n: u8) -> Reg {
        assert!(n < 32, "fp register out of range");
        Reg(n + 32)
    }

    /// Creates a register from a flat index 0..64.
    ///
    /// # Panics
    ///
    /// Panics if `idx >= 64`.
    pub const fn from_index(idx: usize) -> Reg {
        assert!(idx < Reg::COUNT, "register index out of range");
        Reg(idx as u8)
    }

    /// Flat index in 0..64 (integer then fp).
    ///
    /// The mask is a no-op (every constructor checks `< 64`) but proves
    /// the in-bounds invariant to the optimizer, so register-file
    /// indexing compiles without bounds checks in the emulator and core
    /// hot loops.
    #[inline]
    pub const fn index(self) -> usize {
        (self.0 & (Reg::COUNT as u8 - 1)) as usize
    }

    /// Whether this is an integer register.
    #[inline]
    pub const fn is_int(self) -> bool {
        self.0 < 32
    }

    /// Whether this is a floating-point register.
    #[inline]
    pub const fn is_fp(self) -> bool {
        self.0 >= 32
    }

    /// Whether this is the hardwired zero register.
    #[inline]
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }
}

impl fmt::Display for Reg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_int() {
            write!(f, "r{}", self.0)
        } else {
            write!(f, "f{}", self.0 - 32)
        }
    }
}

/// Operation codes.
///
/// Immediate forms take `rs1` and `imm`; register forms take `rs1`/`rs2`.
/// Branch targets are absolute PCs stored in `imm` (resolved by the
/// assembler). `Jalr` computes its target as `rs1 + imm`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Op {
    // Integer register-register ALU.
    Add,
    Sub,
    Mul,
    Div,
    Rem,
    And,
    Or,
    Xor,
    Sll,
    Srl,
    Sra,
    Slt,
    Sltu,
    // Integer register-immediate ALU.
    Addi,
    Andi,
    Ori,
    Xori,
    Slli,
    Srli,
    Srai,
    Slti,
    /// Load a 64-bit immediate into `rd` (no sources).
    Li,
    // Memory (8-byte).
    /// `rd = mem[rs1 + imm]`.
    Ld,
    /// `mem[rs1 + imm] = rs2`.
    St,
    // Conditional branches (compare rs1, rs2; absolute target in imm).
    Beq,
    Bne,
    Blt,
    Bge,
    Bltu,
    Bgeu,
    /// Direct jump-and-link: `rd = pc + 4; pc = imm`. `rd = r0` is a plain
    /// jump; `rd = ra` is a call.
    Jal,
    /// Indirect jump-and-link: `rd = pc + 4; pc = rs1 + imm`. With
    /// `rd = r0, rs1 = ra` this is a return.
    Jalr,
    // Floating point (operands are f64 bit patterns in fp registers).
    Fadd,
    Fsub,
    Fmul,
    Fdiv,
    /// `rd(int) = (fs1 < fs2) ? 1 : 0`.
    Flt,
    /// Convert integer in `rs1` to f64 in `rd`.
    Cvtif,
    /// Convert f64 in `rs1` to integer in `rd` (truncating).
    Cvtfi,
    /// No operation.
    Nop,
    /// Stop the program.
    Halt,
}

/// Functional-unit class an instruction executes on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FuClass {
    /// Single-cycle integer ALU.
    IntAlu,
    /// Pipelined integer multiplier.
    IntMul,
    /// Unpipelined integer divider.
    IntDiv,
    /// Load/store address generation + memory access.
    Mem,
    /// Pipelined FP add/mul/convert.
    Fp,
    /// Unpipelined FP divider.
    FpDiv,
    /// Branch unit.
    Branch,
}

/// Control-flow classification of branch instructions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BranchKind {
    /// Conditional direct branch.
    Cond,
    /// Unconditional direct jump (`Jal` with `rd = r0`).
    Jump,
    /// Direct call (`Jal` with a link register).
    Call,
    /// Indirect return (`Jalr r0, ra`).
    Ret,
    /// Indirect call (`Jalr` with link).
    IndCall,
    /// Other indirect jump (e.g. a switch table).
    IndJump,
}

/// A decoded instruction.
///
/// All fields are public in the C-struct spirit: instructions are passive
/// data produced by the assembler and consumed by the simulator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Inst {
    /// The operation.
    pub op: Op,
    /// Destination register (ignored by ops that do not write one).
    pub rd: Reg,
    /// First source register.
    pub rs1: Reg,
    /// Second source register.
    pub rs2: Reg,
    /// Immediate / absolute branch target / address offset.
    pub imm: i64,
}

impl Inst {
    /// A canonical `nop`.
    pub const NOP: Inst = Inst {
        op: Op::Nop,
        rd: Reg::ZERO,
        rs1: Reg::ZERO,
        rs2: Reg::ZERO,
        imm: 0,
    };

    /// Returns the register this instruction writes, if any (never `r0`).
    #[inline]
    pub fn def(&self) -> Option<Reg> {
        use Op::*;
        let rd = match self.op {
            Add | Sub | Mul | Div | Rem | And | Or | Xor | Sll | Srl | Sra | Slt | Sltu | Addi
            | Andi | Ori | Xori | Slli | Srli | Srai | Slti | Li | Ld | Fadd | Fsub | Fmul
            | Fdiv | Flt | Cvtif | Cvtfi => Some(self.rd),
            Jal | Jalr => Some(self.rd),
            St | Beq | Bne | Blt | Bge | Bltu | Bgeu | Nop | Halt => None,
        };
        rd.filter(|r| !r.is_zero())
    }

    /// Returns the registers this instruction reads (zero register elided).
    #[inline]
    pub fn uses(&self) -> [Option<Reg>; 2] {
        use Op::*;
        let (a, b) = match self.op {
            Add | Sub | Mul | Div | Rem | And | Or | Xor | Sll | Srl | Sra | Slt | Sltu | Fadd
            | Fsub | Fmul | Fdiv | Flt => (Some(self.rs1), Some(self.rs2)),
            Addi | Andi | Ori | Xori | Slli | Srli | Srai | Slti | Ld | Jalr | Cvtif | Cvtfi => {
                (Some(self.rs1), None)
            }
            St => (Some(self.rs1), Some(self.rs2)),
            Beq | Bne | Blt | Bge | Bltu | Bgeu => (Some(self.rs1), Some(self.rs2)),
            Li | Jal | Nop | Halt => (None, None),
        };
        [a.filter(|r| !r.is_zero()), b.filter(|r| !r.is_zero())]
    }

    /// Whether this is a memory load.
    #[inline]
    pub fn is_load(&self) -> bool {
        self.op == Op::Ld
    }

    /// Whether this is a memory store.
    #[inline]
    pub fn is_store(&self) -> bool {
        self.op == Op::St
    }

    /// Whether this accesses memory.
    #[inline]
    pub fn is_mem(&self) -> bool {
        self.is_load() || self.is_store()
    }

    /// Whether this is any control-flow instruction.
    #[inline]
    pub fn is_branch(&self) -> bool {
        self.branch_kind().is_some()
    }

    /// Whether this is a conditional branch.
    #[inline]
    pub fn is_cond_branch(&self) -> bool {
        matches!(self.branch_kind(), Some(BranchKind::Cond))
    }

    /// Control-flow classification, if this is a branch.
    #[inline]
    pub fn branch_kind(&self) -> Option<BranchKind> {
        use Op::*;
        match self.op {
            Beq | Bne | Blt | Bge | Bltu | Bgeu => Some(BranchKind::Cond),
            Jal => {
                if self.rd.is_zero() {
                    Some(BranchKind::Jump)
                } else {
                    Some(BranchKind::Call)
                }
            }
            Jalr => {
                if self.rd.is_zero() && self.rs1 == Reg::RA {
                    Some(BranchKind::Ret)
                } else if !self.rd.is_zero() {
                    Some(BranchKind::IndCall)
                } else {
                    Some(BranchKind::IndJump)
                }
            }
            _ => None,
        }
    }

    /// Whether the branch target is known statically (direct control flow).
    #[inline]
    pub fn has_static_target(&self) -> bool {
        use Op::*;
        matches!(self.op, Beq | Bne | Blt | Bge | Bltu | Bgeu | Jal)
    }

    /// The functional-unit class this instruction occupies.
    #[inline]
    pub fn fu_class(&self) -> FuClass {
        use Op::*;
        match self.op {
            Mul => FuClass::IntMul,
            Div | Rem => FuClass::IntDiv,
            Ld | St => FuClass::Mem,
            Fadd | Fsub | Fmul | Flt | Cvtif | Cvtfi => FuClass::Fp,
            Fdiv => FuClass::FpDiv,
            Beq | Bne | Blt | Bge | Bltu | Bgeu | Jal | Jalr => FuClass::Branch,
            _ => FuClass::IntAlu,
        }
    }

    /// Execution latency in cycles on its functional unit.
    #[inline]
    pub fn latency(&self) -> u64 {
        match self.fu_class() {
            FuClass::IntAlu | FuClass::Branch => 1,
            FuClass::IntMul => 3,
            FuClass::IntDiv => 12,
            FuClass::Mem => 1, // address generation; cache adds the rest
            FuClass::Fp => 4,
            FuClass::FpDiv => 16,
        }
    }
}

impl fmt::Display for Inst {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        use Op::*;
        match self.op {
            Nop => write!(f, "nop"),
            Halt => write!(f, "halt"),
            Li => write!(f, "li {}, {}", self.rd, self.imm),
            Ld => write!(f, "ld {}, {}({})", self.rd, self.imm, self.rs1),
            St => write!(f, "st {}, {}({})", self.rs2, self.imm, self.rs1),
            Jal => write!(f, "jal {}, {:#x}", self.rd, self.imm),
            Jalr => write!(f, "jalr {}, {}({})", self.rd, self.imm, self.rs1),
            Beq | Bne | Blt | Bge | Bltu | Bgeu => write!(
                f,
                "{:?} {}, {}, {:#x}",
                self.op, self.rs1, self.rs2, self.imm
            ),
            Addi | Andi | Ori | Xori | Slli | Srli | Srai | Slti => {
                write!(f, "{:?} {}, {}, {}", self.op, self.rd, self.rs1, self.imm)
            }
            _ => write!(f, "{:?} {}, {}, {}", self.op, self.rd, self.rs1, self.rs2),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reg_classification() {
        assert!(Reg::int(5).is_int());
        assert!(Reg::fp(5).is_fp());
        assert!(Reg::ZERO.is_zero());
        assert_eq!(Reg::fp(0).index(), 32);
        assert_eq!(format!("{}", Reg::int(7)), "r7");
        assert_eq!(format!("{}", Reg::fp(7)), "f7");
    }

    #[test]
    #[should_panic]
    fn reg_int_out_of_range_panics() {
        let _ = Reg::int(32);
    }

    #[test]
    fn def_elides_zero_register() {
        let i = Inst {
            op: Op::Add,
            rd: Reg::ZERO,
            rs1: Reg::int(1),
            rs2: Reg::int(2),
            imm: 0,
        };
        assert_eq!(i.def(), None);
    }

    #[test]
    fn store_has_no_def_two_uses() {
        let i = Inst {
            op: Op::St,
            rd: Reg::ZERO,
            rs1: Reg::int(3),
            rs2: Reg::int(4),
            imm: 8,
        };
        assert_eq!(i.def(), None);
        let u = i.uses();
        assert_eq!(u[0], Some(Reg::int(3)));
        assert_eq!(u[1], Some(Reg::int(4)));
    }

    #[test]
    fn branch_kinds() {
        let beq = Inst {
            op: Op::Beq,
            rd: Reg::ZERO,
            rs1: Reg::int(1),
            rs2: Reg::int(2),
            imm: 0x100,
        };
        assert_eq!(beq.branch_kind(), Some(BranchKind::Cond));
        let jal_call = Inst {
            op: Op::Jal,
            rd: Reg::RA,
            rs1: Reg::ZERO,
            rs2: Reg::ZERO,
            imm: 0x100,
        };
        assert_eq!(jal_call.branch_kind(), Some(BranchKind::Call));
        let jal_jump = Inst {
            rd: Reg::ZERO,
            ..jal_call
        };
        assert_eq!(jal_jump.branch_kind(), Some(BranchKind::Jump));
        let ret = Inst {
            op: Op::Jalr,
            rd: Reg::ZERO,
            rs1: Reg::RA,
            rs2: Reg::ZERO,
            imm: 0,
        };
        assert_eq!(ret.branch_kind(), Some(BranchKind::Ret));
        let ind = Inst {
            rs1: Reg::int(9),
            ..ret
        };
        assert_eq!(ind.branch_kind(), Some(BranchKind::IndJump));
    }

    #[test]
    fn fu_classes_and_latencies() {
        let mk = |op| Inst { op, ..Inst::NOP };
        assert_eq!(mk(Op::Mul).fu_class(), FuClass::IntMul);
        assert_eq!(mk(Op::Div).fu_class(), FuClass::IntDiv);
        assert_eq!(mk(Op::Ld).fu_class(), FuClass::Mem);
        assert_eq!(mk(Op::Fdiv).fu_class(), FuClass::FpDiv);
        assert!(mk(Op::Div).latency() > mk(Op::Add).latency());
    }

    #[test]
    fn display_all_shapes_nonempty() {
        for op in [
            Op::Add,
            Op::Addi,
            Op::Li,
            Op::Ld,
            Op::St,
            Op::Beq,
            Op::Jal,
            Op::Jalr,
            Op::Nop,
            Op::Halt,
            Op::Fadd,
        ] {
            let i = Inst { op, ..Inst::NOP };
            assert!(!format!("{i}").is_empty());
        }
    }
}
