//! vex-ir — a VEX-like intermediate representation for heavyweight DBI.
//!
//! Valgrind translates guest machine code into the VEX IR, hands the IR
//! superblock (`IRSB`) to the active *tool* which may inject statements
//! (typically dirty helper calls observing loads and stores), and then
//! executes the instrumented block. This crate reproduces that IR layer
//! for the `grindcore` framework:
//!
//! * [`IrBlock`] is the superblock: a flat statement list plus a block exit.
//! * Statements ([`Stmt`]) only reference *atoms* ([`Atom`]) — temporaries
//!   or constants — mirroring VEX's flattened form, which is what makes
//!   instrumentation trivial: the address of every load/store is always
//!   available in an atom that a tool can pass to a callback.
//! * [`Stmt::Dirty`] models VEX dirty helper calls; the interpreter routes
//!   them to syscalls, client requests, or tool callbacks.
//!
//! The IR is deliberately small (integers of 8 and 64 bits plus IEEE f64,
//! all stored as `u64` bit patterns) but structurally faithful: `IMark`s
//! delimit guest instructions, exits are guarded side exits, and a
//! [`sanity::check`] pass enforces the single-assignment discipline the
//! interpreter relies on.

#![warn(missing_docs)]

pub mod pretty;
pub mod sanity;

use serde::{Deserialize, Serialize};

/// Value types carried by temporaries and memory operations.
///
/// All values are materialized as `u64` bit patterns; `I8` loads/stores
/// touch a single byte, `F64` is an IEEE double stored by bits.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Ty {
    /// One byte, zero-extended to 64 bits when loaded.
    I8,
    /// A 64-bit integer.
    I64,
    /// An IEEE-754 double, stored as its bit pattern.
    F64,
}

impl Ty {
    /// Width of the type in bytes as seen by the memory subsystem.
    pub fn size(self) -> u64 {
        match self {
            Ty::I8 => 1,
            Ty::I64 | Ty::F64 => 8,
        }
    }
}

/// An IR temporary. Temporaries are written exactly once per block
/// (enforced by [`sanity::check`]) and live only within their block.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct Temp(pub u32);

/// A flat operand: either a constant or a temporary.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum Atom {
    /// A 64-bit literal (for `F64` ops this is the bit pattern).
    Const(u64),
    /// The value of a temporary defined earlier in the block.
    Tmp(Temp),
}

impl Atom {
    /// Convenience constructor for an immediate.
    pub fn imm(v: u64) -> Atom {
        Atom::Const(v)
    }
}

impl From<Temp> for Atom {
    fn from(t: Temp) -> Atom {
        Atom::Tmp(t)
    }
}

/// Binary operators. Integer comparisons produce 0 or 1.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum BinOp {
    /// Wrapping addition.
    Add,
    /// Wrapping subtraction.
    Sub,
    /// Wrapping multiplication.
    Mul,
    /// Signed division; division by zero traps the VM.
    DivS,
    /// Signed remainder; division by zero traps the VM.
    RemS,
    /// Bitwise and.
    And,
    /// Bitwise or.
    Or,
    /// Bitwise exclusive or.
    Xor,
    /// Shift left (count masked to 0..63).
    Shl,
    /// Logical shift right.
    ShrU,
    /// Arithmetic shift right.
    ShrS,
    /// Equality, producing 0/1.
    CmpEq,
    /// Inequality, producing 0/1.
    CmpNe,
    /// Signed less-than.
    CmpLtS,
    /// Signed less-or-equal.
    CmpLeS,
    /// Unsigned less-than.
    CmpLtU,
    /// IEEE double addition over bit patterns.
    FAdd,
    /// IEEE double subtraction over bit patterns.
    FSub,
    /// IEEE double multiplication over bit patterns.
    FMul,
    /// IEEE double division over bit patterns.
    FDiv,
    /// IEEE equality producing 0/1 (NaN compares unequal).
    FCmpEq,
    /// IEEE less-than producing 0/1.
    FCmpLt,
    /// IEEE less-or-equal producing 0/1.
    FCmpLe,
}

/// Unary operators.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum UnOp {
    /// Two's complement negation.
    Neg,
    /// Bitwise not.
    Not,
    /// Signed 64-bit integer to IEEE double.
    I2F,
    /// IEEE double to signed 64-bit integer (truncating; NaN maps to 0).
    F2I,
    /// IEEE negation of a double bit pattern.
    FNeg,
    /// Absolute value of a double bit pattern.
    FAbs,
    /// IEEE square root.
    FSqrt,
}

/// The right-hand side of a [`Stmt::WrTmp`].
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum Rhs {
    /// Copy an atom.
    Atom(Atom),
    /// Read a guest register.
    Get {
        /// Guest register number.
        reg: u8,
    },
    /// Load `ty.size()` bytes from guest memory.
    Load {
        /// Width of the load.
        ty: Ty,
        /// Guest address to load from.
        addr: Atom,
    },
    /// A binary operation.
    Binop {
        /// The operator.
        op: BinOp,
        /// Left operand.
        lhs: Atom,
        /// Right operand.
        rhs: Atom,
    },
    /// A unary operation.
    Unop {
        /// The operator.
        op: UnOp,
        /// The operand.
        x: Atom,
    },
    /// `if cond != 0 { then } else { els }` — branchless select.
    Ite {
        /// Select condition (any non-zero value selects `then`).
        cond: Atom,
        /// Value when the condition is non-zero.
        then: Atom,
        /// Value when the condition is zero.
        els: Atom,
    },
}

/// Identifies the callee of a [`Stmt::Dirty`] statement.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum DirtyCall {
    /// A guest syscall; the number is the first argument by convention.
    Syscall,
    /// A Valgrind-style client request: the instrumented program talking
    /// to the tool. Request code and arguments are the dirty-call args.
    ClientRequest,
    /// A tool-injected memory callback: args are `[addr, size]`.
    /// Only instrumentation inserts these.
    ToolMem {
        /// True for a store callback, false for a load.
        write: bool,
    },
    /// A custom tool helper identified by a tool-chosen id.
    ToolHelper {
        /// Tool-chosen helper id, routed back to the registering tool.
        id: u32,
    },
}

/// Why a block (or side exit) transfers control — Valgrind's `IRJumpKind`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum JumpKind {
    /// An ordinary jump or fallthrough.
    Boring,
    /// A function call (the shadow call stack pushes the return address).
    Call {
        /// Guest address execution resumes at after the callee returns.
        return_addr: u64,
    },
    /// A function return (the shadow call stack pops).
    Ret,
    /// The guest executed a halt; the thread exits.
    Halt,
}

impl BinOp {
    /// Stable wire tag for on-disk serialization. Tags are append-only:
    /// new operators take the next free number, existing numbers never
    /// change, so cached code from older sessions stays decodable.
    pub fn wire_tag(self) -> u8 {
        match self {
            BinOp::Add => 0,
            BinOp::Sub => 1,
            BinOp::Mul => 2,
            BinOp::DivS => 3,
            BinOp::RemS => 4,
            BinOp::And => 5,
            BinOp::Or => 6,
            BinOp::Xor => 7,
            BinOp::Shl => 8,
            BinOp::ShrU => 9,
            BinOp::ShrS => 10,
            BinOp::CmpEq => 11,
            BinOp::CmpNe => 12,
            BinOp::CmpLtS => 13,
            BinOp::CmpLeS => 14,
            BinOp::CmpLtU => 15,
            BinOp::FAdd => 16,
            BinOp::FSub => 17,
            BinOp::FMul => 18,
            BinOp::FDiv => 19,
            BinOp::FCmpEq => 20,
            BinOp::FCmpLt => 21,
            BinOp::FCmpLe => 22,
        }
    }

    /// Inverse of [`BinOp::wire_tag`]; `None` on an unknown tag.
    pub fn from_wire_tag(t: u8) -> Option<BinOp> {
        Some(match t {
            0 => BinOp::Add,
            1 => BinOp::Sub,
            2 => BinOp::Mul,
            3 => BinOp::DivS,
            4 => BinOp::RemS,
            5 => BinOp::And,
            6 => BinOp::Or,
            7 => BinOp::Xor,
            8 => BinOp::Shl,
            9 => BinOp::ShrU,
            10 => BinOp::ShrS,
            11 => BinOp::CmpEq,
            12 => BinOp::CmpNe,
            13 => BinOp::CmpLtS,
            14 => BinOp::CmpLeS,
            15 => BinOp::CmpLtU,
            16 => BinOp::FAdd,
            17 => BinOp::FSub,
            18 => BinOp::FMul,
            19 => BinOp::FDiv,
            20 => BinOp::FCmpEq,
            21 => BinOp::FCmpLt,
            22 => BinOp::FCmpLe,
            _ => return None,
        })
    }
}

impl UnOp {
    /// Stable wire tag for on-disk serialization (append-only, like
    /// [`BinOp::wire_tag`]).
    pub fn wire_tag(self) -> u8 {
        match self {
            UnOp::Neg => 0,
            UnOp::Not => 1,
            UnOp::I2F => 2,
            UnOp::F2I => 3,
            UnOp::FNeg => 4,
            UnOp::FAbs => 5,
            UnOp::FSqrt => 6,
        }
    }

    /// Inverse of [`UnOp::wire_tag`]; `None` on an unknown tag.
    pub fn from_wire_tag(t: u8) -> Option<UnOp> {
        Some(match t {
            0 => UnOp::Neg,
            1 => UnOp::Not,
            2 => UnOp::I2F,
            3 => UnOp::F2I,
            4 => UnOp::FNeg,
            5 => UnOp::FAbs,
            6 => UnOp::FSqrt,
            _ => return None,
        })
    }
}

/// A single IR statement.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum Stmt {
    /// Marks the start of the guest instruction at `addr` (`IMark` in VEX).
    IMark {
        /// Guest address of the instruction.
        addr: u64,
        /// Encoded length of the instruction in bytes.
        len: u32,
    },
    /// Define a temporary.
    WrTmp {
        /// Temporary being defined (exactly once per block).
        dst: Temp,
        /// Value expression.
        rhs: Rhs,
    },
    /// Write a guest register.
    Put {
        /// Guest register number.
        reg: u8,
        /// Value to write.
        src: Atom,
    },
    /// Store to guest memory.
    Store {
        /// Width of the store.
        ty: Ty,
        /// Guest address to store to.
        addr: Atom,
        /// Value to store.
        val: Atom,
    },
    /// Atomic compare-and-swap:
    /// `dst = mem[addr]; if dst == expected { mem[addr] = new }`.
    Cas {
        /// Receives the old memory value.
        dst: Temp,
        /// Guest address operated on.
        addr: Atom,
        /// Value the memory must hold for the swap to happen.
        expected: Atom,
        /// Replacement value.
        new: Atom,
    },
    /// Atomic fetch-and-add: `dst = mem[addr]; mem[addr] += val`.
    AtomicAdd {
        /// Receives the old memory value.
        dst: Temp,
        /// Guest address operated on.
        addr: Atom,
        /// Addend.
        val: Atom,
    },
    /// A dirty helper call (syscall / client request / tool callback).
    Dirty {
        /// Which helper is being called.
        call: DirtyCall,
        /// Call arguments, already flattened to atoms.
        args: Vec<Atom>,
        /// Optional temporary receiving the helper's return value.
        dst: Option<Temp>,
    },
    /// Guarded side exit: if `guard != 0`, leave the block for `target`.
    Exit {
        /// Exit condition (any non-zero value takes the exit).
        guard: Atom,
        /// Constant guest destination address.
        target: u64,
        /// Control-transfer kind of the exit.
        kind: JumpKind,
    },
}

/// A block exit described at translation time, used by the dispatcher's
/// superblock-chaining layer: side exits always carry a constant target;
/// the fallthrough exit only does when `next` is a constant atom.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StaticExit {
    /// Constant destination, if known at translation time. `None` marks
    /// an indirect exit (computed `next`, e.g. a return), which the
    /// dispatcher resolves through its indirect-branch target cache.
    pub target: Option<u64>,
    /// Control-transfer kind of the exit.
    pub kind: JumpKind,
}

/// An IR superblock: single entry, one unconditional final exit plus any
/// number of guarded side exits.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct IrBlock {
    /// Guest address of the first instruction.
    pub base: u64,
    /// Flat statement list.
    pub stmts: Vec<Stmt>,
    /// Target of the fallthrough exit.
    pub next: Atom,
    /// Kind of the fallthrough exit.
    pub jumpkind: JumpKind,
    /// Number of temporaries used (temps are `0..n_temps`).
    pub n_temps: u32,
}

impl IrBlock {
    /// Create an empty block starting at `base`.
    pub fn new(base: u64) -> IrBlock {
        IrBlock {
            base,
            stmts: Vec::new(),
            next: Atom::Const(0),
            jumpkind: JumpKind::Boring,
            n_temps: 0,
        }
    }

    /// Allocate a fresh temporary.
    pub fn new_temp(&mut self) -> Temp {
        let t = Temp(self.n_temps);
        self.n_temps += 1;
        t
    }

    /// Number of guest instructions in the block (count of IMarks).
    pub fn guest_instrs(&self) -> usize {
        self.stmts.iter().filter(|s| matches!(s, Stmt::IMark { .. })).count()
    }

    /// Iterate over the guest addresses of the instructions in this block.
    pub fn imarks(&self) -> impl Iterator<Item = u64> + '_ {
        self.stmts.iter().filter_map(|s| match s {
            Stmt::IMark { addr, .. } => Some(*addr),
            _ => None,
        })
    }

    /// Number of guarded side exits (`Stmt::Exit`) in the block.
    pub fn side_exit_count(&self) -> usize {
        self.stmts.iter().filter(|s| matches!(s, Stmt::Exit { .. })).count()
    }

    /// Exit descriptors in dispatch order: every side exit in statement
    /// order, then the fallthrough exit last. The index into this vector
    /// is the *exit ordinal* the dispatcher uses for chain-link slots.
    pub fn static_exits(&self) -> Vec<StaticExit> {
        let mut v: Vec<StaticExit> = self
            .stmts
            .iter()
            .filter_map(|s| match s {
                Stmt::Exit { target, kind, .. } => {
                    Some(StaticExit { target: Some(*target), kind: *kind })
                }
                _ => None,
            })
            .collect();
        v.push(StaticExit {
            target: match self.next {
                Atom::Const(c) => Some(c),
                Atom::Tmp(_) => None,
            },
            kind: self.jumpkind,
        });
        v
    }

    /// Guest address range `[base, end)` covered by the block's
    /// instructions, from the IMarks. Used for translation invalidation
    /// (self-modifying code / discard requests).
    pub fn extent(&self) -> (u64, u64) {
        let end = self
            .stmts
            .iter()
            .rev()
            .find_map(|s| match s {
                Stmt::IMark { addr, len } => Some(addr + *len as u64),
                _ => None,
            })
            .unwrap_or(self.base);
        (self.base, end.max(self.base))
    }

    /// Host bytes the block owns on the heap: its statement buffer and
    /// the argument lists of its dirty calls.
    pub fn heap_bytes(&self) -> usize {
        let args: usize = self
            .stmts
            .iter()
            .map(|s| match s {
                Stmt::Dirty { args, .. } => args.capacity() * std::mem::size_of::<Atom>(),
                _ => 0,
            })
            .sum();
        self.stmts.capacity() * std::mem::size_of::<Stmt>() + args
    }
}

/// Evaluate a binary op on raw 64-bit values. Returns `None` on division
/// by zero, which the VM turns into a guest trap.
#[inline]
pub fn eval_binop(op: BinOp, a: u64, b: u64) -> Option<u64> {
    let fa = f64::from_bits(a);
    let fb = f64::from_bits(b);
    Some(match op {
        BinOp::Add => a.wrapping_add(b),
        BinOp::Sub => a.wrapping_sub(b),
        BinOp::Mul => a.wrapping_mul(b),
        BinOp::DivS => {
            if b == 0 {
                return None;
            }
            (a as i64).wrapping_div(b as i64) as u64
        }
        BinOp::RemS => {
            if b == 0 {
                return None;
            }
            (a as i64).wrapping_rem(b as i64) as u64
        }
        BinOp::And => a & b,
        BinOp::Or => a | b,
        BinOp::Xor => a ^ b,
        BinOp::Shl => a.wrapping_shl(b as u32 & 63),
        BinOp::ShrU => a.wrapping_shr(b as u32 & 63),
        BinOp::ShrS => ((a as i64).wrapping_shr(b as u32 & 63)) as u64,
        BinOp::CmpEq => (a == b) as u64,
        BinOp::CmpNe => (a != b) as u64,
        BinOp::CmpLtS => ((a as i64) < (b as i64)) as u64,
        BinOp::CmpLeS => ((a as i64) <= (b as i64)) as u64,
        BinOp::CmpLtU => (a < b) as u64,
        BinOp::FAdd => (fa + fb).to_bits(),
        BinOp::FSub => (fa - fb).to_bits(),
        BinOp::FMul => (fa * fb).to_bits(),
        BinOp::FDiv => (fa / fb).to_bits(),
        BinOp::FCmpEq => (fa == fb) as u64,
        BinOp::FCmpLt => (fa < fb) as u64,
        BinOp::FCmpLe => (fa <= fb) as u64,
    })
}

/// Evaluate a unary op on a raw 64-bit value.
#[inline]
pub fn eval_unop(op: UnOp, x: u64) -> u64 {
    match op {
        UnOp::Neg => (x as i64).wrapping_neg() as u64,
        UnOp::Not => !x,
        UnOp::I2F => ((x as i64) as f64).to_bits(),
        UnOp::F2I => {
            let f = f64::from_bits(x);
            if f.is_nan() {
                0
            } else {
                (f as i64) as u64
            }
        }
        UnOp::FNeg => (-f64::from_bits(x)).to_bits(),
        UnOp::FAbs => f64::from_bits(x).abs().to_bits(),
        UnOp::FSqrt => f64::from_bits(x).sqrt().to_bits(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ty_sizes() {
        assert_eq!(Ty::I8.size(), 1);
        assert_eq!(Ty::I64.size(), 8);
        assert_eq!(Ty::F64.size(), 8);
    }

    #[test]
    fn binop_integer_semantics() {
        assert_eq!(eval_binop(BinOp::Add, 3, 4), Some(7));
        assert_eq!(eval_binop(BinOp::Sub, 3, 4), Some(u64::MAX));
        assert_eq!(eval_binop(BinOp::Mul, u64::MAX, 2), Some(u64::MAX - 1));
        assert_eq!(eval_binop(BinOp::DivS, (-9i64) as u64, 2), Some((-4i64) as u64));
        assert_eq!(eval_binop(BinOp::RemS, (-9i64) as u64, 2), Some((-1i64) as u64));
        assert_eq!(eval_binop(BinOp::DivS, 1, 0), None);
        assert_eq!(eval_binop(BinOp::RemS, 1, 0), None);
    }

    #[test]
    fn binop_comparisons_are_signed_where_named() {
        let neg1 = (-1i64) as u64;
        assert_eq!(eval_binop(BinOp::CmpLtS, neg1, 0), Some(1));
        assert_eq!(eval_binop(BinOp::CmpLtU, neg1, 0), Some(0));
        assert_eq!(eval_binop(BinOp::CmpLeS, 5, 5), Some(1));
        assert_eq!(eval_binop(BinOp::CmpEq, 5, 5), Some(1));
        assert_eq!(eval_binop(BinOp::CmpNe, 5, 5), Some(0));
    }

    #[test]
    fn binop_shifts_mask_the_count() {
        assert_eq!(eval_binop(BinOp::Shl, 1, 64), Some(1));
        assert_eq!(eval_binop(BinOp::ShrU, 0x8000_0000_0000_0000, 63), Some(1));
        assert_eq!(eval_binop(BinOp::ShrS, 0x8000_0000_0000_0000, 63), Some(u64::MAX));
    }

    #[test]
    fn binop_float_semantics() {
        let two = 2.0f64.to_bits();
        let three = 3.0f64.to_bits();
        assert_eq!(eval_binop(BinOp::FAdd, two, three), Some(5.0f64.to_bits()));
        assert_eq!(eval_binop(BinOp::FMul, two, three), Some(6.0f64.to_bits()));
        assert_eq!(eval_binop(BinOp::FCmpLt, two, three), Some(1));
        assert_eq!(eval_binop(BinOp::FCmpEq, two, two), Some(1));
        let nan = f64::NAN.to_bits();
        assert_eq!(eval_binop(BinOp::FCmpEq, nan, nan), Some(0));
    }

    #[test]
    fn unop_semantics() {
        assert_eq!(eval_unop(UnOp::Neg, 1), u64::MAX);
        assert_eq!(eval_unop(UnOp::Not, 0), u64::MAX);
        assert_eq!(eval_unop(UnOp::I2F, (-3i64) as u64), (-3.0f64).to_bits());
        assert_eq!(eval_unop(UnOp::F2I, (-3.7f64).to_bits()), (-3i64) as u64);
        assert_eq!(eval_unop(UnOp::F2I, f64::NAN.to_bits()), 0);
        assert_eq!(eval_unop(UnOp::FNeg, 1.5f64.to_bits()), (-1.5f64).to_bits());
        assert_eq!(eval_unop(UnOp::FAbs, (-1.5f64).to_bits()), 1.5f64.to_bits());
        assert_eq!(eval_unop(UnOp::FSqrt, 9.0f64.to_bits()), 3.0f64.to_bits());
    }

    #[test]
    fn static_exits_and_extent() {
        let mut b = IrBlock::new(0x1000);
        let t0 = b.new_temp();
        b.stmts.push(Stmt::IMark { addr: 0x1000, len: 16 });
        b.stmts.push(Stmt::WrTmp { dst: t0, rhs: Rhs::Atom(Atom::imm(1)) });
        b.stmts.push(Stmt::Exit { guard: t0.into(), target: 0x2000, kind: JumpKind::Boring });
        b.stmts.push(Stmt::IMark { addr: 0x1010, len: 16 });
        b.next = Atom::imm(0x1020);
        assert_eq!(b.side_exit_count(), 1);
        let exits = b.static_exits();
        assert_eq!(exits.len(), 2);
        assert_eq!(exits[0], StaticExit { target: Some(0x2000), kind: JumpKind::Boring });
        assert_eq!(exits[1], StaticExit { target: Some(0x1020), kind: JumpKind::Boring });
        assert_eq!(b.extent(), (0x1000, 0x1020));

        // Indirect fallthrough (computed next) has no static target.
        b.next = t0.into();
        assert_eq!(b.static_exits()[1].target, None);

        // A block with no IMarks covers nothing.
        assert_eq!(IrBlock::new(0x40).extent(), (0x40, 0x40));
    }

    #[test]
    fn block_temp_allocation_and_imarks() {
        let mut b = IrBlock::new(0x1000);
        let t0 = b.new_temp();
        let t1 = b.new_temp();
        assert_eq!(t0, Temp(0));
        assert_eq!(t1, Temp(1));
        assert_eq!(b.n_temps, 2);
        b.stmts.push(Stmt::IMark { addr: 0x1000, len: 16 });
        b.stmts.push(Stmt::WrTmp { dst: t0, rhs: Rhs::Atom(Atom::imm(1)) });
        b.stmts.push(Stmt::IMark { addr: 0x1010, len: 16 });
        assert_eq!(b.guest_instrs(), 2);
        assert_eq!(b.imarks().collect::<Vec<_>>(), vec![0x1000, 0x1010]);
    }
}
