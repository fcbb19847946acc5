//! Pre-flattened superblock form for the chained dispatcher.
//!
//! The reference engine (`VmConfig::chaining = false`) walks the
//! instrumented [`IrBlock`] statement list directly: every guest
//! instruction pays an `IMark` dispatch and every operand pays a nested
//! `Rhs` match. Since a chained block is by definition steady-state
//! hot, the chaining engine compiles it once — at translation time —
//! into this flat form:
//!
//! * `IMark`s disappear: the instruction counts a block contributes at
//!   every observable point (each callback, each exit) are computed
//!   statically and applied as a single add, and the faulting pc of
//!   every trap site is baked in as a constant;
//! * operands are one `u16` each — a tag bit selects the temp file or
//!   the block's deduplicated constant pool — and every [`FOp`] is 8
//!   bytes, so ops evaluate without matching an `Atom` enum and the
//!   translation cache, most of what a Taskgrind run adds to memory,
//!   stays small;
//! * cold payloads (callback and dirty-call operands, the operands of
//!   the few ops that do not fit in 8 bytes, trap pcs) live in one side
//!   table, and side exits in another, so the hot op array stays small.
//!
//! Semantics are bit-identical to the reference walk — same memory and
//! register effects, same tool-callback order and arguments, same
//! `instrs` at every callback and exit, same error pcs. The
//! differential test layer (`tests/chaining_differential.rs`) holds the
//! two engines to that.
//!
//! The executor indexes the temp file, the pool, the register file and
//! the side tables with the fields of each op. [`FlatBlock::check`]
//! proves every such index in range, so a block decoded from the disk
//! cache runs only when it cannot panic the dispatch loop.

use crate::mem::PageIc;
use tga::NUM_REGS;
use vex_ir::{Atom, BinOp, DirtyCall, IrBlock, JumpKind, Rhs, Stmt, Ty, UnOp};

/// Operand tag bit: set → temp index, clear → constant-pool index.
pub const TMP_BIT: u16 = 0x8000;

/// Most temps a block may have, and most constants its pool may hold:
/// an operand keeps 15 bits for the index. A lifted superblock of
/// [`crate::lift::MAX_BLOCK_INSTS`] instructions, instrumented, needs a
/// few hundred of each at most.
pub const MAX_TEMPS: usize = TMP_BIT as usize;

/// One flat op: 8 bytes. Operands (`u16`) index the temp file or
/// constant pool (see [`TMP_BIT`]); `c` fields index the pool directly;
/// `ic` fields index [`FlatBlock::ics`], `side` fields
/// [`FlatBlock::side`] and `idx` fields [`FlatBlock::exits`].
#[derive(Clone, Copy, Debug)]
pub enum FOp {
    /// `tmps[dst] = regs[reg]`
    Get {
        dst: u16,
        reg: u8,
    },
    /// `tmps[dst] = src`
    Mov {
        dst: u16,
        src: u16,
    },
    /// 8-byte load.
    Ld8 {
        dst: u16,
        addr: u16,
        ic: u16,
    },
    /// 1-byte load (zero-extended).
    Ld1 {
        dst: u16,
        addr: u16,
        ic: u16,
    },
    /// Non-trapping binary op.
    Bin {
        dst: u16,
        op: BinOp,
        a: u16,
        b: u16,
    },
    /// Binary op that can fault (`DivS`/`RemS`); its operands and the
    /// faulting site are an [`FSide::Trap`].
    BinTrap {
        dst: u16,
        op: BinOp,
        side: u16,
    },
    Un {
        dst: u16,
        op: UnOp,
        x: u16,
    },
    /// Branchless select; its operands are an [`FSide::Ite`].
    Ite {
        dst: u16,
        side: u16,
    },
    /// `regs[reg] = src`
    Put {
        reg: u8,
        src: u16,
    },
    /// 8-byte store.
    St8 {
        addr: u16,
        val: u16,
        ic: u16,
    },
    /// 1-byte store.
    St1 {
        addr: u16,
        val: u16,
        ic: u16,
    },
    /// Atomic compare-and-swap; the compared and new values are an
    /// [`FSide::Cas`].
    Cas {
        dst: u16,
        addr: u16,
        side: u16,
    },
    /// Atomic fetch-and-add.
    Amo {
        dst: u16,
        addr: u16,
        val: u16,
    },
    /// Dirty helper call, an [`FSide::Dirty`].
    Dirty {
        side: u16,
    },
    /// Tool memory-access callback, an [`FSide::MemCb`]. The hottest
    /// dirty call gets a dedicated op so the interpreter reads two
    /// operands straight from the side table instead of collecting an
    /// argument `Vec` per call.
    MemCb {
        side: u16,
    },
    /// Guarded side exit to `exits[idx]`.
    Exit {
        guard: u16,
        idx: u16,
    },

    // --- Fused ops, produced only by the peephole pass below. The
    // guest ISA's load/store/ALU instructions each lift to a 3-4 stmt
    // Get/Bin/Ld/Put chain whose intermediates are read exactly once;
    // fusing adjacent single-use pairs collapses each chain back to one
    // op, roughly halving dispatches per block. Every rule merges two
    // ADJACENT ops where the first writes only a temp read solely by
    // the second, so effects stay in program order.
    /// `regs[rd] = regs[rs]` (Get+Put).
    MovRR {
        rd: u8,
        rs: u8,
    },
    /// `tmps[dst] = op(regs[rs], consts[c])` (Get+Bin).
    BinRI {
        dst: u16,
        op: BinOp,
        rs: u8,
        c: u16,
    },
    /// `regs[rd] = op(regs[rs], consts[c])` (BinRI+Put) — e.g. `addi`.
    BinRIP {
        rd: u8,
        op: BinOp,
        rs: u8,
        c: u16,
    },
    /// `tmps[dst] = op(a, regs[rb])` (Get+Bin, register on the rhs).
    BinTR {
        dst: u16,
        op: BinOp,
        a: u16,
        rb: u8,
    },
    /// `tmps[dst] = op(regs[ra], regs[rb])` (Get+BinTR).
    BinRR {
        dst: u16,
        op: BinOp,
        ra: u8,
        rb: u8,
    },
    /// `regs[rd] = op(regs[ra], regs[rb])` (BinRR+Put) — reg-reg ALU.
    BinRRP {
        rd: u8,
        op: BinOp,
        ra: u8,
        rb: u8,
    },
    /// 8-byte load at `regs[rs] + consts[c]` into a temp.
    LdRO {
        dst: u16,
        rs: u8,
        c: u16,
        ic: u16,
    },
    /// `regs[rd] = load(regs[rs] + consts[c])` — a whole guest `ld`.
    LdRP {
        rd: u8,
        rs: u8,
        c: u16,
        ic: u16,
    },
    /// 8-byte store of `regs[vr]` at an operand address (Get+St8).
    StV {
        addr: u16,
        vr: u8,
        ic: u16,
    },
    /// 8-byte store of an operand at `regs[rs] + consts[c]`.
    StRV {
        rs: u8,
        c: u16,
        val: u16,
        ic: u16,
    },
    /// 8-byte store of `regs[vr]` at `regs[rs] + consts[c]` — a whole
    /// guest `st`.
    StRR {
        rs: u8,
        c: u16,
        vr: u8,
        ic: u16,
    },
    /// `regs[rd] = load(addr)` (Ld8+Put); a `Get` or `BinRI` address
    /// then folds in to make an `LdRP`.
    LdP {
        rd: u8,
        addr: u16,
        ic: u16,
    },
}

const _: () = assert!(std::mem::size_of::<FOp>() == 8);

/// Cold payload of a dirty call.
#[derive(Clone, Debug)]
pub struct FDirty {
    pub call: DirtyCall,
    pub args: Box<[u16]>,
    pub dst: Option<u16>,
    /// Guest pc of the instruction containing the call (the last
    /// `IMark` before it).
    pub pc: u64,
    /// Guest instructions retired when control reaches the call.
    pub instrs: u16,
}

/// One entry of [`FlatBlock::side`]: what an op that does not fit in 8
/// bytes keeps out of the op array. `pc` is the guest pc of the
/// instruction the entry belongs to and `instrs` the instructions
/// retired when a callback fires or a trap faults.
#[derive(Clone, Debug)]
pub enum FSide {
    /// Operands of a [`FOp::MemCb`].
    MemCb { addr: u16, size: u16, write: bool, pc: u64, instrs: u16 },
    /// A [`FOp::Dirty`] call, boxed: dirty calls are rare, and inline
    /// they would triple the size of every entry.
    Dirty(Box<FDirty>),
    /// Operands and faulting site of a [`FOp::BinTrap`].
    Trap { a: u16, b: u16, pc: u64, instrs: u16 },
    /// Condition and arms of a [`FOp::Ite`].
    Ite { c: u16, t: u16, e: u16 },
    /// Compared and new values of a [`FOp::Cas`].
    Cas { expected: u16, new: u16 },
}

/// Descriptor of a guarded side exit. Its chain-link ordinal is its
/// index in [`FlatBlock::exits`]; the fallthrough's is `exits.len()`.
#[derive(Clone, Copy, Debug)]
pub struct FExit {
    pub target: u64,
    pub kind: JumpKind,
    /// Guest instructions retired when this exit is taken.
    pub instrs: u16,
}

/// A superblock compiled for the chained engine. Produced from the
/// *instrumented* IR, so tool callbacks are ordinary ops:
/// [`FOp::MemCb`] for memory accesses, [`FOp::Dirty`] for the rest.
#[derive(Clone, Debug)]
pub struct FlatBlock {
    pub base: u64,
    pub ops: Box<[FOp]>,
    /// Constant pool, one entry per distinct value.
    pub consts: Box<[u64]>,
    /// Per-site inline caches of the block's load/store ops: each site
    /// remembers the page it touched last, so steady-state guest memory
    /// access skips the page-table probe entirely.
    pub ics: Box<[PageIc]>,
    /// Side exits in chain-link ordinal order (statement order).
    pub exits: Box<[FExit]>,
    pub side: Box<[FSide]>,
    pub jumpkind: JumpKind,
    pub n_temps: u16,
    /// Fallthrough target operand (constant or temp).
    pub next: u16,
    /// Guest instructions retired on the fallthrough path.
    pub instrs_total: u16,
    /// True when some temp may be read before it is written (a defect
    /// [`vex_ir::sanity`] flags, but tolerated here): the executor must
    /// zero the temp file so such reads see 0, exactly as the reference
    /// walker's freshly zeroed buffer does. Sane blocks skip the memset.
    /// Derived from the ops by [`FlatBlock::reads_undefined_temp`].
    pub zero_temps: bool,
}

impl FlatBlock {
    /// True when the fallthrough target is known at translation time
    /// (chains through a link slot rather than the IBTC).
    pub fn next_is_const(&self) -> bool {
        self.next & TMP_BIT == 0
    }

    /// Host bytes the block owns on the heap: its op array and side
    /// tables (every one an exact-length boxed slice).
    pub(crate) fn heap_bytes(&self) -> usize {
        use std::mem::{size_of, size_of_val};
        let dirties: usize = self
            .side
            .iter()
            .map(|s| match s {
                FSide::Dirty(d) => size_of::<FDirty>() + size_of_val(&*d.args),
                _ => 0,
            })
            .sum();
        size_of_val(&*self.ops)
            + size_of_val(&*self.consts)
            + size_of_val(&*self.ics)
            + size_of_val(&*self.exits)
            + size_of_val(&*self.side)
            + dirties
    }

    /// Def-before-use scan over the ops (the sanity checker's
    /// `UseBeforeDef` rule): true if any operand can read a temp no
    /// earlier op defined, in which case the executor must zero the temp
    /// file to match the reference walker's zeroed buffer.
    pub fn reads_undefined_temp(&self) -> bool {
        let mut defined = vec![false; self.n_temps as usize];
        let undef = |o: u16, d: &[bool]| {
            o & TMP_BIT != 0 && !d.get((o & !TMP_BIT) as usize).copied().unwrap_or(false)
        };
        for op in self.ops.iter() {
            let mut bad = false;
            reads(op, &self.side, &mut |o| bad |= undef(o, &defined));
            if bad {
                return true;
            }
            if let Some(slot) = writes(op, &self.side).and_then(|t| defined.get_mut(t as usize)) {
                *slot = true;
            }
        }
        undef(self.next, &defined)
    }

    /// Check every index the executor will follow: temps against
    /// `n_temps`, constants against the pool, registers against the
    /// register file, inline caches, side entries (of the kind the op
    /// expects) and exits against their tables, and dirty-call argument
    /// counts against what each call reads. Also checks that no
    /// non-trapping op carries a trapping `BinOp`, that the instruction
    /// counts never fall along the ops (the executor credits their
    /// differences), and that every exit retires at least one
    /// instruction, so a run always advances towards its budget.
    /// Returns the offending field on failure.
    pub fn check(&self) -> Result<(), &'static str> {
        let n_temps = self.n_temps as usize;
        if n_temps > MAX_TEMPS {
            return Err("flat n_temps");
        }
        let temp = |t: u16| (t as usize) < n_temps;
        let konst = |c: u16| (c as usize) < self.consts.len();
        let opnd = |o: u16| if o & TMP_BIT != 0 { temp(o & !TMP_BIT) } else { konst(o) };
        let reg = |r: u8| (r as usize) < NUM_REGS;
        let ic = |i: u16| (i as usize) < self.ics.len();
        let pure = |op: BinOp| !matches!(op, BinOp::DivS | BinOp::RemS);
        // Instructions credited so far, as the executor counts them.
        let mut counted: u16 = 0;
        for op in self.ops.iter() {
            let side = |i: u16| self.side.get(i as usize);
            let ok = match *op {
                FOp::Get { dst, reg: r } => temp(dst) && reg(r),
                FOp::Mov { dst, .. } | FOp::Un { dst, .. } | FOp::Amo { dst, .. } => temp(dst),
                FOp::Ld8 { dst, ic: i, .. } | FOp::Ld1 { dst, ic: i, .. } => temp(dst) && ic(i),
                FOp::Bin { dst, op, .. } => temp(dst) && pure(op),
                FOp::BinTrap { dst, side: s, .. } => {
                    temp(dst)
                        && matches!(side(s), Some(&FSide::Trap { instrs, .. }) if instrs >= counted)
                }
                FOp::Ite { dst, side: s } => {
                    temp(dst) && matches!(side(s), Some(FSide::Ite { .. }))
                }
                FOp::Put { reg: r, .. } => reg(r),
                FOp::St8 { ic: i, .. } | FOp::St1 { ic: i, .. } => ic(i),
                FOp::Cas { dst, side: s, .. } => {
                    temp(dst) && matches!(side(s), Some(FSide::Cas { .. }))
                }
                FOp::Dirty { side: s } => match side(s) {
                    Some(FSide::Dirty(d)) if d.instrs >= counted => {
                        counted = d.instrs;
                        d.dst.is_none_or(temp) && d.args.len() >= min_args(d.call)
                    }
                    _ => false,
                },
                FOp::MemCb { side: s } => match side(s) {
                    Some(&FSide::MemCb { instrs, .. }) if instrs >= counted => {
                        counted = instrs;
                        true
                    }
                    _ => false,
                },
                FOp::Exit { idx, .. } => {
                    self.exits.get(idx as usize).is_some_and(|e| e.instrs >= counted.max(1))
                }
                FOp::MovRR { rd, rs } => reg(rd) && reg(rs),
                FOp::BinRI { dst, op, rs, c } => temp(dst) && pure(op) && reg(rs) && konst(c),
                FOp::BinRIP { rd, op, rs, c } => reg(rd) && pure(op) && reg(rs) && konst(c),
                FOp::BinTR { dst, op, rb, .. } => temp(dst) && pure(op) && reg(rb),
                FOp::BinRR { dst, op, ra, rb } => temp(dst) && pure(op) && reg(ra) && reg(rb),
                FOp::BinRRP { rd, op, ra, rb } => reg(rd) && pure(op) && reg(ra) && reg(rb),
                FOp::LdRO { dst, rs, c, ic: i } => temp(dst) && reg(rs) && konst(c) && ic(i),
                FOp::LdRP { rd, rs, c, ic: i } => reg(rd) && reg(rs) && konst(c) && ic(i),
                FOp::StV { vr, ic: i, .. } => reg(vr) && ic(i),
                FOp::StRV { rs, c, ic: i, .. } => reg(rs) && konst(c) && ic(i),
                FOp::StRR { rs, c, vr, ic: i } => reg(rs) && konst(c) && reg(vr) && ic(i),
                FOp::LdP { rd, ic: i, .. } => reg(rd) && ic(i),
            };
            let mut operands_ok = true;
            reads(op, &self.side, &mut |o| operands_ok &= opnd(o));
            if !(ok && operands_ok) {
                return Err("flat op index");
            }
        }
        if !opnd(self.next) {
            return Err("flat next");
        }
        if self.instrs_total < counted.max(1) {
            return Err("flat instrs_total");
        }
        Ok(())
    }
}

/// Arguments a dirty call of kind `call` reads (the executor slices
/// them by position).
fn min_args(call: DirtyCall) -> usize {
    match call {
        DirtyCall::Syscall => 7,
        DirtyCall::ClientRequest => 6,
        DirtyCall::ToolMem { .. } => 2,
        DirtyCall::ToolHelper { .. } => 0,
    }
}

/// Calls `f` on every operand `op` reads, its side entry's included.
/// A side index that is out of range or names an entry of another kind
/// reads nothing ([`FlatBlock::check`] rejects both).
fn reads(op: &FOp, side: &[FSide], f: &mut impl FnMut(u16)) {
    let entry = |i: u16| side.get(i as usize);
    match *op {
        FOp::Get { .. }
        | FOp::MovRR { .. }
        | FOp::BinRI { .. }
        | FOp::BinRIP { .. }
        | FOp::BinRR { .. }
        | FOp::BinRRP { .. }
        | FOp::LdRO { .. }
        | FOp::LdRP { .. }
        | FOp::StRR { .. } => {}
        FOp::Mov { src, .. } | FOp::Put { src, .. } => f(src),
        FOp::Ld8 { addr, .. }
        | FOp::Ld1 { addr, .. }
        | FOp::StV { addr, .. }
        | FOp::LdP { addr, .. } => f(addr),
        FOp::Bin { a, b, .. } => {
            f(a);
            f(b);
        }
        FOp::Un { x, .. } => f(x),
        FOp::St8 { addr, val, .. } | FOp::St1 { addr, val, .. } | FOp::Amo { addr, val, .. } => {
            f(addr);
            f(val);
        }
        FOp::Exit { guard, .. } => f(guard),
        FOp::BinTR { a, .. } => f(a),
        FOp::StRV { val, .. } => f(val),
        FOp::BinTrap { side: i, .. } => {
            if let Some(&FSide::Trap { a, b, .. }) = entry(i) {
                f(a);
                f(b);
            }
        }
        FOp::Ite { side: i, .. } => {
            if let Some(&FSide::Ite { c, t, e }) = entry(i) {
                f(c);
                f(t);
                f(e);
            }
        }
        FOp::Cas { addr, side: i, .. } => {
            f(addr);
            if let Some(&FSide::Cas { expected, new }) = entry(i) {
                f(expected);
                f(new);
            }
        }
        FOp::Dirty { side: i } => {
            if let Some(FSide::Dirty(d)) = entry(i) {
                d.args.iter().for_each(|&a| f(a));
            }
        }
        FOp::MemCb { side: i } => {
            if let Some(&FSide::MemCb { addr, size, .. }) = entry(i) {
                f(addr);
                f(size);
            }
        }
    }
}

/// The temp `op` writes, if any.
fn writes(op: &FOp, side: &[FSide]) -> Option<u16> {
    match *op {
        FOp::Get { dst, .. }
        | FOp::Mov { dst, .. }
        | FOp::Ld8 { dst, .. }
        | FOp::Ld1 { dst, .. }
        | FOp::Bin { dst, .. }
        | FOp::BinTrap { dst, .. }
        | FOp::Un { dst, .. }
        | FOp::Ite { dst, .. }
        | FOp::Cas { dst, .. }
        | FOp::Amo { dst, .. }
        | FOp::BinRI { dst, .. }
        | FOp::BinTR { dst, .. }
        | FOp::BinRR { dst, .. }
        | FOp::LdRO { dst, .. } => Some(dst),
        FOp::Dirty { side: i } => match side.get(i as usize) {
            Some(FSide::Dirty(d)) => d.dst,
            _ => None,
        },
        FOp::Put { .. }
        | FOp::St8 { .. }
        | FOp::St1 { .. }
        | FOp::MemCb { .. }
        | FOp::Exit { .. }
        | FOp::MovRR { .. }
        | FOp::BinRIP { .. }
        | FOp::BinRRP { .. }
        | FOp::LdRP { .. }
        | FOp::StV { .. }
        | FOp::StRV { .. }
        | FOp::StRR { .. }
        | FOp::LdP { .. } => None,
    }
}

/// Narrow a count or index of a block under construction to its `u16`
/// field. A lifted superblock stays far below every limit, so overflow
/// is a compiler invariant violation, not an input error.
fn narrow(n: usize, limit: usize, what: &str) -> u16 {
    assert!(n < limit.min(1 << 16), "superblock too large for flat code: {what} {n}");
    n as u16
}

/// The pool index of `c`, adding it on first use.
fn intern(consts: &mut Vec<u64>, c: u64) -> u16 {
    let i = consts.iter().position(|&k| k == c).unwrap_or_else(|| {
        consts.push(c);
        consts.len() - 1
    });
    narrow(i, MAX_TEMPS, "constants")
}

fn operand(consts: &mut Vec<u64>, a: &Atom) -> u16 {
    match a {
        Atom::Const(c) => intern(consts, *c),
        Atom::Tmp(t) => narrow(t.0 as usize, MAX_TEMPS, "temp") | TMP_BIT,
    }
}

/// A block lowered statement by statement, before fusion.
struct Lowered {
    base: u64,
    ops: Vec<FOp>,
    consts: Vec<u64>,
    side: Vec<FSide>,
    exits: Vec<FExit>,
    n_ics: usize,
    jumpkind: JumpKind,
    n_temps: u16,
    next: u16,
    instrs: u16,
}

/// Compile an instrumented superblock into its flat form.
///
/// Panics if the block needs more than [`MAX_TEMPS`] temps or
/// constants, or more than `u16::MAX` instructions, inline caches, side
/// entries or exits; a lifted superblock needs a few hundred at most.
pub fn compile(ir: &IrBlock) -> FlatBlock {
    let mut l = lower(ir);
    {
        let _s = tg_obs::trace::host_span("fuse");
        let uses = use_counts(&l.ops, &l.side, l.next, l.n_temps);
        fuse(&mut l.ops, &mut l.consts, &uses);
    }
    finish(l)
}

/// [`compile`] with the fusion it used to run: pairwise passes to a
/// fixpoint, recounting temp reads before each pass. Kept only as the
/// oracle that tests hold the one-pass [`compile`] to, block for block.
#[doc(hidden)]
pub fn compile_fixpoint(ir: &IrBlock) -> FlatBlock {
    let mut l = lower(ir);
    l.ops = fuse_fixpoint(std::mem::take(&mut l.ops), &mut l.consts, &l.side, l.next, l.n_temps);
    finish(l)
}

/// Lower every statement to unfused ops, side entries and exits. The
/// op, constant and side vectors are sized from the statement count,
/// which bounds each, so none regrows; a lifted block has at most one
/// side exit.
fn lower(ir: &IrBlock) -> Lowered {
    let n = ir.stmts.len();
    let (mut ops, mut consts, mut side) =
        (Vec::with_capacity(n), Vec::with_capacity(n), Vec::with_capacity(n));
    let mut exits = Vec::new();
    let mut n_ics = 0usize;
    let n_temps = narrow(ir.n_temps as usize, MAX_TEMPS + 1, "temps");
    let dst = |t: vex_ir::Temp| narrow(t.0 as usize, MAX_TEMPS, "temp");
    // Statically tracked interpreter state: the pc of the current guest
    // instruction and how many instructions have retired so far.
    let mut pc = ir.base;
    let mut instrs: u16 = 0;
    let mut new_ic = || {
        n_ics += 1;
        narrow(n_ics - 1, 1 << 16, "inline caches")
    };
    let push_side = |side: &mut Vec<FSide>, s: FSide| {
        side.push(s);
        narrow(side.len() - 1, 1 << 16, "side entries")
    };

    for stmt in &ir.stmts {
        match stmt {
            Stmt::IMark { addr, .. } => {
                pc = *addr;
                instrs = instrs.checked_add(1).expect("superblock too large for flat code");
            }
            Stmt::WrTmp { dst: d, rhs } => {
                let dst = dst(*d);
                ops.push(match rhs {
                    Rhs::Atom(a) => FOp::Mov { dst, src: operand(&mut consts, a) },
                    Rhs::Get { reg } => FOp::Get { dst, reg: *reg },
                    Rhs::Load { ty, addr } => {
                        let addr = operand(&mut consts, addr);
                        let ic = new_ic();
                        match ty {
                            Ty::I8 => FOp::Ld1 { dst, addr, ic },
                            _ => FOp::Ld8 { dst, addr, ic },
                        }
                    }
                    Rhs::Binop { op, lhs, rhs } => {
                        let a = operand(&mut consts, lhs);
                        let b = operand(&mut consts, rhs);
                        if matches!(op, BinOp::DivS | BinOp::RemS) {
                            let s = push_side(&mut side, FSide::Trap { a, b, pc, instrs });
                            FOp::BinTrap { dst, op: *op, side: s }
                        } else {
                            FOp::Bin { dst, op: *op, a, b }
                        }
                    }
                    Rhs::Unop { op, x } => FOp::Un { dst, op: *op, x: operand(&mut consts, x) },
                    Rhs::Ite { cond, then, els } => {
                        let ite = FSide::Ite {
                            c: operand(&mut consts, cond),
                            t: operand(&mut consts, then),
                            e: operand(&mut consts, els),
                        };
                        FOp::Ite { dst, side: push_side(&mut side, ite) }
                    }
                });
            }
            Stmt::Put { reg, src } => {
                ops.push(FOp::Put { reg: *reg, src: operand(&mut consts, src) });
            }
            Stmt::Store { ty, addr, val } => {
                let addr = operand(&mut consts, addr);
                let val = operand(&mut consts, val);
                let ic = new_ic();
                ops.push(match ty {
                    Ty::I8 => FOp::St1 { addr, val, ic },
                    _ => FOp::St8 { addr, val, ic },
                });
            }
            Stmt::Cas { dst: d, addr, expected, new } => {
                let addr = operand(&mut consts, addr);
                let cas = FSide::Cas {
                    expected: operand(&mut consts, expected),
                    new: operand(&mut consts, new),
                };
                ops.push(FOp::Cas { dst: dst(*d), addr, side: push_side(&mut side, cas) });
            }
            Stmt::AtomicAdd { dst: d, addr, val } => {
                ops.push(FOp::Amo {
                    dst: dst(*d),
                    addr: operand(&mut consts, addr),
                    val: operand(&mut consts, val),
                });
            }
            Stmt::Dirty { call, args, dst: d } => {
                if let (DirtyCall::ToolMem { write }, None, 2) = (call, d, args.len()) {
                    let cb = FSide::MemCb {
                        addr: operand(&mut consts, &args[0]),
                        size: operand(&mut consts, &args[1]),
                        write: *write,
                        pc,
                        instrs,
                    };
                    ops.push(FOp::MemCb { side: push_side(&mut side, cb) });
                } else {
                    let dirty = FSide::Dirty(Box::new(FDirty {
                        call: *call,
                        args: args.iter().map(|a| operand(&mut consts, a)).collect(),
                        dst: d.map(dst),
                        pc,
                        instrs,
                    }));
                    ops.push(FOp::Dirty { side: push_side(&mut side, dirty) });
                }
            }
            Stmt::Exit { guard, target, kind } => {
                exits.push(FExit { target: *target, kind: *kind, instrs });
                ops.push(FOp::Exit {
                    guard: operand(&mut consts, guard),
                    idx: narrow(exits.len() - 1, 1 << 16, "exits"),
                });
            }
        }
    }

    let next = operand(&mut consts, &ir.next);
    Lowered {
        base: ir.base,
        ops,
        consts,
        side,
        exits,
        n_ics,
        jumpkind: ir.jumpkind,
        n_temps,
        next,
        instrs,
    }
}

/// Box the fused tables into a block and derive its temp-zeroing flag.
fn finish(l: Lowered) -> FlatBlock {
    let mut block = FlatBlock {
        base: l.base,
        ops: l.ops.into_boxed_slice(),
        consts: l.consts.into_boxed_slice(),
        ics: (0..l.n_ics).map(|_| PageIc::new()).collect(),
        exits: l.exits.into_boxed_slice(),
        side: l.side.into_boxed_slice(),
        jumpkind: l.jumpkind,
        n_temps: l.n_temps,
        next: l.next,
        instrs_total: l.instrs,
        zero_temps: false,
    };
    block.zero_temps = block.reads_undefined_temp();
    debug_assert_eq!(block.check(), Ok(()), "compiled block fails its own check");
    block
}

/// Temp-read counts over the whole block: every operand an op reads
/// (its side entry's included) and the fallthrough target. A temp with
/// exactly one read may have its defining op fused into the reader — so
/// a [`FOp::MemCb`]'s operands MUST be counted here, or a temp read by
/// both the callback and the actual load/store would look single-use
/// and fusion would destroy it before the callback ran.
fn use_counts(ops: &[FOp], side: &[FSide], next: u16, n_temps: u16) -> Vec<u32> {
    let mut uses = vec![0u32; n_temps as usize];
    let mut read = |o: u16| {
        if o & TMP_BIT != 0 {
            if let Some(n) = uses.get_mut((o & !TMP_BIT) as usize) {
                *n += 1;
            }
        }
    };
    for op in ops {
        reads(op, side, &mut read);
    }
    read(next);
    uses
}

/// Peephole fusion in one left-to-right pass. An op fuses with the op
/// before it when that op writes only a temp whose sole reader
/// (block-wide) is this op; the merged op performs both effects at the
/// second op's position, which is sound because nothing sits between
/// them and the absorbed op had no effect beyond the dropped temp. The
/// kept ops form a stack, so each merged op is retried against the one
/// now before it. Dirty calls, exits, traps and atomics are never
/// absorbed, so every observable point keeps its exact pc/instruction
/// accounting.
///
/// `uses` holds the read counts of the unfused ops, and they stay exact
/// throughout: a fusion drops temp `t` together with its one read, and
/// the merged op reads everything else both ops read, so no surviving
/// temp gains or loses a reader. So the pass needs no recount, unlike
/// [`fuse_fixpoint`], which recounts before every pass until a pass
/// fuses nothing; `tests/fusion_oracle.rs` holds the two to the same
/// blocks (DESIGN §7).
fn fuse(ops: &mut Vec<FOp>, consts: &mut Vec<u64>, uses: &[u32]) {
    let once = |t: u16| uses[t as usize] == 1;
    let mut kept = 0;
    for i in 0..ops.len() {
        let mut op = ops[i];
        while kept > 0 {
            let Some(f) = fuse_pair(ops[kept - 1], op, &once, consts) else { break };
            op = f;
            kept -= 1;
        }
        ops[kept] = op;
        kept += 1;
    }
    ops.truncate(kept);
}

/// The fusion the one-pass [`fuse`] replaced: non-overlapping adjacent
/// pairs, left to right, with the read counts recomputed before each
/// pass, until a pass changes nothing. Only [`compile_fixpoint`], the
/// test oracle, runs it.
fn fuse_fixpoint(
    mut ops: Vec<FOp>,
    consts: &mut Vec<u64>,
    side: &[FSide],
    next: u16,
    n_temps: u16,
) -> Vec<FOp> {
    loop {
        let uses = use_counts(&ops, side, next, n_temps);
        let once = |t: u16| uses[t as usize] == 1;
        let mut out: Vec<FOp> = Vec::with_capacity(ops.len());
        let mut changed = false;
        let mut i = 0;
        while i < ops.len() {
            let fused = match ops.get(i + 1) {
                Some(&b) => fuse_pair(ops[i], b, &once, consts),
                None => None,
            };
            match fused {
                Some(f) => {
                    out.push(f);
                    i += 2;
                    changed = true;
                }
                None => {
                    out.push(ops[i]);
                    i += 1;
                }
            }
        }
        ops = out;
        if !changed {
            return ops;
        }
    }
}

/// The fusion rules: the one op performing adjacent ops `a` then `b`,
/// if `a` writes only a temp whose sole reader (`once`) is `b` and the
/// pair has a fused form.
fn fuse_pair(a: FOp, b: FOp, once: &impl Fn(u16) -> bool, consts: &mut Vec<u64>) -> Option<FOp> {
    // Constant 0, for folding `Get` (an addressing mode with zero
    // displacement) into the reg+offset load/store forms.
    let zero = |consts: &mut Vec<u64>| intern(consts, 0);
    let tm = |t: u16| t | TMP_BIT;
    match (a, b) {
        (FOp::Get { dst, reg }, b) if once(dst) => match b {
            FOp::Mov { dst: d2, src } if src == tm(dst) => Some(FOp::Get { dst: d2, reg }),
            FOp::Put { reg: rd, src } if src == tm(dst) => Some(FOp::MovRR { rd, rs: reg }),
            FOp::Bin { dst: d2, op, a, b } if a == tm(dst) && b & TMP_BIT == 0 => {
                Some(FOp::BinRI { dst: d2, op, rs: reg, c: b })
            }
            FOp::Bin { dst: d2, op, a, b } if b == tm(dst) && a != tm(dst) => {
                Some(FOp::BinTR { dst: d2, op, a, rb: reg })
            }
            FOp::BinTR { dst: d2, op, a, rb } if a == tm(dst) => {
                Some(FOp::BinRR { dst: d2, op, ra: reg, rb })
            }
            FOp::Ld8 { dst: d2, addr, ic } if addr == tm(dst) => {
                Some(FOp::LdRO { dst: d2, rs: reg, c: zero(consts), ic })
            }
            FOp::LdP { rd, addr, ic } if addr == tm(dst) => {
                Some(FOp::LdRP { rd, rs: reg, c: zero(consts), ic })
            }
            FOp::St8 { addr, val, ic } if val == tm(dst) && addr != tm(dst) => {
                Some(FOp::StV { addr, vr: reg, ic })
            }
            FOp::St8 { addr, val, ic } if addr == tm(dst) && val != tm(dst) => {
                Some(FOp::StRV { rs: reg, c: zero(consts), val, ic })
            }
            FOp::StV { addr, vr, ic } if addr == tm(dst) => {
                Some(FOp::StRR { rs: reg, c: zero(consts), vr, ic })
            }
            _ => None,
        },
        (FOp::Mov { dst, src }, FOp::Put { reg: rd, src: s2 }) if once(dst) && s2 == tm(dst) => {
            Some(FOp::Put { reg: rd, src })
        }
        (FOp::BinRI { dst, op, rs, c }, b) if once(dst) => match b {
            FOp::Put { reg: rd, src } if src == tm(dst) => Some(FOp::BinRIP { rd, op, rs, c }),
            FOp::Ld8 { dst: d2, addr, ic } if addr == tm(dst) && matches!(op, BinOp::Add) => {
                Some(FOp::LdRO { dst: d2, rs, c, ic })
            }
            FOp::LdP { rd, addr, ic } if addr == tm(dst) && matches!(op, BinOp::Add) => {
                Some(FOp::LdRP { rd, rs, c, ic })
            }
            FOp::St8 { addr, val, ic }
                if addr == tm(dst) && val != tm(dst) && matches!(op, BinOp::Add) =>
            {
                Some(FOp::StRV { rs, c, val, ic })
            }
            FOp::StV { addr, vr, ic } if addr == tm(dst) && matches!(op, BinOp::Add) => {
                Some(FOp::StRR { rs, c, vr, ic })
            }
            _ => None,
        },
        (FOp::BinRR { dst, op, ra, rb }, FOp::Put { reg: rd, src })
            if once(dst) && src == tm(dst) =>
        {
            Some(FOp::BinRRP { rd, op, ra, rb })
        }
        (FOp::LdRO { dst, rs, c, ic }, FOp::Put { reg: rd, src })
            if once(dst) && src == tm(dst) =>
        {
            Some(FOp::LdRP { rd, rs, c, ic })
        }
        (FOp::Ld8 { dst, addr, ic }, FOp::Put { reg: rd, src }) if once(dst) && src == tm(dst) => {
            Some(FOp::LdP { rd, addr, ic })
        }
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vex_ir::Temp;

    #[test]
    fn compile_folds_imarks_and_numbers_exits() {
        let mut b = IrBlock::new(0x1000);
        b.n_temps = 2;
        b.stmts.push(Stmt::IMark { addr: 0x1000, len: 16 });
        b.stmts.push(Stmt::WrTmp { dst: Temp(0), rhs: Rhs::Get { reg: 3 } });
        b.stmts.push(Stmt::Exit {
            guard: Atom::Tmp(Temp(0)),
            target: 0x2000,
            kind: JumpKind::Boring,
        });
        b.stmts.push(Stmt::IMark { addr: 0x1010, len: 16 });
        b.stmts.push(Stmt::WrTmp {
            dst: Temp(1),
            rhs: Rhs::Binop { op: BinOp::DivS, lhs: Atom::Tmp(Temp(0)), rhs: Atom::Const(2) },
        });
        b.next = Atom::imm(0x1020);
        let f = compile(&b);
        assert_eq!(f.ops.len(), 3, "IMarks are folded away");
        assert_eq!(f.instrs_total, 2);
        assert!(f.next_is_const());
        assert_eq!(f.exits.len(), 1, "one side exit, so the fallthrough is link 1");
        assert_eq!(f.exits[0].instrs, 1, "exit taken after one instruction");
        // The DivS became a BinTrap whose operands and faulting site sit
        // in the side table; the Get is a plain op with a temp dst.
        let FOp::BinTrap { side, .. } = f.ops[2] else { panic!("{:?}", f.ops[2]) };
        let FSide::Trap { pc, instrs, .. } = f.side[side as usize] else { panic!() };
        assert_eq!(pc, 0x1010, "trap pc is the second IMark");
        assert_eq!(instrs, 2);
        assert!(matches!(f.ops[0], FOp::Get { dst: 0, reg: 3 }));
    }

    #[test]
    fn operand_encoding_separates_temps_and_consts() {
        let mut b = IrBlock::new(0x1000);
        b.n_temps = 1;
        b.stmts.push(Stmt::IMark { addr: 0x1000, len: 16 });
        b.stmts.push(Stmt::WrTmp { dst: Temp(0), rhs: Rhs::Get { reg: 4 } });
        b.stmts.push(Stmt::Put { reg: 1, src: Atom::Const(0xdead) });
        b.stmts.push(Stmt::Put { reg: 2, src: Atom::Tmp(Temp(0)) });
        b.next = Atom::Tmp(Temp(0));
        let f = compile(&b);
        assert!(!f.next_is_const(), "computed next chains through the IBTC");
        let FOp::Put { src: c, .. } = f.ops[1] else { panic!("{:?}", f.ops) };
        let FOp::Put { src: t, .. } = f.ops[2] else { panic!("{:?}", f.ops) };
        assert_eq!(c & TMP_BIT, 0);
        assert_eq!(f.consts[c as usize], 0xdead);
        assert_eq!(t, TMP_BIT, "temp 0 is the tag bit alone");
    }

    #[test]
    fn constant_pool_keeps_one_entry_per_value() {
        // Three stores of the same constant and a zero-displacement
        // store (whose fused form interns 0 again) share two entries.
        let mut b = IrBlock::new(0x1000);
        b.n_temps = 1;
        b.stmts.push(Stmt::IMark { addr: 0x1000, len: 16 });
        for reg in 1..4 {
            b.stmts.push(Stmt::Put { reg, src: Atom::Const(7) });
        }
        b.stmts.push(Stmt::WrTmp { dst: Temp(0), rhs: Rhs::Get { reg: 5 } });
        b.stmts.push(Stmt::Store { ty: Ty::I64, addr: Atom::Tmp(Temp(0)), val: Atom::Const(0) });
        b.next = Atom::imm(0);
        let f = compile(&b);
        assert_eq!(&*f.consts, &[7, 0], "ops: {:?}", f.ops);
        assert!(matches!(f.ops[3], FOp::StRV { .. }), "{:?}", f.ops);
    }

    #[test]
    fn fusion_collapses_lifted_load_to_one_op() {
        // The lifter's `ld rd, off(fp)` shape: Get/Add/Load/Put with
        // every intermediate read exactly once. Fusion must collapse the
        // whole chain to a single `LdRP`.
        let mut b = IrBlock::new(0x1000);
        b.n_temps = 3;
        b.stmts.push(Stmt::IMark { addr: 0x1000, len: 16 });
        b.stmts.push(Stmt::WrTmp { dst: Temp(0), rhs: Rhs::Get { reg: 3 } });
        b.stmts.push(Stmt::WrTmp {
            dst: Temp(1),
            rhs: Rhs::Binop {
                op: BinOp::Add,
                lhs: Atom::Tmp(Temp(0)),
                rhs: Atom::Const(-16i64 as u64),
            },
        });
        b.stmts.push(Stmt::WrTmp {
            dst: Temp(2),
            rhs: Rhs::Load { ty: Ty::I64, addr: Atom::Tmp(Temp(1)) },
        });
        b.stmts.push(Stmt::Put { reg: 13, src: Atom::Tmp(Temp(2)) });
        b.next = Atom::imm(0x1010);
        let f = compile(&b);
        assert_eq!(f.ops.len(), 1, "Get/Add/Load/Put fuse to one op: {:?}", f.ops);
        let FOp::LdRP { rd: 13, rs: 3, c, .. } = f.ops[0] else {
            panic!("expected LdRP, got {:?}", f.ops[0]);
        };
        assert_eq!(f.consts[c as usize], -16i64 as u64);
    }

    #[test]
    fn tool_mem_callbacks_compile_to_memcb_ops() {
        // An instrumented load: the address temp is read by BOTH the
        // callback and the load itself. The callback must become a
        // MemCb (no argument Vec at run time) and its operand reads
        // must keep the temp's use count at 2 so fusion cannot absorb
        // the defining op into the load and skip the callback.
        let mut b = IrBlock::new(0x1000);
        b.n_temps = 2;
        b.stmts.push(Stmt::IMark { addr: 0x1000, len: 16 });
        b.stmts.push(Stmt::WrTmp {
            dst: Temp(0),
            rhs: Rhs::Binop { op: BinOp::Add, lhs: Atom::Const(0x5000), rhs: Atom::Const(8) },
        });
        b.stmts.push(Stmt::Dirty {
            call: DirtyCall::ToolMem { write: false },
            args: vec![Atom::Tmp(Temp(0)), Atom::imm(8)],
            dst: None,
        });
        b.stmts.push(Stmt::WrTmp {
            dst: Temp(1),
            rhs: Rhs::Load { ty: Ty::I64, addr: Atom::Tmp(Temp(0)) },
        });
        b.next = Atom::imm(0x1010);
        let f = compile(&b);
        let [FSide::MemCb { pc, instrs, write, .. }] = *f.side else {
            panic!("ToolMem goes to one MemCb side entry: {:?}", f.side);
        };
        assert_eq!((pc, instrs, write), (0x1000, 1, false));
        assert!(
            f.ops.iter().any(|o| matches!(o, FOp::MemCb { .. })),
            "callback survives fusion: {:?}",
            f.ops
        );
        assert!(
            f.ops.iter().any(|o| matches!(o, FOp::Bin { .. })),
            "the address def must NOT fuse past the callback: {:?}",
            f.ops
        );
    }

    /// A block using every table: a syscall, a callback, a trap, a side
    /// exit and a load.
    fn every_table() -> FlatBlock {
        let mut b = IrBlock::new(0x1000);
        b.n_temps = 4;
        b.stmts.push(Stmt::IMark { addr: 0x1000, len: 16 });
        b.stmts.push(Stmt::WrTmp { dst: Temp(0), rhs: Rhs::Get { reg: 3 } });
        b.stmts.push(Stmt::Dirty {
            call: DirtyCall::ToolMem { write: true },
            args: vec![Atom::Tmp(Temp(0)), Atom::imm(8)],
            dst: None,
        });
        b.stmts.push(Stmt::WrTmp {
            dst: Temp(1),
            rhs: Rhs::Load { ty: Ty::I64, addr: Atom::Tmp(Temp(0)) },
        });
        b.stmts.push(Stmt::Dirty {
            call: DirtyCall::Syscall,
            args: vec![Atom::imm(1); 7],
            dst: Some(Temp(2)),
        });
        b.stmts.push(Stmt::Exit {
            guard: Atom::Tmp(Temp(2)),
            target: 0x3000,
            kind: JumpKind::Boring,
        });
        b.stmts.push(Stmt::IMark { addr: 0x1010, len: 16 });
        b.stmts.push(Stmt::WrTmp {
            dst: Temp(3),
            rhs: Rhs::Binop { op: BinOp::RemS, lhs: Atom::Tmp(Temp(1)), rhs: Atom::Tmp(Temp(2)) },
        });
        b.next = Atom::Tmp(Temp(3));
        compile(&b)
    }

    #[test]
    fn check_rejects_every_out_of_range_index() {
        let good = every_table();
        assert_eq!(good.check(), Ok(()));
        let bad = |f: &dyn Fn(&mut FlatBlock)| {
            let mut b = good.clone();
            f(&mut b);
            b.check()
        };
        let op_at = |b: &mut FlatBlock, want: fn(&FOp) -> bool| -> usize {
            b.ops.iter().position(want).expect("op present")
        };
        assert!(bad(&|b| b.n_temps = 3).is_err(), "a temp past n_temps");
        assert!(bad(&|b| b.n_temps = u16::MAX).is_err(), "n_temps past MAX_TEMPS");
        assert!(bad(&|b| b.consts = Box::new([])).is_err(), "an empty pool");
        assert!(bad(&|b| b.ics = Box::new([])).is_err(), "an inline cache past the table");
        assert!(bad(&|b| b.exits = Box::new([])).is_err(), "an exit past the table");
        assert!(bad(&|b| b.next = TMP_BIT | 9).is_err(), "a fallthrough temp past n_temps");
        assert!(bad(&|b| b.instrs_total = 0).is_err(), "a fallthrough that retires nothing");
        assert!(bad(&|b| b.exits[0].instrs = 0).is_err(), "an exit that retires nothing");
        assert!(bad(&|b| b.side.reverse()).is_err(), "side entries of the wrong kind");
        assert!(
            bad(&|b| {
                let FSide::Dirty(d) = &mut b.side[1] else { panic!() };
                d.args = Box::new([0; 6]);
            })
            .is_err(),
            "a syscall with six arguments"
        );
        assert!(
            bad(&|b| {
                let FSide::MemCb { instrs, .. } = &mut b.side[0] else { panic!() };
                *instrs = 2;
            })
            .is_err(),
            "instruction counts that fall along the ops"
        );
        assert!(
            bad(&|b| {
                let i = op_at(b, |o| matches!(o, FOp::Get { .. } | FOp::LdRO { .. }));
                b.ops[i] = FOp::Get { dst: 0, reg: NUM_REGS as u8 };
            })
            .is_err(),
            "a register past the file"
        );
        assert!(
            bad(&|b| {
                let i = op_at(b, |o| matches!(o, FOp::BinTrap { .. }));
                let FOp::BinTrap { dst, .. } = b.ops[i] else { panic!() };
                b.ops[i] = FOp::Bin { dst, op: BinOp::DivS, a: 0, b: 0 };
            })
            .is_err(),
            "a trapping op outside BinTrap"
        );
    }
}
