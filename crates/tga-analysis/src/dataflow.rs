//! Abstract interpretation of lifted superblocks: stack-slot escape
//! analysis, stack-pointer delta checking, and read-only / init-only
//! classification of globals — interprocedural since the summary pass
//! of [`crate::summaries`] landed.
//!
//! Every basic-block leader of every live function (reachable from the
//! entry point or an address-taken function, [`Cfg::live`]) is lifted
//! once with `grindcore`'s superblock lifter and interpreted over a tiny
//! abstract domain: a value is a known constant, a known offset from the
//! block-entry `sp` or `fp`, one of the eight incoming argument
//! registers (`AbsVal::Param` — function-entry contexts only), or
//! unknown. Because a leader is analysed with no knowledge of its
//! callers or predecessors, any frame address that *leaves* the
//! abstract state — stored outside a transient push/save slot, resident
//! in a scratch register or an untracked stack slot at a block
//! boundary, or passed to a syscall/client request — is treated as an
//! escape of that slot. The resulting facts are a *meet* over every
//! context containing an instruction: an access is only classified
//! thread-private if every lifted context proves it so.
//!
//! Calls are no longer black holes. Functions are processed bottom-up
//! over the call-graph SCC condensation; at a direct call site the
//! callee's [`FnSummary`] decides which argument registers actually
//! capture the pointers they hold. A callee that merely *dereferences*
//! a pointer argument keeps the pointee's classification: the callee
//! runs on the caller's thread, so its accesses (recorded under
//! `AccessKind::Unknown`) are same-thread and the dynamic stack/TLS
//! suppressions of Algorithm 1 cover them. Only a callee that stores
//! the pointer, passes it onward to something untracked, or hands it to
//! a syscall/client request (task payloads!) forces the escape.
//!
//! On top of read-only globals, the pass classifies **init-only**
//! globals: symbols whose every (direct or summarized) write happens in
//! a basic block that provably runs before the program's first
//! `THREAD_CREATE` syscall ([`crate::summaries::spawn_reachability`]),
//! and whose address never escapes. All their writes are mutually
//! ordered on the initial thread and happen-before every spawn, so no
//! access to them can ever race and recording is skipped. This is the
//! classification that finally prunes the per-iteration reloads of
//! LULESH's global array pointers.
//!
//! Soundness rests on the target's codegen discipline (which minicc and
//! the guest runtime follow): `sp`-based stores are only operand-stack
//! pushes and prologue link saves, locals are addressed `fp`-relative,
//! and stack addresses are never laundered through arithmetic the
//! domain cannot follow (any such arithmetic poisons the whole frame;
//! a *global* address laundered the same way marks the symbol
//! address-escaped). Like the dynamic stack suppression of §IV-D, the
//! classification assumes no cross-thread use-after-return of stack
//! addresses.

use crate::cfg::{Cfg, FuncCfg};
use crate::summaries::{self, FnSummary, Summaries};
use grindcore::lift::{lift_superblock, MAX_BLOCK_INSTS};
use std::collections::{BTreeMap, BTreeSet};
use tga::module::{Module, SymKind};
use tga::{reg, INST_SIZE, NUM_REGS};
use vex_ir::{Atom, BinOp, IrBlock, JumpKind, Rhs, Stmt, UnOp};

/// Which stack anchor an abstract offset is relative to.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum BaseReg {
    /// Block-entry stack pointer.
    Sp,
    /// Block-entry frame pointer.
    Fp,
}

/// The abstract value domain.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum AbsVal {
    Const(u64),
    /// A stack address: `base + off`. `via_sp` marks a value obtained
    /// by reading `sp` directly (plus a constant) — the only way
    /// operand-stack pushes and prologue saves address memory.
    Stack {
        base: BaseReg,
        off: i64,
        via_sp: bool,
    },
    /// The value of argument register `a{i}` at function entry (or a
    /// constant offset from it — for escape purposes a derived pointer
    /// captures the same object). Lives only in contexts seeded at a
    /// function entry and in trusted spill-slot reloads.
    Param(u8),
    Other,
}

use AbsVal::{Const, Other, Param, Stack};

/// Per-function dataflow verdicts.
#[derive(Clone, Debug, Default)]
pub struct FnFacts {
    /// Canonical `fp`-relative offsets whose address escapes the frame.
    pub escaped: BTreeSet<i64>,
    /// A frame address flowed somewhere the domain cannot follow; no
    /// access of this function's frame may be treated as private.
    pub poisoned: bool,
    /// One representative escape site per offset: `(offset, pc)`.
    pub escape_sites: Vec<(i64, u64)>,
    /// Return sites whose reconstructed `sp` does not restore the
    /// caller's stack pointer.
    pub ret_mismatches: Vec<u64>,
}

/// A classified global range (read-only or init-only).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RoRange {
    /// Symbol name.
    pub name: String,
    /// Inclusive start address.
    pub lo: u64,
    /// Exclusive end address.
    pub hi: u64,
}

/// How one lifted context saw one guest memory access.
#[derive(Clone, Copy, Debug)]
enum AccessKind {
    /// Frame slot at a known canonical `fp`-relative offset.
    StackCanon(i64),
    /// Stack slot with no canonical offset (operand-stack pushes and
    /// link saves reached relative to a mid-function `sp`).
    StackAnon,
    /// A direct absolute access of `size` bytes.
    ConstAddr { addr: u64, size: u64, write: bool },
    /// Untracked address, or an atomic (never filtered).
    Unknown,
}

#[derive(Clone, Copy, Debug)]
struct AccessRec {
    pc: u64,
    func: usize,
    kind: AccessKind,
}

/// Aggregated dataflow output.
#[derive(Clone, Debug, Default)]
pub struct Dataflow {
    /// Parallel to `cfg.funcs`; empty for dead functions.
    pub fn_facts: Vec<FnFacts>,
    /// Globals never written and never address-taken.
    pub ro: Vec<RoRange>,
    /// Globals whose writes all happen before the first thread spawn
    /// and whose address never escapes (see module docs).
    pub init_only: Vec<RoRange>,
    /// Guest pcs of loads/stores proven thread-private, read-only or
    /// init-only in every context that contains them.
    pub safe_pcs: BTreeSet<u64>,
    /// Stores with a constant target inside the text section.
    pub code_writes: Vec<(u64, u64)>,
    /// Total distinct access pcs seen by the analysis.
    pub access_pcs: usize,
    /// Every distinct access pc (the keys behind `access_pcs`).
    pub all_access_pcs: Vec<u64>,
    /// Abstract first-argument value per direct call site: `Some(c)`
    /// when `a0` is the same known constant in every lifted context
    /// containing the call, `None` otherwise. Consumed by the lockset
    /// pass to resolve lock identities.
    pub call_args: BTreeMap<u64, Option<u64>>,
    /// Per-function effect summaries (kept for diagnostics and tests);
    /// a dead function has none and reads as widened.
    pub summaries: Summaries,
}

struct DataSym {
    name: String,
    lo: u64,
    hi: u64,
}

/// Merged abstract `a0` at a call site.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum CallArg {
    Known(u64),
    Many,
}

/// Global (module-level) accumulators shared across contexts.
struct GlobalAcc {
    data_syms: Vec<DataSym>,
    /// Indices into `data_syms` with a direct constant-address store.
    written: BTreeSet<usize>,
    /// Indices whose address was stored, passed, or live at a boundary.
    addr_escaped: BTreeSet<usize>,
    /// `(data_sym index, pc)` of every known write, for the init-only
    /// pre-spawn check.
    write_sites: Vec<(usize, u64)>,
    code_writes: Vec<(u64, u64)>,
    records: Vec<AccessRec>,
    call_args: BTreeMap<u64, CallArg>,
    data_lo: u64,
    data_hi: u64,
    code_lo: u64,
    code_hi: u64,
    /// Probe (phase-1) interpretation: suppress all module-level
    /// accumulation, which the conservative pre-pass would pollute.
    muted: bool,
}

impl GlobalAcc {
    /// The data symbol covering `addr`. [`data_symbols`] sorts them by
    /// `lo` and clips each at the next one's start, so they are disjoint
    /// and only the last one starting at or below `addr` can cover it.
    fn sym_of(&self, addr: u64) -> Option<usize> {
        let i = self.data_syms.partition_point(|s| s.lo <= addr).checked_sub(1)?;
        (addr < self.data_syms[i].hi).then_some(i)
    }

    fn addr_escape(&mut self, addr: u64) {
        if self.muted {
            return;
        }
        if let Some(i) = self.sym_of(addr) {
            self.addr_escaped.insert(i);
        }
    }

    /// A write of global memory at `addr` performed at `pc` (directly,
    /// atomically, or through a summarized callee).
    fn write_global(&mut self, addr: u64, pc: u64) {
        if self.muted {
            return;
        }
        if let Some(i) = self.sym_of(addr) {
            self.written.insert(i);
            self.write_sites.push((i, pc));
        }
    }

    fn code_write(&mut self, pc: u64, target: u64) {
        if !self.muted {
            self.code_writes.push((pc, target));
        }
    }

    fn note_call_arg(&mut self, pc: u64, a0: AbsVal) {
        if self.muted {
            return;
        }
        let merged = match a0 {
            Const(c) => CallArg::Known(c),
            _ => CallArg::Many,
        };
        self.call_args
            .entry(pc)
            .and_modify(|e| {
                if *e != merged {
                    *e = CallArg::Many;
                }
            })
            .or_insert(merged);
    }

    fn in_data(&self, addr: u64) -> bool {
        addr >= self.data_lo && addr < self.data_hi
    }
}

/// A tracked stack slot: its anchor and offset.
type Slot = (BaseReg, i64);

/// Abstract machine state while interpreting one lifted superblock.
struct BlockState {
    tmps: Vec<AbsVal>,
    regs: [AbsVal; NUM_REGS],
    /// Tracked stack slots in insertion order, each key at most once.
    /// A block tracks a handful, so a linear scan beats hashing.
    mem: Vec<(Slot, AbsVal)>,
}

impl BlockState {
    /// The registers at a leader: `zero`, `sp` and `fp` known, and the
    /// argument registers the function's parameters when `seed_params`.
    fn entry_regs(seed_params: bool) -> [AbsVal; NUM_REGS] {
        let mut regs = [Other; NUM_REGS];
        regs[reg::ZERO as usize] = Const(0);
        regs[reg::SP as usize] = Stack { base: BaseReg::Sp, off: 0, via_sp: false };
        regs[reg::FP as usize] = Stack { base: BaseReg::Fp, off: 0, via_sp: false };
        if seed_params {
            for i in 0..8u8 {
                regs[(reg::A0 + i) as usize] = Param(i);
            }
        }
        regs
    }

    fn slot(&self, k: Slot) -> Option<AbsVal> {
        self.mem.iter().find(|(s, _)| *s == k).map(|&(_, v)| v)
    }

    fn set_slot(&mut self, k: Slot, v: AbsVal) {
        match self.mem.iter_mut().find(|(s, _)| *s == k) {
            Some(e) => e.1 = v,
            None => self.mem.push((k, v)),
        }
    }

    fn atom(&self, a: &Atom) -> AbsVal {
        match a {
            Atom::Const(c) => Const(*c),
            Atom::Tmp(t) => self.tmps[t.0 as usize],
        }
    }

    /// Canonical `fp`-relative offset of a stack value, if expressible
    /// in the current context (directly `fp`-based, or `sp`-based in a
    /// block that derived `fp` from the same anchor).
    fn canonical(&self, base: BaseReg, off: i64) -> Option<i64> {
        match base {
            BaseReg::Fp => Some(off),
            BaseReg::Sp => match self.regs[reg::FP as usize] {
                Stack { base: BaseReg::Sp, off: fp_off, .. } => Some(off - fp_off),
                _ => None,
            },
        }
    }
}

/// Phase-1 (probe) collection: parameter spill slots and how often each
/// canonical frame slot is stored, keyed by distinct store pc so
/// overlapping lifted contexts do not double-count.
#[derive(Default)]
struct Probe {
    /// Distinct non-transient store pcs per canonical offset.
    counts: BTreeMap<i64, BTreeSet<u64>>,
    /// Param index → (canonical offset, pc) of its prologue spill.
    spill: BTreeMap<u8, (i64, u64)>,
    /// A store the probe could not attribute to a canonical slot
    /// (wild `sp`-laundered target, stack atomic): trust nothing.
    wild: bool,
}

/// Live tracked slots carried across a direct call, keyed by the
/// continuation leader and re-based to its coordinates.
type BridgeMap = BTreeMap<u64, Vec<(Slot, AbsVal)>>;

/// One superblock of a leader's context.
struct Lifted {
    ir: IrBlock,
    /// The lifter's instruction cap ended the block.
    capped: bool,
    /// The cap split a straight-line run: the continuation is not a
    /// leader, so no branch can reach it and no other context
    /// interprets it. The next block of the context carries the whole
    /// state on instead of flushing anything.
    chains: bool,
}

/// Everything interpreted from one leader: its superblock plus the
/// continuations the lifter's cap split off it.
struct Context {
    leader: u64,
    blocks: Vec<Lifted>,
    /// Lifting failed at the leader or at a continuation.
    lift_failed: bool,
}

/// What both phases read about one function, computed once: its lifted
/// contexts (one per leader) and its control-flow shape.
struct FnCode<'a> {
    f: &'a FuncCfg,
    fi: usize,
    contexts: Vec<Context>,
    /// End of the function's entry basic block: spill-slot candidates
    /// are only accepted below it (the entry block dominates the whole
    /// function, so a trusted reload is always preceded by its spill).
    entry_block_end: u64,
    /// Leaders with exactly one intra-procedural predecessor edge —
    /// the only continuations a call may seed with bridged slots. Sorted.
    single_pred: Vec<u64>,
}

impl<'a> FnCode<'a> {
    fn new(module: &Module, cfg: &'a Cfg, fi: usize) -> FnCode<'a> {
        let f = &cfg.funcs[fi];
        let contexts = f
            .blocks
            .keys()
            .map(|&leader| {
                let mut blocks = Vec::new();
                let mut at = leader;
                let lift_failed = loop {
                    let Ok(ir) = lift_superblock(module, at) else { break true };
                    let capped = ir.guest_instrs() >= MAX_BLOCK_INSTS;
                    let next = match (ir.jumpkind, ir.next) {
                        (JumpKind::Boring, Atom::Const(t))
                            if capped && f.contains(t) && !f.blocks.contains_key(&t) =>
                        {
                            Some(t)
                        }
                        _ => None,
                    };
                    blocks.push(Lifted { ir, capped, chains: next.is_some() });
                    match next {
                        Some(t) => at = t,
                        None => break false,
                    }
                };
                Context { leader, blocks, lift_failed }
            })
            .collect();
        // One entry per predecessor edge: a run of length one is a
        // leader with a single predecessor.
        let mut succs: Vec<u64> = f.blocks.values().flat_map(|b| b.succs.iter().copied()).collect();
        succs.sort_unstable();
        let single_pred =
            succs.chunk_by(|a, b| a == b).filter(|run| run.len() == 1).map(|run| run[0]).collect();
        FnCode {
            f,
            fi,
            contexts,
            entry_block_end: f.blocks.get(&f.lo).map(|b| b.end).unwrap_or(f.lo),
            single_pred,
        }
    }
}

/// Interpreter for one lifted context of one function.
struct Interp<'a> {
    st: BlockState,
    facts: &'a mut FnFacts,
    glob: &'a mut GlobalAcc,
    /// The function being interpreted.
    code: &'a FnCode<'a>,
    cur_pc: u64,
    /// Callee summaries (bottom-up: everything below this function's
    /// SCC is final; same-SCC entries read as widened).
    summaries: &'a Summaries,
    /// The summary being accumulated for this function.
    summary: &'a mut FnSummary,
    /// Canonical offset → param index of slots whose reloads may be
    /// trusted to still hold the spilled argument register.
    trusted: &'a BTreeMap<i64, u8>,
    /// Present in phase 1 only.
    probe: Option<&'a mut Probe>,
    /// Call-bridging gate: `Some(escaped)` in phase 2 when the probe
    /// pass finished unpoisoned, so its frame-escape set is complete.
    /// Slots in the set are never carried across a call.
    bridge_escapes: Option<&'a BTreeSet<i64>>,
    /// Live tracked slots carried across a direct call, keyed by the
    /// continuation leader and re-based to its coordinates.
    bridge_out: &'a mut BridgeMap,
}

impl Interp<'_> {
    /// A frame address left the abstract state: record the escape (or
    /// poison the frame when the slot cannot be named).
    fn escape_stack(&mut self, base: BaseReg, off: i64) {
        match self.st.canonical(base, off) {
            Some(c) => {
                if self.facts.escaped.insert(c) {
                    self.facts.escape_sites.push((c, self.cur_pc));
                }
            }
            None => self.facts.poisoned = true,
        }
    }

    /// A parameter pointer flowed somewhere untracked: assume it is
    /// captured, read and written.
    fn taint_param(&mut self, i: u8) {
        self.summary.taint(i, true, true, true);
    }

    /// Apply the boundary rules for a value that flows out of the block
    /// (register or tracked slot at a block exit, dirty-call argument,
    /// store payload).
    fn escape_value(&mut self, v: AbsVal) {
        match v {
            Stack { base, off, .. } => self.escape_stack(base, off),
            Const(c) if self.glob.in_data(c) => self.glob.addr_escape(c),
            Param(i) => self.taint_param(i),
            _ => {}
        }
    }

    /// A constant that might be a data address was consumed by
    /// arithmetic the domain cannot invert: the symbol's address is
    /// loose from here on (the result may be dereferenced as `Other`).
    fn launder_const(&mut self, v: AbsVal) {
        if let Const(c) = v {
            if self.glob.in_data(c) {
                self.glob.addr_escape(c);
            }
        }
    }

    /// Addresses resident in tracked stack slots when control may leave
    /// the block escape: the continuation is analysed from scratch and
    /// would reload them as unknown values, so a later copy-out could
    /// not be seen. Two exemptions keep this precise:
    ///
    /// * A `Param` resting in its own trusted (or candidate) spill slot
    ///   — the continuation reloads it as the same `Param`.
    /// * Slots **below the current stack pointer** — popped operand-
    ///   stack pushes. The codegen discipline (see the module docs)
    ///   never reloads memory below `sp`, so a dead push slot's residue
    ///   is unreachable and need not escape.
    fn flush_mem(&mut self) {
        let sp_now = match self.st.regs[reg::SP as usize] {
            Stack { base, off, .. } => Some((base, off)),
            _ => None,
        };
        let mem = std::mem::take(&mut self.st.mem);
        for &((base, off), v) in &mem {
            if let Some((sb, so)) = sp_now {
                if base == sb && off < so {
                    continue; // dead: below the live stack pointer
                }
            }
            if let Param(i) = v {
                let canon = self.st.canonical(base, off);
                let home = match &self.probe {
                    Some(p) => p.spill.get(&i).map(|&(o, _)| o),
                    None => self.trusted.iter().find(|&(_, &pi)| pi == i).map(|(&o, _)| o),
                };
                if canon.is_some() && canon == home {
                    continue;
                }
            }
            self.escape_value(v);
        }
        self.st.mem = mem;
    }

    /// A store through an unknown pointer (or an atomic with an unknown
    /// address) may overwrite any tracked slot. The residues must
    /// escape *before* the slots are forgotten: a silently dropped live
    /// value could be reloaded as `Other` and copied out unseen.
    fn clobber_mem(&mut self) {
        self.flush_mem();
        self.st.mem.clear();
    }

    /// Carry live tracked slots across a direct call into its
    /// continuation superblock instead of escaping their residues.
    ///
    /// The assignment codegen pushes the destination address before
    /// evaluating the rhs, so a call in the rhs (`p = malloc(..)`,
    /// `n = atoi(..)`) would otherwise address-escape the destination
    /// global — or frame slot — at every such site. Bridging a slot is
    /// sound exactly when the callee cannot hold a pointer to it:
    ///
    /// * its address never escapes the frame (per the probe pass,
    ///   whose escape set is complete because it finished unpoisoned),
    /// * no frame address with callee write or escape effects is
    ///   passed as an argument (an argument pointer admits writes at
    ///   arbitrary offsets from it, memset-style), and
    /// * the continuation has the call as its only predecessor, so
    ///   the seeded state cannot describe any other path.
    ///
    /// Everything not bridged stays in `mem` for the ordinary
    /// `flush_mem` escape that follows.
    fn bridge_call(&mut self, target: u64) {
        let Some(escaped) = self.bridge_escapes else { return };
        let cont = self.cur_pc + INST_SIZE;
        if cont <= self.code.f.lo
            || cont >= self.code.f.hi
            || self.code.single_pred.binary_search(&cont).is_err()
        {
            return;
        }
        let s = self.summaries.for_target(target);
        for i in 0..8u8 {
            let bit = 1u8 << i;
            if matches!(self.st.regs[(reg::A0 + i) as usize], Stack { .. })
                && (s.escapes & bit != 0 || s.writes & bit != 0)
            {
                return; // callee may write through a frame pointer
            }
        }
        let fp_now = self.st.regs[reg::FP as usize];
        let sp_now = self.st.regs[reg::SP as usize];
        let rebase = |base: BaseReg, off: i64| -> Option<Slot> {
            if let Stack { base: fb, off: fo, .. } = fp_now {
                if base == fb {
                    return Some((BaseReg::Fp, off - fo));
                }
            }
            if let Stack { base: sb, off: so, .. } = sp_now {
                if base == sb {
                    return Some((BaseReg::Sp, off - so));
                }
            }
            None
        };
        let mem = std::mem::take(&mut self.st.mem);
        let mut kept: Vec<(Slot, AbsVal)> = Vec::with_capacity(mem.len());
        let mut bridged: Vec<(Slot, AbsVal)> = Vec::new();
        for ((base, off), v) in mem {
            // A dead push slot is unreachable either way.
            let dead = matches!(sp_now, Stack { base: sb, off: so, .. } if base == sb && off < so);
            // The probe's escape set names canonical (fp-relative)
            // slots in the frame's reserved area. A slot that cannot be
            // canonicalized here is `sp`-anchored in a non-entry
            // context, i.e. an operand push/save slot below that area:
            // the codegen discipline only ever materialises such an
            // address as a transient `sp` read, so no escaped pointer
            // can reach it and it may always be carried. An escaped
            // slot is left for flush_mem.
            let escaped_slot = self.st.canonical(base, off).is_some_and(|c| escaped.contains(&c));
            let carried = if dead || escaped_slot {
                None
            } else {
                rebase(base, off).and_then(|key| match v {
                    Const(_) => Some((key, v)),
                    // Re-based values are no longer direct `sp` reads.
                    Stack { base: vb, off: vo, .. } => rebase(vb, vo)
                        .map(|(nb, no)| (key, Stack { base: nb, off: no, via_sp: false })),
                    Param(_) | Other => None, // home-slot logic / no info
                })
            };
            match carried {
                Some(e) => bridged.push(e),
                None => kept.push(((base, off), v)),
            }
        }
        self.st.mem = kept;
        if bridged.is_empty() {
            return;
        }
        let mut conflicts: Vec<AbsVal> = Vec::new();
        {
            let slot = self.bridge_out.entry(cont).or_default();
            for (k, v) in bridged {
                match slot.iter().position(|(k2, _)| *k2 == k) {
                    Some(i) if slot[i].1 == v => {}
                    Some(i) => {
                        // Two contexts over the same call disagree:
                        // neither value may seed the continuation.
                        let (_, old) = slot.remove(i);
                        conflicts.push(old);
                        conflicts.push(v);
                    }
                    None => slot.push((k, v)),
                }
            }
        }
        for v in conflicts {
            self.escape_value(v);
        }
    }

    /// Escape addresses in a register range (calling-convention rules:
    /// a caller observes `a0`, and a cap-split or indirect continuation
    /// observes everything).
    fn flush_regs(&mut self, lo: u8, hi: u8) {
        for r in lo..=hi {
            if r == reg::SP || r == reg::FP {
                continue;
            }
            self.escape_value(self.st.regs[r as usize]);
        }
    }

    /// Apply calling-convention effects of a direct call or tail
    /// transfer to `target`, consulting the callee's summary instead of
    /// unconditionally escaping every argument register.
    fn call_transfer(&mut self, target: Option<u64>) {
        self.glob.note_call_arg(self.cur_pc, self.st.regs[reg::A0 as usize]);
        let Some(t) = target else {
            self.flush_regs(reg::A0, reg::A7);
            return;
        };
        let s = self.summaries.for_target(t);
        for i in 0..8u8 {
            let bit = 1u8 << i;
            let (esc, wr, rd) = (s.escapes & bit != 0, s.writes & bit != 0, s.reads & bit != 0);
            match self.st.regs[(reg::A0 + i) as usize] {
                Stack { base, off, .. } => {
                    if esc {
                        self.escape_stack(base, off);
                    } else if wr {
                        // A same-thread write through the slot's address:
                        // counts against spill-slot trust, not escape.
                        if let (Some(p), Some(c)) =
                            (self.probe.as_deref_mut(), self.st.canonical(base, off))
                        {
                            p.counts.entry(c).or_default().insert(self.cur_pc);
                        }
                    }
                }
                Const(c) if self.glob.in_data(c) => {
                    if esc {
                        self.glob.addr_escape(c);
                    } else if wr {
                        self.glob.write_global(c, self.cur_pc);
                    }
                }
                Param(j) => {
                    if esc {
                        self.taint_param(j);
                    } else {
                        self.summary.taint(j, false, wr, rd);
                    }
                }
                _ => {}
            }
        }
    }

    fn record(&mut self, kind: AccessKind) {
        if self.glob.muted {
            return;
        }
        self.glob.records.push(AccessRec { pc: self.cur_pc, func: self.code.fi, kind });
    }

    fn classify_addr(&self, a: AbsVal, size: u64, write: bool) -> AccessKind {
        match a {
            Stack { base, off, .. } => match self.st.canonical(base, off) {
                Some(c) => AccessKind::StackCanon(c),
                None => AccessKind::StackAnon,
            },
            Const(addr) => AccessKind::ConstAddr { addr, size, write },
            Param(_) | Other => AccessKind::Unknown,
        }
    }

    fn binop(&mut self, op: BinOp, l: AbsVal, r: AbsVal) -> AbsVal {
        use BinOp::*;
        match (op, l, r) {
            (_, Const(a), Const(b)) => fold_const(op, a, b),
            (Add, Stack { base, off, via_sp }, Const(c))
            | (Add, Const(c), Stack { base, off, via_sp }) => {
                Stack { base, off: off.wrapping_add(c as i64), via_sp }
            }
            (Sub, Stack { base, off, via_sp }, Const(c)) => {
                Stack { base, off: off.wrapping_sub(c as i64), via_sp }
            }
            (Sub, Stack { base: b1, off: o1, .. }, Stack { base: b2, off: o2, .. }) if b1 == b2 => {
                Const(o1.wrapping_sub(o2) as u64)
            }
            // A derived pointer into the same argument still captures
            // the same object.
            (Add | Sub, Param(i), Const(_)) | (Add, Const(_), Param(i)) => Param(i),
            (CmpEq | CmpNe | CmpLtS | CmpLeS | CmpLtU, _, _) => Other,
            (_, Stack { .. }, _) | (_, _, Stack { .. }) => {
                // Frame address flowing through arithmetic the domain
                // cannot invert: give up on the whole frame. A data
                // address on the other side is laundered with it.
                self.facts.poisoned = true;
                self.launder_const(l);
                self.launder_const(r);
                Other
            }
            _ => {
                // Untracked result: any data address or parameter
                // pointer consumed here is loose.
                self.launder_const(l);
                self.launder_const(r);
                if let Param(i) = l {
                    self.taint_param(i);
                }
                if let Param(i) = r {
                    self.taint_param(i);
                }
                Other
            }
        }
    }

    fn unop(&mut self, op: UnOp, x: AbsVal) -> AbsVal {
        match (op, x) {
            (UnOp::Neg, Const(c)) => Const(c.wrapping_neg()),
            (UnOp::Not, Const(c)) => Const(!c),
            (_, Stack { .. }) => {
                self.facts.poisoned = true;
                Other
            }
            (_, Param(i)) => {
                self.taint_param(i);
                Other
            }
            _ => Other,
        }
    }

    /// Count a store to a canonical frame slot for spill-slot trust
    /// (phase 1), and register a prologue param spill candidate.
    fn probe_stack_store(&mut self, base: BaseReg, off: i64, via_sp: bool, val: AbsVal) {
        let canon = self.st.canonical(base, off);
        let pc = self.cur_pc;
        let in_entry_block = pc < self.code.entry_block_end;
        let Some(p) = self.probe.as_deref_mut() else { return };
        if via_sp {
            return; // transient pushes/link saves follow the sp discipline
        }
        match canon {
            Some(c) => {
                p.counts.entry(c).or_default().insert(pc);
                if in_entry_block {
                    if let Param(i) = val {
                        p.spill.entry(i).or_insert((c, pc));
                    }
                }
            }
            None => p.wild = true,
        }
    }

    fn run(&mut self, lifted: &Lifted) {
        let block = &lifted.ir;
        for stmt in &block.stmts {
            match stmt {
                Stmt::IMark { addr, .. } => self.cur_pc = *addr,
                Stmt::WrTmp { dst, rhs } => {
                    let v = match rhs {
                        Rhs::Atom(a) => self.st.atom(a),
                        Rhs::Get { reg: r } => {
                            let v = self.st.regs[*r as usize];
                            // `via_sp` is a property of the read, not of
                            // the value: only a direct `sp` read can
                            // address a push/save slot.
                            match v {
                                Stack { base, off, .. } => {
                                    Stack { base, off, via_sp: *r == reg::SP }
                                }
                                other => other,
                            }
                        }
                        Rhs::Load { ty, addr } => {
                            let a = self.st.atom(addr);
                            let kind = self.classify_addr(a, ty.size(), false);
                            self.record(kind);
                            if let Param(i) = a {
                                self.summary.taint(i, false, false, true);
                            }
                            match a {
                                Stack { base, off, .. } => {
                                    match self.st.slot((base, off)) {
                                        Some(v) => v,
                                        // A reload from a trusted spill
                                        // slot still holds the argument.
                                        None => match self
                                            .st
                                            .canonical(base, off)
                                            .and_then(|c| self.trusted.get(&c))
                                        {
                                            Some(&i) => Param(i),
                                            None => Other,
                                        },
                                    }
                                }
                                _ => Other,
                            }
                        }
                        Rhs::Binop { op, lhs, rhs } => {
                            let (l, r) = (self.st.atom(lhs), self.st.atom(rhs));
                            self.binop(*op, l, r)
                        }
                        Rhs::Unop { op, x } => {
                            let x = self.st.atom(x);
                            self.unop(*op, x)
                        }
                        Rhs::Ite { cond: _, then, els } => {
                            let (t, e) = (self.st.atom(then), self.st.atom(els));
                            if t == e {
                                t
                            } else {
                                if matches!(t, Stack { .. }) || matches!(e, Stack { .. }) {
                                    self.facts.poisoned = true;
                                }
                                self.launder_const(t);
                                self.launder_const(e);
                                if let Param(i) = t {
                                    self.taint_param(i);
                                }
                                if let Param(i) = e {
                                    self.taint_param(i);
                                }
                                Other
                            }
                        }
                    };
                    self.st.tmps[dst.0 as usize] = v;
                }
                Stmt::Put { reg: r, src } => {
                    if *r != reg::ZERO {
                        self.st.regs[*r as usize] = self.st.atom(src);
                    }
                }
                Stmt::Store { ty, addr, val } => {
                    let a = self.st.atom(addr);
                    let v = self.st.atom(val);
                    let kind = self.classify_addr(a, ty.size(), true);
                    self.record(kind);
                    match a {
                        Stack { base, off, via_sp } => {
                            self.probe_stack_store(base, off, via_sp, v);
                            // A frame or global address stored into
                            // anything but a transient push/save slot may
                            // be reloaded later as an untracked value and
                            // copied out: that is an escape of the
                            // payload. A push slot is tracked in `mem`
                            // and its residue escapes at `flush_mem` if
                            // still live, so the assignment codegen's
                            // address push (`&g` pushed while the rhs is
                            // evaluated) does not by itself escape `g`.
                            if !via_sp {
                                if let Stack { base: pb, off: po, .. } = v {
                                    self.escape_stack(pb, po);
                                }
                                self.launder_const(v);
                            }
                            self.st.set_slot((base, off), v);
                        }
                        Const(c) => {
                            if let Stack { base: pb, off: po, .. } = v {
                                self.escape_stack(pb, po);
                            }
                            if let Param(i) = v {
                                self.taint_param(i);
                            }
                            self.launder_const(v);
                            if c >= self.glob.code_lo && c < self.glob.code_hi {
                                self.glob.code_write(self.cur_pc, c);
                            }
                            self.glob.write_global(c, self.cur_pc);
                            // A constant data/code address cannot alias
                            // the guest stack: tracked slots survive.
                        }
                        Param(i) => {
                            // Store through an argument pointer: a write
                            // effect on the pointee; the payload leaves
                            // the trackable world. Arguments are formed
                            // before this activation's frame exists, so
                            // they cannot alias tracked slots.
                            self.summary.taint(i, false, true, false);
                            if let Stack { base: pb, off: po, .. } = v {
                                self.escape_stack(pb, po);
                            }
                            if let Param(j) = v {
                                self.taint_param(j);
                            }
                            self.launder_const(v);
                        }
                        Other => {
                            if let Stack { base: pb, off: po, .. } = v {
                                self.escape_stack(pb, po);
                            }
                            if let Param(j) = v {
                                self.taint_param(j);
                            }
                            self.launder_const(v);
                            // Unknown target may alias any tracked slot:
                            // escape live residues, then forget them.
                            self.clobber_mem();
                        }
                    }
                }
                Stmt::Cas { addr, expected, new, .. } => {
                    let a = self.st.atom(addr);
                    self.record(AccessKind::Unknown); // atomics stay instrumented
                    match a {
                        Const(c) => self.glob.write_global(c, self.cur_pc),
                        Param(i) => self.summary.taint(i, false, true, true),
                        Stack { .. } => {
                            if let Some(p) = self.probe.as_deref_mut() {
                                p.wild = true;
                            }
                        }
                        Other => {}
                    }
                    self.escape_value(self.st.atom(expected));
                    self.escape_value(self.st.atom(new));
                    self.clobber_mem();
                }
                Stmt::AtomicAdd { addr, val, .. } => {
                    let a = self.st.atom(addr);
                    self.record(AccessKind::Unknown);
                    match a {
                        Const(c) => self.glob.write_global(c, self.cur_pc),
                        Param(i) => self.summary.taint(i, false, true, true),
                        Stack { .. } => {
                            if let Some(p) = self.probe.as_deref_mut() {
                                p.wild = true;
                            }
                        }
                        Other => {}
                    }
                    self.escape_value(self.st.atom(val));
                    self.clobber_mem();
                }
                Stmt::Dirty { args, dst, .. } => {
                    let vals: Vec<AbsVal> = args.iter().map(|a| self.st.atom(a)).collect();
                    for v in vals {
                        self.escape_value(v);
                    }
                    if let Some(d) = dst {
                        self.st.tmps[d.0 as usize] = Other;
                    }
                }
                Stmt::Exit { .. } => {
                    // Control may leave here for another leader that is
                    // analysed from scratch: pushed addresses still on
                    // the operand stack become untrackable there, and so
                    // does an expression result carried in `t0` (the one
                    // register minicc keeps live across joins).
                    self.flush_mem();
                    self.escape_value(self.st.regs[reg::T0 as usize]);
                }
            }
        }
        // A lifter cap in the middle of a straight-line run is not a
        // control transfer at all: the caller carries the whole state
        // into the continuation instead of flushing anything.
        if lifted.chains {
            return;
        }
        // A direct call may hand live tracked slots to its continuation
        // before the remainder escapes.
        if let JumpKind::Call { .. } = block.jumpkind {
            if let Atom::Const(t) = block.next {
                self.bridge_call(t);
            }
        }
        self.flush_mem();
        match block.jumpkind {
            JumpKind::Call { .. } => {
                // The callee observes the argument registers — exactly
                // as far as its summary admits.
                let target = match block.next {
                    Atom::Const(t) => Some(t),
                    Atom::Tmp(_) => None,
                };
                self.call_transfer(target);
            }
            JumpKind::Ret => {
                // The caller observes the return value (returning a
                // parameter pointer hands it back untracked: escape).
                self.flush_regs(reg::A0, reg::A0);
                // A return must restore the caller's stack pointer:
                // either the block-entry `sp` (whole-function context)
                // or `fp + 16` (epilogue context; `fp` = entry-sp − 16).
                let ok = matches!(
                    self.st.regs[reg::SP as usize],
                    Stack { base: BaseReg::Sp, off: 0, .. }
                        | Stack { base: BaseReg::Fp, off: 16, .. }
                );
                if !ok {
                    self.facts.ret_mismatches.push(self.cur_pc);
                }
            }
            JumpKind::Halt => {}
            JumpKind::Boring => match block.next {
                Atom::Const(t) if self.code.f.contains(t) => {
                    // Intra-function transfer. If the lifter hit its
                    // instruction cap the continuation is plain
                    // straight-line code that may use any register the
                    // codegen assumed was still live.
                    if lifted.capped {
                        self.flush_regs(0, NUM_REGS as u8 - 1);
                    } else {
                        // A branch-free transfer only carries the
                        // expression result in `t0` (e.g. the address
                        // selected by a ternary flowing into its join
                        // block, where it is reloaded as unknown).
                        self.escape_value(self.st.regs[reg::T0 as usize]);
                    }
                }
                Atom::Const(t) => {
                    // Tail transfer into another function: treat its
                    // register visibility like a call.
                    self.call_transfer(Some(t));
                }
                Atom::Tmp(_) => {
                    // Indirect jump: the continuation is unknown.
                    self.flush_regs(0, NUM_REGS as u8 - 1);
                }
            },
        }
    }
}

fn fold_const(op: BinOp, a: u64, b: u64) -> AbsVal {
    use BinOp::*;
    match op {
        Add => Const(a.wrapping_add(b)),
        Sub => Const(a.wrapping_sub(b)),
        Mul => Const(a.wrapping_mul(b)),
        And => Const(a & b),
        Or => Const(a | b),
        Xor => Const(a ^ b),
        Shl => Const(a.wrapping_shl(b as u32)),
        ShrU => Const(a.wrapping_shr(b as u32)),
        CmpEq => Const((a == b) as u64),
        CmpNe => Const((a != b) as u64),
        CmpLtS => Const(((a as i64) < (b as i64)) as u64),
        CmpLeS => Const(((a as i64) <= (b as i64)) as u64),
        CmpLtU => Const((a < b) as u64),
        _ => Other,
    }
}

fn data_symbols(module: &Module) -> Vec<DataSym> {
    let mut syms: Vec<_> = module.symbols.iter().filter(|s| s.kind == SymKind::Data).collect();
    syms.sort_by_key(|s| s.addr);
    let data_end = module.data_end();
    (0..syms.len())
        .map(|i| {
            let next = syms.get(i + 1).map(|s| s.addr).unwrap_or(data_end);
            let hi = if syms[i].size > 0 {
                (syms[i].addr + syms[i].size).min(next.max(syms[i].addr))
            } else {
                next
            };
            DataSym { name: syms[i].name.clone(), lo: syms[i].addr, hi: hi.max(syms[i].addr) }
        })
        .collect()
}

/// Interpret every lifted context of one function in one
/// configuration. Returns false when some lift failed.
#[allow(clippy::too_many_arguments)]
fn interp_function(
    code: &FnCode,
    glob: &mut GlobalAcc,
    facts: &mut FnFacts,
    summaries: &Summaries,
    summary: &mut FnSummary,
    trusted: &BTreeMap<i64, u8>,
    mut probe: Option<&mut Probe>,
    bridge_escapes: Option<&BTreeSet<i64>>,
) -> bool {
    let mut bridge: BridgeMap = BTreeMap::new();
    let mut all_lifted = true;
    // One state for every block: its temporaries and tracked slots keep
    // their buffers from block to block.
    let mut st = BlockState { tmps: Vec::new(), regs: [Other; NUM_REGS], mem: Vec::new() };
    for ctx in &code.contexts {
        // One context per leader — continued across lifter caps that
        // split a straight-line run, carrying registers and tracked
        // slots; only the per-block temporaries reset.
        let mut carry = false;
        for lifted in &ctx.blocks {
            st.tmps.clear();
            st.tmps.resize(lifted.ir.n_temps as usize, Other);
            if !carry {
                st.regs = BlockState::entry_regs(ctx.leader == code.f.lo);
                st.mem.clear();
                if let Some(entries) = bridge.get(&ctx.leader) {
                    st.mem.extend_from_slice(entries);
                }
            }
            let mut interp = Interp {
                st,
                facts,
                glob,
                code,
                cur_pc: lifted.ir.base,
                summaries,
                summary,
                trusted,
                probe: probe.as_deref_mut(),
                bridge_escapes,
                bridge_out: &mut bridge,
            };
            interp.run(lifted);
            st = interp.st;
            carry = lifted.chains;
        }
        if ctx.lift_failed {
            facts.poisoned = true;
            all_lifted = false;
        }
    }
    all_lifted
}

/// Run the dataflow passes over every lifted context of every live
/// function, bottom-up over the call graph. A dead function gets no
/// facts, summary, access records or global effects: no live code calls
/// it, so no summary of it is ever read.
pub fn run(module: &Module, cfg: &Cfg) -> Dataflow {
    let mut glob = GlobalAcc {
        data_syms: data_symbols(module),
        written: BTreeSet::new(),
        addr_escaped: BTreeSet::new(),
        write_sites: Vec::new(),
        code_writes: Vec::new(),
        records: Vec::new(),
        call_args: BTreeMap::new(),
        data_lo: module.data_base,
        data_hi: module.data_end(),
        code_lo: module.code_base,
        code_hi: module.code_end(),
        muted: false,
    };
    let mut fn_facts: Vec<FnFacts> = vec![FnFacts::default(); cfg.funcs.len()];
    let cg = summaries::call_graph(cfg);
    let spawn = summaries::spawn_reachability(module, cfg, &cg);
    let mut sums = Summaries::new(cfg);
    let no_trust: BTreeMap<i64, u8> = BTreeMap::new();
    let live = cfg.live();

    // A call-graph SCC is wholly live or wholly dead: its members reach
    // one another.
    for scc in cg.sccs.iter().filter(|scc| live[scc[0]]) {
        for &fi in scc {
            let code = FnCode::new(module, cfg, fi);
            let f = code.f;
            // Phase 1 (muted probe): conservative local facts that gate
            // which prologue spill slots may be trusted in phase 2.
            glob.muted = true;
            let mut probe = Probe::default();
            let mut ph1 = FnFacts::default();
            let mut scratch = FnSummary::default();
            interp_function(
                &code,
                &mut glob,
                &mut ph1,
                &sums,
                &mut scratch,
                &no_trust,
                Some(&mut probe),
                None,
            );
            let entry_is_loop_target = f.blocks.values().any(|b| b.succs.contains(&f.lo));
            let mut trusted: BTreeMap<i64, u8> = BTreeMap::new();
            if !probe.wild && !ph1.poisoned && !entry_is_loop_target {
                for (&i, &(off, _pc)) in &probe.spill {
                    let single = probe.counts.get(&off).map(|pcs| pcs.len() == 1).unwrap_or(false);
                    if single && !ph1.escaped.contains(&off) {
                        trusted.insert(off, i);
                    }
                }
            }

            // Phase 2 (live): the real analysis, with trusted spill-slot
            // reloads keeping parameters visible across superblocks and
            // live slots bridged across direct calls (the probe's escape
            // set is complete only if phase 1 stayed unpoisoned).
            glob.muted = false;
            let mut summary = FnSummary::default();
            let bridge_ok = !probe.wild && !ph1.poisoned;
            let all_lifted = interp_function(
                &code,
                &mut glob,
                &mut fn_facts[fi],
                &sums,
                &mut summary,
                &trusted,
                None,
                bridge_ok.then_some(&ph1.escaped),
            );
            if !all_lifted {
                summary = FnSummary::widened();
            }
            sums.set(fi, summary);
        }
    }

    let ro: Vec<RoRange> = glob
        .data_syms
        .iter()
        .enumerate()
        .filter(|(i, s)| !glob.written.contains(i) && !glob.addr_escaped.contains(i) && s.hi > s.lo)
        .map(|(_, s)| RoRange { name: s.name.clone(), lo: s.lo, hi: s.hi })
        .collect();

    // Init-only globals: written, but every write site sits in a block
    // that provably runs before the first thread spawn, and the address
    // never escapes — so no access can race with the writes.
    let locate = |pc: u64| -> Option<(usize, u64)> {
        let fi = cfg.func_at(pc)?;
        let (&start, b) = cfg.funcs[fi].blocks.range(..=pc).next_back()?;
        (pc < b.end).then_some((fi, start))
    };
    let mut writes_by_sym: BTreeMap<usize, Vec<u64>> = BTreeMap::new();
    for &(si, pc) in &glob.write_sites {
        writes_by_sym.entry(si).or_default().push(pc);
    }
    let init_only: Vec<RoRange> = glob
        .data_syms
        .iter()
        .enumerate()
        .filter(|(i, s)| {
            s.hi > s.lo
                && glob.written.contains(i)
                && !glob.addr_escaped.contains(i)
                && writes_by_sym.get(i).is_some_and(|pcs| {
                    pcs.iter()
                        .all(|&pc| locate(pc).is_some_and(|(fi, start)| spawn.pre_spawn(fi, start)))
                })
        })
        .map(|(_, s)| RoRange { name: s.name.clone(), lo: s.lo, hi: s.hi })
        .collect();

    // Meet across contexts: a pc is safe only if every record agrees.
    let mut per_pc: Vec<(u64, bool)> = Vec::with_capacity(glob.records.len());
    for r in &glob.records {
        let safe = match r.kind {
            AccessKind::StackCanon(off) => {
                !fn_facts[r.func].poisoned && !fn_facts[r.func].escaped.contains(&off)
            }
            AccessKind::StackAnon => !fn_facts[r.func].poisoned,
            AccessKind::ConstAddr { addr, size, write } => {
                let within = |s: &&RoRange| addr >= s.lo && addr.wrapping_add(size) <= s.hi;
                (!write && ro.iter().any(|s| within(&s))) || init_only.iter().any(|s| within(&s))
            }
            AccessKind::Unknown => false,
        };
        per_pc.push((r.pc, safe));
    }
    per_pc.sort_unstable_by_key(|&(pc, _)| pc);
    per_pc.dedup_by(|next, prev| {
        if next.0 == prev.0 {
            prev.1 &= next.1;
            true
        } else {
            false
        }
    });
    let access_pcs = per_pc.len();
    let all_access_pcs: Vec<u64> = per_pc.iter().map(|&(pc, _)| pc).collect();
    let safe_pcs: BTreeSet<u64> =
        per_pc.into_iter().filter_map(|(pc, safe)| safe.then_some(pc)).collect();
    let call_args: BTreeMap<u64, Option<u64>> = glob
        .call_args
        .iter()
        .map(|(&pc, &a)| {
            (
                pc,
                match a {
                    CallArg::Known(c) => Some(c),
                    CallArg::Many => None,
                },
            )
        })
        .collect();

    Dataflow {
        fn_facts,
        ro,
        init_only,
        safe_pcs,
        code_writes: glob.code_writes,
        access_pcs,
        all_access_pcs,
        call_args,
        summaries: sums,
    }
}
