//! The tool plugin API — grindcore's analog of Valgrind's tool interface.
//!
//! A *tool* (paper §II-B: "a Valgrind tool includes the Valgrind core and
//! a plugin") customizes the framework in four ways:
//!
//! 1. **IR instrumentation**: [`Tool::instrument`] receives each freshly
//!    lifted superblock and may inject statements — typically
//!    [`vex_ir::DirtyCall::ToolMem`] callbacks observing loads/stores
//!    (see [`instrument_mem_accesses`]). [`Tool::instruments`] tells the
//!    VM which blocks the tool leaves as lifted, so it can run their
//!    first executions in its interpreter instead of translating them.
//! 2. **Client requests**: the guest runtime forwards parallel-model
//!    events via `clreq`; they arrive at [`Tool::client_request`].
//! 3. **Function replacement**: [`Tool::replacements`] names guest
//!    symbols to hijack (e.g. `malloc`, `free`); calls to them run
//!    [`Tool::replaced_call`] on the host instead of guest code.
//! 4. **Lifecycle hooks**: thread creation/exit and program end.

use crate::vm::{Tid, VmCore};
use vex_ir::{Atom, DirtyCall, IrBlock, Rhs, Stmt};

/// Information about a block being instrumented, borrowed from the
/// module.
#[derive(Clone, Copy, Debug)]
pub struct BlockMeta<'m> {
    /// Guest address of the block's first instruction.
    pub base: u64,
    /// Name of the enclosing function symbol, if known.
    pub fn_symbol: Option<&'m str>,
    /// Index of that symbol in the module's symbol table: a stable key
    /// for a tool that decides something once per function.
    pub fn_index: Option<u32>,
}

impl<'m> BlockMeta<'m> {
    /// The block at `pc` of `module`, whose function table is `funcs`.
    pub fn at(module: &'m tga::module::Module, funcs: &tga::module::FuncTable, pc: u64) -> Self {
        let fn_index = funcs.get(pc);
        let fn_symbol = fn_index.map(|i| module.symbols[i as usize].name.as_str());
        BlockMeta { base: pc, fn_symbol, fn_index }
    }
}

/// A request to replace a guest function with a host callback.
#[derive(Clone, Debug)]
pub struct FnReplacement {
    /// Glob-ish pattern matched against function symbol names
    /// (`*` matches any suffix; otherwise exact match).
    pub pattern: String,
    /// Tool-chosen id passed back to [`Tool::replaced_call`].
    pub id: u32,
}

/// Match a replacement pattern against a symbol name.
pub fn pattern_matches(pattern: &str, name: &str) -> bool {
    match pattern.strip_suffix('*') {
        Some(prefix) => name.starts_with(prefix),
        None => pattern == name,
    }
}

/// Classification of a synchronization client request, delivered to
/// [`Tool::sync_point`] after the request itself has been handled.
///
/// The VM is single-threaded: guest threads interleave under one
/// deterministic scheduler, so these events arrive in a total order.
/// Together with the monotonic sequence number passed alongside, that is
/// enough ordering information for a tool to track where the run is
/// (the confirm replay uses it to place its rolling snapshots) without
/// any global state of its own.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SyncKind {
    ParallelBegin,
    ParallelEnd,
    ImplicitTaskBegin,
    ImplicitTaskEnd,
    TaskCreate,
    TaskSpawn,
    TaskBegin,
    TaskEnd,
    Taskwait,
    TaskgroupBegin,
    TaskgroupEnd,
    Barrier,
    CriticalEnter,
    CriticalExit,
    TaskFulfill,
}

impl SyncKind {
    /// Map a client-request code to its sync classification, if it is a
    /// synchronization event at all.
    pub fn from_creq(code: u64) -> Option<SyncKind> {
        use crate::creq::*;
        Some(match code {
            PARALLEL_BEGIN => SyncKind::ParallelBegin,
            PARALLEL_END => SyncKind::ParallelEnd,
            IMPLICIT_TASK_BEGIN => SyncKind::ImplicitTaskBegin,
            IMPLICIT_TASK_END => SyncKind::ImplicitTaskEnd,
            TASK_CREATE => SyncKind::TaskCreate,
            TASK_SPAWN => SyncKind::TaskSpawn,
            TASK_BEGIN => SyncKind::TaskBegin,
            TASK_END => SyncKind::TaskEnd,
            TASKWAIT => SyncKind::Taskwait,
            TASKGROUP_BEGIN => SyncKind::TaskgroupBegin,
            TASKGROUP_END => SyncKind::TaskgroupEnd,
            BARRIER => SyncKind::Barrier,
            CRITICAL_ENTER => SyncKind::CriticalEnter,
            CRITICAL_EXIT => SyncKind::CriticalExit,
            TASK_FULFILL => SyncKind::TaskFulfill,
            _ => return None,
        })
    }

    /// Short stable label for this sync event, used by trace output (the
    /// tg-obs guest track) and diagnostics.
    pub fn name(self) -> &'static str {
        match self {
            SyncKind::ParallelBegin => "parallel begin",
            SyncKind::ParallelEnd => "parallel end",
            SyncKind::ImplicitTaskBegin => "implicit task begin",
            SyncKind::ImplicitTaskEnd => "implicit task end",
            SyncKind::TaskCreate => "task create",
            SyncKind::TaskSpawn => "task spawn",
            SyncKind::TaskBegin => "task begin",
            SyncKind::TaskEnd => "task end",
            SyncKind::Taskwait => "taskwait",
            SyncKind::TaskgroupBegin => "taskgroup begin",
            SyncKind::TaskgroupEnd => "taskgroup end",
            SyncKind::Barrier => "barrier",
            SyncKind::CriticalEnter => "critical enter",
            SyncKind::CriticalExit => "critical exit",
            SyncKind::TaskFulfill => "task fulfill",
        }
    }

    /// True for events after which a segment that was running can have
    /// closed: the confirm replay takes its rolling snapshot at the next
    /// boundary after one.
    pub fn closes_segments(self) -> bool {
        matches!(
            self,
            SyncKind::ParallelEnd
                | SyncKind::ImplicitTaskEnd
                | SyncKind::TaskEnd
                | SyncKind::Taskwait
                | SyncKind::TaskgroupEnd
                | SyncKind::Barrier
                | SyncKind::CriticalEnter
                | SyncKind::CriticalExit
                | SyncKind::TaskFulfill
        )
    }
}

/// The tool plugin trait. All hooks have no-op defaults so simple tools
/// implement only what they need.
#[allow(unused_variables)]
pub trait Tool {
    /// Tool name, for diagnostics.
    fn name(&self) -> &'static str;

    /// Rewrite a freshly lifted superblock. The result is cached: this
    /// runs once per translated block, not once per execution. Valgrind
    /// translates every block before it runs; grindcore translates a
    /// block [`Tool::instruments`] declines only once it has run
    /// [`COLD_RUNS`](crate::tcache::COLD_RUNS) times in the interpreter,
    /// so for most such blocks this never runs.
    fn instrument(&mut self, block: IrBlock, meta: &BlockMeta) -> IrBlock {
        block
    }

    /// Does [`Tool::instrument`] change the block `meta` describes?
    /// Answering `false` promises that it returns that block unchanged
    /// (debug builds assert it), which lets the chained engine run the
    /// block's first executions in its interpreter, the cold tier. The
    /// VM asks once per block, at its first translation-cache miss.
    fn instruments(&mut self, meta: &BlockMeta) -> bool {
        true
    }

    /// A `ToolMem` dirty call fired: the guest is about to access
    /// `[addr, addr+size)`. `pc` is the guest instruction address.
    fn mem_access(
        &mut self,
        core: &mut VmCore,
        tid: Tid,
        addr: u64,
        size: u64,
        write: bool,
        pc: u64,
    ) {
    }

    /// A custom `ToolHelper { id }` dirty call fired.
    fn tool_helper(&mut self, core: &mut VmCore, tid: Tid, id: u32, args: &[u64]) -> u64 {
        0
    }

    /// A client request from the guest. Return value lands in the
    /// request's destination register.
    fn client_request(&mut self, core: &mut VmCore, tid: Tid, code: u64, args: [u64; 5]) -> u64 {
        0
    }

    /// A synchronization client request completed. Fired immediately
    /// after [`Tool::client_request`] for requests whose code classifies
    /// as a [`SyncKind`]; `seq` is the global (cross-thread) client-
    /// request sequence number, monotonically increasing in the VM's
    /// deterministic event order, so a tool sees exactly the points where
    /// happens-before edges form.
    fn sync_point(&mut self, core: &mut VmCore, tid: Tid, kind: SyncKind, seq: u64) {}

    /// Guest functions this tool wants to replace.
    fn replacements(&self) -> Vec<FnReplacement> {
        Vec::new()
    }

    /// A replaced function was called. `args` are `a0..a7`; the return
    /// value lands in `a0`.
    fn replaced_call(&mut self, core: &mut VmCore, tid: Tid, id: u32, args: [u64; 8]) -> u64 {
        0
    }

    /// A new guest thread exists (fired on the creating thread).
    fn thread_created(&mut self, core: &mut VmCore, parent: Tid, child: Tid) {}

    /// A guest thread exited.
    fn thread_exited(&mut self, core: &mut VmCore, tid: Tid) {}

    /// The program finished (or was stopped); last chance to analyze.
    fn program_end(&mut self, core: &mut VmCore) {}

    /// Bytes of host memory the tool's data structures occupy, for the
    /// memory-overhead accounting of Table II.
    fn tool_bytes(&self) -> u64 {
        0
    }
}

/// The no-op tool ("nulgrind"): pure translation/emulation overhead.
/// It instruments nothing, so its blocks translate only once they run
/// hot.
#[derive(Default)]
pub struct NulTool;

impl Tool for NulTool {
    fn name(&self) -> &'static str {
        "nulgrind"
    }

    fn instruments(&mut self, _meta: &BlockMeta) -> bool {
        false
    }
}

/// A lackey-style counting tool: instruments every access and counts.
/// Used in tests and in the DBI-overhead ablation bench.
#[derive(Default)]
pub struct CountTool {
    pub reads: u64,
    pub writes: u64,
    pub read_bytes: u64,
    pub write_bytes: u64,
}

impl Tool for CountTool {
    fn name(&self) -> &'static str {
        "countgrind"
    }

    fn instrument(&mut self, block: IrBlock, _meta: &BlockMeta) -> IrBlock {
        instrument_mem_accesses(block)
    }

    fn mem_access(
        &mut self,
        _core: &mut VmCore,
        _tid: Tid,
        _addr: u64,
        size: u64,
        write: bool,
        _pc: u64,
    ) {
        if write {
            self.writes += 1;
            self.write_bytes += size;
        } else {
            self.reads += 1;
            self.read_bytes += size;
        }
    }
}

/// Standard instrumentation pass: insert a `ToolMem` dirty call before
/// every guest load, store and atomic. Atomics get both a read and a
/// write callback, matching how Valgrind tools see `IRCAS`.
///
/// Because the IR is flat, the address operand of each access is always
/// an atom already defined earlier in the block, so insertion is purely
/// positional.
pub fn instrument_mem_accesses(block: IrBlock) -> IrBlock {
    instrument_mem_accesses_filtered(block, &mut |_, _| true)
}

/// Like [`instrument_mem_accesses`], but consults `keep(pc, write)`
/// before inserting each callback, where `pc` is the guest address of
/// the enclosing instruction (from the preceding `IMark`). Accesses for
/// which `keep` returns `false` execute uninstrumented. Atomics are
/// always instrumented regardless of the filter: they are
/// synchronization by definition, so no static analysis may prune them.
pub fn instrument_mem_accesses_filtered(
    mut block: IrBlock,
    keep: &mut dyn FnMut(u64, bool) -> bool,
) -> IrBlock {
    let mut out: Vec<Stmt> = Vec::with_capacity(block.stmts.len() * 2);
    let mut pc = block.base;
    for s in block.stmts.drain(..) {
        match &s {
            Stmt::IMark { addr, .. } => {
                pc = *addr;
                out.push(s);
            }
            Stmt::WrTmp { rhs: Rhs::Load { ty, addr }, .. } => {
                if keep(pc, false) {
                    out.push(mem_cb(false, *addr, ty.size()));
                }
                out.push(s);
            }
            Stmt::Store { ty, addr, .. } => {
                if keep(pc, true) {
                    out.push(mem_cb(true, *addr, ty.size()));
                }
                out.push(s);
            }
            Stmt::Cas { addr, .. } | Stmt::AtomicAdd { addr, .. } => {
                out.push(mem_cb(false, *addr, 8));
                out.push(mem_cb(true, *addr, 8));
                out.push(s);
            }
            _ => out.push(s),
        }
    }
    block.stmts = out;
    block
}

fn mem_cb(write: bool, addr: Atom, size: u64) -> Stmt {
    Stmt::Dirty { call: DirtyCall::ToolMem { write }, args: vec![addr, Atom::imm(size)], dst: None }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vex_ir::{sanity, Atom, BinOp, IrBlock, JumpKind, Rhs, Stmt, Ty};

    fn block_with_accesses() -> IrBlock {
        let mut b = IrBlock::new(0x1000);
        let t0 = b.new_temp();
        let t1 = b.new_temp();
        let t2 = b.new_temp();
        b.stmts.push(Stmt::IMark { addr: 0x1000, len: 16 });
        b.stmts.push(Stmt::WrTmp { dst: t0, rhs: Rhs::Get { reg: 2 } });
        b.stmts.push(Stmt::WrTmp { dst: t1, rhs: Rhs::Load { ty: Ty::I64, addr: t0.into() } });
        b.stmts.push(Stmt::WrTmp {
            dst: t2,
            rhs: Rhs::Binop { op: BinOp::Add, lhs: t1.into(), rhs: Atom::imm(1) },
        });
        b.stmts.push(Stmt::Store { ty: Ty::I64, addr: t0.into(), val: t2.into() });
        b.next = Atom::imm(0x1010);
        b.jumpkind = JumpKind::Boring;
        b
    }

    #[test]
    fn instrumentation_inserts_callbacks_in_order() {
        let b = instrument_mem_accesses(block_with_accesses());
        sanity::assert_sane(&b, "instrumented");
        let kinds: Vec<String> = b
            .stmts
            .iter()
            .filter_map(|s| match s {
                Stmt::Dirty { call: DirtyCall::ToolMem { write }, .. } => {
                    Some(if *write { "w".into() } else { "r".into() })
                }
                _ => None,
            })
            .collect();
        assert_eq!(kinds, vec!["r", "w"]);
        // Callback precedes its access.
        let pos_cb = b
            .stmts
            .iter()
            .position(|s| {
                matches!(s, Stmt::Dirty { call: DirtyCall::ToolMem { write: false }, .. })
            })
            .unwrap();
        let pos_load = b
            .stmts
            .iter()
            .position(|s| matches!(s, Stmt::WrTmp { rhs: Rhs::Load { .. }, .. }))
            .unwrap();
        assert!(pos_cb < pos_load);
    }

    #[test]
    fn atomics_get_read_and_write_callbacks() {
        let mut b = IrBlock::new(0);
        let t0 = b.new_temp();
        b.stmts.push(Stmt::Cas {
            dst: t0,
            addr: Atom::imm(0x2000),
            expected: Atom::imm(0),
            new: Atom::imm(1),
        });
        let b = instrument_mem_accesses(b);
        sanity::assert_sane(&b, "instrumented cas");
        let n_cbs = b
            .stmts
            .iter()
            .filter(|s| matches!(s, Stmt::Dirty { call: DirtyCall::ToolMem { .. }, .. }))
            .count();
        assert_eq!(n_cbs, 2);
    }

    #[test]
    fn filtered_instrumentation_skips_pruned_pcs_but_not_atomics() {
        let mut b = block_with_accesses();
        // Give the store its own instruction, plus a trailing atomic.
        b.stmts.push(Stmt::IMark { addr: 0x1010, len: 16 });
        let t_cas = b.new_temp();
        b.stmts.push(Stmt::Cas {
            dst: t_cas,
            addr: Atom::imm(0x2000),
            expected: Atom::imm(0),
            new: Atom::imm(1),
        });
        let mut asked = Vec::new();
        let b = instrument_mem_accesses_filtered(b, &mut |pc, write| {
            asked.push((pc, write));
            false // prune everything prunable
        });
        sanity::assert_sane(&b, "filtered");
        // Load and store callbacks are gone; the atomic keeps both.
        let kinds: Vec<bool> = b
            .stmts
            .iter()
            .filter_map(|s| match s {
                Stmt::Dirty { call: DirtyCall::ToolMem { write }, .. } => Some(*write),
                _ => None,
            })
            .collect();
        assert_eq!(kinds, vec![false, true]);
        // The filter saw the load and store at their IMark pc, and was
        // never consulted for the atomic.
        assert_eq!(asked, vec![(0x1000, false), (0x1000, true)]);
    }

    #[test]
    fn pattern_matching() {
        assert!(pattern_matches("malloc", "malloc"));
        assert!(!pattern_matches("malloc", "mallocx"));
        assert!(pattern_matches("__kmp*", "__kmp_task_alloc"));
        assert!(pattern_matches("*", "anything"));
        assert!(!pattern_matches("__kmp*", "kmp_x"));
    }
}
