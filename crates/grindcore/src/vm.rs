//! The virtual machine: guest threads, big-lock scheduling, the IR
//! interpreter (heavyweight DBI mode) and a direct instruction
//! interpreter ("native" mode used as the no-tool / compile-time-
//! instrumentation baseline).
//!
//! Like Valgrind, grindcore serializes guest threads: exactly one guest
//! thread executes at any moment and thread switches happen only at
//! superblock boundaries, after a quantum expires or when a thread
//! blocks. This is the property that makes heavyweight DBI of parallel
//! programs subtle (paper §IV-A): scheduling under the tool differs from
//! native scheduling, and the runtime's own scheduling state is guest
//! memory like any other.

use crate::flat::{FOp, FSide, FlatBlock, TMP_BIT};
use crate::lift::{decodes, lift_superblock, LiftError, MAX_BLOCK_INSTS};
use crate::mem::GuestMemory;
use crate::syscalls;
use crate::tcache::{BlockCode, CacheRef, TransCache};
use crate::tool::{pattern_matches, BlockMeta, Tool};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, OnceLock};
use tga::module::{FuncTable, Module, SymKind};
use tga::{reg, Op, INST_SIZE};
use vex_ir::{eval_binop, eval_unop, Atom, DirtyCall, IrBlock, JumpKind, Rhs, Stmt, Ty};

/// Guest thread identifier (index into [`VmCore::threads`]).
pub type Tid = usize;

/// Returning to this address exits the thread (set as the initial `ra`).
pub const EXIT_SENTINEL: u64 = 0xFFFF_FFFF_0000_0000;
/// Top of the first thread's stack; later stacks are placed below.
pub const STACK_TOP: u64 = 0x7f00_0000_0000;
/// Unmapped guard gap between thread stacks.
pub const STACK_GUARD: u64 = 0x10_0000;
/// Where program arguments (argv) are materialized.
pub const ARGV_BASE: u64 = 0x6000_0000_0000;

/// Thread scheduling policy.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SchedPolicy {
    /// Deterministic round-robin (the default; tests rely on it).
    RoundRobin,
    /// Seeded random choice of the next runnable thread, for exploring
    /// schedules.
    Random,
}

/// Execution mode.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ExecMode {
    /// Direct instruction interpretation — the "no tools" baseline.
    /// Client requests and function replacements still fire, so
    /// compile-time-instrumented tools (the Archer analog) run here.
    Fast,
    /// Full heavyweight DBI: lift → instrument → emulate.
    Dbi,
}

/// VM configuration.
#[derive(Clone, Debug)]
pub struct VmConfig {
    /// Value of the `NTHREADS` syscall (the `OMP_NUM_THREADS` analog).
    pub nthreads: u64,
    /// Seed for the guest-visible PRNG and the random scheduler.
    pub seed: u64,
    /// Scheduling quantum, in superblocks (DBI) — scaled ×16 for Fast.
    pub quantum: u64,
    /// Abort with an error after this many guest instructions.
    pub max_instrs: u64,
    /// Per-thread stack size in bytes.
    pub stack_size: u64,
    pub sched: SchedPolicy,
    /// Chain translated superblocks so steady-state dispatch skips the
    /// translation-cache hash probe (Valgrind's block chaining). Every
    /// shipping run chains; `false` selects the tree-walk reference
    /// engine the differential tests compare against, and results must
    /// be bit-identical either way.
    pub chaining: bool,
    /// Capacity of the bounded translation cache, in superblocks.
    /// Evictions use an LRU-clock sweep and unchain the victim.
    pub cache_blocks: usize,
    /// Unread: translation always runs on the dispatch thread. Kept
    /// only because `tgbench` names this field.
    #[doc(hidden)]
    pub compile_threads: usize,
    /// Sample executed-op budget per guest function (the tg-obs
    /// self-profiler); results land in [`Metrics::profile`]. One
    /// `Option` check per superblock when off.
    pub self_profile: bool,
}

impl Default for VmConfig {
    fn default() -> VmConfig {
        VmConfig {
            nthreads: 1,
            seed: 42,
            quantum: 64,
            max_instrs: 2_000_000_000,
            stack_size: 1 << 20,
            sched: SchedPolicy::RoundRobin,
            chaining: true,
            cache_blocks: 4096,
            compile_threads: 0,
            self_profile: false,
        }
    }
}

/// Why a thread is not currently runnable.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ThreadStatus {
    Runnable,
    /// Parked on a futex word.
    FutexWait(u64),
    /// Waiting for another thread to exit.
    Joining(Tid),
    Exited,
}

/// One guest thread.
#[derive(Clone, Debug)]
pub struct ThreadState {
    pub tid: Tid,
    pub regs: [u64; tga::NUM_REGS],
    pub pc: u64,
    pub status: ThreadStatus,
    /// Base address of this thread's TLS block.
    pub tls_base: u64,
    /// Size of the TLS block.
    pub tls_size: u64,
    /// Generation counter of the TLS block (bumped if it were ever
    /// reallocated; recorded by Taskgrind's DTV suppression, §IV-C).
    pub tls_gen: u64,
    pub stack_low: u64,
    pub stack_high: u64,
    /// Shadow call stack of return addresses (innermost last).
    pub shadow_stack: Vec<u64>,
}

impl ThreadState {
    pub fn reg(&self, r: u8) -> u64 {
        self.regs[r as usize]
    }
}

/// Classification of a guest address, as used by Taskgrind's
/// false-positive suppression layers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AddrClass {
    Code,
    /// Static data or BSS.
    Data,
    /// The sbrk-managed heap.
    Heap,
    /// Within the stack reservation of the given thread.
    Stack(Tid),
    /// Within the TLS block of the given thread.
    Tls(Tid),
    Other,
}

/// Dispatch-loop telemetry (DBI mode): how blocks reached execution and
/// what the bounded translation cache did to keep them there.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct VmStats {
    /// Dispatches served by a chain link or IBTC entry (no hash probe).
    pub chain_hits: u64,
    /// Direct exit→successor links patched into cached blocks.
    pub chain_links: u64,
    /// Indirect transfers served by the indirect-branch target cache.
    pub ibtc_hits: u64,
    /// IBTC entries written.
    pub ibtc_fills: u64,
    /// Translation-cache hash probes (the slow dispatch path).
    pub probes: u64,
    /// Blocks the cold tier ran in the interpreter: executions of blocks
    /// the tool declined, before they were translated.
    pub cold_blocks: u64,
    /// Blocks evicted by the LRU-clock sweep (capacity pressure).
    pub evictions: u64,
    /// Chain links severed by eviction or invalidation.
    pub unchains: u64,
    /// Blocks invalidated by `DISCARD_TRANSLATIONS` or self-modifying
    /// code, as opposed to capacity evictions.
    pub discarded_blocks: u64,
    /// `DISCARD_TRANSLATIONS` client requests handled by the core.
    pub discard_requests: u64,
}

/// Execution counters, reported in every [`RunResult`].
#[derive(Clone, Debug, Default)]
pub struct Metrics {
    /// Guest instructions executed.
    pub instrs: u64,
    /// Superblocks executed (DBI mode), in the cold tier or translated.
    pub blocks: u64,
    /// Superblocks translated (cache misses past the cold tier).
    pub translations: u64,
    /// Host bytes the translation cache held at the end of the run
    /// ([`TransCache::bytes`]): resident code and link tables, and its
    /// tables and cold-tier run counters at their allocated capacity.
    pub translation_bytes: u64,
    /// Scheduler slices granted.
    pub switches: u64,
    pub syscalls: u64,
    pub client_requests: u64,
    pub replaced_calls: u64,
    pub threads_created: u64,
    /// Resident guest memory at end of run (monotonic, so also the peak).
    pub guest_footprint: u64,
    /// Host bytes the tool reported for its own structures.
    pub tool_bytes: u64,
    /// Dispatch-loop telemetry (chaining, probes, evictions).
    pub dispatch: VmStats,
    /// FNV-1a digest folded over every scheduler slice grant — two runs
    /// scheduled identically have equal digests. Used by the chaining
    /// determinism tests.
    pub sched_digest: u64,
    /// Self-profiler output: `(guest function, estimated executed ops)`
    /// sorted descending. Empty unless [`VmConfig::self_profile`] is set.
    pub profile: Vec<(String, u64)>,
    /// Persistent code-cache counters, all zero (and `enabled` false)
    /// unless a cache was attached via [`Vm::set_code_cache`].
    pub cache: crate::codecache::CodeCacheStats,
}

impl VmStats {
    /// Publish every dispatch-loop counter into `reg` under `dispatch.*`.
    pub fn publish(&self, reg: &mut tg_obs::Registry) {
        reg.set_u64("dispatch.chain_hits", self.chain_hits);
        reg.set_u64("dispatch.chain_links", self.chain_links);
        reg.set_u64("dispatch.ibtc_hits", self.ibtc_hits);
        reg.set_u64("dispatch.ibtc_fills", self.ibtc_fills);
        reg.set_u64("dispatch.probes", self.probes);
        reg.set_u64("dispatch.cold_blocks", self.cold_blocks);
        reg.set_u64("dispatch.evictions", self.evictions);
        reg.set_u64("dispatch.unchains", self.unchains);
        reg.set_u64("dispatch.discarded_blocks", self.discarded_blocks);
        reg.set_u64("dispatch.discard_requests", self.discard_requests);
    }
}

impl Metrics {
    /// Publish every execution counter into `reg`: `vm.*` for the core
    /// counters, `dispatch.*` for the dispatch loop, and
    /// `profile.<function>` for the self-profiler budget (when enabled).
    pub fn publish(&self, reg: &mut tg_obs::Registry) {
        reg.set_u64("vm.instrs", self.instrs);
        reg.set_u64("vm.blocks", self.blocks);
        reg.set_u64("vm.translations", self.translations);
        reg.set_u64("vm.translation_bytes", self.translation_bytes);
        reg.set_u64("vm.switches", self.switches);
        reg.set_u64("vm.syscalls", self.syscalls);
        reg.set_u64("vm.client_requests", self.client_requests);
        reg.set_u64("vm.replaced_calls", self.replaced_calls);
        reg.set_u64("vm.threads_created", self.threads_created);
        reg.set_u64("vm.guest_footprint", self.guest_footprint);
        reg.set_u64("vm.tool_bytes", self.tool_bytes);
        reg.set_u64("vm.sched_digest", self.sched_digest);
        self.dispatch.publish(reg);
        reg.set_bool("cache.enabled", self.cache.enabled);
        reg.set_u64("cache.hits", self.cache.hits);
        reg.set_u64("cache.misses", self.cache.misses);
        reg.set_u64("cache.bytes", self.cache.bytes_loaded + self.cache.bytes_stored);
        reg.set_u64("cache.bytes_loaded", self.cache.bytes_loaded);
        reg.set_u64("cache.bytes_stored", self.cache.bytes_stored);
        reg.set_f64("cache.load_ms", self.cache.load_nanos as f64 / 1e6);
        reg.set_f64("cache.store_ms", self.cache.store_nanos as f64 / 1e6);
        reg.set_u64("cache.invalidations", self.cache.invalidations);
        for (name, ops) in &self.profile {
            reg.set_u64(&format!("profile.{name}"), *ops);
        }
    }
}

/// Fold one value into the scheduler digest (FNV-1a over LE bytes).
fn fold_digest(digest: u64, v: u64) -> u64 {
    let mut d = if digest == 0 { 0xcbf2_9ce4_8422_2325 } else { digest };
    for b in v.to_le_bytes() {
        d = (d ^ b as u64).wrapping_mul(0x100_0000_01b3);
    }
    d
}

/// A guest fault (bad opcode, division by zero, budget exhausted, ...).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct VmError {
    pub tid: Tid,
    pub pc: u64,
    pub msg: String,
}

impl std::fmt::Display for VmError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "guest fault on thread {} at {:#x}: {}", self.tid, self.pc, self.msg)
    }
}

impl std::error::Error for VmError {}

/// Outcome of a program run.
#[derive(Clone, Debug)]
pub struct RunResult {
    /// Exit code if the program called `exit`; `None` when every thread
    /// simply finished (treated as exit 0), or on deadlock/error.
    pub exit_code: Option<i64>,
    pub stdout: Vec<u8>,
    /// All remaining threads were blocked — the scheduler gave up.
    pub deadlock: bool,
    pub error: Option<VmError>,
    pub metrics: Metrics,
}

impl RunResult {
    /// Stdout as UTF-8 (lossy).
    pub fn stdout_str(&self) -> String {
        String::from_utf8_lossy(&self.stdout).into_owned()
    }

    /// True when the program ran to completion without fault or deadlock.
    pub fn ok(&self) -> bool {
        self.error.is_none() && !self.deadlock
    }
}

/// The machine state visible to tools during callbacks.
pub struct VmCore {
    pub mem: GuestMemory,
    pub module: Arc<Module>,
    pub threads: Vec<ThreadState>,
    /// Current heap break.
    pub brk: u64,
    pub stdout: Vec<u8>,
    pub metrics: Metrics,
    pub config: VmConfig,
    pub(crate) rng: StdRng,
    pub(crate) futex: HashMap<u64, VecDeque<Tid>>,
    pub(crate) exit_code: Option<i64>,
    /// Set by [`VmCore::stop_run`]: the run ends at the next slice
    /// boundary.
    pub(crate) stop_requested: bool,
    heap_start: u64,
    /// The module's function table, built on first use: a `none` run,
    /// which never translates, never pays for it.
    funcs: OnceLock<FuncTable>,
}

impl VmCore {
    fn new(module: Module, config: VmConfig) -> VmCore {
        let module = Arc::new(module);
        let mut mem = GuestMemory::new();
        // Load the image: code is fetched from the module directly, but
        // we also mirror it into memory so data reads of code addresses
        // behave; data and TLS templates are copied.
        for (i, inst) in module.code.iter().enumerate() {
            mem.write(module.code_base + i as u64 * INST_SIZE, &inst.encode());
        }
        mem.write(module.data_base, &module.data);
        let heap_start = module.heap_start();
        let mut core = VmCore {
            mem,
            module,
            threads: Vec::new(),
            brk: heap_start,
            stdout: Vec::new(),
            metrics: Metrics::default(),
            config: VmConfig { seed: config.seed, ..config.clone() },
            rng: StdRng::seed_from_u64(config.seed),
            futex: HashMap::new(),
            exit_code: None,
            stop_requested: false,
            heap_start,
            funcs: OnceLock::new(),
        };
        let entry = core.module.entry;
        core.spawn_thread(entry, 0);
        core
    }

    /// Create a guest thread starting at `entry` with `a0 = arg`.
    pub fn spawn_thread(&mut self, entry: u64, arg: u64) -> Tid {
        let tid = self.threads.len();
        let stack_high = STACK_TOP - tid as u64 * (self.config.stack_size + STACK_GUARD);
        let stack_low = stack_high - self.config.stack_size;
        let tls_size = self.module.tls_size().max(8);
        let tls_base = self.alloc_raw(tls_size);
        let template = self.module.tls_template.clone();
        self.mem.write(tls_base, &template);
        let mut regs = [0u64; tga::NUM_REGS];
        regs[reg::SP as usize] = stack_high;
        regs[reg::FP as usize] = stack_high;
        regs[reg::RA as usize] = EXIT_SENTINEL;
        regs[reg::TP as usize] = tls_base;
        regs[reg::A0 as usize] = arg;
        self.threads.push(ThreadState {
            tid,
            regs,
            pc: entry,
            status: ThreadStatus::Runnable,
            tls_base,
            tls_size,
            tls_gen: 0,
            stack_low,
            stack_high,
            shadow_stack: Vec::new(),
        });
        self.metrics.threads_created += 1;
        tid
    }

    /// Bump-allocate raw guest memory outside the guest allocator
    /// (used for TLS blocks and by tools replacing `malloc`).
    pub fn alloc_raw(&mut self, size: u64) -> u64 {
        let addr = (self.brk + 15) & !15;
        self.brk = addr + size;
        addr
    }

    /// The most bytes the guest can own: its resident pages plus its
    /// bss and stack reservations, which read as zeros until touched.
    /// The heap break is excluded, since `sbrk` moves it by any amount.
    fn owned_bytes(&self) -> u64 {
        let stacks = (self.threads.len() as u64).saturating_mul(self.config.stack_size);
        self.mem.footprint().saturating_add(self.module.bss_size).saturating_add(stacks)
    }

    /// Grow the heap break by `delta`, returning the old break.
    pub fn sbrk(&mut self, delta: u64) -> u64 {
        let old = self.brk;
        self.brk = self.brk.wrapping_add(delta);
        old
    }

    /// Write program arguments and point `a0`/`a1` of the main thread at
    /// them (C convention: `main(argc, argv)`).
    pub fn setup_args(&mut self, prog_name: &str, args: &[&str]) {
        let all: Vec<&str> = std::iter::once(prog_name).chain(args.iter().copied()).collect();
        let ptrs_at = ARGV_BASE;
        let mut str_at = ARGV_BASE + (all.len() as u64 + 1) * 8;
        for (i, a) in all.iter().enumerate() {
            self.mem.write_u64(ptrs_at + i as u64 * 8, str_at);
            self.mem.write(str_at, a.as_bytes());
            self.mem.write_u8(str_at + a.len() as u64, 0);
            str_at += a.len() as u64 + 1;
        }
        self.mem.write_u64(ptrs_at + all.len() as u64 * 8, 0);
        self.threads[0].regs[reg::A0 as usize] = all.len() as u64;
        self.threads[0].regs[reg::A1 as usize] = ptrs_at;
    }

    /// Classify an address for suppression logic.
    pub fn classify_addr(&self, addr: u64) -> AddrClass {
        if addr >= self.module.code_base && addr < self.module.code_end() {
            return AddrClass::Code;
        }
        if addr >= self.module.data_base && addr < self.module.data_end() {
            return AddrClass::Data;
        }
        for t in &self.threads {
            if addr >= t.stack_low && addr < t.stack_high {
                return AddrClass::Stack(t.tid);
            }
            if addr >= t.tls_base && addr < t.tls_base + t.tls_size {
                return AddrClass::Tls(t.tid);
            }
        }
        if addr >= self.heap_start && addr < self.brk {
            return AddrClass::Heap;
        }
        AddrClass::Other
    }

    /// A thread's call frames, innermost first: its current pc, then
    /// the return addresses on its shadow call stack. Borrows the
    /// stack, so a caller that needs one frame pays for one frame.
    pub fn frames(&self, tid: Tid) -> impl Iterator<Item = u64> + '_ {
        let t = &self.threads[tid];
        std::iter::once(t.pc).chain(t.shadow_stack.iter().rev().copied())
    }

    /// The module's function table ([`Module::find_func`] by binary
    /// search).
    pub fn funcs(&self) -> &FuncTable {
        self.funcs.get_or_init(|| FuncTable::new(&self.module))
    }

    /// "func (file:line)" for an address, best effort.
    pub fn symbolize(&self, addr: u64) -> String {
        let func = self
            .funcs()
            .find(&self.module, addr)
            .map(|s| s.name.clone())
            .unwrap_or_else(|| "???".to_string());
        match self.module.line_for(addr) {
            Some(loc) => format!("{func} ({loc})"),
            None => format!("{func} ({addr:#x})"),
        }
    }

    /// Deterministic guest-visible randomness.
    pub fn guest_rand(&mut self) -> u64 {
        self.rng.random()
    }

    fn wake_joiners(&mut self, exited: Tid) {
        for t in &mut self.threads {
            if t.status == ThreadStatus::Joining(exited) {
                t.status = ThreadStatus::Runnable;
            }
        }
    }
}

/// Where the previous superblock handed control, so the dispatcher can
/// chain the edge once the successor translation is known.
#[derive(Clone, Copy, Debug)]
enum Pending {
    /// No chainable edge (thread start, redirect, halt, discard).
    None,
    /// A direct transfer: exit ordinal `exit` of cached block `from`
    /// (side exits in statement order, fallthrough last).
    Link { from: CacheRef, exit: u32 },
    /// An indirect transfer (`Ret`/computed jump) from the block based
    /// at `site`; chained through the IBTC keyed on (site, target).
    Ibtc { site: u64 },
}

/// One superblock through the translation pipeline.
pub struct Translation {
    /// The one form the translation cache keeps.
    pub code: BlockCode,
    /// One past the last guest byte the block covers.
    pub end: u64,
}

/// Translate the superblock at `pc`: lift, `tool` instrumentation and,
/// when `compile`, the flat compile, which replaces the IR. `funcs` is
/// `module`'s function table, which names the block's function for the
/// tool. The dispatch slow path and `tgrind warm`'s ahead-of-time
/// precompiler both call this, so a block compiled ahead of time is
/// byte-identical to the one a cold run produces at the same pc.
pub fn translate(
    module: &Module,
    funcs: &FuncTable,
    pc: u64,
    tool: &mut dyn Tool,
    compile: bool,
) -> Result<Translation, LiftError> {
    let block = {
        let _s = tg_obs::trace::host_span("lift");
        lift_superblock(module, pc)?
    };
    let meta = BlockMeta::at(module, funcs, pc);
    // A declined block may have run in the cold tier, so its translation
    // must be the lifted block itself.
    let declined = (cfg!(debug_assertions) && !tool.instruments(&meta)).then(|| block.clone());
    let ir = {
        let _s = tg_obs::trace::host_span("instrument");
        tool.instrument(block, &meta)
    };
    if cfg!(debug_assertions) {
        vex_ir::sanity::assert_sane(&ir, tool.name());
        if let Some(lifted) = declined {
            assert!(ir == lifted, "{} declined the block at {pc:#x} but rewrote it", tool.name());
        }
    }
    let (_, end) = ir.extent();
    let code = if compile {
        let _s = tg_obs::trace::host_span("compile");
        BlockCode::Flat(Arc::new(crate::flat::compile(&ir)))
    } else {
        BlockCode::Ir(Arc::new(ir))
    };
    Ok(Translation { code, end })
}

/// The full VM: core state + the active tool + the translation cache.
pub struct Vm {
    pub core: VmCore,
    pub tool: Box<dyn Tool>,
    tcache: TransCache,
    redirects: HashMap<u64, u32>,
    tmp_buf: Vec<u64>,
    /// The operands of the dirty call `exec_flat` is making, reused like
    /// `tmp_buf`.
    dirty_args: Vec<u64>,
    yield_requested: bool,
    /// Guest code range, for the self-modifying-code store check.
    code_lo: u64,
    code_hi: u64,
    /// Sampling self-profiler ([`VmConfig::self_profile`]).
    profiler: Option<crate::profile::SelfProfiler>,
    /// Persistent compiled-code cache, consulted for blocks about to be
    /// translated (chained engine only). See [`crate::codecache`].
    code_cache: Option<crate::codecache::CodeCacheHandle>,
    /// Replay hook consulted at every slice boundary before the
    /// scheduling policy (see [`crate::snapshot::ScheduleDirector`]).
    /// `None` on the default path — the loop below is then bit-identical
    /// to the pre-snapshot dispatch loop.
    director: Option<Box<dyn crate::snapshot::ScheduleDirector>>,
}

impl Vm {
    /// Build a VM for `module` driven by `tool`.
    pub fn new(module: Module, tool: Box<dyn Tool>, config: VmConfig) -> Vm {
        let mut redirects = HashMap::new();
        for r in tool.replacements() {
            for sym in module.symbols.iter().filter(|s| s.kind == SymKind::Func) {
                if pattern_matches(&r.pattern, &sym.name) {
                    redirects.insert(sym.addr, r.id);
                }
            }
        }
        let code_lo = module.code_base;
        let code_hi = module.code_end();
        let profiler = config.self_profile.then(crate::profile::SelfProfiler::new);
        Vm {
            tcache: TransCache::new(config.cache_blocks),
            core: VmCore::new(module, config),
            tool,
            redirects,
            tmp_buf: Vec::new(),
            dirty_args: Vec::new(),
            yield_requested: false,
            code_lo,
            code_hi,
            profiler,
            code_cache: None,
            director: None,
        }
    }

    /// Attach a persistent compiled-code cache. Only the chained engine
    /// consults it (the reference engine and fast mode never install
    /// foreign flat blocks); attach before [`Vm::run`].
    pub fn set_code_cache(&mut self, cache: crate::codecache::CodeCacheHandle) {
        self.code_cache = Some(cache);
    }

    /// Number of translations currently resident in the bounded cache.
    pub fn cached_blocks(&self) -> usize {
        self.tcache.len()
    }

    /// Install a schedule director: a replay hook consulted at every
    /// slice boundary before the configured scheduling policy. Attach
    /// before [`Vm::run`]. See [`crate::snapshot::ScheduleDirector`].
    pub fn set_director(&mut self, d: Box<dyn crate::snapshot::ScheduleDirector>) {
        self.director = Some(d);
    }

    /// Run the program to completion.
    pub fn run(&mut self, mode: ExecMode, args: &[&str]) -> RunResult {
        self.core.setup_args("guest", args);
        let mut deadlock = false;
        let mut error: Option<VmError> = None;
        let mut current: Tid = 0;

        loop {
            // Slice boundary: no superblock is in flight, so this is the
            // one point where a schedule director may snapshot or
            // restore `core` (and possibly force the next thread). It
            // also runs after an exit or when every thread is blocked,
            // so a replay harness can rescue such a run by restoring.
            let forced = match self.director.as_mut() {
                Some(d) => d.boundary(&mut self.core, current),
                None => None,
            };
            if self.core.exit_code.is_some() || self.core.stop_requested {
                break;
            }
            let forced = forced.filter(|&t| {
                t < self.core.threads.len() && self.core.threads[t].status == ThreadStatus::Runnable
            });
            let Some(tid) = forced.or_else(|| self.pick_next(current)) else {
                // No runnable thread: either everything exited, or the
                // remaining threads are blocked → deadlock.
                deadlock = self.core.threads.iter().any(|t| t.status != ThreadStatus::Exited);
                break;
            };
            current = tid;
            self.core.metrics.switches += 1;
            self.core.metrics.sched_digest =
                fold_digest(self.core.metrics.sched_digest, tid as u64);
            let slice = match mode {
                ExecMode::Dbi => self.core.config.quantum,
                ExecMode::Fast => self.core.config.quantum * 16,
            };
            let _slice_span = if tg_obs::trace::enabled() {
                tg_obs::trace::host_span_args("slice", vec![("tid", tid as u64)])
            } else {
                tg_obs::trace::SpanGuard::inactive()
            };
            let step = match mode {
                ExecMode::Dbi => self.run_slice_dbi(tid, slice),
                ExecMode::Fast => self.run_slice_fast(tid, slice),
            };
            if let Err(e) = step {
                error = Some(e);
                break;
            }
        }

        self.core.metrics.guest_footprint = self.core.mem.footprint();
        self.core.metrics.translation_bytes = self.tcache.bytes();
        if let Some(c) = &self.code_cache {
            self.core.metrics.cache = c.stats();
        }
        if let Some(p) = &self.profiler {
            self.core.metrics.profile = p.resolve(&self.core.module);
        }
        self.tool.program_end(&mut self.core);
        self.core.metrics.tool_bytes = self.tool.tool_bytes();
        RunResult {
            exit_code: self.core.exit_code,
            stdout: std::mem::take(&mut self.core.stdout),
            deadlock,
            error,
            metrics: self.core.metrics.clone(),
        }
    }

    fn budget_error(&self, tid: Tid) -> VmError {
        VmError {
            tid,
            pc: self.core.threads[tid].pc,
            msg: format!("instruction budget exhausted ({})", self.core.config.max_instrs),
        }
    }

    /// One scheduler slice in DBI mode, routed to the engine the config
    /// selects. Both engines make the same per-iteration scheduling
    /// checks in the same order and produce bit-identical guest state,
    /// metrics and tool-callback streams; the differential test layer
    /// enforces this.
    fn run_slice_dbi(&mut self, tid: Tid, slice: u64) -> Result<(), VmError> {
        if self.core.config.chaining {
            self.run_slice_dbi_chained(tid, slice)
        } else {
            self.run_slice_dbi_ref(tid, slice)
        }
    }

    /// The production dispatch loop: superblock chaining over flat
    /// compiled blocks, with a cold tier in front of the translator.
    ///
    /// The fast path is a *chain hit*: the previous block's taken exit
    /// (or the IBTC, for indirect transfers) already names the successor
    /// translation, so dispatch validates a generation-checked handle
    /// and runs — no redirect probe, no cache probe. Chain hits may skip
    /// the redirect check because redirected entry points are never
    /// translated (the redirect probe precedes translation on the slow
    /// path), so no cached block — hence no link target — is one.
    ///
    /// On a miss, a block the tool declines runs in the interpreter for
    /// its first [`COLD_RUNS`](crate::tcache::COLD_RUNS) executions
    /// ([`Self::exec_cold`]) and is translated on the next. It leaves no
    /// chainable edge, so the block after it takes the slow path.
    fn run_slice_dbi_chained(&mut self, tid: Tid, slice: u64) -> Result<(), VmError> {
        // Chain state is slice-local: a transfer interrupted by a thread
        // switch re-enters through the slow path, exactly like Valgrind
        // re-entering the dispatcher.
        let mut pending = Pending::None;
        for _ in 0..slice {
            if self.core.threads[tid].status != ThreadStatus::Runnable {
                break;
            }
            if self.core.exit_code.is_some() {
                break;
            }
            if self.core.metrics.instrs > self.core.config.max_instrs {
                return Err(self.budget_error(tid));
            }
            let pc = self.core.threads[tid].pc;
            if pc == EXIT_SENTINEL {
                self.thread_exit(tid);
                break;
            }

            // Chain-hit fast path.
            let dispatched: Option<(CacheRef, Arc<FlatBlock>)> = match pending {
                Pending::Link { from, exit } => self.tcache.follow(from, exit, pc),
                Pending::Ibtc { site } => {
                    let hit = self
                        .tcache
                        .ibtc_lookup(site, pc)
                        .and_then(|p| Some((p, self.tcache.take_flat_for(p, pc)?)));
                    if hit.is_some() {
                        self.core.metrics.dispatch.ibtc_hits += 1;
                    }
                    hit
                }
                Pending::None => None,
            };

            match dispatched {
                Some((cur, block)) => {
                    self.core.metrics.dispatch.chain_hits += 1;
                    pending = self.exec_flat(tid, cur, &block)?;
                }
                None => {
                    // Slow path: redirect probe, then cache probe /
                    // translation, then patch the edge that got us here.
                    if let Some(&id) = self.redirects.get(&pc) {
                        self.handle_redirect(tid, id);
                        pending = Pending::None;
                        continue;
                    }
                    pending = match self.lookup_or_translate(pc)? {
                        None => {
                            self.exec_cold(tid)?;
                            Pending::None
                        }
                        Some(cur) => {
                            match pending {
                                Pending::Link { from, exit } => {
                                    if self.tcache.link(from, exit, cur) {
                                        self.core.metrics.dispatch.chain_links += 1;
                                    }
                                }
                                Pending::Ibtc { site } => {
                                    self.tcache.ibtc_insert(site, pc, cur);
                                    self.core.metrics.dispatch.ibtc_fills += 1;
                                }
                                Pending::None => {}
                            }
                            // Every block the chained engine caches carries
                            // its flat form; a miss here would be a cache bug.
                            let Some(block) = self.tcache.take_flat_for(cur, pc) else {
                                return Err(VmError {
                                    tid,
                                    pc,
                                    msg: "translation has no flat form".into(),
                                });
                            };
                            self.exec_flat(tid, cur, &block)?
                        }
                    };
                }
            }
            if self.yield_requested {
                self.yield_requested = false;
                break;
            }
        }
        Ok(())
    }

    /// The reference dispatch loop (`chaining = false`): redirect probe and
    /// translation-cache hash probe on every block, tree-walk execution
    /// of the instrumented IR. This is the engine the differential tests
    /// trust; the chained engine must match it bit for bit.
    fn run_slice_dbi_ref(&mut self, tid: Tid, slice: u64) -> Result<(), VmError> {
        for _ in 0..slice {
            if self.core.threads[tid].status != ThreadStatus::Runnable {
                break;
            }
            if self.core.exit_code.is_some() {
                break;
            }
            if self.core.metrics.instrs > self.core.config.max_instrs {
                return Err(self.budget_error(tid));
            }
            let pc = self.core.threads[tid].pc;
            if pc == EXIT_SENTINEL {
                self.thread_exit(tid);
                break;
            }
            if let Some(&id) = self.redirects.get(&pc) {
                self.handle_redirect(tid, id);
                continue;
            }
            // Without chaining there is no cold tier: every block translates.
            let Some(block) = self.lookup_or_translate(pc)?.and_then(|r| self.tcache.ir_of(r))
            else {
                return Err(VmError { tid, pc, msg: "translation has no IR form".into() });
            };
            self.exec_block(tid, &block)?;
            if self.yield_requested {
                self.yield_requested = false;
                break;
            }
        }
        Ok(())
    }

    /// One scheduler slice in Fast (direct interpretation) mode.
    fn run_slice_fast(&mut self, tid: Tid, slice: u64) -> Result<(), VmError> {
        for _ in 0..slice {
            if self.core.threads[tid].status != ThreadStatus::Runnable {
                break;
            }
            if self.core.exit_code.is_some() {
                break;
            }
            if self.core.metrics.instrs > self.core.config.max_instrs {
                return Err(self.budget_error(tid));
            }
            let pc = self.core.threads[tid].pc;
            if pc == EXIT_SENTINEL {
                self.thread_exit(tid);
                break;
            }
            if let Some(&id) = self.redirects.get(&pc) {
                self.handle_redirect(tid, id);
                continue;
            }
            self.exec_inst::<false>(tid)?;
            if self.yield_requested {
                self.yield_requested = false;
                break;
            }
        }
        Ok(())
    }

    fn pick_next(&mut self, current: Tid) -> Option<Tid> {
        let n = self.core.threads.len();
        let runnable: Vec<Tid> =
            (0..n).filter(|&t| self.core.threads[t].status == ThreadStatus::Runnable).collect();
        if runnable.is_empty() {
            return None;
        }
        match self.core.config.sched {
            SchedPolicy::RoundRobin => {
                // First runnable strictly after `current`, wrapping.
                (1..=n)
                    .map(|d| (current + d) % n)
                    .find(|&t| self.core.threads[t].status == ThreadStatus::Runnable)
            }
            SchedPolicy::Random => {
                let i = self.core.rng.random_range(0..runnable.len());
                Some(runnable[i])
            }
        }
    }

    fn thread_exit(&mut self, tid: Tid) {
        self.core.threads[tid].status = ThreadStatus::Exited;
        self.core.wake_joiners(tid);
        self.tool.thread_exited(&mut self.core, tid);
    }

    fn handle_redirect(&mut self, tid: Tid, id: u32) {
        self.core.metrics.replaced_calls += 1;
        let t = &self.core.threads[tid];
        let ra = t.reg(reg::RA);
        let mut args = [0u64; 8];
        for (i, a) in args.iter_mut().enumerate() {
            *a = t.regs[reg::A0 as usize + i];
        }
        let ret = self.tool.replaced_call(&mut self.core, tid, id, args);
        let t = &mut self.core.threads[tid];
        t.regs[reg::A0 as usize] = ret;
        t.pc = ra;
        t.shadow_stack.pop();
    }

    /// Slow dispatch path: probe the translation cache, translating on
    /// a miss (and possibly evicting to stay within capacity). Under the
    /// chained engine the flat compiled form is produced here too, once
    /// per translation. `None` leaves the block to the cold tier: the
    /// chained engine does that for the first
    /// [`COLD_RUNS`](crate::tcache::COLD_RUNS) executions of a block the
    /// tool declines ([`Tool::instruments`]) and that would translate
    /// (a block that would not goes on to fail translation here).
    fn lookup_or_translate(&mut self, pc: u64) -> Result<Option<CacheRef>, VmError> {
        self.core.metrics.dispatch.probes += 1;
        if let Some(r) = self.tcache.lookup(pc) {
            return Ok(Some(r));
        }
        // Persistent code cache: a hit installs the previously compiled
        // flat block directly (no lift/instrument/compile). Chain links
        // are never persisted — they re-resolve through the normal
        // runtime chaining protocol. Chained engine only: the reference
        // engine executes IR, which the cache does not store. It is
        // asked only for blocks past the cold tier, the ones a cold run
        // translates.
        if self.core.config.chaining {
            let (core, tool) = (&self.core, &mut self.tool);
            let declined = || {
                let meta = BlockMeta::at(&core.module, core.funcs(), pc);
                !tool.instruments(&meta) && decodes(&core.module, pc)
            };
            if self.tcache.run_cold(pc, declined) {
                return Ok(None);
            }
            let loaded = self.code_cache.as_ref().and_then(|c| c.borrow_mut().load(pc));
            if let Some(ct) = loaded {
                return Ok(Some(self.install(BlockCode::Flat(Arc::new(ct.flat)), ct.end)));
            }
        }
        let _translate_span = if tg_obs::trace::enabled() {
            tg_obs::trace::host_span_args("translate", vec![("pc", pc)])
        } else {
            tg_obs::trace::SpanGuard::inactive()
        };
        let core = &self.core;
        let t = translate(&core.module, core.funcs(), pc, &mut *self.tool, core.config.chaining)
            .map_err(|e| VmError { tid: 0, pc, msg: e.to_string() })?;
        if let (Some(cache), BlockCode::Flat(fb)) = (&self.code_cache, &t.code) {
            cache.borrow_mut().store(pc, t.end, fb);
        }
        self.core.metrics.translations += 1;
        Ok(Some(self.install(t.code, t.end)))
    }

    /// Insert a translation into the tcache, counting what the insert
    /// evicted.
    fn install(&mut self, code: BlockCode, end: u64) -> CacheRef {
        let (r, _, ev) = self.tcache.insert(code, end);
        let m = &mut self.core.metrics;
        m.dispatch.evictions += ev.evicted;
        m.dispatch.unchains += ev.unchained;
        r
    }

    /// Invalidate every translation overlapping `[lo, hi)`, unchaining
    /// the victims. Safe mid-block: execution holds its own `Arc` and
    /// every later chain patch is generation-validated.
    pub fn discard_translations(&mut self, lo: u64, hi: u64) {
        if let Some(cache) = &self.code_cache {
            cache.borrow_mut().invalidate_range(lo, hi);
        }
        let ev = self.tcache.discard_range(lo, hi);
        self.core.metrics.dispatch.discarded_blocks += ev.evicted;
        self.core.metrics.dispatch.unchains += ev.unchained;
    }

    /// Route a client request: core requests are handled here (and never
    /// forwarded), everything else goes to the tool.
    fn handle_client_request(&mut self, tid: Tid, code: u64, args: [u64; 5]) -> u64 {
        self.core.metrics.client_requests += 1;
        if code == crate::creq::DISCARD_TRANSLATIONS {
            self.core.metrics.dispatch.discard_requests += 1;
            self.discard_translations(args[0], args[0].saturating_add(args[1]));
            return 0;
        }
        let _creq_span = if tg_obs::trace::enabled() {
            tg_obs::trace::host_span_args("tool creq", vec![("code", code), ("tid", tid as u64)])
        } else {
            tg_obs::trace::SpanGuard::inactive()
        };
        let ret = self.tool.client_request(&mut self.core, tid, code, args);
        if let Some(kind) = crate::tool::SyncKind::from_creq(code) {
            let seq = self.core.metrics.client_requests;
            self.tool.sync_point(&mut self.core, tid, kind, seq);
        }
        ret
    }

    /// Execute one flat-compiled superblock (chained engine), returning
    /// the chainable edge it left on. Must match [`Self::exec_block`]
    /// bit for bit: same guest effects, same tool-callback order and
    /// arguments, same `instrs` at every observable point (dirty calls,
    /// traps, exits), same error pcs.
    fn exec_flat(
        &mut self,
        tid: Tid,
        cur: CacheRef,
        fb: &Arc<FlatBlock>,
    ) -> Result<Pending, VmError> {
        self.core.metrics.blocks += 1;
        if let Some(p) = self.profiler.as_mut() {
            p.note(fb.base, fb.ops.len() as u64);
        }
        let mut tmps = std::mem::take(&mut self.tmp_buf);
        // Every temp is written before it is read (the compile-time scan
        // behind `zero_temps` proved it), so the buffer's stale contents
        // are unobservable and the per-block memset can be skipped.
        if fb.zero_temps {
            tmps.clear();
            tmps.resize(fb.n_temps as usize, 0);
        } else if tmps.len() < fb.n_temps as usize {
            tmps.resize(fb.n_temps as usize, 0);
        }
        let consts = &fb.consts;
        // Instructions credited so far. The reference walker counts one
        // per IMark as it passes; here every observable point carries
        // its precomputed count and we credit the delta, so external
        // increments (if a tool ever made any) are preserved.
        // `FlatBlock::check` proved the counts never fall along the ops.
        let mut counted: u16 = 0;

        macro_rules! fv {
            ($x:expr) => {{
                let x = $x;
                if x & TMP_BIT != 0 {
                    tmps[(x & !TMP_BIT) as usize]
                } else {
                    consts[x as usize]
                }
            }};
        }

        // Every index below is in range: compiled blocks are built that
        // way and decoded ones pass `FlatBlock::check`.
        let mut taken: Option<u16> = None;
        'body: for op in fb.ops.iter() {
            match *op {
                FOp::Get { dst, reg } => {
                    tmps[dst as usize] = self.core.threads[tid].regs[reg as usize];
                }
                FOp::Mov { dst, src } => tmps[dst as usize] = fv!(src),
                FOp::Ld8 { dst, addr, ic } => {
                    let a = fv!(addr);
                    tmps[dst as usize] = self.core.mem.read_u64_ic(a, &fb.ics[ic as usize]);
                }
                FOp::Ld1 { dst, addr, ic } => {
                    let a = fv!(addr);
                    tmps[dst as usize] = self.core.mem.read_u8_ic(a, &fb.ics[ic as usize]) as u64;
                }
                FOp::Bin { dst, op, a, b } => {
                    let (a, b) = (fv!(a), fv!(b));
                    tmps[dst as usize] = eval_binop(op, a, b).expect("non-trapping binop trapped");
                }
                FOp::BinTrap { dst, op, side } => {
                    let FSide::Trap { a, b, pc, instrs } = fb.side[side as usize] else {
                        unreachable!("checked side entry")
                    };
                    match eval_binop(op, fv!(a), fv!(b)) {
                        Some(v) => tmps[dst as usize] = v,
                        None => {
                            self.core.metrics.instrs += (instrs - counted) as u64;
                            return Err(VmError { tid, pc, msg: "division by zero".into() });
                        }
                    }
                }
                FOp::Un { dst, op, x } => tmps[dst as usize] = eval_unop(op, fv!(x)),
                FOp::Ite { dst, side } => {
                    let FSide::Ite { c, t, e } = fb.side[side as usize] else {
                        unreachable!("checked side entry")
                    };
                    tmps[dst as usize] = if fv!(c) != 0 { fv!(t) } else { fv!(e) };
                }
                FOp::Put { reg, src } => {
                    let v = fv!(src);
                    self.core.threads[tid].regs[reg as usize] = v;
                }
                FOp::St8 { addr, val, ic } => {
                    let a = fv!(addr);
                    let v = fv!(val);
                    self.core.mem.write_u64_ic(a, v, &fb.ics[ic as usize]);
                    if a < self.code_hi && a.saturating_add(8) > self.code_lo {
                        self.discard_translations(a, a.saturating_add(8));
                    }
                }
                FOp::St1 { addr, val, ic } => {
                    let a = fv!(addr);
                    let v = fv!(val);
                    self.core.mem.write_u8_ic(a, v as u8, &fb.ics[ic as usize]);
                    if a < self.code_hi && a.saturating_add(1) > self.code_lo {
                        self.discard_translations(a, a.saturating_add(1));
                    }
                }
                FOp::Cas { dst, addr, side } => {
                    let FSide::Cas { expected, new } = fb.side[side as usize] else {
                        unreachable!("checked side entry")
                    };
                    let a = fv!(addr);
                    let old = self.core.mem.read_u64(a);
                    if old == fv!(expected) {
                        let n = fv!(new);
                        self.core.mem.write_u64(a, n);
                    }
                    tmps[dst as usize] = old;
                }
                FOp::Amo { dst, addr, val } => {
                    let a = fv!(addr);
                    let old = self.core.mem.read_u64(a);
                    let v = fv!(val);
                    self.core.mem.write_u64(a, old.wrapping_add(v));
                    tmps[dst as usize] = old;
                }
                FOp::Dirty { side } => {
                    let FSide::Dirty(ref d) = fb.side[side as usize] else {
                        unreachable!("checked side entry")
                    };
                    let (call, dst, pc, instrs) = (d.call, d.dst, d.pc, d.instrs);
                    let mut vals = std::mem::take(&mut self.dirty_args);
                    vals.clear();
                    vals.extend(d.args.iter().map(|&a| fv!(a)));
                    self.core.metrics.instrs += (instrs - counted) as u64;
                    counted = instrs;
                    let ret = match call {
                        DirtyCall::Syscall => {
                            let mut a6 = [0u64; 6];
                            a6.copy_from_slice(&vals[1..7]);
                            self.do_syscall(tid, vals[0] as i64, a6, pc)?
                        }
                        DirtyCall::ClientRequest => {
                            let mut a5 = [0u64; 5];
                            a5.copy_from_slice(&vals[1..6]);
                            self.handle_client_request(tid, vals[0], a5)
                        }
                        DirtyCall::ToolMem { write } => {
                            self.tool.mem_access(&mut self.core, tid, vals[0], vals[1], write, pc);
                            0
                        }
                        DirtyCall::ToolHelper { id } => {
                            self.tool.tool_helper(&mut self.core, tid, id, &vals)
                        }
                    };
                    self.dirty_args = vals;
                    if let Some(d) = dst {
                        tmps[d as usize] = ret;
                    }
                }
                FOp::MemCb { side } => {
                    let FSide::MemCb { addr, size, write, pc, instrs } = fb.side[side as usize]
                    else {
                        unreachable!("checked side entry")
                    };
                    let a = fv!(addr);
                    let s = fv!(size);
                    self.core.metrics.instrs += (instrs - counted) as u64;
                    counted = instrs;
                    self.tool.mem_access(&mut self.core, tid, a, s, write, pc);
                }
                FOp::Exit { guard, idx } => {
                    if fv!(guard) != 0 {
                        taken = Some(idx);
                        break 'body;
                    }
                }
                FOp::MovRR { rd, rs } => {
                    let v = self.core.threads[tid].regs[rs as usize];
                    self.core.threads[tid].regs[rd as usize] = v;
                }
                FOp::BinRI { dst, op, rs, c } => {
                    let a = self.core.threads[tid].regs[rs as usize];
                    tmps[dst as usize] =
                        eval_binop(op, a, consts[c as usize]).expect("non-trapping binop trapped");
                }
                FOp::BinRIP { rd, op, rs, c } => {
                    let a = self.core.threads[tid].regs[rs as usize];
                    self.core.threads[tid].regs[rd as usize] =
                        eval_binop(op, a, consts[c as usize]).expect("non-trapping binop trapped");
                }
                FOp::BinTR { dst, op, a, rb } => {
                    let b = self.core.threads[tid].regs[rb as usize];
                    tmps[dst as usize] =
                        eval_binop(op, fv!(a), b).expect("non-trapping binop trapped");
                }
                FOp::BinRR { dst, op, ra, rb } => {
                    let regs = &self.core.threads[tid].regs;
                    let (a, b) = (regs[ra as usize], regs[rb as usize]);
                    tmps[dst as usize] = eval_binop(op, a, b).expect("non-trapping binop trapped");
                }
                FOp::BinRRP { rd, op, ra, rb } => {
                    let regs = &mut self.core.threads[tid].regs;
                    let (a, b) = (regs[ra as usize], regs[rb as usize]);
                    regs[rd as usize] = eval_binop(op, a, b).expect("non-trapping binop trapped");
                }
                FOp::LdRO { dst, rs, c, ic } => {
                    let a =
                        self.core.threads[tid].regs[rs as usize].wrapping_add(consts[c as usize]);
                    tmps[dst as usize] = self.core.mem.read_u64_ic(a, &fb.ics[ic as usize]);
                }
                FOp::LdRP { rd, rs, c, ic } => {
                    let a =
                        self.core.threads[tid].regs[rs as usize].wrapping_add(consts[c as usize]);
                    let v = self.core.mem.read_u64_ic(a, &fb.ics[ic as usize]);
                    self.core.threads[tid].regs[rd as usize] = v;
                }
                FOp::StV { addr, vr, ic } => {
                    let a = fv!(addr);
                    let v = self.core.threads[tid].regs[vr as usize];
                    self.core.mem.write_u64_ic(a, v, &fb.ics[ic as usize]);
                    if a < self.code_hi && a.saturating_add(8) > self.code_lo {
                        self.discard_translations(a, a.saturating_add(8));
                    }
                }
                FOp::StRV { rs, c, val, ic } => {
                    let a =
                        self.core.threads[tid].regs[rs as usize].wrapping_add(consts[c as usize]);
                    let v = fv!(val);
                    self.core.mem.write_u64_ic(a, v, &fb.ics[ic as usize]);
                    if a < self.code_hi && a.saturating_add(8) > self.code_lo {
                        self.discard_translations(a, a.saturating_add(8));
                    }
                }
                FOp::StRR { rs, c, vr, ic } => {
                    let regs = &self.core.threads[tid].regs;
                    let a = regs[rs as usize].wrapping_add(consts[c as usize]);
                    let v = regs[vr as usize];
                    self.core.mem.write_u64_ic(a, v, &fb.ics[ic as usize]);
                    if a < self.code_hi && a.saturating_add(8) > self.code_lo {
                        self.discard_translations(a, a.saturating_add(8));
                    }
                }
                FOp::LdP { rd, addr, ic } => {
                    let a = fv!(addr);
                    let v = self.core.mem.read_u64_ic(a, &fb.ics[ic as usize]);
                    self.core.threads[tid].regs[rd as usize] = v;
                }
            }
        }

        // Determine the transfer and the chainable edge it constitutes:
        // direct (constant-target) transfers chain through the exit's
        // link slot, indirect ones through the IBTC, halts not at all.
        let (next, kind, pending) = match taken {
            Some(idx) => {
                let e = fb.exits[idx as usize];
                self.core.metrics.instrs += (e.instrs - counted) as u64;
                let p = if matches!(e.kind, JumpKind::Halt) {
                    Pending::None
                } else {
                    Pending::Link { from: cur, exit: idx as u32 }
                };
                (e.target, e.kind, p)
            }
            None => {
                self.core.metrics.instrs += (fb.instrs_total - counted) as u64;
                let k = fb.jumpkind;
                let p = if matches!(k, JumpKind::Halt) {
                    Pending::None
                } else if fb.next_is_const() {
                    Pending::Link { from: cur, exit: fb.exits.len() as u32 }
                } else {
                    Pending::Ibtc { site: fb.base }
                };
                (fv!(fb.next), k, p)
            }
        };
        self.finish_jump(tid, next, kind);
        self.tmp_buf = tmps;
        Ok(pending)
    }

    /// Execute one instrumented superblock by walking its IR statement
    /// list — the reference engine's executor.
    fn exec_block(&mut self, tid: Tid, block: &Arc<IrBlock>) -> Result<(), VmError> {
        let pc = block.base;
        self.core.metrics.blocks += 1;
        if let Some(p) = self.profiler.as_mut() {
            p.note(block.base, block.stmts.len() as u64);
        }
        let mut tmps = std::mem::take(&mut self.tmp_buf);
        tmps.clear();
        tmps.resize(block.n_temps as usize, 0);

        let err = |tid: Tid, pc: u64, msg: String| VmError { tid, pc, msg };
        let mut last_pc = pc;
        let mut taken_exit: Option<(u64, JumpKind)> = None;

        macro_rules! ev {
            ($a:expr) => {
                match $a {
                    Atom::Const(c) => *c,
                    Atom::Tmp(t) => tmps[t.0 as usize],
                }
            };
        }

        for stmt in &block.stmts {
            match stmt {
                Stmt::IMark { addr, .. } => {
                    last_pc = *addr;
                    self.core.metrics.instrs += 1;
                }
                Stmt::WrTmp { dst, rhs } => {
                    let v = match rhs {
                        Rhs::Atom(a) => ev!(a),
                        Rhs::Get { reg } => self.core.threads[tid].regs[*reg as usize],
                        Rhs::Load { ty, addr } => {
                            let a = ev!(addr);
                            match ty {
                                Ty::I8 => self.core.mem.read_u8(a) as u64,
                                _ => self.core.mem.read_u64(a),
                            }
                        }
                        Rhs::Binop { op, lhs, rhs } => {
                            let (a, b) = (ev!(lhs), ev!(rhs));
                            eval_binop(*op, a, b)
                                .ok_or_else(|| err(tid, last_pc, "division by zero".into()))?
                        }
                        Rhs::Unop { op, x } => eval_unop(*op, ev!(x)),
                        Rhs::Ite { cond, then, els } => {
                            if ev!(cond) != 0 {
                                ev!(then)
                            } else {
                                ev!(els)
                            }
                        }
                    };
                    tmps[dst.0 as usize] = v;
                }
                Stmt::Put { reg: r, src } => {
                    let v = ev!(src);
                    self.core.threads[tid].regs[*r as usize] = v;
                }
                Stmt::Store { ty, addr, val } => {
                    let a = ev!(addr);
                    let v = ev!(val);
                    let len = match ty {
                        Ty::I8 => {
                            self.core.mem.write_u8(a, v as u8);
                            1
                        }
                        _ => {
                            self.core.mem.write_u64(a, v);
                            8
                        }
                    };
                    // Self-modifying code: a store into the code image
                    // invalidates any translation it overlaps.
                    if a < self.code_hi && a.saturating_add(len) > self.code_lo {
                        self.discard_translations(a, a.saturating_add(len));
                    }
                }
                Stmt::Cas { dst, addr, expected, new } => {
                    let a = ev!(addr);
                    let old = self.core.mem.read_u64(a);
                    if old == ev!(expected) {
                        let n = ev!(new);
                        self.core.mem.write_u64(a, n);
                    }
                    tmps[dst.0 as usize] = old;
                }
                Stmt::AtomicAdd { dst, addr, val } => {
                    let a = ev!(addr);
                    let old = self.core.mem.read_u64(a);
                    let v = ev!(val);
                    self.core.mem.write_u64(a, old.wrapping_add(v));
                    tmps[dst.0 as usize] = old;
                }
                Stmt::Dirty { call, args, dst } => {
                    let vals: Vec<u64> = args.iter().map(|a| ev!(a)).collect();
                    let ret = match call {
                        DirtyCall::Syscall => {
                            let mut a6 = [0u64; 6];
                            a6.copy_from_slice(&vals[1..7]);
                            self.do_syscall(tid, vals[0] as i64, a6, last_pc)?
                        }
                        DirtyCall::ClientRequest => {
                            let mut a5 = [0u64; 5];
                            a5.copy_from_slice(&vals[1..6]);
                            self.handle_client_request(tid, vals[0], a5)
                        }
                        DirtyCall::ToolMem { write } => {
                            self.tool.mem_access(
                                &mut self.core,
                                tid,
                                vals[0],
                                vals[1],
                                *write,
                                last_pc,
                            );
                            0
                        }
                        DirtyCall::ToolHelper { id } => {
                            self.tool.tool_helper(&mut self.core, tid, *id, &vals)
                        }
                    };
                    if let Some(d) = dst {
                        tmps[d.0 as usize] = ret;
                    }
                }
                Stmt::Exit { guard, target, kind } => {
                    if ev!(guard) != 0 {
                        taken_exit = Some((*target, *kind));
                        break;
                    }
                }
            }
        }

        let (next, kind) = match taken_exit {
            Some((t, k)) => (t, k),
            None => (ev!(&block.next), block.jumpkind),
        };
        self.finish_jump(tid, next, kind);
        self.tmp_buf = tmps;
        Ok(())
    }

    fn finish_jump(&mut self, tid: Tid, next: u64, kind: JumpKind) {
        match kind {
            JumpKind::Halt => {
                self.thread_exit(tid);
            }
            JumpKind::Call { return_addr } => {
                let t = &mut self.core.threads[tid];
                t.pc = next;
                if t.shadow_stack.len() < (1 << 20) {
                    t.shadow_stack.push(return_addr);
                }
            }
            JumpKind::Ret => {
                let t = &mut self.core.threads[tid];
                t.pc = next;
                t.shadow_stack.pop();
            }
            JumpKind::Boring => {
                self.core.threads[tid].pc = next;
            }
        }
    }

    /// The cold tier: run the superblock at the thread's pc in the
    /// instruction interpreter. It stops where [`lift_superblock`] would,
    /// after a block-ending instruction or [`MAX_BLOCK_INSTS`]
    /// instructions, and counts one block, so slices, schedules and
    /// counters are those of the translated block. The tool declined the
    /// block, so its translation would make no tool callback either.
    ///
    /// Never inlined: its copy of `exec_inst` stays out of [`Vm::run`],
    /// into which the Fast-mode loop is inlined, so `none` runs compile
    /// as they did before the cold tier.
    #[inline(never)]
    fn exec_cold(&mut self, tid: Tid) -> Result<(), VmError> {
        self.core.metrics.blocks += 1;
        self.core.metrics.dispatch.cold_blocks += 1;
        let base = self.core.threads[tid].pc;
        let mut n = 0;
        while n < MAX_BLOCK_INSTS {
            // `lookup_or_translate` checked that the whole block decodes.
            let pc = self.core.threads[tid].pc;
            let ends = self.core.module.fetch(pc).is_some_and(|i| i.op.ends_block());
            n += 1;
            self.exec_inst::<true>(tid)?;
            if ends {
                break;
            }
        }
        if let Some(p) = self.profiler.as_mut() {
            p.note(base, n as u64);
        }
        Ok(())
    }

    /// Execute one instruction directly: Fast mode (`COLD` false) and
    /// the cold tier (`COLD` true). Two copies, so the Fast-mode loop
    /// compiles as it does with one caller. The cold tier also does what
    /// the translated path does and Fast mode does not: a store into the
    /// code discards the translations it overlaps, and a thread that
    /// exits in a `sys` still moves its pc past it.
    fn exec_inst<const COLD: bool>(&mut self, tid: Tid) -> Result<(), VmError> {
        let pc = self.core.threads[tid].pc;
        let inst = self.core.module.fetch(pc).ok_or_else(|| VmError {
            tid,
            pc,
            msg: "not a code address".into(),
        })?;
        self.core.metrics.instrs += 1;
        let next_pc = pc + INST_SIZE;

        let rs1 = self.core.threads[tid].reg(inst.rs1);
        let rs2 = self.core.threads[tid].reg(inst.rs2);
        let rd_in = self.core.threads[tid].reg(inst.rd);
        let imm = inst.imm;
        let wr = |core: &mut VmCore, r: u8, v: u64| {
            if r != reg::ZERO {
                core.threads[tid].regs[r as usize] = v;
            }
        };

        use Op::*;
        let simple_bin = |op: vex_ir::BinOp| eval_binop(op, rs1, rs2);
        let imm_bin = |op: vex_ir::BinOp| eval_binop(op, rs1, imm as u64);
        let div0 = || VmError { tid, pc, msg: "division by zero".into() };

        let mut new_pc = next_pc;
        match inst.op {
            Add => wr(&mut self.core, inst.rd, simple_bin(vex_ir::BinOp::Add).unwrap()),
            Sub => wr(&mut self.core, inst.rd, simple_bin(vex_ir::BinOp::Sub).unwrap()),
            Mul => wr(&mut self.core, inst.rd, simple_bin(vex_ir::BinOp::Mul).unwrap()),
            Div => wr(&mut self.core, inst.rd, simple_bin(vex_ir::BinOp::DivS).ok_or_else(div0)?),
            Rem => wr(&mut self.core, inst.rd, simple_bin(vex_ir::BinOp::RemS).ok_or_else(div0)?),
            And => wr(&mut self.core, inst.rd, simple_bin(vex_ir::BinOp::And).unwrap()),
            Or => wr(&mut self.core, inst.rd, simple_bin(vex_ir::BinOp::Or).unwrap()),
            Xor => wr(&mut self.core, inst.rd, simple_bin(vex_ir::BinOp::Xor).unwrap()),
            Sll => wr(&mut self.core, inst.rd, simple_bin(vex_ir::BinOp::Shl).unwrap()),
            Srl => wr(&mut self.core, inst.rd, simple_bin(vex_ir::BinOp::ShrU).unwrap()),
            Sra => wr(&mut self.core, inst.rd, simple_bin(vex_ir::BinOp::ShrS).unwrap()),
            Slt => wr(&mut self.core, inst.rd, simple_bin(vex_ir::BinOp::CmpLtS).unwrap()),
            Sltu => wr(&mut self.core, inst.rd, simple_bin(vex_ir::BinOp::CmpLtU).unwrap()),
            Seq => wr(&mut self.core, inst.rd, simple_bin(vex_ir::BinOp::CmpEq).unwrap()),
            Sne => wr(&mut self.core, inst.rd, simple_bin(vex_ir::BinOp::CmpNe).unwrap()),
            Sle => wr(&mut self.core, inst.rd, simple_bin(vex_ir::BinOp::CmpLeS).unwrap()),
            Fadd => wr(&mut self.core, inst.rd, simple_bin(vex_ir::BinOp::FAdd).unwrap()),
            Fsub => wr(&mut self.core, inst.rd, simple_bin(vex_ir::BinOp::FSub).unwrap()),
            Fmul => wr(&mut self.core, inst.rd, simple_bin(vex_ir::BinOp::FMul).unwrap()),
            Fdiv => wr(&mut self.core, inst.rd, simple_bin(vex_ir::BinOp::FDiv).unwrap()),
            Feq => wr(&mut self.core, inst.rd, simple_bin(vex_ir::BinOp::FCmpEq).unwrap()),
            Flt => wr(&mut self.core, inst.rd, simple_bin(vex_ir::BinOp::FCmpLt).unwrap()),
            Fle => wr(&mut self.core, inst.rd, simple_bin(vex_ir::BinOp::FCmpLe).unwrap()),
            Addi => wr(&mut self.core, inst.rd, imm_bin(vex_ir::BinOp::Add).unwrap()),
            Andi => wr(&mut self.core, inst.rd, imm_bin(vex_ir::BinOp::And).unwrap()),
            Ori => wr(&mut self.core, inst.rd, imm_bin(vex_ir::BinOp::Or).unwrap()),
            Xori => wr(&mut self.core, inst.rd, imm_bin(vex_ir::BinOp::Xor).unwrap()),
            Slli => wr(&mut self.core, inst.rd, imm_bin(vex_ir::BinOp::Shl).unwrap()),
            Srli => wr(&mut self.core, inst.rd, imm_bin(vex_ir::BinOp::ShrU).unwrap()),
            Srai => wr(&mut self.core, inst.rd, imm_bin(vex_ir::BinOp::ShrS).unwrap()),
            Slti => wr(&mut self.core, inst.rd, imm_bin(vex_ir::BinOp::CmpLtS).unwrap()),
            Li => wr(&mut self.core, inst.rd, imm as u64),
            Fsqrt => wr(&mut self.core, inst.rd, eval_unop(vex_ir::UnOp::FSqrt, rs1)),
            Fneg => wr(&mut self.core, inst.rd, eval_unop(vex_ir::UnOp::FNeg, rs1)),
            Fabs => wr(&mut self.core, inst.rd, eval_unop(vex_ir::UnOp::FAbs, rs1)),
            Fcvtif => wr(&mut self.core, inst.rd, eval_unop(vex_ir::UnOp::I2F, rs1)),
            Fcvtfi => wr(&mut self.core, inst.rd, eval_unop(vex_ir::UnOp::F2I, rs1)),
            Ld => {
                let v = self.core.mem.read_u64(rs1.wrapping_add(imm as u64));
                wr(&mut self.core, inst.rd, v);
            }
            Lb => {
                let v = self.core.mem.read_u8(rs1.wrapping_add(imm as u64)) as u64;
                wr(&mut self.core, inst.rd, v);
            }
            St => {
                let a = rs1.wrapping_add(imm as u64);
                self.core.mem.write_u64(a, rs2);
                if COLD && a < self.code_hi && a.saturating_add(8) > self.code_lo {
                    self.discard_translations(a, a.saturating_add(8));
                }
            }
            Sb => {
                let a = rs1.wrapping_add(imm as u64);
                self.core.mem.write_u8(a, rs2 as u8);
                if COLD && a < self.code_hi && a.saturating_add(1) > self.code_lo {
                    self.discard_translations(a, a.saturating_add(1));
                }
            }
            Jal => {
                wr(&mut self.core, inst.rd, next_pc);
                new_pc = imm as u64;
                if inst.rd == reg::RA {
                    let t = &mut self.core.threads[tid];
                    if t.shadow_stack.len() < (1 << 20) {
                        t.shadow_stack.push(next_pc);
                    }
                }
            }
            Jalr => {
                wr(&mut self.core, inst.rd, next_pc);
                new_pc = rs1.wrapping_add(imm as u64);
                let t = &mut self.core.threads[tid];
                if inst.rd == reg::RA {
                    if t.shadow_stack.len() < (1 << 20) {
                        t.shadow_stack.push(next_pc);
                    }
                } else if inst.rs1 == reg::RA && inst.rd == reg::ZERO {
                    t.shadow_stack.pop();
                }
            }
            Beq => {
                if rs1 == rs2 {
                    new_pc = imm as u64;
                }
            }
            Bne => {
                if rs1 != rs2 {
                    new_pc = imm as u64;
                }
            }
            Blt => {
                if (rs1 as i64) < (rs2 as i64) {
                    new_pc = imm as u64;
                }
            }
            Bge => {
                if (rs1 as i64) >= (rs2 as i64) {
                    new_pc = imm as u64;
                }
            }
            Bltu => {
                if rs1 < rs2 {
                    new_pc = imm as u64;
                }
            }
            Cas => {
                let old = self.core.mem.read_u64(rs1);
                if old == rd_in {
                    self.core.mem.write_u64(rs1, rs2);
                }
                wr(&mut self.core, inst.rd, old);
            }
            Amoadd => {
                let old = self.core.mem.read_u64(rs1);
                self.core.mem.write_u64(rs1, old.wrapping_add(rs2));
                wr(&mut self.core, inst.rd, old);
            }
            Sys => {
                let t = &self.core.threads[tid];
                let mut a6 = [0u64; 6];
                for (i, a) in a6.iter_mut().enumerate() {
                    *a = t.regs[reg::A0 as usize + i];
                }
                let ret = self.do_syscall(tid, imm, a6, pc)?;
                wr(&mut self.core, inst.rd, ret);
            }
            Clreq => {
                let t = &self.core.threads[tid];
                let code = t.reg(reg::A0);
                let mut a5 = [0u64; 5];
                for (i, a) in a5.iter_mut().enumerate() {
                    *a = t.regs[reg::A1 as usize + i];
                }
                let ret = self.handle_client_request(tid, code, a5);
                wr(&mut self.core, inst.rd, ret);
            }
            Halt => {
                self.thread_exit(tid);
                return Ok(());
            }
            Nop => {}
        }
        if COLD || self.core.threads[tid].status != ThreadStatus::Exited {
            self.core.threads[tid].pc = new_pc;
        }
        Ok(())
    }

    fn do_syscall(&mut self, tid: Tid, num: i64, args: [u64; 6], pc: u64) -> Result<u64, VmError> {
        self.core.metrics.syscalls += 1;
        match num {
            syscalls::EXIT => {
                self.core.exit_code = Some(args[0] as i64);
                Ok(0)
            }
            syscalls::WRITE => {
                let (fd, buf, len) = (args[0], args[1], args[2]);
                if fd == 1 || fd == 2 {
                    // The buffer is host-allocated at the guest's length,
                    // so a length no guest buffer can have is a fault,
                    // not an allocation that aborts the host.
                    let owned = self.core.owned_bytes();
                    if len > owned {
                        let msg =
                            format!("write of {len} bytes exceeds the {owned} the guest owns");
                        return Err(VmError { tid, pc, msg });
                    }
                    let mut bytes = vec![0u8; len as usize];
                    self.core.mem.read(buf, &mut bytes);
                    self.core.stdout.extend_from_slice(&bytes);
                    Ok(len)
                } else {
                    Ok(0)
                }
            }
            syscalls::SBRK => Ok(self.core.sbrk(args[0])),
            syscalls::THREAD_CREATE => {
                let child = self.core.spawn_thread(args[0], args[1]);
                self.tool.thread_created(&mut self.core, tid, child);
                Ok(child as u64)
            }
            syscalls::THREAD_EXIT => {
                self.thread_exit(tid);
                Ok(0)
            }
            syscalls::THREAD_JOIN => {
                let target = args[0] as usize;
                if target >= self.core.threads.len() {
                    return Err(VmError { tid, pc, msg: format!("join of bad tid {target}") });
                }
                if self.core.threads[target].status != ThreadStatus::Exited {
                    self.core.threads[tid].status = ThreadStatus::Joining(target);
                }
                Ok(0)
            }
            syscalls::FUTEX_WAIT => {
                let (addr, expected) = (args[0], args[1]);
                if self.core.mem.read_u64(addr) == expected {
                    self.core.threads[tid].status = ThreadStatus::FutexWait(addr);
                    self.core.futex.entry(addr).or_default().push_back(tid);
                    Ok(0)
                } else {
                    Ok(1)
                }
            }
            syscalls::FUTEX_WAKE => {
                let (addr, count) = (args[0], args[1]);
                let mut woken = 0u64;
                if let Some(q) = self.core.futex.get_mut(&addr) {
                    while woken < count {
                        let Some(w) = q.pop_front() else { break };
                        if self.core.threads[w].status == ThreadStatus::FutexWait(addr) {
                            self.core.threads[w].status = ThreadStatus::Runnable;
                            woken += 1;
                        }
                    }
                }
                Ok(woken)
            }
            syscalls::YIELD => {
                self.yield_requested = true;
                Ok(0)
            }
            syscalls::CLOCK => Ok(self.core.metrics.instrs),
            syscalls::RAND => Ok(self.core.guest_rand()),
            syscalls::NTHREADS => Ok(self.core.config.nthreads),
            n => Err(VmError { tid, pc, msg: format!("unknown syscall {n}") }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tool::{CountTool, NulTool};
    use tga::asm::assemble;
    use tga::module::{Module, Symbol, CODE_BASE};

    fn build(src: &str) -> Module {
        let (code, labels) = assemble(src, CODE_BASE).unwrap();
        let mut m = Module::new();
        let code_len = code.len() as u64 * INST_SIZE;
        m.code = code;
        m.data_base = (CODE_BASE + code_len + 0xfff) & !0xfff;
        m.entry = labels.get("_start").copied().unwrap_or(CODE_BASE);
        for (name, addr) in &labels {
            m.symbols.push(Symbol {
                name: name.clone(),
                addr: *addr,
                size: code_len - (addr - CODE_BASE),
                kind: SymKind::Func,
            });
        }
        m.finalize();
        m
    }

    fn run_both(src: &str, args: &[&str]) -> (RunResult, RunResult) {
        let m = build(src);
        let fast =
            Vm::new(m.clone(), Box::new(NulTool), VmConfig::default()).run(ExecMode::Fast, args);
        let dbi = Vm::new(m, Box::new(NulTool), VmConfig::default()).run(ExecMode::Dbi, args);
        (fast, dbi)
    }

    const HELLO: &str = "
        _start:
            li  a0, 1        ; fd
            li  a1, 0x600000000000
            ld  a1, 0(a1)    ; argv[0] -> 'guest'
            li  a2, 5
            sys zero, 1      ; write
            li  a0, 7
            sys zero, 0      ; exit(7)
            halt
    ";

    #[test]
    fn hello_world_fast_and_dbi_agree() {
        let (fast, dbi) = run_both(HELLO, &[]);
        assert_eq!(fast.exit_code, Some(7));
        assert_eq!(dbi.exit_code, Some(7));
        assert_eq!(fast.stdout_str(), "guest");
        assert_eq!(dbi.stdout_str(), "guest");
        assert!(fast.ok() && dbi.ok());
        assert_eq!(fast.metrics.instrs, dbi.metrics.instrs);
    }

    #[test]
    fn oversized_write_is_a_guest_fault_in_both_modes() {
        // write(1, argv, 2^62): allocating the length would abort the
        // host, so both modes must stop the guest with a VmError.
        let src = "
            _start:
                li  a0, 1
                li  a1, 0x600000000000
                li  a2, 0x4000000000000000
                sys zero, 1
                li  a0, 7
                sys zero, 0
                halt
        ";
        let (fast, dbi) = run_both(src, &[]);
        for r in [&fast, &dbi] {
            let e = r.error.as_ref().expect("an oversized write faults");
            assert!(e.msg.contains("exceeds"), "{}", e.msg);
            assert_eq!(r.exit_code, None);
            assert!(r.stdout.is_empty());
        }
        // A write the guest can own still goes through: 4 KiB from the
        // argv page, which reads as zeros past the strings.
        let (fast, dbi) = run_both(&src.replace("0x4000000000000000", "4096"), &[]);
        for r in [&fast, &dbi] {
            assert!(r.ok(), "{:?}", r.error);
            assert_eq!((r.exit_code, r.stdout.len()), (Some(7), 4096));
        }
    }

    #[test]
    fn loop_computation_matches_between_modes() {
        // sum 1..=100 into a0, exit with it (mod 256 semantics irrelevant here)
        let src = "
            _start:
                li t0, 0      ; i
                li t1, 0      ; sum
            loop:
                addi t0, t0, 1
                add  t1, t1, t0
                li   t2, 100
                blt  t0, t2, loop
                add  a0, t1, zero
                sys  zero, 0
                halt
        ";
        let (fast, dbi) = run_both(src, &[]);
        assert_eq!(fast.exit_code, Some(5050));
        assert_eq!(dbi.exit_code, Some(5050));
    }

    #[test]
    fn sbrk_and_memory() {
        let src = "
            _start:
                li  a0, 64
                sys t0, 2        ; sbrk(64) -> old brk
                li  t1, 123
                st  t1, 0(t0)
                ld  t2, 0(t0)
                add a0, t2, zero
                sys zero, 0
                halt
        ";
        let (fast, dbi) = run_both(src, &[]);
        assert_eq!(fast.exit_code, Some(123));
        assert_eq!(dbi.exit_code, Some(123));
    }

    #[test]
    fn threads_and_join() {
        // Child writes 55 to a fixed heap address; parent joins then reads.
        let src = "
            _start:
                li  a0, 4096
                sys s1, 2         ; s1 = heap block
                li  a0, child
                add a1, s1, zero
                sys s2, 3         ; thread_create(child, s1) -> tid
                add a0, s2, zero
                sys zero, 5       ; join
                ld  a0, 0(s1)
                sys zero, 0
                halt
            child:
                li  t0, 55
                st  t0, 0(a0)
                sys zero, 4       ; thread_exit
                halt
        ";
        let (fast, dbi) = run_both(src, &[]);
        assert_eq!(fast.exit_code, Some(55), "{:?}", fast.error);
        assert_eq!(dbi.exit_code, Some(55), "{:?}", dbi.error);
        assert_eq!(fast.metrics.threads_created, 2);
    }

    #[test]
    fn futex_wait_wake() {
        // Parent waits on a flag; child sets it and wakes.
        let src = "
            _start:
                li  a0, 64
                sys s1, 2
                li  a0, child
                add a1, s1, zero
                sys zero, 3
            wait:
                ld  t0, 0(s1)
                li  t1, 1
                beq t0, t1, done
                add a0, s1, zero
                li  a1, 0
                sys zero, 6      ; futex_wait(s1, 0)
                jal zero, wait
            done:
                li  a0, 99
                sys zero, 0
                halt
            child:
                li  t0, 1
                st  t0, 0(a0)
                li  a1, 10
                sys zero, 7      ; futex_wake(a0, 10)
                sys zero, 4
                halt
        ";
        let (fast, dbi) = run_both(src, &[]);
        assert_eq!(fast.exit_code, Some(99), "{:?}", fast);
        assert_eq!(dbi.exit_code, Some(99), "{:?}", dbi);
    }

    #[test]
    fn deadlock_detected() {
        let src = "
            _start:
                li a0, 0x50000
                li a1, 0
                sys zero, 6      ; futex_wait on a word equal to 0 -> blocks forever
                halt
        ";
        let (fast, dbi) = run_both(src, &[]);
        assert!(fast.deadlock);
        assert!(dbi.deadlock);
    }

    #[test]
    fn division_by_zero_faults() {
        let src = "
            _start:
                li t0, 1
                li t1, 0
                div t2, t0, t1
                halt
        ";
        let (fast, dbi) = run_both(src, &[]);
        assert!(fast.error.as_ref().unwrap().msg.contains("division"));
        assert!(dbi.error.as_ref().unwrap().msg.contains("division"));
    }

    #[test]
    fn count_tool_sees_accesses_only_in_dbi_mode() {
        let src = "
            _start:
                li  a0, 64
                sys t0, 2
                li  t1, 5
                st  t1, 0(t0)
                ld  t2, 0(t0)
                st  t2, 8(t0)
                sys zero, 0
                halt
        ";
        let m = build(src);
        let mut vm = Vm::new(m, Box::new(CountTool::default()), VmConfig::default());
        let res = vm.run(ExecMode::Dbi, &[]);
        assert!(res.ok());
        // Downcast-free check via metrics: translations happened and the
        // program ran; detailed counts verified through a fresh VM below.
        assert!(res.metrics.translations > 0);
    }

    #[test]
    fn atomics_work_in_both_modes() {
        let src = "
            _start:
                li  a0, 64
                sys s1, 2
                li  t0, 0        ; expected
                li  t1, 7        ; new
                add t2, t0, zero
                cas t2, (s1), t1 ; t2 = old(0), mem=7
                ld  t3, 0(s1)
                li  t4, 3
                amoadd t5, (s1), t4   ; t5 = 7, mem = 10
                ld  t6, 0(s1)
                add a0, t6, zero      ; 10
                sys zero, 0
                halt
        ";
        let (fast, dbi) = run_both(src, &[]);
        assert_eq!(fast.exit_code, Some(10));
        assert_eq!(dbi.exit_code, Some(10));
    }

    #[test]
    fn shadow_stack_tracks_calls() {
        let src = "
            _start:
                jal ra, f
                li  a0, 0
                sys zero, 0
                halt
            f:
                addi sp, sp, -16
                st   ra, 0(sp)
                jal  ra, g
                ld   ra, 0(sp)
                addi sp, sp, 16
                jalr zero, ra, 0
            g:
                jalr zero, ra, 0
        ";
        let (fast, dbi) = run_both(src, &[]);
        assert!(fast.ok() && fast.exit_code == Some(0));
        assert!(dbi.ok() && dbi.exit_code == Some(0));
    }

    #[test]
    fn classify_addresses() {
        let m = build(HELLO);
        let mut vm = Vm::new(m, Box::new(NulTool), VmConfig::default());
        let res = vm.run(ExecMode::Fast, &[]);
        assert!(res.ok());
        let core = &vm.core;
        assert_eq!(core.classify_addr(CODE_BASE), AddrClass::Code);
        let sp = STACK_TOP - 8;
        assert_eq!(core.classify_addr(sp), AddrClass::Stack(0));
        let tls = core.threads[0].tls_base;
        assert_eq!(core.classify_addr(tls), AddrClass::Tls(0));
    }

    #[test]
    fn instruction_budget_enforced() {
        let src = "_start: jal zero, _start";
        let m = build(src);
        let cfg = VmConfig { max_instrs: 10_000, ..Default::default() };
        let res = Vm::new(m, Box::new(NulTool), cfg).run(ExecMode::Fast, &[]);
        assert!(res.error.unwrap().msg.contains("budget"));
    }

    /// A loop block that runs 19 times between two blocks that run once.
    const LOOP: &str = "
        _start:
            li  t0, 0
        loop:
            addi t0, t0, 1
            li   t1, 20
            blt  t0, t1, loop
            li   a0, 0
            sys  zero, 0
            halt
    ";

    fn run_dbi(src: &str, tool: Box<dyn Tool>, chaining: bool) -> RunResult {
        let cfg = VmConfig { chaining, ..Default::default() };
        Vm::new(build(src), tool, cfg).run(ExecMode::Dbi, &[])
    }

    #[test]
    fn declined_blocks_run_cold_then_translate_once() {
        let cold = run_dbi(LOOP, Box::new(NulTool), true);
        let reference = run_dbi(LOOP, Box::new(NulTool), false);
        assert!(cold.ok(), "{:?}", cold.error);
        // The two once-run blocks stay cold; the loop body runs cold
        // COLD_RUNS times and is translated on its next run.
        let cold_runs = crate::tcache::COLD_RUNS as u64;
        assert_eq!(cold.metrics.dispatch.cold_blocks, 2 + cold_runs);
        assert_eq!(cold.metrics.translations, 1);
        assert_eq!(reference.metrics.translations, 3, "the reference translates every block");
        assert_eq!(cold.metrics.blocks, 21);
        assert_eq!(cold.metrics.instrs, reference.metrics.instrs);
        assert_eq!(cold.metrics.switches, reference.metrics.switches);
        assert_eq!(cold.metrics.sched_digest, reference.metrics.sched_digest);
    }

    #[test]
    fn instrumented_blocks_translate_on_first_run() {
        let r = run_dbi(LOOP, Box::new(CountTool::default()), true);
        assert!(r.ok(), "{:?}", r.error);
        assert_eq!((r.metrics.translations, r.metrics.dispatch.cold_blocks), (3, 0));
    }

    #[test]
    fn code_stores_discard_only_translated_blocks() {
        // The loop runs hot and translates; the block after it, cold,
        // rewrites a word of the loop and one of `tail`, which has not
        // run yet. `_start`'s block also covers the loop's code, but it
        // ran once, in the cold tier, so there is nothing of it to
        // discard.
        let src = "
            _start:
                li  t0, 0
            loop:
                addi t0, t0, 1
                li   t1, 12
                blt  t0, t1, loop
                li   t2, loop
                ld   t3, 0(t2)
                st   t3, 0(t2)
                li   t2, tail
                ld   t3, 0(t2)
                st   t3, 0(t2)
                jal  zero, tail
            tail:
                li   a0, 3
                sys  zero, 0
                halt
        ";
        let cold = run_dbi(src, Box::new(NulTool), true);
        assert_eq!(cold.exit_code, Some(3), "{:?}", cold.error);
        assert_eq!(cold.metrics.translations, 1, "only the loop ran hot");
        assert_eq!(cold.metrics.dispatch.discarded_blocks, 1, "the loop's translation");
        let translated = run_dbi(src, Box::new(CountTool::default()), true);
        assert_eq!(translated.exit_code, Some(3));
        assert_eq!(translated.metrics.dispatch.discarded_blocks, 2, "`_start`'s block too");
    }

    #[test]
    fn cold_faults_match_the_translated_path() {
        let div = "
            _start:
                li  t0, 1
                li  t1, 0
                div t2, t0, t1
                halt
        ";
        // The block runs off the end of the text section.
        let fall_off = "_start:\n li t0, 1\n li t1, 2";
        let bad_jump = "_start:\n li t0, 0x3\n jalr zero, t0, 0\n halt";
        for src in [div, fall_off, bad_jump] {
            let cold = run_dbi(src, Box::new(NulTool), true);
            let translated = run_dbi(src, Box::new(CountTool::default()), true);
            let reference = run_dbi(src, Box::new(NulTool), false);
            assert!(cold.error.is_some(), "{src}");
            for other in [&translated, &reference] {
                assert_eq!(cold.error, other.error, "{src}");
                assert_eq!(cold.metrics.instrs, other.metrics.instrs, "{src}");
                assert_eq!(cold.metrics.blocks, other.metrics.blocks, "{src}");
            }
        }
    }

    /// Instruments every block but claims to instrument none.
    #[cfg(debug_assertions)]
    struct Liar;

    #[cfg(debug_assertions)]
    impl Tool for Liar {
        fn name(&self) -> &'static str {
            "liar"
        }

        fn instruments(&mut self, _meta: &BlockMeta) -> bool {
            false
        }

        fn instrument(&mut self, block: IrBlock, _meta: &BlockMeta) -> IrBlock {
            crate::tool::instrument_mem_accesses(block)
        }
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "liar declined the block at 0x10000 but rewrote it")]
    fn declining_a_block_and_rewriting_it_is_caught() {
        let m = build("_start:\n ld t0, 0(sp)\n halt");
        let _ = translate(&m, &FuncTable::new(&m), CODE_BASE, &mut Liar, true);
    }

    #[test]
    fn random_scheduler_is_seed_deterministic() {
        let src = "
            _start:
                li a0, child
                li a1, 0
                sys zero, 3
                li a0, child
                li a1, 0
                sys zero, 3
                sys zero, 4
                halt
            child:
                li t0, 100
            spin:
                addi t0, t0, -1
                bne  t0, zero, spin
                sys zero, 4
                halt
        ";
        let m = build(src);
        let run = |seed| {
            let cfg =
                VmConfig { seed, sched: SchedPolicy::Random, quantum: 4, ..Default::default() };
            Vm::new(m.clone(), Box::new(NulTool), cfg).run(ExecMode::Fast, &[]).metrics.switches
        };
        assert_eq!(run(1), run(1), "same seed, same schedule");
    }
}
