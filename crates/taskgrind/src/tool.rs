//! The Taskgrind tool plugin: recording phase glue between grindcore
//! and the segment-graph builder (paper Fig. 2).
//!
//! * The lifted superblocks of symbols matching the **ignore-list** are
//!   left uninstrumented (or, with an **instrument-list**, only matching
//!   symbols are instrumented) — §IV-A's mechanism, applied at
//!   translation time so suppressed code costs nothing per execution.
//!   The tool declines those blocks ([`Tool::instruments`]), so most of
//!   them run in grindcore's interpreter and are never translated.
//! * Client requests from the guest runtime drive the [`GraphBuilder`].
//! * `malloc`/`calloc` are replaced with a host-side bump allocator that
//!   never recycles and records each block's allocation site, resolved
//!   once when the block is allocated; `free` becomes a no-op — §IV-B's
//!   mechanism and §III-C's report support, as the paper describes.

use crate::graph::{GraphBuilder, ThreadMeta};
use crate::report::{self, AllocBlock};
use grindcore::creq;
use grindcore::tool::{
    instrument_mem_accesses_filtered, pattern_matches, BlockMeta, FnReplacement, Tool,
};
use grindcore::{Tid, VmCore};
use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;
use tga::module::Module;
use tga_analysis::StaticFacts;
use vex_ir::IrBlock;

const REPL_MALLOC: u32 = 1;
const REPL_CALLOC: u32 = 2;
const REPL_FREE: u32 = 3;
const REPL_FAST_ALLOC: u32 = 4;
const REPL_FAST_FREE: u32 = 5;

/// The default ignore-list: the guest runtime and libc internals
/// (the paper's list "contains symbols prefixed with __kmp").
pub fn default_ignore_list() -> Vec<String> {
    [
        "__kmp*",
        "__libc*",
        "__cilk*",
        "__tsan*",
        "__malloc*",
        "__fmt*",
        "omp_*",
        "_start",
        "malloc",
        "free",
        "calloc",
        "memset",
        "memcpy",
        "strlen",
        "strcmp",
        "atoi",
        "printf",
        "puts",
        "putchar",
        "exit",
        "abort",
        "rand",
        "tg_set_deferrable",
    ]
    .into_iter()
    .map(String::from)
    .collect()
}

/// Recording-phase options.
#[derive(Clone, Debug)]
pub struct RecordOptions {
    /// Symbols whose accesses are never recorded.
    pub ignore_list: Vec<String>,
    /// If non-empty, only these symbols are recorded.
    pub instrument_list: Vec<String>,
    /// Replace malloc/free (recycling suppression, §IV-B). Turning this
    /// off reproduces the naive tool of §IV for the E6 ablation.
    pub replace_allocator: bool,
    /// Also replace the runtime's built-in allocator
    /// (`__kmp_fast_alloc`/`__kmp_fast_free`). The paper's Taskgrind does
    /// NOT support built-in allocators ("kept as future work", §IV-B);
    /// turning this off reproduces that limitation — task capture
    /// payloads recycle and independent tasks alias payload addresses.
    pub replace_runtime_allocator: bool,
    /// Use the static-analysis layer (`tga-analysis`) to prune
    /// instrumentation of accesses proven thread-private or read-only.
    /// `--no-static-filter` on the CLI turns this off.
    pub static_filter: bool,
    /// Unread: a run computes its facts with [`crate::run_facts`].
    /// Kept only because `tgbench` sets this field.
    #[doc(hidden)]
    pub static_concurrency: bool,
    /// Precomputed static facts. When `None` and `static_filter` is on,
    /// [`crate::check_module`] runs the analysis itself.
    pub static_facts: Option<Arc<StaticFacts>>,
    /// Buffer accesses per execution context and bulk-build the interval
    /// trees at segment close instead of one BTreeMap insert per access.
    /// `false` is the per-access reference path the differential tests
    /// compare against.
    pub bulk_ingest: bool,
}

impl RecordOptions {
    /// Does a run with these options record the accesses of function
    /// `name`? With an instrument-list, iff a pattern of it matches;
    /// otherwise iff no ignore-list pattern does. The tool's per-block
    /// decision and the run-path analysis's scope ([`crate::run_facts`])
    /// both ask this, so they cannot disagree.
    pub fn instruments(&self, name: &str) -> bool {
        if !self.instrument_list.is_empty() {
            return self.instrument_list.iter().any(|p| pattern_matches(p, name));
        }
        !self.ignore_list.iter().any(|p| pattern_matches(p, name))
    }
}

impl Default for RecordOptions {
    fn default() -> Self {
        RecordOptions {
            ignore_list: default_ignore_list(),
            instrument_list: Vec::new(),
            replace_allocator: true,
            replace_runtime_allocator: true,
            static_filter: true,
            static_concurrency: true,
            static_facts: None,
            bulk_ingest: true,
        }
    }
}

/// State accumulated during the recording phase.
pub struct Recording {
    pub builder: GraphBuilder,
    pub blocks: Vec<AllocBlock>,
    pub module: Option<Arc<Module>>,
    /// Accesses recorded (after ignore-list filtering).
    pub accesses_recorded: u64,
    /// Superblocks skipped entirely by symbol filtering.
    pub blocks_skipped: u64,
    pub blocks_instrumented: u64,
    /// Access sites (static load/store positions in translated blocks)
    /// whose callbacks the static filter removed.
    pub sites_pruned: u64,
    /// Access sites that did receive a callback.
    pub sites_instrumented: u64,
    /// The module's functions against the ignore list
    /// ([`report::user_funcs`]), built at the first allocation.
    user_funcs: Option<tga::module::FuncTable<bool>>,
    /// [`RecordOptions::instruments`] per function, by symbol index,
    /// decided at the function's first translated block.
    verdicts: Vec<Option<bool>>,
    opts: RecordOptions,
}

impl Recording {
    /// Approximate host bytes held by recording structures.
    pub fn heap_bytes(&self) -> u64 {
        let seg_bytes: u64 = self.builder.segments.iter().map(|s| s.bytes()).sum();
        let block_bytes = (self.blocks.len() * std::mem::size_of::<AllocBlock>()) as u64;
        seg_bytes + self.builder.pending_bytes() + block_bytes
    }
}

/// The Taskgrind grindcore plugin. Cloning shares the underlying state,
/// so a harness keeps one handle while the VM drives the other.
#[derive(Clone)]
pub struct TaskgrindTool {
    state: Rc<RefCell<Recording>>,
}

impl TaskgrindTool {
    pub fn new(opts: RecordOptions) -> TaskgrindTool {
        let mut builder = GraphBuilder::new();
        builder.set_bulk_ingest(opts.bulk_ingest);
        TaskgrindTool {
            state: Rc::new(RefCell::new(Recording {
                builder,
                blocks: Vec::new(),
                module: None,
                accesses_recorded: 0,
                blocks_skipped: 0,
                blocks_instrumented: 0,
                sites_pruned: 0,
                sites_instrumented: 0,
                user_funcs: None,
                verdicts: Vec::new(),
                opts,
            })),
        }
    }

    /// Shared handle to the recording state.
    pub fn state(&self) -> Rc<RefCell<Recording>> {
        self.state.clone()
    }

    /// Does the run record the block `meta` describes? A block outside
    /// every function is recorded (no false negatives); otherwise its
    /// function's verdict, decided once.
    fn should_instrument(&self, meta: &BlockMeta) -> bool {
        let (Some(i), Some(name)) = (meta.fn_index, meta.fn_symbol) else { return true };
        let st = &mut *self.state.borrow_mut();
        let i = i as usize;
        if st.verdicts.len() <= i {
            st.verdicts.resize(i + 1, None);
        }
        *st.verdicts[i].get_or_insert_with(|| st.opts.instruments(name))
    }
}

/// Mirror a parallel-runtime client request onto the tg-obs *guest*
/// track: one Chrome-trace thread per guest thread, carrying spans for
/// parallel regions / implicit tasks / explicit tasks / critical
/// sections and instants for the point events, so a run's task-segment
/// timeline is visually inspectable in Perfetto. Only called when
/// tracing is enabled; purely observational (the graph builder never
/// sees these).
fn trace_guest_creq(tid: Tid, code: u64, args: [u64; 5]) {
    use tg_obs::trace::{self, PID_GUEST};
    let t = tid as u32;
    match code {
        creq::PARALLEL_BEGIN => trace::begin("parallel", PID_GUEST, t),
        creq::PARALLEL_END => trace::end(PID_GUEST, t),
        creq::IMPLICIT_TASK_BEGIN => {
            trace::begin(format!("implicit task r{}", args[0]), PID_GUEST, t)
        }
        creq::IMPLICIT_TASK_END => trace::end(PID_GUEST, t),
        creq::TASK_CREATE => trace::instant("task create", PID_GUEST, t, vec![("fn", args[0])]),
        creq::TASK_SPAWN => trace::instant("task spawn", PID_GUEST, t, vec![("task", args[0])]),
        creq::TASK_BEGIN => trace::begin(format!("task {}", args[0]), PID_GUEST, t),
        creq::TASK_END => trace::end(PID_GUEST, t),
        creq::TASK_FULFILL => trace::instant("task fulfill", PID_GUEST, t, vec![("task", args[0])]),
        creq::TASKWAIT => trace::instant("taskwait", PID_GUEST, t, Vec::new()),
        creq::TASKGROUP_BEGIN => trace::begin("taskgroup", PID_GUEST, t),
        creq::TASKGROUP_END => trace::end(PID_GUEST, t),
        creq::BARRIER => trace::instant("barrier", PID_GUEST, t, vec![("id", args[0])]),
        creq::CRITICAL_ENTER => trace::begin(format!("critical {:#x}", args[0]), PID_GUEST, t),
        creq::CRITICAL_EXIT => trace::end(PID_GUEST, t),
        creq::TASK_DEP => trace::instant("task dep", PID_GUEST, t, vec![("task", args[0])]),
        _ => {}
    }
}

impl Tool for TaskgrindTool {
    fn name(&self) -> &'static str {
        "taskgrind"
    }

    fn instruments(&mut self, meta: &BlockMeta) -> bool {
        self.should_instrument(meta)
    }

    fn instrument(&mut self, block: IrBlock, meta: &BlockMeta) -> IrBlock {
        if self.should_instrument(meta) {
            let mut st = self.state.borrow_mut();
            st.blocks_instrumented += 1;
            let facts = if st.opts.static_filter { st.opts.static_facts.clone() } else { None };
            let (mut pruned, mut kept) = (0u64, 0u64);
            let block = instrument_mem_accesses_filtered(block, &mut |pc, write| {
                let keep = match &facts {
                    Some(f) => !f.is_safe_access(pc, write),
                    None => true,
                };
                if keep {
                    kept += 1;
                } else {
                    pruned += 1;
                }
                keep
            });
            st.sites_pruned += pruned;
            st.sites_instrumented += kept;
            block
        } else {
            self.state.borrow_mut().blocks_skipped += 1;
            block
        }
    }

    fn mem_access(
        &mut self,
        core: &mut VmCore,
        tid: Tid,
        addr: u64,
        size: u64,
        write: bool,
        _pc: u64,
    ) {
        let meta = ThreadMeta::of(core, tid);
        let mut st = self.state.borrow_mut();
        st.accesses_recorded += 1;
        st.builder.record_access(&meta, addr, size, write);
    }

    fn client_request(&mut self, core: &mut VmCore, tid: Tid, code: u64, args: [u64; 5]) -> u64 {
        let meta = ThreadMeta::of(core, tid);
        let mut st = self.state.borrow_mut();
        if st.module.is_none() {
            st.module = Some(core.module.clone());
        }
        let b = &mut st.builder;
        // The VM bumped its global client-request counter before calling
        // us; segments opened while handling this event carry it, which
        // is how the confirm replay locates epochs ([`Segment::open_seq`]).
        b.set_seq(core.metrics.client_requests);
        if tg_obs::trace::enabled() {
            trace_guest_creq(tid, code, args);
        }
        if code == creq::USER_DEFERRABLE {
            b.set_user_deferrable(args[0] != 0);
            return 0;
        }
        b.client_request(&meta, code, args)
    }

    fn replacements(&self) -> Vec<FnReplacement> {
        let st = self.state.borrow();
        let mut out = Vec::new();
        if st.opts.replace_allocator {
            out.push(FnReplacement { pattern: "malloc".into(), id: REPL_MALLOC });
            out.push(FnReplacement { pattern: "calloc".into(), id: REPL_CALLOC });
            out.push(FnReplacement { pattern: "free".into(), id: REPL_FREE });
        }
        if st.opts.replace_runtime_allocator {
            out.push(FnReplacement { pattern: "__kmp_fast_alloc".into(), id: REPL_FAST_ALLOC });
            out.push(FnReplacement { pattern: "__kmp_fast_free".into(), id: REPL_FAST_FREE });
        }
        out
    }

    fn replaced_call(&mut self, core: &mut VmCore, tid: Tid, id: u32, args: [u64; 8]) -> u64 {
        match id {
            REPL_MALLOC | REPL_CALLOC | REPL_FAST_ALLOC => {
                let size = if id == REPL_CALLOC {
                    args[0].wrapping_mul(args[1]).max(1)
                } else {
                    args[0].max(1)
                };
                // Never recycle: fresh addresses for every allocation.
                let base = core.alloc_raw(size);
                let mut st = self.state.borrow_mut();
                let st = &mut *st;
                let user = st.user_funcs.get_or_insert_with(|| {
                    report::user_funcs(core.funcs(), &core.module, &st.opts.ignore_list)
                });
                // Frame 0 is the replaced allocator's own entry; the walk
                // starts at its caller.
                let alloc_pc = report::alloc_site(&core.module, user, core.frames(tid).skip(1));
                st.blocks.push(AllocBlock { base, size, alloc_pc });
                base
            }
            REPL_FREE | REPL_FAST_FREE => 0, // frees are no-ops (paper §IV-B)
            _ => 0,
        }
    }

    fn program_end(&mut self, core: &mut VmCore) {
        let mut st = self.state.borrow_mut();
        if st.module.is_none() {
            st.module = Some(core.module.clone());
        }
    }

    fn tool_bytes(&self) -> u64 {
        self.state.borrow().heap_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ignore_list_defaults_cover_runtime_prefixes() {
        let l = default_ignore_list();
        let hit = |name: &str| l.iter().any(|p| pattern_matches(p, name));
        assert!(hit("__kmp_task_alloc"));
        assert!(hit("__libc_lock"));
        assert!(hit("__cilk_sync"));
        assert!(hit("malloc"));
        assert!(hit("omp_get_thread_num"));
        assert!(!hit("main"));
        assert!(!hit("main._omp_task.1"));
        assert!(!hit("compute_forces"));
    }

    #[test]
    fn instrument_list_overrides_ignore_list() {
        let opts = RecordOptions { instrument_list: vec!["main*".into()], ..Default::default() };
        assert!(opts.instruments("main"));
        assert!(opts.instruments("main._omp_task.2"));
        assert!(!opts.instruments("other_fn"));
        assert!(!opts.instruments("__kmp_barrier"));
    }

    fn meta(fn_index: Option<u32>, fn_symbol: Option<&str>) -> BlockMeta<'_> {
        BlockMeta { base: 0x1_0000, fn_symbol, fn_index }
    }

    #[test]
    fn unknown_symbols_are_instrumented() {
        let tool = TaskgrindTool::new(RecordOptions::default());
        assert!(tool.should_instrument(&meta(None, None)), "no symbol ⇒ instrument");
    }

    /// The verdict is the options' and is decided per function: a later
    /// block of the same function reuses it.
    #[test]
    fn verdicts_follow_the_options_per_function() {
        let tool = TaskgrindTool::new(RecordOptions::default());
        assert!(tool.should_instrument(&meta(Some(3), Some("main"))));
        assert!(!tool.should_instrument(&meta(Some(1), Some("__kmp_barrier"))));
        assert!(tool.should_instrument(&meta(Some(3), Some("main"))));
        assert_eq!(tool.state.borrow().verdicts, [None, Some(false), None, Some(true)]);
    }
}
