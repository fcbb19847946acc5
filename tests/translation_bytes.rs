//! `vm.translation_bytes` is the translation-cache share of Table II's
//! memory column, so it must be what the cache really holds, not a model.
//!
//! A counting global allocator (std only) tracks live heap bytes. The
//! test records every block a mini-LULESH run translates under Taskgrind
//! instrumentation and every block Taskgrind declines, which the cold
//! tier keeps a run counter for. Into a fresh `TransCache` it counts a
//! cold run of each declined block, then translates each translated
//! block again and inserts it, the way the VM does. What the cache then
//! charges (`TransCache::bytes`, its tables at their capacity) must be
//! within 10% of the live bytes those steps added, and must equal the
//! run's own `vm.translation_bytes`. What the inserts return, each entry
//! at its tables' element sizes, must also stay at or below 500 bytes
//! per translation (a block of this run averages about 480), so a change
//! that fattens the flat code or the cache entry fails here.
//!
//! This file holds one test on purpose: a second test running on another
//! thread would allocate inside the measured window.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::RefCell;
use std::rc::Rc;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use grindcore::flat::FlatBlock;
use grindcore::tcache::TransCache;
use grindcore::tool::{BlockMeta, FnReplacement, SyncKind, Tool};
use grindcore::{
    CachedTranslation, CodeCache, CodeCacheHandle, CodeCacheStats, ExecMode, Tid, Vm, VmConfig,
    VmCore,
};
use taskgrind::tool::{RecordOptions, TaskgrindTool};
use tg_lulesh::harness::LuleshParams;
use tg_lulesh::LULESH_MC;
use vex_ir::IrBlock;

/// Live heap bytes, as requested by callers (not rounded up to size
/// classes).
static LIVE: AtomicUsize = AtomicUsize::new(0);

struct Counting;

// SAFETY: every call forwards to `System` unchanged; the counter only
// observes the layouts that pass through.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, l: Layout) -> *mut u8 {
        let p = System.alloc(l);
        if !p.is_null() {
            LIVE.fetch_add(l.size(), Ordering::Relaxed);
        }
        p
    }

    unsafe fn alloc_zeroed(&self, l: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(l);
        if !p.is_null() {
            LIVE.fetch_add(l.size(), Ordering::Relaxed);
        }
        p
    }

    unsafe fn dealloc(&self, p: *mut u8, l: Layout) {
        System.dealloc(p, l);
        LIVE.fetch_sub(l.size(), Ordering::Relaxed);
    }

    unsafe fn realloc(&self, p: *mut u8, l: Layout, new_size: usize) -> *mut u8 {
        let q = System.realloc(p, l, new_size);
        if !q.is_null() {
            LIVE.fetch_add(new_size, Ordering::Relaxed);
            LIVE.fetch_sub(l.size(), Ordering::Relaxed);
        }
        q
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// A code cache that serves nothing and remembers the pc of every block
/// the VM hands it, i.e. every cold translation of the run.
#[derive(Default)]
struct Recorder {
    pcs: Vec<u64>,
}

impl CodeCache for Recorder {
    fn load(&mut self, _pc: u64) -> Option<CachedTranslation> {
        None
    }

    fn store(&mut self, pc: u64, _end: u64, _flat: &FlatBlock) {
        self.pcs.push(pc);
    }

    fn invalidate_range(&mut self, _lo: u64, _hi: u64) {}

    fn stats(&self) -> CodeCacheStats {
        CodeCacheStats::default()
    }
}

/// Taskgrind, noting the base of every block it declines; every other
/// hook forwards.
struct NoteDeclined {
    tool: TaskgrindTool,
    declined: Rc<RefCell<Vec<u64>>>,
}

impl Tool for NoteDeclined {
    fn name(&self) -> &'static str {
        self.tool.name()
    }

    fn instruments(&mut self, meta: &BlockMeta) -> bool {
        let yes = self.tool.instruments(meta);
        if !yes {
            self.declined.borrow_mut().push(meta.base);
        }
        yes
    }

    fn instrument(&mut self, block: IrBlock, meta: &BlockMeta) -> IrBlock {
        self.tool.instrument(block, meta)
    }

    fn mem_access(&mut self, core: &mut VmCore, tid: Tid, a: u64, n: u64, w: bool, pc: u64) {
        self.tool.mem_access(core, tid, a, n, w, pc)
    }

    fn tool_helper(&mut self, core: &mut VmCore, tid: Tid, id: u32, args: &[u64]) -> u64 {
        self.tool.tool_helper(core, tid, id, args)
    }

    fn client_request(&mut self, core: &mut VmCore, tid: Tid, code: u64, args: [u64; 5]) -> u64 {
        self.tool.client_request(core, tid, code, args)
    }

    fn sync_point(&mut self, core: &mut VmCore, tid: Tid, kind: SyncKind, seq: u64) {
        self.tool.sync_point(core, tid, kind, seq)
    }

    fn replacements(&self) -> Vec<FnReplacement> {
        self.tool.replacements()
    }

    fn replaced_call(&mut self, core: &mut VmCore, tid: Tid, id: u32, args: [u64; 8]) -> u64 {
        self.tool.replaced_call(core, tid, id, args)
    }

    fn thread_created(&mut self, core: &mut VmCore, parent: Tid, child: Tid) {
        self.tool.thread_created(core, parent, child)
    }

    fn thread_exited(&mut self, core: &mut VmCore, tid: Tid) {
        self.tool.thread_exited(core, tid)
    }

    fn program_end(&mut self, core: &mut VmCore) {
        self.tool.program_end(core)
    }

    fn tool_bytes(&self) -> u64 {
        self.tool.tool_bytes()
    }
}

#[test]
fn charged_translation_bytes_match_what_the_cache_holds() {
    let m = guest_rt::build_single("lulesh.c", LULESH_MC).expect("mini-LULESH compiles");
    // The Table II configuration: -s 16 -tel 4 -tnl 4 -p -i 4, one thread.
    let args = LuleshParams::default().args();
    let args: Vec<&str> = args.iter().map(String::as_str).collect();
    let facts = tga_analysis::analyze_with(&m, &tga_analysis::AnalyzeOpts::default());
    let record = RecordOptions { static_facts: Some(Arc::new(facts)), ..Default::default() };

    let recorder = Rc::new(RefCell::new(Recorder::default()));
    let declined = Rc::new(RefCell::new(Vec::new()));
    let tool =
        NoteDeclined { tool: TaskgrindTool::new(record.clone()), declined: declined.clone() };
    // What `check_module` runs under its default configuration.
    let mut vm = Vm::new(m.clone(), Box::new(tool), VmConfig::default());
    vm.set_code_cache(CodeCacheHandle::new(recorder.clone()));
    let run = vm.run(ExecMode::Dbi, &args);
    drop(vm);
    assert!(run.ok(), "{:?}", run.error);
    assert_eq!(run.metrics.dispatch.evictions, 0, "the default cache holds the whole run");
    let pcs = std::mem::take(&mut recorder.borrow_mut().pcs);
    assert_eq!(pcs.len() as u64, run.metrics.translations);
    // Debug builds ask again when a declined block translates.
    let mut declined = std::mem::take(&mut *declined.borrow_mut());
    declined.sort_unstable();
    declined.dedup();
    assert!(run.metrics.dispatch.cold_blocks > 0 && !declined.is_empty(), "the cold tier ran");

    let mut cache = TransCache::new(VmConfig::default().cache_blocks);
    let mut tool = TaskgrindTool::new(record);
    let funcs = tga::module::FuncTable::new(&m);
    let before = LIVE.load(Ordering::Relaxed);
    for &pc in &declined {
        assert!(cache.run_cold(pc, || true), "a declined block's first run is cold");
    }
    let mut entries = 0u64;
    for &pc in &pcs {
        let t = grindcore::translate(&m, &funcs, pc, &mut tool, true).expect("recorded pcs lift");
        entries += cache.insert(t.code, t.end).1;
    }
    let charged = cache.bytes();
    let held = (LIVE.load(Ordering::Relaxed) - before) as u64;
    drop(cache);

    eprintln!(
        "{} blocks translated ({entries} bytes in entries), {} declined: \
         {charged} bytes charged, {held} bytes held",
        pcs.len(),
        declined.len()
    );
    assert_eq!(charged, run.metrics.translation_bytes, "the VM charges the same blocks alike");
    assert!(
        entries <= 500 * pcs.len() as u64,
        "{entries} bytes over {} translations is more than 500 bytes each",
        pcs.len()
    );
    assert!(
        charged.abs_diff(held) * 10 <= held,
        "charged {charged} bytes, but the cache holds {held} (more than 10% apart)"
    );
}
