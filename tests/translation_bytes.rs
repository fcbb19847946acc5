//! `vm.translation_bytes` is the translation-cache share of Table II's
//! memory column, so it must be what the cache really holds, not a model.
//!
//! A counting global allocator (std only) tracks live heap bytes. The
//! test records every block a mini-LULESH run translates under Taskgrind
//! instrumentation, translates each again, and inserts it into a fresh
//! `TransCache` the way the VM does. The bytes the inserts charge must be
//! within 10% of the live bytes they added, and must equal the run's own
//! `vm.translation_bytes`. They must also stay at or below 500 bytes per
//! translation (a block of this run averages about 470), so a change
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
use grindcore::{CachedTranslation, CodeCache, CodeCacheHandle, CodeCacheStats, VmConfig};
use taskgrind::tool::{RecordOptions, TaskgrindTool};
use taskgrind::{check_module, TaskgrindConfig};
use tg_lulesh::harness::LuleshParams;
use tg_lulesh::LULESH_MC;

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

#[test]
fn charged_translation_bytes_match_what_the_cache_holds() {
    let m = guest_rt::build_single("lulesh.c", LULESH_MC).expect("mini-LULESH compiles");
    // The Table II configuration: -s 16 -tel 4 -tnl 4 -p -i 4, one thread.
    let args = LuleshParams::default().args();
    let args: Vec<&str> = args.iter().map(String::as_str).collect();
    let facts = tga_analysis::analyze_with(&m, &tga_analysis::AnalyzeOpts::default());
    let record = RecordOptions { static_facts: Some(Arc::new(facts)), ..Default::default() };

    let recorder = Rc::new(RefCell::new(Recorder::default()));
    let cfg = TaskgrindConfig {
        record: record.clone(),
        code_cache: Some(CodeCacheHandle::new(recorder.clone())),
        ..Default::default()
    };
    let run = check_module(&m, &args, &cfg);
    assert!(run.run.ok(), "{:?}", run.run.error);
    assert_eq!(run.run.metrics.dispatch.evictions, 0, "the default cache holds the whole run");
    let pcs = std::mem::take(&mut recorder.borrow_mut().pcs);
    assert_eq!(pcs.len() as u64, run.run.metrics.translations);

    let mut cache = TransCache::new(VmConfig::default().cache_blocks);
    let mut tool = TaskgrindTool::new(record);
    let funcs = tga::module::FuncTable::new(&m);
    let before = LIVE.load(Ordering::Relaxed);
    let mut charged = 0u64;
    for &pc in &pcs {
        let t = grindcore::translate(&m, &funcs, pc, &mut tool, true).expect("recorded pcs lift");
        let (_, bytes, _) = cache.insert(t.code, t.end);
        charged += bytes;
    }
    let held = (LIVE.load(Ordering::Relaxed) - before) as u64;
    drop(cache);

    eprintln!("{} blocks: {charged} bytes charged, {held} bytes held", pcs.len());
    assert_eq!(charged, run.run.metrics.translation_bytes, "the VM charges the same blocks alike");
    assert!(
        charged <= 500 * pcs.len() as u64,
        "{charged} bytes over {} translations is more than 500 bytes each",
        pcs.len()
    );
    assert!(
        charged.abs_diff(held) * 10 <= held,
        "charged {charged} bytes, but the cache holds {held} (more than 10% apart)"
    );
}
