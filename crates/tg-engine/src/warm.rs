//! `tgrind warm`: populate the persistent code cache ahead of time.
//!
//! Recovers the module's CFG statically ([`tga_analysis::cfg::block_starts`]),
//! then runs every block start through [`grindcore::translate`], the
//! translation function the VM calls at run time — lift, tool
//! instrumentation, flat compilation — and stores the result in a
//! [`DiskCodeCache`]. A later `tgrind --code-cache=DIR` run on the same
//! binary and engine configuration then installs these blocks straight
//! into its translation cache instead of recompiling them.
//!
//! Static-facts resolution lives in the session
//! ([`crate::Session::warm_module_with`]), which memoizes one copy per
//! `(module, concurrency)`: warm and runs share the run facts, lint
//! keeps its own — this module only precompiles blocks. `record.static_facts` is expected to
//! be resolved already when the filter is on.
//!
//! The compile loop fans out across a [`grindcore::CompilePool`]: each
//! worker owns a private [`TaskgrindTool`] built *on* the worker thread
//! (the tool is `!Send`) and pushes its `(pc, block)` results into a
//! list this module owns, which is sorted by pc before the blocks are
//! stored so the cache file is byte-identical for any thread count.
//! Stores go into the in-memory container; the caller flushes the file
//! exactly once at the end.
//!
//! Determinism: translation is a pure function of
//! `(module, pc, RecordOptions)`, so a block precompiled here is
//! byte-identical to the one a cold run would produce at the same pc —
//! on any worker thread. Block starts the static CFG cannot see (e.g.
//! superblock continuation pcs after the instruction-count cap) simply
//! stay cold and are compiled — and appended to the cache — on first
//! execution.

use grindcore::flat::FlatBlock;
use grindcore::{BlockCode, CodeCache, CompilePool, Translation};
use std::sync::{Arc, Mutex};
use taskgrind::tool::{RecordOptions, TaskgrindTool};
use tg_cache::DiskCodeCache;
use tga::module::Module;

/// What `warm_module` did, for the one-line CLI summary.
#[derive(Clone, Copy, Debug, Default)]
pub struct WarmStats {
    /// Block starts compiled and stored this invocation.
    pub precompiled: u64,
    /// Block starts already present in the cache (left untouched).
    pub already_cached: u64,
    /// Block starts the lifter rejected (data mistaken for code, etc.).
    pub skipped: u64,
    /// Whether static facts were computed and stored this invocation
    /// (set by [`crate::Session::warm_module_with`]).
    pub facts_stored: bool,
    /// Compile workers used (≥ 1).
    pub threads: usize,
    /// Precompiled blocks per wall-clock second of the compile phase.
    pub blocks_per_sec: f64,
}

/// One precompiled block coming back from a warm worker: its pc, then
/// its end and flat code. `None` body means the lifter rejected the pc.
type WarmDone = (u64, Option<(u64, Arc<FlatBlock>)>);

/// Precompile every statically recoverable block of `module` into
/// `cache`, fanning the per-block pipeline across `threads` workers
/// (0 or 1 = a single worker). `record` must match the options a later
/// run will use — the cache file's config fingerprint (chosen by the
/// caller when opening `cache`) is what keeps mismatched configurations
/// apart on disk.
pub fn warm_module(
    module: &Module,
    record: RecordOptions,
    cache: &mut DiskCodeCache,
    threads: usize,
) -> WarmStats {
    let mut stats = WarmStats::default();
    let mut todo: Vec<u64> = Vec::new();
    for pc in tga_analysis::cfg::block_starts(module) {
        if cache.contains(pc) {
            stats.already_cached += 1;
        } else {
            todo.push(pc);
        }
    }
    stats.threads = threads.max(1);
    if todo.is_empty() {
        return stats;
    }

    let t0 = std::time::Instant::now();
    let module = Arc::new(module.clone());
    let funcs = Arc::new(tga::module::FuncTable::new(&module));
    let done: Arc<Mutex<Vec<WarmDone>>> = Arc::default();
    let out = done.clone();
    let pool: CompilePool<u64> = CompilePool::new(stats.threads, todo.len(), "warm", move |_i| {
        let (module, funcs, out) = (module.clone(), funcs.clone(), out.clone());
        // The tool is `!Send`; the pool's factory runs on the worker
        // thread, so each worker owns a private instance.
        let mut tool = TaskgrindTool::new(record.clone());
        move |pc: u64| {
            let body = match grindcore::translate(&module, &funcs, pc, &mut tool, true) {
                Ok(Translation { code: BlockCode::Flat(flat), end }) => Some((end, flat)),
                _ => None,
            };
            out.lock().expect("no warm worker panics holding the results").push((pc, body));
        }
    });
    // The queue is sized to hold every job, so these sends cannot fail.
    for pc in &todo {
        pool.try_send(*pc).expect("warm queue sized for all jobs");
    }
    drop(pool); // waits for every queued block
    let mut done =
        std::mem::take(&mut *done.lock().expect("no warm worker panics holding the results"));
    // Store in pc order so the cache file is identical for any thread
    // count or completion interleaving.
    done.sort_unstable_by_key(|(pc, _)| *pc);
    for (pc, body) in done {
        match body {
            Some((end, flat)) => {
                cache.store(pc, end, &flat);
                stats.precompiled += 1;
            }
            None => stats.skipped += 1,
        }
    }
    let secs = t0.elapsed().as_secs_f64();
    if secs > 0.0 {
        stats.blocks_per_sec = stats.precompiled as f64 / secs;
    }
    stats
}
