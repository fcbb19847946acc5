//! Differential tests for the persistent code cache: a warm run — every
//! block installed from disk instead of compiled — must be invisible in
//! every verdict-bearing output. Candidate list, raw-range and
//! suppression counters, recorded accesses, and rendered report text
//! must be bit-identical to a cache-less reference, on the chained
//! engine and in the chaining-off case (where the cache is deliberately
//! inert: the reference engine executes IR, which the cache does not
//! store).
//!
//! `sites_pruned` / `sites_instrumented` are deliberately NOT compared:
//! they count instrumentation work, and skipping instrumentation is the
//! cache's whole point. `accesses_recorded` IS compared — the cached
//! blocks must fire exactly the callbacks the cold ones did.
//!
//! Also covers self-modifying code: an SMC store must evict the
//! overlapping entry from disk, and the next run must recompile it
//! (observed through the `cache.misses` metric).

use std::cell::RefCell;
use std::fs;
use std::path::{Path, PathBuf};
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering};

use grindcore::{CodeCacheHandle, ExecMode, Vm, VmConfig};
use taskgrind::tool::RecordOptions;
use taskgrind::{check_module, TaskgrindConfig, TaskgrindResult};
use tg_cache::{module_hash, DiskCodeCache};
use tg_drb::corpus::corpus;
use tg_lulesh::harness::LuleshParams;
use tg_lulesh::LULESH_MC;

fn temp_dir(tag: &str) -> PathBuf {
    static N: AtomicU64 = AtomicU64::new(0);
    let d = std::env::temp_dir().join(format!(
        "tg-cache-diff-{}-{}-{}",
        tag,
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = fs::remove_dir_all(&d);
    d
}

/// One run configuration. Every run here shares one translation
/// configuration, so every cache opens under one config fingerprint.
#[derive(Clone, Copy)]
struct Cfg {
    chaining: bool,
    threads: u64,
}

fn open_cache(dir: &Path, m: &tga::module::Module) -> Rc<RefCell<DiskCodeCache>> {
    Rc::new(RefCell::new(DiskCodeCache::open(dir, module_hash(m), 0).expect("cache opens")))
}

fn run(
    m: &tga::module::Module,
    args: &[&str],
    c: Cfg,
    cache: Option<&Rc<RefCell<DiskCodeCache>>>,
) -> TaskgrindResult {
    let cfg = TaskgrindConfig {
        vm: VmConfig { nthreads: c.threads, chaining: c.chaining, ..Default::default() },
        code_cache: cache.map(|rc| CodeCacheHandle::new(rc.clone())),
        ..Default::default()
    };
    let r = check_module(m, args, &cfg);
    if let Some(rc) = cache {
        rc.borrow_mut().flush().expect("cache flushes");
    }
    r
}

/// Everything verdict-bearing must match the reference bit for bit.
fn assert_identical(a: &TaskgrindResult, b: &TaskgrindResult, ctx: &str) {
    assert_eq!(a.analysis.candidates, b.analysis.candidates, "{ctx}: candidates");
    assert_eq!(a.analysis.raw_ranges, b.analysis.raw_ranges, "{ctx}: raw_ranges");
    assert_eq!(a.analysis.suppressed_locks, b.analysis.suppressed_locks, "{ctx}: locks");
    assert_eq!(a.analysis.suppressed_mutex, b.analysis.suppressed_mutex, "{ctx}: mutex");
    assert_eq!(a.analysis.suppressed_tls, b.analysis.suppressed_tls, "{ctx}: tls");
    assert_eq!(a.analysis.suppressed_stack, b.analysis.suppressed_stack, "{ctx}: stack");
    assert_eq!(a.accesses_recorded, b.accesses_recorded, "{ctx}: accesses recorded");
    assert_eq!(a.run.metrics.instrs, b.run.metrics.instrs, "{ctx}: guest instrs");
    assert_eq!(
        a.run.metrics.translation_bytes, b.run.metrics.translation_bytes,
        "{ctx}: translation bytes"
    );
    assert_eq!(a.run.exit_code, b.run.exit_code, "{ctx}: exit code");
    assert_eq!(a.n_reports(), b.n_reports(), "{ctx}: report count");
    assert_eq!(a.render_all(), b.render_all(), "{ctx}: report text");
}

/// The `==` summary keeps its historical 4-line shape without a cache
/// and gains exactly the `== code cache:` line with one.
fn assert_summary_shape(r: &TaskgrindResult, cached: bool, ctx: &str) {
    let mut reg = tg_obs::Registry::new();
    taskgrind::metrics::publish(r, &mut reg);
    let s = taskgrind::metrics::render_summary(&reg);
    let want = if cached { 5 } else { 4 };
    assert_eq!(s.matches("== ").count(), want, "{ctx}: summary line count\n{s}");
    assert_eq!(s.contains("== code cache:"), cached, "{ctx}: cache line presence\n{s}");
}

fn hit_rate(r: &TaskgrindResult) -> f64 {
    let c = r.run.metrics.cache;
    c.hits as f64 / (c.hits + c.misses).max(1) as f64
}

/// Cold-populate then warm-run every Table I program: both cached runs
/// must match the cache-less reference bit for bit, and the warm run
/// must serve ≥90% of its translations from disk.
#[test]
fn warm_runs_preserve_table1_verdicts() {
    let c = Cfg { chaining: true, threads: 2 };
    let mut any_candidates = false;
    for p in corpus() {
        let Ok(m) = guest_rt::build_single(p.name, p.source) else {
            continue; // ncs entries stay ncs either way
        };
        let dir = temp_dir("corpus");
        let reference = run(&m, &[], c, None);
        any_candidates |= !reference.analysis.candidates.is_empty();
        assert_summary_shape(&reference, false, p.name);

        let cache = open_cache(&dir, &m);
        let cold = run(&m, &[], c, Some(&cache));
        let ctx = format!("{} cold", p.name);
        assert_identical(&reference, &cold, &ctx);
        assert_summary_shape(&cold, true, &ctx);
        assert_eq!(cold.run.metrics.cache.hits, 0, "{ctx}: first run finds empty cache");
        assert!(cold.run.metrics.cache.bytes_stored > 0, "{ctx}: cold run populates");

        let cache = open_cache(&dir, &m);
        let warm = run(&m, &[], c, Some(&cache));
        let ctx = format!("{} warm", p.name);
        assert_identical(&reference, &warm, &ctx);
        assert_summary_shape(&warm, true, &ctx);
        assert!(warm.run.metrics.cache.hits > 0, "{ctx}: warm run must hit");
        assert!(
            hit_rate(&warm) >= 0.9,
            "{ctx}: hit rate {:.3} below 0.9 ({:?})",
            hit_rate(&warm),
            warm.run.metrics.cache
        );
        let _ = fs::remove_dir_all(&dir);
    }
    assert!(any_candidates, "the corpus must exercise non-empty candidate sets");
}

/// With chaining off the reference engine executes IR, which the cache
/// does not store: the *block* path must stay completely inert (no
/// hits, no misses) and change nothing. Facts still ride the cache —
/// static analysis is engine-independent.
#[test]
fn cache_is_inert_without_chaining() {
    let p = corpus().into_iter().find(|p| guest_rt::build_single(p.name, p.source).is_ok());
    let p = p.expect("corpus has buildable entries");
    let m = guest_rt::build_single(p.name, p.source).unwrap();
    let dir = temp_dir("nochain");
    let c = Cfg { chaining: false, threads: 2 };

    let reference = run(&m, &[], c, None);
    let cache = open_cache(&dir, &m);
    let cached = run(&m, &[], c, Some(&cache));
    assert_identical(&reference, &cached, "no-chaining cached run");
    let stats = cached.run.metrics.cache;
    assert_eq!((stats.hits, stats.misses, stats.bytes_loaded), (0, 0, 0), "{stats:?}");
    // ... but the statically computed facts are still cached (analysis
    // is engine-independent) and reused by a second no-chaining run
    let cache = open_cache(&dir, &m);
    assert!(cache.borrow().has_facts(), "facts persist even without chaining");
    let warm = run(&m, &[], c, Some(&cache));
    assert_identical(&reference, &warm, "no-chaining facts-warmed run");
    // enabled is still reported — the summary shows an idle cache rather
    // than silently hiding that one was attached
    assert_summary_shape(&cached, true, "no-chaining cached run");
    let _ = fs::remove_dir_all(&dir);
}

/// Mini-LULESH, the paper's macro workload: a second run over the same
/// cache must skip ≥90% of compilations and reproduce the report
/// byte-for-byte (ISSUE 7 acceptance criterion).
#[test]
fn lulesh_warm_run_skips_compilations_and_matches() {
    let m = guest_rt::build_single("lulesh.c", LULESH_MC).expect("compiles");
    let params =
        LuleshParams { s: 4, tel: 2, tnl: 2, iters: 2, progress: false, racy: false, threads: 2 };
    let args: Vec<String> = params.args();
    let args: Vec<&str> = args.iter().map(|s| s.as_str()).collect();
    let c = Cfg { chaining: true, threads: params.threads };
    let dir = temp_dir("lulesh");

    let reference = run(&m, &args, c, None);
    let cache = open_cache(&dir, &m);
    let cold = run(&m, &args, c, Some(&cache));
    assert_identical(&reference, &cold, "lulesh cold");
    let cold_translations = cold.run.metrics.translations;
    assert!(cold_translations > 0);

    let cache = open_cache(&dir, &m);
    let warm = run(&m, &args, c, Some(&cache));
    assert_identical(&reference, &warm, "lulesh warm");
    assert!(
        hit_rate(&warm) >= 0.9,
        "hit rate {:.3} below 0.9 ({:?})",
        hit_rate(&warm),
        warm.run.metrics.cache
    );
    assert!(
        warm.run.metrics.translations * 10 <= cold_translations,
        "warm run must skip >=90% of compilations: {} cold vs {} warm",
        cold_translations,
        warm.run.metrics.translations
    );
    let _ = fs::remove_dir_all(&dir);
}

/// `tgrind warm` (via its library entry point): statically precompiling
/// the CFG must give a first *run* that already hits the cache and
/// reports identically to the cache-less reference.
#[test]
fn static_warm_precompile_feeds_a_first_run() {
    let p = corpus().into_iter().find(|p| guest_rt::build_single(p.name, p.source).is_ok());
    let p = p.expect("corpus has buildable entries");
    let m = guest_rt::build_single(p.name, p.source).unwrap();
    let dir = temp_dir("warmcmd");
    let c = Cfg { chaining: true, threads: 2 };

    let reference = run(&m, &[], c, None);
    {
        let cache = open_cache(&dir, &m);
        // Warm through the compile pool (2 workers): the cached run
        // below then doubles as a parallel-warm differential.
        let stats = tg_engine::Session::new().warm_module_with(
            &m,
            module_hash(&m),
            RecordOptions::default(),
            &mut cache.borrow_mut(),
            2,
        );
        assert!(stats.precompiled > 0, "warm must precompile blocks: {stats:?}");
        assert!(stats.facts_stored, "warm computes and stores the static facts");
        cache.borrow_mut().flush().expect("flush");
    }
    let cache = open_cache(&dir, &m);
    let first = run(&m, &[], c, Some(&cache));
    assert_identical(&reference, &first, "statically warmed first run");
    assert!(
        first.run.metrics.cache.hits > 0,
        "statically warmed run must hit: {:?}",
        first.run.metrics.cache
    );
    let _ = fs::remove_dir_all(&dir);
}

/// Self-modifying code: the SMC store must evict the overlapping disk
/// entry, and the next run recompiles it — observed via `cache.misses`
/// and the entry's absence after the flush.
#[test]
fn smc_invalidates_disk_entries_and_recompiles() {
    // The guest reads its own first instruction word and writes it back
    // unchanged: semantically a no-op, but it dirties the code page.
    let src = r#"
int main(void) {
    long *code = (long *)65536; /* module code base */
    long w = *code;
    *code = w;
    return 7;
}
"#;
    let m = guest_rt::build_single("smc.c", src).expect("compiles");
    assert_eq!(m.code_base, 65536, "test assumes the default code base");
    let dir = temp_dir("smc");
    let key = (module_hash(&m), 0u64);

    let run_vm = |cache: Option<&Rc<RefCell<DiskCodeCache>>>| {
        let mut vm = Vm::new(m.clone(), Box::new(grindcore::tool::NulTool), VmConfig::default());
        if let Some(rc) = cache {
            vm.set_code_cache(CodeCacheHandle::new(rc.clone()));
        }
        let r = vm.run(ExecMode::Dbi, &[]);
        if let Some(rc) = cache {
            rc.borrow_mut().flush().expect("flush");
        }
        r
    };

    let cache = Rc::new(RefCell::new(DiskCodeCache::open(&dir, key.0, key.1).unwrap()));
    let r1 = run_vm(Some(&cache));
    assert!(r1.ok(), "{:?}", r1.error);
    assert_eq!(r1.exit_code, Some(7));
    assert!(r1.metrics.dispatch.discarded_blocks > 0, "SMC store must discard");
    assert!(r1.metrics.cache.invalidations > 0, "SMC must reach the disk cache");
    let stored_after_smc = {
        let c = cache.borrow();
        assert!(!c.contains(m.code_base), "overwritten entry must be evicted from disk");
        c.len()
    };
    drop(cache);

    let cache = Rc::new(RefCell::new(DiskCodeCache::open(&dir, key.0, key.1).unwrap()));
    assert_eq!(cache.borrow().len(), stored_after_smc, "eviction persisted to disk");
    let r2 = run_vm(Some(&cache));
    assert_eq!(r2.exit_code, Some(7));
    assert_eq!(r2.metrics.instrs, r1.metrics.instrs, "SMC run must replay identically");
    // the invalidated block is recompiled: published as cache.misses
    let mut reg = tg_obs::Registry::new();
    r2.metrics.publish(&mut reg);
    assert!(reg.bool("cache.enabled"));
    assert!(reg.u64("cache.misses") > 0, "invalidated entries must recompile");
    assert!(reg.u64("cache.hits") > 0, "surviving entries must still hit");
    let _ = fs::remove_dir_all(&dir);
}
