//! Cold-start bench: the per-job layers only a Taskgrind run pays, over
//! the Table I corpus plus the extra corpus (the `corpus_triage` guests
//! of tgbench).
//!
//! * The recording per guest: a Taskgrind VM built and run at 4 threads,
//!   the layer that translates, with the number of superblocks it
//!   translates.
//! * `translate()` per superblock: every block a Taskgrind run of the
//!   guest translates (its pcs are recorded by a code cache that serves
//!   nothing), translated again cold with Taskgrind's filtered
//!   instrumentation, so lifting, instrumentation and the flat compile
//!   are all timed.
//! * `analyze_with(&RUN_ANALYZE_OPTS)` per guest, the whole-module
//!   static analysis a run falls back to and its oracle, with its two
//!   phases split out: CFG recovery and the dataflow pass.
//! * `taskgrind::run_facts` per guest, the static analysis a run
//!   computes: the summary's decode and fingerprint check, then CFG
//!   recovery and the dataflow over the functions the summary does not
//!   cover.
//!
//! Each sample covers every guest once; `TG_BENCH_SAMPLES` sets the
//! count (default 31). The last line printed is a JSON object with the
//! median sample divided per superblock and per guest;
//! `BENCH_coldstart.json` at the workspace root records it for two
//! commits.

use grindcore::flat::FlatBlock;
use grindcore::{CachedTranslation, CodeCache, CodeCacheHandle, CodeCacheStats, ExecMode, Vm};
use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;
use std::time::{Duration, Instant};
use taskgrind::tool::{RecordOptions, TaskgrindTool};
use taskgrind::{check_module, run_facts, TaskgrindConfig, RUN_ANALYZE_OPTS};
use tga::module::{FuncTable, Module};

/// A code cache that serves nothing and records the pc of every block
/// the VM compiles.
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

/// The VM configuration of every recording: the corpus runs at 4 threads.
fn vm_config() -> grindcore::VmConfig {
    grindcore::VmConfig { nthreads: 4, ..Default::default() }
}

/// One corpus guest: its module, run facts, and the pcs a run of it at
/// 4 threads translates.
struct Guest {
    module: Module,
    funcs: FuncTable,
    record: RecordOptions,
    pcs: Vec<u64>,
}

fn guests() -> Vec<Guest> {
    let programs = tg_drb::corpus().into_iter().chain(tg_drb::extra_corpus());
    programs
        .filter_map(|p| guest_rt::build_single(p.name, p.source).ok())
        .map(|module| {
            let facts = run_facts(&module, &RecordOptions::default());
            assert_eq!(facts.scope, tga_analysis::FactsScope::Run, "every corpus guest");
            let record =
                RecordOptions { static_facts: Some(Arc::new(facts)), ..Default::default() };
            let recorder = Rc::new(RefCell::new(Recorder::default()));
            let cfg = TaskgrindConfig {
                vm: vm_config(),
                record: record.clone(),
                code_cache: Some(CodeCacheHandle::new(recorder.clone())),
                ..Default::default()
            };
            let run = check_module(&module, &[], &cfg);
            assert!(run.run.error.is_none(), "{:?}", run.run.error);
            let pcs = std::mem::take(&mut recorder.borrow_mut().pcs);
            Guest { funcs: FuncTable::new(&module), module, record, pcs }
        })
        .collect()
}

/// Median of `samples` runs of `f` (after one warm-up run).
fn median_of(samples: usize, mut f: impl FnMut()) -> Duration {
    f();
    let mut t: Vec<Duration> = (0..samples)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed()
        })
        .collect();
    t.sort_unstable();
    t[t.len() / 2]
}

/// Record every guest under Taskgrind; returns the translations made.
fn record_all(guests: &[Guest]) -> u64 {
    let mut translations = 0;
    for g in guests {
        let tool = TaskgrindTool::new(g.record.clone());
        let run = Vm::new(g.module.clone(), Box::new(tool), vm_config()).run(ExecMode::Dbi, &[]);
        assert!(run.error.is_none(), "{:?}", run.error);
        translations += std::hint::black_box(run).metrics.translations;
    }
    translations
}

fn translate_all(guests: &[Guest]) -> usize {
    let mut n = 0;
    for g in guests {
        let mut tool = TaskgrindTool::new(g.record.clone());
        for &pc in &g.pcs {
            let t = grindcore::translate(&g.module, &g.funcs, pc, &mut tool, true);
            n += std::hint::black_box(t).is_ok() as usize;
        }
    }
    n
}

fn analyze_all(guests: &[Guest]) -> usize {
    guests
        .iter()
        .map(|g| tga_analysis::analyze_with(&g.module, &RUN_ANALYZE_OPTS).safe_pcs.len())
        .sum()
}

fn run_facts_all(guests: &[Guest]) -> usize {
    let record = RecordOptions::default();
    guests.iter().map(|g| run_facts(&g.module, &record).safe_pcs.len()).sum()
}

fn recover_all(guests: &[Guest]) -> usize {
    guests.iter().map(|g| tga_analysis::cfg::recover(&g.module).stats.blocks).sum()
}

fn dataflow_all(guests: &[Guest], cfgs: &[tga_analysis::cfg::Cfg]) -> usize {
    guests
        .iter()
        .zip(cfgs)
        .map(|(g, cfg)| tga_analysis::dataflow::run(&g.module, cfg).access_pcs)
        .sum()
}

fn main() {
    let guests = guests();
    let blocks: usize = guests.iter().map(|g| g.pcs.len()).sum();
    let cfgs: Vec<_> = guests.iter().map(|g| tga_analysis::cfg::recover(&g.module)).collect();
    assert_eq!(translate_all(&guests), blocks, "every recorded pc translates again");
    assert_eq!(record_all(&guests), blocks as u64, "a recording translates what a run does");
    let n = guests.len();
    println!("{n} corpus guests, {blocks} superblocks translated by their runs");

    let samples = std::env::var("TG_BENCH_SAMPLES").ok().and_then(|v| v.parse().ok()).unwrap_or(31);
    let record = median_of(samples, || {
        record_all(&guests);
    });
    let translate = median_of(samples, || {
        translate_all(&guests);
    });
    let analyze = median_of(samples, || {
        analyze_all(&guests);
    });
    let run = median_of(samples, || {
        run_facts_all(&guests);
    });
    let recover = median_of(samples, || {
        recover_all(&guests);
    });
    let dataflow = median_of(samples, || {
        dataflow_all(&guests, &cfgs);
    });
    let per = |d: Duration, units: usize, scale: f64| d.as_secs_f64() * scale / units as f64;
    println!("coldstart/record        {:>8.4} ms per guest", per(record, n, 1e3));
    println!("coldstart/translations  {:>8.1} per guest", blocks as f64 / n as f64);
    println!("coldstart/translate     {:>8.3} µs per superblock", per(translate, blocks, 1e6));
    println!("coldstart/analyze_with  {:>8.4} ms per guest", per(analyze, n, 1e3));
    println!("coldstart/run_facts     {:>8.4} ms per guest", per(run, n, 1e3));
    println!("coldstart/cfg_recover   {:>8.4} ms per guest", per(recover, n, 1e3));
    println!("coldstart/dataflow      {:>8.4} ms per guest", per(dataflow, n, 1e3));
    println!(
        "{{\"guests\":{n},\"superblocks\":{blocks},\"samples\":{samples},\
         \"record_ms_per_guest\":{:.4},\"translations_per_guest\":{:.1},\
         \"translate_us_per_superblock\":{:.3},\"analyze_with_ms_per_guest\":{:.4},\
         \"run_facts_ms_per_guest\":{:.4},\
         \"cfg_recover_ms_per_guest\":{:.4},\"dataflow_ms_per_guest\":{:.4}}}",
        per(record, n, 1e3),
        blocks as f64 / n as f64,
        per(translate, blocks, 1e6),
        per(analyze, n, 1e3),
        per(run, n, 1e3),
        per(recover, n, 1e3),
        per(dataflow, n, 1e3),
    );
}
