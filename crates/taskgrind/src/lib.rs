//! taskgrind — a heavyweight-DBI determinacy-race analyzer for
//! task-parallel programs.
//!
//! This crate is the reproduction of the paper's contribution: a
//! grindcore (Valgrind-analog) *tool* that
//!
//! 1. records every memory access of the instrumented program into
//!    per-segment read/write **interval trees** ([`itree`], §III-B);
//! 2. builds a **segment graph** of the execution from the parallel
//!    runtime's client requests ([`graph`], §II-A/§III-A) — supporting
//!    OpenMP-style tasks with `in/out/inout/inoutset/mutexinoutset`
//!    dependences, taskwait/taskgroup/barrier/critical, parallel
//!    regions (Eq. 1), and Cilk-style spawn/sync riding the same
//!    machinery;
//! 3. runs the **determinacy-race analysis** (Algorithm 1) over all
//!    unordered segment pairs ([`analysis`]), with the §IV
//!    false-positive suppression layers: symbol ignore-lists, allocator
//!    replacement against memory recycling, TLS (TCB/DTV) records, and
//!    segment-local stack frames;
//! 4. renders **meaningful reports** with debug info and per-block
//!    allocation sites ([`report`], Listing 6).
//!
//! The one-call entry point is [`check_module`]:
//!
//! ```
//! use taskgrind::{check_module, TaskgrindConfig};
//!
//! let src = r#"
//! int main(void) {
//!     int *x = (int*) malloc(2 * sizeof(int));
//!     #pragma omp parallel num_threads(2)
//!     {
//!         #pragma omp single
//!         {
//!             #pragma omp task shared(x)
//!             x[0] = 42;
//!             #pragma omp task shared(x)
//!             x[0] = 43;
//!         }
//!     }
//!     return 0;
//! }
//! "#;
//! let module = guest_rt::build_single("task.c", src).unwrap();
//! let result = check_module(&module, &[], &TaskgrindConfig::default());
//! assert!(result.run.ok());
//! assert!(!result.reports.is_empty(), "the two tasks race on x[0]");
//! ```

pub mod analysis;
pub mod confirm;
pub mod graph;
pub mod itree;
pub mod metrics;
pub mod reach;
pub mod report;
pub mod suppressions;
pub mod tool;

use analysis::{AnalysisOutput, SuppressOptions};
use graph::SegmentGraph;
use grindcore::{ExecMode, RunResult, Vm, VmConfig};
use reach::Reachability;
use report::{AllocBlock, RaceReport};
use std::sync::Arc;
use std::time::Instant;
use tga::module::Module;
use tool::{RecordOptions, TaskgrindTool};

/// Full configuration for a Taskgrind run.
#[derive(Clone, Debug)]
pub struct TaskgrindConfig {
    /// VM configuration (thread count, scheduler seed, quantum, ...).
    pub vm: VmConfig,
    /// Recording options (ignore/instrument lists, allocator replacement).
    pub record: RecordOptions,
    /// Suppression toggles for the analysis pass.
    pub suppress: SuppressOptions,
    /// Unread: the sweep runs on one thread. Kept only because
    /// `tgbench` sets this field.
    #[doc(hidden)]
    pub analysis_threads: usize,
    /// Use the sweep-based candidate generator (address-indexed pair
    /// generation). `false` runs the all-pairs reference loop, the
    /// paper's sequential Algorithm 1, which the differential tests
    /// compare against.
    pub sweep: bool,
    /// Unread: analysis always runs once, after recording. Kept only
    /// because `tgbench` sets this field.
    #[doc(hidden)]
    pub streaming: bool,
    /// Unread, like `streaming`. Kept only because `tgbench` sets this
    /// field.
    #[doc(hidden)]
    pub max_live_segments: usize,
    /// Valgrind-style report suppressions (see [`suppressions`]).
    pub suppressions: suppressions::Suppressions,
    /// Persistent compiled-code cache attached to the recording VM:
    /// hits install previously compiled flat superblocks straight into
    /// the translation cache, and the serialized `StaticFacts` ride
    /// along so warm runs skip the static analysis too. `None` (the
    /// default) runs cold.
    pub code_cache: Option<grindcore::CodeCacheHandle>,
    /// Replay each candidate race's epoch under adversarial schedules
    /// and attach [`confirm::Verdict`]s to the reports (`tgrind run
    /// --confirm-races`). Off by default; when off the output is
    /// bit-identical to earlier releases.
    pub confirm: bool,
    /// Total adversarial replays across all candidates
    /// (`--confirm-budget`). Only meaningful with `confirm`.
    pub confirm_budget: usize,
}

impl Default for TaskgrindConfig {
    fn default() -> Self {
        TaskgrindConfig {
            vm: VmConfig::default(),
            record: RecordOptions::default(),
            suppress: SuppressOptions::default(),
            analysis_threads: 0,
            sweep: true,
            streaming: false,
            max_live_segments: 0,
            suppressions: suppressions::Suppressions::default(),
            code_cache: None,
            confirm: false,
            confirm_budget: 16,
        }
    }
}

/// Everything a Taskgrind run produces.
pub struct TaskgrindResult {
    /// The instrumented execution's outcome.
    pub run: RunResult,
    /// The segment graph of the execution.
    pub graph: SegmentGraph,
    /// Heap blocks recorded by the allocator replacement.
    pub blocks: Vec<AllocBlock>,
    /// Raw analysis output (candidates + suppression counters).
    pub analysis: AnalysisOutput,
    /// Deduplicated reports (after suppression-file filtering).
    pub reports: Vec<RaceReport>,
    /// Reports removed by the suppression file.
    pub suppressed_reports: Vec<RaceReport>,
    /// Wall-clock seconds of the recording phase (execution only — the
    /// paper reports this separately from the analysis).
    pub recording_secs: f64,
    /// Wall-clock seconds of graph finalize + reachability + Algorithm 1.
    pub analysis_secs: f64,
    /// Host bytes used by tool structures at end of recording.
    pub tool_bytes: u64,
    /// Memory-access callbacks that actually fired during recording.
    pub accesses_recorded: u64,
    /// Access sites whose callbacks the static filter removed at
    /// translation time (0 when the filter is off).
    pub sites_pruned: u64,
    /// Access sites that kept their callbacks.
    pub sites_instrumented: u64,
    /// The static facts used for pruning, if the filter ran.
    pub static_facts: Option<Arc<tga_analysis::StaticFacts>>,
    /// Dispatch-loop telemetry from the recording VM (chain hits,
    /// probes, evictions — see [`grindcore::VmStats`]).
    pub dispatch: grindcore::VmStats,
    /// Which pair-generation engine the analysis ran ("sweep" or
    /// "all-pairs").
    pub analysis_engine: &'static str,
    /// Segments with resident interval trees at finalize: every real
    /// segment, since analysis runs after recording.
    pub peak_live_segments: u64,
    /// Bytes of the interval trees resident at finalize.
    pub peak_tool_bytes: u64,
    /// Bytes the happens-before index held while the analysis ran
    /// ([`Reachability::heap_bytes`]): 4 × (4n + e + 1) for n graph
    /// nodes and e edges, search scratch included. Not part of
    /// `peak_tool_bytes`.
    pub reach_bytes: u64,
    /// Counters from the confirmation replay pass (`None` unless
    /// [`TaskgrindConfig::confirm`] was set).
    pub confirm: Option<confirm::ConfirmStats>,
}

impl TaskgrindResult {
    /// Number of distinct race reports.
    pub fn n_reports(&self) -> usize {
        self.reports.len()
    }

    /// Render every report in Taskgrind style.
    pub fn render_all(&self) -> String {
        self.reports.iter().map(report::render_taskgrind).collect::<Vec<_>>().join("\n")
    }
}

/// The options of a run's static analysis. A run reads one fact,
/// `safe_pcs` (which accesses may skip recording), and the dataflow pass
/// computes it before the lockset and lock-order passes run; those only
/// feed `tgrind lint`'s findings, so runs skip them.
/// `analyze_with(module, &RUN_ANALYZE_OPTS)` is the whole-module
/// analysis [`run_facts`] falls back to, and the oracle its run-path
/// facts are tested against.
pub const RUN_ANALYZE_OPTS: tga_analysis::AnalyzeOpts =
    tga_analysis::AnalyzeOpts { concurrency: false };

/// The static facts a run with `record` reads. The guest runtime's
/// functions that the run leaves uninstrumented are read from the
/// committed runtime summary ([`guest_rt::RUNTIME_SUMMARY`]) and only
/// the rest is analyzed (`tga_analysis::runsum`). When the summary does
/// not apply (the run instruments a summarized function, as
/// `--no-ignore-list` does, or the module's runtime differs from it)
/// the whole module is analyzed with [`RUN_ANALYZE_OPTS`]. The facts'
/// `scope` says which. [`check_module`], the engine's session and
/// `tgrind warm` all compute a run's facts here.
pub fn run_facts(module: &Module, record: &RecordOptions) -> tga_analysis::StaticFacts {
    let instruments = |name: &str| record.instruments(name);
    tga_analysis::runsum::analyze_run(module, guest_rt::RUNTIME_SUMMARY, &instruments)
}

/// Run a compiled module under Taskgrind: record, then analyze.
pub fn check_module(module: &Module, args: &[&str], cfg: &TaskgrindConfig) -> TaskgrindResult {
    let mut record = cfg.record.clone();
    if record.static_filter && record.static_facts.is_none() {
        // The code cache stores the serialized facts next to the
        // compiled blocks; a valid cached copy skips the whole static
        // analysis.
        let cached = cfg.code_cache.as_ref().and_then(|c| {
            let bytes = c.borrow_mut().load_facts()?;
            tga_analysis::StaticFacts::from_bytes(&bytes).ok()
        });
        let facts = cached.unwrap_or_else(|| {
            let facts = run_facts(module, &record);
            if let Some(c) = &cfg.code_cache {
                c.borrow_mut().store_facts(&facts.to_bytes());
            }
            facts
        });
        record.static_facts = Some(Arc::new(facts));
    }
    let static_facts = record.static_facts.clone().filter(|_| record.static_filter);
    let tool = TaskgrindTool::new(record);
    let state = tool.state();
    let mut vm = Vm::new(module.clone(), Box::new(tool), cfg.vm.clone());
    if let Some(cache) = &cfg.code_cache {
        vm.set_code_cache(cache.clone());
    }

    if tg_obs::trace::enabled() {
        use tg_obs::trace::{self, PID_GUEST, PID_HOST, TID_RETIRE};
        trace::name_track(PID_HOST, trace::host_tid(), "vm (record + dispatch)");
        for t in 0..cfg.vm.nthreads.max(1) {
            trace::name_track(PID_GUEST, t as u32, &format!("guest thread {t}"));
        }
        // the closed-bytes counter's track keeps the name it has always
        // had, so existing traces and tooling still find it
        trace::name_track(PID_GUEST, TID_RETIRE, "segment retirement");
    }

    let t0 = Instant::now();
    let run = {
        let _sp = tg_obs::trace::host_span("recording");
        vm.run(ExecMode::Dbi, args)
    };
    let recording_secs = t0.elapsed().as_secs_f64();
    let tool_bytes = run.metrics.tool_bytes;
    let run_dispatch = run.metrics.dispatch;
    drop(vm);

    let mut rec = take_recording(state);
    rec.blocks.sort_by_key(|b| b.base);
    let module_arc = rec.module.take().unwrap_or_else(|| Arc::new(module.clone()));

    let t1 = Instant::now();
    let builder = std::mem::take(&mut rec.builder);
    let (graph, mem_stats) = {
        let _sp = tg_obs::trace::host_span("finalize graph");
        builder.finalize_with_stats()
    };
    let (analysis, reach_bytes) = {
        let _sp = tg_obs::trace::host_span("analysis");
        let reach = Reachability::compute(&graph);
        let out = if cfg.sweep {
            analysis::run_sweep(&graph, &reach, &cfg.suppress, 1)
        } else {
            analysis::run(&graph, &reach, &cfg.suppress)
        };
        (out, reach.heap_bytes())
    };
    let reports = {
        let _sp = tg_obs::trace::host_span("report");
        report::summarize(
            &graph,
            &module_arc,
            &rec.blocks,
            &analysis.candidates,
            &cfg.record.ignore_list,
        )
    };
    let (mut reports, suppressed_reports) = cfg.suppressions.apply(reports);
    let analysis_secs = t1.elapsed().as_secs_f64();

    // Confirmation replays run after analysis, off the recorded graph:
    // candidates are re-executed under adversarial schedules in a fresh
    // VM (suppression-file-filtered reports keep verdict `None`).
    let confirm_stats = if cfg.confirm {
        let t2 = Instant::now();
        let (verdicts, mut cstats) =
            confirm::confirm_candidates(module, args, cfg, &graph, &analysis.candidates);
        cstats.secs = t2.elapsed().as_secs_f64();
        report::attach_verdicts(
            &mut reports,
            &graph,
            &module_arc,
            &rec.blocks,
            &analysis.candidates,
            &verdicts,
        );
        Some(cstats)
    } else {
        None
    };

    TaskgrindResult {
        run,
        graph,
        blocks: rec.blocks,
        analysis,
        reports,
        suppressed_reports,
        recording_secs,
        analysis_secs,
        tool_bytes,
        accesses_recorded: rec.accesses_recorded,
        sites_pruned: rec.sites_pruned,
        sites_instrumented: rec.sites_instrumented,
        static_facts,
        dispatch: run_dispatch,
        analysis_engine: if cfg.sweep { "sweep" } else { "all-pairs" },
        peak_live_segments: mem_stats.peak_live_segments,
        peak_tool_bytes: mem_stats.peak_tool_bytes,
        reach_bytes,
        confirm: confirm_stats,
    }
}

/// Extract the sole remaining owner of the recording state.
fn take_recording(state: std::rc::Rc<std::cell::RefCell<tool::Recording>>) -> tool::Recording {
    match std::rc::Rc::try_unwrap(state) {
        Ok(cell) => cell.into_inner(),
        Err(_) => panic!("recording state still shared after VM drop"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check(src: &str, nthreads: u64) -> TaskgrindResult {
        let m = guest_rt::build_single("test.c", src).expect("compiles");
        let cfg = TaskgrindConfig {
            vm: VmConfig { nthreads, ..Default::default() },
            ..Default::default()
        };
        check_module(&m, &[], &cfg)
    }

    // No num_threads clause: the team size follows the VM's
    // OMP_NUM_THREADS analog, so the same source runs 1- and 2-threaded.
    const RACY_TASKS: &str = r#"
int main(void) {
    int *x = (int*) malloc(2 * sizeof(int));
    #pragma omp parallel
    {
        #pragma omp single
        {
            #pragma omp task shared(x)
            x[0] = 42;
            #pragma omp task shared(x)
            x[0] = 43;
        }
    }
    return 0;
}
"#;

    #[test]
    fn detects_racy_tasks_multithreaded() {
        let r = check(RACY_TASKS, 2);
        assert!(r.run.ok(), "{:?}", r.run.error);
        assert!(!r.reports.is_empty(), "missing race report");
        let text = r.render_all();
        assert!(text.contains("declared independent"), "{text}");
        assert!(text.contains("test.c:"), "reports carry debug info: {text}");
        assert!(text.contains("allocated in block"), "{text}");
    }

    #[test]
    fn detects_racy_tasks_single_threaded() {
        // On one thread LLVM-style serialization makes tasks included;
        // Taskgrind still sees the declared independence.
        let r = check(RACY_TASKS, 1);
        assert!(r.run.ok(), "{:?}", r.run.error);
        // Included tasks order the continuation, so without the paper's
        // deferrable annotation the serial run hides the race...
        let serial_reports = r.n_reports();
        // ...but with the annotation (tg_set_deferrable) it reappears.
        let annotated = r#"
void tg_set_deferrable(long v);
int main(void) {
    tg_set_deferrable(1);
    int *x = (int*) malloc(2 * sizeof(int));
    #pragma omp parallel num_threads(1)
    {
        #pragma omp single
        {
            #pragma omp task shared(x)
            x[0] = 42;
            #pragma omp task shared(x)
            x[0] = 43;
        }
    }
    return 0;
}
"#;
        let r2 = check(annotated, 1);
        assert!(r2.run.ok(), "{:?}", r2.run.error);
        assert!(
            r2.n_reports() > 0,
            "deferrable annotation must expose the race single-threaded (paper V-B)"
        );
        assert_eq!(serial_reports, 0, "included tasks serialize without annotation");
    }

    #[test]
    fn dependent_tasks_do_not_report() {
        let src = r#"
int main(void) {
    int x = 0;
    #pragma omp parallel num_threads(2)
    {
        #pragma omp single
        {
            #pragma omp task depend(out: x) shared(x)
            x = 1;
            #pragma omp task depend(inout: x) shared(x)
            x = x + 1;
        }
    }
    return x;
}
"#;
        let r = check(src, 2);
        assert!(r.run.ok(), "{:?}", r.run.error);
        assert_eq!(r.n_reports(), 0, "{}", r.render_all());
    }

    #[test]
    fn taskwait_protected_is_clean() {
        let src = r#"
int main(void) {
    int x = 0;
    #pragma omp parallel num_threads(2)
    {
        #pragma omp single
        {
            #pragma omp task shared(x)
            x = 1;
            #pragma omp taskwait
            x = x + 1;
        }
    }
    return x;
}
"#;
        let r = check(src, 2);
        assert_eq!(r.n_reports(), 0, "{}", r.render_all());
    }

    #[test]
    fn missing_taskwait_reports() {
        let src = r#"
int main(void) {
    int x = 0;
    #pragma omp parallel num_threads(2)
    {
        #pragma omp single
        {
            #pragma omp task shared(x)
            x = 1;
            x = x + 1;   // concurrent with the task
        }
    }
    return x;
}
"#;
        let r = check(src, 2);
        assert!(r.n_reports() > 0);
    }

    #[test]
    fn runtime_accesses_are_ignored() {
        // A clean program: all queue/lock traffic of libomp must be
        // filtered by the ignore-list (IV-A), leaving zero reports.
        let src = r#"
int main(void) {
    int a[32];
    #pragma omp parallel num_threads(4)
    {
        #pragma omp single
        {
            #pragma omp taskloop grainsize(8) shared(a)
            for (int i = 0; i < 32; i++) a[i] = i;
        }
    }
    return a[7];
}
"#;
        let r = check(src, 4);
        assert!(r.run.ok(), "{:?}", r.run.error);
        assert_eq!(r.n_reports(), 0, "{}", r.render_all());
        assert!(r.analysis.pairs_checked > 0);
    }

    #[test]
    fn memory_recycling_suppressed_by_allocator_replacement() {
        // TMB 1000: two independent tasks malloc/write/free — the guest
        // allocator would hand both the same address.
        let src = r#"
int main(void) {
    #pragma omp parallel num_threads(2)
    {
        #pragma omp single
        {
            for (int i = 0; i < 2; i++) {
                #pragma omp task
                {
                    int *x = (int*) malloc(4);
                    x[0] = 1;
                    free(x);
                }
            }
        }
    }
    return 0;
}
"#;
        let r = check(src, 1);
        assert!(r.run.ok(), "{:?}", r.run.error);
        assert_eq!(r.n_reports(), 0, "replacement kills recycling FPs: {}", r.render_all());
        assert!(r.blocks.len() >= 2, "each task got its own block");

        // Naive mode (no replacement): the recycling FP reappears.
        let m = guest_rt::build_single("test.c", src).unwrap();
        let cfg2 = TaskgrindConfig {
            vm: VmConfig { nthreads: 2, ..Default::default() },
            record: RecordOptions { replace_allocator: false, ..Default::default() },
            ..Default::default()
        };
        let naive2 = check_module(&m, &[], &cfg2);
        assert!(
            naive2.n_reports() > 0,
            "without replacement, recycling shows up as a false positive"
        );
    }

    #[test]
    fn runtime_allocator_replacement_kills_payload_recycling() {
        // Task capture payloads come from the runtime's built-in
        // allocator (__kmp_fast_alloc). The paper's Taskgrind does not
        // cover built-in allocators ("kept as future work", IV-B):
        // with replacement off, sequential independent tasks recycle
        // payload blocks and alias — a false positive. Our future-work
        // implementation replaces them too.
        let src = r#"
void tg_set_deferrable(long v);
int sink;
int main(void) {
    tg_set_deferrable(1);
    #pragma omp parallel num_threads(1)
    {
        #pragma omp single
        {
            for (int i = 0; i < 2; i++) {
                int v = i;
                #pragma omp task firstprivate(v)
                sink = v;   // reads its payload copy of v
            }
        }
    }
    return 0;
}
"#;
        let m = guest_rt::build_single("payload.c", src).unwrap();
        // full tool: clean except the intended sink conflict? sink is a
        // genuine shared write conflict between the two tasks — exclude
        // it by checking only heap-region reports.
        let count_heap =
            |r: &TaskgrindResult| r.reports.iter().filter(|rep| rep.region == "heap").count();
        let full = check_module(&m, &[], &TaskgrindConfig::default());
        assert_eq!(count_heap(&full), 0, "{}", full.render_all());

        let limited = TaskgrindConfig {
            record: RecordOptions { replace_runtime_allocator: false, ..Default::default() },
            ..Default::default()
        };
        let lim = check_module(&m, &[], &limited);
        assert!(
            count_heap(&lim) > 0,
            "paper limitation: recycled payloads alias across tasks: {}",
            lim.render_all()
        );
    }

    #[test]
    fn suppression_files_filter_reports() {
        let m = guest_rt::build_single("test.c", RACY_TASKS).unwrap();
        let mut cfg = TaskgrindConfig {
            vm: VmConfig { nthreads: 2, ..Default::default() },
            ..Default::default()
        };
        let before = check_module(&m, &[], &cfg);
        assert!(before.n_reports() > 0);
        cfg.suppressions = suppressions::Suppressions::parse("test.c:* *").unwrap();
        let after = check_module(&m, &[], &cfg);
        assert_eq!(after.n_reports(), 0);
        assert_eq!(after.suppressed_reports.len(), before.n_reports());
        // the raw analysis is unchanged — only reporting is filtered
        assert_eq!(after.analysis.candidates.len(), before.analysis.candidates.len());
    }

    #[test]
    fn timing_and_memory_are_reported() {
        let r = check(RACY_TASKS, 2);
        assert!(r.recording_secs > 0.0);
        assert!(r.analysis_secs >= 0.0);
        assert!(r.tool_bytes > 0);
        assert!(r.graph.n_nodes() > 3);
    }
}
