//! Differential tests for the tool-side hot-path rewrites: the
//! sweep-based candidate generator (reference: the all-pairs loop,
//! `TaskgrindConfig::sweep = false`), bulk access ingestion (reference:
//! one interval-tree insert per access, `RecordOptions::bulk_ingest =
//! false`), and the streaming segment-retirement engine (`--streaming`;
//! reference: the batch pipeline). All of them must be invisible in
//! every verdict-bearing output: candidate list, raw-range and
//! suppression counters, and the rendered report text must be
//! bit-identical across the Table I corpus and mini-LULESH. Each
//! engine row is compared with the reference once, on the chained
//! dispatcher; `tests/chaining_differential.rs` owns dispatcher
//! equivalence.
//!
//! `pairs_checked` / `unordered_pairs` are deliberately NOT compared:
//! they are work metrics of the pair generator (the sweep's whole point
//! is to check fewer pairs; the streaming engine re-examines live
//! context segments across epochs), not verdicts.

use taskgrind::tool::RecordOptions;
use taskgrind::{check_module, TaskgrindConfig, TaskgrindResult};
use tg_drb::corpus::{corpus, Suite};
use tg_lulesh::harness::LuleshParams;
use tg_lulesh::LULESH_MC;

/// One engine combination under test.
#[derive(Clone, Copy)]
struct Engine {
    label: &'static str,
    sweep: bool,
    bulk: bool,
    streaming: bool,
    threads: usize,
}

const REFERENCE: Engine =
    Engine { label: "reference", sweep: false, bulk: false, streaming: false, threads: 1 };

const ENGINES: &[Engine] = &[
    Engine { label: "sweep+bulk t1", sweep: true, bulk: true, ..REFERENCE },
    Engine { label: "sweep+bulk t4", sweep: true, bulk: true, threads: 4, ..REFERENCE },
    Engine { label: "sweep only", sweep: true, threads: 2, ..REFERENCE },
    Engine { label: "bulk only", bulk: true, ..REFERENCE },
    Engine { label: "streaming t1", sweep: true, bulk: true, streaming: true, threads: 1 },
    Engine { label: "streaming t4", sweep: true, bulk: true, streaming: true, threads: 4 },
];

fn run(m: &tga::module::Module, args: &[&str], nt: u64, e: Engine) -> TaskgrindResult {
    let cfg = TaskgrindConfig {
        vm: grindcore::VmConfig { nthreads: nt, ..Default::default() },
        record: RecordOptions { bulk_ingest: e.bulk, ..Default::default() },
        analysis_threads: e.threads,
        sweep: e.sweep,
        streaming: e.streaming,
        ..Default::default()
    };
    check_module(m, args, &cfg)
}

/// Everything verdict-bearing must match the reference bit for bit.
fn assert_identical(a: &TaskgrindResult, b: &TaskgrindResult, ctx: &str) {
    assert_eq!(a.analysis.candidates, b.analysis.candidates, "{ctx}: candidates");
    assert_eq!(a.analysis.raw_ranges, b.analysis.raw_ranges, "{ctx}: raw_ranges");
    assert_eq!(a.analysis.suppressed_locks, b.analysis.suppressed_locks, "{ctx}: locks");
    assert_eq!(a.analysis.suppressed_mutex, b.analysis.suppressed_mutex, "{ctx}: mutex");
    assert_eq!(a.analysis.suppressed_tls, b.analysis.suppressed_tls, "{ctx}: tls");
    assert_eq!(a.analysis.suppressed_stack, b.analysis.suppressed_stack, "{ctx}: stack");
    assert_eq!(a.analysis.suppressed_static, b.analysis.suppressed_static, "{ctx}: static");
    assert_eq!(a.accesses_recorded, b.accesses_recorded, "{ctx}: accesses recorded");
    assert_eq!(a.n_reports(), b.n_reports(), "{ctx}: report count");
    assert_eq!(a.render_all(), b.render_all(), "{ctx}: report text");
    // The registry-rendered summary block must have the merged shape for
    // every engine: exactly one `== analysis:` line (the historical
    // engine/pairs and streaming lines are one block now) and four `==`
    // lines total.
    for r in [a, b] {
        let mut reg = tg_obs::Registry::new();
        taskgrind::metrics::publish(r, &mut reg);
        let s = taskgrind::metrics::render_summary(&reg);
        assert_eq!(s.matches("== analysis:").count(), 1, "{ctx}: merged analysis line\n{s}");
        assert_eq!(s.matches("== ").count(), 4, "{ctx}: summary line count\n{s}");
        assert!(
            s.contains(&format!("engine {}", r.analysis_engine)),
            "{ctx}: summary names the analysis engine\n{s}"
        );
    }
}

/// Sweep, bulk ingestion and streaming retirement preserve every
/// Table I verdict and counter.
#[test]
fn sweep_and_bulk_preserve_table1_verdicts() {
    let mut any_candidates = false;
    for p in corpus() {
        let Ok(m) = guest_rt::build_single(p.name, p.source) else {
            continue; // ncs entries stay ncs either way
        };
        let threads: &[u64] = match p.suite {
            Suite::Drb => &[4],
            Suite::Tmb => &[1, 4],
        };
        for &nt in threads {
            let reference = run(&m, &[], nt, REFERENCE);
            any_candidates |= !reference.analysis.candidates.is_empty();
            for &e in ENGINES {
                let opt = run(&m, &[], nt, e);
                let ctx = format!("{} ({nt} threads) under {}", p.name, e.label);
                assert_identical(&reference, &opt, &ctx);
            }
        }
    }
    assert!(any_candidates, "the corpus must exercise non-empty candidate sets");
}

/// Same contract on mini-LULESH — the many-segment workload the sweep
/// and streaming engines exist for, with deep interval sets feeding
/// bulk ingestion. Also asserts the streaming engine's reason to exist:
/// its tool-structure high-water mark stays below the batch engine's.
#[test]
fn sweep_and_bulk_preserve_lulesh_output() {
    let m = guest_rt::build_single("lulesh.c", LULESH_MC).expect("compiles");
    let params =
        LuleshParams { s: 4, tel: 2, tnl: 2, iters: 2, progress: false, racy: false, threads: 2 };
    let args: Vec<String> = params.args();
    let args: Vec<&str> = args.iter().map(|s| s.as_str()).collect();
    let reference = run(&m, &args, params.threads, REFERENCE);
    assert!(
        reference.analysis.raw_ranges > 0 || reference.analysis.pairs_checked > 0,
        "mini-LULESH must exercise the analysis"
    );
    for &e in ENGINES {
        let opt = run(&m, &args, params.threads, e);
        let ctx = format!("lulesh under {}", e.label);
        assert_identical(&reference, &opt, &ctx);
        if e.streaming {
            assert!(
                opt.retired_segments > 0,
                "{ctx}: streaming must retire segments before finalize"
            );
            assert!(
                opt.peak_tool_bytes < reference.peak_tool_bytes,
                "{ctx}: streaming high-water {} must stay below batch {}",
                opt.peak_tool_bytes,
                reference.peak_tool_bytes,
            );
        }
    }
}

/// Run with the static concurrency pass (guard-mask tagging + the
/// StaticProof sweep layer) toggled.
fn run_concurrency(
    m: &tga::module::Module,
    args: &[&str],
    nt: u64,
    streaming: bool,
    concurrency: bool,
) -> TaskgrindResult {
    let cfg = TaskgrindConfig {
        vm: grindcore::VmConfig { nthreads: nt, ..Default::default() },
        record: RecordOptions { static_concurrency: concurrency, ..Default::default() },
        suppress: taskgrind::analysis::SuppressOptions {
            static_proof: concurrency,
            ..Default::default()
        },
        analysis_threads: 2,
        sweep: true,
        streaming,
        ..Default::default()
    };
    check_module(m, args, &cfg)
}

/// The static concurrency pass must be *verdict-invisible*: a sound
/// static guard proof only tags accesses that run under a dynamic
/// critical section, so the locks layer claims every such pair first
/// and all Table I verdicts, counters, and report text stay
/// bit-identical with the pass on and off — in batch and streaming
/// analysis.
#[test]
fn static_concurrency_is_verdict_invisible_on_table1() {
    for p in corpus() {
        let Ok(m) = guest_rt::build_single(p.name, p.source) else {
            continue;
        };
        for streaming in [false, true] {
            let on = run_concurrency(&m, &[], 4, streaming, true);
            let off = run_concurrency(&m, &[], 4, streaming, false);
            let ctx = format!("{} (streaming={streaming}) concurrency on vs off", p.name);
            assert_identical(&on, &off, &ctx);
            assert_eq!(
                on.analysis.suppressed_static, 0,
                "{ctx}: dynamic lock tracking must subsume every static proof"
            );
        }
    }
}

/// Same on mini-LULESH.
#[test]
fn static_concurrency_is_verdict_invisible_on_lulesh() {
    let m = guest_rt::build_single("lulesh.c", LULESH_MC).expect("compiles");
    let params =
        LuleshParams { s: 4, tel: 2, tnl: 2, iters: 1, progress: false, racy: false, threads: 2 };
    let args: Vec<String> = params.args();
    let args: Vec<&str> = args.iter().map(|s| s.as_str()).collect();
    for streaming in [false, true] {
        let on = run_concurrency(&m, &args, params.threads, streaming, true);
        let off = run_concurrency(&m, &args, params.threads, streaming, false);
        let ctx = format!("lulesh (streaming={streaming})");
        assert_identical(&on, &off, &ctx);
        // the toggle gates only tagging, never pruning: the
        // instrumented-site counts stay identical too
        assert_eq!(on.sites_pruned, off.sites_pruned, "{ctx}: sites pruned");
        assert_eq!(on.sites_instrumented, off.sites_instrumented, "{ctx}: sites kept");
    }
}

/// Streaming backpressure: a tiny `max_live_segments` bound must not
/// change any verdict, only add throttle waits.
#[test]
fn streaming_backpressure_preserves_verdicts() {
    let m = guest_rt::build_single("lulesh.c", LULESH_MC).expect("compiles");
    let params =
        LuleshParams { s: 4, tel: 2, tnl: 2, iters: 1, progress: false, racy: false, threads: 2 };
    let args: Vec<String> = params.args();
    let args: Vec<&str> = args.iter().map(|s| s.as_str()).collect();
    let reference = run(&m, &args, params.threads, REFERENCE);
    let cfg = TaskgrindConfig {
        vm: grindcore::VmConfig { nthreads: params.threads, ..Default::default() },
        analysis_threads: 2,
        streaming: true,
        max_live_segments: 4,
        ..Default::default()
    };
    let throttled = check_module(&m, &args, &cfg);
    assert_identical(&reference, &throttled, "lulesh under streaming max-live=4");
}

mod random_graphs {
    //! Property test: the streaming engine is verdict-identical to the
    //! batch sweep on *random task graphs with random sync placement*,
    //! driving the [`taskgrind::graph::GraphBuilder`] event API directly
    //! (no guest program), with retirement attempted after every
    //! segment-closing event — far more epoch boundaries than real
    //! executions produce.

    use proptest::prelude::*;
    use taskgrind::analysis::{self, SuppressOptions};
    use taskgrind::graph::{GraphBuilder, ThreadMeta};
    use taskgrind::reach::Reachability;
    use taskgrind::stream::{InlineSink, Pipeline};

    /// One random event. Free-threaded ops run on thread 0 (the only
    /// thread with a root context, as in the real runtimes — worker
    /// threads only execute inside task contexts); explicit tasks run
    /// on thread 1, implicit tasks alternate threads.
    #[derive(Clone, Debug)]
    enum Op {
        Spawn,
        RunTask { write: bool, addr: u8 },
        Access { write: bool, addr: u8 },
        Taskwait,
        Critical { addr: u8 },
        TaskgroupScope,
        Region { team: u8 },
    }

    fn op_strategy() -> impl Strategy<Value = Op> {
        prop_oneof![
            Just(Op::Spawn),
            (any::<bool>(), 0u8..32).prop_map(|(write, addr)| Op::RunTask { write, addr }),
            (any::<bool>(), 0u8..32).prop_map(|(write, addr)| Op::Access { write, addr }),
            Just(Op::Taskwait),
            (0u8..4).prop_map(|addr| Op::Critical { addr }),
            Just(Op::TaskgroupScope),
            (2u8..4).prop_map(|team| Op::Region { team }),
        ]
    }

    fn meta(tid: u8) -> ThreadMeta {
        ThreadMeta {
            tid: tid as usize,
            sp: 0x7000_0000,
            stack_low: 0x6000_0000,
            stack_high: 0x7000_0100,
            tls_base: 0x100 + tid as u64 * 0x1000,
            tls_size: 64,
            tls_gen: tid as u64,
        }
    }

    /// Replay the op list into a builder. Heap addresses are far from
    /// the fake stack/TLS windows so suppression layers stay exercised
    /// but not total.
    fn replay(b: &mut GraphBuilder, ops: &[Op], retire_hook: &mut dyn FnMut(&mut GraphBuilder)) {
        let mut pending: Vec<u64> = Vec::new();
        for op in ops {
            match op {
                Op::Spawn => {
                    let m = meta(0);
                    let t = b.task_create(&m, 0, 0x100);
                    b.task_spawn(&m, t);
                    pending.push(t);
                }
                Op::RunTask { write, addr } => {
                    // run the oldest pending task on thread 1
                    if !pending.is_empty() {
                        let t = pending.remove(0);
                        let m = meta(1);
                        b.task_begin(&m, t);
                        b.record_access(&m, 0x9000 + *addr as u64 * 8, 8, *write);
                        b.task_end(&m, t);
                        retire_hook(b);
                    }
                }
                Op::Access { write, addr } => {
                    b.record_access(&meta(0), 0x9000 + *addr as u64 * 8, 8, *write);
                }
                Op::Taskwait => {
                    b.taskwait(&meta(0));
                    retire_hook(b);
                }
                Op::Critical { addr } => {
                    let m = meta(0);
                    b.critical_enter(&m, 0x40 + *addr as u64);
                    b.record_access(&m, 0x9000 + *addr as u64 * 8, 8, true);
                    b.critical_exit(&m, 0x40 + *addr as u64);
                    retire_hook(b);
                }
                Op::TaskgroupScope => {
                    let m = meta(0);
                    b.taskgroup_begin(&m);
                    let t = b.task_create(&m, 0, 0x200);
                    b.task_spawn(&m, t);
                    b.task_begin(&m, t);
                    b.record_access(&m, 0x9100, 8, true);
                    b.task_end(&m, t);
                    b.taskgroup_end(&m);
                    retire_hook(b);
                }
                Op::Region { team } => {
                    let m0 = meta(0);
                    let rid = b.parallel_begin(&m0, *team as u64);
                    for i in 0..*team {
                        let mt = meta(i % 2);
                        b.implicit_task_begin(&mt, rid, i as u64);
                        b.record_access(&mt, 0x9200 + i as u64 * 8, 8, true);
                        b.barrier(&mt, rid);
                        retire_hook(b);
                        b.record_access(&mt, 0x9200 + i as u64 * 8, 8, false);
                        b.implicit_task_end(&mt, rid, i as u64);
                        retire_hook(b);
                    }
                    b.parallel_end(&m0, rid);
                    retire_hook(b);
                }
            }
        }
        // leave no task unrun: the batch reference joins them at finalize
        for t in pending {
            let m = meta(1);
            b.task_begin(&m, t);
            b.record_access(&m, 0x9300, 8, true);
            b.task_end(&m, t);
            retire_hook(b);
        }
    }

    fn batch_verdicts(ops: &[Op]) -> analysis::AnalysisOutput {
        let mut b = GraphBuilder::new();
        replay(&mut b, ops, &mut |_| {});
        let g = b.finalize();
        let reach = Reachability::compute(&g);
        analysis::run_sweep(&g, &reach, &SuppressOptions::default(), 1)
    }

    fn assert_verdicts_match(a: &analysis::AnalysisOutput, b: &analysis::AnalysisOutput) {
        assert_eq!(a.candidates, b.candidates, "candidates");
        assert_eq!(a.raw_ranges, b.raw_ranges, "raw_ranges");
        assert_eq!(a.suppressed_locks, b.suppressed_locks, "locks");
        assert_eq!(a.suppressed_mutex, b.suppressed_mutex, "mutex");
        assert_eq!(a.suppressed_tls, b.suppressed_tls, "tls");
        assert_eq!(a.suppressed_stack, b.suppressed_stack, "stack");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Streaming == batch on random graphs, analyzed inline
        /// (deterministic single-thread reference sink).
        #[test]
        fn streaming_matches_batch_inline(ops in prop::collection::vec(op_strategy(), 1..40)) {
            let batch = batch_verdicts(&ops);

            let (sink, out) = InlineSink::new(SuppressOptions::default());
            let mut b = GraphBuilder::new();
            b.enable_streaming(Box::new(sink), 0);
            replay(&mut b, &ops, &mut |b| b.maybe_retire());
            let (_, stats) = b.finalize_with_stats();
            let streamed = InlineSink::take(&out);
            assert_verdicts_match(&batch, &streamed);
            prop_assert_eq!(stats.late_root_ctxs, 0, "frontier soundness precondition");
        }

        /// Streaming == batch with the real 4-worker background pool.
        #[test]
        fn streaming_matches_batch_pooled(ops in prop::collection::vec(op_strategy(), 1..40)) {
            let batch = batch_verdicts(&ops);

            let pipeline = Pipeline::new(4, SuppressOptions::default());
            let mut b = GraphBuilder::new();
            b.enable_streaming(Box::new(pipeline.sink()), 2);
            replay(&mut b, &ops, &mut |b| b.maybe_retire());
            let _ = b.finalize_with_stats();
            let streamed = pipeline.finish();
            assert_verdicts_match(&batch, &streamed);
        }
    }
}
