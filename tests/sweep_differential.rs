//! Differential tests for the tool-side hot-path rewrites: the
//! sweep-based candidate generator (reference: the all-pairs loop,
//! `TaskgrindConfig::sweep = false`) and bulk access ingestion
//! (reference: one interval-tree insert per access,
//! `RecordOptions::bulk_ingest = false`). Both must be invisible in
//! every verdict-bearing output: candidate list, raw-range and
//! suppression counters, and the rendered report text must be
//! bit-identical across the Table I corpus, mini-LULESH and three BOTS
//! programs. Each engine row is compared with the reference once, on
//! the chained dispatcher; `tests/chaining_differential.rs` owns
//! dispatcher equivalence.
//!
//! `pairs_checked` / `unordered_pairs` are deliberately NOT compared:
//! they are work metrics of the pair generator (the sweep's whole point
//! is to check fewer pairs), not verdicts.

use taskgrind::tool::RecordOptions;
use taskgrind::{check_module, TaskgrindConfig, TaskgrindResult};
use tg_drb::bots::{FIB_MC, NQUEENS_MC, SPARSELU_MC};
use tg_drb::corpus::{corpus, Suite};
use tg_lulesh::harness::LuleshParams;
use tg_lulesh::LULESH_MC;

/// One engine combination under test.
#[derive(Clone, Copy)]
struct Engine {
    label: &'static str,
    sweep: bool,
    bulk: bool,
}

const REFERENCE: Engine = Engine { label: "reference", sweep: false, bulk: false };

const ENGINES: &[Engine] = &[
    Engine { label: "sweep+bulk", sweep: true, bulk: true },
    Engine { label: "sweep only", sweep: true, ..REFERENCE },
    Engine { label: "bulk only", bulk: true, ..REFERENCE },
];

fn run(m: &tga::module::Module, args: &[&str], nt: u64, e: Engine) -> TaskgrindResult {
    let cfg = TaskgrindConfig {
        vm: grindcore::VmConfig { nthreads: nt, ..Default::default() },
        record: RecordOptions { bulk_ingest: e.bulk, ..Default::default() },
        sweep: e.sweep,
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
    assert_eq!(a.accesses_recorded, b.accesses_recorded, "{ctx}: accesses recorded");
    assert_eq!(a.n_reports(), b.n_reports(), "{ctx}: report count");
    assert_eq!(a.render_all(), b.render_all(), "{ctx}: report text");
    // The registry-rendered summary block must have the same shape for
    // every engine: exactly one `== analysis:` line and four `==` lines
    // total.
    for r in [a, b] {
        let mut reg = tg_obs::Registry::new();
        taskgrind::metrics::publish(r, &mut reg);
        let s = taskgrind::metrics::render_summary(&reg);
        assert_eq!(s.matches("== analysis:").count(), 1, "{ctx}: one analysis line\n{s}");
        assert_eq!(s.matches("== ").count(), 4, "{ctx}: summary line count\n{s}");
        assert!(
            s.contains(&format!("engine {}", r.analysis_engine)),
            "{ctx}: summary names the analysis engine\n{s}"
        );
    }
}

/// Sweep and bulk ingestion preserve every Table I verdict and counter.
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
/// exists for, with deep interval sets feeding bulk ingestion.
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
    }
}

/// Same contract on BOTS at two guest threads, where task churn makes
/// the sweep, reachability and the stack and lock layers do real work.
#[test]
fn sweep_and_bulk_preserve_bots_output() {
    let (mut raw_ranges, mut suppressed_stack, mut suppressed_locks) = (0, 0, 0);
    for (name, source, args) in [
        ("fib.c", FIB_MC, &["10"][..]),
        ("nqueens.c", NQUEENS_MC, &["6"][..]),
        ("sparselu.c", SPARSELU_MC, &["-nb", "4", "-racy"][..]),
    ] {
        let m = guest_rt::build_single(name, source).expect("compiles");
        let reference = run(&m, args, 2, REFERENCE);
        assert!(reference.analysis.unordered_pairs > 0, "{name} must have unordered segments");
        raw_ranges += reference.analysis.raw_ranges;
        suppressed_stack += reference.analysis.suppressed_stack;
        suppressed_locks += reference.analysis.suppressed_locks;
        for &e in ENGINES {
            let opt = run(&m, args, 2, e);
            let ctx = format!("{name} {} under {}", args.join(" "), e.label);
            assert_identical(&reference, &opt, &ctx);
        }
    }
    assert!(raw_ranges > 0, "BOTS must exercise conflict intersection");
    assert!(suppressed_stack > 0, "BOTS must exercise the stack layer");
    assert!(suppressed_locks > 0, "BOTS must exercise the lock layer");
}

mod random_graphs {
    //! Property test: the sweep is verdict-identical to the all-pairs
    //! reference on *random task graphs with random sync placement* —
    //! parallel regions, barriers, taskgroups and critical sections on
    //! two threads — driving the [`taskgrind::graph::GraphBuilder`]
    //! event API directly (no guest program).

    use proptest::prelude::*;
    use taskgrind::analysis::{self, SuppressOptions};
    use taskgrind::graph::{GraphBuilder, ThreadMeta};
    use taskgrind::reach::Reachability;

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
    fn replay(b: &mut GraphBuilder, ops: &[Op]) {
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
                    }
                }
                Op::Access { write, addr } => {
                    b.record_access(&meta(0), 0x9000 + *addr as u64 * 8, 8, *write);
                }
                Op::Taskwait => {
                    b.taskwait(&meta(0));
                }
                Op::Critical { addr } => {
                    let m = meta(0);
                    b.critical_enter(&m, 0x40 + *addr as u64);
                    b.record_access(&m, 0x9000 + *addr as u64 * 8, 8, true);
                    b.critical_exit(&m, 0x40 + *addr as u64);
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
                }
                Op::Region { team } => {
                    let m0 = meta(0);
                    let rid = b.parallel_begin(&m0, *team as u64);
                    for i in 0..*team {
                        let mt = meta(i % 2);
                        b.implicit_task_begin(&mt, rid, i as u64);
                        b.record_access(&mt, 0x9200 + i as u64 * 8, 8, true);
                        b.barrier(&mt, rid);
                        b.record_access(&mt, 0x9200 + i as u64 * 8, 8, false);
                        b.implicit_task_end(&mt, rid, i as u64);
                    }
                    b.parallel_end(&m0, rid);
                }
            }
        }
        // leave no task unrun
        for t in pending {
            let m = meta(1);
            b.task_begin(&m, t);
            b.record_access(&m, 0x9300, 8, true);
            b.task_end(&m, t);
        }
    }

    /// The sweep against the all-pairs reference, over the graph `ops`
    /// builds.
    fn assert_sweep_matches_all_pairs(ops: &[Op]) {
        let mut b = GraphBuilder::new();
        replay(&mut b, ops);
        let g = b.finalize();
        let reach = Reachability::compute(&g);
        let opts = SuppressOptions::default();
        let want = analysis::run(&g, &reach, &opts);
        let got = analysis::run_sweep(&g, &reach, &opts, 1);
        assert_eq!(want.candidates, got.candidates, "candidates");
        assert_eq!(want.raw_ranges, got.raw_ranges, "raw_ranges");
        assert_eq!(want.suppressed_locks, got.suppressed_locks, "locks");
        assert_eq!(want.suppressed_mutex, got.suppressed_mutex, "mutex");
        assert_eq!(want.suppressed_tls, got.suppressed_tls, "tls");
        assert_eq!(want.suppressed_stack, got.suppressed_stack, "stack");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The sweep, which runs on one thread.
        #[test]
        fn sweep_matches_all_pairs_one_thread(ops in prop::collection::vec(op_strategy(), 1..40)) {
            assert_sweep_matches_all_pairs(&ops);
        }
    }
}
