//! E9 ablation: happens-before reachability.
//!
//! * Task-shaped synthetic graphs of increasing size: the bitset
//!   closure's build and all-pairs queries, against the unpruned DFS.
//! * The three recorded `bots_tasks` graphs (BOTS fib 16, nqueens 8 and
//!   racy sparselu 8 at two guest threads): the closure build plus the
//!   sweep's queries, against the index build plus the same queries,
//!   and `run_sweep` as a whole. `reach_ms` (`Reachability::compute`)
//!   and `sweep_ms` (`run_sweep`) are the layers tgbench's traced path
//!   times as `taskgrind.reach` and `taskgrind.sweep`.
//!
//! `TG_BENCH_SAMPLES` sets the sample count (default 41). The last line
//! printed is a JSON object with the median sample per graph;
//! `BENCH_reach.json` at the workspace root records it for two commits.

use criterion::{criterion_group, criterion_main, Criterion};
use std::time::{Duration, Instant};
use taskgrind::analysis::{run_sweep, sweep_pairs, SuppressOptions};
use taskgrind::graph::{GraphBuilder, SegId, SegmentGraph, ThreadMeta};
use taskgrind::reach::{dfs_reaches, Closure, Reachability};
use taskgrind::{check_module, TaskgrindConfig};
use tg_drb::bots::{FIB_MC, NQUEENS_MC, SPARSELU_MC};

/// A fork/join-heavy graph: `n` rounds of 4 tasks + taskwait.
fn build_graph(rounds: u64) -> SegmentGraph {
    let mut b = GraphBuilder::new();
    let m = ThreadMeta::default();
    for r in 0..rounds {
        for i in 0..4u64 {
            let t = b.task_create(&m, 0, 0x100 + r * 8 + i);
            b.task_spawn(&m, t);
            b.task_begin(&m, t);
            b.record_access(&m, 0x1000 + (r * 4 + i) * 8, 8, true);
            b.task_end(&m, t);
        }
        b.taskwait(&m);
    }
    b.finalize()
}

fn bench_reach(c: &mut Criterion) {
    let mut g = c.benchmark_group("reach");
    for rounds in [16u64, 64] {
        let graph = build_graph(rounds);
        let n = graph.n_nodes() as u32;
        g.bench_function(format!("closure_build/{n}nodes"), |b| {
            b.iter(|| std::hint::black_box(Closure::compute(&graph).heap_bytes()))
        });
        let closure = Closure::compute(&graph);
        g.bench_function(format!("closure_query_all_pairs/{n}nodes"), |b| {
            b.iter(|| {
                let mut count = 0u64;
                for i in 0..n {
                    for j in 0..n {
                        if closure.reaches(i, j) {
                            count += 1;
                        }
                    }
                }
                std::hint::black_box(count)
            })
        });
        g.bench_function(format!("dfs_query_100_pairs/{n}nodes"), |b| {
            b.iter(|| {
                let mut count = 0u64;
                for i in 0..100.min(n) {
                    if dfs_reaches(&graph, i, n - 1) {
                        count += 1;
                    }
                }
                std::hint::black_box(count)
            })
        });
    }
    g.finish();
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

/// How many of `pairs` are ordered, by `ordered`.
fn count_ordered(pairs: &[(SegId, SegId)], ordered: impl Fn(SegId, SegId) -> bool) -> usize {
    pairs.iter().filter(|&&(a, b)| ordered(a, b)).count()
}

fn bench_bots(_: &mut Criterion) {
    let samples = std::env::var("TG_BENCH_SAMPLES").ok().and_then(|v| v.parse().ok()).unwrap_or(41);
    let opts = SuppressOptions::default();
    let mut rows = Vec::new();
    for (job, name, source, args) in [
        ("fib16", "fib.c", FIB_MC, &["16"][..]),
        ("nqueens8", "nqueens.c", NQUEENS_MC, &["8"][..]),
        ("sparselu8-racy", "sparselu.c", SPARSELU_MC, &["-nb", "8", "-racy"][..]),
    ] {
        let m = guest_rt::build_single(name, source).expect("compiles");
        let cfg = TaskgrindConfig {
            vm: grindcore::VmConfig { nthreads: 2, ..Default::default() },
            ..Default::default()
        };
        let graph = check_module(&m, args, &cfg).graph;
        let pairs = sweep_pairs(&graph);
        let (reach, closure) = (Reachability::compute(&graph), Closure::compute(&graph));
        let ordered = count_ordered(&pairs, |a, b| closure.ordered(a, b));
        assert_eq!(count_ordered(&pairs, |a, b| reach.ordered(a, b)), ordered, "{job}");

        let closure_ms = median_of(samples, || {
            let c = Closure::compute(&graph);
            std::hint::black_box(count_ordered(&pairs, |a, b| c.ordered(a, b)));
        });
        let index_ms = median_of(samples, || {
            let r = Reachability::compute(&graph);
            std::hint::black_box(count_ordered(&pairs, |a, b| r.ordered(a, b)));
        });
        let reach_ms = median_of(samples, || {
            std::hint::black_box(Reachability::compute(&graph));
        });
        let sweep_ms = median_of(samples, || {
            std::hint::black_box(run_sweep(&graph, &reach, &opts, 1));
        });
        let ms = |d: Duration| d.as_secs_f64() * 1e3;
        println!(
            "reach/bots/{job:<16} closure+queries {:>7.3} ms  index+queries {:>7.3} ms  \
             compute {:>7.3} ms  run_sweep {:>7.3} ms",
            ms(closure_ms),
            ms(index_ms),
            ms(reach_ms),
            ms(sweep_ms),
        );
        rows.push(format!(
            "{{\"job\":\"{job}\",\"nodes\":{},\"edges\":{},\"sweep_pairs\":{},\"ordered\":{ordered},\
             \"closure_queries_ms\":{:.4},\"index_queries_ms\":{:.4},\"reach_ms\":{:.4},\
             \"sweep_ms\":{:.4},\"reach_bytes\":{},\"closure_bytes\":{}}}",
            graph.n_nodes(),
            graph.edges.len(),
            pairs.len(),
            ms(closure_ms),
            ms(index_ms),
            ms(reach_ms),
            ms(sweep_ms),
            reach.heap_bytes(),
            closure.heap_bytes(),
        ));
    }
    println!("{{\"samples\":{samples},\"graphs\":[{}]}}", rows.join(","));
}

criterion_group!(benches, bench_reach, bench_bots);
criterion_main!(benches);
