//! E8: the paper's future-work item — "the determinacy race
//! post-processing analysis is an embarrassingly parallel algorithm,
//! but it is currently run sequentially". Sequential Algorithm 1 on a
//! segment graph with many unordered pairs. The analysis stays
//! sequential: a thread fan-out of the all-pairs loop and, later, an
//! address-sharded sweep both measured no faster than one thread, and
//! both are gone (EXPERIMENTS E8, E12).
//!
//! E12 extends this with the two hot-path rewrites: the sweep-based
//! candidate generator versus the all-pairs loop (a many-segment
//! workload with mostly-disjoint footprints, where all-pairs burns its
//! time proving segments never touch), and bulk access ingestion versus
//! per-access interval-tree inserts, checked tree by tree before timing.

use criterion::{criterion_group, criterion_main, Criterion};
use taskgrind::analysis::{run, run_sweep, SuppressOptions};
use taskgrind::graph::{GraphBuilder, SegmentGraph, ThreadMeta};
use taskgrind::reach::Reachability;

/// Many mutually-unordered tasks with overlapping access sets.
fn wide_graph(tasks: u64) -> SegmentGraph {
    let mut b = GraphBuilder::new();
    let m = ThreadMeta::default();
    for i in 0..tasks {
        let t = b.task_create(&m, 0, 0x100 + i);
        b.task_spawn(&m, t);
        b.task_begin(&m, t);
        // overlapping stripes so intersections are non-trivial
        for k in 0..16u64 {
            let base = 0x1_0000 + ((i % 8) * 64 + k * 8);
            b.record_access(&m, base, 8, k % 3 == 0);
        }
        b.task_end(&m, t);
    }
    b.finalize()
}

/// The workload the sweep exists for: many unordered tasks whose
/// footprints are mostly disjoint (per-task working sets), with small
/// overlap cliques. All-pairs checks every one of the ~tasks²/2 pairs;
/// the sweep only visits pairs that genuinely share addresses.
fn sparse_graph(tasks: u64) -> SegmentGraph {
    let mut b = GraphBuilder::new();
    let m = ThreadMeta::default();
    for i in 0..tasks {
        let t = b.task_create(&m, 0, 0x100 + i);
        b.task_spawn(&m, t);
        b.task_begin(&m, t);
        // private working set: 16 strided intervals nobody else touches
        for k in 0..16u64 {
            b.record_access(&m, 0x10_0000 + i * 0x1000 + k * 32, 8, true);
        }
        // cliques of 8 share one cache line
        b.record_access(&m, 0x100 + (i % 8) * 64, 8, true);
        b.task_end(&m, t);
    }
    b.finalize()
}

/// The access streams of the E12b ingestion rows.
#[derive(Clone, Copy)]
enum Stream {
    /// 3/4 dense sequential (absorbed in place by the push window), 1/4
    /// scattered (exercises the drain's sort + coalesce).
    Mixed,
    /// Four arrays read in lockstep, `a[i] + b[i] + c[i] + d[i]`: the
    /// mini-LULESH kernel shape, where consecutive accesses alternate
    /// between four dense runs.
    Interleaved,
}

/// Record `stream` through `record_access` on the bulk or per-access
/// path, including the finalize-time drain the bulk path defers to.
fn ingest(bulk: bool, stream: Stream, segs: u64, accesses_per_seg: u64) -> SegmentGraph {
    let mut b = GraphBuilder::new();
    b.set_bulk_ingest(bulk);
    let m = ThreadMeta::default();
    for i in 0..segs {
        let t = b.task_create(&m, 0, 0x100 + i);
        b.task_spawn(&m, t);
        b.task_begin(&m, t);
        for k in 0..accesses_per_seg {
            match stream {
                Stream::Mixed if k % 4 != 3 => {
                    b.record_access(&m, 0x10_0000 + i * 0x10000 + k * 8, 8, true)
                }
                Stream::Mixed => {
                    b.record_access(&m, 0x80_0000 + (k * 2654435761) % 0x10000, 4, false)
                }
                Stream::Interleaved => {
                    let array = 0x100_0000 + i * 0x10_0000 + (k % 4) * 0x4_0000;
                    b.record_access(&m, array + (k / 4) * 8, 8, false)
                }
            }
        }
        b.task_end(&m, t);
    }
    b.finalize()
}

/// Both ingestion paths must build identical segments: the same read
/// and write intervals and the same raw access counts.
fn assert_same_trees(stream: Stream) {
    let bulk = ingest(true, stream, 4, 256);
    let reference = ingest(false, stream, 4, 256);
    assert_eq!(bulk.segments.len(), reference.segments.len(), "segment counts differ");
    for (s, r) in bulk.segments.iter().zip(&reference.segments) {
        assert_eq!(s.reads, r.reads, "read trees of segment {} differ", s.id);
        assert_eq!(s.writes, r.writes, "write trees of segment {} differ", s.id);
    }
}

fn bench_parallel(c: &mut Criterion) {
    let mut g = c.benchmark_group("parallel_analysis");
    g.sample_size(10);
    let graph = wide_graph(192);
    let reach = Reachability::compute(&graph);
    let opts = SuppressOptions::default();

    g.bench_function("sequential", |b| {
        b.iter(|| std::hint::black_box(run(&graph, &reach, &opts).candidates.len()))
    });
    g.finish();
}

/// E12a: sweep vs the sequential all-pairs loop.
fn bench_sweep(c: &mut Criterion) {
    let mut g = c.benchmark_group("sweep_vs_allpairs");
    g.sample_size(10);
    let graph = sparse_graph(512);
    let reach = Reachability::compute(&graph);
    let opts = SuppressOptions::default();

    // sanity: both engines agree before we time them
    let a = run(&graph, &reach, &opts);
    let s = run_sweep(&graph, &reach, &opts, 1);
    assert_eq!(a.candidates, s.candidates, "engines disagree");

    g.bench_function("allpairs_1", |b| {
        b.iter(|| std::hint::black_box(run(&graph, &reach, &opts).candidates.len()))
    });
    g.bench_function("sweep_1", |b| {
        b.iter(|| std::hint::black_box(run_sweep(&graph, &reach, &opts, 1).candidates.len()))
    });
    g.finish();
}

/// E12b: bulk vs per-access ingestion of the same access stream, and
/// bulk ingestion of the interleaved multi-array stream.
fn bench_ingest(c: &mut Criterion) {
    let mut g = c.benchmark_group("access_ingestion");
    g.sample_size(10);
    assert_same_trees(Stream::Mixed);
    assert_same_trees(Stream::Interleaved);
    let run = |bulk, stream| ingest(bulk, stream, 64, 4096).segments.len();
    g.bench_function("per_access", |b| b.iter(|| std::hint::black_box(run(false, Stream::Mixed))));
    g.bench_function("bulk", |b| b.iter(|| std::hint::black_box(run(true, Stream::Mixed))));
    g.bench_function("interleaved", |b| {
        b.iter(|| std::hint::black_box(run(true, Stream::Interleaved)))
    });
    g.finish();
}

criterion_group!(benches, bench_parallel, bench_sweep, bench_ingest);
criterion_main!(benches);
