//! E9 ablation: the per-segment interval set (paper §III-B, Fig. 3)
//! versus a naive interval list, on dense sweeps, sparse accesses and
//! pairwise intersection (the inner loop of Algorithm 1). Recording
//! fills a set with one `bulk_extend` drain of a segment's access buffer;
//! per-access `insert` is `O(n)` and serves only the reference path, so
//! its rows measure the oracle, not the recording path.

use criterion::{criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use taskgrind::itree::{IntervalTree, NaiveIntervalSet};

fn dense_inserts(n: u64) -> IntervalTree {
    let mut t = IntervalTree::new();
    for i in 0..n {
        t.insert(0x1000 + i * 8, 0x1000 + i * 8 + 8);
    }
    t
}

fn sparse_pairs(seed: u64, n: usize) -> Vec<(u64, u64)> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            let lo = rng.random_range(0u64..1_000_000) * 16;
            (lo, lo + rng.random_range(1u64..64))
        })
        .collect()
}

/// `v` in a seeded random order (Fisher–Yates).
fn shuffled(mut v: Vec<(u64, u64)>, seed: u64) -> Vec<(u64, u64)> {
    let mut rng = StdRng::seed_from_u64(seed);
    for i in (1..v.len()).rev() {
        v.swap(i, rng.random_range(0..i + 1));
    }
    v
}

fn bench_itree(c: &mut Criterion) {
    let mut g = c.benchmark_group("itree");

    g.bench_function("dense_sweep/tree/4096", |b| {
        b.iter(|| std::hint::black_box(dense_inserts(4096).len()))
    });
    g.bench_function("dense_sweep/naive/4096", |b| {
        b.iter(|| {
            let mut s = NaiveIntervalSet::default();
            for i in 0..4096u64 {
                s.insert(0x1000 + i * 8, 0x1000 + i * 8 + 8);
            }
            std::hint::black_box(s.normalized().len())
        })
    });

    let pairs = sparse_pairs(7, 4096);
    g.bench_function("sparse_insert/tree/4096", |b| {
        b.iter(|| {
            let mut t = IntervalTree::new();
            for &(lo, hi) in &pairs {
                t.insert(lo, hi);
            }
            std::hint::black_box(t.len())
        })
    });

    // the recording path: one drain per segment, of a buffer in access
    // order (each iteration also copies the 64 KiB batch it consumes)
    let dense: Vec<(u64, u64)> =
        (0..4096u64).map(|i| (0x1000 + i * 8, 0x1000 + i * 8 + 8)).collect();
    let dense = shuffled(dense, 5);
    g.bench_function("bulk_drain/dense_shuffled/4096", |b| {
        b.iter(|| {
            let mut t = IntervalTree::new();
            t.bulk_extend(dense.clone(), 4096);
            std::hint::black_box(t.len())
        })
    });
    g.bench_function("bulk_drain/sparse/4096", |b| {
        b.iter(|| {
            let mut t = IntervalTree::new();
            t.bulk_extend(pairs.clone(), 4096);
            std::hint::black_box(t.len())
        })
    });

    // intersection: the hot operation of Algorithm 1
    let mut a = IntervalTree::new();
    let mut na = NaiveIntervalSet::default();
    for &(lo, hi) in &sparse_pairs(11, 2048) {
        a.insert(lo, hi);
        na.insert(lo, hi);
    }
    let mut b2 = IntervalTree::new();
    let mut nb = NaiveIntervalSet::default();
    for &(lo, hi) in &sparse_pairs(13, 2048) {
        b2.insert(lo, hi);
        nb.insert(lo, hi);
    }
    g.bench_function("intersects/tree/2048x2048", |bch| {
        bch.iter(|| std::hint::black_box(a.intersects(&b2)))
    });
    g.bench_function("intersects/naive/2048x2048", |bch| {
        bch.iter(|| std::hint::black_box(na.intersects(&nb)))
    });
    // every overlapping range, as the analysis asks for each pair
    g.bench_function("intersect/tree/2048x2048", |bch| {
        bch.iter(|| std::hint::black_box(a.intersect(&b2).len()))
    });
    g.finish();
}

criterion_group!(benches, bench_itree);
criterion_main!(benches);
