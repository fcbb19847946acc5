//! DBI-substrate ablation: where the ~100x of Table II comes from.
//! The same guest kernel under (a) the fast interpreter, (b) heavyweight
//! DBI with no tool ("nulgrind"), (c) DBI with access counting
//! ("lackey"), and (d) the full Taskgrind recording pass — plus the
//! dispatch ablation: nulgrind with superblock chaining on vs. the
//! reference probe-every-block dispatcher, on the synthetic
//! kernel and on the Table II mini-LULESH kernel.

use criterion::{criterion_group, criterion_main, Criterion};
use grindcore::tool::{CountTool, NulTool};
use grindcore::{ExecMode, Vm, VmConfig};
use taskgrind::tool::{RecordOptions, TaskgrindTool};
use tg_lulesh::LULESH_MC;

const KERNEL: &str = r#"
int main(void) {
    long n = 20000;
    long *a = (long*) malloc(n * 8);
    long i = 0;
    while (i < n) { a[i] = i; i = i + 1; }
    long sum = 0;
    i = 0;
    while (i < n) { sum = sum + a[i] * 3 - (a[i] >> 1); i = i + 1; }
    return sum & 127;
}
"#;

fn bench_dbi(c: &mut Criterion) {
    let module = guest_rt::build_single("kernel.c", KERNEL).unwrap();
    let mut g = c.benchmark_group("dbi_overhead");
    g.sample_size(10);

    g.bench_function("fast_interpreter", |b| {
        b.iter(|| {
            let r = Vm::new(module.clone(), Box::new(NulTool), VmConfig::default())
                .run(ExecMode::Fast, &[]);
            assert!(r.ok());
            std::hint::black_box(r.metrics.instrs)
        })
    });
    g.bench_function("dbi_nulgrind", |b| {
        b.iter(|| {
            let r = Vm::new(module.clone(), Box::new(NulTool), VmConfig::default())
                .run(ExecMode::Dbi, &[]);
            assert!(r.ok());
            assert!(r.metrics.dispatch.chain_hits > 0);
            std::hint::black_box(r.metrics.instrs)
        })
    });
    g.bench_function("dbi_nulgrind_nochain", |b| {
        b.iter(|| {
            let cfg = VmConfig { chaining: false, ..Default::default() };
            let r = Vm::new(module.clone(), Box::new(NulTool), cfg).run(ExecMode::Dbi, &[]);
            assert!(r.ok());
            assert_eq!(r.metrics.dispatch.chain_hits, 0);
            std::hint::black_box(r.metrics.instrs)
        })
    });
    g.bench_function("dbi_countgrind", |b| {
        b.iter(|| {
            let r = Vm::new(module.clone(), Box::new(CountTool::default()), VmConfig::default())
                .run(ExecMode::Dbi, &[]);
            assert!(r.ok());
            std::hint::black_box(r.metrics.instrs)
        })
    });
    g.bench_function("dbi_taskgrind_recording", |b| {
        b.iter(|| {
            let tool = TaskgrindTool::new(RecordOptions::default());
            let r = Vm::new(module.clone(), Box::new(tool), VmConfig::default())
                .run(ExecMode::Dbi, &[]);
            assert!(r.ok());
            std::hint::black_box(r.metrics.instrs)
        })
    });
    g.finish();
}

/// The dispatch ablation on the Table II kernel itself: mini-LULESH
/// under nulgrind, chaining on vs. off. This is the pair behind the
/// EXPERIMENTS.md dispatch-overhead entry.
fn bench_lulesh_dispatch(c: &mut Criterion) {
    let module = guest_rt::build_single("lulesh.c", LULESH_MC).unwrap();
    // Four solver iterations so steady-state dispatch dominates the
    // one-time translation and mesh-setup cost; at `-i 1` roughly half
    // the run is startup and the chaining win is diluted below 1.2x.
    let args = ["-s", "10", "-tel", "2", "-tnl", "2", "-i", "4"];
    let mut g = c.benchmark_group("dbi_overhead");
    g.sample_size(10);

    g.bench_function("lulesh_nulgrind_chained", |b| {
        b.iter(|| {
            let r = Vm::new(module.clone(), Box::new(NulTool), VmConfig::default())
                .run(ExecMode::Dbi, &args);
            assert!(r.ok());
            assert!(r.metrics.dispatch.chain_hits > 0);
            std::hint::black_box(r.metrics.instrs)
        })
    });
    g.bench_function("lulesh_nulgrind_nochain", |b| {
        b.iter(|| {
            let cfg = VmConfig { chaining: false, ..Default::default() };
            let r = Vm::new(module.clone(), Box::new(NulTool), cfg).run(ExecMode::Dbi, &args);
            assert!(r.ok());
            std::hint::black_box(r.metrics.instrs)
        })
    });
    g.finish();
}

criterion_group!(benches, bench_dbi, bench_lulesh_dispatch);
criterion_main!(benches);
