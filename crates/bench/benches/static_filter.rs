//! Static-filter bench: instrumented-access counts and wall clock for
//! the recording phase with the `tga-analysis` pruning filter on vs
//! off, on mini-LULESH `-s 10`. The interesting numbers are printed
//! directly (sites pruned, dynamic accesses recorded) alongside the
//! criterion timings — the filter should cut recorded accesses without
//! changing any verdict (that invariant is enforced by
//! `tests/static_filter.rs`).

use criterion::{criterion_group, criterion_main, Criterion};
use std::sync::Arc;
use taskgrind::tool::RecordOptions;
use taskgrind::{check_module, TaskgrindConfig};
use tg_lulesh::harness::LuleshParams;
use tg_lulesh::LULESH_MC;

fn run_once(
    m: &tga::module::Module,
    args: &[&str],
    static_filter: bool,
    facts: Option<Arc<tga_analysis::StaticFacts>>,
) -> taskgrind::TaskgrindResult {
    let cfg = TaskgrindConfig {
        vm: grindcore::VmConfig { nthreads: 2, ..Default::default() },
        record: RecordOptions { static_filter, static_facts: facts, ..Default::default() },
        ..Default::default()
    };
    check_module(m, args, &cfg)
}

fn bench_static_filter(c: &mut Criterion) {
    let m = guest_rt::build_single("lulesh.c", LULESH_MC).expect("compiles");
    let p =
        LuleshParams { s: 10, tel: 2, tnl: 2, iters: 1, progress: false, racy: false, threads: 2 };
    let args_owned = p.args();
    let args: Vec<&str> = args_owned.iter().map(|s| s.as_str()).collect();

    // One-off comparison of the instrumentation counts.
    let facts = Arc::new(tga_analysis::analyze(&m));
    let on = run_once(&m, &args, true, Some(facts.clone()));
    let off = run_once(&m, &args, false, None);
    println!(
        "static_filter on : {:>6} sites pruned, {:>6} sites kept, {:>9} accesses recorded, rec {:.3}s",
        on.sites_pruned, on.sites_instrumented, on.accesses_recorded, on.recording_secs
    );
    println!(
        "static_filter off: {:>6} sites pruned, {:>6} sites kept, {:>9} accesses recorded, rec {:.3}s",
        off.sites_pruned, off.sites_instrumented, off.accesses_recorded, off.recording_secs
    );
    assert!(on.accesses_recorded < off.accesses_recorded);
    assert_eq!(on.n_reports(), off.n_reports());

    let mut g = c.benchmark_group("static_filter");
    g.sample_size(10);
    g.bench_function("lulesh_s10/filter_on", |b| {
        b.iter(|| {
            std::hint::black_box(run_once(&m, &args, true, Some(facts.clone())).accesses_recorded)
        })
    });
    g.bench_function("lulesh_s10/filter_off", |b| {
        b.iter(|| std::hint::black_box(run_once(&m, &args, false, None).accesses_recorded))
    });
    // Cost of the analysis itself, for the amortization argument: the
    // one a run computes, without the lockset pass only lint needs.
    g.bench_function("analyze_only", |b| {
        b.iter(|| {
            let facts = taskgrind::run_facts(&m, &RecordOptions::default());
            std::hint::black_box(facts.safe_pcs.len())
        })
    });
    g.finish();
}

criterion_group!(benches, bench_static_filter);
criterion_main!(benches);
