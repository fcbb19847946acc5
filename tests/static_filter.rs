//! Differential test for the static instrumentation filter: pruning
//! statically-proven thread-private / read-only accesses must not
//! change a single race verdict on the Table I corpus. This is the
//! soundness contract of `tga-analysis` — the filter may only drop
//! records that Algorithm 1 would have suppressed (same-thread stack
//! segments) or that cannot conflict at all (never-written globals).
//! The same loop pins Taskgrind's Table I column against ground truth.

use taskgrind::tool::RecordOptions;
use taskgrind::{check_module, TaskgrindConfig, TaskgrindResult};
use tg_drb::corpus::{corpus, Suite};

fn check(m: &tga::module::Module, nthreads: u64, static_filter: bool) -> TaskgrindResult {
    let cfg = TaskgrindConfig {
        vm: grindcore::VmConfig { nthreads, ..Default::default() },
        record: RecordOptions { static_filter, ..Default::default() },
        ..Default::default()
    };
    check_module(m, &[], &cfg)
}

#[test]
fn static_filter_preserves_all_table1_verdicts() {
    let mut pruned_total = 0u64;
    let mut recorded_on = 0u64;
    let mut recorded_off = 0u64;
    for p in corpus() {
        let Ok(m) = guest_rt::build_single(p.name, p.source) else {
            continue; // ncs entries stay ncs either way
        };
        let threads: &[u64] = match p.suite {
            Suite::Drb => &[4],
            Suite::Tmb => &[1, 4],
        };
        for &nt in threads {
            let with = check(&m, nt, true);
            let without = check(&m, nt, false);
            assert_eq!(
                with.run.deadlock, without.run.deadlock,
                "{} ({} threads): deadlock outcome changed",
                p.name, nt
            );
            assert_eq!(
                with.n_reports() > 0,
                without.n_reports() > 0,
                "{} ({} threads): race verdict changed by static filter\nwith:\n{}\nwithout:\n{}",
                p.name,
                nt,
                with.render_all(),
                without.render_all()
            );
            assert_eq!(
                with.n_reports(),
                without.n_reports(),
                "{} ({} threads): report count changed by static filter",
                p.name,
                nt
            );
            // Table I's Taskgrind column: every verdict follows ground
            // truth except the DRB101 false positive and the DRB129
            // false negative (a merged task no dynamic tool can see)
            let expected = match p.name {
                "101-task-value-orig" => true,
                "129-mergeable-taskwait-orig" => false,
                _ => p.racy,
            };
            assert_eq!(
                with.n_reports() > 0,
                expected,
                "{} ({} threads): verdict differs from Table I\n{}",
                p.name,
                nt,
                with.render_all()
            );
            assert_eq!(without.sites_pruned, 0, "filter off must prune nothing");
            assert!(
                with.accesses_recorded <= without.accesses_recorded,
                "{} ({} threads): filter may only reduce recorded accesses",
                p.name,
                nt
            );
            pruned_total += with.sites_pruned;
            recorded_on += with.accesses_recorded;
            recorded_off += without.accesses_recorded;
        }
    }
    assert!(pruned_total > 0, "the filter must actually prune sites somewhere");
    assert!(
        recorded_on < recorded_off,
        "pruning must reduce dynamic records overall ({recorded_on} vs {recorded_off})"
    );
}

/// Every guest the benchmark runs: the Table I and extended kernels,
/// the BOTS workloads and mini-LULESH.
fn run_path_guests() -> Vec<(&'static str, &'static str)> {
    let mut v: Vec<(&str, &str)> = corpus().into_iter().map(|p| (p.name, p.source)).collect();
    v.extend(tg_drb::extra_corpus().into_iter().map(|p| (p.name, p.source)));
    v.extend(tg_drb::bots::bots_corpus().into_iter().map(|p| (p.name, p.source)));
    v.push(("mini-lulesh", tg_lulesh::LULESH_MC));
    v
}

/// A run analyzes without the lockset and lock-order passes
/// (`taskgrind::RUN_ANALYZE_OPTS`). That is sound only while the pass
/// changes no fact a run or the filter's statistics read: on every
/// benchmark guest, the facts with and without it agree on everything
/// but the lock facts.
#[test]
fn concurrency_pass_changes_no_run_fact() {
    let on = tga_analysis::AnalyzeOpts { concurrency: true };
    let mut guarded = 0;
    for (name, source) in run_path_guests() {
        let Ok(m) = guest_rt::build_single(name, source) else {
            continue;
        };
        let run = tga_analysis::analyze_with(&m, &taskgrind::RUN_ANALYZE_OPTS);
        let full = tga_analysis::analyze_with(&m, &on);
        assert_eq!(run.safe_pcs, full.safe_pcs, "{name}: safe_pcs");
        assert_eq!(run.ro, full.ro, "{name}: read-only globals");
        assert_eq!(run.init_only, full.init_only, "{name}: init-only globals");
        assert_eq!(run.access_pcs, full.access_pcs, "{name}: access pcs");
        assert!(run.guarded.is_empty() && run.lock_universe.is_empty(), "{name}: no lock facts");
        guarded += full.guarded.len();
    }
    assert!(guarded > 0, "some benchmark guest must have guarded sites for this to test");
}

/// What the recording run reads from the static facts it computes: for
/// every load, store and atomic in a function Taskgrind instruments
/// (outside the default ignore-list) and that can run (reachable from
/// the entry point or an address-taken function, the assumption spawn
/// reachability already makes), whether the site may skip recording
/// (`s`). One line per function, the site named by its instruction
/// index from the function's entry.
fn render_run_path_facts() -> String {
    use std::fmt::Write as _;
    use tga::module::SymKind;
    use tga::{Op, INST_SIZE};
    let ignore = taskgrind::tool::default_ignore_list();
    let mut out = String::new();
    for (name, source) in run_path_guests() {
        let Ok(m) = guest_rt::build_single(name, source) else {
            let _ = writeln!(out, "{name}: does-not-compile");
            continue;
        };
        let facts = tga_analysis::analyze_with(&m, &taskgrind::RUN_ANALYZE_OPTS);
        let cfg = tga_analysis::cfg::recover(&m);
        let dead: Vec<u64> = cfg.unreachable.iter().map(|&i| cfg.funcs[i].lo).collect();
        let mut funcs: Vec<_> = m
            .symbols
            .iter()
            .filter(|s| s.kind == SymKind::Func && !dead.contains(&s.addr))
            .filter(|s| !ignore.iter().any(|p| grindcore::tool::pattern_matches(p, &s.name)))
            .collect();
        funcs.sort_by_key(|s| s.addr);
        for f in funcs {
            let _ = write!(out, "{name} {}:", f.name);
            let mut pc = f.addr;
            while pc < f.addr + f.size {
                let inst = m.fetch(pc).expect("function instructions decode");
                let write = match inst.op {
                    Op::Ld | Op::Lb => false,
                    Op::St | Op::Sb | Op::Cas | Op::Amoadd => true,
                    _ => {
                        pc += INST_SIZE;
                        continue;
                    }
                };
                let _ = write!(out, " {}", (pc - f.addr) / INST_SIZE);
                if facts.is_safe_access(pc, write) {
                    out.push('s');
                }
                pc += INST_SIZE;
            }
            out.push('\n');
        }
    }
    out
}

/// The static facts the recording run consumes stay fixed on every
/// benchmark guest: a change to the analysis that moves one of them is
/// a conscious decision, blessed with `UPDATE_GOLDEN=1 cargo test
/// --test static_filter`.
#[test]
fn run_path_facts_match_golden() {
    let got = render_run_path_facts();
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/run_path_facts.golden");
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(path, &got).expect("write golden");
        return;
    }
    let want = std::fs::read_to_string(path)
        .expect("tests/golden/run_path_facts.golden missing — bless with UPDATE_GOLDEN=1");
    assert!(
        got == want,
        "run-path static facts drifted from tests/golden/run_path_facts.golden; \
         if intentional, bless with UPDATE_GOLDEN=1 cargo test --test static_filter"
    );
}
