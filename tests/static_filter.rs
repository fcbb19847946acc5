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

/// What the recording run reads from the static facts it computes
/// ([`taskgrind::run_facts`]): for every load, store and atomic in a
/// function Taskgrind instruments (outside the default ignore-list) and
/// that can run (reachable from the entry point or an address-taken
/// function, the assumption spawn reachability already makes), whether
/// the site may skip recording (`s`). One line per function, the site
/// named by its instruction index from the function's entry.
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
        let facts = taskgrind::run_facts(&m, &RecordOptions::default());
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

/// Every guest pc a run with `record` may translate into an
/// instrumented superblock: the VM instruments the superblock at `pc`
/// when no function covers `pc` or `record` instruments the covering
/// one, and the superblock runs on to its first block end, past its
/// function's end if the function's last instruction falls through.
fn instrumented_pcs(m: &tga::module::Module, record: &RecordOptions) -> Vec<u64> {
    use vex_ir::Stmt;
    let funcs = tga::module::FuncTable::new(m);
    let mut pcs = Vec::new();
    for pc in m.code_range().step_by(tga::INST_SIZE as usize) {
        if funcs.find(m, pc).is_some_and(|f| !record.instruments(&f.name)) {
            continue;
        }
        let Ok(block) = grindcore::lift::lift_superblock(m, pc) else { continue };
        pcs.extend(block.stmts.iter().filter_map(|s| match s {
            Stmt::IMark { addr, .. } => Some(*addr),
            _ => None,
        }));
    }
    pcs.sort_unstable();
    pcs.dedup();
    pcs
}

/// The first pc on which two tables of facts disagree, among `pcs`.
fn first_disagreement(
    pcs: &[u64],
    a: &tga_analysis::StaticFacts,
    b: &tga_analysis::StaticFacts,
) -> Option<u64> {
    pcs.iter().copied().find(|&pc| a.is_safe_access(pc, false) != b.is_safe_access(pc, false))
}

/// The run-path analysis, which reads the guest runtime from its
/// committed summary, answers exactly like the whole-module analysis
/// (`analyze_with(&RUN_ANALYZE_OPTS)`, its oracle) on every pc a default
/// run may instrument, on every benchmark guest. And every benchmark
/// guest takes the run path, so a summary that stopped matching the
/// runtime could not silently cost the runs their gain.
#[test]
fn run_path_facts_match_the_whole_module_on_instrumented_pcs() {
    let record = RecordOptions::default();
    let mut compared = 0;
    for (name, source) in run_path_guests() {
        let Ok(m) = guest_rt::build_single(name, source) else {
            continue;
        };
        let run = taskgrind::run_facts(&m, &record);
        assert_eq!(run.scope, tga_analysis::FactsScope::Run, "{name}: took the whole-module path");
        let whole = tga_analysis::analyze_with(&m, &taskgrind::RUN_ANALYZE_OPTS);
        let pcs = instrumented_pcs(&m, &record);
        assert_eq!(first_disagreement(&pcs, &run, &whole), None, "{name}");
        compared += pcs.len();
    }
    assert!(compared > 10_000, "the differential covers the guests' code ({compared} pcs)");
}

/// A guest whose parallel region opens a nested one: its outlined
/// function is address-taken and may spawn, which no benchmark guest
/// has. Then every runtime function with an indirect call may spawn
/// (`SpawnFact::IfTakenSpawns`), so the write after `taskwait` below
/// runs after a spawn, and `g` is not init-only. Without the nested
/// region it is. The run path re-solves the spawn facts per program, so
/// it must answer like the whole module on both.
#[test]
fn nested_parallel_spawn_facts_compose_exactly() {
    const NESTED: &str = r#"
long g;
long h;
int main(void) {
    #pragma omp taskwait
    g = 1;
    #pragma omp parallel num_threads(2)
    {
        #pragma omp parallel num_threads(2)
        { h = g; }
    }
    return (int) g;
}
"#;
    let flat = NESTED.replacen("#pragma omp parallel num_threads(2)\n        {", "{", 1);
    let record = RecordOptions::default();
    let mut init_only = Vec::new();
    for (name, source) in [("nested.c", NESTED), ("flat.c", flat.as_str())] {
        let m = guest_rt::build_single(name, source).expect("compiles");
        let run = taskgrind::run_facts(&m, &record);
        let whole = tga_analysis::analyze_with(&m, &taskgrind::RUN_ANALYZE_OPTS);
        assert_eq!(run.scope, tga_analysis::FactsScope::Run, "{name}");
        let pcs = instrumented_pcs(&m, &record);
        assert_eq!(first_disagreement(&pcs, &run, &whole), None, "{name}");
        let g_init_only = |f: &tga_analysis::StaticFacts| f.init_only.iter().any(|r| r.name == "g");
        assert_eq!(g_init_only(&run), g_init_only(&whole), "{name}");
        init_only.push(g_init_only(&whole));
    }
    assert_eq!(init_only, [false, true], "only the nested spawn makes `g` post-spawn");
}

/// A module whose runtime differs from the summary analyzes the whole
/// module, and so does a run that instruments a summarized function.
/// Moving a data address the runtime names does not count as a
/// difference: the fingerprint masks it.
#[test]
fn mismatching_runtime_takes_the_whole_module_path() {
    use tga::Op;
    let m = guest_rt::build_single("basic.c", "int g; int main(void) { g = 1; return g; }")
        .expect("compiles");
    let record = RecordOptions::default();
    let scope = |m: &tga::module::Module, record: &RecordOptions| {
        let facts = taskgrind::run_facts(m, record);
        let whole = tga_analysis::analyze_with(m, &taskgrind::RUN_ANALYZE_OPTS);
        assert!(facts.safe_pcs.is_subset(&whole.safe_pcs));
        facts.scope
    };
    assert_eq!(scope(&m, &record), tga_analysis::FactsScope::Run);

    let no_ignore = RecordOptions { ignore_list: Vec::new(), ..Default::default() };
    assert_eq!(scope(&m, &no_ignore), tga_analysis::FactsScope::Module);

    let barrier = m.symbol_by_name("__kmp_barrier").expect("runtime linked in").clone();
    let first = ((barrier.addr - m.code_base) / tga::INST_SIZE) as usize;
    let last = first + (barrier.size / tga::INST_SIZE) as usize;
    let mut edited = m.clone();
    let at = (first..last).find(|&i| edited.code[i].op == Op::Addi).expect("an addi");
    edited.code[at].imm += 8;
    assert_eq!(scope(&edited, &record), tga_analysis::FactsScope::Module);

    let mut moved = m.clone();
    let at = (first..last)
        .find(|&i| moved.code[i].op == Op::Li && moved.is_data_addr(moved.code[i].imm as u64))
        .expect("the barrier names runtime data");
    moved.code[at].imm += 8;
    assert_eq!(scope(&moved, &record), tga_analysis::FactsScope::Run);
}

/// User code may name the runtime's globals (`extern`). The run path
/// does not see the runtime's writes to them, so it must not classify
/// an access to one as read-only: every data symbol summarized code
/// names counts as escaped.
#[test]
fn runtime_globals_named_by_user_code_stay_recorded() {
    const NAMES_RUNTIME_DATA: &str = r#"
extern long __kmp_team_size;
long seen;
int main(void) {
    #pragma omp parallel num_threads(2)
    { seen = __kmp_team_size; }
    return (int) seen;
}
"#;
    let m = guest_rt::build_single("extern.c", NAMES_RUNTIME_DATA).expect("compiles");
    let record = RecordOptions::default();
    let run = taskgrind::run_facts(&m, &record);
    let whole = tga_analysis::analyze_with(&m, &taskgrind::RUN_ANALYZE_OPTS);
    assert_eq!(run.scope, tga_analysis::FactsScope::Run);
    assert!(!run.ro.iter().chain(&run.init_only).any(|r| r.name == "__kmp_team_size"));
    let pcs = instrumented_pcs(&m, &record);
    assert_eq!(first_disagreement(&pcs, &run, &whole), None);
}

/// One session, one source: a default run, a `--no-ignore-list` run,
/// then `lint`. The facts memo is keyed by what decides the facts'
/// scope, so the later two do not reuse the default run's run-path
/// facts: each matches a fresh session's output.
#[test]
fn session_memo_keeps_run_path_facts_to_default_runs() {
    use tg_engine::{Program, RunRequest, Session};
    let program = Program::Source {
        name: "memo.c".into(),
        text: r#"
long *p;
int main(void) {
    long x = 0;
    p = &x;
    #pragma omp parallel num_threads(2)
    {
        #pragma omp single
        {
            #pragma omp task
            x = x + 1;
            #pragma omp task
            x = x + 2;
        }
    }
    return (int) x;
}
"#
        .into(),
    };
    let default = RunRequest { program: program.clone(), threads: 2, ..RunRequest::default() };
    let no_ignore = RunRequest { no_ignore: true, ..default.clone() };
    let shared = Session::new();
    let view = |o: &tg_engine::RunOutcome| {
        (
            o.stdout.clone(),
            o.report.clone(),
            o.exit,
            o.registry.u64("filter.sites_pruned"),
            o.registry.u64("filter.sites_instrumented"),
            o.registry.u64("filter.accesses_recorded"),
            o.registry.str("filter.facts_scope").to_string(),
        )
    };
    let first = view(&shared.run(&default).expect("default run"));
    let second = view(&shared.run(&no_ignore).expect("no-ignore run"));
    let lint = shared.lint(&program).expect("lint").report;
    assert_eq!(first.6, "run");
    assert_eq!(second.6, "module");
    assert_eq!(first, view(&Session::new().run(&default).expect("fresh default run")));
    assert_eq!(second, view(&Session::new().run(&no_ignore).expect("fresh no-ignore run")));
    assert_eq!(lint, Session::new().lint(&program).expect("fresh lint").report);
    assert_ne!(first.3, second.3, "the two runs prune different site counts");
}
