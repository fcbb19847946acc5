//! Allocation sites in race reports (paper §IV-B, Listing 6).
//!
//! Taskgrind's allocator replacement records where each heap block was
//! allocated, and a report on a racy heap block names that `file:line`.
//! These tests pin the rendered reports of the benchmark guests whose
//! reports name a heap block, plus a deep-recursion guest
//! (`tests/golden/alloc_sites.golden`, bless with `UPDATE_GOLDEN=1
//! cargo test --test alloc_sites`), and check that tracking a block
//! costs the same however deep the allocating call stack is.

use tg_engine::{Program, RunOutcome, RunRequest, Session};

/// Recurses `argv[1]` levels in user code, allocates a block at the
/// bottom and lets two sibling tasks write it without ordering. The
/// bottom frame exits instead of returning: each return reloads the
/// saved frame pointer, an access the static filter keeps, and those
/// would make the recorded accesses grow with the depth too.
const DEEP_ALLOC: &str = r#"int *block;

void grow(int depth) {
    if (depth > 0) {
        grow(depth - 1);
    }
    block = (int *) malloc(4 * sizeof(int));
    #pragma omp task
    block[0] = 1;
    #pragma omp task
    block[0] = 2;
    #pragma omp taskwait
    exit(0);
}

int main(int argc, char **argv) {
    int depth = atoi(argv[1]);
    #pragma omp parallel num_threads(2)
    {
        #pragma omp single
        grow(depth);
    }
    return 0;
}
"#;

/// One Taskgrind job of the golden set.
struct Job {
    label: String,
    name: &'static str,
    source: &'static str,
    threads: u64,
    args: &'static str,
    no_ignore: bool,
}

fn job(name: &'static str, source: &'static str, threads: u64, args: &'static str) -> Job {
    Job { label: format!("{name}@{threads} {args}"), name, source, threads, args, no_ignore: false }
}

/// Every job whose reports name a heap block: racy SparseLU, racy
/// mini-LULESH, and the deep-recursion guest with and without the
/// ignore list, at sizes that keep debug builds quick.
fn golden_jobs() -> Vec<Job> {
    let mut jobs = vec![
        job("sparselu.c", tg_drb::bots::SPARSELU_MC, 2, "-nb 4 -racy"),
        job("lulesh.c", tg_lulesh::LULESH_MC, 1, "-s 4 -tel 2 -tnl 2 -i 2 -racy"),
    ];
    for depth in ["10", "2000"] {
        for no_ignore in [false, true] {
            let mut j = job("deep.c", DEEP_ALLOC, 2, depth);
            if no_ignore {
                j.label.push_str(" --no-ignore-list");
            }
            j.no_ignore = no_ignore;
            jobs.push(j);
        }
    }
    jobs
}

fn run(j: &Job) -> RunOutcome {
    let req = RunRequest {
        program: Program::Source { name: j.name.into(), text: j.source.into() },
        threads: j.threads,
        no_ignore: j.no_ignore,
        guest_args: j.args.split_whitespace().map(String::from).collect(),
        ..Default::default()
    };
    Session::new().run(&req).unwrap_or_else(|e| panic!("{}: {e}", j.label))
}

fn render_golden() -> String {
    let mut out = String::new();
    for j in golden_jobs() {
        let o = run(&j);
        out.push_str(&format!("== {}: exit {}, {} report(s)\n", j.label, o.exit, o.n_reports));
        out.push_str(&o.report);
    }
    out
}

/// The rendered reports, allocation-site lines included, stay
/// byte-identical.
#[test]
fn alloc_site_reports_match_golden() {
    let got = render_golden();
    assert!(got.contains("allocated in block"), "the golden jobs must name heap blocks");
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/alloc_sites.golden");
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(path, &got).expect("write golden");
        return;
    }
    let want = std::fs::read_to_string(path)
        .expect("tests/golden/alloc_sites.golden missing — bless with UPDATE_GOLDEN=1");
    assert!(
        got == want,
        "allocation-site reports drifted from tests/golden/alloc_sites.golden; \
         if intentional, bless with UPDATE_GOLDEN=1 cargo test --test alloc_sites"
    );
}

/// The function table the allocator replacement builds once per run
/// gives, on every code address of the golden guests, the answer of a
/// `find_func` scan plus an ignore-pattern match.
#[test]
fn function_table_agrees_with_find_func() {
    use tga::module::FuncTable;
    let guests = [
        ("sparselu.c", tg_drb::bots::SPARSELU_MC),
        ("lulesh.c", tg_lulesh::LULESH_MC),
        ("deep.c", DEEP_ALLOC),
    ];
    for (name, source) in guests {
        let m = guest_rt::build_single(name, source).expect("compiles");
        for ignore in [taskgrind::tool::default_ignore_list(), Vec::new()] {
            let table = taskgrind::report::user_funcs(&FuncTable::new(&m), &m, &ignore);
            let mut pc = m.code_base;
            while pc <= m.code_end() {
                let want = m
                    .find_func(pc)
                    .map(|f| !ignore.iter().any(|p| grindcore::tool::pattern_matches(p, &f.name)));
                assert_eq!(table.get(pc), want, "{name} at {pc:#x}");
                pc += tga::INST_SIZE;
            }
        }
    }
}

/// The module function table the VM names translated blocks with finds,
/// on every code address of runtime-linked guests and one past the end,
/// the very symbol a `find_func` scan finds.
#[test]
fn module_function_table_finds_what_find_func_finds() {
    use tga::module::FuncTable;
    for (name, source) in
        [("sparselu.c", tg_drb::bots::SPARSELU_MC), ("lulesh.c", tg_lulesh::LULESH_MC)]
    {
        let m = guest_rt::build_single(name, source).expect("compiles");
        let table = FuncTable::new(&m);
        assert!(m.symbols.len() > 50, "{name}: the runtime links in many functions");
        let mut pc = m.code_base;
        while pc <= m.code_end() {
            let (got, want) = (table.find(&m, pc), m.find_func(pc));
            assert!(
                got.map(std::ptr::from_ref) == want.map(std::ptr::from_ref),
                "{name} at {pc:#x}"
            );
            pc += tga::INST_SIZE;
        }
        assert!(table.find(&m, m.code_end()).is_none(), "{name}: one past the end");
    }
}

/// A block allocated D frames deep costs the tool no more than one
/// allocated near the top: the reports name the same `malloc` line and
/// `taskgrind.tool_bytes` grows by less than one word per extra frame.
#[test]
fn allocation_tracking_does_not_grow_with_call_depth() {
    let at = |depth: &'static str| {
        let o = run(&job("deep.c", DEEP_ALLOC, 2, depth));
        assert_eq!(o.exit, 1, "depth {depth}: the sibling tasks race on the block");
        let sites: Vec<String> =
            o.report.lines().filter(|l| l.starts_with("from ")).map(String::from).collect();
        (sites, o.registry.u64("taskgrind.tool_bytes"))
    };
    let (shallow, shallow_bytes) = at("10");
    let (deep, deep_bytes) = at("2000");
    assert_eq!(shallow, ["from deep.c:7"], "names the malloc line");
    assert_eq!(deep, shallow, "the allocation site does not depend on the depth");
    let grown = deep_bytes.saturating_sub(shallow_bytes);
    assert!(
        grown < 8 * 2000,
        "tool bytes grew {grown} B from depth 10 to 2000 ({shallow_bytes} -> {deep_bytes})"
    );
}
