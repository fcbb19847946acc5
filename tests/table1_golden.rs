//! Golden-file test for all four tools' verdicts over the DRB/TMB corpus.
//!
//! The file (`tests/golden/table1.golden`) holds the rendered Table I
//! over the Table I corpus plus the extended kernels, then one line per
//! program and thread count with ROMP's and TaskSanitizer's raw outcome:
//! report count, ROMP's `segv` flag and every report line. Taskgrind,
//! ROMP and TaskSanitizer share one segment-graph builder, so a change
//! there that moves any tool's cell or report shows up here — bless
//! with `UPDATE_GOLDEN=1 cargo test --test table1_golden`.

use grindcore::VmConfig;
use minicc::SourceFile;
use std::fmt::Write as _;
use tg_baselines::{romp::run_romp, tasksan::run_tasksan};
use tg_drb::corpus::{corpus, BenchProgram, Suite};
use tg_drb::extra_corpus;

fn all_programs() -> Vec<BenchProgram> {
    let mut v = corpus();
    v.extend(extra_corpus());
    v
}

/// The baselines' outcomes at the thread counts Table I runs them at.
fn baseline_lines(programs: &[BenchProgram]) -> String {
    let mut out = String::new();
    for p in programs {
        let threads: &[u64] = match p.suite {
            Suite::Drb => &[4],
            Suite::Tmb => &[1, 4],
        };
        for &nt in threads {
            let cfg = VmConfig { nthreads: nt, ..Default::default() };
            let romp = match guest_rt::build_single(p.name, p.source) {
                Ok(m) => {
                    let r = run_romp(&m, &[], &cfg);
                    format!("{} segv {} {:?}", r.n_reports, r.segv, r.reports)
                }
                Err(_) => "ncs".to_string(),
            };
            let tsan_build = guest_rt::build_program_tsan(&[SourceFile::new(p.name, p.source)]);
            let tsan = match tsan_build {
                Ok(m) if !p.tasksan_ncs => {
                    let r = run_tasksan(&m, &[], &cfg);
                    format!("{} {:?}", r.n_reports, r.reports)
                }
                _ => "ncs".to_string(),
            };
            let _ = writeln!(out, "{}@{nt}: romp {romp}; tasksan {tsan}", p.name);
        }
    }
    out
}

#[test]
fn table1_matches_golden() {
    let programs = all_programs();
    let mut got = tg_drb::render(&tg_drb::table1(&programs));
    got.push_str(&baseline_lines(&programs));
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/table1.golden");
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(path, &got).expect("write golden");
        return;
    }
    let want = std::fs::read_to_string(path)
        .expect("tests/golden/table1.golden missing — bless with UPDATE_GOLDEN=1");
    assert_eq!(
        got, want,
        "Table I verdicts or baseline reports drifted from tests/golden/table1.golden; \
         if intentional, bless with UPDATE_GOLDEN=1 cargo test --test table1_golden"
    );
}
