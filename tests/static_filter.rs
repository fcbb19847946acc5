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
