//! The committed guest runtime summary (`crates/guest-rt/sources/
//! runtime.summary`) is what the runtime's sources generate: the summary
//! lines of every runtime function a default Taskgrind run leaves
//! uninstrumented, from a build of the runtime alone. A run reads those
//! functions' effects from the table instead of analyzing them, and
//! falls back to the whole-module analysis when a fingerprint does not
//! match. So an edit to `crates/guest-rt/sources/*.mc` fails here until
//! it is re-blessed with `UPDATE_GOLDEN=1 cargo test --test
//! runtime_summary`, instead of silently costing every run its gain.

use taskgrind::tool::RecordOptions;

#[test]
fn runtime_summary_is_regenerated() {
    let runtime = guest_rt::build_runtime_only().expect("the runtime compiles");
    let record = RecordOptions::default();
    let got = tga_analysis::runsum::render(&runtime, |name| !record.instruments(name));
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/crates/guest-rt/sources/runtime.summary");
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(path, &got).expect("write runtime summary");
        return;
    }
    assert!(
        got == guest_rt::RUNTIME_SUMMARY,
        "crates/guest-rt/sources/runtime.summary is stale; after editing the runtime's \
         sources, bless it with UPDATE_GOLDEN=1 cargo test --test runtime_summary"
    );
    // A run with the default options takes the run path on the runtime
    // it summarizes.
    let facts = taskgrind::run_facts(&runtime, &record);
    assert_eq!(facts.scope, tga_analysis::FactsScope::Run);
}
