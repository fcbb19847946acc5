//! Engine switches that no longer ship are usage errors, not silently
//! ignored flags: each exits 2 with the usage banner.

use std::process::Command;

#[test]
fn retired_engine_switches_are_usage_errors() {
    for flag in [
        "--no-chaining",
        "--no-sweep",
        "--no-bulk",
        "--no-fuse",
        "--no-streaming",
        "--no-code-cache",
        "--parallel-analysis=2",
        "--streaming",
        "--max-live-segments=4",
        "--analysis-threads=2",
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_tgrind"))
            .args([flag, "p.c"])
            .output()
            .expect("run tgrind");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{flag}: {stderr}");
        assert!(stderr.contains(&format!("unknown option {flag}")), "{flag}: {stderr}");
        assert!(stderr.contains("usage: tgrind"), "{flag}: {stderr}");
        assert!(out.stdout.is_empty(), "{flag}: nothing on stdout");
    }
}
