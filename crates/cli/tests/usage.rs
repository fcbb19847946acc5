//! The usage banner names every shipping flag, and engine switches that
//! no longer ship are usage errors, not silently ignored flags: each
//! exits 2 with the usage banner.

use std::process::Command;

/// Flags that once shipped and were removed.
const RETIRED: &[&str] = &[
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
    "--no-static-concurrency",
];

#[test]
fn retired_engine_switches_are_usage_errors() {
    for &flag in RETIRED {
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

#[test]
fn banner_names_every_declared_flag_and_no_retired_one() {
    let out = Command::new(env!("CARGO_BIN_EXE_tgrind")).output().expect("run tgrind");
    let banner = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "no program is a usage error\n{banner}");
    assert!(banner.contains("usage: tgrind"), "{banner}");
    for f in tg_cli::engine::FLAGS {
        let flag = f.flag.trim_matches('`');
        assert!(banner.contains(&format!("[{flag}]")), "banner misses {flag}\n{banner}");
    }
    for flag in RETIRED {
        let name = flag.split('=').next().unwrap();
        assert!(!banner.contains(name), "banner names retired {name}\n{banner}");
    }
}
