//! `tgrind lint` through the binary: the one command that runs the
//! static lockset and lock-order passes. A guest with a lock-order cycle
//! must exit 1, print the cycle, and count it in `--lint-json`.

use std::process::Command;

/// Two critical sections taken in opposite orders: a potential deadlock.
const DEADLOCK: &str = r#"
int main(void) {
    #pragma omp parallel
    {
        #pragma omp critical (a)
        {
            #pragma omp critical (b)
            { }
        }
        #pragma omp critical (b)
        {
            #pragma omp critical (a)
            { }
        }
    }
    return 0;
}
"#;

#[test]
fn lint_reports_a_lock_order_cycle() {
    let dir = std::env::temp_dir().join(format!("tgrind-lint-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let (src, json) = (dir.join("deadlock.c"), dir.join("lint.json"));
    std::fs::write(&src, DEADLOCK).expect("write guest source");
    let out = Command::new(env!("CARGO_BIN_EXE_tgrind"))
        .arg("lint")
        .arg(format!("--lint-json={}", json.display()))
        .arg(&src)
        .output()
        .expect("run tgrind lint");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(1), "findings exit 1\n{stdout}");
    let cycle = stdout
        .lines()
        .find(|l| l.contains("potential deadlock: lock-order cycle"))
        .unwrap_or_else(|| panic!("no cycle finding:\n{stdout}"));
    assert!(cycle.contains("deadlock.c:"), "anchored in the guest source: {cycle}");
    assert!(cycle.contains("critical section"), "{cycle}");

    let text = std::fs::read_to_string(&json).expect("--lint-json written");
    let doc = tg_obs::json::parse(&text).expect("lint json parses");
    let count = |key: &str| doc.get(key).and_then(|v| v.as_u64());
    assert!(count("lint.findings").unwrap_or(0) >= 1, "{text}");
    assert!(count("lint.locks").unwrap_or(0) >= 2, "both critical sections are locks: {text}");
    assert!(text.contains("potential deadlock"), "the cycle is in the dump: {text}");
    let _ = std::fs::remove_dir_all(&dir);
}
