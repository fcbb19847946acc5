//! A guest write of an absurd length is a guest fault like any other: under
//! every tool, `tgrind` exits with the status a division by zero gets,
//! instead of aborting on the host allocation (SIGABRT, shell status 134).

use std::process::{Command, Output};

const OVERSIZED_WRITE: &str = "int main(void) {
    char *s = \"x\";
    __sys(1, 1, s, 4611686018427387904);
    return 0;
}
";

const DIVIDE_BY_ZERO: &str = "int main(void) { int z = 0; return 5 / z; }\n";

fn run(dir: &std::path::Path, tool: &str, name: &str, src: &str) -> Output {
    let path = dir.join(name);
    std::fs::write(&path, src).expect("write guest source");
    Command::new(env!("CARGO_BIN_EXE_tgrind"))
        .arg(format!("--tool={tool}"))
        .arg(&path)
        .output()
        .expect("run tgrind")
}

#[test]
fn oversized_write_exits_like_other_guest_faults() {
    let dir = std::env::temp_dir().join(format!("tgrind-guest-faults-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    for tool in ["none", "taskgrind", "archer", "tasksan", "romp"] {
        let write = run(&dir, tool, "write.c", OVERSIZED_WRITE);
        let div = run(&dir, tool, "div.c", DIVIDE_BY_ZERO);
        let stderr = String::from_utf8_lossy(&write.stderr);
        assert!(write.status.code().is_some(), "{tool}: killed by a signal\n{stderr}");
        assert_eq!(write.status.code(), div.status.code(), "{tool}: {stderr}");
        assert!(write.stdout.is_empty(), "{tool}: the faulting write printed nothing");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
