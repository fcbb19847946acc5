//! `--metrics-json` and `--trace-out` work under every tool: a ROMP,
//! TaskSanitizer or Archer run writes the run's VM counters and engine
//! configuration, and its trace, as `none` and `taskgrind` runs do.

use std::process::Command;

const RACY: &str = "int main(void) {
    int i = 0;
    #pragma omp parallel
    {
        #pragma omp single
        {
            #pragma omp task shared(i)
            i = 1;
            #pragma omp task shared(i)
            i = 2;
        }
    }
    return 0;
}
";

#[test]
fn baselines_write_metrics_and_trace() {
    let dir = std::env::temp_dir().join(format!("tgrind-baseline-metrics-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let src = dir.join("racy.c");
    std::fs::write(&src, RACY).expect("write guest source");
    for tool in ["romp", "tasksan", "archer"] {
        let metrics = dir.join(format!("{tool}.metrics.json"));
        let trace = dir.join(format!("{tool}.trace.json"));
        let out = Command::new(env!("CARGO_BIN_EXE_tgrind"))
            .arg(format!("--tool={tool}"))
            .arg("--threads=2")
            .arg(format!("--metrics-json={}", metrics.display()))
            .arg(format!("--trace-out={}", trace.display()))
            .arg(&src)
            .output()
            .expect("run tgrind");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(out.status.code().is_some(), "{tool}: killed by a signal\n{stderr}");
        let json = std::fs::read_to_string(&metrics)
            .unwrap_or_else(|e| panic!("{tool}: no metrics file ({e})\n{stderr}"));
        for key in ["vm.instrs", "engine.self_profile"] {
            assert!(json.contains(&format!("\"{key}\"")), "{tool}: metrics lack {key}\n{json}");
        }
        let trace = std::fs::read_to_string(&trace)
            .unwrap_or_else(|e| panic!("{tool}: no trace file ({e})\n{stderr}"));
        assert!(trace.contains("traceEvents"), "{tool}: not a Chrome trace\n{trace}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
