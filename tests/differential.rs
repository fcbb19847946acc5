//! Differential and property tests across the whole stack:
//! randomly generated minic programs must (a) compile, (b) produce the
//! same result under the fast interpreter and under heavyweight DBI,
//! and (c) produce the same result when instrumented — instrumentation
//! must never change program semantics.

use grindcore::tool::{CountTool, NulTool};
use grindcore::{ExecMode, Vm, VmConfig};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Generate a random straight-line arithmetic program over a few locals
/// and one global array, ending in a checksum return.
fn gen_program(seed: u64, n_stmts: usize) -> String {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut body = String::new();
    body.push_str("int g[16];\nint main(void) {\n");
    body.push_str("    long v0 = 1; long v1 = 2; long v2 = 3; long v3 = 5;\n");
    for _ in 0..n_stmts {
        let dst = rng.random_range(0..4u32);
        let a = rng.random_range(0..4u32);
        let b = rng.random_range(0..4u32);
        let op = ["+", "-", "*", "&", "|", "^", "<<", ">>"][rng.random_range(0..8usize)];
        let shift_mask = if op == "<<" || op == ">>" { " & 15" } else { "" };
        match rng.random_range(0..4u32) {
            0 => body.push_str(&format!("    v{dst} = v{a} {op} (v{b}{shift_mask});\n")),
            1 => body.push_str(&format!("    g[v{a} & 15] = v{b} {op} (v{dst}{shift_mask});\n")),
            2 => body.push_str(&format!("    v{dst} = g[v{a} & 15] + v{b};\n")),
            _ => body.push_str(&format!(
                "    if (v{a} > v{b}) v{dst} = v{dst} + 1; else v{dst} = v{dst} - 1;\n"
            )),
        }
    }
    body.push_str("    long sum = v0 ^ v1 ^ v2 ^ v3;\n");
    body.push_str("    for (int i = 0; i < 16; i++) sum = sum ^ g[i];\n");
    body.push_str("    return sum & 255;\n}\n");
    body
}

fn run(module: &tga::module::Module, mode: ExecMode) -> (Option<i64>, u64) {
    let r = Vm::new(module.clone(), Box::new(NulTool), VmConfig::default()).run(mode, &[]);
    assert!(r.ok(), "{:?}", r.error);
    (r.exit_code, r.metrics.instrs)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Fast interpretation ≡ DBI emulation, instruction for instruction.
    #[test]
    fn fast_and_dbi_agree_on_random_programs(seed in 0u64..10_000, n in 4usize..40) {
        let src = gen_program(seed, n);
        let module = guest_rt::build_single("rand.c", &src)
            .unwrap_or_else(|e| panic!("generated program must compile: {e}\n{src}"));
        let fast = run(&module, ExecMode::Fast);
        let dbi = run(&module, ExecMode::Dbi);
        prop_assert_eq!(fast.0, dbi.0, "exit codes diverge:\n{}", src);
        prop_assert_eq!(fast.1, dbi.1, "instruction counts diverge:\n{}", src);
    }

    /// Instrumentation is semantically transparent.
    #[test]
    fn instrumentation_is_transparent(seed in 0u64..10_000, n in 4usize..40) {
        let src = gen_program(seed, n);
        let module = guest_rt::build_single("rand.c", &src).unwrap();
        let plain = run(&module, ExecMode::Dbi);
        let counted = Vm::new(module, Box::new(CountTool::default()), VmConfig::default())
            .run(ExecMode::Dbi, &[]);
        prop_assert!(counted.ok());
        prop_assert_eq!(plain.0, counted.exit_code);
        prop_assert_eq!(plain.1, counted.metrics.instrs);
    }

    /// Compilation is deterministic: identical source ⇒ identical binary.
    #[test]
    fn compilation_is_deterministic(seed in 0u64..10_000) {
        let src = gen_program(seed, 12);
        let a = guest_rt::build_single("d.c", &src).unwrap();
        let b = guest_rt::build_single("d.c", &src).unwrap();
        prop_assert_eq!(a.to_bytes(), b.to_bytes());
    }
}
