//! The §IV motivation experiment (E6): how many "determinacy races" the
//! naive tool reports on a small LULESH (the paper: ~400,000 with
//! `-s 4 -tel 2`), and how much each false-positive suppression layer
//! removes.
//!
//! Usage: `cargo run -p tg-lulesh --bin suppression_ablation --release`

use taskgrind::analysis::SuppressOptions;
use taskgrind::tool::default_ignore_list;
use tg_lulesh::harness::{measure_taskgrind_suppression, LuleshParams};

fn main() {
    // the paper's naive-run configuration
    let params =
        LuleshParams { s: 4, tel: 2, tnl: 2, iters: 2, progress: false, racy: false, threads: 1 };
    let all_on = SuppressOptions::default();
    let all_off = SuppressOptions {
        tls: false,
        stack: false,
        locks: false,
        mutexinoutset: false,
        ..Default::default()
    };

    println!("suppression ablation on LULESH -s 4 -tel 2 -tnl 2 -i 2 (non-racy: every report is a false positive)");
    println!("{:<58} {:>12} {:>12}", "configuration", "candidates", "reports");
    println!("{}", "-".repeat(86));

    let naive = measure_taskgrind_suppression(&params, Vec::new(), false, all_off);
    println!(
        "{:<58} {:>12} {:>12}",
        "naive (no ignore-list, allocator kept, no suppression)", naive.1, naive.0
    );

    let ign = measure_taskgrind_suppression(&params, default_ignore_list(), false, all_off);
    println!("{:<58} {:>12} {:>12}", "+ ignore-list (IV-A)", ign.1, ign.0);

    let alloc = measure_taskgrind_suppression(&params, default_ignore_list(), true, all_off);
    println!("{:<58} {:>12} {:>12}", "+ allocator replacement (IV-B)", alloc.1, alloc.0);

    let tls = measure_taskgrind_suppression(
        &params,
        default_ignore_list(),
        true,
        SuppressOptions { tls: true, ..all_off },
    );
    println!("{:<58} {:>12} {:>12}", "+ TLS suppression (IV-C)", tls.1, tls.0);

    let full = measure_taskgrind_suppression(&params, default_ignore_list(), true, all_on);
    println!(
        "{:<58} {:>12} {:>12}",
        "+ stack/lock suppression (IV-D): full Taskgrind", full.1, full.0
    );

    println!("{}", "-".repeat(86));
    println!(
        "suppression layers removed {} of {} candidate ranges ({:.2}%); the full tool reports {}.",
        naive.1 - full.1,
        naive.1,
        100.0 * (naive.1 - full.1) as f64 / naive.1.max(1) as f64,
        full.0
    );
}
