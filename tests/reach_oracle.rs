//! The happens-before index against its closure oracle on recorded
//! BOTS graphs at two guest threads: for every pair the sweep asks
//! about, and for every pair of interesting segments (the pairs the
//! all-pairs engine asks about), `Reachability::ordered` must give the
//! closure's answer.

use taskgrind::analysis::sweep_pairs;
use taskgrind::graph::{SegId, SegmentGraph};
use taskgrind::reach::{Closure, Reachability};
use taskgrind::{check_module, TaskgrindConfig};
use tg_drb::bots::{FIB_MC, NQUEENS_MC, SPARSELU_MC};

fn recorded_graph(name: &str, source: &str, args: &[&str]) -> SegmentGraph {
    let m = guest_rt::build_single(name, source).expect("compiles");
    let cfg = TaskgrindConfig {
        vm: grindcore::VmConfig { nthreads: 2, ..Default::default() },
        ..Default::default()
    };
    let r = check_module(&m, args, &cfg);
    assert!(r.run.ok(), "{name}: {:?}", r.run.error);
    r.graph
}

#[test]
fn index_matches_closure_on_recorded_bots_graphs() {
    let mut unordered = 0;
    for (name, source, args) in [
        ("fib.c", FIB_MC, &["12"][..]),
        ("nqueens.c", NQUEENS_MC, &["6"][..]),
        ("sparselu.c", SPARSELU_MC, &["-nb", "4", "-racy"][..]),
    ] {
        let g = recorded_graph(name, source, args);
        let (reach, closure) = (Reachability::compute(&g), Closure::compute(&g));

        let swept = sweep_pairs(&g);
        assert!(!swept.is_empty(), "{name}: the sweep emits pairs");
        for &(a, b) in &swept {
            let want = closure.ordered(a, b);
            assert_eq!(reach.ordered(a, b), want, "{name}: swept pair ({a}, {b})");
            unordered += usize::from(!want);
        }

        let ids: Vec<SegId> = g
            .segments
            .iter()
            .filter(|s| !s.sync && (!s.reads.is_empty() || !s.writes.is_empty()))
            .map(|s| s.id)
            .collect();
        for (i, &a) in ids.iter().enumerate() {
            for &b in &ids[i + 1..] {
                assert_eq!(reach.ordered(a, b), closure.ordered(a, b), "{name}: ({a}, {b})");
            }
        }
        // the swept pairs are interesting pairs, lower id first, each once
        let mut sorted = swept.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), swept.len(), "{name}: no repeated pair");
        assert!(swept.iter().all(|&(a, b)| a < b && ids.binary_search(&b).is_ok()));
    }
    assert!(unordered > 0, "racy sparselu has unordered swept pairs");
}
