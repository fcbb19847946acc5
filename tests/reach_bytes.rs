//! `taskgrind.reach_bytes` is what the happens-before index holds.
//!
//! A counting global allocator (std only) tracks live heap bytes. On a
//! small BOTS run, the published key must equal 4 × (4n + e + 1) for the
//! run's n graph nodes and e edges — the flat successor lists, each
//! node's rank and the search scratch — and building the index again
//! over the run's graph must leave exactly that many more bytes live.
//! Answering every pair the sweep asks about must allocate nothing.
//!
//! This file holds one test on purpose: a second test running on another
//! thread would allocate inside the measured window.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use taskgrind::reach::Reachability;
use taskgrind::{check_module, TaskgrindConfig};
use tg_drb::bots::FIB_MC;

/// Live heap bytes, as requested by callers.
static LIVE: AtomicUsize = AtomicUsize::new(0);

struct Counting;

// SAFETY: every call forwards to `System` unchanged; the counter only
// observes the layouts that pass through.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, l: Layout) -> *mut u8 {
        let p = System.alloc(l);
        if !p.is_null() {
            LIVE.fetch_add(l.size(), Ordering::Relaxed);
        }
        p
    }

    unsafe fn alloc_zeroed(&self, l: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(l);
        if !p.is_null() {
            LIVE.fetch_add(l.size(), Ordering::Relaxed);
        }
        p
    }

    unsafe fn dealloc(&self, p: *mut u8, l: Layout) {
        System.dealloc(p, l);
        LIVE.fetch_sub(l.size(), Ordering::Relaxed);
    }

    unsafe fn realloc(&self, p: *mut u8, l: Layout, new_size: usize) -> *mut u8 {
        let q = System.realloc(p, l, new_size);
        if !q.is_null() {
            LIVE.fetch_add(new_size, Ordering::Relaxed);
            LIVE.fetch_sub(l.size(), Ordering::Relaxed);
        }
        q
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

#[test]
fn published_reach_bytes_are_what_the_index_holds() {
    let m = guest_rt::build_single("fib.c", FIB_MC).expect("compiles");
    let cfg = TaskgrindConfig {
        vm: grindcore::VmConfig { nthreads: 2, ..Default::default() },
        ..Default::default()
    };
    let r = check_module(&m, &["8"], &cfg);
    assert!(r.run.ok(), "{:?}", r.run.error);
    let mut reg = tg_obs::Registry::new();
    taskgrind::metrics::publish(&r, &mut reg);
    let published = reg.u64("taskgrind.reach_bytes");

    let (n, e) = (r.graph.n_nodes() as u64, r.graph.edges.len() as u64);
    assert!(n > 64 && e > n, "the run builds a real graph ({n} nodes, {e} edges)");
    assert_eq!(published, r.reach_bytes);
    assert_eq!(published, 4 * (4 * n + e + 1), "{n} nodes, {e} edges");

    let pairs = taskgrind::analysis::sweep_pairs(&r.graph);
    assert!(!pairs.is_empty());
    let before = LIVE.load(Ordering::Relaxed);
    let reach = Reachability::compute(&r.graph);
    let held = (LIVE.load(Ordering::Relaxed) - before) as u64;
    assert_eq!(held, reach.heap_bytes());
    assert_eq!(held, published, "the index holds what the key publishes");

    let ordered = pairs.iter().filter(|&&(a, b)| reach.ordered(a, b)).count();
    assert!(ordered > 0);
    assert_eq!(LIVE.load(Ordering::Relaxed) - before, held as usize, "queries allocate nothing");
}
