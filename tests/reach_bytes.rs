//! `taskgrind.reach_bytes` is what the happens-before closure holds.
//!
//! A counting global allocator (std only) tracks live heap bytes. On a
//! small BOTS run, the published key must equal n × ⌈n/64⌉ × 8 for the
//! run's n graph nodes, and building the closure again over the run's
//! graph must leave exactly that many more bytes live.
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
fn published_reach_bytes_are_what_the_closure_holds() {
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

    let n = r.graph.n_nodes() as u64;
    assert!(n > 64, "the run builds a graph wider than one word ({n} nodes)");
    assert_eq!(published, r.reach_bytes);
    assert_eq!(published, n * n.div_ceil(64) * 8, "{n} nodes");

    let before = LIVE.load(Ordering::Relaxed);
    let reach = Reachability::compute(&r.graph);
    let held = (LIVE.load(Ordering::Relaxed) - before) as u64;
    assert_eq!(held, reach.heap_bytes());
    assert_eq!(held, published, "the closure holds what the key publishes");
}
