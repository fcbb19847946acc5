//! `stream.peak_tool_bytes` is the interval-set share of Table II's
//! memory column, so it must be what the sets really hold, not a model.
//!
//! A counting global allocator (std only) tracks live heap bytes. For
//! each job the test runs Taskgrind, then replaces every segment's read
//! and write set with an empty one and measures the heap that frees. The
//! freed bytes must equal the sum of the sets' `heap_bytes()`, that sum
//! must equal the run's `stream.peak_tool_bytes`, and each set must hold
//! exactly 16 bytes per interval (the drain keeps nothing spare).
//!
//! This file holds one test on purpose: a second test running on another
//! thread would allocate inside the measured window.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use taskgrind::itree::IntervalTree;
use taskgrind::{check_module, TaskgrindConfig};
use tg_drb::bots::{FIB_MC, NQUEENS_MC, SPARSELU_MC};
use tg_lulesh::harness::LuleshParams;
use tg_lulesh::LULESH_MC;

/// Live heap bytes, as requested by callers (not rounded up to size
/// classes).
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
fn charged_access_set_bytes_match_what_the_sets_hold() {
    let lulesh =
        LuleshParams { s: 4, tel: 2, tnl: 2, iters: 2, progress: false, racy: false, threads: 2 };
    let lulesh_args = lulesh.args();
    let lulesh_args: Vec<&str> = lulesh_args.iter().map(String::as_str).collect();
    let jobs: [(&str, &str, &[&str], u64); 4] = [
        ("fib.c", FIB_MC, &["10"], 2),
        ("nqueens.c", NQUEENS_MC, &["6"], 2),
        ("sparselu.c", SPARSELU_MC, &["-nb", "4", "-racy"], 2),
        ("lulesh.c", LULESH_MC, &lulesh_args, lulesh.threads),
    ];
    for (name, source, args, threads) in jobs {
        let m = guest_rt::build_single(name, source).expect("compiles");
        let cfg = TaskgrindConfig {
            vm: grindcore::VmConfig { nthreads: threads, ..Default::default() },
            ..Default::default()
        };
        let mut r = check_module(&m, args, &cfg);
        assert!(r.run.ok(), "{name}: {:?}", r.run.error);
        let mut reg = tg_obs::Registry::new();
        taskgrind::metrics::publish(&r, &mut reg);
        let published = reg.u64("stream.peak_tool_bytes");

        let sets = || r.graph.segments.iter().flat_map(|s| [&s.reads, &s.writes]);
        let charged: u64 = sets().map(IntervalTree::heap_bytes).sum();
        let intervals: u64 = sets().map(|t| t.len() as u64).sum();
        assert!(intervals > 0, "{name} must record accesses");

        let before = LIVE.load(Ordering::Relaxed);
        for s in &mut r.graph.segments {
            s.reads = IntervalTree::new();
            s.writes = IntervalTree::new();
        }
        let freed = (before - LIVE.load(Ordering::Relaxed)) as u64;

        eprintln!("{name}: {intervals} intervals, {charged} bytes charged, {freed} bytes freed");
        assert_eq!(charged, published, "{name}: stream.peak_tool_bytes is the sets' bytes");
        assert_eq!(freed, charged, "{name}: the sets hold what they charge");
        assert_eq!(charged, 16 * intervals, "{name}: 16 bytes per interval, nothing spare");
    }
}
