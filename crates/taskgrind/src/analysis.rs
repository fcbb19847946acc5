//! The determinacy-race analysis pass (paper Algorithm 1) plus the
//! false-positive suppression layers of §IV.
//!
//! For every pair of segments with no happens-before path between them,
//! the pass intersects one segment's write intervals with the other's
//! read∪write intervals; non-empty intersections are possible
//! determinacy races. Candidates then run through the suppression
//! pipeline:
//!
//! * **critical sections** — both segments hold a common lock;
//! * **mutexinoutset** — both tasks hold a common mutex dependence
//!   object (ordered "by mutual exclusion", not by happens-before);
//! * **thread-local storage** (§IV-C) — the address lies in the TLS
//!   block of the one thread both segments ran on, with equal DTV
//!   generations;
//! * **segment-local stack** (§IV-D) — for both segments the address is
//!   below the stack frame registered at segment start, i.e. it belongs
//!   to frames created (and destroyed) within each segment. Conflicts in
//!   a *parent's* frame are deliberately not suppressed — the residual
//!   false positive the paper reports on TMB stack tests at 4 threads.
//!
//! Pair generation comes in two shapes. The default engine
//! ([`run_sweep`]) is address-indexed: a global endpoint sweep over
//! every interesting segment's intervals ([`sweep_pairs`]) emits exactly
//! the pairs whose memory footprints overlap with at least one write
//! involved — the pairs for which `conflicts` is non-empty — and the
//! reachability + suppression pipeline runs on those. Taskgrind and
//! both graph baselines (ROMP, TaskSanitizer) run it. The reference
//! engine ([`run`]) iterates all O(S²) segment pairs — faithful to
//! Algorithm 1 but quadratic even when footprints are disjoint, with a
//! reachability search for every pair; it serves only
//! `TaskgrindConfig::sweep = false` and tests. Like the paper's
//! Algorithm 1, both run on one thread, after recording.

use crate::graph::{SegId, Segment, SegmentGraph, Successors};
use crate::reach::Reachability;

/// Suppression toggles (all on by default, as in the paper's tool).
#[derive(Clone, Copy, Debug)]
pub struct SuppressOptions {
    pub tls: bool,
    pub stack: bool,
    pub locks: bool,
    pub mutexinoutset: bool,
    /// Unread: no suppression layer consumes static lock proofs. Kept
    /// only because `tgbench` sets this field.
    #[doc(hidden)]
    pub static_proof: bool,
}

impl Default for SuppressOptions {
    fn default() -> Self {
        SuppressOptions {
            tls: true,
            stack: true,
            locks: true,
            mutexinoutset: true,
            static_proof: true,
        }
    }
}

/// One surviving conflict byte-range between two unordered segments.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Candidate {
    pub seg1: SegId,
    pub seg2: SegId,
    pub lo: u64,
    pub hi: u64,
}

/// Aggregate result of the analysis pass.
#[derive(Clone, Debug, Default)]
pub struct AnalysisOutput {
    pub candidates: Vec<Candidate>,
    pub pairs_checked: u64,
    pub unordered_pairs: u64,
    /// Ranges found before suppression (the "naive" §IV count).
    pub raw_ranges: u64,
    pub suppressed_locks: u64,
    pub suppressed_mutex: u64,
    pub suppressed_tls: u64,
    pub suppressed_stack: u64,
    /// Always 0: no suppression layer consumes static lock proofs. Kept
    /// only because `tgbench` reads this field.
    #[doc(hidden)]
    pub suppressed_static: u64,
}

/// Both inputs are kept sorted at build time (`graph.rs` inserts locks
/// and mutex objects in order), so a linear merge replaces the old
/// O(n·m) `Vec::contains` scan.
fn locks_intersect(a: &[u64], b: &[u64]) -> bool {
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => return true,
        }
    }
    false
}

/// The suppression layer that killed a conflicting range. An enum (not
/// a string) so `analyze_pair`'s match is exhaustive: adding a
/// layer without counting it is a compile error, not a silently dropped
/// statistic.
///
/// Together with the confirmation pass this gives every conflicting
/// range a three-way evidence story, from strongest exoneration to
/// strongest accusation:
///
/// 1. **Dynamically observed safe** (the lock check in `analyze_pair`,
///    [`Suppression::Mutexinoutset`], [`Suppression::Tls`],
///    [`Suppression::Stack`]): *this* execution witnessed a protection
///    or disjointness fact (shared lockset, thread-local storage, dead
///    stack frame) that the graph alone cannot express — suppressed,
///    but only as strongly as one run's observation.
/// 2. **Reported, confirmed** ([`crate::confirm::Verdict::Confirmed`]):
///    the range survived every layer *and* an adversarial replay
///    exhibited the flipped order — a concrete witness schedule.
/// 3. **Reported, unconfirmed**
///    ([`crate::confirm::Verdict::Unconfirmed`]): survived every layer
///    but no budgeted replay could flip it — often ad-hoc
///    synchronization invisible to the segment graph. Still reported;
///    the verdict is triage metadata, never another suppression layer.
///
/// Every layer is dynamic, as in the paper (§IV). Static lock proofs
/// are not a layer: a sound proof implies a dynamic critical section,
/// which the lock check already sees, so such a layer could never fire
/// (DESIGN.md §12).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Suppression {
    /// Both tasks hold a common `mutexinoutset` dependence object (or
    /// the segments' dynamic critical-section locksets intersect): the
    /// runtime serialized the two segments even though the graph keeps
    /// them unordered (paper §III-B — mutual exclusion is not
    /// happens-before, but it does defeat the race).
    Mutexinoutset,
    /// The range lies in a thread control block / DTV the runtime
    /// (re)initialized between the segments' generations: distinct
    /// per-thread storage that merely reuses addresses (§IV-C).
    Tls,
    /// The range is a stack frame provably dead in one of the two
    /// segments (below its live stack pointer): outlined-task frames
    /// recycled by the callee sequence, not a shared object (§IV-D).
    Stack,
}

/// Classify one conflicting range against the suppression layers.
/// Returns `None` if it survives, or the suppressing layer.
fn suppress_range(
    opts: &SuppressOptions,
    g: &SegmentGraph,
    a: &Segment,
    b: &Segment,
    lo: u64,
    hi: u64,
) -> Option<Suppression> {
    if opts.mutexinoutset {
        if let (Some(t1), Some(t2)) = (a.task, b.task) {
            let (m1, m2) = (&g.tasks[t1 as usize].mutex_objs, &g.tasks[t2 as usize].mutex_objs);
            if t1 != t2 && locks_intersect(m1, m2) {
                return Some(Suppression::Mutexinoutset);
            }
        }
    }
    if opts.tls && a.thread == b.thread && a.tls_gen == b.tls_gen {
        let in_tls =
            |s: &Segment| s.tls_size > 0 && lo >= s.tls_base && hi <= s.tls_base + s.tls_size;
        if in_tls(a) && in_tls(b) {
            return Some(Suppression::Tls);
        }
    }
    if opts.stack && a.thread == b.thread {
        // segment-local: both segments ran on the same thread and the
        // range lies below the stack frame registered at each segment's
        // start — frames created and destroyed within the segments
        let local_to = |s: &Segment| lo >= s.stack_low && hi <= s.stack_high && hi <= s.start_sp;
        if local_to(a) && local_to(b) {
            return Some(Suppression::Stack);
        }
    }
    None
}

/// Conflicting byte ranges between two segments,
/// `w1 ∩ (r2 ∪ w2)  ∪  w2 ∩ r1`, into `out` (cleared first).
fn conflicts(a: &Segment, b: &Segment, out: &mut Vec<(u64, u64)>) {
    out.clear();
    a.writes.intersect_into(&b.writes, out);
    a.writes.intersect_into(&b.reads, out);
    b.writes.intersect_into(&a.reads, out);
    out.sort_unstable();
    out.dedup();
}

/// Analyze one unordered pair through conflict intersection and the
/// suppression layers, accumulating into `out`. Both pair generators
/// land here, with one `ranges` buffer reused across their pairs.
fn analyze_pair(
    g: &SegmentGraph,
    opts: &SuppressOptions,
    (s1, s2): (SegId, SegId),
    ranges: &mut Vec<(u64, u64)>,
    out: &mut AnalysisOutput,
) {
    let (a, b) = (&g.segments[s1 as usize], &g.segments[s2 as usize]);
    // Cheap rejection before building range lists.
    if a.writes.is_empty() && b.writes.is_empty() {
        return;
    }
    conflicts(a, b, ranges);
    if ranges.is_empty() {
        return;
    }
    out.raw_ranges += ranges.len() as u64;
    if opts.locks && locks_intersect(&a.locks, &b.locks) {
        out.suppressed_locks += ranges.len() as u64;
        return;
    }
    for &(lo, hi) in ranges.iter() {
        match suppress_range(opts, g, a, b, lo, hi) {
            None => out.candidates.push(Candidate { seg1: s1, seg2: s2, lo, hi }),
            Some(Suppression::Tls) => out.suppressed_tls += 1,
            Some(Suppression::Stack) => out.suppressed_stack += 1,
            Some(Suppression::Mutexinoutset) => out.suppressed_mutex += 1,
        }
    }
}

/// Run Algorithm 1 over all O(S²) pairs of interesting segments,
/// sequentially. Only `TaskgrindConfig::sweep = false` and tests run
/// it: it asks [`Reachability::ordered`] for every pair, and each
/// unordered answer costs a search.
pub fn run(g: &SegmentGraph, reach: &Reachability, opts: &SuppressOptions) -> AnalysisOutput {
    let mut out = AnalysisOutput::default();
    let mut ranges = Vec::new();
    let ids: Vec<SegId> = interesting_segments(g);
    for (i, &s1) in ids.iter().enumerate() {
        for &s2 in &ids[i + 1..] {
            out.pairs_checked += 1;
            if reach.ordered(s1, s2) {
                continue;
            }
            out.unordered_pairs += 1;
            analyze_pair(g, opts, (s1, s2), &mut ranges, &mut out);
        }
    }
    sort_candidates(&mut out.candidates);
    out
}

/// Resolve a requested host thread count: 0 means "auto", i.e.
/// `std::thread::available_parallelism()`. Its one caller in the engine
/// sizes `tgrind warm`'s compile-worker pool; the analysis itself runs
/// on one thread.
pub fn resolve_threads(threads: usize) -> usize {
    if threads == 0 {
        std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
    } else {
        threads
    }
}

/// One interval of an interesting segment, flattened for the sweep.
#[derive(Clone, Copy)]
struct SweepIv {
    lo: u64,
    hi: u64,
    seg: SegId,
    write: bool,
}

/// Canonical order for the candidate list. Both pair generators
/// sort with this key before the list reaches report generation, so
/// all-pairs and sweep render bit-identically, whatever order they
/// visit pairs in.
fn sort_candidates(v: &mut [Candidate]) {
    v.sort_unstable_by_key(|c| (c.seg1, c.seg2, c.lo, c.hi));
}

/// The segment pairs whose footprints overlap with at least one write
/// involved — exactly the pairs for which `conflicts` returns a
/// non-empty range list — each once, lower id first, grouped by the
/// lower id in ascending order.
///
/// A global endpoint sweep visits every interesting segment's intervals
/// by `lo`, keeping the live writes and the live reads apart: a read
/// scans only the live writes, and a write scans both. Entries that end
/// at or before the new `lo` leave during that scan. Half-open
/// semantics: intervals touching only at an endpoint do not pair
/// (`a.hi > iv.lo` is strict), matching `IntervalTree::intersect`. A
/// pair overlapping in several places is emitted once per overlap;
/// bucketing the emissions on the lower id and stamping each higher id
/// with its bucket drops the repeats.
pub fn sweep_pairs(g: &SegmentGraph) -> Vec<(SegId, SegId)> {
    let mut ivs: Vec<SweepIv> = Vec::new();
    for seg in interesting_segments(g) {
        let s = &g.segments[seg as usize];
        ivs.extend(s.writes.iter().map(|(lo, hi)| SweepIv { lo, hi, seg, write: true }));
        ivs.extend(s.reads.iter().map(|(lo, hi)| SweepIv { lo, hi, seg, write: false }));
    }
    ivs.sort_unstable_by_key(|iv| iv.lo);

    let mut hits: Vec<(SegId, SegId)> = Vec::new();
    let (mut writes, mut reads): (Vec<SweepIv>, Vec<SweepIv>) = (Vec::new(), Vec::new());
    for iv in &ivs {
        let mut scan = |live: &mut Vec<SweepIv>| {
            live.retain(|a| {
                if a.hi <= iv.lo {
                    return false;
                }
                if a.seg != iv.seg {
                    hits.push((a.seg.min(iv.seg), a.seg.max(iv.seg)));
                }
                true
            })
        };
        scan(&mut writes);
        if iv.write {
            scan(&mut reads);
            writes.push(*iv);
        } else {
            reads.push(*iv);
        }
    }

    let n = g.n_nodes();
    let buckets = Successors::from_edges(n, &hits);
    drop(hits);
    let mut stamp = vec![SegId::MAX; n];
    let mut pairs = Vec::new();
    for s1 in 0..n {
        for &s2 in buckets.of(s1) {
            if stamp[s2 as usize] != s1 as SegId {
                stamp[s2 as usize] = s1 as SegId;
                pairs.push((s1 as SegId, s2));
            }
        }
    }
    pairs
}

/// Address-indexed candidate generation: `analyze_pair` runs on each
/// unordered pair [`sweep_pairs`] emits, so reachability is asked only
/// about segments whose footprints overlap.
///
/// `pairs_checked` / `unordered_pairs` are work metrics of *this*
/// engine (pairs the sweep emitted), not the all-pairs totals; the
/// verdict-bearing fields — candidates, `raw_ranges`, every
/// `suppressed_*` counter — are bit-identical to [`run`]'s.
///
/// `_threads` is unread: the sweep runs on the caller's thread, which
/// on every benchmark job was at least as fast as splitting it by
/// address (EXPERIMENTS E12). Kept only because `tgbench` passes it.
pub fn run_sweep(
    g: &SegmentGraph,
    reach: &Reachability,
    opts: &SuppressOptions,
    _threads: usize,
) -> AnalysisOutput {
    let pairs = sweep_pairs(g);
    let mut out = AnalysisOutput { pairs_checked: pairs.len() as u64, ..Default::default() };
    let mut ranges = Vec::new();
    for pair in pairs {
        if reach.ordered(pair.0, pair.1) {
            continue;
        }
        out.unordered_pairs += 1;
        analyze_pair(g, opts, pair, &mut ranges, &mut out);
    }
    sort_candidates(&mut out.candidates);
    out
}

/// Segments worth pairing: real (non-sync) segments with any recorded
/// access.
fn interesting_segments(g: &SegmentGraph) -> Vec<SegId> {
    g.segments
        .iter()
        .filter(|s| !s.sync && (!s.reads.is_empty() || !s.writes.is_empty()))
        .map(|s| s.id)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{DepKind, GraphBuilder, ThreadMeta};

    fn meta(tid: usize) -> ThreadMeta {
        ThreadMeta {
            tid,
            sp: 0x7000,
            stack_low: 0x4000,
            stack_high: 0x8000,
            tls_base: 0x100,
            tls_size: 64,
            tls_gen: 0,
        }
    }

    fn analyze(b: GraphBuilder) -> AnalysisOutput {
        let g = b.finalize();
        let r = Reachability::compute(&g);
        run(&g, &r, &SuppressOptions::default())
    }

    #[test]
    fn detects_write_write_race_between_independent_tasks() {
        let mut b = GraphBuilder::new();
        let m = meta(0);
        for fn_addr in [0x100u64, 0x200] {
            let t = b.task_create(&m, 0, fn_addr);
            b.task_spawn(&m, t);
            b.task_begin(&m, t);
            b.record_access(&m, 0xA000, 8, true);
            b.task_end(&m, t);
        }
        let out = analyze(b);
        assert_eq!(out.candidates.len(), 1);
        assert_eq!(out.candidates[0].lo, 0xA000);
        assert_eq!(out.candidates[0].hi, 0xA008);
    }

    #[test]
    fn read_read_is_not_a_race() {
        let mut b = GraphBuilder::new();
        let m = meta(0);
        for _ in 0..2 {
            let t = b.task_create(&m, 0, 0x1);
            b.task_spawn(&m, t);
            b.task_begin(&m, t);
            b.record_access(&m, 0xA000, 8, false);
            b.task_end(&m, t);
        }
        let out = analyze(b);
        assert!(out.candidates.is_empty());
        assert_eq!(out.raw_ranges, 0);
    }

    #[test]
    fn write_read_race_detected_both_directions() {
        for writer_first in [true, false] {
            let mut b = GraphBuilder::new();
            let m = meta(0);
            let t1 = b.task_create(&m, 0, 0x1);
            b.task_spawn(&m, t1);
            b.task_begin(&m, t1);
            b.record_access(&m, 0xB000, 8, writer_first);
            b.task_end(&m, t1);
            let t2 = b.task_create(&m, 0, 0x2);
            b.task_spawn(&m, t2);
            b.task_begin(&m, t2);
            b.record_access(&m, 0xB000, 8, !writer_first);
            b.task_end(&m, t2);
            let out = analyze(b);
            assert_eq!(out.candidates.len(), 1, "writer_first={writer_first}");
        }
    }

    #[test]
    fn ordered_tasks_do_not_race() {
        let mut b = GraphBuilder::new();
        let m = meta(0);
        let t1 = b.task_create(&m, 0, 0x1);
        b.task_dep(t1, 0xDEAD, 8, DepKind::Out);
        b.task_spawn(&m, t1);
        let t2 = b.task_create(&m, 0, 0x2);
        b.task_dep(t2, 0xDEAD, 8, DepKind::Inout);
        b.task_spawn(&m, t2);
        for t in [t1, t2] {
            b.task_begin(&m, t);
            b.record_access(&m, 0xDEAD, 8, true);
            b.task_end(&m, t);
        }
        let out = analyze(b);
        assert!(out.candidates.is_empty(), "{:?}", out.candidates);
    }

    #[test]
    fn taskwait_removes_race_with_continuation() {
        let mut b = GraphBuilder::new();
        let m = meta(0);
        let t = b.task_create(&m, 0, 0x1);
        b.task_spawn(&m, t);
        b.task_begin(&m, t);
        b.record_access(&m, 0xC000, 8, true);
        b.task_end(&m, t);
        b.taskwait(&m);
        b.record_access(&m, 0xC000, 8, true);
        let out = analyze(b);
        assert!(out.candidates.is_empty());
    }

    #[test]
    fn critical_sections_suppress() {
        let mut b = GraphBuilder::new();
        let m = meta(0);
        for _ in 0..2 {
            let t = b.task_create(&m, 0, 0x1);
            b.task_spawn(&m, t);
            b.task_begin(&m, t);
            b.critical_enter(&m, 9);
            b.record_access(&m, 0xE000, 8, true);
            b.critical_exit(&m, 9);
            b.task_end(&m, t);
        }
        let out = analyze(b);
        assert!(out.candidates.is_empty());
        assert!(out.suppressed_locks > 0);
        // different locks do NOT suppress
        let mut b = GraphBuilder::new();
        for lock in [1u64, 2] {
            let t = b.task_create(&m, 0, 0x1);
            b.task_spawn(&m, t);
            b.task_begin(&m, t);
            b.critical_enter(&m, lock);
            b.record_access(&m, 0xE000, 8, true);
            b.critical_exit(&m, lock);
            b.task_end(&m, t);
        }
        let out = analyze(b);
        assert_eq!(out.candidates.len(), 1);
    }

    #[test]
    fn mutexinoutset_suppresses_between_members() {
        let mut b = GraphBuilder::new();
        let m = meta(0);
        for fnaddr in [0x1u64, 0x2] {
            let t = b.task_create(&m, 0, fnaddr);
            b.task_dep(t, 0xF000, 8, DepKind::Mutexinoutset);
            b.task_spawn(&m, t);
            b.task_begin(&m, t);
            b.record_access(&m, 0xF000, 8, true);
            b.task_end(&m, t);
        }
        let out = analyze(b);
        assert!(out.candidates.is_empty(), "{:?}", out.candidates);
        assert!(out.suppressed_mutex > 0);
    }

    #[test]
    fn inoutset_members_do_race() {
        let mut b = GraphBuilder::new();
        let m = meta(0);
        for fnaddr in [0x1u64, 0x2] {
            let t = b.task_create(&m, 0, fnaddr);
            b.task_dep(t, 0xF000, 8, DepKind::Inoutset);
            b.task_spawn(&m, t);
            b.task_begin(&m, t);
            b.record_access(&m, 0xF000, 8, true);
            b.task_end(&m, t);
        }
        let out = analyze(b);
        assert_eq!(out.candidates.len(), 1, "inoutset members are unordered");
    }

    #[test]
    fn tls_suppression_same_thread_same_gen() {
        let mut b = GraphBuilder::new();
        let m = meta(0);
        for _ in 0..2 {
            let t = b.task_create(&m, 0, 0x1);
            b.task_spawn(&m, t);
            b.task_begin(&m, t);
            b.record_access(&m, 0x110, 8, true); // inside TLS [0x100,0x140)
            b.task_end(&m, t);
        }
        let out = analyze(b);
        assert!(out.candidates.is_empty());
        assert!(out.suppressed_tls > 0);
    }

    #[test]
    fn tls_conflict_on_different_threads_not_suppressed() {
        // same *address* in TLS ranges of two different threads can only
        // happen with distinct blocks; model it with distinct tls_base so
        // the conflict address is outside at least one block
        let mut b = GraphBuilder::new();
        let m0 = meta(0);
        let mut m1 = meta(1);
        m1.tls_base = 0x900;
        let t1 = b.task_create(&m0, 0, 0x1);
        b.task_begin(&m0, t1);
        b.record_access(&m0, 0x5000, 8, true);
        b.task_end(&m0, t1);
        let t2 = b.task_create(&m0, 0, 0x2);
        b.task_begin(&m1, t2);
        b.record_access(&m1, 0x5000, 8, true);
        b.task_end(&m1, t2);
        let out = analyze(b);
        assert_eq!(out.candidates.len(), 1);
    }

    #[test]
    fn segment_local_stack_reuse_suppressed() {
        // two tasks on the same thread each use a "local" at the same
        // stack slot below their starting sp (§IV-D, TMB stack.2)
        let mut b = GraphBuilder::new();
        let m = meta(0); // sp = 0x7000
        for _ in 0..2 {
            let t = b.task_create(&m, 0, 0x1);
            b.task_spawn(&m, t);
            b.task_begin(&m, t);
            b.record_access(&m, 0x6F00, 8, true); // below sp: task-local slot
            b.task_end(&m, t);
        }
        let out = analyze(b);
        assert!(out.candidates.is_empty());
        assert!(out.suppressed_stack > 0);
    }

    #[test]
    fn parent_frame_conflict_not_suppressed() {
        // siblings writing a location in the parent's frame (above their
        // start sp) — the paper's remaining FP, and a real hazard
        let mut b = GraphBuilder::new();
        let mut m = meta(0);
        m.sp = 0x7000;
        let parent_var = 0x7100; // above the tasks' start sp
        for _ in 0..2 {
            let t = b.task_create(&m, 0, 0x1);
            b.task_spawn(&m, t);
            b.task_begin(&m, t);
            b.record_access(&m, parent_var, 8, true);
            b.task_end(&m, t);
        }
        let out = analyze(b);
        assert_eq!(out.candidates.len(), 1);
    }

    /// Verdict-bearing fields must be bit-identical across engines;
    /// pairs_checked/unordered_pairs are engine-specific work metrics.
    fn assert_same_verdicts(a: &AnalysisOutput, b: &AnalysisOutput, ctx: &str) {
        assert_eq!(a.candidates, b.candidates, "{ctx}");
        assert_eq!(a.raw_ranges, b.raw_ranges, "{ctx}");
        assert_eq!(a.suppressed_locks, b.suppressed_locks, "{ctx}");
        assert_eq!(a.suppressed_mutex, b.suppressed_mutex, "{ctx}");
        assert_eq!(a.suppressed_tls, b.suppressed_tls, "{ctx}");
        assert_eq!(a.suppressed_stack, b.suppressed_stack, "{ctx}");
    }

    #[test]
    fn sweep_matches_all_pairs_on_wide_fork() {
        let mut b = GraphBuilder::new();
        let m = meta(0);
        for i in 0..24u64 {
            let t = b.task_create(&m, 0, 0x100 + i);
            b.task_spawn(&m, t);
            b.task_begin(&m, t);
            // overlapping cliques of 3, plus a shared read and a
            // disjoint private write per task
            b.record_access(&m, 0xA000 + (i % 3) * 8, 8, true);
            b.record_access(&m, 0x9000, 8, false);
            b.record_access(&m, 0x20000 + i * 64, 16, true);
            b.task_end(&m, t);
        }
        let g = b.finalize();
        let r = Reachability::compute(&g);
        let seq = run(&g, &r, &SuppressOptions::default());
        assert!(!seq.candidates.is_empty());
        let sw = run_sweep(&g, &r, &SuppressOptions::default(), 1);
        assert_same_verdicts(&seq, &sw, "wide fork");
        // the sweep emitted at most the all-pairs count, and every pair
        // it emitted had a real footprint overlap
        assert!(sw.pairs_checked <= seq.pairs_checked);
    }

    #[test]
    fn sweep_matches_with_suppressions_active() {
        // exercise lock, mutexinoutset, TLS, and stack layers at once
        let mut b = GraphBuilder::new();
        let m = meta(0);
        for fnaddr in [0x1u64, 0x2] {
            let t = b.task_create(&m, 0, fnaddr);
            b.task_dep(t, 0xF000, 8, DepKind::Mutexinoutset);
            b.task_spawn(&m, t);
            b.task_begin(&m, t);
            b.record_access(&m, 0xF000, 8, true); // mutexinoutset
            b.record_access(&m, 0x110, 8, true); // TLS
            b.record_access(&m, 0x6F00, 8, true); // segment-local stack
            b.critical_enter(&m, 7);
            b.record_access(&m, 0xE000, 8, true); // lock-protected
            b.critical_exit(&m, 7);
            b.record_access(&m, 0xA000, 8, true); // genuine race
            b.task_end(&m, t);
        }
        let g = b.finalize();
        let r = Reachability::compute(&g);
        let seq = run(&g, &r, &SuppressOptions::default());
        assert!(seq.suppressed_mutex > 0 || seq.suppressed_tls > 0 || seq.suppressed_stack > 0);
        let sw = run_sweep(&g, &r, &SuppressOptions::default(), 1);
        assert_same_verdicts(&seq, &sw, "suppressions active");
    }

    #[test]
    fn sweep_matches_all_pairs_on_many_intervals() {
        // 40 tasks of 20 intervals each (800 in all): five tasks write
        // each written slot and all 40 read each read slot, so the
        // sweep's active list holds up to 40 intervals at once
        let mut b = GraphBuilder::new();
        let m = meta(0);
        for i in 0..40u64 {
            let t = b.task_create(&m, 0, 0x100 + i);
            b.task_spawn(&m, t);
            b.task_begin(&m, t);
            for k in 0..10u64 {
                // strided so intervals do not coalesce; neighbours share
                // footprints across the whole address span
                b.record_access(&m, 0x10000 + (i % 8) * 0x1000 + k * 32, 8, true);
                b.record_access(&m, 0x80000 + k * 0x2000, 8, false);
            }
            b.task_end(&m, t);
        }
        let g = b.finalize();
        let r = Reachability::compute(&g);
        let seq = run(&g, &r, &SuppressOptions::default());
        let sw = run_sweep(&g, &r, &SuppressOptions::default(), 1);
        assert_same_verdicts(&seq, &sw, "many intervals");
    }

    proptest::proptest! {
        /// Sweep engine output == all-pairs reference output — including
        /// every suppression counter — on random task-structured graphs.
        #[test]
        fn sweep_matches_all_pairs_on_random_graphs(
            ops in proptest::prop::collection::vec((0u8..7, 0u64..6, 0u8..2), 1..60),
        ) {
            let mut b = GraphBuilder::new();
            let m = meta(0);
            let mut live: Vec<u64> = Vec::new();
            for (op, slot, wbit) in ops {
                let write = wbit == 1;
                match op {
                    0 | 1 => {
                        let t = b.task_create(&m, 0, 0x100 + live.len() as u64);
                        if slot == 0 {
                            b.task_dep(t, 0xF000, 8, DepKind::Mutexinoutset);
                        }
                        b.task_spawn(&m, t);
                        live.push(t);
                    }
                    2 => {
                        if let Some(t) = live.pop() {
                            b.task_begin(&m, t);
                            b.record_access(&m, 0xA000 + slot * 8, 8, write);
                            b.record_access(&m, 0x110, 4, write); // TLS block
                            b.record_access(&m, 0x6F00 + slot * 8, 8, true); // below sp
                            b.task_end(&m, t);
                        }
                    }
                    3 => b.taskwait(&m),
                    4 => b.critical_enter(&m, 1 + slot % 2),
                    5 => b.critical_exit(&m, 1 + slot % 2),
                    _ => b.record_access(&m, 0xA000 + slot * 8, 8, write),
                }
            }
            for t in live.drain(..) {
                b.task_begin(&m, t);
                b.record_access(&m, 0xA000, 8, true);
                b.task_end(&m, t);
            }
            let g = b.finalize();
            let r = Reachability::compute(&g);
            for opts in [
                SuppressOptions::default(),
                SuppressOptions {
                    tls: false,
                    stack: false,
                    locks: false,
                    mutexinoutset: false,
                    ..Default::default()
                },
            ] {
                let seq = run(&g, &r, &opts);
                let sw = run_sweep(&g, &r, &opts, 1);
                proptest::prop_assert_eq!(&seq.candidates, &sw.candidates);
                proptest::prop_assert_eq!(seq.raw_ranges, sw.raw_ranges);
                proptest::prop_assert_eq!(seq.suppressed_locks, sw.suppressed_locks);
                proptest::prop_assert_eq!(seq.suppressed_mutex, sw.suppressed_mutex);
                proptest::prop_assert_eq!(seq.suppressed_tls, sw.suppressed_tls);
                proptest::prop_assert_eq!(seq.suppressed_stack, sw.suppressed_stack);
            }
        }
    }

    #[test]
    fn suppression_toggles_expose_raw_counts() {
        let mut b = GraphBuilder::new();
        let m = meta(0);
        for _ in 0..2 {
            let t = b.task_create(&m, 0, 0x1);
            b.task_spawn(&m, t);
            b.task_begin(&m, t);
            b.record_access(&m, 0x110, 8, true); // TLS conflict
            b.task_end(&m, t);
        }
        let g = b.finalize();
        let r = Reachability::compute(&g);
        let off = SuppressOptions {
            tls: false,
            stack: false,
            locks: false,
            mutexinoutset: false,
            ..Default::default()
        };
        let out = run(&g, &r, &off);
        assert_eq!(out.candidates.len(), 1, "naive mode reports the FP");
    }
}
