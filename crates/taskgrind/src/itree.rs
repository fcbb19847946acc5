//! Per-segment access interval sets (paper §III-B, Fig. 3).
//!
//! Each segment carries two interval sets — one for reads, one for
//! writes. Dense memory accesses accumulate compactly: overlapping or
//! adjacent intervals merge, so a segment that sweeps an array stores
//! one interval, not one entry per element.
//!
//! A set is one sorted array of disjoint, non-adjacent intervals, held
//! at exact length. Recording appends raw accesses to a per-context
//! buffer and hands it over when the segment closes
//! ([`IntervalTree::bulk_extend`]): the buffer is sorted and coalesced
//! in place and its allocation becomes the set, shrunk to fit, so a set
//! costs 16 bytes per interval. Queries binary-search. Nothing asks a
//! set anything while its segment is still recording, so nothing needs
//! an ordered tree: per-access [`IntervalTree::insert`] is `O(n)` and
//! serves only the per-access oracle (`RecordOptions::bulk_ingest =
//! false`) and tests.
//!
//! Intervals are half-open byte ranges `[lo, hi)`.

/// A set of disjoint half-open intervals with merge-on-insert. (The
/// name predates the sorted array.)
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct IntervalTree {
    /// Sorted by start; invariant: non-degenerate, disjoint and
    /// non-adjacent.
    ivs: Vec<(u64, u64)>,
    /// Total number of raw insertions (accesses recorded).
    inserts: u64,
}

impl IntervalTree {
    pub fn new() -> IntervalTree {
        IntervalTree::default()
    }

    /// Number of disjoint intervals stored.
    pub fn len(&self) -> usize {
        self.ivs.len()
    }

    pub fn is_empty(&self) -> bool {
        self.ivs.is_empty()
    }

    /// Raw accesses recorded (before merging).
    pub fn accesses(&self) -> u64 {
        self.inserts
    }

    /// Total bytes covered.
    pub fn covered_bytes(&self) -> u64 {
        self.ivs.iter().map(|(lo, hi)| hi - lo).sum()
    }

    /// Heap bytes this set holds: its array's allocation, for Table II's
    /// memory accounting. After a drain the array is exact-length, so
    /// this is 16 bytes per interval.
    pub fn heap_bytes(&self) -> u64 {
        (self.ivs.capacity() * std::mem::size_of::<(u64, u64)>()) as u64
    }

    /// Insert `[lo, hi)`, merging with overlapping or adjacent intervals.
    /// `O(n)`: the per-access reference path, not the recording path.
    pub fn insert(&mut self, lo: u64, hi: u64) {
        if lo >= hi {
            return;
        }
        self.inserts += 1;
        // [first, last) are the stored intervals that touch [lo, hi)
        let first = self.ivs.partition_point(|&(_, h)| h < lo);
        let last = self.ivs.partition_point(|&(l, _)| l <= hi);
        if first == last {
            self.ivs.insert(first, (lo, hi));
            return;
        }
        self.ivs[first] = (lo.min(self.ivs[first].0), hi.max(self.ivs[last - 1].1));
        self.ivs.drain(first + 1..last);
    }

    /// Bulk-load a batch of raw intervals recorded elsewhere (the
    /// append-only access buffers of the bulk-ingestion path). The batch
    /// is sorted and coalesced in place; into an empty set — the common
    /// case, a segment drained exactly once at close — its allocation
    /// becomes the set, shrunk to fit. A later batch merges with the
    /// stored intervals in one pass into a new exact-length array.
    /// `raw_accesses` is the number of original accesses the batch
    /// represents (the buffer may have absorbed dense runs inline),
    /// credited to [`Self::accesses`].
    pub fn bulk_extend(&mut self, mut events: Vec<(u64, u64)>, raw_accesses: u64) {
        self.inserts += raw_accesses;
        events.retain(|&(lo, hi)| lo < hi);
        if events.is_empty() {
            return;
        }
        events.sort_unstable();
        coalesce(&mut events);
        if self.ivs.is_empty() {
            events.shrink_to_fit();
            self.ivs = events;
        } else {
            self.ivs = merge(&self.ivs, &events);
        }
    }

    /// Index of the first stored interval that ends after `addr`.
    fn first_ending_after(&self, addr: u64) -> usize {
        self.ivs.partition_point(|&(_, hi)| hi <= addr)
    }

    /// Does any stored interval overlap `[lo, hi)`?
    pub fn overlaps(&self, lo: u64, hi: u64) -> bool {
        if lo >= hi {
            return false;
        }
        self.ivs.get(self.first_ending_after(lo)).is_some_and(|&(l, _)| l < hi)
    }

    /// Does the set contain the byte at `addr`?
    pub fn contains(&self, addr: u64) -> bool {
        self.overlaps(addr, addr + 1)
    }

    /// Iterate the disjoint intervals in order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.ivs.iter().copied()
    }

    /// Intersect with another set, yielding every overlapping byte
    /// range in ascending order. This is the core of Algorithm 1's
    /// `s1.w ∩ (s2.r ∪ s2.w)` test. Runs in
    /// `O(min(n,m) · log(max(n,m)) + k)` by binary-searching each of
    /// the smaller set's intervals in the larger.
    pub fn intersect(&self, other: &IntervalTree) -> Vec<(u64, u64)> {
        let mut out = Vec::new();
        self.intersect_into(other, &mut out);
        out
    }

    /// [`Self::intersect`], appending to `out` so that a caller can
    /// reuse one buffer across many pairs.
    pub fn intersect_into(&self, other: &IntervalTree, out: &mut Vec<(u64, u64)>) {
        let (small, big) = if self.len() <= other.len() { (self, other) } else { (other, self) };
        for &(lo, hi) in &small.ivs {
            let first = big.first_ending_after(lo);
            for &(blo, bhi) in big.ivs[first..].iter().take_while(|&&(blo, _)| blo < hi) {
                out.push((lo.max(blo), hi.min(bhi)));
            }
        }
    }

    /// True if any byte overlaps between the two sets (early-exit form).
    pub fn intersects(&self, other: &IntervalTree) -> bool {
        let (small, big) = if self.len() <= other.len() { (self, other) } else { (other, self) };
        small.iter().any(|(lo, hi)| big.overlaps(lo, hi))
    }
}

/// Merge each interval of the sorted `v` into its predecessor when they
/// overlap or touch, in place.
fn coalesce(v: &mut Vec<(u64, u64)>) {
    v.dedup_by(|next, kept| {
        let touches = next.0 <= kept.1;
        if touches {
            kept.1 = kept.1.max(next.1);
        }
        touches
    });
}

/// Merge two coalesced sorted arrays in one pass into an exact-length
/// coalesced array.
fn merge(a: &[(u64, u64)], b: &[(u64, u64)]) -> Vec<(u64, u64)> {
    let mut out: Vec<(u64, u64)> = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0, 0);
    while i < a.len() || j < b.len() {
        let next = if j == b.len() || (i < a.len() && a[i] <= b[j]) {
            i += 1;
            a[i - 1]
        } else {
            j += 1;
            b[j - 1]
        };
        match out.last_mut() {
            Some((_, hi)) if next.0 <= *hi => *hi = (*hi).max(next.1),
            _ => out.push(next),
        }
    }
    out.shrink_to_fit();
    out
}

/// A naive interval set (sorted scan) with identical semantics — the
/// baseline for the E9 ablation bench and the property-test oracle.
#[derive(Clone, Debug, Default)]
pub struct NaiveIntervalSet {
    items: Vec<(u64, u64)>,
}

impl NaiveIntervalSet {
    pub fn insert(&mut self, lo: u64, hi: u64) {
        if lo >= hi {
            return;
        }
        self.items.push((lo, hi));
    }

    pub fn contains(&self, addr: u64) -> bool {
        self.items.iter().any(|&(lo, hi)| addr >= lo && addr < hi)
    }

    pub fn overlaps(&self, lo: u64, hi: u64) -> bool {
        self.items.iter().any(|&(ilo, ihi)| ilo < hi && lo < ihi)
    }

    pub fn intersects(&self, other: &NaiveIntervalSet) -> bool {
        self.items.iter().any(|&(lo, hi)| other.overlaps(lo, hi))
    }

    /// Normalized disjoint intervals (for comparison with the set).
    pub fn normalized(&self) -> Vec<(u64, u64)> {
        let mut v = self.items.clone();
        v.sort_unstable();
        let mut out: Vec<(u64, u64)> = Vec::new();
        for (lo, hi) in v {
            match out.last_mut() {
                Some((_, phi)) if lo <= *phi => *phi = (*phi).max(hi),
                _ => out.push((lo, hi)),
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn insert_and_merge_adjacent() {
        let mut t = IntervalTree::new();
        t.insert(0, 8);
        t.insert(8, 16); // adjacent → merged
        assert_eq!(t.len(), 1);
        assert_eq!(t.iter().collect::<Vec<_>>(), vec![(0, 16)]);
        t.insert(32, 40);
        assert_eq!(t.len(), 2);
        t.insert(10, 34); // bridges both
        assert_eq!(t.iter().collect::<Vec<_>>(), vec![(0, 40)]);
        assert_eq!(t.covered_bytes(), 40);
        assert_eq!(t.accesses(), 4);
    }

    #[test]
    fn contained_insert_is_absorbed() {
        let mut t = IntervalTree::new();
        t.insert(0, 100);
        t.insert(10, 20);
        assert_eq!(t.len(), 1);
        assert_eq!(t.iter().next(), Some((0, 100)));
    }

    #[test]
    fn empty_and_degenerate() {
        let mut t = IntervalTree::new();
        t.insert(5, 5);
        t.insert(7, 3);
        assert!(t.is_empty());
        assert!(!t.contains(5));
        assert!(!t.overlaps(0, 100));
        assert_eq!(t.intersect(&IntervalTree::new()), vec![]);
    }

    #[test]
    fn overlap_queries() {
        let mut t = IntervalTree::new();
        t.insert(10, 20);
        t.insert(30, 40);
        assert!(t.overlaps(15, 16));
        assert!(t.overlaps(19, 31));
        assert!(!t.overlaps(20, 30), "half-open: 20 and 30 not covered");
        assert!(t.contains(10));
        assert!(!t.contains(20));
        assert!(t.contains(39));
    }

    #[test]
    fn dense_array_sweep_stays_compact() {
        // a segment writing a[0..1000] as 8-byte elements
        let mut t = IntervalTree::new();
        for i in 0..1000u64 {
            t.insert(0x1000 + i * 8, 0x1000 + i * 8 + 8);
        }
        assert_eq!(t.len(), 1, "dense accesses accumulate into one interval");
        assert_eq!(t.covered_bytes(), 8000);
        assert_eq!(t.accesses(), 1000);
    }

    #[test]
    fn intersect_reports_overlap_ranges() {
        let mut a = IntervalTree::new();
        a.insert(0, 10);
        a.insert(20, 30);
        let mut b = IntervalTree::new();
        b.insert(5, 25);
        assert_eq!(a.intersect(&b), vec![(5, 10), (20, 25)]);
        assert_eq!(b.intersect(&a), vec![(5, 10), (20, 25)], "symmetric");
        assert!(a.intersects(&b));
        let mut c = IntervalTree::new();
        c.insert(10, 20);
        assert!(!a.intersects(&c));
        assert_eq!(a.intersect(&c), vec![]);
    }

    #[test]
    fn bulk_extend_matches_insert_loop() {
        let events = vec![(40u64, 48u64), (0, 8), (8, 16), (100, 108), (4, 20), (99, 100)];
        let mut bulk = IntervalTree::new();
        bulk.bulk_extend(events.clone(), events.len() as u64);
        let mut reference = IntervalTree::new();
        for &(lo, hi) in &events {
            reference.insert(lo, hi);
        }
        assert_eq!(bulk, reference);
        assert_eq!(bulk.accesses(), reference.accesses());
        // extending a non-empty set goes through the merge path
        bulk.bulk_extend(vec![(16, 40), (200, 204)], 2);
        reference.insert(16, 40);
        reference.insert(200, 204);
        assert_eq!(bulk, reference);
    }

    #[test]
    fn bulk_extend_degenerate_and_empty() {
        let mut t = IntervalTree::new();
        t.bulk_extend(Vec::new(), 0);
        assert!(t.is_empty());
        t.bulk_extend(vec![(5, 5), (9, 3)], 0);
        assert!(t.is_empty());
    }

    #[test]
    fn drained_set_holds_exactly_its_intervals() {
        // the drain keeps the buffer's allocation, shrunk to the
        // coalesced length: 16 bytes per interval, whatever the batch
        // size was
        let mut buf = Vec::with_capacity(64);
        buf.extend([(40u64, 48u64), (0, 8), (8, 16), (100, 108)]);
        let mut t = IntervalTree::new();
        t.bulk_extend(buf, 4);
        assert_eq!(t.iter().collect::<Vec<_>>(), vec![(0, 16), (40, 48), (100, 108)]);
        assert_eq!(t.heap_bytes(), 3 * 16);
        // a second drain merges into a new exact-length array
        t.bulk_extend(vec![(200, 208), (16, 40), (300, 300)], 3);
        assert_eq!(t.iter().collect::<Vec<_>>(), vec![(0, 48), (100, 108), (200, 208)]);
        assert_eq!(t.heap_bytes(), 3 * 16);
        assert_eq!(t.accesses(), 7);
        assert_invariants(&t);
        assert_eq!(IntervalTree::new().heap_bytes(), 0);
    }

    /// The structural invariant every mutation must preserve: intervals
    /// non-degenerate, strictly ordered, disjoint and non-adjacent
    /// (adjacent ranges must have been coalesced).
    fn assert_invariants(t: &IntervalTree) {
        let v: Vec<_> = t.iter().collect();
        for &(lo, hi) in &v {
            assert!(lo < hi, "degenerate interval in {v:?}");
        }
        for w in v.windows(2) {
            assert!(w[0].1 < w[1].0, "overlapping or adjacent intervals survived: {v:?}");
        }
    }

    #[test]
    fn bulk_extend_empty_drain_is_noop() {
        // a segment that buffered nothing still drains at close
        let mut t = IntervalTree::new();
        t.insert(10, 20);
        let before: Vec<_> = t.iter().collect();
        t.bulk_extend(Vec::new(), 0);
        assert_eq!(t.iter().collect::<Vec<_>>(), before);
        assert_eq!(t.accesses(), 1);
        assert_invariants(&t);
    }

    #[test]
    fn bulk_extend_single_interval() {
        // both build paths: the batch becomes the set (empty set) ...
        let mut t = IntervalTree::new();
        t.bulk_extend(vec![(64, 72)], 1);
        assert_eq!(t.iter().collect::<Vec<_>>(), vec![(64, 72)]);
        assert_eq!(t.accesses(), 1);
        assert_invariants(&t);
        // ... and the merge path (non-empty set), bridging the gap
        t.bulk_extend(vec![(72, 80)], 1);
        assert_eq!(t.iter().collect::<Vec<_>>(), vec![(64, 80)]);
        assert_eq!(t.accesses(), 2);
        assert_invariants(&t);
    }

    #[test]
    fn bulk_extend_fully_overlapping_run_coalesces_to_one() {
        // every event covered by the first: one interval, all accesses
        // credited (the buffer's raw count outlives the coalesce)
        let events = vec![(0u64, 100u64), (10, 20), (20, 30), (0, 100), (99, 100)];
        let mut t = IntervalTree::new();
        t.bulk_extend(events, 5);
        assert_eq!(t.iter().collect::<Vec<_>>(), vec![(0, 100)]);
        assert_eq!(t.len(), 1);
        assert_eq!(t.accesses(), 5);
        assert_invariants(&t);
    }

    #[test]
    fn bulk_extend_adjacent_touching_intervals_coalesce() {
        // touching but non-overlapping [0,8)[8,16)[16,24) — arrival order
        // scrambled; half-open semantics make them one interval
        let mut t = IntervalTree::new();
        t.bulk_extend(vec![(8, 16), (16, 24), (0, 8)], 3);
        assert_eq!(t.iter().collect::<Vec<_>>(), vec![(0, 24)]);
        assert_eq!(t.covered_bytes(), 24);
        assert_invariants(&t);
        // a second adjacent batch extends the same interval via the merge
        t.bulk_extend(vec![(24, 32)], 1);
        assert_eq!(t.iter().collect::<Vec<_>>(), vec![(0, 32)]);
        assert_invariants(&t);
        // near-adjacent (one-byte gap) must NOT coalesce
        t.bulk_extend(vec![(34, 40)], 1);
        assert_eq!(t.iter().collect::<Vec<_>>(), vec![(0, 32), (34, 40)]);
        assert_invariants(&t);
    }

    proptest! {
        #[test]
        fn bulk_extend_equals_incremental(
            batches in prop::collection::vec(
                prop::collection::vec((0u64..400, 1u64..48), 0..60), 1..4),
        ) {
            let mut bulk = IntervalTree::new();
            let mut reference = IntervalTree::new();
            for batch in batches {
                let events: Vec<(u64, u64)> =
                    batch.iter().map(|&(lo, len)| (lo, lo + len)).collect();
                for &(lo, hi) in &events {
                    reference.insert(lo, hi);
                }
                let n = events.len() as u64;
                bulk.bulk_extend(events, n);
            }
            prop_assert_eq!(&bulk, &reference);
            prop_assert_eq!(bulk.accesses(), reference.accesses());
        }

        #[test]
        fn tree_matches_naive_model(
            ops in prop::collection::vec((0u64..256, 1u64..32), 1..120),
            probes in prop::collection::vec((0u64..300, 1u64..16), 1..40),
        ) {
            let mut tree = IntervalTree::new();
            let mut naive = NaiveIntervalSet::default();
            for (lo, len) in ops {
                tree.insert(lo, lo + len);
                naive.insert(lo, lo + len);
            }
            prop_assert_eq!(tree.iter().collect::<Vec<_>>(), naive.normalized());
            for (lo, len) in probes {
                prop_assert_eq!(tree.overlaps(lo, lo + len), naive.overlaps(lo, lo + len));
                prop_assert_eq!(tree.contains(lo), naive.contains(lo));
            }
        }

        #[test]
        fn intersect_agrees_with_naive(
            a_ops in prop::collection::vec((0u64..200, 1u64..24), 0..60),
            b_ops in prop::collection::vec((0u64..200, 1u64..24), 0..60),
        ) {
            let mut ta = IntervalTree::new();
            let mut na = NaiveIntervalSet::default();
            for (lo, len) in a_ops { ta.insert(lo, lo + len); na.insert(lo, lo + len); }
            let mut tb = IntervalTree::new();
            let mut nb = NaiveIntervalSet::default();
            for (lo, len) in b_ops { tb.insert(lo, lo + len); nb.insert(lo, lo + len); }
            prop_assert_eq!(ta.intersects(&tb), na.intersects(&nb));
            // every byte reported by intersect() is in both trees, and
            // every commonly-covered byte is reported
            let ranges = ta.intersect(&tb);
            for &(lo, hi) in &ranges {
                for x in lo..hi {
                    prop_assert!(ta.contains(x) && tb.contains(x));
                }
            }
            for x in 0u64..232 {
                let both = ta.contains(x) && tb.contains(x);
                let reported = ranges.iter().any(|&(lo, hi)| x >= lo && x < hi);
                prop_assert_eq!(both, reported, "byte {}", x);
            }
        }

        #[test]
        fn invariants_hold(ops in prop::collection::vec((0u64..1000, 1u64..64), 0..200)) {
            let mut t = IntervalTree::new();
            for (lo, len) in ops { t.insert(lo, lo + len); }
            // disjoint and non-adjacent, strictly ordered
            let v: Vec<_> = t.iter().collect();
            for w in v.windows(2) {
                prop_assert!(w[0].1 < w[1].0, "disjoint+non-adjacent: {:?}", v);
            }
            for &(lo, hi) in &v {
                prop_assert!(lo < hi);
            }
        }
    }
}
