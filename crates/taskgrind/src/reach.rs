//! Happens-before reachability over the segment graph.
//!
//! Algorithm 1 asks, for a segment pair, whether a path exists between
//! them. The analysis asks only for the pairs the sweep emits, whose
//! footprints overlap (`analysis::sweep_pairs`), so [`Reachability`]
//! answers each query with one search over an `O(n + e)` index: the
//! successor lists in one flat array, each node's position in the
//! graph's Kahn order, and one reused search scratch. A search from `a`
//! never enters a node ranked at or after `b`, since no path to `b`
//! leaves through one.
//!
//! Two oracles answer the same question for tests and the E9 bench:
//! [`Closure`], the `n × ⌈n/64⌉`-word transitive-closure bitset that
//! answered every query before the sweep, and [`dfs_reaches`], an
//! unpruned DFS. No option selects either.

use crate::graph::{SegId, SegmentGraph, Successors};
use std::cell::RefCell;

/// Rank of a node the Kahn order never reached (on or after a cycle).
const UNRANKED: u32 = u32::MAX;

/// The happens-before index of one graph.
pub struct Reachability {
    succ: Successors,
    /// Each node's position in `SegmentGraph::topo_order`, or
    /// [`UNRANKED`].
    rank: Vec<u32>,
    search: RefCell<Search>,
}

/// Scratch one search reuses: no query allocates.
struct Search {
    /// Stamp of the last search that entered each node.
    seen: Vec<u32>,
    epoch: u32,
    /// Holds at most one entry per node, so it never grows past its
    /// initial capacity.
    stack: Vec<u32>,
}

impl Reachability {
    /// Build the index. The graph must be a DAG (event-ordered
    /// construction guarantees it, and `finalize` asserts it in debug
    /// builds): a node on a cycle is missing from the topological order,
    /// so it reaches nothing, and no path passes through it.
    pub fn compute(g: &SegmentGraph) -> Reachability {
        let n = g.n_nodes();
        let succ = g.successors();
        let mut rank = vec![UNRANKED; n];
        for (r, u) in g.topo_order(&succ).into_iter().enumerate() {
            rank[u] = r as u32;
        }
        let search = Search { seen: vec![0; n], epoch: 0, stack: Vec::with_capacity(n) };
        Reachability { succ, rank, search: RefCell::new(search) }
    }

    /// Is there a path `a → b`? Every edge goes up in rank, so only a
    /// lower-ranked `a` can reach `b`, and only through nodes ranked
    /// below `b`.
    pub fn reaches(&self, a: SegId, b: SegId) -> bool {
        let rb = self.rank[b as usize];
        if self.rank[a as usize] >= rb {
            return false;
        }
        let mut s = self.search.borrow_mut();
        s.epoch = s.epoch.wrapping_add(1);
        if s.epoch == 0 {
            s.seen.fill(0);
            s.epoch = 1;
        }
        let Search { seen, epoch, stack } = &mut *s;
        stack.clear();
        stack.push(a);
        while let Some(u) = stack.pop() {
            for &v in self.succ.of(u as usize) {
                if v == b {
                    return true;
                }
                if self.rank[v as usize] < rb && seen[v as usize] != *epoch {
                    seen[v as usize] = *epoch;
                    stack.push(v);
                }
            }
        }
        false
    }

    /// Are the two segments ordered either way? At most one of the two
    /// directions passes the rank test, so this runs at most one search.
    pub fn ordered(&self, a: SegId, b: SegId) -> bool {
        a == b || self.reaches(a, b) || self.reaches(b, a)
    }

    /// Bytes the index holds, search scratch included (memory
    /// accounting): `4 × (4n + e + 1)` for n nodes and e edges.
    pub fn heap_bytes(&self) -> u64 {
        let s = self.search.borrow();
        let words = self.rank.capacity() + s.seen.capacity() + s.stack.capacity();
        self.succ.heap_bytes() + (words * std::mem::size_of::<u32>()) as u64
    }
}

/// The transitive closure as row-major bitsets: `n × ⌈n/64⌉` words,
/// computed once in reverse topological order. The test oracle for
/// [`Reachability`] and the E9 bench's all-pairs baseline.
pub struct Closure {
    words: usize,
    /// `bits[i*words..(i+1)*words]` = nodes reachable from node `i`
    /// (never `i` itself).
    bits: Vec<u64>,
}

impl Closure {
    /// Compute the closure. A node missing from the topological order
    /// (on or after a cycle) keeps an empty row: it reaches nothing.
    pub fn compute(g: &SegmentGraph) -> Closure {
        let n = g.n_nodes();
        let words = n.div_ceil(64);
        let mut bits = vec![0u64; n * words];
        let succ = g.successors();
        for u in g.topo_order(&succ).into_iter().rev() {
            for &v in succ.of(u) {
                let v = v as usize;
                bits[u * words + v / 64] |= 1u64 << (v % 64);
                // row_u |= row_v
                let (ur, vr) = (u * words, v * words);
                for w in 0..words {
                    let x = bits[vr + w];
                    bits[ur + w] |= x;
                }
            }
        }
        Closure { words, bits }
    }

    /// Is there a path `a → b`?
    pub fn reaches(&self, a: SegId, b: SegId) -> bool {
        let (a, b) = (a as usize, b as usize);
        self.bits[a * self.words + b / 64] >> (b % 64) & 1 == 1
    }

    /// Are the two segments ordered either way?
    pub fn ordered(&self, a: SegId, b: SegId) -> bool {
        a == b || self.reaches(a, b) || self.reaches(b, a)
    }

    /// Bytes the bitsets hold.
    pub fn heap_bytes(&self) -> u64 {
        (self.bits.len() * 8) as u64
    }
}

/// Unpruned DFS reachability — the oracle and ablation baseline.
pub fn dfs_reaches(g: &SegmentGraph, from: SegId, to: SegId) -> bool {
    if from == to {
        return false;
    }
    let succ = g.successors();
    let mut seen = vec![false; g.n_nodes()];
    let mut stack = vec![from as usize];
    while let Some(u) = stack.pop() {
        for &v in succ.of(u) {
            if v == to {
                return true;
            }
            if !seen[v as usize] {
                seen[v as usize] = true;
                stack.push(v as usize);
            }
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{GraphBuilder, ThreadMeta};
    use proptest::prelude::*;

    fn chain_graph(n: usize) -> SegmentGraph {
        // build via the builder to keep Segment construction in one place
        let mut b = GraphBuilder::new();
        let m = ThreadMeta::default();
        b.record_access(&m, 0, 1, false); // creates root segment 0
        for _ in 1..n {
            b.critical_enter(&m, 1);
        }
        b.finalize()
    }

    #[test]
    fn chain_is_totally_ordered() {
        let g = chain_graph(5);
        let r = Reachability::compute(&g);
        let c = Closure::compute(&g);
        for i in 0..g.n_nodes() as u32 {
            for j in 0..g.n_nodes() as u32 {
                assert_eq!(r.reaches(i, j), i < j, "chain {i}->{j}");
                assert_eq!(c.reaches(i, j), i < j, "chain {i}->{j}");
                assert_eq!(dfs_reaches(&g, i, j), i < j);
            }
        }
    }

    #[test]
    fn fork_is_unordered() {
        let mut b = GraphBuilder::new();
        let m = ThreadMeta::default();
        let t1 = b.task_create(&m, 0, 0);
        b.task_spawn(&m, t1);
        let t2 = b.task_create(&m, 0, 0);
        b.task_spawn(&m, t2);
        b.task_begin(&m, t1);
        b.task_end(&m, t1);
        b.task_begin(&m, t2);
        b.task_end(&m, t2);
        let g = b.finalize();
        let r = Reachability::compute(&g);
        let s1 = g.tasks[t1 as usize].first_seg.unwrap();
        let s2 = g.tasks[t2 as usize].first_seg.unwrap();
        assert!(!r.ordered(s1, s2));
        assert!(!Closure::compute(&g).ordered(s1, s2));
        assert!(!dfs_reaches(&g, s1, s2) && !dfs_reaches(&g, s2, s1));
    }

    #[test]
    fn heap_bytes_count_four_words_per_node_and_one_per_edge() {
        let g = chain_graph(70);
        let (n, e) = (g.n_nodes() as u64, g.edges.len() as u64);
        assert_eq!(Reachability::compute(&g).heap_bytes(), 4 * (4 * n + e + 1));
        assert_eq!(Closure::compute(&g).heap_bytes(), n * n.div_ceil(64) * 8);
    }

    proptest! {
        /// The index, the closure and the unpruned DFS agree on every
        /// node pair of random task-structured graphs.
        #[test]
        fn closure_matches_dfs(ops in prop::collection::vec(0u8..6, 1..40)) {
            let mut b = GraphBuilder::new();
            let m = ThreadMeta::default();
            let mut live: Vec<u64> = Vec::new();
            for op in ops {
                match op {
                    0 | 1 => {
                        let t = b.task_create(&m, 0, 0);
                        b.task_spawn(&m, t);
                        live.push(t);
                    }
                    2 => {
                        if let Some(t) = live.pop() {
                            b.task_begin(&m, t);
                            b.record_access(&m, t * 8, 8, true);
                            b.task_end(&m, t);
                        }
                    }
                    3 => b.taskwait(&m),
                    4 => b.critical_enter(&m, 1),
                    _ => b.critical_exit(&m, 1),
                }
            }
            for t in live.drain(..) {
                b.task_begin(&m, t);
                b.task_end(&m, t);
            }
            let g = b.finalize();
            let r = Reachability::compute(&g);
            let c = Closure::compute(&g);
            let n = g.n_nodes() as u32;
            for i in 0..n {
                for j in 0..n {
                    let want = dfs_reaches(&g, i, j);
                    prop_assert_eq!(c.reaches(i, j), want, "closure {} -> {}", i, j);
                    prop_assert_eq!(r.reaches(i, j), want, "index {} -> {}", i, j);
                    prop_assert_eq!(r.ordered(i, j), c.ordered(i, j), "{} ~ {}", i, j);
                }
            }
        }
    }
}
