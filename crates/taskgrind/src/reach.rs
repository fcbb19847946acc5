//! Happens-before reachability over the segment graph.
//!
//! Algorithm 1 asks, for every segment pair, whether a path exists
//! between them. The analysis-phase workhorse is a transitive-closure
//! bitset computed once in topological order (`O(V·E/64)` words); an
//! on-demand DFS is kept both as the oracle for tests and as the
//! baseline for the E9 ablation bench.

use crate::graph::{SegId, SegmentGraph};

/// Precomputed transitive closure.
pub struct Reachability {
    n: usize,
    words: usize,
    /// Row-major bitsets: `bits[i*words..(i+1)*words]` = nodes reachable
    /// from node `i` (never `i` itself).
    bits: Vec<u64>,
}

impl Reachability {
    /// Compute the closure. The graph must be a DAG (event-ordered
    /// construction guarantees it, and debug builds assert it): a node
    /// on a cycle is missing from the topological order, so its row
    /// stays empty: it reaches nothing.
    pub fn compute(g: &SegmentGraph) -> Reachability {
        let n = g.n_nodes();
        let words = n.div_ceil(64);
        let mut bits = vec![0u64; n * words];
        let succ = g.successors();
        let topo = g.topo_order(&succ);
        debug_assert_eq!(topo.len(), n, "segment graph must be acyclic");

        // Propagate in reverse topological order.
        for &u in topo.iter().rev() {
            for &v in &succ[u] {
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
        Reachability { n, words, bits }
    }

    /// Is there a path `a → b`?
    pub fn reaches(&self, a: SegId, b: SegId) -> bool {
        let (a, b) = (a as usize, b as usize);
        debug_assert!(a < self.n && b < self.n);
        self.bits[a * self.words + b / 64] >> (b % 64) & 1 == 1
    }

    /// Are the two segments ordered either way?
    pub fn ordered(&self, a: SegId, b: SegId) -> bool {
        a == b || self.reaches(a, b) || self.reaches(b, a)
    }

    /// Bytes held by the closure (memory accounting).
    pub fn heap_bytes(&self) -> u64 {
        (self.bits.len() * 8) as u64
    }
}

/// On-demand DFS reachability — the oracle and ablation baseline.
pub fn dfs_reaches(g: &SegmentGraph, from: SegId, to: SegId) -> bool {
    if from == to {
        return false;
    }
    let succ = g.successors();
    let mut seen = vec![false; g.n_nodes()];
    let mut stack = vec![from as usize];
    while let Some(u) = stack.pop() {
        for &v in &succ[u] {
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
        for i in 0..g.n_nodes() as u32 {
            for j in 0..g.n_nodes() as u32 {
                assert_eq!(r.reaches(i, j), i < j, "chain {i}->{j}");
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
        assert!(!dfs_reaches(&g, s1, s2) && !dfs_reaches(&g, s2, s1));
    }

    proptest! {
        /// Closure agrees with DFS on random task-structured graphs.
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
            let n = g.n_nodes() as u32;
            for i in 0..n {
                for j in 0..n {
                    prop_assert_eq!(r.reaches(i, j), dfs_reaches(&g, i, j), "{} -> {}", i, j);
                }
            }
        }
    }
}
