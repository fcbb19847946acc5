//! The segment graph (paper §II-A, Fig. 1) and its event-driven builder.
//!
//! Nodes are *segments* — non-divisible instruction sequences of one
//! task execution — plus synthetic sync nodes (parallel-region begin/
//! end, barriers) that encode the happens-before relation without
//! quadratic edge blowup. A path `s1 → s2` exists iff a synchronization
//! imposes `s1 ≺ s2`.
//!
//! [`GraphBuilder`] consumes the client-request events the guest
//! runtime emits (the OMPT-tool of Fig. 2) and produces the final
//! [`SegmentGraph`]. It is the one decoder of the client-request ABI:
//! Taskgrind and the segment-graph baselines (ROMP, TaskSanitizer) hand
//! each runtime event to [`GraphBuilder::client_request`], after dropping
//! the events they do not model. The events shape the graph as follows:
//!
//! * task creation **splits** the creator's segment — code after the
//!   spawn is concurrent with the child until a taskwait/taskgroup/
//!   barrier joins them;
//! * `depend` clauses create task-level edges resolved post-mortem
//!   (predecessor's final segment → successor's first segment), matched
//!   **per parent task** as the OpenMP spec scopes dependences to
//!   sibling tasks — which is how non-sibling races (DRB173) stay
//!   visible;
//! * the parallel-region rule (Eq. 1) falls out of the region begin/end
//!   sync nodes: every segment of region `r` is sandwiched between its
//!   begin and end nodes, which chain through the master thread;
//! * `critical` sections split segments and tag them with the held lock
//!   set; `mutexinoutset` tags tasks with their mutex objects — both are
//!   consumed by suppression, not by reachability.

use crate::itree::IntervalTree;
use grindcore::creq::{self, task_flags};
use grindcore::{Tid, VmCore};
use std::collections::HashMap;

pub type SegId = u32;
pub type TaskId = u32;

/// Dependence kinds (mirror `grindcore::creq::dep_kind`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DepKind {
    In,
    Out,
    Inout,
    Mutexinoutset,
    Inoutset,
}

impl DepKind {
    pub fn from_u64(v: u64) -> DepKind {
        match v {
            0 => DepKind::In,
            1 => DepKind::Out,
            2 => DepKind::Inout,
            3 => DepKind::Mutexinoutset,
            _ => DepKind::Inoutset,
        }
    }
}

/// Per-thread execution metadata captured at event time, used by the
/// false-positive suppression layers (§IV-C, §IV-D).
#[derive(Clone, Copy, Debug, Default)]
pub struct ThreadMeta {
    /// VM thread index. The builder's context table is indexed by it,
    /// so tids must be small dense indices, as `core.threads` positions
    /// are.
    pub tid: Tid,
    /// Stack pointer at the event — the "registered stack frame".
    pub sp: u64,
    pub stack_low: u64,
    pub stack_high: u64,
    pub tls_base: u64,
    pub tls_size: u64,
    /// DTV generation analog.
    pub tls_gen: u64,
}

impl ThreadMeta {
    /// VM thread `tid`'s stack pointer, stack bounds and TLS record, as
    /// they stand now.
    #[inline]
    pub fn of(core: &VmCore, tid: Tid) -> ThreadMeta {
        let t = &core.threads[tid];
        ThreadMeta {
            tid,
            sp: t.reg(tga::reg::SP),
            stack_low: t.stack_low,
            stack_high: t.stack_high,
            tls_base: t.tls_base,
            tls_size: t.tls_size,
            tls_gen: t.tls_gen,
        }
    }
}

/// One segment.
#[derive(Clone, Debug)]
pub struct Segment {
    pub id: SegId,
    /// Owning task; `None` for synthetic sync nodes.
    pub task: Option<TaskId>,
    /// Executing VM thread.
    pub thread: Tid,
    pub sync: bool,
    /// Human-readable kind, for DOT dumps.
    pub kind: &'static str,
    pub reads: IntervalTree,
    pub writes: IntervalTree,
    /// Stack pointer registered at segment start (§IV-D).
    pub start_sp: u64,
    pub stack_low: u64,
    pub stack_high: u64,
    /// TCB/DTV record (§IV-C).
    pub tls_base: u64,
    pub tls_size: u64,
    pub tls_gen: u64,
    /// Critical-section locks held throughout this segment.
    pub locks: Vec<u64>,
    /// Global client-request sequence number current when this segment
    /// opened ([`GraphBuilder::set_seq`]; 0 if the driver never stamps
    /// one). The confirm replay explorer uses it to locate a candidate's
    /// enclosing epoch in a deterministic re-execution.
    pub open_seq: u64,
}

impl Segment {
    pub fn bytes(&self) -> u64 {
        self.reads.heap_bytes() + self.writes.heap_bytes() + 160
    }
}

/// One task (explicit, implicit, or a thread root).
#[derive(Clone, Debug)]
pub struct TaskNode {
    pub id: TaskId,
    pub flags: u64,
    /// Address of the outlined body (for source attribution).
    pub fn_addr: u64,
    pub parent: Option<TaskId>,
    /// Creator's segment at creation (edge to `first_seg`).
    pub create_seg: Option<SegId>,
    pub first_seg: Option<SegId>,
    pub last_seg: Option<SegId>,
    pub children: Vec<TaskId>,
    /// Task-level dependence predecessors (resolved at finalize).
    pub dep_preds: Vec<TaskId>,
    /// mutexinoutset dependence objects this task holds.
    pub mutex_objs: Vec<u64>,
    /// For `detach` tasks: the segment that fulfilled the completion
    /// event — join edges come from here as well as from `last_seg`.
    pub fulfill_seg: Option<SegId>,
    pub implicit: bool,
}

/// The finished graph.
#[derive(Clone, Debug, Default)]
pub struct SegmentGraph {
    pub segments: Vec<Segment>,
    pub tasks: Vec<TaskNode>,
    pub edges: Vec<(SegId, SegId)>,
}

/// Successor lists in one flat array: node `u`'s successors are
/// `to[off[u]..off[u + 1]]`. [`SegmentGraph::successors`] builds the
/// graph's; the analysis sweep buckets its overlapping pairs the same way.
#[derive(Clone, Debug)]
pub struct Successors {
    off: Vec<u32>,
    to: Vec<SegId>,
}

impl Successors {
    /// Bucket `edges` by source over nodes `0..n`. Each node's
    /// successors keep the order of `edges`, which need not be sorted.
    pub fn from_edges(n: usize, edges: &[(u32, u32)]) -> Successors {
        // off[u] counts u's edges, then (inclusive prefix sum) marks the
        // end of u's run; filling from the back moves it to the start
        let mut off = vec![0u32; n + 1];
        for &(a, _) in edges {
            off[a as usize] += 1;
        }
        let mut end = 0;
        for o in &mut off {
            end += *o;
            *o = end;
        }
        let mut to = vec![0; edges.len()];
        for &(a, b) in edges.iter().rev() {
            off[a as usize] -= 1;
            to[off[a as usize] as usize] = b;
        }
        Successors { off, to }
    }

    /// The successors of node `u`.
    pub fn of(&self, u: usize) -> &[SegId] {
        &self.to[self.off[u] as usize..self.off[u + 1] as usize]
    }

    /// Bytes the two arrays hold.
    pub fn heap_bytes(&self) -> u64 {
        ((self.off.capacity() + self.to.capacity()) * std::mem::size_of::<u32>()) as u64
    }
}

impl SegmentGraph {
    pub fn n_nodes(&self) -> usize {
        self.segments.len()
    }

    /// Successor lists in one flat array, with offsets counted from the
    /// edge list.
    pub fn successors(&self) -> Successors {
        Successors::from_edges(self.segments.len(), &self.edges)
    }

    /// Kahn's topological order of the nodes, given the graph's
    /// [`Self::successors`]. Nodes on a cycle, and every node after one,
    /// never reach in-degree 0, so a cyclic graph's order is shorter than
    /// the graph.
    pub(crate) fn topo_order(&self, succ: &Successors) -> Vec<usize> {
        let n = self.segments.len();
        let mut indeg = vec![0u32; n];
        for &(_, b) in &self.edges {
            if (b as usize) < n {
                indeg[b as usize] += 1;
            }
        }
        let mut order: Vec<usize> = (0..n).filter(|&i| indeg[i] == 0).collect();
        let mut qi = 0;
        while qi < order.len() {
            let u = order[qi];
            qi += 1;
            for &v in succ.of(u) {
                indeg[v as usize] -= 1;
                if indeg[v as usize] == 0 {
                    order.push(v as usize);
                }
            }
        }
        order
    }

    /// Structural validation: edges in range, acyclic, task segment
    /// bookkeeping consistent, sync nodes access-free. Returns every
    /// defect found (empty = valid). Used by tests and debug builds.
    pub fn validate(&self) -> Vec<String> {
        let mut errs = Vec::new();
        let n = self.segments.len() as u32;
        for &(a, b) in &self.edges {
            if a >= n || b >= n {
                errs.push(format!("edge ({a},{b}) out of range (n={n})"));
            }
            if a == b {
                errs.push(format!("self edge on segment {a}"));
            }
        }
        let seen = self.topo_order(&self.successors()).len();
        if seen != self.segments.len() {
            errs.push(format!(
                "graph has a cycle: {seen}/{} nodes in topological order",
                self.segments.len()
            ));
        }
        for s in &self.segments {
            if s.sync && (!s.reads.is_empty() || !s.writes.is_empty()) {
                errs.push(format!("sync node {} has recorded accesses", s.id));
            }
            if let Some(t) = s.task {
                if t as usize >= self.tasks.len() {
                    errs.push(format!("segment {} references bad task {t}", s.id));
                }
            }
        }
        for t in &self.tasks {
            if t.first_seg.is_some() != t.last_seg.is_some() {
                errs.push(format!("task {} has first/last segment mismatch", t.id));
            }
        }
        errs
    }

    /// Graphviz dump (Fig. 1 regeneration).
    pub fn to_dot(&self) -> String {
        use std::fmt::Write;
        let mut out = String::from("digraph segments {\n  rankdir=TB;\n");
        for s in &self.segments {
            let shape = if s.sync { "diamond" } else { "box" };
            let label = match s.task {
                Some(t) => format!("S{} ({}, task {})", s.id, s.kind, t),
                None => format!("{} #{}", s.kind, s.id),
            };
            let _ = writeln!(out, "  n{} [shape={shape}, label=\"{label}\"];", s.id);
        }
        for &(a, b) in &self.edges {
            let _ = writeln!(out, "  n{a} -> n{b};");
        }
        out.push('}');
        out
    }
}

/// How many of the most recently appended intervals (per direction)
/// [`AccessBuf::push`] tries to extend before appending a new one.
/// Loops that sweep several arrays in lockstep (mini-LULESH's element
/// and node kernels) interleave that many dense runs; a window of 4
/// leaves 832 intervals buffered over a Table II run where a window of
/// 1 leaves 365,850 and 2 leaves 205,449 (16 is no better than 4).
const PUSH_WINDOW: usize = 4;

/// Append-only access buffer for the bulk-ingestion path: flat
/// `(lo, hi)` intervals (split by direction) appended straight from the
/// access callback and handed to the segment's interval sets when the
/// segment closes, where each buffer is sorted and coalesced in place
/// and kept as the set. A small window over the last [`PUSH_WINDOW`]
/// appended intervals absorbs dense sequential and strided accesses in
/// place — also when a loop sweeps several arrays at once — so a tight
/// sweep costs a few compares and an extend per access.
#[derive(Default)]
struct AccessBuf {
    reads: Vec<(u64, u64)>,
    writes: Vec<(u64, u64)>,
    /// Raw access counts represented by the buffers (the fast path
    /// collapses entries, so `len()` undercounts).
    n_reads: u64,
    n_writes: u64,
}

impl AccessBuf {
    #[inline]
    fn push(&mut self, lo: u64, hi: u64, write: bool) {
        if lo >= hi {
            return;
        }
        let (v, n) = if write {
            (&mut self.writes, &mut self.n_writes)
        } else {
            (&mut self.reads, &mut self.n_reads)
        };
        *n += 1;
        let window = v.len().saturating_sub(PUSH_WINDOW);
        for e in v[window..].iter_mut().rev() {
            // touching or overlapping a recently appended interval:
            // extend it in place, newest first (any merge is sound — the
            // union of two touching intervals is one interval, and the
            // drain sorts and coalesces the whole buffer anyway, so an
            // extended entry may freely overlap its neighbours)
            if lo <= e.1 && e.0 <= hi {
                e.0 = e.0.min(lo);
                e.1 = e.1.max(hi);
                return;
            }
        }
        v.push((lo, hi));
    }

    fn is_empty(&self) -> bool {
        self.n_reads == 0 && self.n_writes == 0
    }

    fn heap_bytes(&self) -> u64 {
        ((self.reads.capacity() + self.writes.capacity()) * 16) as u64
    }
}

/// Drain a context's access buffer into its current segment's sets.
fn flush_buf(segments: &mut [Segment], c: &mut ExecCtx) {
    if c.buf.is_empty() {
        return;
    }
    let s = &mut segments[c.cur_seg as usize];
    let reads = std::mem::take(&mut c.buf.reads);
    let n_reads = std::mem::replace(&mut c.buf.n_reads, 0);
    if n_reads > 0 {
        s.reads.bulk_extend(reads, n_reads);
    }
    let writes = std::mem::take(&mut c.buf.writes);
    let n_writes = std::mem::replace(&mut c.buf.n_writes, 0);
    if n_writes > 0 {
        s.writes.bulk_extend(writes, n_writes);
    }
}

/// Insert into a sorted vector, keeping it sorted (duplicates kept,
/// matching the old push semantics). Lock sets and mutex-object sets
/// stay sorted at build time so [`crate::analysis`] can intersect them
/// with a linear merge instead of an `O(n·m)` contains scan.
fn insert_sorted(v: &mut Vec<u64>, x: u64) {
    let pos = v.partition_point(|&e| e < x);
    v.insert(pos, x);
}

struct ExecCtx {
    task: TaskId,
    cur_seg: SegId,
    locks: Vec<u64>,
    group: Option<u32>,
    /// Stack pointer at context entry. Segment splits register this
    /// frame (not the split point's deeper sp): everything the task's
    /// call tree allocates lives below it, so §IV-D locality holds for
    /// all of the context's segments.
    base_sp: u64,
    /// Pending accesses of `cur_seg` (bulk-ingestion mode only).
    buf: AccessBuf,
}

impl ExecCtx {
    fn new(task: TaskId, cur_seg: SegId, group: Option<u32>, base_sp: u64) -> ExecCtx {
        ExecCtx { task, cur_seg, locks: Vec::new(), group, base_sp, buf: AccessBuf::default() }
    }
}

struct TaskgroupState {
    members: Vec<TaskId>,
    parent: Option<u32>,
}

struct RegionState {
    begin_node: SegId,
    end_node: SegId,
    team: u64,
    barrier_arrived: u64,
    cur_barrier_node: Option<SegId>,
    /// Explicit tasks created in this region (joined at barriers and at
    /// region end — a barrier completes all tasks generated so far).
    tasks_created: Vec<TaskId>,
}

#[derive(Default)]
struct DepEntry {
    /// Current writer set (one out-task, or the inoutset members).
    writers: Vec<TaskId>,
    readers: Vec<TaskId>,
    /// Set-mode base predecessors.
    basew: Vec<TaskId>,
    baser: Vec<TaskId>,
    set_mode: bool,
}

/// Memory statistics of one graph build, returned by
/// [`GraphBuilder::finalize_with_stats`]. Analysis runs after recording,
/// so every segment's interval sets stay resident until finalize: each
/// peak is the build's total.
#[derive(Clone, Copy, Debug, Default)]
pub struct GraphMemStats {
    /// Real (non-sync) segments, each holding its interval sets.
    pub peak_live_segments: u64,
    /// Heap bytes of the closed segments' interval sets, as allocated.
    pub peak_tool_bytes: u64,
}

/// Builds a [`SegmentGraph`] from runtime events.
pub struct GraphBuilder {
    pub segments: Vec<Segment>,
    pub tasks: Vec<TaskNode>,
    edges: Vec<(SegId, SegId)>,
    /// Joins as (task, segment): edges from the task's final (and
    /// fulfill) segment to `segment`, resolved at finalize once every
    /// task's final segment is known.
    last_to_seg: Vec<(TaskId, SegId)>,
    /// Execution-context stack per thread, indexed by [`Tid`] (VM
    /// thread ids are dense indices into `core.threads`), so the access
    /// path and every runtime event index instead of hashing, and
    /// finalize visits the contexts in tid order.
    ctx: Vec<Vec<ExecCtx>>,
    regions: Vec<RegionState>,
    taskgroups: Vec<TaskgroupState>,
    deps: HashMap<(Option<TaskId>, u64), DepEntry>,
    user_deferrable: bool,
    /// Strip only the UNDEFERRED flag (see [`Self::set_ignore_undeferred`]).
    ignore_undeferred: bool,
    /// Match dependences globally instead of per parent task (baseline
    /// tools that do not scope deps to siblings set this).
    global_dep_scope: bool,
    cur_region: Option<u32>,
    /// Stamped onto each new segment as [`Segment::open_seq`]; driven by
    /// the tool via [`Self::set_seq`] from the VM's global client-request
    /// sequence counter.
    cur_seq: u64,
    /// Bulk ingestion: buffer accesses per context and drain at segment
    /// close (default). `false` is the per-access reference path
    /// (`RecordOptions::bulk_ingest`).
    bulk: bool,
    /// Heap bytes of closed segments' interval sets.
    closed_bytes: u64,
}

impl Default for GraphBuilder {
    fn default() -> Self {
        GraphBuilder::new()
    }
}

impl GraphBuilder {
    pub fn new() -> GraphBuilder {
        GraphBuilder {
            segments: Vec::new(),
            tasks: Vec::new(),
            edges: Vec::new(),
            last_to_seg: Vec::new(),
            ctx: Vec::new(),
            regions: Vec::new(),
            taskgroups: Vec::new(),
            deps: HashMap::new(),
            user_deferrable: false,
            ignore_undeferred: false,
            global_dep_scope: false,
            cur_region: None,
            cur_seq: 0,
            bulk: true,
            closed_bytes: 0,
        }
    }

    /// Record the VM's global client-request sequence number before the
    /// event that carries it is applied: segments created while handling
    /// that event inherit it as [`Segment::open_seq`].
    pub fn set_seq(&mut self, seq: u64) {
        self.cur_seq = seq;
    }

    /// Toggle bulk access ingestion (see [`Self::record_access`]). The
    /// reference per-access path is kept as the differential tests'
    /// oracle; call before recording starts.
    pub fn set_bulk_ingest(&mut self, v: bool) {
        self.bulk = v;
    }

    /// Host bytes held by not-yet-drained access buffers (bulk mode).
    pub fn pending_bytes(&self) -> u64 {
        self.ctx.iter().flatten().map(|c| c.buf.heap_bytes()).sum()
    }

    /// Baseline behaviour: match dependences by address only, ignoring
    /// the sibling-task scoping of the OpenMP spec.
    pub fn set_global_dep_scope(&mut self, v: bool) {
        self.global_dep_scope = v;
    }

    /// Baseline behaviour (ROMP): the `if(0)`/undeferred ordering is not
    /// modelled, but included tasks (runtime serialization) still are.
    pub fn set_ignore_undeferred(&mut self, v: bool) {
        self.ignore_undeferred = v;
    }

    /// Is the task currently executing on `tid` an explicit task?
    pub fn current_task_explicit(&self, tid: Tid) -> bool {
        self.ctx
            .get(tid)
            .and_then(|s| s.last())
            .map(|c| !self.tasks[c.task as usize].implicit)
            .unwrap_or(false)
    }

    /// §V-B annotation: treat runtime-serialized tasks as deferrable.
    pub fn set_user_deferrable(&mut self, v: bool) {
        self.user_deferrable = v;
    }

    fn new_segment(
        &mut self,
        meta: &ThreadMeta,
        task: Option<TaskId>,
        kind: &'static str,
        locks: Vec<u64>,
    ) -> SegId {
        let id = self.segments.len() as SegId;
        self.segments.push(Segment {
            id,
            task,
            thread: meta.tid,
            sync: task.is_none(),
            kind,
            reads: IntervalTree::new(),
            writes: IntervalTree::new(),
            start_sp: meta.sp,
            stack_low: meta.stack_low,
            stack_high: meta.stack_high,
            tls_base: meta.tls_base,
            tls_size: meta.tls_size,
            tls_gen: meta.tls_gen,
            locks,
            open_seq: self.cur_seq,
        });
        id
    }

    fn edge(&mut self, a: SegId, b: SegId) {
        self.edges.push((a, b));
    }

    fn new_task(
        &mut self,
        flags: u64,
        fn_addr: u64,
        parent: Option<TaskId>,
        implicit: bool,
    ) -> TaskId {
        let id = self.tasks.len() as TaskId;
        self.tasks.push(TaskNode {
            id,
            flags,
            fn_addr,
            parent,
            create_seg: None,
            first_seg: None,
            last_seg: None,
            children: Vec::new(),
            dep_preds: Vec::new(),
            mutex_objs: Vec::new(),
            fulfill_seg: None,
            implicit,
        });
        if let Some(p) = parent {
            self.tasks[p as usize].children.push(id);
        }
        id
    }

    /// The thread's context stack, growing the table for a new thread.
    fn stack(&mut self, tid: Tid) -> &mut Vec<ExecCtx> {
        if tid >= self.ctx.len() {
            self.ctx.resize_with(tid + 1, Vec::new);
        }
        &mut self.ctx[tid]
    }

    /// Root execution context for a thread (main, or anything running
    /// user code outside an implicit task).
    fn ensure_ctx(&mut self, meta: &ThreadMeta) {
        if self.stack(meta.tid).is_empty() {
            let task = self.new_task(0, 0, None, true);
            let seg = self.new_segment(meta, Some(task), "root", Vec::new());
            self.tasks[task as usize].first_seg = Some(seg);
            self.ctx[meta.tid].push(ExecCtx::new(task, seg, None, meta.sp));
        }
    }

    fn top(&mut self, meta: &ThreadMeta) -> &mut ExecCtx {
        self.ensure_ctx(meta);
        self.ctx[meta.tid].last_mut().unwrap()
    }

    /// Drain the top context's pending accesses into its current
    /// segment. Must run before `cur_seg` changes or the context pops.
    fn flush_top(&mut self, tid: Tid) {
        if let Some(c) = self.ctx.get_mut(tid).and_then(|s| s.last_mut()) {
            flush_buf(&mut self.segments, c);
        }
    }

    /// Split the current segment of the thread's top context: a new
    /// segment ordered after the old one.
    fn split(&mut self, meta: &ThreadMeta, kind: &'static str) -> (SegId, SegId) {
        self.ensure_ctx(meta);
        self.flush_top(meta.tid);
        let (task, old, locks, base_sp) = {
            let c = self.ctx[meta.tid].last_mut().unwrap();
            (c.task, c.cur_seg, c.locks.clone(), c.base_sp)
        };
        let meta = &ThreadMeta { sp: base_sp, ..*meta };
        let new = self.new_segment(meta, Some(task), kind, locks);
        self.edge(old, new);
        let c = self.ctx[meta.tid].last_mut().unwrap();
        c.cur_seg = new;
        self.close_segment(old);
        (old, new)
    }

    /// End the thread's top context: its current segment becomes its
    /// task's last and closes. Returns that segment.
    fn pop_ctx(&mut self, tid: Tid) -> Option<SegId> {
        let mut c = self.ctx.get_mut(tid)?.pop()?;
        flush_buf(&mut self.segments, &mut c);
        self.tasks[c.task as usize].last_seg = Some(c.cur_seg);
        self.close_segment(c.cur_seg);
        Some(c.cur_seg)
    }

    /// A segment will receive no further accesses: account its
    /// interval sets in the closed-segment bytes. Callers invoke this
    /// *after* the owning context's `cur_seg` moved on (or the context
    /// popped).
    fn close_segment(&mut self, seg: SegId) {
        let s = &self.segments[seg as usize];
        if s.sync {
            return;
        }
        self.closed_bytes += s.reads.heap_bytes() + s.writes.heap_bytes();
        if tg_obs::trace::enabled() {
            tg_obs::trace::counter(
                "closed_bytes",
                tg_obs::trace::PID_GUEST,
                tg_obs::trace::TID_RETIRE,
                self.closed_bytes,
            );
        }
    }

    // ---- events ----

    /// Apply one client request of the runtime (`grindcore::creq`): every
    /// event the segment graph models, from `PARALLEL_BEGIN` to
    /// `CRITICAL_EXIT`. Returns the id the runtime keeps for
    /// `PARALLEL_BEGIN` (region) and `TASK_CREATE` (task), and 0 for every
    /// other code. `USER_DEFERRABLE` is not applied here: whether to honour
    /// the annotation is the tool's choice ([`Self::set_user_deferrable`]).
    pub fn client_request(&mut self, meta: &ThreadMeta, code: u64, args: [u64; 5]) -> u64 {
        match code {
            creq::PARALLEL_BEGIN => return self.parallel_begin(meta, args[0]),
            creq::PARALLEL_END => self.parallel_end(meta, args[0]),
            creq::IMPLICIT_TASK_BEGIN => self.implicit_task_begin(meta, args[0], args[1]),
            creq::IMPLICIT_TASK_END => self.implicit_task_end(meta, args[0], args[1]),
            creq::TASK_CREATE => return self.task_create(meta, args[0], args[1]),
            creq::TASK_DEP => self.task_dep(args[0], args[1], args[2], DepKind::from_u64(args[3])),
            creq::TASK_SPAWN => self.task_spawn(meta, args[0]),
            creq::TASK_BEGIN => self.task_begin(meta, args[0]),
            creq::TASK_END => self.task_end(meta, args[0]),
            creq::TASK_FULFILL => self.task_fulfill(meta, args[0]),
            creq::TASKWAIT => self.taskwait(meta),
            creq::TASKGROUP_BEGIN => self.taskgroup_begin(meta),
            creq::TASKGROUP_END => self.taskgroup_end(meta),
            creq::BARRIER => self.barrier(meta, args[0]),
            creq::CRITICAL_ENTER => self.critical_enter(meta, args[0]),
            creq::CRITICAL_EXIT => self.critical_exit(meta, args[0]),
            _ => {}
        }
        0
    }

    pub fn parallel_begin(&mut self, meta: &ThreadMeta, nthreads: u64) -> u64 {
        let master_seg = self.top(meta).cur_seg;
        let begin = self.new_segment(meta, None, "region-begin", Vec::new());
        let end = self.new_segment(meta, None, "region-end", Vec::new());
        self.edge(master_seg, begin);
        let rid = self.regions.len() as u32;
        self.regions.push(RegionState {
            begin_node: begin,
            end_node: end,
            team: nthreads,
            barrier_arrived: 0,
            cur_barrier_node: None,
            tasks_created: Vec::new(),
        });
        self.cur_region = Some(rid);
        rid as u64
    }

    pub fn parallel_end(&mut self, meta: &ThreadMeta, region: u64) {
        let (end, created) = {
            let Some(r) = self.regions.get(region as usize) else { return };
            (r.end_node, r.tasks_created.clone())
        };
        // the implicit barrier at region end completes every task
        for t in created {
            self.last_to_seg.push((t, end));
        }
        self.cur_region = None;
        let (_, new) = self.split(meta, "after-parallel");
        self.edge(end, new);
    }

    pub fn implicit_task_begin(&mut self, meta: &ThreadMeta, region: u64, _index: u64) {
        let Some(r) = self.regions.get(region as usize) else { return };
        let begin = r.begin_node;
        let task = self.new_task(0, 0, None, true);
        let seg = self.new_segment(meta, Some(task), "implicit", Vec::new());
        self.tasks[task as usize].first_seg = Some(seg);
        self.edge(begin, seg);
        self.stack(meta.tid).push(ExecCtx::new(task, seg, None, meta.sp));
    }

    pub fn implicit_task_end(&mut self, meta: &ThreadMeta, region: u64, _index: u64) {
        let end_node = self.regions.get(region as usize).map(|r| r.end_node);
        if let (Some(last), Some(end)) = (self.pop_ctx(meta.tid), end_node) {
            self.edge(last, end);
        }
    }

    pub fn task_create(&mut self, meta: &ThreadMeta, flags: u64, fn_addr: u64) -> u64 {
        let flags = if self.user_deferrable {
            flags & !(task_flags::UNDEFERRED | task_flags::INCLUDED)
        } else if self.ignore_undeferred {
            flags & !task_flags::UNDEFERRED
        } else {
            flags
        };
        let (parent, group) = {
            let c = self.top(meta);
            (c.task, c.group)
        };
        let task = self.new_task(flags, fn_addr, Some(parent), false);
        if let Some(g) = group {
            self.taskgroups[g as usize].members.push(task);
        }
        if let Some(r) = self.cur_region {
            self.regions[r as usize].tasks_created.push(task);
        }
        task as u64
    }

    /// The task becomes runnable: everything the creator did so far
    /// (payload copies, dependence registration) happens-before the
    /// child; the creator's continuation is concurrent with it.
    pub fn task_spawn(&mut self, meta: &ThreadMeta, task: u64) {
        let task = task as TaskId;
        let create_seg = self.top(meta).cur_seg;
        self.tasks[task as usize].create_seg = Some(create_seg);
        self.split(meta, "after-spawn");
    }

    pub fn task_dep(&mut self, task: u64, addr: u64, _len: u64, kind: DepKind) {
        let task = task as TaskId;
        let parent = if self.global_dep_scope {
            None
        } else {
            self.tasks.get(task as usize).and_then(|t| t.parent)
        };
        let e = self.deps.entry((parent, addr)).or_default();
        let mut preds: Vec<TaskId> = Vec::new();
        match kind {
            DepKind::In => {
                preds.extend(&e.writers);
                e.readers.push(task);
            }
            DepKind::Out | DepKind::Inout => {
                preds.extend(&e.writers);
                preds.extend(&e.readers);
                e.writers = vec![task];
                e.readers.clear();
                e.set_mode = false;
                e.basew.clear();
                e.baser.clear();
            }
            DepKind::Inoutset | DepKind::Mutexinoutset => {
                // entering set mode — or starting a NEW set generation
                // when readers arrived since the current set formed
                // (inoutset behaves like `out` w.r.t. `in`)
                if !e.set_mode || !e.readers.is_empty() {
                    e.basew = std::mem::take(&mut e.writers);
                    e.baser = std::mem::take(&mut e.readers);
                    e.set_mode = true;
                }
                preds.extend(&e.basew);
                preds.extend(&e.baser);
                e.writers.push(task);
            }
        }
        if kind == DepKind::Mutexinoutset {
            insert_sorted(&mut self.tasks[task as usize].mutex_objs, addr);
        }
        let t = &mut self.tasks[task as usize];
        for p in preds {
            if p != task && !t.dep_preds.contains(&p) {
                t.dep_preds.push(p);
            }
        }
    }

    pub fn task_begin(&mut self, meta: &ThreadMeta, task: u64) {
        let task = task as TaskId;
        let seg = self.new_segment(meta, Some(task), "task", Vec::new());
        self.tasks[task as usize].first_seg = Some(seg);
        // group membership is recorded at creation; execution context
        // group is only used for *new* tasks created inside this task,
        // which inherit through this value.
        self.stack(meta.tid).push(ExecCtx::new(task, seg, None, meta.sp));
    }

    pub fn task_end(&mut self, meta: &ThreadMeta, task: u64) {
        let task = task as TaskId;
        self.pop_ctx(meta.tid);
        // Inline (undeferred/included) execution orders the parent's
        // continuation after the child.
        let flags = self.tasks[task as usize].flags;
        let inline = flags & (task_flags::UNDEFERRED | task_flags::INCLUDED) != 0;
        if inline {
            let same_parent = self
                .ctx
                .get(meta.tid)
                .and_then(|s| s.last())
                .map(|c| Some(c.task) == self.tasks[task as usize].parent)
                .unwrap_or(false);
            if same_parent {
                let child_last = self.tasks[task as usize].last_seg;
                let (_, new) = self.split(meta, "after-inline-task");
                if let Some(cl) = child_last {
                    self.edge(cl, new);
                }
            }
        }
    }

    /// `omp_fulfill_event` on a detached task: the fulfilling segment
    /// happens-before everything joining on the task. The fulfiller's
    /// segment splits so only its pre-fulfill accesses are ordered.
    pub fn task_fulfill(&mut self, meta: &ThreadMeta, task: u64) {
        let (fulfill_seg, _) = self.split(meta, "after-fulfill");
        if let Some(t) = self.tasks.get_mut(task as usize) {
            t.fulfill_seg = Some(fulfill_seg);
        }
    }

    pub fn taskwait(&mut self, meta: &ThreadMeta) {
        let task = self.top(meta).task;
        let children = self.tasks[task as usize].children.clone();
        let (_, new) = self.split(meta, "after-taskwait");
        for ch in children {
            self.last_to_seg.push((ch, new));
        }
    }

    pub fn taskgroup_begin(&mut self, meta: &ThreadMeta) {
        let parent = self.top(meta).group;
        let gid = self.taskgroups.len() as u32;
        self.taskgroups.push(TaskgroupState { members: Vec::new(), parent });
        self.top(meta).group = Some(gid);
    }

    pub fn taskgroup_end(&mut self, meta: &ThreadMeta) {
        let Some(gid) = self.top(meta).group else {
            self.split(meta, "after-taskgroup");
            return;
        };
        let members = self.taskgroups[gid as usize].members.clone();
        let parent = self.taskgroups[gid as usize].parent;
        let (_, new) = self.split(meta, "after-taskgroup");
        for m in members {
            self.last_to_seg.push((m, new));
            // descendants of members also joined the group at creation
            self.collect_descendants(m, new);
        }
        self.top(meta).group = parent;
    }

    fn collect_descendants(&mut self, task: TaskId, join: SegId) {
        let children = self.tasks[task as usize].children.clone();
        for ch in children {
            self.last_to_seg.push((ch, join));
            self.collect_descendants(ch, join);
        }
    }

    pub fn barrier(&mut self, meta: &ThreadMeta, region: u64) {
        self.ensure_ctx(meta);
        if self.regions.get(region as usize).is_none() || self.cur_region.is_none() {
            // solo barrier outside a region: a plain split
            self.split(meta, "after-barrier");
            return;
        }
        let r = region as usize;
        let node = match self.regions[r].cur_barrier_node {
            Some(n) => n,
            None => {
                let n = self.new_segment(meta, None, "barrier", Vec::new());
                self.regions[r].cur_barrier_node = Some(n);
                n
            }
        };
        self.flush_top(meta.tid);
        let cur = self.top(meta).cur_seg;
        self.edge(cur, node);
        let task = self.top(meta).task;
        let locks = self.top(meta).locks.clone();
        let base_sp = self.top(meta).base_sp;
        let meta = &ThreadMeta { sp: base_sp, ..*meta };
        let new = self.new_segment(meta, Some(task), "after-barrier", locks);
        self.edge(node, new);
        self.top(meta).cur_seg = new;
        self.close_segment(cur);
        // the barrier completes every task generated in the region so far
        for t in self.regions[r].tasks_created.clone() {
            self.last_to_seg.push((t, node));
        }
        self.regions[r].barrier_arrived += 1;
        if self.regions[r].barrier_arrived >= self.regions[r].team {
            self.regions[r].barrier_arrived = 0;
            self.regions[r].cur_barrier_node = None;
        }
    }

    pub fn critical_enter(&mut self, meta: &ThreadMeta, lock: u64) {
        insert_sorted(&mut self.top(meta).locks, lock);
        self.split(meta, "critical");
    }

    pub fn critical_exit(&mut self, meta: &ThreadMeta, lock: u64) {
        self.top(meta).locks.retain(|&l| l != lock);
        self.split(meta, "after-critical");
    }

    pub fn record_access(&mut self, meta: &ThreadMeta, addr: u64, size: u64, write: bool) {
        self.ensure_ctx(meta);
        let bulk = self.bulk;
        let c = self.ctx[meta.tid].last_mut().unwrap();
        if bulk {
            // hot path: append to the context's flat buffer; the
            // interval sets are built in bulk at segment close
            c.buf.push(addr, addr + size, write);
        } else {
            let s = &mut self.segments[c.cur_seg as usize];
            if write {
                s.writes.insert(addr, addr + size);
            } else {
                s.reads.insert(addr, addr + size);
            }
        }
    }

    /// Resolve deferred edges and produce the final graph.
    pub fn finalize(self) -> SegmentGraph {
        self.finalize_with_stats().0
    }

    /// [`Self::finalize`], also returning the build's memory statistics.
    pub fn finalize_with_stats(mut self) -> (SegmentGraph, GraphMemStats) {
        // drain every context's pending accesses (bulk-ingestion mode)
        for stack in &mut self.ctx {
            for c in stack.iter_mut() {
                flush_buf(&mut self.segments, c);
            }
        }
        // any context still open: its current segment is the task's last
        let open: Vec<(TaskId, SegId)> =
            self.ctx.iter().flatten().map(|c| (c.task, c.cur_seg)).collect();
        self.ctx.clear();
        for (t, s) in open {
            if self.tasks[t as usize].last_seg.is_none() {
                self.tasks[t as usize].last_seg = Some(s);
            }
            self.close_segment(s);
        }
        // spawn edges: creator segment → first segment
        let mut extra: Vec<(SegId, SegId)> = Vec::new();
        for t in &self.tasks {
            if let (Some(c), Some(f)) = (t.create_seg, t.first_seg) {
                extra.push((c, f));
            }
            if let Some(f) = t.first_seg {
                for &p in &t.dep_preds {
                    let pred = &self.tasks[p as usize];
                    if let Some(pl) = pred.last_seg {
                        extra.push((pl, f));
                    }
                    if let Some(pf) = pred.fulfill_seg {
                        extra.push((pf, f));
                    }
                }
            }
        }
        for (t, s) in &self.last_to_seg {
            let task = &self.tasks[*t as usize];
            if let Some(l) = task.last_seg {
                extra.push((l, *s));
            }
            if let Some(f) = task.fulfill_seg {
                extra.push((f, *s));
            }
        }
        self.edges.extend(extra);
        self.edges.sort_unstable();
        self.edges.dedup();
        let stats = GraphMemStats {
            peak_live_segments: self.segments.iter().filter(|s| !s.sync).count() as u64,
            peak_tool_bytes: self.closed_bytes,
        };
        let g = SegmentGraph { segments: self.segments, tasks: self.tasks, edges: self.edges };
        debug_assert!(g.validate().is_empty(), "{:?}", g.validate());
        (g, stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reach::{Closure, Reachability};

    fn meta(tid: Tid) -> ThreadMeta {
        ThreadMeta {
            tid,
            sp: 0x7000_0000,
            stack_low: 0x6000_0000,
            stack_high: 0x7000_0100,
            tls_base: 0x100,
            tls_size: 64,
            tls_gen: 0,
        }
    }

    fn seg_of_task(g: &SegmentGraph, t: TaskId) -> SegId {
        g.tasks[t as usize].first_seg.unwrap()
    }

    /// create + spawn in one step (most tests need no dep window)
    fn spawn_task(b: &mut GraphBuilder, m: &ThreadMeta, fn_addr: u64) -> u64 {
        let t = b.task_create(m, 0, fn_addr);
        b.task_spawn(m, t);
        t
    }

    #[test]
    fn two_independent_tasks_are_unordered() {
        let mut b = GraphBuilder::new();
        let m = meta(0);
        let t1 = spawn_task(&mut b, &m, 0x100) as TaskId;
        let t2 = spawn_task(&mut b, &m, 0x200) as TaskId;
        b.task_begin(&m, t1 as u64);
        b.record_access(&m, 0x5000, 8, true);
        b.task_end(&m, t1 as u64);
        b.task_begin(&m, t2 as u64);
        b.record_access(&m, 0x5000, 8, true);
        b.task_end(&m, t2 as u64);
        let g = b.finalize();
        let r = Reachability::compute(&g);
        let s1 = seg_of_task(&g, t1);
        let s2 = seg_of_task(&g, t2);
        assert!(!r.ordered(s1, s2), "independent tasks must stay unordered");
    }

    #[test]
    fn spawn_orders_creator_before_child_but_not_continuation() {
        let mut b = GraphBuilder::new();
        let m = meta(0);
        b.record_access(&m, 0x10, 8, true); // root segment access
        let root_seg = 0;
        let t1 = spawn_task(&mut b, &m, 0x100);
        b.record_access(&m, 0x20, 8, true); // continuation access
        b.task_begin(&m, t1);
        b.task_end(&m, t1);
        let g = b.finalize();
        let r = Reachability::compute(&g);
        let child = g.tasks[t1 as usize].first_seg.unwrap();
        // creator's pre-spawn segment precedes the child...
        assert!(r.reaches(root_seg, child));
        // ...but the continuation segment does not (nor vice versa)
        let cont = g.segments.iter().find(|s| s.kind == "after-spawn").unwrap().id;
        assert!(!r.ordered(cont, child));
    }

    #[test]
    fn taskwait_joins_children() {
        let mut b = GraphBuilder::new();
        let m = meta(0);
        let t1 = spawn_task(&mut b, &m, 0x100);
        b.task_begin(&m, t1);
        b.record_access(&m, 0x99, 8, true);
        b.task_end(&m, t1);
        b.taskwait(&m);
        b.record_access(&m, 0x99, 8, true);
        let g = b.finalize();
        let r = Reachability::compute(&g);
        let child = g.tasks[t1 as usize].first_seg.unwrap();
        let after = g.segments.iter().find(|s| s.kind == "after-taskwait").unwrap().id;
        assert!(r.reaches(child, after), "taskwait joins the child");
    }

    #[test]
    fn dependences_order_sibling_tasks() {
        let mut b = GraphBuilder::new();
        let m = meta(0);
        let t1 = b.task_create(&m, 0, 0x100);
        b.task_dep(t1, 0xAAAA, 8, DepKind::Out);
        b.task_spawn(&m, t1);
        let t2 = b.task_create(&m, 0, 0x200);
        b.task_dep(t2, 0xAAAA, 8, DepKind::In);
        b.task_spawn(&m, t2);
        b.task_begin(&m, t1);
        b.task_end(&m, t1);
        b.task_begin(&m, t2);
        b.task_end(&m, t2);
        let g = b.finalize();
        let r = Reachability::compute(&g);
        assert!(r.reaches(
            g.tasks[t1 as usize].first_seg.unwrap(),
            g.tasks[t2 as usize].first_seg.unwrap()
        ));
    }

    #[test]
    fn non_sibling_dependences_do_not_synchronize() {
        // DRB173: depend clauses on tasks with different parents
        let mut b = GraphBuilder::new();
        let m = meta(0);
        let p1 = spawn_task(&mut b, &m, 0x100);
        let p2 = spawn_task(&mut b, &m, 0x200);
        b.task_begin(&m, p1);
        let c1 = b.task_create(&m, 0, 0x110);
        b.task_dep(c1, 0xBBBB, 8, DepKind::Out);
        b.task_spawn(&m, c1);
        b.task_begin(&m, c1);
        b.task_end(&m, c1);
        b.task_end(&m, p1);
        b.task_begin(&m, p2);
        let c2 = b.task_create(&m, 0, 0x210);
        b.task_dep(c2, 0xBBBB, 8, DepKind::Out);
        b.task_spawn(&m, c2);
        b.task_begin(&m, c2);
        b.task_end(&m, c2);
        b.task_end(&m, p2);
        let g = b.finalize();
        let r = Reachability::compute(&g);
        let s1 = g.tasks[c1 as usize].first_seg.unwrap();
        let s2 = g.tasks[c2 as usize].first_seg.unwrap();
        assert!(
            !r.ordered(s1, s2),
            "deps are scoped to siblings; non-sibling tasks stay concurrent"
        );
    }

    #[test]
    fn inoutset_members_are_mutually_unordered_but_follow_out() {
        let mut b = GraphBuilder::new();
        let m = meta(0);
        let t0 = b.task_create(&m, 0, 0x100);
        b.task_dep(t0, 0xCC, 8, DepKind::Out);
        b.task_spawn(&m, t0);
        let t1 = b.task_create(&m, 0, 0x200);
        b.task_dep(t1, 0xCC, 8, DepKind::Inoutset);
        b.task_spawn(&m, t1);
        let t2 = b.task_create(&m, 0, 0x300);
        b.task_dep(t2, 0xCC, 8, DepKind::Inoutset);
        b.task_spawn(&m, t2);
        let t3 = b.task_create(&m, 0, 0x400);
        b.task_dep(t3, 0xCC, 8, DepKind::In);
        b.task_spawn(&m, t3);
        for t in [t0, t1, t2, t3] {
            b.task_begin(&m, t);
            b.task_end(&m, t);
        }
        let g = b.finalize();
        let r = Reachability::compute(&g);
        let s = |t: u64| g.tasks[t as usize].first_seg.unwrap();
        assert!(r.reaches(s(t0), s(t1)));
        assert!(r.reaches(s(t0), s(t2)));
        assert!(!r.ordered(s(t1), s(t2)), "set members unordered");
        assert!(r.reaches(s(t1), s(t3)));
        assert!(r.reaches(s(t2), s(t3)));
    }

    #[test]
    fn mutexinoutset_tags_tasks_with_mutex_objects() {
        let mut b = GraphBuilder::new();
        let m = meta(0);
        let t1 = b.task_create(&m, 0, 0x100);
        b.task_dep(t1, 0xDD, 8, DepKind::Mutexinoutset);
        b.task_spawn(&m, t1);
        let t2 = b.task_create(&m, 0, 0x200);
        b.task_dep(t2, 0xDD, 8, DepKind::Mutexinoutset);
        b.task_spawn(&m, t2);
        for t in [t1, t2] {
            b.task_begin(&m, t);
            b.task_end(&m, t);
        }
        let g = b.finalize();
        let r = Reachability::compute(&g);
        let s1 = g.tasks[t1 as usize].first_seg.unwrap();
        let s2 = g.tasks[t2 as usize].first_seg.unwrap();
        assert!(!r.ordered(s1, s2), "members unordered (mutual exclusion only)");
        assert_eq!(g.tasks[t1 as usize].mutex_objs, vec![0xDD]);
        assert_eq!(g.tasks[t2 as usize].mutex_objs, vec![0xDD]);
    }

    #[test]
    fn parallel_region_rule_eq1() {
        // all segments of region 1 precede all segments of region 2
        let mut b = GraphBuilder::new();
        let m0 = meta(0);
        let m1 = meta(1);
        let r1 = b.parallel_begin(&m0, 2);
        b.implicit_task_begin(&m0, r1, 0);
        b.implicit_task_begin(&m1, r1, 1);
        b.record_access(&m1, 0x42, 8, true);
        let r1_seg = b.ctx[1].last().unwrap().cur_seg;
        b.implicit_task_end(&m0, r1, 0);
        b.implicit_task_end(&m1, r1, 1);
        b.parallel_end(&m0, r1);

        let r2 = b.parallel_begin(&m0, 2);
        b.implicit_task_begin(&m0, r2, 0);
        b.implicit_task_begin(&m1, r2, 1);
        let r2_seg = b.ctx[1].last().unwrap().cur_seg;
        b.implicit_task_end(&m0, r2, 0);
        b.implicit_task_end(&m1, r2, 1);
        b.parallel_end(&m0, r2);

        let g = b.finalize();
        let r = Reachability::compute(&g);
        assert!(
            r.reaches(r1_seg, r2_seg),
            "Eq. 1: p1 ≺ p2 ⇒ every segment of p1 ≺ every segment of p2"
        );
    }

    #[test]
    fn barrier_orders_team_segments() {
        let mut b = GraphBuilder::new();
        let m0 = meta(0);
        let m1 = meta(1);
        let r = b.parallel_begin(&m0, 2);
        b.implicit_task_begin(&m0, r, 0);
        b.implicit_task_begin(&m1, r, 1);
        b.record_access(&m0, 0x10, 8, true);
        let pre0 = b.ctx[0].last().unwrap().cur_seg;
        b.barrier(&m0, r);
        b.barrier(&m1, r);
        let post1 = b.ctx[1].last().unwrap().cur_seg;
        b.record_access(&m1, 0x10, 8, true);
        let g = b.finalize();
        let rc = Reachability::compute(&g);
        assert!(rc.reaches(pre0, post1), "pre-barrier ≺ post-barrier across threads");
    }

    #[test]
    fn two_barriers_create_distinct_sync_nodes() {
        let mut b = GraphBuilder::new();
        let m0 = meta(0);
        let m1 = meta(1);
        let r = b.parallel_begin(&m0, 2);
        b.implicit_task_begin(&m0, r, 0);
        b.implicit_task_begin(&m1, r, 1);
        b.barrier(&m0, r);
        b.barrier(&m1, r);
        b.barrier(&m0, r);
        b.barrier(&m1, r);
        let g = b.finalize();
        let n_barriers = g.segments.iter().filter(|s| s.kind == "barrier").count();
        assert_eq!(n_barriers, 2);
    }

    #[test]
    fn critical_sections_tag_segments_with_locks() {
        let mut b = GraphBuilder::new();
        let m = meta(0);
        b.critical_enter(&m, 7);
        b.record_access(&m, 0x77, 8, true);
        let in_crit = b.ctx[0].last().unwrap().cur_seg;
        b.critical_exit(&m, 7);
        b.record_access(&m, 0x88, 8, true);
        let after = b.ctx[0].last().unwrap().cur_seg;
        let g = b.finalize();
        assert_eq!(g.segments[in_crit as usize].locks, vec![7]);
        assert!(g.segments[after as usize].locks.is_empty());
    }

    #[test]
    fn taskgroup_joins_descendants() {
        let mut b = GraphBuilder::new();
        let m = meta(0);
        b.taskgroup_begin(&m);
        let t1 = spawn_task(&mut b, &m, 0x100);
        b.task_begin(&m, t1);
        // child created inside the member task (descendant)
        let t2 = spawn_task(&mut b, &m, 0x110);
        b.task_begin(&m, t2);
        b.record_access(&m, 0x5A, 8, true);
        b.task_end(&m, t2);
        b.task_end(&m, t1);
        b.taskgroup_end(&m);
        b.record_access(&m, 0x5A, 8, true);
        let g = b.finalize();
        let r = Reachability::compute(&g);
        let desc = g.tasks[t2 as usize].first_seg.unwrap();
        let after = g.segments.iter().rfind(|s| s.kind == "after-taskgroup").unwrap().id;
        assert!(r.reaches(desc, after), "taskgroup waits for descendants");
    }

    #[test]
    fn user_deferrable_strips_inline_flags() {
        let mut b = GraphBuilder::new();
        b.set_user_deferrable(true);
        let m = meta(0);
        let t = b.task_create(&m, task_flags::INCLUDED, 0x100);
        b.task_spawn(&m, t);
        b.task_begin(&m, t);
        b.record_access(&m, 0x123, 8, true);
        b.task_end(&m, t);
        b.record_access(&m, 0x123, 8, true);
        let g = b.finalize();
        let r = Reachability::compute(&g);
        let child = g.tasks[t as usize].first_seg.unwrap();
        let cont = g.segments.iter().find(|s| s.kind == "after-spawn").unwrap().id;
        assert!(!r.ordered(child, cont), "annotated deferrable: no inline continuation edge");

        // without the annotation, included tasks order the continuation
        let mut b2 = GraphBuilder::new();
        let t = b2.task_create(&m, task_flags::INCLUDED, 0x100);
        b2.task_spawn(&m, t);
        b2.task_begin(&m, t);
        b2.task_end(&m, t);
        b2.record_access(&m, 0x123, 8, true);
        let g2 = b2.finalize();
        let r2 = Reachability::compute(&g2);
        let child = g2.tasks[t as usize].first_seg.unwrap();
        let cont = g2.segments.iter().find(|s| s.kind == "after-inline-task").unwrap().id;
        assert!(r2.reaches(child, cont));
    }

    #[test]
    fn dot_export_mentions_nodes_and_edges() {
        let mut b = GraphBuilder::new();
        let m = meta(0);
        let t = spawn_task(&mut b, &m, 0x100);
        b.task_begin(&m, t);
        b.task_end(&m, t);
        let g = b.finalize();
        let dot = g.to_dot();
        assert!(dot.starts_with("digraph"));
        assert!(dot.contains("->"));
        assert!(dot.contains("task"));
    }

    #[test]
    fn topo_order_comes_up_short_on_a_cycle() {
        let mut b = GraphBuilder::new();
        let m = meta(0);
        let t = spawn_task(&mut b, &m, 0x100);
        b.task_begin(&m, t);
        b.task_end(&m, t);
        b.taskwait(&m);
        let mut g = b.finalize();
        let order = g.topo_order(&g.successors());
        assert_eq!(order.len(), g.n_nodes());
        let rank: HashMap<usize, usize> = order.iter().enumerate().map(|(i, &u)| (u, i)).collect();
        assert!(g.edges.iter().all(|&(a, b)| rank[&(a as usize)] < rank[&(b as usize)]));
        assert!(g.validate().is_empty());

        let last = g.n_nodes() as SegId - 1;
        g.edges.push((last, 0));
        assert!(g.topo_order(&g.successors()).len() < g.n_nodes());
        assert!(g.validate().iter().any(|e| e.contains("cycle")), "{:?}", g.validate());

        // A node on the cycle reaches nothing, as its empty closure row
        // says, and the index agrees with the closure on every pair.
        let (r, c) = (Reachability::compute(&g), Closure::compute(&g));
        let n = g.n_nodes() as SegId;
        assert!((0..n).all(|b| !r.reaches(0, b) && !r.reaches(last, b)));
        for a in 0..n {
            for b in 0..n {
                assert_eq!(r.reaches(a, b), c.reaches(a, b), "{a} -> {b}");
            }
        }
    }

    /// One event of the push-window property test.
    #[derive(Clone, Debug)]
    enum WinOp {
        /// `len` lockstep iterations over `arrays` arrays of `size`-byte
        /// elements read or written `stride` elements apart (bit `a` of
        /// `writes` makes array `a` a write). The arrays start `gap * 8`
        /// bytes apart, so one array's run grows into the next.
        Sweep {
            arrays: u64,
            len: u64,
            size: u64,
            stride: u64,
            gap: u64,
            backward: bool,
            writes: u8,
        },
        /// One access of 1 or 8 bytes, unaligned, anywhere in the arrays.
        Access {
            off: u64,
            size: u64,
            write: bool,
        },
        /// Spawn a task and start it on thread `tid` (a new context).
        TaskBegin {
            tid: Tid,
        },
        /// End the innermost open task.
        TaskEnd,
        /// Enter, or leave if held, the current thread's critical section.
        Critical,
        Taskwait,
    }

    fn win_op() -> impl proptest::Strategy<Value = WinOp> {
        use proptest::prelude::*;
        prop_oneof![
            (2u64..7, 1u64..24, any::<bool>(), 1u64..3, 0u64..40, any::<bool>(), any::<u8>())
                .prop_map(|(arrays, len, wide, stride, gap, backward, writes)| WinOp::Sweep {
                    arrays,
                    len,
                    size: if wide { 8 } else { 1 },
                    stride,
                    gap,
                    backward,
                    writes,
                }),
            (0u64..512, any::<bool>(), any::<bool>()).prop_map(|(off, wide, write)| {
                WinOp::Access { off, size: if wide { 8 } else { 1 }, write }
            }),
            (0usize..3).prop_map(|tid| WinOp::TaskBegin { tid }),
            Just(WinOp::TaskEnd),
            Just(WinOp::Critical),
            Just(WinOp::Taskwait),
        ]
    }

    /// Replay `ops` into a fresh builder with the given ingestion path.
    fn replay_win(ops: &[WinOp], bulk: bool) -> SegmentGraph {
        const BASE: u64 = 0x1_0000;
        let mut b = GraphBuilder::new();
        b.set_bulk_ingest(bulk);
        // open tasks, innermost last; ops run on the innermost's thread
        let mut open: Vec<(u64, Tid)> = Vec::new();
        let mut held = [false; 3];
        for op in ops {
            let tid = open.last().map_or(0, |&(_, t)| t);
            let m = meta(tid);
            match *op {
                WinOp::Sweep { arrays, len, size, stride, gap, backward, writes } => {
                    for i in 0..len {
                        let i = if backward { len - 1 - i } else { i };
                        for a in 0..arrays {
                            let addr = BASE + a * gap * 8 + i * stride * size;
                            b.record_access(&m, addr, size, writes >> a & 1 == 1);
                        }
                    }
                }
                WinOp::Access { off, size, write } => b.record_access(&m, BASE + off, size, write),
                WinOp::TaskBegin { tid: child } => {
                    let t = spawn_task(&mut b, &m, 0x100);
                    b.task_begin(&meta(child), t);
                    open.push((t, child));
                }
                WinOp::TaskEnd => {
                    if let Some((t, child)) = open.pop() {
                        b.task_end(&meta(child), t);
                    }
                }
                WinOp::Critical => {
                    if held[tid] {
                        b.critical_exit(&m, 0x40);
                    } else {
                        b.critical_enter(&m, 0x40);
                    }
                    held[tid] = !held[tid];
                }
                WinOp::Taskwait => b.taskwait(&m),
            }
        }
        while let Some((t, child)) = open.pop() {
            b.task_end(&meta(child), t);
        }
        b.finalize()
    }

    proptest::proptest! {
        /// The bulk path's push window is invisible: on interleaved
        /// multi-array sweeps — where an older buffer entry keeps
        /// growing until it overlaps a newer one — plus scattered,
        /// backward and repeated accesses across task and critical
        /// boundaries, every segment's sets and raw access counts
        /// equal the per-access reference path's.
        #[test]
        fn push_window_matches_per_access_path(
            ops in proptest::prop::collection::vec(win_op(), 1..40),
        ) {
            let bulk = replay_win(&ops, true);
            let reference = replay_win(&ops, false);
            proptest::prop_assert_eq!(bulk.segments.len(), reference.segments.len());
            for (s, r) in bulk.segments.iter().zip(&reference.segments) {
                let ivs = |t: &IntervalTree| t.iter().collect::<Vec<_>>();
                proptest::prop_assert_eq!(ivs(&s.reads), ivs(&r.reads), "reads of S{}", s.id);
                proptest::prop_assert_eq!(ivs(&s.writes), ivs(&r.writes), "writes of S{}", s.id);
                proptest::prop_assert_eq!(s.reads.accesses(), r.reads.accesses());
                proptest::prop_assert_eq!(s.writes.accesses(), r.writes.accesses());
            }
        }
    }
}
