//! The bounded translation cache and superblock-chaining state.
//!
//! Valgrind keeps translated superblocks in a fixed-size code cache and
//! *chains* them: once a block's exit has resolved to another cached
//! translation, the exit jumps there directly instead of going back
//! through the dispatcher's hash lookup (Cabecinhas et al., "Optimizing
//! Binary Code Produced by Valgrind"). This module reproduces that
//! machinery for the IR interpreter:
//!
//! * translations live in a slab of capacity-bounded **slots**; a
//!   [`CacheRef`] (slot + generation) names one and can be validated in
//!   O(1) even after the slot was recycled;
//! * each cached block carries one **chain-link** per exit (side exits
//!   in order, fallthrough last) plus the reverse *pred* edges needed to
//!   **unchain** it when either endpoint dies;
//! * indirect transfers (returns, computed jumps) go through a small
//!   direct-mapped **indirect-branch target cache** keyed on
//!   `(site, target)`, validated by generation so stale entries miss
//!   instead of dangling;
//! * eviction is **LRU-clock**: every dispatch sets the block's
//!   reference bit, the clock hand sweeps bits clear and evicts the
//!   first unreferenced block, unchaining it from all neighbours;
//! * [`TransCache::discard_range`] invalidates every translation
//!   overlapping a guest address range — the self-modifying-code /
//!   `DISCARD_TRANSLATIONS` client-request path.
//!
//! Each block keeps exactly one code form ([`BlockCode`]): flat code
//! under the chained engine, instrumented IR under the tree-walk
//! reference engine. The cache also keeps the **cold-tier run counters**:
//! one per block the tool declined ([`crate::tool::Tool::instruments`]),
//! counting its runs in the interpreter until it has run [`COLD_RUNS`]
//! times and is translated.
//!
//! [`TransCache::bytes`] is what `vm.translation_bytes` reports: every
//! resident block's code and link table, plus the slot, generation,
//! free-list, dispatcher-map and run-counter tables at their allocated
//! capacity, so the spare room those tables keep while they grow by
//! doubling is charged too. One cost stays out of it: the IBTC,
//! `IBTC_ENTRIES` (1,024) entries of 32 B, 32 KiB allocated up front by
//! every [`TransCache::new`].
//!
//! The cache belongs to one [`crate::vm::Vm`] and is only touched by its
//! dispatch loop, so it is a plain struct: reads take `&self`, anything
//! that inserts, evicts, links or marks a block recently used takes
//! `&mut self`, and no path takes a lock.
//!
//! The invariant the chaining protocol maintains: **a link, pred edge,
//! or IBTC entry never outlives its target unvalidated.** Links and pred
//! edges are eagerly cleared on eviction; IBTC entries are lazily
//! invalidated by the generation check.

use crate::flat::FlatBlock;
use std::collections::HashMap;
use std::mem::size_of;
use std::sync::Arc;
use vex_ir::IrBlock;

/// Number of entries in the indirect-branch target cache (power of two).
const IBTC_ENTRIES: usize = 1024;

/// Executions a block the tool declines runs in the interpreter before
/// it is translated. On the Table I and extra corpus at 4 threads, 76%
/// of the guest runtime's blocks run at most 4 times, 87% at most 8 and
/// 95% at most 16: 8 spares the translation of most such blocks, and a
/// block that does run hot pays 8 interpreted runs once (DESIGN §7).
pub const COLD_RUNS: u8 = 8;

/// A validated handle to a cached translation: slot index plus the
/// generation the slot had when the handle was issued. A handle is live
/// iff the slot is occupied and the generations match.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CacheRef {
    pub slot: u32,
    pub gen: u32,
}

/// Counters produced by eviction/invalidation, folded into
/// [`crate::vm::VmStats`] by the VM.
#[derive(Clone, Copy, Debug, Default)]
pub struct EvictStats {
    /// Blocks removed from the cache.
    pub evicted: u64,
    /// Chain links (incoming or outgoing) severed.
    pub unchained: u64,
}

/// The one code form a cached block keeps.
#[derive(Clone, Debug)]
pub enum BlockCode {
    /// Flat compiled code, which the chained engine runs.
    Flat(Arc<FlatBlock>),
    /// Instrumented IR, which only the tree-walk reference engine
    /// (`VmConfig::chaining = false`) runs.
    Ir(Arc<IrBlock>),
}

impl BlockCode {
    fn base(&self) -> u64 {
        match self {
            BlockCode::Flat(f) => f.base,
            BlockCode::Ir(ir) => ir.base,
        }
    }

    /// Chain-link slots: one per side exit plus the fallthrough.
    fn n_links(&self) -> usize {
        match self {
            BlockCode::Flat(f) => f.exits.len() + 1,
            BlockCode::Ir(ir) => ir.side_exit_count() + 1,
        }
    }

    /// Host bytes of the code: its `Arc` allocation (two reference
    /// counts and the block) plus everything the block owns.
    fn bytes(&self) -> usize {
        let counts = 2 * size_of::<usize>();
        match self {
            BlockCode::Flat(f) => counts + size_of::<FlatBlock>() + f.heap_bytes(),
            BlockCode::Ir(ir) => counts + size_of::<IrBlock>() + ir.heap_bytes(),
        }
    }
}

/// Heap bytes a `Vec` holds: its capacity, not its length.
fn vec_bytes<T>(v: &Vec<T>) -> u64 {
    (v.capacity() * size_of::<T>()) as u64
}

/// Heap bytes a `HashMap` holds at its capacity. std's table keeps a
/// power-of-two number of buckets, fills at most 7/8 of them (all but
/// one below 8), and allocates one entry and one control byte per
/// bucket plus a 16-byte control tail.
fn map_bytes<K, V>(m: &HashMap<K, V>) -> u64 {
    if m.capacity() == 0 {
        return 0;
    }
    let buckets = (m.capacity() + 1).next_power_of_two();
    (buckets * (size_of::<(K, V)>() + 1) + 16) as u64
}

struct CachedBlock {
    code: BlockCode,
    /// Guest bytes the block's instructions cover from its base (a
    /// superblock spans at most a few KiB).
    len: u32,
    /// Per-exit successor links: side exits in statement order, the
    /// fallthrough exit last.
    links: Box<[Option<CacheRef>]>,
    /// Reverse edges: (pred handle, pred exit ordinal) of every link
    /// that points at this block. Needed to unchain on eviction; the
    /// full handle (not just a slot) so a recycled pred slot can never
    /// have a survivor's link severed by mistake. Exact-length: links
    /// are made once per edge, so a rebuild per change is cheap.
    preds: Box<[(CacheRef, u32)]>,
    /// LRU-clock reference bit, set on every dispatch to this block.
    referenced: bool,
}

impl CachedBlock {
    /// Host bytes the block owns: its code and its chain-link table.
    fn bytes(&self) -> u64 {
        (self.code.bytes() + self.links.len() * size_of::<Option<CacheRef>>()) as u64
    }

    /// [`CachedBlock::bytes`] plus one element of each table that holds
    /// the block: its slot, its generation and its dispatcher-map entry
    /// (key, value and one control byte).
    fn entry_bytes(&self) -> u64 {
        let tables = size_of::<Option<CachedBlock>>() + size_of::<u32>() + size_of::<(u64, u32)>();
        self.bytes() + tables as u64 + 1
    }

    /// Does the block cover any byte of `[lo, hi)`?
    fn overlaps(&self, lo: u64, hi: u64) -> bool {
        let base = self.code.base();
        base < hi && base.saturating_add(self.len as u64) > lo
    }

    fn add_pred(&mut self, pred: (CacheRef, u32)) {
        self.preds = self.preds.iter().copied().chain([pred]).collect();
    }

    fn drop_preds(&mut self, gone: impl Fn(&(CacheRef, u32)) -> bool) {
        if self.preds.iter().any(&gone) {
            self.preds = self.preds.iter().copied().filter(|p| !gone(p)).collect();
        }
    }
}

#[derive(Clone, Copy)]
struct IbtcEntry {
    site: u64,
    target: u64,
    dst: CacheRef,
}

/// The translation cache: a slot slab with an LRU clock and an IBTC.
pub struct TransCache {
    slots: Vec<Option<CachedBlock>>,
    /// Per-slot generation, bumped on eviction; survives slot recycling.
    gens: Vec<u32>,
    /// Dispatcher lookup: guest base pc → slot.
    map: HashMap<u64, u32>,
    free: Vec<u32>,
    len: usize,
    hand: usize,
    /// Slot capacity (at least 2, so the clock always has a victim).
    capacity: usize,
    ibtc: Vec<Option<IbtcEntry>>,
    /// [`CachedBlock::bytes`] summed over the resident blocks.
    block_bytes: u64,
    /// Cold-tier runs so far of each block the tool declined, by base pc.
    /// Kept for the whole run: eviction and discards leave them alone.
    cold: HashMap<u64, u8>,
}

impl TransCache {
    /// A cache holding at most `capacity` blocks (min 2).
    pub fn new(capacity: usize) -> TransCache {
        TransCache {
            slots: Vec::new(),
            gens: Vec::new(),
            map: HashMap::new(),
            free: Vec::new(),
            len: 0,
            hand: 0,
            capacity: capacity.max(2),
            ibtc: vec![None; IBTC_ENTRIES],
            block_bytes: 0,
            cold: HashMap::new(),
        }
    }

    /// Host bytes the cache holds: every resident block's code and link
    /// table, plus its slot, generation, free-list, map and run-counter
    /// tables at their allocated capacity. The IBTC is not counted.
    pub fn bytes(&self) -> u64 {
        self.block_bytes
            + vec_bytes(&self.slots)
            + vec_bytes(&self.gens)
            + vec_bytes(&self.free)
            + map_bytes(&self.map)
            + map_bytes(&self.cold)
    }

    /// Should the block at `pc`, which just missed the cache, run in the
    /// interpreter this time? Yes for the first [`COLD_RUNS`] executions
    /// of a block `declined` accepts, asked once per block; every call
    /// that answers yes counts one run. Afterwards, and for every block
    /// `declined` refused, no: the block is translated.
    pub fn run_cold(&mut self, pc: u64, declined: impl FnOnce() -> bool) -> bool {
        match self.cold.get_mut(&pc) {
            Some(runs) if *runs < COLD_RUNS => {
                *runs += 1;
                true
            }
            Some(_) => false,
            None if declined() => {
                self.cold.insert(pc, 1);
                true
            }
            None => false,
        }
    }

    /// Resident blocks.
    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The block `r` names, if the handle is still valid.
    fn block(&self, r: CacheRef) -> Option<&CachedBlock> {
        let i = r.slot as usize;
        if self.gens.get(i) != Some(&r.gen) {
            return None;
        }
        self.slots[i].as_ref()
    }

    fn block_mut(&mut self, r: CacheRef) -> Option<&mut CachedBlock> {
        let i = r.slot as usize;
        if self.gens.get(i) != Some(&r.gen) {
            return None;
        }
        self.slots[i].as_mut()
    }

    /// Is the handle still valid (occupied slot, matching generation)?
    pub fn is_live(&self, r: CacheRef) -> bool {
        self.block(r).is_some()
    }

    /// Dispatcher probe: find the translation for `pc` and mark it
    /// recently used.
    pub fn lookup(&mut self, pc: u64) -> Option<CacheRef> {
        let slot = *self.map.get(&pc)?;
        let b = self.slots[slot as usize].as_mut()?;
        b.referenced = true;
        Some(CacheRef { slot, gen: self.gens[slot as usize] })
    }

    /// Validate `r` against `pc`, mark the block recently used and hand
    /// out its flat compiled form. Returns `None` when the handle is
    /// stale (evicted/discarded), resolves to a different block, or the
    /// block keeps IR (reference engine).
    pub fn take_flat_for(&mut self, r: CacheRef, pc: u64) -> Option<Arc<FlatBlock>> {
        let b = self.block_mut(r)?;
        match &b.code {
            BlockCode::Flat(f) if f.base == pc => {
                b.referenced = true;
                Some(f.clone())
            }
            _ => None,
        }
    }

    /// The IR of a live handle; `None` when the handle is stale or the
    /// block keeps flat code (chained engine).
    pub fn ir_of(&self, r: CacheRef) -> Option<Arc<IrBlock>> {
        match &self.block(r)?.code {
            BlockCode::Ir(ir) => Some(ir.clone()),
            BlockCode::Flat(_) => None,
        }
    }

    /// Insert a translation whose instructions end before guest byte
    /// `end`, evicting one block if the cache is at capacity. Chain
    /// links start empty and resolve through the runtime chaining
    /// protocol. Returns the handle, the bytes of the entry at its
    /// tables' element sizes (its code and link table plus one slot,
    /// generation and map entry; [`TransCache::bytes`] charges the tables
    /// at their capacity instead) and what the eviction did.
    pub fn insert(&mut self, code: BlockCode, end: u64) -> (CacheRef, u64, EvictStats) {
        let n_links = code.n_links();
        let mut ev = EvictStats::default();
        if self.len >= self.capacity {
            self.evict_one(&mut ev);
        }
        let slot = self.free.pop().unwrap_or_else(|| {
            self.slots.push(None);
            self.gens.push(0);
            (self.slots.len() - 1) as u32
        });
        let base = code.base();
        self.map.insert(base, slot);
        let b = CachedBlock {
            code,
            len: u32::try_from(end.saturating_sub(base)).unwrap_or(u32::MAX),
            links: vec![None; n_links].into_boxed_slice(),
            preds: Box::new([]),
            referenced: true,
        };
        self.block_bytes += b.bytes();
        let entry = b.entry_bytes();
        self.slots[slot as usize] = Some(b);
        self.len += 1;
        (CacheRef { slot, gen: self.gens[slot as usize] }, entry, ev)
    }

    /// The whole chain-hit fast path in one pass: follow the link for
    /// exit `exit` of `from` to a live block based at `pc`, marking it
    /// recently used. Hands out the flat form (chained engine only).
    #[inline]
    pub fn follow(
        &mut self,
        from: CacheRef,
        exit: u32,
        pc: u64,
    ) -> Option<(CacheRef, Arc<FlatBlock>)> {
        let l = (*self.block(from)?.links.get(exit as usize)?)?;
        Some((l, self.take_flat_for(l, pc)?))
    }

    /// The existing chain link for exit `exit` of `from`, if both ends
    /// are still live.
    pub fn link_of(&self, from: CacheRef, exit: u32) -> Option<CacheRef> {
        let l = (*self.block(from)?.links.get(exit as usize)?)?;
        self.is_live(l).then_some(l)
    }

    /// Patch exit `exit` of `from` to jump directly to `to`. Returns
    /// `false` when either handle is stale or the link already exists.
    pub fn link(&mut self, from: CacheRef, exit: u32, to: CacheRef) -> bool {
        if !self.is_live(to) {
            return false;
        }
        let Some(fb) = self.block_mut(from) else { return false };
        let Some(slot_ref) = fb.links.get_mut(exit as usize) else { return false };
        let old = match *slot_ref {
            Some(old) if old == to => return false,
            old => {
                *slot_ref = Some(to);
                old
            }
        };
        // Re-link: drop the stale pred edge from the old target.
        if let Some(ob) = old.and_then(|old| self.block_mut(old)) {
            ob.drop_preds(|&(p, e)| p == from && e == exit);
        }
        if let Some(tb) = self.block_mut(to) {
            tb.add_pred((from, exit));
        }
        true
    }

    fn ibtc_index(site: u64, target: u64) -> usize {
        let h = (site ^ target.rotate_left(17)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        (h >> 54) as usize & (IBTC_ENTRIES - 1)
    }

    /// Look up an indirect transfer `(site, target)`; stale entries miss.
    pub fn ibtc_lookup(&self, site: u64, target: u64) -> Option<CacheRef> {
        let e = self.ibtc[Self::ibtc_index(site, target)]?;
        if e.site != site || e.target != target || self.block(e.dst)?.code.base() != target {
            return None;
        }
        Some(e.dst)
    }

    /// Fill (or overwrite) the IBTC entry for `(site, target)`.
    pub fn ibtc_insert(&mut self, site: u64, target: u64, dst: CacheRef) {
        self.ibtc[Self::ibtc_index(site, target)] = Some(IbtcEntry { site, target, dst });
    }

    /// Clock sweep: evict the first unreferenced block.
    fn evict_one(&mut self, ev: &mut EvictStats) {
        let n = self.slots.len();
        if n == 0 {
            return;
        }
        // Clock: first full sweep gives every block a second chance by
        // clearing its reference bit; by the end of the second sweep an
        // unreferenced victim must exist.
        let mut steps = 0;
        while steps <= 2 * n {
            let i = self.hand;
            self.hand = (self.hand + 1) % n;
            steps += 1;
            if let Some(b) = self.slots[i].as_mut() {
                if b.referenced {
                    b.referenced = false;
                } else {
                    self.evict_slot(i as u32, ev);
                    return;
                }
            }
        }
        // Unreachable: 2n steps clear every bit; kept as a hard stop.
        unreachable!("clock sweep found no victim");
    }

    /// Remove one occupied slot, severing its chain links in both
    /// directions.
    fn evict_slot(&mut self, slot: u32, ev: &mut EvictStats) {
        let Some(b) = self.slots[slot as usize].take() else { return };
        if tg_obs::trace::enabled() {
            tg_obs::trace::instant(
                "evict",
                tg_obs::trace::PID_HOST,
                tg_obs::trace::host_tid(),
                vec![("base", b.code.base()), ("resident", self.len as u64 - 1)],
            );
        }
        self.map.remove(&b.code.base());
        let victim = CacheRef { slot, gen: self.gens[slot as usize] };
        self.gens[slot as usize] = victim.gen.wrapping_add(1);
        self.free.push(slot);
        self.len -= 1;
        self.block_bytes -= b.bytes();
        ev.evicted += 1;
        // Incoming links: predecessors must stop jumping here.
        for &(p, exit) in &b.preds {
            if let Some(l) = self.block_mut(p).and_then(|pb| pb.links.get_mut(exit as usize)) {
                if *l == Some(victim) {
                    *l = None;
                    ev.unchained += 1;
                }
            }
        }
        // Outgoing links: targets must forget this predecessor.
        for &l in b.links.iter().flatten() {
            if let Some(tb) = self.block_mut(l) {
                tb.drop_preds(|&(p, _)| p == victim);
                ev.unchained += 1;
            }
        }
    }

    /// Invalidate every translation overlapping `[lo, hi)` — the
    /// self-modifying-code / `DISCARD_TRANSLATIONS` path.
    pub fn discard_range(&mut self, lo: u64, hi: u64) -> EvictStats {
        let mut ev = EvictStats::default();
        if lo >= hi {
            return ev;
        }
        let victims: Vec<u32> = self
            .slots
            .iter()
            .enumerate()
            .filter_map(|(i, sl)| {
                let b = sl.as_ref()?;
                b.overlaps(lo, hi).then_some(i as u32)
            })
            .collect();
        for v in victims {
            self.evict_slot(v, &mut ev);
        }
        ev
    }

    /// Drop everything (used by tests; keeps generations monotonic).
    pub fn clear(&mut self) -> EvictStats {
        let mut ev = EvictStats::default();
        for v in 0..self.slots.len() as u32 {
            self.evict_slot(v, &mut ev);
        }
        self.ibtc.fill(None);
        ev
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vex_ir::{Atom, IrBlock, JumpKind, Stmt};

    fn ir(base: u64, n_side: usize) -> IrBlock {
        let mut b = IrBlock::new(base);
        b.stmts.push(Stmt::IMark { addr: base, len: 16 });
        for i in 0..n_side {
            b.stmts.push(Stmt::Exit {
                guard: Atom::Const(0),
                target: base + 0x100 * (i as u64 + 1),
                kind: JumpKind::Boring,
            });
        }
        b.next = Atom::imm(base + 16);
        b
    }

    fn block(base: u64, n_side: usize) -> BlockCode {
        BlockCode::Ir(Arc::new(ir(base, n_side)))
    }

    #[test]
    fn insert_lookup_and_generation_validation() {
        let mut c = TransCache::new(4);
        let flat = Arc::new(crate::flat::compile(&ir(0x1000, 0)));
        let (r, _, _) = c.insert(BlockCode::Flat(flat), 0x1010);
        assert_eq!(c.lookup(0x1000), Some(r));
        assert_eq!(c.lookup(0x2000), None);
        assert!(c.take_flat_for(r, 0x1000).is_some());
        assert!(c.take_flat_for(r, 0x1010).is_none(), "wrong pc must miss");
        let stale = CacheRef { gen: r.gen.wrapping_add(1), ..r };
        assert!(c.take_flat_for(stale, 0x1000).is_none(), "wrong generation must miss");
    }

    #[test]
    fn each_block_keeps_one_form_and_releases_its_charge() {
        let mut c = TransCache::new(4);
        let flat = Arc::new(crate::flat::compile(&ir(0x1000, 1)));
        let (f, entry, _) = c.insert(BlockCode::Flat(flat.clone()), 0x1010);
        assert!(entry as usize > flat.heap_bytes(), "the entry costs more than its code");
        assert!(c.bytes() > entry, "the tables are charged at their capacity");
        assert!(c.ir_of(f).is_none(), "a flat block keeps no IR");
        let (i, _, _) = c.insert(block(0x2000, 0), 0x2010);
        assert!(c.ir_of(i).is_some());
        assert!(c.take_flat_for(i, 0x2000).is_none(), "an IR block has no flat form");
        let (held, own) = (c.bytes(), c.block(f).unwrap().bytes());
        assert_eq!(c.discard_range(0x1000, 0x1010).evicted, 1);
        // The tables keep their capacity, and the free list now holds one.
        assert_eq!(c.bytes(), held - own + vec_bytes(&c.free));
    }

    #[test]
    fn declined_blocks_run_cold_then_translate() {
        let mut c = TransCache::new(4);
        let mut asked = 0;
        let runs = (0..COLD_RUNS + 2)
            .filter(|_| {
                c.run_cold(0x1000, || {
                    asked += 1;
                    true
                })
            })
            .count();
        assert_eq!((runs, asked), (COLD_RUNS as usize, 1), "cold COLD_RUNS times, asked once");
        assert!(!c.run_cold(0x2000, || false), "an instrumented block translates at once");
        assert!(!c.run_cold(0x2000, || false));
        let empty = TransCache::new(4).bytes();
        assert!(c.bytes() > empty, "the run counters are charged");
        c.insert(block(0x1000, 0), 0x1010);
        c.discard_range(0x1000, 0x1010);
        assert!(!c.run_cold(0x1000, || true), "a discard leaves the counter spent");
    }

    #[test]
    fn capacity_bound_holds_and_eviction_unchains() {
        let mut c = TransCache::new(2);
        let (a, _, _) = c.insert(block(0x1000, 0), 0x1010);
        let (b, _, _) = c.insert(block(0x2000, 0), 0x2010);
        assert!(c.link(a, 0, b), "fallthrough link a→b");
        assert_eq!(c.link_of(a, 0), Some(b));
        // Third insert evicts one of a/b (clock order) and must unchain.
        let (_d, _, ev) = c.insert(block(0x3000, 0), 0x3010);
        assert_eq!(c.len(), 2);
        assert_eq!(ev.evicted, 1);
        assert!(ev.unchained >= 1, "the a→b link had to be severed");
        // Whichever end survived, the link is gone.
        assert_eq!(c.link_of(a, 0), None);
    }

    #[test]
    fn relink_replaces_pred_edge() {
        let mut c = TransCache::new(8);
        let (a, _, _) = c.insert(block(0x1000, 1), 0x1010);
        let (b, _, _) = c.insert(block(0x2000, 0), 0x2010);
        let (d, _, _) = c.insert(block(0x3000, 0), 0x3010);
        assert!(c.link(a, 1, b));
        assert!(c.link(a, 1, d), "re-link to a new target");
        assert!(!c.link(a, 1, d), "idempotent");
        assert_eq!(c.link_of(a, 1), Some(d));
        // Evicting the old target must not clear the new link.
        let ev = c.discard_range(0x2000, 0x2001);
        assert_eq!(ev.evicted, 1);
        assert_eq!(c.link_of(a, 1), Some(d));
    }

    #[test]
    fn self_link_survives_and_dies_with_the_block() {
        let mut c = TransCache::new(4);
        let (a, _, _) = c.insert(block(0x1000, 0), 0x1010);
        assert!(c.link(a, 0, a), "tight loop: block chains to itself");
        assert_eq!(c.link_of(a, 0), Some(a));
        let ev = c.discard_range(0x1000, 0x1010);
        assert_eq!(ev.evicted, 1);
        assert_eq!(c.lookup(0x1000), None);
    }

    #[test]
    fn discard_range_hits_overlapping_blocks_only() {
        let mut c = TransCache::new(8);
        let (a, _, _) = c.insert(block(0x1000, 0), 0x1010);
        let (b, _, _) = c.insert(block(0x2000, 0), 0x2010);
        let ev = c.discard_range(0x1008, 0x1009);
        assert_eq!(ev.evicted, 1);
        assert!(!c.is_live(a));
        assert!(c.is_live(b));
        assert_eq!(c.discard_range(0, 0).evicted, 0, "empty range is a no-op");
    }

    #[test]
    fn ibtc_round_trip_and_staleness() {
        let mut c = TransCache::new(4);
        let (a, _, _) = c.insert(block(0x1000, 0), 0x1010);
        c.ibtc_insert(0x5000, 0x1000, a);
        assert_eq!(c.ibtc_lookup(0x5000, 0x1000), Some(a));
        assert_eq!(c.ibtc_lookup(0x5000, 0x1010), None);
        c.clear();
        assert_eq!(c.ibtc_lookup(0x5000, 0x1000), None, "stale entry must miss");
        // Slot recycled by a different block: the old entry still misses.
        let (_b, _, _) = c.insert(block(0x9000, 0), 0x9010);
        assert_eq!(c.ibtc_lookup(0x5000, 0x1000), None);
    }

    #[test]
    fn clock_eviction_prefers_unreferenced_blocks() {
        let mut c = TransCache::new(3);
        let (a, _, _) = c.insert(block(0x1000, 0), 0x1010);
        let (_b, _, _) = c.insert(block(0x2000, 0), 0x2010);
        let (_d, _, _) = c.insert(block(0x3000, 0), 0x3010);
        // Sweep 1 clears all bits; touch `a` again so it survives.
        let (_e, _, ev) = c.insert(block(0x4000, 0), 0x4010);
        assert_eq!(ev.evicted, 1);
        assert!(c.is_live(a) || c.lookup(0x1000).is_none());
        // Re-touch a; everyone else untouched → next eviction spares a.
        if c.lookup(0x1000).is_some() {
            let (_f, _, _) = c.insert(block(0x5000, 0), 0x5010);
            let (_g, _, _) = c.insert(block(0x6000, 0), 0x6010);
            assert!(c.len() <= 3);
        }
    }
}
