//! Sparse paged guest memory.
//!
//! The guest sees a flat 64-bit address space; we back it with 4 KiB
//! pages allocated on first touch. Reads of untouched memory return
//! zeroes without allocating, so large sparse layouts (stacks near the
//! top of the address space, code near the bottom) cost only what is
//! actually used. `footprint` reports resident bytes for the memory
//! columns of Table II / Fig. 4.
//!
//! Layout: pages live in an append-only arena (`Vec<Box<[u8]>>`) and a
//! hash map translates page number → arena index. Pages are never
//! freed, so an arena index is stable for the life of the VM — which
//! makes the one-entry *lookaside* sound: the last page touched is
//! remembered as `(pno, index)` and revalidated by a single compare,
//! turning the hash probe into the uncommon path. Guest accesses are
//! strongly page-local (stack frames, linear array walks), so this is
//! where most of the interpreter's memory time goes.

use std::cell::Cell;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};

const PAGE_BITS: u64 = 12;
/// Guest page size in bytes.
pub const PAGE_SIZE: u64 = 1 << PAGE_BITS;
const OFF_MASK: u64 = PAGE_SIZE - 1;
/// No guest address maps to this page number (pno is a 52-bit value),
/// so it marks the lookaside as empty.
const NO_PAGE: u64 = u64::MAX;

/// Multiplicative hasher for page numbers. Every lookaside miss probes
/// the page table, so the default SipHash is pure overhead here: keys
/// are page numbers we control, not attacker-supplied data.
#[derive(Default)]
pub struct PnoHasher(u64);

impl Hasher for PnoHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x100_0000_01b3);
        }
    }

    fn write_u64(&mut self, v: u64) {
        self.0 = v.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

type PageMap = HashMap<u64, u32, BuildHasherDefault<PnoHasher>>;

/// A per-site inline cache: the page the site resolved to last time, as
/// `(pno, arena index)`. The flat compiler allocates one per load/store
/// op, so a site that walks an array and a site that touches the stack
/// each keep their own page hot instead of thrashing the global
/// lookaside. Stable arena indices make a filled entry valid forever.
///
/// The pair is packed into one `AtomicU64` (`pno << 16 | index`, with
/// `u64::MAX` as the empty sentinel) so the flat block that owns the
/// site is `Send + Sync`: `tgrind warm` compiles blocks off-thread,
/// and serve workers share one disk cache. The entry names a page of
/// one VM's arena, so a block never runs in two VMs: the disk cache
/// hands each run a copy, and cloning resets the cache.
/// Relaxed ordering suffices: the value is a pure hint revalidated by
/// the `pno` compare, and only the dispatch thread executes the block,
/// so there is never a racing writer whose update we could observe
/// half-applied (a single 64-bit store is atomic regardless).
pub struct PageIc {
    slot: AtomicU64,
}

/// Packed-entry capacity: page numbers of cacheable sites must fit in
/// 48 bits (guest addresses stay below 2^47, so every real page does)
/// and arena indices in 16 bits. Out-of-range resolutions simply stay
/// uncached — the IC is a hint, the page-map probe is the slow path.
const IC_PNO_LIMIT: u64 = 1 << 48;
const IC_IDX_LIMIT: u32 = 1 << 16;
const IC_EMPTY: u64 = u64::MAX;

impl PageIc {
    pub fn new() -> PageIc {
        PageIc { slot: AtomicU64::new(IC_EMPTY) }
    }

    /// The cached `(pno, arena index)` pair, if any.
    #[inline]
    fn get(&self) -> Option<(u64, u32)> {
        let v = self.slot.load(Ordering::Relaxed);
        if v == IC_EMPTY {
            None
        } else {
            Some((v >> 16, (v & 0xffff) as u32))
        }
    }

    /// Cache a resolution; silently dropped when it does not pack.
    #[inline]
    fn set(&self, pno: u64, idx: u32) {
        if pno < IC_PNO_LIMIT && idx < IC_IDX_LIMIT {
            self.slot.store(pno << 16 | idx as u64, Ordering::Relaxed);
        }
    }
}

impl Default for PageIc {
    fn default() -> PageIc {
        PageIc::new()
    }
}

impl Clone for PageIc {
    /// Cloning resets the cache: a copied block re-warms its own sites.
    fn clone(&self) -> PageIc {
        PageIc::new()
    }
}

impl std::fmt::Debug for PageIc {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.get() {
            None => write!(f, "PageIc(empty)"),
            Some((p, i)) => write!(f, "PageIc({p:#x}→{i})"),
        }
    }
}

/// Copy-on-write journal armed by [`GuestMemory::snapshot_begin`].
///
/// While armed, the first write to any page that existed at snapshot
/// time records the page's *preimage* (its snapshot-time contents),
/// keyed by arena index. Pages allocated after the snapshot need no
/// preimage: their snapshot-time contents are implicitly all-zero
/// (an unmapped page reads as zeroes), so restore just re-zeroes them.
struct CowJournal {
    /// Arena length when the snapshot was taken. Indices `>= mark` were
    /// allocated after the snapshot.
    mark: u32,
    /// Arena index → preimage, recorded on first post-snapshot write.
    saved: HashMap<u32, Box<[u8]>>,
}

/// Sparse paged guest address space.
pub struct GuestMemory {
    /// Page number → arena index.
    map: PageMap,
    /// The pages themselves; append-only, indices never move.
    arena: Vec<Box<[u8]>>,
    /// Last page resolved: `(pno, arena index)`. A `Cell` so read paths
    /// can refresh it through `&self`; the VM is single-threaded.
    last: Cell<(u64, u32)>,
    /// Armed while a snapshot is live; `None` on the default path so the
    /// only cost to normal execution is one branch per write.
    cow: Option<CowJournal>,
}

impl Default for GuestMemory {
    fn default() -> GuestMemory {
        GuestMemory {
            map: PageMap::default(),
            arena: Vec::new(),
            last: Cell::new((NO_PAGE, 0)),
            cow: None,
        }
    }
}

impl GuestMemory {
    pub fn new() -> GuestMemory {
        GuestMemory::default()
    }

    /// Resident bytes (allocated pages × page size).
    pub fn footprint(&self) -> u64 {
        self.arena.len() as u64 * PAGE_SIZE
    }

    /// Arena index of `pno`, if the page exists. Refreshes the lookaside.
    #[inline]
    fn page_index(&self, pno: u64) -> Option<u32> {
        let (lp, li) = self.last.get();
        if lp == pno {
            return Some(li);
        }
        let i = *self.map.get(&pno)?;
        self.last.set((pno, i));
        Some(i)
    }

    /// Arena index of `pno`, allocating the page on first touch.
    #[inline]
    fn page_index_mut(&mut self, pno: u64) -> u32 {
        let (lp, li) = self.last.get();
        if lp == pno {
            return li;
        }
        let arena = &mut self.arena;
        let i = *self.map.entry(pno).or_insert_with(|| {
            arena.push(vec![0u8; PAGE_SIZE as usize].into_boxed_slice());
            (arena.len() - 1) as u32
        });
        self.last.set((pno, i));
        i
    }

    /// Copy-on-write hook: called with the resolved arena index on every
    /// write path *before* the bytes land (the journal must capture the
    /// snapshot-time contents). Lookaside and inline-cache hits bypass
    /// [`Self::page_index_mut`], so each of the five write paths calls
    /// this explicitly.
    #[inline]
    fn cow_touch(&mut self, i: u32) {
        if self.cow.is_some() {
            self.cow_save(i);
        }
    }

    fn cow_save(&mut self, i: u32) {
        let arena = &self.arena;
        if let Some(j) = self.cow.as_mut() {
            if i < j.mark {
                j.saved.entry(i).or_insert_with(|| arena[i as usize].clone());
            }
        }
    }

    /// Arm (or re-arm) the copy-on-write journal: from here on, the
    /// first write to each existing page saves its preimage. Re-arming
    /// drops the previous journal — the current contents become the new
    /// snapshot baseline.
    pub fn snapshot_begin(&mut self) {
        self.cow = Some(CowJournal { mark: self.arena.len() as u32, saved: HashMap::new() });
    }

    /// Rewind every page to its contents at the last
    /// [`Self::snapshot_begin`]. No-op if no snapshot is armed.
    ///
    /// Restoration is strictly in-place: journaled preimages are copied
    /// back and pages allocated after the snapshot are re-zeroed, but the
    /// arena is never truncated and the page map never shrinks. That
    /// invariant is what keeps the per-site [`PageIc`] inline caches and
    /// the lookaside sound across a restore — a filled entry stays valid
    /// forever — and it is semantically free because a zeroed mapped page
    /// is indistinguishable from a never-touched one (unmapped reads
    /// return zero). The journal survives the restore, so one snapshot
    /// supports any number of restores.
    pub fn snapshot_restore(&mut self) {
        let Some(j) = self.cow.as_ref() else { return };
        for (&i, pre) in &j.saved {
            self.arena[i as usize].copy_from_slice(pre);
        }
        for p in &mut self.arena[j.mark as usize..] {
            p.fill(0);
        }
    }

    /// Disarm the journal and drop all saved preimages, returning writes
    /// to the zero-cost path.
    pub fn snapshot_discard(&mut self) {
        self.cow = None;
    }

    /// Pages whose preimage the live journal holds (0 when disarmed).
    pub fn cow_pages_saved(&self) -> u64 {
        self.cow.as_ref().map_or(0, |j| j.saved.len() as u64)
    }

    /// Order-independent FNV-1a digest of the live memory contents.
    /// All-zero pages are skipped, so a snapshot-restored space hashes
    /// identically to one that never touched the extra pages at all.
    pub fn content_hash(&self) -> u64 {
        let mut pnos: Vec<u64> = self
            .map
            .iter()
            .filter(|&(_, &i)| self.arena[i as usize].iter().any(|&b| b != 0))
            .map(|(&p, _)| p)
            .collect();
        pnos.sort_unstable();
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for pno in pnos {
            for b in pno.to_le_bytes() {
                h = (h ^ b as u64).wrapping_mul(0x100_0000_01b3);
            }
            let i = self.map[&pno] as usize;
            for &b in self.arena[i].iter() {
                h = (h ^ b as u64).wrapping_mul(0x100_0000_01b3);
            }
        }
        h
    }

    /// Read `dst.len()` bytes from `addr`, crossing pages as needed.
    pub fn read(&self, mut addr: u64, dst: &mut [u8]) {
        let mut done = 0usize;
        while done < dst.len() {
            let pno = addr >> PAGE_BITS;
            let off = (addr & OFF_MASK) as usize;
            let n = usize::min(dst.len() - done, PAGE_SIZE as usize - off);
            match self.page_index(pno) {
                Some(i) => {
                    dst[done..done + n].copy_from_slice(&self.arena[i as usize][off..off + n])
                }
                None => dst[done..done + n].fill(0),
            }
            done += n;
            addr = addr.wrapping_add(n as u64);
        }
    }

    /// Write `src` starting at `addr`, crossing pages as needed.
    pub fn write(&mut self, mut addr: u64, src: &[u8]) {
        let mut done = 0usize;
        while done < src.len() {
            let pno = addr >> PAGE_BITS;
            let off = (addr & OFF_MASK) as usize;
            let n = usize::min(src.len() - done, PAGE_SIZE as usize - off);
            let i = self.page_index_mut(pno);
            self.cow_touch(i);
            self.arena[i as usize][off..off + n].copy_from_slice(&src[done..done + n]);
            done += n;
            addr = addr.wrapping_add(n as u64);
        }
    }

    /// Read a little-endian u64. Fast path: the access stays within one
    /// page, which is every aligned access and nearly every real one.
    #[inline]
    pub fn read_u64(&self, addr: u64) -> u64 {
        let off = (addr & OFF_MASK) as usize;
        if off <= PAGE_SIZE as usize - 8 {
            return match self.page_index(addr >> PAGE_BITS) {
                Some(i) => {
                    u64::from_le_bytes(self.arena[i as usize][off..off + 8].try_into().unwrap())
                }
                None => 0,
            };
        }
        let mut b = [0u8; 8];
        self.read(addr, &mut b);
        u64::from_le_bytes(b)
    }

    /// Write a little-endian u64 (single-page fast path as for reads).
    #[inline]
    pub fn write_u64(&mut self, addr: u64, v: u64) {
        let off = (addr & OFF_MASK) as usize;
        if off <= PAGE_SIZE as usize - 8 {
            let i = self.page_index_mut(addr >> PAGE_BITS);
            self.cow_touch(i);
            self.arena[i as usize][off..off + 8].copy_from_slice(&v.to_le_bytes());
            return;
        }
        self.write(addr, &v.to_le_bytes());
    }

    /// Read one byte.
    #[inline]
    pub fn read_u8(&self, addr: u64) -> u8 {
        match self.page_index(addr >> PAGE_BITS) {
            Some(i) => self.arena[i as usize][(addr & OFF_MASK) as usize],
            None => 0,
        }
    }

    /// Write one byte.
    #[inline]
    pub fn write_u8(&mut self, addr: u64, v: u8) {
        let i = self.page_index_mut(addr >> PAGE_BITS);
        self.cow_touch(i);
        self.arena[i as usize][(addr & OFF_MASK) as usize] = v;
    }

    /// [`Self::read_u64`] through a per-site inline cache.
    #[inline]
    pub fn read_u64_ic(&self, addr: u64, ic: &PageIc) -> u64 {
        let off = (addr & OFF_MASK) as usize;
        if off <= PAGE_SIZE as usize - 8 {
            let pno = addr >> PAGE_BITS;
            let i = match ic.get() {
                Some((p, i)) if p == pno => i,
                _ => match self.map.get(&pno) {
                    Some(&i) => {
                        ic.set(pno, i);
                        i
                    }
                    None => return 0,
                },
            };
            return u64::from_le_bytes(self.arena[i as usize][off..off + 8].try_into().unwrap());
        }
        let mut b = [0u8; 8];
        self.read(addr, &mut b);
        u64::from_le_bytes(b)
    }

    /// [`Self::write_u64`] through a per-site inline cache.
    #[inline]
    pub fn write_u64_ic(&mut self, addr: u64, v: u64, ic: &PageIc) {
        let off = (addr & OFF_MASK) as usize;
        if off <= PAGE_SIZE as usize - 8 {
            let pno = addr >> PAGE_BITS;
            let i = match ic.get() {
                Some((p, i)) if p == pno => i,
                _ => {
                    let i = self.page_index_mut(pno);
                    ic.set(pno, i);
                    i
                }
            };
            self.cow_touch(i);
            self.arena[i as usize][off..off + 8].copy_from_slice(&v.to_le_bytes());
            return;
        }
        self.write(addr, &v.to_le_bytes());
    }

    /// [`Self::read_u8`] through a per-site inline cache.
    #[inline]
    pub fn read_u8_ic(&self, addr: u64, ic: &PageIc) -> u8 {
        let pno = addr >> PAGE_BITS;
        let i = match ic.get() {
            Some((p, i)) if p == pno => i,
            _ => match self.map.get(&pno) {
                Some(&i) => {
                    ic.set(pno, i);
                    i
                }
                None => return 0,
            },
        };
        self.arena[i as usize][(addr & OFF_MASK) as usize]
    }

    /// [`Self::write_u8`] through a per-site inline cache.
    #[inline]
    pub fn write_u8_ic(&mut self, addr: u64, v: u8, ic: &PageIc) {
        let pno = addr >> PAGE_BITS;
        let i = match ic.get() {
            Some((p, i)) if p == pno => i,
            _ => {
                let i = self.page_index_mut(pno);
                ic.set(pno, i);
                i
            }
        };
        self.cow_touch(i);
        self.arena[i as usize][(addr & OFF_MASK) as usize] = v;
    }

    /// Read a NUL-terminated string (capped at `max` bytes).
    pub fn read_cstr(&self, addr: u64, max: usize) -> Vec<u8> {
        let mut out = Vec::new();
        for i in 0..max as u64 {
            let b = self.read_u8(addr + i);
            if b == 0 {
                break;
            }
            out.push(b);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_fill_semantics() {
        let m = GuestMemory::new();
        assert_eq!(m.read_u64(0x1234), 0);
        assert_eq!(m.footprint(), 0, "reads must not allocate");
    }

    #[test]
    fn read_write_roundtrip() {
        let mut m = GuestMemory::new();
        m.write_u64(0x1000, 0xdead_beef_cafe_f00d);
        assert_eq!(m.read_u64(0x1000), 0xdead_beef_cafe_f00d);
        m.write_u8(0x1000, 0xff);
        assert_eq!(m.read_u64(0x1000) & 0xff, 0xff);
        assert_eq!(m.footprint(), PAGE_SIZE);
    }

    #[test]
    fn cross_page_access() {
        let mut m = GuestMemory::new();
        let addr = PAGE_SIZE - 3; // straddles the first page boundary
        m.write_u64(addr, 0x1122_3344_5566_7788);
        assert_eq!(m.read_u64(addr), 0x1122_3344_5566_7788);
        assert_eq!(m.footprint(), 2 * PAGE_SIZE);
        let mut big = vec![0xabu8; 3 * PAGE_SIZE as usize];
        m.write(0x10_0000 - 1, &big);
        let mut back = vec![0u8; big.len()];
        m.read(0x10_0000 - 1, &mut back);
        big.copy_from_slice(&back);
        assert!(big.iter().all(|&b| b == 0xab));
    }

    #[test]
    fn sparse_layout_is_cheap() {
        let mut m = GuestMemory::new();
        m.write_u64(0x1_0000, 1); // "code"
        m.write_u64(0x7fff_0000_0000, 2); // "stack"
        assert_eq!(m.footprint(), 2 * PAGE_SIZE);
    }

    #[test]
    fn lookaside_tracks_page_switches() {
        let mut m = GuestMemory::new();
        m.write_u64(0x1000, 1);
        m.write_u64(0x9000, 2);
        // Alternate between the two pages: every access revalidates the
        // lookaside, so stale hits would return the wrong page's data.
        for _ in 0..4 {
            assert_eq!(m.read_u64(0x1000), 1);
            assert_eq!(m.read_u64(0x9000), 2);
            assert_eq!(m.read_u64(0x5000), 0, "untouched page stays zero");
        }
        m.write_u64(0x5000, 3); // allocates; lookaside now points at it
        assert_eq!(m.read_u64(0x5000), 3);
        assert_eq!(m.read_u64(0x1000), 1);
    }

    #[test]
    fn cow_snapshot_restores_preimages_and_zeroes_fresh_pages() {
        let mut m = GuestMemory::new();
        m.write_u64(0x1000, 11);
        m.write_u64(0x9000, 22);
        let h0 = m.content_hash();
        m.snapshot_begin();
        assert_eq!(m.cow_pages_saved(), 0);

        // Dirty an existing page through every write path, plus a fresh one.
        m.write_u64(0x1000, 99);
        m.write_u8(0x9001, 7);
        let ic = PageIc::new();
        m.write_u64_ic(0x1008, 123, &ic);
        m.write_u64_ic(0x1010, 124, &ic); // IC hit path
        m.write(0x2_0000, b"fresh page");
        assert_eq!(m.cow_pages_saved(), 2, "two preexisting pages dirtied");
        assert_ne!(m.content_hash(), h0);

        m.snapshot_restore();
        assert_eq!(m.read_u64(0x1000), 11);
        assert_eq!(m.read_u64(0x9000), 22);
        assert_eq!(m.read_u64(0x1008), 0);
        assert_eq!(m.read_u64(0x2_0000), 0);
        assert_eq!(m.content_hash(), h0, "hash ignores mapped-but-zero pages");
        // The IC survives the restore and still resolves correctly.
        assert_eq!(m.read_u64_ic(0x1008, &ic), 0);

        // One snapshot supports repeated restores.
        m.write_u64(0x1000, 55);
        m.snapshot_restore();
        assert_eq!(m.read_u64(0x1000), 11);
        assert_eq!(m.content_hash(), h0);

        m.snapshot_discard();
        assert_eq!(m.cow_pages_saved(), 0);
        m.write_u64(0x1000, 77);
        m.snapshot_restore(); // disarmed: no-op
        assert_eq!(m.read_u64(0x1000), 77);
    }

    #[test]
    fn cstr_reads() {
        let mut m = GuestMemory::new();
        m.write(0x100, b"hello\0world");
        assert_eq!(m.read_cstr(0x100, 64), b"hello");
        assert_eq!(m.read_cstr(0x100, 3), b"hel", "cap respected");
        assert_eq!(m.read_cstr(0x500, 8), b"", "unmapped reads as empty");
    }
}
