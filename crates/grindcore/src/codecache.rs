//! Persistent compiled-code cache interface.
//!
//! The VM sees the cache as a [`CodeCache`] trait object: on a tcache
//! miss it asks the cache for an already-compiled [`FlatBlock`]; after a
//! cold translation it hands the freshly compiled block back for
//! storage; SMC / `DISCARD_TRANSLATIONS` invalidation is forwarded so
//! stale entries can be dropped from disk. The concrete on-disk
//! implementation lives in `crates/tg-cache` — grindcore only defines
//! the boundary, which keeps the dependency arrow pointing outward.
//!
//! Static analysis facts ride the same channel as *opaque bytes*
//! ([`CodeCache::load_facts`] / [`CodeCache::store_facts`]): grindcore
//! never learns their schema, so `tga-analysis` stays a downstream
//! crate.

use std::cell::{RefCell, RefMut};
use std::fmt;
use std::rc::Rc;

use crate::flat::FlatBlock;

/// Counters a cache implementation maintains; folded into
/// [`crate::vm::Metrics`] at the end of a run and published as the
/// `cache.*` registry keys.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CodeCacheStats {
    /// True when a cache is attached (drives the `== code cache:`
    /// summary line; absent caches keep the summary shape unchanged).
    pub enabled: bool,
    /// Lookups that returned a previously compiled block.
    pub hits: u64,
    /// Lookups that fell through to a cold translation.
    pub misses: u64,
    /// Payload bytes deserialized from disk on hits.
    pub bytes_loaded: u64,
    /// Payload bytes serialized for storage on misses.
    pub bytes_stored: u64,
    /// Wall-clock nanoseconds spent in [`CodeCache::load`].
    pub load_nanos: u64,
    /// Wall-clock nanoseconds spent in [`CodeCache::store`].
    pub store_nanos: u64,
    /// Cached entries dropped by [`CodeCache::invalidate_range`].
    pub invalidations: u64,
}

/// A deserialized cache entry, ready to install into the tcache.
pub struct CachedTranslation {
    /// The compiled flat superblock (instrumentation already applied).
    pub flat: FlatBlock,
    /// One past the last guest byte the block covers (the IR extent at
    /// compile time) — needed for SMC range invalidation in the tcache.
    pub end: u64,
}

/// The VM-facing cache interface. One instance serves one run; the
/// implementation owns keying (binary hash, config fingerprint),
/// format versioning, and corruption handling — a corrupt or
/// mismatched entry must surface as a plain miss, never as an error.
pub trait CodeCache {
    /// Fetch the compiled block starting at guest `pc`, if present and
    /// valid. Implementations count a hit or miss per call.
    fn load(&mut self, pc: u64) -> Option<CachedTranslation>;

    /// Record a freshly compiled block for future runs. `end` is echoed
    /// back by [`CodeCache::load`]; the tcache measures the block's bytes
    /// itself, so they are not stored.
    fn store(&mut self, pc: u64, end: u64, flat: &FlatBlock);

    /// Guest code in `[lo, hi)` was overwritten or discarded; entries
    /// overlapping the range must not be served again and should be
    /// evicted from disk when the cache is flushed.
    fn invalidate_range(&mut self, lo: u64, hi: u64);

    /// Serialized static-analysis facts stored alongside the code, if
    /// any. Opaque to grindcore.
    fn load_facts(&mut self) -> Option<Vec<u8>> {
        None
    }

    /// Store serialized static-analysis facts alongside the code.
    fn store_facts(&mut self, _bytes: &[u8]) {}

    /// Counter snapshot for metrics publication.
    fn stats(&self) -> CodeCacheStats;
}

/// Shared, cloneable handle to a cache instance. The CLI keeps one
/// clone to flush the cache after the run; the VM keeps another to
/// consult during translation. Single-threaded by construction (the
/// dispatch loop owns translation), hence `Rc<RefCell<..>>`.
#[derive(Clone)]
pub struct CodeCacheHandle(Rc<RefCell<dyn CodeCache>>);

impl CodeCacheHandle {
    /// Wrap a concrete cache. Callers typically pass
    /// `Rc::new(RefCell::new(DiskCodeCache::open(..)?))` — unsized
    /// coercion handles the rest.
    pub fn new(inner: Rc<RefCell<dyn CodeCache>>) -> CodeCacheHandle {
        CodeCacheHandle(inner)
    }

    /// Mutable access to the underlying cache.
    pub fn borrow_mut(&self) -> RefMut<'_, dyn CodeCache> {
        self.0.borrow_mut()
    }

    /// Counter snapshot without holding a borrow across other calls.
    pub fn stats(&self) -> CodeCacheStats {
        self.0.borrow().stats()
    }
}

impl fmt::Debug for CodeCacheHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = self.stats();
        write!(f, "CodeCacheHandle(hits={}, misses={})", s.hits, s.misses)
    }
}
