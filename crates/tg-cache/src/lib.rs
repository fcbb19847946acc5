//! Persistent on-disk cache of compiled code and static analysis facts.
//!
//! Taskgrind's heavyweight pipeline pays decode→lift→instrument→fuse→
//! compile on every run of the same binary. This crate makes that cost
//! pay once per *fleet*: [`DiskCodeCache`] persists the compiled
//! [`FlatBlock`]s (fusion output included) and the serialized
//! `StaticFacts` to a versioned container file, keyed by
//! **(binary content hash, engine-config fingerprint)** — change either
//! and the cache reads as empty, so stale code can never be executed.
//!
//! # On-disk format (version 3)
//!
//! One file per key, named `tgc-<bin_hash>-<fingerprint>.tgc` inside the
//! cache directory. Little-endian throughout, laid out for sequential
//! mmap-style scanning (fixed header, then self-delimiting records):
//!
//! ```text
//! header   magic   [u8; 8]  = "TGCACHE\0"
//!          version u32      = FORMAT_VERSION
//!          bin_hash u64       FNV-1a over the module content
//!          fingerprint u64    FNV-1a over the translation-relevant config
//! record   kind    u8         1 = compiled block, 2 = static facts
//!          len     u32        payload byte count
//!          checksum u32       FNV-1a-32 over the payload
//!          payload [u8; len]
//! block payload   pc u64 | end u64 | flatio-encoded FlatBlock
//! facts payload   opaque bytes (tga-analysis factsio encoding)
//! ```
//!
//! # Corruption and invalidation story
//!
//! Reading is *salvage, never trust*: a bad magic, version, or key
//! mismatch empties the whole file; a record with a bad checksum, an
//! undecodable body, or a truncated tail is dropped individually and
//! parsing continues (or stops at the tail). A block decodes only if
//! [`FlatBlock::check`] proves every index it holds in range and it
//! starts at its record's pc, so even a record whose checksum was
//! forged cannot panic the engine. Every failure mode degrades to a
//! cold compile — the engine's behavior is identical either way, just
//! slower, and the corrupt bytes are rewritten on the next flush.
//!
//! Each record is decoded once, when the file is opened; a hit hands
//! out a copy of the decoded block, with cold inline caches.
//!
//! Runtime invalidation mirrors the tcache: when self-modifying code or
//! a `DISCARD_TRANSLATIONS` client request discards translations in
//! `[lo, hi)`, overlapping disk entries are dropped from the in-memory
//! table and therefore evicted from disk at the end-of-run [`flush`]
//! (an atomic tmp-file + rename rewrite).
//!
//! [`flush`]: DiskCodeCache::flush

#![warn(missing_docs)]

use std::collections::BTreeMap;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::time::Instant;

use grindcore::codecache::{CachedTranslation, CodeCache, CodeCacheStats};
use grindcore::flat::FlatBlock;
use grindcore::flatio;
use grindcore::wire::{checksum, fold64, Dec, Enc};
use tga::module::{Module, SymKind};

/// Version written into (and required of) every container header.
/// Bumped whenever the record layout or the flat-block/facts encodings
/// change shape; a mismatch empties the cache rather than misreading it.
/// Version 2 dropped the per-block accounting size (the tcache measures
/// a loaded block itself) and the four operand-based fused ops; version
/// 3 narrowed operands and indices to 16 bits and merged the cold side
/// tables.
pub const FORMAT_VERSION: u32 = 3;

/// Container magic: identifies the file type before any parsing.
pub const MAGIC: [u8; 8] = *b"TGCACHE\0";

const REC_BLOCK: u8 = 1;
const REC_FACTS: u8 = 2;

/// Content hash of a loaded module: everything that affects lifting,
/// instrumentation, or static analysis — code, data, TLS image, entry
/// point, symbols, and the debug line table (findings embed `file:line`
/// strings). Two modules with equal hashes translate identically.
pub fn module_hash(m: &Module) -> u64 {
    let mut h = fold64(0, &m.code_base.to_le_bytes());
    for inst in &m.code {
        h = fold64(h, &inst.encode());
    }
    h = fold64(h, &m.data_base.to_le_bytes());
    h = fold64(h, &m.data);
    h = fold64(h, &m.bss_size.to_le_bytes());
    h = fold64(h, &m.tls_template);
    h = fold64(h, &m.tls_bss.to_le_bytes());
    h = fold64(h, &m.entry.to_le_bytes());
    for s in &m.symbols {
        h = fold64(h, s.name.as_bytes());
        h = fold64(h, &s.addr.to_le_bytes());
        h = fold64(h, &s.size.to_le_bytes());
        let kind = match s.kind {
            SymKind::Func => 0u8,
            SymKind::Data => 1,
            SymKind::Tls => 2,
        };
        h = fold64(h, &[kind]);
    }
    for f in &m.files {
        h = fold64(h, f.as_bytes());
    }
    for l in &m.lines {
        h = fold64(h, &l.addr.to_le_bytes());
        h = fold64(h, &l.file.to_le_bytes());
        h = fold64(h, &l.line.to_le_bytes());
    }
    h
}

/// One cached compiled block, kept decoded: a block read from the file
/// was decoded and checked once, when the file was opened.
struct DiskEntry {
    /// One past the last guest byte the block covers (for range
    /// invalidation).
    end: u64,
    flat: FlatBlock,
    /// Bytes of the block's `flatio` encoding (what a hit loads).
    encoded_len: u64,
}

/// The on-disk cache for one (binary, config) key. See the module docs
/// for format and semantics.
pub struct DiskCodeCache {
    path: PathBuf,
    bin_hash: u64,
    fingerprint: u64,
    entries: BTreeMap<u64, DiskEntry>,
    facts: Option<Vec<u8>>,
    /// Entries were added, dropped, or salvaged around corruption —
    /// the file must be rewritten on flush.
    dirty: bool,
    stats: CodeCacheStats,
}

impl DiskCodeCache {
    /// Open (creating the directory if needed) the cache for the given
    /// key. A missing, empty, or unreadable-beyond-salvage file is not
    /// an error — it is an empty cache; only directory creation can
    /// fail.
    pub fn open(dir: &Path, bin_hash: u64, fingerprint: u64) -> io::Result<DiskCodeCache> {
        fs::create_dir_all(dir)?;
        let path = dir.join(format!("tgc-{bin_hash:016x}-{fingerprint:016x}.tgc"));
        let mut cache = DiskCodeCache {
            path,
            bin_hash,
            fingerprint,
            entries: BTreeMap::new(),
            facts: None,
            dirty: false,
            stats: CodeCacheStats { enabled: true, ..CodeCacheStats::default() },
        };
        if let Ok(data) = fs::read(&cache.path) {
            let t0 = Instant::now();
            cache.parse(&data);
            cache.stats.load_nanos += t0.elapsed().as_nanos() as u64;
        }
        Ok(cache)
    }

    /// Salvage whatever validates from `data`. Sets `dirty` when any
    /// byte had to be discarded, so the next flush rewrites a clean file.
    fn parse(&mut self, data: &[u8]) {
        let mut d = Dec::new(data);
        let header_ok = (|| {
            let magic = [
                d.u8("magic").ok()?,
                d.u8("magic").ok()?,
                d.u8("magic").ok()?,
                d.u8("magic").ok()?,
                d.u8("magic").ok()?,
                d.u8("magic").ok()?,
                d.u8("magic").ok()?,
                d.u8("magic").ok()?,
            ];
            if magic != MAGIC {
                return None;
            }
            if d.u32("version").ok()? != FORMAT_VERSION {
                return None;
            }
            if d.u64("bin_hash").ok()? != self.bin_hash {
                return None;
            }
            if d.u64("fingerprint").ok()? != self.fingerprint {
                return None;
            }
            Some(())
        })()
        .is_some();
        if !header_ok {
            // Foreign, stale-version, or wrong-key file: read as empty
            // and reclaim the slot on the next flush.
            self.dirty = !data.is_empty();
            return;
        }
        while !d.is_empty() {
            let ok = (|| {
                let kind = d.u8("record kind").ok()?;
                if kind != REC_BLOCK && kind != REC_FACTS {
                    return None;
                }
                let len = d.u32("record len").ok()? as usize;
                if len > d.remaining().saturating_sub(4) {
                    return None; // truncated tail
                }
                let sum = d.u32("record checksum").ok()?;
                let mut payload = Vec::with_capacity(len);
                for _ in 0..len {
                    payload.push(d.u8("record payload").ok()?);
                }
                if checksum(&payload) != sum {
                    // Bit flip inside this record: drop it, keep going —
                    // the framing is still intact.
                    self.dirty = true;
                    return Some(());
                }
                match kind {
                    REC_BLOCK => {
                        let mut pd = Dec::new(&payload);
                        let pc = pd.u64("entry pc").ok()?;
                        let end = pd.u64("entry end").ok()?;
                        let rest = &payload[16..];
                        match flatio::flat_from_bytes(rest) {
                            Ok(flat) if flat.base == pc && end > pc => {
                                let encoded_len = rest.len() as u64;
                                self.entries.insert(pc, DiskEntry { end, flat, encoded_len });
                            }
                            // Undecodable, failing its index check, or
                            // filed under another pc: a miss.
                            _ => self.dirty = true,
                        }
                    }
                    _ => self.facts = Some(payload),
                }
                Some(())
            })()
            .is_some();
            if !ok {
                // Lost framing (truncation or garbage): everything past
                // this point is unrecoverable.
                self.dirty = true;
                return;
            }
        }
    }

    /// True when a compiled block starting at `pc` is cached.
    pub fn contains(&self, pc: u64) -> bool {
        self.entries.contains_key(&pc)
    }

    /// Number of cached compiled blocks.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no blocks are cached.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The container file this cache reads and writes.
    pub fn path(&self) -> &Path {
        &self.path
    }

    fn append_record(out: &mut Enc, kind: u8, payload: &[u8]) {
        out.u8(kind);
        out.u32(payload.len() as u32);
        out.u32(checksum(payload));
        out.raw(payload);
    }

    /// Persist the current state: atomic tmp-file + rename rewrite of
    /// the whole container. Entries invalidated during the run are
    /// gone from the in-memory table, so this is also where they get
    /// evicted from disk. A no-op when nothing changed.
    pub fn flush(&mut self) -> io::Result<()> {
        if !self.dirty {
            return Ok(());
        }
        let t0 = Instant::now();
        let mut out = Enc::new();
        out.raw(&MAGIC);
        out.u32(FORMAT_VERSION);
        out.u64(self.bin_hash);
        out.u64(self.fingerprint);
        if let Some(facts) = &self.facts {
            Self::append_record(&mut out, REC_FACTS, facts);
        }
        for (pc, e) in &self.entries {
            let mut payload = Enc::new();
            payload.u64(*pc);
            payload.u64(e.end);
            flatio::encode_flat(&e.flat, &mut payload);
            Self::append_record(&mut out, REC_BLOCK, &payload.into_inner());
        }
        let tmp = self.path.with_extension(format!("tmp{}", std::process::id()));
        fs::write(&tmp, out.into_inner())?;
        fs::rename(&tmp, &self.path)?;
        self.dirty = false;
        self.stats.store_nanos += t0.elapsed().as_nanos() as u64;
        Ok(())
    }
}

impl CodeCache for DiskCodeCache {
    fn load(&mut self, pc: u64) -> Option<CachedTranslation> {
        let t0 = Instant::now();
        // A copy: each run warms its own inline caches.
        let out = self.entries.get(&pc).map(|e| (e.flat.clone(), e.end, e.encoded_len));
        self.stats.load_nanos += t0.elapsed().as_nanos() as u64;
        match out {
            Some((flat, end, encoded_len)) => {
                self.stats.hits += 1;
                self.stats.bytes_loaded += encoded_len;
                Some(CachedTranslation { flat, end })
            }
            None => {
                self.stats.misses += 1;
                None
            }
        }
    }

    fn store(&mut self, pc: u64, end: u64, flat: &FlatBlock) {
        let t0 = Instant::now();
        let encoded_len = flatio::flat_to_bytes(flat).len() as u64;
        self.stats.bytes_stored += encoded_len;
        self.entries.insert(pc, DiskEntry { end, flat: flat.clone(), encoded_len });
        self.dirty = true;
        self.stats.store_nanos += t0.elapsed().as_nanos() as u64;
    }

    fn invalidate_range(&mut self, lo: u64, hi: u64) {
        if lo >= hi {
            return;
        }
        let victims: Vec<u64> = self
            .entries
            .iter()
            .filter(|(&pc, e)| pc < hi && e.end > lo)
            .map(|(&pc, _)| pc)
            .collect();
        for pc in victims {
            self.entries.remove(&pc);
            self.stats.invalidations += 1;
            self.dirty = true;
        }
    }

    fn load_facts(&mut self) -> Option<Vec<u8>> {
        let f = self.facts.clone();
        if let Some(f) = &f {
            self.stats.bytes_loaded += f.len() as u64;
        }
        f
    }

    fn has_facts(&self) -> bool {
        self.facts.is_some()
    }

    fn store_facts(&mut self, bytes: &[u8]) {
        self.stats.bytes_stored += bytes.len() as u64;
        self.facts = Some(bytes.to_vec());
        self.dirty = true;
    }

    fn stats(&self) -> CodeCacheStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn temp_dir(tag: &str) -> PathBuf {
        static N: AtomicU64 = AtomicU64::new(0);
        let d = std::env::temp_dir().join(format!(
            "tg-cache-test-{}-{}-{}",
            tag,
            std::process::id(),
            N.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = fs::remove_dir_all(&d);
        d
    }

    fn sample_flat(base: u64) -> FlatBlock {
        use vex_ir::{Atom, IrBlock, Stmt};
        let mut b = IrBlock::new(base);
        b.stmts.push(Stmt::IMark { addr: base, len: 16 });
        b.next = Atom::imm(base + 16);
        grindcore::flat::compile(&b)
    }

    #[test]
    fn store_flush_reopen_round_trips() {
        let dir = temp_dir("roundtrip");
        let mut c = DiskCodeCache::open(&dir, 7, 9).unwrap();
        assert!(c.is_empty());
        let fb = sample_flat(0x1000);
        c.store(0x1000, 0x1010, &fb);
        c.store_facts(b"facts-bytes");
        c.flush().unwrap();

        let mut c2 = DiskCodeCache::open(&dir, 7, 9).unwrap();
        assert_eq!(c2.len(), 1);
        let hit = c2.load(0x1000).expect("stored block must load");
        assert_eq!(hit.flat.base, 0x1000);
        assert_eq!(hit.end, 0x1010);
        assert_eq!(c2.load_facts().as_deref(), Some(&b"facts-bytes"[..]));
        assert!(c2.load(0x2000).is_none());
        let s = c2.stats();
        assert_eq!((s.hits, s.misses), (1, 1));
        assert!(s.enabled);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn wrong_key_reads_as_empty() {
        let dir = temp_dir("wrongkey");
        let mut c = DiskCodeCache::open(&dir, 1, 2).unwrap();
        c.store(0x1000, 0x1010, &sample_flat(0x1000));
        c.flush().unwrap();
        let stale = c.path().to_path_buf();
        // Same file contents, opened under a different key (simulates a
        // renamed/copied cache file): header mismatch → empty.
        let other = dir.join("tgc-0000000000000003-0000000000000004.tgc");
        fs::copy(&stale, &other).unwrap();
        let c2 = DiskCodeCache::open(&dir, 3, 4).unwrap();
        assert!(c2.is_empty(), "wrong-key entries must be rejected");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn invalidate_range_evicts_from_disk_on_flush() {
        let dir = temp_dir("invalidate");
        let mut c = DiskCodeCache::open(&dir, 5, 5).unwrap();
        c.store(0x1000, 0x1010, &sample_flat(0x1000));
        c.store(0x2000, 0x2010, &sample_flat(0x2000));
        c.flush().unwrap();

        let mut c2 = DiskCodeCache::open(&dir, 5, 5).unwrap();
        c2.invalidate_range(0x1008, 0x1009);
        assert_eq!(c2.stats().invalidations, 1);
        assert!(!c2.contains(0x1000));
        assert!(c2.contains(0x2000));
        c2.flush().unwrap();

        let c3 = DiskCodeCache::open(&dir, 5, 5).unwrap();
        assert!(!c3.contains(0x1000), "invalidated entry must be gone from disk");
        assert!(c3.contains(0x2000));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn flush_is_noop_when_clean() {
        let dir = temp_dir("noop");
        let mut c = DiskCodeCache::open(&dir, 1, 1).unwrap();
        c.store(0x1000, 0x1010, &sample_flat(0x1000));
        c.flush().unwrap();
        let mtime = fs::metadata(c.path()).unwrap().modified().unwrap();
        let mut c2 = DiskCodeCache::open(&dir, 1, 1).unwrap();
        assert!(c2.load(0x1000).is_some());
        c2.flush().unwrap(); // nothing changed
        assert_eq!(fs::metadata(c2.path()).unwrap().modified().unwrap(), mtime);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn module_hash_tracks_content() {
        let mut m = Module::new();
        let h0 = module_hash(&m);
        m.data.push(1);
        let h1 = module_hash(&m);
        assert_ne!(h0, h1, "data change must change the hash");
        m.entry = 0x40;
        assert_ne!(module_hash(&m), h1, "entry change must change the hash");
    }
}
