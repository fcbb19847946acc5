//! Corruption robustness: whatever is on disk — truncated files, flipped
//! bytes, stale format versions, wrong-key headers — opening the cache
//! must never panic and never serve a block that differs from what was
//! stored. A damaged record degrades to a miss (the engine falls back to
//! a cold compile); it must not become wrong code.

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use grindcore::flat::FlatBlock;
use grindcore::flatio::flat_to_bytes;
use grindcore::CodeCache;
use tg_cache::{DiskCodeCache, FORMAT_VERSION};

fn temp_dir(tag: &str) -> PathBuf {
    static N: AtomicU64 = AtomicU64::new(0);
    let d = std::env::temp_dir().join(format!(
        "tg-cache-corrupt-{}-{}-{}",
        tag,
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = fs::remove_dir_all(&d);
    d
}

/// A small translated block: `n` guest instructions, fallthrough next.
fn sample_flat(base: u64, n: u64) -> FlatBlock {
    use vex_ir::{Atom, IrBlock, Stmt};
    let mut b = IrBlock::new(base);
    for i in 0..n {
        b.stmts.push(Stmt::IMark { addr: base + i * 16, len: 16 });
    }
    b.next = Atom::imm(base + n * 16);
    grindcore::flat::compile(&b)
}

const BASES: [u64; 4] = [0x1_0000, 0x1_0100, 0x1_0200, 0x1_0300];
const FACTS: &[u8] = b"opaque-facts-payload";

/// Build the reference cache file, returning (its bytes, the expected
/// per-pc encodings for comparison after damage).
fn reference_file(dir: &Path, bin: u64, fp: u64) -> (Vec<u8>, Vec<(u64, Vec<u8>)>) {
    let mut c = DiskCodeCache::open(dir, bin, fp).unwrap();
    let mut expected = Vec::new();
    for (i, &base) in BASES.iter().enumerate() {
        let fb = sample_flat(base, 1 + i as u64);
        c.store(base, base + 16 * (1 + i as u64), &fb);
        expected.push((base, flat_to_bytes(&fb)));
    }
    c.store_facts(FACTS);
    c.flush().unwrap();
    (fs::read(c.path()).unwrap(), expected)
}

/// Open a (possibly damaged) image and assert the safety contract:
/// every served block is bit-identical to what was stored, and served
/// facts are bit-identical to what was stored. Returns how many blocks
/// survived.
fn assert_no_wrong_code(
    dir: &Path,
    bin: u64,
    fp: u64,
    image: &[u8],
    expected: &[(u64, Vec<u8>)],
) -> usize {
    let file = dir.join(format!("tgc-{bin:016x}-{fp:016x}.tgc"));
    fs::create_dir_all(dir).unwrap();
    fs::write(&file, image).unwrap();
    let mut c = DiskCodeCache::open(dir, bin, fp).unwrap();
    let mut survived = 0;
    for (pc, bytes) in expected {
        if let Some(hit) = c.load(*pc) {
            assert_eq!(&flat_to_bytes(&hit.flat), bytes, "pc {pc:#x} served a different block");
            survived += 1;
        }
    }
    if let Some(f) = c.load_facts() {
        assert_eq!(f, FACTS, "served different facts bytes");
    }
    survived
}

/// Every strict prefix of a valid cache file opens cleanly; surviving
/// records are bit-exact, missing ones are plain misses.
#[test]
fn truncation_at_every_length_is_tolerated() {
    let dir = temp_dir("trunc");
    let (image, expected) = reference_file(&dir, 11, 22);
    let mut survivors_seen = Vec::new();
    for cut in 0..image.len() {
        let n = assert_no_wrong_code(&dir, 11, 22, &image[..cut], &expected);
        survivors_seen.push(n);
    }
    assert_eq!(*survivors_seen.first().unwrap(), 0, "empty file has no entries");
    // truncation strictly before the end loses at least the last record
    assert!(survivors_seen.iter().all(|&n| n < expected.len()));
    let _ = fs::remove_dir_all(&dir);
}

/// Flipping any single byte anywhere in the file must be detected (the
/// record degrades to a miss) or provably harmless (served bytes still
/// bit-exact).
#[test]
fn every_single_byte_flip_is_detected_or_harmless() {
    let dir = temp_dir("flip");
    let (image, expected) = reference_file(&dir, 33, 44);
    for pos in 0..image.len() {
        let mut bad = image.clone();
        bad[pos] ^= 0x5a;
        assert_no_wrong_code(&dir, 33, 44, &bad, &expected);
    }
    let _ = fs::remove_dir_all(&dir);
}

/// A file written by a future (or ancient) format version is ignored
/// wholesale and rewritten cleanly on the next flush.
#[test]
fn stale_format_version_reads_as_empty_and_rewrites() {
    let dir = temp_dir("version");
    let (mut image, expected) = reference_file(&dir, 55, 66);
    // header: magic[8] | version u32 | bin_hash u64 | fingerprint u64
    image[8..12].copy_from_slice(&(FORMAT_VERSION + 1).to_le_bytes());
    assert_eq!(assert_no_wrong_code(&dir, 55, 66, &image, &expected), 0);

    // the stale file is replaced by a fresh, fully decodable one
    let mut c = DiskCodeCache::open(&dir, 55, 66).unwrap();
    assert!(c.is_empty());
    let fb = sample_flat(0x2_0000, 1);
    c.store(0x2_0000, 0x2_0010, &fb);
    c.flush().unwrap();
    let mut c2 = DiskCodeCache::open(&dir, 55, 66).unwrap();
    assert_eq!(c2.len(), 1);
    assert!(c2.load(0x2_0000).is_some());
    let _ = fs::remove_dir_all(&dir);
}

/// A file whose *name* matches the key but whose header fingerprint
/// does not (e.g. a hand-copied cache) is rejected as empty — the
/// header, not the filename, is authoritative.
#[test]
fn header_fingerprint_mismatch_rejects_file() {
    let dir = temp_dir("fp");
    let (mut image, expected) = reference_file(&dir, 77, 88);
    image[20..28].copy_from_slice(&999u64.to_le_bytes());
    assert_eq!(assert_no_wrong_code(&dir, 77, 88, &image, &expected), 0);
    let _ = fs::remove_dir_all(&dir);
}

/// Same for the binary hash field: a cache of a different binary must
/// never serve blocks, even under the right filename.
#[test]
fn header_binary_hash_mismatch_rejects_file() {
    let dir = temp_dir("bin");
    let (mut image, expected) = reference_file(&dir, 99, 111);
    image[12..20].copy_from_slice(&123_456u64.to_le_bytes());
    assert_eq!(assert_no_wrong_code(&dir, 99, 111, &image, &expected), 0);
    let _ = fs::remove_dir_all(&dir);
}

/// A salvage-opened (damaged) cache marks itself dirty: the next flush
/// writes a clean file that fully decodes on reopen.
#[test]
fn salvage_open_rewrites_clean_file() {
    let dir = temp_dir("salvage");
    let (image, expected) = reference_file(&dir, 13, 14);
    let cut = image.len() - 7; // lose the tail of the last record
    let survived = assert_no_wrong_code(&dir, 13, 14, &image[..cut], &expected);

    let mut c = DiskCodeCache::open(&dir, 13, 14).unwrap();
    c.flush().unwrap(); // salvage marked it dirty → rewrite
    drop(c);
    let mut c2 = DiskCodeCache::open(&dir, 13, 14).unwrap();
    assert_eq!(c2.len(), survived, "rewritten file keeps exactly the survivors");
    for (pc, bytes) in &expected {
        if let Some(hit) = c2.load(*pc) {
            assert_eq!(&flat_to_bytes(&hit.flat), bytes);
        }
    }
    let _ = fs::remove_dir_all(&dir);
}
