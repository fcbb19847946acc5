//! Corruption robustness: whatever is on disk — truncated files, flipped
//! bytes, stale format versions, wrong-key headers, or records crafted
//! with a valid checksum around out-of-range indices — opening the cache
//! must never panic and never serve a block that differs from what was
//! stored, or one the engine cannot safely run. A damaged record
//! degrades to a miss (the engine falls back to a cold compile); it must
//! not become wrong code or a crash.

use std::cell::RefCell;
use std::fs;
use std::path::{Path, PathBuf};
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering};

use grindcore::flat::{FOp, FSide, FlatBlock, TMP_BIT};
use grindcore::flatio::{flat_from_bytes, flat_to_bytes};
use grindcore::tool::NulTool;
use grindcore::wire::checksum;
use grindcore::{CodeCache, CodeCacheHandle, ExecMode, RunResult, Vm, VmConfig};
use tg_cache::{DiskCodeCache, FORMAT_VERSION};
use tga::asm::assemble;
use tga::module::{Module, CODE_BASE};
use vex_ir::BinOp;

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

/// A guest whose blocks use every table a hostile record could point
/// past: temps, constants, inline caches (the stack traffic), a side
/// exit (the loop branch), side entries (the division and the write
/// syscall) and registers.
const GUEST: &str = "
    _start:
        li   t0, 0
        li   t1, 0
    loop:
        addi t0, t0, 1
        add  t1, t1, t0
        st   t1, -8(sp)
        ld   t3, -8(sp)
        li   t2, 200
        blt  t0, t2, loop
        div  t4, t3, t2
        li   a0, 1
        li   a1, 0x600000000000
        ld   a1, 0(a1)
        li   a2, 5
        sys  zero, 1
        add  a0, t4, zero
        sys  zero, 0
        halt
";

fn guest() -> Module {
    let (code, labels) = assemble(GUEST, CODE_BASE).unwrap();
    let mut m = Module::new();
    let code_len = code.len() as u64 * tga::INST_SIZE;
    m.code = code;
    m.data_base = (CODE_BASE + code_len + 0xfff) & !0xfff;
    m.entry = labels["_start"];
    m.finalize();
    m
}

fn run(m: &Module, cache: Option<&Rc<RefCell<DiskCodeCache>>>) -> RunResult {
    let mut vm = Vm::new(m.clone(), Box::new(NulTool), VmConfig::default());
    if let Some(c) = cache {
        vm.set_code_cache(CodeCacheHandle::new(c.clone()));
    }
    vm.run(ExecMode::Dbi, &[])
}

/// Everything a run shows: its output, exit and instruction count.
fn outcome(r: &RunResult) -> (Vec<u8>, Option<i64>, bool, u64) {
    (r.stdout.clone(), r.exit_code, r.error.is_none(), r.metrics.instrs)
}

/// Bytes before the first record: magic, version, binary hash and
/// fingerprint.
const HEADER: usize = 28;

/// The `(kind, payload)` records of a well-formed cache image.
fn records(image: &[u8]) -> Vec<(u8, Vec<u8>)> {
    let mut out = Vec::new();
    let mut i = HEADER;
    while i < image.len() {
        let len = u32::from_le_bytes(image[i + 1..i + 5].try_into().unwrap()) as usize;
        out.push((image[i], image[i + 9..i + 9 + len].to_vec()));
        i += 9 + len;
    }
    out
}

/// A cache image with a valid checksum on every record.
fn image(header: &[u8], recs: &[(u8, Vec<u8>)]) -> Vec<u8> {
    let mut out = header.to_vec();
    for (kind, payload) in recs {
        out.push(*kind);
        out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        out.extend_from_slice(&checksum(payload).to_le_bytes());
        out.extend_from_slice(payload);
    }
    out
}

/// The fields of a block record a crafted record overrides.
struct Rec {
    pc: u64,
    end: u64,
    block: FlatBlock,
}

impl Rec {
    fn parse(payload: &[u8]) -> Rec {
        Rec {
            pc: u64::from_le_bytes(payload[..8].try_into().unwrap()),
            end: u64::from_le_bytes(payload[8..16].try_into().unwrap()),
            block: flat_from_bytes(&payload[16..]).expect("stored blocks decode"),
        }
    }

    fn payload(&self) -> Vec<u8> {
        let mut p = Vec::new();
        p.extend_from_slice(&self.pc.to_le_bytes());
        p.extend_from_slice(&self.end.to_le_bytes());
        p.extend_from_slice(&flat_to_bytes(&self.block));
        p
    }
}

type Edit = fn(&mut Rec);

/// Edits that each leave some index the executor follows out of range,
/// a count it relies on wrong, or a sound block filed under the wrong
/// pc or extent. An edit leaves a block that has nothing to break
/// unchanged.
fn hostile_edits() -> Vec<(&'static str, Edit)> {
    vec![
        ("n_temps past what an operand can index", |r| r.block.n_temps = u16::MAX),
        ("no temps", |r| r.block.n_temps = 0),
        ("an empty constant pool", |r| r.block.consts = Box::new([])),
        ("no inline caches", |r| r.block.ics = Box::new([])),
        ("no exit descriptors", |r| r.block.exits = Box::new([])),
        ("no side entries", |r| r.block.side = Box::new([])),
        ("a fallthrough temp past n_temps", |r| r.block.next = TMP_BIT | 0x7fff),
        ("a register past the file", |r| {
            if let Some(op) = r.block.ops.first_mut() {
                *op = FOp::Get { dst: 0, reg: 200 };
            }
        }),
        ("a trapping operator outside BinTrap", |r| {
            if let Some(op) = r.block.ops.first_mut() {
                *op = FOp::Bin { dst: 0, op: BinOp::DivS, a: 0, b: 0 };
            }
        }),
        ("a syscall without arguments", |r| {
            for s in r.block.side.iter_mut() {
                if let FSide::Dirty(d) = s {
                    d.args = Box::new([]);
                }
            }
        }),
        ("a block that retires no instruction", |r| r.block.instrs_total = 0),
        ("a block based at another pc", |r| r.block.base += 16),
        ("an end at the block's own pc", |r| r.end = r.pc),
    ]
}

/// Records crafted with a valid checksum but a block that fails its
/// index check (or sits under the wrong pc) read as misses, and a run
/// over the damaged cache matches a cold run exactly.
#[test]
fn checksummed_hostile_records_read_as_misses() {
    let m = guest();
    let cold = run(&m, None);
    assert!(cold.error.is_none() && cold.exit_code == Some(100), "{:?}", cold.error);
    let dir = temp_dir("hostile");
    let cache = Rc::new(RefCell::new(DiskCodeCache::open(&dir, 3, 5).unwrap()));
    assert_eq!(outcome(&run(&m, Some(&cache))), outcome(&cold));
    cache.borrow_mut().flush().unwrap();
    let file = cache.borrow().path().to_path_buf();
    let good = fs::read(&file).unwrap();
    let recs = records(&good);
    let n_blocks = recs.len();
    assert!(n_blocks >= 3, "the guest translates several blocks");

    for (what, edit) in hostile_edits() {
        let mut hits = 0;
        for i in 0..n_blocks {
            let mut rec = Rec::parse(&recs[i].1);
            edit(&mut rec);
            if rec.payload() == recs[i].1 {
                continue; // nothing to break in this block
            }
            hits += 1;
            let mut crafted = recs.clone();
            crafted[i].1 = rec.payload();
            fs::write(&file, image(&good[..HEADER], &crafted)).unwrap();
            let damaged = Rc::new(RefCell::new(DiskCodeCache::open(&dir, 3, 5).unwrap()));
            assert!(!damaged.borrow().contains(rec.pc), "{what}: block {i} must read as a miss");
            assert_eq!(damaged.borrow().len(), n_blocks - 1, "{what}: the other blocks survive");
            assert_eq!(outcome(&run(&m, Some(&damaged))), outcome(&cold), "{what}: block {i}");
        }
        assert!(hits > 0, "{what}: no block of the guest had anything to break");
    }
    let _ = fs::remove_dir_all(&dir);
}
