//! Executable module format: code, data, TLS template, symbols and a
//! DWARF-like line table.
//!
//! A [`Module`] is what `minicc` emits and what `grindcore` loads. It
//! carries everything Taskgrind's report machinery needs from "debug
//! information compiled into the binary" (paper §III-C): a symbol table
//! used by ignore-/instrument-lists and stack traces, and an
//! address→`file:line` mapping used by error reports.
//!
//! Modules serialize to a small binary container ([`Module::to_bytes`] /
//! [`Module::from_bytes`]) so programs can be "compiled" once and loaded
//! as opaque binaries — the situation heavyweight DBI is designed for.

use crate::{Inst, INST_SIZE};
use bytes::{Buf, BufMut, Bytes, BytesMut};
use serde::{Deserialize, Serialize};

/// Default load address of the code section.
pub const CODE_BASE: u64 = 0x1_0000;
/// Alignment applied between sections.
pub const SECTION_ALIGN: u64 = 0x1000;

/// What a symbol labels.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum SymKind {
    Func,
    Data,
    /// A thread-local variable; `addr` is the offset inside the TLS block.
    Tls,
}

/// A named address range.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Symbol {
    pub name: String,
    pub addr: u64,
    pub size: u64,
    pub kind: SymKind,
}

/// One row of the line table: the guest instruction at `addr` came from
/// `files[file] : line`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct LineInfo {
    pub addr: u64,
    pub file: u32,
    pub line: u32,
}

/// A resolved source location.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct SrcLoc {
    pub file: String,
    pub line: u32,
}

impl std::fmt::Display for SrcLoc {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}:{}", self.file, self.line)
    }
}

/// An executable image for the TGA machine.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct Module {
    /// Load address of the first instruction.
    pub code_base: u64,
    /// The text section.
    pub code: Vec<Inst>,
    /// Load address of the data section.
    pub data_base: u64,
    /// Initialized data.
    pub data: Vec<u8>,
    /// Zero-initialized space following `data`.
    pub bss_size: u64,
    /// Per-thread TLS initialization image; each thread gets a copy.
    pub tls_template: Vec<u8>,
    /// Extra zero-initialized TLS space past the template.
    pub tls_bss: u64,
    /// Entry point address (conventionally `_start`).
    pub entry: u64,
    /// Symbol table, sorted by address at finalize time.
    pub symbols: Vec<Symbol>,
    /// Source file names referenced by `lines`.
    pub files: Vec<String>,
    /// Line table, sorted by address.
    pub lines: Vec<LineInfo>,
}

impl Module {
    /// Create an empty module at the default load address.
    pub fn new() -> Module {
        Module { code_base: CODE_BASE, ..Module::default() }
    }

    /// End address (exclusive) of the code section.
    pub fn code_end(&self) -> u64 {
        self.code_base + self.code.len() as u64 * INST_SIZE
    }

    /// End address (exclusive) of data + bss.
    pub fn data_end(&self) -> u64 {
        self.data_base + self.data.len() as u64 + self.bss_size
    }

    /// First address the guest heap may use.
    pub fn heap_start(&self) -> u64 {
        (self.data_end() + SECTION_ALIGN - 1) & !(SECTION_ALIGN - 1)
    }

    /// Total per-thread TLS block size in bytes.
    pub fn tls_size(&self) -> u64 {
        self.tls_template.len() as u64 + self.tls_bss
    }

    /// `[base, end)` address range of the text section.
    pub fn code_range(&self) -> std::ops::Range<u64> {
        self.code_base..self.code_end()
    }

    /// `[base, end)` address range of data + bss.
    pub fn data_range(&self) -> std::ops::Range<u64> {
        self.data_base..self.data_end()
    }

    /// Does `addr` fall inside data or bss?
    pub fn is_data_addr(&self, addr: u64) -> bool {
        self.data_range().contains(&addr)
    }

    /// Does `addr` fall inside the text section?
    pub fn is_code_addr(&self, addr: u64) -> bool {
        addr >= self.code_base
            && addr < self.code_end()
            && (addr - self.code_base).is_multiple_of(INST_SIZE)
    }

    /// Fetch the instruction at `addr`, if it is a valid code address.
    pub fn fetch(&self, addr: u64) -> Option<Inst> {
        if !self.is_code_addr(addr) {
            return None;
        }
        let idx = ((addr - self.code_base) / INST_SIZE) as usize;
        self.code.get(idx).copied()
    }

    /// The instructions at addresses in `[lo, hi)`, clipped to the text
    /// section.
    pub fn code_slice(&self, lo: u64, hi: u64) -> &[Inst] {
        let idx =
            |a: u64| (a.saturating_sub(self.code_base) / INST_SIZE).min(self.code.len() as u64);
        let (a, b) = (idx(lo) as usize, idx(hi) as usize);
        &self.code[a..b.max(a)]
    }

    /// Sort the symbol and line tables; call once after construction.
    pub fn finalize(&mut self) {
        self.symbols.sort_by_key(|s| s.addr);
        self.lines.sort_by_key(|l| l.addr);
    }

    /// The function symbol covering `addr`, if any: the first in table
    /// order. A linear scan; [`FuncTable`] gives the same answer by
    /// binary search.
    pub fn find_func(&self, addr: u64) -> Option<&Symbol> {
        self.symbols
            .iter()
            .filter(|s| s.kind == SymKind::Func)
            .find(|s| addr >= s.addr && addr < s.addr + s.size)
    }

    /// Any symbol covering `addr` (data symbols included).
    pub fn find_symbol(&self, addr: u64) -> Option<&Symbol> {
        self.symbols
            .iter()
            .find(|s| s.kind != SymKind::Tls && addr >= s.addr && addr < s.addr + s.size)
    }

    /// Look up a symbol by exact name.
    pub fn symbol_by_name(&self, name: &str) -> Option<&Symbol> {
        self.symbols.iter().find(|s| s.name == name)
    }

    /// Source location of the instruction at `addr`: the last line-table
    /// row at or before `addr` (standard line-table semantics).
    pub fn line_for(&self, addr: u64) -> Option<SrcLoc> {
        let (file, line) = self.line_at(addr)?;
        Some(SrcLoc { file: file.to_string(), line })
    }

    /// [`Module::line_for`] without the allocation: the file name is
    /// borrowed from the module.
    pub fn line_at(&self, addr: u64) -> Option<(&str, u32)> {
        let idx = self.lines.partition_point(|l| l.addr <= addr);
        if idx == 0 {
            return None;
        }
        let li = &self.lines[idx - 1];
        // Do not attribute addresses past the end of the code section.
        if addr >= self.code_end() {
            return None;
        }
        Some((self.files.get(li.file as usize)?, li.line))
    }

    /// Serialize to the binary container format.
    pub fn to_bytes(&self) -> Bytes {
        let mut b = BytesMut::new();
        b.put_slice(b"TGA1");
        b.put_u64_le(self.code_base);
        b.put_u64_le(self.code.len() as u64);
        for i in &self.code {
            b.put_slice(&i.encode());
        }
        b.put_u64_le(self.data_base);
        put_bytes(&mut b, &self.data);
        b.put_u64_le(self.bss_size);
        put_bytes(&mut b, &self.tls_template);
        b.put_u64_le(self.tls_bss);
        b.put_u64_le(self.entry);
        b.put_u64_le(self.symbols.len() as u64);
        for s in &self.symbols {
            put_str(&mut b, &s.name);
            b.put_u64_le(s.addr);
            b.put_u64_le(s.size);
            b.put_u8(match s.kind {
                SymKind::Func => 0,
                SymKind::Data => 1,
                SymKind::Tls => 2,
            });
        }
        b.put_u64_le(self.files.len() as u64);
        for f in &self.files {
            put_str(&mut b, f);
        }
        b.put_u64_le(self.lines.len() as u64);
        for l in &self.lines {
            b.put_u64_le(l.addr);
            b.put_u32_le(l.file);
            b.put_u32_le(l.line);
        }
        b.freeze()
    }

    /// Parse the binary container format.
    pub fn from_bytes(mut buf: &[u8]) -> Result<Module, String> {
        fn need(buf: &[u8], n: usize) -> Result<(), String> {
            if buf.remaining() < n {
                Err("truncated module".into())
            } else {
                Ok(())
            }
        }
        need(buf, 4)?;
        let mut magic = [0u8; 4];
        buf.copy_to_slice(&mut magic);
        if &magic != b"TGA1" {
            return Err("bad magic".into());
        }
        need(buf, 16)?;
        let code_base = buf.get_u64_le();
        let n_code = buf.get_u64_le() as usize;
        need(buf, n_code * 16)?;
        let mut code = Vec::with_capacity(n_code);
        for _ in 0..n_code {
            let mut raw = [0u8; 16];
            buf.copy_to_slice(&mut raw);
            code.push(Inst::decode(&raw).ok_or("bad instruction encoding")?);
        }
        need(buf, 8)?;
        let data_base = buf.get_u64_le();
        let data = get_bytes(&mut buf)?;
        need(buf, 8)?;
        let bss_size = buf.get_u64_le();
        let tls_template = get_bytes(&mut buf)?;
        need(buf, 24)?;
        let tls_bss = buf.get_u64_le();
        let entry = buf.get_u64_le();
        let n_syms = buf.get_u64_le() as usize;
        let mut symbols = Vec::with_capacity(n_syms);
        for _ in 0..n_syms {
            let name = get_str(&mut buf)?;
            need(buf, 17)?;
            let addr = buf.get_u64_le();
            let size = buf.get_u64_le();
            let kind = match buf.get_u8() {
                0 => SymKind::Func,
                1 => SymKind::Data,
                2 => SymKind::Tls,
                k => return Err(format!("bad symbol kind {k}")),
            };
            symbols.push(Symbol { name, addr, size, kind });
        }
        need(buf, 8)?;
        let n_files = buf.get_u64_le() as usize;
        let mut files = Vec::with_capacity(n_files);
        for _ in 0..n_files {
            files.push(get_str(&mut buf)?);
        }
        need(buf, 8)?;
        let n_lines = buf.get_u64_le() as usize;
        need(buf, n_lines * 16)?;
        let mut lines = Vec::with_capacity(n_lines);
        for _ in 0..n_lines {
            let addr = buf.get_u64_le();
            let file = buf.get_u32_le();
            let line = buf.get_u32_le();
            lines.push(LineInfo { addr, file, line });
        }
        Ok(Module {
            code_base,
            code,
            data_base,
            data,
            bss_size,
            tls_template,
            tls_bss,
            entry,
            symbols,
            files,
            lines,
        })
    }
}

fn put_bytes(b: &mut BytesMut, s: &[u8]) {
    b.put_u64_le(s.len() as u64);
    b.put_slice(s);
}

fn get_bytes(buf: &mut &[u8]) -> Result<Vec<u8>, String> {
    if buf.remaining() < 8 {
        return Err("truncated module".into());
    }
    let n = buf.get_u64_le() as usize;
    if buf.remaining() < n {
        return Err("truncated module".into());
    }
    let mut v = vec![0u8; n];
    buf.copy_to_slice(&mut v);
    Ok(v)
}

fn put_str(b: &mut BytesMut, s: &str) {
    put_bytes(b, s.as_bytes());
}

fn get_str(buf: &mut &[u8]) -> Result<String, String> {
    String::from_utf8(get_bytes(buf)?).map_err(|_| "bad utf-8 in module string".into())
}

/// [`Module::find_func`]'s answers for one module, looked up by binary
/// search: disjoint `[lo, hi)` pieces sorted by `lo`, each carrying a
/// payload for the function `find_func` answers there. [`FuncTable::new`]
/// carries that function's index in [`Module::symbols`];
/// [`FuncTable::classify`] swaps it for a per-function verdict.
#[derive(Debug)]
pub struct FuncTable<T = u32> {
    pieces: Vec<(u64, u64, T)>,
}

impl FuncTable {
    /// Build the table of `module`. `find_func`'s answer can change only
    /// where a function starts or ends, and between two such cuts it is
    /// the first symbol in table order covering the piece, so one sweep
    /// over the cuts with the covering symbols in a set finds every
    /// answer. Zero-size symbols cover nothing, and neither does a
    /// symbol whose end overflows.
    pub fn new(module: &Module) -> FuncTable {
        let ranges: Vec<(u64, u64, u32)> = module
            .symbols
            .iter()
            .enumerate()
            .filter(|(_, s)| s.kind == SymKind::Func)
            .filter_map(|(i, s)| {
                let hi = s.addr.checked_add(s.size)?;
                (hi > s.addr).then_some((s.addr, hi, i as u32))
            })
            .collect();
        let mut starts: Vec<(u64, u32)> = ranges.iter().map(|&(lo, _, i)| (lo, i)).collect();
        let mut ends: Vec<(u64, u32)> = ranges.iter().map(|&(_, hi, i)| (hi, i)).collect();
        starts.sort_unstable();
        ends.sort_unstable();
        let mut cuts: Vec<u64> = starts.iter().chain(&ends).map(|&(a, _)| a).collect();
        cuts.sort_unstable();
        cuts.dedup();
        let mut covering = std::collections::BTreeSet::new();
        let (mut s, mut e) = (starts.iter().peekable(), ends.iter().peekable());
        let mut pieces: Vec<(u64, u64, u32)> = Vec::with_capacity(ranges.len());
        for w in cuts.windows(2) {
            while let Some(&(_, i)) = e.next_if(|&&(hi, _)| hi <= w[0]) {
                covering.remove(&i);
            }
            while let Some(&(_, i)) = s.next_if(|&&(lo, _)| lo <= w[0]) {
                covering.insert(i);
            }
            let Some(&i) = covering.first() else { continue };
            match pieces.last_mut() {
                Some(last) if last.1 == w[0] && last.2 == i => last.1 = w[1],
                _ => pieces.push((w[0], w[1], i)),
            }
        }
        FuncTable { pieces }
    }

    /// The function symbol covering `addr`: exactly
    /// `module.find_func(addr)` for the module the table was built from.
    pub fn find<'m>(&self, module: &'m Module, addr: u64) -> Option<&'m Symbol> {
        module.symbols.get(self.get(addr)? as usize)
    }

    /// The same pieces, each carrying `verdict` of its function instead
    /// of the function's symbol index. `module` must be the one the table
    /// was built from.
    pub fn classify<U: Copy>(
        &self,
        module: &Module,
        mut verdict: impl FnMut(&Symbol) -> U,
    ) -> FuncTable<U> {
        let pieces =
            self.pieces.iter().map(|&(lo, hi, i)| (lo, hi, verdict(&module.symbols[i as usize])));
        FuncTable { pieces: pieces.collect() }
    }
}

impl<T: Copy> FuncTable<T> {
    /// The payload of the function covering `addr`, if any.
    pub fn get(&self, addr: u64) -> Option<T> {
        let idx = self.pieces.partition_point(|p| p.0 <= addr);
        let &(_, hi, v) = self.pieces.get(idx.checked_sub(1)?)?;
        (addr < hi).then_some(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{reg, Op};

    fn sample() -> Module {
        let mut m = Module::new();
        m.code = vec![
            Inst::new(Op::Li, reg::A0, 0, 0, 42),
            Inst::new(Op::Sys, reg::ZERO, 0, 0, 0),
            Inst::new(Op::Halt, 0, 0, 0, 0),
        ];
        m.data_base = m.heap_start_unaligned_for_test();
        m.data = vec![1, 2, 3, 4];
        m.bss_size = 16;
        m.tls_template = vec![9, 9];
        m.tls_bss = 6;
        m.entry = m.code_base;
        m.symbols.push(Symbol {
            name: "main".into(),
            addr: m.code_base,
            size: 3 * INST_SIZE,
            kind: SymKind::Func,
        });
        m.symbols.push(Symbol {
            name: "g".into(),
            addr: m.data_base,
            size: 4,
            kind: SymKind::Data,
        });
        m.files.push("a.c".into());
        m.lines.push(LineInfo { addr: m.code_base, file: 0, line: 3 });
        m.lines.push(LineInfo { addr: m.code_base + 32, file: 0, line: 5 });
        m.finalize();
        m
    }

    impl Module {
        fn heap_start_unaligned_for_test(&self) -> u64 {
            self.code_end()
        }
    }

    #[test]
    fn layout_queries() {
        let m = sample();
        assert_eq!(m.code_end(), m.code_base + 48);
        assert!(m.is_code_addr(m.code_base));
        assert!(m.is_code_addr(m.code_base + 16));
        assert!(!m.is_code_addr(m.code_base + 8), "misaligned");
        assert!(!m.is_code_addr(m.code_end()));
        assert_eq!(m.fetch(m.code_base).unwrap().op, Op::Li);
        assert_eq!(m.fetch(m.code_base + 32).unwrap().op, Op::Halt);
        assert_eq!(m.fetch(m.code_end()), None);
        assert_eq!(m.tls_size(), 8);
        assert_eq!(m.heap_start() % SECTION_ALIGN, 0);
        assert!(m.heap_start() >= m.data_end());
    }

    #[test]
    fn symbol_lookup() {
        let m = sample();
        assert_eq!(m.find_func(m.code_base + 16).unwrap().name, "main");
        assert_eq!(m.find_func(m.code_end()), None);
        assert_eq!(m.find_symbol(m.data_base + 2).unwrap().name, "g");
        assert!(m.symbol_by_name("main").is_some());
        assert!(m.symbol_by_name("nope").is_none());
    }

    /// On a module whose function symbols nest, overlap, repeat, have no
    /// size or end at the top of the address space, the table answers
    /// like `find_func` everywhere.
    #[test]
    fn func_table_agrees_with_find_func_on_odd_symbols() {
        let func =
            |name: &str, addr, size| Symbol { name: name.into(), addr, size, kind: SymKind::Func };
        let m = Module {
            symbols: vec![
                func("outer", 0x100, 0x100),
                func("inner", 0x140, 0x40),
                func("tail", 0x1c0, 0x80),
                func("twin", 0x1c0, 0x80),
                func("empty", 0x300, 0),
                func("after_empty", 0x300, 0x10),
                Symbol { name: "data".into(), addr: 0x320, size: 0x10, kind: SymKind::Data },
                func("late_inner", 0x108, 0x8),
                func("top", u64::MAX - 0x10, 0x10),
            ],
            ..Module::new()
        };
        let table = FuncTable::new(&m);
        let probes = (0xf0..0x340).chain(u64::MAX - 0x20..=u64::MAX);
        for pc in probes {
            let want = m.find_func(pc).map(|s| &s.name);
            assert_eq!(table.find(&m, pc).map(|s| &s.name), want, "at {pc:#x}");
        }
        assert_eq!(table.find(&m, 0x150).unwrap().name, "outer");
        assert_eq!(table.find(&m, 0x210).unwrap().name, "tail");
        assert_eq!(table.find(&m, 0x305).unwrap().name, "after_empty");
        assert_eq!(table.find(&m, 0x325), None, "data symbols are not functions");
        let named_t = table.classify(&m, |s| s.name.starts_with('t'));
        assert_eq!(named_t.get(0x200), Some(true));
        assert_eq!(named_t.get(0x150), Some(false));
        assert_eq!(named_t.get(0x260), None);
    }

    #[test]
    fn line_table_semantics() {
        let m = sample();
        assert_eq!(m.line_for(m.code_base).unwrap().line, 3);
        // Address between rows attributes to the previous row.
        assert_eq!(m.line_for(m.code_base + 16).unwrap().line, 3);
        assert_eq!(m.line_for(m.code_base + 32).unwrap().line, 5);
        assert_eq!(m.line_for(m.code_base - 16), None);
        assert_eq!(m.line_for(m.code_end() + 64), None);
    }

    #[test]
    fn container_roundtrip() {
        let m = sample();
        let bytes = m.to_bytes();
        let back = Module::from_bytes(&bytes).unwrap();
        assert_eq!(m, back);
    }

    #[test]
    fn container_rejects_garbage() {
        assert!(Module::from_bytes(b"").is_err());
        assert!(Module::from_bytes(b"NOPE").is_err());
        let m = sample();
        let bytes = m.to_bytes();
        assert!(Module::from_bytes(&bytes[..bytes.len() - 1]).is_err());
    }
}
