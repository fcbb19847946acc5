//! Minimal hand-rolled binary (de)serialization primitives.
//!
//! The workspace's `serde` is a no-op shim (offline build), so every
//! on-disk format is written by hand against these two types: [`Enc`]
//! appends little-endian fields to a growable buffer, [`Dec`] reads them
//! back with bounds checks on every access. Decoding is *total*: any
//! input — truncated, bit-flipped, or adversarial — produces either a
//! value or a [`WireError`], never a panic and never an unbounded
//! allocation (sequence counts are validated against the bytes that
//! remain before any `Vec` is reserved).

/// A decode failure: what field was being read when the input ran out
/// or contained an invalid tag.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WireError {
    /// Static description of the offending field.
    pub what: &'static str,
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "malformed wire data: {}", self.what)
    }
}

impl std::error::Error for WireError {}

/// Convenience alias for decode results.
pub type WireResult<T> = Result<T, WireError>;

/// Little-endian append-only encoder.
#[derive(Default)]
pub struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    /// Fresh empty buffer.
    pub fn new() -> Enc {
        Enc { buf: Vec::new() }
    }

    /// Consume the encoder, yielding the bytes written so far.
    pub fn into_inner(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    pub fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn bool(&mut self, v: bool) {
        self.buf.push(v as u8);
    }

    /// Raw bytes, no length prefix (caller writes its own).
    pub fn raw(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// A `u32` element count for a sequence about to be written.
    pub fn seq(&mut self, n: usize) {
        self.u32(n as u32);
    }

    /// Length-prefixed UTF-8 string.
    pub fn str(&mut self, s: &str) {
        self.seq(s.len());
        self.raw(s.as_bytes());
    }
}

/// Bounds-checked little-endian reader over a borrowed byte slice.
pub struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    /// Read from the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Dec<'a> {
        Dec { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// True when every byte has been consumed.
    pub fn is_empty(&self) -> bool {
        self.remaining() == 0
    }

    fn take(&mut self, n: usize, what: &'static str) -> WireResult<&'a [u8]> {
        if self.remaining() < n {
            return Err(WireError { what });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    pub fn u8(&mut self, what: &'static str) -> WireResult<u8> {
        Ok(self.take(1, what)?[0])
    }

    pub fn u16(&mut self, what: &'static str) -> WireResult<u16> {
        let b = self.take(2, what)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    pub fn u32(&mut self, what: &'static str) -> WireResult<u32> {
        let b = self.take(4, what)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    pub fn u64(&mut self, what: &'static str) -> WireResult<u64> {
        let b = self.take(8, what)?;
        Ok(u64::from_le_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]]))
    }

    pub fn bool(&mut self, what: &'static str) -> WireResult<bool> {
        match self.u8(what)? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(WireError { what }),
        }
    }

    /// A sequence count written by [`Enc::seq`], validated against the
    /// bytes remaining: each element needs at least `min_elem` bytes, so
    /// a corrupted count can never trigger a huge allocation.
    pub fn seq(&mut self, min_elem: usize, what: &'static str) -> WireResult<usize> {
        let n = self.u32(what)? as usize;
        if n.saturating_mul(min_elem.max(1)) > self.remaining() {
            return Err(WireError { what });
        }
        Ok(n)
    }

    /// Length-prefixed UTF-8 string written by [`Enc::str`].
    pub fn str(&mut self, what: &'static str) -> WireResult<String> {
        let n = self.seq(1, what)?;
        let bytes = self.take(n, what)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| WireError { what })
    }
}

/// FNV-1a over a byte slice — the per-record checksum of every on-disk
/// format in the workspace. 32-bit: cheap, and corruption detection
/// (not cryptography) is the goal.
pub fn checksum(bytes: &[u8]) -> u32 {
    let mut h: u32 = 0x811c_9dc5;
    for &b in bytes {
        h = (h ^ b as u32).wrapping_mul(0x0100_0193);
    }
    h
}

/// FNV-1a (64-bit) folded over a byte slice, seeded by `seed` — used to
/// build content hashes and config fingerprints incrementally.
pub fn fold64(seed: u64, bytes: &[u8]) -> u64 {
    let mut h = if seed == 0 { 0xcbf2_9ce4_8422_2325 } else { seed };
    for &b in bytes {
        h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_all_primitives() {
        let mut e = Enc::new();
        e.u8(0xab);
        e.u16(0xbeef);
        e.u32(0xdead_beef);
        e.u64(0x0123_4567_89ab_cdef);
        e.bool(true);
        e.str("hello");
        let buf = e.into_inner();
        let mut d = Dec::new(&buf);
        assert_eq!(d.u8("a").unwrap(), 0xab);
        assert_eq!(d.u16("a2").unwrap(), 0xbeef);
        assert_eq!(d.u32("b").unwrap(), 0xdead_beef);
        assert_eq!(d.u64("c").unwrap(), 0x0123_4567_89ab_cdef);
        assert!(d.bool("d").unwrap());
        assert_eq!(d.str("e").unwrap(), "hello");
        assert!(d.is_empty());
    }

    #[test]
    fn truncation_errors_instead_of_panicking() {
        let mut e = Enc::new();
        e.u64(42);
        let buf = e.into_inner();
        for cut in 0..buf.len() {
            let mut d = Dec::new(&buf[..cut]);
            assert!(d.u64("x").is_err(), "cut at {cut} must fail");
        }
    }

    #[test]
    fn absurd_sequence_counts_are_rejected() {
        let mut e = Enc::new();
        e.u32(u32::MAX); // claims 4 billion elements
        let buf = e.into_inner();
        let mut d = Dec::new(&buf);
        assert!(d.seq(8, "seq").is_err());
    }

    #[test]
    fn bad_bool_is_rejected() {
        let mut d = Dec::new(&[7]);
        assert!(d.bool("b").is_err());
    }
}
