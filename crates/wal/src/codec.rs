//! Byte codec shared by WAL records and checkpoint segments.
//!
//! Everything is little-endian, length-prefixed, and tag-dispatched — a
//! deliberately boring format. Floats travel as IEEE-754 bit patterns
//! ([`f64::to_bits`]), never as text, because the whole durability plane
//! promises **bit-identical** recovery and a decimal round-trip would
//! quietly break it.
//!
//! Decoding never panics: every read is bounds-checked and every tag
//! validated, returning [`JitsError::Recovery`] on anything malformed.
//! This is what lets recovery treat "CRC valid but undecodable" as typed
//! corruption instead of a crash.

use jits_common::{ColumnDef, DataType, JitsError, Result, Schema, Value, ValueRef};

/// Reflected CRC-32 (IEEE 802.3) polynomial.
const CRC_POLY: u32 = 0xEDB8_8320;

/// Slicing-by-8 tables: `CRC_TABLES[0][b]` is the CRC of byte `b`, and
/// `CRC_TABLES[k][b]` advances it through `k` further zero bytes, so eight
/// input bytes fold into the checksum with eight independent lookups.
static CRC_TABLES: [[u32; 256]; 8] = crc_tables();

const fn crc_tables() -> [[u32; 256]; 8] {
    let mut t = [[0u32; 256]; 8];
    let mut b = 0;
    while b < 256 {
        let mut crc = b as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = (crc >> 1) ^ (CRC_POLY & (crc & 1).wrapping_neg());
            bit += 1;
        }
        t[0][b] = crc;
        b += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut b = 0;
        while b < 256 {
            let prev = t[k - 1][b];
            t[k][b] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            b += 1;
        }
        k += 1;
    }
    t
}

/// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320), table-driven and
/// dependency-free. Every checkpoint checksums its whole payload (tens of
/// megabytes on the benchmark) inside the statement that triggers it, and
/// every bulk-load record its rows.
pub fn crc32(bytes: &[u8]) -> u32 {
    Crc32::new().update(bytes).finish()
}

/// Incremental [`crc32`]: `update` over consecutive pieces, then `finish`,
/// equals `crc32` of their concatenation — so a frame's `lsn ∥ payload`
/// is checksummed without first being copied into one buffer.
#[derive(Debug, Clone, Copy)]
pub struct Crc32(u32);

impl Default for Crc32 {
    fn default() -> Self {
        Crc32::new()
    }
}

impl Crc32 {
    /// The checksum of nothing so far.
    pub fn new() -> Self {
        Crc32(0xFFFF_FFFF)
    }

    /// Folds `bytes` in, eight at a time, then the tail byte by byte.
    pub fn update(&mut self, bytes: &[u8]) -> &mut Self {
        let t = &CRC_TABLES;
        let mut crc = self.0;
        let (words, tail) = bytes.as_chunks::<8>();
        for w in words {
            let v = u64::from_le_bytes(*w);
            let lo = v as u32 ^ crc;
            let hi = (v >> 32) as u32;
            crc = t[7][(lo & 0xFF) as usize]
                ^ t[6][((lo >> 8) & 0xFF) as usize]
                ^ t[5][((lo >> 16) & 0xFF) as usize]
                ^ t[4][(lo >> 24) as usize]
                ^ t[3][(hi & 0xFF) as usize]
                ^ t[2][((hi >> 8) & 0xFF) as usize]
                ^ t[1][((hi >> 16) & 0xFF) as usize]
                ^ t[0][(hi >> 24) as usize];
        }
        for &b in tail {
            crc = (crc >> 8) ^ t[0][((crc ^ b as u32) & 0xFF) as usize];
        }
        self.0 = crc;
        self
    }

    /// The CRC-32 of everything folded in so far.
    pub fn finish(&self) -> u32 {
        !self.0
    }
}

/// Append-only byte sink for encoding. The primitives are `#[inline]`:
/// the engine's checkpoint encoder calls them once per table cell, from
/// another crate.
#[derive(Debug, Default)]
pub struct Encoder {
    buf: Vec<u8>,
}

impl Encoder {
    /// An empty encoder.
    pub fn new() -> Self {
        Encoder::default()
    }

    /// Consumes the encoder, yielding the encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes encoded so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True if nothing has been encoded.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// One raw byte.
    #[inline]
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Little-endian u32.
    #[inline]
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Little-endian u64.
    #[inline]
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// IEEE-754 bit pattern (exact, including NaN payloads and -0.0).
    #[inline]
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Boolean as one byte (0/1).
    #[inline]
    pub fn put_bool(&mut self, v: bool) {
        self.put_u8(v as u8);
    }

    /// Length-prefixed UTF-8 string.
    #[inline]
    pub fn put_str(&mut self, s: &str) {
        self.put_u32(s.len() as u32);
        self.buf.extend_from_slice(s.as_bytes());
    }

    /// Length-prefixed raw bytes.
    pub fn put_bytes(&mut self, b: &[u8]) {
        self.put_u32(b.len() as u32);
        self.buf.extend_from_slice(b);
    }

    /// Tagged [`Value`]: 0 NULL, 1 Int, 2 Float (bits), 3 Str.
    #[inline]
    pub fn put_value(&mut self, v: &Value) {
        self.put_value_ref(v.into());
    }

    /// A borrowed value, in [`Encoder::put_value`]'s layout: a cell read
    /// in place encodes without becoming a [`Value`] first.
    #[inline]
    pub fn put_value_ref(&mut self, v: ValueRef<'_>) {
        match v {
            ValueRef::Null => self.put_u8(0),
            ValueRef::Int(i) => {
                self.put_u8(1);
                self.put_u64(i as u64);
            }
            ValueRef::Float(f) => {
                self.put_u8(2);
                self.put_f64(f);
            }
            ValueRef::Str(s) => {
                self.put_u8(3);
                self.put_str(s);
            }
        }
    }

    /// Tagged [`DataType`]: 0 Int, 1 Float, 2 Str.
    pub fn put_dtype(&mut self, t: DataType) {
        self.put_u8(match t {
            DataType::Int => 0,
            DataType::Float => 1,
            DataType::Str => 2,
        });
    }

    /// A [`Schema`] as a column-count-prefixed list of (name, type).
    pub fn put_schema(&mut self, s: &Schema) {
        self.put_u32(s.len() as u32);
        for c in s.columns() {
            self.put_str(&c.name);
            self.put_dtype(c.dtype);
        }
    }
}

/// Bounds-checked reader over an encoded byte slice.
#[derive(Debug)]
pub struct Decoder<'a> {
    buf: &'a [u8],
    pos: usize,
}

fn truncated(what: &str) -> JitsError {
    JitsError::Recovery(format!("decode: truncated {what}"))
}

/// The `N` bytes of `b` at `at`, as the array `from_le_bytes` takes; a
/// typed error when `b` ends first. The crate's one fixed-width read.
pub(crate) fn array_at<const N: usize>(b: &[u8], at: usize, what: &str) -> Result<[u8; N]> {
    b.get(at..)
        .and_then(<[u8]>::first_chunk)
        .copied()
        .ok_or_else(|| truncated(what))
}

impl<'a> Decoder<'a> {
    /// A decoder over `buf`, starting at offset 0.
    pub fn new(buf: &'a [u8]) -> Self {
        Decoder { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Errors unless every byte was consumed — a CRC-valid payload with
    /// trailing garbage is corruption, not a successful decode.
    pub fn finish(&self) -> Result<()> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(JitsError::Recovery(format!(
                "decode: {} trailing bytes after payload",
                self.remaining()
            )))
        }
    }

    fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8]> {
        if self.remaining() < n {
            return Err(truncated(what));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// One raw byte.
    pub fn u8(&mut self) -> Result<u8> {
        Ok(self.take(1, "u8")?[0])
    }

    fn array<const N: usize>(&mut self, what: &str) -> Result<[u8; N]> {
        let a = array_at(self.buf, self.pos, what)?;
        self.pos += N;
        Ok(a)
    }

    /// Little-endian u32.
    pub fn u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(self.array("u32")?))
    }

    /// Little-endian u64.
    pub fn u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(self.array("u64")?))
    }

    /// IEEE-754 bit pattern.
    pub fn f64(&mut self) -> Result<f64> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Boolean (strict: only 0 and 1 decode).
    pub fn bool(&mut self) -> Result<bool> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(JitsError::Recovery(format!(
                "decode: bad bool byte {other}"
            ))),
        }
    }

    /// Length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<String> {
        let n = self.u32()? as usize;
        let b = self.take(n, "string")?;
        String::from_utf8(b.to_vec())
            .map_err(|_| JitsError::Recovery("decode: invalid UTF-8 in string".into()))
    }

    /// Length-prefixed raw bytes.
    pub fn bytes(&mut self) -> Result<Vec<u8>> {
        let n = self.u32()? as usize;
        Ok(self.take(n, "bytes")?.to_vec())
    }

    /// Tagged [`Value`].
    pub fn value(&mut self) -> Result<Value> {
        match self.u8()? {
            0 => Ok(Value::Null),
            1 => Ok(Value::Int(self.u64()? as i64)),
            2 => Ok(Value::Float(self.f64()?)),
            3 => Ok(Value::Str(self.str()?.into())),
            t => Err(JitsError::Recovery(format!("decode: bad value tag {t}"))),
        }
    }

    /// Tagged [`DataType`].
    pub fn dtype(&mut self) -> Result<DataType> {
        match self.u8()? {
            0 => Ok(DataType::Int),
            1 => Ok(DataType::Float),
            2 => Ok(DataType::Str),
            t => Err(JitsError::Recovery(format!("decode: bad dtype tag {t}"))),
        }
    }

    /// A [`Schema`].
    pub fn schema(&mut self) -> Result<Schema> {
        let n = self.u32()? as usize;
        let mut cols = Vec::with_capacity(n.min(1024));
        for _ in 0..n {
            let name = self.str()?;
            let dtype = self.dtype()?;
            cols.push(ColumnDef::new(name, dtype));
        }
        Schema::new(cols).map_err(|e| JitsError::Recovery(format!("decode: bad schema: {e}")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The bit-at-a-time CRC-32 the table-driven one replaced: the oracle
    /// every input must agree with, so checksums on disk never change.
    fn crc32_bitwise(bytes: &[u8]) -> u32 {
        let mut crc = 0xFFFF_FFFFu32;
        for &b in bytes {
            crc ^= b as u32;
            for _ in 0..8 {
                let mask = (crc & 1).wrapping_neg();
                crc = (crc >> 1) ^ (CRC_POLY & mask);
            }
        }
        !crc
    }

    /// `len` pseudo-random bytes from `seed`.
    fn noise(seed: u64, len: usize) -> Vec<u8> {
        let mut rng = jits_common::SplitMix64::new(seed);
        (0..len).map(|_| rng.next_u64() as u8).collect()
    }

    #[test]
    fn crc32_known_vectors() {
        // standard check value for "123456789"
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_ne!(crc32(b"a"), crc32(b"b"));
        for v in [&b"123456789"[..], b"", b"a", b"The quick brown fox"] {
            assert_eq!(crc32(v), crc32_bitwise(v));
        }
    }

    #[test]
    fn crc32_matches_bitwise_on_one_mib() {
        let bytes = noise(7, 1 << 20);
        let want = crc32_bitwise(&bytes);
        assert_eq!(crc32(&bytes), want);
        let (a, b) = bytes.split_at(12_345);
        assert_eq!(Crc32::new().update(a).update(b).finish(), want);
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(256))]

        /// On a random buffer of 0–4 KiB, read from each start offset mod 8
        /// (so the eight-byte words fall at every alignment), one-shot,
        /// incremental at a random split, and the bitwise oracle agree.
        #[test]
        fn crc32_agrees_with_bitwise_oracle(
            seed in proptest::prelude::any::<u64>(),
            len in 0usize..4097,
            split in proptest::prelude::any::<usize>(),
        ) {
            let buf = noise(seed, len + 8);
            for offset in 0..8 {
                let bytes = &buf[offset..offset + len];
                let want = crc32_bitwise(bytes);
                proptest::prop_assert_eq!(crc32(bytes), want);
                let (a, b) = bytes.split_at(split % (len + 1));
                proptest::prop_assert_eq!(Crc32::new().update(a).update(b).finish(), want);
            }
        }
    }

    #[test]
    fn scalar_roundtrip() {
        let mut e = Encoder::new();
        e.put_u8(7);
        e.put_u32(0xDEAD_BEEF);
        e.put_u64(u64::MAX);
        e.put_f64(-0.0);
        e.put_bool(true);
        e.put_str("héllo");
        e.put_bytes(&[1, 2, 3]);
        let bytes = e.into_bytes();
        let mut d = Decoder::new(&bytes);
        assert_eq!(d.u8().unwrap(), 7);
        assert_eq!(d.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(d.u64().unwrap(), u64::MAX);
        assert_eq!(d.f64().unwrap().to_bits(), (-0.0f64).to_bits());
        assert!(d.bool().unwrap());
        assert_eq!(d.str().unwrap(), "héllo");
        assert_eq!(d.bytes().unwrap(), vec![1, 2, 3]);
        d.finish().unwrap();
    }

    #[test]
    fn value_and_schema_roundtrip() {
        let vals = [
            Value::Null,
            Value::Int(-5),
            Value::Float(f64::NAN),
            Value::str("x"),
        ];
        let schema = Schema::from_pairs(&[("id", DataType::Int), ("name", DataType::Str)]);
        let mut e = Encoder::new();
        for v in &vals {
            e.put_value(v);
        }
        e.put_schema(&schema);
        let bytes = e.into_bytes();
        let mut d = Decoder::new(&bytes);
        for v in &vals {
            let got = d.value().unwrap();
            // NaN != NaN, so compare bit patterns for floats
            match (v, &got) {
                (Value::Float(a), Value::Float(b)) => assert_eq!(a.to_bits(), b.to_bits()),
                _ => assert_eq!(*v, got),
            }
        }
        assert_eq!(d.schema().unwrap(), schema);
        d.finish().unwrap();
    }

    #[test]
    fn truncation_and_bad_tags_are_typed_errors() {
        let mut d = Decoder::new(&[1, 2]);
        assert!(matches!(d.u32(), Err(JitsError::Recovery(_))));
        let mut d = Decoder::new(&[9]);
        assert!(matches!(d.value(), Err(JitsError::Recovery(_))));
        let mut d = Decoder::new(&[2]);
        assert!(matches!(d.bool(), Err(JitsError::Recovery(_))));
        // a string whose length prefix overruns the buffer
        let mut e = Encoder::new();
        e.put_u32(100);
        let bytes = e.into_bytes();
        let mut d = Decoder::new(&bytes);
        assert!(matches!(d.str(), Err(JitsError::Recovery(_))));
        // trailing bytes fail finish()
        let mut d = Decoder::new(&[0, 0]);
        d.u8().unwrap();
        assert!(matches!(d.finish(), Err(JitsError::Recovery(_))));
    }
}
