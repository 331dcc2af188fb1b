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

use jits_common::{ColumnDef, DataType, JitsError, Result, Schema, Value};

/// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320), bitwise and
/// dependency-free. Torn-write detection only needs a well-mixed checksum,
/// not speed: records are small and appends are fsync-bound anyway.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for &b in bytes {
        crc ^= b as u32;
        for _ in 0..8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
        }
    }
    !crc
}

/// Append-only byte sink for encoding.
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
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Little-endian u32.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Little-endian u64.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// IEEE-754 bit pattern (exact, including NaN payloads and -0.0).
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Boolean as one byte (0/1).
    pub fn put_bool(&mut self, v: bool) {
        self.put_u8(v as u8);
    }

    /// Length-prefixed UTF-8 string.
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
    pub fn put_value(&mut self, v: &Value) {
        match v {
            Value::Null => self.put_u8(0),
            Value::Int(i) => {
                self.put_u8(1);
                self.put_u64(*i as u64);
            }
            Value::Float(f) => {
                self.put_u8(2);
                self.put_f64(*f);
            }
            Value::Str(s) => {
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

    /// Little-endian u32.
    pub fn u32(&mut self) -> Result<u32> {
        let b = self.take(4, "u32")?;
        Ok(u32::from_le_bytes(b.try_into().expect("4 bytes")))
    }

    /// Little-endian u64.
    pub fn u64(&mut self) -> Result<u64> {
        let b = self.take(8, "u64")?;
        Ok(u64::from_le_bytes(b.try_into().expect("8 bytes")))
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

    #[test]
    fn crc32_known_vectors() {
        // standard check value for "123456789"
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_ne!(crc32(b"a"), crc32(b"b"));
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
