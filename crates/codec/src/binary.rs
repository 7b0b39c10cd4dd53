//! A compact tagged binary encoding of the [`Json`] value model, used by
//! dsnet-server's negotiated binary frame format.
//!
//! Layout (all integers big-endian, matching the wire frame header):
//!
//! | tag | value | payload                                   |
//! |-----|-------|-------------------------------------------|
//! | 0   | null  | —                                         |
//! | 1   | false | —                                         |
//! | 2   | true  | —                                         |
//! | 3   | int   | 8-byte two's-complement i64               |
//! | 4   | str   | u32 byte length + UTF-8 bytes             |
//! | 5   | arr   | u32 element count + encoded elements      |
//! | 6   | obj   | u32 pair count + (str key, value) pairs   |
//!
//! Like the JSON side, decoding is strict: unknown tags, invalid
//! UTF-8, lengths running past the buffer, trailing bytes, and
//! nesting deeper than [`MAX_DEPTH`] are all rejected with a byte
//! offset. Encoding is canonical (one byte string per value), so
//! encode∘decode is the identity on bytes as well as values.

use crate::Json;

/// Nesting limit for decode — matches no real protocol message and
/// keeps hostile input from recursing the stack away.
pub const MAX_DEPTH: usize = 128;

const TAG_NULL: u8 = 0;
const TAG_FALSE: u8 = 1;
const TAG_TRUE: u8 = 2;
const TAG_INT: u8 = 3;
const TAG_STR: u8 = 4;
const TAG_ARR: u8 = 5;
const TAG_OBJ: u8 = 6;

/// A binary decode failure: byte offset plus a deterministic message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BinError {
    /// Byte offset of the failure in the input.
    pub at: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for BinError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} at byte {}", self.message, self.at)
    }
}

impl std::error::Error for BinError {}

/// Encode a value to its canonical binary form.
pub fn to_bytes(value: &Json) -> Vec<u8> {
    let mut out = Vec::with_capacity(64);
    encode(value, &mut out);
    out
}

fn encode(value: &Json, out: &mut Vec<u8>) {
    match value {
        Json::Null => out.push(TAG_NULL),
        Json::Bool(false) => out.push(TAG_FALSE),
        Json::Bool(true) => out.push(TAG_TRUE),
        Json::Int(n) => {
            out.push(TAG_INT);
            out.extend_from_slice(&n.to_be_bytes());
        }
        Json::Str(s) => {
            out.push(TAG_STR);
            encode_str(s, out);
        }
        Json::Arr(items) => {
            out.push(TAG_ARR);
            out.extend_from_slice(&(items.len() as u32).to_be_bytes());
            for item in items {
                encode(item, out);
            }
        }
        Json::Obj(pairs) => {
            out.push(TAG_OBJ);
            out.extend_from_slice(&(pairs.len() as u32).to_be_bytes());
            for (k, v) in pairs {
                encode_str(k, out);
                encode(v, out);
            }
        }
    }
}

fn encode_str(s: &str, out: &mut Vec<u8>) {
    out.extend_from_slice(&(s.len() as u32).to_be_bytes());
    out.extend_from_slice(s.as_bytes());
}

/// Decode one value; rejects trailing bytes.
pub fn from_bytes(bytes: &[u8]) -> Result<Json, BinError> {
    let mut d = Decoder { bytes, pos: 0 };
    let v = d.value(0)?;
    if d.pos != bytes.len() {
        return Err(d.err("trailing bytes after value"));
    }
    Ok(v)
}

struct Decoder<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Decoder<'a> {
    fn err(&self, message: impl Into<String>) -> BinError {
        BinError {
            at: self.pos,
            message: message.into(),
        }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], BinError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.bytes.len())
            .ok_or_else(|| self.err(format!("truncated: {n} bytes needed")))?;
        let slice = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    fn u32(&mut self) -> Result<u32, BinError> {
        let b = self.take(4)?;
        Ok(u32::from_be_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn string(&mut self) -> Result<String, BinError> {
        let len = self.u32()? as usize;
        let at = self.pos;
        let raw = self.take(len)?;
        std::str::from_utf8(raw)
            .map(str::to_owned)
            .map_err(|_| BinError {
                at,
                message: "invalid UTF-8 in string".into(),
            })
    }

    fn value(&mut self, depth: usize) -> Result<Json, BinError> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        let tag = self.take(1)?[0];
        match tag {
            TAG_NULL => Ok(Json::Null),
            TAG_FALSE => Ok(Json::Bool(false)),
            TAG_TRUE => Ok(Json::Bool(true)),
            TAG_INT => {
                let b = self.take(8)?;
                Ok(Json::Int(i64::from_be_bytes([
                    b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
                ])))
            }
            TAG_STR => Ok(Json::Str(self.string()?)),
            TAG_ARR => {
                let count = self.u32()? as usize;
                // Cheapest element is 1 byte: a count past the
                // remaining bytes is a lie — reject before allocating.
                if count > self.bytes.len() - self.pos {
                    return Err(self.err(format!("array count {count} exceeds input")));
                }
                let mut items = Vec::with_capacity(count);
                for _ in 0..count {
                    items.push(self.value(depth + 1)?);
                }
                Ok(Json::Arr(items))
            }
            TAG_OBJ => {
                let count = self.u32()? as usize;
                // Cheapest pair is 5 bytes (empty key + null value).
                if count > (self.bytes.len() - self.pos) / 5 {
                    return Err(self.err(format!("object count {count} exceeds input")));
                }
                let mut pairs = Vec::with_capacity(count);
                for _ in 0..count {
                    let k = self.string()?;
                    let v = self.value(depth + 1)?;
                    pairs.push((k, v));
                }
                Ok(Json::Obj(pairs))
            }
            other => Err(BinError {
                at: self.pos - 1,
                message: format!("unknown tag {other}"),
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::obj;

    fn roundtrip(v: &Json) {
        let bytes = to_bytes(v);
        assert_eq!(&from_bytes(&bytes).expect("decode"), v);
        // Canonical: re-encoding the decoded value is byte-identical.
        assert_eq!(to_bytes(&from_bytes(&bytes).unwrap()), bytes);
    }

    #[test]
    fn scalars_roundtrip() {
        for v in [
            Json::Null,
            Json::Bool(true),
            Json::Bool(false),
            Json::Int(0),
            Json::Int(-1),
            Json::Int(i64::MAX),
            Json::Int(i64::MIN),
            Json::Str(String::new()),
            Json::Str("hello".into()),
            Json::Str("unicode: ε δ Δ \n\t\"\\".into()),
        ] {
            roundtrip(&v);
        }
    }

    #[test]
    fn composites_roundtrip() {
        roundtrip(&Json::Arr(vec![]));
        roundtrip(&Json::Arr(vec![
            Json::Int(1),
            Json::Str("x".into()),
            Json::Null,
        ]));
        roundtrip(&obj(vec![]));
        roundtrip(&obj(vec![
            ("a", Json::Int(1)),
            ("b", Json::Arr(vec![Json::Bool(false)])),
            ("c", obj(vec![("nested", Json::Str("y".into()))])),
        ]));
    }

    #[test]
    fn object_order_survives() {
        let v = obj(vec![("z", Json::Int(1)), ("a", Json::Int(2))]);
        let back = from_bytes(&to_bytes(&v)).unwrap();
        assert_eq!(back, v);
    }

    #[test]
    fn every_truncation_is_rejected() {
        let v = obj(vec![
            ("id", Json::Int(7)),
            ("op", Json::Str("cmd".into())),
            ("args", Json::Arr(vec![Json::Int(1), Json::Null])),
        ]);
        let bytes = to_bytes(&v);
        for cut in 0..bytes.len() {
            assert!(from_bytes(&bytes[..cut]).is_err(), "prefix of {cut} bytes");
        }
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut bytes = to_bytes(&Json::Int(1));
        bytes.push(0);
        assert!(from_bytes(&bytes).is_err());
    }

    #[test]
    fn unknown_tags_are_rejected() {
        for tag in 7u8..=255 {
            assert!(from_bytes(&[tag]).is_err(), "tag {tag}");
        }
    }

    #[test]
    fn lying_counts_do_not_allocate() {
        // Array claiming u32::MAX elements in a 9-byte buffer.
        let mut bytes = vec![5u8];
        bytes.extend_from_slice(&u32::MAX.to_be_bytes());
        bytes.extend_from_slice(&[0, 0, 0, 0]);
        assert!(from_bytes(&bytes).is_err());
        // Same for objects and strings.
        let mut bytes = vec![6u8];
        bytes.extend_from_slice(&u32::MAX.to_be_bytes());
        assert!(from_bytes(&bytes).is_err());
        let mut bytes = vec![4u8];
        bytes.extend_from_slice(&u32::MAX.to_be_bytes());
        bytes.push(b'x');
        assert!(from_bytes(&bytes).is_err());
    }

    #[test]
    fn depth_guard_trips() {
        // [[[[...]]]] one past MAX_DEPTH.
        let mut bytes = Vec::new();
        for _ in 0..=MAX_DEPTH {
            bytes.push(5u8);
            bytes.extend_from_slice(&1u32.to_be_bytes());
        }
        bytes.push(0u8); // innermost null
        let err = from_bytes(&bytes).unwrap_err();
        assert!(err.message.contains("nesting"), "{err}");
        // Exactly MAX_DEPTH nests fine.
        let mut ok = Vec::new();
        for _ in 0..MAX_DEPTH {
            ok.push(5u8);
            ok.extend_from_slice(&1u32.to_be_bytes());
        }
        ok.push(0u8);
        assert!(from_bytes(&ok).is_ok());
    }

    #[test]
    fn invalid_utf8_in_strings_and_keys_rejected() {
        let mut bytes = vec![4u8];
        bytes.extend_from_slice(&2u32.to_be_bytes());
        bytes.extend_from_slice(&[0xff, 0xfe]);
        assert!(from_bytes(&bytes).is_err());
        let mut bytes = vec![6u8];
        bytes.extend_from_slice(&1u32.to_be_bytes());
        bytes.extend_from_slice(&1u32.to_be_bytes());
        bytes.push(0xff);
        bytes.push(0u8);
        assert!(from_bytes(&bytes).is_err());
    }

    #[test]
    fn encoding_is_canonical_for_strings() {
        // The main draw of the format is decode cost — no escape
        // handling, no digit parsing — so string payloads must come
        // back byte-for-byte without any escaping layer.
        let s = "line1\nline2\t\"quoted\" \\backslash ε";
        let v = Json::Str(s.into());
        let bytes = to_bytes(&v);
        assert_eq!(&bytes[5..], s.as_bytes());
        assert_eq!(from_bytes(&bytes).unwrap(), v);
    }
}
