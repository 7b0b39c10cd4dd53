#![warn(missing_docs)]

//! A minimal, integer-only JSON value model shared by the dsnet wire
//! protocol (`dsnet-server`) and the campaign journal (`dsnet-campaign`).
//!
//! crates.io is unreachable, so the codec is hand-rolled. Two deliberate
//! restrictions keep it small and every consumer deterministic:
//!
//! * **Numbers are `i64`.** Every quantity the protocol carries is an
//!   integer (node ids, milli-coordinates, ppm probabilities, counters).
//!   Floating-point literals are rejected as malformed, which sidesteps
//!   float formatting divergence entirely.
//! * **Objects preserve insertion order** (a `Vec` of pairs, not a map),
//!   so rendering is deterministic and round-trips are byte-stable.

use std::fmt::Write as _;

/// A JSON value (integer-only numbers; see module docs).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// An integer number.
    Int(i64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object: ordered key/value pairs.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Object field lookup (first match).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as an integer, if it is one.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Json::Int(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a string slice, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice, if it is one.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Render to compact JSON text.
    pub fn render(&self) -> String {
        let mut out = String::with_capacity(64);
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(n) => {
                let _ = write!(out, "{n}");
            }
            Json::Str(s) => {
                out.push('"');
                write_escaped(out, s);
                out.push('"');
            }
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('"');
                    write_escaped(out, k);
                    out.push_str("\":");
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

/// Append `s` to `out` as the body of a JSON string literal, without the
/// surrounding quotes: `"`, `\` and control characters are escaped,
/// everything else is copied as is.
pub fn write_escaped(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

/// A JSON parse failure: byte offset plus a deterministic message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset of the failure in the input.
    pub at: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} at byte {}", self.message, self.at)
    }
}

/// The deepest array/object nesting [`parse`] accepts. Each level costs
/// the parser one stack frame, so without a limit a single frame of `[`
/// well under the wire's 1 MiB cap would overflow the parsing thread's
/// stack.
pub const MAX_DEPTH: usize = 128;

/// Parse one JSON document (rejects trailing garbage and nesting deeper
/// than [`MAX_DEPTH`]). Runs in time linear in the input.
pub fn parse(input: &str) -> Result<Json, ParseError> {
    let mut p = Parser {
        input,
        bytes: input.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters after document"));
    }
    Ok(v)
}

struct Parser<'a> {
    input: &'a str,
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: impl Into<String>) -> ParseError {
        ParseError {
            at: self.pos,
            message: message.into(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), ParseError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected '{}'", b as char)))
        }
    }

    fn literal(&mut self, word: &str, v: Json) -> Result<Json, ParseError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(self.err(format!("expected '{word}'")))
        }
    }

    fn value(&mut self) -> Result<Json, ParseError> {
        match self.peek() {
            None => Err(self.err("unexpected end of input")),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.nested(Self::array),
            Some(b'{') => self.nested(Self::object),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(c) => Err(self.err(format!("unexpected character '{}'", c as char))),
        }
    }

    /// Parse one array or object one nesting level down, refusing to go
    /// past [`MAX_DEPTH`].
    fn nested(
        &mut self,
        parse: fn(&mut Self) -> Result<Json, ParseError>,
    ) -> Result<Json, ParseError> {
        if self.depth == MAX_DEPTH {
            return Err(self.err(format!("nesting deeper than {MAX_DEPTH} levels")));
        }
        self.depth += 1;
        let v = parse(self);
        self.depth -= 1;
        v
    }

    fn number(&mut self) -> Result<Json, ParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if matches!(self.peek(), Some(b'.' | b'e' | b'E')) {
            return Err(self.err("non-integer numbers are not part of the protocol"));
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("digits are UTF-8");
        text.parse::<i64>()
            .map(Json::Int)
            .map_err(|_| self.err(format!("invalid integer '{text}'")))
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // Copy the run of plain characters up to the next quote or
            // backslash as one slice of the input. Both stop bytes are
            // ASCII, so the run ends on a char boundary; a byte below 0x20
            // is always a whole (control) character in UTF-8.
            let start = self.pos;
            while let Some(b) = self.peek().filter(|&b| b != b'"' && b != b'\\') {
                if b < 0x20 {
                    return Err(self.err("raw control character in string"));
                }
                self.pos += 1;
            }
            out.push_str(&self.input[start..self.pos]);
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(_) => {
                    // A backslash: one escape sequence.
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or_else(|| self.err("truncated \\u escape"))?;
                            let hex = std::str::from_utf8(hex)
                                .map_err(|_| self.err("non-ASCII \\u escape"))?;
                            // Four hex digits exactly: `from_str_radix`
                            // alone would also take a leading `+`.
                            let code = Some(hex)
                                .filter(|h| h.bytes().all(|b| b.is_ascii_hexdigit()))
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| self.err("invalid \\u escape"))?;
                            let c = char::from_u32(code)
                                .ok_or_else(|| self.err("surrogate \\u escape unsupported"))?;
                            out.push(c);
                            self.pos += 4;
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                    self.pos += 1;
                }
            }
        }
    }

    fn array(&mut self) -> Result<Json, ParseError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, ParseError> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            pairs.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(pairs));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }
}

/// Shorthand for building an object.
pub fn obj(pairs: Vec<(&str, Json)>) -> Json {
    Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(v: &Json) {
        let text = v.render();
        assert_eq!(&parse(&text).expect(&text), v, "{text}");
    }

    #[test]
    fn scalars_roundtrip() {
        for v in [
            Json::Null,
            Json::Bool(true),
            Json::Bool(false),
            Json::Int(0),
            Json::Int(-42),
            Json::Int(i64::MAX),
            Json::Int(i64::MIN),
            Json::Str(String::new()),
            Json::Str("hello".into()),
            Json::Str("tab\tquote\"slash\\nl\n".into()),
            Json::Str("unicode: ε δ Δ".into()),
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
    fn object_order_is_preserved() {
        let v = obj(vec![("z", Json::Int(1)), ("a", Json::Int(2))]);
        assert_eq!(v.render(), "{\"z\":1,\"a\":2}");
    }

    #[test]
    fn escape_json_handles_specials() {
        let escaped = |s: &str| {
            let mut out = String::new();
            write_escaped(&mut out, s);
            out
        };
        assert_eq!(escaped("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(escaped("\u{1}"), "\\u0001");
    }

    #[test]
    fn whitespace_and_escapes_parse() {
        let v = parse(" { \"k\" : [ 1 , -2 ] , \"s\" : \"a\\u0041\\n\" } ").unwrap();
        assert_eq!(v.get("k").unwrap().as_arr().unwrap()[1], Json::Int(-2));
        assert_eq!(v.get("s").unwrap().as_str().unwrap(), "aA\n");
    }

    #[test]
    fn malformed_documents_are_rejected() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\":}",
            "nul",
            "1.5",
            "1e3",
            "\"unterminated",
            "{\"a\":1} trailing",
            "{\"a\" 1}",
            "[1 2]",
            "\"bad\\q\"",
            "\"\\ud800\"",
            "\"\\u+041\"",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn nesting_is_capped_at_max_depth() {
        let nest = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
        assert!(parse(&nest(MAX_DEPTH)).is_ok());
        let err = parse(&nest(MAX_DEPTH + 1)).unwrap_err();
        assert_eq!(err.at, MAX_DEPTH, "refused at the first level too deep");
        assert_eq!(err.message, "nesting deeper than 128 levels");
        // Objects count too, and half a MiB of openers is refused at the
        // cap instead of recursing through it.
        let objects = format!(
            "{}1{}",
            "{\"a\":".repeat(MAX_DEPTH + 1),
            "}".repeat(MAX_DEPTH + 1)
        );
        assert_eq!(parse(&objects).unwrap_err().at, 5 * MAX_DEPTH);
        assert_eq!(parse(&"[".repeat(500_000)).unwrap_err().at, MAX_DEPTH);
    }

    #[test]
    fn control_characters_are_refused_where_they_stand() {
        let err = parse("\"ab\u{1}c\"").unwrap_err();
        assert_eq!(
            (err.at, err.message.as_str()),
            (3, "raw control character in string")
        );
        let err = parse("\"ε\n\"").unwrap_err();
        assert_eq!(err.at, 3, "offsets count bytes, not characters");
        assert_eq!(parse("\"ab").unwrap_err().at, 3);
        assert_eq!(parse("\"δ\\\\x\"").unwrap(), Json::Str("δ\\x".into()));
    }

    /// One string the size of the wire's frame cap (1 MiB) decodes in
    /// linear time: a per-character rescan of the rest of the input took
    /// tens of seconds on this size.
    #[test]
    fn frame_cap_sized_string_decodes_quickly() {
        let body = "abcdefghijklmnoΔ".repeat((1 << 20) / 17);
        let text = format!("{{\"s\":\"{body}\\n\"}}");
        let t = std::time::Instant::now();
        let v = parse(&text).unwrap();
        let elapsed = t.elapsed();
        assert_eq!(v.get("s").unwrap().as_str().unwrap().len(), body.len() + 1);
        assert!(elapsed.as_secs_f64() < 2.0, "took {elapsed:?}");
    }

    #[test]
    fn accessors() {
        let v = obj(vec![("n", Json::Int(3)), ("s", Json::Str("x".into()))]);
        assert_eq!(v.get("n").unwrap().as_i64(), Some(3));
        assert_eq!(v.get("s").unwrap().as_str(), Some("x"));
        assert_eq!(v.get("missing"), None);
        assert_eq!(Json::Int(1).as_str(), None);
        assert_eq!(Json::Null.get("x"), None);
    }
}
