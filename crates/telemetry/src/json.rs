//! A minimal hand-rolled JSON layer — just enough for [`crate::Snapshot`].
//!
//! The vendored `serde` is a marker shim (this build environment has no
//! registry access), so real serialization lives here: an escaping writer
//! and a total recursive-descent parser. Numbers keep their raw source
//! text so `u64` values round-trip at full precision (an `f64` detour
//! would corrupt counters above 2^53).

use std::fmt;

/// Error from the JSON parser: byte offset and a static description.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset in the input where parsing failed (0 for shape errors).
    pub offset: usize,
    /// What went wrong.
    pub message: &'static str,
}

impl JsonError {
    pub(crate) fn shape(message: &'static str) -> JsonError {
        JsonError { offset: 0, message }
    }
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid JSON at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

/// A parsed JSON value (the subset a snapshot uses; arrays/booleans are
/// parsed for totality but rejected by the shape layer).
#[derive(Clone, Debug, PartialEq)]
pub(crate) enum JsonValue {
    /// Key-value pairs in source order.
    Object(Vec<(String, JsonValue)>),
    Array(Vec<JsonValue>),
    String(String),
    /// Raw number token (validated as a JSON number, not yet narrowed).
    Number(String),
    Bool(bool),
    Null,
}

impl JsonValue {
    pub(crate) fn as_u64(&self) -> Result<u64, JsonError> {
        match self {
            JsonValue::Number(raw) => {
                raw.parse::<u64>().map_err(|_| JsonError::shape("expected a u64"))
            }
            _ => Err(JsonError::shape("expected a number")),
        }
    }

    pub(crate) fn as_f64(&self) -> Result<f64, JsonError> {
        match self {
            JsonValue::Number(raw) => {
                raw.parse::<f64>().map_err(|_| JsonError::shape("expected an f64"))
            }
            _ => Err(JsonError::shape("expected a number")),
        }
    }
}

/// Appends `s` as a quoted, escaped JSON string.
pub(crate) fn write_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Appends a finite `f64` in shortest-roundtrip form (`{:?}` never loses
/// precision); non-finite values become `null`.
pub(crate) fn write_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        out.push_str(&format!("{v:?}"));
    } else {
        out.push_str("null");
    }
}

/// Parses one complete JSON value; trailing non-whitespace is an error.
pub(crate) fn parse(input: &str) -> Result<JsonValue, JsonError> {
    let mut p = Parser { bytes: input.as_bytes(), pos: 0 };
    p.skip_ws();
    let value = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters"));
    }
    Ok(value)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, message: &'static str) -> JsonError {
        JsonError { offset: self.pos, message }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, byte: u8) -> Result<(), JsonError> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err("unexpected character"))
        }
    }

    fn value(&mut self) -> Result<JsonValue, JsonError> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(JsonValue::String(self.string()?)),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a value")),
        }
    }

    fn literal(&mut self, text: &'static str, value: JsonValue) -> Result<JsonValue, JsonError> {
        if self.bytes[self.pos..].starts_with(text.as_bytes()) {
            self.pos += text.len();
            Ok(value)
        } else {
            Err(self.err("invalid literal"))
        }
    }

    fn object(&mut self) -> Result<JsonValue, JsonError> {
        self.expect(b'{')?;
        let mut entries = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Object(entries));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            entries.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Object(entries));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn array(&mut self) -> Result<JsonValue, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Array(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            // Fast path: raw UTF-8 up to the next quote or escape.
            while let Some(b) = self.peek() {
                if b == b'"' || b == b'\\' || b < 0x20 {
                    break;
                }
                self.pos += 1;
            }
            if self.pos > start {
                let chunk = std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| self.err("invalid UTF-8"))?;
                out.push_str(chunk);
            }
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    self.escape(&mut out)?;
                }
                _ => return Err(self.err("unterminated string")),
            }
        }
    }

    fn escape(&mut self, out: &mut String) -> Result<(), JsonError> {
        let Some(b) = self.peek() else { return Err(self.err("unterminated escape")) };
        self.pos += 1;
        match b {
            b'"' => out.push('"'),
            b'\\' => out.push('\\'),
            b'/' => out.push('/'),
            b'b' => out.push('\u{0008}'),
            b'f' => out.push('\u{000c}'),
            b'n' => out.push('\n'),
            b'r' => out.push('\r'),
            b't' => out.push('\t'),
            b'u' => {
                let hi = self.hex4()?;
                let c = if (0xD800..0xDC00).contains(&hi) {
                    // Surrogate pair: require the low half.
                    if self.peek() != Some(b'\\') {
                        return Err(self.err("unpaired surrogate"));
                    }
                    self.pos += 1;
                    if self.peek() != Some(b'u') {
                        return Err(self.err("unpaired surrogate"));
                    }
                    self.pos += 1;
                    let lo = self.hex4()?;
                    if !(0xDC00..0xE000).contains(&lo) {
                        return Err(self.err("invalid low surrogate"));
                    }
                    let code = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                    char::from_u32(code).ok_or_else(|| self.err("invalid code point"))?
                } else {
                    char::from_u32(hi).ok_or_else(|| self.err("invalid code point"))?
                };
                out.push(c);
            }
            _ => return Err(self.err("unknown escape")),
        }
        Ok(())
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let mut code = 0u32;
        for _ in 0..4 {
            let Some(b) = self.peek() else { return Err(self.err("truncated \\u escape")) };
            let digit = match b {
                b'0'..=b'9' => (b - b'0') as u32,
                b'a'..=b'f' => (b - b'a') as u32 + 10,
                b'A'..=b'F' => (b - b'A') as u32 + 10,
                _ => return Err(self.err("invalid hex digit")),
            };
            code = code * 16 + digit;
            self.pos += 1;
        }
        Ok(code)
    }

    fn number(&mut self) -> Result<JsonValue, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let int_digits = self.digits();
        if int_digits == 0 {
            return Err(self.err("expected digits"));
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            if self.digits() == 0 {
                return Err(self.err("expected fraction digits"));
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if self.digits() == 0 {
                return Err(self.err("expected exponent digits"));
            }
        }
        let raw = std::str::from_utf8(&self.bytes[start..self.pos])
            .expect("number tokens are ASCII")
            .to_string();
        Ok(JsonValue::Number(raw))
    }

    fn digits(&mut self) -> usize {
        let start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        self.pos - start
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_nested_structures() {
        let v = parse(r#" {"a": [1, -2.5, 1e3], "b": {"c": "x\n\"y\""}, "d": null} "#).unwrap();
        let JsonValue::Object(top) = v else { panic!("not an object") };
        assert_eq!(top.len(), 3);
        assert_eq!(top[2].1, JsonValue::Null);
    }

    #[test]
    fn number_precision_is_preserved() {
        let v = parse("18446744073709551615").unwrap();
        assert_eq!(v.as_u64().unwrap(), u64::MAX);
        assert!(parse("-1").unwrap().as_u64().is_err());
        assert_eq!(parse("-1.5e-3").unwrap().as_f64().unwrap(), -1.5e-3);
    }

    #[test]
    fn surrogate_pairs_decode() {
        let v = parse(r#""\ud83d\ude00""#).unwrap();
        assert_eq!(v, JsonValue::String("😀".to_string()));
        assert!(parse(r#""\ud83d""#).is_err());
    }

    #[test]
    fn writer_escapes_and_parser_inverts() {
        for s in ["plain", "with \"quotes\"", "back\\slash", "ctrl\u{1}\n\t", "uni ✓ 😀"] {
            let mut out = String::new();
            write_string(&mut out, s);
            assert_eq!(parse(&out).unwrap(), JsonValue::String(s.to_string()));
        }
    }

    #[test]
    fn f64_writer_roundtrips_exactly() {
        for v in [0.0, -0.0, 1.0, 0.1, 1e300, 5e-324, -1.5e-9, f64::MAX, f64::MIN_POSITIVE] {
            let mut out = String::new();
            write_f64(&mut out, v);
            let back = parse(&out).unwrap().as_f64().unwrap();
            assert_eq!(back.to_bits(), v.to_bits(), "value {v:?} via {out:?}");
        }
        let mut out = String::new();
        write_f64(&mut out, f64::NAN);
        assert_eq!(out, "null");
    }

    #[test]
    fn garbage_is_rejected_not_panicked() {
        for bad in ["", "{", "}", "[1,", "\"", "\"\\q\"", "01x", "1.", "1e", "tru", "{\"a\" 1}"] {
            assert!(parse(bad).is_err(), "accepted {bad:?}");
        }
    }
}
