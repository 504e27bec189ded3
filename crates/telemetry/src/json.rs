//! A minimal hand-rolled JSON value, writer, and parser.
//!
//! The workspace is dependency-free by policy (the build environment is
//! offline), so machine-readable bench output and registry snapshots
//! use this module instead of serde. It supports exactly the JSON the
//! workspace emits: objects with ordered keys, arrays, finite numbers,
//! strings, booleans, and null.

use std::fmt;

/// A JSON value. Object keys keep insertion order so emitted reports
/// are stable across runs.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A finite number (non-finite values serialize as `null`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object with insertion-ordered keys.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Builds an empty object.
    pub fn obj() -> Json {
        Json::Obj(Vec::new())
    }

    /// Inserts (or replaces) a key in an object, returning `self` for
    /// chaining.
    ///
    /// # Panics
    ///
    /// Panics if `self` is not an object.
    pub fn set(mut self, key: impl Into<String>, value: impl Into<Json>) -> Json {
        let Json::Obj(entries) = &mut self else {
            panic!("Json::set on a non-object");
        };
        let key = key.into();
        let value = value.into();
        if let Some(slot) = entries.iter_mut().find(|(k, _)| *k == key) {
            slot.1 = value;
        } else {
            entries.push((key, value));
        }
        self
    }

    /// Looks up a key in an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(entries) => entries.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(v) => Some(*v),
            _ => None,
        }
    }

    /// The numeric value rounded to u64, if this is a non-negative number.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(v) if *v >= 0.0 => Some(v.round() as u64),
            _ => None,
        }
    }

    /// The string value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Parses a JSON document.
    ///
    /// # Errors
    ///
    /// Returns [`JsonError`] describing the first offending byte offset.
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let value = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.error("trailing characters"));
        }
        Ok(value)
    }
}

macro_rules! impl_from_num {
    ($($t:ty),*) => {$(
        impl From<$t> for Json {
            fn from(v: $t) -> Json {
                Json::Num(v as f64)
            }
        }
    )*};
}
impl_from_num!(f64, f32, u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl From<bool> for Json {
    fn from(v: bool) -> Json {
        Json::Bool(v)
    }
}

impl From<&str> for Json {
    fn from(v: &str) -> Json {
        Json::Str(v.to_string())
    }
}

impl From<String> for Json {
    fn from(v: String) -> Json {
        Json::Str(v)
    }
}

impl<T: Into<Json>> From<Vec<T>> for Json {
    fn from(v: Vec<T>) -> Json {
        Json::Arr(v.into_iter().map(Into::into).collect())
    }
}

fn write_escaped(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    f.write_str("\"")?;
    for c in s.chars() {
        match c {
            '"' => f.write_str("\\\"")?,
            '\\' => f.write_str("\\\\")?,
            '\n' => f.write_str("\\n")?,
            '\r' => f.write_str("\\r")?,
            '\t' => f.write_str("\\t")?,
            c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
            c => write!(f, "{c}")?,
        }
    }
    f.write_str("\"")
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => f.write_str("null"),
            Json::Bool(v) => write!(f, "{v}"),
            Json::Num(v) if !v.is_finite() => f.write_str("null"),
            Json::Num(v) if v.fract() == 0.0 && v.abs() < 9.0e15 => {
                write!(f, "{}", *v as i64)
            }
            Json::Num(v) => write!(f, "{v}"),
            Json::Str(s) => write_escaped(f, s),
            Json::Arr(items) => {
                f.write_str("[")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "{item}")?;
                }
                f.write_str("]")
            }
            Json::Obj(entries) => {
                f.write_str("{")?;
                for (i, (key, value)) in entries.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write_escaped(f, key)?;
                    f.write_str(":")?;
                    write!(f, "{value}")?;
                }
                f.write_str("}")
            }
        }
    }
}

/// A parse failure at a byte offset.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset of the failure.
    pub offset: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn error(&self, message: &str) -> JsonError {
        JsonError {
            offset: self.pos,
            message: message.to_string(),
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

    fn eat(&mut self, expected: u8) -> Result<(), JsonError> {
        if self.peek() == Some(expected) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(&format!("expected `{}`", expected as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.error(&format!("expected `{word}`")))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(self.error("expected a JSON value")),
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.error("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or_else(|| self.error("truncated \\u escape"))?;
                            let hex = std::str::from_utf8(hex)
                                .map_err(|_| self.error("bad \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.error("bad \\u escape"))?;
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| self.error("bad \\u code point"))?,
                            );
                            self.pos += 4;
                        }
                        _ => return Err(self.error("bad escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 character.
                    let rest = &self.bytes[self.pos..];
                    let s = std::str::from_utf8(rest).map_err(|_| self.error("bad UTF-8"))?;
                    let c = s.chars().next().ok_or_else(|| self.error("unterminated"))?;
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit() || matches!(c, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii");
        text.parse::<f64>().map(Json::Num).map_err(|_| JsonError {
            offset: start,
            message: format!("bad number `{text}`"),
        })
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.eat(b'[')?;
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
                _ => return Err(self.error("expected `,` or `]`")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.eat(b'{')?;
        let mut entries = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(entries));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            self.skip_ws();
            let value = self.value()?;
            entries.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(entries));
                }
                _ => return Err(self.error("expected `,` or `}`")),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_and_accessors() {
        let doc = Json::obj()
            .set("name", "vlsa")
            .set("adds", 12u64)
            .set("rate", 0.5)
            .set("ok", true)
            .set("tags", vec!["a", "b"]);
        assert_eq!(doc.get("adds").and_then(Json::as_u64), Some(12));
        assert_eq!(doc.get("rate").and_then(Json::as_f64), Some(0.5));
        assert_eq!(doc.get("name").and_then(Json::as_str), Some("vlsa"));
        assert_eq!(
            doc.get("tags").and_then(Json::as_arr).map(<[Json]>::len),
            Some(2)
        );
        assert_eq!(doc.get("missing"), None);
    }

    #[test]
    fn set_replaces_existing_key() {
        let doc = Json::obj().set("k", 1u64).set("k", 2u64);
        assert_eq!(doc.get("k").and_then(Json::as_u64), Some(2));
    }

    #[test]
    fn round_trip_preserves_structure() {
        let doc = Json::obj()
            .set("counts", vec![1u64, 2, 3])
            .set(
                "nested",
                Json::obj().set("pi", 3.25).set("none", Json::Null),
            )
            .set("text", "line\n\"quoted\"\\slash");
        let rendered = doc.to_string();
        let parsed = Json::parse(&rendered).expect("parse back");
        assert_eq!(parsed, doc);
    }

    #[test]
    fn parses_whitespace_and_escapes() {
        let doc = Json::parse(" { \"a\" : [ 1 , -2.5e1 ] , \"b\" : \"\\u0041\" } ").expect("parse");
        assert_eq!(doc.get("b").and_then(Json::as_str), Some("A"));
        let arr = doc.get("a").and_then(Json::as_arr).expect("array");
        assert_eq!(arr[1].as_f64(), Some(-25.0));
    }

    #[test]
    fn integers_render_without_fraction() {
        assert_eq!(Json::from(3u64).to_string(), "3");
        assert_eq!(Json::from(2.5).to_string(), "2.5");
        assert_eq!(Json::Num(f64::NAN).to_string(), "null");
    }

    #[test]
    fn rejects_garbage() {
        assert!(Json::parse("{\"a\":}").is_err());
        assert!(Json::parse("[1,").is_err());
        assert!(Json::parse("12 34").is_err());
        assert!(Json::parse("\"open").is_err());
        let err = Json::parse("nulL").unwrap_err();
        assert!(err.to_string().contains("byte 0"));
    }
}
