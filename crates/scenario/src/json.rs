//! A strict, dependency-free JSON reader for scenario files.
//!
//! The vendored `serde` stand-in implements serialization only, so the
//! scenario engine carries its own input side: a small recursive-descent
//! parser producing [`JsonValue`] trees. It is deliberately stricter
//! than a general-purpose reader, because scenario files are *specs*
//! and silent tolerance becomes silent misconfiguration:
//!
//! * duplicate object keys are an error (the second write would win
//!   invisibly);
//! * trailing input after the document is an error;
//! * only finite numbers are accepted (JSON has no `NaN`/`Infinity`
//!   literals, and the spec layer wants every knob comparable);
//! * no extensions — no comments, no trailing commas, no single quotes;
//! * arrays and objects nest at most 128 levels deep: the parser
//!   recurses once per level, and a deeper document would exhaust the
//!   parsing thread's stack instead of returning an error;
//! * a document holds at most [`MAX_VALUES`] values: a value takes 32 B
//!   and an object member 56 B, so without a cap a 16 MiB `[0,0,…]`
//!   request frame would build about 8.4 M values (over 250 MiB of
//!   heap) before anything looked at them.
//!
//! Objects preserve insertion order so error messages can point at the
//! offending field in file order.
//!
//! # Example
//!
//! ```
//! use ami_scenario::json::{parse, JsonValue};
//!
//! let doc = parse(r#"{"name": "demo", "rounds": 30}"#).unwrap();
//! assert_eq!(doc.get("rounds").and_then(JsonValue::as_f64), Some(30.0));
//! assert!(parse("{\"a\":1,\"a\":2}").is_err(), "duplicate keys rejected");
//! ```

use std::collections::HashSet;
use std::fmt;

/// Deepest array/object nesting [`parse`] accepts (see the module
/// docs). The deepest checked-in scenario nests 6 levels and a batch
/// reply about 8.
const MAX_DEPTH: usize = 128;

/// Most values (scalars, arrays and objects, not object keys) one
/// document may hold; [`parse`] refuses the first value past it. The
/// largest documents the workspace reads hold about 10⁵.
pub const MAX_VALUES: usize = 1 << 20;

/// A parsed JSON document node.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number; always finite.
    Number(f64),
    /// A string literal, unescaped.
    String(String),
    /// An array.
    Array(Vec<JsonValue>),
    /// An object, in insertion order, keys unique.
    Object(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Member lookup on an object; `None` on missing key or non-object.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Object(members) => members
                .iter()
                .find(|(name, _)| name == key)
                .map(|(_, value)| value),
            _ => None,
        }
    }

    /// The number payload, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Number(v) => Some(*v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::String(s) => Some(s.as_str()),
            _ => None,
        }
    }

    /// A short name for the node's type, for error messages.
    pub fn type_name(&self) -> &'static str {
        match self {
            JsonValue::Null => "null",
            JsonValue::Bool(_) => "bool",
            JsonValue::Number(_) => "number",
            JsonValue::String(_) => "string",
            JsonValue::Array(_) => "array",
            JsonValue::Object(_) => "object",
        }
    }
}

/// A parse failure with a 1-based line/column position.
#[derive(Debug, Clone, PartialEq)]
pub struct JsonError {
    /// 1-based line of the offending byte.
    pub line: usize,
    /// 1-based column of the offending byte.
    pub column: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}:{}: {}", self.line, self.column, self.message)
    }
}

impl std::error::Error for JsonError {}

/// Parses one complete JSON document.
///
/// # Errors
///
/// Returns a positioned [`JsonError`] on malformed input, duplicate
/// object keys, non-finite numbers, trailing content, arrays and
/// objects nested more than 128 levels deep, or more than
/// [`MAX_VALUES`] values.
pub fn parse(input: &str) -> Result<JsonValue, JsonError> {
    let mut parser = Parser {
        bytes: input.as_bytes(),
        pos: 0,
        depth: 0,
        values: 0,
    };
    parser.skip_whitespace();
    let value = parser.value()?;
    parser.skip_whitespace();
    if parser.pos != parser.bytes.len() {
        return Err(parser.error("trailing content after the JSON document"));
    }
    Ok(value)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects open around the cursor.
    depth: usize,
    /// Values begun so far.
    values: usize,
}

impl<'a> Parser<'a> {
    fn error(&self, message: impl Into<String>) -> JsonError {
        let mut line = 1;
        let mut column = 1;
        for &b in &self.bytes[..self.pos.min(self.bytes.len())] {
            if b == b'\n' {
                line += 1;
                column = 1;
            } else {
                column += 1;
            }
        }
        JsonError {
            line,
            column,
            message: message.into(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_whitespace(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, byte: u8) -> Result<(), JsonError> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(format!(
                "expected `{}`, found {}",
                byte as char,
                self.describe_here()
            )))
        }
    }

    fn describe_here(&self) -> String {
        match self.peek() {
            Some(b) if b.is_ascii_graphic() => format!("`{}`", b as char),
            Some(b) => format!("byte 0x{b:02x}"),
            None => "end of input".to_owned(),
        }
    }

    fn value(&mut self) -> Result<JsonValue, JsonError> {
        if self.values == MAX_VALUES {
            return Err(self.error(format!("the document holds more than {MAX_VALUES} values")));
        }
        self.values += 1;
        match self.peek() {
            Some(open @ (b'{' | b'[')) => {
                if self.depth == MAX_DEPTH {
                    return Err(self.error(format!(
                        "arrays and objects nest deeper than {MAX_DEPTH} levels"
                    )));
                }
                self.depth += 1;
                let value = if open == b'{' {
                    self.object()
                } else {
                    self.array()
                };
                self.depth -= 1;
                value
            }
            Some(b'"') => Ok(JsonValue::String(self.string()?)),
            Some(b't') => self.keyword("true", JsonValue::Bool(true)),
            Some(b'f') => self.keyword("false", JsonValue::Bool(false)),
            Some(b'n') => self.keyword("null", JsonValue::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.error(format!(
                "expected a JSON value, found {}",
                self.describe_here()
            ))),
        }
    }

    fn keyword(&mut self, word: &str, value: JsonValue) -> Result<JsonValue, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.error(format!("expected `{word}`")))
        }
    }

    fn object(&mut self) -> Result<JsonValue, JsonError> {
        self.expect(b'{')?;
        let mut members: Vec<(String, JsonValue)> = Vec::new();
        // The keys seen so far, so a duplicate is found in O(1) instead
        // of a scan over every earlier member.
        let mut keys = HashSet::new();
        self.skip_whitespace();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Object(members));
        }
        loop {
            self.skip_whitespace();
            let key_start = self.pos;
            let key = self.string()?;
            if !keys.insert(key.clone()) {
                self.pos = key_start;
                return Err(self.error(format!("duplicate object key {key:?}")));
            }
            self.skip_whitespace();
            self.expect(b':')?;
            self.skip_whitespace();
            let value = self.value()?;
            members.push((key, value));
            self.skip_whitespace();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Object(members));
                }
                _ => {
                    return Err(self.error(format!(
                        "expected `,` or `}}` in object, found {}",
                        self.describe_here()
                    )))
                }
            }
        }
    }

    fn array(&mut self) -> Result<JsonValue, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_whitespace();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Array(items));
        }
        loop {
            self.skip_whitespace();
            items.push(self.value()?);
            self.skip_whitespace();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Array(items));
                }
                _ => {
                    return Err(self.error(format!(
                        "expected `,` or `]` in array, found {}",
                        self.describe_here()
                    )))
                }
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
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
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            self.pos += 1;
                            let code = self.hex4()?;
                            // Surrogate pairs: a high surrogate must be
                            // followed by an escaped low surrogate.
                            let ch = if (0xD800..0xDC00).contains(&code) {
                                if !(self.peek() == Some(b'\\')
                                    && self.bytes.get(self.pos + 1) == Some(&b'u'))
                                {
                                    return Err(self.error("unpaired surrogate escape"));
                                }
                                self.pos += 2;
                                let low = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&low) {
                                    return Err(self.error("invalid low surrogate"));
                                }
                                let combined = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
                                char::from_u32(combined)
                                    .ok_or_else(|| self.error("invalid surrogate pair"))?
                            } else {
                                char::from_u32(code)
                                    .ok_or_else(|| self.error("invalid \\u escape"))?
                            };
                            out.push(ch);
                            continue; // hex4 already advanced past the digits
                        }
                        _ => return Err(self.error("invalid escape sequence")),
                    }
                    self.pos += 1;
                }
                Some(b) if b < 0x20 => {
                    return Err(self.error("raw control character in string"));
                }
                Some(_) => {
                    // Copy the run of plain bytes up to the next quote,
                    // backslash or control byte as one slice. Those
                    // delimiters are ASCII, so the run of the `&str`
                    // input ends on a char boundary.
                    let start = self.pos;
                    while matches!(self.peek(), Some(b) if b >= 0x20 && b != b'"' && b != b'\\') {
                        self.pos += 1;
                    }
                    let run = std::str::from_utf8(&self.bytes[start..self.pos])
                        .expect("a run of a &str between ASCII delimiters is UTF-8");
                    out.push_str(run);
                }
            }
        }
    }

    /// Reads exactly four hex digits, advancing past them.
    fn hex4(&mut self) -> Result<u32, JsonError> {
        let mut code: u32 = 0;
        for _ in 0..4 {
            let digit = match self.peek() {
                Some(b @ b'0'..=b'9') => u32::from(b - b'0'),
                Some(b @ b'a'..=b'f') => u32::from(b - b'a') + 10,
                Some(b @ b'A'..=b'F') => u32::from(b - b'A') + 10,
                _ => return Err(self.error("expected four hex digits after \\u")),
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
        // Integer part: `0` alone or a nonzero-led digit run.
        match self.peek() {
            Some(b'0') => self.pos += 1,
            Some(b'1'..=b'9') => {
                while matches!(self.peek(), Some(b'0'..=b'9')) {
                    self.pos += 1;
                }
            }
            _ => return Err(self.error("malformed number")),
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(self.error("digits required after decimal point"));
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(self.error("digits required in exponent"));
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii number");
        let value: f64 = text
            .parse()
            .map_err(|_| self.error(format!("unparseable number {text:?}")))?;
        if !value.is_finite() {
            return Err(self.error(format!("number {text:?} overflows f64")));
        }
        Ok(JsonValue::Number(value))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(parse("null").unwrap(), JsonValue::Null);
        assert_eq!(parse("true").unwrap(), JsonValue::Bool(true));
        assert_eq!(parse("-2.5e3").unwrap(), JsonValue::Number(-2500.0));
        assert_eq!(
            parse("\"a\\nb\"").unwrap(),
            JsonValue::String("a\nb".to_owned())
        );
    }

    #[test]
    fn parses_nested_structures_in_order() {
        let doc = parse(r#"{"b": [1, 2], "a": {"x": true}}"#).unwrap();
        let JsonValue::Object(members) = &doc else {
            panic!("expected object");
        };
        assert_eq!(members[0].0, "b");
        assert_eq!(members[1].0, "a");
        assert_eq!(doc.get("a").unwrap().get("x"), Some(&JsonValue::Bool(true)));
    }

    #[test]
    fn rejects_duplicate_keys_with_position() {
        let err = parse("{\"a\": 1,\n \"a\": 2}").unwrap_err();
        assert!(err.message.contains("duplicate"), "{err}");
        assert_eq!(err.line, 2);
    }

    #[test]
    fn rejects_trailing_content_and_extensions() {
        assert!(parse("1 2").is_err());
        assert!(parse("[1,]").is_err(), "trailing comma");
        assert!(parse("{'a': 1}").is_err(), "single quotes");
        assert!(parse("// c\n1").is_err(), "comments");
        assert!(parse("01").is_err(), "leading zero");
        assert!(parse("1e999").is_err(), "overflow to infinity");
    }

    #[test]
    fn unicode_escapes_round_trip() {
        assert_eq!(
            parse("\"\\u00e9\\uD83D\\uDE00\"").unwrap(),
            JsonValue::String("é😀".to_owned())
        );
        assert!(parse("\"\\uD800\"").is_err(), "unpaired surrogate");
    }

    #[test]
    fn rejects_nesting_deeper_than_the_bound() {
        let arrays = |depth: usize| "[".repeat(depth) + &"]".repeat(depth);
        assert!(parse(&arrays(MAX_DEPTH)).is_ok());
        let objects = "{\"a\":".repeat(MAX_DEPTH) + "1" + &"}".repeat(MAX_DEPTH);
        assert!(parse(&objects).is_ok());
        let err = parse(&arrays(MAX_DEPTH + 1)).unwrap_err();
        assert!(err.message.contains("nest deeper"), "{err}");
        assert_eq!((err.line, err.column), (1, MAX_DEPTH + 1));
        // Far past the bound: an error, not a stack overflow.
        assert!(parse(&"[".repeat(100_000)).is_err());
        assert!(parse(&"{\"a\":".repeat(100_000)).is_err());
    }

    #[test]
    fn rejects_documents_of_more_values_than_the_bound() {
        // An array of `values - 1` zeros holds `values` values.
        let zeros = |values: usize| format!("[{}0]", "0,".repeat(values - 2));
        let JsonValue::Array(items) = parse(&zeros(MAX_VALUES)).unwrap() else {
            panic!("expected an array");
        };
        assert_eq!(items.len(), MAX_VALUES - 1);
        // The value past the bound is the last zero, at column 2·MAX_VALUES.
        let err = parse(&zeros(MAX_VALUES + 1)).unwrap_err();
        assert!(err.message.contains(&MAX_VALUES.to_string()), "{err}");
        assert_eq!((err.line, err.column), (1, 2 * MAX_VALUES));
        // Keys are not values: an object of `MAX_VALUES - 1` members
        // holds exactly the bound.
        let body = (1..MAX_VALUES)
            .map(|k| format!("\"{k}\":0"))
            .collect::<Vec<_>>()
            .join(",");
        assert!(parse(&format!("{{{body}}}")).is_ok());
        // A 16 MiB request frame of zeros holds 8 M values.
        let frame = zeros((16 << 20) / 2);
        assert!(parse(&frame).unwrap_err().message.contains("more than"));
    }

    #[test]
    fn long_strings_and_wide_objects_parse_in_linear_time() {
        // A 1 MiB string (plain runs, escapes and non-ASCII) and a
        // 10⁵-key object. A reader that rescans the rest of the input
        // per character, or every earlier key per key, takes over 15 s
        // on each even in a release build; the bound is generous for a
        // debug build.
        let bound = std::time::Duration::from_secs(2);
        let text = format!("\"{}\"", "ab\\n\u{e9}\u{e9}".repeat(1 << 17));
        assert_eq!(text.len(), (1 << 20) + 2);
        let started = std::time::Instant::now();
        let parsed = parse(&text).unwrap();
        let elapsed = started.elapsed();
        assert!(elapsed < bound, "1 MiB string took {elapsed:?}");
        assert_eq!(
            parsed,
            JsonValue::String("ab\n\u{e9}\u{e9}".repeat(1 << 17))
        );

        let keys = 100_000;
        let body = (0..keys)
            .map(|k| format!("\"k{k}\":{k}"))
            .collect::<Vec<_>>()
            .join(",");
        let text = format!("{{{body}}}");
        let started = std::time::Instant::now();
        let parsed = parse(&text).unwrap();
        let elapsed = started.elapsed();
        assert!(elapsed < bound, "{keys}-key object took {elapsed:?}");
        let JsonValue::Object(members) = &parsed else {
            panic!("expected an object");
        };
        assert_eq!(members.len(), keys);
        assert_eq!(parsed.get("k99999"), Some(&JsonValue::Number(99_999.0)));

        // A duplicate deep in a wide object still points at its key.
        let err = parse(&format!("{{{body},\n \"k7\":0}}")).unwrap_err();
        assert!(err.message.contains("duplicate object key \"k7\""), "{err}");
        assert_eq!((err.line, err.column), (2, 2));
    }
}
