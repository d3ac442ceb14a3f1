//! The JSON value model: tree, printer and recursive-descent parser.
//!
//! Objects preserve insertion order (a `Vec` of pairs, not a hash map)
//! so emitted artifacts are byte-stable across runs — a property the
//! experiment harness's determinism checks rely on.

use crate::Error;

/// A parsed or built JSON document.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Non-negative integer written without a decimal point.
    UInt(u64),
    /// Negative integer written without a decimal point.
    Int(i64),
    /// Any number written with a decimal point or exponent.
    Float(f64),
    /// String.
    Str(String),
    /// Array.
    Array(Vec<Value>),
    /// Object, in insertion order.
    Object(Vec<(String, Value)>),
}

/// Shared `null` for out-of-range indexing, mirroring serde_json's
/// total `Index` behavior.
static NULL: Value = Value::Null;

impl Value {
    /// True for `null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// True for any numeric variant.
    pub fn is_number(&self) -> bool {
        matches!(self, Value::UInt(_) | Value::Int(_) | Value::Float(_))
    }

    /// True when the number was written in floating-point form.
    pub fn is_f64(&self) -> bool {
        matches!(self, Value::Float(_))
    }

    /// True for objects.
    pub fn is_object(&self) -> bool {
        matches!(self, Value::Object(_))
    }

    /// The value as `u64`, for integer-form numbers that fit.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::UInt(n) => Some(*n),
            Value::Int(n) => u64::try_from(*n).ok(),
            _ => None,
        }
    }

    /// The value as `i64`, for integer-form numbers that fit.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Int(n) => Some(*n),
            Value::UInt(n) => i64::try_from(*n).ok(),
            _ => None,
        }
    }

    /// The value as `f64`, for any numeric form.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Float(x) => Some(*x),
            Value::UInt(n) => Some(*n as f64),
            Value::Int(n) => Some(*n as f64),
            _ => None,
        }
    }

    /// The value as `&str`, for strings.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as `bool`.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an array slice.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(items) => Some(items),
            _ => None,
        }
    }

    /// Object member lookup.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Object member lookup that yields `null` when absent — the shape
    /// the derive macros deserialize through (`Option` fields treat a
    /// missing key as `None`).
    pub fn field(&self, key: &str) -> &Value {
        self.get(key).unwrap_or(&NULL)
    }

    /// Compact (single-line) JSON.
    pub fn render_compact(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// Pretty JSON with two-space indentation, matching serde_json's
    /// `to_string_pretty` layout.
    pub fn render_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(true) => out.push_str("true"),
            Value::Bool(false) => out.push_str("false"),
            Value::UInt(n) => out.push_str(&n.to_string()),
            Value::Int(n) => out.push_str(&n.to_string()),
            Value::Float(x) => {
                if x.is_finite() {
                    // `{:?}` prints the shortest string that round-trips
                    // and always keeps a float marker ("1.0", "1e30").
                    out.push_str(&format!("{x:?}"));
                } else {
                    // JSON has no Infinity/NaN; serde_json emits null.
                    out.push_str("null");
                }
            }
            Value::Str(s) => write_escaped(out, s),
            Value::Array(items) => {
                write_seq(out, indent, depth, '[', ']', items.len(), |out, i, d| {
                    items[i].write(out, indent, d);
                });
            }
            Value::Object(pairs) => {
                write_seq(out, indent, depth, '{', '}', pairs.len(), |out, i, d| {
                    write_escaped(out, &pairs[i].0);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    pairs[i].1.write(out, indent, d);
                });
            }
        }
    }
}

fn write_seq(
    out: &mut String,
    indent: Option<usize>,
    depth: usize,
    open: char,
    close: char,
    len: usize,
    mut item: impl FnMut(&mut String, usize, usize),
) {
    out.push(open);
    if len == 0 {
        out.push(close);
        return;
    }
    for i in 0..len {
        if i > 0 {
            out.push(',');
        }
        if let Some(step) = indent {
            out.push('\n');
            out.push_str(&" ".repeat(step * (depth + 1)));
        }
        item(out, i, depth + 1);
    }
    if let Some(step) = indent {
        out.push('\n');
        out.push_str(&" ".repeat(step * depth));
    }
    out.push(close);
}

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Parses a JSON document.
///
/// # Errors
/// Returns an error describing the first syntax problem, with its byte
/// offset.
pub fn parse(input: &str) -> Result<Value, Error> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(Error::msg(format!("trailing data at byte {}", p.pos)));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), Error> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(Error::msg(format!(
                "expected '{}' at byte {}",
                b as char, self.pos
            )))
        }
    }

    fn eat_literal(&mut self, lit: &str) -> bool {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            true
        } else {
            false
        }
    }

    fn value(&mut self) -> Result<Value, Error> {
        match self.peek() {
            Some(b'n') if self.eat_literal("null") => Ok(Value::Null),
            Some(b't') if self.eat_literal("true") => Ok(Value::Bool(true)),
            Some(b'f') if self.eat_literal("false") => Ok(Value::Bool(false)),
            Some(b'"') => self.string().map(Value::Str),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b) if b == b'-' || b.is_ascii_digit() => self.number(),
            Some(b) => Err(Error::msg(format!(
                "unexpected character '{}' at byte {}",
                b as char, self.pos
            ))),
            None => Err(Error::msg("unexpected end of input")),
        }
    }

    fn array(&mut self) -> Result<Value, Error> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                _ => {
                    return Err(Error::msg(format!(
                        "expected ',' or ']' at byte {}",
                        self.pos
                    )))
                }
            }
        }
    }

    fn object(&mut self) -> Result<Value, Error> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let val = self.value()?;
            pairs.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(pairs));
                }
                _ => {
                    return Err(Error::msg(format!(
                        "expected ',' or '}}' at byte {}",
                        self.pos
                    )))
                }
            }
        }
    }

    fn string(&mut self) -> Result<String, Error> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(Error::msg("unterminated string")),
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
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or_else(|| Error::msg("truncated \\u escape"))?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex)
                                    .map_err(|_| Error::msg("bad \\u escape"))?,
                                16,
                            )
                            .map_err(|_| Error::msg("bad \\u escape"))?;
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| Error::msg("bad \\u code point"))?,
                            );
                            self.pos += 4;
                        }
                        _ => return Err(Error::msg("bad escape")),
                    }
                    self.pos += 1;
                }
                Some(b) if b < 0x80 => {
                    // ASCII fast path: swallow the whole run in one go
                    // (validating from `pos` to the closing quote per
                    // character is quadratic over large documents).
                    let start = self.pos;
                    while let Some(&b) = self.bytes.get(self.pos) {
                        if b == b'"' || b == b'\\' || b >= 0x80 {
                            break;
                        }
                        self.pos += 1;
                    }
                    out.push_str(std::str::from_utf8(&self.bytes[start..self.pos]).unwrap());
                }
                Some(_) => {
                    // Multi-byte UTF-8 scalar: decode just this sequence
                    // (at most four bytes), not the rest of the input.
                    let end = (self.pos + 4).min(self.bytes.len());
                    let window = &self.bytes[self.pos..end];
                    let c = match std::str::from_utf8(window) {
                        Ok(s) => s.chars().next().unwrap(),
                        Err(e) if e.valid_up_to() > 0 => {
                            std::str::from_utf8(&window[..e.valid_up_to()])
                                .unwrap()
                                .chars()
                                .next()
                                .unwrap()
                        }
                        Err(_) => return Err(Error::msg("invalid UTF-8 in string")),
                    };
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<Value, Error> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut float = false;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        if float {
            text.parse::<f64>()
                .map(Value::Float)
                .map_err(|_| Error::msg(format!("bad number '{text}'")))
        } else if let Some(stripped) = text.strip_prefix('-') {
            stripped
                .parse::<u64>()
                .ok()
                .and_then(|n| i64::try_from(n).ok().map(|n| Value::Int(-n)))
                .ok_or_else(|| Error::msg(format!("bad number '{text}'")))
        } else {
            text.parse::<u64>()
                .map(Value::UInt)
                .map_err(|_| Error::msg(format!("bad number '{text}'")))
        }
    }
}

impl std::ops::Index<&str> for Value {
    type Output = Value;

    fn index(&self, key: &str) -> &Value {
        self.field(key)
    }
}

impl std::ops::Index<usize> for Value {
    type Output = Value;

    fn index(&self, i: usize) -> &Value {
        match self {
            Value::Array(items) => items.get(i).unwrap_or(&NULL),
            _ => &NULL,
        }
    }
}

impl PartialEq<&str> for Value {
    fn eq(&self, other: &&str) -> bool {
        self.as_str() == Some(*other)
    }
}

impl PartialEq<str> for Value {
    fn eq(&self, other: &str) -> bool {
        self.as_str() == Some(other)
    }
}

impl PartialEq<String> for Value {
    fn eq(&self, other: &String) -> bool {
        self.as_str() == Some(other.as_str())
    }
}

impl std::fmt::Display for Value {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.render_compact())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_round_trip() {
        for text in [
            "null", "true", "false", "0", "42", "-17", "3.25", "1e3", "\"hi\"",
        ] {
            let v = parse(text).unwrap();
            let back = parse(&v.render_compact()).unwrap();
            assert_eq!(v, back, "{text}");
        }
    }

    #[test]
    fn numbers_classify_by_written_form() {
        assert!(parse("1").unwrap().as_u64().is_some());
        assert!(!parse("1").unwrap().is_f64());
        assert!(parse("1.0").unwrap().is_f64());
        assert_eq!(parse("-5").unwrap().as_i64(), Some(-5));
        assert_eq!(
            parse("18446744073709551615").unwrap().as_u64(),
            Some(u64::MAX)
        );
    }

    #[test]
    fn floats_keep_their_marker_through_printing() {
        let v = Value::Float(1.0);
        assert_eq!(v.render_compact(), "1.0");
        assert!(parse(&v.render_compact()).unwrap().is_f64());
    }

    #[test]
    fn nested_structures_round_trip_pretty_and_compact() {
        let text = r#"{"a": [1, 2.5, {"b": "x\ny"}], "c": null, "d": true}"#;
        let v = parse(text).unwrap();
        assert_eq!(parse(&v.render_pretty()).unwrap(), v);
        assert_eq!(parse(&v.render_compact()).unwrap(), v);
        assert_eq!(v["a"][2]["b"].as_str(), Some("x\ny"));
        assert!(v["c"].is_null());
        assert!(v["missing"].is_null());
    }

    #[test]
    fn object_order_is_preserved() {
        let v = parse(r#"{"z": 1, "a": 2, "m": 3}"#).unwrap();
        assert_eq!(v.render_compact(), r#"{"z":1,"a":2,"m":3}"#);
    }

    #[test]
    fn string_escapes_round_trip() {
        let original = Value::Str("tab\there \"quoted\" back\\slash\nline\u{1}".to_string());
        let back = parse(&original.render_compact()).unwrap();
        assert_eq!(original, back);
    }

    #[test]
    fn unicode_text_round_trips() {
        let v = parse("\"caf\u{e9} \u{2603}\"").unwrap();
        assert_eq!(v.as_str(), Some("café ☃"));
        assert_eq!(parse(&v.render_compact()).unwrap(), v);
    }

    #[test]
    fn syntax_errors_are_reported() {
        for bad in [
            "{",
            "[1,",
            "tru",
            "\"unterminated",
            "{\"a\" 1}",
            "01a",
            "[1 2]",
        ] {
            assert!(parse(bad).is_err(), "{bad} should fail");
        }
    }

    #[test]
    // The String comparison is the point: it exercises the PartialEq
    // impl serde_json callers rely on.
    #[allow(clippy::cmp_owned)]
    fn comparison_against_strings_works() {
        let v = parse(r#"{"technology": "Egt"}"#).unwrap();
        assert!(v["technology"] == "Egt");
        assert!(v["technology"] == *"Egt");
        assert!(v["technology"] == "Egt".to_string());
    }
}
