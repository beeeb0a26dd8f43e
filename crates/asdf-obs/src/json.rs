//! A minimal JSON reader and writer (the workspace is offline and
//! dependency-free, so no serde): [`parse`] reads the full JSON value
//! grammar with `f64` numbers, [`Value::render`] writes it back, and
//! [`escape_into`] is the one string escaper every emitter in the
//! workspace calls — the streaming ones in [`crate::export`] and
//! [`crate::snapshot`] included. Not intended as a general-purpose
//! library.

use std::collections::BTreeMap;
use std::fmt::{self, Write as _};

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number, as `f64`.
    Number(f64),
    /// A string (escapes resolved).
    String(String),
    /// An array.
    Array(Vec<Value>),
    /// An object; key order is not preserved.
    Object(BTreeMap<String, Value>),
}

impl Value {
    /// The value under `key`, when this is an object.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(map) => map.get(key),
            _ => None,
        }
    }

    /// The elements, when this is an array.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The number, when this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// The string contents, when this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    /// Renders the value as JSON text that [`parse`] reads back equal:
    /// `None` is compact (no whitespace at all, one line), `Some(n)`
    /// pretty-prints with `n` spaces per nesting level. Objects render in
    /// key order, so equal values render to equal bytes and two documents
    /// diff line by line. A non-finite number has no JSON spelling and
    /// renders `null`.
    pub fn render(&self, indent: Option<usize>) -> String {
        let mut out = String::new();
        self.render_into(indent, 0, &mut out);
        out
    }

    fn render_into(&self, indent: Option<usize>, depth: usize, out: &mut String) {
        // Line break plus indentation for `depth` when pretty-printing.
        let newline = |out: &mut String, depth: usize| {
            if let Some(n) = indent {
                out.push('\n');
                out.extend(std::iter::repeat_n(' ', n * depth));
            }
        };
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::Number(n) if n.is_finite() => {
                let _ = write!(out, "{n}");
            }
            Value::Number(_) => out.push_str("null"),
            Value::String(s) => push_string(s, out),
            Value::Array(items) if items.is_empty() => out.push_str("[]"),
            Value::Array(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline(out, depth + 1);
                    item.render_into(indent, depth + 1, out);
                }
                newline(out, depth);
                out.push(']');
            }
            Value::Object(map) if map.is_empty() => out.push_str("{}"),
            Value::Object(map) => {
                out.push('{');
                for (i, (key, v)) in map.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline(out, depth + 1);
                    push_string(key, out);
                    out.push_str(if indent.is_some() { ": " } else { ":" });
                    v.render_into(indent, depth + 1, out);
                }
                newline(out, depth);
                out.push('}');
            }
        }
    }
}

impl From<f64> for Value {
    fn from(n: f64) -> Self {
        Value::Number(n)
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::String(s.to_owned())
    }
}

/// Builds a [`Value::Object`] from `(key, value)` pairs.
pub fn object<K: Into<String>>(fields: impl IntoIterator<Item = (K, Value)>) -> Value {
    Value::Object(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
}

/// Escapes `s` for a JSON string literal (without the quotes), appending
/// to `out`: `"` and `\` are backslash-escaped, newline, carriage return
/// and tab take their short forms, every other control character below
/// U+0020 is `\u00XX`, and everything else — DEL, the C1 controls and
/// non-BMP text included — passes through as UTF-8.
pub fn escape_into(s: &str, out: &mut String) {
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

fn push_string(s: &str, out: &mut String) {
    out.push('"');
    escape_into(s, out);
    out.push('"');
}

/// A parse failure, with the byte offset it occurred at.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset into the input.
    pub at: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON error at byte {}: {}", self.at, self.message)
    }
}

impl std::error::Error for ParseError {}

/// The deepest nesting of arrays and objects [`parse`] accepts. Each level
/// is one stack frame of the recursive descent, so a bound keeps a hostile
/// document from overflowing the stack; nothing this workspace writes nests
/// deeper than 10.
const MAX_DEPTH: usize = 128;

/// Parses a complete JSON document (one value plus trailing whitespace).
///
/// # Errors
///
/// Returns a [`ParseError`] on malformed input, trailing garbage, or
/// arrays and objects nested more than 128 deep.
pub fn parse(text: &str) -> Result<Value, ParseError> {
    let mut p = Parser {
        bytes: text.as_bytes(),
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
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects open around `pos`.
    depth: usize,
}

impl Parser<'_> {
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
            Err(self.err(format!("expected `{}`", b as char)))
        }
    }

    fn literal(&mut self, word: &str, v: Value) -> Result<Value, ParseError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(self.err(format!("expected `{word}`")))
        }
    }

    fn value(&mut self) -> Result<Value, ParseError> {
        match self.peek() {
            Some(open @ (b'{' | b'[')) => {
                if self.depth == MAX_DEPTH {
                    return Err(self.err(format!("nesting deeper than {MAX_DEPTH}")));
                }
                self.depth += 1;
                let v = if open == b'{' {
                    self.object()
                } else {
                    self.array()
                };
                self.depth -= 1;
                v
            }
            Some(b'"') => Ok(Value::String(self.string()?)),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn object(&mut self) -> Result<Value, ParseError> {
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            map.insert(key, self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(map));
                }
                _ => return Err(self.err("expected `,` or `}` in object")),
            }
        }
    }

    fn array(&mut self) -> Result<Value, ParseError> {
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
                _ => return Err(self.err("expected `,` or `]` in array")),
            }
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or_else(|| self.err("dangling escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .ok_or_else(|| self.err("truncated \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("bad \\u escape"))?;
                            self.pos += 4;
                            // Surrogate pairs are not needed for the BMP
                            // names this crate writes; map lone surrogates
                            // to the replacement character.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                Some(_) => {
                    // Consume the whole run of ordinary bytes up to the
                    // next quote or escape in one slice (input is a &str,
                    // so the run is valid UTF-8 on scalar boundaries).
                    let start = self.pos;
                    while let Some(c) = self.peek() {
                        if c == b'"' || c == b'\\' {
                            break;
                        }
                        self.pos += 1;
                    }
                    let s = std::str::from_utf8(&self.bytes[start..self.pos])
                        .map_err(|_| self.err("invalid UTF-8"))?;
                    out.push_str(s);
                }
            }
        }
    }

    fn number(&mut self) -> Result<Value, ParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit() || matches!(c, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii");
        text.parse::<f64>()
            .map(Value::Number)
            .map_err(|_| self.err(format!("bad number `{text}`")))
    }
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;
    use rand::rngs::SmallRng;
    use rand::Rng;

    use super::*;

    #[test]
    fn parses_scalars_and_structure() {
        let v =
            parse(r#"{"a": [1, 2.5, -3e2], "b": {"c": null, "d": true}, "e": "x\ny"}"#).unwrap();
        assert_eq!(
            v.get("a").unwrap().as_array().unwrap()[1].as_f64(),
            Some(2.5)
        );
        assert_eq!(
            v.get("a").unwrap().as_array().unwrap()[2].as_f64(),
            Some(-300.0)
        );
        assert_eq!(v.get("b").unwrap().get("c"), Some(&Value::Null));
        assert_eq!(v.get("b").unwrap().get("d"), Some(&Value::Bool(true)));
        assert_eq!(v.get("e").unwrap().as_str(), Some("x\ny"));
    }

    #[test]
    fn resolves_escapes() {
        let v = parse(r#""quote \" slash \\ unicode A""#).unwrap();
        assert_eq!(v.as_str(), Some(r#"quote " slash \ unicode A"#));
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(parse("{").is_err());
        assert!(parse("[1, ]").is_err());
        assert!(parse(r#"{"a" 1}"#).is_err());
        assert!(parse("12 34").is_err());
        assert!(parse("nulll").is_err());
        assert!(parse("\"unterminated").is_err());
    }

    #[test]
    fn nesting_past_the_limit_is_an_error_not_a_stack_overflow() {
        // Each level is one frame of the recursive descent: unbounded, these
        // overflow a test thread's stack and abort the process.
        for open in ["[", "{\"a\":"] {
            let err = parse(&open.repeat(200_000)).unwrap_err();
            assert!(err.message.contains("nesting deeper than 128"), "{err}");
        }
        let nested = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        assert!(parse(&nested(MAX_DEPTH)).is_ok());
        assert!(parse(&nested(MAX_DEPTH + 1)).is_err());
    }

    #[test]
    fn empty_containers() {
        assert_eq!(parse("[]").unwrap(), Value::Array(Vec::new()));
        assert_eq!(parse(" {} ").unwrap(), Value::Object(BTreeMap::new()));
    }

    /// Arbitrary `Value` trees up to four levels deep: hostile text in keys
    /// and strings, empty containers at every level, finite numbers of
    /// every magnitude.
    struct ArbValue;

    impl Strategy for ArbValue {
        type Value = Value;

        fn sample(&self, rng: &mut SmallRng) -> Value {
            arb_value(rng, 3)
        }
    }

    fn arb_string(rng: &mut SmallRng) -> String {
        const POOL: [char; 19] = [
            '"', '\\', '/', '\n', '\r', '\t', '\0', '\u{8}', '\u{c}', '\u{1f}', '\u{7f}', '\u{85}',
            'a', ' ', 'é', '\u{2028}', '\u{fffd}', '😀', '𝄞',
        ];
        (0..rng.gen_range(0..8))
            .map(|_| {
                if rng.gen() {
                    POOL[rng.gen_range(0..POOL.len())]
                } else {
                    // Any scalar value; the surrogate gap maps to the top.
                    char::from_u32(rng.gen_range(0..0x11_0000)).unwrap_or(char::MAX)
                }
            })
            .collect()
    }

    fn arb_number(rng: &mut SmallRng) -> f64 {
        match rng.gen_range(0..4) {
            0 => f64::from(rng.gen::<i32>()),
            1 => rng.gen_range(-1.0..1.0),
            2 => [0.0, -0.0, f64::MAX, f64::MIN_POSITIVE, 5e-324, 1e21][rng.gen_range(0..6)],
            _ => {
                let any = f64::from_bits(rng.gen());
                if any.is_finite() {
                    any
                } else {
                    0.5
                }
            }
        }
    }

    fn arb_value(rng: &mut SmallRng, depth: usize) -> Value {
        match rng.gen_range(0..if depth == 0 { 4 } else { 6 }) {
            0 => Value::Null,
            1 => Value::Bool(rng.gen()),
            2 => Value::Number(arb_number(rng)),
            3 => Value::String(arb_string(rng)),
            4 => Value::Array(
                (0..rng.gen_range(0..4))
                    .map(|_| arb_value(rng, depth - 1))
                    .collect(),
            ),
            _ => Value::Object(
                (0..rng.gen_range(0..4))
                    .map(|_| (arb_string(rng), arb_value(rng, depth - 1)))
                    .collect(),
            ),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn render_round_trips_through_parse(v in ArbValue) {
            for indent in [None, Some(2)] {
                let text = v.render(indent);
                prop_assert_eq!(parse(&text).as_ref(), Ok(&v), "rendered: {}", text);
            }
            // Every control character is escaped, so the compact form is
            // safe as one line of a JSONL file whatever the strings hold.
            prop_assert!(!v.render(None).contains('\n'));
        }
    }

    #[test]
    fn rendering_is_compact_or_indented_in_key_order() {
        let v = object([
            ("b", Value::Array(vec![1.0.into(), Value::Null])),
            ("a", object([("x", "y".into())])),
            ("c", Value::Array(Vec::new())),
            ("d", Value::Object(BTreeMap::new())),
        ]);
        assert_eq!(
            v.render(None),
            r#"{"a":{"x":"y"},"b":[1,null],"c":[],"d":{}}"#
        );
        assert_eq!(
            v.render(Some(2)),
            "{\n  \"a\": {\n    \"x\": \"y\"\n  },\n  \"b\": [\n    1,\n    null\n  ],\n  \
             \"c\": [],\n  \"d\": {}\n}"
        );
    }

    #[test]
    fn non_finite_numbers_render_null() {
        for n in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert_eq!(Value::Number(n).render(None), "null");
        }
        let v = Value::Array(vec![Value::Number(f64::NAN), Value::Number(1.5)]);
        assert_eq!(v.render(None), "[null,1.5]");
    }

    /// The escaper's output on every `char` below U+0100, pinned as text.
    /// This is what the copies in `export.rs` and `snapshot.rs` wrote, byte
    /// for byte, so no trace and no snapshot digest moves. The two
    /// `perfwatch` copies differed on three characters only — they spelled
    /// tab, newline and carriage return `\u0009`, `\u000a`, `\u000d` — which
    /// every reader resolves to the same characters, as the parse below
    /// checks.
    #[test]
    fn escape_into_is_pinned_below_u0100() {
        let all: String = (0..0x100).map(|c| char::from_u32(c).unwrap()).collect();
        let mut expected = String::from(concat!(
            r"\u0000\u0001\u0002\u0003\u0004\u0005\u0006\u0007\u0008\t\n\u000b\u000c\r\u000e\u000f",
            r"\u0010\u0011\u0012\u0013\u0014\u0015\u0016\u0017",
            r"\u0018\u0019\u001a\u001b\u001c\u001d\u001e\u001f",
            r##" !\"#$%&'()*+,-./0123456789:;<=>?@ABCDEFGHIJKLMNOPQRSTUVWXYZ[\\]^_`"##,
            r"abcdefghijklmnopqrstuvwxyz{|}~",
        ));
        // DEL, the C1 controls and Latin-1 pass through untouched.
        expected.extend((0x7f..0x100).map(|c| char::from_u32(c).unwrap()));
        let mut escaped = String::new();
        escape_into(&all, &mut escaped);
        assert_eq!(escaped, expected);
        assert_eq!(
            parse(&format!("\"{escaped}\"")).unwrap().as_str(),
            Some(all.as_str())
        );
    }
}
