//! A minimal JSON value, parser, and serializer.
//!
//! The workspace carries no external dependencies, so the wire protocol
//! hand-rolls its JSON the way PR 1 hand-rolled the rand/criterion
//! replacements: one [`Json`] enum, a recursive-descent [`parse`] with
//! byte-offset errors and a nesting-depth limit, and a serializer that
//! always emits valid JSON (non-finite numbers degrade to `null`).
//! Objects preserve insertion order — responses render the way handlers
//! build them.

use std::fmt;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (always an `f64`, like JavaScript).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in insertion order (duplicate keys: last one wins on
    /// lookup, both are serialized — parse never produces duplicates
    /// worth preserving, and handlers never insert them).
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Object constructor from `(key, value)` pairs.
    pub fn obj(pairs: Vec<(&str, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// String constructor.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// Number constructor.
    pub fn num(n: f64) -> Json {
        Json::Num(n)
    }

    /// Member of an object by key (`None` for non-objects/missing keys).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().rev().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string inside, if any.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The number inside, if any.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The number inside as an integer, if it is one (within f64's exact
    /// integer range).
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Json::Num(n) if n.fract() == 0.0 && n.abs() <= 2f64.powi(53) => Some(*n as i64),
            _ => None,
        }
    }

    /// The number inside as a non-negative integer, if it is one.
    pub fn as_usize(&self) -> Option<usize> {
        self.as_i64().and_then(|v| usize::try_from(v).ok())
    }

    /// The boolean inside, if any.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The array inside, if any.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// True for `null` (including a missing optional field's default).
    pub fn is_null(&self) -> bool {
        matches!(self, Json::Null)
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => f.write_str("null"),
            Json::Bool(b) => f.write_str(if *b { "true" } else { "false" }),
            Json::Num(n) => {
                if !n.is_finite() {
                    f.write_str("null")
                } else if n.fract() == 0.0 && n.abs() < 2f64.powi(53) {
                    fmt::Display::fmt(&(*n as i64), f)
                } else {
                    fmt::Display::fmt(n, f)
                }
            }
            Json::Str(s) => write_escaped(f, s),
            Json::Arr(items) => {
                f.write_str("[")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    item.fmt(f)?;
                }
                f.write_str("]")
            }
            Json::Obj(pairs) => {
                f.write_str("{")?;
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write_escaped(f, k)?;
                    f.write_str(":")?;
                    v.fmt(f)?;
                }
                f.write_str("}")
            }
        }
    }
}

/// Write `s` as a JSON string literal: each span between characters that
/// need escaping goes out in one `write_str`.
fn write_escaped(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    f.write_str("\"")?;
    let mut start = 0;
    for (i, b) in s.bytes().enumerate() {
        if b >= 0x20 && b != b'"' && b != b'\\' {
            continue;
        }
        // `b` is ASCII, so `i` is a char boundary.
        f.write_str(&s[start..i])?;
        match b {
            b'"' => f.write_str("\\\"")?,
            b'\\' => f.write_str("\\\\")?,
            b'\n' => f.write_str("\\n")?,
            b'\r' => f.write_str("\\r")?,
            b'\t' => f.write_str("\\t")?,
            _ => write!(f, "\\u{b:04x}")?,
        }
        start = i + 1;
    }
    f.write_str(&s[start..])?;
    f.write_str("\"")
}

/// A parse failure, with the byte offset it happened at.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset into the input.
    pub pos: usize,
    /// What went wrong.
    pub msg: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid JSON at byte {}: {}", self.pos, self.msg)
    }
}

impl std::error::Error for JsonError {}

/// Maximum container nesting (arrays/objects) accepted from the wire.
const MAX_DEPTH: usize = 64;

/// Parse a complete JSON document (trailing whitespace allowed, trailing
/// garbage rejected).
pub fn parse(input: &str) -> Result<Json, JsonError> {
    let mut p = Parser {
        text: input,
        pos: 0,
        stack: Vec::new(),
    };
    p.skip_ws();
    let v = p.value(0)?;
    p.skip_ws();
    if p.pos != p.text.len() {
        return Err(p.err("trailing characters after document"));
    }
    Ok(v)
}

struct Parser<'a> {
    text: &'a str,
    pos: usize,
    /// The elements of every array still open, innermost on top.
    stack: Vec<Json>,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: impl Into<String>) -> JsonError {
        JsonError {
            pos: self.pos,
            msg: msg.into(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected '{}'", b as char)))
        }
    }

    fn lit(&mut self, word: &str, v: Json) -> Result<Json, JsonError> {
        if self.text.as_bytes()[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(self.err(format!("expected '{word}'")))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, JsonError> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        match self.peek() {
            Some(b'n') => self.lit("null", Json::Null),
            Some(b't') => self.lit("true", Json::Bool(true)),
            Some(b'f') => self.lit("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => {
                self.pos += 1;
                self.skip_ws();
                if self.peek() == Some(b']') {
                    self.pos += 1;
                    return Ok(Json::Arr(Vec::new()));
                }
                // Elements gather on the shared stack and a closed array
                // is cut off its top: one allocation of exactly its
                // length, where a `Vec` grown by `push` reallocates its
                // way to the next power of two — for every matrix row.
                let start = self.stack.len();
                loop {
                    self.skip_ws();
                    let item = self.value(depth + 1)?;
                    self.stack.push(item);
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b']') => {
                            self.pos += 1;
                            return Ok(Json::Arr(self.stack.split_off(start)));
                        }
                        _ => return Err(self.err("expected ',' or ']'")),
                    }
                }
            }
            Some(b'{') => {
                self.pos += 1;
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
                    self.eat(b':')?;
                    self.skip_ws();
                    let val = self.value(depth + 1)?;
                    pairs.push((key, val));
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
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(c) => Err(self.err(format!("unexpected character '{}'", c as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        // Only ASCII was consumed, so both ends are char boundaries.
        let text = &self.text[start..self.pos];
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| self.err(format!("invalid number '{text}'")))
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            // Copy the run up to the next quote, backslash or control
            // byte in one `push_str`. All three are ASCII, so the run
            // starts and ends on char boundaries of the input `&str`.
            let start = self.pos;
            while matches!(self.peek(), Some(c) if c >= 0x20 && c != b'"' && c != b'\\') {
                self.pos += 1;
            }
            out.push_str(&self.text[start..self.pos]);
            match self.peek() {
                None => return Err(self.err("unterminated string")),
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
                            let cp = self.hex4()?;
                            // Surrogate pairs: a high surrogate must be
                            // followed by an escaped low surrogate.
                            let c = if (0xD800..0xDC00).contains(&cp) {
                                if self.text.as_bytes()[self.pos..].starts_with(b"\\u") {
                                    self.pos += 2;
                                    let lo = self.hex4()?;
                                    if !(0xDC00..0xE000).contains(&lo) {
                                        return Err(self.err("invalid low surrogate"));
                                    }
                                    let combined = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
                                    char::from_u32(combined)
                                } else {
                                    None
                                }
                            } else {
                                char::from_u32(cp)
                            };
                            match c {
                                Some(c) => out.push(c),
                                None => return Err(self.err("invalid \\u escape")),
                            }
                            continue; // hex4 advanced past the digits
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => return Err(self.err("control character in string")),
            }
        }
    }

    /// Four hex digits at the cursor, advancing past them.
    fn hex4(&mut self) -> Result<u32, JsonError> {
        let end = self.pos + 4;
        if end > self.text.len() {
            return Err(self.err("truncated \\u escape"));
        }
        let s = self
            .text
            .get(self.pos..end)
            .ok_or_else(|| self.err("non-ascii \\u escape"))?;
        let v = u32::from_str_radix(s, 16).map_err(|_| self.err("invalid \\u escape"))?;
        self.pos = end;
        Ok(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(v: &Json) {
        let text = v.to_string();
        let back = parse(&text).unwrap_or_else(|e| panic!("reparse of {text} failed: {e}"));
        assert_eq!(v, &back, "round-trip through {text}");
    }

    #[test]
    fn scalars_roundtrip() {
        for v in [
            Json::Null,
            Json::Bool(true),
            Json::Bool(false),
            Json::Num(0.0),
            Json::Num(-17.0),
            Json::Num(3.25),
            Json::Num(1e300),
            Json::Num(-2.5e-5),
            Json::str(""),
            Json::str("plain"),
            Json::str("quote \" backslash \\ newline \n tab \t unicode λ→∞ 😀"),
            Json::str("\u{1}control"),
        ] {
            roundtrip(&v);
        }
    }

    #[test]
    fn containers_roundtrip() {
        let v = Json::obj(vec![
            ("empty_arr", Json::Arr(vec![])),
            ("empty_obj", Json::Obj(vec![])),
            (
                "nested",
                Json::Arr(vec![
                    Json::Num(1.0),
                    Json::obj(vec![("k", Json::Arr(vec![Json::Null, Json::Bool(false)]))]),
                    Json::str("s"),
                ]),
            ),
        ]);
        roundtrip(&v);
    }

    #[test]
    fn seeded_random_documents_roundtrip() {
        let mut rng = rain_linalg::RainRng::seed_from_u64(99);
        for _ in 0..200 {
            roundtrip(&random_json(&mut rng, 0));
        }
    }

    fn random_json(rng: &mut rain_linalg::RainRng, depth: usize) -> Json {
        let max = if depth >= 4 { 4 } else { 6 };
        match rng.below(max) {
            0 => Json::Null,
            1 => Json::Bool(rng.bernoulli(0.5)),
            2 => Json::Num((rng.uniform_range(-1e6, 1e6) * 8.0).round() / 8.0),
            3 => {
                let chars = ["a", "λ", "\"", "\\", "\n", " ", "0", "😀", "\u{7}"];
                let n = rng.below(8);
                Json::Str((0..n).map(|_| chars[rng.below(chars.len())]).collect())
            }
            4 => Json::Arr(
                (0..rng.below(4))
                    .map(|_| random_json(rng, depth + 1))
                    .collect(),
            ),
            _ => Json::Obj(
                (0..rng.below(4))
                    .map(|i| (format!("k{i}"), random_json(rng, depth + 1)))
                    .collect(),
            ),
        }
    }

    /// A random scalar value from every width class: ASCII (controls,
    /// quote and backslash included), 2-, 3- and 4-byte.
    fn random_char(rng: &mut rain_linalg::RainRng) -> char {
        let (lo, hi) = match rng.below(5) {
            0 => (0x00, 0x20),
            1 => (0x20, 0x80),
            2 => (0x80, 0x800),
            3 => (0x800, 0x1_0000),
            _ => (0x1_0000, 0x11_0000),
        };
        loop {
            // Surrogates are the one gap in the scalar range.
            if let Some(c) = char::from_u32(lo + rng.below((hi - lo) as usize) as u32) {
                return c;
            }
        }
    }

    #[test]
    fn seeded_random_unicode_strings_roundtrip() {
        let mut rng = rain_linalg::RainRng::seed_from_u64(0x5EED);
        for _ in 0..500 {
            let s: String = (0..rng.below(24)).map(|_| random_char(&mut rng)).collect();
            roundtrip(&Json::Str(s.clone()));
            roundtrip(&Json::Obj(vec![(s, Json::Null)]));
        }
    }

    #[test]
    fn strings_at_run_boundaries() {
        // Escapes right after a multi-byte scalar, at either end of a
        // run, back to back, and a run that is the whole string.
        for (text, want) in [
            (r#""λ\n""#, "λ\n"),
            (r#""😀\u0041😀""#, "😀A😀"),
            (r#""\t→\t""#, "\t→\t"),
            (r#""\\\"\/""#, "\\\"/"),
            (r#""plain run""#, "plain run"),
            (r#""\ud83d\ude00""#, "😀"),
            (r#""é\ud83d\ude00é""#, "é😀é"),
            (r#""""#, ""),
        ] {
            assert_eq!(parse(text).unwrap(), Json::str(want), "parsing {text}");
        }
    }

    #[test]
    fn malformed_strings_fail_at_the_offending_byte() {
        for (text, pos, msg) in [
            // Lone high surrogate: reported after its four digits.
            (r#""\ud83d""#, 7, "invalid \\u escape"),
            (r#""λ\ud83dx""#, 9, "invalid \\u escape"),
            // High surrogate followed by a non-low escape.
            (r#""\ud83d\u0041""#, 13, "invalid low surrogate"),
            // Lone low surrogate.
            (r#""\ude00""#, 7, "invalid \\u escape"),
            // Raw control byte in the middle of a run, after a 2-byte scalar.
            ("\"aλ\u{1}b\"", 4, "control character in string"),
            ("\"a\nb\"", 2, "control character in string"),
            // Unterminated: at the end of the input.
            ("\"abc", 4, "unterminated string"),
            ("\"λ", 3, "unterminated string"),
            ("\"ab\\", 4, "invalid escape"),
            ("\"ab\\q\"", 4, "invalid escape"),
            ("\"\\u12", 3, "truncated \\u escape"),
            ("\"\\u123λ\"", 3, "non-ascii \\u escape"),
            ("\"\\u12λ\"", 3, "invalid \\u escape"),
            ("\"\\u12zz\"", 3, "invalid \\u escape"),
        ] {
            let e = parse(text).unwrap_err();
            assert_eq!((e.pos, e.msg.as_str()), (pos, msg), "parsing {text:?}");
        }
    }

    #[test]
    fn numbers_parse_exactly() {
        for (text, want) in [
            ("0", 0.0),
            ("7", 7.0),
            ("-12", -12.0),
            ("007", 7.0),
            ("999999999999999", 999_999_999_999_999.0),
            ("9007199254740993", 9_007_199_254_740_992.0),
            ("123456789012345678901234567890", 1.234_567_890_123_456_8e29),
            ("1.5", 1.5),
            ("-2.5e-5", -2.5e-5),
            ("1e308", 1e308),
            ("5e-324", 5e-324),
            ("12E2", 1200.0),
        ] {
            assert_eq!(parse(text).unwrap(), Json::Num(want), "parsing {text}");
        }
        // The sign of zero survives.
        let Json::Num(z) = parse("-0").unwrap() else {
            panic!("-0 is a number")
        };
        assert!(z == 0.0 && z.is_sign_negative());
        for bad in ["-", "1e", "+1", "-a"] {
            assert!(parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn nested_and_sibling_arrays_keep_their_own_elements() {
        // Arrays share one element stack while open: siblings of every
        // length in both orders, nesting, scalars after a closed child.
        let text = "[[1,2,3],[],[4],[5,6,7,8],[[9],[10,11],12],\"s\",[13],{\"k\":[14,[15]]}]";
        assert_eq!(parse(text).unwrap().to_string(), text);
        for bad in ["[[1,2],[3,", "[[1,2],[3,x]]", "[1,[2,[3]]"] {
            assert!(parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn parses_standard_syntax() {
        let v = parse(r#" { "a" : [ 1 , 2.5e1 , -3 ] , "b" : { } , "c" : "\u0041\ud83d\ude00" } "#)
            .unwrap();
        assert_eq!(v.get("a").unwrap().as_arr().unwrap()[1], Json::Num(25.0));
        assert_eq!(v.get("c").unwrap().as_str().unwrap(), "A😀");
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "}",
            "[1,",
            "[1 2]",
            "{\"a\"}",
            "{\"a\":}",
            "{a:1}",
            "tru",
            "1.2.3",
            "\"unterminated",
            "[1] trailing",
            "\u{1}",
            "{\"a\":1,}",
            "\"\\q\"",
            "\"\\u12\"",
            "nan",
            "--1",
        ] {
            assert!(parse(bad).is_err(), "accepted malformed {bad:?}");
        }
        // Depth bomb.
        let deep = "[".repeat(100) + &"]".repeat(100);
        assert!(parse(&deep).is_err());
    }

    #[test]
    fn accessors() {
        let v = parse(r#"{"n": 3, "s": "x", "b": true, "a": [1], "dup": 1, "dup": 2}"#).unwrap();
        assert_eq!(v.get("n").unwrap().as_i64(), Some(3));
        assert_eq!(v.get("n").unwrap().as_usize(), Some(3));
        assert_eq!(v.get("s").unwrap().as_str(), Some("x"));
        assert_eq!(v.get("b").unwrap().as_bool(), Some(true));
        assert_eq!(v.get("a").unwrap().as_arr().unwrap().len(), 1);
        assert_eq!(v.get("missing"), None);
        assert_eq!(v.get("dup").unwrap().as_i64(), Some(2), "last key wins");
        assert_eq!(Json::Num(1.5).as_i64(), None);
        assert_eq!(Json::Num(-1.0).as_usize(), None);
    }

    #[test]
    fn non_finite_numbers_serialize_as_null() {
        assert_eq!(Json::Num(f64::NAN).to_string(), "null");
        assert_eq!(Json::Num(f64::INFINITY).to_string(), "null");
    }
}
