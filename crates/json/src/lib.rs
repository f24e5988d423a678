//! `vpsim-json` — the one hand-rolled JSON toolkit for the workspace.
//!
//! The workspace builds offline with zero registry dependencies, so
//! every subsystem that speaks JSON (the campaign manifest, the bench
//! baseline documents, the serving plane's campaign specs) rolls its
//! own encoding. This crate is the single shared implementation:
//!
//! * [`escape_into`]/[`escaped`] — JSON string escaping for writers;
//! * the *line-field* helpers ([`field_raw`], [`field_str`],
//!   [`field_u64`], [`field_hex`], [`field_f64`]) — O(1)-allocation
//!   extraction of `"key": value` pairs from the one-object-per-line
//!   documents the manifest and the fleet's frames use. Tolerant of
//!   optional whitespace after the colon, so both historical formats
//!   parse; a value with no `,`/`}` terminator is treated as torn and
//!   returns `None` (truncated manifest tails must fail to parse);
//! * a full recursive parser ([`parse`] → [`Json`]) for nested
//!   documents: the specs the serving plane accepts from untrusted
//!   clients and the bench baselines — hardened with a depth cap and
//!   typed one-line [`JsonError`]s, never a panic or unbounded
//!   recursion.
//!
//! Numbers are kept as their raw lexemes ([`Json::Num`]) so `u64`
//! seeds round-trip bit-exactly — converting through `f64` would
//! silently corrupt anything above 2^53.

#![forbid(unsafe_code)]

use std::fmt;

// ---------------------------------------------------------------------
// Escaping.
// ---------------------------------------------------------------------

/// Append `s` to `out` with JSON string escaping (quotes, backslashes,
/// and control characters; everything else passes through verbatim).
pub fn escape_into(out: &mut String, s: &str) {
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
}

/// The escaped form of `s`, ready to sit between double quotes.
#[must_use]
pub fn escaped(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    escape_into(&mut out, s);
    out
}

// ---------------------------------------------------------------------
// Line-field extraction (flat, one-object-per-line documents).
// ---------------------------------------------------------------------

/// Extract the raw text of `"key": value` from a single-line JSON
/// object (no nesting *inside the value*, no escaped quotes — the
/// workspace writers never emit any). Whitespace after the colon is
/// optional. Returns `None` when the key is absent or the value has no
/// `,`/`}` terminator on the line — a torn (truncated) line must fail
/// to parse rather than yield a half-value.
#[must_use]
pub fn field_raw<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let needle = format!("\"{key}\":");
    let start = line.find(&needle)? + needle.len();
    let rest = line[start..].trim_start();
    let end = rest.find([',', '}'])?;
    Some(rest[..end].trim())
}

/// The value of `"key"` as a string, quotes stripped.
#[must_use]
pub fn field_str<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    Some(field_raw(line, key)?.trim_matches('"'))
}

/// `digits` as an unsigned number in `radix`, or `None` unless it is one
/// or more digits of that radix: Rust's integer parsers also take a
/// leading `+`, which neither JSON nor HTTP allow.
#[must_use]
pub fn parse_unsigned(digits: &str, radix: u32) -> Option<u64> {
    if digits.is_empty() || !digits.chars().all(|c| c.is_digit(radix)) {
        return None;
    }
    u64::from_str_radix(digits, radix).ok()
}

/// The value of `"key"` parsed as a `u64`.
#[must_use]
pub fn field_u64(line: &str, key: &str) -> Option<u64> {
    parse_unsigned(field_raw(line, key)?, 10)
}

/// The value of `"key"` parsed as an `f64`.
#[must_use]
pub fn field_f64(line: &str, key: &str) -> Option<f64> {
    field_raw(line, key)?.parse().ok()
}

/// The value of `"key"` — a quoted hex string — as the raw `u64` bits.
#[must_use]
pub fn field_hex(line: &str, key: &str) -> Option<u64> {
    parse_unsigned(field_raw(line, key)?.trim_matches('"'), 16)
}

// ---------------------------------------------------------------------
// The recursive parser, for nested documents from untrusted clients.
// ---------------------------------------------------------------------

/// Maximum nesting depth [`parse`] accepts. Deeper inputs are hostile
/// (or broken) and are rejected with a typed error instead of chewing
/// through stack.
pub const MAX_DEPTH: usize = 32;

/// A parsed JSON value.
///
/// Numbers keep their raw lexeme so integer precision survives:
/// [`Json::as_u64`] parses the lexeme directly instead of routing
/// through `f64`.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number, as its raw lexeme (e.g. `"-12"`, `"3.5e2"`).
    Num(String),
    /// A string (unescaped).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in source order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Object field lookup (first match, linear).
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a `u64`, if this is an integral number in range.
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(raw) => raw.parse().ok(),
            _ => None,
        }
    }

    /// The value as an `f64`, if this is a number.
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(raw) => raw.parse().ok(),
            _ => None,
        }
    }

    /// The boolean payload, if this is a bool.
    #[must_use]
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The element list, if this is an array.
    #[must_use]
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The field list, if this is an object.
    #[must_use]
    pub fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(fields) => Some(fields),
            _ => None,
        }
    }
}

/// Why an input failed to parse. Renders as one line naming the byte
/// offset, so hostile inputs produce a bounded, loggable diagnostic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset of the failure.
    pub offset: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid JSON at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

struct Parser<'a> {
    src: &'a str,
    /// Byte offset into `src`; always on a char boundary.
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err<T>(&self, message: impl Into<String>) -> Result<T, JsonError> {
        Err(JsonError {
            offset: self.pos,
            message: message.into(),
        })
    }

    fn peek(&self) -> Option<u8> {
        self.src.as_bytes().get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            self.err(format!("expected `{}`", b as char))
        }
    }

    fn parse_value(&mut self, depth: usize) -> Result<Json, JsonError> {
        if depth > MAX_DEPTH {
            return self.err(format!("nesting deeper than {MAX_DEPTH}"));
        }
        self.skip_ws();
        match self.peek() {
            None => self.err("unexpected end of input"),
            Some(b'{') => self.parse_object(depth),
            Some(b'[') => self.parse_array(depth),
            Some(b'"') => Ok(Json::Str(self.parse_string()?)),
            Some(b't') => self.parse_keyword("true", Json::Bool(true)),
            Some(b'f') => self.parse_keyword("false", Json::Bool(false)),
            Some(b'n') => self.parse_keyword("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.parse_number(),
            Some(other) => self.err(format!("unexpected byte 0x{other:02x}")),
        }
    }

    fn parse_keyword(&mut self, word: &str, value: Json) -> Result<Json, JsonError> {
        if self.src[self.pos..].starts_with(word) {
            self.pos += word.len();
            Ok(value)
        } else {
            self.err(format!("expected `{word}`"))
        }
    }

    fn parse_number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let digits = |p: &mut Parser<'_>| {
            let from = p.pos;
            while matches!(p.peek(), Some(b'0'..=b'9')) {
                p.pos += 1;
            }
            p.pos > from
        };
        if !digits(self) {
            return self.err("malformed number");
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            if !digits(self) {
                return self.err("malformed number (no fraction digits)");
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if !digits(self) {
                return self.err("malformed number (no exponent digits)");
            }
        }
        let raw = self.src[start..self.pos].to_owned();
        // Sanity-parse: the lexeme must be representable at all.
        if raw.parse::<f64>().is_err() {
            return self.err("number out of range");
        }
        Ok(Json::Num(raw))
    }

    fn parse_string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return self.err("unterminated string"),
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
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            // Exactly four hex digits, so at most 0xffff.
                            let hex = self
                                .src
                                .get(self.pos + 1..self.pos + 5)
                                .and_then(|h| parse_unsigned(h, 16));
                            match hex.and_then(|h| char::from_u32(h as u32)) {
                                // Surrogate halves and lone \u escapes
                                // outside the BMP are rejected rather
                                // than decoded — the workspace writers
                                // never emit them.
                                Some(c) => {
                                    out.push(c);
                                    self.pos += 4;
                                }
                                None => return self.err("bad \\u escape"),
                            }
                        }
                        _ => return self.err("bad escape"),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar, decoded from the input in
                    // place (not re-validating the rest keeps this linear).
                    let c = self.src[self.pos..]
                        .chars()
                        .next()
                        .expect("non-empty checked above");
                    if (c as u32) < 0x20 {
                        return self.err("raw control character in string");
                    }
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn parse_array(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.parse_value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return self.err("expected `,` or `]`"),
            }
        }
    }

    fn parse_object(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.parse_string()?;
            self.skip_ws();
            self.expect(b':')?;
            let value = self.parse_value(depth + 1)?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return self.err("expected `,` or `}`"),
            }
        }
    }
}

/// Parse a complete JSON document. Trailing non-whitespace is an
/// error; nesting is capped at [`MAX_DEPTH`].
///
/// # Errors
///
/// Returns a one-line [`JsonError`] naming the byte offset of the
/// first problem. Never panics, whatever the input.
pub fn parse(input: &str) -> Result<Json, JsonError> {
    let mut p = Parser { src: input, pos: 0 };
    let value = p.parse_value(0)?;
    p.skip_ws();
    if p.pos != p.src.len() {
        return p.err("trailing data after document");
    }
    Ok(value)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn field_helpers_extract_both_spacing_styles() {
        let tight = "{\"cell\":3,\"m_obs\":\"4080e00000000000\",\"wall_ns\":91827}";
        assert_eq!(field_u64(tight, "cell"), Some(3));
        assert_eq!(field_hex(tight, "m_obs"), Some(0x4080_e000_0000_0000));
        assert_eq!(field_u64(tight, "wall_ns"), Some(91827));
        let spaced = "    {\"workload\": \"flush_reload\", \"cycles\": 812, \"rate\": 1.5}";
        assert_eq!(field_str(spaced, "workload"), Some("flush_reload"));
        assert_eq!(field_u64(spaced, "cycles"), Some(812));
        assert_eq!(field_f64(spaced, "rate"), Some(1.5));
        assert_eq!(field_u64(spaced, "missing"), None);
    }

    #[test]
    fn torn_tail_fails_field_extraction() {
        // No terminator after the value: must be treated as torn.
        assert_eq!(field_u64("{\"cell\":3,\"trial\":1", "trial"), None);
        assert_eq!(field_u64("{\"cell\":3,\"trial\":1", "cell"), Some(3));
    }

    #[test]
    fn signed_field_values_are_not_numbers() {
        assert_eq!(field_u64("{\"cell\":+7}", "cell"), None);
        assert_eq!(field_hex("{\"obs\":\"+ff\"}", "obs"), None);
        assert_eq!(field_hex("{\"obs\":\"ff\"}", "obs"), Some(255));
    }

    #[test]
    fn escape_round_trips_through_parser() {
        let nasty = "he said \"hi\\there\"\n\tok\u{1}";
        let doc = format!("{{\"k\":\"{}\"}}", escaped(nasty));
        let parsed = parse(&doc).unwrap();
        assert_eq!(parsed.get("k").unwrap().as_str(), Some(nasty));
    }

    #[test]
    fn parses_nested_documents() {
        let doc = r#"{"name":"t","n":-3,"big":18446744073709551615,
                      "f":2.5e-1,"ok":true,"none":null,
                      "cells":[{"a":1},{"a":2}]}"#;
        let v = parse(doc).unwrap();
        assert_eq!(v.get("name").unwrap().as_str(), Some("t"));
        assert_eq!(v.get("n").unwrap().as_u64(), None);
        assert_eq!(v.get("n").unwrap().as_f64(), Some(-3.0));
        assert_eq!(v.get("big").unwrap().as_u64(), Some(u64::MAX));
        assert_eq!(v.get("f").unwrap().as_f64(), Some(0.25));
        assert_eq!(v.get("ok").unwrap().as_bool(), Some(true));
        assert_eq!(v.get("none").unwrap(), &Json::Null);
        let cells = v.get("cells").unwrap().as_arr().unwrap();
        assert_eq!(cells.len(), 2);
        assert_eq!(cells[1].get("a").unwrap().as_u64(), Some(2));
    }

    #[test]
    fn u64_precision_survives() {
        // 2^53 + 1 is the first integer f64 cannot represent.
        let v = parse("{\"seed\":9007199254740993}").unwrap();
        assert_eq!(v.get("seed").unwrap().as_u64(), Some(9_007_199_254_740_993));
    }

    #[test]
    fn hostile_inputs_error_one_line() {
        for bad in [
            "",
            "{",
            "}",
            "{\"a\":}",
            "{\"a\" 1}",
            "[1,2",
            "\"unterminated",
            "nul",
            "01x",
            "--3",
            "1e",
            "{\"a\":1}garbage",
            "\u{7f}",
            "{\"k\":\"\u{1}\"}",
            "\"\\u+041\"",
        ] {
            let err = parse(bad).unwrap_err();
            let msg = err.to_string();
            assert!(!msg.contains('\n'), "multi-line error for {bad:?}: {msg}");
        }
    }

    #[test]
    fn depth_is_capped() {
        let deep = "[".repeat(200) + &"]".repeat(200);
        let err = parse(&deep).unwrap_err();
        assert!(err.to_string().contains("nesting"), "{err}");
        let ok = "[".repeat(MAX_DEPTH) + &"]".repeat(MAX_DEPTH);
        assert!(parse(&ok).is_ok());
    }
}
