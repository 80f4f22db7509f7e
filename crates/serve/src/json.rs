//! A minimal JSON value, parser and writer.
//!
//! The workspace deliberately has no external dependencies (the build
//! environment pins crates-io to an offline mirror), so the serve
//! protocol carries its own JSON layer: the subset the newline-
//! delimited protocol needs — objects, arrays, strings with standard
//! escapes, `f64` numbers, booleans, null — parsed by a small
//! recursive-descent parser with a depth limit.

use std::fmt;

/// Maximum nesting depth accepted by the parser; protocol messages are
/// flat objects, so anything deep is hostile input.
const MAX_DEPTH: usize = 32;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (stored as `f64`; the protocol's integers stay well
    /// inside the 2⁵³ exact range).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in insertion order (the writer preserves it, so
    /// emitted messages are deterministic).
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parses one JSON document, requiring it to span the whole input.
    ///
    /// # Errors
    ///
    /// A message with the byte offset of the first problem.
    pub fn parse(text: &str) -> Result<Json, String> {
        let bytes = text.as_bytes();
        let mut pos = 0usize;
        let value = parse_value(bytes, &mut pos, 0)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing garbage at byte {pos}"));
        }
        Ok(value)
    }

    /// An object from key/value pairs (helper for building messages).
    pub fn obj(pairs: Vec<(&str, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// A string value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// A number value from anything convertible to `f64`.
    pub fn num(n: impl Into<f64>) -> Json {
        Json::Num(n.into())
    }

    /// Object field lookup (first match; `None` on non-objects).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The numeric payload as a non-negative integer (rejects
    /// fractions and negatives).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= 2f64.powi(53) => Some(*n as u64),
            _ => None,
        }
    }

    /// The numeric payload as a (possibly negative) integer.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Json::Num(n) if n.fract() == 0.0 && n.abs() <= 2f64.powi(53) => Some(*n as i64),
            _ => None,
        }
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => write!(f, "null"),
            Json::Bool(b) => write!(f, "{b}"),
            // JSON has no NaN or infinity: write them as `null`, so
            // that everything written parses back.
            Json::Num(n) if !n.is_finite() => write!(f, "null"),
            Json::Num(n) => {
                if n.fract() == 0.0 && n.abs() < 2f64.powi(53) {
                    write!(f, "{}", *n as i64)
                } else {
                    write!(f, "{n}")
                }
            }
            Json::Str(s) => write_escaped(f, s),
            Json::Arr(items) => {
                write!(f, "[")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        write!(f, ",")?;
                    }
                    write!(f, "{item}")?;
                }
                write!(f, "]")
            }
            Json::Obj(pairs) => {
                write!(f, "{{")?;
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        write!(f, ",")?;
                    }
                    write_escaped(f, k)?;
                    write!(f, ":{v}")?;
                }
                write!(f, "}}")
            }
        }
    }
}

fn write_escaped(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    write!(f, "\"")?;
    for c in s.chars() {
        match c {
            '"' => write!(f, "\\\"")?,
            '\\' => write!(f, "\\\\")?,
            '\n' => write!(f, "\\n")?,
            '\r' => write!(f, "\\r")?,
            '\t' => write!(f, "\\t")?,
            c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
            c => write!(f, "{c}")?,
        }
    }
    write!(f, "\"")
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    if depth > MAX_DEPTH {
        return Err(format!("nesting deeper than {MAX_DEPTH}"));
    }
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err("unexpected end of input".to_string()),
        Some(b'{') => parse_object(bytes, pos, depth),
        Some(b'[') => parse_array(bytes, pos, depth),
        Some(b'"') => parse_string(bytes, pos).map(Json::Str),
        Some(b't') => parse_literal(bytes, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_literal(bytes, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_literal(bytes, pos, "null", Json::Null),
        Some(_) => parse_number(bytes, pos),
    }
}

fn parse_literal(bytes: &[u8], pos: &mut usize, word: &str, value: Json) -> Result<Json, String> {
    if bytes[*pos..].starts_with(word.as_bytes()) {
        *pos += word.len();
        Ok(value)
    } else {
        Err(format!("bad literal at byte {pos}", pos = *pos))
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
    {
        *pos += 1;
    }
    let text = std::str::from_utf8(&bytes[start..*pos]).map_err(|_| "bad utf-8".to_string())?;
    let n: f64 = text
        .parse()
        .map_err(|_| format!("bad number `{text}` at byte {start}"))?;
    if !n.is_finite() {
        return Err(format!("non-finite number `{text}` at byte {start}"));
    }
    Ok(Json::Num(n))
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    debug_assert_eq!(bytes[*pos], b'"');
    *pos += 1;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err("unterminated string".to_string()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'u') => {
                        let hi = parse_hex4(bytes, pos)?;
                        let c = if (0xD800..0xDC00).contains(&hi) {
                            // Surrogate pair: expect \uXXXX low half.
                            if bytes.get(*pos + 1) == Some(&b'\\')
                                && bytes.get(*pos + 2) == Some(&b'u')
                            {
                                *pos += 2;
                                let lo = parse_hex4(bytes, pos)?;
                                let code =
                                    0x10000 + ((hi - 0xD800) << 10) + (lo.wrapping_sub(0xDC00));
                                char::from_u32(code)
                            } else {
                                None
                            }
                        } else {
                            char::from_u32(hi)
                        };
                        out.push(c.ok_or_else(|| format!("bad \\u escape at byte {}", *pos))?);
                    }
                    _ => return Err(format!("bad escape at byte {}", *pos)),
                }
                *pos += 1;
            }
            Some(&b) if b < 0x20 => return Err(format!("raw control byte at {}", *pos)),
            Some(_) => {
                // Copy the run of plain bytes up to the next quote,
                // backslash or control byte in one step. Those stop
                // bytes are ASCII, so the run of the `&str` input ends on
                // a char boundary, and each byte is validated once.
                let start = *pos;
                while bytes
                    .get(*pos)
                    .is_some_and(|&b| b != b'"' && b != b'\\' && b >= 0x20)
                {
                    *pos += 1;
                }
                let run = std::str::from_utf8(&bytes[start..*pos])
                    .map_err(|_| "bad utf-8".to_string())?;
                out.push_str(run);
            }
        }
    }
}

/// Parses the 4 hex digits after `\u`; `pos` points at `u` on entry
/// and at the last digit on exit.
fn parse_hex4(bytes: &[u8], pos: &mut usize) -> Result<u32, String> {
    let start = *pos + 1;
    let hex = bytes
        .get(start..start + 4)
        .ok_or_else(|| "truncated \\u escape".to_string())?;
    let hex = std::str::from_utf8(hex).map_err(|_| "bad \\u escape".to_string())?;
    let code = u32::from_str_radix(hex, 16).map_err(|_| format!("bad \\u escape `{hex}`"))?;
    *pos += 4;
    Ok(code)
}

fn parse_array(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    *pos += 1; // '['
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Arr(items));
    }
    loop {
        items.push(parse_value(bytes, pos, depth + 1)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            _ => return Err(format!("expected `,` or `]` at byte {}", *pos)),
        }
    }
}

fn parse_object(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    *pos += 1; // '{'
    let mut pairs = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Obj(pairs));
    }
    loop {
        skip_ws(bytes, pos);
        if bytes.get(*pos) != Some(&b'"') {
            return Err(format!("expected a key string at byte {}", *pos));
        }
        let key = parse_string(bytes, pos)?;
        skip_ws(bytes, pos);
        if bytes.get(*pos) != Some(&b':') {
            return Err(format!("expected `:` at byte {}", *pos));
        }
        *pos += 1;
        let value = parse_value(bytes, pos, depth + 1)?;
        pairs.push((key, value));
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Obj(pairs));
            }
            _ => return Err(format!("expected `,` or `}}` at byte {}", *pos)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_protocol_shapes() {
        let text = r#"{"cmd":"submit","id":"j1","vectors":256,"deep":[1,2.5,-3,true,false,null],"s":"a\"b\\c\nd"}"#;
        let v = Json::parse(text).unwrap();
        assert_eq!(v.get("cmd").and_then(Json::as_str), Some("submit"));
        assert_eq!(v.get("vectors").and_then(Json::as_u64), Some(256));
        let reprinted = v.to_string();
        assert_eq!(Json::parse(&reprinted).unwrap(), v);
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\"}",
            "{\"a\":}",
            "tru",
            "1.2.3",
            "\"\\q\"",
            "{} {}",
            "\"unterminated",
            "nan",
            "1e999",
        ] {
            assert!(Json::parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn rejects_hostile_depth() {
        let deep = "[".repeat(200) + &"]".repeat(200);
        assert!(Json::parse(&deep).unwrap_err().contains("nesting"));
    }

    #[test]
    fn unicode_escapes() {
        assert_eq!(
            Json::parse(r#""\u0041\u00e9\ud83d\ude00""#).unwrap(),
            Json::Str("Aé😀".to_string())
        );
        assert!(Json::parse(r#""\ud800""#).is_err()); // lone surrogate
    }

    #[test]
    fn long_strings_decode_in_linear_time() {
        // A multi-megabyte submit line must not stall the reader: a
        // decoder that re-validates the rest of the line per character
        // takes minutes on this input.
        let text: String = "gate = NAND(a, b); # é😀 \\\"\\n\\u00e9 ".repeat(16_000);
        let line = Json::Str(text.clone()).to_string();
        let t0 = std::time::Instant::now();
        assert_eq!(Json::parse(&line).unwrap(), Json::Str(text));
        assert!(t0.elapsed().as_secs() < 2, "took {:?}", t0.elapsed());
    }

    #[test]
    fn integers_print_without_fraction() {
        assert_eq!(Json::num(4u32).to_string(), "4");
        assert_eq!(Json::num(2.5).to_string(), "2.5");
        assert_eq!(Json::Num(-0.0).to_string(), "0");
    }

    #[test]
    fn non_finite_numbers_write_as_null_and_parse_back() {
        for n in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let text = Json::num(n).to_string();
            assert_eq!(text, "null");
            assert_eq!(Json::parse(&text).unwrap(), Json::Null);
        }
        let meta = Json::obj(vec![("delta_ser", Json::num(f64::NAN))]).to_string();
        assert_eq!(meta, r#"{"delta_ser":null}"#);
        assert_eq!(
            Json::parse(&meta).unwrap().get("delta_ser"),
            Some(&Json::Null)
        );
    }

    #[test]
    fn control_chars_escape_on_output() {
        let s = Json::Str("a\u{1}b".to_string()).to_string();
        assert_eq!(s, "\"a\\u0001b\"");
        assert_eq!(Json::parse(&s).unwrap(), Json::Str("a\u{1}b".to_string()));
    }
}
