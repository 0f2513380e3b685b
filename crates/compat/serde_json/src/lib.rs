//! Offline stand-in for `serde_json`.
//!
//! Renders the vendored `serde` [`Content`](serde::Content) tree as JSON
//! (compact and pretty, 2-space indent, field order preserved) and parses
//! JSON text back into the same tree. Output is deterministic: the same
//! value always serializes to the same bytes, which the experiment
//! harness's `--jobs` equivalence guarantee and run cache rely on.

use serde::Serialize;

/// The parsed/serializable JSON tree (alias of the serde data model).
pub type Value = serde::Content;

/// Serialization/parse error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Error(String);

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for Error {}

/// Serializes `value` as compact JSON.
///
/// # Errors
///
/// Never fails for tree-representable values; the `Result` mirrors the
/// upstream signature.
pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_value(&mut out, &value.to_content(), None, 0);
    Ok(out)
}

/// Serializes `value` as pretty JSON (2-space indent, like upstream).
///
/// # Errors
///
/// Never fails for tree-representable values; the `Result` mirrors the
/// upstream signature.
pub fn to_string_pretty<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_value(&mut out, &value.to_content(), Some("  "), 0);
    Ok(out)
}

/// How many arrays and objects may nest: upstream `serde_json`'s default
/// recursion limit. The parser recurses once per level, so without a cap
/// a file of `[`s would overflow the stack.
const MAX_DEPTH: usize = 128;

/// Parses JSON text into a [`Value`] tree.
///
/// # Errors
///
/// Fails on malformed JSON, or on arrays and objects nested more than
/// 128 deep, with a byte-offset diagnostic.
pub fn from_str(text: &str) -> Result<Value, Error> {
    let bytes = text.as_bytes();
    let mut pos = 0usize;
    let v = parse_value(bytes, &mut pos, 0)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(Error(format!("trailing data at byte {pos}")));
    }
    Ok(v)
}

fn write_value(out: &mut String, v: &Value, indent: Option<&str>, depth: usize) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::U64(x) => out.push_str(&x.to_string()),
        Value::I64(x) => out.push_str(&x.to_string()),
        Value::F64(x) => write_f64(out, *x),
        Value::Str(s) => write_string(out, s),
        Value::Seq(items) => {
            write_compound(out, indent, depth, items.is_empty(), '[', ']', |out| {
                for (i, item) in items.iter().enumerate() {
                    write_sep(out, indent, depth + 1, i == 0);
                    write_value(out, item, indent, depth + 1);
                }
            })
        }
        Value::Map(entries) => {
            write_compound(out, indent, depth, entries.is_empty(), '{', '}', |out| {
                for (i, (k, item)) in entries.iter().enumerate() {
                    write_sep(out, indent, depth + 1, i == 0);
                    write_string(out, k);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    write_value(out, item, indent, depth + 1);
                }
            });
        }
    }
}

fn write_compound(
    out: &mut String,
    indent: Option<&str>,
    depth: usize,
    empty: bool,
    open: char,
    close: char,
    body: impl FnOnce(&mut String),
) {
    out.push(open);
    if empty {
        out.push(close);
        return;
    }
    body(out);
    if let Some(pad) = indent {
        out.push('\n');
        for _ in 0..depth {
            out.push_str(pad);
        }
    }
    out.push(close);
}

fn write_sep(out: &mut String, indent: Option<&str>, depth: usize, first: bool) {
    if !first {
        out.push(',');
    }
    if let Some(pad) = indent {
        out.push('\n');
        for _ in 0..depth {
            out.push_str(pad);
        }
    }
}

/// Floats print with a shortest round-trip representation, always with a
/// decimal point or exponent so they re-parse as floats (upstream ryu
/// behaviour).
fn write_f64(out: &mut String, x: f64) {
    if x.is_nan() || x.is_infinite() {
        // Upstream serde_json emits null for non-finite floats.
        out.push_str("null");
        return;
    }
    let s = format!("{x:?}");
    out.push_str(&s);
    if !s.contains(['.', 'e', 'E']) {
        out.push_str(".0");
    }
}

fn write_string(out: &mut String, s: &str) {
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

// ---- parsing

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

/// Parses one value whose enclosing containers are `depth` deep.
fn parse_value(b: &[u8], pos: &mut usize, depth: usize) -> Result<Value, Error> {
    skip_ws(b, pos);
    if matches!(b.get(*pos), Some(b'[' | b'{')) && depth == MAX_DEPTH {
        return Err(Error(format!(
            "nesting deeper than {MAX_DEPTH} at byte {pos}"
        )));
    }
    match b.get(*pos) {
        None => Err(Error("unexpected end of input".into())),
        Some(b'n') => parse_lit(b, pos, "null", Value::Null),
        Some(b't') => parse_lit(b, pos, "true", Value::Bool(true)),
        Some(b'f') => parse_lit(b, pos, "false", Value::Bool(false)),
        Some(b'"') => parse_string(b, pos).map(Value::Str),
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Value::Seq(items));
            }
            loop {
                items.push(parse_value(b, pos, depth + 1)?);
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Value::Seq(items));
                    }
                    _ => return Err(Error(format!("expected , or ] at byte {pos}"))),
                }
            }
        }
        Some(b'{') => {
            *pos += 1;
            let mut entries = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Value::Map(entries));
            }
            loop {
                skip_ws(b, pos);
                let key = parse_string(b, pos)?;
                skip_ws(b, pos);
                if b.get(*pos) != Some(&b':') {
                    return Err(Error(format!("expected : at byte {pos}")));
                }
                *pos += 1;
                entries.push((key, parse_value(b, pos, depth + 1)?));
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Value::Map(entries));
                    }
                    _ => return Err(Error(format!("expected , or }} at byte {pos}"))),
                }
            }
        }
        Some(_) => parse_number(b, pos),
    }
}

fn parse_lit(b: &[u8], pos: &mut usize, lit: &str, v: Value) -> Result<Value, Error> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(v)
    } else {
        Err(Error(format!("invalid literal at byte {pos}")))
    }
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, Error> {
    if b.get(*pos) != Some(&b'"') {
        return Err(Error(format!("expected string at byte {pos}")));
    }
    *pos += 1;
    let mut out = String::new();
    loop {
        match b.get(*pos) {
            None => return Err(Error("unterminated string".into())),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match b.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hex = b
                            .get(*pos + 1..*pos + 5)
                            .ok_or_else(|| Error("truncated \\u escape".into()))?;
                        let code = u32::from_str_radix(
                            std::str::from_utf8(hex).map_err(|e| Error(e.to_string()))?,
                            16,
                        )
                        .map_err(|e| Error(e.to_string()))?;
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        *pos += 4;
                    }
                    _ => return Err(Error(format!("bad escape at byte {pos}"))),
                }
                *pos += 1;
            }
            Some(_) => {
                // Consume one UTF-8 scalar.
                let rest = std::str::from_utf8(&b[*pos..]).map_err(|e| Error(e.to_string()))?;
                let c = rest.chars().next().expect("non-empty");
                out.push(c);
                *pos += c.len_utf8();
            }
        }
    }
}

fn parse_number(b: &[u8], pos: &mut usize) -> Result<Value, Error> {
    let start = *pos;
    if b.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    let mut is_float = false;
    while let Some(&c) = b.get(*pos) {
        match c {
            b'0'..=b'9' => *pos += 1,
            b'.' | b'e' | b'E' | b'+' | b'-' => {
                is_float = true;
                *pos += 1;
            }
            _ => break,
        }
    }
    let text = std::str::from_utf8(&b[start..*pos]).map_err(|e| Error(e.to_string()))?;
    if text.is_empty() || text == "-" {
        return Err(Error(format!("expected number at byte {start}")));
    }
    if !is_float {
        if let Ok(u) = text.parse::<u64>() {
            return Ok(Value::U64(u));
        }
        if let Ok(i) = text.parse::<i64>() {
            return Ok(Value::I64(i));
        }
    }
    text.parse::<f64>()
        .map(Value::F64)
        .map_err(|e| Error(format!("bad number `{text}`: {e}")))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pretty_matches_expected_shape() {
        let v = Value::Map(vec![
            ("a".into(), Value::U64(1)),
            ("b".into(), Value::Seq(vec![Value::F64(1.5), Value::Null])),
        ]);
        assert_eq!(
            to_string_pretty(&v).unwrap(),
            "{\n  \"a\": 1,\n  \"b\": [\n    1.5,\n    null\n  ]\n}"
        );
        assert_eq!(to_string(&v).unwrap(), "{\"a\":1,\"b\":[1.5,null]}");
    }

    #[test]
    fn floats_keep_a_decimal_point() {
        assert_eq!(to_string(&2.0f64).unwrap(), "2.0");
        assert_eq!(to_string(&0.1f64).unwrap(), "0.1");
    }

    #[test]
    fn round_trips() {
        let v = Value::Map(vec![
            ("wall_ns".into(), Value::F64(123.25)),
            ("name".into(), Value::Str("vv\"add\n".into())),
            ("big".into(), Value::Null),
            ("xs".into(), Value::Seq(vec![Value::U64(1), Value::I64(-2)])),
        ]);
        let text = to_string_pretty(&v).unwrap();
        assert_eq!(from_str(&text).unwrap(), v);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(from_str("{").is_err());
        assert!(from_str("[1,]").is_err());
        assert!(from_str("1 2").is_err());
    }

    #[test]
    fn nesting_is_capped_at_max_depth() {
        let nested = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
        assert!(from_str(&nested(MAX_DEPTH)).is_ok());
        assert!(from_str(&nested(MAX_DEPTH + 1)).is_err());
        assert!(from_str(&"{\"a\":".repeat(MAX_DEPTH + 1)).is_err());
    }
}
