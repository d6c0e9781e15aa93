//! Shared text-format helpers for the exporters: JSON string escaping
//! (Chrome traces, manifests, event logs), CSV cell escaping (report
//! tables, counter series), and one small strict JSON parser — the value
//! tree the perf-trajectory tooling reads, and the well-formedness check
//! tests and smoke gates run over exporter output end-to-end.

use std::fmt::Write as _;

/// Escapes a string for embedding inside a JSON string literal (without
/// the surrounding quotes): `"` and `\` are backslash-escaped and control
/// characters become `\uXXXX`. All other characters — including non-ASCII
/// UTF-8 — pass through unchanged, which JSON permits.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Escapes one CSV cell: cells containing a comma, a double quote, or a
/// line break are wrapped in double quotes with embedded quotes doubled
/// (RFC 4180); everything else is returned verbatim.
pub fn csv_escape(cell: &str) -> String {
    if cell.contains(',') || cell.contains('"') || cell.contains('\n') || cell.contains('\r') {
        format!("\"{}\"", cell.replace('"', "\"\""))
    } else {
        cell.to_string()
    }
}

/// A parsed JSON value. Object keys keep insertion order so a
/// parse → render round trip is stable.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (integers stay exact below 2^53).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in insertion order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Looks up a key in an object; `None` for other variants.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
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
}

/// Parses `s` as one JSON value (object, array, string, number,
/// `true`/`false`/`null`) with nothing but whitespace after it.
///
/// The grammar is strict RFC 8259: no leading zeros' lookalikes such as
/// `1.` or `-`, no raw control characters inside strings, no trailing
/// commas. `\u` escapes that are not scalar values (lone surrogates)
/// decode to U+FFFD.
///
/// # Errors
///
/// A human-readable description of the first defect, with its byte
/// offset.
pub fn parse_json(s: &str) -> Result<Json, String> {
    let bytes = s.as_bytes();
    let mut pos = 0usize;
    skip_ws(bytes, &mut pos);
    let parsed = value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing data at byte {pos}"));
    }
    Ok(parsed)
}

/// Checks that `s` is one well-formed JSON value, discarding the
/// [`parse_json`] tree. Tests and CI smoke steps use it to assert that
/// hand-assembled exporter output (Chrome traces with counter tracks,
/// manifests, JSONL lines) actually parses — catching escaping and comma
/// regressions substring assertions miss.
///
/// # Errors
///
/// Same as [`parse_json`].
pub fn validate_json(s: &str) -> Result<(), String> {
    parse_json(s).map(drop)
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn value(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    match b.get(*pos) {
        Some(b'{') => object(b, pos),
        Some(b'[') => array(b, pos),
        Some(b'"') => string(b, pos).map(Json::Str),
        Some(b't') => literal(b, pos, "true", Json::Bool(true)),
        Some(b'f') => literal(b, pos, "false", Json::Bool(false)),
        Some(b'n') => literal(b, pos, "null", Json::Null),
        Some(c) if *c == b'-' || c.is_ascii_digit() => number(b, pos),
        Some(c) => Err(format!("unexpected byte {c:#04x} at {pos:?}", pos = *pos)),
        None => Err("unexpected end of input".into()),
    }
}

fn literal(b: &[u8], pos: &mut usize, lit: &str, parsed: Json) -> Result<Json, String> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(parsed)
    } else {
        Err(format!("malformed literal at byte {}", *pos))
    }
}

fn object(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    *pos += 1; // '{'
    let mut pairs = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Obj(pairs));
    }
    loop {
        skip_ws(b, pos);
        if b.get(*pos) != Some(&b'"') {
            return Err(format!("expected object key at byte {}", *pos));
        }
        let key = string(b, pos)?;
        skip_ws(b, pos);
        if b.get(*pos) != Some(&b':') {
            return Err(format!("expected ':' at byte {}", *pos));
        }
        *pos += 1;
        skip_ws(b, pos);
        pairs.push((key, value(b, pos)?));
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Obj(pairs));
            }
            _ => return Err(format!("expected ',' or '}}' at byte {}", *pos)),
        }
    }
}

fn array(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    *pos += 1; // '['
    let mut items = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Arr(items));
    }
    loop {
        skip_ws(b, pos);
        items.push(value(b, pos)?);
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            _ => return Err(format!("expected ',' or ']' at byte {}", *pos)),
        }
    }
}

fn string(b: &[u8], pos: &mut usize) -> Result<String, String> {
    *pos += 1; // opening '"'
    let mut out = String::new();
    // Start of the current run of unescaped bytes. Runs end only at ASCII
    // bytes, so each is a whole UTF-8 slice of the (valid) input.
    let mut run = *pos;
    let flush = |out: &mut String, run: usize, end: usize| {
        out.push_str(std::str::from_utf8(&b[run..end]).expect("runs end on ASCII boundaries"));
    };
    while let Some(&c) = b.get(*pos) {
        match c {
            b'"' => {
                flush(&mut out, run, *pos);
                *pos += 1;
                return Ok(out);
            }
            b'\\' => {
                flush(&mut out, run, *pos);
                let unescaped = match b.get(*pos + 1) {
                    Some(b'"') => '"',
                    Some(b'\\') => '\\',
                    Some(b'/') => '/',
                    Some(b'b') => '\u{8}',
                    Some(b'f') => '\u{c}',
                    Some(b'n') => '\n',
                    Some(b'r') => '\r',
                    Some(b't') => '\t',
                    Some(b'u') => {
                        let hex = b
                            .get(*pos + 2..*pos + 6)
                            .ok_or_else(|| format!("truncated \\u escape at byte {}", *pos))?;
                        if !hex.iter().all(u8::is_ascii_hexdigit) {
                            return Err(format!("bad \\u escape at byte {}", *pos));
                        }
                        let code = hex.iter().fold(0, |acc, &h| {
                            acc * 16 + char::from(h).to_digit(16).unwrap_or(0)
                        });
                        *pos += 4;
                        char::from_u32(code).unwrap_or('\u{fffd}')
                    }
                    _ => return Err(format!("bad escape at byte {}", *pos)),
                };
                out.push(unescaped);
                *pos += 2;
                run = *pos;
            }
            c if c < 0x20 => {
                return Err(format!("raw control character at byte {}", *pos));
            }
            _ => *pos += 1,
        }
    }
    Err("unterminated string".into())
}

fn number(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    if b.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    let mut digits = 0;
    while b.get(*pos).is_some_and(u8::is_ascii_digit) {
        *pos += 1;
        digits += 1;
    }
    if digits == 0 {
        return Err(format!("malformed number at byte {start}"));
    }
    if b.get(*pos) == Some(&b'.') {
        *pos += 1;
        let mut frac = 0;
        while b.get(*pos).is_some_and(u8::is_ascii_digit) {
            *pos += 1;
            frac += 1;
        }
        if frac == 0 {
            return Err(format!("malformed fraction at byte {start}"));
        }
    }
    if matches!(b.get(*pos), Some(b'e' | b'E')) {
        *pos += 1;
        if matches!(b.get(*pos), Some(b'+' | b'-')) {
            *pos += 1;
        }
        let mut exp = 0;
        while b.get(*pos).is_some_and(u8::is_ascii_digit) {
            *pos += 1;
            exp += 1;
        }
        if exp == 0 {
            return Err(format!("malformed exponent at byte {start}"));
        }
    }
    std::str::from_utf8(&b[start..*pos])
        .ok()
        .and_then(|t| t.parse().ok())
        .map(Json::Num)
        .ok_or_else(|| format!("malformed number at byte {start}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_escape_handles_quotes_backslashes_and_controls() {
        assert_eq!(json_escape("a\"b\\c"), "a\\\"b\\\\c");
        assert_eq!(json_escape("x\ny"), "x\\u000ay");
        assert_eq!(json_escape("tab\there"), "tab\\u0009here");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
    }

    #[test]
    fn json_escape_passes_utf8_through() {
        assert_eq!(json_escape("gpu⇄link µs"), "gpu⇄link µs");
        assert_eq!(json_escape("日本語"), "日本語");
    }

    #[test]
    fn json_escaped_strings_validate() {
        for raw in ["plain", "q\"q", "back\\slash", "ctl\n\t\r", "µ⇄日本語"] {
            let doc = format!("{{\"k\": \"{}\"}}", json_escape(raw));
            validate_json(&doc).unwrap_or_else(|e| panic!("{doc}: {e}"));
        }
    }

    #[test]
    fn csv_escape_wraps_commas_quotes_and_newlines() {
        assert_eq!(csv_escape("plain"), "plain");
        assert_eq!(csv_escape("a,b"), "\"a,b\"");
        assert_eq!(csv_escape("say \"hi\""), "\"say \"\"hi\"\"\"");
        assert_eq!(csv_escape("two\nlines"), "\"two\nlines\"");
        assert_eq!(csv_escape("µ-日本語"), "µ-日本語");
    }

    #[test]
    fn validator_accepts_wellformed_values() {
        for ok in [
            "{}",
            "[]",
            "null",
            "true",
            "false",
            "0",
            "-12.5e-3",
            "\"s\"",
            "[1, 2.5, \"x\", {\"a\": [true, null]}]",
            "  {\"k\": \"v\"}  ",
            "\"esc \\\" \\\\ \\u00e9\"",
        ] {
            validate_json(ok).unwrap_or_else(|e| panic!("{ok}: {e}"));
        }
    }

    #[test]
    fn validator_rejects_malformed_values() {
        for bad in [
            "",
            "{",
            "[1, 2",
            "{\"k\": }",
            "{\"k\" 1}",
            "{k: 1}",
            "[1,]",
            "\"unterminated",
            "\"raw\ncontrol\"",
            "\"bad \\x escape\"",
            "\"bad \\u00 escape\"",
            "01 extra",
            "1.",
            "-",
            "1e",
            "{} {}",
            "nul",
        ] {
            assert!(validate_json(bad).is_err(), "accepted: {bad:?}");
        }
    }

    #[test]
    fn parser_builds_the_value_tree() {
        let doc = "{\"b\": [1, -2.5e1, true, null], \"a\": \"q\\\" \\u00e9 µ\\n\"}";
        let parsed = parse_json(doc).expect("parses");
        assert_eq!(
            parsed,
            Json::Obj(vec![
                (
                    "b".into(),
                    Json::Arr(vec![
                        Json::Num(1.0),
                        Json::Num(-25.0),
                        Json::Bool(true),
                        Json::Null
                    ])
                ),
                ("a".into(), Json::Str("q\" é µ\n".into())),
            ]),
            "keys keep insertion order"
        );
        assert_eq!(parsed.get("a").and_then(Json::as_str), Some("q\" é µ\n"));
        assert_eq!(
            parse_json("\"\\ud800\"").unwrap(),
            Json::Str("\u{fffd}".into())
        );
    }

    #[test]
    fn validator_reports_byte_offsets() {
        let err = validate_json("[1, oops]").unwrap_err();
        assert!(err.contains("4"), "unexpected message: {err}");
    }
}
