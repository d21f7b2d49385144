//! The workspace's one JSON module: the [`Json`] tree and its parser, the
//! [`Writer`] every exporter emits through, and [`check_fields`], the
//! required-fields checker behind the three `scripts/*_schema.json` gates.
//! No external crates; object keys keep their order.
//!
//! **Schema language.** A schema file is a JSON object whose
//! `*_required` members map a field name to the [`Json::type_name`] its
//! value must have (`"name": "string"`); [`check_fields`] checks one
//! object against one such member. Everything a schema cannot say in that
//! language (allowed categories, histogram invariants, Pareto dominance)
//! stays in the validator that owns the document.

use std::fmt::{self, Write as _};

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (parsed as f64).
    Num(f64),
    /// String.
    Str(String),
    /// Array.
    Arr(Vec<Json>),
    /// Object (insertion order preserved).
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Type name used by the schema (`"object"`, `"array"`, …).
    pub fn type_name(&self) -> &'static str {
        match self {
            Json::Null => "null",
            Json::Bool(_) => "boolean",
            Json::Num(_) => "number",
            Json::Str(_) => "string",
            Json::Arr(_) => "array",
            Json::Obj(_) => "object",
        }
    }

    /// Object field lookup.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// String payload, if a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }
}

/// Deepest container nesting [`parse`] accepts; the parser recurses once
/// per level, so the cap is what keeps hostile input off the stack's end.
/// The deepest document this workspace emits nests 5.
const MAX_DEPTH: usize = 128;

/// Parse one JSON document.
///
/// # Errors
/// A message naming the byte offset of the first syntax error, or of the
/// container that nests deeper than 128 levels.
pub fn parse(text: &str) -> Result<Json, String> {
    let bytes = text.as_bytes();
    let mut pos = 0usize;
    let v = parse_value(bytes, &mut pos, 0)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing garbage at byte {pos}"));
    }
    Ok(v)
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(b: &[u8], pos: &mut usize, c: u8) -> Result<(), String> {
    skip_ws(b, pos);
    if *pos < b.len() && b[*pos] == c {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected `{}` at byte {pos}", c as char))
    }
}

/// The four hex digits of a `\uXXXX` escape starting at `at`.
fn hex4(b: &[u8], at: usize) -> Result<u32, String> {
    let hex = b
        .get(at..at + 4)
        .filter(|h| h.iter().all(u8::is_ascii_hexdigit))
        .ok_or_else(|| format!("bad \\u escape at byte {at}"))?;
    let hex = std::str::from_utf8(hex).expect("hex digits are ASCII");
    Ok(u32::from_str_radix(hex, 16).expect("four hex digits fit a u32"))
}

fn parse_value(b: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    skip_ws(b, pos);
    if matches!(b.get(*pos), Some(b'{' | b'[')) && depth == MAX_DEPTH {
        return Err(format!("nesting deeper than {MAX_DEPTH} at byte {pos}"));
    }
    match b.get(*pos) {
        Some(b'{') => {
            *pos += 1;
            let mut fields = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Obj(fields));
            }
            loop {
                skip_ws(b, pos);
                let key = match parse_value(b, pos, depth + 1)? {
                    Json::Str(s) => s,
                    other => return Err(format!("object key must be a string, got {other:?}")),
                };
                expect(b, pos, b':')?;
                let val = parse_value(b, pos, depth + 1)?;
                fields.push((key, val));
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(fields));
                    }
                    _ => return Err(format!("expected `,` or `}}` at byte {pos}")),
                }
            }
        }
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(parse_value(b, pos, depth + 1)?);
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => return Err(format!("expected `,` or `]` at byte {pos}")),
                }
            }
        }
        Some(b'"') => {
            *pos += 1;
            let mut s = String::new();
            loop {
                match b.get(*pos) {
                    None => return Err("unterminated string".to_string()),
                    Some(b'"') => {
                        *pos += 1;
                        return Ok(Json::Str(s));
                    }
                    Some(b'\\') => {
                        *pos += 1;
                        match b.get(*pos) {
                            Some(b'"') => s.push('"'),
                            Some(b'\\') => s.push('\\'),
                            Some(b'/') => s.push('/'),
                            Some(b'n') => s.push('\n'),
                            Some(b't') => s.push('\t'),
                            Some(b'r') => s.push('\r'),
                            Some(b'b') => s.push('\u{8}'),
                            Some(b'f') => s.push('\u{c}'),
                            Some(b'u') => {
                                let mut code = hex4(b, *pos + 1)?;
                                *pos += 4;
                                // A high surrogate followed by an escaped low
                                // one is a single scalar; a surrogate on its
                                // own has no scalar and reads as U+FFFD.
                                if (0xd800..0xdc00).contains(&code)
                                    && b.get(*pos + 1..*pos + 3) == Some(b"\\u")
                                {
                                    if let Ok(low @ 0xdc00..=0xdfff) = hex4(b, *pos + 3) {
                                        code = 0x10000 + ((code - 0xd800) << 10) + (low - 0xdc00);
                                        *pos += 6;
                                    }
                                }
                                s.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            }
                            other => return Err(format!("bad escape {other:?}")),
                        }
                        *pos += 1;
                    }
                    Some(&c) => {
                        // Copy the full UTF-8 sequence starting at c.
                        let len = match c {
                            0x00..=0x7f => 1,
                            0xc0..=0xdf => 2,
                            0xe0..=0xef => 3,
                            _ => 4,
                        };
                        let chunk = b
                            .get(*pos..*pos + len)
                            .ok_or_else(|| "truncated utf-8".to_string())?;
                        s.push_str(std::str::from_utf8(chunk).map_err(|e| e.to_string())?);
                        *pos += len;
                    }
                }
            }
        }
        Some(b't') if b[*pos..].starts_with(b"true") => {
            *pos += 4;
            Ok(Json::Bool(true))
        }
        Some(b'f') if b[*pos..].starts_with(b"false") => {
            *pos += 5;
            Ok(Json::Bool(false))
        }
        Some(b'n') if b[*pos..].starts_with(b"null") => {
            *pos += 4;
            Ok(Json::Null)
        }
        Some(_) => {
            let start = *pos;
            while *pos < b.len()
                && matches!(b[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
            {
                *pos += 1;
            }
            let text = std::str::from_utf8(&b[start..*pos]).map_err(|e| e.to_string())?;
            text.parse::<f64>()
                .map(Json::Num)
                .map_err(|_| format!("bad number `{text}` at byte {start}"))
        }
        None => Err("unexpected end of input".to_string()),
    }
}

/// Check `obj` against one `*_required` member of a schema: every listed
/// field must be present with the listed [`Json::type_name`]. `what`
/// names the object in the error (`"report"`, `"event 7 (ph X)"`).
///
/// # Errors
/// The first missing or mistyped field, or a malformed `spec`.
pub fn check_fields(obj: &Json, spec: &Json, what: impl fmt::Display) -> Result<(), String> {
    let Json::Obj(fields) = spec else {
        return Err(format!(
            "schema: the required fields of {what} must be an object"
        ));
    };
    for (key, ty) in fields {
        let want = ty.as_str().ok_or("schema types must be strings")?;
        let got = obj
            .get(key)
            .ok_or_else(|| format!("{what} missing `{key}`"))?;
        if got.type_name() != want {
            return Err(format!(
                "{what} `{key}`: expected {want}, got {}",
                got.type_name()
            ));
        }
    }
    Ok(())
}

/// Append `s` as a quoted JSON string. Quotes, backslashes and controls
/// are escaped; everything else — DEL and non-BMP scalars included — is
/// legal raw and copied through.
fn escape(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// One open container of a [`Writer`].
struct Open {
    close: char,
    /// One member per line, indented by depth; otherwise compact.
    lines: bool,
    members: usize,
}

/// A streaming JSON writer that owns quoting, commas and indentation.
///
/// Containers are opened compact ([`Writer::obj`], [`Writer::arr`]: no
/// whitespace at all) or one member per line ([`Writer::obj_lines`],
/// [`Writer::arr_lines`]: two spaces per level, `": "` after keys) and
/// closed with [`Writer::end`]. Inside an object every value follows a
/// [`Writer::key`]; inside an array values follow each other.
///
/// ```
/// use muir_core::json::Writer;
/// let mut w = Writer::new();
/// w.obj_lines().key("name").str("a\"b");
/// w.key("hist").arr().uint(1u32).uint(2u32).end().end();
/// assert_eq!(w.finish(), "{\n  \"name\": \"a\\\"b\",\n  \"hist\": [1,2]\n}\n");
/// ```
#[derive(Default)]
pub struct Writer {
    out: String,
    open: Vec<Open>,
    after_key: bool,
}

impl Writer {
    /// An empty document.
    pub fn new() -> Writer {
        Writer::default()
    }

    fn newline(&mut self) {
        self.out.push('\n');
        for _ in 0..self.open.len() {
            self.out.push_str("  ");
        }
    }

    /// What precedes a key or an array element: the comma after the
    /// previous member and, in a `lines` container, the line break.
    fn sep(&mut self) {
        if std::mem::take(&mut self.after_key) {
            return;
        }
        let Some(top) = self.open.last_mut() else {
            return;
        };
        if top.members > 0 {
            self.out.push(',');
        }
        top.members += 1;
        if top.lines {
            self.newline();
        }
    }

    fn begin(&mut self, open: char, close: char, lines: bool) -> &mut Writer {
        self.sep();
        self.out.push(open);
        self.open.push(Open {
            close,
            lines,
            members: 0,
        });
        self
    }

    /// Open a compact object.
    pub fn obj(&mut self) -> &mut Writer {
        self.begin('{', '}', false)
    }

    /// Open an object with one member per line.
    pub fn obj_lines(&mut self) -> &mut Writer {
        self.begin('{', '}', true)
    }

    /// Open a compact array.
    pub fn arr(&mut self) -> &mut Writer {
        self.begin('[', ']', false)
    }

    /// Open an array with one element per line.
    pub fn arr_lines(&mut self) -> &mut Writer {
        self.begin('[', ']', true)
    }

    /// Close the innermost open container.
    ///
    /// # Panics
    /// Panics when nothing is open — a bug in the calling exporter.
    pub fn end(&mut self) -> &mut Writer {
        let top = self.open.pop().expect("Writer::end with nothing open");
        if top.lines && top.members > 0 {
            self.newline();
        }
        self.out.push(top.close);
        self
    }

    /// Start an object member; its value is the next thing written.
    pub fn key(&mut self, k: &str) -> &mut Writer {
        self.sep();
        escape(k, &mut self.out);
        self.out.push(':');
        if self.open.last().is_some_and(|o| o.lines) {
            self.out.push(' ');
        }
        self.after_key = true;
        self
    }

    /// A string value.
    pub fn str(&mut self, s: &str) -> &mut Writer {
        self.sep();
        escape(s, &mut self.out);
        self
    }

    /// An unsigned integer value.
    pub fn uint(&mut self, v: impl Into<u64>) -> &mut Writer {
        self.sep();
        let _ = write!(self.out, "{}", v.into());
        self
    }

    /// A number with exactly `decimals` fractional digits. Non-finite
    /// values have no JSON form and are written as `null`, so a reader
    /// fails on them instead of misreading.
    pub fn fixed(&mut self, v: f64, decimals: usize) -> &mut Writer {
        self.sep();
        if v.is_finite() {
            let _ = write!(self.out, "{v:.decimals$}");
        } else {
            self.out.push_str("null");
        }
        self
    }

    /// A boolean value.
    pub fn bool(&mut self, v: bool) -> &mut Writer {
        self.sep();
        self.out.push_str(if v { "true" } else { "false" });
        self
    }

    /// The finished document, newline-terminated.
    ///
    /// # Panics
    /// Panics when a container is still open — a bug in the calling
    /// exporter.
    pub fn finish(mut self) -> String {
        assert!(self.open.is_empty(), "Writer::finish with a container open");
        self.out.push('\n');
        self.out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parser_round_trips_structures() {
        let j = parse(r#"{"a":[1,2.5,-3e2],"b":{"c":"x\ny"},"d":true,"e":null}"#).unwrap();
        assert_eq!(j.get("d"), Some(&Json::Bool(true)));
        assert_eq!(j.get("e"), Some(&Json::Null));
        let Some(Json::Arr(a)) = j.get("a") else {
            panic!("a missing")
        };
        assert_eq!(a[2], Json::Num(-300.0));
        assert_eq!(
            j.get("b").and_then(|b| b.get("c")).and_then(Json::as_str),
            Some("x\ny")
        );
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("{} extra").is_err());
    }

    #[test]
    fn hostile_nesting_is_an_error_not_a_stack_overflow() {
        let e = parse(&"[".repeat(1_000_000)).unwrap_err();
        assert_eq!(
            e,
            format!("nesting deeper than {MAX_DEPTH} at byte {MAX_DEPTH}")
        );
        let e = parse(&"{\"k\":".repeat(1_000_000)).unwrap_err();
        assert!(e.starts_with("nesting deeper than"), "{e}");
        let deepest = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(parse(&deepest).is_ok());
    }

    #[test]
    fn surrogate_pairs_decode_to_one_scalar() {
        assert_eq!(
            parse(r#""\ud83d\ude00""#),
            Ok(Json::Str("\u{1f600}".into()))
        );
        // Lone or mismatched halves have no scalar: U+FFFD each, and the
        // text after them is still read.
        assert_eq!(parse(r#""\ud83dx""#), Ok(Json::Str("\u{fffd}x".into())));
        assert_eq!(parse(r#""\ude00""#), Ok(Json::Str("\u{fffd}".into())));
        assert_eq!(parse(r#""\ud83dA""#), Ok(Json::Str("\u{fffd}A".into())));
        assert!(parse(r#""\u+041""#).is_err());
        assert!(parse(r#""\u00"#).is_err());
    }

    #[test]
    fn writer_owns_commas_quoting_and_layout() {
        let mut w = Writer::new();
        w.obj_lines();
        w.key("s").str("q\" b\\ n\n t\t r\r c\u{1} d\u{7f} 😀");
        w.key("empty").arr_lines().end();
        w.key("rows").arr_lines();
        w.obj().key("n").uint(7u64).key("ok").bool(true).end();
        w.obj()
            .key("f")
            .fixed(2.26, 1)
            .key("nan")
            .fixed(f64::NAN, 1)
            .end();
        w.end().end();
        let text = w.finish();
        assert_eq!(
            text,
            "{\n  \"s\": \"q\\\" b\\\\ n\\n t\\t r\\r c\\u0001 d\u{7f} 😀\",\n  \"empty\": [],\n  \
             \"rows\": [\n    {\"n\":7,\"ok\":true},\n    {\"f\":2.3,\"nan\":null}\n  ]\n}\n"
        );
        let j = parse(&text).unwrap();
        assert_eq!(
            j.get("s").and_then(Json::as_str),
            Some("q\" b\\ n\n t\t r\r c\u{1} d\u{7f} 😀")
        );
    }

    #[test]
    fn check_fields_names_the_object_and_the_field() {
        let spec = parse(r#"{"name":"string","value":"number"}"#).unwrap();
        let ok = parse(r#"{"name":"a","value":1,"extra":null}"#).unwrap();
        assert_eq!(check_fields(&ok, &spec, "counter 0"), Ok(()));
        let missing = parse(r#"{"name":"a"}"#).unwrap();
        assert_eq!(
            check_fields(&missing, &spec, format_args!("counter {}", 3)),
            Err("counter 3 missing `value`".to_string())
        );
        let mistyped = parse(r#"{"name":"a","value":"1"}"#).unwrap();
        assert_eq!(
            check_fields(&mistyped, &spec, "counter 0"),
            Err("counter 0 `value`: expected number, got string".to_string())
        );
        assert!(check_fields(&ok, &Json::Null, "x").is_err());
        let bad_spec = parse(r#"{"name":1}"#).unwrap();
        assert!(check_fields(&ok, &bad_spec, "x").is_err());
    }
}
