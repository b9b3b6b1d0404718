//! Minimal JSON utilities: string escaping for the exporters, a
//! well-formedness validator, and a small document parser so tests and
//! tools can read reports back without a JSON dependency (the workspace is
//! offline).

use std::fmt;

/// `write!` into a `String`, which cannot fail: every exporter renders
/// straight into its one output buffer with this.
macro_rules! put {
    ($out:expr, $($arg:tt)*) => {{
        use std::fmt::Write as _;
        let _ = write!($out, $($arg)*);
    }};
}
pub(crate) use put;

/// Writes `s` as it reads inside a JSON string literal (no surrounding
/// quotes): the runs that need no escape are copied whole, the escapes go
/// between them. `out` is an exporter's buffer itself, or a formatter.
pub(crate) fn escape_into(out: &mut impl fmt::Write, s: &str) -> fmt::Result {
    let mut clean = 0;
    for (i, b) in s.bytes().enumerate() {
        let esc = match b {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            // No short form: `\u00` and two hex digits, written below.
            0..=0x1f => "\\u00",
            _ => continue,
        };
        out.write_str(&s[clean..i])?;
        out.write_str(esc)?;
        if esc.len() > 2 {
            write!(out, "{b:02x}")?;
        }
        clean = i + 1;
    }
    out.write_str(&s[clean..])
}

/// [`escape_into`] as a `Display`, for a name inside a `put!`.
pub(crate) fn escaped(s: &str) -> impl fmt::Display + '_ {
    fmt::from_fn(move |f| escape_into(f, s))
}

/// An optional number as JSON: its digits, or `null`.
pub(crate) fn or_null(n: Option<u64>) -> impl fmt::Display {
    fmt::from_fn(move |f| match n {
        Some(n) => write!(f, "{n}"),
        None => f.write_str("null"),
    })
}

/// Numbers as the inside of a JSON array: `1, 2, 3`.
pub(crate) fn joined(ns: &[u64]) -> impl fmt::Display + '_ {
    fmt::from_fn(move |f| {
        let sep = |i| if i > 0 { ", " } else { "" };
        ns.iter()
            .enumerate()
            .try_for_each(|(i, n)| write!(f, "{}{n}", sep(i)))
    })
}

/// Escapes `s` for inclusion inside a JSON string literal (no surrounding
/// quotes added).
pub fn escape(s: &str) -> String {
    escaped(s).to_string()
}

/// A parsed JSON value. Object members keep their document order (our
/// emitters are deterministic, so order carries meaning in tests).
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (JSON does not distinguish integer kinds).
    Num(f64),
    /// A string, unescaped.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object, as ordered key/value pairs.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Looks up a key in an object; `None` for other kinds or missing keys.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The number, if this is one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The number as an unsigned integer, if it is one exactly.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= u64::MAX as f64 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// The string contents, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(v) => Some(v),
            _ => None,
        }
    }
}

/// Parses `s` as one JSON document. Returns the byte offset and message
/// of the first error.
pub fn parse(s: &str) -> Result<Value, String> {
    let b = s.as_bytes();
    let mut p = Parser { b, pos: 0 };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != b.len() {
        return Err(format!("trailing data at byte {}", p.pos));
    }
    Ok(v)
}

/// Checks that `s` is one well-formed JSON value. Returns the byte offset
/// and message of the first error.
pub fn validate(s: &str) -> Result<(), String> {
    parse(s).map(|_| ())
}

struct Parser<'a> {
    b: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, msg: &str) -> String {
        format!("{} at byte {}", msg, self.pos)
    }

    fn peek(&self) -> Option<u8> {
        self.b.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, c: u8) -> Result<(), String> {
        if self.peek() == Some(c) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", c as char)))
        }
    }

    fn literal(&mut self, lit: &str) -> Result<(), String> {
        if self.b[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(())
        } else {
            Err(self.err(&format!("expected '{lit}'")))
        }
    }

    fn value(&mut self) -> Result<Value, String> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => self.string().map(Value::Str),
            Some(b't') => self.literal("true").map(|()| Value::Bool(true)),
            Some(b'f') => self.literal("false").map(|()| Value::Bool(false)),
            Some(b'n') => self.literal("null").map(|()| Value::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn object(&mut self) -> Result<Value, String> {
        self.expect(b'{')?;
        self.skip_ws();
        let mut members = Vec::new();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let val = self.value()?;
            members.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Obj(members));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn array(&mut self) -> Result<Value, String> {
        self.expect(b'[')?;
        self.skip_ws();
        let mut items = Vec::new();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
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
                            // followed by \uXXXX low surrogate.
                            let c = if (0xD800..0xDC00).contains(&cp) {
                                self.literal("\\u")
                                    .map_err(|_| self.err("lone high surrogate"))?;
                                let low = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&low) {
                                    return Err(self.err("bad low surrogate"));
                                }
                                let combined = 0x10000 + ((cp - 0xD800) << 10) + (low - 0xDC00);
                                char::from_u32(combined)
                            } else {
                                char::from_u32(cp)
                            };
                            match c {
                                Some(c) => out.push(c),
                                None => return Err(self.err("bad \\u escape")),
                            }
                            continue;
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                    self.pos += 1;
                }
                Some(c) if c < 0x20 => return Err(self.err("raw control char in string")),
                Some(c) if c < 0x80 => {
                    out.push(c as char);
                    self.pos += 1;
                }
                Some(lead) => {
                    // Multibyte UTF-8: the lead byte fixes the scalar's
                    // width, so only those bytes are re-checked — never
                    // the whole tail of the document (validating the rest
                    // per character made parsing quadratic, which on a
                    // multi-megabyte chrome trace never finished).
                    let len = match lead {
                        0xF0.. => 4,
                        0xE0.. => 3,
                        _ => 2,
                    };
                    let end = (self.pos + len).min(self.b.len());
                    let s = std::str::from_utf8(&self.b[self.pos..end])
                        .map_err(|_| self.err("bad utf-8"))?;
                    let c = s.chars().next().expect("peeked non-empty");
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let mut cp = 0u32;
        for _ in 0..4 {
            match self.peek() {
                Some(c) if c.is_ascii_hexdigit() => {
                    cp = cp * 16 + (c as char).to_digit(16).expect("hex digit");
                    self.pos += 1;
                }
                _ => return Err(self.err("bad \\u escape")),
            }
        }
        Ok(cp)
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut digits = 0;
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.pos += 1;
            digits += 1;
        }
        if digits == 0 {
            return Err(self.err("expected digits"));
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            let mut frac = 0;
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
                frac += 1;
            }
            if frac == 0 {
                return Err(self.err("expected fraction digits"));
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            let mut exp = 0;
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
                exp += 1;
            }
            if exp == 0 {
                return Err(self.err("expected exponent digits"));
            }
        }
        let text = std::str::from_utf8(&self.b[start..self.pos]).expect("ascii");
        text.parse::<f64>()
            .map(Value::Num)
            .map_err(|_| self.err("number out of range"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accepts_well_formed_documents() {
        for doc in [
            "{}",
            "[]",
            "null",
            "-1.5e3",
            r#"{"a": [1, 2.5, "x\n", true, null], "b": {"c": []}}"#,
        ] {
            assert!(validate(doc).is_ok(), "{doc}");
        }
    }

    #[test]
    fn rejects_malformed_documents() {
        for doc in ["{", "[1,]", "{\"a\":}", "01x", "\"unterminated", "{} {}"] {
            assert!(validate(doc).is_err(), "{doc}");
        }
    }

    #[test]
    fn escape_round_trips_through_validate() {
        let s = format!("{{\"k\": \"{}\"}}", escape("a\"b\\c\nd\te\u{1}"));
        assert!(validate(&s).is_ok(), "{s}");
    }

    #[test]
    fn parse_builds_the_document_tree() {
        let v = parse(r#"{"name": "fig5", "metrics": [{"mean_us": 18.253, "n": 3}]}"#).unwrap();
        assert_eq!(v.get("name").and_then(Value::as_str), Some("fig5"));
        let metrics = v.get("metrics").and_then(Value::as_arr).unwrap();
        assert_eq!(metrics.len(), 1);
        assert_eq!(
            metrics[0].get("mean_us").and_then(Value::as_f64),
            Some(18.253)
        );
        assert_eq!(metrics[0].get("n").and_then(Value::as_u64), Some(3));
        assert_eq!(v.get("missing"), None);
    }

    #[test]
    fn parse_unescapes_strings() {
        let v = parse(r#""a\"b\\c\ndAé""#).unwrap();
        assert_eq!(v.as_str(), Some("a\"b\\c\nd\u{41}\u{e9}"));
        // Escape then parse is identity.
        let original = "tabs\tquotes\" and \\ and control\u{2} é";
        let doc = format!("\"{}\"", escape(original));
        assert_eq!(parse(&doc).unwrap().as_str(), Some(original));
    }

    #[test]
    fn megabyte_documents_parse_in_linear_time() {
        // Regression guard for the quadratic string scan: a document this
        // size hung for minutes before the per-scalar decode; linear
        // parsing finishes instantly even unoptimized.
        let member = format!("\"k\": \"{}é\"", "x".repeat(1023));
        let doc = format!(
            "[{}]",
            std::iter::repeat_n(format!("{{{member}}}"), 1024)
                .collect::<Vec<_>>()
                .join(",")
        );
        assert!(doc.len() > 1 << 20);
        let v = parse(&doc).expect("well-formed");
        assert_eq!(v.as_arr().map(<[Value]>::len), Some(1024));
    }

    #[test]
    fn parse_handles_surrogate_pairs_and_rejects_lone_ones() {
        assert_eq!(parse(r#""😀""#).unwrap().as_str(), Some("\u{1f600}"));
        assert_eq!(
            parse(r#""\ud83d\ude00""#).unwrap().as_str(),
            Some("\u{1f600}")
        );
        assert!(parse(r#""\ud83d""#).is_err(), "lone high surrogate");
        assert!(parse(r#""\ude00""#).is_err(), "lone low surrogate");
    }
}
