//! The one JSON codec: every row, report, journal record and trace the
//! simulator writes is a [`Json`] value rendered by its compact `Display`,
//! and every one it reads back goes through [`Json::parse`].
//!
//! A number keeps its literal text and an object its key order, so
//! `Json::parse(s)?.to_string() == s` for anything the writer emits: a
//! `{:.6}` float survives a read and a rewrite byte for byte.

use std::fmt::{self, Write as _};

/// Deepest array/object nesting [`Json::parse`] accepts, so hostile input
/// is an error rather than a stack overflow.
const MAX_DEPTH: usize = 128;

/// A JSON value.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number, as its literal text.
    Num(String),
    /// A string (unescaped).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, keys in their written order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// An object from `(key, value)` pairs, in order.
    pub fn obj<'a>(fields: impl IntoIterator<Item = (&'a str, Json)>) -> Json {
        Json::Obj(fields.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// An array of anything convertible to a value.
    pub fn arr<T: Into<Json>>(items: impl IntoIterator<Item = T>) -> Json {
        Json::Arr(items.into_iter().map(Into::into).collect())
    }

    /// A float written with `decimals` digits after the point.
    pub fn fixed(v: f64, decimals: usize) -> Json {
        Json::Num(format!("{v:.decimals$}"))
    }

    /// The value under `key` (the first, should it repeat) of an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        let Json::Obj(fields) = self else { return None };
        fields.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// A non-negative integer's value.
    pub fn as_u64(&self) -> Option<u64> {
        if let Json::Num(n) = self { n.parse().ok() } else { None }
    }

    /// A string's text.
    pub fn as_str(&self) -> Option<&str> {
        if let Json::Str(s) = self { Some(s) } else { None }
    }

    /// An array's items.
    pub fn as_arr(&self) -> Option<&[Json]> {
        if let Json::Arr(items) = self { Some(items) } else { None }
    }

    /// Parses one JSON document (surrounding whitespace allowed).
    ///
    /// # Errors
    ///
    /// The first syntax error with its byte offset, nesting deeper than
    /// [`MAX_DEPTH`], or bytes after the document.
    pub fn parse(s: &str) -> Result<Json, String> {
        let mut p = Parser { s: s.as_bytes(), at: 0 };
        let v = p.value(0)?;
        p.ws();
        if p.at == p.s.len() { Ok(v) } else { Err(p.err("trailing bytes")) }
    }
}

/// `From` conversions: integers to numbers, `bool`, strings.
macro_rules! from {
    ($($t:ty => |$v:ident| $make:expr),*) => {$(
        impl From<$t> for Json {
            fn from($v: $t) -> Json {
                $make
            }
        }
    )*};
}
from!(u16 => |v| Json::Num(v.to_string()), u32 => |v| Json::Num(v.to_string()),
      u64 => |v| Json::Num(v.to_string()), usize => |v| Json::Num(v.to_string()),
      bool => |v| Json::Bool(v), &str => |v| Json::Str(v.into()), String => |v| Json::Str(v));

/// `s` quoted: `"`, `\` and control characters escaped, the rest verbatim.
fn write_str(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    f.write_char('"')?;
    for c in s.chars() {
        match c {
            '"' => f.write_str("\\\"")?,
            '\\' => f.write_str("\\\\")?,
            '\n' => f.write_str("\\n")?,
            '\t' => f.write_str("\\t")?,
            '\r' => f.write_str("\\r")?,
            c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
            c => f.write_char(c)?,
        }
    }
    f.write_char('"')
}

/// Compact: no whitespace between tokens.
impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let sep = |i| if i > 0 { "," } else { "" };
        match self {
            Json::Null => f.write_str("null"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::Num(n) => f.write_str(n),
            Json::Str(s) => write_str(f, s),
            Json::Arr(items) => {
                f.write_char('[')?;
                for (i, v) in items.iter().enumerate() {
                    write!(f, "{}{v}", sep(i))?;
                }
                f.write_char(']')
            }
            Json::Obj(fields) => {
                f.write_char('{')?;
                for (i, (k, v)) in fields.iter().enumerate() {
                    f.write_str(sep(i))?;
                    write_str(f, k)?;
                    write!(f, ":{v}")?;
                }
                f.write_char('}')
            }
        }
    }
}

/// Recursive descent over the bytes of one document.
struct Parser<'a> {
    s: &'a [u8],
    at: usize,
}

impl Parser<'_> {
    fn err(&self, what: &str) -> String {
        format!("{what} at byte {}", self.at)
    }

    fn peek(&self) -> Option<u8> {
        self.s.get(self.at).copied()
    }

    fn ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.at += 1;
        }
    }

    /// Consumes `b` (after whitespace) when it comes next.
    fn eat(&mut self, b: u8) -> bool {
        self.ws();
        let hit = self.peek() == Some(b);
        self.at += usize::from(hit);
        hit
    }

    fn value(&mut self, depth: usize) -> Result<Json, String> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        self.ws();
        match self.peek() {
            Some(b'"') => self.string().map(Json::Str),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(b'[') => self.items(b']', |p| p.value(depth + 1)).map(Json::Arr),
            Some(b'{') => self
                .items(b'}', |p| match (p.value(depth + 1)?, p.eat(b':')) {
                    (Json::Str(key), true) => Ok((key, p.value(depth + 1)?)),
                    _ => Err(p.err("expected a \"key\":")),
                })
                .map(Json::Obj),
            _ => {
                let words = [("null", Json::Null), ("true", Json::Bool(true)), ("false", Json::Bool(false))];
                let hit = words.into_iter().find(|(w, _)| self.s[self.at..].starts_with(w.as_bytes()));
                let (word, v) = hit.ok_or_else(|| self.err("expected a value"))?;
                self.at += word.len();
                Ok(v)
            }
        }
    }

    /// The comma-separated items of an array or object, from its opening
    /// byte through `close`.
    fn items<T>(&mut self, close: u8, mut item: impl FnMut(&mut Self) -> Result<T, String>) -> Result<Vec<T>, String> {
        self.at += 1;
        let mut out = Vec::new();
        if self.eat(close) {
            return Ok(out);
        }
        loop {
            out.push(item(self)?);
            if self.eat(close) {
                return Ok(out);
            }
            if !self.eat(b',') {
                return Err(self.err("expected ',' or a closing bracket"));
            }
        }
    }

    /// Digits from here on; true when there was at least one.
    fn digits(&mut self) -> bool {
        let from = self.at;
        while self.peek().is_some_and(|b| b.is_ascii_digit()) {
            self.at += 1;
        }
        self.at > from
    }

    /// `-?(0|[1-9]d*)(.d+)?([eE][+-]?d+)?`, kept as written.
    fn number(&mut self) -> Result<Json, String> {
        let from = self.at;
        self.at += usize::from(self.peek() == Some(b'-'));
        let int = self.at;
        let mut ok = self.digits() && !(self.s[int] == b'0' && self.at - int > 1);
        if ok && self.peek() == Some(b'.') {
            self.at += 1;
            ok = self.digits();
        }
        if ok && matches!(self.peek(), Some(b'e' | b'E')) {
            self.at += 1;
            self.at += usize::from(matches!(self.peek(), Some(b'+' | b'-')));
            ok = self.digits();
        }
        // Only ASCII was consumed, so the slice is whole characters.
        let text = String::from_utf8_lossy(&self.s[from..self.at]).into_owned();
        if ok { Ok(Json::Num(text)) } else { Err(self.err("malformed number")) }
    }

    /// The four hex digits of a `\u` escape.
    fn hex4(&mut self) -> Result<u32, String> {
        let hex = self.s.get(self.at..self.at + 4).filter(|h| h.iter().all(u8::is_ascii_hexdigit));
        self.at += 4;
        let code = hex.and_then(|h| u32::from_str_radix(std::str::from_utf8(h).ok()?, 16).ok());
        code.ok_or_else(|| self.err("bad \\u escape"))
    }

    /// A quoted string, from its opening `"`.
    fn string(&mut self) -> Result<String, String> {
        self.at += 1;
        let mut out = Vec::new();
        loop {
            let b = self.peek().ok_or_else(|| self.err("unterminated string"))?;
            self.at += 1;
            match b {
                b'"' => break,
                b'\\' => out.extend_from_slice(self.escape()?.encode_utf8(&mut [0; 4]).as_bytes()),
                0..=0x1f => return Err(self.err("control character in string")),
                _ => out.push(b),
            }
        }
        // Only whole characters of a `&str` were copied.
        String::from_utf8(out).map_err(|_| self.err("invalid UTF-8"))
    }

    /// The character a `\` escape names, from the byte after the `\`.
    fn escape(&mut self) -> Result<char, String> {
        let e = self.peek().ok_or_else(|| self.err("unterminated string"))?;
        self.at += 1;
        if let Some(i) = br#""\/bfnrt"#.iter().position(|&x| x == e) {
            return Ok(['"', '\\', '/', '\u{8}', '\u{c}', '\n', '\r', '\t'][i]);
        }
        if e != b'u' {
            return Err(self.err("bad escape"));
        }
        // The writer escapes only control characters, so surrogate pairs are
        // refused along with lone surrogates.
        char::from_u32(self.hex4()?).ok_or_else(|| self.err("surrogate in \\u escape"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writer_output_round_trips_byte_for_byte() {
        let v = Json::obj([
            ("k", "a\"b\\c\nd\te\r\u{1}é".into()),
            ("n", 18446744073709551615u64.into()),
            ("f", Json::fixed(1.5, 6)),
            ("a", Json::arr([1u64, 2, 3])),
            ("e", Json::arr(Vec::<u64>::new())),
            ("o", Json::obj([])),
            ("z", Json::Null),
            ("b", false.into()),
        ]);
        let s = v.to_string();
        assert_eq!(
            s,
            "{\"k\":\"a\\\"b\\\\c\\nd\\te\\r\\u0001é\",\"n\":18446744073709551615,\
             \"f\":1.500000,\"a\":[1,2,3],\"e\":[],\"o\":{},\"z\":null,\"b\":false}"
        );
        assert_eq!(Json::parse(&s), Ok(v));
        assert_eq!(Json::parse(&s).unwrap().to_string(), s);
    }

    #[test]
    fn reader_accepts_standard_json_and_reads_by_path() {
        let v = Json::parse(" {\"a\" : [ -0.5e+3 , \"\\u00e9😀\\/\\b\" ] ,\n\"b\":{\"c\":7}} ").unwrap();
        assert_eq!(v.get("b").and_then(|b| b.get("c")).and_then(Json::as_u64), Some(7));
        let a = v.get("a").and_then(Json::as_arr).unwrap();
        assert_eq!(a[0], Json::Num("-0.5e+3".into()));
        assert_eq!(a[0].as_u64(), None);
        assert_eq!(a[1].as_str(), Some("é😀/\u{8}"));
        assert_eq!(v.get("missing"), None);
    }

    #[test]
    fn reader_rejects_malformed_input() {
        for bad in [
            "", "{", "[1,]", "{\"a\"}", "{\"a\":1,}", "01", "-", "1.", "1e", "+1", "\"abc",
            "\"\\x\"", "\"\\ud800\"", "\"\\ud83d\\ude00\"", "\"\\u12\"", "\"\\u+123\"", "\"a\nb\"", "nul", "{} {}", "[1] x", "{1:2}",
        ] {
            assert!(Json::parse(bad).is_err(), "{bad:?} must not parse");
        }
        let deep = "[".repeat(100_000);
        assert!(Json::parse(&deep).unwrap_err().contains("too deep"));
        let ok = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(Json::parse(&ok).is_ok());
    }
}
