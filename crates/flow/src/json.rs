//! A std-only JSON value type: recursive-descent parser, canonical
//! writer, path accessors — the workspace's one JSON writer.
//!
//! The workspace builds fully offline (no serde), and its documents
//! are small: newline-delimited protocol objects, flow reports, bench
//! baselines. Every document it emits — [`FlowReport`](crate::FlowReport)
//! JSON, the daemon's reply lines, the gated benches' `BENCH_*.json` —
//! is built as a [`Json`] value and rendered by its `Display`, so three
//! decisions live here and nowhere else:
//!
//! * **escaping** — quotes, backslashes and control characters;
//! * **numbers** — [`Json::U64`] is exact over the whole `u64` range
//!   (the parser yields it for every unsigned integer literal); any
//!   other number is a [`Json::Num`] written in its shortest
//!   round-trip form, with `.0` on integral values so it parses back
//!   as a float;
//! * **non-finite floats** — written as `null`, since JSON has no NaN
//!   or infinity.
//!
//! Objects preserve **key order** (a `Vec` of pairs, not a map): the
//! golden wire-format tests pin the key sequence of a report, and a
//! parsed value re-serializes member for member. Keys the writers name
//! are borrowed `&'static str`s; only parsed keys are owned.

use std::borrow::Cow;
use std::fmt;

/// Deepest array/object nesting [`Json::parse`] accepts. Protocol
/// requests nest three levels at most; the cap keeps a hostile line
/// (say, 40,000 `[`) from recursing the parser off its thread's stack.
const MAX_DEPTH: usize = 128;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A non-negative integer, exact over the whole `u64` range.
    U64(u64),
    /// Any other number.
    Num(f64),
    /// A string (escapes resolved).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in source key order.
    Obj(Vec<(Cow<'static, str>, Json)>),
}

/// A parse failure: byte offset plus a short reason.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset of the failure.
    pub at: usize,
    /// What went wrong.
    pub reason: &'static str,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid JSON at byte {}: {}", self.at, self.reason)
    }
}

impl std::error::Error for JsonError {}

impl Json {
    /// Parses one complete JSON document (trailing whitespace allowed,
    /// trailing garbage rejected).
    ///
    /// # Errors
    ///
    /// Returns the byte offset and reason of the first syntax error,
    /// or of the first array/object nested more than 128 levels deep.
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let mut p = Parser {
            text,
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing garbage after document"));
        }
        Ok(v)
    }

    /// An object with `members` in order, keyed by static names.
    pub fn obj(members: impl IntoIterator<Item = (&'static str, Json)>) -> Json {
        Json::Obj(
            members
                .into_iter()
                .map(|(k, v)| (Cow::Borrowed(k), v))
                .collect(),
        )
    }

    /// Member lookup on an object (first match; `None` on non-objects).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
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

    /// The numeric payload, if this is a number of either form.
    #[allow(clippy::cast_precision_loss)]
    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            Json::U64(n) => Some(n as f64),
            Json::Num(n) => Some(n),
            _ => None,
        }
    }

    /// The numeric payload as an unsigned integer, if it is one
    /// exactly: any [`Json::U64`], or a [`Json::Num`] with no fraction
    /// below 2^53 (where every integer is exact).
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            Json::U64(n) => Some(n),
            Json::Num(n) if n >= 0.0 && n.fract() == 0.0 && n < 2f64.powi(53) => Some(n as u64),
            _ => None,
        }
    }

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The element list, if this is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The member list, if this is an object.
    pub fn as_object(&self) -> Option<&[(Cow<'static, str>, Json)]> {
        match self {
            Json::Obj(members) => Some(members),
            _ => None,
        }
    }

    /// A deep copy with every member named in `keys` removed, at any
    /// depth. The canonicalizer for cache-correctness tests: two
    /// [`FlowReport`](crate::FlowReport)s are *semantically*
    /// identical when their JSON matches after stripping the volatile
    /// wall-clock members (`stages`, `total_seconds`).
    #[must_use]
    pub fn without_keys(&self, keys: &[&str]) -> Json {
        match self {
            Json::Obj(members) => Json::Obj(
                members
                    .iter()
                    .filter(|(k, _)| !keys.contains(&k.as_ref()))
                    .map(|(k, v)| (k.clone(), v.without_keys(keys)))
                    .collect(),
            ),
            Json::Arr(items) => Json::Arr(items.iter().map(|v| v.without_keys(keys)).collect()),
            other => other.clone(),
        }
    }

    fn write<W: fmt::Write>(&self, out: &mut W) -> fmt::Result {
        match self {
            Json::Null => out.write_str("null"),
            Json::Bool(b) => out.write_str(if *b { "true" } else { "false" }),
            Json::U64(n) => write!(out, "{n}"),
            Json::Num(n) => write_f64(*n, out),
            Json::Str(s) => write_json_string(s, out),
            Json::Arr(items) => {
                out.write_char('[')?;
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.write_char(',')?;
                    }
                    v.write(out)?;
                }
                out.write_char(']')
            }
            Json::Obj(members) => {
                out.write_char('{')?;
                for (i, (k, v)) in members.iter().enumerate() {
                    if i > 0 {
                        out.write_char(',')?;
                    }
                    write_json_string(k, out)?;
                    out.write_char(':')?;
                    v.write(out)?;
                }
                out.write_char('}')
            }
        }
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Rendered into a local buffer and handed over in one write: the
        // formatter's own writer is a dynamic call per token. Most
        // documents are reply lines of a few hundred bytes.
        let mut buf = String::with_capacity(256);
        self.write(&mut buf)?;
        f.write_str(&buf)
    }
}

impl From<bool> for Json {
    fn from(b: bool) -> Json {
        Json::Bool(b)
    }
}

impl From<u64> for Json {
    fn from(n: u64) -> Json {
        Json::U64(n)
    }
}

impl From<usize> for Json {
    fn from(n: usize) -> Json {
        Json::U64(n as u64)
    }
}

impl From<f64> for Json {
    fn from(v: f64) -> Json {
        Json::Num(v)
    }
}

impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::Str(s.to_owned())
    }
}

impl From<String> for Json {
    fn from(s: String) -> Json {
        Json::Str(s)
    }
}

/// `None` is `null`.
impl<T: Into<Json>> From<Option<T>> for Json {
    fn from(v: Option<T>) -> Json {
        v.map_or(Json::Null, Into::into)
    }
}

/// Collects into an array.
impl<T: Into<Json>> FromIterator<T> for Json {
    fn from_iter<I: IntoIterator<Item = T>>(items: I) -> Json {
        Json::Arr(items.into_iter().map(Into::into).collect())
    }
}

/// Shortest round-trip form, `.0` appended to integral values so they
/// parse back as floats; `null` when not finite.
fn write_f64<W: fmt::Write>(v: f64, out: &mut W) -> fmt::Result {
    if !v.is_finite() {
        return out.write_str("null");
    }
    // `{}` never uses an exponent, so an integral value has no '.'.
    if v.fract() == 0.0 {
        write!(out, "{v}.0")
    } else {
        write!(out, "{v}")
    }
}

/// Writes `s` as a quoted JSON string, escaping quotes, backslashes and
/// control characters.
fn write_json_string<W: fmt::Write>(s: &str, out: &mut W) -> fmt::Result {
    out.write_char('"')?;
    let mut run = 0;
    for (i, b) in s.bytes().enumerate() {
        let escape = match b {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            0..=0x1f => "",
            _ => continue,
        };
        // Every byte matched above is ASCII, so `i` is a char boundary.
        out.write_str(&s[run..i])?;
        if escape.is_empty() {
            write!(out, "\\u{b:04x}")?;
        } else {
            out.write_str(escape)?;
        }
        run = i + 1;
    }
    out.write_str(&s[run..])?;
    out.write_char('"')
}

struct Parser<'t> {
    text: &'t str,
    bytes: &'t [u8],
    pos: usize,
    /// Arrays/objects currently open.
    depth: usize,
}

impl Parser<'_> {
    fn err(&self, reason: &'static str) -> JsonError {
        JsonError {
            at: self.pos,
            reason,
        }
    }

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

    fn eat(&mut self, b: u8, reason: &'static str) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(reason))
        }
    }

    fn lit(&mut self, word: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err("invalid literal"))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(b'{' | b'[') if self.depth == MAX_DEPTH => Err(self.err("nesting too deep")),
            Some(b'{') => self.nested(Self::object),
            Some(b'[') => self.nested(Self::array),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.lit("true", Json::Bool(true)),
            Some(b'f') => self.lit("false", Json::Bool(false)),
            Some(b'n') => self.lit("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a value")),
        }
    }

    fn nested(
        &mut self,
        container: fn(&mut Self) -> Result<Json, JsonError>,
    ) -> Result<Json, JsonError> {
        self.depth += 1;
        let v = container(self);
        self.depth -= 1;
        v
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.eat(b'{', "expected '{'")?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':', "expected ':' after member name")?;
            self.skip_ws();
            let value = self.value()?;
            members.push((Cow::Owned(key), value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(members));
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.eat(b'[', "expected '['")?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.eat(b'"', "expected '\"'")?;
        let mut s = String::new();
        loop {
            let start = self.pos;
            while let Some(&b) = self.bytes.get(self.pos) {
                if b == b'"' || b == b'\\' || b < 0x20 {
                    break;
                }
                self.pos += 1;
            }
            // The slice boundaries sit on ASCII bytes: always a char
            // boundary of the input.
            s.push_str(&self.text[start..self.pos]);
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(s);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or_else(|| self.err("truncated escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => s.push('"'),
                        b'\\' => s.push('\\'),
                        b'/' => s.push('/'),
                        b'n' => s.push('\n'),
                        b'r' => s.push('\r'),
                        b't' => s.push('\t'),
                        b'b' => s.push('\u{8}'),
                        b'f' => s.push('\u{c}'),
                        b'u' => {
                            let code = self.hex4()?;
                            // Surrogate pairs are not produced by any
                            // writer in this workspace; lone
                            // surrogates map to the replacement char.
                            s.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                _ => return Err(self.err("unterminated string")),
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let mut code = 0u32;
        for _ in 0..4 {
            let b = self
                .peek()
                .ok_or_else(|| self.err("truncated \\u escape"))?;
            let digit = match b {
                b'0'..=b'9' => u32::from(b - b'0'),
                b'a'..=b'f' => u32::from(b - b'a') + 10,
                b'A'..=b'F' => u32::from(b - b'A') + 10,
                _ => return Err(self.err("invalid hex digit in \\u escape")),
            };
            code = code * 16 + digit;
            self.pos += 1;
        }
        Ok(code)
    }

    /// An unsigned integer literal that fits is a [`Json::U64`]; every
    /// other number is a [`Json::Num`].
    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        let mut unsigned_int = true;
        if self.peek() == Some(b'-') {
            self.pos += 1;
            unsigned_int = false;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            unsigned_int = false;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            unsigned_int = false;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text = &self.text[start..self.pos];
        if let Some(n) = unsigned_int.then(|| text.parse().ok()).flatten() {
            return Ok(Json::U64(n));
        }
        text.parse::<f64>().map(Json::Num).map_err(|_| JsonError {
            at: start,
            reason: "invalid number",
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_nested_document() {
        let src = r#"{"a":1,"b":[true,null,"x\ny"],"c":{"d":-2.5,"e":""}}"#;
        let v = Json::parse(src).unwrap();
        assert_eq!(v.to_string(), src);
        assert_eq!(v.get("a").and_then(Json::as_u64), Some(1));
        assert_eq!(
            v.get("b").and_then(Json::as_array).map(<[Json]>::len),
            Some(3)
        );
        assert_eq!(
            v.get("c").and_then(|c| c.get("d")).and_then(Json::as_f64),
            Some(-2.5)
        );
    }

    #[test]
    fn preserves_key_order() {
        let v = Json::parse(r#"{"z":1,"a":2,"m":3}"#).unwrap();
        let keys: Vec<&str> = v
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_ref())
            .collect();
        assert_eq!(keys, ["z", "a", "m"]);
    }

    #[test]
    fn without_keys_strips_at_depth() {
        let v = Json::parse(r#"{"keep":1,"drop":2,"nest":{"drop":3,"keep":4}}"#).unwrap();
        let stripped = v.without_keys(&["drop"]);
        assert_eq!(stripped.to_string(), r#"{"keep":1,"nest":{"keep":4}}"#);
    }

    #[test]
    fn rejects_garbage() {
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("{} x").is_err());
        assert!(Json::parse(r#"{"a" 1}"#).is_err());
        assert!(Json::parse("-").is_err());
    }

    #[test]
    fn nesting_is_capped() {
        let ok = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(Json::parse(&ok).is_ok());
        let deep = format!("{}{}", "[".repeat(MAX_DEPTH + 1), "]".repeat(MAX_DEPTH + 1));
        let err = Json::parse(&deep).unwrap_err();
        assert_eq!((err.at, err.reason), (MAX_DEPTH, "nesting too deep"));
        // Far past the cap, unterminated: still a typed error, no
        // stack overflow.
        assert!(Json::parse(&"[{\"a\":".repeat(40_000)).is_err());
    }

    #[test]
    fn json_escaping() {
        assert_eq!(Json::from("plain").to_string(), "\"plain\"");
        assert_eq!(
            Json::from("a\"b\\c\nd\u{1}é").to_string(),
            "\"a\\\"b\\\\c\\nd\\u0001é\""
        );
        let v = Json::obj([("k\"", Json::from("\t"))]);
        assert_eq!(v.to_string(), r#"{"k\"":"\t"}"#);
        assert_eq!(Json::parse(&v.to_string()).unwrap(), v);
    }

    #[test]
    fn unsigned_integers_are_exact_over_the_whole_range() {
        for text in ["18446744073709551615", "9007199254740993", "0"] {
            let v = Json::parse(text).unwrap();
            assert_eq!(v.to_string(), text);
            assert_eq!(v.as_u64().map(|n| n.to_string()).as_deref(), Some(text));
        }
        assert_eq!(
            Json::parse("18446744073709551615").unwrap(),
            Json::U64(u64::MAX)
        );
        // Past u64, negative or fractional: a float.
        assert_eq!(
            Json::parse("18446744073709551616").unwrap(),
            Json::Num(18_446_744_073_709_551_616.0)
        );
        assert_eq!(Json::parse("-2").unwrap(), Json::Num(-2.0));
        assert_eq!(Json::parse("2.0").unwrap().as_u64(), Some(2));
        assert_eq!(Json::parse("2.5").unwrap().as_u64(), None);
        assert_eq!(Json::parse("9007199254740992.0").unwrap().as_u64(), None);
    }

    #[test]
    fn floats_round_trip_as_floats() {
        for (v, text) in [
            (1.5, "1.5"),
            (100.0, "100.0"),
            (-2.0, "-2.0"),
            (1e-7, "0.0000001"),
        ] {
            let json = Json::from(v);
            assert_eq!(json.to_string(), text);
            assert_eq!(Json::parse(text).unwrap(), json);
        }
    }

    #[test]
    fn non_finite_numbers_write_null() {
        assert_eq!(Json::parse("1e999").unwrap().to_string(), "null");
        assert_eq!(Json::parse("-1e999").unwrap().to_string(), "null");
        for v in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert_eq!(Json::Num(v).to_string(), "null");
        }
        let doc = Json::obj([
            ("x", f64::NAN.into()),
            ("y", [f64::INFINITY].into_iter().collect()),
        ]);
        assert_eq!(doc.to_string(), r#"{"x":null,"y":[null]}"#);
    }
}
