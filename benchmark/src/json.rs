//! A JSON value, its serializer (the result line, the trace and result
//! files) and a small parser (the suite reads back the result file of each
//! workload it ran in a child process).

use std::fmt::Write as _;

/// One JSON value. Objects keep insertion order so output is stable.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    /// Whole numbers print without a fraction (`attempted`, counts, ids).
    Int(i64),
    /// Finite floats print with all their digits; NaN and infinities have
    /// no JSON spelling and print as `null`.
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// An object from `(key, value)` pairs.
    pub fn obj<K: Into<String>>(pairs: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// A string value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// A count; values beyond `i64` saturate.
    pub fn count(n: u64) -> Json {
        Json::Int(i64::try_from(n).unwrap_or(i64::MAX))
    }

    /// Compact single-line rendering.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(n) => write!(out, "{n}").expect("writing to a String cannot fail"),
            Json::Num(x) if x.is_finite() => {
                // `{:?}` is the shortest form that reads back exactly and
                // always carries a fraction or exponent.
                write!(out, "{x:?}").expect("writing to a String cannot fail")
            }
            Json::Num(_) => out.push_str("null"),
            Json::Str(s) => write_str(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    write_str(k, out);
                    out.push_str(": ");
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

impl Json {
    /// Parse one JSON document.
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        let value = p.value()?;
        p.skip_space();
        if p.pos != p.bytes.len() {
            return Err(p.error("trailing characters"));
        }
        Ok(value)
    }

    /// Member `key` of an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(x) => Some(*x),
            Json::Int(n) => Some(*n as f64),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }
}

/// Nesting beyond this is refused rather than recursed into.
const MAX_DEPTH: usize = 64;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn error(&self, what: &str) -> String {
        format!("JSON: {what} at byte {}", self.pos)
    }

    fn skip_space(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(u8::is_ascii_whitespace)
        {
            self.pos += 1;
        }
    }

    fn eat(&mut self, token: &str) -> bool {
        let found = self.bytes[self.pos..].starts_with(token.as_bytes());
        if found {
            self.pos += token.len();
        }
        found
    }

    fn value(&mut self) -> Result<Json, String> {
        self.nested(0)
    }

    fn nested(&mut self, depth: usize) -> Result<Json, String> {
        if depth > MAX_DEPTH {
            return Err(self.error("nesting too deep"));
        }
        self.skip_space();
        match self.bytes.get(self.pos).copied() {
            Some(b'{') => {
                self.pos += 1;
                let mut pairs = Vec::new();
                self.skip_space();
                if self.eat("}") {
                    return Ok(Json::Obj(pairs));
                }
                loop {
                    self.skip_space();
                    let key = self.string()?;
                    self.skip_space();
                    if !self.eat(":") {
                        return Err(self.error("expected ':'"));
                    }
                    pairs.push((key, self.nested(depth + 1)?));
                    self.skip_space();
                    if self.eat("}") {
                        return Ok(Json::Obj(pairs));
                    }
                    if !self.eat(",") {
                        return Err(self.error("expected ',' or '}'"));
                    }
                }
            }
            Some(b'[') => {
                self.pos += 1;
                let mut items = Vec::new();
                self.skip_space();
                if self.eat("]") {
                    return Ok(Json::Arr(items));
                }
                loop {
                    items.push(self.nested(depth + 1)?);
                    self.skip_space();
                    if self.eat("]") {
                        return Ok(Json::Arr(items));
                    }
                    if !self.eat(",") {
                        return Err(self.error("expected ',' or ']'"));
                    }
                }
            }
            Some(b'"') => self.string().map(Json::Str),
            Some(_) if self.eat("true") => Ok(Json::Bool(true)),
            Some(_) if self.eat("false") => Ok(Json::Bool(false)),
            Some(_) if self.eat("null") => Ok(Json::Null),
            Some(_) => self.number(),
            None => Err(self.error("unexpected end")),
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| b.is_ascii_digit() || b"+-.eE".contains(b))
        {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ASCII");
        if let Ok(n) = text.parse::<i64>() {
            return Ok(Json::Int(n));
        }
        match text.parse::<f64>() {
            Ok(x) if x.is_finite() => Ok(Json::Num(x)),
            _ => {
                self.pos = start;
                Err(self.error("expected a value"))
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        if !self.eat("\"") {
            return Err(self.error("expected a string"));
        }
        let mut out = Vec::new();
        loop {
            let Some(&b) = self.bytes.get(self.pos) else {
                return Err(self.error("unterminated string"));
            };
            self.pos += 1;
            match b {
                b'"' => break,
                b'\\' => {
                    let Some(&e) = self.bytes.get(self.pos) else {
                        return Err(self.error("unterminated escape"));
                    };
                    self.pos += 1;
                    let c = match e {
                        b'"' => '"',
                        b'\\' => '\\',
                        b'/' => '/',
                        b'n' => '\n',
                        b'r' => '\r',
                        b't' => '\t',
                        b'b' => '\u{8}',
                        b'f' => '\u{c}',
                        b'u' => {
                            let hex = self.bytes.get(self.pos..self.pos + 4);
                            let code = hex
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .and_then(char::from_u32);
                            let Some(c) = code else {
                                return Err(self.error("bad \\u escape"));
                            };
                            self.pos += 4;
                            c
                        }
                        _ => return Err(self.error("unknown escape")),
                    };
                    out.extend(c.encode_utf8(&mut [0; 4]).as_bytes());
                }
                b => out.push(b),
            }
        }
        String::from_utf8(out).map_err(|_| self.error("string is not UTF-8"))
    }
}

fn write_str(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                write!(out, "\\u{:04x}", c as u32).expect("writing to a String cannot fail")
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars() {
        assert_eq!(Json::Null.render(), "null");
        assert_eq!(Json::Bool(true).render(), "true");
        assert_eq!(Json::Int(-3).render(), "-3");
        assert_eq!(Json::count(u64::MAX).render(), i64::MAX.to_string());
        assert_eq!(Json::Num(1.5).render(), "1.5");
        assert_eq!(Json::Num(2.0).render(), "2.0");
        assert_eq!(Json::Num(1.2034e-7).render(), "1.2034e-7");
        assert_eq!(Json::Num(f64::NAN).render(), "null");
        assert_eq!(Json::Num(f64::INFINITY).render(), "null");
    }

    #[test]
    fn floats_keep_all_their_digits() {
        let x = 0.812_734_561_234_567_8_f64;
        assert_eq!(Json::Num(x).render().parse::<f64>().unwrap(), x);
    }

    #[test]
    fn strings_are_escaped() {
        let escaped = Json::str("a\"b\\c\nd\te\u{1}").render();
        assert_eq!(escaped, ["\"a\\\"b\\\\c\\nd\\te\\u", "0001\""].concat());
        assert_eq!(Json::str("µs/GiB").render(), "\"µs/GiB\"");
    }

    #[test]
    fn parse_inverts_render() {
        let v = Json::obj([
            ("s", Json::str("a\"b\\c\nd\te\u{1} µ")),
            ("n", Json::Num(-1.2034e-7)),
            ("i", Json::Int(-42)),
            ("big", Json::count(1 << 62)),
            ("t", Json::Bool(true)),
            ("z", Json::Null),
            (
                "a",
                Json::Arr(vec![Json::Arr(Vec::new()), Json::obj::<&str>([])]),
            ),
        ]);
        assert_eq!(Json::parse(&v.render()), Ok(v.clone()));
        assert_eq!(Json::parse(" {\n\"k\" : [ 1 , 2.5e1 ]\n} "), {
            Ok(Json::obj([(
                "k",
                Json::Arr(vec![Json::Int(1), Json::Num(25.0)]),
            )]))
        });
        assert_eq!(v.get("i").and_then(Json::as_f64), Some(-42.0));
        assert_eq!(v.get("t"), Some(&Json::Bool(true)));
        assert_eq!(
            v.get("s").and_then(Json::as_str),
            Some("a\"b\\c\nd\te\u{1} µ")
        );
        assert_eq!(v.get("missing"), None);
        assert_eq!(Json::Null.get("k"), None);
    }

    #[test]
    fn malformed_documents_are_errors_not_panics() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\" 1}",
            "{\"a\": }",
            "\"open",
            "\"bad \\q\"",
            "\"\\u12\"",
            "nul",
            "1 2",
            "--",
            "1e999",
            "[1 2]",
        ] {
            assert!(Json::parse(bad).is_err(), "{bad:?}");
        }
        let deep = "[".repeat(100_000);
        assert!(Json::parse(&deep).is_err());
    }

    #[test]
    fn nesting_keeps_insertion_order() {
        let v = Json::obj([
            ("correct", Json::Bool(true)),
            ("attempted", Json::Int(1000)),
            (
                "metrics",
                Json::obj([(
                    "latency_ms",
                    Json::obj([("value", Json::Num(1.2034)), ("unit", Json::str("ms"))]),
                )]),
            ),
            ("list", Json::Arr(vec![Json::Int(1), Json::Null])),
            ("empty", Json::Arr(Vec::new())),
        ]);
        assert_eq!(
            v.render(),
            r#"{"correct": true, "attempted": 1000, "metrics": {"latency_ms": {"value": 1.2034, "unit": "ms"}}, "list": [1, null], "empty": []}"#
        );
    }
}
