//! Minimal JSON value + recursive-descent parser, shared by the
//! report/diff binaries (`obs_report`, `bench_compare`). Hand-rolled:
//! the workspace builds offline with zero external crates.
//!
//! A non-negative integer literal that fits `u64` is kept exact
//! ([`Json::Int`]: seeds and `u64::MAX` window ends do not survive an
//! `f64`); every other number parses as `f64`. [`Json::as_f64`] reads
//! both, so only a reader that needs the exact integer asks for
//! [`Json::as_u64`].

/// Parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A non-negative integer literal (no sign, fraction or
    /// exponent) that fits `u64`, exact.
    Int(u64),
    /// Any other number, as `f64`.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in source order (duplicate keys preserved).
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Field lookup on an object (first match); `None` otherwise.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Int(v) => Some(*v as f64),
            Json::Num(v) => Some(*v),
            _ => None,
        }
    }

    /// The exact value, if this was written as a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Int(v) => Some(*v),
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

    /// The element list, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The field list, if this is an object.
    pub fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(fields) => Some(fields),
            _ => None,
        }
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn new(text: &'a str) -> Self {
        Parser {
            bytes: text.as_bytes(),
            pos: 0,
        }
    }

    fn error(&self, what: &str) -> String {
        format!("JSON parse error at byte {}: {what}", self.pos)
    }

    fn skip_ws(&mut self) {
        while let Some(b) = self.bytes.get(self.pos) {
            if b.is_ascii_whitespace() {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn eat(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(&format!("expected '{}'", b as char)))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b) if b == b'-' || b.is_ascii_digit() => self.number(),
            _ => Err(self.error("expected a value")),
        }
    }

    fn literal(&mut self, lit: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(value)
        } else {
            Err(self.error(&format!("expected '{lit}'")))
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while let Some(b) = self.peek() {
            if b.is_ascii_digit() || matches!(b, b'.' | b'e' | b'E' | b'+' | b'-') {
                self.pos += 1;
            } else {
                break;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii");
        if let Ok(v) = text.parse::<u64>() {
            return Ok(Json::Int(v));
        }
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| self.error("bad number"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
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
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or_else(|| self.error("truncated \\u escape"))?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex)
                                    .map_err(|_| self.error("bad \\u escape"))?,
                                16,
                            )
                            .map_err(|_| self.error("bad \\u escape"))?;
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(self.error("bad escape")),
                    }
                    self.pos += 1;
                }
                Some(b) if b < 0x80 => {
                    out.push(b as char);
                    self.pos += 1;
                }
                Some(b) => {
                    // Multi-byte UTF-8 sequences pass through untouched.
                    let len = match b {
                        0xc0..=0xdf => 2,
                        0xe0..=0xef => 3,
                        _ => 4,
                    };
                    let chunk = self
                        .bytes
                        .get(self.pos..self.pos + len)
                        .ok_or_else(|| self.error("truncated utf-8"))?;
                    let s = std::str::from_utf8(chunk)
                        .map_err(|_| self.error("invalid utf-8"))?;
                    out.push_str(s);
                    self.pos += len;
                }
                None => return Err(self.error("unterminated string")),
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.error("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.eat(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(self.error("expected ',' or '}'")),
            }
        }
    }
}

/// Parses `text` as a single JSON document (trailing garbage is an
/// error).
pub fn parse_json(text: &str) -> Result<Json, String> {
    let mut p = Parser::new(text);
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.error("trailing garbage"));
    }
    Ok(v)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_harness_shapes() {
        let doc = parse_json(
            r#"{"a": [1, 2.5, -3e2], "s": "x\"yA", "b": true, "n": null, "o": {}}"#,
        )
        .unwrap();
        assert_eq!(doc.get("a").unwrap().as_arr().unwrap().len(), 3);
        assert_eq!(doc.get("a").unwrap().as_arr().unwrap()[2].as_f64(), Some(-300.0));
        assert_eq!(doc.get("a").unwrap().as_arr().unwrap()[0], Json::Int(1));
        assert_eq!(doc.get("a").unwrap().as_arr().unwrap()[1].as_u64(), None);
        assert_eq!(doc.get("s").unwrap().as_str(), Some("x\"yA"));
        assert_eq!(doc.get("b"), Some(&Json::Bool(true)));
        assert_eq!(doc.get("n"), Some(&Json::Null));
        assert!(doc.get("o").unwrap().as_obj().unwrap().is_empty());
    }

    #[test]
    fn rejects_trailing_garbage_and_bad_numbers() {
        assert!(parse_json("{} x").is_err());
        assert!(parse_json("[1,]").is_err());
        assert!(parse_json("nul").is_err());
    }

    #[test]
    fn integers_beyond_two_to_the_53_stay_exact() {
        let doc = parse_json("[9007199254740993, 18446744073709551615, 18446744073709551616]")
            .unwrap();
        let items = doc.as_arr().unwrap();
        assert_eq!(items[0].as_u64(), Some((1 << 53) + 1));
        assert_eq!(items[0].as_f64(), Some(9007199254740992.0));
        assert_eq!(items[1].as_u64(), Some(u64::MAX));
        // One past u64::MAX is still a number, just not an exact one.
        assert_eq!(items[2].as_u64(), None);
        assert!(items[2].as_f64().is_some());
    }

    #[test]
    fn round_trips_a_series_export() {
        let doc = parse_json(
            r#"{"series": "unidrive-obs-series/v2", "window_ns": 10000000000,
                "metrics": {"cloud.ops": {"dropbox": {"kind": "counter",
                "windows": [[0, 6], [3, 2]]}}}}"#,
        )
        .unwrap();
        let m = doc.get("metrics").unwrap().get("cloud.ops").unwrap();
        let w = m.get("dropbox").unwrap().get("windows").unwrap();
        assert_eq!(w.as_arr().unwrap()[1].as_arr().unwrap()[0].as_f64(), Some(3.0));
    }
}
