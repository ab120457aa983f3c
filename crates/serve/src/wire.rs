//! `relviz-wire-v1` — the newline-delimited JSON protocol of the
//! resident server.
//!
//! One JSON object per line in both directions; no frame ever contains
//! a raw newline (embedded text rides in JSON strings, escaped).
//!
//! **Requests** (client → server):
//!
//! ```text
//! {"type":"query","id":1,"query":"SELECT …","lang":"sql"}       evaluate
//!     optional: "db" (default "default"), "engine" "exec"|"parallel"|
//!     "reference" ("exec" runs one worker; "parallel" runs "threads"
//!     workers), "threads" N (the parallel width; absent or 0 = the
//!     server's width), "analyze" true (append a stats frame), "no_opt"
//!     true (disable the optimizer for this request only), "lang"
//!     "sql"|"trc"|"datalog"
//! {"type":"load","db":"g","text":"relation R(a:int, b:int)\n1, 2\n"}  create/replace
//! {"type":"insert","db":"g","text":"relation R(a:int, b:int)\n3, 4\n"} union rows in
//! {"type":"drop","db":"g"}                                      remove
//! {"type":"catalog"}                                            list databases
//! {"type":"ping"}                                               liveness
//! ```
//!
//! **Responses** (server → client):
//!
//! ```text
//! {"type":"hello","schema":"relviz-wire-v1",…}                  session greeting
//! {"type":"result","id":1,"db":"default","generation":0,"rows":2,
//!  "cached_plan":false,"body":"…rendered relation…"}            query answer
//! {"type":"stats","id":1,"stats_json":"…relviz-stats-v1…"}      after result, if analyze
//! {"type":"ok","op":"load","db":"g","generation":1}             catalog mutation
//! {"type":"catalog","databases":[{"name":…,"generation":…,…}]}  listing
//! {"type":"error","id":1,"message":"…"}                         any failure
//! {"type":"pong"}
//! ```
//!
//! The `body` of a `result` frame is byte-identical to what one-shot
//! `relviz run` prints for the same query on the same database — the
//! concurrent-determinism suite pins this against `Engine::Indexed`.
//! The `stats_json` payload of a `stats` frame is the exact
//! `relviz-stats-v1` document `relviz run --stats-json` writes,
//! embedded as one escaped JSON string so the frame stays one line.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// The wire schema identifier.
pub const WIRE_SCHEMA: &str = "relviz-wire-v1";

/// A parsed JSON value — the minimal model the wire needs (numbers are
/// kept as `f64`; the protocol only carries small integers).
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// Member lookup on an object; `None` on other variants.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(m) => m.get(key),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= u64::MAX as f64 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Parses one complete JSON document (a wire frame).
    pub fn parse(input: &str) -> Result<Json, String> {
        let mut p = Parser { bytes: input.as_bytes(), pos: 0 };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing bytes at offset {}", p.pos));
        }
        Ok(v)
    }
}

/// Escapes a string for embedding in a JSON document (and keeps every
/// frame one physical line: `\n` is escaped, never emitted raw).
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// A `{"type":"error", …}` frame.
pub fn error_frame(id: Option<u64>, message: &str) -> String {
    match id {
        Some(id) => {
            format!("{{\"type\":\"error\",\"id\":{id},\"message\":\"{}\"}}", escape(message))
        }
        None => format!("{{\"type\":\"error\",\"message\":\"{}\"}}", escape(message)),
    }
}

// ---------------------------------------------------------------------
// The recursive-descent parser
// ---------------------------------------------------------------------

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        Some(b)
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.bump() == Some(b) {
            Ok(())
        } else {
            Err(format!("expected `{}` at offset {}", b as char, self.pos.saturating_sub(1)))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("invalid literal at offset {}", self.pos))
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
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(c) => Err(format!("unexpected `{}` at offset {}", c as char, self.pos)),
            None => Err("unexpected end of input".to_string()),
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            let val = self.value()?;
            map.insert(key, val);
            self.skip_ws();
            match self.bump() {
                Some(b',') => continue,
                Some(b'}') => return Ok(Json::Obj(map)),
                _ => return Err(format!("expected `,` or `}}` at offset {}", self.pos)),
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.bump() {
                Some(b',') => continue,
                Some(b']') => return Ok(Json::Arr(items)),
                _ => return Err(format!("expected `,` or `]` at offset {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.bump() {
                None => return Err("unterminated string".to_string()),
                Some(b'"') => return Ok(out),
                Some(b'\\') => match self.bump() {
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
                            .get(self.pos..self.pos + 4)
                            .and_then(|h| std::str::from_utf8(h).ok())
                            .ok_or("truncated \\u escape")?;
                        let code = u32::from_str_radix(hex, 16)
                            .map_err(|_| format!("bad \\u escape `{hex}`"))?;
                        self.pos += 4;
                        // Surrogate pairs: the wire only embeds text we
                        // escaped ourselves (BMP + raw UTF-8), but
                        // accept pairs from well-behaved clients.
                        let c = if (0xD800..0xDC00).contains(&code) {
                            if self.bytes.get(self.pos..self.pos + 2) == Some(b"\\u") {
                                let lo_hex = self
                                    .bytes
                                    .get(self.pos + 2..self.pos + 6)
                                    .and_then(|h| std::str::from_utf8(h).ok())
                                    .ok_or("truncated low surrogate")?;
                                let lo = u32::from_str_radix(lo_hex, 16)
                                    .map_err(|_| "bad low surrogate".to_string())?;
                                self.pos += 6;
                                0x10000 + ((code - 0xD800) << 10) + (lo - 0xDC00)
                            } else {
                                return Err("unpaired surrogate".to_string());
                            }
                        } else {
                            code
                        };
                        out.push(char::from_u32(c).ok_or("invalid code point")?);
                    }
                    other => {
                        return Err(format!("bad escape `\\{}`", other.map(|b| b as char).unwrap_or('?')))
                    }
                },
                Some(b) if b < 0x80 => out.push(b as char),
                Some(b) => {
                    // Re-assemble the UTF-8 sequence starting at `b`.
                    let start = self.pos - 1;
                    let len = match b {
                        0xC0..=0xDF => 2,
                        0xE0..=0xEF => 3,
                        0xF0..=0xF7 => 4,
                        _ => return Err("invalid UTF-8 in string".to_string()),
                    };
                    let chunk = self
                        .bytes
                        .get(start..start + len)
                        .ok_or("truncated UTF-8 sequence")?;
                    let s =
                        std::str::from_utf8(chunk).map_err(|_| "invalid UTF-8 in string")?;
                    out.push_str(s);
                    self.pos = start + len;
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| "invalid number".to_string())?;
        text.parse::<f64>().map(Json::Num).map_err(|_| format!("invalid number `{text}`"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_query_frame() {
        let frame = r#"{"type":"query","id":7,"query":"SELECT S.sname FROM Sailor S","lang":"sql","analyze":true}"#;
        let v = Json::parse(frame).expect("parses");
        assert_eq!(v.get("type").and_then(Json::as_str), Some("query"));
        assert_eq!(v.get("id").and_then(Json::as_u64), Some(7));
        assert_eq!(v.get("analyze").and_then(Json::as_bool), Some(true));
        assert_eq!(v.get("missing"), None);
    }

    #[test]
    fn escape_keeps_frames_single_line() {
        let multi = "relation R(a:int)\n1\n2\n";
        let escaped = escape(multi);
        assert!(!escaped.contains('\n'));
        let frame = format!("{{\"text\":\"{escaped}\"}}");
        let v = Json::parse(&frame).expect("round-trips");
        assert_eq!(v.get("text").and_then(Json::as_str), Some(multi));
    }

    #[test]
    fn roundtrips_escapes_and_unicode() {
        let s = "a \"quoted\" \\ backslash\ttab — λ";
        let frame = format!("{{\"s\":\"{}\"}}", escape(s));
        let v = Json::parse(&frame).expect("parses");
        assert_eq!(v.get("s").and_then(Json::as_str), Some(s));
        let v = Json::parse(r#"{"s":"é😀"}"#).expect("surrogates");
        assert_eq!(v.get("s").and_then(Json::as_str), Some("é😀"));
    }

    #[test]
    fn rejects_malformed_frames() {
        for bad in ["", "{", "{\"a\":}", "{\"a\":1} trailing", "[1,]", "{\"a\" 1}"] {
            assert!(Json::parse(bad).is_err(), "{bad:?} must not parse");
        }
    }

    #[test]
    fn numbers_and_nesting() {
        let v = Json::parse(r#"{"a":[1, -2.5, {"b":null}], "c":false}"#).expect("parses");
        let Some(Json::Arr(items)) = v.get("a") else { panic!("array") };
        assert_eq!(items[0], Json::Num(1.0));
        assert_eq!(items[1], Json::Num(-2.5));
        assert_eq!(items[2].get("b"), Some(&Json::Null));
        assert_eq!(v.get("c").and_then(Json::as_bool), Some(false));
    }

    #[test]
    fn error_frame_escapes_the_message() {
        let f = error_frame(Some(3), "bad \"query\"\nline2");
        assert!(!f.contains('\n'));
        let v = Json::parse(&f).expect("error frame is valid JSON");
        assert_eq!(v.get("type").and_then(Json::as_str), Some("error"));
        assert_eq!(v.get("id").and_then(Json::as_u64), Some(3));
        assert_eq!(v.get("message").and_then(Json::as_str), Some("bad \"query\"\nline2"));
    }
}
