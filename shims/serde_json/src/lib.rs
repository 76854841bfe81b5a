//! Minimal serde_json shim (see `shims/README.md`).
//!
//! Emission is deterministic: objects serialize with sorted keys (the
//! value tree stores them in a `BTreeMap`), floats print via `{:?}` (exact
//! round-trip, always re-parse as floats). The parser is a plain
//! recursive-descent JSON reader supporting the full escape set.

pub use serde::value::{Map, Number, Value};
pub use serde::Error;

use serde::{Deserialize, Serialize};

/// Serialize any `Serialize` type to a compact JSON string.
pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    Ok(value.to_value().to_string())
}

/// Serialize to the value tree.
pub fn to_value<T: Serialize>(value: T) -> Result<Value, Error> {
    Ok(value.to_value())
}

/// Deserialize from the value tree.
pub fn from_value<T: Deserialize>(value: Value) -> Result<T, Error> {
    T::from_value(&value)
}

/// Parse a JSON string into any `Deserialize` type.
pub fn from_str<T: Deserialize>(s: &str) -> Result<T, Error> {
    let value = parse_value(s)?;
    T::from_value(&value)
}

/// Build [`Value`]s with JSON-ish syntax.
///
/// Supports the forms this workspace uses: object literals with string
/// keys, array literals, `null`, and interpolated `Serialize` expressions.
#[macro_export]
macro_rules! json {
    (null) => { $crate::Value::Null };
    ([ $($item:expr),* $(,)? ]) => {
        $crate::Value::Array(vec![ $( $crate::__to_value_helper(&$item) ),* ])
    };
    ({ $($key:literal : $val:expr),* $(,)? }) => {{
        #[allow(unused_mut)]
        let mut m = $crate::Map::new();
        $( m.insert(::std::string::String::from($key), $crate::__to_value_helper(&$val)); )*
        $crate::Value::Object(m)
    }};
    ($other:expr) => { $crate::__to_value_helper(&$other) };
}

/// Implementation detail of [`json!`].
#[doc(hidden)]
pub fn __to_value_helper<T: Serialize + ?Sized>(value: &T) -> Value {
    value.to_value()
}

// ---- parser ----------------------------------------------------------------

/// Deepest array/object nesting accepted: the parser recurses per level,
/// and it reads files this process did not write.
const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

/// Parse a JSON document into a [`Value`].
pub fn parse_value(s: &str) -> Result<Value, Error> {
    let mut p = Parser {
        bytes: s.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let v = p.value(0)?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(Error(format!("trailing characters at byte {}", p.pos)));
    }
    Ok(v)
}

impl<'a> Parser<'a> {
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

    fn expect(&mut self, b: u8) -> Result<(), Error> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(Error(format!(
                "expected '{}' at byte {}, found {:?}",
                b as char,
                self.pos,
                self.peek().map(|c| c as char)
            )))
        }
    }

    fn eat_keyword(&mut self, kw: &str) -> bool {
        if self.bytes[self.pos..].starts_with(kw.as_bytes()) {
            self.pos += kw.len();
            true
        } else {
            false
        }
    }

    /// Parse one value sitting inside `depth` arrays/objects.
    fn value(&mut self, depth: usize) -> Result<Value, Error> {
        match self.peek() {
            Some(b'n') if self.eat_keyword("null") => Ok(Value::Null),
            Some(b't') if self.eat_keyword("true") => Ok(Value::Bool(true)),
            Some(b'f') if self.eat_keyword("false") => Ok(Value::Bool(false)),
            Some(b'"') => self.string().map(Value::String),
            Some(b'[' | b'{') if depth == MAX_DEPTH => {
                Err(Error(format!("nesting deeper than {MAX_DEPTH} levels")))
            }
            Some(b'[') => self.array(depth),
            Some(b'{') => self.object(depth),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            other => Err(Error(format!(
                "unexpected {:?} at byte {}",
                other.map(|c| c as char),
                self.pos
            ))),
        }
    }

    fn array(&mut self, depth: usize) -> Result<Value, Error> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                other => {
                    return Err(Error(format!(
                        "expected ',' or ']' at byte {}, found {:?}",
                        self.pos,
                        other.map(|c| c as char)
                    )))
                }
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Value, Error> {
        self.expect(b'{')?;
        let mut m = Map::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(m));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let val = self.value(depth + 1)?;
            m.insert(key, val);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(m));
                }
                other => {
                    return Err(Error(format!(
                        "expected ',' or '}}' at byte {}, found {:?}",
                        self.pos,
                        other.map(|c| c as char)
                    )))
                }
            }
        }
    }

    fn string(&mut self) -> Result<String, Error> {
        self.expect(b'"')?;
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
                        Some(b'b') => out.push('\u{08}'),
                        Some(b'f') => out.push('\u{0c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or_else(|| Error("truncated \\u escape".into()))?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex)
                                    .map_err(|_| Error("bad \\u escape".into()))?,
                                16,
                            )
                            .map_err(|_| Error("bad \\u escape".into()))?;
                            // Surrogate pairs: read a second escape.
                            if (0xd800..0xdc00).contains(&code) {
                                let lo_start = self.pos + 5;
                                if self.bytes.get(lo_start..lo_start + 2) != Some(b"\\u") {
                                    return Err(Error("unpaired surrogate".into()));
                                }
                                let hex2 = self
                                    .bytes
                                    .get(lo_start + 2..lo_start + 6)
                                    .ok_or_else(|| Error("truncated surrogate".into()))?;
                                let lo = u32::from_str_radix(
                                    std::str::from_utf8(hex2)
                                        .map_err(|_| Error("bad surrogate".into()))?,
                                    16,
                                )
                                .map_err(|_| Error("bad surrogate".into()))?;
                                let combined = 0x10000 + ((code - 0xd800) << 10) + (lo - 0xdc00);
                                out.push(
                                    char::from_u32(combined)
                                        .ok_or_else(|| Error("bad surrogate pair".into()))?,
                                );
                                // 'u' + 4 hex + '\' + 'u' + 4 hex.
                                self.pos += 11;
                                continue;
                            }
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| Error("bad \\u codepoint".into()))?,
                            );
                            self.pos += 4;
                        }
                        other => {
                            return Err(Error(format!(
                                "bad escape {:?} at byte {}",
                                other.map(|c| c as char),
                                self.pos
                            )))
                        }
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Copy the run up to the next quote or escape in one go.
                    // The input was a `&str` and both are ASCII, so each cut
                    // is a char boundary; only the run itself is re-checked.
                    let rest = &self.bytes[self.pos..];
                    let run = rest.iter().position(|&b| b == b'"' || b == b'\\');
                    let run = std::str::from_utf8(&rest[..run.unwrap_or(rest.len())])
                        .map_err(|_| Error("invalid utf-8".into()))?;
                    out.push_str(run);
                    self.pos += run.len();
                }
                None => return Err(Error("unterminated string".into())),
            }
        }
    }

    fn number(&mut self) -> Result<Value, Error> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| Error("invalid number bytes".into()))?;
        if !is_float {
            if let Ok(n) = text.parse::<i64>() {
                return Ok(Value::Number(Number::I(n)));
            }
            if let Ok(n) = text.parse::<u64>() {
                return Ok(Value::Number(Number::U(n)));
            }
        }
        text.parse::<f64>()
            .map(|n| Value::Number(Number::F(n)))
            .map_err(|_| Error(format!("invalid number '{text}'")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_scalars() {
        for json in [
            "null",
            "true",
            "false",
            "1",
            "-7",
            "2.5",
            "\"hi\"",
            "[1,2]",
            "{\"a\":1}",
        ] {
            let v: Value = from_str(json).unwrap();
            assert_eq!(v.to_string(), json);
        }
    }

    #[test]
    fn escapes_roundtrip() {
        let v = Value::String("a\"b\\c\nd\te\u{1}f\u{1F600}".into());
        let s = v.to_string();
        let back: Value = from_str(&s).unwrap();
        assert_eq!(back, v);
    }

    #[test]
    fn surrogate_pair_parses() {
        let v: Value = from_str("\"\\ud83d\\ude00\"").unwrap();
        assert_eq!(v.as_str().unwrap(), "\u{1F600}");
    }

    #[test]
    fn float_distinct_from_int() {
        let v: Value = from_str("1.0").unwrap();
        assert_eq!(v.to_string(), "1.0");
        let v: Value = from_str("1e3").unwrap();
        assert_eq!(v.as_f64(), Some(1000.0));
    }

    #[test]
    fn object_keys_sorted() {
        let v: Value = from_str("{\"b\":1,\"a\":2}").unwrap();
        assert_eq!(v.to_string(), "{\"a\":2,\"b\":1}");
    }

    #[test]
    fn json_macro_forms() {
        let sym = String::from("nir_0");
        let v =
            json!({ "symbol": sym, "time_us": 4.5, "tags": json!([1, 2]), "none": Value::Null });
        assert_eq!(v["symbol"].as_str(), Some("nir_0"));
        assert_eq!(v["time_us"].as_f64(), Some(4.5));
        assert_eq!(v["tags"][1].as_u64(), Some(2));
        assert!(v["none"].is_null());
    }

    /// Strings used to cost O(string bytes x document bytes): each
    /// ordinary character re-validated the whole rest of the input.
    #[test]
    fn large_document_of_short_strings_parses_in_linear_time() {
        let item = "\"weights_0123\"";
        let doc = format!("[{}]", vec![item; 200_000].join(", "));
        assert!(doc.len() > 3 << 20);
        let start = std::time::Instant::now();
        let v = parse_value(&doc).unwrap();
        assert!(start.elapsed() < std::time::Duration::from_secs(2));
        assert_eq!(v.as_array().unwrap().len(), 200_000);
        assert_eq!(v[199_999].as_str(), Some("weights_0123"));
    }

    #[test]
    fn nesting_is_bounded_instead_of_overflowing_the_stack() {
        let nested = |open: &str, close: &str, n: usize| open.repeat(n) + &close.repeat(n);
        assert!(parse_value(&nested("[", "]", MAX_DEPTH)).is_ok());
        assert!(parse_value(&nested("{\"k\":", "}", MAX_DEPTH).replace(":}", ":1}")).is_ok());
        for doc in [
            nested("[", "]", MAX_DEPTH + 1),
            nested("[{\"k\":", "}]", MAX_DEPTH / 2 + 1).replace(":}", ":1}"),
            "[".repeat(200_000),
        ] {
            let err = parse_value(&doc).unwrap_err();
            assert!(err.0.contains("nesting deeper than 128"), "{err}");
        }
    }

    /// Every string of up to three characters over an alphabet of what a
    /// JSON string must escape or may carry raw, so every escape sits next
    /// to every width of scalar at least once.
    #[test]
    fn awkward_neighbours_roundtrip() {
        let alphabet = [
            '"', '\\', '/', '\n', '\u{8}', '\u{1f}', 'a', 'é', '€', '\u{ffff}', '😀',
        ];
        let mut strings = vec![String::new()];
        for len in 0..3 {
            let longer = strings.iter().filter(|s| s.chars().count() == len);
            let longer: Vec<String> = longer
                .flat_map(|s| alphabet.iter().map(move |c| format!("{s}{c}")))
                .collect();
            strings.extend(longer);
        }
        assert_eq!(strings.len(), 1 + 11 + 121 + 1331);
        for s in strings {
            let v = json!({ "k": s });
            assert_eq!(parse_value(&v.to_string()), Ok(v));
        }
    }
}
