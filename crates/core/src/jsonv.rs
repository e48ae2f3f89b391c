//! Minimal JSON reader for evidence-file validation.
//!
//! The build environment carries no serde, yet the acceptance bar for
//! the profile/export layer is "the evidence JSON is produced **and
//! parseable**". This is a small recursive-descent parser — objects,
//! arrays, strings (with the escapes [`crate::downtime::json_str`]
//! emits), numbers, booleans, null — used by the round-trip tests and
//! the `evidence_check` bench binary. It is a validator and accessor,
//! not a serde replacement: numbers fold to `f64`, objects keep
//! insertion order in a `Vec`.

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number, held as `f64`.
    Num(f64),
    /// A string, unescaped.
    Str(String),
    /// An array.
    Arr(Vec<JsonValue>),
    /// An object, in document order (duplicate keys keep the first).
    Obj(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Object member by key (`None` on non-objects / missing keys).
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Array element by index.
    pub fn idx(&self, i: usize) -> Option<&JsonValue> {
        match self {
            JsonValue::Arr(items) => items.get(i),
            _ => None,
        }
    }

    /// The array items, if this is an array.
    pub fn as_arr(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The object members, if this is an object.
    pub fn as_obj(&self) -> Option<&[(String, JsonValue)]> {
        match self {
            JsonValue::Obj(members) => Some(members),
            _ => None,
        }
    }

    /// The string contents, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The number, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The number as an exact non-negative integer, if it is one.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= 2f64.powi(53) => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// The boolean, if this is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }
}

/// Parse a complete JSON document; trailing non-whitespace is an error.
pub fn parse(text: &str) -> Result<JsonValue, String> {
    let bytes = text.as_bytes();
    let mut pos = 0usize;
    let value = parse_value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing data at byte {pos}"));
    }
    Ok(value)
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, b: u8) -> Result<(), String> {
    if bytes.get(*pos) == Some(&b) {
        *pos += 1;
        Ok(())
    } else {
        Err(format!(
            "expected '{}' at byte {} (found {:?})",
            b as char,
            *pos,
            bytes.get(*pos).map(|&c| c as char)
        ))
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<JsonValue, String> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        Some(b'{') => parse_obj(bytes, pos),
        Some(b'[') => parse_arr(bytes, pos),
        Some(b'"') => Ok(JsonValue::Str(parse_string(bytes, pos)?)),
        Some(b't') => parse_lit(bytes, pos, "true", JsonValue::Bool(true)),
        Some(b'f') => parse_lit(bytes, pos, "false", JsonValue::Bool(false)),
        Some(b'n') => parse_lit(bytes, pos, "null", JsonValue::Null),
        Some(c) if c.is_ascii_digit() || *c == b'-' => parse_num(bytes, pos),
        other => Err(format!(
            "unexpected {:?} at byte {}",
            other.map(|&c| c as char),
            *pos
        )),
    }
}

fn parse_lit(
    bytes: &[u8],
    pos: &mut usize,
    lit: &str,
    value: JsonValue,
) -> Result<JsonValue, String> {
    if bytes[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(format!("bad literal at byte {pos}", pos = *pos))
    }
}

fn parse_num(bytes: &[u8], pos: &mut usize) -> Result<JsonValue, String> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
    {
        *pos += 1;
    }
    let text = std::str::from_utf8(&bytes[start..*pos]).map_err(|e| e.to_string())?;
    text.parse::<f64>()
        .map(JsonValue::Num)
        .map_err(|e| format!("bad number {text:?} at byte {start}: {e}"))
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(bytes, pos, b'"')?;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err("unterminated string".into()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b't') => out.push('\t'),
                    Some(b'r') => out.push('\r'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hex = bytes
                            .get(*pos + 1..*pos + 5)
                            .ok_or("truncated \\u escape")?;
                        let code = u32::from_str_radix(
                            std::str::from_utf8(hex).map_err(|e| e.to_string())?,
                            16,
                        )
                        .map_err(|e| e.to_string())?;
                        // No surrogate-pair support: json_str never emits
                        // them (it only escapes controls and ASCII).
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        *pos += 4;
                    }
                    other => {
                        return Err(format!("bad escape {:?}", other.map(|&c| c as char)));
                    }
                }
                *pos += 1;
            }
            Some(_) => {
                // Copy the run of plain characters up to the next quote or
                // escape in one go. Both are ASCII, which never occurs
                // inside a multi-byte UTF-8 sequence, so the run ends on a
                // character boundary of the input `&str`.
                let run = bytes[*pos..]
                    .iter()
                    .position(|&b| b == b'"' || b == b'\\')
                    .ok_or("unterminated string")?;
                let text =
                    std::str::from_utf8(&bytes[*pos..*pos + run]).map_err(|e| e.to_string())?;
                out.push_str(text);
                *pos += run;
            }
        }
    }
}

fn parse_arr(bytes: &[u8], pos: &mut usize) -> Result<JsonValue, String> {
    expect(bytes, pos, b'[')?;
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(JsonValue::Arr(items));
    }
    loop {
        items.push(parse_value(bytes, pos)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => {
                *pos += 1;
            }
            Some(b']') => {
                *pos += 1;
                return Ok(JsonValue::Arr(items));
            }
            other => {
                return Err(format!(
                    "expected ',' or ']' at byte {} (found {:?})",
                    *pos,
                    other.map(|&c| c as char)
                ));
            }
        }
    }
}

fn parse_obj(bytes: &[u8], pos: &mut usize) -> Result<JsonValue, String> {
    expect(bytes, pos, b'{')?;
    let mut members = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(JsonValue::Obj(members));
    }
    loop {
        skip_ws(bytes, pos);
        let key = parse_string(bytes, pos)?;
        skip_ws(bytes, pos);
        expect(bytes, pos, b':')?;
        let value = parse_value(bytes, pos)?;
        members.push((key, value));
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => {
                *pos += 1;
            }
            Some(b'}') => {
                *pos += 1;
                return Ok(JsonValue::Obj(members));
            }
            other => {
                return Err(format!(
                    "expected ',' or '}}' at byte {} (found {:?})",
                    *pos,
                    other.map(|&c| c as char)
                ));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars_and_nesting() {
        let v = parse(r#"{"a": 1, "b": [true, null, -2.5e1], "c": {"d": "x\ny"}}"#).unwrap();
        assert_eq!(v.get("a").and_then(|x| x.as_u64()), Some(1));
        assert_eq!(
            v.get("b").and_then(|x| x.idx(0)).and_then(|x| x.as_bool()),
            Some(true)
        );
        assert_eq!(v.get("b").and_then(|x| x.idx(1)), Some(&JsonValue::Null));
        assert_eq!(
            v.get("b").and_then(|x| x.idx(2)).and_then(|x| x.as_f64()),
            Some(-25.0)
        );
        assert_eq!(
            v.get("c").and_then(|x| x.get("d")).and_then(|x| x.as_str()),
            Some("x\ny")
        );
    }

    #[test]
    fn rejects_malformed_documents() {
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse(r#"{"a" 1}"#).is_err());
        assert!(parse("{} trailing").is_err());
        assert!(parse("\"unterminated").is_err());
    }

    #[test]
    fn round_trips_json_str_escapes() {
        let nasty = "tab\there \"quotes\" back\\slash\nnewline";
        let doc = format!("{{\"k\": {}}}", crate::downtime::json_str(nasty));
        let v = parse(&doc).unwrap();
        assert_eq!(v.get("k").and_then(|x| x.as_str()), Some(nasty));
    }

    #[test]
    fn u64_accessor_is_exact_only() {
        assert_eq!(parse("3.5").unwrap().as_u64(), None);
        assert_eq!(parse("-1").unwrap().as_u64(), None);
        assert_eq!(parse("42").unwrap().as_u64(), Some(42));
    }

    #[test]
    fn multi_byte_characters_decode_at_string_edges() {
        let v = parse(r#"{"é": "ünïcode → ok ✓", "s": "日本"}"#).unwrap();
        assert_eq!(v.get("é").and_then(|x| x.as_str()), Some("ünïcode → ok ✓"));
        assert_eq!(v.get("s").and_then(|x| x.as_str()), Some("日本"));
        assert_eq!(parse("\"✓\"").unwrap().as_str(), Some("✓"));
        assert_eq!(parse(r#""a\n✓\"é""#).unwrap().as_str(), Some("a\n✓\"é"));
    }

    #[test]
    fn truncated_multi_byte_documents_are_errors() {
        // Unterminated right after a multi-byte character, with and
        // without an enclosing container, and mid-escape before one.
        for doc in [
            "\"é",
            "[\"aé",
            "{\"k\": \"日本",
            "{\"日",
            "\"\\u00é",
            "\"\\✓\"",
        ] {
            assert!(parse(doc).is_err(), "{doc:?}");
        }
        // Every char-boundary prefix of a valid document fails cleanly.
        let doc = r#"{"ü": ["✓", "x日本y", "\u00e9é"], "z": "→"}"#;
        assert!(parse(doc).is_ok());
        for (cut, _) in doc.char_indices() {
            assert!(parse(&doc[..cut]).is_err(), "{:?}", &doc[..cut]);
        }
    }
}
