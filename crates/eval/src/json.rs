//! A minimal JSON reader (objects, arrays, strings, numbers, booleans,
//! null) for the artifacts this binary consumes: `bench-diff` reads
//! `eblow-bench/1` files and `trace` self-checks its Chrome export. The
//! workspace builds offline, so it carries no external JSON crate.

/// A parsed JSON value.
///
/// The readers here only *inspect* objects, arrays, strings, and numbers,
/// but the parser accepts the full value grammar so a document carrying
/// booleans or nulls still parses — hence the allow.
#[allow(dead_code)]
pub enum Value {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number, held as `f64`.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object, insertion-ordered.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// The fields of an object value, in insertion order.
    pub fn as_obj(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Obj(fields) => Some(fields),
            _ => None,
        }
    }
    /// The numeric payload, if this is a number.
    pub fn as_num(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }
    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }
    /// The elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }
    /// Object field lookup (first match, insertion order).
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.as_obj()?
            .iter()
            .find_map(|(k, v)| (k == key).then_some(v))
    }
}

/// Parses one JSON document; trailing non-whitespace is an error.
pub fn parse(text: &str) -> Result<Value, String> {
    let bytes = text.as_bytes();
    let mut pos = 0usize;
    let value = parse_value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing garbage at byte {pos}"));
    }
    Ok(value)
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<Value, String> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err("unexpected end of input".into()),
        Some(b'{') => {
            *pos += 1;
            let mut fields = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Value::Obj(fields));
            }
            loop {
                skip_ws(bytes, pos);
                let key = match parse_value(bytes, pos)? {
                    Value::Str(s) => s,
                    _ => return Err(format!("object key at byte {pos} must be a string")),
                };
                skip_ws(bytes, pos);
                if bytes.get(*pos) != Some(&b':') {
                    return Err(format!("expected ':' at byte {pos}"));
                }
                *pos += 1;
                fields.push((key, parse_value(bytes, pos)?));
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Value::Obj(fields));
                    }
                    _ => return Err(format!("expected ',' or '}}' at byte {pos}")),
                }
            }
        }
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Value::Arr(items));
            }
            loop {
                items.push(parse_value(bytes, pos)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Value::Arr(items));
                    }
                    _ => return Err(format!("expected ',' or ']' at byte {pos}")),
                }
            }
        }
        Some(b'"') => {
            *pos += 1;
            let mut out = String::new();
            loop {
                match bytes.get(*pos) {
                    None => return Err("unterminated string".into()),
                    Some(b'"') => {
                        *pos += 1;
                        return Ok(Value::Str(out));
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
                            Some(b'u') => {
                                let hex = bytes
                                    .get(*pos + 1..*pos + 5)
                                    .ok_or("truncated \\u escape")?;
                                let code = u32::from_str_radix(
                                    std::str::from_utf8(hex).map_err(|_| "non-ascii \\u escape")?,
                                    16,
                                )
                                .map_err(|_| "bad \\u escape")?;
                                out.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
                                *pos += 4;
                            }
                            other => return Err(format!("bad escape {other:?}")),
                        }
                        *pos += 1;
                    }
                    Some(&b) => {
                        // Multi-byte UTF-8 sequences pass through intact.
                        let ch_len = match b {
                            0..=0x7F => 1,
                            0xC0..=0xDF => 2,
                            0xE0..=0xEF => 3,
                            _ => 4,
                        };
                        let chunk = bytes
                            .get(*pos..*pos + ch_len)
                            .ok_or("truncated utf-8 sequence")?;
                        out.push_str(
                            std::str::from_utf8(chunk).map_err(|e| format!("bad utf-8: {e}"))?,
                        );
                        *pos += ch_len;
                    }
                }
            }
        }
        Some(b't') if bytes[*pos..].starts_with(b"true") => {
            *pos += 4;
            Ok(Value::Bool(true))
        }
        Some(b'f') if bytes[*pos..].starts_with(b"false") => {
            *pos += 5;
            Ok(Value::Bool(false))
        }
        Some(b'n') if bytes[*pos..].starts_with(b"null") => {
            *pos += 4;
            Ok(Value::Null)
        }
        Some(_) => {
            let start = *pos;
            while *pos < bytes.len()
                && matches!(bytes[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
            {
                *pos += 1;
            }
            if *pos == start {
                return Err(format!("unexpected character at byte {start}"));
            }
            std::str::from_utf8(&bytes[start..*pos])
                .map_err(|e| e.to_string())?
                .parse::<f64>()
                .map(Value::Num)
                .map_err(|e| format!("bad number at byte {start}: {e}"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_nested_objects_arrays_escapes_and_numbers() {
        let doc = r#" {
            "schema": "eblow-bench/1",
            "cases": [
                {"name": "1M-1", "t": 12809, "wall_s": 0.25, "tags": ["a\"b", "c\\d\n", "\u00e9"]},
                {"name": "2H-1", "t": -1.5e3, "complete": true, "note": null}
            ],
            "empty": {"obj": {}, "arr": []}
        } "#;
        let root = parse(doc).expect("well-formed document");
        assert_eq!(
            root.get("schema").and_then(Value::as_str),
            Some("eblow-bench/1")
        );
        let cases = root.get("cases").and_then(Value::as_arr).expect("array");
        assert_eq!(cases.len(), 2);
        assert_eq!(cases[0].get("t").and_then(Value::as_num), Some(12809.0));
        assert_eq!(cases[0].get("wall_s").and_then(Value::as_num), Some(0.25));
        assert_eq!(cases[1].get("t").and_then(Value::as_num), Some(-1500.0));
        assert!(matches!(cases[1].get("complete"), Some(Value::Bool(true))));
        assert!(matches!(cases[1].get("note"), Some(Value::Null)));
        let tags: Vec<&str> = cases[0]
            .get("tags")
            .and_then(Value::as_arr)
            .expect("tags")
            .iter()
            .filter_map(Value::as_str)
            .collect();
        assert_eq!(tags, ["a\"b", "c\\d\n", "é"]);
        let empty = root.get("empty").expect("empty");
        assert_eq!(
            empty.get("obj").and_then(Value::as_obj).map(<[_]>::len),
            Some(0)
        );
        assert_eq!(
            empty.get("arr").and_then(Value::as_arr).map(<[_]>::len),
            Some(0)
        );
        assert!(root.get("missing").is_none());
    }

    #[test]
    fn truncated_or_malformed_input_is_an_error() {
        for bad in [
            "",
            "{",
            "[1, 2",
            "{\"a\": }",
            "{\"a\" 1}",
            "{1: 2}",
            "[1 2]",
            "\"unterminated",
            "\"bad \\q escape\"",
            "\"\\u12\"",
            "tru",
            "{} trailing",
            "@",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} must not parse");
        }
    }
}
