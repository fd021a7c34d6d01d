//! The few JSON shapes the harness writes (the workspace has no JSON
//! dependency).

/// A JSON string literal.
pub fn string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number with every digit Rust keeps; `null` for a value JSON
/// cannot hold.
pub fn number(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".to_owned()
    }
}

/// A JSON object from already-encoded values, in the given order.
pub fn object(fields: &[(&str, String)]) -> String {
    let body: Vec<String> = fields
        .iter()
        .map(|(k, v)| format!("{}: {v}", string(k)))
        .collect();
    format!("{{{}}}", body.join(", "))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encodes_the_shapes_the_harness_writes() {
        assert_eq!(string("a\"b\\\n"), r#""a\"b\\\n""#);
        assert_eq!(number(0.25), "0.25");
        assert_eq!(number(f64::NAN), "null");
        assert_eq!(
            object(&[("x", number(1.0)), ("y", string("z"))]),
            r#"{"x": 1, "y": "z"}"#
        );
    }
}
