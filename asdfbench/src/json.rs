//! The little JSON writing the benchmark needs; reading goes through
//! `asdf_obs::json::parse`.

use std::fmt::Write as _;

/// A JSON string literal.
pub fn string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
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
    out.push('"');
    out
}

/// A JSON number with every digit the `f64` has; JSON has no NaN or
/// infinity, so those become `null`.
pub fn number(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".to_owned()
    }
}

/// A JSON array of numbers.
pub fn numbers(xs: &[f64]) -> String {
    let items: Vec<String> = xs.iter().map(|x| number(*x)).collect();
    format!("[{}]", items.join(","))
}

/// A JSON array of millisecond samples, kept to a tenth of a microsecond:
/// thousands of them travel on one line from a run to the suite.
pub fn millis(xs: &[f64]) -> String {
    let items: Vec<String> = xs.iter().map(|x| format!("{x:.4}")).collect();
    format!("[{}]", items.join(","))
}

/// `{"name": {"value": v, "unit": "u"}, ...}`
pub fn metrics(metrics: &[crate::metrics::Metric]) -> String {
    let items: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}:{{\"value\":{},\"unit\":{}}}",
                string(m.name),
                number(m.value),
                string(m.unit)
            )
        })
        .collect();
    format!("{{{}}}", items.join(","))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn output_parses_back() {
        let text = format!(
            "{{\"s\":{},\"n\":{},\"xs\":{}}}",
            string("a\"b\\c\n\u{1}"),
            number(0.1 + 0.2),
            numbers(&[1.0, f64::NAN])
        );
        let doc = asdf_obs::json::parse(&text).expect("valid JSON");
        assert_eq!(
            doc.get("s").and_then(|v| v.as_str()),
            Some("a\"b\\c\n\u{1}")
        );
        assert_eq!(doc.get("n").and_then(|v| v.as_f64()), Some(0.1 + 0.2));
        assert_eq!(
            doc.get("xs").and_then(|v| v.as_array()).map(<[_]>::len),
            Some(2)
        );
    }
}
