//! The flat-ASCII ontology file format.
//!
//! §3.2: "All ontologies, templates, files and logs produced are flat
//! ASCII files generated by I/O Unix pipes, readable by most Unix tools
//! (operators) and human administrators."
//!
//! The format is line-oriented so `grep`/`awk`/`cut` work on it:
//!
//! ```text
//! %DOC dlsp v1
//! # free-form comment
//! %SECTION services
//! name=trades-db|type=db-oracle|status=running|port=1521
//! name=web-1|type=web|status=running|port=80
//! ```
//!
//! * a `%DOC <kind> <version>` header line;
//! * `%SECTION <name>` lines opening named record groups;
//! * one record per line: `key=value` fields joined by `|`;
//! * `#` comment lines and blank lines are ignored;
//! * `%`, `|`, `=`, and newline inside values are percent-escaped.

use std::collections::BTreeMap;
use std::fmt;
use std::fmt::Write as _;

/// Errors from parsing a flat document.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FlatError {
    /// Input did not start with a `%DOC` header.
    MissingHeader,
    /// A record line appeared before any `%SECTION`.
    RecordOutsideSection(usize),
    /// A field had no `=` separator.
    MalformedField(usize, String),
    /// A bad percent-escape sequence.
    BadEscape(usize, String),
    /// The `%DOC` line was malformed.
    MalformedHeader(String),
}

impl fmt::Display for FlatError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FlatError::MissingHeader => write!(f, "missing %DOC header"),
            FlatError::RecordOutsideSection(l) => {
                write!(f, "line {l}: record outside any %SECTION")
            }
            FlatError::MalformedField(l, s) => write!(f, "line {l}: malformed field '{s}'"),
            FlatError::BadEscape(l, s) => write!(f, "line {l}: bad escape in '{s}'"),
            FlatError::MalformedHeader(s) => write!(f, "malformed %DOC header '{s}'"),
        }
    }
}

impl std::error::Error for FlatError {}

/// Percent-escape the characters that carry structure. Returns a
/// borrowed slice when nothing needs escaping (the overwhelmingly
/// common case on the DLSP hot path).
pub fn escape(s: &str) -> std::borrow::Cow<'_, str> {
    if !s
        .bytes()
        .any(|b| matches!(b, b'%' | b'|' | b'=' | b'\n' | b'\r'))
    {
        return std::borrow::Cow::Borrowed(s);
    }
    let mut out = String::with_capacity(s.len() + 8);
    for c in s.chars() {
        match c {
            '%' => out.push_str("%25"),
            '|' => out.push_str("%7C"),
            '=' => out.push_str("%3D"),
            '\n' => out.push_str("%0A"),
            '\r' => out.push_str("%0D"),
            _ => out.push(c),
        }
    }
    std::borrow::Cow::Owned(out)
}

/// Reverse [`escape`].
pub fn unescape(s: &str) -> Result<String, String> {
    let mut out = String::with_capacity(s.len());
    let bytes = s.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] == b'%' {
            if i + 3 > bytes.len() {
                return Err(s.to_string());
            }
            let hex = &s[i + 1..i + 3];
            let v = u8::from_str_radix(hex, 16).map_err(|_| s.to_string())?;
            out.push(v as char);
            i += 3;
        } else {
            // Safe: iterating ASCII-or-UTF8; push the full char.
            // qoslint::allow(no-panic, i < s.len() is the loop guard)
            let ch = s[i..].chars().next().expect("in-bounds char");
            out.push(ch);
            i += ch.len_utf8();
        }
    }
    Ok(out)
}

/// One record: an ordered list of key→value fields.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FlatRecord {
    fields: Vec<(String, String)>,
}

impl FlatRecord {
    /// Empty record.
    pub fn new() -> Self {
        FlatRecord::default()
    }

    /// Append a field (string value).
    pub fn set(mut self, key: impl Into<String>, value: impl Into<String>) -> Self {
        self.fields.push((key.into(), value.into()));
        self
    }

    /// Append a numeric field: an integral value below 1e15 prints as an
    /// integer, anything else with four decimals.
    pub fn set_num(self, key: impl Into<String>, value: f64) -> Self {
        let mut v = String::new();
        push_num(&mut v, value);
        self.set(key, v)
    }

    /// First value for a key.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.fields
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    /// Parse a field as f64.
    pub fn get_num(&self, key: &str) -> Option<f64> {
        self.get(key)?.parse().ok()
    }

    /// Parse a field as u32.
    pub fn get_u32(&self, key: &str) -> Option<u32> {
        self.get(key)?.parse().ok()
    }

    /// All values for a repeated key (e.g. `proc=` lines).
    pub fn get_all(&self, key: &str) -> Vec<&str> {
        self.fields
            .iter()
            .filter(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
            .collect()
    }

    /// All fields in order.
    pub fn fields(&self) -> &[(String, String)] {
        &self.fields
    }

    /// Serialise to one line.
    pub fn to_line(&self) -> String {
        self.fields
            .iter()
            .map(|(k, v)| format!("{}={}", escape(k), escape(v)))
            .collect::<Vec<_>>()
            .join("|")
    }

    /// Parse one line (caller strips comments/blank lines).
    pub fn from_line(line: &str, lineno: usize) -> Result<FlatRecord, FlatError> {
        let mut rec = FlatRecord::new();
        for field in line.split('|') {
            let (k, v) = field
                .split_once('=')
                .ok_or_else(|| FlatError::MalformedField(lineno, field.to_string()))?;
            let k = unescape(k).map_err(|s| FlatError::BadEscape(lineno, s))?;
            let v = unescape(v).map_err(|s| FlatError::BadEscape(lineno, s))?;
            rec.fields.push((k, v));
        }
        Ok(rec)
    }
}

/// A whole flat document: header + named sections of records.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlatDoc {
    /// Document kind, e.g. `dlsp`, `slkt`, `issl`, `dgspl`.
    pub kind: String,
    /// Format version.
    pub version: u32,
    /// Sections in order: (name, records).
    sections: Vec<(String, Vec<FlatRecord>)>,
}

impl FlatDoc {
    /// New empty document.
    pub fn new(kind: impl Into<String>, version: u32) -> Self {
        FlatDoc {
            kind: kind.into(),
            version,
            sections: Vec::new(),
        }
    }

    /// Append a section, returning `self` for chaining.
    pub fn with_section(mut self, name: impl Into<String>, records: Vec<FlatRecord>) -> Self {
        self.sections.push((name.into(), records));
        self
    }

    /// Records of the first section with this name.
    pub fn section(&self, name: &str) -> Option<&[FlatRecord]> {
        self.sections
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, r)| r.as_slice())
    }

    /// All sections in order.
    pub fn sections(&self) -> &[(String, Vec<FlatRecord>)] {
        &self.sections
    }

    /// Serialise to the ASCII lines of the file.
    pub fn to_lines(&self) -> Vec<String> {
        let mut out = Vec::new();
        out.push(doc_header(&self.kind, self.version));
        for (name, records) in &self.sections {
            out.push(section_header(name));
            for r in records {
                out.push(r.to_line());
            }
        }
        out
    }

    /// Serialise to a single string with newlines.
    pub fn to_text(&self) -> String {
        self.to_lines().join("\n")
    }

    /// Parse from lines.
    pub fn parse_lines<S: AsRef<str>>(lines: &[S]) -> Result<FlatDoc, FlatError> {
        let mut iter = lines.iter().map(|s| s.as_ref()).enumerate();
        // Find the header, skipping comments/blanks.
        let (kind, version) = loop {
            let Some((lineno, line)) = iter.next() else {
                return Err(FlatError::MissingHeader);
            };
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let Some(rest) = line.strip_prefix("%DOC ") else {
                let _ = lineno;
                return Err(FlatError::MissingHeader);
            };
            let mut parts = rest.split_whitespace();
            let kind = parts
                .next()
                .ok_or_else(|| FlatError::MalformedHeader(line.to_string()))?;
            let ver = parts
                .next()
                .and_then(|v| v.strip_prefix('v'))
                .and_then(|v| v.parse::<u32>().ok())
                .ok_or_else(|| FlatError::MalformedHeader(line.to_string()))?;
            let kind = unescape(kind).map_err(|s| FlatError::BadEscape(lineno, s))?;
            break (kind, ver);
        };
        let mut doc = FlatDoc::new(kind, version);
        let mut current: Option<(String, Vec<FlatRecord>)> = None;
        for (lineno, line) in iter {
            // Structure detection uses the trimmed view, but record
            // bodies are parsed verbatim (minus the line ending) so
            // whitespace inside values survives the round trip.
            let line = line.strip_suffix('\r').unwrap_or(line);
            let trimmed = line.trim();
            if trimmed.is_empty() || trimmed.starts_with('#') {
                continue;
            }
            if let Some(name) = trimmed.strip_prefix("%SECTION ") {
                if let Some(sec) = current.take() {
                    doc.sections.push(sec);
                }
                let name = unescape(name.trim()).map_err(|s| FlatError::BadEscape(lineno, s))?;
                current = Some((name, Vec::new()));
            } else {
                let rec = FlatRecord::from_line(line, lineno)?;
                match &mut current {
                    Some((_, recs)) => recs.push(rec),
                    None => return Err(FlatError::RecordOutsideSection(lineno)),
                }
            }
        }
        if let Some(sec) = current.take() {
            doc.sections.push(sec);
        }
        Ok(doc)
    }

    /// Parse from a newline-joined string.
    pub fn parse_text(text: &str) -> Result<FlatDoc, FlatError> {
        let lines: Vec<&str> = text.lines().collect();
        FlatDoc::parse_lines(&lines)
    }
}

/// The trimmed number formatting of every numeric field: integral
/// values below 1e15 print as integers, everything else with four
/// decimals.
pub(crate) fn push_num(out: &mut String, value: f64) {
    if value.fract() == 0.0 && value.abs() < 1e15 {
        let _ = write!(out, "{}", value as i64);
    } else {
        push_fixed(out, value, 4);
    }
}

/// Append `format!("{value:.decimals$}")` (`decimals` at most 4). A
/// finite value below 2^40 in magnitude takes exact integer arithmetic
/// instead of the standard formatter's exact mode, which costs several
/// times more and sits on every DLSP, DGSPL and perf-log line: the value is
/// exactly `m·2^e` with `e < 0` in that range, so `m·10^decimals >> -e`,
/// rounded half to even as the standard formatter rounds, is the count
/// of `10^-decimals` units.
pub fn push_fixed(out: &mut String, value: f64, decimals: usize) {
    assert!(decimals <= 4, "push_fixed covers up to 4 decimals");
    let bits = value.to_bits();
    let biased = ((bits >> 52) & 0x7ff) as i32;
    if biased == 0x7ff || value.abs() >= (1u64 << 40) as f64 {
        let _ = write!(out, "{value:.decimals$}");
        return;
    }
    let fraction = bits & ((1 << 52) - 1);
    let (m, e) = if biased == 0 {
        (fraction, -1074)
    } else {
        (fraction | (1 << 52), biased - 1075)
    };
    // A normal value has m >= 2^52 and here |value| < 2^40, so e <= -13;
    // zero and subnormals have e = -1074.
    let shift = e.unsigned_abs();
    let unit = 10u64.pow(decimals as u32);
    let scaled = u128::from(m) * u128::from(unit); // < 2^67
    let units = if shift >= 100 {
        0 // below half a unit: scaled < 2^67 < 2^(shift - 1)
    } else {
        let q = scaled >> shift;
        let r = scaled & ((1 << shift) - 1);
        let half = 1 << (shift - 1);
        if r > half || (r == half && q & 1 == 1) {
            q + 1
        } else {
            q
        }
    };
    // units <= 2^40 · 10^4 fits a u64.
    let units = units as u64;
    if value.is_sign_negative() {
        out.push('-');
    }
    let _ = write!(out, "{}", units / unit);
    if decimals > 0 {
        let _ = write!(out, ".{:0decimals$}", units % unit);
    }
}

/// The `%DOC <kind> v<version>` header line (no spare capacity).
pub(crate) fn doc_header(kind: &str, version: u32) -> String {
    let mut line = format!("%DOC {} v{version}", escape(kind));
    line.shrink_to_fit();
    line
}

/// The `%SECTION <name>` line (no spare capacity).
pub(crate) fn section_header(name: &str) -> String {
    ["%SECTION ", &escape(name)].concat()
}

/// Something that takes a record's fields in order: a [`FlatRecord`]
/// (owned, parseable) or a [`LineWriter`] (the rendered line). An
/// ontology type that writes its fields once through this trait renders
/// the same bytes either way.
pub(crate) trait FieldSink {
    /// Append a string field.
    fn field(&mut self, key: &str, value: &str);
    /// Append a numeric field, formatted by [`push_num`].
    fn num(&mut self, key: &str, value: f64);
}

impl FieldSink for FlatRecord {
    fn field(&mut self, key: &str, value: &str) {
        self.fields.push((key.to_string(), value.to_string()));
    }

    fn num(&mut self, key: &str, value: f64) {
        let mut v = String::new();
        push_num(&mut v, value);
        self.fields.push((key.to_string(), v));
    }
}

/// Renders one record line straight from borrowed data: the bytes of
/// [`FlatRecord::to_line`] for the same fields, without building the
/// record.
#[derive(Debug)]
pub(crate) struct LineWriter {
    line: String,
}

impl Default for LineWriter {
    /// An empty line, with room for a typical record.
    fn default() -> Self {
        LineWriter {
            line: String::with_capacity(128),
        }
    }
}

impl LineWriter {
    fn key(&mut self, key: &str) {
        if !self.line.is_empty() {
            self.line.push('|');
        }
        self.line.push_str(&escape(key));
        self.line.push('=');
    }

    /// The finished line, holding no spare capacity (lines are stored).
    pub(crate) fn finish(mut self) -> String {
        self.line.shrink_to_fit();
        self.line
    }
}

impl FieldSink for LineWriter {
    fn field(&mut self, key: &str, value: &str) {
        self.key(key);
        self.line.push_str(&escape(value));
    }

    fn num(&mut self, key: &str, value: f64) {
        self.key(key);
        // A formatted number holds none of the escaped characters.
        push_num(&mut self.line, value);
    }
}

/// Helper: build a record from a string→string map (sorted key order —
/// useful for deterministic output from maps).
pub fn record_from_map(map: &BTreeMap<String, String>) -> FlatRecord {
    let mut rec = FlatRecord::new();
    for (k, v) in map {
        rec = rec.set(k.clone(), v.clone());
    }
    rec
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escape_roundtrip() {
        let nasty = "a|b=c%d\ne\rf";
        let esc = escape(nasty);
        assert!(!esc.contains('|') && !esc.contains('=') && !esc.contains('\n'));
        assert_eq!(unescape(&esc).unwrap(), nasty);
    }

    #[test]
    fn unescape_rejects_truncated_escape() {
        assert!(unescape("abc%2").is_err());
        assert!(unescape("abc%").is_err());
        assert!(unescape("abc%zz").is_err());
    }

    #[test]
    fn record_line_roundtrip() {
        let rec = FlatRecord::new()
            .set("name", "trades|db")
            .set("port", "1521")
            .set_num("load", 0.75)
            .set_num("cpus", 8.0);
        let line = rec.to_line();
        let back = FlatRecord::from_line(&line, 1).unwrap();
        assert_eq!(back, rec);
        assert_eq!(back.get("name"), Some("trades|db"));
        assert_eq!(back.get_num("load"), Some(0.75));
        assert_eq!(back.get_u32("cpus"), Some(8));
    }

    #[test]
    fn repeated_keys_collected_in_order() {
        let rec = FlatRecord::new()
            .set("proc", "ora_pmon:1")
            .set("proc", "ora_dbw:2")
            .set("port", "1521");
        assert_eq!(rec.get_all("proc"), vec!["ora_pmon:1", "ora_dbw:2"]);
        assert_eq!(rec.get("proc"), Some("ora_pmon:1"));
    }

    #[test]
    fn doc_roundtrip_with_sections() {
        let doc = FlatDoc::new("dlsp", 1)
            .with_section(
                "host",
                vec![FlatRecord::new()
                    .set("hostname", "db001")
                    .set("os", "Solaris")],
            )
            .with_section(
                "services",
                vec![
                    FlatRecord::new()
                        .set("name", "trades-db")
                        .set("status", "running"),
                    FlatRecord::new()
                        .set("name", "web-1")
                        .set("status", "crashed"),
                ],
            );
        let text = doc.to_text();
        let back = FlatDoc::parse_text(&text).unwrap();
        assert_eq!(back, doc);
        assert_eq!(back.section("services").unwrap().len(), 2);
        assert!(back.section("missing").is_none());
    }

    #[test]
    fn comments_and_blanks_ignored() {
        let text = "# generated by intelliagent_status\n\n%DOC issl v1\n# servers below\n%SECTION servers\n\nhostname=db001|ip=10.0.0.1\n";
        let doc = FlatDoc::parse_text(text).unwrap();
        assert_eq!(doc.kind, "issl");
        assert_eq!(doc.section("servers").unwrap().len(), 1);
    }

    #[test]
    fn parse_errors() {
        assert_eq!(FlatDoc::parse_text(""), Err(FlatError::MissingHeader));
        assert_eq!(
            FlatDoc::parse_text("hostname=x"),
            Err(FlatError::MissingHeader)
        );
        assert!(matches!(
            FlatDoc::parse_text("%DOC issl v1\nhostname=x"),
            Err(FlatError::RecordOutsideSection(_))
        ));
        assert!(matches!(
            FlatDoc::parse_text("%DOC issl v1\n%SECTION s\nnovalue"),
            Err(FlatError::MalformedField(_, _))
        ));
        assert!(matches!(
            FlatDoc::parse_text("%DOC issl"),
            Err(FlatError::MalformedHeader(_))
        ));
    }

    #[test]
    fn grep_friendliness() {
        // The promise of the format: one record per line, so classic
        // line tools work. Simulate `grep status=crashed`.
        let doc = FlatDoc::new("dlsp", 1).with_section(
            "services",
            vec![
                FlatRecord::new().set("name", "a").set("status", "running"),
                FlatRecord::new().set("name", "b").set("status", "crashed"),
            ],
        );
        let lines = doc.to_lines();
        let hits: Vec<&String> = lines
            .iter()
            .filter(|l| l.contains("status=crashed"))
            .collect();
        assert_eq!(hits.len(), 1);
        assert!(hits[0].contains("name=b"));
    }

    #[test]
    fn fixed_point_formats_as_the_standard_formatter() {
        let check = |v: f64| {
            for decimals in 0..=4 {
                let mut got = String::new();
                push_fixed(&mut got, v, decimals);
                let want = format!("{v:.decimals$}");
                assert_eq!(got, want, "{v:e} ({:#x}) to {decimals}", v.to_bits());
            }
            let mut got = String::new();
            push_num(&mut got, v);
            let want = if v.fract() == 0.0 && v.abs() < 1e15 {
                format!("{}", v as i64)
            } else {
                format!("{v:.4}")
            };
            assert_eq!(got, want, "{v:e} ({:#x})", v.to_bits());
        };
        // Ties at every precision (k/32 is exact), both signs.
        for k in 0..2_048u32 {
            check(f64::from(k) / 32.0);
            check(-f64::from(k) / 32.0);
            check(f64::from(k) * 1e-4 + 0.5e-4);
        }
        for v in [
            0.0,
            -0.0,
            0.5,
            5e-5,
            -1e-9,
            f64::MIN_POSITIVE,
            -f64::MIN_POSITIVE / 3.0,
            5e-324,
            (1u64 << 40) as f64 - 0.5,
            (1u64 << 40) as f64 + 0.5,
            1e15,
            1e15 + 0.5,
            -1e15,
            f64::MAX,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
        ] {
            check(v);
        }
        // Random bit patterns and random magnitudes.
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        for _ in 0..10_000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            check(f64::from_bits(x));
            let scale = 10f64.powi((x % 16) as i32 - 6);
            check((x >> 11) as f64 / (1u64 << 53) as f64 * scale * 2.0 - scale);
        }
    }

    #[test]
    fn record_from_sorted_map() {
        let mut m = BTreeMap::new();
        m.insert("b".to_string(), "2".to_string());
        m.insert("a".to_string(), "1".to_string());
        let rec = record_from_map(&m);
        assert_eq!(rec.to_line(), "a=1|b=2");
    }
}
