//! JSONL encoding of events: one event per line, hand-rolled so the
//! crate stays dependency-free.
//!
//! The wire shape is
//!
//! ```json
//! {"ts_ns":1234,"target":"gp.solve","kind":"timing","fields":{"dur_ns":567,"iters":4}}
//! ```
//!
//! Encoding choices that make the format round-trip exactly:
//!
//! * `U64` values serialize as bare digit runs; any number containing
//!   `.`, `e`, or `-` parses back as `F64`. Integral finite floats are
//!   forced to carry a `.0` so they stay floats.
//! * `NaN` serializes as `null`; infinities serialize as `1e999` /
//!   `-1e999`, which are valid JSON numbers that overflow back to the
//!   infinities on parse.
//! * Strings escape `"`, `\`, and control characters (`\uXXXX`); the
//!   parser also accepts surrogate pairs.

use crate::event::{Event, EventKind, Value};
use std::fmt::Write as _;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::sync::Mutex;

/// Serializes one event as a single JSON line (no trailing newline).
pub fn to_json(event: &Event) -> String {
    let mut out = String::with_capacity(64 + 24 * event.fields.len());
    out.push_str("{\"ts_ns\":");
    let _ = write!(out, "{}", event.ts_ns);
    out.push_str(",\"target\":");
    push_json_string(&mut out, &event.target);
    out.push_str(",\"kind\":\"");
    out.push_str(event.kind.as_str());
    out.push_str("\",\"fields\":{");
    for (i, (key, value)) in event.fields.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        push_json_string(&mut out, key);
        out.push(':');
        push_json_value(&mut out, value);
    }
    out.push_str("}}");
    out
}

/// Appends `s` as a JSON string literal — the one escaper behind both
/// the JSONL events and the `/snapshot` / `/health` / `/alerts` bodies.
pub(crate) fn push_json_string(out: &mut String, s: &str) {
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
}

fn push_json_value(out: &mut String, value: &Value) {
    match value {
        Value::Bool(v) => out.push_str(if *v { "true" } else { "false" }),
        Value::U64(v) => {
            let _ = write!(out, "{v}");
        }
        Value::F64(v) => push_json_f64(out, *v),
        Value::Str(v) => push_json_string(out, v),
    }
}

fn push_json_f64(out: &mut String, v: f64) {
    if v.is_nan() {
        out.push_str("null");
    } else if v == f64::INFINITY {
        out.push_str("1e999");
    } else if v == f64::NEG_INFINITY {
        out.push_str("-1e999");
    } else if v.fract() == 0.0 && v.abs() < 1e15 {
        // Keep integral floats recognizably float-typed.
        let _ = write!(out, "{v:.1}");
    } else {
        // Rust's Display prints the shortest string that parses back
        // to the same f64.
        let _ = write!(out, "{v}");
    }
}

/// A failure while parsing a JSONL line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// What went wrong.
    pub message: String,
    /// Byte offset in the line where parsing stopped.
    pub offset: usize,
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "invalid event JSON at byte {}: {}",
            self.offset, self.message
        )
    }
}

impl std::error::Error for JsonError {}

/// Parses one line produced by [`to_json`] back into an [`Event`].
pub fn parse(line: &str) -> Result<Event, JsonError> {
    let mut p = Parser {
        bytes: line.as_bytes(),
        pos: 0,
    };
    let event = p.event()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters after event object"));
    }
    Ok(event)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, message: &str) -> JsonError {
        JsonError {
            message: message.to_string(),
            offset: self.pos,
        }
    }

    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, byte: u8) -> Result<(), JsonError> {
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", byte as char)))
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.bytes.get(self.pos).copied()
    }

    fn event(&mut self) -> Result<Event, JsonError> {
        self.expect(b'{')?;
        let mut ts_ns = None;
        let mut target = None;
        let mut kind = None;
        let mut fields = None;
        loop {
            let key = self.string()?;
            self.expect(b':')?;
            match key.as_str() {
                "ts_ns" => match self.scalar()? {
                    Value::U64(v) => ts_ns = Some(v),
                    _ => return Err(self.err("ts_ns must be an unsigned integer")),
                },
                "target" => match self.scalar()? {
                    Value::Str(s) => target = Some(s),
                    _ => return Err(self.err("target must be a string")),
                },
                "kind" => match self.scalar()? {
                    Value::Str(s) => {
                        kind = Some(
                            EventKind::from_name(&s)
                                .ok_or_else(|| self.err("unknown event kind"))?,
                        )
                    }
                    _ => return Err(self.err("kind must be a string")),
                },
                "fields" => fields = Some(self.fields()?),
                _ => return Err(self.err("unknown event key")),
            }
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    break;
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
        Ok(Event {
            ts_ns: ts_ns.ok_or_else(|| self.err("missing ts_ns"))?,
            target: target.ok_or_else(|| self.err("missing target"))?,
            kind: kind.ok_or_else(|| self.err("missing kind"))?,
            fields: fields.ok_or_else(|| self.err("missing fields"))?,
        })
    }

    fn fields(&mut self) -> Result<Vec<(crate::event::Str, Value)>, JsonError> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(fields);
        }
        loop {
            let key = self.string()?;
            self.expect(b':')?;
            let value = self.scalar()?;
            fields.push((crate::event::Str::Owned(key), value));
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(fields);
                }
                _ => return Err(self.err("expected ',' or '}' in fields")),
            }
        }
    }

    /// A scalar JSON value: string, number, bool, or null.
    fn scalar(&mut self) -> Result<Value, JsonError> {
        match self.peek() {
            Some(b'"') => Ok(Value::Str(crate::event::Str::Owned(self.string()?))),
            Some(b't') => {
                self.literal("true")?;
                Ok(Value::Bool(true))
            }
            Some(b'f') => {
                self.literal("false")?;
                Ok(Value::Bool(false))
            }
            Some(b'n') => {
                self.literal("null")?;
                Ok(Value::F64(f64::NAN))
            }
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a scalar value")),
        }
    }

    fn literal(&mut self, lit: &str) -> Result<(), JsonError> {
        self.skip_ws();
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(())
        } else {
            Err(self.err(&format!("expected '{lit}'")))
        }
    }

    fn number(&mut self) -> Result<Value, JsonError> {
        self.skip_ws();
        let start = self.pos;
        while matches!(
            self.bytes.get(self.pos),
            Some(b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
        ) {
            self.pos += 1;
        }
        let token = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("non-utf8 number"))?;
        if token.bytes().all(|b| b.is_ascii_digit()) {
            // Bare digit runs are unsigned integers; everything else
            // (sign, '.', exponent) is a float.
            if let Ok(v) = token.parse::<u64>() {
                return Ok(Value::U64(v));
            }
        }
        let v: f64 = token.parse().map_err(|_| self.err("malformed number"))?;
        Ok(Value::F64(v))
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.bytes.get(self.pos) {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.bytes.get(self.pos) {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            self.pos += 1;
                            let hi = self.hex4()?;
                            let c = if (0xD800..0xDC00).contains(&hi) {
                                // Surrogate pair: expect \uXXXX low half.
                                self.literal("\\u")?;
                                let lo = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&lo) {
                                    return Err(self.err("invalid low surrogate"));
                                }
                                let code = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                                char::from_u32(code)
                                    .ok_or_else(|| self.err("invalid surrogate pair"))?
                            } else {
                                char::from_u32(hi).ok_or_else(|| self.err("invalid \\u escape"))?
                            };
                            out.push(c);
                            continue; // hex4 already advanced past the digits
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 character (multi-byte safe).
                    let rest = std::str::from_utf8(&self.bytes[self.pos..])
                        .map_err(|_| self.err("invalid utf-8"))?;
                    let c = rest.chars().next().unwrap();
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    /// Reads exactly four hex digits and advances past them.
    fn hex4(&mut self) -> Result<u32, JsonError> {
        let digits = self
            .bytes
            .get(self.pos..self.pos + 4)
            .ok_or_else(|| self.err("truncated \\u escape"))?;
        let s = std::str::from_utf8(digits).map_err(|_| self.err("non-utf8 escape"))?;
        let v = u32::from_str_radix(s, 16).map_err(|_| self.err("non-hex \\u escape"))?;
        self.pos += 4;
        Ok(v)
    }
}

/// Writes events as JSON lines to a file, buffered and thread-safe.
pub struct JsonlWriter {
    inner: Mutex<BufWriter<std::fs::File>>,
}

impl JsonlWriter {
    /// Creates (truncating) `path` and writes events to it.
    pub fn create(path: impl AsRef<Path>) -> std::io::Result<Self> {
        let file = std::fs::File::create(path)?;
        Ok(JsonlWriter {
            inner: Mutex::new(BufWriter::new(file)),
        })
    }

    /// Serializes and writes one event followed by a newline.
    pub fn write(&self, event: &Event) -> std::io::Result<()> {
        let line = to_json(event);
        let mut w = self.inner.lock().unwrap();
        w.write_all(line.as_bytes())?;
        w.write_all(b"\n")
    }
}

impl crate::subscriber::Subscriber for JsonlWriter {
    fn on_event(&self, event: &Event) {
        // Telemetry must not take down the host process; a full disk
        // degrades to dropped events.
        let _ = self.write(event);
    }

    fn flush(&self) {
        let _ = self.inner.lock().unwrap().flush();
    }
}

// BufWriter flushes on drop, so traces survive normal process exit
// even without an explicit flush call.

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{Event, EventKind, Value};

    fn round_trip(event: &Event) -> Event {
        let line = to_json(event);
        assert!(!line.contains('\n'), "one event must be one line: {line}");
        parse(&line).unwrap_or_else(|e| panic!("parse failed for {line}: {e}"))
    }

    #[test]
    fn round_trips_every_value_type() {
        let event = Event::new("sim.refresh", EventKind::Point)
            .with("item", 42u64)
            .with("value", 3.5)
            .with("notify", true)
            .with("silenced", false)
            .with("strategy", "dual-dab");
        assert_eq!(round_trip(&event), event);
    }

    #[test]
    fn round_trips_float_edge_cases() {
        let event = Event::new("edge", EventKind::Point)
            .with("nan", f64::NAN)
            .with("inf", f64::INFINITY)
            .with("ninf", f64::NEG_INFINITY)
            .with("integral", 5.0)
            .with("neg_integral", -3.0)
            .with("tiny", 1e-300)
            .with("huge", 1.7976931348623157e308)
            .with("zero", 0.0)
            .with("neg_zero", -0.0)
            .with("pi", std::f64::consts::PI);
        let back = round_trip(&event);
        assert_eq!(back, event, "float fields must round-trip bit-for-bit");
        // Integral floats must stay floats, not collapse to integers.
        assert!(matches!(back.field("integral"), Some(Value::F64(v)) if *v == 5.0));
    }

    #[test]
    fn round_trips_awkward_strings() {
        let event = Event::new("strings", EventKind::Count)
            .with("quote", "say \"hi\"".to_string())
            .with("backslash", "a\\b".to_string())
            .with("newline", "line1\nline2".to_string())
            .with("tab_cr", "a\tb\rc".to_string())
            .with("control", "\u{1}\u{1f}".to_string())
            .with("unicode", "λ → ∞ 🚀".to_string())
            .with("empty", "".to_string());
        assert_eq!(round_trip(&event), event);
    }

    #[test]
    fn integer_and_float_types_stay_distinct() {
        let event = Event::new("types", EventKind::Point)
            .with("count", 7u64)
            .with("ratio", 7.0)
            .with("big", u64::MAX);
        let back = round_trip(&event);
        assert!(matches!(back.field("count"), Some(Value::U64(7))));
        assert!(matches!(back.field("ratio"), Some(Value::F64(v)) if *v == 7.0));
        assert!(matches!(back.field("big"), Some(Value::U64(u64::MAX))));
    }

    #[test]
    fn parser_accepts_surrogate_pairs() {
        let line = r#"{"ts_ns":1,"target":"t","kind":"point","fields":{"emoji":"😀"}}"#;
        let event = parse(line).unwrap();
        assert_eq!(
            event.field("emoji"),
            Some(&Value::Str("\u{1f600}".to_string().into()))
        );
    }

    #[test]
    fn parser_rejects_malformed_lines() {
        for bad in [
            "",
            "{",
            "not json",
            r#"{"ts_ns":-5,"target":"t","kind":"point","fields":{}}"#,
            r#"{"ts_ns":1,"target":"t","kind":"bogus","fields":{}}"#,
            r#"{"ts_ns":1,"target":"t","kind":"point","fields":{}}trailing"#,
            r#"{"ts_ns":1,"target":"t","kind":"point"}"#,
        ] {
            assert!(parse(bad).is_err(), "expected parse failure for: {bad}");
        }
    }

    #[test]
    fn writer_produces_parseable_lines() {
        let dir = std::env::temp_dir().join("pq-obs-test-writer");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("trace.jsonl");
        let writer = JsonlWriter::create(&path).unwrap();
        for n in 0..4u64 {
            writer
                .write(&Event::new("w", EventKind::Count).with("n", n))
                .unwrap();
        }
        crate::subscriber::Subscriber::flush(&writer);
        let contents = std::fs::read_to_string(&path).unwrap();
        let events: Vec<Event> = contents.lines().map(|l| parse(l).unwrap()).collect();
        assert_eq!(events.len(), 4);
        assert_eq!(events[3].field("n"), Some(&Value::U64(3)));
        std::fs::remove_file(&path).ok();
    }
}
