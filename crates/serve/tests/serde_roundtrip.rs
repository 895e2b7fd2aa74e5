//! JSON round trips of every type that enters a fingerprint, and the codec
//! oracle.
//!
//! The content-addressed cache is only sound if serialization is
//! deterministic (hash-stable field ordering) and lossless: serializing,
//! printing, parsing and deserializing a query's building blocks must give
//! back an equal value with an identical fingerprint.
//!
//! Fingerprints, durable-log payloads and response lines are all printed
//! by the vendored `serde_json`, so its output bytes, the inputs it
//! accepts and its error messages are frozen. The oracle proptests check
//! the printer and parser against a verbatim copy of the original,
//! straightforward implementation kept in this file.

use proptest::prelude::*;
use proptest::test_runner::TestRng;
use serde::{Deserialize, Serialize, Value};
use ulm_arch::presets;
use ulm_mapper::{MapperOptions, Objective};
use ulm_mapping::{Mapping, SpatialUnroll};
use ulm_model::ModelOptions;
use ulm_serve::fingerprint_value;
use ulm_workload::{Layer, Precision};

/// value -> JSON text -> value -> T, checking equality and fingerprint
/// stability at every hop.
fn round_trip<T>(original: &T)
where
    T: Serialize + Deserialize + PartialEq + std::fmt::Debug,
{
    let value = original.to_value();
    let text = serde_json::to_string(&value).expect("serializes");
    let reparsed: Value = serde_json::from_str(&text).expect("parses back");
    assert_eq!(
        fingerprint_value(&value),
        fingerprint_value(&reparsed),
        "fingerprint drifted across a JSON print/parse cycle"
    );
    let back = T::from_value(&reparsed).expect("deserializes");
    assert_eq!(original, &back, "value changed across the round trip");
    // Serialization is deterministic: same input, same bytes.
    assert_eq!(text, serde_json::to_string(&original.to_value()).unwrap());
}

#[test]
fn architecture_round_trips() {
    for chip in [
        presets::toy_chip(),
        presets::validation_chip(),
        presets::scaled_case_study_chip(16, 128),
        presets::scaled_case_study_chip(32, 1024),
    ] {
        round_trip(&chip.arch);
    }
}

#[test]
fn spatial_unroll_round_trips() {
    let chip = presets::scaled_case_study_chip(16, 128);
    round_trip(&SpatialUnroll::new(chip.spatial));
}

#[test]
fn layer_round_trips() {
    round_trip(&Layer::matmul("l", 64, 96, 640, Precision::int8_out24()));
    round_trip(&Layer::matmul("m", 8, 1, 3, Precision::int8_acc24()));
}

#[test]
fn mapping_round_trips() {
    // A real mapping, produced by a search rather than hand-assembled.
    let chip = presets::toy_chip();
    let layer = Layer::matmul("t", 4, 4, 8, Precision::int8_acc24());
    let result =
        ulm_mapper::Mapper::new(&chip.arch, &layer, SpatialUnroll::new(chip.spatial.clone()))
            .search(Objective::Latency)
            .expect("toy space has legal mappings");
    round_trip::<Mapping>(&result.best.mapping);
}

#[test]
fn options_round_trip() {
    round_trip(&ModelOptions::default());
    round_trip(&ModelOptions {
        bw_aware: false,
        ..ModelOptions::default()
    });
    round_trip(&MapperOptions::default());
    round_trip(&MapperOptions {
        max_exhaustive: 123_456,
        samples: 7,
        seed: 42,
        bw_aware: false,
    });
}

#[test]
fn u128_fields_survive_round_trips() {
    // MapperOptions::max_exhaustive is u128; values beyond u64 must come
    // back intact (they serialize as decimal strings).
    let big = MapperOptions {
        max_exhaustive: u128::from(u64::MAX) + 17,
        ..MapperOptions::default()
    };
    round_trip(&big);
}

/// The printer and parser as they stood before the copy-free rewrite,
/// kept verbatim as the byte-for-byte oracle for the vendored codec.
mod reference {
    use serde::Value;

    /// Parse/print failure: only its message is observable.
    pub struct Error(String);

    impl Error {
        fn new(msg: impl Into<String>) -> Self {
            Error(msg.into())
        }
    }

    type Result<T> = std::result::Result<T, Error>;

    struct Parser<'a> {
        bytes: &'a [u8],
        pos: usize,
    }

    impl<'a> Parser<'a> {
        fn new(s: &'a str) -> Self {
            Parser {
                bytes: s.as_bytes(),
                pos: 0,
            }
        }

        fn err(&self, msg: &str) -> Error {
            Error::new(format!("{} at byte {}", msg, self.pos))
        }

        fn peek(&self) -> Option<u8> {
            self.bytes.get(self.pos).copied()
        }

        fn bump(&mut self) -> Option<u8> {
            let b = self.peek()?;
            self.pos += 1;
            Some(b)
        }

        fn skip_ws(&mut self) {
            while let Some(b) = self.peek() {
                if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                    self.pos += 1;
                } else {
                    break;
                }
            }
        }

        fn expect(&mut self, b: u8) -> Result<()> {
            self.skip_ws();
            if self.peek() == Some(b) {
                self.pos += 1;
                Ok(())
            } else {
                Err(self.err(&format!("expected '{}'", b as char)))
            }
        }

        fn expect_keyword(&mut self, kw: &str) -> Result<()> {
            if self.bytes[self.pos..].starts_with(kw.as_bytes()) {
                self.pos += kw.len();
                Ok(())
            } else {
                Err(self.err(&format!("expected '{kw}'")))
            }
        }

        fn parse_value(&mut self, depth: usize) -> Result<Value> {
            if depth > 128 {
                return Err(self.err("recursion limit exceeded"));
            }
            self.skip_ws();
            match self.peek() {
                Some(b'n') => {
                    self.expect_keyword("null")?;
                    Ok(Value::Null)
                }
                Some(b't') => {
                    self.expect_keyword("true")?;
                    Ok(Value::Bool(true))
                }
                Some(b'f') => {
                    self.expect_keyword("false")?;
                    Ok(Value::Bool(false))
                }
                Some(b'"') => Ok(Value::String(self.parse_string()?)),
                Some(b'[') => {
                    self.pos += 1;
                    let mut items = Vec::new();
                    self.skip_ws();
                    if self.peek() == Some(b']') {
                        self.pos += 1;
                        return Ok(Value::Array(items));
                    }
                    loop {
                        items.push(self.parse_value(depth + 1)?);
                        self.skip_ws();
                        match self.bump() {
                            Some(b',') => continue,
                            Some(b']') => break,
                            _ => return Err(self.err("expected ',' or ']'")),
                        }
                    }
                    Ok(Value::Array(items))
                }
                Some(b'{') => {
                    self.pos += 1;
                    let mut entries = Vec::new();
                    self.skip_ws();
                    if self.peek() == Some(b'}') {
                        self.pos += 1;
                        return Ok(Value::Object(entries));
                    }
                    loop {
                        self.skip_ws();
                        let key = self.parse_string()?;
                        self.expect(b':')?;
                        let val = self.parse_value(depth + 1)?;
                        entries.push((key, val));
                        self.skip_ws();
                        match self.bump() {
                            Some(b',') => continue,
                            Some(b'}') => break,
                            _ => return Err(self.err("expected ',' or '}'")),
                        }
                    }
                    Ok(Value::Object(entries))
                }
                Some(b) if b == b'-' || b.is_ascii_digit() => self.parse_number(),
                Some(b) => Err(self.err(&format!("unexpected character '{}'", b as char))),
                None => Err(self.err("unexpected end of input")),
            }
        }

        fn parse_string(&mut self) -> Result<String> {
            if self.bump() != Some(b'"') {
                return Err(self.err("expected '\"'"));
            }
            let mut out = String::new();
            loop {
                match self.bump() {
                    Some(b'"') => return Ok(out),
                    Some(b'\\') => match self.bump() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'b') => out.push('\u{0008}'),
                        Some(b'f') => out.push('\u{000C}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            let hi = self.parse_hex4()?;
                            let cp = if (0xD800..0xDC00).contains(&hi) {
                                // Surrogate pair.
                                self.expect_keyword("\\u")?;
                                let lo = self.parse_hex4()?;
                                if !(0xDC00..0xE000).contains(&lo) {
                                    return Err(self.err("invalid low surrogate"));
                                }
                                0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
                            } else {
                                hi
                            };
                            out.push(
                                char::from_u32(cp)
                                    .ok_or_else(|| self.err("invalid unicode escape"))?,
                            );
                        }
                        _ => return Err(self.err("invalid escape sequence")),
                    },
                    Some(b) if b < 0x80 => out.push(b as char),
                    Some(b) => {
                        // Multi-byte UTF-8: copy raw bytes of the code point.
                        let len = if b >= 0xF0 {
                            4
                        } else if b >= 0xE0 {
                            3
                        } else {
                            2
                        };
                        let start = self.pos - 1;
                        let end = start + len;
                        if end > self.bytes.len() {
                            return Err(self.err("truncated UTF-8 sequence"));
                        }
                        let s = std::str::from_utf8(&self.bytes[start..end])
                            .map_err(|_| self.err("invalid UTF-8 sequence"))?;
                        out.push_str(s);
                        self.pos = end;
                    }
                    None => return Err(self.err("unterminated string")),
                }
            }
        }

        fn parse_hex4(&mut self) -> Result<u32> {
            let mut v = 0u32;
            for _ in 0..4 {
                let b = self
                    .bump()
                    .ok_or_else(|| self.err("truncated \\u escape"))?;
                let d = (b as char)
                    .to_digit(16)
                    .ok_or_else(|| self.err("invalid hex digit"))?;
                v = v * 16 + d;
            }
            Ok(v)
        }

        fn parse_number(&mut self) -> Result<Value> {
            let start = self.pos;
            if self.peek() == Some(b'-') {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b) if b.is_ascii_digit()) {
                self.pos += 1;
            }
            let mut is_float = false;
            if self.peek() == Some(b'.') {
                is_float = true;
                self.pos += 1;
                while matches!(self.peek(), Some(b) if b.is_ascii_digit()) {
                    self.pos += 1;
                }
            }
            if matches!(self.peek(), Some(b'e') | Some(b'E')) {
                is_float = true;
                self.pos += 1;
                if matches!(self.peek(), Some(b'+') | Some(b'-')) {
                    self.pos += 1;
                }
                while matches!(self.peek(), Some(b) if b.is_ascii_digit()) {
                    self.pos += 1;
                }
            }
            let text = std::str::from_utf8(&self.bytes[start..self.pos])
                .map_err(|_| self.err("invalid number"))?;
            if is_float {
                text.parse::<f64>()
                    .map(Value::F64)
                    .map_err(|_| self.err("invalid number"))
            } else if let Some(stripped) = text.strip_prefix('-') {
                // Negative integer.
                stripped
                    .parse::<u64>()
                    .ok()
                    .and_then(|m| {
                        if m <= i64::MAX as u64 + 1 {
                            Some(Value::I64((m as i128).wrapping_neg() as i64))
                        } else {
                            None
                        }
                    })
                    .map(Ok)
                    .unwrap_or_else(|| {
                        text.parse::<f64>()
                            .map(Value::F64)
                            .map_err(|_| self.err("invalid number"))
                    })
            } else {
                match text.parse::<u64>() {
                    Ok(u) => Ok(Value::U64(u)),
                    Err(_) => text
                        .parse::<f64>()
                        .map(Value::F64)
                        .map_err(|_| self.err("invalid number")),
                }
            }
        }
    }

    /// Parses a whole document; `Err` carries the error message.
    pub fn from_str(s: &str) -> std::result::Result<Value, String> {
        let mut p = Parser::new(s);
        let v = p.parse_value(0).map_err(|e| e.0)?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters").0);
        }
        Ok(v)
    }

    fn escape_into(out: &mut String, s: &str) {
        out.push('"');
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                c if (c as u32) < 0x20 => {
                    out.push_str(&format!("\\u{:04x}", c as u32));
                }
                c => out.push(c),
            }
        }
        out.push('"');
    }

    fn fmt_f64(f: f64) -> String {
        if f.is_nan() || f.is_infinite() {
            // Real serde_json errors on non-finite floats; we print null like
            // JavaScript's JSON.stringify to keep printing infallible.
            "null".to_string()
        } else if f == f.trunc() && f.abs() < 1e15 {
            format!("{:.1}", f)
        } else {
            let s = format!("{}", f);
            s
        }
    }

    fn write_compact(out: &mut String, v: &Value) {
        match v {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::U64(u) => out.push_str(&u.to_string()),
            Value::I64(i) => out.push_str(&i.to_string()),
            Value::F64(f) => out.push_str(&fmt_f64(*f)),
            Value::String(s) => escape_into(out, s),
            Value::Array(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_compact(out, item);
                }
                out.push(']');
            }
            Value::Object(entries) => {
                out.push('{');
                for (i, (k, val)) in entries.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    escape_into(out, k);
                    out.push(':');
                    write_compact(out, val);
                }
                out.push('}');
            }
        }
    }

    fn write_pretty(out: &mut String, v: &Value, indent: usize) {
        const STEP: usize = 2;
        match v {
            Value::Array(items) if !items.is_empty() => {
                out.push_str("[\n");
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push_str(",\n");
                    }
                    out.push_str(&" ".repeat(indent + STEP));
                    write_pretty(out, item, indent + STEP);
                }
                out.push('\n');
                out.push_str(&" ".repeat(indent));
                out.push(']');
            }
            Value::Object(entries) if !entries.is_empty() => {
                out.push_str("{\n");
                for (i, (k, val)) in entries.iter().enumerate() {
                    if i > 0 {
                        out.push_str(",\n");
                    }
                    out.push_str(&" ".repeat(indent + STEP));
                    escape_into(out, k);
                    out.push_str(": ");
                    write_pretty(out, val, indent + STEP);
                }
                out.push('\n');
                out.push_str(&" ".repeat(indent));
                out.push('}');
            }
            other => write_compact(out, other),
        }
    }

    pub fn to_string(v: &Value) -> String {
        let mut out = String::new();
        write_compact(&mut out, v);
        out
    }

    pub fn to_string_pretty(v: &Value) -> String {
        let mut out = String::new();
        write_pretty(&mut out, v, 0);
        out
    }
}

// ---------------------------------------------------------------------------
// Codec oracle: the vendored printer and parser against the reference
// ---------------------------------------------------------------------------

/// The parser's nesting limit (`parse_value` refuses depth > 128).
const DEPTH_LIMIT: usize = 128;

/// Characters that stress the string escaper and the parser's run copy.
const CHARS: &[char] = &[
    'a', 'Z', '0', ' ', '/', '"', '\\', '\u{0}', '\u{1}', '\u{8}', '\u{9}', '\u{a}', '\u{c}',
    '\u{d}', '\u{1b}', '\u{1f}', '\u{7f}', 'é', 'ß', '€', '\u{2028}', '\u{fffd}', '😀', '𝄞',
];

const U64S: &[u64] = &[
    0,
    1,
    9,
    10,
    u32::MAX as u64,
    999_999_999_999_999,
    1_000_000_000_000_000,
    i64::MAX as u64,
    i64::MAX as u64 + 1,
    u64::MAX - 1,
    u64::MAX,
];

const I64S: &[i64] = &[i64::MIN, i64::MIN + 1, -1_000_000_000_000_000, -42, -1];

const F64S: &[f64] = &[
    0.0,
    -0.0,
    0.1,
    -2.5,
    1.0,
    1e15,
    -1e15,
    1e15 - 1.0,
    1e15 + 2.0,
    999_999_999_999_999.0,
    -999_999_999_999_999.0,
    1_000_000_000_000_001.0,
    9_007_199_254_740_993.0,
    1e16,
    1e300,
    5e-324,
    f64::MIN_POSITIVE,
    f64::MAX,
    f64::MIN,
    f64::EPSILON,
    f64::NAN,
    f64::INFINITY,
    f64::NEG_INFINITY,
];

/// Random [`Value`] trees covering every variant and the edge values the
/// printer special-cases, nested up to `max_depth` containers.
struct ValueTree {
    max_depth: usize,
}

fn pick<T: Copy>(rng: &mut TestRng, items: &[T]) -> T {
    items[(rng.next_u64() % items.len() as u64) as usize]
}

fn random_string(rng: &mut TestRng) -> String {
    let len = rng.next_u64() % 12;
    (0..len)
        .map(|_| {
            if rng.next_u64().is_multiple_of(3) {
                // Any scalar value, multi-byte ones included.
                char::from_u32((rng.next_u64() % 0x11_0000) as u32).unwrap_or('?')
            } else {
                pick(rng, CHARS)
            }
        })
        .collect()
}

fn random_leaf(rng: &mut TestRng) -> Value {
    match rng.next_u64() % 9 {
        0 => Value::Null,
        1 => Value::Bool(rng.next_u64().is_multiple_of(2)),
        2 => Value::U64(pick(rng, U64S)),
        3 => Value::U64(rng.next_u64() >> (rng.next_u64() % 64)),
        4 => Value::I64(pick(rng, I64S)),
        5 => Value::I64(-((rng.next_u64() >> 1) as i64) - 1),
        6 => Value::F64(pick(rng, F64S)),
        7 => Value::F64(f64::from_bits(rng.next_u64())),
        _ => Value::String(random_string(rng)),
    }
}

fn random_value(rng: &mut TestRng, depth: usize, max_depth: usize) -> Value {
    if depth >= max_depth || rng.next_u64().is_multiple_of(3) {
        return random_leaf(rng);
    }
    let len = rng.next_u64() % 5;
    if rng.next_u64().is_multiple_of(2) {
        Value::Array(
            (0..len)
                .map(|_| random_value(rng, depth + 1, max_depth))
                .collect(),
        )
    } else {
        Value::Object(
            (0..len)
                .map(|_| (random_string(rng), random_value(rng, depth + 1, max_depth)))
                .collect(),
        )
    }
}

/// A chain of `depth` single-child containers around a random leaf.
fn nested(rng: &mut TestRng, depth: usize) -> Value {
    (0..depth).fold(random_leaf(rng), |inner, _| {
        if rng.next_u64().is_multiple_of(2) {
            Value::Array(vec![inner])
        } else {
            Value::Object(vec![(random_string(rng), inner)])
        }
    })
}

impl Strategy for ValueTree {
    type Value = Value;

    fn generate(&self, rng: &mut TestRng) -> Value {
        if rng.next_u64().is_multiple_of(8) {
            let depth = self.max_depth - (rng.next_u64() % 3) as usize;
            nested(rng, depth)
        } else {
            random_value(rng, 0, 6)
        }
    }
}

/// Fragments spliced into valid JSON to make near-JSON: number forms on
/// both sides of validity, broken escapes, stray structure and garbage.
const FRAGMENTS: &[&str] = &[
    "01",
    "1.",
    "-",
    "-0",
    "-01",
    ".5",
    "1e",
    "1e+",
    "1E-2",
    "2.5e3",
    "18446744073709551616",
    "-9223372036854775809",
    "-9223372036854775808",
    "99999999999999999999999",
    "\\u",
    "\\u12",
    "\\u12g4",
    "\\ud83d",
    "\\ud83d\\ude00",
    "\\ud83d\\u0041",
    "\\udc00",
    "\\x",
    "\\",
    "\"",
    "{",
    "}",
    "[",
    "]",
    ",",
    ":",
    " ",
    "\t\n",
    "nul",
    "tru",
    "falsey",
    "é",
    "😀",
    "\u{1}",
    "x",
];

/// Near-JSON text: a printed random tree with a few fragments inserted,
/// bytes deleted, a truncation, or trailing garbage — or a bare fragment.
struct NearJson;

/// The largest char boundary of `s` at or below `i`.
fn floor_boundary(s: &str, mut i: usize) -> usize {
    i = i.min(s.len());
    while !s.is_char_boundary(i) {
        i -= 1;
    }
    i
}

impl Strategy for NearJson {
    type Value = String;

    fn generate(&self, rng: &mut TestRng) -> String {
        if rng.next_u64().is_multiple_of(6) {
            let quoted = rng.next_u64().is_multiple_of(2);
            let frag = pick(rng, FRAGMENTS);
            return if quoted {
                format!("\"{frag}\"")
            } else {
                frag.to_string()
            };
        }
        let mut text = reference::to_string(&random_value(rng, 0, 4));
        for _ in 0..=rng.next_u64() % 3 {
            let at = floor_boundary(&text, (rng.next_u64() % (text.len() as u64 + 1)) as usize);
            match rng.next_u64() % 5 {
                0 | 1 => text.insert_str(at, pick(rng, FRAGMENTS)),
                2 => {
                    let end = floor_boundary(&text, at + 1 + (rng.next_u64() % 3) as usize);
                    text.replace_range(at..end.max(at), "");
                }
                3 => text.truncate(at),
                _ => text.push_str(pick(rng, FRAGMENTS)),
            }
        }
        text
    }
}

/// Exact equality of two parse outcomes: `Debug` tells `-0.0` from `0.0`,
/// which `PartialEq` does not.
fn same_parse(new: &Result<Value, serde_json::Error>, reference: &Result<Value, String>) -> bool {
    match (new, reference) {
        (Ok(a), Ok(b)) => format!("{a:?}") == format!("{b:?}"),
        (Err(a), Err(b)) => a.to_string() == *b,
        _ => false,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn printer_matches_the_reference_byte_for_byte(v in ValueTree { max_depth: DEPTH_LIMIT }) {
        let compact = serde_json::to_string(&v).unwrap();
        prop_assert_eq!(&compact, &reference::to_string(&v));
        prop_assert_eq!(serde_json::to_string_pretty(&v).unwrap(), reference::to_string_pretty(&v));
        // Printed text parses back identically on both sides.
        let new = serde_json::from_str::<Value>(&compact);
        let old = reference::from_str(&compact);
        prop_assert!(same_parse(&new, &old), "{compact}: {new:?} vs {old:?}");
    }

    #[test]
    fn parser_matches_the_reference_on_near_json(text in NearJson) {
        let new = serde_json::from_str::<Value>(&text);
        let old = reference::from_str(&text);
        prop_assert!(same_parse(&new, &old), "{text:?}: {new:?} vs {old:?}");
    }
}

#[test]
fn parser_matches_the_reference_on_edge_inputs() {
    let mut inputs: Vec<String> = FRAGMENTS
        .iter()
        .flat_map(|f| {
            [
                f.to_string(),
                format!("\"{f}\""),
                format!("[{f}]"),
                format!("{f} 1"),
            ]
        })
        .collect();
    inputs.extend(
        [
            "",
            "   ",
            "0",
            "-0",
            "-0.0",
            "1.0",
            "[1,]",
            "{\"a\":1,}",
            "{\"a\" 1}",
            "{1:2}",
            "\"abc",
            "\"\\",
            "\"\\u00e9\"",
            "\"\\u0000\"",
            "\"\\ud83d\\ude00\"",
            "[1] x",
            "{\"a\":[true,false,null]}   ",
            "\"raw\u{1}ctl\"",
            "\"\u{7f}\"",
        ]
        .iter()
        .map(|s| s.to_string()),
    );
    // Nesting on either side of the depth limit.
    for depth in DEPTH_LIMIT - 1..=DEPTH_LIMIT + 2 {
        inputs.push(format!("{}{}", "[".repeat(depth), "]".repeat(depth)));
        inputs.push(format!("{}1{}", "[".repeat(depth), "]".repeat(depth)));
        inputs.push(format!("{}1{}", "{\"k\":".repeat(depth), "}".repeat(depth)));
    }
    for text in &inputs {
        let new = serde_json::from_str::<Value>(text);
        let old = reference::from_str(text);
        assert!(same_parse(&new, &old), "{text:?}: {new:?} vs {old:?}");
    }
}
