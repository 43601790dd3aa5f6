//! Minimal JSON emission for machine-readable reports.
//!
//! The workspace has no serialization dependency (the build is offline),
//! so this module is the crate's own seam: a tiny ordered
//! [`JsonValue`] tree with RFC 8259-conformant string escaping and
//! `Display`-based rendering, plus `to_json` conversions for the report
//! types the `cluster_sim` sweeps export (`--json <path>`).  Keys render in
//! insertion order, so the output is deterministic byte-for-byte.
//!
//! Non-finite numbers have no JSON representation; they render as `null`
//! rather than producing an unparseable document.
//!
//! [`parse`] is the inverse seam: a recursive-descent RFC 8259 parser used
//! by the tests (every emitted document must round-trip), by
//! `cluster_sim --mode sweep` to validate its `sx-sweep/v1` document
//! against the schema after writing it, and by the flight-record reader.

use crate::event::EventKind;
use crate::metrics::{LatencyStats, QpuStats, SimReport, TenantStats};
use crate::sim::TraceRecord;
use std::fmt;

/// One JSON value; objects keep insertion order for deterministic output.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number (non-finite values render as `null`).
    Num(f64),
    /// A string (escaped on render).
    Str(String),
    /// An ordered array.
    Array(Vec<JsonValue>),
    /// An ordered `key: value` map.
    Object(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Build an object from `(key, value)` pairs.
    pub fn object<K: Into<String>>(pairs: impl IntoIterator<Item = (K, JsonValue)>) -> JsonValue {
        JsonValue::Object(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// Build an array from values.
    pub fn array(values: impl IntoIterator<Item = JsonValue>) -> JsonValue {
        JsonValue::Array(values.into_iter().collect())
    }

    /// Append a field to an object.
    ///
    /// # Panics
    /// Panics when `self` is not an object.
    // sx-lint: hot-exempt -- JSON assembly runs at report/export time, never in the event loop; `push` name-collides with Vec calls in engine bodies
    pub fn push(&mut self, key: impl Into<String>, value: JsonValue) {
        match self {
            JsonValue::Object(pairs) => pairs.push((key.into(), value)),
            other => panic!("push on non-object JSON value {other:?}"),
        }
    }

    /// The value of a field, when `self` is an object that has it (for
    /// tests and light inspection, not a full query language).
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Object(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }
}

impl From<bool> for JsonValue {
    fn from(v: bool) -> Self {
        JsonValue::Bool(v)
    }
}

impl From<f64> for JsonValue {
    fn from(v: f64) -> Self {
        JsonValue::Num(v)
    }
}

impl From<usize> for JsonValue {
    fn from(v: usize) -> Self {
        JsonValue::Num(v as f64)
    }
}

impl From<&str> for JsonValue {
    // sx-lint: hot-exempt -- JSON assembly runs at report/export time, never in the event loop; `from` name-collides with `u64::from`-style calls in hot bodies
    fn from(v: &str) -> Self {
        JsonValue::Str(v.to_string())
    }
}

impl From<String> for JsonValue {
    fn from(v: String) -> Self {
        JsonValue::Str(v)
    }
}

fn escape(s: &str, f: &mut fmt::Formatter<'_>) -> fmt::Result {
    f.write_str("\"")?;
    for c in s.chars() {
        match c {
            '"' => f.write_str("\\\"")?,
            '\\' => f.write_str("\\\\")?,
            '\n' => f.write_str("\\n")?,
            '\r' => f.write_str("\\r")?,
            '\t' => f.write_str("\\t")?,
            c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
            c => write!(f, "{c}")?,
        }
    }
    f.write_str("\"")
}

impl fmt::Display for JsonValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JsonValue::Null => f.write_str("null"),
            JsonValue::Bool(b) => write!(f, "{b}"),
            JsonValue::Num(n) if n.is_finite() => write!(f, "{n}"),
            JsonValue::Num(_) => f.write_str("null"),
            JsonValue::Str(s) => escape(s, f),
            JsonValue::Array(values) => {
                f.write_str("[")?;
                for (i, v) in values.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "{v}")?;
                }
                f.write_str("]")
            }
            JsonValue::Object(pairs) => {
                f.write_str("{")?;
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    escape(k, f)?;
                    f.write_str(":")?;
                    write!(f, "{v}")?;
                }
                f.write_str("}")
            }
        }
    }
}

impl LatencyStats {
    /// The summary as a JSON object.
    pub fn to_json(&self) -> JsonValue {
        JsonValue::object([
            ("mean", JsonValue::from(self.mean)),
            ("min", JsonValue::from(self.min)),
            ("p50", JsonValue::from(self.p50)),
            ("p95", JsonValue::from(self.p95)),
            ("p99", JsonValue::from(self.p99)),
            ("max", JsonValue::from(self.max)),
        ])
    }
}

impl TenantStats {
    /// The tenant's statistics as a JSON object.
    pub fn to_json(&self) -> JsonValue {
        JsonValue::object([
            ("tenant", JsonValue::from(self.tenant.index())),
            ("name", JsonValue::from(self.name.as_str())),
            ("weight", JsonValue::from(self.weight)),
            ("submitted", JsonValue::from(self.submitted)),
            ("completed", JsonValue::from(self.completed)),
            ("shed", JsonValue::from(self.shed)),
            ("shed_infeasible", JsonValue::from(self.shed_infeasible)),
            ("deferrals", JsonValue::from(self.deferrals)),
            ("rejected", JsonValue::from(self.rejected)),
            ("max_queue_depth", JsonValue::from(self.max_queue_depth)),
            ("latency_seconds", self.latency.to_json()),
            ("wait_seconds", self.wait.to_json()),
            ("slo_jobs", JsonValue::from(self.slo_jobs)),
            ("slo_misses", JsonValue::from(self.slo_misses)),
            ("slo_miss_rate", JsonValue::from(self.slo_miss_rate())),
            ("lateness_seconds", self.lateness.to_json()),
            ("service_seconds", JsonValue::from(self.service_seconds)),
            ("normalized_share", JsonValue::from(self.normalized_share())),
        ])
    }
}

impl QpuStats {
    /// The device's statistics as a JSON object.
    pub fn to_json(&self) -> JsonValue {
        JsonValue::object([
            ("qpu", JsonValue::from(self.qpu)),
            ("jobs", JsonValue::from(self.jobs)),
            ("utilization", JsonValue::from(self.utilization)),
            ("warm_hits", JsonValue::from(self.warm_hits)),
            ("cold_misses", JsonValue::from(self.cold_misses)),
            ("warm_topologies", JsonValue::from(self.warm_topologies)),
            ("evictions", JsonValue::from(self.evictions)),
            ("cache_bypassed", JsonValue::from(self.cache_bypassed)),
            (
                "cache_capacity",
                match self.cache_capacity {
                    Some(cap) => JsonValue::from(cap),
                    None => JsonValue::Null,
                },
            ),
        ])
    }
}

impl SimReport {
    /// The run's aggregate outcome as a JSON object: headline counts,
    /// latency/wait summaries, per-stage breakdown, per-device and
    /// per-tenant statistics and the fairness indices.  Per-job records,
    /// the event trace and the queue-depth series are deliberately omitted
    /// (they dominate the size and sweeps don't consume them).
    pub fn to_json(&self) -> JsonValue {
        JsonValue::object([
            ("policy", JsonValue::from(self.policy.as_str())),
            ("admission", JsonValue::from(self.admission.as_str())),
            ("jobs", JsonValue::from(self.jobs)),
            ("events", JsonValue::from(self.events)),
            ("completed", JsonValue::from(self.completed)),
            ("shed", JsonValue::from(self.shed)),
            ("shed_infeasible", JsonValue::from(self.shed_infeasible)),
            ("deferrals", JsonValue::from(self.deferrals)),
            ("rejected", JsonValue::from(self.rejected)),
            ("makespan_seconds", JsonValue::from(self.makespan_seconds)),
            ("latency_seconds", self.latency.to_json()),
            ("wait_seconds", self.wait.to_json()),
            ("slo_jobs", JsonValue::from(self.slo_jobs())),
            ("slo_misses", JsonValue::from(self.slo_misses())),
            ("slo_miss_rate", JsonValue::from(self.slo_miss_rate())),
            ("lateness_seconds", self.lateness.to_json()),
            ("stage1_seconds", JsonValue::from(self.stage1_seconds)),
            ("stage2_seconds", JsonValue::from(self.stage2_seconds)),
            ("stage3_seconds", JsonValue::from(self.stage3_seconds)),
            ("stage1_fraction", JsonValue::from(self.stage1_fraction())),
            ("warm_hits", JsonValue::from(self.warm_hits())),
            ("cold_misses", JsonValue::from(self.cold_misses())),
            ("evictions", JsonValue::from(self.evictions())),
            ("hit_rate", JsonValue::from(self.hit_rate())),
            ("max_queue_depth", JsonValue::from(self.max_queue_depth())),
            (
                "jains_fairness_index",
                JsonValue::from(self.jains_fairness_index()),
            ),
            ("max_min_share", JsonValue::from(self.max_min_share())),
            (
                "per_qpu",
                JsonValue::array(self.per_qpu.iter().map(|q| q.to_json())),
            ),
            (
                "per_tenant",
                JsonValue::array(self.per_tenant.iter().map(|t| t.to_json())),
            ),
        ])
    }
}

impl TraceRecord {
    /// The record as a flat JSON object (one JSONL line of the streaming
    /// trace sink): virtual time under `"t"`, discriminant under `"kind"`.
    pub fn to_json(&self) -> JsonValue {
        match *self {
            TraceRecord::Fired(event) => {
                let mut obj = JsonValue::object([
                    ("t", JsonValue::from(event.time)),
                    ("kind", JsonValue::from("fired")),
                    ("seq", JsonValue::from(event.seq as f64)),
                ]);
                match event.kind {
                    EventKind::JobArrival { job } => {
                        obj.push("event", JsonValue::from("arrival"));
                        obj.push("job", JsonValue::from(job));
                    }
                    EventKind::JobCompletion { qpu, job } => {
                        obj.push("event", JsonValue::from("completion"));
                        obj.push("job", JsonValue::from(job));
                        obj.push("qpu", JsonValue::from(qpu));
                    }
                }
                obj
            }
            TraceRecord::Dispatched {
                time,
                job,
                qpu,
                tenant,
                warm,
                finish,
                stage1_seconds,
                stage2_seconds,
                stage3_seconds,
            } => JsonValue::object([
                ("t", JsonValue::from(time)),
                ("kind", JsonValue::from("dispatched")),
                ("job", JsonValue::from(job)),
                ("qpu", JsonValue::from(qpu)),
                ("tenant", JsonValue::from(tenant.index())),
                ("warm", JsonValue::from(warm)),
                ("finish", JsonValue::from(finish)),
                ("stage1_seconds", JsonValue::from(stage1_seconds)),
                ("stage2_seconds", JsonValue::from(stage2_seconds)),
                ("stage3_seconds", JsonValue::from(stage3_seconds)),
            ]),
            TraceRecord::Rejected { time, job } => JsonValue::object([
                ("t", JsonValue::from(time)),
                ("kind", JsonValue::from("rejected")),
                ("job", JsonValue::from(job)),
            ]),
            TraceRecord::Shed {
                time,
                job,
                tenant,
                infeasible,
            } => JsonValue::object([
                ("t", JsonValue::from(time)),
                ("kind", JsonValue::from("shed")),
                ("job", JsonValue::from(job)),
                ("tenant", JsonValue::from(tenant.index())),
                ("infeasible", JsonValue::from(infeasible)),
            ]),
            TraceRecord::Deferred { time, job, until } => JsonValue::object([
                ("t", JsonValue::from(time)),
                ("kind", JsonValue::from("deferred")),
                ("job", JsonValue::from(job)),
                ("until", JsonValue::from(until)),
            ]),
        }
    }
}

/// Error from [`parse`]: where in the input (character offset) and what
/// went wrong.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Character offset of the error in the input.
    pub offset: usize,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "JSON parse error at offset {}: {}",
            self.offset, self.message
        )
    }
}

impl std::error::Error for ParseError {}

/// Nesting depth beyond which [`parse`] refuses to recurse (a corrupt or
/// adversarial input must not overflow the stack).
const MAX_DEPTH: usize = 256;

/// Parse an RFC 8259 JSON document into a [`JsonValue`].
///
/// Full grammar: objects, arrays, strings with every escape form
/// (including `\u` surrogate-pair escapes), numbers, literals.  The whole
/// input must be one JSON value — trailing non-whitespace is an error.
///
/// ```
/// use sx_cluster::json::{parse, JsonValue};
///
/// let value = parse(r#"{"jobs": 3, "warm": true, "names": ["aA"]}"#).unwrap();
/// assert_eq!(value.get("jobs"), Some(&JsonValue::Num(3.0)));
/// assert_eq!(value.get("names"), Some(&JsonValue::array([JsonValue::from("aA")])));
/// ```
///
/// # Errors
/// Returns a [`ParseError`] with the character offset of the first
/// violation.
pub fn parse(input: &str) -> Result<JsonValue, ParseError> {
    let chars: Vec<char> = input.chars().collect();
    let mut p = Parser { chars, pos: 0 };
    p.skip_ws();
    let value = p.value(0)?;
    p.skip_ws();
    if p.pos != p.chars.len() {
        return Err(p.error("trailing characters after the JSON value"));
    }
    Ok(value)
}

struct Parser {
    chars: Vec<char>,
    pos: usize,
}

impl Parser {
    fn error(&self, message: &str) -> ParseError {
        ParseError {
            offset: self.pos,
            message: message.to_string(),
        }
    }

    fn peek(&self) -> Option<char> {
        self.chars.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.peek();
        if c.is_some() {
            self.pos += 1;
        }
        c
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(' ' | '\t' | '\n' | '\r')) {
            self.pos += 1;
        }
    }

    fn consume(&mut self, want: char) -> Result<(), ParseError> {
        match self.bump() {
            Some(c) if c == want => Ok(()),
            Some(c) => Err(ParseError {
                offset: self.pos - 1,
                message: format!("expected '{want}', found '{c}'"),
            }),
            None => Err(self.error(&format!("expected '{want}', found end of input"))),
        }
    }

    fn literal(&mut self, word: &str, value: JsonValue) -> Result<JsonValue, ParseError> {
        for want in word.chars() {
            match self.bump() {
                Some(c) if c == want => {}
                _ => {
                    return Err(ParseError {
                        offset: self.pos.saturating_sub(1),
                        message: format!("invalid literal (expected \"{word}\")"),
                    })
                }
            }
        }
        Ok(value)
    }

    fn value(&mut self, depth: usize) -> Result<JsonValue, ParseError> {
        if depth > MAX_DEPTH {
            return Err(self.error("nesting too deep"));
        }
        match self.peek() {
            Some('n') => self.literal("null", JsonValue::Null),
            Some('t') => self.literal("true", JsonValue::Bool(true)),
            Some('f') => self.literal("false", JsonValue::Bool(false)),
            Some('"') => self.string().map(JsonValue::Str),
            Some('[') => self.array(depth),
            Some('{') => self.object(depth),
            Some(c) if c == '-' || c.is_ascii_digit() => self.number(),
            Some(c) => Err(self.error(&format!("unexpected character '{c}'"))),
            None => Err(self.error("unexpected end of input")),
        }
    }

    fn array(&mut self, depth: usize) -> Result<JsonValue, ParseError> {
        self.consume('[')?;
        let mut values = Vec::new();
        self.skip_ws();
        if self.peek() == Some(']') {
            self.pos += 1;
            return Ok(JsonValue::Array(values));
        }
        loop {
            self.skip_ws();
            values.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.bump() {
                Some(',') => {}
                Some(']') => return Ok(JsonValue::Array(values)),
                Some(c) => {
                    return Err(ParseError {
                        offset: self.pos - 1,
                        message: format!("expected ',' or ']' in array, found '{c}'"),
                    })
                }
                None => return Err(self.error("unterminated array")),
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<JsonValue, ParseError> {
        self.consume('{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some('}') {
            self.pos += 1;
            return Ok(JsonValue::Object(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.consume(':')?;
            self.skip_ws();
            let value = self.value(depth + 1)?;
            pairs.push((key, value));
            self.skip_ws();
            match self.bump() {
                Some(',') => {}
                Some('}') => return Ok(JsonValue::Object(pairs)),
                Some(c) => {
                    return Err(ParseError {
                        offset: self.pos - 1,
                        message: format!("expected ',' or '}}' in object, found '{c}'"),
                    })
                }
                None => return Err(self.error("unterminated object")),
            }
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.consume('"')?;
        let mut out = String::new();
        loop {
            match self.bump() {
                None => return Err(self.error("unterminated string")),
                Some('"') => return Ok(out),
                Some('\\') => match self.bump() {
                    Some('"') => out.push('"'),
                    Some('\\') => out.push('\\'),
                    Some('/') => out.push('/'),
                    Some('b') => out.push('\u{8}'),
                    Some('f') => out.push('\u{c}'),
                    Some('n') => out.push('\n'),
                    Some('r') => out.push('\r'),
                    Some('t') => out.push('\t'),
                    Some('u') => {
                        let unit = self.hex4()?;
                        let code = if (0xD800..=0xDBFF).contains(&unit) {
                            // High surrogate: a low surrogate must follow.
                            if self.bump() != Some('\\') || self.bump() != Some('u') {
                                return Err(self.error("high surrogate without \\u pair"));
                            }
                            let low = self.hex4()?;
                            if !(0xDC00..=0xDFFF).contains(&low) {
                                return Err(self.error("invalid low surrogate"));
                            }
                            0x10000 + ((unit - 0xD800) << 10) + (low - 0xDC00)
                        } else if (0xDC00..=0xDFFF).contains(&unit) {
                            return Err(self.error("unpaired low surrogate"));
                        } else {
                            unit
                        };
                        match char::from_u32(code) {
                            Some(c) => out.push(c),
                            None => return Err(self.error("invalid unicode escape")),
                        }
                    }
                    Some(c) => {
                        return Err(ParseError {
                            offset: self.pos - 1,
                            message: format!("invalid escape '\\{c}'"),
                        })
                    }
                    None => return Err(self.error("unterminated escape")),
                },
                Some(c) if (c as u32) < 0x20 => {
                    return Err(ParseError {
                        offset: self.pos - 1,
                        message: "unescaped control character in string".to_string(),
                    })
                }
                Some(c) => out.push(c),
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, ParseError> {
        let mut value = 0u32;
        for _ in 0..4 {
            match self.bump().and_then(|c| c.to_digit(16)) {
                Some(d) => value = value * 16 + d,
                None => return Err(self.error("invalid \\u escape (want 4 hex digits)")),
            }
        }
        Ok(value)
    }

    fn number(&mut self) -> Result<JsonValue, ParseError> {
        let start = self.pos;
        if self.peek() == Some('-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.pos += 1;
        }
        if self.peek() == Some('.') {
            self.pos += 1;
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some('e' | 'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some('+' | '-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let text: String = self.chars[start..self.pos].iter().collect();
        match text.parse::<f64>() {
            Ok(n) => Ok(JsonValue::Num(n)),
            Err(_) => Err(ParseError {
                offset: start,
                message: format!("invalid number \"{text}\""),
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_render() {
        assert_eq!(JsonValue::Null.to_string(), "null");
        assert_eq!(JsonValue::from(true).to_string(), "true");
        assert_eq!(JsonValue::from(1.5).to_string(), "1.5");
        assert_eq!(JsonValue::from(3usize).to_string(), "3");
        assert_eq!(JsonValue::Num(f64::NAN).to_string(), "null");
        assert_eq!(JsonValue::Num(f64::INFINITY).to_string(), "null");
    }

    #[test]
    fn strings_are_escaped() {
        let s = JsonValue::from("a\"b\\c\nd\te\u{1}");
        assert_eq!(s.to_string(), r#""a\"b\\c\nd\te\u0001""#);
    }

    #[test]
    fn objects_keep_insertion_order() {
        let mut obj = JsonValue::object([("zebra", JsonValue::from(1.0))]);
        obj.push("alpha", JsonValue::array([JsonValue::from(2.0)]));
        assert_eq!(obj.to_string(), r#"{"zebra":1,"alpha":[2]}"#);
        assert_eq!(obj.get("alpha"), Some(&JsonValue::array([2.0.into()])));
        assert_eq!(obj.get("missing"), None);
    }

    #[test]
    fn report_exports_headline_and_tenants() {
        use crate::prelude::*;
        use split_exec::SplitExecConfig;

        let workload =
            crate::tenant::MultiTenantSpec::aggressor_victim(5, 0.5, 2.0, 1.0, 3).generate();
        let fleet = Fleet::new(
            FleetConfig {
                qpus: 2,
                seed: 3,
                ..FleetConfig::default()
            },
            SplitExecConfig::with_seed(3),
        );
        let mut policy = WeightedFairQueue::new();
        let report = simulate(fleet, &workload, &mut policy, SimConfig::default());
        let json = report.to_json();
        assert_eq!(json.get("policy"), Some(&JsonValue::from("wfq")));
        assert_eq!(json.get("jobs"), Some(&JsonValue::from(report.jobs)));
        match json.get("per_tenant") {
            Some(JsonValue::Array(tenants)) => {
                assert_eq!(tenants.len(), 2);
                assert_eq!(tenants[0].get("name"), Some(&JsonValue::from("victim")));
            }
            other => panic!("per_tenant should be an array, got {other:?}"),
        }
        // The rendered text is balanced and mentions the fairness index.
        let text = json.to_string();
        assert_eq!(
            text.matches('{').count(),
            text.matches('}').count(),
            "unbalanced braces"
        );
        assert!(text.contains("\"jains_fairness_index\""));
        assert!(text.contains("\"events\""));
        // Every emitted document must survive the real parser round-trip:
        // the renderer prints shortest-roundtrip floats, so parse(render(x))
        // reproduces the tree exactly.
        assert_eq!(parse(&text), Ok(json));
    }

    #[test]
    fn parser_accepts_the_grammar() {
        assert_eq!(parse("null"), Ok(JsonValue::Null));
        assert_eq!(parse(" true "), Ok(JsonValue::Bool(true)));
        assert_eq!(parse("false"), Ok(JsonValue::Bool(false)));
        assert_eq!(parse("-12.5e2"), Ok(JsonValue::Num(-1250.0)));
        assert_eq!(parse("0.125"), Ok(JsonValue::Num(0.125)));
        assert_eq!(parse("[]"), Ok(JsonValue::Array(vec![])));
        assert_eq!(parse("{}"), Ok(JsonValue::Object(vec![])));
        assert_eq!(
            parse(r#"[1, [2, {"a": 3}], "b"]"#),
            Ok(JsonValue::array([
                JsonValue::Num(1.0),
                JsonValue::array([
                    JsonValue::Num(2.0),
                    JsonValue::object([("a", JsonValue::Num(3.0))]),
                ]),
                JsonValue::from("b"),
            ]))
        );
    }

    #[test]
    fn parser_handles_string_escapes() {
        assert_eq!(
            parse("\"a\\\"b\\\\c\\nd\\te\\/f\\u0001\""),
            Ok(JsonValue::from("a\"b\\c\nd\te/f\u{0001}"))
        );
        // Surrogate-pair escape: U+1F600.
        assert_eq!(
            parse("\"\\ud83d\\ude00\""),
            Ok(JsonValue::from("\u{1F600}"))
        );
        // Non-ASCII passes through unescaped.
        assert_eq!(parse("\"h\u{e9}llo\""), Ok(JsonValue::from("h\u{e9}llo")));
    }

    #[test]
    fn parser_rejects_malformed_input() {
        for bad in [
            "",
            "tru",
            "[1,]",
            "{\"a\":}",
            "{\"a\" 1}",
            "\"unterminated",
            "\"bad \\q escape\"",
            "\"\\ud83d alone\"",
            "1 2",
            "[1] trailing",
            "{1: 2}",
            "nan",
        ] {
            assert!(parse(bad).is_err(), "accepted malformed input {bad:?}");
        }
        let err = parse("[1, @]").expect_err("malformed");
        assert_eq!(err.offset, 4);
        assert!(err.to_string().contains("offset 4"));
    }

    #[test]
    fn parser_bounds_recursion_depth() {
        let deep = "[".repeat(10_000) + &"]".repeat(10_000);
        assert!(parse(&deep).is_err(), "must refuse instead of overflowing");
    }

    #[test]
    fn trace_records_roundtrip_through_jsonl_objects() {
        use crate::event::Event;
        use crate::tenant::TenantId;

        let records = [
            TraceRecord::Fired(Event {
                time: 1.25,
                seq: 9,
                kind: EventKind::JobCompletion { qpu: 2, job: 4 },
            }),
            TraceRecord::Dispatched {
                time: 1.5,
                job: 4,
                qpu: 2,
                tenant: TenantId(1),
                warm: true,
                finish: 2.0,
                stage1_seconds: 0.3,
                stage2_seconds: 0.15,
                stage3_seconds: 0.05,
            },
        ];
        for record in records {
            let json = record.to_json();
            let text = json.to_string();
            assert_eq!(parse(&text), Ok(json), "JSONL line must round-trip");
        }
    }
}
