//! `trace_diff` — align two flight records and report the first divergent
//! event.
//!
//! A flight record (written by `cluster_sim --record`, schema
//! `sx-flight-record/v4`) is a deterministic function of its header, the
//! run's serialized `CellSpec`: same fleet (its seed included), scheduler,
//! admission and workload must yield the same record stream byte for byte.  This tool is the CI-facing check of that invariant:
//!
//! ```text
//! trace_diff <a.jsonl> <b.jsonl> [--context N]
//! ```
//!
//! Exit codes:
//!
//! * `0` — the records are identical.
//! * `1` — they diverge; the first divergent line is reported with file
//!   line numbers, the record's `seq` when present, and `N` lines of
//!   context from each file (default 3).
//! * `2` — usage error, unreadable file, JSON parse failure, or an
//!   unknown schema version (the records cannot be meaningfully compared).
//!
//! Comparison is on raw trimmed lines, so any difference — header fields
//! such as the fleet (its seed) or fleet fingerprint, record payloads, or one file
//! simply being longer — counts as divergence.  When the headers
//! themselves differ, the differing top-level keys are named and the scan
//! continues forward so the first divergent *record* (and its `seq`) is
//! still reported.

use std::fs;
use std::process::ExitCode;

use sx_cluster::json::{self, JsonValue};
use sx_cluster::FLIGHT_SCHEMA;

const USAGE: &str = "usage: trace_diff <a.jsonl> <b.jsonl> [--context N]";

/// One non-blank line of a flight record, kept with its 1-based file line
/// number so reports point back into the original file.
struct Line {
    number: usize,
    raw: String,
    value: JsonValue,
}

impl Line {
    fn is_header(&self) -> bool {
        self.value.get("schema").is_some()
    }

    fn seq(&self) -> Option<u64> {
        match self.value.get("seq") {
            Some(JsonValue::Num(n)) if n.is_finite() && *n >= 0.0 => Some(*n as u64),
            _ => None,
        }
    }
}

/// Read and validate one flight record: every non-blank line must parse as
/// JSON, the first line must be a header, and every header line must carry
/// the schema version this tool understands.
fn load(path: &str) -> Result<Vec<Line>, String> {
    let text = fs::read_to_string(path).map_err(|err| format!("{path}: {err}"))?;
    let mut lines = Vec::new();
    for (idx, raw) in text.lines().enumerate() {
        let trimmed = raw.trim();
        if trimmed.is_empty() {
            continue;
        }
        let number = idx + 1;
        let value =
            json::parse(trimmed).map_err(|err| format!("{path}:{number}: parse error: {err}"))?;
        if let Some(schema) = value.get("schema") {
            match schema {
                JsonValue::Str(s) if s == FLIGHT_SCHEMA => {}
                other => {
                    return Err(format!(
                        "{path}:{number}: unknown schema {other} (expected \"{FLIGHT_SCHEMA}\")"
                    ));
                }
            }
        }
        lines.push(Line {
            number,
            raw: trimmed.to_string(),
            value,
        });
    }
    match lines.first() {
        None => Err(format!("{path}: empty flight record")),
        Some(first) if !first.is_header() => Err(format!(
            "{path}:{}: first line is not a flight-record header",
            first.number
        )),
        Some(_) => Ok(lines),
    }
}

/// Clip a line for display; header lines embed the whole workload and can
/// run to tens of kilobytes.
fn clip(raw: &str) -> String {
    const LIMIT: usize = 160;
    if raw.chars().count() <= LIMIT {
        return raw.to_string();
    }
    let mut out: String = raw.chars().take(LIMIT).collect();
    out.push('…');
    out
}

fn print_context(label: &str, lines: &[Line], idx: usize, context: usize) {
    let start = idx.saturating_sub(context);
    let end = (idx + context + 1).min(lines.len());
    for (j, line) in lines.iter().enumerate().take(end).skip(start) {
        let marker = if j == idx { '>' } else { ' ' };
        println!("  {marker} {label}:{}: {}", line.number, clip(&line.raw));
    }
}

/// Top-level keys whose values differ between two header objects (or that
/// exist on only one side), in the first header's key order.
fn differing_header_keys(a: &JsonValue, b: &JsonValue) -> Vec<String> {
    let (JsonValue::Object(pa), JsonValue::Object(pb)) = (a, b) else {
        return vec!["<non-object header>".to_string()];
    };
    let mut keys = Vec::new();
    for (key, value) in pa {
        match b.get(key) {
            Some(other) if other.to_string() == value.to_string() => {}
            _ => keys.push(key.clone()),
        }
    }
    for (key, _) in pb {
        if a.get(key).is_none() {
            keys.push(key.clone());
        }
    }
    keys
}

/// Report the divergence at aligned index `idx` and, when the divergence is
/// a header, scan forward for the first divergent record so its `seq` is
/// named too.
fn report_divergence(
    path_a: &str,
    a: &[Line],
    path_b: &str,
    b: &[Line],
    idx: usize,
    context: usize,
) {
    let la = &a[idx];
    let lb = &b[idx];
    let seq = la.seq().or_else(|| lb.seq());
    let what = if la.is_header() && lb.is_header() {
        "header"
    } else {
        "record"
    };
    match seq {
        Some(seq) => println!(
            "DIVERGED: first divergent {what} at aligned index {idx} (seq {seq}; {path_a}:{}, {path_b}:{})",
            la.number, lb.number
        ),
        None => println!(
            "DIVERGED: first divergent {what} at aligned index {idx} ({path_a}:{}, {path_b}:{})",
            la.number, lb.number
        ),
    }
    if la.is_header() && lb.is_header() {
        let keys = differing_header_keys(&la.value, &lb.value);
        if !keys.is_empty() {
            println!("  header keys differing: {}", keys.join(", "));
        }
        // The headers pin the run's inputs; with different inputs the
        // record streams almost surely differ too.  Find where.
        let limit = a.len().min(b.len());
        if let Some(j) = (idx + 1..limit).find(|&j| a[j].raw != b[j].raw) {
            match a[j].seq().or_else(|| b[j].seq()) {
                Some(seq) => println!(
                    "  first divergent record after the header: aligned index {j} (seq {seq}; {path_a}:{}, {path_b}:{})",
                    a[j].number, b[j].number
                ),
                None => println!(
                    "  first divergent record after the header: aligned index {j} ({path_a}:{}, {path_b}:{})",
                    a[j].number, b[j].number
                ),
            }
        }
    }
    println!("  context from {path_a}:");
    print_context("a", a, idx, context);
    println!("  context from {path_b}:");
    print_context("b", b, idx, context);
}

fn run(path_a: &str, path_b: &str, context: usize) -> Result<ExitCode, String> {
    let a = load(path_a)?;
    let b = load(path_b)?;

    let limit = a.len().min(b.len());
    for idx in 0..limit {
        if a[idx].raw != b[idx].raw {
            report_divergence(path_a, &a, path_b, &b, idx, context);
            return Ok(ExitCode::from(1));
        }
    }
    if a.len() != b.len() {
        let (longer_path, longer, shorter_path, shorter) = if a.len() > b.len() {
            (path_a, &a, path_b, &b)
        } else {
            (path_b, &b, path_a, &a)
        };
        let extra = &longer[limit];
        match extra.seq() {
            Some(seq) => println!(
                "DIVERGED: first divergent record at aligned index {limit} (seq {seq}): {longer_path} continues at line {} but {shorter_path} ends after {} records",
                extra.number,
                shorter.len()
            ),
            None => println!(
                "DIVERGED: first divergent record at aligned index {limit}: {longer_path} continues at line {} but {shorter_path} ends after {} records",
                extra.number,
                shorter.len()
            ),
        }
        println!("  context from {longer_path}:");
        print_context("+", longer, limit, context);
        return Ok(ExitCode::from(1));
    }

    println!(
        "IDENTICAL: {} records match ({path_a} vs {path_b})",
        a.len()
    );
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut paths = Vec::new();
    let mut context = 3usize;
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--context" => match iter.next().map(|v| v.parse::<usize>()) {
                Some(Ok(n)) => context = n,
                _ => {
                    eprintln!("{USAGE}");
                    return ExitCode::from(2);
                }
            },
            "--help" | "-h" => {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            _ if arg.starts_with('-') => {
                eprintln!("unknown flag {arg}\n{USAGE}");
                return ExitCode::from(2);
            }
            path => paths.push(path.to_string()),
        }
    }
    if paths.len() != 2 {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    }
    match run(&paths[0], &paths[1], context) {
        Ok(code) => code,
        Err(err) => {
            eprintln!("trace_diff: {err}");
            ExitCode::from(2)
        }
    }
}
