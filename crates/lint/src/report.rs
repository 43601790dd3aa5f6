//! Findings and output formats.
//!
//! Two formats, selected by the CLI's `--format`:
//!
//! * `human` — one `file:line: severity[rule] message` per finding, the
//!   suppressed ones summarized at the end;
//! * `json` — a deterministic hand-rolled JSON document (the linter is
//!   dependency-free, so it carries its own four-line escaper) for
//!   machine consumption in CI dashboards.

use crate::rules::RuleId;

/// One resolved finding.
#[derive(Debug, Clone)]
pub struct Finding {
    /// The rule that fired.
    pub rule: RuleId,
    /// Workspace-relative path.
    pub file: String,
    /// 1-based line.
    pub line: usize,
    /// Human-readable explanation.
    pub message: String,
    /// Whether an inline `sx-lint: allow` with a reason covers it.
    pub suppressed: bool,
    /// The written reason of the covering suppression, if any.
    pub suppress_reason: Option<String>,
}

/// The result of linting a set of files.
#[derive(Debug)]
pub struct LintReport {
    /// Number of files scanned.
    pub files_scanned: usize,
    /// Every finding, suppressed or not, in file/line order.
    pub findings: Vec<Finding>,
}

impl LintReport {
    /// The findings that fail the build.
    pub fn unsuppressed(&self) -> impl Iterator<Item = &Finding> {
        self.findings.iter().filter(|f| !f.suppressed)
    }

    /// Whether the gate passes (no unsuppressed findings).
    pub fn is_clean(&self) -> bool {
        self.unsuppressed().next().is_none()
    }

    /// The human report.
    pub fn human(&self) -> String {
        let mut out = String::new();
        for f in self.unsuppressed() {
            out.push_str(&format!(
                "{}:{}: {}[{}] {}\n",
                f.file,
                f.line,
                f.rule.severity().label(),
                f.rule.id(),
                f.message
            ));
        }
        let suppressed = self.findings.iter().filter(|f| f.suppressed).count();
        let unsuppressed = self.findings.len() - suppressed;
        out.push_str(&format!(
            "sx-lint: {} file(s) scanned, {} finding(s) ({} suppressed)\n",
            self.files_scanned, unsuppressed, suppressed
        ));
        out
    }

    /// The JSON report.
    pub fn json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str(&format!("  \"files_scanned\": {},\n", self.files_scanned));
        out.push_str(&format!(
            "  \"unsuppressed\": {},\n",
            self.unsuppressed().count()
        ));
        out.push_str("  \"findings\": [\n");
        for (i, f) in self.findings.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"rule\": \"{}\", \"severity\": \"{}\", \"file\": \"{}\", \"line\": {}, \
                 \"suppressed\": {}, \"message\": \"{}\"{}}}{}\n",
                f.rule.id(),
                f.rule.severity().label(),
                escape(&f.file),
                f.line,
                f.suppressed,
                escape(&f.message),
                f.suppress_reason
                    .as_deref()
                    .map(|r| format!(", \"reason\": \"{}\"", escape(r)))
                    .unwrap_or_default(),
                if i + 1 < self.findings.len() { "," } else { "" }
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }
}

/// Minimal JSON string escaping.
fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn finding(suppressed: bool) -> Finding {
        Finding {
            rule: RuleId::D001,
            file: "crates/cluster/src/x.rs".to_string(),
            line: 7,
            message: "a \"quoted\" message".to_string(),
            suppressed,
            suppress_reason: suppressed.then(|| "why".to_string()),
        }
    }

    #[test]
    fn human_report_lists_unsuppressed_and_counts_suppressed() {
        let r = LintReport {
            files_scanned: 3,
            findings: vec![finding(false), finding(true)],
        };
        let text = r.human();
        assert!(text.contains("crates/cluster/src/x.rs:7: error[D001]"));
        assert!(text.contains("3 file(s) scanned, 1 finding(s) (1 suppressed)"));
        assert!(!r.is_clean());
    }

    #[test]
    fn json_report_escapes_and_counts() {
        let r = LintReport {
            files_scanned: 1,
            findings: vec![finding(true)],
        };
        let json = r.json();
        assert!(json.contains("\\\"quoted\\\""));
        assert!(json.contains("\"unsuppressed\": 0"));
        assert!(json.contains("\"reason\": \"why\""));
        assert!(r.is_clean());
    }
}
