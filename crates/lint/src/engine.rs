//! The driver: walk the workspace, scan every Rust source, resolve
//! inline suppressions, and assemble a [`LintReport`].

use crate::hotpath;
use crate::report::{Finding, LintReport};
use crate::rules::{check_file, check_hot, RawFinding};
use crate::source::SourceFile;
use crate::symbols::SymbolIndex;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Errors the driver can hit.
#[derive(Debug)]
pub enum LintError {
    /// Filesystem failure while walking or reading.
    Io(PathBuf, io::Error),
}

impl std::fmt::Display for LintError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LintError::Io(path, err) => write!(f, "{}: {err}", path.display()),
        }
    }
}

impl std::error::Error for LintError {}

/// Lint a single in-memory source as if it lived at `rel_path` — the entry
/// point the fixture tests use.  The file is its own whole workspace, so
/// `hot-root` annotations inside it seed the A-rules.
pub fn lint_source(rel_path: &str, text: &str) -> Vec<Finding> {
    lint_sources(&[(rel_path.to_string(), text.to_string())]).findings
}

/// Lint a set of in-memory sources as one workspace: the line-local rules
/// per file, plus the symbol index / call graph / hot-path pass across
/// all of them.
pub fn lint_sources(sources: &[(String, String)]) -> LintReport {
    let files: Vec<SourceFile> = sources
        .iter()
        .map(|(rel, text)| SourceFile::parse(rel, text))
        .collect();
    lint_parsed(&files)
}

/// Lint every workspace source under `root`.
pub fn lint_workspace(root: &Path) -> Result<LintReport, LintError> {
    let mut rels = Vec::new();
    collect_rust_files(root, root, &mut rels)?;
    rels.sort();
    let mut files = Vec::with_capacity(rels.len());
    for rel in &rels {
        let abs = root.join(rel);
        let text = fs::read_to_string(&abs).map_err(|e| LintError::Io(abs.clone(), e))?;
        files.push(SourceFile::parse(rel, &text));
    }
    Ok(lint_parsed(&files))
}

/// The two-pass core: line-local rules per file, then the workspace-wide
/// symbol/call-graph/hot-path pass feeding the A-rules.
fn lint_parsed(files: &[SourceFile]) -> LintReport {
    let index = SymbolIndex::build(files);
    let hot = hotpath::propagate(&index);
    let mut findings = Vec::new();
    for (fi, file) in files.iter().enumerate() {
        let mut raws = check_file(file);
        let hot_spans = hotpath::spans_for_file(&index, &hot, fi);
        let all_spans = hotpath::all_spans_for_file(&index, fi);
        raws.extend(check_hot(file, &hot_spans, &all_spans));
        findings.extend(resolve(file, raws));
    }
    LintReport {
        files_scanned: files.len(),
        findings,
    }
}

/// Resolve each raw finding against the file's inline suppressions: an
/// allow comment covers a finding only when it names the rule and gives a
/// reason.
fn resolve(file: &SourceFile, raws: Vec<RawFinding>) -> Vec<Finding> {
    raws.into_iter()
        .map(|raw| {
            let reason = file
                .suppression_covering(raw.line, raw.rule.id())
                .and_then(|s| s.reason.clone());
            Finding {
                rule: raw.rule,
                file: file.rel_path.clone(),
                line: raw.line,
                message: raw.message,
                suppressed: reason.is_some(),
                suppress_reason: reason,
            }
        })
        .collect()
}

/// Directories never scanned: build output, VCS, and the linter's own
/// deliberately-bad fixture corpus.
fn skip_dir(name: &str) -> bool {
    name == "target" || name.starts_with('.') || name == "fixtures"
}

fn collect_rust_files(root: &Path, dir: &Path, out: &mut Vec<String>) -> Result<(), LintError> {
    let entries = fs::read_dir(dir).map_err(|e| LintError::Io(dir.to_path_buf(), e))?;
    for entry in entries {
        let entry = entry.map_err(|e| LintError::Io(dir.to_path_buf(), e))?;
        let path = entry.path();
        let name = entry.file_name().to_string_lossy().into_owned();
        if path.is_dir() {
            if !skip_dir(&name) {
                collect_rust_files(root, &path, out)?;
            }
        } else if name.ends_with(".rs") {
            let rel = path
                .strip_prefix(root)
                .unwrap_or(&path)
                .components()
                .map(|c| c.as_os_str().to_string_lossy())
                .collect::<Vec<_>>()
                .join("/");
            out.push(rel);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::RuleId;

    #[test]
    fn inline_suppression_requires_matching_rule_and_reason() {
        let bad = "fn f() { let t = std::time::Instant::now(); }\n";
        let path = "crates/cluster/src/x.rs";
        let findings = lint_source(path, bad);
        assert!(findings.iter().any(|f| !f.suppressed));

        let suppressed = format!("// sx-lint: allow(D001) -- proving the suppressor\n{bad}");
        let findings = lint_source(path, &suppressed);
        assert!(findings.iter().all(|f| f.suppressed));

        // A reasonless allow suppresses nothing and raises S001 itself.
        let reasonless = format!("// sx-lint: allow(D001)\n{bad}");
        let findings = lint_source(path, &reasonless);
        assert!(findings
            .iter()
            .any(|f| f.rule == RuleId::S001 && !f.suppressed));
        assert!(findings
            .iter()
            .any(|f| f.rule == RuleId::D001 && !f.suppressed));
    }
}
