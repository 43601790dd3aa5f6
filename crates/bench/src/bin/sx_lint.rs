//! `sx_lint` — CLI for the determinism-contract static analyzer.
//!
//! Walks the workspace, applies the rule catalog of [`sx_lint::RuleId`]
//! (including the flow-aware hot-path A-rules), honors inline allow
//! comments with a written reason (see [`sx_lint::Suppression`]), the one
//! way to suppress a finding, and exits nonzero on any unsuppressed
//! finding.  CI runs it on every build:
//!
//! ```text
//! cargo run --release -p sx-bench --bin sx_lint
//! ```
//!
//! Flags:
//!
//! * `--format human|json` — report format (default `human`);
//! * `--root <dir>` — workspace root (default: walk up from the current
//!   directory to the first `Cargo.toml` containing `[workspace]`).
//!
//! Exit status: 0 when clean, 1 on unsuppressed findings, 2 on usage or
//! I/O errors.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut format = "human".to_string();
    let mut root: Option<PathBuf> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--format" => match it.next() {
                Some(f) if f == "human" || f == "json" => format = f.clone(),
                _ => return usage("--format takes `human` or `json`"),
            },
            "--root" => match it.next() {
                Some(r) => root = Some(PathBuf::from(r)),
                None => return usage("--root takes a directory"),
            },
            "--help" | "-h" => return usage(""),
            other => return usage(&format!("unknown flag `{other}`")),
        }
    }

    let root = match root.or_else(find_workspace_root) {
        Some(r) => r,
        None => {
            eprintln!("sx_lint: no workspace root found (pass --root)");
            return ExitCode::from(2);
        }
    };

    let report = match sx_lint::lint_workspace(&root) {
        Ok(report) => report,
        Err(err) => {
            eprintln!("sx_lint: {err}");
            return ExitCode::from(2);
        }
    };

    match format.as_str() {
        "json" => print!("{}", report.json()),
        _ => print!("{}", report.human()),
    }

    if report.is_clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn usage(err: &str) -> ExitCode {
    if !err.is_empty() {
        eprintln!("sx_lint: {err}");
    }
    eprintln!("usage: sx_lint [--format human|json] [--root <dir>]");
    ExitCode::from(if err.is_empty() { 0 } else { 2 })
}

/// Walk up from the current directory to the first `Cargo.toml` that
/// declares `[workspace]`.
fn find_workspace_root() -> Option<PathBuf> {
    let mut dir = std::env::current_dir().ok()?;
    loop {
        if is_workspace_root(&dir) {
            return Some(dir);
        }
        if !dir.pop() {
            return None;
        }
    }
}

fn is_workspace_root(dir: &Path) -> bool {
    std::fs::read_to_string(dir.join("Cargo.toml"))
        .map(|text| text.contains("[workspace]"))
        .unwrap_or(false)
}
