//! The linter eats its own dog food: lint the real workspace and require
//! zero unsuppressed findings — the same gate CI enforces via the
//! `sx_lint` binary.  If this test fails, either fix the flagged code or
//! add a suppression *with a written reason*.

use std::path::Path;

#[test]
fn workspace_is_lint_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..").join("..");
    let report = sx_lint::lint_workspace(&root).expect("workspace walk should succeed");

    // The walk found the real tree, not an empty directory.
    assert!(
        report.files_scanned >= 50,
        "suspiciously few files scanned: {}",
        report.files_scanned
    );

    let unsuppressed: Vec<_> = report.unsuppressed().collect();
    assert!(
        unsuppressed.is_empty(),
        "unsuppressed lint findings — fix or allow(with reason):\n{}",
        report.human()
    );

    // Suppression hygiene: every suppressed finding carries its reason.
    for f in report.findings.iter().filter(|f| f.suppressed) {
        assert!(
            f.suppress_reason.as_deref().is_some_and(|r| !r.is_empty()),
            "suppressed finding without a reason: {}:{} [{}]",
            f.file,
            f.line,
            f.rule.id()
        );
    }
}
