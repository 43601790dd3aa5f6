//! `cluster_sim` rejects unusable counts, unknown modes, retired flags,
//! unknown scheduler names and empty sweep axes as usage errors (exit code 2 with a
//! message), in every mode, instead of panicking or printing NaN — and its
//! `--mode replay --json` document describes the replayed record, not the
//! command line.  `sx_lint` fails on an unsuppressed finding, passes once
//! an inline allow with a reason covers it, and rejects its retired
//! suppression flags as usage errors.

use std::path::PathBuf;
use std::process::{Command, Output};

use sx_cluster::json::{self, JsonValue};
use sx_cluster::prelude::parse_flight_record;

fn cluster_sim(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_cluster_sim"))
        .args(args)
        .output()
        .expect("cluster_sim runs")
}

#[test]
fn zero_jobs_or_qpus_is_a_usage_error() {
    for flag in ["--jobs", "--qpus"] {
        for mode in ["compare", "fairness", "sweep", "slo"] {
            let out = cluster_sim(&["--mode", mode, "--virtual", flag, "0"]);
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(2), "{mode} {flag} 0: {stderr}");
            assert!(!stderr.contains("panicked"), "{mode} {flag} 0: {stderr}");
            assert!(stderr.contains(flag), "{mode} {flag} 0: {stderr}");
        }
    }
}

#[test]
fn retired_modes_and_aliases_are_usage_errors() {
    for mode in ["bench", "perf", "cliff"] {
        let out = cluster_sim(&["--mode", mode, "--virtual", "--jobs", "10"]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "--mode {mode}: {stderr}");
        assert!(
            stderr.contains(&format!("unknown mode '{mode}'")),
            "--mode {mode}: {stderr}"
        );
        for valid in [
            "compare",
            "cache-cliff",
            "fairness",
            "aging-sweep",
            "admission",
            "slo",
            "sweep",
            "replay",
        ] {
            assert!(stderr.contains(valid), "--mode {mode}: {stderr}");
        }
    }
}

#[test]
fn retired_threads_flag_is_a_usage_error() {
    // Every mode runs its cells serially; there is no thread count to pick.
    let out = cluster_sim(&[
        "--mode",
        "sweep",
        "--virtual",
        "--jobs",
        "10",
        "--threads",
        "2",
    ]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "--threads 2: {stderr}");
    assert!(!stderr.contains("panicked"), "--threads 2: {stderr}");
    assert!(stderr.contains("--threads"), "--threads 2: {stderr}");
}

#[test]
fn unknown_policy_names_are_usage_errors_that_list_the_valid_names() {
    for args in [
        &["--mode", "compare", "--policy", "nope"][..],
        &["--mode", "sweep", "--policies", "fifo,nope"],
    ] {
        let out = cluster_sim(&[args, &["--virtual", "--jobs", "10"]].concat());
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains("'nope'"), "{args:?}: {stderr}");
        for valid in ["fifo", "spjf", "affinity", "edf", "wfq", "wfq-fifo"] {
            assert!(stderr.contains(valid), "{args:?}: {stderr}");
        }
    }
}

#[test]
fn empty_sweep_axes_are_usage_errors_that_name_the_flag() {
    for flag in ["--seeds", "--loads", "--policies"] {
        let out = cluster_sim(&["--mode", "sweep", "--virtual", "--jobs", "10", flag, ""]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{flag} '': {stderr}");
        assert!(!stderr.contains("panicked"), "{flag} '': {stderr}");
        assert!(stderr.contains(flag), "{flag} '': {stderr}");
    }
}

#[test]
fn sweep_takes_every_scheduler_spec_name() {
    let doc_path = scratch("sweep.json");
    let doc_arg = doc_path.to_str().unwrap();
    let flags = ["--mode", "sweep", "--virtual", "--jobs", "40"];
    assert_succeeds(
        &[
            &flags[..],
            &["--policies", "wfq-fifo,wfq", "--json", doc_arg],
        ]
        .concat(),
    );
    let doc = json::parse(&std::fs::read_to_string(&doc_path).expect("document written"))
        .expect("document parses");
    let _ = std::fs::remove_file(&doc_path);
    assert_eq!(
        doc.get("policies"),
        Some(&JsonValue::array(["wfq-fifo", "wfq"].map(JsonValue::from)))
    );
}

fn assert_succeeds(args: &[&str]) {
    let out = cluster_sim(args);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{args:?}: {stdout}");
}

/// A scratch path unique to this test process.
fn scratch(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("cluster_sim-{}-{name}", std::process::id()))
}

#[test]
fn replay_json_describes_the_record_not_the_flags() {
    let record = scratch("fairness.jsonl");
    let doc_path = scratch("replay.json");
    let (record_arg, doc_arg) = (record.to_str().unwrap(), doc_path.to_str().unwrap());

    let record_flags = ["--mode", "fairness", "--jobs", "100", "--virtual"];
    assert_succeeds(&[&record_flags[..], &["--record", record_arg]].concat());
    // Replayed without --jobs/--qpus: the CLI defaults (200 jobs, 4 QPUs)
    // must not leak into the document.
    let replay_flags = ["--mode", "replay", "--virtual", "--input", record_arg];
    assert_succeeds(&[&replay_flags[..], &["--json", doc_arg]].concat());

    let text = std::fs::read_to_string(&record).expect("record written");
    let flight = parse_flight_record(&text).expect("record parses");
    let doc = json::parse(&std::fs::read_to_string(&doc_path).expect("document written"))
        .expect("document parses");
    let _ = std::fs::remove_file(&record);
    let _ = std::fs::remove_file(&doc_path);

    assert_eq!(doc.get("mode"), Some(&JsonValue::from("replay")));
    assert_eq!(doc.get("input"), Some(&JsonValue::from(record_arg)));
    for key in ["seed", "jobs", "qpus"] {
        assert_eq!(doc.get(key), None, "top-level {key} comes from the flags");
    }
    let Some(JsonValue::Array(rows)) = doc.get("results") else {
        panic!("results must be an array: {doc}");
    };
    assert_eq!(rows.len(), flight.runs.len());
    for (row, run) in rows.iter().zip(&flight.runs) {
        assert_eq!(
            row.get("jobs"),
            Some(&JsonValue::from(run.spec.workload.len()))
        );
        assert_eq!(row.get("qpus"), Some(&JsonValue::from(run.spec.fleet.qpus)));
        assert_eq!(row.get("divergence"), Some(&JsonValue::Null));
    }
}

fn sx_lint(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_sx_lint"))
        .args(args)
        .output()
        .expect("sx_lint runs")
}

/// A scratch workspace holding one simulator source, `crates/cluster/src/x.rs`,
/// whose body is `source`.
fn lint_root(name: &str, source: &str) -> PathBuf {
    let root = scratch(name);
    let src = root.join("crates/cluster/src");
    std::fs::create_dir_all(&src).expect("create scratch workspace");
    std::fs::write(root.join("Cargo.toml"), "[workspace]\n").expect("write Cargo.toml");
    std::fs::write(src.join("x.rs"), source).expect("write x.rs");
    root
}

/// Run `sx_lint --root` over a scratch workspace holding `source`, then
/// remove the workspace.
fn lint_scratch(name: &str, source: &str) -> Output {
    let root = lint_root(name, source);
    let out = sx_lint(&["--root", root.to_str().unwrap()]);
    std::fs::remove_dir_all(&root).expect("remove scratch workspace");
    out
}

const WALL_CLOCK: &str = "fn f() {\n    let t = std::time::Instant::now();\n}\n";

#[test]
fn lint_fails_on_an_unsuppressed_wall_clock() {
    let out = lint_scratch("lint-bad", WALL_CLOCK);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(1), "{stdout}");
    assert!(stdout.contains("D001"), "{stdout}");
}

#[test]
fn lint_passes_once_an_inline_allow_gives_a_reason() {
    let source = WALL_CLOCK.replace(
        "    let t",
        "    // sx-lint: allow(D001) -- the test proves the suppressor\n    let t",
    );
    let out = lint_scratch("lint-allowed", &source);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(0), "{stdout}");
    assert!(stdout.contains("0 finding(s) (1 suppressed)"), "{stdout}");
}

#[test]
fn lint_rejects_an_allow_without_a_reason() {
    let source = WALL_CLOCK.replace("    let t", "    // sx-lint: allow(D001)\n    let t");
    let out = lint_scratch("lint-reasonless", &source);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(1), "{stdout}");
    assert!(stdout.contains("S001"), "{stdout}");
    assert!(stdout.contains("D001"), "{stdout}");
}

#[test]
fn retired_lint_suppression_flags_are_usage_errors() {
    // Inline allows are the one way to suppress a finding.
    let root = lint_root("lint-flags", WALL_CLOCK);
    for flag in ["--baseline", "--write-baseline", "--allowlist"] {
        let out = sx_lint(&["--root", root.to_str().unwrap(), flag, "lint.json"]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{flag}: {stderr}");
        assert!(!stderr.contains("panicked"), "{flag}: {stderr}");
        assert!(stderr.contains(flag), "{flag}: {stderr}");
    }
    std::fs::remove_dir_all(&root).expect("remove scratch workspace");
}
