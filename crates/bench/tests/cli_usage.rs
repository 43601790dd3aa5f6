//! `cluster_sim` rejects unusable counts as usage errors (exit code 2 with
//! a message), in every mode, instead of panicking or printing NaN.

use std::process::Command;

#[test]
fn zero_jobs_or_qpus_is_a_usage_error() {
    for flag in ["--jobs", "--qpus"] {
        for mode in ["compare", "fairness", "sweep", "bench"] {
            let out = Command::new(env!("CARGO_BIN_EXE_cluster_sim"))
                .args(["--mode", mode, "--virtual", flag, "0"])
                .output()
                .expect("cluster_sim runs");
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(2), "{mode} {flag} 0: {stderr}");
            assert!(!stderr.contains("panicked"), "{mode} {flag} 0: {stderr}");
            assert!(stderr.contains(flag), "{mode} {flag} 0: {stderr}");
        }
    }
}
