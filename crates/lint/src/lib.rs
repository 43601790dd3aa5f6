//! # sx-lint — the determinism-contract static analyzer
//!
//! `docs/ARCHITECTURE.md` promises that every simulation run is a pure
//! function of its seeds: same seed, bit-identical trace.  Every CI sweep
//! gate (`--mode slo`, `fairness`, `cache-cliff`, ...) silently depends on
//! that promise, and nothing in the type system enforces it — a stray
//! `Instant::now()`, an iteration over a `HashMap`, or a NaN-unsafe
//! `partial_cmp().unwrap()` comparator is one careless edit away from
//! nondeterministic traces no unit test will catch.  This crate is the
//! enforcement: a hand-rolled, dependency-free line/token scanner (the
//! build environment is offline, so no `syn`) that walks the workspace and
//! raises findings against the rule catalog in [`rules::RuleId`].
//!
//! v2 adds a *flow-aware* layer on top of the line scanner: a workspace
//! symbol index and token-level call graph ([`symbols`]), hot-path
//! propagation from hot-root annotations ([`hotpath`]), the
//! A-rule family enforcing the hot-path allocation contract (A001–A003 in
//! [`rules::RuleId`]).
//!
//! A finding is suppressed only by an inline allow comment naming the rule
//! id plus a mandatory `--`-separated reason on the flagged line or the
//! line above (see [`source::Suppression`]); each one pins a single site.
//! The catalog and the suppression syntax are documented for humans in
//! `docs/LINTING.md`.  The CLI lives in `crates/bench/src/bin/sx_lint.rs`
//! and exits nonzero on any unsuppressed finding; CI runs it on every
//! build.
//!
//! ```
//! use sx_lint::{lint_source, RuleId};
//!
//! let findings = lint_source(
//!     "crates/cluster/src/demo.rs",
//!     "fn f() { let t = std::time::Instant::now(); }",
//! );
//! assert_eq!(findings[0].rule, RuleId::D001);
//! assert!(!findings[0].suppressed);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]
// The library renders reports to strings; only the CLI prints.
#![warn(clippy::print_stdout)]

pub mod engine;
pub mod hotpath;
pub mod report;
pub mod rules;
pub mod source;
pub mod symbols;

pub use engine::{lint_source, lint_sources, lint_workspace, LintError};
pub use hotpath::{propagate, HotInfo, HotSpan};
pub use report::{Finding, LintReport};
pub use rules::{RuleId, Severity};
pub use source::{HotMark, SourceFile, Suppression};
pub use symbols::{FnSymbol, SymbolIndex};
