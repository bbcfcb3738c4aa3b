//! Self-test of the `pslocal-analysis` lint engine against the real
//! tree and against a fixture tree with one seeded violation per pass.
//!
//! These are the acceptance checks behind the CI `lint` gate: the
//! repository itself must be clean (so `pslocal lint --deny` exits 0),
//! and every pass must actually fire on a tree that violates it (so a
//! regression that silently disables a pass fails here, not in
//! production).

use pslocal_analysis::{analyze, render_text};
use std::collections::BTreeSet;
use std::path::Path;

/// The tree this test file lives in.
fn repo_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

#[test]
fn repo_tree_is_lint_clean() {
    let analysis = analyze(repo_root()).expect("workspace tree walks");
    assert!(
        analysis.findings.is_empty(),
        "lint findings on the repo tree — `pslocal lint --fix-hints` for details:\n{}",
        render_text(&analysis.findings, true)
    );
    assert!(analysis.files_scanned > 50, "scanned only {} files", analysis.files_scanned);
    assert!(analysis.suppressed > 0, "the tree documents its waivers inline");
}

#[test]
fn lock_audit_covers_the_concurrency_surface_and_is_acyclic() {
    let analysis = analyze(repo_root()).expect("workspace tree walks");
    let report = &analysis.lock_report;
    assert!(report.cycles.is_empty(), "lock graph has cycles: {:?}", report.cycles);
    let names: BTreeSet<&str> = report.locks.iter().map(|l| l.name.as_str()).collect();
    for lock in ["state", "available", "room", "results", "counters", "histograms", "spans", "open"]
    {
        assert!(names.contains(lock), "lock `{lock}` missing from inventory {names:?}");
    }
    // Every mutex node appears in the canonical order exactly once.
    let canonical: BTreeSet<&str> = report.canonical.iter().map(String::as_str).collect();
    assert_eq!(canonical.len(), report.canonical.len(), "canonical order repeats a node");
    for lock in ["state", "results", "counters", "histograms", "spans", "open"] {
        assert!(canonical.contains(lock), "`{lock}` missing from canonical order");
    }
    // The condvar wait associations tie `available` (idle workers) and
    // `room` (waiting submitters) to `state`.
    for condvar in ["available", "room"] {
        assert!(
            report.waits.iter().any(|w| w.condvar == condvar && w.mutex == "state"),
            "missing {condvar}/state wait association: {:?}",
            report.waits
        );
    }
}

#[test]
fn fixture_tree_trips_every_pass() {
    let root = repo_root().join("crates/analysis/fixtures/violations");
    let analysis = analyze(&root).expect("fixture tree walks");
    let lints: BTreeSet<&str> = analysis.findings.iter().map(|f| f.lint).collect();
    for lint in [
        "lock-order",
        "panic-path",
        "stdout-purity",
        "codec-drift",
        "hygiene",
        "unsafe-ffi",
        "doc-coverage",
    ] {
        assert!(lints.contains(lint), "fixture did not trip `{lint}`; tripped: {lints:?}");
    }
    assert!(
        !analysis.lock_report.cycles.is_empty(),
        "fixture a/b deadlock not detected as a cycle"
    );
}
