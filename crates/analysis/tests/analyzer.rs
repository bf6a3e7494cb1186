//! Integration tests for `lcl_analysis`: each fixture under
//! `tests/fixtures/` is a known-bad mini-workspace, and every planted
//! violation must be reported with its exact rule id and `file:line`
//! span — no more, no less. The final test runs the analyzer on this
//! repository itself and demands a clean report modulo the shipped
//! baseline.

use lcl_analysis::{analyze, AnalysisConfig, AnalysisReport};
use std::path::{Path, PathBuf};

fn fixture_root(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

fn run_fixture(name: &str) -> AnalysisReport {
    analyze(&AnalysisConfig {
        root: fixture_root(name),
        baseline: None,
    })
    .unwrap_or_else(|e| panic!("fixture `{name}` failed to analyze: {e}"))
}

/// The `(rule, file, line)` triple of every finding, in report order.
fn spans(report: &AnalysisReport) -> Vec<(&str, &str, u32)> {
    report
        .findings
        .iter()
        .map(|f| (f.rule, f.file.as_str(), f.line))
        .collect()
}

#[test]
fn hotpath_fixture_triggers_exact_rules_and_spans() {
    let report = run_fixture("hotpath");
    assert_eq!(
        spans(&report),
        vec![
            ("LCL-A01", "crates/algorithms/src/protocols/bad.rs", 13),
            ("LCL-A01", "crates/algorithms/src/protocols/bad.rs", 14),
            ("LCL-A01", "crates/local/src/engine.rs", 8),
            ("LCL-A02", "crates/local/src/engine.rs", 9),
            ("LCL-A03", "crates/local/src/engine.rs", 10),
            ("LCL-A01", "crates/local/src/engine.rs", 17),
            ("LCL-A04", "crates/local/src/engine.rs", 23),
            ("LCL-A01", "crates/local/src/engine.rs", 29),
            ("LCL-A01", "crates/local/src/engine.rs", 34),
        ],
        "{}",
        report.human()
    );
    // Spans carry the enclosing item path (the baseline key).
    assert_eq!(report.findings[0].item, "BadCast::step");
    assert_eq!(report.findings[2].item, "step_region");
    assert_eq!(report.findings[5].item, "Inbox::gather");
    assert_eq!(report.findings[6].item, "SlotRegion::commit");
    assert_eq!(report.findings[7].item, "MailLog::log");
    assert_eq!(report.findings[8].item, "node_context");
    // The `#[cfg(test)]` allocation in the protocol fixture is not
    // reported: hot-path rules skip test code.
    assert_eq!(report.files_scanned, 2);
}

#[test]
fn hygiene_fixture_triggers_exact_rules_and_spans() {
    let report = run_fixture("hygiene");
    assert_eq!(
        spans(&report),
        vec![
            ("LCL-H02", "crates/core/src/thing.rs", 9),
            ("LCL-H01", "crates/core/src/thing.rs", 15),
            ("LCL-H01", "crates/core/src/thing.rs", 16),
            ("LCL-H01", "crates/core/src/thing.rs", 20),
        ],
        "{}",
        report.human()
    );
    // `assert!` invariant documentation in `checked` is not a finding.
    assert!(report.findings.iter().all(|f| f.item != "Thing::checked"));
}

#[test]
fn determinism_fixture_triggers_exact_rules_and_spans() {
    let report = run_fixture("determinism");
    assert_eq!(
        spans(&report),
        vec![
            ("LCL-D01", "crates/local/src/foo.rs", 13),
            ("LCL-D02", "crates/local/src/foo.rs", 21),
            ("LCL-D03", "crates/local/src/foo.rs", 27),
        ],
        "{}",
        report.human()
    );
    // The order-free `values().count()` fold is allowed.
    assert!(report
        .findings
        .iter()
        .all(|f| f.item != "Registry::size_is_fine"));
}

#[test]
fn crosscheck_churn_fixture_triggers_exact_rules_and_spans() {
    // `caterpillar` is declared and named by the mini churn suite (clean);
    // four families have no generator fn at all (anchored at line 1);
    // `spider` is declared but never named by a suite file (anchored at
    // its fn).
    let report = run_fixture("crosscheck_churn");
    assert_eq!(
        spans(&report),
        vec![
            ("LCL-X03", "crates/graph/src/generators.rs", 1),
            ("LCL-X03", "crates/graph/src/generators.rs", 1),
            ("LCL-X03", "crates/graph/src/generators.rs", 1),
            ("LCL-X03", "crates/graph/src/generators.rs", 1),
            ("LCL-X03", "crates/graph/src/generators.rs", 11),
        ],
        "{}",
        report.human()
    );
    let items: Vec<&str> = report.findings.iter().map(|f| f.item.as_str()).collect();
    assert_eq!(
        items,
        vec![
            "broom",
            "complete_ary_tree",
            "heavy_path_skewed",
            "ladder",
            "spider"
        ]
    );
}

#[test]
fn shardpath_fixture_triggers_exact_rules_and_spans() {
    // The packed store's entries in the same hot-path table: allocations
    // are `LCL-A01`, file I/O is `LCL-A04`.
    let report = run_fixture("shardpath");
    assert_eq!(
        spans(&report),
        vec![
            ("LCL-A01", "crates/shard/src/store.rs", 6),
            ("LCL-A01", "crates/shard/src/store.rs", 7),
            ("LCL-A04", "crates/shard/src/store.rs", 8),
            ("LCL-A04", "crates/shard/src/store.rs", 14),
            ("LCL-A01", "crates/shard/src/store.rs", 15),
        ],
        "{}",
        report.human()
    );
    assert_eq!(report.findings[0].item, "PackedRegion::stage");
    assert_eq!(report.findings[3].item, "capture_halos");
    // The between-passes helper and the `#[cfg(test)]` fn named
    // `capture_halos` are not reported: only the per-round fns are
    // policed, and never in test code.
    assert!(report.findings.iter().all(|f| f.item != "refill_residency"));
    assert_eq!(report.files_scanned, 1);
}

#[test]
fn crosscheck_shard_fixture_triggers_exact_rules_and_spans() {
    // The mini shard suite names every `ShardConfig` knob except
    // `max_resident`; `LCL-X05` must report exactly that one knob,
    // anchored at the suite file.
    let report = run_fixture("crosscheck_shard");
    assert_eq!(
        spans(&report),
        vec![("LCL-X05", "crates/harness/tests/shard_differential.rs", 1)],
        "{}",
        report.human()
    );
    assert_eq!(report.findings[0].item, "max_resident");
}

#[test]
fn crosscheck_service_fixture_triggers_exact_rules_and_spans() {
    // The mini round-trip suite names every wire tag except the
    // `overloaded` response kind; `LCL-X04` must report exactly that
    // one variant, anchored at the suite file.
    let report = run_fixture("crosscheck_service");
    assert_eq!(
        spans(&report),
        vec![("LCL-X04", "crates/service/tests/protocol_roundtrip.rs", 1)],
        "{}",
        report.human()
    );
    assert_eq!(report.findings[0].item, "overloaded");
}

#[test]
fn workspace_is_clean_modulo_shipped_baseline() {
    // The analyzer runs on this repository itself: the tree must stay
    // clean, every baseline entry must carry a justification, and no
    // entry may be stale. `workspace.rs` excludes `tests/fixtures/`, so
    // the known-bad fixtures above don't poison the self-run.
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root resolves");
    let baseline = root.join("ANALYSIS_BASELINE.txt");
    let report = analyze(&AnalysisConfig {
        root,
        baseline: Some(baseline),
    })
    .expect("self-analysis runs");
    assert!(
        report.is_clean(),
        "the workspace has unbaselined findings:\n{}",
        report.human()
    );
    assert!(
        report.stale_baseline.is_empty(),
        "stale baseline entries:\n{}",
        report.human()
    );
    assert!(report.files_scanned > 50, "suspiciously few files scanned");
}
