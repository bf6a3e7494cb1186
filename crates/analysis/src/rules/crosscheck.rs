//! `LCL-X01`…`X05`: invariant cross-checks between workspace layers.
//!
//! These rules do not inspect single files; they assert that artifacts
//! which must stay in lockstep actually do:
//!
//! - `LCL-X01`: every `Protocol` impl under
//!   `crates/algorithms/src/protocols/` is named by the differential
//!   suite (`crates/harness/tests/engine_differential.rs`) or by the
//!   harness adapters that the suite drives — an unexercised protocol
//!   has no bit-identity guarantee.
//! - `LCL-X02`: every `ProblemSpec` preset's `describe()` string
//!   appears in the plan-schema golden
//!   (`crates/bench/golden/plan_schema.txt`) — a preset missing from
//!   the golden is a preset the classifier gate never sees. The ground
//!   truth comes from `lcl_core` itself, so adding a preset without
//!   regenerating the golden fails `lcl analyze` immediately.
//! - `LCL-X03`: every adversarial topology family has a generator fn in
//!   `crates/graph/src/generators.rs` *and* is named (exact ident) by at
//!   least one churn-suite file — a family outside the churn
//!   differential and classify gates is adversarial in name only.
//! - `LCL-X04`: every `lcld` wire-protocol variant — each request op in
//!   [`lcl_service::protocol::REQUEST_OPS`] and each response kind in
//!   [`lcl_service::protocol::RESPONSE_KINDS`] — is named by the
//!   round-trip suite (`crates/service/tests/protocol_roundtrip.rs`).
//!   The ground truth comes from `lcl_service` itself, so adding a wire
//!   variant without extending the round-trip coverage fails
//!   `lcl analyze` immediately.
//! - `LCL-X05`: every `ShardConfig` knob — each entry of
//!   [`lcl_local::engine::SHARD_KNOBS`] — is named by the shard
//!   differential suite (`crates/harness/tests/shard_differential.rs`).
//!   A knob the suite never sweeps is an execution shape with no
//!   bit-identity guarantee against the monolithic engine.
//!
//! All checks no-op when their subject files are absent (the analyzer
//! fixtures are miniature workspaces without a harness or golden).

use crate::lexer::TokKind;
use crate::report::Finding;
use crate::workspace::SourceFile;
use lcl_core::ProblemSpec;
use std::collections::BTreeSet;
use std::fs;
use std::path::Path;

const PROTOCOLS_DIR: &str = "crates/algorithms/src/protocols/";
const DIFFERENTIAL: &str = "crates/harness/tests/engine_differential.rs";
const ADAPTERS: &str = "crates/harness/src/adapters.rs";
const PLAN_GOLDEN: &str = "crates/bench/golden/plan_schema.txt";
const GENERATORS: &str = "crates/graph/src/generators.rs";
const WIRE_SUITE: &str = "crates/service/tests/protocol_roundtrip.rs";
const SHARD_SUITE: &str = "crates/harness/tests/shard_differential.rs";
/// The files that together form the dynamic-churn gate surface: the
/// harness differential suite, the surgery property tests, and the bench
/// drivers. Naming a family in any one of them counts as coverage.
const CHURN_SUITES: &[&str] = &[
    "crates/harness/tests/churn_differential.rs",
    "crates/graph/tests/surgery_properties.rs",
    "crates/bench/src/churn.rs",
    "crates/bench/src/classify.rs",
];
/// The adversarial topology families, by generator fn name.
const ADVERSARIAL_FAMILIES: &[&str] = &[
    "broom",
    "caterpillar",
    "complete_ary_tree",
    "heavy_path_skewed",
    "ladder",
    "spider",
];

/// Runs the cross-checks over the scanned workspace.
pub fn check(files: &[SourceFile], root: &Path, findings: &mut Vec<Finding>) {
    check_protocol_coverage(files, findings);
    check_preset_coverage(files, root, findings);
    check_adversarial_coverage(files, findings);
    check_wire_coverage(files, findings);
    check_shard_knob_coverage(files, findings);
}

/// The names the `suites` among `files` spell: every identifier, plus
/// every string literal (quotes stripped) when `strings` is set. `None`
/// when no suite file was scanned, so the caller's check no-ops.
fn names_in(files: &[SourceFile], suites: &[&str], strings: bool) -> Option<BTreeSet<String>> {
    let mut named = BTreeSet::new();
    let mut scanned = false;
    for file in files.iter().filter(|f| suites.contains(&f.rel.as_str())) {
        scanned = true;
        for t in &file.toks {
            match t.kind {
                TokKind::Ident => {
                    named.insert(t.text.clone());
                }
                TokKind::Str if strings => {
                    named.insert(t.text.trim_matches('"').to_string());
                }
                _ => {}
            }
        }
    }
    scanned.then_some(named)
}

/// `LCL-X05`: every `ShardConfig` knob must be swept by the shard
/// differential suite. The ground truth is
/// [`lcl_local::engine::SHARD_KNOBS`] — the engine's own list of its
/// sharding knobs — so adding a knob to `ShardConfig` without teaching
/// the differential suite to vary it fails `lcl analyze` immediately.
fn check_shard_knob_coverage(files: &[SourceFile], findings: &mut Vec<Finding>) {
    // Knobs may be named via string literals (e.g. in a coverage ledger).
    let Some(named) = names_in(files, &[SHARD_SUITE], true) else {
        return;
    };
    for &knob in lcl_local::engine::SHARD_KNOBS {
        if !named.contains(knob) {
            findings.push(Finding {
                rule: "LCL-X05",
                file: SHARD_SUITE.to_string(),
                line: 1,
                col: 1,
                item: knob.to_string(),
                message: format!(
                    "`ShardConfig` knob `{knob}` is not named by the shard \
                     differential suite ({SHARD_SUITE}) — the knob has no \
                     bit-identity guarantee against the monolithic engine"
                ),
            });
        }
    }
}

/// `LCL-X04`: every wire-protocol variant must be round-tripped. The
/// suite names each covered variant by its wire tag (a string literal
/// in the coverage ledger); a tag in neither the suite's string
/// literals nor its idents is a variant that can silently drift from
/// the golden schema and from external clients.
fn check_wire_coverage(files: &[SourceFile], findings: &mut Vec<Finding>) {
    // String literals carry the wire tags (`"overloaded"`).
    let Some(named) = names_in(files, &[WIRE_SUITE], true) else {
        return;
    };
    let tags = lcl_service::protocol::REQUEST_OPS
        .iter()
        .map(|op| ("request op", *op))
        .chain(
            lcl_service::protocol::RESPONSE_KINDS
                .iter()
                .map(|kind| ("response kind", *kind)),
        );
    for (what, tag) in tags {
        if !named.contains(tag) {
            findings.push(Finding {
                rule: "LCL-X04",
                file: WIRE_SUITE.to_string(),
                line: 1,
                col: 1,
                item: tag.to_string(),
                message: format!(
                    "wire {what} `{tag}` is not named by the round-trip suite \
                     ({WIRE_SUITE}) — the variant has no serialization \
                     round-trip or golden-schema guarantee"
                ),
            });
        }
    }
}

fn check_protocol_coverage(files: &[SourceFile], findings: &mut Vec<Finding>) {
    let Some(exercised) = names_in(files, &[DIFFERENTIAL, ADAPTERS], false) else {
        return;
    };
    for file in files {
        if !file.rel.starts_with(PROTOCOLS_DIR) {
            continue;
        }
        for f in &file.model.fns {
            if f.in_test || f.name != "step" {
                continue;
            }
            let Some(ctx) = f.impl_ctx.as_ref() else {
                continue;
            };
            if ctx.trait_name.as_deref() != Some("Protocol") {
                continue;
            }
            if !exercised.contains(ctx.type_name.as_str()) {
                findings.push(Finding {
                    rule: "LCL-X01",
                    file: file.rel.clone(),
                    line: f.line,
                    col: f.col,
                    item: ctx.type_name.clone(),
                    message: format!(
                        "`Protocol` impl `{}` is not exercised by the engine \
                         differential suite ({DIFFERENTIAL}) or its adapters — \
                         it has no bit-identity guarantee across chunk sizes \
                         and thread counts",
                        ctx.type_name
                    ),
                });
            }
        }
    }
}

fn check_adversarial_coverage(files: &[SourceFile], findings: &mut Vec<Finding>) {
    let Some(generators) = files.iter().find(|f| f.rel == GENERATORS) else {
        return;
    };
    // Identifiers only: `crates/bench/src/classify.rs` spells family
    // names as string literals, which are not a generator call.
    let Some(exercised) = names_in(files, CHURN_SUITES, false) else {
        return;
    };
    for &family in ADVERSARIAL_FAMILIES {
        let Some(f) = generators
            .model
            .fns
            .iter()
            .find(|f| f.name == family && !f.in_test)
        else {
            findings.push(Finding {
                rule: "LCL-X03",
                file: generators.rel.clone(),
                line: 1,
                col: 1,
                item: family.to_string(),
                message: format!(
                    "adversarial family `{family}` has no generator fn in \
                     {GENERATORS} — the churn and classify suites treat it as \
                     a first-class topology"
                ),
            });
            continue;
        };
        if !exercised.contains(family) {
            findings.push(Finding {
                rule: "LCL-X03",
                file: generators.rel.clone(),
                line: f.line,
                col: f.col,
                item: family.to_string(),
                message: format!(
                    "adversarial generator `{family}` is not named by any \
                     churn-suite file ({}) — the family is outside the \
                     dynamic-churn differential and classify gates",
                    CHURN_SUITES.join(", ")
                ),
            });
        }
    }
}

fn check_preset_coverage(files: &[SourceFile], root: &Path, findings: &mut Vec<Finding>) {
    // Only meaningful when analyzing the real workspace: the preset
    // registry file must be among the scanned sources and the golden on
    // disk.
    if !files
        .iter()
        .any(|f| f.rel == "crates/core/src/problem_spec.rs")
    {
        return;
    }
    let Ok(golden) = fs::read_to_string(root.join(PLAN_GOLDEN)) else {
        return;
    };
    for (name, spec) in ProblemSpec::presets() {
        let needle = format!("problem={}", spec.describe());
        if !golden.contains(&needle) {
            findings.push(Finding {
                rule: "LCL-X02",
                file: PLAN_GOLDEN.to_string(),
                line: 1,
                col: 1,
                item: name.to_string(),
                message: format!(
                    "preset `{name}` (`{needle}`) is missing from the \
                     plan-schema golden — regenerate it by piping \
                     `lcl solve <preset> | grep '^PLAN '` for every preset \
                     into {PLAN_GOLDEN} (see the CI golden-diff step) so \
                     the classifier gate covers the preset"
                ),
            });
        }
    }
}
