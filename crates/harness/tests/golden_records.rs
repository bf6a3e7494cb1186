//! Golden-record serialization tests.
//!
//! One small, fully deterministic [`RunRecord`] per landscape class (one
//! per registry algorithm, on its smallest spec, fixed seed) is checked in
//! as a JSON fixture under `tests/golden/`. The test re-runs each
//! algorithm and asserts *byte-stable* serialization, catching accidental
//! schema drift (field added/renamed/reordered), label-encoding drift, and
//! determinism drift (an algorithm whose output stops being a pure
//! function of its seed) in `report.rs`/`session.rs`-adjacent code.
//!
//! Regenerate after an intentional change with:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test -p lcl_harness --test golden_records
//! ```
//!
//! and review the fixture diff like any other code change.

use lcl_harness::{resolver, InstanceSpec, RunConfig};
use std::path::PathBuf;

/// Seed fixed for every golden run; `elapsed_ms` stays `0.0` because the
/// fixtures go through `Algorithm::run`, not `run_timed`.
const GOLDEN_SEED: u64 = 42;

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden")
}

#[test]
fn run_records_serialize_byte_stably() {
    let update = std::env::var_os("UPDATE_GOLDEN").is_some();
    let dir = golden_dir();
    if update {
        std::fs::create_dir_all(&dir).expect("create golden dir");
    }
    let mut failures = Vec::new();
    for algo in resolver().algorithms() {
        let spec = algo.smallest_spec();
        let instance = spec.build().expect("smallest spec builds");
        let record = algo
            .run(&instance, &RunConfig::seeded(GOLDEN_SEED))
            .expect("smallest spec runs");
        let mut json = serde_json::to_string(&record).expect("serializable");
        json.push('\n');
        let path = dir.join(format!("{}.json", algo.name()));
        if update {
            std::fs::write(&path, &json).expect("write fixture");
            continue;
        }
        let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
            panic!(
                "missing golden fixture {} ({e}); run with UPDATE_GOLDEN=1 to create it",
                path.display()
            )
        });
        if expected != json {
            failures.push(algo.name());
        }
    }
    assert!(
        failures.is_empty(),
        "RunRecord serialization drifted for {failures:?}; if intentional, \
         regenerate with UPDATE_GOLDEN=1 and review the fixture diff"
    );
}

/// One deterministic fixture per adversarial shape family, each run by a
/// free-tree solver that supports the `Adversarial` kind. Same
/// `UPDATE_GOLDEN=1` regeneration protocol as the registry fixtures.
fn adversarial_golden_cases() -> Vec<(&'static str, &'static str, InstanceSpec)> {
    vec![
        (
            "adversarial-caterpillar",
            "dfree-a",
            InstanceSpec::Caterpillar { spine: 6, legs: 2 },
        ),
        (
            "adversarial-ladder",
            "fast-decomposition",
            InstanceSpec::Ladder { rungs: 10 },
        ),
        (
            "adversarial-broom",
            "labeling-solver",
            InstanceSpec::Broom {
                spine: 8,
                bristles: 6,
            },
        ),
        (
            "adversarial-spider",
            "dfree-a",
            InstanceSpec::Spider {
                legs: 4,
                leg_len: 6,
            },
        ),
        (
            "adversarial-complete-ary",
            "fast-decomposition",
            InstanceSpec::CompleteAry {
                arity: 3,
                height: 3,
            },
        ),
        (
            "adversarial-heavy-path",
            "labeling-solver",
            InstanceSpec::HeavyPath { n: 48 },
        ),
    ]
}

#[test]
fn adversarial_records_serialize_byte_stably() {
    let update = std::env::var_os("UPDATE_GOLDEN").is_some();
    let dir = golden_dir();
    if update {
        std::fs::create_dir_all(&dir).expect("create golden dir");
    }
    let mut failures = Vec::new();
    for (fixture, algo_name, spec) in adversarial_golden_cases() {
        let algo = resolver().find(algo_name).expect("registered solver");
        let instance = spec.build().expect("adversarial spec builds");
        let record = algo
            .run(&instance, &RunConfig::seeded(GOLDEN_SEED))
            .unwrap_or_else(|e| panic!("{algo_name} on {}: {e}", spec.describe()));
        assert!(record.verified, "{fixture}: golden run must verify");
        let mut json = serde_json::to_string(&record).expect("serializable");
        json.push('\n');
        let path = dir.join(format!("{fixture}.json"));
        if update {
            std::fs::write(&path, &json).expect("write fixture");
            continue;
        }
        let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
            panic!(
                "missing golden fixture {} ({e}); run with UPDATE_GOLDEN=1 to create it",
                path.display()
            )
        });
        if expected != json {
            failures.push(fixture);
        }
    }
    assert!(
        failures.is_empty(),
        "adversarial RunRecord serialization drifted for {failures:?}; if \
         intentional, regenerate with UPDATE_GOLDEN=1 and review the fixture diff"
    );
}

#[test]
fn golden_runs_are_deterministic_across_repetition() {
    // The byte-stability of the fixtures relies on every algorithm being a
    // pure function of (spec, seed); check it directly for two runs in one
    // process (fresh instances, shared peeling cache).
    for algo in resolver().algorithms() {
        let spec = algo.smallest_spec();
        let a = algo
            .run(&spec.build().unwrap(), &RunConfig::seeded(GOLDEN_SEED))
            .unwrap();
        let b = algo
            .run(&spec.build().unwrap(), &RunConfig::seeded(GOLDEN_SEED))
            .unwrap();
        assert_eq!(a.labels, b.labels, "{} labels drift", algo.name());
        assert_eq!(a.rounds, b.rounds, "{} rounds drift", algo.name());
    }
}
