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
//!
//! The fixtures pin the streamed encoding (`serde_json::to_string`, which
//! writes through `Serialize::write_json`). The record's `Value` tree is
//! the parse of that stream; a property test below holds rendering the
//! tree byte-equal to the stream, over records full of edge values:
//! extreme integers, non-finite floats, escaped strings. A second
//! property holds the record's summary (node average, worst case, median,
//! histogram) to its per-node definitions.

use lcl_harness::{resolver, InstanceSpec, RoundBin, RunConfig, RunRecord};
use proptest::prelude::*;
use proptest::TestRng;
use serde::Serialize;
use std::collections::BTreeMap;
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
        assert_eq!(
            json,
            serde_json::to_string(&record.to_value()).expect("serializable"),
            "{}: streamed and tree encodings differ",
            algo.name()
        );
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

/// Fixtures pinned on an explicit spec rather than on a solver's smallest
/// one: one per adversarial shape family, each run by a free-tree solver
/// that supports the `Adversarial` kind, and the three weighted solvers at
/// hierarchy depth k = 3, which the registry fixtures pin only at k = 2
/// (the weight-augmented solver also at Δ = 4, k = 4, whose weight
/// components it extracts as standalone trees).
/// Same `UPDATE_GOLDEN=1` regeneration protocol as the registry fixtures.
fn spec_golden_cases() -> Vec<(&'static str, &'static str, InstanceSpec)> {
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
        (
            "apoly-k3",
            "apoly",
            InstanceSpec::WeightedPoly {
                n: 2_000,
                delta: 5,
                d: 2,
                k: 3,
            },
        ),
        (
            "a35-k3",
            "a35",
            InstanceSpec::WeightedLogStar {
                n: 2_000,
                delta: 6,
                d: 3,
                k: 3,
            },
        ),
        (
            "weight-augmented-k3",
            "weight-augmented",
            InstanceSpec::WeightedUnit {
                n: 2_000,
                delta: 5,
                k: 3,
            },
        ),
        (
            "weight-augmented-d4-k4",
            "weight-augmented",
            InstanceSpec::WeightedUnit {
                n: 2_000,
                delta: 4,
                k: 4,
            },
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
    for (fixture, algo_name, spec) in spec_golden_cases() {
        let algo = resolver().find(algo_name).expect("registered solver");
        let instance = spec.build().expect("golden spec builds");
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
        "spec-pinned RunRecord serialization drifted for {failures:?}; if \
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

/// An integer that is often an edge of the digit writer or of `u64`.
fn edge_u64(rng: &mut TestRng) -> u64 {
    const EDGES: [u64; 12] = [
        0,
        1,
        9,
        10,
        99,
        100,
        99_999_999,
        100_000_000,
        1 << 60,
        (1 << 60) | 12_345,
        u64::MAX - 1,
        u64::MAX,
    ];
    let r = rng.next_u64();
    match r % 4 {
        0 => EDGES[(r >> 8) as usize % EDGES.len()],
        1 => r >> (r % 64),
        _ => r >> 48,
    }
}

/// A float that is often non-finite, signed zero, or large enough for
/// exponent form.
fn edge_f64(rng: &mut TestRng) -> f64 {
    const EDGES: [f64; 12] = [
        f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
        -0.0,
        0.0,
        1e300,
        -1e15,
        1e15,
        999_999_999_999_999.0,
        f64::MIN_POSITIVE,
        f64::MAX,
        0.1,
    ];
    let r = rng.next_u64();
    match r % 3 {
        0 => EDGES[(r >> 8) as usize % EDGES.len()],
        1 => f64::from_bits(rng.next_u64()),
        _ => rng.unit_f64() * 1e6,
    }
}

/// A string of fragments that need escaping, or multi-byte encoding, or
/// neither.
fn edge_string(rng: &mut TestRng) -> String {
    const PIECES: [&str; 12] = [
        "two-coloring",
        "\"",
        "\\",
        "\n",
        "\r\t",
        "\u{0}",
        "\u{1f}",
        "\u{7f}",
        "é",
        "日本",
        "🦀",
        "path(20000)",
    ];
    let len = rng.next_u64() % 6;
    (0..len)
        .map(|_| PIECES[rng.next_u64() as usize % PIECES.len()])
        .collect()
}

fn arbitrary_record(rng: &mut TestRng) -> RunRecord {
    let n = (rng.next_u64() % 40) as usize;
    let labels = (0..n).map(|_| edge_u64(rng)).collect();
    let rounds = (0..n).map(|_| edge_u64(rng)).collect();
    let bins = rng.next_u64() % 4;
    RunRecord {
        algorithm: edge_string(rng),
        spec: edge_string(rng),
        n,
        seed: edge_u64(rng),
        labels,
        rounds,
        node_averaged: edge_f64(rng),
        worst_case: edge_u64(rng),
        median_round: edge_u64(rng),
        histogram: (0..bins)
            .map(|_| RoundBin {
                round: edge_u64(rng),
                count: edge_u64(rng),
            })
            .collect(),
        waiting_averaged: edge_f64(rng),
        verified: rng.next_u64() & 1 == 1,
        engine: edge_string(rng),
        elapsed_ms: edge_f64(rng),
        peak_arena_bytes: edge_u64(rng),
        engine_nodes_per_sec: edge_f64(rng),
    }
}

/// Per-node termination rounds: `1..=300` nodes, every round below
/// `2^17`, drawn all equal, sparse (mostly round 0 with a few late
/// nodes), clustered in a narrow band, or spread uniformly.
fn arbitrary_rounds(rng: &mut TestRng) -> Vec<u64> {
    const CAP: u64 = 1 << 17;
    let n = 1 + (rng.next_u64() % 300) as usize;
    match rng.next_u64() % 4 {
        0 => vec![rng.next_u64() % CAP; n],
        1 => (0..n)
            .map(|_| {
                if rng.next_u64().is_multiple_of(16) {
                    rng.next_u64() % CAP
                } else {
                    0
                }
            })
            .collect(),
        2 => {
            let base = rng.next_u64() % (CAP - 8);
            (0..n).map(|_| base + rng.next_u64() % 8).collect()
        }
        _ => (0..n).map(|_| rng.next_u64() % CAP).collect(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn record_summary_matches_per_node_definitions(seed in any::<u64>()) {
        let rounds = arbitrary_rounds(&mut TestRng::new(seed));
        let n = rounds.len();
        let record = RunRecord::from_rounds(
            "two-coloring",
            &InstanceSpec::Path { n },
            seed,
            vec![0; n],
            rounds.clone(),
            None,
            false,
        );
        // The node average divides the exact sum by `n`.
        let total: u128 = rounds.iter().map(|&r| u128::from(r)).sum();
        prop_assert_eq!(
            record.node_averaged.to_bits(),
            (total as f64 / n as f64).to_bits()
        );
        prop_assert_eq!(record.worst_case, *rounds.iter().max().expect("n >= 1"));
        // The median is the `⌈n/2⌉`-th smallest round.
        let mut sorted = rounds.clone();
        sorted.sort_unstable();
        prop_assert_eq!(record.median_round, sorted[n.div_ceil(2) - 1]);
        let mut counts: BTreeMap<u64, u64> = BTreeMap::new();
        for &r in &rounds {
            *counts.entry(r).or_insert(0) += 1;
        }
        let histogram: Vec<RoundBin> = counts
            .into_iter()
            .map(|(round, count)| RoundBin { round, count })
            .collect();
        prop_assert_eq!(&record.histogram, &histogram);
    }

    #[test]
    fn streamed_records_match_their_tree(seed in any::<u64>()) {
        let record = arbitrary_record(&mut TestRng::new(seed));
        let streamed = serde_json::to_string(&record).expect("serializable");
        let tree = serde_json::to_string(&record.to_value()).expect("serializable");
        prop_assert_eq!(&streamed, &tree);
        prop_assert!(serde_json::from_str(&streamed).is_ok(), "invalid JSON: {streamed}");
    }
}
