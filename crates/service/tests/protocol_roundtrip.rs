//! Property tests for the `lcld` wire protocol: every request/response
//! variant must round-trip through JSON-lines bit-exactly, tolerate
//! unknown fields (forward compatibility), reject garbage with typed
//! errors, and match the checked-in golden schema.
//!
//! This file is also the coverage ledger the analyzer's LCL-X04
//! cross-check scans: every tag in `REQUEST_OPS` and `RESPONSE_KINDS`
//! must appear below.

use lcl_core::problem_spec::{BwTable, PathTable, ProblemRegime, ProblemSpec};
use lcl_harness::CacheStats;
use lcl_service::protocol::{
    fnv1a_u64s, schema_lines, schema_samples, DEFAULT_N, DEFAULT_SEED, ERROR_KINDS, REQUEST_OPS,
    RESPONSE_KINDS,
};
use lcl_service::{ErrorKind, Request, Response, ServiceStats, WireRecord};
use proptest::prelude::*;
use serde::{Serialize, Value};
use std::path::Path;

/// Expands a seed into a canonical random path table (same shape as the
/// core crate's property suite).
fn path_table_from_seed(seed: u64) -> PathTable {
    let labels = (seed % 5 + 1) as usize;
    let mut bits = seed / 5;
    let mut allowed = Vec::new();
    for a in 0..labels as u8 {
        for b in a..labels as u8 {
            if bits & 1 == 1 {
                allowed.push((a, b));
            }
            bits >>= 1;
        }
    }
    let mut ends = Vec::new();
    for l in 0..labels as u8 {
        if bits & 1 == 1 {
            ends.push(l);
        }
        bits >>= 1;
    }
    PathTable::new(labels, allowed, ends)
}

/// Expands a seed into a random black-white table.
fn bw_table_from_seed(seed: u64) -> BwTable {
    let out_labels = (seed % 3 + 1) as u8;
    let max_degree = (seed / 3 % 2 + 2) as usize;
    let mut bits = seed / 6;
    let side = |bits: &mut u64| {
        let mut sets = Vec::new();
        for len in 1..=max_degree {
            for first in 0..out_labels {
                if *bits & 1 == 1 {
                    let m: Vec<u8> = (0..len).map(|i| (first + i as u8) % out_labels).collect();
                    sets.push(m);
                }
                *bits >>= 1;
            }
        }
        sets
    };
    let white = side(&mut bits);
    let black = side(&mut bits);
    BwTable::new(out_labels, max_degree, white, black)
}

/// An arbitrary spec, valid or not (callers `prop_assume!` validity when
/// they need it).
fn spec_from(variant: u8, seed: u64) -> ProblemSpec {
    match variant % 8 {
        0 => ProblemSpec::Path(path_table_from_seed(seed)),
        1 => ProblemSpec::Coloring {
            colors: (seed % 300) as usize,
        },
        2 => ProblemSpec::Bw(bw_table_from_seed(seed)),
        3 => ProblemSpec::HierarchicalColoring {
            k: (seed % 20) as usize,
        },
        4 => ProblemSpec::Weighted {
            regime: if seed & 1 == 0 {
                ProblemRegime::Poly
            } else {
                ProblemRegime::LogStar
            },
            delta: (seed / 2 % 9) as usize,
            d: (seed / 18 % 5) as usize,
            k: (seed / 90 % 20) as usize,
        },
        5 => ProblemSpec::WeightAugmented {
            k: (seed % 20) as usize,
        },
        6 => ProblemSpec::DfreeWeight {
            d: (seed % 5) as usize,
            anchored: seed & 1 == 1,
        },
        _ => ProblemSpec::HierarchicalLabeling {
            k: (seed % 20) as usize,
        },
    }
}

/// An exactly-representable float from integer sixteenths, so text
/// round trips are bit-exact.
fn sixteenth(raw: u32) -> f64 {
    f64::from(raw % 4096) / 16.0
}

fn record_from(seed: u64, detail: bool) -> WireRecord {
    let labels: Vec<u64> = (0..(seed % 20))
        .map(|i| (seed.wrapping_mul(31 + i)) % 7)
        .collect();
    let rounds: Vec<u64> = labels.iter().map(|&l| l + seed % 11).collect();
    WireRecord {
        algorithm: format!("algo-{}", seed % 11),
        spec: format!("path({})", seed % 4096),
        problem: "3-coloring on paths".into(),
        n: seed % 100_000,
        seed,
        node_averaged: sixteenth(seed as u32),
        worst_case: seed % 64,
        median_round: seed % 32,
        waiting_averaged: sixteenth((seed / 7) as u32),
        verified: seed & 1 == 0,
        engine: "chunked".into(),
        elapsed_ms: sixteenth((seed / 3) as u32),
        peak_arena_bytes: seed % 1_000_000,
        plan_cached: seed & 2 == 0,
        labels_fnv: fnv1a_u64s(&labels),
        rounds_fnv: fnv1a_u64s(&rounds),
        labels: detail.then(|| labels.clone()),
        rounds: detail.then_some(rounds),
    }
}

fn stats_from(seed: u64) -> ServiceStats {
    let cache = |s: u64| CacheStats {
        hits: s % 100,
        misses: s / 100 % 100,
        entries: (s % 8) as usize,
        capacity: 8 + (s % 56) as usize,
    };
    ServiceStats {
        workers: seed % 16 + 1,
        queue_capacity: seed % 256 + 1,
        queue_depth: seed % 64,
        jobs_ok: seed % 10_000,
        jobs_failed: seed % 97,
        overloaded: seed % 13,
        plan_cache: cache(seed),
        instance_cache: cache(seed / 3),
        peeling_cache: cache(seed / 7),
    }
}

/// Injects an unknown field into a JSON object value.
fn with_unknown_field(value: Value) -> Value {
    match value {
        Value::Object(mut fields) => {
            fields.push(("x-future-extension".into(), Value::UInt(42)));
            Value::Object(fields)
        }
        other => other,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn requests_round_trip(variant in 0u8..8, seed in any::<u64>(), id in any::<u64>(), pick in 0u8..4) {
        let spec = spec_from(variant, seed);
        prop_assume!(spec.validate().is_ok());
        let request = match pick {
            0 => Request::Classify { id, problem: spec },
            1 => Request::Solve {
                id,
                problem: spec,
                n: (seed % 1_000_000) as usize,
                seed,
                detail: seed & 1 == 1,
                // Shard knobs cycle through present/absent so the wire
                // round-trip covers both encodings.
                shards: (seed % 3 == 0).then_some(seed % 9),
                max_resident: (seed % 5 == 0).then_some(seed % 4),
                packing: (seed % 2 == 0).then_some(seed % 4 == 0),
            },
            2 => Request::Stats { id },
            _ => Request::Shutdown { id },
        };
        let line = request.to_line();
        prop_assert!(!line.contains('\n'), "JSON-lines framing broken: {line}");
        let parsed = Request::from_line(&line).expect("own rendering must parse");
        prop_assert_eq!(parsed, request);
    }

    #[test]
    fn responses_round_trip(seed in any::<u64>(), id in any::<u64>(), pick in 0u8..6) {
        let response = match pick {
            0 => Response::Plan {
                id,
                problem: format!("problem-{}", seed % 97),
                class: "Θ(log* n)".into(),
                source: "path-automaton".into(),
                solver: "linial".into(),
                score: seed % 101,
                cached: seed & 1 == 1,
            },
            1 => Response::Record { id, record: record_from(seed, seed & 4 == 0) },
            2 => Response::Stats { id, stats: stats_from(seed) },
            3 => Response::Done { id },
            4 => Response::Error {
                id: (seed & 1 == 1).then_some(id),
                kind: ErrorKind::from_tag(ERROR_KINDS[(seed % ERROR_KINDS.len() as u64) as usize])
                    .expect("every listed kind parses"),
                message: format!("detail {}", seed % 1000),
            },
            _ => Response::Overloaded { id: (seed & 1 == 1).then_some(id), queue_capacity: seed % 4096 },
        };
        let line = response.to_line();
        prop_assert!(!line.contains('\n'), "JSON-lines framing broken: {line}");
        let parsed = Response::from_line(&line).expect("own rendering must parse");
        prop_assert_eq!(parsed, response);
    }

    #[test]
    fn records_stream_like_their_tree(seed in any::<u64>(), id in any::<u64>()) {
        let record = record_from(seed, seed & 4 == 0);
        let streamed = serde_json::to_string(&record).expect("serializable");
        prop_assert_eq!(&streamed, &serde_json::to_string(&record.to_value()).expect("serializable"));
        let response = Response::Record { id, record };
        let line = response.to_line();
        prop_assert_eq!(&line, &serde_json::to_string(&response).expect("serializable"));
        prop_assert!(line.ends_with(&format!("\"record\":{streamed}}}")), "record not embedded as streamed: {line}");
    }

    #[test]
    fn unknown_fields_are_tolerated(variant in 0u8..8, seed in any::<u64>(), id in any::<u64>()) {
        let spec = spec_from(variant, seed);
        prop_assume!(spec.validate().is_ok());
        let request = Request::Solve {
            id,
            problem: spec,
            n: (seed % 100_000) as usize,
            seed,
            detail: false,
            shards: None,
            max_resident: None,
            packing: None,
        };
        // Unknown fields at the top level AND inside the problem object.
        let Value::Object(mut fields) = request.to_value() else {
            panic!("requests serialize to objects");
        };
        for (key, value) in &mut fields {
            if key == "problem" {
                *value = with_unknown_field(value.clone());
            }
        }
        let decorated = with_unknown_field(Value::Object(fields));
        let line = serde_json::to_string(&decorated).expect("serializable");
        let parsed = Request::from_line(&line).expect("unknown fields must be ignored");
        prop_assert_eq!(parsed, request);
    }

    #[test]
    fn garbage_yields_typed_wire_errors(seed in any::<u64>()) {
        // Truncate a valid request mid-line: must error, never panic.
        let full = Request::Stats { id: seed }.to_line();
        let cut = (seed % full.len() as u64) as usize;
        let mut truncated = full.clone();
        truncated.truncate(cut);
        if truncated != full {
            prop_assert!(Request::from_line(&truncated).is_err());
        }
        // Arbitrary non-JSON bytes (lossy-decoded) must error too.
        let garbage = format!("\u{fffd}garbage-{seed}{{{{");
        prop_assert!(Request::from_line(&garbage).is_err());
        prop_assert!(Response::from_line(&garbage).is_err());
    }
}

/// The explicit per-variant ledger: one value per `op`/`kind`, asserted
/// against the protocol's own tag constants. LCL-X04 scans this file for
/// the literals `"classify"`, `"solve"`, `"stats"`, `"shutdown"`,
/// `"plan"`, `"record"`, `"done"`, `"error"`, `"overloaded"`.
#[test]
fn every_wire_variant_round_trips_here() {
    let problem = ProblemSpec::preset("3-coloring").expect("known preset");
    let requests: Vec<(&str, Request)> = vec![
        (
            "classify",
            Request::Classify {
                id: 1,
                problem: problem.clone(),
            },
        ),
        (
            "solve",
            Request::Solve {
                id: 2,
                problem,
                n: 800,
                seed: 7,
                detail: true,
                shards: Some(4),
                max_resident: Some(2),
                packing: Some(true),
            },
        ),
        ("stats", Request::Stats { id: 3 }),
        ("shutdown", Request::Shutdown { id: 4 }),
    ];
    let covered: Vec<&str> = requests.iter().map(|(tag, _)| *tag).collect();
    assert_eq!(covered, REQUEST_OPS, "request ledger out of sync");
    for (tag, request) in requests {
        assert_eq!(request.op(), tag);
        assert_eq!(
            Request::from_line(&request.to_line()).expect("round trips"),
            request
        );
    }
    let responses: Vec<(&str, Response)> = vec![
        (
            "plan",
            Response::Plan {
                id: 1,
                problem: "3-coloring on paths".into(),
                class: "Θ(log* n)".into(),
                source: "path-automaton".into(),
                solver: "linial".into(),
                score: 80,
                cached: true,
            },
        ),
        (
            "record",
            Response::Record {
                id: 2,
                record: record_from(99, true),
            },
        ),
        (
            "stats",
            Response::Stats {
                id: 3,
                stats: stats_from(42),
            },
        ),
        ("done", Response::Done { id: 4 }),
        (
            "error",
            Response::Error {
                id: Some(5),
                kind: ErrorKind::BadRequest,
                message: "malformed JSON".into(),
            },
        ),
        (
            "overloaded",
            Response::Overloaded {
                id: Some(6),
                queue_capacity: 64,
            },
        ),
    ];
    let covered: Vec<&str> = responses.iter().map(|(tag, _)| *tag).collect();
    assert_eq!(covered, RESPONSE_KINDS, "response ledger out of sync");
    for (tag, response) in responses {
        assert_eq!(response.kind(), tag);
        assert_eq!(
            Response::from_line(&response.to_line()).expect("round trips"),
            response
        );
    }
    // Every error kind round-trips through its tag.
    for tag in ERROR_KINDS {
        let kind = ErrorKind::from_tag(tag).expect("listed kind parses");
        assert_eq!(kind.tag(), *tag);
    }
}

#[test]
fn preset_names_are_accepted_for_problem() {
    let line = r#"{"op":"solve","id":9,"problem":"bw-all-equal"}"#;
    let parsed = Request::from_line(line).expect("preset name parses");
    let Request::Solve {
        id,
        problem,
        n,
        seed,
        detail,
        shards,
        max_resident,
        packing,
    } = parsed
    else {
        panic!("wrong variant");
    };
    assert_eq!(id, 9);
    assert_eq!(
        problem,
        ProblemSpec::preset("bw-all-equal").expect("known preset")
    );
    assert_eq!(n, DEFAULT_N);
    assert_eq!(seed, DEFAULT_SEED);
    assert!(!detail);
    assert_eq!((shards, max_resident, packing), (None, None, None));
    let err = Request::from_line(r#"{"op":"solve","id":9,"problem":"no-such"}"#).unwrap_err();
    assert_eq!(err.id, Some(9), "id must be recovered for attribution");
    assert!(err.message.contains("unknown preset"), "{}", err.message);
}

#[test]
fn schema_matches_the_checked_in_golden() {
    let emitted: Vec<String> = schema_lines()
        .into_iter()
        .map(|l| format!("SCHEMA {l}"))
        .collect();
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../bench/golden/service_schema.txt");
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "golden service schema missing at {} ({e}); regenerate with \
             `lcl serve --schema > crates/bench/golden/service_schema.txt`",
            path.display()
        )
    });
    let golden_lines: Vec<&str> = golden.lines().filter(|l| !l.is_empty()).collect();
    assert_eq!(
        golden_lines,
        emitted.iter().map(String::as_str).collect::<Vec<_>>(),
        "service wire schema drifted; regenerate with \
         `lcl serve --schema > crates/bench/golden/service_schema.txt`"
    );
}

/// The exact bytes of every wire sample and every preset spec. The schema
/// golden above is a sorted set of paths, so only this pins key order and
/// the omission of unset shard fields. Regenerate after an intentional
/// wire change with
/// `UPDATE_GOLDEN=1 cargo test -p lcl_service --test protocol_roundtrip`.
#[test]
fn wire_and_spec_bytes_match_the_checked_in_golden() {
    let mut emitted = Vec::new();
    for (name, value) in schema_samples() {
        let text = serde_json::to_string(&value).expect("serializable");
        let line = if name.starts_with("req.") {
            Request::from_line(&text).expect("sample parses").to_line()
        } else {
            Response::from_line(&text).expect("sample parses").to_line()
        };
        emitted.push(format!("{name} {line}"));
    }
    let defaults = Request::Solve {
        id: 2,
        problem: ProblemSpec::Coloring { colors: 3 },
        n: 800,
        seed: 7,
        detail: false,
        shards: None,
        max_resident: None,
        packing: None,
    };
    emitted.push(format!("req.solve.defaults {}", defaults.to_line()));
    let summary = Response::Record {
        id: 2,
        record: record_from(7, false),
    };
    emitted.push(format!("resp.record.summary {}", summary.to_line()));
    let anonymous = [
        Response::Error {
            id: None,
            kind: ErrorKind::BadRequest,
            message: "malformed JSON".into(),
        },
        Response::Overloaded {
            id: None,
            queue_capacity: 64,
        },
    ];
    for response in anonymous {
        emitted.push(format!(
            "resp.{}.no-id {}",
            response.kind(),
            response.to_line()
        ));
    }
    for (name, spec) in ProblemSpec::presets() {
        let json = serde_json::to_string(&spec).expect("serializable");
        emitted.push(format!("spec.{name} {json}"));
    }
    let fixture = Path::new(env!("CARGO_MANIFEST_DIR")).join("../bench/fixtures/custom_path.json");
    let text = std::fs::read_to_string(&fixture).expect("fixture is checked in");
    let value = serde_json::from_str(&text).expect("fixture is JSON");
    let spec = ProblemSpec::from_value(&value).expect("fixture is a spec");
    let json = serde_json::to_string(&spec).expect("serializable");
    emitted.push(format!("spec.custom_path.json {json}"));

    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../bench/golden/wire_lines.txt");
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, emitted.join("\n") + "\n").expect("write golden");
        return;
    }
    let golden = std::fs::read_to_string(&path).expect("golden wire lines are checked in");
    assert_eq!(
        golden.lines().collect::<Vec<_>>(),
        emitted.iter().map(String::as_str).collect::<Vec<_>>(),
        "wire or spec bytes drifted"
    );
}
