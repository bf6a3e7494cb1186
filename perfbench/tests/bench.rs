//! The benchmark's own checks, on the tiny scale of every workload:
//! every metric `BENCHMARK.json` names is emitted with its unit, a
//! corrupted pin is counted as a failed job, and every traced span lies
//! inside its parent.

use serde::Value;
use std::path::{Path, PathBuf};
use std::process::Command;

const WORKLOADS: &[&str] = &["sparse-tail", "dense-rounds", "structural", "service-mix"];

fn field<'a>(value: &'a Value, key: &str) -> &'a Value {
    match value {
        Value::Object(entries) => entries
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
            .unwrap_or_else(|| panic!("missing `{key}`")),
        other => panic!("`{key}` looked up in a non-object {other:?}"),
    }
}

fn text(value: &Value) -> &str {
    match value {
        Value::Str(s) => s,
        other => panic!("expected a string, got {other:?}"),
    }
}

fn number(value: &Value) -> f64 {
    match value {
        Value::Float(x) => *x,
        Value::UInt(u) => *u as f64,
        Value::Int(i) => *i as f64,
        other => panic!("expected a number, got {other:?}"),
    }
}

fn items(value: &Value) -> &[Value] {
    match value {
        Value::Array(v) => v,
        other => panic!("expected an array, got {other:?}"),
    }
}

fn manifest_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// A scratch directory of this test's own.
fn scratch(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

/// Runs the tiny scale of `workload` and returns the parsed result line.
fn run(workload: &str, trace: bool, out: &Path, pins: Option<&Path>) -> Value {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_perfbench"));
    cmd.args([
        "--workload",
        workload,
        "--seed",
        "5",
        "--seconds",
        "0.2",
        "--tiny",
    ])
    .args(["--trace", if trace { "1" } else { "0" }])
    .arg("--out")
    .arg(out);
    if let Some(p) = pins {
        cmd.arg("--pins").arg(p);
    }
    let output = cmd.output().expect("benchmark runs");
    assert!(
        output.status.success(),
        "{workload}: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    let stdout = String::from_utf8(output.stdout).expect("utf-8 output");
    let last = stdout.lines().last().expect("a result line");
    serde_json::from_str(last).expect("the result line is JSON")
}

fn benchmark_json() -> Value {
    let text = std::fs::read_to_string(manifest_dir().join("../BENCHMARK.json"))
        .expect("BENCHMARK.json beside the package");
    serde_json::from_str(&text).expect("BENCHMARK.json parses")
}

#[test]
fn every_named_metric_is_emitted_with_its_unit() {
    let spec = benchmark_json();
    let named: Vec<&str> = items(field(&spec, "workloads"))
        .iter()
        .map(|w| text(field(w, "name")))
        .collect();
    assert_eq!(named, WORKLOADS);
    let out = scratch("emitted");
    for workload in WORKLOADS {
        for (trace, list) in [(false, "end_to_end"), (true, "per_layer")] {
            let result = run(workload, trace, &out, None);
            assert!(
                matches!(field(&result, "correct"), Value::Bool(true)),
                "{workload}: {result:?}"
            );
            assert_eq!(number(field(&result, "failed")), 0.0, "{workload}");
            assert!(number(field(&result, "attempted")) >= 1.0);
            let metrics = field(&result, "metrics");
            let Value::Object(emitted) = metrics else {
                panic!("metrics is an object")
            };
            let wanted = items(field(&spec, list));
            assert_eq!(emitted.len(), wanted.len(), "{workload} {list}");
            for m in wanted {
                let name = text(field(m, "name"));
                let got = field(metrics, name);
                assert_eq!(text(field(got, "unit")), text(field(m, "unit")), "{name}");
                assert!(number(field(got, "value")).is_finite(), "{name}");
            }
        }
    }
}

/// Rewrites every pin whose key contains `marker` with a wrong worst case.
fn corrupt_pins(marker: &str, to: &Path) {
    let pins = std::fs::read_to_string(manifest_dir().join("expected/pins.json")).expect("pins");
    let corrupted: String = pins
        .lines()
        .map(|line| {
            if line.contains(marker) {
                line.replacen("\"worst_case\": ", "\"worst_case\": 9", 1)
            } else {
                line.to_string()
            }
        })
        .collect::<Vec<_>>()
        .join("\n");
    assert_ne!(
        pins.trim(),
        corrupted.trim(),
        "marker `{marker}` matched no pin"
    );
    std::fs::write(to, corrupted).expect("write corrupted pins");
}

#[test]
fn a_corrupted_pin_raises_the_error_rate() {
    let out = scratch("corrupted");
    for (workload, marker) in [
        ("sparse-tail", "sparse-tail/two-coloring/path/n=300/"),
        ("service-mix", "service-mix/2-coloring/n=300/"),
    ] {
        let pins = out.join(format!("pins-{workload}.json"));
        corrupt_pins(marker, &pins);
        let untraced = run(workload, false, &out, Some(&pins));
        assert!(number(field(&untraced, "failed")) > 0.0, "{workload}");
        assert!(matches!(field(&untraced, "correct"), Value::Bool(false)));
        let traced = run(workload, true, &out, Some(&pins));
        let error_rate = number(field(
            field(field(&traced, "metrics"), "error_rate"),
            "value",
        ));
        assert!(error_rate > 0.0, "{workload}: error_rate {error_rate}");
    }
}

#[test]
fn every_span_lies_inside_its_parent() {
    let out = scratch("spans");
    for workload in WORKLOADS {
        let result = run(workload, true, &out, None);
        assert!(matches!(field(&result, "correct"), Value::Bool(true)));
        let file = out.join(format!("trace-{workload}-5.jsonl"));
        let body = std::fs::read_to_string(&file).expect("span file");
        let spans: Vec<Value> = body
            .lines()
            .filter(|l| l.starts_with("{\"i\":"))
            .map(|l| serde_json::from_str(l).expect("span line"))
            .collect();
        assert!(!spans.is_empty(), "{workload}: no spans");
        for span in &spans {
            let (start, end) = (
                number(field(span, "start_ns")),
                number(field(span, "end_ns")),
            );
            assert!(start <= end, "{workload}: {span:?}");
            if let Value::UInt(p) = field(span, "parent") {
                let parent = &spans[*p as usize];
                assert!(
                    number(field(parent, "start_ns")) <= start
                        && end <= number(field(parent, "end_ns")),
                    "{workload}: {span:?} escapes {parent:?}"
                );
            }
        }
    }
}
