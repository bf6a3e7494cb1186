//! Metric names, units and the result line.
//!
//! Every run prints one metric set: the end-to-end metrics when untraced,
//! every per-layer metric when traced. A layer a workload does not exercise
//! reports `0`.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics and their units.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("jobs_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p99_ms", "ms"),
];

/// Solvers whose adapters solve structurally before the engine replays the
/// plan: the `prepare` layer.
pub const PREPARE_SOLVERS: &[&str] = &[
    "dfree-a",
    "labeling-solver",
    "fast-decomposition",
    "apoly",
    "a35",
    "weight-augmented",
    "generic-coloring",
    "path-lcl",
];

/// Every solver, each with its own verifier.
pub const VERIFY_SOLVERS: &[&str] = &[
    "two-coloring",
    "linial",
    "randomized",
    "dfree-a",
    "labeling-solver",
    "fast-decomposition",
    "apoly",
    "a35",
    "weight-augmented",
    "generic-coloring",
    "path-lcl",
];

/// Per-layer metrics and their units, in report order.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> = Vec::new();
    let mut add = |name: &str, unit: &'static str| out.push((name.to_string(), unit));
    add("engine.busy_ms", "ms");
    add("engine.rounds", "count");
    add("engine.us_per_round", "us");
    add("engine.node_rounds", "count");
    add("engine.ns_per_node_round", "ns");
    add("engine.messages", "count");
    add("engine.messages_per_node_round", "ratio");
    add("engine.peak_arena_mb", "MiB");
    add("prepare.busy_ms", "ms");
    for s in PREPARE_SOLVERS {
        add(&format!("prepare.{s}.ms"), "ms");
    }
    add("instance.busy_ms", "ms");
    add("instance.build_ms", "ms");
    add("instance.levels_ms", "ms");
    add("instance.nodes_built", "count");
    add("instance.cache_hit_rate", "ratio");
    add("instance.levels_cache_hit_rate", "ratio");
    add("verify.busy_ms", "ms");
    for s in VERIFY_SOLVERS {
        add(&format!("verify.{s}.ms"), "ms");
    }
    add("encode.record_ms", "ms");
    add("encode.record_bytes", "bytes");
    add("encode.wire_ms", "ms");
    add("encode.wire_bytes", "bytes");
    add("planner.calls", "count");
    add("planner.busy_ms", "ms");
    add("planner.cache_hit_rate", "ratio");
    add("service.busy_ms", "ms");
    add("service.run_ms_p50", "ms");
    add("service.run_ms_p99", "ms");
    add("service.overhead_ms_p50", "ms");
    add("service.overhead_ms_p99", "ms");
    for (preset, _) in lcl_core::problem_spec::ProblemSpec::presets() {
        add(&format!("service.latency_p50_ms.{preset}"), "ms");
    }
    add("service.overloaded_retries", "count");
    add("trace.overhead_pct", "%");
    add("trace.unattributed_ms", "ms");
    add("error_rate", "ratio");
    out
}

/// Metric values of one run.
#[derive(Debug, Clone, Default)]
pub struct Metrics {
    values: BTreeMap<String, f64>,
}

impl Metrics {
    /// Sets `name` to `value`.
    pub fn set(&mut self, name: &str, value: f64) {
        self.values.insert(
            name.to_string(),
            if value.is_finite() { value } else { 0.0 },
        );
    }

    /// The value of `name`, `0` when unset.
    pub fn get(&self, name: &str) -> f64 {
        self.values.get(name).copied().unwrap_or(0.0)
    }
}

/// The result line: exactly `correct`, `attempted`, `failed` and `metrics`,
/// the latter holding every metric of `names` (unset ones as `0`).
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    names: &[(String, &str)],
    metrics: &Metrics,
) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{",
        attempted.max(1)
    );
    for (i, (name, unit)) in names.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            number(metrics.get(name))
        );
    }
    out.push_str("}}");
    out
}

/// A JSON number with every digit of `x` (shortest round-trip form).
pub fn number(x: f64) -> String {
    if !x.is_finite() {
        return "0".into();
    }
    if x.fract() == 0.0 && x.abs() < 1e15 {
        format!("{}", x as i64)
    } else {
        format!("{x}")
    }
}

/// The end-to-end names as owned strings.
pub fn end_to_end() -> Vec<(String, &'static str)> {
    END_TO_END
        .iter()
        .map(|(n, u)| (n.to_string(), *u))
        .collect()
}
