//! Production-scale sweeps on the chunked LOCAL engine, and the CI perf
//! gates.
//!
//! `lcl sweep --scale <preset>` runs every registry algorithm at large
//! `n`, end-to-end on the chunked engine — since the engine-native port
//! there is no other execution path, and the event-driven scheduler makes
//! even the `Θ(n)`-round algorithms feasible (a sleeping node costs
//! nothing; work tracks messages, not `rounds × nodes`). Every measured
//! point in the emitted `bench-results/BENCH_engine.json` carries a real
//! `engine_ms` and its `engine_nodes_per_sec` throughput; the document
//! also compares per-node wall-clock of the scaled pipeline against the
//! checked-in `BENCH_sweep.json` baseline.
//!
//! [`perf_gate`] is the CI gate: it re-runs one mid-size instance per
//! landscape class against `BENCH_sweep.json` (wall-clock factor and
//! node-averaged drift), then re-runs the committed `BENCH_engine.json`
//! points and fails when any `(spec, seed)` throughput regresses by more
//! than the same factor.

use crate::report::{f1, f3, save_json, Table};
use lcl_harness::{resolver, run_timed, InstanceSpec, RunConfig, ScaleConfig, Session};
use lcl_local::engine::{EngineConfig, ShardConfig};
use serde::{Serialize, Value};

/// One suite entry: algorithm plus its canonical scale instance.
struct ScaleEntry {
    algorithm: &'static str,
    /// Whether the million-node acceptance instance applies: the
    /// algorithms whose worst-case round count is `O(log n)` or better
    /// must clear a `10^6`-node end-to-end engine run in the `ci` and
    /// `full` presets.
    million: bool,
    spec: fn(usize) -> InstanceSpec,
}

/// The scale suite: every registry algorithm on its canonical large-`n`
/// family, so `BENCH_engine.json` reports engine throughput for the whole
/// registry. Weighted-construction instances are parameter-bound gadget
/// families — still size-swept here, just at their canonical `(Δ, d, k)`.
fn suite() -> Vec<ScaleEntry> {
    vec![
        ScaleEntry {
            algorithm: "two-coloring",
            million: false,
            spec: |n| InstanceSpec::Path { n },
        },
        ScaleEntry {
            algorithm: "linial",
            million: true,
            spec: |n| InstanceSpec::Path { n },
        },
        ScaleEntry {
            algorithm: "randomized",
            million: true,
            spec: |n| InstanceSpec::Path { n },
        },
        ScaleEntry {
            algorithm: "path-lcl",
            million: false,
            spec: |n| InstanceSpec::Path { n },
        },
        ScaleEntry {
            algorithm: "generic-coloring",
            million: false,
            spec: |n| InstanceSpec::Theorem11 { n, k: 2 },
        },
        ScaleEntry {
            algorithm: "labeling-solver",
            million: false,
            spec: |n| InstanceSpec::RandomTree {
                n,
                max_degree: 4,
                seed: 7,
            },
        },
        ScaleEntry {
            algorithm: "dfree-a",
            million: true,
            spec: |n| InstanceSpec::RandomTree {
                n,
                max_degree: 4,
                seed: 11,
            },
        },
        ScaleEntry {
            algorithm: "fast-decomposition",
            million: true,
            spec: |n| InstanceSpec::BalancedWeight { w: n, delta: 4 },
        },
        ScaleEntry {
            algorithm: "apoly",
            million: false,
            spec: |n| InstanceSpec::WeightedPoly {
                n,
                delta: 5,
                d: 2,
                k: 2,
            },
        },
        ScaleEntry {
            algorithm: "a35",
            million: false,
            spec: |n| InstanceSpec::WeightedLogStar {
                n,
                delta: 6,
                d: 3,
                k: 2,
            },
        },
        ScaleEntry {
            algorithm: "weight-augmented",
            million: false,
            spec: |n| InstanceSpec::WeightedUnit { n, delta: 5, k: 2 },
        },
    ]
}

/// Names of the available presets.
#[must_use]
pub fn preset_names() -> &'static [&'static str] {
    &["smoke", "ci", "full", "huge"]
}

/// Sizes for a preset: `(ladder, acceptance_n_for_log_class)`.
fn preset_sizes(preset: &str) -> Option<(Vec<usize>, Option<usize>)> {
    match preset {
        // Fast end-to-end exercise of the whole suite.
        "smoke" => Some((vec![50_000], None)),
        // Mid-size ladder plus the acceptance bar: a 1,000,000-node
        // random tree through a Θ(log n)-class algorithm on the engine.
        "ci" => Some((vec![250_000], Some(1_000_000))),
        "full" => Some((vec![1_000_000], Some(1_000_000))),
        // The out-of-core acceptance preset: only the log-class
        // algorithms, at 10,000,000 nodes, through the sharded executor
        // (defaults to more shards than resident arenas — see
        // [`run_scale`]) so the full arena set never has to fit at once.
        "huge" => Some((vec![], Some(10_000_000))),
        _ => None,
    }
}

/// One measured point of the scale sweep.
#[derive(Debug, Clone, Serialize)]
struct ScalePoint {
    /// Registry algorithm name.
    algorithm: String,
    /// Rendered instance spec.
    spec: String,
    /// The size the suite requested (what [`perf_gate`] rebuilds from).
    requested_n: usize,
    /// Actual node count.
    n: usize,
    /// Run seed.
    seed: u64,
    /// Node-averaged rounds.
    node_averaged: f64,
    /// Node-averaged rounds over the waiting mass.
    waiting_averaged: f64,
    /// Median termination round.
    median_round: u64,
    /// Worst-case rounds.
    worst_case: u64,
    /// Wall-clock of the engine-native run (ms) — always real; there is
    /// no other execution path.
    engine_ms: f64,
    /// Engine throughput: nodes processed per second of wall-clock.
    engine_nodes_per_sec: f64,
    /// Peak resident arena footprint (bytes): the residency high-water
    /// mark plus halo buffers under the sharded executor, the full
    /// double-buffered arena otherwise. Deterministic per `(spec, seed,
    /// engine config)`.
    peak_arena_bytes: u64,
}

/// Per-algorithm comparison against the `BENCH_sweep.json` baseline.
#[derive(Debug, Clone, Serialize)]
struct BaselineComparison {
    /// Registry algorithm name.
    algorithm: String,
    /// Largest baseline instance size.
    baseline_n: usize,
    /// Baseline wall-clock at that size (ms).
    baseline_ms: f64,
    /// Largest scale-suite size.
    scale_n: usize,
    /// Scale-suite wall-clock at that size (ms).
    scale_ms: f64,
    /// Baseline milliseconds per 1000 nodes.
    baseline_ms_per_knode: f64,
    /// Scale-suite milliseconds per 1000 nodes.
    scale_ms_per_knode: f64,
    /// `baseline_ms_per_knode / scale_ms_per_knode`; > 1 means the scaled
    /// pipeline is cheaper per node than the 40k-baseline pipeline.
    per_node_speedup: f64,
}

/// The emitted `BENCH_engine.json` document.
#[derive(Debug, Clone, Serialize)]
struct EngineBench {
    /// Preset name.
    preset: String,
    /// Chunk size used for engine runs (0 = engine default).
    chunk_size: usize,
    /// Engine worker threads (0 = auto).
    threads: usize,
    /// Shard count of the partitioned executor (0 = monolithic engine,
    /// no sharding).
    shards: usize,
    /// Resident-arena limit of the sharded executor (0 = all resident).
    max_resident: usize,
    /// Whether message arenas were bit-packed via protocol hints.
    packing: bool,
    /// All measured points.
    points: Vec<ScalePoint>,
    /// Comparison against `BENCH_sweep.json`, when that file is present.
    baseline_comparison: Vec<BaselineComparison>,
}

const SCALE_SEED: u64 = 7;

fn nodes_per_sec(n: usize, elapsed_ms: f64) -> f64 {
    n as f64 / (elapsed_ms.max(1e-6) / 1_000.0)
}

fn run_one(
    algorithm: &str,
    spec: InstanceSpec,
    engine: &EngineConfig,
) -> Result<lcl_harness::RunRecord, String> {
    let cfg = RunConfig::seeded(SCALE_SEED).with_engine(engine.clone());
    let mut session = Session::new().scale(ScaleConfig {
        // One instance resident at a time and one job at a time:
        // timings stay honest and memory stays O(n).
        threads: 1,
        max_resident_instances: 1,
    });
    session
        .push(algorithm, spec, cfg)
        .map_err(|e| e.to_string())?;
    let mut records = session.run().map_err(|e| e.to_string())?;
    Ok(records.remove(0))
}

/// Runs the scale suite for `preset` and writes
/// `bench-results/BENCH_engine.json`.
///
/// `shard` selects the partitioned out-of-core executor for every run;
/// `None` keeps the monolithic engine — except under the `huge` preset,
/// which defaults to an out-of-core configuration (6 shards, 2 resident,
/// packing on) so the acceptance point genuinely runs with
/// `max_resident < shards`.
///
/// # Errors
///
/// Unknown presets and any harness error.
pub fn run_scale(
    preset: &str,
    chunk_size: usize,
    threads: usize,
    shard: Option<ShardConfig>,
) -> Result<(), String> {
    let (sizes, acceptance_n) = preset_sizes(preset)
        .ok_or_else(|| format!("unknown scale preset `{preset}` (smoke|ci|full|huge)"))?;
    let shard = shard.or_else(|| {
        (preset == "huge").then_some(ShardConfig {
            shards: 6,
            max_resident: 2,
            packing: true,
        })
    });
    let engine_cfg = EngineConfig {
        chunk_size,
        threads,
        check_arena: false,
        shard: shard.clone(),
    };
    let mut table = Table::new(
        format!("Scale sweep — preset `{preset}`"),
        &[
            "algorithm",
            "n",
            "node-avg",
            "worst",
            "engine ms",
            "knodes/s",
            "peak MiB",
        ],
    );
    let mut points = Vec::new();
    for entry in suite() {
        let mut entry_sizes = sizes.clone();
        // The acceptance instance: a million-node (`ci`/`full`) or
        // ten-million-node (`huge`) tree end-to-end on the engine for
        // every log-class algorithm.
        if let Some(acceptance_n) = acceptance_n {
            if entry.million && !entry_sizes.contains(&acceptance_n) {
                entry_sizes.push(acceptance_n);
            }
        }
        for &requested_n in &entry_sizes {
            let spec = (entry.spec)(requested_n);
            let record = run_one(entry.algorithm, spec, &engine_cfg)?;
            let throughput = nodes_per_sec(record.n, record.elapsed_ms);
            table.row(&[
                entry.algorithm.to_string(),
                record.n.to_string(),
                f3(record.node_averaged),
                record.worst_case.to_string(),
                f1(record.elapsed_ms),
                f1(throughput / 1_000.0),
                f1(record.peak_arena_bytes as f64 / (1024.0 * 1024.0)),
            ]);
            points.push(ScalePoint {
                algorithm: entry.algorithm.to_string(),
                spec: record.spec.clone(),
                requested_n,
                n: record.n,
                seed: record.seed,
                node_averaged: record.node_averaged,
                waiting_averaged: record.waiting_averaged,
                median_round: record.median_round,
                worst_case: record.worst_case,
                engine_ms: record.elapsed_ms,
                engine_nodes_per_sec: throughput,
                peak_arena_bytes: record.peak_arena_bytes,
            });
        }
    }
    table.print();
    let baseline_comparison = compare_against_baseline(&points);
    save_json(
        "BENCH_engine",
        &EngineBench {
            preset: preset.to_string(),
            chunk_size,
            threads,
            shards: shard.as_ref().map_or(0, |s| s.shards),
            max_resident: shard.as_ref().map_or(0, |s| s.max_resident),
            packing: shard.as_ref().is_some_and(|s| s.packing),
            points,
            baseline_comparison,
        },
    );
    Ok(())
}

fn load_baseline() -> Option<Value> {
    let text = std::fs::read_to_string("bench-results/BENCH_sweep.json").ok()?;
    serde_json::from_str(&text).ok()
}

/// For every scale-suite algorithm present in the baseline, compares
/// per-node wall-clock at the largest size of each.
fn compare_against_baseline(points: &[ScalePoint]) -> Vec<BaselineComparison> {
    let Some(baseline) = load_baseline() else {
        return Vec::new();
    };
    let Some(reports) = baseline.get("reports").and_then(Value::as_array) else {
        return Vec::new();
    };
    let mut out = Vec::new();
    for report in reports {
        let Some(name) = report.get("algorithm").and_then(Value::as_str) else {
            continue;
        };
        let Some(scale_point) = points
            .iter()
            .filter(|p| p.algorithm == name)
            .max_by_key(|p| p.n)
        else {
            continue;
        };
        let Some(base_point) = report
            .get("points")
            .and_then(Value::as_array)
            .and_then(|pts| {
                pts.iter()
                    .max_by_key(|p| p.get("n").and_then(Value::as_f64).unwrap_or(0.0) as usize)
            })
        else {
            continue;
        };
        let baseline_n = base_point.get("n").and_then(Value::as_f64).unwrap_or(0.0) as usize;
        let baseline_ms = base_point
            .get("elapsed_ms")
            .and_then(Value::as_f64)
            .unwrap_or(0.0);
        if baseline_n == 0 || baseline_ms <= 0.0 {
            continue;
        }
        let baseline_per = baseline_ms / (baseline_n as f64 / 1_000.0);
        let scale_per = scale_point.engine_ms / (scale_point.n as f64 / 1_000.0);
        out.push(BaselineComparison {
            algorithm: name.to_string(),
            baseline_n,
            baseline_ms,
            scale_n: scale_point.n,
            scale_ms: scale_point.engine_ms,
            baseline_ms_per_knode: baseline_per,
            scale_ms_per_knode: scale_per,
            per_node_speedup: baseline_per / scale_per.max(1e-9),
        });
    }
    out
}

/// The committed-throughput gate: re-runs every `BENCH_engine.json` point
/// (same spec, same seed, the baseline's own chunk size and thread count)
/// and fails when nodes/sec regresses by more than `threshold`×.
///
/// Million-node acceptance points are skipped to keep the gate CI-cheap;
/// the skip is reported, never silent.
fn throughput_gate(threshold: f64) -> Result<(), String> {
    const GATE_MAX_N: usize = 250_000;
    let text = std::fs::read_to_string("bench-results/BENCH_engine.json")
        .map_err(|e| format!("cannot read bench-results/BENCH_engine.json: {e}"))?;
    let baseline =
        serde_json::from_str(&text).map_err(|e| format!("cannot parse BENCH_engine.json: {e}"))?;
    // A sharded baseline is re-measured sharded: the gate compares the
    // executor that produced the committed numbers, not the monolithic
    // engine. `shards = 0` (or a pre-sharding baseline) means monolithic,
    // the same mapping `lcl sweep --shards` used to write the header.
    let shard = ShardConfig::from_flags(
        baseline
            .get("shards")
            .and_then(Value::as_f64)
            .unwrap_or(0.0) as usize,
        baseline
            .get("max_resident")
            .and_then(Value::as_f64)
            .unwrap_or(0.0) as usize,
        baseline
            .get("packing")
            .and_then(Value::as_bool)
            .unwrap_or(false),
    );
    let engine_cfg = EngineConfig {
        chunk_size: baseline
            .get("chunk_size")
            .and_then(Value::as_f64)
            .unwrap_or(0.0) as usize,
        threads: baseline
            .get("threads")
            .and_then(Value::as_f64)
            .unwrap_or(0.0) as usize,
        check_arena: false,
        shard,
    };
    let points = baseline
        .get("points")
        .and_then(Value::as_array)
        .ok_or("BENCH_engine.json has no `points`")?;
    let entries = suite();

    let mut table = Table::new(
        format!("Engine throughput gate — threshold {threshold}x vs BENCH_engine.json"),
        &["algorithm", "n", "base kn/s", "now kn/s", "ratio", "status"],
    );
    let mut failures = Vec::new();
    let mut skipped = 0usize;
    for point in points {
        let name = point
            .get("algorithm")
            .and_then(Value::as_str)
            .ok_or("BENCH_engine.json point without `algorithm`")?;
        let requested_n = point
            .get("requested_n")
            .and_then(Value::as_f64)
            .ok_or_else(|| format!("no `requested_n` for `{name}` in BENCH_engine.json"))?
            as usize;
        let baseline_nps = point
            .get("engine_nodes_per_sec")
            .and_then(Value::as_f64)
            .ok_or_else(|| format!("no `engine_nodes_per_sec` for `{name}`"))?;
        if requested_n > GATE_MAX_N {
            skipped += 1;
            continue;
        }
        let entry = entries
            .iter()
            .find(|e| e.algorithm == name)
            .ok_or_else(|| format!("`{name}` from BENCH_engine.json is not in the scale suite"))?;
        let record = run_one(name, (entry.spec)(requested_n), &engine_cfg)?;
        let fresh_nps = nodes_per_sec(record.n, record.elapsed_ms);
        let ratio = baseline_nps / fresh_nps.max(1e-9);
        let ok = ratio <= threshold;
        if !ok {
            failures.push(format!("{name} ({ratio:.2}x slower)"));
        }
        table.row(&[
            name.to_string(),
            record.n.to_string(),
            f1(baseline_nps / 1_000.0),
            f1(fresh_nps / 1_000.0),
            f3(ratio),
            if ok { "ok" } else { "FAILED" }.to_string(),
        ]);
    }
    table.print();
    if skipped > 0 {
        println!("throughput gate: skipped {skipped} point(s) above n = {GATE_MAX_N} (acceptance instances, not CI-gated)");
    }
    if failures.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "engine throughput gate failed (> {threshold}x below BENCH_engine.json): {}",
            failures.join(", ")
        ))
    }
}

/// The CI perf gate. Two stages, both against committed baselines:
///
/// 1. **Wall-clock and behavior** vs `BENCH_sweep.json`: one mid-size
///    instance per landscape class (every registry algorithm at the
///    baseline ladder's smallest size), failing beyond `threshold`×
///    regression. The baseline's node-averaged rounds are carried forward
///    too: every algorithm is a pure function of `(spec, seed)`, so a
///    fresh run whose node-averaged count drifts from the baseline means
///    its *behavior* changed, not just its speed — the gate fails on any
///    relative drift beyond float-printing noise.
/// 2. **Engine throughput** vs `BENCH_engine.json`: every committed scale
///    point re-measured, failing when nodes/sec regresses beyond
///    `threshold`×.
///
/// 3. **Service throughput and latency** vs `BENCH_service.json`: the
///    `lcld` load generator re-run at the baseline's scale, failing when
///    jobs/sec or p99 latency regresses beyond `threshold`×.
///
/// # Errors
///
/// Missing/unreadable baselines, harness errors, any algorithm regressing
/// beyond the threshold, or any node-averaged drift.
pub fn perf_gate(threshold: f64) -> Result<(), String> {
    let text = std::fs::read_to_string("bench-results/BENCH_sweep.json")
        .map_err(|e| format!("cannot read bench-results/BENCH_sweep.json: {e}"))?;
    let baseline =
        serde_json::from_str(&text).map_err(|e| format!("cannot parse BENCH_sweep.json: {e}"))?;
    let sizes = baseline
        .get("sizes")
        .and_then(Value::as_array)
        .ok_or("BENCH_sweep.json has no `sizes`")?;
    let mid = sizes
        .iter()
        .filter_map(Value::as_f64)
        .map(|x| x as usize)
        .min()
        .ok_or("BENCH_sweep.json has empty `sizes`")?;
    let reports = baseline
        .get("reports")
        .and_then(Value::as_array)
        .ok_or("BENCH_sweep.json has no `reports`")?;

    let mut table = Table::new(
        format!("Perf smoke gate — n = {mid}, threshold {threshold}x"),
        &[
            "algorithm",
            "baseline ms",
            "now ms",
            "ratio",
            "node-avg",
            "status",
        ],
    );
    let mut failures = Vec::new();
    for algo in resolver().algorithms() {
        let report = reports
            .iter()
            .find(|r| r.get("algorithm").and_then(Value::as_str) == Some(algo.name()));
        let Some(report) = report else {
            return Err(format!("`{}` missing from BENCH_sweep.json", algo.name()));
        };
        // The baseline ran seed = requested size, so the mid-size point is
        // the one whose seed equals `mid`.
        let base_point = report
            .get("points")
            .and_then(Value::as_array)
            .and_then(|pts| {
                pts.iter().find(|p| {
                    p.get("seed").and_then(Value::as_f64).map(|s| s as usize) == Some(mid)
                })
            })
            .ok_or_else(|| format!("no mid-size baseline point for `{}`", algo.name()))?;
        let baseline_ms = base_point
            .get("elapsed_ms")
            .and_then(Value::as_f64)
            .ok_or_else(|| format!("no baseline elapsed_ms for `{}`", algo.name()))?;
        let baseline_avg = base_point
            .get("node_averaged")
            .and_then(Value::as_f64)
            .ok_or_else(|| format!("no baseline node_averaged for `{}`", algo.name()))?;
        let cfg = RunConfig::default();
        let spec = algo.default_spec(mid, &cfg);
        let instance = spec.build().map_err(|e| e.to_string())?;
        let fresh = run_timed(*algo, &instance, &RunConfig::seeded(mid as u64))
            .map_err(|e| e.to_string())?;
        // Sub-millisecond baselines are all noise; clamp the denominator.
        let ratio = fresh.elapsed_ms / baseline_ms.max(1.0);
        // Node-averaged rounds are deterministic per (spec, seed); any
        // drift beyond the baseline's float-printing precision means the
        // algorithm's behavior changed and the baseline must be
        // regenerated intentionally.
        let avg_drift = (fresh.node_averaged - baseline_avg).abs() / baseline_avg.abs().max(1e-12);
        let avg_ok = avg_drift <= 1e-9;
        let ok = ratio <= threshold && avg_ok;
        if !ok {
            failures.push(if avg_ok {
                format!("{} ({ratio:.2}x)", algo.name())
            } else {
                format!(
                    "{} (node-avg {} vs baseline {baseline_avg})",
                    algo.name(),
                    fresh.node_averaged
                )
            });
        }
        table.row(&[
            algo.name().to_string(),
            f1(baseline_ms),
            f1(fresh.elapsed_ms),
            f3(ratio),
            if avg_ok { "ok" } else { "DRIFTED" }.to_string(),
            if ok { "ok" } else { "FAILED" }.to_string(),
        ]);
    }
    table.print();
    if !failures.is_empty() {
        return Err(format!(
            "perf smoke gate failed (> {threshold}x of BENCH_sweep.json): {}",
            failures.join(", ")
        ));
    }
    throughput_gate(threshold)?;
    crate::service_bench::service_gate(threshold)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_resolve() {
        for name in preset_names() {
            assert!(preset_sizes(name).is_some(), "{name}");
        }
        assert!(preset_sizes("nope").is_none());
    }

    #[test]
    fn suite_covers_the_whole_registry() {
        let mut suite_names: Vec<&str> = suite().iter().map(|e| e.algorithm).collect();
        suite_names.sort_unstable();
        let mut registry_names: Vec<&str> =
            resolver().algorithms().iter().map(|a| a.name()).collect();
        registry_names.sort_unstable();
        assert_eq!(
            suite_names, registry_names,
            "every registry algorithm must report engine throughput"
        );
    }

    #[test]
    fn suite_names_resolve_in_registry() {
        for entry in suite() {
            let algo = resolver()
                .find(entry.algorithm)
                .expect("suite algorithm registered");
            let spec = (entry.spec)(4_096);
            assert!(algo.supports(spec.kind()), "{}", entry.algorithm);
        }
    }

    #[test]
    fn json_navigation_helpers() {
        let v = serde_json::from_str(r#"{"a": [1, 2.5], "s": "x"}"#).unwrap();
        assert_eq!(v.get("s").and_then(Value::as_str), Some("x"));
        let arr = v.get("a").and_then(Value::as_array).unwrap();
        assert_eq!(arr[0].as_f64(), Some(1.0));
        assert_eq!(arr[1].as_f64(), Some(2.5));
        assert!(v.get("missing").is_none());
    }
}
