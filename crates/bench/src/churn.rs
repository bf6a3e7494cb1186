//! Dynamic-tree churn benchmarks over [`DynamicSession`] workloads.
//!
//! `lcl churn --scale <preset>` drives a matrix of (solver, base, script)
//! churn sessions, prints one deterministic `CHURN ...` line per session
//! (no wall-clock in the line — its content is a pure function of the
//! preset), and writes `bench-results/BENCH_churn.json`, whose schema is
//! golden-diffed like the sweep figures (`--schema` prints `SCHEMA `
//! lines against `crates/bench/golden/churn_schema.txt`).
//!
//! Every preset also runs the *headline* workload: `linial` on a long
//! path with insert/delete-only batches, comparing the dirty-region
//! incremental re-solve wall-clock against a from-scratch re-solve of the
//! same post-batch tree (which doubles as a differential check — spliced
//! labels and rounds must be bit-identical to the baseline). On the
//! gated presets (`ci`, `full`) the path is a million nodes, each batch
//! churns 1% of it, and the incremental path must *win* — a speedup
//! `<= 1` fails the run.

use crate::report::{f1, save_json, Table};
use lcl_core::churn::ChurnScript;
use lcl_harness::{DynamicSession, InstanceSpec, RunConfig};
use lcl_service::protocol::fnv1a_u64s;
use serde::{Serialize, Value};

/// Seed shared by every churn-bench session, so the emitted `CHURN`
/// lines and checksums are reproducible across runs and machines.
const CHURN_SEED: u64 = 7;

/// One churn preset: matrix sizes, script volume, and the headline
/// workload's shape.
#[derive(Debug, Clone, Copy)]
pub struct ChurnScale {
    /// Preset name (`tiny`, `smoke`, `ci`, `full`).
    pub name: &'static str,
    /// Path length for the plain-path matrix bases.
    matrix_path_n: usize,
    /// Batches per matrix script.
    script_batches: usize,
    /// Operations per matrix batch.
    script_ops: usize,
    /// Headline path length.
    headline_n: usize,
    /// Headline operations per batch (1% of the path on gated presets).
    headline_ops: usize,
    /// Headline batch count.
    headline_batches: usize,
    /// Whether the incremental-vs-full speedup is enforced (`> 1` or the
    /// run fails).
    pub gate: bool,
}

/// Names of the available churn presets.
#[must_use]
pub fn preset_names() -> &'static [&'static str] {
    &["tiny", "smoke", "ci", "full"]
}

/// Resolves a churn preset by name.
#[must_use]
pub fn churn_scale(preset: &str) -> Option<ChurnScale> {
    match preset {
        // Debug-build friendly: the CLI smoke test runs this one.
        "tiny" => Some(ChurnScale {
            name: "tiny",
            matrix_path_n: 600,
            script_batches: 2,
            script_ops: 12,
            headline_n: 4_000,
            headline_ops: 40,
            headline_batches: 1,
            gate: false,
        }),
        "smoke" => Some(ChurnScale {
            name: "smoke",
            matrix_path_n: 2_000,
            script_batches: 2,
            script_ops: 24,
            headline_n: 50_000,
            headline_ops: 500,
            headline_batches: 2,
            gate: false,
        }),
        // The acceptance bar: a million-node path, 1% churn per batch,
        // incremental re-solve must beat the from-scratch re-solve.
        "ci" => Some(ChurnScale {
            name: "ci",
            matrix_path_n: 4_000,
            script_batches: 3,
            script_ops: 32,
            headline_n: 1_000_000,
            headline_ops: 10_000,
            headline_batches: 2,
            gate: true,
        }),
        "full" => Some(ChurnScale {
            name: "full",
            matrix_path_n: 8_000,
            script_batches: 3,
            script_ops: 64,
            headline_n: 1_000_000,
            headline_ops: 10_000,
            headline_batches: 3,
            gate: true,
        }),
        _ => None,
    }
}

/// The session matrix: one churn-appropriate base per representative
/// solver class — the two genuinely incremental local solvers, the Θ(n)
/// global baseline, the three free-tree solvers on adversarial shapes,
/// and one construction-bound solver riding parameter mode. (The full
/// 11-solver differential sweep lives in the harness test suite; the
/// bench matrix is about reporting, not coverage.)
fn matrix(scale: &ChurnScale) -> Vec<(&'static str, InstanceSpec)> {
    let n = scale.matrix_path_n;
    vec![
        // Θ(n) global: every batch is a full re-solve, so keep it short.
        ("two-coloring", InstanceSpec::Path { n: n / 4 }),
        ("linial", InstanceSpec::Path { n }),
        ("randomized", InstanceSpec::Path { n }),
        ("generic-coloring", InstanceSpec::Theorem11 { n: 400, k: 2 }),
        (
            "dfree-a",
            InstanceSpec::Spider {
                legs: 4,
                leg_len: 16,
            },
        ),
        (
            "fast-decomposition",
            InstanceSpec::Caterpillar { spine: 24, legs: 2 },
        ),
        ("labeling-solver", InstanceSpec::HeavyPath { n: 120 }),
    ]
}

/// One matrix session's report row.
#[derive(Debug, Clone, Serialize)]
struct ChurnSessionRow {
    /// Registry algorithm name.
    algorithm: String,
    /// Churn script name.
    script: String,
    /// Rendered base spec.
    base: String,
    /// Batches applied.
    batches: usize,
    /// Operations per batch.
    ops_per_batch: usize,
    /// Node count before the first batch.
    n_initial: usize,
    /// Node count after the last batch.
    n_final: usize,
    /// Batches that took the dirty-region incremental path.
    incremental_batches: usize,
    /// Total nodes recomputed across batches.
    dirty_total: usize,
    /// Total region nodes extracted across batches.
    region_total: usize,
    /// FNV-1a of the final labels (hex), deterministic per preset.
    label_checksum: String,
}

/// The headline incremental-vs-full measurement.
#[derive(Debug, Clone, Serialize)]
struct ChurnHeadline {
    /// Registry algorithm name.
    algorithm: String,
    /// Churn script name.
    script: String,
    /// Path length before churn.
    n_initial: usize,
    /// Node count after the last batch.
    n_final: usize,
    /// Batches applied.
    batches: usize,
    /// Operations per batch.
    ops_per_batch: usize,
    /// Batches that took the dirty-region incremental path.
    incremental_batches: usize,
    /// Summed wall-clock of the incremental re-solves (ms) — region
    /// extraction, region runs, splice; surgery excluded on both sides.
    incremental_resolve_ms: f64,
    /// Summed wall-clock of the from-scratch baseline re-solves (ms).
    full_resolve_ms: f64,
    /// `full_resolve_ms / incremental_resolve_ms`; the gated presets
    /// require `> 1`.
    speedup: f64,
    /// Whether this preset enforces the speedup gate.
    gated: bool,
}

/// The emitted `BENCH_churn.json` document.
#[derive(Debug, Clone, Serialize)]
struct ChurnBench {
    /// Preset name.
    preset: String,
    /// One row per matrix session.
    sessions: Vec<ChurnSessionRow>,
    /// The incremental-vs-full headline.
    headline: ChurnHeadline,
}

/// Runs the churn suite for `preset`, writes
/// `bench-results/BENCH_churn.json`, and returns its value model (the
/// CLI prints `SCHEMA` lines from it under `--schema`).
///
/// # Errors
///
/// Unknown presets, any harness error, a headline divergence between the
/// spliced state and its baseline, and — on gated presets — an
/// incremental speedup `<= 1` or a headline that never spliced.
pub fn run_churn(preset: &str) -> Result<Value, String> {
    let scale = churn_scale(preset)
        .ok_or_else(|| format!("unknown churn preset `{preset}` (tiny|smoke|ci|full)"))?;
    let mut table = Table::new(
        format!("Churn sessions — preset `{preset}`"),
        &[
            "algorithm",
            "script",
            "n",
            "batches",
            "incr",
            "dirty",
            "region",
            "checksum",
        ],
    );
    let mut sessions = Vec::new();
    for (algorithm, base) in matrix(&scale) {
        for script in ChurnScript::presets() {
            let script = script.with_volume(scale.script_batches, scale.script_ops);
            let mut session = DynamicSession::new(
                algorithm,
                base.clone(),
                script.clone(),
                RunConfig::seeded(CHURN_SEED),
            )
            .map_err(|e| format!("{algorithm} × {}: {e}", script.name))?;
            let n_initial = session.node_count();
            let outcomes = session
                .run_script()
                .map_err(|e| format!("{algorithm} × {}: {e}", script.name))?;
            let row = ChurnSessionRow {
                algorithm: algorithm.to_string(),
                script: script.name.clone(),
                base: base.describe(),
                batches: outcomes.len(),
                ops_per_batch: script.ops_per_batch,
                n_initial,
                n_final: session.node_count(),
                incremental_batches: outcomes.iter().filter(|o| o.incremental).count(),
                dirty_total: outcomes.iter().map(|o| o.dirty).sum(),
                region_total: outcomes.iter().map(|o| o.region).sum(),
                label_checksum: format!("{:016x}", fnv1a_u64s(session.labels())),
            };
            // The stable machine-readable line: everything deterministic,
            // nothing wall-clock.
            println!(
                "CHURN algo={} script={} base={} batches={} ops={} n={}->{} incremental={} checksum={}",
                row.algorithm,
                row.script,
                row.base,
                row.batches,
                row.ops_per_batch,
                row.n_initial,
                row.n_final,
                row.incremental_batches,
                row.label_checksum,
            );
            table.row(&[
                row.algorithm.clone(),
                row.script.clone(),
                format!("{}->{}", row.n_initial, row.n_final),
                row.batches.to_string(),
                row.incremental_batches.to_string(),
                row.dirty_total.to_string(),
                row.region_total.to_string(),
                row.label_checksum.clone(),
            ]);
            sessions.push(row);
        }
    }
    table.print();

    let headline = run_headline(&scale)?;
    let mut headline_table = Table::new(
        format!(
            "Headline — {} on a {}-node path, {} ops/batch",
            headline.algorithm, headline.n_initial, headline.ops_per_batch
        ),
        &["batches", "incr", "incr ms", "full ms", "speedup", "gated"],
    );
    headline_table.row(&[
        headline.batches.to_string(),
        headline.incremental_batches.to_string(),
        f1(headline.incremental_resolve_ms),
        f1(headline.full_resolve_ms),
        format!("{:.2}x", headline.speedup),
        headline.gated.to_string(),
    ]);
    headline_table.print();
    if scale.gate {
        if headline.incremental_batches == 0 {
            return Err(format!(
                "churn gate: no headline batch took the incremental path on the \
                 {}-node path",
                headline.n_initial
            ));
        }
        if headline.speedup <= 1.0 {
            return Err(format!(
                "churn gate: incremental re-solve ({} ms) did not beat the full \
                 re-solve ({} ms) — speedup {:.2}x",
                f1(headline.incremental_resolve_ms),
                f1(headline.full_resolve_ms),
                headline.speedup
            ));
        }
    }
    Ok(save_json(
        "BENCH_churn",
        &ChurnBench {
            preset: preset.to_string(),
            sessions,
            headline,
        },
    ))
}

/// The headline workload: `linial` (the smallest-radius local solver) on
/// a long path under insert/delete-only churn, timing the incremental
/// re-solve against a from-scratch baseline of the same post-batch tree.
/// The baseline doubles as the differential oracle — any label or round
/// mismatch is an error, not a slow path.
fn run_headline(scale: &ChurnScale) -> Result<ChurnHeadline, String> {
    let script = ChurnScript::preset("prune-regrow")
        .expect("prune-regrow is a preset")
        .with_volume(scale.headline_batches, scale.headline_ops);
    let base = InstanceSpec::Path {
        n: scale.headline_n,
    };
    let mut session = DynamicSession::new(
        "linial",
        base,
        script.clone(),
        RunConfig::seeded(CHURN_SEED),
    )
    .map_err(|e| format!("headline session: {e}"))?;
    let mut incremental_resolve_ms = 0.0;
    let mut full_resolve_ms = 0.0;
    let mut incremental_batches = 0usize;
    while session.batches_remaining() > 0 {
        let out = session.step().map_err(|e| format!("headline step: {e}"))?;
        incremental_resolve_ms += out.resolve_ms;
        if out.incremental {
            incremental_batches += 1;
        }
        let baseline = session
            .full_resolve()
            .map_err(|e| format!("headline baseline: {e}"))?;
        full_resolve_ms += baseline.elapsed_ms;
        if baseline.labels != session.labels() || baseline.rounds != session.rounds() {
            return Err(format!(
                "headline divergence at batch {}: spliced state differs from the \
                 from-scratch baseline",
                out.batch
            ));
        }
    }
    Ok(ChurnHeadline {
        algorithm: session.algorithm().to_string(),
        script: script.name,
        n_initial: scale.headline_n,
        n_final: session.node_count(),
        batches: scale.headline_batches,
        ops_per_batch: scale.headline_ops,
        incremental_batches,
        incremental_resolve_ms,
        full_resolve_ms,
        speedup: full_resolve_ms / incremental_resolve_ms.max(1e-9),
        gated: scale.gate,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use lcl_harness::resolver;

    #[test]
    fn presets_resolve() {
        for name in preset_names() {
            let scale = churn_scale(name).unwrap_or_else(|| panic!("{name}"));
            assert_eq!(scale.name, *name);
        }
        assert!(churn_scale("galactic").is_none());
        assert!(churn_scale("ci").unwrap().gate);
        assert!(churn_scale("full").unwrap().gate);
        assert!(!churn_scale("tiny").unwrap().gate);
        assert!(!churn_scale("smoke").unwrap().gate);
    }

    #[test]
    fn gated_presets_churn_one_percent_of_a_million_nodes() {
        for name in ["ci", "full"] {
            let scale = churn_scale(name).unwrap();
            assert_eq!(scale.headline_n, 1_000_000, "{name}");
            assert_eq!(scale.headline_ops, scale.headline_n / 100, "{name}");
        }
    }

    #[test]
    fn matrix_bases_are_supported() {
        let scale = churn_scale("tiny").unwrap();
        for (name, spec) in matrix(&scale) {
            let algo = resolver()
                .find(name)
                .unwrap_or_else(|| panic!("`{name}` not registered"));
            assert!(
                algo.supports(spec.kind()),
                "{name} does not support {}",
                spec.describe()
            );
        }
    }

    #[test]
    fn fnv1a_is_deterministic_and_input_sensitive() {
        let a = fnv1a_u64s(&[1, 2, 3]);
        assert_eq!(a, fnv1a_u64s(&[1, 2, 3]));
        assert_ne!(a, fnv1a_u64s(&[1, 2, 4]));
        assert_ne!(fnv1a_u64s(&[]), fnv1a_u64s(&[0]));
    }
}
