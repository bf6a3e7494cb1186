//! The empirical landscape classifier: fits measured node-averaged
//! curves to the complexity classes of `lcl_core::landscape` and places
//! every registry algorithm in the Fig. 2 landscape from measurements
//! alone.
//!
//! # Method
//!
//! A size sweep yields points `(n_i, T̄_i)` where `T̄_i` is the measured
//! node-averaged round count (averaged over seeds). For every candidate
//! class with growth function `g` — `1`, `log* n`, `(log* n)^α`,
//! `log₂ n`, `n`, `n^α` — the classifier fits the affine model
//! `T̄ ≈ a + c · g(n)` by ordinary least squares (the additive offset is
//! essential: real curves carry constant lower-order terms that dominate
//! small sizes). Free exponents `α` are chosen on a grid. Candidates are
//! scored by relative RMSE plus a parsimony penalty per free parameter,
//! so a flat curve is reported as `Θ(1)` rather than a zero-slope growth
//! class; the best-scoring candidate is the fitted class.
//!
//! `log*`-regime classes are distinguishable from `Θ(log n)` at feasible
//! sizes because `log* n` is a *step function* (it changes only at
//! `n = 17` and `n = 65537` in the sweepable range): a curve that is flat
//! across each plateau and jumps between them fits `c · log* n` far
//! better than any smooth logarithm, provided the ladder puts several
//! sizes on each plateau — which the built-in ladders do. `Θ(1)` versus
//! `Θ((log* n)^c)` is *not* empirically decidable (`log* n ≤ 5`
//! everywhere feasible) and the two regimes form one consistency bucket;
//! see [`ComplexityClass::consistent_with`].
//!
//! # Example
//!
//! ```
//! use lcl_bench::classify::classify_curve;
//! use lcl_core::landscape::{ComplexityClass, Regime};
//!
//! // A measured curve that grows like 3·√n over a size ladder.
//! let points: Vec<(f64, f64)> = [100.0f64, 1_000.0, 10_000.0, 100_000.0]
//!     .iter()
//!     .map(|&n| (n, 5.0 + 3.0 * n.sqrt()))
//!     .collect();
//! let c = classify_curve(&points).unwrap();
//! assert_eq!(c.best.regime(), Regime::Poly);
//! assert!(ComplexityClass::poly(0.5).consistent_with(&c.best));
//! ```

use crate::report::{f3, save_json, Table};
use lcl_core::landscape::ComplexityClass;
use lcl_harness::{resolver, Algorithm, InstanceSpec, RunConfig, Session};
use serde::Serialize;

/// Relative-RMSE penalty per free parameter beyond the constant model's
/// single offset. Calibrated so that a zero-slope growth class never
/// beats `Θ(1)` on a flat curve, while a genuine `Θ(log n)` slope (which
/// fits an order of magnitude better than a constant) still wins.
const PARSIMONY_PENALTY: f64 = 0.02;

/// The fit of one candidate class: `T̄ ≈ offset + coefficient · g(n)`.
#[derive(Debug, Clone)]
pub struct CandidateFit {
    /// The candidate class.
    pub class: ComplexityClass,
    /// Fitted additive offset `a`.
    pub offset: f64,
    /// Fitted scale `c` (non-negative; negative-slope fits are rejected).
    pub coefficient: f64,
    /// Root-mean-square residual divided by the mean of the measured
    /// values.
    pub nrmse: f64,
    /// `nrmse` plus the parsimony penalty — the model-selection key.
    pub score: f64,
    /// Number of fitted parameters (offset, scale, free exponent).
    pub params: usize,
}

/// The outcome of classifying one measured curve.
#[derive(Debug, Clone)]
pub struct Classification {
    /// The best-scoring class.
    pub best: ComplexityClass,
    /// The best candidate's fit (residuals, coefficients).
    pub fit: CandidateFit,
    /// Every candidate that produced a valid fit, sorted by score.
    pub candidates: Vec<CandidateFit>,
}

/// Ordinary least squares of `t ≈ a + c·g` over `(g_i, t_i)`; returns
/// `(a, c)`, or `None` when `g` is degenerate (all values equal, so the
/// candidate is indistinguishable from a constant and must not shadow
/// it).
fn ols_affine(gs: &[f64], ts: &[f64]) -> Option<(f64, f64)> {
    let n = gs.len() as f64;
    let gm = gs.iter().sum::<f64>() / n;
    let tm = ts.iter().sum::<f64>() / n;
    let var: f64 = gs.iter().map(|g| (g - gm).powi(2)).sum();
    if var < 1e-12 {
        return None;
    }
    let cov: f64 = gs.iter().zip(ts).map(|(g, t)| (g - gm) * (t - tm)).sum();
    let c = cov / var;
    Some((tm - c * gm, c))
}

/// Fits one candidate class over the points, or `None` when the fit is
/// degenerate or has negative slope.
fn fit_candidate(
    class: ComplexityClass,
    params: usize,
    points: &[(f64, f64)],
) -> Option<CandidateFit> {
    let gs: Vec<f64> = points.iter().map(|&(n, _)| class.evaluate(n)).collect();
    let ts: Vec<f64> = points.iter().map(|&(_, t)| t).collect();
    let mean_t = ts.iter().sum::<f64>() / ts.len() as f64;
    let (offset, coefficient) = if matches!(class, ComplexityClass::Constant) {
        (mean_t, 0.0)
    } else {
        let (a, c) = ols_affine(&gs, &ts)?;
        if c < 0.0 {
            return None;
        }
        (a, c)
    };
    let ss: f64 = gs
        .iter()
        .zip(&ts)
        .map(|(g, t)| (t - (offset + coefficient * g)).powi(2))
        .sum();
    let rmse = (ss / ts.len() as f64).sqrt();
    let nrmse = rmse / mean_t.max(1e-9);
    Some(CandidateFit {
        class,
        offset,
        coefficient,
        nrmse,
        score: nrmse + PARSIMONY_PENALTY * (params - 1) as f64,
        params,
    })
}

/// The best fit over a grid of free exponents for one parameterized
/// family.
fn fit_grid(
    make: impl Fn(f64) -> ComplexityClass,
    grid: impl Iterator<Item = f64>,
    params: usize,
    points: &[(f64, f64)],
) -> Option<CandidateFit> {
    grid.filter_map(|alpha| fit_candidate(make(alpha), params, points))
        .min_by(|a, b| a.score.total_cmp(&b.score))
}

/// Classifies a measured node-averaged curve.
///
/// `points` are `(n, node_averaged)` pairs; at least three distinct
/// sizes are required, and all coordinates must be finite with `n ≥ 1`
/// and `node_averaged ≥ 0`.
///
/// # Errors
///
/// A rendered message when the points are too few or not classifiable.
pub fn classify_curve(points: &[(f64, f64)]) -> Result<Classification, String> {
    let mut sizes: Vec<u64> = points.iter().map(|&(n, _)| n as u64).collect();
    sizes.sort_unstable();
    sizes.dedup();
    if sizes.len() < 3 {
        return Err(format!(
            "classification needs at least 3 distinct sizes, got {}",
            sizes.len()
        ));
    }
    if points
        .iter()
        .any(|&(n, t)| !n.is_finite() || !t.is_finite() || n < 1.0 || t < 0.0)
    {
        return Err("classification points must be finite with n >= 1, t >= 0".to_string());
    }

    let mut candidates: Vec<CandidateFit> = Vec::new();
    // Named classes first: the constant baseline, then the named
    // one-exponent cells of the landscape.
    candidates.extend(fit_candidate(ComplexityClass::Constant, 1, points));
    candidates.extend(fit_candidate(ComplexityClass::log_star(), 2, points));
    candidates.extend(fit_candidate(ComplexityClass::Log, 2, points));
    candidates.extend(fit_candidate(ComplexityClass::poly(1.0), 2, points));
    // Free-exponent families (3 parameters each, grid-searched).
    candidates.extend(fit_grid(
        ComplexityClass::log_star_pow,
        (1..20).map(|i| i as f64 * 0.05),
        3,
        points,
    ));
    candidates.extend(fit_grid(
        ComplexityClass::poly,
        (1..50).map(|i| i as f64 * 0.02),
        3,
        points,
    ));
    candidates.sort_by(|a, b| a.score.total_cmp(&b.score));
    let fit = candidates
        .first()
        .cloned()
        .ok_or_else(|| "no candidate class produced a valid fit".to_string())?;
    Ok(Classification {
        best: fit.class,
        fit,
        candidates,
    })
}

// ---------------------------------------------------------------------
// Sweeping the registry and reporting.
// ---------------------------------------------------------------------

/// Scale presets of `lcl classify`: the requested-size ladders per
/// instance family and the seeds averaged per size.
#[derive(Debug, Clone)]
pub struct ClassifyScale {
    /// Preset name (`smoke`, `ci`, `full`).
    pub preset: &'static str,
    /// Ladder for path instances. Includes `n = 16` (the last size with
    /// `log* n = 3`) so the `log*` step structure is observable.
    pub path_sizes: Vec<usize>,
    /// Ladder for the Theorem 11 and Definition 25 constructions (the
    /// `log*`-regime gadget families). Their generators need a few
    /// thousand nodes, so only the `log* = 4 | 5` jump at `n = 65537` is
    /// reachable — and the upper-plateau sizes sit well past the jump,
    /// where the constructions' level mixtures (which shift with `n`
    /// independently of `log* n`) have converged to the plateau value.
    pub weighted_sizes: Vec<usize>,
    /// Ladder for plain weight/random-tree instances (the `Θ(log n)`
    /// families, which have no `log*` plateaus to resolve).
    pub weight_tree_sizes: Vec<usize>,
    /// Seeds averaged per size.
    pub seeds: Vec<u64>,
}

/// Resolves a preset name.
#[must_use]
pub fn classify_scale(preset: &str) -> Option<ClassifyScale> {
    // Ladders put >= 2 sizes on each log* plateau they span, so the
    // plateau-and-jump shape of log*-regime curves is distinguishable
    // from a smooth logarithm.
    match preset {
        // Minutes-free smoke for the figure's --tiny schema runs; too
        // small to resolve the landscape (log* is constant across the
        // ladder), so fits are reported but not meaningful.
        "tiny" => Some(ClassifyScale {
            preset: "tiny",
            path_sizes: vec![16, 64, 512, 2_048],
            weighted_sizes: vec![2_048, 4_096, 8_192],
            weight_tree_sizes: vec![512, 1_024, 4_096],
            seeds: vec![1],
        }),
        "smoke" => Some(ClassifyScale {
            preset: "smoke",
            path_sizes: vec![16, 64, 1_024, 16_384, 131_072],
            weighted_sizes: vec![2_048, 8_192, 32_768, 524_288, 1_048_576],
            weight_tree_sizes: vec![1_024, 4_096, 16_384, 131_072],
            seeds: vec![1],
        }),
        "ci" => Some(ClassifyScale {
            preset: "ci",
            path_sizes: vec![16, 64, 1_024, 16_384, 131_072, 524_288],
            weighted_sizes: vec![2_048, 8_192, 32_768, 524_288, 1_048_576, 2_097_152],
            weight_tree_sizes: vec![1_024, 4_096, 16_384, 65_536, 262_144, 1_048_576],
            seeds: vec![1, 2],
        }),
        "full" => Some(ClassifyScale {
            preset: "full",
            path_sizes: vec![16, 64, 1_024, 16_384, 131_072, 1_048_576, 4_194_304],
            weighted_sizes: vec![
                2_048, 8_192, 32_768, 524_288, 1_048_576, 2_097_152, 4_194_304,
            ],
            weight_tree_sizes: vec![1_024, 4_096, 16_384, 65_536, 262_144, 1_048_576, 4_194_304],
            seeds: vec![1, 2, 3],
        }),
        _ => None,
    }
}

/// The ladder an algorithm is classified on, given its classify spec
/// family.
fn ladder_for(algo: &dyn Algorithm, scale: &ClassifyScale) -> Vec<usize> {
    let cfg = RunConfig::default();
    match algo.classify_spec(4_096, &cfg).kind() {
        lcl_harness::InstanceKind::Path => scale.path_sizes.clone(),
        lcl_harness::InstanceKind::Weighted | lcl_harness::InstanceKind::LowerBound => {
            scale.weighted_sizes.clone()
        }
        _ => scale.weight_tree_sizes.clone(),
    }
}

/// One classified registry algorithm.
#[derive(Debug, Clone, Serialize)]
pub struct AlgorithmClassification {
    /// Registry name.
    pub algorithm: String,
    /// The display-form landscape cell (`Algorithm::landscape_class`).
    pub landscape_class: String,
    /// Rendered theoretical node-averaged class.
    pub theoretical: String,
    /// Rendered fitted class.
    pub fitted: String,
    /// Fitted free exponent, when the class carries one.
    pub fitted_exponent: Option<f64>,
    /// Relative RMSE of the winning fit.
    pub nrmse: f64,
    /// Whether the fitted class is consistent with the theoretical one
    /// (see `ComplexityClass::consistent_with`).
    pub consistent: bool,
    /// The measured `(n, node_averaged)` curve (seed-averaged).
    pub curve: Vec<(u64, f64)>,
}

/// Measures one algorithm's node-averaged curve over its classification
/// ladder (averaging seeds per size) and classifies it.
///
/// # Errors
///
/// Harness errors from the sweep, or classification errors for
/// degenerate curves.
pub fn classify_algorithm(
    algo: &dyn Algorithm,
    scale: &ClassifyScale,
) -> Result<(AlgorithmClassification, Classification), String> {
    let cfg = RunConfig::default();
    let sizes = ladder_for(algo, scale);
    let mut session = Session::new();
    for &n in &sizes {
        for &seed in &scale.seeds {
            session
                .push(
                    algo.name(),
                    algo.classify_spec(n, &cfg),
                    RunConfig::seeded(seed),
                )
                .map_err(|e| e.to_string())?;
        }
    }
    let records = session.run().map_err(|e| e.to_string())?;
    // Seed-average per requested size; the built size can differ from the
    // requested one, so take the actual n from the records.
    let mut curve: Vec<(u64, f64)> = Vec::new();
    for chunk in records.chunks(scale.seeds.len()) {
        let n = chunk[0].n as u64;
        let mean = chunk.iter().map(|r| r.node_averaged).sum::<f64>() / chunk.len() as f64;
        curve.push((n, mean));
    }
    let points: Vec<(f64, f64)> = curve.iter().map(|&(n, t)| (n as f64, t)).collect();
    let classification = classify_curve(&points)?;
    let theoretical = algo.node_averaged_class(&cfg);
    let summary = AlgorithmClassification {
        algorithm: algo.name().to_string(),
        landscape_class: algo.landscape_class().to_string(),
        theoretical: theoretical.describe(),
        fitted: classification.best.describe(),
        fitted_exponent: classification.best.exponent(),
        nrmse: classification.fit.nrmse,
        consistent: theoretical.consistent_with(&classification.best),
        curve,
    };
    Ok((summary, classification))
}

/// The emitted `BENCH_classify.json` document.
#[derive(Debug, Clone, Serialize)]
pub struct ClassifyReport {
    /// Preset name.
    pub preset: String,
    /// Seeds averaged per size.
    pub seeds: Vec<u64>,
    /// One classification per registry algorithm, in registry order.
    pub algorithms: Vec<AlgorithmClassification>,
}

/// Drives `lcl classify`: classifies every registry algorithm at the
/// given scale, prints the landscape table, and writes
/// `bench-results/BENCH_classify.json`.
///
/// # Errors
///
/// Unknown presets, harness errors, and — when `strict` — any
/// deterministic algorithm whose fitted class contradicts its
/// theoretical class.
pub fn run_classify(preset: &str, strict: bool) -> Result<(), String> {
    let scale = classify_scale(preset)
        .ok_or_else(|| format!("unknown preset `{preset}` (tiny|smoke|ci|full)"))?;
    let mut table = Table::new(
        format!("Empirical landscape classification — preset `{preset}`"),
        &[
            "algorithm",
            "theory (node-avg)",
            "fitted",
            "nrmse",
            "consistent",
        ],
    );
    let mut rows = Vec::new();
    let mut inconsistent = Vec::new();
    for algo in resolver().algorithms() {
        let (summary, _) = classify_algorithm(*algo, &scale)?;
        table.row(&[
            summary.algorithm.clone(),
            summary.theoretical.clone(),
            summary.fitted.clone(),
            f3(summary.nrmse),
            summary.consistent.to_string(),
        ]);
        if !summary.consistent {
            inconsistent.push(summary.algorithm.clone());
        }
        rows.push(summary);
    }
    table.print();
    save_json(
        "BENCH_classify",
        &ClassifyReport {
            preset: preset.to_string(),
            seeds: scale.seeds.clone(),
            algorithms: rows,
        },
    );
    if strict && !inconsistent.is_empty() {
        return Err(format!(
            "fitted classes contradict theory for: {}",
            inconsistent.join(", ")
        ));
    }
    run_adversarial_classify(preset, strict)
}

/// The adversarial topology families of the classify suite, by name.
pub const ADVERSARIAL_FAMILIES: [&str; 6] = [
    "caterpillar",
    "ladder",
    "broom",
    "spider",
    "complete-ary",
    "heavy-path",
];

/// The free-tree solvers the adversarial suite classifies (the registry
/// entries that accept `InstanceKind::Adversarial`).
pub const ADVERSARIAL_SOLVERS: [&str; 3] = ["dfree-a", "fast-decomposition", "labeling-solver"];

/// The family member of target size `n`.
#[must_use]
pub fn adversarial_spec(family: &str, n: usize) -> Option<InstanceSpec> {
    let spec = match family {
        "caterpillar" => InstanceSpec::Caterpillar {
            spine: (n / 3).max(1),
            legs: 2,
        },
        "ladder" => InstanceSpec::Ladder {
            rungs: (n / 2).max(1),
        },
        "broom" => InstanceSpec::Broom {
            spine: (n / 2).max(1),
            bristles: (n / 2).max(1),
        },
        "spider" => InstanceSpec::Spider {
            legs: 4,
            leg_len: (n / 4).max(1),
        },
        "complete-ary" => InstanceSpec::CompleteAry {
            arity: 2,
            // The largest complete binary tree with at most n nodes.
            height: ((usize::BITS - (n + 1).leading_zeros()) as usize)
                .saturating_sub(2)
                .max(1),
        },
        "heavy-path" => InstanceSpec::HeavyPath { n },
        _ => return None,
    };
    Some(spec)
}

/// The pinned theoretical node-averaged class per (solver, family) —
/// the adversarial suite's strict gate compares fitted classes against
/// these, not against the solver's canonical-family class, because the
/// node-average is a property of the *pair*:
///
/// - `dfree-a` terminates every node at its rake-and-compress collection
///   radius, Θ(log n) on every bounded-degree family;
/// - `fast-decomposition`'s geometric decline decay keeps the
///   node-average O(1) on all six families (the surviving mass on
///   path-like shapes is a vanishing fraction);
/// - `labeling-solver`'s O(k·n^{1/k}) bound (k = 2) is *tight* on the
///   path-like families — their level populations are Θ(√n)-deep — and
///   collapses to O(1) on complete trees, where peeling exhausts the
///   tree in O(1) levels.
fn adversarial_expected(solver: &str, family: &str) -> ComplexityClass {
    match (solver, family) {
        ("dfree-a", _) => ComplexityClass::Log,
        ("fast-decomposition", _) => ComplexityClass::Constant,
        ("labeling-solver", "complete-ary") => ComplexityClass::Constant,
        ("labeling-solver", _) => ComplexityClass::poly(0.5),
        _ => ComplexityClass::Constant,
    }
}

/// One classified (solver, adversarial family) pair.
#[derive(Debug, Clone, Serialize)]
pub struct AdversarialClassification {
    /// Family name (see [`ADVERSARIAL_FAMILIES`]).
    pub family: String,
    /// Registry name of the solver.
    pub algorithm: String,
    /// Rendered pinned theoretical class for this pair.
    pub theoretical: String,
    /// Rendered fitted class.
    pub fitted: String,
    /// Relative RMSE of the winning fit.
    pub nrmse: f64,
    /// Whether the fitted class is consistent with the pinned one.
    pub consistent: bool,
    /// The measured `(n, node_averaged)` curve.
    pub curve: Vec<(u64, f64)>,
}

/// The emitted `BENCH_classify_adversarial.json` document.
#[derive(Debug, Clone, Serialize)]
pub struct AdversarialReport {
    /// Preset name.
    pub preset: String,
    /// The size ladder the families were swept over.
    pub sizes: Vec<usize>,
    /// One row per (solver, family) pair.
    pub pairs: Vec<AdversarialClassification>,
}

/// Classifies every free-tree solver on every adversarial family and
/// writes `bench-results/BENCH_classify_adversarial.json`. Sizes come
/// from the preset's weight-tree ladder, capped at 262 144 (the √n-class
/// pairs resolve well below that, and the cap keeps the 18-pair sweep
/// CI-affordable).
///
/// # Errors
///
/// Unknown presets, harness errors, and — when `strict` — any pair whose
/// fitted class contradicts its pinned class.
pub fn run_adversarial_classify(preset: &str, strict: bool) -> Result<(), String> {
    let scale = classify_scale(preset)
        .ok_or_else(|| format!("unknown preset `{preset}` (tiny|smoke|ci|full)"))?;
    let sizes: Vec<usize> = scale
        .weight_tree_sizes
        .iter()
        .copied()
        .filter(|&n| n <= 262_144)
        .collect();
    let seed = *scale.seeds.first().ok_or("preset has no seeds")?;
    let mut table = Table::new(
        format!("Adversarial topology classification — preset `{preset}`"),
        &[
            "family",
            "algorithm",
            "pinned",
            "fitted",
            "nrmse",
            "consistent",
        ],
    );
    let mut pairs = Vec::new();
    let mut inconsistent = Vec::new();
    for family in ADVERSARIAL_FAMILIES {
        for solver in ADVERSARIAL_SOLVERS {
            let mut session = Session::new();
            for &n in &sizes {
                let spec = adversarial_spec(family, n).ok_or("known family")?;
                session
                    .push(solver, spec, RunConfig::seeded(seed))
                    .map_err(|e| e.to_string())?;
            }
            let records = session.run().map_err(|e| e.to_string())?;
            let curve: Vec<(u64, f64)> = records
                .iter()
                .map(|r| (r.n as u64, r.node_averaged))
                .collect();
            let points: Vec<(f64, f64)> = curve.iter().map(|&(n, t)| (n as f64, t)).collect();
            let classification = classify_curve(&points)?;
            let expected = adversarial_expected(solver, family);
            let consistent = expected.consistent_with(&classification.best);
            table.row(&[
                family.to_string(),
                solver.to_string(),
                expected.describe(),
                classification.best.describe(),
                f3(classification.fit.nrmse),
                consistent.to_string(),
            ]);
            if !consistent {
                inconsistent.push(format!("{solver} on {family}"));
            }
            pairs.push(AdversarialClassification {
                family: family.to_string(),
                algorithm: solver.to_string(),
                theoretical: expected.describe(),
                fitted: classification.best.describe(),
                nrmse: classification.fit.nrmse,
                consistent,
                curve,
            });
        }
    }
    table.print();
    save_json(
        "BENCH_classify_adversarial",
        &AdversarialReport {
            preset: preset.to_string(),
            sizes,
            pairs,
        },
    );
    if strict && !inconsistent.is_empty() {
        return Err(format!(
            "adversarial fitted classes contradict their pinned classes for: {}",
            inconsistent.join(", ")
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use lcl_core::landscape::Regime;

    fn synth(sizes: &[f64], f: impl Fn(f64) -> f64) -> Vec<(f64, f64)> {
        sizes.iter().map(|&n| (n, f(n))).collect()
    }

    /// The ladder the synthetic tests share: several sizes per log*
    /// plateau, like the real presets.
    const LADDER: [f64; 6] = [16.0, 64.0, 1_024.0, 16_384.0, 131_072.0, 1_048_576.0];

    #[test]
    fn pins_constant_curves() {
        let c = classify_curve(&synth(&LADDER, |_| 7.25)).unwrap();
        assert_eq!(c.best, ComplexityClass::Constant, "{:?}", c.fit);
    }

    #[test]
    fn pins_log_star_curves() {
        let ls = ComplexityClass::log_star();
        let c = classify_curve(&synth(&LADDER, |n| 2.0 + 5.5 * ls.evaluate(n))).unwrap();
        assert_eq!(c.best.regime(), Regime::LogStar, "{:?}", c.fit);
    }

    #[test]
    fn pins_log_star_power_curves() {
        let shape = ComplexityClass::log_star_pow(0.5);
        let c = classify_curve(&synth(&LADDER, |n| 1.0 + 8.0 * shape.evaluate(n))).unwrap();
        assert_eq!(c.best.regime(), Regime::LogStar, "{:?}", c.fit);
        assert!(shape.consistent_with(&c.best));
    }

    #[test]
    fn pins_log_curves() {
        let c = classify_curve(&synth(&LADDER, |n| 3.0 + 2.0 * n.log2())).unwrap();
        assert_eq!(c.best, ComplexityClass::Log, "{:?}", c.fit);
    }

    #[test]
    fn pins_poly_curves_with_exponent() {
        for alpha in [0.33, 0.5, 0.75] {
            let c = classify_curve(&synth(&LADDER, |n| 4.0 + 0.8 * n.powf(alpha))).unwrap();
            assert_eq!(c.best.regime(), Regime::Poly, "alpha={alpha}: {:?}", c.fit);
            let fitted = c.best.exponent().unwrap();
            assert!(
                (fitted - alpha).abs() <= 0.05,
                "alpha={alpha} fitted={fitted}"
            );
        }
    }

    #[test]
    fn pins_linear_curves() {
        let c = classify_curve(&synth(&LADDER, |n| 0.75 * n)).unwrap();
        assert_eq!(c.best.regime(), Regime::Poly, "{:?}", c.fit);
        assert!((c.best.exponent().unwrap() - 1.0).abs() < 0.05);
    }

    #[test]
    fn survives_multiplicative_noise() {
        // ±4% deterministic "noise" must not flip a √n curve.
        let noise = [1.04, 0.97, 1.02, 0.96, 1.03, 0.98];
        let pts: Vec<(f64, f64)> = LADDER
            .iter()
            .enumerate()
            .map(|(i, &n)| (n, (2.0 + 0.5 * n.sqrt()) * noise[i]))
            .collect();
        let c = classify_curve(&pts).unwrap();
        assert!(ComplexityClass::poly(0.5).consistent_with(&c.best), "{c:?}");
    }

    #[test]
    fn rejects_degenerate_input() {
        assert!(classify_curve(&[(10.0, 1.0), (20.0, 2.0)]).is_err());
        assert!(classify_curve(&[(10.0, 1.0), (10.0, 2.0), (10.0, 3.0)]).is_err());
        assert!(classify_curve(&[(10.0, 1.0), (20.0, f64::NAN), (30.0, 2.0)]).is_err());
    }

    #[test]
    fn candidates_are_ranked_and_decreasing_fit_wins() {
        let c = classify_curve(&synth(&LADDER, |n| n.sqrt())).unwrap();
        assert!(!c.candidates.is_empty());
        for w in c.candidates.windows(2) {
            assert!(w[0].score <= w[1].score);
        }
        assert_eq!(c.candidates[0].class, c.best);
        // A decreasing curve has no growth fit; only Constant survives,
        // badly.
        let dec = classify_curve(&synth(&LADDER, |n| 1_000.0 / n.sqrt())).unwrap();
        assert_eq!(dec.best, ComplexityClass::Constant);
    }

    #[test]
    fn scales_resolve() {
        for preset in ["smoke", "ci", "full"] {
            let s = classify_scale(preset).unwrap();
            assert!(s.path_sizes.len() >= 5);
            assert!(!s.seeds.is_empty());
            // The path ladders must straddle both log* jumps (16 | 17 and
            // 65536 | 65537) with at least one size on each side.
            assert!(s.path_sizes.iter().any(|&n| n <= 16));
            assert!(s.path_sizes.iter().any(|&n| n > 16 && n <= 65_536));
            assert!(s.path_sizes.iter().any(|&n| n > 65_536));
        }
        assert!(classify_scale("nope").is_none());
    }
}
