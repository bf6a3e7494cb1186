//! Differential suite for the engine-native adapters.
//!
//! Since the Direct/replay split was retired, every adapter executes its
//! protocol on the chunked LOCAL engine — so the *structural*
//! implementations in `lcl_algorithms` now play the oracle role. For
//! every registry algorithm, on a small instance of every supported kind,
//! under 8 seeds, the engine-native run (across chunk sizes `{1, 7, 64,
//! n}` and 1–2 worker threads) must produce labels and per-node rounds
//! bit-identical to the direct structural computation, and the same
//! protocol driven through the frozen pre-chunking engine
//! (`lcl_local::reference_engine`) must agree as well. Zero divergence is
//! the acceptance bar.
//!
//! The u64 label encodings are deliberately *duplicated* here rather than
//! imported: golden fixtures depend on them, so a silent drift in the
//! adapters' encodings must fail this suite.

use lcl_algorithms::dfree_a::algorithm_a;
use lcl_algorithms::fast_decomposition::fast_dfree_standalone;
use lcl_algorithms::generic_coloring::generic_coloring_masked;
use lcl_algorithms::labeling_solver::solve_hierarchical_labeling;
use lcl_algorithms::linial::{linial_round_count, three_color_path};
use lcl_algorithms::path_lcl_solver::{solve_path_lcl, PathSolveClass};
use lcl_algorithms::protocols::linial::{cascade_space, LinialCascade};
use lcl_algorithms::protocols::path_lcl::PathLclProtocol;
use lcl_algorithms::protocols::randomized::RandomizedColoring;
use lcl_algorithms::protocols::two_coloring::WaveTwoColoring;
use lcl_algorithms::protocols::{plan_round_budget, scheduled_cast_factory, ScheduledCast};
use lcl_algorithms::randomized::randomized_three_color_path;
use lcl_algorithms::two_coloring::two_color_path;
use lcl_algorithms::weight_augmented_solver::solve_weight_augmented;
use lcl_core::coloring::{ColorLabel, Variant};
use lcl_core::dfree::{DfreeInput, DfreeOutput};
use lcl_core::labeling::LabelingOutput;
use lcl_core::problem_spec::{PathTable, ProblemSpec};
use lcl_core::weight_augmented::{AugmentedOutput, SecondaryOutput};
use lcl_core::weighted::WeightedOutput;
use lcl_decidability::path_lcl::{PathClass, PathLcl};
use lcl_graph::NodeMask;
use lcl_harness::{
    resolver, run_on_construction, Algorithm, Instance, InstanceKind, InstanceSpec, RoundBin,
    RunConfig, WeightedRegime,
};
use lcl_local::engine::EngineConfig;
use lcl_local::identifiers::Ids;
use lcl_local::reference_engine::run_reference;
use std::collections::BTreeMap;
use std::sync::Arc;

// --- Independent copies of the adapters' stable label encodings. ---

fn color_code(c: ColorLabel) -> u64 {
    match c {
        ColorLabel::White => 0,
        ColorLabel::Black => 1,
        ColorLabel::Exempt => 2,
        ColorLabel::Decline => 3,
        ColorLabel::Red => 4,
        ColorLabel::Green => 5,
        ColorLabel::Yellow => 6,
    }
}

fn weighted_code(o: &WeightedOutput) -> u64 {
    match o {
        WeightedOutput::Active(c) => color_code(*c),
        WeightedOutput::Decline => 16,
        WeightedOutput::Connect => 17,
        WeightedOutput::Copy(c) => 32 + color_code(*c),
    }
}

fn dfree_code(o: DfreeOutput) -> u64 {
    match o {
        DfreeOutput::Decline => 0,
        DfreeOutput::Connect => 1,
        DfreeOutput::Copy => 2,
    }
}

fn labeling_code(o: &LabelingOutput) -> u64 {
    let port = o.out_port.map_or(0, |p| p as u64 + 1);
    (u64::from(o.label.order_key()) << 32) | port
}

fn augmented_code(o: &AugmentedOutput) -> u64 {
    match o {
        AugmentedOutput::Active(c) => color_code(*c),
        AugmentedOutput::Weight {
            labeling,
            secondary,
        } => {
            let sec = match secondary {
                SecondaryOutput::Color(c) => color_code(*c),
                SecondaryOutput::Decline => 15,
            };
            (1 << 60) | (labeling_code(labeling) << 8) | sec
        }
    }
}

/// The direct structural solution an engine run must reproduce.
struct Oracle {
    labels: Vec<u64>,
    rounds: Vec<u64>,
}

fn dfree_inputs(n: usize, with_anchor: bool) -> Vec<DfreeInput> {
    let mut input = vec![DfreeInput::Weight; n];
    if with_anchor && n > 0 {
        input[0] = DfreeInput::Adjacent;
    }
    input
}

fn path_lcl_plan(cfg: &RunConfig) -> (PathTable, PathSolveClass) {
    let table = cfg.problem.as_ref().map_or_else(
        || PathTable::proper_coloring(3),
        |p| {
            p.path_table()
                .expect("differential problems are path tables")
        },
    );
    let class = match PathLcl::new(table.matrix(), table.end_vec()).classify() {
        PathClass::Constant => PathSolveClass::Constant,
        PathClass::LogStar => PathSolveClass::LogStar,
        PathClass::Linear => PathSolveClass::Linear,
        PathClass::Unsolvable => panic!("differential problems are solvable"),
    };
    (table, class)
}

/// Computes what the adapter must produce by running the direct
/// structural implementation with the adapter's own parameter choices.
fn oracle(algo: &dyn Algorithm, instance: &Instance, cfg: &RunConfig) -> Oracle {
    let tree = instance.tree();
    let n = instance.node_count();
    match algo.name() {
        "two-coloring" => {
            let ids = Ids::random(n, cfg.seed);
            let run = two_color_path(tree, &ids);
            Oracle {
                labels: run.outputs.iter().map(|&c| color_code(c)).collect(),
                rounds: run.rounds,
            }
        }
        "linial" => {
            let ids = Ids::random(n, cfg.seed);
            let run = three_color_path(tree, &ids);
            Oracle {
                labels: run.outputs,
                rounds: run.rounds,
            }
        }
        "randomized" => {
            let run = randomized_three_color_path(tree, cfg.seed);
            Oracle {
                labels: run.outputs.iter().map(|&c| color_code(c)).collect(),
                rounds: run.rounds,
            }
        }
        "generic-coloring" => {
            let k = instance.spec().hierarchy_k().expect("spec carries k");
            let ids = Ids::random(n, cfg.seed);
            let gammas = lcl_core::params::theorem11_gammas(n.max(instance.requested_n()), k);
            let gammas = cfg.scale_gammas(&gammas);
            let mask = NodeMask::full(n);
            let levels = instance.levels(k);
            let masked =
                generic_coloring_masked(tree, &mask, &levels, Variant::ThreeHalf, &gammas, &ids);
            Oracle {
                labels: masked
                    .outputs
                    .into_iter()
                    .map(|o| color_code(o.expect("full mask decides everywhere")))
                    .collect(),
                rounds: masked.rounds,
            }
        }
        "apoly" | "a35" => {
            let regime = if algo.name() == "apoly" {
                WeightedRegime::Poly
            } else {
                WeightedRegime::LogStar
            };
            let construction = instance.construction().expect("weighted instance");
            let k = instance.spec().hierarchy_k().expect("spec carries k");
            let d = instance
                .spec()
                .decline_d()
                .or(cfg.d)
                .expect("spec carries d");
            let ids = Ids::random(n, cfg.seed);
            let run = run_on_construction(construction, k, d, &ids, regime);
            Oracle {
                labels: run.outputs.iter().map(weighted_code).collect(),
                rounds: run.rounds,
            }
        }
        "weight-augmented" => {
            let construction = instance.construction().expect("weighted instance");
            let k = instance.spec().hierarchy_k().expect("spec carries k");
            let ids = Ids::random(n, cfg.seed);
            let run = solve_weight_augmented(tree, construction.kinds(), k, &ids);
            Oracle {
                labels: run.outputs.iter().map(augmented_code).collect(),
                rounds: run.rounds,
            }
        }
        "dfree-a" => {
            let d = cfg.d.unwrap_or(2).max(1);
            let input = dfree_inputs(n, true);
            let run = algorithm_a(tree, &NodeMask::full(n), &input, d, n);
            Oracle {
                labels: run
                    .outputs
                    .into_iter()
                    .map(|o| dfree_code(o.expect("full-mask run decides everywhere")))
                    .collect(),
                rounds: vec![run.radius; n],
            }
        }
        "fast-decomposition" => {
            let d = cfg.d.unwrap_or(3).max(1);
            let input = dfree_inputs(n, false);
            let run = fast_dfree_standalone(tree, &NodeMask::full(n), &input, d);
            Oracle {
                labels: run
                    .outputs
                    .into_iter()
                    .map(|o| dfree_code(o.expect("standalone run decides everywhere")))
                    .collect(),
                rounds: run.rounds,
            }
        }
        "labeling-solver" => {
            let k = cfg.k.or(instance.spec().hierarchy_k()).unwrap_or(2).max(1);
            let solution = solve_hierarchical_labeling(tree, k);
            Oracle {
                labels: solution.run.outputs.iter().map(labeling_code).collect(),
                rounds: solution.run.rounds,
            }
        }
        "path-lcl" => {
            let (table, class) = path_lcl_plan(cfg);
            let ids = Ids::random(n, cfg.seed);
            let run = solve_path_lcl(tree, &table, class, &ids).expect("solvable table");
            Oracle {
                labels: run.outputs,
                rounds: run.rounds,
            }
        }
        other => panic!("no oracle for `{other}`"),
    }
}

/// Drives the algorithm's *native protocol* through the frozen
/// pre-chunking engine and demands agreement with the structural oracle.
fn reference_check(
    algo: &dyn Algorithm,
    instance: &Instance,
    cfg: &RunConfig,
    plan: &Oracle,
    ctx: &str,
) {
    let tree = instance.tree();
    let n = instance.node_count();
    let (labels, rounds): (Vec<u64>, Vec<u64>) = match algo.name() {
        "two-coloring" => {
            let ids = Ids::random(n, cfg.seed);
            let out = run_reference(tree, &ids, |_| WaveTwoColoring::new(), n as u64 + 2)
                .unwrap_or_else(|e| panic!("{ctx}: reference engine failed: {e}"));
            (
                out.outputs.iter().map(|&c| color_code(c)).collect(),
                out.stats.as_slice().to_vec(),
            )
        }
        "linial" => {
            let ids = Ids::random(n, cfg.seed);
            let space = cascade_space(&ids, 2);
            let budget = linial_round_count(space, 2) + 2;
            let out = run_reference(tree, &ids, |c| LinialCascade::new(c.id, space, 2), budget)
                .unwrap_or_else(|e| panic!("{ctx}: reference engine failed: {e}"));
            (out.outputs, out.stats.as_slice().to_vec())
        }
        "randomized" => {
            let ids = Ids::sequential(n);
            let seed = cfg.seed;
            let out = run_reference(
                tree,
                &ids,
                |c| RandomizedColoring::new(seed, c.node),
                RandomizedColoring::round_budget(n),
            )
            .unwrap_or_else(|e| panic!("{ctx}: reference engine failed: {e}"));
            (
                out.outputs.iter().map(|&c| color_code(c)).collect(),
                out.stats.as_slice().to_vec(),
            )
        }
        "path-lcl" => {
            let (_, class) = path_lcl_plan(cfg);
            let ids = Ids::random(n, cfg.seed);
            let l = plan.labels.clone();
            let r = plan.rounds.clone();
            let out = run_reference(
                tree,
                &ids,
                |c| match class {
                    PathSolveClass::Linear => PathLclProtocol::rigid(l[c.node]),
                    _ => PathLclProtocol::at_round(r[c.node], l[c.node]),
                },
                plan_round_budget(&plan.rounds),
            )
            .unwrap_or_else(|e| panic!("{ctx}: reference engine failed: {e}"));
            (out.outputs, out.stats.as_slice().to_vec())
        }
        // Plan-driven adapters: the reference engine executes the same
        // `ScheduledCast` machines the chunked engine runs in production.
        _ => {
            let ids = Ids::sequential(n);
            let out = run_reference(
                tree,
                &ids,
                scheduled_cast_factory(
                    Arc::new(plan.labels.clone()),
                    Arc::new(plan.rounds.clone()),
                ),
                plan_round_budget(&plan.rounds),
            )
            .unwrap_or_else(|e| panic!("{ctx}: reference engine failed: {e}"));
            (out.outputs, out.stats.as_slice().to_vec())
        }
    };
    assert_eq!(labels, plan.labels, "{ctx}: reference labels");
    assert_eq!(rounds, plan.rounds, "{ctx}: reference rounds");
}

/// One small spec per supported instance kind (plus the algorithm's own
/// smallest spec, which covers kinds with algorithm-specific parameters
/// such as the weighted constructions).
fn small_specs(algo: &dyn Algorithm) -> Vec<InstanceSpec> {
    let mut specs = vec![algo.smallest_spec()];
    for kind in algo.supported_kinds() {
        let extra = match kind {
            InstanceKind::Path => Some(InstanceSpec::Path { n: 24 }),
            InstanceKind::WeightTree => Some(InstanceSpec::BalancedWeight { w: 64, delta: 3 }),
            InstanceKind::RandomTree => Some(InstanceSpec::RandomTree {
                n: 48,
                max_degree: 4,
                seed: 3,
            }),
            InstanceKind::LowerBound => Some(InstanceSpec::Theorem11 { n: 400, k: 2 }),
            InstanceKind::Adversarial => Some(InstanceSpec::Spider {
                legs: 3,
                leg_len: 8,
            }),
            // Weighted parameters (Δ, d, k) are algorithm-specific; the
            // smallest spec above is the canonical small instance.
            InstanceKind::Weighted => None,
        };
        if let Some(s) = extra {
            if s.kind() == *kind && !specs.contains(&s) {
                specs.push(s);
            }
        }
    }
    specs
}

/// Runs the full differential protocol for one algorithm on one spec.
fn differential_on(algo: &'static dyn Algorithm, spec: InstanceSpec, problem: Option<ProblemSpec>) {
    let instance = spec
        .build()
        .unwrap_or_else(|e| panic!("{}: {} failed to build: {e}", algo.name(), spec.describe()));
    let n = instance.node_count();
    let chunk_sizes = [1, 7, 64, n.max(1)];
    for seed in 0..8u64 {
        let ctx = format!("{} on {} seed {seed}", algo.name(), spec.describe());
        let mut base = RunConfig::seeded(seed);
        if let Some(p) = &problem {
            base = base.with_problem(p.clone());
        }
        let plan = oracle(algo, &instance, &base);
        assert_eq!(plan.labels.len(), n, "{ctx}: oracle labels");
        assert_eq!(plan.rounds.len(), n, "{ctx}: oracle rounds");
        // The summary every record must carry, from the oracle's rounds by
        // definition rather than through `TerminationProfile`: a count per
        // round, the `⌈n/2⌉`-th smallest round, the exact sum over `n` and
        // the largest round.
        let mut counts: BTreeMap<u64, u64> = BTreeMap::new();
        for &r in &plan.rounds {
            *counts.entry(r).or_insert(0) += 1;
        }
        let histogram: Vec<RoundBin> = counts
            .into_iter()
            .map(|(round, count)| RoundBin { round, count })
            .collect();
        let mut sorted = plan.rounds.clone();
        sorted.sort_unstable();
        let median = sorted[n.div_ceil(2) - 1];
        let total: u128 = plan.rounds.iter().map(|&r| u128::from(r)).sum();
        let node_averaged = total as f64 / n as f64;
        let worst_case = sorted[n - 1];

        // Frozen pre-chunking engine, same protocol, same outcome.
        reference_check(algo, &instance, &base, &plan, &ctx);

        // Chunked engine: every chunk size in {1, 7, 64, n} for every
        // seed, alternating worker counts across the seeds.
        for chunk_size in chunk_sizes {
            let threads = 1 + (seed % 2) as usize;
            let mut cfg = RunConfig::seeded(seed).with_engine(EngineConfig {
                chunk_size,
                threads,
                check_arena: true,
                shard: None,
            });
            if let Some(p) = &problem {
                cfg = cfg.with_problem(p.clone());
            }
            let record = algo
                .run(&instance, &cfg)
                .unwrap_or_else(|e| panic!("{ctx}: engine run (cs={chunk_size}) failed: {e}"));
            assert_eq!(record.engine, "chunked", "{ctx}");
            assert!(record.verified, "{ctx}: verification cs={chunk_size}");
            assert_eq!(record.labels, plan.labels, "{ctx}: labels cs={chunk_size}");
            assert_eq!(record.rounds, plan.rounds, "{ctx}: rounds cs={chunk_size}");
            assert_eq!(
                record.histogram, histogram,
                "{ctx}: histogram cs={chunk_size}"
            );
            assert_eq!(record.median_round, median, "{ctx}: median cs={chunk_size}");
            assert_eq!(
                record.node_averaged.to_bits(),
                node_averaged.to_bits(),
                "{ctx}: node average cs={chunk_size}"
            );
            assert_eq!(
                record.worst_case, worst_case,
                "{ctx}: worst case cs={chunk_size}"
            );
        }
    }
}

fn assert_engines_agree(algo: &'static dyn Algorithm) {
    for spec in small_specs(algo) {
        differential_on(algo, spec, None);
    }
}

fn by_name(name: &str) -> &'static dyn Algorithm {
    resolver()
        .find(name)
        .unwrap_or_else(|| panic!("`{name}` not in registry"))
}

// One test per algorithm so the suite parallelizes across test threads and
// a divergence names its algorithm in the failing test.

#[test]
fn differential_two_coloring() {
    assert_engines_agree(by_name("two-coloring"));
}

#[test]
fn differential_linial() {
    assert_engines_agree(by_name("linial"));
}

#[test]
fn differential_randomized() {
    assert_engines_agree(by_name("randomized"));
}

#[test]
fn differential_generic_coloring() {
    assert_engines_agree(by_name("generic-coloring"));
}

#[test]
fn differential_apoly() {
    assert_engines_agree(by_name("apoly"));
}

#[test]
fn differential_a35() {
    assert_engines_agree(by_name("a35"));
}

#[test]
fn differential_weight_augmented() {
    assert_engines_agree(by_name("weight-augmented"));
}

#[test]
fn differential_dfree_a() {
    assert_engines_agree(by_name("dfree-a"));
}

#[test]
fn differential_fast_decomposition() {
    assert_engines_agree(by_name("fast-decomposition"));
}

#[test]
fn differential_labeling_solver() {
    assert_engines_agree(by_name("labeling-solver"));
}

#[test]
fn differential_path_lcl() {
    assert_engines_agree(by_name("path-lcl"));
}

#[test]
fn differential_path_lcl_rigid_table() {
    // 2-coloring decides Linear: the rigid endpoint-wave protocol, the
    // one path-lcl timing the default 3-coloring problem never takes.
    differential_on(
        by_name("path-lcl"),
        InstanceSpec::Path { n: 24 },
        Some(ProblemSpec::Coloring { colors: 2 }),
    );
}

#[test]
fn differential_scheduled_cast_protocol() {
    // The `ScheduledCast` machine itself, outside any adapter: an
    // adversarial plan (wide round spread, duplicate rounds, round-0
    // nodes) must execute bit-identically on the chunked engine — every
    // chunk size and thread count — and the frozen reference engine.
    use lcl_local::engine::run_sync_with;

    let spec = InstanceSpec::RandomTree {
        n: 48,
        max_degree: 4,
        seed: 3,
    };
    let instance = spec.build().expect("random tree builds");
    let tree = instance.tree();
    let n = instance.node_count();
    let labels: Arc<Vec<u64>> = Arc::new((0..n as u64).map(|v| v.wrapping_mul(7) % 5).collect());
    let rounds: Arc<Vec<u64>> = Arc::new((0..n as u64).map(|v| (v * v) % 23).collect());
    let budget = plan_round_budget(&rounds);
    let ids = Ids::sequential(n);

    let reference = run_reference::<ScheduledCast, _>(
        tree,
        &ids,
        scheduled_cast_factory(labels.clone(), rounds.clone()),
        budget,
    )
    .expect("reference engine run");
    assert_eq!(reference.outputs, *labels, "reference labels");
    assert_eq!(reference.stats.as_slice(), &rounds[..], "reference rounds");

    for chunk_size in [1, 7, 64, n] {
        for threads in [1, 2] {
            let out = run_sync_with(
                tree,
                &ids,
                scheduled_cast_factory(labels.clone(), rounds.clone()),
                budget,
                &EngineConfig {
                    chunk_size,
                    threads,
                    check_arena: true,
                    shard: None,
                },
            )
            .expect("chunked engine run");
            let ctx = format!("scheduled-cast cs={chunk_size} t={threads}");
            assert_eq!(out.outputs, *labels, "{ctx}: labels");
            assert_eq!(out.stats.as_slice(), &rounds[..], "{ctx}: rounds");
        }
    }
}

#[test]
fn every_registry_algorithm_is_covered() {
    // The per-algorithm tests above must never silently fall out of sync
    // with the registry.
    let covered = [
        "two-coloring",
        "linial",
        "randomized",
        "generic-coloring",
        "apoly",
        "a35",
        "weight-augmented",
        "dfree-a",
        "fast-decomposition",
        "labeling-solver",
        "path-lcl",
    ];
    let mut names: Vec<&str> = resolver().algorithms().iter().map(|a| a.name()).collect();
    names.sort_unstable();
    let mut expected: Vec<&str> = covered.to_vec();
    expected.sort_unstable();
    assert_eq!(names, expected);
}
