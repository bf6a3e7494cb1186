//! Differential suite for the partitioned out-of-core executor
//! (`lcl_shard`).
//!
//! Every registry algorithm runs through its production adapter twice: once
//! on the monolithic chunked engine (the baseline) and once per point of
//! the `ShardConfig` grid — shard counts `{1, 2, 4, 7}` × residency limits
//! `max_resident ∈ {1, 2, 0 (= all)}` × bit-`packing` on/off — with worker
//! threads alternating across seeds. Labels, per-node rounds, and
//! termination histograms must be **bit-identical** to the baseline at
//! every grid point; a small chunk size keeps shard boundaries non-trivial
//! even on the small differential instances, and `max_resident = 1` forces
//! real spill-pool traffic through every run. CI runs this suite plain and
//! under `--features arena-check` (the sharded double-write detector).
//!
//! The grid literals double as ground truth for the analyzer's `LCL-X05`
//! crosscheck: every `ShardConfig` knob (`shards`, `max_resident`,
//! `packing`) must stay exercised here.

use lcl_core::problem_spec::ProblemSpec;
use lcl_harness::{resolver, Algorithm, InstanceSpec, RunConfig, RunRecord};
use lcl_local::engine::{EngineConfig, ShardConfig};

/// Small enough that shard differentials stay fast, small enough relative
/// to the specs below that every shard count in the grid yields several
/// chunks per shard.
const CHUNK_SIZE: usize = 5;

/// The `ShardConfig` grid of the acceptance criteria.
const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 7];
/// `0` resolves to "all shards resident" (no spilling).
const MAX_RESIDENTS: [usize; 3] = [1, 2, 0];
const PACKING: [bool; 2] = [true, false];

fn engine(shard: Option<ShardConfig>, threads: usize) -> EngineConfig {
    EngineConfig {
        chunk_size: CHUNK_SIZE,
        threads,
        check_arena: false,
        shard,
    }
}

fn run_with(
    algo: &dyn Algorithm,
    spec: &InstanceSpec,
    problem: Option<&ProblemSpec>,
    seed: u64,
    shard: Option<ShardConfig>,
    threads: usize,
) -> RunRecord {
    let instance = spec
        .build()
        .unwrap_or_else(|e| panic!("{}: {} failed to build: {e}", algo.name(), spec.describe()));
    let mut cfg = RunConfig::seeded(seed).with_engine(engine(shard, threads));
    if let Some(p) = problem {
        cfg = cfg.with_problem(p.clone());
    }
    algo.run(&instance, &cfg)
        .unwrap_or_else(|e| panic!("{}: {} failed to run: {e}", algo.name(), spec.describe()))
}

/// Runs the full shard grid for one algorithm on one spec and demands
/// bit-identity with the monolithic baseline everywhere.
fn shard_grid_matches(
    algo: &'static dyn Algorithm,
    spec: InstanceSpec,
    problem: Option<ProblemSpec>,
) {
    for seed in 0..2u64 {
        let threads = 1 + (seed % 2) as usize;
        let baseline = run_with(algo, &spec, problem.as_ref(), seed, None, threads);
        assert_eq!(baseline.engine, "chunked");
        for shards in SHARD_COUNTS {
            for max_resident in MAX_RESIDENTS {
                for packing in PACKING {
                    let shard = ShardConfig {
                        shards,
                        max_resident,
                        packing,
                    };
                    let ctx = format!(
                        "{} on {} seed {seed} threads {threads} {shard:?}",
                        algo.name(),
                        spec.describe()
                    );
                    let record =
                        run_with(algo, &spec, problem.as_ref(), seed, Some(shard), threads);
                    assert_eq!(record.engine, "sharded", "{ctx}");
                    assert!(record.verified, "{ctx}: verification");
                    assert_eq!(record.labels, baseline.labels, "{ctx}: labels");
                    assert_eq!(record.rounds, baseline.rounds, "{ctx}: rounds");
                    assert_eq!(record.histogram, baseline.histogram, "{ctx}: histogram");
                    assert_eq!(record.profile(), baseline.profile(), "{ctx}: profile");
                    assert_eq!(record.median_round, baseline.median_round, "{ctx}: median");
                    assert_eq!(
                        record.node_averaged, baseline.node_averaged,
                        "{ctx}: node-averaged"
                    );
                    assert!(
                        record.peak_arena_bytes > 0,
                        "{ctx}: sharded runs report their arena high-water mark"
                    );
                }
            }
        }
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
fn shard_differential_two_coloring() {
    shard_grid_matches(by_name("two-coloring"), InstanceSpec::Path { n: 41 }, None);
}

#[test]
fn shard_differential_linial() {
    shard_grid_matches(by_name("linial"), InstanceSpec::Path { n: 41 }, None);
}

#[test]
fn shard_differential_randomized() {
    shard_grid_matches(by_name("randomized"), InstanceSpec::Path { n: 41 }, None);
}

#[test]
fn shard_differential_generic_coloring() {
    shard_grid_matches(
        by_name("generic-coloring"),
        InstanceSpec::Theorem11 { n: 400, k: 2 },
        None,
    );
}

#[test]
fn shard_differential_apoly() {
    shard_grid_matches(by_name("apoly"), by_name("apoly").smallest_spec(), None);
}

#[test]
fn shard_differential_a35() {
    shard_grid_matches(by_name("a35"), by_name("a35").smallest_spec(), None);
}

#[test]
fn shard_differential_weight_augmented() {
    shard_grid_matches(
        by_name("weight-augmented"),
        by_name("weight-augmented").smallest_spec(),
        None,
    );
}

#[test]
fn shard_differential_dfree_a() {
    shard_grid_matches(
        by_name("dfree-a"),
        InstanceSpec::BalancedWeight { w: 64, delta: 3 },
        None,
    );
}

#[test]
fn shard_differential_fast_decomposition() {
    shard_grid_matches(
        by_name("fast-decomposition"),
        InstanceSpec::BalancedWeight { w: 64, delta: 3 },
        None,
    );
}

#[test]
fn shard_differential_labeling_solver() {
    shard_grid_matches(
        by_name("labeling-solver"),
        InstanceSpec::RandomTree {
            n: 48,
            max_degree: 4,
            seed: 3,
        },
        None,
    );
}

#[test]
fn shard_differential_path_lcl() {
    shard_grid_matches(by_name("path-lcl"), InstanceSpec::Path { n: 41 }, None);
}

#[test]
fn shard_differential_path_lcl_rigid_table() {
    // 2-coloring decides Linear: the rigid endpoint-wave protocol streams
    // hop counts across every shard boundary for Θ(n) rounds — the
    // hardest halo-exchange workload in the registry.
    shard_grid_matches(
        by_name("path-lcl"),
        InstanceSpec::Path { n: 41 },
        Some(ProblemSpec::Coloring { colors: 2 }),
    );
}

#[test]
fn shard_differential_adversarial_shape() {
    // A spider's hub concentrates cut edges on one shard boundary node;
    // the halo routing must still be exact.
    shard_grid_matches(
        by_name("labeling-solver"),
        InstanceSpec::Spider {
            legs: 5,
            leg_len: 9,
        },
        None,
    );
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

#[test]
fn spilling_is_actually_exercised() {
    // `max_resident = 1` with 4 shards must beat the all-resident peak:
    // proof the grid's residency limits genuinely spill instead of
    // silently keeping everything in memory.
    let algo = by_name("two-coloring");
    let spec = InstanceSpec::Path { n: 41 };
    let spilled = run_with(
        algo,
        &spec,
        None,
        0,
        Some(ShardConfig {
            shards: 4,
            max_resident: 1,
            packing: false,
        }),
        1,
    );
    let all = run_with(
        algo,
        &spec,
        None,
        0,
        Some(ShardConfig {
            shards: 4,
            max_resident: 0,
            packing: false,
        }),
        1,
    );
    assert!(
        spilled.peak_arena_bytes < all.peak_arena_bytes,
        "spilling must lower the high-water mark ({} vs {})",
        spilled.peak_arena_bytes,
        all.peak_arena_bytes
    );
    assert_eq!(spilled.labels, all.labels);
    assert_eq!(spilled.rounds, all.rounds);
}
