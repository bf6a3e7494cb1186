//! The four workloads and how the workload seed turns into their inputs.
//!
//! The seed picks, per job, one entry of a small fixed pool of run seeds
//! (IDs, coins) and random-tree seeds, and for `service-mix` the draw order
//! of `(preset, seed)` requests. Pooling keeps every input the seed can
//! produce covered by the pinned fingerprints in `expected/pins.json`.

use lcl_core::problem_spec::ProblemSpec;
use lcl_harness::{InstanceSpec, ShardConfig};

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: &[&str] = &["sparse-tail", "dense-rounds", "structural", "service-mix"];

/// Run seeds and random-tree seeds a batch job can draw.
pub const SEED_POOL: usize = 4;

/// Input size: the measured scale, or the tiny scale the tests use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The sizes the benchmark measures.
    Full,
    /// Sizes small enough for `cargo test`.
    Tiny,
}

impl Scale {
    /// `full` or `tiny`.
    pub fn name(self) -> &'static str {
        match self {
            Scale::Full => "full",
            Scale::Tiny => "tiny",
        }
    }

    fn pick(self, full: usize, tiny: usize) -> usize {
        match self {
            Scale::Full => full,
            Scale::Tiny => tiny,
        }
    }
}

/// One batch job: a problem planned at size `n`, optionally forced onto a
/// named solver, instance family or sharded executor.
#[derive(Debug, Clone)]
pub struct Job {
    /// Stable label: `<solver>/<instance family>[/<variant>]`.
    pub label: &'static str,
    /// The declarative problem handed to the planner.
    pub problem: ProblemSpec,
    /// Target size.
    pub n: usize,
    /// Solver to run instead of the planner's first choice (it must bid on
    /// the problem).
    pub solver: Option<&'static str>,
    /// Instance to run on instead of the problem's canonical family.
    pub spec: Option<InstanceSpec>,
    /// Sharded-executor knobs; `None` runs the default monolithic engine.
    pub shard: Option<ShardConfig>,
    /// Run seed (IDs, coins).
    pub seed: u64,
    /// Index into the seed pool the run seed came from.
    pub pool: usize,
}

impl Job {
    /// The key of this job's fingerprint in the pins file.
    pub fn pin_key(&self, workload: &str) -> String {
        format!("{workload}/{}/n={}/pool={}", self.label, self.n, self.pool)
    }
}

/// SplitMix64: the benchmark's only source of pseudo-randomness.
pub fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

fn label_hash(label: &str) -> u64 {
    label.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The seed-pool index a workload seed selects for a job.
pub fn pool_index(seed: u64, label: &str) -> usize {
    (splitmix(seed ^ label_hash(label)) % SEED_POOL as u64) as usize
}

fn coloring(colors: usize) -> ProblemSpec {
    ProblemSpec::Coloring { colors }
}

fn preset(name: &str) -> ProblemSpec {
    ProblemSpec::preset(name).unwrap_or_else(|| panic!("`{name}` is a workspace preset"))
}

/// Builds a job with pool entry `pool`; random-tree instances get the
/// pool's tree seed.
fn job(
    label: &'static str,
    problem: ProblemSpec,
    n: usize,
    solver: Option<&'static str>,
    random_tree: bool,
    shard: Option<ShardConfig>,
    pool: usize,
) -> Job {
    let spec = random_tree.then_some(InstanceSpec::RandomTree {
        n,
        max_degree: 4,
        seed: 11 + pool as u64,
    });
    Job {
        label,
        problem,
        n,
        solver,
        spec,
        shard,
        seed: 1 + pool as u64,
        pool,
    }
}

/// The job list of a batch workload, each job's pool entry chosen by `pick`.
pub fn batch_jobs_with(
    workload: &str,
    scale: Scale,
    mut pick: impl FnMut(&str) -> usize,
) -> Option<Vec<Job>> {
    let s = scale;
    let mut mk = |label: &'static str,
                  problem: ProblemSpec,
                  n: usize,
                  solver: Option<&'static str>,
                  random_tree: bool,
                  shard: Option<ShardConfig>| {
        let pool = pick(label);
        job(label, problem, n, solver, random_tree, shard, pool)
    };
    let jobs = match workload {
        // A Θ(n)-round wave behind two nodes, and O(1) node-averaged
        // coloring with a log-depth tail: per-round engine cost dominates.
        "sparse-tail" => vec![
            mk(
                "two-coloring/path",
                coloring(2),
                s.pick(20_000, 300),
                None,
                false,
                None,
            ),
            mk(
                "randomized/path",
                coloring(3),
                s.pick(1_000_000, 2_000),
                Some("randomized"),
                false,
                None,
            ),
        ],
        // Every node steps and sends every round.
        "dense-rounds" => vec![
            mk(
                "linial/path",
                coloring(3),
                s.pick(250_000, 2_000),
                None,
                false,
                None,
            ),
            mk(
                "path-lcl/path",
                coloring(3),
                s.pick(250_000, 2_000),
                Some("path-lcl"),
                false,
                None,
            ),
            // Smaller than its monolithic twin: spilling makes this job's
            // time swing up to 2x between runs, so it is kept to a small
            // share of the pass and is not the list's slowest job.
            mk(
                "linial/path/sharded",
                coloring(3),
                s.pick(50_000, 2_000),
                None,
                false,
                Some(ShardConfig {
                    shards: 4,
                    max_resident: 2,
                    packing: true,
                }),
            ),
        ],
        // Structural solvers: the engine only replays a precomputed plan.
        "structural" => vec![
            mk(
                "dfree-a/random-tree",
                preset("dfree-anchored"),
                s.pick(200_000, 1_000),
                None,
                true,
                None,
            ),
            mk(
                "labeling-solver/random-tree",
                preset("labeling-k2"),
                s.pick(200_000, 1_000),
                None,
                true,
                None,
            ),
            mk(
                "fast-decomposition/balanced-weight",
                preset("dfree-decay"),
                s.pick(200_000, 1_000),
                None,
                false,
                None,
            ),
            mk(
                "apoly/weighted-poly",
                preset("weighted-poly"),
                s.pick(60_000, 2_000),
                None,
                false,
                None,
            ),
            mk(
                "a35/weighted-logstar",
                preset("weighted-logstar"),
                s.pick(60_000, 2_000),
                None,
                false,
                None,
            ),
            mk(
                "weight-augmented/weighted-unit",
                preset("weight-augmented-k2"),
                s.pick(60_000, 2_000),
                None,
                false,
                None,
            ),
            mk(
                "generic-coloring/theorem11",
                preset("theorem11-k2"),
                s.pick(60_000, 1_000),
                None,
                false,
                None,
            ),
        ],
        _ => return None,
    };
    Some(jobs)
}

/// The job list of a batch workload under workload seed `seed`.
pub fn batch_jobs(workload: &str, scale: Scale, seed: u64) -> Option<Vec<Job>> {
    batch_jobs_with(workload, scale, |label| pool_index(seed, label))
}

/// Shape of the `service-mix` load.
#[derive(Debug, Clone, Copy)]
pub struct MixShape {
    /// Instance size of every solve.
    pub n: usize,
    /// Solve requests per pass.
    pub jobs: usize,
    /// Service worker threads.
    pub workers: usize,
    /// Closed-loop client connections.
    pub clients: usize,
    /// Service queue capacity.
    pub queue_capacity: usize,
}

/// The `service-mix` load at `scale`.
pub fn mix_shape(scale: Scale) -> MixShape {
    MixShape {
        n: scale.pick(2_000, 300),
        // Multiples of the 52 distinct requests.
        jobs: scale.pick(1_040, 52),
        workers: 2,
        clients: 2,
        queue_capacity: 64,
    }
}

/// Run seeds a `service-mix` request can carry.
pub const MIX_SEEDS: u64 = 4;

/// One `service-mix` request: a preset name and a run seed.
#[derive(Debug, Clone)]
pub struct MixJob {
    /// Preset name.
    pub preset: &'static str,
    /// The preset's problem.
    pub problem: ProblemSpec,
    /// Run seed, `1..=MIX_SEEDS`.
    pub seed: u64,
}

impl MixJob {
    /// The key of this request's fingerprint in the pins file.
    pub fn pin_key(&self, n: usize) -> String {
        format!("service-mix/{}/n={n}/seed={}", self.preset, self.seed)
    }
}

/// Every distinct `(preset, seed)` request of the mix, in preset order.
pub fn mix_universe() -> Vec<MixJob> {
    let mut out = Vec::new();
    for (preset, problem) in ProblemSpec::presets() {
        for seed in 1..=MIX_SEEDS {
            out.push(MixJob {
                preset,
                problem: problem.clone(),
                seed,
            });
        }
    }
    out
}

/// The request sequence of one pass: every `(preset, seed)` request the
/// same number of times, in an order shuffled by the workload seed. Equal
/// counts keep a pass's work the same under every seed; only the order,
/// and so the queueing, varies.
pub fn mix_pass(seed: u64, pass: u64, jobs: usize) -> Vec<MixJob> {
    let universe = mix_universe();
    let mut order: Vec<MixJob> = universe.iter().cycle().take(jobs).cloned().collect();
    let mut state = splitmix(seed ^ (pass << 32));
    for i in (1..order.len()).rev() {
        state = splitmix(state);
        order.swap(i, (state % (i as u64 + 1)) as usize);
    }
    order
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs() {
        for w in &WORKLOADS[..3] {
            let a = batch_jobs(w, Scale::Full, 9).unwrap();
            let b = batch_jobs(w, Scale::Full, 9).unwrap();
            let seeds = |js: &[Job]| {
                js.iter()
                    .map(|j| (j.seed, j.spec.clone()))
                    .collect::<Vec<_>>()
            };
            assert_eq!(seeds(&a), seeds(&b));
        }
        let a: Vec<_> = mix_pass(3, 0, 104)
            .iter()
            .map(|j| (j.preset, j.seed))
            .collect();
        let b: Vec<_> = mix_pass(3, 0, 104)
            .iter()
            .map(|j| (j.preset, j.seed))
            .collect();
        assert_eq!(a, b);
        let c: Vec<_> = mix_pass(4, 0, 104)
            .iter()
            .map(|j| (j.preset, j.seed))
            .collect();
        assert_ne!(a, c, "the seed drives the order");
        let (mut a, mut c) = (a, c);
        a.sort_unstable();
        c.sort_unstable();
        assert_eq!(a, c, "every seed sends the same requests");
    }

    #[test]
    fn seeds_vary_the_inputs() {
        let pools: std::collections::BTreeSet<Vec<usize>> = (0..16)
            .map(|s| {
                batch_jobs("structural", Scale::Full, s)
                    .unwrap()
                    .iter()
                    .map(|j| j.pool)
                    .collect()
            })
            .collect();
        assert!(pools.len() > 4, "{pools:?}");
    }

    #[test]
    fn mix_instances_outnumber_the_instance_cache() {
        let specs: std::collections::BTreeSet<String> = mix_universe()
            .iter()
            .map(|j| lcl_harness::canonical_instance(&j.problem, 2_000).describe())
            .collect();
        assert!(specs.len() > 8, "{specs:?}");
    }
}
