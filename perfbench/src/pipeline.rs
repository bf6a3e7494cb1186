//! One batch job, run two ways.
//!
//! [`run_job`] is what a user of the workspace runs: `plan` →
//! `InstanceSpec::build` → `run_timed` → `serde_json` of the `RunRecord`.
//!
//! [`replay_job`] is the traced run. It performs the same job by calling
//! each layer's public functions itself — the planner, the instance
//! generators, the structural solver, the engine (`run_sync_with`, or
//! `run_sharded` for a sharded job), the problem verifier and the record
//! encoder — in the order the harness adapters call them, with one span
//! around each call. Its record must reproduce the untraced record's
//! fingerprint exactly, so the breakdown describes the same program.

use crate::trace::Tracer;
use crate::workloads::Job;
use lcl_algorithms::dfree_a::algorithm_a;
use lcl_algorithms::fast_decomposition::fast_dfree_standalone;
use lcl_algorithms::generic_coloring::generic_coloring_masked;
use lcl_algorithms::labeling_solver::solve_hierarchical_labeling;
use lcl_algorithms::linial::linial_round_count;
use lcl_algorithms::path_lcl_solver::{solve_path_lcl, verify_path_lcl, PathSolveClass};
use lcl_algorithms::protocols::linial::{cascade_space, LinialCascade};
use lcl_algorithms::protocols::path_lcl::PathLclProtocol;
use lcl_algorithms::protocols::randomized::RandomizedColoring;
use lcl_algorithms::protocols::two_coloring::WaveTwoColoring;
use lcl_algorithms::protocols::{plan_round_budget, scheduled_cast_factory};
use lcl_algorithms::weight_augmented_solver::solve_weight_augmented;
use lcl_core::coloring::{ColorLabel, HierarchicalColoring, Variant};
use lcl_core::dfree::{DFreeWeight, DfreeInput, DfreeOutput};
use lcl_core::labeling::{HierarchicalLabeling, LabelingOutput};
use lcl_core::problem::LclProblem;
use lcl_core::problem_spec::PathTable;
use lcl_core::weight_augmented::{AugmentedOutput, SecondaryOutput, WeightAugmented};
use lcl_core::weighted::{WeightedColoring, WeightedOutput};
use lcl_decidability::path_lcl::{PathClass, PathLcl};
use lcl_graph::{NodeMask, Tree};
use lcl_harness::{
    plan, resolver, run_on_construction, run_timed, Instance, Plan, RunConfig, RunRecord,
    WeightedRegime,
};
use lcl_local::engine::{run_sync_with, EngineConfig, NodeContext, Protocol, SyncOutcome};
use lcl_local::identifiers::Ids;
use lcl_local::packed::PackableMessage;
use lcl_service::protocol::fnv1a_u64s;
use std::sync::Arc;
use std::time::Instant;

/// The pinned identity of a job's output.
#[derive(Debug, Clone, PartialEq)]
pub struct Fingerprint {
    /// Built node count.
    pub n: u64,
    /// Node-averaged rounds.
    pub node_averaged: f64,
    /// Worst-case round.
    pub worst_case: u64,
    /// FNV-1a of the label vector.
    pub labels_fnv: u64,
    /// FNV-1a of the per-node round vector.
    pub rounds_fnv: u64,
}

impl Fingerprint {
    /// The fingerprint of a record.
    pub fn of(record: &RunRecord) -> Self {
        Fingerprint {
            n: record.n as u64,
            node_averaged: record.node_averaged,
            worst_case: record.worst_case,
            labels_fnv: fnv1a_u64s(&record.labels),
            rounds_fnv: fnv1a_u64s(&record.rounds),
        }
    }
}

/// Exact work counters of one or more jobs.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counters {
    /// Rounds stepped: the worst-case round of each engine run, summed.
    pub rounds: u64,
    /// Σ per-node termination rounds (the paper's yardstick).
    pub node_rounds: u64,
    /// Messages sent (`SyncOutcome::messages`; traced runs only).
    pub messages: u64,
    /// Largest `peak_arena_bytes` of any engine run.
    pub peak_arena_bytes: u64,
    /// Nodes of the instances built.
    pub nodes_built: u64,
    /// Bytes of the JSON-encoded records.
    pub record_bytes: u64,
    /// Planner calls.
    pub planner_calls: u64,
}

impl Counters {
    /// Accumulates `other` into `self`.
    pub fn add(&mut self, other: &Counters) {
        self.rounds += other.rounds;
        self.node_rounds += other.node_rounds;
        self.messages += other.messages;
        self.peak_arena_bytes = self.peak_arena_bytes.max(other.peak_arena_bytes);
        self.nodes_built += other.nodes_built;
        self.record_bytes += other.record_bytes;
        self.planner_calls += other.planner_calls;
    }
}

/// What one job produced.
#[derive(Debug, Clone)]
pub struct JobOutcome {
    /// Output identity.
    pub fingerprint: Fingerprint,
    /// The record's `verified` flag.
    pub verified: bool,
    /// Work counters.
    pub counters: Counters,
}

/// Plans `job` and applies its overrides (solver, instance, shard knobs).
fn plan_job(job: &Job, t: &mut Tracer) -> Result<Plan, String> {
    let base = RunConfig::seeded(job.seed);
    let mut planned = t
        .time("planner", || plan(&job.problem, job.n, &base))
        .map_err(|e| format!("plan: {e}"))?;
    if let Some(name) = job.solver {
        let solver = resolver()
            .find(name)
            .ok_or_else(|| format!("no solver `{name}`"))?;
        if solver.solves(&job.problem).is_none() {
            return Err(format!(
                "`{name}` does not bid on {}",
                job.problem.describe()
            ));
        }
        planned.solver = solver;
    }
    if let Some(spec) = &job.spec {
        planned.spec = spec.clone();
    }
    if !planned.solver.supports(planned.spec.kind()) {
        return Err(format!(
            "`{}` does not run on {}",
            planned.solver.name(),
            planned.spec.describe()
        ));
    }
    planned.config.engine.shard = job.shard.clone();
    Ok(planned)
}

fn counters_of(record: &RunRecord, nodes_built: usize, record_bytes: usize) -> Counters {
    Counters {
        rounds: record.worst_case,
        node_rounds: record.rounds.iter().sum(),
        messages: 0,
        peak_arena_bytes: record.peak_arena_bytes,
        nodes_built: nodes_built as u64,
        record_bytes: record_bytes as u64,
        planner_calls: 1,
    }
}

/// Runs `job` the way a user does: plan, build, `run_timed`, encode.
/// Returns the seconds from planning to the encoded record, and the
/// outcome (fingerprinted after the clock stops).
///
/// # Errors
///
/// Any planning, build, run or encoding failure, as text.
pub fn run_job(job: &Job) -> Result<(f64, JobOutcome), String> {
    let started = Instant::now();
    let mut off = Tracer::new(false, started);
    let planned = plan_job(job, &mut off)?;
    let instance = planned.spec.build().map_err(|e| format!("build: {e}"))?;
    let record =
        run_timed(planned.solver, &instance, &planned.config).map_err(|e| format!("run: {e}"))?;
    let json = serde_json::to_string(&record).map_err(|e| format!("encode: {e:?}"))?;
    let secs = started.elapsed().as_secs_f64();
    let outcome = JobOutcome {
        fingerprint: Fingerprint::of(&record),
        verified: record.verified,
        counters: counters_of(&record, instance.node_count(), json.len()),
    };
    Ok((secs, outcome))
}

/// Runs `job` layer by layer under spans (see the module docs).
///
/// # Errors
///
/// Any planning, build, solve, verification, engine or encoding failure.
pub fn replay_job(job: &Job, job_id: u64, t: &mut Tracer) -> Result<JobOutcome, String> {
    t.set_job(job_id);
    let root = t.open("job");
    let out = replay_inner(job, t);
    t.close(root);
    let (record, counters) = out?;
    Ok(JobOutcome {
        fingerprint: Fingerprint::of(&record),
        verified: record.verified,
        counters,
    })
}

fn replay_inner(job: &Job, t: &mut Tracer) -> Result<(RunRecord, Counters), String> {
    let planned = plan_job(job, t)?;
    let instance = t
        .time("instance.build", || planned.spec.build())
        .map_err(|e| format!("build: {e}"))?;
    let started = Instant::now();
    let run = replay_solver(planned.solver.name(), &instance, &planned.config, t)?;
    let cfg = &planned.config;
    let engine_tag = if cfg.engine.shard.is_some() {
        "sharded"
    } else {
        "chunked"
    };
    let mut record = RunRecord::from_rounds(
        planned.solver.name(),
        instance.spec(),
        cfg.seed,
        run.labels,
        run.rounds,
        run.waiting,
        cfg.verify,
    )
    .on_engine(engine_tag)
    .with_peak_arena_bytes(run.counters.peak_arena_bytes);
    let secs = started.elapsed().as_secs_f64();
    record.elapsed_ms = secs * 1_000.0;
    record.engine_nodes_per_sec = record.n as f64 / secs.max(1e-9);
    let json = t
        .time("encode.record", || serde_json::to_string(&record))
        .map_err(|e| format!("encode: {e:?}"))?;
    let mut counters = run.counters;
    counters.nodes_built = instance.node_count() as u64;
    counters.record_bytes = json.len() as u64;
    counters.planner_calls = 1;
    Ok((record, counters))
}

/// Labels, rounds and counters of one replayed solver run.
struct Replayed {
    labels: Vec<u64>,
    rounds: Vec<u64>,
    waiting: Option<f64>,
    counters: Counters,
}

fn engine_counters<O>(outcome: &SyncOutcome<O>) -> Counters {
    Counters {
        rounds: outcome.stats.worst_case(),
        node_rounds: outcome.stats.total() as u64,
        messages: outcome.messages,
        peak_arena_bytes: outcome.peak_arena_bytes,
        ..Counters::default()
    }
}

/// One engine run under an `engine` span: the monolithic engine, or the
/// sharded executor when the config carries shard knobs.
fn engine<P, F>(
    tree: &Tree,
    ids: &Ids,
    factory: F,
    budget: u64,
    cfg: &EngineConfig,
    t: &mut Tracer,
) -> Result<SyncOutcome<P::Output>, String>
where
    P: Protocol,
    P::Message: PackableMessage,
    F: FnMut(&NodeContext) -> P,
{
    t.time("engine", || {
        if cfg.shard.is_some() {
            lcl_shard::run_sharded(tree, ids, factory, budget, cfg).map_err(|e| e.to_string())
        } else {
            run_sync_with(tree, ids, factory, budget, cfg).map_err(|e| e.to_string())
        }
    })
    .map_err(|e| format!("engine: {e}"))
}

/// Executes a structurally solved plan as `ScheduledCast` machines and
/// checks the engine reproduced it.
fn run_plan(
    instance: &Instance,
    cfg: &RunConfig,
    labels: Vec<u64>,
    rounds: Vec<u64>,
    waiting: Option<f64>,
    t: &mut Tracer,
) -> Result<Replayed, String> {
    let budget = plan_round_budget(&rounds);
    let labels = Arc::new(labels);
    let rounds = Arc::new(rounds);
    let ids = Ids::sequential(instance.node_count());
    let factory = scheduled_cast_factory(labels.clone(), rounds.clone());
    let outcome = engine(instance.tree(), &ids, factory, budget, &cfg.engine, t)?;
    if outcome.outputs != *labels || outcome.stats.as_slice() != rounds.as_slice() {
        return Err("engine outcome diverges from the solved plan".into());
    }
    Ok(Replayed {
        counters: engine_counters(&outcome),
        rounds: outcome.stats.as_slice().to_vec(),
        labels: outcome.outputs,
        waiting,
    })
}

fn from_outcome<O>(outcome: &SyncOutcome<O>, labels: Vec<u64>) -> Replayed {
    Replayed {
        counters: engine_counters(outcome),
        rounds: outcome.stats.as_slice().to_vec(),
        labels,
        waiting: None,
    }
}

fn check_proper<T: PartialEq>(tree: &Tree, colors: &[T]) -> Result<(), String> {
    match tree.edges().find(|&(u, v)| colors[u] == colors[v]) {
        Some((u, v)) => Err(format!("edge ({u}, {v}) is monochromatic")),
        None => Ok(()),
    }
}

fn verified(name: &str, result: Result<(), impl std::fmt::Display>) -> Result<(), String> {
    result.map_err(|e| format!("{name} failed verification: {e}"))
}

fn k_of(instance: &Instance, name: &str) -> Result<usize, String> {
    instance
        .spec()
        .hierarchy_k()
        .ok_or_else(|| format!("`{name}` needs a spec carrying k"))
}

fn dfree_inputs(n: usize, with_anchor: bool) -> Vec<DfreeInput> {
    let mut input = vec![DfreeInput::Weight; n];
    if with_anchor && n > 0 {
        input[0] = DfreeInput::Adjacent;
    }
    input
}

/// The adapters' per-solver pipelines, one span per layer call.
fn replay_solver(
    name: &str,
    instance: &Instance,
    cfg: &RunConfig,
    t: &mut Tracer,
) -> Result<Replayed, String> {
    let tree = instance.tree();
    let n = instance.node_count();
    let span = |layer: &str| format!("{layer}.{name}");
    match name {
        "two-coloring" => {
            let ids = Ids::random(n, cfg.seed);
            let out = engine(
                tree,
                &ids,
                |_| WaveTwoColoring::new(),
                n as u64 + 2,
                &cfg.engine,
                t,
            )?;
            t.time(&span("verify"), || {
                verified(name, check_proper(tree, &out.outputs))
            })?;
            let labels = out.outputs.iter().map(|&c| color_code(c)).collect();
            Ok(from_outcome(&out, labels))
        }
        "linial" => {
            let ids = Ids::random(n, cfg.seed);
            let space = cascade_space(&ids, 2);
            let budget = linial_round_count(space, 2) + 2;
            let out = engine(
                tree,
                &ids,
                |c| LinialCascade::new(c.id, space, 2),
                budget,
                &cfg.engine,
                t,
            )?;
            t.time(&span("verify"), || {
                verified(name, check_proper(tree, &out.outputs))?;
                match out.outputs.iter().find(|&&c| c > 2) {
                    Some(c) => Err(format!("color {c} outside the 3-color palette")),
                    None => Ok(()),
                }
            })?;
            let labels = out.outputs.clone();
            Ok(from_outcome(&out, labels))
        }
        "randomized" => {
            let ids = Ids::sequential(n);
            let seed = cfg.seed;
            let out = engine(
                tree,
                &ids,
                |c| RandomizedColoring::new(seed, c.id as usize),
                RandomizedColoring::round_budget(n),
                &cfg.engine,
                t,
            )?;
            t.time(&span("verify"), || {
                verified(name, check_proper(tree, &out.outputs))
            })?;
            let labels = out.outputs.iter().map(|&c| color_code(c)).collect();
            Ok(from_outcome(&out, labels))
        }
        "path-lcl" => {
            let table = match &cfg.problem {
                Some(p) => p
                    .path_table()
                    .ok_or_else(|| format!("`path-lcl` cannot run {}", p.describe()))?,
                None => PathTable::proper_coloring(3),
            };
            table.validate()?;
            let class = t.time(&span("prepare"), || {
                PathLcl::new(table.matrix(), table.end_vec()).classify()
            });
            let class = match class {
                PathClass::Constant => PathSolveClass::Constant,
                PathClass::LogStar => PathSolveClass::LogStar,
                PathClass::Linear => PathSolveClass::Linear,
                PathClass::Unsolvable => return Err("unsolvable path table".into()),
            };
            let ids = Ids::random(n, cfg.seed);
            let solved = t.time(&span("prepare"), || {
                solve_path_lcl(tree, &table, class, &ids)
            })?;
            t.time(&span("verify"), || {
                verified(name, verify_path_lcl(tree, &table, &solved.outputs))
            })?;
            let labels = Arc::new(solved.outputs);
            let rounds = Arc::new(solved.rounds);
            let budget = plan_round_budget(&rounds);
            let (l, r) = (labels.clone(), rounds.clone());
            let out = engine(
                tree,
                &ids,
                move |c| match class {
                    PathSolveClass::Linear => PathLclProtocol::rigid(l[c.node]),
                    _ => PathLclProtocol::at_round(r[c.node], l[c.node]),
                },
                budget,
                &cfg.engine,
                t,
            )?;
            if out.outputs != *labels || out.stats.as_slice() != rounds.as_slice() {
                return Err("engine outcome diverges from the solved plan".into());
            }
            let labels = out.outputs.clone();
            Ok(from_outcome(&out, labels))
        }
        "generic-coloring" => {
            let k = k_of(instance, name)?;
            let ids = Ids::random(n, cfg.seed);
            let gammas = cfg.scale_gammas(&lcl_core::params::theorem11_gammas(
                n.max(instance.requested_n()),
                k,
            ));
            let mask = NodeMask::full(n);
            let levels = t.time("instance.levels", || instance.levels(k));
            let masked = t.time(&span("prepare"), || {
                generic_coloring_masked(tree, &mask, &levels, Variant::ThreeHalf, &gammas, &ids)
            });
            let outputs: Vec<ColorLabel> = masked
                .outputs
                .into_iter()
                .collect::<Option<_>>()
                .ok_or("a full mask decides everywhere")?;
            t.time(&span("verify"), || {
                verified(
                    name,
                    HierarchicalColoring::new(k, Variant::ThreeHalf).verify(
                        tree,
                        &vec![(); n],
                        &outputs,
                    ),
                )
            })?;
            let labels = outputs.iter().map(|&c| color_code(c)).collect();
            run_plan(instance, cfg, labels, masked.rounds, None, t)
        }
        "apoly" | "a35" => {
            let (variant, regime) = if name == "apoly" {
                (Variant::TwoHalf, WeightedRegime::Poly)
            } else {
                (Variant::ThreeHalf, WeightedRegime::LogStar)
            };
            let construction = instance
                .construction()
                .ok_or("weighted solvers need a construction")?;
            let k = k_of(instance, name)?;
            let d = instance
                .spec()
                .decline_d()
                .or(cfg.d)
                .ok_or("weighted solvers need d")?;
            let ids = Ids::random(n, cfg.seed);
            let run = t.time(&span("prepare"), || {
                run_on_construction(construction, k, d, &ids, regime)
            });
            t.time(&span("verify"), || {
                let problem = WeightedColoring::new(variant, construction.delta(), d, k)?;
                verified(
                    name,
                    problem.verify(tree, construction.kinds(), &run.outputs),
                )
            })?;
            let waiting: u128 = run
                .outputs
                .iter()
                .zip(&run.rounds)
                .filter(|(o, _)| !matches!(o, WeightedOutput::Decline | WeightedOutput::Connect))
                .map(|(_, &r)| u128::from(r))
                .sum();
            let waiting = waiting as f64 / run.outputs.len() as f64;
            let labels = run.outputs.iter().map(weighted_code).collect();
            run_plan(instance, cfg, labels, run.rounds, Some(waiting), t)
        }
        "weight-augmented" => {
            let construction = instance
                .construction()
                .ok_or("weight-augmented needs a construction")?;
            let k = k_of(instance, name)?;
            let ids = Ids::random(n, cfg.seed);
            let run = t.time(&span("prepare"), || {
                solve_weight_augmented(tree, construction.kinds(), k, &ids)
            });
            t.time(&span("verify"), || {
                verified(
                    name,
                    WeightAugmented::new(k).verify(tree, construction.kinds(), &run.outputs),
                )
            })?;
            let labels = run.outputs.iter().map(augmented_code).collect();
            run_plan(instance, cfg, labels, run.rounds, None, t)
        }
        "dfree-a" | "fast-decomposition" => {
            let anchored = name == "dfree-a";
            let d = cfg.d.unwrap_or(if anchored { 2 } else { 3 }).max(1);
            let mask = NodeMask::full(n);
            let input = dfree_inputs(n, anchored);
            let (outputs, rounds) = t.time(&span("prepare"), || {
                if anchored {
                    let run = algorithm_a(tree, &mask, &input, d, n);
                    (run.outputs, vec![run.radius; n])
                } else {
                    let run = fast_dfree_standalone(tree, &mask, &input, d);
                    (run.outputs, run.rounds)
                }
            });
            let outputs: Vec<DfreeOutput> = outputs
                .into_iter()
                .collect::<Option<_>>()
                .ok_or("a full-mask run decides everywhere")?;
            t.time(&span("verify"), || {
                verified(name, DFreeWeight::new(d).verify(tree, &input, &outputs))
            })?;
            let labels = outputs.iter().map(|&o| dfree_code(o)).collect();
            run_plan(instance, cfg, labels, rounds, None, t)
        }
        "labeling-solver" => {
            let k = cfg.k.or(instance.spec().hierarchy_k()).unwrap_or(2).max(1);
            let solution = t.time(&span("prepare"), || solve_hierarchical_labeling(tree, k));
            t.time(&span("verify"), || {
                verified(
                    name,
                    HierarchicalLabeling::new(k).verify(tree, &vec![(); n], &solution.run.outputs),
                )
            })?;
            let labels = solution.run.outputs.iter().map(labeling_code).collect();
            run_plan(instance, cfg, labels, solution.run.rounds, None, t)
        }
        other => Err(format!("no traced pipeline for solver `{other}`")),
    }
}

// The harness adapters' canonical u64 label encodings (the pinned label
// checksums depend on them).

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
