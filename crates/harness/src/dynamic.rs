//! Dynamic-tree churn sessions with incremental re-solving.
//!
//! A [`DynamicSession`] owns a tree, a solver, and the solver's current
//! labeling, and advances through a [`ChurnScript`]: each
//! [`step`](DynamicSession::step) applies one seeded batch of tree surgery
//! (leaf insertions, subtree deletions, re-hangs — see
//! [`lcl_graph::surgery`]) and then brings the labeling back in sync with
//! the mutated topology.
//!
//! How the re-solve happens depends on the solver's
//! [`churn_radius`](crate::Algorithm::churn_radius):
//!
//! - **Local solvers** (`Some(T)`) promise that a node's output and
//!   termination round depend only on its distance-`T` ball plus
//!   churn-surviving per-node state (persistent id, coins keyed on it).
//!   The session marks every node within `T` of a batch-touched node as
//!   *dirty*, extracts the components induced by the radius-`2T + 1` ball
//!   around the touch set, and runs the solver on each component as an
//!   instance of its own through [`Algorithm::run`] — verification off,
//!   under a [`SessionScope`] carrying the component's persistent ids. It
//!   splices the recomputed labels and rounds back for the dirty nodes
//!   only — corruption from the truncated region boundary needs `T + 1`
//!   rounds to reach a dirty node, one round past its termination, so the
//!   spliced values are *bit-identical* to a from-scratch run.
//! - **Global solvers** (`None`) fall back to a full re-solve through
//!   [`Algorithm::run`] under the same session
//!   scope; the incremental and baseline paths are then literally the
//!   same code path.
//!
//! [`full_resolve`](DynamicSession::full_resolve) runs the from-scratch
//! baseline on the current tree under the *same* [`SessionScope`] — the
//! differential suite demands bit-identical labels and rounds between a
//! stepped session and its baseline after every batch.
//!
//! Construction-bound instance families (the weighted constructions, the
//! Theorem 11 lower-bound graphs) have no meaningful notion of topological
//! surgery — their gadget structure *is* the instance. For those the
//! session runs in *parameter mode*: each batch deterministically grows the
//! spec's size parameter and rebuilds, so every solver of the registry can
//! ride the same script/driver machinery.

use crate::algorithm::{run_timed, RunConfig, RunRecord, SessionScope};
use crate::instance::{HarnessError, Instance, InstanceKind, InstanceSpec};
use crate::registry::resolver;
use crate::Algorithm;
use lcl_core::churn::ChurnScript;
use lcl_graph::surgery::{churn_batch, extract_components, OpWeights, ShapeDiscipline};
use lcl_graph::{NodeId, Tree};
use std::sync::Arc;
use std::time::Instant;

/// How a session keeps the instance valid across batches.
#[derive(Debug, Clone, Copy)]
enum Mode {
    /// Plain-tree instances: genuine tree surgery under a shape
    /// discipline, incremental re-solving where the solver is local.
    Surgery(ShapeDiscipline),
    /// Construction-bound instances: each batch grows the spec's size
    /// parameter and rebuilds from scratch (surgery would destroy the
    /// gadget structure the solver depends on).
    Parameter,
}

/// The outcome of one [`DynamicSession::step`].
#[derive(Debug, Clone)]
pub struct StepOutcome {
    /// 0-based index of the batch this step applied.
    pub batch: u64,
    /// Node count after the batch.
    pub n: usize,
    /// Whether the dirty-region incremental path produced the labeling
    /// (`false` = full re-solve, either by solver class or by fallback).
    pub incremental: bool,
    /// Nodes whose labels were recomputed (`n` on a full re-solve).
    pub dirty: usize,
    /// Nodes covered by the extracted region (`n` on a full re-solve).
    pub region: usize,
    /// Wall-clock milliseconds of the whole step (surgery + re-solve +
    /// splice).
    pub elapsed_ms: f64,
    /// Wall-clock milliseconds of the re-solve alone (dirty-region
    /// extraction, region runs, and splice — or the full re-solve),
    /// excluding the surgery and state remap. This is the number the
    /// incremental-vs-full benchmark compares.
    pub resolve_ms: f64,
    /// The session's labeling after this step, as a standard record.
    pub record: RunRecord,
}

/// A churn session: a tree, a solver, and a labeling kept in sync across
/// scripted batches of tree surgery.
///
/// # Examples
///
/// ```
/// use lcl_core::ChurnScript;
/// use lcl_harness::{DynamicSession, InstanceSpec, RunConfig};
///
/// let script = ChurnScript::preset("leaf-growth").unwrap().with_volume(2, 8);
/// let mut session = DynamicSession::new(
///     "linial",
///     InstanceSpec::Path { n: 200 },
///     script,
///     RunConfig::seeded(7),
/// )?;
/// let out = session.step()?;
/// assert_eq!(out.batch, 0);
/// // The incremental labeling is bit-identical to a from-scratch run.
/// let baseline = session.full_resolve()?;
/// assert_eq!(baseline.labels, session.labels());
/// # Ok::<(), lcl_harness::HarnessError>(())
/// ```
pub struct DynamicSession {
    algo: &'static dyn Algorithm,
    base: InstanceSpec,
    script: ChurnScript,
    cfg: RunConfig,
    mode: Mode,
    tree: Tree,
    /// Persistent id of every current node (aligned with `tree`); shared
    /// with every scope handed out, and replaced wholesale by each batch.
    ids: Arc<Vec<u64>>,
    /// Next fresh persistent id (ids are never reused).
    next_id: u64,
    /// Frozen id-space bound; only grows, and growing it forces a full
    /// re-solve (id-space-driven cascades restart under the new bound).
    space: u64,
    /// Monotone maximum of the node counts the session has seen.
    n_hint: usize,
    labels: Vec<u64>,
    rounds: Vec<u64>,
    /// Batches applied so far.
    batch: u64,
}

impl DynamicSession {
    /// Opens a session: builds the base instance, runs the initial full
    /// solve, and stands ready to [`step`](DynamicSession::step) through
    /// the script.
    ///
    /// # Errors
    ///
    /// [`HarnessError::UnknownAlgorithm`] for an unregistered solver name,
    /// [`HarnessError::BadSpec`] for an invalid script or base spec, and
    /// any error of the initial [`Algorithm::run`].
    pub fn new(
        algorithm: &str,
        base: InstanceSpec,
        script: ChurnScript,
        cfg: RunConfig,
    ) -> Result<Self, HarnessError> {
        let algo = resolver()
            .find(algorithm)
            .ok_or_else(|| HarnessError::UnknownAlgorithm(algorithm.into()))?;
        script.validate().map_err(HarnessError::BadSpec)?;
        let instance = base.build()?;
        let tree = instance.tree().clone();
        let n0 = tree.node_count();
        let mode = match base.kind() {
            InstanceKind::Path => Mode::Surgery(ShapeDiscipline::PathPreserving),
            InstanceKind::RandomTree | InstanceKind::Adversarial => {
                Mode::Surgery(ShapeDiscipline::FreeTree {
                    max_degree: tree.max_degree().max(3) + 1,
                })
            }
            _ => Mode::Parameter,
        };
        let mut session = DynamicSession {
            algo,
            base,
            script,
            cfg,
            mode,
            tree,
            ids: Arc::new((0..n0 as u64).collect()),
            next_id: n0 as u64,
            space: (2 * n0 as u64).max(8),
            n_hint: n0,
            labels: Vec::new(),
            rounds: Vec::new(),
            batch: 0,
        };
        let record = session.full_resolve()?;
        session.labels = record.labels;
        session.rounds = record.rounds;
        Ok(session)
    }

    /// Registry name of the session's solver.
    #[must_use]
    pub fn algorithm(&self) -> &'static str {
        self.algo.name()
    }

    /// The current tree.
    #[must_use]
    pub fn tree(&self) -> &Tree {
        &self.tree
    }

    /// Current node count.
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.tree.node_count()
    }

    /// The session's current labels (canonical `u64` encoding, aligned
    /// with the current tree).
    #[must_use]
    pub fn labels(&self) -> &[u64] {
        &self.labels
    }

    /// The session's current per-node termination rounds.
    #[must_use]
    pub fn rounds(&self) -> &[u64] {
        &self.rounds
    }

    /// Batches applied so far.
    #[must_use]
    pub fn batches_applied(&self) -> u64 {
        self.batch
    }

    /// Batches the script still has in store.
    #[must_use]
    pub fn batches_remaining(&self) -> u64 {
        (self.script.batches as u64).saturating_sub(self.batch)
    }

    /// Whether the solver takes the genuine incremental path under the
    /// current scope (local solver in surgery mode).
    #[must_use]
    pub fn is_local(&self) -> bool {
        matches!(self.mode, Mode::Surgery(_)) && self.algo.churn_radius(&self.scope()).is_some()
    }

    /// The frozen session scope over the whole current tree, handed to
    /// every full re-solve. Region runs get the same `space` and `n_hint`
    /// with the region's own ids.
    #[must_use]
    pub fn scope(&self) -> SessionScope {
        SessionScope {
            ids: Arc::clone(&self.ids),
            space: self.space,
            n_hint: self.n_hint,
        }
    }

    /// The spec describing the session's current instance.
    #[must_use]
    pub fn current_spec(&self) -> InstanceSpec {
        match self.mode {
            Mode::Surgery(_) => InstanceSpec::Churned {
                base: Box::new(self.base.clone()),
                batch: self.batch,
                n: self.tree.node_count(),
            },
            Mode::Parameter => self.param_spec(),
        }
    }

    /// Parameter-mode spec after `self.batch` batches: the base family
    /// with its size parameter grown by `ops_per_batch` per batch.
    fn param_spec(&self) -> InstanceSpec {
        let n = self.base.requested_n() + self.batch as usize * self.script.ops_per_batch;
        match self.base.clone() {
            InstanceSpec::Theorem11 { k, .. } => InstanceSpec::Theorem11 { n, k },
            InstanceSpec::WeightedPoly { delta, d, k, .. } => {
                InstanceSpec::WeightedPoly { n, delta, d, k }
            }
            InstanceSpec::WeightedLogStar { delta, d, k, .. } => {
                InstanceSpec::WeightedLogStar { n, delta, d, k }
            }
            InstanceSpec::WeightedUnit { delta, k, .. } => {
                InstanceSpec::WeightedUnit { n, delta, k }
            }
            InstanceSpec::BalancedWeight { delta, .. } => {
                InstanceSpec::BalancedWeight { w: n, delta }
            }
            other => other,
        }
    }

    /// Runs the from-scratch baseline on the session's current state under
    /// the same scope the incremental path uses. This is the differential
    /// oracle: its labels and rounds must be bit-identical to the
    /// session's spliced state.
    ///
    /// # Errors
    ///
    /// Propagates the errors of [`Algorithm::run`].
    pub fn full_resolve(&self) -> Result<RunRecord, HarnessError> {
        match self.mode {
            Mode::Surgery(_) => {
                let instance = Instance::from_tree(self.current_spec(), self.tree.clone());
                let cfg = self.cfg.clone().with_scope(self.scope());
                run_timed(self.algo, &instance, &cfg)
            }
            Mode::Parameter => {
                let instance = self.param_spec().build()?;
                run_timed(self.algo, &instance, &self.cfg)
            }
        }
    }

    /// Applies the script's next batch and brings the labeling back in
    /// sync (incrementally where the solver permits).
    ///
    /// # Errors
    ///
    /// [`HarnessError::BadSpec`] when the script is exhausted or a batch
    /// cannot be applied, [`HarnessError::VerificationFailed`] when the
    /// spliced labeling violates the problem constraints (only checked if
    /// the config verifies), and any error of a fallback full re-solve.
    pub fn step(&mut self) -> Result<StepOutcome, HarnessError> {
        if self.batch >= self.script.batches as u64 {
            return Err(HarnessError::BadSpec(format!(
                "script `{}` has only {} batches",
                self.script.name, self.script.batches
            )));
        }
        let start = Instant::now();
        match self.mode {
            Mode::Surgery(discipline) => self.step_surgery(discipline, start),
            Mode::Parameter => {
                self.batch += 1;
                let instance = self.param_spec().build()?;
                self.tree = instance.tree().clone();
                let record = run_timed(self.algo, &instance, &self.cfg)?;
                self.labels.clone_from(&record.labels);
                self.rounds.clone_from(&record.rounds);
                let n = record.n;
                let resolve_ms = record.elapsed_ms;
                Ok(StepOutcome {
                    batch: self.batch - 1,
                    n,
                    incremental: false,
                    dirty: n,
                    region: n,
                    elapsed_ms: start.elapsed().as_secs_f64() * 1_000.0,
                    resolve_ms,
                    record,
                })
            }
        }
    }

    fn step_surgery(
        &mut self,
        discipline: ShapeDiscipline,
        start: Instant,
    ) -> Result<StepOutcome, HarnessError> {
        let b = self.batch;
        let weights = OpWeights {
            insert: self.script.mix.insert,
            delete: self.script.mix.delete,
            rehang: self.script.mix.rehang,
        };
        let result = churn_batch(
            &self.tree,
            discipline,
            weights,
            self.script.ops_per_batch,
            4,
            self.script.batch_seed(b as usize),
        )
        .map_err(|e| HarnessError::BadSpec(format!("churn batch {b}: {e}")))?;

        // Remap persistent state into the post-batch index space. Inserted
        // nodes (working index >= base_n) get fresh ids in insertion order;
        // their label/round slots are placeholders until the re-solve.
        let new_n = result.tree.node_count();
        let mut ids = Vec::with_capacity(new_n);
        let mut labels = vec![0u64; new_n];
        let mut rounds = vec![0u64; new_n];
        for (v, &w) in result.new_to_old.iter().enumerate() {
            if w < result.base_n {
                ids.push(self.ids[w]);
                labels[v] = self.labels[w];
                rounds[v] = self.rounds[w];
            } else {
                ids.push(self.next_id);
                self.next_id += 1;
            }
        }
        let touched = result.touched;
        self.tree = result.tree;
        self.ids = Arc::new(ids);
        self.labels = labels;
        self.rounds = rounds;
        self.n_hint = self.n_hint.max(new_n);
        self.batch += 1;

        // Growing the frozen id space changes id-space-driven trajectories
        // everywhere, so it forces a full re-solve.
        let mut force_full = false;
        if self.next_id > self.space {
            self.space = (2 * self.next_id).max(8);
            force_full = true;
        }

        let radius = if force_full {
            None
        } else {
            self.algo.churn_radius(&self.scope())
        };
        let resolve_start = Instant::now();
        if let Some((dirty, region)) = radius.and_then(|t| self.try_incremental(t, &touched)) {
            let verified = if self.cfg.verify {
                self.verify_spliced()?;
                true
            } else {
                false
            };
            let mut record = RunRecord::from_rounds(
                self.algo.name(),
                &self.current_spec(),
                self.cfg.seed,
                self.labels.clone(),
                self.rounds.clone(),
                None,
                verified,
            )
            .on_engine(self.cfg.engine_tag());
            record.elapsed_ms = start.elapsed().as_secs_f64() * 1_000.0;
            return Ok(StepOutcome {
                batch: b,
                n: new_n,
                incremental: true,
                dirty,
                region,
                elapsed_ms: record.elapsed_ms,
                resolve_ms: resolve_start.elapsed().as_secs_f64() * 1_000.0,
                record,
            });
        }

        // Global solver, grown id space, region covering the whole tree,
        // or a failed region run: full re-solve.
        let record = self.full_resolve()?;
        self.labels.clone_from(&record.labels);
        self.rounds.clone_from(&record.rounds);
        Ok(StepOutcome {
            batch: b,
            n: new_n,
            incremental: false,
            dirty: new_n,
            region: new_n,
            elapsed_ms: start.elapsed().as_secs_f64() * 1_000.0,
            resolve_ms: resolve_start.elapsed().as_secs_f64() * 1_000.0,
            record,
        })
    }

    /// Attempts the dirty-region path: returns `Some((dirty, region))`
    /// after splicing, `None` when a full re-solve should run instead
    /// (region covers the whole tree, or a region run failed).
    fn try_incremental(&mut self, t: u64, touched: &[NodeId]) -> Option<(usize, usize)> {
        let n = self.tree.node_count();
        let dist = self.tree.multi_source_distances(touched);
        let reach = t.saturating_mul(2).saturating_add(1);
        let region: Vec<NodeId> = (0..n).filter(|&v| u64::from(dist[v]) <= reach).collect();
        if region.len() >= n {
            return None;
        }
        let mut cfg = self.cfg.clone().without_verify();
        let mut patch: Vec<(NodeId, u64, u64)> = Vec::new();
        for comp in extract_components(&self.tree, &region) {
            let spec = InstanceSpec::Churned {
                base: Box::new(self.base.clone()),
                batch: self.batch,
                n: comp.nodes.len(),
            };
            cfg.scope = Some(SessionScope {
                ids: Arc::new(comp.nodes.iter().map(|&v| self.ids[v]).collect()),
                space: self.space,
                n_hint: self.n_hint,
            });
            // On any error the full re-solve is still a correct answer.
            let record = self
                .algo
                .run(&Instance::from_tree(spec, comp.tree), &cfg)
                .ok()?;
            for (i, &v) in comp.nodes.iter().enumerate() {
                if u64::from(dist[v]) <= t {
                    patch.push((v, record.labels[i], record.rounds[i]));
                }
            }
        }
        let dirty = patch.len();
        for (v, label, round) in patch {
            self.labels[v] = label;
            self.rounds[v] = round;
        }
        Some((dirty, region.len()))
    }

    /// Checks the spliced labeling against the constraints every local
    /// (incremental-capable) solver realizes: a proper coloring with at
    /// most three colors.
    fn verify_spliced(&self) -> Result<(), HarnessError> {
        let fail = |violation: String| HarnessError::VerificationFailed {
            algorithm: self.algo.name().to_string(),
            violation,
        };
        // Distinct colors in order of first use; the scan stops at the
        // fourth, which already rejects the labeling.
        let mut palette = [0u64; 4];
        let mut colors = 0;
        for &l in &self.labels {
            if !palette[..colors].contains(&l) {
                palette[colors] = l;
                colors += 1;
                if colors == palette.len() {
                    return Err(fail(format!(
                        "spliced labeling uses more than 3 colors (first four: {palette:?})"
                    )));
                }
            }
        }
        for v in 0..self.tree.node_count() {
            for &w in self.tree.neighbors(v) {
                let w = w as usize;
                if v < w && self.labels[v] == self.labels[w] {
                    return Err(fail(format!(
                        "edge ({v}, {w}) is monochromatic after splice (color {})",
                        self.labels[v]
                    )));
                }
            }
        }
        Ok(())
    }

    /// Steps through every remaining batch of the script.
    ///
    /// # Errors
    ///
    /// Propagates the first [`step`](DynamicSession::step) error.
    pub fn run_script(&mut self) -> Result<Vec<StepOutcome>, HarnessError> {
        let mut outcomes = Vec::new();
        while self.batches_remaining() > 0 {
            outcomes.push(self.step()?);
        }
        Ok(outcomes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lcl_core::churn::ChurnMix;

    fn script(mix: ChurnMix, batches: usize, ops: usize) -> ChurnScript {
        ChurnScript::new("test", 0xA5A5, batches, ops, mix)
    }

    #[test]
    fn session_steps_and_matches_baseline() {
        let s = script(ChurnMix::new(2, 1, 0), 3, 12);
        let mut session = DynamicSession::new(
            "linial",
            InstanceSpec::Path { n: 300 },
            s,
            RunConfig::seeded(5),
        )
        .expect("session opens");
        assert!(session.is_local());
        for _ in 0..3 {
            let out = session.step().expect("step");
            assert_eq!(out.n, session.node_count());
            let baseline = session.full_resolve().expect("baseline");
            assert_eq!(baseline.labels, session.labels(), "labels diverged");
            assert_eq!(baseline.rounds, session.rounds(), "rounds diverged");
        }
        assert!(session.step().is_err(), "script is exhausted");
    }

    /// A local-solver session whose labels the caller may corrupt.
    fn linial_session() -> DynamicSession {
        let s = script(ChurnMix::new(1, 1, 0), 1, 4);
        DynamicSession::new(
            "linial",
            InstanceSpec::Path { n: 40 },
            s,
            RunConfig::seeded(5),
        )
        .expect("session opens")
    }

    fn violation(session: &DynamicSession) -> String {
        match session.verify_spliced() {
            Err(HarnessError::VerificationFailed { violation, .. }) => violation,
            other => panic!("expected a verification failure, got {other:?}"),
        }
    }

    #[test]
    fn verify_spliced_rejects_a_fourth_color() {
        let mut session = linial_session();
        // A proper coloring of the path, but with four colors.
        for (v, l) in session.labels.iter_mut().enumerate() {
            *l = v as u64 % 4;
        }
        let violation = violation(&session);
        assert!(violation.contains("more than 3 colors"), "{violation}");
        assert!(violation.contains("[0, 1, 2, 3]"), "{violation}");
    }

    #[test]
    fn verify_spliced_rejects_a_monochromatic_edge() {
        let mut session = linial_session();
        // Two colors, alternating except on the one edge (20, 21).
        for (v, l) in session.labels.iter_mut().enumerate() {
            *l = (v as u64 + u64::from(v > 20)) % 2;
        }
        let violation = violation(&session);
        assert!(
            violation.contains("edge (20, 21) is monochromatic"),
            "{violation}"
        );
    }

    #[test]
    fn incremental_path_is_taken_on_long_paths() {
        // Linial's radius is O(log* space): on a 600-node path a 12-op
        // endpoint batch dirties a small region, so the genuine splice
        // path must engage.
        let s = script(ChurnMix::new(1, 1, 1), 2, 12);
        let mut session = DynamicSession::new(
            "linial",
            InstanceSpec::Path { n: 600 },
            s,
            RunConfig::seeded(11),
        )
        .expect("session opens");
        let mut saw_incremental = false;
        for _ in 0..2 {
            let out = session.step().expect("step");
            saw_incremental |= out.incremental;
            if out.incremental {
                assert!(out.region < out.n, "region must be a strict subset");
                assert!(out.dirty <= out.region);
            }
        }
        assert!(saw_incremental, "600-node path must splice incrementally");
    }

    #[test]
    fn global_solvers_fall_back_to_full_resolve() {
        let s = script(ChurnMix::new(1, 1, 0), 2, 8);
        let mut session = DynamicSession::new(
            "two-coloring",
            InstanceSpec::Path { n: 64 },
            s,
            RunConfig::seeded(3),
        )
        .expect("session opens");
        assert!(!session.is_local());
        let out = session.step().expect("step");
        assert!(!out.incremental);
        assert_eq!(out.dirty, out.n);
        let baseline = session.full_resolve().expect("baseline");
        assert_eq!(baseline.labels, session.labels());
    }

    #[test]
    fn parameter_mode_grows_construction_specs() {
        let s = script(ChurnMix::new(1, 0, 0), 2, 50);
        let mut session = DynamicSession::new(
            "generic-coloring",
            InstanceSpec::Theorem11 { n: 400, k: 2 },
            s,
            RunConfig::seeded(2),
        )
        .expect("session opens");
        let n0 = session.node_count();
        let out = session.step().expect("step");
        assert!(!out.incremental);
        assert!(out.record.n >= n0, "parameter mode only grows");
        let baseline = session.full_resolve().expect("baseline");
        assert_eq!(baseline.labels, out.record.labels);
    }

    #[test]
    fn free_tree_surgery_tracks_adversarial_bases() {
        let s = script(ChurnMix::new(2, 1, 1), 2, 10);
        let mut session = DynamicSession::new(
            "labeling-solver",
            InstanceSpec::Spider {
                legs: 4,
                leg_len: 10,
            },
            s,
            RunConfig::seeded(9),
        )
        .expect("session opens");
        for _ in 0..2 {
            let out = session.step().expect("step");
            assert!(!out.incremental, "labeling-solver is global");
            let baseline = session.full_resolve().expect("baseline");
            assert_eq!(baseline.labels, session.labels());
            assert_eq!(baseline.rounds, session.rounds());
        }
    }
}
