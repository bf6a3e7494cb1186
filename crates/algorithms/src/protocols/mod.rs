//! Engine-native protocol implementations of the registry's solvers.
//!
//! Every solver in the harness registry executes as a first-class
//! [`lcl_local::engine::Protocol`] on the chunked engine — engine
//! execution is the *only* production path, there is no replay layer.
//! Four solvers compute their outputs through genuine message rounds:
//!
//! - [`two_coloring::WaveTwoColoring`] — endpoint distance waves meeting
//!   in the middle (`Θ(n)` rounds),
//! - [`linial::LinialCascade`] — the lockstep polynomial color-reduction
//!   cascade (`O(log* n)` rounds),
//! - [`randomized::RandomizedColoring`] — per-node-stream propose/finalize
//!   rounds (`O(1)` node-averaged),
//! - [`path_lcl::PathLclProtocol`] — endpoint waves for rigid (`Θ(n)`)
//!   tables, locally computed uniform schedules otherwise.
//!
//! The remaining solvers (`generic-coloring`, `apoly`, `a35`,
//! `weight-augmented`, `dfree-a`, `fast-decomposition`,
//! `labeling-solver`) run as [`ScheduledCast`] machines. The paper's
//! algorithms for these problems decide each node's output from
//! information within the ball its termination round bounds — IDs,
//! weights and topology the node can collect in that many rounds — so
//! the schedule is a legitimate port-number/ID-model precomputation: the
//! structural solver plays the role of the node's local computation,
//! and the engine realizes the *execution* — silence until the
//! termination round, then one final broadcast of the output label (the
//! standard "neighbors observe the output" convention). The preserved
//! structural functions double as differential oracles: the test suite
//! demands bit-identical labels *and* termination rounds between every
//! protocol here and its structural counterpart, across chunk sizes and
//! thread counts.

pub mod linial;
pub mod path_lcl;
pub mod randomized;
pub mod two_coloring;

use lcl_local::engine::{Inbox, NodeContext, Outbox, Protocol};
use lcl_local::packed::bits_for;
use std::sync::Arc;

/// A node that stays silent until its scheduled round, then terminates
/// with its precomputed label, broadcasting it as final messages.
///
/// Its [`next_wake`](Protocol::next_wake) hint is the scheduled round
/// itself, so the chunked engine steps the node exactly once — schedules
/// with `Θ(n)` round spread cost `O(n)` node-steps, not `O(n²)`.
#[derive(Debug, Clone)]
pub struct ScheduledCast {
    target_round: u64,
    label: u64,
}

impl ScheduledCast {
    /// A node terminating in `target_round` with output `label`.
    #[must_use]
    pub fn new(target_round: u64, label: u64) -> Self {
        ScheduledCast {
            target_round,
            label,
        }
    }
}

impl Protocol for ScheduledCast {
    type Message = u64;
    type Output = u64;

    fn step(
        &mut self,
        _ctx: &NodeContext,
        round: u64,
        _inbox: &Inbox<'_, u64>,
        outbox: &mut Outbox<'_, u64>,
    ) -> Option<u64> {
        if round == self.target_round {
            outbox.broadcast(self.label);
            return Some(self.label);
        }
        None
    }

    fn next_wake(&self, _ctx: &NodeContext, _now: u64) -> u64 {
        self.target_round
    }

    fn message_bits(&self, _ctx: &NodeContext) -> Option<u32> {
        // The node only ever broadcasts its own precomputed label.
        Some(bits_for(u128::from(self.label)))
    }
}

/// A factory handing each node its slice of a precomputed plan, usable
/// with any engine entry point.
///
/// # Panics
///
/// The returned closure indexes by `ctx.node`, so `labels` and `rounds`
/// must cover all nodes of the tree the engine runs on.
pub fn scheduled_cast_factory(
    labels: Arc<Vec<u64>>,
    rounds: Arc<Vec<u64>>,
) -> impl FnMut(&NodeContext) -> ScheduledCast {
    move |ctx| ScheduledCast::new(rounds[ctx.node], labels[ctx.node])
}

/// A round budget any faithful execution of a plan with these
/// termination rounds fits in (final broadcasts included).
#[must_use]
pub fn plan_round_budget(rounds: &[u64]) -> u64 {
    rounds.iter().copied().max().unwrap_or(0).saturating_add(2)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lcl_graph::generators::path;
    use lcl_local::engine::{run_sync_with, EngineConfig};
    use lcl_local::identifiers::Ids;

    #[test]
    fn scheduled_cast_realizes_the_plan() {
        let n = 9;
        let tree = path(n);
        let labels: Arc<Vec<u64>> = Arc::new((0..n as u64).map(|v| v % 3).collect());
        let rounds: Arc<Vec<u64>> = Arc::new((0..n as u64).map(|v| v.max(8 - v)).collect());
        let out = run_sync_with(
            &tree,
            &Ids::sequential(n),
            scheduled_cast_factory(labels.clone(), rounds.clone()),
            plan_round_budget(&rounds),
            &EngineConfig::sequential(),
        )
        .unwrap();
        assert_eq!(out.outputs, *labels);
        assert_eq!(out.stats.as_slice(), &rounds[..]);
    }

    #[test]
    fn plan_budget_covers_the_worst_node() {
        assert_eq!(plan_round_budget(&[0, 3, 1]), 5);
        assert_eq!(plan_round_budget(&[]), 2);
    }
}
