//! The capability-indexed solver registry.
//!
//! The registry is problem-first: the [`Resolver`] owns every solver in
//! the workspace and matches declarative [`ProblemSpec`]s against the
//! bids each [`Algorithm`] places via [`Algorithm::solves`]. Callers
//! reach it through [`resolver()`]: [`Resolver::algorithms`] lists the
//! solvers in stable order and [`Resolver::find`] looks one up by name.

use crate::adapters::{
    Apoly, DfreeA, FastDecomposition, GenericColoring, LabelingSolver, LinialColoring,
    PathLclSolver, RandomizedColoring, TwoColoring, WeightAugmentedSolver, A35,
};
use crate::algorithm::Algorithm;
use crate::planner::{PlanError, SolverFit};
use lcl_core::problem_spec::ProblemSpec;

/// Every solver in the workspace, in stable iteration order: the `Θ(n)`
/// baseline first, then the `log*` side, the hierarchical/weighted
/// families, the decomposition machinery, and finally the table-driven
/// generic path-LCL solver the problem-first surface added.
static SOLVERS: [&dyn Algorithm; 11] = [
    &TwoColoring,
    &LinialColoring,
    &RandomizedColoring,
    &GenericColoring,
    &Apoly,
    &A35,
    &WeightAugmentedSolver,
    &DfreeA,
    &FastDecomposition,
    &LabelingSolver,
    &PathLclSolver,
];

static RESOLVER: Resolver = Resolver { solvers: &SOLVERS };

/// The capability index over all registered solvers: given a declarative
/// problem, collects every algorithm's [`SolverFit`] bid and resolves the
/// best one.
///
/// ```
/// use lcl_harness::resolver;
/// use lcl_core::problem_spec::ProblemSpec;
///
/// let problem = ProblemSpec::preset("3-coloring").expect("known preset");
/// let (solver, fit) = resolver().resolve(&problem)?;
/// assert_eq!(solver.name(), "linial");
/// assert!(fit.score > 0);
/// # Ok::<(), lcl_harness::PlanError>(())
/// ```
pub struct Resolver {
    solvers: &'static [&'static dyn Algorithm],
}

impl Resolver {
    /// Every registered solver, in stable order.
    #[must_use]
    pub fn algorithms(&self) -> &'static [&'static dyn Algorithm] {
        self.solvers
    }

    /// All bids on `problem`, in solver order (empty when nothing fits).
    #[must_use]
    pub fn bids(&self, problem: &ProblemSpec) -> Vec<(&'static dyn Algorithm, SolverFit)> {
        self.solvers
            .iter()
            .filter_map(|&algo| algo.solves(problem).map(|fit| (algo, fit)))
            .collect()
    }

    /// Resolves the best-fit solver for `problem`: the bid with the
    /// highest preference score (ties broken by solver order, which puts
    /// the specialized adapters before the generic fallback).
    ///
    /// # Errors
    ///
    /// [`PlanError::NoSolver`] when no registered algorithm bids.
    pub fn resolve(
        &self,
        problem: &ProblemSpec,
    ) -> Result<(&'static dyn Algorithm, SolverFit), PlanError> {
        self.bids(problem)
            .into_iter()
            .reduce(|best, cand| {
                if cand.1.score > best.1.score {
                    cand
                } else {
                    best
                }
            })
            .ok_or_else(|| PlanError::NoSolver(problem.describe()))
    }

    /// Looks a solver up by its registry name.
    #[must_use]
    pub fn find(&self, name: &str) -> Option<&'static dyn Algorithm> {
        self.solvers.iter().copied().find(|a| a.name() == name)
    }
}

/// The workspace's capability-indexed solver resolver — the problem-first
/// entry point the planner and [`SessionBuilder`](crate::SessionBuilder)
/// route through.
#[must_use]
pub fn resolver() -> &'static Resolver {
    &RESOLVER
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_has_eleven_entries() {
        assert_eq!(resolver().algorithms().len(), 11);
    }

    #[test]
    fn find_by_name() {
        assert!(resolver().find("apoly").is_some());
        assert!(resolver().find("a35").is_some());
        assert!(resolver().find("path-lcl").is_some());
        assert!(resolver().find("no-such-algorithm").is_none());
    }

    #[test]
    fn every_entry_declares_support() {
        for algo in resolver().algorithms() {
            assert!(
                !algo.supported_kinds().is_empty(),
                "{} supports nothing",
                algo.name()
            );
            let smallest = algo.smallest_spec();
            assert!(
                algo.supports(smallest.kind()),
                "{}'s smallest spec has unsupported kind",
                algo.name()
            );
        }
    }

    #[test]
    fn resolver_rejects_unbid_problems() {
        // A tree-degree BW problem no adapter bids on.
        let table = lcl_core::problem_spec::BwTable::new(2, 3, vec![vec![0]], vec![vec![1]]);
        let err = resolver()
            .resolve(&ProblemSpec::Bw(table))
            .map(|(algo, fit)| (algo.name(), fit))
            .unwrap_err();
        assert!(matches!(err, PlanError::NoSolver(_)), "{err}");
    }

    #[test]
    fn specialists_outbid_the_generic_fallback() {
        for (preset, specialist) in [
            ("2-coloring", "two-coloring"),
            ("3-coloring", "linial"),
            ("5-coloring", "linial"),
        ] {
            let problem = ProblemSpec::preset(preset).unwrap();
            let bids = resolver().bids(&problem);
            assert!(
                bids.iter().any(|(a, _)| a.name() == "path-lcl"),
                "{preset}: generic solver should also bid"
            );
            let (winner, _) = resolver().resolve(&problem).unwrap();
            assert_eq!(winner.name(), specialist, "{preset}");
        }
    }
}
