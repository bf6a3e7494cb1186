//! Common result type for algorithm executions.

use lcl_local::metrics::TerminationProfile;

/// Outputs and per-node termination rounds of one algorithm execution.
#[derive(Debug, Clone)]
pub struct AlgorithmRun<O> {
    /// Output of every node, indexed by node id.
    pub outputs: Vec<O>,
    /// Termination round of every node.
    pub rounds: Vec<u64>,
}

impl<O> AlgorithmRun<O> {
    /// Bundles outputs with rounds.
    ///
    /// # Panics
    ///
    /// Panics if the vectors have different lengths.
    pub fn new(outputs: Vec<O>, rounds: Vec<u64>) -> Self {
        assert_eq!(
            outputs.len(),
            rounds.len(),
            "outputs and rounds must cover the same nodes"
        );
        AlgorithmRun { outputs, rounds }
    }

    /// The termination profile of the execution: its node average,
    /// worst case, quantiles and histogram. Panics on an empty run.
    #[must_use]
    pub fn profile(&self) -> TerminationProfile {
        TerminationProfile::from_rounds(&self.rounds)
    }

    /// Number of nodes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.outputs.len()
    }

    /// True when no nodes are covered.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.outputs.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_roundtrip() {
        let run = AlgorithmRun::new(vec!['a', 'b'], vec![1, 3]);
        assert_eq!(run.profile().node_averaged(), 2.0);
        assert_eq!(run.len(), 2);
        assert!(!run.is_empty());
    }

    #[test]
    #[should_panic(expected = "same nodes")]
    fn mismatched_lengths_rejected() {
        let _ = AlgorithmRun::new(vec![0u8], vec![1, 2]);
    }
}
