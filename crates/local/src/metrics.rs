//! Complexity metrics for LOCAL executions.
//!
//! The central quantity of the paper is the *node-averaged complexity*
//! (Section 2): the average, over all nodes, of the round in which each node
//! terminates, maximized over instances. An execution yields one termination
//! round per node; [`RoundStats`] holds them, and [`TerminationProfile`] is
//! their one summary.

/// Per-node termination rounds of one execution.
///
/// # Examples
///
/// ```
/// use lcl_local::metrics::RoundStats;
/// let s = RoundStats::new(vec![0, 2, 4]);
/// assert_eq!(s.worst_case(), 4);
/// assert_eq!(s.node_averaged(), 2.0);
/// assert_eq!(s.profile().quantile(0.5), 2);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RoundStats {
    rounds: Vec<u64>,
}

impl RoundStats {
    /// Wraps a vector of per-node termination rounds.
    ///
    /// # Panics
    ///
    /// Panics if `rounds` is empty (the average would be undefined).
    #[must_use]
    pub fn new(rounds: Vec<u64>) -> Self {
        assert!(
            !rounds.is_empty(),
            "round statistics need at least one node"
        );
        RoundStats { rounds }
    }

    /// Number of nodes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.rounds.len()
    }

    /// Always false; kept for API completeness.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.rounds.is_empty()
    }

    /// Termination round of node `v`.
    #[must_use]
    pub fn round(&self, v: usize) -> u64 {
        self.rounds[v]
    }

    /// The raw per-node rounds.
    #[must_use]
    pub fn as_slice(&self) -> &[u64] {
        &self.rounds
    }

    /// The per-node rounds, moved out without a copy.
    #[must_use]
    pub fn into_vec(self) -> Vec<u64> {
        self.rounds
    }

    /// Total rounds summed over nodes, `Σ_v T_v`.
    #[must_use]
    pub fn total(&self) -> u128 {
        self.rounds.iter().map(|&r| r as u128).sum()
    }

    /// Node-averaged complexity `(Σ_v T_v) / n` of this execution.
    #[must_use]
    pub fn node_averaged(&self) -> f64 {
        self.total() as f64 / self.rounds.len() as f64
    }

    /// Worst-case complexity `max_v T_v` of this execution.
    #[must_use]
    pub fn worst_case(&self) -> u64 {
        self.rounds.iter().copied().max().unwrap_or(0)
    }

    /// The per-round termination profile of this execution.
    #[must_use]
    pub fn profile(&self) -> TerminationProfile {
        TerminationProfile::from_rounds(&self.rounds)
    }
}

/// Aggregated per-round termination counts of one execution: `counts[r]`
/// is the number of nodes whose termination round is exactly `r`.
///
/// The one summary of a run's rounds: built in one pass from the
/// per-node rounds (plus one to find the worst case), it answers the
/// node average, the worst case, the quantiles, the fraction done by a
/// round and the histogram. [`TerminationProfile::node_averaged`] and
/// [`RoundStats::node_averaged`] divide the same exact `u128` sum by the
/// same `n`, so they agree bit for bit.
///
/// # Examples
///
/// ```
/// use lcl_local::metrics::TerminationProfile;
/// let profile = TerminationProfile::from_rounds(&[0, 2, 2, 3]);
/// assert_eq!(profile.nonzero_bins(), vec![(0, 1), (2, 2), (3, 1)]);
/// assert_eq!(profile.node_averaged(), 1.75);
/// assert_eq!(profile.worst_case(), 3);
/// assert_eq!(profile.quantile(0.5), 2);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TerminationProfile {
    /// Dense counts indexed by round; the last entry is non-zero.
    counts: Vec<u64>,
}

impl TerminationProfile {
    /// Builds the profile from per-node termination rounds.
    ///
    /// # Panics
    ///
    /// Panics if `rounds` is empty.
    #[must_use]
    pub fn from_rounds(rounds: &[u64]) -> Self {
        assert!(
            !rounds.is_empty(),
            "termination profile needs at least one node"
        );
        // The assert above guarantees a maximum exists.
        let worst = rounds.iter().copied().max().unwrap_or(0) as usize;
        let mut counts = vec![0u64; worst + 1];
        for &r in rounds {
            counts[r as usize] += 1;
        }
        TerminationProfile { counts }
    }

    /// Dense counts indexed by round (the last entry is non-zero).
    #[must_use]
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Sparse `(round, count)` bins with `count > 0`, sorted by round.
    #[must_use]
    pub fn nonzero_bins(&self) -> Vec<(u64, u64)> {
        self.counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(r, &c)| (r as u64, c))
            .collect()
    }

    /// Total number of nodes.
    #[must_use]
    pub fn total_nodes(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Node-averaged complexity `(Σ_v T_v) / n`.
    #[must_use]
    pub fn node_averaged(&self) -> f64 {
        let total: u128 = self
            .counts
            .iter()
            .enumerate()
            .map(|(r, &c)| r as u128 * u128::from(c))
            .sum();
        total as f64 / self.total_nodes() as f64
    }

    /// Worst-case complexity `max_v T_v`.
    #[must_use]
    pub fn worst_case(&self) -> u64 {
        (self.counts.len() - 1) as u64
    }

    /// The smallest round `r` such that at least `⌈q · n⌉` nodes have
    /// terminated by round `r` (`q ∈ (0, 1]`; `q = 0.5` is the median
    /// termination round).
    ///
    /// # Panics
    ///
    /// Panics unless `0 < q <= 1`.
    #[must_use]
    pub fn quantile(&self, q: f64) -> u64 {
        assert!(q > 0.0 && q <= 1.0, "quantile must be in (0, 1]");
        let need = (q * self.total_nodes() as f64).ceil() as u64;
        let mut seen = 0u64;
        for (r, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= need {
                return r as u64;
            }
        }
        self.worst_case()
    }

    /// Fraction of nodes with termination round at most `r`.
    #[must_use]
    pub fn fraction_done_by(&self, r: u64) -> f64 {
        let done: u64 = self.counts.iter().take(r as usize + 1).sum();
        done as f64 / self.total_nodes() as f64
    }
}

impl serde::Serialize for TerminationProfile {
    // Sparse form: serializing million-node runs must not emit one entry
    // per empty round.
    fn write_json(&self, out: &mut String) {
        serde::ObjectWriter::new(out)
            .field("bins", &self.nonzero_bins())
            .end();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_statistics() {
        let s = RoundStats::new(vec![1, 1, 4, 10]);
        assert_eq!(s.len(), 4);
        assert_eq!(s.total(), 16);
        assert_eq!(s.node_averaged(), 4.0);
        assert_eq!(s.worst_case(), 10);
        assert_eq!(s.round(2), 4);
    }

    #[test]
    fn fraction_done() {
        let p = TerminationProfile::from_rounds(&[0, 1, 2, 3]);
        assert_eq!(p.fraction_done_by(0), 0.25);
        assert_eq!(p.fraction_done_by(1), 0.5);
        assert_eq!(p.fraction_done_by(5), 1.0);
    }

    #[test]
    #[should_panic(expected = "at least one node")]
    fn empty_rejected() {
        let _ = RoundStats::new(vec![]);
    }

    #[test]
    fn quantiles_walk_the_sorted_rounds() {
        let p = TerminationProfile::from_rounds(&[5, 0, 1, 3]);
        assert_eq!(p.quantile(0.25), 0);
        assert_eq!(p.quantile(0.5), 1);
        assert_eq!(p.quantile(0.75), 3);
        assert_eq!(p.quantile(1.0), 5);
    }

    #[test]
    fn profile_agrees_with_round_stats() {
        let s = RoundStats::new(vec![0, 0, 7, 3, 3, 3]);
        let p = s.profile();
        assert_eq!(p.total_nodes(), 6);
        assert_eq!(p.node_averaged(), s.node_averaged());
        assert_eq!(p.worst_case(), s.worst_case());
        assert_eq!(p.counts(), &[2, 0, 0, 3, 0, 0, 0, 1]);
        assert_eq!(p.nonzero_bins(), vec![(0, 2), (3, 3), (7, 1)]);
        // Quantiles by definition: the `⌈q · n⌉`-th smallest round.
        let mut sorted = s.as_slice().to_vec();
        sorted.sort_unstable();
        for q in [0.1, 0.34, 0.5, 0.99, 1.0] {
            let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
            assert_eq!(p.quantile(q), sorted[rank - 1], "q = {q}");
        }
        assert_eq!(p.fraction_done_by(3), 5.0 / 6.0);
    }

    #[test]
    #[should_panic(expected = "at least one node")]
    fn profile_rejects_empty() {
        let _ = TerminationProfile::from_rounds(&[]);
    }
}
