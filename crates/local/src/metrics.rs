//! Complexity metrics for LOCAL executions.
//!
//! The central quantity of the paper is the *node-averaged complexity*
//! (Section 2): the average, over all nodes, of the round in which each node
//! terminates, maximized over instances. An execution yields one termination
//! round per node; [`RoundStats`] summarizes them.

use std::borrow::Cow;

/// Per-node termination rounds of one execution, with summary accessors.
///
/// Backed by a [`Cow`]: [`RoundStats::new`] takes ownership of a vector,
/// while [`RoundStats::from_slice`] borrows an existing round slice
/// without copying it — the cheap path for computing summaries of a run
/// that already owns its rounds.
///
/// # Examples
///
/// ```
/// use lcl_local::metrics::RoundStats;
/// let s = RoundStats::new(vec![0, 2, 4]);
/// assert_eq!(s.worst_case(), 4);
/// assert_eq!(s.node_averaged(), 2.0);
/// let rounds = [1u64, 3];
/// let borrowed = RoundStats::from_slice(&rounds);
/// assert_eq!(borrowed.node_averaged(), 2.0);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RoundStats<'a> {
    rounds: Cow<'a, [u64]>,
}

impl RoundStats<'static> {
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
        RoundStats {
            rounds: Cow::Owned(rounds),
        }
    }
}

impl<'a> RoundStats<'a> {
    /// Borrows a slice of per-node termination rounds without copying.
    ///
    /// # Panics
    ///
    /// Panics if `rounds` is empty (the average would be undefined).
    #[must_use]
    pub fn from_slice(rounds: &'a [u64]) -> Self {
        assert!(
            !rounds.is_empty(),
            "round statistics need at least one node"
        );
        RoundStats {
            rounds: Cow::Borrowed(rounds),
        }
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

    /// The per-node rounds as a vector: moved out when owned (no copy),
    /// copied when borrowed.
    #[must_use]
    pub fn into_vec(self) -> Vec<u64> {
        self.rounds.into_owned()
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

    /// Worst-case complexity `max_v T_v` of this execution (0 when no
    /// nodes were recorded).
    #[must_use]
    pub fn worst_case(&self) -> u64 {
        self.rounds.iter().copied().max().unwrap_or(0)
    }

    /// Fraction of nodes with termination round at most `r`.
    #[must_use]
    pub fn fraction_done_by(&self, r: u64) -> f64 {
        let done = self.rounds.iter().filter(|&&t| t <= r).count();
        done as f64 / self.rounds.len() as f64
    }

    /// Histogram of termination rounds as `(round, count)` pairs sorted by
    /// round. Useful for inspecting the phase structure of the generic
    /// algorithms.
    #[must_use]
    pub fn histogram(&self) -> Vec<(u64, usize)> {
        let mut map = std::collections::BTreeMap::new();
        for &r in self.rounds.iter() {
            *map.entry(r).or_insert(0usize) += 1;
        }
        map.into_iter().collect()
    }

    /// Merges two executions over disjoint node sets (concatenation).
    #[must_use]
    pub fn merged_with(&self, other: &RoundStats<'_>) -> RoundStats<'static> {
        let mut rounds = self.rounds.to_vec();
        rounds.extend_from_slice(&other.rounds);
        RoundStats {
            rounds: Cow::Owned(rounds),
        }
    }
}

impl<'a> RoundStats<'a> {
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
        let mut sorted: Vec<u64> = self.rounds.to_vec();
        sorted.sort_unstable();
        let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
        sorted[rank - 1]
    }

    /// The aggregated per-round termination profile of this execution.
    #[must_use]
    pub fn profile(&self) -> TerminationProfile {
        TerminationProfile::from_rounds(&self.rounds)
    }
}

/// Aggregated per-round termination counts of one execution: `counts[r]`
/// is the number of nodes whose termination round is exactly `r`.
///
/// This is the dense histogram the chunked engine accumulates for free
/// while running (it already counts terminations per round), and the
/// summary the harness serializes instead of (or alongside) the raw
/// per-node round vector. All summary statistics of [`RoundStats`] are
/// recoverable from it; [`TerminationProfile::node_averaged`] and
/// [`RoundStats::node_averaged`] agree exactly.
///
/// # Examples
///
/// ```
/// use lcl_local::metrics::{RoundStats, TerminationProfile};
/// let stats = RoundStats::new(vec![0, 2, 2, 3]);
/// let profile = stats.profile();
/// assert_eq!(profile.nonzero_bins(), vec![(0, 1), (2, 2), (3, 1)]);
/// assert_eq!(profile.node_averaged(), stats.node_averaged());
/// assert_eq!(profile.worst_case(), 3);
/// assert_eq!(profile.quantile(0.5), 2);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TerminationProfile {
    /// Dense counts indexed by round; the last entry is non-zero.
    counts: Vec<u64>,
}

impl TerminationProfile {
    /// Wraps dense per-round termination counts (`counts[r]` = nodes
    /// terminating in round `r`). Trailing zero rounds are trimmed.
    ///
    /// # Panics
    ///
    /// Panics if the counts sum to zero (no nodes).
    #[must_use]
    pub fn from_counts(mut counts: Vec<u64>) -> Self {
        while counts.last() == Some(&0) {
            counts.pop();
        }
        assert!(
            !counts.is_empty(),
            "termination profile needs at least one node"
        );
        TerminationProfile { counts }
    }

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

    /// The smallest round by which a `q` fraction of nodes has terminated.
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

impl FromIterator<u64> for RoundStats<'static> {
    fn from_iter<T: IntoIterator<Item = u64>>(iter: T) -> Self {
        RoundStats::new(iter.into_iter().collect())
    }
}

impl serde::Serialize for RoundStats<'_> {
    // Manual impl (the vendored derive does not handle lifetime
    // parameters); mirrors the shape the derive would emit.
    fn write_json(&self, out: &mut String) {
        serde::ObjectWriter::new(out)
            .field("rounds", &self.rounds[..])
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
        let s = RoundStats::new(vec![0, 1, 2, 3]);
        assert_eq!(s.fraction_done_by(0), 0.25);
        assert_eq!(s.fraction_done_by(1), 0.5);
        assert_eq!(s.fraction_done_by(5), 1.0);
    }

    #[test]
    fn histogram_orders_rounds() {
        let s = RoundStats::new(vec![3, 1, 3, 3, 1]);
        assert_eq!(s.histogram(), vec![(1, 2), (3, 3)]);
    }

    #[test]
    fn merging_concatenates() {
        let a = RoundStats::new(vec![1, 2]);
        let b = RoundStats::new(vec![3]);
        let m = a.merged_with(&b);
        assert_eq!(m.as_slice(), &[1, 2, 3]);
        assert_eq!(m.node_averaged(), 2.0);
    }

    #[test]
    fn from_iterator() {
        let s: RoundStats = (0..5u64).collect();
        assert_eq!(s.worst_case(), 4);
    }

    #[test]
    #[should_panic(expected = "at least one node")]
    fn empty_rejected() {
        let _ = RoundStats::new(vec![]);
    }

    #[test]
    fn quantiles_walk_the_sorted_rounds() {
        let s = RoundStats::new(vec![5, 0, 1, 3]);
        assert_eq!(s.quantile(0.25), 0);
        assert_eq!(s.quantile(0.5), 1);
        assert_eq!(s.quantile(0.75), 3);
        assert_eq!(s.quantile(1.0), 5);
    }

    #[test]
    fn profile_agrees_with_round_stats() {
        let s = RoundStats::new(vec![0, 0, 7, 3, 3, 3]);
        let p = s.profile();
        assert_eq!(p.total_nodes(), 6);
        assert_eq!(p.node_averaged(), s.node_averaged());
        assert_eq!(p.worst_case(), s.worst_case());
        assert_eq!(p.nonzero_bins(), vec![(0, 2), (3, 3), (7, 1)]);
        for q in [0.1, 0.34, 0.5, 0.99, 1.0] {
            assert_eq!(p.quantile(q), s.quantile(q), "q = {q}");
        }
        assert_eq!(p.fraction_done_by(3), s.fraction_done_by(3));
    }

    #[test]
    fn profile_from_counts_trims_trailing_zeros() {
        let p = TerminationProfile::from_counts(vec![2, 0, 1, 0, 0]);
        assert_eq!(p.counts(), &[2, 0, 1]);
        assert_eq!(p.worst_case(), 2);
        assert_eq!(p, TerminationProfile::from_rounds(&[0, 0, 2]));
    }

    #[test]
    #[should_panic(expected = "at least one node")]
    fn profile_rejects_empty() {
        let _ = TerminationProfile::from_counts(vec![0, 0]);
    }
}
