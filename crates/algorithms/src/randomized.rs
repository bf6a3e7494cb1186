//! Randomized node-averaged algorithms.
//!
//! The landscape's randomized side is radically simpler than the
//! deterministic one: \[BBK+23b\] (cited throughout the paper, and visible
//! in Fig. 1/2) shows every LCL solvable in subpolynomial worst-case time
//! has `O(1)` *randomized* node-averaged complexity — the entire dense
//! `(log* n)^c` region of Theorems 4–6 is a deterministic-only phenomenon.
//!
//! This module implements the canonical witness: randomized 3-coloring of
//! paths. Each round every undecided node proposes a uniformly random
//! color and finalizes if it conflicts with neither its finalized
//! neighbors nor its neighbors' simultaneous proposals; a node finalizes
//! with probability ≥ 1/3 per round independently of history, so its
//! expected termination round is `O(1)` and the node-averaged complexity
//! is `O(1)` in expectation — against the `Θ(log* n)` deterministic bound
//! of Corollary 17.

use crate::run::AlgorithmRun;
use lcl_core::coloring::ColorLabel;
use lcl_graph::Tree;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

const COLORS: [ColorLabel; 3] = [ColorLabel::Red, ColorLabel::Green, ColorLabel::Yellow];

/// The independent randomness stream of node `v`: its `k`-th draw is its
/// round-`k` color proposal. Keying streams by node (splitmix-style mixing
/// of the run seed with the node index) makes the structural reference and
/// the engine-native protocol consume randomness identically regardless of
/// execution order, so their outputs match bit for bit.
pub(crate) fn node_rng(seed: u64, v: usize) -> SmallRng {
    SmallRng::seed_from_u64(seed.wrapping_add((v as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)))
}

/// One uniform color proposal from a node's stream.
pub(crate) fn draw_color(rng: &mut SmallRng) -> ColorLabel {
    COLORS[rng.gen_range(0..3)]
}

/// The round budget after which a failed convergence indicates a bug
/// rather than bad luck (`64 + 4 log₂ n`; probability `≪ 2^{-64}`).
pub(crate) fn convergence_limit(n: usize) -> u64 {
    64 + 4 * (usize::BITS - n.leading_zeros()) as u64
}

/// Randomized proper 3-coloring of a bounded-degree-≤2 tree (a path), with
/// per-node termination rounds. Deterministic given the seed.
///
/// Each node finalizes in round `r` with constant probability, so the
/// expected node-averaged complexity is `O(1)` — the randomized side of
/// the paper's landscape at the `(log* n)^c` region.
///
/// # Panics
///
/// Panics if the tree has maximum degree above 2, or if some node fails to
/// finalize within `64 + 4 log₂ n` rounds (probability `≪ 2^{-64}`).
pub fn randomized_three_color_path(tree: &Tree, seed: u64) -> AlgorithmRun<ColorLabel> {
    assert!(
        tree.max_degree() <= 2,
        "randomized 3-coloring here targets paths"
    );
    let n = tree.node_count();
    let mut rngs: Vec<SmallRng> = (0..n).map(|v| node_rng(seed, v)).collect();
    let mut output: Vec<Option<ColorLabel>> = vec![None; n];
    let mut rounds: Vec<u64> = vec![0; n];
    let mut undecided: Vec<usize> = (0..n).collect();
    let limit = convergence_limit(n);

    let mut round = 0u64;
    while !undecided.is_empty() {
        round += 1;
        assert!(round <= limit, "randomized coloring failed to converge");
        // Simultaneous proposals, each from its node's own stream.
        let proposals: Vec<(usize, ColorLabel)> = undecided
            .iter()
            .map(|&v| (v, draw_color(&mut rngs[v])))
            .collect();
        let mut proposal_of = vec![None; n];
        for &(v, c) in &proposals {
            proposal_of[v] = Some(c);
        }
        let mut still = Vec::new();
        for &(v, c) in &proposals {
            let conflict = tree.neighbors(v).iter().any(|&w| {
                let w = w as usize;
                output[w] == Some(c) || proposal_of[w] == Some(c)
            });
            if conflict {
                still.push(v);
            } else {
                output[v] = Some(c);
                rounds[v] = round;
            }
        }
        undecided = still;
    }

    let outputs = output
        .into_iter()
        .map(|c| c.expect("all finalized"))
        .collect();
    AlgorithmRun::new(outputs, rounds)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lcl_graph::generators::path;

    fn assert_proper(tree: &Tree, out: &[ColorLabel]) {
        for (u, v) in tree.edges() {
            assert_ne!(out[u], out[v], "edge ({u}, {v})");
        }
    }

    #[test]
    fn colors_are_proper() {
        for n in [1usize, 2, 10, 500] {
            for seed in 0..5 {
                let tree = path(n);
                let run = randomized_three_color_path(&tree, seed);
                assert_proper(&tree, &run.outputs);
                assert!(run.outputs.iter().all(|c| c.is_rgy()));
            }
        }
    }

    #[test]
    fn node_average_is_constant_in_n() {
        // O(1) expected node-averaged rounds: the average must not grow
        // with n (contrast with the deterministic Θ(log* n) of Cor. 17 —
        // invisible at this scale — and the Θ(n) of 2-coloring).
        let mut avgs = Vec::new();
        for n in [1_000usize, 10_000, 100_000] {
            let tree = path(n);
            let run = randomized_three_color_path(&tree, 42);
            avgs.push(run.profile().node_averaged());
        }
        for &a in &avgs {
            assert!(a < 4.0, "averages: {avgs:?}");
        }
        assert!(
            (avgs[2] - avgs[0]).abs() < 0.5,
            "average drifted with n: {avgs:?}"
        );
    }

    #[test]
    fn worst_case_is_logarithmic_whp() {
        let n = 100_000;
        let tree = path(n);
        for seed in 0..3 {
            let run = randomized_three_color_path(&tree, seed);
            assert!(run.profile().worst_case() <= 40, "seed {seed}");
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let tree = path(200);
        let a = randomized_three_color_path(&tree, 7);
        let b = randomized_three_color_path(&tree, 7);
        assert_eq!(a.outputs, b.outputs);
        assert_eq!(a.rounds, b.rounds);
        let c = randomized_three_color_path(&tree, 8);
        assert_ne!(a.outputs, c.outputs);
    }

    #[test]
    #[should_panic(expected = "targets paths")]
    fn rejects_high_degree() {
        let tree = lcl_graph::generators::star(5);
        let _ = randomized_three_color_path(&tree, 0);
    }
}
