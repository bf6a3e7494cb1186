//! The adapted fast decomposition for the `d`-free weight problem
//! (Section 8.1 of the paper, after \[BBK+23a\]).
//!
//! The weight subgraph is consumed by iterated rake-and-compress steps
//! (`γ = 1`, relaxed compress with `ℓ = 3`). Edges are oriented from late
//! to early: a raked node receives its unique remaining edge, and the
//! first/last `ℓ` edges of a compress chain (including the boundary edges)
//! point inward. Declines are produced only by the paper's events —
//! *borders* of `A`-nodes (adapted rule 1), cascades from assigned borders
//! (rule 2), component roots / local maxima (rule 3), compress interiors
//! at distance ≥ `ℓ` from the chain ends (rule 4) — and propagate along
//! consistently oriented paths, one hop per round.
//!
//! **Reserve pruning (our realization of BBK's inserted compress paths).**
//! When a node is raked at iteration `i` it already knows its pendant
//! subtree (diameter `O(i)`, Observation 46). It keeps a *reserve* of its
//! pending children — all but the `d - 2` heaviest subtrees, the greedy of
//! Lemma 52 with two decline slots spared for structural neighbors — and
//! declines the pruned subtrees immediately. The surviving reserve has
//! fan-out at most `Δ - 1 - (d - 2) = Δ - d + 1`, which is precisely where
//! the upper-bound efficiency factor `x' = log(Δ-d+1)/log(Δ-1)` of
//! Theorem 5 comes from, and the pending set shrinks geometrically so
//! declines cost `O(1)` node-averaged rounds (Corollary 47 / Lemma 56).
//! When an `A`-node is assigned, its pending reachable set *is* the
//! (already pruned) copy component `C'(v)` of Lemmas 50–52.
//!
//! **Claim on contact.** Nodes that rake toward a (still unassigned)
//! `A`-node — and the first `ℓ` nodes of a compress chain whose outer
//! neighbor is an `A`-node — join that `A`-node's copy component
//! immediately, together with their pending reserves. This keeps every
//! neighbor of the component safe from unrelated decline cascades, so the
//! only declines ever adjacent to the anchor are its own borders and
//! prunes (the invariant of Lemma 48: at most `2 + (d - 2) = d`).

use crate::dfree_a::CopyComponent;
use lcl_core::dfree::{DfreeInput, DfreeOutput};
use lcl_graph::{induced_paths, Bfs, NodeId, NodeMask, Tree};
use std::collections::VecDeque;

/// Rounds charged for the 5-hop `Connect` pre-step.
const PRESTEP_ROUNDS: u64 = 5;
/// Rounds charged per rake/compress iteration (constant-radius steps).
const ROUNDS_PER_ITERATION: u64 = 2;
/// Relaxed compress threshold `ℓ`.
const ELL: usize = 3;

/// Result of the adapted fast decomposition on the weight subgraph.
#[derive(Debug, Clone)]
pub struct FastWeightRun {
    /// Output per node: `Decline`/`Connect` decided here; members of
    /// [`Self::components`] are left `None` for the caller (the Π^{3.5}
    /// algorithm) to resolve into `Copy` with a secondary output.
    pub outputs: Vec<Option<DfreeOutput>>,
    /// Termination rounds for the decided nodes.
    pub rounds: Vec<u64>,
    /// Pending copy components, reserve-pruned, one per non-`Connect`
    /// `A`-node.
    pub components: Vec<CopyComponent>,
    /// Number of rake/compress iterations used (`O(log n)`).
    pub iterations: u32,
}

fn base_round(iteration: u32) -> u64 {
    PRESTEP_ROUNDS + ROUNDS_PER_ITERATION * iteration as u64
}

/// Runs the adapted fast decomposition on the subgraph induced by `mask`.
///
/// `input` labels every mask node with `Adjacent` (`A`) or `Weight`; `d`
/// is the decline budget (the paper's Theorem 5 uses `d ≥ 3`; smaller `d`
/// is accepted but leaves fewer reserve-pruning slots, degrading the
/// node-averaged guarantee).
///
/// # Panics
///
/// Panics if `d == 0` or if an internal invariant (every node eventually
/// decides) is violated.
pub fn fast_dfree(tree: &Tree, mask: &NodeMask, input: &[DfreeInput], d: usize) -> FastWeightRun {
    assert!(d >= 1, "the weighted problems require d >= 1");
    let n = tree.node_count();
    let mut outputs: Vec<Option<DfreeOutput>> = vec![None; n];
    let mut rounds: Vec<u64> = vec![0; n];
    let mut components: Vec<CopyComponent> = Vec::new();
    // Component index per A-node anchor (populated lazily on first claim).
    let mut component_of: Vec<Option<usize>> = vec![None; n];
    // `claimed` marks pending copy-component members; cascades skip them.
    let mut claimed = NodeMask::empty(n);
    // Oriented out-edges (late -> early).
    let mut oriented: Vec<Vec<u32>> = vec![Vec::new(); n];
    // Pending = assigned, not yet decided, not claimed.
    let mut pending = NodeMask::empty(n);
    // Pending subtree sizes (only maintained at pendant roots).
    let mut pending_size: Vec<u64> = vec![0; n];

    // --- Pre-step: Connect paths between A-nodes at distance <= 5. ---
    let a_nodes: Vec<NodeId> = mask
        .iter()
        .filter(|&v| input[v] == DfreeInput::Adjacent)
        .collect();
    let mut bfs = Bfs::new(n);
    for &a in &a_nodes {
        bfs.run(tree, &[a], Some(mask), 5);
        for &b in bfs.order() {
            if b != a && input[b] == DfreeInput::Adjacent {
                for u in bfs.walk(b) {
                    outputs[u] = Some(DfreeOutput::Connect);
                    rounds[u] = PRESTEP_ROUNDS;
                }
            }
        }
    }

    // --- Iterated rake-and-compress over the remaining graph. ---
    let mut remaining = NodeMask::empty(n);
    for v in mask.iter() {
        if outputs[v].is_none() {
            remaining.insert(v);
        }
    }
    let mut degree: Vec<usize> = (0..n)
        .map(|v| {
            if remaining.contains(v) {
                tree.neighbors(v)
                    .iter()
                    .filter(|&&w| remaining.contains(w as usize))
                    .count()
            } else {
                0
            }
        })
        .collect();

    let mut iteration = 0u32;
    let mut remaining_count = remaining.count();
    while remaining_count > 0 {
        iteration += 1;
        assert!(
            iteration as usize <= 2 * n + 4,
            "fast decomposition failed to make progress"
        );
        let base = base_round(iteration);

        // ---- Rake pass. ----
        let mut rake_set: Vec<NodeId> = Vec::new();
        let mut in_rake_set = NodeMask::empty(n);
        for v in remaining.iter() {
            if degree[v] == 0 {
                rake_set.push(v);
                in_rake_set.insert(v);
            } else if degree[v] == 1 {
                let u = tree
                    .neighbors(v)
                    .iter()
                    .map(|&w| w as usize)
                    .find(|&w| remaining.contains(w))
                    .expect("degree-1 node has a remaining neighbor");
                if degree[u] > 1 || v < u {
                    rake_set.push(v);
                    in_rake_set.insert(v);
                }
            }
        }
        for &v in &rake_set {
            let up = tree
                .neighbors(v)
                .iter()
                .map(|&w| w as usize)
                .find(|&w| remaining.contains(w) && !in_rake_set.contains(w));
            remaining.remove(v);
            remaining_count -= 1;
            if let Some(u) = up {
                degree[u] -= 1;
                oriented[u].push(v as u32);
            }
            process_assigned(
                v,
                up,
                input,
                d,
                base,
                &oriented,
                &mut outputs,
                &mut rounds,
                &mut pending,
                &mut claimed,
                &mut pending_size,
                &mut components,
                &mut component_of,
            );
        }
        if remaining_count == 0 {
            break;
        }

        // ---- Compress pass (relaxed, chains of length >= ELL). ----
        let chain_mask = NodeMask::from_nodes(n, remaining.iter().filter(|&v| degree[v] == 2));
        if !chain_mask.is_empty() {
            for chain in induced_paths(tree, &chain_mask) {
                if chain.len() < ELL {
                    continue;
                }
                compress_chain(
                    tree,
                    &chain,
                    input,
                    d,
                    base,
                    &mut remaining,
                    &mut remaining_count,
                    &mut degree,
                    &mut oriented,
                    &mut outputs,
                    &mut rounds,
                    &mut pending,
                    &mut claimed,
                    &mut pending_size,
                    &mut components,
                    &mut component_of,
                );
            }
        }
    }

    // Every mask node must have decided or been claimed by a component.
    for v in mask.iter() {
        assert!(
            outputs[v].is_some() || claimed.contains(v),
            "node {v} left undecided by the fast decomposition"
        );
    }
    FastWeightRun {
        outputs,
        rounds,
        components,
        iterations: iteration,
    }
}

/// Handles a newly assigned (raked) node: reserve pruning, claim-on-contact
/// into adjacent `A`-nodes' components, border bookkeeping, and
/// component-root cascades.
#[allow(clippy::too_many_arguments)]
fn process_assigned(
    v: NodeId,
    up: Option<NodeId>,
    input: &[DfreeInput],
    d: usize,
    base: u64,
    oriented: &[Vec<u32>],
    outputs: &mut [Option<DfreeOutput>],
    rounds: &mut [u64],
    pending: &mut NodeMask,
    claimed: &mut NodeMask,
    pending_size: &mut [u64],
    components: &mut Vec<CopyComponent>,
    component_of: &mut [Option<usize>],
) {
    // Adapted rule 2: a border node (declined while unassigned) that now
    // receives a layer cascades declines to everything reachable from it.
    if outputs[v].is_some() {
        cascade_decline_children(v, base, oriented, outputs, rounds, pending, claimed);
        return;
    }
    // Reserve pruning: decline the (d - 2) heaviest pending child subtrees.
    let mut kids: Vec<NodeId> = oriented[v]
        .iter()
        .map(|&w| w as usize)
        .filter(|&w| pending.contains(w))
        .collect();
    kids.sort_by_key(|&k| std::cmp::Reverse(pending_size[k]));
    let prune = d.saturating_sub(2).min(kids.len());
    for &k in kids.iter().take(prune) {
        cascade_decline(k, base, oriented, outputs, rounds, pending, claimed);
    }
    let kept: u64 = kids.iter().skip(prune).map(|&k| pending_size[k]).sum();

    if input[v] == DfreeInput::Adjacent {
        // Adapted rule 1: the border declines; v and everything claimed on
        // contact (plus any residual pending reachables) form C'(v).
        if let Some(u) = up {
            if outputs[u].is_none() && !claimed.contains(u) {
                outputs[u] = Some(DfreeOutput::Decline);
                rounds[u] = base;
                pending.remove(u);
            }
        }
        let idx = component_index(v, base, components, component_of);
        claimed.insert(v);
        components[idx].members.push((v, 0));
        claim_into(v, 0, idx, oriented, outputs, pending, claimed, components);
        components[idx].formed_round = base;
        return;
    }

    // Claim on contact: raking toward a (still unassigned, non-Connect)
    // A-node attaches v and its reserve to that node's component.
    if let Some(u) = up {
        if input[u] == DfreeInput::Adjacent && outputs[u].is_none() {
            let idx = component_index(u, base, components, component_of);
            claimed.insert(v);
            components[idx].members.push((v, 1));
            claim_into(v, 1, idx, oriented, outputs, pending, claimed, components);
            return;
        }
        // v stays pending; it may serve a future component above.
        pending.insert(v);
        pending_size[v] = 1 + kept;
    } else {
        // Component root (no unassigned neighbor): everything reachable
        // that is still pending declines — adapted rule 3 cascades.
        cascade_decline(v, base, oriented, outputs, rounds, pending, claimed);
    }
}

/// Looks up (or lazily registers, formed at `base`) the component of an
/// `A`-node anchor.
fn component_index(
    anchor: NodeId,
    base: u64,
    components: &mut Vec<CopyComponent>,
    component_of: &mut [Option<usize>],
) -> usize {
    if let Some(idx) = component_of[anchor] {
        return idx;
    }
    let idx = components.len();
    components.push(CopyComponent {
        anchor,
        members: Vec::new(),
        formed_round: base,
    });
    component_of[anchor] = Some(idx);
    idx
}

/// Claims the pending set reachable from `from` (exclusive) into component
/// `idx`, at depth offset `depth0`.
#[allow(clippy::too_many_arguments)]
fn claim_into(
    from: NodeId,
    depth0: u32,
    idx: usize,
    oriented: &[Vec<u32>],
    outputs: &[Option<DfreeOutput>],
    pending: &mut NodeMask,
    claimed: &mut NodeMask,
    components: &mut [CopyComponent],
) {
    let mut queue = VecDeque::new();
    queue.push_back((from, depth0));
    while let Some((u, du)) = queue.pop_front() {
        for &w in &oriented[u] {
            let w = w as usize;
            if outputs[w].is_none() && pending.contains(w) && !claimed.contains(w) {
                claimed.insert(w);
                pending.remove(w);
                components[idx].members.push((w, du + 1));
                queue.push_back((w, du + 1));
            }
        }
    }
}

/// Handles one compressed chain: orientation, interior declines (adapted
/// rule 4), and A-nodes on the chain (adapted rule 1, compress case).
#[allow(clippy::too_many_arguments)]
fn compress_chain(
    tree: &Tree,
    chain: &[NodeId],
    input: &[DfreeInput],
    d: usize,
    base: u64,
    remaining: &mut NodeMask,
    remaining_count: &mut usize,
    degree: &mut [usize],
    oriented: &mut [Vec<u32>],
    outputs: &mut [Option<DfreeOutput>],
    rounds: &mut [u64],
    pending: &mut NodeMask,
    claimed: &mut NodeMask,
    pending_size: &mut [u64],
    components: &mut Vec<CopyComponent>,
    component_of: &mut [Option<usize>],
) {
    let m = chain.len();
    // Remove the chain from the remaining graph.
    for &c in chain {
        remaining.remove(c);
        *remaining_count -= 1;
    }
    // Outer boundary neighbors (still remaining, exactly one per side in
    // the relaxed decomposition; absent for whole-component chains).
    let outer_of = |end: NodeId| -> Option<NodeId> {
        tree.neighbors(end)
            .iter()
            .map(|&w| w as usize)
            .find(|&w| remaining.contains(w))
    };
    let left_outer = outer_of(chain[0]);
    let right_outer = outer_of(chain[m - 1]);
    for out in [left_outer, right_outer].into_iter().flatten() {
        degree[out] -= 1;
    }
    // Orientation: boundary edge plus the first/last ELL-1 path edges point
    // inward (a total of ELL oriented edges per side, Fig. 5).
    if let Some(o) = left_outer {
        oriented[o].push(chain[0] as u32);
    }
    for e in 0..(ELL - 1).min(m - 1) {
        oriented[chain[e]].push(chain[e + 1] as u32);
    }
    if let Some(o) = right_outer {
        oriented[o].push(chain[m - 1] as u32);
    }
    for e in 0..(ELL - 1).min(m - 1) {
        oriented[chain[m - 1 - e]].push(chain[m - 2 - e] as u32);
    }

    // Per-node treatment.
    for (idx, &c) in chain.iter().enumerate() {
        let from_end = idx.min(m - 1 - idx);
        if outputs[c].is_some() {
            // Adapted rule 2: an assigned border cascades declines.
            cascade_decline_children(c, base, oriented, outputs, rounds, pending, claimed);
        } else if input[c] == DfreeInput::Adjacent {
            // Adapted rule 1, compress case: both chain neighbors decline
            // (borders), the pending reachable set becomes the component.
            for nb in [idx.checked_sub(1), (idx + 1 < m).then_some(idx + 1)]
                .into_iter()
                .flatten()
            {
                let u = chain[nb];
                if outputs[u].is_none() && !claimed.contains(u) {
                    outputs[u] = Some(DfreeOutput::Decline);
                    rounds[u] = base;
                    pending.remove(u);
                    // Rule 1: cascades from already-assigned borders.
                    cascade_decline_children(u, base, oriented, outputs, rounds, pending, claimed);
                }
            }
            // Prune v's own pendant reserves before claiming.
            let mut kids: Vec<NodeId> = oriented[c]
                .iter()
                .map(|&w| w as usize)
                .filter(|&w| pending.contains(w))
                .collect();
            kids.sort_by_key(|&k| std::cmp::Reverse(pending_size[k]));
            let prune = d.saturating_sub(2).min(kids.len());
            for &k in kids.iter().take(prune) {
                cascade_decline(k, base, oriented, outputs, rounds, pending, claimed);
            }
            let idx = component_index(c, base, components, component_of);
            claimed.insert(c);
            pending.remove(c);
            components[idx].members.push((c, 0));
            claim_into(c, 0, idx, oriented, outputs, pending, claimed, components);
            components[idx].formed_round = base;
        } else if from_end >= ELL {
            // Adapted rule 4: deep interior declines with its reserves.
            if outputs[c].is_none() && !claimed.contains(c) {
                cascade_decline(c, base, oriented, outputs, rounds, pending, claimed);
            }
        } else if outputs[c].is_none() && !claimed.contains(c) {
            // Near-end chain node: stays pending until a cascade arrives
            // through the inward-oriented boundary edges (or until the
            // boundary claim below attaches it to an A-node's component).
            pending.insert(c);
            pending_size[c] = 1 + oriented[c]
                .iter()
                .map(|&w| w as usize)
                .filter(|&w| pending.contains(w))
                .map(|w| pending_size[w])
                .sum::<u64>();
        }
    }

    // Claim on contact across the chain boundary: if an outer neighbor is
    // a still-unassigned A-node, the chain end it touches (and the pending
    // prefix reachable through the inward orientation) joins its component
    // now, protecting it from unrelated cascades.
    for (outer, end) in [(left_outer, chain[0]), (right_outer, chain[m - 1])] {
        let Some(o) = outer else { continue };
        if input[o] != DfreeInput::Adjacent || outputs[o].is_some() {
            continue;
        }
        if !pending.contains(end) || claimed.contains(end) {
            continue;
        }
        let idx_c = component_index(o, base, components, component_of);
        claimed.insert(end);
        pending.remove(end);
        components[idx_c].members.push((end, 1));
        claim_into(
            end, 1, idx_c, oriented, outputs, pending, claimed, components,
        );
    }
}

/// Declines `start` and every pending node reachable from it along
/// oriented edges, charging `base + depth` rounds.
fn cascade_decline(
    start: NodeId,
    base: u64,
    oriented: &[Vec<u32>],
    outputs: &mut [Option<DfreeOutput>],
    rounds: &mut [u64],
    pending: &mut NodeMask,
    claimed: &NodeMask,
) {
    if outputs[start].is_some() || claimed.contains(start) {
        return;
    }
    let mut queue = VecDeque::new();
    outputs[start] = Some(DfreeOutput::Decline);
    rounds[start] = base;
    pending.remove(start);
    queue.push_back((start, 0u32));
    while let Some((u, du)) = queue.pop_front() {
        for &w in &oriented[u] {
            let w = w as usize;
            if outputs[w].is_none() && !claimed.contains(w) {
                outputs[w] = Some(DfreeOutput::Decline);
                rounds[w] = base + du as u64 + 1;
                pending.remove(w);
                queue.push_back((w, du + 1));
            }
        }
    }
}

/// Like [`cascade_decline`] but starting from the children of `start`
/// (used when `start` itself already declined as a border).
fn cascade_decline_children(
    start: NodeId,
    base: u64,
    oriented: &[Vec<u32>],
    outputs: &mut [Option<DfreeOutput>],
    rounds: &mut [u64],
    pending: &mut NodeMask,
    claimed: &NodeMask,
) {
    for &w in &oriented[start] {
        cascade_decline(
            w as usize,
            base + 1,
            oriented,
            outputs,
            rounds,
            pending,
            claimed,
        );
    }
}

/// Resolves all pending components into `Copy` outputs (members copy at
/// `formed_round + depth`), yielding a complete standalone solution of the
/// `d`-free weight problem. The Π^{3.5} algorithm instead resolves
/// components against the active nodes' termination times.
pub fn fast_dfree_standalone(
    tree: &Tree,
    mask: &NodeMask,
    input: &[DfreeInput],
    d: usize,
) -> FastWeightRun {
    let mut run = fast_dfree(tree, mask, input, d);
    for comp in &run.components {
        for &(u, depth) in &comp.members {
            run.outputs[u] = Some(DfreeOutput::Copy);
            run.rounds[u] = comp.formed_round + depth as u64;
        }
    }
    run
}

#[cfg(test)]
mod tests {
    use super::*;
    use lcl_core::dfree::DFreeWeight;
    use lcl_core::problem::LclProblem;
    use lcl_graph::generators::{
        balanced_weight_tree, caterpillar, path, random_bounded_degree_tree,
    };

    fn inputs_with_a(n: usize, a_nodes: &[NodeId]) -> Vec<DfreeInput> {
        let mut input = vec![DfreeInput::Weight; n];
        for &a in a_nodes {
            input[a] = DfreeInput::Adjacent;
        }
        input
    }

    fn run_standalone(tree: &Tree, a_nodes: &[NodeId], d: usize) -> FastWeightRun {
        let n = tree.node_count();
        let mask = NodeMask::full(n);
        let input = inputs_with_a(n, a_nodes);
        let run = fast_dfree_standalone(tree, &mask, &input, d);
        let outputs: Vec<DfreeOutput> = run
            .outputs
            .iter()
            .map(|o| o.expect("standalone run decides everywhere"))
            .collect();
        DFreeWeight::new(d)
            .verify(tree, &input, &outputs)
            .unwrap_or_else(|e| panic!("invalid fast d-free output: {e}"));
        run
    }

    #[test]
    fn pure_path_declines_fast() {
        let n = 500;
        let tree = path(n);
        let run = run_standalone(&tree, &[], 3);
        // Deep interior nodes decline in the first iteration.
        let early = run
            .rounds
            .iter()
            .zip(&run.outputs)
            .filter(|&(r, _)| *r <= base_round(1) + 1)
            .count();
        assert!(early > n / 2, "only {early} early deciders");
        // Everything finishes within O(log n)-like rounds.
        let worst = run.rounds.iter().max().unwrap();
        assert!(*worst <= base_round(run.iterations) + 10, "worst {worst}");
        assert!(run.iterations <= 6, "{} iterations", run.iterations);
    }

    #[test]
    fn random_trees_verify_and_average_constant() {
        for seed in 0..5 {
            let n = 2000;
            let tree = random_bounded_degree_tree(n, 4, seed);
            let run = run_standalone(&tree, &[], 3);
            let avg: f64 = run.rounds.iter().map(|&r| r as f64).sum::<f64>() / n as f64;
            // Node-averaged rounds stay near the pre-step constant;
            // doubling n must not move it much (checked across seeds here
            // and across sizes in the integration tests).
            assert!(avg < 40.0, "seed {seed}: node-avg {avg}");
        }
    }

    #[test]
    fn balanced_gadget_with_a_root() {
        let w = 3_000;
        let delta = 6;
        let d = 3;
        let tree = balanced_weight_tree(w, delta);
        let run = run_standalone(&tree, &[0], d);
        assert_eq!(run.components.len(), 1);
        let comp = &run.components[0];
        assert_eq!(comp.anchor, 0);
        // The reserve fan-out is Δ - d + 1 = 4 of Δ - 1 = 5 children: the
        // component must be sublinear, on the order of w^{x'}.
        let x_prime = ((delta - d + 1) as f64).ln() / ((delta - 1) as f64).ln();
        let bound = 8.0 * (w as f64).powf(x_prime);
        assert!(
            (comp.members.len() as f64) <= bound,
            "component {} > bound {bound:.0}",
            comp.members.len()
        );
        assert!(comp.members.len() >= 2, "the cascade must copy something");
    }

    #[test]
    fn component_neighbors_are_declined() {
        // Lemma 50: everything adjacent to a copy component has declined.
        let tree = balanced_weight_tree(800, 5);
        let run = run_standalone(&tree, &[0], 3);
        let comp = &run.components[0];
        let members: std::collections::HashSet<NodeId> =
            comp.members.iter().map(|&(u, _)| u).collect();
        for &(u, _) in &comp.members {
            for &w in tree.neighbors(u) {
                let w = w as usize;
                if !members.contains(&w) {
                    assert_eq!(
                        run.outputs[w],
                        Some(DfreeOutput::Decline),
                        "neighbor {w} of member {u}"
                    );
                }
            }
        }
    }

    #[test]
    fn copy_budget_respected_with_d3() {
        // Every member's declined-neighbor count stays within d (the d-free
        // verifier checks this too; here we count directly for clarity).
        let d = 3;
        for seed in 0..4 {
            let tree = random_bounded_degree_tree(1200, 5, seed);
            // Put an A-node somewhere in the middle of the tree.
            let a = 600;
            let run = run_standalone(&tree, &[a], d);
            for comp in &run.components {
                for &(u, _) in &comp.members {
                    let declines = tree
                        .neighbors(u)
                        .iter()
                        .filter(|&&w| run.outputs[w as usize] == Some(DfreeOutput::Decline))
                        .count();
                    assert!(declines <= d, "member {u} has {declines} decliners");
                }
            }
        }
    }

    #[test]
    fn close_a_nodes_connect() {
        let tree = path(4);
        let run = run_standalone(&tree, &[0, 3], 3);
        assert!(run.outputs.iter().all(|&o| o == Some(DfreeOutput::Connect)));
        assert!(run.components.is_empty());
    }

    #[test]
    fn caterpillar_mixed_structure() {
        let tree = caterpillar(100, 3);
        // A-node on a spine position.
        let run = run_standalone(&tree, &[50], 3);
        assert_eq!(run.components.len(), 1);
    }

    #[test]
    fn worst_case_rounds_logarithmic() {
        let mut prev: Option<u64> = None;
        for exp in [8usize, 10, 12] {
            let n = 1 << exp;
            let tree = balanced_weight_tree(n, 4);
            let run = run_standalone(&tree, &[], 3);
            let worst = *run.rounds.iter().max().unwrap();
            if let Some(p) = prev {
                // Worst case grows additively (logarithmically), not
                // multiplicatively, when n quadruples.
                assert!(worst <= p + 20, "n = {n}: worst {worst} prev {p}");
            }
            prev = Some(worst);
        }
    }

    #[test]
    fn node_average_stays_constant_as_n_grows() {
        let mut avgs = Vec::new();
        for exp in [9usize, 11, 13] {
            let n = 1 << exp;
            let tree = balanced_weight_tree(n, 5);
            let run = run_standalone(&tree, &[], 3);
            let avg: f64 = run.rounds.iter().map(|&r| r as f64).sum::<f64>() / n as f64;
            avgs.push(avg);
        }
        // Quadrupling n twice should leave the average nearly flat
        // (geometric pending decay, Corollary 47).
        assert!(avgs[2] <= avgs[0] * 1.5 + 3.0, "averages grew: {avgs:?}");
    }

    #[test]
    #[should_panic(expected = "d >= 1")]
    fn zero_d_rejected() {
        let tree = path(3);
        let mask = NodeMask::full(3);
        let input = inputs_with_a(3, &[]);
        let _ = fast_dfree(&tree, &mask, &input, 0);
    }
}
