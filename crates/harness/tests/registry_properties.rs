//! Property tests for the registry (ISSUE 2): every registered algorithm
//! runs on its smallest supported instance under arbitrary seeds, its
//! `RunRecord` round vector covers exactly the node count, and the output
//! passes the problem verifier.

use lcl_harness::{resolver, run_timed, RunConfig};
use proptest::prelude::*;

#[test]
fn every_algorithm_runs_on_its_smallest_instance() {
    for algo in resolver().algorithms() {
        let spec = algo.smallest_spec();
        let instance = spec
            .build()
            .unwrap_or_else(|e| panic!("{}: smallest spec failed to build: {e}", algo.name()));
        let record = algo
            .run(&instance, &RunConfig::seeded(42))
            .unwrap_or_else(|e| panic!("{}: run failed: {e}", algo.name()));
        assert_eq!(
            record.rounds.len(),
            instance.node_count(),
            "{}: round vector must cover every node",
            algo.name()
        );
        assert_eq!(record.n, instance.node_count(), "{}", algo.name());
        assert!(record.verified, "{}: output must verify", algo.name());
        assert!(
            record.node_averaged <= record.worst_case as f64,
            "{}: average cannot exceed worst case",
            algo.name()
        );
    }
}

#[test]
fn default_specs_are_supported_and_buildable() {
    for algo in resolver().algorithms() {
        let cfg = RunConfig::default();
        let spec = algo.default_spec(4_000, &cfg);
        assert!(
            algo.supports(spec.kind()),
            "{}: default spec kind unsupported",
            algo.name()
        );
        let instance = spec
            .build()
            .unwrap_or_else(|e| panic!("{}: default spec failed to build: {e}", algo.name()));
        assert!(instance.node_count() > 0);
    }
}

#[test]
fn classification_hooks_are_coherent() {
    use lcl_core::landscape::Regime;
    for algo in resolver().algorithms() {
        let cfg = RunConfig::default();
        // The classification family must be runnable by the algorithm
        // and buildable at sweep sizes.
        let spec = algo.classify_spec(4_000, &cfg);
        assert!(
            algo.supports(spec.kind()),
            "{}: classify spec kind unsupported",
            algo.name()
        );
        assert!(spec.build().is_ok(), "{}: classify spec", algo.name());
        // The machine-checkable class must agree in regime with the
        // display string (coarse sanity: a Θ(n^c) cell must not render
        // as a log* one and vice versa).
        let class = algo.node_averaged_class(&cfg);
        let display = algo.landscape_class();
        match class.regime() {
            Regime::Poly => assert!(
                display.contains("n^") || display.contains("Θ(n)"),
                "{}: {display} vs {class}",
                algo.name()
            ),
            Regime::LogStar => assert!(
                display.contains("log*"),
                "{}: {display} vs {class}",
                algo.name()
            ),
            Regime::Log => assert!(
                display.contains("log n"),
                "{}: {display} vs {class}",
                algo.name()
            ),
            Regime::Constant => assert!(
                display.contains("O(1)"),
                "{}: {display} vs {class}",
                algo.name()
            ),
        }
        if let Some(e) = class.exponent() {
            assert!(e > 0.0 && e <= 1.0, "{}: exponent {e}", algo.name());
        }
    }
}

#[test]
fn records_summarize_their_own_histogram() {
    for algo in resolver().algorithms() {
        let instance = algo.smallest_spec().build().expect("smallest spec builds");
        let record = algo
            .run(&instance, &RunConfig::seeded(9))
            .unwrap_or_else(|e| panic!("{}: {e}", algo.name()));
        let mass: u64 = record.histogram.iter().map(|b| b.count).sum();
        assert_eq!(mass, record.n as u64, "{}", algo.name());
        let avg: f64 = record
            .histogram
            .iter()
            .map(|b| b.round as f64 * b.count as f64)
            .sum::<f64>()
            / record.n as f64;
        assert!(
            (avg - record.node_averaged).abs() < 1e-9,
            "{}: histogram mean {avg} vs node-averaged {}",
            algo.name(),
            record.node_averaged
        );
        assert!(record.median_round <= record.worst_case, "{}", algo.name());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    // Seeds are the only symmetry breaker of the LOCAL model; the registry
    // contract (runs, covers all nodes, verifies) must hold for all of
    // them, not just a lucky constant.
    #[test]
    fn registry_contract_holds_for_arbitrary_seeds(seed in any::<u64>()) {
        for algo in resolver().algorithms() {
            let instance = algo.smallest_spec().build().expect("smallest spec builds");
            let record = run_timed(*algo, &instance, &RunConfig::seeded(seed))
                .unwrap_or_else(|e| panic!("{} (seed {seed}): {e}", algo.name()));
            prop_assert_eq!(record.rounds.len(), instance.node_count());
            prop_assert!(record.verified);
            prop_assert!(record.elapsed_ms >= 0.0);
        }
    }
}
