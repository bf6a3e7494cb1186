//! Integration tests spanning all crates: constructions → algorithms →
//! verifiers → complexity shapes, driven through the unified harness
//! (`resolver()` + `Session`).

use lcl_landscape::algorithms::two_coloring::two_color_path;
use lcl_landscape::core::params;
use lcl_landscape::graph::generators::path;
use lcl_landscape::prelude::*;

#[test]
fn apoly_verifies_across_parameter_grid() {
    let mut session = Session::new();
    for (delta, d, k) in [(5usize, 2usize, 2usize), (6, 3, 2), (6, 2, 3)] {
        session
            .push(
                "apoly",
                InstanceSpec::WeightedPoly {
                    n: 20_000,
                    delta,
                    d,
                    k,
                },
                RunConfig::seeded((delta + d + k) as u64),
            )
            .unwrap();
    }
    // Verification runs inside the harness; a constraint violation would
    // surface as a VerificationFailed error here.
    let records = session.run().unwrap();
    assert!(records.iter().all(|r| r.verified));
}

#[test]
fn a35_verifies_across_parameter_grid() {
    let mut session = Session::new();
    for (delta, d, k) in [(6usize, 3usize, 2usize), (8, 3, 2), (6, 3, 3)] {
        session
            .push(
                "a35",
                InstanceSpec::WeightedLogStar {
                    n: 20_000,
                    delta,
                    d,
                    k,
                },
                RunConfig::seeded((delta * d * k) as u64),
            )
            .unwrap();
    }
    let records = session.run().unwrap();
    assert!(records.iter().all(|r| r.verified));
}

#[test]
fn weight_augmented_verifies_and_scales_as_sqrt_n() {
    let mut session = Session::new();
    for n in [20_000usize, 80_000] {
        session
            .push(
                "weight-augmented",
                InstanceSpec::WeightedUnit { n, delta: 5, k: 2 },
                RunConfig::seeded(n as u64),
            )
            .unwrap();
    }
    let records = session.run().unwrap();
    // Quadrupling n should roughly double the node-averaged cost (Θ(√n)).
    let ratio = records[1].node_averaged / records[0].node_averaged;
    assert!(
        (1.5..3.0).contains(&ratio),
        "√n scaling violated: ratio {ratio}"
    );
}

#[test]
fn node_averaged_beats_worst_case_on_thm11_instances() {
    // The punchline of the node-averaged measure: on Theorem 11 instances
    // the generic algorithm's average is much smaller than its worst case.
    let algo = resolver().find("generic-coloring").unwrap();
    for k in [2usize, 3] {
        let instance = InstanceSpec::Theorem11 { n: 200_000, k }.build().unwrap();
        let record = algo.run(&instance, &RunConfig::seeded(k as u64)).unwrap();
        assert!(record.verified);
        assert!(
            record.node_averaged * 2.0 < record.worst_case as f64,
            "k={k}: avg {} vs worst {}",
            record.node_averaged,
            record.worst_case
        );
    }
}

#[test]
fn two_coloring_is_linear_and_three_coloring_is_not() {
    let n = 60_000;
    let tree = path(n);
    let ids = Ids::random(n, 3);
    let two = two_color_path(&tree, &ids).profile().node_averaged();
    let three = lcl_landscape::algorithms::linial::three_color_path(&tree, &ids)
        .profile()
        .node_averaged();
    // 2-coloring pays ~3n/4 on average; 3-coloring a small constant.
    assert!(two > n as f64 / 2.0);
    assert!(three < 100.0);
}

#[test]
fn synthesized_problems_are_buildable() {
    // Theorem 1's synthesis output can always be instantiated and run
    // through the registry.
    let spec = lcl_landscape::core::landscape::synthesize_poly(0.41, 0.45).unwrap();
    if let lcl_landscape::core::landscape::PolySpec::Weighted { delta, d, k, .. } = spec {
        let instance = InstanceSpec::WeightedPoly {
            n: 10_000,
            delta,
            d,
            k,
        }
        .build()
        .unwrap();
        let record = resolver()
            .find("apoly")
            .unwrap()
            .run(&instance, &RunConfig::seeded(9))
            .unwrap();
        assert!(record.verified);
    }
}

#[test]
fn registry_and_prelude_expose_the_full_surface() {
    // The facade prelude exposes the harness types; a batch summarizes
    // into a sweep report with a power-law fit.
    let mut session = Session::new().threads(2);
    for n in [1_000usize, 2_000, 4_000] {
        session
            .push(
                "two-coloring",
                InstanceSpec::Path { n },
                RunConfig::seeded(n as u64),
            )
            .unwrap();
    }
    let records = session.run().unwrap();
    let report = SweepReport::from_records("two-coloring", &records);
    assert_eq!(report.algorithm, "two-coloring");
    assert!(report.fit.expect("three sizes").exponent > 0.9);
}

#[test]
fn theorem11_lengths_still_drive_the_public_generators() {
    // The low-level surface stays available alongside the harness.
    let lengths = params::theorem11_lengths(50_000, 2);
    let g = LowerBoundGraph::new(&lengths).unwrap();
    assert!(g.tree().node_count() > 10_000);
}
