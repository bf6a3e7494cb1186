//! Smoke tests for the `lcl` CLI: the registry listing must cover every
//! solver, a tiny figure sweep must emit the golden JSON schema, and the
//! problem-first `solve` pipeline must classify presets and JSON tables.

use std::path::Path;
use std::process::Command;

fn lcl(args: &[&str]) -> std::process::Output {
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".to_string());
    let manifest_dir = Path::new(env!("CARGO_MANIFEST_DIR"));
    Command::new(cargo)
        .current_dir(manifest_dir)
        .args(["run", "--offline", "-q", "--bin", "lcl", "--"])
        .args(args)
        .output()
        .expect("cargo run --bin lcl spawns")
}

#[test]
fn list_names_every_registry_algorithm() {
    let output = lcl(&["list"]);
    assert!(output.status.success(), "lcl list failed: {output:?}");
    let stdout = String::from_utf8_lossy(&output.stdout);
    for algo in lcl_harness::resolver().algorithms() {
        let name = algo.name();
        assert!(stdout.contains(name), "lcl list is missing `{name}`");
    }
}

#[test]
fn tiny_sweep_matches_golden_schema() {
    let output = lcl(&["sweep", "thm11_hier35", "--tiny", "--schema"]);
    assert!(output.status.success(), "lcl sweep failed: {output:?}");
    let stdout = String::from_utf8_lossy(&output.stdout);
    let emitted: Vec<&str> = stdout
        .lines()
        .filter(|l| l.starts_with("SCHEMA "))
        .collect();
    assert!(!emitted.is_empty(), "sweep printed no schema lines");
    let golden = std::fs::read_to_string(
        Path::new(env!("CARGO_MANIFEST_DIR")).join("golden/sweep_schema.txt"),
    )
    .expect("golden schema file is checked in");
    for line in emitted {
        assert!(
            golden.contains(line),
            "schema line not in golden file (regenerate with \
             `lcl sweep all --tiny --schema | grep '^SCHEMA '`): {line}"
        );
    }
}

#[test]
fn tiny_churn_matches_golden_schema_and_is_deterministic() {
    let output = lcl(&["churn", "--scale", "tiny", "--schema"]);
    assert!(output.status.success(), "lcl churn failed: {output:?}");
    let stdout = String::from_utf8_lossy(&output.stdout);
    let churn_lines: Vec<&str> = stdout.lines().filter(|l| l.starts_with("CHURN ")).collect();
    assert!(!churn_lines.is_empty(), "churn printed no CHURN lines");
    // The CHURN lines carry no wall-clock: a second run of the same
    // preset must reproduce them byte-for-byte.
    let again = lcl(&["churn", "--scale", "tiny", "--schema"]);
    assert!(again.status.success(), "second churn run failed: {again:?}");
    let again_stdout = String::from_utf8_lossy(&again.stdout);
    let again_lines: Vec<&str> = again_stdout
        .lines()
        .filter(|l| l.starts_with("CHURN "))
        .collect();
    assert_eq!(
        churn_lines, again_lines,
        "CHURN lines are not deterministic"
    );
    let emitted: Vec<&str> = stdout
        .lines()
        .filter(|l| l.starts_with("SCHEMA "))
        .collect();
    assert!(!emitted.is_empty(), "churn printed no schema lines");
    let golden = std::fs::read_to_string(
        Path::new(env!("CARGO_MANIFEST_DIR")).join("golden/churn_schema.txt"),
    )
    .expect("golden churn schema file is checked in");
    for line in emitted {
        assert!(
            golden.contains(line),
            "schema line not in golden file (regenerate with \
             `lcl churn --scale tiny --schema | grep '^SCHEMA '`): {line}"
        );
    }
}

/// The determinism check above compares two runs of one build; this pins
/// the CHURN lines (labels, sizes, checksums) across commits, so a change
/// to incremental re-solving or to the checksum function shows here.
#[test]
fn tiny_churn_lines_match_golden() {
    let output = lcl(&["churn", "--scale", "tiny"]);
    assert!(output.status.success(), "lcl churn failed: {output:?}");
    let stdout = String::from_utf8_lossy(&output.stdout);
    let emitted: Vec<&str> = stdout.lines().filter(|l| l.starts_with("CHURN ")).collect();
    let golden = std::fs::read_to_string(
        Path::new(env!("CARGO_MANIFEST_DIR")).join("golden/churn_lines.txt"),
    )
    .expect("golden CHURN lines are checked in");
    assert_eq!(
        emitted,
        golden.lines().collect::<Vec<_>>(),
        "CHURN lines drifted; if intentional, regenerate with \
         `lcl churn --scale tiny | grep '^CHURN '`"
    );
}

#[test]
fn churn_rejects_unknown_preset() {
    let output = lcl(&["churn", "--scale", "galactic"]);
    assert!(!output.status.success());
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("unknown churn preset"), "stderr: {stderr}");
}

#[test]
fn classify_runs_at_tiny_scale() {
    // The tiny ladders cannot resolve the landscape (log* is constant
    // across them), so no --strict: this only checks the pipeline runs
    // and reports every algorithm.
    let output = lcl(&["classify", "--scale", "tiny"]);
    assert!(output.status.success(), "lcl classify failed: {output:?}");
    let stdout = String::from_utf8_lossy(&output.stdout);
    for algo in lcl_harness::resolver().algorithms() {
        let name = algo.name();
        assert!(stdout.contains(name), "classify table is missing `{name}`");
    }
    assert!(stdout.contains("fitted"), "stdout: {stdout}");
}

#[test]
fn solve_classifies_and_runs_a_preset() {
    let output = lcl(&["solve", "3-coloring", "--n", "600"]);
    assert!(output.status.success(), "lcl solve failed: {output:?}");
    let stdout = String::from_utf8_lossy(&output.stdout);
    let plan_line = stdout
        .lines()
        .find(|l| l.starts_with("PLAN "))
        .expect("solve prints a PLAN line");
    assert!(plan_line.contains("solver=linial"), "{plan_line}");
    assert!(plan_line.contains("source=path-automaton"), "{plan_line}");
    assert!(plan_line.contains("consistent=true"), "{plan_line}");
    assert!(stdout.contains("verified"), "{stdout}");
}

#[test]
fn solve_accepts_a_json_problem_file() {
    let fixture = Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures/custom_path.json");
    let output = lcl(&[
        "solve",
        fixture.to_str().unwrap(),
        "--n",
        "400",
        "--classify-only",
    ]);
    assert!(
        output.status.success(),
        "lcl solve fixture failed: {output:?}"
    );
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(stdout.contains("solver=path-lcl"), "{stdout}");
    assert!(stdout.contains("class=Θ(1)"), "{stdout}");
}

#[test]
fn solve_classify_only_reports_solverless_problems() {
    // An asymmetric BW path problem: classifiable by the alternating
    // automaton, but no adapter bids on it (the symmetric-path reduction
    // does not apply). --classify-only must still report the class;
    // actually solving must fail with the typed NoSolver error.
    let dir = std::env::temp_dir().join("lcl_smoke_asym_bw.json");
    std::fs::write(
        &dir,
        r#"{"problem": "bw", "out_labels": 2, "max_degree": 2,
            "white": [[0], [0, 0]], "black": [[0], [0, 0], [1]]}"#,
    )
    .expect("write fixture");
    let path = dir.to_str().unwrap();
    let output = lcl(&["solve", path, "--classify-only"]);
    assert!(output.status.success(), "classify-only failed: {output:?}");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(stdout.contains("solver=-"), "{stdout}");
    assert!(stdout.contains("source=bw-testing"), "{stdout}");
    let output = lcl(&["solve", path, "--n", "200"]);
    assert!(!output.status.success(), "solver-less run must fail");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("no registered solver"), "{stderr}");
}

#[test]
fn solve_rejects_unknown_targets_and_bad_problems() {
    let output = lcl(&["solve", "no-such-problem"]);
    assert!(!output.status.success());
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("neither a preset"), "{stderr}");
}

#[test]
fn problems_lists_every_preset() {
    let output = lcl(&["problems"]);
    assert!(output.status.success(), "lcl problems failed: {output:?}");
    let stdout = String::from_utf8_lossy(&output.stdout);
    let names: Vec<&str> = stdout.lines().filter(|l| !l.is_empty()).collect();
    assert!(names.len() >= 6, "expected ≥ 6 presets, got {names:?}");
    assert!(names.contains(&"3-coloring"));
    assert!(names.contains(&"bw-all-equal"));
}

#[test]
fn classify_rejects_unknown_preset() {
    let output = lcl(&["classify", "--scale", "galactic"]);
    assert!(!output.status.success());
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("unknown preset"), "stderr: {stderr}");
}

#[test]
fn unknown_subcommand_fails_cleanly() {
    let output = lcl(&["frobnicate"]);
    assert!(!output.status.success());
}

#[test]
fn unknown_scale_preset_fails_cleanly() {
    let output = lcl(&["sweep", "--scale", "galactic"]);
    assert!(!output.status.success());
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("unknown scale preset"), "stderr: {stderr}");
}

#[test]
fn perfgate_without_baseline_fails_cleanly() {
    // The CLI test runs from the crate manifest dir, where no
    // bench-results/BENCH_sweep.json exists; the gate must say so rather
    // than panic.
    let output = lcl(&["perfgate"]);
    assert!(!output.status.success());
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("BENCH_sweep.json"), "stderr: {stderr}");
}
