//! Measurement helpers shared by the experiment figures, built on the
//! unified `lcl_harness` execution API.

use lcl_harness::{resolver, run_timed, InstanceSpec, RunConfig, RunRecord};
use lcl_local::math::{fit_power_law, log_star, PowerLawFit};
use serde::Serialize;

/// One measured point of a sweep.
#[derive(Debug, Clone, Serialize)]
pub struct Point {
    /// Instance size (total nodes).
    pub n: usize,
    /// Measured node-averaged rounds.
    pub node_averaged: f64,
    /// Measured worst-case rounds.
    pub worst_case: u64,
    /// Node-averaged rounds of the *waiting mass* only: the sum of
    /// termination times over nodes that do not output `Decline`/`Connect`,
    /// divided by `n`. This is exactly the sum the proof of Theorem 2
    /// bounds; the excluded nodes cost an additive `O(log n)` that the
    /// paper's analysis absorbs but which dominates small instances.
    pub waiting_averaged: f64,
}

impl From<&RunRecord> for Point {
    fn from(r: &RunRecord) -> Self {
        Point {
            n: r.n,
            node_averaged: r.node_averaged,
            worst_case: r.worst_case,
            waiting_averaged: r.waiting_averaged,
        }
    }
}

/// Runs one registry algorithm on one spec and returns its record.
///
/// # Panics
///
/// Panics on unknown algorithms, unbuildable specs, and verification
/// failures — all harness bugs from the bench crate's point of view.
#[must_use]
pub fn run_single(algorithm: &str, spec: InstanceSpec, config: RunConfig) -> RunRecord {
    let algo = resolver()
        .find(algorithm)
        .unwrap_or_else(|| panic!("unknown algorithm `{algorithm}`"));
    let instance = spec
        .build()
        .unwrap_or_else(|e| panic!("spec {} failed to build: {e}", spec.describe()));
    run_timed(algo, &instance, &config)
        .unwrap_or_else(|e| panic!("`{algorithm}` failed on {}: {e}", spec.describe()))
}

/// Fits `node_averaged ≈ c · n^e` over the points.
#[must_use]
pub fn fit_points(points: &[Point]) -> PowerLawFit {
    let data: Vec<(f64, f64)> = points
        .iter()
        .map(|p| (p.n as f64, p.node_averaged.max(1e-9)))
        .collect();
    fit_power_law(&data)
}

/// Fits the waiting-mass average (the Theorem 2 quantity) instead.
#[must_use]
pub fn fit_waiting(points: &[Point]) -> PowerLawFit {
    let data: Vec<(f64, f64)> = points
        .iter()
        .map(|p| (p.n as f64, p.waiting_averaged.max(1e-9)))
        .collect();
    fit_power_law(&data)
}

/// The paper's predicted value `(log* n)^e`.
#[must_use]
pub fn log_star_power(n: usize, e: f64) -> f64 {
    (log_star(n as u64) as f64).powf(e)
}

/// Peak resident set size of this process so far, in MiB: `VmHWM` from
/// `/proc/self/status`, or `None` where that is unreadable (e.g. off
/// Linux).
#[must_use]
pub fn peak_rss_mib() -> Option<f64> {
    vm_hwm_mib(&std::fs::read_to_string("/proc/self/status").ok()?)
}

/// The `VmHWM:` line of a `/proc/<pid>/status` text, in MiB.
fn vm_hwm_mib(status: &str) -> Option<f64> {
    let kib: f64 = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))?
        .trim()
        .strip_suffix("kB")?
        .trim_end()
        .parse()
        .ok()?;
    Some(kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_single_produces_sane_points() {
        let apoly = run_single(
            "apoly",
            InstanceSpec::WeightedPoly {
                n: 3_000,
                delta: 5,
                d: 2,
                k: 2,
            },
            RunConfig::seeded(1),
        );
        assert!(apoly.node_averaged > 0.0);
        assert!(apoly.worst_case as f64 >= apoly.node_averaged);

        let thm11 = run_single(
            "generic-coloring",
            InstanceSpec::Theorem11 { n: 5_000, k: 2 },
            RunConfig::seeded(3),
        );
        assert!(thm11.node_averaged > 0.0);
        assert!(thm11.n >= 2_000);
    }

    #[test]
    fn vm_hwm_parses_kib_and_rejects_the_rest() {
        let status = "Name:\tlcl\nVmPeak:\t  300000 kB\nVmHWM:\t   92160 kB\n";
        assert_eq!(vm_hwm_mib(status), Some(90.0));
        assert_eq!(vm_hwm_mib("Name:\tlcl\n"), None);
        assert_eq!(vm_hwm_mib("VmHWM:\t many kB\n"), None);
    }

    #[test]
    fn fit_recovers_shape() {
        let pts = vec![
            Point {
                n: 1_000,
                node_averaged: 31.6,
                worst_case: 100,
                waiting_averaged: 31.6,
            },
            Point {
                n: 10_000,
                node_averaged: 100.0,
                worst_case: 400,
                waiting_averaged: 100.0,
            },
            Point {
                n: 100_000,
                node_averaged: 316.0,
                worst_case: 1_600,
                waiting_averaged: 316.0,
            },
        ];
        let fit = fit_points(&pts);
        assert!((fit.exponent - 0.5).abs() < 0.01, "{fit:?}");
    }
}
