//! The batch workloads: `sparse-tail`, `dense-rounds`, `structural`.
//!
//! A pass runs the workload's job list once, in order. The untraced run
//! repeats passes for the measured time; the traced run alternates an
//! untraced pass with a traced replay pass (see [`crate::pipeline`]) so the
//! tracing overhead is measured against the same process state.

use crate::metrics::Metrics;
use crate::pins::Pins;
use crate::pipeline::{replay_job, run_job, Counters, JobOutcome};
use crate::stats::{median, quantile};
use crate::trace::{self_ms_by_layer, self_ms_by_name, Tracer};
use crate::workloads::Job;
use crate::Tally;
use std::collections::{BTreeMap, BTreeSet};
use std::time::Instant;

/// Checks one job outcome against its pin and the verified flag.
fn judge(
    workload: &str,
    job: &Job,
    outcome: Result<JobOutcome, String>,
    pins: &Pins,
    tally: &mut Tally,
) -> Option<JobOutcome> {
    let checked = outcome.and_then(|o| {
        if !o.verified {
            return Err(format!("{}: record not verified", job.label));
        }
        pins.check(&job.pin_key(workload), &o.fingerprint)?;
        Ok(o)
    });
    tally.record(checked)
}

/// One untraced pass; returns the per-job seconds.
fn untraced_pass(workload: &str, jobs: &[Job], pins: &Pins, tally: &mut Tally) -> Vec<f64> {
    jobs.iter()
        .map(|job| match run_job(job) {
            Ok((secs, outcome)) => {
                judge(workload, job, Ok(outcome), pins, tally);
                secs
            }
            Err(e) => {
                judge(workload, job, Err(e), pins, tally);
                0.0
            }
        })
        .collect()
}

/// The batch set-up: one untimed warm pass over the job list, so lazy
/// process-wide state (statics, caches, allocator arenas) is paid here and
/// not in the timed passes.
pub fn setup(workload: &str, jobs: &[Job], pins: &Pins, tally: &mut Tally) {
    untraced_pass(workload, jobs, pins, tally);
}

/// The untraced measurement: passes until `seconds` have elapsed (at least
/// `min_passes`). Sets every end-to-end metric except `setup_s` and
/// `peak_rss_mb`.
pub fn measure(
    workload: &str,
    jobs: &[Job],
    seconds: f64,
    min_passes: usize,
    pins: &Pins,
    tally: &mut Tally,
    metrics: &mut Metrics,
) -> String {
    let started = Instant::now();
    let mut pass_secs = Vec::new();
    let mut job_ms: Vec<Vec<f64>> = vec![Vec::new(); jobs.len()];
    while pass_secs.len() < min_passes || started.elapsed().as_secs_f64() < seconds {
        let secs = untraced_pass(workload, jobs, pins, tally);
        pass_secs.push(secs.iter().sum::<f64>());
        for (samples, s) in job_ms.iter_mut().zip(&secs) {
            samples.push(s * 1_000.0);
        }
    }
    // A batch job list mixes jobs whose times differ by orders of
    // magnitude, so latency quantiles are taken across the jobs of the
    // list, each job represented by its median over the passes (pooling
    // the samples would make p50 flip between jobs from run to run).
    let per_job: Vec<f64> = job_ms.iter().map(|v| median(v)).collect();
    let wall = median(&pass_secs);
    metrics.set("wall_s", wall);
    metrics.set("jobs_per_s", jobs.len() as f64 / wall.max(1e-9));
    metrics.set("latency_p50_ms", quantile(&per_job, 0.5));
    metrics.set("latency_p99_ms", quantile(&per_job, 0.99));
    let passes: Vec<String> = pass_secs.iter().map(|s| format!("{s:.4}")).collect();
    let medians: Vec<String> = jobs
        .iter()
        .zip(&per_job)
        .map(|(j, ms)| format!("\"{}\": {ms:.3}", j.label))
        .collect();
    format!(
        "{{\"samples\": {{\"passes\": {}, \"pass_s\": [{}], \"wall_s\": \"median pass\", \"jobs_per_s\": \"jobs per median pass\", \"latency\": \"quantiles across {} jobs of each job's median over {} passes\", \"job_median_ms\": {{{}}}}}}}",
        pass_secs.len(),
        passes.join(", "),
        jobs.len(),
        pass_secs.len(),
        medians.join(", ")
    )
}

/// The traced measurement: alternates untraced and traced passes until
/// `seconds` have elapsed (at least `min_passes` of each), then sets every
/// per-layer metric this workload exercises. Returns the layer owning
/// `wall_s`.
#[allow(clippy::too_many_arguments)]
pub fn trace(
    workload: &str,
    jobs: &[Job],
    seconds: f64,
    min_passes: usize,
    pins: &Pins,
    tally: &mut Tally,
    tracer: &mut Tracer,
    metrics: &mut Metrics,
) -> String {
    let started = Instant::now();
    let mut plain = Vec::new();
    let mut traced = Vec::new();
    let mut by_name: Vec<BTreeMap<String, f64>> = Vec::new();
    let mut by_layer: Vec<BTreeMap<String, f64>> = Vec::new();
    let mut counters = Counters::default();
    let mut job_id = 0u64;
    while traced.len() < min_passes || started.elapsed().as_secs_f64() < seconds {
        plain.push(
            untraced_pass(workload, jobs, pins, tally)
                .iter()
                .sum::<f64>(),
        );
        let from = tracer.len();
        let mut pass = Counters::default();
        for job in jobs {
            job_id += 1;
            let outcome = replay_job(job, job_id, tracer);
            if let Some(o) = judge(workload, job, outcome, pins, tally) {
                pass.add(&o.counters);
            }
        }
        let spans = tracer.spans();
        let pass_ns: u64 = spans[from..]
            .iter()
            .filter(|s| s.parent.is_none())
            .map(|s| s.duration_ns())
            .sum();
        traced.push(pass_ns as f64 / 1e9);
        by_name.push(self_ms_by_name(spans, from));
        by_layer.push(self_ms_by_layer(spans, from));
        counters = pass;
    }
    let med = |maps: &[BTreeMap<String, f64>], key: &str| {
        median(
            &maps
                .iter()
                .map(|m| m.get(key).copied().unwrap_or(0.0))
                .collect::<Vec<_>>(),
        )
    };
    let names: BTreeSet<String> = by_name.iter().flat_map(|m| m.keys().cloned()).collect();
    for name in names
        .iter()
        .filter(|n| n.starts_with("prepare.") || n.starts_with("verify."))
    {
        metrics.set(&format!("{name}.ms"), med(&by_name, name));
    }
    for layer in ["engine", "prepare", "instance", "verify", "planner"] {
        metrics.set(&format!("{layer}.busy_ms"), med(&by_layer, layer));
    }
    metrics.set("instance.build_ms", med(&by_name, "instance.build"));
    metrics.set("instance.levels_ms", med(&by_name, "instance.levels"));
    metrics.set("encode.record_ms", med(&by_name, "encode.record"));
    metrics.set("trace.unattributed_ms", med(&by_layer, "job"));
    set_counters(metrics, &counters);
    let (p, t) = (median(&plain), median(&traced));
    metrics.set("trace.overhead_pct", (t - p) / p.max(1e-12) * 100.0);
    owner(&by_layer)
}

/// Sets the counter-derived metrics of one pass.
pub fn set_counters(metrics: &mut Metrics, c: &Counters) {
    let engine_ms = metrics.get("engine.busy_ms");
    metrics.set("engine.rounds", c.rounds as f64);
    metrics.set(
        "engine.us_per_round",
        engine_ms * 1e3 / (c.rounds as f64).max(1.0),
    );
    metrics.set("engine.node_rounds", c.node_rounds as f64);
    metrics.set(
        "engine.ns_per_node_round",
        engine_ms * 1e6 / (c.node_rounds as f64).max(1.0),
    );
    metrics.set("engine.messages", c.messages as f64);
    metrics.set(
        "engine.messages_per_node_round",
        c.messages as f64 / (c.node_rounds as f64).max(1.0),
    );
    metrics.set(
        "engine.peak_arena_mb",
        c.peak_arena_bytes as f64 / (1 << 20) as f64,
    );
    metrics.set("instance.nodes_built", c.nodes_built as f64);
    metrics.set("encode.record_bytes", c.record_bytes as f64);
    metrics.set("planner.calls", c.planner_calls as f64);
}

/// The layer with the largest median self time per pass.
fn owner(by_layer: &[BTreeMap<String, f64>]) -> String {
    let mut totals: BTreeMap<&str, Vec<f64>> = Default::default();
    for m in by_layer {
        for (layer, ms) in m {
            totals.entry(layer.as_str()).or_default().push(*ms);
        }
    }
    // A `job` span's self time is the part of a job no layer span covers.
    let shares: Vec<(String, f64)> = totals
        .iter()
        .map(|(layer, v)| {
            let name = if *layer == "job" {
                "unattributed"
            } else {
                layer
            };
            (name.to_string(), median(v))
        })
        .collect();
    let total: f64 = shares.iter().map(|(_, ms)| ms).sum();
    let top = shares
        .iter()
        .max_by(|a, b| a.1.total_cmp(&b.1))
        .map_or("none".to_string(), |(l, _)| l.clone());
    let parts: Vec<String> = shares
        .iter()
        .map(|(l, ms)| format!("\"{l}\": {:.1}", ms / total.max(1e-12) * 100.0))
        .collect();
    format!(
        "{{\"owner\": {{\"metric\": \"wall_s\", \"layer\": \"{top}\", \"self_time_pct\": {{{}}}}}}}",
        parts.join(", ")
    )
}
