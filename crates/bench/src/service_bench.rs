//! `lcl loadgen`: the `lcld` service load generator, and the CI service
//! gate.
//!
//! The load generator drives N closed-loop socket clients against a
//! service (in-process by default, or an external `lcl serve --socket`
//! endpoint), measures per-job latency and aggregate throughput, pulls
//! the server's cache/queue counters over the wire, and writes
//! `bench-results/BENCH_service.json`. The run *fails* — not warns —
//! when any job errors or when the plan cache never hits: a batch
//! workload that re-plans every job is a service-layer bug, not a
//! tuning knob.
//!
//! [`service_gate`] is the CI stage chained after the engine throughput
//! gate: it re-runs the load at the committed baseline's own scale and
//! fails when jobs/sec or p99 latency regresses beyond the threshold.

use crate::report::{f1, f3, save_json, Table};
use lcl_core::problem_spec::ProblemSpec;
use lcl_service::{serve_unix, Request, Response, Service, ServiceConfig};
use serde::{Serialize, Value};
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// One load preset: how hard to push and how big each solve is.
#[derive(Debug, Clone, Copy)]
pub struct LoadScale {
    /// Concurrent closed-loop clients.
    pub clients: usize,
    /// Jobs each client submits (one outstanding at a time).
    pub jobs_per_client: usize,
    /// Service worker threads (in-process mode).
    pub workers: usize,
    /// Service queue capacity (in-process mode).
    pub queue_capacity: usize,
    /// Instance size per solve job.
    pub n: usize,
}

/// Names of the available load presets.
#[must_use]
pub fn scale_names() -> &'static [&'static str] {
    &["tiny", "ci", "full"]
}

/// Resolves a preset name. The `ci` preset is the gated one: ≥ 4
/// concurrent clients (the soak floor), enough jobs that every preset
/// repeats and the plan cache must hit.
fn scale_params(name: &str) -> Option<LoadScale> {
    match name {
        "tiny" => Some(LoadScale {
            clients: 2,
            jobs_per_client: 8,
            workers: 2,
            queue_capacity: 32,
            n: 500,
        }),
        "ci" => Some(LoadScale {
            clients: 4,
            jobs_per_client: 30,
            workers: 4,
            queue_capacity: 64,
            n: 2_000,
        }),
        "full" => Some(LoadScale {
            clients: 8,
            jobs_per_client: 60,
            workers: 0, // auto: one per core
            queue_capacity: 128,
            n: 10_000,
        }),
        _ => None,
    }
}

/// The emitted `BENCH_service.json` document.
#[derive(Debug, Clone, Serialize)]
struct ServiceBench {
    /// Load preset name.
    scale: String,
    /// Concurrent closed-loop clients.
    clients: usize,
    /// Jobs per client.
    jobs_per_client: usize,
    /// Total completed solve jobs.
    total_jobs: u64,
    /// Worker threads the service ran (0 = auto).
    workers: usize,
    /// Service queue capacity.
    queue_capacity: usize,
    /// Instance size per job.
    n: usize,
    /// Aggregate throughput over the whole client phase.
    jobs_per_sec: f64,
    /// Median per-job latency (ms).
    p50_ms: f64,
    /// 90th-percentile per-job latency (ms).
    p90_ms: f64,
    /// 99th-percentile per-job latency (ms).
    p99_ms: f64,
    /// Worst per-job latency (ms).
    max_ms: f64,
    /// Plan-cache hits reported by the server after the run.
    plan_cache_hits: u64,
    /// Plan-cache hit rate reported by the server after the run.
    plan_cache_hit_rate: f64,
    /// Instance-cache hits reported by the server after the run.
    instance_cache_hits: u64,
    /// Jobs the server completed successfully.
    jobs_ok: u64,
    /// Jobs the server failed.
    jobs_failed: u64,
    /// Admissions refused with `overloaded`.
    overloaded: u64,
}

fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((p / 100.0) * (sorted.len() - 1) as f64).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

fn send_request(writer: &mut UnixStream, request: &Request) -> Result<(), String> {
    writer
        .write_all(format!("{}\n", request.to_line()).as_bytes())
        .map_err(|e| format!("loadgen write: {e}"))
}

fn recv_response(reader: &mut BufReader<UnixStream>) -> Result<Response, String> {
    let mut line = String::new();
    let bytes = reader
        .read_line(&mut line)
        .map_err(|e| format!("loadgen read: {e}"))?;
    if bytes == 0 {
        return Err("loadgen: server closed the connection".to_string());
    }
    Response::from_line(line.trim_end()).map_err(|e| format!("loadgen: bad response {e:?}: {line}"))
}

/// One closed-loop client: rotated presets, one outstanding job at a
/// time, per-job latency recorded only for completed records. A
/// transient `overloaded` is retried after a short backoff — the
/// contract is that backpressure is survivable, not that it never
/// happens.
fn client_loop(path: &Path, client: usize, jobs: usize, n: usize) -> Result<Vec<f64>, String> {
    let stream = UnixStream::connect(path).map_err(|e| format!("client {client}: connect: {e}"))?;
    let mut reader = BufReader::new(
        stream
            .try_clone()
            .map_err(|e| format!("client {client}: clone: {e}"))?,
    );
    let mut writer = stream;
    let presets = ProblemSpec::presets();
    let mut latencies = Vec::with_capacity(jobs);
    for j in 0..jobs {
        let (_, problem) = &presets[(client + j) % presets.len()];
        let request = Request::Solve {
            id: j as u64,
            problem: problem.clone(),
            n,
            seed: 1 + ((client + j) % 4) as u64,
            detail: false,
            shards: None,
            max_resident: None,
            packing: None,
        };
        let started = Instant::now();
        send_request(&mut writer, &request)?;
        loop {
            match recv_response(&mut reader)? {
                Response::Record { .. } => break,
                Response::Overloaded { .. } => {
                    std::thread::sleep(Duration::from_millis(20));
                    send_request(&mut writer, &request)?;
                }
                other => return Err(format!("client {client}: job {j} failed with {other:?}")),
            }
        }
        latencies.push(started.elapsed().as_secs_f64() * 1_000.0);
    }
    Ok(latencies)
}

/// Pulls the server's counters over the wire (works identically for
/// in-process and external sockets).
fn fetch_stats(path: &Path) -> Result<lcl_service::ServiceStats, String> {
    let stream = UnixStream::connect(path).map_err(|e| format!("stats connect: {e}"))?;
    let mut reader = BufReader::new(
        stream
            .try_clone()
            .map_err(|e| format!("stats clone: {e}"))?,
    );
    let mut writer = stream;
    send_request(&mut writer, &Request::Stats { id: 0 })?;
    match recv_response(&mut reader)? {
        Response::Stats { stats, .. } => Ok(stats),
        other => Err(format!("stats request answered with {other:?}")),
    }
}

/// Runs the load and returns the measured document. `socket` targets an
/// already-running `lcl serve --socket` endpoint; otherwise an
/// in-process service is started and torn down around the run.
fn measure(
    scale_name: &str,
    scale: LoadScale,
    socket: Option<&str>,
) -> Result<ServiceBench, String> {
    // In-process mode owns the service; external mode only borrows the
    // endpoint (and its stats then include the server's prior history).
    let mut owned: Option<(Service, lcl_service::SocketServer)> = None;
    let path: PathBuf = match socket {
        Some(p) => PathBuf::from(p),
        None => {
            let service = Service::start(ServiceConfig {
                workers: scale.workers,
                queue_capacity: scale.queue_capacity,
                ..ServiceConfig::default()
            });
            let path = std::env::temp_dir().join(format!(
                "lcld-loadgen-{}-{scale_name}.sock",
                std::process::id()
            ));
            let socket = serve_unix(&service, &path).map_err(|e| format!("bind: {e}"))?;
            owned = Some((service, socket));
            path
        }
    };

    let started = Instant::now();
    let handles: Vec<std::thread::JoinHandle<Result<Vec<f64>, String>>> = (0..scale.clients)
        .map(|client| {
            let path = path.clone();
            std::thread::spawn(move || client_loop(&path, client, scale.jobs_per_client, scale.n))
        })
        .collect();
    let mut latencies: Vec<f64> = Vec::new();
    for handle in handles {
        latencies.extend(handle.join().map_err(|_| "loadgen client panicked")??);
    }
    let elapsed = started.elapsed().as_secs_f64();

    let stats = fetch_stats(&path)?;
    if let Some((service, socket)) = owned.take() {
        drop(socket);
        service.shutdown();
    }

    latencies.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
    let total_jobs = latencies.len() as u64;
    Ok(ServiceBench {
        scale: scale_name.to_string(),
        clients: scale.clients,
        jobs_per_client: scale.jobs_per_client,
        total_jobs,
        workers: scale.workers,
        queue_capacity: scale.queue_capacity,
        n: scale.n,
        jobs_per_sec: total_jobs as f64 / elapsed.max(1e-9),
        p50_ms: percentile(&latencies, 50.0),
        p90_ms: percentile(&latencies, 90.0),
        p99_ms: percentile(&latencies, 99.0),
        max_ms: latencies.last().copied().unwrap_or(0.0),
        plan_cache_hits: stats.plan_cache.hits,
        plan_cache_hit_rate: stats.plan_cache.hit_rate(),
        instance_cache_hits: stats.instance_cache.hits,
        jobs_ok: stats.jobs_ok,
        jobs_failed: stats.jobs_failed,
        overloaded: stats.overloaded,
    })
}

fn print_bench(bench: &ServiceBench) {
    let mut table = Table::new(
        format!("Service load — scale `{}`", bench.scale),
        &[
            "clients",
            "jobs",
            "jobs/s",
            "p50 ms",
            "p90 ms",
            "p99 ms",
            "max ms",
            "plan hits",
        ],
    );
    table.row(&[
        bench.clients.to_string(),
        bench.total_jobs.to_string(),
        f1(bench.jobs_per_sec),
        f3(bench.p50_ms),
        f3(bench.p90_ms),
        f3(bench.p99_ms),
        f3(bench.max_ms),
        format!(
            "{} ({})",
            bench.plan_cache_hits,
            f3(bench.plan_cache_hit_rate)
        ),
    ]);
    table.print();
}

/// The self-check every load run must clear: no failed jobs, and the
/// plan cache actually hit (a repeating batch workload that re-plans
/// every job means the memoization layer is broken).
fn check_invariants(bench: &ServiceBench, external: bool) -> Result<(), String> {
    if !external && bench.jobs_failed > 0 {
        return Err(format!(
            "loadgen: {} job(s) failed on the server",
            bench.jobs_failed
        ));
    }
    if bench.plan_cache_hits == 0 {
        return Err("loadgen: plan cache never hit under a repeating preset load".to_string());
    }
    Ok(())
}

/// `lcl loadgen`: runs the load, prints the table and a stable `GATE`
/// line, writes `bench-results/BENCH_service.json`.
///
/// # Errors
///
/// Unknown scales, transport failures, any failed job, or a cold plan
/// cache after a repeating load.
pub fn run_loadgen(
    scale_name: &str,
    clients: Option<usize>,
    jobs: Option<usize>,
    socket: Option<&str>,
) -> Result<(), String> {
    let mut scale = scale_params(scale_name)
        .ok_or_else(|| format!("unknown loadgen scale `{scale_name}` (tiny|ci|full)"))?;
    if let Some(c) = clients {
        scale.clients = c.max(1);
    }
    if let Some(j) = jobs {
        scale.jobs_per_client = j.max(1);
    }
    let bench = measure(scale_name, scale, socket)?;
    print_bench(&bench);
    println!(
        "GATE service scale={} jobs_per_sec={} p99_ms={} plan_cache_hit_rate={} jobs_failed={}",
        bench.scale,
        f1(bench.jobs_per_sec),
        f3(bench.p99_ms),
        f3(bench.plan_cache_hit_rate),
        bench.jobs_failed,
    );
    check_invariants(&bench, socket.is_some())?;
    save_json("BENCH_service", &bench);
    Ok(())
}

// --- the CI gate against the committed baseline ----------------------------

/// The service stage of the CI perf gate: re-runs the load generator at
/// the committed `BENCH_service.json` baseline's own scale and fails
/// when throughput drops, or p99 latency grows, beyond `threshold`×.
/// The run must also clear the loadgen invariants (zero failures, warm
/// plan cache).
///
/// # Errors
///
/// Missing/unreadable baseline, transport failures, invariant
/// violations, or a regression beyond the threshold.
pub fn service_gate(threshold: f64) -> Result<(), String> {
    let text = std::fs::read_to_string("bench-results/BENCH_service.json")
        .map_err(|e| format!("cannot read bench-results/BENCH_service.json: {e}"))?;
    let baseline =
        serde_json::from_str(&text).map_err(|e| format!("cannot parse BENCH_service.json: {e}"))?;
    let scale_name = baseline
        .get("scale")
        .and_then(Value::as_str)
        .ok_or("BENCH_service.json has no `scale`")?
        .to_string();
    let base_jps = baseline
        .get("jobs_per_sec")
        .and_then(Value::as_f64)
        .ok_or("BENCH_service.json has no `jobs_per_sec`")?;
    let base_p99 = baseline
        .get("p99_ms")
        .and_then(Value::as_f64)
        .ok_or("BENCH_service.json has no `p99_ms`")?;

    let scale = scale_params(&scale_name)
        .ok_or_else(|| format!("baseline scale `{scale_name}` is not a known preset"))?;
    let fresh = measure(&scale_name, scale, None)?;
    check_invariants(&fresh, false)?;

    let jps_ratio = base_jps / fresh.jobs_per_sec.max(1e-9);
    // Sub-millisecond p99 baselines are scheduler noise; clamp like the
    // wall-clock gate does.
    let p99_ratio = fresh.p99_ms / base_p99.max(1.0);
    let jps_ok = jps_ratio <= threshold;
    let p99_ok = p99_ratio <= threshold;

    let mut table = Table::new(
        format!("Service gate — threshold {threshold}x vs BENCH_service.json"),
        &["metric", "baseline", "now", "ratio", "status"],
    );
    table.row(&[
        "jobs/s".to_string(),
        f1(base_jps),
        f1(fresh.jobs_per_sec),
        f3(jps_ratio),
        if jps_ok { "ok" } else { "FAILED" }.to_string(),
    ]);
    table.row(&[
        "p99 ms".to_string(),
        f3(base_p99),
        f3(fresh.p99_ms),
        f3(p99_ratio),
        if p99_ok { "ok" } else { "FAILED" }.to_string(),
    ]);
    table.print();

    if jps_ok && p99_ok {
        Ok(())
    } else {
        Err(format!(
            "service gate failed (> {threshold}x vs BENCH_service.json): jobs/s ratio {}, p99 ratio {}",
            f3(jps_ratio),
            f3(p99_ratio)
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scales_resolve() {
        for name in scale_names() {
            assert!(scale_params(name).is_some(), "{name}");
        }
        assert!(scale_params("nope").is_none());
    }

    #[test]
    fn ci_scale_meets_the_soak_floor() {
        let ci = scale_params("ci").expect("ci scale");
        assert!(ci.clients >= 4, "gated scale must soak >= 4 clients");
        let presets = ProblemSpec::presets().len();
        assert!(
            ci.jobs_per_client > presets,
            "gated scale must repeat presets so the plan cache is exercised"
        );
    }

    #[test]
    fn percentiles_interpolate_sanely() {
        let sorted: Vec<f64> = (0..=100).map(f64::from).collect();
        assert_eq!(percentile(&sorted, 50.0), 50.0);
        assert_eq!(percentile(&sorted, 99.0), 99.0);
        assert_eq!(percentile(&sorted, 100.0), 100.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }

    #[test]
    fn tiny_load_runs_end_to_end() {
        let scale = LoadScale {
            clients: 2,
            jobs_per_client: 4,
            workers: 2,
            queue_capacity: 16,
            n: 300,
        };
        let bench = measure("tiny", scale, None).expect("tiny load runs");
        assert_eq!(bench.total_jobs, 8);
        assert_eq!(bench.jobs_failed, 0, "{bench:?}");
        assert!(bench.jobs_per_sec > 0.0);
        assert!(bench.p99_ms >= bench.p50_ms);
    }
}
