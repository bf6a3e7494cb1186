//! The `service-mix` workload: an in-process `lcld` on a Unix socket,
//! driven by closed-loop client connections.
//!
//! Each client sends one solve, waits for its response, and only then sends
//! the next (`overloaded` answers are retried after 2 ms and counted). A
//! pass is one sequence of requests drawn from every `(preset, seed)` pair
//! by the workload seed; every `record` response is checked against its
//! pin through the `WireRecord` checksums.
//!
//! The traced run records, per request and on the client, a `job` span with
//! `encode.wire` children (request rendering, response parsing) and a
//! `service` child (socket write to response line: queue, plan, instance
//! build, run and server-side wire). Layers below the service are then
//! attributed by a traced replay of each distinct request
//! ([`crate::pipeline::replay_job`]).

use crate::metrics::Metrics;
use crate::pins::Pins;
use crate::pipeline::{replay_job, Counters, Fingerprint};
use crate::stats::{median, quantile};
use crate::trace::{self_ms_by_layer, self_ms_by_name, self_times, Tracer};
use crate::workloads::{mix_pass, mix_universe, Job, MixJob, MixShape};
use crate::Tally;
use lcl_harness::CacheStats;
use lcl_service::{serve_unix, Request, Response, Service, ServiceConfig, SocketServer};
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// A running in-process service and its socket. Fields drop in order: the
/// socket (held only to be dropped) stops accepting before the service
/// drains and joins its workers.
pub struct Server {
    _socket: SocketServer,
    service: Service,
    path: PathBuf,
}

impl Server {
    /// Starts the service and binds `path`.
    ///
    /// # Errors
    ///
    /// Socket bind failures.
    pub fn start(shape: &MixShape, path: &Path) -> Result<Server, String> {
        let service = Service::start(ServiceConfig {
            workers: shape.workers,
            queue_capacity: shape.queue_capacity,
            ..ServiceConfig::default()
        });
        let socket =
            serve_unix(&service, path).map_err(|e| format!("bind {}: {e}", path.display()))?;
        Ok(Server {
            _socket: socket,
            service,
            path: path.to_path_buf(),
        })
    }

    /// Cache counters as the service reports them.
    fn caches(&self) -> (CacheStats, CacheStats, CacheStats) {
        let s = self.service.stats();
        (s.plan_cache, s.instance_cache, s.peeling_cache)
    }
}

/// One answered request.
#[derive(Debug, Clone)]
struct Answer {
    preset: &'static str,
    seed: u64,
    latency_ms: f64,
    run_ms: f64,
    plan_cached: bool,
    retries: u64,
    wire_bytes: u64,
}

/// What one pass produced.
struct Pass {
    secs: f64,
    answers: Vec<Answer>,
    tracer: Tracer,
}

fn fingerprint_of(record: &lcl_service::WireRecord) -> Fingerprint {
    Fingerprint {
        n: record.n,
        node_averaged: record.node_averaged,
        worst_case: record.worst_case,
        labels_fnv: record.labels_fnv,
        rounds_fnv: record.rounds_fnv,
    }
}

/// One closed-loop client: takes the next request of the pass until none
/// are left.
#[allow(clippy::too_many_arguments)]
fn client(
    path: &Path,
    jobs: &[MixJob],
    next: &AtomicUsize,
    n: usize,
    id_base: u64,
    pins: &Pins,
    mut tracer: Tracer,
) -> (Vec<Answer>, Vec<String>, Tracer) {
    let mut answers = Vec::new();
    let mut failures = Vec::new();
    let stream = match UnixStream::connect(path) {
        Ok(s) => s,
        Err(e) => {
            failures.push(format!("connect: {e}"));
            return (answers, failures, tracer);
        }
    };
    let mut reader = match stream.try_clone() {
        Ok(s) => BufReader::new(s),
        Err(e) => {
            failures.push(format!("clone: {e}"));
            return (answers, failures, tracer);
        }
    };
    let mut writer = stream;
    let mut line = String::new();
    loop {
        let idx = next.fetch_add(1, Ordering::Relaxed);
        let Some(job) = jobs.get(idx) else { break };
        let id = id_base + idx as u64;
        tracer.set_job(id);
        let started = Instant::now();
        let root = tracer.open("job");
        let request = Request::Solve {
            id,
            problem: job.problem.clone(),
            n,
            seed: job.seed,
            detail: false,
            shards: None,
            max_resident: None,
            packing: None,
        };
        let wire = tracer.open("encode.wire");
        let mut out = request.to_line();
        out.push('\n');
        tracer.close(wire);
        let mut retries = 0;
        let mut wire_bytes = out.len() as u64;
        let response = loop {
            let span = tracer.open("service");
            line.clear();
            let io = writer
                .write_all(out.as_bytes())
                .and_then(|()| reader.read_line(&mut line));
            tracer.close(span);
            match io {
                Ok(0) => break Err("server closed the connection".to_string()),
                Err(e) => break Err(format!("socket: {e}")),
                Ok(_) => {}
            }
            wire_bytes += line.len() as u64;
            let wire = tracer.open("encode.wire");
            let parsed = Response::from_line(line.trim_end());
            tracer.close(wire);
            match parsed {
                Ok(Response::Overloaded { .. }) => {
                    retries += 1;
                    std::thread::sleep(Duration::from_millis(2));
                }
                Ok(other) => break Ok(other),
                Err(e) => break Err(format!("bad response: {e:?}")),
            }
        };
        tracer.close(root);
        let latency_ms = started.elapsed().as_secs_f64() * 1_000.0;
        let record = match response {
            Ok(Response::Record { record, .. }) => record,
            Ok(other) => {
                failures.push(format!("{}: answered {other:?}", job.preset));
                continue;
            }
            Err(e) => {
                failures.push(format!("{}: {e}", job.preset));
                // A broken connection cannot serve the rest of the pass.
                break;
            }
        };
        let checked = if record.verified {
            pins.check(&job.pin_key(n), &fingerprint_of(&record))
        } else {
            Err(format!("{}: record not verified", job.preset))
        };
        if let Err(e) = checked {
            failures.push(e);
            continue;
        }
        answers.push(Answer {
            preset: job.preset,
            seed: job.seed,
            latency_ms,
            run_ms: record.elapsed_ms,
            plan_cached: record.plan_cached,
            retries,
            wire_bytes,
        });
    }
    (answers, failures, tracer)
}

/// Runs one pass of `jobs` through `clients` concurrent connections.
#[allow(clippy::too_many_arguments)]
fn pass(
    server: &Server,
    jobs: &[MixJob],
    shape: &MixShape,
    id_base: u64,
    pins: &Pins,
    traced: bool,
    epoch: Instant,
    tally: &mut Tally,
) -> Pass {
    let next = AtomicUsize::new(0);
    let started = Instant::now();
    let results: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..shape.clients)
            .map(|_| {
                let next = &next;
                let path = server.path.as_path();
                scope.spawn(move || {
                    client(
                        path,
                        jobs,
                        next,
                        shape.n,
                        id_base,
                        pins,
                        Tracer::new(traced, epoch),
                    )
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client threads do not panic"))
            .collect()
    });
    let secs = started.elapsed().as_secs_f64();
    let mut answers = Vec::new();
    let mut tracer = Tracer::new(traced, epoch);
    for (a, failures, t) in results {
        for f in failures {
            tally.record::<()>(Err(f));
        }
        for _ in &a {
            tally.record(Ok(()));
        }
        answers.extend(a);
        tracer.absorb(t);
    }
    Pass {
        secs,
        answers,
        tracer,
    }
}

/// The service set-up: start the service on `path`, then send every
/// distinct `(preset, seed)` request once, so cold plans, instance builds
/// and peelings happen here.
///
/// # Errors
///
/// Socket bind failures.
pub fn setup(
    shape: &MixShape,
    path: &Path,
    pins: &Pins,
    tally: &mut Tally,
) -> Result<Server, String> {
    let server = Server::start(shape, path)?;
    let universe = mix_universe();
    pass(
        &server,
        &universe,
        shape,
        0,
        pins,
        false,
        Instant::now(),
        tally,
    );
    Ok(server)
}

/// The untraced measurement: passes until `seconds` have elapsed (at least
/// `min_passes`).
#[allow(clippy::too_many_arguments)]
pub fn measure(
    server: &Server,
    shape: &MixShape,
    seed: u64,
    seconds: f64,
    min_passes: usize,
    pins: &Pins,
    tally: &mut Tally,
    metrics: &mut Metrics,
) -> String {
    let started = Instant::now();
    let mut secs = Vec::new();
    let mut latencies = Vec::new();
    let mut index = 0u64;
    while secs.len() < min_passes || started.elapsed().as_secs_f64() < seconds {
        let jobs = mix_pass(seed, index, shape.jobs);
        let p = pass(
            server,
            &jobs,
            shape,
            (index + 1) << 32,
            pins,
            false,
            started,
            tally,
        );
        index += 1;
        secs.push(p.secs);
        latencies.extend(p.answers.iter().map(|a| a.latency_ms));
    }
    let total: f64 = secs.iter().sum();
    let passes: Vec<String> = secs.iter().map(|s| format!("{s:.4}")).collect();
    metrics.set("wall_s", median(&secs));
    metrics.set("jobs_per_s", latencies.len() as f64 / total.max(1e-9));
    metrics.set("latency_p50_ms", quantile(&latencies, 0.5));
    metrics.set("latency_p99_ms", quantile(&latencies, 0.99));
    format!(
        "{{\"samples\": {{\"passes\": {}, \"pass_s\": [{}], \"jobs\": {}, \"wall_s\": \"median of {} passes of {} requests\", \"latency\": \"client send-to-response, {} samples, {} beyond p99\", \"load\": \"closed loop, {} connections, {} workers\"}}}}",
        secs.len(),
        passes.join(", "),
        latencies.len(),
        secs.len(),
        shape.jobs,
        latencies.len(),
        latencies.len() / 100,
        shape.clients,
        shape.workers
    )
}

/// Lookups and hits a cache counted between two snapshots.
fn delta(before: &CacheStats, after: &CacheStats) -> (f64, f64) {
    let hits = after.hits.saturating_sub(before.hits) as f64;
    let misses = after.misses.saturating_sub(before.misses) as f64;
    (hits + misses, hits)
}

/// The traced measurement: alternates untraced and traced passes, then
/// replays each distinct request layer by layer. Returns the owner line
/// for `latency_p99_ms`.
#[allow(clippy::too_many_arguments)]
pub fn trace(
    server: &Server,
    shape: &MixShape,
    seed: u64,
    seconds: f64,
    min_passes: usize,
    pins: &Pins,
    tally: &mut Tally,
    tracer: &mut Tracer,
    metrics: &mut Metrics,
) -> String {
    let started = Instant::now();
    // Client spans share the main tracer's time base.
    let epoch = tracer.epoch();
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    let mut answers: Vec<Answer> = Vec::new();
    let mut per_pass: Vec<BTreeMap<String, f64>> = Vec::new();
    let mut wire_bytes = Vec::new();
    let mut retries = Vec::new();
    let (mut plan_calls, mut instance_calls, mut levels_calls) = (0.0, 0.0, 0.0);
    let (mut plan_hits, mut instance_hits, mut levels_hits) = (0.0, 0.0, 0.0);
    let mut index = 0u64;
    while traced.len() < min_passes || started.elapsed().as_secs_f64() < seconds {
        let jobs = mix_pass(seed, index, shape.jobs);
        let p = pass(
            server,
            &jobs,
            shape,
            (index + 1) << 32,
            pins,
            false,
            epoch,
            tally,
        );
        plain.push(p.secs);
        index += 1;
        let jobs = mix_pass(seed, index, shape.jobs);
        let before = server.caches();
        let p = pass(
            server,
            &jobs,
            shape,
            (index + 1) << 32,
            pins,
            true,
            epoch,
            tally,
        );
        let after = server.caches();
        index += 1;
        for (b, a, calls, hits) in [
            (&before.0, &after.0, &mut plan_calls, &mut plan_hits),
            (&before.1, &after.1, &mut instance_calls, &mut instance_hits),
            (&before.2, &after.2, &mut levels_calls, &mut levels_hits),
        ] {
            let (c, h) = delta(b, a);
            *calls += c;
            *hits += h;
        }
        traced.push(p.secs);
        let mut layers = self_ms_by_layer(p.tracer.spans(), 0);
        let by_name = self_ms_by_name(p.tracer.spans(), 0);
        layers.insert(
            "wire".into(),
            by_name.get("encode.wire").copied().unwrap_or(0.0),
        );
        per_pass.push(layers);
        wire_bytes.push(p.answers.iter().map(|a| a.wire_bytes as f64).sum::<f64>());
        retries.push(p.answers.iter().map(|a| a.retries as f64).sum::<f64>());
        answers.extend(p.answers);
        tracer.absorb(p.tracer);
    }
    let passes = traced.len() as f64;
    let med = |key: &str| {
        median(
            &per_pass
                .iter()
                .map(|m| m.get(key).copied().unwrap_or(0.0))
                .collect::<Vec<_>>(),
        )
    };
    metrics.set("service.busy_ms", med("service"));
    metrics.set("encode.wire_ms", med("wire"));
    metrics.set("encode.wire_bytes", median(&wire_bytes));
    metrics.set("trace.unattributed_ms", med("job"));
    metrics.set("service.overloaded_retries", median(&retries));
    metrics.set(
        "instance.cache_hit_rate",
        instance_hits / instance_calls.max(1.0),
    );
    metrics.set(
        "instance.levels_cache_hit_rate",
        levels_hits / levels_calls.max(1.0),
    );
    let run: Vec<f64> = answers.iter().map(|a| a.run_ms).collect();
    let overhead: Vec<f64> = answers.iter().map(|a| a.latency_ms - a.run_ms).collect();
    metrics.set("service.run_ms_p50", quantile(&run, 0.5));
    metrics.set("service.run_ms_p99", quantile(&run, 0.99));
    metrics.set("service.overhead_ms_p50", quantile(&overhead, 0.5));
    metrics.set("service.overhead_ms_p99", quantile(&overhead, 0.99));
    let mut by_preset: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for a in &answers {
        by_preset.entry(a.preset).or_default().push(a.latency_ms);
    }
    for (preset, lat) in &by_preset {
        metrics.set(&format!("service.latency_p50_ms.{preset}"), median(lat));
    }
    let (p, t) = (median(&plain), median(&traced));
    metrics.set("trace.overhead_pct", (t - p) / p.max(1e-12) * 100.0);

    let shares = replay_universe(shape, pins, tally, tracer, metrics);
    // The replay's planner calls are cold classifications; the call count
    // and hit rate are the loaded service's.
    metrics.set("planner.calls", plan_calls / passes);
    metrics.set("planner.cache_hit_rate", plan_hits / plan_calls.max(1.0));
    owner(&answers, &shares)
}

/// Replays every distinct request once under spans, sets the layer metrics
/// below the service from it, and returns each request's self-time share
/// per layer, keyed by `(preset, seed)`.
fn replay_universe(
    shape: &MixShape,
    pins: &Pins,
    tally: &mut Tally,
    tracer: &mut Tracer,
    metrics: &mut Metrics,
) -> BTreeMap<(&'static str, u64), BTreeMap<String, f64>> {
    let from = tracer.len();
    let mut counters = Counters::default();
    let mut ids = BTreeMap::new();
    for (i, mj) in mix_universe().into_iter().enumerate() {
        let job = Job {
            label: mj.preset,
            problem: mj.problem.clone(),
            n: shape.n,
            solver: None,
            spec: None,
            shard: None,
            seed: mj.seed,
            pool: 0,
        };
        let id = (1u64 << 48) + i as u64;
        ids.insert(id, (mj.preset, mj.seed));
        let checked = replay_job(&job, id, tracer).and_then(|o| {
            if !o.verified {
                return Err(format!("{}: replay not verified", mj.preset));
            }
            pins.check(&mj.pin_key(shape.n), &o.fingerprint)?;
            Ok(o)
        });
        if let Some(o) = tally.record(checked) {
            counters.add(&o.counters);
        }
    }
    let spans = tracer.spans();
    let by_name = self_ms_by_name(spans, from);
    let by_layer = self_ms_by_layer(spans, from);
    for (name, ms) in &by_name {
        if name.starts_with("prepare.") || name.starts_with("verify.") {
            metrics.set(&format!("{name}.ms"), *ms);
        }
    }
    for layer in ["engine", "prepare", "verify", "instance", "planner"] {
        metrics.set(
            &format!("{layer}.busy_ms"),
            by_layer.get(layer).copied().unwrap_or(0.0),
        );
    }
    metrics.set(
        "instance.build_ms",
        by_name.get("instance.build").copied().unwrap_or(0.0),
    );
    metrics.set(
        "instance.levels_ms",
        by_name.get("instance.levels").copied().unwrap_or(0.0),
    );
    metrics.set(
        "encode.record_ms",
        by_name.get("encode.record").copied().unwrap_or(0.0),
    );
    crate::batch::set_counters(metrics, &counters);
    let mut shares: BTreeMap<(&'static str, u64), BTreeMap<String, f64>> = BTreeMap::new();
    for (span, ns) in spans[from..].iter().zip(self_times(spans, from)) {
        if let Some(key) = ids.get(&span.job) {
            *shares
                .entry(*key)
                .or_default()
                .entry(span.layer().to_string())
                .or_default() += ns as f64;
        }
    }
    shares
}

/// Names the layer that owns `latency_p99_ms`: over the requests at or
/// above the p99 latency, the server-side run time (`elapsed_ms`) is split
/// by the replayed request's prepare/engine/verify/levels shares, and the
/// rest of each latency (queue, plan, build, wire) goes to `service`.
fn owner(
    answers: &[Answer],
    shares: &BTreeMap<(&'static str, u64), BTreeMap<String, f64>>,
) -> String {
    let latencies: Vec<f64> = answers.iter().map(|a| a.latency_ms).collect();
    let p99 = quantile(&latencies, 0.99);
    let tail: Vec<&Answer> = answers.iter().filter(|a| a.latency_ms >= p99).collect();
    let mut owned: BTreeMap<String, f64> = BTreeMap::new();
    let mut presets: BTreeMap<&str, usize> = BTreeMap::new();
    let mut cold = 0;
    for a in &tail {
        *presets.entry(a.preset).or_default() += 1;
        cold += usize::from(!a.plan_cached);
        *owned.entry("service".into()).or_default() += (a.latency_ms - a.run_ms).max(0.0);
        let run_layers: Vec<(&String, &f64)> = shares
            .get(&(a.preset, a.seed))
            .map(|m| {
                m.iter()
                    .filter(|(l, _)| {
                        matches!(l.as_str(), "prepare" | "engine" | "verify" | "instance")
                    })
                    .collect()
            })
            .unwrap_or_default();
        let total: f64 = run_layers.iter().map(|(_, ns)| **ns).sum();
        for (layer, ns) in run_layers {
            *owned.entry(layer.clone()).or_default() += a.run_ms * ns / total.max(1e-12);
        }
    }
    let sum: f64 = owned.values().sum();
    let top = owned
        .iter()
        .max_by(|a, b| a.1.total_cmp(b.1))
        .map_or("none".to_string(), |(l, _)| l.clone());
    let parts: Vec<String> = owned
        .iter()
        .map(|(l, ms)| format!("\"{l}\": {:.1}", ms / sum.max(1e-12) * 100.0))
        .collect();
    let mix: Vec<String> = presets
        .iter()
        .map(|(p, c)| format!("\"{p}\": {c}"))
        .collect();
    format!(
        "{{\"owner\": {{\"metric\": \"latency_p99_ms\", \"layer\": \"{top}\", \"p99_ms\": {p99:.3}, \"tail_jobs\": {}, \"tail_cold_plans\": {cold}, \"tail_presets\": {{{}}}, \"tail_time_pct\": {{{}}}}}}}",
        tail.len(),
        mix.join(", "),
        parts.join(", ")
    )
}
