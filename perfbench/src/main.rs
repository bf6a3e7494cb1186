//! `perfbench`: the workspace benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <sparse-tail|dense-rounds|structural|service-mix> \
//!     --seed <n> --seconds <s> --trace <0|1> [--tiny] [--pins FILE] [--out DIR]
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- --write-pins
//! ```
//!
//! Untraced (`--trace 0`) it prints the end-to-end metrics; traced
//! (`--trace 1`) every per-layer metric, and it writes the spans to
//! `<out>/trace-<workload>-<seed>.jsonl`. The last stdout line is the result
//! object; the lines before it stamp the host and configuration, state the
//! sample counts, and (traced) name the layer that owns the headline
//! metric. See `perfbench/README.md`.

mod batch;
mod metrics;
mod pins;
mod pipeline;
mod service_mix;
mod stats;
mod trace;
mod workloads;

use metrics::{end_to_end, per_layer, result_line, Metrics};
use pins::Pins;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;
use trace::Tracer;
use workloads::{batch_jobs, mix_shape, Scale, WORKLOADS};

/// Counts attempted and failed jobs, keeping the first few failures.
#[derive(Debug, Default)]
pub struct Tally {
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
}

impl Tally {
    /// Records one job's outcome, passing a success through.
    pub fn record<T>(&mut self, outcome: Result<T, String>) -> Option<T> {
        self.attempted += 1;
        match outcome {
            Ok(v) => Some(v),
            Err(e) => {
                self.failed += 1;
                if self.errors.len() < 8 {
                    self.errors.push(e);
                }
                None
            }
        }
    }
}

/// Command-line options.
#[derive(Debug, Clone)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    scale: Scale,
    pins: PathBuf,
    out: PathBuf,
    write_pins: bool,
    setup_probe: bool,
}

fn package_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        scale: Scale::Full,
        pins: package_dir().join("expected").join("pins.json"),
        out: package_dir().join("out"),
        write_pins: false,
        setup_probe: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => args.trace = value()? != "0",
            "--pins" => args.pins = PathBuf::from(value()?),
            "--out" => args.out = PathBuf::from(value()?),
            "--tiny" => args.scale = Scale::Tiny,
            "--write-pins" => args.write_pins = true,
            "--setup-probe" => args.setup_probe = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if !args.write_pins && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}",
            WORKLOADS.join(", ")
        ));
    }
    Ok(args)
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run() -> Result<(), String> {
    let mut args = parse_args()?;
    if args.write_pins {
        return write_pins(&args.pins);
    }
    let pins = Pins::load(&args.pins)?;
    std::fs::create_dir_all(&args.out)
        .map_err(|e| format!("create {}: {e}", args.out.display()))?;
    // Set-up probes get these paths after the directory change below.
    let absolute = |p: &Path| std::fs::canonicalize(p).map_err(|e| format!("{}: {e}", p.display()));
    args.out = absolute(&args.out)?;
    args.pins = absolute(&args.pins)?;
    // The sharded executor spills to the temp dir; keep its files in the
    // output directory. No thread has been started yet.
    std::env::set_var("TMPDIR", &args.out);
    // The service socket is bound by a relative name: socket paths are
    // limited to ~100 bytes, and every other path here is absolute.
    std::env::set_current_dir(&args.out).map_err(|e| format!("chdir: {e}"))?;
    if args.setup_probe {
        let mut tally = Tally::default();
        setup(&args, &pins, &mut tally)?;
        return match tally.errors.first() {
            Some(e) => Err(format!("setup: {e}")),
            None => Ok(()),
        };
    }
    if args.trace {
        traced(&args, &pins)
    } else {
        untraced(&args, &pins)
    }
}

/// What a workload keeps from its set-up.
enum Ready {
    Batch(Vec<workloads::Job>),
    Service(service_mix::Server),
}

fn socket_name() -> PathBuf {
    PathBuf::from(format!("lcld-{}.sock", std::process::id()))
}

/// The workload's set-up: everything before its first timed job.
fn setup(args: &Args, pins: &Pins, tally: &mut Tally) -> Result<Ready, String> {
    if args.workload == "service-mix" {
        let shape = mix_shape(args.scale);
        let server = service_mix::setup(&shape, &socket_name(), pins, tally)?;
        return Ok(Ready::Service(server));
    }
    let jobs = batch_jobs(&args.workload, args.scale, args.seed)
        .ok_or_else(|| format!("unknown workload `{}`", args.workload))?;
    batch::setup(&args.workload, &jobs, pins, tally);
    Ok(Ready::Batch(jobs))
}

/// Set-up time: the median of three fresh processes that each run the
/// set-up and exit, timed from spawn to exit, so cold caches show.
fn setup_seconds(args: &Args, tally: &mut Tally) -> f64 {
    let exe = std::env::current_exe().ok();
    let mut times = Vec::new();
    for _ in 0..3 {
        let started = Instant::now();
        let status = exe.as_ref().map(|exe| {
            let mut cmd = Command::new(exe);
            cmd.args(["--setup-probe", "--workload", &args.workload])
                .args(["--seed", &args.seed.to_string()])
                .arg("--pins")
                .arg(&args.pins)
                .arg("--out")
                .arg(&args.out)
                .stdin(Stdio::null())
                .stdout(Stdio::null());
            if args.scale == Scale::Tiny {
                cmd.arg("--tiny");
            }
            cmd.status()
        });
        let secs = started.elapsed().as_secs_f64();
        let ok = matches!(status, Some(Ok(s)) if s.success());
        if tally
            .record(if ok {
                Ok(())
            } else {
                Err("set-up probe failed".into())
            })
            .is_some()
        {
            times.push(secs);
        }
    }
    stats::median(&times)
}

/// The host and configuration stamp.
fn stamp(args: &Args, ready: &Ready, setup_secs: f64) -> String {
    let shard_json = |s: &Option<lcl_harness::ShardConfig>| match s {
        Some(s) => format!(
            "{{\"shards\": {}, \"max_resident\": {}, \"packing\": {}}}",
            s.shards, s.max_resident, s.packing
        ),
        None => "null".into(),
    };
    let jobs: Vec<String> = match ready {
        Ready::Batch(jobs) => jobs
            .iter()
            .map(|j| {
                let engine = lcl_harness::EngineConfig {
                    shard: j.shard.clone(),
                    ..Default::default()
                };
                format!(
                    "{{\"job\": \"{}\", \"n\": {}, \"seed\": {}, \"threads\": {}, \"chunk_size\": {}, \"shard\": {}}}",
                    j.label,
                    j.n,
                    j.seed,
                    engine.resolved_threads(j.n),
                    engine.resolved_chunk_size(),
                    shard_json(&j.shard)
                )
            })
            .collect(),
        Ready::Service(_) => {
            let shape = mix_shape(args.scale);
            let engine = lcl_harness::EngineConfig::default();
            vec![format!(
                "{{\"job\": \"solve\", \"n\": {}, \"seeds\": \"1-{}\", \"threads\": {}, \"chunk_size\": {}, \"shard\": null, \"workers\": {}, \"clients\": {}, \"queue_capacity\": {}, \"requests_per_pass\": {}}}",
                shape.n,
                workloads::MIX_SEEDS,
                engine.resolved_threads(shape.n),
                engine.resolved_chunk_size(),
                shape.workers,
                shape.clients,
                shape.queue_capacity,
                shape.jobs
            )]
        }
    };
    format!(
        "{{\"stamp\": {{\"workload\": \"{}\", \"seed\": {}, \"scale\": \"{}\", \"trace\": {}, \"seconds\": {}, \"nproc\": {}, \"git_commit\": \"{}\", \"in_process_setup_s\": {}, \"jobs\": [{}]}}}}",
        args.workload,
        args.seed,
        args.scale.name(),
        u8::from(args.trace),
        args.seconds,
        stats::nproc(),
        stats::git_commit(&package_dir().join("..")),
        metrics::number(setup_secs),
        jobs.join(", ")
    )
}

fn min_passes(scale: Scale) -> usize {
    match scale {
        Scale::Full => 3,
        Scale::Tiny => 2,
    }
}

fn untraced(args: &Args, pins: &Pins) -> Result<(), String> {
    let mut tally = Tally::default();
    let mut metrics = Metrics::default();
    metrics.set("setup_s", setup_seconds(args, &mut tally));
    let started = Instant::now();
    let ready = setup(args, pins, &mut tally)?;
    let own_setup = started.elapsed().as_secs_f64();
    println!("{}", stamp(args, &ready, own_setup));
    let passes = min_passes(args.scale);
    let samples = match &ready {
        Ready::Batch(jobs) => batch::measure(
            &args.workload,
            jobs,
            args.seconds,
            passes,
            pins,
            &mut tally,
            &mut metrics,
        ),
        Ready::Service(server) => service_mix::measure(
            server,
            &mix_shape(args.scale),
            args.seed,
            args.seconds,
            passes,
            pins,
            &mut tally,
            &mut metrics,
        ),
    };
    drop(ready);
    metrics.set("peak_rss_mb", stats::peak_rss_mb());
    println!("{samples}");
    finish(&tally, true, &end_to_end(), &metrics)
}

fn traced(args: &Args, pins: &Pins) -> Result<(), String> {
    let mut tally = Tally::default();
    let mut metrics = Metrics::default();
    let started = Instant::now();
    let ready = setup(args, pins, &mut tally)?;
    let own_setup = started.elapsed().as_secs_f64();
    let stamp_line = stamp(args, &ready, own_setup);
    println!("{stamp_line}");
    let mut tracer = Tracer::new(true, Instant::now());
    let levels_before = lcl_harness::levels_cache_stats();
    // Traced and untraced passes alternate; two of each at the least.
    let passes = 2;
    let owner = match &ready {
        Ready::Batch(jobs) => {
            let owner = batch::trace(
                &args.workload,
                jobs,
                args.seconds,
                passes,
                pins,
                &mut tally,
                &mut tracer,
                &mut metrics,
            );
            let levels = lcl_harness::levels_cache_stats();
            let hits = levels.hits.saturating_sub(levels_before.hits) as f64;
            let total = hits + levels.misses.saturating_sub(levels_before.misses) as f64;
            metrics.set("instance.levels_cache_hit_rate", hits / total.max(1.0));
            owner
        }
        Ready::Service(server) => service_mix::trace(
            server,
            &mix_shape(args.scale),
            args.seed,
            args.seconds,
            passes,
            pins,
            &mut tally,
            &mut tracer,
            &mut metrics,
        ),
    };
    drop(ready);
    let nesting = trace::check_nesting(tracer.spans());
    if let Err(e) = &nesting {
        eprintln!("perfbench: {e}");
    }
    let path = args
        .out
        .join(format!("trace-{}-{}.jsonl", args.workload, args.seed));
    let body = format!(
        "{stamp_line}\n{owner}\n{}",
        trace::to_json_lines(tracer.spans())
    );
    std::fs::write(&path, body).map_err(|e| format!("write {}: {e}", path.display()))?;
    metrics.set(
        "error_rate",
        tally.failed as f64 / (tally.attempted as f64).max(1.0),
    );
    println!("{owner}");
    println!(
        "{{\"spans\": {{\"count\": {}, \"file\": \"{}\"}}}}",
        tracer.spans().len(),
        path.display()
    );
    finish(&tally, nesting.is_ok(), &per_layer(), &metrics)
}

fn finish(
    tally: &Tally,
    consistent: bool,
    names: &[(String, &str)],
    metrics: &Metrics,
) -> Result<(), String> {
    for e in &tally.errors {
        eprintln!("perfbench: job failed: {e}");
    }
    let correct = consistent && tally.failed == 0;
    println!(
        "{}",
        result_line(correct, tally.attempted, tally.failed, names, metrics)
    );
    Ok(())
}

/// Regenerates the pins file from the current code: every batch job at
/// both scales and every seed-pool entry, and every `service-mix` request
/// at both scales (planned and run directly; the service's differential
/// suite pins service ≡ direct).
fn write_pins(path: &Path) -> Result<(), String> {
    let mut pins = Pins::default();
    for workload in &WORKLOADS[..3] {
        for scale in [Scale::Full, Scale::Tiny] {
            for pool in 0..workloads::SEED_POOL {
                let jobs = workloads::batch_jobs_with(workload, scale, |_| pool)
                    .ok_or("batch workload")?;
                for job in &jobs {
                    let (_, outcome) = pipeline::run_job(job)?;
                    if !outcome.verified {
                        return Err(format!("{} is not verified", job.label));
                    }
                    pins.insert(job.pin_key(workload), outcome.fingerprint);
                }
            }
        }
    }
    for scale in [Scale::Full, Scale::Tiny] {
        let n = mix_shape(scale).n;
        for job in workloads::mix_universe() {
            let planned =
                lcl_harness::plan(&job.problem, n, &lcl_harness::RunConfig::seeded(job.seed))
                    .map_err(|e| format!("{}: {e}", job.preset))?;
            let record = planned.run().map_err(|e| format!("{}: {e}", job.preset))?;
            pins.insert(job.pin_key(n), pipeline::Fingerprint::of(&record));
        }
    }
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    }
    std::fs::write(path, pins.render()).map_err(|e| format!("write {}: {e}", path.display()))?;
    eprintln!("perfbench: wrote {} pins to {}", pins.len(), path.display());
    Ok(())
}
