//! `lcl` — the single command-line entry point to the reproduction.
//!
//! ```text
//! lcl list                          table of all registry algorithms
//! lcl figures                       names of the figure sweeps
//! lcl problems                      names of the preset problems
//! lcl solve <preset>|<problem.json> [--n N] [--seed S] [--classify-only]
//!         [--json]                  classify a declarative problem, resolve
//!                                   its best-fit solver, and run the plan
//! lcl run <algo> [--n N] [--seed S] [--k K] [--d D] [--gamma-mult M]
//!         [--chunk-size C] [--engine-threads T] [--check-arena]
//!         [--shards S] [--max-resident R] [--packing]
//!         [--no-verify] [--json]    one seeded run via the registry
//!                                   (always on the chunked engine;
//!                                   --check-arena turns on the runtime
//!                                   arena write-discipline checker;
//!                                   --shards selects the partitioned
//!                                   out-of-core executor, --max-resident
//!                                   caps in-memory shard arenas (0 =
//!                                   all), --packing bit-packs message
//!                                   arenas via protocol hints)
//! lcl sweep <figure>|all [--tiny] [--schema]
//!                                   regenerate figures via Session
//! lcl sweep --scale smoke|ci|full|huge [--chunk-size C] [--threads T]
//!         [--shards S] [--max-resident R] [--packing]
//!                                   large-n suite on the chunked engine;
//!                                   emits bench-results/BENCH_engine.json
//!                                   (`huge` = the 10M-node out-of-core
//!                                   acceptance preset, sharded with
//!                                   max_resident < shards by default)
//! lcl classify [--scale tiny|smoke|ci|full] [--strict]
//!                                   fit every algorithm's measured
//!                                   node-averaged curve to its landscape
//!                                   class; emits BENCH_classify.json
//! lcl churn [--scale tiny|smoke|ci|full] [--schema]
//!                                   dynamic-tree churn sessions with
//!                                   incremental re-solving; emits
//!                                   BENCH_churn.json (ci/full gate the
//!                                   1M-path incremental speedup)
//! lcl serve [--socket PATH] [--workers N] [--queue N] [--schema]
//!                                   run the lcld batch solver service:
//!                                   JSON-lines over stdio (default) or a
//!                                   Unix socket; --schema prints the wire
//!                                   schema as SCHEMA lines (golden-diffed
//!                                   in CI against service_schema.txt)
//! lcl loadgen [--scale tiny|ci|full] [--clients N] [--jobs N]
//!         [--socket PATH]           closed-loop load against lcld; emits
//!                                   BENCH_service.json (jobs/sec, p50/p99,
//!                                   plan-cache hit rate); fails on any
//!                                   job error or a cold plan cache
//! lcl baseline [--n N]              emit bench-results/BENCH_sweep.json
//! lcl perfgate [--threshold X]      CI smoke gate vs BENCH_sweep.json,
//!                                   BENCH_engine.json, BENCH_service.json
//! lcl analyze [--strict] [--json] [--baseline PATH] [--root PATH] [--rules]
//!                                   in-house static analysis of the
//!                                   workspace sources: hot-path purity,
//!                                   determinism and API hygiene, invariant
//!                                   cross-checks; emits ANALYSIS.json
//! ```

use lcl_bench::figures::{figure_names, run_figure, FigureOpts};
use lcl_bench::report::{f1, f3, save_json, Table};
use lcl_core::problem_spec::ProblemSpec;
use lcl_harness::{
    classify, plan, resolver, run_timed, PlanError, RunConfig, Session, SweepReport,
};
use lcl_local::engine::{EngineConfig, ShardConfig};
use lcl_service::protocol::flatten_schema;
use serde::Serialize;
use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("list") => cmd_list(),
        Some("figures") => cmd_figures(),
        Some("problems") => cmd_problems(),
        Some("solve") => cmd_solve(&args[1..]),
        Some("run") => cmd_run(&args[1..]),
        Some("sweep") => cmd_sweep(&args[1..]),
        Some("classify") => cmd_classify(&args[1..]),
        Some("churn") => cmd_churn(&args[1..]),
        Some("serve") => cmd_serve(&args[1..]),
        Some("loadgen") => cmd_loadgen(&args[1..]),
        Some("baseline") => cmd_baseline(&args[1..]),
        Some("perfgate") => cmd_perfgate(&args[1..]),
        Some("analyze") => cmd_analyze(&args[1..]),
        Some("--help" | "-h" | "help") | None => {
            print_usage();
            Ok(())
        }
        Some(other) => Err(format!("unknown command `{other}`\n\n{USAGE}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str =
    "usage: lcl <list|figures|problems|solve|run|sweep|classify|churn|serve|loadgen|baseline|perfgate|analyze> [options]\n\
     lcl list\n\
     lcl figures\n\
     lcl problems\n\
     lcl solve <preset>|<problem.json> [--n N] [--seed S] [--classify-only] [--json]\n\
     lcl run <algo> [--n N] [--seed S] [--k K] [--d D] [--gamma-mult M]\n\
             [--chunk-size C] [--engine-threads T] [--check-arena]\n\
             [--shards S] [--max-resident R] [--packing]\n\
             [--no-verify] [--json]\n\
     lcl sweep <figure>|all [--tiny] [--schema]\n\
     lcl sweep --scale smoke|ci|full|huge [--chunk-size C] [--threads T]\n\
             [--shards S] [--max-resident R] [--packing]\n\
     lcl classify [--scale tiny|smoke|ci|full] [--strict]\n\
     lcl churn [--scale tiny|smoke|ci|full] [--schema]\n\
     lcl serve [--socket PATH] [--workers N] [--queue N] [--schema]\n\
     lcl loadgen [--scale tiny|ci|full] [--clients N] [--jobs N] [--socket PATH]\n\
     lcl baseline [--n N]\n\
     lcl perfgate [--threshold X]\n\
     lcl analyze [--strict] [--json] [--baseline PATH] [--root PATH] [--rules]";

fn print_usage() {
    println!("{USAGE}");
}

fn cmd_list() -> Result<(), String> {
    let mut table = Table::new(
        "Registry — the solvers of the landscape",
        &[
            "name",
            "landscape class",
            "paper",
            "instances",
            "default spec (n = 10000)",
        ],
    );
    let cfg = RunConfig::default();
    for algo in resolver().algorithms() {
        let kinds: Vec<String> = algo
            .supported_kinds()
            .iter()
            .map(|k| format!("{k:?}"))
            .collect();
        table.row(&[
            algo.name().to_string(),
            algo.landscape_class().to_string(),
            algo.paper_ref().to_string(),
            kinds.join(","),
            algo.default_spec(10_000, &cfg).describe(),
        ]);
    }
    table.print();
    Ok(())
}

fn cmd_figures() -> Result<(), String> {
    for name in figure_names() {
        println!("{name}");
    }
    Ok(())
}

fn cmd_problems() -> Result<(), String> {
    for (name, _) in ProblemSpec::presets() {
        println!("{name}");
    }
    Ok(())
}

/// Loads the solve target: a preset name, or a path to a JSON problem
/// file in the `ProblemSpec` value model.
fn load_problem(target: &str) -> Result<(String, ProblemSpec), String> {
    if let Some(spec) = ProblemSpec::preset(target) {
        return Ok((target.to_string(), spec));
    }
    if target.ends_with(".json") || std::path::Path::new(target).exists() {
        let text = std::fs::read_to_string(target)
            .map_err(|e| format!("cannot read problem file `{target}`: {e}"))?;
        let value = serde_json::from_str(&text)
            .map_err(|e| format!("`{target}` is not valid JSON: {e}"))?;
        let spec = ProblemSpec::from_value(&value)
            .map_err(|e| format!("`{target}` is not a valid problem spec: {e}"))?;
        return Ok((target.to_string(), spec));
    }
    Err(format!(
        "`{target}` is neither a preset (see `lcl problems`) nor a problem JSON file"
    ))
}

/// Prints the stable `PLAN ...` schema line (golden-diffed in CI against
/// `crates/bench/golden/plan_schema.txt`) plus the human-readable plan
/// table. `resolution` is `None` for classify-only reports of problems
/// no solver bids on.
fn print_plan(
    label: &str,
    problem: &ProblemSpec,
    classification: &lcl_harness::Classification,
    resolution: Option<(&str, lcl_harness::SolverFit, bool)>,
) {
    let (solver, score, consistent, fit_reason) = match resolution {
        Some((name, fit, consistent)) => (
            name.to_string(),
            fit.score.to_string(),
            consistent.to_string(),
            fit.reason.to_string(),
        ),
        None => (
            "-".to_string(),
            "-".to_string(),
            "-".to_string(),
            "no registered solver bids on this problem".to_string(),
        ),
    };
    println!(
        "PLAN problem={} class={} source={} solver={} score={} consistent={}",
        problem.describe(),
        classification.class.describe(),
        classification.source.describe(),
        solver,
        score,
        consistent,
    );
    let mut table = Table::new(
        format!("plan for `{label}`"),
        &["problem", "predicted class", "source", "solver", "fit"],
    );
    table.row(&[
        problem.describe(),
        classification.class.describe(),
        classification.source.describe().to_string(),
        solver,
        fit_reason,
    ]);
    table.print();
    println!("evidence: {}", classification.detail);
}

/// `lcl solve`: the problem-first workload — classify a declarative
/// problem, resolve its best-fit solver, and (unless `--classify-only`)
/// run the plan. Emits one stable `PLAN ...` line per invocation, which
/// CI collects and diffs against `crates/bench/golden/plan_schema.txt`.
fn cmd_solve(args: &[String]) -> Result<(), String> {
    let target = args
        .first()
        .filter(|a| !a.starts_with("--"))
        .ok_or("`lcl solve` needs a preset name or a problem JSON file (see `lcl problems`)")?;
    let flags = Flags { args: &args[1..] };
    flags.ensure_known(&["--n", "--seed"], &["--classify-only", "--json"])?;
    let n: usize = flags.parsed("--n")?.unwrap_or(10_000);
    let seed: u64 = flags.parsed("--seed")?.unwrap_or(1);

    let (label, problem) = load_problem(target)?;
    let classify_only = flags.switch("--classify-only");
    // One classification: `plan` both classifies and resolves. A problem
    // no solver bids on is still reportable under --classify-only.
    let plan = match plan(&problem, n, &RunConfig::seeded(seed)) {
        Ok(plan) => plan,
        Err(PlanError::NoSolver(_)) if classify_only => {
            let classification = classify(&problem).map_err(|e| e.to_string())?;
            print_plan(&label, &problem, &classification, None);
            return Ok(());
        }
        Err(e) => return Err(e.to_string()),
    };
    let predicted = plan.solver.node_averaged_class(&plan.config);
    let consistent = plan.classification.class.consistent_with(&predicted);
    print_plan(
        &label,
        &problem,
        &plan.classification,
        Some((plan.solver.name(), plan.fit, consistent)),
    );

    if classify_only {
        return Ok(());
    }

    let record = plan.run().map_err(|e| e.to_string())?;
    let mut run_table = Table::new(
        format!("{} on {}", record.algorithm, record.spec),
        &["n", "seed", "node-avg", "worst", "median", "verified", "ms"],
    );
    run_table.row(&[
        record.n.to_string(),
        record.seed.to_string(),
        f3(record.node_averaged),
        record.worst_case.to_string(),
        record.median_round.to_string(),
        record.verified.to_string(),
        f1(record.elapsed_ms),
    ]);
    run_table.print();
    if flags.switch("--json") {
        save_json(&format!("solve_{}", plan.solver.name()), &record);
    }
    Ok(())
}

/// Parses `--flag value` pairs and standalone `--switch` flags.
struct Flags<'a> {
    args: &'a [String],
}

impl<'a> Flags<'a> {
    fn value(&self, flag: &str) -> Result<Option<&'a str>, String> {
        for (i, a) in self.args.iter().enumerate() {
            if a == flag {
                return match self.args.get(i + 1) {
                    Some(v) if !v.starts_with("--") => Ok(Some(v)),
                    _ => Err(format!("flag {flag} needs a value")),
                };
            }
        }
        Ok(None)
    }

    fn parsed<T: std::str::FromStr>(&self, flag: &str) -> Result<Option<T>, String> {
        match self.value(flag)? {
            Some(v) => v
                .parse()
                .map(Some)
                .map_err(|_| format!("flag {flag}: cannot parse `{v}`")),
            None => Ok(None),
        }
    }

    fn switch(&self, flag: &str) -> bool {
        self.args.iter().any(|a| a == flag)
    }

    /// Rejects any argument that is not one of the declared value flags
    /// (each consuming the next token) or switches — a mistyped flag must
    /// fail loudly, not silently run with defaults.
    fn ensure_known(&self, value_flags: &[&str], switches: &[&str]) -> Result<(), String> {
        let mut i = 0;
        while i < self.args.len() {
            let arg = self.args[i].as_str();
            if value_flags.contains(&arg) {
                i += 2; // flag + its value (missing values error in value())
            } else if switches.contains(&arg) {
                i += 1;
            } else {
                return Err(format!("unknown argument `{arg}`\n\n{USAGE}"));
            }
        }
        Ok(())
    }
}

/// Builds the optional `ShardConfig` from `--shards`, `--max-resident`,
/// and `--packing` (`--shards 0` is the monolithic engine). Residency and
/// packing only make sense with a shard count, so they require `--shards`.
fn shard_flags(flags: &Flags<'_>) -> Result<Option<ShardConfig>, String> {
    let shards: Option<usize> = flags.parsed("--shards")?;
    let max_resident: Option<usize> = flags.parsed("--max-resident")?;
    let packing = flags.switch("--packing");
    match shards {
        Some(shards) => Ok(ShardConfig::from_flags(
            shards,
            max_resident.unwrap_or(0),
            packing,
        )),
        None if max_resident.is_some() || packing => {
            Err("--max-resident/--packing need --shards <S>".to_string())
        }
        None => Ok(None),
    }
}

fn cmd_run(args: &[String]) -> Result<(), String> {
    let name = args
        .first()
        .filter(|a| !a.starts_with("--"))
        .ok_or("`lcl run` needs an algorithm name (see `lcl list`)")?;
    let algo = resolver()
        .find(name)
        .ok_or_else(|| format!("unknown algorithm `{name}` (see `lcl list`)"))?;
    let flags = Flags { args: &args[1..] };
    flags.ensure_known(
        &[
            "--n",
            "--seed",
            "--k",
            "--d",
            "--gamma-mult",
            "--chunk-size",
            "--engine-threads",
            "--shards",
            "--max-resident",
        ],
        &["--no-verify", "--json", "--check-arena", "--packing"],
    )?;
    let n: usize = flags.parsed("--n")?.unwrap_or(10_000);
    // Every run executes natively on the chunked engine; the flags only
    // tune it (0 = engine defaults).
    let cfg = RunConfig {
        seed: flags.parsed("--seed")?.unwrap_or(1),
        k: flags.parsed("--k")?,
        d: flags.parsed("--d")?,
        gamma_multiplier: flags.parsed("--gamma-mult")?.unwrap_or(1.0),
        verify: !flags.switch("--no-verify"),
        engine: EngineConfig {
            chunk_size: flags.parsed("--chunk-size")?.unwrap_or(0),
            threads: flags.parsed("--engine-threads")?.unwrap_or(0),
            // Runtime opt-in, no rebuild: same checker the `arena-check`
            // feature forces on permanently.
            check_arena: flags.switch("--check-arena"),
            shard: shard_flags(&flags)?,
        },
        ..RunConfig::default()
    };
    let spec = algo.default_spec(n, &cfg);
    let instance = spec.build().map_err(|e| e.to_string())?;
    let record = run_timed(algo, &instance, &cfg).map_err(|e| e.to_string())?;

    let mut table = Table::new(
        format!("{} on {}", algo.name(), record.spec),
        &[
            "n",
            "seed",
            "node-avg",
            "worst",
            "waiting-avg",
            "verified",
            "ms",
        ],
    );
    table.row(&[
        record.n.to_string(),
        record.seed.to_string(),
        f3(record.node_averaged),
        record.worst_case.to_string(),
        f3(record.waiting_averaged),
        record.verified.to_string(),
        f1(record.elapsed_ms),
    ]);
    table.print();
    if flags.switch("--json") {
        save_json(&format!("run_{}", algo.name()), &record);
    }
    Ok(())
}

fn cmd_sweep(args: &[String]) -> Result<(), String> {
    // `lcl sweep --scale <preset>` runs the large-n engine suite instead
    // of a figure.
    let scale_flags = Flags { args };
    if let Some(preset) = scale_flags.value("--scale")? {
        scale_flags.ensure_known(
            &[
                "--scale",
                "--chunk-size",
                "--threads",
                "--shards",
                "--max-resident",
            ],
            &["--packing"],
        )?;
        let chunk_size: usize = scale_flags.parsed("--chunk-size")?.unwrap_or(0);
        let threads: usize = scale_flags.parsed("--threads")?.unwrap_or(0);
        let shard = shard_flags(&scale_flags)?;
        return lcl_bench::scale::run_scale(preset, chunk_size, threads, shard);
    }
    let target = args
        .first()
        .filter(|a| !a.starts_with("--"))
        .ok_or("`lcl sweep` needs a figure name, `all`, or `--scale <preset>`")?;
    let flags = Flags { args: &args[1..] };
    flags.ensure_known(&[], &["--tiny", "--schema"])?;
    let opts = FigureOpts {
        tiny: flags.switch("--tiny"),
    };
    let schema = flags.switch("--schema");
    let names: Vec<&str> = if target == "all" {
        figure_names().to_vec()
    } else {
        vec![target.as_str()]
    };
    for name in names {
        let value = run_figure(name, &opts)?;
        if schema {
            // Prefixed so CI can grep the schema out of the mixed table
            // output: `lcl sweep all --tiny --schema | grep '^SCHEMA '`.
            for line in flatten_schema(name, &value) {
                println!("SCHEMA {line}");
            }
        }
    }
    Ok(())
}

/// `lcl classify`: fit measured node-averaged curves to the landscape.
/// `--strict` (what CI runs) fails when any fitted class contradicts its
/// algorithm's theoretical class.
fn cmd_classify(args: &[String]) -> Result<(), String> {
    let flags = Flags { args };
    flags.ensure_known(&["--scale"], &["--strict"])?;
    let preset = flags.value("--scale")?.unwrap_or("ci");
    lcl_bench::classify::run_classify(preset, flags.switch("--strict"))
}

/// `lcl churn`: dynamic-tree churn sessions over the preset scripts, plus
/// the incremental-vs-full headline (gated on `ci`/`full`). `--schema`
/// prints the `BENCH_churn.json` schema as `SCHEMA ` lines, diffed in CI
/// against `crates/bench/golden/churn_schema.txt`.
fn cmd_churn(args: &[String]) -> Result<(), String> {
    let flags = Flags { args };
    flags.ensure_known(&["--scale"], &["--schema"])?;
    let preset = flags.value("--scale")?.unwrap_or("smoke");
    let value = lcl_bench::churn::run_churn(preset)?;
    if flags.switch("--schema") {
        for line in flatten_schema("churn", &value) {
            println!("SCHEMA {line}");
        }
    }
    Ok(())
}

/// `lcl serve`: the lcld batch solver service. JSON-lines over stdio by
/// default; `--socket PATH` binds a Unix-domain socket instead and
/// serves until killed. `--schema` prints the wire schema as stable
/// `SCHEMA ` lines (CI diffs them against
/// `crates/bench/golden/service_schema.txt`) and exits.
fn cmd_serve(args: &[String]) -> Result<(), String> {
    let flags = Flags { args };
    flags.ensure_known(&["--socket", "--workers", "--queue"], &["--schema"])?;
    if flags.switch("--schema") {
        for line in lcl_service::protocol::schema_lines() {
            println!("SCHEMA {line}");
        }
        return Ok(());
    }
    let cfg = lcl_service::ServiceConfig {
        workers: flags.parsed("--workers")?.unwrap_or(0),
        queue_capacity: flags.parsed("--queue")?.unwrap_or(64),
        ..lcl_service::ServiceConfig::default()
    };
    let service = lcl_service::Service::start(cfg);
    match flags.value("--socket")? {
        Some(path) => {
            let socket = lcl_service::serve_unix(&service, std::path::Path::new(path))
                .map_err(|e| format!("cannot bind `{path}`: {e}"))?;
            eprintln!(
                "lcld: serving on {path} with {} worker(s); send {{\"op\":\"shutdown\"}} to stop",
                service.worker_count()
            );
            socket.join();
        }
        None => {
            eprintln!(
                "lcld: serving JSON-lines on stdio with {} worker(s)",
                service.worker_count()
            );
            lcl_service::serve_stdio(&service);
        }
    }
    Ok(())
}

/// `lcl loadgen`: closed-loop load against the lcld service (in-process
/// unless `--socket` targets a running `lcl serve`). Emits
/// `bench-results/BENCH_service.json`; CI gates the `ci` scale.
fn cmd_loadgen(args: &[String]) -> Result<(), String> {
    let flags = Flags { args };
    flags.ensure_known(&["--scale", "--clients", "--jobs", "--socket"], &[])?;
    let scale = flags.value("--scale")?.unwrap_or("ci");
    lcl_bench::service_bench::run_loadgen(
        scale,
        flags.parsed("--clients")?,
        flags.parsed("--jobs")?,
        flags.value("--socket")?,
    )
}

#[derive(Serialize)]
struct Baseline {
    /// The size ladder every algorithm was swept over.
    sizes: Vec<usize>,
    /// One sweep report (points + fits + wall-clock) per algorithm.
    reports: Vec<SweepReport>,
}

/// Emits `bench-results/BENCH_sweep.json`: every registry algorithm swept
/// over a shared size ladder with fixed seeds — the perf trajectory
/// baseline future changes are compared against.
fn cmd_baseline(args: &[String]) -> Result<(), String> {
    let flags = Flags { args };
    flags.ensure_known(&["--n"], &[])?;
    let base: usize = flags.parsed("--n")?.unwrap_or(40_000);
    let sizes = vec![base / 4, base / 2, base];
    let cfg = RunConfig::default();
    let mut reports = Vec::new();
    for algo in resolver().algorithms() {
        let mut session = Session::new();
        for &n in &sizes {
            session
                .push(
                    algo.name(),
                    algo.default_spec(n, &cfg),
                    RunConfig::seeded(n as u64),
                )
                .map_err(|e| e.to_string())?;
        }
        let records = session.run().map_err(|e| e.to_string())?;
        let report = SweepReport::from_records(algo.name(), &records);
        let total_ms: f64 = report.points.iter().map(|p| p.elapsed_ms).sum();
        println!(
            "{:<20} {:>3} points, node-avg exponent {:>7}, {:>9.1} ms total",
            report.algorithm,
            report.points.len(),
            report
                .fit
                .as_ref()
                .map_or("-".to_string(), |f| f3(f.exponent)),
            total_ms,
        );
        reports.push(report);
    }
    save_json("BENCH_sweep", &Baseline { sizes, reports });
    Ok(())
}

/// CI perf smoke gate: one mid-size instance per landscape class against
/// the checked-in `BENCH_sweep.json`, generous regression threshold.
fn cmd_perfgate(args: &[String]) -> Result<(), String> {
    let flags = Flags { args };
    flags.ensure_known(&["--threshold"], &[])?;
    let threshold: f64 = flags.parsed("--threshold")?.unwrap_or(3.0);
    lcl_bench::scale::perf_gate(threshold)
}

/// The in-house static analyzer: hot-path purity, determinism and API
/// hygiene, and cross-artifact invariant checks over the workspace's
/// own sources, with a per-rule allow-baseline.
fn cmd_analyze(args: &[String]) -> Result<(), String> {
    let flags = Flags { args };
    flags.ensure_known(
        &["--root", "--baseline"],
        &["--json", "--strict", "--rules"],
    )?;
    if flags.switch("--rules") {
        for (id, desc) in lcl_analysis::rules::RULES {
            println!("{id}  {desc}");
        }
        return Ok(());
    }
    let root = match flags.value("--root")? {
        Some(p) => PathBuf::from(p),
        None => workspace_root()?,
    };
    let baseline = match flags.value("--baseline")? {
        Some(p) => Some(PathBuf::from(p)),
        None => {
            let default = root.join("ANALYSIS_BASELINE.txt");
            default.is_file().then_some(default)
        }
    };
    let report = lcl_analysis::analyze(&lcl_analysis::AnalysisConfig { root, baseline })
        .map_err(|e| e.to_string())?;
    print!("{}", report.human());
    if flags.switch("--json") {
        save_json("ANALYSIS", &report);
    }
    if flags.switch("--strict") && !report.is_clean() {
        return Err(format!(
            "analyze --strict: {} non-baselined finding(s)",
            report.findings.len()
        ));
    }
    Ok(())
}

/// Ascends from the current directory to the workspace root (the first
/// ancestor whose `Cargo.toml` declares `[workspace]`).
fn workspace_root() -> Result<PathBuf, String> {
    let mut dir = std::env::current_dir().map_err(|e| format!("cannot read cwd: {e}"))?;
    loop {
        let manifest = dir.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Ok(dir);
            }
        }
        if !dir.pop() {
            return Err(
                "not inside a cargo workspace — pass `--root <path>` to `lcl analyze`".to_string(),
            );
        }
    }
}
