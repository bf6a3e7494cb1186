//! The `lcld` wire protocol: JSON-lines requests and responses.
//!
//! One request or response per line, no framing beyond the newline. The
//! protocol is deliberately tolerant on input (unknown fields are
//! ignored, `n`/`seed`/`detail` have defaults, a problem may be named by
//! preset or embedded as a spec object) and strict on output (every
//! response carries a `kind` tag, every failure is a typed error kind —
//! the fault-injection suite holds the server to that).
//!
//! Requests (`op` tag, see [`REQUEST_OPS`]):
//!
//! ```json
//! {"op":"classify","id":1,"problem":"3-coloring"}
//! {"op":"solve","id":2,"problem":{"problem":"coloring","colors":3},"n":800,"seed":7,"detail":true}
//! {"op":"stats","id":3}
//! {"op":"shutdown","id":4}
//! ```
//!
//! Responses (`kind` tag, see [`RESPONSE_KINDS`]): `plan`, `record`,
//! `stats`, `done`, `error`, `overloaded`. Solve records carry FNV-1a
//! checksums of the label and round vectors so closed-loop clients can
//! assert bit-identity without shipping megabytes; `detail:true`
//! requests the full vectors.
//!
//! Every variant in [`REQUEST_OPS`] and [`RESPONSE_KINDS`] must be
//! exercised by the protocol round-trip suite — the in-house analyzer's
//! LCL-X04 cross-check diffs these constants against that test file.

use lcl_core::problem_spec::ProblemSpec;
use lcl_harness::{CacheStats, PlanError};
use serde::{ObjectWriter, Serialize, Value};

/// Every request `op` tag the server accepts.
pub const REQUEST_OPS: &[&str] = &["classify", "solve", "stats", "shutdown"];

/// Every response `kind` tag the server emits.
pub const RESPONSE_KINDS: &[&str] = &["plan", "record", "stats", "done", "error", "overloaded"];

/// Every typed error kind an `error` response can carry.
pub const ERROR_KINDS: &[&str] = &[
    "bad-request",
    "bad-problem",
    "unsolvable",
    "undecidable",
    "no-solver",
    "too-large",
    "run-failed",
    "shutting-down",
];

/// Default instance size when a `solve` omits `n`.
pub const DEFAULT_N: usize = 10_000;

/// Default seed when a `solve` omits `seed`.
pub const DEFAULT_SEED: u64 = 1;

/// A line the server could not interpret as a request. The id is
/// best-effort: extracted when the line parsed as an object with a
/// numeric `id`, so the typed error response can still be attributed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireError {
    /// Request id, when one could be recovered from the broken line.
    pub id: Option<u64>,
    /// Human-readable parse failure.
    pub message: String,
}

/// A client request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Classify a problem without running it.
    Classify {
        /// Client-chosen correlation id, echoed on every response.
        id: u64,
        /// The problem to classify.
        problem: ProblemSpec,
    },
    /// Plan and run a problem, returning a record.
    Solve {
        /// Client-chosen correlation id.
        id: u64,
        /// The problem to solve.
        problem: ProblemSpec,
        /// Target instance size.
        n: usize,
        /// Run seed.
        seed: u64,
        /// When true, the record carries the full label/round vectors.
        detail: bool,
        /// Shard count for the partitioned out-of-core executor; omitted
        /// (or `0`) runs the monolithic engine. Sharding never changes
        /// results — only memory shape — so records stay bit-identical.
        shards: Option<u64>,
        /// Resident-arena cap of the sharded executor (`0`/omitted = all
        /// resident); only meaningful with `shards`.
        max_resident: Option<u64>,
        /// Bit-pack message arenas via protocol hints; only meaningful
        /// with `shards`.
        packing: Option<bool>,
    },
    /// Snapshot the service counters and cache statistics.
    Stats {
        /// Client-chosen correlation id.
        id: u64,
    },
    /// Drain the queue (queued jobs get `shutting-down` errors) and stop.
    Shutdown {
        /// Client-chosen correlation id.
        id: u64,
    },
}

impl Request {
    /// The `op` tag this request serializes under.
    #[must_use]
    pub fn op(&self) -> &'static str {
        match self {
            Request::Classify { .. } => "classify",
            Request::Solve { .. } => "solve",
            Request::Stats { .. } => "stats",
            Request::Shutdown { .. } => "shutdown",
        }
    }

    /// The correlation id.
    #[must_use]
    pub fn id(&self) -> u64 {
        match *self {
            Request::Classify { id, .. }
            | Request::Solve { id, .. }
            | Request::Stats { id }
            | Request::Shutdown { id } => id,
        }
    }

    /// Renders the request as one JSON line (no trailing newline).
    #[must_use]
    pub fn to_line(&self) -> String {
        let mut line = String::new();
        self.write_json(&mut line);
        line
    }

    /// Parses one line. Unknown fields are ignored; `n`, `seed` and
    /// `detail` default when omitted.
    ///
    /// # Errors
    ///
    /// [`WireError`] for malformed JSON, missing/unknown `op`, or an
    /// uninterpretable `problem`.
    pub fn from_line(line: &str) -> Result<Request, WireError> {
        let value = serde_json::from_str(line).map_err(|e| WireError {
            id: None,
            message: format!("malformed JSON: {e}"),
        })?;
        let id = value.get("id").and_then(Value::as_u64);
        let wire = |message: String| WireError { id, message };
        let op = get_str(&value, "op").map_err(wire)?;
        let id = get_u64(&value, "id").map_err(|m| WireError {
            id: None,
            message: m,
        })?;
        let wire = |message: String| WireError {
            id: Some(id),
            message,
        };
        match op.as_str() {
            "classify" => Ok(Request::Classify {
                id,
                problem: parse_problem(&value).map_err(wire)?,
            }),
            "solve" => Ok(Request::Solve {
                id,
                problem: parse_problem(&value).map_err(wire)?,
                n: opt_u64(&value, "n")
                    .map_err(wire)?
                    .map_or(DEFAULT_N, |v| v as usize),
                seed: opt_u64(&value, "seed")
                    .map_err(wire)?
                    .unwrap_or(DEFAULT_SEED),
                detail: opt_bool(&value, "detail").map_err(wire)?.unwrap_or(false),
                shards: opt_u64(&value, "shards").map_err(wire)?,
                max_resident: opt_u64(&value, "max_resident").map_err(wire)?,
                packing: opt_bool(&value, "packing").map_err(wire)?,
            }),
            "stats" => Ok(Request::Stats { id }),
            "shutdown" => Ok(Request::Shutdown { id }),
            other => Err(wire(format!("unknown op `{other}`"))),
        }
    }
}

impl Serialize for Request {
    fn write_json(&self, out: &mut String) {
        let obj = ObjectWriter::new(out)
            .field("op", self.op())
            .field("id", &self.id());
        match self {
            Request::Classify { problem, .. } => obj.field("problem", problem),
            Request::Solve {
                problem,
                n,
                seed,
                detail,
                shards,
                max_resident,
                packing,
                ..
            } => {
                let mut obj = obj
                    .field("problem", problem)
                    .field("n", n)
                    .field("seed", seed)
                    .field("detail", detail);
                // The shard knobs are optional on the wire: absent means
                // "monolithic", matching the tolerant parse above.
                if let Some(s) = shards {
                    obj = obj.field("shards", s);
                }
                if let Some(r) = max_resident {
                    obj = obj.field("max_resident", r);
                }
                if let Some(p) = packing {
                    obj = obj.field("packing", p);
                }
                obj
            }
            Request::Stats { .. } | Request::Shutdown { .. } => obj,
        }
        .end();
    }
}

/// Typed failure kinds carried by `error` responses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorKind {
    /// The line was not a well-formed request.
    BadRequest,
    /// The spec failed validation.
    BadProblem,
    /// The decidability machinery proved the problem unsolvable.
    Unsolvable,
    /// No decision procedure settles the problem's class.
    Undecidable,
    /// Classified, but no registered algorithm bids.
    NoSolver,
    /// The request exceeds a configured limit (line bytes, instance size).
    TooLarge,
    /// Planning succeeded but the run failed in the harness.
    RunFailed,
    /// The service is shutting down; the job was not run.
    ShuttingDown,
}

impl ErrorKind {
    /// The stable kebab-case tag (one of [`ERROR_KINDS`]).
    #[must_use]
    pub fn tag(&self) -> &'static str {
        match self {
            ErrorKind::BadRequest => "bad-request",
            ErrorKind::BadProblem => "bad-problem",
            ErrorKind::Unsolvable => "unsolvable",
            ErrorKind::Undecidable => "undecidable",
            ErrorKind::NoSolver => "no-solver",
            ErrorKind::TooLarge => "too-large",
            ErrorKind::RunFailed => "run-failed",
            ErrorKind::ShuttingDown => "shutting-down",
        }
    }

    /// Parses a tag back into the kind.
    #[must_use]
    pub fn from_tag(tag: &str) -> Option<ErrorKind> {
        match tag {
            "bad-request" => Some(ErrorKind::BadRequest),
            "bad-problem" => Some(ErrorKind::BadProblem),
            "unsolvable" => Some(ErrorKind::Unsolvable),
            "undecidable" => Some(ErrorKind::Undecidable),
            "no-solver" => Some(ErrorKind::NoSolver),
            "too-large" => Some(ErrorKind::TooLarge),
            "run-failed" => Some(ErrorKind::RunFailed),
            "shutting-down" => Some(ErrorKind::ShuttingDown),
            _ => None,
        }
    }
}

impl From<&PlanError> for ErrorKind {
    fn from(e: &PlanError) -> Self {
        match e {
            PlanError::BadProblem(_) => ErrorKind::BadProblem,
            PlanError::Unsolvable(_) => ErrorKind::Unsolvable,
            PlanError::Undecidable(_) => ErrorKind::Undecidable,
            PlanError::NoSolver(_) => ErrorKind::NoSolver,
            PlanError::Harness(_) => ErrorKind::RunFailed,
        }
    }
}

/// The solve payload: a [`RunRecord`](lcl_harness::RunRecord) summary
/// with checksums, plus the full vectors when `detail` was requested.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct WireRecord {
    /// Solver name.
    pub algorithm: String,
    /// Instance spec rendering.
    pub spec: String,
    /// Problem rendering ([`ProblemSpec::describe`]).
    pub problem: String,
    /// Requested instance size.
    pub n: u64,
    /// Run seed.
    pub seed: u64,
    /// Node-averaged round complexity.
    pub node_averaged: f64,
    /// Worst-case round complexity.
    pub worst_case: u64,
    /// Median round.
    pub median_round: u64,
    /// Waiting-time averaged complexity.
    pub waiting_averaged: f64,
    /// Whether the output verified.
    pub verified: bool,
    /// Engine description.
    pub engine: String,
    /// Wall-clock of the run in milliseconds.
    pub elapsed_ms: f64,
    /// Peak resident arena footprint in bytes — deterministic per
    /// `(problem, n, seed, engine config)`, unlike `elapsed_ms`.
    pub peak_arena_bytes: u64,
    /// Whether classification came from the plan cache.
    pub plan_cached: bool,
    /// FNV-1a checksum of the label vector.
    pub labels_fnv: u64,
    /// FNV-1a checksum of the round vector.
    pub rounds_fnv: u64,
    /// Full label vector (`detail:true` only).
    pub labels: Option<Vec<u64>>,
    /// Full round vector (`detail:true` only).
    pub rounds: Option<Vec<u64>>,
}

/// Service counters and cache statistics (`stats` response payload).
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ServiceStats {
    /// Worker threads in the pool.
    pub workers: u64,
    /// Bounded queue capacity.
    pub queue_capacity: u64,
    /// Jobs queued at snapshot time.
    pub queue_depth: u64,
    /// Jobs completed with a `plan`/`record` response.
    pub jobs_ok: u64,
    /// Jobs answered with a typed error.
    pub jobs_failed: u64,
    /// Admissions refused with `overloaded`.
    pub overloaded: u64,
    /// Plan (classification) cache counters.
    pub plan_cache: CacheStats,
    /// Built-instance cache counters.
    pub instance_cache: CacheStats,
    /// Peeling cache counters.
    pub peeling_cache: CacheStats,
}

/// A server response.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Classification outcome (for `classify` requests).
    Plan {
        /// Echoed request id.
        id: u64,
        /// Problem rendering.
        problem: String,
        /// Predicted complexity class.
        class: String,
        /// Classification provenance.
        source: String,
        /// Resolved solver name (`-` when resolution was not attempted).
        solver: String,
        /// Winning bid score.
        score: u64,
        /// Whether classification came from the plan cache.
        cached: bool,
    },
    /// Solve outcome.
    Record {
        /// Echoed request id.
        id: u64,
        /// The run payload.
        record: WireRecord,
    },
    /// Counter snapshot.
    Stats {
        /// Echoed request id.
        id: u64,
        /// The counters.
        stats: ServiceStats,
    },
    /// Shutdown acknowledged.
    Done {
        /// Echoed request id.
        id: u64,
    },
    /// A typed failure.
    Error {
        /// Echoed request id, when one could be attributed.
        id: Option<u64>,
        /// The failure kind.
        kind: ErrorKind,
        /// Human-readable detail.
        message: String,
    },
    /// The bounded queue was full; the job was not admitted.
    Overloaded {
        /// Echoed request id, when one could be attributed.
        id: Option<u64>,
        /// The queue capacity that was exhausted.
        queue_capacity: u64,
    },
}

impl Response {
    /// The `kind` tag this response serializes under.
    #[must_use]
    pub fn kind(&self) -> &'static str {
        match self {
            Response::Plan { .. } => "plan",
            Response::Record { .. } => "record",
            Response::Stats { .. } => "stats",
            Response::Done { .. } => "done",
            Response::Error { .. } => "error",
            Response::Overloaded { .. } => "overloaded",
        }
    }

    /// The echoed request id, when the response carries one.
    #[must_use]
    pub fn id(&self) -> Option<u64> {
        match *self {
            Response::Plan { id, .. }
            | Response::Record { id, .. }
            | Response::Stats { id, .. }
            | Response::Done { id } => Some(id),
            Response::Error { id, .. } | Response::Overloaded { id, .. } => id,
        }
    }

    /// Renders the response as one JSON line (no trailing newline).
    #[must_use]
    pub fn to_line(&self) -> String {
        let mut line = String::new();
        self.write_json(&mut line);
        line
    }

    /// Parses one line (the client half of the protocol).
    ///
    /// # Errors
    ///
    /// [`WireError`] for malformed JSON or missing/unknown `kind`.
    pub fn from_line(line: &str) -> Result<Response, WireError> {
        let value = serde_json::from_str(line).map_err(|e| WireError {
            id: None,
            message: format!("malformed JSON: {e}"),
        })?;
        let id = value.get("id").and_then(Value::as_u64);
        let wire = |message: String| WireError { id, message };
        let kind = get_str(&value, "kind").map_err(wire)?;
        let need_id = || get_u64(&value, "id").map_err(|m| WireError { id, message: m });
        match kind.as_str() {
            "plan" => Ok(Response::Plan {
                id: need_id()?,
                problem: get_str(&value, "problem").map_err(wire)?,
                class: get_str(&value, "class").map_err(wire)?,
                source: get_str(&value, "source").map_err(wire)?,
                solver: get_str(&value, "solver").map_err(wire)?,
                score: get_u64(&value, "score").map_err(wire)?,
                cached: opt_bool(&value, "cached").map_err(wire)?.unwrap_or(false),
            }),
            "record" => Ok(Response::Record {
                id: need_id()?,
                record: parse_record(
                    value
                        .get("record")
                        .ok_or_else(|| wire("missing `record`".into()))?,
                )
                .map_err(wire)?,
            }),
            "stats" => Ok(Response::Stats {
                id: need_id()?,
                stats: parse_stats(
                    value
                        .get("stats")
                        .ok_or_else(|| wire("missing `stats`".into()))?,
                )
                .map_err(wire)?,
            }),
            "done" => Ok(Response::Done { id: need_id()? }),
            "error" => Ok(Response::Error {
                id,
                kind: {
                    let tag = get_str(&value, "error").map_err(wire)?;
                    ErrorKind::from_tag(&tag)
                        .ok_or_else(|| wire(format!("unknown error kind `{tag}`")))?
                },
                message: get_str(&value, "message").map_err(wire)?,
            }),
            "overloaded" => Ok(Response::Overloaded {
                id,
                queue_capacity: get_u64(&value, "queue_capacity").map_err(wire)?,
            }),
            other => Err(WireError {
                id,
                message: format!("unknown kind `{other}`"),
            }),
        }
    }
}

impl Serialize for Response {
    fn write_json(&self, out: &mut String) {
        // Every kind carries `id`; `error` and `overloaded` write `null`
        // when none could be attributed.
        let obj = ObjectWriter::new(out)
            .field("kind", self.kind())
            .field("id", &self.id());
        match self {
            Response::Plan {
                problem,
                class,
                source,
                solver,
                score,
                cached,
                ..
            } => obj
                .field("problem", problem)
                .field("class", class)
                .field("source", source)
                .field("solver", solver)
                .field("score", score)
                .field("cached", cached),
            Response::Record { record, .. } => obj.field("record", record),
            Response::Stats { stats, .. } => obj.field("stats", stats),
            Response::Done { .. } => obj,
            Response::Error { kind, message, .. } => {
                obj.field("error", kind.tag()).field("message", message)
            }
            Response::Overloaded { queue_capacity, .. } => {
                obj.field("queue_capacity", queue_capacity)
            }
        }
        .end();
    }
}

/// FNV-1a over a `u64` slice (little-endian bytes): the checksum solve
/// records carry so clients can assert bit-identity cheaply, and the
/// label fingerprint of every `lcl churn` line.
#[must_use]
pub fn fnv1a_u64s(values: &[u64]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for v in values {
        for byte in v.to_le_bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    hash
}

fn parse_problem(value: &Value) -> Result<ProblemSpec, String> {
    match value.get("problem") {
        Some(Value::Str(name)) => {
            ProblemSpec::preset(name).ok_or_else(|| format!("unknown preset `{name}`"))
        }
        Some(obj @ Value::Object(_)) => ProblemSpec::from_value(obj),
        Some(_) => Err("`problem` must be a preset name or a spec object".into()),
        None => Err("missing `problem`".into()),
    }
}

fn parse_record(value: &Value) -> Result<WireRecord, String> {
    Ok(WireRecord {
        algorithm: get_str(value, "algorithm")?,
        spec: get_str(value, "spec")?,
        problem: get_str(value, "problem")?,
        n: get_u64(value, "n")?,
        seed: get_u64(value, "seed")?,
        node_averaged: get_f64(value, "node_averaged")?,
        worst_case: get_u64(value, "worst_case")?,
        median_round: get_u64(value, "median_round")?,
        waiting_averaged: get_f64(value, "waiting_averaged")?,
        verified: get_bool(value, "verified")?,
        engine: get_str(value, "engine")?,
        elapsed_ms: get_f64(value, "elapsed_ms")?,
        peak_arena_bytes: get_u64(value, "peak_arena_bytes")?,
        plan_cached: get_bool(value, "plan_cached")?,
        labels_fnv: get_u64(value, "labels_fnv")?,
        rounds_fnv: get_u64(value, "rounds_fnv")?,
        labels: opt_u64_array(value, "labels")?,
        rounds: opt_u64_array(value, "rounds")?,
    })
}

fn parse_stats(value: &Value) -> Result<ServiceStats, String> {
    Ok(ServiceStats {
        workers: get_u64(value, "workers")?,
        queue_capacity: get_u64(value, "queue_capacity")?,
        queue_depth: get_u64(value, "queue_depth")?,
        jobs_ok: get_u64(value, "jobs_ok")?,
        jobs_failed: get_u64(value, "jobs_failed")?,
        overloaded: get_u64(value, "overloaded")?,
        plan_cache: parse_cache(value.get("plan_cache").ok_or("missing `plan_cache`")?)?,
        instance_cache: parse_cache(
            value
                .get("instance_cache")
                .ok_or("missing `instance_cache`")?,
        )?,
        peeling_cache: parse_cache(
            value
                .get("peeling_cache")
                .ok_or("missing `peeling_cache`")?,
        )?,
    })
}

fn parse_cache(value: &Value) -> Result<CacheStats, String> {
    Ok(CacheStats {
        hits: get_u64(value, "hits")?,
        misses: get_u64(value, "misses")?,
        entries: get_u64(value, "entries")? as usize,
        capacity: get_u64(value, "capacity")? as usize,
    })
}

fn get_u64(value: &Value, name: &str) -> Result<u64, String> {
    opt_u64(value, name)?.ok_or_else(|| format!("missing `{name}`"))
}

fn opt_u64(value: &Value, name: &str) -> Result<Option<u64>, String> {
    match value.get(name) {
        None | Some(Value::Null) => Ok(None),
        Some(v) => v
            .as_u64()
            .map(Some)
            .ok_or_else(|| format!("`{name}` must be a non-negative integer")),
    }
}

fn get_f64(value: &Value, name: &str) -> Result<f64, String> {
    value
        .get(name)
        .ok_or_else(|| format!("missing `{name}`"))?
        .as_f64()
        .ok_or_else(|| format!("`{name}` must be a number"))
}

fn get_bool(value: &Value, name: &str) -> Result<bool, String> {
    opt_bool(value, name)?.ok_or_else(|| format!("missing `{name}`"))
}

fn opt_bool(value: &Value, name: &str) -> Result<Option<bool>, String> {
    match value.get(name) {
        None | Some(Value::Null) => Ok(None),
        Some(v) => v
            .as_bool()
            .map(Some)
            .ok_or_else(|| format!("`{name}` must be a boolean")),
    }
}

fn get_str(value: &Value, name: &str) -> Result<String, String> {
    value
        .get(name)
        .ok_or_else(|| format!("missing `{name}`"))?
        .as_str()
        .map(str::to_string)
        .ok_or_else(|| format!("`{name}` must be a string"))
}

fn opt_u64_array(value: &Value, name: &str) -> Result<Option<Vec<u64>>, String> {
    match value.get(name) {
        None | Some(Value::Null) => Ok(None),
        Some(Value::Array(items)) => items
            .iter()
            .map(|v| {
                v.as_u64()
                    .ok_or_else(|| format!("`{name}` must hold non-negative integers"))
            })
            .collect::<Result<Vec<u64>, String>>()
            .map(Some),
        Some(_) => Err(format!("`{name}` must be an array")),
    }
}

/// One representative value per request/response variant, named for
/// schema flattening (`req.<op>` / `resp.<kind>`). Samples populate every
/// optional field so the golden schema shows the full shape.
#[must_use]
pub fn schema_samples() -> Vec<(String, Value)> {
    let problem = ProblemSpec::Coloring { colors: 3 };
    let record = WireRecord {
        algorithm: "linial".into(),
        spec: "path(800)".into(),
        problem: problem.describe(),
        n: 800,
        seed: 7,
        node_averaged: 2.5,
        worst_case: 9,
        median_round: 2,
        waiting_averaged: 2.5,
        verified: true,
        engine: "chunked".into(),
        elapsed_ms: 1.5,
        peak_arena_bytes: 16_384,
        plan_cached: true,
        labels_fnv: fnv1a_u64s(&[1, 2]),
        rounds_fnv: fnv1a_u64s(&[3, 4]),
        labels: Some(vec![1, 2]),
        rounds: Some(vec![3, 4]),
    };
    let cache = CacheStats {
        hits: 1,
        misses: 1,
        entries: 1,
        capacity: 8,
    };
    let stats = ServiceStats {
        workers: 4,
        queue_capacity: 64,
        queue_depth: 0,
        jobs_ok: 1,
        jobs_failed: 0,
        overloaded: 0,
        plan_cache: cache,
        instance_cache: cache,
        peeling_cache: cache,
    };
    let samples: Vec<(&str, Value)> = vec![
        (
            "req.classify",
            Request::Classify {
                id: 1,
                problem: problem.clone(),
            }
            .to_value(),
        ),
        (
            "req.solve",
            Request::Solve {
                id: 2,
                problem: problem.clone(),
                n: 800,
                seed: 7,
                detail: true,
                shards: Some(4),
                max_resident: Some(2),
                packing: Some(true),
            }
            .to_value(),
        ),
        ("req.stats", Request::Stats { id: 3 }.to_value()),
        ("req.shutdown", Request::Shutdown { id: 4 }.to_value()),
        (
            "resp.plan",
            Response::Plan {
                id: 1,
                problem: problem.describe(),
                class: "Θ(log* n)".into(),
                source: "path-automaton".into(),
                solver: "linial".into(),
                score: 80,
                cached: true,
            }
            .to_value(),
        ),
        ("resp.record", Response::Record { id: 2, record }.to_value()),
        ("resp.stats", Response::Stats { id: 3, stats }.to_value()),
        ("resp.done", Response::Done { id: 4 }.to_value()),
        (
            "resp.error",
            Response::Error {
                id: Some(5),
                kind: ErrorKind::BadRequest,
                message: "malformed JSON".into(),
            }
            .to_value(),
        ),
        (
            "resp.overloaded",
            Response::Overloaded {
                id: Some(6),
                queue_capacity: 64,
            }
            .to_value(),
        ),
    ];
    samples
        .into_iter()
        .map(|(n, v)| (n.to_string(), v))
        .collect()
}

/// Flattens every [`schema_samples`] value into sorted `path: type`
/// lines with [`flatten_schema`]; CI diffs them against
/// `crates/bench/golden/service_schema.txt`.
#[must_use]
pub fn schema_lines() -> Vec<String> {
    let mut lines: Vec<String> = schema_samples()
        .iter()
        .flat_map(|(name, value)| flatten_schema(name, value))
        .collect();
    lines.sort();
    lines
}

/// Flattens a JSON value into sorted `path: type` lines — the *schema* of
/// an emitted record or wire message, rooted at `name$`. Array elements
/// collapse into one `[]` segment, so the lines are stable across sizes;
/// CI diffs them against checked-in golden files (the wire schema here,
/// the sweep and churn reports in `lcl`).
#[must_use]
pub fn flatten_schema(name: &str, value: &Value) -> Vec<String> {
    fn walk(v: &Value, path: &str, out: &mut std::collections::BTreeSet<String>) {
        let kind = match v {
            Value::Null => "null",
            Value::Bool(_) => "bool",
            Value::Int(_) | Value::UInt(_) => "int",
            Value::Float(_) => "number",
            Value::Str(_) => "string",
            Value::Array(_) => "array",
            Value::Object(_) => "object",
        };
        out.insert(format!("{path}: {kind}"));
        match v {
            Value::Array(items) => {
                for item in items {
                    walk(item, &format!("{path}[]"), out);
                }
            }
            Value::Object(fields) => {
                for (key, val) in fields {
                    walk(val, &format!("{path}.{key}"), out);
                }
            }
            _ => {}
        }
    }
    let mut out = std::collections::BTreeSet::new();
    walk(value, &format!("{name}$"), &mut out);
    out.into_iter().collect()
}
