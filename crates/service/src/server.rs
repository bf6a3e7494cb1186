//! The `lcld` server: a worker pool behind a bounded queue, speaking the
//! JSON-lines protocol over in-process connections, stdio, or a
//! Unix-domain socket.
//!
//! Request lifecycle: a connection receives one line, parses it
//! ([`Request::from_line`]), and either answers inline (`stats`,
//! `shutdown`, every parse/limit failure) or admits the job to the
//! bounded queue. A full queue is answered immediately with a typed
//! `overloaded` response — admission never blocks and never buffers
//! beyond the configured capacity. Workers pop jobs, plan through the
//! process-wide plan cache ([`lcl_harness::plan_cached`]), build through
//! the shared instance cache ([`lcl_harness::InstanceSpec::build_shared`]),
//! run, and stream the response back on the connection that admitted the
//! job.
//!
//! Failure discipline (held by the fault-injection suite): every failure
//! is a typed [`Response`] or a clean connection close — never a panic,
//! never a hang. A vanished client unblocks its workers (the response
//! channel disconnects), and per-connection response buffering is
//! bounded, so one stalled connection cannot grow memory without bound.

use crate::protocol::{fnv1a_u64s, ErrorKind, Request, Response, ServiceStats, WireRecord};
use lcl_harness::ShardConfig;
use lcl_harness::{
    instance_cache_stats, levels_cache_stats, plan_cache_stats, plan_cached, resolver, run_timed,
    Plan, RunConfig, RunRecord,
};
use std::collections::VecDeque;
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::{UnixListener, UnixStream};
use std::panic::{self, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, RecvTimeoutError, SyncSender};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::Duration;

/// Tuning knobs of one [`Service`].
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Worker threads; `0` means the machine's available parallelism.
    pub workers: usize,
    /// Bounded job-queue capacity; admissions beyond it get `overloaded`.
    pub queue_capacity: usize,
    /// Largest request line accepted over a socket, in bytes.
    pub max_line_bytes: usize,
    /// Largest `n` a solve may request.
    pub max_n: usize,
    /// Artificial per-job delay in milliseconds. Zero in production; the
    /// fault-injection suite uses it to saturate a tiny queue
    /// deterministically.
    pub throttle_ms: u64,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            workers: 0,
            queue_capacity: 64,
            max_line_bytes: 1 << 20,
            max_n: 2_000_000,
            throttle_ms: 0,
        }
    }
}

/// One admitted job: the parsed request plus the response channel of the
/// connection that sent it.
struct Job {
    request: Request,
    reply: SyncSender<String>,
}

/// State shared by connections and workers.
struct Shared {
    cfg: ServiceConfig,
    worker_count: usize,
    queue: Mutex<VecDeque<Job>>,
    available: Condvar,
    shutdown: AtomicBool,
    jobs_ok: AtomicU64,
    jobs_failed: AtomicU64,
    overloaded: AtomicU64,
}

impl Shared {
    fn lock_queue(&self) -> std::sync::MutexGuard<'_, VecDeque<Job>> {
        self.queue.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn stats(&self) -> ServiceStats {
        ServiceStats {
            workers: self.worker_count as u64,
            queue_capacity: self.cfg.queue_capacity as u64,
            queue_depth: self.lock_queue().len() as u64,
            jobs_ok: self.jobs_ok.load(Ordering::Relaxed),
            jobs_failed: self.jobs_failed.load(Ordering::Relaxed),
            overloaded: self.overloaded.load(Ordering::Relaxed),
            plan_cache: plan_cache_stats(),
            instance_cache: instance_cache_stats(),
            peeling_cache: levels_cache_stats(),
        }
    }

    /// Flags shutdown and fails every queued job with a typed error.
    fn drain_for_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        let drained: Vec<Job> = self.lock_queue().drain(..).collect();
        self.available.notify_all();
        for job in drained {
            self.jobs_failed.fetch_add(1, Ordering::Relaxed);
            let response = Response::Error {
                id: Some(job.request.id()),
                kind: ErrorKind::ShuttingDown,
                message: "service is shutting down; job was not run".into(),
            };
            let _ = job.reply.send(response.to_line());
        }
    }
}

/// A running `lcld` service: worker pool, bounded queue, counters.
///
/// Dropping the service shuts it down and joins the workers.
pub struct Service {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
}

impl Service {
    /// Starts the worker pool.
    #[must_use]
    pub fn start(cfg: ServiceConfig) -> Service {
        let worker_count = if cfg.workers == 0 {
            std::thread::available_parallelism().map_or(4, std::num::NonZeroUsize::get)
        } else {
            cfg.workers
        };
        let shared = Arc::new(Shared {
            cfg,
            worker_count,
            queue: Mutex::new(VecDeque::new()),
            available: Condvar::new(),
            shutdown: AtomicBool::new(false),
            jobs_ok: AtomicU64::new(0),
            jobs_failed: AtomicU64::new(0),
            overloaded: AtomicU64::new(0),
        });
        let workers = (0..worker_count)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("lcld-worker-{i}"))
                    .spawn(move || worker_loop(&shared))
            })
            .filter_map(Result::ok)
            .collect();
        Service { shared, workers }
    }

    /// Opens an in-process connection (the stdio and socket transports
    /// are thin line-pumps around one of these).
    #[must_use]
    pub fn connect(&self) -> Connection {
        // Bounded response buffer: admission already caps queued work, and
        // a reading client drains far faster than workers solve, so this
        // bound is only ever felt by a stalled client — whose workers then
        // block on *its* channel, not on unbounded memory growth, and are
        // released the moment the client vanishes (channel disconnect).
        let buffer = self.shared.cfg.queue_capacity.saturating_mul(4).max(64);
        let (tx, rx) = sync_channel(buffer);
        Connection {
            tx: ConnectionTx {
                shared: Arc::clone(&self.shared),
                tx,
            },
            rx,
        }
    }

    /// Counter snapshot.
    #[must_use]
    pub fn stats(&self) -> ServiceStats {
        self.shared.stats()
    }

    /// Resolved worker-pool size.
    #[must_use]
    pub fn worker_count(&self) -> usize {
        self.shared.worker_count
    }

    /// Initiates shutdown: queued jobs are failed with `shutting-down`,
    /// in-flight jobs finish, workers exit.
    pub fn shutdown(&self) {
        self.shared.drain_for_shutdown();
    }

    /// True once shutdown was initiated.
    #[must_use]
    pub fn is_shutting_down(&self) -> bool {
        self.shared.shutdown.load(Ordering::SeqCst)
    }
}

impl Drop for Service {
    fn drop(&mut self) {
        self.shutdown();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

/// The sending half of a connection: parses lines, answers inline or
/// admits jobs. Clonable into transport threads.
#[derive(Clone)]
pub struct ConnectionTx {
    shared: Arc<Shared>,
    tx: SyncSender<String>,
}

/// An in-process client connection: send request lines, receive response
/// lines. Dropping it disconnects the response channel, which unblocks
/// any worker still streaming to it.
pub struct Connection {
    tx: ConnectionTx,
    rx: Receiver<String>,
}

impl Connection {
    /// Splits into the sending half and the raw response receiver (the
    /// socket transport runs them on separate threads).
    #[must_use]
    pub fn split(self) -> (ConnectionTx, Receiver<String>) {
        (self.tx, self.rx)
    }

    /// Feeds one request line to the service. Every outcome — including
    /// parse failures and queue overload — arrives as a response line.
    pub fn send_line(&self, line: &str) {
        self.tx.send_line(line);
    }

    /// Serializes and sends a typed request.
    pub fn request(&self, request: &Request) {
        self.tx.send_line(&request.to_line());
    }

    /// Receives the next response line, waiting up to `timeout`.
    pub fn recv_timeout(&self, timeout: Duration) -> Result<String, RecvTimeoutError> {
        self.rx.recv_timeout(timeout)
    }
}

impl ConnectionTx {
    /// Sends a response line to this connection's client, blocking on the
    /// bounded buffer; a vanished client (dropped receiver) is ignored.
    fn respond(&self, response: &Response) {
        let _ = self.tx.send(response.to_line());
    }

    /// Feeds one request line to the service (see [`Connection::send_line`]).
    pub fn send_line(&self, line: &str) {
        let request = match Request::from_line(line) {
            Ok(request) => request,
            Err(e) => {
                self.respond(&Response::Error {
                    id: e.id,
                    kind: ErrorKind::BadRequest,
                    message: e.message,
                });
                return;
            }
        };
        if self.shared.shutdown.load(Ordering::SeqCst) {
            self.respond(&Response::Error {
                id: Some(request.id()),
                kind: ErrorKind::ShuttingDown,
                message: "service is shutting down".into(),
            });
            return;
        }
        match request {
            Request::Stats { id } => {
                self.respond(&Response::Stats {
                    id,
                    stats: self.shared.stats(),
                });
            }
            Request::Shutdown { id } => {
                self.shared.drain_for_shutdown();
                self.respond(&Response::Done { id });
            }
            Request::Solve { id, n, .. } if n > self.shared.cfg.max_n => {
                self.shared.jobs_failed.fetch_add(1, Ordering::Relaxed);
                self.respond(&Response::Error {
                    id: Some(id),
                    kind: ErrorKind::TooLarge,
                    message: format!("n={n} exceeds max_n={}", self.shared.cfg.max_n),
                });
            }
            request @ (Request::Classify { .. } | Request::Solve { .. }) => {
                let id = request.id();
                let mut queue = self.shared.lock_queue();
                if queue.len() >= self.shared.cfg.queue_capacity {
                    drop(queue);
                    self.shared.overloaded.fetch_add(1, Ordering::Relaxed);
                    self.respond(&Response::Overloaded {
                        id: Some(id),
                        queue_capacity: self.shared.cfg.queue_capacity as u64,
                    });
                } else {
                    queue.push_back(Job {
                        request,
                        reply: self.tx.clone(),
                    });
                    drop(queue);
                    self.shared.available.notify_one();
                }
            }
        }
    }

    /// Answers `too-large` for a line the transport refused to buffer.
    pub fn reject_oversized(&self, max_line_bytes: usize) {
        self.respond(&Response::Error {
            id: None,
            kind: ErrorKind::TooLarge,
            message: format!("request line exceeds {max_line_bytes} bytes"),
        });
    }
}

fn worker_loop(shared: &Shared) {
    loop {
        let job = {
            let mut queue = shared.lock_queue();
            loop {
                if let Some(job) = queue.pop_front() {
                    break job;
                }
                if shared.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                queue = shared
                    .available
                    .wait(queue)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        };
        if shared.cfg.throttle_ms > 0 {
            std::thread::sleep(Duration::from_millis(shared.cfg.throttle_ms));
        }
        let response = answer(&job.request, process);
        let failed = matches!(response, Response::Error { .. });
        if failed {
            shared.jobs_failed.fetch_add(1, Ordering::Relaxed);
        } else {
            shared.jobs_ok.fetch_add(1, Ordering::Relaxed);
        }
        let _ = job.reply.send(response.to_line());
    }
}

/// Runs one admitted job through `run` and answers a panic with a typed
/// `run-failed` error carrying the request's id, so the worker outlives
/// the job. Engine worker panics are re-raised on the calling thread, so
/// they land here too.
fn answer(request: &Request, run: impl FnOnce(&Request) -> Response) -> Response {
    panic::catch_unwind(AssertUnwindSafe(|| run(request))).unwrap_or_else(|payload| {
        let message = payload
            .downcast_ref::<&str>()
            .copied()
            .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
            .unwrap_or("non-string payload");
        Response::Error {
            id: Some(request.id()),
            kind: ErrorKind::RunFailed,
            message: format!("job panicked: {message}"),
        }
    })
}

/// Runs one admitted job to a single typed response. Every error path is
/// a [`Response::Error`]; [`answer`] covers panics.
fn process(request: &Request) -> Response {
    match request {
        Request::Classify { id, problem } => {
            match lcl_harness::classify_cached(problem) {
                (Ok(classification), cached) => {
                    // Solver resolution is reported best-effort, exactly
                    // like `lcl solve --classify-only`: a classified
                    // problem without a bidding solver is still a `plan`.
                    let (solver, score) = match resolver().resolve(problem) {
                        Ok((algorithm, fit)) => {
                            (algorithm.name().to_string(), u64::from(fit.score))
                        }
                        Err(_) => ("-".to_string(), 0),
                    };
                    Response::Plan {
                        id: *id,
                        problem: problem.describe(),
                        class: classification.class.describe(),
                        source: classification.source.describe().to_string(),
                        solver,
                        score,
                        cached,
                    }
                }
                (Err(e), _) => Response::Error {
                    id: Some(*id),
                    kind: ErrorKind::from(&e),
                    message: e.to_string(),
                },
            }
        }
        Request::Solve {
            id,
            problem,
            n,
            seed,
            detail,
            shards,
            max_resident,
            packing,
        } => {
            let base = RunConfig::seeded(*seed);
            let (mut plan, plan_was_cached) = match plan_cached(problem, *n, &base) {
                Ok(planned) => planned,
                Err(e) => {
                    return Response::Error {
                        id: Some(*id),
                        kind: ErrorKind::from(&e),
                        message: e.to_string(),
                    }
                }
            };
            // The shard knobs are execution shape, not plan inputs: apply
            // them after planning so cached plans serve sharded and
            // monolithic solves alike (results are bit-identical either
            // way; only the memory footprint differs).
            plan.config.engine.shard = ShardConfig::from_flags(
                shards.unwrap_or(0) as usize,
                max_resident.unwrap_or(0) as usize,
                packing.unwrap_or(false),
            );
            let instance = match plan.spec.build_shared() {
                Ok(instance) => instance,
                Err(e) => {
                    return Response::Error {
                        id: Some(*id),
                        kind: ErrorKind::RunFailed,
                        message: e.to_string(),
                    }
                }
            };
            match run_timed(plan.solver, &instance, &plan.config) {
                Ok(record) => Response::Record {
                    id: *id,
                    record: wire_record(&plan, &record, plan_was_cached, *detail),
                },
                Err(e) => Response::Error {
                    id: Some(*id),
                    kind: ErrorKind::RunFailed,
                    message: e.to_string(),
                },
            }
        }
        // Stats and shutdown are answered inline at admission; they are
        // never queued as jobs.
        Request::Stats { id } | Request::Shutdown { id } => Response::Error {
            id: Some(*id),
            kind: ErrorKind::BadRequest,
            message: "control requests are not queueable jobs".into(),
        },
    }
}

fn wire_record(plan: &Plan, record: &RunRecord, plan_cached: bool, detail: bool) -> WireRecord {
    WireRecord {
        algorithm: record.algorithm.clone(),
        spec: record.spec.clone(),
        problem: plan.problem.describe(),
        n: record.n as u64,
        seed: record.seed,
        node_averaged: record.node_averaged,
        worst_case: record.worst_case,
        median_round: record.median_round,
        waiting_averaged: record.waiting_averaged,
        verified: record.verified,
        engine: record.engine.clone(),
        elapsed_ms: record.elapsed_ms,
        peak_arena_bytes: record.peak_arena_bytes,
        plan_cached,
        labels_fnv: fnv1a_u64s(&record.labels),
        rounds_fnv: fnv1a_u64s(&record.rounds),
        labels: detail.then(|| record.labels.clone()),
        rounds: detail.then(|| record.rounds.clone()),
    }
}

/// Outcome of reading one length-limited line from a transport.
enum LineRead {
    /// A complete line (newline stripped, no trailing `\r`).
    Data(Vec<u8>),
    /// The line exceeded the limit; its bytes were discarded.
    Oversized,
    /// End of stream.
    Eof,
}

/// Reads one newline-terminated line without ever buffering more than
/// `max` bytes: an oversized line is consumed and discarded, so a
/// hostile client cannot grow server memory, and the server can answer
/// with a typed `too-large` and keep serving. A final unterminated
/// fragment (half-written line, then disconnect) is surfaced as a line —
/// its parse failure becomes a typed error, harmless if the client is
/// already gone.
fn read_line_limited<R: BufRead>(reader: &mut R, max: usize) -> std::io::Result<LineRead> {
    let mut buf: Vec<u8> = Vec::new();
    let mut oversized = false;
    loop {
        let (consumed, complete) = {
            let available = reader.fill_buf()?;
            if available.is_empty() {
                if oversized {
                    return Ok(LineRead::Oversized);
                }
                if buf.is_empty() {
                    return Ok(LineRead::Eof);
                }
                return Ok(LineRead::Data(finish_line(buf)));
            }
            match available.iter().position(|&b| b == b'\n') {
                Some(pos) => {
                    if oversized || buf.len() + pos > max {
                        oversized = true;
                    } else {
                        buf.extend_from_slice(&available[..pos]);
                    }
                    (pos + 1, true)
                }
                None => {
                    if oversized || buf.len() + available.len() > max {
                        buf.clear();
                        oversized = true;
                    } else {
                        buf.extend_from_slice(available);
                    }
                    (available.len(), false)
                }
            }
        };
        reader.consume(consumed);
        if complete {
            if oversized {
                return Ok(LineRead::Oversized);
            }
            return Ok(LineRead::Data(std::mem::take(&mut buf)));
        }
    }
}

fn finish_line(mut buf: Vec<u8>) -> Vec<u8> {
    if buf.last() == Some(&b'\r') {
        buf.pop();
    }
    buf
}

/// A Unix-domain socket acceptor for a [`Service`]. Dropping it stops
/// accepting, joins the acceptor thread, and removes the socket file.
pub struct SocketServer {
    path: PathBuf,
    stop: Arc<AtomicBool>,
    acceptor: Option<JoinHandle<()>>,
}

impl SocketServer {
    /// The bound socket path.
    #[must_use]
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Blocks until the acceptor exits (i.e. after [`Service::shutdown`]
    /// plus one wake-up connection, or when this server is stopped from
    /// another thread). `lcl serve --socket` parks here.
    pub fn join(mut self) {
        if let Some(handle) = self.acceptor.take() {
            let _ = handle.join();
        }
        let _ = std::fs::remove_file(&self.path);
    }
}

impl Drop for SocketServer {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // Wake the blocking accept with a throwaway connection.
        let _ = UnixStream::connect(&self.path);
        if let Some(handle) = self.acceptor.take() {
            let _ = handle.join();
        }
        let _ = std::fs::remove_file(&self.path);
    }
}

/// Binds `path` and serves connections until stopped or shut down. Each
/// connection gets a reader (line pump into the service) and a writer
/// (response pump back to the socket); client disconnects at any point
/// are clean closes, never errors that reach the pool.
///
/// # Errors
///
/// Socket bind failures (bad path, permissions).
pub fn serve_unix(service: &Service, path: &Path) -> std::io::Result<SocketServer> {
    let _ = std::fs::remove_file(path);
    let listener = UnixListener::bind(path)?;
    let stop = Arc::new(AtomicBool::new(false));
    let accept_stop = Arc::clone(&stop);
    let shared = Arc::clone(&service.shared);
    let max_line = service.shared.cfg.max_line_bytes;
    let buffer = service.shared.cfg.queue_capacity.saturating_mul(4).max(64);
    let acceptor = std::thread::Builder::new()
        .name("lcld-accept".into())
        .spawn(move || {
            for incoming in listener.incoming() {
                if accept_stop.load(Ordering::SeqCst) || shared.shutdown.load(Ordering::SeqCst) {
                    break;
                }
                let Ok(stream) = incoming else { continue };
                let (tx, rx) = sync_channel(buffer);
                let conn = ConnectionTx {
                    shared: Arc::clone(&shared),
                    tx,
                };
                spawn_connection(stream, conn, rx, max_line);
            }
        })?;
    Ok(SocketServer {
        path: path.to_path_buf(),
        stop,
        acceptor: Some(acceptor),
    })
}

fn spawn_connection(stream: UnixStream, conn: ConnectionTx, rx: Receiver<String>, max_line: usize) {
    let Ok(write_half) = stream.try_clone() else {
        return;
    };
    let writer = std::thread::Builder::new()
        .name("lcld-conn-write".into())
        .spawn(move || {
            let mut out = std::io::BufWriter::new(write_half);
            // Ends when every ConnectionTx clone is dropped (reader done,
            // no in-flight jobs): rx disconnects and the loop exits.
            while let Ok(line) = rx.recv() {
                if out.write_all(line.as_bytes()).is_err()
                    || out.write_all(b"\n").is_err()
                    || out.flush().is_err()
                {
                    // Client stopped reading: dropping rx makes every
                    // pending worker send fail fast instead of blocking.
                    break;
                }
            }
        });
    let reader = std::thread::Builder::new()
        .name("lcld-conn-read".into())
        .spawn(move || {
            let mut input = BufReader::new(stream);
            loop {
                match read_line_limited(&mut input, max_line) {
                    Ok(LineRead::Data(bytes)) => {
                        // Garbage bytes are answered, not fatal: lossy
                        // decoding turns them into a parse failure and a
                        // typed bad-request response.
                        let line = String::from_utf8_lossy(&bytes);
                        if line.trim().is_empty() {
                            continue;
                        }
                        conn.send_line(&line);
                    }
                    Ok(LineRead::Oversized) => conn.reject_oversized(max_line),
                    Ok(LineRead::Eof) | Err(_) => break,
                }
            }
            // conn drops here; once workers finish, the writer drains and
            // exits.
        });
    drop(writer);
    drop(reader);
}

/// Serves the JSON-lines protocol over stdin/stdout until EOF (the
/// default `lcl serve` transport). Responses are interleaved in
/// completion order; ids correlate them.
pub fn serve_stdio(service: &Service) {
    let connection = service.connect();
    let (conn, rx) = connection.split();
    let writer = std::thread::Builder::new()
        .name("lcld-stdout".into())
        .spawn(move || {
            let stdout = std::io::stdout();
            while let Ok(line) = rx.recv() {
                let mut out = stdout.lock();
                if out.write_all(line.as_bytes()).is_err()
                    || out.write_all(b"\n").is_err()
                    || out.flush().is_err()
                {
                    break;
                }
            }
        });
    let stdin = std::io::stdin();
    let mut input = stdin.lock();
    let max_line = service.shared.cfg.max_line_bytes;
    loop {
        match read_line_limited(&mut input, max_line) {
            Ok(LineRead::Data(bytes)) => {
                let line = String::from_utf8_lossy(&bytes);
                if line.trim().is_empty() {
                    continue;
                }
                conn.send_line(&line);
                if conn.shared.shutdown.load(Ordering::SeqCst) {
                    break;
                }
            }
            Ok(LineRead::Oversized) => conn.reject_oversized(max_line),
            Ok(LineRead::Eof) | Err(_) => break,
        }
    }
    drop(conn);
    if let Ok(handle) = writer {
        let _ = handle.join();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn classify(id: u64) -> Request {
        Request::Classify {
            id,
            problem: lcl_core::problem_spec::ProblemSpec::preset("3-coloring").expect("preset"),
        }
    }

    #[test]
    fn a_panicking_job_is_answered_with_its_id() {
        for (reply, expected) in [
            (
                answer(&classify(42), |_| panic!("boom")),
                "job panicked: boom",
            ),
            (
                answer(&classify(42), |r| panic!("id {}", r.id())),
                "job panicked: id 42",
            ),
            (
                answer(&classify(42), |_| std::panic::panic_any(7u8)),
                "job panicked: non-string payload",
            ),
        ] {
            assert_eq!(
                reply,
                Response::Error {
                    id: Some(42),
                    kind: ErrorKind::RunFailed,
                    message: expected.to_string(),
                }
            );
            assert_eq!(Response::from_line(&reply.to_line()), Ok(reply));
        }
    }

    #[test]
    fn a_job_that_returns_is_answered_unchanged() {
        let done = answer(&classify(5), |r| Response::Done { id: r.id() });
        assert_eq!(done, Response::Done { id: 5 });
    }
}
