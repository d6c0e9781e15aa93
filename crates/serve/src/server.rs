//! The daemon: accept → admit → coalesce → execute → respond, and drain.
//!
//! ## Pipeline
//!
//! One acceptor thread owns the listener. Each accepted connection is
//! pushed into a bounded [`AdmissionQueue`]; when the queue is full the
//! acceptor *itself* answers `429 Too Many Requests` with a `Retry-After`
//! derived from the engine's observed p90 cell-execution latency — load
//! is shed at the door, before a worker is occupied. A fixed pool of
//! connection workers pops admitted sockets and runs the routes.
//!
//! ## Coalescing and deadlines
//!
//! `/v1/cell` requests join a [`CoalesceMap`] keyed by the cell's
//! content-address: the first request for a cold cell executes it (with
//! the request's own `timeout_ms` tightened into the engine's execution
//! guard), and every concurrent duplicate waits on that single flight
//! under its *own* deadline. A waiter that times out gets `504` while the
//! flight runs on — the result still lands in the cache for the retry.
//!
//! ## Drain
//!
//! `POST /v1/drain` (or [`ServerHandle::shutdown`]) flips the draining
//! flag, closes the admission queue — already-admitted requests finish,
//! new arrivals get `503` — and wakes the acceptor with a loopback
//! connection so no thread is ever left blocked in `accept()`. Shutdown
//! then joins the workers under a bounded timeout and reports how many
//! (if any) were stranded, waits until the disk cache's queued writes
//! have landed, and flushes the metrics expositions to disk when an
//! output directory is configured.

use std::fs::File;
use std::io::{self, BufWriter};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use olab_core::sweep::{cell_descriptor, cell_key};
use olab_core::{CellError, Sweep};
use olab_grid::AdmissionQueue;
use olab_grid::{CoalesceMap, Executor, GuardConfig, Join, RejectReason, WaitOutcome};
use olab_obs::{JsonlProgress, ObsEvent};

use crate::http::{read_request, write_response, Request};
use crate::metrics::serve_metrics;
use crate::render::render_cell_body;
use crate::request::parse_query;

/// How long a socket read may block before the worker gives up on the
/// client.
const READ_TIMEOUT: Duration = Duration::from_secs(10);

/// Default waiter deadline when a request carries no `timeout_ms`.
const DEFAULT_WAIT_MS: u64 = 60_000;

/// Everything `olab serve` can configure.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address (`127.0.0.1:0` picks a free port).
    pub addr: String,
    /// Engine worker threads (`0` = available parallelism).
    pub jobs: usize,
    /// Disk cache tier directory.
    pub cache_dir: Option<PathBuf>,
    /// Disk cache byte cap.
    pub cache_max_bytes: Option<u64>,
    /// The engine's own per-cell deadline, seconds.
    pub cell_timeout_s: Option<f64>,
    /// Admission queue depth; connections beyond it are shed with `429`.
    pub max_queue: usize,
    /// Connection-handling threads.
    pub http_workers: usize,
    /// How long [`ServerHandle::shutdown`] waits for workers, seconds.
    pub drain_timeout_s: f64,
    /// Directory for metrics expositions flushed at shutdown.
    pub metrics_out: Option<PathBuf>,
    /// Restrict the flushed expositions to deterministic families only.
    pub metrics_deterministic: bool,
    /// Request-lifecycle JSONL log path.
    pub log: Option<PathBuf>,
    /// Holds each coalescing leader's flight open for this long after the
    /// cell completes. Tests use it to widen the window duplicate requests
    /// must land in. Zero in production.
    pub coalesce_hold_ms: u64,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            jobs: 0,
            cache_dir: None,
            cache_max_bytes: None,
            cell_timeout_s: None,
            max_queue: 32,
            http_workers: 16,
            drain_timeout_s: 5.0,
            metrics_out: None,
            metrics_deterministic: false,
            log: None,
            coalesce_hold_ms: 0,
        }
    }
}

/// What a completed drain looked like.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DrainReport {
    /// Workers that failed to exit within the drain timeout. Zero on a
    /// clean shutdown.
    pub stranded_workers: usize,
}

/// An admitted connection, stamped when the acceptor admitted it so a
/// request's recorded latency includes its wait in the queue.
struct Admitted {
    stream: TcpStream,
    at: Instant,
}

struct Shared {
    cfg: ServeConfig,
    addr: SocketAddr,
    engine: Sweep,
    queue: AdmissionQueue<Admitted>,
    coalesce: CoalesceMap<(u16, String)>,
    draining: AtomicBool,
    workers_exited: Mutex<usize>,
    exit_cv: Condvar,
    log: Option<JsonlProgress<BufWriter<File>>>,
}

impl Shared {
    fn log_event(&self, event: &ObsEvent<'_>) {
        if let Some(log) = &self.log {
            log.write_event(event);
        }
    }

    /// Flips the draining flag, closes the queue, and wakes the acceptor
    /// with a loopback connection. Idempotent.
    fn begin_drain(&self) {
        self.draining.store(true, Ordering::SeqCst);
        self.queue.close();
        // The poison pill: accept() has no timeout, so hand it one last
        // connection to chew on; it observes `draining` and exits.
        let _ = TcpStream::connect(self.addr);
    }
}

/// A running daemon. Dropping the handle leaks the threads; call
/// [`ServerHandle::shutdown`] for a clean exit.
pub struct ServerHandle {
    shared: Arc<Shared>,
    acceptor: Option<thread::JoinHandle<()>>,
    workers: Vec<thread::JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound address (resolved port when `:0` was requested).
    pub fn addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// Whether a drain has started (via HTTP or programmatically).
    pub fn draining(&self) -> bool {
        self.shared.draining.load(Ordering::SeqCst)
    }

    /// Drains and stops the daemon: no new admissions, every admitted
    /// request finished, workers joined under the configured timeout,
    /// queued disk-cache writes landed, metrics expositions flushed.
    pub fn shutdown(mut self) -> DrainReport {
        self.shared.begin_drain();
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
        let total = self.workers.len();
        let deadline = Instant::now() + Duration::from_secs_f64(self.shared.cfg.drain_timeout_s);
        let mut exited = self
            .shared
            .workers_exited
            .lock()
            .expect("worker exit count poisoned");
        while *exited < total {
            let Some(remaining) = deadline.checked_duration_since(Instant::now()) else {
                break;
            };
            let (next, _) = self
                .shared
                .exit_cv
                .wait_timeout(exited, remaining)
                .expect("worker exit count poisoned");
            exited = next;
        }
        let stranded_workers = total - *exited;
        drop(exited);
        if stranded_workers == 0 {
            for worker in self.workers.drain(..) {
                let _ = worker.join();
            }
        }
        // A served miss answers before its disk write lands; the drain
        // waits for every write queued by the workers that exited.
        self.shared.engine.executor().cache().flush();
        // Flush expositions after the last worker that could still record
        // a sample has exited.
        if let Some(dir) = &self.shared.cfg.metrics_out {
            let result = if self.shared.cfg.metrics_deterministic {
                olab_metrics::write_files_deterministic(dir)
            } else {
                olab_metrics::write_files(dir)
            };
            if let Err(e) = result {
                eprintln!(
                    "[olab-serve] metrics flush to {} failed: {e}",
                    dir.display()
                );
            }
        }
        DrainReport { stranded_workers }
    }

    /// Blocks until something requests a drain (`POST /v1/drain` or a
    /// process signal translated by the embedder), then runs
    /// [`ServerHandle::shutdown`]. This is the CLI daemon's main loop.
    pub fn run_until_drained(self) -> DrainReport {
        while !self.draining() {
            thread::sleep(Duration::from_millis(100));
        }
        self.shutdown()
    }
}

/// Builds the engine, binds the listener, and spawns the pipeline.
///
/// # Errors
///
/// Binding the address, creating the cache directory, or opening the log
/// file can all fail.
pub fn start(cfg: ServeConfig) -> io::Result<ServerHandle> {
    let listener = TcpListener::bind(&cfg.addr)?;
    let addr = listener.local_addr()?;

    let mut engine = Executor::new();
    if cfg.jobs > 0 {
        engine = engine.with_jobs(cfg.jobs);
    }
    if let Some(dir) = &cfg.cache_dir {
        engine = engine.with_disk_cache(dir)?;
    }
    if let Some(cap) = cfg.cache_max_bytes {
        engine = engine.with_cache_cap(cap);
    }
    engine = engine.with_guard(GuardConfig {
        cell_timeout_s: cfg.cell_timeout_s,
    });
    let engine = Sweep::from(engine);

    let log = match &cfg.log {
        Some(path) => Some(JsonlProgress::new(BufWriter::new(File::create(path)?))),
        None => None,
    };

    // A daemon always records its own telemetry; the deterministic gate
    // is unaffected (serve families are wall-clock class).
    olab_metrics::set_enabled(true);
    olab_grid::metrics::touch();
    crate::metrics::touch();

    let max_queue = cfg.max_queue;
    let http_workers = cfg.http_workers.max(1);
    let shared = Arc::new(Shared {
        addr,
        engine,
        queue: AdmissionQueue::new(max_queue),
        coalesce: CoalesceMap::new(),
        draining: AtomicBool::new(false),
        workers_exited: Mutex::new(0),
        exit_cv: Condvar::new(),
        log,
        cfg,
    });

    let acceptor = {
        let shared = Arc::clone(&shared);
        thread::Builder::new()
            .name("olab-serve-accept".into())
            .spawn(move || accept_loop(listener, &shared))?
    };
    let mut workers = Vec::with_capacity(http_workers);
    for i in 0..http_workers {
        let shared = Arc::clone(&shared);
        workers.push(
            thread::Builder::new()
                .name(format!("olab-serve-worker-{i}"))
                .spawn(move || worker_loop(&shared))?,
        );
    }
    Ok(ServerHandle {
        shared,
        acceptor: Some(acceptor),
        workers,
    })
}

/// `Retry-After` seconds derived from the engine's observed p90 cell
/// execution latency (floor one second while the histogram is empty).
fn retry_after_s() -> u64 {
    let p90_ns = olab_metrics::histogram(
        "olab_grid_cell_exec_ns",
        "Wall-clock of each computed (non-cached) cell execution.",
    )
    .snapshot()
    .p90();
    p90_ns.div_ceil(1_000_000_000).max(1)
}

fn accept_loop(listener: TcpListener, shared: &Shared) {
    let m = serve_metrics();
    loop {
        let stream = match listener.accept() {
            Ok((stream, _)) => stream,
            Err(_) => {
                if shared.draining.load(Ordering::SeqCst) {
                    break;
                }
                continue;
            }
        };
        if shared.draining.load(Ordering::SeqCst) {
            // Late arrival (or the poison pill itself): turn it away.
            // The pill sends nothing, so bound the drain read tightly.
            let _ = stream.set_read_timeout(Some(Duration::from_millis(50)));
            let _ = read_request(&stream);
            let _ = write_response(stream, 503, "text/plain", &[], "draining\n");
            break;
        }
        let _ = stream.set_read_timeout(Some(READ_TIMEOUT));
        let admitted = Admitted {
            stream,
            at: Instant::now(),
        };
        match shared.queue.push(admitted) {
            Ok(()) => {
                m.accepted.inc();
                m.queue_depth.set(shared.queue.depth() as i64);
            }
            Err(rejected) => {
                m.shed.inc();
                // Drain the request head before responding: closing with
                // unread bytes in the receive buffer turns the close into
                // a TCP reset and the client never sees the 429. The
                // read is bounded by the socket timeout set above.
                let stream = rejected.item.stream;
                let _ = read_request(&stream);
                let (status, headers, body): (u16, Vec<String>, &str) = match rejected.reason {
                    RejectReason::Full => (
                        429,
                        vec![format!("Retry-After: {}", retry_after_s())],
                        "shed: admission queue full\n",
                    ),
                    RejectReason::Closed => (503, Vec::new(), "draining\n"),
                };
                let header_refs: Vec<&str> = headers.iter().map(String::as_str).collect();
                let _ = write_response(stream, status, "text/plain", &header_refs, body);
            }
        }
    }
}

fn worker_loop(shared: &Shared) {
    let m = serve_metrics();
    while let Some(Admitted { stream, at }) = shared.queue.pop() {
        m.queue_depth.set(shared.queue.depth() as i64);
        m.queue_ns.observe_since(Some(at));
        handle_connection(shared, &stream, at);
        m.request_ns.observe_since(Some(at));
    }
    let mut exited = shared
        .workers_exited
        .lock()
        .expect("worker exit count poisoned");
    *exited += 1;
    shared.exit_cv.notify_all();
}

/// Writes one response to an admitted connection, timing the write stage.
fn respond(stream: &TcpStream, status: u16, content_type: &str, extra: &[&str], body: &str) {
    let start = olab_metrics::now_if_enabled();
    let _ = write_response(stream, status, content_type, extra, body);
    serve_metrics().write_ns.observe_since(start);
}

fn handle_connection(shared: &Shared, stream: &TcpStream, admitted: Instant) {
    let req = match read_request(stream) {
        Ok(req) => req,
        Err(_) => {
            respond(stream, 400, "text/plain", &[], "malformed request\n");
            return;
        }
    };
    match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/healthz") => {
            respond(stream, 200, "application/json", &[], &health_body(shared));
        }
        ("GET", "/readyz") => {
            // Readiness reads the degradation latch once the queued disk
            // writes have landed, so a write that failed counts; occupancy,
            // which costs a directory scan, is `/healthz`'s.
            let (status, body) = if shared.draining.load(Ordering::SeqCst) {
                (503, "draining\n")
            } else {
                let cache = shared.engine.executor().cache();
                cache.flush();
                if cache.is_degraded() {
                    (503, "cache degraded\n")
                } else {
                    (200, "ready\n")
                }
            };
            respond(stream, status, "text/plain", &[], body);
        }
        ("GET", "/metricsz") => {
            respond(
                stream,
                200,
                "text/plain; version=0.0.4",
                &[],
                &olab_metrics::render_prom(),
            );
        }
        ("POST", "/v1/drain") => {
            let queued = shared.queue.depth();
            shared.begin_drain();
            let body = format!("{{\"draining\": true, \"queued\": {queued}}}\n");
            respond(stream, 200, "application/json", &[], &body);
        }
        ("GET", "/v1/cell") => handle_cell(shared, stream, &req, admitted),
        ("GET" | "POST", _) => {
            respond(stream, 404, "text/plain", &[], "no such route\n");
        }
        _ => {
            respond(stream, 405, "text/plain", &[], "method not allowed\n");
        }
    }
}

fn health_body(shared: &Shared) -> String {
    let health = shared.engine.executor().cache().health();
    let draining = shared.draining.load(Ordering::SeqCst);
    let status = if draining {
        "draining"
    } else if health.degraded {
        "degraded"
    } else {
        "ok"
    };
    format!(
        "{{\"status\": \"{status}\", \"draining\": {draining}, \"degraded\": {}, \
         \"queue_depth\": {}, \"queue_capacity\": {}, \"in_flight\": {}, \
         \"disk_enabled\": {}, \"disk_entries\": {}, \"disk_bytes\": {}}}\n",
        health.degraded,
        shared.queue.depth(),
        shared.queue.capacity(),
        shared.coalesce.in_flight(),
        health.disk_enabled,
        health.disk_entries,
        health.disk_bytes,
    )
}

fn handle_cell(shared: &Shared, stream: &TcpStream, req: &Request, admitted: Instant) {
    let m = serve_metrics();
    let cell = match parse_query(&req.query) {
        Ok(cell) => cell,
        Err(msg) => {
            respond(stream, 400, "text/plain", &[], &format!("{msg}\n"));
            return;
        }
    };
    let descriptor = cell_descriptor(&cell.experiment);
    let key = cell_key(&cell.experiment);
    shared.log_event(&ObsEvent::RequestStart {
        descriptor: &descriptor,
        timeout_ms: cell.timeout_ms.unwrap_or(0),
    });

    // One retry so a waiter whose leader abandoned (panicked) becomes the
    // fresh leader instead of failing the client outright.
    let mut outcome_tag = "error";
    let mut response: (u16, String) = (500, "{\"ok\": false, \"error\": \"abandoned\"}\n".into());
    for _ in 0..2 {
        let joined = olab_metrics::now_if_enabled();
        match shared.coalesce.join(key) {
            Join::Leader(leader) => {
                m.coalesce_ns.observe_since(joined);
                let mut guard = *shared.engine.executor().guard();
                if let Some(ms) = cell.timeout_ms {
                    let budget_s = ms as f64 / 1000.0;
                    guard.cell_timeout_s = Some(match guard.cell_timeout_s {
                        Some(own) => own.min(budget_s),
                        None => budget_s,
                    });
                }
                let executed = olab_metrics::now_if_enabled();
                let outcome = shared
                    .engine
                    .run_guarded(std::slice::from_ref(&cell.experiment), &guard, None)
                    .cells
                    .remove(0);
                m.execute_ns.observe_since(executed);
                let status = match &outcome {
                    Err(CellError::Timeout { .. }) => 504,
                    _ => 200,
                };
                let rendered = olab_metrics::now_if_enabled();
                let body = render_cell_body(&descriptor, &outcome);
                m.render_ns.observe_since(rendered);
                m.executed.inc();
                if shared.cfg.coalesce_hold_ms > 0 {
                    // Keep the flight open so a duplicate storm in a test
                    // reliably lands inside it.
                    thread::sleep(Duration::from_millis(shared.cfg.coalesce_hold_ms));
                }
                leader.complete((status, body.clone()));
                outcome_tag = "executed";
                response = (status, body);
                break;
            }
            Join::Waiter(waiter) => {
                let wait = Duration::from_millis(cell.timeout_ms.unwrap_or(DEFAULT_WAIT_MS));
                let waited = waiter.wait(wait);
                m.coalesce_ns.observe_since(joined);
                match waited {
                    WaitOutcome::Done((status, body)) => {
                        m.coalesced.inc();
                        outcome_tag = "coalesced";
                        response = (status, body);
                        break;
                    }
                    WaitOutcome::TimedOut => {
                        outcome_tag = "timeout";
                        response = (
                            504,
                            format!(
                                "{{\"descriptor\": \"{}\", \"ok\": false, \
                                 \"error_kind\": \"deadline\", \"error\": \"request deadline \
                                 expired waiting on an identical in-flight request\"}}\n",
                                olab_core::fmtutil::json_escape(&descriptor)
                            ),
                        );
                        break;
                    }
                    WaitOutcome::Abandoned => {
                        // Loop: re-join; this request likely leads now.
                        outcome_tag = "error";
                    }
                }
            }
        }
    }

    let (status, body) = response;
    let extra: &[&str] = if outcome_tag == "coalesced" {
        &["X-Olab-Outcome: coalesced"]
    } else if outcome_tag == "executed" {
        &["X-Olab-Outcome: executed"]
    } else {
        &[]
    };
    respond(stream, status, "application/json", extra, &body);
    shared.log_event(&ObsEvent::RequestDone {
        descriptor: &descriptor,
        status,
        outcome: outcome_tag,
        wall_ms: admitted.elapsed().as_millis() as u64,
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};

    /// A minimal test client: one request, the parsed status line, all
    /// headers, and the body.
    fn get(addr: SocketAddr, target: &str) -> (u16, String, String) {
        request(addr, "GET", target)
    }

    fn request(addr: SocketAddr, method: &str, target: &str) -> (u16, String, String) {
        let mut stream = TcpStream::connect(addr).expect("connect");
        write!(stream, "{method} {target} HTTP/1.1\r\nHost: t\r\n\r\n").unwrap();
        let mut raw = String::new();
        stream.read_to_string(&mut raw).expect("read response");
        let (head, body) = raw.split_once("\r\n\r\n").expect("header/body split");
        let status: u16 = head
            .split_whitespace()
            .nth(1)
            .expect("status code")
            .parse()
            .expect("numeric status");
        (status, head.to_string(), body.to_string())
    }

    fn serve(cfg: ServeConfig) -> ServerHandle {
        start(cfg).expect("server starts")
    }

    #[test]
    fn health_ready_and_metrics_routes_respond() {
        let handle = serve(ServeConfig::default());
        let addr = handle.addr();
        let (status, _, body) = get(addr, "/healthz");
        assert_eq!(status, 200);
        assert!(body.contains("\"status\": \"ok\""), "{body}");
        let (status, _, body) = get(addr, "/readyz");
        assert_eq!(status, 200, "{body}");
        let (status, _, body) = get(addr, "/metricsz");
        assert_eq!(status, 200);
        assert!(body.contains("olab_serve_accepted_total"), "{body}");
        assert!(body.contains("olab_grid_cell_exec_ns"), "{body}");
        let (status, _, _) = get(addr, "/nope");
        assert_eq!(status, 404);
        let (status, _, _) = request(addr, "PUT", "/v1/cell");
        assert_eq!(status, 405);
        assert_eq!(handle.shutdown().stranded_workers, 0);
    }

    /// A genuinely full disk: the cell's first cache write lands on a
    /// symlink to `/dev/full`, so the cache's own write path sees ENOSPC
    /// and latches memory-only, which both probes must report.
    #[cfg(target_os = "linux")]
    #[test]
    fn a_full_disk_turns_readyz_and_healthz_degraded() {
        let dir = std::env::temp_dir().join(format!("olab-serve-full-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let handle = serve(ServeConfig {
            cache_dir: Some(dir.clone()),
            ..ServeConfig::default()
        });
        let addr = handle.addr();
        assert_eq!(get(addr, "/readyz").0, 200);
        // Tmp files are named `{key}.{pid}.{instance}.{seq}.tmp`; the lease
        // `lease.{pid}.{instance}` names this cache, and this is its first
        // write (seq 0).
        let lease = std::fs::read_dir(&dir)
            .unwrap()
            .flatten()
            .map(|e| e.file_name().to_string_lossy().into_owned())
            .find(|name| name.starts_with("lease."))
            .expect("the disk cache drops a lease");
        let query = "seq=160&batch=4";
        let key = cell_key(&parse_query(query).unwrap().experiment);
        let writer = lease.trim_start_matches("lease.");
        std::os::unix::fs::symlink("/dev/full", dir.join(format!("{key:016x}.{writer}.0.tmp")))
            .unwrap();

        let (status, _, body) = get(addr, &format!("/v1/cell?{query}"));
        assert_eq!(
            status, 200,
            "a full disk costs persistence, not answers: {body}"
        );
        let (status, _, body) = get(addr, "/readyz");
        assert_eq!((status, body.as_str()), (503, "cache degraded\n"));
        let (status, _, body) = get(addr, "/healthz");
        assert_eq!(status, 200);
        assert!(body.contains("\"status\": \"degraded\""), "{body}");
        assert!(body.contains("\"disk_entries\": 0"), "{body}");
        assert_eq!(handle.shutdown().stranded_workers, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A served miss answers before its disk write lands. The cell's first
    /// cache write opens a FIFO planted at its tmp name, and opening a FIFO
    /// to write blocks until someone reads it: the writer thread waits
    /// there, while the response must still arrive. A write on the request
    /// path would block the HTTP worker instead, and the client's read
    /// would time out.
    #[cfg(target_os = "linux")]
    #[test]
    fn a_served_miss_does_not_wait_for_its_disk_write() {
        let dir = std::env::temp_dir().join(format!("olab-serve-fifo-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let handle = serve(ServeConfig {
            cache_dir: Some(dir.clone()),
            ..ServeConfig::default()
        });
        let lease = std::fs::read_dir(&dir)
            .unwrap()
            .flatten()
            .map(|e| e.file_name().to_string_lossy().into_owned())
            .find(|name| name.starts_with("lease."))
            .expect("the disk cache drops a lease");
        let query = "seq=176&batch=4";
        let key = cell_key(&parse_query(query).unwrap().experiment);
        let writer = lease.trim_start_matches("lease.");
        let fifo = dir.join(format!("{key:016x}.{writer}.0.tmp"));
        let made = std::process::Command::new("mkfifo")
            .arg(&fifo)
            .status()
            .expect("mkfifo runs");
        assert!(made.success(), "mkfifo {}", fifo.display());

        let mut stream = TcpStream::connect(handle.addr()).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        write!(stream, "GET /v1/cell?{query} HTTP/1.1\r\nHost: t\r\n\r\n").unwrap();
        let mut raw = String::new();
        stream
            .read_to_string(&mut raw)
            .expect("the response arrives while its disk write is blocked");
        let (head, body) = raw.split_once("\r\n\r\n").expect("header/body split");
        assert!(head.starts_with("HTTP/1.1 200"), "{head}");
        assert_eq!(body, crate::oneshot(query).expect("offline render"));

        // Unblock the writer: it writes the whole entry into the FIFO.
        let landed = std::fs::read(&fifo).expect("read the FIFO");
        assert!(landed.starts_with(b"OLABGRD"), "a whole cache entry");
        assert_eq!(handle.shutdown().stranded_workers, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_served_cell_is_byte_identical_to_the_offline_sweep() {
        let handle = serve(ServeConfig::default());
        let query = "sku=h100&gpus=4&model=gpt3-xl&strategy=fsdp&batch=8&seq=128";
        let (status, _, body) = get(handle.addr(), &format!("/v1/cell?{query}"));
        assert_eq!(status, 200, "{body}");
        let offline = crate::oneshot(query).expect("offline render");
        assert_eq!(body, offline, "served body must match the offline sweep");
        // A second request is served from cache with the same bytes.
        let (status, _, again) = get(handle.addr(), &format!("/v1/cell?{query}"));
        assert_eq!(status, 200);
        assert_eq!(again, offline);
        assert_eq!(handle.shutdown().stranded_workers, 0);
    }

    #[test]
    fn a_duplicate_storm_coalesces_onto_one_execution() {
        let cfg = ServeConfig {
            coalesce_hold_ms: 400,
            ..ServeConfig::default()
        };
        let handle = serve(cfg);
        let addr = handle.addr();
        let target = "/v1/cell?seq=192&batch=4";
        let responses: Vec<(u16, String, String)> = thread::scope(|s| {
            let clients: Vec<_> = (0..8).map(|_| s.spawn(move || get(addr, target))).collect();
            clients.into_iter().map(|c| c.join().unwrap()).collect()
        });
        let executed = responses
            .iter()
            .filter(|(_, head, _)| head.contains("X-Olab-Outcome: executed"))
            .count();
        let coalesced = responses
            .iter()
            .filter(|(_, head, _)| head.contains("X-Olab-Outcome: coalesced"))
            .count();
        assert_eq!(executed, 1, "exactly one request executes the cell");
        assert_eq!(coalesced, 7, "every duplicate rides the same flight");
        let first = &responses[0].2;
        for (status, _, body) in &responses {
            assert_eq!(*status, 200);
            assert_eq!(body, first, "all coalesced bodies are byte-identical");
        }
        assert_eq!(handle.shutdown().stranded_workers, 0);
    }

    #[test]
    fn overload_is_shed_with_retry_after() {
        let cfg = ServeConfig {
            http_workers: 1,
            max_queue: 1,
            coalesce_hold_ms: 500,
            ..ServeConfig::default()
        };
        let handle = serve(cfg);
        let addr = handle.addr();
        // Occupy the single worker with a held cell; while it holds, the
        // one-slot queue fills and further concurrent arrivals must shed.
        let busy = thread::spawn(move || get(addr, "/v1/cell?seq=224&batch=4"));
        thread::sleep(Duration::from_millis(150));
        let results: Vec<(u16, String, String)> = thread::scope(|s| {
            let clients: Vec<_> = (0..4)
                .map(|_| s.spawn(move || get(addr, "/healthz")))
                .collect();
            clients.into_iter().map(|c| c.join().unwrap()).collect()
        });
        let head = results
            .iter()
            .find(|(status, _, _)| *status == 429)
            .map(|(_, head, _)| head.clone())
            .expect("an arrival during the hold must be shed with 429");
        assert!(head.contains("Retry-After: "), "{head}");
        let retry_s: u64 = head
            .lines()
            .find_map(|l| l.strip_prefix("Retry-After: "))
            .unwrap()
            .trim()
            .parse()
            .expect("integral Retry-After");
        assert!(retry_s >= 1);
        let (status, _, _) = busy.join().unwrap();
        assert_eq!(status, 200);
        assert_eq!(handle.shutdown().stranded_workers, 0);
    }

    #[test]
    fn a_request_deadline_propagates_into_the_guard() {
        let handle = serve(ServeConfig::default());
        // A deliberately heavy cell so a 1 ms budget can't be met even by
        // the analytic fast path.
        let (status, _, body) = get(
            handle.addr(),
            "/v1/cell?model=gpt3-13b&gpus=8&seq=2048&batch=16&timeout_ms=1",
        );
        assert_eq!(status, 504, "{body}");
        assert!(body.contains("\"error_kind\": \"timeout\""), "{body}");
        assert_eq!(handle.shutdown().stranded_workers, 0);
    }

    #[test]
    fn bad_queries_are_rejected_with_400() {
        let handle = serve(ServeConfig::default());
        let (status, _, body) = get(handle.addr(), "/v1/cell?sku=z900");
        assert_eq!(status, 400);
        assert!(body.contains("unknown sku"), "{body}");
        assert_eq!(handle.shutdown().stranded_workers, 0);
    }

    #[test]
    fn drain_over_http_stops_admissions_and_strands_nobody() {
        let handle = serve(ServeConfig::default());
        let addr = handle.addr();
        // Warm one cell so the drain has something behind it in the cache.
        let (status, _, _) = get(addr, "/v1/cell?seq=128&batch=2");
        assert_eq!(status, 200);
        let (status, _, body) = request(addr, "POST", "/v1/drain");
        assert_eq!(status, 200);
        assert!(body.contains("\"draining\": true"), "{body}");
        assert!(handle.draining());
        let report = handle.shutdown();
        assert_eq!(report.stranded_workers, 0, "drain must strand no workers");
    }

    #[test]
    fn the_request_lifecycle_is_logged_as_obs_events() {
        let dir = std::env::temp_dir().join(format!("olab-serve-log-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("requests.jsonl");
        let cfg = ServeConfig {
            log: Some(path.clone()),
            ..ServeConfig::default()
        };
        let handle = serve(cfg);
        let (status, _, _) = get(handle.addr(), "/v1/cell?seq=128&batch=4&timeout_ms=60000");
        assert_eq!(status, 200);
        assert_eq!(handle.shutdown().stranded_workers, 0);
        let log = std::fs::read_to_string(&path).unwrap();
        assert!(log.contains("\"event\": \"request_start\""), "{log}");
        assert!(log.contains("\"event\": \"request_done\""), "{log}");
        assert!(log.contains("\"timeout_ms\": 60000"), "{log}");
        assert!(log.contains("\"outcome\": \"executed\""), "{log}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
