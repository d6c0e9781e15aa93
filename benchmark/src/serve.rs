//! `serve_whatif`: a closed-loop client against an in-process
//! `olab serve`, and the live serve probe the grid workloads' traced runs
//! use.

use crate::inputs::{self, Rng};
use crate::kernel::Meter;
use crate::trace::{replay, Tracer};
use crate::workloads::{finish_traced, headline_pass, probe_layers, Counts, Layers};
use crate::{
    digest, digest_outcome, end_to_end, load_headline, measure_setup, out_dir, run_passes, Args,
    Report, Tally, ThreadWatch,
};
use olab_core::sweep::{cell_descriptor, CachedCell};
use olab_core::{Experiment, Sweep};
use olab_serve::metrics::serve_metrics;
use olab_serve::{render_cell_body, start, ServeConfig, ServerHandle};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Rounds before the timed budget may end the workload.
const MIN_ROUNDS: usize = 3;

/// Set-up requests: one cell per SKU outside the what-if space, so they
/// never turn a timed miss into a hit.
const WARMUP_QUERIES: [&str; 4] = [
    "sku=a100&model=gpt3-xl&strategy=fsdp&batch=8&seq=128",
    "sku=h100&model=gpt3-xl&strategy=fsdp&batch=8&seq=128",
    "sku=mi210&model=gpt3-xl&strategy=fsdp&batch=8&seq=128",
    "sku=mi250&model=gpt3-xl&strategy=fsdp&batch=8&seq=128",
];

/// The serving front-end's share of a request, from a live server.
#[derive(Debug, Clone, Copy)]
pub struct ServeLayer {
    /// Mean server-side time per request (`olab_serve_request_ns`), ms.
    pub server_ms: f64,
    /// Mean client time minus server time per request, ms.
    pub transport_ms: f64,
    /// Requests the server executed (`olab_serve_executed_total`).
    pub executed: u64,
    /// Requests served by joining an identical in-flight one.
    pub coalesced: u64,
}

/// A running daemon with its own fresh disk cache directory.
struct Server {
    handle: ServerHandle,
    dir: PathBuf,
}

impl Server {
    /// One engine worker, one HTTP worker, a fresh disk tier, no coalesce
    /// hold: the closed loop never has two requests in flight.
    fn start() -> Result<Server, String> {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let dir = out_dir().join(format!(
            "serve-cache-{}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        let cfg = ServeConfig {
            jobs: 1,
            http_workers: 1,
            cache_dir: Some(dir.clone()),
            coalesce_hold_ms: 0,
            ..ServeConfig::default()
        };
        let handle = start(cfg).map_err(|e| format!("starting the server: {e}"))?;
        Ok(Server { handle, dir })
    }

    fn addr(&self) -> SocketAddr {
        self.handle.addr()
    }

    /// Drains the daemon and deletes its cache; a stranded worker fails
    /// the run.
    fn stop(self, tally: &mut Tally) {
        let report = self.handle.shutdown();
        if report.stranded_workers != 0 {
            tally.fail(format!(
                "{} server workers stranded at shutdown",
                report.stranded_workers
            ));
        }
        if let Err(e) = std::fs::remove_dir_all(&self.dir) {
            eprintln!("olab-perfbench: removing {}: {e}", self.dir.display());
        }
    }
}

/// One `GET` on a fresh loopback connection: `(status, body)`.
pub fn http_get(addr: SocketAddr, path: &str) -> io::Result<(u16, String)> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(60)))?;
    stream.write_all(
        format!("GET {path} HTTP/1.1\r\nHost: bench\r\nConnection: close\r\n\r\n").as_bytes(),
    )?;
    let mut raw = String::new();
    stream.read_to_string(&mut raw)?;
    let (head, body) = raw.split_once("\r\n\r\n").unwrap_or((&raw, ""));
    let status = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(0);
    Ok((status, body.to_string()))
}

/// Server-side requests recorded so far and their total time, ns.
fn server_totals() -> (u64, u64) {
    let s = serve_metrics().request_ns.snapshot();
    (s.count, s.sum)
}

/// A `GET` inside an `op` span, split into the server's own time and the
/// rest (client, loopback, kernel). The server closes the connection a
/// moment before it records the request, so the split waits until the
/// record has landed.
fn traced_get(tr: &mut Tracer, op: u64, addr: SocketAddr, path: &str) -> io::Result<(u16, String)> {
    let (count, sum) = server_totals();
    let span = tr.open("op", op);
    let start = tr.clock_ns();
    let out = http_get(addr, path);
    tr.close();
    let client = tr.clock_ns() - start;
    let waited = std::time::Instant::now();
    let mut now = server_totals();
    while now.0 == count && waited.elapsed() < Duration::from_secs(1) {
        std::thread::yield_now();
        now = server_totals();
    }
    let server = (now.1 - sum).min(client);
    tr.record("serve.server", span, start, server);
    tr.record("serve.transport", span, start + server, client - server);
    out
}

fn serve_layer(tr: &Tracer, executed: u64, coalesced: u64) -> ServeLayer {
    ServeLayer {
        server_ms: tr.mean_ns("serve.server") / 1e6,
        transport_ms: tr.mean_ns("serve.transport") / 1e6,
        executed,
        coalesced,
    }
}

/// Requests every cell twice from a live server (a miss, then a hit) and
/// measures the serving layer; both bodies must match.
pub fn serve_probe(
    cells: &[Experiment],
    tr: &mut Tracer,
    tally: &mut Tally,
) -> Result<ServeLayer, String> {
    let server = Server::start()?;
    let m = serve_metrics();
    let (executed, coalesced) = (m.executed.get(), m.coalesced.get());
    for (k, e) in cells.iter().enumerate() {
        let path = format!("/v1/cell?{}", inputs::query_of(e));
        let miss = traced_get(tr, k as u64, server.addr(), &path);
        let hit = traced_get(tr, k as u64, server.addr(), &path);
        let ok = matches!((&miss, &hit), (Ok((200, a)), Ok((200, b))) if a == b);
        tally.check(ok, || format!("serve probe of {} failed", e.label()));
    }
    let layer = serve_layer(
        tr,
        m.executed.get() - executed,
        m.coalesced.get() - coalesced,
    );
    server.stop(tally);
    Ok(layer)
}

/// Histogram `(count, sum)` of one `olab_cache_*` timing family.
fn cache_hist(name: &'static str) -> (u64, u64) {
    let s = olab_metrics::histogram(name, "").snapshot();
    (s.count, s.sum)
}

const CACHE_HISTS: [&str; 3] = [
    "olab_cache_lookup_memory_hit_ns",
    "olab_cache_lookup_miss_ns",
    "olab_cache_insert_ns",
];

/// `serve_whatif`: every round starts a fresh server and sends one seeded
/// query stream over the what-if space through one closed-loop client.
pub fn serve_whatif(args: &Args) -> Result<Report, String> {
    let universe = inputs::serve_universe();
    let cells: Vec<Experiment> = universe
        .iter()
        .map(|q| olab_serve::parse_query(q).map(|c| c.experiment))
        .collect::<Result<_, _>>()?;
    let mut setup_error = None;
    let setup = measure_setup(|| {
        let mut tally = Tally::default();
        match Server::start() {
            Ok(server) => {
                for q in WARMUP_QUERIES {
                    let ok = matches!(
                        http_get(server.addr(), &format!("/v1/cell?{q}")),
                        Ok((200, _))
                    );
                    tally.check(ok, || format!("warm-up query {q} failed"));
                }
                server.stop(&mut tally);
            }
            Err(e) => tally.fail(e),
        }
        if tally.failed > 0 {
            setup_error = Some(tally.notes.join("; "));
        }
    });
    if let Some(e) = setup_error {
        return Err(e);
    }

    // Reference bodies from an offline serial sweep, outside every timed
    // region: served bodies must match them byte for byte.
    let outcomes = Sweep::new().with_jobs(1).run(&cells).cells;
    let bodies: Vec<String> = cells
        .iter()
        .zip(&outcomes)
        .map(|(e, o)| render_cell_body(&cell_descriptor(e), o))
        .collect();
    let paths: Vec<String> = universe.iter().map(|q| format!("/v1/cell?{q}")).collect();
    let stream = inputs::query_stream(&mut Rng::new(args.seed, inputs::SERVE_SALT), universe.len());

    let mut tally = Tally::default();
    let mut threads = ThreadWatch::default();
    let budget = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let mut meter = Meter::new();
    let mut round = |meter: &mut Meter, tally: &mut Tally, tr: Option<&mut Tracer>| {
        let server = match Server::start() {
            Ok(server) => server,
            Err(e) => {
                tally.fail(e);
                return;
            }
        };
        threads.sample();
        let addr = server.addr();
        let mut tr = tr;
        for (op, &q) in stream.iter().enumerate() {
            let got = meter.time(|| match tr.as_deref_mut() {
                Some(tr) => traced_get(tr, op as u64, addr, &paths[q]),
                None => http_get(addr, &paths[q]),
            });
            let ok = matches!(&got, Ok((200, body)) if *body == bodies[q]);
            tally.check(ok, || match got {
                Ok((status, _)) => {
                    format!("/v1/cell?{} answered {status} or a wrong body", universe[q])
                }
                Err(e) => format!("/v1/cell?{} failed: {e}", universe[q]),
            });
        }
        server.stop(tally);
    };
    let passes = run_passes(&mut meter, budget, MIN_ROUNDS, |meter| {
        round(meter, &mut tally, None)
    });
    let err_pp = headline_pass(&mut tally)?.err_pp(load_headline()?.paper_pct);
    if !args.trace {
        let (metrics, mut record) =
            end_to_end(&meter, &passes, stream.len(), &setup, err_pp, &threads);
        record.num("universe", universe.len() as f64);
        record.num(
            "feasible_in_universe",
            outcomes.iter().filter(|o| o.is_ok()).count() as f64,
        );
        return Ok(Report {
            tally,
            metrics,
            record,
        });
    }

    let counts = Counts::start();
    let hists_before = CACHE_HISTS.map(cache_hist);
    let mut tr = Tracer::new();
    let mut traced_meter = Meter::new();
    let traced_passes = run_passes(&mut traced_meter, budget, 1, |meter| {
        round(meter, &mut tally, Some(&mut tr))
    });
    let counts = counts.since();
    let hists_after = CACHE_HISTS.map(cache_hist);
    let mean_us = |i: usize| {
        let (n, sum) = (
            hists_after[i].0 - hists_before[i].0,
            hists_after[i].1 - hists_before[i].1,
        );
        if n > 0 {
            sum as f64 / n as f64 / 1e3
        } else {
            0.0
        }
    };
    let cache = Some((mean_us(0), mean_us(1), mean_us(2)));
    let serve = serve_layer(&tr, counts.executed, counts.coalesced);
    let rounds = traced_passes.corrected.len() as f64;
    let simulated = rounds * outcomes.iter().filter(|o| o.is_ok()).count() as f64;

    // The stages behind every miss, replayed outside the served path and
    // proven against the offline sweep's `GridJob::execute` results.
    let mut probe_cells = Vec::with_capacity(cells.len());
    for (k, (e, reference)) in cells.iter().zip(&outcomes).enumerate() {
        let replayed = replay(e, None, &mut tr, k as u64);
        tally.check(digest(&replayed) == digest_outcome(reference), || {
            format!(
                "replayed stages of {} differ from the offline sweep",
                e.label()
            )
        });
        probe_cells.push((e.clone(), CachedCell(reference.clone())));
    }
    probe_layers(&probe_cells, &mut tr, &mut tally);
    let layers = Layers {
        tr,
        counts,
        simulated,
        serve,
        cache,
        ops_per_pass: stream.len(),
        untraced: passes,
        traced: traced_passes,
        threads: threads.peak,
    };
    Ok(finish_traced(args, layers, tally, &meter))
}
