//! Serving soak harness for `olab serve`: proves the daemon's robustness
//! story end to end against a live socket, with real concurrent clients.
//!
//! Phases:
//!
//! * **duplicate storm** — 8 concurrent clients request the same cold
//!   cell; exactly one execution may happen (`X-Olab-Outcome: executed`
//!   once, `coalesced` for everyone else) and every body must be
//!   byte-identical to the offline render ([`olab_serve::oneshot`]);
//! * **mixed load** — several client threads hammer a small set of cells;
//!   every response must match its offline reference byte-for-byte;
//! * **shed** — a one-worker, one-slot daemon under a long-running cell
//!   must turn concurrent arrivals away with `429` + an integral
//!   `Retry-After`;
//! * **deadline** — a heavy cell with `timeout_ms=1` must come back `504`
//!   with a typed error body, not hang;
//! * **client chaos** — deterministic slow-client stalls and mid-request
//!   connection resets (the `serve.*` chaos points); the daemon must
//!   survive and keep serving correct bytes;
//! * **degradation** — a read-only cache directory must latch the cache
//!   into memory-only degradation and flip `/readyz` to `503` while
//!   `/v1/cell` keeps serving;
//! * **drain** — `POST /v1/drain` stops admissions; the shutdown must
//!   strand zero workers.
//!
//! Prints one JSON snapshot to stdout, and also writes it to `<path>`
//! when given `--out <path>`; `--smoke` shrinks the client counts for CI.
//! Each snapshot is stamped with the commit and `"mode": "serve"`.

use olab_core::fmtutil::validate_json;
use olab_grid::ChaosPlan;
use olab_serve::metrics::serve_metrics;
use olab_serve::{oneshot, start, ServeConfig, ServerHandle};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::time::Duration;

/// One raw HTTP/1.1 exchange: returns `(status, head, body)`. Status `0`
/// means the connection died before a response line arrived (expected
/// under `serve.conn_reset` chaos).
fn request(addr: SocketAddr, method: &str, path: &str) -> (u16, String, String) {
    let exchange = || -> std::io::Result<String> {
        let mut stream = TcpStream::connect(addr)?;
        stream.set_read_timeout(Some(Duration::from_secs(60)))?;
        write!(
            stream,
            "{method} {path} HTTP/1.1\r\nHost: soak\r\nConnection: close\r\n\r\n"
        )?;
        stream.flush()?;
        let mut raw = String::new();
        stream.read_to_string(&mut raw)?;
        Ok(raw)
    };
    let raw = match exchange() {
        Ok(raw) => raw,
        Err(_) => return (0, String::new(), String::new()),
    };
    let (head, body) = raw
        .split_once("\r\n\r\n")
        .map(|(h, b)| (h.to_string(), b.to_string()))
        .unwrap_or((raw, String::new()));
    let status = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(0);
    (status, head, body)
}

fn get(addr: SocketAddr, path: &str) -> (u16, String, String) {
    request(addr, "GET", path)
}

/// Case-sensitive single-header lookup in a response head.
fn header<'a>(head: &'a str, name: &str) -> Option<&'a str> {
    head.lines()
        .filter_map(|l| l.split_once(": "))
        .find(|(k, _)| k.eq_ignore_ascii_case(name))
        .map(|(_, v)| v.trim())
}

fn shutdown_clean(handle: ServerHandle, phase: &str) {
    let report = handle.shutdown();
    assert_eq!(
        report.stranded_workers, 0,
        "{phase}: drain must strand no worker"
    );
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("olab-serve-soak-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1).cloned());

    let m = serve_metrics();

    // Phase 1 — duplicate storm: one execution, everyone else coalesced,
    // every body byte-identical to the offline render.
    let storm_query = "seq=192&batch=4";
    let offline = oneshot(storm_query).expect("offline render");
    let handle = start(ServeConfig {
        coalesce_hold_ms: 400,
        ..ServeConfig::default()
    })
    .expect("bind storm server");
    let addr = handle.addr();
    let executed_before = m.executed.get();
    let coalesced_before = m.coalesced.get();
    const STORM_CLIENTS: usize = 8;
    let mut outcomes: Vec<(u16, String, String)> = Vec::new();
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..STORM_CLIENTS)
            .map(|_| scope.spawn(move || get(addr, &format!("/v1/cell?{storm_query}"))))
            .collect();
        outcomes = workers.into_iter().map(|w| w.join().unwrap()).collect();
    });
    let mut storm_executed = 0;
    let mut storm_coalesced = 0;
    for (status, head, body) in &outcomes {
        assert_eq!(*status, 200, "storm client failed:\n{head}");
        assert_eq!(body, &offline, "served body diverged from offline render");
        match header(head, "X-Olab-Outcome") {
            Some("executed") => storm_executed += 1,
            Some("coalesced") => storm_coalesced += 1,
            other => panic!("missing outcome header: {other:?}"),
        }
    }
    assert_eq!(
        storm_executed, 1,
        "the storm must cost exactly one execution"
    );
    assert_eq!(
        storm_coalesced,
        STORM_CLIENTS - 1,
        "everyone else coalesces"
    );
    assert_eq!(m.executed.get() - executed_before, 1);
    assert!(m.coalesced.get() - coalesced_before >= (STORM_CLIENTS - 1) as u64);
    // Warm re-fetch: cached now, still the same bytes.
    let (status, _, body) = get(addr, &format!("/v1/cell?{storm_query}"));
    assert_eq!((status, body.as_str()), (200, offline.as_str()));

    // Phase 2 — mixed load: every response equals its offline reference.
    let mix_queries = ["seq=128&batch=2", "seq=160&batch=4", "seq=192&batch=8"];
    let references: Vec<String> = mix_queries
        .iter()
        .map(|q| oneshot(q).expect("offline render"))
        .collect();
    let mix_threads = if smoke { 2 } else { 4 };
    let mix_rounds = if smoke { 10 } else { 50 };
    std::thread::scope(|scope| {
        for t in 0..mix_threads {
            let references = &references;
            scope.spawn(move || {
                for r in 0..mix_rounds {
                    let pick = (t + r) % mix_queries.len();
                    let (status, head, body) =
                        get(addr, &format!("/v1/cell?{}", mix_queries[pick]));
                    assert_eq!(status, 200, "mixed-load request failed:\n{head}");
                    assert_eq!(body, references[pick], "mixed-load body diverged");
                }
            });
        }
    });
    let mix_requests = mix_threads * mix_rounds;
    shutdown_clean(handle, "storm");

    // Phase 3 — shed: a saturated one-worker daemon turns arrivals away
    // with 429 + Retry-After.
    let handle = start(ServeConfig {
        http_workers: 1,
        max_queue: 1,
        coalesce_hold_ms: 600,
        ..ServeConfig::default()
    })
    .expect("bind shed server");
    let addr = handle.addr();
    let shed_before = m.shed.get();
    let mut shed_seen = 0;
    let mut retry_after_s = 0u64;
    std::thread::scope(|scope| {
        let busy = scope.spawn(move || get(addr, "/v1/cell?seq=224&batch=4"));
        // Let the lone worker pop the busy cell and hold it.
        std::thread::sleep(Duration::from_millis(200));
        let probes: Vec<_> = (0..6)
            .map(|_| scope.spawn(move || get(addr, "/healthz")))
            .collect();
        for probe in probes {
            let (status, head, _) = probe.join().unwrap();
            if status == 429 {
                shed_seen += 1;
                let after = header(&head, "Retry-After")
                    .and_then(|v| v.parse::<u64>().ok())
                    .expect("429 must carry an integral Retry-After");
                assert!(after >= 1, "Retry-After must be at least one second");
                retry_after_s = after;
            }
        }
        let (status, _, _) = busy.join().unwrap();
        assert_eq!(status, 200, "the busy cell itself must still complete");
    });
    assert!(shed_seen >= 1, "overload must shed at least one request");
    assert!(m.shed.get() - shed_before >= shed_seen as u64);
    shutdown_clean(handle, "shed");

    // Phase 4 — deadline propagation: a heavy cell under a 1 ms budget
    // comes back 504 with a typed body instead of hanging.
    let handle = start(ServeConfig::default()).expect("bind deadline server");
    let addr = handle.addr();
    let (status, _, body) = get(
        addr,
        "/v1/cell?model=gpt3-13b&gpus=8&seq=2048&batch=16&timeout_ms=1",
    );
    assert_eq!(status, 504, "a blown deadline must be a 504:\n{body}");
    assert!(body.contains("error_kind"), "{body}");
    shutdown_clean(handle, "deadline");

    // Phase 5 — client chaos: slow clients and mid-request resets, on a
    // fixed seed. The daemon must survive and keep serving exact bytes.
    let chaos_requests = if smoke { 30 } else { 120 };
    let handle = start(ServeConfig {
        chaos: Some(ChaosPlan {
            seed: 20250807,
            slow_client_permille: 300,
            slow_client_ms: 20,
            conn_reset_permille: 250,
            ..ChaosPlan::default()
        }),
        ..ServeConfig::default()
    })
    .expect("bind chaos server");
    let addr = handle.addr();
    let chaos_reference = &references[0];
    let mut chaos_dropped = 0;
    for _ in 0..chaos_requests {
        let (status, _, body) = get(addr, &format!("/v1/cell?{}", mix_queries[0]));
        match status {
            200 => assert_eq!(&body, chaos_reference, "chaos must not corrupt bytes"),
            0 => chaos_dropped += 1,
            other => panic!("unexpected status {other} under chaos"),
        }
    }
    assert!(chaos_dropped > 0, "conn-reset chaos must have fired");
    // Survival: the daemon still answers cleanly (chaos may still fire on
    // any given request, so allow a few attempts).
    let survived = (0..20).any(|_| get(addr, "/healthz").0 == 200);
    assert!(survived, "the daemon must survive client chaos");
    shutdown_clean(handle, "chaos");

    // Phase 6 — graceful degradation: ENOSPC on every cache write latches
    // memory-only mode; /readyz flips to 503 while cells keep serving.
    let degrade_ready_status = {
        let cache_dir = temp_dir("degrade");
        let handle = start(ServeConfig {
            cache_dir: Some(cache_dir.clone()),
            chaos: Some(ChaosPlan {
                seed: 5,
                enospc_permille: 1000,
                ..ChaosPlan::default()
            }),
            ..ServeConfig::default()
        })
        .expect("bind degrade server");
        let addr = handle.addr();
        let (ready_before, _, _) = get(addr, "/readyz");
        assert_eq!(ready_before, 200, "healthy daemon must be ready");
        let (status, _, _) = get(addr, "/v1/cell?seq=96&batch=2");
        assert_eq!(status, 200, "degradation must not fail the request");
        let (ready_after, _, _) = get(addr, "/readyz");
        assert_eq!(ready_after, 503, "a degraded cache must flip readiness");
        let (_, _, health) = get(addr, "/healthz");
        assert!(health.contains("degraded"), "{health}");
        shutdown_clean(handle, "degrade");
        let _ = std::fs::remove_dir_all(&cache_dir);
        ready_after
    };

    // Phase 7 — drain over HTTP: admissions stop, nobody is stranded.
    let handle = start(ServeConfig::default()).expect("bind drain server");
    let addr = handle.addr();
    let (status, _, _) = get(addr, "/v1/cell?seq=96&batch=2");
    assert_eq!(status, 200);
    let (status, _, body) = request(addr, "POST", "/v1/drain");
    assert_eq!(status, 200, "drain must be acknowledged");
    assert!(body.contains("\"draining\": true"), "{body}");
    // The daemon's blocking main loop observes the drain and exits; this
    // is exactly what `olab serve` runs.
    let report = handle.run_until_drained();
    assert_eq!(report.stranded_workers, 0, "drain must strand no worker");
    // Post-drain arrivals are turned away (503) or refused outright.
    let (status, _, _) = get(addr, "/healthz");
    assert!(status == 503 || status == 0, "post-drain status {status}");

    let latency = m.request_ns.snapshot();
    let mode = "serve";
    let run_kind = if smoke { "smoke" } else { "full" };
    let commit = olab_bench::current_commit();

    let json = format!(
        "{{\n  \"bench\": \"serve_soak\",\n  \"commit\": \"{}\",\n  \"mode\": \"{}\",\n  \"run\": \"{}\",\n  \"storm\": {{\n    \"clients\": {},\n    \"executed\": {},\n    \"coalesced\": {},\n    \"byte_identical\": true\n  }},\n  \"mixed_load\": {{\n    \"requests\": {},\n    \"divergent\": 0\n  }},\n  \"shed\": {{\n    \"shed_responses\": {},\n    \"retry_after_s\": {}\n  }},\n  \"deadline\": {{\n    \"status\": 504\n  }},\n  \"client_chaos\": {{\n    \"requests\": {},\n    \"dropped\": {},\n    \"survived\": true\n  }},\n  \"degradation\": {{\n    \"ready_status\": {}\n  }},\n  \"drain\": {{\n    \"stranded_workers\": 0\n  }},\n  \"request_ns\": {{\n    \"count\": {},\n    \"p50\": {},\n    \"p99\": {},\n    \"max\": {}\n  }}\n}}\n",
        olab_core::fmtutil::json_escape(&commit),
        mode,
        run_kind,
        STORM_CLIENTS,
        storm_executed,
        storm_coalesced,
        mix_requests,
        shed_seen,
        retry_after_s,
        chaos_requests,
        chaos_dropped,
        degrade_ready_status,
        latency.count,
        latency.p50(),
        latency.p99(),
        latency.max,
    );
    validate_json(&json).expect("benchmark JSON is well-formed");
    if let Some(path) = &out_path {
        std::fs::write(path, &json).expect("write benchmark JSON");
    }
    print!("{json}");
    eprintln!(
        "serve_soak: storm {STORM_CLIENTS} clients -> 1 execution / {storm_coalesced} coalesced, \
         {shed_seen} shed (Retry-After {retry_after_s}s), {chaos_dropped}/{chaos_requests} \
         chaos drops survived, readyz {degrade_ready_status} when degraded"
    );
}
