//! `olab_serve_request_ns` records every admitted request from the moment
//! the acceptor admitted it: a request that waited in the admission queue
//! carries that wait, and a malformed request answered with `400` is
//! recorded too. The stage histograms split the same requests into queue,
//! coalesce, execute, render and write.
//!
//! One `#[test]` per process: the histograms are process-wide.

use olab_serve::metrics::serve_metrics;
use olab_serve::{start, ServeConfig};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::thread;
use std::time::{Duration, Instant};

/// Sends `raw` on a fresh connection; returns the status code.
fn send(addr: SocketAddr, raw: &str) -> u16 {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.write_all(raw.as_bytes()).unwrap();
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read response");
    response
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .expect("numeric status")
}

#[test]
fn queue_wait_and_malformed_requests_are_recorded_per_stage() {
    const HOLD_MS: u64 = 300;
    let handle = start(ServeConfig {
        http_workers: 1,
        coalesce_hold_ms: HOLD_MS,
        ..ServeConfig::default()
    })
    .expect("server starts");
    let addr = handle.addr();
    let m = serve_metrics();

    // The one worker takes a cell request and holds its flight open...
    let leader = thread::spawn(move || {
        send(
            addr,
            "GET /v1/cell?seq=128&batch=2 HTTP/1.1\r\nHost: t\r\n\r\n",
        )
    });
    let popped = Instant::now();
    while m.queue_ns.snapshot().count == 0 {
        assert!(popped.elapsed() < Duration::from_secs(10), "never popped");
        thread::sleep(Duration::from_millis(1));
    }
    // ...so a malformed request admitted meanwhile waits in the queue.
    assert_eq!(send(addr, "\r\n"), 400);
    assert_eq!(leader.join().unwrap(), 200);
    // The worker records a request just after its response is written.
    let written = Instant::now();
    while m.request_ns.snapshot().count < 2 {
        assert!(
            written.elapsed() < Duration::from_secs(10),
            "never recorded"
        );
        thread::sleep(Duration::from_millis(1));
    }

    let request = m.request_ns.snapshot();
    let queue = m.queue_ns.snapshot();
    assert_eq!(request.count, 2, "both requests, the malformed one too");
    assert_eq!(queue.count, 2);
    assert_eq!(m.write_ns.snapshot().count, 2);
    for stage in [&m.coalesce_ns, &m.execute_ns, &m.render_ns] {
        assert_eq!(stage.snapshot().count, 1, "the cell request alone");
    }
    // The malformed request queued behind most of the held flight, and
    // its recorded latency includes that wait.
    let waited_ns = (HOLD_MS / 2) * 1_000_000;
    assert!(queue.max >= waited_ns, "queue max {} ns", queue.max);
    assert!(
        request.sum >= queue.sum + HOLD_MS * 1_000_000,
        "{request:?} vs {queue:?}"
    );
    assert_eq!(handle.shutdown().stranded_workers, 0);
}
