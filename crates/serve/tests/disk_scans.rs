//! A served cache hit never scans the disk tier, however many entries it
//! holds; `/readyz` reads the degradation latch and scans nothing;
//! `/healthz` reports occupancy with exactly one scan. Scans are counted
//! by `olab_cache_disk_scans_total`.
//!
//! One `#[test]` per process: the counter is process-wide.

use olab_serve::{start, ServeConfig};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};

/// One request; returns the status code and the body.
fn get(addr: SocketAddr, target: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    write!(stream, "GET {target} HTTP/1.1\r\nHost: t\r\n\r\n").unwrap();
    let mut raw = String::new();
    stream.read_to_string(&mut raw).expect("read response");
    let (head, body) = raw.split_once("\r\n\r\n").expect("header/body split");
    let status = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .expect("numeric status");
    (status, body.to_string())
}

fn scans() -> u64 {
    olab_metrics::counter(
        "olab_cache_disk_scans_total",
        olab_metrics::Determinism::CrossRun,
        "Disk-tier directory scans (health snapshots and cap enforcement).",
    )
    .get()
}

#[test]
fn a_served_hit_scans_nothing_and_healthz_scans_once() {
    let dir = std::env::temp_dir().join(format!("olab-serve-scans-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    // A tier of a few hundred entries, so a per-request scan would have
    // real work to do. Their keys name no servable cell.
    const ENTRIES: u64 = 300;
    for key in 0..ENTRIES {
        std::fs::write(dir.join(format!("{key:016x}.cell")), b"occupant").unwrap();
    }
    let handle = start(ServeConfig {
        cache_dir: Some(dir.clone()),
        ..ServeConfig::default()
    })
    .expect("server starts");
    let addr = handle.addr();
    let target = "/v1/cell?seq=128&batch=2";

    let (status, cold) = get(addr, target);
    assert_eq!(status, 200, "{cold}");

    let before = scans();
    for _ in 0..5 {
        let (status, body) = get(addr, target);
        assert_eq!((status, body.as_str()), (200, cold.as_str()));
    }
    assert_eq!(scans() - before, 0, "a served hit scans nothing");

    let before = scans();
    assert_eq!(get(addr, "/readyz"), (200, "ready\n".to_string()));
    assert_eq!(scans() - before, 0, "/readyz reads the latch");

    let before = scans();
    let (status, body) = get(addr, "/healthz");
    assert_eq!(status, 200);
    assert!(
        body.contains(&format!("\"disk_entries\": {}", ENTRIES + 1)),
        "{body}"
    );
    assert_eq!(scans() - before, 1, "/healthz scans exactly once");

    assert_eq!(handle.shutdown().stranded_workers, 0);
    let _ = std::fs::remove_dir_all(&dir);
}
