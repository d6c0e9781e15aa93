//! Which operations scan the disk tier, counted by
//! `olab_cache_disk_scans_total`: a run of hits scans nothing, even
//! capped and on a tier of hundreds of entries; a capped run that stored
//! a cell scans once, to enforce the cap; `ResultCache::health` scans
//! once per call.
//!
//! Everything lives in one `#[test]` because the counter is process-wide:
//! separate test threads would race on it.

use olab_grid::{CacheValue, Executor, GridJob, Reader, Writer};
use std::path::PathBuf;

/// A toy cell: its value is its input.
struct Echo(u64);

#[derive(Debug, Clone, PartialEq)]
struct Value(u64);

impl CacheValue for Value {
    fn encode(&self, w: &mut Writer) {
        w.put_u64(self.0);
    }
    fn decode(r: &mut Reader<'_>) -> Option<Self> {
        r.get_u64().map(Value)
    }
}

impl GridJob for Echo {
    type Output = Value;
    fn descriptor(&self) -> String {
        format!("disk scan cell {}", self.0)
    }
    fn execute(&self) -> Value {
        Value(self.0)
    }
}

fn cells(range: std::ops::Range<u64>) -> Vec<Echo> {
    range.map(Echo).collect()
}

fn scans() -> u64 {
    olab_metrics::counter(
        "olab_cache_disk_scans_total",
        olab_metrics::Determinism::CrossRun,
        "Disk-tier directory scans (health snapshots and cap enforcement).",
    )
    .get()
}

fn temp_dir() -> PathBuf {
    let dir = std::env::temp_dir().join(format!("olab-grid-scans-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn only_health_and_storing_capped_runs_scan_the_disk_tier() {
    olab_metrics::set_enabled(true);
    let dir = temp_dir();
    let roomy = 1 << 30;

    // Opening with a cap enforces it once, right away.
    let before = scans();
    let engine = Executor::new()
        .with_jobs(2)
        .with_disk_cache(&dir)
        .unwrap()
        .with_cache_cap(roomy);
    assert_eq!(scans() - before, 1, "with_cache_cap enforces once");

    // A cold run stores 300 cells and enforces the cap once at its end.
    let before = scans();
    let cold = engine.run(&cells(0..300));
    assert_eq!(cold.stats.simulated, 300);
    assert_eq!(scans() - before, 1, "a capped run that stored scans once");

    // A warm run of memory hits stores nothing, so it scans nothing.
    let before = scans();
    let warm = engine.run(&cells(0..300));
    assert_eq!(warm.stats.memory_hits, 300);
    assert_eq!(scans() - before, 0, "a capped run of hits scans nothing");

    // Single-cell hits, as a server issues them, scan nothing either.
    let before = scans();
    for i in [0, 150, 299] {
        assert_eq!(engine.run(&cells(i..i + 1)).stats.memory_hits, 1);
    }
    assert_eq!(scans() - before, 0, "a served hit scans nothing");

    // Occupancy is a snapshot someone asked for: one scan per call.
    let before = scans();
    let health = engine.cache().health();
    assert_eq!(health.disk_entries, 300);
    assert_eq!(scans() - before, 1, "health scans once");

    // A capped run that stored one new cell among hits scans once.
    let before = scans();
    let mixed = engine.run(&cells(299..301));
    assert_eq!((mixed.stats.memory_hits, mixed.stats.simulated), (1, 1));
    assert_eq!(scans() - before, 1, "one store, one enforcement");
    drop(engine);

    // A fresh capped engine serves the tier as disk hits: one scan to
    // enforce at open, none for the run.
    let engine = Executor::<Value>::new()
        .with_disk_cache(&dir)
        .unwrap()
        .with_cache_cap(roomy);
    let before = scans();
    let reopened = engine.run(&cells(0..301));
    assert_eq!(reopened.stats.disk_hits, 301);
    assert_eq!(scans() - before, 0, "a run of disk hits scans nothing");
    drop(engine);

    // Without a cap there is nothing to enforce: a storing run scans
    // nothing.
    let engine = Executor::new().with_disk_cache(&dir).unwrap();
    let before = scans();
    let uncapped = engine.run(&cells(301..310));
    assert_eq!(uncapped.stats.simulated, 9);
    assert_eq!(scans() - before, 0, "an uncapped run never scans");
    drop(engine);

    let _ = std::fs::remove_dir_all(&dir);
}
