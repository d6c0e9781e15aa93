//! Chaos soak harness for the sweep engine: proves the hardening story
//! end to end by running a large grid under deterministic fault injection
//! and asserting the chaotic run is **bit-identical** to a clean one.
//!
//! Phases:
//!
//! * **clean** — the reference: every cell computed serially, no chaos,
//!   dumped byte-for-byte to `soak-clean.dump`;
//! * **pool chaos** — injected worker panics and slow cells against a
//!   per-cell deadline and retry budget; the run must heal (retries > 0,
//!   timeouts > 0, zero failed cells) and dump identically to the clean
//!   reference (`soak-chaos.dump`, compared with `cmp` in CI);
//! * **cache chaos** — torn writes and leaked tmp files against a disk
//!   cache; a clean reopen must quarantine every torn entry, reap stale
//!   tmps from a provably dead writer, and still serve only correct
//!   values;
//! * **ENOSPC** — every disk write fails; the cache must latch into
//!   memory-only degradation and the sweep must still finish correctly;
//! * **eviction** — a byte-capped cache filled serially and in parallel
//!   must evict to the identical set of surviving entries.
//!
//! Prints one JSON snapshot to stdout, and also writes it to `<path>`
//! when given `--out <path>`; `--smoke` shrinks the grid for CI (the full
//! run soaks >= 1000 cells). The soak runs with the `olab-metrics`
//! registry enabled and reports its per-cell execution-latency quantiles
//! straight from the `olab_grid_cell_exec_ns` histogram; each snapshot is
//! stamped with the commit and mode.

use olab_core::fmtutil::validate_json;
use olab_grid::{
    fnv1a_64, CacheValue, CellFailure, ChaosPlan, Executor, GridJob, GuardConfig, Reader, Writer,
};
use std::path::{Path, PathBuf};

/// One synthetic sweep cell: a cheap, pure, deterministic function of its
/// id, with a payload whose size varies by cell so eviction and torn
/// writes see realistic byte diversity.
#[derive(Debug, Clone)]
struct SoakCell {
    id: u64,
}

#[derive(Debug, Clone, PartialEq)]
struct SoakValue {
    id: u64,
    digest: u64,
    series: Vec<f64>,
}

impl CacheValue for SoakValue {
    fn encode(&self, w: &mut Writer) {
        w.put_u64(self.id);
        w.put_u64(self.digest);
        w.put_u64(self.series.len() as u64);
        for v in &self.series {
            w.put_f64(*v);
        }
    }
    fn decode(r: &mut Reader<'_>) -> Option<Self> {
        let id = r.get_u64()?;
        let digest = r.get_u64()?;
        let n = r.get_u64()? as usize;
        let mut series = Vec::with_capacity(n.min(1 << 16));
        for _ in 0..n {
            series.push(r.get_f64()?);
        }
        Some(SoakValue { id, digest, series })
    }
}

impl GridJob for SoakCell {
    type Output = SoakValue;

    fn descriptor(&self) -> String {
        format!("grid-soak cell {:05}", self.id)
    }

    fn execute(&self) -> SoakValue {
        let n = 8 + (self.id % 23) as usize;
        let mut series = Vec::with_capacity(n);
        let mut x = fnv1a_64(&self.id.to_le_bytes());
        let mut digest = x;
        for _ in 0..n {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let v = (x >> 11) as f64 / (1u64 << 53) as f64;
            digest = fnv1a_64(&[digest.to_le_bytes(), v.to_bits().to_le_bytes()].concat());
            series.push(v);
        }
        SoakValue {
            id: self.id,
            digest,
            series,
        }
    }
}

/// Serializes a full outcome vector into one deterministic byte blob so
/// two runs can be compared with a single `==` (or `cmp` on the dumps).
fn dump(outputs: &[Result<SoakValue, CellFailure>]) -> Vec<u8> {
    let mut w = Writer::new();
    for (i, slot) in outputs.iter().enumerate() {
        w.put_u64(i as u64);
        match slot {
            Ok(v) => {
                w.put_u8(1);
                v.encode(&mut w);
            }
            Err(e) => {
                w.put_u8(0);
                w.put_str(&e.to_string());
            }
        }
    }
    w.into_bytes()
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("olab-grid-soak-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Sorted `(file name, size)` listing of a cache directory — the shape
/// the eviction-determinism assertion compares.
fn disk_listing(dir: &Path) -> Vec<(String, u64)> {
    let mut entries: Vec<(String, u64)> = std::fs::read_dir(dir)
        .expect("cache dir readable")
        .flatten()
        .filter(|e| e.file_name().to_string_lossy().ends_with(".cell"))
        .map(|e| {
            let bytes = e.metadata().map(|m| m.len()).unwrap_or(0);
            (e.file_name().to_string_lossy().into_owned(), bytes)
        })
        .collect();
    entries.sort();
    entries
}

/// Injected chaos panics are expected by the thousand; keep them off
/// stderr while forwarding every real panic to the previous hook.
fn silence_chaos_panics() {
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let msg = info
            .payload()
            .downcast_ref::<String>()
            .map(|s| s.as_str())
            .or_else(|| info.payload().downcast_ref::<&str>().copied());
        if msg.is_some_and(|m| m.starts_with("chaos:")) {
            return;
        }
        prev(info);
    }));
}

#[cfg(target_os = "linux")]
fn find_dead_pid() -> Option<u32> {
    (400_000..500_000).find(|p| !Path::new("/proc").join(p.to_string()).exists())
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1).cloned());

    silence_chaos_panics();

    // Soak with self-telemetry on: every computed cell lands in the
    // `olab_grid_cell_exec_ns` histogram the report reads at the end.
    olab_metrics::set_enabled(true);
    olab_grid::metrics::touch();

    let n_cells: u64 = if smoke { 400 } else { 1200 };
    let cells: Vec<SoakCell> = (0..n_cells).map(|id| SoakCell { id }).collect();

    // Phase 1 — clean serial reference.
    let clean_run = Executor::new().with_jobs(1).run(&cells);
    assert!(
        clean_run.outputs.iter().all(|o| o.is_ok()),
        "the clean run must not fail any cell"
    );
    let clean_dump = dump(&clean_run.outputs);
    std::fs::write("soak-clean.dump", &clean_dump).expect("write clean dump");

    // Phase 2 — pool chaos: panics healed by retries, slow cells caught
    // by the deadline and healed by a fast retry.
    let guard = GuardConfig {
        cell_timeout_s: Some(0.05),
        retries: 6,
        backoff_base_s: 0.001,
        backoff_cap_s: 0.01,
    };
    let pool_plan = ChaosPlan {
        seed: 20250807,
        panic_permille: 100,
        slow_cell_permille: 60,
        slow_cell_ms: 120,
        ..ChaosPlan::default()
    };
    let chaos_run = Executor::new()
        .with_jobs(4)
        .with_guard(guard)
        .with_chaos(pool_plan)
        .run(&cells);
    let chaos_dump = dump(&chaos_run.outputs);
    std::fs::write("soak-chaos.dump", &chaos_dump).expect("write chaos dump");
    assert_eq!(
        chaos_dump, clean_dump,
        "a chaotic run must be bit-identical to the clean reference"
    );
    assert!(
        chaos_run.stats.retries > 0,
        "chaos must have forced retries"
    );
    assert!(
        chaos_run.stats.timeouts > 0,
        "slow cells must have tripped the deadline"
    );
    assert_eq!(chaos_run.stats.panicked, 0, "every cell must have healed");

    // Phase 3 — cache chaos: torn writes and leaked tmps on disk, then a
    // clean reopen that must quarantine, reap, and recompute.
    let dir_cache = temp_dir("cache");
    let cache_plan = ChaosPlan {
        seed: 11,
        torn_write_permille: 150,
        rename_fail_permille: 100,
        ..ChaosPlan::default()
    };
    let torn_writer = Executor::new()
        .with_jobs(4)
        .with_chaos(cache_plan)
        .with_disk_cache(&dir_cache)
        .expect("cache dir creatable");
    let torn_run = torn_writer.run(&cells);
    assert_eq!(
        dump(&torn_run.outputs),
        clean_dump,
        "cache faults must never leak into returned values"
    );
    drop(torn_writer);

    let leaked: Vec<PathBuf> = std::fs::read_dir(&dir_cache)
        .expect("cache dir readable")
        .flatten()
        .map(|e| e.path())
        .filter(|p| p.to_string_lossy().ends_with(".tmp"))
        .collect();
    assert!(
        !leaked.is_empty(),
        "rename-fail chaos must have leaked tmp files"
    );
    #[cfg(target_os = "linux")]
    let expect_reap = if let Some(dead) = find_dead_pid() {
        // Re-attribute one leaked tmp to a provably dead writer; the next
        // open must reap it (live-pid tmps stay untouched).
        let dead_name = dir_cache.join(format!("{:016x}.{dead}.1.0.tmp", u64::MAX));
        std::fs::rename(&leaked[0], &dead_name).expect("rename leaked tmp");
        true
    } else {
        false
    };
    #[cfg(not(target_os = "linux"))]
    let expect_reap = false;

    let reader = Executor::<SoakValue>::new()
        .with_jobs(4)
        .with_disk_cache(&dir_cache)
        .expect("cache dir reopenable");
    if expect_reap {
        assert!(
            reader.cache().counters().tmp_reaped >= 1,
            "the dead writer's tmp must be reaped at open"
        );
    }
    let reread_run = reader.run(&cells);
    assert_eq!(
        dump(&reread_run.outputs),
        clean_dump,
        "no torn entry may ever be served"
    );
    assert!(
        reread_run.stats.quarantined > 0,
        "torn-write chaos must have produced quarantined entries"
    );
    let quarantined = reread_run.stats.quarantined;
    let tmp_reaped = reader.cache().counters().tmp_reaped;
    drop(reader);
    let _ = std::fs::remove_dir_all(&dir_cache);

    // Phase 4 — ENOSPC on every write: one strike latches memory-only
    // degradation; results are unaffected.
    let dir_full = temp_dir("enospc");
    let full_disk = Executor::new()
        .with_jobs(4)
        .with_chaos(ChaosPlan {
            seed: 5,
            enospc_permille: 1000,
            ..ChaosPlan::default()
        })
        .with_disk_cache(&dir_full)
        .expect("cache dir creatable");
    let degraded_run = full_disk.run(&cells);
    assert_eq!(
        dump(&degraded_run.outputs),
        clean_dump,
        "degradation must not change results"
    );
    assert!(
        degraded_run.stats.degraded,
        "a full disk must latch degradation"
    );
    let health = full_disk.cache().health();
    assert!(health.degraded && health.degraded_reason.is_some());
    drop(full_disk);
    let _ = std::fs::remove_dir_all(&dir_full);

    // Phase 5 — deterministic eviction: serial and parallel fills of a
    // byte-capped cache must leave the identical surviving set.
    let cap_bytes: u64 = 20_000;
    let dir_serial = temp_dir("evict-serial");
    let dir_parallel = temp_dir("evict-parallel");
    let serial = Executor::<SoakValue>::new()
        .with_jobs(1)
        .with_disk_cache(&dir_serial)
        .expect("cache dir creatable")
        .with_cache_cap(cap_bytes);
    let serial_run = serial.run(&cells);
    let parallel = Executor::<SoakValue>::new()
        .with_jobs(4)
        .with_disk_cache(&dir_parallel)
        .expect("cache dir creatable")
        .with_cache_cap(cap_bytes);
    let parallel_run = parallel.run(&cells);
    assert!(
        serial_run.stats.evicted > 0,
        "the cap must be small enough to force eviction"
    );
    assert_eq!(
        serial_run.stats.evicted, parallel_run.stats.evicted,
        "eviction counts must not depend on worker count"
    );
    let surviving = disk_listing(&dir_serial);
    assert_eq!(
        surviving,
        disk_listing(&dir_parallel),
        "the surviving entry set must be byte-identical across schedules"
    );
    let survivor_bytes: u64 = surviving.iter().map(|(_, b)| b).sum();
    assert!(
        survivor_bytes <= cap_bytes,
        "survivors ({survivor_bytes} B) must respect the cap ({cap_bytes} B)"
    );
    let evicted = serial_run.stats.evicted;
    drop(serial);
    drop(parallel);
    let _ = std::fs::remove_dir_all(&dir_serial);
    let _ = std::fs::remove_dir_all(&dir_parallel);

    // Cell-latency quantiles across every computed cell of every phase,
    // straight from the registry histogram the executor feeds.
    let exec = olab_metrics::histogram(
        "olab_grid_cell_exec_ns",
        "Wall-clock of each computed (non-cached) cell execution.",
    )
    .snapshot();
    let mode = if smoke { "smoke" } else { "full" };
    let commit = olab_bench::current_commit();

    let json = format!(
        "{{\n  \"bench\": \"grid_soak\",\n  \"commit\": \"{}\",\n  \"mode\": \"{}\",\n  \"cells\": {},\n  \"chaos_identical\": true,\n  \"cell_exec_ns\": {{\n    \"count\": {},\n    \"p50\": {},\n    \"p99\": {},\n    \"max\": {}\n  }},\n  \"pool_chaos\": {{\n    \"retries\": {},\n    \"timeouts\": {},\n    \"failed_cells\": {}\n  }},\n  \"cache_chaos\": {{\n    \"quarantined\": {},\n    \"tmp_reaped\": {},\n    \"leaked_tmps\": {}\n  }},\n  \"degradation\": {{\n    \"latched\": {}\n  }},\n  \"eviction\": {{\n    \"cap_bytes\": {},\n    \"evicted\": {},\n    \"surviving_entries\": {},\n    \"surviving_bytes\": {},\n    \"deterministic\": true\n  }}\n}}\n",
        olab_core::fmtutil::json_escape(&commit),
        mode,
        n_cells,
        exec.count,
        exec.p50(),
        exec.p99(),
        exec.max,
        chaos_run.stats.retries,
        chaos_run.stats.timeouts,
        chaos_run.stats.panicked,
        quarantined,
        tmp_reaped,
        leaked.len(),
        degraded_run.stats.degraded,
        cap_bytes,
        evicted,
        surviving.len(),
        survivor_bytes,
    );
    validate_json(&json).expect("benchmark JSON is well-formed");
    if let Some(path) = &out_path {
        std::fs::write(path, &json).expect("write benchmark JSON");
    }
    print!("{json}");
    eprintln!(
        "grid_soak: {n_cells} cells, chaos run bit-identical to clean ({} retries, {} timeouts, \
         {} quarantined, {} evicted)",
        chaos_run.stats.retries, chaos_run.stats.timeouts, quarantined, evicted
    );
}
