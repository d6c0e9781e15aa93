//! Integration contract of the `olab-metrics` self-telemetry registry:
//! the deterministic section of both expositions is byte-identical
//! between a serial and a parallel sweep of the same grid, the JSON
//! exposition is well-formed, and every engine family is present once
//! the families have been touched — zeros included.
//!
//! Everything lives in one `#[test]` because the registry (and its
//! enable flag) is process-global: separate test threads would race on
//! `set_enabled`/`reset`.

use olab_core::fmtutil::validate_json;
use olab_core::{Experiment, Strategy, Sweep};
use olab_gpu::SkuKind;
use olab_models::ModelPreset;
use olab_sim::Workload;

/// The deterministic prefix of the Prometheus exposition — everything
/// above the wall-clock marker, exactly what CI extracts with `sed`.
fn prom_deterministic(prom: &str) -> String {
    prom.split("# ==== wall-clock")
        .next()
        .expect("split never yields zero pieces")
        .to_string()
}

/// The `"deterministic"` object of the JSON exposition, as raw text.
fn json_deterministic(json: &str) -> String {
    let start = json.find("\"deterministic\"").expect("deterministic key");
    let end = json.find("\"wall\"").expect("wall key");
    json[start..end].to_string()
}

fn grid() -> Vec<Experiment> {
    [4u64, 8, 16]
        .iter()
        .map(|&batch| {
            Experiment::new(SkuKind::H100, 4, ModelPreset::Gpt3Xl, Strategy::Fsdp, batch)
                .with_seq(256)
        })
        .collect()
}

/// Runs the grid at the given worker count on a fresh engine and returns
/// both expositions, resetting recorded values (not registrations) first
/// so each run is counted from zero.
fn sweep_expositions(jobs: usize) -> (String, String) {
    olab_metrics::reset();
    let outcome = Sweep::new().with_jobs(jobs).run(&grid());
    assert!(
        outcome.cells.iter().all(Result::is_ok),
        "sweep cells must succeed"
    );
    (olab_metrics::render_prom(), olab_metrics::render_json())
}

#[test]
fn deterministic_metric_fields_are_identical_across_schedules() {
    olab_metrics::set_enabled(true);
    olab_core::fastpath::touch_metrics();

    let (serial_prom, serial_json) = sweep_expositions(1);
    let (parallel_prom, parallel_json) = sweep_expositions(8);

    // The determinism contract: cross-run families must not depend on the
    // worker count or schedule.
    assert_eq!(
        prom_deterministic(&serial_prom),
        prom_deterministic(&parallel_prom),
        "prom deterministic sections diverge between --jobs 1 and --jobs 8"
    );
    assert_eq!(
        json_deterministic(&serial_json),
        json_deterministic(&parallel_json),
        "json deterministic sections diverge between --jobs 1 and --jobs 8"
    );

    // Both runs actually recorded: three cells simulated, attributed to a
    // route, and missed by the (fresh, memory-only) cache.
    for json in [&serial_json, &parallel_json] {
        validate_json(json).expect("exposition is well-formed JSON");
        assert!(json.contains("\"olab_sim_engine_runs_total\": 3"), "{json}");
        assert!(json.contains("\"olab_cache_misses_total\": 3"), "{json}");
    }

    // Family completeness: every engine family appears in the exposition
    // even when its path never ran (the guard saw no timeout, the disk
    // tier does not exist here).
    for family in [
        "olab_pool_tasks_total",
        "olab_pool_steals_total",
        "olab_pool_worker_busy_ns",
        "olab_guard_attempts_total",
        "olab_guard_timeouts_total",
        "olab_cache_memory_hits_total",
        "olab_cache_disk_hits_total",
        "olab_cache_quarantined_total",
        "olab_cache_evicted_total",
        "olab_cache_disk_scans_total",
        "olab_cache_insert_ns",
        "olab_cache_disk_write_ns",
        "olab_core_route_fast_lean_total",
        "olab_core_route_event_loop_full_total",
        "olab_core_cell_fast_lean_ns",
        "olab_core_pricing_reused_total",
        "olab_core_pricing_priced_total",
        "olab_sim_engine_runs_total",
        "olab_sim_engine_epochs_total",
        "olab_sim_arena_warm_resets_total",
        "olab_grid_cell_exec_ns",
    ] {
        assert!(serial_prom.contains(family), "prom lacks {family}");
        assert!(serial_json.contains(family), "json lacks {family}");
    }

    // Wall-clock families land after the marker, deterministic ones
    // before it.
    let det = prom_deterministic(&serial_prom);
    assert!(det.contains("olab_sim_engine_runs_total"));
    assert!(!det.contains("olab_pool_worker_busy_ns"));

    // Disabled again, recording becomes a no-op: the engine-run counter
    // stays frozen while a whole workload executes.
    olab_metrics::set_enabled(false);
    let frozen = olab_metrics::render_json();
    let mut w: Workload<()> = Workload::new(1);
    let unit = w.intern(());
    w.push(olab_sim::TaskSpec::compute("k0", olab_sim::GpuId(0), unit));
    olab_sim::Engine::new(olab_sim::ConstantRate::default())
        .run(&w)
        .expect("workload runs");
    assert_eq!(
        frozen,
        olab_metrics::render_json(),
        "a disabled registry must not move"
    );
}
