//! Cross-crate integration of the `olab-grid` sweep engine: parallel
//! execution is bit-identical to serial, warm caches re-simulate nothing,
//! and cache keys cover the full cell configuration.

use olab_core::sweep::{
    cell_descriptor, cell_descriptor_versioned, cell_key, CachedCell, CELL_SCHEMA_VERSION,
};
use olab_core::{registry, CellError, CellMetrics, Experiment, Strategy, Sweep};
use olab_gpu::SkuKind;
use olab_grid::{CacheValue, Executor, GridJob, Pool, Writer};
use olab_models::ModelPreset;

/// The paper's main grid, shrunk to a fast sequence length so the full
/// 160-cell sweep stays debug-mode friendly. Cell structure (every SKU ×
/// model × strategy × batch, including the infeasible A100 cells) is
/// unchanged.
fn fast_main_grid() -> Vec<Experiment> {
    registry::main_grid()
        .into_iter()
        .map(|e| e.with_seq(256))
        .collect()
}

#[test]
fn parallel_main_grid_is_bit_identical_to_serial() {
    let grid = fast_main_grid();
    let serial = Sweep::new().with_jobs(1).run(&grid);
    let parallel = Sweep::new().with_jobs(4).run(&grid);
    assert_eq!(serial.cells.len(), grid.len());
    assert_eq!(parallel.cells.len(), grid.len());
    for (i, (s, p)) in serial.cells.iter().zip(&parallel.cells).enumerate() {
        match (s, p) {
            (Ok(a), Ok(b)) => {
                // Bit-level equality, not approximate: the simulator is
                // deterministic and the pool must not perturb it.
                let pairs = [
                    (a.metrics.e2e_overlapped_s, b.metrics.e2e_overlapped_s),
                    (a.metrics.e2e_ideal_s, b.metrics.e2e_ideal_s),
                    (
                        a.metrics.e2e_sequential_measured_s,
                        b.metrics.e2e_sequential_measured_s,
                    ),
                    (a.metrics.compute_slowdown, b.metrics.compute_slowdown),
                    (a.metrics.overlap_ratio, b.metrics.overlap_ratio),
                    (a.metrics.avg_power_w, b.metrics.avg_power_w),
                    (a.metrics.peak_power_w, b.metrics.peak_power_w),
                    (a.metrics.energy_j, b.metrics.energy_j),
                    (a.sampled_avg_w, b.sampled_avg_w),
                    (a.sampled_peak_w, b.sampled_peak_w),
                    (a.comm_s, b.comm_s),
                    (a.overlapped_compute_s, b.overlapped_compute_s),
                    (a.hidden_comm_s, b.hidden_comm_s),
                ];
                for (x, y) in pairs {
                    assert_eq!(
                        x.to_bits(),
                        y.to_bits(),
                        "cell {i} ({}): serial {x} != parallel {y}",
                        grid[i].label()
                    );
                }
            }
            (Err(a), Err(b)) => assert_eq!(a, b, "cell {i}"),
            (s, p) => panic!("cell {i}: serial {s:?} vs parallel {p:?}"),
        }
    }
}

#[test]
fn warm_cache_rerun_simulates_nothing() {
    let grid = fast_main_grid();
    let sweep = Sweep::new().with_jobs(4);

    let cold = sweep.run(&grid);
    assert_eq!(cold.stats.simulated, grid.len(), "cold run simulates all");
    assert_eq!(cold.stats.cache_hits(), 0);

    let warm = sweep.run(&grid);
    assert_eq!(warm.stats.simulated, 0, "warm run simulates nothing");
    assert_eq!(warm.stats.memory_hits, grid.len());
    assert_eq!(warm.stats.hit_rate(), 1.0);
    assert_eq!(cold.cells, warm.cells, "cached outcomes are identical");

    // Infeasible cells (the paper's missing bars) are cached too — the
    // warm pass served them without re-validating.
    assert!(
        cold.cells.iter().any(|c| c.is_err()),
        "main grid has infeasible cells"
    );
}

#[test]
fn disk_cache_survives_engine_restarts() {
    let dir = std::env::temp_dir().join(format!("olab-grid-itest-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let cell =
        Experiment::new(SkuKind::H100, 4, ModelPreset::Gpt3Xl, Strategy::Fsdp, 8).with_seq(256);
    let grid = vec![cell];

    let first = Sweep::from(
        Executor::new()
            .with_jobs(2)
            .with_disk_cache(&dir)
            .expect("cache dir creatable"),
    );
    let cold = first.run(&grid);
    assert_eq!(cold.stats.simulated, 1);
    first.executor().cache().flush();

    // A fresh engine (empty memory tier) must hit the disk tier.
    let second = Sweep::from(
        Executor::new()
            .with_jobs(2)
            .with_disk_cache(&dir)
            .expect("cache dir reusable"),
    );
    let warm = second.run(&grid);
    assert_eq!(warm.stats.simulated, 0, "disk hit, no simulation");
    assert_eq!(warm.stats.disk_hits, 1);
    assert_eq!(cold.cells, warm.cells);

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn cache_keys_are_stable_and_version_sensitive() {
    let cell = Experiment::new(SkuKind::H100, 4, ModelPreset::Gpt3Xl, Strategy::Fsdp, 8);
    // Stable: the same configuration always hashes to the same key.
    assert_eq!(cell_key(&cell), cell_key(&cell.clone()));
    // Sensitive: any configuration change produces a different key …
    assert_ne!(cell_key(&cell), cell_key(&cell.clone().with_seq(512)));
    // … and so does a calibration-constant bump, invalidating stale
    // results cached by older builds.
    let current = cell_descriptor(&cell);
    let bumped = cell_descriptor_versioned(
        &cell,
        CELL_SCHEMA_VERSION,
        olab_gpu::CALIBRATION_VERSION + 1,
    );
    assert_ne!(current, bumped);
}

#[test]
fn run_n_is_deterministic_and_seed_ordered() {
    let cell =
        Experiment::new(SkuKind::H100, 4, ModelPreset::Gpt3Xl, Strategy::Fsdp, 8).with_seq(256);
    let a = cell.run_n(4, 0.05).expect("jittered runs succeed");
    let b = cell.run_n(4, 0.05).expect("jittered runs succeed");
    assert_eq!(a.runs.len(), 4);
    for (x, y) in a.runs.iter().zip(&b.runs) {
        assert_eq!(
            x.e2e_overlapped_s.to_bits(),
            y.e2e_overlapped_s.to_bits(),
            "per-seed results must be reproducible across parallel runs"
        );
    }
    // Different seeds actually differ (the jitter is applied per seed).
    assert!(
        a.runs
            .iter()
            .any(|r| r.e2e_overlapped_s.to_bits() != a.runs[0].e2e_overlapped_s.to_bits()),
        "jitter must vary across seeds"
    );
}

/// Every cell of the figure registry: the main grid and the Fig. 1a, 1b,
/// 7, 9, 10 and 11 grids.
fn registry_cells() -> Vec<Experiment> {
    let mut cells = registry::main_grid();
    cells.extend(registry::fig1a());
    cells.extend(registry::fig1b());
    cells.push(registry::fig7());
    cells.extend(registry::fig9());
    for (a, b) in registry::fig10().into_iter().chain(registry::fig11()) {
        cells.push(a);
        cells.push(b);
    }
    cells
}

fn encoded(cell: &CachedCell) -> Vec<u8> {
    let mut w = Writer::new();
    cell.encode(&mut w);
    w.into_bytes()
}

/// The grid path (`GridJob::execute`, scalars only) and the report path
/// (`Experiment::run`, full traces) must cache the same bytes for every
/// registry cell, feasible or not.
#[test]
fn grid_path_caches_the_report_paths_bytes_on_every_registry_cell() {
    let cells = registry_cells();
    let mismatches: Vec<String> = Pool::with_available_parallelism()
        .map(&cells, |exp| {
            let report = CachedCell(
                exp.run()
                    .map(|r| CellMetrics::from_report(&r))
                    .map_err(CellError::from),
            );
            (encoded(&exp.execute()) != encoded(&report)).then(|| exp.label())
        })
        .into_iter()
        .flatten()
        .collect();
    assert!(
        mismatches.is_empty(),
        "{} of {} registry cells differ between the grid and report paths, first: {:?}",
        mismatches.len(),
        cells.len(),
        &mismatches[..mismatches.len().min(10)]
    );
}

#[test]
fn run_n_equals_the_jittered_reports() {
    let cells = [
        Experiment::new(SkuKind::H100, 4, ModelPreset::Gpt3Xl, Strategy::Fsdp, 8).with_seq(256),
        Experiment::new(
            SkuKind::Mi250,
            4,
            ModelPreset::Gpt3Xl,
            Strategy::Pipeline { microbatch_size: 2 },
            8,
        )
        .with_seq(256),
        Experiment::new(
            SkuKind::A100,
            4,
            ModelPreset::Gpt3Xl,
            Strategy::TensorParallel,
            4,
        )
        .with_seq(256),
    ];
    for exp in &cells {
        let stats = exp.run_n(3, 0.05).expect("jittered runs succeed");
        for (seed, run) in stats.runs.iter().enumerate() {
            let report = exp.run_jittered(seed as u64, 0.05).expect("runs");
            assert_eq!(run, &report.metrics, "{} seed {seed}", exp.label());
        }
    }
}
