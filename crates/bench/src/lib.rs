//! # olab-bench — figure & table regeneration
//!
//! Every table and figure of the paper, plus the ablation studies beyond
//! it, is one entry of the [`figures::FIGURES`] registry: a name, the file
//! it owns under the repository's `results/` directory, and a render
//! function. The `regen` binary renders every entry through one shared
//! [`Sweep`](olab_core::Sweep) and rewrites `results/`, so a grid used by
//! several figures (the 160-cell main grid behind Fig. 4, 5, 6 and the
//! headline) is simulated once and then served from the memory cache.
//!
//! | entry     | reproduces |
//! |-----------|------------|
//! | `table1`  | Table I — GPU inventory |
//! | `table2`  | Table II — workloads |
//! | `fig1`    | Fig. 1 — overlap amount vs model/batch |
//! | `fig4`    | Fig. 4 — compute slowdown grid |
//! | `fig5`    | Fig. 5 — E2E latency: ideal/overlapped/sequential |
//! | `fig6`    | Fig. 6 — average & peak power |
//! | `fig7`    | Fig. 7 — MI250 power trace (1 ms sampling, CSV) |
//! | `fig8`    | Fig. 8 — GEMM ∥ 1 GB all-reduce microbenchmark |
//! | `fig9`    | Fig. 9 — power capping on 4×A100 |
//! | `fig10`   | Fig. 10 — FP16 vs FP32 |
//! | `fig11`   | Fig. 11 — tensor cores (TF32) vs FP32 vector |
//! | `headline`| the abstract's aggregate statistics |
//! | `methodology` | the paper's 25-run averaging under measurement noise |
//! | `roofline` | per-SKU machine-balance points |
//! | `ablation_*` | design-space studies beyond the paper |
//!
//! Regenerate everything with `cargo run --release -p olab-bench --bin regen`.
//!
//! The other binaries are tools, not regenerators:
//!
//! | binary    | purpose |
//! |-----------|---------|
//! | `conformance` | closed-form-oracle gate over every registry grid (exits 1 on divergence) |
//! | `cell_cost` | per-path cost of one paper cell (`BENCH_cell.json` snapshots) |
//! | `grid_soak` | chaos soak of the sweep engine: a faulted run must be bit-identical to a clean one |
//! | `serve_soak` | live-socket soak of `olab serve`: coalescing storm, shed, deadline, client chaos, degradation, drain |
//! | `trend`   | perf-trajectory tooling: appends `cell_cost`/`grid_soak`/`serve_soak` snapshots to the `BENCH_*.json` trajectories and gates candidates against them (exits 1 on regression) |
//!
//! Criterion benches (`cargo bench`) measure the simulator itself.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod ablations;
pub mod figures;
pub mod trend;

/// The checked-in `results/` directory that `regen` rewrites.
pub const RESULTS_DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../results");
