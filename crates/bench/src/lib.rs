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
//! The other binary is a tool, not a regenerator:
//!
//! | binary    | purpose |
//! |-----------|---------|
//! | `conformance` | closed-form-oracle gate over every registry grid (exits 1 on divergence) |
//!
//! Timing the simulator is the job of the repository's `benchmark/`
//! package (see `benchmark/README.md`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod ablations;
pub mod figures;

/// The checked-in `results/` directory that `regen` rewrites.
pub const RESULTS_DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../results");

/// The short hash of the commit being benchmarked, or `"unknown"` outside
/// a git checkout (tarball builds, vendored sources).
pub fn current_commit() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}
