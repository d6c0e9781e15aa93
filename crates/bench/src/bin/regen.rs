//! Regenerates every table, figure and ablation in the repository's
//! `results/` directory from the [`FIGURES`] registry.
//!
//! All sweep-backed figures share one sweep, so a grid several figures
//! read is simulated once; each sweep logs an `[olab-grid]` telemetry
//! line to stderr. Takes no arguments; two environment variables
//! configure the shared sweep:
//!
//! - `OLAB_JOBS=N`: worker threads (default: all cores);
//! - `OLAB_CACHE_DIR=DIR`: a persistent result cache (default: in-memory).
//!
//! An unset or empty variable keeps the default. A value that does not
//! parse, or a cache directory that cannot be created, is an error.
//!
//! ```sh
//! cargo run --release -p olab-bench --bin regen
//! ```

use olab_bench::figures::FIGURES;
use olab_bench::RESULTS_DIR;
use olab_core::Sweep;
use olab_grid::Executor;
use std::path::Path;

fn main() {
    let sweep = shared_sweep().unwrap_or_else(|e| {
        eprintln!("regen: {e}");
        std::process::exit(2);
    });
    for figure in FIGURES {
        let text = (figure.render)(&sweep);
        let path = Path::new(RESULTS_DIR).join(figure.file);
        if let Err(e) = std::fs::write(&path, text) {
            eprintln!("regen: cannot write {}: {e}", path.display());
            std::process::exit(1);
        }
        eprintln!("regen: {} -> results/{}", figure.name, figure.file);
    }
}

/// The sweep every figure shares, configured from `OLAB_JOBS` and
/// `OLAB_CACHE_DIR`.
fn shared_sweep() -> Result<Sweep, String> {
    let mut engine = Executor::new();
    if let Some(jobs) = env("OLAB_JOBS") {
        let workers = jobs
            .parse()
            .map_err(|_| format!("OLAB_JOBS: cannot parse '{jobs}'"))?;
        engine = engine.with_jobs(workers);
    }
    if let Some(dir) = env("OLAB_CACHE_DIR") {
        engine = engine
            .with_disk_cache(&dir)
            .map_err(|e| format!("OLAB_CACHE_DIR {dir}: {e}"))?;
    }
    Ok(Sweep::from(engine))
}

/// A set, non-empty environment variable.
fn env(name: &str) -> Option<String> {
    std::env::var(name).ok().filter(|v| !v.is_empty())
}
