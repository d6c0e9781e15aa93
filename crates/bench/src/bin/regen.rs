//! Regenerates every table, figure and ablation in the repository's
//! `results/` directory from the [`FIGURES`] registry.
//!
//! All sweep-backed figures share one environment-configured sweep
//! (`OLAB_JOBS`, `OLAB_CACHE_DIR`, ...), so a grid several figures read is
//! simulated once; each sweep logs an `[olab-grid]` telemetry line to
//! stderr. Takes no arguments:
//!
//! ```sh
//! cargo run --release -p olab-bench --bin regen
//! ```

use olab_bench::figures::FIGURES;
use olab_bench::RESULTS_DIR;
use olab_core::Sweep;
use std::path::Path;

fn main() {
    let sweep = Sweep::from_env();
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
