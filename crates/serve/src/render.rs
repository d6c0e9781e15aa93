//! The canonical cell-result body: one JSON object, byte-stable.
//!
//! Both the daemon's `/v1/cell` route and the offline `--oneshot` path
//! render through [`render_cell_body`], which is what makes the service
//! contract checkable: a served body must be byte-identical to what an
//! offline sweep of the same cell would print. Floats are fixed to six
//! decimal places (the observability layer's convention) so the bytes
//! don't drift across platforms or libm versions printing shortest-form.

use std::fmt::Write as _;

use olab_core::fmtutil::json_escape;
use olab_core::{CellError, CellMetrics, CellOutcome};

/// Renders one cell outcome as a single JSON line (with trailing
/// newline): the canonical response body.
///
/// Feasible cells carry the paper's metrics; infeasible cells (out of
/// memory, invalid configuration — the paper's missing bars) are
/// first-class results with `"ok": false` and the same error wording the
/// offline sweep prints.
pub fn render_cell_body(descriptor: &str, outcome: &CellOutcome) -> String {
    let mut out = String::with_capacity(512);
    let _ = write!(out, "{{\"descriptor\": \"{}\"", json_escape(descriptor));
    match outcome {
        Ok(cell) => {
            let _ = write!(out, ", \"ok\": true");
            render_metrics(&mut out, cell);
        }
        Err(err) => {
            let _ = write!(
                out,
                ", \"ok\": false, \"error_kind\": \"{}\", \"error\": \"{}\"",
                error_kind(err),
                json_escape(&err.to_string())
            );
        }
    }
    out.push_str("}\n");
    out
}

fn render_metrics(out: &mut String, cell: &CellMetrics) {
    let m = &cell.metrics;
    let _ = write!(
        out,
        ", \"activation_policy\": \"{:?}\", \"compute_slowdown\": {:.6}, \
         \"overlap_ratio\": {:.6}, \"e2e_overlapped_s\": {:.6}, \"e2e_ideal_s\": {:.6}, \
         \"e2e_sequential_derived_s\": {:.6}, \"e2e_sequential_measured_s\": {:.6}, \
         \"avg_power_w\": {:.3}, \"peak_power_w\": {:.3}, \"avg_power_sequential_w\": {:.3}, \
         \"peak_power_sequential_w\": {:.3}, \"energy_j\": {:.3}, \"sampled_avg_w\": {:.3}, \
         \"sampled_peak_w\": {:.3}, \"ideal_simulated_e2e_s\": {:.6}, \"comm_s\": {:.6}, \
         \"overlapped_compute_s\": {:.6}, \"hidden_comm_s\": {:.6}",
        cell.activation_policy,
        m.compute_slowdown,
        m.overlap_ratio,
        m.e2e_overlapped_s,
        m.e2e_ideal_s,
        m.e2e_sequential_derived_s,
        m.e2e_sequential_measured_s,
        m.avg_power_w,
        m.peak_power_w,
        m.avg_power_sequential_w,
        m.peak_power_sequential_w,
        m.energy_j,
        cell.sampled_avg_w,
        cell.sampled_peak_w,
        cell.ideal_simulated_e2e_s,
        cell.comm_s,
        cell.overlapped_compute_s,
        cell.hidden_comm_s
    );
}

/// A stable machine-readable tag for each error class.
fn error_kind(err: &CellError) -> &'static str {
    match err {
        CellError::OutOfMemory { .. } => "out_of_memory",
        CellError::InvalidConfig(_) => "invalid_config",
        CellError::Sim(_) => "sim",
        CellError::Panic(_) => "panic",
        CellError::Timeout { .. } => "timeout",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use olab_core::fmtutil::validate_json;
    use olab_core::sweep::cell_descriptor;
    use olab_core::{Experiment, Strategy, Sweep};
    use olab_gpu::SkuKind;
    use olab_models::ModelPreset;

    fn cell() -> Experiment {
        Experiment::new(SkuKind::H100, 4, ModelPreset::Gpt3Xl, Strategy::Fsdp, 8).with_seq(128)
    }

    #[test]
    fn a_feasible_cell_renders_valid_json_with_the_paper_metrics() {
        let exp = cell();
        let outcome = &Sweep::new().run(std::slice::from_ref(&exp)).cells[0];
        let body = render_cell_body(&cell_descriptor(&exp), outcome);
        assert!(body.ends_with('\n'));
        validate_json(body.trim_end()).unwrap_or_else(|e| panic!("{body}: {e}"));
        assert!(body.contains("\"ok\": true"), "{body}");
        assert!(body.contains("\"overlap_ratio\": "), "{body}");
        assert!(body.contains("\"energy_j\": "), "{body}");
    }

    #[test]
    fn rendering_is_deterministic_across_runs() {
        let exp = cell();
        let a = render_cell_body(
            &cell_descriptor(&exp),
            &Sweep::new().run(std::slice::from_ref(&exp)).cells[0],
        );
        let b = render_cell_body(
            &cell_descriptor(&exp),
            &Sweep::new().run(std::slice::from_ref(&exp)).cells[0],
        );
        assert_eq!(a, b, "the canonical body must be byte-stable");
    }

    #[test]
    fn an_infeasible_cell_is_a_first_class_result() {
        let outcome: CellOutcome = Err(CellError::OutOfMemory {
            needed_gib: 120.0,
            budget_gib: 80.0,
        });
        let body = render_cell_body("olab-cell \"x\"", &outcome);
        validate_json(body.trim_end()).unwrap_or_else(|e| panic!("{body}: {e}"));
        assert!(body.contains("\"ok\": false"), "{body}");
        assert!(body.contains("\"error_kind\": \"out_of_memory\""), "{body}");
        assert!(body.contains("out of device memory"), "{body}");
    }
}
