//! Perf-trajectory tooling behind the `trend` binary: a pretty-printer
//! for the [`Json`] tree `olab_core::fmtutil` parses, the v1 → v2
//! `BENCH_*.json` schema migration, and the regression gate CI runs
//! against the checked-in trajectory.
//!
//! # Schema
//!
//! v1 `BENCH_*.json` files were a single snapshot object. v2 keeps every
//! snapshot, newest last:
//!
//! ```json
//! {
//!   "bench": "cell_cost",
//!   "schema_version": 2,
//!   "trajectory": [ { "commit": "...", "mode": "full", ... }, ... ]
//! }
//! ```
//!
//! [`migrate`] wraps a v1 snapshot into the v2 envelope (the snapshot
//! becomes the first trajectory entry); [`append`] pushes a fresh entry;
//! [`check`] compares a candidate entry against the **last same-mode**
//! trajectory entry (smoke runs gate against smoke baselines, full runs
//! against full — the cell sizes differ, so cross-mode comparison would
//! be noise). The gate fails when the `cell_cost` lean fast-path median
//! regresses beyond `tolerance` × baseline, or the lean speedup collapses
//! below baseline ÷ `tolerance`. The wide default tolerance
//! ([`DEFAULT_TOLERANCE`]) is deliberate: shared CI runners jitter 2-3×,
//! so the gate catches order-of-magnitude regressions (a lost fast path,
//! an accidental O(n²)), not percent-level noise.

use olab_core::fmtutil::{json_escape, Json};
use std::fmt::Write as _;

/// Gate tolerance when `--tolerance` is absent: the candidate median may
/// be up to 3× the baseline before the gate fails. See the module docs
/// for why it is this wide.
pub const DEFAULT_TOLERANCE: f64 = 3.0;

/// Renders a value as pretty-printed JSON (2-space indent, newline at
/// end), matching the style of the hand-formatted `BENCH_*.json` files.
pub fn render(value: &Json) -> String {
    let mut out = String::new();
    render_into(value, 0, &mut out);
    out.push('\n');
    out
}

fn render_into(value: &Json, indent: usize, out: &mut String) {
    let pad = "  ".repeat(indent);
    let inner = "  ".repeat(indent + 1);
    match value {
        Json::Null => out.push_str("null"),
        Json::Bool(v) => {
            let _ = write!(out, "{v}");
        }
        Json::Num(n) => {
            if n.fract() == 0.0 && n.abs() < 9e15 {
                let _ = write!(out, "{}", *n as i64);
            } else {
                let _ = write!(out, "{n}");
            }
        }
        Json::Str(s) => {
            let _ = write!(out, "\"{}\"", json_escape(s));
        }
        Json::Arr(items) => {
            if items.is_empty() {
                out.push_str("[]");
                return;
            }
            out.push_str("[\n");
            for (i, item) in items.iter().enumerate() {
                out.push_str(&inner);
                render_into(item, indent + 1, out);
                out.push_str(if i + 1 < items.len() { ",\n" } else { "\n" });
            }
            out.push_str(&pad);
            out.push(']');
        }
        Json::Obj(pairs) => {
            if pairs.is_empty() {
                out.push_str("{}");
                return;
            }
            out.push_str("{\n");
            for (i, (k, v)) in pairs.iter().enumerate() {
                let _ = write!(out, "{inner}\"{}\": ", json_escape(k));
                render_into(v, indent + 1, out);
                out.push_str(if i + 1 < pairs.len() { ",\n" } else { "\n" });
            }
            out.push_str(&pad);
            out.push('}');
        }
    }
}

/// Wraps a root document into the v2 trajectory envelope. A document that
/// already has a `trajectory` array passes through unchanged; anything
/// else (a v1 snapshot) becomes the envelope's first entry.
pub fn migrate(root: Json) -> Json {
    if root.get("trajectory").is_some() {
        return root;
    }
    let bench = root
        .get("bench")
        .and_then(Json::as_str)
        .unwrap_or("unknown")
        .to_string();
    Json::Obj(vec![
        ("bench".to_string(), Json::Str(bench)),
        ("schema_version".to_string(), Json::Num(2.0)),
        ("trajectory".to_string(), Json::Arr(vec![root])),
    ])
}

/// Appends one snapshot entry to a v2 root (migrating a v1 root first).
///
/// # Errors
///
/// Fails when the migrated root somehow lacks a `trajectory` array —
/// i.e. the input had a non-array `trajectory` field.
pub fn append(root: Json, entry: Json) -> Result<Json, String> {
    let mut root = migrate(root);
    let Json::Obj(pairs) = &mut root else {
        return Err("trajectory root must be a JSON object".to_string());
    };
    match pairs.iter_mut().find(|(k, _)| k == "trajectory") {
        Some((_, Json::Arr(items))) => items.push(entry),
        _ => return Err("'trajectory' must be an array".to_string()),
    }
    Ok(root)
}

/// The mode tag of a snapshot entry; v1 entries predate the field and
/// were always full runs.
fn mode_of(entry: &Json) -> &str {
    entry.get("mode").and_then(Json::as_str).unwrap_or("full")
}

/// Digs `median_ns.fast_path_lean` (or any `section.key`) out of an entry.
fn metric(entry: &Json, section: &str, key: &str) -> Option<f64> {
    entry.get(section)?.get(key)?.as_f64()
}

/// The regression gate: compares a candidate `cell_cost` snapshot against
/// the last same-mode entry of a baseline trajectory.
///
/// Passing vacuously when the trajectory holds no same-mode entry is
/// deliberate — the first smoke run after the schema lands has nothing to
/// gate against, and failing there would block the entry that creates the
/// baseline.
///
/// # Errors
///
/// Returns a description of the regression (median beyond
/// `tolerance` × baseline, or speedup below baseline ÷ `tolerance`), or
/// of a malformed candidate (no lean-fast-path median at all).
pub fn check(baseline_root: &Json, candidate: &Json, tolerance: f64) -> Result<String, String> {
    let cand_median = metric(candidate, "median_ns", "fast_path_lean")
        .ok_or("candidate has no median_ns.fast_path_lean")?;
    let mode = mode_of(candidate);
    let trajectory = match migrate(baseline_root.clone()).get("trajectory").cloned() {
        Some(Json::Arr(items)) => items,
        _ => Vec::new(),
    };
    let Some(base) = trajectory.iter().rev().find(|e| mode_of(e) == mode) else {
        return Ok(format!(
            "no '{mode}' baseline in trajectory ({} entries) — gate passes vacuously",
            trajectory.len()
        ));
    };
    let base_median = metric(base, "median_ns", "fast_path_lean")
        .ok_or("baseline entry has no median_ns.fast_path_lean")?;
    if cand_median > tolerance * base_median {
        return Err(format!(
            "fast_path_lean median regressed: {cand_median:.0} ns vs baseline \
             {base_median:.0} ns (allowed {tolerance}x = {:.0} ns)",
            tolerance * base_median
        ));
    }
    let mut report = format!(
        "fast_path_lean median {cand_median:.0} ns within {tolerance}x of \
         baseline {base_median:.0} ns"
    );
    if let (Some(cand_speedup), Some(base_speedup)) = (
        candidate.get("fast_path_speedup").and_then(Json::as_f64),
        base.get("fast_path_speedup").and_then(Json::as_f64),
    ) {
        if cand_speedup < base_speedup / tolerance {
            return Err(format!(
                "fast_path_speedup collapsed: {cand_speedup:.2}x vs baseline \
                 {base_speedup:.2}x (floor {:.2}x)",
                base_speedup / tolerance
            ));
        }
        let _ = write!(
            report,
            "; speedup {cand_speedup:.2}x vs baseline {base_speedup:.2}x"
        );
    }
    Ok(report)
}

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

#[cfg(test)]
mod tests {
    use super::*;
    use olab_core::fmtutil::parse_json;

    fn v1_snapshot(lean_ns: f64, speedup: f64) -> Json {
        Json::Obj(vec![
            ("bench".into(), Json::Str("cell_cost".into())),
            (
                "median_ns".into(),
                Json::Obj(vec![("fast_path_lean".into(), Json::Num(lean_ns))]),
            ),
            ("fast_path_speedup".into(), Json::Num(speedup)),
        ])
    }

    #[test]
    fn parse_render_round_trips_a_bench_file() {
        let src = "{\n  \"bench\": \"cell_cost\",\n  \"tasks\": 3184,\n  \
                   \"median_ns\": {\n    \"fast_path_lean\": 121268\n  },\n  \
                   \"fast_path_speedup\": 8.16,\n  \"ok\": true,\n  \
                   \"none\": null,\n  \"list\": [1, 2, 3]\n}\n";
        let parsed = parse_json(src).expect("parses");
        let rendered = render(&parsed);
        assert_eq!(parse_json(&rendered).expect("re-parses"), parsed);
        olab_core::fmtutil::validate_json(&rendered).expect("render is valid JSON");
        assert_eq!(parsed.get("tasks").and_then(Json::as_f64), Some(3184.0));
        assert_eq!(
            parsed
                .get("median_ns")
                .and_then(|m| m.get("fast_path_lean")),
            Some(&Json::Num(121268.0))
        );
    }

    #[test]
    fn parse_rejects_malformed_documents() {
        for bad in ["", "{", "{\"a\" 1}", "[1,]", "{\"a\":1} x", "\"open"] {
            assert!(parse_json(bad).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn migrate_wraps_v1_and_passes_v2_through() {
        let v2 = migrate(v1_snapshot(100.0, 8.0));
        assert_eq!(
            v2.get("schema_version").and_then(Json::as_f64),
            Some(2.0),
            "v1 gets the envelope"
        );
        let Some(Json::Arr(items)) = v2.get("trajectory") else {
            panic!("trajectory array");
        };
        assert_eq!(items.len(), 1);
        assert_eq!(migrate(v2.clone()), v2, "v2 is a fixpoint");
    }

    #[test]
    fn append_grows_the_trajectory_newest_last() {
        let root = append(v1_snapshot(100.0, 8.0), v1_snapshot(90.0, 9.0)).unwrap();
        let Some(Json::Arr(items)) = root.get("trajectory") else {
            panic!("trajectory array");
        };
        assert_eq!(items.len(), 2);
        assert_eq!(
            metric(&items[1], "median_ns", "fast_path_lean"),
            Some(90.0),
            "newest entry is last"
        );
    }

    #[test]
    fn check_passes_within_tolerance_and_fails_beyond() {
        let baseline = v1_snapshot(100.0, 8.0);
        assert!(check(&baseline, &v1_snapshot(250.0, 7.0), 3.0).is_ok());
        let err = check(&baseline, &v1_snapshot(301.0, 8.0), 3.0).unwrap_err();
        assert!(err.contains("regressed"), "{err}");
        let err = check(&baseline, &v1_snapshot(100.0, 2.0), 3.0).unwrap_err();
        assert!(err.contains("speedup collapsed"), "{err}");
    }

    #[test]
    fn check_gates_against_the_last_same_mode_entry() {
        let mut smoke = v1_snapshot(50.0, 8.0);
        if let Json::Obj(pairs) = &mut smoke {
            pairs.push(("mode".into(), Json::Str("smoke".into())));
        }
        let root = append(v1_snapshot(1000.0, 8.0), smoke.clone()).unwrap();
        // A smoke candidate compares against the smoke entry (50 ns), not
        // the much larger full-run entry.
        let mut cand = v1_snapshot(200.0, 8.0);
        if let Json::Obj(pairs) = &mut cand {
            pairs.push(("mode".into(), Json::Str("smoke".into())));
        }
        let err = check(&root, &cand, 3.0).unwrap_err();
        assert!(err.contains("150 ns"), "3x the smoke baseline: {err}");
        // A full candidate gates against the full entry and passes.
        assert!(check(&root, &v1_snapshot(2000.0, 8.0), 3.0).is_ok());
    }

    #[test]
    fn check_passes_vacuously_without_a_same_mode_baseline() {
        let mut cand = v1_snapshot(100.0, 8.0);
        if let Json::Obj(pairs) = &mut cand {
            pairs.push(("mode".into(), Json::Str("smoke".into())));
        }
        let report = check(&v1_snapshot(1.0, 8.0), &cand, 3.0).unwrap();
        assert!(report.contains("vacuously"), "{report}");
    }
}
