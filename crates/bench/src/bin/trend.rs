//! Perf-trajectory CLI over the `BENCH_*.json` files:
//!
//! ```text
//! trend append --into BENCH_cell.json --entry snapshot.json
//! trend check  --baseline BENCH_cell.json --candidate snapshot.json [--tolerance 3.0]
//! ```
//!
//! `append` migrates a v1 single-snapshot baseline to the v2 trajectory
//! envelope if needed and pushes the entry (newest last). `check` runs
//! the regression gate of [`olab_bench::trend::check`] and exits 1 on a
//! regression, so CI can call it directly after a `cell_cost --smoke`
//! run. Both subcommands print what they decided.

use olab_bench::trend::{self, DEFAULT_TOLERANCE};
use olab_core::fmtutil::{parse_json, Json};

fn usage() -> ! {
    eprintln!(
        "usage:\n  trend append --into FILE --entry FILE\n  \
         trend check --baseline FILE --candidate FILE [--tolerance {DEFAULT_TOLERANCE}]"
    );
    std::process::exit(2);
}

fn flag(args: &[String], name: &str) -> Option<String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1).cloned())
}

fn load(path: &str) -> Json {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("trend: {path}: {e}");
        std::process::exit(2);
    });
    parse_json(&text).unwrap_or_else(|e| {
        eprintln!("trend: {path}: {e}");
        std::process::exit(2);
    })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("append") => {
            let (Some(into), Some(entry_path)) = (flag(&args, "--into"), flag(&args, "--entry"))
            else {
                usage()
            };
            // A missing baseline starts a fresh trajectory from the entry.
            let entry = load(&entry_path);
            let root = if std::path::Path::new(&into).exists() {
                trend::append(load(&into), entry)
            } else {
                Ok(trend::migrate(entry))
            }
            .unwrap_or_else(|e| {
                eprintln!("trend: {into}: {e}");
                std::process::exit(2);
            });
            let rendered = trend::render(&root);
            olab_core::fmtutil::validate_json(&rendered).expect("trajectory JSON is well-formed");
            std::fs::write(&into, rendered).unwrap_or_else(|e| {
                eprintln!("trend: {into}: {e}");
                std::process::exit(2);
            });
            let entries = match root.get("trajectory") {
                Some(Json::Arr(items)) => items.len(),
                _ => 0,
            };
            println!("trend: appended {entry_path} -> {into} ({entries} entries)");
        }
        Some("check") => {
            let (Some(baseline), Some(candidate)) =
                (flag(&args, "--baseline"), flag(&args, "--candidate"))
            else {
                usage()
            };
            let tolerance = match flag(&args, "--tolerance") {
                None => DEFAULT_TOLERANCE,
                Some(t) => t.parse().unwrap_or_else(|_| {
                    eprintln!("trend: --tolerance: cannot parse '{t}'");
                    std::process::exit(2);
                }),
            };
            match trend::check(&load(&baseline), &load(&candidate), tolerance) {
                Ok(report) => println!("trend: OK — {report}"),
                Err(regression) => {
                    eprintln!("trend: REGRESSION — {regression}");
                    std::process::exit(1);
                }
            }
        }
        _ => usage(),
    }
}
