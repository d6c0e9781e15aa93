//! overlap-lab's benchmark: one command, three seeded single-threaded
//! workloads, every output verified, every host time speed-corrected.
//!
//! ```text
//! cargo run --release --offline --manifest-path benchmark/Cargo.toml -- \
//!     --workload grid_cold|jitter_repeats|serve_whatif --seed N --seconds S --trace 0|1
//! ```
//!
//! The last line of standard output is the result: `correct`, `attempted`,
//! `failed` and `metrics` (end-to-end metrics with `--trace 0`, per-layer
//! metrics with `--trace 1`). The line before it is the run's steadiness
//! record, also written to `benchmark/out/`. See `benchmark/README.md`.

mod inputs;
mod kernel;
mod serve;
mod stats;
mod trace;
mod workloads;

use kernel::Meter;
use olab_core::sweep::CachedCell;
use olab_core::{registry, CellOutcome, Experiment, Sweep};
use olab_grid::{CacheValue, Writer};
use stats::{HeadlineExpectation, Percentile};
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

/// Workload names, as `--workload` takes them.
const WORKLOADS: [&str; 3] = ["grid_cold", "jitter_repeats", "serve_whatif"];

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    /// Which workload to run.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measurement budget, seconds.
    pub seconds: f64,
    /// Per-layer traced run instead of the timed end-to-end run.
    pub trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("{flag}: cannot parse '{value}'");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| s.is_finite() && *s > 0.0)
                        .ok_or_else(bad)?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    let workload = workload.ok_or("missing --workload")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload '{workload}' (expected {})",
            WORKLOADS.join("|")
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
    })
}

/// The benchmark's own output directory.
pub fn out_dir() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out"))
}

const REFERENCE_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/reference/main_grid.digests");
const HEADLINE_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../results/headline.md");

/// FNV-1a digest of a cell's cache encoding: equal digests mean every
/// field of the `CellMetrics` (or error) is bit-identical.
pub fn digest(cell: &CachedCell) -> u64 {
    let mut w = Writer::new();
    cell.encode(&mut w);
    olab_grid::fnv1a_64(&w.into_bytes())
}

/// [`digest`] of a sweep outcome.
pub fn digest_outcome(outcome: &CellOutcome) -> u64 {
    digest(&CachedCell(outcome.clone()))
}

/// The recorded `GridJob::execute` digests of `registry::main_grid()`, by
/// grid index.
pub fn load_reference(grid: &[Experiment]) -> Result<Vec<u64>, String> {
    let text = std::fs::read_to_string(REFERENCE_PATH)
        .map_err(|e| format!("reading {REFERENCE_PATH}: {e}"))?;
    let mut out = Vec::with_capacity(grid.len());
    for line in text.lines().filter(|l| !l.starts_with('#')) {
        let mut fields = line.split_whitespace();
        let (Some(key), Some(value)) = (fields.next(), fields.next()) else {
            return Err(format!("malformed reference line '{line}'"));
        };
        let parse = |h: &str| u64::from_str_radix(h, 16).map_err(|_| format!("bad hex '{h}'"));
        let i = out.len();
        let cell = grid
            .get(i)
            .ok_or("reference has more cells than the grid")?;
        if parse(key)? != olab_core::sweep::cell_key(cell) {
            return Err(format!(
                "reference cell {i} is not '{}': re-record with --write-reference",
                cell.label()
            ));
        }
        out.push(parse(value)?);
    }
    if out.len() != grid.len() {
        return Err("reference has fewer cells than the grid".into());
    }
    Ok(out)
}

fn write_reference() -> Result<(), String> {
    let grid = registry::main_grid();
    let cells = Sweep::new().with_jobs(1).run(&grid).cells;
    let mut text = String::from(
        "# cell_key digest of GridJob::execute's CachedCell encoding, one line per\n\
         # registry::main_grid() cell. Regenerate with --write-reference.\n",
    );
    for (e, c) in grid.iter().zip(&cells) {
        let _ = writeln!(
            text,
            "{:016x} {:016x}",
            olab_core::sweep::cell_key(e),
            digest_outcome(c)
        );
    }
    std::fs::write(REFERENCE_PATH, text).map_err(|e| format!("writing {REFERENCE_PATH}: {e}"))
}

/// The headline figures `results/headline.md` records.
pub fn load_headline() -> Result<HeadlineExpectation, String> {
    let md = std::fs::read_to_string(HEADLINE_PATH)
        .map_err(|e| format!("reading {HEADLINE_PATH}: {e}"))?;
    HeadlineExpectation::parse(&md)
}

/// One field of `/proc/self/status`, in its own unit (kB for sizes).
fn proc_status(field: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))?
        .split_whitespace()
        .next()?
        .parse()
        .ok()
}

/// Peak resident set size, MiB.
pub fn peak_rss_mib() -> f64 {
    proc_status("VmHWM").unwrap_or(0) as f64 / 1024.0
}

/// Tracks the process's peak thread count.
#[derive(Debug, Default)]
pub struct ThreadWatch {
    /// Largest `Threads:` value seen.
    pub peak: u64,
}

impl ThreadWatch {
    /// Reads the current thread count.
    pub fn sample(&mut self) {
        self.peak = self.peak.max(proc_status("Threads").unwrap_or(0));
    }
}

/// Verification tally: operations attempted and failed, with the first few
/// failure reasons kept for the record.
#[derive(Debug, Default)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed verification or errored.
    pub failed: u64,
    /// The first failure reasons.
    pub notes: Vec<String>,
}

impl Tally {
    /// Counts one operation, failed unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.fail(what());
        }
    }

    /// Counts a failure of an operation already attempted.
    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.notes.len() < 8 {
            self.notes.push(what);
        }
    }
}

/// A run's key/value steadiness record, rendered as one JSON object.
#[derive(Debug, Default)]
pub struct Record(Vec<(String, String)>);

impl Record {
    /// Adds a number.
    pub fn num(&mut self, key: &str, v: f64) {
        self.0.push((key.into(), json_num(v)));
    }

    /// Adds a string.
    pub fn text(&mut self, key: &str, v: &str) {
        self.0.push((key.into(), json_str(v)));
    }

    /// Adds a list of strings.
    pub fn texts(&mut self, key: &str, v: &[String]) {
        let items: Vec<String> = v.iter().map(|x| json_str(x)).collect();
        self.0.push((key.into(), format!("[{}]", items.join(", "))));
    }

    /// Adds a list of numbers.
    pub fn nums(&mut self, key: &str, v: &[f64]) {
        let items: Vec<String> = v.iter().map(|x| json_num(*x)).collect();
        self.0.push((key.into(), format!("[{}]", items.join(", "))));
    }

    /// Adds a percentile with its sample counts.
    pub fn percentile(&mut self, key: &str, p: &Percentile) {
        self.0.push((
            key.into(),
            format!(
                "{{\"pct\": {}, \"value\": {}, \"samples\": {}, \"beyond\": {}}}",
                json_num(p.pct),
                json_num(p.value),
                p.samples,
                p.beyond
            ),
        ));
    }

    fn render(&self) -> String {
        let fields: Vec<String> = self
            .0
            .iter()
            .map(|(k, v)| format!("\"{k}\": {v}"))
            .collect();
        format!("{{{}}}", fields.join(", "))
    }
}

fn json_str(v: &str) -> String {
    format!("\"{}\"", olab_core::fmtutil::json_escape(v))
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".into()
    }
}

/// `(name, value, unit)` of one printed metric.
pub type Metric = (&'static str, f64, &'static str);

/// What a workload hands back: the verification tally, its metrics and
/// its steadiness record.
pub struct Report {
    /// Operations attempted and failed.
    pub tally: Tally,
    /// Every metric the mode prints.
    pub metrics: Vec<Metric>,
    /// Steadiness diagnostics.
    pub record: Record,
}

/// Corrected and raw time of every pass, milliseconds.
pub struct Passes {
    /// Speed-corrected pass times.
    pub corrected: Vec<f64>,
    /// Raw pass times.
    pub raw: Vec<f64>,
}

/// Runs `pass` repeatedly until `budget_s` of wall time has gone by (and at
/// least `min_passes` times), closing the meter's chunk after each pass.
pub fn run_passes(
    meter: &mut Meter,
    budget_s: f64,
    min_passes: usize,
    mut pass: impl FnMut(&mut Meter),
) -> Passes {
    let start = Instant::now();
    let mut passes = Passes {
        corrected: Vec::new(),
        raw: Vec::new(),
    };
    while passes.corrected.len() < min_passes || start.elapsed().as_secs_f64() < budget_s {
        let first = meter.len();
        pass(meter);
        meter.flush();
        passes
            .corrected
            .push(meter.corrected_ms[first..].iter().sum());
        passes.raw.push(meter.raw_ms[first..].iter().sum());
    }
    passes
}

/// Set-up repetitions per run; the median is reported.
pub const SETUP_REPS: usize = 5;

/// Runs `setup` [`SETUP_REPS`] times, each timed and corrected on its own;
/// returns the corrected and raw seconds of every repetition.
pub fn measure_setup(mut setup: impl FnMut()) -> Passes {
    let mut meter = Meter::new();
    for _ in 0..SETUP_REPS {
        meter.time(&mut setup);
        meter.flush();
    }
    let s = |v: &[f64]| v.iter().map(|ms| ms / 1e3).collect::<Vec<_>>();
    Passes {
        corrected: s(&meter.corrected_ms),
        raw: s(&meter.raw_ms),
    }
}

/// Operations per second over the median pass of `ops_per_pass`
/// operations.
pub fn per_second(ops_per_pass: usize, pass_ms: &[f64]) -> f64 {
    ops_per_pass as f64 / (stats::median(pass_ms) / 1e3)
}

/// The end-to-end metrics and steadiness record shared by all three
/// workloads. Every pass is the same `ops_per_pass` operations, so the
/// throughput comes from the median pass.
pub fn end_to_end(
    meter: &Meter,
    passes: &Passes,
    ops_per_pass: usize,
    setup: &Passes,
    headline_err_pp: f64,
    threads: &ThreadWatch,
) -> (Vec<Metric>, Record) {
    let cps = per_second(ops_per_pass, &passes.corrected);
    let p50 = stats::tail_percentile(&meter.corrected_ms, 50.0);
    let p99 = stats::tail_percentile(&meter.corrected_ms, 99.0);
    let metrics = vec![
        ("cells_per_s", cps, "1/s"),
        ("latency_p50_ms", p50.value, "ms"),
        ("latency_p99_ms", p99.value, "ms"),
        ("peak_rss_mib", peak_rss_mib(), "MiB"),
        ("setup_s", stats::median(&setup.corrected), "s"),
        ("headline_err_pp", headline_err_pp, "pp"),
    ];
    let mut r = Record::default();
    r.num("ops", meter.len() as f64);
    r.num("passes", passes.corrected.len() as f64);
    r.num("ops_per_pass", ops_per_pass as f64);
    r.num("cells_per_s_corrected", cps);
    r.num("cells_per_s_raw", per_second(ops_per_pass, &passes.raw));
    r.nums("pass_ms_corrected", &passes.corrected);
    r.nums("pass_ms_raw", &passes.raw);
    r.percentile("latency_p50_ms_corrected", &p50);
    r.percentile("latency_p99_ms_corrected", &p99);
    r.percentile(
        "latency_p50_ms_raw",
        &stats::tail_percentile(&meter.raw_ms, 50.0),
    );
    r.percentile(
        "latency_p99_ms_raw",
        &stats::tail_percentile(&meter.raw_ms, 99.0),
    );
    r.nums("setup_s_corrected", &setup.corrected);
    r.nums("setup_s_raw", &setup.raw);
    ref_diagnostics(&mut r, meter);
    r.num("threads_peak", threads.peak as f64);
    r.num("nproc", nproc() as f64);
    (metrics, r)
}

/// The reference kernel's own timing: median and spread of its probes.
pub fn ref_diagnostics(r: &mut Record, meter: &Meter) {
    r.num("bench.ref_ms", stats::median(&meter.probes_ms));
    r.num("bench.ref_cv", stats::cv(&meter.probes_ms));
    r.num("ref_probes", meter.probes_ms.len() as f64);
    r.num("ref_nominal_ms", kernel::NOMINAL_REF_MS);
}

/// Cores available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

fn render_result(report: &Report) -> String {
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_num(*value)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.tally.failed == 0 && report.tally.attempted > 0,
        report.tally.attempted,
        report.tally.failed,
        metrics.join(", ")
    )
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("--write-reference") {
        return match write_reference() {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("olab-perfbench: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("olab-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let result = match args.workload.as_str() {
        "grid_cold" => workloads::grid_cold(&args),
        "jitter_repeats" => workloads::jitter_repeats(&args),
        _ => serve::serve_whatif(&args),
    };
    let mut report = match result {
        Ok(report) => report,
        Err(e) => {
            eprintln!("olab-perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let r = &mut report.record;
    r.text("workload", &args.workload);
    r.num("seed", args.seed as f64);
    r.num("seconds", args.seconds);
    r.num("trace", f64::from(u8::from(args.trace)));
    r.num("attempted", report.tally.attempted as f64);
    r.num("failed", report.tally.failed as f64);
    r.texts("failures", &report.tally.notes);
    let record = r.render();
    let dir = out_dir();
    let name = format!(
        "record-{}-seed{}-trace{}.json",
        args.workload,
        args.seed,
        u8::from(args.trace)
    );
    if let Err(e) = std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(dir.join(name), format!("{record}\n")))
    {
        eprintln!("olab-perfbench: cannot write the run record: {e}");
    }
    println!("{{\"record\": {record}}}");
    println!("{}", render_result(&report));
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_a_full_command_line() {
        let a = parse_args(&argv(
            "--workload grid_cold --seed 3 --seconds 10 --trace 1",
        ))
        .unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("grid_cold", 3, 10.0, true)
        );
    }

    #[test]
    fn rejects_bad_command_lines() {
        for bad in [
            "--workload nope --seed 1 --seconds 1 --trace 0",
            "--workload grid_cold --seed x --seconds 1 --trace 0",
            "--workload grid_cold --seed 1 --seconds 0 --trace 0",
            "--workload grid_cold --seed 1 --seconds 1 --trace 2",
            "--workload grid_cold --seed 1 --seconds 1",
            "--workload grid_cold --seed 1 --seconds 1 --trace 0 --extra 1",
        ] {
            assert!(parse_args(&argv(bad)).is_err(), "{bad}");
        }
    }

    #[test]
    fn records_render_as_json() {
        let mut r = Record::default();
        r.num("x", 1.5);
        r.num("nan", f64::NAN);
        r.text("s", "a \"quoted\" note");
        r.texts("failures", &["one".into(), "two".into()]);
        r.nums("v", &[1.0, 2.0]);
        let json = r.render();
        assert!(olab_core::fmtutil::validate_json(&json).is_ok(), "{json}");
    }

    #[test]
    fn recorded_reference_matches_the_current_grid() {
        let grid = registry::main_grid();
        assert_eq!(load_reference(&grid).expect("loads").len(), grid.len());
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let report = Report {
            tally: Tally {
                attempted: 2,
                failed: 0,
                notes: Vec::new(),
            },
            metrics: vec![("setup_s", 0.5, "s")],
            record: Record::default(),
        };
        let line = render_result(&report);
        assert!(olab_core::fmtutil::validate_json(&line).is_ok());
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 2, \"failed\": 0, \"metrics\": {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
    }
}
