//! Hand-rolled argument parsing.
//!
//! [`FLAGS`] is the one place that says which subcommand accepts which
//! flag. [`parse`] works in three steps: it splits argv into flag/value
//! pairs (the table names the bare switches), checks every flag against
//! the subcommand in argv order, and only then parses the values into the
//! per-subcommand structs.

use olab_core::adaptive::Objective;
use olab_core::Strategy;
use olab_gpu::{Datapath, Precision, SkuKind};
use olab_models::ModelPreset;
use std::error::Error;
use std::fmt;

/// A user-facing CLI error.
#[derive(Debug, Clone, PartialEq)]
pub struct CliError(pub String);

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl Error for CliError {}

impl From<String> for CliError {
    fn from(message: String) -> Self {
        CliError(message)
    }
}

impl From<olab_core::ExperimentError> for CliError {
    fn from(e: olab_core::ExperimentError) -> Self {
        CliError(format!("experiment failed: {e}"))
    }
}

/// A subcommand that takes flags. `help` is not one: it ignores its flags.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sub {
    /// `olab list`.
    List,
    /// `olab run`.
    Run,
    /// `olab sweep`.
    Sweep,
    /// `olab trace`.
    Trace,
    /// `olab tune`.
    Tune,
    /// `olab chrome`.
    Chrome,
    /// `olab faults`.
    Faults,
    /// `olab resilience`.
    Resilience,
    /// `olab observe`.
    Observe,
    /// `olab serve`.
    Serve,
}

impl Sub {
    /// Every subcommand that takes flags.
    pub const ALL: [Sub; 10] = [
        Sub::List,
        Sub::Run,
        Sub::Sweep,
        Sub::Trace,
        Sub::Tune,
        Sub::Chrome,
        Sub::Faults,
        Sub::Resilience,
        Sub::Observe,
        Sub::Serve,
    ];

    /// The subcommand as typed.
    pub fn name(self) -> &'static str {
        match self {
            Sub::List => "list",
            Sub::Run => "run",
            Sub::Sweep => "sweep",
            Sub::Trace => "trace",
            Sub::Tune => "tune",
            Sub::Chrome => "chrome",
            Sub::Faults => "faults",
            Sub::Resilience => "resilience",
            Sub::Observe => "observe",
            Sub::Serve => "serve",
        }
    }
}

/// One row of [`FLAGS`].
#[derive(Debug)]
pub struct Flag {
    /// The flag as typed.
    pub name: &'static str,
    /// Whether the next word is its value; `false` for a bare switch.
    pub takes_value: bool,
    /// The subcommands that accept it.
    pub accepted_by: &'static [Sub],
    /// How every other subcommand rejects it. The first entry that lists
    /// the subcommand gives the hint in `{flag} is not supported by
    /// '{sub}' {hint}`; a subcommand no entry lists reports
    /// `unknown flag '{flag}'`.
    pub hints: &'static [Hint],
}

/// The subcommands a rejection hint applies to, and the hint.
pub type Hint = (&'static [Sub], &'static str);

use Sub::{Chrome, Faults, List, Observe, Resilience, Run, Serve, Sweep, Trace, Tune};

/// The subcommands that describe a cell with the shared flags.
const CELL: &[Sub] = &[Run, Sweep, Trace, Tune, Chrome, Faults, Resilience, Observe];
/// The subcommands that run cells under the engine's guard, long enough
/// to expose telemetry.
const GUARDED: &[Sub] = &[Sweep, Faults, Observe, Serve];
const OBSERVE_HINT: Hint = (&Sub::ALL, "(use sweep, faults, or the observe subcommand)");
const GUARD_HINT: Hint = (&Sub::ALL, "(use sweep, faults, or observe)");
const METRICS_HINT: Hint = (&Sub::ALL, "(use sweep, faults, observe, or serve)");
const RECOVERY_HINT: Hint = (
    &Sub::ALL,
    "(use the faults subcommand; 'resilience' compares every policy)",
);
const CAP_HINT: Hint = (&[Observe], "(the cap applies to sweep/faults disk caches)");
const CSV_HINTS: &[Hint] = &[
    (&[Serve], "(responses are JSON lines)"),
    (&[Observe], "(it writes artifact files, not a table)"),
];
const JOBS_HINT: Hint = (&[Observe], "(it runs one cell)");
const ALWAYS_OBSERVES_HINT: Hint = (&[Observe], "(it always observes)");

const fn value(name: &'static str, accepted_by: &'static [Sub], hints: &'static [Hint]) -> Flag {
    Flag {
        name,
        takes_value: true,
        accepted_by,
        hints,
    }
}

const fn switch(name: &'static str, accepted_by: &'static [Sub], hints: &'static [Hint]) -> Flag {
    Flag {
        name,
        takes_value: false,
        accepted_by,
        hints,
    }
}

/// Which subcommand accepts which flag, and how the others reject it.
#[rustfmt::skip]
pub const FLAGS: &[Flag] = &[
    value("--sku", CELL, &[]),
    value("--gpus", CELL, &[]),
    value("--model", CELL, &[]),
    value("--strategy", CELL, &[]),
    value("--microbatch", CELL, &[]),
    value("--batch", CELL, &[]),
    value("--seq", CELL, &[]),
    value("--precision", CELL, &[]),
    value("--datapath", CELL, &[]),
    value("--power-cap", CELL, &[]),
    value("--freq-cap", CELL, &[]),
    value("--grad-accum", CELL, &[]),
    switch("--csv", &[Run, Sweep, Trace, Tune, Chrome, Faults, Resilience], CSV_HINTS),
    value("--jobs", &[Sweep, Faults, Resilience, Serve], &[JOBS_HINT]),
    value("--cache", &[Sweep, Faults, Serve], &[]),
    value("--cache-max-bytes", &[Sweep, Faults, Serve], &[CAP_HINT, GUARD_HINT]),
    value("--cell-timeout-s", GUARDED, &[GUARD_HINT]),
    value("--metrics", GUARDED, &[METRICS_HINT]),
    switch("--metrics-deterministic", GUARDED, &[METRICS_HINT]),
    value("--batches", &[Sweep], &[]),
    switch("--observe", &[Sweep, Faults], &[ALWAYS_OBSERVES_HINT, OBSERVE_HINT]),
    value("--out-dir", &[Sweep, Faults, Observe], &[]),
    value("--sample-ms", &[Sweep, Faults, Observe], &[]),
    value("--interval-ms", &[Trace], &[]),
    value("--objective", &[Tune], &[]),
    value("--seed", &[Faults, Resilience], &[]),
    value("--seeds", &[Faults, Resilience], &[]),
    value("--severity", &[Faults, Resilience, Observe], &[]),
    value("--action", &[Faults, Observe], &[]),
    value("--recovery", &[Faults], &[RECOVERY_HINT]),
    value("--ckpt-interval-s", &[Faults], &[RECOVERY_HINT]),
    value("--cell", &[Observe], &[]),
    value("--fault-seed", &[Observe], &[]),
    value("--addr", &[Serve], &[]),
    value("--max-queue", &[Serve], &[]),
    value("--http-workers", &[Serve], &[]),
    value("--drain-timeout-s", &[Serve], &[]),
    value("--log", &[Serve], &[]),
    value("--oneshot", &[Serve], &[]),
];

/// Shared experiment arguments.
#[derive(Debug, Clone)]
pub struct RunArgs {
    /// GPU SKU.
    pub sku: SkuKind,
    /// GPUs in the node.
    pub gpus: usize,
    /// Workload.
    pub model: ModelPreset,
    /// Distribution strategy.
    pub strategy: Strategy,
    /// Batch size (per-rank for FSDP, global otherwise).
    pub batch: u64,
    /// Sequence length.
    pub seq: u64,
    /// Numeric precision.
    pub precision: Precision,
    /// Matrix-kernel datapath.
    pub datapath: Datapath,
    /// Optional strict power cap, watts.
    pub power_cap: Option<f64>,
    /// Optional clock cap (fraction of boost).
    pub freq_cap: Option<f64>,
    /// Gradient-accumulation micro-steps (FSDP).
    pub grad_accum: u32,
    /// Emit CSV instead of aligned text.
    pub csv: bool,
}

impl Default for RunArgs {
    fn default() -> Self {
        RunArgs {
            sku: SkuKind::H100,
            gpus: 4,
            model: ModelPreset::Gpt3_2_7B,
            strategy: Strategy::Fsdp,
            batch: 8,
            seq: 1024,
            precision: Precision::Fp16,
            datapath: Datapath::TensorCore,
            power_cap: None,
            freq_cap: None,
            grad_accum: 1,
            csv: false,
        }
    }
}

impl RunArgs {
    /// Builds the experiment these arguments describe.
    pub fn experiment(&self) -> olab_core::Experiment {
        let mut e =
            olab_core::Experiment::new(self.sku, self.gpus, self.model, self.strategy, self.batch)
                .with_seq(self.seq)
                .with_precision(self.precision)
                .with_datapath(self.datapath)
                .with_grad_accum(self.grad_accum);
        if let Some(cap) = self.power_cap {
            e = e.with_power_cap(cap);
        }
        if let Some(f) = self.freq_cap {
            e = e.with_freq_cap(f);
        }
        e
    }

    /// Parses one cell flag (or `--csv`) into its field; `false` when
    /// `flag` is not one of them.
    fn set(&mut self, flag: &str, value: &str) -> Result<bool, CliError> {
        match flag {
            "--sku" => self.sku = value.parse()?,
            "--gpus" => self.gpus = num(flag, value)?,
            "--model" => self.model = value.parse()?,
            "--strategy" => self.strategy = value.parse()?,
            "--batch" => self.batch = num(flag, value)?,
            "--seq" => self.seq = num(flag, value)?,
            "--precision" => self.precision = value.parse()?,
            "--datapath" => self.datapath = value.parse()?,
            "--power-cap" => self.power_cap = Some(num(flag, value)?),
            "--freq-cap" => self.freq_cap = Some(num(flag, value)?),
            "--grad-accum" => self.grad_accum = num(flag, value)?,
            "--microbatch" => {
                self.strategy = Strategy::Pipeline {
                    microbatch_size: num(flag, value)?,
                }
            }
            "--csv" => self.csv = true,
            _ => return Ok(false),
        }
        Ok(true)
    }
}

/// The grid-engine flags. `sweep`, `faults` and `serve` embed them;
/// `resilience` and `observe` take the fields they accept from here.
#[derive(Debug, Clone, Default)]
pub struct EngineArgs {
    /// Worker threads (`--jobs N`; `1` forces a serial sweep). `None`
    /// uses `available_parallelism`.
    pub jobs: Option<usize>,
    /// Persistent result-cache directory (`--cache DIR`). `None` caches
    /// in memory only.
    pub cache: Option<String>,
    /// Disk-cache byte cap with deterministic eviction
    /// (`--cache-max-bytes N`); requires `--cache DIR`.
    pub cache_max_bytes: Option<u64>,
    /// Per-cell wall-clock deadline, seconds (`--cell-timeout-s X`).
    /// `None` means no deadline.
    pub cell_timeout_s: Option<f64>,
}

impl EngineArgs {
    /// Parses one engine flag into its field; `false` when `flag` is not
    /// one of them.
    fn set(&mut self, flag: &str, value: &str) -> Result<bool, CliError> {
        match flag {
            "--jobs" => self.jobs = Some(num(flag, value)?),
            "--cache" => self.cache = Some(value.to_string()),
            "--cache-max-bytes" => self.cache_max_bytes = Some(num(flag, value)?),
            "--cell-timeout-s" => self.cell_timeout_s = Some(positive(flag, value)?),
            _ => return Ok(false),
        }
        Ok(true)
    }

    /// A disk-cache byte cap with nothing on disk to cap is a
    /// configuration mistake, not a no-op: `--cache-max-bytes` requires
    /// `--cache DIR`.
    fn require_cache_for_cap(&self) -> Result<(), CliError> {
        if self.cache_max_bytes.is_some() && self.cache.is_none() {
            return Err(CliError(
                "--cache-max-bytes requires a disk cache (--cache DIR)".to_string(),
            ));
        }
        Ok(())
    }
}

/// The engine self-telemetry flags `sweep`, `faults`, `observe` and
/// `serve` share.
#[derive(Debug, Clone, Default)]
pub struct MetricsArgs {
    /// Exposition directory (`--metrics DIR`): enables the `olab-metrics`
    /// registry and writes `metrics.prom` + `metrics.json` there when the
    /// command finishes.
    pub dir: Option<String>,
    /// Restrict the written expositions to deterministic (cross-run)
    /// families only (`--metrics-deterministic`), so CI can byte-compare
    /// the files across schedules directly.
    pub deterministic: bool,
}

impl MetricsArgs {
    /// Parses one telemetry flag into its field; `false` when `flag` is
    /// not one of them.
    fn set(&mut self, flag: &str, value: &str) -> bool {
        match flag {
            "--metrics" => self.dir = Some(value.to_string()),
            "--metrics-deterministic" => self.deterministic = true,
            _ => return false,
        }
        true
    }

    /// `--metrics-deterministic` narrows what `--metrics` writes; alone it
    /// would be a silent no-op, so it requires an exposition directory.
    fn require_dir(&self) -> Result<(), CliError> {
        if self.deterministic && self.dir.is_none() {
            return Err(CliError(
                "--metrics-deterministic requires '--metrics DIR'".to_string(),
            ));
        }
        Ok(())
    }
}

/// Sweep-specific arguments: the batch list plus the grid-engine knobs.
#[derive(Debug, Clone)]
pub struct SweepArgs {
    /// Batch sizes to sweep.
    pub batches: Vec<u64>,
    /// Grid-engine flags.
    pub engine: EngineArgs,
    /// Live progress + run artifacts (`--observe`).
    pub observe: bool,
    /// Artifact directory for `--observe` (`--out-dir DIR`).
    pub out_dir: Option<String>,
    /// Counter sampling cadence for artifacts, ms of simulated time
    /// (`--sample-ms X`).
    pub sample_ms: f64,
    /// Engine self-telemetry flags.
    pub metrics: MetricsArgs,
}

impl Default for SweepArgs {
    fn default() -> Self {
        SweepArgs {
            batches: Vec::new(),
            engine: EngineArgs::default(),
            observe: false,
            out_dir: None,
            sample_ms: 100.0,
            metrics: MetricsArgs::default(),
        }
    }
}

/// Faults-sweep arguments: which scenarios to inject and how to react.
#[derive(Debug, Clone)]
pub struct FaultsArgs {
    /// Fault seeds to sweep (`--seeds a,b,c` or a single `--seed N`).
    pub seeds: Vec<u64>,
    /// Severities to sweep (`--severity mild|moderate|severe|all`).
    pub severities: Vec<olab_faults::Severity>,
    /// Abort on watchdog exhaustion instead of degrading
    /// (`--action degrade|abort`).
    pub abort: bool,
    /// Grid-engine flags.
    pub engine: EngineArgs,
    /// Live progress + run artifacts (`--observe`).
    pub observe: bool,
    /// Artifact directory for `--observe` (`--out-dir DIR`).
    pub out_dir: Option<String>,
    /// Counter sampling cadence for artifacts, ms of simulated time
    /// (`--sample-ms X`).
    pub sample_ms: f64,
    /// Recovery policy applied when the watchdog gives up
    /// (`--recovery failfast|ckpt|elastic`; `--ckpt-interval-s X` pins the
    /// checkpoint interval). `None` keeps the plain fault scorecard.
    pub recovery: Option<olab_resilience::RecoveryPolicy>,
    /// Engine self-telemetry flags.
    pub metrics: MetricsArgs,
}

impl FaultsArgs {
    /// The fault scenario of every cell: each seed crossed with each
    /// severity, aborting or degrading per `--action`.
    pub fn specs(&self) -> Vec<olab_faults::FaultScenarioSpec> {
        use olab_faults::FaultScenarioSpec;
        let mut specs = Vec::with_capacity(self.seeds.len() * self.severities.len());
        for &seed in &self.seeds {
            for &severity in &self.severities {
                specs.push(if self.abort {
                    FaultScenarioSpec::abort(seed, severity)
                } else {
                    FaultScenarioSpec::degrade(seed, severity)
                });
            }
        }
        specs
    }
}

impl Default for FaultsArgs {
    fn default() -> Self {
        FaultsArgs {
            seeds: vec![1],
            severities: olab_faults::Severity::ALL.to_vec(),
            abort: false,
            engine: EngineArgs::default(),
            observe: false,
            out_dir: None,
            sample_ms: 100.0,
            recovery: None,
            metrics: MetricsArgs::default(),
        }
    }
}

/// `resilience`-subcommand arguments: the policy-comparison sweep.
#[derive(Debug, Clone)]
pub struct ResilienceArgs {
    /// Fault seeds to sweep (`--seeds a,b,c` or a single `--seed N`).
    pub seeds: Vec<u64>,
    /// Scenario severity (`--severity mild|moderate|severe`).
    pub severity: olab_faults::Severity,
    /// Worker threads (`--jobs N`; `1` forces a serial sweep).
    pub jobs: Option<usize>,
}

impl Default for ResilienceArgs {
    fn default() -> Self {
        ResilienceArgs {
            seeds: vec![3],
            severity: olab_faults::Severity::Severe,
            jobs: None,
        }
    }
}

/// `observe`-subcommand arguments: which cell to observe and where the
/// run artifact goes.
#[derive(Debug, Clone)]
pub struct ObserveArgs {
    /// Named registry cell overriding the shared flags (`--cell fig7`).
    pub cell: Option<String>,
    /// Artifact directory (`--out-dir DIR`). Without it the manifest is
    /// printed to stdout and nothing is written.
    pub out_dir: Option<String>,
    /// Counter sampling cadence, ms of simulated time (`--sample-ms X`).
    pub sample_ms: f64,
    /// Observe the cell under an injected fault scenario
    /// (`--fault-seed N`).
    pub fault_seed: Option<u64>,
    /// Fault severity for `--fault-seed` (`--severity mild|moderate|severe`).
    pub severity: olab_faults::Severity,
    /// Abort on watchdog exhaustion instead of degrading
    /// (`--action degrade|abort`).
    pub abort: bool,
    /// Wall-clock deadline for the observed run, seconds
    /// (`--cell-timeout-s X`).
    pub cell_timeout_s: Option<f64>,
    /// Engine self-telemetry flags.
    pub metrics: MetricsArgs,
}

impl Default for ObserveArgs {
    fn default() -> Self {
        ObserveArgs {
            cell: None,
            out_dir: None,
            sample_ms: 100.0,
            fault_seed: None,
            severity: olab_faults::Severity::Moderate,
            abort: false,
            cell_timeout_s: None,
            metrics: MetricsArgs::default(),
        }
    }
}

/// `olab serve` arguments: socket + engine knobs for the daemon, or a
/// `--oneshot QUERY` offline render for CI byte-comparison.
#[derive(Debug, Clone)]
pub struct ServeArgs {
    /// Listen address (`--addr HOST:PORT`; port `0` picks a free port).
    pub addr: String,
    /// Grid-engine flags; `--cell-timeout-s` is the server-side per-cell
    /// deadline.
    pub engine: EngineArgs,
    /// Admission-queue capacity before shedding (`--max-queue N`).
    pub max_queue: Option<usize>,
    /// HTTP worker threads (`--http-workers N`).
    pub http_workers: Option<usize>,
    /// Drain grace period, seconds (`--drain-timeout-s X`).
    pub drain_timeout_s: Option<f64>,
    /// Metrics expositions, flushed on drain.
    pub metrics: MetricsArgs,
    /// JSONL request-lifecycle log path (`--log FILE`).
    pub log: Option<String>,
    /// Render one cell offline and exit (`--oneshot QUERY`): prints the
    /// byte-identical body the daemon would serve for `/v1/cell?QUERY`.
    pub oneshot: Option<String>,
}

impl Default for ServeArgs {
    fn default() -> Self {
        ServeArgs {
            addr: "127.0.0.1:7979".to_string(),
            engine: EngineArgs::default(),
            max_queue: None,
            http_workers: None,
            drain_timeout_s: None,
            metrics: MetricsArgs::default(),
            log: None,
            oneshot: None,
        }
    }
}

/// A parsed command line.
#[derive(Debug, Clone)]
pub enum Command {
    /// `olab list`.
    List,
    /// `olab run ...`.
    Run(RunArgs),
    /// `olab sweep ... --batches a,b,c [--jobs N] [--cache DIR]`.
    Sweep(RunArgs, SweepArgs),
    /// `olab trace ... [--interval-ms x]`.
    Trace(RunArgs, f64),
    /// `olab tune ... [--objective latency|energy|edp]`.
    Tune(RunArgs, Objective),
    /// `olab chrome ...` — emit a chrome://tracing JSON timeline.
    Chrome(RunArgs),
    /// `olab faults ... [--seeds a,b] [--severity all] [--action degrade]
    /// [--recovery failfast|ckpt|elastic] [--ckpt-interval-s X]`.
    Faults(RunArgs, FaultsArgs),
    /// `olab resilience ... [--seeds a,b] [--severity severe] [--jobs N]`
    /// — the three-policy recovery comparison table.
    Resilience(RunArgs, ResilienceArgs),
    /// `olab observe ... [--cell fig7] [--out-dir DIR] [--sample-ms 100]`.
    Observe(RunArgs, ObserveArgs),
    /// `olab serve [--addr HOST:PORT] [--jobs N] [--cache DIR] ...` — the
    /// sweep-as-a-service daemon (or `--oneshot QUERY` offline render).
    Serve(ServeArgs),
    /// `olab help` / no arguments.
    Help,
}

fn parse_severities(s: &str) -> Result<Vec<olab_faults::Severity>, CliError> {
    use olab_faults::Severity;
    match s.to_ascii_lowercase().as_str() {
        "mild" => Ok(vec![Severity::Mild]),
        "moderate" => Ok(vec![Severity::Moderate]),
        "severe" => Ok(vec![Severity::Severe]),
        "all" => Ok(Severity::ALL.to_vec()),
        other => Err(CliError(format!(
            "unknown severity '{other}' (expected mild|moderate|severe|all)"
        ))),
    }
}

/// Parses the `--severity` of a subcommand that takes exactly one.
fn parse_severity(sub: Sub, value: &str) -> Result<olab_faults::Severity, CliError> {
    match parse_severities(value)?.as_slice() {
        [one] => Ok(*one),
        _ => Err(CliError(format!(
            "--severity: {} takes a single severity, not 'all'",
            sub.name()
        ))),
    }
}

fn parse_objective(s: &str) -> Result<Objective, CliError> {
    match s.to_ascii_lowercase().as_str() {
        "latency" => Ok(Objective::Latency),
        "energy" => Ok(Objective::Energy),
        "edp" => Ok(Objective::Edp),
        other => Err(CliError(format!(
            "unknown objective '{other}' (expected latency|energy|edp)"
        ))),
    }
}

/// Parses `--action degrade|abort` into the `abort` boolean.
fn parse_action(value: &str) -> Result<bool, CliError> {
    match value.to_ascii_lowercase().as_str() {
        "degrade" => Ok(false),
        "abort" => Ok(true),
        other => Err(CliError(format!(
            "unknown action '{other}' (expected degrade|abort)"
        ))),
    }
}

fn num<T: std::str::FromStr>(flag: &str, value: &str) -> Result<T, CliError> {
    value
        .parse()
        .map_err(|_| CliError(format!("{flag}: cannot parse '{value}'")))
}

/// Parses a comma-separated list of numbers (`--batches`, `--seeds`).
fn num_list<T: std::str::FromStr>(flag: &str, value: &str) -> Result<Vec<T>, CliError> {
    value.split(',').map(|v| num(flag, v.trim())).collect()
}

/// Parses `--seed N` or `--seeds a,b,c` into the seed list.
fn parse_seeds(flag: &str, value: &str) -> Result<Vec<u64>, CliError> {
    if flag == "--seed" {
        Ok(vec![num(flag, value)?])
    } else {
        num_list(flag, value)
    }
}

/// Parses a strictly-positive, finite number (`--sample-ms`,
/// `--interval-ms`, `--cell-timeout-s`, `--ckpt-interval-s`,
/// `--drain-timeout-s`).
fn positive(flag: &str, value: &str) -> Result<f64, CliError> {
    let x: f64 = num(flag, value)?;
    if !x.is_finite() || x <= 0.0 {
        return Err(CliError(format!("{flag}: '{value}' must be > 0")));
    }
    Ok(x)
}

/// Combines `--recovery` and `--ckpt-interval-s` into a policy. The
/// interval only exists under checkpoint/restart, so pinning it under any
/// other policy (or none) is an error rather than a silent no-op.
fn parse_recovery(
    policy: Option<&str>,
    ckpt_interval_s: Option<f64>,
) -> Result<Option<olab_resilience::RecoveryPolicy>, CliError> {
    use olab_resilience::RecoveryPolicy;
    let Some(name) = policy else {
        if ckpt_interval_s.is_some() {
            return Err(CliError(
                "--ckpt-interval-s requires '--recovery ckpt'".to_string(),
            ));
        }
        return Ok(None);
    };
    let policy = match name.to_ascii_lowercase().as_str() {
        "failfast" | "fail-fast" => RecoveryPolicy::FailFast,
        "ckpt" | "checkpoint" => {
            return Ok(Some(RecoveryPolicy::CheckpointRestart {
                interval_s: ckpt_interval_s,
            }))
        }
        "elastic" => RecoveryPolicy::ElasticContinue,
        other => {
            return Err(CliError(format!(
                "unknown recovery policy '{other}' (expected failfast|ckpt|elastic)"
            )))
        }
    };
    if ckpt_interval_s.is_some() {
        return Err(CliError(format!(
            "--ckpt-interval-s requires '--recovery ckpt', not '{name}'"
        )));
    }
    Ok(Some(policy))
}

/// Splits the words after the subcommand into `(flag, value)` pairs. A
/// switch (a [`FLAGS`] row without a value) pairs with `""`; every other
/// `--word` takes the next word as its value.
fn split(words: &[String]) -> Result<Vec<(&str, &str)>, CliError> {
    let mut pairs = Vec::new();
    let mut words = words.iter().map(String::as_str);
    while let Some(flag) = words.next() {
        if FLAGS.iter().any(|f| f.name == flag && !f.takes_value) {
            pairs.push((flag, ""));
            continue;
        }
        if !flag.starts_with("--") {
            return Err(CliError(format!("expected a --flag, got '{flag}'")));
        }
        let value = words
            .next()
            .ok_or_else(|| CliError(format!("{flag} needs a value")))?;
        pairs.push((flag, value));
    }
    Ok(pairs)
}

/// Rejects `flag` unless [`FLAGS`] says `sub` accepts it.
fn check(sub: Sub, flag: &str) -> Result<(), CliError> {
    let Some(row) = FLAGS.iter().find(|f| f.name == flag) else {
        return Err(CliError(format!("unknown flag '{flag}'")));
    };
    if row.accepted_by.contains(&sub) {
        return Ok(());
    }
    Err(CliError(
        match row.hints.iter().find(|(subs, _)| subs.contains(&sub)) {
            Some((_, hint)) => format!("{flag} is not supported by '{}' {hint}", sub.name()),
            None => format!("unknown flag '{flag}'"),
        },
    ))
}

/// A flag the table admits on `sub` that no arm below parses: a bug in
/// this file, which the flag-matrix test catches.
fn unparsed(sub: Sub, flag: &str) -> ! {
    unreachable!("the flag table admits {flag} on '{}'", sub.name())
}

/// Parses a full command line (without the program name).
///
/// # Errors
///
/// Returns a [`CliError`] describing the offending flag or value.
pub fn parse(argv: &[String]) -> Result<Command, CliError> {
    let Some(sub) = argv.first() else {
        return Ok(Command::Help);
    };
    let pairs = split(&argv[1..])?;
    let sub = match sub.as_str() {
        "help" | "--help" | "-h" => return Ok(Command::Help),
        name => Sub::ALL
            .into_iter()
            .find(|s| s.name() == name)
            .ok_or_else(|| {
                CliError(format!(
                    "unknown command '{name}' \
                     (expected run|sweep|trace|tune|chrome|faults|resilience|observe|serve|list|help)"
                ))
            })?,
    };
    for &(flag, _) in &pairs {
        check(sub, flag)?;
    }

    // Every flag is now one `sub` accepts: parse the shared groups, then
    // hand the rest to the subcommand's own arm.
    let mut run = RunArgs::default();
    let mut engine = EngineArgs::default();
    let mut metrics = MetricsArgs::default();
    let mut own = Vec::new();
    let mut cell_flag = None;
    for &(flag, value) in &pairs {
        if run.set(flag, value)? {
            cell_flag = cell_flag.or(Some(flag));
        } else if !(engine.set(flag, value)? || metrics.set(flag, value)) {
            own.push((flag, value));
        }
    }
    match sub {
        List => Ok(Command::List),
        Run => Ok(Command::Run(run)),
        Chrome => Ok(Command::Chrome(run)),
        Trace => {
            let mut interval_ms = 1.0;
            for (flag, value) in own {
                match flag {
                    "--interval-ms" => interval_ms = positive(flag, value)?,
                    _ => unparsed(sub, flag),
                }
            }
            Ok(Command::Trace(run, interval_ms))
        }
        Tune => {
            let mut objective = Objective::Latency;
            for (flag, value) in own {
                match flag {
                    "--objective" => objective = parse_objective(value)?,
                    _ => unparsed(sub, flag),
                }
            }
            Ok(Command::Tune(run, objective))
        }
        Sweep => {
            let mut sweep = SweepArgs {
                batches: vec![8, 16, 32],
                ..SweepArgs::default()
            };
            for (flag, value) in own {
                match flag {
                    "--batches" => sweep.batches = num_list(flag, value)?,
                    "--observe" => sweep.observe = true,
                    "--out-dir" => sweep.out_dir = Some(value.to_string()),
                    "--sample-ms" => sweep.sample_ms = positive(flag, value)?,
                    _ => unparsed(sub, flag),
                }
            }
            engine.require_cache_for_cap()?;
            metrics.require_dir()?;
            Ok(Command::Sweep(
                run,
                SweepArgs {
                    engine,
                    metrics,
                    ..sweep
                },
            ))
        }
        Faults => {
            let mut faults = FaultsArgs::default();
            let mut recovery = None;
            let mut ckpt_interval_s = None;
            for (flag, value) in own {
                match flag {
                    "--seed" | "--seeds" => faults.seeds = parse_seeds(flag, value)?,
                    "--severity" => faults.severities = parse_severities(value)?,
                    "--action" => faults.abort = parse_action(value)?,
                    "--observe" => faults.observe = true,
                    "--out-dir" => faults.out_dir = Some(value.to_string()),
                    "--sample-ms" => faults.sample_ms = positive(flag, value)?,
                    "--recovery" => recovery = Some(value),
                    "--ckpt-interval-s" => ckpt_interval_s = Some(positive(flag, value)?),
                    _ => unparsed(sub, flag),
                }
            }
            faults.recovery = parse_recovery(recovery, ckpt_interval_s)?;
            engine.require_cache_for_cap()?;
            metrics.require_dir()?;
            Ok(Command::Faults(
                run,
                FaultsArgs {
                    engine,
                    metrics,
                    ..faults
                },
            ))
        }
        Resilience => {
            let mut res = ResilienceArgs {
                jobs: engine.jobs,
                ..ResilienceArgs::default()
            };
            for (flag, value) in own {
                match flag {
                    "--seed" | "--seeds" => res.seeds = parse_seeds(flag, value)?,
                    "--severity" => res.severity = parse_severity(sub, value)?,
                    _ => unparsed(sub, flag),
                }
            }
            Ok(Command::Resilience(run, res))
        }
        Observe => {
            let mut obs = ObserveArgs {
                cell_timeout_s: engine.cell_timeout_s,
                ..ObserveArgs::default()
            };
            let mut scenario_flag = None;
            for (flag, value) in own {
                match flag {
                    "--cell" => obs.cell = Some(value.to_ascii_lowercase()),
                    "--out-dir" => obs.out_dir = Some(value.to_string()),
                    "--sample-ms" => obs.sample_ms = positive(flag, value)?,
                    "--fault-seed" => obs.fault_seed = Some(num(flag, value)?),
                    "--severity" => {
                        obs.severity = parse_severity(sub, value)?;
                        scenario_flag = Some(flag);
                    }
                    "--action" => {
                        obs.abort = parse_action(value)?;
                        scenario_flag = Some(flag);
                    }
                    _ => unparsed(sub, flag),
                }
            }
            // A scenario flag without a scenario, or a cell flag next to a
            // named cell, would be silently ignored: reject both.
            if let (Some(flag), None) = (scenario_flag, obs.fault_seed) {
                return Err(CliError(format!("{flag} requires '--fault-seed N'")));
            }
            if let (Some(cell), Some(flag)) = (&obs.cell, cell_flag) {
                return Err(CliError(format!(
                    "{flag} cannot be combined with '--cell {cell}' \
                     (the named cell fixes every cell flag)"
                )));
            }
            metrics.require_dir()?;
            Ok(Command::Observe(run, ObserveArgs { metrics, ..obs }))
        }
        Serve => {
            let mut serve = ServeArgs::default();
            for (flag, value) in own {
                match flag {
                    "--addr" => serve.addr = value.to_string(),
                    "--max-queue" => serve.max_queue = Some(num(flag, value)?),
                    "--http-workers" => serve.http_workers = Some(num(flag, value)?),
                    "--drain-timeout-s" => serve.drain_timeout_s = Some(positive(flag, value)?),
                    "--log" => serve.log = Some(value.to_string()),
                    "--oneshot" => serve.oneshot = Some(value.to_string()),
                    _ => unparsed(sub, flag),
                }
            }
            engine.require_cache_for_cap()?;
            metrics.require_dir()?;
            if serve.max_queue == Some(0) {
                return Err(CliError("--max-queue: must be > 0".to_string()));
            }
            if serve.http_workers == Some(0) {
                return Err(CliError("--http-workers: must be > 0".to_string()));
            }
            Ok(Command::Serve(ServeArgs {
                engine,
                metrics,
                ..serve
            }))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn run_parses_all_flags() {
        let cmd = parse(&argv(
            "run --sku mi250 --model gpt3-13b --strategy fsdp --batch 16 \
             --seq 512 --precision fp32 --datapath vector --power-cap 300 \
             --freq-cap 0.8 --grad-accum 2 --csv",
        ))
        .unwrap();
        let Command::Run(args) = cmd else {
            panic!("expected run");
        };
        assert_eq!(args.sku, SkuKind::Mi250);
        assert_eq!(args.model, ModelPreset::Gpt3_13B);
        assert_eq!(args.batch, 16);
        assert_eq!(args.seq, 512);
        assert_eq!(args.precision, Precision::Fp32);
        assert_eq!(args.datapath, Datapath::Vector);
        assert_eq!(args.power_cap, Some(300.0));
        assert_eq!(args.freq_cap, Some(0.8));
        assert_eq!(args.grad_accum, 2);
        assert!(args.csv);
    }

    #[test]
    fn sweep_parses_batch_list() {
        let cmd = parse(&argv("sweep --sku a100 --batches 4,8,64")).unwrap();
        let Command::Sweep(_, sweep) = cmd else {
            panic!("expected sweep");
        };
        assert_eq!(sweep.batches, vec![4, 8, 64]);
        assert_eq!(sweep.engine.jobs, None);
        assert_eq!(sweep.engine.cache, None);
    }

    #[test]
    fn sweep_parses_grid_engine_knobs() {
        let cmd = parse(&argv("sweep --jobs 2 --cache /tmp/olab-cache")).unwrap();
        let Command::Sweep(_, sweep) = cmd else {
            panic!("expected sweep");
        };
        assert_eq!(sweep.engine.jobs, Some(2));
        assert_eq!(sweep.engine.cache.as_deref(), Some("/tmp/olab-cache"));
        assert_eq!(sweep.batches, vec![8, 16, 32], "default batch list");
    }

    #[test]
    fn pipeline_microbatch_flag_sets_strategy() {
        let cmd = parse(&argv("run --strategy pp --microbatch 4")).unwrap();
        let Command::Run(args) = cmd else {
            panic!("expected run");
        };
        assert_eq!(args.strategy, Strategy::Pipeline { microbatch_size: 4 });
    }

    #[test]
    fn empty_argv_is_help() {
        assert!(matches!(parse(&[]).unwrap(), Command::Help));
    }

    #[test]
    fn list_accepts_no_flag() {
        assert!(matches!(parse(&argv("list")).unwrap(), Command::List));
        for (words, flag) in [
            ("list --bogus 1", "--bogus"),
            ("list --sku h100", "--sku"),
            ("list --csv", "--csv"),
        ] {
            let err = parse(&argv(words)).unwrap_err();
            assert_eq!(err.0, format!("unknown flag '{flag}'"), "{words}");
        }
        // Flags with a hint keep it on `list` too.
        let err = parse(&argv("list --observe")).unwrap_err();
        assert!(err.0.contains("use sweep, faults, or the observe"), "{err}");
    }

    #[test]
    fn flags_are_checked_against_the_subcommand_before_values_parse() {
        let err = parse(&argv("run --sku q100 --jobs 2")).unwrap_err();
        assert_eq!(err.0, "unknown flag '--jobs'");
        let err = parse(&argv("observe --sku q100 --cache-max-bytes 9")).unwrap_err();
        assert!(err.0.contains("not supported by 'observe'"), "{err}");
    }

    #[test]
    fn trace_interval_must_be_positive() {
        for bad in ["0", "-1", "nan", "inf"] {
            let err = parse(&argv(&format!("trace --interval-ms {bad}"))).unwrap_err();
            assert_eq!(err.0, format!("--interval-ms: '{bad}' must be > 0"));
        }
        assert!(matches!(
            parse(&argv("trace --interval-ms 2.5")).unwrap(),
            Command::Trace(_, ms) if ms == 2.5
        ));
    }

    #[test]
    fn unknown_flags_and_values_error_cleanly() {
        assert!(parse(&argv("run --bogus 1")).is_err());
        assert!(parse(&argv("run --sku q100")).is_err());
        assert!(parse(&argv("frobnicate")).is_err());
        assert!(parse(&argv("run --batch")).is_err());
    }

    #[test]
    fn faults_parses_scenario_flags() {
        let cmd = parse(&argv(
            "faults --sku a100 --seeds 3,5 --severity severe --action abort --jobs 2",
        ))
        .unwrap();
        let Command::Faults(args, faults) = cmd else {
            panic!("expected faults");
        };
        assert_eq!(args.sku, SkuKind::A100);
        assert_eq!(faults.seeds, vec![3, 5]);
        assert_eq!(faults.severities, vec![olab_faults::Severity::Severe]);
        assert!(faults.abort);
        assert_eq!(faults.engine.jobs, Some(2));
    }

    #[test]
    fn faults_defaults_sweep_all_severities_for_one_seed() {
        let cmd = parse(&argv("faults")).unwrap();
        let Command::Faults(_, faults) = cmd else {
            panic!("expected faults");
        };
        assert_eq!(faults.seeds, vec![1]);
        assert_eq!(faults.severities.len(), 3);
        assert!(!faults.abort);
        assert!(parse(&argv("faults --severity extreme")).is_err());
        assert!(parse(&argv("faults --action panic")).is_err());
    }

    #[test]
    fn observe_parses_cell_and_artifact_flags() {
        let cmd = parse(&argv("observe --cell fig7 --out-dir /tmp/x --sample-ms 50")).unwrap();
        let Command::Observe(_, obs) = cmd else {
            panic!("expected observe");
        };
        assert_eq!(obs.cell.as_deref(), Some("fig7"));
        assert_eq!(obs.out_dir.as_deref(), Some("/tmp/x"));
        assert_eq!(obs.sample_ms, 50.0);
        assert!(obs.fault_seed.is_none());
    }

    #[test]
    fn observe_rejects_cell_flags_next_to_a_named_cell() {
        for (flags, flag) in [
            ("--sku a100 --batch 4", "--sku"),
            ("--batch 4", "--batch"),
            ("--seq 256", "--seq"),
            ("--microbatch 2", "--microbatch"),
            ("--power-cap 300", "--power-cap"),
        ] {
            for line in [
                format!("observe --cell fig7 {flags}"),
                format!("observe {flags} --cell fig7"),
            ] {
                let err = parse(&argv(&line)).unwrap_err();
                assert_eq!(
                    err.0,
                    format!(
                        "{flag} cannot be combined with '--cell fig7' \
                         (the named cell fixes every cell flag)"
                    ),
                    "{line}"
                );
            }
        }
        // The named cell combines with every flag that is not a cell flag.
        let cmd = parse(&argv(
            "observe --cell FIG7 --fault-seed 2 --severity severe --action abort \
             --out-dir /tmp/x --sample-ms 50 --cell-timeout-s 4 --metrics m",
        ))
        .unwrap();
        let Command::Observe(_, obs) = cmd else {
            panic!("expected observe");
        };
        assert_eq!(obs.cell.as_deref(), Some("fig7"));
        assert_eq!(obs.fault_seed, Some(2));
        // Without --cell the shared flags describe the cell.
        assert!(parse(&argv("observe --sku a100 --batch 4")).is_ok());
    }

    #[test]
    fn observe_rejects_every_flag_it_would_ignore() {
        for (line, want) in [
            (
                "observe --cell fig7 --jobs 4",
                "--jobs is not supported by 'observe' (it runs one cell)",
            ),
            (
                "observe --observe",
                "--observe is not supported by 'observe' (it always observes)",
            ),
            (
                "observe --csv",
                "--csv is not supported by 'observe' (it writes artifact files, not a table)",
            ),
            (
                "observe --severity mild",
                "--severity requires '--fault-seed N'",
            ),
            (
                "observe --action abort",
                "--action requires '--fault-seed N'",
            ),
        ] {
            assert_eq!(parse(&argv(line)).unwrap_err().0, want, "{line}");
        }
    }

    #[test]
    fn observe_parses_fault_scenarios_and_rejects_bad_values() {
        let cmd = parse(&argv(
            "observe --fault-seed 3 --severity severe --action abort",
        ))
        .unwrap();
        let Command::Observe(_, obs) = cmd else {
            panic!("expected observe");
        };
        assert_eq!(obs.fault_seed, Some(3));
        assert_eq!(obs.severity, olab_faults::Severity::Severe);
        assert!(obs.abort);
        assert!(parse(&argv("observe --severity all")).is_err());
        assert!(parse(&argv("observe --sample-ms 0")).is_err());
        assert!(parse(&argv("observe --sample-ms -5")).is_err());
    }

    #[test]
    fn sweep_and_faults_accept_observe_flags() {
        let cmd = parse(&argv("sweep --observe --out-dir /tmp/s --sample-ms 25")).unwrap();
        let Command::Sweep(_, sweep) = cmd else {
            panic!("expected sweep");
        };
        assert!(sweep.observe);
        assert_eq!(sweep.out_dir.as_deref(), Some("/tmp/s"));
        assert_eq!(sweep.sample_ms, 25.0);

        let cmd = parse(&argv("faults --observe")).unwrap();
        let Command::Faults(_, faults) = cmd else {
            panic!("expected faults");
        };
        assert!(faults.observe);
        assert_eq!(faults.out_dir, None);
        assert_eq!(faults.sample_ms, 100.0);
    }

    #[test]
    fn observe_flag_is_rejected_on_non_sweep_subcommands() {
        for sub in ["run", "trace", "chrome", "tune", "list"] {
            let err = parse(&argv(&format!("{sub} --observe"))).unwrap_err();
            assert!(err.0.contains("--observe"), "{sub}: {err}");
        }
    }

    #[test]
    fn sweep_and_faults_parse_guard_and_cap_flags() {
        let cmd = parse(&argv(
            "sweep --cache /tmp/olab-c --cell-timeout-s 2.5 --cache-max-bytes 1048576",
        ))
        .unwrap();
        let Command::Sweep(_, sweep) = cmd else {
            panic!("expected sweep");
        };
        assert_eq!(sweep.engine.cell_timeout_s, Some(2.5));
        assert_eq!(sweep.engine.cache_max_bytes, Some(1_048_576));

        let cmd = parse(&argv(
            "faults --cache /tmp/olab-c --cell-timeout-s 1.5 --cache-max-bytes 4096",
        ))
        .unwrap();
        let Command::Faults(_, faults) = cmd else {
            panic!("expected faults");
        };
        assert_eq!(faults.engine.cache.as_deref(), Some("/tmp/olab-c"));
        assert_eq!(faults.engine.cell_timeout_s, Some(1.5));
        assert_eq!(faults.engine.cache_max_bytes, Some(4096));

        let cmd = parse(&argv("observe --cell-timeout-s 4")).unwrap();
        let Command::Observe(_, obs) = cmd else {
            panic!("expected observe");
        };
        assert_eq!(obs.cell_timeout_s, Some(4.0));
    }

    #[test]
    fn guard_flags_reject_bad_values() {
        for bad in ["0", "-1", "nan", "soon"] {
            assert!(
                parse(&argv(&format!("sweep --cell-timeout-s {bad}"))).is_err(),
                "{bad}"
            );
        }
        assert!(parse(&argv("sweep --cache-max-bytes lots")).is_err());
    }

    #[test]
    fn cache_cap_requires_a_disk_cache() {
        for sub in ["sweep", "faults", "serve"] {
            let err = parse(&argv(&format!("{sub} --cache-max-bytes 4096"))).unwrap_err();
            assert!(err.0.contains("--cache-max-bytes requires"), "{sub}: {err}");
            assert!(err.0.contains("--cache DIR"), "{sub}: {err}");
            let capped = format!("{sub} --cache /tmp/c --cache-max-bytes 4096");
            assert!(parse(&argv(&capped)).is_ok(), "{sub}");
        }
    }

    #[test]
    fn guard_flags_are_rejected_on_non_grid_subcommands() {
        for sub in ["run", "trace", "chrome", "tune", "resilience", "list"] {
            for flag in ["--cell-timeout-s 2", "--cache-max-bytes 9"] {
                let err = parse(&argv(&format!("{sub} {flag}"))).unwrap_err();
                let name = flag.split_whitespace().next().unwrap();
                assert!(err.0.contains(name), "{sub} {flag}: {err}");
            }
        }
        let err = parse(&argv("observe --cache-max-bytes 9")).unwrap_err();
        assert!(err.0.contains("not supported by 'observe'"), "{err}");
    }

    #[test]
    fn metrics_flag_parses_on_telemetry_subcommands() {
        let cmd = parse(&argv("sweep --metrics /tmp/m")).unwrap();
        let Command::Sweep(_, sweep) = cmd else {
            panic!("expected sweep");
        };
        assert_eq!(sweep.metrics.dir.as_deref(), Some("/tmp/m"));

        let cmd = parse(&argv("faults --metrics out")).unwrap();
        let Command::Faults(_, faults) = cmd else {
            panic!("expected faults");
        };
        assert_eq!(faults.metrics.dir.as_deref(), Some("out"));

        let cmd = parse(&argv("observe --metrics m")).unwrap();
        let Command::Observe(_, obs) = cmd else {
            panic!("expected observe");
        };
        assert_eq!(obs.metrics.dir.as_deref(), Some("m"));
        assert!(parse(&argv("sweep --metrics")).is_err(), "needs a value");
    }

    #[test]
    fn metrics_flag_is_rejected_on_non_telemetry_subcommands() {
        for sub in ["run", "trace", "chrome", "tune", "resilience", "list"] {
            let err = parse(&argv(&format!("{sub} --metrics /tmp/m"))).unwrap_err();
            assert!(err.0.contains("--metrics"), "{sub}: {err}");
            assert!(
                err.0.contains("sweep, faults, observe, or serve"),
                "{sub}: {err}"
            );
        }
    }

    #[test]
    fn metrics_deterministic_narrows_metrics_on_telemetry_subcommands() {
        let cmd = parse(&argv("sweep --metrics /tmp/m --metrics-deterministic")).unwrap();
        let Command::Sweep(_, sweep) = cmd else {
            panic!("expected sweep");
        };
        assert!(sweep.metrics.deterministic);

        let cmd = parse(&argv("faults --metrics-deterministic --metrics m")).unwrap();
        let Command::Faults(_, faults) = cmd else {
            panic!("expected faults");
        };
        assert!(faults.metrics.deterministic);

        let cmd = parse(&argv("observe --metrics m --metrics-deterministic")).unwrap();
        let Command::Observe(_, obs) = cmd else {
            panic!("expected observe");
        };
        assert!(obs.metrics.deterministic);

        // Without it, the flag stays off.
        let Command::Sweep(_, sweep) = parse(&argv("sweep --metrics m")).unwrap() else {
            panic!("expected sweep");
        };
        assert!(!sweep.metrics.deterministic);
    }

    #[test]
    fn metrics_deterministic_requires_a_metrics_dir() {
        for sub in ["sweep", "faults", "observe", "serve"] {
            let err = parse(&argv(&format!("{sub} --metrics-deterministic"))).unwrap_err();
            assert!(err.0.contains("requires '--metrics DIR'"), "{sub}: {err}");
        }
    }

    #[test]
    fn metrics_deterministic_is_rejected_on_non_telemetry_subcommands() {
        for sub in ["run", "trace", "chrome", "tune", "resilience", "list"] {
            let err = parse(&argv(&format!("{sub} --metrics-deterministic"))).unwrap_err();
            assert!(err.0.contains("--metrics-deterministic"), "{sub}: {err}");
        }
    }

    #[test]
    fn serve_parses_all_flags() {
        let cmd = parse(&argv(
            "serve --addr 0.0.0.0:8080 --jobs 2 --cache /tmp/c --cache-max-bytes 4096 \
             --cell-timeout-s 2.5 --max-queue 64 --http-workers 8 \
             --drain-timeout-s 10 --metrics /tmp/m \
             --metrics-deterministic --log /tmp/serve.jsonl",
        ))
        .unwrap();
        let Command::Serve(serve) = cmd else {
            panic!("expected serve");
        };
        assert_eq!(serve.addr, "0.0.0.0:8080");
        assert_eq!(serve.engine.jobs, Some(2));
        assert_eq!(serve.engine.cache.as_deref(), Some("/tmp/c"));
        assert_eq!(serve.engine.cache_max_bytes, Some(4096));
        assert_eq!(serve.engine.cell_timeout_s, Some(2.5));
        assert_eq!(serve.max_queue, Some(64));
        assert_eq!(serve.http_workers, Some(8));
        assert_eq!(serve.drain_timeout_s, Some(10.0));
        assert_eq!(serve.metrics.dir.as_deref(), Some("/tmp/m"));
        assert!(serve.metrics.deterministic);
        assert_eq!(serve.log.as_deref(), Some("/tmp/serve.jsonl"));
        assert_eq!(serve.oneshot, None);
    }

    #[test]
    fn serve_defaults_and_oneshot() {
        let Command::Serve(serve) = parse(&argv("serve")).unwrap() else {
            panic!("expected serve");
        };
        assert_eq!(serve.addr, "127.0.0.1:7979");
        assert_eq!(serve.engine.jobs, None);
        assert!(!serve.metrics.deterministic);

        let Command::Serve(serve) = parse(&argv("serve --oneshot seq=128&batch=2")).unwrap() else {
            panic!("expected serve");
        };
        assert_eq!(serve.oneshot.as_deref(), Some("seq=128&batch=2"));
    }

    #[test]
    fn serve_rejects_nonsense() {
        assert!(parse(&argv("serve --csv")).is_err());
        assert!(parse(&argv("serve --observe")).is_err());
        assert!(parse(&argv("serve --recovery ckpt")).is_err());
        assert!(parse(&argv("serve --batches 1,2")).is_err());
        assert!(parse(&argv("serve --max-queue 0")).is_err());
        assert!(parse(&argv("serve --http-workers 0")).is_err());
        assert!(parse(&argv("serve --cell-timeout-s 0")).is_err());
        assert!(parse(&argv("serve --cache-max-bytes 4096")).is_err());
    }

    #[test]
    fn tune_parses_objective() {
        let cmd = parse(&argv("tune --sku mi250 --objective energy")).unwrap();
        assert!(matches!(cmd, Command::Tune(_, Objective::Energy)));
    }

    #[test]
    fn faults_parses_recovery_policies() {
        use olab_resilience::RecoveryPolicy;
        let cases = [
            ("failfast", RecoveryPolicy::FailFast),
            (
                "ckpt",
                RecoveryPolicy::CheckpointRestart { interval_s: None },
            ),
            ("elastic", RecoveryPolicy::ElasticContinue),
        ];
        for (name, want) in cases {
            let cmd = parse(&argv(&format!("faults --recovery {name}"))).unwrap();
            let Command::Faults(_, faults) = cmd else {
                panic!("expected faults");
            };
            assert_eq!(faults.recovery, Some(want), "{name}");
        }

        let cmd = parse(&argv("faults --recovery ckpt --ckpt-interval-s 12.5")).unwrap();
        let Command::Faults(_, faults) = cmd else {
            panic!("expected faults");
        };
        assert_eq!(
            faults.recovery,
            Some(RecoveryPolicy::CheckpointRestart {
                interval_s: Some(12.5)
            })
        );

        let Command::Faults(_, faults) = parse(&argv("faults")).unwrap() else {
            panic!("expected faults");
        };
        assert_eq!(faults.recovery, None, "no flag keeps the plain scorecard");
    }

    #[test]
    fn faults_rejects_bad_recovery_combinations() {
        // Non-positive or unparsable checkpoint intervals.
        for bad in ["0", "-3", "nan", "inf", "soon"] {
            let err = parse(&argv(&format!(
                "faults --recovery ckpt --ckpt-interval-s {bad}"
            )))
            .unwrap_err();
            assert!(err.0.contains("--ckpt-interval-s"), "{bad}: {err}");
        }
        // An interval without (or under the wrong) policy is a silent no-op
        // waiting to happen, so it errors instead.
        for prefix in [
            "faults",
            "faults --recovery failfast",
            "faults --recovery elastic",
        ] {
            let err = parse(&argv(&format!("{prefix} --ckpt-interval-s 5"))).unwrap_err();
            assert!(err.0.contains("--recovery ckpt"), "{prefix}: {err}");
        }
        assert!(parse(&argv("faults --recovery heroic")).is_err());
    }

    #[test]
    fn recovery_flags_are_rejected_on_non_fault_subcommands() {
        for sub in [
            "run",
            "sweep",
            "trace",
            "chrome",
            "tune",
            "observe",
            "resilience",
            "list",
        ] {
            let err = parse(&argv(&format!("{sub} --recovery elastic"))).unwrap_err();
            assert!(err.0.contains("--recovery"), "{sub}: {err}");
            let err = parse(&argv(&format!("{sub} --ckpt-interval-s 5"))).unwrap_err();
            assert!(err.0.contains("--ckpt-interval-s"), "{sub}: {err}");
        }
    }

    #[test]
    fn resilience_parses_sweep_flags() {
        let cmd = parse(&argv(
            "resilience --sku a100 --seeds 2,4 --severity moderate --jobs 2 --csv",
        ))
        .unwrap();
        let Command::Resilience(args, res) = cmd else {
            panic!("expected resilience");
        };
        assert_eq!(args.sku, SkuKind::A100);
        assert!(args.csv);
        assert_eq!(res.seeds, vec![2, 4]);
        assert_eq!(res.severity, olab_faults::Severity::Moderate);
        assert_eq!(res.jobs, Some(2));

        let Command::Resilience(_, res) = parse(&argv("resilience --seed 7")).unwrap() else {
            panic!("expected resilience");
        };
        assert_eq!(res.seeds, vec![7]);
        assert_eq!(res.severity, olab_faults::Severity::Severe, "default");

        assert!(parse(&argv("resilience --severity all")).is_err());
        assert!(parse(&argv("resilience --observe")).is_err());
    }
}
