//! Hand-rolled argument parsing.

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

impl From<olab_core::ExperimentError> for CliError {
    fn from(e: olab_core::ExperimentError) -> Self {
        CliError(format!("experiment failed: {e}"))
    }
}

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
}

/// The grid-engine flags `sweep`, `faults` and `serve` share, parsed by
/// one helper.
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
    /// Per-cell retry budget for transient failures (`--retries N`).
    /// `None` means no retries.
    pub retries: Option<u32>,
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
    /// Engine self-telemetry exposition directory (`--metrics DIR`):
    /// enables the `olab-metrics` registry and writes `metrics.prom` +
    /// `metrics.json` there after the sweep.
    pub metrics: Option<String>,
    /// Restrict the written expositions to deterministic (cross-run)
    /// families only (`--metrics-deterministic`), so CI can byte-compare
    /// the files across schedules directly.
    pub metrics_deterministic: bool,
}

impl Default for SweepArgs {
    fn default() -> Self {
        SweepArgs {
            batches: Vec::new(),
            engine: EngineArgs::default(),
            observe: false,
            out_dir: None,
            sample_ms: 100.0,
            metrics: None,
            metrics_deterministic: false,
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
    /// Engine self-telemetry exposition directory (`--metrics DIR`).
    pub metrics: Option<String>,
    /// Deterministic-families-only expositions (`--metrics-deterministic`).
    pub metrics_deterministic: bool,
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
            metrics: None,
            metrics_deterministic: false,
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
    /// Worker threads for the auxiliary runs (`--jobs N`).
    pub jobs: Option<usize>,
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
    /// Retry budget for the observed run (`--retries N`).
    pub retries: Option<u32>,
    /// Engine self-telemetry exposition directory (`--metrics DIR`).
    pub metrics: Option<String>,
    /// Deterministic-families-only expositions (`--metrics-deterministic`).
    pub metrics_deterministic: bool,
}

impl Default for ObserveArgs {
    fn default() -> Self {
        ObserveArgs {
            cell: None,
            out_dir: None,
            sample_ms: 100.0,
            jobs: None,
            fault_seed: None,
            severity: olab_faults::Severity::Moderate,
            abort: false,
            cell_timeout_s: None,
            retries: None,
            metrics: None,
            metrics_deterministic: false,
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
    /// Coalescing-window hold, ms (`--coalesce-hold-ms N`) — soak/test
    /// instrumentation that keeps a finished flight joinable briefly.
    pub coalesce_hold_ms: Option<u64>,
    /// Metrics exposition directory flushed on drain (`--metrics DIR`).
    pub metrics: Option<String>,
    /// Deterministic-families-only expositions (`--metrics-deterministic`).
    pub metrics_deterministic: bool,
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
            coalesce_hold_ms: None,
            metrics: None,
            metrics_deterministic: false,
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

/// Parses a SKU name (case-insensitive).
pub fn parse_sku(s: &str) -> Result<SkuKind, CliError> {
    match s.to_ascii_lowercase().as_str() {
        "a100" => Ok(SkuKind::A100),
        "h100" => Ok(SkuKind::H100),
        "mi210" => Ok(SkuKind::Mi210),
        "mi250" => Ok(SkuKind::Mi250),
        other => Err(CliError(format!(
            "unknown sku '{other}' (expected a100|h100|mi210|mi250)"
        ))),
    }
}

/// Parses a model name.
pub fn parse_model(s: &str) -> Result<ModelPreset, CliError> {
    match s.to_ascii_lowercase().as_str() {
        "gpt3-xl" | "gpt3-1.3b" => Ok(ModelPreset::Gpt3Xl),
        "gpt3-2.7b" => Ok(ModelPreset::Gpt3_2_7B),
        "gpt3-6.7b" => Ok(ModelPreset::Gpt3_6_7B),
        "gpt3-13b" => Ok(ModelPreset::Gpt3_13B),
        "llama2-13b" => Ok(ModelPreset::Llama2_13B),
        other => Err(CliError(format!(
            "unknown model '{other}' (expected gpt3-xl|gpt3-2.7b|gpt3-6.7b|gpt3-13b|llama2-13b)"
        ))),
    }
}

/// Parses a strategy name.
pub fn parse_strategy(s: &str) -> Result<Strategy, CliError> {
    match s.to_ascii_lowercase().as_str() {
        "fsdp" => Ok(Strategy::Fsdp),
        "pp" | "pipeline" => Ok(Strategy::Pipeline { microbatch_size: 8 }),
        "tp" | "tensor" => Ok(Strategy::TensorParallel),
        other => Err(CliError(format!(
            "unknown strategy '{other}' (expected fsdp|pp|tp)"
        ))),
    }
}

fn parse_precision(s: &str) -> Result<Precision, CliError> {
    match s.to_ascii_lowercase().as_str() {
        "fp16" => Ok(Precision::Fp16),
        "bf16" => Ok(Precision::Bf16),
        "fp32" => Ok(Precision::Fp32),
        "tf32" => Ok(Precision::Tf32),
        other => Err(CliError(format!("unknown precision '{other}'"))),
    }
}

fn parse_datapath(s: &str) -> Result<Datapath, CliError> {
    match s.to_ascii_lowercase().as_str() {
        "tensor" | "tensorcore" => Ok(Datapath::TensorCore),
        "vector" => Ok(Datapath::Vector),
        other => Err(CliError(format!("unknown datapath '{other}'"))),
    }
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

fn num<T: std::str::FromStr>(flag: &str, value: &str) -> Result<T, CliError> {
    value
        .parse()
        .map_err(|_| CliError(format!("{flag}: cannot parse '{value}'")))
}

/// Flag/value pairs left unconsumed by [`parse_run_args`].
type RestPairs<'a> = Vec<(&'a str, &'a str)>;

/// Parses common flags into `RunArgs`, returning unconsumed (flag, value)
/// pairs to the caller.
fn parse_run_args<'a>(pairs: &[(&'a str, &'a str)]) -> Result<(RunArgs, RestPairs<'a>), CliError> {
    let mut args = RunArgs::default();
    let mut rest = Vec::new();
    for &(flag, value) in pairs {
        match flag {
            "--sku" => args.sku = parse_sku(value)?,
            "--gpus" => args.gpus = num(flag, value)?,
            "--model" => args.model = parse_model(value)?,
            "--strategy" => args.strategy = parse_strategy(value)?,
            "--batch" => args.batch = num(flag, value)?,
            "--seq" => args.seq = num(flag, value)?,
            "--precision" => args.precision = parse_precision(value)?,
            "--datapath" => args.datapath = parse_datapath(value)?,
            "--power-cap" => args.power_cap = Some(num(flag, value)?),
            "--freq-cap" => args.freq_cap = Some(num(flag, value)?),
            "--grad-accum" => args.grad_accum = num(flag, value)?,
            "--microbatch" => {
                let size = num(flag, value)?;
                args.strategy = Strategy::Pipeline {
                    microbatch_size: size,
                };
            }
            _ => rest.push((flag, value)),
        }
    }
    Ok((args, rest))
}

/// Parses the grid-engine flags into `EngineArgs`, returning unconsumed
/// (flag, value) pairs to the caller.
fn parse_engine_args<'a>(
    pairs: &[(&'a str, &'a str)],
) -> Result<(EngineArgs, RestPairs<'a>), CliError> {
    let mut engine = EngineArgs::default();
    let mut rest = Vec::new();
    for &(flag, value) in pairs {
        match flag {
            "--jobs" => engine.jobs = Some(num(flag, value)?),
            "--cache" => engine.cache = Some(value.to_string()),
            "--cache-max-bytes" => engine.cache_max_bytes = Some(num(flag, value)?),
            "--cell-timeout-s" => engine.cell_timeout_s = Some(positive_secs(flag, value)?),
            "--retries" => engine.retries = Some(num(flag, value)?),
            _ => rest.push((flag, value)),
        }
    }
    Ok((engine, rest))
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

    // Split "--flag value" pairs; "--csv", "--observe", and
    // "--metrics-deterministic" are bare flags.
    let mut pairs: Vec<(&str, &str)> = Vec::new();
    let mut csv = false;
    let mut observe = false;
    let mut metrics_deterministic = false;
    let mut i = 1;
    while i < argv.len() {
        let flag = argv[i].as_str();
        if flag == "--csv" {
            csv = true;
            i += 1;
            continue;
        }
        if flag == "--observe" {
            observe = true;
            i += 1;
            continue;
        }
        if flag == "--metrics-deterministic" {
            metrics_deterministic = true;
            i += 1;
            continue;
        }
        if !flag.starts_with("--") {
            return Err(CliError(format!("expected a --flag, got '{flag}'")));
        }
        let Some(value) = argv.get(i + 1) else {
            return Err(CliError(format!("{flag} needs a value")));
        };
        pairs.push((flag, value.as_str()));
        i += 2;
    }

    match sub.as_str() {
        "help" | "--help" | "-h" => Ok(Command::Help),
        "list" => {
            reject_observe("list", observe)?;
            reject_recovery("list", &pairs)?;
            reject_guard("list", &pairs)?;
            reject_metrics("list", &pairs, metrics_deterministic)?;
            Ok(Command::List)
        }
        "run" => {
            reject_observe("run", observe)?;
            reject_recovery("run", &pairs)?;
            reject_guard("run", &pairs)?;
            reject_metrics("run", &pairs, metrics_deterministic)?;
            let (mut args, rest) = parse_run_args(&pairs)?;
            args.csv = csv;
            reject_unknown(&rest)?;
            Ok(Command::Run(args))
        }
        "sweep" => {
            reject_recovery("sweep", &pairs)?;
            let (mut args, rest) = parse_run_args(&pairs)?;
            args.csv = csv;
            let (engine, rest) = parse_engine_args(&rest)?;
            let mut sweep = SweepArgs {
                batches: vec![8, 16, 32],
                engine,
                observe,
                ..SweepArgs::default()
            };
            let mut unknown = Vec::new();
            for (flag, value) in rest {
                match flag {
                    "--batches" => {
                        sweep.batches = value
                            .split(',')
                            .map(|v| num("--batches", v.trim()))
                            .collect::<Result<Vec<u64>, _>>()?;
                    }
                    "--out-dir" => sweep.out_dir = Some(value.to_string()),
                    "--sample-ms" => sweep.sample_ms = positive_ms(flag, value)?,
                    "--metrics" => sweep.metrics = Some(value.to_string()),
                    _ => unknown.push((flag, value)),
                }
            }
            reject_unknown(&unknown)?;
            require_cache_for_cap(&sweep.engine)?;
            sweep.metrics_deterministic = metrics_deterministic;
            require_metrics_for_deterministic(metrics_deterministic, &sweep.metrics)?;
            Ok(Command::Sweep(args, sweep))
        }
        "trace" => {
            reject_observe("trace", observe)?;
            reject_recovery("trace", &pairs)?;
            reject_guard("trace", &pairs)?;
            reject_metrics("trace", &pairs, metrics_deterministic)?;
            let (mut args, rest) = parse_run_args(&pairs)?;
            args.csv = csv;
            let mut interval = 1.0;
            let mut unknown = Vec::new();
            for (flag, value) in rest {
                if flag == "--interval-ms" {
                    interval = num("--interval-ms", value)?;
                } else {
                    unknown.push((flag, value));
                }
            }
            reject_unknown(&unknown)?;
            Ok(Command::Trace(args, interval))
        }
        "chrome" => {
            reject_observe("chrome", observe)?;
            reject_recovery("chrome", &pairs)?;
            reject_guard("chrome", &pairs)?;
            reject_metrics("chrome", &pairs, metrics_deterministic)?;
            let (mut args, rest) = parse_run_args(&pairs)?;
            args.csv = csv;
            reject_unknown(&rest)?;
            Ok(Command::Chrome(args))
        }
        "faults" => {
            let (mut args, rest) = parse_run_args(&pairs)?;
            args.csv = csv;
            let (engine, rest) = parse_engine_args(&rest)?;
            let mut faults = FaultsArgs {
                engine,
                observe,
                ..FaultsArgs::default()
            };
            let mut unknown = Vec::new();
            let mut recovery = None;
            let mut ckpt_interval_s = None;
            for (flag, value) in rest {
                match flag {
                    "--seed" => faults.seeds = vec![num(flag, value)?],
                    "--seeds" => {
                        faults.seeds = value
                            .split(',')
                            .map(|v| num("--seeds", v.trim()))
                            .collect::<Result<Vec<u64>, _>>()?;
                    }
                    "--severity" => faults.severities = parse_severities(value)?,
                    "--action" => faults.abort = parse_action(value)?,
                    "--out-dir" => faults.out_dir = Some(value.to_string()),
                    "--sample-ms" => faults.sample_ms = positive_ms(flag, value)?,
                    "--recovery" => recovery = Some(value),
                    "--ckpt-interval-s" => ckpt_interval_s = Some(positive_secs(flag, value)?),
                    "--metrics" => faults.metrics = Some(value.to_string()),
                    _ => unknown.push((flag, value)),
                }
            }
            reject_unknown(&unknown)?;
            faults.recovery = parse_recovery(recovery, ckpt_interval_s)?;
            require_cache_for_cap(&faults.engine)?;
            faults.metrics_deterministic = metrics_deterministic;
            require_metrics_for_deterministic(metrics_deterministic, &faults.metrics)?;
            Ok(Command::Faults(args, faults))
        }
        "resilience" => {
            reject_observe("resilience", observe)?;
            reject_recovery("resilience", &pairs)?;
            reject_guard("resilience", &pairs)?;
            reject_metrics("resilience", &pairs, metrics_deterministic)?;
            let (mut args, rest) = parse_run_args(&pairs)?;
            args.csv = csv;
            let mut res = ResilienceArgs::default();
            let mut unknown = Vec::new();
            for (flag, value) in rest {
                match flag {
                    "--seed" => res.seeds = vec![num(flag, value)?],
                    "--seeds" => {
                        res.seeds = value
                            .split(',')
                            .map(|v| num("--seeds", v.trim()))
                            .collect::<Result<Vec<u64>, _>>()?;
                    }
                    "--severity" => {
                        let all = parse_severities(value)?;
                        let [one] = all.as_slice() else {
                            return Err(CliError(
                                "--severity: resilience takes a single severity, not 'all'"
                                    .to_string(),
                            ));
                        };
                        res.severity = *one;
                    }
                    "--jobs" => res.jobs = Some(num(flag, value)?),
                    _ => unknown.push((flag, value)),
                }
            }
            reject_unknown(&unknown)?;
            Ok(Command::Resilience(args, res))
        }
        "observe" => {
            reject_recovery("observe", &pairs)?;
            let (mut args, rest) = parse_run_args(&pairs)?;
            args.csv = csv;
            let mut obs = ObserveArgs::default();
            let mut unknown = Vec::new();
            for (flag, value) in rest {
                match flag {
                    "--cell" => obs.cell = Some(value.to_ascii_lowercase()),
                    "--out-dir" => obs.out_dir = Some(value.to_string()),
                    "--sample-ms" => obs.sample_ms = positive_ms(flag, value)?,
                    "--jobs" => obs.jobs = Some(num(flag, value)?),
                    "--fault-seed" => obs.fault_seed = Some(num(flag, value)?),
                    "--severity" => {
                        let all = parse_severities(value)?;
                        let [one] = all.as_slice() else {
                            return Err(CliError(
                                "--severity: observe takes a single severity, not 'all'"
                                    .to_string(),
                            ));
                        };
                        obs.severity = *one;
                    }
                    "--action" => obs.abort = parse_action(value)?,
                    "--cell-timeout-s" => obs.cell_timeout_s = Some(positive_secs(flag, value)?),
                    "--retries" => obs.retries = Some(num(flag, value)?),
                    "--metrics" => obs.metrics = Some(value.to_string()),
                    "--cache-max-bytes" => {
                        return Err(CliError(
                            "--cache-max-bytes is not supported by 'observe' \
                             (the cap applies to sweep/faults disk caches)"
                                .to_string(),
                        ))
                    }
                    _ => unknown.push((flag, value)),
                }
            }
            reject_unknown(&unknown)?;
            obs.metrics_deterministic = metrics_deterministic;
            require_metrics_for_deterministic(metrics_deterministic, &obs.metrics)?;
            Ok(Command::Observe(args, obs))
        }
        "tune" => {
            reject_observe("tune", observe)?;
            reject_recovery("tune", &pairs)?;
            reject_guard("tune", &pairs)?;
            reject_metrics("tune", &pairs, metrics_deterministic)?;
            let (mut args, rest) = parse_run_args(&pairs)?;
            args.csv = csv;
            let mut objective = Objective::Latency;
            let mut unknown = Vec::new();
            for (flag, value) in rest {
                if flag == "--objective" {
                    objective = parse_objective(value)?;
                } else {
                    unknown.push((flag, value));
                }
            }
            reject_unknown(&unknown)?;
            Ok(Command::Tune(args, objective))
        }
        "serve" => {
            if csv {
                return Err(CliError(
                    "--csv is not supported by 'serve' (responses are JSON lines)".to_string(),
                ));
            }
            reject_observe("serve", observe)?;
            reject_recovery("serve", &pairs)?;
            let (engine, rest) = parse_engine_args(&pairs)?;
            let mut serve = ServeArgs {
                engine,
                metrics_deterministic,
                ..ServeArgs::default()
            };
            let mut unknown = Vec::new();
            for (flag, value) in rest {
                match flag {
                    "--addr" => serve.addr = value.to_string(),
                    "--max-queue" => serve.max_queue = Some(num(flag, value)?),
                    "--http-workers" => serve.http_workers = Some(num(flag, value)?),
                    "--drain-timeout-s" => {
                        serve.drain_timeout_s = Some(positive_secs(flag, value)?)
                    }
                    "--coalesce-hold-ms" => serve.coalesce_hold_ms = Some(num(flag, value)?),
                    "--metrics" => serve.metrics = Some(value.to_string()),
                    "--log" => serve.log = Some(value.to_string()),
                    "--oneshot" => serve.oneshot = Some(value.to_string()),
                    _ => unknown.push((flag, value)),
                }
            }
            reject_unknown(&unknown)?;
            require_cache_for_cap(&serve.engine)?;
            require_metrics_for_deterministic(metrics_deterministic, &serve.metrics)?;
            if serve.max_queue == Some(0) {
                return Err(CliError("--max-queue: must be > 0".to_string()));
            }
            if serve.http_workers == Some(0) {
                return Err(CliError("--http-workers: must be > 0".to_string()));
            }
            Ok(Command::Serve(serve))
        }
        other => Err(CliError(format!(
            "unknown command '{other}' \
             (expected run|sweep|trace|tune|chrome|faults|resilience|observe|serve|list|help)"
        ))),
    }
}

/// `--observe` is only meaningful where a sweep runs (sweep, faults).
fn reject_observe(sub: &str, observe: bool) -> Result<(), CliError> {
    if observe {
        return Err(CliError(format!(
            "--observe is not supported by '{sub}' (use sweep, faults, or the observe subcommand)"
        )));
    }
    Ok(())
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

/// Guard/cache-hardening flags only make sense where a grid engine runs
/// (sweep, faults) or a guarded single cell does (observe).
fn reject_guard(sub: &str, pairs: &[(&str, &str)]) -> Result<(), CliError> {
    for &(flag, _) in pairs {
        if flag == "--cell-timeout-s" || flag == "--retries" || flag == "--cache-max-bytes" {
            return Err(CliError(format!(
                "{flag} is not supported by '{sub}' (use sweep, faults, or observe)"
            )));
        }
    }
    Ok(())
}

/// A disk-cache byte cap with nothing on disk to cap is a configuration
/// mistake, not a no-op: `--cache-max-bytes` requires `--cache DIR`.
fn require_cache_for_cap(engine: &EngineArgs) -> Result<(), CliError> {
    if engine.cache_max_bytes.is_some() && engine.cache.is_none() {
        return Err(CliError(
            "--cache-max-bytes requires a disk cache (--cache DIR)".to_string(),
        ));
    }
    Ok(())
}

/// `--metrics` only makes sense where an engine runs long enough to have
/// telemetry worth exposing (sweep, faults, observe, serve).
fn reject_metrics(sub: &str, pairs: &[(&str, &str)], deterministic: bool) -> Result<(), CliError> {
    if deterministic {
        return Err(CliError(format!(
            "--metrics-deterministic is not supported by '{sub}' \
             (use sweep, faults, observe, or serve)"
        )));
    }
    for &(flag, _) in pairs {
        if flag == "--metrics" {
            return Err(CliError(format!(
                "--metrics is not supported by '{sub}' (use sweep, faults, observe, or serve)"
            )));
        }
    }
    Ok(())
}

/// `--metrics-deterministic` narrows what `--metrics` writes; alone it
/// would be a silent no-op, so it requires an exposition directory.
fn require_metrics_for_deterministic(
    deterministic: bool,
    metrics: &Option<String>,
) -> Result<(), CliError> {
    if deterministic && metrics.is_none() {
        return Err(CliError(
            "--metrics-deterministic requires '--metrics DIR'".to_string(),
        ));
    }
    Ok(())
}

/// `--recovery`/`--ckpt-interval-s` only make sense where faults inject.
fn reject_recovery(sub: &str, pairs: &[(&str, &str)]) -> Result<(), CliError> {
    for &(flag, _) in pairs {
        if flag == "--recovery" || flag == "--ckpt-interval-s" {
            return Err(CliError(format!(
                "{flag} is not supported by '{sub}' (use the faults subcommand; \
                 'resilience' compares every policy)"
            )));
        }
    }
    Ok(())
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

/// Parses a strictly-positive millisecond value (`--sample-ms`).
fn positive_ms(flag: &str, value: &str) -> Result<f64, CliError> {
    let ms: f64 = num(flag, value)?;
    if !ms.is_finite() || ms <= 0.0 {
        return Err(CliError(format!("{flag}: '{value}' must be > 0")));
    }
    Ok(ms)
}

/// Parses a strictly-positive seconds value (`--ckpt-interval-s`).
fn positive_secs(flag: &str, value: &str) -> Result<f64, CliError> {
    let s: f64 = num(flag, value)?;
    if !s.is_finite() || s <= 0.0 {
        return Err(CliError(format!("{flag}: '{value}' must be > 0")));
    }
    Ok(s)
}

fn reject_unknown(rest: &[(&str, &str)]) -> Result<(), CliError> {
    if let Some((flag, _)) = rest.first() {
        return Err(CliError(format!("unknown flag '{flag}'")));
    }
    Ok(())
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
        let cmd = parse(&argv(
            "observe --cell fig7 --out-dir /tmp/x --sample-ms 50 --jobs 2",
        ))
        .unwrap();
        let Command::Observe(_, obs) = cmd else {
            panic!("expected observe");
        };
        assert_eq!(obs.cell.as_deref(), Some("fig7"));
        assert_eq!(obs.out_dir.as_deref(), Some("/tmp/x"));
        assert_eq!(obs.sample_ms, 50.0);
        assert_eq!(obs.jobs, Some(2));
        assert!(obs.fault_seed.is_none());
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
            "sweep --cache /tmp/olab-c --cell-timeout-s 2.5 --retries 3 --cache-max-bytes 1048576",
        ))
        .unwrap();
        let Command::Sweep(_, sweep) = cmd else {
            panic!("expected sweep");
        };
        assert_eq!(sweep.engine.cell_timeout_s, Some(2.5));
        assert_eq!(sweep.engine.retries, Some(3));
        assert_eq!(sweep.engine.cache_max_bytes, Some(1_048_576));

        let cmd = parse(&argv(
            "faults --cache /tmp/olab-c --cell-timeout-s 1.5 --retries 2 --cache-max-bytes 4096",
        ))
        .unwrap();
        let Command::Faults(_, faults) = cmd else {
            panic!("expected faults");
        };
        assert_eq!(faults.engine.cache.as_deref(), Some("/tmp/olab-c"));
        assert_eq!(faults.engine.cell_timeout_s, Some(1.5));
        assert_eq!(faults.engine.retries, Some(2));
        assert_eq!(faults.engine.cache_max_bytes, Some(4096));

        let cmd = parse(&argv("observe --cell-timeout-s 4 --retries 1")).unwrap();
        let Command::Observe(_, obs) = cmd else {
            panic!("expected observe");
        };
        assert_eq!(obs.cell_timeout_s, Some(4.0));
        assert_eq!(obs.retries, Some(1));
    }

    #[test]
    fn guard_flags_reject_bad_values() {
        for bad in ["0", "-1", "nan", "soon"] {
            assert!(
                parse(&argv(&format!("sweep --cell-timeout-s {bad}"))).is_err(),
                "{bad}"
            );
        }
        assert!(parse(&argv("sweep --retries -1")).is_err());
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
            for flag in ["--cell-timeout-s 2", "--retries 1", "--cache-max-bytes 9"] {
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
        assert_eq!(sweep.metrics.as_deref(), Some("/tmp/m"));

        let cmd = parse(&argv("faults --metrics out")).unwrap();
        let Command::Faults(_, faults) = cmd else {
            panic!("expected faults");
        };
        assert_eq!(faults.metrics.as_deref(), Some("out"));

        let cmd = parse(&argv("observe --metrics m")).unwrap();
        let Command::Observe(_, obs) = cmd else {
            panic!("expected observe");
        };
        assert_eq!(obs.metrics.as_deref(), Some("m"));
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
        assert!(sweep.metrics_deterministic);

        let cmd = parse(&argv("faults --metrics-deterministic --metrics m")).unwrap();
        let Command::Faults(_, faults) = cmd else {
            panic!("expected faults");
        };
        assert!(faults.metrics_deterministic);

        let cmd = parse(&argv("observe --metrics m --metrics-deterministic")).unwrap();
        let Command::Observe(_, obs) = cmd else {
            panic!("expected observe");
        };
        assert!(obs.metrics_deterministic);

        // Without it, the flag stays off.
        let Command::Sweep(_, sweep) = parse(&argv("sweep --metrics m")).unwrap() else {
            panic!("expected sweep");
        };
        assert!(!sweep.metrics_deterministic);
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
             --cell-timeout-s 2.5 --retries 3 --max-queue 64 --http-workers 8 \
             --drain-timeout-s 10 --coalesce-hold-ms 250 --metrics /tmp/m \
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
        assert_eq!(serve.engine.retries, Some(3));
        assert_eq!(serve.max_queue, Some(64));
        assert_eq!(serve.http_workers, Some(8));
        assert_eq!(serve.drain_timeout_s, Some(10.0));
        assert_eq!(serve.coalesce_hold_ms, Some(250));
        assert_eq!(serve.metrics.as_deref(), Some("/tmp/m"));
        assert!(serve.metrics_deterministic);
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
        assert!(!serve.metrics_deterministic);

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
