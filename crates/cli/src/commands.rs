//! Subcommand implementations (each returns the text to print).

use crate::args::{
    CliError, EngineArgs, FaultsArgs, MetricsArgs, ObserveArgs, ResilienceArgs, RunArgs, ServeArgs,
    SweepArgs,
};
use olab_core::adaptive::{tune_fsdp, Objective};
use olab_core::report::{ms, pct, Table};
use olab_core::Sweep;
use olab_gpu::GpuSku;
use olab_grid::{
    CacheValue, Executor, GridJob, GuardConfig, ProgressSink, ResultCache, SweepRun, SweepStats,
};
use olab_models::ModelPreset;
use olab_obs::{JsonlProgress, MultiSink, StderrProgress};
use olab_power::Sampler;
use std::fmt::Write as _;
use std::path::Path;

/// `olab help`.
pub fn help() -> String {
    "\
olab — compute/communication-overlap characterization (ISPASS'25 reproduction)

USAGE:
  olab list                                    available SKUs and models
  olab run   [flags]                           one experiment, full metrics
  olab sweep [flags] --batches 8,16,32         batch sweep table
             [--jobs N] [--cache DIR]          parallel workers, result cache
             [--cache-max-bytes N]             disk-cache cap, deterministic eviction
             [--cell-timeout-s X]              per-cell deadline
             [--observe] [--out-dir DIR]       live progress, per-cell run artifacts
             [--metrics DIR]                   engine self-telemetry (metrics.prom/.json)
  olab trace [flags] [--interval-ms 1]         sampled power trace (CSV-ish)
  olab tune  [flags] [--objective energy]      adaptive overlap search (FSDP)
  olab chrome [flags]                          chrome://tracing JSON timeline
  olab faults [flags] [--seeds 1,2,3]          fault sweep under injected scenarios
              [--severity mild|moderate|severe|all] [--action degrade|abort] [--jobs N]
              [--observe] [--out-dir DIR]      live progress, per-cell run artifacts
              [--recovery failfast|ckpt|elastic] recovery scorecard instead of the
              [--ckpt-interval-s X]              fault table (X pins the ckpt interval)
              [--cache DIR] [--cache-max-bytes N] persistent capped result cache
              [--cell-timeout-s X]             per-cell deadline
              [--metrics DIR]                  engine self-telemetry (metrics.prom/.json)
  olab resilience [flags] [--seeds 3]          three-policy recovery comparison
              [--severity mild|moderate|severe] (fail-fast vs checkpoint vs elastic)
              [--jobs N]
  olab observe [flags] | --cell fig7           one observed cell, full run artifact
               [--out-dir DIR] [--sample-ms 100] (a named cell takes no shared flags)
               [--fault-seed N [--severity mild|moderate|severe] [--action degrade|abort]]
               [--cell-timeout-s X]            guarded observed run
               [--metrics DIR]                 engine self-telemetry (metrics.prom/.json)
  olab serve [--addr 127.0.0.1:7979]           sweep-as-a-service daemon (HTTP/1.1)
             [--jobs N] [--cache DIR]          engine workers, persistent result cache
             [--cache-max-bytes N]             disk-cache cap, deterministic eviction
             [--cell-timeout-s X]              server-side per-cell deadline
             [--max-queue N] [--http-workers N] admission-queue depth, connection threads
             [--drain-timeout-s X]             graceful-drain grace period
             [--metrics DIR] [--log FILE]      expositions on drain, JSONL lifecycle log
             [--oneshot QUERY]                 print the body /v1/cell?QUERY would
                                               serve, offline, and exit (CI byte-compare)

  --metrics-deterministic (sweep|faults|observe|serve, with --metrics DIR)
      restrict expositions to deterministic families so CI can byte-compare them

FLAGS (shared):
  --sku a100|h100|mi210|mi250     --gpus N             --model gpt3-2.7b|...
  --strategy fsdp|pp|tp           --microbatch N       --batch N
  --seq N                         --precision fp16|bf16|fp32|tf32
  --datapath tensor|vector        --power-cap WATTS    --freq-cap 0.0-1.0
  --grad-accum K                  --csv

An observed cell leaves a self-describing artifact directory:
manifest.json, metrics.csv, counters.csv (simulated NVML series),
trace.json (Perfetto, with counter tracks), events.jsonl.
"
    .to_string()
}

/// `olab list`.
pub fn list() -> String {
    let mut out = String::from("SKUs:\n");
    for sku in GpuSku::all() {
        let _ = writeln!(
            out,
            "  {:6} {:7} {:4} GB, {:6.0} GB/s HBM, {:4.0} W TDP, {:3.0} GB/s/dir links",
            sku.name.to_lowercase(),
            format!("({})", sku.vendor),
            sku.mem_gb,
            sku.mem_bw_gbs,
            sku.tdp_w,
            sku.link_bw_unidir_gbs
        );
    }
    out.push_str("\nModels:\n");
    for preset in ModelPreset::ALL {
        let cfg = preset.config();
        let _ = writeln!(
            out,
            "  {:11} {} ({} layers, hidden {})",
            cli_name(preset),
            preset.param_label(),
            cfg.layers,
            cfg.hidden
        );
    }
    out
}

fn cli_name(preset: ModelPreset) -> &'static str {
    match preset {
        ModelPreset::Gpt3Xl => "gpt3-xl",
        ModelPreset::Gpt3_2_7B => "gpt3-2.7b",
        ModelPreset::Gpt3_6_7B => "gpt3-6.7b",
        ModelPreset::Gpt3_13B => "gpt3-13b",
        ModelPreset::Llama2_13B => "llama2-13b",
    }
}

/// `olab run`.
pub fn run(args: &RunArgs) -> Result<String, CliError> {
    let report = args.experiment().run()?;
    let m = &report.metrics;
    let tdp = report.tdp_w();
    let mut out = format!("{}\n\n", report.experiment.label());
    let _ = writeln!(out, "activation policy    {:?}", report.activation_policy);
    let _ = writeln!(out, "E2E ideal (Eq.4)     {}", ms(m.e2e_ideal_s));
    let _ = writeln!(out, "E2E overlapped       {}", ms(m.e2e_overlapped_s));
    let _ = writeln!(
        out,
        "E2E sequential       {} (Eq.5 derived {})",
        ms(m.e2e_sequential_measured_s),
        ms(m.e2e_sequential_derived_s)
    );
    let _ = writeln!(out, "compute slowdown     {}", pct(m.compute_slowdown));
    let _ = writeln!(out, "overlap ratio        {}", pct(m.overlap_ratio));
    let _ = writeln!(
        out,
        "avg / peak power     {:.0} W ({:.2}x TDP) / {:.0} W ({:.2}x TDP)",
        m.avg_power_w,
        m.avg_power_w / tdp,
        m.peak_power_w,
        m.peak_power_w / tdp
    );
    let _ = writeln!(out, "energy per iter      {:.0} J", m.energy_j);
    Ok(out)
}

/// `olab sweep`.
///
/// Runs the batch sweep on the `olab-grid` engine the engine flags
/// describe (see [`executor`]). Telemetry goes to stderr; the table on
/// stdout stays machine-readable.
pub fn sweep(args: &RunArgs, sweep_args: &SweepArgs) -> Result<String, CliError> {
    enable_metrics(&sweep_args.metrics);
    let engine = Sweep::from(executor(&sweep_args.engine)?);

    let grid: Vec<_> = sweep_args
        .batches
        .iter()
        .map(|&batch| {
            let mut a = args.clone();
            a.batch = batch;
            a.experiment()
        })
        .collect();
    let sinks = progress_sinks(sweep_args.observe, sweep_args.out_dir.as_deref())?;
    let mut outcome = engine.run_guarded(&grid, engine.executor().guard(), sinks.as_deref());
    log_landed(
        engine.executor().cache(),
        sinks.as_deref(),
        &mut outcome.stats,
    );
    if sweep_args.observe {
        write_cell_artifacts(
            sweep_args.out_dir.as_deref(),
            sweep_args.sample_ms,
            &grid,
            "cell",
            |exp| exp.label(),
            olab_obs::observe_cell,
        )?;
    }

    let mut table = Table::new([
        "Batch",
        "Overlap ratio",
        "Compute slowdown",
        "E2E overlapped",
        "E2E sequential",
        "Peak power",
    ]);
    let tdp = args.sku.sku().tdp_w;
    for (&batch, cell) in sweep_args.batches.iter().zip(&outcome.cells) {
        match cell {
            Ok(r) => {
                table.row([
                    batch.to_string(),
                    pct(r.metrics.overlap_ratio),
                    pct(r.metrics.compute_slowdown),
                    ms(r.metrics.e2e_overlapped_s),
                    ms(r.metrics.e2e_sequential_measured_s),
                    format!("{:.2}x TDP", r.metrics.peak_power_w / tdp),
                ]);
            }
            Err(e) => {
                table.row([
                    batch.to_string(),
                    format!("{e}"),
                    "-".into(),
                    "-".into(),
                    "-".into(),
                    "-".into(),
                ]);
            }
        }
    }
    write_metrics(&sweep_args.metrics)?;
    Ok(if args.csv {
        table.to_csv()
    } else {
        table.to_markdown()
    })
}

/// `olab trace`.
pub fn trace(args: &RunArgs, interval_ms: f64) -> Result<String, CliError> {
    let report = args.experiment().run()?;
    let gpu0 = &report.overlapped.gpus[0];
    let sampler = Sampler::with_interval("cli", interval_ms * 1e-3);
    let sampled = gpu0.power.sample(sampler);
    let tdp = report.tdp_w();
    let in_overlap = |t: f64| gpu0.overlap_windows.iter().any(|&(a, b)| t >= a && t < b);

    let mut out = String::from("t_ms,power_w,power_x_tdp,overlap\n");
    for s in &sampled.samples {
        let _ = writeln!(
            out,
            "{:.3},{:.1},{:.3},{}",
            s.time_s * 1e3,
            s.watts,
            s.watts / tdp,
            u8::from(in_overlap(s.time_s))
        );
    }
    Ok(out)
}

/// `olab chrome`: emit a chrome://tracing timeline of the overlapped run.
pub fn chrome(args: &RunArgs) -> Result<String, CliError> {
    let report = args.experiment().run()?;
    Ok(olab_core::chrome_trace::to_chrome_trace(
        &report.overlapped.trace,
    ))
}

/// `olab faults`: sweep fault scenarios over one experiment and tabulate
/// the scorecard of each `(seed, severity)` cell. With `--recovery` the
/// job reacts to each scenario under the chosen policy and the table
/// becomes a recovery scorecard (goodput, lost work, time-to-recover).
pub fn faults(args: &RunArgs, faults_args: &FaultsArgs) -> Result<String, CliError> {
    use olab_faults::{CachedFaultCell, FaultCell};

    enable_metrics(&faults_args.metrics);
    if let Some(policy) = faults_args.recovery {
        return faults_with_recovery(args, faults_args, policy);
    }

    let base = args.experiment();
    let cells: Vec<FaultCell> = faults_args
        .specs()
        .into_iter()
        .map(|spec| FaultCell::new(base.clone(), spec))
        .collect();
    let outcome = run_fault_sweep(faults_args, &cells)?;
    if faults_args.observe {
        write_cell_artifacts(
            faults_args.out_dir.as_deref(),
            faults_args.sample_ms,
            &cells,
            "fault cell",
            |cell| cell.spec.descriptor(),
            |cell, sample_ms| olab_obs::observe_fault_cell(&base, &cell.spec, sample_ms),
        )?;
    }

    let mut table = Table::new([
        "Seed",
        "Severity",
        "E2E fault-free",
        "E2E faulty",
        "Time lost",
        "Stall",
        "Retries",
        "Degraded",
        "ECC",
        "Overlap eff",
    ]);
    for (cell, result) in cells.iter().zip(outcome.outputs) {
        let cached = result.map_err(|p| CliError(format!("faults sweep: {p}")))?;
        let seed = cell.spec.seed.to_string();
        let severity = cell.spec.severity.to_string();
        match cached {
            CachedFaultCell::Ok(m) => table.row([
                seed,
                severity,
                ms(m.fault_free_e2e_s),
                ms(m.faulty_e2e_s),
                ms(m.time_lost_s),
                ms(m.stall_s),
                m.retries.to_string(),
                m.degraded_collectives.to_string(),
                m.ecc_kernels.to_string(),
                pct(m.overlap_efficiency),
            ]),
            CachedFaultCell::Aborted {
                at_s,
                collective,
                retries,
            } => table.row([
                seed,
                severity,
                "-".into(),
                format!("aborted at {}", ms(at_s)),
                "-".into(),
                "-".into(),
                retries.to_string(),
                "-".into(),
                "-".into(),
                format!("'{collective}' unreachable"),
            ]),
            CachedFaultCell::Infeasible(msg) => table.row([
                seed,
                severity,
                msg,
                "-".into(),
                "-".into(),
                "-".into(),
                "-".into(),
                "-".into(),
                "-".into(),
                "-".into(),
            ]),
        };
    }
    write_metrics(&faults_args.metrics)?;
    Ok(if args.csv {
        table.to_csv()
    } else {
        table.to_markdown()
    })
}

/// The recovery-scorecard columns shared by `faults --recovery` and
/// `resilience` (each prepends its own lead columns).
const RECOVERY_COLUMNS: [&str; 8] = [
    "Done",
    "E2E fault-free",
    "Wall",
    "Goodput",
    "Lost work",
    "TTR",
    "Ckpts",
    "World",
];

/// Renders one cached recovery outcome into the shared scorecard columns.
fn recovery_columns(cached: &olab_resilience::CachedRecoveryCell) -> Vec<String> {
    use olab_resilience::CachedRecoveryCell;
    match cached {
        CachedRecoveryCell::Ok(m) => vec![
            if m.completed { "yes" } else { "KILLED" }.to_string(),
            ms(m.fault_free_e2e_s),
            ms(m.wall_s),
            format!("{:.2}/s", m.goodput_samples_per_s),
            ms(m.lost_work_s),
            ms(m.time_to_recover_s),
            m.checkpoints_written.to_string(),
            m.final_world_size.to_string(),
        ],
        CachedRecoveryCell::Infeasible(msg) => {
            let mut row = vec![msg.clone()];
            row.resize(RECOVERY_COLUMNS.len(), "-".into());
            row
        }
    }
}

/// `olab faults --recovery`: the fault sweep with the job reacting to
/// each scenario under one recovery policy.
fn faults_with_recovery(
    args: &RunArgs,
    faults_args: &FaultsArgs,
    policy: olab_resilience::RecoveryPolicy,
) -> Result<String, CliError> {
    use olab_resilience::ResilienceCell;

    let base = args.experiment();
    let cells: Vec<ResilienceCell> = faults_args
        .specs()
        .into_iter()
        .map(|spec| ResilienceCell::new(base.clone(), spec, policy))
        .collect();
    let outcome = run_fault_sweep(faults_args, &cells)?;
    if faults_args.observe {
        write_cell_artifacts(
            faults_args.out_dir.as_deref(),
            faults_args.sample_ms,
            &cells,
            "recovery cell",
            |cell| cell.spec.descriptor(),
            |cell, sample_ms| olab_obs::observe_recovery_cell(&base, &cell.spec, policy, sample_ms),
        )?;
    }

    let mut headers = vec!["Seed", "Severity", "Policy"];
    headers.extend(RECOVERY_COLUMNS);
    let mut table = Table::new(headers);
    for (cell, result) in cells.iter().zip(outcome.outputs) {
        let cached = result.map_err(|p| CliError(format!("faults sweep: {p}")))?;
        let mut row = vec![
            cell.spec.seed.to_string(),
            cell.spec.severity.to_string(),
            policy.name().to_string(),
        ];
        row.extend(recovery_columns(&cached));
        table.row(row);
    }
    write_metrics(&faults_args.metrics)?;
    Ok(if args.csv {
        table.to_csv()
    } else {
        table.to_markdown()
    })
}

/// Builds the grid engine the engine flags describe: `--jobs` workers
/// (default `available_parallelism`), a disk cache tier under `--cache
/// DIR` (default memory-only) capped at `--cache-max-bytes`, and a guard
/// from `--cell-timeout-s`. `sweep`, `faults` and
/// `resilience` build their engine here; `serve` hands the same fields
/// to `ServeConfig`.
fn executor<V: CacheValue>(engine: &EngineArgs) -> Result<Executor<V>, CliError> {
    let mut executor = Executor::new();
    if let Some(jobs) = engine.jobs {
        executor = executor.with_jobs(jobs);
    }
    if let Some(dir) = &engine.cache {
        executor = executor
            .with_disk_cache(dir)
            .map_err(|e| CliError(format!("--cache {dir}: {e}")))?;
    }
    if let Some(cap) = engine.cache_max_bytes {
        executor = executor.with_cache_cap(cap);
    }
    Ok(executor.with_guard(GuardConfig {
        cell_timeout_s: engine.cell_timeout_s,
    }))
}

/// Runs the cells of `faults` or `faults --recovery` on the engine the
/// flags describe, reporting `--observe` progress, and logs the telemetry
/// line.
fn run_fault_sweep<J: GridJob>(
    faults_args: &FaultsArgs,
    cells: &[J],
) -> Result<SweepRun<J::Output>, CliError> {
    let engine = executor(&faults_args.engine)?;
    let sinks = progress_sinks(faults_args.observe, faults_args.out_dir.as_deref())?;
    let mut outcome = engine.run_guarded(cells, engine.guard(), sinks.as_deref());
    log_landed(engine.cache(), sinks.as_deref(), &mut outcome.stats);
    Ok(outcome)
}

/// Logs a run's telemetry line once the cache's queued disk writes have
/// landed, folding the degradation latch into `stats` so the line reports
/// a full disk even when only the last queued write hit it; `sink` hears
/// of such a late degradation too, as it would have during the run.
fn log_landed<V: CacheValue>(
    cache: &ResultCache<V>,
    sink: Option<&dyn ProgressSink>,
    stats: &mut SweepStats,
) {
    cache.flush();
    if !stats.degraded && cache.is_degraded() {
        stats.degraded = true;
        if let Some(sink) = sink {
            let reason = cache.degraded_reason();
            sink.on_degraded(reason.as_deref().unwrap_or("unknown"));
        }
    }
    stats.log();
}

/// `olab resilience`: run every recovery policy against the same fault
/// scenarios and tabulate the comparison — fail-fast (lose everything),
/// auto-interval checkpoint/restart, and elastic shrink-and-continue.
pub fn resilience(args: &RunArgs, res: &ResilienceArgs) -> Result<String, CliError> {
    use olab_faults::FaultScenarioSpec;
    use olab_resilience::policy_grid;

    let base = args.experiment();
    let cells = policy_grid(
        &base,
        |seed| FaultScenarioSpec::abort(seed, res.severity),
        &res.seeds,
    );

    let outcome = executor(&EngineArgs {
        jobs: res.jobs,
        ..EngineArgs::default()
    })?
    .run(&cells);
    outcome.stats.log();

    let mut headers = vec!["Seed", "Policy"];
    headers.extend(RECOVERY_COLUMNS);
    let mut table = Table::new(headers);
    for (cell, result) in cells.iter().zip(outcome.outputs) {
        let cached = result.map_err(|p| CliError(format!("resilience sweep: {p}")))?;
        let mut row = vec![cell.spec.seed.to_string(), cell.policy.name().to_string()];
        row.extend(recovery_columns(&cached));
        table.row(row);
    }
    Ok(if args.csv {
        table.to_csv()
    } else {
        table.to_markdown()
    })
}

/// `olab observe`: run one cell with full observability and leave a
/// self-describing artifact directory (manifest, metrics, counter series,
/// Perfetto trace with counter tracks, event log). With `--fault-seed`
/// the cell runs under an injected fault scenario; aborted runs still
/// leave a complete record. Without `--out-dir` the manifest is printed
/// and nothing is written.
pub fn observe(args: &RunArgs, obs: &ObserveArgs) -> Result<String, CliError> {
    use olab_faults::FaultScenarioSpec;

    enable_metrics(&obs.metrics);
    let exp = match obs.cell.as_deref() {
        None => args.experiment(),
        Some("fig7") => olab_core::registry::fig7(),
        Some(other) => {
            return Err(CliError(format!(
                "unknown cell '{other}' (expected fig7, or describe one with the shared flags)"
            )))
        }
    };
    // The observed run executes under the same execution guard as sweep
    // cells: `--cell-timeout-s` bounds it, and a panic is reported
    // instead of crashing the CLI.
    let guard = olab_grid::GuardConfig {
        cell_timeout_s: obs.cell_timeout_s,
    };
    let result = olab_grid::guard::run_cell(&guard, |_ctx| match obs.fault_seed {
        None => olab_obs::observe_cell(&exp, obs.sample_ms).map_err(CliError::from),
        Some(seed) => {
            let spec = if obs.abort {
                FaultScenarioSpec::abort(seed, obs.severity)
            } else {
                FaultScenarioSpec::degrade(seed, obs.severity)
            };
            olab_obs::observe_fault_cell(&exp, &spec, obs.sample_ms)
                .map_err(|e| CliError(format!("fault cell failed: {e}")))
        }
    });
    let artifact = match result {
        Ok(run) => run?,
        Err(failure) => return Err(CliError(format!("observed run failed: {failure}"))),
    };
    write_metrics(&obs.metrics)?;
    match &obs.out_dir {
        Some(dir) => {
            let paths = artifact
                .write_to(Path::new(dir))
                .map_err(|e| CliError(format!("--out-dir {dir}: {e}")))?;
            let mut out = String::new();
            for p in &paths {
                let _ = writeln!(out, "wrote {}", p.display());
            }
            Ok(out)
        }
        None => Ok(artifact.manifest.to_json() + "\n"),
    }
}

/// Turns on the `olab-metrics` registry when `--metrics DIR` was given,
/// forcing registration of every engine family so the expositions are
/// complete (zeros included) regardless of which paths end up running.
fn enable_metrics(metrics: &MetricsArgs) {
    if metrics.dir.is_some() {
        olab_metrics::set_enabled(true);
        olab_core::fastpath::touch_metrics();
    }
}

/// Writes `metrics.prom` + `metrics.json` under `--metrics DIR` after the
/// command ran, validating the JSON exposition before anything touches
/// disk (`olab-metrics` is std-only and sits below `fmtutil`, so the
/// well-formedness check lives here). A no-op when the flag was absent.
/// With `--metrics-deterministic` only cross-run-stable families are
/// written, so CI can byte-compare the files across schedules.
fn write_metrics(metrics: &MetricsArgs) -> Result<(), CliError> {
    let Some(dir) = &metrics.dir else {
        return Ok(());
    };
    olab_core::fmtutil::validate_json(&olab_metrics::render_json())
        .map_err(|e| CliError(format!("--metrics: malformed exposition: {e}")))?;
    std::fs::create_dir_all(dir).map_err(|e| CliError(format!("--metrics {dir}: {e}")))?;
    let result = if metrics.deterministic {
        olab_metrics::write_files_deterministic(Path::new(dir))
    } else {
        olab_metrics::write_files(Path::new(dir))
    };
    result.map_err(|e| CliError(format!("--metrics {dir}: {e}")))
}

/// Builds the live-progress fan-out for `--observe`: a stderr status line
/// plus, when `--out-dir` is given, a `progress.jsonl` stream inside it.
/// `None` without `--observe`. The progress feed is wall-clock ordered —
/// it is deliberately outside the determinism guarantee the artifacts
/// carry.
fn progress_sinks(
    observe: bool,
    out_dir: Option<&str>,
) -> Result<Option<Box<dyn ProgressSink>>, CliError> {
    if !observe {
        return Ok(None);
    }
    let mut sinks = MultiSink::new();
    sinks.push(Box::new(StderrProgress::new(1)));
    if let Some(dir) = out_dir {
        std::fs::create_dir_all(dir).map_err(|e| CliError(format!("--out-dir {dir}: {e}")))?;
        let path = Path::new(dir).join("progress.jsonl");
        let file = std::fs::File::create(&path)
            .map_err(|e| CliError(format!("{}: {e}", path.display())))?;
        sinks.push(Box::new(JsonlProgress::new(file)));
    }
    Ok(Some(Box::new(sinks)))
}

/// The per-cell artifacts of `--observe --out-dir DIR`: observes every
/// cell again and writes its run artifact under `DIR/cell-NNN/`. A cell
/// that cannot be observed is reported on stderr and skipped. A no-op
/// without `--out-dir`.
fn write_cell_artifacts<C, E: std::fmt::Display>(
    out_dir: Option<&str>,
    sample_ms: f64,
    cells: &[C],
    kind: &str,
    describe: impl Fn(&C) -> String,
    observe: impl Fn(&C, f64) -> Result<olab_obs::RunArtifact, E>,
) -> Result<(), CliError> {
    let Some(dir) = out_dir else {
        return Ok(());
    };
    for (i, cell) in cells.iter().enumerate() {
        match observe(cell, sample_ms) {
            Ok(artifact) => {
                let cell_dir = Path::new(dir).join(format!("cell-{i:03}"));
                artifact
                    .write_to(&cell_dir)
                    .map_err(|e| CliError(format!("{}: {e}", cell_dir.display())))?;
            }
            Err(e) => eprintln!("[olab] {kind} {i} ({}) not observed: {e}", describe(cell)),
        }
    }
    Ok(())
}

/// `olab serve` — the sweep-as-a-service daemon, or a one-shot offline
/// render of the body the daemon would serve (`--oneshot QUERY`).
///
/// The daemon blocks until something posts `/v1/drain`, then drains
/// gracefully: no new admissions, every admitted request finished,
/// metrics expositions flushed.
pub fn serve(args: &ServeArgs) -> Result<String, CliError> {
    if let Some(query) = &args.oneshot {
        return olab_serve::oneshot(query).map_err(CliError);
    }
    let mut cfg = olab_serve::ServeConfig {
        addr: args.addr.clone(),
        metrics_deterministic: args.metrics.deterministic,
        ..olab_serve::ServeConfig::default()
    };
    let engine = &args.engine;
    cfg.jobs = engine.jobs.unwrap_or(cfg.jobs);
    cfg.cache_dir = engine.cache.as_ref().map(std::path::PathBuf::from);
    cfg.cache_max_bytes = engine.cache_max_bytes;
    cfg.cell_timeout_s = engine.cell_timeout_s;
    cfg.metrics_out = args.metrics.dir.as_ref().map(std::path::PathBuf::from);
    cfg.log = args.log.as_ref().map(std::path::PathBuf::from);
    if let Some(depth) = args.max_queue {
        cfg.max_queue = depth;
    }
    if let Some(workers) = args.http_workers {
        cfg.http_workers = workers;
    }
    if let Some(secs) = args.drain_timeout_s {
        cfg.drain_timeout_s = secs;
    }
    let handle = olab_serve::start(cfg).map_err(|e| CliError(format!("serve: {e}")))?;
    eprintln!(
        "[olab-serve] listening on http://{} (POST /v1/drain to stop)",
        handle.addr()
    );
    let report = handle.run_until_drained();
    Ok(format!(
        "drained clean; stranded workers: {}\n",
        report.stranded_workers
    ))
}

/// `olab tune`.
pub fn tune(args: &RunArgs, objective: Objective) -> Result<String, CliError> {
    let choice = tune_fsdp(&args.experiment(), objective)?;
    let mut table = Table::new(["Policy", "E2E", "Energy", "Score", "Pick"]);
    for (i, c) in choice.candidates.iter().enumerate() {
        table.row([
            c.policy.to_string(),
            ms(c.report.metrics.e2e_overlapped_s),
            format!("{:.0} J", c.report.metrics.energy_j),
            format!("{:.4}", c.score),
            if i == 0 { "<== best" } else { "" }.to_string(),
        ]);
    }
    let mut out = format!(
        "adaptive overlap search, objective = {objective}\n\n{}",
        if args.csv {
            table.to_csv()
        } else {
            table.to_markdown()
        }
    );
    let _ = writeln!(
        out,
        "\nbest policy '{}' improves {} by {} over always-overlap",
        choice.best().policy,
        objective,
        pct(choice.gain_over_default())
    );
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn help_mentions_every_subcommand() {
        let h = help();
        for sub in crate::args::Sub::ALL {
            assert!(h.contains(&format!("olab {}", sub.name())), "{sub:?}");
        }
        for flag in crate::args::FLAGS {
            assert!(h.contains(flag.name), "{}", flag.name);
        }
    }

    #[test]
    fn list_names_all_skus_and_models() {
        let l = list();
        for name in ["a100", "h100", "mi210", "mi250", "gpt3-13b", "llama2-13b"] {
            assert!(l.contains(name), "{name}");
        }
    }

    #[test]
    fn run_produces_metrics() {
        let args = RunArgs {
            seq: 256,
            ..Default::default()
        };
        let out = run(&args).unwrap();
        assert!(out.contains("compute slowdown"));
        assert!(out.contains("x TDP"));
    }

    #[test]
    fn invalid_cells_are_typed_errors() {
        for words in ["run --grad-accum 0 --seq 128", "run --gpus 1 --seq 128"] {
            let argv: Vec<String> = words.split_whitespace().map(String::from).collect();
            let err = crate::main_with(&argv).unwrap_err();
            assert!(err.0.contains("invalid configuration"), "{words}: {err}");
        }
    }

    /// A disk write that fails after the run returned, because it was
    /// still queued, reaches the stats line and the progress sink.
    #[cfg(target_os = "linux")]
    #[test]
    fn a_disk_failure_in_a_queued_write_still_reaches_stats_and_sink() {
        use std::sync::atomic::{AtomicUsize, Ordering};

        #[derive(Clone)]
        struct Unit;
        impl CacheValue for Unit {
            fn encode(&self, _: &mut olab_grid::Writer) {}
            fn decode(_: &mut olab_grid::Reader<'_>) -> Option<Self> {
                Some(Unit)
            }
        }
        #[derive(Default)]
        struct Degradations(AtomicUsize);
        impl ProgressSink for Degradations {
            fn on_cell(&self, _: &olab_grid::CellProgress<'_>) {}
            fn on_degraded(&self, _: &str) {
                self.0.fetch_add(1, Ordering::SeqCst);
            }
        }

        let dir = std::env::temp_dir().join(format!("olab-cli-late-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cache = ResultCache::<Unit>::with_disk(&dir).unwrap();
        // The first write's tmp name `{key}.{pid}.{instance}.0.tmp` is a
        // symlink to `/dev/full`; the lease names `{pid}.{instance}`.
        let lease = std::fs::read_dir(&dir)
            .unwrap()
            .flatten()
            .map(|e| e.file_name().to_string_lossy().into_owned())
            .find(|name| name.starts_with("lease."))
            .expect("the disk cache drops a lease");
        let key = ResultCache::<Unit>::key_of("late");
        let writer = lease.trim_start_matches("lease.");
        std::os::unix::fs::symlink("/dev/full", dir.join(format!("{key:016x}.{writer}.0.tmp")))
            .unwrap();
        cache.insert("late", Unit);

        let sink = Degradations::default();
        let mut stats = SweepStats::default();
        log_landed(&cache, Some(&sink), &mut stats);
        assert!(stats.degraded, "the flushed write's ENOSPC is reported");
        assert_eq!(sink.0.load(Ordering::SeqCst), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    fn jobs(n: usize) -> EngineArgs {
        EngineArgs {
            jobs: Some(n),
            ..EngineArgs::default()
        }
    }

    fn sweep_args(batches: &[u64]) -> SweepArgs {
        SweepArgs {
            batches: batches.to_vec(),
            engine: jobs(2),
            ..Default::default()
        }
    }

    #[test]
    fn sweep_renders_one_row_per_batch() {
        let args = RunArgs {
            seq: 256,
            ..Default::default()
        };
        let out = sweep(&args, &sweep_args(&[4, 8])).unwrap();
        assert_eq!(out.lines().count(), 4, "header + separator + 2 rows");
    }

    #[test]
    fn sweep_with_guard_and_capped_cache_matches_plain_sweep() {
        let dir = temp_dir("sweep-guarded");
        let _ = std::fs::remove_dir_all(&dir);
        let args = RunArgs {
            seq: 256,
            ..Default::default()
        };
        let mut hardened = sweep_args(&[4, 8]);
        hardened.engine.cache = Some(dir.display().to_string());
        hardened.engine.cache_max_bytes = Some(1_000_000);
        hardened.engine.cell_timeout_s = Some(120.0);
        assert_eq!(
            sweep(&args, &hardened).unwrap(),
            sweep(&args, &sweep_args(&[4, 8])).unwrap(),
            "guards and a generous cap must not change results"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn sweep_serial_and_parallel_render_identically() {
        let args = RunArgs {
            seq: 256,
            ..Default::default()
        };
        let mut serial = sweep_args(&[4, 8, 16]);
        serial.engine.jobs = Some(1);
        let parallel = sweep_args(&[4, 8, 16]);
        assert_eq!(
            sweep(&args, &serial).unwrap(),
            sweep(&args, &parallel).unwrap()
        );
    }

    #[test]
    fn sweep_uses_the_disk_cache_dir() {
        let dir = std::env::temp_dir().join(format!("olab-cli-cache-{}", std::process::id()));
        let args = RunArgs {
            seq: 256,
            ..Default::default()
        };
        let mut with_cache = sweep_args(&[4]);
        with_cache.engine.cache = Some(dir.display().to_string());
        let out = sweep(&args, &with_cache).unwrap();
        assert_eq!(out.lines().count(), 3, "header + separator + 1 row");
        let entries = std::fs::read_dir(&dir).unwrap().count();
        assert!(entries > 0, "cache dir has entries");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn faults_uses_the_disk_cache_dir() {
        let dir = temp_dir("faults-cache");
        let _ = std::fs::remove_dir_all(&dir);
        let fa = FaultsArgs {
            seeds: vec![1],
            severities: vec![olab_faults::Severity::Mild, olab_faults::Severity::Severe],
            engine: EngineArgs {
                cache: Some(dir.display().to_string()),
                ..jobs(2)
            },
            ..Default::default()
        };
        let cold = faults(&small_args(), &fa).unwrap();

        // A fresh engine over the same directory re-simulates nothing.
        let cells: Vec<_> = fa
            .specs()
            .into_iter()
            .map(|spec| olab_faults::FaultCell::new(small_args().experiment(), spec))
            .collect();
        let warm = run_fault_sweep(&fa, &cells).unwrap();
        assert_eq!(warm.stats.simulated, 0, "{}", warm.stats);
        assert_eq!(warm.stats.disk_hits, cells.len(), "{}", warm.stats);
        assert_eq!(faults(&small_args(), &fa).unwrap(), cold);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn trace_is_csv_with_overlap_column() {
        let args = RunArgs {
            seq: 256,
            ..Default::default()
        };
        let out = trace(&args, 5.0).unwrap();
        assert!(out.starts_with("t_ms,power_w"));
        assert!(out.lines().count() > 3);
    }

    #[test]
    fn chrome_emits_json() {
        let args = RunArgs {
            seq: 256,
            ..Default::default()
        };
        let out = chrome(&args).unwrap();
        assert!(out.trim_start().starts_with('['));
        assert!(out.contains("\"ph\": \"X\""));
    }

    #[test]
    fn faults_renders_one_row_per_scenario() {
        let args = RunArgs {
            seq: 256,
            model: olab_models::ModelPreset::Gpt3Xl,
            ..Default::default()
        };
        let faults_args = FaultsArgs {
            seeds: vec![1, 2],
            severities: vec![olab_faults::Severity::Mild, olab_faults::Severity::Severe],
            engine: jobs(2),
            ..Default::default()
        };
        let out = faults(&args, &faults_args).unwrap();
        assert_eq!(out.lines().count(), 6, "header + separator + 4 rows");
        assert!(out.contains("severe"));
    }

    #[test]
    fn faults_serial_and_parallel_render_identically() {
        let args = RunArgs {
            seq: 256,
            model: olab_models::ModelPreset::Gpt3Xl,
            ..Default::default()
        };
        let mut serial = FaultsArgs {
            seeds: vec![7],
            ..Default::default()
        };
        serial.engine.jobs = Some(1);
        let mut parallel = serial.clone();
        parallel.engine.jobs = Some(4);
        assert_eq!(
            faults(&args, &serial).unwrap(),
            faults(&args, &parallel).unwrap()
        );
    }

    fn small_args() -> RunArgs {
        RunArgs {
            seq: 256,
            model: olab_models::ModelPreset::Gpt3Xl,
            ..Default::default()
        }
    }

    fn temp_dir(tag: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("olab-cli-{tag}-{}", std::process::id()))
    }

    #[test]
    fn observe_writes_a_complete_artifact_dir() {
        let dir = temp_dir("observe");
        let _ = std::fs::remove_dir_all(&dir);
        let obs = ObserveArgs {
            out_dir: Some(dir.display().to_string()),
            sample_ms: 10.0,
            ..Default::default()
        };
        let out = observe(&small_args(), &obs).unwrap();
        for name in olab_obs::ARTIFACT_FILES {
            assert!(out.contains(name), "output mentions {name}");
            let meta = std::fs::metadata(dir.join(name)).unwrap_or_else(|e| panic!("{name}: {e}"));
            assert!(meta.len() > 0, "{name} is empty");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn observe_fault_cell_leaves_a_record() {
        let dir = temp_dir("observe-fault");
        let _ = std::fs::remove_dir_all(&dir);
        let obs = ObserveArgs {
            out_dir: Some(dir.display().to_string()),
            sample_ms: 10.0,
            fault_seed: Some(2),
            severity: olab_faults::Severity::Severe,
            ..Default::default()
        };
        observe(&small_args(), &obs).unwrap();
        let manifest = std::fs::read_to_string(dir.join("manifest.json")).unwrap();
        assert!(manifest.contains("\"fault\""));
        assert!(manifest.contains("\"seed\": 2"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn observe_without_out_dir_prints_the_manifest() {
        let obs = ObserveArgs {
            sample_ms: 10.0,
            ..Default::default()
        };
        let out = observe(&small_args(), &obs).unwrap();
        assert!(out.contains("\"kind\": \"experiment\""));
        assert!(out.contains("\"sample_ms\": 10"));
    }

    #[test]
    fn observe_rejects_unknown_cells() {
        let obs = ObserveArgs {
            cell: Some("fig99".to_string()),
            ..Default::default()
        };
        assert!(observe(&small_args(), &obs).is_err());
    }

    #[test]
    fn sweep_observe_writes_progress_and_cell_artifacts() {
        let dir = temp_dir("sweep-observe");
        let _ = std::fs::remove_dir_all(&dir);
        let mut sa = sweep_args(&[4, 8]);
        sa.observe = true;
        sa.out_dir = Some(dir.display().to_string());
        sa.sample_ms = 10.0;
        sweep(&small_args(), &sa).unwrap();
        let progress = std::fs::read_to_string(dir.join("progress.jsonl")).unwrap();
        assert_eq!(progress.lines().count(), 2);
        for cell in ["cell-000", "cell-001"] {
            for name in olab_obs::ARTIFACT_FILES {
                assert!(dir.join(cell).join(name).exists(), "{cell}/{name}");
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn faults_observe_writes_cell_artifacts() {
        let dir = temp_dir("faults-observe");
        let _ = std::fs::remove_dir_all(&dir);
        let fa = FaultsArgs {
            seeds: vec![1],
            severities: vec![olab_faults::Severity::Mild],
            engine: jobs(1),
            observe: true,
            out_dir: Some(dir.display().to_string()),
            sample_ms: 10.0,
            ..Default::default()
        };
        faults(&small_args(), &fa).unwrap();
        assert!(dir.join("progress.jsonl").exists());
        let manifest = std::fs::read_to_string(dir.join("cell-000/manifest.json")).unwrap();
        assert!(manifest.contains("\"fault\""));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn tune_reports_a_best_policy() {
        let args = RunArgs {
            seq: 256,
            ..Default::default()
        };
        let out = tune(&args, Objective::Latency).unwrap();
        assert!(out.contains("<== best"));
    }

    #[test]
    fn faults_with_recovery_renders_the_recovery_scorecard() {
        let fa = FaultsArgs {
            seeds: vec![3],
            severities: vec![olab_faults::Severity::Severe],
            abort: true,
            engine: jobs(1),
            recovery: Some(olab_resilience::RecoveryPolicy::ElasticContinue),
            ..Default::default()
        };
        let out = faults(&small_args(), &fa).unwrap();
        assert_eq!(out.lines().count(), 3, "header + separator + 1 row:\n{out}");
        assert!(out.contains("Goodput"), "{out}");
        assert!(out.contains("elastic"), "{out}");
        assert!(out.contains("yes"), "elastic survives the kill:\n{out}");
        assert!(out.contains(" 3"), "world shrinks to 3 ranks:\n{out}");
    }

    #[test]
    fn resilience_compares_all_three_policies_per_seed() {
        let res = ResilienceArgs {
            seeds: vec![3, 5],
            severity: olab_faults::Severity::Severe,
            jobs: Some(2),
        };
        let out = resilience(&small_args(), &res).unwrap();
        assert_eq!(
            out.lines().count(),
            8,
            "header + separator + 6 rows:\n{out}"
        );
        for policy in ["failfast", "ckpt", "elastic"] {
            assert!(out.contains(policy), "{policy}:\n{out}");
        }
    }

    /// The acceptance check: on a cell whose scenario kills a rank,
    /// elastic continuation lands strictly between fail-fast death
    /// (goodput zero) and the fault-free run (wall above the fault-free
    /// makespan, so the rate is strictly below the healthy one).
    #[test]
    fn resilience_ranks_elastic_between_death_and_fault_free() {
        let mut args = small_args();
        args.csv = true;
        let res = ResilienceArgs {
            seeds: vec![3],
            severity: olab_faults::Severity::Severe,
            jobs: Some(1),
        };
        let out = resilience(&args, &res).unwrap();
        let field = |policy: &str, idx: usize| -> String {
            let line = out
                .lines()
                .find(|l| l.split(',').nth(1) == Some(policy))
                .unwrap_or_else(|| panic!("no {policy} row in:\n{out}"));
            line.split(',').nth(idx).unwrap().to_string()
        };
        let goodput =
            |policy: &str| -> f64 { field(policy, 5).trim_end_matches("/s").parse().unwrap() };
        let millis = |policy: &str, idx: usize| -> f64 {
            field(policy, idx).trim_end_matches(" ms").parse().unwrap()
        };
        assert!(field("failfast", 2).contains("KILLED"), "{out}");
        assert_eq!(goodput("failfast"), 0.0, "a killed job commits nothing");
        assert!(goodput("elastic") > 0.0, "{out}");
        let fault_free = millis("elastic", 3);
        let wall = millis("elastic", 4);
        assert!(
            wall > fault_free,
            "recovered wall {wall} ms must exceed fault-free {fault_free} ms, \
             so elastic goodput sits strictly below the healthy rate:\n{out}"
        );
        assert_eq!(field("elastic", 9), "3", "world shrinks to 3:\n{out}");
    }

    #[test]
    fn resilience_serial_and_parallel_render_identically() {
        let res_serial = ResilienceArgs {
            seeds: vec![3],
            severity: olab_faults::Severity::Severe,
            jobs: Some(1),
        };
        let mut res_parallel = res_serial.clone();
        res_parallel.jobs = Some(4);
        assert_eq!(
            resilience(&small_args(), &res_serial).unwrap(),
            resilience(&small_args(), &res_parallel).unwrap()
        );
    }

    #[test]
    fn faults_recovery_observe_writes_resilience_artifacts() {
        let dir = temp_dir("faults-recovery-observe");
        let _ = std::fs::remove_dir_all(&dir);
        let fa = FaultsArgs {
            seeds: vec![3],
            severities: vec![olab_faults::Severity::Severe],
            abort: true,
            engine: jobs(1),
            observe: true,
            out_dir: Some(dir.display().to_string()),
            sample_ms: 10.0,
            recovery: Some(olab_resilience::RecoveryPolicy::ElasticContinue),
            ..Default::default()
        };
        faults(&small_args(), &fa).unwrap();
        let manifest = std::fs::read_to_string(dir.join("cell-000/manifest.json")).unwrap();
        assert!(manifest.contains("\"kind\": \"resilience\""), "{manifest}");
        assert!(manifest.contains("policy=elastic"), "{manifest}");
        std::fs::remove_dir_all(&dir).ok();
    }
}
