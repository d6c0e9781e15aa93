//! The two grid workloads, and the per-layer accounting all three share.

use crate::inputs::{self, Rng};
use crate::kernel::Meter;
use crate::serve::{serve_probe, ServeLayer};
use crate::stats::{self, Headline};
use crate::trace::{replay, Tracer};
use crate::{
    digest, digest_outcome, end_to_end, load_headline, load_reference, measure_setup, per_second,
    ref_diagnostics, run_passes, Args, Metric, Passes, Record, Report, Tally, ThreadWatch,
};
use olab_core::sweep::CachedCell;
use olab_core::{registry, CellMetrics, CellOutcome, Experiment, Jitter, Sweep};
use olab_grid::{CacheValue, GridJob, Reader, ResultCache, Writer};
use olab_metrics::Determinism;
use olab_models::ModelPreset;
use std::hint::black_box;

/// Every workload runs at least this many passes, however short the
/// budget, so the median pass exists.
const MIN_PASSES: usize = 3;

/// Cells the set-up runs once to fault in code and fill lazy state: the
/// smallest main-grid cell of every SKU.
fn warmup_cells(grid: &[Experiment]) -> Vec<Experiment> {
    grid.iter()
        .filter(|e| {
            e.model == ModelPreset::Gpt3Xl
                && matches!(e.strategy, olab_core::Strategy::Fsdp)
                && e.batch == 8
        })
        .cloned()
        .collect()
}

/// Registry counters the traced run reads before and after its traced
/// phase.
#[derive(Debug, Clone, Copy)]
pub struct Counts {
    /// Legs the analytic fast path served.
    pub fast: u64,
    /// Legs the event loop ran.
    pub event_loop: u64,
    /// Completed engine runs.
    pub engine_runs: u64,
    /// Cache hits, memory and disk.
    pub hits: u64,
    /// Cache misses.
    pub misses: u64,
    /// Requests the server executed.
    pub executed: u64,
    /// Requests the server coalesced.
    pub coalesced: u64,
}

impl Counts {
    /// Turns recording on and reads every counter.
    pub fn start() -> Counts {
        olab_metrics::set_enabled(true);
        olab_core::fastpath::touch_metrics();
        olab_serve::metrics::touch();
        Counts::now()
    }

    fn now() -> Counts {
        let c = |name: &'static str| olab_metrics::counter(name, Determinism::CrossRun, "").get();
        Counts {
            fast: c("olab_core_route_fast_full_total") + c("olab_core_route_fast_lean_total"),
            event_loop: c("olab_core_route_event_loop_full_total")
                + c("olab_core_route_event_loop_lean_total"),
            engine_runs: c("olab_sim_engine_runs_total"),
            hits: c("olab_cache_memory_hits_total") + c("olab_cache_disk_hits_total"),
            misses: c("olab_cache_misses_total"),
            executed: c("olab_serve_executed_total"),
            coalesced: c("olab_serve_coalesced_total"),
        }
    }

    /// Counts since `self`.
    pub fn since(self) -> Counts {
        let n = Counts::now();
        Counts {
            fast: n.fast - self.fast,
            event_loop: n.event_loop - self.event_loop,
            engine_runs: n.engine_runs - self.engine_runs,
            hits: n.hits - self.hits,
            misses: n.misses - self.misses,
            executed: n.executed - self.executed,
            coalesced: n.coalesced - self.coalesced,
        }
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Cache-layer timings taken from the program's own `olab_cache_*`
/// histograms, microseconds: `(lookup hit, lookup miss, insert)`.
pub type CacheTimings = (f64, f64, f64);

/// Everything the per-layer metrics are computed from.
pub struct Layers {
    /// Spans of the traced phase and the layer probes.
    pub tr: Tracer,
    /// Counter deltas over the traced operations.
    pub counts: Counts,
    /// Cells the traced operations simulated (engine runs per cell).
    pub simulated: f64,
    /// The serving front-end, measured live.
    pub serve: ServeLayer,
    /// Cache timings from the program's histograms where the workload
    /// runs the real cache path; otherwise the probes' spans are used.
    pub cache: Option<CacheTimings>,
    /// Operations per pass.
    pub ops_per_pass: usize,
    /// Pass times of the untraced phase.
    pub untraced: Passes,
    /// Pass times of the traced phase.
    pub traced: Passes,
    /// Peak thread count seen.
    pub threads: u64,
}

/// The per-layer metrics printed by `--trace 1`.
fn per_layer(l: &Layers, meter: &Meter, record: &mut Record) -> Vec<Metric> {
    let totals = l.tr.totals();
    let total_ms = |name: &str| totals.get(name).map_or(0.0, |t| t.total_ns as f64 / 1e6);
    let mean_us = |name: &str| l.tr.mean_ns(name) / 1e3;
    // Cells that reached lowering: the feasible ones.
    let lowered = totals.get("sim.overlapped").map_or(0.0, |t| t.count as f64);
    let per_cell_ms = |name: &str| ratio(total_ms(name), lowered);
    let (hit_us, miss_us, insert_us) = l.cache.unwrap_or_else(|| {
        (
            mean_us("grid.lookup_hit"),
            mean_us("grid.lookup_miss"),
            mean_us("grid.insert"),
        )
    });
    let c = l.counts;
    let untraced = per_second(l.ops_per_pass, &l.untraced.corrected);
    let traced = per_second(l.ops_per_pass, &l.traced.corrected);
    for (name, t) in &totals {
        record.num(&format!("self_ms.{name}"), t.self_ns as f64 / 1e6);
        record.num(&format!("spans.{name}"), t.count as f64);
    }
    record.num("cells_per_s_untraced_corrected", untraced);
    record.num(
        "cells_per_s_untraced_raw",
        per_second(l.ops_per_pass, &l.untraced.raw),
    );
    record.num("cells_per_s_traced_corrected", traced);
    record.num(
        "cells_per_s_traced_raw",
        per_second(l.ops_per_pass, &l.traced.raw),
    );
    ref_diagnostics(record, meter);
    record.num("threads_peak", l.threads as f64);
    record.num("nproc", crate::nproc() as f64);
    vec![
        ("parallel.lower_ms", per_cell_ms("parallel.lower"), "ms"),
        ("parallel.tasks", ratio(l.tr.tasks as f64, lowered), "count"),
        ("sim.overlapped_ms", per_cell_ms("sim.overlapped"), "ms"),
        (
            "sim.engine_runs",
            ratio(c.engine_runs as f64, l.simulated),
            "count",
        ),
        ("core.sequential_ms", per_cell_ms("core.sequential"), "ms"),
        ("core.ideal_ms", per_cell_ms("core.ideal"), "ms"),
        ("core.derive_us", mean_us("core.derive"), "us"),
        ("core.validate_us", mean_us("core.validate"), "us"),
        (
            "core.run_self_us",
            ratio(
                totals
                    .get("core.run")
                    .map_or(0.0, |t| t.self_ns as f64 / 1e3),
                lowered,
            ),
            "us",
        ),
        (
            "core.route_fast_frac",
            ratio(c.fast as f64, (c.fast + c.event_loop) as f64),
            "frac",
        ),
        ("power.sample_us", mean_us("power.sample"), "us"),
        ("grid.lookup_hit_us", hit_us, "us"),
        ("grid.lookup_miss_us", miss_us, "us"),
        ("grid.insert_us", insert_us, "us"),
        (
            "grid.hit_frac",
            ratio(c.hits as f64, (c.hits + c.misses) as f64),
            "frac",
        ),
        ("grid.encode_us", mean_us("grid.encode"), "us"),
        ("grid.decode_us", mean_us("grid.decode"), "us"),
        ("grid.cost_hint_ms", mean_us("grid.cost_hint") / 1e3, "ms"),
        ("serve.parse_us", mean_us("serve.parse"), "us"),
        ("serve.render_us", mean_us("serve.render"), "us"),
        ("serve.server_ms", l.serve.server_ms, "ms"),
        ("serve.transport_ms", l.serve.transport_ms, "ms"),
        ("serve.executed", l.serve.executed as f64, "count"),
        ("serve.coalesced", l.serve.coalesced as f64, "count"),
        ("bench.ref_ms", stats::median(&meter.probes_ms), "ms"),
        ("bench.ref_cv", stats::cv(&meter.probes_ms), "frac"),
        (
            "bench.trace_overhead_pct",
            100.0 * (1.0 - ratio(traced, untraced)),
            "%",
        ),
        ("bench.cells_per_s_traced", traced, "1/s"),
    ]
}

/// Times the cache, codec, cost-hint, query and render layers once per
/// cell on the workload's own cells and outcomes, each call in its own
/// span. Decoding must give back the encoded cell.
pub fn probe_layers(cells: &[(Experiment, CachedCell)], tr: &mut Tracer, tally: &mut Tally) {
    let cache = ResultCache::<CachedCell>::in_memory();
    for (k, (exp, out)) in cells.iter().enumerate() {
        let op = k as u64;
        let d = exp.descriptor();
        black_box(tr.span("grid.lookup_miss", op, || cache.lookup(&d)));
        tr.span("grid.insert", op, || cache.insert(&d, out.clone()));
        black_box(tr.span("grid.lookup_hit", op, || cache.lookup(&d)));
        let bytes = tr.span("grid.encode", op, || {
            let mut w = Writer::new();
            out.encode(&mut w);
            w.into_bytes()
        });
        let back = tr.span("grid.decode", op, || {
            CachedCell::decode(&mut Reader::new(&bytes))
        });
        tally.check(back.as_ref() == Some(out), || {
            format!("codec round trip changed {}", exp.label())
        });
        black_box(tr.span("grid.cost_hint", op, || exp.cost_hint()));
        let query = inputs::query_of(exp);
        let parsed = tr.span("serve.parse", op, || olab_serve::parse_query(&query));
        tally.check(parsed.is_ok(), || {
            format!("query of {} does not parse", exp.label())
        });
        black_box(tr.span("serve.render", op, || {
            olab_serve::render_cell_body(&d, &out.0)
        }));
    }
}

/// One serial `main_grid` pass on a fresh sweep, verified against the
/// recorded digests and `results/headline.md`; returns the headline.
/// Workloads that do not sweep the grid themselves take their
/// `headline_err_pp` from this pass, outside their timed region.
pub fn headline_pass(tally: &mut Tally) -> Result<Headline, String> {
    let grid = registry::main_grid();
    let reference = load_reference(&grid)?;
    let expected = load_headline()?;
    let cells = Sweep::new().with_jobs(1).run(&grid).cells;
    for (i, cell) in cells.iter().enumerate() {
        tally.check(digest_outcome(cell) == reference[i], || {
            format!("main-grid cell {i} differs from its recorded digest")
        });
    }
    let h = Headline::of(&cells);
    if !expected.matches(&h) {
        tally.fail("headline statistics differ from results/headline.md".into());
    }
    Ok(h)
}

/// `grid_cold`: repeated cold regenerations of the paper's main grid, one
/// cell per operation on a fresh serial memory-only sweep per pass.
pub fn grid_cold(args: &Args) -> Result<Report, String> {
    let grid = registry::main_grid();
    let reference = load_reference(&grid)?;
    let expected = load_headline()?;
    let setup = measure_setup(|| {
        let grid = registry::main_grid();
        let sweep = Sweep::new().with_jobs(1);
        black_box(sweep.run(&warmup_cells(&grid)));
    });
    let mut rng = Rng::new(args.seed, inputs::GRID_SALT);
    let mut tally = Tally::default();
    let mut threads = ThreadWatch::default();
    let mut headline = None;
    let budget = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let mut meter = Meter::new();
    let passes = run_passes(&mut meter, budget, MIN_PASSES, |meter| {
        let order = rng.permutation(grid.len());
        let sweep = Sweep::new().with_jobs(1);
        let mut cells: Vec<Option<CellOutcome>> = vec![None; grid.len()];
        for &i in &order {
            let cell = meter
                .time(|| sweep.run(std::slice::from_ref(&grid[i])))
                .cells
                .remove(0);
            tally.check(digest_outcome(&cell) == reference[i], || {
                format!("{} differs from its recorded digest", grid[i].label())
            });
            cells[i] = Some(cell);
        }
        let cells: Vec<CellOutcome> = cells.into_iter().flatten().collect();
        let h = Headline::of(&cells);
        if !expected.matches(&h) {
            tally.fail("headline statistics differ from results/headline.md".into());
        }
        headline = Some(h);
        threads.sample();
    });
    let err_pp = headline
        .expect("at least one pass ran")
        .err_pp(expected.paper_pct);
    if !args.trace {
        let (metrics, record) = end_to_end(&meter, &passes, grid.len(), &setup, err_pp, &threads);
        return Ok(Report {
            tally,
            metrics,
            record,
        });
    }

    // Traced phase: the same passes, each cell replayed stage by stage
    // through the calls `Sweep::run` makes, every call in a span.
    let counts = Counts::start();
    let mut tr = Tracer::new();
    let mut traced_meter = Meter::new();
    let mut op = 0u64;
    let mut first_pass: Vec<Option<CachedCell>> = vec![None; grid.len()];
    let mut simulated = 0.0;
    let traced_passes = run_passes(&mut traced_meter, budget, 1, |meter| {
        let order = rng.permutation(grid.len());
        let cache = ResultCache::<CachedCell>::in_memory();
        for &i in &order {
            let exp = &grid[i];
            let out = meter.time(|| {
                tr.open("op", op);
                let d = tr.span("grid.descriptor", op, || exp.descriptor());
                black_box(tr.span("grid.lookup", op, || cache.lookup(&d)));
                let out = replay(exp, None, &mut tr, op);
                tr.span("grid.insert", op, || cache.insert(&d, out.clone()));
                tr.close();
                out
            });
            tally.check(digest(&out) == reference[i], || {
                format!("traced {} differs from its recorded digest", exp.label())
            });
            if out.0.is_ok() {
                simulated += 1.0;
            }
            first_pass[i].get_or_insert(out);
            op += 1;
        }
    });
    let counts = counts.since();
    let cells: Vec<(Experiment, CachedCell)> = grid
        .iter()
        .cloned()
        .zip(first_pass.into_iter().flatten())
        .collect();
    prove_against_execute(&cells, &mut tally);
    probe_layers(&cells, &mut tr, &mut tally);
    let serve = serve_probe(&feasible_sample(&cells), &mut tr, &mut tally)?;
    let layers = Layers {
        tr,
        counts,
        simulated,
        serve,
        cache: None,
        ops_per_pass: grid.len(),
        untraced: passes,
        traced: traced_passes,
        threads: threads.peak,
    };
    Ok(finish_traced(args, layers, tally, &meter))
}

/// The traced decomposition only describes the program if replaying the
/// stages gives `GridJob::execute`'s result bit for bit; a cell that does
/// not fails the traced run.
fn prove_against_execute(cells: &[(Experiment, CachedCell)], tally: &mut Tally) {
    for (exp, replayed) in cells {
        tally.check(digest(replayed) == digest(&exp.execute()), || {
            format!(
                "replayed stages of {} differ from GridJob::execute",
                exp.label()
            )
        });
    }
}

/// Up to 16 feasible cells spread over the list, for the live serve probe.
fn feasible_sample(cells: &[(Experiment, CachedCell)]) -> Vec<Experiment> {
    cells
        .iter()
        .filter(|(_, out)| out.0.is_ok())
        .step_by(7)
        .take(16)
        .map(|(e, _)| e.clone())
        .collect()
}

/// Writes the spans out and assembles the traced run's report.
pub fn finish_traced(args: &Args, layers: Layers, tally: Tally, meter: &Meter) -> Report {
    let mut record = Record::default();
    let metrics = per_layer(&layers, meter, &mut record);
    let dir = crate::out_dir();
    let path = dir.join(format!("trace-{}-seed{}.json", args.workload, args.seed));
    match std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, layers.tr.to_json())) {
        Ok(()) => record.text("spans_file", &path.display().to_string()),
        Err(e) => eprintln!("olab-perfbench: cannot write spans: {e}"),
    }
    Report {
        tally,
        metrics,
        record,
    }
}

fn jittered(result: Result<olab_core::ExperimentReport, olab_core::ExperimentError>) -> CachedCell {
    CachedCell(
        result
            .map(|r| CellMetrics::from_report(&r))
            .map_err(olab_core::CellError::from),
    )
}

/// Every this many operations of `jitter_repeats`, one is rerun after the
/// timed region and must come back bit-identical.
const RERUN_EVERY: usize = 10;

/// `jitter_repeats`: the paper's repeated noisy runs, one serial
/// `Experiment::run_jittered` per operation over the feasible main-grid
/// cells. Jitter keeps every leg off the analytic fast path.
pub fn jitter_repeats(args: &Args) -> Result<Report, String> {
    let grid = registry::main_grid();
    let feasible_of = |grid: &[Experiment]| -> Vec<usize> {
        (0..grid.len())
            .filter(|&i| grid[i].validate().is_ok())
            .collect()
    };
    let setup = measure_setup(|| {
        let grid = registry::main_grid();
        black_box(feasible_of(&grid));
        for (k, e) in warmup_cells(&grid).iter().enumerate() {
            black_box(e.run_jittered(k as u64, inputs::JITTER_SIGMA).ok());
        }
    });
    let feasible = feasible_of(&grid);
    let mut rng = Rng::new(args.seed, inputs::JITTER_SALT);
    let mut tally = Tally::default();
    let mut threads = ThreadWatch::default();
    let mut reruns: Vec<(usize, u64, u64)> = Vec::new();
    let budget = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let mut meter = Meter::new();
    let passes = run_passes(&mut meter, budget, MIN_PASSES, |meter| {
        for (i, seed) in inputs::jitter_round(&mut rng, &feasible) {
            let out = meter.time(|| grid[i].run_jittered(seed, inputs::JITTER_SIGMA));
            let cell = jittered(out);
            tally.check(cell.0.is_ok(), || {
                format!("{} failed under jitter", grid[i].label())
            });
            if (tally.attempted as usize - 1).is_multiple_of(RERUN_EVERY) {
                reruns.push((i, seed, digest(&cell)));
            }
        }
        threads.sample();
    });
    for &(i, seed, d) in &reruns {
        let again = jittered(grid[i].run_jittered(seed, inputs::JITTER_SIGMA));
        if digest(&again) != d {
            tally.fail(format!(
                "rerun of {} with jitter seed {seed} is not bit-identical",
                grid[i].label()
            ));
        }
    }
    let err_pp = headline_pass(&mut tally)?.err_pp(load_headline()?.paper_pct);
    if !args.trace {
        let (metrics, mut record) =
            end_to_end(&meter, &passes, feasible.len(), &setup, err_pp, &threads);
        record.num("reruns_checked", reruns.len() as f64);
        return Ok(Report {
            tally,
            metrics,
            record,
        });
    }

    let counts = Counts::start();
    let mut tr = Tracer::new();
    let mut traced_meter = Meter::new();
    let mut op = 0u64;
    let mut ran: Vec<(usize, u64, CachedCell)> = Vec::new();
    let traced_passes = run_passes(&mut traced_meter, budget, 1, |meter| {
        for (i, seed) in inputs::jitter_round(&mut rng, &feasible) {
            let jitter = Jitter {
                seed,
                sigma: inputs::JITTER_SIGMA,
            };
            let out = meter.time(|| {
                tr.open("op", op);
                let out = replay(&grid[i], Some(jitter), &mut tr, op);
                tr.close();
                out
            });
            ran.push((i, seed, out));
            op += 1;
        }
    });
    let counts = counts.since();
    for (i, seed, replayed) in &ran {
        let direct = jittered(grid[*i].run_jittered(*seed, inputs::JITTER_SIGMA));
        tally.check(digest(replayed) == digest(&direct), || {
            format!(
                "replayed stages of {} differ from run_jittered",
                grid[*i].label()
            )
        });
    }
    let mut seen = vec![false; grid.len()];
    let cells: Vec<(Experiment, CachedCell)> = ran
        .iter()
        .filter(|(i, _, _)| !std::mem::replace(&mut seen[*i], true))
        .map(|(i, _, out)| (grid[*i].clone(), out.clone()))
        .collect();
    probe_layers(&cells, &mut tr, &mut tally);
    let serve = serve_probe(&feasible_sample(&cells), &mut tr, &mut tally)?;
    let layers = Layers {
        tr,
        counts,
        simulated: ran.len() as f64,
        serve,
        cache: None,
        ops_per_pass: feasible.len(),
        untraced: passes,
        traced: traced_passes,
        threads: threads.peak,
    };
    Ok(finish_traced(args, layers, tally, &meter))
}
