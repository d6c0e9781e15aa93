//! The traced run's span recorder, and the stage-by-stage replay of
//! `Experiment::run` it wraps in spans.
//!
//! Spans are recorded from the benchmark's own code, around calls into the
//! program's public functions; nothing inside the program is instrumented.
//! They stay in memory until the run ends and are then written out whole.

use olab_core::sweep::CachedCell;
use olab_core::{
    execute, execute_lean, CellError, CellMetrics, Experiment, ExperimentError, ExperimentReport,
    Jitter, OverlapMetrics,
};
use olab_parallel::ExecutionMode;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer and call, e.g. `parallel.lower`.
    pub name: &'static str,
    /// Start, nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The operation (cell or request) the span belongs to.
    pub op: u64,
}

impl Span {
    fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Per-name totals over a trace.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Totals {
    /// Spans with this name.
    pub count: u64,
    /// Summed duration, nanoseconds.
    pub total_ns: u64,
    /// Summed duration minus the time covered by child spans.
    pub self_ns: u64,
}

/// An in-memory span recorder.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    /// Tasks lowered by every replayed `timeline` call.
    pub tasks: u64,
}

impl Tracer {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            tasks: 0,
        }
    }

    /// The recorder's current time, nanoseconds.
    pub fn clock_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span nested in the innermost open one; returns its index.
    pub fn open(&mut self, name: &'static str, op: u64) -> usize {
        let span = Span {
            name,
            start_ns: self.clock_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            op,
        };
        let idx = self.spans.len();
        self.open.push(idx);
        self.spans.push(span);
        idx
    }

    /// Closes the innermost open span.
    pub fn close(&mut self) {
        let idx = self.open.pop().expect("close without open");
        self.spans[idx].end_ns = self.clock_ns();
    }

    /// Runs `f` inside a span.
    pub fn span<R>(&mut self, name: &'static str, op: u64, f: impl FnOnce() -> R) -> R {
        self.open(name, op);
        let out = f();
        self.close();
        out
    }

    /// Records a span measured elsewhere (for example the server's own
    /// time for a request) as a child of span `parent`.
    pub fn record(&mut self, name: &'static str, parent: usize, start_ns: u64, dur_ns: u64) {
        let op = self.spans[parent].op;
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns + dur_ns,
            parent: Some(parent),
            op,
        });
    }

    /// Count, total and self time of every span name.
    pub fn totals(&self) -> BTreeMap<&'static str, Totals> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.dur_ns();
            }
        }
        let mut out: BTreeMap<&'static str, Totals> = BTreeMap::new();
        for (s, children) in self.spans.iter().zip(child_ns) {
            let t = out.entry(s.name).or_default();
            t.count += 1;
            t.total_ns += s.dur_ns();
            t.self_ns += s.dur_ns().saturating_sub(children);
        }
        out
    }

    /// Mean duration of the spans named `name`, nanoseconds (0 if none).
    pub fn mean_ns(&self, name: &str) -> f64 {
        self.totals()
            .get(name)
            .map_or(0.0, |t| t.total_ns as f64 / t.count as f64)
    }

    /// The spans as one JSON document.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"spans\": [\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{}{{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"op\": {}}}",
                if i == 0 { "" } else { ",\n" },
                s.name,
                s.start_ns,
                s.end_ns,
                s.op
            );
        }
        out.push_str("\n]}\n");
        out
    }
}

/// Replays `Experiment::run` (or `run_jittered`, given a jitter) step by
/// step through the same public calls, one span per step, and returns the
/// cell the way `GridJob::execute` would. The traced run is only evidence
/// about the program if this reproduces the program's own result bit for
/// bit; callers check that.
pub fn replay(exp: &Experiment, jitter: Option<Jitter>, tr: &mut Tracer, op: u64) -> CachedCell {
    tr.open("core.run", op);
    let outcome = replay_stages(exp, jitter, tr, op);
    tr.close();
    CachedCell(outcome.map_err(CellError::from))
}

fn replay_stages(
    exp: &Experiment,
    jitter: Option<Jitter>,
    tr: &mut Tracer,
    op: u64,
) -> Result<CellMetrics, ExperimentError> {
    let policy = tr.span("core.validate", op, || exp.validate())?;
    let machine = tr.span("core.machine", op, || {
        let machine = exp.machine();
        match jitter {
            Some(j) => machine.with_jitter(j),
            None => machine,
        }
    });
    let workload = tr.span("parallel.lower", op, || {
        exp.timeline(ExecutionMode::Overlapped, policy)
    })?;
    tr.tasks += workload.len() as u64;
    let overlapped = tr.span("sim.overlapped", op, || execute(&workload, &machine))?;
    let workload = tr.span("parallel.lower", op, || {
        exp.timeline(ExecutionMode::Sequential, policy)
    })?;
    tr.tasks += workload.len() as u64;
    let sequential = tr.span("core.sequential", op, || execute(&workload, &machine))?;
    let workload = tr.span("parallel.lower", op, || {
        exp.timeline(ExecutionMode::Overlapped, policy)
    })?;
    tr.tasks += workload.len() as u64;
    let ideal = tr.span("core.ideal", op, || {
        execute_lean(&workload, &machine.uncontended())
    })?;
    let metrics = tr.span("core.derive", op, || {
        OverlapMetrics::derive(&overlapped, &sequential)
    });
    let sampled = tr.span("power.sample", op, || {
        overlapped.gpus[0].power.sample(exp.sampler())
    });
    let report = ExperimentReport {
        experiment: exp.clone(),
        activation_policy: policy,
        metrics,
        sampled_avg_w: sampled.average().unwrap_or(0.0),
        sampled_peak_w: sampled.peak().unwrap_or(0.0),
        ideal_simulated_e2e_s: ideal.e2e_s,
        overlapped,
        sequential,
    };
    Ok(CellMetrics::from_report(&report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use olab_grid::GridJob;

    #[test]
    fn self_time_subtracts_children() {
        let mut tr = Tracer::new();
        let outer = tr.open("outer", 1);
        let start = tr.clock_ns();
        std::thread::sleep(std::time::Duration::from_millis(2));
        tr.close();
        tr.record("inner", outer, start, 1_000);
        let t = tr.totals();
        assert_eq!(t["inner"].total_ns, 1_000);
        assert_eq!(t["outer"].self_ns, t["outer"].total_ns - 1_000);
        assert_eq!((tr.spans[1].parent, tr.spans[1].op), (Some(0), 1));
    }

    #[test]
    fn replay_reproduces_grid_job_execute_bit_for_bit() {
        let exp = olab_core::registry::main_grid().remove(0).with_seq(256);
        let mut tr = Tracer::new();
        let replayed = replay(&exp, None, &mut tr, 0);
        assert_eq!(crate::digest(&replayed), crate::digest(&exp.execute()));
        let names: Vec<&str> = tr.spans.iter().map(|s| s.name).collect();
        assert_eq!(
            names,
            [
                "core.run",
                "core.validate",
                "core.machine",
                "parallel.lower",
                "sim.overlapped",
                "parallel.lower",
                "core.sequential",
                "parallel.lower",
                "core.ideal",
                "core.derive",
                "power.sample"
            ]
        );
    }

    #[test]
    fn jittered_replay_reproduces_run_jittered() {
        let exp = olab_core::registry::main_grid().remove(0).with_seq(256);
        let jitter = Jitter {
            seed: 11,
            sigma: 0.05,
        };
        let replayed = replay(&exp, Some(jitter), &mut Tracer::new(), 0);
        let direct = CachedCell(
            exp.run_jittered(11, 0.05)
                .map(|r| CellMetrics::from_report(&r))
                .map_err(CellError::from),
        );
        assert_eq!(crate::digest(&replayed), crate::digest(&direct));
    }
}
