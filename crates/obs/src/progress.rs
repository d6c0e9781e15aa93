//! Sweep progress sinks: live stderr status and a JSONL progress stream.
//!
//! These implement [`olab_grid::ProgressSink`] and are wired into sweeps
//! as the `sink` argument of `Sweep::run_guarded` /
//! `Executor::run_guarded`.
//! Progress updates arrive in *completion* order from worker threads —
//! the stream is wall-clock ordered and explicitly **not** part of the
//! determinism guarantee (the artifacts are; the progress feed is not).
//! Panicked cells are isolated by the pool and surface only in the final
//! sweep stats, never through these sinks.

use crate::event::{to_jsonl, ObsEvent};
use olab_core::fmtutil::json_escape;
use olab_grid::{CellProgress, ProgressSink};
use std::fmt::Write as _;
use std::io::Write as _;
use std::sync::Mutex;

/// Writes a one-line progress update to stderr for every `every`-th cell
/// (and always for the last one), overwriting in place with `\r`.
#[derive(Debug)]
pub struct StderrProgress {
    every: usize,
    out: Mutex<std::io::Stderr>,
}

impl StderrProgress {
    /// A sink printing every `every`-th update (0 is treated as 1).
    pub fn new(every: usize) -> Self {
        StderrProgress {
            every: every.max(1),
            out: Mutex::new(std::io::stderr()),
        }
    }
}

impl Default for StderrProgress {
    fn default() -> Self {
        StderrProgress::new(1)
    }
}

impl ProgressSink for StderrProgress {
    fn on_cell(&self, p: &CellProgress<'_>) {
        let last = p.completed == p.total;
        if !last && !p.completed.is_multiple_of(self.every) {
            return;
        }
        let mut out = self.out.lock().unwrap();
        let _ = write!(
            out,
            "\r[olab] {}/{} cells ({}, {:.1}s)",
            p.completed,
            p.total,
            p.resolution.label(),
            p.wall_s
        );
        if last {
            let _ = writeln!(out);
        }
        let _ = out.flush();
    }

    fn on_degraded(&self, reason: &str) {
        let mut out = self.out.lock().unwrap();
        let _ = writeln!(
            out,
            "\n[olab] warning: disk cache degraded to memory-only ({reason})"
        );
        let _ = out.flush();
    }
}

/// Appends one JSON object per resolved cell to any writer (typically a
/// `progress.jsonl` file): completion counter, input index, descriptor,
/// resolution, and wall-clock seconds since the sweep started.
///
/// Guard and cache-health lifecycle events (timeouts, evictions,
/// degradation) are interleaved into the same stream as typed
/// [`ObsEvent`] lines, so one file tells the whole story of a hardened
/// sweep.
#[derive(Debug)]
pub struct JsonlProgress<W: std::io::Write + Send> {
    out: Mutex<W>,
}

impl<W: std::io::Write + Send> JsonlProgress<W> {
    /// A sink streaming into `out`.
    pub fn new(out: W) -> Self {
        JsonlProgress {
            out: Mutex::new(out),
        }
    }

    /// Recovers the writer (flushing implicit in drop for files).
    pub fn into_inner(self) -> W {
        self.out.into_inner().unwrap()
    }
}

impl<W: std::io::Write + Send> JsonlProgress<W> {
    /// Appends one typed [`ObsEvent`] line to the stream. Public so
    /// embedders (e.g. `olab serve`) can interleave their own lifecycle
    /// events — request admissions, completions — with the cell lines.
    pub fn write_event(&self, event: &ObsEvent<'_>) {
        let mut line = to_jsonl(event);
        line.push('\n');
        let mut out = self.out.lock().unwrap();
        let _ = out.write_all(line.as_bytes());
    }
}

impl<W: std::io::Write + Send> ProgressSink for JsonlProgress<W> {
    fn on_cell(&self, p: &CellProgress<'_>) {
        let mut line = String::with_capacity(96);
        let _ = write!(
            line,
            "{{\"completed\": {}, \"total\": {}, \"index\": {}, \"descriptor\": \"{}\", \
             \"resolution\": \"{}\", \"wall_s\": {:.3}}}",
            p.completed,
            p.total,
            p.index,
            json_escape(p.descriptor),
            p.resolution.label(),
            p.wall_s
        );
        line.push('\n');
        let mut out = self.out.lock().unwrap();
        let _ = out.write_all(line.as_bytes());
    }

    fn on_timeout(&self, _index: usize, descriptor: &str, deadline_s: f64) {
        self.write_event(&ObsEvent::CellTimeout {
            descriptor,
            deadline_s,
        });
    }

    fn on_evict(&self, evicted: usize, disk_bytes: u64, max_bytes: u64) {
        self.write_event(&ObsEvent::CacheEvict {
            evicted,
            disk_bytes,
            max_bytes,
        });
    }

    fn on_degraded(&self, reason: &str) {
        self.write_event(&ObsEvent::CacheDegraded { reason });
    }
}

/// Fans one progress update out to several sinks, in order.
#[derive(Default)]
pub struct MultiSink {
    sinks: Vec<Box<dyn ProgressSink>>,
}

impl MultiSink {
    /// An empty fan-out.
    pub fn new() -> Self {
        MultiSink::default()
    }

    /// Adds a sink.
    pub fn push(&mut self, sink: Box<dyn ProgressSink>) {
        self.sinks.push(sink);
    }

    /// Number of attached sinks.
    pub fn len(&self) -> usize {
        self.sinks.len()
    }

    /// Whether no sinks are attached.
    pub fn is_empty(&self) -> bool {
        self.sinks.is_empty()
    }
}

impl ProgressSink for MultiSink {
    fn on_cell(&self, p: &CellProgress<'_>) {
        for sink in &self.sinks {
            sink.on_cell(p);
        }
    }

    fn on_timeout(&self, index: usize, descriptor: &str, deadline_s: f64) {
        for sink in &self.sinks {
            sink.on_timeout(index, descriptor, deadline_s);
        }
    }

    fn on_evict(&self, evicted: usize, disk_bytes: u64, max_bytes: u64) {
        for sink in &self.sinks {
            sink.on_evict(evicted, disk_bytes, max_bytes);
        }
    }

    fn on_degraded(&self, reason: &str) {
        for sink in &self.sinks {
            sink.on_degraded(reason);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use olab_core::fmtutil::validate_json;
    use olab_grid::CellResolution;

    fn progress(completed: usize, total: usize) -> CellProgress<'static> {
        CellProgress {
            completed,
            total,
            index: completed - 1,
            descriptor: "olab-cell \"x\"",
            resolution: CellResolution::Simulated,
            wall_s: 0.5,
        }
    }

    #[test]
    fn jsonl_progress_streams_valid_lines() {
        let sink = JsonlProgress::new(Vec::new());
        sink.on_cell(&progress(1, 2));
        sink.on_cell(&progress(2, 2));
        let bytes = sink.into_inner();
        let text = String::from_utf8(bytes).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        for line in &lines {
            validate_json(line).unwrap_or_else(|e| panic!("{line}: {e}"));
        }
        assert!(lines[0].contains("\"completed\": 1"));
        assert!(lines[1].contains("\"resolution\": \"simulated\""));
    }

    #[test]
    fn jsonl_progress_interleaves_guard_events_as_typed_lines() {
        let sink = JsonlProgress::new(Vec::new());
        sink.on_cell(&progress(1, 2));
        sink.on_timeout(1, "olab-cell y", 2.0);
        sink.on_cell(&progress(2, 2));
        sink.on_evict(4, 2048, 4096);
        sink.on_degraded("no space left on device");
        let text = String::from_utf8(sink.into_inner()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 5);
        for line in &lines {
            validate_json(line).unwrap_or_else(|e| panic!("{line}: {e}"));
        }
        assert!(lines[1].contains("\"event\": \"cell_timeout\""));
        assert!(lines[1].contains("\"deadline_s\": 2.000000"));
        assert!(lines[3].contains("\"event\": \"cache_evict\""));
        assert!(lines[4].contains("\"event\": \"cache_degraded\""));
    }

    #[test]
    fn multi_sink_forwards_guard_hooks_to_every_member() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        struct Counting(std::sync::Arc<AtomicUsize>);
        impl ProgressSink for Counting {
            fn on_cell(&self, _: &CellProgress<'_>) {}
            fn on_timeout(&self, _: usize, _: &str, _: f64) {
                self.0.fetch_add(1, Ordering::SeqCst);
            }
            fn on_evict(&self, _: usize, _: u64, _: u64) {
                self.0.fetch_add(1, Ordering::SeqCst);
            }
            fn on_degraded(&self, _: &str) {
                self.0.fetch_add(1, Ordering::SeqCst);
            }
        }
        let count = std::sync::Arc::new(AtomicUsize::new(0));
        let mut multi = MultiSink::new();
        multi.push(Box::new(Counting(std::sync::Arc::clone(&count))));
        multi.push(Box::new(Counting(std::sync::Arc::clone(&count))));
        multi.on_timeout(0, "d", 1.0);
        multi.on_evict(1, 2, 3);
        multi.on_degraded("r");
        assert_eq!(count.load(Ordering::SeqCst), 6);
    }

    #[test]
    fn multi_sink_fans_out_to_every_member() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        struct Counting(std::sync::Arc<AtomicUsize>);
        impl ProgressSink for Counting {
            fn on_cell(&self, _: &CellProgress<'_>) {
                self.0.fetch_add(1, Ordering::SeqCst);
            }
        }
        let count = std::sync::Arc::new(AtomicUsize::new(0));
        let mut multi = MultiSink::new();
        assert!(multi.is_empty());
        multi.push(Box::new(Counting(std::sync::Arc::clone(&count))));
        multi.push(Box::new(Counting(std::sync::Arc::clone(&count))));
        assert_eq!(multi.len(), 2);
        multi.on_cell(&progress(1, 1));
        assert_eq!(count.load(Ordering::SeqCst), 2);
    }
}
