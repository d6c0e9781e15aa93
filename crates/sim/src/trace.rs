//! Simulation output: task records, power segments, overlap windows.

use crate::{GpuId, Label, Participants, SimTime, StreamKind, TaskId};

/// A half-open time window `[start, end)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Window {
    /// Window start.
    pub start: SimTime,
    /// Window end.
    pub end: SimTime,
}

/// Two edges closer than this are contiguous under the merge rules.
const CONTIGUOUS_S: f64 = 1e-12;

impl Window {
    /// Duration of the window.
    pub fn duration(&self) -> SimTime {
        self.end - self.start
    }
}

/// Constant power draw of one device over a time window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerSegment {
    /// The window the reading covers.
    pub window: Window,
    /// Instantaneous draw in watts, constant over the window.
    pub watts: f64,
}

/// The engine's power-merge rule: a segment starting at `start_s` seconds
/// with draw `watts` extends a segment ending at `end_s` with draw
/// `segment_watts` — instead of starting a new one — when it starts where
/// that one ends (within 1e-12 s) at the same draw (within 1e-9 W). The
/// merged segment keeps its first draw.
///
/// Every producer of power segments — the event loop and the analytic
/// fast path through [`GpuActivity::push_power`], and the streaming
/// statistics of the lean path — merges by this one rule, so they agree
/// segment for segment.
#[inline]
pub fn power_continues(end_s: f64, segment_watts: f64, start_s: f64, watts: f64) -> bool {
    (end_s - start_s).abs() < CONTIGUOUS_S && (segment_watts - watts).abs() < 1e-9
}

/// Completion record for one task.
#[derive(Debug, Clone)]
pub struct TaskRecord {
    /// The task's id.
    pub id: TaskId,
    /// The task's label.
    pub label: Label,
    /// Devices the task occupied.
    pub participants: Participants,
    /// The stream it occupied.
    pub stream: StreamKind,
    /// When the task started running.
    pub start: SimTime,
    /// When the task completed.
    pub end: SimTime,
    /// Time during which, on at least one shared device, a task of the
    /// *other* stream was simultaneously running. For compute tasks this is
    /// the "overlapped with communication" time of the paper's Eq. (2).
    pub coactive: SimTime,
}

impl TaskRecord {
    /// Wall-clock duration of the task.
    pub fn duration(&self) -> SimTime {
        self.end - self.start
    }
}

/// Per-device activity summary.
#[derive(Debug, Clone, Default)]
pub struct GpuActivity {
    /// Piecewise-constant power trace (contiguous, covering `[0, makespan)`).
    pub power: Vec<PowerSegment>,
    /// Windows during which both streams were simultaneously busy.
    pub overlap_windows: Vec<Window>,
    /// Total busy time per stream (indexed by [`StreamKind::index`]).
    pub busy: [SimTime; 2],
}

impl GpuActivity {
    /// Appends a power segment, merging it into the previous one by
    /// [`power_continues`].
    pub fn push_power(&mut self, start: SimTime, end: SimTime, watts: f64) {
        if let Some(last) = self.power.last_mut() {
            if power_continues(
                last.window.end.as_secs(),
                last.watts,
                start.as_secs(),
                watts,
            ) {
                last.window.end = end;
                return;
            }
        }
        self.power.push(PowerSegment {
            window: Window { start, end },
            watts,
        });
    }

    /// Appends an overlap window — the engine's window-merge rule: a
    /// window starting where the previous one ends (within 1e-12 s)
    /// extends it instead.
    pub fn push_overlap(&mut self, start: SimTime, end: SimTime) {
        if let Some(last) = self.overlap_windows.last_mut() {
            if (last.end.as_secs() - start.as_secs()).abs() < CONTIGUOUS_S {
                last.end = end;
                return;
            }
        }
        self.overlap_windows.push(Window { start, end });
    }

    /// Total busy time of a stream on this device.
    pub fn busy_time(&self, stream: StreamKind) -> SimTime {
        self.busy[stream.index()]
    }

    /// Total time both streams were busy simultaneously.
    pub fn overlap_time(&self) -> SimTime {
        self.overlap_windows.iter().map(|w| w.duration()).sum()
    }

    /// Mean power over `[0, horizon)`, counting idle gaps at their recorded
    /// power. Returns 0 for an empty trace.
    pub fn average_power(&self) -> f64 {
        let mut energy = 0.0;
        let mut span = 0.0;
        for seg in &self.power {
            let dt = seg.window.duration().as_secs();
            energy += seg.watts * dt;
            span += dt;
        }
        if span > 0.0 {
            energy / span
        } else {
            0.0
        }
    }

    /// Total energy in joules over the trace.
    pub fn energy_joules(&self) -> f64 {
        self.power
            .iter()
            .map(|seg| seg.watts * seg.window.duration().as_secs())
            .sum()
    }
}

/// Per-(device, stream) sums over a run's tasks: task time (`end − start`)
/// and co-active time, indexed `[device][stream]`.
///
/// Each sum visits the tasks in task-id order, so a trace's
/// [`SimTrace::stream_totals`] and a record-free [`SimSummary`] of the same
/// run are bit-identical.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StreamTotals {
    /// Sum of task durations per device and stream.
    pub busy: Vec<[SimTime; 2]>,
    /// Sum of task co-active times per device and stream.
    pub coactive: Vec<[SimTime; 2]>,
}

impl StreamTotals {
    /// All-zero totals for `n_gpus` devices.
    pub fn new(n_gpus: usize) -> Self {
        StreamTotals {
            busy: vec![[SimTime::ZERO; 2]; n_gpus],
            coactive: vec![[SimTime::ZERO; 2]; n_gpus],
        }
    }

    /// Credits one task to every participant. Call in task-id order.
    pub fn add(
        &mut self,
        participants: &[GpuId],
        stream: StreamKind,
        duration: SimTime,
        coactive: SimTime,
    ) {
        let s = stream.index();
        for g in participants {
            self.busy[g.index()][s] += duration;
            self.coactive[g.index()][s] += coactive;
        }
    }
}

/// Output of a record-free engine run
/// ([`Engine::run_summary`](crate::Engine::run_summary)): the per-device
/// activity and the per-(device, stream) task totals, without one record
/// per task.
#[derive(Debug, Clone)]
pub struct SimSummary {
    /// Per-device activity, indexed by device.
    pub gpus: Vec<GpuActivity>,
    /// Task totals, summed in task-id order.
    pub totals: StreamTotals,
    /// Time at which the last task completed.
    pub makespan: SimTime,
}

/// Full output of one engine run.
#[derive(Debug, Clone)]
pub struct SimTrace {
    records: Vec<TaskRecord>,
    gpus: Vec<GpuActivity>,
    makespan: SimTime,
}

/// A dropped trace hands its record vector and per-device activity back
/// to this thread's engine, so the next traced run records into them
/// instead of growing new ones.
impl Drop for SimTrace {
    fn drop(&mut self) {
        crate::engine::recycle(
            std::mem::take(&mut self.gpus),
            std::mem::take(&mut self.records),
        );
    }
}

impl SimTrace {
    pub(crate) fn new(records: Vec<TaskRecord>, gpus: Vec<GpuActivity>, makespan: SimTime) -> Self {
        SimTrace {
            records,
            gpus,
            makespan,
        }
    }

    /// Assembles a trace from externally computed parts.
    ///
    /// This exists for analytic schedulers that derive the same quantities
    /// the engine would record without running the event loop; the result is
    /// indistinguishable from an engine-produced trace and should satisfy
    /// [`verify_trace`](crate::verify::verify_trace) for the same workload.
    pub fn from_parts(records: Vec<TaskRecord>, gpus: Vec<GpuActivity>, makespan: SimTime) -> Self {
        SimTrace::new(records, gpus, makespan)
    }

    /// Completion records in task-id order.
    pub fn records(&self) -> &[TaskRecord] {
        &self.records
    }

    /// Record of one task.
    pub fn record(&self, id: TaskId) -> Option<&TaskRecord> {
        self.records.iter().find(|r| r.id == id)
    }

    /// Per-device activity, indexed by device.
    pub fn gpus(&self) -> &[GpuActivity] {
        &self.gpus
    }

    /// Activity of one device.
    pub fn gpu(&self, gpu: GpuId) -> &GpuActivity {
        &self.gpus[gpu.index()]
    }

    /// Time at which the last task completed.
    pub fn makespan(&self) -> SimTime {
        self.makespan
    }

    /// Per-(device, stream) task and co-active time, summed over the
    /// records in task-id order.
    pub fn stream_totals(&self) -> StreamTotals {
        let mut totals = StreamTotals::new(self.gpus.len());
        for r in &self.records {
            totals.add(&r.participants, r.stream, r.duration(), r.coactive);
        }
        totals
    }

    /// Sum of task durations on a given stream across all devices,
    /// counting a multi-device task once per participant.
    pub fn stream_time(&self, stream: StreamKind) -> SimTime {
        self.records
            .iter()
            .filter(|r| r.stream == stream)
            .map(|r| {
                let d = r.duration().as_secs() * r.participants.len() as f64;
                SimTime::from_secs(d)
            })
            .sum()
    }

    /// Sum of per-task durations on a stream for one device.
    pub fn stream_time_on(&self, gpu: GpuId, stream: StreamKind) -> SimTime {
        self.records
            .iter()
            .filter(|r| r.stream == stream && r.participants.contains(&gpu))
            .map(|r| r.duration())
            .sum()
    }

    /// Sum of co-active time for tasks of a stream on one device.
    pub fn coactive_time_on(&self, gpu: GpuId, stream: StreamKind) -> SimTime {
        self.records
            .iter()
            .filter(|r| r.stream == stream && r.participants.contains(&gpu))
            .map(|r| r.coactive)
            .sum()
    }

    /// The trace clipped to `[0, at)`: records starting at or after `at`
    /// are dropped, records straddling the cut are clamped (co-active time
    /// is clamped to the clipped duration), power segments and overlap
    /// windows are clipped, and per-stream busy time is recomputed from the
    /// clipped records.
    ///
    /// This is the first half of a mid-run regime transition: a run that
    /// stops making useful progress at `at` (a fatal fault, an elastic
    /// shrink) keeps exactly the activity it completed before the cut.
    pub fn truncated(&self, at: SimTime) -> SimTrace {
        let cut = at.min(self.makespan);
        let records: Vec<TaskRecord> = self
            .records
            .iter()
            .filter(|r| r.start < cut)
            .map(|r| {
                let end = r.end.min(cut);
                let duration = end - r.start;
                TaskRecord {
                    id: r.id,
                    label: r.label.clone(),
                    participants: r.participants.clone(),
                    stream: r.stream,
                    start: r.start,
                    end,
                    coactive: r.coactive.min(duration),
                }
            })
            .collect();
        let gpus: Vec<GpuActivity> = self
            .gpus
            .iter()
            .enumerate()
            .map(|(g, activity)| {
                let gpu = GpuId(g as u16);
                let power = activity
                    .power
                    .iter()
                    .filter(|seg| seg.window.start < cut)
                    .map(|seg| PowerSegment {
                        window: Window {
                            start: seg.window.start,
                            end: seg.window.end.min(cut),
                        },
                        watts: seg.watts,
                    })
                    .collect();
                let overlap_windows = activity
                    .overlap_windows
                    .iter()
                    .filter(|w| w.start < cut)
                    .map(|w| Window {
                        start: w.start,
                        end: w.end.min(cut),
                    })
                    .collect();
                let busy_of = |stream: StreamKind| {
                    records
                        .iter()
                        .filter(|r| r.stream == stream && r.participants.contains(&gpu))
                        .map(|r| r.duration())
                        .sum()
                };
                GpuActivity {
                    power,
                    overlap_windows,
                    busy: [busy_of(StreamKind::Compute), busy_of(StreamKind::Comm)],
                }
            })
            .collect();
        SimTrace {
            records,
            gpus,
            makespan: cut,
        }
    }

    /// Composes this trace with a `later` trace separated by an idle `gap`
    /// (a recovery epoch: checkpoint restore, communicator rebuild, state
    /// re-shard). The later trace — possibly over a *different* device
    /// count, the mid-run world-size transition — is shifted to start at
    /// `makespan + gap`; devices present here but absent from the later
    /// phase (evicted ranks) draw `gap_watts` until the stitched trace
    /// ends. The gap itself is priced at `gap_watts` on every device, and
    /// later-phase task ids are renumbered past this trace's ids.
    pub fn then(&self, gap: SimTime, gap_watts: f64, later: &SimTrace) -> SimTrace {
        let offset = self.makespan + gap;
        let id_base = self
            .records
            .iter()
            .map(|r| r.id.0 + 1)
            .max()
            .unwrap_or_default();
        let mut records = self.records.clone();
        records.extend(later.records.iter().map(|r| TaskRecord {
            id: TaskId(r.id.0 + id_base),
            label: r.label.clone(),
            participants: r.participants.clone(),
            stream: r.stream,
            start: r.start + offset,
            end: r.end + offset,
            coactive: r.coactive,
        }));
        let makespan = offset + later.makespan;
        let n_gpus = self.gpus.len().max(later.gpus.len());
        let empty = GpuActivity::default();
        let gpus: Vec<GpuActivity> = (0..n_gpus)
            .map(|g| {
                let first = self.gpus.get(g).unwrap_or(&empty);
                let second = later.gpus.get(g);
                let mut power = first.power.clone();
                let gap_end = match second {
                    Some(_) => offset,
                    // An evicted rank stays parked at `gap_watts` for the
                    // rest of the stitched run.
                    None => makespan,
                };
                if gap_end > self.makespan {
                    power.push(PowerSegment {
                        window: Window {
                            start: self.makespan,
                            end: gap_end,
                        },
                        watts: gap_watts,
                    });
                }
                let mut overlap_windows = first.overlap_windows.clone();
                let mut busy = first.busy;
                if let Some(act) = second {
                    power.extend(act.power.iter().map(|seg| PowerSegment {
                        window: Window {
                            start: seg.window.start + offset,
                            end: seg.window.end + offset,
                        },
                        watts: seg.watts,
                    }));
                    overlap_windows.extend(act.overlap_windows.iter().map(|w| Window {
                        start: w.start + offset,
                        end: w.end + offset,
                    }));
                    busy = [busy[0] + act.busy[0], busy[1] + act.busy[1]];
                }
                GpuActivity {
                    power,
                    overlap_windows,
                    busy,
                }
            })
            .collect();
        SimTrace {
            records,
            gpus,
            makespan,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn window(a: f64, b: f64) -> Window {
        Window {
            start: SimTime::from_secs(a),
            end: SimTime::from_secs(b),
        }
    }

    #[test]
    fn activity_statistics() {
        let activity = GpuActivity {
            power: vec![
                PowerSegment {
                    window: window(0.0, 1.0),
                    watts: 100.0,
                },
                PowerSegment {
                    window: window(1.0, 3.0),
                    watts: 400.0,
                },
            ],
            overlap_windows: vec![window(0.5, 1.5)],
            busy: [SimTime::from_secs(3.0), SimTime::from_secs(1.0)],
        };
        assert!((activity.average_power() - 300.0).abs() < 1e-9);
        assert!((activity.energy_joules() - 900.0).abs() < 1e-9);
        assert!((activity.overlap_time().as_secs() - 1.0).abs() < 1e-12);
        assert_eq!(
            activity.busy_time(StreamKind::Comm),
            SimTime::from_secs(1.0)
        );
    }

    /// The merge rules: contiguous within 1e-12 s, and for power the same
    /// draw within 1e-9 W; a merged segment keeps its first draw.
    #[test]
    fn pushes_merge_contiguous_equal_segments_only() {
        let t = SimTime::from_secs;
        let mut activity = GpuActivity::default();
        activity.push_power(t(0.0), t(1.0), 100.0);
        activity.push_power(t(1.0 + 5e-13), t(2.0), 100.0 + 5e-10);
        activity.push_power(t(2.0), t(3.0), 200.0);
        activity.push_power(t(3.5), t(4.0), 200.0);
        assert_eq!(
            activity.power,
            vec![
                PowerSegment {
                    window: window(0.0, 2.0),
                    watts: 100.0,
                },
                PowerSegment {
                    window: window(2.0, 3.0),
                    watts: 200.0,
                },
                PowerSegment {
                    window: window(3.5, 4.0),
                    watts: 200.0,
                },
            ]
        );
        activity.push_overlap(t(0.0), t(1.0));
        activity.push_overlap(t(1.0), t(1.5));
        activity.push_overlap(t(2.0), t(3.0));
        assert_eq!(
            activity.overlap_windows,
            vec![window(0.0, 1.5), window(2.0, 3.0)]
        );
    }

    #[test]
    fn empty_activity_average_power_is_zero() {
        assert_eq!(GpuActivity::default().average_power(), 0.0);
    }

    fn two_phase_traces() -> (SimTrace, SimTrace) {
        let first = SimTrace::new(
            vec![
                TaskRecord {
                    id: TaskId(0),
                    label: "k0".into(),
                    participants: [GpuId(0)].into(),
                    stream: StreamKind::Compute,
                    start: SimTime::ZERO,
                    end: SimTime::from_secs(1.0),
                    coactive: SimTime::from_secs(0.5),
                },
                TaskRecord {
                    id: TaskId(1),
                    label: "ar".into(),
                    participants: [GpuId(0), GpuId(1)].into(),
                    stream: StreamKind::Comm,
                    start: SimTime::from_secs(0.5),
                    end: SimTime::from_secs(2.0),
                    coactive: SimTime::from_secs(0.5),
                },
            ],
            vec![
                GpuActivity {
                    power: vec![PowerSegment {
                        window: window(0.0, 2.0),
                        watts: 300.0,
                    }],
                    overlap_windows: vec![window(0.5, 1.0)],
                    busy: [SimTime::from_secs(1.0), SimTime::from_secs(1.5)],
                },
                GpuActivity {
                    power: vec![PowerSegment {
                        window: window(0.0, 2.0),
                        watts: 200.0,
                    }],
                    overlap_windows: vec![],
                    busy: [SimTime::ZERO, SimTime::from_secs(1.5)],
                },
            ],
            SimTime::from_secs(2.0),
        );
        let second = SimTrace::new(
            vec![TaskRecord {
                id: TaskId(0),
                label: "k1".into(),
                participants: [GpuId(0)].into(),
                stream: StreamKind::Compute,
                start: SimTime::ZERO,
                end: SimTime::from_secs(1.0),
                coactive: SimTime::ZERO,
            }],
            vec![GpuActivity {
                power: vec![PowerSegment {
                    window: window(0.0, 1.0),
                    watts: 250.0,
                }],
                overlap_windows: vec![],
                busy: [SimTime::from_secs(1.0), SimTime::ZERO],
            }],
            SimTime::from_secs(1.0),
        );
        (first, second)
    }

    #[test]
    fn truncation_clips_records_power_and_busy_time() {
        let (trace, _) = two_phase_traces();
        let cut = trace.truncated(SimTime::from_secs(1.0));
        assert_eq!(cut.makespan(), SimTime::from_secs(1.0));
        assert_eq!(cut.records().len(), 2);
        // The straddling collective is clamped, and its co-active time can
        // never exceed the clipped duration.
        let ar = cut.record(TaskId(1)).unwrap();
        assert_eq!(ar.end, SimTime::from_secs(1.0));
        assert_eq!(ar.coactive, SimTime::from_secs(0.5));
        assert_eq!(
            cut.gpu(GpuId(0)).power,
            vec![PowerSegment {
                window: window(0.0, 1.0),
                watts: 300.0
            }]
        );
        assert_eq!(
            cut.stream_time_on(GpuId(1), StreamKind::Comm),
            SimTime::from_secs(0.5)
        );
        assert_eq!(
            cut.gpu(GpuId(1)).busy_time(StreamKind::Comm),
            SimTime::from_secs(0.5)
        );
        // Truncating past the makespan is the identity on the horizon.
        assert_eq!(
            trace.truncated(SimTime::from_secs(10.0)).makespan(),
            trace.makespan()
        );
    }

    #[test]
    fn stitching_shifts_the_later_phase_and_prices_the_gap() {
        let (first, second) = two_phase_traces();
        let stitched = first.then(SimTime::from_secs(0.5), 60.0, &second);
        assert_eq!(stitched.makespan(), SimTime::from_secs(3.5));
        assert_eq!(stitched.records().len(), 3);
        // Later-phase ids are renumbered past the first phase's ids.
        let k1 = stitched.record(TaskId(2)).expect("renumbered");
        assert_eq!(k1.label, "k1");
        assert_eq!(k1.start, SimTime::from_secs(2.5));
        assert_eq!(k1.end, SimTime::from_secs(3.5));
        // The world shrank: gpu1 is parked at the gap draw to the end.
        assert_eq!(stitched.gpus().len(), 2);
        let parked = stitched.gpu(GpuId(1));
        assert_eq!(
            parked.power.last().unwrap(),
            &PowerSegment {
                window: window(2.0, 3.5),
                watts: 60.0
            }
        );
        // The survivor pays the gap, then resumes with the shifted phase.
        let survivor = stitched.gpu(GpuId(0));
        assert_eq!(
            survivor.power,
            vec![
                PowerSegment {
                    window: window(0.0, 2.0),
                    watts: 300.0
                },
                PowerSegment {
                    window: window(2.0, 2.5),
                    watts: 60.0
                },
                PowerSegment {
                    window: window(2.5, 3.5),
                    watts: 250.0
                },
            ]
        );
        assert_eq!(
            survivor.busy_time(StreamKind::Compute),
            SimTime::from_secs(2.0)
        );
        // Energy is conserved: both phases plus the priced gap.
        let expected = 300.0 * 2.0 + 60.0 * 0.5 + 250.0 * 1.0;
        assert!((survivor.energy_joules() - expected).abs() < 1e-9);
    }

    #[test]
    fn stream_time_counts_multi_device_tasks_per_participant() {
        let records = vec![TaskRecord {
            id: TaskId(0),
            label: "ar".into(),
            participants: [GpuId(0), GpuId(1)].into(),
            stream: StreamKind::Comm,
            start: SimTime::ZERO,
            end: SimTime::from_secs(2.0),
            coactive: SimTime::ZERO,
        }];
        let trace = SimTrace::new(
            records,
            vec![GpuActivity::default(); 2],
            SimTime::from_secs(2.0),
        );
        assert!((trace.stream_time(StreamKind::Comm).as_secs() - 4.0).abs() < 1e-12);
        assert!((trace.stream_time_on(GpuId(0), StreamKind::Comm).as_secs() - 2.0).abs() < 1e-12);
        assert_eq!(trace.stream_time(StreamKind::Compute), SimTime::ZERO);
    }
}
