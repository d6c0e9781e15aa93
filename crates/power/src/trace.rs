//! Power traces and sampled telemetry.

use crate::Sampler;
use olab_sim::{power_continues, PowerSegment};

/// One telemetry reading.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerSample {
    /// Center of the averaging window, seconds.
    pub time_s: f64,
    /// Average draw over the window, watts.
    pub watts: f64,
}

/// One-pass summary of a piecewise-constant power trace.
///
/// Computing average, peak, and energy separately walks the segment list
/// three times (and [`PowerTrace::from_segments`] copies it first); this
/// struct folds all of them in a single pass directly over the engine's
/// segments. Each field matches the corresponding [`PowerTrace`] accessor
/// bit-for-bit: the accumulation order is identical.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct PowerStats {
    /// Time-weighted average draw, watts (0 for an empty trace).
    pub average_w: f64,
    /// True instantaneous peak draw, watts.
    pub peak_w: f64,
    /// Total energy, joules.
    pub energy_j: f64,
    /// End of the trace, seconds.
    pub duration_s: f64,
}

impl PowerStats {
    /// Summarizes engine power segments in one pass without copying them.
    pub fn from_segments(segments: &[PowerSegment]) -> Self {
        let mut acc = StatsAcc::default();
        for seg in segments {
            acc.add(
                seg.window.start.as_secs(),
                seg.window.end.as_secs(),
                seg.watts,
            );
        }
        acc.finish(segments.last().map_or(0.0, |s| s.window.end.as_secs()))
    }
}

/// The one accumulation order behind every [`PowerStats`]: segments are
/// folded in time order, energy and span as running sums.
#[derive(Debug, Clone, Copy, Default)]
struct StatsAcc {
    energy: f64,
    span: f64,
    peak: f64,
}

impl StatsAcc {
    #[inline]
    fn add(&mut self, t0: f64, t1: f64, watts: f64) {
        self.energy += watts * (t1 - t0);
        self.span += t1 - t0;
        self.peak = self.peak.max(watts);
    }

    /// The statistics of a trace ending at `duration_s`.
    fn finish(self, duration_s: f64) -> PowerStats {
        PowerStats {
            average_w: if self.span > 0.0 {
                self.energy / self.span
            } else {
                0.0
            },
            peak_w: self.peak,
            energy_j: self.energy,
            duration_s,
        }
    }
}

/// Power statistics of a trace that is never materialized.
///
/// Segments pushed in time order are merged by the engine's rule
/// ([`power_continues`]); each merged segment is folded into the
/// statistics as soon as the next one cannot join it. The merged segments and their order are the ones the trace
/// would hold, so [`PowerFold::finish`] equals
/// [`PowerStats::from_segments`] of that trace bit for bit.
#[derive(Debug, Clone, Copy, Default)]
pub struct PowerFold {
    /// Whether a segment is open to merging.
    open: bool,
    /// The open segment: start, end (seconds) and draw.
    start: f64,
    end: f64,
    watts: f64,
    acc: StatsAcc,
}

impl PowerFold {
    /// Pushes the draw over `[start_s, end_s)` seconds; segments must
    /// arrive in time order.
    #[inline]
    pub fn push(&mut self, start_s: f64, end_s: f64, watts: f64) {
        if self.open && power_continues(self.end, self.watts, start_s, watts) {
            self.end = end_s;
            return;
        }
        if self.open {
            self.acc.add(self.start, self.end, self.watts);
        }
        (self.open, self.start, self.end, self.watts) = (true, start_s, end_s, watts);
    }

    /// The statistics of everything pushed.
    pub fn finish(mut self) -> PowerStats {
        if !self.open {
            return self.acc.finish(0.0);
        }
        self.acc.add(self.start, self.end, self.watts);
        self.acc.finish(self.end)
    }
}

/// An exact piecewise-constant power trace for one device.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct PowerTrace {
    segments: Vec<(f64, f64, f64)>, // (start, end, watts)
}

impl PowerTrace {
    /// Builds a trace from engine power segments.
    pub fn from_segments(segments: &[PowerSegment]) -> Self {
        PowerTrace {
            segments: segments
                .iter()
                .map(|s| (s.window.start.as_secs(), s.window.end.as_secs(), s.watts))
                .collect(),
        }
    }

    /// End of the trace, seconds.
    pub fn duration_s(&self) -> f64 {
        self.segments.last().map_or(0.0, |s| s.1)
    }

    /// True instantaneous peak draw, watts.
    pub fn peak_instantaneous(&self) -> f64 {
        self.segments.iter().map(|s| s.2).fold(0.0, f64::max)
    }

    /// Time-weighted average draw, watts.
    pub fn average(&self) -> f64 {
        let (mut energy, mut span) = (0.0, 0.0);
        for (t0, t1, w) in &self.segments {
            energy += w * (t1 - t0);
            span += t1 - t0;
        }
        if span > 0.0 {
            energy / span
        } else {
            0.0
        }
    }

    /// Total energy, joules.
    pub fn energy_j(&self) -> f64 {
        self.segments.iter().map(|(t0, t1, w)| w * (t1 - t0)).sum()
    }

    /// One-pass summary: average, peak, energy, and duration together,
    /// matching the individual accessors bit-for-bit.
    pub fn stats(&self) -> PowerStats {
        let mut acc = StatsAcc::default();
        for &(t0, t1, w) in &self.segments {
            acc.add(t0, t1, w);
        }
        acc.finish(self.duration_s())
    }

    /// Average draw over `[a, b)`, watts (0 if the interval is empty).
    pub fn average_over(&self, a: f64, b: f64) -> f64 {
        average_within(&self.segments, a, b)
    }

    /// Energy delivered within `[a, b)`, joules (0 if the interval is
    /// empty or lies outside the trace). The windowed complement of
    /// [`PowerTrace::energy_j`]: summing `energy_over` across a partition
    /// of `[0, duration_s)` reproduces the total exactly.
    pub fn energy_over(&self, a: f64, b: f64) -> f64 {
        if b <= a {
            return 0.0;
        }
        energy_within(&self.segments, a, b)
    }

    /// Peak instantaneous draw within `[a, b)`, watts.
    pub fn peak_over(&self, a: f64, b: f64) -> f64 {
        self.segments
            .iter()
            .filter(|s| s.1.min(b) > s.0.max(a))
            .map(|s| s.2)
            .fold(0.0, f64::max)
    }

    /// Samples the trace the way a telemetry tool would: one reading per
    /// `sampler.interval_s`, each the average over its window.
    ///
    /// Boundary semantics (locked in by unit tests, and mirrored by the
    /// `olab-obs` counter sampler):
    ///
    /// * window `k` covers `[k·dt, min((k+1)·dt, duration))` — boundaries
    ///   are exact multiples of the interval, never accumulated sums, so
    ///   long traces do not drift;
    /// * the final partial window is included when the cadence does not
    ///   divide the trace length, and its reading averages only the
    ///   covered span;
    /// * each reading is stamped at the center of its (possibly partial)
    ///   window;
    /// * zero-duration segments carry no energy and never affect samples;
    /// * an empty trace yields no samples;
    /// * each reading is [`average_over`](PowerTrace::average_over) its
    ///   window, bit for bit.
    ///
    /// The windows are read in one sweep: a cursor skips the segments that
    /// ended before the current window, and each window stops at the
    /// first segment starting after it. Both skipped groups add nothing to
    /// `average_over`'s sum, so every reading adds the same terms in the
    /// same order. The early stop needs segment starts in time order, which
    /// every engine trace has; a trace without it is read window by window.
    ///
    /// # Panics
    ///
    /// Panics if the sampler's interval is not positive and finite (a
    /// hand-rolled `Sampler` bypassing [`Sampler::with_interval`]).
    pub fn sample(&self, sampler: Sampler) -> SampledTrace {
        let dur = self.duration_s();
        let dt = sampler.interval_s;
        assert!(dt.is_finite() && dt > 0.0, "invalid sampling interval {dt}");
        let sorted = self.segments.windows(2).all(|p| p[0].0 <= p[1].0);
        let mut samples = Vec::new();
        let mut cursor = 0usize;
        let mut k = 0u64;
        loop {
            let t = k as f64 * dt;
            if t >= dur {
                break;
            }
            let end = (t + dt).min(dur);
            let window = if sorted {
                while cursor < self.segments.len() && self.segments[cursor].1 <= t {
                    cursor += 1;
                }
                let rest = &self.segments[cursor..];
                &rest[..rest.partition_point(|s| s.0 < end)]
            } else {
                &self.segments[..]
            };
            samples.push(PowerSample {
                time_s: (t + end) / 2.0,
                watts: average_within(window, t, end),
            });
            k += 1;
        }
        SampledTrace { sampler, samples }
    }
}

/// Average draw of `segments` over `[a, b)`, watts (0 if the interval is
/// empty).
fn average_within(segments: &[(f64, f64, f64)], a: f64, b: f64) -> f64 {
    if b <= a {
        return 0.0;
    }
    energy_within(segments, a, b) / (b - a)
}

/// Energy of `segments` within `[a, b)`, summed in segment order over the
/// segments that overlap it.
fn energy_within(segments: &[(f64, f64, f64)], a: f64, b: f64) -> f64 {
    let mut energy = 0.0;
    for &(t0, t1, w) in segments {
        let lo = t0.max(a);
        let hi = t1.min(b);
        if hi > lo {
            energy += w * (hi - lo);
        }
    }
    energy
}

/// A sequence of telemetry readings from one sampler.
#[derive(Debug, Clone, PartialEq)]
pub struct SampledTrace {
    /// The sampler that produced the readings.
    pub sampler: Sampler,
    /// The readings, in time order.
    pub samples: Vec<PowerSample>,
}

impl SampledTrace {
    /// Highest reading, if any.
    pub fn peak(&self) -> Option<f64> {
        self.samples
            .iter()
            .map(|s| s.watts)
            .fold(None, |acc, w| Some(acc.map_or(w, |a: f64| a.max(w))))
    }

    /// Mean of the readings, if any.
    pub fn average(&self) -> Option<f64> {
        if self.samples.is_empty() {
            return None;
        }
        Some(self.samples.iter().map(|s| s.watts).sum::<f64>() / self.samples.len() as f64)
    }

    /// Readings normalized by `tdp_w` (for the paper's x TDP axes).
    pub fn normalized(&self, tdp_w: f64) -> Vec<PowerSample> {
        self.samples
            .iter()
            .map(|s| PowerSample {
                time_s: s.time_s,
                watts: s.watts / tdp_w,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use olab_sim::{SimTime, Window};

    fn seg(a: f64, b: f64, w: f64) -> PowerSegment {
        PowerSegment {
            window: Window {
                start: SimTime::from_secs(a),
                end: SimTime::from_secs(b),
            },
            watts: w,
        }
    }

    fn spike_trace() -> PowerTrace {
        // 95 ms at 100 W, 5 ms spike at 600 W.
        PowerTrace::from_segments(&[seg(0.0, 0.095, 100.0), seg(0.095, 0.100, 600.0)])
    }

    #[test]
    fn exact_statistics() {
        let t = spike_trace();
        assert_eq!(t.peak_instantaneous(), 600.0);
        assert!((t.average() - 125.0).abs() < 1e-9);
        assert!((t.energy_j() - 12.5).abs() < 1e-9);
        assert!((t.duration_s() - 0.1).abs() < 1e-12);
    }

    #[test]
    fn coarse_sampling_hides_spikes_fine_sampling_sees_them() {
        // The reason Fig. 7 uses the MI250: 1 ms sampling sees the spike,
        // 100 ms sampling averages it away.
        let t = spike_trace();
        let nvml = t.sample(Sampler::nvml());
        let fine = t.sample(Sampler::rocm_smi_fine());
        assert!((nvml.peak().unwrap() - 125.0).abs() < 1e-9);
        assert!((fine.peak().unwrap() - 600.0).abs() < 1e-9);
    }

    #[test]
    fn sample_count_matches_duration_over_interval() {
        let t = spike_trace();
        let fine = t.sample(Sampler::rocm_smi_fine());
        assert_eq!(fine.samples.len(), 100);
    }

    #[test]
    fn average_over_clamps_to_segments() {
        let t = spike_trace();
        assert!((t.average_over(0.0, 0.095) - 100.0).abs() < 1e-9);
        assert_eq!(t.average_over(1.0, 2.0), 0.0);
        assert_eq!(t.average_over(0.5, 0.5), 0.0);
    }

    #[test]
    fn energy_over_partitions_sum_to_total() {
        let t = spike_trace();
        // Exact windowed integrals.
        assert!((t.energy_over(0.0, 0.095) - 9.5).abs() < 1e-9);
        assert!((t.energy_over(0.095, 0.100) - 3.0).abs() < 1e-9);
        // A partition of the full span reproduces energy_j.
        let parts =
            t.energy_over(0.0, 0.03) + t.energy_over(0.03, 0.097) + t.energy_over(0.097, 1.0);
        assert!((parts - t.energy_j()).abs() < 1e-9);
        // Degenerate and out-of-range windows are zero.
        assert_eq!(t.energy_over(0.5, 0.5), 0.0);
        assert_eq!(t.energy_over(2.0, 1.0), 0.0);
        assert_eq!(t.energy_over(5.0, 6.0), 0.0);
    }

    #[test]
    fn final_partial_window_is_included_and_averages_only_its_span() {
        // 0.25 s trace, 0.1 s cadence: windows [0,0.1), [0.1,0.2), [0.2,0.25).
        let t = PowerTrace::from_segments(&[seg(0.0, 0.2, 100.0), seg(0.2, 0.25, 400.0)]);
        let s = t.sample(Sampler::nvml());
        assert_eq!(s.samples.len(), 3);
        let last = s.samples[2];
        // Center of the partial window, not of a full one.
        assert!((last.time_s - 0.225).abs() < 1e-12);
        // Average over [0.2, 0.25) only: all at 400 W, undiluted by the
        // missing 0.05 s the full window would have had.
        assert!((last.watts - 400.0).abs() < 1e-9);
    }

    #[test]
    fn cadence_not_dividing_duration_yields_ceil_windows() {
        // 0.1 s trace at 0.03 s cadence: 3 full windows + 0.01 s partial.
        let t = PowerTrace::from_segments(&[seg(0.0, 0.1, 100.0)]);
        let s = t.sample(Sampler::with_interval("odd", 0.03));
        assert_eq!(s.samples.len(), 4);
        assert!((s.samples[3].time_s - 0.095).abs() < 1e-12);
        for sample in &s.samples {
            assert!((sample.watts - 100.0).abs() < 1e-9);
        }
    }

    #[test]
    fn window_boundaries_do_not_drift_on_long_traces() {
        // 10 s at 1 ms cadence: exactly 10_000 windows; an accumulating
        // `t += dt` loop drifts off the k·dt grid well before this.
        let t = PowerTrace::from_segments(&[seg(0.0, 10.0, 100.0)]);
        let s = t.sample(Sampler::rocm_smi_fine());
        assert_eq!(s.samples.len(), 10_000);
        let mid = s.samples[9_999];
        assert!((mid.time_s - 9.9995).abs() < 1e-9);
    }

    #[test]
    fn zero_duration_segments_carry_no_energy_and_do_not_skew_samples() {
        // A zero-width 999 W glitch between two plateaus.
        let t = PowerTrace::from_segments(&[
            seg(0.0, 0.05, 100.0),
            seg(0.05, 0.05, 999.0),
            seg(0.05, 0.1, 200.0),
        ]);
        assert!((t.average() - 150.0).abs() < 1e-9);
        assert!((t.energy_j() - 15.0).abs() < 1e-9);
        let s = t.sample(Sampler::nvml());
        assert_eq!(s.samples.len(), 1);
        assert!((s.samples[0].watts - 150.0).abs() < 1e-9);
        // peak_over ignores the empty segment; peak_instantaneous (a
        // segment-wise statistic, not a time integral) still reports it.
        assert_eq!(t.peak_over(0.0, 0.1), 200.0);
        assert_eq!(t.peak_instantaneous(), 999.0);
    }

    #[test]
    #[should_panic(expected = "invalid sampling interval")]
    fn hand_rolled_zero_interval_sampler_is_rejected() {
        let t = spike_trace();
        t.sample(Sampler {
            name: "bad",
            interval_s: 0.0,
        });
    }

    #[test]
    fn normalization_divides_by_tdp() {
        let t = spike_trace().sample(Sampler::rocm_smi_fine());
        let norm = t.normalized(400.0);
        let peak = norm.iter().map(|s| s.watts).fold(0.0, f64::max);
        assert!((peak - 1.5).abs() < 1e-9);
    }

    /// A random sorted trace: contiguous segments with random widths (some
    /// zero), random draws (some repeated), and random gaps between runs.
    fn random_trace(rng: &mut olab_sim::SeededRng) -> PowerTrace {
        let n = (rng.next_u64() % 40) as usize;
        let mut t = 0.0f64;
        let mut segments = Vec::with_capacity(n);
        for _ in 0..n {
            if rng.next_u64().is_multiple_of(5) {
                t += rng.next_f64() * 0.05;
            }
            let width = match rng.next_u64() % 6 {
                0 => 0.0,
                1 => rng.next_f64() * 1e-4,
                _ => rng.next_f64() * 0.3,
            };
            let watts = [100.0, 250.0, 400.0][(rng.next_u64() % 3) as usize]
                + (rng.next_u64() % 2) as f64 * rng.next_f64() * 50.0;
            segments.push(seg(t, t + width, watts));
            t += width;
        }
        PowerTrace::from_segments(&segments)
    }

    /// The one-sweep sampler against its definition: every reading is
    /// `average_over` its window, bit for bit, for every vendor cadence and
    /// an odd one, on random sorted traces with partial final windows,
    /// zero-length segments and gaps.
    #[test]
    fn sweep_readings_equal_the_per_window_definition() {
        let mut rng = olab_sim::SeededRng::seed_from_u64(7);
        let samplers = [
            Sampler::nvml(),
            Sampler::amd_smi(),
            Sampler::rocm_smi_fine(),
            Sampler::with_interval("odd", 0.037),
        ];
        for case in 0..300 {
            let trace = random_trace(&mut rng);
            for sampler in samplers {
                let sampled = trace.sample(sampler);
                let dt = sampler.interval_s;
                let dur = trace.duration_s();
                let expected = (dur / dt).ceil().max(0.0) as usize;
                assert_eq!(sampled.samples.len(), expected, "case {case}");
                for (k, sample) in sampled.samples.iter().enumerate() {
                    let t = k as f64 * dt;
                    let end = (t + dt).min(dur);
                    assert_eq!(
                        sample.watts.to_bits(),
                        trace.average_over(t, end).to_bits(),
                        "case {case}, {} window {k}",
                        sampler.name
                    );
                }
            }
        }
        assert!(PowerTrace::default()
            .sample(Sampler::nvml())
            .samples
            .is_empty());
    }

    /// A trace whose starts are out of order is read window by window.
    #[test]
    fn unsorted_traces_are_sampled_by_the_definition() {
        let t = PowerTrace::from_segments(&[
            seg(0.1, 0.2, 400.0),
            seg(0.0, 0.1, 100.0),
            seg(0.2, 0.3, 200.0),
        ]);
        let s = t.sample(Sampler::with_interval("t", 0.05));
        assert_eq!(s.samples.len(), 6);
        for (k, sample) in s.samples.iter().enumerate() {
            let a = k as f64 * 0.05;
            assert_eq!(sample.watts, t.average_over(a, (a + 0.05).min(0.3)));
            assert!(sample.watts > 0.0);
        }
    }

    /// Pushing elementary segments through a fold gives the statistics of
    /// the trace the engine's merge rule builds from them, bit for bit.
    #[test]
    fn fold_equals_the_statistics_of_the_merged_trace() {
        let mut rng = olab_sim::SeededRng::seed_from_u64(11);
        for case in 0..300 {
            let mut merged = olab_sim::GpuActivity::default();
            let mut fold = PowerFold::default();
            let mut t = 0.0f64;
            for _ in 0..(rng.next_u64() % 60) {
                let width = rng.next_f64() * 0.01;
                let watts = [90.0, 90.0 + 5e-10, 300.0][(rng.next_u64() % 3) as usize];
                // Gaps break contiguity; tiny ones stay within the rule.
                t += [0.0, 5e-13, 1e-3][(rng.next_u64() % 3) as usize];
                merged.push_power(SimTime::from_secs(t), SimTime::from_secs(t + width), watts);
                fold.push(t, t + width, watts);
                t += width;
            }
            assert_eq!(
                fold.finish(),
                PowerStats::from_segments(&merged.power),
                "case {case}"
            );
        }
        assert_eq!(PowerFold::default().finish(), PowerStats::default());
    }

    #[test]
    fn empty_trace_is_well_behaved() {
        let t = PowerTrace::default();
        assert_eq!(t.average(), 0.0);
        assert_eq!(t.duration_s(), 0.0);
        let s = t.sample(Sampler::nvml());
        assert!(s.peak().is_none());
        assert!(s.average().is_none());
    }
}
