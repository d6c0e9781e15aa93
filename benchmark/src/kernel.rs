//! The reference kernel and the speed correction built on it.
//!
//! The host this benchmark runs on changes speed from second to second
//! (shared cores, frequency scaling, noisy neighbours): identical
//! `main_grid` passes took anywhere from 0.7 s to 1.2 s. The benchmark owns
//! a fixed kernel that calls nothing in the program — a small task graph
//! with string labels walked by a heap-ordered event loop with float math,
//! then a sort: the mix of work the simulator's lowering and event loop do
//! — and times it between timed chunks. A chunk's corrected time is its raw
//! time scaled by how much slower than nominal the kernel ran on either
//! side of it.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::hint::black_box;
use std::time::Instant;

/// The kernel's time on a quiet host, milliseconds. A fixed constant, so a
/// parent commit and a change measured with the same benchmark code scale
/// by the same value.
pub const NOMINAL_REF_MS: f64 = 1.0;

/// Operations are grouped into chunks of at least this much raw time
/// before the kernel runs again. The host's speed shifts on a scale of
/// tens of milliseconds, so a chunk spans one or two grid cells or a few
/// dozen served cache hits.
pub const CHUNK_MS: f64 = 8.0;

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One task of the kernel's fixed dependency graph.
struct Task {
    label: String,
    deps: Vec<u32>,
    dur_s: f64,
    lane: usize,
}

/// One run of the fixed reference workload: build a dependency graph of
/// 4800 tasks with string labels (the size of one lowered paper cell),
/// walk it with a heap-ordered event loop doing float math per task, then
/// sort the finish times. Returns a checksum so the optimizer cannot drop
/// the work.
pub fn reference_work() -> u64 {
    const TASKS: u32 = 4_800;
    const LANES: usize = 4;
    let mut state = 0x5EED_u64;
    let tasks: Vec<Task> = (0..TASKS)
        .map(|i| {
            let x = splitmix(&mut state);
            let deps = if i < LANES as u32 {
                Vec::new()
            } else {
                vec![i - 1 - (x % 3) as u32, i - LANES as u32]
            };
            Task {
                label: format!("layer{}.op{}", i / 8, i % 8),
                deps,
                dur_s: 1e-3 * ((x >> 40) as f64 / (1u64 << 24) as f64 + 0.1),
                lane: (x % LANES as u64) as usize,
            }
        })
        .collect();
    let mut waiting: Vec<usize> = tasks.iter().map(|t| t.deps.len()).collect();
    let mut children: Vec<Vec<u32>> = vec![Vec::new(); tasks.len()];
    for (i, t) in tasks.iter().enumerate() {
        for &d in &t.deps {
            children[d as usize].push(i as u32);
        }
    }
    let mut ready: BinaryHeap<Reverse<(u64, u32)>> = (0..TASKS)
        .filter(|&i| waiting[i as usize] == 0)
        .map(|i| Reverse((0, i)))
        .collect();
    let mut lane_free = [0.0f64; LANES];
    let mut finish_ns = Vec::with_capacity(tasks.len());
    let mut energy = 0.0f64;
    while let Some(Reverse((t_ns, i))) = ready.pop() {
        let task = &tasks[i as usize];
        let start = (t_ns as f64 * 1e-9).max(lane_free[task.lane]);
        let end = start + task.dur_s * (1.0 + 0.1 * (start * 100.0).sin());
        lane_free[task.lane] = end;
        energy += (end - start) * (300.0 + task.label.len() as f64).sqrt();
        let end_ns = (end * 1e9) as u64;
        finish_ns.push(end_ns);
        for &c in &children[i as usize] {
            waiting[c as usize] -= 1;
            if waiting[c as usize] == 0 {
                ready.push(Reverse((end_ns, c)));
            }
        }
    }
    finish_ns.sort_unstable();
    energy.to_bits() ^ finish_ns[finish_ns.len() / 2] ^ finish_ns.len() as u64
}

/// Times one run of the reference kernel, milliseconds.
pub fn probe_ms() -> f64 {
    let start = Instant::now();
    black_box(reference_work());
    start.elapsed().as_secs_f64() * 1e3
}

/// The factor that turns a raw time into a corrected one, given the
/// kernel times measured just before and just after it.
pub fn correction(before_ms: f64, after_ms: f64) -> f64 {
    NOMINAL_REF_MS / ((before_ms + after_ms) / 2.0)
}

/// The correction factor of every chunk between consecutive probes. Each
/// probe is first replaced by the median of itself and its neighbours, so
/// one probe that the scheduler interrupted does not rescale the two
/// chunks beside it.
pub fn chunk_factors(probes_ms: &[f64]) -> Vec<f64> {
    let n = probes_ms.len();
    let smoothed: Vec<f64> = (0..n)
        .map(|i| crate::stats::median(&probes_ms[i.saturating_sub(1)..(i + 2).min(n)]))
        .collect();
    smoothed
        .windows(2)
        .map(|w| correction(w[0], w[1]))
        .collect()
}

/// Times operations one by one and corrects them chunk by chunk.
pub struct Meter {
    pending_ms: f64,
    chunk_of: Vec<usize>,
    /// Raw per-operation times, milliseconds, in operation order.
    pub raw_ms: Vec<f64>,
    /// Corrected per-operation times, milliseconds, index-aligned with
    /// `raw_ms` up to the last [`Meter::flush`].
    pub corrected_ms: Vec<f64>,
    /// Every kernel time measured, milliseconds.
    pub probes_ms: Vec<f64>,
}

impl Meter {
    /// A meter whose first chunk is bracketed by a fresh kernel probe.
    pub fn new() -> Meter {
        // The first runs fault in the kernel's pages; keep them out.
        for _ in 0..3 {
            probe_ms();
        }
        Meter {
            pending_ms: 0.0,
            chunk_of: Vec::new(),
            raw_ms: Vec::new(),
            corrected_ms: Vec::new(),
            probes_ms: vec![probe_ms()],
        }
    }

    /// Runs and times one operation.
    pub fn time<R>(&mut self, op: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let out = op();
        let ms = start.elapsed().as_secs_f64() * 1e3;
        self.raw_ms.push(ms);
        self.chunk_of.push(self.probes_ms.len() - 1);
        self.pending_ms += ms;
        if self.pending_ms >= CHUNK_MS {
            self.close_chunk();
        }
        out
    }

    fn close_chunk(&mut self) {
        self.probes_ms.push(probe_ms());
        self.pending_ms = 0.0;
    }

    /// Closes the open chunk and corrects every operation so far. Call it
    /// before reading the per-operation times.
    pub fn flush(&mut self) {
        if self.chunk_of.last() == Some(&(self.probes_ms.len() - 1)) {
            self.close_chunk();
        }
        let factors = chunk_factors(&self.probes_ms);
        self.corrected_ms = self
            .raw_ms
            .iter()
            .zip(&self.chunk_of)
            .map(|(raw, &c)| raw * factors[c])
            .collect();
    }

    /// Operations measured and corrected so far.
    pub fn len(&self) -> usize {
        self.corrected_ms.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn correction_scales_by_nominal_over_the_mean_of_both_probes() {
        assert_eq!(correction(NOMINAL_REF_MS, NOMINAL_REF_MS), 1.0);
        // A host running at half speed on both sides halves the time.
        assert_eq!(correction(2.0 * NOMINAL_REF_MS, 2.0 * NOMINAL_REF_MS), 0.5);
        // Before and after are averaged, not multiplied.
        let f = correction(0.2, 0.6);
        assert!((f - NOMINAL_REF_MS / 0.4).abs() < 1e-12);
    }

    #[test]
    fn meter_corrects_every_operation_of_a_chunk_with_one_factor() {
        let mut meter = Meter::new();
        for _ in 0..3 {
            meter.time(|| std::hint::black_box(reference_work()));
        }
        meter.flush();
        assert_eq!(meter.len(), 3);
        let factors: Vec<f64> = meter
            .raw_ms
            .iter()
            .zip(&meter.corrected_ms)
            .map(|(r, c)| c / r)
            .collect();
        assert!(factors.windows(2).all(|w| (w[0] - w[1]).abs() < 1e-9));
        let expected = *chunk_factors(&meter.probes_ms).last().unwrap();
        assert!((factors[0] - expected).abs() < 1e-9);
    }

    #[test]
    fn one_interrupted_probe_does_not_rescale_its_neighbours() {
        let nominal = NOMINAL_REF_MS;
        let probes = [nominal, nominal, 10.0 * nominal, nominal, nominal];
        assert_eq!(chunk_factors(&probes), vec![1.0; 4]);
        // A sustained slowdown is followed.
        let slow = [nominal, 2.0 * nominal, 2.0 * nominal, 2.0 * nominal];
        assert_eq!(chunk_factors(&slow)[1..], [0.5, 0.5]);
    }

    #[test]
    fn reference_work_is_deterministic() {
        assert_eq!(reference_work(), reference_work());
    }
}
