//! Property-based tests: random forward DAGs must run to completion and the
//! resulting trace must satisfy the engine's accounting identities.

use olab_sim::{Engine, GpuId, RateModel, RunningTask, SimTime, StreamKind, TaskSpec, Workload};
use proptest::prelude::*;

/// Payload carrying the isolated duration of the task in seconds.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Dur(f64);

/// Rate model: rate is 1/duration, slowed by 2x whenever the other stream is
/// busy on a shared device (a toy contention model). Power is 50 W idle plus
/// 25 W per running task on the device.
struct ToyContention;

impl RateModel for ToyContention {
    type Payload = Dur;

    fn assign_rates(
        &mut self,
        running: &[RunningTask<'_, Dur>],
        rates: &mut [f64],
        power: &mut [f64],
    ) {
        let mut busy = vec![[false; 2]; power.len()];
        for task in running {
            for gpu in task.participants {
                busy[gpu.index()][task.stream.index()] = true;
            }
        }
        for watts in power.iter_mut() {
            *watts = 50.0;
        }
        for (i, task) in running.iter().enumerate() {
            let contended = task
                .participants
                .iter()
                .any(|g| busy[g.index()][task.stream.other().index()]);
            let slowdown = if contended { 2.0 } else { 1.0 };
            rates[i] = 1.0 / (task.payload.0 * slowdown);
            for gpu in task.participants {
                power[gpu.index()] += 25.0;
            }
        }
    }
}

#[derive(Debug, Clone)]
struct RandomTask {
    gpus: Vec<u16>,
    stream: StreamKind,
    duration: f64,
    /// Dependencies as offsets back from this task's index.
    dep_offsets: Vec<usize>,
}

fn random_task(n_gpus: u16) -> impl Strategy<Value = RandomTask> {
    (
        proptest::collection::vec(0..n_gpus, 1..=usize::from(n_gpus)),
        prop_oneof![Just(StreamKind::Compute), Just(StreamKind::Comm)],
        0.001f64..1.0,
        proptest::collection::vec(1usize..20, 0..3),
    )
        .prop_map(|(gpus, stream, duration, dep_offsets)| RandomTask {
            gpus,
            stream,
            duration,
            dep_offsets,
        })
}

fn build_workload(tasks: &[RandomTask], n_gpus: usize) -> Workload<Dur> {
    let mut w = Workload::new(n_gpus);
    for (i, t) in tasks.iter().enumerate() {
        let payload = w.intern(Dur(t.duration));
        let mut spec = TaskSpec::new(
            format!("t{i}"),
            t.gpus.iter().map(|&g| GpuId(g)).collect::<Vec<_>>(),
            t.stream,
            payload,
        );
        for &off in &t.dep_offsets {
            if off <= i {
                spec.deps.push(olab_sim::TaskId((i - off) as u32));
            }
        }
        w.push(spec);
    }
    w
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Forward-only DAGs never deadlock: the lowest-id incomplete task is
    /// always at the head of its queues with its (earlier-id) deps complete.
    #[test]
    fn random_forward_dags_complete(
        tasks in proptest::collection::vec(random_task(4), 1..60)
    ) {
        let w = build_workload(&tasks, 4);
        let trace = Engine::new(ToyContention).run(&w).expect("no deadlock");
        prop_assert_eq!(trace.records().len(), tasks.len());
    }

    /// Structural identities of the trace.
    #[test]
    fn trace_identities_hold(
        tasks in proptest::collection::vec(random_task(3), 1..40)
    ) {
        let w = build_workload(&tasks, 3);
        let trace = Engine::new(ToyContention).run(&w).expect("no deadlock");
        let makespan = trace.makespan().as_secs();

        // Every record is well-formed.
        for rec in trace.records() {
            prop_assert!(rec.end >= rec.start);
            prop_assert!(rec.end.as_secs() <= makespan + 1e-9);
            prop_assert!(rec.coactive.as_secs() <= rec.duration().as_secs() + 1e-9);
        }

        // Dependencies finish before dependents start.
        for (i, t) in w.tasks().iter().enumerate() {
            let rec = &trace.records()[i];
            for dep in &t.deps {
                let dep_rec = &trace.records()[dep.index()];
                prop_assert!(dep_rec.end.as_secs() <= rec.start.as_secs() + 1e-9);
            }
        }

        // Same-queue tasks never overlap and run in push order.
        for g in 0..3u16 {
            for s in StreamKind::ALL {
                let mut last_end = 0.0f64;
                for rec in trace.records() {
                    if rec.stream == s && rec.participants.contains(&GpuId(g)) {
                        prop_assert!(rec.start.as_secs() >= last_end - 1e-9);
                        last_end = rec.end.as_secs();
                    }
                }
            }
        }

        for g in 0..3u16 {
            let activity = trace.gpu(GpuId(g));
            // Busy time never exceeds the makespan.
            for s in StreamKind::ALL {
                prop_assert!(activity.busy_time(s).as_secs() <= makespan + 1e-9);
            }
            // Overlap time is bounded by either stream's busy time.
            let overlap = activity.overlap_time().as_secs();
            prop_assert!(overlap <= activity.busy_time(StreamKind::Compute).as_secs() + 1e-9);
            prop_assert!(overlap <= activity.busy_time(StreamKind::Comm).as_secs() + 1e-9);

            // Power segments are contiguous and span [0, makespan).
            let segs = &activity.power;
            if makespan > 0.0 {
                prop_assert!(!segs.is_empty());
                prop_assert!(segs[0].window.start == SimTime::ZERO);
                for pair in segs.windows(2) {
                    prop_assert!(
                        (pair[0].window.end.as_secs() - pair[1].window.start.as_secs()).abs()
                            < 1e-9
                    );
                }
                prop_assert!(
                    (segs.last().unwrap().window.end.as_secs() - makespan).abs() < 1e-9
                );
            }
        }
    }

    /// Makespan bounds: at least the longest single task, at most the sum of
    /// all isolated durations times the worst contention factor.
    #[test]
    fn makespan_bounds(
        tasks in proptest::collection::vec(random_task(2), 1..30)
    ) {
        let w = build_workload(&tasks, 2);
        let trace = Engine::new(ToyContention).run(&w).expect("no deadlock");
        let longest = tasks.iter().map(|t| t.duration).fold(0.0, f64::max);
        let total: f64 = tasks.iter().map(|t| t.duration).sum();
        prop_assert!(trace.makespan().as_secs() >= longest - 1e-9);
        prop_assert!(trace.makespan().as_secs() <= 2.0 * total + 1e-9);
    }
}
