//! Cross-crate integration: full experiments on every SKU and strategy,
//! checking structural invariants of the three execution modes.

use olab_core::{
    execute, execute_lean, CellMetrics, Experiment, ExperimentReport, Jitter, Machine,
    OverlapMetrics, RunResult, RunTotals, Strategy,
};
use olab_gpu::SkuKind;
use olab_models::memory::ActivationPolicy;
use olab_models::ModelPreset;
use olab_parallel::fsdp::FsdpOverlap;
use olab_parallel::pipeline::PipelineSchedule;
use olab_parallel::ExecutionMode;

/// A fast experiment cell (small sequence keeps debug-mode runtimes low).
fn small(sku: SkuKind, strategy: Strategy) -> Experiment {
    Experiment::new(sku, 4, ModelPreset::Gpt3Xl, strategy, 8).with_seq(256)
}

#[test]
fn every_sku_runs_fsdp_and_pipeline() {
    for sku in SkuKind::ALL {
        for strategy in [Strategy::Fsdp, Strategy::Pipeline { microbatch_size: 2 }] {
            let r = small(sku, strategy)
                .run()
                .unwrap_or_else(|e| panic!("{sku} {strategy:?}: {e}"));
            assert!(r.metrics.e2e_overlapped_s > 0.0);
            assert!(
                r.metrics.e2e_overlapped_s <= r.metrics.e2e_sequential_measured_s,
                "{sku}: overlap must not lose to sequential"
            );
        }
    }
}

#[test]
fn overlap_ratio_is_a_valid_fraction_everywhere() {
    for sku in SkuKind::ALL {
        let r = small(sku, Strategy::Fsdp).run().unwrap();
        assert!((0.0..=1.0).contains(&r.metrics.overlap_ratio), "{sku}");
        assert!(r.metrics.compute_slowdown >= 0.0, "{sku}");
    }
}

#[test]
fn simulation_is_deterministic() {
    let a = small(SkuKind::Mi250, Strategy::Fsdp).run().unwrap();
    let b = small(SkuKind::Mi250, Strategy::Fsdp).run().unwrap();
    assert_eq!(a.metrics.e2e_overlapped_s, b.metrics.e2e_overlapped_s);
    assert_eq!(a.metrics.compute_slowdown, b.metrics.compute_slowdown);
    assert_eq!(a.metrics.peak_power_w, b.metrics.peak_power_w);
}

#[test]
fn sequential_timeline_never_overlaps_on_any_gpu() {
    let exp = small(SkuKind::H100, Strategy::Fsdp);
    let policy = exp.validate().unwrap();
    let machine = exp.machine();
    let w = exp.timeline(ExecutionMode::Sequential, policy).unwrap();
    let run = execute(&w, &machine).unwrap();
    for (g, gpu) in run.gpus.iter().enumerate() {
        assert!(
            gpu.overlap_windows.is_empty(),
            "gpu{g} has overlap windows in sequential mode"
        );
        assert_eq!(gpu.overlapped_compute_s, 0.0, "gpu{g}");
    }
}

#[test]
fn uncontended_machine_matches_or_beats_contended_e2e() {
    let exp = small(SkuKind::Mi210, Strategy::Fsdp);
    let policy = exp.validate().unwrap();
    let machine = exp.machine();
    let w = exp.timeline(ExecutionMode::Overlapped, policy).unwrap();
    let contended = execute(&w, &machine).unwrap();
    let ideal = execute(&w, &machine.uncontended()).unwrap();
    assert!(ideal.e2e_s <= contended.e2e_s);
    assert!(ideal.compute_s() <= contended.compute_s());
}

#[test]
fn pipeline_uses_point_to_point_fsdp_uses_collectives() {
    let fsdp_exp = small(SkuKind::A100, Strategy::Fsdp);
    let pp_exp = small(SkuKind::A100, Strategy::Pipeline { microbatch_size: 2 });
    let fsdp_w = fsdp_exp
        .timeline(ExecutionMode::Overlapped, fsdp_exp.validate().unwrap())
        .unwrap();
    let pp_w = pp_exp
        .timeline(ExecutionMode::Overlapped, pp_exp.validate().unwrap())
        .unwrap();

    let comm_group_sizes = |w: &olab_sim::Workload<olab_parallel::Op>| -> Vec<usize> {
        w.tasks()
            .iter()
            .filter(|t| matches!(w.payload(t), olab_parallel::Op::Comm(_)))
            .map(|t| t.participants.len())
            .collect()
    };
    assert!(comm_group_sizes(&fsdp_w).iter().all(|&n| n == 4));
    assert!(comm_group_sizes(&pp_w).iter().all(|&n| n == 2));
}

#[test]
fn eight_gpu_nodes_work_like_four_gpu_nodes() {
    let exp =
        Experiment::new(SkuKind::H100, 8, ModelPreset::Gpt3Xl, Strategy::Fsdp, 8).with_seq(256);
    let r = exp.run().expect("8-GPU node runs");
    assert_eq!(r.overlapped.gpus.len(), 8);
    // More ranks shard the same model further: per-layer all-gathers move
    // (n-1)/n of the layer, so comm per rank grows slightly while compute
    // per rank stays constant (per-rank batch).
    assert!(r.metrics.overlap_ratio > 0.0);
}

#[test]
fn machine_debug_and_clone_are_usable() {
    // API ergonomics: Machine is Clone + Debug so harnesses can fan out.
    let m = Machine::stock(SkuKind::H100.sku(), 4);
    let m2 = m.clone();
    assert!(format!("{m2:?}").contains("Machine"));
}

/// `Experiment::run_on` composed from public calls with one lowering per
/// leg: the overlapped, sequential and ideal schedules each built by
/// `timeline`, in that order.
fn three_lowerings(exp: &Experiment, jitter: Option<Jitter>) -> ExperimentReport {
    let policy = exp.validate().unwrap();
    let machine = match jitter {
        Some(j) => exp.machine().with_jitter(j),
        None => exp.machine(),
    };
    let lower = |mode| exp.timeline(mode, policy).unwrap();
    let overlapped = execute(&lower(ExecutionMode::Overlapped), &machine).unwrap();
    let sequential = execute(&lower(ExecutionMode::Sequential), &machine).unwrap();
    let ideal = execute_lean(&lower(ExecutionMode::Overlapped), &machine.uncontended()).unwrap();
    let metrics = OverlapMetrics::derive(&overlapped, &sequential);
    let sampled = overlapped.gpus[0].power.sample(exp.sampler());
    ExperimentReport {
        experiment: exp.clone(),
        activation_policy: policy,
        metrics,
        sampled_avg_w: sampled.average().unwrap_or(0.0),
        sampled_peak_w: sampled.peak().unwrap_or(0.0),
        ideal_simulated_e2e_s: ideal.e2e_s,
        overlapped,
        sequential,
    }
}

/// Every number of a run as bits: scalars, per-GPU statistics, overlap
/// windows, the engine's power segments and every task record's timing.
fn run_bits(run: &RunResult, out: &mut Vec<u64>) {
    out.push(run.e2e_s.to_bits());
    for g in &run.gpus {
        out.extend(
            [
                g.compute_s,
                g.comm_s,
                g.overlapped_compute_s,
                g.hidden_comm_s,
            ]
            .map(f64::to_bits),
        );
        out.extend(
            [
                g.power.average(),
                g.power.peak_instantaneous(),
                g.power.energy_j(),
            ]
            .map(f64::to_bits),
        );
        for (a, b) in &g.overlap_windows {
            out.extend([a.to_bits(), b.to_bits()]);
        }
    }
    for gpu in run.trace.gpus() {
        for seg in &gpu.power {
            out.extend(
                [
                    seg.window.start.as_secs(),
                    seg.window.end.as_secs(),
                    seg.watts,
                ]
                .map(f64::to_bits),
            );
        }
    }
    for r in run.trace.records() {
        out.extend([r.start, r.end, r.coactive].map(|t| t.as_secs().to_bits()));
    }
}

fn report_bits(r: &ExperimentReport) -> Vec<u64> {
    let m = &r.metrics;
    let mut out: Vec<u64> = [
        m.compute_slowdown,
        m.overlap_ratio,
        m.e2e_overlapped_s,
        m.e2e_ideal_s,
        m.e2e_sequential_derived_s,
        m.e2e_sequential_measured_s,
        m.avg_power_w,
        m.peak_power_w,
        m.avg_power_sequential_w,
        m.peak_power_sequential_w,
        m.energy_j,
        r.ideal_simulated_e2e_s,
        r.sampled_avg_w,
        r.sampled_peak_w,
    ]
    .map(f64::to_bits)
    .to_vec();
    run_bits(&r.overlapped, &mut out);
    run_bits(&r.sequential, &mut out);
    out
}

#[test]
fn one_lowering_per_cell_matches_three_lowerings_bit_for_bit() {
    let fsdp = small(SkuKind::H100, Strategy::Fsdp);
    let pipeline = small(SkuKind::A100, Strategy::Pipeline { microbatch_size: 2 });
    let mut cells: Vec<Experiment> = FsdpOverlap::all_policies()
        .into_iter()
        .map(|p| fsdp.clone().with_fsdp_overlap(p))
        .collect();
    cells.extend([
        fsdp.clone().with_grad_accum(2),
        // The paper-default sequence length is what forces recomputation
        // on an A100 (checked below).
        Experiment::new(SkuKind::A100, 4, ModelPreset::Gpt3Xl, Strategy::Fsdp, 8),
        small(SkuKind::Mi250, Strategy::TensorParallel),
        pipeline
            .clone()
            .with_pipeline_schedule(PipelineSchedule::OneFOneB),
        pipeline.with_pipeline_schedule(PipelineSchedule::GPipe),
        small(SkuKind::A100, Strategy::Fsdp).with_power_cap(150.0),
    ]);
    let mut recompute = 0;
    for exp in &cells {
        let label = exp.label();
        let run = exp.run().unwrap();
        let reference = three_lowerings(exp, None);
        assert_eq!(
            run.activation_policy, reference.activation_policy,
            "{label}"
        );
        assert_eq!(report_bits(&run), report_bits(&reference), "{label}");
        assert_eq!(
            (run.overlapped.route, run.sequential.route),
            (reference.overlapped.route, reference.sequential.route),
            "{label}"
        );
        recompute += usize::from(run.activation_policy == ActivationPolicy::Recompute);

        let jittered = exp.run_jittered(7, 0.05).unwrap();
        let reference = three_lowerings(
            exp,
            Some(Jitter {
                seed: 7,
                sigma: 0.05,
            }),
        );
        assert_eq!(
            report_bits(&jittered),
            report_bits(&reference),
            "{label} jittered"
        );
    }
    assert_eq!(recompute, 1, "exactly one cell exercises recomputation");
}

/// A 16-GPU FSDP node: every collective's participant list spills past
/// the 8 inline slots, and sequential chaining spills the dependency
/// lists of the all-gathers and Adam steps past 4. The grid path still
/// agrees with the full run, and both legs' traces verify against their
/// workloads.
#[test]
fn a_sixteen_gpu_fsdp_cell_spills_its_task_lists_and_verifies() {
    let exp =
        Experiment::new(SkuKind::H100, 16, ModelPreset::Gpt3Xl, Strategy::Fsdp, 8).with_seq(256);
    let report = exp.run().expect("a 16-GPU FSDP cell runs");
    assert_eq!(
        exp.run_cell().expect("and runs on the grid path"),
        CellMetrics::from_report(&report)
    );

    let policy = exp.validate().unwrap();
    let overlapped = exp.timeline(ExecutionMode::Overlapped, policy).unwrap();
    let mut collectives = 0;
    for task in overlapped
        .tasks()
        .iter()
        .filter(|t| t.participants.len() > 1)
    {
        assert_eq!(task.participants.len(), 16, "{}", task.label);
        assert!(task.participants.spilled(), "{}", task.label);
        collectives += 1;
    }
    assert!(collectives > 0);
    let violations = olab_sim::verify_trace(&overlapped, &report.overlapped.trace);
    assert!(violations.is_empty(), "{violations:?}");

    let sequential = overlapped.into_sequential();
    let spilled: Vec<String> = sequential
        .tasks()
        .iter()
        .filter(|t| t.deps.len() > 4)
        .map(|t| {
            assert!(t.deps.spilled(), "{}", t.label);
            t.label.to_string()
        })
        .collect();
    assert!(
        spilled.iter().any(|l| l.starts_with("adam.")),
        "{spilled:?}"
    );
    assert!(spilled.iter().any(|l| l.contains(".ag.")), "{spilled:?}");
    let violations = olab_sim::verify_trace(&sequential, &report.sequential.trace);
    assert!(violations.is_empty(), "{violations:?}");
}
