//! Renderers for the design-space studies beyond the paper, registered in
//! [`FIGURES`](crate::figures::FIGURES) as `ablation_*`.

use crate::figures::{failed, run, section};
use olab_ccl::{lower, Algorithm, Collective};
use olab_core::adaptive::{tune_fsdp, Objective};
use olab_core::report::{ms, pct, Table};
use olab_core::{execute, Experiment, Machine, MachineConfig, OverlapMetrics, Strategy, Sweep};
use olab_gpu::{Datapath, DvfsGovernor, GpuSku, KernelKind, Precision, SkuKind};
use olab_models::{memory::ActivationPolicy, ModelPreset};
use olab_net::Topology;
use olab_parallel::pipeline::PipelineSchedule;
use olab_parallel::{fsdp, ComputeOp, ExecutionMode, Op};
use olab_power::Sampler;
use olab_sim::{GpuId, StreamKind, TaskSpec, Workload};

/// GPT-3 2.7B FSDP, batch 8 per rank, on four GPUs of `sku`: the cell
/// most ablations perturb.
fn fsdp_2_7b(sku: SkuKind) -> Experiment {
    Experiment::new(sku, 4, ModelPreset::Gpt3_2_7B, Strategy::Fsdp, 8)
}

/// Gradient accumulation (the paper's Sec. II-B mitigation).
///
/// `k` micro-steps per optimizer step cut reduce-scatter traffic per
/// sample by `k` (all-gathers remain per-step). Measured here at constant
/// total samples per iteration: accumulation trades a small compute
/// overhead for a large drop in contention on slow fabrics.
pub(crate) fn accumulation(sweep: &Sweep) -> String {
    const MICRO_STEPS: [u32; 3] = [1, 2, 4];
    let mut table = Table::new([
        "GPU",
        "Micro-steps",
        "Batch/step",
        "Act policy",
        "Overlap ratio",
        "Compute slowdown",
        "E2E (same samples)",
        "Throughput gain",
    ]);
    let skus = [SkuKind::H100, SkuKind::Mi250];
    // 32 samples per GPU per optimizer step, split into k micro-steps.
    let grid: Vec<_> = skus
        .iter()
        .flat_map(|&sku| {
            MICRO_STEPS.iter().map(move |&k| {
                Experiment::new(
                    sku,
                    4,
                    ModelPreset::Gpt3Xl,
                    Strategy::Fsdp,
                    32 / u64::from(k),
                )
                .with_grad_accum(k)
            })
        })
        .collect();
    let cells = run(sweep, &grid);
    let mut cells = cells.iter();
    for sku in skus {
        let mut baseline_e2e = None;
        for k in MICRO_STEPS {
            let mut row = vec![sku.to_string(), k.to_string()];
            match cells.next().expect("one cell per (sku, k)") {
                Ok(r) => {
                    let e2e = r.metrics.e2e_overlapped_s;
                    let gain = baseline_e2e
                        .map(|b: f64| pct(b / e2e - 1.0))
                        .unwrap_or_else(|| "baseline".into());
                    baseline_e2e.get_or_insert(e2e);
                    row.extend([
                        (32 / u64::from(k)).to_string(),
                        format!("{:?}", r.activation_policy),
                        pct(r.metrics.overlap_ratio),
                        pct(r.metrics.compute_slowdown),
                        ms(e2e),
                        gain,
                    ]);
                }
                Err(e) => {
                    row.extend(["-".to_string(), "-".to_string()]);
                    row.extend(failed(e, 3));
                }
            }
            table.row(row);
        }
    }
    section(
        "Ablation: gradient accumulation (GPT-3 XL FSDP, 32 samples/GPU/step)",
        &table,
    ) + "Accumulation cuts reduce-scatter traffic per sample AND shrinks the\n\
         activation footprint (smaller per-step batch), which can avoid\n\
         recomputation entirely — but too many micro-steps raise the overlap\n\
         ratio back up (communication per step is constant, compute shrinks).\n"
}

/// Adaptive overlap scheduling (the paper's proposed mitigation,
/// implemented).
///
/// For each SKU and objective, the scheduler evaluates all four FSDP
/// selective-overlap policies and reports the winner. The headline
/// result: always-overlap wins latency everywhere, but on the heavily
/// contended MI250 a serialized policy wins energy — balancing
/// "performance and resources such as energy efficiency", as the paper's
/// conclusion asks.
pub(crate) fn adaptive(_: &Sweep) -> String {
    let mut table = Table::new([
        "GPU",
        "Objective",
        "Best policy",
        "Gain vs always-overlap",
        "E2E",
        "Energy",
    ]);
    for sku in SkuKind::ALL {
        let exp = fsdp_2_7b(sku);
        for objective in Objective::ALL {
            let mut row = vec![sku.to_string(), objective.to_string()];
            match tune_fsdp(&exp, objective) {
                Ok(choice) => {
                    let best = choice.best();
                    row.extend([
                        best.policy.to_string(),
                        pct(choice.gain_over_default()),
                        format!("{:.1} ms", best.report.metrics.e2e_overlapped_s * 1e3),
                        format!("{:.0} J", best.report.metrics.energy_j),
                    ]);
                }
                Err(e) => row.extend(failed(e, 3)),
            }
            table.row(row);
        }
    }
    section(
        "Ablation: adaptive overlap scheduling (GPT-3 2.7B FSDP b8, 4 GPUs)",
        &table,
    )
}

/// Collective algorithm (ring vs tree) across message sizes.
///
/// Rings are bandwidth-optimal, trees latency-optimal; NCCL switches
/// between them by size. This study shows the crossover the
/// `Algorithm::auto` heuristic encodes, on both an NVLink and an Infinity
/// Fabric node.
pub(crate) fn algorithm(_: &Sweep) -> String {
    let mut table = Table::new([
        "GPU",
        "Message",
        "Ring time",
        "Tree time",
        "Winner",
        "Auto picks",
    ]);
    for sku_kind in [SkuKind::H100, SkuKind::Mi250] {
        let sku = sku_kind.sku();
        let topo = match sku.vendor {
            olab_gpu::Vendor::Nvidia => {
                Topology::nvswitch(4, sku.link_bw_unidir_gbs, sku.link_latency_us)
            }
            olab_gpu::Vendor::Amd => {
                Topology::full_mesh(4, sku.link_bw_unidir_gbs, sku.link_latency_us)
            }
        };
        let group: Vec<GpuId> = (0..4).map(GpuId).collect();
        for exp in [12u32, 16, 20, 24, 28, 30] {
            let bytes = 1u64 << exp;
            let coll = Collective::all_reduce(bytes, group.clone());
            let ring = lower(&coll, Algorithm::Ring, &sku, &topo, Precision::Fp16);
            let tree = lower(&coll, Algorithm::Tree, &sku, &topo, Precision::Fp16);
            let auto = Algorithm::auto(coll.kind, bytes, 4);
            let (rt, tt) = (ring.isolated_duration_s(), tree.isolated_duration_s());
            table.row([
                sku_kind.to_string(),
                format!("{} KiB", bytes >> 10),
                format!("{:.1} us", rt * 1e6),
                format!("{:.1} us", tt * 1e6),
                if rt < tt { "ring" } else { "tree" }.to_string(),
                auto.to_string(),
            ]);
        }
    }
    section(
        "Ablation: ring vs tree all-reduce across message sizes",
        &table,
    )
}

/// Overlapped and sequential GPT-3 2.7B FSDP (batch 8 per rank) on a
/// hand-built H100-class machine over `topology`.
fn fsdp_on(sku: &GpuSku, topology: Topology, ranks: usize) -> OverlapMetrics {
    let machine = Machine::new(MachineConfig {
        governor: DvfsGovernor::stock(sku.tdp_w),
        sku: sku.clone(),
        topology: topology.clone(),
        contended: true,
        jitter: None,
    });
    let plan = fsdp::FsdpPlan::new(
        ModelPreset::Gpt3_2_7B.config(),
        ranks,
        8,
        1024,
        Precision::Fp16,
        Datapath::TensorCore,
        ActivationPolicy::Full,
    );
    let leg = |mode| {
        execute(&fsdp::fsdp_timeline(&plan, sku, &topology, mode), &machine).expect("FSDP leg runs")
    };
    OverlapMetrics::derive(
        &leg(ExecutionMode::Overlapped),
        &leg(ExecutionMode::Sequential),
    )
}

/// Interconnect bandwidth sensitivity.
///
/// Sweeps the per-GPU link bandwidth of an H100-class node (0.25x to 2x
/// NVLink4) and re-runs a Fig. 4 cell, showing how fabric speed moves the
/// overlap ratio and the contention slowdown — the lever distinguishing
/// the NVIDIA and AMD columns of the paper's figures.
pub(crate) fn bandwidth(_: &Sweep) -> String {
    let mut table = Table::new([
        "Link bw (GB/s/dir)",
        "Overlap ratio",
        "Compute slowdown",
        "E2E overlapped",
        "E2E sequential",
    ]);
    let base = GpuSku::h100();
    for factor in [0.25, 0.5, 1.0, 1.5, 2.0] {
        let mut sku = base.clone();
        sku.link_bw_unidir_gbs = base.link_bw_unidir_gbs * factor;
        let topology = Topology::nvswitch(4, sku.link_bw_unidir_gbs, sku.link_latency_us);
        let m = fsdp_on(&sku, topology, 4);
        table.row([
            format!("{:.0}", sku.link_bw_unidir_gbs),
            pct(m.overlap_ratio),
            pct(m.compute_slowdown),
            ms(m.e2e_overlapped_s),
            ms(m.e2e_sequential_measured_s),
        ]);
    }
    section(
        "Ablation: link bandwidth sweep (H100-class node, GPT-3 2.7B FSDP b8)",
        &table,
    )
}

/// Collective channel count.
///
/// Each NCCL/RCCL channel is a persistent kernel occupying SMs. More
/// channels move bytes faster but steal more compute — the direct knob
/// behind the paper's SM-contention mechanism. This study forces channel
/// counts on an H100 all-reduce overlapping a GEMM stream and reports
/// both sides of the trade.
pub(crate) fn channels(_: &Sweep) -> String {
    let sku = GpuSku::h100();
    let machine = Machine::stock(sku.clone(), 4);
    let profile = sku.contention();
    let group: Vec<GpuId> = (0..4).map(GpuId).collect();
    let base = lower(
        &Collective::all_reduce(1 << 28, group.clone()),
        Algorithm::Ring,
        &sku,
        &machine.config().topology,
        Precision::Fp16,
    );
    let gemm = Op::Compute(ComputeOp::new(
        KernelKind::gemm(8192, 8192, 8192),
        Precision::Fp16,
        Datapath::TensorCore,
    ));
    let gemm_stream = || {
        let mut w = Workload::new(4);
        for g in 0..4u16 {
            for r in 0..4 {
                w.push(TaskSpec::compute(
                    format!("gemm.g{g}.r{r}"),
                    GpuId(g),
                    gemm.clone(),
                ));
            }
        }
        w
    };
    let iso_gemm = execute(&gemm_stream(), &machine)
        .expect("baseline runs")
        .gpus[0]
        .compute_s;

    let mut table = Table::new([
        "Channels",
        "SM fraction",
        "All-reduce time",
        "GEMM slowdown",
        "E2E",
    ]);
    for channels in [1u32, 2, 4, 8, 16] {
        // Channels scale the achievable wire rate (up to the link) and the
        // SM footprint together.
        let mut op = base.clone();
        op.channels = channels;
        op.sm_fraction = profile.comm_sm_fraction(channels);
        op.wire_rate_bytes_per_sec *= (f64::from(channels) / 16.0).min(1.0);
        let mut w = gemm_stream();
        w.push(TaskSpec::new(
            "ar",
            group.clone(),
            StreamKind::Comm,
            Op::Comm(op),
        ));
        let r = execute(&w, &machine).expect("ablation runs");
        let ar = r
            .trace
            .records()
            .iter()
            .find(|t| t.label == "ar")
            .expect("all-reduce record");
        table.row([
            channels.to_string(),
            format!("{:.3}", profile.comm_sm_fraction(channels)),
            format!("{:.2} ms", ar.duration().as_secs() * 1e3),
            pct(r.gpus[0].compute_s / iso_gemm - 1.0),
            format!("{:.2} ms", r.e2e_s * 1e3),
        ]);
    }
    section(
        "Ablation: channel count (H100, 256 MiB all-reduce under a GEMM stream)",
        &table,
    )
}

/// Frequency capping vs power capping.
///
/// The paper's conclusion mentions both knobs; this study compares them
/// at matched performance points, showing that clock caps save energy
/// superlinearly (`P ~ f^2.2`) while strict power caps let memory-bound
/// phases run unthrottled — two different efficiency frontiers.
pub(crate) fn freqcap(sweep: &Sweep) -> String {
    const FREQ_CAPS: [f64; 6] = [1.0, 0.9, 0.8, 0.7, 0.6, 0.5];
    const POWER_CAPS: [f64; 6] = [400.0, 350.0, 300.0, 250.0, 200.0, 150.0];
    let base = || fsdp_2_7b(SkuKind::A100);
    // One grid: the stock baseline, then every clock cap, then every
    // strict power cap.
    let mut grid = vec![base()];
    grid.extend(FREQ_CAPS.iter().map(|&f| base().with_freq_cap(f)));
    grid.extend(POWER_CAPS.iter().map(|&cap| base().with_power_cap(cap)));
    let cells = run(sweep, &grid);
    let cells: Vec<_> = cells
        .iter()
        .map(|c| c.as_ref().expect("A100 2.7B b8 is feasible"))
        .collect();

    let e2e0 = cells[0].metrics.e2e_overlapped_s;
    let energy0 = cells[0].metrics.energy_j;
    let mut table = Table::new([
        "Knob",
        "Setting",
        "E2E",
        "Slowdown",
        "Energy/iter",
        "Energy saved",
        "Avg power",
    ]);
    let settings = FREQ_CAPS
        .iter()
        .map(|f| ("clock", format!("{:.0}%", f * 100.0)))
        .chain(
            POWER_CAPS
                .iter()
                .map(|cap| ("power", format!("{cap:.0} W"))),
        );
    for ((knob, setting), r) in settings.zip(&cells[1..]) {
        table.row([
            knob.to_string(),
            setting,
            ms(r.metrics.e2e_overlapped_s),
            pct(r.metrics.e2e_overlapped_s / e2e0 - 1.0),
            format!("{:.0} J", r.metrics.energy_j),
            pct(1.0 - r.metrics.energy_j / energy0),
            format!("{:.0} W", r.metrics.avg_power_w),
        ]);
    }
    section(
        "Ablation: frequency capping vs power capping (A100x4, GPT-3 2.7B FSDP b8)",
        &table,
    )
}

/// Scale-out (multi-node) extension.
///
/// The paper deliberately stays single-node "to isolate hardware-specific
/// performance characteristics". This study shows what that isolation
/// protects it from: spanning FSDP across two 4×H100 nodes drops the ring
/// bus bandwidth to the NIC rate, exploding the overlap ratio and
/// contention slowdown as the NIC shrinks from 4x400G-class (200 GB/s) to
/// a single 100G port (12.5 GB/s).
pub(crate) fn multinode(_: &Sweep) -> String {
    let h100 = GpuSku::h100();
    let mut table = Table::new([
        "Fabric",
        "Ring busbw (GB/s)",
        "Overlap ratio",
        "Compute slowdown",
        "E2E overlapped",
        "Seq vs overlap",
    ]);
    let mut row = |fabric: String, busbw: String, topology: Topology| {
        let m = fsdp_on(&h100, topology, 8);
        table.row([
            fabric,
            busbw,
            pct(m.overlap_ratio),
            pct(m.compute_slowdown),
            ms(m.e2e_overlapped_s),
            pct(m.sequential_vs_overlapped()),
        ]);
    };
    // Single-node baseline: 8 GPUs behind one NVSwitch.
    let single = Topology::nvswitch(8, h100.link_bw_unidir_gbs, h100.link_latency_us);
    row(
        "1 node x 8 GPUs (NVSwitch)".to_string(),
        format!("{:.0}", single.ring_busbw_gbs(8)),
        single,
    );
    for nic in [200.0, 100.0, 50.0, 12.5] {
        let topo = Topology::multi_node(
            2,
            4,
            h100.link_bw_unidir_gbs,
            h100.link_latency_us,
            nic,
            10.0,
        );
        row(
            format!("2 nodes x 4 GPUs, {nic:.1} GB/s NIC"),
            format!("{:.1}", topo.ring_busbw_gbs(8)),
            topo,
        );
    }
    section(
        "Ablation: multi-node scale-out (GPT-3 2.7B FSDP b8, 8x H100)",
        &table,
    )
}

/// Telemetry sampling interval.
///
/// Quantifies why the paper's Fig. 7 uses the MI250 (ROCm-SMI offers
/// ~1 ms sampling) rather than an NVIDIA part (NVML averages over
/// ~100 ms): the observable peak power shrinks as the sampling window
/// grows, hiding the overlap-induced spikes.
pub(crate) fn sampler(_: &Sweep) -> String {
    let report = olab_core::registry::fig7()
        .run()
        .expect("fig7 experiment runs");
    let gpu0 = &report.overlapped.gpus[0];
    let tdp = report.tdp_w();
    let true_peak = gpu0.power.peak_instantaneous();

    let mut table = Table::new([
        "Sampler",
        "Interval",
        "Observed peak",
        "Observed avg",
        "Peak underreported by",
    ]);
    let samplers = [
        Sampler::with_interval("exact", 1e-6),
        Sampler::rocm_smi_fine(),
        Sampler::amd_smi(),
        Sampler::with_interval("50ms", 0.050),
        Sampler::nvml(),
    ];
    for sampler in samplers {
        let sampled = gpu0.power.sample(sampler);
        let peak = sampled.peak().unwrap_or(0.0);
        let avg = sampled.average().unwrap_or(0.0);
        table.row([
            sampler.name.to_string(),
            format!("{:.1} ms", sampler.interval_s * 1e3),
            format!("{:.0} W ({:.2}x TDP)", peak, peak / tdp),
            format!("{:.0} W ({:.2}x TDP)", avg, avg / tdp),
            format!("{:.1}%", (1.0 - peak / true_peak) * 100.0),
        ]);
    }
    section(
        "Ablation: sampler interval vs observable power peaks (MI250, LLaMA-2 13B FSDP)",
        &table,
    )
}

/// Pipeline schedule (1F1B vs GPipe).
///
/// The paper's Fig. 3(b) shows an interleaved schedule; this study
/// quantifies why that matters on a slow fabric (MI250 Infinity Fabric,
/// where transfers are long enough to be worth hiding): GPipe's transfers
/// sit on slot boundaries and barely overlap, while 1F1B hides them under
/// the opposite-direction compute — at a fraction of GPipe's activation
/// memory.
pub(crate) fn schedule(sweep: &Sweep) -> String {
    let mut table = Table::new([
        "Batch",
        "Schedule",
        "Overlap ratio",
        "Compute slowdown",
        "E2E",
        "Acts in flight",
    ]);
    let mut grid = Vec::new();
    for batch in [16u64, 32, 64] {
        for schedule in [PipelineSchedule::OneFOneB, PipelineSchedule::GPipe] {
            grid.push(
                Experiment::new(
                    SkuKind::Mi250,
                    4,
                    ModelPreset::Gpt3_2_7B,
                    Strategy::Pipeline { microbatch_size: 8 },
                    batch,
                )
                .with_pipeline_schedule(schedule),
            );
        }
    }
    for (exp, cell) in grid.iter().zip(run(sweep, &grid)) {
        let in_flight = match exp.pipeline_schedule {
            PipelineSchedule::GPipe => exp.batch / 8,
            PipelineSchedule::OneFOneB => (exp.batch / 8).min(4),
        };
        let mut row = vec![exp.batch.to_string(), exp.pipeline_schedule.to_string()];
        match cell {
            Ok(r) => row.extend([
                pct(r.metrics.overlap_ratio),
                pct(r.metrics.compute_slowdown),
                ms(r.metrics.e2e_overlapped_s),
            ]),
            Err(e) => row.extend(failed(e, 2)),
        }
        row.push(in_flight.to_string());
        table.row(row);
    }
    section(
        "Ablation: pipeline schedule (GPT-3 2.7B on MI250x4, microbatch 8)",
        &table,
    )
}

/// Sequence length.
///
/// The paper fixes its sequence length; this sweep shows why it matters:
/// compute grows superlinearly with sequence (attention is quadratic)
/// while FSDP communication (parameters) is sequence-independent, so
/// longer sequences dilute the overlap region exactly like larger batches
/// do.
pub(crate) fn seqlen(sweep: &Sweep) -> String {
    let mut table = Table::new([
        "GPU",
        "Seq len",
        "Overlap ratio",
        "Compute slowdown",
        "E2E overlapped",
        "Act policy",
    ]);
    let grid: Vec<_> = [SkuKind::H100, SkuKind::Mi250]
        .into_iter()
        .flat_map(|sku| [256u64, 512, 1024, 2048].map(|seq| fsdp_2_7b(sku).with_seq(seq)))
        .collect();
    for (exp, cell) in grid.iter().zip(run(sweep, &grid)) {
        let mut row = vec![exp.sku.to_string(), exp.seq.to_string()];
        match cell {
            Ok(r) => row.extend([
                pct(r.metrics.overlap_ratio),
                pct(r.metrics.compute_slowdown),
                ms(r.metrics.e2e_overlapped_s),
                format!("{:?}", r.activation_policy),
            ]),
            Err(e) => row.extend(failed(e, 3)),
        }
        table.row(row);
    }
    section(
        "Ablation: sequence length (GPT-3 2.7B FSDP b8, 4 GPUs)",
        &table,
    )
}

/// Distribution strategy (FSDP vs pipeline vs tensor parallelism)
/// through the overlap lens.
///
/// Extends the paper's FSDP-vs-PP comparison (takeaway 1) with Megatron
/// tensor parallelism: TP moves *activations* (4 all-reduces per layer),
/// whose forward halves sit on the critical path — the gap the Domino
/// citation targets.
pub(crate) fn strategy(sweep: &Sweep) -> String {
    let mut table = Table::new([
        "GPU",
        "Strategy",
        "Overlap ratio",
        "Compute slowdown",
        "E2E overlapped",
        "E2E sequential",
        "Comm total/GPU",
    ]);
    let strategies = [
        Strategy::Fsdp,
        Strategy::Pipeline { microbatch_size: 8 },
        Strategy::TensorParallel,
    ];
    let grid: Vec<_> = [SkuKind::H100, SkuKind::Mi250]
        .into_iter()
        .flat_map(|sku| {
            strategies.map(|strategy| {
                // Keep per-iteration samples comparable: FSDP batch is
                // per-rank (8x4=32 samples), PP/TP batches are global (32).
                let batch = match strategy {
                    Strategy::Fsdp => 8,
                    _ => 32,
                };
                Experiment::new(sku, 4, ModelPreset::Gpt3_2_7B, strategy, batch)
            })
        })
        .collect();
    for (exp, cell) in grid.iter().zip(run(sweep, &grid)) {
        let mut row = vec![exp.sku.to_string(), exp.strategy.to_string()];
        match cell {
            Ok(r) => row.extend([
                pct(r.metrics.overlap_ratio),
                pct(r.metrics.compute_slowdown),
                ms(r.metrics.e2e_overlapped_s),
                ms(r.metrics.e2e_sequential_measured_s),
                ms(r.comm_s / 4.0),
            ]),
            Err(e) => row.extend(failed(e, 4)),
        }
        table.row(row);
    }
    section(
        "Ablation: distribution strategy (GPT-3 2.7B, 32 samples/iter, 4 GPUs)",
        &table,
    )
}
