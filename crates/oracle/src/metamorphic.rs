//! Metamorphic relations: properties that must hold between *pairs* of
//! runs even where no closed form exists for either run alone.
//!
//! * **R1** — doubling every link's bandwidth never increases a
//!   collective's isolated time.
//! * **R2** — adding a GPU never shrinks the all-reduce bytes each rank
//!   must move (`2S(n-1)/n` is monotone in `n`).
//! * **R3** — raising a power cap never increases the makespan (queue
//!   order is fixed, so faster rates can only finish earlier).
//! * **R4** — doubling the sequence length never lowers the compute share
//!   of an FSDP cell (FSDP's collective volume is parameter-, not
//!   activation-, sized, while attention FLOPs grow superlinearly).
//!   R4 is FSDP-only by design: TP and PP activations travel over the
//!   wire, so their comm time scales with `seq` too.
//!
//! Fault scenarios add **F1**/**F2** ([`check_fault_relations`]) and the
//! recovery layer adds its own **R1**–**R3**
//! ([`check_resilience_relations`]): the fault-free makespan lower-bounds
//! any completed recovery, checkpointing under no fault pressure is pure
//! overhead, and elastic re-sharding conserves durable state bytes.

use crate::gen::{random_experiment, Gen};
use crate::oracles::Tolerance;
use olab_ccl::{lower, Algorithm, Collective, CollectiveKind};
use olab_core::{execute, Experiment, ExperimentError, RunResult, RunTotals, Strategy};
use olab_gpu::{GpuSku, Precision};
use olab_net::Topology;
use olab_parallel::ExecutionMode;
use olab_sim::GpuId;

/// The outcome of running the experiment-level relations for one seed.
#[derive(Debug, Clone)]
pub struct RelationOutcome {
    /// The seed the cell came from.
    pub seed: u64,
    /// False when the base cell was infeasible (out of memory — the
    /// paper's missing bars); such seeds are skipped, not failed.
    pub feasible: bool,
    /// Human-readable descriptions of every relation that broke.
    pub failures: Vec<String>,
}

impl RelationOutcome {
    fn infeasible(seed: u64) -> Self {
        RelationOutcome {
            seed,
            feasible: false,
            failures: Vec::new(),
        }
    }
}

/// Relations R1 and R2 over one random collective. Cheap (no simulation);
/// returns the failures, empty when all hold.
pub fn check_collective_relations(seed: u64) -> Vec<String> {
    let mut g = Gen::new(seed ^ 0x5851_f42d_4c95_7f2d);
    let mut failures = Vec::new();

    let n = 2 + g.below(7) as usize; // 2..=8 ranks
    let bytes = 1u64 << (10 + g.below(16)); // 1 KiB .. 32 MiB
    let kind = *g.pick(&[
        CollectiveKind::AllReduce,
        CollectiveKind::AllGather,
        CollectiveKind::ReduceScatter,
        CollectiveKind::Broadcast,
        CollectiveKind::AllToAll,
    ]);
    let group: Vec<GpuId> = (0..n as u16).map(GpuId).collect();
    let coll = Collective::new(kind, bytes, group);
    let algo = Algorithm::auto(kind, bytes, n);
    let sku = GpuSku::h100();
    let bw_gbs = 100.0 + g.unit() * 400.0;
    let lat_us = 1.0 + g.unit() * 9.0;

    // R1: doubling link bandwidth never increases collective time.
    let slow = lower(
        &coll,
        algo,
        &sku,
        &Topology::nvswitch(n, bw_gbs, lat_us),
        Precision::Fp16,
    );
    let fast = lower(
        &coll,
        algo,
        &sku,
        &Topology::nvswitch(n, 2.0 * bw_gbs, lat_us),
        Precision::Fp16,
    );
    let tol = Tolerance::TIGHT.allowance(slow.isolated_duration_s());
    if fast.isolated_duration_s() > slow.isolated_duration_s() + tol {
        failures.push(format!(
            "seed {seed}: R1 broken for {coll}: doubling {bw_gbs:.0} GB/s links \
             raised isolated time {:.6e} -> {:.6e}",
            slow.isolated_duration_s(),
            fast.isolated_duration_s()
        ));
    }

    // R2: adding a GPU never shrinks all-reduce bytes per rank.
    let at = |ranks: usize| {
        olab_ccl::wire_bytes_per_rank(CollectiveKind::AllReduce, Algorithm::Ring, bytes, ranks)
    };
    let independent = |ranks: f64| 2.0 * bytes as f64 * (ranks - 1.0) / ranks;
    for ranks in 2..=8usize {
        if at(ranks + 1) + 1e-9 < at(ranks) {
            failures.push(format!(
                "seed {seed}: R2 broken: all-reduce wire bytes shrank going \
                 {ranks} -> {} ranks ({} -> {})",
                ranks + 1,
                at(ranks),
                at(ranks + 1)
            ));
        }
        if (at(ranks) - independent(ranks as f64)).abs() > 1e-6 {
            failures.push(format!(
                "seed {seed}: R2 oracle mismatch at {ranks} ranks: {} vs 2S(n-1)/n = {}",
                at(ranks),
                independent(ranks as f64)
            ));
        }
    }
    failures
}

/// Runs only the overlapped timeline of a cell (the quantity every
/// experiment-level relation compares), skipping the sequential and ideal
/// runs a full [`Experiment::run`] would also pay for.
fn overlapped_run(exp: &Experiment) -> Result<RunResult, ExperimentError> {
    let policy = exp.validate()?;
    let workload = exp.timeline(ExecutionMode::Overlapped, policy)?;
    Ok(execute(&workload, &exp.machine())?)
}

fn compute_share(run: &RunResult) -> f64 {
    let total = run.compute_s() + run.comm_s();
    if total > 0.0 {
        run.compute_s() / total
    } else {
        0.0
    }
}

/// Relations R3 and R4 over one random grid cell. Each feasible seed
/// costs three to four small simulations.
pub fn check_experiment_relations(seed: u64) -> RelationOutcome {
    let exp = random_experiment(seed);
    let base = match overlapped_run(&exp) {
        Ok(run) => run,
        Err(_) => return RelationOutcome::infeasible(seed),
    };
    let mut failures = Vec::new();
    let tol = Tolerance::LOOSE; // DVFS epochs quantize the governor's response

    // R3: raising a power cap never increases the makespan. The chain is
    // 60% TDP -> 90% TDP -> uncapped.
    let tdp = exp.sku.sku().tdp_w;
    let capped_60 = overlapped_run(&exp.clone().with_power_cap(0.6 * tdp));
    let capped_90 = overlapped_run(&exp.clone().with_power_cap(0.9 * tdp));
    match (capped_60, capped_90) {
        (Ok(lo), Ok(hi)) => {
            if hi.e2e_s > lo.e2e_s + tol.allowance(lo.e2e_s) {
                failures.push(format!(
                    "seed {seed}: R3 broken for {}: raising the cap 60% -> 90% TDP \
                     slowed e2e {:.6e} -> {:.6e}",
                    exp.label(),
                    lo.e2e_s,
                    hi.e2e_s
                ));
            }
            if base.e2e_s > hi.e2e_s + tol.allowance(hi.e2e_s) {
                failures.push(format!(
                    "seed {seed}: R3 broken for {}: removing the 90% TDP cap \
                     slowed e2e {:.6e} -> {:.6e}",
                    exp.label(),
                    hi.e2e_s,
                    base.e2e_s
                ));
            }
        }
        _ => failures.push(format!(
            "seed {seed}: R3 could not run: capping a feasible cell made it fail"
        )),
    }

    // R4 (FSDP only): doubling seq never lowers the compute share.
    // (The end-to-end time itself is NOT monotone in seq: extra compute
    // realigns rendezvous and contention windows and can shave a percent
    // or two off e2e, so only the share — the paper's trend axis — is a
    // sound relation.)
    if matches!(exp.strategy, Strategy::Fsdp) {
        match overlapped_run(&exp.clone().with_seq(exp.seq * 2)) {
            Ok(doubled) => {
                if compute_share(&doubled) + tol.rel < compute_share(&base) {
                    failures.push(format!(
                        "seed {seed}: R4 broken for {}: doubling seq {} -> {} dropped \
                         the compute share {:.4} -> {:.4}",
                        exp.label(),
                        exp.seq,
                        exp.seq * 2,
                        compute_share(&base),
                        compute_share(&doubled)
                    ));
                }
            }
            Err(ExperimentError::OutOfMemory { .. }) => {} // longer seq can OOM; skip
            Err(e) => failures.push(format!("seed {seed}: R4 run failed: {e}")),
        }
    }

    RelationOutcome {
        seed,
        feasible: true,
        failures,
    }
}

/// Fault relations F1 and F2 for one seeded cell.
///
/// * **F1** — the fault-free run lower-bounds the makespan of the same
///   cell under *any* fault scenario: injected stalls, throttles and
///   degradations can only add time. Checked at every severity of the
///   seed's scenario.
/// * **F2** — widening a throttle window never decreases the makespan
///   (more of the run spent at a lower clock can only slow it down).
///
/// Scenario seeds that abort (a dead link with no surviving path on a
/// 2-GPU ring) have no final makespan to compare and are skipped for F1,
/// exactly as out-of-memory cells are skipped elsewhere.
pub fn check_fault_relations(seed: u64) -> RelationOutcome {
    use olab_core::execute_model;
    use olab_faults::{
        run_under_faults, FaultScenarioSpec, FaultTimeline, FaultyMachine, Severity,
    };
    use olab_sim::NullObserver;

    let exp = random_experiment(seed);
    let base = match overlapped_run(&exp) {
        Ok(run) => run,
        Err(_) => return RelationOutcome::infeasible(seed),
    };
    let mut failures = Vec::new();
    let tol = Tolerance::LOOSE;

    // F1: fault-free lower-bounds every severity of the seed's scenario.
    for severity in Severity::ALL {
        let spec = FaultScenarioSpec::degrade(seed, severity);
        match run_under_faults(&exp, &spec, &mut NullObserver) {
            Ok(run) if run.abort.is_some() => {} // no surviving path: no makespan to bound
            Ok(run) => {
                let m = run.metrics();
                if m.faulty_e2e_s + tol.allowance(m.fault_free_e2e_s) < m.fault_free_e2e_s {
                    failures.push(format!(
                        "seed {seed}: F1 broken for {} at {severity}: faults sped the \
                         run up {:.6e} -> {:.6e}",
                        exp.label(),
                        m.fault_free_e2e_s,
                        m.faulty_e2e_s
                    ));
                }
            }
            Err(e) => {
                failures.push(format!(
                    "seed {seed}: F1 could not run: a feasible cell failed under faults: {e}"
                ));
            }
        }
    }

    // F2: widening every throttle window never decreases the makespan.
    // Mild scenarios carry no outages, so the comparison isolates the
    // throttle axis.
    let spec = FaultScenarioSpec::degrade(seed, Severity::Mild);
    let narrow_tl = FaultTimeline::generate(&spec, exp.n_gpus, base.e2e_s);
    let workload = exp
        .validate()
        .and_then(|policy| exp.timeline(ExecutionMode::Overlapped, policy));
    match workload {
        Ok(workload) => {
            let machine = exp.machine();
            let mut wide_tl = narrow_tl.clone();
            for w in &mut wide_tl.throttles {
                w.start_s = (w.start_s - 0.10 * base.e2e_s).max(0.0);
                w.end_s += 0.20 * base.e2e_s;
            }
            let narrow = execute_model(
                &workload,
                FaultyMachine::new(machine.clone(), narrow_tl),
                &mut NullObserver,
            );
            let wide = execute_model(
                &workload,
                FaultyMachine::new(machine, wide_tl),
                &mut NullObserver,
            );
            match (narrow, wide) {
                (Ok(n), Ok(w)) => {
                    if w.e2e_s + tol.allowance(n.e2e_s) < n.e2e_s {
                        failures.push(format!(
                            "seed {seed}: F2 broken for {}: widening the throttle windows \
                             sped the run up {:.6e} -> {:.6e}",
                            exp.label(),
                            n.e2e_s,
                            w.e2e_s
                        ));
                    }
                }
                _ => failures.push(format!(
                    "seed {seed}: F2 could not run: fault injection broke the engine"
                )),
            }
        }
        Err(e) => failures.push(format!("seed {seed}: F2 could not build the workload: {e}")),
    }

    RelationOutcome {
        seed,
        feasible: true,
        failures,
    }
}

/// The recovery relations R1 and R3 for one `(experiment, scenario)`
/// pair, appended to `failures`. Used both by the seeded smoke
/// ([`check_resilience_relations`]) and by the conformance gate's
/// registry-grid pass ([`check_resilience_grid_cell`]).
fn resilience_r1_r3(
    exp: &Experiment,
    spec: &olab_faults::FaultScenarioSpec,
    seed: u64,
    failures: &mut Vec<String>,
) {
    use olab_resilience::{run_with_recovery, RecoveryError, RecoveryPolicy};

    let tol = Tolerance::LOOSE;
    let policies = [
        RecoveryPolicy::FailFast,
        RecoveryPolicy::CheckpointRestart { interval_s: None },
        RecoveryPolicy::ElasticContinue,
    ];
    for policy in policies {
        match run_with_recovery(exp, spec, policy) {
            Ok(r) if r.metrics.completed => {
                let m = &r.metrics;
                // R1: a healthy machine lower-bounds any completed
                // recovery — restarts re-execute work, shrinks finish on
                // fewer GPUs; neither can beat the fault-free makespan.
                if m.wall_s + tol.allowance(m.fault_free_e2e_s) < m.fault_free_e2e_s {
                    failures.push(format!(
                        "seed {seed}: resilience R1 broken for {} under {policy}: \
                         recovered wall {:.6e} beat the fault-free makespan {:.6e}",
                        exp.label(),
                        m.wall_s,
                        m.fault_free_e2e_s
                    ));
                }
                // R3: an elastic shrink conserves durable state byte for
                // byte — piggybacks on the elastic run R1 already paid for.
                if let Some(rs) = &r.reshard {
                    let drift = (rs.bytes_before - rs.bytes_after).abs() / rs.bytes_before.max(1.0);
                    if drift > 1e-6 {
                        failures.push(format!(
                            "seed {seed}: resilience R3 broken for {}: the full world held \
                             {:.6e} state bytes but the survivors hold {:.6e}",
                            exp.label(),
                            rs.bytes_before,
                            rs.bytes_after
                        ));
                    }
                }
            }
            Ok(_) => {} // a fail-fast death has no completion to bound
            Err(RecoveryError::ShrinkInfeasible { .. }) => {} // pinned world size: skip
            Err(RecoveryError::Experiment(e)) => failures.push(format!(
                "seed {seed}: resilience R1 could not run: a feasible cell failed under \
                 recovery: {e}"
            )),
        }
    }
}

/// Resilience relations R1–R3 for one seeded random cell.
///
/// * **R1** — the fault-free makespan lower-bounds the wall-clock of any
///   *completed* recovered run (checked under a killing scenario and a
///   mild one, for all three policies).
/// * **R2** — under a scenario with no unrecoverable fault, checkpointing
///   is pure overhead: goodput is monotone non-increasing as the explicit
///   interval shrinks.
/// * **R3** — an elastic shrink conserves durable state: bytes re-sharded
///   onto the survivors equal the bytes the full world held.
pub fn check_resilience_relations(seed: u64) -> RelationOutcome {
    use olab_faults::{FaultScenarioSpec, Severity};
    use olab_resilience::RecoveryPolicy;

    let exp = random_experiment(seed);
    let base = match overlapped_run(&exp) {
        Ok(run) => run,
        Err(_) => return RelationOutcome::infeasible(seed),
    };
    let mut failures = Vec::new();
    let tol = Tolerance::LOOSE;

    // R1 + R3 under a scenario that kills the job and one that does not.
    for spec in [
        FaultScenarioSpec::abort(seed, Severity::Severe),
        FaultScenarioSpec::degrade(seed, Severity::Mild),
    ] {
        resilience_r1_r3(&exp, &spec, seed, &mut failures);
    }

    // R2: shrinking an explicit checkpoint interval under a fault-free
    // scenario never raises goodput (floor plateaus allow equality).
    let spec = FaultScenarioSpec::degrade(seed, Severity::Mild);
    let mut prev: Option<(f64, f64)> = None;
    for divisor in [2.0, 4.0, 8.0] {
        let interval = base.e2e_s / divisor;
        match olab_resilience::run_with_recovery(
            &exp,
            &spec,
            RecoveryPolicy::CheckpointRestart {
                interval_s: Some(interval),
            },
        ) {
            Ok(r) => {
                let goodput = r.metrics.goodput_samples_per_s;
                if let Some((prev_interval, prev_goodput)) = prev {
                    if goodput > prev_goodput * (1.0 + tol.rel) {
                        failures.push(format!(
                            "seed {seed}: resilience R2 broken for {}: shrinking the \
                             checkpoint interval {prev_interval:.6e} -> {interval:.6e} \
                             raised goodput {prev_goodput:.6e} -> {goodput:.6e}",
                            exp.label()
                        ));
                    }
                }
                prev = Some((interval, goodput));
            }
            Err(e) => failures.push(format!("seed {seed}: resilience R2 could not run: {e}")),
        }
    }

    RelationOutcome {
        seed,
        feasible: true,
        failures,
    }
}

/// Resilience relations R1 and R3 for one *registry* cell under its
/// killing scenario — the conformance gate fans this over every grid cell
/// so the recovery layer is held to the same standard as the simulator.
pub fn check_resilience_grid_cell(exp: &Experiment, seed: u64) -> RelationOutcome {
    use olab_faults::{FaultScenarioSpec, Severity};

    if overlapped_run(exp).is_err() {
        return RelationOutcome::infeasible(seed);
    }
    let mut failures = Vec::new();
    resilience_r1_r3(
        exp,
        &FaultScenarioSpec::abort(seed, Severity::Severe),
        seed,
        &mut failures,
    );
    RelationOutcome {
        seed,
        feasible: true,
        failures,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn collective_relations_hold_on_a_spot_check() {
        for seed in 0..25 {
            let failures = check_collective_relations(seed);
            assert!(failures.is_empty(), "{}", failures.join("\n"));
        }
    }

    #[test]
    fn experiment_relations_hold_on_a_spot_check() {
        let mut feasible = 0;
        for seed in 0..6 {
            let outcome = check_experiment_relations(seed);
            if outcome.feasible {
                feasible += 1;
            }
            assert!(
                outcome.failures.is_empty(),
                "{}",
                outcome.failures.join("\n")
            );
        }
        assert!(feasible >= 2, "only {feasible}/6 seeds feasible");
    }

    #[test]
    fn fault_relations_hold_on_a_spot_check() {
        let mut feasible = 0;
        for seed in 0..6 {
            let outcome = check_fault_relations(seed);
            if outcome.feasible {
                feasible += 1;
            }
            assert!(
                outcome.failures.is_empty(),
                "{}",
                outcome.failures.join("\n")
            );
        }
        assert!(feasible >= 2, "only {feasible}/6 seeds feasible");
    }

    #[test]
    fn resilience_relations_hold_on_a_spot_check() {
        let mut feasible = 0;
        for seed in 0..4 {
            let outcome = check_resilience_relations(seed);
            if outcome.feasible {
                feasible += 1;
            }
            assert!(
                outcome.failures.is_empty(),
                "{}",
                outcome.failures.join("\n")
            );
        }
        assert!(feasible >= 2, "only {feasible}/4 seeds feasible");
    }

    #[test]
    fn resilience_grid_relations_hold_on_a_registry_cell() {
        let cells = olab_core::registry::fig1a();
        let exp = cells.first().expect("registry has cells");
        let outcome = check_resilience_grid_cell(exp, 3);
        assert!(outcome.feasible, "registry cells must be feasible");
        assert!(
            outcome.failures.is_empty(),
            "{}",
            outcome.failures.join("\n")
        );
    }

    #[test]
    fn infeasible_seeds_are_skips_not_failures() {
        // Whatever the seed mix, an infeasible outcome must carry no
        // failures so suites can filter on `feasible` alone.
        for seed in 0..30 {
            let outcome = check_experiment_relations(seed);
            if !outcome.feasible {
                assert!(outcome.failures.is_empty());
            }
        }
    }
}
