//! Seeded, shrinkable random generators.
//!
//! Everything here runs from plain `#[test]`s: randomness comes from the
//! workspace's dependency-free [`SeededRng`], and shrinking is hand-rolled
//! (smallest failing prefix for workload DAGs, greedy minimization for
//! experiments) rather than delegated to the feature-gated `proptest`.

use olab_core::{Experiment, Strategy};
use olab_gpu::SkuKind;
use olab_models::ModelPreset;
use olab_sim::{GpuId, Label, SeededRng, TaskSpec, Workload};

/// A small facade over [`SeededRng`] with the draws generators need.
#[derive(Debug)]
pub struct Gen {
    rng: SeededRng,
}

impl Gen {
    /// A generator with a fixed seed (same seed, same stream).
    pub fn new(seed: u64) -> Self {
        Gen {
            rng: SeededRng::seed_from_u64(seed),
        }
    }

    /// Uniform integer in `[0, n)` (`0` when `n == 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        if n == 0 {
            0
        } else {
            self.rng.next_u64() % n
        }
    }

    /// Uniform float in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        self.rng.next_f64()
    }

    /// True with probability `p`.
    pub fn chance(&mut self, p: f64) -> bool {
        self.rng.next_f64() < p
    }

    /// Uniform pick from a non-empty slice.
    ///
    /// # Panics
    ///
    /// Panics if `items` is empty.
    pub fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        assert!(!items.is_empty(), "pick from empty slice");
        &items[self.below(items.len() as u64) as usize]
    }

    /// A uniformly random permutation of `0..n` (Fisher–Yates).
    pub fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut perm: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            let j = self.below(i as u64 + 1) as usize;
            perm.swap(i, j);
        }
        perm
    }
}

/// One planned task in a [`WorkloadPlan`].
///
/// `deps` are indices into the plan's task list and always point backward,
/// so every prefix of a plan is itself a valid (deadlock-free) plan — the
/// property the shrinker relies on.
#[derive(Debug, Clone)]
pub struct PlannedTask {
    /// Display label, `t{index}`.
    pub label: Label,
    /// Owning GPUs: one for compute/local comm, two or more for collectives.
    pub participants: Vec<GpuId>,
    /// True for comm-stream tasks (local copies and collectives).
    pub comm: bool,
    /// Backward dependencies (indices of earlier tasks).
    pub deps: Vec<usize>,
}

/// A shrinkable blueprint for a random DAG over compute, local-comm, and
/// collective tasks. Build the actual [`Workload`] with
/// [`WorkloadPlan::build`].
#[derive(Debug, Clone)]
pub struct WorkloadPlan {
    /// Number of GPUs the workload spans.
    pub n_gpus: usize,
    /// Planned tasks in push order.
    pub tasks: Vec<PlannedTask>,
}

impl WorkloadPlan {
    /// Materializes the plan into an engine-ready workload.
    pub fn build(&self) -> Workload<()> {
        let mut w = Workload::new(self.n_gpus);
        let unit = w.intern(());
        let mut ids = Vec::with_capacity(self.tasks.len());
        for task in &self.tasks {
            let spec = if task.participants.len() > 1 {
                TaskSpec::collective(task.label.clone(), task.participants.clone(), unit)
            } else if task.comm {
                TaskSpec::comm(task.label.clone(), task.participants[0], unit)
            } else {
                TaskSpec::compute(task.label.clone(), task.participants[0], unit)
            };
            let spec = spec.after_all(task.deps.iter().map(|&d| ids[d]));
            ids.push(w.push(spec));
        }
        w
    }

    /// The plan truncated to its first `k` tasks (valid because deps point
    /// backward).
    pub fn prefix(&self, k: usize) -> WorkloadPlan {
        WorkloadPlan {
            n_gpus: self.n_gpus,
            tasks: self.tasks[..k.min(self.tasks.len())].to_vec(),
        }
    }
}

/// Generates a random workload plan: 1–4 GPUs, 1–24 tasks mixing compute
/// (~50%), local comm (~25%), and multi-GPU collectives (~25%, only when
/// the node has at least two GPUs), with up to 3 backward dependencies per
/// task. The DAG can never deadlock: dependencies always point at earlier
/// pushes, so queue order is consistent with dependency order.
pub fn random_plan(seed: u64) -> WorkloadPlan {
    let mut g = Gen::new(seed);
    let n_gpus = 1 + g.below(4) as usize;
    let n_tasks = 1 + g.below(24) as usize;
    let mut tasks = Vec::with_capacity(n_tasks);
    for i in 0..n_tasks {
        let roll = g.unit();
        let (participants, comm) = if n_gpus >= 2 && roll < 0.25 {
            // Collective over a random subset of 2..=n_gpus ranks.
            let k = 2 + g.below(n_gpus as u64 - 1) as usize;
            let perm = g.permutation(n_gpus);
            let group: Vec<GpuId> = perm[..k].iter().map(|&p| GpuId(p as u16)).collect();
            (group, true)
        } else if roll < 0.5 {
            (vec![GpuId(g.below(n_gpus as u64) as u16)], true)
        } else {
            (vec![GpuId(g.below(n_gpus as u64) as u16)], false)
        };
        let mut deps = Vec::new();
        if i > 0 {
            for _ in 0..g.below(4) {
                let d = g.below(i as u64) as usize;
                if !deps.contains(&d) {
                    deps.push(d);
                }
            }
        }
        tasks.push(PlannedTask {
            label: Label::new("t{}").with(i),
            participants,
            comm,
            deps,
        });
    }
    WorkloadPlan { n_gpus, tasks }
}

/// Shrinks a failing plan to the smallest failing prefix: the first `k`
/// such that `fails(plan.prefix(k))`, or the full plan if no proper prefix
/// reproduces the failure.
pub fn shrink_plan(plan: &WorkloadPlan, fails: impl Fn(&WorkloadPlan) -> bool) -> WorkloadPlan {
    for k in 1..=plan.tasks.len() {
        let candidate = plan.prefix(k);
        if fails(&candidate) {
            return candidate;
        }
    }
    plan.clone()
}

/// Generates a random grid cell: SKU × small model × {2,4} GPUs ×
/// strategy × batch × short sequence. Cells are kept small enough that a
/// full [`Experiment::run`] stays in the tens of milliseconds; some cells
/// are legitimately infeasible (out of memory — the paper's missing bars)
/// and callers should treat `Err(OutOfMemory)` as a skip, not a failure.
pub fn random_experiment(seed: u64) -> Experiment {
    let mut g = Gen::new(seed ^ 0x9e37_79b9_7f4a_7c15);
    let sku = *g.pick(&SkuKind::ALL);
    let model = *g.pick(&[ModelPreset::Gpt3Xl, ModelPreset::Gpt3_2_7B]);
    let n_gpus = *g.pick(&[2usize, 4]);
    let batch = *g.pick(&[2u64, 4, 8]);
    let strategy = match g.below(3) {
        0 => Strategy::Fsdp,
        1 => Strategy::TensorParallel,
        _ => {
            // A power-of-two divisor of the (power-of-two) batch.
            let max_pow = batch.trailing_zeros() as u64 + 1;
            let microbatch_size = 1u64 << g.below(max_pow);
            Strategy::Pipeline { microbatch_size }
        }
    };
    let seq = *g.pick(&[64u64, 128]);
    Experiment::new(sku, n_gpus, model, strategy, batch).with_seq(seq)
}

/// Greedily minimizes a failing experiment: repeatedly tries halving the
/// batch and sequence length, dropping GPUs, and swapping in the smallest
/// model, keeping any change that still fails. Returns a (locally) minimal
/// failing cell.
pub fn shrink_experiment(exp: &Experiment, fails: impl Fn(&Experiment) -> bool) -> Experiment {
    let mut current = exp.clone();
    loop {
        let mut candidates: Vec<Experiment> = Vec::new();
        if current.batch > 1 {
            let mut c = current.clone();
            c.batch /= 2;
            if let Strategy::Pipeline { microbatch_size } = &mut c.strategy {
                *microbatch_size = (*microbatch_size).min(c.batch);
            }
            candidates.push(c);
        }
        if current.seq > 1 {
            candidates.push(current.clone().with_seq(current.seq / 2));
        }
        if current.n_gpus > 2 {
            let mut c = current.clone();
            c.n_gpus /= 2;
            candidates.push(c);
        }
        if current.model != ModelPreset::Gpt3Xl {
            let mut c = current.clone();
            c.model = ModelPreset::Gpt3Xl;
            candidates.push(c);
        }
        match candidates.into_iter().find(|c| fails(c)) {
            Some(smaller) => current = smaller,
            None => return current,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use olab_sim::{verify_trace, ConstantRate, Engine};

    #[test]
    fn same_seed_same_plan() {
        let a = random_plan(42);
        let b = random_plan(42);
        assert_eq!(a.n_gpus, b.n_gpus);
        assert_eq!(a.tasks.len(), b.tasks.len());
        for (x, y) in a.tasks.iter().zip(&b.tasks) {
            assert_eq!(x.participants, y.participants);
            assert_eq!(x.deps, y.deps);
        }
    }

    #[test]
    fn random_plans_build_runnable_deadlock_free_workloads() {
        for seed in 0..60 {
            let plan = random_plan(seed);
            let w = plan.build();
            let trace = Engine::new(ConstantRate::default())
                .run(&w)
                .unwrap_or_else(|e| panic!("seed {seed}: engine rejected workload: {e}"));
            let violations = verify_trace(&w, &trace);
            assert!(violations.is_empty(), "seed {seed}: {:?}", violations);
        }
    }

    #[test]
    fn shrinking_finds_the_smallest_failing_prefix() {
        // Failure: "the plan contains a collective". The shrinker must
        // return the prefix ending at the first collective.
        let has_collective = |p: &WorkloadPlan| p.tasks.iter().any(|t| t.participants.len() > 1);
        let mut shrunk_once = false;
        for seed in 0..200 {
            let plan = random_plan(seed);
            if !has_collective(&plan) {
                continue;
            }
            let minimal = shrink_plan(&plan, has_collective);
            let first = plan
                .tasks
                .iter()
                .position(|t| t.participants.len() > 1)
                .unwrap();
            assert_eq!(minimal.tasks.len(), first + 1, "seed {seed}");
            if minimal.tasks.len() < plan.tasks.len() {
                shrunk_once = true;
            }
        }
        assert!(shrunk_once, "no seed exercised a proper shrink");
    }

    #[test]
    fn random_experiments_are_valid_or_oom() {
        let mut feasible = 0;
        for seed in 0..40 {
            let exp = random_experiment(seed);
            match exp.validate() {
                Ok(_) => feasible += 1,
                Err(olab_core::ExperimentError::OutOfMemory { .. }) => {}
                Err(e) => panic!("seed {seed}: unexpected error: {e}"),
            }
        }
        assert!(feasible >= 20, "only {feasible}/40 feasible");
    }

    #[test]
    fn experiment_shrinker_reaches_a_local_minimum() {
        // Failure: "the cell uses pipeline parallelism" — invariant under
        // every shrink step, so the minimum is batch 1, seq 1, 2 GPUs.
        let is_pp = |e: &Experiment| matches!(e.strategy, Strategy::Pipeline { .. });
        let seed = (0..100)
            .find(|&s| is_pp(&random_experiment(s)))
            .expect("no pipeline cell in 100 seeds");
        let minimal = shrink_experiment(&random_experiment(seed), is_pp);
        assert!(is_pp(&minimal));
        assert_eq!(minimal.batch, 1);
        assert_eq!(minimal.seq, 1);
        assert_eq!(minimal.n_gpus, 2);
        assert_eq!(minimal.model, ModelPreset::Gpt3Xl);
    }
}
