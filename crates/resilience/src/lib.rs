//! # olab-resilience — recovery policies over the fault layer
//!
//! The fault layer (`olab-faults`) decides *what breaks*; this crate
//! decides *what the job does about it*. Three policies, all pure
//! functions of `(experiment, scenario, policy)`:
//!
//! * [`RecoveryPolicy::FailFast`] — the first unrecoverable fault kills
//!   the job; all work is lost and goodput is zero (NCCL's default).
//! * [`RecoveryPolicy::CheckpointRestart`] — periodic checkpoints drain
//!   model + optimizer state to host over the PCIe link; on failure the
//!   job restarts from the last checkpoint, paying restore + re-init +
//!   warmup and re-executing the lost slice. The auto interval is the
//!   Young/Daly optimum `sqrt(2 · δ · MTBF)`.
//! * [`RecoveryPolicy::ElasticContinue`] — the dead rank is evicted, its
//!   state re-sharded onto the survivors via real collective traffic
//!   (priced through `olab-ccl`), every collective re-lowered onto the
//!   shrunken world, and the job finishes at world size N−1.
//!
//! The headline metric is **goodput** — committed samples per wall-clock
//! second — which cleanly separates the policies: a killed fail-fast job
//! has goodput zero no matter how fast it was running, checkpointing
//! trades steady-state overhead for bounded lost work, and elastic trades
//! nothing lost for a permanently slower tail.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cell;
mod checkpoint;
mod policy;
mod recover;

pub use cell::{policy_grid, CachedRecoveryCell, ResilienceCell};
pub use checkpoint::{
    mtbf_s, state_bytes_per_gpu, CheckpointModel, CHECKPOINT_BARRIER_S, CHECKPOINT_POWER_FRACTION,
    RESTART_WARMUP_FRACTION,
};
pub use policy::{RecoveryPolicy, RECOVERY_SCHEMA_VERSION};
pub use recover::{
    recover, run_with_recovery, RecoveryError, RecoveryMetrics, RecoveryReport, ReshardSummary,
};
