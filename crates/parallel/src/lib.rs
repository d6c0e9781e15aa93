//! # olab-parallel — distributed-training schedules
//!
//! Lowers one training iteration of a transformer onto a multi-GPU node as a
//! task DAG ([`olab_sim::Workload`]) ready for simulation:
//!
//! * [`fsdp::fsdp_timeline`] — Fully-Sharded Data Parallelism (ZeRO-3
//!   style): per-layer all-gathers with one-layer prefetch in the forward
//!   pass, re-gather + reduce-scatter with prefetch in the backward pass,
//!   then a sharded Adam step (the paper's Fig. 3(a));
//! * [`pipeline::pipeline_timeline`] — GPipe-style pipeline parallelism:
//!   layers split into stages, microbatches flowing through send/recv
//!   point-to-point transfers that overlap with the compute of neighbouring
//!   microbatches (Fig. 3(b));
//! * [`ExecutionMode`] — `Overlapped` builds the natural schedule;
//!   `Sequential` serializes communication against computation on every
//!   GPU, which is the paper's non-overlapping baseline.
//!
//! ```rust
//! use olab_gpu::{Datapath, GpuSku, Precision};
//! use olab_models::{memory::ActivationPolicy, ModelPreset};
//! use olab_net::Topology;
//! use olab_parallel::{fsdp::FsdpPlan, ExecutionMode};
//!
//! let sku = GpuSku::h100();
//! let topo = Topology::nvswitch(4, sku.link_bw_unidir_gbs, sku.link_latency_us);
//! let plan = FsdpPlan {
//!     model: ModelPreset::Gpt3Xl.config(),
//!     ranks: 4,
//!     batch_per_rank: 8,
//!     seq: 1024,
//!     precision: Precision::Fp16,
//!     datapath: Datapath::TensorCore,
//!     activation_policy: ActivationPolicy::Full,
//!     grad_accum_steps: 1,
//!     overlap: Default::default(),
//! };
//! let timeline = olab_parallel::fsdp::fsdp_timeline(&plan, &sku, &topo, ExecutionMode::Overlapped);
//! assert!(timeline.len() > 100, "a real iteration has hundreds of tasks");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod builder;
pub mod fsdp;
mod mode;
pub mod moe;
mod op;
pub mod pipeline;
pub mod tensor;

pub use builder::{recycle, ScheduleBuilder};
pub use mode::ExecutionMode;
pub use op::{ComputeOp, Op};
