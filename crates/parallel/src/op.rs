//! Task payloads: what runs inside each simulated task.

use olab_ccl::CommOp;
use olab_gpu::{Datapath, KernelKind, Precision};
use std::fmt;

/// A compute kernel launch with its numeric configuration.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ComputeOp {
    /// The kernel.
    pub kernel: KernelKind,
    /// Element precision.
    pub precision: Precision,
    /// Requested datapath (matrix kernels only; others run on vector).
    pub datapath: Datapath,
}

impl ComputeOp {
    /// Creates a compute op.
    pub fn new(kernel: KernelKind, precision: Precision, datapath: Datapath) -> Self {
        ComputeOp {
            kernel,
            precision,
            datapath,
        }
    }
}

impl fmt::Display for ComputeOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} @{}/{}", self.kernel, self.precision, self.datapath)
    }
}

/// The payload of one simulated task.
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    /// A compute kernel on one GPU.
    Compute(ComputeOp),
    /// A (possibly multi-GPU) communication operation.
    Comm(CommOp),
}

impl Op {
    /// The compute op, if this is one.
    pub fn as_compute(&self) -> Option<&ComputeOp> {
        match self {
            Op::Compute(c) => Some(c),
            Op::Comm(_) => None,
        }
    }

    /// The comm op, if this is one.
    pub fn as_comm(&self) -> Option<&CommOp> {
        match self {
            Op::Comm(c) => Some(c),
            Op::Compute(_) => None,
        }
    }
}

impl fmt::Display for Op {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Op::Compute(c) => write!(f, "{c}"),
            Op::Comm(c) => write!(f, "{c}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accessors_discriminate_variants() {
        let c = Op::Compute(ComputeOp::new(
            KernelKind::gemm(2, 2, 2),
            Precision::Fp16,
            Datapath::TensorCore,
        ));
        assert!(c.as_compute().is_some());
        assert!(c.as_comm().is_none());
    }

    /// Each thread keeps the storage of the largest schedule it lowered
    /// (see [`crate::recycle`]), thousands of tasks, so a task must not
    /// grow: its participant and dependency lists are inline, no larger
    /// than the `Vec`s they replaced, and it names its payload by a
    /// 4-byte id instead of holding an `Op`.
    #[test]
    fn a_task_spec_fits_in_96_bytes() {
        assert!(std::mem::size_of::<olab_sim::TaskSpec<Op>>() <= 96);
    }

    #[test]
    fn display_mentions_precision() {
        let c = ComputeOp::new(KernelKind::gemm(2, 2, 2), Precision::Fp16, Datapath::Vector);
        assert!(c.to_string().contains("FP16"));
    }
}
