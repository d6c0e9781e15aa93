//! Identifier newtypes used across the simulation.

use std::fmt;

/// Identifies a GPU (device) in the simulated node.
///
/// Device indices are dense: a system with `n` GPUs uses ids `0..n`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct GpuId(pub u16);

impl GpuId {
    /// The id as a `usize` index, for indexing per-device arrays.
    pub fn index(self) -> usize {
        usize::from(self.0)
    }
}

impl fmt::Display for GpuId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "gpu{}", self.0)
    }
}

impl From<u16> for GpuId {
    fn from(v: u16) -> Self {
        GpuId(v)
    }
}

/// Identifies a task within a [`Workload`](crate::Workload).
///
/// Ids are handed out sequentially by [`Workload::push`](crate::Workload::push).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TaskId(pub u32);

impl TaskId {
    /// The id as a `usize` index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for TaskId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "task{}", self.0)
    }
}

/// Identifies a payload in a [`Workload`](crate::Workload)'s payload table.
///
/// Ids are handed out sequentially by
/// [`Workload::intern`](crate::Workload::intern), once per distinct value:
/// every task running the same kernel shape or collective carries the same
/// id, so a rate model can key what it memoizes on the id alone.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PayloadId(pub u32);

impl PayloadId {
    /// The id as a `usize` index into [`Workload::payloads`](crate::Workload::payloads).
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// The two in-order execution queues of a device, mirroring the way
/// distributed-training frameworks dedicate one CUDA/HIP stream to compute
/// kernels and one to communication (NCCL/RCCL) kernels.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum StreamKind {
    /// The compute stream (GEMMs, attention, normalization, optimizer, ...).
    Compute,
    /// The communication stream (collectives, point-to-point transfers).
    Comm,
}

impl StreamKind {
    /// All stream kinds, in index order.
    pub const ALL: [StreamKind; 2] = [StreamKind::Compute, StreamKind::Comm];

    /// Dense index of the stream kind (compute = 0, comm = 1).
    pub fn index(self) -> usize {
        match self {
            StreamKind::Compute => 0,
            StreamKind::Comm => 1,
        }
    }

    /// The other stream on the same device.
    pub fn other(self) -> StreamKind {
        match self {
            StreamKind::Compute => StreamKind::Comm,
            StreamKind::Comm => StreamKind::Compute,
        }
    }
}

impl fmt::Display for StreamKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StreamKind::Compute => write!(f, "compute"),
            StreamKind::Comm => write!(f, "comm"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gpu_id_round_trips_through_index() {
        assert_eq!(GpuId::from(3).index(), 3);
        assert_eq!(format!("{}", GpuId(7)), "gpu7");
    }

    #[test]
    fn stream_other_is_involutive() {
        for kind in StreamKind::ALL {
            assert_eq!(kind.other().other(), kind);
            assert_ne!(kind.other(), kind);
        }
    }

    #[test]
    fn stream_indices_are_dense() {
        assert_eq!(StreamKind::Compute.index(), 0);
        assert_eq!(StreamKind::Comm.index(), 1);
    }
}
