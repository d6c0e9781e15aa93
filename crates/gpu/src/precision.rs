//! Numeric precisions and execution datapaths.

use std::fmt;

/// Numeric format used by compute kernels.
///
/// The paper's Section V-C studies FP32 vs. FP16 (Figure 10) and the TF32
/// tensor-core path (Figure 11). BF16 is included for completeness — the
/// related-work section discusses it — and behaves like FP16 in the
/// performance model (same width, same tensor-core throughput class).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Precision {
    /// IEEE 754 single precision.
    Fp32,
    /// NVIDIA TensorFloat-32: FP32 range, 10-bit mantissa, tensor-core only.
    Tf32,
    /// IEEE 754 half precision.
    Fp16,
    /// bfloat16.
    Bf16,
}

impl Precision {
    /// All precisions, in declaration order.
    pub const ALL: [Precision; 4] = [
        Precision::Fp32,
        Precision::Tf32,
        Precision::Fp16,
        Precision::Bf16,
    ];

    /// Storage width of one element in bytes.
    ///
    /// TF32 is a compute format: tensors are stored as FP32 (4 bytes) and
    /// rounded inside the tensor core.
    pub fn bytes(self) -> u64 {
        match self {
            Precision::Fp32 | Precision::Tf32 => 4,
            Precision::Fp16 | Precision::Bf16 => 2,
        }
    }

    /// Whether this format only exists on the tensor/matrix-core datapath.
    pub fn requires_tensor_core(self) -> bool {
        matches!(self, Precision::Tf32)
    }

    /// Whether this is a 16-bit format.
    pub fn is_half(self) -> bool {
        self.bytes() == 2
    }
}

impl fmt::Display for Precision {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Precision::Fp32 => write!(f, "FP32"),
            Precision::Tf32 => write!(f, "TF32"),
            Precision::Fp16 => write!(f, "FP16"),
            Precision::Bf16 => write!(f, "BF16"),
        }
    }
}

/// Parses the CLI and query spelling (`fp16|bf16|fp32|tf32`, any case).
impl std::str::FromStr for Precision {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        match s.to_ascii_lowercase().as_str() {
            "fp16" => Ok(Precision::Fp16),
            "bf16" => Ok(Precision::Bf16),
            "fp32" => Ok(Precision::Fp32),
            "tf32" => Ok(Precision::Tf32),
            other => Err(format!("unknown precision '{other}'")),
        }
    }
}

/// Which hardware datapath executes matrix math.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Datapath {
    /// General-purpose CUDA/stream cores.
    Vector,
    /// NVIDIA Tensor Cores / AMD Matrix Cores.
    TensorCore,
}

impl Datapath {
    /// All datapaths, in declaration order.
    pub const ALL: [Datapath; 2] = [Datapath::Vector, Datapath::TensorCore];
}

impl fmt::Display for Datapath {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Datapath::Vector => write!(f, "vector"),
            Datapath::TensorCore => write!(f, "tensor-core"),
        }
    }
}

/// Parses the CLI and query spelling (`tensor|tensorcore|vector`, any case).
impl std::str::FromStr for Datapath {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        match s.to_ascii_lowercase().as_str() {
            "tensor" | "tensorcore" => Ok(Datapath::TensorCore),
            "vector" => Ok(Datapath::Vector),
            other => Err(format!("unknown datapath '{other}'")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn widths_match_formats() {
        assert_eq!(Precision::Fp32.bytes(), 4);
        assert_eq!(Precision::Tf32.bytes(), 4, "TF32 stores as FP32");
        assert_eq!(Precision::Fp16.bytes(), 2);
        assert_eq!(Precision::Bf16.bytes(), 2);
    }

    #[test]
    fn tf32_is_tensor_core_only() {
        assert!(Precision::Tf32.requires_tensor_core());
        assert!(!Precision::Fp32.requires_tensor_core());
        assert!(!Precision::Fp16.requires_tensor_core());
    }

    #[test]
    fn half_formats_are_classified() {
        assert!(Precision::Fp16.is_half());
        assert!(Precision::Bf16.is_half());
        assert!(!Precision::Fp32.is_half());
    }

    #[test]
    fn display_is_uppercase_format_names() {
        assert_eq!(Precision::Tf32.to_string(), "TF32");
        assert_eq!(Datapath::TensorCore.to_string(), "tensor-core");
    }
}
