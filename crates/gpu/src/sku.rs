//! GPU SKU datasheets (the paper's Table I, plus simulator parameters).

use crate::{ContentionProfile, Datapath, PowerProfile, Precision};
use std::fmt;

/// GPU vendor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Vendor {
    /// NVIDIA (NVLink/NVSwitch interconnect, NCCL collectives).
    Nvidia,
    /// AMD (Infinity Fabric interconnect, RCCL collectives).
    Amd,
}

impl fmt::Display for Vendor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Vendor::Nvidia => write!(f, "NVIDIA"),
            Vendor::Amd => write!(f, "AMD"),
        }
    }
}

/// The four SKUs evaluated in the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum SkuKind {
    /// NVIDIA A100 SXM 40 GB.
    A100,
    /// NVIDIA H100 SXM 80 GB.
    H100,
    /// AMD Instinct MI210 64 GB.
    Mi210,
    /// AMD Instinct MI250 128 GB.
    Mi250,
}

impl SkuKind {
    /// All evaluated SKUs, in Table I order.
    pub const ALL: [SkuKind; 4] = [SkuKind::A100, SkuKind::H100, SkuKind::Mi210, SkuKind::Mi250];

    /// The full datasheet for this SKU.
    pub fn sku(self) -> GpuSku {
        match self {
            SkuKind::A100 => GpuSku::a100(),
            SkuKind::H100 => GpuSku::h100(),
            SkuKind::Mi210 => GpuSku::mi210(),
            SkuKind::Mi250 => GpuSku::mi250(),
        }
    }
}

impl fmt::Display for SkuKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SkuKind::A100 => write!(f, "A100"),
            SkuKind::H100 => write!(f, "H100"),
            SkuKind::Mi210 => write!(f, "MI210"),
            SkuKind::Mi250 => write!(f, "MI250"),
        }
    }
}

/// Parses the CLI and query spelling (`a100|h100|mi210|mi250`, any case).
impl std::str::FromStr for SkuKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        match s.to_ascii_lowercase().as_str() {
            "a100" => Ok(SkuKind::A100),
            "h100" => Ok(SkuKind::H100),
            "mi210" => Ok(SkuKind::Mi210),
            "mi250" => Ok(SkuKind::Mi250),
            other => Err(format!(
                "unknown sku '{other}' (expected a100|h100|mi210|mi250)"
            )),
        }
    }
}

/// Datasheet and simulator parameters for one GPU SKU.
///
/// Throughput fields are *achievable-dense* peaks (no structured sparsity) —
/// these drive the performance model. The `table1_*` fields carry the numbers
/// exactly as printed in the paper's Table I (which quotes the H100 FP16
/// figure with sparsity) so that the `table1` regenerator matches the paper.
#[derive(Debug, Clone, PartialEq)]
pub struct GpuSku {
    /// SKU identity.
    pub kind: SkuKind,
    /// Marketing name.
    pub name: &'static str,
    /// Vendor.
    pub vendor: Vendor,
    /// Launch year (Table I).
    pub year: u16,
    /// FP32 throughput on the vector datapath, TFLOP/s.
    pub fp32_vector_tflops: f64,
    /// FP16/BF16 throughput on the vector datapath, TFLOP/s.
    pub fp16_vector_tflops: f64,
    /// FP32 throughput on the matrix datapath (AMD only; NVIDIA tensor cores
    /// have no true-FP32 mode, so this equals the vector figure there).
    pub fp32_matrix_tflops: f64,
    /// TF32 throughput on tensor cores, TFLOP/s (NVIDIA; AMD falls back to
    /// FP32 matrix).
    pub tf32_tensor_tflops: f64,
    /// FP16/BF16 throughput on tensor/matrix cores, TFLOP/s (dense).
    pub fp16_tensor_tflops: f64,
    /// HBM capacity in GiB.
    pub mem_gb: u64,
    /// HBM bandwidth, GB/s.
    pub mem_bw_gbs: f64,
    /// Board power limit (TDP), watts.
    pub tdp_w: f64,
    /// Idle draw, watts.
    pub idle_w: f64,
    /// Streaming multiprocessors (NVIDIA) or compute units (AMD).
    pub n_sms: u32,
    /// Per-direction interconnect bandwidth per GPU, GB/s (NVLink/IF).
    pub link_bw_unidir_gbs: f64,
    /// Interconnect hop latency, microseconds.
    pub link_latency_us: f64,
    /// Paper Table I "Peak FLOPS (FP32)" entry, for verbatim reproduction.
    pub table1_fp32: f64,
    /// Paper Table I "Peak FLOPS (FP16)" entry, for verbatim reproduction.
    pub table1_fp16: f64,
}

impl GpuSku {
    /// NVIDIA A100 SXM 40 GB (DGX A100 class node, NVLink3 + NVSwitch).
    pub fn a100() -> Self {
        GpuSku {
            kind: SkuKind::A100,
            name: "A100",
            vendor: Vendor::Nvidia,
            year: 2020,
            fp32_vector_tflops: 19.5,
            fp16_vector_tflops: 78.0,
            fp32_matrix_tflops: 19.5,
            tf32_tensor_tflops: 156.0,
            fp16_tensor_tflops: 312.0,
            mem_gb: 40,
            mem_bw_gbs: 1555.0,
            tdp_w: 400.0,
            idle_w: 55.0,
            n_sms: 108,
            link_bw_unidir_gbs: 300.0,
            link_latency_us: 5.0,
            table1_fp32: 19.5,
            table1_fp16: 312.0,
        }
    }

    /// NVIDIA H100 SXM 80 GB (DGX H100 class node, NVLink4 + NVSwitch).
    pub fn h100() -> Self {
        GpuSku {
            kind: SkuKind::H100,
            name: "H100",
            vendor: Vendor::Nvidia,
            year: 2022,
            fp32_vector_tflops: 66.9,
            fp16_vector_tflops: 133.8,
            fp32_matrix_tflops: 66.9,
            tf32_tensor_tflops: 494.7,
            fp16_tensor_tflops: 989.5,
            mem_gb: 80,
            mem_bw_gbs: 3350.0,
            tdp_w: 700.0,
            idle_w: 80.0,
            n_sms: 132,
            link_bw_unidir_gbs: 450.0,
            link_latency_us: 4.0,
            table1_fp32: 66.9,
            table1_fp16: 1979.0,
        }
    }

    /// AMD Instinct MI210 64 GB (Infinity Fabric).
    pub fn mi210() -> Self {
        GpuSku {
            kind: SkuKind::Mi210,
            name: "MI210",
            vendor: Vendor::Amd,
            year: 2021,
            fp32_vector_tflops: 22.6,
            fp16_vector_tflops: 45.3,
            fp32_matrix_tflops: 45.3,
            tf32_tensor_tflops: 45.3,
            fp16_tensor_tflops: 181.0,
            mem_gb: 64,
            mem_bw_gbs: 1638.0,
            tdp_w: 300.0,
            idle_w: 45.0,
            n_sms: 104,
            link_bw_unidir_gbs: 150.0,
            link_latency_us: 6.0,
            table1_fp32: 22.6,
            table1_fp16: 181.0,
        }
    }

    /// AMD Instinct MI250 128 GB (dual-GCD OAM, Infinity Fabric).
    pub fn mi250() -> Self {
        GpuSku {
            kind: SkuKind::Mi250,
            name: "MI250",
            vendor: Vendor::Amd,
            year: 2021,
            fp32_vector_tflops: 45.3,
            fp16_vector_tflops: 90.5,
            fp32_matrix_tflops: 90.5,
            tf32_tensor_tflops: 90.5,
            fp16_tensor_tflops: 362.1,
            mem_gb: 128,
            mem_bw_gbs: 3277.0,
            tdp_w: 560.0,
            idle_w: 90.0,
            n_sms: 208,
            link_bw_unidir_gbs: 150.0,
            link_latency_us: 6.0,
            table1_fp32: 45.3,
            table1_fp16: 362.1,
        }
    }

    /// All four SKUs in Table I order.
    pub fn all() -> Vec<GpuSku> {
        SkuKind::ALL.iter().map(|k| k.sku()).collect()
    }

    /// Peak dense throughput in TFLOP/s for a (precision, datapath) pair.
    ///
    /// Combinations that do not exist in hardware degrade to the nearest
    /// real path: TF32 on the vector path runs as FP32; FP32 on NVIDIA
    /// tensor cores runs as TF32 internally only when the precision *is*
    /// TF32, so plain FP32 stays on the vector figure.
    pub fn peak_tflops(&self, precision: Precision, datapath: Datapath) -> f64 {
        match (precision, datapath) {
            (Precision::Fp32, Datapath::Vector) => self.fp32_vector_tflops,
            (Precision::Fp32, Datapath::TensorCore) => self.fp32_matrix_tflops,
            (Precision::Tf32, Datapath::Vector) => self.fp32_vector_tflops,
            (Precision::Tf32, Datapath::TensorCore) => self.tf32_tensor_tflops,
            (Precision::Fp16 | Precision::Bf16, Datapath::Vector) => self.fp16_vector_tflops,
            (Precision::Fp16 | Precision::Bf16, Datapath::TensorCore) => self.fp16_tensor_tflops,
        }
    }

    /// The SKU's contention calibration (see `calibration.rs`).
    pub fn contention(&self) -> ContentionProfile {
        ContentionProfile::for_sku(self.kind)
    }

    /// The SKU's power model calibration.
    pub fn power(&self) -> PowerProfile {
        PowerProfile::for_sku(self.kind)
    }

    /// HBM capacity in bytes.
    pub fn mem_bytes(&self) -> u64 {
        self.mem_gb * 1024 * 1024 * 1024
    }

    /// Unidirectional host-link (PCIe) bandwidth in GB/s — the path
    /// checkpoint writes and restores take to host memory/storage. Derived
    /// from the launch generation: Hopper-era boards ship PCIe Gen5 x16
    /// (~64 GB/s), the 2020/2021 parts ship Gen4 x16 (~32 GB/s).
    pub fn host_link_gbs(&self) -> f64 {
        if self.year >= 2022 {
            64.0
        } else {
            32.0
        }
    }
}

impl fmt::Display for GpuSku {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {}", self.vendor, self.name)
    }
}

/// Renders the paper's Table I as a markdown table.
pub fn table1_markdown() -> String {
    let mut out = String::from(
        "| Vendor | GPU | Year | Peak FLOPS (FP32) | Peak FLOPS (FP16) | Memory Size (GB) |\n\
         |--------|-----|------|-------------------|-------------------|------------------|\n",
    );
    for sku in GpuSku::all() {
        out.push_str(&format!(
            "| {} | {} | {} | {} | {} | {} |\n",
            sku.vendor, sku.name, sku.year, sku.table1_fp32, sku.table1_fp16, sku.mem_gb
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_returns_table1_order() {
        let names: Vec<&str> = GpuSku::all().iter().map(|s| s.name).collect();
        assert_eq!(names, vec!["A100", "H100", "MI210", "MI250"]);
    }

    #[test]
    fn table1_numbers_match_paper() {
        let h100 = GpuSku::h100();
        assert_eq!(h100.table1_fp32, 66.9);
        assert_eq!(h100.table1_fp16, 1979.0);
        assert_eq!(h100.mem_gb, 80);
        let mi250 = GpuSku::mi250();
        assert_eq!(mi250.table1_fp16, 362.1);
        assert_eq!(mi250.mem_gb, 128);
    }

    #[test]
    fn peak_tflops_covers_every_combination() {
        for sku in GpuSku::all() {
            for p in Precision::ALL {
                for d in Datapath::ALL {
                    let t = sku.peak_tflops(p, d);
                    assert!(t > 0.0, "{} {p} {d}", sku.name);
                }
            }
        }
    }

    #[test]
    fn tensor_core_is_never_slower_than_vector() {
        for sku in GpuSku::all() {
            for p in Precision::ALL {
                assert!(
                    sku.peak_tflops(p, Datapath::TensorCore)
                        >= sku.peak_tflops(p, Datapath::Vector),
                    "{} {p}",
                    sku.name
                );
            }
        }
    }

    #[test]
    fn nvidia_gpus_have_faster_links_than_amd() {
        assert!(GpuSku::h100().link_bw_unidir_gbs > GpuSku::mi250().link_bw_unidir_gbs);
        assert!(GpuSku::a100().link_bw_unidir_gbs > GpuSku::mi210().link_bw_unidir_gbs);
    }

    #[test]
    fn table1_markdown_contains_all_rows() {
        let table = table1_markdown();
        for name in ["A100", "H100", "MI210", "MI250"] {
            assert!(table.contains(name));
        }
        assert!(table.contains("1979"));
    }

    #[test]
    fn mem_bytes_is_gib() {
        assert_eq!(GpuSku::a100().mem_bytes(), 40 * (1 << 30));
    }

    #[test]
    fn host_link_tracks_the_pcie_generation() {
        assert_eq!(GpuSku::h100().host_link_gbs(), 64.0);
        for sku in [GpuSku::a100(), GpuSku::mi210(), GpuSku::mi250()] {
            assert_eq!(sku.host_link_gbs(), 32.0, "{}", sku.name);
        }
        for sku in GpuSku::all() {
            assert!(
                sku.host_link_gbs() < sku.mem_bw_gbs,
                "host link is always the slower path on {}",
                sku.name
            );
        }
    }
}
