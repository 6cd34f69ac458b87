//! Multi-GPU node descriptions combining device, count and fabric.

use crate::gpu::GpuSpec;
use crate::interconnect::Interconnect;
use crate::kernel::KernelModel;
use serde::{Deserialize, Serialize};

/// A multi-GPU server: `num_gpus` identical devices behind one PCIe switch,
/// matching the paper's two testbeds (4×L20 and 4×A100).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NodeSpec {
    /// Device type of every GPU in the node.
    pub gpu: GpuSpec,
    /// Number of GPUs used by the configuration (the paper scales 1→2→4).
    pub num_gpus: u32,
    /// Intra-node communication fabric.
    pub interconnect: Interconnect,
}

impl NodeSpec {
    /// The names [`Self::by_name`] accepts, as usage and error text lists
    /// them.
    pub const NAMES: &'static str = "l20|a100|a10|rtx4090";

    /// The node called `name` (one of [`Self::NAMES`]) with `num_gpus`
    /// devices, or `None` for an unknown name.
    pub fn by_name(name: &str, num_gpus: u32) -> Option<Self> {
        Some(match name {
            "l20" => Self::l20(num_gpus),
            "a100" => Self::a100(num_gpus),
            "a10" => Self::a10(num_gpus),
            "rtx4090" => Self::rtx4090(num_gpus),
            _ => return None,
        })
    }

    /// The paper's L20 node restricted to `num_gpus` devices.
    pub fn l20(num_gpus: u32) -> Self {
        NodeSpec {
            gpu: GpuSpec::l20(),
            num_gpus,
            interconnect: Interconnect::pcie_l20_node(),
        }
    }

    /// The paper's A100 node restricted to `num_gpus` devices.
    pub fn a100(num_gpus: u32) -> Self {
        NodeSpec {
            gpu: GpuSpec::a100(),
            num_gpus,
            interconnect: Interconnect::pcie_a100_node(),
        }
    }

    /// A commodity node of A10s behind a PCIe switch (§2.2's motivating
    /// hardware class; the L20 fabric constants are reused — both are
    /// Gen4 switches without NVLink).
    pub fn a10(num_gpus: u32) -> Self {
        NodeSpec {
            gpu: GpuSpec::a10(),
            num_gpus,
            interconnect: Interconnect::pcie_l20_node(),
        }
    }

    /// A workstation node of RTX 4090s (PCIe only — no NVLink exists for
    /// this class, which is the paper's point about commodity hardware).
    pub fn rtx4090(num_gpus: u32) -> Self {
        NodeSpec {
            gpu: GpuSpec::rtx4090(),
            num_gpus,
            interconnect: Interconnect::pcie_l20_node(),
        }
    }

    /// A small node of test GPUs with an ideal fabric.
    pub fn tiny_test(num_gpus: u32) -> Self {
        NodeSpec {
            gpu: GpuSpec::tiny_test(),
            num_gpus,
            interconnect: Interconnect::ideal(),
        }
    }

    /// The calibrated kernel model for this node's device type.
    pub fn kernel(&self) -> KernelModel {
        KernelModel::calibrated(self.gpu.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_testbeds() {
        let l = NodeSpec::l20(4);
        assert_eq!(l.num_gpus, 4);
        assert_eq!(l.gpu.mem_bytes, 48 * (1u64 << 30));
        assert_eq!(l.interconnect.allreduce_bw, 14.65e9);

        let a = NodeSpec::a100(4);
        assert_eq!(a.gpu.mem_bytes, 80 * (1u64 << 30));
        assert_eq!(a.interconnect.allreduce_bw, 14.82e9);
    }

    #[test]
    fn every_listed_name_selects_its_node() {
        let gpus: Vec<String> = NodeSpec::NAMES
            .split('|')
            .map(|name| NodeSpec::by_name(name, 2).expect("listed name").gpu.name)
            .collect();
        assert_eq!(gpus, ["L20", "A100", "A10", "RTX4090"]);
        assert!(NodeSpec::by_name("tpu", 2).is_none());
    }

    #[test]
    fn kernel_inherits_device() {
        let n = NodeSpec::a100(2);
        assert_eq!(n.kernel().gpu.name, "A100");
    }
}
