//! Multi-DFE partitioning (paper §III-B6).
//!
//! Stages are placed onto DFEs greedily and contiguously: the pipeline
//! order is the placement order (the physical MaxRing is a daisy chain), a
//! new device is opened when the current one's usable budget would
//! overflow, and every cut is checked against the ring bandwidth — for the
//! paper's 2-bit streams at 105 MHz this is the 210 Mbps vs "several Gbps"
//! argument that makes the split essentially free.

use dfe_platform::{DeviceSpec, MaxRing, ResourceUsage};
use hw_model::resources::{estimate_stage, PER_DFE_INFRA_BRAM_KBITS};
use qnn_nn::{NetworkSpec, Stage};

/// Why partitioning failed.
#[derive(Debug)]
pub enum PartitionError {
    /// A single stage exceeds one device's usable budget (stage index,
    /// usage). The granularity of this compiler is the stage; the paper's
    /// networks never need intra-layer splits.
    StageTooLarge(usize, ResourceUsage),
    /// A cut between devices would exceed the MaxRing bandwidth.
    RingOverloaded {
        /// Stage index after the cut.
        at_stage: usize,
        /// Demanded bandwidth (Mbps).
        demand_mbps: f64,
    },
}

impl std::fmt::Display for PartitionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PartitionError::StageTooLarge(i, u) => {
                write!(f, "stage {i} alone exceeds the device budget: {u:?}")
            }
            PartitionError::RingOverloaded { at_stage, demand_mbps } => {
                write!(f, "cut before stage {at_stage} needs {demand_mbps} Mbps of MaxRing")
            }
        }
    }
}

impl std::error::Error for PartitionError {}

/// A stage→device assignment.
#[derive(Clone, Debug)]
pub struct Partition {
    /// Device index per stage (non-decreasing).
    pub stage_device: Vec<usize>,
    /// Per-device resource usage (including per-DFE infrastructure).
    pub per_device: Vec<ResourceUsage>,
    /// The device type placed against.
    pub device: DeviceSpec,
}

impl Partition {
    /// Number of DFEs used.
    pub fn num_dfes(&self) -> usize {
        self.per_device.len()
    }

    /// Total usage across devices.
    pub fn total_usage(&self) -> ResourceUsage {
        self.per_device.iter().copied().sum()
    }

    /// Stream widths crossing the cut before `stage` (activation codes,
    /// plus the 16-bit skip when both sides are identity-linked residual
    /// stages).
    pub(crate) fn cut_bits(spec: &NetworkSpec, stage: usize) -> Vec<u32> {
        let mut bits = vec![spec.act_bits];
        let prev_residual = matches!(spec.stages[stage - 1], Stage::Residual { .. });
        let next_identity = matches!(
            spec.stages[stage],
            Stage::Residual { geom } if geom.downsample.is_none()
        );
        if prev_residual && next_identity {
            bits.push(16);
        }
        bits
    }
}

/// Greedy contiguous first-fit placement of `spec` onto devices of type
/// `device`, honoring `ring` bandwidth on every cut.
pub fn partition(
    spec: &NetworkSpec,
    device: &DeviceSpec,
    ring: &MaxRing,
) -> Result<Partition, PartitionError> {
    let infra = ResourceUsage { luts: 0, ffs: 0, bram_kbits: PER_DFE_INFRA_BRAM_KBITS };
    let mut stage_device = Vec::with_capacity(spec.stages.len());
    let mut per_device: Vec<ResourceUsage> = vec![infra];

    for (i, stage) in spec.stages.iter().enumerate() {
        let need = estimate_stage(stage, spec.act_bits).usage;
        if !need.plus(infra).fits(device) {
            return Err(PartitionError::StageTooLarge(i, need));
        }
        let cur = per_device.last_mut().expect("at least one device");
        if cur.plus(need).fits(device) {
            *cur = cur.plus(need);
        } else {
            // Open a new device; the cut must fit the ring.
            let bits = Partition::cut_bits(spec, i);
            if !ring.supports(&bits, device.fclk_mhz) {
                return Err(PartitionError::RingOverloaded {
                    at_stage: i,
                    demand_mbps: MaxRing::demand_mbps(&bits, device.fclk_mhz),
                });
            }
            per_device.push(infra.plus(need));
        }
        stage_device.push(per_device.len() - 1);
    }
    Ok(Partition { stage_device, per_device, device: *device })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dfe_platform::{STRATIX_10_GX2800, STRATIX_V_5SGSD8};
    use qnn_nn::models;

    fn ring() -> MaxRing {
        MaxRing::default()
    }

    #[test]
    fn vgg32_fits_one_stratix_v() {
        // §V: "For inputs up to 144×144, resource utilization is small
        // enough to fit on a single Stratix V 5SGSD8 FPGA."
        for side in [32, 64, 96, 144] {
            let p = partition(&models::vgg_like(side, 10, 2), &STRATIX_V_5SGSD8, &ring())
                .expect("partition");
            assert_eq!(p.num_dfes(), 1, "VGG-{side} should fit one DFE");
        }
    }

    #[test]
    fn alexnet_needs_multiple_dfes() {
        // §IV-B1: "three DFEs are needed to fit the network" (AlexNet).
        let p = partition(&models::alexnet(1000), &STRATIX_V_5SGSD8, &ring()).expect("partition");
        assert!(
            (2..=3).contains(&p.num_dfes()),
            "AlexNet on {} DFEs (paper: 3)",
            p.num_dfes()
        );
    }

    #[test]
    fn resnet18_needs_multiple_dfes() {
        // Intro says two, §IV-B2 says three. Our placement granularity is
        // the stage, and a conv5_x residual block alone is ~130k LUTs, so
        // the two conv5 blocks can never share a device — with the
        // surrounding stages that makes four. Greedy contiguous first-fit
        // is optimal for contiguous placements, so 4 is the true minimum
        // at this granularity; see EXPERIMENTS.md.
        let p = partition(&models::resnet18(1000), &STRATIX_V_5SGSD8, &ring()).expect("partition");
        assert!(
            (2..=4).contains(&p.num_dfes()),
            "ResNet-18 on {} DFEs (paper: 2–3)",
            p.num_dfes()
        );
    }

    #[test]
    fn resnet18_fits_one_stratix_10() {
        // §IV-B4: Stratix 10 would "fit even bigger networks onto a single
        // FPGA".
        let p = partition(&models::resnet18(1000), &STRATIX_10_GX2800, &ring()).expect("partition");
        assert_eq!(p.num_dfes(), 1);
    }

    #[test]
    fn assignments_are_contiguous_and_complete() {
        let spec = models::resnet18(1000);
        let p = partition(&spec, &STRATIX_V_5SGSD8, &ring()).expect("partition");
        assert_eq!(p.stage_device.len(), spec.stages.len());
        for w in p.stage_device.windows(2) {
            assert!(w[1] == w[0] || w[1] == w[0] + 1, "non-contiguous placement");
        }
        for (d, usage) in p.per_device.iter().enumerate() {
            assert!(usage.fits(&STRATIX_V_5SGSD8), "device {d} overfull: {usage:?}");
        }
    }

    #[test]
    fn narrow_ring_rejects_the_cut() {
        // A ring with almost no bandwidth cannot host any cut.
        let tiny_ring = MaxRing { rate_gbps: 0.0001, latency_cycles: 4 };
        let err = partition(&models::resnet18(1000), &STRATIX_V_5SGSD8, &tiny_ring).unwrap_err();
        assert!(matches!(err, PartitionError::RingOverloaded { .. }), "{err}");
    }

    #[test]
    fn paper_cut_bandwidth_is_210_mbps() {
        // The canonical cut carries one 2-bit stream at 105 MHz.
        let spec = models::alexnet(1000);
        let p = partition(&spec, &STRATIX_V_5SGSD8, &ring()).expect("partition");
        assert!(p.num_dfes() > 1);
        let first_cut = p.stage_device.iter().position(|&d| d == 1).expect("cut exists");
        let bits = Partition::cut_bits(&spec, first_cut);
        assert_eq!(bits, vec![2]);
        assert!((MaxRing::demand_mbps(&bits, 105.0) - 210.0).abs() < 1e-9);
    }
}
