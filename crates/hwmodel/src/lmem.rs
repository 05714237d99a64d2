//! LMem (off-chip DRAM) alternative-design model.
//!
//! The paper deliberately uses only on-chip FMem: "in this work we used
//! only the memory that is embedded in the FPGA fabric" (§II-B), because
//! the compact QNN parameters fit and FMem supplies a full filter per
//! clock. This module quantifies the alternative the paper rejected —
//! weights resident in LMem — to show *why* the on-chip choice wins: a
//! convolution needs `K·K·I` weight bits per clock (one cache entry), and
//! for the paper's layers that per-kernel demand alone can exceed the
//! entire LMem interface.

use qnn_nn::{NetworkSpec, Stage};

/// LMem interface bandwidth per DFE in Gbit/s (MAX4: ~38 GB/s DDR3 ⇒
/// ≈300 Gbit/s peak; we use a realistic 240 Gbit/s sustained).
pub const LMEM_SUSTAINED_GBPS: f64 = 240.0;

/// Weight-fetch bandwidth one convolution kernel would demand with weights
/// in LMem, in Gbit/s: one `K·K·I`-bit cache row per output cycle.
pub fn conv_weight_demand_gbps(weights_per_filter: usize, fclk_mhz: f64) -> f64 {
    weights_per_filter as f64 * fclk_mhz / 1e3
}

/// Aggregate LMem weight-fetch demand of every convolution/FC kernel in
/// the design running concurrently (the streaming pipeline keeps all
/// layers active at once), in Gbit/s.
pub fn network_weight_demand_gbps(spec: &NetworkSpec, fclk_mhz: f64) -> f64 {
    spec.stages
        .iter()
        .flat_map(Stage::conv_geometries)
        .map(|g| conv_weight_demand_gbps(g.filter.weights_per_filter(), fclk_mhz))
        .sum()
}

/// Slowdown factor an LMem-weight design would suffer relative to the
/// on-chip design (1.0 = no slowdown): the pipeline throttles to the
/// available weight bandwidth.
pub fn lmem_slowdown(spec: &NetworkSpec, fclk_mhz: f64, dfes: usize) -> f64 {
    let demand = network_weight_demand_gbps(spec, fclk_mhz);
    let supply = LMEM_SUSTAINED_GBPS * dfes as f64;
    (demand / supply).max(1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use qnn_nn::models;

    #[test]
    fn single_large_layer_already_strains_lmem() {
        // ResNet conv5_x: 4608-bit rows at 105 MHz ≈ 484 Gbit/s — more
        // than a whole DFE's LMem interface for one kernel.
        let demand = conv_weight_demand_gbps(4608, 105.0);
        assert!(demand > LMEM_SUSTAINED_GBPS, "demand {demand} Gbit/s");
    }

    #[test]
    fn resnet_lmem_design_would_be_several_times_slower() {
        let slow = lmem_slowdown(&models::resnet18(1000), 105.0, 3);
        assert!(slow > 3.0, "LMem slowdown only {slow}×");
    }

    #[test]
    fn on_chip_choice_is_justified_for_every_paper_network() {
        for spec in [models::vgg_like(32, 10, 2), models::alexnet(1000), models::resnet18(1000)] {
            assert!(
                lmem_slowdown(&spec, 105.0, 3) > 1.0,
                "{}: LMem would have been free?!",
                spec.name
            );
        }
    }

    #[test]
    fn tiny_network_could_live_with_lmem() {
        // Sanity: the model is not a constant — a small-enough design fits.
        let spec = models::test_net(8, 4, 2);
        assert!((1.0..4.0).contains(&lmem_slowdown(&spec, 105.0, 1)));
    }
}
