//! PCIe host-link model: parameter loading and image streaming.
//!
//! The paper keeps all pre-trained weights and normalization parameters on
//! the CPU and loads them into the DFE caches "only once, before inference
//! of images starts" (§III-B1a); weights travel as 32-bit floats and are
//! binarized on arrival. Images stream over the same link during
//! inference. This module quantifies both, showing (a) why one-time
//! parameter load is negligible once amortized over the paper's 50 000
//! image runs, and (b) that PCIe never binds the pipeline — the fabric
//! consumes at most 8 bits × 105 MHz per image stream, far below even
//! PCIe 2.0 rates.

use qnn_nn::NetworkSpec;

/// Effective host→DFE bandwidth in Gbit/s. The MAX4's PCIe gen2 ×8 link
/// sustains ~3.2 GB/s in practice; we use a conservative 20 Gbit/s.
pub const PCIE_EFFECTIVE_GBPS: f64 = 20.0;

/// Bits sent over PCIe to load one network's parameters: weights travel as
/// 32-bit floats (binarized on the DFE, §III-B1a), normalization
/// parameters as one 64-bit word per neuron.
pub fn parameter_load_bits(spec: &NetworkSpec) -> u64 {
    let weight_bits = spec.total_weight_bits() as u64 * 32;
    let bn_bits = spec.total_bn_neurons() as u64 * 64;
    weight_bits + bn_bits
}

/// One-time parameter load in milliseconds.
pub fn parameter_load_ms(spec: &NetworkSpec) -> f64 {
    parameter_load_bits(spec) as f64 / (PCIE_EFFECTIVE_GBPS * 1e6)
}

/// Per-image input-stream time in milliseconds, if PCIe were the only
/// constraint (8-bit pixels).
pub fn image_stream_ms(spec: &NetworkSpec) -> f64 {
    (spec.input.len() as u64 * 8) as f64 / (PCIE_EFFECTIVE_GBPS * 1e6)
}

/// Fraction of total runtime spent on the one-time parameter load when
/// `images` are processed at `per_image_ms` each.
pub fn load_amortization(spec: &NetworkSpec, images: u64, per_image_ms: f64) -> f64 {
    let load = parameter_load_ms(spec);
    load / (load + images as f64 * per_image_ms)
}

/// Does the image stream fit the link at the fabric's consumption rate?
/// The fabric pulls one 8-bit element per cycle at `fclk_mhz`.
pub fn image_stream_fits(fclk_mhz: f64) -> bool {
    8.0 * fclk_mhz <= PCIE_EFFECTIVE_GBPS * 1e3
}

#[cfg(test)]
mod tests {
    use super::*;
    use qnn_nn::models;

    #[test]
    fn resnet_parameter_load_is_tens_of_ms() {
        // ~11 Mbit of weights × 32-bit transport ≈ 360 Mbit ≈ 18 ms.
        let ms = parameter_load_ms(&models::resnet18(1000));
        assert!((5.0..60.0).contains(&ms), "load {ms} ms");
    }

    #[test]
    fn load_amortizes_below_one_percent_over_papers_run() {
        // 50 000 images (§IV-A) at the measured 16.1 ms each.
        let f = load_amortization(&models::resnet18(1000), 50_000, 16.1);
        assert!(f < 0.01, "parameter load is {:.3}% of the run", f * 100.0);
    }

    #[test]
    fn single_image_would_be_load_dominated() {
        // The flip side: a cold single-shot inference pays the load.
        let f = load_amortization(&models::resnet18(1000), 1, 16.1);
        assert!(f > 0.4, "cold start fraction {f}");
    }

    #[test]
    fn pcie_never_binds_the_image_stream() {
        assert!(image_stream_fits(105.0));
        assert!(image_stream_fits(5.0 * 105.0)); // even at Stratix 10 clocks
                                                 // A 224×224×3 image is ~1.2 Mbit: well under 0.1 ms on the link.
        let ms = image_stream_ms(&models::resnet18(1000));
        assert!(ms < 0.1, "image stream {ms} ms");
    }

    #[test]
    fn bn_parameters_are_a_small_fraction() {
        let spec = models::resnet18(1000);
        let bn = spec.total_bn_neurons() as u64 * 64;
        assert!(bn * 20 < parameter_load_bits(&spec), "BN share too large");
    }
}
