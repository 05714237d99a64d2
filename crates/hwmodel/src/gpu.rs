//! GPU baseline latency model (paper Table IIa, §IV-A).
//!
//! The paper times Hubara et al.'s QNN code (Theano + cuDNN) on a Tesla
//! P100 and a GTX 1080. We have no GPU, so we model the two regimes the
//! paper's results exhibit:
//!
//! * a **per-layer launch/synchronization floor** — "each layer waits until
//!   the previous one finishes" (§IV-B2), which dominates small inputs and
//!   is why the DFE is 12% *faster* at 32×32 (§IV-B1, kernel-invocation
//!   overhead);
//! * an **effective-throughput term** `MACs / (peak · efficiency)` that
//!   dominates at 224×224, where the GPUs win.
//!
//! Layer time = `max(launch_floor, macs/throughput)`; image time is the
//! sum over launched ops. Minibatching amortizes the floor (the paper's
//! §IV-B1 remark about batches of 128–256).

use qnn_nn::{NetworkSpec, Stage};

/// GPU device description (Table IIa).
#[derive(Clone, Copy, Debug)]
pub struct GpuSpec {
    /// Device name.
    pub name: &'static str,
    /// CUDA cores.
    pub cuda_cores: u64,
    /// Core clock in MHz.
    pub core_clock_mhz: f64,
    /// Board TDP in watts (for the power model).
    pub tdp_w: f64,
}

/// Nvidia Tesla P100-12GB (Pascal).
pub const P100: GpuSpec =
    GpuSpec { name: "Tesla P100", cuda_cores: 3584, core_clock_mhz: 1480.0, tdp_w: 250.0 };

/// Nvidia GeForce GTX 1080 (Pascal).
pub const GTX1080: GpuSpec =
    GpuSpec { name: "GTX 1080", cuda_cores: 2560, core_clock_mhz: 1733.0, tdp_w: 180.0 };

/// Calibrated latency model for one GPU.
#[derive(Clone, Copy, Debug)]
pub struct GpuModel {
    /// The device.
    pub spec: GpuSpec,
    /// Per-launched-op floor in milliseconds (driver + Theano dispatch +
    /// inter-layer synchronization).
    pub launch_ms: f64,
    /// Fraction of peak FMA throughput the framework's QNN kernels reach.
    pub efficiency: f64,
}

impl GpuModel {
    /// Default calibration for a device (launch floor ~80 µs, 6% of peak —
    /// Theano-era single-image inference; the floor reproduces the paper's
    /// §IV-B1 observation that the DFE wins at 32×32 by ~12%).
    pub fn new(spec: GpuSpec) -> Self {
        let launch_ms = if spec.cuda_cores >= 3000 { 0.08 } else { 0.075 };
        Self { spec, launch_ms, efficiency: 0.06 }
    }

    /// Peak multiply–accumulate rate (FMA) in MAC/s.
    pub fn peak_macs_per_s(&self) -> f64 {
        self.spec.cuda_cores as f64 * self.spec.core_clock_mhz * 1e6 * 2.0
    }

    /// Effective throughput after the efficiency factor.
    pub fn effective_macs_per_s(&self) -> f64 {
        self.peak_macs_per_s() * self.efficiency
    }

    /// Launched ops for a network: one per convolution, pool and FC layer
    /// plus one per skip-connection add.
    pub fn launched_ops(spec: &NetworkSpec) -> Vec<(String, u64)> {
        let mut ops = Vec::new();
        for (i, stage) in spec.stages.iter().enumerate() {
            match stage {
                Stage::ConvInput { geom } | Stage::Conv { geom } => {
                    ops.push((format!("conv{i}"), geom.macs()));
                }
                Stage::Pool { .. } => ops.push((format!("pool{i}"), 0)),
                Stage::FullyConnected { in_features, out_features, .. } => {
                    ops.push((format!("fc{i}"), (*in_features * *out_features) as u64));
                }
                Stage::Residual { geom } => {
                    ops.push((format!("res{i}.conv1"), geom.conv1.macs()));
                    ops.push((format!("res{i}.conv2"), geom.conv2.macs()));
                    if let Some(ds) = &geom.downsample {
                        ops.push((format!("res{i}.ds"), ds.macs()));
                    }
                    ops.push((format!("res{i}.add"), 0));
                }
                Stage::Encoder { geom } => {
                    let mut suffixes = vec!["q", "k", "v", "proj"];
                    if geom.has_ffn() {
                        suffixes.extend(["ff1", "ff2"]);
                    }
                    for (suffix, g) in suffixes.iter().zip(geom.projection_geometries()) {
                        ops.push((format!("enc{i}.{suffix}"), g.macs()));
                    }
                    // One batched launch covers all heads' QKᵀ and AV.
                    ops.push((format!("enc{i}.attn"), geom.attention_macs()));
                    ops.push((format!("enc{i}.add"), 0));
                }
            }
        }
        ops
    }

    /// Single-image inference latency in milliseconds.
    pub fn time_ms(&self, spec: &NetworkSpec) -> f64 {
        let thru = self.effective_macs_per_s();
        Self::launched_ops(spec)
            .iter()
            .map(|(_, macs)| (*macs as f64 / thru * 1e3).max(self.launch_ms))
            .sum()
    }

    /// Per-image latency when `batch` images are processed together: the
    /// launch floor amortizes, the compute term does not.
    pub fn time_ms_batched(&self, spec: &NetworkSpec, batch: u32) -> f64 {
        assert!(batch >= 1);
        let thru = self.effective_macs_per_s();
        Self::launched_ops(spec)
            .iter()
            .map(|(_, macs)| {
                let compute = *macs as f64 * batch as f64 / thru * 1e3;
                compute.max(self.launch_ms) / batch as f64
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qnn_nn::models;

    #[test]
    fn specs_match_table2a() {
        assert_eq!(P100.cuda_cores, 3584);
        assert_eq!(P100.core_clock_mhz, 1480.0);
        assert_eq!(GTX1080.cuda_cores, 2560);
        assert_eq!(GTX1080.core_clock_mhz, 1733.0);
    }

    #[test]
    fn small_input_is_launch_bound() {
        // At 32×32 every op sits at the launch floor; the total is ops × L.
        let m = GpuModel::new(P100);
        let spec = models::vgg_like(32, 10, 2);
        let ops = GpuModel::launched_ops(&spec).len() as f64;
        let t = m.time_ms(&spec);
        assert!(t >= ops * m.launch_ms * 0.9, "t={t}");
        assert!(t <= ops * m.launch_ms * 1.6, "t={t}");
    }

    #[test]
    fn large_input_is_compute_bound() {
        let m = GpuModel::new(P100);
        let alex = models::alexnet(1000);
        let t = m.time_ms(&alex);
        let floor = GpuModel::launched_ops(&alex).len() as f64 * m.launch_ms;
        assert!(t > 1.5 * floor, "AlexNet at 224² must exceed the launch floor: {t} vs {floor}");
    }

    #[test]
    fn gpu_depth_penalty_exceeds_dfe_penalty() {
        // §IV-B2: on GPUs, doubling layers costs ~42.5% more; on the DFE
        // only 17.5%. The model must show a substantial GPU depth penalty.
        let m = GpuModel::new(P100);
        let ratio = m.time_ms(&models::resnet18(1000)) / m.time_ms(&models::alexnet(1000));
        assert!(ratio > 1.3, "GPU ResNet/AlexNet ratio {ratio}");
    }

    #[test]
    fn batching_amortizes_launch_floor() {
        let m = GpuModel::new(P100);
        let spec = models::vgg_like(32, 10, 2);
        let single = m.time_ms(&spec);
        let batched = m.time_ms_batched(&spec, 256);
        assert!(
            batched < single / 3.0,
            "batching should slash per-image time: {single} → {batched}"
        );
        // At batch 256 the model is compute-bound, not launch-bound.
        let compute_bound: f64 = GpuModel::launched_ops(&spec)
            .iter()
            .map(|(_, macs)| *macs as f64 / m.effective_macs_per_s() * 1e3)
            .sum();
        assert!(batched >= compute_bound * 0.99);
        // And batched-by-1 equals single.
        assert!((m.time_ms_batched(&spec, 1) - single).abs() < 1e-12);
    }

    #[test]
    fn p100_beats_gtx1080_on_compute_bound_nets() {
        let res = models::resnet18(1000);
        let p = GpuModel::new(P100).time_ms(&res);
        let g = GpuModel::new(GTX1080).time_ms(&res);
        // P100 has ~20% more peak FMA.
        assert!(p < g, "P100 {p} vs GTX1080 {g}");
    }
}
