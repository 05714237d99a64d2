//! Analytic clock-cycle model (paper §IV-B4).
//!
//! Per kernel, one clock moves at most one input element into the window
//! buffer and emits at most one output (one filter result), and the two
//! overlap like in any MaxJ kernel — so a layer is busy for
//! ≈ `max(padded_inputs, outputs)` cycles per image. (The halt-strict
//! discipline of a literal §III-B1 reading costs `inputs + outputs` and is
//! kept as an ablation in `qnn-kernels`; the overlapped numbers are the
//! ones consistent with the paper's measurements.) The pipeline's
//! steady-state *period* is the maximum busy count over kernels; the
//! single-image *latency* adds each kernel's window-fill offset, because a
//! kernel cannot start until its first window arrives.
//!
//! There is one model: a [`FoldPlan`] widens a layer's ports, and
//! [`CycleModel::analyze`] is [`CycleModel::analyze_folded`] at the unit
//! plan.
//!
//! The cycle simulator in `dfe-platform` is the ground truth; integration
//! tests pin this model to it on small networks, then the model scales to
//! the full-size estimates `paper-tables` reports.

use crate::folding::{Fold, FoldPlan};
use qnn_nn::{NetworkSpec, Stage};
use qnn_tensor::ConvGeometry;

/// Busy-cycle decomposition of one layer (one or more kernels).
#[derive(Clone, Debug)]
pub struct LayerCycles {
    /// Stage label.
    pub name: String,
    /// Input elements streamed per image (after padding).
    pub inputs: u64,
    /// Output elements (= compute halts for convolutions).
    pub outputs: u64,
    /// Busy cycles per image of the stage's busiest kernel.
    pub busy: u64,
    /// Cycles before the first output can appear (window fill).
    pub fill: u64,
}

impl LayerCycles {
    /// Whether folding can move this entry: everything but the fixed-rate
    /// host source (`host.image`) and skip glue (`*.skip`).
    pub fn foldable(&self) -> bool {
        self.name != "host.image" && !self.name.ends_with(".skip")
    }
}

/// A layer that absorbs `inputs` on `simd` lanes and emits `outputs` on
/// `pe` lanes; its window fill arrives `simd` elements a clock.
fn lane_cycles(name: String, inputs: u64, outputs: u64, fill: u64, fold: Fold) -> LayerCycles {
    let (pe, simd) = (fold.pe as u64, fold.simd as u64);
    let busy = inputs.div_ceil(simd).max(outputs.div_ceil(pe));
    LayerCycles { name, inputs, outputs, busy, fill: fill.div_ceil(simd) }
}

/// A fixed-rate structure moving `elements` one per clock, whatever the
/// folding around it.
fn fixed_rate(name: String, elements: u64, fill: u64) -> LayerCycles {
    LayerCycles { name, inputs: elements, outputs: elements, busy: elements, fill }
}

fn conv_cycles(name: &str, geom: &ConvGeometry, fold: Fold) -> LayerCycles {
    let (pe, simd) = (fold.pe as u64, fold.simd as u64);
    let padded = geom.padded_input();
    let inputs = padded.len() as u64;
    let out = geom.output();
    let outputs = out.len() as u64;
    let positions = (out.h * out.w) as u64;
    let o = geom.filter.o as u64;
    // The first window completes after the depth-first buffer's worth.
    let fill = geom.depth_first_buffer() as u64;
    LayerCycles {
        name: name.to_string(),
        inputs,
        outputs,
        // `simd` lanes absorb the padded input stream; at each of the
        // `positions` halts, `pe` lanes emit the `O` filter results.
        busy: inputs.div_ceil(simd).max(positions * o.div_ceil(pe)),
        fill: fill.div_ceil(simd),
    }
}

/// Push one encoder stage's cycle entries: the 1×1 projections (foldable,
/// conv-like), the per-head attention tile engine, and the fixed-rate
/// split/add/LayerNorm glue. The attention and glue entries are
/// fold-independent.
fn encoder_cycles(
    layers: &mut Vec<LayerCycles>,
    i: usize,
    geom: &qnn_nn::EncoderGeometry,
    plan: &FoldPlan,
) {
    let projs = geom.projection_geometries();
    let mut suffixes = vec!["q", "k", "v", "proj"];
    if geom.has_ffn() {
        suffixes.extend(["ff1", "ff2"]);
    }
    for (suffix, g) in suffixes.iter().zip(&projs) {
        let name = format!("enc{i}.{suffix}");
        layers.push(conv_cycles(&name, g, plan.get(&name)));
    }
    // Heads run in parallel; one head's tile engine stands for all of
    // them. It absorbs its three seq×head_dim tiles (one element per port
    // per clock, so the gather overlaps across ports) and then emits one
    // tile — nothing can come out before the whole tile is in.
    let tile = (geom.seq_len * geom.head_dim) as u64;
    layers.push(LayerCycles {
        name: format!("enc{i}.attn"),
        inputs: 3 * tile,
        outputs: tile,
        busy: 2 * tile,
        fill: tile,
    });
    // Fixed-rate glue: splits, head fan-out/concat, adders and LayerNorm
    // all move one token-stream element per clock regardless of folding.
    layers.push(fixed_rate(format!("enc{i}.skip"), (geom.seq_len * geom.d_model) as u64, 0));
}

/// Whole-network cycle model.
#[derive(Clone, Debug)]
pub struct CycleModel {
    /// Busy/fill entries in pipeline order: the host feed, then each
    /// stage's kernels (a residual block its convs and skip glue, an
    /// encoder its projections, attention engine and glue).
    pub layers: Vec<LayerCycles>,
}

impl CycleModel {
    /// Analyze a network spec with every layer unfolded.
    pub fn analyze(spec: &NetworkSpec) -> Self {
        Self::analyze_folded(spec, &FoldPlan::new())
    }

    /// Analyze a network under a per-layer [`FoldPlan`].
    ///
    /// Folded layers cost `⌈elements / lanes⌉` cycles on each port. Two
    /// fixed-rate structures get entries of their own, because folding can
    /// push a layer below them:
    ///
    /// * `host.image` — the host source feeds one element per clock, so no
    ///   fold can beat `input.len()` cycles per image at the pipe's head;
    /// * `res{i}.skip` — the split/add/threshold glue around a residual
    ///   block moves one element per clock regardless of conv folding. The
    ///   glue also carries the block's *ramp*: a folded conv1 still waits
    ///   its unfolded window-fill time for elements arriving at one per
    ///   clock, so the fill cycles folding "saved" inside the conv are
    ///   charged back here (`fill − ⌈fill/simd⌉`).
    ///
    /// At the unit plan ([`CycleModel::analyze`]) neither entry sets the
    /// period (the unfolded convs around them are at least as busy) and
    /// the ramp is zero, so they count only towards `serial_bound()`.
    pub fn analyze_folded(spec: &NetworkSpec, plan: &FoldPlan) -> Self {
        let mut layers = vec![fixed_rate("host.image".to_string(), spec.input.len() as u64, 0)];
        for (i, stage) in spec.stages.iter().enumerate() {
            match stage {
                Stage::ConvInput { geom } | Stage::Conv { geom } => {
                    let name = format!("conv{i}");
                    layers.push(conv_cycles(&name, geom, plan.get(&name)));
                }
                Stage::Pool { .. } => {
                    let name = format!("pool{i}");
                    let win = stage.pool_window().expect("a pool stage slides a window");
                    let (inputs, outputs) = (win.input.len() as u64, win.output().len() as u64);
                    let fill = win.depth_first_buffer() as u64;
                    let fold = plan.get(&name);
                    // Pooling overlaps I/O (§III-B2).
                    layers.push(lane_cycles(name, inputs, outputs, fill, fold));
                }
                Stage::FullyConnected { in_features, out_features, .. } => {
                    let name = format!("fc{i}");
                    let (inputs, outputs) = (*in_features as u64, *out_features as u64);
                    let fold = plan.get(&name);
                    layers.push(lane_cycles(name, inputs, outputs, inputs, fold));
                }
                Stage::Residual { geom } => {
                    for (suffix, g) in [("conv1", &geom.conv1), ("conv2", &geom.conv2)]
                        .into_iter()
                        .chain(geom.downsample.as_ref().map(|ds| ("ds", ds)))
                    {
                        let name = format!("res{i}.{suffix}");
                        layers.push(conv_cycles(&name, g, plan.get(&name)));
                    }
                    // Fixed-rate skip glue: the input split moves the block's
                    // input once, the adder/threshold its output once.
                    let glue =
                        (geom.conv1.input.len() as u64).max(geom.conv2.output().len() as u64);
                    // Skip-path ramp: the split feeds conv1 at one element
                    // per clock no matter how the conv is folded, so the
                    // conv's first window still takes its *unfolded* fill
                    // time to arrive — the folded conv merely waits. Charge
                    // the difference here as the glue's fill so the latency
                    // sum sees what the simulator measures. Unit plans give
                    // `fill − ⌈fill/1⌉ = 0`.
                    let c1_fill = conv_cycles("", &geom.conv1, Fold::UNIT).fill;
                    let c1_simd = plan.get(&format!("res{i}.conv1")).simd as u64;
                    let ramp = c1_fill - c1_fill.div_ceil(c1_simd);
                    layers.push(fixed_rate(format!("res{i}.skip"), glue, ramp));
                }
                Stage::Encoder { geom } => {
                    encoder_cycles(&mut layers, i, geom, plan);
                }
            }
        }
        Self { layers }
    }

    /// Steady-state cycles per image (pipeline period): the busiest kernel.
    pub fn period(&self) -> u64 {
        self.layers.iter().map(|l| l.busy).max().unwrap_or(0)
    }

    /// Single-image latency estimate: the bottleneck period plus every
    /// stage's fill offset (a stage starts only after its first window).
    pub fn latency(&self) -> u64 {
        self.period() + self.layers.iter().map(|l| l.fill).sum::<u64>()
    }

    /// Sum of all busy cycles — the fully serialized bound (what a
    /// layer-at-a-time accelerator would need).
    pub fn serial_bound(&self) -> u64 {
        self.layers.iter().map(|l| l.busy).sum()
    }

    /// Milliseconds for `cycles` at `fclk_mhz`.
    pub fn ms(cycles: u64, fclk_mhz: f64) -> f64 {
        cycles as f64 / (fclk_mhz * 1e3)
    }

    /// The bottleneck layer.
    pub fn bottleneck(&self) -> &LayerCycles {
        self.layers.iter().max_by_key(|l| l.busy).expect("non-empty model")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::specs::paper;
    use dfe_platform::MAIA_FCLK_MHZ;
    use qnn_nn::models;

    #[test]
    fn resnet18_latency_is_in_the_papers_band() {
        // §IV-B4 estimates ≈1.85×10⁶ clocks/picture; the measured system at
        // 105 MHz does 16.1 ms ≈ 1.69×10⁶. Our overlapped-I/O model lands
        // below both (the paper's system carries extra per-layer overheads
        // our architecture-level model omits); require the same regime
        // within 2.5×.
        let m = CycleModel::analyze(&models::resnet18(1000));
        let est = m.latency() as f64;
        assert!(
            est > paper::RESNET18_CLOCKS_ESTIMATE / 2.5
                && est < paper::RESNET18_CLOCKS_ESTIMATE * 2.5,
            "latency {est:.3e} vs paper {:.3e}",
            paper::RESNET18_CLOCKS_ESTIMATE
        );
    }

    #[test]
    fn resnet_bottleneck_is_the_stem() {
        // conv1's 112×112×64 output traffic and the stem pool that consumes
        // it are tied for the bottleneck; either name is the stem.
        let m = CycleModel::analyze(&models::resnet18(1000));
        let b = &m.bottleneck().name;
        assert!(b.contains("conv0") || b.contains("pool1"), "bottleneck {b:?}");
        // The stem pool streams the padded 114×114×64 map.
        assert_eq!(m.period(), 114 * 114 * 64);
    }

    #[test]
    fn resnet_dfe_penalty_much_smaller_than_layer_ratio() {
        // ResNet-18 has ~2.5× the layer count of AlexNet but the streaming
        // latency grows far less (paper: +17.5%). Check the model's ratio
        // stays well under the serial ratio.
        let res = CycleModel::analyze(&models::resnet18(1000));
        let alex = CycleModel::analyze(&models::alexnet(1000));
        let latency_ratio = res.latency() as f64 / alex.latency() as f64;
        let serial_ratio = res.serial_bound() as f64 / alex.serial_bound() as f64;
        assert!(latency_ratio < serial_ratio, "overlap does not help?");
        // The paper reports +17.5%; our model gives more because its
        // AlexNet stem is far cheaper (stride-4 halts) while ResNet's
        // stride-2 stem dominates — see EXPERIMENTS.md for the discussion.
        assert!(
            (1.0..2.8).contains(&latency_ratio),
            "ResNet/AlexNet DFE latency ratio {latency_ratio}"
        );
    }

    #[test]
    fn stride_speedup_matches_section_3b1() {
        // AlexNet conv1 (stride 4): halting at every position instead of
        // only valid ones would cost ~13× more compute cycles (≈S²·share).
        let alex = models::alexnet(1000);
        let Stage::ConvInput { geom } = alex.stages[0] else { panic!("stem") };
        let strided = conv_cycles("s", &geom, Fold::UNIT);
        let dense_outputs = {
            let p = geom.padded_input();
            ((p.h - geom.filter.k + 1) * (p.w - geom.filter.k + 1) * geom.filter.o) as u64
        };
        let speedup = dense_outputs as f64 / strided.outputs as f64;
        assert!((12.0..18.0).contains(&speedup), "stride-4 halt speedup {speedup:.1}");
    }

    #[test]
    fn vgg32_time_in_band() {
        // Table IV: 0.8 ms per image at 105 MHz for the 32×32 CNV.
        let m = CycleModel::analyze(&models::vgg_like(32, 10, 2));
        let ms = CycleModel::ms(m.latency(), MAIA_FCLK_MHZ);
        assert!(
            (0.1..2.0).contains(&ms),
            "VGG-32 latency {ms} ms vs paper {}",
            paper::VGG32_TIME_MS
        );
    }

    #[test]
    fn unit_fold_plan_matches_plain_analysis() {
        use crate::folding::{Fold, FoldPlan};
        // Pinned (period, latency) of the unfolded networks: `paper-tables`
        // and the calibration bands rest on these.
        for (spec, period, latency) in [
            (models::resnet18(1000), 831_744, 1_015_169),
            (models::alexnet(1000), 290_400, 389_625),
            (models::vgg_like(32, 10, 2), 73_984, 107_477),
        ] {
            let plain = CycleModel::analyze(&spec);
            assert_eq!((plain.period(), plain.latency()), (period, latency), "{}", spec.name);
            // An explicit all-unit plan is the same as an empty one.
            let mut plan = FoldPlan::new();
            for l in &plain.layers {
                plan.set(&l.name, Fold::UNIT);
            }
            let explicit = CycleModel::analyze_folded(&spec, &plan);
            assert_eq!((explicit.period(), explicit.latency()), (period, latency));
        }
    }

    #[test]
    fn residual_ramp_moves_fill_from_conv_to_skip_glue() {
        use crate::folding::{Fold, FoldPlan};
        let spec = models::resnet18(1000);
        let unit = CycleModel::analyze_folded(&spec, &FoldPlan::new());
        let plan = FoldPlan::new().with("res2.conv1", Fold::new(1, 4));
        let folded = CycleModel::analyze_folded(&spec, &plan);
        let fill_of =
            |m: &CycleModel, name: &str| m.layers.iter().find(|l| l.name == name).expect(name).fill;
        // SIMD folding divides the conv's own window fill…
        let conv_unit = fill_of(&unit, "res2.conv1");
        let conv_folded = fill_of(&folded, "res2.conv1");
        assert_eq!(conv_folded, conv_unit.div_ceil(4));
        // …but the skip glue charges the saved cycles back: the split
        // still delivers the window at one element per clock.
        assert_eq!(fill_of(&unit, "res2.skip"), 0);
        assert_eq!(fill_of(&folded, "res2.skip"), conv_unit - conv_folded);
        // Net effect: the block's fill contribution is invariant under
        // SIMD folding — exactly what the simulator measures (the ramp
        // cannot be folded away).
        assert_eq!(fill_of(&folded, "res2.conv1") + fill_of(&folded, "res2.skip"), conv_unit);
    }

    #[test]
    fn folding_the_resnet_stem_cuts_the_period() {
        use crate::folding::{Fold, FoldPlan};
        let spec = models::resnet18(1000);
        let base = CycleModel::analyze_folded(&spec, &FoldPlan::new());
        let plan = FoldPlan::new().with("conv0", Fold::new(4, 4)).with("pool1", Fold::new(4, 4));
        let folded = CycleModel::analyze_folded(&spec, &plan);
        // The 114·114·64 stem-pool stream drops out of the bottleneck; the
        // new period is set by the unfolded res-block convs.
        assert_eq!(base.period(), 114 * 114 * 64);
        assert!(
            folded.period() * 3 <= base.period(),
            "folded period {} vs base {}",
            folded.period(),
            base.period()
        );
        let b = &folded.bottleneck().name;
        assert!(!b.contains("conv0") && !b.contains("pool1"), "bottleneck {b}");
    }

    #[test]
    fn period_is_max_and_serial_is_sum() {
        let m = CycleModel::analyze(&models::vgg_like(32, 10, 2));
        let max = m.layers.iter().map(|l| l.busy).max().unwrap();
        let sum: u64 = m.layers.iter().map(|l| l.busy).sum();
        assert_eq!(m.period(), max);
        assert_eq!(m.serial_bound(), sum);
        assert!(m.latency() >= m.period());
    }
}
