//! Per-stage FPGA resource estimation.
//!
//! The *structural* terms come straight from the paper's arithmetic:
//!
//! * window (shift-register) buffers of `I·(W·(K−1)+K)` elements — Fig. 4a;
//! * weight caches of `O` entries × `K·K·I` bits, mapped onto M20K BRAM in
//!   its 512×40 shape, so a cache with ≤384 entries wastes ≥25% of each
//!   block (§III-B1a);
//! * BatchNorm caches of `O` entries × 64 bits (§III-B1a);
//! * skip buffers in BRAM, one per reconvergent path at the depth
//!   [`skip_buffers`] gives it and the lowering allocates (§III-B5).
//!
//! The *infrastructure* terms (per-kernel stream controllers, manager glue,
//! pipelined popcount registers) are constants calibrated so that the model
//! lands on the paper's reported totals for all three networks (Table III
//! and Table IV); see `specs::paper` and the calibration tests.

use qnn_nn::{NetworkSpec, PoolKind, Stage};
use qnn_tensor::ConvGeometry;

use crate::folding::{Fold, FoldPlan};
use crate::skip::skip_buffers;
use dfe_platform::ResourceUsage;

/// LUTs per datapath bit-plane bit: XNOR + pipelined popcount compressor
/// tree + routing, per window bit per activation plane.
const LUT_PER_DATAPATH_BIT: f64 = 5.5;
/// Fixed LUTs per major kernel (convolution/FC): stream control, counters,
/// address generators, Maxeler manager glue.
const LUT_MAJOR_FIXED: u64 = 6_300;
/// Fixed LUTs per minor kernel (pad, pool, add, split, threshold).
const LUT_MINOR_FIXED: u64 = 1_000;
/// Global FF multiplier (tool/pipeline overhead over the structural bits).
const FF_SCALE: f64 = 1.7;
/// FF base per major kernel.
const FF_MAJOR_FIXED: u64 = 5_000;
/// FF base per minor kernel.
const FF_MINOR_FIXED: u64 = 1_000;
/// M20K width when configured at its minimum depth of 512.
const BRAM_WIDTH_BITS: u64 = 40;
/// Minimum BRAM depth (paper §III-B1a).
const BRAM_MIN_DEPTH: u64 = 512;
/// Kbits per M20K block.
const BRAM_BLOCK_KBITS: u64 = 20;
/// Housekeeping BRAM per kernel (stream FIFOs, control) in blocks.
const BRAM_PER_KERNEL_BLOCKS: u64 = 4;
/// Per-DFE infrastructure BRAM (PCIe/DMA buffers, manager) in blocks.
const BRAM_PER_DFE_BLOCKS: u64 = 100;
/// LUTs per extra input (SIMD) lane: wider window-buffer write ports and
/// the lane-steering muxes in front of them.
const LUT_PER_SIMD_LANE: u64 = 150;
/// FF bits per extra lane (input staging registers), before `FF_SCALE`.
const FF_PER_LANE: u64 = 64;

/// Infrastructure BRAM charged per opened device, exposed so the
/// partitioner and the whole-network estimator stay in lock-step.
pub const PER_DFE_INFRA_BRAM_KBITS: u64 = BRAM_PER_DFE_BLOCKS * BRAM_BLOCK_KBITS;

/// Resource estimate of one pipeline stage, with its kernel count.
#[derive(Clone, Copy, Debug, Default)]
pub struct StageResources {
    /// Combined usage of every kernel the stage lowers to.
    pub usage: ResourceUsage,
    /// Number of dataflow kernels (major + minor).
    pub kernels: usize,
}

fn bram_blocks(width_bits: u64, entries: u64) -> u64 {
    width_bits.div_ceil(BRAM_WIDTH_BITS) * entries.div_ceil(BRAM_MIN_DEPTH)
}

/// Allocated Kbits for a `entries × width_bits` cache after block-shape
/// quantization.
pub fn cache_alloc_kbits(width_bits: u64, entries: u64) -> u64 {
    bram_blocks(width_bits, entries) * BRAM_BLOCK_KBITS
}

/// Fraction of allocated weight-cache BRAM that is wasted by shape
/// quantization — the §III-B1a "at least 25%" effect when `entries < 512`.
pub fn cache_waste_fraction(width_bits: u64, entries: u64) -> f64 {
    // A block physically stores 512 × 40 bits regardless of the logical
    // cache shape mapped onto it.
    let alloc = (bram_blocks(width_bits, entries) * BRAM_MIN_DEPTH * BRAM_WIDTH_BITS) as f64;
    let used = (width_bits * entries) as f64;
    1.0 - used / alloc
}

/// Estimate one convolution (geometry includes padding; an upstream pad
/// inserter is charged when `geom.pad > 0`). `pe` replicates the
/// XNOR/popcount datapath and banks the weight cache (`pe` banks of
/// `⌈O/pe⌉` entries — banking never shrinks the cache, block quantization
/// only rounds up); `simd` widens the window-buffer write side.
fn conv_resources_folded(
    geom: &ConvGeometry,
    elem_bits: u32,
    planes: u32,
    with_bn: bool,
    fold: Fold,
) -> StageResources {
    let n = geom.filter.weights_per_filter() as u64;
    let o = geom.filter.o as u64;
    // More emit lanes than filters buys nothing; the DSE never asks, but
    // the estimate must stay sane (and monotone) if a caller does.
    let pe = (fold.pe as u64).min(o).max(1);
    let simd = fold.simd as u64;
    let datapath_bits = n * planes as u64;
    let window_bits = geom.depth_first_buffer() as u64 * elem_bits as u64;

    let mut luts = (LUT_PER_DATAPATH_BIT * (datapath_bits * pe) as f64) as u64
        + LUT_MAJOR_FIXED
        + LUT_PER_SIMD_LANE * (simd - 1);
    let mut ffs = (FF_SCALE
        * (window_bits + 2 * datapath_bits * pe + FF_MAJOR_FIXED + FF_PER_LANE * (simd - 1)) as f64)
        as u64;
    let mut bram = pe * bram_blocks(n, o.div_ceil(pe)); // banked weight cache
    if with_bn {
        bram += bram_blocks(64, o); // normalization cache
    }
    bram += BRAM_PER_KERNEL_BLOCKS;
    let mut kernels = 1;
    if geom.pad > 0 {
        luts += LUT_MINOR_FIXED + LUT_PER_SIMD_LANE * (simd - 1);
        ffs += (FF_SCALE * (FF_MINOR_FIXED + FF_PER_LANE * (simd - 1)) as f64) as u64;
        bram += BRAM_PER_KERNEL_BLOCKS;
        kernels += 1;
    }
    StageResources {
        usage: ResourceUsage { luts, ffs, bram_kbits: bram * BRAM_BLOCK_KBITS },
        kernels,
    }
}

fn minor_resources(window_bits: u64, count: usize) -> StageResources {
    StageResources {
        usage: ResourceUsage {
            luts: LUT_MINOR_FIXED * count as u64,
            ffs: (FF_SCALE * (window_bits + FF_MINOR_FIXED * count as u64) as f64) as u64,
            bram_kbits: BRAM_PER_KERNEL_BLOCKS * count as u64 * BRAM_BLOCK_KBITS,
        },
        kernels: count,
    }
}

/// Estimate one encoder stage: the 1×1 projection convolutions (foldable;
/// Q/K/V/ff1 carry fused thresholds, proj/ff2 emit raw accumulators), the
/// per-head attention tile engines with their gather/pending buffers, and
/// the stream glue (splits, head fan-out/concat, adders, LayerNorm).
/// `index` is the stage's position in the spec.
fn encoder_resources(
    geom: &qnn_nn::EncoderGeometry,
    act_bits: u32,
    plan: &FoldPlan,
    index: usize,
) -> StageResources {
    let projs = geom.projection_geometries();
    let mut suffixes = vec![("q", true), ("k", true), ("v", true), ("proj", false)];
    if geom.has_ffn() {
        suffixes.extend([("ff1", true), ("ff2", false)]);
    }
    let mut r = StageResources::default();
    for ((suffix, with_bn), g) in suffixes.iter().zip(&projs) {
        let fold = plan.get(&format!("enc{index}.{suffix}"));
        let c = conv_resources_folded(g, act_bits, act_bits, *with_bn, fold);
        r.usage = r.usage.plus(c.usage);
        r.kernels += c.kernels;
    }
    // Attention heads: each buffers three gathered seq×head_dim code tiles
    // plus the pending output tile.
    let tile_bits = (geom.seq_len * geom.head_dim) as u64 * act_bits as u64;
    let heads = minor_resources(4 * tile_bits * geom.heads as u64, geom.heads);
    r.usage = r.usage.plus(heads.usage);
    r.kernels += heads.kernels;
    let mut glue = 3 + 3 + 1 + 1 + 1; // splits, head fan-outs, concat, add, LN
    if geom.has_ffn() {
        glue += 3; // split_ff, add2, ln2
    }
    let g = minor_resources(0, glue);
    r.usage = r.usage.plus(g.usage);
    r.kernels += g.kernels;
    r
}

/// Estimate one pipeline stage under a [`FoldPlan`]; `index` is the
/// stage's position in the spec (it determines the lowering labels the
/// plan is keyed by). [`FoldPlan::new`] is the unfolded design. Each of
/// the stage's [`skip_buffers`] beside FIFOs of `fifo_capacity` (0 where
/// FIFOs go uncharged) is charged once, in BRAM.
pub fn estimate_stage_folded(
    stage: &Stage,
    act_bits: u32,
    index: usize,
    plan: &FoldPlan,
    fifo_capacity: usize,
) -> StageResources {
    let mut r = match *stage {
        Stage::ConvInput { geom } => {
            conv_resources_folded(&geom, 8, 8, true, plan.get(&format!("conv{index}")))
        }
        Stage::Conv { geom } => conv_resources_folded(
            &geom,
            act_bits,
            act_bits,
            true,
            plan.get(&format!("conv{index}")),
        ),
        Stage::Pool { pad, kind, .. } => {
            let win = stage.pool_window().expect("a pool stage slides a window");
            let window_bits = win.depth_first_buffer() as u64 * act_bits as u64;
            let kernels = if pad > 0 { 2 } else { 1 };
            let mut r = minor_resources(window_bits, kernels);
            if matches!(kind, PoolKind::AvgSum) {
                // Accumulator per channel.
                r.usage.luts += 500;
            }
            let f = plan.get(&format!("pool{index}"));
            let lanes = (f.pe + f.simd - 2) as u64;
            // Wider comparator front-end and emit mux per extra lane.
            r.usage.luts += LUT_PER_SIMD_LANE * lanes;
            r.usage.ffs += (FF_SCALE * (FF_PER_LANE * lanes) as f64) as u64;
            r
        }
        Stage::FullyConnected { in_features, out_features, bn_act } => {
            let geom = ConvGeometry::new(
                qnn_tensor::Shape3::new(1, 1, in_features),
                qnn_tensor::FilterShape::new(1, in_features, out_features),
                1,
                0,
            );
            // FC windows hold activation codes (the avg-pool widening is
            // folded into thresholds, not stored wider).
            conv_resources_folded(
                &geom,
                act_bits,
                act_bits,
                bn_act,
                plan.get(&format!("fc{index}")),
            )
        }
        Stage::Residual { geom } => {
            let mut r = conv_resources_folded(
                &geom.conv1,
                act_bits,
                act_bits,
                true,
                plan.get(&format!("res{index}.conv1")),
            );
            let c2 = conv_resources_folded(
                &geom.conv2,
                act_bits,
                act_bits,
                false,
                plan.get(&format!("res{index}.conv2")),
            );
            r.usage = r.usage.plus(c2.usage);
            r.kernels += c2.kernels;
            if let Some(ds) = geom.downsample {
                let d = conv_resources_folded(
                    &ds,
                    act_bits,
                    act_bits,
                    false,
                    plan.get(&format!("res{index}.ds")),
                );
                r.usage = r.usage.plus(d.usage);
                r.kernels += d.kernels;
            }
            let glue = minor_resources(0, 4); // add + 2 splits + threshold
            r.usage = r.usage.plus(glue.usage);
            r.kernels += glue.kernels;
            r
        }
        Stage::Encoder { ref geom } => encoder_resources(geom, act_bits, plan, index),
    };
    for b in skip_buffers(stage, fifo_capacity) {
        r.usage.bram_kbits += bram_blocks(b.bits.into(), b.depth as u64) * BRAM_BLOCK_KBITS;
    }
    r
}

/// Whole-network resource estimate.
#[derive(Clone, Debug)]
pub struct NetworkResources {
    /// Per-stage estimates, index-aligned with the spec.
    pub stages: Vec<StageResources>,
    /// Sum over stages (without per-DFE infrastructure).
    pub design: ResourceUsage,
    /// Total including per-DFE infrastructure for `num_dfes` devices.
    pub total: ResourceUsage,
    /// Number of DFEs assumed for the infrastructure term.
    pub num_dfes: usize,
}

/// Estimate the unfolded network spread over `num_dfes` devices.
pub fn estimate_network(spec: &NetworkSpec, num_dfes: usize) -> NetworkResources {
    estimate_network_folded(spec, num_dfes, &FoldPlan::new())
}

/// Whole-network estimate under a [`FoldPlan`], spread over `num_dfes`
/// devices.
pub fn estimate_network_folded(
    spec: &NetworkSpec,
    num_dfes: usize,
    plan: &FoldPlan,
) -> NetworkResources {
    assert!(num_dfes >= 1);
    let stages: Vec<StageResources> = spec
        .stages
        .iter()
        .enumerate()
        .map(|(i, s)| estimate_stage_folded(s, spec.act_bits, i, plan, 0))
        .collect();
    let design: ResourceUsage = stages.iter().map(|s| s.usage).sum();
    let infra = ResourceUsage {
        luts: 0,
        ffs: 0,
        bram_kbits: BRAM_PER_DFE_BLOCKS * BRAM_BLOCK_KBITS * num_dfes as u64,
    };
    NetworkResources { stages, design, total: design.plus(infra), num_dfes }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::specs::paper;
    use qnn_nn::models;
    use qnn_tensor::Shape3;

    fn within(actual: u64, reported: u64, tol: f64) -> bool {
        let (a, r) = (actual as f64, reported as f64);
        (a - r).abs() / r <= tol
    }

    /// Calibration: the model must land near the paper's Table III / IV
    /// totals. Tolerances are deliberately loose (these are estimates of a
    /// synthesis tool's output) but tight enough to catch regressions.
    #[test]
    fn alexnet_matches_table3_bands() {
        let r = estimate_network(&models::alexnet(1000), 3);
        assert!(within(r.total.luts, paper::ALEXNET_LUT, 0.30), "LUT {:?}", r.total);
        assert!(within(r.total.ffs, paper::ALEXNET_FF, 0.35), "FF {:?}", r.total);
        assert!(within(r.total.bram_kbits, paper::ALEXNET_BRAM_KBITS, 0.30), "BRAM {:?}", r.total);
    }

    #[test]
    fn resnet18_matches_table3_bands() {
        let r = estimate_network(&models::resnet18(1000), 3);
        assert!(within(r.total.luts, paper::RESNET18_LUT, 0.30), "LUT {:?}", r.total);
        assert!(within(r.total.ffs, paper::RESNET18_FF, 0.40), "FF {:?}", r.total);
        assert!(within(r.total.bram_kbits, paper::RESNET18_BRAM_KBITS, 0.45), "BRAM {:?}", r.total);
    }

    #[test]
    fn vgg32_matches_table4_bands() {
        let r = estimate_network(&models::vgg_like(32, 10, 2), 1);
        assert!(within(r.total.luts, paper::VGG32_LUT, 0.30), "LUT {:?}", r.total);
        assert!(within(r.total.ffs, paper::VGG32_FF, 0.30), "FF {:?}", r.total);
    }

    #[test]
    fn table3_orderings_reproduced() {
        let alex = estimate_network(&models::alexnet(1000), 3).total;
        let res = estimate_network(&models::resnet18(1000), 3).total;
        // ResNet: more LUTs and FFs (more layers); AlexNet: more BRAM (big
        // FC weight caches) — §IV-B2.
        assert!(res.luts > alex.luts);
        assert!(res.ffs > alex.ffs);
        assert!(alex.bram_kbits > res.bram_kbits);
        // "ResNet-18 requires ∼75% more LUTs": allow 40–120%.
        let ratio = res.luts as f64 / alex.luts as f64;
        assert!((1.4..2.2).contains(&ratio), "LUT ratio {ratio}");
    }

    #[test]
    fn bram_quantization_waste_is_at_least_25_percent() {
        // §III-B1a: max cache entries 384 < depth 512 ⇒ ≥25% waste.
        for o in [64u64, 128, 256, 384] {
            let waste = cache_waste_fraction(576, o);
            assert!(waste >= 0.25, "waste for O={o} is {waste}");
        }
        // A 512-entry cache has no depth waste (width may still waste).
        assert!(cache_waste_fraction(40 * 9, 512) < 0.01);
    }

    #[test]
    fn input_size_scaling_is_modest_for_vgg() {
        // Fig. 6: 32→96 increases resources by only ~5% (weights dominate
        // and are size-independent; only line buffers grow).
        let base = estimate_network(&models::vgg_like(32, 10, 2), 1).total;
        let big = estimate_network(&models::vgg_like(96, 10, 2), 1).total;
        let ff_growth = big.ffs as f64 / base.ffs as f64 - 1.0;
        let lut_growth = big.luts as f64 / base.luts as f64 - 1.0;
        let bram_growth = big.bram_kbits as f64 / base.bram_kbits as f64 - 1.0;
        assert!(lut_growth.abs() < 0.05, "LUT growth {lut_growth}");
        assert!(bram_growth.abs() < 0.05, "BRAM growth {bram_growth}");
        // FFs hold the line buffers, the only structure that scales with
        // the input width — they grow, but far less than the 9× pixel-count
        // increase. (The paper claims ~5% here even for FFs, which is hard
        // to reconcile with its own AlexNet FF total; see EXPERIMENTS.md.)
        assert!(ff_growth > 0.0 && ff_growth < 1.5, "FF growth {ff_growth}");
    }

    #[test]
    fn skip_connection_overhead_is_small() {
        // §III-B5: "the overhead of the addition of a skip connection is
        // negligible" in LUTs (one adder); the buffer costs BRAM.
        let full = estimate_network(&models::resnet18(1000), 3).total;
        let plain = estimate_network(&models::resnet18_plain(1000), 3).total;
        let lut_overhead = (full.luts as f64 - plain.luts as f64) / plain.luts as f64;
        assert!(
            lut_overhead < 0.15,
            "skip connections cost {:.1}% extra LUTs",
            lut_overhead * 100.0
        );
    }

    #[test]
    fn unit_fold_plan_matches_plain_estimate() {
        use crate::cycles::CycleModel;
        use crate::folding::{Fold, FoldPlan};
        // Pinned (design, total) of the unfolded networks at 2 DFEs, as
        // (LUT, FF, BRAM Kbits): the Table III/IV calibration rests on these.
        for (spec, design, total) in [
            (models::resnet18(1000), (537_636, 1_151_098, 27_940), (537_636, 1_151_098, 31_940)),
            (models::alexnet(1000), (348_580, 668_448, 32_560), (348_580, 668_448, 36_560)),
            (models::vgg_like(32, 10, 2), (145_828, 258_151, 5_440), (145_828, 258_151, 9_440)),
        ] {
            let usage = |(luts, ffs, bram_kbits)| ResourceUsage { luts, ffs, bram_kbits };
            let plain = estimate_network(&spec, 2);
            assert_eq!(plain.design, usage(design), "{}", spec.name);
            assert_eq!(plain.total, usage(total), "{}", spec.name);
            // An explicit all-unit plan is the same as an empty one.
            let mut plan = FoldPlan::new();
            for l in &CycleModel::analyze(&spec).layers {
                plan.set(&l.name, Fold::UNIT);
            }
            let explicit = estimate_network_folded(&spec, 2, &plan);
            assert_eq!((explicit.design, explicit.total), (plain.design, plain.total));
        }
    }

    #[test]
    fn folding_costs_resources() {
        use crate::folding::{Fold, FoldPlan};
        let spec = models::resnet18(1000);
        let base = estimate_network_folded(&spec, 1, &FoldPlan::new());
        let plan =
            FoldPlan::new().with("conv0", Fold::new(8, 4)).with("res2.conv1", Fold::new(4, 4));
        let folded = estimate_network_folded(&spec, 1, &plan);
        assert!(folded.design.luts > base.design.luts);
        assert!(folded.design.ffs > base.design.ffs);
        assert!(folded.design.bram_kbits >= base.design.bram_kbits);
        // A pe-8 stem conv replicates the 8-plane popcount datapath ~8×;
        // that must show up as a materially larger LUT bill.
        assert!(folded.design.luts as f64 > base.design.luts as f64 * 1.05);
    }

    #[test]
    fn stage_estimates_sum_to_design() {
        let spec = models::vgg_like(32, 10, 2);
        let r = estimate_network(&spec, 1);
        let sum: ResourceUsage = r.stages.iter().map(|s| s.usage).sum();
        assert_eq!(sum, r.design);
        assert!(r.total.bram_kbits > r.design.bram_kbits);
    }

    /// Each reconvergent path is charged once, in BRAM, at the depth
    /// [`skip_buffers`] gives it (the depth the lowering allocates): a
    /// stage's BRAM is its kernels' plus `bram_blocks` of those depths.
    #[test]
    fn skip_bram_is_charged_at_the_lowered_depths() {
        let plan = FoldPlan::new();
        for spec in [
            models::resnet18(1000),
            models::test_net(16, 10, 2),
            models::tiny_transformer(16, 2, 8, 10, 2, 32),
        ] {
            let bits = spec.act_bits;
            let conv = |g: &ConvGeometry, bn| {
                conv_resources_folded(g, bits, bits, bn, Fold::UNIT).usage.bram_kbits
            };
            for (i, stage) in spec.stages.iter().enumerate() {
                let kernels = match stage {
                    Stage::Residual { geom } => {
                        conv(&geom.conv1, true)
                            + conv(&geom.conv2, false)
                            + geom.downsample.map_or(0, |ds| conv(&ds, false))
                            + minor_resources(0, 4).usage.bram_kbits
                    }
                    Stage::Encoder { geom } => {
                        encoder_resources(geom, bits, &plan, i).usage.bram_kbits
                    }
                    _ => continue,
                };
                let skips: u64 = skip_buffers(stage, 0)
                    .iter()
                    .map(|b| bram_blocks(b.bits.into(), b.depth as u64) * BRAM_BLOCK_KBITS)
                    .sum();
                assert!(skips > 0, "{} stage {i} has no skip buffer", spec.name);
                let stage_bram = estimate_stage_folded(stage, bits, i, &plan, 0).usage.bram_kbits;
                assert_eq!(stage_bram, kernels + skips, "{} stage {i}", spec.name);
            }
        }
        // ResNet-18's first block: both 64-channel window fills at 58
        // padded columns, 2 · 64 · (58 · 2 + 3) = 15 232 elements.
        let res2 = skip_buffers(&models::resnet18(1000).stages[2], 512);
        assert_eq!(res2, [crate::SkipBuffer { suffix: "skipbuf", bits: 16, depth: 15_232 }]);
        // A widening downsample's skip grows with the FIFOs beside it, and
        // its charge with it.
        let conv = |i, o, k: usize| {
            ConvGeometry::new(Shape3::new(7, 7, i), qnn_tensor::FilterShape::new(k, i, o), 1, k / 2)
        };
        let geom = qnn_nn::ResidualGeometry {
            conv1: conv(1, 3, 3),
            conv2: conv(3, 3, 3),
            downsample: Some(conv(1, 3, 1)),
        };
        let stage = Stage::Residual { geom };
        let charged = |f| estimate_stage_folded(&stage, 1, 0, &plan, f).usage.bram_kbits;
        let skip = |f| bram_blocks(16, skip_buffers(&stage, f)[0].depth as u64) * BRAM_BLOCK_KBITS;
        assert!(skip(1024) > skip(0));
        assert_eq!(charged(1024) - charged(0), skip(1024) - skip(0));
    }
}
