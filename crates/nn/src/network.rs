//! A network = validated spec + quantized parameters.

use crate::init;
use crate::spec::{NetworkSpec, Stage};
use qnn_quant::{QuantSpec, ThresholdUnit};
use qnn_tensor::{BinaryFilters, ConvGeometry};
use qnn_testkit::Rng;

/// Parameters of one pipeline stage, mirroring [`Stage`].
#[derive(Clone, Debug)]
pub enum StageParams {
    /// Convolution (first-layer or hidden): binary filter bank + per-output-
    /// channel fused thresholds.
    Conv {
        /// Binarized weight cache contents.
        filters: BinaryFilters,
        /// One fused BatchNorm+activation unit per output feature map.
        thresholds: Vec<ThresholdUnit>,
    },
    /// Pooling has no parameters (paper §III-B2).
    Pool,
    /// Fully connected layer; `thresholds` is empty for the logits layer.
    FullyConnected {
        /// Binary weight rows (one per output neuron).
        filters: BinaryFilters,
        /// Fused thresholds (empty ⇒ raw logits output).
        thresholds: Vec<ThresholdUnit>,
    },
    /// Residual block: two convolutions, thresholds after conv1 (mid) and
    /// after the skip adder (out), optional downsample filters.
    Residual {
        /// conv1 weights.
        filters1: BinaryFilters,
        /// Fused BN+act applied to conv1 output (before conv2).
        thr_mid: Vec<ThresholdUnit>,
        /// conv2 weights.
        filters2: BinaryFilters,
        /// Fused BN+act applied after the skip adder.
        thr_out: Vec<ThresholdUnit>,
        /// 1×1 downsample weights for shape-changing blocks.
        downsample: Option<BinaryFilters>,
    },
    /// Encoder block parameters (boxed: the variant carries four filter
    /// banks plus LayerNorm gains and an optional FFN).
    Encoder(Box<EncoderParams>),
}

/// Parameters of one encoder block, mirroring [`crate::EncoderGeometry`].
#[derive(Clone, Debug)]
pub struct EncoderParams {
    /// Query projection weights (`d_model → d_model`, 1×1).
    pub wq: BinaryFilters,
    /// Fused BN+act quantizing the query accumulators to codes.
    pub thr_q: Vec<ThresholdUnit>,
    /// Key projection weights.
    pub wk: BinaryFilters,
    /// Fused BN+act quantizing the key accumulators to codes.
    pub thr_k: Vec<ThresholdUnit>,
    /// Value projection weights.
    pub wv: BinaryFilters,
    /// Fused BN+act quantizing the value accumulators to codes.
    pub thr_v: Vec<ThresholdUnit>,
    /// Output projection weights (raw accumulators into the skip adder).
    pub wo: BinaryFilters,
    /// Per-channel integer LayerNorm gains (positive).
    pub ln_gain: Vec<i32>,
    /// Feed-forward sublayer, when `ff_hidden > 0`.
    pub ffn: Option<EncoderFfn>,
}

/// Feed-forward sublayer parameters of an encoder block.
#[derive(Clone, Debug)]
pub struct EncoderFfn {
    /// First FFN projection (`d_model → ff_hidden`).
    pub w1: BinaryFilters,
    /// Fused BN+act after the first projection.
    pub thr1: Vec<ThresholdUnit>,
    /// Second FFN projection (`ff_hidden → d_model`, raw accumulators).
    pub w2: BinaryFilters,
    /// LayerNorm gains of the second sublayer.
    pub ln2_gain: Vec<i32>,
}

/// A complete, runnable network.
#[derive(Clone, Debug)]
pub struct Network {
    /// The validated architecture.
    pub spec: NetworkSpec,
    /// Per-stage parameters, index-aligned with `spec.stages`.
    pub params: Vec<StageParams>,
}

fn conv_filters(rng: &mut Rng, geom: &ConvGeometry) -> BinaryFilters {
    let w = init::random_weights(rng, geom.filter.total_weights());
    BinaryFilters::from_float_rows(&w, geom.filter.weights_per_filter())
}

fn conv_thresholds(
    rng: &mut Rng,
    geom: &ConvGeometry,
    code_levels: Option<u32>,
    act: &QuantSpec,
) -> Vec<ThresholdUnit> {
    (0..geom.filter.o)
        .map(|_| {
            let bn =
                init::random_bn(rng, geom.filter.weights_per_filter(), code_levels, act.levels());
            ThresholdUnit::from_batchnorm(&bn, act)
        })
        .collect()
}

impl Network {
    /// Instantiate a network with seeded random parameters (see
    /// `init` for why the distributions are shaped the way they are).
    pub fn random(spec: NetworkSpec, seed: u64) -> Self {
        let mut rng = init::rng(seed);
        let act = spec.activation_spec();
        let code_levels = Some(act.levels());
        let params = spec
            .stages
            .iter()
            .map(|stage| match *stage {
                Stage::ConvInput { geom } => StageParams::Conv {
                    filters: conv_filters(&mut rng, &geom),
                    thresholds: conv_thresholds(&mut rng, &geom, None, &act),
                },
                Stage::Conv { geom } => StageParams::Conv {
                    filters: conv_filters(&mut rng, &geom),
                    thresholds: conv_thresholds(&mut rng, &geom, code_levels, &act),
                },
                Stage::Pool { .. } => StageParams::Pool,
                Stage::FullyConnected { in_features, out_features, bn_act } => {
                    let w = init::random_weights(&mut rng, in_features * out_features);
                    let filters = BinaryFilters::from_float_rows(&w, in_features);
                    let thresholds = if bn_act {
                        (0..out_features)
                            .map(|_| {
                                let bn = init::random_bn(
                                    &mut rng,
                                    in_features,
                                    code_levels,
                                    act.levels(),
                                );
                                ThresholdUnit::from_batchnorm(&bn, &act)
                            })
                            .collect()
                    } else {
                        Vec::new()
                    };
                    StageParams::FullyConnected { filters, thresholds }
                }
                Stage::Residual { geom } => StageParams::Residual {
                    filters1: conv_filters(&mut rng, &geom.conv1),
                    thr_mid: conv_thresholds(&mut rng, &geom.conv1, code_levels, &act),
                    filters2: conv_filters(&mut rng, &geom.conv2),
                    thr_out: conv_thresholds(&mut rng, &geom.conv2, code_levels, &act),
                    downsample: geom.downsample.as_ref().map(|d| conv_filters(&mut rng, d)),
                },
                Stage::Encoder { geom } => {
                    let projs = geom.projection_geometries();
                    let gains = |rng: &mut Rng, n: usize| -> Vec<i32> {
                        (0..n).map(|_| rng.gen_range(1i32..=4)).collect()
                    };
                    let wq = conv_filters(&mut rng, &projs[0]);
                    let thr_q = conv_thresholds(&mut rng, &projs[0], code_levels, &act);
                    let wk = conv_filters(&mut rng, &projs[1]);
                    let thr_k = conv_thresholds(&mut rng, &projs[1], code_levels, &act);
                    let wv = conv_filters(&mut rng, &projs[2]);
                    let thr_v = conv_thresholds(&mut rng, &projs[2], code_levels, &act);
                    let wo = conv_filters(&mut rng, &projs[3]);
                    let ln_gain = gains(&mut rng, geom.d_model);
                    let ffn = geom.has_ffn().then(|| EncoderFfn {
                        w1: conv_filters(&mut rng, &projs[4]),
                        thr1: conv_thresholds(&mut rng, &projs[4], code_levels, &act),
                        w2: conv_filters(&mut rng, &projs[5]),
                        ln2_gain: (0..geom.d_model).map(|_| rng.gen_range(1i32..=4)).collect(),
                    });
                    StageParams::Encoder(Box::new(EncoderParams {
                        wq,
                        thr_q,
                        wk,
                        thr_k,
                        wv,
                        thr_v,
                        wo,
                        ln_gain,
                        ffn,
                    }))
                }
            })
            .collect();
        Self { spec, params }
    }
}

impl NetworkSpec {
    /// The activation quantizer implied by `act_bits`: codes over
    /// `[0, 2ⁿ)` so that code and value coincide (`d = 1`).
    pub fn activation_spec(&self) -> QuantSpec {
        QuantSpec::new(self.act_bits, 0.0, (1u32 << self.act_bits) as f32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{PoolKind, SpecBuilder};
    use qnn_tensor::{FilterShape, Shape3};

    fn spec() -> NetworkSpec {
        let g1 = ConvGeometry::new(Shape3::square(8, 3), FilterShape::new(3, 3, 4), 1, 1);
        SpecBuilder::new("t", Shape3::square(8, 3), 2)
            .conv_input(g1)
            .pool(Shape3::square(8, 4), 2, 2, 0, PoolKind::Max)
            .fully_connected(64, 10, false)
            .try_build()
            .expect("valid spec")
    }

    #[test]
    fn random_network_is_deterministic_per_seed() {
        let a = Network::random(spec(), 5);
        let b = Network::random(spec(), 5);
        match (&a.params[0], &b.params[0]) {
            (
                StageParams::Conv { filters: fa, thresholds: ta },
                StageParams::Conv { filters: fb, thresholds: tb },
            ) => {
                assert_eq!(fa.filter(0), fb.filter(0));
                assert_eq!(ta, tb);
            }
            _ => panic!("expected conv params"),
        }
    }

    #[test]
    fn params_align_with_stages() {
        let n = Network::random(spec(), 1);
        assert_eq!(n.params.len(), n.spec.stages.len());
        assert!(matches!(n.params[1], StageParams::Pool));
        match &n.params[2] {
            StageParams::FullyConnected { filters, thresholds } => {
                assert_eq!(filters.num_filters(), 10);
                assert_eq!(filters.bits_per_filter(), 64);
                assert!(thresholds.is_empty(), "logits layer has no activation");
            }
            _ => panic!("expected fc params"),
        }
    }

    #[test]
    fn activation_spec_levels_match_bits() {
        assert_eq!(spec().activation_spec().levels(), 4);
    }
}
