//! Network intermediate representation: an ordered list of stages with fully
//! resolved geometry.
//!
//! The spec is shape-checked at construction, so the streaming compiler, the
//! reference interpreter and the analytic hardware models all consume one
//! validated description and can never disagree about sizes.
//!
//! Construction goes through [`SpecBuilder`], whose `try_build` returns a
//! typed [`SpecError`] instead of panicking. Stages are stored as an
//! ordered list, but two of them — [`Stage::Residual`] and
//! [`Stage::Encoder`] — expand into *branching* subgraphs (skip splits,
//! attention-head fan-out/rejoin) when the compiler lowers them.

use qnn_tensor::{ConvGeometry, FilterShape, Shape3};

/// Pooling flavor. The paper uses max pooling everywhere except the final
/// global pooling of ResNet-18, which is an average (paper §III-B2).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PoolKind {
    /// Maximum over the window.
    Max,
    /// Sum over the window (average with the divisor folded into the next
    /// layer's thresholds, keeping arithmetic integral).
    AvgSum,
}

/// Geometry of one residual building block (paper Fig. 2 / §III-B5): two
/// convolutions, an optional 1×1 strided downsample on the skip path, and
/// the skip buffer + adder.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ResidualGeometry {
    /// First convolution (may be strided for downsampling blocks).
    pub conv1: ConvGeometry,
    /// Second convolution (always stride 1 in ResNet-18).
    pub conv2: ConvGeometry,
    /// Skip-path 1×1 convolution when shape changes (conv3_1, conv4_1,
    /// conv5_1 in Table I); `None` for identity skips.
    pub downsample: Option<ConvGeometry>,
}

impl ResidualGeometry {
    /// Output shape of the block.
    pub fn output(&self) -> Shape3 {
        self.conv2.output()
    }

    /// Input shape of the block.
    pub fn input(&self) -> Shape3 {
        self.conv1.input
    }

    /// Internal consistency, checked by [`SpecBuilder::try_build`].
    fn check(&self) -> Result<(), String> {
        if self.conv1.output() != self.conv2.input {
            return Err("residual conv1 output must feed conv2".into());
        }
        match self.downsample {
            Some(ds) => {
                if ds.input != self.conv1.input {
                    return Err("downsample reads the block input".into());
                }
                if ds.output() != self.conv2.output() {
                    return Err("downsample must match block output".into());
                }
            }
            None => {
                if self.conv1.input != self.conv2.output() {
                    return Err("identity skip requires matching input/output shapes".into());
                }
            }
        }
        Ok(())
    }
}

/// Geometry of one streaming encoder block (quantized multi-head
/// attention + residual + LayerNorm, optionally followed by a
/// feed-forward sublayer with its own residual + LayerNorm).
///
/// The token sequence rides the existing tensor plumbing as a
/// `seq_len × 1 × d_model` map — one "pixel row" per token, channels
/// carrying the embedding — so every stream, kernel and host interface
/// built for images works unchanged.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EncoderGeometry {
    /// Tokens per sequence (the map height).
    pub seq_len: usize,
    /// Embedding width (the map channel count); `heads · head_dim`.
    pub d_model: usize,
    /// Attention heads. Bounded by the per-kernel stream fan-out limit
    /// (`dfe_platform::MAX_SPAN_PORTS` = 8).
    pub heads: usize,
    /// Per-head feature width.
    pub head_dim: usize,
    /// Hidden width of the optional feed-forward sublayer; `0` disables
    /// the FFN (attention + LayerNorm only).
    pub ff_hidden: usize,
}

impl EncoderGeometry {
    /// Input and output shape of the block (encoders preserve shape).
    pub fn shape(&self) -> Shape3 {
        Shape3::new(self.seq_len, 1, self.d_model)
    }

    /// Whether the feed-forward sublayer is present.
    pub fn has_ffn(&self) -> bool {
        self.ff_hidden > 0
    }

    /// Internal consistency, checked by [`SpecBuilder::try_build`].
    fn check(&self) -> Result<(), String> {
        if self.seq_len == 0 {
            return Err("encoder needs at least one token".into());
        }
        if self.heads == 0 || self.head_dim == 0 {
            return Err("encoder needs at least one head of positive width".into());
        }
        if self.heads > 8 {
            return Err(format!(
                "encoder fan-out of {} heads exceeds the 8-port stream limit",
                self.heads
            ));
        }
        if self.d_model != self.heads * self.head_dim {
            return Err(format!(
                "d_model {} must equal heads {} × head_dim {}",
                self.d_model, self.heads, self.head_dim
            ));
        }
        Ok(())
    }

    /// The 1×1 projection geometries of the block, in dataflow order:
    /// Q, K, V, output projection, then FF1/FF2 when the FFN is present.
    /// Each is a per-token matvec, which is exactly a 1×1 convolution
    /// over the `seq_len × 1 × d_model` map.
    pub fn projection_geometries(&self) -> Vec<ConvGeometry> {
        let proj = |in_c: usize, out_c: usize| {
            ConvGeometry::new(
                Shape3::new(self.seq_len, 1, in_c),
                FilterShape::new(1, in_c, out_c),
                1,
                0,
            )
        };
        let mut v = vec![
            proj(self.d_model, self.d_model), // Q
            proj(self.d_model, self.d_model), // K
            proj(self.d_model, self.d_model), // V
            proj(self.d_model, self.d_model), // output projection
        ];
        if self.has_ffn() {
            v.push(proj(self.d_model, self.ff_hidden));
            v.push(proj(self.ff_hidden, self.d_model));
        }
        v
    }

    /// Multiply–accumulates of the attention core itself (QKᵀ + AV),
    /// excluded from `conv_geometries` because they are not convolutions.
    pub fn attention_macs(&self) -> u64 {
        let per_head = 2 * self.seq_len * self.seq_len * self.head_dim;
        (self.heads * per_head) as u64
    }
}

/// One pipeline stage. Every stage knows its input shape; output shapes are
/// derived.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Stage {
    /// First-layer convolution over signed 8-bit pixels streamed from the
    /// CPU. `bn_act` is always true in the paper's networks.
    ConvInput {
        /// Convolution geometry.
        geom: ConvGeometry,
    },
    /// Hidden convolution over activation codes, followed by fused
    /// BatchNorm + n-bit activation.
    Conv {
        /// Convolution geometry.
        geom: ConvGeometry,
    },
    /// Spatial pooling (no parameters, paper §III-B2).
    Pool {
        /// Input feature-map shape.
        input: Shape3,
        /// Window side.
        k: usize,
        /// Stride.
        stride: usize,
        /// Symmetric padding (max pooling pads with code 0, the lowest
        /// representable level, mirroring the paper's −1 padding).
        pad: usize,
        /// Max or average-sum.
        kind: PoolKind,
    },
    /// Fully connected layer, implemented as a 1×1 convolution over the
    /// flattened map (paper §III-B4). When `bn_act` is false this is the
    /// output layer and produces raw logits.
    FullyConnected {
        /// Flattened input features.
        in_features: usize,
        /// Output neurons.
        out_features: usize,
        /// Apply fused BatchNorm + activation (false for the logits layer).
        bn_act: bool,
    },
    /// Residual building block (two convolutions + skip, paper §III-B5).
    Residual {
        /// Block geometry.
        geom: ResidualGeometry,
    },
    /// Streaming encoder block: quantized multi-head attention with a
    /// threshold-softmax, residual skip, integer LayerNorm, and an
    /// optional feed-forward sublayer. Lowers to a branching kernel
    /// subgraph (heads fan out and rejoin).
    Encoder {
        /// Block geometry.
        geom: EncoderGeometry,
    },
}

impl Stage {
    /// Shape of the tensor this stage consumes. FC layers consume the
    /// flattened form, reported as `1×1×in_features`.
    pub fn input_shape(&self) -> Shape3 {
        match *self {
            Stage::ConvInput { geom } | Stage::Conv { geom } => geom.input,
            Stage::Pool { input, .. } => input,
            Stage::FullyConnected { in_features, .. } => Shape3::new(1, 1, in_features),
            Stage::Residual { geom } => geom.input(),
            Stage::Encoder { geom } => geom.shape(),
        }
    }

    /// Shape of the tensor this stage produces.
    pub fn output_shape(&self) -> Shape3 {
        match *self {
            Stage::ConvInput { geom } | Stage::Conv { geom } => geom.output(),
            Stage::Pool { input, k, stride, pad, .. } => {
                let ph = input.h + 2 * pad;
                let pw = input.w + 2 * pad;
                Shape3::new((ph - k) / stride + 1, (pw - k) / stride + 1, input.c)
            }
            Stage::FullyConnected { out_features, .. } => Shape3::new(1, 1, out_features),
            Stage::Residual { geom } => geom.output(),
            Stage::Encoder { geom } => geom.shape(),
        }
    }

    /// Binary weights held by this stage (0 for pooling).
    pub fn weight_bits(&self) -> usize {
        match *self {
            Stage::ConvInput { geom } | Stage::Conv { geom } => geom.filter.total_weights(),
            Stage::Pool { .. } => 0,
            Stage::FullyConnected { in_features, out_features, .. } => in_features * out_features,
            Stage::Residual { geom } => {
                geom.conv1.filter.total_weights()
                    + geom.conv2.filter.total_weights()
                    + geom.downsample.map_or(0, |d| d.filter.total_weights())
            }
            Stage::Encoder { geom } => geom
                .projection_geometries()
                .iter()
                .map(|g| g.filter.total_weights())
                .sum(),
        }
    }

    /// Number of neurons carrying BatchNorm threshold parameters.
    pub fn bn_neurons(&self) -> usize {
        match *self {
            Stage::ConvInput { geom } | Stage::Conv { geom } => geom.filter.o,
            Stage::Pool { .. } => 0,
            Stage::FullyConnected { out_features, bn_act, .. } => {
                if bn_act {
                    out_features
                } else {
                    0
                }
            }
            // Mid BN after conv1 and output BN after the adder.
            Stage::Residual { geom } => geom.conv1.filter.o + geom.conv2.filter.o,
            // Thresholded Q/K/V projections, plus the FF1 activation.
            Stage::Encoder { geom } => 3 * geom.d_model + geom.ff_hidden,
        }
    }

    /// Convolution geometries contained in this stage, in dataflow order.
    pub fn conv_geometries(&self) -> Vec<ConvGeometry> {
        match *self {
            Stage::ConvInput { geom } | Stage::Conv { geom } => vec![geom],
            Stage::Pool { .. } => Vec::new(),
            Stage::FullyConnected { in_features, out_features, .. } => {
                // FC as a 1×1 convolution over a 1×1×in_features map.
                vec![ConvGeometry::new(
                    Shape3::new(1, 1, in_features),
                    FilterShape::new(1, in_features, out_features),
                    1,
                    0,
                )]
            }
            Stage::Residual { geom } => {
                let mut v = vec![geom.conv1, geom.conv2];
                if let Some(d) = geom.downsample {
                    v.push(d);
                }
                v
            }
            Stage::Encoder { geom } => geom.projection_geometries(),
        }
    }
}

/// Why a [`SpecBuilder`] rejected a stage list.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SpecError {
    /// The stage list was empty.
    Empty,
    /// The first stage was not the fixed-point input convolution.
    FirstStageNotInput,
    /// Consecutive stages disagree about shapes.
    ShapeMismatch {
        /// Index of the offending stage.
        index: usize,
        /// Debug rendering of the offending stage.
        stage: String,
        /// The shape the stage declares it consumes.
        expected: Shape3,
        /// The shape the previous stage actually produces.
        found: Shape3,
    },
    /// A residual or encoder block is internally inconsistent.
    InvalidStage {
        /// Index of the offending stage.
        index: usize,
        /// What is wrong with it.
        reason: String,
    },
}

impl std::fmt::Display for SpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SpecError::Empty => write!(f, "network needs at least one stage"),
            SpecError::FirstStageNotInput => {
                write!(f, "first stage must be the fixed-point input convolution")
            }
            SpecError::ShapeMismatch { index, stage, expected, found } => write!(
                f,
                "stage {index} of {stage} expects input {expected:?} but receives {found:?}"
            ),
            SpecError::InvalidStage { index, reason } => {
                write!(f, "stage {index}: {reason}")
            }
        }
    }
}

impl std::error::Error for SpecError {}

/// Typed constructor for [`NetworkSpec`]: accumulate stages, then
/// [`try_build`](SpecBuilder::try_build) shape-checks the chain and
/// returns a typed [`SpecError`] instead of panicking. The per-stage
/// helpers (`conv`, `pool`, `residual`, `encoder`, …) replace the
/// hand-assembled `Vec<Stage>` literals the model zoo used to carry.
#[derive(Clone, Debug)]
pub struct SpecBuilder {
    name: String,
    input: Shape3,
    act_bits: u32,
    stages: Vec<Stage>,
}

impl SpecBuilder {
    /// Start a spec: model name, input shape, activation bits.
    pub fn new(name: impl Into<String>, input: Shape3, act_bits: u32) -> Self {
        Self { name: name.into(), input, act_bits, stages: Vec::new() }
    }

    /// Append an arbitrary stage.
    pub fn stage(mut self, stage: Stage) -> Self {
        self.stages.push(stage);
        self
    }

    /// Append the fixed-point input convolution.
    pub fn conv_input(self, geom: ConvGeometry) -> Self {
        self.stage(Stage::ConvInput { geom })
    }

    /// Append a hidden convolution (fused BN + activation).
    pub fn conv(self, geom: ConvGeometry) -> Self {
        self.stage(Stage::Conv { geom })
    }

    /// Append a pooling stage.
    pub fn pool(self, input: Shape3, k: usize, stride: usize, pad: usize, kind: PoolKind) -> Self {
        self.stage(Stage::Pool { input, k, stride, pad, kind })
    }

    /// Append a residual block.
    pub fn residual(self, geom: ResidualGeometry) -> Self {
        self.stage(Stage::Residual { geom })
    }

    /// Append a streaming encoder block.
    pub fn encoder(self, geom: EncoderGeometry) -> Self {
        self.stage(Stage::Encoder { geom })
    }

    /// Append a fully connected layer.
    pub fn fully_connected(self, in_features: usize, out_features: usize, bn_act: bool) -> Self {
        self.stage(Stage::FullyConnected { in_features, out_features, bn_act })
    }

    /// Shape-check the chain and build the spec.
    ///
    /// FC layers accept any predecessor whose element count matches (the
    /// flatten is the identity in stream order); every other stage must
    /// match shapes exactly.
    pub fn try_build(self) -> Result<NetworkSpec, SpecError> {
        let Self { name, input, act_bits, stages } = self;
        if stages.is_empty() {
            return Err(SpecError::Empty);
        }
        if !matches!(stages[0], Stage::ConvInput { .. }) {
            return Err(SpecError::FirstStageNotInput);
        }
        let mut cur = input;
        for (i, stage) in stages.iter().enumerate() {
            let block_check = match stage {
                Stage::Residual { geom } => geom.check(),
                Stage::Encoder { geom } => geom.check(),
                _ => Ok(()),
            };
            if let Err(reason) = block_check {
                return Err(SpecError::InvalidStage { index: i, reason });
            }
            let expect = stage.input_shape();
            let ok = if matches!(stage, Stage::FullyConnected { .. }) {
                expect.len() == cur.len()
            } else {
                expect == cur
            };
            if !ok {
                return Err(SpecError::ShapeMismatch {
                    index: i,
                    stage: format!("{stage:?}"),
                    expected: expect,
                    found: cur,
                });
            }
            cur = stage.output_shape();
        }
        Ok(NetworkSpec { name, input, act_bits, stages })
    }
}

/// A validated network description.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct NetworkSpec {
    /// Human-readable model name (used in reports and tables).
    pub name: String,
    /// Image input shape (H×W×3 for the paper's datasets); encoders use
    /// `seq_len × 1 × channels` token sequences.
    pub input: Shape3,
    /// Hidden activation bits (2 in the paper; 1 for the FINN comparison).
    pub act_bits: u32,
    /// Stages in dataflow order.
    pub stages: Vec<Stage>,
}

impl NetworkSpec {
    /// Final output shape (1×1×classes for the paper's networks).
    pub fn output_shape(&self) -> Shape3 {
        self.stages.last().expect("validated non-empty").output_shape()
    }

    /// Number of classes (channels of the final stage).
    pub fn classes(&self) -> usize {
        self.output_shape().len()
    }

    /// Total binary weights in the model.
    pub fn total_weight_bits(&self) -> usize {
        self.stages.iter().map(Stage::weight_bits).sum()
    }

    /// Total BatchNorm-carrying neurons.
    pub fn total_bn_neurons(&self) -> usize {
        self.stages.iter().map(Stage::bn_neurons).sum()
    }

    /// All convolution geometries in dataflow order (FC included as 1×1).
    pub fn conv_geometries(&self) -> Vec<ConvGeometry> {
        self.stages.iter().flat_map(Stage::conv_geometries).collect()
    }

    /// Total multiply–accumulate operations per image (attention QKᵀ/AV
    /// cores included).
    pub fn total_macs(&self) -> u64 {
        let conv: u64 = self.conv_geometries().iter().map(ConvGeometry::macs).sum();
        let attn: u64 = self
            .stages
            .iter()
            .map(|s| match s {
                Stage::Encoder { geom } => geom.attention_macs(),
                _ => 0,
            })
            .sum();
        conv + attn
    }

    /// Count of residual blocks (skip connections); encoder blocks carry
    /// one skip per sublayer.
    pub fn num_skip_connections(&self) -> usize {
        self.stages
            .iter()
            .map(|s| match s {
                Stage::Residual { .. } => 1,
                Stage::Encoder { geom } => 1 + usize::from(geom.has_ffn()),
                _ => 0,
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_spec() -> NetworkSpec {
        let g1 = ConvGeometry::new(Shape3::square(8, 3), FilterShape::new(3, 3, 4), 1, 1);
        let g2 = ConvGeometry::new(Shape3::square(8, 4), FilterShape::new(3, 4, 4), 1, 1);
        SpecBuilder::new("tiny", Shape3::square(8, 3), 2)
            .conv_input(g1)
            .conv(g2)
            .pool(Shape3::square(8, 4), 2, 2, 0, PoolKind::Max)
            .fully_connected(4 * 4 * 4, 10, false)
            .try_build()
            .expect("valid spec")
    }

    #[test]
    fn tiny_spec_shapes_chain() {
        let spec = tiny_spec();
        assert_eq!(spec.output_shape(), Shape3::new(1, 1, 10));
        assert_eq!(spec.classes(), 10);
    }

    #[test]
    fn weight_and_bn_counts() {
        let spec = tiny_spec();
        // conv1: 3·3·3·4 = 108; conv2: 3·3·4·4 = 144; fc: 64·10 = 640.
        assert_eq!(spec.total_weight_bits(), 108 + 144 + 640);
        // BN on conv1 (4) + conv2 (4); the logits FC has none.
        assert_eq!(spec.total_bn_neurons(), 8);
    }

    #[test]
    fn macs_are_summed_over_stages() {
        let spec = tiny_spec();
        let expected: u64 = (8 * 8 * 4 * 27) + (8 * 8 * 4 * 36) + (10 * 64);
        assert_eq!(spec.total_macs(), expected);
    }

    #[test]
    fn residual_geometry_validation_accepts_table1_block() {
        let c1 = ConvGeometry::new(Shape3::square(56, 64), FilterShape::new(3, 64, 64), 1, 1);
        let c2 = c1;
        let geom = ResidualGeometry { conv1: c1, conv2: c2, downsample: None };
        assert_eq!(geom.check(), Ok(()));
        assert_eq!(geom.output(), Shape3::square(56, 64));
    }

    #[test]
    fn residual_downsample_block_validates() {
        let c1 = ConvGeometry::new(Shape3::square(56, 64), FilterShape::new(3, 64, 128), 2, 1);
        let c2 = ConvGeometry::new(Shape3::square(28, 128), FilterShape::new(3, 128, 128), 1, 1);
        let ds = ConvGeometry::new(Shape3::square(56, 64), FilterShape::new(1, 64, 128), 2, 0);
        let geom = ResidualGeometry { conv1: c1, conv2: c2, downsample: Some(ds) };
        assert_eq!(geom.check(), Ok(()));
        assert_eq!(geom.output(), Shape3::square(28, 128));
    }

    #[test]
    fn residual_shape_change_without_downsample_is_rejected() {
        let c1 = ConvGeometry::new(Shape3::square(56, 64), FilterShape::new(3, 64, 128), 2, 1);
        let c2 = ConvGeometry::new(Shape3::square(28, 128), FilterShape::new(3, 128, 128), 1, 1);
        let geom = ResidualGeometry { conv1: c1, conv2: c2, downsample: None };
        let reason = geom.check().unwrap_err();
        assert!(reason.contains("identity skip"), "{reason}");
    }

    fn encoder_geom(seq: usize, heads: usize, head_dim: usize, ff: usize) -> EncoderGeometry {
        EncoderGeometry {
            seq_len: seq,
            d_model: heads * head_dim,
            heads,
            head_dim,
            ff_hidden: ff,
        }
    }

    #[test]
    fn builder_accepts_an_encoder_chain() {
        let d = 8;
        let embed = ConvGeometry::new(Shape3::new(6, 1, 3), FilterShape::new(1, 3, d), 1, 0);
        let spec = SpecBuilder::new("txf", Shape3::new(6, 1, 3), 2)
            .conv_input(embed)
            .encoder(encoder_geom(6, 2, 4, 0))
            .encoder(encoder_geom(6, 4, 2, 16))
            .fully_connected(6 * d, 5, false)
            .try_build()
            .expect("valid transformer spec");
        assert_eq!(spec.output_shape(), Shape3::new(1, 1, 5));
        // Per plain encoder: 4 d² projections; FFN adds 2·d·ff.
        let enc_bits = 4 * d * d;
        assert_eq!(
            spec.total_weight_bits(),
            3 * d + enc_bits + (enc_bits + 2 * d * 16) + 6 * d * 5
        );
        assert_eq!(spec.num_skip_connections(), 3);
        // Attention macs: per encoder 2·heads·seq²·head_dim = 2·seq²·d.
        assert!(spec.total_macs() > 2 * 2 * 36 * 8);
    }

    #[test]
    fn builder_rejects_mismatched_encoder_geometry() {
        let embed = ConvGeometry::new(Shape3::new(4, 1, 3), FilterShape::new(1, 3, 8), 1, 0);
        let bad = EncoderGeometry { seq_len: 4, d_model: 8, heads: 3, head_dim: 2, ff_hidden: 0 };
        let err = SpecBuilder::new("bad", Shape3::new(4, 1, 3), 2)
            .conv_input(embed)
            .encoder(bad)
            .fully_connected(32, 4, false)
            .try_build()
            .unwrap_err();
        assert!(matches!(err, SpecError::InvalidStage { index: 1, .. }), "{err}");
    }

    #[test]
    fn builder_reports_shape_mismatch_as_typed_error() {
        let g1 = ConvGeometry::new(Shape3::square(8, 3), FilterShape::new(3, 3, 4), 1, 1);
        let g2 = ConvGeometry::new(Shape3::square(7, 4), FilterShape::new(3, 4, 4), 1, 1);
        let err = SpecBuilder::new("bad", Shape3::square(8, 3), 2)
            .conv_input(g1)
            .conv(g2)
            .try_build()
            .unwrap_err();
        assert_eq!(
            err,
            SpecError::ShapeMismatch {
                index: 1,
                stage: format!("{:?}", Stage::Conv { geom: g2 }),
                expected: Shape3::square(7, 4),
                found: Shape3::square(8, 4),
            }
        );
        assert!(err.to_string().contains("expects input"), "{err}");
    }

    #[test]
    #[should_panic(expected = "expects input")]
    fn shape_mismatch_between_stages_panics() {
        let g1 = ConvGeometry::new(Shape3::square(8, 3), FilterShape::new(3, 3, 4), 1, 1);
        let g2 = ConvGeometry::new(Shape3::square(7, 4), FilterShape::new(3, 4, 4), 1, 1);
        let _ = SpecBuilder::new("bad", Shape3::square(8, 3), 2)
            .conv_input(g1)
            .conv(g2)
            .try_build()
            .unwrap_or_else(|e| panic!("{e}"));
    }

    #[test]
    #[should_panic(expected = "first stage")]
    fn network_must_start_with_input_conv() {
        let g = ConvGeometry::new(Shape3::square(8, 3), FilterShape::new(3, 3, 4), 1, 1);
        let _ = SpecBuilder::new("bad", Shape3::square(8, 3), 2)
            .conv(g)
            .try_build()
            .unwrap_or_else(|e| panic!("{e}"));
    }

    #[test]
    fn builder_rejects_empty_and_headless_chains() {
        assert_eq!(
            SpecBuilder::new("e", Shape3::square(8, 3), 2).try_build().unwrap_err(),
            SpecError::Empty
        );
        let g = ConvGeometry::new(Shape3::square(8, 3), FilterShape::new(3, 3, 4), 1, 1);
        let err = SpecBuilder::new("h", Shape3::square(8, 3), 2).conv(g).try_build().unwrap_err();
        assert_eq!(err, SpecError::FirstStageNotInput);
        assert!(err.to_string().contains("first stage"), "{err}");
    }
}
