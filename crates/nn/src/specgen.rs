//! Randomized [`NetworkSpec`] generation, and deterministic input images,
//! for property and differential test suites.
//!
//! Lives in `qnn-nn` (rather than `qnn-testkit`) because spec construction
//! needs the network types and `qnn-nn` already depends on the testkit —
//! the reverse dependency would be a cycle. Used by
//! `tests/property_streaming.rs` (bit-exactness vs the reference
//! interpreter) and `tests/macro_tick_equivalence.rs` (default stepper vs
//! dense-oracle differential battery).

use crate::spec::{EncoderGeometry, NetworkSpec, PoolKind, ResidualGeometry, SpecBuilder, Stage};
use qnn_tensor::{ConvGeometry, FilterShape, Shape3, Tensor3, Window};
use qnn_testkit::{map, vec, Strategy};

/// A deterministic pseudo-random input image for `spec`, one per `seed`
/// (a multiplicative hash of the seed and the pixel coordinates).
pub fn image_for(spec: &NetworkSpec, seed: u64) -> Tensor3<i8> {
    Tensor3::from_fn(spec.input, |y, x, c| {
        ((seed as usize)
            .wrapping_mul(31)
            .wrapping_add(y * 131 + x * 17 + c * 7)
            .wrapping_mul(2654435761)
            >> 16) as i8
    })
}

/// A random two-conv network with a pool and a classifier, or `None` when
/// the sampled geometry is inconsistent (kernel larger than its padded
/// input, pool window not fitting, …).
#[allow(clippy::too_many_arguments)] // mirrors the property parameter tuple
pub fn random_spec(
    side: usize,
    k1: usize,
    stride1: usize,
    pad1: usize,
    c1: usize,
    k2: usize,
    pad2: usize,
    c2: usize,
    act_bits: u32,
) -> Option<NetworkSpec> {
    if side + 2 * pad1 < k1 {
        return None;
    }
    let input = Shape3::square(side, 3);
    let g1 = ConvGeometry::new(input, FilterShape::new(k1, 3, c1), stride1, pad1);
    let s1 = g1.output();
    if s1.h + 2 * pad2 < k2 || s1.w + 2 * pad2 < k2 {
        return None;
    }
    let g2 = ConvGeometry::new(s1, FilterShape::new(k2, c1, c2), 1, pad2);
    let s2 = g2.output();
    let pool = Window::new(s2, 2, 2);
    pool.check().ok()?;
    let pool_out = pool.output();
    Some(
        SpecBuilder::new("prop", input, act_bits)
            .conv_input(g1)
            .conv(g2)
            .pool(s2, 2, 2, 0, PoolKind::Max)
            .fully_connected(pool_out.len(), 5, false)
            .try_build()
            .expect("geometry pre-checked"),
    )
}

/// A random single-encoder transformer: 1×1 embedding, one encoder block,
/// logits over the flattened sequence. All sampled parameters are valid by
/// construction (`d_model` is derived as `heads · head_dim`), so unlike
/// [`random_spec`] there is no rejection path.
pub fn random_encoder_spec(
    seq_len: usize,
    heads: usize,
    head_dim: usize,
    ff_hidden: usize,
    act_bits: u32,
) -> NetworkSpec {
    let d_model = heads * head_dim;
    let input = Shape3::new(seq_len, 1, 3);
    let embed = ConvGeometry::new(input, FilterShape::new(1, 3, d_model), 1, 0);
    SpecBuilder::new("prop-encoder", input, act_bits)
        .conv_input(embed)
        .encoder(EncoderGeometry { seq_len, d_model, heads, head_dim, ff_hidden })
        .fully_connected(seq_len * d_model, 4, false)
        .try_build()
        .expect("derived encoder geometry is always consistent")
}

/// Strategy over single-encoder transformer specs, shrink-aware like
/// [`spec_strategy`]: failures shrink toward one head, one token, narrow
/// widths, no FFN.
pub fn encoder_spec_strategy() -> impl Strategy<Value = NetworkSpec> {
    map(
        (
            1usize..8, // seq_len
            1usize..5, // heads
            1usize..5, // head_dim
            0usize..9, // ff_hidden (0 disables the FFN)
            1u32..4,   // act_bits
        ),
        |(seq_len, heads, head_dim, ff_hidden, act_bits)| {
            random_encoder_spec(seq_len, heads, head_dim, ff_hidden, act_bits)
        },
        |spec| {
            let Stage::Encoder { geom } = spec.stages[1] else {
                return None;
            };
            Some((geom.seq_len, geom.heads, geom.head_dim, geom.ff_hidden, spec.act_bits))
        },
    )
}

/// Strategy over whole network specs: a geometry tuple mapped through
/// [`random_spec`], with the inverse recovering the tuple from the built
/// spec so a failing network shrinks toward small sides/kernels/channels
/// (plain mapping would freeze shrinking at the first failing geometry).
pub fn spec_strategy() -> impl Strategy<Value = Option<NetworkSpec>> {
    map(
        (
            5usize..12, // side
            1usize..4,  // k1
            1usize..3,  // stride1
            0usize..2,  // pad1
            1usize..5,  // c1
            1usize..3,  // k2
            0usize..2,  // pad2
            1usize..4,  // c2
            1u32..4,    // act_bits
        ),
        |(side, k1, stride1, pad1, c1, k2, pad2, c2, act_bits)| {
            random_spec(side, k1, stride1, pad1, c1, k2, pad2, c2, act_bits)
        },
        |spec| {
            let spec = spec.as_ref()?;
            let (Stage::ConvInput { geom: g1 }, Stage::Conv { geom: g2 }) =
                (&spec.stages[0], &spec.stages[1])
            else {
                return None;
            };
            Some((
                spec.input.h,
                g1.filter.k,
                g1.stride,
                g1.pad,
                g1.filter.o,
                g2.filter.k,
                g2.pad,
                g2.filter.o,
                spec.act_bits,
            ))
        },
    )
}

/// The stem of a [`random_residual_spec`]: `width` filters of `k`×`k` at
/// `stride`, padded `k / 2`, then a 2/2 max pool when `pool` is set.
/// ResNet-18's is 64 filters of 7×7 at stride 2 with a pool.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Stem {
    /// Output channels.
    pub width: usize,
    /// Kernel side (odd).
    pub k: usize,
    /// Stride.
    pub stride: usize,
    /// A 2/2 max pool after the conv.
    pub pool: bool,
}

/// A random residual network: a [`Stem`] over a `side`² image, then one
/// basic block per `(kind, width)` entry — `0` an identity block, which
/// carries its skip on into the next block; `1` a block changing the width
/// to `width` (a 1×1 downsample on the skip, or an identity block when the
/// width stays); `2` a stride-2 downsampling block — a global sum pool and
/// a classifier, with a hidden FC layer when `hidden` is set.
pub fn random_residual_spec(
    side: usize,
    stem: Stem,
    blocks: &[(usize, usize)],
    hidden: bool,
    act_bits: u32,
) -> NetworkSpec {
    let input = Shape3::square(side, 3);
    let filter = FilterShape::new(stem.k, 3, stem.width);
    let geom = ConvGeometry::new(input, filter, stem.stride, stem.k / 2);
    let mut cur = geom.output();
    let mut b = SpecBuilder::new("prop-residual", input, act_bits).conv_input(geom);
    if stem.pool {
        b = b.pool(cur, 2, 2, 0, PoolKind::Max);
        cur = Window::new(cur, 2, 2).output();
    }
    for &(kind, width) in blocks {
        let (o, stride) = match kind {
            0 => (cur.c, 1),
            1 => (width, 1),
            _ => (width, 2),
        };
        let conv1 = ConvGeometry::new(cur, FilterShape::new(3, cur.c, o), stride, 1);
        let conv2 = ConvGeometry::new(conv1.output(), FilterShape::new(3, o, o), 1, 1);
        let downsample = (stride != 1 || cur.c != o)
            .then(|| ConvGeometry::new(cur, FilterShape::new(1, cur.c, o), stride, 0));
        let geom = ResidualGeometry { conv1, conv2, downsample };
        cur = geom.output();
        b = b.residual(geom);
    }
    b = b.pool(cur, cur.h, cur.h, 0, PoolKind::AvgSum);
    b = if hidden {
        b.fully_connected(cur.c, 6, true).fully_connected(6, 4, false)
    } else {
        b.fully_connected(cur.c, 4, false)
    };
    b.try_build().expect("residual geometry is consistent by construction")
}

/// Strategy over [`random_residual_spec`] networks with 0–3 blocks and a
/// stem of 3×3, 5×5 or 7×7 at stride 1 or 2, pooled or not, shrink-aware
/// like [`spec_strategy`]: failures shrink toward fewer blocks, identity
/// blocks, narrow widths, small images and a 3×3 stride-1 stem without a
/// pool.
pub fn residual_spec_strategy() -> impl Strategy<Value = NetworkSpec> {
    map(
        (
            4usize..9,                                    // side
            (1usize..4, 0usize..3, 1usize..3, 0usize..2), // stem width, (k − 3) / 2, stride, pool
            vec((0usize..3, 1usize..4), 0..4),            // (kind, width) per block
            0usize..2,                                    // hidden FC layer
            1u32..4,                                      // act_bits
        ),
        |(side, (width, k, stride, pool), blocks, hidden, act_bits)| {
            let stem = Stem { width, k: 3 + 2 * k, stride, pool: pool == 1 };
            random_residual_spec(side, stem, &blocks, hidden == 1, act_bits)
        },
        |spec| {
            let Stage::ConvInput { geom: stem } = spec.stages[0] else {
                return None;
            };
            let pool = matches!(spec.stages[1], Stage::Pool { kind: PoolKind::Max, .. });
            let stem = (stem.filter.o, (stem.filter.k - 3) / 2, stem.stride, usize::from(pool));
            let blocks = spec.stages.iter().filter_map(|st| match st {
                Stage::Residual { geom } => Some(match geom.downsample {
                    None => (0, 1),
                    Some(_) if geom.conv1.stride == 2 => (2, geom.conv1.filter.o),
                    Some(_) => (1, geom.conv1.filter.o),
                }),
                _ => None,
            });
            let fcs = spec.stages.iter().filter(|st| matches!(st, Stage::FullyConnected { .. }));
            Some((spec.input.h, stem, blocks.collect(), fcs.count() - 1, spec.act_bits))
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn degenerate_geometries_are_rejected() {
        // Kernel bigger than the padded input.
        assert!(random_spec(5, 6, 1, 0, 1, 1, 0, 1, 2).is_none());
        // Second conv bigger than the first conv's output.
        assert!(random_spec(5, 4, 1, 0, 1, 3, 0, 1, 2).is_none());
        // A sane small geometry builds.
        let spec = random_spec(8, 3, 1, 1, 2, 2, 0, 2, 2).expect("valid spec");
        assert_eq!(spec.stages.len(), 4);
    }

    /// Every block kind builds at the smallest image, and consecutive
    /// identity blocks are what a carried skip needs; so does every stem,
    /// ResNet-18's 7×7 stride-2 pooled one at the smallest image included.
    #[test]
    fn residual_specs_build_every_block_kind() {
        let stem = Stem { width: 2, k: 3, stride: 1, pool: true };
        let spec = random_residual_spec(4, stem, &[(2, 3), (0, 1), (0, 1), (1, 2)], true, 2);
        let kinds: Vec<_> = spec
            .stages
            .iter()
            .filter_map(|st| match st {
                Stage::Residual { geom } => Some((geom.downsample.is_some(), geom.conv1.stride)),
                _ => None,
            })
            .collect();
        assert_eq!(kinds, [(true, 2), (false, 1), (false, 1), (true, 1)]);
        assert_eq!(spec.classes(), 4);
        for k in [3, 5, 7] {
            for stride in [1, 2] {
                for pool in [false, true] {
                    for side in [4, 8] {
                        let stem = Stem { width: 3, k, stride, pool };
                        let spec = random_residual_spec(side, stem, &[(2, 2), (0, 1)], false, 2);
                        let Stage::ConvInput { geom } = spec.stages[0] else {
                            panic!("a stem conv leads");
                        };
                        assert_eq!((geom.filter.k, geom.stride, geom.pad), (k, stride, k / 2));
                        let first = &spec.stages[1];
                        let pooled = matches!(first, Stage::Pool { kind: PoolKind::Max, .. });
                        assert_eq!(pooled, pool, "{stem:?} at {side}");
                        let map = (side - 1) / stride + 1;
                        let map = if pool { (map - 2) / 2 + 1 } else { map };
                        assert_eq!(spec.stages[1 + usize::from(pool)].input_shape().h, map);
                    }
                }
            }
        }
    }

    /// The strategy's inverse recovers the stem, so a failing spec shrinks
    /// through it: toward a smaller kernel, stride 1 and no pool.
    #[test]
    fn residual_specs_shrink_through_the_stem() {
        let stem_of = |spec: &NetworkSpec| {
            let Stage::ConvInput { geom } = spec.stages[0] else {
                panic!("a stem conv leads");
            };
            let pool = matches!(spec.stages[1], Stage::Pool { kind: PoolKind::Max, .. });
            (geom.filter.k, geom.stride, pool)
        };
        let stem = Stem { width: 3, k: 7, stride: 2, pool: true };
        let spec = random_residual_spec(8, stem, &[(0, 1)], false, 2);
        let stems: Vec<_> = residual_spec_strategy().shrink(&spec).iter().map(stem_of).collect();
        assert!(stems.contains(&(3, 2, true)), "{stems:?}");
        assert!(stems.contains(&(7, 1, true)), "{stems:?}");
        assert!(stems.contains(&(7, 2, false)), "{stems:?}");
    }
}
