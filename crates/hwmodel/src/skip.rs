//! The one sizing rule for reconvergent paths, for lowering and resources.

use qnn_nn::Stage;

/// The FIFO on one reconvergent path of a stage.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SkipBuffer {
    /// Stream name after the stage label: `skipbuf`, `ds.out` or `ffskip`.
    pub suffix: &'static str,
    /// Element width in bits: skip operands are 16-bit accumulator data.
    pub bits: u32,
    /// Depth in elements.
    pub depth: usize,
}

/// Every reconvergent path of `stage` with its buffer, in lowering order,
/// beside ordinary FIFOs of `fifo_capacity`. A residual skip absorbs the
/// conv path's lead (§III-B5): both window fills, `b1 + b2`, or, where a
/// downsample widens the skip past conv1's input, conv1's window and input
/// FIFOs (`a`, the padded input) in skip elements; `dsin` is an ordinary
/// FIFO. An encoder's attention skip holds the sequence plus two tokens
/// (attention needs every key first); its FFN skip, two tokens per width.
pub fn skip_buffers(stage: &Stage, fifo_capacity: usize) -> Vec<SkipBuffer> {
    let buffer = |suffix, depth| SkipBuffer { suffix, bits: 16, depth };
    match stage {
        Stage::Residual { geom } => {
            let c1 = &geom.conv1;
            let (b1, b2) = (c1.depth_first_buffer(), geom.conv2.depth_first_buffer());
            vec![match geom.downsample {
                None => buffer("skipbuf", b1 + b2),
                // `o` skip elements per `stride²` positions of `c_in` elements.
                Some(ds) => {
                    let (skip, input) = (ds.filter.o, c1.input.c * ds.stride * ds.stride);
                    let held = b1 + (1 + usize::from(c1.pad > 0)) * fifo_capacity;
                    buffer("ds.out", if skip > input { held * skip / input } else { b1 } + b2)
                }
            }]
        }
        Stage::Encoder { geom } => {
            let d = geom.d_model;
            let mut buffers = vec![buffer("skipbuf", geom.seq_len * d + 2 * d + 64)];
            if geom.has_ffn() {
                buffers.push(buffer("ffskip", 2 * (d + geom.ff_hidden) + 64));
            }
            buffers
        }
        _ => Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qnn_nn::ResidualGeometry;
    use qnn_tensor::{ConvGeometry, FilterShape, Shape3};

    fn conv(h: usize, i: usize, k: usize, o: usize, stride: usize) -> ConvGeometry {
        ConvGeometry::new(Shape3::new(h, h, i), FilterShape::new(k, i, o), stride, k / 2)
    }

    fn depth(c1: ConvGeometry, c2: ConvGeometry, ds: Option<ConvGeometry>, fifo: usize) -> usize {
        let geom = ResidualGeometry { conv1: c1, conv2: c2, downsample: ds };
        let [b] = skip_buffers(&Stage::Residual { geom }, fifo)[..] else { panic!("one path") };
        b.depth
    }

    /// Fills are `I·(W·(K−1)+K)` over the padded width: 9 columns at 7×7
    /// with a 3×3 window, so 21 positions per channel.
    #[test]
    fn residual_depth_is_both_window_fills_or_the_widened_lead() {
        // Identity: b1 + b2 = 2 · 2 · 21, whatever the FIFOs beside it.
        for fifo in [2, 512] {
            assert_eq!(depth(conv(7, 2, 3, 2, 1), conv(7, 2, 3, 2, 1), None, fifo), 84);
        }
        // Strided downsample 2 → 4: the skip carries 4 / 2² = 1 element per
        // 2 conv1 input elements, so b1 + b2 = 2 · 21 + 4 · (6 · 2 + 3) at
        // conv2's 4×4 input.
        let (c1, c2, ds) = (conv(7, 2, 3, 4, 2), conv(4, 4, 3, 4, 1), conv(7, 2, 1, 4, 2));
        assert_eq!(depth(c1, c2, Some(ds), 512), 102);
        // Stride-1 downsample 1 → 3: three skip elements per input element,
        // so conv1's fill (21) and its two input FIFOs (2 · 8) count three
        // times over: 3 · 37 + b2 = 111 + 63.
        let (c1, c2, ds) = (conv(7, 1, 3, 3, 1), conv(7, 3, 3, 3, 1), conv(7, 1, 1, 3, 1));
        assert_eq!(depth(c1, c2, Some(ds), 8), 174);
    }
}
