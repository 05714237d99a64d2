//! Shape arithmetic for feature maps and filters.

use std::fmt;

/// Shape of a feature map: height × width × channels, channel-innermost.
///
/// The linear index of element `(y, x, c)` is `(y * w + x) * c_total + c`,
/// which is exactly the depth-first stream order of the paper (Fig. 4a).
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Shape3 {
    /// Height (rows).
    pub h: usize,
    /// Width (columns).
    pub w: usize,
    /// Channels (feature maps).
    pub c: usize,
}

impl Shape3 {
    /// Create a new shape.
    #[inline]
    pub const fn new(h: usize, w: usize, c: usize) -> Self {
        Self { h, w, c }
    }

    /// Square spatial shape helper.
    #[inline]
    pub const fn square(side: usize, c: usize) -> Self {
        Self { h: side, w: side, c }
    }

    /// Total number of scalar elements.
    #[inline]
    pub const fn len(&self) -> usize {
        self.h * self.w * self.c
    }

    /// True when the shape contains no elements.
    #[inline]
    pub const fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of spatial positions (pixels).
    #[inline]
    pub const fn pixels(&self) -> usize {
        self.h * self.w
    }

    /// Linear index of `(y, x, c)` in depth-first stream order.
    #[inline]
    pub const fn index(&self, y: usize, x: usize, c: usize) -> usize {
        (y * self.w + x) * self.c + c
    }

    /// Inverse of [`Shape3::index`].
    #[inline]
    pub const fn coords(&self, idx: usize) -> (usize, usize, usize) {
        let c = idx % self.c;
        let px = idx / self.c;
        (px / self.w, px % self.w, c)
    }

    /// This shape with `pad` rows and columns added on every border.
    #[inline]
    pub const fn padded(&self, pad: usize) -> Self {
        Self { h: self.h + 2 * pad, w: self.w + 2 * pad, c: self.c }
    }
}

impl fmt::Debug for Shape3 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}x{}x{}", self.h, self.w, self.c)
    }
}

impl fmt::Display for Shape3 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}×{}×{}", self.h, self.w, self.c)
    }
}

/// Shape of a convolution filter bank: `K × K × I` weights per output map,
/// `O` output maps (paper §III-B1a).
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct FilterShape {
    /// Spatial kernel size (square filters only, as in the paper's networks).
    pub k: usize,
    /// Input feature maps.
    pub i: usize,
    /// Output feature maps.
    pub o: usize,
}

impl FilterShape {
    /// Create a new filter bank shape.
    #[inline]
    pub const fn new(k: usize, i: usize, o: usize) -> Self {
        Self { k, i, o }
    }

    /// Weights needed to produce one output pixel: `K × K × I`.
    ///
    /// One cache *entry* in the weight store holds this many bits so that a
    /// whole filter can be read in a single cycle (paper §III-B1a).
    #[inline]
    pub const fn weights_per_filter(&self) -> usize {
        self.k * self.k * self.i
    }

    /// Total number of weights in the bank: `K × K × I × O`.
    #[inline]
    pub const fn total_weights(&self) -> usize {
        self.weights_per_filter() * self.o
    }
}

impl fmt::Debug for FilterShape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}x{}x{}->{}", self.k, self.k, self.i, self.o)
    }
}

/// One sliding window over a depth-first stream: `k × k` taps, moved
/// `stride` pixels at a time in row-scan order over an already padded input
/// map, every channel of a tap side by side.
///
/// Convolution (paper §III-B1) and pooling (§III-B2) slide the same window
/// through the same depth-first buffer (Fig. 4a), so its output size, its
/// buffer and the count at which each window completes are worked out here
/// and nowhere else; the analytic models and the streaming kernels read
/// them from one place.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Window {
    /// The padded input map the window slides over.
    pub input: Shape3,
    /// Window side.
    pub k: usize,
    /// Spatial stride (same in both dimensions).
    pub stride: usize,
}

impl Window {
    /// A `k × k` window at `stride` over the padded map `input`.
    #[inline]
    pub const fn new(input: Shape3, k: usize, stride: usize) -> Self {
        Self { input, k, stride }
    }

    /// Whether the window fits: a positive side and stride, and a side no
    /// larger than the padded input. Every other method assumes it does.
    pub fn check(&self) -> Result<(), String> {
        if self.k == 0 {
            return Err("window side must be positive".into());
        }
        if self.stride == 0 {
            return Err("window stride must be positive".into());
        }
        if self.k > self.input.h || self.k > self.input.w {
            let k = self.k;
            return Err(format!("{k}×{k} window larger than padded input {:?}", self.input));
        }
        Ok(())
    }

    /// Output map: one pixel per window position, the input's channels.
    #[inline]
    pub fn output(&self) -> Shape3 {
        let along = |side: usize| (side - self.k) / self.stride + 1;
        Shape3::new(along(self.input.h), along(self.input.w), self.input.c)
    }

    /// Window positions per image, in row-scan order.
    #[inline]
    pub fn positions(&self) -> usize {
        self.output().pixels()
    }

    /// Stream index of the first element of window `pos` (its top-left
    /// tap, channel 0). Tap `(ky, kx)` starts `(ky·W + kx)·C` later.
    #[inline]
    pub fn origin(&self, pos: usize) -> usize {
        let out_w = self.output().w;
        let (y, x) = (pos / out_w * self.stride, pos % out_w * self.stride);
        self.input.index(y, x, 0)
    }

    /// The count of stream elements at which window `pos` is complete: the
    /// stream index of its last element (bottom-right tap, last channel)
    /// plus one. Strictly increasing in `pos`; inside an output row each
    /// window completes `stride·C` elements after the one before.
    #[inline]
    pub fn completes_at(&self, pos: usize) -> usize {
        let last = self.k - 1;
        self.origin(pos) + self.input.index(last, last, 0) + self.input.c
    }

    /// Size, in elements, of the depth-first (row-scan) window buffer,
    /// `C·(W·(K−1) + K)`: everything from a window's first element to its
    /// last, which is when window 0 completes.
    ///
    /// This is the paper's §III-B1b expression with H↔W swapped because we
    /// scan rows rather than columns; the asymptotics — Θ(C·W·K) versus
    /// Θ(H·W·C) for the width-first scan — are identical.
    #[inline]
    pub fn depth_first_buffer(&self) -> usize {
        self.completes_at(0)
    }
}

/// Full geometry of one convolution layer: input shape, filter bank, stride
/// and symmetric padding.
///
/// This is the unit the analytic cycle/resource models and the streaming
/// kernels both consume, so the two can never disagree about sizes.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct ConvGeometry {
    /// Input feature-map shape.
    pub input: Shape3,
    /// Filter bank shape. `filter.i` must equal `input.c`.
    pub filter: FilterShape,
    /// Spatial stride (same in both dimensions).
    pub stride: usize,
    /// Symmetric spatial padding added on every border.
    pub pad: usize,
}

impl ConvGeometry {
    /// Build a geometry, checking channel agreement.
    ///
    /// # Panics
    /// Panics if `filter.i != input.c`, if the kernel side or the stride is
    /// zero, or if the padded input is smaller than the kernel.
    pub fn new(input: Shape3, filter: FilterShape, stride: usize, pad: usize) -> Self {
        assert_eq!(
            filter.i, input.c,
            "filter input channels ({}) must match input shape channels ({})",
            filter.i, input.c
        );
        assert!(filter.k > 0, "kernel side must be positive");
        assert!(stride > 0, "stride must be positive");
        assert!(
            input.h + 2 * pad >= filter.k && input.w + 2 * pad >= filter.k,
            "padded input {input:?} smaller than kernel {}",
            filter.k
        );
        Self { input, filter, stride, pad }
    }

    /// Padded input shape.
    #[inline]
    pub fn padded_input(&self) -> Shape3 {
        self.input.padded(self.pad)
    }

    /// The filter's sliding window over the padded input.
    #[inline]
    pub fn window(&self) -> Window {
        Window::new(self.padded_input(), self.filter.k, self.stride)
    }

    /// Output feature-map shape: one pixel per window position, one
    /// channel per filter.
    #[inline]
    pub fn output(&self) -> Shape3 {
        Shape3 { c: self.filter.o, ..self.window().output() }
    }

    /// Multiply–accumulate operations for one image through this layer.
    #[inline]
    pub fn macs(&self) -> u64 {
        let out = self.output();
        out.pixels() as u64 * self.filter.o as u64 * self.filter.weights_per_filter() as u64
            / self.filter.o as u64
            * self.filter.o as u64
    }

    /// Size, in elements, of the depth-first (row-scan) window buffer:
    /// `I·(W·(K−1) + K)` for the padded input width
    /// ([`Window::depth_first_buffer`]).
    #[inline]
    pub fn depth_first_buffer(&self) -> usize {
        self.window().depth_first_buffer()
    }

    /// Size, in elements, of the width-first scan buffer:
    /// `H·W·(I−1) + W·(K−1) + K` (paper Fig. 4b, H↔W swapped).
    #[inline]
    pub fn width_first_buffer(&self) -> usize {
        let p = self.padded_input();
        p.h * p.w * (p.c - 1) + p.w * (self.filter.k - 1) + self.filter.k
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shape_index_roundtrip() {
        let s = Shape3::new(4, 5, 3);
        for y in 0..4 {
            for x in 0..5 {
                for c in 0..3 {
                    let idx = s.index(y, x, c);
                    assert_eq!(s.coords(idx), (y, x, c));
                }
            }
        }
        assert_eq!(s.len(), 60);
        assert_eq!(s.pixels(), 20);
    }

    #[test]
    fn stream_order_is_depth_first() {
        // Index must advance channel-first: (0,0,0), (0,0,1), ..., (0,1,0), ...
        let s = Shape3::new(2, 2, 2);
        let order: Vec<_> = (0..s.len()).map(|i| s.coords(i)).collect();
        assert_eq!(
            order,
            vec![
                (0, 0, 0),
                (0, 0, 1),
                (0, 1, 0),
                (0, 1, 1),
                (1, 0, 0),
                (1, 0, 1),
                (1, 1, 0),
                (1, 1, 1)
            ]
        );
    }

    #[test]
    fn conv_output_shapes_match_resnet_table1() {
        // conv1 of ResNet-18: 224×224×3, 7×7×3→64, stride 2, pad 3 → 112×112×64.
        let g = ConvGeometry::new(Shape3::square(224, 3), FilterShape::new(7, 3, 64), 2, 3);
        assert_eq!(g.output(), Shape3::square(112, 64));

        // conv2_x body: 56×56×64, 3×3×64→64, stride 1, pad 1 → 56×56×64.
        let g = ConvGeometry::new(Shape3::square(56, 64), FilterShape::new(3, 64, 64), 1, 1);
        assert_eq!(g.output(), Shape3::square(56, 64));

        // conv3_1 downsample: 56×56×64 → 28×28×128 with stride 2.
        let g = ConvGeometry::new(Shape3::square(56, 64), FilterShape::new(3, 64, 128), 2, 1);
        assert_eq!(g.output(), Shape3::square(28, 128));
    }

    #[test]
    fn alexnet_conv1_geometry() {
        // AlexNet conv1: 224×224×3, 11×11×3→64 (Hubara variant), stride 4, pad 2 → 55×55.
        let g = ConvGeometry::new(Shape3::square(224, 3), FilterShape::new(11, 3, 64), 4, 2);
        assert_eq!(g.output().h, 55);
        assert_eq!(g.output().w, 55);
    }

    #[test]
    fn depth_first_buffer_is_smaller_when_w_exceeds_k() {
        // Paper §III-B1b: since W > K, depth-first scanning guarantees the
        // smaller buffer. Check on a realistic layer.
        let g = ConvGeometry::new(Shape3::square(56, 64), FilterShape::new(3, 64, 64), 1, 1);
        assert!(g.depth_first_buffer() < g.width_first_buffer());
        // Θ(I·W·K) vs Θ(H·W·I): ratio should be roughly K/H.
        let ratio = g.width_first_buffer() as f64 / g.depth_first_buffer() as f64;
        assert!(ratio > 10.0, "expected order-of-magnitude gap, got {ratio}");
    }

    #[test]
    fn width_first_buffer_wins_only_for_degenerate_width() {
        // If W < K the inequality can flip; the formulas must still agree on
        // the crossover direction.
        let g = ConvGeometry::new(Shape3::new(64, 3, 2), FilterShape::new(3, 2, 4), 1, 0);
        // depth-first: 2*(3*2+3)=18; width-first: 64*3*1 + 3*2 + 3 = 201.
        assert_eq!(g.depth_first_buffer(), 18);
        assert_eq!(g.width_first_buffer(), 201);
    }

    #[test]
    fn filter_shape_weight_counts() {
        let f = FilterShape::new(3, 64, 128);
        assert_eq!(f.weights_per_filter(), 3 * 3 * 64);
        assert_eq!(f.total_weights(), 3 * 3 * 64 * 128);
    }

    #[test]
    #[should_panic(expected = "must match")]
    fn mismatched_channels_panic() {
        let _ = ConvGeometry::new(Shape3::square(8, 3), FilterShape::new(3, 4, 8), 1, 1);
    }

    #[test]
    #[should_panic(expected = "kernel side must be positive")]
    fn zero_side_kernel_panics() {
        // A 0×0 filter would "fit" anywhere and slide to a 5×5 map over 4×4.
        let _ = ConvGeometry::new(Shape3::square(4, 3), FilterShape::new(0, 3, 8), 1, 0);
    }

    #[test]
    #[should_panic(expected = "smaller than kernel")]
    fn kernel_larger_than_input_panics() {
        let _ = ConvGeometry::new(Shape3::square(2, 3), FilterShape::new(5, 3, 8), 1, 0);
    }

    #[test]
    fn macs_of_resnet_conv1() {
        let g = ConvGeometry::new(Shape3::square(224, 3), FilterShape::new(7, 3, 64), 2, 3);
        // 112*112*64 outputs × 7*7*3 MACs each.
        assert_eq!(g.macs(), 112 * 112 * 64 * 7 * 7 * 3);
    }
}
