//! Property-based tests for tensor layout and bit-packing invariants.

use qnn_tensor::{BitVec, ConvGeometry, FilterShape, Shape3, Tensor3, Window};
use qnn_testkit::{any, prop_assert, prop_assert_eq, prop_assume, props};

props! {
    /// index ∘ coords and coords ∘ index are inverse bijections.
    #[test]
    fn shape_index_bijection(h in 1usize..12, w in 1usize..12, c in 1usize..12) {
        let s = Shape3::new(h, w, c);
        for idx in 0..s.len() {
            let (y, x, ch) = s.coords(idx);
            prop_assert!(y < h && x < w && ch < c);
            prop_assert_eq!(s.index(y, x, ch), idx);
        }
    }

    /// XNOR-popcount always equals the naive ±1 dot product.
    #[test]
    fn xnor_popcount_matches_naive(bits_a in qnn_testkit::vec(any::<bool>(), 1..300)) {
        let n = bits_a.len();
        let bits_b: Vec<bool> = bits_a.iter().enumerate().map(|(i, &b)| b ^ (i % 3 == 0)).collect();
        let a = BitVec::from_bools(&bits_a);
        let b = BitVec::from_bools(&bits_b);
        let naive: i32 = bits_a
            .iter()
            .zip(&bits_b)
            .map(|(&x, &y)| (if x { 1 } else { -1 }) * (if y { 1 } else { -1 }))
            .sum();
        prop_assert_eq!(2 * a.xnor_popcount(&b) as i32 - n as i32, naive);
    }

    /// and_popcount equals the naive {0,1} dot product.
    #[test]
    fn and_popcount_matches_naive(bits_a in qnn_testkit::vec(any::<bool>(), 1..300)) {
        let bits_b: Vec<bool> = bits_a.iter().enumerate().map(|(i, &b)| b ^ (i % 2 == 0)).collect();
        let a = BitVec::from_bools(&bits_a);
        let b = BitVec::from_bools(&bits_b);
        let naive: u32 = bits_a.iter().zip(&bits_b).map(|(&x, &y)| u32::from(x && y)).sum();
        prop_assert_eq!(a.and_popcount(&b), naive);
    }

    /// Padding preserves the interior and fills the border.
    #[test]
    fn pad_preserves_interior(h in 1usize..8, w in 1usize..8, c in 1usize..4, pad in 0usize..3) {
        let t = Tensor3::from_fn(Shape3::new(h, w, c), |y, x, ch| (y * 1000 + x * 10 + ch) as i32);
        let p = t.pad(pad, -1);
        prop_assert_eq!(p.shape(), Shape3::new(h + 2 * pad, w + 2 * pad, c));
        for (y, x, ch, v) in p.iter_stream() {
            let interior = y >= pad && y < h + pad && x >= pad && x < w + pad;
            if interior {
                prop_assert_eq!(v, t.get(y - pad, x - pad, ch));
            } else {
                prop_assert_eq!(v, -1);
            }
        }
    }

    /// Conv output shape formula is consistent: every output position maps to
    /// a window fully inside the padded input.
    #[test]
    fn conv_windows_in_bounds(
        side in 3usize..20,
        c in 1usize..5,
        k in 1usize..5,
        stride in 1usize..3,
        pad in 0usize..3,
    ) {
        prop_assume!(side + 2 * pad >= k);
        let g = ConvGeometry::new(Shape3::square(side, c), FilterShape::new(k, c, 4), stride, pad);
        let out = g.output();
        let p = g.padded_input();
        let last_y = (out.h - 1) * stride + k;
        let last_x = (out.w - 1) * stride + k;
        prop_assert!(last_y <= p.h);
        prop_assert!(last_x <= p.w);
        // And the next window would fall off the edge.
        prop_assert!(out.h * stride + k > p.h);
        prop_assert!(out.w * stride + k > p.w);
    }

    /// The one window rule against brute force. Each window completes one
    /// past the stream index of its last element, found by scanning the
    /// padded map; the positions are every placement that fits; window 0
    /// completes at the depth-first buffer size; inside an output row the
    /// windows complete `stride·C` apart (what lets the conv and pool
    /// kernels cross a row in one repeated phase); and the output shape is
    /// the reference max pool's.
    #[test]
    fn window_rule_matches_brute_force(
        h in 1usize..9,
        w in 1usize..9,
        c in 1usize..4,
        k in 1usize..5,
        stride in 1usize..4,
        pad in 0usize..3,
    ) {
        let input = Shape3::new(h, w, c);
        let win = Window::new(input.padded(pad), k, stride);
        prop_assume!(win.check().is_ok());
        let p = win.input;
        let fits = |side: usize| (0..side).step_by(stride).filter(|&o| o + k <= side).count();
        let out = win.output();
        prop_assert_eq!((out.h, out.w, out.c), (fits(p.h), fits(p.w), c));
        prop_assert_eq!(win.positions(), out.h * out.w);
        for pos in 0..win.positions() {
            let (y0, x0) = (pos / out.w * stride, pos % out.w * stride);
            let last = (0..p.len())
                .filter(|&idx| {
                    let (y, x, _) = p.coords(idx);
                    (y0..y0 + k).contains(&y) && (x0..x0 + k).contains(&x)
                })
                .max()
                .expect("a window has elements");
            prop_assert_eq!(win.completes_at(pos), last + 1, "window {}", pos);
            prop_assert_eq!(win.origin(pos), p.index(y0, x0, 0), "window {}", pos);
            if pos % out.w > 0 {
                prop_assert_eq!(win.completes_at(pos) - win.completes_at(pos - 1), stride * c);
            }
        }
        prop_assert_eq!(win.completes_at(0), win.depth_first_buffer());
        let image = Tensor3::from_fn(input, |y, x, ch| ((y * 3 + x + ch) % 4) as u8);
        prop_assert_eq!(qnn_nn::reference::max_pool(&image, k, stride, pad).shape(), out);
    }

    /// Depth-first buffer is never larger than width-first when W ≥ K·K
    /// (sufficient condition; the paper's W > K claim holds in all its nets).
    #[test]
    fn depth_first_buffer_smaller(side in 8usize..40, c in 1usize..64, k in 1usize..4) {
        prop_assume!(side >= k * k && side >= k);
        let g = ConvGeometry::new(Shape3::square(side, c), FilterShape::new(k, c, 8), 1, 0);
        prop_assert!(g.depth_first_buffer() <= g.width_first_buffer());
    }

    /// `copy_bitrange_from` is bit-identical to a scalar get/set loop for
    /// arbitrary offsets and lengths, and leaves every bit outside the
    /// target span untouched (the packed conv window extractor relies on
    /// both properties).
    #[test]
    fn copy_bitrange_matches_scalar_reference(
        src_bits in qnn_testkit::vec(any::<bool>(), 1..400),
        dst_len in 1usize..400,
        src_off in 0usize..400,
        dst_off in 0usize..400,
        len in 0usize..400,
    ) {
        let src = BitVec::from_bools(&src_bits);
        let len = len.min(src.len()).min(dst_len);
        let src_off = src_off.min(src.len() - len);
        let dst_off = dst_off.min(dst_len - len);
        let dst_bits: Vec<bool> =
            (0..dst_len).map(|i| src_bits[(i * 7 + 3) % src_bits.len()] ^ (i % 5 == 0)).collect();
        let mut dst = BitVec::from_bools(&dst_bits);
        let mut expect = dst.clone();
        for i in 0..len {
            expect.set(dst_off + i, src.get(src_off + i));
        }
        dst.copy_bitrange_from(dst_off, &src, src_off, len);
        prop_assert_eq!(&dst, &expect);
    }

    /// `popcount_range` equals the scalar count over the same span.
    #[test]
    fn popcount_range_matches_scalar_reference(
        bits in qnn_testkit::vec(any::<bool>(), 1..400),
        off in 0usize..400,
        len in 0usize..400,
    ) {
        let v = BitVec::from_bools(&bits);
        let len = len.min(v.len());
        let off = off.min(v.len() - len);
        let expect = (0..len).filter(|&i| v.get(off + i)).count() as u32;
        prop_assert_eq!(v.popcount_range(off, len), expect);
    }
}
