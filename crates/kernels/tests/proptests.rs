//! Property-based tests for the streaming kernels against the reference
//! interpreter, over randomized geometries and execution conditions.

use dfe_platform::{Graph, HostSink, HostSource, StreamSpec};
use qnn_kernels::{ConvKernel, DotMode, PadInserter, PoolKernel, PoolOp};
use qnn_tensor::{BinaryFilters, ConvGeometry, FilterShape, Shape3, Tensor3};
use qnn_testkit::{any, prop_assert_eq, prop_assume, props};

fn run_one(
    kernel: Box<dyn dfe_platform::Kernel>,
    input: Vec<i32>,
    out_len: usize,
    in_cap: usize,
) -> Vec<i32> {
    let mut g = Graph::new();
    let a = g.add_stream(StreamSpec::new("in", 8, in_cap));
    let b = g.add_stream(StreamSpec::new("out", 16, in_cap));
    g.add_kernel(Box::new(HostSource::new("src", input)), &[], &[a]);
    g.add_kernel(kernel, &[a], &[b]);
    let (sink, handle) = HostSink::new("dst", out_len);
    g.add_kernel(Box::new(sink), &[b], &[]);
    g.run(100_000_000).expect("kernel run");
    handle.take()
}

fn filters_for(geom: &ConvGeometry, seed: u64) -> BinaryFilters {
    let w: Vec<f32> =
        (0..geom.filter.total_weights())
            .map(|i| {
                if (i as u64).wrapping_mul(seed | 1).wrapping_add(seed) % 7 < 3 {
                    1.0
                } else {
                    -1.0
                }
            })
            .collect();
    BinaryFilters::from_float_rows(&w, geom.filter.weights_per_filter())
}

props! {
    /// Random conv geometries (both I/O disciplines) match the reference.
    #[test]
    fn conv_kernel_matches_reference(
        h in 3usize..9,
        w in 3usize..9,
        c in 1usize..4,
        k in 1usize..4,
        o in 1usize..5,
        stride in 1usize..3,
        halted in any::<bool>(),
        seed in any::<u64>(),
    ) {
        prop_assume!(h >= k && w >= k);
        let geom = ConvGeometry::new(Shape3::new(h, w, c), FilterShape::new(k, c, o), stride, 0);
        let filters = filters_for(&geom, seed);
        let input = Tensor3::from_fn(geom.input, |y, x, ch| {
            ((seed as usize).wrapping_add(y * 31 + x * 7 + ch) % 4) as u8
        });
        let expect = qnn_nn::reference::conv_acc_codes(&geom, &input, &filters, 2);
        let kernel: Box<dyn dfe_platform::Kernel> = if halted {
            Box::new(ConvKernel::new_halted("c", geom, filters, None, DotMode::Codes { bits: 2 }))
        } else {
            Box::new(ConvKernel::new("c", geom, filters, None, DotMode::Codes { bits: 2 }))
        };
        let got = run_one(
            kernel,
            input.as_slice().iter().map(|&q| i32::from(q)).collect(),
            expect.shape().len(),
            16,
        );
        prop_assert_eq!(got.as_slice(), expect.as_slice());
    }

    /// Random pooling configurations match the reference (both ops).
    #[test]
    fn pool_kernel_matches_reference(
        side in 3usize..12,
        c in 1usize..5,
        k in 1usize..4,
        stride in 1usize..3,
        avg in any::<bool>(),
        seed in any::<u64>(),
    ) {
        prop_assume!(side >= k);
        let shape = Shape3::new(side, side, c);
        let input = Tensor3::from_fn(shape, |y, x, ch| {
            ((seed as usize).wrapping_add(y * 13 + x * 5 + ch * 3) % 4) as u8
        });
        let (op, expect) = if avg {
            (PoolOp::AvgShift, qnn_nn::reference::avg_sum_pool(&input, k, stride))
        } else {
            (PoolOp::Max, qnn_nn::reference::max_pool(&input, k, stride, 0))
        };
        let kernel = PoolKernel::new("p", shape, k, stride, op);
        let got = run_one(
            Box::new(kernel),
            input.as_slice().iter().map(|&q| i32::from(q)).collect(),
            expect.shape().len(),
            16,
        );
        let got_u8: Vec<u8> = got.iter().map(|&v| v as u8).collect();
        prop_assert_eq!(got_u8.as_slice(), expect.as_slice());
    }

    /// Pad inserter matches `Tensor3::pad` for random shapes, fills and
    /// image counts, at any FIFO capacity.
    #[test]
    fn pad_inserter_matches_tensor_pad(
        h in 1usize..7,
        w in 1usize..7,
        c in 1usize..4,
        pad in 1usize..3,
        fill in -2i32..2,
        images in 1usize..3,
        cap in 2usize..32,
    ) {
        let shape = Shape3::new(h, w, c);
        let t = Tensor3::from_fn(shape, |y, x, ch| (y * 100 + x * 10 + ch) as i32 + 1);
        let mut data = Vec::new();
        for _ in 0..images {
            data.extend_from_slice(t.as_slice());
        }
        let expect_one = t.pad(pad, fill);
        let got = run_one(
            Box::new(PadInserter::new("p", shape, pad, fill)),
            data,
            expect_one.shape().len() * images,
            cap,
        );
        for (i, chunk) in got.chunks_exact(expect_one.shape().len()).enumerate() {
            prop_assert_eq!(chunk, expect_one.as_slice(), "image {}", i);
        }
    }
}
