//! Stall-injection property suite: streaming kernels must be *timing
//! insensitive* — their output streams depend only on the data, never on
//! when elements happen to arrive or when downstream accepts them.
//!
//! Each property runs the same kernel cell twice at `Kernel::tick`
//! granularity: once clean, once with every node (sources, the kernel
//! under test, sinks) wrapped in a [`StallInjector`] that suppresses a
//! random subset of ticks. The injected pattern models clock-domain
//! jitter, PCIe arbitration and MaxRing credit delays; the outputs must be
//! bit-identical regardless. Deadlock detection is disabled because an
//! injected stall can legitimately produce a full no-progress cycle (see
//! the `dfe_platform::stall` module docs); the cycle budget still bounds
//! every run.
//!
//! The folded pad → conv → pool → residual pair → FC cell at the end adds
//! the *dispatch* dimension: clean runs with macro-tick spans on (the
//! default stepper) and off (every kernel under a `DenseOracle`) must
//! agree on every counter,
//! at any PE/SIMD
//! folding — the rate-annotated span promises of the folded kernels, and
//! the slice-level `run_span` body of every kernel in the cell, against
//! their own `tick`.

use dfe_platform::{
    CycleReport, DenseOracle, Graph, HostSink, HostSource, Kernel, StallInjector, StreamSpec,
};
use qnn_kernels::{
    AddKernel, ConvKernel, DotMode, PadInserter, PoolKernel, PoolOp, SplitKernel, ThresholdKernel,
};
use qnn_quant::{BnParams, QuantSpec, ThresholdUnit};
use qnn_tensor::{BinaryFilters, ConvGeometry, FilterShape, Shape3, Tensor3};
use qnn_testkit::{any, prop_assert_eq, prop_assume, props};

const MAX_CYCLES: u64 = 100_000_000;

/// Derive a per-node injector seed so each node gets its own pattern.
fn node_seed(base: u64, node: u64) -> u64 {
    base ^ node.wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// Run one kernel between host sources and sinks, optionally with every
/// node stall-injected, and return each output stream.
fn run_cell(
    make: &dyn Fn() -> Box<dyn Kernel>,
    inputs: &[Vec<i32>],
    out_lens: &[usize],
    cap: usize,
    stall: Option<(u64, u8)>,
) -> Vec<Vec<i32>> {
    let inject = |k: Box<dyn Kernel>, node: u64| match stall {
        Some((seed, pct)) => StallInjector::wrap(k, node_seed(seed, node), pct),
        None => k,
    };
    let mut g = Graph::new();
    let ins: Vec<_> = inputs
        .iter()
        .enumerate()
        .map(|(i, data)| {
            let s = g.add_stream(StreamSpec::new(format!("in{i}"), 32, cap));
            let src = inject(Box::new(HostSource::new(format!("src{i}"), data.clone())), i as u64);
            g.add_kernel(src, &[], &[s]);
            s
        })
        .collect();
    let outs: Vec<_> = (0..out_lens.len())
        .map(|i| g.add_stream(StreamSpec::new(format!("out{i}"), 32, cap)))
        .collect();
    g.add_kernel(inject(make(), 100), &ins, &outs);
    let handles: Vec<_> = out_lens
        .iter()
        .zip(&outs)
        .enumerate()
        .map(|(i, (&n, &s))| {
            let (sink, h) = HostSink::new(format!("dst{i}"), n);
            g.add_kernel(inject(Box::new(sink), 200 + i as u64), &[s], &[]);
            h
        })
        .collect();
    g.run_opts(MAX_CYCLES, false).expect("cell run");
    handles.into_iter().map(|h| h.take()).collect()
}

/// A folded network in miniature, one of every span-capable kernel:
/// source → pad → 3×3 conv (thresholds fused or not) → pool → split →
/// {threshold unit | skip} → add → 1×1 FC-style conv over 8-plane codes →
/// sink, with per-kernel folding and one FIFO depth throughout.
#[derive(Clone, Copy, Debug)]
struct FoldedCell {
    side: usize,
    channels: usize,
    filters: usize,
    conv_stride: usize,
    /// Fuse BatchNorm+activation thresholds into the 3×3 conv's emit.
    fused: bool,
    /// Pool window and stride.
    pool: (usize, usize),
    /// Average (sum and shift) instead of max.
    avg: bool,
    conv_fold: (usize, usize),
    pool_fold: (usize, usize),
    /// Output maps and `(pe, simd)` folding of the closing 1×1 conv.
    fc: (usize, (usize, usize)),
    cap: usize,
}

impl FoldedCell {
    fn image(&self, seed: u64) -> Vec<i32> {
        (0..self.side * self.side * self.channels)
            .map(|i| ((seed.wrapping_add(i as u64 * 29) >> 3) % 4) as i32)
            .collect()
    }

    /// Run `images` through the cell; `dense` wraps every node in a
    /// [`DenseOracle`], `stall` in a [`StallInjector`]. Returns the output
    /// stream, the report, and the cycles covered by bursts.
    fn run(
        &self,
        images: &[Vec<i32>],
        dense: bool,
        stall: Option<(u64, u8)>,
    ) -> (Vec<i32>, CycleReport, u64) {
        let inject = |k: Box<dyn Kernel>, node: u64| match stall {
            Some((seed, pct)) => StallInjector::wrap(k, node_seed(seed, node), pct),
            None => k,
        };
        let input = Shape3::new(self.side, self.side, self.channels);
        let geom = ConvGeometry::new(
            Shape3::new(self.side + 2, self.side + 2, self.channels),
            FilterShape::new(3, self.channels, self.filters),
            self.conv_stride,
            0,
        );
        let weights: Vec<f32> = (0..geom.filter.total_weights())
            .map(|i| if (i * 7 + i / 3) % 5 < 2 { 1.0 } else { -1.0 })
            .collect();
        let filters = BinaryFilters::from_float_rows(&weights, geom.filter.weights_per_filter());
        // Per-channel units of either direction, and a constant one.
        let spec = QuantSpec::paper_2bit();
        let units = |salt: usize| -> Vec<ThresholdUnit> {
            (0..self.filters)
                .map(|c| {
                    let gamma = [0.5, -0.25, 0.0, 2.0][(c + salt) % 4];
                    let bn = BnParams::new(gamma, (c * 3) as f32 - 4.0, 0.5, 0.3 * c as f32);
                    ThresholdUnit::from_batchnorm(&bn, &spec)
                })
                .collect()
        };
        let (pe, simd) = self.conv_fold;
        let pad = PadInserter::new("pad", input, 1, 0).with_lanes(simd);
        let fused = self.fused.then(|| units(0));
        let conv = ConvKernel::new("conv", geom, filters, fused, DotMode::Codes { bits: 2 })
            .with_folding(pe, simd);
        let op = if self.avg { PoolOp::AvgShift } else { PoolOp::Max };
        let pool = PoolKernel::new("pool", geom.output(), self.pool.0, self.pool.1, op)
            .with_folding(self.pool_fold.0, self.pool_fold.1);
        let (fc_out, (fc_pe, fc_simd)) = self.fc;
        let fc_geom =
            ConvGeometry::new(pool.output_shape(), FilterShape::new(1, self.filters, fc_out), 1, 0);
        let fc_weights: Vec<f32> = (0..fc_geom.filter.total_weights())
            .map(|i| if (i * 5 + i / 7) % 3 == 0 { 1.0 } else { -1.0 })
            .collect();
        let fc_filters =
            BinaryFilters::from_float_rows(&fc_weights, fc_geom.filter.weights_per_filter());
        let fc = ConvKernel::new("fc", fc_geom, fc_filters, None, DotMode::Codes { bits: 8 })
            .with_folding(fc_pe, fc_simd);
        let out_len = fc_geom.output().len() * images.len();

        let mut g = Graph::new();
        let [s_in, padded, conv_out, pool_out, main, skip, act, sum, fc_out] =
            ["in", "padded", "conv.out", "pool.out", "main", "skip", "act", "sum", "fc.out"]
                .map(|name| g.add_stream(StreamSpec::new(name, 32, self.cap)));
        let src = HostSource::new("src", images.concat());
        g.add_kernel(inject(Box::new(src), 0), &[], &[s_in]);
        g.add_kernel(inject(Box::new(pad), 1), &[s_in], &[padded]);
        g.add_kernel(inject(Box::new(conv), 2), &[padded], &[conv_out]);
        g.add_kernel(inject(Box::new(pool), 3), &[conv_out], &[pool_out]);
        let split = SplitKernel::new("split");
        g.add_kernel(inject(Box::new(split), 4), &[pool_out], &[main, skip]);
        let thr = ThresholdKernel::new("thr", units(1));
        g.add_kernel(inject(Box::new(thr), 5), &[main], &[act]);
        g.add_kernel(inject(Box::new(AddKernel::new("add")), 6), &[act, skip], &[sum]);
        g.add_kernel(inject(Box::new(fc), 7), &[sum], &[fc_out]);
        let (sink, handle) = HostSink::new("dst", out_len);
        g.add_kernel(inject(Box::new(sink), 8), &[fc_out], &[]);
        if dense {
            g.map_kernels(|_, k| DenseOracle::wrap(k));
        }
        let report = g.run_opts(MAX_CYCLES, stall.is_none()).expect("folded cell run");
        (handle.take(), report, g.burst_cycles())
    }
}

props! {
    /// The folded cell: the default stepper agrees with dense stepping on
    /// outputs and on every counter of the report, at any folding, stride,
    /// FIFO depth and image count — and the output stream survives random
    /// stall injection on every node, and a 0 % injector on every node
    /// leaves the cycle count as it is.
    #[test]
    fn folded_cell_agrees_with_spans_on_and_off(
        side in 4usize..9,
        channels in 1usize..4,
        filters in 1usize..13,
        (conv_stride, fused, avg) in (1usize..3, any::<bool>(), any::<bool>()),
        pool in (1usize..4, 1usize..3),
        conv_fold in (1usize..5, 1usize..5),
        pool_fold in (1usize..4, 1usize..9),
        fc in (1usize..10, (1usize..4, 1usize..4)),
        cap in 2usize..40,
        n_images in 1usize..3,
        seed in any::<u64>(),
        stall in 5u8..60,
    ) {
        prop_assume!((side - 1) / conv_stride + 1 >= pool.0);
        let cell = FoldedCell {
            side, channels, filters, conv_stride, fused, pool, avg, conv_fold, pool_fold, fc, cap,
        };
        let images: Vec<_> = (0..n_images as u64).map(|i| cell.image(seed ^ i)).collect();
        let (out_d, dense, _) = cell.run(&images, true, None);
        let (out, report, _) = cell.run(&images, false, None);
        prop_assert_eq!(&out, &out_d);
        prop_assert_eq!(&report, &dense, "span dispatch diverges from dense");
        let (out_s, ..) = cell.run(&images, false, Some((seed, stall)));
        prop_assert_eq!(&out_d, &out_s, "stall injection changed the output");
        // Wrapped but never stalled, every kernel keeps its lanes: the run
        // takes exactly the unwrapped run's cycles.
        let (out_0, report_0, _) = cell.run(&images, false, Some((seed, 0)));
        prop_assert_eq!(&out_0, &out_d);
        prop_assert_eq!(report_0.cycles, dense.cycles, "a 0 % injector changed the timing");
    }

    /// Pooling (both ops) is bit-identical under random stall injection,
    /// and still matches the analytic reference.
    #[test]
    fn pool_kernel_is_timing_insensitive(
        side in 3usize..10,
        c in 1usize..4,
        k in 1usize..4,
        stride in 1usize..3,
        avg in any::<bool>(),
        cap in 2usize..16,
        seed in any::<u64>(),
        stall in 5u8..60,
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
        let data: Vec<i32> = input.as_slice().iter().map(|&q| i32::from(q)).collect();
        let make = || Box::new(PoolKernel::new("p", shape, k, stride, op)) as Box<dyn Kernel>;
        let out_len = expect.shape().len();
        let clean = run_cell(&make, std::slice::from_ref(&data), &[out_len], cap, None);
        let stalled = run_cell(&make, &[data], &[out_len], cap, Some((seed, stall)));
        prop_assert_eq!(&stalled, &clean, "stall injection changed the output");
        let clean_u8: Vec<u8> = clean[0].iter().map(|&v| v as u8).collect();
        prop_assert_eq!(clean_u8.as_slice(), expect.as_slice());
    }

    /// The fused BatchNorm+activation kernel is bit-identical under random
    /// stall injection for random per-channel parameters.
    #[test]
    fn threshold_kernel_is_timing_insensitive(
        c in 1usize..5,
        pixels in 2usize..40,
        cap in 2usize..16,
        seed in any::<u64>(),
        stall in 5u8..60,
    ) {
        let spec = QuantSpec::paper_2bit();
        let make = move || {
            let units: Vec<ThresholdUnit> = (0..c)
                .map(|ch| {
                    let bn = BnParams::new(
                        0.25 + 0.5 * ch as f32,
                        (seed % 11) as f32 - 5.0,
                        0.5,
                        0.1 * ch as f32,
                    );
                    ThresholdUnit::from_batchnorm(&bn, &spec)
                })
                .collect();
            Box::new(ThresholdKernel::new("thr", units)) as Box<dyn Kernel>
        };
        let data: Vec<i32> = (0..pixels * c)
            .map(|i| ((seed.wrapping_add(i as u64 * 37) % 41) as i32) - 20)
            .collect();
        let n = data.len();
        let clean = run_cell(&make, std::slice::from_ref(&data), &[n], cap, None);
        let stalled = run_cell(&make, &[data], &[n], cap, Some((seed, stall)));
        prop_assert_eq!(stalled, clean);
    }

    /// The skip-connection adder with two independently stalled operand
    /// streams never misaligns them.
    #[test]
    fn add_kernel_keeps_operands_aligned_under_stalls(
        n in 1usize..60,
        cap in 2usize..16,
        seed in any::<u64>(),
        stall in 5u8..60,
    ) {
        let a: Vec<i32> = (0..n).map(|i| (seed.wrapping_add(i as u64) % 100) as i32).collect();
        let b: Vec<i32> = (0..n).map(|i| (seed.wrapping_mul(3).wrapping_add(i as u64 * 7) % 100) as i32 * 100).collect();
        let expect: Vec<i32> = a.iter().zip(&b).map(|(x, y)| x + y).collect();
        let make = || Box::new(AddKernel::new("add")) as Box<dyn Kernel>;
        let stalled =
            run_cell(&make, &[a.clone(), b.clone()], &[n], cap, Some((seed, stall)));
        prop_assert_eq!(&stalled[0], &expect, "operand streams misaligned");
    }

    /// The post-adder split keeps both fan-out copies identical and
    /// in-order even when each path backpressures at random.
    #[test]
    fn split_kernel_duplicates_faithfully_under_stalls(
        n in 1usize..60,
        cap in 2usize..16,
        seed in any::<u64>(),
        stall in 5u8..60,
    ) {
        let data: Vec<i32> = (0..n).map(|i| (seed.wrapping_add(i as u64 * 13) % 1000) as i32).collect();
        let make = || Box::new(SplitKernel::new("split")) as Box<dyn Kernel>;
        let stalled = run_cell(&make, std::slice::from_ref(&data), &[n, n], cap, Some((seed, stall)));
        prop_assert_eq!(&stalled[0], &data, "first copy corrupted");
        prop_assert_eq!(&stalled[1], &data, "second copy corrupted");
    }
}

/// Whole skip cell (split → two paths → add) under independent stall
/// patterns on every node: the classic place where a flow-control bug
/// shows up as path misalignment.
#[test]
fn skip_cell_survives_independent_stall_patterns() {
    for seed in 0..8u64 {
        let n = 40usize;
        let data: Vec<i32> = (0..n as i32).map(|v| v * 3 + 1).collect();
        let mut g = Graph::new();
        let s_in = g.add_stream(StreamSpec::new("in", 32, 4));
        let s_a = g.add_stream(StreamSpec::new("path_a", 32, 4));
        let s_b = g.add_stream(StreamSpec::new("path_b", 32, 4));
        let s_out = g.add_stream(StreamSpec::new("out", 32, 4));
        let pct = 30 + (seed % 3) as u8 * 10;
        g.add_kernel(
            StallInjector::wrap(Box::new(HostSource::new("src", data.clone())), seed, pct),
            &[],
            &[s_in],
        );
        g.add_kernel(
            StallInjector::wrap(Box::new(SplitKernel::new("split")), seed ^ 1, pct),
            &[s_in],
            &[s_a, s_b],
        );
        g.add_kernel(
            StallInjector::wrap(Box::new(AddKernel::new("add")), seed ^ 2, pct),
            &[s_a, s_b],
            &[s_out],
        );
        let (sink, h) = HostSink::new("dst", n);
        g.add_kernel(StallInjector::wrap(Box::new(sink), seed ^ 3, pct), &[s_out], &[]);
        g.run_opts(MAX_CYCLES, false).expect("skip cell run");
        let expect: Vec<i32> = data.iter().map(|v| v * 2).collect();
        assert_eq!(h.take(), expect, "seed {seed}");
    }
}

/// The folded cell must actually burst (with its folded kernels awake for
/// nearly the whole run, any burst has them as participants): most of a
/// run at lane-rate folding is covered by spans.
#[test]
fn folded_cell_bursts() {
    let cell = FoldedCell {
        side: 12,
        channels: 4,
        filters: 64,
        conv_stride: 1,
        fused: true,
        pool: (2, 2),
        avg: false,
        conv_fold: (4, 2),
        pool_fold: (2, 4),
        fc: (8, (2, 2)),
        cap: 64,
    };
    let images = [cell.image(5), cell.image(6)];
    let (_, report, burst_cycles) = cell.run(&images, false, None);
    assert!(
        burst_cycles * 2 > report.cycles,
        "spans cover {burst_cycles} of {} cycles at a folded cell",
        report.cycles
    );
}
