//! Microbenchmarks of the QNN arithmetic primitives — the per-cycle work
//! the simulator performs for each datapath operation — and of the kernel
//! bodies around them, each kernel alone between a host source and sink,
//! in host ns per stream element.

use qnn::dfe::{Graph, HostSink, HostSource, Kernel, StreamSpec};
use qnn::kernels::{ConvKernel, DotMode, PadInserter, PoolKernel, PoolOp};
use qnn::quant::{
    conv_accumulate_all, conv_accumulate_all_reference, dot_codes, dot_i8, ActPlanes, BnParams,
    PlaneRing, QuantSpec, ThresholdBank, ThresholdUnit,
};
use qnn::tensor::{BinaryFilters, BitVec, ConvGeometry, FilterShape, Shape3};
use qnn_testkit::{black_box, Bench};

fn mk_bits(n: usize, seed: u64) -> BitVec {
    BitVec::from_bools(&(0..n).map(|i| (i as u64 * seed) % 3 == 0).collect::<Vec<_>>())
}

fn bench_xnor_dot(bench: &Bench) {
    // Filter sizes of the paper's networks: ResNet conv1, conv2_x, conv5_x,
    // AlexNet fc6.
    for n in [147usize, 576, 4608, 9216] {
        let w = mk_bits(n, 3);
        let x = mk_bits(n, 7);
        bench.run(&format!("xnor_popcount_dot/{n}"), || {
            qnn::quant::dot_pm1(black_box(&w), black_box(&x))
        });
    }
}

fn bench_plane_dot_vs_code_dot(bench: &Bench) {
    for n in [576usize, 2304, 4608] {
        let w = mk_bits(n, 5);
        let codes: Vec<u8> = (0..n).map(|i| (i % 4) as u8).collect();
        let planes = ActPlanes::from_codes(2, &codes);
        bench.run(&format!("2bit_window_dot/bit_planes/{n}"), || {
            black_box(&planes).dot(black_box(&w))
        });
        bench.run(&format!("2bit_window_dot/naive_codes/{n}"), || {
            dot_codes(black_box(&w), black_box(&codes))
        });
    }
}

fn bench_plane_packing(bench: &Bench) {
    let n = 4608;
    let codes: Vec<u8> = (0..n).map(|i| ((i * 7) % 4) as u8).collect();
    let mut planes = ActPlanes::new(2, n);
    bench.run("pack_window_4608x2bit", || planes.pack(black_box(&codes)));
}

fn bench_first_layer_dot(bench: &Bench) {
    let n = 363; // AlexNet conv1: 11·11·3
    let w = mk_bits(n, 9);
    let px: Vec<i8> = (0..n).map(|i| ((i * 37) % 255) as i8).collect();
    bench.run("i8_dot_363", || dot_i8(black_box(&w), black_box(&px)));
}

fn bench_threshold_activate(bench: &Bench) {
    for bits in [1u32, 2, 4, 8] {
        let spec = QuantSpec::new(bits, 0.0, (1u32 << bits) as f32);
        let unit = ThresholdUnit::from_batchnorm(&BnParams::new(1.2, 10.0, 0.01, 1.0), &spec);
        let mut a = -500i32;
        bench.run(&format!("threshold_activate/{bits}"), || {
            a = (a + 7) % 1000;
            unit.activate(black_box(a))
        });
    }
}

fn bench_window_latch(bench: &Bench) {
    // ResNet conv2_x shape: K=3, I=64, W=56 → the latch moves 3 rows of
    // 192 codes out of a ring of I·(W·(K−1)+K) slots. Scalar reference:
    // gather every code and repack the planes; packed: 3 bit-span copies
    // per plane (what `ConvKernel` does under each datapath).
    let (k, i, w) = (3usize, 64usize, 56usize);
    let cap = i * (w * (k - 1) + k);
    let (row_len, row_stride, n) = (k * i, w * i, k * k * i);
    let scalar_ring: Vec<i32> = (0..cap).map(|s| ((s * 7 + 3) % 4) as i32).collect();
    let mut ring = PlaneRing::new(2, cap);
    for (s, &v) in scalar_ring.iter().enumerate() {
        ring.set(s, v as u8);
    }
    let start = 17 * i;
    let mut window = ActPlanes::new(2, n);
    bench.run("window_latch/packed_spans_576x2bit", || {
        ring.extract_window(black_box(start), k, row_len, row_stride, &mut window)
    });
    let mut codes = vec![0u8; n];
    let mut planes = ActPlanes::new(2, n);
    bench.run("window_latch/scalar_gather_pack_576x2bit", || {
        let mut at = 0;
        for r in 0..k {
            let base = black_box(start) + r * row_stride;
            for j in 0..row_len {
                codes[at] = scalar_ring[(base + j) % cap] as u8;
                at += 1;
            }
        }
        planes.pack(&codes)
    });
}

fn bench_accumulate_all(bench: &Bench) {
    // conv2_x: 64 filters of 576 bits — one latched position's emit loop.
    let (o, n) = (64usize, 576usize);
    let weights: Vec<f32> = (0..o * n)
        .map(|x| if (x * 11 + 5) % 3 == 0 { 1.0 } else { -1.0 })
        .collect();
    let filters = BinaryFilters::from_float_rows(&weights, n);
    let codes: Vec<u8> = (0..n).map(|x| ((x * 13 + 1) % 4) as u8).collect();
    let window = ActPlanes::from_codes(2, &codes);
    let mut acc = vec![0i32; o];
    bench.run("accumulate_all/blocked_gemm_64x576", || {
        conv_accumulate_all(black_box(&filters), black_box(&window), &mut acc)
    });
    bench.run("accumulate_all/per_filter_dot_64x576", || {
        conv_accumulate_all_reference(black_box(&filters), black_box(&window), &mut acc)
    });
}

/// `n` codes into a plane ring, element by element and as one run — the
/// conv absorb inside and outside a span.
fn bench_ring_write(bench: &Bench) {
    let n = 4096;
    let codes: Vec<i32> = (0..n).map(|i| ((i * 2654435761usize) >> 7) as i32 % 4).collect();
    let mut ring = PlaneRing::new(2, n + 37);
    per_element(bench, "ring_write/set_loop_2bit", n, || {
        for (s, &q) in black_box(&codes).iter().enumerate() {
            ring.set(5 + s, q as u8);
        }
    });
    per_element(bench, "ring_write/write_codes_2bit", n, || {
        ring.write_codes(5, black_box(&codes))
    });
}

/// One position's accumulators through the fused thresholds: a binary
/// search per unit, and the banked compare-count.
fn bench_threshold_bank(bench: &Bench) {
    let o = 256;
    let spec = QuantSpec::paper_2bit();
    let units: Vec<ThresholdUnit> = (0..o)
        .map(|c| {
            let bn = BnParams::new(0.5 + c as f32 / 64.0, c as f32 - 100.0, 0.02, 1.0);
            ThresholdUnit::from_batchnorm(&bn, &spec)
        })
        .collect();
    let bank = ThresholdBank::new(&units);
    let acc: Vec<i32> = (0..o as i32).map(|c| (c * 37) % 600 - 300).collect();
    let mut out = vec![0i32; o];
    per_element(bench, "threshold/unit_binary_search_2bit", o, || {
        for ((q, unit), &a) in out.iter_mut().zip(&units).zip(black_box(&acc)) {
            *q = i32::from(unit.activate(a));
        }
    });
    per_element(bench, "threshold/bank_compare_count_2bit", o, || {
        out.copy_from_slice(black_box(&acc));
        bank.activate_all(&mut out)
    });
}

/// Time `f` and print its median per element as well.
fn per_element<T>(bench: &Bench, name: &str, elements: usize, f: impl FnMut() -> T) {
    let m = bench.run(name, f);
    println!(
        "bench {name:<44} {:>10.2} ns/element",
        m.median().as_nanos() as f64 / elements as f64
    );
}

/// `images` through source → `kernel` → sink at FIFO depth 512 (the
/// compiler's default), per stream element on the kernel's busier side.
fn kernel_alone(
    bench: &Bench,
    name: &str,
    make: &dyn Fn() -> Box<dyn Kernel>,
    image: &[i32],
    out_len: usize,
) {
    let images = 4;
    let data: Vec<i32> = std::iter::repeat_n(image, images).flatten().copied().collect();
    per_element(bench, name, images * image.len().max(out_len), || {
        let mut g = Graph::new();
        let a = g.add_stream(StreamSpec::new("in", 8, 512));
        let b = g.add_stream(StreamSpec::new("out", 16, 512));
        g.add_kernel(Box::new(HostSource::new("src", data.clone())), &[], &[a]);
        g.add_kernel(make(), &[a], &[b]);
        let (sink, handle) = HostSink::new("dst", images * out_len);
        g.add_kernel(Box::new(sink), &[b], &[]);
        g.run(u64::MAX).expect("a lone kernel cannot deadlock");
        handle.take()
    });
}

/// The span bodies this repo's workloads spend their kernel time in, at
/// VGG/ResNet mid-network shapes.
fn bench_kernel_bodies(bench: &Bench) {
    let codes = |n: usize| -> Vec<i32> { (0..n).map(|i| ((i * 7 + i / 5) % 4) as i32).collect() };
    let filters = |geom: &ConvGeometry| {
        let w: Vec<f32> = (0..geom.filter.total_weights())
            .map(|i| if (i * 11 + 5) % 3 == 0 { 1.0 } else { -1.0 })
            .collect();
        BinaryFilters::from_float_rows(&w, geom.filter.weights_per_filter())
    };
    let spec = QuantSpec::paper_2bit();
    let units = |o: usize| -> Vec<ThresholdUnit> {
        (0..o)
            .map(|c| {
                let bn = BnParams::new(0.1, c as f32 - 8.0, 0.05, 1.0);
                ThresholdUnit::from_batchnorm(&bn, &spec)
            })
            .collect()
    };
    let mode = DotMode::Codes { bits: 2 };

    // Absorb-bound: a wide window buffer feeding two filters.
    let geom = ConvGeometry::new(Shape3::new(18, 18, 128), FilterShape::new(3, 128, 2), 1, 0);
    kernel_alone(
        bench,
        "kernel_alone/conv_absorb_18x18x128",
        &|| Box::new(ConvKernel::new("conv", geom, filters(&geom), None, mode)),
        &codes(geom.input.len()),
        geom.output().len(),
    );
    // Emit-bound: a 1×1 conv fanning 16 channels out to 256 thresholded maps.
    let geom = ConvGeometry::new(Shape3::new(16, 16, 16), FilterShape::new(1, 16, 256), 1, 0);
    kernel_alone(
        bench,
        "kernel_alone/conv_emit_threshold_16to256",
        &|| Box::new(ConvKernel::new("conv", geom, filters(&geom), Some(units(256)), mode)),
        &codes(geom.input.len()),
        geom.output().len(),
    );
    let shape = Shape3::new(32, 32, 64);
    let pool = || PoolKernel::new("pool", shape, 2, 2, PoolOp::Max);
    kernel_alone(
        bench,
        "kernel_alone/max_pool_2x2_32x32x64",
        &|| Box::new(pool()),
        &codes(shape.len()),
        pool().output_shape().len(),
    );
    let pad = || PadInserter::new("pad", shape, 1, 0);
    kernel_alone(
        bench,
        "kernel_alone/pad_1_32x32x64",
        &|| Box::new(pad()),
        &codes(shape.len()),
        pad().output_shape().len(),
    );
}

fn main() {
    let bench = Bench::from_env();
    bench_xnor_dot(&bench);
    bench_plane_dot_vs_code_dot(&bench);
    bench_plane_packing(&bench);
    bench_first_layer_dot(&bench);
    bench_threshold_activate(&bench);
    bench_window_latch(&bench);
    bench_accumulate_all(&bench);
    bench_ring_write(&bench);
    bench_threshold_bank(&bench);
    bench_kernel_bodies(&bench);
}
