//! Layers run alone: what a `kernels`, `quant` or `cluster::wire` change
//! moves before any scheduler, queue or socket is involved. Each figure
//! compares a layer with itself across commits; it is not a share of the
//! workload's run (a lone conv is busy for its whole input, a pipelined one
//! is parked most of the time).

use crate::measure::{fastest, median, Yardstick};
use crate::sim::random_image;
use qnn::cluster::wire::{Frame, FrameBuffer, RequestFrame, ResponseFrame};
use qnn::compiler::CompileOptions;
use qnn::dfe::{Graph, HostSink, HostSource, StreamSpec};
use qnn::hw::{Fold, FoldPlan};
use qnn::kernels::{AttentionHeadKernel, ConvKernel, DotMode, PadInserter};
use qnn::nn::{NetworkSpec, Stage};
use qnn::quant::{conv_accumulate_all, conv_accumulate_all_i8, ActPlanes};
use qnn::serve::Priority;
use qnn::tensor::{BinaryFilters, ConvGeometry, Shape3};
use qnn_testkit::{black_box, Rng};
use std::time::Instant;

/// Fewest timed passes, however small the time budget.
const MIN_PASSES: usize = 3;

/// One distinct convolution of a network and how many layers share it.
struct ConvLayer {
    geom: ConvGeometry,
    i8_input: bool,
    fold: Fold,
    count: usize,
}

/// Every convolution of `spec` under the lowering's labels (`conv0`,
/// `res2.conv1`, `res4.ds`), merged where geometry and fold coincide.
fn conv_layers(spec: &NetworkSpec, folding: &FoldPlan) -> Vec<ConvLayer> {
    let mut labelled = Vec::new();
    for (i, stage) in spec.stages.iter().enumerate() {
        match stage {
            Stage::ConvInput { geom } => labelled.push((format!("conv{i}"), *geom, true)),
            Stage::Conv { geom } => labelled.push((format!("conv{i}"), *geom, false)),
            Stage::Residual { geom } => {
                labelled.push((format!("res{i}.conv1"), geom.conv1, false));
                labelled.push((format!("res{i}.conv2"), geom.conv2, false));
                if let Some(ds) = geom.downsample {
                    labelled.push((format!("res{i}.ds"), ds, false));
                }
            }
            _ => {}
        }
    }
    let mut layers: Vec<ConvLayer> = Vec::new();
    for (label, geom, i8_input) in labelled {
        let fold = folding
            .entries()
            .iter()
            .find(|(l, _)| *l == label)
            .map_or(Fold::UNIT, |(_, f)| *f);
        match layers
            .iter_mut()
            .find(|l| l.geom == geom && l.i8_input == i8_input && l.fold == fold)
        {
            Some(same) => same.count += 1,
            None => layers.push(ConvLayer {
                geom,
                i8_input,
                fold,
                count: 1,
            }),
        }
    }
    layers
}

fn random_filters(geom: &ConvGeometry, rng: &mut Rng) -> BinaryFilters {
    let weights: Vec<f32> = (0..geom.filter.total_weights())
        .map(|_| if rng.gen_bool(0.5) { 1.0 } else { -1.0 })
        .collect();
    BinaryFilters::from_float_rows(&weights, geom.filter.weights_per_filter())
}

fn random_codes(n: usize, bits: u32, rng: &mut Rng) -> Vec<u8> {
    (0..n).map(|_| rng.below(1 << bits) as u8).collect()
}

/// One image through source → pad → `ConvKernel` → sink, wired as the
/// lowering wires it; returns the wall time of the run alone.
fn conv_alone(layer: &ConvLayer, bits: u32, fifo: usize, rng: &mut Rng) -> f64 {
    let geom = &layer.geom;
    let (mode, in_bits) = if layer.i8_input {
        (DotMode::I8, 8)
    } else {
        (DotMode::Codes { bits }, bits)
    };
    let data: Vec<i32> = if layer.i8_input {
        random_image(geom.input, rng)
            .as_slice()
            .iter()
            .map(|&p| i32::from(p))
            .collect()
    } else {
        random_codes(geom.input.len(), bits, rng)
            .into_iter()
            .map(i32::from)
            .collect()
    };
    let mut g = Graph::new();
    let mut input = g.add_stream(StreamSpec::new("in", in_bits, fifo));
    g.add_kernel(Box::new(HostSource::new("src", data)), &[], &[input]);
    if geom.pad > 0 {
        let padded = g.add_stream(StreamSpec::new("padded", in_bits, fifo));
        let pad = PadInserter::new("pad", geom.input, geom.pad, 0).with_lanes(layer.fold.simd);
        g.add_kernel(Box::new(pad), &[input], &[padded]);
        input = padded;
    }
    let padded_geom = ConvGeometry::new(geom.padded_input(), geom.filter, geom.stride, 0);
    let conv = ConvKernel::new("conv", padded_geom, random_filters(geom, rng), None, mode)
        .with_folding(layer.fold.pe, layer.fold.simd);
    let out = g.add_stream(StreamSpec::new("out", 16, fifo));
    g.add_kernel(Box::new(conv), &[input], &[out]);
    let (sink, handle) = HostSink::new("dst", geom.output().len());
    g.add_kernel(Box::new(sink), &[out], &[]);
    let t = Instant::now();
    g.run(u64::MAX).expect("a lone convolution cannot deadlock");
    let wall = t.elapsed().as_secs_f64();
    black_box(handle.take());
    wall
}

/// Host ms per image of the network's convolutions, each run alone at the
/// fold `folding` gives it, summed by how often the image meets each.
pub fn conv_ms_per_img(
    spec: &NetworkSpec,
    folding: &FoldPlan,
    opts: &CompileOptions,
    rng: &mut Rng,
    yard: &mut Yardstick,
    budget_s: f64,
) -> f64 {
    let layers = conv_layers(spec, folding);
    let start = Instant::now();
    let mut passes = Vec::new();
    while passes.len() < MIN_PASSES || start.elapsed().as_secs_f64() < budget_s {
        let pass = yard.timed(|| -> f64 {
            layers
                .iter()
                .map(|l| l.count as f64 * conv_alone(l, spec.act_bits, opts.fifo_capacity, rng))
                .sum()
        });
        // Only the runs are timed, not the building of their graphs.
        passes.push(pass.value * 1e3 * pass.speed);
    }
    median(&passes)
}

pub struct Gemm {
    pub codes_ms: f64,
    pub i8_ms: f64,
    pub gmacs_per_s: f64,
}

/// The accumulate-all kernels alone: one call per output position of every
/// convolution, which is what the packed conv datapath asks of `quant` per
/// image. The MAC count is computed from the geometry, not measured.
pub fn gemm(spec: &NetworkSpec, rng: &mut Rng, yard: &mut Yardstick, budget_s: f64) -> Gemm {
    struct Work {
        filters: BinaryFilters,
        window: ActPlanes,
        pixels: Vec<i8>,
        calls: usize,
        i8_input: bool,
    }
    let mut macs = 0u64;
    let work: Vec<Work> = conv_layers(spec, &FoldPlan::new())
        .iter()
        .map(|l| {
            let n = l.geom.filter.weights_per_filter();
            let out = l.geom.output();
            macs += l.count as u64 * l.geom.macs();
            Work {
                filters: random_filters(&l.geom, rng),
                window: ActPlanes::from_codes(spec.act_bits, &random_codes(n, spec.act_bits, rng)),
                pixels: (0..n).map(|_| rng.gen_range(-127i8..=127)).collect(),
                calls: l.count * out.h * out.w,
                i8_input: l.i8_input,
            }
        })
        .collect();
    let mut acc = vec![
        0i32;
        work.iter()
            .map(|w| w.filters.num_filters())
            .max()
            .unwrap_or(0)
    ];
    let start = Instant::now();
    let (mut codes_ms, mut i8_ms) = (Vec::new(), Vec::new());
    while codes_ms.len() < MIN_PASSES || start.elapsed().as_secs_f64() < budget_s {
        let pass = yard.timed(|| {
            let (mut codes, mut i8) = (0.0, 0.0);
            for w in &work {
                let acc = &mut acc[..w.filters.num_filters()];
                let t = Instant::now();
                for _ in 0..w.calls {
                    if w.i8_input {
                        conv_accumulate_all_i8(black_box(&w.filters), black_box(&w.pixels), acc);
                    } else {
                        conv_accumulate_all(black_box(&w.filters), black_box(&w.window), acc);
                    }
                    black_box(&*acc);
                }
                *(if w.i8_input { &mut i8 } else { &mut codes }) += t.elapsed().as_secs_f64() * 1e3;
            }
            (codes, i8)
        });
        codes_ms.push(pass.value.0 * pass.speed);
        i8_ms.push(pass.value.1 * pass.speed);
    }
    let (codes_ms, i8_ms) = (median(&codes_ms), median(&i8_ms));
    Gemm {
        codes_ms,
        i8_ms,
        gmacs_per_s: macs as f64 / ((codes_ms + i8_ms) * 1e-3) / 1e9,
    }
}

/// Host ms per image of the attention heads alone: `heads_per_img` runs of
/// one `AttentionHeadKernel` fed Q, K and V tiles straight from the host.
pub fn attention_ms_per_img(
    seq_len: usize,
    head_dim: usize,
    bits: u32,
    heads_per_img: usize,
    rng: &mut Rng,
    passes: usize,
) -> f64 {
    let tile = seq_len * head_dim;
    let samples: Vec<f64> = (0..passes)
        .map(|_| {
            let mut g = Graph::new();
            let inputs: Vec<_> = ["q", "k", "v"]
                .iter()
                .map(|name| {
                    let s = g.add_stream(StreamSpec::new(*name, bits, 512));
                    let data = random_codes(tile, bits, rng)
                        .into_iter()
                        .map(i32::from)
                        .collect();
                    g.add_kernel(
                        Box::new(HostSource::new(format!("{name}.src"), data)),
                        &[],
                        &[s],
                    );
                    s
                })
                .collect();
            let out = g.add_stream(StreamSpec::new("out", bits, 512));
            let head = AttentionHeadKernel::new("attn", bits, seq_len, head_dim);
            g.add_kernel(Box::new(head), &inputs, &[out]);
            let (sink, handle) = HostSink::new("dst", tile);
            g.add_kernel(Box::new(sink), &[out], &[]);
            let t = Instant::now();
            g.run(u64::MAX)
                .expect("a lone attention head cannot deadlock");
            let wall = t.elapsed().as_secs_f64();
            black_box(handle.take());
            wall * 1e3 * heads_per_img as f64
        })
        .collect();
    fastest(&samples)
}

pub struct Wire {
    pub encode_ns: f64,
    pub decode_ns: f64,
    pub bytes_per_req: f64,
}

/// The wire codec alone, over the request shapes the serving workload
/// sends and the response it gets back.
pub fn wire(shapes: &[Shape3], classes: usize, rng: &mut Rng, passes: usize) -> Wire {
    let frames: Vec<Frame> = shapes
        .iter()
        .map(|&shape| {
            Frame::Request(RequestFrame {
                id: rng.next_u64(),
                model: "cnn-a".to_string(),
                priority: Priority::Batch,
                deadline_us: None,
                image: random_image(shape, rng),
            })
        })
        .collect();
    let response = Frame::Response(ResponseFrame {
        id: rng.next_u64(),
        weight_version: 0,
        replica: 0,
        batch_size: 4,
        logits: (0..classes).map(|_| rng.gen_range(-500i32..=500)).collect(),
    });
    let (mut encode_ns, mut decode_ns, mut bytes) = (Vec::new(), Vec::new(), 0usize);
    for pass in 0..passes {
        let frame = &frames[pass % frames.len()];
        let t = Instant::now();
        let encoded = black_box(frame).encode();
        encode_ns.push(t.elapsed().as_nanos() as f64);
        let t = Instant::now();
        let mut buffer = FrameBuffer::new();
        buffer.feed(black_box(&encoded));
        let decoded = buffer.next_frame();
        decode_ns.push(t.elapsed().as_nanos() as f64);
        assert!(
            matches!(decoded, Ok(Some(_))),
            "round trip of a valid frame"
        );
        bytes += encoded.len();
    }
    Wire {
        encode_ns: median(&encode_ns),
        decode_ns: median(&decode_ns),
        bytes_per_req: bytes as f64 / passes as f64 + response.encode().len() as f64,
    }
}
