//! Inputs shared by the differential batteries: the dense oracle every
//! stepper battery holds the default stepping against
//! (`scheduler_equivalence.rs`, `macro_tick_equivalence.rs`, …) and the
//! stall injectors laced into compiled networks (`pipeline_rearm.rs`,
//! `transformer_equivalence.rs`). Each test crate uses a subset.
#![allow(dead_code)]

use qnn::compiler::{
    elaborate, CompileOptions, CompiledNetwork, Fold, FoldPlan, SimError, SimResult,
};
use qnn::dfe::{
    CycleReport, DenseOracle, Graph, HostSink, HostSource, Io, Kernel, Progress, SpanIo,
    SpanPlan, StallInjector, StreamSpec, WakeHint,
};
use qnn::hw::{skip_buffers, CycleModel, SkipBuffer};
use qnn::nn::{Network, NetworkSpec, Stage};
use qnn::tensor::Tensor3;

/// Lace every kernel of an elaborated, not yet loaded `pipeline` with a
/// `DenseOracle`: its runs then tick every kernel every cycle, with no
/// parking, bursts or replay — the reference the default stepping must
/// match bit for bit. Deadlock detection stays on.
pub fn dense(pipeline: &mut CompiledNetwork) {
    assert_eq!(pipeline.images, 0, "the oracle is laced in before the first load");
    pipeline.graphs[0].map_kernels(|_, k| DenseOracle::wrap(k));
}

/// `try_compile`, on the dense oracle when `on_oracle` is set: elaborate,
/// [`dense`], load.
pub fn compile_on(
    on_oracle: bool,
    net: &Network,
    images: &[Tensor3<i8>],
    opts: &CompileOptions,
) -> Result<CompiledNetwork, SimError> {
    let mut pipeline = elaborate(net, opts)?;
    if on_oracle {
        dense(&mut pipeline);
    }
    pipeline.load(images);
    Ok(pipeline)
}

/// `run_images` on the dense oracle.
pub fn run_dense(
    net: &Network,
    images: &[Tensor3<i8>],
    opts: &CompileOptions,
) -> Result<SimResult, SimError> {
    Ok(compile_on(true, net, images, opts)?.run()?)
}

/// Elaborate `net` at `opts`; with `stalls = Some((seed, pct))`, wrap every
/// kernel in a `StallInjector` suppressing ~`pct` % of its ticks, seeded
/// `seed ^ seq·0x9E37_79B9_7F4A_7C15` for node index `seq`, so each kernel
/// sees its own stall pattern. Load and run it as any compiled network;
/// logits must match the uninjected run's at any setting (see
/// `CompiledNetwork::wrap_kernels` for what the wrapping switches off).
pub fn elaborate_stalled(
    net: &Network,
    opts: &CompileOptions,
    stalls: Option<(u64, u8)>,
) -> CompiledNetwork {
    let mut pipeline = elaborate(net, opts).expect("valid options");
    if let Some((seed, pct)) = stalls {
        pipeline.wrap_kernels(|seq, k| {
            StallInjector::wrap(k, seed ^ seq.wrapping_mul(0x9E37_79B9_7F4A_7C15), pct)
        });
    }
    pipeline
}

/// A fold plan over every foldable layer of `spec`, each with power-of-two
/// PE and SIMD factors from 1 to 4 drawn from the bits of `seed`.
pub fn random_plan(spec: &NetworkSpec, mut seed: u64) -> FoldPlan {
    let mut plan = FoldPlan::new();
    for layer in CycleModel::analyze(spec).layers.iter().filter(|l| l.foldable()) {
        plan.set(&layer.name, Fold::new(1 << ((seed & 3) % 3), 1 << ((seed >> 2 & 3) % 3)));
        seed >>= 4;
    }
    plan
}

/// Every reconvergent-path stream the lowering of `spec` builds, by full
/// name (`res2.skipbuf`, `res3.ds.out`, `enc1.ffskip`, …), with the buffer
/// `skip_buffers` sizes it to beside FIFOs of `fifo_capacity`.
pub fn skip_streams(spec: &NetworkSpec, fifo_capacity: usize) -> Vec<(String, SkipBuffer)> {
    let mut streams = Vec::new();
    for (i, stage) in spec.stages.iter().enumerate() {
        let label = match stage {
            Stage::Encoder { .. } => format!("enc{i}"),
            _ => format!("res{i}"),
        };
        for b in skip_buffers(stage, fifo_capacity) {
            streams.push((format!("{label}.{}", b.suffix), b));
        }
    }
    streams
}

/// A folding of `test_net`. Plan 0 folds `pool1`, two residual
/// convolutions and `fc6`; plan 1 folds a different residual convolution,
/// the `res3` downsample path and `fc5`.
pub fn folded_plan(plan: u8, pe_bits: u32, simd_bits: u32) -> FoldPlan {
    let first = FoldPlan::new().with("conv0", Fold::new(1 << pe_bits, 1 << simd_bits));
    match plan {
        0 => first
            .with("pool1", Fold::new(1 << simd_bits, 2))
            .with("res2.conv2", Fold::new(4, 1 << pe_bits))
            .with("res3.conv1", Fold::new(2, 2))
            .with("fc6", Fold::new(1 << pe_bits, 4)),
        _ => first
            .with("pool1", Fold::new(2, 1 << simd_bits))
            .with("res2.conv1", Fold::new(1 << simd_bits, 4))
            .with("res3.ds", Fold::new(2, 2))
            .with("fc5", Fold::new(4, 1 << pe_bits)),
    }
}

/// A host source, `stages` pass-through `Affine` stages and a host sink,
/// chained by `fifo`-deep streams. Stage `i` is wrapped in a
/// `StallInjector` (seed `seed + i`, `pct` % stalls) when bit `i` of
/// `wrap_mask` is set.
pub struct StallPipeline {
    pub n: usize,
    pub stages: usize,
    pub fifo: usize,
    pub pct: u8,
    pub seed: u64,
    pub wrap_mask: u32,
    /// Add the kernels sink-first, so every reader precedes its writer in
    /// node order.
    pub reverse: bool,
    /// Whether the `Affine` stages promise spans.
    pub span: bool,
}

impl StallPipeline {
    /// Build the pipeline — with `dense`, every kernel under a
    /// `DenseOracle` — and run it to completion: the sink's output and the
    /// report.
    pub fn run(&self, dense: bool) -> (Vec<i32>, CycleReport) {
        let mut g = Graph::new();
        let s: Vec<_> = (0..=self.stages)
            .map(|i| g.add_stream(StreamSpec::new(format!("s{i}"), 8, self.fifo)))
            .collect();
        let (sink, handle) = HostSink::new("dst", self.n);
        let mut kernels: Vec<(Box<dyn Kernel>, &[_], &[_])> = Vec::new();
        let data: Vec<i32> = (0..self.n as i32).collect();
        kernels.push((Box::new(HostSource::new("src", data)), &[], &s[..1]));
        for i in 0..self.stages {
            let k: Box<dyn Kernel> = Box::new(Affine {
                mul: 3,
                add: i as i32,
                span: self.span,
            });
            let k = if self.wrap_mask & (1 << i) != 0 {
                StallInjector::wrap(k, self.seed.wrapping_add(i as u64), self.pct)
            } else {
                k
            };
            kernels.push((k, &s[i..=i], &s[i + 1..=i + 1]));
        }
        kernels.push((Box::new(sink), &s[self.stages..], &[]));
        if self.reverse {
            kernels.reverse();
        }
        for (k, inputs, outputs) in kernels {
            g.add_kernel(if dense { DenseOracle::wrap(k) } else { k }, inputs, outputs);
        }
        // Injected stalls can produce legitimate full-stall cycles, so
        // deadlock detection is off (the budget still bounds the run).
        let report = g.run_opts(4_000_000, false).expect("run");
        (handle.take(), report)
    }
}

/// A parkable pass-through stage: pure on `Stalled`/`Idle`, so it honours
/// the `WakeHint::Parkable` contract, and with a uniform one-in-one-out
/// span promise when `span` is set.
struct Affine {
    mul: i32,
    add: i32,
    span: bool,
}

impl Kernel for Affine {
    fn name(&self) -> &str {
        "affine"
    }
    fn rearm(&mut self) {}
    fn tick(&mut self, io: &mut Io<'_>) -> Progress {
        if io.can_read(0) && io.can_write(0) {
            let v = io.read(0).expect("checked");
            io.write(0, v * self.mul + self.add);
            Progress::Busy
        } else if io.can_read(0) {
            Progress::Stalled
        } else {
            Progress::Idle
        }
    }
    fn wake_hint(&self) -> WakeHint {
        WakeHint::Parkable
    }
    fn span_hint(&self, _in_len: &[usize], _out_room: &[usize]) -> Option<SpanPlan> {
        self.span.then(|| SpanPlan::new(u64::MAX, 0b1, 0b1))
    }
    fn run_span(&mut self, io: &mut SpanIo<'_>, n: u64) {
        for _ in 0..n {
            let v = io.pop(0);
            io.push(0, v * self.mul + self.add);
        }
    }
}
