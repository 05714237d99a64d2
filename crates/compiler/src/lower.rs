//! Lowering: network spec + parameters → one streaming kernel graph.

use dfe_platform::{
    CycleReport, Graph, HostSink, HostSource, Kernel, ReplayDiag, SchedulerMode, SinkHandle,
    SourceHandle, StreamId, StreamSpec,
};
use hw_model::{CycleModel, Fold, FoldPlan};
use qnn_kernels::loader::encode_conv_params;
use qnn_kernels::{
    AddKernel, AttentionHeadKernel, ConcatKernel, ConvDatapath, ConvKernel, DotMode,
    HeadSplitKernel, LayerNormKernel, PadInserter, PoolKernel, PoolOp, SplitKernel,
    ThresholdKernel,
};
use qnn_nn::{Network, PoolKind, Stage, StageParams};
use qnn_quant::ThresholdUnit;
use qnn_tensor::{BinaryFilters, ConvGeometry, Shape3, Tensor3};

/// Compilation knobs.
///
/// `PartialEq`/`Eq` make options usable as an artifact-cache key
/// ([`crate::ArtifactCache`]): two registrations of a model with equal
/// options share one compiled snapshot.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CompileOptions {
    /// Default FIFO capacity between kernels (elements). The paper's FMem
    /// buffers are small; 512 gives ample elasticity without hiding
    /// backpressure effects.
    pub fifo_capacity: usize,
    /// Device index per stage (`None` ⇒ everything on one device). Obtain
    /// from [`crate::partition()`]. A device is a tag: the network lowers
    /// to the same one graph whatever the placement, and the tags only
    /// split its report per device (see [`crate::SimResult::reports`]).
    pub stage_device: Option<Vec<usize>>,
    /// Stream parameters over per-kernel CPU links before inference
    /// (§III-B1a) instead of instantiating pre-filled caches. Functionally
    /// identical; adds the one-time load cycles to the run.
    pub stream_parameters: bool,
    /// Scheduler tier for the compiled graph (and so every
    /// `qnn-serve` replica worker): `Dense < ReadyList < Span < Replay`,
    /// each a host-side fast-forward of the tier below and all
    /// bit-identical in outputs and reports. The default is the top tier;
    /// `Dense` is the oracle the differential batteries compare against.
    pub scheduler: SchedulerMode,
    /// Busy-path datapath for every convolution kernel. Packed (the
    /// default) and ScalarReference (the oracle) are bit-identical in
    /// outputs and reports.
    pub conv_datapath: ConvDatapath,
    /// Per-layer folding overrides, keyed by the lowering's stage labels
    /// (`conv0`, `pool1`, `fc5`, `res2.conv1`, `res3.ds`, …). Layers not
    /// mentioned run unfolded. Folding changes per-cycle lane widths only,
    /// never element order, so logits are bit-identical at any setting.
    /// Unknown labels and zero factors are rejected by [`try_compile`].
    pub layer_folding: FoldPlan,
    /// Per-stream FIFO capacity overrides, keyed by full stream name
    /// (`image`, `conv0.out`, `res2.skipbuf`, …). Streams not mentioned
    /// use `fifo_capacity` (or their structural default, e.g. skip
    /// buffers). Unknown names and zero capacities are rejected by
    /// [`try_compile`].
    pub fifo_overrides: Vec<(String, usize)>,
    /// Random stall injection `(seed, percent)`: wrap every lowered kernel
    /// in a `dfe_platform::StallInjector` with a per-kernel seed derived
    /// from `seed`, suppressing ~`percent`% of its ticks. A handshake-test
    /// instrument — logits must be bit-identical to the uninjected run at
    /// any setting. Injected stalls can produce legitimate full-stall
    /// cycles, so [`crate::run_images`] disables deadlock detection when
    /// this is set (the cycle budget still bounds the run); injectors also
    /// veto span dispatch and schedule replay for the wrapped kernels.
    pub stall_injection: Option<(u64, u8)>,
}

impl Default for CompileOptions {
    fn default() -> Self {
        Self {
            fifo_capacity: 512,
            stage_device: None,
            stream_parameters: false,
            scheduler: SchedulerMode::default(),
            conv_datapath: ConvDatapath::default(),
            layer_folding: FoldPlan::new(),
            fifo_overrides: Vec::new(),
            stall_injection: None,
        }
    }
}

/// A rejected [`CompileOptions`] override (see [`try_compile`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum OptionsError {
    /// A `layer_folding` label matched no foldable layer of this network.
    UnknownLayer(String),
    /// A `layer_folding` entry had `pe == 0` or `simd == 0`.
    ZeroFolding(String),
    /// A `fifo_overrides` name matched no stream of this network.
    UnknownStream(String),
    /// A `fifo_overrides` entry had capacity 0.
    ZeroFifoCapacity(String),
    /// `stage_device` did not name exactly one device per stage.
    StageDeviceCount {
        /// Stages in the network.
        stages: usize,
        /// Entries in `stage_device`.
        got: usize,
    },
}

impl std::fmt::Display for OptionsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OptionsError::UnknownLayer(l) => {
                write!(f, "layer_folding names unknown layer {l:?} (labels follow the lowering: conv0, pool1, fc5, res2.conv1, …)")
            }
            OptionsError::ZeroFolding(l) => {
                write!(f, "layer_folding for {l:?} has a zero factor; pe and simd must be ≥ 1")
            }
            OptionsError::UnknownStream(s) => {
                write!(f, "fifo_overrides names unknown stream {s:?} (names follow the lowering: image, conv0.out, res2.skipbuf, …)")
            }
            OptionsError::ZeroFifoCapacity(s) => {
                write!(f, "fifo_overrides for {s:?} has capacity 0; streams need at least one slot")
            }
            OptionsError::StageDeviceCount { stages, got } => {
                write!(f, "stage_device has {got} entries for {stages} stages; it needs one device per stage")
            }
        }
    }
}

impl std::error::Error for OptionsError {}

/// A compiled network: its one graph plus the logits sink handle.
///
/// Lowering and loading are separate steps. [`elaborate`] builds the
/// kernels and FIFOs once; [`CompiledNetwork::load`] arms that pipeline
/// for one batch of images and can be called again after each
/// [`CompiledNetwork::run`], so a long-lived owner (a `qnn-serve` replica)
/// lowers its network once per weight version instead of once per batch.
/// [`try_compile`] is the two steps back to back.
pub struct CompiledNetwork {
    /// The network's graph. Always exactly one, whatever `stage_device`
    /// says: a device is a tag on kernels and streams, not a graph. (A
    /// `Vec` only because the repo benchmark's allowed API surface,
    /// `benchmark/README.md`, lists it.)
    pub graphs: Vec<Graph>,
    /// Handle collecting `classes × images` logits.
    pub sink: SinkHandle,
    /// Number of images loaded into the source (0 until the first load).
    pub images: usize,
    /// Number of classes per image.
    pub classes: usize,
    /// Shape every loaded image must have.
    input: Shape3,
    source: SourceHandle,
    /// Device tags of a network cut across devices; `None` on one device.
    pub(crate) placement: Option<Placement>,
    /// Generous cycle budget per loaded image: several times the fully
    /// serialized bound (a correct pipeline finishes far earlier; a wedged
    /// one times out).
    pub(crate) budget_per_image: u64,
    /// Injected stalls can produce legitimate full-stall cycles, so runs
    /// with stall injection rely on the budget alone to bound them.
    pub(crate) detect_deadlock: bool,
    /// A run on this instance returned an error: its kernels and streams
    /// hold mid-run state no re-arm is specified for.
    pub(crate) failed: bool,
}

impl CompiledNetwork {
    /// Arm the pipeline for one batch: hand `images` to the host source,
    /// size the sink for that many images, and re-arm the graph
    /// ([`Graph::rearm`]). The next run then behaves exactly as on a
    /// [`try_compile`] of the same batch — same logits, same cycle
    /// reports, same dispatch diagnostics.
    ///
    /// # Panics
    /// Panics on an empty batch, on an image of the wrong shape, and on an
    /// instance whose last run failed (elaborate a new one).
    pub fn load(&mut self, images: &[Tensor3<i8>]) {
        assert!(!images.is_empty(), "compile needs at least one image");
        assert!(!self.failed, "a pipeline whose run failed cannot be reloaded");
        let mut pixels = Vec::with_capacity(self.input.len() * images.len());
        for img in images {
            assert_eq!(img.shape(), self.input, "image shape mismatch");
            pixels.extend(img.as_slice().iter().map(|&p| i32::from(p)));
        }
        self.source.refill(pixels);
        self.sink.set_expected(self.classes * images.len());
        self.graphs.iter_mut().for_each(Graph::rearm);
        self.images = images.len();
    }
}

/// Which device each kernel and stream of a cut network's graph sits on.
/// A kernel takes its stage's device and a stream its reader's, so a
/// stream crossing a cut is tagged with the downstream device.
pub(crate) struct Placement {
    devices: usize,
    /// Device per kernel, in node order.
    kernels: Vec<usize>,
    /// Device per stream, in stream order.
    streams: Vec<usize>,
    /// Device of the logits sink, whose report carries the replay
    /// diagnostics.
    logits: usize,
}

impl Placement {
    /// Split the run's report into one report per device: the shared
    /// clock, that device's kernels and streams in graph order, and the
    /// replay diagnostics on the logits device only, so sums over devices
    /// count each once.
    pub(crate) fn project(&self, report: &CycleReport) -> Vec<CycleReport> {
        fn on<T: Clone>(items: &[T], tags: &[usize], d: usize) -> Vec<T> {
            items.iter().zip(tags).filter(|&(_, &t)| t == d).map(|(x, _)| x.clone()).collect()
        }
        (0..self.devices)
            .map(|d| CycleReport {
                cycles: report.cycles,
                kernels: on(&report.kernels, &self.kernels, d),
                streams: on(&report.streams, &self.streams, d),
                replay: if d == self.logits { report.replay } else { ReplayDiag::default() },
            })
            .collect()
    }
}

/// A stream endpoint: its id, plus its index in the builder's device tags.
#[derive(Clone, Copy, Debug)]
struct Wire {
    id: StreamId,
    ix: usize,
}

struct Builder {
    graph: Graph,
    /// Device of the stage being lowered: every kernel added is tagged
    /// with it, and so is every stream that kernel reads.
    device: usize,
    kernel_device: Vec<usize>,
    stream_device: Vec<usize>,
    fifo_capacity: usize,
    stream_parameters: bool,
    act_bits: u32,
    conv_datapath: ConvDatapath,
    /// Folding overrides with a consumed flag; any entry still unconsumed
    /// after lowering names a layer this network does not have.
    folds: Vec<(String, Fold, bool)>,
    /// FIFO capacity overrides with a consumed flag, same discipline.
    fifos: Vec<(String, usize, bool)>,
    /// Stall-injection setting; each kernel's seed is derived from its
    /// node index.
    stall: Option<(u64, u8)>,
}

impl Builder {
    fn new(opts: &CompileOptions, act_bits: u32) -> Self {
        Self {
            graph: Graph::with_scheduler(opts.scheduler),
            device: 0,
            kernel_device: Vec::new(),
            stream_device: Vec::new(),
            fifo_capacity: opts.fifo_capacity,
            stream_parameters: opts.stream_parameters,
            act_bits,
            conv_datapath: opts.conv_datapath,
            folds: opts
                .layer_folding
                .entries()
                .iter()
                .map(|(l, f)| (l.clone(), *f, false))
                .collect(),
            fifos: opts
                .fifo_overrides
                .iter()
                .map(|(n, c)| (n.clone(), *c, false))
                .collect(),
            stall: opts.stall_injection,
        }
    }

    /// The fold for `label`, marking the override consumed.
    fn fold_for(&mut self, label: &str) -> Fold {
        for (l, f, used) in &mut self.folds {
            if l == label {
                *used = true;
                return *f;
            }
        }
        Fold::UNIT
    }

    fn stream(&mut self, name: String, bits: u32, capacity: usize) -> Wire {
        let mut capacity = capacity;
        for (n, c, used) in &mut self.fifos {
            if *n == name {
                *used = true;
                capacity = *c;
            }
        }
        let id = self.graph.add_stream(StreamSpec::new(name, bits, capacity));
        // Re-tagged with the reader's device once a kernel reads it.
        self.stream_device.push(self.device);
        Wire { id, ix: self.stream_device.len() - 1 }
    }

    fn kernel(&mut self, k: Box<dyn Kernel>, inputs: &[Wire], outputs: &[Wire]) {
        // Stall injection wraps every kernel with its own splitmix-spread
        // seed, so each one sees an independent stall pattern.
        let k = match self.stall {
            Some((seed, pct)) => {
                let seq = self.kernel_device.len() as u64;
                let per_kernel = seed ^ seq.wrapping_mul(0x9E37_79B9_7F4A_7C15);
                dfe_platform::StallInjector::wrap(k, per_kernel, pct)
            }
            None => k,
        };
        for w in inputs {
            self.stream_device[w.ix] = self.device;
        }
        self.kernel_device.push(self.device);
        let ins: Vec<StreamId> = inputs.iter().map(|w| w.id).collect();
        let outs: Vec<StreamId> = outputs.iter().map(|w| w.id).collect();
        self.graph.add_kernel(k, &ins, &outs);
    }

    /// Pad (if needed) then convolve. Returns the output wire. `geom` is
    /// the logical geometry (possibly padded); the conv kernel itself sees
    /// the pre-padded equivalent.
    #[allow(clippy::too_many_arguments)]
    fn conv(
        &mut self,
        label: &str,
        input: Wire,
        geom: &ConvGeometry,
        filters: &BinaryFilters,
        thresholds: Option<&[ThresholdUnit]>,
        mode: DotMode,
        out_bits: u32,
        out_capacity: usize,
    ) -> Wire {
        let in_bits = match mode {
            DotMode::I8 => 8,
            DotMode::Codes { bits } => bits,
        };
        let fold = self.fold_for(label);
        let conv_in = if geom.pad > 0 {
            let padded = self.stream(format!("{label}.padded"), in_bits, self.fifo_capacity);
            // The pad inserter widens with the conv's input side so it
            // never throttles a folded consumer.
            self.kernel(
                Box::new(
                    PadInserter::new(format!("{label}.pad"), geom.input, geom.pad, 0)
                        .with_lanes(fold.simd),
                ),
                &[input],
                &[padded],
            );
            padded
        } else {
            input
        };
        let padded_geom = ConvGeometry::new(geom.padded_input(), geom.filter, geom.stride, 0);
        let out = self.stream(format!("{label}.out"), out_bits, out_capacity);
        if self.stream_parameters {
            // §III-B1a: caches are filled from a CPU parameter stream
            // before the first image; the kernel binarizes on arrival.
            let blob = encode_conv_params(filters, thresholds, self.act_bits);
            let params = self.stream(format!("{label}.params"), 32, self.fifo_capacity);
            self.kernel(
                Box::new(HostSource::new(format!("{label}.param_src"), blob)),
                &[],
                &[params],
            );
            self.kernel(
                Box::new(
                    ConvKernel::new_streamed(
                        label.to_string(),
                        padded_geom,
                        mode,
                        thresholds.is_some(),
                        self.act_bits,
                    )
                    .with_datapath(self.conv_datapath)
                    .with_folding(fold.pe, fold.simd),
                ),
                &[conv_in, params],
                &[out],
            );
        } else {
            self.kernel(
                Box::new(
                    ConvKernel::new(
                        label.to_string(),
                        padded_geom,
                        filters.clone(),
                        thresholds.map(<[ThresholdUnit]>::to_vec),
                        mode,
                    )
                    .with_datapath(self.conv_datapath)
                    .with_folding(fold.pe, fold.simd),
                ),
                &[conv_in],
                &[out],
            );
        }
        out
    }
}

/// Skip-buffer capacity covering the convolution path's worst-case lead:
/// both window fills plus one position of compute halts and slack.
fn skip_capacity(geom: &qnn_nn::ResidualGeometry) -> usize {
    let b1 = ConvGeometry::new(
        geom.conv1.padded_input(),
        geom.conv1.filter,
        geom.conv1.stride,
        0,
    )
    .depth_first_buffer();
    let b2 = ConvGeometry::new(
        geom.conv2.padded_input(),
        geom.conv2.filter,
        geom.conv2.stride,
        0,
    )
    .depth_first_buffer();
    b1 + b2 + geom.conv2.filter.o + 256
}

/// Compile a network over `images` into its graph, rejecting
/// invalid `layer_folding` / `fifo_overrides` entries with a typed error:
/// [`elaborate`], then [`CompiledNetwork::load`].
pub fn try_compile(
    net: &Network,
    images: &[Tensor3<i8>],
    opts: &CompileOptions,
) -> Result<CompiledNetwork, OptionsError> {
    let mut compiled = elaborate(net, opts)?;
    compiled.load(images);
    Ok(compiled)
}

/// Lower a network into its graph with nothing loaded yet, rejecting
/// invalid `layer_folding` / `fifo_overrides` / `stage_device` entries
/// with a typed error. Everything that does not depend on a batch happens
/// here, once: kernels with their packed weights, FIFOs, device tags, the
/// replay marker and the per-image cycle budget.
pub fn elaborate(net: &Network, opts: &CompileOptions) -> Result<CompiledNetwork, OptionsError> {
    for (label, fold) in opts.layer_folding.entries() {
        if fold.pe == 0 || fold.simd == 0 {
            return Err(OptionsError::ZeroFolding(label.clone()));
        }
    }
    for (name, capacity) in &opts.fifo_overrides {
        if *capacity == 0 {
            return Err(OptionsError::ZeroFifoCapacity(name.clone()));
        }
    }
    let spec = &net.spec;
    let act_bits = spec.act_bits;
    let stage_device: Vec<usize> = match &opts.stage_device {
        Some(sd) if sd.len() != spec.stages.len() => {
            return Err(OptionsError::StageDeviceCount {
                stages: spec.stages.len(),
                got: sd.len(),
            });
        }
        Some(sd) => sd.clone(),
        None => vec![0; spec.stages.len()],
    };
    let devices = stage_device.iter().max().copied().unwrap_or(0) + 1;

    let mut b = Builder::new(opts, act_bits);

    // Image source on the first stage's device; `load` hands it each batch.
    b.device = stage_device[0];
    let mut prev = b.stream("image".into(), 8, opts.fifo_capacity);
    let (source, source_handle) = HostSource::new("host.src", Vec::new())
        .with_period(spec.input.len())
        .refillable();
    b.kernel(Box::new(source), &[], &[prev]);
    // Carried skip stream (produced by an identity-linked residual stage).
    let mut skip: Option<Wire> = None;

    // The logits wire and the device of the layer writing it.
    let mut logits_wire: Option<(Wire, usize)> = None;

    for (i, (stage, params)) in spec.stages.iter().zip(&net.params).enumerate() {
        b.device = stage_device[i];
        // Does the *next* stage consume a carried skip?
        let next_wants_skip = matches!(
            spec.stages.get(i + 1),
            Some(Stage::Residual { geom }) if geom.downsample.is_none()
        );

        match (stage, params) {
            (
                Stage::ConvInput { geom },
                StageParams::Conv {
                    filters,
                    thresholds,
                },
            ) => {
                prev = b.conv(
                    &format!("conv{i}"),
                    prev,
                    geom,
                    filters,
                    Some(thresholds),
                    DotMode::I8,
                    act_bits,
                    opts.fifo_capacity,
                );
                skip = None;
            }
            (
                Stage::Conv { geom },
                StageParams::Conv {
                    filters,
                    thresholds,
                },
            ) => {
                prev = b.conv(
                    &format!("conv{i}"),
                    prev,
                    geom,
                    filters,
                    Some(thresholds),
                    DotMode::Codes { bits: act_bits },
                    act_bits,
                    opts.fifo_capacity,
                );
                skip = None;
            }
            (
                Stage::Pool {
                    input,
                    k,
                    stride,
                    pad,
                    kind,
                },
                StageParams::Pool,
            ) => {
                let fold = b.fold_for(&format!("pool{i}"));
                let pool_in = if *pad > 0 {
                    let padded = b.stream(format!("pool{i}.padded"), act_bits, opts.fifo_capacity);
                    b.kernel(
                        Box::new(
                            PadInserter::new(format!("pool{i}.pad"), *input, *pad, 0)
                                .with_lanes(fold.simd),
                        ),
                        &[prev],
                        &[padded],
                    );
                    padded
                } else {
                    prev
                };
                let padded_shape = Shape3::new(input.h + 2 * pad, input.w + 2 * pad, input.c);
                let op = match kind {
                    PoolKind::Max => PoolOp::Max,
                    PoolKind::AvgSum => PoolOp::AvgShift,
                };
                let kernel = PoolKernel::new(format!("pool{i}"), padded_shape, *k, *stride, op)
                    .with_folding(fold.pe, fold.simd);
                let out = b.stream(format!("pool{i}.out"), act_bits, opts.fifo_capacity);
                b.kernel(Box::new(kernel), &[pool_in], &[out]);
                prev = out;
                skip = None;
            }
            (
                Stage::FullyConnected {
                    in_features,
                    out_features,
                    bn_act,
                },
                StageParams::FullyConnected {
                    filters,
                    thresholds,
                },
            ) => {
                // FC is literally a 1×1 convolution over the flattened map
                // (§III-B4); flattening is the identity in stream order.
                let geom = ConvGeometry::new(
                    Shape3::new(1, 1, *in_features),
                    qnn_tensor::FilterShape::new(1, *in_features, *out_features),
                    1,
                    0,
                );
                let (thr, out_bits) = if *bn_act {
                    (Some(thresholds.as_slice()), act_bits)
                } else {
                    (None, 32)
                };
                prev = b.conv(
                    &format!("fc{i}"),
                    prev,
                    &geom,
                    filters,
                    thr,
                    DotMode::Codes { bits: 8 },
                    out_bits,
                    opts.fifo_capacity,
                );
                skip = None;
                if !bn_act {
                    logits_wire = Some((prev, b.device));
                }
            }
            (
                Stage::Residual { geom },
                StageParams::Residual {
                    filters1,
                    thr_mid,
                    filters2,
                    thr_out,
                    downsample,
                },
            ) => {
                // --- establish the conv-path input and the skip input ---
                let (conv_in, skip_in) = match (geom.downsample, downsample) {
                    (Some(ds_geom), Some(ds_filters)) => {
                        // Split the regular input; the skip path goes
                        // through the 1×1 strided downsample conv.
                        let a = b.stream(format!("res{i}.a"), act_bits, opts.fifo_capacity);
                        let ds_in = b.stream(format!("res{i}.dsin"), act_bits, skip_capacity(geom));
                        b.kernel(
                            Box::new(SplitKernel::new(format!("res{i}.split_in"))),
                            &[prev],
                            &[a, ds_in],
                        );
                        let ds_out = b.conv(
                            &format!("res{i}.ds"),
                            ds_in,
                            &ds_geom,
                            ds_filters,
                            None,
                            DotMode::Codes { bits: act_bits },
                            16,
                            skip_capacity(geom),
                        );
                        // Any carried skip is superseded at downsampling
                        // blocks (shape changes); the lookahead logic never
                        // produces one in that case.
                        assert!(skip.is_none(), "carried skip into a downsample block");
                        (a, ds_out)
                    }
                    (None, None) => match skip.take() {
                        Some(s) => (prev, s),
                        None => {
                            // Chain head: skip is the widened regular input.
                            let a = b.stream(format!("res{i}.a"), act_bits, opts.fifo_capacity);
                            let s = b.stream(format!("res{i}.skipbuf"), 16, skip_capacity(geom));
                            b.kernel(
                                Box::new(SplitKernel::new(format!("res{i}.split_in"))),
                                &[prev],
                                &[a, s],
                            );
                            (a, s)
                        }
                    },
                    _ => unreachable!("spec/params downsample mismatch"),
                };

                // --- conv path: conv1 (+BN+act) → conv2 (raw) ---
                let mid = b.conv(
                    &format!("res{i}.conv1"),
                    conv_in,
                    &geom.conv1,
                    filters1,
                    Some(thr_mid),
                    DotMode::Codes { bits: act_bits },
                    act_bits,
                    opts.fifo_capacity,
                );
                let c2 = b.conv(
                    &format!("res{i}.conv2"),
                    mid,
                    &geom.conv2,
                    filters2,
                    None,
                    DotMode::Codes { bits: act_bits },
                    16,
                    opts.fifo_capacity,
                );

                // --- adder and the output split of Fig. 2 ---
                let z = b.stream(format!("res{i}.z"), 16, opts.fifo_capacity);
                b.kernel(
                    Box::new(AddKernel::new(format!("res{i}.add"))),
                    &[c2, skip_in],
                    &[z],
                );

                let thr_in = if next_wants_skip {
                    // Split z: one copy continues as the next block's skip,
                    // sized for that block's path delay.
                    let next_geom = match spec.stages[i + 1] {
                        Stage::Residual { geom } => geom,
                        _ => unreachable!("lookahead said residual"),
                    };
                    let z_a = b.stream(format!("res{i}.z_a"), 16, opts.fifo_capacity);
                    let z_skip = b.stream(format!("res{i}.skipbuf"), 16, skip_capacity(&next_geom));
                    b.kernel(
                        Box::new(SplitKernel::new(format!("res{i}.split_out"))),
                        &[z],
                        &[z_a, z_skip],
                    );
                    skip = Some(z_skip);
                    z_a
                } else {
                    skip = None;
                    z
                };
                let out = b.stream(format!("res{i}.out"), act_bits, opts.fifo_capacity);
                b.kernel(
                    Box::new(ThresholdKernel::new(format!("res{i}.thr"), thr_out.clone())),
                    &[thr_in],
                    &[out],
                );
                prev = out;
            }
            (Stage::Encoder { geom }, StageParams::Encoder(p)) => {
                let projs = geom.projection_geometries();
                let d = geom.d_model;
                let codes = DotMode::Codes { bits: act_bits };
                // The attention skip is consumed only after the whole
                // sequence has crossed the Q/K/V → heads → concat → proj
                // pipeline (attention needs every key before the first
                // output token), so the buffer must hold the full sequence
                // plus slack.
                let skip_cap = geom.seq_len * d + 2 * d + 64;

                // --- attention sublayer: split skip, fan out Q/K/V ---
                let a = b.stream(format!("enc{i}.a"), act_bits, opts.fifo_capacity);
                let skip_s = b.stream(format!("enc{i}.skipbuf"), 16, skip_cap);
                b.kernel(
                    Box::new(SplitKernel::new(format!("enc{i}.split_in"))),
                    &[prev],
                    &[a, skip_s],
                );
                let qa = b.stream(format!("enc{i}.qa"), act_bits, opts.fifo_capacity);
                let kva = b.stream(format!("enc{i}.kva"), act_bits, opts.fifo_capacity);
                b.kernel(
                    Box::new(SplitKernel::new(format!("enc{i}.split_q"))),
                    &[a],
                    &[qa, kva],
                );
                let ka = b.stream(format!("enc{i}.ka"), act_bits, opts.fifo_capacity);
                let va = b.stream(format!("enc{i}.va"), act_bits, opts.fifo_capacity);
                b.kernel(
                    Box::new(SplitKernel::new(format!("enc{i}.split_kv"))),
                    &[kva],
                    &[ka, va],
                );
                let q = b.conv(
                    &format!("enc{i}.q"), qa, &projs[0], &p.wq, Some(&p.thr_q),
                    codes, act_bits, opts.fifo_capacity,
                );
                let k = b.conv(
                    &format!("enc{i}.k"), ka, &projs[1], &p.wk, Some(&p.thr_k),
                    codes, act_bits, opts.fifo_capacity,
                );
                let v = b.conv(
                    &format!("enc{i}.v"), va, &projs[2], &p.wv, Some(&p.thr_v),
                    codes, act_bits, opts.fifo_capacity,
                );

                // --- per-head fan-out, attention, and rejoin ---
                let mut head_wires: Vec<Vec<Wire>> = Vec::new();
                for (which, src) in [("q", q), ("k", k), ("v", v)] {
                    let outs: Vec<Wire> = (0..geom.heads)
                        .map(|h| {
                            b.stream(
                                format!("enc{i}.{which}.h{h}"),
                                act_bits,
                                opts.fifo_capacity,
                            )
                        })
                        .collect();
                    b.kernel(
                        Box::new(HeadSplitKernel::new(
                            format!("enc{i}.{which}.heads"),
                            geom.heads,
                            geom.head_dim,
                        )),
                        &[src],
                        &outs,
                    );
                    head_wires.push(outs);
                }
                let attn_outs: Vec<Wire> = (0..geom.heads)
                    .map(|h| {
                        let out = b.stream(
                            format!("enc{i}.attn{h}.out"),
                            act_bits,
                            opts.fifo_capacity,
                        );
                        b.kernel(
                            Box::new(AttentionHeadKernel::new(
                                format!("enc{i}.attn{h}"),
                                act_bits,
                                geom.seq_len,
                                geom.head_dim,
                            )),
                            &[head_wires[0][h], head_wires[1][h], head_wires[2][h]],
                            &[out],
                        );
                        out
                    })
                    .collect();
                let cat = b.stream(format!("enc{i}.cat.out"), act_bits, opts.fifo_capacity);
                b.kernel(
                    Box::new(ConcatKernel::new(
                        format!("enc{i}.cat"),
                        geom.heads,
                        geom.head_dim,
                    )),
                    &attn_outs,
                    &[cat],
                );

                // --- output projection (raw), residual add, LayerNorm ---
                let proj = b.conv(
                    &format!("enc{i}.proj"), cat, &projs[3], &p.wo, None,
                    codes, 16, opts.fifo_capacity,
                );
                let z = b.stream(format!("enc{i}.z"), 16, opts.fifo_capacity);
                b.kernel(
                    Box::new(AddKernel::new(format!("enc{i}.add"))),
                    &[proj, skip_s],
                    &[z],
                );
                let ln_out = b.stream(format!("enc{i}.ln.out"), act_bits, opts.fifo_capacity);
                b.kernel(
                    Box::new(LayerNormKernel::new(
                        format!("enc{i}.ln"),
                        p.ln_gain.clone(),
                        act_bits,
                    )),
                    &[z],
                    &[ln_out],
                );
                prev = ln_out;

                // --- optional feed-forward sublayer with its own skip ---
                if let Some(ffn) = &p.ffn {
                    // ff1/ff2 emit token t's output right after absorbing
                    // token t, so two tokens of each width cover the lead.
                    let ff_cap = 2 * (d + geom.ff_hidden) + 64;
                    let fa = b.stream(format!("enc{i}.ffa"), act_bits, opts.fifo_capacity);
                    let fskip = b.stream(format!("enc{i}.ffskip"), 16, ff_cap);
                    b.kernel(
                        Box::new(SplitKernel::new(format!("enc{i}.split_ff"))),
                        &[prev],
                        &[fa, fskip],
                    );
                    let f1 = b.conv(
                        &format!("enc{i}.ff1"), fa, &projs[4], &ffn.w1, Some(&ffn.thr1),
                        codes, act_bits, opts.fifo_capacity,
                    );
                    let f2 = b.conv(
                        &format!("enc{i}.ff2"), f1, &projs[5], &ffn.w2, None,
                        codes, 16, opts.fifo_capacity,
                    );
                    let z2 = b.stream(format!("enc{i}.z2"), 16, opts.fifo_capacity);
                    b.kernel(
                        Box::new(AddKernel::new(format!("enc{i}.add2"))),
                        &[f2, fskip],
                        &[z2],
                    );
                    let ln2_out =
                        b.stream(format!("enc{i}.ln2.out"), act_bits, opts.fifo_capacity);
                    b.kernel(
                        Box::new(LayerNormKernel::new(
                            format!("enc{i}.ln2"),
                            ffn.ln2_gain.clone(),
                            act_bits,
                        )),
                        &[z2],
                        &[ln2_out],
                    );
                    prev = ln2_out;
                }
                skip = None;
            }
            _ => unreachable!("stage/params variant mismatch"),
        }
    }

    let (logits, logits_device) = logits_wire.expect("network must end in a logits FC layer");
    let classes = spec.classes();
    let (sink, handle) = HostSink::new("host.sink", 0);
    let sink = sink.with_period(classes);
    b.device = logits_device;
    b.kernel(Box::new(sink), &[logits], &[]);
    // Arm the replay marker on the logits wire: one image boundary per
    // `classes` popped logits.
    b.graph.set_replay_marker(logits.id, classes as u64);

    // Every override must have been consumed by the lowering; leftovers
    // name layers/streams this network does not have.
    if let Some((label, _, _)) = b.folds.iter().find(|(_, _, used)| !used) {
        return Err(OptionsError::UnknownLayer(label.clone()));
    }
    if let Some((name, _, _)) = b.fifos.iter().find(|(_, _, used)| !used) {
        return Err(OptionsError::UnknownStream(name.clone()));
    }

    Ok(CompiledNetwork {
        graphs: vec![b.graph],
        sink: handle,
        images: 0,
        classes,
        input: spec.input,
        source: source_handle,
        placement: (devices > 1).then_some(Placement {
            devices,
            kernels: b.kernel_device,
            streams: b.stream_device,
            logits: logits_device,
        }),
        budget_per_image: CycleModel::analyze(spec).serial_bound() * 8 + 2_000_000,
        detect_deadlock: opts.stall_injection.is_none(),
        failed: false,
    })
}

#[cfg(test)]
mod options_tests {
    use super::*;
    use crate::run::run_images;
    use qnn_nn::models;
    use qnn_tensor::Shape3;

    fn net() -> Network {
        Network::random(models::test_net(8, 4, 2), 21)
    }

    fn image(seed: u64) -> Tensor3<i8> {
        Tensor3::from_fn(Shape3::square(8, 3), |y, x, c| {
            (y * 31 + x * 7 + c + seed as usize) as i8
        })
    }

    #[test]
    fn unknown_layer_is_a_typed_error() {
        let opts = CompileOptions {
            layer_folding: FoldPlan::new().with("conv99", Fold::new(2, 2)),
            ..CompileOptions::default()
        };
        assert_eq!(
            elaborate(&net(), &opts).err(),
            Some(OptionsError::UnknownLayer("conv99".into()))
        );
        // The message tells the user what the labels look like.
        let msg = OptionsError::UnknownLayer("conv99".into()).to_string();
        assert!(msg.contains("conv99") && msg.contains("conv0"), "{msg}");
    }

    #[test]
    fn stage_device_count_is_a_typed_error() {
        let stages = net().spec.stages.len();
        let opts = CompileOptions {
            stage_device: Some(vec![0; stages - 1]),
            ..CompileOptions::default()
        };
        let err = OptionsError::StageDeviceCount { stages, got: stages - 1 };
        assert_eq!(elaborate(&net(), &opts).err(), Some(err.clone()));
        let msg = err.to_string();
        assert!(msg.contains("stage_device") && msg.contains("one device per stage"), "{msg}");
    }

    #[test]
    fn zero_folding_is_a_typed_error() {
        let opts = CompileOptions {
            layer_folding: FoldPlan::new().with("conv0", Fold { pe: 0, simd: 1 }),
            ..CompileOptions::default()
        };
        assert_eq!(
            elaborate(&net(), &opts).err(),
            Some(OptionsError::ZeroFolding("conv0".into()))
        );
    }

    #[test]
    fn zero_fifo_capacity_is_a_typed_error() {
        let opts = CompileOptions {
            fifo_overrides: vec![("image".into(), 0)],
            ..CompileOptions::default()
        };
        assert_eq!(
            elaborate(&net(), &opts).err(),
            Some(OptionsError::ZeroFifoCapacity("image".into()))
        );
    }

    #[test]
    fn unknown_stream_is_a_typed_error() {
        let opts = CompileOptions {
            fifo_overrides: vec![("conv0.out".into(), 64), ("nope.out".into(), 64)],
            ..CompileOptions::default()
        };
        assert_eq!(
            elaborate(&net(), &opts).err(),
            Some(OptionsError::UnknownStream("nope.out".into()))
        );
    }

    /// `Default` equivalence: an explicit folding=1 entry for every layer
    /// plus explicit FIFO overrides restating the defaults compiles to
    /// artifacts that behave bit-identically — same logits, same cycle
    /// reports — as the untouched defaults.
    #[test]
    fn explicit_unit_overrides_match_default_artifacts() {
        let net = net();
        let images = [image(1), image(2)];
        let defaults = CompileOptions::default();
        let mut explicit = defaults.clone();
        for label in
            ["conv0", "pool1", "res2.conv1", "res2.conv2", "res3.conv1", "res3.conv2",
             "res3.ds", "pool4", "fc5", "fc6"]
        {
            explicit.layer_folding.set(label, Fold::UNIT);
        }
        explicit.fifo_overrides =
            vec![("image".into(), defaults.fifo_capacity), ("fc6.out".into(), defaults.fifo_capacity)];
        let base = run_images(&net, &images, &defaults).expect("default run");
        let explicit_run = run_images(&net, &images, &explicit).expect("explicit run");
        assert_eq!(base.logits, explicit_run.logits);
        assert_eq!(base.reports, explicit_run.reports);
    }
}
