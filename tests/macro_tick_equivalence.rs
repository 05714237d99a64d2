//! Differential macro-tick battery: span dispatch (and every other
//! scheduler tier) must be **bit-identical** to dense per-element stepping
//! — same logits, same `CycleReport`s (cycle counts, per-kernel busy/stall
//! tallies, per-stream pushed/max-occupancy) — across randomized networks,
//! streamed-parameter loading, multi-image sequences, 1–3-device cuts
//! (which must also be invisible next to the uncut run), stall-injected
//! pipelines, and mid-run tier switches.
//!
//! This is the proof obligation behind crediting whole spans
//! arithmetically: a burst replays `k` dense cycles in one dispatch per
//! kernel, so every counter the dense interleaving would have produced
//! must come out of the closed-form credit, exactly.
//!
//! Part of `./ci.sh soak` at `QNN_TEST_CASES=1024`.

use qnn::compiler::{run_images, try_compile, CompileOptions, Fold, FoldPlan, SimResult};
use qnn::dfe::{
    CycleReport, Graph, HostSink, HostSource, Io, Kernel, Progress, ReplayDiag, SchedulerMode,
    SpanIo, SpanPlan, StallInjector, StreamSpec, WakeHint,
};
use qnn::nn::specgen::spec_strategy;
use qnn::nn::{models, Network, NetworkSpec, PoolKind, SpecBuilder};
use qnn::tensor::{ConvGeometry, FilterShape, Shape3, Tensor3};
use qnn_testkit::prop::CaseResult;
use qnn_testkit::{prop_assert, prop_assert_eq, props, vec};

fn image_for(spec: &NetworkSpec, seed: u64) -> Tensor3<i8> {
    Tensor3::from_fn(spec.input, |y, x, c| {
        ((seed as usize)
            .wrapping_mul(31)
            .wrapping_add(y * 131 + x * 17 + c * 7)
            .wrapping_mul(2654435761)
            >> 16) as i8
    })
}

/// Run the same workload on every scheduler tier and assert logits and
/// every per-device report agree with the `Dense` oracle.
fn assert_dispatch_agrees(
    net: &Network,
    images: &[Tensor3<i8>],
    base: &CompileOptions,
) -> CaseResult {
    let run = |scheduler| {
        run_images(net, images, &CompileOptions { scheduler, ..base.clone() }).expect("run")
    };
    let dense = run(SchedulerMode::Dense);
    for mode in &SchedulerMode::ALL[1..] {
        let got = run(*mode);
        prop_assert_eq!(&got.logits, &dense.logits, "{:?}", mode);
        prop_assert_eq!(&got.reports, &dense.reports, "{:?}", mode);
    }
    Ok(())
}

/// Span coverage of one single-device run at the `Span` tier: the report,
/// the cycles covered by bursts, and the busy count of the kernel named
/// `kernel`. Bursts need every awake kernel's promise, so
/// `burst_cycles + busy > cycles` proves (pigeonhole) that `kernel` ran
/// inside a burst rather than vetoing whenever it was awake.
fn span_coverage(
    net: &Network,
    images: &[Tensor3<i8>],
    base: &CompileOptions,
    kernel: &str,
) -> (u64, u64, u64) {
    let opts = CompileOptions { scheduler: SchedulerMode::Span, ..base.clone() };
    let mut compiled = try_compile(net, images, &opts).expect("valid options");
    let [graph] = &mut compiled.graphs[..] else {
        panic!("single-device run expected");
    };
    let report = graph.run(100_000_000).expect("run");
    let busy = report
        .kernels
        .iter()
        .find(|k| k.name == kernel)
        .unwrap_or_else(|| panic!("no kernel named {kernel}"))
        .busy;
    (report.cycles, graph.burst_cycles(), busy)
}

props! {
    /// Single-device: random conv/pool/fc networks, multi-image sequences
    /// (image-reset state in conv/pool must survive spans), with the
    /// §III-B1a parameter-streaming path folded in (the loader phase is
    /// its own span kind).
    #[test]
    fn single_device_reports_identical(
        spec in spec_strategy(),
        seed in 0u64..1000,
        n_images in 1usize..4,
        stream_params in 0u8..2,
    ) {
        let Some(spec) = spec else {
            return Ok(());
        };
        let net = Network::random(spec, seed);
        let images: Vec<_> =
            (0..n_images as u64).map(|i| image_for(&net.spec, seed + i)).collect();
        let base = CompileOptions {
            stream_parameters: stream_params == 1,
            ..CompileOptions::default()
        };
        assert_dispatch_agrees(&net, &images, &base)?;
    }

    /// Residual networks (split/add/skip-buffer kernels) under FIFO
    /// backpressure stress: small FIFOs shorten feasible spans without
    /// ever changing the committed trajectory.
    #[test]
    fn residual_nets_reports_identical_under_fifo_stress(
        seed in 0u64..200,
        fifo in 4usize..64,
    ) {
        let net = Network::random(models::test_net(8, 4, 2), seed);
        let img = image_for(&net.spec, seed + 7);
        let base = CompileOptions { fifo_capacity: fifo, ..CompileOptions::default() };
        assert_dispatch_agrees(&net, std::slice::from_ref(&img), &base)?;
    }

    /// A non-trivial folded design point: folded kernels promise spans at
    /// their lane rates (or the sub-lane rate a narrower neighbour holds
    /// them to), so the wavefront carries several elements per port per
    /// cycle — with identical logits and reports, and with bursts actually
    /// firing. This pins the folding/span interaction the DSE frontier
    /// relies on.
    #[test]
    fn folded_design_point_reports_identical(
        seed in 0u64..200,
        pe_bits in 0u32..3,
        simd_bits in 0u32..3,
        fifo in 16usize..128,
        n_images in 1usize..3,
    ) {
        let net = Network::random(models::test_net(8, 4, 2), seed);
        let images: Vec<_> =
            (0..n_images as u64).map(|i| image_for(&net.spec, seed + 13 + i)).collect();
        let folding = FoldPlan::new()
            .with("conv0", Fold::new(1 << pe_bits, 1 << simd_bits))
            .with("pool1", Fold::new(1 << simd_bits, 2))
            .with("res2.conv2", Fold::new(4, 1 << pe_bits))
            .with("res3.conv1", Fold::new(2, 2))
            .with("fc6", Fold::new(1 << pe_bits, 4));
        let base = CompileOptions {
            layer_folding: folding,
            fifo_capacity: fifo,
            ..CompileOptions::default()
        };
        assert_dispatch_agrees(&net, &images, &base)?;
        let (_, burst_cycles, _) = span_coverage(&net, &images, &base, "conv0");
        prop_assert!(burst_cycles > 0, "no burst fired at a folded design point");
    }

    /// 1–3-device cuts, contiguous or not (`[0, 1, 0, …]`). A device is a
    /// tag, so a cut network is the uncut network's graph: on every tier
    /// it matches `Dense`, and it matches the *uncut* run — same logits,
    /// same clock, same bursts — while its per-device reports partition
    /// the uncut report.
    #[test]
    fn device_cuts_reports_identical(
        spec in spec_strategy(),
        seed in 0u64..1000,
        pattern in vec(0usize..3, 1..6),
    ) {
        let Some(spec) = spec else {
            return Ok(());
        };
        let stage_device: Vec<usize> =
            (0..spec.stages.len()).map(|i| pattern[i % pattern.len()]).collect();
        let devices = stage_device.iter().max().copied().unwrap_or(0) + 1;
        let net = Network::random(spec, seed);
        let img = image_for(&net.spec, seed);
        let images = std::slice::from_ref(&img);
        let cut = CompileOptions {
            stage_device: Some(stage_device),
            ..CompileOptions::default()
        };
        assert_dispatch_agrees(&net, images, &cut)?;
        for scheduler in SchedulerMode::ALL {
            let (parts, cut_bursts) =
                run_counted(&net, images, &CompileOptions { scheduler, ..cut.clone() });
            let uncut = CompileOptions { scheduler, ..CompileOptions::default() };
            let (whole, whole_bursts) = run_counted(&net, images, &uncut);
            prop_assert_eq!(&parts.logits, &whole.logits, "{:?}", scheduler);
            prop_assert_eq!(parts.cycles(), whole.cycles(), "{:?}", scheduler);
            prop_assert_eq!(cut_bursts, whole_bursts, "{:?}", scheduler);
            prop_assert_eq!(parts.reports.len(), devices);
            assert_partition(&parts.reports, &whole.reports[0])?;
        }
    }

    /// StallInjector-laced pipelines: injector-wrapped stages are
    /// `AlwaysTick` with no span promise, so every burst window they are
    /// awake in is vetoed — runs interleave spans with per-element
    /// stretches at injector-chosen boundaries. Any mis-credited span
    /// would shift the injector's tick-driven RNG and change every
    /// downstream cycle count.
    #[test]
    fn stall_injected_pipelines_reports_identical(
        n in 1usize..80,
        stages in 1usize..6,
        fifo in 1usize..8,
        pct in 0u8..50,
        seed in 0u64..10_000,
        wrap_mask in 0u32..64,
    ) {
        let build = |mode| {
            let mut g = Graph::with_scheduler(mode);
            let data: Vec<i32> = (0..n as i32).collect();
            let mut prev = g.add_stream(StreamSpec::new("s0", 8, fifo));
            g.add_kernel(Box::new(HostSource::new("src", data)), &[], &[prev]);
            for i in 0..stages {
                let next = g.add_stream(StreamSpec::new(format!("s{}", i + 1), 8, fifo));
                let k: Box<dyn Kernel> = Box::new(SpanAffine { mul: 3, add: i as i32 });
                let k = if wrap_mask & (1 << i) != 0 {
                    StallInjector::wrap(k, seed.wrapping_add(i as u64), pct)
                } else {
                    k
                };
                g.add_kernel(k, &[prev], &[next]);
                prev = next;
            }
            let (sink, handle) = HostSink::new("dst", n);
            g.add_kernel(Box::new(sink), &[prev], &[]);
            // Injected stalls can produce legitimate full-stall cycles, so
            // deadlock detection is off (the budget still bounds the run).
            let report = g.run_opts(4_000_000, false).expect("run");
            (handle.take(), report)
        };
        let (out_d, rep_d) = build(SchedulerMode::Dense);
        for mode in &SchedulerMode::ALL[1..] {
            let (out, rep) = build(*mode);
            prop_assert_eq!(&out, &out_d, "{:?}", mode);
            prop_assert_eq!(&rep, &rep_d, "{:?}", mode);
        }
    }

    /// Mid-run tier switches on a compiled network: hop between scheduler
    /// tiers at arbitrary cycle boundaries mid-inference. Bursts leave no
    /// cross-cycle state behind and a switch settles park state, so the
    /// stitched run must equal one uninterrupted dense run — same logits,
    /// same cumulative counters, same total cycle count.
    #[test]
    fn mid_run_mode_switches_are_invisible(
        seed in 0u64..200,
        segment in 16u64..400,
        start in 0usize..4,
        stride in 1usize..4,
    ) {
        let net = Network::random(models::test_net(8, 3, 2), seed);
        let img = image_for(&net.spec, seed + 3);
        let images = std::slice::from_ref(&img);
        let tier = |hop: usize| SchedulerMode::ALL[hop % SchedulerMode::ALL.len()];
        let at = |scheduler| CompileOptions { scheduler, ..CompileOptions::default() };
        let reference =
            run_images(&net, images, &at(SchedulerMode::Dense)).expect("reference run");

        let compiled = try_compile(&net, images, &at(tier(start))).expect("valid options");
        let mut graphs = compiled.graphs;
        prop_assert_eq!(graphs.len(), 1);
        let g = &mut graphs[0];
        let mut hop = start;
        let mut total: u64 = 0;
        let report = loop {
            match g.run_opts(segment, false) {
                Ok(report) => break report,
                Err(_) => {
                    // Timed out mid-flight: hop to another tier and keep
                    // going on the same graph state.
                    total += segment;
                    hop += stride;
                    g.set_scheduler(tier(hop));
                    prop_assert!(total < 50_000_000, "mode-switch run wedged");
                }
            }
        };
        let logits = compiled.sink.take();
        prop_assert_eq!(&logits, &reference.logits[0], "mid-switch logits diverged");
        // The final segment's report carries the cumulative kernel and
        // stream counters plus that segment's cycle count.
        let reference_report = &reference.reports[0];
        prop_assert_eq!(&report.kernels, &reference_report.kernels);
        prop_assert_eq!(&report.streams, &reference_report.streams);
        prop_assert_eq!(total + report.cycles, reference_report.cycles);
    }
}

/// One run plus its graph's `(bursts, burst_cycles)`.
fn run_counted(
    net: &Network,
    images: &[Tensor3<i8>],
    opts: &CompileOptions,
) -> (SimResult, (u64, u64)) {
    let mut compiled = try_compile(net, images, opts).expect("valid options");
    let sim = compiled.run().expect("run");
    let [graph] = &compiled.graphs[..] else {
        panic!("a network lowers to one graph");
    };
    (sim, (graph.bursts(), graph.burst_cycles()))
}

/// Per-device reports partition `whole`: each carries its clock, every
/// kernel and stream of `whole` lands on exactly one device, each device
/// keeps graph order, and the replay diagnostics appear once.
fn assert_partition(parts: &[CycleReport], whole: &CycleReport) -> CaseResult {
    for p in parts {
        prop_assert_eq!(p.cycles, whole.cycles);
    }
    let kernels: Vec<&[_]> = parts.iter().map(|p| &p.kernels[..]).collect();
    prop_assert!(splits(&kernels, &whole.kernels), "kernels: {parts:?} vs {whole:?}");
    let streams: Vec<&[_]> = parts.iter().map(|p| &p.streams[..]).collect();
    prop_assert!(splits(&streams, &whole.streams), "streams: {parts:?} vs {whole:?}");
    let replay: Vec<ReplayDiag> =
        parts.iter().map(|p| p.replay).filter(|r| *r != ReplayDiag::default()).collect();
    prop_assert!(replay.len() <= 1, "replay diagnostics on several devices");
    prop_assert_eq!(replay.first().copied().unwrap_or_default(), whole.replay);
    Ok(())
}

/// Whether `whole` is an interleaving of `parts` that uses each of their
/// elements exactly once.
fn splits<T: PartialEq>(parts: &[&[T]], whole: &[T]) -> bool {
    let mut next = vec![0; parts.len()];
    whole.iter().all(|x| match (0..parts.len()).find(|&d| parts[d].get(next[d]) == Some(x)) {
        Some(d) => {
            next[d] += 1;
            true
        }
        None => false,
    }) && next.iter().zip(parts).all(|(&n, p)| n == p.len())
}

/// A span-capable pass-through stage for the injector battery: parkable,
/// uniform one-in-one-out promise, pure on `Stalled`/`Idle`.
struct SpanAffine {
    mul: i32,
    add: i32,
}

impl Kernel for SpanAffine {
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
        Some(SpanPlan::new(u64::MAX, 0b1, 0b1))
    }
    fn run_span(&mut self, io: &mut SpanIo<'_>, n: u64) {
        for _ in 0..n {
            let v = io.pop(0);
            io.push(0, v * self.mul + self.add);
        }
    }
}

/// Deterministic spot-check (not property-sized): the exact cycle count of
/// a full residual network is identical across scheduler tiers, so the
/// EXPERIMENTS flaky-threshold bands calibrated under per-element stepping
/// carry over unchanged.
#[test]
fn cycle_counts_identical_on_residual_network() {
    let net = Network::random(models::test_net(16, 4, 2), 3);
    let img = image_for(&net.spec, 11);
    let run = |scheduler| {
        run_images(
            &net,
            std::slice::from_ref(&img),
            &CompileOptions { scheduler, ..CompileOptions::default() },
        )
        .expect("run")
    };
    let dense = run(SchedulerMode::Dense);
    assert!(dense.cycles() > 0);
    for mode in &SchedulerMode::ALL[1..] {
        let got = run(*mode);
        assert_eq!(got.logits, dense.logits, "{mode:?}");
        assert_eq!(got.reports, dense.reports, "{mode:?}");
    }
}

/// A miniature ResNet front end: a 7×7 stride-2 stem, a padded 2×2 max
/// pool, and two 3×3 convolutions fed at the pool's trickle rate. Every
/// position of a trickle-fed conv is an emit tail, a wait on the pool and an
/// absorb — three state-machine edges inside a few cycles.
fn resnet_front_end() -> NetworkSpec {
    let input = Shape3::square(32, 3);
    let stem = ConvGeometry::new(input, FilterShape::new(7, 3, 8), 2, 3);
    let pooled = Shape3::new(9, 9, 8);
    let conv2 = ConvGeometry::new(pooled, FilterShape::new(3, 8, 8), 1, 1);
    let conv3 = ConvGeometry::new(conv2.output(), FilterShape::new(3, 8, 8), 1, 1);
    SpecBuilder::new("resnet-front-end", input, 2)
        .conv_input(stem)
        .pool(stem.output(), 2, 2, 1, PoolKind::Max)
        .conv(conv2)
        .conv(conv3)
        .fully_connected(conv3.output().len(), 10, false)
        .try_build()
        .expect("front-end spec")
}

/// The front end, unfolded and folded, on every tier against `Dense` — and
/// with bursts covering at least 90 % of its cycles. Chained span plans
/// carry a burst across the convs' phase edges; without them coverage
/// falls to about half (0.48 unfolded, 0.37 folded), so this pins it.
#[test]
fn resnet_front_end_bursts_cover_the_trickle() {
    let net = Network::random(resnet_front_end(), 5);
    let images = [image_for(&net.spec, 17)];
    let folded = CompileOptions {
        layer_folding: FoldPlan::new()
            .with("conv0", Fold::new(2, 3))
            .with("pool1", Fold::new(2, 2))
            .with("conv2", Fold::new(4, 2))
            .with("conv3", Fold::new(2, 4)),
        ..CompileOptions::default()
    };
    for (label, base) in [("unfolded", CompileOptions::default()), ("folded", folded)] {
        if let Err(e) = assert_dispatch_agrees(&net, &images, &base) {
            panic!("{label}: {e:?}");
        }
        let (cycles, burst_cycles, _) = span_coverage(&net, &images, &base, "conv0");
        assert!(
            burst_cycles * 10 >= cycles * 9,
            "{label}: bursts cover {burst_cycles} of {cycles} cycles, under 90 %"
        );
    }
}

/// Folded kernels must *join* bursts, not merely tolerate them: at a design
/// point whose folded first layer is busy for most of the run, the cycles
/// covered by bursts and the cycles that layer is busy cannot both fit in
/// the run unless they overlap. A folded kernel that silently went back to
/// vetoing (no promise while awake) would cap coverage at the cycles it
/// sleeps through and fail this.
#[test]
fn folded_kernels_run_inside_bursts() {
    let net = Network::random(models::vgg_like(16, 10, 2), 11);
    let images = [image_for(&net.spec, 40)];
    let base = CompileOptions {
        layer_folding: FoldPlan::new()
            .with("conv0", Fold::new(4, 1))
            .with("conv1", Fold::new(2, 2))
            .with("pool2", Fold::new(2, 4)),
        ..CompileOptions::default()
    };
    for kernel in ["conv0", "conv1.pad", "conv1", "pool2"] {
        let (cycles, burst_cycles, busy) = span_coverage(&net, &images, &base, kernel);
        assert!(
            burst_cycles + busy > cycles,
            "{kernel}: {burst_cycles} burst cycles + {busy} busy cycles fit in {cycles} \
             without overlapping — it never ran inside a burst"
        );
    }
}
