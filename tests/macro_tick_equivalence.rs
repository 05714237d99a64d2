//! Differential stepper battery: the default stepper — ready-list
//! parking, span dispatch and schedule replay — must be **bit-identical**
//! to the dense oracle, the same stepper over `DenseOracle`-wrapped
//! kernels — same logits, same `CycleReport`s (cycle counts, per-kernel
//! busy/stall tallies, per-stream pushed/max-occupancy) — across
//! randomized networks, streamed-parameter loading, multi-image sequences,
//! folded design points, 1–3-device cuts (which must also be invisible
//! next to the uncut run), stall-injected pipelines in both node orders,
//! runs resumed after a timeout, and transformer encoders (whose attention
//! heads gather skewed Q/K/V streams port by port).
//!
//! This is the proof obligation behind the default stepper's shortcuts: a
//! parked kernel's verdict is replayed into its counters and a
//! burst replays `k` dense cycles in one dispatch per kernel, so every
//! counter the dense interleaving would have produced must come out of the
//! lazy and closed-form credits, exactly — and every golden vector,
//! determinism test and flaky-threshold band calibrated under dense
//! stepping carries over unchanged. `scheduler_equivalence.rs` holds
//! parking alone (traced runs, which never burst) against the same oracle.
//!
//! Part of `./ci.sh soak` at `QNN_TEST_CASES=1024`.

mod common;

use common::{compile_on, folded_plan, random_plan, run_dense, StallPipeline};
use qnn::compiler::{run_images, try_compile, CompileOptions, Fold, FoldPlan, SimResult};
use qnn::dfe::{CycleReport, ReplayDiag};
use qnn::nn::specgen::{encoder_spec_strategy, image_for, residual_spec_strategy, spec_strategy};
use qnn::nn::{models, Network, NetworkSpec, PoolKind, SpecBuilder};
use qnn::tensor::{ConvGeometry, FilterShape, Shape3, Tensor3};
use qnn_testkit::prop::CaseResult;
use qnn_testkit::{prop_assert, prop_assert_eq, props, vec};

/// Run the same workload on the default stepper and on the dense oracle
/// and assert logits and every per-device report agree.
fn assert_dispatch_agrees(
    net: &Network,
    images: &[Tensor3<i8>],
    base: &CompileOptions,
) -> CaseResult {
    let dense = run_dense(net, images, base).expect("dense run");
    let got = run_images(net, images, base).expect("run");
    prop_assert_eq!(&got.logits, &dense.logits);
    prop_assert_eq!(&got.reports, &dense.reports);
    Ok(())
}

/// Span coverage of one single-device run on the default stepper: the
/// report, the cycles covered by bursts, and the busy count of the kernel named
/// `kernel`. Bursts need every awake kernel's promise, so
/// `burst_cycles + busy > cycles` proves (pigeonhole) that `kernel` ran
/// inside a burst rather than vetoing whenever it was awake.
fn span_coverage(
    net: &Network,
    images: &[Tensor3<i8>],
    base: &CompileOptions,
    kernel: &str,
) -> (u64, u64, u64) {
    let mut compiled = try_compile(net, images, base).expect("valid options");
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

    /// Random single-encoder transformers, multi-image sequences, under
    /// FIFO stress: the attention family's slice, gather and emit promises
    /// must replay exactly the ticks dense stepping runs.
    #[test]
    fn encoder_reports_identical(
        spec in encoder_spec_strategy(),
        seed in 0u64..1000,
        n_images in 1usize..4,
        fifo in 2usize..64,
    ) {
        let net = Network::random(spec, seed);
        let images: Vec<_> =
            (0..n_images as u64).map(|i| image_for(&net.spec, seed + i)).collect();
        let base = CompileOptions { fifo_capacity: fifo, ..CompileOptions::default() };
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

    /// Random residual networks — identity, width-changing and stride-2
    /// blocks, the `res{i}.ds` downsample path — at the unit plan and at
    /// random folded plans: the repeated phases their convolutions and
    /// pools state (the interior of an output row) must replay exactly the
    /// ticks dense stepping runs, crossed in closed form or walked copy by
    /// copy.
    #[test]
    fn residual_specs_reports_identical(
        spec in residual_spec_strategy(),
        seed in 0u64..1000,
        n_images in 1usize..3,
        folded in 0u8..2,
        fold_seed in 0u64..u64::MAX,
    ) {
        let net = Network::random(spec, seed);
        let images: Vec<_> =
            (0..n_images as u64).map(|i| image_for(&net.spec, seed + 3 + i)).collect();
        let layer_folding =
            if folded == 1 { random_plan(&net.spec, fold_seed) } else { FoldPlan::new() };
        let base = CompileOptions { layer_folding, ..CompileOptions::default() };
        assert_dispatch_agrees(&net, &images, &base)?;
    }

    /// A non-trivial folded design point: folded kernels promise spans at
    /// their lane rates (or the sub-lane rate a narrower neighbour holds
    /// them to), so the wavefront carries several elements per port per
    /// cycle — with identical logits and reports, and with bursts actually
    /// firing. `plan` picks one of two foldings, the second with the
    /// downsample path folded. This pins the folding/span interaction the
    /// DSE frontier relies on.
    #[test]
    fn folded_design_point_reports_identical(
        seed in 0u64..200,
        pe_bits in 0u32..3,
        simd_bits in 0u32..3,
        fifo in 16usize..128,
        n_images in 1usize..3,
        plan in 0u8..2,
    ) {
        let net = Network::random(models::test_net(8, 4, 2), seed);
        let images: Vec<_> =
            (0..n_images as u64).map(|i| image_for(&net.spec, seed + 13 + i)).collect();
        let base = CompileOptions {
            layer_folding: folded_plan(plan, pe_bits, simd_bits),
            fifo_capacity: fifo,
            ..CompileOptions::default()
        };
        assert_dispatch_agrees(&net, &images, &base)?;
        let (_, burst_cycles, _) = span_coverage(&net, &images, &base, "conv0");
        prop_assert!(burst_cycles > 0, "no burst fired at a folded design point");
    }

    /// The same folded design points with every FIFO one or two deep (all
    /// but the structural skip and downsample buffers): every link is
    /// backpressured, each writer into a full FIFO waiting on a reader it
    /// sees a cycle late — the schedules a burst planner settles last.
    #[test]
    fn folded_backpressured_reports_identical(
        seed in 0u64..200,
        pe_bits in 0u32..3,
        simd_bits in 0u32..3,
        depths in 0u64..u64::MAX,
    ) {
        let net = Network::random(models::test_net(8, 4, 2), seed);
        let images = [image_for(&net.spec, seed + 29)];
        let shallow = CompileOptions {
            layer_folding: folded_plan(0, pe_bits, simd_bits),
            fifo_capacity: 2,
            ..CompileOptions::default()
        };
        let report = &run_images(&net, &images, &shallow).expect("run").reports[0];
        let fifo_overrides = report
            .streams
            .iter()
            .filter(|s| s.capacity == 2)
            .enumerate()
            .map(|(i, s)| (s.name.clone(), 1 + (depths >> (i % 64) & 1) as usize))
            .collect();
        let base = CompileOptions { fifo_overrides, ..shallow };
        assert_dispatch_agrees(&net, &images, &base)?;
        let (_, burst_cycles, _) = span_coverage(&net, &images, &base, "conv0");
        prop_assert!(burst_cycles > 0, "no burst fired with every FIFO backpressured");
    }

    /// 1–3-device cuts, contiguous or not (`[0, 1, 0, …]`). A device is a
    /// tag, so a cut network is the uncut network's graph: on the default
    /// stepper it matches the dense oracle, and on either it matches the
    /// *uncut* run — same logits, same clock, same bursts — while its
    /// per-device reports partition the uncut report.
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
        for dense in [true, false] {
            let (parts, cut_bursts) = run_counted(dense, &net, images, &cut);
            let (whole, whole_bursts) =
                run_counted(dense, &net, images, &CompileOptions::default());
            prop_assert_eq!(&parts.logits, &whole.logits, "dense={}", dense);
            prop_assert_eq!(parts.cycles(), whole.cycles(), "dense={}", dense);
            prop_assert_eq!(cut_bursts, whole_bursts, "dense={}", dense);
            prop_assert_eq!(parts.reports.len(), devices);
            assert_partition(&parts.reports, &whole.reports[0])?;
        }
    }

    /// StallInjector-laced pipelines: injector-wrapped stages are
    /// `AlwaysTick` with no span promise, so every burst window they are
    /// awake in is vetoed — runs interleave spans with per-element
    /// stretches at injector-chosen boundaries, and the injector's RNG
    /// advances on every tick, so any mis-credited span or parked cycle
    /// would shift the stall pattern and change every downstream cycle
    /// count (`scheduler_equivalence.rs` runs the same pipelines with
    /// span-less stages). `reverse` adds the kernels sink-first: every
    /// reader then precedes its writer in node order, so a pop wakes a
    /// parked writer mid-cycle, which must tick that same cycle — the one
    /// wake edge no compiled network reaches.
    #[test]
    fn stall_injected_pipelines_reports_identical(
        n in 1usize..80,
        stages in 1usize..6,
        fifo in 1usize..8,
        pct in 0u8..50,
        seed in 0u64..10_000,
        wrap_mask in 0u32..64,
        reverse in 0u8..2,
    ) {
        let pipeline = StallPipeline {
            n, stages, fifo, pct, seed, wrap_mask, reverse: reverse == 1, span: true,
        };
        let (out_d, rep_d) = pipeline.run(true);
        let (out, rep) = pipeline.run(false);
        prop_assert_eq!(&out, &out_d);
        prop_assert_eq!(&rep, &rep_d);
    }

    /// Segmented runs on a compiled network: stop at arbitrary cycle
    /// boundaries mid-inference (a timeout) and resume on the same graph
    /// state. Bursts leave no cross-cycle state behind and park state
    /// carries over, so the stitched run, stepped by default or on the dense
    /// oracle, must equal one uninterrupted dense run — same logits, same cumulative counters,
    /// same total cycle count.
    #[test]
    fn mid_run_mode_switches_are_invisible(
        seed in 0u64..200,
        segment in 16u64..400,
        dense in 0u8..2,
    ) {
        let net = Network::random(models::test_net(8, 3, 2), seed);
        let img = image_for(&net.spec, seed + 3);
        let images = std::slice::from_ref(&img);
        let opts = CompileOptions::default();
        let reference = run_dense(&net, images, &opts).expect("reference run");

        let compiled = compile_on(dense == 1, &net, images, &opts).expect("valid options");
        let mut graphs = compiled.graphs;
        prop_assert_eq!(graphs.len(), 1);
        let g = &mut graphs[0];
        let mut total: u64 = 0;
        let report = loop {
            match g.run_opts(segment, false) {
                Ok(report) => break report,
                Err(_) => {
                    // Timed out mid-flight: resume on the same graph state.
                    total += segment;
                    prop_assert!(total < 50_000_000, "segmented run wedged");
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

/// One run, on the dense oracle when `dense` is set, plus its graph's
/// `(bursts, burst_cycles)`.
fn run_counted(
    dense: bool,
    net: &Network,
    images: &[Tensor3<i8>],
    opts: &CompileOptions,
) -> (SimResult, (u64, u64)) {
    let mut compiled = compile_on(dense, net, images, opts).expect("valid options");
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
    prop_assert!(
        splits(&kernels, &whole.kernels),
        "kernels: {parts:?} vs {whole:?}"
    );
    let streams: Vec<&[_]> = parts.iter().map(|p| &p.streams[..]).collect();
    prop_assert!(
        splits(&streams, &whole.streams),
        "streams: {parts:?} vs {whole:?}"
    );
    let replay: Vec<ReplayDiag> = parts
        .iter()
        .map(|p| p.replay)
        .filter(|r| *r != ReplayDiag::default())
        .collect();
    prop_assert!(replay.len() <= 1, "replay diagnostics on several devices");
    prop_assert_eq!(replay.first().copied().unwrap_or_default(), whole.replay);
    Ok(())
}

/// Whether `whole` is an interleaving of `parts` that uses each of their
/// elements exactly once.
fn splits<T: PartialEq>(parts: &[&[T]], whole: &[T]) -> bool {
    let mut next = vec![0; parts.len()];
    whole.iter().all(
        |x| match (0..parts.len()).find(|&d| parts[d].get(next[d]) == Some(x)) {
            Some(d) => {
                next[d] += 1;
                true
            }
            None => false,
        },
    ) && next.iter().zip(parts).all(|(&n, p)| n == p.len())
}

/// Deterministic spot-check (not property-sized): the exact cycle count of
/// a full residual network is identical stepped by default and on the
/// dense oracle, so the
/// EXPERIMENTS flaky-threshold bands calibrated under per-element stepping
/// carry over unchanged.
#[test]
fn cycle_counts_identical_on_residual_network() {
    let net = Network::random(models::test_net(16, 4, 2), 3);
    let img = image_for(&net.spec, 11);
    let images = std::slice::from_ref(&img);
    let opts = CompileOptions::default();
    assert!(run_dense(&net, images, &opts).expect("run").cycles() > 0);
    assert_dispatch_agrees(&net, images, &CompileOptions::default()).expect("steppers agree");
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

/// The front end, unfolded and folded, on the default stepper against the
/// dense oracle — and
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

/// The serving benchmark's transformer, two images: bit-identical to the
/// dense oracle, and every attention-family kernel runs inside bursts (see
/// [`folded_kernels_run_inside_bursts`] for the pigeonhole).
#[test]
fn attention_kernels_run_inside_bursts() {
    let net = Network::random(models::tiny_transformer(16, 2, 8, 10, 2, 32), 12);
    let images: Vec<_> = (0..2).map(|i| image_for(&net.spec, 50 + i)).collect();
    assert_dispatch_agrees(&net, &images, &CompileOptions::default()).expect("agrees");
    for kernel in ["enc1.q.heads", "enc1.attn0", "enc1.attn1", "enc1.cat", "enc1.ln", "enc1.ln2"] {
        let base = CompileOptions::default();
        let (cycles, burst_cycles, busy) = span_coverage(&net, &images, &base, kernel);
        assert!(
            burst_cycles + busy > cycles,
            "{kernel}: {burst_cycles} burst cycles + {busy} busy cycles fit in {cycles} \
             without overlapping — it never ran inside a burst"
        );
    }
}
