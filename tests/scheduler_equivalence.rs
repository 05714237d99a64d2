//! Differential park/wake battery: the default stepper's ready-list
//! parking, on its own, must be **bit-identical** to the dense oracle (the
//! same stepper over `DenseOracle`-wrapped kernels) — same logits, same
//! `CycleReport`s (cycle counts, per-kernel busy/stall tallies, per-stream
//! pushed/max-occupancy) and the same per-cycle trace samples — across
//! randomized networks, multi-device cuts, streamed-parameter loading,
//! folded design points, and graphs laced with random stall injection in
//! both node orders. The random-network properties draw a residual network
//! beside each plain one, so strided and pooled stems park too.
//!
//! Traced runs step per element (no bursts, no replay), so the compiled
//! cases here run traced and isolate parking. A parked kernel's verdict is
//! credited lazily into its counters: the final report checks that credit,
//! and the samples pin each stream's occupancy and each kernel's busy
//! cycles between samples. `macro_tick_equivalence.rs` holds the full
//! default stepper, spans and replay included, against the same oracle.
//!
//! Part of `./ci.sh soak` at `QNN_TEST_CASES=1024`.

mod common;

use common::{compile_on, folded_plan, StallPipeline};
use qnn::compiler::CompileOptions;
use qnn::nn::specgen::{image_for, residual_spec_strategy, spec_strategy};
use qnn::nn::{models, Network};
use qnn::tensor::Tensor3;
use qnn_testkit::prop::CaseResult;
use qnn_testkit::{prop_assert_eq, props};

/// Cycles between trace samples: odd, so samples land mid-phase.
const SAMPLE_EVERY: u64 = 7;

/// Run the same workload traced on the default stepper and on the dense
/// oracle and assert the logits, the whole-graph report and every trace
/// sample agree — and that the traced default run never burst.
fn assert_parking_agrees(
    net: &Network,
    images: &[Tensor3<i8>],
    base: &CompileOptions,
) -> CaseResult {
    let run = |dense: bool| {
        let mut compiled = compile_on(dense, net, images, base).expect("valid options");
        let graph = &mut compiled.graphs[0];
        let (report, trace) = graph.run_traced(100_000_000, SAMPLE_EVERY).expect("run");
        let bursts = graph.bursts();
        (compiled.sink.take(), report, trace, bursts)
    };
    let (logits_d, report_d, trace_d, _) = run(true);
    let (logits, report, trace, bursts) = run(false);
    prop_assert_eq!(bursts, 0, "a traced run burst");
    prop_assert_eq!(&logits, &logits_d);
    prop_assert_eq!(&report, &report_d);
    prop_assert_eq!(&trace.occupancy, &trace_d.occupancy);
    prop_assert_eq!(&trace.busy_delta, &trace_d.busy_delta);
    Ok(())
}

props! {
    /// Single-device: random conv/pool/fc networks, 1–2 images, with the
    /// §III-B1a parameter-streaming path folded in (its loader phase has
    /// its own stall structure worth covering).
    #[test]
    fn single_device_reports_identical(
        spec in spec_strategy(),
        residual in residual_spec_strategy(),
        seed in 0u64..1000,
        n_images in 1usize..3,
        stream_params in 0u8..2,
    ) {
        let base = CompileOptions {
            stream_parameters: stream_params == 1,
            ..CompileOptions::default()
        };
        for spec in spec.into_iter().chain([residual]) {
            let net = Network::random(spec, seed);
            let images: Vec<_> =
                (0..n_images as u64).map(|i| image_for(&net.spec, seed + i)).collect();
            assert_parking_agrees(&net, &images, &base)?;
        }
    }

    /// Multi-device: the same random networks cut across two devices at a
    /// random stage boundary. The cut is a tag on one graph, so parking
    /// must still agree across the device seam (the per-device reports
    /// are projections of the whole-graph report compared here).
    #[test]
    fn multi_device_lockstep_reports_identical(
        spec in spec_strategy(),
        residual in residual_spec_strategy(),
        seed in 0u64..1000,
        cut in 1usize..4,
    ) {
        for spec in spec.into_iter().chain([residual]) {
            let stage_device: Vec<usize> =
                (0..spec.stages.len()).map(|i| usize::from(i >= cut)).collect();
            let net = Network::random(spec, seed);
            let img = image_for(&net.spec, seed);
            let base = CompileOptions {
                stage_device: Some(stage_device),
                ..CompileOptions::default()
            };
            assert_parking_agrees(&net, std::slice::from_ref(&img), &base)?;
        }
    }

    /// Residual networks (split/add/skip-buffer kernels) under FIFO
    /// backpressure stress.
    #[test]
    fn residual_nets_reports_identical_under_fifo_stress(
        seed in 0u64..200,
        fifo in 4usize..64,
    ) {
        let net = Network::random(models::test_net(8, 4, 2), seed);
        let img = image_for(&net.spec, seed + 7);
        let base = CompileOptions { fifo_capacity: fifo, ..CompileOptions::default() };
        assert_parking_agrees(&net, std::slice::from_ref(&img), &base)?;
    }

    /// A non-trivial folded design point on the full-featured residual
    /// test net, with the downsample path folded (plan 1 of
    /// `folded_plan`): folded kernels move several elements per lane per
    /// cycle, so parking must stay bit-exact with multi-lane wakeups in
    /// play.
    #[test]
    fn folded_design_point_reports_identical(
        seed in 0u64..200,
        pe_bits in 0u32..3,
        simd_bits in 0u32..3,
        fifo in 16usize..128,
    ) {
        let net = Network::random(models::test_net(8, 4, 2), seed);
        let img = image_for(&net.spec, seed + 13);
        let base = CompileOptions {
            layer_folding: folded_plan(1, pe_bits, simd_bits),
            fifo_capacity: fifo,
            ..CompileOptions::default()
        };
        assert_parking_agrees(&net, std::slice::from_ref(&img), &base)?;
    }

    /// StallInjector-laced pipelines of span-less stages, so only parking
    /// fast-forwards them: parkable stages interleaved with always-tick
    /// injector-wrapped ones. The injector's RNG advances on every tick,
    /// so report identity here proves parked cycles are *replayed*, not
    /// merely dropped — any skipped injector tick would shift the stall
    /// pattern and change every downstream cycle count. `reverse` adds the
    /// kernels sink-first: every reader then precedes its writer in node
    /// order, so a pop wakes a parked writer mid-cycle, which must tick
    /// that same cycle.
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
            n, stages, fifo, pct, seed, wrap_mask, reverse: reverse == 1, span: false,
        };
        let (out_d, rep_d) = pipeline.run(true);
        let (out, rep) = pipeline.run(false);
        prop_assert_eq!(&out, &out_d);
        prop_assert_eq!(&rep, &rep_d);
    }
}

/// Deterministic spot-check (not property-sized): the exact cycle count
/// and every trace sample of a full residual network are identical with
/// parking on and off, so the EXPERIMENTS flaky-threshold bands
/// calibrated under dense stepping carry over.
#[test]
fn cycle_counts_identical_on_residual_network() {
    let net = Network::random(models::test_net(16, 4, 2), 3);
    let img = image_for(&net.spec, 11);
    assert_parking_agrees(&net, std::slice::from_ref(&img), &CompileOptions::default())
        .expect("parking agrees with dense stepping");
}
