//! Differential scheduler battery: the event-driven ready-list stepper
//! (and every tier built on it) must be **bit-identical** to the dense
//! reference stepper — same logits, same `CycleReport`s (cycle counts,
//! per-kernel busy/stall tallies, per-stream pushed/max-occupancy) —
//! across randomized networks, multi-device lockstep cuts,
//! streamed-parameter loading, and graphs laced with random stall
//! injection.
//!
//! This is the proof obligation behind defaulting to a tier above `Dense`:
//! every golden vector, determinism test, and flaky-threshold band was
//! calibrated under dense stepping and must carry over unchanged.
//!
//! Part of `./ci.sh soak` at `QNN_TEST_CASES=1024`.

use qnn::compiler::{compile, run_images, CompileOptions, Fold, FoldPlan};
use qnn::dfe::{
    Graph, HostSink, HostSource, Io, Kernel, Progress, SchedulerMode, StallInjector, StreamSpec,
    WakeHint,
};
use qnn::nn::specgen::spec_strategy;
use qnn::nn::{models, Network, NetworkSpec};
use qnn::tensor::Tensor3;
use qnn_testkit::{prop_assert, prop_assert_eq, props};

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
/// every per-device report are identical to the `Dense` oracle's.
fn assert_modes_agree(
    net: &Network,
    images: &[Tensor3<i8>],
    base: &CompileOptions,
) -> qnn_testkit::prop::CaseResult {
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

props! {
    /// Single-device: random conv/pool/fc networks, 1–2 images, with the
    /// §III-B1a parameter-streaming path folded in (its loader phase has
    /// its own stall structure worth covering).
    #[test]
    fn single_device_reports_identical(
        spec in spec_strategy(),
        seed in 0u64..1000,
        n_images in 1usize..3,
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
        assert_modes_agree(&net, &images, &base)?;
    }

    /// Multi-device lockstep: the same random networks cut across two
    /// devices at a random stage boundary. The lockstep executor calls
    /// `step_cycle` directly, so this exercises parking across
    /// channel-linked graphs (ingress/egress kernels must never park).
    #[test]
    fn multi_device_lockstep_reports_identical(
        spec in spec_strategy(),
        seed in 0u64..1000,
        cut in 1usize..4,
    ) {
        let Some(spec) = spec else {
            return Ok(());
        };
        let stage_device: Vec<usize> =
            (0..spec.stages.len()).map(|i| usize::from(i >= cut)).collect();
        let net = Network::random(spec, seed);
        let img = image_for(&net.spec, seed);
        let base = CompileOptions {
            stage_device: Some(stage_device),
            ..CompileOptions::default()
        };
        assert_modes_agree(&net, std::slice::from_ref(&img), &base)?;
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
        assert_modes_agree(&net, std::slice::from_ref(&img), &base)?;
    }

    /// A non-trivial folded design point on the full-featured residual
    /// test net: folded kernels move several elements per lane per cycle,
    /// so ready-list parking and span dispatch must stay bit-exact against
    /// dense stepping with multi-lane wakeups in play — and spans must
    /// still engage (a folded kernel that went back to vetoing would leave
    /// the ready-list tier stepping per-element, unnoticed).
    #[test]
    fn folded_design_point_reports_identical(
        seed in 0u64..200,
        pe_bits in 0u32..3,
        simd_bits in 0u32..3,
        fifo in 16usize..128,
    ) {
        let net = Network::random(models::test_net(8, 4, 2), seed);
        let img = image_for(&net.spec, seed + 13);
        let folding = FoldPlan::new()
            .with("conv0", Fold::new(1 << pe_bits, 1 << simd_bits))
            .with("pool1", Fold::new(2, 1 << simd_bits))
            .with("res2.conv1", Fold::new(1 << simd_bits, 4))
            .with("res3.ds", Fold::new(2, 2))
            .with("fc5", Fold::new(4, 1 << pe_bits));
        let base = CompileOptions {
            layer_folding: folding,
            fifo_capacity: fifo,
            ..CompileOptions::default()
        };
        assert_modes_agree(&net, std::slice::from_ref(&img), &base)?;
        let mut spans = compile(
            &net,
            std::slice::from_ref(&img),
            &CompileOptions { scheduler: SchedulerMode::Span, ..base },
        );
        spans.graphs[0].run(100_000_000).expect("span run");
        prop_assert!(
            spans.graphs[0].burst_cycles() > 0,
            "no burst fired at a folded design point"
        );
    }

    /// StallInjector-laced pipelines: parkable stages interleaved with
    /// always-tick injector-wrapped stages. The injector's RNG advances on
    /// every tick, so report identity here proves parked cycles are
    /// *replayed*, not merely dropped — any skipped injector tick would
    /// shift the stall pattern and change every downstream cycle count.
    #[test]
    fn stall_injected_pipelines_reports_identical(
        n in 1usize..80,
        stages in 1usize..6,
        fifo in 1usize..8,
        pct in 0u8..50,
        seed in 0u64..10_000,
        wrap_mask in 0u32..64,
    ) {
        let build = |mode: SchedulerMode| {
            let mut g = Graph::with_scheduler(mode);
            let data: Vec<i32> = (0..n as i32).collect();
            let mut prev = g.add_stream(StreamSpec::new("s0", 8, fifo));
            g.add_kernel(Box::new(HostSource::new("src", data)), &[], &[prev]);
            for i in 0..stages {
                let next = g.add_stream(StreamSpec::new(format!("s{}", i + 1), 8, fifo));
                let k: Box<dyn Kernel> = Box::new(Affine { mul: 3, add: i as i32 });
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
}

/// A parkable pass-through stage for the injector battery: pure on
/// `Stalled`/`Idle`, so it honours the `WakeHint::Parkable` contract.
struct Affine {
    mul: i32,
    add: i32,
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
}

/// Deterministic spot-check (not property-sized): the exact cycle count of
/// a full residual network is identical on every tier, so the EXPERIMENTS
/// flaky-threshold bands calibrated under dense stepping carry over.
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
