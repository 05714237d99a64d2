//! Differential datapath battery: the pack-on-arrival / blocked-bit-GEMM
//! convolution busy path must be **bit-identical** to the scalar reference
//! datapath — same logits, same `CycleReport`s (cycle counts, per-kernel
//! busy/stall tallies, per-stream pushed/max-occupancy) — across randomized
//! networks, streamed-parameter loading, multi-device cuts, and both
//! steppers.
//!
//! This is the proof obligation behind making `Packed` the default: every
//! golden vector, determinism test, and flaky-threshold band was calibrated
//! under the scalar datapath and must carry over unchanged. The argument is
//! structural — `tick`'s I/O decisions never consult the datapath, and the
//! per-filter arithmetic is the same `(2·agree − ones) << p` plane sum —
//! and this suite is the empirical check of that argument.
//!
//! Part of `./ci.sh soak` at `QNN_TEST_CASES=1024`.

use qnn::compiler::{run_images, CompileOptions};
use qnn::dfe::SchedulerMode;
use qnn::kernels::ConvDatapath;
use qnn::nn::specgen::spec_strategy;
use qnn::nn::{models, Network, NetworkSpec};
use qnn::tensor::Tensor3;
use qnn_testkit::{prop_assert_eq, props};

fn image_for(spec: &NetworkSpec, seed: u64) -> Tensor3<i8> {
    Tensor3::from_fn(spec.input, |y, x, c| {
        ((seed as usize)
            .wrapping_mul(37)
            .wrapping_add(y * 113 + x * 19 + c * 5)
            .wrapping_mul(2654435761)
            >> 16) as i8
    })
}

/// Run the same workload under both datapaths and assert logits and every
/// per-device report are identical.
fn assert_datapaths_agree(
    net: &Network,
    images: &[Tensor3<i8>],
    base: &CompileOptions,
) -> qnn_testkit::prop::CaseResult {
    let packed = run_images(
        net,
        images,
        &CompileOptions {
            conv_datapath: ConvDatapath::Packed,
            ..base.clone()
        },
    )
    .expect("packed run");
    let scalar = run_images(
        net,
        images,
        &CompileOptions {
            conv_datapath: ConvDatapath::ScalarReference,
            ..base.clone()
        },
    )
    .expect("scalar-reference run");
    prop_assert_eq!(&packed.logits, &scalar.logits);
    prop_assert_eq!(&packed.reports, &scalar.reports);
    Ok(())
}

props! {
    /// Single-device: random conv/pool/fc networks, 1–2 images, either
    /// stepper, with the §III-B1a parameter-streaming path folded in —
    /// streamed loading swaps the filter bank *after* the plane rings are
    /// built, so it exercises the placeholder-filters path too.
    #[test]
    fn random_networks_datapaths_identical(
        spec in spec_strategy(),
        seed in 0u64..1000,
        n_images in 1usize..3,
        stream_params in 0u8..2,
        dense in 0u8..2,
    ) {
        let Some(spec) = spec else {
            return Ok(());
        };
        let net = Network::random(spec, seed);
        let images: Vec<_> =
            (0..n_images as u64).map(|i| image_for(&net.spec, seed + i)).collect();
        let base = CompileOptions {
            stream_parameters: stream_params == 1,
            scheduler: if dense == 1 { SchedulerMode::Dense } else { SchedulerMode::default() },
            ..CompileOptions::default()
        };
        assert_datapaths_agree(&net, &images, &base)?;
    }

    /// Multi-device cuts: report identity must hold for every per-device
    /// projection of the cut run too.
    #[test]
    fn multi_device_datapaths_identical(
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
        assert_datapaths_agree(&net, std::slice::from_ref(&img), &base)?;
    }

    /// Residual networks under FIFO backpressure stress: split/add skip
    /// paths stall the conv kernels mid-emit, so precomputed accumulators
    /// must survive arbitrarily long write-blocked gaps.
    #[test]
    fn residual_nets_datapaths_identical_under_fifo_stress(
        seed in 0u64..200,
        fifo in 4usize..64,
    ) {
        let net = Network::random(models::test_net(8, 4, 2), seed);
        let img = image_for(&net.spec, seed + 3);
        let base = CompileOptions { fifo_capacity: fifo, ..CompileOptions::default() };
        assert_datapaths_agree(&net, std::slice::from_ref(&img), &base)?;
    }
}

/// Deterministic spot-check (not property-sized): exact cycle counts of a
/// full residual network are identical under both datapaths, so the
/// EXPERIMENTS flaky-threshold bands calibrated under the scalar datapath
/// carry over.
#[test]
fn cycle_counts_identical_on_residual_network() {
    let net = Network::random(models::test_net(16, 4, 2), 5);
    let img = image_for(&net.spec, 13);
    let run = |conv_datapath| {
        run_images(
            &net,
            std::slice::from_ref(&img),
            &CompileOptions {
                conv_datapath,
                ..CompileOptions::default()
            },
        )
        .expect("run")
    };
    let packed = run(ConvDatapath::Packed);
    let scalar = run(ConvDatapath::ScalarReference);
    assert_eq!(packed.logits, scalar.logits);
    assert_eq!(packed.reports, scalar.reports);
    assert!(packed.cycles() > 0);
}
