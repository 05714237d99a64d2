//! Property-based end-to-end equivalence: for *randomized* layer
//! geometries — kernel sizes, strides, padding, channel counts, activation
//! widths, residual blocks with carried and downsampled skips — the
//! streaming pipeline must match the reference interpreter exactly. This is
//! the widest net we can cast over the kernel state machines (ring
//! indexing, drain/reset paths, threshold fusion) and, with the reference
//! interpreter as the value oracle, over the convolution datapath.
//!
//! Part of `./ci.sh soak` at `QNN_TEST_CASES=1024`.

use qnn::compiler::{run_images, CompileOptions};
use qnn::nn::specgen::{image_for, residual_spec_strategy, spec_strategy};
use qnn::nn::{models, Network, NetworkSpec};
use qnn_testkit::{prop_assert_eq, props, vec};

/// The drawn network: the conv/pool/fc chain, or the residual one when
/// `which` is 1.
fn pick(chain: Option<NetworkSpec>, residual: NetworkSpec, which: u8) -> Option<NetworkSpec> {
    if which == 1 {
        Some(residual)
    } else {
        chain
    }
}

props! {
    /// Randomized conv/pool/fc chains and residual networks are bit-exact
    /// in the simulator.
    #[test]
    fn random_conv_chains_are_bit_exact(
        chain in spec_strategy(),
        residual in residual_spec_strategy(),
        which in 0u8..2,
        seed in 0u64..1000,
    ) {
        let Some(spec) = pick(chain, residual, which) else {
            return Ok(());
        };
        let net = Network::random(spec, seed);
        let img = image_for(&net.spec, seed);
        let expect = net.forward(&img).logits;
        let sim = run_images(&net, std::slice::from_ref(&img), &CompileOptions::default())
            .expect("sim");
        prop_assert_eq!(&sim.logits[0], &expect);
    }

    /// Loader equivalence: a pipeline whose conv kernels start from
    /// `ConvKernel::new_streamed` (weights/thresholds arriving over a
    /// parameter stream before the first image) produces logits
    /// bit-identical to the preloaded `ConvKernel::new` pipeline and to the
    /// reference interpreter, across random chains and residual networks.
    #[test]
    fn streamed_parameter_loading_matches_preloaded(
        chain in spec_strategy(),
        residual in residual_spec_strategy(),
        which in 0u8..2,
        seed in 0u64..1000,
        n_images in 1usize..3,
    ) {
        let Some(spec) = pick(chain, residual, which) else {
            return Ok(());
        };
        let net = Network::random(spec, seed);
        let images: Vec<_> =
            (0..n_images).map(|i| image_for(&net.spec, seed + 31 * i as u64)).collect();
        let preloaded = run_images(&net, &images, &CompileOptions::default())
            .expect("preloaded sim");
        let streamed = run_images(
            &net,
            &images,
            &CompileOptions { stream_parameters: true, ..CompileOptions::default() },
        )
        .expect("streamed sim");
        prop_assert_eq!(&streamed.logits, &preloaded.logits);
        let expect: Vec<_> = images.iter().map(|img| net.forward(img).logits).collect();
        prop_assert_eq!(&streamed.logits, &expect);
    }

    /// Device cuts: a random per-stage device map — cuts anywhere,
    /// inside a residual chain included — leaves the logits bit-exact.
    #[test]
    fn device_cuts_are_bit_exact(
        chain in spec_strategy(),
        residual in residual_spec_strategy(),
        which in 0u8..2,
        seed in 0u64..1000,
        pattern in vec(0usize..3, 1..6),
    ) {
        let Some(spec) = pick(chain, residual, which) else {
            return Ok(());
        };
        let stage_device = (0..spec.stages.len()).map(|i| pattern[i % pattern.len()]).collect();
        let net = Network::random(spec, seed);
        let img = image_for(&net.spec, seed);
        let expect = net.forward(&img).logits;
        let opts = CompileOptions { stage_device: Some(stage_device), ..CompileOptions::default() };
        let sim = run_images(&net, std::slice::from_ref(&img), &opts).expect("cut sim");
        prop_assert_eq!(&sim.logits[0], &expect);
    }

    /// Residual networks with random seeds and small FIFOs stay bit-exact
    /// (backpressure stress).
    #[test]
    fn residual_nets_bit_exact_under_fifo_stress(
        seed in 0u64..200,
        fifo in 4usize..64,
    ) {
        let net = Network::random(models::test_net(8, 4, 2), seed);
        let img = image_for(&net.spec, seed + 7);
        let expect = net.forward(&img).logits;
        let sim = run_images(
            &net,
            std::slice::from_ref(&img),
            &CompileOptions { fifo_capacity: fifo, ..CompileOptions::default() },
        )
        .expect("sim under FIFO stress");
        prop_assert_eq!(&sim.logits[0], &expect);
    }
}
