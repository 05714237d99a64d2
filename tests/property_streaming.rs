//! Property-based end-to-end equivalence: for *randomized* layer
//! geometries — kernel sizes, strides, padding, channel counts, activation
//! widths — the streaming pipeline must match the reference interpreter
//! exactly. This is the widest net we can cast over the kernel state
//! machines (ring indexing, drain/reset paths, threshold fusion).

use qnn::compiler::{run_images, CompileOptions};
use qnn::nn::{models, Network};
use qnn_testkit::{prop_assert_eq, props};

use qnn::nn::specgen::{image_for, spec_strategy};

props! {
    /// Randomized conv/pool/fc chains are bit-exact in the simulator.
    #[test]
    fn random_conv_chains_are_bit_exact(
        spec in spec_strategy(),
        seed in 0u64..1000,
    ) {
        let Some(spec) = spec else {
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
    /// bit-identical to the preloaded `ConvKernel::new` pipeline, across
    /// random layer geometries.
    #[test]
    fn streamed_parameter_loading_matches_preloaded(
        spec in spec_strategy(),
        seed in 0u64..1000,
        n_images in 1usize..3,
    ) {
        let Some(spec) = spec else {
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
