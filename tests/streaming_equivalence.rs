//! The central correctness property of the reproduction: the streaming DFE
//! pipeline computes exactly what the reference interpreter computes, for
//! every layer type, bit width, and execution strategy.

use qnn::compiler::{run_image, run_images, CompileOptions};
use qnn::data::Dataset;
use qnn::nn::{models, Network};
use qnn::tensor::{Shape3, Tensor3};
use qnn_testkit::Rng;

fn image(side: usize, seed: u64) -> Tensor3<i8> {
    let mut rng = Rng::seed_from_u64(seed);
    Tensor3::from_fn(Shape3::square(side, 3), |_, _, _| rng.gen_range(-127i8..=127))
}

#[test]
fn test_net_is_bit_exact_across_seeds() {
    for seed in 0..6u64 {
        let net = Network::random(models::test_net(8, 4, 2), seed);
        let img = image(8, seed + 100);
        let sim = run_image(&net, &img).expect("sim");
        assert_eq!(sim.logits[0], net.forward(&img).logits, "seed {seed}");
    }
}

#[test]
fn vgg_like_32_is_bit_exact() {
    let net = Network::random(models::vgg_like(32, 10, 2), 77);
    let img = Dataset { name: "t", side: 32, classes: 10 }.image(0);
    let sim = run_image(&net, &img).expect("sim");
    assert_eq!(sim.logits[0], net.forward(&img).logits);
}

#[test]
fn binary_activations_are_bit_exact() {
    let net = Network::random(models::vgg_like(32, 10, 1), 78);
    let img = image(32, 5);
    let sim = run_image(&net, &img).expect("sim");
    assert_eq!(sim.logits[0], net.forward(&img).logits);
}

#[test]
fn consecutive_images_stay_aligned() {
    // Multi-image streaming exercises every kernel's reset path.
    let net = Network::random(models::test_net(12, 5, 2), 3);
    let imgs: Vec<_> = (0..4).map(|s| image(12, s)).collect();
    let sim = run_images(&net, &imgs, &CompileOptions::default()).expect("sim");
    for (i, img) in imgs.iter().enumerate() {
        assert_eq!(sim.logits[i], net.forward(img).logits, "image {i}");
    }
}

#[test]
fn multi_device_execution_matches_single_device() {
    // Force a two-device split at an arbitrary stage boundary: results
    // must be identical to the single-DFE run.
    let spec = models::test_net(8, 4, 2);
    let cut = spec.stages.len() / 2;
    let stage_device: Vec<usize> =
        (0..spec.stages.len()).map(|i| usize::from(i >= cut)).collect();
    let net = Network::random(spec, 21);
    let img = image(8, 9);

    let single = run_image(&net, &img).expect("single-DFE");
    let multi = run_images(
        &net,
        std::slice::from_ref(&img),
        &CompileOptions { stage_device: Some(stage_device), ..CompileOptions::default() },
    )
    .expect("multi-DFE");
    assert_eq!(single.logits, multi.logits);
    assert_eq!(multi.reports.len(), 2);
}

#[test]
fn three_device_vgg_matches_reference() {
    let spec = models::vgg_like(32, 10, 2);
    let n = spec.stages.len();
    let stage_device: Vec<usize> = (0..n).map(|i| (3 * i / n).min(2)).collect();
    let net = Network::random(spec, 31);
    let img = image(32, 8);
    let multi = run_images(
        &net,
        std::slice::from_ref(&img),
        &CompileOptions { stage_device: Some(stage_device), ..CompileOptions::default() },
    )
    .expect("multi-DFE");
    assert_eq!(multi.logits[0], net.forward(&img).logits);
    assert_eq!(multi.reports.len(), 3);
}

#[test]
fn smaller_fifos_change_timing_not_results() {
    let net = Network::random(models::test_net(8, 4, 2), 55);
    let img = image(8, 2);
    let tight = run_images(
        &net,
        std::slice::from_ref(&img),
        &CompileOptions { fifo_capacity: 8, ..CompileOptions::default() },
    )
    .expect("tight-FIFO run");
    let roomy = run_images(
        &net,
        std::slice::from_ref(&img),
        &CompileOptions { fifo_capacity: 4096, ..CompileOptions::default() },
    )
    .expect("roomy-FIFO run");
    assert_eq!(tight.logits, roomy.logits);
    // Tighter FIFOs can only slow the pipeline down.
    assert!(tight.cycles() >= roomy.cycles());
}
