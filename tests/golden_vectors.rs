//! Golden-vector regression tests: exact output logits for two fixed
//! (spec, seed, image) triples, committed as const arrays. A kernel or
//! scheduler refactor that changes streaming semantics in any way shows up
//! here as a concrete logit diff, not just a reference-mismatch boolean.
//!
//! The vectors were produced by this same harness (see `regen` below) and
//! hold for both the reference interpreter and the streaming simulator,
//! stepped by default and on the dense oracle — all must stay
//! bit-identical to each other *and* to history.
//!
//! To regenerate after an intentional semantic change:
//!
//! ```text
//! cargo test --release --test golden_vectors -- --ignored --nocapture
//! ```

mod common;

use common::run_dense;
use qnn::compiler::{run_image, run_images, CompileOptions};
use qnn::data::{Dataset, CIFAR10};
use qnn::nn::{models, Network, NetworkSpec};
use qnn::tensor::Tensor3;

/// CNV (Table IV): full FINN-style 32×32 network, 2-bit activations.
const CNV_SEED: u64 = 2018;
/// test-net-8: stem conv + max pool + two residual blocks + avg-sum pool +
/// FC stack — the ResNet-block datapath on an 8×8 canvas.
const RESNET_BLOCK_SEED: u64 = 1806;

fn cnv_case() -> (Network, Tensor3<i8>) {
    (Network::random(models::cnv_finn(10, 2), CNV_SEED), CIFAR10.image(0))
}

fn resnet_block_case() -> (Network, Tensor3<i8>) {
    let spec: NetworkSpec = models::test_net(8, 6, 2);
    let img = Dataset { name: "golden", side: 8, classes: 6 }.image(0);
    (Network::random(spec, RESNET_BLOCK_SEED), img)
}

const CNV_GOLDEN: [i32; 10] = [10, -110, -16, 16, -100, 36, 48, 44, 24, 14];

const RESNET_BLOCK_GOLDEN: [i32; 6] = [-20, -2, 0, 14, 18, -24];

/// The streaming logits of `(net, img)` equal `golden`, stepped by default
/// and on the dense oracle.
fn assert_streaming_matches(net: &Network, img: &Tensor3<i8>, golden: &[i32]) {
    let images = std::slice::from_ref(img);
    let opts = CompileOptions::default();
    let sim = run_images(net, images, &opts).expect("sim");
    assert_eq!(sim.logits[0], golden, "streaming logits drifted");
    let sim = run_dense(net, images, &opts).expect("dense sim");
    assert_eq!(sim.logits[0], golden, "streaming logits drifted on the dense oracle");
}

#[test]
fn cnv_streaming_logits_match_golden() {
    let (net, img) = cnv_case();
    assert_streaming_matches(&net, &img, &CNV_GOLDEN);
    assert_eq!(net.forward(&img).logits, CNV_GOLDEN, "reference CNV logits drifted");
}

#[test]
fn resnet_block_streaming_logits_match_golden() {
    let (net, img) = resnet_block_case();
    assert_streaming_matches(&net, &img, &RESNET_BLOCK_GOLDEN);
    assert_eq!(net.forward(&img).logits, RESNET_BLOCK_GOLDEN, "reference residual logits drifted");
}

#[test]
#[ignore = "golden regeneration helper; prints the const arrays"]
fn regen() {
    let (net, img) = cnv_case();
    println!("const CNV_GOLDEN: [i32; 10] = {:?};", run_image(&net, &img).expect("sim").logits[0]);
    let (net, img) = resnet_block_case();
    println!(
        "const RESNET_BLOCK_GOLDEN: [i32; 6] = {:?};",
        run_image(&net, &img).expect("sim").logits[0]
    );
}
