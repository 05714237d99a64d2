//! Multi-DFE partitioning and scale-out behaviour (paper §III-B6, §IV-B4).

mod common;

use common::skip_streams;
use qnn::compiler::{partition, run_images, CompileOptions};
use qnn::dfe::{STRATIX_10_GX2800, STRATIX_V_5SGSD8};
use qnn::hw::estimate_network;
use qnn::nn::specgen::image_for;
use qnn::nn::{models, Network};

#[test]
fn partitioner_output_drives_the_lowerer() {
    // Partition a mid-size network for an artificially small device so the
    // cut is exercised, then run the partitioned design and check
    // correctness end to end.
    let mut tiny_device = STRATIX_V_5SGSD8;
    tiny_device.luts /= 6;
    tiny_device.ffs /= 6;
    let spec = models::vgg_like(32, 10, 2);
    let p = partition(&spec, &tiny_device).expect("partition");
    assert!(p.num_dfes() >= 2, "expected a forced split, got {}", p.num_dfes());

    let net = Network::random(spec, 9);
    let img = qnn::data::CIFAR10.image(3);
    let sim = run_images(
        &net,
        std::slice::from_ref(&img),
        &CompileOptions { stage_device: Some(p.stage_device.clone()), ..CompileOptions::default() },
    )
    .expect("partitioned run");
    assert_eq!(sim.logits[0], net.forward(&img).logits);
    assert_eq!(sim.reports.len(), p.num_dfes());
}

#[test]
fn partition_usage_matches_network_estimate() {
    let spec = models::alexnet(1000);
    let p = partition(&spec, &STRATIX_V_5SGSD8).expect("partition");
    let est = estimate_network(&spec, p.num_dfes());
    assert_eq!(p.total_usage(), est.total, "partitioner and estimator disagree");
}

#[test]
fn every_paper_network_partitions_on_stratix_v() {
    for spec in [
        models::vgg_like(32, 10, 2),
        models::vgg_like(96, 10, 2),
        models::vgg_like(144, 10, 2),
        models::vgg_like(224, 1000, 2),
        models::alexnet(1000),
        models::resnet18(1000),
        models::resnet18_plain(1000),
    ] {
        let p = partition(&spec, &STRATIX_V_5SGSD8)
            .unwrap_or_else(|e| panic!("{} failed to partition: {e}", spec.name));
        assert!(p.num_dfes() <= 8, "{} needs {} DFEs (> MPC-X's 8)", spec.name, p.num_dfes());
    }
}

#[test]
fn stratix10_consolidates_devices() {
    // §IV-B4: next-generation parts fit bigger networks on fewer devices.
    for spec in [models::alexnet(1000), models::resnet18(1000)] {
        let v = partition(&spec, &STRATIX_V_5SGSD8).expect("v");
        let s10 = partition(&spec, &STRATIX_10_GX2800).expect("s10");
        assert!(
            s10.num_dfes() < v.num_dfes(),
            "{}: Stratix 10 should need fewer devices ({} vs {})",
            spec.name,
            s10.num_dfes(),
            v.num_dfes()
        );
        assert_eq!(s10.num_dfes(), 1);
    }
}

#[test]
fn skip_buffer_occupancy_stays_within_provisioned_capacity() {
    // The Fig. 2 skip buffers — `skipbuf`, a downsample block's `ds.out`,
    // an encoder's `skipbuf` and `ffskip` — are provisioned from the one
    // sizing rule; the measured high-water mark of each must stay within
    // it (and be nonzero — the buffer really is needed).
    let cnn = Network::random(models::test_net(16, 4, 2), 13);
    let cnn_img = qnn::data::Dataset { name: "s", side: 16, classes: 4 }.image(0);
    let txf = Network::random(models::tiny_transformer(16, 2, 8, 10, 2, 32), 13);
    let txf_img = image_for(&txf.spec, 0);
    for (net, img) in [(cnn, cnn_img), (txf, txf_img)] {
        let opts = CompileOptions::default();
        let sim = run_images(&net, std::slice::from_ref(&img), &opts).expect("run");
        let skips = skip_streams(&net.spec, opts.fifo_capacity);
        let mut seen = 0;
        for s in &sim.reports[0].streams {
            if skips.iter().any(|(name, _)| *name == s.name) {
                seen += 1;
                assert!(s.max_occupancy > 0, "skip buffer '{}' never used", s.name);
                assert!(
                    s.max_occupancy <= s.capacity,
                    "skip buffer '{}' overflows its provisioning",
                    s.name
                );
            }
        }
        assert_eq!(seen, skips.len(), "{}: skip buffers missing from the lowered design", net.spec.name);
        assert!(seen > 0, "no skip buffers found in {}", net.spec.name);
    }
}
