//! AlexNet split across multiple DFEs — the paper's §III-B6 scale-out
//! demonstration, shrunk to STL-sized inputs so the cycle simulation
//! completes quickly. The cut network is one graph whose kernels are tagged
//! by device; each MaxRing hop is an ordinary stream (the cut is
//! "essentially free", §III-B6), and the per-device reports split the one
//! run's report, so the result is bit-identical to a single-device run.
//!
//! ```text
//! cargo run --release --example multi_dfe_alexnet
//! ```

use qnn::compiler::{partition, run_images, CompileOptions};
use qnn::dfe::{MaxRing, STRATIX_V_5SGSD8};
use qnn::hw::estimate_network;
use qnn::nn::{models, Network};

fn main() {
    // Demonstrate the partitioner on the real AlexNet first.
    let alex = models::alexnet(1000);
    let p = partition(&alex, &STRATIX_V_5SGSD8).expect("partition");
    println!("AlexNet (224×224) partitions onto {} Stratix V DFEs:", p.num_dfes());
    for (d, u) in p.per_device.iter().enumerate() {
        println!("  DFE {d}: {:>7} LUT  {:>8} FF  {:>6} Kbit BRAM", u.luts, u.ffs, u.bram_kbits);
    }
    let cut_bw = MaxRing::demand_mbps(&[alex.act_bits], STRATIX_V_5SGSD8.fclk_mhz);
    println!("each MaxRing cut carries {cut_bw:.0} Mbps (link capacity: {} Gbps)\n",
        MaxRing::default().rate_gbps);

    // Now actually execute a scale-out: a VGG-like network forced across
    // three devices, verified against the reference.
    let spec = models::vgg_like(32, 10, 2);
    let n_stages = spec.stages.len();
    let stage_device: Vec<usize> = (0..n_stages).map(|i| (3 * i / n_stages).min(2)).collect();
    let net = Network::random(spec.clone(), 5);
    let images = qnn::data::CIFAR10.images(2);

    println!("running {} cut across 3 devices...", spec.name);
    let sim = run_images(
        &net,
        &images,
        &CompileOptions { stage_device: Some(stage_device), ..CompileOptions::default() },
    )
    .expect("multi-DFE run");
    for (i, img) in images.iter().enumerate() {
        assert_eq!(sim.logits[i], net.forward(img).logits, "image {i}");
        println!("  image {i}: class {} (bit-exact vs reference)", sim.argmax(i));
    }
    for (d, r) in sim.reports.iter().enumerate() {
        let busiest = r.bottleneck().expect("kernels");
        println!(
            "  device {d}: {} kernels, bottleneck {} ({} busy of {} shared cycles)",
            r.kernels.len(),
            busiest.name,
            busiest.busy,
            r.cycles
        );
    }
    let usage = estimate_network(&spec, 3).total;
    println!("\n3-DFE resource estimate: {usage:?}");
    println!("scale-out verified: multi-device result identical to reference.");
}
