//! Full-size ResNet-18 at 224×224 (Table I / Table III scenario): compile,
//! partition onto Stratix V DFEs, run one ImageNet-shaped image through
//! the cycle simulator, and compare cycles/resources with the paper.
//!
//! This is the heaviest example (a full cycle-accurate 224×224 run):
//!
//! ```text
//! cargo run --release --example imagenet_resnet18
//! ```

use qnn::compiler::{partition, run_image};
use qnn::data::IMAGENET;
use qnn::dfe::{MAIA_FCLK_MHZ, STRATIX_V_5SGSD8};
use qnn::hw::specs::paper;
use qnn::hw::{estimate_network, CycleModel};
use qnn::nn::{models, Network};

fn main() {
    let spec = models::resnet18(1000);
    println!("{}: {} stages, {} skip connections, {:.1} Mbit of binary weights",
        spec.name, spec.stages.len(), spec.num_skip_connections(),
        spec.total_weight_bits() as f64 / 1e6);

    let p = partition(&spec, &STRATIX_V_5SGSD8).expect("partition");
    println!("partitioned onto {} DFEs (paper: 2-3)", p.num_dfes());
    let usage = estimate_network(&spec, p.num_dfes()).total;
    println!("estimated resources: {} LUT / {} FF / {} Kbit BRAM", usage.luts, usage.ffs, usage.bram_kbits);
    println!("paper Table III:     {} LUT / {} FF / {} Kbit BRAM",
        paper::RESNET18_LUT, paper::RESNET18_FF, paper::RESNET18_BRAM_KBITS);

    let model = CycleModel::analyze(&spec);
    println!("\nanalytic latency: {:.3e} cycles (paper estimate: {:.2e})",
        model.latency() as f64, paper::RESNET18_CLOCKS_ESTIMATE);
    println!("bottleneck layer: {} ({} busy cycles)", model.bottleneck().name, model.bottleneck().busy);

    println!("\nrunning one 224×224 image through the cycle simulator (~a minute)...");
    let net = Network::random(spec, 18);
    let img = IMAGENET.image(0);
    let sim = run_image(&net, &img).expect("sim");
    assert_eq!(sim.logits[0], net.forward(&img).logits, "bit-exactness");
    let ms = sim.cycles() as f64 / (MAIA_FCLK_MHZ * 1e3);
    println!("simulated: {} cycles = {ms:.1} ms at 105 MHz (paper measured: {} ms)",
        sim.cycles(), paper::RESNET18_TIME_MS);
    println!("predicted class: {}", sim.argmax(0));
}
