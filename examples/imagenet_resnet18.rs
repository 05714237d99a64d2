//! Full-size ResNet-18 at 224×224 (Table I / Table III scenario): compile,
//! partition onto Stratix V DFEs, run one ImageNet-shaped image through
//! the cycle simulator, and compare cycles/resources with the paper.
//!
//! This is the heaviest example (a full cycle-accurate 224×224 run):
//!
//! ```text
//! cargo run --release --example imagenet_resnet18
//! ```
//!
//! It also prints how the run was dispatched — the burst planner's
//! `BurstDiag` and the host-time split of `HostProfile` — and holds the
//! planner to ceilings on its attempts and steps per image. Those are
//! deterministic counts, so `ci.sh bench-smoke` running this example fails
//! on a planner regression without any wall-clock noise.

use qnn::compiler::{partition, try_compile, CompileOptions};
use qnn::data::IMAGENET;
use qnn::dfe::{MAIA_FCLK_MHZ, STRATIX_V_5SGSD8};
use qnn::hw::specs::paper;
use qnn::hw::{estimate_network, CycleModel};
use qnn::nn::{models, Network};

/// Most burst-planning attempts one image may take at default options.
const MAX_ATTEMPTS: u64 = 450;

/// Most planner steps (full evaluations and follower advances) one image
/// may take at default options.
const MAX_STEPS: u64 = 160_000;

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

    println!("\nrunning one 224×224 image through the cycle simulator...");
    let net = Network::random(spec, 18);
    let img = IMAGENET.image(0);
    let mut compiled = try_compile(&net, std::slice::from_ref(&img), &CompileOptions::default())
        .expect("valid options");
    let [graph] = &mut compiled.graphs[..] else { panic!("one graph") };
    let report = graph.run(1 << 40).expect("sim");
    let logits = compiled.sink.take();
    assert_eq!(logits, net.forward(&img).logits, "bit-exactness");
    let ms = report.cycles as f64 / (MAIA_FCLK_MHZ * 1e3);
    println!("simulated: {} cycles = {ms:.1} ms at 105 MHz (paper measured: {} ms)",
        report.cycles, paper::RESNET18_TIME_MS);
    let best = logits.iter().max().expect("logits");
    let class = logits.iter().position(|v| v == best).expect("the maximum is a logit");
    println!("predicted class: {class}");

    let (diag, profile) = (graph.burst_diag(), graph.host_profile());
    println!("\n{} bursts; burst planner:\n{diag}\n{profile}", graph.bursts());
    let steps = diag.evals + diag.follows;
    assert!(profile.attempts <= MAX_ATTEMPTS, "{} planning attempts", profile.attempts);
    assert!(steps <= MAX_STEPS, "{steps} planner steps");
}
