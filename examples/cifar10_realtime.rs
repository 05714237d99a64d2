//! CIFAR-10 real-time classification on one DFE — the Table IV scenario.
//!
//! Runs the VGG-like (CNV) network at 32×32 through the cycle simulator,
//! reports per-image latency/fps/power/energy, and compares against the
//! FINN reference column and the GPU baseline models.
//!
//! ```text
//! cargo run --release --example cifar10_realtime
//! ```

use qnn::compiler::{partition, run_images, CompileOptions};
use qnn::data::CIFAR10;
use qnn::dfe::{MAIA_FCLK_MHZ, STRATIX_V_5SGSD8};
use qnn::hw::specs::FINN_CNV_CIFAR10;
use qnn::hw::{dfe_power_watts, energy_joules, estimate_network, gpu_power_watts, GpuModel, P100};
use qnn::nn::{models, Network};

fn main() {
    let spec = models::vgg_like(32, 10, 2);
    let p = partition(&spec, &STRATIX_V_5SGSD8).expect("partition");
    println!("{} fits on {} DFE(s)", spec.name, p.num_dfes());

    let net = Network::random(spec.clone(), 7);
    let n = 4;
    let images = CIFAR10.images(n);
    println!("streaming {n} CIFAR-10-shaped images through the DFE...");
    let sim = run_images(&net, &images, &CompileOptions::default()).expect("sim");
    for i in 0..n {
        println!("  image {i}: class {}", sim.argmax(i));
    }

    let per_image_cycles = sim.cycles() as f64 / n as f64;
    let ms = per_image_cycles / (MAIA_FCLK_MHZ * 1e3);
    let fps = 1000.0 / ms;
    let usage = estimate_network(&spec, p.num_dfes()).total;
    let power = dfe_power_watts(usage, p.num_dfes(), &STRATIX_V_5SGSD8, MAIA_FCLK_MHZ).total();
    let energy = energy_joules(power, ms);

    println!("\nDFE:  {ms:.3} ms/image  ({fps:.0} fps)  {power:.1} W  {energy:.4} J/image");
    println!(
        "FINN: {:.4} ms/image            {:.1} W  {:.5} J/image   (published, Table IV)",
        FINN_CNV_CIFAR10.time_ms,
        FINN_CNV_CIFAR10.power_w,
        energy_joules(FINN_CNV_CIFAR10.power_w, FINN_CNV_CIFAR10.time_ms)
    );
    let gpu = GpuModel::new(P100);
    let gpu_ms = gpu.time_ms(&spec);
    let gpu_w = gpu_power_watts(&P100);
    println!(
        "P100: {gpu_ms:.3} ms/image            {gpu_w:.0} W   {:.4} J/image   (baseline model)",
        energy_joules(gpu_w, gpu_ms)
    );
    assert!(fps > 60.0, "real-time requirement (§V) not met");
    println!("\nreal-time requirement met: {fps:.0} fps > 60 fps");
}
