//! Regenerates every table and figure of the paper's evaluation section.
//!
//! ```text
//! cargo run --release -p qnn-bench --bin paper-tables            # fast set
//! cargo run --release -p qnn-bench --bin paper-tables -- all --sim
//! cargo run --release -p qnn-bench --bin paper-tables -- fig5 --sim
//! ```
//!
//! Artifacts: `table1 table2 table3 table4 fig5 fig6 fig7 fig8
//! scalability accuracy all`. The `--sim` flag replaces analytic latency
//! numbers with full cycle-accurate simulations where feasible (224×224
//! runs take a minute or two each in release mode).

#![forbid(unsafe_code)]

use qnn::data::{CIFAR10, STL10, STL10_144};
use qnn::dfe::{MAIA_FCLK_MHZ, STRATIX_V_5SGSD8};
use qnn::hw::specs::{paper, FINN_CNV_CIFAR10};
use qnn::hw::{dfe_power_watts, estimate_network, CycleModel};
use qnn::nn::{models, Network, Stage};
use qnn_bench::{comparison_row, place, render_table, simulate_one, sweep_specs};

fn table1() {
    println!("== Table I: ResNet-18 architecture (verified against the builder) ==");
    let spec = models::resnet18(1000);
    let mut rows = Vec::new();
    for (i, stage) in spec.stages.iter().enumerate() {
        let (kind, params): (String, String) = match stage {
            Stage::ConvInput { geom } => (
                "conv1".into(),
                format!("{}×{}, {}, stride {}", geom.filter.k, geom.filter.k, geom.filter.o, geom.stride),
            ),
            Stage::Pool { k, stride, kind, .. } => {
                (format!("pool ({kind:?})"), format!("{k}×{k}, stride {stride}"))
            }
            Stage::Residual { geom } => (
                format!("residual block {i}"),
                format!(
                    "[3×3, {o}; 3×3, {o}]{}",
                    if geom.downsample.is_some() { " + 1×1 downsample" } else { "" },
                    o = geom.conv2.filter.o
                ),
            ),
            Stage::FullyConnected { out_features, .. } => {
                ("fc".into(), format!("{out_features}-d"))
            }
            Stage::Conv { geom } => ("conv".into(), format!("{:?}", geom.filter)),
            Stage::Encoder { geom } => (
                format!("encoder block {i}"),
                format!(
                    "{} heads × {}-d{}",
                    geom.heads,
                    geom.head_dim,
                    if geom.has_ffn() { ", ffn" } else { "" }
                ),
            ),
        };
        rows.push(vec![kind, format!("{}", stage.output_shape()), params]);
    }
    println!("{}", render_table(&["layer", "output size", "parameters"], &rows));
}

fn table2() {
    println!("== Table II: hardware specifications ==");
    let rows = vec![
        vec!["Tesla P100".into(), "Pascal".into(), "3584 cores".into(), "1480 MHz".into()],
        vec!["GTX 1080".into(), "Pascal".into(), "2560 cores".into(), "1733 MHz".into()],
        vec![
            STRATIX_V_5SGSD8.name.into(),
            "Stratix V".into(),
            format!("{} ALMs / {} M20K / {} FFs", STRATIX_V_5SGSD8.luts, STRATIX_V_5SGSD8.bram_blocks, STRATIX_V_5SGSD8.ffs),
            format!("{} MHz fabric", STRATIX_V_5SGSD8.fclk_mhz),
        ],
    ];
    println!("{}", render_table(&["device", "architecture", "compute", "clock"], &rows));
}

fn table3(sim: bool) {
    println!("== Table III: AlexNet vs ResNet-18 on the DFE ==");
    let mut rows = Vec::new();
    for spec in [models::alexnet(1000), models::resnet18(1000)] {
        let p = place(&spec);
        let usage = estimate_network(&spec, p.num_dfes()).total;
        let ms = if sim {
            println!("  [sim] running {} at 224×224 ...", spec.name);
            simulate_one(&spec, &qnn::data::IMAGENET, 42).1
        } else {
            CycleModel::ms(CycleModel::analyze(&spec).latency(), MAIA_FCLK_MHZ)
        };
        rows.push(vec![
            spec.name.clone(),
            usage.luts.to_string(),
            usage.bram_kbits.to_string(),
            usage.ffs.to_string(),
            format!("{ms:.1}"),
            p.num_dfes().to_string(),
        ]);
    }
    rows.push(vec![
        "paper AlexNet".into(),
        paper::ALEXNET_LUT.to_string(),
        paper::ALEXNET_BRAM_KBITS.to_string(),
        paper::ALEXNET_FF.to_string(),
        format!("{:.1}", paper::ALEXNET_TIME_MS),
        "3".into(),
    ]);
    rows.push(vec![
        "paper ResNet-18".into(),
        paper::RESNET18_LUT.to_string(),
        paper::RESNET18_BRAM_KBITS.to_string(),
        paper::RESNET18_FF.to_string(),
        format!("{:.1}", paper::RESNET18_TIME_MS),
        "3".into(),
    ]);
    println!(
        "{}",
        render_table(&["network", "LUT", "BRAM (Kbit)", "FF", "time (ms)", "DFEs"], &rows)
    );
}

fn table4(sim: bool) {
    println!("== Table IV: comparison with FINN (CNV @ 32×32, CIFAR-10) ==");
    // The faithful FINN topology, for the resource columns...
    let cnv = models::cnv_finn(10, 2);
    let cnv_p = place(&cnv);
    let cnv_usage = estimate_network(&cnv, cnv_p.num_dfes()).total;
    let cnv_ms = CycleModel::ms(CycleModel::analyze(&cnv).period(), MAIA_FCLK_MHZ);
    // ...and the size-parametric variant used across the Fig. 5/6 sweeps.
    let spec = models::vgg_like(32, 10, 2);
    let p = place(&spec);
    let usage = estimate_network(&spec, p.num_dfes()).total;
    let ms = if sim {
        simulate_one(&spec, &CIFAR10, 42).1
    } else {
        CycleModel::ms(CycleModel::analyze(&spec).latency(), MAIA_FCLK_MHZ)
    };
    let w = dfe_power_watts(usage, p.num_dfes(), &STRATIX_V_5SGSD8, MAIA_FCLK_MHZ).total();
    let rows = vec![
        vec![
            "FINN (published)".into(),
            format!("{:.4}", FINN_CNV_CIFAR10.time_ms),
            format!("{:.1}", FINN_CNV_CIFAR10.power_w),
            format!("{:.1}%", FINN_CNV_CIFAR10.accuracy * 100.0),
            FINN_CNV_CIFAR10.luts.to_string(),
            FINN_CNV_CIFAR10.bram_kbits.to_string(),
            "-".into(),
        ],
        vec![
            "DFE (this work, CNV)".into(),
            format!("{cnv_ms:.3}"),
            format!(
                "{:.1}",
                dfe_power_watts(cnv_usage, 1, &STRATIX_V_5SGSD8, MAIA_FCLK_MHZ).total()
            ),
            "see `accuracy`".into(),
            cnv_usage.luts.to_string(),
            cnv_usage.bram_kbits.to_string(),
            cnv_usage.ffs.to_string(),
        ],
        vec![
            "DFE (this work, VGG-like)".into(),
            format!("{ms:.3}"),
            format!("{w:.1}"),
            "see `accuracy`".into(),
            usage.luts.to_string(),
            usage.bram_kbits.to_string(),
            usage.ffs.to_string(),
        ],
        vec![
            "DFE (paper)".into(),
            format!("{:.1}", paper::VGG32_TIME_MS),
            format!("{:.1}", paper::VGG32_POWER_W),
            format!("{:.1}%", paper::VGG32_ACCURACY * 100.0),
            paper::VGG32_LUT.to_string(),
            paper::VGG32_BRAM_KBITS.to_string(),
            paper::VGG32_FF.to_string(),
        ],
    ];
    println!(
        "{}",
        render_table(
            &["system", "time (ms)", "power (W)", "accuracy", "LUT", "BRAM (Kbit)", "FF"],
            &rows
        )
    );
}

fn fig5(sim: bool) {
    println!("== Figure 5: runtime, DFE vs GPUs (ms/image) ==");
    let mut rows = Vec::new();
    for (label, spec) in sweep_specs() {
        let mut row = comparison_row(&label, &spec);
        if sim && spec.input.h <= 144 {
            let data = match spec.input.h {
                32 => CIFAR10,
                96 => STL10,
                _ => STL10_144,
            };
            println!("  [sim] {label} ...");
            row.dfe_ms = simulate_one(&spec, &data, 7).1;
        }
        rows.push(vec![
            row.label.clone(),
            format!("{:.3}{}", row.dfe_ms, if sim && spec.input.h <= 144 { " (sim)" } else { "" }),
            format!("{:.3}", row.p100_ms),
            format!("{:.3}", row.gtx_ms),
            row.dfes.to_string(),
        ]);
    }
    println!(
        "{}",
        render_table(&["workload", "DFE (ms)", "P100 (ms)", "GTX1080 (ms)", "DFEs"], &rows)
    );
    // §IV-B1's caveat: GPUs regain ground with minibatches (the DFE
    // processes one image at a time).
    println!("GPU minibatch amortization (P100, ms/image):");
    let mut brows = Vec::new();
    for (label, spec) in sweep_specs() {
        let gpu = qnn::hw::GpuModel::new(qnn::hw::P100);
        brows.push(vec![
            label.clone(),
            format!("{:.3}", gpu.time_ms(&spec)),
            format!("{:.3}", gpu.time_ms_batched(&spec, 128)),
            format!("{:.3}", gpu.time_ms_batched(&spec, 256)),
        ]);
    }
    println!("{}", render_table(&["workload", "batch 1", "batch 128", "batch 256"], &brows));
}

fn fig6() {
    println!("== Figure 6: resource utilization vs input size (Δ from 32×32) ==");
    let base = estimate_network(&models::vgg_like(32, 10, 2), 1).total;
    let mut rows = Vec::new();
    for side in [32usize, 64, 96, 144, 224] {
        let spec = models::vgg_like(side, 10, 2);
        let dfes = place(&spec).num_dfes();
        let u = estimate_network(&spec, 1).total;
        let pct = |a: u64, b: u64| 100.0 * (a as f64 / b as f64 - 1.0);
        rows.push(vec![
            format!("{side}×{side}"),
            format!("{:+.1}%", pct(u.luts, base.luts)),
            format!("{:+.1}%", pct(u.ffs, base.ffs)),
            format!("{:+.1}%", pct(u.bram_kbits, base.bram_kbits)),
            dfes.to_string(),
        ]);
    }
    println!("{}", render_table(&["input", "ΔLUT", "ΔFF", "ΔBRAM", "DFEs"], &rows));
}

fn fig7_fig8() {
    println!("== Figures 7 & 8: power (W) and energy per image (J) ==");
    let mut rows = Vec::new();
    for (label, spec) in sweep_specs() {
        let row = comparison_row(&label, &spec);
        rows.push(vec![
            row.label.clone(),
            format!("{:.1}", row.dfe_w),
            format!("{:.0}", row.p100_w),
            format!("{:.0}", row.gtx_w),
            format!("{:.4}", row.dfe_j()),
            format!("{:.4}", row.p100_j()),
            format!("{:.4}", row.gtx_j()),
            format!("{:.1}×", row.p100_j() / row.dfe_j()),
        ]);
    }
    println!(
        "{}",
        render_table(
            &[
                "workload",
                "DFE W",
                "P100 W",
                "GTX W",
                "DFE J",
                "P100 J",
                "GTX J",
                "energy gain",
            ],
            &rows
        )
    );
}

fn scalability() {
    println!("== §IV-B4 scalability: cycle estimates and Stratix 10 projection ==");
    let resnet = models::resnet18(1000);
    let m = CycleModel::analyze(&resnet);
    println!("ResNet-18 analytic latency: {:.3e} cycles (paper estimate 1.85e6)", m.latency() as f64);
    println!("  bottleneck: {} ({} busy cycles/image)", m.bottleneck().name, m.bottleneck().busy);
    println!("  at 105 MHz (Stratix V): {:.1} ms  (paper measured {} ms)",
        CycleModel::ms(m.latency(), MAIA_FCLK_MHZ), paper::RESNET18_TIME_MS);
    println!("  at 525 MHz (Stratix 10 projection): {:.1} ms  (paper projects 3-4 ms)",
        CycleModel::ms(m.latency(), 5.0 * MAIA_FCLK_MHZ));
    println!();
    println!("fps across the sweep (must exceed 60 for real-time, §V):");
    for (label, spec) in sweep_specs() {
        let ms = CycleModel::ms(CycleModel::analyze(&spec).latency(), MAIA_FCLK_MHZ);
        println!("  {label:<36} {:.0} fps", 1000.0 / ms);
    }
}

fn accuracy(n: usize) {
    println!("== Accuracy substitution: top-1 agreement with an 8-bit teacher ==");
    println!("(the paper's trained-accuracy rows are not reproducible without");
    println!(" ImageNet + training; this measures the activation-quantization");
    println!(" cost on the identical datapath, using the shallow probe network");
    println!(" — untrained deep nets collapse onto one class, an initialization");
    println!(" artifact, not a quantization effect — see DESIGN.md §1)");
    let mut rows = Vec::new();
    let (mut sum2, mut sum1, mut used) = (0.0, 0.0, 0);
    for seed in 1u64..=12 {
        if used == 4 {
            break;
        }
        let teacher = Network::random(models::probe32(10, 8), seed);
        // Random untrained networks occasionally collapse onto one class;
        // such a teacher defines no usable labels, so skip it (a trained
        // teacher never has this problem).
        let hist = qnn::data::per_class_histogram(&teacher, &CIFAR10, n);
        let distinct = hist.iter().filter(|&&c| c > 0).count();
        if distinct < 3 {
            continue;
        }
        used += 1;
        let s2 = Network::random(models::probe32(10, 2), seed);
        let s1 = Network::random(models::probe32(10, 1), seed);
        let a2 = qnn::data::agreement(&teacher, &s2, &CIFAR10, n);
        let a1 = qnn::data::agreement(&teacher, &s1, &CIFAR10, n);
        sum2 += a2;
        sum1 += a1;
        rows.push(vec![
            format!("seed {seed} ({distinct} classes)"),
            format!("{:.1}%", a2 * 100.0),
            format!("{:.1}%", a1 * 100.0),
        ]);
    }
    if used > 0 {
        rows.push(vec![
            "mean".into(),
            format!("{:.1}%", 100.0 * sum2 / used as f64),
            format!("{:.1}%", 100.0 * sum1 / used as f64),
        ]);
    }
    println!(
        "{}",
        render_table(&["weights", "2-bit activations (ours)", "1-bit (FINN-style)"], &rows)
    );
    println!("paper's corresponding orderings: AlexNet 51.03% (2-bit) vs 41.8% (1-bit);");
    println!("CNV 84.2% (DFE, 2-bit) vs 80.1% (FINN, 1-bit).");
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let sim = args.iter().any(|a| a == "--sim");
    let what = args.iter().find(|a| !a.starts_with("--")).cloned().unwrap_or_else(|| "all".into());
    let n_acc = if sim { 40 } else { 16 };
    match what.as_str() {
        "table1" => table1(),
        "table2" => table2(),
        "table3" => table3(sim),
        "table4" => table4(sim),
        "fig5" => fig5(sim),
        "fig6" => fig6(),
        "fig7" | "fig8" | "fig7_fig8" => fig7_fig8(),
        "scalability" => scalability(),
        "accuracy" => accuracy(n_acc),
        "all" => {
            table1();
            table2();
            table3(sim);
            table4(sim);
            fig5(sim);
            fig6();
            fig7_fig8();
            scalability();
            println!();
            accuracy(n_acc);
        }
        other => {
            eprintln!("unknown artifact '{other}'; use table1..table4, fig5..fig8, scalability, accuracy, all");
            std::process::exit(2);
        }
    }
}
