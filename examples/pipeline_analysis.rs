//! Pipeline analysis: trace a streaming run and report per-kernel
//! utilization and buffer occupancy — the §IV-B2 bottleneck analysis done
//! with data instead of intuition. A traced run steps every cycle, so a
//! second, untraced run of the same images reports how much of the run the
//! simulator fast-forwarded in bursts, and why it stepped the rest.
//!
//! ```text
//! cargo run --release --example pipeline_analysis
//! ```

use qnn::compiler::{compile, CompileOptions};
use qnn::data::CIFAR10;
use qnn::nn::{models, Network};

fn main() {
    let spec = models::vgg_like(32, 10, 2);
    let net = Network::random(spec, 3);
    let images = CIFAR10.images(2);
    let compiled = compile(&net, &images, &CompileOptions::default());
    let mut graphs = compiled.graphs;
    assert_eq!(graphs.len(), 1, "single-DFE build expected");

    println!("tracing {} ({} kernels, {} streams)...", net.spec.name,
        graphs[0].num_kernels(), graphs[0].num_streams());
    let (report, trace) = graphs[0].run_traced(100_000_000, 1_000).expect("traced run");
    assert!(compiled.sink.is_complete());

    println!("run: {} cycles for 2 images ({:.3} ms/image at 105 MHz)\n",
        report.cycles, report.time_ms(105.0) / 2.0);

    println!("kernel utilization (busy fraction):");
    let mut rows: Vec<(String, f64, u64)> = report
        .kernels
        .iter()
        .map(|k| {
            let u = trace.mean_utilization(&k.name).unwrap_or(0.0);
            (k.name.clone(), u, k.stalled)
        })
        .collect();
    rows.sort_by(|a, b| b.1.total_cmp(&a.1));
    for (name, util, stalled) in rows.iter().take(12) {
        let bar = "#".repeat((util * 40.0) as usize);
        let pct = util * 100.0;
        println!("  {name:<18} {pct:>6.1}%  |{bar:<40}|  ({stalled} stall cycles)");
    }

    println!("\nbusiest streams (peak occupancy / capacity):");
    let mut occ: Vec<(&str, u32, usize)> = report
        .streams
        .iter()
        .map(|s| (s.name.as_str(), trace.peak_occupancy(&s.name).unwrap_or(0), s.capacity))
        .collect();
    occ.sort_by_key(|(_, peak, _)| std::cmp::Reverse(*peak));
    for (name, peak, cap) in occ.iter().take(8) {
        println!("  {name:<18} {peak:>6} / {cap}");
    }

    let b = report.bottleneck().expect("kernels exist");
    println!("\nbottleneck: {} ({} busy cycles) — compare §IV-B2's analysis.", b.name, b.busy);
    println!("\n(occupancy/utilization CSV available via Trace::occupancy_csv / utilization_csv)");

    // The same images untraced: the simulator's burst dispatch at work.
    let compiled = compile(&net, &images, &CompileOptions::default());
    let mut graphs = compiled.graphs;
    let g = &mut graphs[0];
    let untraced = g.run(100_000_000).expect("untraced run");
    assert_eq!(untraced, report, "tracing must not change the report");
    let coverage = g.burst_cycles() as f64 / untraced.cycles as f64;
    println!(
        "\nuntraced: {} bursts cover {:.1}% of the cycles (mean span {:.1}); burst planner:",
        g.bursts(),
        coverage * 100.0,
        g.burst_cycles() as f64 / g.bursts().max(1) as f64
    );
    println!("{}", g.burst_diag());
}
