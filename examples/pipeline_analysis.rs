//! Pipeline analysis: trace a streaming run and report per-kernel
//! utilization and buffer occupancy — the §IV-B2 bottleneck analysis done
//! with data instead of intuition. A traced run steps every cycle, so a
//! second, untraced run of the same images reports how much of the run the
//! simulator fast-forwarded in bursts, and why it stepped the rest. Last, a
//! warm pipeline runs the batch three times: the host time of the first
//! batch against the third, which replays the schedule tape the second
//! recorded. Its first line names the target features the binary was built
//! with, so a run shows whether the codegen floor applied.
//!
//! ```text
//! cargo run --release --example pipeline_analysis
//! ```

use qnn::compiler::{elaborate, try_compile, CompileOptions};
use qnn::data::CIFAR10;
use qnn::nn::{models, Network};

fn main() {
    println!("{}", codegen_line());
    let spec = models::vgg_like(32, 10, 2);
    let net = Network::random(spec, 3);
    let images = CIFAR10.images(2);
    let compiled = try_compile(&net, &images, &CompileOptions::default()).expect("valid options");
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
    let compiled = try_compile(&net, &images, &CompileOptions::default()).expect("valid options");
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
    println!("{}", g.host_profile());

    // A warm pipeline: batch 1 plans live, batch 2 records its schedule
    // tape, batch 3 replays it.
    let mut warm = elaborate(&net, &CompileOptions::default()).expect("valid options");
    let mut host_ms = Vec::new();
    let mut last = None;
    for _ in 0..3 {
        warm.load(&images);
        let t = std::time::Instant::now();
        let sim = warm.run().expect("warm run");
        host_ms.push(t.elapsed().as_secs_f64() * 1e3);
        assert_eq!(sim.reports[0], untraced, "a warm batch must run as a fresh one");
        last = Some(sim);
    }
    let replayed = last.expect("three batches ran");
    assert!(replayed.replayed_whole_batch(), "the third batch must replay its tape");
    println!(
        "\nwarm pipeline: first batch {:.2} ms host, replayed batch {:.2} ms ({:.1}x), \
         {} spans bypassed the planner",
        host_ms[0],
        host_ms[2],
        host_ms[0] / host_ms[2],
        replayed.reports[0].replay.spans_bypassed
    );
}

/// The target features this binary was compiled with, of those the codegen
/// floor (`.cargo/config.toml`) decides: a `RUSTFLAGS=` build lists none on
/// x86-64, so the XNOR-popcount GEMM's `count_ones` runs as a bit-twiddling
/// sequence instead of one `popcnt`.
fn codegen_line() -> String {
    let features = [
        ("sse4.2", cfg!(target_feature = "sse4.2")),
        ("popcnt", cfg!(target_feature = "popcnt")),
        ("avx2", cfg!(target_feature = "avx2")),
        ("bmi2", cfg!(target_feature = "bmi2")),
        ("fma", cfg!(target_feature = "fma")),
        ("avx512f", cfg!(target_feature = "avx512f")),
    ];
    let on: Vec<&str> = features.iter().filter(|(_, on)| *on).map(|(name, _)| *name).collect();
    format!("codegen: {} with [{}]", std::env::consts::ARCH, on.join(" "))
}
