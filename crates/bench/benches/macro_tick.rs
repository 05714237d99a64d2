//! Macro-tick micro-benchmark: per-element ready-list stepping vs span
//! dispatch on full-network simulations.
//!
//! Both settings are bit-identical in outputs and `CycleReport`s
//! (asserted here per workload, and property-tested in
//! `tests/macro_tick_equivalence.rs`), so the *entire* difference is
//! dispatch overhead: per-element stepping pays a virtual-dispatch round
//! trip (wake, tick, staged commit) per kernel per cycle, while a burst
//! fast-forwards the whole feasible span — min of input occupancy and
//! output headroom across every awake kernel — in one `run_span` call
//! per kernel and credits the cycles arithmetically. Steady-state
//! pipelines with long uniform stretches (exactly the regime a streaming
//! conv net lives in) amortize best.
//!
//! Run via `cargo bench --bench macro_tick` (tier-1 only builds it). The
//! ≥1.5× assertion below backs the PR 6 acceptance criterion: ResNet-18
//! at 224² end-to-end against the PR 4 ready-list per-element baseline.
//! The last row is the same network at the `dse::pick` design point, whose
//! folded front layers promise spans at their lane rates (≥1.2× asserted:
//! spans are shorter there — a folded position is a quarter as many ticks
//! — and the per-element side already runs 2.29× fewer cycles).

use qnn::compiler::dse::{pick, ResourceBudget};
use qnn::compiler::{run_images, CompileOptions, SimResult};
use qnn::data::Dataset;
use qnn::dfe::{SchedulerMode, STRATIX_10_GX2800};
use qnn::nn::{models, Network, NetworkSpec};
use qnn_bench::render_table;
use qnn_testkit::{black_box, Bench};
use std::time::Instant;

fn run_mode(
    net: &Network,
    images: &[qnn::tensor::Tensor3<i8>],
    base: &CompileOptions,
    macro_ticks: bool,
) -> SimResult {
    let opts = CompileOptions {
        scheduler: SchedulerMode::ReadyList,
        macro_ticks,
        // Keep the A/B about span dispatch alone: steady-state replay is
        // benchmarked separately (`schedule_replay` bench).
        schedule_replay: false,
        ..base.clone()
    };
    run_images(net, images, &opts).expect("sim")
}

/// Iterations per dispatch mode (after one untimed warmup pair).
const ITERS: usize = 5;

/// Time one workload under both dispatch modes; returns (element ms,
/// span ms, speedup) after asserting bit-identity of logits and reports.
///
/// Interleaved element/span pairs with per-side medians, for the same
/// reason as `scheduler_overhead`: ambient machine drift hits both sides
/// equally, and the median absorbs a noisy pair.
fn measure(
    label: &str,
    spec: NetworkSpec,
    base: &CompileOptions,
    classes: usize,
    n_images: usize,
) -> (f64, f64, f64) {
    let side = spec.input.h;
    let data = Dataset {
        name: "bench",
        side,
        classes,
    };
    let net = Network::random(spec, 3);
    let images = data.images(n_images);

    let element = run_mode(&net, &images, base, false);
    let span = run_mode(&net, &images, base, true);
    assert_eq!(
        element.logits, span.logits,
        "{label}: outputs must be bit-identical"
    );
    assert_eq!(
        element.reports, span.reports,
        "{label}: reports must be bit-identical"
    );
    if Bench::quick_mode() {
        return (0.0, 0.0, 1.0);
    }

    let mut t_element = Vec::with_capacity(ITERS);
    let mut t_span = Vec::with_capacity(ITERS);
    for _ in 0..ITERS {
        let t = Instant::now();
        black_box(run_mode(&net, &images, base, false));
        t_element.push(t.elapsed());
        let t = Instant::now();
        black_box(run_mode(&net, &images, base, true));
        t_span.push(t.elapsed());
    }
    t_element.sort();
    t_span.sort();
    let e = t_element[ITERS / 2].as_secs_f64() * 1e3;
    let s = t_span[ITERS / 2].as_secs_f64() * 1e3;
    (e, s, e / s)
}

fn main() {
    // Small nets burst too — but short pipes hit stream-capacity caps
    // sooner, so spans are shorter and the win smaller. ImageNet scale is
    // the target: conv1 alone emits 112×112×64 elements through a
    // 67-kernel pipeline, in stretches uniform enough for thousand-cycle
    // bursts.
    let default = CompileOptions::default();
    let picked = pick(
        &models::resnet18(1000),
        &ResourceBudget::new(STRATIX_10_GX2800, 2),
    )
    .expect("ResNet-18 fits two Stratix 10 devices")
    .compile_options();
    let workloads = [
        ("test_net/16 residual", models::test_net(16, 4, 2), &default, 10, 2),
        ("vgg_like/32", models::vgg_like(32, 10, 2), &default, 10, 2),
        ("vgg_like_deep/32", models::vgg_like_deep(32, 10, 2), &default, 10, 1),
        ("resnet18/224", models::resnet18(1000), &default, 1000, 1),
        ("resnet18/224 dse::pick", models::resnet18(1000), &picked, 1000, 1),
    ];
    let mut rows = Vec::new();
    let (mut imagenet_speedup, mut picked_speedup) = (0.0, 0.0);
    for (label, spec, base, classes, n) in workloads {
        let (e, s, x) = measure(label, spec, base, classes, n);
        match label {
            "resnet18/224" => imagenet_speedup = x,
            "resnet18/224 dse::pick" => picked_speedup = x,
            _ => {}
        }
        rows.push(vec![
            label.to_string(),
            format!("{e:.1}"),
            format!("{s:.1}"),
            format!("{x:.2}x"),
        ]);
    }
    println!(
        "\n== Macro-tick dispatch (wall-clock per batch, bit-identical results) ==\n{}",
        render_table(&["workload", "element ms", "span ms", "speedup"], &rows)
    );
    if Bench::quick_mode() {
        println!("(quick mode: workloads executed once, speedup assertion skipped)");
        return;
    }
    assert!(
        imagenet_speedup >= 1.5,
        "macro-tick dispatch should be >=1.5x on an ImageNet-scale full-network sim, \
         got {imagenet_speedup:.2}x"
    );
    assert!(
        picked_speedup >= 1.2,
        "macro-tick dispatch should be >=1.2x at the dse::pick ResNet-18 point \
         (folded kernels must join bursts), got {picked_speedup:.2}x"
    );
}
