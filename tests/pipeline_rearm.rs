//! Differential warm-pipeline battery: batch *k* on a re-armed instance
//! must be **bit-identical** to the same batch on a fresh `try_compile` —
//! logits, every `CycleReport` field, the schedule-replay diagnostics and
//! the burst counters — for any sequence of batch sizes, on every
//! scheduler tier, and for every lowering option that adds control state a
//! re-arm must restore (parameter loaders, stall injectors, device cuts,
//! folded lanes, attention tiles).
//!
//! The argument lives in DESIGN.md §7 ("warm instances"): a run stops at
//! the sink's last element, so end-of-run state is *not* start-of-run
//! state, and every kernel's `rearm` says explicitly what the latter is.
//! These tests are that argument's proof obligation; the last one shows the
//! battery notices a kernel that skips it.
//!
//! Tier-1 at the default case count; `./ci.sh soak` reruns it at 1024.

use qnn::compiler::dse::{pick, ResourceBudget};
use qnn::compiler::{elaborate, try_compile, CompileOptions, CompiledNetwork};
use qnn::dfe::{
    CycleReport, Graph, HostSink, HostSource, Io, Kernel, Progress, ReplayDiag, RunError,
    SchedulerMode, SpanIo, SpanPlan, StreamSpec, WakeHint, STRATIX_10_GX2800,
};
use qnn::kernels::{PoolKernel, PoolOp};
use qnn::nn::specgen::{random_spec, spec_strategy};
use qnn::nn::{models, Network, NetworkSpec, Stage};
use qnn::tensor::{Shape3, Tensor3};
use qnn_testkit::{prop_assert_eq, props, vec};

fn image_for(spec: &NetworkSpec, seed: u64) -> Tensor3<i8> {
    Tensor3::from_fn(spec.input, |y, x, c| {
        ((seed as usize)
            .wrapping_mul(31)
            .wrapping_add(y * 131 + x * 17 + c * 7)
            .wrapping_mul(2654435761)
            >> 16) as i8
    })
}

/// Everything a run lets an observer see.
#[derive(Debug, PartialEq)]
struct Observed {
    logits: Vec<Vec<i32>>,
    reports: Vec<CycleReport>,
    /// Excluded from `CycleReport` equality, so compared on its own.
    replay: Vec<ReplayDiag>,
    /// Per graph (there is one): `(bursts, burst_cycles)`.
    bursts: Vec<(u64, u64)>,
}

fn observe(pipeline: &mut CompiledNetwork) -> Observed {
    let sim = pipeline.run().expect("run");
    Observed {
        replay: sim.reports.iter().map(|r| r.replay).collect(),
        bursts: pipeline.graphs.iter().map(|g| (g.bursts(), g.burst_cycles())).collect(),
        logits: sim.logits,
        reports: sim.reports,
    }
}

fn at_tier(opts: &CompileOptions, scheduler: SchedulerMode) -> CompileOptions {
    CompileOptions { scheduler, ..opts.clone() }
}

/// Run batches of `sizes` images one after another on one warm instance,
/// holding each against a fresh compile of the same batch.
fn warm_matches_fresh(
    net: &Network,
    opts: &CompileOptions,
    sizes: &[usize],
    seed: u64,
) -> Result<(), String> {
    let mut warm = elaborate(net, opts).expect("valid options");
    let mut next_image = seed;
    for (k, &size) in sizes.iter().enumerate() {
        let batch: Vec<_> = (0..size)
            .map(|_| {
                next_image += 1;
                image_for(&net.spec, next_image)
            })
            .collect();
        warm.load(&batch);
        let got = observe(&mut warm);
        let want = observe(&mut try_compile(net, &batch, opts).expect("valid options"));
        if got != want {
            return Err(format!(
                "batch {k} ({size} images, sizes {sizes:?}, {:?}) \
                 differs on the warm instance:\n warm  {got:?}\n fresh {want:?}",
                opts.scheduler
            ));
        }
        let expect: Vec<_> = batch.iter().map(|img| net.forward(img).logits).collect();
        if got.logits != expect {
            return Err(format!("batch {k} disagrees with the reference interpreter"));
        }
    }
    Ok(())
}

/// The fixed-spec cases run a mixed batch sequence on all four tiers.
fn check_all_modes(net: &Network, opts: &CompileOptions) {
    for mode in SchedulerMode::ALL {
        warm_matches_fresh(net, &at_tier(opts, mode), &[2, 1, 5, 1, 3], 7)
            .unwrap_or_else(|e| panic!("{e}"));
    }
}

props! {
    /// Random conv/pool/fc chains, a random sequence of 3–6 batches of 1–5
    /// images, a random scheduler tier, and one of the lowering options
    /// whose kernels carry state between images.
    #[test]
    fn warm_instance_matches_fresh_compile_on_random_specs(
        spec in spec_strategy(),
        seed in 0u64..1000,
        sizes in vec(1usize..6, 3..7),
        mode in 0usize..4,
        variant in 0usize..4,
    ) {
        let Some(spec) = spec else {
            return Ok(());
        };
        let net = Network::random(spec, seed);
        let base = match variant {
            0 => CompileOptions::default(),
            1 => CompileOptions { stream_parameters: true, ..CompileOptions::default() },
            2 => CompileOptions {
                stall_injection: Some((seed, 30)),
                ..CompileOptions::default()
            },
            _ => CompileOptions { fifo_capacity: 8, ..CompileOptions::default() },
        };
        let outcome =
            warm_matches_fresh(&net, &at_tier(&base, SchedulerMode::ALL[mode]), &sizes, seed);
        prop_assert_eq!(outcome, Ok(()));
    }
}

#[test]
fn residual_blocks_rearm() {
    let net = Network::random(models::test_net(8, 4, 2), 42);
    check_all_modes(&net, &CompileOptions::default());
}

#[test]
fn attention_tiles_rearm() {
    let net = Network::random(models::tiny_transformer(6, 2, 4, 5, 2, 8), 3);
    check_all_modes(&net, &CompileOptions::default());
}

#[test]
fn folded_design_point_rearms() {
    let net = Network::random(models::test_net(8, 4, 2), 11);
    let point = pick(&net.spec, &ResourceBudget::new(STRATIX_10_GX2800, 2)).expect("fits");
    assert!(!point.folding.entries().is_empty(), "the picked point folds nothing");
    check_all_modes(&net, &point.compile_options());
}

#[test]
fn two_device_split_rearms() {
    let spec = models::test_net(8, 4, 2);
    let cut = spec.stages.len() / 2;
    let stage_device = (0..spec.stages.len()).map(|i| usize::from(i >= cut)).collect();
    let net = Network::random(spec, 22);
    let opts = CompileOptions { stage_device: Some(stage_device), ..CompileOptions::default() };
    let batch = [image_for(&net.spec, 0)];
    let sim = try_compile(&net, &batch, &opts).expect("valid").run().expect("run");
    assert_eq!(sim.reports.len(), 2, "expected a two-device split");
    check_all_modes(&net, &opts);
}

/// A split whose second device opens with a strided layer leaves trailing
/// elements in the stream crossing the cut when the sink completes;
/// `Graph::rearm` must clear them before the next batch.
#[test]
fn crossing_stream_left_holding_trailing_elements_rearms() {
    let spec = random_spec(9, 1, 1, 0, 2, 1, 0, 2, 2).expect("valid geometry");
    // conv0 | conv1, pool, fc: the 9×9 map crosses the cut whole, then a
    // 2/2 pool leaves row and column 8 unread.
    let net = Network::random(spec, 5);
    let opts = CompileOptions {
        stage_device: Some(vec![0, 0, 1, 1]),
        ..CompileOptions::default()
    };
    check_all_modes(&net, &opts);
}

#[test]
fn streamed_parameters_are_streamed_again() {
    let net = Network::random(models::test_net(8, 4, 2), 33);
    check_all_modes(&net, &CompileOptions { stream_parameters: true, ..CompileOptions::default() });
}

#[test]
fn stall_injectors_restart_their_pattern() {
    let net = Network::random(models::test_net(8, 4, 2), 34);
    let opts = CompileOptions { stall_injection: Some((0xBEEF, 25)), ..CompileOptions::default() };
    check_all_modes(&net, &opts);
}

/// The leftover-input case: a 2/2 pool over a 7×7 map reads rows and
/// columns 0–5 only, so the run ends — at the sink's last logit — with the
/// pool still owed row 6 of its last image. Inferring "image done" from
/// the kernel's own counters would never reset it.
#[test]
fn strided_pool_owed_an_unread_row_rearms() {
    let spec = random_spec(7, 1, 1, 0, 2, 1, 0, 2, 2).expect("valid geometry");
    let Stage::Pool { input, k, stride, .. } = spec.stages[2] else {
        panic!("stage 2 is the pool");
    };
    assert_ne!((input.h - k) % stride, 0, "the pool reads its whole input");
    let net = Network::random(spec, 9);
    check_all_modes(&net, &CompileOptions::default());
}

/// A run that fails leaves the instance mid-batch: it refuses to be loaded
/// again, and its replacement behaves like any fresh instance.
#[test]
fn failed_run_retires_the_instance() {
    let net = Network::random(models::test_net(8, 4, 2), 17);
    let opts = CompileOptions::default();
    let batch: Vec<_> = (0..3).map(|s| image_for(&net.spec, s)).collect();
    let mut pipeline = try_compile(&net, &batch, &opts).expect("valid options");
    match pipeline.run_within(50) {
        Err(RunError::Timeout { max_cycles: 50 }) => {}
        other => panic!("expected a timeout, got {other:?}"),
    }
    let reload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| pipeline.load(&batch)));
    assert!(reload.is_err(), "a pipeline whose run failed was loaded again");
    warm_matches_fresh(&net, &opts, &[3, 2, 3], 0).unwrap_or_else(|e| panic!("{e}"));
}

/// A kernel that delegates everything but `rearm`.
struct SkipsRearm(Box<dyn Kernel>);

impl Kernel for SkipsRearm {
    fn name(&self) -> &str {
        self.0.name()
    }
    fn tick(&mut self, io: &mut Io<'_>) -> Progress {
        self.0.tick(io)
    }
    fn rearm(&mut self) {}
    fn is_done(&self) -> bool {
        self.0.is_done()
    }
    fn lanes(&self) -> (u16, u16) {
        self.0.lanes()
    }
    fn wake_hint(&self) -> WakeHint {
        self.0.wake_hint()
    }
    fn span_hint(&self, in_len: &[usize], out_room: &[usize]) -> Option<SpanPlan> {
        self.0.span_hint(in_len, out_room)
    }
    fn replay_token(&self) -> Option<u64> {
        self.0.replay_token()
    }
    fn run_span(&mut self, io: &mut SpanIo<'_>, n: u64) {
        self.0.run_span(io, n)
    }
}

/// Mutation check: the comparison this battery makes must fail when one
/// kernel's `rearm` is skipped. Source → 2/2 max pool over 5×5 (row and
/// column 4 unread) → sink, two images on a warm graph against the second
/// image on a fresh one.
#[test]
fn battery_catches_a_kernel_that_skips_its_rearm() {
    let shape = Shape3::new(5, 5, 1);
    let image = |seed: i32| -> Vec<i32> { (0..25).map(|i| (i * 7 + seed) % 13).collect() };
    let build = |skip: bool| {
        let mut g = Graph::new();
        let a = g.add_stream(StreamSpec::new("in", 8, 64));
        let b = g.add_stream(StreamSpec::new("out", 8, 64));
        let (src, feed) = HostSource::new("src", Vec::new()).refillable();
        g.add_kernel(Box::new(src), &[], &[a]);
        let pool: Box<dyn Kernel> = Box::new(PoolKernel::new("pool", shape, 2, 2, PoolOp::Max));
        g.add_kernel(if skip { Box::new(SkipsRearm(pool)) } else { pool }, &[a], &[b]);
        let (sink, out) = HostSink::new("dst", 4);
        g.add_kernel(Box::new(sink), &[b], &[]);
        (g, feed, out)
    };
    let run = |skip: bool, images: &[i32]| {
        let (mut g, feed, out) = build(skip);
        let mut last = None;
        for &seed in images {
            feed.refill(image(seed));
            g.rearm();
            let report = g.run(10_000).map_err(|e| e.to_string());
            last = Some((out.take(), report));
        }
        last.expect("at least one image")
    };
    let fresh = run(false, &[2]);
    assert_eq!(run(false, &[1, 2]), fresh, "an intact pool re-arms");
    assert_ne!(run(true, &[1, 2]), fresh, "a pool that skipped its rearm went unnoticed");
}
