//! Differential warm-pipeline battery: batch *k* on a re-armed instance
//! must be **bit-identical** to the same batch on a fresh `try_compile` —
//! logits and every `CycleReport` field — for any sequence of batch sizes,
//! stepped by default and on the dense oracle, and for every lowering
//! option that adds control state a re-arm must restore (parameter
//! loaders, device cuts, folded lanes, attention tiles, residual skips) and
//! for stall injectors laced in after elaboration. A batch that plans live
//! must also match the fresh run's dispatch diagnostics (the replay
//! diagnostics and burst counters); one that records or replays a
//! whole-batch schedule tape dispatches differently by design, and the
//! battery checks that the tapes engage where they should.
//!
//! The argument lives in DESIGN.md §7 ("warm instances"): a run stops at
//! the sink's last element, so end-of-run state is *not* start-of-run
//! state, and every kernel's `rearm` says explicitly what the latter is.
//! These tests are that argument's proof obligation; the last ones show the
//! battery notices a kernel that skips it and a tape that stops matching
//! the graph it replays on.
//!
//! Tier-1 at the default case count; `./ci.sh soak` reruns it at 1024.

use qnn::compiler::dse::{pick, ResourceBudget};
mod common;

use common::{dense, elaborate_stalled};
use qnn::compiler::{elaborate, try_compile, CompileOptions, CompiledNetwork};
use qnn::dfe::{
    CycleReport, Graph, HostSink, HostSource, Io, Kernel, Progress, ReplayDiag, RunError, SpanIo,
    SpanPlan, StreamSpec, WakeHint, WholeBatch, STRATIX_10_GX2800,
};
use qnn::kernels::{PoolKernel, PoolOp};
use qnn::nn::specgen::{image_for, random_spec, residual_spec_strategy, spec_strategy};
use qnn::nn::{models, Network, Stage};
use qnn::tensor::Shape3;
use qnn_testkit::{prop_assert_eq, props, vec};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

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

/// `net` elaborated at `opts`, laced with `stalls` (see
/// [`elaborate_stalled`]) and, with `on_oracle`, with the dense oracle.
fn build(
    net: &Network,
    opts: &CompileOptions,
    stalls: Option<(u64, u8)>,
    on_oracle: bool,
) -> CompiledNetwork {
    let mut pipeline = elaborate_stalled(net, opts, stalls);
    if on_oracle {
        dense(&mut pipeline);
    }
    pipeline
}

/// What batch `k` of `sizes` does with a whole-batch tape on a warm
/// instance whose runs can use one: the first batch plans live, the first
/// re-armed batch of each size records, and later ones of that size replay.
fn expected_tape(sizes: &[usize], k: usize) -> WholeBatch {
    match k {
        0 => WholeBatch::Off,
        _ if sizes[1..k].contains(&sizes[k]) => WholeBatch::Replayed,
        _ => WholeBatch::Recorded,
    }
}

/// Run batches of `sizes` images one after another on one warm instance,
/// holding each against a fresh compile of the same batch, both laced with
/// the same `stalls` (see [`elaborate_stalled`]) and, with `on_oracle`,
/// both on the dense oracle.
fn warm_matches_fresh(
    net: &Network,
    opts: &CompileOptions,
    stalls: Option<(u64, u8)>,
    on_oracle: bool,
    sizes: &[usize],
    seed: u64,
) -> Result<(), String> {
    // Whole-batch tapes need a replay token on every kernel, which stall
    // injectors and the dense oracle do not have.
    let taped = !on_oracle && stalls.is_none();
    let mut warm = build(net, opts, stalls, on_oracle);
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
        let mut fresh = build(net, opts, stalls, on_oracle);
        fresh.load(&batch);
        let want = observe(&mut fresh);
        let tape = got.replay.iter().map(|r| r.whole_batch).find(|&t| t != WholeBatch::Off);
        let tape = tape.unwrap_or_default();
        let expect = if taped { expected_tape(sizes, k) } else { WholeBatch::Off };
        // Only a batch planned live dispatches as the fresh run does.
        let same = if tape == WholeBatch::Off {
            got == want
        } else {
            (&got.logits, &got.reports) == (&want.logits, &want.reports)
        };
        if !same || tape != expect {
            return Err(format!(
                "batch {k} ({size} images, sizes {sizes:?}, dense oracle {on_oracle}, \
                 tape {tape:?}, expected {expect:?}) differs on the warm instance:\n \
                 warm  {got:?}\n fresh {want:?}"
            ));
        }
        let expect: Vec<_> = batch.iter().map(|img| net.forward(img).logits).collect();
        if got.logits != expect {
            return Err(format!("batch {k} disagrees with the reference interpreter"));
        }
    }
    Ok(())
}

/// The fixed-spec cases run a mixed batch sequence on the dense oracle and
/// stepped by default.
fn check_all_modes(net: &Network, opts: &CompileOptions, stalls: Option<(u64, u8)>) {
    for on_oracle in [true, false] {
        warm_matches_fresh(net, opts, stalls, on_oracle, &[2, 1, 5, 1, 3], 7)
            .unwrap_or_else(|e| panic!("{e}"));
    }
}

props! {
    /// Random conv/pool/fc chains, a random sequence of 3–6 batches of 1–5
    /// images, on the dense oracle (`mode` 0) or not, and one of the
    /// lowering options whose
    /// kernels carry state between images, or stall injectors.
    #[test]
    fn warm_instance_matches_fresh_compile_on_random_specs(
        spec in spec_strategy(),
        seed in 0u64..1000,
        sizes in vec(1usize..6, 3..7),
        mode in 0usize..2,
        variant in 0usize..4,
    ) {
        let Some(spec) = spec else {
            return Ok(());
        };
        let net = Network::random(spec, seed);
        let base = match variant {
            1 => CompileOptions { stream_parameters: true, ..CompileOptions::default() },
            3 => CompileOptions { fifo_capacity: 8, ..CompileOptions::default() },
            _ => CompileOptions::default(),
        };
        let stalls = (variant == 2).then_some((seed, 30));
        let outcome = warm_matches_fresh(&net, &base, stalls, mode == 0, &sizes, seed);
        prop_assert_eq!(outcome, Ok(()));
    }

    /// Random residual networks — identity blocks carrying their skip into
    /// the next block, downsampling blocks — on the dense oracle (`mode` 0)
    /// or not, re-armed
    /// for a random batch sequence that repeats sizes, so tapes record and
    /// replay.
    #[test]
    fn warm_residual_instance_matches_fresh_compile(
        spec in residual_spec_strategy(),
        seed in 0u64..1000,
        sizes in vec(1usize..3, 3..6),
        mode in 0usize..2,
    ) {
        let net = Network::random(spec, seed);
        let opts = CompileOptions::default();
        let outcome = warm_matches_fresh(&net, &opts, None, mode == 0, &sizes, seed);
        prop_assert_eq!(outcome, Ok(()));
    }
}

#[test]
fn residual_blocks_rearm() {
    let net = Network::random(models::test_net(8, 4, 2), 42);
    check_all_modes(&net, &CompileOptions::default(), None);
}

#[test]
fn attention_tiles_rearm() {
    let net = Network::random(models::tiny_transformer(6, 2, 4, 5, 2, 8), 3);
    check_all_modes(&net, &CompileOptions::default(), None);
}

#[test]
fn folded_design_point_rearms() {
    let net = Network::random(models::test_net(8, 4, 2), 11);
    let point = pick(&net.spec, &ResourceBudget::new(STRATIX_10_GX2800, 2)).expect("fits");
    assert!(!point.folding.entries().is_empty(), "the picked point folds nothing");
    check_all_modes(&net, &point.compile_options(), None);
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
    check_all_modes(&net, &opts, None);
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
    check_all_modes(&net, &opts, None);
}

#[test]
fn streamed_parameters_are_streamed_again() {
    let net = Network::random(models::test_net(8, 4, 2), 33);
    let opts = CompileOptions { stream_parameters: true, ..CompileOptions::default() };
    check_all_modes(&net, &opts, None);
}

#[test]
fn stall_injectors_restart_their_pattern() {
    let net = Network::random(models::test_net(8, 4, 2), 34);
    check_all_modes(&net, &CompileOptions::default(), Some((0xBEEF, 25)));
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
    check_all_modes(&net, &CompileOptions::default(), None);
}

/// Whole-batch tapes: the third same-size batch replays nearly all of its
/// cycles from the tape the second one recorded, on a residual network and
/// on a transformer.
#[test]
fn third_same_size_batch_replays_its_schedule() {
    let nets = [
        Network::random(models::test_net(8, 4, 2), 5),
        Network::random(models::tiny_transformer(6, 2, 4, 5, 2, 8), 6),
    ];
    for net in &nets {
        let mut warm = elaborate(net, &CompileOptions::default()).expect("valid options");
        let batch: Vec<_> = (0..2).map(|s| image_for(&net.spec, s)).collect();
        let fresh = try_compile(net, &batch, &CompileOptions::default())
            .expect("valid options")
            .run()
            .expect("run");
        for want in [WholeBatch::Off, WholeBatch::Recorded, WholeBatch::Replayed] {
            warm.load(&batch);
            let sim = warm.run().expect("run");
            assert_eq!((&sim.logits, &sim.reports), (&fresh.logits, &fresh.reports));
            assert_eq!(sim.reports[0].replay.whole_batch, want, "{}", net.spec.name);
        }
        let replayed = warm.graphs[0].burst_cycles() as f64 / fresh.cycles() as f64;
        assert!(replayed >= 0.95, "{}: replayed {replayed:.3} of the cycles", net.spec.name);
    }
}

/// A kernel that delegates everything, but — while `awake` is set — asks
/// to be ticked every cycle instead of parking. Its port traffic and
/// counters are the same either way; only the scheduler's awake set
/// differs.
struct Insomniac {
    inner: Box<dyn Kernel>,
    awake: Arc<AtomicBool>,
}

impl Kernel for Insomniac {
    fn name(&self) -> &str {
        self.inner.name()
    }
    fn tick(&mut self, io: &mut Io<'_>) -> Progress {
        self.inner.tick(io)
    }
    fn rearm(&mut self) {
        self.inner.rearm()
    }
    fn is_done(&self) -> bool {
        self.inner.is_done()
    }
    fn wake_hint(&self) -> WakeHint {
        if self.awake.load(Ordering::Relaxed) {
            WakeHint::AlwaysTick
        } else {
            self.inner.wake_hint()
        }
    }
    fn span_hint(&self, in_len: &[usize], out_room: &[usize]) -> Option<SpanPlan> {
        self.inner.span_hint(in_len, out_room)
    }
    fn run_span(&mut self, io: &mut SpanIo<'_>, n: u64) {
        self.inner.run_span(io, n)
    }
    fn replay_token(&self) -> Option<u64> {
        self.inner.replay_token()
    }
}

/// A tape replayed on a graph whose scheduler state has drifted from the
/// one it was recorded on misses its awake-mask guard, falls back to live
/// planning with identical results, and is recorded afresh on the next run.
/// Source → 2/2 max pool → sink; on the drifting run the source stays
/// awake once it runs dry instead of parking, so the spans after that
/// start from another awake set.
#[test]
fn tape_guard_miss_falls_back_and_rerecords() {
    let shape = Shape3::new(16, 16, 2);
    let image = |seed: i32| -> Vec<i32> { (0..512).map(|i| (i * 5 + seed) % 11).collect() };
    let build = |awake: bool| {
        let mut g = Graph::new();
        let a = g.add_stream(StreamSpec::new("in", 8, 64));
        let b = g.add_stream(StreamSpec::new("out", 8, 64));
        let (src, feed) = HostSource::new("src", Vec::new()).refillable();
        let flag = Arc::new(AtomicBool::new(awake));
        let src = Insomniac { inner: Box::new(src), awake: Arc::clone(&flag) };
        g.add_kernel(Box::new(src), &[], &[a]);
        g.add_kernel(Box::new(PoolKernel::new("pool", shape, 2, 2, PoolOp::Max)), &[a], &[b]);
        let (sink, out) = HostSink::new("dst", 0);
        g.add_kernel(Box::new(sink), &[b], &[]);
        g.set_replay_marker(b, 128);
        (g, feed, out, flag)
    };
    let run = |g: &mut Graph, feed: &qnn::dfe::SourceHandle, out: &qnn::dfe::SinkHandle, seed| {
        feed.refill(image(seed));
        out.set_expected(128);
        g.rearm(1);
        let report = g.run(10_000).expect("run");
        (out.take(), report)
    };
    let (mut warm, feed, out, flag) = build(false);
    for (k, want) in [
        (0, WholeBatch::Off),
        (1, WholeBatch::Recorded),
        (2, WholeBatch::Replayed),
        (3, WholeBatch::FellBack),
        (4, WholeBatch::Recorded),
        (5, WholeBatch::Replayed),
    ] {
        flag.store(k == 3, Ordering::Relaxed);
        let got = run(&mut warm, &feed, &out, k);
        let (mut fresh, feed, out, _) = build(k == 3);
        assert_eq!(got, run(&mut fresh, &feed, &out, k), "run {k} differs from a fresh graph");
        assert_eq!(got.1.replay.whole_batch, want, "run {k}: {:?}", got.1.replay);
    }
}

/// A run that fails leaves the instance mid-batch, and the next load
/// re-arms it like any other: timed out mid-fill, mid-recording of a
/// whole-batch tape and mid-replay of one, the next run of a batch matches
/// a fresh compile of it in logits and cycle reports. A traced run after a
/// failed recording completes too. A failed run keeps no tape, so its
/// batch size records again on the next run.
#[test]
fn failed_run_rearms_like_a_fresh_compile() {
    let net = Network::random(models::test_net(8, 4, 2), 17);
    let opts = CompileOptions::default();
    let batch = |k: u64| -> Vec<_> { (0..3).map(|s| image_for(&net.spec, 3 * k + s)).collect() };
    let fresh = |k: u64| try_compile(&net, &batch(k), &opts).expect("valid options").run();
    let cycles = fresh(0).expect("run").cycles();
    let mut warm = elaborate(&net, &opts).expect("valid options");
    let fail = |warm: &mut CompiledNetwork, k: u64, budget: u64| {
        warm.load(&batch(k));
        match warm.run_within(budget) {
            Err(RunError::Timeout { max_cycles }) if max_cycles == budget => {}
            other => panic!("batch {k}: expected a timeout at {budget}, got {other:?}"),
        }
    };
    let check = |sim: &qnn::compiler::SimResult, k: u64, want: WholeBatch| {
        let fresh = fresh(k).expect("run");
        assert_eq!((&sim.logits, &sim.reports), (&fresh.logits, &fresh.reports), "batch {k}");
        assert_eq!(sim.reports[0].replay.whole_batch, want, "batch {k}");
    };
    // Mid-fill of the instance's first run, which then plans live.
    fail(&mut warm, 0, 50);
    warm.load(&batch(1));
    check(&warm.run().expect("run"), 1, WholeBatch::Off);
    // Mid-recording of the batch size's whole-batch tape, then traced.
    fail(&mut warm, 2, 50);
    warm.load(&batch(3));
    let (report, _) = warm.graphs[0].run_traced(10 * cycles, 64).expect("traced run");
    let logits = warm.sink.take().chunks_exact(warm.classes).map(<[i32]>::to_vec).collect();
    check(&qnn::compiler::SimResult { logits, reports: vec![report] }, 3, WholeBatch::Off);
    warm.load(&batch(4));
    check(&warm.run().expect("run"), 4, WholeBatch::Recorded);
    // Mid-replay of that tape: the size records again, then replays.
    fail(&mut warm, 5, cycles / 2);
    warm.load(&batch(6));
    check(&warm.run().expect("run"), 6, WholeBatch::Recorded);
    warm.load(&batch(7));
    check(&warm.run().expect("run"), 7, WholeBatch::Replayed);
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
            g.rearm(1);
            let report = g.run(10_000).map_err(|e| e.to_string());
            last = Some((out.take(), report));
        }
        last.expect("at least one image")
    };
    let fresh = run(false, &[2]);
    assert_eq!(run(false, &[1, 2]), fresh, "an intact pool re-arms");
    assert_ne!(run(true, &[1, 2]), fresh, "a pool that skipped its rearm went unnoticed");
}
