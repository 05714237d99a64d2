//! Differential schedule-replay battery: replaying a recorded steady-state
//! period must be **bit-identical** to planning every burst live — same
//! logits, same `CycleReport`s — and must *fall back* (never corrupt)
//! whenever the stream leaves steady state: the final-period drain, short
//! ramps that never settle, stall-injected pipelines, and mid-run tier
//! switches. Folded lanes replay like any other kernel.
//!
//! The equivalence argument lives in `dfe_platform::replay` and DESIGN.md
//! §"Steady-state schedule replay"; these tests are its proof obligation
//! at the compiled-network level.

use qnn::compiler::{run_images, try_compile, CompileOptions, Fold, FoldPlan};
use qnn::dfe::{
    Graph, HostSink, HostSource, Io, Kernel, Progress, SchedulerMode, SpanIo, SpanPhase,
    SpanPlan, StallInjector, StreamSpec, WakeHint,
};
use qnn::nn::{models, Network, NetworkSpec};
use qnn::tensor::Tensor3;
// `Replay` is held against the tier below it: `Span` plans every burst live.
use SchedulerMode::{Replay, Span};

fn image_for(spec: &NetworkSpec, seed: u64) -> Tensor3<i8> {
    Tensor3::from_fn(spec.input, |y, x, c| {
        ((seed as usize)
            .wrapping_mul(31)
            .wrapping_add(y * 131 + x * 17 + c * 7)
            .wrapping_mul(2654435761)
            >> 16) as i8
    })
}

fn run_at(
    net: &Network,
    images: &[Tensor3<i8>],
    scheduler: SchedulerMode,
) -> qnn::compiler::SimResult {
    run_images(net, images, &CompileOptions { scheduler, ..CompileOptions::default() })
        .expect("run")
}

/// The tentpole invariant: on a stream long enough to reach steady state,
/// replay engages (records one period, replays many) and the run is
/// bit-identical to the planned-burst run — including the tail image,
/// where the source's final-period drain fingerprint forces the guard
/// fallback instead of replaying past the end of the buffer.
#[test]
fn long_stream_replays_and_stays_bit_identical() {
    let net = Network::random(models::test_net(8, 4, 2), 42);
    let images: Vec<_> = (0..24).map(|s| image_for(&net.spec, s)).collect();
    let on = run_at(&net, &images, Replay);
    let off = run_at(&net, &images, Span);
    assert_eq!(on.logits, off.logits);
    assert_eq!(on.reports, off.reports);
    let d = on.reports[0].replay;
    assert!(d.tape_len > 0, "no period recorded: {d:?}");
    assert!(d.images_replayed >= 8, "replay barely engaged: {d:?}");
    assert!(d.spans_bypassed > 0, "replayed images must bypass planning: {d:?}");
    // The non-periodic tail must exit via the guard, not a panic.
    assert!(d.guard_fallbacks >= 1, "tail drain should fall back: {d:?}");
    // The replay-off run never touches the machine.
    assert_eq!(off.reports[0].replay, qnn::dfe::ReplayDiag::default());
}

/// A ramp that never settles (too few images for the pipeline depth) must
/// leave replay idle — correct output, zero replayed images, no fallback
/// storm.
#[test]
fn short_ramp_never_replays_but_stays_correct() {
    let net = Network::random(models::test_net(8, 4, 2), 42);
    let images: Vec<_> = (0..2).map(|s| image_for(&net.spec, s)).collect();
    let on = run_at(&net, &images, Replay);
    let off = run_at(&net, &images, Span);
    assert_eq!(on.logits, off.logits);
    assert_eq!(on.reports, off.reports);
    assert_eq!(on.reports[0].replay.images_replayed, 0);
    assert_eq!(on.reports[0].replay.spans_bypassed, 0);
}

/// Folded lanes replay like any other kernel: the span plans on the tape
/// carry their per-port rates, and a folded kernel's replay token is the
/// same phase counters as an unfolded one — so a folded multi-image stream
/// reaches steady state, records, and replays, bit-exact.
#[test]
fn folded_lanes_replay() {
    let net = Network::random(models::test_net(8, 4, 2), 7);
    // Folding the stem shortens the period below the host's feed time, so
    // the image FIFO takes several periods to fill before steady state.
    let images: Vec<_> = (0..24).map(|s| image_for(&net.spec, s)).collect();
    let folding = FoldPlan::new()
        .with("conv0", Fold::new(2, 2))
        .with("pool1", Fold::new(2, 2));
    let run = |scheduler| {
        run_images(
            &net,
            &images,
            &CompileOptions {
                scheduler,
                layer_folding: folding.clone(),
                ..CompileOptions::default()
            },
        )
        .expect("run")
    };
    let on = run(Replay);
    let off = run(Span);
    assert_eq!(on.logits, off.logits);
    assert_eq!(on.reports, off.reports);
    let d = on.reports[0].replay;
    assert!(d.images_replayed > 0, "folded stream never replayed: {d:?}");
    assert!(
        d.spans_bypassed > 0,
        "replayed images must bypass planning: {d:?}"
    );
    assert_eq!(off.reports[0].replay, qnn::dfe::ReplayDiag::default());
}

/// A parkable span-capable pass-through stage (the injector battery's
/// workhorse, with a replay token so un-wrapped copies don't veto).
struct SpanAffine {
    mul: i32,
    add: i32,
}

impl Kernel for SpanAffine {
    fn name(&self) -> &str {
        "affine"
    }
    fn rearm(&mut self) {}
    fn tick(&mut self, io: &mut Io<'_>) -> Progress {
        if io.can_read(0) && io.can_write(0) {
            let v = io.read(0).expect("checked");
            io.write(0, v * self.mul + self.add);
            Progress::Busy
        } else if io.can_read(0) {
            Progress::Stalled
        } else {
            Progress::Idle
        }
    }
    fn wake_hint(&self) -> WakeHint {
        WakeHint::Parkable
    }
    fn span_hint(&self, _in_len: &[usize], _out_room: &[usize]) -> Option<SpanPlan> {
        Some(SpanPlan::new(u64::MAX, 0b1, 0b1))
    }
    fn run_span(&mut self, io: &mut SpanIo<'_>, n: u64) {
        for _ in 0..n {
            let v = io.pop(0);
            io.push(0, v * self.mul + self.add);
        }
    }
    fn replay_token(&self) -> Option<u64> {
        Some(0)
    }
}

/// A stage whose span plan is a chain: it absorbs a batch of `m` elements,
/// then emits their running sums, one element per tick either way — two
/// phases per batch, chained batch after batch. A dry input idles it while
/// absorbing; a full output stalls it while emitting.
struct Batcher {
    m: usize,
    held: Vec<i32>,
    sent: usize,
}

impl Batcher {
    fn new(m: usize) -> Self {
        Self { m, held: Vec::new(), sent: 0 }
    }

    fn emitting(&self) -> bool {
        self.held.len() == self.m
    }

    /// The running sum of the batch through element `i`.
    fn sum_through(&self, i: usize) -> i32 {
        self.held[..=i].iter().fold(0i32, |a, &v| a.wrapping_add(v))
    }

    fn emitted(&mut self) {
        self.sent += 1;
        if self.sent == self.m {
            self.held.clear();
            self.sent = 0;
        }
    }
}

impl Kernel for Batcher {
    fn name(&self) -> &str {
        "batcher"
    }
    fn rearm(&mut self) {
        self.held.clear();
        self.sent = 0;
    }
    fn tick(&mut self, io: &mut Io<'_>) -> Progress {
        if self.emitting() {
            if !io.can_write(0) {
                return Progress::Stalled;
            }
            io.write(0, self.sum_through(self.sent));
            self.emitted();
        } else {
            let Some(v) = io.read(0) else {
                return Progress::Idle;
            };
            self.held.push(v);
        }
        Progress::Busy
    }
    fn wake_hint(&self) -> WakeHint {
        WakeHint::Parkable
    }
    fn span_hint(&self, _in_len: &[usize], _out_room: &[usize]) -> Option<SpanPlan> {
        let absorb = |n: usize| SpanPhase::coupled(n as u64, 0b1, 0).stalls(Progress::Idle);
        let emit = |n: usize| SpanPhase::coupled(n as u64, 0, 0b1).stalls(Progress::Stalled);
        let mut plan = if self.emitting() {
            SpanPlan::of(emit(self.m - self.sent))
        } else {
            SpanPlan::of(absorb(self.m - self.held.len())).then(emit(self.m))
        };
        while plan.push(absorb(self.m)) && plan.push(emit(self.m)) {}
        Some(plan)
    }
    fn run_span(&mut self, io: &mut SpanIo<'_>, _n: u64) {
        let (mut reads, mut writes) = (io.read_quota(0), io.write_quota(0));
        while reads + writes > 0 {
            if self.emitting() {
                assert!(writes > 0, "batcher span quota ends mid-batch");
                io.push(0, self.sum_through(self.sent));
                self.emitted();
                writes -= 1;
            } else {
                assert!(reads > 0, "batcher span quota ends mid-batch");
                self.held.push(io.pop(0));
                reads -= 1;
            }
        }
    }
    fn replay_token(&self) -> Option<u64> {
        Some((self.held.len() * (self.m + 1) + self.sent) as u64)
    }
}

/// Chained participants on the tape: two batchers whose span plans cross
/// their absorb/emit edges are recorded over one steady-state period and
/// replayed, bit-identical to dense stepping, in bursts longer than any
/// single phase. Run again in cycle-budget segments, a segment ends partway
/// through a replayed period, so the next recorded span fails its guard
/// (it would overrun the budget) with both batchers mid-chain; live
/// planning takes over, and the stitched run is still the dense one.
#[test]
fn chained_spans_replay_and_fall_back_mid_chain() {
    const SEGMENT: u64 = 240;
    let (per_image, images) = (24usize, 20usize);
    let n = per_image * images;
    let build = |scheduler| {
        let mut g = Graph::with_scheduler(scheduler);
        let data: Vec<i32> = (0..n as i32).map(|v| v % 13).collect();
        let s0 = g.add_stream(StreamSpec::new("s0", 8, 8));
        g.add_kernel(
            Box::new(HostSource::new("src", data).with_period(per_image)),
            &[],
            &[s0],
        );
        let s1 = g.add_stream(StreamSpec::new("s1", 8, 8));
        g.add_kernel(Box::new(Batcher::new(4)), &[s0], &[s1]);
        let s2 = g.add_stream(StreamSpec::new("s2", 8, 8));
        g.add_kernel(Box::new(Batcher::new(6)), &[s1], &[s2]);
        let (sink, handle) = HostSink::new("dst", n);
        g.add_kernel(Box::new(sink.with_period(per_image)), &[s2], &[]);
        g.set_replay_marker(s2, per_image as u64);
        (g, handle)
    };
    let (mut g, handle) = build(SchedulerMode::Dense);
    let dense = g.run(1_000_000).expect("dense run");
    let expect = handle.take();

    let (mut g, handle) = build(Replay);
    let report = g.run(1_000_000).expect("replay run");
    assert_eq!(handle.take(), expect);
    assert_eq!(report, dense);
    let whole = g.replay_diag();
    assert!(whole.images_replayed >= 8, "replay barely engaged: {whole:?}");
    assert!(whole.spans_bypassed > 0, "replayed images must bypass planning: {whole:?}");
    let mean_span = g.burst_cycles() as f64 / g.bursts() as f64;
    assert!(mean_span > 6.0, "bursts of {mean_span:.1} cycles never crossed a phase edge");

    let (mut g, handle) = build(Replay);
    let mut total = 0;
    let report = loop {
        match g.run_opts(SEGMENT, false) {
            Ok(report) => break report,
            Err(_) => {
                total += SEGMENT;
                assert!(total < 1_000_000, "segmented run wedged");
            }
        }
    };
    assert_eq!(handle.take(), expect, "segmented outputs diverged");
    assert_eq!(report.kernels, dense.kernels);
    assert_eq!(report.streams, dense.streams);
    assert_eq!(total + report.cycles, dense.cycles);
    let cut = g.replay_diag();
    assert!(cut.images_replayed > 0, "segments left no room to replay: {cut:?}");
    assert!(
        cut.guard_fallbacks > whole.guard_fallbacks,
        "no segment end cut a replayed period: {cut:?} vs {whole:?}"
    );
}

/// Stall-injected pipelines with an armed marker: the injector has no
/// replay token, so the graph vetoes at the first boundary and keeps
/// stepping normally — identical outputs and reports either way.
#[test]
fn stall_injected_marker_graph_vetoes_replay() {
    let per_image = 16usize;
    let images = 12usize;
    let n = per_image * images;
    let build = |scheduler| {
        let mut g = Graph::with_scheduler(scheduler);
        let data: Vec<i32> = (0..n as i32).map(|v| v % per_image as i32).collect();
        let s0 = g.add_stream(StreamSpec::new("s0", 8, 8));
        g.add_kernel(
            Box::new(HostSource::new("src", data).with_period(per_image)),
            &[],
            &[s0],
        );
        let s1 = g.add_stream(StreamSpec::new("s1", 8, 8));
        g.add_kernel(
            StallInjector::wrap(Box::new(SpanAffine { mul: 3, add: 1 }), 0xFEED, 25),
            &[s0],
            &[s1],
        );
        let (sink, handle) = HostSink::new("dst", n);
        g.add_kernel(Box::new(sink.with_period(per_image)), &[s1], &[]);
        g.set_replay_marker(s1, per_image as u64);
        // Injected stalls can produce legitimate full-stall cycles, so
        // deadlock detection is off (the budget still bounds the run).
        let report = g.run_opts(4_000_000, false).expect("run");
        let diag = g.replay_diag();
        (handle.take(), report, diag)
    };
    let (out_on, rep_on, diag) = build(Replay);
    let (out_off, rep_off, _) = build(Span);
    assert_eq!(out_on, out_off);
    assert_eq!(rep_on, rep_off);
    assert_eq!(diag.images_replayed, 0, "injector must veto: {diag:?}");
    assert_eq!(diag.tape_len, 0, "vetoed graphs never record: {diag:?}");
}

/// Mid-run tier switches: hopping between `Replay`, `Span` and `ReadyList`
/// at arbitrary segment boundaries mid-inference re-arms the state machine
/// and must be invisible — the stitched run equals one uninterrupted
/// replay-off run in logits, cumulative counters, and total cycles.
#[test]
fn mid_run_replay_switches_are_invisible() {
    let net = Network::random(models::test_net(8, 4, 2), 5);
    let images: Vec<_> = (0..16).map(|s| image_for(&net.spec, s + 100)).collect();
    let reference = run_at(&net, &images, Span);

    let compiled = try_compile(&net, &images, &CompileOptions::default()).expect("valid options");
    let mut graphs = compiled.graphs;
    assert_eq!(graphs.len(), 1);
    assert_eq!(graphs[0].scheduler(), Replay);
    let g = &mut graphs[0];
    let segment = 700u64;
    let mut flips = 0u32;
    let mut total: u64 = 0;
    let report = loop {
        match g.run_opts(segment, false) {
            Ok(report) => break report,
            Err(_) => {
                total += segment;
                flips += 1;
                g.set_scheduler(if flips % 2 == 0 {
                    Replay
                } else if flips % 3 == 0 {
                    SchedulerMode::ReadyList
                } else {
                    Span
                });
                assert!(total < 50_000_000, "switch run wedged");
            }
        }
    };
    let logits = compiled.sink.take();
    let flat: Vec<i32> = reference.logits.iter().flatten().copied().collect();
    assert_eq!(logits, flat, "mid-switch logits diverged");
    let reference_report = &reference.reports[0];
    assert_eq!(report.kernels, reference_report.kernels);
    assert_eq!(report.streams, reference_report.streams);
    assert_eq!(total + report.cycles, reference_report.cycles);
    assert!(flips > 0, "segment too large to exercise any switch");
}

/// Replay diagnostics are observability, not behaviour: `CycleReport`
/// equality deliberately ignores them (so every differential battery can
/// compare replay-on vs replay-off reports bit-for-bit), and the counters
/// survive the re-arms that tier switches trigger instead of resetting.
#[test]
fn replay_diag_is_excluded_from_report_equality_and_survives_rearm() {
    let net = Network::random(models::test_net(8, 4, 2), 42);
    let images: Vec<_> = (0..24).map(|s| image_for(&net.spec, s)).collect();
    let on = run_at(&net, &images, Replay);
    let off = run_at(&net, &images, Span);
    // The diags differ…
    assert_ne!(on.reports[0].replay, off.reports[0].replay);
    // …but the reports compare equal: diag is outside the equality.
    assert_eq!(on.reports, off.reports);

    // Counter persistence across a mid-run re-arm: drop a tier and come
    // back after the run completes a stretch; the accumulated counters
    // must not reset (they describe the whole run).
    let compiled = try_compile(&net, &images, &CompileOptions::default()).expect("valid options");
    let mut graphs = compiled.graphs;
    let g = &mut graphs[0];
    let mut banked = qnn::dfe::ReplayDiag::default();
    loop {
        match g.run_opts(40_000, false) {
            Ok(_) => break,
            Err(_) => {
                let d = g.replay_diag();
                assert!(
                    d.images_replayed >= banked.images_replayed
                        && d.guard_fallbacks >= banked.guard_fallbacks
                        && d.spans_bypassed >= banked.spans_bypassed,
                    "counters went backwards: {banked:?} -> {d:?}"
                );
                banked = d;
                // Re-arm (twice: off and back on). Counters must survive.
                g.set_scheduler(Span);
                g.set_scheduler(Replay);
                let d = g.replay_diag();
                assert_eq!(d.images_replayed, banked.images_replayed);
                assert_eq!(d.guard_fallbacks, banked.guard_fallbacks);
                assert_eq!(d.spans_bypassed, banked.spans_bypassed);
            }
        }
    }
    compiled.sink.take();
}
