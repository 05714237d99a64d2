//! Differential schedule-replay battery: replaying a recorded steady-state
//! period must be **bit-identical** to the dense oracle (the same stepper
//! over `DenseOracle`-wrapped kernels) — same logits, same `CycleReport`s —
//! and must *fall back* (never corrupt) whenever the stream leaves steady
//! state: the final-period drain, short ramps that never settle,
//! stall-injected pipelines, runs cut into cycle-budget segments, and a
//! kernel whose replay token hides part of its control state. Folded lanes
//! replay like any other kernel.
//!
//! The equivalence argument lives in `dfe_platform::replay` and DESIGN.md
//! §"Steady-state schedule replay"; these tests are its proof obligation
//! at the compiled-network level.

mod common;

use common::{compile_on, run_dense};
use qnn::compiler::{run_images, try_compile, CompileOptions, Fold, FoldPlan, SimResult};
use qnn::dfe::{
    CycleReport, DenseOracle, Graph, HostSink, HostSource, Io, Kernel, Progress, ReplayDiag,
    SpanIo, SpanPhase, SpanPlan, StallInjector, StreamSpec, WakeHint,
};
use qnn::nn::specgen::image_for;
use qnn::nn::{models, Network};
use qnn::tensor::Tensor3;

/// Run `g` to completion in `segment`-cycle slices and hold the stitched
/// run to one uninterrupted dense run: same cumulative counters, same total
/// cycles. The replay counters describe the whole run, so no slice may see
/// them go backwards — they survive the re-arms a cut replayed period
/// triggers. Returns the final replay diagnostics.
fn run_segmented(g: &mut Graph, segment: u64, dense: &CycleReport) -> ReplayDiag {
    let (mut total, mut banked) = (0, ReplayDiag::default());
    let report = loop {
        let result = g.run_opts(segment, false);
        let d = g.replay_diag();
        assert!(
            d.images_replayed >= banked.images_replayed
                && d.guard_fallbacks >= banked.guard_fallbacks
                && d.spans_bypassed >= banked.spans_bypassed,
            "counters went backwards: {banked:?} -> {d:?}"
        );
        banked = d;
        match result {
            Ok(report) => break report,
            Err(_) => total += segment,
        }
        assert!(total < 50_000_000, "segmented run wedged");
    };
    assert_eq!(report.kernels, dense.kernels);
    assert_eq!(report.streams, dense.streams);
    assert_eq!(total + report.cycles, dense.cycles);
    banked
}

/// A run at default options, stepped by default.
fn run_default(net: &Network, images: &[Tensor3<i8>]) -> SimResult {
    run_images(net, images, &CompileOptions::default()).expect("run")
}

/// The same run on the dense oracle.
fn run_oracle(net: &Network, images: &[Tensor3<i8>]) -> SimResult {
    run_dense(net, images, &CompileOptions::default()).expect("dense run")
}

/// Lace every kernel of a hand-built graph with the dense oracle.
fn oracle(g: &mut Graph) {
    g.map_kernels(|_, k| DenseOracle::wrap(k));
}

/// The tentpole invariant: on a stream long enough to reach steady state,
/// replay engages (records one period, replays many) and the run is
/// bit-identical to the dense run — including the tail image,
/// where the source's final-period drain fingerprint forces the guard
/// fallback instead of replaying past the end of the buffer.
#[test]
fn long_stream_replays_and_stays_bit_identical() {
    let net = Network::random(models::test_net(8, 4, 2), 42);
    let images: Vec<_> = (0..24).map(|s| image_for(&net.spec, s)).collect();
    let on = run_default(&net, &images);
    let off = run_oracle(&net, &images);
    assert_eq!(on.logits, off.logits);
    assert_eq!(on.reports, off.reports);
    let d = on.reports[0].replay;
    assert!(d.tape_len > 0, "no period recorded: {d:?}");
    assert!(d.images_replayed >= 8, "replay barely engaged: {d:?}");
    assert!(d.spans_bypassed > 0, "replayed images must bypass planning: {d:?}");
    // The non-periodic tail must exit via the guard, not a panic.
    assert!(d.guard_fallbacks >= 1, "tail drain should fall back: {d:?}");
    // The dense run never touches the machine.
    assert_eq!(off.reports[0].replay, ReplayDiag::default());
}

/// A ramp that never settles (too few images for the pipeline depth) must
/// leave replay idle — correct output, zero replayed images, no fallback
/// storm.
#[test]
fn short_ramp_never_replays_but_stays_correct() {
    let net = Network::random(models::test_net(8, 4, 2), 42);
    let images: Vec<_> = (0..2).map(|s| image_for(&net.spec, s)).collect();
    let on = run_default(&net, &images);
    let off = run_oracle(&net, &images);
    assert_eq!(on.logits, off.logits);
    assert_eq!(on.reports, off.reports);
    assert_eq!(on.reports[0].replay.images_replayed, 0);
    assert_eq!(on.reports[0].replay.spans_bypassed, 0);
}

/// The dense oracle stays dense: on a marker-armed compiled network,
/// where the default stepper bursts, parks and replays, the same network
/// over `DenseOracle`-wrapped kernels dispatches no burst, records no
/// replay diagnostics and leaves no kernel parked.
#[test]
fn dense_oracle_never_bursts_parks_or_replays() {
    let net = Network::random(models::test_net(8, 4, 2), 42);
    let images: Vec<_> = (0..24).map(|s| image_for(&net.spec, s)).collect();
    let run = |dense: bool| {
        let opts = CompileOptions::default();
        let mut compiled = compile_on(dense, &net, &images, &opts).expect("valid options");
        compiled.run().expect("run");
        let [g] = &compiled.graphs[..] else {
            panic!("a network lowers to one graph");
        };
        let parked = g.kernel_ids().filter(|&k| g.parked_state(k).is_some()).count();
        (g.bursts(), g.burst_cycles(), g.replay_diag(), parked)
    };
    let (bursts, burst_cycles, diag, parked) = run(false);
    assert!(bursts > 0 && burst_cycles > 0, "the default stepper never burst");
    assert!(diag.images_replayed > 0, "the default stepper never replayed: {diag:?}");
    assert!(parked > 0, "the default stepper ended with no kernel parked");
    assert_eq!(run(true), (0, 0, ReplayDiag::default(), 0));
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
    let opts = CompileOptions { layer_folding: folding, ..CompileOptions::default() };
    let on = run_images(&net, &images, &opts).expect("run");
    let off = run_dense(&net, &images, &opts).expect("dense run");
    assert_eq!(on.logits, off.logits);
    assert_eq!(on.reports, off.reports);
    let d = on.reports[0].replay;
    assert!(d.images_replayed > 0, "folded stream never replayed: {d:?}");
    assert!(
        d.spans_bypassed > 0,
        "replayed images must bypass planning: {d:?}"
    );
    assert_eq!(off.reports[0].replay, ReplayDiag::default());
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
    let build = |dense: bool| {
        let mut g = Graph::new();
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
        if dense {
            oracle(&mut g);
        }
        (g, handle)
    };
    let (mut g, handle) = build(true);
    let dense = g.run(1_000_000).expect("dense run");
    let expect = handle.take();

    let (mut g, handle) = build(false);
    let report = g.run(1_000_000).expect("replay run");
    assert_eq!(handle.take(), expect);
    assert_eq!(report, dense);
    let whole = g.replay_diag();
    assert!(whole.images_replayed >= 8, "replay barely engaged: {whole:?}");
    assert!(whole.spans_bypassed > 0, "replayed images must bypass planning: {whole:?}");
    let mean_span = g.burst_cycles() as f64 / g.bursts() as f64;
    assert!(mean_span > 6.0, "bursts of {mean_span:.1} cycles never crossed a phase edge");

    let (mut g, handle) = build(false);
    let cut = run_segmented(&mut g, SEGMENT, &dense);
    assert_eq!(handle.take(), expect, "segmented outputs diverged");
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
    let build = |dense: bool| {
        let mut g = Graph::new();
        let data: Vec<i32> = (0..n as i32).map(|v| v % per_image as i32).collect();
        let s0 = g.add_stream(StreamSpec::new("s0", 8, 8));
        g.add_kernel(
            Box::new(HostSource::new("src", data).with_period(per_image)),
            &[],
            &[s0],
        );
        let s1 = g.add_stream(StreamSpec::new("s1", 8, 8));
        g.add_kernel(
            StallInjector::wrap(Box::new(Batcher::new(2)), 0xFEED, 25),
            &[s0],
            &[s1],
        );
        let (sink, handle) = HostSink::new("dst", n);
        g.add_kernel(Box::new(sink.with_period(per_image)), &[s1], &[]);
        g.set_replay_marker(s1, per_image as u64);
        if dense {
            oracle(&mut g);
        }
        // Injected stalls can produce legitimate full-stall cycles, so
        // deadlock detection is off (the budget still bounds the run).
        let report = g.run_opts(4_000_000, false).expect("run");
        let diag = g.replay_diag();
        (handle.take(), report, diag)
    };
    let (out_on, rep_on, diag) = build(false);
    let (out_off, rep_off, _) = build(true);
    assert_eq!(out_on, out_off);
    assert_eq!(rep_on, rep_off);
    assert_eq!(diag.images_replayed, 0, "injector must veto: {diag:?}");
    assert_eq!(diag.tape_len, 0, "vetoed graphs never record: {diag:?}");
}

/// A sink with a header before every image: one tick on even images, six
/// on odd ones. Its replay token leaves the image parity out, so a
/// boundary fingerprints the same on either parity and a tape recorded on
/// one image is replayed on the next. The header and the image's first
/// element veto bursts, so they are dense steps on the tape: run on the
/// wrong parity, those steps read a different number of elements, and the
/// next recorded span starts from other queue lengths. It never parks, so
/// the awake mask is the same on either parity.
struct ParityHeaderSink {
    per_image: usize,
    images: usize,
    read: usize,
    header: usize,
}

impl ParityHeaderSink {
    fn in_header(&self) -> bool {
        self.read == 0 && self.header < if self.images % 2 == 1 { 6 } else { 1 }
    }

    fn count_read(&mut self, n: usize) {
        self.read += n;
        if self.read == self.per_image {
            (self.images, self.read, self.header) = (self.images + 1, 0, 0);
        }
    }
}

impl Kernel for ParityHeaderSink {
    fn name(&self) -> &str {
        "parity-header-sink"
    }
    fn rearm(&mut self) {
        (self.images, self.read, self.header) = (0, 0, 0);
    }
    fn tick(&mut self, io: &mut Io<'_>) -> Progress {
        if self.in_header() {
            self.header += 1;
        } else if io.read(0).is_some() {
            self.count_read(1);
        } else {
            return Progress::Idle;
        }
        Progress::Busy
    }
    fn is_done(&self) -> bool {
        self.images == 24
    }
    fn span_hint(&self, _in_len: &[usize], _out_room: &[usize]) -> Option<SpanPlan> {
        let left = (self.per_image - self.read) as u64;
        (self.read > 0).then(|| SpanPlan::new(left, 0b1, 0))
    }
    fn run_span(&mut self, io: &mut SpanIo<'_>, n: u64) {
        for _ in 0..n {
            io.pop(0);
        }
        self.count_read(n as usize);
    }
    fn replay_token(&self) -> Option<u64> {
        Some((self.read * 8 + self.header) as u64)
    }
}

/// The queue-length replay guard against a kernel whose token hides
/// control state (`ParityHeaderSink`). A batcher feeds it four elements at
/// a time with four-cycle gaps, which absorb the odd images' longer header
/// well before each boundary, so replay engages and records; every
/// recorded span replayed on the wrong parity must be refused, and the run
/// stays bit-identical to dense stepping.
#[test]
fn hidden_cadence_fails_the_queue_guard() {
    let per_image = 24;
    let build = |dense: bool| {
        let mut g = Graph::new();
        let s0 = g.add_stream(StreamSpec::new("s0", 8, 8));
        let src = HostSource::new("src", (0..24 * per_image as i32).collect());
        g.add_kernel(Box::new(src.with_period(per_image)), &[], &[s0]);
        let s1 = g.add_stream(StreamSpec::new("s1", 8, 8));
        g.add_kernel(Box::new(Batcher::new(4)), &[s0], &[s1]);
        let sink = ParityHeaderSink { per_image, images: 0, read: 0, header: 0 };
        g.add_kernel(Box::new(sink), &[s1], &[]);
        g.set_replay_marker(s1, per_image as u64);
        if dense {
            oracle(&mut g);
        }
        // The sink idles through whole cycles without progress.
        (g.run_opts(1_000_000, false).expect("run"), g.replay_diag())
    };
    let (dense, _) = build(true);
    let (report, diag) = build(false);
    assert_eq!(report, dense);
    assert!(diag.tape_len > 0, "no period recorded: {diag:?}");
    assert!(diag.guard_fallbacks > 1, "no guard refused a replayed span: {diag:?}");
}

/// Segmented runs of a compiled network: stopping at arbitrary segment
/// boundaries mid-inference (a timeout) and resuming on the same graph must
/// be invisible — a replayed span that would overrun a segment fails its
/// guard and re-arms the state machine, and the stitched run equals one
/// uninterrupted dense run in logits, cumulative counters, and total
/// cycles.
#[test]
fn mid_run_replay_switches_are_invisible() {
    let net = Network::random(models::test_net(8, 4, 2), 5);
    let images: Vec<_> = (0..16).map(|s| image_for(&net.spec, s + 100)).collect();
    let reference = run_oracle(&net, &images);
    let whole = run_default(&net, &images).reports[0].replay;

    let compiled = try_compile(&net, &images, &CompileOptions::default()).expect("valid options");
    let mut graphs = compiled.graphs;
    assert_eq!(graphs.len(), 1);
    let cut = run_segmented(&mut graphs[0], 700, &reference.reports[0]);
    let logits = compiled.sink.take();
    let flat: Vec<i32> = reference.logits.iter().flatten().copied().collect();
    assert_eq!(logits, flat, "segmented logits diverged");
    assert!(cut.spans_bypassed > 0, "segments left no room to replay: {cut:?}");
    assert!(
        cut.guard_fallbacks > whole.guard_fallbacks,
        "no segment end cut a replayed period: {cut:?} vs {whole:?}"
    );
}

/// Replay diagnostics are observability, not behaviour: `CycleReport`
/// equality deliberately ignores them (so every differential battery can
/// compare replay-on vs dense reports bit-for-bit), and the counters
/// survive the re-arms that guard fallbacks trigger instead of resetting.
#[test]
fn replay_diag_is_excluded_from_report_equality_and_survives_rearm() {
    let net = Network::random(models::test_net(8, 4, 2), 42);
    let images: Vec<_> = (0..24).map(|s| image_for(&net.spec, s)).collect();
    let on = run_default(&net, &images);
    let off = run_oracle(&net, &images);
    // The diags differ…
    assert_ne!(on.reports[0].replay, off.reports[0].replay);
    // …but the reports compare equal: diag is outside the equality.
    assert_eq!(on.reports, off.reports);

    // Counter persistence across mid-run re-arms: a segment end that cuts
    // a replayed period fails its guard and re-arms; the accumulated
    // counters must not reset (they describe the whole run).
    let compiled = try_compile(&net, &images, &CompileOptions::default()).expect("valid options");
    let mut graphs = compiled.graphs;
    let last = run_segmented(&mut graphs[0], 4_000, &off.reports[0]);
    let whole = on.reports[0].replay;
    assert!(last.guard_fallbacks > whole.guard_fallbacks, "no re-arm mid-run: {last:?}");
    assert!(last.images_replayed > 0, "replay never resumed after a re-arm: {last:?}");
    compiled.sink.take();
}
