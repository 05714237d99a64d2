//! Span-conservation ledger for macro-tick dispatch (seeded via
//! `qnn-testkit`): random span-capable pipelines at random FIFO
//! capacities, with and without injected stalls. Whatever mix of
//! per-element steps and bursts a run takes, every element must be
//! accounted for — each map kernel's busy count equals the element
//! count it consumed, every stream commits exactly the elements pushed
//! through it, and every FIFO drains to empty. Reports must be
//! bit-identical to dense stepping on the same pipeline.
//!
//! Two further properties pin the rate-aware planner arithmetic itself: the
//! closed forms for one FIFO (`span_limit`, `span_peak`) against a
//! cycle-by-cycle trajectory, and whole pipelines of *wide* greedy kernels
//! (several elements per port per tick, sub-lane exact promises, mid-span
//! parks) against dense stepping.

use dfe_platform::stream::{span_limit, span_peak, SpanFault, SpanPort};
use dfe_platform::{
    Graph, HostSink, HostSource, Io, Kernel, Progress, SchedulerMode, SinkHandle, SpanIo,
    SpanPlan, StallInjector, StreamId, StreamSpec, WakeHint,
};
use qnn_testkit::{any, prop_assert, prop_assert_eq, props, vec};

/// Span-capable affine map kernel: `v -> v * mul + add`, one element per
/// cycle, uniform for any span length.
struct SpanAffine {
    mul: i32,
    add: i32,
    name: String,
}

impl Kernel for SpanAffine {
    fn name(&self) -> &str {
        &self.name
    }
    fn rearm(&mut self) {}

    fn tick(&mut self, io: &mut Io<'_>) -> Progress {
        if io.can_read(0) && io.can_write(0) {
            let v = io.read(0).expect("checked");
            io.write(0, v.wrapping_mul(self.mul).wrapping_add(self.add));
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
            io.push(0, v.wrapping_mul(self.mul).wrapping_add(self.add));
        }
    }
}

fn reference(data: &[i32], stages: &[(i32, i32)]) -> Vec<i32> {
    data.iter()
        .map(|&v| {
            stages
                .iter()
                .fold(v, |acc, &(mul, add)| acc.wrapping_mul(mul).wrapping_add(add))
        })
        .collect()
}

/// Source → span-affine stages → sink, optionally wrapping each stage in a
/// [`StallInjector`] (which, being `AlwaysTick` with no span promise,
/// vetoes every burst it is awake for — the per-element fallback path).
fn build_chain(
    data: Vec<i32>,
    stages: &[(i32, i32)],
    cap: usize,
    scheduler: SchedulerMode,
    stall: Option<(u64, u8)>,
) -> (Graph, SinkHandle, Vec<StreamId>) {
    let n = data.len();
    let mut g = Graph::with_scheduler(scheduler);
    let mut ids = Vec::new();
    let mut prev = g.add_stream(StreamSpec::new("s0", 32, cap));
    ids.push(prev);
    g.add_kernel(Box::new(HostSource::new("src", data)), &[], &[prev]);
    for (i, &(mul, add)) in stages.iter().enumerate() {
        let next = g.add_stream(StreamSpec::new(format!("s{}", i + 1), 32, cap));
        ids.push(next);
        let inner = Box::new(SpanAffine { mul, add, name: format!("affine{i}") });
        let kernel: Box<dyn Kernel> = match stall {
            Some((seed, pct)) => {
                Box::new(StallInjector::new(inner, seed.wrapping_add(i as u64), pct))
            }
            None => inner,
        };
        g.add_kernel(kernel, &[prev], &[next]);
        prev = next;
    }
    let (sink, handle) = HostSink::new("dst", n);
    g.add_kernel(Box::new(sink), &[prev], &[]);
    (g, handle, ids)
}

const BUDGET: u64 = 1_000_000;

/// A greedy multi-lane map stage, the shape of every folded kernel: each
/// tick passes `min(lanes, queued, free slots)` elements through, and the
/// span promise is whatever that minimum is right now — exact on the side
/// that binds it below the lane width.
struct WideAffine {
    mul: i32,
    add: i32,
    lanes: usize,
    name: String,
}

impl Kernel for WideAffine {
    fn name(&self) -> &str {
        &self.name
    }
    fn rearm(&mut self) {}

    fn tick(&mut self, io: &mut Io<'_>) -> Progress {
        let mut moved = 0;
        while moved < self.lanes && io.can_read(0) && io.can_write(0) {
            let v = io.read(0).expect("checked");
            io.write(0, v.wrapping_mul(self.mul).wrapping_add(self.add));
            moved += 1;
        }
        if moved > 0 {
            Progress::Busy
        } else if io.can_read(0) {
            Progress::Stalled
        } else {
            Progress::Idle
        }
    }

    fn lanes(&self) -> (u16, u16) {
        (self.lanes as u16, self.lanes as u16)
    }

    fn wake_hint(&self) -> WakeHint {
        WakeHint::Parkable
    }

    fn span_hint(&self, in_len: &[usize], out_room: &[usize]) -> Option<SpanPlan> {
        let (fed, exact_r) = SpanPlan::greedy(self.lanes, in_len[0]);
        let (moved, exact_w) = SpanPlan::greedy(fed, out_room[0]);
        let plan = SpanPlan::new(u64::MAX, 0b1, 0b1)
            .at_read_rate(moved, exact_r && !exact_w)
            .at_write_rate(moved, exact_w)
            .halting();
        Some(if in_len[0] == 0 {
            plan.blocked(Progress::Idle)
        } else {
            plan
        })
    }

    fn run_span(&mut self, io: &mut SpanIo<'_>, n: u64) {
        for _ in 0..n * io.read_rate() as u64 {
            let v = io.pop(0);
            io.push(0, v.wrapping_mul(self.mul).wrapping_add(self.add));
        }
    }
}

/// A source that offers `lanes` elements per tick (greedy on free slots).
struct WideSource {
    data: Vec<i32>,
    pos: usize,
    lanes: usize,
}

impl Kernel for WideSource {
    fn name(&self) -> &str {
        "wide-src"
    }
    fn rearm(&mut self) {
        self.pos = 0;
    }

    fn tick(&mut self, io: &mut Io<'_>) -> Progress {
        let mut moved = 0;
        while moved < self.lanes && self.pos < self.data.len() && io.can_write(0) {
            io.write(0, self.data[self.pos]);
            self.pos += 1;
            moved += 1;
        }
        if moved > 0 {
            Progress::Busy
        } else if self.pos < self.data.len() {
            Progress::Stalled
        } else {
            Progress::Idle
        }
    }

    fn lanes(&self) -> (u16, u16) {
        (1, self.lanes as u16)
    }

    fn wake_hint(&self) -> WakeHint {
        WakeHint::Parkable
    }

    fn span_hint(&self, _in_len: &[usize], out_room: &[usize]) -> Option<SpanPlan> {
        let left = self.data.len() - self.pos;
        if left == 0 {
            return None;
        }
        let (moved, exact) = SpanPlan::greedy(self.lanes.min(left), out_room[0]);
        Some(
            SpanPlan::new((left / moved) as u64, 0, 0b1)
                .at_write_rate(moved, exact)
                .halting(),
        )
    }

    fn run_span(&mut self, io: &mut SpanIo<'_>, n: u64) {
        for _ in 0..n * io.write_rate() as u64 {
            io.push(0, self.data[self.pos]);
            self.pos += 1;
        }
    }
}

/// Source → wide stages → sink. The sink drains one element per cycle, so
/// wide stages run at their lane width only while filling FIFOs and settle
/// into sub-lane exact promises behind the narrow end.
fn build_wide_chain(
    data: Vec<i32>,
    src_lanes: usize,
    stages: &[(i32, i32, usize, usize)],
    scheduler: SchedulerMode,
) -> (Graph, SinkHandle) {
    let n = data.len();
    let mut g = Graph::with_scheduler(scheduler);
    let mut prev = g.add_stream(StreamSpec::new("s0", 32, stages[0].3));
    let src = WideSource { data, pos: 0, lanes: src_lanes };
    g.add_kernel(Box::new(src), &[], &[prev]);
    for (i, &(mul, add, lanes, _)) in stages.iter().enumerate() {
        let cap = stages.get(i + 1).map_or(4, |s| s.3);
        let next = g.add_stream(StreamSpec::new(format!("s{}", i + 1), 32, cap));
        let stage = WideAffine { mul, add, lanes, name: format!("wide{i}") };
        g.add_kernel(Box::new(stage), &[prev], &[next]);
        prev = next;
    }
    let (sink, handle) = HostSink::new("dst", n);
    g.add_kernel(Box::new(sink), &[prev], &[]);
    (g, handle)
}

/// One side of a FIFO as the closed-form property draws it:
/// `(active, start, run, rate, exact)`, `run == 0` meaning "to the end".
type Side = (bool, u64, u64, u16, bool);

fn side_port((active, start, run, rate, exact): Side) -> SpanPort {
    if !active {
        return SpanPort::IDLE;
    }
    SpanPort {
        start,
        stop: if run == 0 { u64::MAX } else { start + run },
        rate,
        exact,
    }
}

/// Dense stepping of one FIFO: `Err((cycle, fault))` at the first promised
/// tick that fails within `horizon` cycles, with the occupancy peaks dense
/// sampling would have recorded after each cycle up to then.
fn brute_force_fifo(
    len: usize,
    cap: usize,
    writer: SpanPort,
    reader: SpanPort,
    reader_first: bool,
    horizon: u64,
) -> (Option<(u64, SpanFault)>, Vec<usize>) {
    let mut queue = len;
    let mut peak = 0usize;
    let mut peaks = vec![0];
    for t in 0..horizon {
        let mut staged = 0;
        let mut fault = None;
        let pop = |queue: &mut usize| {
            if reader.active_at(t) {
                let rr = usize::from(reader.rate);
                if *queue < rr || (reader.exact && *queue != rr) {
                    return Some(SpanFault::Other);
                }
                *queue -= rr;
            }
            None
        };
        let push = |queue: &usize, staged: &mut usize| {
            if writer.active_at(t) {
                let (wr, room) = (usize::from(writer.rate), cap - *queue);
                if room < wr || (writer.exact && room != wr) {
                    return Some(if room == 0 { SpanFault::Full } else { SpanFault::Other });
                }
                *staged = wr;
            }
            None
        };
        // Both ticks happen every cycle; a clean stall of the writer only
        // counts as such when the reader's tick of that cycle succeeds.
        let (first, second) = if reader_first {
            (pop(&mut queue), push(&queue, &mut staged))
        } else {
            let pushed = push(&queue, &mut staged);
            (pushed, pop(&mut queue))
        };
        match (first, second) {
            (None, None) => {}
            (Some(f), None) | (None, Some(f)) => fault = Some(f),
            (Some(_), Some(_)) => fault = Some(SpanFault::Other),
        }
        if let Some(f) = fault {
            return (Some((t, f)), peaks);
        }
        if staged > 0 {
            queue += staged;
            peak = peak.max(queue);
        }
        peaks.push(peak);
    }
    (None, peaks)
}

/// The unit-rate feasibility caps exactly as the planner computed them
/// before ports carried rates (`a`/`b` = writer/reader start, `u64::MAX`
/// when inactive; `rb` = reader earlier in node order).
fn legacy_unit_rate_limit(l: u64, cap: u64, a: u64, b: u64, rb: bool) -> u64 {
    let mut k = u64::MAX;
    if b != u64::MAX {
        if a == u64::MAX {
            k = k.min(b.saturating_add(l));
        } else if a > b {
            if l > a - b {
            } else if b.saturating_add(l) <= a {
                k = k.min(b.saturating_add(l));
            } else {
                k = k.min(a);
            }
        } else if a == b && l == 0 {
            k = k.min(b);
        }
    }
    if a != u64::MAX {
        let rb = b != u64::MAX && rb;
        if b == u64::MAX {
            k = k.min(a.saturating_add(cap - l));
        } else if b > a {
            let plateau = l + (b - a) - rb as u64;
            if plateau > cap - 1 {
                k = k.min(b.min(a.saturating_add(cap - l)));
            }
        } else if b == a && !rb && l == cap {
            k = k.min(a);
        }
    }
    if a != u64::MAX && b != u64::MAX && rb {
        k = k.min(b.saturating_add(l));
    }
    k
}

/// The ledger proper: outputs correct, every stream committed exactly the
/// pipeline's element count and drained to empty, every stage was busy for
/// exactly one cycle per element, occupancy peaks within capacity.
fn assert_ledger(
    g: &Graph,
    report: &dfe_platform::CycleReport,
    ids: &[StreamId],
    n: usize,
    stages: usize,
) -> qnn_testkit::prop::CaseResult {
    for s in &report.streams {
        prop_assert_eq!(s.pushed, n as u64, "stream {} commit count", s.name);
        prop_assert!(
            s.max_occupancy <= s.capacity,
            "stream {} overflowed: {} > {}",
            s.name,
            s.max_occupancy,
            s.capacity
        );
    }
    for &id in ids {
        prop_assert_eq!(g.stream_len(id), 0, "stream not drained");
    }
    // kernels[0] is the source, last is the sink; both also move n elements.
    for k in &report.kernels {
        prop_assert_eq!(&k.busy, &(n as u64), "kernel {} element ledger", k.name);
    }
    prop_assert_eq!(report.kernels.len(), stages + 2);
    Ok(())
}

props! {
    /// Conservation under macro-tick dispatch: elements consumed equal
    /// elements committed downstream on every stream, and the run is
    /// bit-identical (report and output) to dense per-element stepping.
    #[test]
    fn span_ledger_accounts_every_element(
        data in vec(-128i32..128, 1..64),
        stages in vec((-5i32..6, -100i32..101), 1..5),
        cap in 1usize..17,
    ) {
        let n = data.len();
        let expect = reference(&data, &stages);
        let (mut g, handle, ids) =
            build_chain(data.clone(), &stages, cap, SchedulerMode::Span, None);
        let report = g.run(BUDGET).expect("macro-tick chain must complete");
        prop_assert_eq!(handle.take(), expect.clone());
        assert_ledger(&g, &report, &ids, n, stages.len())?;

        let (mut gd, hd, _) =
            build_chain(data, &stages, cap, SchedulerMode::Dense, None);
        let dense = gd.run(BUDGET).expect("dense chain must complete");
        prop_assert_eq!(hd.take(), expect);
        prop_assert_eq!(report, dense, "macro-tick report diverges from dense");
    }

    /// The same ledger under random stall schedules: the injectors veto
    /// bursts they are awake for, so runs interleave spans with per-element
    /// stretches — conservation must survive the mixture.
    #[test]
    fn ledger_holds_under_stall_injection(
        data in vec(-128i32..128, 1..48),
        stages in vec((-5i32..6, -100i32..101), 1..4),
        cap in 1usize..9,
        seed in 0u64..u64::MAX,
        pct in 1u8..90,
    ) {
        let n = data.len();
        let expect = reference(&data, &stages);
        let (mut g, handle, ids) = build_chain(
            data,
            &stages,
            cap,
            SchedulerMode::Span,
            Some((seed, pct)),
        );
        // Injected stalls can idle the whole graph for a cycle; that is not
        // a deadlock (same setting as the stall-injection suites).
        let report = g.run_opts(4_000_000, false).expect("stalled chain must complete");
        prop_assert_eq!(handle.take(), expect);
        assert_ledger(&g, &report, &ids, n, stages.len())?;
    }
}

props! {
    /// The planner's closed forms for one FIFO against the trajectory they
    /// summarize: drive the FIFO cycle by cycle with a writer and a reader
    /// at random rates, start/stop cycles, exactness and node order, and
    /// check the first infeasible cycle (and whether it is a clean
    /// writer-full stall) and the occupancy peak of every feasible prefix.
    #[test]
    fn fifo_closed_forms_match_the_brute_force_trajectory(
        cap in 1usize..25,
        fill in 0usize..25,
        writer in (any::<bool>(), 0u64..8, 0u64..14, 1u16..5, any::<bool>()),
        reader in (any::<bool>(), 0u64..8, 0u64..14, 1u16..5, any::<bool>()),
        reader_first in any::<bool>(),
    ) {
        const HORIZON: u64 = 64;
        let len = fill.min(cap);
        let (w, r) = (side_port(writer), side_port(reader));
        let (fault, peaks) = brute_force_fifo(len, cap, w, r, reader_first, HORIZON);
        // The dispatch rule on top of dense feasibility: a reader replayed
        // ahead of its writer can only drain the buffered lead.
        let lead = (reader_first && w != SpanPort::IDLE && r != SpanPort::IDLE)
            .then(|| r.start + (len / usize::from(r.rate)) as u64)
            .filter(|&lead| lead < r.stop);
        let expect = match (fault, lead) {
            (Some((t, _)), Some(lead)) if lead < t => (lead, SpanFault::Other),
            (Some(hit), _) => hit,
            (None, Some(lead)) => (lead, SpanFault::Other),
            (None, None) => (u64::MAX, SpanFault::Other),
        };
        let got = span_limit(len, cap, w, r, reader_first);
        prop_assert_eq!(got, expect, "first infeasible cycle");
        for k in 0..=got.0.min(HORIZON) {
            prop_assert_eq!(
                span_peak(len, w, r, k),
                peaks[k as usize],
                "occupancy peak of a {}-cycle span",
                k
            );
        }
    }

    /// With every rate 1 and no early stops the generalized arithmetic is
    /// the case analysis the planner used before ports carried rates.
    #[test]
    fn unit_rate_limits_are_the_legacy_case_analysis(
        cap in 1usize..25,
        fill in 0usize..25,
        a in 0u64..12,
        b in 0u64..12,
        shape in 0u8..3,
        reader_first in any::<bool>(),
    ) {
        let len = fill.min(cap);
        let port = |start| SpanPort { start, stop: u64::MAX, rate: 1, exact: false };
        let (w, r) = match shape {
            0 => (port(a), port(b)),
            1 => (port(a), SpanPort::IDLE),
            _ => (SpanPort::IDLE, port(b)),
        };
        let legacy = legacy_unit_rate_limit(len as u64, cap as u64, w.start, r.start, reader_first);
        prop_assert_eq!(span_limit(len, cap, w, r, reader_first).0, legacy);
        if legacy != u64::MAX && w != SpanPort::IDLE {
            // The peak the old `note_span` credited: start + pushes − pops.
            let (pushes, pops) = (legacy.saturating_sub(a), legacy.saturating_sub(r.start));
            let old = if pushes == 0 { 0 } else { len as u64 + pushes - pops };
            prop_assert_eq!(span_peak(len, w, r, legacy) as u64, old);
        }
    }

    /// Pipelines of wide greedy stages: every mix of lane widths and FIFO
    /// depths must come out of span dispatch bit-identical to dense
    /// stepping — the rate, exactness, and mid-span-park arithmetic all sit
    /// on this path.
    #[test]
    fn wide_chain_reports_match_dense(
        data in vec(-128i32..128, 1..200),
        src_lanes in 1usize..6,
        stages in vec((-5i32..6, -100i32..101, 1usize..6, 1usize..24), 1..5),
    ) {
        let expect = reference(
            &data,
            &stages.iter().map(|&(mul, add, ..)| (mul, add)).collect::<Vec<_>>(),
        );
        let run = |scheduler| {
            let (mut g, handle) = build_wide_chain(data.clone(), src_lanes, &stages, scheduler);
            let report = g.run(BUDGET).expect("wide chain must complete");
            (handle.take(), report)
        };
        let (_, dense) = run(SchedulerMode::Dense);
        for mode in &SchedulerMode::ALL[1..] {
            let (out, report) = run(*mode);
            prop_assert_eq!(&out, &expect, "{:?}", mode);
            prop_assert_eq!(&report, &dense, "{:?} diverges from dense", mode);
        }
    }
}

/// Wide kernels must actually take part in bursts, at their lane width and
/// at sub-lane exact rates — otherwise the rate arithmetic above is dead
/// code that trivially "matches" dense.
#[test]
fn bursts_fire_on_a_wide_chain() {
    let data: Vec<i32> = (0..4096).collect();
    // Lane-width traffic: a 4-wide source into 4-wide stages over deep
    // FIFOs (the sink's one-per-cycle drain backs up only at the end).
    let fast = [(3, 7, 4, 8192), (-1, 11, 4, 8192)];
    let (mut g, handle) = build_wide_chain(data.clone(), 4, &fast, SchedulerMode::Span);
    let report = g.run(BUDGET).expect("run");
    assert_eq!(handle.take(), reference(&data, &[(3, 7), (-1, 11)]));
    assert!(g.burst_cycles() > 0, "no burst on a wide pipeline");
    assert!(
        report.kernels[1].busy < 4096 / 2,
        "4-wide stage should need far fewer than one tick per element: {}",
        report.kernels[1].busy
    );
    // Sub-lane traffic: the same stages behind a one-per-cycle source run
    // one element per tick — an exact promise, every tick.
    let (mut g, handle) = build_wide_chain(data.clone(), 1, &fast, SchedulerMode::Span);
    let report = g.run(BUDGET).expect("run");
    assert_eq!(handle.take(), reference(&data, &[(3, 7), (-1, 11)]));
    assert_eq!(report.kernels[1].busy, 4096, "one tick per element");
    assert!(
        g.burst_cycles() * 2 > report.cycles,
        "exact-rate spans should cover most of the run: {} of {}",
        g.burst_cycles(),
        report.cycles
    );
}

/// Bursts must actually engage on a span-capable chain — otherwise the
/// whole macro-tick path is dead code that trivially "matches" dense.
#[test]
fn bursts_fire_on_a_span_capable_chain() {
    let data: Vec<i32> = (0..512).collect();
    let stages = [(3, 7), (-1, 11)];
    let (mut g, handle, _) =
        build_chain(data.clone(), &stages, 16, SchedulerMode::Span, None);
    let report = g.run(BUDGET).expect("run");
    assert_eq!(handle.take(), reference(&data, &stages));
    assert!(
        g.bursts() > 0,
        "no burst fired on a fully span-capable pipeline"
    );
    // And the spans must have paid: far fewer dispatches than cycles.
    assert!(report.cycles >= 512);

    let (mut g_off, handle_off, _) =
        build_chain(data.clone(), &stages, 16, SchedulerMode::ReadyList, None);
    let report_off = g_off.run(BUDGET).expect("run");
    assert_eq!(handle_off.take(), reference(&data, &stages));
    assert_eq!(g_off.bursts(), 0, "the ready-list tier must never burst");
    assert_eq!(report, report_off, "dispatch mode leaked into the report");
}

/// Mid-run mode switches are safe: bursts leave no cross-cycle state, so
/// dropping a tier with `set_scheduler` between segments of a multi-image
/// run keeps the stream contents coherent.
#[test]
fn mode_switch_mid_run_preserves_output() {
    let stages = [(5, -3)];
    let all: Vec<i32> = (-100..100).collect();
    let expect = reference(&all, &stages);
    // Run the first half with spans on, then flip them off and continue on
    // the same graph with the remaining input arriving via a second run.
    let (mut g, handle, _) =
        build_chain(all.clone(), &stages, 8, SchedulerMode::Span, None);
    // Step a bounded prefix: too few cycles to finish, enough to burst.
    let _ = g.run_opts(64, false);
    g.set_scheduler(SchedulerMode::ReadyList);
    g.run_opts(BUDGET, false).expect("finish per-element");
    assert_eq!(handle.take(), expect);
}
