//! The streaming convolution kernel (paper §III-B1, Fig. 3).
//!
//! Dataflow per clock cycle:
//!
//! * **Fill**: one stream element (one channel value, depth-first order)
//!   enters the shift-register window buffer of `I·(W·(K−1)+K)` elements —
//!   the Fig. 4a depth-first buffer, realized by the window cursor the
//!   pooling kernel shares as a ring indexed by the element's absolute
//!   stream position.
//! * **Compute**: once every element of the next valid window has arrived,
//!   the window is latched and the kernel emits one output per clock — one
//!   filter (XNOR-popcount against one weight-cache entry) per cycle, `O`
//!   cycles per position — optionally pushing each accumulator through its
//!   fused BatchNorm+activation thresholds.
//! * Invalid positions (borders already consumed by the upstream
//!   [`crate::PadInserter`], stride gaps) never cost compute cycles, which
//!   is where the stride-4 first layer gets its ~13× speedup (§III-B1).
//! * **Drain**: trailing input elements that no window needs (bottom rows
//!   under striding) are still consumed so the upstream never blocks, then
//!   the kernel resets for the next image.
//!
//! Two input-control disciplines are provided:
//!
//! * [`ConvKernel::new`] — **overlapped** (default): like any MaxJ kernel,
//!   one tick can simultaneously absorb an input element and emit an
//!   output, so a layer is busy for ≈ `max(inputs, outputs)` cycles per
//!   image. This is the discipline consistent with the paper's *measured*
//!   numbers (0.8 ms for CNV at 32², > 60 fps at 144²), which are below the
//!   serialized `inputs + outputs` bound.
//! * [`ConvKernel::new_halted`] — **halt-strict**: the literal reading of
//!   §III-B1 ("the kernel halts the input and calculates one output pixel
//!   per clock cycle"): no input is accepted while a position's filters are
//!   being emitted, giving `inputs + outputs` busy cycles. Kept as an
//!   ablation (`paper-tables ablations`).
//!
//! # Busy-path datapath
//!
//! The *modeled* cycle behavior above is fixed; the simulator computes
//! each busy cycle's arithmetic pack-on-arrival: code-mode inputs land
//! directly in a [`PlaneRing`] (O(bits) bit writes per input tick; inside a
//! span, one masked word store per plane per 64 arriving codes), a window
//! latch is `K` contiguous bit-span copies per plane, and all `O` filter
//! accumulators are precomputed in one weights-stationary blocked bit-GEMM
//! ([`qnn_quant::conv_accumulate_all`]) and pushed through the fused
//! thresholds in one banked compare pass ([`ThresholdBank`]) at latch time;
//! each emit tick pops one finished stream element, and a span pushes a
//! slice of them. The i8 first layer keeps a scalar ring, gathers the
//! latched window as one `pixel + 128` lane per tap, and adds each lane
//! through tap-major filter masks into 64 filter accumulators side by side
//! ([`qnn_quant::conv_accumulate_i8_lanes`]).
//!
//! Where the arithmetic happens never changes `tick`'s I/O decisions, so
//! the oracles sit outside the kernel: values are held against the
//! reference interpreter (`qnn_nn::reference`, this module's
//! `matches_reference_*` tests and the `property_streaming` battery), and
//! cycle reports against dense stepping (the dense oracle).

use crate::loader::{LoadStep, ParamLoader};
use crate::window::{check_folding, Mark, Ring, WindowCursor};
use dfe_platform::{Io, Kernel, Progress, SpanIo, SpanPhase, SpanPlan, WakeHint};
use qnn_quant::{
    conv_accumulate_all, conv_accumulate_i8_lanes, ActPlanes, I8Masks, PlaneRing, ThresholdBank,
    ThresholdUnit,
};
use qnn_tensor::{BinaryFilters, BitVec, ConvGeometry};

/// Input-operand flavor of the dot-product datapath.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DotMode {
    /// Signed 8-bit fixed-point pixels (the CPU-fed first layer).
    I8,
    /// n-bit activation codes, bit-plane decomposed.
    Codes {
        /// Activation bits (2 in the paper).
        bits: u32,
    },
}

/// The window ring: bit planes for code streams, scalars for the i8 first
/// layer.
enum WindowRing {
    Scalar(Vec<i32>),
    Packed(PlaneRing),
}

impl Ring for WindowRing {
    #[inline]
    fn set(&mut self, slot: usize, v: i32) {
        match self {
            WindowRing::Scalar(r) => r[slot] = v,
            // Pack on arrival: O(bits) plane writes, high bits dropped.
            WindowRing::Packed(r) => r.set(slot, v as u8),
        }
    }

    /// A block copy, or a word-packed plane write.
    fn write_run(&mut self, slot: usize, vals: &[i32]) {
        match self {
            WindowRing::Scalar(r) => r.write_run(slot, vals),
            WindowRing::Packed(r) => r.write_codes(slot, vals),
        }
    }
}

/// The convolution's control state — the counters its port behaviour
/// follows — as a span chain walks it forward from the live kernel.
#[derive(Clone, Copy)]
struct ConvCtl {
    at: Mark,
    emitting: Option<usize>,
}

/// The streaming convolution kernel.
pub struct ConvKernel {
    name: String,
    geom: ConvGeometry,
    filters: BinaryFilters,
    /// The fused BatchNorm+activation thresholds as a comparator bank,
    /// fired on every accumulator of a window at latch time.
    bank: Option<ThresholdBank>,
    /// `filters` as the first layer's lane masks (i8 mode only).
    i8_masks: Option<I8Masks>,
    /// The window buffer; a window latches when the cursor takes it.
    cursor: WindowCursor<WindowRing>,
    /// Next filter to emit for the latched position, the one before the
    /// cursor's next (None ⇒ filling).
    emitting: Option<usize>,
    /// Halt the input while emitting (see the module docs).
    halt_input: bool,
    /// Output-channel unrolling: filter results emitted per tick (never
    /// crossing a position boundary), FINN's PE folding knob. 1 ⇒ the
    /// paper's one-output-per-clock datapath.
    pe: usize,
    /// Input-window unrolling: elements absorbed per tick, FINN's SIMD
    /// folding knob. 1 ⇒ one stream element per clock.
    simd: usize,
    /// Parameter loader, present until the CPU finishes streaming the
    /// weight/threshold caches over input port 1 (§III-B1a).
    loader: Option<ParamLoader>,
    /// `(with_thresholds, act_bits)` of a [`ConvKernel::new_streamed`]
    /// kernel: what a re-arm needs to expect the parameter stream again.
    streamed: Option<(bool, u32)>,
    // --- scratch (reused across positions, no per-cycle allocation) ---
    planes: ActPlanes,
    /// The latched i8 window as lanes of `pixel + 128`, one per tap.
    i8_lanes: Vec<u16>,
    /// Stream elements of the latched position, finished at latch time:
    /// every filter's accumulator, through the fused thresholds when
    /// present. Emit tick `o` pops `latched[o]`.
    latched: Vec<i32>,
}

impl ConvKernel {
    /// Create a convolution kernel.
    ///
    /// `geom.pad` must be zero: padding is inserted upstream by
    /// [`crate::PadInserter`], so the kernel sees the padded geometry.
    pub fn new(
        name: impl Into<String>,
        geom: ConvGeometry,
        filters: BinaryFilters,
        thresholds: Option<Vec<ThresholdUnit>>,
        mode: DotMode,
    ) -> Self {
        Self::build(name, geom, filters, thresholds, mode, false)
    }

    /// A kernel whose caches arrive over a second input port as a 32-bit
    /// parameter stream before inference begins (§III-B1a): weights as
    /// floats (binarized by `Sign` on arrival), then — when
    /// `with_thresholds` — the wire-encoded fused BatchNorm units.
    /// Port 0 is the feature-map stream, port 1 the parameter stream.
    pub fn new_streamed(
        name: impl Into<String>,
        geom: ConvGeometry,
        mode: DotMode,
        with_thresholds: bool,
        act_bits: u32,
    ) -> Self {
        let placeholder = BinaryFilters::from_rows(
            (0..geom.filter.o).map(|_| BitVec::zeros(geom.filter.weights_per_filter())).collect(),
        );
        let mut k = Self::build(name, geom, placeholder, None, mode, false);
        k.streamed = Some((with_thresholds, act_bits));
        k.loader = k.fresh_loader();
        k
    }

    /// The loader a streamed kernel starts a run with.
    fn fresh_loader(&self) -> Option<ParamLoader> {
        self.streamed.map(|(with_thresholds, act_bits)| {
            ParamLoader::new(
                self.geom.filter.weights_per_filter(),
                self.geom.filter.o,
                with_thresholds,
                act_bits,
            )
        })
    }

    /// The halt-strict variant of §III-B1 (see the module docs).
    pub fn new_halted(
        name: impl Into<String>,
        geom: ConvGeometry,
        filters: BinaryFilters,
        thresholds: Option<Vec<ThresholdUnit>>,
        mode: DotMode,
    ) -> Self {
        Self::build(name, geom, filters, thresholds, mode, true)
    }

    fn build(
        name: impl Into<String>,
        geom: ConvGeometry,
        filters: BinaryFilters,
        thresholds: Option<Vec<ThresholdUnit>>,
        mode: DotMode,
        halt_input: bool,
    ) -> Self {
        assert_eq!(geom.pad, 0, "padding must be inserted upstream of ConvKernel");
        assert_eq!(filters.num_filters(), geom.filter.o, "filter count mismatch");
        assert_eq!(
            filters.bits_per_filter(),
            geom.filter.weights_per_filter(),
            "filter width mismatch"
        );
        if let Some(t) = &thresholds {
            assert_eq!(t.len(), geom.filter.o, "one threshold unit per output map");
        }
        let wsize = geom.filter.weights_per_filter();
        let bits = match mode {
            DotMode::Codes { bits } => bits,
            DotMode::I8 => 1, // planes unused in i8 mode
        };
        let i8_masks = (mode == DotMode::I8).then(|| I8Masks::new(&filters));
        let ring = |buffer| match mode {
            DotMode::Codes { bits } => WindowRing::Packed(PlaneRing::new(bits, buffer)),
            DotMode::I8 => WindowRing::Scalar(vec![0; buffer]),
        };
        Self {
            name: name.into(),
            geom,
            filters,
            bank: thresholds.as_deref().map(ThresholdBank::new),
            i8_masks,
            cursor: WindowCursor::new(geom.window(), ring),
            emitting: None,
            halt_input,
            pe: 1,
            simd: 1,
            loader: None,
            streamed: None,
            planes: ActPlanes::new(bits, wsize),
            i8_lanes: if mode == DotMode::I8 { vec![0; wsize] } else { Vec::new() },
            latched: vec![0; geom.filter.o],
        }
    }

    /// Rebuild this kernel with PE/SIMD folding: emit up to `pe` filter
    /// results and absorb up to `simd` input elements per tick, through a
    /// correspondingly widened stream interface ([`Kernel::lanes`]).
    /// Output element order is unchanged — filters ascending within each
    /// position, positions in scan order — so results are bit-identical to
    /// the unfolded kernel at any folding. Must be applied before any input
    /// is streamed; the halt-strict ablation stays at folding 1.
    pub fn with_folding(mut self, pe: usize, simd: usize) -> Self {
        assert_eq!(self.cursor.mark(), Mark::default(), "folding change mid-stream");
        check_folding(pe, simd);
        assert!(
            !self.halt_input || (pe == 1 && simd == 1),
            "halt-strict ablation does not support folding"
        );
        self.pe = pe;
        self.simd = simd;
        self
    }

    /// The active `(pe, simd)` folding factors.
    pub fn folding(&self) -> (usize, usize) {
        (self.pe, self.simd)
    }

    /// The loader has delivered the caches: install them.
    fn install_params(&mut self, filters: BinaryFilters, thresholds: Option<Vec<ThresholdUnit>>) {
        if self.i8_masks.is_some() {
            self.i8_masks = Some(I8Masks::new(&filters));
        }
        self.filters = filters;
        if let Some(t) = thresholds {
            self.bank = Some(ThresholdBank::new(&t));
        }
    }

    /// Latch the current window out of the ring: span-copy the packed
    /// planes (or gather the i8 lanes), precompute *all* filter
    /// accumulators and run them through the threshold bank now — the emit
    /// loop just pops finished elements. The comparators see nothing but
    /// the latched accumulator, so firing them here instead of on the emit
    /// clock is unobservable.
    fn latch_window(&mut self, pos: usize) {
        let win = self.cursor.window();
        let (origin, k, row) = (win.origin(pos), win.k, win.input.w * win.input.c);
        let i = win.input.c;
        match self.cursor.ring() {
            WindowRing::Packed(ring) => {
                // K contiguous bit-spans of K·I slots, one ring row apart.
                let start = origin % ring.capacity();
                ring.extract_window(start, k, k * i, row, &mut self.planes);
                conv_accumulate_all(&self.filters, &self.planes, &mut self.latched);
            }
            WindowRing::Scalar(ring) => {
                let masks = self.i8_masks.as_ref().expect("an i8 kernel has lane masks");
                // K window rows of K·I contiguous stream elements, each at
                // most two runs of the ring: one lane per tap.
                let (cap, run) = (ring.len(), k * i);
                for (ky, lanes) in self.i8_lanes.chunks_exact_mut(run).enumerate() {
                    let start = (origin + ky * row) % cap;
                    let head = run.min(cap - start);
                    let (lead, wrap) = lanes.split_at_mut(head);
                    for (lane, &v) in lead.iter_mut().zip(&ring[start..start + head]) {
                        *lane = (v + 128) as u16;
                    }
                    for (lane, &v) in wrap.iter_mut().zip(&ring[..run - head]) {
                        *lane = (v + 128) as u16;
                    }
                }
                conv_accumulate_i8_lanes(masks, &self.i8_lanes, &mut self.latched);
            }
        }
        if let Some(bank) = &self.bank {
            bank.activate_all(&mut self.latched);
        }
    }

    /// Latch the next window as soon as it is complete.
    #[inline]
    fn latch_if_ready(&mut self) {
        if self.emitting.is_none() {
            if let Some(pos) = self.cursor.take() {
                self.latch_window(pos);
                self.emitting = Some(0);
            }
        }
    }

    /// Filters `..next` of the latched position are out: move the emit
    /// cursor, back to filling after the last filter.
    #[inline]
    fn advance_emit(&mut self, next: usize) {
        self.emitting = (next < self.geom.filter.o).then_some(next);
    }

    /// The phase that starts in control state `ctl`, and the control state
    /// it leaves. With a window latched (or completing at the top of the
    /// next tick) the phase emits the position's remaining results while —
    /// unless halt-strict — absorbing up to the next window's completing
    /// element; otherwise it fills up to the current window's. `None` when
    /// there is nothing left to do.
    fn phase(&self, ctl: ConvCtl) -> Option<(SpanPhase, ConvCtl)> {
        let mut at = ctl.at;
        let emit_from = match ctl.emitting {
            Some(o) => Some(o),
            None if self.cursor.ready(at) => {
                at.pos += 1;
                Some(0)
            }
            None => None,
        };
        if emit_from.is_none() || !self.halt_input {
            at.received = self.cursor.limit(at.pos);
        }
        let reads = at.received - ctl.at.received;
        let writes = emit_from.map_or(0, |o| self.geom.filter.o - o);
        if reads == 0 && writes == 0 {
            return None;
        }
        let next = ConvCtl { at: self.cursor.settle(at, true), emitting: None };
        let phase =
            SpanPhase::overlapped(0b1, reads as u64, self.simd, 0b1, writes as u64, self.pe);
        Some((phase, next))
    }

    /// [`ConvKernel::phase`], with the positions after it that repeat it:
    /// a whole position (its window complete, nothing of the next read yet)
    /// absorbs the `stride·I` elements that complete the next window while
    /// it emits, and so does every position of the row after it but the
    /// last, which reads on into the next row ([`WindowCursor::row_run`]).
    /// The halt-strict kernel alternates an emit phase with a fill phase
    /// and repeats nothing.
    fn run(&self, ctl: ConvCtl) -> Option<(SpanPhase, ConvCtl)> {
        let (phase, next) = self.phase(ctl)?;
        if self.halt_input || ctl.emitting.unwrap_or(0) != 0 {
            return Some((phase, next));
        }
        let pos = ctl.at.pos - usize::from(ctl.emitting.is_some());
        match self.cursor.row_run(ctl.at, pos) {
            Some((n, at)) => Some((phase.times(n), ConvCtl { at, emitting: None })),
            None => Some((phase, next)),
        }
    }
}

impl Kernel for ConvKernel {
    fn name(&self) -> &str {
        &self.name
    }

    fn tick(&mut self, io: &mut Io<'_>) -> Progress {
        // Parameter-loading phase: one cache word per clock from port 1;
        // the feature-map port backs up until the caches are complete.
        if let Some(loader) = &mut self.loader {
            return match io.read(1) {
                Some(word) => {
                    if let LoadStep::Done(filters, thresholds) = loader.push(word) {
                        self.loader = None;
                        self.install_params(filters, thresholds);
                    }
                    Progress::Busy
                }
                None => Progress::Stalled,
            };
        }

        let mut progress = Progress::Idle;
        self.latch_if_ready();

        // Emit up to `pe` filter results this clock (one for the unfolded
        // kernel), never crossing the position boundary — the next window
        // latches at the top of a later tick, keeping the per-position cost
        // at ⌈O/pe⌉ cycles exactly as the analytic model charges it.
        let mut did_emit = false;
        if self.emitting.is_some() {
            let mut emitted = 0;
            while let Some(o) = self.emitting {
                if emitted == self.pe || !io.can_write(0) {
                    break;
                }
                io.write(0, self.latched[o]);
                emitted += 1;
                self.advance_emit(o + 1);
            }
            if emitted > 0 {
                progress = Progress::Busy;
                did_emit = true;
            } else {
                progress = Progress::Stalled;
            }
        }

        // Absorb up to `simd` input elements, bounded by the next unlatched
        // window ([`WindowCursor::read`]). In halt-strict mode no input
        // moves in a cycle that produced output.
        if !(self.halt_input && (did_emit || self.emitting.is_some())) {
            let mut absorbed = 0;
            while absorbed < self.simd && self.cursor.read(io, &mut progress) {
                absorbed += 1;
            }
        }

        self.cursor.settle_live(self.emitting.is_none());
        progress
    }

    /// Back to the first element of an image with nothing latched. A run
    /// can stop with trailing rows no window reads still owed, or (an early
    /// layer of a multi-device split) mid-position. Preloaded weight caches
    /// stay; a streamed kernel expects its parameter stream again, as a
    /// freshly built one does. Ring contents are not cleared: a window
    /// latches only after all its elements arrived in *this* image.
    fn rearm(&mut self) {
        self.cursor.rearm();
        self.emitting = None;
        self.loader = self.fresh_loader();
    }

    /// Every non-`Busy` verdict (loader waiting on a parameter word, input
    /// starved, output or halt-strict window blocked) is port-inert and
    /// repeats unchanged until a stream event, so the kernel can park.
    /// This holds for folded ticks too: a non-`Busy` folded tick emitted
    /// and absorbed nothing, and re-running it against unchanged streams
    /// repeats the verdict.
    fn wake_hint(&self) -> WakeHint {
        WakeHint::Parkable
    }

    /// Folded stream-interface width: `simd` read lanes, `pe` write lanes.
    fn lanes(&self) -> (u16, u16) {
        (self.simd as u16, self.pe as u16)
    }

    /// One overlapped phase per position (see `ConvKernel::phase`): the
    /// emit side moves up to `pe` results per tick as the output frees, the
    /// absorb side up to `simd` elements per tick as input arrives, up to
    /// the cursor's read limit, the next window's completing element. The
    /// next window latches at the top of the tick after both sides are
    /// through, which is where the next phase starts — position after
    /// position, the identical positions of a row's interior as one
    /// repeated phase (`ConvKernel::run`), so a chain covers rows. A
    /// streamed kernel's parameter load comes first: one word per tick from
    /// port 1. A tick that can do nothing is a bare `Stalled` stall.
    fn span_hint(&self, _in_len: &[usize], _out_room: &[usize]) -> Option<SpanPlan> {
        let mut ctl = ConvCtl { at: self.cursor.mark(), emitting: self.emitting };
        let mut plan = match &self.loader {
            Some(loader) => {
                let load = SpanPhase::coupled(loader.remaining() as u64, 0b10, 0);
                SpanPlan::of(load.stalls(Progress::Stalled))
            }
            None => {
                let (first, next) = self.phase(ctl)?;
                ctl = next;
                SpanPlan::of(first)
            }
        };
        while let Some((phase, next)) = self.run(ctl) {
            if !plan.push(phase) {
                break;
            }
            ctl = next;
        }
        Some(plan)
    }

    /// Control state is the phase machine: loader progress, absorb count,
    /// window position and latch flag. The ring write index tracks
    /// `received` modulo the ring length and the latched window codes are
    /// data (they never alter port behaviour), so neither enters the token.
    fn replay_token(&self) -> Option<u64> {
        let at = self.cursor.mark();
        Some(dfe_platform::replay::token_mix(&[
            at.received as u64,
            at.pos as u64,
            self.emitting.map_or(u64::MAX, |o| o as u64),
            self.loader.as_ref().map_or(u64::MAX, |l| l.remaining() as u64),
        ]))
    }

    /// Replicates `tick`'s state machine — latch, emit, absorb, reset — one
    /// *segment* at a time, with slice-level queue transfers in place of the
    /// staged `Io` port protocol: a segment emits the rest of the latched
    /// position and absorbs up to the window bound (both within the
    /// quotas), and the order of pops and pushes across ports is
    /// unobservable, so the segment's finished elements go out as one slice
    /// and its arrivals land in the ring as one run.
    fn run_span(&mut self, io: &mut SpanIo<'_>, _n: u64) {
        if let Some(loader) = &mut self.loader {
            let mut done = None;
            io.pop_n(1, io.read_quota(1), |words| {
                for &word in words {
                    if let LoadStep::Done(filters, thresholds) = loader.push(word) {
                        done = Some((filters, thresholds));
                    }
                }
            });
            if let Some((filters, thresholds)) = done {
                self.loader = None;
                self.install_params(filters, thresholds);
            }
        }
        let (mut reads, mut writes) = (io.read_quota(0) as usize, io.write_quota(0) as usize);
        loop {
            self.latch_if_ready();
            let mut emitted = 0;
            if let Some(o) = self.emitting {
                emitted = writes.min(self.geom.filter.o - o);
                io.push_slice(0, &self.latched[o..o + emitted]);
                self.advance_emit(o + emitted);
                writes -= emitted;
            }
            let absorbed = if self.halt_input && self.emitting.is_some() {
                0
            } else {
                self.cursor.read_span(io, &mut reads)
            };
            self.cursor.settle_live(self.emitting.is_none());
            if emitted == 0 && absorbed == 0 {
                break;
            }
        }
        debug_assert_eq!((reads, writes), (0, 0), "conv span quota past its promise");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dfe_platform::{Graph, HostSink, HostSource, StreamSpec};
    use qnn_quant::{BnParams, QuantSpec};
    use qnn_tensor::{FilterShape, Shape3, Tensor3};

    fn filters_for(geom: &ConvGeometry, seed: u64) -> BinaryFilters {
        let w: Vec<f32> = (0..geom.filter.total_weights())
            .map(|i| if (i as u64).wrapping_mul(seed * 2 + 1) % 5 < 2 { 1.0 } else { -1.0 })
            .collect();
        BinaryFilters::from_float_rows(&w, geom.filter.weights_per_filter())
    }

    /// Run one or more images through a lone conv kernel in the simulator.
    fn run_conv_kernel(
        kernel: ConvKernel,
        out_len: usize,
        images: Vec<Vec<i32>>,
    ) -> (Vec<i32>, dfe_platform::CycleReport) {
        let data: Vec<i32> = images.into_iter().flatten().collect();
        let mut g = Graph::new();
        let a = g.add_stream(StreamSpec::new("in", 8, 32));
        let b = g.add_stream(StreamSpec::new("out", 16, 32));
        g.add_kernel(Box::new(HostSource::new("src", data)), &[], &[a]);
        g.add_kernel(Box::new(kernel), &[a], &[b]);
        let (sink, handle) = HostSink::new("dst", out_len);
        g.add_kernel(Box::new(sink), &[b], &[]);
        let report = g.run(10_000_000).expect("conv run");
        (handle.take(), report)
    }

    fn run_conv(
        geom: ConvGeometry,
        filters: BinaryFilters,
        thresholds: Option<Vec<ThresholdUnit>>,
        mode: DotMode,
        images: Vec<Vec<i32>>,
    ) -> (Vec<i32>, dfe_platform::CycleReport) {
        let out_len = geom.output().len() * images.len();
        run_conv_kernel(ConvKernel::new("conv", geom, filters, thresholds, mode), out_len, images)
    }

    fn run_conv_halted(
        geom: ConvGeometry,
        filters: BinaryFilters,
        mode: DotMode,
        images: Vec<Vec<i32>>,
    ) -> (Vec<i32>, dfe_platform::CycleReport) {
        let out_len = geom.output().len() * images.len();
        run_conv_kernel(ConvKernel::new_halted("conv", geom, filters, None, mode), out_len, images)
    }

    #[test]
    fn matches_reference_conv_codes() {
        let geom = ConvGeometry::new(Shape3::new(6, 5, 3), FilterShape::new(3, 3, 4), 1, 0);
        let filters = filters_for(&geom, 3);
        let input = Tensor3::from_fn(geom.input, |y, x, c| ((y * 7 + x * 3 + c) % 4) as u8);
        let expect = qnn_nn::reference::conv_acc_codes(&geom, &input, &filters, 2);
        let (got, _) = run_conv(
            geom,
            filters,
            None,
            DotMode::Codes { bits: 2 },
            vec![input.as_slice().iter().map(|&q| i32::from(q)).collect()],
        );
        assert_eq!(got, expect.as_slice());
    }

    #[test]
    fn matches_reference_conv_i8() {
        // Windows of 18 and 75 taps (one and two words of weight bits), and
        // ResNet-18's stem scaled down: 7×7×3 filters at stride 2, 65 of
        // them (a 64-filter block and a one-filter tail group), over a map
        // wide enough that windows wrap the ring. Extreme pixels included,
        // two images back to back, and a folded run that must match.
        for (input, k, o, stride) in [
            (Shape3::new(7, 7, 2), 3, 3, 1),
            (Shape3::new(7, 7, 3), 5, 3, 1),
            (Shape3::new(11, 13, 3), 7, 65, 2),
        ] {
            let geom = ConvGeometry::new(input, FilterShape::new(k, input.c, o), stride, 0);
            let filters = filters_for(&geom, 7);
            let input = Tensor3::from_fn(geom.input, |y, x, c| match (y + x + c) % 7 {
                0 => i8::MIN,
                1 => i8::MAX,
                _ => ((y * 31 + x * 13 + c * 5) as i32 % 200 - 100) as i8,
            });
            let expect = qnn_nn::reference::conv_acc_i8(&geom, &input, &filters);
            let img: Vec<i32> = input.as_slice().iter().map(|&p| i32::from(p)).collect();
            let kernel = ConvKernel::new("conv", geom, filters.clone(), None, DotMode::I8);
            let (got, _) = run_conv_kernel(kernel, 2 * geom.output().len(), vec![img.clone(); 2]);
            let twice = [expect.as_slice(), expect.as_slice()].concat();
            assert_eq!(got, twice, "{geom:?}");
            let kernel = ConvKernel::new("conv", geom, filters, None, DotMode::I8);
            let (got, _) =
                run_conv_kernel(kernel.with_folding(4, 3), 2 * geom.output().len(), vec![img; 2]);
            assert_eq!(got, twice, "folded {geom:?}");
        }
        // The stem case's premise: some window row runs off the ring's end.
        let geom = ConvGeometry::new(Shape3::new(11, 13, 3), FilterShape::new(7, 3, 65), 2, 0);
        let (k, s, w, c) = (geom.filter.k, geom.stride, geom.input.w, geom.input.c);
        let (cap, out) = (geom.depth_first_buffer(), geom.output());
        let wraps = (0..out.h * out.w).any(|pos| {
            let (ty, tx) = (pos / out.w * s, pos % out.w * s);
            (0..k).any(|ky| ((ty + ky) * w + tx) * c % cap + k * c > cap)
        });
        assert!(wraps, "no window wraps the ring");
    }

    #[test]
    fn strided_conv_matches_reference_and_drains() {
        let geom = ConvGeometry::new(Shape3::new(7, 7, 2), FilterShape::new(3, 2, 2), 2, 0);
        let filters = filters_for(&geom, 11);
        let input = Tensor3::from_fn(geom.input, |y, x, c| ((y + 2 * x + c) % 4) as u8);
        let expect = qnn_nn::reference::conv_acc_codes(&geom, &input, &filters, 2);
        // Two images back to back: the drain/reset path must keep them aligned.
        let img: Vec<i32> = input.as_slice().iter().map(|&q| i32::from(q)).collect();
        let (got, _) =
            run_conv(geom, filters, None, DotMode::Codes { bits: 2 }, vec![img.clone(), img]);
        let mut expect2 = expect.as_slice().to_vec();
        expect2.extend_from_slice(expect.as_slice());
        assert_eq!(got, expect2);
    }

    #[test]
    fn thresholded_output_matches_reference() {
        let geom = ConvGeometry::new(Shape3::new(5, 5, 2), FilterShape::new(3, 2, 3), 1, 0);
        let filters = filters_for(&geom, 5);
        let spec = QuantSpec::paper_2bit();
        let thresholds: Vec<ThresholdUnit> = (0..3)
            .map(|i| {
                ThresholdUnit::from_batchnorm(&BnParams::new(1.0, i as f32 - 1.0, 0.5, 1.0), &spec)
            })
            .collect();
        let input = Tensor3::from_fn(geom.input, |y, x, c| ((y * x + c) % 4) as u8);
        let acc = qnn_nn::reference::conv_acc_codes(&geom, &input, &filters, 2);
        let expect = qnn_nn::reference::apply_thresholds(&acc, &thresholds);
        let (got, _) = run_conv(
            geom,
            filters,
            Some(thresholds),
            DotMode::Codes { bits: 2 },
            vec![input.as_slice().iter().map(|&q| i32::from(q)).collect()],
        );
        let got_codes: Vec<u8> = got.iter().map(|&v| v as u8).collect();
        assert_eq!(got_codes, expect.as_slice());
    }

    #[test]
    fn halted_busy_cycles_are_inputs_plus_outputs() {
        // Halt-strict mode serializes: busy = inputs + outputs (§III-B1).
        let geom = ConvGeometry::new(Shape3::new(6, 6, 2), FilterShape::new(3, 2, 4), 1, 0);
        let filters = filters_for(&geom, 13);
        let input = Tensor3::from_fn(geom.input, |_, _, _| 1u8);
        let img: Vec<i32> = input.as_slice().iter().map(|&q| i32::from(q)).collect();
        let (_, report) = run_conv_halted(geom, filters, DotMode::Codes { bits: 2 }, vec![img]);
        let conv_stats = &report.kernels[1];
        let expect = geom.input.len() as u64 + geom.output().len() as u64;
        assert_eq!(conv_stats.busy, expect);
    }

    #[test]
    fn overlapped_mode_beats_halted_mode() {
        // Overlapped I/O finishes in ≈max(in, out) cycles; halted needs
        // in + out. Results must be identical either way.
        let geom = ConvGeometry::new(Shape3::new(8, 8, 2), FilterShape::new(3, 2, 4), 1, 0);
        let input = Tensor3::from_fn(geom.input, |y, x, c| ((y + x + c) % 4) as u8);
        let img: Vec<i32> = input.as_slice().iter().map(|&q| i32::from(q)).collect();
        let (out_o, rep_o) = run_conv(
            geom,
            filters_for(&geom, 13),
            None,
            DotMode::Codes { bits: 2 },
            vec![img.clone()],
        );
        let (out_h, rep_h) =
            run_conv_halted(geom, filters_for(&geom, 13), DotMode::Codes { bits: 2 }, vec![img]);
        assert_eq!(out_o, out_h, "discipline must not change results");
        let (inputs, outputs) = (geom.input.len() as u64, geom.output().len() as u64);
        assert!(rep_o.cycles < rep_h.cycles, "overlap must be faster");
        assert!(rep_o.cycles >= inputs.max(outputs));
        assert!(rep_h.cycles >= inputs + outputs);
    }

    #[test]
    fn stride_skips_halts_giving_first_layer_speedup() {
        // §III-B1: with stride S the kernel halts at ~1/S² of positions.
        // Compare halted-mode busy cycles of stride 1 vs stride 2.
        let mk =
            |stride| ConvGeometry::new(Shape3::new(9, 9, 1), FilterShape::new(3, 1, 8), stride, 0);
        let input = Tensor3::from_fn(Shape3::new(9, 9, 1), |y, x, _| ((y + x) % 4) as u8);
        let img: Vec<i32> = input.as_slice().iter().map(|&q| i32::from(q)).collect();
        let mut busy = Vec::new();
        for stride in [1usize, 2] {
            let geom = mk(stride);
            let (_, report) = run_conv_halted(
                geom,
                filters_for(&geom, 17),
                DotMode::Codes { bits: 2 },
                vec![img.clone()],
            );
            busy.push(report.kernels[1].busy);
        }
        // stride 1: 81 + 49·8 = 473; stride 2: 81 + 16·8 = 209.
        assert_eq!(busy[0], 473);
        assert_eq!(busy[1], 209);
    }

    #[test]
    fn one_by_one_conv_acts_as_fully_connected() {
        // FC = 1×1 conv over a 1×1×F map (paper §III-B4).
        let f = 10;
        let geom = ConvGeometry::new(Shape3::new(1, 1, f), FilterShape::new(1, f, 4), 1, 0);
        let filters = filters_for(&geom, 23);
        let codes: Vec<u8> = (0..f).map(|i| (i % 4) as u8).collect();
        let expect = qnn_nn::reference::fully_connected(&codes, &filters, 2);
        let (got, _) = run_conv(
            geom,
            filters,
            None,
            DotMode::Codes { bits: 2 },
            vec![codes.iter().map(|&q| i32::from(q)).collect()],
        );
        assert_eq!(got, expect);
    }

    #[test]
    fn strided_windows_match_reference_in_both_modes() {
        // Stride 2 over a 7×6 map, two images back to back: both rings
        // (packed codes, scalar i8) skip the stride gaps and drain the
        // unread last column between images.
        let geom = ConvGeometry::new(Shape3::new(7, 6, 3), FilterShape::new(3, 3, 5), 2, 0);
        let filters = filters_for(&geom, 29);
        let input = Tensor3::from_fn(geom.input, |y, x, c| ((y * 11 + x * 5 + c * 3) % 4) as u8);
        let img: Vec<i32> = input.as_slice().iter().map(|&q| i32::from(q)).collect();
        let codes_ref = qnn_nn::reference::conv_acc_codes(&geom, &input, &filters, 2);
        let i8_ref = qnn_nn::reference::conv_acc_i8(&geom, &input.map(|q| q as i8), &filters);
        for (mode, expect) in [(DotMode::Codes { bits: 2 }, codes_ref), (DotMode::I8, i8_ref)] {
            let kernel = ConvKernel::new("conv", geom, filters.clone(), None, mode);
            let (got, _) = run_conv_kernel(kernel, 2 * geom.output().len(), vec![img.clone(); 2]);
            assert_eq!(got, [expect.as_slice(), expect.as_slice()].concat(), "{mode:?}");
        }
    }

    #[test]
    fn folded_conv_is_bit_identical_and_faster() {
        // PE/SIMD folding must never change results (element order is
        // preserved) and must strictly reduce cycles once both absorb and
        // emit are unrolled.
        // Output-heavy geometry (O = 32 ⇒ outputs 1152 ≫ inputs 192): the
        // unfolded makespan is emit-bound, which PE folding attacks
        // directly; the source still feeds one element per cycle, so the
        // folded floor is the input length, not zero.
        let geom = ConvGeometry::new(Shape3::new(8, 8, 3), FilterShape::new(3, 3, 32), 1, 0);
        let filters = filters_for(&geom, 31);
        let input = Tensor3::from_fn(geom.input, |y, x, c| ((y * 13 + x * 7 + c) % 4) as u8);
        let img: Vec<i32> = input.as_slice().iter().map(|&q| i32::from(q)).collect();
        let out_len = geom.output().len() * 2;
        let mk =
            || ConvKernel::new("conv", geom, filters.clone(), None, DotMode::Codes { bits: 2 });
        // Unthrottled output FIFO: the stock helper's 32-deep FIFO plus the
        // one-pop-per-cycle host sink would cap the emit rate at one element
        // per cycle and hide the folded datapath's rate entirely.
        let run = |kernel: ConvKernel| {
            let data: Vec<i32> = [img.clone(), img.clone()].concat();
            let mut g = Graph::new();
            let a = g.add_stream(StreamSpec::new("in", 8, 32));
            let b = g.add_stream(StreamSpec::new("out", 16, out_len));
            g.add_kernel(Box::new(HostSource::new("src", data)), &[], &[a]);
            g.add_kernel(Box::new(kernel), &[a], &[b]);
            let (sink, handle) = HostSink::new("dst", out_len);
            g.add_kernel(Box::new(sink), &[b], &[]);
            let report = g.run(10_000_000).expect("conv run");
            (handle.take(), report)
        };
        let (base_out, base_rep) = run(mk());
        for (pe, simd) in [(2, 1), (1, 2), (4, 4), (8, 8), (16, 64)] {
            let (out, rep) = run(mk().with_folding(pe, simd));
            assert_eq!(out, base_out, "folding ({pe},{simd}) changed results");
            assert!(
                rep.kernels[1].busy <= base_rep.kernels[1].busy,
                "folding ({pe},{simd}) raised busy cycles: {} > {}",
                rep.kernels[1].busy,
                base_rep.kernels[1].busy
            );
        }
        // The makespan stays source-bound (the host feeds one element per
        // cycle), but the conv's own busy cycles must collapse once emit
        // and absorb are unrolled.
        let (_, rep44) = run(mk().with_folding(4, 4));
        assert!(
            rep44.kernels[1].busy * 2 < base_rep.kernels[1].busy,
            "4×4 folding should at least halve busy cycles: {} vs {}",
            rep44.kernels[1].busy,
            base_rep.kernels[1].busy
        );
    }

    #[test]
    #[should_panic(expected = "folding factors must be ≥ 1")]
    fn zero_folding_rejected() {
        let geom = ConvGeometry::new(Shape3::new(4, 4, 1), FilterShape::new(3, 1, 2), 1, 0);
        let _ = ConvKernel::new("c", geom, filters_for(&geom, 1), None, DotMode::Codes { bits: 2 })
            .with_folding(0, 1);
    }

    #[test]
    #[should_panic(expected = "halt-strict ablation does not support folding")]
    fn halted_folding_rejected() {
        let geom = ConvGeometry::new(Shape3::new(4, 4, 1), FilterShape::new(3, 1, 2), 1, 0);
        let _ = ConvKernel::new_halted(
            "c",
            geom,
            filters_for(&geom, 1),
            None,
            DotMode::Codes { bits: 2 },
        )
        .with_folding(2, 1);
    }

    #[test]
    #[should_panic(expected = "padding must be inserted upstream")]
    fn padded_geometry_rejected() {
        let geom = ConvGeometry::new(Shape3::new(4, 4, 1), FilterShape::new(3, 1, 1), 1, 1);
        let _ = ConvKernel::new("c", geom, filters_for(&geom, 1), None, DotMode::Codes { bits: 2 });
    }
}
