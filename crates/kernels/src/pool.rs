//! Streaming pooling kernel (paper §III-B2).
//!
//! "Since the pooling has no parameters, output pixels are calculated as
//! soon as enough data is accumulated inside the internal buffers … we do
//! not need to wait until input is finished, but can produce output at the
//! same clock cycle at which the input is received." The kernel therefore
//! overlaps reading and writing: each tick it may consume one element *and*
//! emit one pending output.

use crate::window::{check_folding, Mark, WindowCursor};
use dfe_platform::{Io, Kernel, Progress, SpanIo, SpanPhase, SpanPlan, WakeHint};
use qnn_tensor::{Shape3, Window};

/// Pooling operation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PoolOp {
    /// Maximum over the window (codes are order-preserving).
    Max,
    /// Window sum followed by a right shift of ⌊log₂ k²⌋ — the integral
    /// average pooling used before ResNet-18's classifier.
    AvgShift,
}

/// The pooling kernel's control state — the counters its port behaviour
/// follows — as a span chain walks it forward from the live kernel.
#[derive(Clone, Copy)]
struct PoolCtl {
    at: Mark,
    /// Results computed but not yet emitted.
    pending: usize,
}

/// The streaming pooling kernel. It slides the convolution's depth-first
/// window buffer ([`crate::ConvKernel`]), but per channel and without
/// weights, and folds a window in on the tick it completes. Input must be
/// pre-padded (use [`crate::PadInserter`]).
pub struct PoolKernel {
    name: String,
    op: PoolOp,
    cursor: WindowCursor<Vec<i32>>,
    /// The `I` channel results of the last taken window, of which
    /// `pending[sent..]` still wait for their emit tick.
    pending: Vec<i32>,
    sent: usize,
    /// Per-channel window sums of an [`PoolOp::AvgShift`] position.
    sums: Vec<i64>,
    /// Outputs emitted per tick (write-lane folding; 1 ⇒ one per clock).
    pe: usize,
    /// Inputs absorbed per tick (read-lane folding; 1 ⇒ one per clock).
    simd: usize,
}

impl PoolKernel {
    /// Create a pooling kernel over (pre-padded) images of shape `input`.
    ///
    /// # Panics
    /// Panics if the window does not fit ([`Window::check`]).
    pub fn new(
        name: impl Into<String>,
        input: Shape3,
        k: usize,
        stride: usize,
        op: PoolOp,
    ) -> Self {
        let win = Window::new(input, k, stride);
        if let Err(reason) = win.check() {
            panic!("pool {reason}");
        }
        Self {
            name: name.into(),
            op,
            cursor: WindowCursor::new(win, |buffer| vec![0; buffer]),
            pending: Vec::with_capacity(input.c),
            sent: 0,
            sums: Vec::new(),
            pe: 1,
            simd: 1,
        }
    }

    /// Rebuild with stream-width folding: absorb up to `simd` inputs and
    /// emit up to `pe` pending outputs per tick through a widened stream
    /// interface. Output order is unchanged, so results are bit-identical
    /// at any folding. Must be applied before any input is streamed.
    pub fn with_folding(mut self, pe: usize, simd: usize) -> Self {
        assert_eq!(self.cursor.mark(), Mark::default(), "folding change mid-stream");
        check_folding(pe, simd);
        self.pe = pe;
        self.simd = simd;
        self
    }

    /// Output shape.
    pub fn output_shape(&self) -> Shape3 {
        self.cursor.window().output()
    }

    /// Results computed but not yet emitted.
    fn pending_len(&self) -> usize {
        self.pending.len() - self.sent
    }

    /// Compute all `I` channel outputs of window `pos` (only ever called
    /// with nothing pending). The `I` channels of one window tap sit side
    /// by side in the ring, so each tap folds into the results as a slice
    /// pass (two at the ring seam).
    fn compute_position(&mut self, pos: usize) {
        let win = self.cursor.window();
        let (origin, k, w, i) = (win.origin(pos), win.k, win.input.w, win.input.c);
        let ring = self.cursor.ring();
        let cap = ring.len();
        self.pending.clear();
        self.sent = 0;
        match self.op {
            PoolOp::Max => self.pending.resize(i, i32::MIN),
            PoolOp::AvgShift => {
                self.sums.clear();
                self.sums.resize(i, 0);
            }
        }
        for ky in 0..k {
            for kx in 0..k {
                let start = (origin + (ky * w + kx) * i) % cap;
                let head = i.min(cap - start);
                let halves = [(0, &ring[start..start + head]), (head, &ring[..i - head])];
                for (c, tap) in halves {
                    match self.op {
                        PoolOp::Max => {
                            for (max, &v) in self.pending[c..].iter_mut().zip(tap) {
                                *max = (*max).max(v);
                            }
                        }
                        PoolOp::AvgShift => {
                            for (sum, &v) in self.sums[c..].iter_mut().zip(tap) {
                                *sum += i64::from(v);
                            }
                        }
                    }
                }
            }
        }
        if self.op == PoolOp::AvgShift {
            let shift = ((k * k) as u32).ilog2();
            self.pending.extend(self.sums.iter().map(|&sum| (sum >> shift) as i32));
        }
    }

    /// Completed windows become pending outputs (combinational w.r.t. this
    /// model's bookkeeping; the emit itself still costs a cycle).
    fn fold_completed(&mut self) {
        while self.pending_len() == 0 {
            let Some(pos) = self.cursor.take() else { break };
            self.compute_position(pos);
        }
    }

    /// The phase that starts in control state `ctl` — emit the pending
    /// results while absorbing up to the next window's completing element —
    /// and the control state it leaves: the completed window folded in
    /// (pending again) and, at the image end, the reset. `None` when there
    /// is nothing left to do.
    fn phase(&self, ctl: PoolCtl) -> Option<(SpanPhase, PoolCtl)> {
        let mut at = Mark { received: self.cursor.limit(ctl.at.pos), ..ctl.at };
        let reads = at.received - ctl.at.received;
        if reads == 0 && ctl.pending == 0 {
            return None;
        }
        let mut phase =
            SpanPhase::overlapped(0b1, reads as u64, self.simd, 0b1, ctl.pending as u64, self.pe);
        if self.simd > 1 {
            // A wide absorb completing the window with the pending results
            // out folds the position in and reads on within the tick.
            phase = phase.spills();
        }
        let mut pending = 0;
        if self.cursor.ready(at) {
            at.pos += 1;
            pending = self.cursor.window().input.c;
        }
        Some((phase, PoolCtl { at: self.cursor.settle(at, pending == 0), pending }))
    }

    /// [`PoolKernel::phase`], with the windows after it that repeat it:
    /// once a window's results are pending, the next window of its row
    /// completes after `stride·I` more elements, and so does every window to
    /// the row's end ([`WindowCursor::row_run`]). So the rest of the row is
    /// one repeated phase, its end state computed arithmetically.
    fn run(&self, ctl: PoolCtl) -> Option<(SpanPhase, PoolCtl)> {
        let (phase, next) = self.phase(ctl)?;
        let taken = ctl.at.pos.checked_sub(1);
        let row = taken.filter(|_| ctl.pending == self.cursor.window().input.c);
        match row.and_then(|pos| self.cursor.row_run(ctl.at, pos)) {
            Some((n, at)) => {
                let at = Mark { pos: at.pos + 1, ..at };
                Some((phase.times(n), PoolCtl { at, pending: ctl.pending }))
            }
            None => Some((phase, next)),
        }
    }
}

impl Kernel for PoolKernel {
    fn name(&self) -> &str {
        &self.name
    }

    fn tick(&mut self, io: &mut Io<'_>) -> Progress {
        let mut progress = Progress::Idle;

        // Emit up to `pe` pending outputs (same cycle as reads — no halt).
        let mut emitted = 0;
        while emitted < self.pe && self.pending_len() > 0 {
            if io.can_write(0) {
                io.write(0, self.pending[self.sent]);
                self.sent += 1;
                emitted += 1;
                progress = Progress::Busy;
            } else {
                if emitted == 0 {
                    progress = Progress::Stalled;
                }
                break;
            }
        }

        // Absorb up to `simd` inputs, each bounded by the cursor's read
        // limit, the completing element of the next untaken window. (Gating
        // on the *pending* length instead is wrong: under output
        // backpressure the queue can sit partially drained for many cycles
        // while reads run ahead and clobber that window's ring slots.)
        // Completed windows are folded in between reads so a wide absorb
        // can cross a window boundary once backpressure allows it.
        let mut absorbed = 0;
        while absorbed < self.simd && self.cursor.read(io, &mut progress) {
            absorbed += 1;
            self.fold_completed();
        }

        self.fold_completed();
        self.cursor.settle_live(self.pending_len() == 0);
        progress
    }

    /// Back to the first element of an image with nothing pending. A run
    /// can stop while the last input row or column — which no window reads
    /// when `(size − k) % stride ≠ 0` — is still owed.
    fn rearm(&mut self) {
        self.cursor.rearm();
        self.pending.clear();
        self.sent = 0;
    }

    /// Pooling decisions are made within the tick that has the data; a
    /// stalled or idle tick touches nothing and repeats until its input
    /// commits or its output drains.
    fn wake_hint(&self) -> WakeHint {
        WakeHint::Parkable
    }

    /// Folded stream-interface width: `simd` read lanes, `pe` write lanes.
    fn lanes(&self) -> (u16, u16) {
        (self.simd as u16, self.pe as u16)
    }

    /// One overlapped phase per position: emit the pending results (up to
    /// `pe` per tick, as the output frees) while absorbing (up to `simd`
    /// per tick, as input arrives) up to the element that completes the
    /// next window, whose results become pending on the tick after both
    /// sides are through — chained position after position, the rest of a
    /// row as one repeated phase (`PoolKernel::run`), so a chain covers
    /// rows. A tick that can do neither is a bare stall.
    fn span_hint(&self, _in_len: &[usize], _out_room: &[usize]) -> Option<SpanPlan> {
        let ctl = PoolCtl { at: self.cursor.mark(), pending: self.pending_len() };
        let (first, mut ctl) = self.phase(ctl)?;
        let mut plan = SpanPlan::of(first);
        while let Some((phase, next)) = self.run(ctl) {
            if !plan.push(phase) {
                break;
            }
            ctl = next;
        }
        Some(plan)
    }

    /// Control state: absorb count, emit position and the number of queued
    /// results (their *values* are data). The ring write index tracks
    /// `received` modulo the ring length, so it adds nothing.
    fn replay_token(&self) -> Option<u64> {
        let at = self.cursor.mark();
        Some(dfe_platform::replay::token_mix(&[
            at.received as u64,
            at.pos as u64,
            self.pending_len() as u64,
        ]))
    }

    /// `tick`'s state machine one segment at a time, like the
    /// convolution's: a segment emits what is pending and absorbs up to the
    /// window's completing element (both within the quotas), so no position
    /// can complete inside it — its emits go out as one slice, its arrivals
    /// land in the ring as one run, and the completed position is folded in
    /// at the boundary.
    fn run_span(&mut self, io: &mut SpanIo<'_>, _n: u64) {
        let (mut reads, mut writes) = (io.read_quota(0) as usize, io.write_quota(0) as usize);
        loop {
            let emit = writes.min(self.pending_len());
            if emit > 0 {
                io.push_slice(0, &self.pending[self.sent..self.sent + emit]);
                self.sent += emit;
                writes -= emit;
            }
            let absorb = self.cursor.read_span(io, &mut reads);
            self.fold_completed();
            self.cursor.settle_live(self.pending_len() == 0);
            if emit == 0 && absorb == 0 {
                break;
            }
        }
        debug_assert_eq!((reads, writes), (0, 0), "pool span quota past its promise");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dfe_platform::{Graph, HostSink, HostSource, StreamSpec};
    use qnn_tensor::Tensor3;

    fn run_pool(
        input: &Tensor3<u8>,
        k: usize,
        stride: usize,
        op: PoolOp,
        images: usize,
    ) -> (Vec<i32>, dfe_platform::CycleReport) {
        let shape = input.shape();
        let kernel = PoolKernel::new("pool", shape, k, stride, op);
        let out_len = kernel.output_shape().len() * images;
        let mut data = Vec::new();
        for _ in 0..images {
            data.extend(input.as_slice().iter().map(|&q| i32::from(q)));
        }
        let mut g = Graph::new();
        let a = g.add_stream(StreamSpec::new("in", 2, 32));
        let b = g.add_stream(StreamSpec::new("out", 2, 32));
        g.add_kernel(Box::new(HostSource::new("src", data)), &[], &[a]);
        g.add_kernel(Box::new(kernel), &[a], &[b]);
        let (sink, handle) = HostSink::new("dst", out_len);
        g.add_kernel(Box::new(sink), &[b], &[]);
        let report = g.run(1_000_000).expect("pool run");
        (handle.take(), report)
    }

    #[test]
    fn max_pool_matches_reference() {
        let input =
            Tensor3::from_fn(Shape3::new(6, 6, 3), |y, x, c| ((y * 5 + x * 2 + c) % 4) as u8);
        let expect = qnn_nn::reference::max_pool(&input, 2, 2, 0);
        let (got, _) = run_pool(&input, 2, 2, PoolOp::Max, 1);
        let got_u8: Vec<u8> = got.iter().map(|&v| v as u8).collect();
        assert_eq!(got_u8, expect.as_slice());
    }

    #[test]
    fn overlapping_max_pool_matches_reference() {
        // ResNet's stem pool is 3×3 stride 2 (overlapping windows).
        let input = Tensor3::from_fn(Shape3::new(7, 7, 2), |y, x, c| ((y + x + c) % 4) as u8);
        let expect = qnn_nn::reference::max_pool(&input, 3, 2, 0);
        let (got, _) = run_pool(&input, 3, 2, PoolOp::Max, 1);
        let got_u8: Vec<u8> = got.iter().map(|&v| v as u8).collect();
        assert_eq!(got_u8, expect.as_slice());
    }

    #[test]
    fn avg_shift_pool_matches_reference() {
        let input = Tensor3::from_fn(Shape3::new(7, 7, 4), |y, x, c| ((y * x + c) % 4) as u8);
        let expect = qnn_nn::reference::avg_sum_pool(&input, 7, 7);
        let (got, _) = run_pool(&input, 7, 7, PoolOp::AvgShift, 1);
        let got_u8: Vec<u8> = got.iter().map(|&v| v as u8).collect();
        assert_eq!(got_u8, expect.as_slice());
    }

    #[test]
    fn multi_image_pooling_stays_aligned() {
        let input = Tensor3::from_fn(Shape3::new(4, 4, 2), |y, x, c| ((3 * y + x + c) % 4) as u8);
        let expect = qnn_nn::reference::max_pool(&input, 2, 2, 0);
        let (got, _) = run_pool(&input, 2, 2, PoolOp::Max, 3);
        let mut expect3 = Vec::new();
        for _ in 0..3 {
            expect3.extend_from_slice(expect.as_slice());
        }
        let got_u8: Vec<u8> = got.iter().map(|&v| v as u8).collect();
        assert_eq!(got_u8, expect3);
    }

    #[test]
    fn pooling_overlaps_io_no_halt_penalty() {
        // Because reads and writes share cycles, a pool's makespan is close
        // to its input length, not input + output (§III-B2).
        let input = Tensor3::from_fn(Shape3::new(8, 8, 4), |y, x, c| ((y ^ x ^ c) % 4) as u8);
        let (_, report) = run_pool(&input, 2, 2, PoolOp::Max, 1);
        let n = input.shape().len() as u64;
        assert!(
            report.cycles <= n + 3 * (n / 4),
            "pooling serialized I/O: {} cycles for {} inputs",
            report.cycles,
            n
        );
    }

    #[test]
    fn folded_pool_is_bit_identical() {
        let input =
            Tensor3::from_fn(Shape3::new(8, 8, 3), |y, x, c| ((y * 5 + x * 3 + c) % 4) as u8);
        let shape = input.shape();
        let data: Vec<i32> = input.as_slice().iter().map(|&q| i32::from(q)).collect();
        let run = |pe: usize, simd: usize| {
            let kernel = PoolKernel::new("pool", shape, 3, 2, PoolOp::Max).with_folding(pe, simd);
            let out_len = kernel.output_shape().len();
            let mut g = Graph::new();
            let a = g.add_stream(StreamSpec::new("in", 2, 64));
            let b = g.add_stream(StreamSpec::new("out", 2, 64));
            g.add_kernel(Box::new(HostSource::new("src", data.clone())), &[], &[a]);
            g.add_kernel(Box::new(kernel), &[a], &[b]);
            let (sink, handle) = HostSink::new("dst", out_len);
            g.add_kernel(Box::new(sink), &[b], &[]);
            g.run(1_000_000).expect("pool run");
            handle.take()
        };
        let base = run(1, 1);
        for (pe, simd) in [(2, 2), (1, 4), (4, 1), (8, 8)] {
            assert_eq!(run(pe, simd), base, "folding ({pe},{simd}) changed pool output");
        }
    }

    #[test]
    #[should_panic(expected = "window larger")]
    fn oversize_window_rejected() {
        let _ = PoolKernel::new("p", Shape3::new(2, 2, 1), 3, 1, PoolOp::Max);
    }
}
