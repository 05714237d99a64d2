//! Border-padding insertion (paper §III-B1).
//!
//! "If the image is padded, then, when the kernel is processing padding
//! pixels, it stops the input stream and inputs padding values into the
//! buffer instead." We factor that behaviour into its own kernel so the
//! convolution kernel always sees a pre-padded stream; the clock cost (one
//! cycle per padded element) is identical.

use dfe_platform::{Io, Kernel, Progress, SpanIo, SpanPhase, SpanPlan, WakeHint, MAX_SPAN_PHASES};
use qnn_tensor::Shape3;

/// A scan position in the *padded* output image.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct PadPos {
    y: usize,
    x: usize,
    c: usize,
}

/// Inserts `pad` rows/columns of `fill` around each image of the stream.
pub struct PadInserter {
    name: String,
    input: Shape3,
    pad: usize,
    fill: i32,
    /// Position of the next element, kept as explicit (y, x, c) counters —
    /// the kernel runs once per clock, and deriving the coordinates from a
    /// linear index would cost two divisions per tick.
    pos: PadPos,
    /// Elements passed through per tick (1 ⇒ the one-per-clock contract;
    /// more than 1 models the widened stream interface in front of a
    /// folded consumer).
    lanes: usize,
}

impl PadInserter {
    /// Create a pad inserter for images of shape `input`.
    pub fn new(name: impl Into<String>, input: Shape3, pad: usize, fill: i32) -> Self {
        assert!(pad > 0, "useless pad inserter (pad = 0)");
        Self { name: name.into(), input, pad, fill, pos: PadPos { y: 0, x: 0, c: 0 }, lanes: 1 }
    }

    /// Rebuild with a widened stream interface: pass up to `lanes` elements
    /// per tick. Element order is unchanged, so the padded stream is
    /// bit-identical at any width. Must be applied before streaming starts.
    pub fn with_lanes(mut self, lanes: usize) -> Self {
        assert!(self.pos == PadPos { y: 0, x: 0, c: 0 }, "lane change mid-stream");
        assert!((1..=u16::MAX as usize).contains(&lanes), "lane count out of range");
        self.lanes = lanes;
        self
    }

    /// Shape of the padded output image.
    pub fn output_shape(&self) -> Shape3 {
        Shape3::new(self.input.h + 2 * self.pad, self.input.w + 2 * self.pad, self.input.c)
    }

    /// Is `pos` a border (padding) element?
    fn is_border(&self, pos: PadPos) -> bool {
        let (y, x) = (pos.y, pos.x);
        y < self.pad || y >= self.pad + self.input.h || x < self.pad || x >= self.pad + self.input.w
    }

    /// Elements from `pos` to the end of its run of same-kind elements: to
    /// the first interior pixel on the left border, to the right border
    /// inside a row, and (conservatively — the next row may extend the
    /// border) to the row end on the top/bottom rows and the right border.
    fn run_len(&self, pos: PadPos) -> usize {
        let out = self.output_shape();
        let in_row = pos.y >= self.pad && pos.y < self.pad + self.input.h;
        let end_x = if in_row && pos.x < self.pad {
            self.pad
        } else if in_row && pos.x < self.pad + self.input.w {
            self.pad + self.input.w
        } else {
            out.w
        };
        (end_x - pos.x) * out.c - pos.c
    }

    /// `pos` advanced `n` elements within its row (wrapping to the next
    /// row, and at the image end to the next image, when it completes it).
    fn advance_in_row(&self, pos: PadPos, n: usize) -> PadPos {
        let out = self.output_shape();
        let at = pos.x * out.c + pos.c + n;
        debug_assert!(at <= out.w * out.c, "advance past the row end");
        let (x, c) = (at / out.c, at % out.c);
        if x == out.w {
            PadPos { y: (pos.y + 1) % out.h, x: 0, c }
        } else {
            PadPos { y: pos.y, x, c }
        }
    }

    /// Advance the scan position one element, wrapping at image end.
    fn advance(&mut self) {
        let out = self.output_shape();
        let pos = &mut self.pos;
        pos.c += 1;
        if pos.c == out.c {
            pos.c = 0;
            pos.x += 1;
            if pos.x == out.w {
                pos.x = 0;
                pos.y += 1;
                if pos.y == out.h {
                    pos.y = 0; // next image
                }
            }
        }
    }

    /// The run that starts at `pos` as a span phase: a border run writes
    /// `fill` without reading, an interior run passes elements through.
    fn phase(&self, pos: PadPos) -> SpanPhase {
        let reads = u32::from(!self.is_border(pos));
        let phase = SpanPhase::coupled(self.run_len(pos) as u64, reads, 0b1)
            .lanes(self.lanes)
            .stalls(Progress::Stalled);
        // A folded tick finishing a run with lanes to spare goes on into
        // the next one.
        if self.lanes > 1 {
            phase.spills()
        } else {
            phase
        }
    }
}

impl Kernel for PadInserter {
    fn name(&self) -> &str {
        &self.name
    }

    fn tick(&mut self, io: &mut Io<'_>) -> Progress {
        let mut moved = 0;
        while moved < self.lanes {
            if !io.can_write(0) {
                break;
            }
            if self.is_border(self.pos) {
                io.write(0, self.fill);
            } else {
                match io.read(0) {
                    Some(v) => io.write(0, v),
                    None => break,
                }
            }
            self.advance();
            moved += 1;
        }
        if moved > 0 {
            Progress::Busy
        } else {
            Progress::Stalled
        }
    }

    /// Back to the top-left corner of the padded image.
    fn rearm(&mut self) {
        self.pos = PadPos { y: 0, x: 0, c: 0 };
    }

    /// Stalls only on output backpressure or a starved interior pixel;
    /// both are port-inert and resolve only via stream events (a folded
    /// tick that moved nothing touched no port either).
    fn wake_hint(&self) -> WakeHint {
        WakeHint::Parkable
    }

    /// Widened stream interface (see [`PadInserter::with_lanes`]).
    fn lanes(&self) -> (u16, u16) {
        (self.lanes as u16, self.lanes as u16)
    }

    /// One phase per run of same-kind elements: border runs emit `fill`
    /// without reading, interior runs pass elements straight through (runs
    /// end conservatively at row ends for border rows), chained row after
    /// row. A tick moves as many elements as its lanes, the queued input
    /// and the free output slots allow, and one that moves nothing is a
    /// bare `Stalled` stall — exactly `tick`'s behaviour.
    fn span_hint(&self, _in_len: &[usize], _out_room: &[usize]) -> Option<SpanPlan> {
        let mut plan = SpanPlan::of(self.phase(self.pos));
        let mut pos = self.advance_in_row(self.pos, self.run_len(self.pos));
        // Runs of one kind merge into one phase (every run does when `pad`
        // is 0), so bound the walk rather than wait for the chain to fill.
        for _ in 0..4 * MAX_SPAN_PHASES {
            if !plan.push(self.phase(pos)) {
                break;
            }
            pos = self.advance_in_row(pos, self.run_len(pos));
        }
        Some(plan)
    }

    /// One run of same-kind elements at a time: a border run is a fill, an
    /// interior run a queue-to-queue move.
    fn run_span(&mut self, io: &mut SpanIo<'_>, _n: u64) {
        let mut left = io.write_quota(0) as usize;
        while left > 0 {
            let run = self.run_len(self.pos).min(left);
            if self.is_border(self.pos) {
                io.push_fill(0, self.fill, run as u64);
            } else {
                io.transfer(0, 0, run as u64);
            }
            self.pos = self.advance_in_row(self.pos, run);
            left -= run;
        }
    }

    /// The scan position is the only state; linearize it over the padded
    /// image (it wraps at the image boundary, so the token is periodic
    /// across a steady-state image stream).
    fn replay_token(&self) -> Option<u64> {
        let out = self.output_shape();
        let PadPos { y, x, c } = self.pos;
        Some(((y * out.w + x) * out.c + c) as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dfe_platform::{Graph, HostSink, HostSource, StreamSpec};
    use qnn_tensor::Tensor3;

    fn run_pad(input: Tensor3<i32>, pad: usize, fill: i32, images: usize) -> Vec<i32> {
        let shape = input.shape();
        let mut data = Vec::new();
        for _ in 0..images {
            data.extend_from_slice(input.as_slice());
        }
        let padded_len = (shape.h + 2 * pad) * (shape.w + 2 * pad) * shape.c * images;
        let mut g = Graph::new();
        let a = g.add_stream(StreamSpec::new("in", 8, 16));
        let b = g.add_stream(StreamSpec::new("out", 8, 16));
        g.add_kernel(Box::new(HostSource::new("src", data)), &[], &[a]);
        g.add_kernel(Box::new(PadInserter::new("pad", shape, pad, fill)), &[a], &[b]);
        let (sink, handle) = HostSink::new("dst", padded_len);
        g.add_kernel(Box::new(sink), &[b], &[]);
        g.run(1_000_000).expect("pad run");
        handle.take()
    }

    #[test]
    fn padded_stream_matches_tensor_pad() {
        let t = Tensor3::from_fn(Shape3::new(3, 4, 2), |y, x, c| (y * 100 + x * 10 + c) as i32 + 1);
        let got = run_pad(t.clone(), 2, -1, 1);
        let expect = t.pad(2, -1);
        assert_eq!(got, expect.as_slice());
    }

    #[test]
    fn multi_image_padding_resets_between_images() {
        let t = Tensor3::from_fn(Shape3::new(2, 2, 1), |y, x, _| (y * 2 + x) as i32 + 5);
        let got = run_pad(t.clone(), 1, 0, 3);
        let one = t.pad(1, 0);
        let mut expect = Vec::new();
        for _ in 0..3 {
            expect.extend_from_slice(one.as_slice());
        }
        assert_eq!(got, expect);
    }

    #[test]
    fn widened_pad_is_bit_identical() {
        let t = Tensor3::from_fn(Shape3::new(3, 4, 2), |y, x, c| (y * 9 + x * 2 + c) as i32);
        let shape = t.shape();
        let padded_len = (shape.h + 2) * (shape.w + 2) * shape.c;
        let run = |lanes: usize| {
            let mut g = Graph::new();
            let a = g.add_stream(StreamSpec::new("in", 8, 16));
            let b = g.add_stream(StreamSpec::new("out", 8, 64));
            g.add_kernel(Box::new(HostSource::new("src", t.as_slice().to_vec())), &[], &[a]);
            g.add_kernel(
                Box::new(PadInserter::new("pad", shape, 1, -9).with_lanes(lanes)),
                &[a],
                &[b],
            );
            let (sink, handle) = HostSink::new("dst", padded_len);
            g.add_kernel(Box::new(sink), &[b], &[]);
            g.run(1_000_000).expect("pad run");
            handle.take()
        };
        let base = run(1);
        assert_eq!(base, t.pad(1, -9).as_slice());
        for lanes in [2, 3, 8] {
            assert_eq!(run(lanes), base, "lanes {lanes} changed padded stream");
        }
    }

    #[test]
    #[should_panic(expected = "useless pad")]
    fn zero_pad_rejected() {
        let _ = PadInserter::new("p", Shape3::new(2, 2, 1), 0, 0);
    }
}
