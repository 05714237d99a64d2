//! The depth-first window buffer the convolution and pooling kernels share
//! (paper §III-B1b, Fig. 4a; §III-B2).
//!
//! A [`WindowCursor`] walks the windows of a [`qnn_tensor::Window`] in
//! row-scan order: a window is *taken* once all its elements have arrived,
//! and reading stops at the completing element of the next window not yet
//! taken — a further element would land in a ring slot that window still
//! needs — or at the image end once every window is taken. After the last
//! window, the image fully read and the kernel owing no results, the
//! cursor starts the next image.

use dfe_platform::{Io, Progress, SpanIo};
use qnn_tensor::Window;
use std::cell::Cell;

/// Ring storage for a window buffer: slot `s` holds the element whose
/// stream index is `≡ s` modulo the buffer size.
pub(crate) trait Ring {
    /// Store one element in `slot`.
    fn set(&mut self, slot: usize, v: i32);
    /// Store `vals` in consecutive slots from `slot` on, wrapping at the end.
    fn write_run(&mut self, slot: usize, vals: &[i32]);
}

/// A scalar ring (the pool's, and the i8 first layer's).
impl Ring for Vec<i32> {
    #[inline]
    fn set(&mut self, slot: usize, v: i32) {
        self[slot] = v;
    }

    /// `ring[(slot + j) % len] = vals[j]` as block copies (a run longer
    /// than the ring overwrites its own head).
    fn write_run(&mut self, mut slot: usize, mut vals: &[i32]) {
        while !vals.is_empty() {
            let (run, rest) = vals.split_at((self.len() - slot).min(vals.len()));
            self[slot..slot + run.len()].copy_from_slice(run);
            vals = rest;
            slot = 0;
        }
    }
}

/// Check the folding of a windowed kernel: `pe` results emitted and `simd`
/// elements read per tick, each a positive lane count.
pub(crate) fn check_folding(pe: usize, simd: usize) {
    assert!(pe >= 1 && simd >= 1, "folding factors must be ≥ 1");
    let lanes = u16::MAX as usize;
    assert!(pe <= lanes && simd <= lanes, "folding factor exceeds the lane-count range");
}

/// Where a cursor stands: the counters its port behaviour follows. A span
/// chain walks copies of it forward from the live cursor.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub(crate) struct Mark {
    /// Elements of the current image received.
    pub received: usize,
    /// The next window to take.
    pub pos: usize,
}

/// The depth-first window buffer and its read discipline (module docs).
pub(crate) struct WindowCursor<R> {
    win: Window,
    /// `win.positions()`, `win.input.len()` and `win.depth_first_buffer()`,
    /// kept so the per-clock checks divide nothing.
    positions: usize,
    total: usize,
    buffer: usize,
    ring: R,
    at: Mark,
    /// Ring slot the next element lands in (≡ `received % capacity`, kept
    /// incrementally: the hot loop runs once per clock).
    wr: usize,
    /// Memo of the last completion query, `(pos, win.completes_at(pos))`:
    /// the tick loop asks about the same window for thousands of
    /// consecutive clocks, and the div/mod inside is measurable at ImageNet
    /// scale.
    memo: Cell<(usize, usize)>,
}

impl<R: Ring> WindowCursor<R> {
    /// A cursor over `win` (which must [`Window::check`]) whose ring `ring`
    /// builds with the depth-first buffer's size.
    pub(crate) fn new(win: Window, ring: impl FnOnce(usize) -> R) -> Self {
        let buffer = win.depth_first_buffer();
        Self {
            win,
            positions: win.positions(),
            total: win.input.len(),
            buffer,
            ring: ring(buffer),
            at: Mark::default(),
            wr: 0,
            memo: Cell::new((usize::MAX, 0)),
        }
    }

    pub(crate) fn window(&self) -> &Window {
        &self.win
    }

    pub(crate) fn ring(&self) -> &R {
        &self.ring
    }

    pub(crate) fn mark(&self) -> Mark {
        self.at
    }

    #[inline]
    fn completes_at(&self, pos: usize) -> usize {
        let (memo_pos, count) = self.memo.get();
        if memo_pos == pos {
            return count;
        }
        let count = self.win.completes_at(pos);
        self.memo.set((pos, count));
        count
    }

    /// How far `received` may run with window `pos` the next to take: to
    /// that window's completing element, or to the image end once every
    /// window is taken.
    #[inline]
    pub(crate) fn limit(&self, pos: usize) -> usize {
        if pos < self.positions {
            self.completes_at(pos)
        } else {
            self.total
        }
    }

    /// Whether, at `mark`, the next window to take has all its elements in.
    #[inline]
    pub(crate) fn ready(&self, mark: Mark) -> bool {
        mark.pos < self.positions && mark.received >= self.completes_at(mark.pos)
    }

    /// Take the next window if all its elements are in: its position.
    #[inline]
    pub(crate) fn take(&mut self) -> Option<usize> {
        let pos = self.at.pos;
        self.ready(self.at).then(|| {
            self.at.pos += 1;
            pos
        })
    }

    /// The rest of window `pos`'s output row, from `mark` with exactly that
    /// window's elements in: each window after it completes `stride·C`
    /// elements after the one before, so a kernel states windows
    /// `pos..pos + n` as one phase repeated `n` times. Returns `n` and the
    /// mark with window `pos + n` just complete, not yet taken. `None` when
    /// more or fewer elements are in, or for a row's last window, which
    /// reads on into the next row.
    pub(crate) fn row_run(&self, mark: Mark, pos: usize) -> Option<(u32, Mark)> {
        if pos >= self.positions || mark.received != self.win.completes_at(pos) {
            return None;
        }
        let out_w = self.win.output().w;
        let n = out_w - 1 - pos % out_w;
        let end = pos + n;
        (n > 0).then(|| (n as u32, Mark { received: self.win.completes_at(end), pos: end }))
    }

    /// `mark`, or the start of the next image when it stands at the end of
    /// this one and the kernel owes no results (`idle`).
    pub(crate) fn settle(&self, mark: Mark, idle: bool) -> Mark {
        if idle && mark.pos == self.positions && mark.received == self.total {
            Mark::default()
        } else {
            mark
        }
    }

    /// Start the next image if this one is done (see [`WindowCursor::settle`]).
    #[inline]
    pub(crate) fn settle_live(&mut self, idle: bool) {
        if self.settle(self.at, idle) != self.at {
            self.rearm();
        }
    }

    /// Back to the first element of an image with no window taken. Ring
    /// contents are not cleared: a window is taken only after all its
    /// elements arrived in *this* image.
    pub(crate) fn rearm(&mut self) {
        self.at = Mark::default();
        self.wr = 0;
    }

    /// One read of a tick: the next element of input port 0 into the ring,
    /// if the read limit allows and one is queued. A read makes the tick
    /// `Busy`; a dry port makes an `Idle` one `Stalled`. Whether an element
    /// landed.
    #[inline]
    pub(crate) fn read(&mut self, io: &mut Io<'_>, progress: &mut Progress) -> bool {
        if self.at.received >= self.limit(self.at.pos) {
            return false;
        }
        let Some(v) = io.read(0) else {
            if *progress == Progress::Idle {
                *progress = Progress::Stalled;
            }
            return false;
        };
        self.ring.set(self.wr, v);
        self.wr += 1;
        if self.wr == self.buffer {
            self.wr = 0;
        }
        self.at.received += 1;
        *progress = Progress::Busy;
        true
    }

    /// A span segment's reads: up to `quota` elements of input port 0, as
    /// far as the read limit allows, landed in the ring as one run. How
    /// many (taken off `quota`).
    pub(crate) fn read_span(&mut self, io: &mut SpanIo<'_>, quota: &mut usize) -> usize {
        let n = (*quota).min(self.limit(self.at.pos) - self.at.received);
        if n > 0 {
            io.pop_n(0, n as u64, |vals| {
                self.ring.write_run(self.wr, vals);
                self.wr = (self.wr + vals.len()) % self.buffer;
            });
            self.at.received += n;
            *quota -= n;
        }
        n
    }
}
