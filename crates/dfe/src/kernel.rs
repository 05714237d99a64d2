//! The kernel abstraction: a clocked state machine with ports.

use crate::stream::{front_slices, StreamState};

mod span;

pub use span::{SpanPhase, SpanPlan, MAX_GATHER_PORTS, MAX_SPAN_PHASES, MAX_SPAN_PORTS};

/// What a kernel accomplished during one tick; used for busy/stall
/// accounting and deadlock detection.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Progress {
    /// Read or wrote at least one element, or performed internal work.
    Busy,
    /// Wanted to work but was blocked on an empty input or full output.
    Stalled,
    /// Nothing to do (e.g. source exhausted, sink complete).
    Idle,
}

/// How the ready-list scheduler may treat a kernel whose tick did not
/// report [`Progress::Busy`] (see [`Kernel::wake_hint`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum WakeHint {
    /// Tick the kernel every cycle regardless of stream events — the safe
    /// default, and the dense stepping a
    /// [`DenseOracle`](crate::DenseOracle) relies on. Required for
    /// kernels whose tick has effects beyond the ports: advancing an
    /// internal clock or RNG, polling an external channel, shifting a
    /// non-empty delay line.
    #[default]
    AlwaysTick,
    /// The kernel may be *parked* after a `Stalled`/`Idle` tick and not
    /// ticked again until an input stream commits an element or an output
    /// stream's reader frees space.
    ///
    /// Contract (checked by a debug assertion in the scheduler): a tick
    /// that returns `Stalled` or `Idle` must be a **fixed point** — it
    /// must not have read or written any port, and re-running the kernel
    /// against unchanged stream state would return the same verdict with
    /// no internal-state change. Under that contract, skipping the
    /// repeated ticks is unobservable and the per-kernel busy/stall
    /// counters can be replayed exactly.
    Parkable,
}

/// Port-level I/O context handed to a kernel on each tick.
///
/// Enforces the clocked contract: at most [`Kernel::lanes`] reads per input
/// port and writes per output port per tick (one each for ordinary kernels;
/// a folded kernel widens its stream interface). Writes are staged and
/// become visible to the consumer on the next cycle.
pub struct Io<'a> {
    streams: &'a mut [StreamState],
    inputs: &'a [usize],
    outputs: &'a [usize],
    read_used: &'a mut [u16],
    write_used: &'a mut [u16],
    read_lanes: u16,
    write_lanes: u16,
}

impl<'a> Io<'a> {
    pub(crate) fn new(
        streams: &'a mut [StreamState],
        inputs: &'a [usize],
        outputs: &'a [usize],
        read_used: &'a mut [u16],
        write_used: &'a mut [u16],
        read_lanes: u16,
        write_lanes: u16,
    ) -> Self {
        Self {
            streams,
            inputs,
            outputs,
            read_used,
            write_used,
            read_lanes,
            write_lanes,
        }
    }

    /// Number of input ports.
    pub fn num_inputs(&self) -> usize {
        self.inputs.len()
    }

    /// Number of output ports.
    pub fn num_outputs(&self) -> usize {
        self.outputs.len()
    }

    /// Is an element available on input port `p` this cycle (a read lane
    /// left and a committed element queued)?
    pub fn can_read(&self, p: usize) -> bool {
        self.read_used[p] < self.read_lanes && self.streams[self.inputs[p]].can_read()
    }

    /// Consume one element from input port `p`. Returns `None` when the
    /// port is empty or all its read lanes are used this cycle.
    pub fn read(&mut self, p: usize) -> Option<i32> {
        if self.read_used[p] >= self.read_lanes {
            return None;
        }
        let s = &mut self.streams[self.inputs[p]];
        let v = s.queue.pop_front()?;
        self.read_used[p] += 1;
        Some(v)
    }

    /// Is there space to write on output port `p` this cycle (a write lane
    /// left and FIFO headroom counting this cycle's staged pushes)?
    pub fn can_write(&self, p: usize) -> bool {
        self.write_used[p] < self.write_lanes && self.streams[self.outputs[p]].can_write()
    }

    /// Produce one element on output port `p`.
    ///
    /// # Panics
    /// Panics when the port is full or out of write lanes this cycle —
    /// kernels must check [`Io::can_write`] first (a real kernel physically
    /// cannot emit into a full FIFO).
    pub fn write(&mut self, p: usize, v: i32) {
        assert!(
            self.write_used[p] < self.write_lanes,
            "output port {p} exceeded its {} write lane(s) in one cycle",
            self.write_lanes
        );
        let s = &mut self.streams[self.outputs[p]];
        assert!(
            s.can_write(),
            "write into full stream '{}' — kernel must check can_write",
            s.spec.name
        );
        s.staged.push(v);
        s.pushed += 1;
        self.write_used[p] += 1;
    }
}

/// Batched port access handed to [`Kernel::run_span`].
///
/// Unlike [`Io`], elements move directly through the FIFO queues: the
/// scheduler has already solved (from the [`SpanPlan`]s of every kernel the
/// burst touches plus stream occupancies) exactly which elements each port
/// moves over the burst, so the per-cycle staging buffer is bypassed and
/// occupancy statistics are credited arithmetically by the scheduler
/// afterwards. Each port moves exactly its *quota* ([`SpanIo::read_quota`],
/// [`SpanIo::write_quota`]). Per-port FIFO order is preserved exactly; the
/// interleaving of `pop`/`push` calls across ports within one dispatch is
/// unobservable, which is what lets a kernel move a whole run per port at
/// once — [`SpanIo::pop_n`], [`SpanIo::push_slice`], [`SpanIo::push_fill`],
/// [`SpanIo::transfer`] — instead of an element at a time.
pub struct SpanIo<'a> {
    streams: &'a mut [StreamState],
    inputs: &'a [usize],
    outputs: &'a [usize],
    read_quota: &'a [u64],
    write_quota: &'a [u64],
    #[cfg(debug_assertions)]
    reads_done: [u64; MAX_SPAN_PORTS],
    #[cfg(debug_assertions)]
    writes_done: [u64; MAX_SPAN_PORTS],
}

impl<'a> SpanIo<'a> {
    /// Port access for a dispatch moving `read_quota[p]` elements from each
    /// input port and `write_quota[p]` to each output port.
    pub(crate) fn new(
        streams: &'a mut [StreamState],
        inputs: &'a [usize],
        outputs: &'a [usize],
        read_quota: &'a [u64],
        write_quota: &'a [u64],
    ) -> Self {
        assert!(
            inputs.len() <= MAX_SPAN_PORTS && outputs.len() <= MAX_SPAN_PORTS,
            "span dispatch supports at most {MAX_SPAN_PORTS} ports per direction"
        );
        Self {
            streams,
            inputs,
            outputs,
            read_quota,
            write_quota,
            #[cfg(debug_assertions)]
            reads_done: [0; MAX_SPAN_PORTS],
            #[cfg(debug_assertions)]
            writes_done: [0; MAX_SPAN_PORTS],
        }
    }

    /// Elements this dispatch pops from input port `p`.
    pub fn read_quota(&self, p: usize) -> u64 {
        self.read_quota[p]
    }

    /// Elements this dispatch pushes to output port `p`.
    pub fn write_quota(&self, p: usize) -> u64 {
        self.write_quota[p]
    }

    /// Consume the next element from input port `p`.
    ///
    /// # Panics
    /// Panics if the queue is empty — the scheduler guarantees availability
    /// for exactly the quota, so an empty pop is a broken [`SpanPlan`]
    /// contract, not a stall.
    pub fn pop(&mut self, p: usize) -> i32 {
        // Contract bookkeeping for the dispatcher's debug audit only — the
        // counter arrays don't even exist in release builds.
        #[cfg(debug_assertions)]
        {
            self.reads_done[p] += 1;
        }
        self.streams[self.inputs[p]]
            .queue
            .pop_front()
            .expect("span pop from empty stream (SpanPlan contract violation)")
    }

    /// Produce the next element on output port `p`.
    pub fn push(&mut self, p: usize, v: i32) {
        let s = &mut self.streams[self.outputs[p]];
        s.queue.push_back(v);
        s.pushed += 1;
        #[cfg(debug_assertions)]
        {
            self.writes_done[p] += 1;
        }
    }

    /// Consume the next `n` elements from input port `p`, handing them to
    /// `f` in FIFO order as slices of the queue's own storage — at most
    /// two calls (a ring buffer is contiguous up to its seam), none when
    /// `n` is 0. Equivalent to `n` [`SpanIo::pop`] calls feeding `f` one
    /// element each; a kernel body working on whole slices (a bulk ring
    /// write, an `extend_from_slice`) pays no per-element port cost.
    ///
    /// # Panics
    /// Panics if fewer than `n` elements are queued (a broken
    /// [`SpanPlan`] contract, as with [`SpanIo::pop`]).
    pub fn pop_n(&mut self, p: usize, n: u64, mut f: impl FnMut(&[i32])) {
        #[cfg(debug_assertions)]
        {
            self.reads_done[p] += n;
        }
        let n = n as usize;
        let q = &mut self.streams[self.inputs[p]].queue;
        let (head, tail) = front_slices(q, n);
        for vals in [head, tail] {
            if !vals.is_empty() {
                f(vals);
            }
        }
        q.drain(..n);
    }

    /// Produce `vals` on output port `p`, in order. Equivalent to one
    /// [`SpanIo::push`] per element.
    pub fn push_slice(&mut self, p: usize, vals: &[i32]) {
        #[cfg(debug_assertions)]
        {
            self.writes_done[p] += vals.len() as u64;
        }
        let s = &mut self.streams[self.outputs[p]];
        s.pushed += vals.len() as u64;
        s.queue.extend(vals);
    }

    /// Produce `n` copies of `v` on output port `p`. Equivalent to `n`
    /// [`SpanIo::push`] calls.
    pub fn push_fill(&mut self, p: usize, v: i32, n: u64) {
        #[cfg(debug_assertions)]
        {
            self.writes_done[p] += n;
        }
        let s = &mut self.streams[self.outputs[p]];
        s.pushed += n;
        s.queue.resize(s.queue.len() + n as usize, v);
    }

    /// Move the next `n` elements of input port `from` to output port
    /// `to` unchanged, queue to queue. Equivalent to `n` times
    /// `push(to, pop(from))`.
    ///
    /// # Panics
    /// Panics if fewer than `n` elements are queued on `from`, or if both
    /// ports are the same stream.
    pub fn transfer(&mut self, from: usize, to: usize, n: u64) {
        #[cfg(debug_assertions)]
        {
            self.reads_done[from] += n;
            self.writes_done[to] += n;
        }
        let n = n as usize;
        let (i, o) = (self.inputs[from], self.outputs[to]);
        assert_ne!(i, o, "span transfer from a stream to itself");
        let (lo, hi) = self.streams.split_at_mut(i.max(o));
        let (src, dst) = if i < o {
            (&mut lo[i], &mut hi[0])
        } else {
            (&mut hi[0], &mut lo[o])
        };
        let (head, tail) = front_slices(&src.queue, n);
        dst.queue.extend(head);
        dst.queue.extend(tail);
        dst.pushed += n as u64;
        src.queue.drain(..n);
    }

    /// Scheduler-side contract verification after a dispatch: every port
    /// must have moved exactly its quota (debug builds only — release builds
    /// omit the counters entirely so span dispatch never zeroes or bumps
    /// them).
    #[cfg(debug_assertions)]
    pub(crate) fn audit(&self, kernel: &str) {
        let sides = [
            ("popped", &self.reads_done, self.read_quota),
            ("pushed", &self.writes_done, self.write_quota),
        ];
        for (did, done, quota) in sides {
            for (port, (&got, &want)) in done.iter().zip(quota).enumerate() {
                assert_eq!(
                    got, want,
                    "kernel '{kernel}' {did} {got} on port {port}, promised {want} \
                     (SpanPlan contract)"
                );
            }
        }
    }
}

/// A clocked dataflow kernel.
///
/// One `tick` models one fabric clock cycle. Implementations hold all layer
/// state (shift registers, weight caches, position counters) internally,
/// exactly like a MaxJ kernel holds it in FMem/FFs.
pub trait Kernel: Send {
    /// Kernel instance name for reports.
    fn name(&self) -> &str;

    /// Advance one clock cycle.
    fn tick(&mut self, io: &mut Io<'_>) -> Progress;

    /// Restore the control state the kernel had right after construction —
    /// position counters, phase machines, pending outputs, PRNG state,
    /// parameter loaders — keeping everything that is expensive and
    /// batch-invariant (packed weights, threshold banks, scratch
    /// capacity). Called by [`Graph::rearm`](crate::Graph::rearm) between
    /// two runs of one elaborated graph.
    ///
    /// Deliberately has no default body. A run stops at the sink's last
    /// element, not at a kernel-state boundary: a strided pool or
    /// convolution may still be owed trailing input no window reads, an
    /// attention head may hold a half-gathered tile, a stall injector has
    /// advanced its generator. A kernel that silently kept such state
    /// would make the second batch on a warm graph differ from the same
    /// batch on a fresh one, so every kernel must say what its start state
    /// is.
    fn rearm(&mut self);

    /// True once the kernel will never produce further output (run loops
    /// stop when every sink reports it).
    ///
    /// Contract: for a sink kernel (no output streams), the value may only
    /// change as a result of a tick that returned [`Progress::Busy`]. Run
    /// loops rely on this to re-check graph completion only after a cycle
    /// with sink progress; every in-tree sink completes by collecting its
    /// final element, which is a `Busy` tick.
    fn is_done(&self) -> bool {
        false
    }

    /// Stream-interface width as `(read_lanes, write_lanes)`: how many
    /// elements this kernel may move per port per tick. The default `(1, 1)`
    /// is the paper's one-element-per-clock stream contract; a *folded*
    /// kernel (PE/SIMD unrolling) widens it, modelling the wider stream
    /// interface the unrolled datapath would synthesize to.
    ///
    /// Captured once at [`Graph::add_kernel`](crate::Graph::add_kernel) —
    /// the width is a hardware-elaboration property and must not change at
    /// runtime. It bounds the per-tick lanes a [`SpanPhase`] may promise.
    fn lanes(&self) -> (u16, u16) {
        (1, 1)
    }

    /// May the ready-list scheduler park this kernel after a non-`Busy`
    /// tick? Consulted at park time, so the answer may depend on current
    /// internal state (a delay line is parkable only while empty).
    ///
    /// Defaults to [`WakeHint::AlwaysTick`], which keeps dense
    /// every-cycle ticking for custom kernels; override to
    /// [`WakeHint::Parkable`] only if the kernel honours the fixed-point
    /// contract documented on [`WakeHint`].
    fn wake_hint(&self) -> WakeHint {
        WakeHint::AlwaysTick
    }

    /// Offer a span promise for the kernel's *current* state — its next
    /// phases as a [`SpanPlan`] chain — or `None` (the default) if the next
    /// tick's port behaviour cannot be predicted. Consulted by the burst
    /// planner for every kernel a burst touches; must be cheap. A kernel
    /// returning `Some` must honour the [`SpanPlan`] contract and implement
    /// [`Kernel::run_span`].
    ///
    /// `in_len` holds the committed queue length of each input port at plan
    /// time and `out_room` the free slots of each output port; a promise
    /// states what the kernel's ticks do given what they find, so most
    /// kernels ignore both.
    ///
    /// The promise may be conservative: any prefix of the chain is valid,
    /// and returning `None` merely falls the graph back to per-element
    /// ticking while this kernel is awake.
    fn span_hint(&self, in_len: &[usize], out_room: &[usize]) -> Option<SpanPlan> {
        let _ = (in_len, out_room);
        None
    }

    /// A compact summary of the kernel's **control state** for the
    /// schedule-replay fingerprint (see [`crate::replay`]), or `None` (the
    /// default) to veto replay for any graph containing this kernel.
    ///
    /// Contract: the token must cover every piece of internal state that
    /// influences *port behaviour* — which ports the next ticks read/write,
    /// the tick verdicts, and any `span_hint` the kernel would offer. Two
    /// states with equal tokens (and equal visible stream state) must
    /// produce identical port traffic forever after. Position counters,
    /// absorb/emit phases, and pending-output depths belong in the token
    /// ([`crate::replay::token_mix`] folds several counters into one);
    /// element *values* do not, because port behaviour may not depend on
    /// them for a replayable kernel. Kernels with data-dependent control
    /// flow or external effects must return `None`. Lane widths are fixed
    /// at elaboration and stream occupancies are fingerprinted separately,
    /// so a folded kernel's token is the same counters as an unfolded one.
    fn replay_token(&self) -> Option<u64> {
        None
    }

    /// Advance the kernel over a prefix of its promise in one dispatch:
    /// move exactly [`SpanIo::read_quota`] elements from each input port and
    /// [`SpanIo::write_quota`] to each output port, and apply the
    /// internal-state update of the `n` `Busy` ticks that move them. The
    /// quotas always end on a tick the promise describes; a kernel whose
    /// state machine is driven by element counts can ignore `n`. The
    /// default is unreachable for kernels that never return a promise.
    fn run_span(&mut self, io: &mut SpanIo<'_>, n: u64) {
        let _ = (io, n);
        unreachable!(
            "kernel '{}' offered a SpanPlan but does not implement run_span",
            self.name()
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stream::{StreamSpec, StreamState};

    fn setup() -> Vec<StreamState> {
        vec![
            StreamState::new(StreamSpec::new("in", 8, 4)),
            StreamState::new(StreamSpec::new("out", 8, 1)),
        ]
    }

    #[test]
    fn read_is_once_per_cycle() {
        let mut streams = setup();
        streams[0].queue.push_back(1);
        streams[0].queue.push_back(2);
        let (inputs, outputs) = (vec![0usize], vec![1usize]);
        let mut ru = vec![0u16];
        let mut wu = vec![0u16];
        let mut io = Io::new(&mut streams, &inputs, &outputs, &mut ru, &mut wu, 1, 1);
        assert_eq!(io.read(0), Some(1));
        assert!(!io.can_read(0), "second read in same cycle must be refused");
        assert_eq!(io.read(0), None);
    }

    #[test]
    fn write_is_staged_not_committed() {
        let mut streams = setup();
        let (inputs, outputs) = (vec![0usize], vec![1usize]);
        let mut ru = vec![0u16];
        let mut wu = vec![0u16];
        let mut io = Io::new(&mut streams, &inputs, &outputs, &mut ru, &mut wu, 1, 1);
        assert!(io.can_write(0));
        io.write(0, 9);
        assert!(!io.can_write(0));
        assert!(!streams[1].can_read());
        streams[1].commit();
        assert_eq!(streams[1].queue.front(), Some(&9));
    }

    #[test]
    #[should_panic(expected = "full stream")]
    fn write_into_full_stream_panics() {
        let mut streams = setup();
        streams[1].queue.push_back(0); // capacity 1 ⇒ full
        let (inputs, outputs) = (vec![0usize], vec![1usize]);
        let mut ru = vec![0u16];
        let mut wu = vec![0u16];
        let mut io = Io::new(&mut streams, &inputs, &outputs, &mut ru, &mut wu, 1, 1);
        io.write(0, 1);
    }

    #[test]
    fn multi_lane_io_moves_up_to_lane_count() {
        let mut streams = vec![
            StreamState::new(StreamSpec::new("in", 8, 8)),
            StreamState::new(StreamSpec::new("out", 8, 8)),
        ];
        for v in 0..3 {
            streams[0].queue.push_back(v);
        }
        let (inputs, outputs) = (vec![0usize], vec![1usize]);
        let mut ru = vec![0u16];
        let mut wu = vec![0u16];
        let mut io = Io::new(&mut streams, &inputs, &outputs, &mut ru, &mut wu, 2, 3);
        // Two read lanes: third same-cycle read refused even with data left.
        assert_eq!(io.read(0), Some(0));
        assert_eq!(io.read(0), Some(1));
        assert!(!io.can_read(0));
        assert_eq!(io.read(0), None);
        // Three write lanes, all staged until commit.
        io.write(0, 10);
        io.write(0, 11);
        assert!(io.can_write(0));
        io.write(0, 12);
        assert!(!io.can_write(0));
        assert!(!streams[1].can_read());
        streams[1].commit();
        assert_eq!(streams[1].queue.iter().copied().collect::<Vec<_>>(), vec![10, 11, 12]);
    }

    /// One input stream whose queue holds `preload`, physically wrapped
    /// around the end of its buffer when `rotate > 0`, and two outputs.
    fn span_streams(preload: &[i32], rotate: usize) -> Vec<StreamState> {
        let mut streams = vec![
            StreamState::new(StreamSpec::new("in", 32, 16)),
            StreamState::new(StreamSpec::new("out0", 32, 16)),
            StreamState::new(StreamSpec::new("out1", 32, 16)),
        ];
        let q = &mut streams[0].queue;
        q.extend(std::iter::repeat_n(0, rotate));
        // One by one: a drain to empty would move the head back to 0.
        for _ in 0..rotate {
            q.pop_front();
        }
        q.extend(preload);
        streams
    }

    #[test]
    fn pop_n_hands_out_both_halves_of_a_wrapped_queue() {
        let preload: Vec<i32> = (1..=10).collect();
        let mut streams = span_streams(&preload, 12);
        let (inputs, outputs) = (vec![0usize], vec![1usize, 2]);
        let mut halves = Vec::new();
        SpanIo::new(&mut streams, &inputs, &outputs, &[0], &[0, 0])
            .pop_n(0, 9, |vals| halves.push(vals.to_vec()));
        assert_eq!(halves, [vec![1, 2, 3, 4], vec![5, 6, 7, 8, 9]]);
        assert_eq!(streams[0].queue, [10]);
    }

    qnn_testkit::props! {
        /// Each slice-level transfer leaves the queues, the `pushed`
        /// totals and (debug builds) the audit counters exactly as the
        /// `pop`/`push` loop it replaces, and hands its closure the same
        /// elements in the same order — on queues that wrap.
        #[test]
        fn span_io_slice_ops_match_element_loops(
            preload in qnn_testkit::vec(qnn_testkit::any::<u32>(), 0..17),
            rotate in 0usize..16,
            ops in qnn_testkit::vec((0u8..4, 0usize..9, qnn_testkit::any::<u32>()), 0..8),
        ) {
            let preload: Vec<i32> = preload.iter().map(|&v| v as i32).collect();
            let (inputs, outputs) = (vec![0usize], vec![1usize, 2]);
            let mut sliced = span_streams(&preload, rotate);
            let mut looped = span_streams(&preload, rotate);
            let mut a = SpanIo::new(&mut sliced, &inputs, &outputs, &[0], &[0, 0]);
            let mut b = SpanIo::new(&mut looped, &inputs, &outputs, &[0], &[0, 0]);
            let mut left = preload.len();
            let (mut seen_a, mut seen_b) = (Vec::new(), Vec::new());
            for &(op, k, v) in &ops {
                let (take, v) = (k.min(left), v as i32);
                match op {
                    0 => {
                        a.pop_n(0, take as u64, |vals| {
                            assert!(!vals.is_empty(), "pop_n handed out an empty slice");
                            seen_a.extend_from_slice(vals);
                        });
                        (0..take).for_each(|_| seen_b.push(b.pop(0)));
                        left -= take;
                    }
                    1 => {
                        let vals: Vec<i32> = (0..k as i32).map(|j| v.wrapping_add(j)).collect();
                        a.push_slice(0, &vals);
                        vals.iter().for_each(|&x| b.push(0, x));
                    }
                    2 => {
                        a.push_fill(1, v, k as u64);
                        (0..k).for_each(|_| b.push(1, v));
                    }
                    _ => {
                        a.transfer(0, 1, take as u64);
                        for _ in 0..take {
                            let x = b.pop(0);
                            b.push(1, x);
                        }
                        left -= take;
                    }
                }
            }
            #[cfg(debug_assertions)]
            {
                qnn_testkit::prop_assert_eq!(a.reads_done, b.reads_done);
                qnn_testkit::prop_assert_eq!(a.writes_done, b.writes_done);
            }
            qnn_testkit::prop_assert_eq!(&seen_a, &seen_b);
            for (s, l) in sliced.iter().zip(&looped) {
                qnn_testkit::prop_assert_eq!(&s.queue, &l.queue, "stream '{}'", s.spec.name);
                qnn_testkit::prop_assert_eq!(s.pushed, l.pushed, "stream '{}'", s.spec.name);
            }
        }
    }

    #[test]
    #[should_panic(expected = "past queue end")]
    fn span_transfer_past_queue_end_panics() {
        let mut streams = span_streams(&[1, 2], 0);
        let (inputs, outputs) = (vec![0usize], vec![1usize, 2]);
        SpanIo::new(&mut streams, &inputs, &outputs, &[0], &[0, 0]).transfer(0, 0, 3);
    }

    #[test]
    fn multi_lane_write_respects_capacity() {
        // Lane count above FIFO headroom: capacity still wins.
        let mut streams = vec![
            StreamState::new(StreamSpec::new("in", 8, 4)),
            StreamState::new(StreamSpec::new("out", 8, 2)),
        ];
        let (inputs, outputs) = (vec![0usize], vec![1usize]);
        let mut ru = vec![0u16];
        let mut wu = vec![0u16];
        let mut io = Io::new(&mut streams, &inputs, &outputs, &mut ru, &mut wu, 4, 4);
        io.write(0, 1);
        io.write(0, 2);
        assert!(!io.can_write(0), "staged writes count against capacity");
    }
}
